"""Turn the spans of every process of one traced run into per-layer metrics.

Self time.  The traced wall time is split along one time line: at each
instant it goes to the deepest hop that has a span open — a server
process over the ring frontend over the load generator — and within that
hop to the innermost open span of each busy thread, shared evenly when
several threads are busy at once.  A server process with no span open
but a request between its decode and its reply write gives the instant
to ``server.s`` (parse, admission, queueing, dispatch).  Instants with
no span open anywhere are ``unattributed_s``.  Everything below a
``ChunkedIAF.preview`` call counts as ``chunked.preview_s``, so the
committed ingest path and the query path stay apart.

Counts (chunks, forwards, batch occupancy, ...) come from the spans that
start inside the timed window.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Dict, List, Tuple

ROLE_RANK = {"loadgen": 0, "frontend": 1, "server": 2}

#: Span label -> self-time column.  These columns and ``unattributed_s``
#: add up to the traced wall time.
COLUMNS = {
    "loadgen": "loadgen.transit_s",
    "wire.client_encode": "wire.client_encode_s",
    "ring.frontend": "ring.frontend_s",
    "wire.decode": "wire.decode_s",
    "wire.encode": "wire.encode_s",
    "server": "server.s",
    "service.busy": "service.busy_s",
    "tenants.push": "tenants.push_s",
    "tenants.curve": "tenants.curve_s",
    "chunked.solve": "chunked.solve_s",
    "chunked.carry": "chunked.carry_s",
    "chunked.preview": "chunked.preview_s",
    "api.solve": "api.solve_s",
    "api.solve_batch": "api.solve_batch_s",
    "engine.other": "engine.other_s",
    "engine.levelloop": "engine.levelloop_s",
    "ops": "ops.s",
    "prevnext": "prevnext.s",
    "hitrate": "hitrate.s",
}


class Span:
    __slots__ = ("label", "start", "end", "depth", "thread", "rid", "attrs",
                 "rank", "column", "committed", "pid")

    def __init__(self, raw: list, pid: int, rank: int) -> None:
        (self.label, self.start, self.end, self.depth, tid, self.rid,
         attrs) = raw
        self.attrs = attrs or {}
        self.pid = pid
        self.thread = (pid, tid)
        self.rank = rank
        self.column = COLUMNS[self.label]
        self.committed = False


def _mark_context(spans: List[Span]) -> None:
    """Collapse preview subtrees; flag engine work on the commit path."""
    by_thread: Dict[Tuple[int, int], List[Span]] = defaultdict(list)
    for span in spans:
        by_thread[span.thread].append(span)
    for thread_spans in by_thread.values():
        thread_spans.sort(key=lambda s: (s.start, s.depth))
        stack: List[Span] = []
        for span in thread_spans:
            while stack and stack[-1].end <= span.start:
                stack.pop()
            labels = {s.label for s in stack}
            if "chunked.preview" in labels:
                span.column = "chunked.preview_s"
            elif "chunked.solve" in labels:
                span.committed = True
            stack.append(span)


def _request_spans(spans: List[Span]) -> List[Span]:
    """One synthetic span per request a server process answered.

    It runs from the start of decoding the request's frame to the end of
    writing its reply, matched by request id, and sits below every real
    span of that process.
    """
    first: Dict[Tuple[int, str], float] = {}
    last: Dict[Tuple[int, str], float] = {}
    rank: Dict[int, int] = {}
    for span in spans:
        if span.rid is None or span.rank != ROLE_RANK["server"]:
            continue
        key = (span.pid, span.rid)
        rank[span.pid] = span.rank
        if span.label == "wire.decode":
            first[key] = min(first.get(key, span.start), span.start)
        elif span.label == "wire.encode":
            last[key] = max(last.get(key, span.end), span.end)
    out = []
    for key, start in first.items():
        end = last.get(key)
        if end is not None and end > start:
            out.append(Span(["server", start, end, -1, "request", key[1],
                             None], key[0], rank[key[0]]))
    return out


def _union_length(intervals: List[Tuple[float, float]]) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: List[Span], w0: float, w1: float) -> Dict[str, float]:
    """Per-column self time over ``[w0, w1]``."""
    clipped = [(max(s.start, w0), min(s.end, w1), i)
               for i, s in enumerate(spans) if s.end > w0 and s.start < w1]
    events = []
    for start, end, i in clipped:
        if end > start:
            events.append((start, 1, i))
            events.append((end, 0, i))
    events.sort()
    columns = {c: 0.0 for c in COLUMNS.values()}
    active: Dict[int, Dict[Any, set]] = {r: defaultdict(set)
                                         for r in ROLE_RANK.values()}
    requests: Dict[int, set] = {r: set() for r in ROLE_RANK.values()}
    prev = w0
    for t, kind, i in events + [(w1, 2, -1)]:
        if t > prev:
            _share(spans, active, requests, columns, t - prev)
        prev = t
        if kind == 2:
            break
        span = spans[i]
        bucket = (requests[span.rank] if span.depth < 0
                  else active[span.rank][span.thread])
        if kind == 1:
            bucket.add(i)
        else:
            bucket.discard(i)
    return columns


def _share(spans: List[Span], active: Dict[int, Dict[Any, set]],
           requests: Dict[int, set], columns: Dict[str, float],
           dt: float) -> None:
    """Give ``dt`` to the deepest busy hop, if any hop is busy."""
    for rank in sorted(active, reverse=True):
        leaves = [max(ids, key=lambda i: (spans[i].depth, spans[i].start))
                  for ids in active[rank].values() if ids]
        if not leaves:
            leaves = list(requests[rank])
        if leaves:
            for i in leaves:
                columns[spans[i].column] += dt / len(leaves)
            return


def analyse(dumps: List[Dict[str, Any]], w0: float, w1: float,
            accesses: int) -> Dict[str, Any]:
    """Per-layer metrics of one traced window, plus the checks' inputs."""
    spans: List[Span] = []
    events: List[Tuple[str, float, float]] = []
    for dump in dumps:
        rank = ROLE_RANK[dump["role"]]
        for raw in dump["spans"]:
            if raw[0] is None:
                continue
            span = Span(raw, dump["pid"], rank)
            if dump["role"] == "frontend":
                span.column = "ring.frontend_s"
            spans.append(span)
        events.extend(tuple(e) for e in dump.get("events", []))
    _mark_context(spans)
    synthetic = _request_spans(spans)
    spans.extend(synthetic)
    wall = w1 - w0
    columns = self_times(spans, w0, w1)
    covered = _union_length([(max(s.start, w0), min(s.end, w1))
                             for s in spans if s.end > w0 and s.start < w1])
    inside = [s for s in spans if w0 <= s.start < w1]

    def total(label: str, key: str) -> float:
        return float(sum(s.attrs.get(key, 0) for s in inside
                         if s.label == label))

    def count(label: str) -> int:
        return sum(1 for s in inside if s.label == label and s.depth >= 0)

    units = [s for s in inside if s.label == "service.busy"]
    solve_units = [s for s in units if not s.attrs.get("work")]
    drains = [s for s in inside if s.label == "tenants.push"
              and "drained" in s.attrs]
    chunked_in = total("chunked.carry", "n")
    committed = sum(s.attrs.get("n", 0) for s in inside
                    if s.label == "engine.other" and s.committed)
    engine_n = total("engine.other", "n")
    loops = [s for s in inside if s.label == "engine.levelloop"]
    requests = {s.rid: s for s in synthetic}
    hop, hop_missing = 0.0, 0
    if any(d["role"] == "frontend" for d in dumps):
        for s in inside:
            if s.label == "loadgen" and s.rid is not None:
                served = requests.get(s.rid)
                if served is None:
                    hop_missing += 1
                    continue
                hop += (s.end - s.start) - (served.end - served.start)

    def event_sum(name: str) -> float:
        return float(sum(v for n, t, v in events if n == name
                         and w0 <= t < w1))

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    metrics = dict(columns)
    metrics.update({
        "unattributed_s": wall - covered,
        "traced_wall_s": wall,
        "wire.bytes_in": event_sum("wire.bytes_in"),
        "wire.bytes_out": event_sum("wire.bytes_out"),
        "ring.hop_s": hop,
        "ring.forwards": float(sum(1 for s in inside
                                   if s.attrs.get("forwards"))),
        "ring.reroutes": float(sum(1 for s in inside
                                   if s.attrs.get("rerouted"))),
        "service.queue_wait_s": float(sum(s.attrs.get("waits", 0.0)
                                          for s in units)),
        "service.batch_occupancy": ratio(
            sum(s.attrs.get("requests", 0) for s in solve_units),
            len(solve_units)),
        "service.rejected": total("server", "rejected"),
        "tenants.batches_per_drain": ratio(
            sum(s.attrs["drained"] for s in drains),
            sum(1 for s in drains if s.attrs["drained"])),
        "chunked.chunks": float(count("chunked.carry")),
        "chunked.amplification": ratio(committed, chunked_in),
        "prevnext.sorts_per_access": ratio(total("prevnext", "n"), accesses),
        "engine.levels": ratio(sum(s.attrs.get("levels", 0) for s in loops),
                               len(loops)),
        "engine.work_per_access": ratio(
            sum(s.attrs.get("ops", 0) for s in loops), engine_n),
    })
    return {
        "metrics": metrics,
        "attributed_s": sum(columns.values()),
        "wall_s": wall,
        "pids_with_spans": sorted({s.pid for s in inside}),
        "hop_missing": hop_missing,
    }
