"""The three closed-loop workloads and their correctness gates.

Each workload owns one deployment at a time and drives it from this
process over one connection (or one pipe), sending its next request only
after the previous one (or the previous pipelined window) is answered.
See ``README.md`` beside this file for why each workload exists.
"""

from __future__ import annotations

import json
import select
import struct
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from deploy import ROOT, Server, group_pids, peak_rss_mb, pin_deployment, \
    program_env, stop_group
from hostprobe import CostMeter
from stats import Ledger
from traces import ZipfStream, relabel, rng_for, zipf

from repro import SolveConfig, solve
from repro.client import CurveClient
from repro.service import frames

now = time.monotonic

#: Seconds a single op may take before it counts as timed out.
OP_TIMEOUT = 30.0

#: Cache sizes asked for per query when checking a whole tenant curve.
CHECK_SIZES = 4096


class TenantStream(ZipfStream):
    """One tenant's stream, remembering every push for the final check."""

    def __init__(self, rng: np.random.Generator, u: int, alpha: float):
        super().__init__(rng, u, alpha)
        self.history: List[np.ndarray] = []

    def draw(self, n: int) -> np.ndarray:
        out = super().draw(n)
        self.history.append(out)
        return out

    @property
    def pushed(self) -> int:
        return sum(a.size for a in self.history)

    def concatenated(self) -> np.ndarray:
        return np.concatenate(self.history)


class ReplayStream:
    """One tenant's stream in an episode: a fixed trace, pushed in order."""

    def __init__(self, trace: np.ndarray) -> None:
        self.trace = trace
        self.pushed = 0

    def draw(self, n: int) -> np.ndarray:
        out = self.trace[self.pushed:self.pushed + n]
        self.pushed += out.size
        return out

    def concatenated(self) -> np.ndarray:
        return self.trace[:self.pushed]


class TimedClient(CurveClient):
    """``CurveClient`` that stamps each request's send and reply times.

    With a tracer it also records the client-side encode span of every
    request and counts the bytes crossing the connection.
    """

    def __init__(self, address: Tuple[str, int], tracer: Any = None):
        self.sent: Dict[Optional[str], float] = {}
        self.got: Dict[Optional[str], float] = {}
        self.tracer = tracer
        super().__init__(*address, timeout=OP_TIMEOUT)
        if not self.binary:
            self.close()
            raise RuntimeError("server did not upgrade to the binary protocol")

    def _send(self, header: Dict[str, Any],
              payload: Optional[np.ndarray] = None) -> None:
        t0 = now()
        super()._send(header, payload)
        rid = header.get("id")
        self.sent[rid] = t0
        if self.tracer is not None:
            self.tracer.record("wire.client_encode", t0, now(), rid, depth=1)
            self.tracer.event("wire.bytes_out", _frame_bytes(header, payload))

    def _recv(self) -> Dict[str, Any]:
        header = super()._recv()
        self.got[header.get("id")] = now()
        if self.tracer is not None:
            self.tracer.event("wire.bytes_in", _frame_bytes(header, None))
        return header

    def latency(self, rid: Optional[str],
                start: float) -> Tuple[float, float]:
        """``(send time, seconds to reply)`` of one answered request.

        ``start`` stands in for the send time of a reply that carries no
        request id (an error the server could not attribute).
        """
        sent = self.sent.pop(rid, start)
        return sent, self.got.pop(rid, now()) - sent


def _frame_bytes(header: Dict[str, Any],
                 payload: Optional[np.ndarray]) -> int:
    head = json.dumps(header, separators=(",", ":")).encode("utf-8")
    return frames.HEADER_SIZE + len(head) + (
        0 if payload is None else payload.nbytes)


class Workload:
    """Shared skeleton: start, warm, closed loop, check, stop."""

    name = ""
    #: Cold starts per untraced run; ``setup_s`` is their median.
    cold_starts = 5
    #: Deployment processes a traced run must have spans from, by role.
    processes: Dict[str, int] = {"server": 1}

    def __init__(self, seed: int, out_dir: Path) -> None:
        self.seed = seed
        self.out_dir = out_dir
        self.ledger = Ledger()
        self.errors: List[str] = []
        self.tracer: Any = None
        self.aborted = False
        self.meter = CostMeter(list)

    # Subclasses implement these.
    def start(self, trace_dir: Optional[Path]) -> None: ...
    def warm(self) -> None: ...
    def cycle(self) -> None: ...
    def check(self) -> None: ...
    def stop(self) -> None: ...
    def pids(self) -> List[int]: ...

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.pids())

    def at_boundary(self) -> bool:
        """True where the timed phase may end (between episodes)."""
        return True

    def timed(self, seconds: float) -> Tuple[float, float]:
        """Run cycles until ``seconds`` have passed; returns the window.

        The host probe runs between cycles (see
        :class:`hostprobe.CostMeter`), and the window ends at the first
        boundary after ``seconds``, after a closing probe.
        """
        self.ledger = Ledger()
        self.meter = CostMeter(self.pids)
        t0 = now()
        deadline = t0 + seconds
        while not self.aborted and (now() < deadline
                                    or not self.at_boundary()):
            self.meter.run(self._counted_cycle)
        self.meter.close()
        return t0, now()

    def _counted_cycle(self) -> int:
        before = self.ledger.accesses
        self.cycle()
        return self.ledger.accesses - before

    def _op(self, kind: str, start: float, seconds: float,
            payload: Dict[str, Any], accesses: int, op: int,
            rid: Optional[str] = None) -> bool:
        if self.tracer is not None:
            self.tracer.record("loadgen", start, start + seconds, rid,
                               attrs={"op": kind})
        return self.ledger.reply(op, kind, payload, seconds, accesses)

    def _timeout(self, ops: List[int], exc: BaseException) -> None:
        """The connection is out of step after a timeout: stop the run."""
        for op in ops:
            self.ledger.fail(op, "timeout")
        self.errors.append(f"{self.name}: {type(exc).__name__}: {exc}")
        self.aborted = True


# ---------------------------------------------------------------------------
# offline_solve
# ---------------------------------------------------------------------------


class OfflineSolve(Workload):
    """``repro.solve(trace)`` on the scaled Table-1 ``huge`` row, in a child."""

    name = "offline_solve"
    N, U, ALPHA = 1_000_000, 26_800, 0.8

    def __init__(self, seed: int, out_dir: Path) -> None:
        super().__init__(seed, out_dir)
        self.base = zipf(rng_for(seed, self.name, "base"),
                         self.N, self.U, self.ALPHA)
        self.warm_trace = zipf(rng_for(seed, self.name, "warm"),
                               2048, 1024, self.ALPHA)
        self._relabel = rng_for(seed, self.name, "relabel")
        self.proc: Optional[subprocess.Popen] = None
        self.answers: List[Tuple[int, np.ndarray, int]] = []

    def start(self, trace_dir: Optional[Path]) -> None:
        log = open(self.out_dir / "offline_worker.log", "wb")
        with log:
            self.proc = subprocess.Popen(
                [sys.executable, str(Path(__file__).with_name(
                    "offline_worker.py"))],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=log,
                env=program_env(trace_dir), cwd=str(ROOT),
                start_new_session=True, preexec_fn=pin_deployment,
            )
        self.answers = []

    def _solve(self, trace: np.ndarray) -> Tuple[np.ndarray, int]:
        assert self.proc is not None and self.proc.stdin and self.proc.stdout
        self.proc.stdin.write(struct.pack("<q", trace.size))
        self.proc.stdin.write(trace.astype("<i8", copy=False).tobytes())
        self.proc.stdin.flush()
        ready, _, _ = select.select([self.proc.stdout], [], [], OP_TIMEOUT)
        if not ready:
            raise TimeoutError(f"no answer within {OP_TIMEOUT:.0f} s")
        head = self.proc.stdout.read(16)
        if len(head) < 16:
            raise EOFError("offline worker exited")
        size, total = struct.unpack("<qq", head)
        hits = np.frombuffer(self.proc.stdout.read(size * 8), dtype="<i8")
        return hits, total

    def warm(self) -> None:
        self._solve(self.warm_trace)

    def cycle(self) -> None:
        trace = relabel(self._relabel, self.base, self.U)
        op = self.ledger.begin()
        t0 = now()
        try:
            hits, total = self._solve(trace)
        except (OSError, EOFError) as exc:
            self._timeout([op], exc)
            return
        seconds = now() - t0
        self._op("solve", t0, seconds, {"ok": True}, trace.size, op)
        self.answers.append((op, hits, total))

    def check(self) -> None:
        """Every answer against the ``chunked-iaf`` tier, bit for bit."""
        ref = solve(self.base, SolveConfig(algorithm="chunked-iaf")).curve
        for op, hits, total in self.answers:
            if total != ref.total_accesses or not np.array_equal(
                    hits, ref.hits_cumulative):
                self.ledger.fail(op, "wrong")
                self.errors.append(f"offline_solve: solve #{op} differs "
                                   f"from chunked-iaf")

    def pids(self) -> List[int]:
        assert self.proc is not None
        return group_pids(self.proc.pid)

    def stop(self) -> None:
        if self.proc is None:
            return
        try:
            assert self.proc.stdin is not None
            self.proc.stdin.write(struct.pack("<q", 0))
            self.proc.stdin.close()
        except OSError:
            pass
        stop_group(self.proc)
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self.proc = None


# ---------------------------------------------------------------------------
# Workloads over the wire
# ---------------------------------------------------------------------------


def _sizes(u: int) -> List[int]:
    """Cache sizes a client asks about: 1, 2, 3, 4, 6, 8, ... up to ``u``."""
    out, k = set(), 1
    while k <= u:
        out.add(k)
        if 3 * k // 2 <= u:
            out.add(3 * k // 2)
        k *= 2
    return sorted(out)


class _WireWorkload(Workload):
    """Common tenant plumbing of ``serve_mix`` and ``ring_tenants``."""

    server_args: List[str] = []
    ready = ""
    tenant_u = 0
    n_tenants = 0
    push_n = 20_000
    warm_push = 1024
    alpha = 0.8

    def __init__(self, seed: int, out_dir: Path) -> None:
        super().__init__(seed, out_dir)
        self.server: Optional[Server] = None
        self.client: Optional[TimedClient] = None
        self.streams: Dict[str, TenantStream] = {}
        self.tenant_sizes = _sizes(self.tenant_u)

    def tenant_ids(self) -> List[str]:
        return [f"tenant{i}" for i in range(self.n_tenants)]

    def start(self, trace_dir: Optional[Path]) -> None:
        self.server = Server(self.server_args, self.ready,
                             self.out_dir / f"{self.name}.log", trace_dir)
        self.server.start()
        self.client = TimedClient(self.server.address, self.tracer)
        # A fresh deployment starts fresh streams, drawn from the seed.
        self.streams = {
            tid: TenantStream(rng_for(self.seed, self.name, tid),
                              self.tenant_u, self.alpha)
            for tid in self.tenant_ids()
        }

    def warm(self) -> None:
        """Register, then answer one push and one query per tenant."""
        assert self.client is not None
        for tid, stream in self.streams.items():
            self.client.register(tid, tier="exact")
            self.client.push(tid, stream.draw(self.warm_push))
            self.client.curve(tid, sizes=[1])

    def push(self, tid: str) -> None:
        assert self.client is not None
        stream = self.streams[tid]
        arr = stream.draw(self.push_n)
        op = self.ledger.begin()
        t0 = now()
        try:
            payload = self.client.push(tid, arr, check=False)
        except OSError as exc:
            self._timeout([op], exc)
            return
        start, seconds = self.client.latency(payload.get("id"), t0)
        if self._op("push", start, seconds, payload, arr.size, op,
                    payload.get("id")) and payload.get("accepted") != arr.size:
            self.ledger.fail(op, "wrong")
            self.errors.append(f"{self.name}: push to {tid} accepted "
                               f"{payload.get('accepted')} of {arr.size}")

    def query(self, tid: str) -> Tuple[int, Dict[str, Any]]:
        """One curve query at :attr:`tenant_sizes`: ``(op, reply)``."""
        assert self.client is not None
        op = self.ledger.begin()
        t0 = now()
        try:
            payload = self.client.curve(tid, sizes=self.tenant_sizes,
                                        check=False)
        except OSError as exc:
            self._timeout([op], exc)
            return op, {}
        start, seconds = self.client.latency(payload.get("id"), t0)
        if self._op("query", start, seconds, payload, 0, op,
                    payload.get("id")) and (
                payload.get("total_accesses") != self.streams[tid].pushed
                or not payload.get("exact")):
            self.ledger.fail(op, "wrong")
            self.errors.append(f"{self.name}: query of {tid} covers "
                               f"{payload.get('total_accesses')} accesses, "
                               f"{self.streams[tid].pushed} were pushed")
        return op, payload

    def admin(self, verb: str, tid: str) -> None:
        """Register (exact tier) or evict one tenant, counted as an op."""
        assert self.client is not None
        op = self.ledger.begin()
        t0 = now()
        try:
            if verb == "register":
                payload = self.client.register(tid, tier="exact",
                                               check=False)
            else:
                payload = self.client.evict(tid, check=False)
        except OSError as exc:
            self._timeout([op], exc)
            return
        start, seconds = self.client.latency(payload.get("id"), t0)
        self._op(verb, start, seconds, payload, 0, op, payload.get("id"))

    def check_tenants(self) -> None:
        """Each tenant's whole curve against an in-process ``solve()``."""
        assert self.client is not None
        for tid, stream in self.streams.items():
            trace = stream.concatenated()
            ref = solve(trace).curve
            op = self.ledger.begin()
            same = True
            # Frame headers are capped at 1 MiB, so ask in slices.
            for lo in range(1, int(ref.max_size) + 1, CHECK_SIZES):
                sizes = list(range(lo, min(lo + CHECK_SIZES,
                                           int(ref.max_size) + 1)))
                try:
                    payload = self.client.curve(tid, sizes=sizes,
                                                check=False)
                except OSError as exc:
                    self._timeout([op], exc)
                    return
                rates = payload.get("hit_rates") or {}
                same = same and bool(
                    payload.get("ok") and payload.get("exact")
                    and not payload.get("rerouted")
                    and payload.get("total_accesses") == trace.size
                    and all(rates.get(str(k)) == ref.hit_rate(k)
                            for k in sizes))
            if not same:
                self.ledger.fail(op, "wrong")
                self.errors.append(f"{self.name}: curve of {tid} differs "
                                   f"from solve() of its {trace.size} "
                                   f"pushed accesses")

    def pids(self) -> List[int]:
        assert self.server is not None and self.server.proc is not None
        return group_pids(self.server.proc.pid)

    def stop(self) -> None:
        if self.client is not None:
            self.client.close()
            self.client = None
        if self.server is not None:
            self.server.stop()
            self.server = None


class ServeMix(_WireWorkload):
    """Pipelined small solves plus narrow-universe tenants on one server."""

    name = "serve_mix"
    server_args = ["--tenants"]
    ready = r"serving on ([^\s:]+):(\d+)"
    tenant_u = 4096
    n_tenants = 2
    WINDOW, SOLVE_N, SOLVE_U = 32, 2048, 1024
    POOL = 64
    QUERY_EVERY = 4

    def __init__(self, seed: int, out_dir: Path) -> None:
        super().__init__(seed, out_dir)
        self.pool = [zipf(rng_for(seed, self.name, "solve", str(i)),
                          self.SOLVE_N, self.SOLVE_U, self.alpha)
                     for i in range(self.POOL)]
        self.solve_sizes = _sizes(self.SOLVE_U)
        self._relabel = rng_for(seed, self.name, "relabel")
        self._cycles = 0
        self._next = 0
        #: (op, pool index, reply hit rates) of every answered solve.
        self.answers: List[Tuple[int, int, Dict[str, float]]] = []

    def warm(self) -> None:
        super().warm()
        assert self.client is not None
        self.client.solve(self.pool[0], sizes=[1])
        self._cycles = 0
        self.answers = []

    def window(self) -> None:
        assert self.client is not None
        picks = [(self._next + i) % self.POOL for i in range(self.WINDOW)]
        self._next = (self._next + self.WINDOW) % self.POOL
        traces = [relabel(self._relabel, self.pool[i], self.SOLVE_U)
                  for i in picks]
        ops = [self.ledger.begin() for _ in picks]
        t0 = now()
        try:
            replies = self.client.solve_batch(traces, sizes=self.solve_sizes,
                                              check=False)
        except OSError as exc:
            self._timeout(ops, exc)
            return
        seconds = now() - t0
        if self.tracer is not None:
            self.tracer.record("loadgen", t0, t0 + seconds, None,
                               attrs={"op": "window"})
        if all(p.get("ok") for p in replies):
            self.ledger.latencies["window"].append(seconds)
        for op, pick, payload in zip(ops, picks, replies):
            _start, seconds = self.client.latency(payload.get("id"), t0)
            if self.ledger.reply(op, "solve", payload, seconds,
                                 self.SOLVE_N):
                self.answers.append((op, pick, payload.get("hit_rates")))

    def cycle(self) -> None:
        self.window()
        for tid in self.streams:
            if not self.aborted:
                self.push(tid)
        self._cycles += 1
        if self._cycles % self.QUERY_EVERY == 0:
            for tid in self.streams:
                if not self.aborted:
                    self.query(tid)

    def check(self) -> None:
        refs = [solve(t).curve for t in self.pool]
        for op, pick, rates in self.answers:
            ref = refs[pick]
            if not rates or any(rates.get(str(k)) != ref.hit_rate(k)
                                for k in self.solve_sizes):
                self.ledger.fail(op, "wrong")
                self.errors.append(f"serve_mix: solve #{op} hit rates "
                                   f"differ from solve()")
        self.check_tenants()


class RingTenants(_WireWorkload):
    """Four wide-universe tenant streams through a 2-shard ring, in episodes.

    A tenant's cost per push grows with its living set, so a stream that
    ran on would make a faster host's run dearer per access.  The timed
    phase is therefore whole episodes, all alike: evict the previous
    tenants, register them afresh and push each a renamed copy of its
    seeded base stream, ``ROUNDS`` rounds of one push per tenant,
    with a query per tenant every ``QUERY_EVERY`` rounds and after the
    last.  A cycle is one round.
    """

    name = "ring_tenants"
    processes = {"frontend": 1, "server": 2}
    server_args = ["--cluster", "2"]
    ready = r"ring on ([^\s:]+):(\d+)"
    tenant_u = 65_536
    n_tenants = 4
    ROUNDS = 10
    QUERY_EVERY = 3

    def __init__(self, seed: int, out_dir: Path) -> None:
        super().__init__(seed, out_dir)
        self.bases = [zipf(rng_for(seed, self.name, "base", str(i)),
                           self.ROUNDS * self.push_n, self.tenant_u,
                           self.alpha)
                      for i in range(self.n_tenants)]
        self._relabel = rng_for(seed, self.name, "relabel")
        self._round = 0
        #: (op, base index, hit rates) of every episode's last query.
        self.finals: List[Tuple[int, int, Dict[str, float]]] = []

    def warm(self) -> None:
        super().warm()
        self._round = 0
        self.finals = []

    def at_boundary(self) -> bool:
        return self._round == 0

    def _new_episode(self) -> None:
        for tid in list(self.streams):
            if not self.aborted:
                self.admin("evict", tid)
        # The same ids every episode: the ring places them alike.
        self.streams = {}
        for tid, base in zip(self.tenant_ids(), self.bases):
            self.streams[tid] = ReplayStream(
                relabel(self._relabel, base, self.tenant_u))
            if not self.aborted:
                self.admin("register", tid)

    def cycle(self) -> None:
        if self._round == 0:
            self._new_episode()
        self._round += 1
        last = self._round == self.ROUNDS
        for tid in self.streams:
            if not self.aborted:
                self.push(tid)
        if last or self._round % self.QUERY_EVERY == 0:
            for i, tid in enumerate(self.streams):
                if not self.aborted:
                    op, payload = self.query(tid)
                    if last:
                        self.finals.append(
                            (op, i, payload.get("hit_rates") or {}))
        if last:
            self._round = 0

    def check(self) -> None:
        """Every episode's last queries, then the last episode's curves."""
        refs = [solve(base).curve for base in self.bases]
        for op, i, rates in self.finals:
            if any(rates.get(str(k)) != refs[i].hit_rate(k)
                   for k in self.tenant_sizes):
                self.ledger.fail(op, "wrong")
                self.errors.append(f"ring_tenants: last query #{op} of an "
                                   f"episode differs from solve()")
        self.check_tenants()


WORKLOADS = {w.name: w for w in (OfflineSolve, ServeMix, RingTenants)}
