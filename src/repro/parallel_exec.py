"""Persistent shared-memory process executor for the parallel engine.

The paper's Θ(log n)-span parallelism (§6) only pays off in practice if
dispatch is cheap: Byrne et al. (arXiv:1804.01972) name per-call
dispatch overhead as the gap between asymptotic parallel MRC algorithms
and deployed ones.  Workers are therefore forked **once** and reused
across requests:

* One ``multiprocessing.shared_memory`` block (the *arena*) holds every
  published array.  A first-fit free-list allocator hands out 64-byte
  aligned blocks; each block starts with a 16-byte header
  ``[generation u64][payload nbytes u64]``.  Generations increase
  monotonically and are zeroed on free, so a stale descriptor (a retry
  racing a free, a worker replaying an old message) is *detected* on the
  worker side instead of silently reading reused memory.
* A dispatch publishes each :class:`~repro.core.engine.Segments` part
  (kind/t/r/starts/lo/hi/w) into the arena — coordinates rebased while
  copying — and sends only **descriptors** (offset, generation, dtype,
  length) over the pipe.  On a warm pool no ndarray is ever pickled;
  the serialization-spy test in ``tests/exec`` pins this.
* Workers build zero-copy numpy views over the arena, solve with
  :func:`~repro.core.engine.solve_prepost_arrays` into a shared output
  block, and reply with a bare ``("done", job_id)``.  The parent merges
  from the shared output region via :func:`_merge_part_values`.

The parts come from the engine's level loop: ``solve_prepost_arrays``
(and so ``iaf_distances``/``weighted_backward_distances``) with
``workers > 1`` and ``executor=`` hands its split level here.  Each part
owns its arrays, so an inline solve on the caller's thread cannot
overwrite another part.

Robustness is first-class, mirroring the service's CapacityError
degrade ladder: per-dispatch timeouts, dead-worker detection, bounded
retry-with-backoff on a respawned worker, and degrade-to-in-process
solve when retries exhaust.  Every rung is counted (``exec.dispatch``,
``exec.retry``, ``exec.respawn``, ``exec.degraded`` …) and span-traced,
and the whole ladder is fault-injected via :func:`set_fault_hook`
(see :mod:`repro.qa.faults`, which kills workers mid-solve).
"""

from __future__ import annotations

import atexit
import bisect
import multiprocessing as mp
import os
import pickle
import signal
import threading
import time
import warnings
from multiprocessing import shared_memory
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from .errors import ExecutorError
from .obs import Counters, NULL_SPAN, get_tracer

__all__ = [
    "ProcessExecutor",
    "SharedArena",
    "default_executor",
    "shutdown_default_executor",
    "set_fault_hook",
    "clear_fault_hook",
]

#: Block header: ``[generation u64][payload nbytes u64]``, padded so
#: payloads stay 64-byte aligned for the vector kernels.
_HEADER = 64
_ALIGN = 64

_DEFAULT_ARENA_BYTES = 64 * 1024 * 1024
_MAX_ARENA_BYTES = 4 * 1024 * 1024 * 1024


def _round_up(n: int, align: int = _ALIGN) -> int:
    return (n + align - 1) // align * align


# The executor's single serialization point.  Dispatch messages carry
# only descriptors and scalars; tests monkeypatch this to assert that
# no ndarray ever crosses the pipe on a warm pool.
def _dumps(obj: Any) -> bytes:
    return pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)


def _loads(data: bytes) -> Any:
    return pickle.loads(data)


class _Block:
    """One allocated arena block (parent-side bookkeeping handle)."""

    __slots__ = ("offset", "size", "generation")

    def __init__(self, offset: int, size: int, generation: int) -> None:
        self.offset = offset          # start of the 64-byte header
        self.size = size              # header + padded payload
        self.generation = generation


class SharedArena:
    """One shared-memory block carved up by a first-fit free list.

    The parent owns the free list; workers only ever *read* descriptors
    (offset/generation/dtype/count) against it.  Blocks are 64-byte
    aligned with a 16-byte header inside a 64-byte slot:
    ``generation`` (u64, zeroed on free) then payload byte length (u64).
    """

    def __init__(self, nbytes: int) -> None:
        nbytes = _round_up(max(int(nbytes), _HEADER + _ALIGN))
        self._shm = shared_memory.SharedMemory(create=True, size=nbytes)
        self.size = nbytes
        self._free: List[Tuple[int, int]] = [(0, nbytes)]
        self._live = 0
        self._gen = 0
        self._closed = False

    @property
    def name(self) -> str:
        return self._shm.name

    @property
    def live_blocks(self) -> int:
        return self._live

    def alloc(self, payload_nbytes: int) -> Optional[_Block]:
        """First-fit allocation; ``None`` when nothing fits."""
        size = _HEADER + _round_up(max(int(payload_nbytes), 1))
        for i, (off, avail) in enumerate(self._free):
            if avail >= size:
                if avail == size:
                    self._free.pop(i)
                else:
                    self._free[i] = (off + size, avail - size)
                self._gen += 1
                hdr = np.frombuffer(self._shm.buf, dtype=np.uint64,
                                    count=2, offset=off)
                hdr[0] = self._gen
                hdr[1] = payload_nbytes
                self._live += 1
                return _Block(off, size, self._gen)
        return None

    def free(self, block: _Block) -> None:
        """Return a block; zero its generation so stale reads fail loud."""
        if self._closed:
            return
        hdr = np.frombuffer(self._shm.buf, dtype=np.uint64, count=2,
                            offset=block.offset)
        hdr[0] = 0
        self._live -= 1
        entry = (block.offset, block.size)
        idx = bisect.bisect_left(self._free, entry)
        self._free.insert(idx, entry)
        # Coalesce with the right, then the left, neighbor.
        if idx + 1 < len(self._free) and \
                entry[0] + entry[1] == self._free[idx + 1][0]:
            nxt = self._free.pop(idx + 1)
            self._free[idx] = (entry[0], entry[1] + nxt[1])
        if idx > 0:
            prev = self._free[idx - 1]
            cur = self._free[idx]
            if prev[0] + prev[1] == cur[0]:
                self._free.pop(idx)
                self._free[idx - 1] = (prev[0], prev[1] + cur[1])

    def view(self, block: _Block, dtype: "np.typing.DTypeLike",
             count: int) -> np.ndarray:
        """Zero-copy numpy view over a block's payload."""
        return np.frombuffer(self._shm.buf, dtype=np.dtype(dtype),
                             count=count, offset=block.offset + _HEADER)

    def describe(self, block: _Block, dtype: np.dtype,
                 count: int) -> Tuple[int, int, str, int]:
        """The wire descriptor workers resolve back into a view."""
        return (block.offset, block.generation, dtype.str, int(count))

    def close(self, *, unlink: bool = True) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._shm.close()
        except (OSError, BufferError):  # pragma: no cover - platform noise
            pass
        if unlink:
            try:
                self._shm.unlink()
            except (FileNotFoundError, OSError):  # pragma: no cover
                pass


def _resolve_array(buf: memoryview,
                   desc: Tuple[int, int, str, int]) -> np.ndarray:
    """Worker side: descriptor → zero-copy view, with generation check."""
    offset, generation, dtype, count = desc
    hdr = np.frombuffer(buf, dtype=np.uint64, count=2, offset=offset)
    if int(hdr[0]) != generation:
        raise ExecutorError(
            f"stale arena descriptor: block at {offset} has generation "
            f"{int(hdr[0])}, dispatch expected {generation}"
        )
    return np.frombuffer(buf, dtype=np.dtype(dtype), count=count,
                         offset=offset + _HEADER)


def _worker_main(initial_arena: str, conn: Any) -> None:
    """Worker loop: attach arenas lazily, solve descriptor jobs forever.

    A worker must never take the parent's arena with it: attaching would
    register the segment with ``resource_tracker``, whose bookkeeping is
    per-*name* — concurrent register/unregister messages from several
    workers race, and a SIGKILLed worker leaves an entry that unlinks
    the parent's live arena at shutdown.  The parent is the arena's sole
    owner (its ``unlink()`` unregisters), so worker-side registration is
    disabled outright — a process-local patch, applied only inside the
    forked/spawned child.
    """
    # Late imports keep spawn-method workers cheap until the first job.
    from multiprocessing import resource_tracker

    from .core.engine import Segments, solve_prepost_arrays

    _real_register = resource_tracker.register

    def _register(name: str, rtype: str) -> None:
        if rtype != "shared_memory":
            _real_register(name, rtype)

    resource_tracker.register = _register

    arenas: Dict[str, shared_memory.SharedMemory] = {}

    def attach(name: str) -> shared_memory.SharedMemory:
        shm = arenas.get(name)
        if shm is None:
            shm = shared_memory.SharedMemory(name=name)
            arenas[name] = shm
        return shm

    try:
        attach(initial_arena)
        while True:
            try:
                msg = _loads(conn.recv_bytes())
            except (EOFError, OSError):
                break
            kind = msg[0]
            if kind == "stop":
                break
            if kind == "forget":
                shm = arenas.pop(msg[1], None)
                if shm is not None:
                    shm.close()
                continue
            if kind != "job":
                continue
            _, job_id, arena_name, payload, backend = msg
            try:
                buf = attach(arena_name).buf
                part = Segments(
                    kind=_resolve_array(buf, payload["kind"]),
                    t=_resolve_array(buf, payload["t"]),
                    r=_resolve_array(buf, payload["r"]),
                    starts=_resolve_array(buf, payload["starts"]),
                    lo=_resolve_array(buf, payload["lo"]),
                    hi=_resolve_array(buf, payload["hi"]),
                    w=(None if payload["w"] is None
                       else _resolve_array(buf, payload["w"])),
                )
                out = _resolve_array(buf, payload["out"])
                out[:] = 0  # a retry re-runs on the same block
                solve_prepost_arrays(part, out, engine_backend=backend)
                reply = ("done", job_id)
            except BaseException as exc:  # noqa: BLE001 - reported upstream
                reply = ("err", job_id,
                         f"{type(exc).__name__}: {exc}")
            try:
                conn.send(reply)
            except (BrokenPipeError, OSError):
                break
    finally:
        for shm in arenas.values():
            try:
                shm.close()
            except (OSError, BufferError):  # pragma: no cover
                pass
        try:
            conn.close()
        except OSError:  # pragma: no cover
            pass


class _Worker:
    __slots__ = ("index", "process", "conn")

    def __init__(self, index: int, process: Any, conn: Any) -> None:
        self.index = index
        self.process = process
        self.conn = conn


class _Job:
    __slots__ = ("job_id", "part", "arena", "blocks", "out_block", "span",
                 "payload", "attempts", "sent_at", "worker", "values",
                 "completed")

    def __init__(self, job_id: int, part: Any, arena: SharedArena,
                 blocks: List[_Block], out_block: _Block, span: int,
                 payload: Dict[str, Any]) -> None:
        self.job_id = job_id
        self.part = part              # original (absolute) Segments part
        self.arena = arena
        self.blocks = blocks          # every block incl. out_block
        self.out_block = out_block
        self.span = span
        self.payload = payload
        self.attempts = 0
        self.sent_at = 0.0
        self.worker: Optional[_Worker] = None
        self.values: Optional[np.ndarray] = None  # dispatch's output array
        self.completed = False        # set only after values are merged


def _merge_part_values(
    values: np.ndarray, lo: np.ndarray, hi: np.ndarray, local: np.ndarray
) -> None:
    """Copy a remote part's cells back, one slice per contiguous run.

    Sorting the part's segment intervals by ``lo`` and splitting at
    coverage breaks copies a handful of bulk slices rather than one per
    segment, while never touching cells the part does not own — gaps
    (other parts' subtrees interleaved by the level ordering, or leaves
    solved before the split) keep their values.
    """
    if lo.size == 0:
        return
    base = int(lo.min())
    order = np.argsort(lo)
    lo_s = lo[order]
    hi_s = hi[order]
    breaks = np.flatnonzero(lo_s[1:] != hi_s[:-1] + 1) + 1
    run_lo = lo_s[np.concatenate([np.zeros(1, dtype=np.int64), breaks])]
    run_hi = hi_s[np.concatenate([breaks - 1, [lo_s.size - 1]])]
    for a, b in zip(run_lo.tolist(), run_hi.tolist()):
        values[a : b + 1] = local[a - base : b - base + 1]


# -- fault injection ---------------------------------------------------------

#: Optional hook ``(executor, worker_index, event) -> None`` fired right
#: after a job is handed to a worker (``event`` is ``"dispatch"`` or
#: ``"retry"``).  ``repro.qa.faults`` arms it to SIGKILL workers
#: mid-solve; production code leaves it ``None``.
_fault_hook: Optional[Callable[["ProcessExecutor", int, str], None]] = None


def set_fault_hook(
    hook: Callable[["ProcessExecutor", int, str], None]
) -> None:
    global _fault_hook
    _fault_hook = hook


def clear_fault_hook() -> None:
    global _fault_hook
    _fault_hook = None


class ProcessExecutor:
    """Persistent process pool dispatching Segments parts via shared memory.

    Dispatches are concurrent: independent ``solve_parts`` calls from
    different threads interleave on the wire, each fanning its parts out
    across all workers.  (An earlier version held one re-entrant lock
    across the whole dispatch — publish, send, collect — so the sharded
    service's "parallel" shards actually ran one after another.)  Three
    narrow locks replace it: ``_alloc_lock`` guards arena allocation and
    bookkeeping, ``_io_lock`` guards pipe traffic, and ``_lock`` guards
    pool state (workers, round-robin, the in-flight job registry).  Any
    dispatching thread drains whatever replies are ready — including
    other threads' — and routes each to its job via the registry; a
    dispatch returns once its own jobs are complete.

    The service, the CLI, and ``solve`` under ``process-iaf`` share one
    pool via :func:`default_executor`, so a warm second request pays
    descriptor bytes — not fork, not array pickling.
    """

    def __init__(
        self,
        workers: int = 2,
        *,
        arena_bytes: int = _DEFAULT_ARENA_BYTES,
        dispatch_timeout: float = 120.0,
        max_retries: int = 2,
        retry_backoff: float = 0.05,
    ) -> None:
        if workers < 1:
            raise ExecutorError(f"workers must be >= 1, got {workers}")
        if dispatch_timeout <= 0:
            raise ExecutorError(
                f"dispatch_timeout must be > 0, got {dispatch_timeout}"
            )
        if max_retries < 0:
            raise ExecutorError(
                f"max_retries must be >= 0, got {max_retries}"
            )
        self._ctx = mp.get_context(
            "fork" if "fork" in mp.get_all_start_methods() else "spawn"
        )
        # Lock order (outer to inner): _alloc_lock -> _lock -> _io_lock
        # -> _counters_lock.  Never acquire leftward while holding a
        # rightward lock.  The fault hook fires outside all of them.
        self._lock = threading.RLock()
        self._alloc_lock = threading.Lock()
        self._io_lock = threading.RLock()
        self._counters_lock = threading.Lock()
        self._sweep_lock = threading.Lock()
        self._inflight: Dict[int, _Job] = {}
        self._arena = SharedArena(arena_bytes)
        self._retired: List[SharedArena] = []
        self._workers: List[_Worker] = []
        self._rr = 0
        self._job_seq = 0
        self._closed = False
        self._dispatch_timeout = float(dispatch_timeout)
        self._max_retries = int(max_retries)
        self._retry_backoff = float(retry_backoff)
        self.counters = Counters()
        try:
            for _ in range(workers):
                self._spawn()
        except BaseException:
            self.close()
            raise

    # -- lifecycle -----------------------------------------------------------

    def _spawn(self) -> _Worker:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=_worker_main,
            args=(self._arena.name, child_conn),
            daemon=True,
            name=f"repro-exec-{len(self._workers)}",
        )
        with warnings.catch_warnings():
            # 3.12 warns on fork-with-threads; our workers touch only
            # their pipe and the arena, never inherited locks.
            warnings.simplefilter("ignore", DeprecationWarning)
            process.start()
        child_conn.close()
        worker = _Worker(len(self._workers), process, parent_conn)
        self._workers.append(worker)
        return worker

    def _respawn(self, worker: _Worker) -> _Worker:
        tracer = get_tracer()
        span = (tracer.span("exec.respawn", worker=worker.index)
                if tracer.enabled else NULL_SPAN)
        with span:
            self._count("exec.respawn")
            with self._io_lock:
                try:
                    worker.conn.close()
                except OSError:
                    pass
            if worker.process.is_alive():
                worker.process.kill()
            worker.process.join(timeout=5.0)
            parent_conn, child_conn = self._ctx.Pipe(duplex=True)
            process = self._ctx.Process(
                target=_worker_main,
                args=(self._arena.name, child_conn),
                daemon=True,
                name=f"repro-exec-{worker.index}",
            )
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DeprecationWarning)
                process.start()
            child_conn.close()
            replacement = _Worker(worker.index, process, parent_conn)
            with self._lock:
                self._workers[worker.index] = replacement
            return replacement

    def ensure_workers(self, workers: int) -> None:
        """Grow the pool to at least ``workers`` (never shrinks)."""
        with self._lock:
            if self._closed:
                raise ExecutorError("executor is closed")
            while len(self._workers) < workers:
                self._spawn()

    @property
    def workers(self) -> int:
        return len(self._workers)

    @property
    def closed(self) -> bool:
        return self._closed

    def worker_pids(self) -> List[int]:
        """Live worker PIDs (the warm-pool reuse tests pin these)."""
        with self._lock:
            return [w.process.pid for w in self._workers]

    def metrics(self) -> Dict[str, float]:
        with self._counters_lock:
            return self.counters.snapshot()

    def _count(self, name: str, value: float = 1.0) -> None:
        # Counters is a plain dict bag; guard it with the innermost lock
        # so concurrent dispatches never lose increments.
        with self._counters_lock:
            self.counters.add(name, value)

    def kill_worker(self, index: int,
                    sig: int = signal.SIGKILL) -> None:
        """Send ``sig`` to one worker — the fault-injection entry point."""
        worker = self._workers[index]
        pid = worker.process.pid
        if pid is None:
            return
        try:
            os.kill(pid, sig)
        except (ProcessLookupError, OSError):  # pragma: no cover - raced
            pass

    def drain(self) -> None:
        """Graceful teardown: stop workers, release and unlink the arena."""
        self.close()

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            with self._io_lock:
                for worker in self._workers:
                    try:
                        worker.conn.send_bytes(_dumps(("stop",)))
                    except (BrokenPipeError, OSError):
                        pass
            for worker in self._workers:
                worker.process.join(timeout=2.0)
                if worker.process.is_alive():
                    worker.process.kill()
                    worker.process.join(timeout=2.0)
                with self._io_lock:
                    try:
                        worker.conn.close()
                    except OSError:
                        pass
            self._workers = []
            for arena in [self._arena, *self._retired]:
                arena.close(unlink=True)
            self._retired = []

    def __enter__(self) -> "ProcessExecutor":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- dispatch ------------------------------------------------------------

    def solve_parts(
        self,
        parts: List[Any],
        values: np.ndarray,
        *,
        engine_backend: Optional[str] = None,
    ) -> None:
        """Solve ``parts`` (disjoint Segments) into ``values`` in place.

        Bit-identical to solving each part in-process: parts that cannot
        be dispatched (arena exhausted, worker errors, retries spent)
        degrade to an inline solve instead of failing the request.

        Thread-safe and concurrent: independent calls interleave — only
        arena allocation and pipe writes are briefly serialized, never
        the wait for results.
        """
        if self._closed:
            raise ExecutorError("executor is closed")
        tracer = get_tracer()
        span = (tracer.span("exec.dispatch", parts=len(parts),
                            workers=len(self._workers))
                if tracer.enabled else NULL_SPAN)
        with span:
            self._count("exec.dispatch")
            jobs: List[_Job] = []
            for part in parts:
                with self._alloc_lock:
                    job = self._publish(part, engine_backend)
                if job is None:
                    self._count("exec.arena_full")
                    self._solve_in_process(part, values, engine_backend)
                    continue
                job.values = values
                jobs.append(job)
            try:
                with self._lock:
                    for job in jobs:
                        self._inflight[job.job_id] = job
                for job in jobs:
                    self._send(job, engine_backend, "dispatch")
                self._collect(jobs, engine_backend)
            finally:
                with self._lock:
                    for job in jobs:
                        self._inflight.pop(job.job_id, None)
                with self._alloc_lock:
                    for job in jobs:
                        self._release(job)

    def _publish(self, part: Any, engine_backend: str) -> Optional[_Job]:
        """Copy one part into the arena; returns ``None`` if it can't fit."""
        for attempt in (0, 1):
            job = self._try_publish(part)
            if job is not None:
                return job
            if attempt == 0 and not self._grow_arena(
                self._part_nbytes(part)
            ):
                return None
        return None

    def _part_nbytes(self, part: Any) -> int:
        span = int(part.hi.max()) - int(part.lo.min()) + 1
        total = span * 8
        for arr in (part.kind, part.t, part.r, part.starts, part.lo,
                    part.hi, part.w):
            if arr is not None:
                total += _HEADER + _round_up(arr.nbytes)
        return total + _HEADER + _ALIGN

    def _release(self, job: _Job) -> None:
        """Free a job's blocks; forget a retired arena that just emptied.

        Caller holds ``_alloc_lock``.
        """
        arena = job.arena
        for block in job.blocks:
            arena.free(block)
        if arena is not self._arena and not arena.live_blocks:
            try:
                self._retired.remove(arena)
            except ValueError:  # pragma: no cover - already gone
                pass
            else:
                self._forget_arena(arena)

    def _grow_arena(self, needed: int) -> bool:
        """Swap in a bigger arena; the old one retires once its blocks free."""
        new_size = max(self._arena.size * 2, _round_up(needed * 2))
        if new_size > _MAX_ARENA_BYTES:
            if needed > _MAX_ARENA_BYTES:
                return False
            new_size = _MAX_ARENA_BYTES
        try:
            replacement = SharedArena(new_size)
        except OSError:
            return False
        self._count("exec.arena_grow")
        old = self._arena
        self._arena = replacement
        if old.live_blocks:
            self._retired.append(old)
        else:
            self._forget_arena(old)
        return True

    def _forget_arena(self, arena: SharedArena) -> None:
        for worker in self._workers:
            try:
                worker.conn.send_bytes(_dumps(("forget", arena.name)))
            except (BrokenPipeError, OSError):
                pass
        arena.close(unlink=True)

    def _try_publish(self, part: Any) -> Optional[_Job]:
        arena = self._arena
        blocks: List[_Block] = []

        def put(arr: np.ndarray, rebase: int = 0,
                ) -> Optional[Tuple[int, int, str, int]]:
            src = np.ascontiguousarray(arr)
            block = arena.alloc(src.nbytes)
            if block is None:
                return None
            blocks.append(block)
            view = arena.view(block, src.dtype, src.size)
            if rebase:
                np.subtract(src, src.dtype.type(rebase), out=view)
            else:
                view[:] = src
            return arena.describe(block, src.dtype, src.size)

        # Parts ship at the width of the solve they were cut from: its
        # root was certified (or pinned) once, and the worker's
        # Workspace.prime certifies the accumulator by the same rule.
        base = int(part.lo.min())
        span = int(part.hi.max()) - base + 1
        payload: Dict[str, Any] = {}
        for key, arr, rebase in (
            ("kind", part.kind, 0),
            ("t", part.t, base),
            ("r", part.r, 0),
            ("starts", part.starts, 0),
            ("lo", part.lo, base),
            ("hi", part.hi, base),
        ):
            desc = put(arr, rebase)
            if desc is None:
                for blk in blocks:
                    arena.free(blk)
                return None
            payload[key] = desc
        if part.w is None:
            payload["w"] = None
        else:
            desc = put(part.w)
            if desc is None:
                for blk in blocks:
                    arena.free(blk)
                return None
            payload["w"] = desc
        out_block = arena.alloc(span * 8)
        if out_block is None:
            for blk in blocks:
                arena.free(blk)
            return None
        blocks.append(out_block)
        payload["out"] = arena.describe(out_block, np.dtype(np.int64),
                                        span)
        self._job_seq += 1
        return _Job(self._job_seq, part, arena, blocks, out_block, span,
                    payload)

    def _send(self, job: _Job, engine_backend: str, event: str) -> None:
        with self._lock:
            worker = self._workers[self._rr % len(self._workers)]
            self._rr += 1
        job.worker = worker
        job.sent_at = time.monotonic()
        message = ("job", job.job_id, job.arena.name, job.payload,
                   engine_backend)
        with self._io_lock:
            try:
                worker.conn.send_bytes(_dumps(message))
            except (BrokenPipeError, OSError):
                pass  # the health sweep will see the dead worker and retry
        self._count("exec.jobs")
        # Fire outside every lock: a hook that blocks (the fault tests
        # use barriers) must not stall other threads' dispatches.
        hook = _fault_hook
        if hook is not None:
            hook(self, worker.index, event)

    def _collect(self, jobs: List[_Job], engine_backend: str) -> None:
        """Wait for this dispatch's jobs, servicing any thread's replies."""
        while not all(job.completed for job in jobs):
            got_reply = self._drain_replies(engine_backend)
            if all(job.completed for job in jobs):
                return
            if not got_reply:
                self._health_sweep(engine_backend)
                if not all(job.completed for job in jobs):
                    time.sleep(0.002)

    def _drain_replies(self, engine_backend: str) -> bool:
        replies: List[Tuple] = []
        with self._lock:
            workers = list(self._workers)
        with self._io_lock:
            for worker in workers:
                try:
                    while worker.conn.poll(0):
                        replies.append(worker.conn.recv())
                except (EOFError, OSError):
                    pass  # dead worker: the health sweep handles its jobs
        for reply in replies:
            self._handle_reply(reply, engine_backend)
        return bool(replies)

    def _health_sweep(self, engine_backend: str) -> None:
        # One sweeper at a time; everyone else keeps draining replies.
        if not self._sweep_lock.acquire(blocking=False):
            return
        try:
            now = time.monotonic()
            with self._lock:
                inflight = list(self._inflight.values())
            failed: List[_Worker] = []
            for job in inflight:
                worker = job.worker
                if worker is None or worker in failed:
                    continue
                if not worker.process.is_alive():
                    failed.append(worker)
                elif now - job.sent_at > self._dispatch_timeout:
                    self._count("exec.timeouts")
                    # A hung job can't be cancelled; replace the worker.
                    self.kill_worker(worker.index)
                    worker.process.join(timeout=5.0)
                    failed.append(worker)
            for worker in failed:
                with self._lock:
                    current = (worker.index < len(self._workers)
                               and self._workers[worker.index] is worker)
                if current:
                    self._respawn(worker)
                with self._lock:
                    orphans = [j for j in self._inflight.values()
                               if j.worker is worker]
                for job in orphans:
                    self._retry_or_degrade(job, engine_backend)
        finally:
            self._sweep_lock.release()

    def _retry_or_degrade(self, job: _Job, engine_backend: str) -> None:
        job.attempts += 1
        if job.attempts > self._max_retries:
            with self._lock:
                if self._inflight.pop(job.job_id, None) is None:
                    return  # a reply completed it while we deliberated
            self._solve_in_process(job.part, job.values, engine_backend)
            job.completed = True
            return
        tracer = get_tracer()
        span = (tracer.span("exec.retry", job=job.job_id,
                            attempt=job.attempts)
                if tracer.enabled else NULL_SPAN)
        with span:
            self._count("exec.retry")
            time.sleep(self._retry_backoff * (2 ** (job.attempts - 1)))
            self._send(job, engine_backend, "retry")

    def _handle_reply(self, reply: Tuple, engine_backend: str) -> None:
        kind = reply[0]
        with self._lock:
            job = self._inflight.pop(reply[1], None)
        if job is None:
            return  # stale reply from a superseded attempt
        if kind == "done":
            out = job.arena.view(job.out_block, np.int64, job.span)
            _merge_part_values(job.values, job.part.lo, job.part.hi, out)
            job.completed = True
            return
        # Worker-reported error (stale generation, solve failure):
        # degrade inline, where a genuine failure raises for real.
        self._count("exec.worker_errors")
        self._solve_in_process(job.part, job.values, engine_backend)
        job.completed = True

    def _solve_in_process(self, part: Any, values: np.ndarray,
                          engine_backend: str) -> None:
        """The last rung of the degrade ladder: solve the part inline."""
        from .core.engine import solve_prepost_arrays

        tracer = get_tracer()
        span = (tracer.span("exec.degrade", n_ops=part.n_ops)
                if tracer.enabled else NULL_SPAN)
        with span:
            self._count("exec.degraded")
            solve_prepost_arrays(part, values,
                                 engine_backend=engine_backend)


# -- process-wide default executor -------------------------------------------

_default_lock = threading.Lock()
_default_executor: Optional[ProcessExecutor] = None


def default_executor(workers: int = 2) -> Optional[ProcessExecutor]:
    """The process-wide shared pool (grown to ``workers``, never shrunk).

    Returns ``None`` when the pool cannot be built (no shared memory on
    this platform) — callers then solve on threads.
    """
    global _default_executor
    with _default_lock:
        if _default_executor is None or _default_executor.closed:
            try:
                _default_executor = ProcessExecutor(workers=workers)
            except (OSError, ValueError, ExecutorError):
                return None  # no shared memory on this platform
        else:
            _default_executor.ensure_workers(workers)
        return _default_executor


def shutdown_default_executor() -> None:
    """Tear down the shared pool (atexit hook; also handy in tests)."""
    global _default_executor
    with _default_lock:
        if _default_executor is not None:
            _default_executor.close()
            _default_executor = None


atexit.register(shutdown_default_executor)
