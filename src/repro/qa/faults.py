"""Fault injection for the shared-memory process executor.

The executor's robustness ladder (detect dead worker → respawn → retry
with backoff → degrade to an in-process solve) is worthless if it only
runs on real crashes, so this module makes crashes cheap to stage: a
hook armed via :func:`repro.parallel_exec.set_fault_hook` fires right
after each job is handed to a worker and kills that worker **mid-solve**
with a real signal.  The differential tests in ``tests/exec`` then
assert the recovered results are bit-identical to the single-process
engine — the same oracle discipline as :mod:`repro.qa.oracle`.

Usage::

    with inject_worker_kills(kills=1):
        d = iaf_distances(trace, workers=2, executor=default_executor(2))
    # d is exact; the executor respawned and retried under the hood.
"""

from __future__ import annotations

import signal
from contextlib import contextmanager
from typing import Iterator, Optional

from ..parallel_exec import clear_fault_hook, set_fault_hook

__all__ = ["WorkerKillPlan", "inject_worker_kills"]


class WorkerKillPlan:
    """Kill the dispatch target on the first ``kills`` job handoffs.

    ``kills=None`` kills on *every* handoff — dispatches and retries
    alike — which starves the retry budget and forces the executor all
    the way down to the degrade-to-in-process rung.  ``events`` records
    each strike as ``(worker_index, event)`` for assertions.
    """

    def __init__(self, kills: Optional[int] = 1,
                 sig: int = signal.SIGKILL) -> None:
        self.remaining = kills
        self.sig = sig
        self.events: list = []

    def __call__(self, executor, worker_index: int, event: str) -> None:
        if self.remaining is not None:
            if self.remaining <= 0:
                return
            self.remaining -= 1
        self.events.append((worker_index, event))
        executor.kill_worker(worker_index, self.sig)


@contextmanager
def inject_worker_kills(
    kills: Optional[int] = 1, sig: int = signal.SIGKILL
) -> Iterator[WorkerKillPlan]:
    """Arm a :class:`WorkerKillPlan` for the duration of the block."""
    plan = WorkerKillPlan(kills, sig)
    set_fault_hook(plan)
    try:
        yield plan
    finally:
        clear_fault_hook()
