"""Spawn a whole ring: N ``repro serve`` shard processes + a frontend.

:func:`spawn_ring` is the one-call cluster: it forks N shard server
processes (each its own ``CurveService``), waits for each to report its
bound port, serves a
:class:`~repro.cluster.frontend.ClusterFrontend` routing across them
from a :class:`~repro.service.server.CurveServer` thread, and hands
back a :class:`ClusterHandle`::

    with spawn_ring(3) as cluster:
        with CurveClient(*cluster.address) as client:
            client.solve([1, 2, 1, 3])

    # fail-over drills:
    cluster.kill_shard(0)      # SIGKILL one backend mid-traffic

``repro serve --cluster N`` is this function behind the CLI.
"""

from __future__ import annotations

import re
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..errors import ReproError
from ..service.server import CurveServer
from .frontend import ClusterFrontend

_READY_RE = re.compile(r"serving on ([^\s:]+):(\d+)")
_READY_TIMEOUT = 30.0
#: How often a shard that has not reported its port is checked for exit.
_READY_POLL = 0.05


@dataclass
class ShardProcess:
    """One shard backend: the subprocess plus its bound address."""

    name: str
    proc: subprocess.Popen
    host: str = ""
    port: int = 0
    _ready: threading.Event = field(default_factory=threading.Event)
    _stderr_tail: List[str] = field(default_factory=list)
    _watcher: Optional[threading.Thread] = None

    @property
    def alive(self) -> bool:
        return self.proc.poll() is None


def _watch_stderr(shard: ShardProcess) -> None:
    """Scan a shard's stderr for the ready line, then keep draining.

    Draining matters: an un-read pipe fills and wedges the child the
    first time it logs anything.  The pipe is closed at EOF, once the
    shard (and every process it forked) has exited.
    """
    assert shard.proc.stderr is not None
    with shard.proc.stderr:
        for raw in shard.proc.stderr:
            line = raw.decode("utf-8", "replace").rstrip()
            if not shard._ready.is_set():
                match = _READY_RE.search(line)
                if match:
                    shard.host = match.group(1)
                    shard.port = int(match.group(2))
                    shard._ready.set()
                    continue
            shard._stderr_tail.append(line)
            del shard._stderr_tail[:-20]


def _spawn_shard(index: int, *, host: str, workers: int,
                 extra_args: Tuple[str, ...]) -> ShardProcess:
    cmd = [
        sys.executable, "-u", "-m", "repro", "serve",
        "--host", host, "--port", "0",
        "--workers", str(workers),
        "--tenants",
        *extra_args,
    ]
    proc = subprocess.Popen(
        cmd,
        stdin=subprocess.DEVNULL,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
    )
    shard = ShardProcess(name=f"shard{index}", proc=proc)
    shard._watcher = threading.Thread(
        target=_watch_stderr, args=(shard,),
        name=f"{shard.name}-stderr", daemon=True,
    )
    shard._watcher.start()
    return shard


def _await_ready(shard: ShardProcess) -> None:
    """Wait for ``shard`` to report its port; raise :class:`ReproError`
    once it has exited without one, or after :data:`_READY_TIMEOUT`."""
    deadline = time.monotonic() + _READY_TIMEOUT
    while not shard._ready.wait(timeout=_READY_POLL):
        if not shard.alive:
            # The watcher reads the pipe to EOF: let it finish the tail.
            if shard._watcher is not None:
                shard._watcher.join(timeout=1.0)
            if shard._ready.is_set():
                return
            problem = (f"exited with code {shard.proc.returncode} before "
                       f"reporting a port")
        elif time.monotonic() >= deadline:
            problem = (f"did not report a port within "
                       f"{_READY_TIMEOUT:.0f}s")
        else:
            continue
        tail = "\n".join(shard._stderr_tail)
        raise ReproError(f"{shard.name} {problem}; stderr tail:\n{tail}")


def _stop_shards(shards: List[ShardProcess], *, kill: bool,
                 timeout: float) -> None:
    """Stop every shard and wait for its watcher to close the pipe."""
    for shard in shards:
        if shard.alive:
            if kill:
                shard.proc.kill()
            else:
                shard.proc.terminate()
    for shard in shards:
        try:
            shard.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:  # pragma: no cover
            shard.proc.kill()
            shard.proc.wait(timeout=timeout)
        if shard._watcher is not None:
            shard._watcher.join(timeout=timeout)


class ClusterHandle:
    """A running ring: shard subprocesses + the routing frontend."""

    def __init__(self, shards: List[ShardProcess],
                 frontend: ClusterFrontend, server: CurveServer) -> None:
        self.shards = shards
        self.frontend = frontend
        self.server = server
        #: ``(host, port)`` clients connect to.
        self.address: Tuple[str, int] = server.server_address[:2]

    def kill_shard(self, index: int) -> ShardProcess:
        """SIGKILL one backend (fail-over drills); returns its record."""
        shard = self.shards[index]
        if shard.alive:
            shard.proc.kill()
            shard.proc.wait(timeout=10.0)
        return shard

    def metrics(self) -> Dict[str, float]:
        return self.frontend.metrics()

    def close(self) -> None:
        self.server.shutdown()
        self.server.server_close()
        self.frontend.close()
        _stop_shards(self.shards, kill=False, timeout=10.0)

    def __enter__(self) -> "ClusterHandle":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def spawn_ring(
    n: int,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    workers: int = 2,
    replicas: int = 64,
    heartbeat_interval: float = 0.5,
    extra_args: Tuple[str, ...] = (),
) -> ClusterHandle:
    """Start ``n`` shard processes and a frontend routing across them.

    ``extra_args`` append raw ``repro serve`` flags to every shard
    (e.g. ``("--max-queue", "1024")``).  Raises :class:`ReproError`
    (after reaping everything already started) as soon as a shard exits
    before reporting its port, or if one does not come up within 30s;
    the message carries the shard's stderr tail.
    """
    if n < 1:
        raise ValueError(f"cluster size must be >= 1, got {n}")
    shards: List[ShardProcess] = []
    try:
        for i in range(n):
            shards.append(_spawn_shard(
                i, host=host, workers=workers,
                extra_args=tuple(extra_args),
            ))
        for shard in shards:
            _await_ready(shard)
        frontend = ClusterFrontend(
            {s.name: (s.host, s.port) for s in shards},
            replicas=replicas, heartbeat_interval=heartbeat_interval,
        )
        try:
            server = CurveServer((host, port), frontend)
        except BaseException:
            frontend.close()
            raise
        threading.Thread(target=server.serve_forever, name="ring-server",
                         daemon=True).start()
    except BaseException:
        _stop_shards(shards, kill=True, timeout=5.0)
        raise
    return ClusterHandle(shards, frontend, server)


__all__ = ["ClusterHandle", "ShardProcess", "spawn_ring"]
