"""Start, measure and stop the deployments the workloads drive.

Every deployment runs in its own session, so its process group holds
exactly the program's processes (a ring frontend and the shards it
starts).  Peak RSS and CPU time are summed over that group; stopping
waits until the whole group is gone, killing stragglers after a grace
period.

The deployment runs on one CPU and the load generator on another
(:func:`pin_loadgen`), so the host probe can be run on the deployment's
CPU and measure the speed the program gets.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HOOK = Path(__file__).resolve().parent / "hook"

READY_TIMEOUT = 60.0
STOP_TIMEOUT = 20.0

#: The CPUs this process may use at import.
CPUS = sorted(os.sched_getaffinity(0))
#: The CPU every deployment process runs on, and the load generator's.
DEPLOY_CPUS = {CPUS[0]}
LOADGEN_CPUS = {CPUS[1]} if len(CPUS) > 1 else DEPLOY_CPUS


def pin_loadgen() -> None:
    os.sched_setaffinity(0, LOADGEN_CPUS)


def pin_deployment() -> None:
    os.sched_setaffinity(0, DEPLOY_CPUS)


def program_env(trace_dir: Optional[Path]) -> Dict[str, str]:
    """Environment for a deployment; ``trace_dir`` loads the span hook."""
    env = dict(os.environ)
    paths = [str(SRC)]
    if trace_dir is not None:
        paths.append(str(HOOK))
        env["PERFBENCH_TRACE_DIR"] = str(trace_dir)
    else:
        env.pop("PERFBENCH_TRACE_DIR", None)
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def group_pids(pgid: int) -> List[int]:
    """Live processes whose process group is ``pgid``."""
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        fields = stat[stat.rfind(")") + 2:].split()
        # fields[0] is the state, fields[2] the process group.
        if fields and fields[0] != "Z" and int(fields[2]) == pgid:
            pids.append(int(entry))
    return pids


def peak_rss_mb(pids: List[int]) -> float:
    """Sum of each process's peak resident set (VmHWM), in MiB."""
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0


_TICK = os.sysconf("SC_CLK_TCK")


def cpu_seconds(pids: List[int]) -> float:
    """User plus system CPU time of the processes, all threads included.

    The kernel leaves time stolen from the VM out of these counters.
    """
    ticks = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        fields = stat[stat.rfind(")") + 2:].split()
        # fields[11] is utime, fields[12] stime, both in clock ticks.
        ticks += int(fields[11]) + int(fields[12])
    return ticks / _TICK


def stop_group(proc: subprocess.Popen, sig: int = signal.SIGINT) -> None:
    """Signal the group leader, then wait for the whole group to end."""
    pgid = proc.pid
    if proc.poll() is None:
        try:
            os.kill(proc.pid, sig)
        except ProcessLookupError:
            pass
    deadline = time.monotonic() + STOP_TIMEOUT
    try:
        proc.wait(timeout=STOP_TIMEOUT)
    except subprocess.TimeoutExpired:
        pass
    while group_pids(pgid) and time.monotonic() < deadline:
        time.sleep(0.01)
    if group_pids(pgid):
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        while group_pids(pgid):
            time.sleep(0.01)
    if proc.poll() is None:
        proc.wait()


class Server:
    """A ``repro serve`` deployment listening on a free local port."""

    def __init__(self, args: List[str], ready: str, log: Path,
                 trace_dir: Optional[Path] = None) -> None:
        self.argv = [sys.executable, "-m", "repro", "serve",
                     "--port", "0", *args]
        self._ready = re.compile(ready)
        self._log_path = log
        self._trace_dir = trace_dir
        self.proc: Optional[subprocess.Popen] = None
        self.address: Tuple[str, int] = ("", 0)

    def start(self) -> None:
        """Launch and block until the server reports its address."""
        with open(self._log_path, "wb") as log:
            self.proc = subprocess.Popen(
                self.argv, stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, stderr=log,
                env=program_env(self._trace_dir), cwd=str(ROOT),
                start_new_session=True, preexec_fn=pin_deployment,
            )
        deadline = time.monotonic() + READY_TIMEOUT
        while time.monotonic() < deadline:
            text = self._log_path.read_text(errors="replace")
            match = self._ready.search(text)
            if match:
                self.address = (match.group(1), int(match.group(2)))
                return
            if self.proc.poll() is not None:
                break
            time.sleep(0.002)
        self.stop()
        raise RuntimeError(f"{' '.join(self.argv)} did not become ready:\n"
                           f"{self._log_path.read_text(errors='replace')}")

    def stop(self) -> None:
        if self.proc is not None:
            stop_group(self.proc)
            self.proc = None
