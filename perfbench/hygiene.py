"""Processes the benchmark starts: worker daemons, peak memory, clean-up.

Every process started here is stopped and reaped on every exit path: the
caller holds a :class:`Daemons` in a ``with`` block, and :func:`leg_deadline`
turns a stuck leg into an exception, so the ``finally`` clauses of the
program's runtimes and of this module still run.
"""

from __future__ import annotations

import contextlib
import os
import resource
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

BANNER = "cluster worker serving on "
#: seconds a daemon has to report its address.
DAEMON_START_TIMEOUT_S = 30.0


class LegTimeout(Exception):
    """A leg overran its deadline."""


@contextlib.contextmanager
def leg_deadline(seconds: float):
    """Raise :class:`LegTimeout` in the main thread after ``seconds``."""

    def expire(signum, frame):
        raise LegTimeout(f"leg did not finish within {seconds:.0f} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def self_peak_kb() -> int:
    """High-water RSS of this process (KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class ChildPeaks:
    """Peak RSS of each child process this process reaps.

    ``multiprocessing`` reaps forked workers through ``os.waitpid``; while
    active, this routes that call through ``os.wait4``, which also returns
    the reaped child's resource usage, and records its ``ru_maxrss``.
    """

    def __init__(self) -> None:
        #: (pid, peak RSS in KiB) per reaped child, in reaping order.
        self.reaped: List[Tuple[int, int]] = []
        self._waitpid = None

    def __enter__(self) -> "ChildPeaks":
        self._waitpid = os.waitpid
        reaped_list = self.reaped

        def waitpid(pid, options):
            reaped, status, usage = os.wait4(pid, options)
            if reaped:
                reaped_list.append((reaped, usage.ru_maxrss))
            return reaped, status

        os.waitpid = waitpid
        return self

    def __exit__(self, *exc) -> None:
        os.waitpid = self._waitpid


def vm_hwm_kb(pid: int) -> int:
    """Peak RSS (``VmHWM``) of a live process, 0 when it cannot be read."""
    try:
        text = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return 0
    for line in text.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    return 0


class Daemons:
    """``python -m repro.spe.cluster --serve`` worker daemons on localhost.

    Each daemon logs to its own file under ``log_dir``; its first line names
    the ephemeral port it bound.  :meth:`close` terminates and reaps every
    daemon, recording its peak RSS first.
    """

    def __init__(self, count: int, root: Path, log_dir: Path) -> None:
        self.count = count
        self.root = root
        self.log_dir = log_dir
        self.processes: List[subprocess.Popen] = []
        self.addresses: List[str] = []
        self.peaks_kb: Dict[int, int] = {}
        self._logs: List = []

    def __enter__(self) -> "Daemons":
        try:
            self._start()
        except BaseException:
            self.close()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _start(self) -> None:
        self.log_dir.mkdir(parents=True, exist_ok=True)
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        for index in range(self.count):
            log = open(self.log_dir / f"daemon{index}.log", "w+")
            self._logs.append(log)
            self.processes.append(
                subprocess.Popen(
                    [sys.executable, "-m", "repro.spe.cluster", "--serve", "127.0.0.1:0"],
                    stdout=log,
                    stderr=subprocess.STDOUT,
                    stdin=subprocess.DEVNULL,
                    env=env,
                    cwd=self.root,
                )
            )
        deadline = time.monotonic() + DAEMON_START_TIMEOUT_S
        for process, log in zip(self.processes, self._logs):
            self.addresses.append(self._await_banner(process, log, deadline))

    @staticmethod
    def _await_banner(process: subprocess.Popen, log, deadline: float) -> str:
        while time.monotonic() < deadline:
            log.seek(0)
            for line in log.read().splitlines():
                if BANNER in line:
                    return line.split(BANNER, 1)[1].strip()
            if process.poll() is not None:
                raise RuntimeError(f"worker daemon exited with {process.returncode}")
            time.sleep(0.02)
        raise RuntimeError("worker daemon did not report its address in time")

    def total_peak_kb(self) -> int:
        """Summed peak RSS of the daemons (live ones are read now)."""
        for process in self.processes:
            if process.returncode is None:
                self.peaks_kb[process.pid] = max(
                    self.peaks_kb.get(process.pid, 0), vm_hwm_kb(process.pid)
                )
        return sum(self.peaks_kb.values())

    def close(self) -> None:
        self.total_peak_kb()
        for process in self.processes:
            if process.poll() is None:
                process.terminate()
        for process in self.processes:
            try:
                process.wait(timeout=5.0)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait(timeout=5.0)
        for log in self._logs:
            log.close()
        self._logs = []


def stop_on_sigterm() -> None:
    """Turn SIGTERM into ``SystemExit`` so ``finally`` clauses run."""

    def terminate(signum, frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, terminate)
