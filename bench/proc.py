"""Spawning and timing `scot` calls, summary statistics, and the record
of the environment a result was measured in."""

from __future__ import annotations

import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

CALL_TIMEOUT_S = 60.0  # a hung call is killed and counted as failed
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass
class Call:
    """One finished process: what ran, how long from spawn to exit, its
    peak resident set size and what it printed."""

    name: str
    wall_s: float
    maxrss_kb: int
    code: int
    stdout: str
    stderr: str


class Spawner:
    """Runs `python -m scotkit.cli` against a source tree, one process at
    a time; stdout and stderr go to files so large outputs never block.
    `after_scot`, when set, runs after every `scot` call."""

    def __init__(self, src: Path, work: Path, extra_env: dict[str, str] | None = None):
        self.src = src
        self.work = work
        self.after_scot = None
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(src)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )
        self.env.update(extra_env or {})

    def run(self, argv: list[str], name: str) -> Call:
        out_path, err_path = self.work / "call.out", self.work / "call.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                    env=self.env, cwd=self.work)
            watchdog = threading.Timer(CALL_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Call(name, wall, usage.ru_maxrss, proc.returncode,
                    out_path.read_text(encoding="utf-8", errors="replace"),
                    err_path.read_text(encoding="utf-8", errors="replace"))

    def scot(self, *args: str, name: str | None = None) -> Call:
        call = self.run([sys.executable, "-m", "scotkit.cli", *args], name or args[0])
        if self.after_scot:
            self.after_scot()
        return call


def tail_percentile(samples: list[float]) -> tuple[int, float] | None:
    """The highest whole percentile with at least 10 samples beyond it,
    and its nearest-rank value; None below 20 samples."""
    n = len(samples)
    if n < 20:
        return None
    p = (100 * (n - 10)) // n
    rank = math.ceil(p * n / 100)
    return p, sorted(samples)[rank - 1]


def median(values) -> float:
    return float(statistics.median(values))


def _git_commit(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def _cpu_ticks() -> tuple[int, int] | None:
    """(steal, total) jiffies of all CPUs since boot, where readable."""
    try:
        with open("/proc/stat") as f:
            fields = [int(v) for v in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def environment(root: Path) -> dict:
    """Versions, CPU count and inherited BLAS thread settings, with the
    load average and CPU tick counters at the start of the run."""
    import numpy as np

    blas = None
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "git_commit": _git_commit(root),
        "load_start": os.getloadavg()[0],
        "_ticks": _cpu_ticks(),
    }


def finish_environment(env: dict) -> dict:
    """Adds the load average at the end, flags a run whose load exceeded
    the CPU count, and the share of CPU time the hypervisor stole."""
    env["load_end"] = os.getloadavg()[0]
    env["load_exceeded_nproc"] = max(env["load_start"], env["load_end"]) > env["nproc"]
    start, end = env.pop("_ticks"), _cpu_ticks()
    env["steal_frac"] = (end[0] - start[0]) / max(1, end[1] - start[1]) if start and end else None
    return env
