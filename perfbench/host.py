"""Host context of a record, a fixed numpy calibration, and peak resident
memory of the driver plus its Ray worker processes, all read from
``/proc`` so that no extra package is needed."""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import statistics
import subprocess
import threading
import time

RSS_SAMPLE_S = 0.25  # PeakRss sampling interval
CHILD_EXIT_WAIT_S = 30.0  # wait_children_gone deadline
CALIB_REPS = 5
# largest relative difference of host_calib_s between comparable records
CALIB_TOLERANCE = 0.25


def _descendants(root_pid: int) -> list[int]:
    parent_of: dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        parent_of[int(entry)] = int(fields[1])
    kids: dict[int, list[int]] = {}
    for pid, ppid in parent_of.items():
        kids.setdefault(ppid, []).append(pid)
    out, todo = [], [root_pid]
    while todo:
        for k in kids.get(todo.pop(), []):
            out.append(k)
            todo.append(k)
    return out


def _hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _is_ray_worker(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as f:
            return b"default_worker.py" in f.read()
    except OSError:
        return False


def _measured_pids() -> list[int]:
    me = os.getpid()
    return [me] + [p for p in _descendants(me) if _is_ray_worker(p)]


class PeakRss:
    """Peak resident memory of the driver plus its Ray worker processes.

    ``start()`` resets every measured process's high-water mark (``VmHWM``),
    so set-up allocations do not count; a thread then sums ``VmHWM`` over
    the processes alive at each sample, every ``RSS_SAMPLE_S`` seconds, and
    keeps the largest sum.  Summing only live processes keeps actors that
    have already exited out of the total, so it does not grow with the
    number of ops."""

    def __init__(self):
        self.peak_kb = 0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def _sample(self) -> None:
        self.peak_kb = max(self.peak_kb, sum(_hwm_kb(p) for p in _measured_pids()))

    def _run(self) -> None:
        while not self._stop.wait(RSS_SAMPLE_S):
            self._sample()

    def start(self) -> None:
        for pid in _measured_pids():
            try:
                with open(f"/proc/{pid}/clear_refs", "w") as f:
                    f.write("5")  # reset VmHWM to the current VmRSS
            except OSError:
                pass
        self._thread = threading.Thread(target=self._run, name="peak-rss", daemon=True)
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=10)
        self._sample()

    def mb(self) -> float:
        return self.peak_kb / 1024.0


def wait_children_gone() -> list[int]:
    """After ``ray.shutdown()``: wait until no descendant process is left,
    killing stragglers at the deadline.  Returns the pids that had to be
    killed."""
    import signal

    deadline = time.monotonic() + CHILD_EXIT_WAIT_S
    while time.monotonic() < deadline:
        left = _descendants(os.getpid())
        if not left:
            return []
        for pid in left:  # reap our own exited children
            try:
                os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                pass
        time.sleep(0.2)
    left = _descendants(os.getpid())
    for pid in left:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    for pid in left:
        try:
            os.waitpid(pid, 0)
        except ChildProcessError:
            pass
    return left


class StealMeter:
    """Share of busy CPU time the hypervisor took from this VM (``steal``
    in ``/proc/stat``) between construction and ``frac()``.  Wall times
    stretch with it, so ``run.py`` flags a record taken under heavy steal
    as noisy, and noisy records are not comparable."""

    def __init__(self):
        self.start = self._read()

    @staticmethod
    def _read() -> list[int]:
        with open("/proc/stat") as f:
            return [int(x) for x in f.readline().split()[1:]]

    def frac(self) -> float:
        d = [b - a for a, b in zip(self.start, self._read())]
        busy = sum(d) - d[3] - d[4]  # minus idle and iowait
        return d[7] / busy if busy > 0 else 0.0


def calibration_s() -> float:
    """Median seconds of a fixed numpy workload: fill 128 MB of fresh pages
    and sum them.  Compare it between two records before comparing their
    timings."""
    import numpy as np

    times = []
    for _ in range(CALIB_REPS):
        t0 = time.perf_counter()
        np.full(1 << 24, 1.0).sum()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def nproc() -> int:
    """What ``nproc`` prints: the CPUs this process may use, as limited by
    ``OMP_NUM_THREADS`` / ``OMP_THREAD_LIMIT`` when those are set."""
    exe = shutil.which("nproc")
    if exe:
        out = subprocess.run([exe], capture_output=True, text=True, check=True, timeout=10)
        return int(out.stdout.strip())
    return len(os.sched_getaffinity(0))


def context(seed: int, trace: bool, num_cpus: int) -> dict:
    import duckdb
    import numpy
    import pyarrow
    import ray

    ctx = {
        "nproc": nproc(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "omp_num_threads": os.environ.get("OMP_NUM_THREADS"),
        "num_cpus": num_cpus,
        "versions": {"ray": ray.__version__, "pyarrow": pyarrow.__version__,
                     "numpy": numpy.__version__, "duckdb": duckdb.__version__},
        "host_calib_s": calibration_s(),
        "seed": seed,
        "trace": trace,
    }
    ctx["host_key"] = host_key(ctx)
    return ctx


def host_key(ctx: dict) -> str:
    """Digest of the parts of the context that must match for two records
    to be comparable: CPU counts and library versions."""
    fixed = {k: ctx[k] for k in ("nproc", "affinity_cpus", "num_cpus", "versions")}
    return hashlib.sha256(json.dumps(fixed, sort_keys=True).encode()).hexdigest()[:16]


def comparable(a: dict, b: dict) -> tuple[bool, str]:
    """Whether two records' host contexts allow comparing their numbers."""
    if a["host_key"] != b["host_key"]:
        return False, "host context differs (CPU counts or library versions)"
    ca, cb = a["host_calib_s"], b["host_calib_s"]
    if abs(ca - cb) > CALIB_TOLERANCE * min(ca, cb):
        return False, f"host calibration differs: {ca:.4f} s vs {cb:.4f} s"
    for ctx in (a, b):
        if ctx["noisy"]:
            return False, f"noisy record: CPU steal was {ctx['steal_frac']:.2f} of busy time"
    return True, "same host context"
