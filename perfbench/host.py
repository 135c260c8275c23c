"""Child processes with their own resource usage, and host diagnostics.

Each `om` command is one child; the parent waits for it with os.wait4, so
its CPU (user + system, all threads) and max RSS are the child's alone.
Host steal time comes read-only from /proc/stat, so a run on a noisy host
can be recognized instead of being read as a regression.
"""

from __future__ import annotations

import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path


@dataclass
class Result:
    code: int
    out: str
    err: str
    wall: float
    cpu: float
    maxrss_mb: float
    timed_out: bool


class Om:
    """Runs `python3 -m omkit ...` from the checkout's src/ in the user's
    environment (no thread or allocator variables are set)."""

    def __init__(self, root: Path, scratch: Path):
        self.root = root
        self.scratch = scratch
        env = dict(os.environ)
        env.pop("OM_SIZE_OVERRIDE", None)  # the workloads rely on the default guards
        src = str(root / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        self.env = env

    def run(self, argv, timeout=60.0) -> Result:
        return spawn([sys.executable, "-m", "omkit", *argv], self.env, self.root,
                     self.scratch, timeout)


def spawn(args, env, cwd, scratch: Path, timeout) -> Result:
    out_path, err_path = scratch / "stdout", scratch / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(args, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                env=env, cwd=cwd)
        lock = threading.Lock()
        state = {"done": False, "killed": False}

        def kill():
            with lock:
                if not state["done"]:
                    state["killed"] = True
                    os.kill(proc.pid, signal.SIGKILL)

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            # Wait without reaping, so the timer can never signal a reused pid.
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            with lock:
                state["done"] = True
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    return Result(
        code=proc.returncode,
        out=out_path.read_text(encoding="utf-8", errors="replace"),
        err=err_path.read_text(encoding="utf-8", errors="replace"),
        wall=wall,
        cpu=usage.ru_utime + usage.ru_stime,
        maxrss_mb=usage.ru_maxrss / 1024.0,
        timed_out=state["killed"],
    )


# ------------------------------------------------------------------ startup

_STARTUP_PROBE = """\
import json, os, sys, time
before = set(sys.modules)
w0, c0 = time.perf_counter(), time.process_time()
import omkit
w1, c1 = time.perf_counter(), time.process_time()
print(json.dumps({"wall": w1 - w0, "cpu": c1 - c0,
                  "threads": len(os.listdir("/proc/self/task")),
                  "modules": len(set(sys.modules) - before)}))
"""


def startup_probe(om: Om, repeats=5):
    """`import omkit` in fresh children, launched in the user's environment:
    wall and CPU of the import (all threads), the native thread count
    after it, and how many modules it loads.  Medians over `repeats`."""
    rows = []
    for _ in range(repeats):
        res = spawn([sys.executable, "-c", _STARTUP_PROBE], om.env, om.root, om.scratch, 60.0)
        if res.code != 0:
            raise RuntimeError(f"startup probe failed: {res.err.strip()}")
        rows.append(json.loads(res.out))
    names = {"startup.import_wall_s": "wall", "startup.import_cpu_s": "cpu",
             "startup.native_threads": "threads", "startup.modules": "modules"}
    return {name: statistics.median(r[k] for r in rows) for name, k in names.items()}


# --------------------------------------------------------------- host state

def _cpu_jiffies():
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    if not fields or fields[0] != "cpu":
        return None
    vals = [int(x) for x in fields[1:]]
    steal = vals[7] if len(vals) > 7 else 0
    return sum(vals[:8]), steal


class StealMeter:
    """Host steal time over an interval, from the aggregate /proc/stat line."""

    def __init__(self):
        self.start = _cpu_jiffies()

    def read(self):
        end = _cpu_jiffies()
        if self.start is None or end is None:
            return {"steal_s": None, "steal_frac": None}
        total = end[0] - self.start[0]
        steal = end[1] - self.start[1]
        hz = os.sysconf("SC_CLK_TCK")
        return {"steal_s": steal / hz, "steal_frac": steal / total if total else 0.0}


def reference_loop(repeats=3) -> float:
    """Median CPU seconds of a fixed pure-Python loop in this process.  It
    shows how fast the host ran, where steal time does not: another tenant
    on the same physical cores slows every instruction without any steal."""
    times = []
    for _ in range(repeats):
        c0 = time.process_time()
        total = 0
        for i in range(200_000):
            total += i * i % 7
        times.append(time.process_time() - c0)
    return sorted(times)[repeats // 2]


def machine(seed) -> dict:
    model = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    info = {
        "cpu_model": model or platform.processor() or platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": None,
        "openblas": None,
        "seed": seed,
        "loadavg": os.getloadavg(),
    }
    try:
        import numpy

        info["numpy"] = numpy.__version__
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]
        info["openblas"] = deps["blas"].get("version")
    except (ImportError, KeyError, TypeError):
        pass
    return info
