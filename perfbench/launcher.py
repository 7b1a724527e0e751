"""Start the benchmark's child processes from a small process.

Linux carries a process's peak RSS (``ru_maxrss``) across ``exec`` from the
process that forked it, so a child forked by the benchmark itself would
report at least the benchmark's own size. This launcher stays smaller than
any qeqlog child, so the peak it reports belongs to the child.

Just before and just after each child it also times a fixed pure-Python
loop, ``calibrate``. The benchmark's host is a shared VM whose speed swings
by 10-30% for seconds to minutes at a time, in CPU time as well as wall
time. The loop slows with it, so the benchmark divides each child's times by
the loop's times taken next to it. The loop runs here, not in a child, so
that it pays no interpreter start-up and needs no process of its own.

Protocol: one JSON request per line on stdin,
``{"argv", "stdout", "stderr", "cwd", "env", "timeout"}``; one JSON reply per
line on stdout, ``{"wall", "cpu", "rss_kb", "code", "cal_wall", "cal_cpu"}``,
where wall runs from spawn to exit, code is null when the child was killed at
the timeout, and cal_wall and cal_cpu are the mean times of the loops run
just before and just after the child. The launcher exits at end of input.
"""
import json
import os
import signal
import subprocess
import sys
import threading
from time import perf_counter, process_time

# About 25 ms on a 2-vCPU x86-64 VM. The host's speed holds for a second or
# more at a time, so a longer loop is hardly steadier.
CALIBRATION_STEPS = 30_000


def calibrate() -> tuple[float, float]:
    """Wall and CPU seconds of a fixed loop of dict, tuple and set work."""
    table: dict = {}
    acc = 0
    wall, cpu = perf_counter(), process_time()
    for i in range(CALIBRATION_STEPS):
        key = (i & 255, i % 7)
        table[key] = table.get(key, 0) + 1
        acc ^= hash(frozenset((i & 63, i & 31))) & 1
    return perf_counter() - wall, process_time() - cpu


def run(req: dict) -> dict:
    before = calibrate()
    with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(req["argv"], stdout=out, stderr=err, cwd=req["cwd"], env=req["env"])
        timer = threading.Timer(req["timeout"], proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = perf_counter() - start
    after = calibrate()
    proc.returncode = os.waitstatus_to_exitcode(status)
    killed = os.WIFSIGNALED(status) and os.WTERMSIG(status) == signal.SIGKILL
    return {
        "wall": wall,
        "cpu": usage.ru_utime + usage.ru_stime,
        "rss_kb": usage.ru_maxrss,
        "code": None if killed else proc.returncode,
        "cal_wall": (before[0] + after[0]) / 2,
        "cal_cpu": (before[1] + after[1]) / 2,
    }


if __name__ == "__main__":
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)
