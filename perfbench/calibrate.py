"""Host-speed calibration of the qsix benchmark, in a process of its own.

    python3 perfbench/calibrate.py

Reads one request per line on standard input and answers each with one
line, the seconds the requested calibration took:

    loop      CPU seconds of a fixed loop of complex arithmetic and numpy
              scalar functions
    process   CPU seconds of a bare interpreter, `python3 -c pass`, from
              spawn to exit

It runs no qsix code and shares no interpreter with the benchmark, so
nothing the program does to its own process (threads, profilers, the
switch interval) reaches it. Both figures are CPU time, not wall time, so
another process busy on the same CPU does not slow them either; what they
follow is the speed the host gives this CPU. It exits at end of input.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time

import numpy as np

#: the first calls of a process run slower while the interpreter
#: specialises the loop
WARM_UP = 20


def loop_seconds() -> float:
    """The mix of the program's hot loops: Python complex arithmetic, and
    numpy scalar calls as in the sampler. Over minutes it follows the
    program's speed on a drifting host more closely than pure arithmetic."""
    start = time.thread_time()
    z, w, acc, lg = 0.3 + 0.4j, 1.0 + 0j, 0j, 0.0
    for _ in range(600):
        z = z * (0.99 + 0.01j) + 0.001
        w *= 1.0 - 0.5 * z
        acc += z / (1.0 + abs(w))
        lg += float(np.log(abs(w) + 1.0)) + float(np.exp(-abs(z)))
        if not np.isfinite(lg):
            raise RuntimeError("calibration loop lost its value")
    return time.thread_time() - start


def process_seconds() -> float:
    """User plus system seconds of a bare interpreter, read with wait4 so
    that they are the child's own."""
    proc = subprocess.Popen([sys.executable, "-c", "pass"],
                            stdin=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError(f"calibration process exited {proc.returncode}")
    return usage.ru_utime + usage.ru_stime


MEASURES = {"loop": loop_seconds, "process": process_seconds}


def main() -> int:
    for _ in range(WARM_UP):
        loop_seconds()
    for line in sys.stdin:
        print(repr(MEASURES[line.strip()]()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
