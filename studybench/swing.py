"""Speed swing of the machine it runs on: one fixed single-threaded loop,
timed again and again.

    OMP_NUM_THREADS=1 PYTHONPATH=src python3 studybench/swing.py [SECONDS [WINDOW]]

The loop is 20,000 steps of the N = 128 Burgers model, the same work every
time, so the spread of its times is the machine's, not the program's.
Prints the count, minimum, quartiles and maximum of the loop times over
SECONDS (default 60), and the spread (interquartile range over median) of
the loop-time medians of consecutive WINDOW-second windows (default 40,
one benchmark run): no benchmark run of that length can be steadier.
"""

import statistics
import sys
import time

import numpy as np

from opinfer import fom


def main():
    seconds = float(sys.argv[1]) if len(sys.argv) > 1 else 60.0
    window = float(sys.argv[2]) if len(sys.argv) > 2 else 40.0
    model = fom.make_burgers(0.5)
    U = np.ones((1, 20_000))
    x0 = np.zeros(model.state_dim)
    begin = time.monotonic()
    windows = {}
    while time.monotonic() - begin < seconds:
        start = time.monotonic()
        fom.simulate(model, x0, U)
        windows.setdefault(int((start - begin) // window), []).append(time.monotonic() - start)
    times = [t for loop_times in windows.values() for t in loop_times]
    q1, q2, q3 = statistics.quantiles(times, n=4)
    print(f"{len(times)} loops: min {min(times):.3f} s, quartiles {q1:.3f} / {q2:.3f} / "
          f"{q3:.3f} s, max {max(times):.3f} s, max/min {max(times) / min(times):.2f}")
    medians = [statistics.median(loop_times) for loop_times in windows.values()]
    if len(medians) >= 4:
        w1, w2, w3 = statistics.quantiles(medians, n=4)
        print(f"{len(medians)} windows of {window:g} s: median loop {w2:.3f} s, "
              f"spread of window medians {(w3 - w1) / w2:.3f}")


if __name__ == "__main__":
    main()
