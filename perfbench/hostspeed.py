"""Host speed sampler, run in a fresh interpreter that never imports fgap.

    python3 -I perfbench/hostspeed.py --every 0.2

times one run of fixed pure-Python work at once and then every 0.2 s, and
prints each time in CPU seconds on a line of its own, until its standard
input closes.  The benchmark runs it beside each timed pass, pinned to the
same CPU as the program, so the samples tell how fast that CPU ran during
the pass: on a shared virtual machine each virtual CPU's speed changes
within a second, independently of the other's.  CPU time leaves out the
slices the program takes while a sample runs.  One sample is a few
milliseconds of work, so the sampler takes about 2% of the CPU.  It runs in
its own process so that nothing the program under test does to its
process (garbage-collector settings, background threads, switch interval)
reaches the measurement the benchmark divides by.
"""

import argparse
import select
import sys
import time
from fractions import Fraction


def work():
    """Fixed pure-Python work that shares no code with fgap."""
    acc = Fraction(0)
    for i in range(1, 1200):
        acc += Fraction(i % 17, i)
    table = {}
    for i in range(3000):
        table[i * 7919 % 1009] = table.get(i % 13, 0) + i * i
    return acc, len(table)


def timed_work():
    t0 = time.thread_time()
    work()
    return time.thread_time() - t0


def sample(every):
    """Print a sample now and every `every` seconds until stdin closes."""
    while True:
        sys.stdout.write("%r\n" % timed_work())
        sys.stdout.flush()
        ready, _, _ = select.select([sys.stdin], [], [], every)
        if ready:
            return


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--every", type=float, required=True)
    sample(ap.parse_args().every)
