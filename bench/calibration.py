"""Machine speed, measured beside every timed request.

The benchmark runs on shared hosts whose speed can change by a factor of
two within seconds: on a 2-core cloud sandbox (Python 3.11.7) a fixed
pure-Python loop took 1.4 to 2.7 ms in one-second medians over five
minutes, and whole passes over a workload took 2.6 to 5.0 s.  Medians over
a run of tens of seconds do not remove swings that last that long.

So every time is taken between two calibrations, and reported at the
reference speed:

    reported = measured * reference / mean(calibration before, after)

* A request in this process runs between two blocks of pure-Python work
  from the benchmark's own code (the reference lattice enumeration and
  exact rational arithmetic, the kind of work toricap does); ``BLOCK_S`` is
  the block's time at the reference speed.  Over 200 s in which raw pass
  times on that sandbox varied twofold, the reported ones varied by 3%
  (interquartile range over the median).
* A child process runs between two bare interpreter starts
  (``python -c pass``); ``START_S`` is their time at the reference speed.
  Starting a process is kernel work that the in-process block does not
  track: around child processes it moved against them as often as with
  them, while bare starts took child times from a 16% to a 4% spread of
  25-child medians over two minutes.

The references are the usual times on that sandbox, so reported times are
close to what it measures when it is not disturbed.  Neither calibration
runs toricap, so a change to the program moves the reported times and a
change in the machine's speed does not.
"""

from __future__ import annotations

import gc
from fractions import Fraction
from time import perf_counter

import reference

BLOCK_S = 1.5e-3  # the block, at the reference speed
START_S = 0.070  # a bare interpreter's start, ``python -c pass``, at that speed

_HULL = {"type": "convex", "generators": [["3/2", "1", "5/3"], ["1", "7/3", "1/2"],
                                           ["2", "1/2", "4/3"]]}


def block() -> float:
    """Seconds taken by the fixed block of work; the collector is paused so
    garbage left by the program is not collected inside it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        values = reference.capacities(_HULL, 9)
        total = Fraction(0)
        for i in range(1, 120):
            total += Fraction(i % 7 + 1, i % 5 + 1) * values[i % 9]
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def scale(before: float, after: float, reference: float) -> float:
    """The factor that takes a time measured between two calibrations, which
    take ``reference`` seconds at the reference speed, to that speed."""
    return reference / ((before + after) / 2)
