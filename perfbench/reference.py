"""A fixed reference kernel that gauges how fast the host runs right now.

The benchmark runs on a few cores of a shared host whose speed shifts by
tens of percent over seconds to minutes; CPU time inflates with wall time,
so neither shows the program alone.  This kernel is a frozen, standalone
adaptive tamed Milstein loop (pure Python floats, closures for the
coefficients, Philox normals drawn in numpy blocks), the same instruction
mix as tamsde's hot loops, but it imports nothing from tamsde, so a change
to the program never moves it.  Timing it RUNS times right before and
RUNS times right after each job tells how fast the host ran during that
job; the median of those runs is the job's gauge, robust to one run that a
burst of preemption slowed, and

    normalized seconds = measured seconds * NOMINAL_S / kernel seconds

is the job's time on a host where the kernel takes NOMINAL_S: the 2-core
Xeon host the benchmark was tuned on, at its usual speed.  A job that does
the same work reads about the same whatever the host's load.
"""

import math
import statistics
from time import perf_counter

import numpy as np

NOMINAL_S = 0.030   # kernel seconds at the tuning host's usual speed
STEPS = 5000        # steps per path; 4 paths take ~30 ms
PATHS = 4
RUNS = 2            # kernel runs on each side of a measured span
_BLOCK = 1024


def kernel(paths=PATHS, steps=STEPS, delta=2.0 ** -4, seed=1):
    """Adaptive tamed Milstein steps of dX = (X - X^3) dt + (1 + X^2)^0.75 dW.

    Returns the sum of the terminal states, so the work has a result.
    """
    def mu(x):
        return x - x * x * x

    def sig(x):
        return (1.0 + x * x) ** 0.75

    def mup(x):
        return 1.0 - 3.0 * x * x

    def sigp(x):
        return 1.5 * x * (1.0 + x * x) ** -0.25

    sqd = math.sqrt(delta)
    total = 0.0
    for p in range(paths):
        gen = np.random.Generator(
            np.random.Philox(np.random.SeedSequence(seed + p)))
        buf = gen.standard_normal(_BLOCK).tolist()
        i = 0
        x = 1.0
        for _ in range(steps):
            m, s, mp, sp = mu(x), sig(x), mup(x), sigp(x)
            g = s * sp
            q = g / (1.0 + sqd * abs(g))
            base = 1.0 + m * m + abs(mp) + s ** 4 + sp ** 4 + abs(q) + x * x
            dt = delta / base
            if i == _BLOCK:
                buf = gen.standard_normal(_BLOCK).tolist()
                i = 0
            dw = math.sqrt(dt) * buf[i]
            i += 1
            x = x + m * dt + s * dw + 0.5 * q * (dw * dw - dt)
        total += x
    return total


def kernel_seconds():
    """Wall seconds of one kernel run."""
    t0 = perf_counter()
    kernel()
    return perf_counter() - t0


def kernel_times():
    """Wall seconds of RUNS kernel runs, one side of a measured span."""
    return [kernel_seconds() for _ in range(RUNS)]


def gauge(before, after):
    """Kernel seconds during a span, from the kernel_times() around it."""
    return statistics.median(before + after)


def normalized(seconds, kernel_s):
    """seconds measured while the kernel took kernel_s, at nominal speed."""
    return seconds * NOMINAL_S / kernel_s
