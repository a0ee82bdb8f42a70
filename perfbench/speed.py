"""Machine-speed calibration for a shared, noisy CPU.

On a shared VM the same computation runs up to 1.7x slower from one few-
second stretch to the next, and a whole benchmark run can sit in a slow
stretch. The worker therefore times a fixed kernel of the benchmark's own
between queries, at least every EVERY_S seconds, and scales each query's
latency by REFERENCE_S / (kernel time around the query). The kernel does
the kind of work nilbloch does, but none of its code: exact sparse row
reduction over dicts of Fractions, and tuple-keyed dict accumulation.
Scaled times are seconds on a machine where the kernel takes REFERENCE_S,
a round figure close to its time on a 2.1 GHz Xeon vCPU. A change to
nilbloch moves query times and not the kernel, so it moves scaled times in
full.
"""

import random
from fractions import Fraction
from time import perf_counter

REFERENCE_S = 5e-3
EVERY_S = 0.2


def _matrix():
    rng = random.Random(0)
    return [{(rng.randrange(60), rng.randrange(3)):
             Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(8)}
            for _ in range(70)]


ROWS = _matrix()


def _eliminate():
    pivots = {}
    for row in ROWS:
        res = {k: c for k, c in row.items() if c}
        for k in sorted((k for k in res if k in pivots), reverse=True):
            c = res.get(k)
            if c:
                for k2, c2 in pivots[k].items():
                    v = res.get(k2, 0) - c * c2
                    if v:
                        res[k2] = v
                    else:
                        res.pop(k2, None)
        if res:
            p = max(res)
            lead = res[p]
            pivots[p] = {k: c / lead for k, c in res.items()}
    return pivots


def _accumulate():
    out = {}
    for i in range(1000):
        key = ((i % 7, i % 5), (i % 11, i % 3))
        out[key] = out.get(key, 0) + Fraction(i % 13 + 1, 3)
    return out


def kernel_seconds():
    """Time of one kernel run, in seconds."""
    t0 = perf_counter()
    _eliminate()
    _accumulate()
    return perf_counter() - t0
