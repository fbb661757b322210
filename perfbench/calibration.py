"""Host-speed calibration.

The shared host this benchmark was tuned on runs in speed regimes that last
from seconds to minutes, and the slow regime is about 1.7 times slower than
the fast one. Raw medians of 30 s runs therefore spread by a quarter between
runs. A fixed pure-Python loop, timed next to a measurement, slows in step
with neurobench's own Python code: over a 150 s trace, the ratio of a
`surface` operation to this loop held within 4% while both moved by 1.7x.

`scale()` times the loop once and returns the factor that converts host time
measured now into host time at the reference speed, the speed at which the
loop takes `REF_S`. Every time the benchmark reports is multiplied by the
factor timed next to it.
"""

import time

REF_S = 0.010
ITERATIONS = 60_000


def _loop() -> float:
    acc = 0.0
    table = {}
    for i in range(ITERATIONS):
        table[i % 97] = (i * 1.000001) ** 0.5 + acc
        acc = table[i % 97] * 1e-9
    return acc


def scale() -> float:
    t0 = time.perf_counter()
    _loop()
    return REF_S / (time.perf_counter() - t0)
