"""A fixed piece of work that the benchmark times between
passes, to put its times on a scale that other tenants of a shared host
do not move.

On a shared host the same pass can take up to twice as long for a
minute at a time, while neighbours load the caches and cores. The loop
does the kinds of work the pipeline does (dict and string work, sorting,
JSON records, and small numpy and scipy calls in a Python loop, as SGD
makes them), which slow down about as much as a pass does. So the ratio
of a pass's time to that of this loop, timed right before and after it,
stays put where either time alone does not. The loop calls nothing of
the program: no change to the program changes its cost.
"""

from __future__ import annotations

import json
import random
import time

import numpy as np
import scipy.sparse as sp

# seconds the loop takes, on an idle 2-vCPU Xeon VM, by which
# `scaled` turns a ratio of times back into seconds
REFERENCE_S = 0.06

_rng = random.Random(0)
_WORDS = [f"w{_rng.randrange(6000)}x{_rng.randrange(40)}" for _ in range(20000)]
_TEXT = " ".join(_WORDS)
_ROWS = sp.random(400, 3000, density=0.005, format="csr", random_state=0)


def _work() -> float:
    counts: dict[str, int] = {}
    for tok in _TEXT.split():
        counts[tok] = counts.get(tok, 0) + 1
    keys = sorted((tok[:3], tok[-2:], n) for tok, n in counts.items())
    index = {k: i for i, k in enumerate(keys)}
    records = [{"id": k[0], "tail": k[1], "n": n} for k, n in zip(keys[::4], range(10**6))]
    back = json.loads(json.dumps(records))
    w = np.zeros(_ROWS.shape[1])
    for i in range(_ROWS.shape[0]):
        row = _ROWS.getrow(i)
        if row.dot(w)[0] < 1.0:
            w[row.indices] += 0.01 * row.data
    return float(w.sum()) + len(back) + len(index)


def measure() -> tuple[float, float]:
    """Wall and process CPU seconds of one run of the loop."""
    w0, c0 = time.perf_counter(), time.process_time()
    _work()
    return time.perf_counter() - w0, time.process_time() - c0


def scaled(seconds: float, before: tuple[float, float], after: tuple[float, float],
           cpu: bool = False) -> float:
    """`seconds` of a pass on the scale of REFERENCE_S: divided by the
    mean of the loop's times before and after the pass."""
    i = 1 if cpu else 0
    return seconds * REFERENCE_S / ((before[i] + after[i]) / 2)
