"""A fixed piece of work that uses no multihit code, timed to track how fast
the machine runs at the moment.

The reference machine (a 2-vCPU VM on a shared host) runs the same Python
code up to 1.7x slower for minutes at a time: column generation took 4.8 s
in one set of runs and 8.0 s some minutes later, and every workload and its
set-up moved with it.  ``run.py`` times this work around each round's
set-ups and solve and scales their times by ``REFERENCE_S`` over the
calibration times measured around them, so that a slow phase, which slows
both, partly cancels.

The mix follows the solvers' own kinds of work: Python big-int bit loops
with float sums (pricing), small NumPy matrix-vector products and rank-one
updates driven from Python (the 281-row master LPs of colgen_prove) and
the same on a 976-row matrix that does not fit in cache (paper_scale's
root LP).  Each part takes 60-100 ms.
"""

import random
import time

import numpy as np

# Median calibration time on the reference machine; scaled times are in
# seconds at that speed.
REFERENCE_S = 0.25


class Calibration:
    """Inputs are drawn once from a fixed seed, never from ``--seed``."""

    def __init__(self):
        rng = random.Random(2602)
        self.masks = [rng.getrandbits(200) for _ in range(400)]
        self.weights = [rng.random() for _ in range(200)]
        gen = np.random.default_rng(2602)
        self.small = gen.random((281, 281))
        self.small_v = gen.random(281)
        self.big = gen.random((976, 976))
        self.big_v = gen.random(976)

    def _bits(self):
        total = 0.0
        for a in self.masks:
            for b in self.masks[:16]:
                m = a & b
                while m:
                    low = m & -m
                    total += self.weights[low.bit_length() - 1]
                    m ^= low
        return total

    @staticmethod
    def _rank_one(matrix, v, steps):
        for _ in range(steps):
            w = matrix @ v
            matrix -= np.outer(w * 1e-12, v)
            np.argmax(w)

    def __call__(self):
        """Seconds taken by one pass of the fixed work."""
        t0 = time.perf_counter()
        self._bits()
        self._rank_one(self.small, self.small_v, 320)
        self._rank_one(self.big, self.big_v, 16)
        return time.perf_counter() - t0
