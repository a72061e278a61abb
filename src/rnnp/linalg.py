"""A fixed-order sum, deterministic RNG, and the operation-count record.

Everything here is plain CPython ``float`` arithmetic over lists; there
is no matrix type.  The model's weights live in the packed vectors of
``model.ModelParams``.  Sums run from 0.0 in a fixed order
(``_left_sum``), so results are bit-identical across runs, platforms and
interpreter versions.  That reproducibility is contractual: the gradient
engines are compared against each other at tight tolerances, and their
cost is accounted by exact multiply-accumulate counts rather than wall
time.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class OpCounter:
    """The cost of one gradient call: scalar multiply-accumulates and peak
    gradient-state floats.

    ``mac_count`` counts every scalar multiply that feeds an accumulation
    (pure additions are free).  ``peak_floats`` is the largest number of
    float values the gradient algorithm keeps alive across time steps at
    once.  Each engine builds the record once, at the end of its call,
    from the counts of its own walk (``engines``).
    """

    mac_count: int
    peak_floats: int


def _left_sum(values) -> float:
    """Sum from 0.0 in iteration order.

    Stands in for the builtin ``sum``, which Python 3.12 made compensated
    for floats, so its result would depend on the interpreter version.
    """
    total = 0.0
    for v in values:
        total += v
    return total


class Rng:
    """Deterministic random stream: identical seed, identical values.

    Backed by the standard Mersenne Twister, whose ``random()`` output is
    guaranteed stable across CPython versions.  Normal deviates are drawn
    by inverse-CDF on ``random()`` so they inherit the same guarantee.
    """

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self._gen = random.Random(seed)

    def spawn(self, stream: int) -> "Rng":
        """Derive an independent, reproducible child stream."""
        return Rng((self.seed * 1000003 + stream + 1) & 0xFFFFFFFFFFFFFFFF)

    def uniform(self, lo: float, hi: float, n: int) -> list:
        if lo >= hi:
            raise ValueError(f"uniform requires lo < hi, got [{lo}, {hi})")
        if n < 0:
            raise ValueError(f"negative sample count {n}")
        width = hi - lo
        rnd = self._gen.random
        return [lo + width * rnd() for _ in range(n)]

    def normal(self, mu: float, sigma: float, n: int) -> list:
        from .stats import normal_ppf

        if sigma < 0:
            raise ValueError(f"negative sigma {sigma}")
        rnd = self._gen.random
        out = []
        for _ in range(n):
            u = rnd()
            while u <= 0.0:  # guard the open interval for the inverse CDF
                u = rnd()
            out.append(mu + sigma * normal_ppf(u))
        return out

    def shuffle(self, items: list) -> None:
        self._gen.shuffle(items)

    def randint(self, lo: int, hi: int) -> int:
        return self._gen.randint(lo, hi)

