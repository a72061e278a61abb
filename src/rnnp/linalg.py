"""A fixed-order sum, deterministic RNG, and operation counters.

Everything here is plain CPython ``float`` arithmetic over lists; there
is no matrix type.  The model's weights live in the packed vectors of
``model.ModelParams``.  Sums run from 0.0 in a fixed order
(``_left_sum``), so results are bit-identical across runs, platforms and
interpreter versions.  That reproducibility is contractual: the gradient
engines are compared against each other at tight tolerances, and their
cost is accounted by exact multiply-accumulate tallies rather than wall
time.

An ``OpCounter`` belongs to one gradient call and must not be shared
across concurrent calls.
"""

from __future__ import annotations

import random


class OpCounter:
    """Tally of scalar multiply-accumulates and peak gradient-state floats.

    ``mac_count`` counts every scalar multiply that feeds an accumulation
    (pure additions are free).  ``peak_floats`` is a high-water mark of the
    float values a gradient algorithm keeps alive across time steps, fed by
    the owning engine through :meth:`grad_floats_alloc` /
    :meth:`grad_floats_free`.  Both tallies only ever grow within a call.
    """

    __slots__ = ("mac_count", "peak_floats", "_live_floats")

    def __init__(self) -> None:
        self.mac_count = 0
        self.peak_floats = 0
        self._live_floats = 0

    def add_macs(self, n: int) -> None:
        self.mac_count += n

    def grad_floats_alloc(self, n: int) -> None:
        self._live_floats += n
        if self._live_floats > self.peak_floats:
            self.peak_floats = self._live_floats

    def grad_floats_free(self, n: int) -> None:
        self._live_floats -= n

    def __repr__(self) -> str:
        return f"OpCounter(mac_count={self.mac_count}, peak_floats={self.peak_floats})"


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

