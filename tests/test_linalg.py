"""Kernel-level contracts: shapes, counters, RNG."""

import math

import pytest

from rnnp.base import NumericError
from rnnp.linalg import Matrix, OpCounter, Rng


class TestMatrix:
    def test_rejects_non_finite(self):
        with pytest.raises(NumericError):
            Matrix(1, 2, [1.0, math.inf])

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError):
            Matrix(2, 2, [1.0, 2.0, 3.0])


class TestOpCounter:
    def test_peak_floats_high_water(self):
        c = OpCounter()
        c.grad_floats_alloc(10)
        c.grad_floats_alloc(5)
        c.grad_floats_free(5)
        c.grad_floats_alloc(3)
        assert c.peak_floats == 15

    def test_monotone_within_call(self):
        c = OpCounter()
        last = 0
        for n in [3, 1, 10, 2]:
            c.add_macs(n)
            assert c.mac_count >= last
            last = c.mac_count


class TestRng:
    def test_empty_draw(self):
        assert Rng(1).uniform(0.0, 1.0, 0) == []

    def test_determinism_per_seed(self):
        a = Rng(42).uniform(-2.0, 2.0, 100)
        b = Rng(42).uniform(-2.0, 2.0, 100)
        assert a == b

    def test_different_seeds_differ(self):
        assert Rng(1).uniform(0, 1, 10) != Rng(2).uniform(0, 1, 10)

    def test_lo_ge_hi_rejected(self):
        with pytest.raises(ValueError):
            Rng(1).uniform(1.0, 1.0, 2)

    def test_law_of_large_numbers(self):
        xs = Rng(2024).uniform(0.0, 1.0, 10_000)
        mean = sum(xs) / len(xs)
        assert abs(mean - 0.5) < 0.02
        assert all(0.0 <= x < 1.0 for x in xs)

    def test_normal_moments(self):
        xs = Rng(7).normal(1.0, 2.0, 20_000)
        mean = sum(xs) / len(xs)
        var = sum((x - mean) ** 2 for x in xs) / len(xs)
        assert abs(mean - 1.0) < 0.05
        assert abs(var - 4.0) < 0.15

    def test_spawn_streams_are_independent_and_reproducible(self):
        root = Rng(9)
        a1 = root.spawn(0).uniform(0, 1, 5)
        a2 = Rng(9).spawn(0).uniform(0, 1, 5)
        b = Rng(9).spawn(1).uniform(0, 1, 5)
        assert a1 == a2
        assert a1 != b
