"""Kernel-level contracts: weight lengths, counters, RNG."""

import pytest

from rnnp.linalg import OpCounter, Rng
from rnnp.model import ModelParams, RnnSpec


class TestMatrix:
    def test_rejects_bad_length(self):
        # A 2x2 U given three values leaves theta one entry short.
        spec = RnnSpec(lag_set=(1,), x_dim=2, hidden_dim=2, y_dim=1)
        params = ModelParams(theta=[1.0, 2.0, 3.0] + [0.0] * 4, phi=[0.0] * 3)
        with pytest.raises(ValueError):
            params.validate(spec)


class TestOpCounter:
    def test_is_a_frozen_value(self):
        c = OpCounter(mac_count=12, peak_floats=5)
        assert c == OpCounter(12, 5)
        with pytest.raises(AttributeError):
            c.mac_count = 13


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
