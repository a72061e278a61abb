"""Kernel-level contracts: shapes, counters, summation order, RNG."""

import math

import pytest

from rnnp.base import NumericError
from rnnp.linalg import (
    Matrix,
    OpCounter,
    Rng,
    matvec_t,
)


class TestMatvecT:
    def test_against_explicit_transpose(self):
        rng = Rng(5)
        for _ in range(30):
            rows = rng.randint(1, 7)
            cols = rng.randint(1, 7)
            m = Matrix(rows, cols, rng.uniform(-3, 3, rows * cols))
            v = rng.uniform(-3, 3, rows)
            # Reference: accumulate over rows in increasing index.
            ref = [0.0] * cols
            for r in range(rows):
                for c in range(cols):
                    ref[c] += m.data[r * cols + c] * v[r]
            assert matvec_t(m, v, OpCounter()) == ref

    def test_counter(self):
        counter = OpCounter()
        matvec_t(Matrix.zeros(4, 3), [0.0] * 4, counter)
        assert counter.mac_count == 12

    def test_identity(self):
        m = Matrix(2, 2, [1.0, 0.0, 0.0, 1.0])
        assert matvec_t(m, [3.0, 4.0], OpCounter()) == [3.0, 4.0]

    def test_zero_matrix(self):
        m = Matrix.zeros(3, 2)
        assert matvec_t(m, [7.0, -1.0, 2.0], OpCounter()) == [0.0, 0.0]

    def test_hand_multiplication_and_counter(self):
        m = Matrix(2, 2, [1.0, 2.0, 3.0, 4.0])
        counter = OpCounter()
        assert matvec_t(m, [1.0, 1.0], counter) == [4.0, 6.0]
        assert counter.mac_count == 4

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            matvec_t(Matrix.zeros(3, 2), [1.0, 2.0], OpCounter())

    def test_counter_increment_is_exactly_rows_times_cols(self):
        rng = Rng(7)
        for rows, cols in [(1, 1), (3, 5), (8, 2), (13, 13)]:
            m = Matrix(rows, cols, rng.uniform(-1, 1, rows * cols))
            v = rng.uniform(-1, 1, rows)
            counter = OpCounter()
            matvec_t(m, v, counter)
            assert counter.mac_count == rows * cols


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
