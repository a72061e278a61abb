"""Synthetic generator: determinism, structure, and ground-truth accounting."""

import math
from datetime import datetime

import pytest

from rnnp.base import ConfigError
from rnnp.linalg import Rng
from rnnp.synth import SynthConfig, synth_generate


class TestGeneration:
    def test_deterministic_per_seed(self):
        config = SynthConfig(years=1)
        s1, t1 = synth_generate(config, Rng(42))
        s2, t2 = synth_generate(config, Rng(42))
        assert s1.demand_mwh == s2.demand_mwh
        assert s1.drybulb_f == s2.drybulb_f
        assert t1.noise == t2.noise

    def test_covers_full_calendar_years_with_leap(self):
        series, _ = synth_generate(SynthConfig(start_year=2007, years=2), Rng(1))
        assert series.start == datetime(2007, 1, 1)
        assert series.end == datetime(2009, 1, 1)
        assert len(series) == (365 + 366) * 24  # 2008 is a leap year

    def test_year_fraction_once_per_hour(self, monkeypatch):
        import rnnp.synth

        calls = []
        year_fraction = rnnp.synth.year_fraction

        def counting(ts):
            calls.append(ts)
            return year_fraction(ts)

        monkeypatch.setattr(rnnp.synth, "year_fraction", counting)
        series, _ = synth_generate(SynthConfig(years=1), Rng(3))
        assert calls == series.timestamps

    def test_demand_strictly_positive(self):
        series, _ = synth_generate(SynthConfig(years=1), Rng(2))
        assert min(series.demand_mwh) > 0.0

    def test_truth_decomposition_is_exact(self):
        series, truth = synth_generate(SynthConfig(years=1), Rng(3))
        for i in range(0, len(series), 997):
            assert series.demand_mwh[i] == math.exp(
                truth.log_det[i] + truth.noise[i]
            )

    def test_noise_free_config_has_zero_noise(self):
        series, truth = synth_generate(
            SynthConfig(years=1, noise_sigma=0.0, ar1=0.0, ar24=0.0), Rng(4)
        )
        assert all(u == 0.0 for u in truth.noise)

    def test_invalid_configs_rejected(self):
        with pytest.raises(ConfigError):
            SynthConfig(years=0)
        with pytest.raises(ConfigError):
            SynthConfig(ar1=0.8, ar24=0.3)
        with pytest.raises(ConfigError):
            SynthConfig(noise_sigma=-0.1)


class TestTruthOracle:
    def test_irreducible_mape_scales_with_noise(self):
        lo_series, lo_truth = synth_generate(
            SynthConfig(years=1, noise_sigma=0.005), Rng(5)
        )
        hi_series, hi_truth = synth_generate(
            SynthConfig(years=1, noise_sigma=0.04), Rng(5)
        )
        n = len(lo_series)
        lo = lo_truth.irreducible_mape(lo_series, 0, n)
        hi = hi_truth.irreducible_mape(hi_series, 0, n)
        assert lo < hi
        assert lo < 2.0  # half-percent innovations stay around a 1% MAPE

    def test_noise_var_matches_direct_computation(self):
        series, truth = synth_generate(SynthConfig(years=1), Rng(6))
        chunk = truth.noise[100:400]
        mean = sum(chunk) / len(chunk)
        var = sum((v - mean) ** 2 for v in chunk) / len(chunk)
        assert truth.noise_var(100, 400) == pytest.approx(var)
