"""Synthetic generator: determinism, structure, and ground-truth accounting."""

import hashlib
import math
from datetime import date, datetime

import pytest

from rnnp.base import ConfigError
from rnnp.linalg import Rng
from rnnp.series import write_csv
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

    # SHA-256 of the series CSV ``write_csv`` writes and of the truth's
    # ``noise`` and ``log_det`` (``float.hex``, one per line), taken from the
    # hour-by-hour generator and ``csv.writer``.  2008 is a leap year, and
    # 2008-07-05 is a holiday on a Saturday.
    PINS = {
        "2007_2008_holidays": (
            SynthConfig(
                start_year=2007,
                years=2,
                holidays=frozenset(
                    {date(2007, 1, 1), date(2007, 7, 4), date(2008, 2, 29), date(2008, 7, 5)}
                ),
            ),
            7,
            "92b59f7c3a14679ae08c3417a7148a7dc547cd29013890336c605a7fdcb4b704",
            "2f547651f232894d605b3d8e8413c00184e2b264b6f5c213ab662966d30b7072",
            "4aab8ece3381c30e4a61a506190ba5367aefcb0c42f8b0f18e3d1329543d8022",
        ),
        "2011": (
            SynthConfig(start_year=2011, years=1),
            11,
            "6ad02b54ac52a81d13f330249e09f1f0bcdeb41290303b9f4ff8dc7fea6dae7e",
            "08bd41505c15a22493789873ab41384984b770ae3c135edb3a61e05e375b2208",
            "0d11bc30f4f73e9932ebab8304412b728dad724abd5e5ad627b31d5c5338edfe",
        ),
    }

    @pytest.mark.parametrize("case", sorted(PINS))
    def test_series_csv_and_truth_pinned(self, tmp_path, case):
        config, seed, csv_sha, noise_sha, log_det_sha = self.PINS[case]
        series, truth = synth_generate(config, Rng(seed))
        path = tmp_path / "series.csv"
        write_csv(series, str(path))

        def hex_sha(values):
            return hashlib.sha256("\n".join(v.hex() for v in values).encode()).hexdigest()

        assert hashlib.sha256(path.read_bytes()).hexdigest() == csv_sha
        assert hex_sha(truth.noise) == noise_sha
        assert hex_sha(truth.log_det) == log_det_sha

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
