"""Acceptance suite: one test per criterion, one printed verdict each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines.  Criteria 6 and 7 share one end-to-end pipeline run on a seeded
five-year synthetic series; everything else is fast and exact.
"""

import math
import time
from datetime import datetime

import pytest

from rnnp.bench import gain_factors, linear_fit_r2, sweep_neurons, sweep_tau
from rnnp.engines import bptt_gradients, macronode_count, rtrl_space_floats
from rnnp.gradcheck import run_gradient_check
from rnnp.linalg import Rng
from rnnp.model import RnnSpec, init_params
from rnnp.pbonacci import build_table, check_bounds, monotone_doubling_check
from rnnp.pipeline import (
    LoadForecastPipeline,
    build_walk_forward_plan,
    run_walk_forward,
)
from rnnp.seasonal import HourlyDeseasonalizer
from rnnp.synth import SynthConfig, synth_generate
from rnnp.training import HyperGrid, LossHead


def verdict(criterion: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


class TestCriterion1EngineEquivalence:
    def test_engines_agree_pairwise_and_with_finite_differences(self):
        t0 = time.perf_counter()
        rows, ok = run_gradient_check(n_seeds=100)
        elapsed = time.perf_counter() - t0
        assert len({r.seed for r in rows}) == 100
        allowed_lags = {(1,), (1, 2), (1, 3), (1, 2, 5)}
        assert {r.lag_set for r in rows} == allowed_lags
        assert all(r.tau <= 12 for r in rows)
        failures = sum(not r.ok for r in rows)
        verdict(
            1,
            ok and failures == 0 and elapsed < 60.0,
            f"3 engines vs each other (<=1e-10 rel) and central differences "
            f"(<=1e-5 rel / 1e-7 abs) over 100 seeded instances, "
            f"{len(rows)} comparisons, {failures} failures, {elapsed:.1f}s "
            f"(< 60s)",
        )


class TestCriterion2MacronodeLaw:
    def test_counts_match_sequence_sums_and_tree_enumeration(self):
        t0 = time.perf_counter()
        ok = True
        # Partial sums of the order-p sequence, p = 2..4, tau <= 40.
        for p in (2, 3, 4):
            table = build_table(p, 40)
            lags = tuple(range(1, p + 1))
            for tau in range(1, 41):
                ok = ok and macronode_count(tau, lags) == table.sums[tau - 1]
        # p = 2 equals F_{tau+2} - 1.
        fib = build_table(2, 42).values
        for tau in range(1, 41):
            ok = ok and macronode_count(tau, (1, 2)) == fib[tau + 1] - 1

        # tau <= 15: equals both a brute-force enumeration and the
        # engine's actually-visited count.
        def brute(t):
            return 1 + sum(brute(t - l) for l in (1, 2) if t - l >= 1)

        spec = RnnSpec(lag_set=(1, 2), x_dim=2, hidden_dim=3, y_dim=1)
        params = init_params(spec, Rng(71))
        head = LossHead(kind="mse")
        for tau in range(1, 16):
            xs = [Rng(72).spawn(tau).uniform(-1, 1, 2) for _ in range(tau)]
            _, _, visited = bptt_gradients(params, spec, xs, head.bind(0.1))
            want = macronode_count(tau, (1, 2))
            ok = ok and visited == want == brute(tau)
        elapsed = time.perf_counter() - t0
        verdict(
            2,
            ok and elapsed < 10.0,
            f"macronode counts = p-bonacci partial sums (tau<=40, p<=4), "
            f"= F_(tau+2)-1 at p=2, = visited tree nodes (tau<=15), "
            f"{elapsed:.1f}s (< 10s)",
        )


class TestCriterion3AppendixBounds:
    def test_exponential_bounds_and_doubling_structure(self):
        t0 = time.perf_counter()
        ok = True
        for p in range(2, 7):
            table = build_table(p, 60)
            ok = ok and all(r.ok for r in check_bounds(table))
            ok = ok and all(r.ok for r in monotone_doubling_check(table))
        elapsed = time.perf_counter() - t0
        verdict(
            3,
            ok and elapsed < 1.0,
            f"sqrt(2)^(n-1) <= S_n <= 2^(n-1) in exact integers for p=2..6, "
            f"n<=60, with doubling equality exactly when n <= p+1, "
            f"{elapsed:.2f}s (< 1s)",
        )


class TestCriterion4ComplexityShapes:
    def test_counter_growth_laws(self):
        t0 = time.perf_counter()
        spec = RnnSpec(lag_set=(1, 2), x_dim=13, hidden_dim=15, y_dim=1)
        taus = list(range(3, 49))
        r2 = {}
        for engine in ("trrl", "rtrl"):
            recs = sweep_tau(engine, spec, taus)
            r2[engine] = linear_fit_r2(
                [r.tau for r in recs], [r.mac_count for r in recs]
            )
        linear_ok = all(v >= 0.999 for v in r2.values())

        bptt_recs = sweep_tau("bptt", spec, [10, 11, 12, 13])
        ratios = [
            b.mac_count / a.mac_count for a, b in zip(bptt_recs, bptt_recs[1:])
        ]
        bptt_ok = all(1.4 <= r <= 1.9 for r in ratios)

        space_ok = True
        for lags in ((1,), (1, 2), (1, 2, 3)):
            s = RnnSpec(lag_set=lags, x_dim=13, hidden_dim=15, y_dim=2)
            rec = sweep_tau("rtrl", s, [30])[0]
            space_ok = space_ok and rec.peak_floats == rtrl_space_floats(s)
        elapsed = time.perf_counter() - t0
        verdict(
            4,
            linear_ok and bptt_ok and space_ok and elapsed < 120.0,
            f"linear-in-tau counters (R^2 trrl={r2['trrl']:.6f}, "
            f"rtrl={r2['rtrl']:.6f} >= 0.999), tree growth ratios "
            f"{[round(r, 3) for r in ratios]} in [1.4, 1.9], forward-Jacobian "
            f"peak floats = p*y*w exactly, {elapsed:.1f}s (< 120s)",
        )


class TestCriterion5GainFactor:
    def test_engine_cost_ratio_near_theory(self):
        t0 = time.perf_counter()
        records = sweep_neurons(
            engines=("trrl", "rtrl"),
            lag_sets=((1,), (1, 2), (1, 2, 24)),
            hidden_dims=(15,),
            tau=49,
        )
        rows = gain_factors(records)
        gain_ok = all(
            abs(row.gain_factor / row.theoretical - 1.0) <= 0.30 for row in rows
        )
        trrl_counts = [r.mac_count for r in records if r.engine == "trrl"]
        spread = max(trrl_counts) / min(trrl_counts)
        elapsed = time.perf_counter() - t0
        detail = ", ".join(
            f"p={len(row.lag_set)}: {row.gain_factor:.2f} vs {row.theoretical}"
            for row in rows
        )
        verdict(
            5,
            gain_ok and spread < 2.0 and elapsed < 120.0,
            f"cost ratio within +/-30% of p*y^2 ({detail}); recombined-sweep "
            f"spread across lag sets {spread:.2f}x < 2x, {elapsed:.1f}s (< 120s)",
        )


@pytest.fixture(scope="module")
def synthetic_e2e():
    """Shared five-year synthetic pipeline run for criteria 6 and 7."""
    t0 = time.perf_counter()
    config = SynthConfig(years=5, noise_sigma=0.025)
    series, truth = synth_generate(config, Rng(2024))
    train_start, train_end = datetime(2007, 1, 1), datetime(2011, 1, 1)
    test_start, test_end = datetime(2011, 1, 1), datetime(2012, 1, 1)
    i0, i1 = series.index_range(test_start, test_end)

    reports = {}
    for lags, epochs in (((1,), 30), ((1, 2, 24), 60)):
        pipe = LoadForecastPipeline(
            lags=lags,
            hidden_dim=8,
            loss="gaussian_nll",
            engine="trrl",
            learning_rate=4e-3,
            batch_size=32,
            max_epochs=epochs,
            patience=10,
            tau=49,
            train_stride=25,
            seed=3,
        )
        pipe.fit(series, train_start, train_end)
        forecasts = pipe.forecast_range(series, test_start, test_end)
        reports[lags] = pipe.evaluate(forecasts, series)
    return {
        "irreducible_mape": truth.irreducible_mape(series, i0, i1),
        "reports": reports,
        "elapsed": time.perf_counter() - t0,
    }


class TestCriterion6EndToEndForecasting:
    def test_full_pipeline_accuracy_and_ablation(self, synthetic_e2e):
        multi = synthetic_e2e["reports"][(1, 2, 24)]
        single = synthetic_e2e["reports"][(1,)]
        irr = synthetic_e2e["irreducible_mape"]
        elapsed = synthetic_e2e["elapsed"]
        mape_ok = multi.mape_pct <= 2.0 * irr
        ablation_ok = multi.rmse_mwh < single.rmse_mwh
        verdict(
            6,
            mape_ok and ablation_ok and elapsed < 600.0,
            f"lag-{{1,2,24}} MAPE {multi.mape_pct:.2f}% <= 2x irreducible "
            f"{irr:.2f}%; RMSE {multi.rmse_mwh:.1f} < lag-{{1}} "
            f"{single.rmse_mwh:.1f} MWh, {elapsed:.0f}s (< 600s)",
        )


class TestCriterion7ProbabilisticCalibration:
    def test_central_interval_coverage(self, synthetic_e2e):
        coverage = synthetic_e2e["reports"][(1, 2, 24)].coverage
        cov95 = coverage[0.95]
        levels = sorted(coverage)
        values = [coverage[a] for a in levels]
        monotone = all(b >= a for a, b in zip(values, values[1:]))
        verdict(
            7,
            0.92 <= cov95 <= 0.98 and monotone,
            f"95% central-interval coverage {cov95:.4f} in [0.92, 0.98]; "
            f"coverage monotone over alpha 0.90..0.99",
        )


class TestCriterion8DeseasonalizationExactness:
    def test_per_hour_residual_means_vanish(self):
        worst = 0.0
        for seed, years, noise in ((31, 1, 0.02), (32, 2, 0.05), (33, 1, 0.0)):
            series, _ = synth_generate(
                SynthConfig(years=years, noise_sigma=noise, ar1=0.3, ar24=0.2),
                Rng(seed),
            )
            model = HourlyDeseasonalizer().fit(series)
            nrs = model.transform(series)
            sums = {h: [0.0, 0] for h in range(24)}
            for ts, r in zip(nrs.timestamps, nrs.residuals):
                sums[ts.hour][0] += r
                sums[ts.hour][1] += 1
            for total, count in sums.values():
                worst = max(worst, abs(total / count))
        verdict(
            8,
            worst <= 1e-10,
            f"per-hour in-sample OLS residual mean <= 1e-10 across three "
            f"generated datasets (worst {worst:.2e})",
        )


class TestCriterion9PaperScaleHarness:
    def test_walk_forward_layout_runs_at_desk_scale(self):
        """Reproducing the published table values needs the proprietary
        hourly dataset and cluster-scale training, so accuracy there is
        reported, never asserted.  What is asserted: the rolling-window
        harness (fixed-length training window, first split for validation,
        yearly rolls) runs end to end and emits per-(lag set, year) metric
        rows of the published tables' shape."""
        series, _ = synth_generate(SynthConfig(years=3), Rng(77))
        plan = build_walk_forward_plan(2007, 1, 2)
        rows = run_walk_forward(
            series,
            plan,
            lag_sets=[(1,)],
            grid=HyperGrid(
                hidden_dims=(3,), learning_rates=(5e-3,), batch_sizes=(32,)
            ),
            pipeline_kwargs=dict(
                loss="gaussian_nll", max_epochs=2, patience=5, tau=12, seed=9
            ),
            train_stride=97,
        )
        ok = (
            [(r.lag_set, r.test_year) for r in rows] == [((1,), 2008), ((1,), 2009)]
            and all(math.isfinite(r.report.mape_pct) for r in rows)
            and all(r.report.apl_mwh is not None for r in rows)
        )
        verdict(
            9,
            ok,
            "walk-forward harness reproduces the rolling train/validate/test "
            "layout on synthetic data; dataset-scale accuracy reported, not "
            "asserted",
        )
