"""Loss heads, Adam, the training loop, and grid search."""

import math

import pytest

from rnnp.base import ConfigError, NumericError
from rnnp.linalg import Matrix, Rng
from rnnp.model import ModelParams, RnnSpec, init_params, pack
from rnnp.training import (
    SIGMA_FLOOR,
    AdamState,
    HyperGrid,
    LossHead,
    TrainConfig,
    TrainingWindow,
    adam_step,
    evaluate_loss,
    gaussian_nll_loss,
    grid_search,
    mse_loss,
    softplus,
    train,
)


def zero_params(spec):
    return ModelParams(
        U=Matrix.zeros(spec.hidden_dim, spec.x_dim),
        W=[Matrix.zeros(spec.hidden_dim, spec.y_dim) for _ in spec.lag_set],
        b=[0.0] * spec.hidden_dim,
        V=Matrix.zeros(spec.y_dim, spec.hidden_dim),
        c=[0.0] * spec.y_dim,
    )


class TestMseLoss:
    def test_perfect_fit(self):
        assert mse_loss([0.7], 0.7) == (0.0, [0.0])

    def test_unit_case(self):
        assert mse_loss([1.0], 0.0) == (1.0, [2.0])

    def test_gradient_matches_finite_differences(self):
        rng = Rng(1)
        for _ in range(30):
            y = rng.uniform(-3, 3, 1)
            r = rng.uniform(-3, 3, 1)[0]
            _, grad = mse_loss(y, r)
            # The loss is quadratic, so central differences are exact up to
            # roundoff; a wider step keeps the cancellation error tiny.
            eps = 1e-4
            fd = (mse_loss([y[0] + eps], r)[0] - mse_loss([y[0] - eps], r)[0]) / (
                2 * eps
            )
            assert abs(grad[0] - fd) < 1e-9

    def test_needs_scalar_output(self):
        with pytest.raises(ValueError):
            mse_loss([1.0, 2.0], 0.0)


class TestGaussianNllLoss:
    def test_standardized_residual_zero(self):
        raw = math.log(math.exp(1.0 - SIGMA_FLOOR) - 1.0)  # sigma = 1
        loss, grad = gaussian_nll_loss([0.3, raw], 0.3)
        assert loss == pytest.approx(0.5 * math.log(2 * math.pi), rel=1e-12)
        assert grad[0] == pytest.approx(0.0, abs=1e-15)

    def test_mean_gradient_zero_at_target(self):
        _, grad = gaussian_nll_loss([1.5, 0.7], 1.5)
        assert grad[0] == 0.0

    def test_gradient_matches_finite_differences(self):
        rng = Rng(2)
        eps = 1e-6
        for _ in range(50):
            mu, raw = rng.uniform(-2, 2, 2)
            r = rng.uniform(-2, 2, 1)[0]
            _, grad = gaussian_nll_loss([mu, raw], r)
            for i, g in enumerate(grad):
                up = [mu, raw]
                dn = [mu, raw]
                up[i] += eps
                dn[i] -= eps
                fd = (
                    gaussian_nll_loss(up, r)[0] - gaussian_nll_loss(dn, r)[0]
                ) / (2 * eps)
                assert abs(g - fd) < 1e-7

    def test_sigma_floored_away_from_zero(self):
        loss, _ = gaussian_nll_loss([0.0, -50.0], 0.0)
        assert math.isfinite(loss)


class TestLossHead:
    def test_y_dim_enforcement(self):
        head = LossHead(kind="mse")
        spec = RnnSpec(lag_set=(1,), x_dim=1, hidden_dim=1, y_dim=2)
        with pytest.raises(ConfigError):
            head.check_spec(spec)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            LossHead(kind="huber")

    def test_mean_and_sigma(self):
        head = LossHead(kind="gaussian_nll")
        mu, sigma = head.mean_and_sigma([0.2, 0.0])
        assert mu == 0.2
        assert sigma == pytest.approx(softplus(0.0) + 1e-4)
        mu, sigma = LossHead(kind="mse").mean_and_sigma([0.9])
        assert (mu, sigma) == (0.9, None)


class TestAdam:
    def test_zero_gradient_is_fixed_point(self):
        values = [1.0, -2.0, 3.0]
        state = AdamState.zeros(3)
        for _ in range(25):
            adam_step(values, [0.0, 0.0, 0.0], state, 0.1)
        assert values == [1.0, -2.0, 3.0]

    def test_first_step_is_signed_learning_rate(self):
        values = [0.0, 0.0]
        state = AdamState.zeros(2)
        adam_step(values, [3.0, -0.004], state, 0.01)
        assert values[0] == pytest.approx(-0.01, rel=1e-6)
        assert values[1] == pytest.approx(0.01, rel=1e-3)

    def test_converges_on_quadratic(self):
        # Minimize (x - 2.5)^2 from x = 0.
        values = [0.0]
        state = AdamState.zeros(1)
        for _ in range(2000):
            grad = [2.0 * (values[0] - 2.5)]
            adam_step(values, grad, state, 1e-2)
        assert abs(values[0] - 2.5) < 1e-3

    def test_non_finite_gradient_rejected(self):
        with pytest.raises(NumericError):
            adam_step([0.0], [math.nan], AdamState.zeros(1), 0.1)


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ConfigError):
            TrainConfig(batch_size=0)
        with pytest.raises(ConfigError):
            TrainConfig(patience=0)


def ar1_windows(n, tau, rho=0.9, noise=0.3, seed=5):
    """Windows from an AR(1) path; inputs expose the lagged values."""
    rng = Rng(seed)
    total = n + tau + 1
    z = [0.0]
    eps = rng.normal(0.0, noise, total)
    for t in range(1, total):
        z.append(rho * z[t - 1] + eps[t])
    windows = []
    for end in range(tau, tau + n):
        xs = [[z[end - tau + i]] for i in range(tau)]
        windows.append(TrainingWindow(xs=xs, target=z[end]))
    return windows, z


class TestTrain:
    def test_degenerate_stopping_after_two_epochs(self):
        """At a stationary point the loss never improves: patience=1 stops at 2."""
        spec = RnnSpec(lag_set=(1,), x_dim=1, hidden_dim=2, y_dim=1)
        params = zero_params(spec)
        windows = [TrainingWindow(xs=[[0.5]] * 3, target=0.0) for _ in range(6)]
        config = TrainConfig(
            learning_rate=0.05, batch_size=3, max_epochs=50, patience=1, seed=0
        )
        _, history = train(params, spec, windows, "trrl", LossHead("mse"), config)
        assert len(history) == 2

    def test_seeded_run_reproducible(self):
        spec = RnnSpec(lag_set=(1,), x_dim=1, hidden_dim=3, y_dim=1)
        windows, _ = ar1_windows(24, 3)
        config = TrainConfig(
            learning_rate=5e-3, batch_size=8, max_epochs=4, patience=100, seed=3
        )
        runs = []
        for _ in range(2):
            params = init_params(spec, Rng(9))
            model, history = train(
                params, spec, windows, "trrl", LossHead("mse"), config
            )
            runs.append((pack(model, spec), [h.train_loss for h in history]))
        assert runs[0][0] == runs[1][0]
        assert runs[0][1] == runs[1][1]

    def test_trrl_and_rtrl_trajectories_match(self):
        spec = RnnSpec(lag_set=(1, 2), x_dim=1, hidden_dim=3, y_dim=1)
        windows, _ = ar1_windows(16, 4)
        config = TrainConfig(
            learning_rate=1e-2, batch_size=8, max_epochs=3, patience=100, seed=1
        )
        results = {}
        for engine in ("trrl", "rtrl"):
            params = init_params(spec, Rng(13))
            model, history = train(
                params, spec, windows, engine, LossHead("mse"), config
            )
            results[engine] = (pack(model, spec), [h.train_loss for h in history])
        for a, b in zip(results["trrl"][1], results["rtrl"][1]):
            assert abs(a - b) <= 1e-8 * (1.0 + abs(b))
        ta, tb = results["trrl"][0].theta, results["rtrl"][0].theta
        assert all(abs(x - y) <= 1e-8 * (1 + abs(y)) for x, y in zip(ta, tb))

    def test_learns_ar1_structure(self):
        """Trained model beats the raw target variance by at least half."""
        spec = RnnSpec(lag_set=(1,), x_dim=1, hidden_dim=4, y_dim=1)
        windows, z = ar1_windows(160, 3, rho=0.9, noise=0.3, seed=8)
        params = init_params(spec, Rng(21))
        config = TrainConfig(
            learning_rate=0.03, batch_size=32, max_epochs=80, patience=80, seed=2
        )
        model, _ = train(params, spec, windows, "trrl", LossHead("mse"), config)
        mse = evaluate_loss(model, spec, windows, LossHead("mse"))
        targets = [w.target for w in windows]
        mean = sum(targets) / len(targets)
        var = sum((t - mean) ** 2 for t in targets) / len(targets)
        assert mse < 0.5 * var

    def test_returns_best_parameters_not_last(self):
        """With a large learning rate the loss is not monotone; the returned
        parameters must achieve the best recorded validation loss."""
        spec = RnnSpec(lag_set=(1,), x_dim=1, hidden_dim=3, y_dim=1)
        windows, _ = ar1_windows(24, 3, seed=11)
        val_windows, _ = ar1_windows(12, 3, seed=12)
        params = init_params(spec, Rng(31))
        config = TrainConfig(
            learning_rate=0.5, batch_size=6, max_epochs=12, patience=100, seed=4
        )
        model, history = train(
            params, spec, windows, "trrl", LossHead("mse"), config, val_windows
        )
        best_recorded = min(h.val_loss for h in history)
        achieved = evaluate_loss(model, spec, val_windows, LossHead("mse"))
        assert achieved == best_recorded

    def test_engine_name_validated(self):
        spec = RnnSpec(lag_set=(1,), x_dim=1, hidden_dim=1, y_dim=1)
        windows = [TrainingWindow(xs=[[0.0]], target=0.0)]
        with pytest.raises(ConfigError):
            train(
                zero_params(spec),
                spec,
                windows,
                "sgd",
                LossHead("mse"),
                TrainConfig(),
            )


class TestGridSearch:
    def test_single_cell_equals_plain_train(self):
        spec = RnnSpec(lag_set=(1,), x_dim=1, hidden_dim=3, y_dim=1)
        windows, _ = ar1_windows(16, 3, seed=14)
        val, _ = ar1_windows(8, 3, seed=15)
        grid = HyperGrid(hidden_dims=(3,), learning_rates=(1e-2,), batch_sizes=(8,))
        config = TrainConfig(
            learning_rate=1e-2, batch_size=8, max_epochs=3, patience=100, seed=6
        )
        report = grid_search(spec, windows, val, LossHead("mse"), "trrl", grid, config)
        assert len(report) == 1
        params = init_params(spec, Rng(6).spawn(0))
        model, history = train(
            params, spec, windows, "trrl", LossHead("mse"), config, val
        )
        want = evaluate_loss(model, spec, val, LossHead("mse"))
        assert report[0].val_loss == want
        assert report[0].epochs_run == len(history)

    def test_failed_cell_recorded_and_sorted_last(self):
        """A learning rate of 1e200 overflows the pre-activations in the
        first epoch; the search records that cell and trains the next."""
        spec = RnnSpec(lag_set=(1,), x_dim=1, hidden_dim=3, y_dim=1)
        windows, _ = ar1_windows(16, 3, seed=14)
        val, _ = ar1_windows(8, 3, seed=15)
        grid = HyperGrid(
            hidden_dims=(3,), learning_rates=(1e200, 1e-2), batch_sizes=(8,)
        )
        config = TrainConfig(max_epochs=3, patience=100, seed=6)
        report = grid_search(spec, windows, val, LossHead("mse"), "trrl", grid, config)
        ok, failed = report
        assert (ok.learning_rate, ok.error, ok.epochs_run) == (1e-2, None, 3)
        assert math.isfinite(ok.val_loss)
        assert failed.learning_rate == 1e200
        assert "non-finite" in failed.error
        assert (failed.val_loss, failed.epochs_run) == (math.inf, 0)

    def test_full_grid_has_18_rows_sorted(self):
        spec = RnnSpec(lag_set=(1,), x_dim=1, hidden_dim=5, y_dim=1)
        windows, _ = ar1_windows(6, 2, seed=16)
        val, _ = ar1_windows(4, 2, seed=17)
        grid = HyperGrid()  # 3 hidden sizes x 3 rates x 2 batch sizes
        config = TrainConfig(max_epochs=1, patience=1, seed=7)
        report = grid_search(spec, windows, val, LossHead("mse"), "trrl", grid, config)
        assert len(report) == 18
        losses = [cell.val_loss for cell in report]
        assert losses == sorted(losses)
        assert all(cell.error is None for cell in report)
