"""Estimator-protocol behavior and window-regressor semantics."""

import math
from collections import deque

import pytest

import rnnp.forecaster
from rnnp.base import ConfigError, NotFittedError
from rnnp.forecaster import RnnForecaster
from rnnp.linalg import Rng
from rnnp.model import forward_sequence, project_inputs


def toy_data(n=30, tau=4, seed=2):
    """Windows whose final input row determines the target linearly."""
    rng = Rng(seed)
    X, y = [], []
    for _ in range(n):
        xs = [rng.uniform(-1, 1, 2) for _ in range(tau)]
        X.append(xs)
        y.append(0.6 * xs[-1][0] - 0.2 * xs[-1][1])
    return X, y


class TestEstimatorProtocol:
    def test_get_params_round_trip(self):
        est = RnnForecaster(lags=(1, 2), hidden_dim=7, learning_rate=0.05)
        params = est.get_params()
        clone = RnnForecaster(**params)
        assert clone.get_params() == params

    def test_set_params_chains_and_validates(self):
        est = RnnForecaster()
        assert est.set_params(hidden_dim=3) is est
        assert est.hidden_dim == 3
        with pytest.raises(ConfigError):
            est.set_params(bogus=1)

    def test_repr_mentions_params(self):
        text = repr(RnnForecaster(lags=(1, 2, 24)))
        assert "lags=(1, 2, 24)" in text

    def test_fit_returns_self_and_sets_state(self):
        X, y = toy_data(12, tau=3)
        est = RnnForecaster(hidden_dim=3, max_epochs=2, patience=10, seed=1)
        assert est.fit(X, y) is est
        assert est.spec_.x_dim == 2
        assert est.spec_.y_dim == 1
        assert len(est.history_) == 2

    def test_predict_before_fit_raises(self):
        with pytest.raises(NotFittedError):
            RnnForecaster().predict([[[0.0, 0.0]]])


class TestValidationHelpers:
    def test_ragged_window_rejected(self):
        est = RnnForecaster(max_epochs=1)
        with pytest.raises(ValueError, match="length"):
            est.fit([[[0.0], [0.0]], [[0.0]]], [0.0, 0.0])

    def test_ragged_row_rejected(self):
        est = RnnForecaster(max_epochs=1)
        with pytest.raises(ValueError, match="width"):
            est.fit([[[0.0, 1.0], [0.0]]], [0.0])

    def test_non_finite_rejected(self):
        est = RnnForecaster(max_epochs=1)
        with pytest.raises(ValueError, match="non-finite"):
            est.fit([[[math.inf, 0.0]]], [0.0])

    def test_target_mismatch(self):
        est = RnnForecaster(max_epochs=1)
        with pytest.raises(ValueError, match="targets"):
            est.fit([[[0.0]]], [0.0, 1.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            RnnForecaster().fit([], [])


    def test_lag_no_window_reaches_rejected_before_training(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the estimator trained")

        monkeypatch.setattr(rnnp.forecaster, "train", refuse)
        X, y = toy_data(6, tau=5)
        est = RnnForecaster(lags=(1, 24), hidden_dim=2, loss="mse", max_epochs=2)
        with pytest.raises(ValueError, match="lag 24 .*tau=5"):
            est.fit(X, y)
        assert not hasattr(est, "params_")


class TestPrediction:
    def test_learns_linear_read_out(self):
        X, y = toy_data(60, tau=3)
        est = RnnForecaster(
            hidden_dim=6, learning_rate=0.05, batch_size=16, max_epochs=120,
            patience=120, seed=4,
        ).fit(X, y)
        preds = est.predict(X)
        sse = sum((p - t) ** 2 for p, t in zip(preds, y))
        sst = sum(t**2 for t in y)
        assert sse / sst < 0.1

    def test_gaussian_head_predicts_pairs(self):
        X, y = toy_data(16, tau=3, seed=5)
        est = RnnForecaster(
            loss="gaussian_nll", hidden_dim=4, max_epochs=3, patience=10, seed=6
        ).fit(X, y)
        for mu, sigma in est.predict_dist(X[:5]):
            assert math.isfinite(mu)
            assert sigma > 0.0
        assert est.predict(X[:5]) == [m for m, _ in est.predict_dist(X[:5])]

    def test_point_head_sigma_is_none(self):
        X, y = toy_data(8, tau=2, seed=7)
        est = RnnForecaster(hidden_dim=3, max_epochs=2, patience=5, seed=8).fit(X, y)
        assert all(s is None for _, s in est.predict_dist(X[:3]))

    def test_validation_monitoring(self):
        X, y = toy_data(20, tau=3, seed=9)
        Xv, yv = toy_data(10, tau=3, seed=10)
        est = RnnForecaster(hidden_dim=3, max_epochs=4, patience=10, seed=11)
        est.fit(X, y, validation=(Xv, yv))
        assert all(h.val_loss is not None for h in est.history_)

    def test_predict_output_on_projected_rows(self):
        X, y = toy_data(8, tau=5, seed=12)
        est = RnnForecaster(lags=(1, 2), hidden_dim=3, max_epochs=1, seed=13)
        est.fit(X, y)
        for xs in X:
            want = forward_sequence(est.params_, est.spec_, xs).y_final
            rows = list(project_inputs(est.params_, est.spec_, xs))
            assert est.predict_output(deque(rows)) == want
            assert est.predict_output(row for row in rows) == want
        assert est.predict(X) == [mean for mean, _ in est.predict_dist(X)]
        with pytest.raises(ValueError, match="empty input sequence"):
            est.predict_output(deque())
