"""Scikit-learn-style regressor over many-to-one sequence windows."""

from __future__ import annotations

import math

from .base import BaseEstimator, check_fitted
from .linalg import Rng
from .model import forward_steps, init_params, project_inputs, RnnSpec
from .training import LossHead, TrainConfig, TrainingWindow, train


def _as_windows(X, y) -> list:
    """Validate (X, y) into training windows.

    X is a sequence of windows, each a rectangular list of equally sized
    feature rows; y holds one finite target per window.
    """
    if len(X) == 0:
        raise ValueError("X is empty")
    if len(X) != len(y):
        raise ValueError(f"X has {len(X)} windows but y has {len(y)} targets")
    x_dim = len(X[0][0])
    tau = len(X[0])
    windows = []
    for wi, (xs, target) in enumerate(zip(X, y)):
        if len(xs) != tau:
            raise ValueError(f"window {wi} has length {len(xs)}, expected {tau}")
        for row in xs:
            if len(row) != x_dim:
                raise ValueError(f"window {wi} has a row of width {len(row)}")
            for v in row:
                if not math.isfinite(v):
                    raise ValueError(f"window {wi} contains a non-finite input")
        t = float(target)
        if not math.isfinite(t):
            raise ValueError(f"target {wi} is not finite")
        windows.append(TrainingWindow(xs=xs, target=t))
    return windows


def _check_lag_reach(lags: tuple, tau: int) -> None:
    """Reject a lag of tau or more: it reaches before the start of every
    window of length tau, so its feedback is always zero and its weights
    would never train."""
    if max(lags, default=0) >= tau >= 1:
        raise ValueError(
            f"the largest lag {max(lags)} does not fit in a window of "
            f"tau={tau}: use a lag below tau or a longer tau"
        )


class RnnForecaster(BaseEstimator):
    """Recurrent regressor: fit on windows, predict the final-step value.

    ``loss="mse"`` trains a scalar point head; ``loss="gaussian_nll"``
    trains a two-output head predicting mean and standard deviation, in
    which case ``predict`` returns the mean and ``predict_dist`` the
    (mean, sigma) pairs.
    """

    def __init__(
        self,
        lags: tuple = (1,),
        hidden_dim: int = 10,
        loss: str = "mse",
        engine: str = "trrl",
        learning_rate: float = 1e-3,
        batch_size: int = 32,
        max_epochs: int = 500,
        patience: int = 100,
        seed: int = 0,
    ) -> None:
        self.lags = lags
        self.hidden_dim = hidden_dim
        self.loss = loss
        self.engine = engine
        self.learning_rate = learning_rate
        self.batch_size = batch_size
        self.max_epochs = max_epochs
        self.patience = patience
        self.seed = seed

    def _training_setup(self, x_dim: int) -> tuple:
        """(head, spec, config) that ``fit`` trains with on x_dim-wide inputs."""
        head = LossHead(kind=self.loss)
        spec = RnnSpec(
            lag_set=tuple(self.lags),
            x_dim=x_dim,
            hidden_dim=self.hidden_dim,
            y_dim=head.y_dim,
        )
        config = TrainConfig(
            learning_rate=self.learning_rate,
            batch_size=self.batch_size,
            max_epochs=self.max_epochs,
            patience=self.patience,
            seed=self.seed,
        )
        return head, spec, config

    def fit(self, X, y, validation: tuple | None = None) -> "RnnForecaster":
        windows = _as_windows(X, y)
        _check_lag_reach(self.lags, len(windows[0].xs))
        val_windows = _as_windows(*validation) if validation is not None else None
        return self._fit_windows(windows, val_windows)

    def _fit_windows(
        self, windows: list, val_windows: list | None
    ) -> "RnnForecaster":
        """Train on ``TrainingWindow`` lists whose inputs are already checked."""
        head, spec, config = self._training_setup(len(windows[0].xs[0]))
        params = init_params(spec, Rng(self.seed))
        self.head_ = head
        self.spec_ = spec
        self.params_, self.history_ = train(
            params, spec, windows, self.engine, head, config, val_windows
        )
        return self

    def predict_output(self, xs, projected: bool = False) -> list:
        """Raw final output vector for one window.

        ``xs`` holds the window's input rows, or with ``projected=True``
        their ``project_inputs`` rows under the fitted parameters.
        """
        check_fitted(self, ["params_"])
        if not xs:
            raise ValueError("empty input sequence")
        rows = xs if projected else project_inputs(self.params_, self.spec_, xs)
        for _, y in forward_steps(self.params_, self.spec_, rows):
            pass
        return y

    def predict(self, X) -> list:
        """Predicted mean of the final-step target, one value per window."""
        check_fitted(self, ["params_"])
        return [self.head_.mean_and_sigma(self.predict_output(xs))[0] for xs in X]

    def predict_dist(self, X) -> list:
        """(mean, sigma) pairs; sigma is None under the point head."""
        check_fitted(self, ["params_"])
        return [self.head_.mean_and_sigma(self.predict_output(xs)) for xs in X]
