"""Loss heads, Adam, the mini-batch training loop, and grid search.

The loss is evaluated only at the final output of each window
(many-to-one), so a training example is a (sequence of input vectors,
scalar target) pair.  Two heads are provided: squared error on a single
output, and a Gaussian negative log-likelihood where the network predicts
a mean and a standard deviation.  Since the output layer is affine, the
second output is mapped through softplus plus a small floor to keep the
standard deviation positive; the raw (pre-softplus) outputs are what the
recurrent feedbacks carry.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

from .base import ConfigError, NumericError
from .engines import ENGINES
from .linalg import Rng
from .model import (
    FlatParams,
    ModelParams,
    RnnSpec,
    forward_sequence,
    init_params,
    pack,
    sigmoid,
    unpack,
)

LOG_2PI = math.log(2.0 * math.pi)

# Adam moment decay rates and denominator guard (Kingma & Ba defaults).
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# Added to softplus(raw) so the Gaussian head's sigma stays positive.
SIGMA_FLOOR = 1e-4


def softplus(x: float) -> float:
    if x > 30.0:
        return x
    return math.log1p(math.exp(x))


def mse_loss(y_hat: list, target: float) -> tuple:
    """Squared error on a one-dimensional output: ((yhat - r)^2, gradient)."""
    if len(y_hat) != 1:
        raise ValueError(f"mse head needs y_dim=1, got output of length {len(y_hat)}")
    err = y_hat[0] - target
    return err * err, [2.0 * err]


def gaussian_nll_loss(y_hat: list, target: float) -> tuple:
    """Gaussian negative log-likelihood with a softplus-positive sigma.

    mu = yhat[0], sigma = softplus(yhat[1]) + SIGMA_FLOOR,
    loss = 0.5 log(2 pi sigma^2) + (r - mu)^2 / (2 sigma^2).
    """
    if len(y_hat) != 2:
        raise ValueError(
            f"gaussian head needs y_dim=2, got output of length {len(y_hat)}"
        )
    mu, raw = y_hat[0], y_hat[1]
    sigma = softplus(raw) + SIGMA_FLOOR
    z = (target - mu) / sigma
    loss = 0.5 * (LOG_2PI + 2.0 * math.log(sigma)) + 0.5 * z * z
    d_mu = (mu - target) / (sigma * sigma)
    d_sigma = 1.0 / sigma - (target - mu) * (target - mu) / (sigma * sigma * sigma)
    # d softplus / dx is the logistic function.
    return loss, [d_mu, d_sigma * sigmoid(raw)]


@dataclass(frozen=True)
class LossHead:
    """Selects the training objective and knows its output-vector layout."""

    kind: str  # "mse" or "gaussian_nll"

    def __post_init__(self) -> None:
        if self.kind not in ("mse", "gaussian_nll"):
            raise ConfigError(f"unknown loss head {self.kind!r}")

    @property
    def y_dim(self) -> int:
        return 1 if self.kind == "mse" else 2

    def check_spec(self, spec: RnnSpec) -> None:
        if spec.y_dim != self.y_dim:
            raise ConfigError(
                f"{self.kind} head needs y_dim={self.y_dim}, spec has {spec.y_dim}"
            )

    def bind(self, target: float):
        """Close over a target; engines call the result on the final output."""
        if self.kind == "mse":
            return lambda y_hat: mse_loss(y_hat, target)
        return lambda y_hat: gaussian_nll_loss(y_hat, target)

    def mean_and_sigma(self, y_hat: list) -> tuple:
        """Predicted (mean, sigma); sigma is None for the point head."""
        if self.kind == "mse":
            return y_hat[0], None
        return y_hat[0], softplus(y_hat[1]) + SIGMA_FLOOR


@dataclass
class AdamState:
    """First/second moment estimates over the packed parameter vector."""

    m: list
    v: list
    step: int = 0

    @classmethod
    def zeros(cls, n: int) -> "AdamState":
        return cls(m=[0.0] * n, v=[0.0] * n)


def adam_step(
    values: list, grads: list, state: AdamState, learning_rate: float
) -> None:
    """One bias-corrected Adam update, in place on ``values``."""
    if len(values) != len(grads) or len(values) != len(state.m):
        raise ValueError("adam_step length mismatch")
    for g in grads:
        if not math.isfinite(g):
            raise NumericError("non-finite gradient passed to Adam")
    state.step += 1
    t = state.step
    bc1 = 1.0 - ADAM_BETA1 ** t
    bc2 = 1.0 - ADAM_BETA2 ** t
    m, v = state.m, state.v
    for i in range(len(values)):
        g = grads[i]
        m[i] = ADAM_BETA1 * m[i] + (1.0 - ADAM_BETA1) * g
        v[i] = ADAM_BETA2 * v[i] + (1.0 - ADAM_BETA2) * g * g
        values[i] -= (
            learning_rate * (m[i] / bc1) / (math.sqrt(v[i] / bc2) + ADAM_EPS)
        )


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-3
    batch_size: int = 32
    max_epochs: int = 500
    patience: int = 100
    seed: int = 0

    def __post_init__(self) -> None:
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be positive")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.max_epochs < 1:
            raise ConfigError("max_epochs must be >= 1")
        if self.patience < 1:
            raise ConfigError("patience must be >= 1")


@dataclass(frozen=True)
class TrainingWindow:
    """One many-to-one example: input vectors and the final-step target."""

    xs: list
    target: float


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    val_loss: float | None
    seconds: float


def evaluate_loss(
    params: ModelParams, spec: RnnSpec, windows: list, head: LossHead
) -> float:
    """Mean head loss over windows at fixed parameters."""
    if not windows:
        raise ValueError("no windows to evaluate")
    total = 0.0
    for w in windows:
        y_final = forward_sequence(params, spec, w.xs).y_final
        value, _ = head.bind(w.target)(y_final)
        total += value
    return total / len(windows)


def train(
    params: ModelParams,
    spec: RnnSpec,
    windows: list,
    engine: str,
    head: LossHead,
    config: TrainConfig,
    val_windows: list | None = None,
) -> tuple:
    """Mini-batch training with early stopping on the monitored loss.

    One epoch is a full shuffled pass over the windows; per batch the
    per-sequence gradients are summed in index order, averaged, and fed to
    Adam.  The monitored loss is the validation loss when validation
    windows are given, otherwise the epoch's mean training loss.  Stops
    once the monitored loss has not improved for ``patience`` consecutive
    epochs and returns the best parameters seen, not the last.
    """
    if engine not in ENGINES:
        raise ConfigError(f"unknown engine {engine!r}; choose from {sorted(ENGINES)}")
    if not windows:
        raise ValueError("no training windows")
    head.check_spec(spec)

    flat = pack(params, spec)
    values = list(flat.theta) + list(flat.phi)
    n_theta = spec.theta_size
    adam = AdamState.zeros(len(values))
    rng = Rng(config.seed)

    def params_of(vec: list) -> ModelParams:
        return unpack(FlatParams(theta=vec[:n_theta], phi=vec[n_theta:]), spec)

    live = params_of(values)
    best_monitored = math.inf
    best_values = list(values)
    bad_epochs = 0
    history: list = []

    for epoch in range(1, config.max_epochs + 1):
        t0 = time.perf_counter()
        order = list(range(len(windows)))
        rng.shuffle(order)
        epoch_loss = 0.0
        for start in range(0, len(order), config.batch_size):
            batch = order[start : start + config.batch_size]
            g_sum = [0.0] * len(values)
            for idx in batch:
                w = windows[idx]
                # GradientPair first; bptt additionally returns macronodes.
                pair = ENGINES[engine](live, spec, w.xs, head.bind(w.target))[0]
                if not math.isfinite(pair.loss):
                    raise NumericError(
                        f"non-finite loss at epoch {epoch}, window {idx}"
                    )
                epoch_loss += pair.loss
                for i, g in enumerate(pair.d_theta):
                    g_sum[i] += g
                for i, g in enumerate(pair.d_phi):
                    g_sum[n_theta + i] += g
            inv = 1.0 / len(batch)
            grads = [g * inv for g in g_sum]
            adam_step(values, grads, adam, config.learning_rate)
            live = params_of(values)

        train_loss = epoch_loss / len(windows)
        val_loss = (
            evaluate_loss(live, spec, val_windows, head) if val_windows else None
        )
        monitored = val_loss if val_loss is not None else train_loss
        history.append(
            EpochStats(
                epoch=epoch,
                train_loss=train_loss,
                val_loss=val_loss,
                seconds=time.perf_counter() - t0,
            )
        )
        if monitored < best_monitored:
            best_monitored = monitored
            best_values = list(values)
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs >= config.patience:
                break

    return params_of(best_values), history


@dataclass(frozen=True)
class HyperGrid:
    """Cross product of candidate hyperparameters."""

    hidden_dims: tuple = (5, 10, 15)
    learning_rates: tuple = (1e-4, 5e-4, 1e-3)
    batch_sizes: tuple = (32, 64)

    def cells(self) -> list:
        return [
            (hd, lr, bs)
            for hd in self.hidden_dims
            for lr in self.learning_rates
            for bs in self.batch_sizes
        ]


@dataclass
class GridCell:
    hidden_dim: int
    learning_rate: float
    batch_size: int
    val_loss: float
    epochs_run: int
    seconds: float
    error: str | None = None


def grid_search(
    base_spec: RnnSpec,
    windows: list,
    val_windows: list,
    head: LossHead,
    engine: str,
    grid: HyperGrid,
    base_config: TrainConfig,
) -> list:
    """Train every grid cell and rank by validation loss.

    A cell scores the best validation loss in its training history, which
    is the loss of the parameters ``train`` returns.  A failed cell is
    recorded with its error message and sorted last instead of aborting
    the whole search.
    """
    if not grid.cells():
        raise ValueError("empty hyperparameter grid")
    if not val_windows:
        raise ValueError("grid search needs validation windows")
    report: list = []
    for cell_idx, (hd, lr, bs) in enumerate(grid.cells()):
        spec = replace(base_spec, hidden_dim=hd)
        config = replace(base_config, learning_rate=lr, batch_size=bs)
        t0 = time.perf_counter()
        val_loss, epochs_run, error = math.inf, 0, None
        try:
            params = init_params(spec, Rng(base_config.seed).spawn(cell_idx))
            _, history = train(params, spec, windows, engine, head, config, val_windows)
            val_loss = min(epoch.val_loss for epoch in history)
            epochs_run = len(history)
        except (NumericError, ValueError) as exc:
            error = str(exc)
        report.append(
            GridCell(
                hidden_dim=hd,
                learning_rate=lr,
                batch_size=bs,
                val_loss=val_loss,
                epochs_run=epochs_run,
                seconds=time.perf_counter() - t0,
                error=error,
            )
        )
    report.sort(key=lambda cell: (cell.val_loss, cell.hidden_dim))
    return report
