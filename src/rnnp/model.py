"""Shallow Jordan recurrent networks over an arbitrary lag set.

The model maps an input sequence {x(1..t)} to outputs through

    a(t) = b + U x(t) + sum_l W_l yhat(t - l)      for l in the lag set
    h(t) = sigmoid(a(t))
    yhat(t) = c + V h(t)

with yhat(s) = 0 for s <= 0.  Feedbacks are the model's own previous
outputs, so a sequence is processed closed-loop from a zero start.  The
lag set need not be contiguous: {1, 2, 24} wires hourly and daily
feedbacks directly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .base import (
    NUMBER,
    DataValidationError,
    NumericError,
    atomic_write,
    checkpoint_field,
)
from .linalg import Matrix, Rng

CHECKPOINT_MAGIC = "RNNP1"


@dataclass(frozen=True)
class RnnSpec:
    """Architecture description: lag set and layer widths."""

    lag_set: tuple
    x_dim: int
    hidden_dim: int
    y_dim: int

    def __post_init__(self) -> None:
        lags = tuple(int(l) for l in self.lag_set)
        object.__setattr__(self, "lag_set", lags)
        if not lags:
            raise ValueError("lag set must contain at least one lag")
        if any(l < 1 for l in lags):
            raise ValueError(f"lags must be >= 1, got {lags}")
        if any(b <= a for a, b in zip(lags, lags[1:])):
            raise ValueError(f"lag set must be strictly increasing, got {lags}")
        for name in ("x_dim", "hidden_dim", "y_dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")

    @property
    def p(self) -> int:
        return len(self.lag_set)

    @property
    def max_lag(self) -> int:
        return self.lag_set[-1]

    @property
    def theta_size(self) -> int:
        """Input-to-hidden parameter count: (x + p*y + 1) * h."""
        return (self.x_dim + self.p * self.y_dim + 1) * self.hidden_dim

    @property
    def phi_size(self) -> int:
        """Hidden-to-output parameter count: (h + 1) * y."""
        return (self.hidden_dim + 1) * self.y_dim

    @property
    def weight_count(self) -> int:
        return self.theta_size + self.phi_size

    def to_dict(self) -> dict:
        return {
            "lag_set": list(self.lag_set),
            "x_dim": self.x_dim,
            "hidden_dim": self.hidden_dim,
            "y_dim": self.y_dim,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "RnnSpec":
        # Older checkpoints name the hidden activation; sigmoid is the only one.
        activation = d.get("hidden_activation", "sigmoid")
        if activation != "sigmoid":
            raise ValueError(f"unsupported hidden activation {activation!r}")
        return cls(
            lag_set=tuple(d["lag_set"]),
            x_dim=d["x_dim"],
            hidden_dim=d["hidden_dim"],
            y_dim=d["y_dim"],
        )


@dataclass
class ModelParams:
    """Trainable parameters: U (h x x), W_l (h x y) per lag, b, V (y x h), c."""

    U: Matrix
    W: list
    b: list
    V: Matrix
    c: list

    def validate(self, spec: RnnSpec) -> None:
        h, x, y = spec.hidden_dim, spec.x_dim, spec.y_dim
        if (self.U.rows, self.U.cols) != (h, x):
            raise ValueError(f"U is {self.U.rows}x{self.U.cols}, expected {h}x{x}")
        if len(self.W) != spec.p:
            raise ValueError(f"expected {spec.p} lag matrices, got {len(self.W)}")
        for i, w in enumerate(self.W):
            if (w.rows, w.cols) != (h, y):
                raise ValueError(
                    f"W[{i}] is {w.rows}x{w.cols}, expected {h}x{y}"
                )
        if len(self.b) != h:
            raise ValueError(f"b has length {len(self.b)}, expected {h}")
        if (self.V.rows, self.V.cols) != (y, h):
            raise ValueError(f"V is {self.V.rows}x{self.V.cols}, expected {y}x{h}")
        if len(self.c) != y:
            raise ValueError(f"c has length {len(self.c)}, expected {y}")


@dataclass(frozen=True)
class FlatParams:
    """Packed parameter vectors.

    theta packs U row-major, then each W_l row-major in lag-set order,
    then b; phi packs V row-major then c.  The flat index of U[0][0] is 0.
    """

    theta: list
    phi: list


def theta_offsets(spec: RnnSpec) -> tuple:
    """(u_offset, [w_offset per lag], b_offset) into the theta vector."""
    h, x, y = spec.hidden_dim, spec.x_dim, spec.y_dim
    u_off = 0
    w_offs = [h * x + i * h * y for i in range(spec.p)]
    b_off = h * x + spec.p * h * y
    return u_off, w_offs, b_off


def phi_offsets(spec: RnnSpec) -> tuple:
    """(v_offset, c_offset) into the phi vector."""
    return 0, spec.y_dim * spec.hidden_dim


def pack(params: ModelParams, spec: RnnSpec) -> FlatParams:
    params.validate(spec)
    theta: list = []
    theta.extend(params.U.data)
    for w in params.W:
        theta.extend(w.data)
    theta.extend(params.b)
    phi: list = []
    phi.extend(params.V.data)
    phi.extend(params.c)
    return FlatParams(theta=theta, phi=phi)


def unpack(flat: FlatParams, spec: RnnSpec) -> ModelParams:
    h, x, y = spec.hidden_dim, spec.x_dim, spec.y_dim
    if len(flat.theta) != spec.theta_size:
        raise ValueError(
            f"theta has length {len(flat.theta)}, expected {spec.theta_size}"
        )
    if len(flat.phi) != spec.phi_size:
        raise ValueError(f"phi has length {len(flat.phi)}, expected {spec.phi_size}")
    _, w_offs, b_off = theta_offsets(spec)
    U = Matrix(h, x, list(flat.theta[0 : h * x]))
    W = [
        Matrix(h, y, list(flat.theta[off : off + h * y])) for off in w_offs
    ]
    b = list(flat.theta[b_off : b_off + h])
    v_off, c_off = phi_offsets(spec)
    V = Matrix(y, h, list(flat.phi[v_off : v_off + y * h]))
    c = list(flat.phi[c_off : c_off + y])
    return ModelParams(U=U, W=W, b=b, V=V, c=c)


def init_params(spec: RnnSpec, rng: Rng) -> ModelParams:
    """Glorot-uniform weights, zero biases.

    Each matrix is drawn U[-r, r] with r = sqrt(6 / (fan_in + fan_out)),
    which keeps sigmoid pre-activations in their responsive range.
    """
    h, x, y = spec.hidden_dim, spec.x_dim, spec.y_dim

    def draw(rows: int, cols: int, fan_in: int, fan_out: int) -> Matrix:
        r = math.sqrt(6.0 / (fan_in + fan_out))
        return Matrix(rows, cols, rng.uniform(-r, r, rows * cols))

    return ModelParams(
        U=draw(h, x, x, h),
        W=[draw(h, y, y, h) for _ in spec.lag_set],
        b=[0.0] * h,
        V=draw(y, h, h, y),
        c=[0.0] * y,
    )


def sigmoid(a: float) -> float:
    if a >= 0.0:
        return 1.0 / (1.0 + math.exp(-a))
    e = math.exp(a)
    return e / (1.0 + e)


def check_finite_step(vec: list, what: str, step: int) -> None:
    if not all(map(math.isfinite, vec)):
        raise NumericError(f"non-finite {what} at step {step}")


@dataclass
class ForwardTrace:
    """Per-step activations of one processed sequence (1-based step t),
    and the ``nonzero_rows`` of its inputs, which the gradient engines
    read instead of finding them again."""

    h_steps: list = field(default_factory=list)
    y_steps: list = field(default_factory=list)
    x_nz: list = field(default_factory=list)

    @property
    def y_final(self) -> list:
        return self.y_steps[-1]


def nonzero_rows(spec: RnnSpec, xs):
    """Yields, for each input row of ``xs``, the ``(column, value)`` pairs
    of its entries that are not 0.0 (nor -0.0), in increasing column
    order.  A row whose length is not ``x_dim`` raises ``ValueError``."""
    x_dim = spec.x_dim
    for x_t in xs:
        if len(x_t) != x_dim:
            raise ValueError(f"input has length {len(x_t)}, expected {x_dim}")
        yield [(c, v) for c, v in enumerate(x_t) if v != 0.0]


def project_inputs(params: ModelParams, spec: RnnSpec, xs):
    """Projection stage: yields ``U x(t) + b`` for each input row of ``xs``.

    Each yielded list holds, per hidden row r, ``(sum_c U[r,c] x_c) + b_r``
    with the sum from 0.0 over increasing column index.  A projection
    depends on the parameters and its own input row alone, so a caller
    whose parameters are fixed can project each row once and pass the
    result to every window that contains it (see ``forward_steps``).
    Rows are projected as they are pulled, so ``xs`` may be any iterable.
    It is ``project_nonzero`` over the rows' ``nonzero_rows``.
    """
    return project_nonzero(params, spec, nonzero_rows(spec, xs))


def project_nonzero(params: ModelParams, spec: RnnSpec, x_nz):
    """``project_inputs`` of rows given as their ``nonzero_rows``; the only
    forward code that reads ``U`` and ``b``.

    The sum runs over the row's nonzero entries alone: calendar rows are
    about half exact zeros.  That skip changes no bit.  A sum that starts
    at +0.0 is never -0.0 in round-to-nearest, so adding a +0.0 or -0.0
    product leaves it as it is, and ``U`` is finite, so a skipped product
    is never NaN.  The gradient engines skip the same products on the same
    argument.
    """
    x_dim = spec.x_dim
    u = params.U.data
    # Per hidden row: its U row and its bias.
    rows = [
        (u[r * x_dim : (r + 1) * x_dim], params.b[r]) for r in range(spec.hidden_dim)
    ]
    for nz in x_nz:
        a = []
        for u_r, b_r in rows:
            acc = 0.0
            for c, xc in nz:
                acc += u_r[c] * xc
            a.append(acc + b_r)
        yield a


def forward_steps(params: ModelParams, spec: RnnSpec, rows):
    """Recurrence stage: closed-loop steps over projected rows.

    ``rows`` holds ``project_inputs`` rows made under the same parameters,
    one per step; each ``(h, yhat)`` pair is yielded as it is computed.
    This is the only forward recurrence; every engine and every forecast
    runs it.  Each sum has one fixed order, so all callers get the same
    bits:

        a_r    = ((sum_c U[r,c] x_c) + b_r) + (W_l1 yhat(t-l1))_r + ...
        yhat_k = (sum_j V[k,j] h_j) + c_k

    where every matrix-row sum starts from 0.0 and runs over increasing
    column index, and each lag term is its own row sum, added in lag-set
    order.  A lag reaching before the window start is skipped: its
    feedback is the zero vector, and adding its +0.0 row sum cannot change
    a pre-activation, which is never -0.0.  A non-finite pre-activation or
    output raises ``NumericError`` naming the 1-based step.

    A row is never mutated: when lag terms apply, the step's pre-activation
    is a new list; when none do, the row is used as it is.  A caller with
    fixed parameters can therefore share one projection between all the
    windows that contain its hour, as ``forecast_range`` does.
    """
    h_dim, y_dim = spec.hidden_dim, spec.y_dim
    v = params.V.data
    # Per hidden row, its row of each W_l.
    w_rows = [
        [w.data[r * y_dim : (r + 1) * y_dim] for w in params.W] for r in range(h_dim)
    ]
    v_rows = [(v[k * h_dim : (k + 1) * h_dim], params.c[k]) for k in range(y_dim)]
    h_cols, y_cols = range(h_dim), range(y_dim)
    lags = spec.lag_set
    ys: list = []
    for t, a in enumerate(rows, 1):
        if len(a) != h_dim:
            raise ValueError(f"projected input has length {len(a)}, expected {h_dim}")
        # Lags increase, so those reaching inside the window are a prefix
        # of the lag set, and zip() pairs each with its W_l row.
        feedbacks = [ys[t - 1 - lag] for lag in lags if lag < t]
        if feedbacks:
            pre = []
            for acc, w_r in zip(a, w_rows):
                for w_rl, fb in zip(w_r, feedbacks):
                    wf = 0.0
                    for k in y_cols:
                        wf += w_rl[k] * fb[k]
                    acc += wf
                pre.append(acc)
            a = pre
        check_finite_step(a, "pre-activation", t)
        h = [sigmoid(a_r) for a_r in a]
        y = []
        for v_k, c_k in v_rows:
            acc = 0.0
            for j in h_cols:
                acc += v_k[j] * h[j]
            y.append(acc + c_k)
        check_finite_step(y, "output", t)
        ys.append(y)
        yield h, y


def forward_sequence(params: ModelParams, spec: RnnSpec, xs) -> ForwardTrace:
    """Closed-loop forward pass over input rows, collected into a trace.

    Runs the two stages, ``forward_steps`` over ``project_inputs(xs)``.
    Feedbacks are the model's own outputs from earlier steps of the same
    window; steps before the window start contribute zero vectors.  The
    rows' ``nonzero_rows`` are found once and kept on the trace.
    """
    if not xs:
        raise ValueError("empty input sequence")
    trace = ForwardTrace(x_nz=list(nonzero_rows(spec, xs)))
    for h, y in forward_steps(params, spec, project_nonzero(params, spec, trace.x_nz)):
        trace.h_steps.append(h)
        trace.y_steps.append(y)
    return trace


def save_checkpoint(
    path: str,
    spec: RnnSpec,
    flat: FlatParams,
    extras: dict | None = None,
) -> None:
    """Write a versioned JSON checkpoint (magic ``RNNP1``), atomically.

    ``extras`` carries pipeline state (normalization statistics, seasonal
    coefficients, encoder state); the schema is documented in the README.
    The record is written through ``atomic_write``, so ``path`` always
    holds a whole checkpoint: the old one if writing fails, for example on
    a non-finite value.
    """
    record = {
        "magic": CHECKPOINT_MAGIC,
        "spec": spec.to_dict(),
        "theta": list(flat.theta),
        "phi": list(flat.phi),
        "extras": extras or {},
    }
    with atomic_write(path) as f:
        json.dump(record, f, allow_nan=False)


def load_checkpoint(path: str) -> tuple:
    """Read a checkpoint; returns (spec, flat_params, extras).

    A file that is not a well-formed checkpoint raises
    ``DataValidationError``.
    """
    try:
        with open(path, "r", encoding="utf-8") as f:
            record = json.load(f)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise DataValidationError(
            f"checkpoint {path} is not valid JSON: {exc}"
        ) from None
    magic = record.get("magic") if isinstance(record, dict) else None
    if magic != CHECKPOINT_MAGIC:
        raise DataValidationError(
            f"not a model checkpoint (magic {magic!r}, "
            f"expected {CHECKPOINT_MAGIC!r})"
        )
    try:
        spec = RnnSpec.from_dict(checkpoint_field(record, "spec"))
    except (KeyError, TypeError, ValueError) as exc:
        raise DataValidationError(f"checkpoint spec is invalid: {exc!r}") from None
    flat = FlatParams(
        theta=[float(v) for v in checkpoint_field(record, "theta", kind=[NUMBER])],
        phi=[float(v) for v in checkpoint_field(record, "phi", kind=[NUMBER])],
    )
    if len(flat.theta) != spec.theta_size or len(flat.phi) != spec.phi_size:
        raise DataValidationError(
            "checkpoint parameter lengths do not match its spec"
        )
    return spec, flat, record.get("extras", {})
