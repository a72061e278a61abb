"""Shallow Jordan recurrent networks over an arbitrary lag set.

The model maps an input sequence {x(1..t)} to outputs through

    a(t) = b + U x(t) + sum_l W_l yhat(t - l)      for l in the lag set
    h(t) = sigmoid(a(t))
    yhat(t) = c + V h(t)

with yhat(s) = 0 for s <= 0.  Feedbacks are the model's own previous
outputs, so a sequence is processed closed-loop from a zero start.  The
lag set need not be contiguous: {1, 2, 24} wires hourly and daily
feedbacks directly.

The forward pass is two stages: ``project_inputs`` computes b + U x(t)
for each input row and ``forward_steps`` runs the recurrence over those
projected rows.  The projection is the generated ``project`` of the
spec's shape (``kernels.kernel_source``): it reads dense rows, tests each
column once, and skips the products of zero inputs without changing a
bit.

The parameters have one form, ``ModelParams``: the packed vectors theta
(U, each W_l, b) and phi (V, c) that the gradient engines differentiate,
Adam updates and checkpoints store.  Each function that reads a weight
takes its slice or offset (``theta_offsets``, ``phi_offsets``) for the
length of one call.
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
    check_kind,
    checkpoint_field,
)
from .kernels import _kernels, check_finite_step
from .linalg import Rng

CHECKPOINT_MAGIC = "RNNP1"

# The widest spec whose kernels compile.  A generated row sum nests one
# term per hidden or output unit, and CPython's compiler recurses once per
# term (h 3,000 raises RecursionError); the kernel source grows with the
# weight count (about 2 s and 200-400 MB to compile at 25,000 weights).
MAX_UNITS = 1_000
MAX_WEIGHTS = 25_000


@dataclass(frozen=True)
class RnnSpec:
    """Architecture description: lag set and layer widths.

    Every width is at least 1; ``hidden_dim`` and ``y_dim`` are at most
    ``MAX_UNITS`` and the weight count at most ``MAX_WEIGHTS``, so the
    shape's kernels compile.  A spec out of these bounds is a
    ``ValueError`` naming the field, raised before anything is allocated.
    """

    lag_set: tuple
    x_dim: int
    hidden_dim: int
    y_dim: int

    def __post_init__(self) -> None:
        # Every width and lag must be an int (not a bool, not a float that
        # happens to be integral): the gradient kernels are generated from
        # these numbers, and a checkpoint holding anything else is invalid.
        lags = list(self.lag_set)
        check_kind(lags, [int], "lag_set", ValueError, "spec")
        lags = tuple(int(l) for l in lags)
        object.__setattr__(self, "lag_set", lags)
        if not lags:
            raise ValueError("lag set must contain at least one lag")
        if any(l < 1 for l in lags):
            raise ValueError(f"lags must be >= 1, got {lags}")
        if any(b <= a for a, b in zip(lags, lags[1:])):
            raise ValueError(f"lag set must be strictly increasing, got {lags}")
        for name in ("x_dim", "hidden_dim", "y_dim"):
            value = getattr(self, name)
            check_kind(value, int, name, ValueError, "spec")
            object.__setattr__(self, name, int(value))
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
        for name in ("hidden_dim", "y_dim"):
            if getattr(self, name) > MAX_UNITS:
                raise ValueError(
                    f"{name} must be <= {MAX_UNITS}, got {getattr(self, name)}"
                )
        if self.weight_count > MAX_WEIGHTS:
            raise ValueError(
                f"weight_count must be <= {MAX_WEIGHTS}, got {self.weight_count} "
                f"(x_dim {self.x_dim}, hidden_dim {self.hidden_dim}, "
                f"y_dim {self.y_dim}, {self.p} lags)"
            )

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


@dataclass(frozen=True)
class ModelParams:
    """Trainable parameters: the packed vectors the engines differentiate.

    theta packs U (h x x) row-major, then each W_l (h x y) row-major in
    lag-set order, then b (h); phi packs V (y x h) row-major, then c (y).
    The flat index of U[0][0] is 0.  ``theta_offsets`` and ``phi_offsets``
    are the only place that layout is written.  Every entry must be
    finite: constructing one with a NaN or an infinity raises
    ``NumericError``; ``validate`` checks the two lengths against a spec.
    """

    theta: list
    phi: list

    def __post_init__(self) -> None:
        for name in ("theta", "phi"):
            vec = getattr(self, name)
            if not all(map(math.isfinite, vec)):
                i = next(i for i, v in enumerate(vec) if not math.isfinite(v))
                raise NumericError(f"non-finite {name}[{i}] = {vec[i]!r}")

    def validate(self, spec: RnnSpec) -> None:
        if len(self.theta) != spec.theta_size:
            raise ValueError(
                f"theta has length {len(self.theta)}, expected {spec.theta_size}"
            )
        if len(self.phi) != spec.phi_size:
            raise ValueError(f"phi has length {len(self.phi)}, expected {spec.phi_size}")


def theta_offsets(spec: RnnSpec) -> tuple:
    """(u_offset, w_offsets, b_offset) into the theta vector; w_offsets is
    a range holding one offset per lag, in lag-set order."""
    h, x, y = spec.hidden_dim, spec.x_dim, spec.y_dim
    b_off = h * x + len(spec.lag_set) * h * y
    return 0, range(h * x, b_off, h * y), b_off


def phi_offsets(spec: RnnSpec) -> tuple:
    """(v_offset, c_offset) into the phi vector."""
    return 0, spec.y_dim * spec.hidden_dim


def pack(params: ModelParams, spec: RnnSpec) -> ModelParams:
    """A validated copy of ``params``: new theta and phi lists."""
    params.validate(spec)
    return ModelParams(theta=list(params.theta), phi=list(params.phi))


def init_params(spec: RnnSpec, rng: Rng) -> ModelParams:
    """Glorot-uniform weights, zero biases.

    Each matrix is drawn U[-r, r] with r = sqrt(6 / (fan_in + fan_out)),
    which keeps sigmoid pre-activations in their responsive range.  The
    draws run U, each W_l, then V.
    """
    h, x, y = spec.hidden_dim, spec.x_dim, spec.y_dim

    def draw(fan_in: int, fan_out: int) -> list:
        r = math.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-r, r, fan_in * fan_out)

    theta = draw(x, h)
    for _ in spec.lag_set:
        theta += draw(y, h)
    return ModelParams(theta=theta + [0.0] * h, phi=draw(h, y) + [0.0] * y)


def sigmoid(a: float) -> float:
    if a >= 0.0:
        return 1.0 / (1.0 + math.exp(-a))
    e = math.exp(a)
    return e / (1.0 + e)


@dataclass
class ForwardTrace:
    """Per-step activations of one processed sequence (1-based step t)."""

    h_steps: list = field(default_factory=list)
    y_steps: list = field(default_factory=list)

    @property
    def y_final(self) -> list:
        return self.y_steps[-1]


def project_inputs(params: ModelParams, spec: RnnSpec, xs):
    """Projection stage: yields ``U x(t) + b`` for each input row of ``xs``.

    Each yielded list holds, per hidden row r, ``(sum_c U[r,c] x_c) + b_r``
    with the sum from 0.0 over increasing column index, the products of
    zero inputs skipped.  It is the only forward code that reads ``U`` and
    ``b``: the generated ``project`` of the spec's shape
    (``kernels.kernel_source``), given the U and b slices of
    ``params.theta`` as they are at the call.  A row whose length is not
    ``x_dim`` raises ``ValueError``.  A projection depends on the
    parameters and its own input row alone, so a caller whose parameters
    are fixed can project each row once and pass the result to every
    window that contains it (see ``forward_steps``).  Rows are projected
    as they are pulled, so ``xs`` may be any iterable.
    """
    h = spec.hidden_dim
    project, _, _ = _kernels(h, spec.x_dim, spec.y_dim, spec.lag_set)
    u_off, _, b_off = theta_offsets(spec)
    theta = params.theta
    return project(theta[u_off : u_off + h * spec.x_dim], theta[b_off : b_off + h], xs)


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
    output raises ``NumericError`` naming the 1-based step.  A window has
    at least one step, for every caller: ``rows`` that end before the
    first raise ``ValueError("empty input sequence")``.

    A row is never mutated: when lag terms apply, the step's pre-activation
    is a new list; when none do, the row is used as it is.  A caller with
    fixed parameters can therefore share one projection between all the
    windows that contain its hour, as ``forecast_range`` does.
    """
    h_dim, y_dim = spec.hidden_dim, spec.y_dim
    theta, phi = params.theta, params.phi
    _, w_offs, _ = theta_offsets(spec)
    v_off, c_off = phi_offsets(spec)
    # Per hidden row, its row of each W_l.
    w_rows = [
        [theta[off + r * y_dim : off + (r + 1) * y_dim] for off in w_offs]
        for r in range(h_dim)
    ]
    v_rows = [
        (phi[v_off + k * h_dim : v_off + (k + 1) * h_dim], phi[c_off + k])
        for k in range(y_dim)
    ]
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
    if not ys:
        raise ValueError("empty input sequence")


def forward_sequence(params: ModelParams, spec: RnnSpec, xs) -> ForwardTrace:
    """Closed-loop forward pass over input rows, collected into a trace.

    Runs ``forward_steps`` over the rows' ``project_inputs``.  Feedbacks
    are the model's own outputs from earlier steps of the same window;
    steps before the window start contribute zero vectors.
    """
    trace = ForwardTrace()
    for h, y in forward_steps(params, spec, project_inputs(params, spec, xs)):
        trace.h_steps.append(h)
        trace.y_steps.append(y)
    return trace


def save_checkpoint(
    path: str,
    spec: RnnSpec,
    params: ModelParams,
    extras: dict | None = None,
) -> None:
    """Write a versioned JSON checkpoint (magic ``RNNP1``), atomically.

    ``extras`` carries pipeline state (normalization statistics, seasonal
    coefficients, encoder state); the schema is documented in the README.
    The record is written through ``atomic_write``, so ``path`` always
    holds a whole checkpoint: the old one if writing fails, for example on
    a non-finite value.  Parameters whose lengths do not match ``spec``
    raise ``ValueError`` before anything is written.
    """
    params.validate(spec)
    record = {
        "magic": CHECKPOINT_MAGIC,
        "spec": spec.to_dict(),
        "theta": list(params.theta),
        "phi": list(params.phi),
        "extras": extras or {},
    }
    with atomic_write(path) as f:
        json.dump(record, f, allow_nan=False)


def load_checkpoint(path: str) -> tuple:
    """Read a checkpoint; returns (spec, params, extras).

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
        spec = RnnSpec.from_dict(checkpoint_field(record, "spec", kind=dict))
    except (KeyError, TypeError, ValueError) as exc:
        raise DataValidationError(f"checkpoint spec is invalid: {exc!r}") from None
    params = ModelParams(
        theta=[float(v) for v in checkpoint_field(record, "theta", kind=[NUMBER])],
        phi=[float(v) for v in checkpoint_field(record, "phi", kind=[NUMBER])],
    )
    if len(params.theta) != spec.theta_size or len(params.phi) != spec.phi_size:
        raise DataValidationError(
            "checkpoint parameter lengths do not match its spec"
        )
    return spec, params, record.get("extras", {})
