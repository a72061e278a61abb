"""Three exact gradient engines for the recurrent model, plus oracles.

All engines differentiate a many-to-one loss L(yhat(tau)) with respect to
the packed parameter vectors theta (input-to-hidden) and phi
(hidden-to-output) and agree with each other to floating-point rounding:

* ``trrl_gradients``   backward sweep that merges the repeated subtrees of
                       the unrolled network by accumulating one total
                       gradient vector per step; linear in tau.
* ``rtrl_gradients``   forward propagation of the output Jacobian
                       d yhat / d [theta | phi], one row per output;
                       linear in tau with a y^2 factor, Jacobian storage
                       instead of a stored trace.
* ``bptt_gradients``   literal depth-first recursion over the unrolled
                       tree; exponential in tau for two or more lags, kept
                       behind a guard and used as a reference and for
                       macronode accounting.

Each engine builds its ``OpCounter`` once, at the end of the call, from
the multiply-accumulates of the gradient computation itself and its peak
of gradient-state floats.  The forward sweep is identical for every
engine and is excluded, so counters compare the algorithms like for like.
``loss`` arguments are callables ``yhat -> (loss_value, d_loss_d_yhat)``;
the value comes back on ``GradientPair.loss``.  trrl and bptt share all
but their traversal (``_tree_gradients``): trrl's is the generated
``trrl_sweep``, one loop that merges the pushes by step, and bptt's a
literal recursion over the generated ``make_node``, whose node body is
the same source; each walk returns its MACs and peak.  rtrl advances
its Jacobians with the generated ``rtrl_advance``.  Every engine adds
its input-layer terms with the generated ``add_log``
(``_input_layer_terms``), into the first |theta| entries of a theta
gradient or of an rtrl Jacobian row.  All of these come from
``kernels``, compiled once per shape, as the input projection is.

Engines are pure functions of (params, xs): parameters are never
mutated, every call owns its workspace, and concurrent calls
against shared parameters are safe.

The oracles check the engines.  ``finite_difference_gradients`` takes
central differences over every packed parameter, perturbing a private
copy in place and reusing the input projections that a ``W_l``, ``V`` or
``c`` entry cannot change.  ``macronode_count`` and ``rtrl_space_floats``
give the exact macronode count and rtrl storage that the counters are
checked against.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

from .base import ConfigError, NumericError
from .kernels import _kernels
from .linalg import OpCounter
from .model import (
    ModelParams,
    RnnSpec,
    forward_sequence,
    forward_steps,
    pack,
    phi_offsets,
    project_inputs,
    theta_offsets,
)
from .pbonacci import U128_MAX

# Longest sequence bptt_gradients accepts.
BPTT_GUARD = 25


class BpttInfeasibleError(ConfigError):
    """Sequence too long for the unrolled-tree recursion.

    The macronode count grows like a generalized Fibonacci partial sum,
    so past the guard the recursion is rejected instead of left to run
    for an astronomically long time.  Choosing bptt for such a sequence
    is a configuration error.
    """


@dataclass
class GradientPair:
    """Common output contract of all engines: the packed gradients and the
    loss value they are the gradients of."""

    d_theta: list
    d_phi: list
    loss: float

    def validate(self, spec: RnnSpec) -> None:
        if len(self.d_theta) != spec.theta_size or len(self.d_phi) != spec.phi_size:
            raise ValueError("gradient lengths do not match the spec")
        for v in self.d_theta:
            if not math.isfinite(v):
                raise NumericError("non-finite theta gradient")
        for v in self.d_phi:
            if not math.isfinite(v):
                raise NumericError("non-finite phi gradient")


def _input_layer_terms(spec: RnnSpec):
    """The input-layer gradient of one engine call, as ``add(dest, log)``:
    dest += (da/dtheta)^T q summed over the log's entries, into the U, W_l
    and b entries of ``dest``, its first |theta| entries: trrl's and bptt's
    ``d_theta``, or an rtrl Jacobian row, whose theta part comes first.

    A log entry is ``(q, x, feedbacks)``: a folded gradient, its step's
    input row and the outputs of the lags that reach inside the window, in
    lag-set order (lags increase, so those lags come first in the set).
    Each theta entry gets one product per log entry, added in log order to
    its current value, so the bits are those of adding the entries one at
    a time.  ``add`` is the generated
    ``add_log`` of the spec's shape (``kernels.kernel_source``, which says
    why skipping the products of zero inputs and of unreachable lags
    changes no bit); one form serves trrl's whole log and the one-entry
    logs of bptt and rtrl.  The caller counts the dense h*x + p*h*y
    multiplies per entry.
    """
    return _kernels(spec.hidden_dim, spec.x_dim, spec.y_dim, spec.lag_set).add_log


def _loss_gradient(loss, y_final: list, spec: RnnSpec) -> tuple:
    """``loss(y_final)`` as (value, d_loss_d_yhat); every engine's one call."""
    value, grad = loss(y_final)
    if len(grad) != spec.y_dim:
        raise ValueError("loss gradient has wrong dimension")
    return value, grad


def _node_macs(spec: RnnSpec) -> int:
    """The dense multiplies of one tree node: 2*y*h + 2*h + h*x + p*h*y."""
    h, y = spec.hidden_dim, spec.y_dim
    return 2 * y * h + 2 * h + h * spec.x_dim + spec.p * h * y


def _tree_gradients(params: ModelParams, spec: RnnSpec, xs: list, loss, walk) -> tuple:
    """The work trrl and bptt share; ``walk``, their traversal, is called as
    ``walk(kernels, args, g0, grads)`` on the unrolled tree's root and
    returns ``(macs, walk_peak)``: its multiply-accumulates and the peak of
    the floats it keeps live.

    The stored trace (h and yhat per step plus the inputs) is live for the
    whole walk, so the call's peak is the trace plus ``walk_peak``.
    ``kernels`` are the call's shape's generated functions
    (``kernels.kernel_source``) and ``args`` the arguments both tree
    kernels take (``make_node(*args)``, ``trrl_sweep(*args, g0)``): phi's
    V slice, theta's W_l slices, the trace, the call's dense input rows and
    ``grads.d_phi``, which the node adds the output-layer terms to.
    """
    params.validate(spec)
    h, y = spec.hidden_dim, spec.y_dim
    trace = forward_sequence(params, spec, xs)
    loss_value, g0 = _loss_gradient(loss, trace.y_final, spec)
    grads = GradientPair([0.0] * spec.theta_size, [0.0] * spec.phi_size, loss_value)
    _, w_offs, _ = theta_offsets(spec)
    v_off, c_off = phi_offsets(spec)
    args = (
        params.phi[v_off:c_off],
        [params.theta[off : off + h * y] for off in w_offs],
        trace.h_steps,
        trace.y_steps,
        xs,
        grads.d_phi,
    )
    kernels = _kernels(h, spec.x_dim, y, spec.lag_set)
    macs, walk_peak = walk(kernels, args, g0, grads)
    grads.validate(spec)
    return grads, OpCounter(macs, len(xs) * (spec.x_dim + h + y) + walk_peak)


def trrl_gradients(
    params: ModelParams, spec: RnnSpec, xs: list, loss
) -> tuple:
    """Tree-recombined backward sweep, linear in sequence length.

    Walks steps t = tau..1 from the final step backwards, keeping one
    accumulated gradient vector g_t per live step.  Each g_t goes through
    its node once, and the node's pushes are added into the vectors of
    their steps, which is exactly the recombination of the identical
    subtrees the unrolled network would otherwise replicate.  Works for
    any lag set, contiguous or not.

    The walk is the generated ``trrl_sweep`` of the spec's shape
    (``kernels.kernel_source``): one loop with the node inlined, the g's in
    a list indexed by step, where the first push to a step stores its
    vector and later ones add into it.  The node adds only the
    output-layer terms.  Each visited node's log entry is kept, and after
    the walk one pass sums the input-layer terms of the whole log in visit
    order (decreasing t), so every theta entry is one running sum.  The
    kept q's, h floats per visited node, are charged from their node until
    that pass ends.  The sweep returns its push count and the peak of its
    live gradient floats, and the walk's MACs and peak come from them.
    """
    def walk(kernels, args, g0, grads):
        log, pushes, peak = kernels.trrl_sweep(*args, g0)
        _input_layer_terms(spec)(grads.d_theta, log)
        push_macs = spec.hidden_dim * spec.y_dim
        return len(log) * _node_macs(spec) + pushes * push_macs, peak

    return _tree_gradients(params, spec, xs, loss, walk)


def rtrl_gradients(
    params: ModelParams, spec: RnnSpec, xs: list, loss
) -> tuple:
    """Forward Jacobian propagation; no stored trace, Jacobian ring instead.

    J(s) = d yhat(s) / d [theta | phi] is y rows of w = |theta| + |phi|
    floats, laid out like the packed vectors.  The ring holds J(s) of the
    most recent ``max(lag_set)`` steps (zero for s <= 0) and advances them
    with the recurrences folded into y-by-y matrices, so the per-step cost
    is O(p y^2 w) and the dense h-by-|theta| intermediate never exists.
    For a contiguous lag set the ring holds exactly p Jacobians, matching
    the p*y*w storage estimate; a gapped lag set needs max(lag) because a
    Jacobian stays live until its most distant consumer.  The advance is
    the generated ``rtrl_advance`` of the spec's shape
    (``kernels.kernel_source``).
    """
    params.validate(spec)
    h, y = spec.hidden_dim, spec.y_dim
    n_theta, w = spec.theta_size, spec.weight_count
    max_lag = spec.max_lag
    v_off, c_off = phi_offsets(spec)
    _, w_offs, _ = theta_offsets(spec)
    vdata = params.phi[v_off:c_off]
    w_datas = [params.theta[off : off + h * y] for off in w_offs]
    # The oldest Jacobian's lag first, then the others in lag-set order.
    w_order = [w_datas[-1], *w_datas[:-1]]

    # Before step t's update, ring[-l] is J(t - l).
    ring = deque([[0.0] * w for _ in range(y)] for _ in range(max_lag))
    # Recent outputs, the feedbacks the input-layer update differentiates
    # against: y_ring[-l] is yhat(t - l); a step before the window start
    # has none.
    y_ring = deque(maxlen=max_lag)
    add_input_terms = _input_layer_terms(spec)
    advance = _kernels(h, spec.x_dim, y, spec.lag_set).rtrl_advance

    # The forward steps are shared by every engine and not counted.
    rows = project_inputs(params, spec, xs)
    for t, (h_t, yhat) in enumerate(forward_steps(params, spec, rows), 1):
        # B = V diag(h'), y x h.
        b_rows = []
        for k in range(y):
            base = k * h
            b_rows.append(
                [vdata[base + j] * (h_t[j] * (1.0 - h_t[j])) for j in range(h)]
            )

        # C_l = B W_l, y x y, one per lag: row k of every C_l in w_order.
        c_rows = []
        for bk in b_rows:
            crow = []
            for wdata in w_order:
                acc = [0.0] * y
                for j in range(h):
                    bkj = bk[j]
                    wbase = j * y
                    for m in range(y):
                        acc[m] += bkj * wdata[wbase + m]
                crow += acc
            c_rows.append(crow)

        # New Jacobian: sum_l C_l J(t - l) + the sparse local terms.  The
        # advance takes the oldest one (lag = max_lag, always in the lag
        # set) off the ring, since only its own term reads it, so the ring
        # never holds more than max_lag Jacobians.
        new = advance(c_rows, ring)

        # The local terms: the input layer's into each row's theta part,
        # its first |theta| entries, the output layer's (V, c) into its phi part.
        feedbacks = [y_ring[-lag] for lag in spec.lag_set if lag < t]
        for k, row in enumerate(new):
            add_input_terms(row, [(b_rows[k], xs[t - 1], feedbacks)])
            base = n_theta + v_off + k * h
            for j in range(h):
                row[base + j] += h_t[j]
            row[n_theta + c_off + k] += 1.0

        ring.append(new)
        y_ring.append(yhat)

    loss_value, g_final = _loss_gradient(loss, y_ring[-1], spec)
    d = [0.0] * w
    for gk, row in zip(g_final, ring[-1]):
        d = [dj + gk * rj for dj, rj in zip(d, row)]

    grads = GradientPair(d_theta=d[:n_theta], d_phi=d[n_theta:], loss=loss_value)
    grads.validate(spec)
    # Per step: B, the C_l, the advance and the dense input-layer terms;
    # then the final contraction.  The ring is the peak.
    p = spec.p
    step_macs = 2 * y * h + p * y * y * (h + w) + y * (h * spec.x_dim + p * h * y)
    return grads, OpCounter(len(xs) * step_macs + y * w, max_lag * y * w)


def bptt_gradients(
    params: ModelParams, spec: RnnSpec, xs: list, loss
) -> tuple:
    """Literal depth-first backpropagation over the unrolled tree.

    Every node (a(t), yhat(t)) reached from the root spawns one recursive
    visit per child, one per feedback edge with t - lag >= 1, so identical
    subtrees are recomputed as many times as they appear.  The node is the
    generated ``make_node`` of the spec's shape, bound once per call: on
    step t it returns the step's input-layer log entry and the list of its
    children ``(t - l, W_l^T q)``, one per reaching lag in lag-set order.
    The MACs come from the number of macronodes visited, which is returned
    alongside the gradients; each visit keeps y + h floats live until its
    subtree is done, so the walk's peak is the deepest visit's depth times
    y + h.
    """
    tau = len(xs)
    if tau > BPTT_GUARD:
        raise BpttInfeasibleError(
            f"tau={tau} exceeds the guard ({BPTT_GUARD}): the unrolled "
            f"tree would hold {macronode_count(tau, spec.lag_set)} macronodes"
        )
    visited = deepest = 0

    def walk(kernels, args, g0, grads):
        node = kernels.make_node(*args)
        add_input_terms = _input_layer_terms(spec)

        def visit(t: int, g: list, depth: int) -> None:
            nonlocal visited, deepest
            visited += 1
            if depth > deepest:
                deepest = depth
            entry, children = node(t, g)
            add_input_terms(grads.d_theta, [entry])
            for s, push in children:
                visit(s, push, depth + 1)

        visit(tau, g0, 1)
        # Every visit but the root's is reached by exactly one push.
        push_macs = spec.hidden_dim * spec.y_dim
        macs = visited * _node_macs(spec) + (visited - 1) * push_macs
        return macs, deepest * (spec.y_dim + spec.hidden_dim)

    grads, counter = _tree_gradients(params, spec, xs, loss, walk)
    return grads, counter, visited


ENGINES = {
    "trrl": trrl_gradients,
    "rtrl": rtrl_gradients,
    "bptt": bptt_gradients,
}


def check_engine(name: str) -> None:
    """Raise ``ConfigError`` unless ``name`` is a key of ``ENGINES``."""
    if name not in ENGINES:
        raise ConfigError(f"unknown engine {name!r}; choose from {sorted(ENGINES)}")


def finite_difference_gradients(
    params: ModelParams,
    spec: RnnSpec,
    xs: list,
    loss,
    step: float = 1e-5,
) -> GradientPair:
    """Central-difference gradient oracle over every packed parameter.

    Each entry, in packed order, is set to w + step and to w - step in one
    private copy of the parameters and restored; the caller's ``params``
    are never touched.  The input rows are projected once at the
    unperturbed parameters.  A ``W_l``, ``V`` or ``c`` entry cannot change
    a projection, so its evaluations run ``forward_steps`` over those
    shared rows; a ``U`` or ``b`` entry re-projects them, binding the
    generated projection to the perturbed values.  Every sum keeps its
    order, so the bits are those of one ``forward_sequence`` per
    evaluation.  ``loss`` on the result is the loss at the unperturbed
    parameters.
    """
    if not (math.isfinite(step) and step > 0):
        raise ValueError(f"step must be a finite positive number, got {step}")
    p = pack(params, spec)
    _, w_offs, b_off = theta_offsets(spec)
    base_rows = list(project_inputs(p, spec, xs))

    def loss_at(reproject: bool) -> float:
        rows = project_inputs(p, spec, xs) if reproject else base_rows
        for _, y_final in forward_steps(p, spec, rows):
            pass
        value, _ = loss(y_final)
        if not math.isfinite(value):
            raise NumericError("non-finite loss during finite differencing")
        return value

    def sweep(vec: list, shared: range) -> list:
        """The central differences of ``vec``'s entries in order; those at
        an index in ``shared`` reuse the unperturbed projections."""
        out = []
        for i in range(len(vec)):
            reproject = i not in shared
            orig = vec[i]
            plus, minus = orig + step, orig - step
            if not (math.isfinite(plus) and math.isfinite(minus)):
                raise NumericError(
                    f"non-finite perturbed parameter {orig!r} +- {step}"
                )
            vec[i] = plus
            lp = loss_at(reproject)
            vec[i] = minus
            lm = loss_at(reproject)
            vec[i] = orig
            out.append((lp - lm) / (2.0 * step))
        return out

    loss_value = loss_at(False)
    d_theta = sweep(p.theta, range(w_offs[0], b_off))
    d_phi = sweep(p.phi, range(len(p.phi)))
    return GradientPair(d_theta=d_theta, d_phi=d_phi, loss=loss_value)


def macronode_count(tau: int, lag_set) -> int:
    """Macronodes of the unrolled tree, by dynamic programming.

    N(t) = 1 + sum over lags l with t - l >= 1 of N(t - l); the result is
    N(tau).  For the lag set {1, .., p} this equals the partial sum of a
    p-bonacci sequence.  Raises ``OverflowError`` past 128 unsigned bits
    rather than returning a silently huge-but-wrong figure.
    """
    if tau < 1:
        raise ValueError(f"tau must be >= 1, got {tau}")
    lags = sorted(set(int(l) for l in lag_set))
    if not lags or lags[0] < 1:
        raise ValueError(f"invalid lag set {lag_set!r}")
    counts = [0] * (tau + 1)
    for t in range(1, tau + 1):
        n = 1
        for l in lags:
            if t - l >= 1:
                n += counts[t - l]
        if n > U128_MAX:
            raise OverflowError(
                f"macronode count exceeds 128 bits at tau={t}"
            )
        counts[t] = n
    return counts[tau]


def rtrl_space_floats(spec: RnnSpec) -> int:
    """Float count p * y * (|theta| + |phi|) of the forward Jacobian store.

    This is the storage estimate for a contiguous lag set, where it equals
    rtrl's ``peak_floats`` exactly: p Jacobians of y rows over the packed
    [theta | phi] vector.  A gapped lag set keeps max(lag) Jacobians alive
    instead (see ``rtrl_gradients``).
    """
    return spec.p * spec.y_dim * spec.weight_count


def max_abs_diff(a: list, b: list) -> float:
    return max((abs(x - y) for x, y in zip(a, b)), default=0.0)


def max_rel_diff(a: list, b: list, floor: float = 1e-12) -> float:
    """Max per-coordinate |a-b| / max(|a|, |b|, floor)."""
    worst = 0.0
    for x, y in zip(a, b):
        d = abs(x - y) / max(abs(x), abs(y), floor)
        if d > worst:
            worst = d
    return worst
