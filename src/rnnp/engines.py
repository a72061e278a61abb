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

The returned ``OpCounter`` tallies the multiply-accumulates of the
gradient computation itself.  The forward sweep is identical for every
engine and is excluded, so counters compare the algorithms like for like.
``loss`` arguments are callables ``yhat -> (loss_value, d_loss_d_yhat)``;
the value comes back on ``GradientPair.loss``.  trrl and bptt share all
but their traversal (``_tree_gradients``): the tree node yields a step's
children, trrl merges them by step and bptt recurses into each.  Every
engine adds its input-layer terms through one pass over dense input rows
(``_input_layer_terms``), whether its log holds a whole walk (trrl) or one
entry (bptt, rtrl).  The node and the input-layer pass are the generated
``make_node`` and ``add_log`` of the call's shape (``kernels``), compiled
once per shape, as the input projection is.

Engines are pure functions of (params, xs): parameters are never
mutated, every call owns its counter and workspace, and concurrent calls
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
    and b entries of ``dest``, a theta-sized list.

    A log entry is ``(q, x, feedbacks)``: a folded gradient, its step's
    input row and the outputs of the lags that reach inside the window, a
    prefix of the lag set.  Each theta entry gets one product per log
    entry, added in log order to its current value, so the bits are those
    of adding the entries one at a time.  ``add`` is the generated
    ``add_log`` of the spec's shape (``kernels.kernel_source``, which says
    why skipping the products of zero inputs and of unreachable lags
    changes no bit); one form serves trrl's whole log and the one-entry
    logs of bptt and rtrl.  The caller counts the dense h*x + p*h*y
    multiplies per entry.
    """
    _, _, add_log = _kernels(spec.hidden_dim, spec.x_dim, spec.y_dim, spec.lag_set)
    return add_log


def _loss_gradient(loss, y_final: list, spec: RnnSpec) -> tuple:
    """``loss(y_final)`` as (value, d_loss_d_yhat); every engine's one call."""
    value, grad = loss(y_final)
    if len(grad) != spec.y_dim:
        raise ValueError("loss gradient has wrong dimension")
    return value, grad


def _tree_gradients(params: ModelParams, spec: RnnSpec, xs: list, loss, walk) -> tuple:
    """The work trrl and bptt share; ``walk``, their traversal, is called as
    ``walk(node, add_input_terms, tau, g0, counter)`` on the unrolled
    tree's root.

    The stored trace (h and yhat per step plus the inputs) is charged until
    the walk ends.  ``node(t, g)`` is the generated ``make_node``
    (``kernels.kernel_source``) bound to this call's weights, trace and
    rows: it returns step t's log entry and its children ``(step, push)``,
    which the walk routes without reading a weight or a lag.
    ``add_input_terms(log)`` adds a log of entries to the theta gradient
    (``_input_layer_terms``).
    """
    params.validate(spec)
    h, x, y = spec.hidden_dim, spec.x_dim, spec.y_dim
    counter = OpCounter()
    trace = forward_sequence(params, spec, xs)
    trace_floats = len(xs) * (x + h + y)
    counter.grad_floats_alloc(trace_floats)
    loss_value, g0 = _loss_gradient(loss, trace.y_final, spec)
    grads = GradientPair([0.0] * spec.theta_size, [0.0] * spec.phi_size, loss_value)
    _, make_node, _ = _kernels(h, x, y, spec.lag_set)
    _, w_offs, _ = theta_offsets(spec)
    v_off, c_off = phi_offsets(spec)
    node = make_node(
        params.phi[v_off:c_off],
        [params.theta[off : off + h * y] for off in w_offs],
        trace.h_steps,
        trace.y_steps,
        xs,
        grads.d_phi,
        counter.add_macs,
        2 * y * h + 2 * h + h * x + spec.p * h * y,
    )
    add = _input_layer_terms(spec)
    walk(node, lambda log: add(grads.d_theta, log), len(xs), g0, counter)
    counter.grad_floats_free(trace_floats)
    grads.validate(spec)
    return grads, counter


def trrl_gradients(
    params: ModelParams, spec: RnnSpec, xs: list, loss
) -> tuple:
    """Tree-recombined backward sweep, linear in sequence length.

    Walks steps t = tau..1 from the final step backwards, keeping one
    accumulated gradient vector g_t per live step.  Each g_t goes through
    its node once, and the node's children are added into the vectors of
    their steps, which is exactly the recombination of the identical
    subtrees the unrolled network would otherwise replicate.  Works for
    any lag set, contiguous or not.

    The node adds only the output-layer terms.  Each visited node's log
    entry is kept, and after the walk one pass sums the input-layer terms
    of the whole log in visit order (decreasing t), so every theta entry
    is one running sum.  The kept q's, h floats per visited node, are
    charged from their node until that pass ends.
    """
    h, y = spec.hidden_dim, spec.y_dim

    def walk(node, add_input_terms, tau: int, g0: list, counter: OpCounter) -> None:
        log = []
        g_store = {tau: g0}
        counter.grad_floats_alloc(y)
        for t in range(tau, 0, -1):
            g = g_store.pop(t, None)
            if g is None:
                # No push reaches this step (the lag set skips it near the end).
                continue
            entry, children = node(t, g)
            log.append(entry)
            counter.grad_floats_alloc(h)
            for s, push in children:
                target = g_store.get(s)
                if target is None:
                    g_store[s] = push
                    counter.grad_floats_alloc(y)
                else:
                    for k, pk in enumerate(push):
                        target[k] += pk
            counter.grad_floats_free(y)
        add_input_terms(log)
        counter.grad_floats_free(len(log) * h)

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
    Jacobian stays live until its most distant consumer.
    """
    params.validate(spec)
    counter = OpCounter()
    h, y = spec.hidden_dim, spec.y_dim
    n_theta, w = spec.theta_size, spec.weight_count
    max_lag = spec.max_lag
    v_off, c_off = phi_offsets(spec)
    _, w_offs, _ = theta_offsets(spec)
    vdata = params.phi[v_off:c_off]
    w_datas = [params.theta[off : off + h * y] for off in w_offs]

    # Before step t's update, ring[-l] is J(t - l).
    ring = deque([[0.0] * w for _ in range(y)] for _ in range(max_lag))
    counter.grad_floats_alloc(max_lag * y * w)
    # Recent outputs, the feedbacks the input-layer update differentiates
    # against: y_ring[-l] is yhat(t - l); a step before the window start
    # has none.
    y_ring = deque(maxlen=max_lag)
    add_input_terms = _input_layer_terms(spec)

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
        counter.add_macs(2 * y * h)

        # C_l = B W_l, y x y, one per lag.
        c_mats = []
        for wdata in w_datas:
            cm = []
            for k in range(y):
                bk = b_rows[k]
                crow = [0.0] * y
                for j in range(h):
                    bkj = bk[j]
                    wbase = j * y
                    for m in range(y):
                        crow[m] += bkj * wdata[wbase + m]
                cm.append(crow)
            c_mats.append(cm)
        counter.add_macs(spec.p * y * y * h)

        # New Jacobian: sum_l C_l J(t - l) + the sparse local terms.  The
        # oldest one (lag = max_lag, always in the lag set) is consumed by
        # its own term, so its rows are transformed in place and recycled:
        # the ring never holds more than max_lag Jacobians.
        new = ring.popleft()
        c_last = c_mats[-1]
        for j in range(w):
            col = [new[m][j] for m in range(y)]
            for k in range(y):
                acc = 0.0
                ck = c_last[k]
                for m in range(y):
                    acc += ck[m] * col[m]
                new[k][j] = acc
        for cm, lag in zip(c_mats[:-1], spec.lag_set[:-1]):
            old = ring[-lag]
            for k in range(y):
                ck = cm[k]
                acc = new[k]
                for m in range(y):
                    ckm = ck[m]
                    row = old[m]
                    for j in range(w):
                        acc[j] += ckm * row[j]
        counter.add_macs(spec.p * y * y * w)

        # The local terms: the input layer's into each row's theta part,
        # the output layer's (V, c) into its phi part.
        feedbacks = [y_ring[-lag] for lag in spec.lag_set if lag < t]
        for k, row in enumerate(new):
            theta_part = row[:n_theta]
            add_input_terms(theta_part, [(b_rows[k], xs[t - 1], feedbacks)])
            row[:n_theta] = theta_part
            base = n_theta + v_off + k * h
            for j in range(h):
                row[base + j] += h_t[j]
            row[n_theta + c_off + k] += 1.0
        counter.add_macs(y * (h * spec.x_dim + spec.p * h * y))

        ring.append(new)
        y_ring.append(yhat)

    loss_value, g_final = _loss_gradient(loss, y_ring[-1], spec)
    d = [0.0] * w
    for gk, row in zip(g_final, ring[-1]):
        for j in range(w):
            d[j] += gk * row[j]
    counter.add_macs(y * w)

    grads = GradientPair(d_theta=d[:n_theta], d_phi=d[n_theta:], loss=loss_value)
    grads.validate(spec)
    return grads, counter


def bptt_gradients(
    params: ModelParams, spec: RnnSpec, xs: list, loss
) -> tuple:
    """Literal depth-first backpropagation over the unrolled tree.

    Every node (a(t), yhat(t)) reached from the root spawns one recursive
    visit per child, one per feedback edge with t - lag >= 1, so identical
    subtrees are recomputed as many times as they appear.  Returns the
    exact number of macronodes visited alongside the gradients.
    """
    tau = len(xs)
    if tau > BPTT_GUARD:
        raise BpttInfeasibleError(
            f"tau={tau} exceeds the guard ({BPTT_GUARD}): the unrolled "
            f"tree would hold {macronode_count(tau, spec.lag_set)} macronodes"
        )
    level_floats = spec.y_dim + spec.hidden_dim
    visited = 0

    def visit(node, add_input_terms, t: int, g: list, counter: OpCounter) -> None:
        nonlocal visited
        visited += 1
        counter.grad_floats_alloc(level_floats)
        entry, children = node(t, g)
        add_input_terms([entry])
        for s, push in children:
            visit(node, add_input_terms, s, push, counter)
        counter.grad_floats_free(level_floats)

    grads, counter = _tree_gradients(params, spec, xs, loss, visit)
    return grads, counter, visited


ENGINES = {
    "trrl": trrl_gradients,
    "rtrl": rtrl_gradients,
    "bptt": bptt_gradients,
}


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
    the ring's measured peak exactly: p Jacobians of y rows over the packed
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
