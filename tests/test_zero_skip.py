"""The zero-skip is exact: encoded calendar rows at the pipeline's shape.

About half of an encoded row is exact zeros (day-of-week dummies, the
holiday flag, sin at hour 0).  ``project_inputs`` and the gradient engines
skip the products of those zeros, and trrl/bptt skip the W_l terms of a lag
that reaches before the window start.  Each result here is compared with
``==`` to a reference that takes every product, and the counters to the
dense operation counts.
"""

from datetime import date

import pytest

from rnnp import engines
from rnnp.engines import bptt_gradients, rtrl_gradients, trrl_gradients
from rnnp.features import CalendarFeatureEncoder
from rnnp.linalg import Rng
from rnnp.model import RnnSpec, forward_steps, init_params, project_inputs
from rnnp.synth import SynthConfig, synth_generate
from rnnp.training import LossHead

SPEC = RnnSpec(lag_set=(1, 2, 24), x_dim=13, hidden_dim=15, y_dim=2)
TAU = 49


@pytest.fixture(scope="module")
def windows():
    """Two tau-49 windows of encoded rows with a zero-rich start: 2007-01-01
    (hour 0, a Monday holiday) and 2007-01-07 (hour 0, a Sunday, so every
    day-of-week dummy is 0), each with an injected -0.0 temperature."""
    holidays = frozenset({date(2007, 1, 1)})
    series, _ = synth_generate(SynthConfig(years=1, holidays=holidays), Rng(17))
    rows = CalendarFeatureEncoder(holidays=holidays).fit(series).transform(series)
    out = []
    for start in (0, 6 * 24):
        xs = [list(row) for row in rows[start : start + TAU]]
        xs[3][11] = -0.0
        out.append(xs)
    first = out[0][0]
    assert first[0] == 0.0 and first[10] == 1.0 and first[4] == 1.0
    assert out[1][0][4:10] == [0.0] * 6
    return out


def dense_projection(params, spec, x_t):
    x = spec.x_dim
    u = params.U.data
    out = []
    for r in range(spec.hidden_dim):
        acc = 0.0
        for c in range(x):
            acc += u[r * x + c] * x_t[c]
        out.append(acc + params.b[r])
    return out


def dense_tree_gradients(params, spec, xs, loss, walk):
    """trrl or bptt taking every product: all input columns, and a zero
    feedback vector for a lag that reaches before the window start.
    ``walk(node, push, tau, g0)`` is the traversal."""
    h, x, y = spec.hidden_dim, spec.x_dim, spec.y_dim
    rows = [dense_projection(params, spec, x_t) for x_t in xs]
    steps = list(forward_steps(params, spec, rows))
    value, g0 = loss(steps[-1][1])
    d_theta = [0.0] * spec.theta_size
    d_phi = [0.0] * spec.phi_size
    v = params.V.data

    def node(t, g):
        h_t = steps[t - 1][0]
        for k in range(y):
            for j in range(h):
                d_phi[k * h + j] += g[k] * h_t[j]
            d_phi[y * h + k] += g[k]
        q = []
        for j in range(h):
            acc = 0.0
            for k in range(y):
                acc += v[k * h + j] * g[k]
            q.append(acc * (h_t[j] * (1.0 - h_t[j])))
        feedbacks = [
            steps[t - 1 - lag][1] if lag < t else [0.0] * y for lag in spec.lag_set
        ]
        for r in range(h):
            for c in range(x):
                d_theta[r * x + c] += q[r] * xs[t - 1][c]
            for i, fb in enumerate(feedbacks):
                for k in range(y):
                    d_theta[h * x + i * h * y + r * y + k] += q[r] * fb[k]
            d_theta[h * x + spec.p * h * y + r] += q[r]
        return q

    def push(i, q):
        w = params.W[i].data
        out = []
        for k in range(y):
            acc = 0.0
            for r in range(h):
                acc += w[r * y + k] * q[r]
            out.append(acc)
        return out

    walk(node, push, len(xs), g0)
    return value, d_theta, d_phi


def trrl_walk(node, push, tau, g0):
    store = {0: g0}
    for i in range(tau):
        gi = store.pop(i, None)
        if gi is None:
            continue
        q = node(tau - i, gi)
        for li, lag in enumerate(SPEC.lag_set):
            if i + lag < tau:
                pushed = push(li, q)
                target = store.get(i + lag)
                if target is None:
                    store[i + lag] = pushed
                else:
                    for k in range(len(target)):
                        target[k] += pushed[k]


def bptt_walk(node, push, tau, g0):
    def visit(t, g):
        q = node(t, g)
        for li, lag in enumerate(SPEC.lag_set):
            if t - lag >= 1:
                visit(t - lag, push(li, q))

    visit(tau, g0)


def node_macs(spec):
    h, x, y = spec.hidden_dim, spec.x_dim, spec.y_dim
    return h * x + spec.p * h * y + 2 * y * h + 2 * h


def trace_floats(spec, tau):
    return tau * (spec.x_dim + spec.hidden_dim + spec.y_dim)


def case(seed):
    params = init_params(SPEC, Rng(seed))
    loss = LossHead(kind="gaussian_nll").bind(Rng(seed).spawn(3).uniform(-1, 1, 1)[0])
    return params, loss


@pytest.mark.parametrize("seed", [0, 1])
def test_projection_equals_dense(windows, seed):
    params, _ = case(seed)
    for xs in windows:
        want = [dense_projection(params, SPEC, x_t) for x_t in xs]
        assert list(project_inputs(params, SPEC, xs)) == want


@pytest.mark.parametrize("seed", [0, 1])
def test_trrl_equals_dense(windows, seed):
    params, loss = case(seed)
    h, y = SPEC.hidden_dim, SPEC.y_dim
    for xs in windows:
        grads, counter = trrl_gradients(params, SPEC, xs, loss)
        value, d_theta, d_phi = dense_tree_gradients(params, SPEC, xs, loss, trrl_walk)
        assert (grads.loss, grads.d_theta, grads.d_phi) == (value, d_theta, d_phi)
        pushes = sum(TAU - lag for lag in SPEC.lag_set)
        assert counter.mac_count == TAU * node_macs(SPEC) + pushes * h * y
        # The trace plus, at the last node, every node's logged q and the
        # one live offset.
        assert counter.peak_floats == trace_floats(SPEC, TAU) + TAU * h + y


@pytest.mark.parametrize("tau", [5, 18])
def test_bptt_equals_dense(windows, tau):
    params, loss = case(2)
    h, y = SPEC.hidden_dim, SPEC.y_dim
    xs = windows[0][:tau]
    grads, counter, visited = bptt_gradients(params, SPEC, xs, loss)
    value, d_theta, d_phi = dense_tree_gradients(params, SPEC, xs, loss, bptt_walk)
    assert (grads.loss, grads.d_theta, grads.d_phi) == (value, d_theta, d_phi)
    assert counter.mac_count == visited * node_macs(SPEC) + (visited - 1) * h * y
    # The deepest path is the lag-1 chain of tau levels.
    assert counter.peak_floats == trace_floats(SPEC, tau) + tau * (y + h)


@pytest.mark.parametrize("seed", [0, 1])
def test_rtrl_equals_dense(windows, seed, monkeypatch):
    """rtrl against itself with the skips taken out: every column of the
    row, dense projections, and a zero vector for an unreachable lag."""
    params, loss = case(seed)
    h, y = SPEC.hidden_dim, SPEC.y_dim
    size = SPEC.weight_count
    got = [rtrl_gradients(params, SPEC, xs, loss) for xs in windows]
    input_layer_terms = engines._input_layer_terms

    def dense_input_layer_terms(spec):
        add = input_layer_terms(spec)
        zero = [0.0] * spec.y_dim

        def dense(dest, log):
            pad = [zero] * spec.p
            add(dest, [(q, x_nz, (fbs + pad)[: spec.p]) for q, x_nz, fbs in log])

        return dense

    # Every column of each row, for the projection and the update alike.
    monkeypatch.setattr(
        engines, "nonzero_rows", lambda spec, xs: [list(enumerate(x_t)) for x_t in xs]
    )
    monkeypatch.setattr(engines, "_input_layer_terms", dense_input_layer_terms)
    for xs, (grads, counter) in zip(windows, got):
        want, _ = rtrl_gradients(params, SPEC, xs, loss)
        assert (grads.loss, grads.d_theta, grads.d_phi) == (
            want.loss,
            want.d_theta,
            want.d_phi,
        )
        step = 2 * y * h + SPEC.p * y * y * (h + size) + y * (h * SPEC.x_dim + SPEC.p * h * y)
        assert counter.mac_count == TAU * step + y * size
        assert counter.peak_floats == SPEC.max_lag * y * size
