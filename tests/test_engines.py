"""Gradient engine equivalence, oracles, and complexity accounting."""

import hashlib
from datetime import date

import pytest

from rnnp import engines
from rnnp.base import NumericError
from rnnp.engines import (
    ENGINES,
    BpttInfeasibleError,
    bptt_gradients,
    finite_difference_gradients,
    macronode_count,
    max_abs_diff,
    max_rel_diff,
    rtrl_gradients,
    rtrl_space_floats,
    trrl_gradients,
)
from rnnp.features import CalendarFeatureEncoder
from rnnp.linalg import Matrix, Rng
from rnnp.gradcheck import _random_instance, run_gradient_check
from rnnp.model import (
    FlatParams,
    ModelParams,
    RnnSpec,
    forward_sequence,
    init_params,
    pack,
    theta_offsets,
    unpack,
)
from rnnp.pbonacci import build_table
from rnnp.synth import SynthConfig, synth_generate
from rnnp.training import LossHead, gaussian_nll_loss, mse_loss

LAG_SETS = [(1,), (1, 2), (1, 3), (1, 2, 5)]


def zero_params(spec):
    return ModelParams(
        U=Matrix.zeros(spec.hidden_dim, spec.x_dim),
        W=[Matrix.zeros(spec.hidden_dim, spec.y_dim) for _ in spec.lag_set],
        b=[0.0] * spec.hidden_dim,
        V=Matrix.zeros(spec.y_dim, spec.hidden_dim),
        c=[0.0] * spec.y_dim,
    )


def make_case(seed, lag_set=None, tau=None, y_dim=None):
    """Seeded random model + sequence + loss closure."""
    rng = Rng(seed)
    lag_set = lag_set or LAG_SETS[rng.randint(0, len(LAG_SETS) - 1)]
    y = y_dim if y_dim is not None else rng.randint(1, 2)
    spec = RnnSpec(
        lag_set=lag_set,
        x_dim=rng.randint(1, 5),
        hidden_dim=rng.randint(2, 8),
        y_dim=y,
    )
    tau = tau if tau is not None else rng.randint(1, 12)
    params = init_params(spec, rng.spawn(1))
    xin = rng.spawn(2)
    xs = [xin.uniform(-1.0, 1.0, spec.x_dim) for _ in range(tau)]
    target = rng.uniform(-1.0, 1.0, 1)[0]
    head = LossHead(kind="mse" if y == 1 else "gaussian_nll")
    return spec, params, xs, head.bind(target)


def assert_close_pairs(a, b, tol=1e-10):
    """Engine-equivalence metric: sup norm relative to 1 + sup norm."""
    for va, vb in ((a.d_theta, b.d_theta), (a.d_phi, b.d_phi)):
        scale = 1.0 + max((abs(v) for v in vb), default=0.0)
        assert max_abs_diff(va, vb) <= tol * scale


def assert_fd_agreement(engine_pair, fd_pair, rel=1e-5, abs_tol=1e-7):
    for ve, vf in (
        (engine_pair.d_theta, fd_pair.d_theta),
        (engine_pair.d_phi, fd_pair.d_phi),
    ):
        for a, b in zip(ve, vf):
            err = abs(a - b)
            assert err <= abs_tol or err / max(abs(a), abs(b), 1e-12) <= rel


class TestZeroPropagation:
    def test_zero_params_mse_target_zero(self):
        spec = RnnSpec(lag_set=(1, 2), x_dim=2, hidden_dim=3, y_dim=1)
        params = zero_params(spec)
        loss = lambda y_hat: mse_loss(y_hat, 0.0)
        xs = [[0.4, -0.2]] * 4
        pair, _ = rtrl_gradients(params, spec, xs, loss)
        assert all(v == 0.0 for v in pair.d_theta)
        assert all(v == 0.0 for v in pair.d_phi)

    def test_zero_params_nonzero_target(self):
        """V = 0 blocks the theta path; phi sees the raw loss gradient."""
        spec = RnnSpec(lag_set=(1,), x_dim=1, hidden_dim=2, y_dim=1)
        params = zero_params(spec)
        loss = lambda y_hat: mse_loss(y_hat, 1.0)
        xs = [[0.5]] * 3
        for engine in (trrl_gradients, rtrl_gradients):
            pair, _ = engine(params, spec, xs, loss)
            assert all(v == 0.0 for v in pair.d_theta)
            # d/dc = 2 (yhat - 1) = -2; d/dV[0][j] = -2 * h_j = -1.
            assert pair.d_phi[0] == pytest.approx(-1.0)
            assert pair.d_phi[1] == pytest.approx(-1.0)
            assert pair.d_phi[2] == pytest.approx(-2.0)


class TestSingleStepBackprop:
    def test_tau_one_matches_hand_derivation(self):
        """At tau = 1 every engine reduces to feedforward backprop."""
        spec = RnnSpec(lag_set=(1, 2), x_dim=2, hidden_dim=3, y_dim=1)
        params = init_params(spec, Rng(17))
        x = [0.3, -0.8]
        target = 0.25
        loss = lambda y_hat: mse_loss(y_hat, target)

        trace = forward_sequence(params, spec, [x])
        h = trace.h_steps[0]
        g = 2.0 * (trace.y_final[0] - target)
        q = [params.V.data[j] * h[j] * (1 - h[j]) * g for j in range(3)]
        want_dU = [q[r] * x[c] for r in range(3) for c in range(2)]
        want_db = q
        want_dV = [g * h[j] for j in range(3)]

        for engine in (trrl_gradients, rtrl_gradients, bptt_gradients):
            pair = engine(params, spec, [x], loss)[0]
            assert pair.d_theta[:6] == pytest.approx(want_dU, rel=1e-12)
            # Feedback weights see only zero vectors at tau = 1.
            assert pair.d_theta[6:12] == [0.0] * 6
            assert pair.d_theta[12:] == pytest.approx(want_db, rel=1e-12)
            assert pair.d_phi[:3] == pytest.approx(want_dV, rel=1e-12)
            assert pair.d_phi[3] == pytest.approx(g, rel=1e-12)


class TestFiniteDifferenceOracle:
    def test_quadratic_in_output_weights_is_exact(self):
        """MSE is quadratic in phi, so central differences are exact there."""
        spec = RnnSpec(lag_set=(1,), x_dim=2, hidden_dim=4, y_dim=1)
        params = init_params(spec, Rng(3))
        xs = [Rng(4).spawn(t).uniform(-1, 1, 2) for t in range(3)]
        # Disconnect the feedback so phi perturbations stay quadratic.
        params = ModelParams(
            U=params.U, W=[Matrix.zeros(4, 1)], b=params.b, V=params.V, c=params.c
        )
        target = 0.4
        loss = lambda y_hat: mse_loss(y_hat, target)
        trace = forward_sequence(params, spec, xs)
        h = trace.h_steps[-1]
        g = 2.0 * (trace.y_final[0] - target)
        analytic = [g * h[j] for j in range(4)] + [g]
        fd = finite_difference_gradients(params, spec, xs, loss, step=1e-4)
        assert max_abs_diff(fd.d_phi, analytic) < 1e-9

    def test_zero_gradient_fixed_point(self):
        spec = RnnSpec(lag_set=(1,), x_dim=1, hidden_dim=2, y_dim=1)
        params = zero_params(spec)
        loss = lambda y_hat: mse_loss(y_hat, 0.0)
        fd = finite_difference_gradients(params, spec, [[0.0]] * 3, loss)
        assert max(abs(v) for v in fd.d_theta + fd.d_phi) < 1e-12

    def test_rejects_bad_step(self):
        spec, params, xs, loss = make_case(0)
        with pytest.raises(ValueError):
            finite_difference_gradients(params, spec, xs, loss, step=0.0)
        for step in (-1e-5, float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match="step must be"):
                finite_difference_gradients(params, spec, xs, loss, step=step)


class TestEngineEquivalence:
    @pytest.mark.parametrize("seed", range(25))
    def test_trrl_rtrl_fd_agree(self, seed):
        spec, params, xs, loss = make_case(seed)
        trrl, _ = trrl_gradients(params, spec, xs, loss)
        rtrl, _ = rtrl_gradients(params, spec, xs, loss)
        assert_close_pairs(trrl, rtrl)
        fd = finite_difference_gradients(params, spec, xs, loss)
        assert_fd_agreement(trrl, fd)

    @pytest.mark.parametrize("seed", range(200, 212))
    def test_bptt_matches_trrl(self, seed):
        spec, params, xs, loss = make_case(seed, tau=10)
        trrl, _ = trrl_gradients(params, spec, xs, loss)
        bptt, _, _ = bptt_gradients(params, spec, xs, loss)
        assert_close_pairs(bptt, trrl)

    def test_gaussian_head_cross_check(self):
        spec, params, xs, loss = make_case(7, lag_set=(1, 2), tau=9, y_dim=2)
        trrl, _ = trrl_gradients(params, spec, xs, loss)
        fd = finite_difference_gradients(params, spec, xs, loss)
        assert_fd_agreement(trrl, fd)

    def test_gapped_lag_set_cross_check(self):
        spec, params, xs, loss = make_case(11, lag_set=(1, 2, 5), tau=11)
        trrl, _ = trrl_gradients(params, spec, xs, loss)
        rtrl, _ = rtrl_gradients(params, spec, xs, loss)
        bptt, _, _ = bptt_gradients(params, spec, xs, loss)
        assert_close_pairs(trrl, rtrl)
        assert_close_pairs(trrl, bptt)

    @pytest.mark.parametrize("seed", range(3))
    def test_trrl_rtrl_agree_at_production_shape(self, seed):
        """The shape the pipeline trains: lags {1,2,24}, tau 49, x 13, h 15,
        Gaussian head (y 2)."""
        spec = RnnSpec(lag_set=(1, 2, 24), x_dim=13, hidden_dim=15, y_dim=2)
        rng = Rng(300 + seed)
        params = init_params(spec, rng.spawn(1))
        xin = rng.spawn(2)
        xs = [xin.uniform(-1.0, 1.0, spec.x_dim) for _ in range(49)]
        loss = LossHead(kind="gaussian_nll").bind(rng.uniform(-1.0, 1.0, 1)[0])
        trrl, _ = trrl_gradients(params, spec, xs, loss)
        rtrl, _ = rtrl_gradients(params, spec, xs, loss)
        assert max_rel_diff(trrl.d_theta, rtrl.d_theta) <= 1e-10
        assert max_rel_diff(trrl.d_phi, rtrl.d_phi) <= 1e-10

    def test_window_shorter_than_largest_lag(self):
        spec, params, xs, loss = make_case(41, lag_set=(1, 24), tau=5)
        trrl, _ = trrl_gradients(params, spec, xs, loss)
        rtrl, _ = rtrl_gradients(params, spec, xs, loss)
        bptt, _, _ = bptt_gradients(params, spec, xs, loss)
        for other in (rtrl, bptt):
            assert max_rel_diff(trrl.d_theta, other.d_theta) <= 1e-10
            assert max_rel_diff(trrl.d_phi, other.d_phi) <= 1e-10

    def test_engines_deterministic_across_calls(self):
        spec, params, xs, loss = make_case(23)
        a, _ = trrl_gradients(params, spec, xs, loss)
        b, _ = trrl_gradients(params, spec, xs, loss)
        assert a.d_theta == b.d_theta and a.d_phi == b.d_phi


class TestEngineContract:
    """Every engine returns the loss it evaluated, bit for bit."""

    @staticmethod
    def forward_loss(params, spec, xs, head, target):
        return head.bind(target)(forward_sequence(params, spec, xs).y_final)[0]

    @pytest.mark.parametrize("y_dim", [1, 2])
    @pytest.mark.parametrize("name", sorted(ENGINES))
    def test_loss_on_toy_shape(self, name, y_dim):
        spec = RnnSpec(lag_set=(1, 2), x_dim=3, hidden_dim=4, y_dim=y_dim)
        rng = Rng(500 + y_dim)
        params = init_params(spec, rng.spawn(1))
        xin = rng.spawn(2)
        xs = [xin.uniform(-1.0, 1.0, spec.x_dim) for _ in range(8)]
        head = LossHead(kind="mse" if y_dim == 1 else "gaussian_nll")
        target = rng.uniform(-1.0, 1.0, 1)[0]
        pair = ENGINES[name](params, spec, xs, head.bind(target))[0]
        assert pair.loss == self.forward_loss(params, spec, xs, head, target)

    @pytest.mark.parametrize("name", ["trrl", "rtrl"])
    def test_loss_at_production_shape(self, name):
        spec = RnnSpec(lag_set=(1, 2, 24), x_dim=13, hidden_dim=15, y_dim=2)
        rng = Rng(310)
        params = init_params(spec, rng.spawn(1))
        xin = rng.spawn(2)
        xs = [xin.uniform(-1.0, 1.0, spec.x_dim) for _ in range(49)]
        head = LossHead(kind="gaussian_nll")
        target = rng.uniform(-1.0, 1.0, 1)[0]
        pair, _ = ENGINES[name](params, spec, xs, head.bind(target))
        assert pair.loss == self.forward_loss(params, spec, xs, head, target)

    def test_finite_differences_report_the_unperturbed_loss(self):
        spec, params, xs, loss = make_case(17)
        fd = finite_difference_gradients(params, spec, xs, loss)
        assert fd.loss == loss(forward_sequence(params, spec, xs).y_final)[0]


class TestBptt:
    def test_chain_macronode_count_for_single_lag(self):
        spec, params, xs, loss = make_case(31, lag_set=(1,), tau=9)
        _, _, visited = bptt_gradients(params, spec, xs, loss)
        assert visited == 9

    def test_macronode_count_l12_tau4(self):
        spec, params, xs, loss = make_case(33, lag_set=(1, 2), tau=4)
        _, _, visited = bptt_gradients(params, spec, xs, loss)
        assert visited == 7  # F_6 - 1 = 8 - 1

    def test_default_guard_value(self):
        spec, params, _, loss = make_case(37, lag_set=(1, 2), tau=3)
        xs = [[0.0] * spec.x_dim] * 26
        with pytest.raises(BpttInfeasibleError):
            bptt_gradients(params, spec, xs, loss)


class TestMacronodeCount:
    def test_single_lag_is_tau(self):
        for tau in (1, 2, 7, 40):
            assert macronode_count(tau, (1,)) == tau

    def test_fibonacci_value_tau5(self):
        assert macronode_count(5, (1, 2)) == 12  # F_7 - 1 = 13 - 1

    def test_matches_pbonacci_sums(self):
        for p in (2, 3, 4):
            table = build_table(p, 40)
            lags = tuple(range(1, p + 1))
            for tau in range(1, 41):
                assert macronode_count(tau, lags) == table.sums[tau - 1]

    def test_matches_brute_force_enumeration(self):
        def brute(t, lags):
            return 1 + sum(brute(t - l, lags) for l in lags if t - l >= 1)

        for lags in LAG_SETS + [(2,), (2, 5)]:
            for tau in range(1, 16):
                assert macronode_count(tau, lags) == brute(tau, lags)

    def test_matches_bptt_visits(self):
        for tau in range(1, 16):
            spec, params, xs, loss = make_case(40 + tau, lag_set=(1, 2), tau=tau)
            _, _, visited = bptt_gradients(params, spec, xs, loss)
            assert visited == macronode_count(tau, (1, 2))

    def test_overflow_raises(self):
        with pytest.raises(OverflowError):
            macronode_count(200, (1, 2))

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            macronode_count(0, (1,))
        with pytest.raises(ValueError):
            macronode_count(3, (0, 1))


class TestRtrlSpace:
    def test_single_jacobian_row(self):
        # w = 10 with one lag and scalar output: peak is w itself.
        spec = RnnSpec(lag_set=(1,), x_dim=6, hidden_dim=1, y_dim=1)
        assert spec.weight_count == 10
        assert rtrl_space_floats(spec) == 10

    def test_paper_shape_arithmetic(self):
        spec = RnnSpec(lag_set=(1, 2, 24), x_dim=13, hidden_dim=15, y_dim=2)
        assert rtrl_space_floats(spec) == 3 * 2 * 332 == 1992

    def test_doubling_y_doubles_count_at_fixed_w(self):
        s1 = RnnSpec(lag_set=(1,), x_dim=4, hidden_dim=1, y_dim=1)
        s2 = RnnSpec(lag_set=(1,), x_dim=1, hidden_dim=1, y_dim=2)
        assert s1.weight_count == s2.weight_count == 8
        assert rtrl_space_floats(s2) == 2 * rtrl_space_floats(s1)

    @pytest.mark.parametrize("lags", [(1,), (1, 2), (1, 2, 3)])
    def test_measured_peak_matches_formula_for_contiguous_lags(self, lags):
        spec, params, xs, loss = make_case(57, lag_set=lags, tau=10)
        _, counter = rtrl_gradients(params, spec, xs, loss)
        assert counter.peak_floats == rtrl_space_floats(spec)

    def test_gapped_lag_set_needs_max_lag_pairs(self):
        spec, params, xs, loss = make_case(59, lag_set=(1, 3), tau=10)
        _, counter = rtrl_gradients(params, spec, xs, loss)
        assert counter.peak_floats == 3 * spec.y_dim * spec.weight_count


class TestCounters:
    def test_trrl_mac_count_linear_in_tau(self):
        spec = RnnSpec(lag_set=(1, 2), x_dim=3, hidden_dim=6, y_dim=1)
        params = init_params(spec, Rng(61))
        counts = {}
        for tau in (10, 20):
            xs = [Rng(62).spawn(t).uniform(-1, 1, 3) for t in range(tau)]
            loss = lambda y_hat: mse_loss(y_hat, 0.3)
            _, counter = trrl_gradients(params, spec, xs, loss)
            counts[tau] = counter.mac_count
        ratio = counts[20] / counts[10]
        assert abs(ratio - 2.0) <= 0.1

    def test_rtrl_mac_count_linear_in_tau(self):
        spec = RnnSpec(lag_set=(1, 2), x_dim=3, hidden_dim=6, y_dim=2)
        params = init_params(spec, Rng(63))
        counts = {}
        for tau in (8, 16):
            xs = [Rng(64).spawn(t).uniform(-1, 1, 3) for t in range(tau)]
            loss = lambda y_hat: gaussian_nll_loss(y_hat, 0.1)
            _, counter = rtrl_gradients(params, spec, xs, loss)
            counts[tau] = counter.mac_count
        assert abs(counts[16] / counts[8] - 2.0) <= 0.1

    def test_counter_identical_across_runs(self):
        spec, params, xs, loss = make_case(67)
        _, c1 = trrl_gradients(params, spec, xs, loss)
        _, c2 = trrl_gradients(params, spec, xs, loss)
        assert c1.mac_count == c2.mac_count
        assert c1.peak_floats == c2.peak_floats

    def test_bptt_and_trrl_counts_equal_for_single_lag(self):
        spec, params, xs, loss = make_case(69, lag_set=(1,), tau=12)
        _, ct = trrl_gradients(params, spec, xs, loss)
        _, cb, _ = bptt_gradients(params, spec, xs, loss)
        assert ct.mac_count == cb.mac_count

    def test_peak_floats_count_the_stored_trace_exactly(self):
        # The trace holds tau * (x + h + y) = 80 floats.  On top of it trrl
        # keeps the logged q of each of its 10 nodes (h each) and, at the
        # last node, one live y-vector; bptt keeps y + h per level of its
        # depth-10 lag-1 chain.
        spec = RnnSpec(lag_set=(1,), x_dim=3, hidden_dim=4, y_dim=1)
        params = init_params(spec, Rng(71))
        xs = [Rng(72).spawn(t).uniform(-1, 1, 3) for t in range(10)]
        loss = lambda y_hat: mse_loss(y_hat, 0.2)
        _, ct = trrl_gradients(params, spec, xs, loss)
        _, cb, _ = bptt_gradients(params, spec, xs, loss)
        assert ct.peak_floats == 121
        assert cb.peak_floats == 130


def production_rows():
    """A tau-49 window of encoded rows at the pipeline's shape: it starts at
    hour 0 of Sunday 2007-01-07 (every day-of-week dummy 0, sin 0), runs
    over the Monday holiday 2007-01-08, and carries an injected -0.0
    temperature."""
    holidays = frozenset({date(2007, 1, 8)})
    series, _ = synth_generate(SynthConfig(years=1, holidays=holidays), Rng(17))
    rows = CalendarFeatureEncoder(holidays=holidays).fit(series).transform(series)
    xs = [list(row) for row in rows[6 * 24 : 6 * 24 + 49]]
    xs[3][11] = -0.0
    assert xs[0][0] == 0.0 and xs[0][4:10] == [0.0] * 6
    assert xs[24][4] == 1.0 and xs[24][10] == 1.0
    return xs


def per_entry_terms(spec):
    """The input-layer update as the engines made it before the walk was
    logged: each entry's products added to ``dest`` one at a time, zero
    inputs and unreachable lags skipped."""
    h, x, y = spec.hidden_dim, spec.x_dim, spec.y_dim
    w_off, b_off = h * x, h * x + spec.p * h * y

    def add(dest, log):
        for q, x_nz, feedbacks in log:
            for r in range(h):
                for c, v in x_nz:
                    dest[r * x + c] += q[r] * v
                for i, fb in enumerate(feedbacks):
                    for k in range(y):
                        dest[w_off + i * h * y + r * y + k] += q[r] * fb[k]
                dest[b_off + r] += q[r]

    return add


def node_time_gradients(params, spec, xs, loss, order):
    """trrl (``order`` "trrl") or bptt ("bptt") adding every node's
    input-layer terms at the node, in visit order."""
    h, x, y = spec.hidden_dim, spec.x_dim, spec.y_dim
    trace = forward_sequence(params, spec, xs)
    value, g0 = loss(trace.y_final)
    d_theta = [0.0] * spec.theta_size
    d_phi = [0.0] * spec.phi_size
    v = params.V.data
    terms = per_entry_terms(spec)

    def node(t, g):
        h_t = trace.h_steps[t - 1]
        vt = [0.0] * h
        for k in range(y):
            for j in range(h):
                d_phi[k * h + j] += g[k] * h_t[j]
                vt[j] += v[k * h + j] * g[k]
            d_phi[y * h + k] += g[k]
        q = [vt[j] * (h_t[j] * (1.0 - h_t[j])) for j in range(h)]
        x_nz = [(c, xc) for c, xc in enumerate(xs[t - 1]) if xc != 0.0]
        feedbacks = [trace.y_steps[t - 1 - lag] for lag in spec.lag_set if lag < t]
        terms(d_theta, [(q, x_nz, feedbacks)])
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

    tau = len(xs)
    if order == "trrl":
        store = {0: g0}
        for i in range(tau):
            gi = store.pop(i, None)
            if gi is None:
                continue
            q = node(tau - i, gi)
            for li, lag in enumerate(spec.lag_set):
                if i + lag < tau:
                    pushed = push(li, q)
                    target = store.setdefault(i + lag, [0.0] * y)
                    for k in range(y):
                        target[k] += pushed[k]
    else:

        def visit(t, g):
            q = node(t, g)
            for li, lag in enumerate(spec.lag_set):
                if t - lag >= 1:
                    visit(t - lag, push(li, q))

        visit(tau, g0)
    return value, d_theta, d_phi


def hexes(*vectors):
    return [v.hex() for vec in vectors for v in vec]


def visited_steps(spec, tau):
    """The offsets a trrl walk visits: those a chain of lags reaches from 0."""
    seen, todo = set(), [0]
    while todo:
        i = todo.pop()
        if i < tau and i not in seen:
            seen.add(i)
            todo.extend(i + lag for lag in spec.lag_set)
    return len(seen)


class TestInputLayerPass:
    """trrl sums the input-layer terms after its walk, bptt and rtrl add them
    per node; every engine's bits equal a reference that adds each node's
    terms at the node, compared by ``float.hex`` so -0.0 would show."""

    # SHA-256 of trrl's gradients and loss (float.hex, one per line) on
    # ``production_rows`` with init_params(Rng(5)) and a target of 0.3,
    # as the engine computed them when it added the terms at each node.
    PRODUCTION_SHA256 = "e6b78f13ac309fda8fc9cde311dac7d102916924e1ff1c648f259835a5d9e001"

    @staticmethod
    def cases():
        xs = production_rows()
        prod = RnnSpec(lag_set=(1, 2, 24), x_dim=13, hidden_dim=15, y_dim=2)
        gauss, mse = LossHead(kind="gaussian_nll"), LossHead(kind="mse")
        rng = Rng(44)
        toy = [rng.spawn(i).uniform(-1.0, 1.0, 4) for i in range(12)]
        toy[2][1] = 0.0
        toy[5][0] = -0.0
        # (spec, xs, head, bptt tau)
        return [
            (prod, xs, gauss, 14),
            (RnnSpec(lag_set=(2, 5), x_dim=4, hidden_dim=3, y_dim=2), toy[:7], gauss, 7),
            (RnnSpec(lag_set=(1, 24), x_dim=4, hidden_dim=5, y_dim=2), toy, gauss, 12),
            (RnnSpec(lag_set=(1, 2), x_dim=13, hidden_dim=6, y_dim=1), xs[:10], mse, 10),
        ]

    @pytest.mark.parametrize("case", range(4))
    def test_trrl_and_bptt_equal_node_time_sums(self, case):
        spec, xs, head, bptt_tau = self.cases()[case]
        params = init_params(spec, Rng(case))
        loss = head.bind(0.3)
        grads, counter = trrl_gradients(params, spec, xs, loss)
        value, d_theta, d_phi = node_time_gradients(params, spec, xs, loss, "trrl")
        assert hexes([grads.loss], grads.d_theta, grads.d_phi) == hexes(
            [value], d_theta, d_phi
        )
        # The trace, every visited node's logged q and the last live g.
        h, y = spec.hidden_dim, spec.y_dim
        trace = len(xs) * (spec.x_dim + h + y)
        assert counter.peak_floats == trace + visited_steps(spec, len(xs)) * h + y
        grads, _, _ = bptt_gradients(params, spec, xs[:bptt_tau], loss)
        value, d_theta, d_phi = node_time_gradients(
            params, spec, xs[:bptt_tau], loss, "bptt"
        )
        assert hexes([grads.loss], grads.d_theta, grads.d_phi) == hexes(
            [value], d_theta, d_phi
        )

    @pytest.mark.parametrize("case", range(4))
    def test_rtrl_equals_per_entry_terms(self, case, monkeypatch):
        spec, xs, head, _ = self.cases()[case]
        params = init_params(spec, Rng(case))
        loss = head.bind(0.3)
        got, counter = rtrl_gradients(params, spec, xs, loss)
        monkeypatch.setattr(engines, "_input_layer_terms", per_entry_terms)
        want, want_counter = rtrl_gradients(params, spec, xs, loss)
        assert hexes([got.loss], got.d_theta, got.d_phi) == hexes(
            [want.loss], want.d_theta, want.d_phi
        )
        assert (counter.mac_count, counter.peak_floats) == (
            want_counter.mac_count,
            want_counter.peak_floats,
        )

    def test_production_gradients_pinned(self):
        spec = RnnSpec(lag_set=(1, 2, 24), x_dim=13, hidden_dim=15, y_dim=2)
        params = init_params(spec, Rng(5))
        loss = LossHead(kind="gaussian_nll").bind(0.3)
        grads, counter = trrl_gradients(params, spec, production_rows(), loss)
        text = "\n".join(hexes(grads.d_theta, grads.d_phi, [grads.loss]))
        assert hashlib.sha256(text.encode()).hexdigest() == self.PRODUCTION_SHA256
        # 49 * (13 + 15 + 2) trace floats, 49 logged q's of 15, one g of 2.
        assert counter.peak_floats == 1470 + 49 * 15 + 2


def reference_finite_differences(params, spec, xs, loss, step=1e-5):
    """The oracle as one ``unpack`` and one ``forward_sequence`` per loss
    evaluation, over a packed copy: (loss, d_theta, d_phi)."""
    flat = pack(params, spec)
    theta, phi = list(flat.theta), list(flat.phi)

    def loss_at():
        p = unpack(FlatParams(theta=theta, phi=phi), spec)
        return loss(forward_sequence(p, spec, xs).y_final)[0]

    def sweep(vec):
        out = []
        for i, orig in enumerate(vec):
            vec[i] = orig + step
            lp = loss_at()
            vec[i] = orig - step
            lm = loss_at()
            vec[i] = orig
            out.append((lp - lm) / (2.0 * step))
        return out

    value = loss_at()
    return value, sweep(theta), sweep(phi)


def param_lists(params):
    """The lists that hold the parameter entries, in packed order."""
    return [
        params.U.data, *(w.data for w in params.W), params.b, params.V.data, params.c
    ]


def param_hexes(params):
    """Every parameter entry by ``float.hex``, in packed order."""
    return hexes(*param_lists(params))


class TestFiniteDifferenceBits:
    """The oracle perturbs a private copy in place and reuses the input
    projections for W_l, V and c entries; its bits equal one
    ``forward_sequence`` per evaluation, compared by ``float.hex``."""

    # SHA-256 of run_gradient_check(20)'s rows (float.hex errors) as the
    # oracle computed them with one forward_sequence per evaluation.
    GRADCHECK_ROWS_SHA256 = "415440d21627935328522338d60479a010b2f2f7243bf3d562e8ba4a5c057392"

    @staticmethod
    def assert_reference_bits(params, spec, xs, loss):
        fd = finite_difference_gradients(params, spec, xs, loss)
        value, d_theta, d_phi = reference_finite_differences(params, spec, xs, loss)
        assert hexes([fd.loss], fd.d_theta, fd.d_phi) == hexes([value], d_theta, d_phi)
        return fd

    @pytest.mark.parametrize("seed", range(20))
    def test_gradcheck_instances(self, seed):
        spec, params, xs, loss = _random_instance(seed)
        self.assert_reference_bits(params, spec, xs, loss)

    @pytest.mark.parametrize("y_dim", [1, 2])
    def test_lag_at_or_past_the_window_and_zero_inputs(self, y_dim):
        spec = RnnSpec(lag_set=(1, 3, 6), x_dim=4, hidden_dim=3, y_dim=y_dim)
        rng = Rng(60 + y_dim)
        params = init_params(spec, rng.spawn(1))
        xs = [rng.spawn(2 + t).uniform(-1.0, 1.0, 4) for t in range(6)]
        xs[0] = [0.0] * 4
        xs[2][1] = 0.0
        xs[4][3] = -0.0
        head = LossHead(kind="mse" if y_dim == 1 else "gaussian_nll")
        fd = self.assert_reference_bits(params, spec, xs, head.bind(0.2))
        # Lag 6 never reaches inside a window of 6 steps.
        _, w_offs, b_off = theta_offsets(spec)
        assert hexes(fd.d_theta[w_offs[2] : b_off]) == [(0.0).hex()] * 3 * y_dim

    def test_calendar_rows_at_lags_1_2_24(self):
        spec = RnnSpec(lag_set=(1, 2, 24), x_dim=13, hidden_dim=3, y_dim=2)
        params = init_params(spec, Rng(7))
        loss = LossHead(kind="gaussian_nll").bind(0.3)
        self.assert_reference_bits(params, spec, production_rows()[:26], loss)

    def test_one_unpack_and_one_nonzero_scan_per_call(self, monkeypatch):
        spec, params, xs, loss = _random_instance(3)
        calls = {"unpack": 0, "nonzero_rows": 0, "project_nonzero": 0}

        def counted(name):
            original = getattr(engines, name)

            def wrapper(*args):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(engines, name, wrapper)

        for name in calls:
            counted(name)
        finite_difference_gradients(params, spec, xs, loss)
        # One base projection, and two more per U and b entry.
        reprojections = 2 * (spec.hidden_dim * spec.x_dim + spec.hidden_dim)
        assert calls == {
            "unpack": 1,
            "nonzero_rows": 1,
            "project_nonzero": 1 + reprojections,
        }

    def test_gradcheck_rows_pinned(self):
        rows, ok = run_gradient_check(20)
        text = repr(
            [
                (r.engine, r.seed, r.tau, r.lag_set)
                + (r.max_rel_err.hex(), r.max_abs_err.hex(), r.ok)
                for r in rows
            ]
        )
        assert ok
        assert hashlib.sha256(text.encode()).hexdigest() == self.GRADCHECK_ROWS_SHA256

    def test_caller_params_untouched(self):
        spec, params, xs, loss = _random_instance(5)
        before, lists = param_hexes(params), param_lists(params)
        finite_difference_gradients(params, spec, xs, loss)
        assert param_hexes(params) == before
        assert all(a is b for a, b in zip(param_lists(params), lists))

    @pytest.mark.parametrize("k", [2, 9, 22])
    def test_caller_params_untouched_when_a_sweep_raises(self, k):
        """A loss that turns NaN after k calls stops the sweep in U (k 2),
        in W_l (k 9) or in V (k 22)."""
        spec = RnnSpec(lag_set=(1, 2), x_dim=2, hidden_dim=2, y_dim=1)
        params = init_params(spec, Rng(8))
        xs = [[0.5, -0.25], [0.75, 0.0], [-1.0, 0.5]]
        inner = LossHead(kind="mse").bind(0.1)
        seen = []

        def loss(y_hat):
            seen.append(y_hat)
            value, grad = inner(y_hat)
            return (float("nan") if len(seen) > k else value), grad

        before = param_hexes(params)
        with pytest.raises(NumericError, match="non-finite loss"):
            finite_difference_gradients(params, spec, xs, loss)
        assert len(seen) == k + 1
        assert param_hexes(params) == before

    def test_non_finite_perturbed_value_raises(self):
        spec = RnnSpec(lag_set=(1, 4), x_dim=1, hidden_dim=1, y_dim=1)
        params = init_params(spec, Rng(9))
        params.W[1].data[0] = 1.7976931348623157e308  # lag 4 never reaches
        xs = [[0.5], [0.25]]
        loss = LossHead(kind="mse").bind(0.0)
        with pytest.raises(NumericError):
            finite_difference_gradients(params, spec, xs, loss, step=1e300)
        assert params.W[1].data[0] == 1.7976931348623157e308

    def test_empty_or_ragged_input_rejected(self):
        spec, params, xs, loss = _random_instance(1)
        with pytest.raises(ValueError, match="empty input sequence"):
            finite_difference_gradients(params, spec, [], loss)
        ragged = [list(x) for x in xs]
        ragged[-1].append(0.5)
        with pytest.raises(ValueError, match="expected"):
            finite_difference_gradients(params, spec, ragged, loss)


class TestNumericSafety:
    def test_non_finite_reported_with_step(self):
        spec = RnnSpec(lag_set=(1,), x_dim=1, hidden_dim=1, y_dim=1)
        params = zero_params(spec)
        params.U.data[0] = 1e200
        xs = [[1e200], [0.0]]
        loss = lambda y_hat: mse_loss(y_hat, 0.0)
        with pytest.raises(NumericError, match="step 1"):
            trrl_gradients(params, spec, xs, loss)

    def test_non_finite_output_reported_with_step(self):
        # Pre-activations stay at +-50; V and c near the float maximum make
        # the output overflow once h is close to 1, at step 2.
        spec = RnnSpec(lag_set=(1,), x_dim=1, hidden_dim=1, y_dim=1)
        params = zero_params(spec)
        params.U.data[0] = 1.0
        params.V.data[0] = 1e308
        params.c[0] = 8e307
        xs = [[-50.0], [50.0], [0.0]]
        loss = lambda y_hat: mse_loss(y_hat, 0.0)
        with pytest.raises(NumericError, match="non-finite output at step 2"):
            forward_sequence(params, spec, xs)
        for engine in (trrl_gradients, rtrl_gradients):
            with pytest.raises(NumericError, match="non-finite output at step 2"):
                engine(params, spec, xs, loss)

    def test_non_finite_folded_gradient_reported_with_step(self):
        # The output stays finite (5e307) but V^T g overflows at the root.
        spec = RnnSpec(lag_set=(1,), x_dim=1, hidden_dim=1, y_dim=1)
        params = zero_params(spec)
        params.V.data[0] = 1e308
        xs = [[0.0], [0.0]]
        loss = lambda y_hat: mse_loss(y_hat, 0.0)
        for engine in (trrl_gradients, bptt_gradients):
            with pytest.raises(
                NumericError, match="non-finite folded gradient at step 2"
            ):
                engine(params, spec, xs, loss)

    def test_empty_sequence_rejected(self):
        spec, params, _, loss = make_case(71)
        for engine in ENGINES.values():
            with pytest.raises(ValueError, match="empty input sequence"):
                engine(params, spec, [], loss)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_loss_gradient_of_wrong_dimension_rejected(self, engine):
        spec, params, xs, _ = make_case(72, tau=4)
        loss = lambda y_hat: (0.0, [0.0] * (spec.y_dim + 1))
        with pytest.raises(ValueError, match="loss gradient has wrong dimension"):
            ENGINES[engine](params, spec, xs, loss)


class TestErrorMetrics:
    def test_max_rel_diff_floor(self):
        assert max_rel_diff([0.0], [0.0]) == 0.0
        assert max_rel_diff([1e-13], [0.0]) <= 1e-1

    def test_max_abs_diff(self):
        assert max_abs_diff([1.0, 2.0], [1.5, 2.0]) == 0.5
