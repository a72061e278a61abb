"""Architecture contracts: parameter counts, packing, forward pass."""

import hashlib
import json
import math
import re

import pytest

from rnnp.base import DataValidationError, NumericError
from rnnp.linalg import Rng
from rnnp.model import (
    MAX_UNITS,
    MAX_WEIGHTS,
    ModelParams,
    RnnSpec,
    forward_sequence,
    forward_steps,
    init_params,
    load_checkpoint,
    pack,
    phi_offsets,
    project_inputs,
    save_checkpoint,
    sigmoid,
    theta_offsets,
)


def zero_params(spec):
    return ModelParams(theta=[0.0] * spec.theta_size, phi=[0.0] * spec.phi_size)


def weights(params, spec):
    """(U, [W_l], b, V, c), each a row-major list cut from theta or phi."""
    h, x, y = spec.hidden_dim, spec.x_dim, spec.y_dim
    _, w_offs, b_off = theta_offsets(spec)
    v_off, c_off = phi_offsets(spec)
    theta, phi = params.theta, params.phi
    return (
        theta[: h * x],
        [theta[off : off + h * y] for off in w_offs],
        theta[b_off:],
        phi[v_off:c_off],
        phi[c_off:],
    )


class TestRnnSpec:
    def test_parameter_counts_match_closed_form(self):
        spec = RnnSpec(lag_set=(1, 2, 24), x_dim=13, hidden_dim=15, y_dim=2)
        assert spec.theta_size == (13 + 3 * 2 + 1) * 15 == 300
        assert spec.phi_size == (15 + 1) * 2 == 32
        assert spec.weight_count == 332

    def test_counts_formula_over_random_specs(self):
        rng = Rng(3)
        for _ in range(30):
            p = rng.randint(1, 4)
            lags = []
            nxt = 0
            for _ in range(p):
                nxt += rng.randint(1, 5)
                lags.append(nxt)
            x = rng.randint(1, 6)
            h = rng.randint(1, 9)
            y = rng.randint(1, 3)
            spec = RnnSpec(lag_set=tuple(lags), x_dim=x, hidden_dim=h, y_dim=y)
            assert spec.theta_size == (x + p * y + 1) * h
            assert spec.phi_size == (h + 1) * y

    @pytest.mark.parametrize(
        "lags", [(), (0,), (-1, 2), (2, 2), (3, 1)], ids=str
    )
    def test_invalid_lag_sets_rejected(self, lags):
        with pytest.raises(ValueError):
            RnnSpec(lag_set=lags, x_dim=1, hidden_dim=1, y_dim=1)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("hidden_dim", 2.5),
            ("hidden_dim", 3.0),
            ("x_dim", 13.0),
            ("y_dim", True),
            ("hidden_dim", "4"),
            ("lag_set", (1.5,)),
            ("lag_set", (1.0, 2)),
            ("lag_set", ("2",)),
            ("lag_set", (True,)),
        ],
        ids=str,
    )
    def test_non_integer_widths_and_lags_rejected_naming_the_field(self, field, value):
        # A float lag used to be truncated (1.5 -> 1) and a float width kept.
        kwargs = {"lag_set": (1,), "x_dim": 1, "hidden_dim": 1, "y_dim": 1}
        kwargs[field] = value
        with pytest.raises(ValueError, match=field):
            RnnSpec(**kwargs)

    @pytest.mark.parametrize(
        "field, value, named",
        [
            ("hidden_dim", MAX_UNITS + 1, "hidden_dim must be <= 1000"),
            ("hidden_dim", 2**63, "hidden_dim must be <= 1000"),
            ("y_dim", MAX_UNITS + 1, "y_dim must be <= 1000"),
            ("x_dim", 10**6, "weight_count must be <= 25000"),
            ("lag_set", tuple(range(1, 2001)), "weight_count must be <= 25000"),
        ],
        ids=["hidden_dim", "hidden_dim_2**63", "y_dim", "x_dim", "lag_count"],
    )
    def test_width_past_the_compile_bound_rejected_naming_the_field(
        self, field, value, named
    ):
        # Only the spec is built: nothing of the rejected width is allocated.
        kwargs = {"lag_set": (1, 2, 24), "x_dim": 13, "hidden_dim": 15, "y_dim": 2}
        kwargs[field] = value
        with pytest.raises(ValueError, match=re.escape(named)):
            RnnSpec(**kwargs)

    def test_widest_production_shape_within_the_bounds(self):
        spec = RnnSpec(lag_set=(1, 2, 24), x_dim=13, hidden_dim=MAX_UNITS, y_dim=2)
        assert spec.weight_count == 22002 <= MAX_WEIGHTS

    def test_only_sigmoid_supported(self):
        d = {"lag_set": [1], "x_dim": 1, "hidden_dim": 1, "y_dim": 1}
        assert RnnSpec.from_dict({**d, "hidden_activation": "sigmoid"}) == (
            RnnSpec.from_dict(d)
        )
        with pytest.raises(ValueError, match="relu"):
            RnnSpec.from_dict({**d, "hidden_activation": "relu"})


class TestInitParams:
    def test_same_seed_same_params(self):
        spec = RnnSpec(lag_set=(1, 3), x_dim=4, hidden_dim=6, y_dim=2)
        a = init_params(spec, Rng(11))
        b = init_params(spec, Rng(11))
        assert pack(a, spec) == pack(b, spec)

    def test_biases_zero(self):
        spec = RnnSpec(lag_set=(1,), x_dim=2, hidden_dim=3, y_dim=1)
        _, _, b, _, c = weights(init_params(spec, Rng(0)), spec)
        assert b == [0.0] * 3
        assert c == [0.0]

    def test_glorot_bounds(self):
        spec = RnnSpec(lag_set=(1,), x_dim=5, hidden_dim=7, y_dim=2)
        p = init_params(spec, Rng(5))
        U, _, _, V, _ = weights(p, spec)
        r_u = math.sqrt(6.0 / (5 + 7))
        assert all(abs(v) <= r_u for v in U)
        r_v = math.sqrt(6.0 / (7 + 2))
        assert all(abs(v) <= r_v for v in V)

    # SHA-256 of the float.hex of theta then phi, per seed: pins the values
    # and the draw order (U, each W_l, then V) of init_params.
    PIPELINE_INIT_SHA256 = {
        0: "5a6c622f9f0b746758de2aaba3f16667185b0e5588a858e53519732d3b19bf5c",
        7: "d582c332a189156d310f529f3c15de22e57e9d8a4b9ecfefe151a7dd8acda197",
    }

    @pytest.mark.parametrize("seed", sorted(PIPELINE_INIT_SHA256))
    def test_pipeline_shape_init_pinned(self, seed):
        spec = RnnSpec(lag_set=(1, 2, 24), x_dim=13, hidden_dim=15, y_dim=2)
        packed = pack(init_params(spec, Rng(seed)), spec)
        text = "\n".join(v.hex() for v in packed.theta + packed.phi)
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == self.PIPELINE_INIT_SHA256[seed]


class TestModelParams:
    """The one parameter form: its finiteness and length checks."""

    def test_rejects_non_finite(self):
        spec = RnnSpec(lag_set=(1, 2), x_dim=2, hidden_dim=3, y_dim=2)
        _, w_offs, b_off = theta_offsets(spec)
        _, c_off = phi_offsets(spec)
        # An entry of U, of each W_l and of b in theta; of V and of c in phi.
        places = [("theta", i) for i in (0, *w_offs, b_off, spec.theta_size - 1)]
        places += [("phi", i) for i in (0, c_off, spec.phi_size - 1)]
        for name, i in places:
            for bad in (math.inf, -math.inf, math.nan):
                vecs = {"theta": [0.5] * spec.theta_size, "phi": [0.5] * spec.phi_size}
                vecs[name][i] = bad
                with pytest.raises(NumericError, match=rf"{name}\[{i}\]"):
                    ModelParams(**vecs)

    def test_rejects_bad_length(self):
        spec = RnnSpec(lag_set=(1, 2), x_dim=2, hidden_dim=2, y_dim=2)
        good = zero_params(spec)
        for theta, phi, named in [
            (good.theta[:-1], good.phi, "theta has length 13, expected 14"),
            (good.theta + [0.0], good.phi, "theta has length 15, expected 14"),
            (good.theta, good.phi[:-1], "phi has length 5, expected 6"),
            (good.theta, good.phi + [0.0], "phi has length 7, expected 6"),
        ]:
            params = ModelParams(theta=theta, phi=phi)
            with pytest.raises(ValueError, match=named):
                params.validate(spec)
            with pytest.raises(ValueError, match=named):
                pack(params, spec)


class TestPacking:
    def test_round_trip_params(self):
        spec = RnnSpec(lag_set=(1, 2, 5), x_dim=3, hidden_dim=4, y_dim=2)
        params = init_params(spec, Rng(21))
        again = pack(params, spec)
        assert again == params
        assert again.theta is not params.theta and again.phi is not params.phi

    def test_round_trip_flat(self):
        spec = RnnSpec(lag_set=(1, 2), x_dim=2, hidden_dim=3, y_dim=1)
        rng = Rng(8)
        theta = rng.uniform(-1, 1, spec.theta_size)
        phi = rng.uniform(-1, 1, spec.phi_size)
        again = pack(ModelParams(theta=theta, phi=phi), spec)
        assert again.theta == theta
        assert again.phi == phi

    def test_flat_index_of_u00_is_zero(self):
        spec = RnnSpec(lag_set=(1,), x_dim=2, hidden_dim=2, y_dim=1)
        params = zero_params(spec)
        params.theta[0] = 42.0
        assert theta_offsets(spec)[0] == 0
        # U[0][0] multiplies input column 0 into hidden row 0.
        assert list(project_inputs(params, spec, [[1.0, 0.0]])) == [[42.0, 0.0]]

    def test_unpack_length_mismatch(self):
        # A packed pair read back as parameters must have the spec's lengths.
        spec = RnnSpec(lag_set=(1,), x_dim=1, hidden_dim=1, y_dim=1)
        with pytest.raises(ValueError):
            pack(ModelParams(theta=[0.0], phi=[0.0, 0.0]), spec)


class TestForward:
    def test_all_zero_params_give_constant_half_hidden(self):
        spec = RnnSpec(lag_set=(1,), x_dim=2, hidden_dim=3, y_dim=1)
        params = zero_params(spec)
        trace = forward_sequence(params, spec, [[1.0, -1.0]])
        assert trace.h_steps == [[0.5, 0.5, 0.5]]
        assert trace.y_steps == [[0.0]]

    def test_constant_output_bias(self):
        spec = RnnSpec(lag_set=(1, 2), x_dim=1, hidden_dim=2, y_dim=1)
        params = zero_params(spec)
        params.phi[phi_offsets(spec)[1]] = 0.7
        trace = forward_sequence(params, spec, [[0.3], [0.1], [2.0]])
        assert [y[0] for y in trace.y_steps] == [0.7, 0.7, 0.7]

    def test_scalar_hand_case(self):
        # h=1, x=1, y=1, L={1}: U=[2], b=0, W=[0], V=[1], c=0, x=0.
        spec = RnnSpec(lag_set=(1,), x_dim=1, hidden_dim=1, y_dim=1)
        params = ModelParams(theta=[2.0, 0.0, 0.0], phi=[1.0, 0.0])
        trace = forward_sequence(params, spec, [[0.0]])
        assert trace.h_steps == [[0.5]]
        assert trace.y_steps == [[0.5]]

    def test_tau_one_equals_single_step(self):
        # A first step sees only zero feedbacks, whatever follows it.
        spec = RnnSpec(lag_set=(1, 2), x_dim=3, hidden_dim=4, y_dim=2)
        params = init_params(spec, Rng(31))
        xs = [Rng(32).spawn(t).uniform(-1, 1, 3) for t in range(4)]
        one = forward_sequence(params, spec, xs[:1])
        longer = forward_sequence(params, spec, xs)
        assert one.h_steps == longer.h_steps[:1]
        assert one.y_steps == longer.y_steps[:1]

    def test_recomputation_is_bit_identical(self):
        spec = RnnSpec(lag_set=(1, 3), x_dim=2, hidden_dim=5, y_dim=1)
        params = init_params(spec, Rng(77))
        xs = [Rng(78).spawn(t).uniform(-1, 1, 2) for t in range(9)]
        t1 = forward_sequence(params, spec, xs)
        t2 = forward_sequence(params, spec, xs)
        assert t1.y_steps == t2.y_steps
        assert t1.h_steps == t2.h_steps

    def test_hidden_states_in_open_unit_interval(self):
        spec = RnnSpec(lag_set=(1, 2), x_dim=2, hidden_dim=6, y_dim=2)
        params = init_params(spec, Rng(13))
        xs = [Rng(14).spawn(t).uniform(-3, 3, 2) for t in range(12)]
        trace = forward_sequence(params, spec, xs)
        for h in trace.h_steps:
            assert all(0.0 < v < 1.0 for v in h)

    def test_matches_independent_reference_interpreter(self):
        """Final output equals a from-scratch interpreter, bit for bit."""
        spec = RnnSpec(lag_set=(1, 2), x_dim=3, hidden_dim=4, y_dim=2)
        params = init_params(spec, Rng(55))
        xs = [Rng(56).spawn(t).uniform(-1, 1, 3) for t in range(10)]

        def ref_sigmoid(v):
            if v >= 0:
                return 1.0 / (1.0 + math.exp(-v))
            e = math.exp(v)
            return e / (1.0 + e)

        U, W, b, V, c_out = weights(params, spec)
        outputs = []
        for t in range(1, len(xs) + 1):
            a = []
            for r in range(spec.hidden_dim):
                acc = 0.0
                for c in range(spec.x_dim):
                    acc += U[r * spec.x_dim + c] * xs[t - 1][c]
                acc += b[r]
                for W_l, lag in zip(W, spec.lag_set):
                    fb = outputs[t - lag - 1] if t - lag >= 1 else [0.0, 0.0]
                    for k in range(spec.y_dim):
                        acc += W_l[r * spec.y_dim + k] * fb[k]
                a.append(acc)
            h = [ref_sigmoid(v) for v in a]
            y = []
            for k in range(spec.y_dim):
                acc = 0.0
                for j in range(spec.hidden_dim):
                    acc += V[k * spec.hidden_dim + j] * h[j]
                y.append(acc + c_out[k])
            outputs.append(y)

        trace = forward_sequence(params, spec, xs)
        assert trace.y_final == outputs[-1]

    def test_shift_property_orbit(self):
        """With U = 0 and L = {1}, outputs follow the scalar-map orbit."""
        spec = RnnSpec(lag_set=(1,), x_dim=1, hidden_dim=3, y_dim=1)
        params = init_params(spec, Rng(91))
        params = ModelParams(theta=[0.0] * 3 + params.theta[3:], phi=params.phi)
        xs = [[5.0]] * 8  # exogenous input is disconnected
        trace = forward_sequence(params, spec, xs)

        _, W, b, V, c = weights(params, spec)
        y = [0.0]
        orbit = []
        for _ in range(8):
            a = [b[r] + W[0][r] * y[0] for r in range(3)]
            h = [sigmoid(v) for v in a]
            y = [c[0] + sum(V[j] * h[j] for j in range(3))]
            orbit.append(y[0])
        got = [v[0] for v in trace.y_steps]
        assert all(
            math.isclose(g, o, rel_tol=1e-12, abs_tol=1e-15)
            for g, o in zip(got, orbit)
        )

    def test_empty_sequence_rejected(self):
        spec = RnnSpec(lag_set=(1,), x_dim=1, hidden_dim=1, y_dim=1)
        with pytest.raises(ValueError):
            forward_sequence(zero_params(spec), spec, [])

    def test_non_finite_intermediate_reports_step(self):
        spec = RnnSpec(lag_set=(1,), x_dim=1, hidden_dim=1, y_dim=1)
        params = zero_params(spec)
        params.theta[0] = 1e308
        with pytest.raises(NumericError, match="step 2"):
            forward_sequence(params, spec, [[0.0], [1e308], [0.0]])


class TestForwardKernel:
    """forward_sequence against a double loop in the documented order."""

    @staticmethod
    def reference(params, spec, xs):
        U, W, b, V, c_out = weights(params, spec)
        h_steps, y_steps, projections = [], [], []
        for t in range(1, len(xs) + 1):
            a, projected = [], []
            for r in range(spec.hidden_dim):
                acc = 0.0
                for c in range(spec.x_dim):
                    acc += U[r * spec.x_dim + c] * xs[t - 1][c]
                acc += b[r]
                projected.append(acc)
                for W_l, lag in zip(W, spec.lag_set):
                    if t - lag < 1:
                        continue  # zero feedback before the window start
                    wf = 0.0
                    for k in range(spec.y_dim):
                        wf += W_l[r * spec.y_dim + k] * y_steps[t - lag - 1][k]
                    acc += wf
                a.append(acc)
            projections.append(projected)
            h = [sigmoid(v) for v in a]
            y = []
            for k in range(spec.y_dim):
                acc = 0.0
                for j in range(spec.hidden_dim):
                    acc += V[k * spec.hidden_dim + j] * h[j]
                y.append(acc + c_out[k])
            h_steps.append(h)
            y_steps.append(y)
        return h_steps, y_steps, projections

    def check(self, spec, seed, tau):
        params = init_params(spec, Rng(seed))
        xin = Rng(seed).spawn(1)
        xs = [xin.uniform(-2.0, 2.0, spec.x_dim) for _ in range(tau)]
        trace = forward_sequence(params, spec, xs)
        h_steps, y_steps, want_projections = self.reference(params, spec, xs)
        assert len(trace.h_steps) == len(trace.y_steps) == tau
        for t in range(tau):
            assert trace.h_steps[t] == h_steps[t]
            assert trace.y_steps[t] == y_steps[t]
        # The projection stage alone, then the recurrence on its rows: the
        # same bits, and the caller's rows are left as they were.
        projections = list(project_inputs(params, spec, xs))
        assert projections == want_projections
        steps = list(forward_steps(params, spec, projections))
        assert [h for h, _ in steps] == trace.h_steps
        assert [y for _, y in steps] == trace.y_steps
        assert projections == want_projections

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bit_identical_at_production_shape(self, seed):
        spec = RnnSpec(lag_set=(1, 2, 24), x_dim=13, hidden_dim=15, y_dim=2)
        self.check(spec, seed, tau=49)

    def test_bit_identical_on_window_shorter_than_largest_lag(self):
        spec = RnnSpec(lag_set=(1, 24), x_dim=3, hidden_dim=4, y_dim=2)
        self.check(spec, 7, tau=5)

    def test_input_length_mismatch(self):
        spec = RnnSpec(lag_set=(1,), x_dim=2, hidden_dim=3, y_dim=1)
        params = zero_params(spec)
        xs = [[0.0, 0.0], [0.0]]
        with pytest.raises(ValueError, match="input has length 1, expected 2"):
            forward_sequence(params, spec, xs)
        with pytest.raises(ValueError, match="input has length 1, expected 2"):
            list(project_inputs(params, spec, xs))
        rows = [[0.0, 0.0, 0.0], [0.0, 0.0]]
        with pytest.raises(ValueError, match="input has length 2, expected 3"):
            list(forward_steps(params, spec, rows))

    def test_non_finite_pre_activation_named_with_projections(self):
        spec = RnnSpec(lag_set=(1,), x_dim=1, hidden_dim=1, y_dim=1)
        params = zero_params(spec)
        params.theta[0] = 1e308
        projections = list(project_inputs(params, spec, [[0.0], [1e308], [0.0]]))
        with pytest.raises(NumericError, match="pre-activation at step 2"):
            list(forward_steps(params, spec, projections))


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        spec = RnnSpec(lag_set=(1, 2, 24), x_dim=13, hidden_dim=5, y_dim=2)
        params = init_params(spec, Rng(101))
        path = str(tmp_path / "model.rnnp.json")
        save_checkpoint(path, spec, params, extras={"log_mean": 8.1, "log_std": 0.4})
        spec2, params2, extras = load_checkpoint(path)
        assert spec2 == spec
        assert params2.theta == params.theta
        assert params2.phi == params.phi
        assert extras["log_mean"] == 8.1

    def test_length_mismatch_writes_nothing(self, tmp_path):
        spec = RnnSpec(lag_set=(1,), x_dim=2, hidden_dim=3, y_dim=1)
        params = zero_params(RnnSpec(lag_set=(1,), x_dim=2, hidden_dim=4, y_dim=1))
        with pytest.raises(ValueError, match="theta has length"):
            save_checkpoint(str(tmp_path / "model.json"), spec, params)
        assert list(tmp_path.iterdir()) == []

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text('{"magic": "NOPE", "spec": {}, "theta": [], "phi": []}')
        with pytest.raises(DataValidationError, match="magic"):
            load_checkpoint(str(path))

    @pytest.mark.parametrize(
        "drop, match",
        [("spec", "'spec'"), ("theta", "'theta'"), ("phi", "'phi'"), (None, "lengths")],
    )
    def test_malformed_record_rejected(self, tmp_path, drop, match):
        spec = RnnSpec(lag_set=(1,), x_dim=2, hidden_dim=3, y_dim=1)
        path = str(tmp_path / "model.json")
        save_checkpoint(path, spec, init_params(spec, Rng(1)))
        with open(path) as f:
            record = json.load(f)
        if drop is None:
            record["theta"].pop()
        else:
            del record[drop]
        with open(path, "w") as f:
            json.dump(record, f)
        with pytest.raises(DataValidationError, match=match):
            load_checkpoint(path)

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "cut.json"
        path.write_text('{"magic": "RNNP1", "spec": {"lag_set": [1')
        with pytest.raises(DataValidationError, match="not valid JSON"):
            load_checkpoint(str(path))

    def test_non_utf8_file_rejected(self, tmp_path):
        path = tmp_path / "ck.json"
        path.write_bytes(b"\xff\xfe{}")
        with pytest.raises(DataValidationError, match="ck.json is not valid JSON"):
            load_checkpoint(str(path))

    def test_failed_save_keeps_previous_file(self, tmp_path):
        spec = RnnSpec(lag_set=(1, 2), x_dim=2, hidden_dim=3, y_dim=2)
        params = init_params(spec, Rng(5))
        path = tmp_path / "model.json"
        save_checkpoint(str(path), spec, params)
        before = path.read_bytes()
        with pytest.raises(ValueError):
            save_checkpoint(str(path), spec, params, extras={"x": float("nan")})
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.json"]
