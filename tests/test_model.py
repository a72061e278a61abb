"""Architecture contracts: parameter counts, packing, forward pass."""

import json
import math

import pytest

from rnnp.base import DataValidationError, NumericError
from rnnp.linalg import Matrix, Rng
from rnnp.model import (
    FlatParams,
    ModelParams,
    RnnSpec,
    forward_sequence,
    forward_steps,
    init_params,
    load_checkpoint,
    pack,
    project_inputs,
    save_checkpoint,
    sigmoid,
    unpack,
)


def zero_params(spec):
    return ModelParams(
        U=Matrix.zeros(spec.hidden_dim, spec.x_dim),
        W=[Matrix.zeros(spec.hidden_dim, spec.y_dim) for _ in spec.lag_set],
        b=[0.0] * spec.hidden_dim,
        V=Matrix.zeros(spec.y_dim, spec.hidden_dim),
        c=[0.0] * spec.y_dim,
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
        p = init_params(spec, Rng(0))
        assert p.b == [0.0] * 3
        assert p.c == [0.0]

    def test_glorot_bounds(self):
        spec = RnnSpec(lag_set=(1,), x_dim=5, hidden_dim=7, y_dim=2)
        p = init_params(spec, Rng(5))
        r_u = math.sqrt(6.0 / (5 + 7))
        assert all(abs(v) <= r_u for v in p.U.data)
        r_v = math.sqrt(6.0 / (7 + 2))
        assert all(abs(v) <= r_v for v in p.V.data)


class TestPacking:
    def test_round_trip_params(self):
        spec = RnnSpec(lag_set=(1, 2, 5), x_dim=3, hidden_dim=4, y_dim=2)
        params = init_params(spec, Rng(21))
        again = unpack(pack(params, spec), spec)
        assert pack(again, spec) == pack(params, spec)

    def test_round_trip_flat(self):
        spec = RnnSpec(lag_set=(1, 2), x_dim=2, hidden_dim=3, y_dim=1)
        rng = Rng(8)
        flat = FlatParams(
            theta=rng.uniform(-1, 1, spec.theta_size),
            phi=rng.uniform(-1, 1, spec.phi_size),
        )
        again = pack(unpack(flat, spec), spec)
        assert again.theta == flat.theta
        assert again.phi == flat.phi

    def test_flat_index_of_u00_is_zero(self):
        spec = RnnSpec(lag_set=(1,), x_dim=2, hidden_dim=2, y_dim=1)
        params = zero_params(spec)
        params.U.data[0] = 42.0
        assert pack(params, spec).theta[0] == 42.0

    def test_unpack_length_mismatch(self):
        spec = RnnSpec(lag_set=(1,), x_dim=1, hidden_dim=1, y_dim=1)
        with pytest.raises(ValueError):
            unpack(FlatParams(theta=[0.0], phi=[0.0, 0.0]), spec)


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
        params.c[0] = 0.7
        trace = forward_sequence(params, spec, [[0.3], [0.1], [2.0]])
        assert [y[0] for y in trace.y_steps] == [0.7, 0.7, 0.7]

    def test_scalar_hand_case(self):
        # h=1, x=1, y=1, L={1}: U=[2], b=0, W=[0], V=[1], c=0, x=0.
        spec = RnnSpec(lag_set=(1,), x_dim=1, hidden_dim=1, y_dim=1)
        params = ModelParams(
            U=Matrix(1, 1, [2.0]),
            W=[Matrix(1, 1, [0.0])],
            b=[0.0],
            V=Matrix(1, 1, [1.0]),
            c=[0.0],
        )
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

        outputs = []
        for t in range(1, len(xs) + 1):
            a = []
            for r in range(spec.hidden_dim):
                acc = 0.0
                for c in range(spec.x_dim):
                    acc += params.U.data[r * spec.x_dim + c] * xs[t - 1][c]
                acc += params.b[r]
                for W_l, lag in zip(params.W, spec.lag_set):
                    fb = outputs[t - lag - 1] if t - lag >= 1 else [0.0, 0.0]
                    for k in range(spec.y_dim):
                        acc += W_l.data[r * spec.y_dim + k] * fb[k]
                a.append(acc)
            h = [ref_sigmoid(v) for v in a]
            y = []
            for k in range(spec.y_dim):
                acc = 0.0
                for j in range(spec.hidden_dim):
                    acc += params.V.data[k * spec.hidden_dim + j] * h[j]
                y.append(acc + params.c[k])
            outputs.append(y)

        trace = forward_sequence(params, spec, xs)
        assert trace.y_final == outputs[-1]

    def test_shift_property_orbit(self):
        """With U = 0 and L = {1}, outputs follow the scalar-map orbit."""
        spec = RnnSpec(lag_set=(1,), x_dim=1, hidden_dim=3, y_dim=1)
        params = init_params(spec, Rng(91))
        params = ModelParams(
            U=Matrix.zeros(3, 1), W=params.W, b=params.b, V=params.V, c=params.c
        )
        xs = [[5.0]] * 8  # exogenous input is disconnected
        trace = forward_sequence(params, spec, xs)

        y = [0.0]
        orbit = []
        for _ in range(8):
            a = [params.b[r] + params.W[0].data[r] * y[0] for r in range(3)]
            h = [sigmoid(v) for v in a]
            y = [params.c[0] + sum(params.V.data[j] * h[j] for j in range(3))]
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
        params.U.data[0] = 1e308
        with pytest.raises(NumericError, match="step 2"):
            forward_sequence(params, spec, [[0.0], [1e308], [0.0]])


class TestForwardKernel:
    """forward_sequence against a double loop in the documented order."""

    @staticmethod
    def reference(params, spec, xs):
        h_steps, y_steps, projections = [], [], []
        for t in range(1, len(xs) + 1):
            a, projected = [], []
            for r in range(spec.hidden_dim):
                acc = 0.0
                for c in range(spec.x_dim):
                    acc += params.U.data[r * spec.x_dim + c] * xs[t - 1][c]
                acc += params.b[r]
                projected.append(acc)
                for W_l, lag in zip(params.W, spec.lag_set):
                    if t - lag < 1:
                        continue  # zero feedback before the window start
                    wf = 0.0
                    for k in range(spec.y_dim):
                        wf += W_l.data[r * spec.y_dim + k] * y_steps[t - lag - 1][k]
                    acc += wf
                a.append(acc)
            projections.append(projected)
            h = [sigmoid(v) for v in a]
            y = []
            for k in range(spec.y_dim):
                acc = 0.0
                for j in range(spec.hidden_dim):
                    acc += params.V.data[k * spec.hidden_dim + j] * h[j]
                y.append(acc + params.c[k])
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
        params.U.data[0] = 1e308
        projections = list(project_inputs(params, spec, [[0.0], [1e308], [0.0]]))
        with pytest.raises(NumericError, match="pre-activation at step 2"):
            list(forward_steps(params, spec, projections))


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        spec = RnnSpec(lag_set=(1, 2, 24), x_dim=13, hidden_dim=5, y_dim=2)
        params = init_params(spec, Rng(101))
        flat = pack(params, spec)
        path = str(tmp_path / "model.rnnp.json")
        save_checkpoint(path, spec, flat, extras={"log_mean": 8.1, "log_std": 0.4})
        spec2, flat2, extras = load_checkpoint(path)
        assert spec2 == spec
        assert flat2.theta == flat.theta
        assert flat2.phi == flat.phi
        assert extras["log_mean"] == 8.1

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
        save_checkpoint(path, spec, pack(init_params(spec, Rng(1)), spec))
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
        flat = pack(init_params(spec, Rng(5)), spec)
        path = tmp_path / "model.json"
        save_checkpoint(str(path), spec, flat)
        before = path.read_bytes()
        with pytest.raises(ValueError):
            save_checkpoint(str(path), spec, flat, extras={"x": float("nan")})
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.json"]
