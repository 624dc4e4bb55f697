import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from archsearch import nn_core as nc

from oracles import (adam_reference, adam_step_reference, central_diff_grads,
                     max_rel_error, scalar_lstm_step, softmax_sample_reference)


def seeded_lstm(input_dim=3, hidden_dim=2, seed=0, scale=0.5):
    params = nc.zero_lstm(input_dim, hidden_dim)
    nc.init_lstm(params, np.random.default_rng(seed), scale=scale)
    return params


def dense(token, input_dim):
    """The one-hot input vector a token stands for (zeros for None)."""
    return np.zeros(input_dim) if token is None else np.eye(input_dim)[token]


class TestLstmParams:
    def test_init_draws_per_gate_blocks_in_order(self):
        params = seeded_lstm(5, 3, seed=4, scale=0.3)
        rng = np.random.default_rng(4)
        for gate in nc.GATE_NAMES:
            w, u, b = params.gate(gate)
            np.testing.assert_array_equal(w, rng.uniform(-0.3, 0.3, size=(3, 5)))
            np.testing.assert_array_equal(u, rng.uniform(-0.3, 0.3, size=(3, 3)))
            np.testing.assert_array_equal(b, rng.uniform(-0.3, 0.3, size=3))

    def test_gate_blocks_are_row_views(self):
        params = nc.zero_lstm(4, 2)
        params.gate("o")[0][1, 3] = 7.0
        params.gate("g")[2][0] = 5.0
        assert params.w[2 * 2 + 1, 3] == 7.0
        assert params.b[3 * 2] == 5.0

    def test_bad_shapes_rejected(self):
        with pytest.raises(ValueError):
            nc.LstmCellParams(np.zeros((8, 3)), np.zeros((8, 3)), np.zeros(8))
        with pytest.raises(ValueError):
            nc.LstmCellParams(np.zeros((6, 3)), np.zeros((8, 2)), np.zeros(8))
        with pytest.raises(ValueError):
            nc.LstmCellParams(np.zeros((8, 3)), np.zeros((8, 2)), np.zeros(6))


class TestLstmForward:
    def test_zero_params_give_zero_state(self):
        params = nc.zero_lstm(4, 3)
        for token in (None, 0, 3):
            h, c, _ = nc.lstm_forward(params, token, np.zeros(3), np.zeros(3))
            # gates sit at sigmoid(0)=0.5 but the tanh candidate is 0, so nothing flows
            assert np.all(h == 0.0)
            assert np.all(c == 0.0)

    def test_saturated_gates_hand_values(self):
        # all weights zero; input and output gates forced open, candidate tanh(1)
        params = nc.zero_lstm(1, 1)
        params.gate("i")[2][0] = 30.0
        params.gate("o")[2][0] = 30.0
        params.gate("g")[2][0] = 1.0
        h, c, _ = nc.lstm_forward(params, None, np.zeros(1), np.zeros(1))
        assert c[0] == pytest.approx(math.tanh(1.0), abs=1e-9)
        assert h[0] == pytest.approx(math.tanh(math.tanh(1.0)), abs=1e-9)
        assert c[0] == pytest.approx(0.7616, abs=1e-4)
        assert h[0] == pytest.approx(0.6420, abs=1e-4)

    def test_matches_scalar_reimplementation(self):
        rng = np.random.default_rng(42)
        params = seeded_lstm(5, 4, seed=7)
        for token in (None, 0, 3):
            h_prev = rng.normal(size=4)
            c_prev = rng.normal(size=4)
            h, c, _ = nc.lstm_forward(params, token, h_prev, c_prev)
            h_ref, c_ref = scalar_lstm_step(params, dense(token, 5), h_prev, c_prev)
            np.testing.assert_allclose(h, h_ref, rtol=1e-12)
            np.testing.assert_allclose(c, c_ref, rtol=1e-12)

    def test_dimension_mismatch_rejected(self):
        params = seeded_lstm(3, 2)
        for token in (3, -1):
            with pytest.raises(ValueError):
                nc.lstm_forward(params, token, np.zeros(2), np.zeros(2))
        with pytest.raises(ValueError):
            nc.lstm_forward(params, 0, np.zeros(3), np.zeros(2))

    def test_hidden_state_bounded(self):
        params = seeded_lstm(3, 2, scale=2.0)
        rng = np.random.default_rng(1)
        h = np.zeros(2)
        c = np.zeros(2)
        for _ in range(50):
            h, c, _ = nc.lstm_forward(params, int(rng.integers(3)), h, c)
            assert np.all(np.abs(h) <= 1.0)
            assert np.all(np.isfinite(c))

    def test_determinism(self):
        params = seeded_lstm()
        h1, c1, _ = nc.lstm_forward(params, 1, np.zeros(2), np.zeros(2))
        h2, c2, _ = nc.lstm_forward(params, 1, np.zeros(2), np.zeros(2))
        assert np.array_equal(h1, h2) and np.array_equal(c1, c2)

    def test_sigmoid_equals_split_by_sign_reference(self):
        # the reference evaluates 1/(1+exp(-x)) and exp(x)/(1+exp(x)) on the
        # two sign subsets; the kernel must give the same bits everywhere
        rng = np.random.default_rng(5)
        x = np.concatenate([rng.normal(scale=s, size=500) for s in (0.1, 3.0, 40.0)]
                           + [np.array([0.0, -0.0, 745.0, -745.0, 1e300, -1e300])])
        ref = np.empty_like(x)
        pos = x >= 0
        ref[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        ref[~pos] = ex / (1.0 + ex)
        np.testing.assert_array_equal(nc.sigmoid(x).view(np.int64), ref.view(np.int64))


class TestLstmBackward:
    def run_forward(self, params, tokens):
        h = np.zeros(params.hidden_dim)
        c = np.zeros(params.hidden_dim)
        caches = []
        for token in tokens:
            h, c, cache = nc.lstm_forward(params, token, h, c)
            caches.append(cache)
        return caches

    def test_zero_output_grads_give_zero_param_grads(self):
        params = seeded_lstm()
        caches = self.run_forward(params, [None, 1, 1, 2])
        grads = nc.lstm_backward(params, caches, [np.zeros(2)] * 4)
        for g in grads.tensors().values():
            assert np.all(g == 0.0)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_three_step_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        params = seeded_lstm(3, 2, seed=seed, scale=0.6)
        tokens = [None] + [int(rng.integers(3)) for _ in range(2)]
        weights = [rng.normal(size=2) for _ in range(3)]

        def loss():
            h = np.zeros(2)
            c = np.zeros(2)
            total = 0.0
            for token, w in zip(tokens, weights):
                h, c, _ = nc.lstm_forward(params, token, h, c)
                total += float(w @ h)
            return total

        caches = self.run_forward(params, tokens)
        analytic = nc.lstm_backward(params, caches, weights).tensors()
        numeric = central_diff_grads(loss, params.tensors())
        assert max_rel_error(analytic, numeric) < 1e-4

    def test_single_step_symbolic_gradient(self):
        # hidden 1, input 1, only w_i=a and w_g=b nonzero; token 0 is input x=1:
        # h = 0.5*tanh(sig(a)*tanh(b))
        a, b, x = 0.7, -0.4, 1.0
        params = nc.zero_lstm(1, 1)
        params.gate("i")[0][0, 0] = a
        params.gate("g")[0][0, 0] = b
        h, c, cache = nc.lstm_forward(params, 0, np.zeros(1), np.zeros(1))
        grads = nc.lstm_backward(params, [cache], [np.ones(1)])

        sig = 1.0 / (1.0 + math.exp(-a * x))
        g = math.tanh(b * x)
        cc = sig * g
        dtanh_c = 1.0 - math.tanh(cc) ** 2
        dh_da = 0.5 * dtanh_c * g * sig * (1.0 - sig) * x
        dh_db = 0.5 * dtanh_c * sig * (1.0 - g * g) * x
        dh_dbo = math.tanh(cc) * 0.5 * 0.5  # o=sig(0)=0.5, derivative o(1-o)

        assert grads.gate("i")[0][0, 0] == pytest.approx(dh_da, rel=1e-12)
        assert grads.gate("g")[0][0, 0] == pytest.approx(dh_db, rel=1e-12)
        assert grads.gate("o")[2][0] == pytest.approx(dh_dbo, rel=1e-12)

    def test_cache_mismatch_rejected(self):
        params = seeded_lstm(3, 2)
        other = seeded_lstm(4, 2)
        caches = self.run_forward(other, [3] * 2)
        with pytest.raises(ValueError):
            nc.lstm_backward(params, caches, [np.zeros(2)] * 2)
        with pytest.raises(ValueError):
            nc.lstm_backward(params, [], [np.zeros(2)])

    def test_out_of_other_dimensions_rejected(self):
        params = seeded_lstm(3, 2)
        caches = self.run_forward(params, [None, 2])
        for out in (nc.zero_lstm(4, 2), nc.zero_lstm(3, 3)):
            with pytest.raises(ValueError):
                nc.lstm_backward(params, caches, [np.zeros(2)] * 2, out=out)


class TestSoftmaxSample:
    def test_uniform_for_equal_logits(self):
        probs = nc.softmax_probs(np.full(5, 1.3))
        np.testing.assert_allclose(probs, 0.2, rtol=1e-15)

    def test_saturation(self):
        index, log_prob, probs = nc.softmax_sample(
            np.array([50.0, -50.0, -50.0]), np.random.default_rng(0))
        assert index == 0
        assert log_prob == pytest.approx(0.0, abs=1e-12)
        assert probs[0] == pytest.approx(1.0, abs=1e-12)

    def test_empty_logits_rejected(self):
        with pytest.raises(ValueError):
            nc.softmax_probs(np.array([]))

    def test_probs_sum_to_one(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            logits = rng.normal(scale=30.0, size=rng.integers(1, 8))
            probs = nc.softmax_probs(logits)
            assert abs(probs.sum() - 1.0) < 1e-12
            assert np.all(np.isfinite(probs))

    def test_monte_carlo_frequencies(self):
        logits = np.array([0.1, 0.3, -0.2])
        expected = nc.softmax_probs(logits)
        rng = np.random.default_rng(12345)
        counts = np.zeros(3)
        draws = 100_000
        for _ in range(draws):
            index, _, _ = nc.softmax_sample(logits, rng)
            counts[index] += 1
        np.testing.assert_allclose(counts / draws, expected, atol=0.01)

    def test_log_prob_consistent_with_probs(self):
        rng = np.random.default_rng(9)
        logits = rng.normal(size=4)
        index, log_prob, probs = nc.softmax_sample(logits, rng)
        assert log_prob == float(np.log(probs[index]))

    def test_determinism_under_seed(self):
        logits = np.array([0.4, -1.2, 0.9, 0.0])
        draws1 = [nc.softmax_sample(logits, np.random.default_rng(11))[0] for _ in range(1)]
        draws2 = [nc.softmax_sample(logits, np.random.default_rng(11))[0] for _ in range(1)]
        assert draws1 == draws2


    @settings(max_examples=300, deadline=None)
    @given(logits=st.lists(st.floats(allow_nan=False, allow_infinity=False),
                           min_size=1, max_size=8),
           seed=st.integers(min_value=0, max_value=2**128 - 1))
    def test_matches_module_function_formula(self, logits, seed):
        logits = np.array(logits)
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        with np.errstate(all="ignore"):  # extreme logits over/underflow alike
            index, log_prob, probs = nc.softmax_sample(logits, rng)
            ref_index, ref_log_prob, ref_probs = softmax_sample_reference(logits, ref_rng)
        assert index == ref_index
        assert repr(log_prob) == repr(ref_log_prob)
        assert repr(probs.tolist()) == repr(ref_probs.tolist())
        assert rng.random() == ref_rng.random()  # one draw taken by each


def buffer(**tensors):
    """A ParamBuffer holding copies of the given arrays."""
    buf = nc.ParamBuffer({name: np.shape(value) for name, value in tensors.items()})
    for name, value in tensors.items():
        buf[name][...] = value
    return buf


class TestParamBuffer:
    def test_views_tile_the_flat_array_in_order(self):
        buf = buffer(a=np.arange(6.0).reshape(2, 3), b=np.array([6.0, 7.0]))
        np.testing.assert_array_equal(buf.flat, np.arange(8.0))
        assert list(buf) == ["a", "b"] and len(buf) == 2
        buf["b"][1] = -1.0
        buf.flat[0] = 9.0
        assert buf.flat[7] == -1.0 and buf["a"][0, 0] == 9.0
        zeros = buf.like()
        assert zeros.shapes == {"a": (2, 3), "b": (2,)}
        assert np.all(zeros.flat == 0.0)


class TestAdam:
    def test_zero_gradient_keeps_params(self):
        params = buffer(w=np.array([1.0, -2.0]))
        state = nc.AdamState.for_params(params, lr=0.1)
        before = params["w"].copy()
        nc.adam_step(params, buffer(w=np.zeros(2)), state)
        np.testing.assert_array_equal(params["w"], before)
        assert state.t == 1

    def test_first_step_hand_value(self):
        # unit gradient: bias correction makes m_hat = v_hat = 1, so the
        # ascent step is lr / (1 + eps)
        params = buffer(w=np.array([0.0]))
        state = nc.AdamState.for_params(params, lr=0.03)
        nc.adam_step(params, buffer(w=np.array([1.0])), state)
        assert params["w"][0] == pytest.approx(0.03 / (1.0 + 1e-8), rel=1e-15)
        assert params["w"][0] == pytest.approx(0.03, abs=1e-8)

    def test_two_steps_match_reference_recurrence(self):
        params = buffer(w=np.array([0.5]))
        state = nc.AdamState.for_params(params, lr=0.01)
        for _ in range(2):
            nc.adam_step(params, buffer(w=np.array([-0.3])), state)
        expected = adam_reference(0.5, [-0.3, -0.3], lr=0.01)
        assert params["w"][0] == pytest.approx(expected, rel=1e-15)

    def test_every_entry_of_every_tensor_follows_the_recurrence(self):
        rng = np.random.default_rng(8)
        start = {"a": rng.normal(size=(2, 3)), "b": rng.normal(size=4)}
        steps = [{name: rng.normal(size=p.shape) for name, p in start.items()}
                 for _ in range(3)]
        params = buffer(**start)
        state = nc.AdamState.for_params(params, lr=0.02)
        for grads in steps:
            nc.adam_step(params, buffer(**grads), state)
        for name, p0 in start.items():
            for ix in np.ndindex(p0.shape):
                expected = adam_reference(p0[ix], [g[name][ix] for g in steps], lr=0.02)
                assert params[name][ix] == pytest.approx(expected, rel=1e-15)

    @pytest.mark.parametrize("scratch", ["fresh", "nan", "garbage"])
    def test_bytes_do_not_depend_on_scratch(self, scratch):
        rng = np.random.default_rng(21)
        start = {"a": rng.normal(size=(3, 4)), "b": rng.normal(size=5)}
        steps = [{name: rng.normal(size=p.shape) for name, p in start.items()}
                 for _ in range(3)]
        params, ref_params = buffer(**start), buffer(**start)
        state = nc.AdamState.for_params(params, lr=0.03)
        ref_state = nc.AdamState.for_params(ref_params, lr=0.03)
        for grads in steps:
            if scratch == "nan":
                state.scratch = np.full((2, params.flat.size), np.nan)
            elif scratch == "garbage":
                state.scratch = rng.normal(scale=1e300, size=(2, params.flat.size))
            nc.adam_step(params, buffer(**grads), state)
            adam_step_reference(ref_params, buffer(**grads), ref_state)
            assert params.flat.tobytes() == ref_params.flat.tobytes()
            assert state.m.flat.tobytes() == ref_state.m.flat.tobytes()
            assert state.v.flat.tobytes() == ref_state.v.flat.tobytes()
        assert state.t == ref_state.t == 3

    def test_ascent_direction(self):
        params = buffer(w=np.array([0.0]))
        state = nc.AdamState.for_params(params, lr=0.05)
        nc.adam_step(params, buffer(w=np.array([2.0])), state)
        assert params["w"][0] > 0.0  # positive reward gradient moves up

    def test_shape_mismatch_rejected(self):
        params = buffer(w=np.zeros(2))
        state = nc.AdamState.for_params(params, lr=0.1)
        with pytest.raises(ValueError):
            nc.adam_step(params, buffer(w=np.zeros(3)), state)
        with pytest.raises(ValueError):
            nc.adam_step(params, buffer(v=np.zeros(2)), state)

    def test_bad_hyperparameters_rejected(self):
        with pytest.raises(ValueError):
            nc.AdamState(lr=0.1, beta1=1.0)
        with pytest.raises(ValueError):
            nc.AdamState(lr=0.1, beta2=-0.2)
        with pytest.raises(ValueError):
            nc.AdamState(lr=0.1, t=-1)


class TestClipping:
    def test_norm_reported_and_clipped(self):
        grads = {"a": np.array([3.0, 4.0])}
        norm = nc.clip_by_global_norm(grads, 1.0)
        assert norm == pytest.approx(5.0)
        assert nc.global_norm(grads) == pytest.approx(1.0)

    def test_no_clip_below_threshold(self):
        grads = {"a": np.array([0.3, 0.4])}
        nc.clip_by_global_norm(grads, 1.0)
        np.testing.assert_allclose(grads["a"], [0.3, 0.4])
