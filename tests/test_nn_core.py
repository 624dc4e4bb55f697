import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from archsearch import nn_core as nc
from archsearch.controller import create_controller, param_blocks
from archsearch.search_space import build_space

from oracles import (adam_reference, adam_step_reference, central_diff_grads,
                     global_norm_reference, lstm_step_reference, max_rel_error,
                     scalar_lstm_step, sequential_outer_sum, sigmoid_reference,
                     softmax_sample_reference, stepwise_lstm_backward)


def zero_lstm(input_dim, hidden_dim):
    """An all-zero cell over its own buffer."""
    return nc.LstmCellParams.from_tensors(nc.ParamBuffer(nc.lstm_shapes(input_dim, hidden_dim)))


def named(cell):
    """A cell's tensors under the names of `nc.lstm_shapes`."""
    return {"lstm.w": cell.w, "lstm.u": cell.u, "lstm.b": cell.b}


def sigmoid_scratch(size):
    """The scratch `nc.sigmoid` takes for ``size`` entries."""
    return np.empty(size), np.empty(size), np.empty(size, dtype=bool)


def seeded_lstm(input_dim=3, hidden_dim=2, seed=0, scale=0.5):
    """A cell drawn from [-scale, scale] gate by gate, w then u then b."""
    params = zero_lstm(input_dim, hidden_dim)
    rng = np.random.default_rng(seed)
    for gate in nc.GATE_NAMES:
        for block in params.gate(gate):
            block[...] = rng.uniform(-scale, scale, size=block.shape)
    return params


def column(params, token):
    """Token ``token``'s column of w, the input `nc.lstm_forward` takes."""
    return None if token is None else params.w[:, token]


def step(params, token, h_prev, c_prev):
    """One `nc.lstm_forward` step into fresh rows."""
    n = params.hidden_dim
    rows = (np.empty(4 * n), np.empty(n), np.empty(n), np.empty(n))
    return nc.lstm_forward(params, column(params, token), h_prev, c_prev,
                           out=nc.forward_views(*rows))


def backward(params, record, output_grads):
    """`nc.lstm_backward` into a fresh cell."""
    return nc.lstm_backward(params, record, output_grads,
                            out=zero_lstm(params.input_dim, params.hidden_dim))


# signed zeros and subnormals next to ordinary values; bounded so that no
# product or sum of a few of them overflows
FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -3e-310]),
    st.floats(min_value=-1e100, max_value=1e100))


def bits(x):
    """The bit patterns of a float64 array: equal only if every sign and digit is."""
    return np.ascontiguousarray(x).view(np.int64)


def dense(token, input_dim):
    """The one-hot input vector a token stands for (zeros for None)."""
    return np.zeros(input_dim) if token is None else np.eye(input_dim)[token]


class TestLstmParams:
    def test_gate_blocks_are_row_views(self):
        params = zero_lstm(4, 2)
        params.gate("o")[0][1, 3] = 7.0
        params.gate("g")[2][0] = 5.0
        assert params.w[2 * 2 + 1, 3] == 7.0
        assert params.b[3 * 2] == 5.0


class TestLstmForward:
    def test_zero_params_give_zero_state(self):
        params = zero_lstm(4, 3)
        for token in (None, 0, 3):
            h, c = step(params, token, np.zeros(3), np.zeros(3))
            # gates sit at sigmoid(0)=0.5 but the tanh candidate is 0, so nothing flows
            assert np.all(h == 0.0)
            assert np.all(c == 0.0)

    def test_saturated_gates_hand_values(self):
        # all weights zero; input and output gates forced open, candidate tanh(1)
        params = zero_lstm(1, 1)
        params.gate("i")[2][0] = 30.0
        params.gate("o")[2][0] = 30.0
        params.gate("g")[2][0] = 1.0
        h, c = step(params, None, np.zeros(1), np.zeros(1))
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
            h, c = step(params, token, h_prev, c_prev)
            h_ref, c_ref = scalar_lstm_step(params, dense(token, 5), h_prev, c_prev)
            np.testing.assert_allclose(h, h_ref, rtol=1e-12)
            np.testing.assert_allclose(c, c_ref, rtol=1e-12)

    def test_hidden_state_bounded(self):
        params = seeded_lstm(3, 2, scale=2.0)
        rng = np.random.default_rng(1)
        h = np.zeros(2)
        c = np.zeros(2)
        for _ in range(50):
            h, c = step(params, int(rng.integers(3)), h, c)
            assert np.all(np.abs(h) <= 1.0)
            assert np.all(np.isfinite(c))

    def test_determinism(self):
        params = seeded_lstm()
        h1, c1 = step(params, 1, np.zeros(2), np.zeros(2))
        h2, c2 = step(params, 1, np.zeros(2), np.zeros(2))
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
        got = nc.sigmoid(x.copy(), sigmoid_scratch(len(x)))
        np.testing.assert_array_equal(got.view(np.int64), ref.view(np.int64))


def run_forward(params, tokens):
    """The record of a forward pass over ``tokens`` from the zero state."""
    record = nc.LstmRecord.empty(len(tokens), params.hidden_dim)
    for t, token in enumerate(tokens):
        record.tokens[t] = -1 if token is None else token
        nc.lstm_forward(params, column(params, token), record.h[t], record.c[t],
                        out=nc.forward_views(record.gates[t], record.c[t + 1],
                                             record.tanh_c[t], record.h[t + 1]))
    return record


class TestLstmBackward:
    def test_zero_output_grads_give_zero_param_grads(self):
        params = seeded_lstm()
        record = run_forward(params, [None, 1, 0, 2])
        grads = backward(params, record, np.zeros((4, 2)))
        for g in named(grads).values():
            assert np.all(g == 0.0)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_three_step_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        params = seeded_lstm(3, 2, seed=seed, scale=0.6)
        tokens = [None] + rng.choice(3, size=2, replace=False).tolist()
        weights = rng.normal(size=(3, 2))

        def loss():
            h = np.zeros(2)
            c = np.zeros(2)
            total = 0.0
            for token, w in zip(tokens, weights):
                h, c = step(params, token, h, c)
                total += float(w @ h)
            return total

        analytic = named(backward(params, run_forward(params, tokens), weights))
        numeric = central_diff_grads(loss, named(params))
        assert max_rel_error(analytic, numeric) < 1e-4

    def test_single_step_symbolic_gradient(self):
        # hidden 1, input 1, only w_i=a and w_g=b nonzero. Step 0 takes no
        # input, so it leaves h = c = 0; step 1 takes token 0, input x=1:
        # h = 0.5*tanh(sig(a)*tanh(b)), the only output with a gradient. Step
        # 0 adds nothing to the checked entries: it feeds no token, so no w
        # column, and its dh is 0 (u is zero), so b_o's row is 0.
        a, b, x = 0.7, -0.4, 1.0
        params = zero_lstm(1, 1)
        params.gate("i")[0][0, 0] = a
        params.gate("g")[0][0, 0] = b
        grads = backward(params, run_forward(params, [None, 0]), np.array([[0.0], [1.0]]))

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
        record = run_forward(other, [None, 3])  # a token params has no column for
        with pytest.raises(ValueError):
            backward(params, record, np.zeros((2, 2)))
        with pytest.raises(ValueError):
            backward(params, run_forward(params, []), np.zeros((1, 2)))

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), input_dim=st.integers(1, 6), hidden_dim=st.integers(1, 4),
           seed=st.integers(0, 2**32 - 1))
    def test_equals_step_by_step_accumulation(self, data, input_dim, hidden_dim, seed):
        """Whole-rollout sums give the bits of adding each step as it is reached.

        The distinct tokens after step 0 come in any order, and hidden size
        1 makes every axis but the gates' of length 1.
        """
        params = seeded_lstm(input_dim, hidden_dim, seed=seed, scale=1.5)
        steps = data.draw(st.integers(1, input_dim + 1), label="steps")
        tokens = [None] + data.draw(st.permutations(range(input_dim)))[:steps - 1]
        record = run_forward(params, tokens)
        output_grads = data.draw(arrays(np.float64, (steps, hidden_dim), elements=FLOATS))
        out = zero_lstm(input_dim, hidden_dim)
        for tensor in named(out).values():
            tensor.fill(np.nan)  # never read
        grads = named(nc.lstm_backward(params, record, output_grads, out=out))
        expected = stepwise_lstm_backward(params, record, output_grads)
        for name, tensor in expected.items():
            assert np.array_equal(bits(grads[name]), bits(tensor)), name

    @pytest.mark.parametrize("tokens", [
        [], [0, 1], [0, None], [None, 1, 1], [None, 1, None], [None, 3], [None, -2]],
        ids=["no-steps", "token-at-step-0", "token-at-step-0-none-after", "repeated-token",
             "none-after-step-0", "token-above-range", "token-below-range"])
    def test_record_of_another_form_refused(self, tokens):
        """A rollout has steps, no input at step 0 and a distinct token of
        the cell's range at each later step; the `w` gradient's one scatter
        relies on that."""
        params = seeded_lstm(3, 2)
        record = run_forward(params, [None] * len(tokens))
        record.tokens[:] = [-1 if token is None else token for token in tokens]
        with pytest.raises(ValueError, match="a rollout.s tokens"):
            backward(params, record, np.zeros((len(tokens), 2)))

    def test_out_of_other_hidden_size_refused_by_the_outer_sum(self):
        """`out`'s shapes go unchecked, but a `u` gradient of another shape is
        still refused by `ordered_outer_sum`, before `out` is written."""
        params = seeded_lstm(3, 2)
        record = run_forward(params, [None, 2])
        with pytest.raises(ValueError, match="C-contiguous"):
            nc.lstm_backward(params, record, np.zeros((2, 2)), out=zero_lstm(3, 3))

    @pytest.mark.parametrize("hidden_dim", [1, 20])
    def test_scratch_reused_across_calls_and_step_counts(self, hidden_dim):
        """One cell through 78, 6, 78, 1, 6 and 6 steps, each call on a record
        of its own: a row, ``dh_next`` or ``dc_next`` left over from an
        earlier call would change the bits of a later one."""
        params = seeded_lstm(204, hidden_dim, seed=hidden_dim, scale=0.6)
        rng = np.random.default_rng(hidden_dim)
        scratches = []
        for steps in (78, 6, 78, 1, 6, 6):
            tokens = [None] + rng.choice(204, size=steps - 1, replace=False).tolist()
            record = run_forward(params, tokens)
            output_grads = rng.normal(size=(steps, hidden_dim))
            grads = named(backward(params, record, output_grads))
            expected = stepwise_lstm_backward(params, record, output_grads)
            for name, tensor in expected.items():
                assert np.array_equal(bits(grads[name]), bits(tensor)), (steps, name)
            scratches.append(params.backward_scratch)
        assert [scratch.steps for scratch in scratches] == [78, 6, 78, 1, 6, 6]
        assert scratches[-1] is scratches[-2]  # kept while the step count stays


class TestKernelFacts:
    """The numeric facts the per-step kernels rely on, each against the
    plain computation it replaces."""

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 80), seed=st.integers(0, 2**32 - 1))
    def test_stacked_gate_products_equal_four_gemvs(self, n, seed):
        rng = np.random.default_rng(seed)
        u = rng.normal(size=(4 * n, n))
        d_pre = rng.normal(size=4 * n)
        stacked = np.matmul(u.reshape(4, n, n).transpose(0, 2, 1), d_pre.reshape(4, n, 1))
        u_t = u.T  # its column blocks are each gate's u.T
        for k in range(4):
            gemv = u_t[:, k * n:(k + 1) * n] @ d_pre[k * n:(k + 1) * n]
            assert np.array_equal(bits(stacked[k, :, 0]), bits(gemv)), k

    @settings(max_examples=300, deadline=None)
    @given(x=arrays(np.float64, st.integers(1, 40), elements=st.one_of(
        st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -3e-310,
                         745.0, -745.0, 1e300, -1e300, math.inf, -math.inf]),
        st.floats(allow_nan=False))))
    def test_scratch_sigmoid_equals_fresh_arrays(self, x):
        got = nc.sigmoid(x.copy(), sigmoid_scratch(len(x)))
        assert np.array_equal(bits(got), bits(sigmoid_reference(x)))

    @settings(max_examples=300, deadline=None)
    @given(logits=st.lists(st.floats(-800.0, 800.0), min_size=2, max_size=2),
           u=st.floats(0.0, 1.0, exclude_max=True), nudge=st.sampled_from([None, -1, 0, 1]))
    def test_two_way_pick_equals_searchsorted(self, logits, u, nudge):
        """u >= p0 picks what the capped searchsorted on the cumsum picks,
        also at u == p0 and one step either side of it."""
        probs = np.array(logits)
        nc.softmax_sample(probs, 0.5)
        if nudge is not None:
            u = float(np.nextafter(probs[0], (-1.0, probs[0], 2.0)[nudge + 1]))
        expected = min(int(probs.cumsum().searchsorted(u, side="right")), 1)
        assert nc.softmax_sample(np.array(logits), u) == expected

    @settings(max_examples=400, deadline=None)
    @given(data=st.data(), n=st.integers(3, 9),
           scale=st.sampled_from([0.01, 0.1, 1.0, 5.0, 30.0]))
    def test_multi_way_pick_equals_capped_searchsorted(self, data, n, scale):
        """Sums added left to right in a Python float are the bits of a
        float64 cumsum, so the first index whose sum exceeds u is the capped
        searchsorted's: also with tied logits, and at u equal to a sum or
        one step either side of it."""
        units = data.draw(st.lists(st.one_of(st.sampled_from([-1.0, 0.0, 0.5, 1.0]),
                                             st.floats(-1.0, 1.0)),
                                   min_size=n, max_size=n), label="units")
        logits = np.array(units) * scale
        probs = nc.softmax_probs(logits.copy())
        cumsum = np.cumsum(probs)
        total, sums = 0.0, []
        for p in probs:
            total += p
            sums.append(total)
        assert np.array(sums).tobytes() == cumsum.tobytes()
        u = data.draw(st.one_of(st.floats(0.0, 1.0, exclude_max=True), st.builds(
            lambda k, nudge: float(np.nextafter(cumsum[k], (-1.0, cumsum[k], 2.0)[nudge + 1])),
            st.integers(0, n - 1), st.sampled_from([-1, 0, 0, 1]))), label="u")
        expected = min(int(cumsum.searchsorted(u, side="right")), n - 1)
        assert nc.softmax_sample(logits.copy(), u) == expected

    @settings(max_examples=500, deadline=None)
    @given(x=arrays(np.float64, st.integers(1, 10), elements=st.one_of(
        st.sampled_from([0.0, -0.0, 1.0, 1e300, -1e300, math.inf, -math.inf, math.nan]),
        st.floats(-50.0, 50.0))))
    def test_list_max_gives_the_softmax_of_the_max_reduce(self, x):
        """`softmax_probs` takes its max as max(x.tolist()), not by a 0-d
        np.maximum.reduce. The two differ only in the sign of a zero max,
        which exp hides, and when a nan is not first: a nan or an inf
        logit gives all-nan probabilities either way. Ties included."""
        with np.errstate(all="ignore"):
            reduced = np.exp(x - np.maximum.reduce(x))
            reduced /= np.add.reduce(reduced)
            listed = np.array(nc.softmax_probs(x.copy()))
        if np.isnan(reduced).any():
            assert np.isnan(reduced).all() and np.isnan(listed).all()
        else:
            assert np.array_equal(bits(listed), bits(reduced))

    @settings(max_examples=500, deadline=None)
    @given(x=arrays(np.float64, st.integers(2, 7), elements=st.one_of(
        st.sampled_from([0.0, 5e-324, 1.0, 1e300, math.inf, math.nan]), st.floats(0.0, 1.0))))
    def test_float_sum_is_add_reduce_below_8_entries(self, x):
        """Up to 7 entries `np.add.reduce` adds left to right, as a Python
        float does (the exps `softmax_probs` sums are >= 0 or nan)."""
        total = 0.0
        for e in x.tolist():
            total += e
        assert bits(np.float64(total)) == bits(np.add.reduce(x))

    def test_float_sum_is_not_add_reduce_from_8_entries(self):
        """From 8 entries numpy sums in blocks, so `softmax_probs` keeps
        `np.add.reduce` there."""
        rng = np.random.default_rng(8)
        for n in (8, 9, 16):
            differs = 0
            for x in rng.random((200, n)):
                total = 0.0
                for e in x.tolist():
                    total += e
                differs += total != np.add.reduce(x)
            assert differs > 0, n

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**128 - 1), steps=st.integers(0, 100),
           warmup=st.integers(0, 3))
    def test_uniforms_drawn_at_once_equal_scalar_draws(self, seed, steps, warmup):
        whole, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
        whole.random(warmup)
        scalar.random(warmup)
        drawn = whole.random(steps).tolist()
        assert drawn == [scalar.random() for _ in range(steps)]
        assert whole.bit_generator.state == scalar.bit_generator.state

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), shapes=st.lists(
        st.lists(st.integers(1, 5), min_size=1, max_size=2).map(tuple), min_size=1, max_size=5))
    def test_block_norm_equals_norm_of_fresh_squares(self, data, shapes):
        """The norm of one float sum of fresh squares per block, added in
        block order, with all-zero blocks, and clipping only above the
        bound: a norm equal to it leaves the gradient."""
        tensors = {f"t{k}": data.draw(arrays(np.float64, shape, elements=st.one_of(
            st.just(0.0), st.floats(-1e100, 1e100))), label=f"t{k}")
            for k, shape in enumerate(shapes)}
        grads = buffer(**tensors)
        expected = global_norm_reference(grads)
        before = grads.flat.copy()
        max_norm = data.draw(st.sampled_from([expected, 1.0, math.inf]), label="max_norm")
        norm = nc.clip_by_global_norm(grads.flat, blocks=tuple(grads.values()), max_norm=max_norm)
        assert repr(norm) == repr(expected)
        if norm > max_norm:
            assert np.array_equal(bits(grads.flat), bits(before * (max_norm / norm)))
        else:
            assert np.array_equal(bits(grads.flat), bits(before))

    @pytest.mark.parametrize("kind", ["alexnet", "condensenet", "macro"])
    def test_wrapper_free_block_sum_equals_ndarray_sum(self, kind):
        """`np.add.reduce` over all axes of the fresh squares is the sum
        ``.sum()`` gives, on every block of a controller's layout."""
        grads = create_controller(build_space(kind), seed=5).params.like()
        rng = np.random.default_rng(5)
        size = grads.flat.size
        grads.flat[:] = rng.normal(size=size) * 10.0 ** rng.integers(-60, 60, size=size)
        grads.flat[rng.random(size) < 0.1] = -0.0
        for block in param_blocks(grads):
            expected = float((block * block).sum())
            assert repr(float(np.add.reduce(np.multiply(block, block), None))) == repr(expected)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), steps=st.integers(0, 80), cols=st.integers(2, 7),
           reverse=st.booleans())
    def test_reduce_along_t_equals_sequential_loop(self, data, steps, cols, reverse):
        """With two or more columns, `np.add.reduce` along t from +0.0 adds
        the rows in the order of t, also over a reversed view."""
        a = data.draw(arrays(np.float64, (steps, cols), elements=FLOATS))
        if reverse:
            a = a[::-1]
        out = np.full(cols, np.nan)
        np.add.reduce(a, 0, None, out, initial=0.0)
        expected = sequential_outer_sum(a, np.ones((steps, 1)))[:, 0]
        assert np.array_equal(bits(out), bits(expected))

    def test_one_column_reduce_is_pairwise_so_row_sum_guards_it(self):
        """1.0 then fifteen 2**-53: one by one each is lost to rounding, but
        numpy sums a single column pairwise, where they pair up first; so
        `ordered_row_sum` refuses a single column."""
        a = np.array([[1.0]] + [[2.0**-53]] * 15)
        expected = sequential_outer_sum(a, np.ones((16, 1)))[:, 0]
        assert expected[0] == 1.0
        assert np.add.reduce(a, 0, None, np.empty(1), initial=0.0)[0] > 1.0
        with pytest.raises(ValueError, match="two or more columns"):
            nc.ordered_row_sum(a, out=np.empty(1))

    def test_block_sums_added_in_block_order(self):
        """1.0 and then eight squares of 2**-54 each: added one by one to the
        first block's sum they vanish, though together they would not."""
        grads = buffer(a=np.ones(1), **{f"b{k}": np.full(1, 2.0**-27) for k in range(8)})
        assert global_norm_reference(grads) == 1.0
        assert math.sqrt(1.0 + 8 * 2.0**-54) > 1.0
        assert nc.clip_by_global_norm(grads.flat, blocks=tuple(grads.values()), max_norm=5.0) == 1.0

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), hidden_dim=st.sampled_from([1, 7, 20, 24, 64]),
           input_dim=st.sampled_from([1, 30, 204]), seed=st.integers(0, 2**32 - 1))
    def test_forward_equals_fresh_array_step(self, data, hidden_dim, input_dim, seed):
        params = seeded_lstm(input_dim, hidden_dim, seed=seed, scale=1.5)
        rng = np.random.default_rng(seed)
        h, c = rng.normal(size=hidden_dim), rng.normal(size=hidden_dim) * 3
        token = data.draw(st.one_of(st.none(), st.integers(0, input_dim - 1)), label="token")
        rows = (np.empty(4 * hidden_dim), np.empty(hidden_dim), np.empty(hidden_dim),
                np.empty(hidden_dim))
        nc.lstm_forward(params, column(params, token), h, c, out=nc.forward_views(*rows))
        for got, expected in zip(rows, lstm_step_reference(params, token, h, c)):
            assert np.array_equal(bits(got), bits(expected))

    @settings(max_examples=25, deadline=None)
    @given(data=st.data(), hidden_dim=st.sampled_from([20, 24, 64]),
           steps=st.integers(1, 78), seed=st.integers(0, 2**32 - 1))
    def test_backward_equals_stepwise_at_controller_sizes(self, data, hidden_dim, steps,
                                                          seed):
        """As `TestLstmBackward`'s oracle test, at the shipped spaces' hidden
        sizes and up to the macro space's 78 steps and 204 tokens."""
        params = seeded_lstm(204, hidden_dim, seed=seed, scale=0.3)
        rng = np.random.default_rng(seed)
        tokens = [None] + rng.choice(204, size=steps - 1, replace=False).tolist()
        record = run_forward(params, tokens)
        output_grads = rng.normal(size=(steps, hidden_dim))
        grads = named(backward(params, record, output_grads))
        expected = stepwise_lstm_backward(params, record, output_grads)
        for name, tensor in expected.items():
            assert np.array_equal(bits(grads[name]), bits(tensor)), name


class TestOrderedSums:
    """The gradient sums: einsum along t, bit for bit the sequential loop."""

    @settings(max_examples=400, deadline=None)
    @given(data=st.data(), steps=st.integers(0, 12),
           shape=st.sampled_from([(r, c) for r in (1, 2, 3, 5) for c in (1, 2, 3, 5)
                                  if r * c > 1]),
           reverse=st.booleans())
    def test_outer_sum_equals_sequential_loop(self, data, steps, shape, reverse):
        rows, cols = shape
        a = data.draw(arrays(np.float64, (steps, rows), elements=FLOATS))
        b = data.draw(arrays(np.float64, (steps, cols), elements=FLOATS))
        if reverse:  # reversed views: summed in the order of t all the same
            a, b = a[::-1], b[::-1]
        out = np.full((rows, cols), np.nan)
        assert nc.ordered_outer_sum(a, b, out=out) is out
        assert np.array_equal(bits(out), bits(sequential_outer_sum(a, b)))

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), steps=st.integers(0, 80), size=st.sampled_from([2, 4, 7]),
           reverse=st.booleans())
    def test_row_sum_equals_sequential_loop(self, data, steps, size, reverse):
        a = data.draw(arrays(np.float64, (steps, size), elements=FLOATS))
        if reverse:
            a = a[::-1]
        out = np.full(size, np.nan)
        assert nc.ordered_row_sum(a, out=out) is out
        expected = sequential_outer_sum(a, np.ones((steps, 1)))[:, 0]
        assert np.array_equal(bits(out), bits(expected))

    def test_sum_keeps_zero_start(self):
        # -0.0 + -0.0 is -0.0, but a sum started at +0.0 stays +0.0
        out = np.empty((1, 2))
        nc.ordered_outer_sum(np.array([[-0.0], [-0.0]]), np.ones((2, 2)), out=out)
        assert [math.copysign(1.0, x) for x in out[0]] == [1.0, 1.0]
        row = nc.ordered_row_sum(np.full((2, 2), -0.0), out=np.empty(2))
        assert [math.copysign(1.0, x) for x in row] == [1.0, 1.0]

    def test_one_entry_or_one_column_sum_refused(self):
        """Every head has two or more candidates and the cell 4H rows, so no
        gradient sum has one entry; einsum would sum one in another order."""
        with pytest.raises(ValueError, match="two or more entries"):
            nc.ordered_outer_sum(np.ones((3, 1)), np.ones((3, 1)), out=np.empty((1, 1)))
        with pytest.raises(ValueError, match="two or more columns"):
            nc.ordered_row_sum(np.ones((3, 1)), out=np.empty(1))

    def test_out_must_be_contiguous_and_fit(self):
        a, b = np.ones((3, 2)), np.ones((3, 4))
        for out in (np.empty((4, 2)).T, np.empty((2, 3))):
            with pytest.raises(ValueError):
                nc.ordered_outer_sum(a, b, out=out)


class TestSoftmaxSample:
    def test_uniform_for_equal_logits(self):
        probs = nc.softmax_probs(np.full(5, 1.3))
        np.testing.assert_allclose(probs, 0.2, rtol=1e-15)

    def test_saturation(self):
        probs = np.array([50.0, -50.0, -50.0])
        index = nc.softmax_sample(probs, np.random.default_rng(0).random())
        assert index == 0
        assert probs[0] == pytest.approx(1.0, abs=1e-12)

    def test_empty_logits_rejected(self):
        with pytest.raises(ValueError):
            nc.softmax_probs(np.array([]))

    def test_probs_sum_to_one(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            logits = rng.normal(scale=30.0, size=rng.integers(1, 8))
            probs = np.array(nc.softmax_probs(logits.copy()))
            assert abs(probs.sum() - 1.0) < 1e-12
            assert np.all(np.isfinite(probs))

    def test_monte_carlo_frequencies(self):
        logits = np.array([0.1, 0.3, -0.2])
        expected = nc.softmax_probs(logits.copy())
        rng = np.random.default_rng(12345)
        counts = np.zeros(3)
        draws = 100_000
        for _ in range(draws):
            index = nc.softmax_sample(logits.copy(), rng.random())
            counts[index] += 1
        np.testing.assert_allclose(counts / draws, expected, atol=0.01)

    def test_determinism_under_seed(self):
        logits = np.array([0.4, -1.2, 0.9, 0.0])
        draws1 = [nc.softmax_sample(logits.copy(), np.random.default_rng(11).random())
                  for _ in range(1)]
        draws2 = [nc.softmax_sample(logits.copy(), np.random.default_rng(11).random())
                  for _ in range(1)]
        assert draws1 == draws2


    @settings(max_examples=300, deadline=None)
    @given(logits=st.lists(st.floats(allow_nan=False, allow_infinity=False),
                           min_size=1, max_size=10),
           seed=st.integers(min_value=0, max_value=2**128 - 1))
    def test_matches_module_function_formula(self, logits, seed):
        logits = np.array(logits)
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        with np.errstate(all="ignore"):  # extreme logits over/underflow alike
            probs = logits.copy()  # turned into the probabilities in place
            index = nc.softmax_sample(probs, rng.random())
            ref_index, ref_probs = softmax_sample_reference(logits, ref_rng)
        assert index == ref_index
        assert repr(probs.tolist()) == repr(ref_probs.tolist())
        assert rng.random() == ref_rng.random()  # one draw taken by each

    @settings(max_examples=300, deadline=None)
    @given(logits=st.lists(st.floats(allow_nan=False, allow_infinity=False),
                           min_size=1, max_size=10))
    def test_probs_in_place_match_module_function_formula(self, logits):
        """The list returned and the scores overwritten both hold the
        reference's probabilities, on either side of the 8-entry switch."""
        logits = np.array(logits)
        scores = logits.copy()
        with np.errstate(all="ignore"):
            probs = nc.softmax_probs(scores)
            _, ref_probs = softmax_sample_reference(logits, np.random.default_rng(0))
        assert repr(probs) == repr(scores.tolist()) == repr(ref_probs.tolist())


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
    @pytest.mark.parametrize("size", [17, 2 * nc.ADAM_CHUNK + 5])
    def test_bytes_do_not_depend_on_scratch(self, scratch, size):
        rng = np.random.default_rng(21)
        start = {"a": rng.normal(size=(3, 4)), "b": rng.normal(size=size - 12)}
        steps = [{name: rng.normal(size=p.shape) for name, p in start.items()}
                 for _ in range(3)]
        params, ref_params = buffer(**start), buffer(**start)
        state = nc.AdamState.for_params(params, lr=0.03)
        ref_state = nc.AdamState.for_params(ref_params, lr=0.03)
        chunk = min(size, nc.ADAM_CHUNK)
        for grads in steps:
            if scratch == "nan":
                state.scratch = np.full(chunk, np.nan)
            elif scratch == "garbage":
                state.scratch = rng.normal(scale=1e300, size=chunk)
            nc.adam_step(params, buffer(**grads), state)
            adam_step_reference(ref_params, buffer(**grads), ref_state)
            assert params.flat.tobytes() == ref_params.flat.tobytes()
            assert state.m.flat.tobytes() == ref_state.m.flat.tobytes()
            assert state.v.flat.tobytes() == ref_state.v.flat.tobytes()
        assert state.t == ref_state.t == 3

    @pytest.mark.parametrize("size", [1, 300, nc.ADAM_CHUNK + 1, 4 * nc.ADAM_CHUNK + 7])
    def test_gradient_buffer_is_left_holding_the_step(self, size):
        rng = np.random.default_rng(size)
        params = buffer(w=rng.normal(size=size))
        state = nc.AdamState.for_params(params, lr=0.02)
        for _ in range(4):
            before = params.flat.copy()
            grads = buffer(w=rng.normal(size=size))
            nc.adam_step(params, grads, state)
            assert params.flat.tobytes() == (before + grads.flat).tobytes()
        assert state.scratch.size == min(size, nc.ADAM_CHUNK)

    def test_ascent_direction(self):
        params = buffer(w=np.array([0.0]))
        state = nc.AdamState.for_params(params, lr=0.05)
        nc.adam_step(params, buffer(w=np.array([2.0])), state)
        assert params["w"][0] > 0.0  # positive reward gradient moves up

    def test_bad_hyperparameters_rejected(self):
        with pytest.raises(ValueError):
            nc.AdamState(lr=0.1, beta1=1.0)
        with pytest.raises(ValueError):
            nc.AdamState(lr=0.1, beta2=-0.2)
        with pytest.raises(ValueError):
            nc.AdamState(lr=0.1, t=-1)
        for kw in ({"lr": math.nan}, {"lr": 0.0}, {"eps": 0.0}, {"t": 1.0}):
            with pytest.raises(ValueError):
                nc.AdamState(**{"lr": 0.1, **kw})


class TestClipping:
    def test_norm_reported_and_clipped(self):
        grads = buffer(a=np.array([3.0, 4.0]))
        norm = nc.clip_by_global_norm(grads.flat, blocks=tuple(grads.values()), max_norm=1.0)
        assert norm == pytest.approx(5.0)
        assert global_norm_reference(grads) == pytest.approx(1.0)

    def test_no_clip_below_threshold(self):
        grads = buffer(a=np.array([0.3, 0.4]))
        nc.clip_by_global_norm(grads.flat, blocks=tuple(grads.values()), max_norm=1.0)
        np.testing.assert_allclose(grads["a"], [0.3, 0.4])

    def test_blocks_and_max_norm_are_keyword_only(self):
        grads = buffer(a=np.array([3.0, 4.0]))
        with pytest.raises(TypeError):
            nc.clip_by_global_norm(grads.flat, tuple(grads.values()), 1.0)
        assert np.array_equal(grads["a"], [3.0, 4.0])
