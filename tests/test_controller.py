import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from archsearch import controller as ctl
from archsearch.nn_core import ADAM_CHUNK, GATE_NAMES, adam_step, clip_by_global_norm
from archsearch.search_space import DecisionSlot, SearchSpace, build_space

from oracles import (central_diff_grads, log_prob_reference, max_rel_error,
                     sample_reference)


def bandit_space(*arities):
    slots = tuple(DecisionSlot(f"slot{i}", f"slot{i}", tuple(range(k)))
                  for i, k in enumerate(arities))
    return SearchSpace("bandit", slots)


def snapshot(state):
    return {name: arr.copy() for name, arr in state.params.items()}


def uniform_controller(space, seed):
    """A controller with every weight zero: each slot's policy is uniform."""
    state = ctl.create_controller(space, seed=seed)
    state.params.flat[:] = 0.0
    return state


def gradients(state, rollout, scale):
    """`ctl.policy_gradients` into a new buffer."""
    return ctl.policy_gradients(state, rollout, scale, out=state.params.like())


def step_probs(state, rollout, t):
    """Step t's row of the rollout's flat probabilities."""
    start = state.prob_starts[t]
    return rollout.probs[start:start + len(state.slots[t].b)]


def rollout_log_prob(state, actions, rollout):
    """Step-order sum of the logs of the probabilities sampling gave the actions."""
    total = 0.0
    for t, action in enumerate(actions):
        total += float(np.log(step_probs(state, rollout, t)[action]))
    return total


class TestParamBlocks:
    def test_init_draws_per_gate_blocks_in_order(self):
        """Each gate's w, u and b, then each head's w and b, each drawn in
        its own shape."""
        space = bandit_space(2, 3)  # 5 tokens, heads "slot0" and "slot1"
        state = ctl.create_controller(space, seed=4, hidden_dim=3)
        rng = np.random.default_rng(4)
        s = ctl.INIT_SCALE
        for gate in GATE_NAMES:
            w, u, b = state.lstm.gate(gate)
            np.testing.assert_array_equal(w, rng.uniform(-s, s, size=(3, 5)))
            np.testing.assert_array_equal(u, rng.uniform(-s, s, size=(3, 3)))
            np.testing.assert_array_equal(b, rng.uniform(-s, s, size=3))
        for head, arity in (("slot0", 2), ("slot1", 3)):
            np.testing.assert_array_equal(state.params[f"head.{head}.w"],
                                          rng.uniform(-s, s, size=(arity, 3)))
            np.testing.assert_array_equal(state.params[f"head.{head}.b"],
                                          rng.uniform(-s, s, size=arity))
        assert rng.bit_generator.state == state.rng.bit_generator.state

    @pytest.mark.parametrize("hidden_dim", [1, None])
    @pytest.mark.parametrize("kind", ["alexnet", "condensenet", "macro", "bandit"])
    def test_blocks_partition_the_buffer(self, kind, hidden_dim):
        space = bandit_space(2, 3, 2) if kind == "bandit" else build_space(kind)
        state = ctl.create_controller(space, seed=0, hidden_dim=hidden_dim)
        for buffer, blocks in ((state.params, ctl.param_blocks(state.params)),
                               (state.grads, state.grad_blocks)):
            assert all(np.shares_memory(block, buffer.flat) for block in blocks)
            assert sum(block.size for block in blocks) == buffer.flat.size
            buffer.flat.fill(0.0)
            for block in blocks:
                block += 1.0
            assert np.all(buffer.flat == 1.0)  # every entry in exactly one block

    def test_state_derives_the_cell_from_params(self):
        state = ctl.create_controller(build_space("condensenet"), seed=0, hidden_dim=7)
        assert state.hidden_dim == 7
        assert state.lstm.u.base is state.params.flat
        with pytest.raises(TypeError):
            ctl.ControllerState(space=state.space, params=state.params, adam=state.adam,
                                rng=state.rng, hidden_dim=9)


RECORD_ARRAYS = ("tokens", "gates", "h", "c", "tanh_c", "actions", "probs")
ROLLOUT_SPACES = st.one_of(
    st.sampled_from(["alexnet", "condensenet", "macro"]).map(build_space),
    st.lists(st.integers(2, 6), min_size=1, max_size=9).map(lambda a: bandit_space(*a)))


class TestRolloutForm:
    """The rollout form the update's kernels rely on: tokens -1 at step 0
    and strictly increasing after it (the only form `lstm_backward` takes),
    and `probs` rows laid out in one block per head type."""

    @settings(max_examples=40, deadline=None)
    @given(space=ROLLOUT_SPACES, seed=st.integers(0, 2**32 - 1))
    def test_tokens_are_none_then_strictly_increasing(self, space, seed):
        _, rollout = ctl.sample_sequence(ctl.create_controller(space, seed=seed))
        tokens = rollout.tokens.tolist()
        assert tokens[0] == -1
        assert all(a < b for a, b in zip(tokens[1:], tokens[2:]))
        assert 0 <= min(tokens[1:], default=0) and max(tokens) < space.vocab_size

    @settings(max_examples=40, deadline=None)
    @given(space=ROLLOUT_SPACES)
    def test_prob_rows_tile_the_head_blocks(self, space):
        """Step t's row starts at prob_starts[t]; each head's block holds its
        steps' rows in step order, and the blocks tile the flat buffer."""
        state = ctl.create_controller(space, seed=0)
        start = 0
        for head in state.heads:
            arity = len(head.w)
            assert head.block == slice(start, start + len(head.steps) * arity)
            assert state.prob_starts[head.steps].tolist() == list(
                range(head.block.start, head.block.stop, arity))
            assert all(state.slots[t].head == head.head for t in head.steps)
            start = head.block.stop
        _, rollout = ctl.sample_sequence(state)
        assert rollout.probs.shape == (start,)
        assert sorted(t for head in state.heads for t in head.steps) == list(
            range(len(state.slots)))


def root_arrays(obj, found=None):
    """The arrays owning the memory of every array reachable from ``obj``
    through attributes, tuples, lists and mappings, by id."""
    found = {} if found is None else found
    if isinstance(obj, np.ndarray):
        while isinstance(obj.base, np.ndarray):
            obj = obj.base
        found[id(obj)] = obj
    elif id(obj) not in found and not isinstance(obj, (str, bytes, int, float)):
        found[id(obj)] = None  # visited
        if isinstance(obj, (tuple, list)):
            items = obj
        elif isinstance(obj, dict):
            items = obj.values()
        else:
            items = getattr(obj, "__dict__", {}).values()
        for item in items:
            root_arrays(item, found)
    return found


class TestRolloutMemory:
    """`sample_sequence` runs in a scratch the state owns and copies each
    rollout out of it: no rollout shares memory with another or with the
    state, so a kept rollout is not changed by later samples or updates."""

    @settings(max_examples=30, deadline=None)
    @given(space=ROLLOUT_SPACES, seed=st.integers(0, 2**32 - 1), k=st.integers(2, 4))
    @example(space=build_space("alexnet"), seed=0, k=3)
    @example(space=build_space("condensenet"), seed=0, k=3)
    @example(space=build_space("macro"), seed=0, k=3)
    def test_rollouts_share_no_memory(self, space, seed, k):
        state = ctl.create_controller(space, seed=seed)
        rollouts = [ctl.sample_sequence(state)[1] for _ in range(k)]
        first = {name: getattr(rollouts[0], name).tobytes() for name in RECORD_ARRAYS}
        ctl.reinforce_update_batch(state, rollouts, [1.0] * k)  # batch_grads made too
        later = ctl.sample_sequence(state)[1]
        arrays = [getattr(r, name) for r in rollouts + [later] for name in RECORD_ARRAYS]
        for i, a in enumerate(arrays):
            assert not any(np.shares_memory(a, b) for b in arrays[i + 1:])
        owned = [a for a in root_arrays(state).values() if a is not None]
        assert any(a is state.sample_scratch.probs for a in owned)
        for a in arrays:
            assert not any(np.shares_memory(a, b) for b in owned)
        assert {name: getattr(rollouts[0], name).tobytes() for name in RECORD_ARRAYS} == first


class TestSampling:
    def test_zero_controller_is_uniform_on_condensenet(self):
        space = build_space("condensenet")
        state = uniform_controller(space, seed=0)
        actions, rollout = ctl.sample_sequence(state)
        np.testing.assert_allclose(rollout.probs, 0.2, rtol=1e-15)
        assert rollout_log_prob(state, actions, rollout) == pytest.approx(
            6.0 * math.log(0.2), rel=1e-12)

    def test_fixed_seed_reproduces_rollouts(self):
        space = build_space("alexnet")
        runs = []
        for _ in range(2):
            state = ctl.create_controller(space, seed=11)
            runs.append([ctl.sample_sequence(state)[0] for _ in range(5)])
        assert runs[0] == runs[1]

    def test_sequence_matches_space_arity(self):
        space = build_space("macro")
        state = ctl.create_controller(space, seed=0)
        actions, _ = ctl.sample_sequence(state)
        assert type(actions) is tuple and len(actions) == 78
        for slot, action in zip(space.slots, actions):
            assert 0 <= action < len(slot.candidates)


class TestAgainstStepwiseSampler:
    @settings(max_examples=30, deadline=None)
    @given(kind=st.sampled_from(["alexnet", "condensenet", "macro"]),
           seed=st.integers(0, 2**32 - 1), updates=st.integers(0, 3))
    def test_rollout_equals_step_by_step_draws(self, kind, seed, updates):
        """Uniforms drawn up front, the in-place softmax and the two-way pick
        give the actions, every recorded row and the generator state of
        one scalar draw and fresh arrays per step."""
        state = ctl.create_controller(build_space(kind), seed=seed)
        for _ in range(updates):  # weights away from their initial range
            _, rollout = ctl.sample_sequence(state)
            ctl.reinforce_update_batch(state, [rollout], [5.0])
        rng = np.random.default_rng()
        rng.bit_generator.state = state.rng.bit_generator.state
        expected_actions, expected = sample_reference(state, rng)
        actions, rollout = ctl.sample_sequence(state)
        assert actions == expected_actions
        assert rollout.actions.tolist() == list(actions)
        assert rollout.tokens.tolist() == expected["tokens"]
        for key in ("gates", "tanh_c"):
            assert getattr(rollout, key).tobytes() == np.array(expected[key]).tobytes()
        for key in ("c", "h"):  # row 0 is the zero state
            assert getattr(rollout, key)[1:].tobytes() == np.array(expected[key]).tobytes()
        for t, probs in enumerate(expected["probs"]):
            assert step_probs(state, rollout, t).tobytes() == probs.tobytes()
        assert state.rng.bit_generator.state == rng.bit_generator.state


class TestActionLogProb:
    """Teacher forcing through the oracle `log_prob_reference`, against what
    sampling recorded."""

    def test_zero_controller_value(self):
        space = build_space("condensenet")
        state = uniform_controller(space, seed=0)
        actions, _ = ctl.sample_sequence(state)
        assert log_prob_reference(state, actions) == pytest.approx(-9.65663, abs=1e-4)

    def test_recompute_matches_sampling_exactly(self):
        """On the initial draw, and after each of three updates."""
        for kind in ("alexnet", "condensenet", "macro"):
            state = ctl.create_controller(build_space(kind), seed=4)
            for _ in range(30):
                actions, rollout = ctl.sample_sequence(state)
                assert log_prob_reference(state, actions) == rollout_log_prob(
                    state, actions, rollout), kind
            for _ in range(3):
                ctl.reinforce_update_batch(state, [rollout], [5.0])
                actions, rollout = ctl.sample_sequence(state)
                assert log_prob_reference(state, actions) == rollout_log_prob(
                    state, actions, rollout), (kind, state.revision)

    @pytest.mark.parametrize("kind", ["alexnet", "condensenet", "macro"])
    def test_leaves_generator_and_params_unchanged(self, kind):
        state = ctl.create_controller(build_space(kind), seed=8)
        actions, rollout = ctl.sample_sequence(state)
        ctl.reinforce_update_batch(state, [rollout], [0.6])
        rng_state = state.rng.bit_generator.state
        params = state.params.flat.tobytes()
        log_prob_reference(state, actions)
        assert state.rng.bit_generator.state == rng_state
        assert state.params.flat.tobytes() == params

    def test_invalid_sequence_rejected(self):
        space = build_space("condensenet")
        state = ctl.create_controller(space, seed=0)
        actions, _ = ctl.sample_sequence(state)
        with pytest.raises(ValueError):
            log_prob_reference(state, actions[:-1])
        with pytest.raises(ValueError, match="out of range for slot 5"):
            log_prob_reference(state, actions[:-1] + (len(space.slots[-1].candidates),))


class TestReinforceUpdate:
    def test_zero_reward_changes_nothing(self):
        space = build_space("condensenet")
        state = ctl.create_controller(space, seed=1)
        before = snapshot(state)
        actions, rollout = ctl.sample_sequence(state)
        norm = ctl.reinforce_update_batch(state, [rollout], [0.0])
        assert norm == 0.0
        for name, arr in state.params.items():
            np.testing.assert_array_equal(arr, before[name])

    def test_positive_reward_raises_sequence_log_prob(self):
        space = build_space("condensenet")
        state = ctl.create_controller(space, seed=2)
        actions, rollout = ctl.sample_sequence(state)
        before = log_prob_reference(state, actions)
        ctl.reinforce_update_batch(state, [rollout], [1.0])
        assert log_prob_reference(state, actions) > before

    def test_negative_reward_lowers_sequence_log_prob(self):
        space = build_space("condensenet")
        state = ctl.create_controller(space, seed=2)
        actions, rollout = ctl.sample_sequence(state)
        before = log_prob_reference(state, actions)
        ctl.reinforce_update_batch(state, [rollout], [-1.0])
        assert log_prob_reference(state, actions) < before

    def test_gradient_scales_linearly_in_reward(self):
        space = build_space("alexnet")
        state = ctl.create_controller(space, seed=3, clip_norm=math.inf)
        _, rollout = ctl.sample_sequence(state)
        g1 = gradients(state, rollout, 0.35)
        g2 = gradients(state, rollout, 0.70)
        for name in g1:
            np.testing.assert_array_equal(g2[name], 2.0 * g1[name])

    def test_stale_rollout_rejected(self):
        space = build_space("condensenet")
        state = ctl.create_controller(space, seed=5)
        actions, rollout = ctl.sample_sequence(state)
        ctl.reinforce_update_batch(state, [rollout], [0.5])
        ctl.sample_sequence(state)
        with pytest.raises(ValueError, match="stale"):
            ctl.reinforce_update_batch(state, [rollout], [0.5])

    def test_gradient_matches_finite_differences(self):
        space = build_space("condensenet")
        state = ctl.create_controller(space, seed=6, hidden_dim=3, clip_norm=math.inf)
        actions, rollout = ctl.sample_sequence(state)
        reward = 1.3
        analytic = gradients(state, rollout, reward)
        numeric = central_diff_grads(
            lambda: log_prob_reference(state, actions) * reward, state.params)
        assert max_rel_error(analytic, numeric) < 1e-4

    def test_clip_norm_caps_update_but_reports_raw_norm(self):
        space = build_space("condensenet")
        state = ctl.create_controller(space, seed=7, clip_norm=1e-6)
        actions, rollout = ctl.sample_sequence(state)
        norm = ctl.reinforce_update_batch(state, [rollout], [5.0])
        assert norm > 1e-6  # raw norm, not the clipped one

    def test_batch_of_one_equals_plain_update(self):
        space = build_space("condensenet")
        a = ctl.create_controller(space, seed=12)
        b = ctl.create_controller(space, seed=12)
        actions_a, rollout_a = ctl.sample_sequence(a)
        actions_b, rollout_b = ctl.sample_sequence(b)
        assert actions_a == actions_b
        # the plain update: one rollout's gradient, clipped, one ADAM step
        grads = gradients(a, rollout_a, 0.8)
        clip_by_global_norm(grads.flat, blocks=ctl.param_blocks(grads), max_norm=a.clip_norm)
        adam_step(a.params, grads, a.adam)
        ctl.reinforce_update_batch(b, [rollout_b], [0.8])
        for name, arr in a.params.items():
            np.testing.assert_array_equal(arr, b.params[name])

    def test_batch_gradient_is_mean_of_samples(self):
        space = build_space("condensenet")
        state = ctl.create_controller(space, seed=13, clip_norm=math.inf)
        rollouts = []
        rewards = [0.4, -1.2, 0.9]
        for _ in rewards:
            _, rollout = ctl.sample_sequence(state)
            rollouts.append(rollout)
        per_sample = [gradients(state, ro, rw)
                      for ro, rw in zip(rollouts, rewards)]
        for name in state.params:
            mean = sum(g[name] for g in per_sample) / len(per_sample)
            batched = sum(gradients(state, ro, rw / len(rewards))[name]
                          for ro, rw in zip(rollouts, rewards))
            np.testing.assert_allclose(batched, mean, rtol=1e-12, atol=1e-15)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    def test_diverging_update_raises_and_keeps_the_state(self):
        """A gradient norm that is not finite stops the update before the ADAM
        step, which would write nan over every parameter and moment."""
        state = ctl.create_controller(build_space("condensenet"), seed=15, lr=1e308)
        _, rollout = ctl.sample_sequence(state)
        ctl.reinforce_update_batch(state, [rollout], [0.5])  # params near +-1e308
        _, rollout = ctl.sample_sequence(state)
        buffers = (state.params, state.adam.m, state.adam.v)
        before = [buffer.flat.copy() for buffer in buffers]
        with pytest.raises(FloatingPointError,
                           match=r"update 2 diverged: .*adam\.lr = 1e\+308"):
            ctl.reinforce_update_batch(state, [rollout], [0.5])
        for buffer, flat in zip(buffers, before):
            np.testing.assert_array_equal(buffer.flat, flat)
        assert (state.adam.t, state.revision) == (1, 1)

    def test_batch_rejects_mismatched_rewards(self):
        space = build_space("condensenet")
        state = ctl.create_controller(space, seed=14)
        _, rollout = ctl.sample_sequence(state)
        with pytest.raises(ValueError):
            ctl.reinforce_update_batch(state, [rollout], [0.1, 0.2])
        with pytest.raises(ValueError):
            ctl.reinforce_update_batch(state, [], [])


class TestGradientWorkspace:
    """Updates reuse one gradient buffer; nothing may carry over between them."""

    @pytest.mark.parametrize("kind", ["macro", "condensenet"])
    def test_out_buffer_is_fully_overwritten(self, kind):
        space = build_space(kind)
        state = ctl.create_controller(space, seed=5)
        _, rollout = ctl.sample_sequence(state)
        fresh = gradients(state, rollout, 0.7)
        out = state.params.like()
        out.flat.fill(np.nan)
        assert ctl.policy_gradients(state, rollout, 0.7, out=out) is out
        assert out.flat.tobytes() == fresh.flat.tobytes()

    def test_out_buffer_of_another_layout_rejected(self):
        space = build_space("condensenet")
        state = ctl.create_controller(space, seed=5)
        _, rollout = ctl.sample_sequence(state)
        other = ctl.create_controller(space, seed=5, hidden_dim=7)
        with pytest.raises(ValueError):
            ctl.policy_gradients(state, rollout, 0.7, out=other.params.like())

    def test_adam_scratch_is_one_chunk(self):
        state = ctl.create_controller(build_space("macro"), seed=5)
        ctl.reinforce_update_batch(state, [ctl.sample_sequence(state)[1]], [0.4])
        assert state.adam.scratch.size <= ADAM_CHUNK < state.params.flat.size

    def test_consecutive_batches_match_fresh_buffers(self):
        """Two batch-3 macro updates equal the same updates summed into new buffers."""
        space = build_space("macro")
        state = ctl.create_controller(space, seed=9)
        ref = ctl.create_controller(space, seed=9)
        workspaces = set()
        for rewards in ([0.3, -0.2, 0.9], [0.5, 0.1, -0.4]):
            rollouts = [ctl.sample_sequence(state)[1] for _ in rewards]
            ref_rollouts = [ctl.sample_sequence(ref)[1] for _ in rewards]
            norm = ctl.reinforce_update_batch(state, rollouts, rewards)
            workspaces.add(id(state.batch_grads))

            grads = ref.params.like()
            for rollout, reward in zip(ref_rollouts, rewards):
                grads.flat += gradients(ref, rollout, reward / len(rewards)).flat
            ref_norm = clip_by_global_norm(grads.flat, blocks=ctl.param_blocks(grads),
                                           max_norm=ref.clip_norm)
            adam_step(ref.params, grads, ref.adam)
            ref.revision += 1

            assert repr(norm) == repr(ref_norm)
            assert state.params.flat.tobytes() == ref.params.flat.tobytes()
            assert state.adam.m.flat.tobytes() == ref.adam.m.flat.tobytes()
            assert state.adam.v.flat.tobytes() == ref.adam.v.flat.tobytes()
        assert len(workspaces) == 1  # the second workspace is made once, then reused


class TestLearningDynamics:
    def test_two_candidate_bandit_saturates(self):
        space = bandit_space(2)
        state = ctl.create_controller(space, seed=3, hidden_dim=4, lr=0.05)
        for _ in range(500):
            actions, rollout = ctl.sample_sequence(state)
            reward = 1.0 if actions[0] == 1 else 0.0
            ctl.reinforce_update_batch(state, [rollout], [reward])
        hits = sum(ctl.sample_sequence(state)[0][0] == 1
                   for _ in range(1000))
        assert hits / 1000 > 0.95

    def test_single_rewarded_sequence_dominates_sampling(self):
        space = bandit_space(3, 3)
        state = ctl.create_controller(space, seed=5, hidden_dim=6, lr=0.05)
        target = (1, 2)
        for _ in range(2000):
            actions, rollout = ctl.sample_sequence(state)
            ctl.reinforce_update_batch(state, [rollout],
                                       [1.0 if actions == target else 0.0])
        hits = sum(ctl.sample_sequence(state)[0] == target
                   for _ in range(1000))
        assert hits / 1000 > 0.9

    def test_baseline_variant_also_learns(self):
        space = bandit_space(2)
        state = ctl.create_controller(space, seed=9, hidden_dim=4, lr=0.05,
                                      use_baseline=True)
        for _ in range(500):
            actions, rollout = ctl.sample_sequence(state)
            reward = 1.0 if actions[0] == 0 else 0.0
            ctl.reinforce_update_batch(state, [rollout], [reward])
        hits = sum(ctl.sample_sequence(state)[0][0] == 0
                   for _ in range(1000))
        assert hits / 1000 > 0.95
        assert 0.0 < state.baseline <= 1.0


class TestCheckpoint:
    def test_round_trip_resumes_identically(self, tmp_path):
        space = build_space("condensenet")
        state = ctl.create_controller(space, seed=8)
        for _ in range(10):
            actions, rollout = ctl.sample_sequence(state)
            ctl.reinforce_update_batch(state, [rollout], [0.3])
        path = tmp_path / "controller.npz"
        ctl.save_checkpoint(state, path)
        restored = ctl.load_checkpoint(path)

        for name, arr in state.params.items():
            np.testing.assert_array_equal(arr, restored.params[name])
        np.testing.assert_array_equal(restored.adam.m.flat, state.adam.m.flat)
        np.testing.assert_array_equal(restored.adam.v.flat, state.adam.v.flat)
        assert restored.adam.t == state.adam.t

        # both copies continue bit-identically, rng state included
        for _ in range(5):
            a, rollout_a = ctl.sample_sequence(state)
            b, rollout_b = ctl.sample_sequence(restored)
            assert a == b
            assert rollout_log_prob(state, a, rollout_a) == rollout_log_prob(
                restored, b, rollout_b)

    @pytest.mark.parametrize("key, value, message", [
        ("adam.lr", math.nan, "learning rate"),
        ("adam.lr", 0.0, "learning rate"),
        ("adam.beta1", 1.5, "decay rates"),
        ("adam.eps", 0.0, "eps"),
        ("adam.t", -1, "timestep"),
        ("adam.t", 2.5, "timestep"),
        ("clip_norm", 0.0, "clip_norm"),
        ("baseline_decay", 7, "baseline_decay"),
        ("baseline", math.inf, "baseline must be finite"),
        ("revision", -4, "revision"),
    ])
    def test_bad_meta_value_rejected(self, tmp_path, key, value, message):
        """Values no run writes; resuming from them gave nan gradient norms or none."""
        path = saved_checkpoint(tmp_path)
        rewrite(path, lambda contents: set_meta(contents, key, value))
        with pytest.raises(ValueError, match=message):
            ctl.load_checkpoint(path)

    @pytest.mark.parametrize("key, value", [
        ("use_baseline", "no"), ("use_baseline", 0.0), ("adam.lr", True),
        ("clip_norm", True), ("baseline", True), ("baseline_decay", False),
        ("adam.beta1", False), ("adam.eps", "1e-8"), ("hidden_dim", 20.0),
        ("hidden_dim", True), ("revision", True),
    ])
    def test_wrong_json_type_rejected(self, tmp_path, key, value):
        """A bool must be a bool, an int an int, a float a number; no bool is a number."""
        path = saved_checkpoint(tmp_path)
        rewrite(path, lambda contents: set_meta(contents, key, value))
        with pytest.raises(ValueError, match=f"checkpoint meta {key} must be a "):
            ctl.load_checkpoint(path)

    def test_float_written_as_int_loads(self, tmp_path):
        path = saved_checkpoint(tmp_path)
        rewrite(path, lambda contents: set_meta(contents, "baseline", 1))
        rewrite(path, lambda contents: set_meta(contents, "adam.lr", 1))
        state = ctl.load_checkpoint(path)
        assert (state.baseline, state.adam.lr) == (1, 1)

    def test_version_gate(self, tmp_path):
        for version in (1, 99):
            path = saved_checkpoint(tmp_path)
            rewrite(path, lambda contents: set_version(contents, version))
            with pytest.raises(ValueError, match="version"):
                ctl.load_checkpoint(path)

    @pytest.mark.parametrize("key, edit, message", [
        ("param/lstm.u", lambda a: a[:1, 0], "shape"),
        ("adam_m/head.stage.w", lambda a: a.T, "shape"),
        ("adam_v/lstm.b", lambda a: a.astype(np.float32), "dtype"),
        ("param/head.growth.b", lambda a: a.astype(np.int64), "dtype"),
        # a diverged controller: sampled one architecture forever, resumed on nan
        ("param/lstm.b", lambda a: np.r_[np.nan, a[1:]], "holds a value that is not finite"),
        ("adam_m/head.stage.w", lambda a: np.full_like(a, np.inf), "not finite"),
        ("adam_v/lstm.u", lambda a: np.full_like(a, -np.inf), "not finite"),
    ])
    def test_bad_array_rejected_by_name(self, tmp_path, key, edit, message):
        path = saved_checkpoint(tmp_path)
        rewrite(path, lambda contents: contents.__setitem__(key, edit(contents[key])))
        with pytest.raises(ValueError, match=message) as exc:
            ctl.load_checkpoint(path)
        assert key in str(exc.value)

    @pytest.mark.parametrize("cut", [0, 100, -30])
    def test_unreadable_file_rejected(self, tmp_path, cut):
        """An empty or cut-off file, as an interrupted write leaves it."""
        path = saved_checkpoint(tmp_path)
        path.write_bytes(path.read_bytes()[:cut])
        with pytest.raises(ValueError, match="not a readable numpy archive"):
            ctl.load_checkpoint(path)

    def test_missing_array_rejected_by_name(self, tmp_path):
        path = saved_checkpoint(tmp_path)
        rewrite(path, lambda contents: contents.pop("adam_v/lstm.w"))
        with pytest.raises(ValueError, match="lacks array 'adam_v/lstm.w'"):
            ctl.load_checkpoint(path)

    def test_extra_array_rejected_by_name(self, tmp_path):
        path = saved_checkpoint(tmp_path)
        rewrite(path, lambda contents: contents.__setitem__("param/lstm.w_i", np.zeros(3)))
        with pytest.raises(ValueError, match="unexpected array 'param/lstm.w_i'"):
            ctl.load_checkpoint(path)


class TestCheckpointMeta:
    def test_every_meta_key_round_trips_with_its_type(self, tmp_path):
        state = ctl.create_controller(build_space("macro"), seed=3, hidden_dim=5, lr=0.02,
                                      clip_norm=2.5, use_baseline=True, baseline_decay=0.7)
        for reward in (0.4, -0.3):
            _, rollout = ctl.sample_sequence(state)
            ctl.reinforce_update_batch(state, [rollout], [reward])
        path = tmp_path / "c.npz"
        ctl.save_checkpoint(state, path)
        with np.load(path) as data:
            meta = json.loads(bytes(data["meta"]).decode())
        restored = ctl.load_checkpoint(path)
        for name, kind in ctl.META_TYPES.items():
            record, _, key = name.rpartition(".")
            value = (meta[record] if record else meta)[key]
            assert type(value) is kind, name
            owner, restored_owner = ((state.adam, restored.adam) if record
                                     else (state, restored))
            assert value == getattr(owner, key) == getattr(restored_owner, key), name
        # the record's layout: the keys of META_TYPES in their order, adam
        # nested, with adam.t after them
        assert list(meta) == ["version", "space_kind", "hidden_dim", "adam", "clip_norm",
                              "use_baseline", "baseline_decay", "baseline", "revision",
                              "rng_state"]
        assert list(meta["adam"]) == ["lr", "beta1", "beta2", "eps", "t"]
        assert meta["adam"]["t"] == restored.adam.t == 2


def saved_checkpoint(tmp_path):
    state = ctl.create_controller(build_space("condensenet"), seed=0)
    path = tmp_path / "c.npz"
    ctl.save_checkpoint(state, path)
    return path


def rewrite(path, edit):
    """Load every record of a checkpoint, let ``edit`` change them, save again."""
    with np.load(path) as data:
        contents = {k: data[k] for k in data.files}
    edit(contents)
    np.savez(path, **contents)


def set_meta(contents, key, value):
    """Set one value of the meta record; a dotted key reaches into a nested record."""
    meta = json.loads(bytes(contents["meta"]).decode())
    *outer, name = key.split(".")
    record = meta
    for part in outer:
        record = record[part]
    record[name] = value
    contents["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)


def set_version(contents, version):
    set_meta(contents, "version", version)
    if version == 1:  # version 1 stored the LSTM one tensor per gate
        for prefix in ("param", "adam_m", "adam_v"):
            for kind in "wub":
                blocks = np.array_split(contents.pop(f"{prefix}/lstm.{kind}"), 4)
                for gate, block in zip("ifog", blocks):
                    contents[f"{prefix}/lstm.{kind}_{gate}"] = block
