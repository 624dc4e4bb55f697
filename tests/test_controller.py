import json
import math

import numpy as np
import pytest

from archsearch import controller as ctl
from archsearch.nn_core import adam_step, clip_by_global_norm
from archsearch.search_space import DecisionSlot, SearchSpace, build_space

from oracles import central_diff_grads, max_rel_error


def bandit_space(*arities):
    slots = tuple(DecisionSlot(f"slot{i}", f"slot{i}", tuple(range(k)))
                  for i, k in enumerate(arities))
    return SearchSpace("bandit", slots)


def snapshot(state):
    return {name: arr.copy() for name, arr in state.params.items()}


class TestSampling:
    def test_zero_controller_is_uniform_on_condensenet(self):
        space = build_space("condensenet")
        state = ctl.create_controller(space, seed=0, init_scale=0.0)
        seq, rollout = ctl.sample_sequence(state, space)
        for step in rollout.steps:
            np.testing.assert_allclose(step.probs, 0.2, rtol=1e-15)
        assert seq.total_log_prob == pytest.approx(6.0 * math.log(0.2), rel=1e-12)

    def test_fixed_seed_reproduces_rollouts(self):
        space = build_space("alexnet")
        runs = []
        for _ in range(2):
            state = ctl.create_controller(space, seed=11)
            runs.append([ctl.sample_sequence(state, space)[0].actions
                         for _ in range(5)])
        assert runs[0] == runs[1]

    def test_sequence_matches_space_arity(self):
        space = build_space("macro")
        state = ctl.create_controller(space, seed=0)
        seq, _ = ctl.sample_sequence(state, space)
        assert len(seq.actions) == 78
        for slot, action in zip(space.slots, seq.actions):
            assert 0 <= action < len(slot.candidates)

    def test_wrong_space_rejected(self):
        state = ctl.create_controller(build_space("alexnet"), seed=0)
        with pytest.raises(ValueError):
            ctl.sample_sequence(state, build_space("macro"))


class TestActionLogProb:
    def test_zero_controller_value(self):
        space = build_space("condensenet")
        state = ctl.create_controller(space, seed=0, init_scale=0.0)
        seq, _ = ctl.sample_sequence(state, space)
        assert ctl.action_log_prob(state, seq) == pytest.approx(-9.65663, abs=1e-4)

    def test_recompute_matches_sampling_exactly(self):
        space = build_space("condensenet")
        state = ctl.create_controller(space, seed=4)
        for _ in range(100):
            seq, _ = ctl.sample_sequence(state, space)
            assert abs(ctl.action_log_prob(state, seq) - seq.total_log_prob) < 1e-12

    def test_invalid_sequence_rejected(self):
        space = build_space("condensenet")
        state = ctl.create_controller(space, seed=0)
        seq, _ = ctl.sample_sequence(state, space)
        bad = type(seq)(actions=seq.actions[:-1])
        with pytest.raises(ValueError):
            ctl.action_log_prob(state, bad)


class TestReinforceUpdate:
    def test_zero_reward_changes_nothing(self):
        space = build_space("condensenet")
        state = ctl.create_controller(space, seed=1)
        before = snapshot(state)
        seq, rollout = ctl.sample_sequence(state, space)
        norm = ctl.reinforce_update(state, seq, rollout, reward=0.0)
        assert norm == 0.0
        for name, arr in state.params.items():
            np.testing.assert_array_equal(arr, before[name])

    def test_positive_reward_raises_sequence_log_prob(self):
        space = build_space("condensenet")
        state = ctl.create_controller(space, seed=2)
        seq, rollout = ctl.sample_sequence(state, space)
        before = ctl.action_log_prob(state, seq)
        ctl.reinforce_update(state, seq, rollout, reward=1.0)
        assert ctl.action_log_prob(state, seq) > before

    def test_negative_reward_lowers_sequence_log_prob(self):
        space = build_space("condensenet")
        state = ctl.create_controller(space, seed=2)
        seq, rollout = ctl.sample_sequence(state, space)
        before = ctl.action_log_prob(state, seq)
        ctl.reinforce_update(state, seq, rollout, reward=-1.0)
        assert ctl.action_log_prob(state, seq) < before

    def test_gradient_scales_linearly_in_reward(self):
        space = build_space("alexnet")
        state = ctl.create_controller(space, seed=3, clip_norm=None)
        _, rollout = ctl.sample_sequence(state, space)
        g1 = ctl.policy_gradients(state, rollout, 0.35)
        g2 = ctl.policy_gradients(state, rollout, 0.70)
        for name in g1:
            np.testing.assert_array_equal(g2[name], 2.0 * g1[name])

    def test_stale_rollout_rejected(self):
        space = build_space("condensenet")
        state = ctl.create_controller(space, seed=5)
        seq, rollout = ctl.sample_sequence(state, space)
        ctl.reinforce_update(state, seq, rollout, reward=0.5)
        seq2, _ = ctl.sample_sequence(state, space)
        with pytest.raises(ValueError, match="stale"):
            ctl.reinforce_update(state, seq2, rollout, reward=0.5)

    def test_gradient_matches_finite_differences(self):
        space = build_space("condensenet")
        state = ctl.create_controller(space, seed=6, hidden_dim=3, clip_norm=None)
        seq, rollout = ctl.sample_sequence(state, space)
        reward = 1.3
        analytic = ctl.policy_gradients(state, rollout, reward)
        numeric = central_diff_grads(
            lambda: ctl.action_log_prob(state, seq) * reward, state.params)
        assert max_rel_error(analytic, numeric) < 1e-4

    def test_clip_norm_caps_update_but_reports_raw_norm(self):
        space = build_space("condensenet")
        state = ctl.create_controller(space, seed=7, clip_norm=1e-6)
        seq, rollout = ctl.sample_sequence(state, space)
        norm = ctl.reinforce_update(state, seq, rollout, reward=5.0)
        assert norm > 1e-6  # raw norm, not the clipped one

    def test_batch_of_one_equals_plain_update(self):
        space = build_space("condensenet")
        a = ctl.create_controller(space, seed=12)
        b = ctl.create_controller(space, seed=12)
        seq, rollout_a = ctl.sample_sequence(a, space)
        seq_b, rollout_b = ctl.sample_sequence(b, space)
        assert seq.actions == seq_b.actions
        ctl.reinforce_update(a, seq, rollout_a, reward=0.8)
        ctl.reinforce_update_batch(b, [rollout_b], [0.8])
        for name, arr in a.params.items():
            np.testing.assert_array_equal(arr, b.params[name])

    def test_batch_gradient_is_mean_of_samples(self):
        space = build_space("condensenet")
        state = ctl.create_controller(space, seed=13, clip_norm=None)
        rollouts = []
        rewards = [0.4, -1.2, 0.9]
        for _ in rewards:
            _, rollout = ctl.sample_sequence(state, space)
            rollouts.append(rollout)
        per_sample = [ctl.policy_gradients(state, ro, rw)
                      for ro, rw in zip(rollouts, rewards)]
        for name in state.params:
            mean = sum(g[name] for g in per_sample) / len(per_sample)
            batched = sum(ctl.policy_gradients(state, ro, rw / len(rewards))[name]
                          for ro, rw in zip(rollouts, rewards))
            np.testing.assert_allclose(batched, mean, rtol=1e-12, atol=1e-15)

    def test_batch_rejects_mismatched_rewards(self):
        space = build_space("condensenet")
        state = ctl.create_controller(space, seed=14)
        _, rollout = ctl.sample_sequence(state, space)
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
        _, rollout = ctl.sample_sequence(state, space)
        fresh = ctl.policy_gradients(state, rollout, 0.7)
        out = state.params.like()
        out.flat.fill(np.nan)
        assert ctl.policy_gradients(state, rollout, 0.7, out=out) is out
        assert out.flat.tobytes() == fresh.flat.tobytes()

    def test_out_buffer_of_another_layout_rejected(self):
        space = build_space("condensenet")
        state = ctl.create_controller(space, seed=5)
        _, rollout = ctl.sample_sequence(state, space)
        other = ctl.create_controller(space, seed=5, hidden_dim=7)
        with pytest.raises(ValueError):
            ctl.policy_gradients(state, rollout, 0.7, out=other.params.like())

    def test_consecutive_batches_match_fresh_buffers(self):
        """Two batch-3 macro updates equal the same updates summed into new buffers."""
        space = build_space("macro")
        state = ctl.create_controller(space, seed=9)
        ref = ctl.create_controller(space, seed=9)
        for rewards in ([0.3, -0.2, 0.9], [0.5, 0.1, -0.4]):
            rollouts = [ctl.sample_sequence(state, space)[1] for _ in rewards]
            ref_rollouts = [ctl.sample_sequence(ref, space)[1] for _ in rewards]
            norm = ctl.reinforce_update_batch(state, rollouts, rewards)

            grads = ref.params.like()
            for rollout, reward in zip(ref_rollouts, rewards):
                grads.flat += ctl.policy_gradients(ref, rollout, reward / len(rewards)).flat
            ref_norm = clip_by_global_norm(ctl._norm_blocks(grads), ref.clip_norm)
            adam_step(ref.params, grads, ref.adam)
            ref.revision += 1

            assert repr(norm) == repr(ref_norm)
            assert state.params.flat.tobytes() == ref.params.flat.tobytes()
            assert state.adam.m.flat.tobytes() == ref.adam.m.flat.tobytes()
            assert state.adam.v.flat.tobytes() == ref.adam.v.flat.tobytes()


class TestLearningDynamics:
    def test_two_candidate_bandit_saturates(self):
        space = bandit_space(2)
        state = ctl.create_controller(space, seed=3, hidden_dim=4, lr=0.05)
        for _ in range(500):
            seq, rollout = ctl.sample_sequence(state, space)
            reward = 1.0 if seq.actions[0] == 1 else 0.0
            ctl.reinforce_update(state, seq, rollout, reward)
        hits = sum(ctl.sample_sequence(state, space)[0].actions[0] == 1
                   for _ in range(1000))
        assert hits / 1000 > 0.95

    def test_single_rewarded_sequence_dominates_sampling(self):
        space = bandit_space(3, 3)
        state = ctl.create_controller(space, seed=5, hidden_dim=6, lr=0.05)
        target = (1, 2)
        for _ in range(2000):
            seq, rollout = ctl.sample_sequence(state, space)
            ctl.reinforce_update(state, seq, rollout,
                                 reward=1.0 if seq.actions == target else 0.0)
        hits = sum(ctl.sample_sequence(state, space)[0].actions == target
                   for _ in range(1000))
        assert hits / 1000 > 0.9

    def test_baseline_variant_also_learns(self):
        space = bandit_space(2)
        state = ctl.create_controller(space, seed=9, hidden_dim=4, lr=0.05,
                                      use_baseline=True)
        for _ in range(500):
            seq, rollout = ctl.sample_sequence(state, space)
            reward = 1.0 if seq.actions[0] == 0 else 0.0
            ctl.reinforce_update(state, seq, rollout, reward)
        hits = sum(ctl.sample_sequence(state, space)[0].actions[0] == 0
                   for _ in range(1000))
        assert hits / 1000 > 0.95
        assert 0.0 < state.baseline <= 1.0


class TestCheckpoint:
    def test_round_trip_resumes_identically(self, tmp_path):
        space = build_space("condensenet")
        state = ctl.create_controller(space, seed=8)
        for _ in range(10):
            seq, rollout = ctl.sample_sequence(state, space)
            ctl.reinforce_update(state, seq, rollout, reward=0.3)
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
            a, _ = ctl.sample_sequence(state, space)
            b, _ = ctl.sample_sequence(restored, space)
            assert a.actions == b.actions
            assert a.log_probs == b.log_probs

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


def set_version(contents, version):
    meta = json.loads(bytes(contents["meta"]).decode())
    meta["version"] = version
    contents["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    if version == 1:  # version 1 stored the LSTM one tensor per gate
        for prefix in ("param", "adam_m", "adam_v"):
            for kind in "wub":
                blocks = np.array_split(contents.pop(f"{prefix}/lstm.{kind}"), 4)
                for gate, block in zip("ifog", blocks):
                    contents[f"{prefix}/lstm.{kind}_{gate}"] = block
