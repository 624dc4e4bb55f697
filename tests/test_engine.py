import dataclasses
import itertools
import json
import tracemalloc
import weakref

import numpy as np
import pytest

from archsearch import engine
from archsearch.controller import create_controller
from archsearch.evaluators import LOOKUP_HEADER, Evaluator
from archsearch.pareto import front_of
from archsearch.rewards import EvaluationResult, RewardSpec
from archsearch.search_space import (CONDENSENET_GROWTHS, CONDENSENET_STAGES, MACRO_OPS,
                                     CondenseNetArch, arch_from_compact, build_space, decode)

from oracles import read_front_csv


def power_cfg(**kw):
    defaults = dict(space_kind="condensenet",
                    reward=RewardSpec(kind="power_constraint", threshold=70.0),
                    n_iterations=60, seed=1)
    defaults.update(kw)
    return engine.RunConfig(**defaults)


class Recording(Evaluator):
    """Passes each `evaluate_many` call to ``inner`` and keeps its batch."""

    def __init__(self, inner):
        self.inner = inner
        self.batches = []

    def evaluate_many(self, archs):
        self.batches.append(list(archs))
        return self.inner.evaluate_many(archs)


class TestRunConfig:
    def test_rejects_zero_iterations(self):
        with pytest.raises(ValueError):
            power_cfg(n_iterations=0)

    def test_rejects_bad_lr(self):
        for lr in (-0.1, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="learning rate"):
                power_cfg(lr=lr)

    def test_rejects_unknown_evaluator(self):
        with pytest.raises(ValueError):
            power_cfg(evaluator_kind="oracle")


class TestRunSearch:
    def test_single_iteration(self):
        result = engine.run_search(power_cfg(n_iterations=1))
        assert len(result.records) == 1
        assert result.best is result.records[0]
        assert result.records[0].iteration == 1

    def test_reproducible_records(self):
        cfg = power_cfg(n_iterations=40)
        a = engine.run_search(cfg)
        b = engine.run_search(cfg)
        for ra, rb in zip(a.records, b.records):
            assert ra.actions == rb.actions
            assert ra.result == rb.result
            assert ra.reward == rb.reward
            assert ra.grad_norm == rb.grad_norm

    def test_best_is_first_strict_maximum(self):
        # threshold below every reachable power: all rewards are exactly 0,
        # so the first iteration stays best throughout
        cfg = power_cfg(reward=RewardSpec(kind="power_constraint", threshold=1.0),
                        n_iterations=30)
        result = engine.run_search(cfg)
        assert result.best.iteration == 1
        assert all(r.reward == 0.0 for r in result.records)

    def test_best_reward_is_running_maximum(self):
        result = engine.run_search(power_cfg(n_iterations=50))
        running = max(r.reward for r in result.records)
        assert result.best.reward == running
        firsts = [r.iteration for r in result.records if r.reward == running]
        assert result.best.iteration == firsts[0]

    def test_front_matches_front_of_records(self):
        result = engine.run_search(power_cfg(n_iterations=80))
        rebuilt = front_of(engine._pareto_point(r) for r in result.records)
        assert [(p.accuracy, p.energy) for p in result.front.points] == \
               [(p.accuracy, p.energy) for p in rebuilt.points]

    def test_partial_table_without_fallback_refused_before_any_iteration(self, monkeypatch):
        """The shipped table holds 10 rows, 7 of them condensenet
        architectures; without a fallback the run would stop at the first
        architecture without a row."""
        cfg = power_cfg(evaluator_kind="lookup", n_iterations=5,
                        reward=RewardSpec(kind="mixed", alpha=0.5))

        def sampled(*args):
            raise AssertionError("an iteration ran")
        monkeypatch.setattr(engine.ctl, "sample_sequence", sampled)
        with pytest.raises(ValueError, match=r"holds 10 rows, 7 of the 15625 condensenet "
                                             r"architectures: evaluator\.fallback = off"):
            engine.run_search(cfg)

    def test_full_table_runs_without_fallback(self, tmp_path):
        """A table with a row for each of the 15,625 condensenet architectures
        answers every sample from its rows."""
        rows = {}
        for stages in itertools.product(CONDENSENET_STAGES, repeat=3):
            for growths in itertools.product(CONDENSENET_GROWTHS, repeat=3):
                rows[CondenseNetArch(stages, growths)] = (sum(stages) % 40 + 0.5,
                                                          sum(growths) / 8)
        table = tmp_path / "full.csv"
        table.write_text(",".join(LOOKUP_HEADER) + "\n" + "".join(
            ",".join(map(str, (*arch.stages, *arch.growths, *row))) + "\n"
            for arch, row in rows.items()))
        cfg = power_cfg(evaluator_kind="lookup", lookup_path=str(table), n_iterations=20,
                        reward=RewardSpec(kind="mixed", alpha=0.5))
        records = engine.run_search(cfg).records
        assert len(records) == 20
        for record in records:
            error_pct, energy = rows[record.arch]
            assert record.result.accuracy == 1.0 - error_pct / 100.0
            assert record.result.energy_joules == energy

    def test_guidance_beats_random_search(self):
        cfg = power_cfg(n_iterations=600)
        final_window = engine.run_search(cfg).stats.windows[-1]
        random_rate = engine.run_random(cfg).stats.overall_rate
        assert final_window >= 3.0 * random_rate

    def test_guidance_on_alexnet_power_budget(self):
        cfg = power_cfg(space_kind="alexnet", n_iterations=600, seed=2)
        final_window = engine.run_search(cfg).stats.windows[-1]
        random_rate = engine.run_random(cfg).stats.overall_rate
        assert final_window >= 3.0 * random_rate

    def test_guidance_on_accuracy_floor(self):
        # sparse signal: few random condensenet archs clear 0.85 accuracy
        cfg = power_cfg(reward=RewardSpec(kind="accuracy_constraint", threshold=0.85,
                                          energy_norm_max=130.0),
                        n_iterations=600, seed=2)
        result = engine.run_search(cfg)
        random_rate = engine.run_random(cfg).stats.overall_rate
        assert random_rate < 0.1
        assert result.stats.windows[-1] > 0.5

    def test_resumed_search_continues_the_exact_stream(self, tmp_path):
        from archsearch.controller import save_checkpoint

        full = engine.run_search(power_cfg(n_iterations=60))
        first = engine.run_search(power_cfg(n_iterations=30))
        ckpt = tmp_path / "mid.npz"
        save_checkpoint(first.controller, ckpt)
        second = engine.run_search(power_cfg(n_iterations=30,
                                             resume_path=str(ckpt)))
        tail = full.records[30:]
        for resumed, original in zip(second.records, tail):
            assert resumed.actions == original.actions
            assert resumed.result == original.result
            assert resumed.reward == original.reward

    def test_resume_space_mismatch_rejected(self, tmp_path):
        from archsearch.controller import save_checkpoint

        result = engine.run_search(power_cfg(n_iterations=5))
        ckpt = tmp_path / "c.npz"
        save_checkpoint(result.controller, ckpt)
        with pytest.raises(ValueError, match="configured for"):
            engine.run_search(power_cfg(space_kind="alexnet", n_iterations=5,
                                        resume_path=str(ckpt)))

    def test_given_controller_of_other_space_rejected(self):
        state = create_controller(build_space("alexnet"), seed=0)
        with pytest.raises(ValueError, match="alexnet controller"):
            engine.run_search(power_cfg(n_iterations=5), controller=state)

    def test_controller_hooks_looked_up_per_call(self, monkeypatch):
        # bench/spans.py times the loop by replacing these module attributes
        from archsearch import controller as ctl

        calls = {"sample": 0, "update": 0}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(ctl, "sample_sequence", counted("sample", ctl.sample_sequence))
        monkeypatch.setattr(ctl, "reinforce_update_batch",
                            counted("update", ctl.reinforce_update_batch))
        engine.run_search(power_cfg(n_iterations=5, batch_n=2))
        assert calls == {"sample": 5, "update": 3}

    def test_batched_updates_share_grad_norm(self):
        result = engine.run_search(power_cfg(n_iterations=10, batch_n=4))
        norms = [r.grad_norm for r in result.records]
        # updates at samples 4, 8 and the trailing partial batch at 10
        assert norms[0] == norms[1] == norms[2] == norms[3]
        assert norms[4] == norms[5] == norms[6] == norms[7]
        assert norms[8] == norms[9]
        assert norms[0] != norms[4]

    def test_batched_run_still_learns(self):
        cfg = power_cfg(n_iterations=600, batch_n=5)
        final_window = engine.run_search(cfg).stats.windows[-1]
        assert final_window > 0.5

    def test_alpha_steers_energy(self):
        seeds_ok = 0
        for seed in (1, 2):
            runs = {}
            for alpha in (0.25, 0.75):
                cfg = power_cfg(reward=RewardSpec(kind="mixed", alpha=alpha),
                                n_iterations=400, seed=seed)
                tail = engine.run_search(cfg).records[-100:]
                runs[alpha] = np.mean([r.result.energy_joules for r in tail])
            if runs[0.25] < runs[0.75]:
                seeds_ok += 1
        assert seeds_ok == 2


class TestRunRandom:
    def test_uniform_marginals(self):
        cfg = power_cfg(n_iterations=10_000, seed=3)
        result = engine.run_random(cfg)
        space = build_space("condensenet")
        for t, slot in enumerate(space.slots):
            counts = np.zeros(len(slot.candidates))
            for r in result.records:
                counts[r.actions[t]] += 1
            np.testing.assert_allclose(counts / len(result.records), 0.2, atol=0.02)

    def test_deterministic_under_seed(self):
        cfg = power_cfg(n_iterations=30)
        a = engine.run_random(cfg)
        b = engine.run_random(cfg)
        assert [r.actions for r in a.records] == [r.actions for r in b.records]

    def test_block_draws_are_one_draw_per_architecture(self):
        """Across block boundaries and a short last block, the actions are those
        of one rng.integers(arities) call per iteration on the run's seed."""
        n = 2 * engine.RANDOM_BLOCK + 3
        result = engine.run_random(power_cfg(n_iterations=n, seed=11))
        rng = np.random.default_rng(11)
        arities = build_space("condensenet").arities
        assert [r.actions for r in result.records] == \
            [tuple(rng.integers(arities).tolist()) for _ in range(n)]
        assert all(type(a) is int for r in result.records for a in r.actions)

    def test_no_controller_and_zero_grad_norms(self):
        result = engine.run_random(power_cfg(n_iterations=10))
        assert result.controller is None
        assert all(r.grad_norm == 0.0 for r in result.records)

    def test_refuses_resume_path(self):
        with pytest.raises(ValueError, match="search only"):
            engine.run_random(power_cfg(n_iterations=2, resume_path="nope.npz"))


class TestBatchWalk:
    """The loop scores each batch in one `evaluate_many` call, with that
    batch's architectures in sample order, and updates once per batch."""

    def test_random_scores_blocks_of_random_block(self):
        cfg = engine.RunConfig(space_kind="macro",
                               reward=RewardSpec(kind="mac_constraint", threshold=0.31),
                               n_iterations=600, seed=8)
        evaluator = Recording(engine.build_evaluator(cfg))
        records = engine.run_random(cfg, evaluator=evaluator).records
        assert engine.RANDOM_BLOCK == 256
        assert [len(b) for b in evaluator.batches] == [256, 256, 88]
        assert [a for b in evaluator.batches for a in b] == [r.arch for r in records]

    @pytest.mark.parametrize("batch_n,sizes", [(1, [1] * 7), (3, [3, 3, 1])])
    def test_search_scores_and_updates_per_batch(self, batch_n, sizes, monkeypatch):
        cfg = power_cfg(n_iterations=7, batch_n=batch_n, use_baseline=True,
                        reward=RewardSpec(kind="mixed", alpha=0.5))
        evaluator = Recording(engine.build_evaluator(cfg))
        updates = []
        update = engine.ctl.reinforce_update_batch

        def recorded(state, rollouts, rewards):
            norm = update(state, rollouts, rewards)
            updates.append((len(rollouts), list(rewards), norm))
            return norm
        monkeypatch.setattr(engine.ctl, "reinforce_update_batch", recorded)
        records = engine.run_search(cfg, evaluator=evaluator).records
        assert [len(b) for b in evaluator.batches] == sizes
        assert [n for n, _, _ in updates] == sizes
        assert [a for b in evaluator.batches for a in b] == [r.arch for r in records]
        start = 0
        for size, (_, rewards, norm) in zip(sizes, updates):
            batch = records[start:start + size]
            assert [r.reward for r in batch] == rewards
            assert all(r.grad_norm == norm for r in batch)
            start += size
        assert len({norm for _, _, norm in updates}) == len(updates)  # batches differ

    @pytest.mark.parametrize("batch_n", [1, 3])
    def test_no_rollout_outlives_its_update(self, batch_n, monkeypatch):
        cfg = engine.RunConfig(space_kind="macro", n_iterations=2 * batch_n, seed=4,
                               reward=RewardSpec(kind="mac_constraint", threshold=0.31),
                               batch_n=batch_n)
        sampled, alive = [], []
        sample = engine.ctl.sample_sequence

        def recorded(state):
            if len(sampled) == batch_n:  # the second batch's first sample
                alive.extend(ref() is not None for ref in sampled)
            actions, rollout = sample(state)
            sampled.append(weakref.ref(rollout))
            return actions, rollout
        monkeypatch.setattr(engine.ctl, "sample_sequence", recorded)
        engine.run_search(cfg)
        assert alive == [False] * batch_n


class TestMemoryBudget:
    """A macro search holds each parameter-sized array about once: its
    traced peak stays within a multiple of the parameter buffer's bytes."""

    @pytest.mark.parametrize("batch_n,n_iterations,budget", [(1, 3, 8.3), (3, 20, 10.8)])
    def test_traced_peak(self, batch_n, n_iterations, budget):
        cfg = engine.RunConfig(space_kind="macro", n_iterations=n_iterations, seed=1,
                               reward=RewardSpec(kind="mac_constraint", threshold=0.31),
                               batch_n=batch_n)
        build_space("macro")  # built once per process, before tracing
        tracemalloc.start()
        try:
            result = engine.run_search(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= budget * result.controller.params.flat.nbytes


class TestComputeStats:
    def make_records(self, flags):
        records = []
        for i, ok in enumerate(flags, start=1):
            ev = EvaluationResult(accuracy=0.9, energy_joules=10.0,
                                  peak_power_watts=60.0 if ok else 80.0)
            records.append(engine.IterationRecord(
                iteration=i, actions=(), arch=None, result=ev,
                reward=0.0, grad_norm=0.0))
        return records

    def test_all_satisfying(self):
        spec = RewardSpec(kind="power_constraint", threshold=70.0)
        stats = engine.compute_stats(self.make_records([True] * 100), spec, window=50)
        assert stats.windows == [1.0, 1.0]
        assert stats.overall_rate == 1.0

    def test_alternating_gives_half(self):
        spec = RewardSpec(kind="power_constraint", threshold=70.0)
        stats = engine.compute_stats(self.make_records([True, False] * 100), spec,
                                     window=50)
        assert stats.windows == [0.5, 0.5, 0.5, 0.5]

    def test_partial_window_dropped(self):
        spec = RewardSpec(kind="power_constraint", threshold=70.0)
        stats = engine.compute_stats(self.make_records([True] * 70), spec, window=50)
        assert stats.windows == [1.0]
        assert stats.overall_rate == 1.0

    def test_mixed_reward_has_no_windows(self):
        spec = RewardSpec(kind="mixed", alpha=0.5)
        stats = engine.compute_stats(self.make_records([True] * 50), spec)
        assert stats.windows == []
        assert stats.overall_rate is None

    def test_macro_histograms_count_every_layer(self):
        cfg = engine.RunConfig(space_kind="macro",
                               reward=RewardSpec(kind="mac_constraint", threshold=0.31),
                               n_iterations=20, seed=2)
        result = engine.run_random(cfg)
        hist = result.stats.op_histogram
        assert sum(hist.values()) == 20 * 12
        rows = result.stats.layer_histogram
        assert len(rows) == 12
        assert all(sum(row) == 20 for row in rows)
        archs = [r.arch for r in result.records]
        assert rows == [[sum(a.ops[layer] == op for a in archs) for op in MACRO_OPS]
                        for layer in range(12)]
        assert list(hist.items()) == [(op, sum(a.ops.count(op) for a in archs))
                                      for op in MACRO_OPS]

    def test_histograms_of_no_archs_are_zero(self):
        assert engine.histogram_of([]) == ({op: 0 for op in MACRO_OPS},
                                           [[0] * len(MACRO_OPS) for _ in range(12)])

    def test_empty_records_rejected(self):
        with pytest.raises(ValueError):
            engine.compute_stats([], RewardSpec(kind="mixed", alpha=0.5))


class TestSampleTrainedController:
    def test_untrained_controller_samples_ops_uniformly(self):
        space = build_space("macro")
        state = create_controller(space, seed=0)
        state.params.flat[:] = 0.0  # a uniform policy
        evaluator = engine.make_evaluator("macro")
        samples = engine.sample_trained_controller(state, evaluator, n=300)
        ops_hist, _ = engine.histogram_of(a for a, _ in samples)
        total = sum(ops_hist.values())
        for op in MACRO_OPS:
            assert abs(ops_hist[op] / total - 1.0 / 6.0) < 0.02

    def test_deterministic_under_seed(self):
        space = build_space("condensenet")
        evaluator = engine.make_evaluator("condensenet")
        archs = []
        for _ in range(2):
            state = create_controller(space, seed=21)
            samples = engine.sample_trained_controller(state, evaluator, n=20)
            archs.append([a for a, _ in samples])
        assert archs[0] == archs[1]

    def test_scores_every_sample_in_one_call(self):
        state = create_controller(build_space("macro"), seed=3)
        evaluator = Recording(engine.make_evaluator("macro"))
        samples = engine.sample_trained_controller(state, evaluator, n=40)
        assert evaluator.batches == [[a for a, _ in samples]]
        assert [ev for _, ev in samples] == [evaluator.inner.evaluate(a) for a, _ in samples]


class TestMakeEvaluator:
    def test_empty_lookup_path_is_not_the_shipped_table(self):
        # only None means the shipped table; "" names the current directory
        with pytest.raises(OSError):
            engine.make_evaluator("condensenet", "lookup", lookup_path="")


class TestFileEmission:
    def test_results_round_trip(self, tmp_path):
        result = engine.run_search(power_cfg(n_iterations=25))
        path = tmp_path / "results.csv"
        engine.write_results_csv(path, result.records)
        rows = engine.read_results_csv(path)
        assert len(rows) == 25
        for row, record in zip(rows, result.records):
            assert row.iteration == record.iteration
            assert row.actions == record.actions
            assert row.accuracy == record.result.accuracy
            assert row.energy == record.result.energy_joules
            assert row.reward == record.reward
            assert row.grad_norm == record.grad_norm

    def test_rebuild_front_matches_run_front(self, tmp_path):
        result = engine.run_search(power_cfg(n_iterations=60))
        path = tmp_path / "results.csv"
        engine.write_results_csv(path, result.records)
        rows = engine.read_results_csv(path)
        front = engine.rebuild_front(rows, build_space("condensenet"))
        assert [(p.accuracy, p.energy) for p in front.points] == \
               [(p.accuracy, p.energy) for p in result.front.points]

    @staticmethod
    def macro_rows(tmp_path):
        cfg = engine.RunConfig(space_kind="macro", n_iterations=9, seed=3,
                               reward=RewardSpec(kind="mac_constraint", threshold=0.31))
        result = engine.run_random(cfg)
        path = tmp_path / "results.csv"
        engine.write_results_csv(path, result.records)
        return result, engine.read_results_csv(path)

    def test_rebuild_front_of_macro_rows_keeps_their_archs(self, tmp_path):
        result, rows = self.macro_rows(tmp_path)
        front = engine.rebuild_front(rows, build_space("macro"))
        assert front.points == result.front.points

    @pytest.mark.parametrize("bad", [(0, 6), (5, -1), (77, None), (3, 2**70)])
    def test_rebuild_front_names_the_first_bad_macro_row(self, tmp_path, bad):
        """One bad row in the middle of a macro block is refused as decoding
        row by row refuses it: with its iteration and `decode`'s message."""
        space = build_space("macro")
        _, rows = self.macro_rows(tmp_path)
        slot, value = bad
        actions = list(rows[4].actions)
        if value is None:
            del actions[slot]  # a ragged row
        else:
            actions[slot] = value
        with pytest.raises(ValueError) as refused:
            decode(space, tuple(actions))
        rows[4] = dataclasses.replace(rows[4], actions=tuple(actions))
        rows[2] = dataclasses.replace(rows[2], actions=(9,), energy=None)  # skipped
        rows[6] = dataclasses.replace(rows[6], actions=(7,) * 78)  # a later bad row
        with pytest.raises(ValueError) as exc:
            engine.rebuild_front(rows, space)
        assert str(exc.value) == f"iteration 5: {refused.value}"

    def test_front_file_round_trip(self, tmp_path):
        result = engine.run_search(power_cfg(n_iterations=40))
        path = tmp_path / "front.csv"
        engine.write_front_csv(path, result.front)
        assert [(accuracy, energy, arch_from_compact(token))
                for accuracy, energy, token in read_front_csv(path)] == \
               [(p.accuracy, p.energy, p.arch) for p in result.front.points]

    def test_summary_json_parses(self, tmp_path):
        cfg = power_cfg(n_iterations=10)
        result = engine.run_search(cfg)
        path = tmp_path / "summary.json"
        engine.write_summary_json(path, cfg, result)
        summary = json.loads(path.read_text())
        assert summary["config"]["space"] == "condensenet"
        assert summary["best"]["iteration"] == result.best.iteration
        assert len(summary["front"]) == len(result.front)

    def test_bad_results_header_rejected(self, tmp_path):
        path = tmp_path / "nope.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError, match="header"):
            engine.read_results_csv(path)

    def test_stats_round_trip(self, tmp_path):
        result = engine.run_search(power_cfg(n_iterations=60, window=20))
        path = tmp_path / "stats.csv"
        engine.write_stats_csv(path, result.stats)
        assert engine.read_stats_csv(path) == result.stats.windows

    def test_histogram_round_trips(self, tmp_path):
        cfg = engine.RunConfig(space_kind="macro",
                               reward=RewardSpec(kind="mac_constraint", threshold=0.31),
                               n_iterations=15, seed=4)
        stats = engine.run_random(cfg).stats
        ops_path = tmp_path / "ops.csv"
        layers_path = tmp_path / "layers.csv"
        engine.write_histogram_csv(ops_path, stats.op_histogram)
        engine.write_layer_histogram_csv(layers_path, stats.layer_histogram)
        assert engine.read_histogram_csv(ops_path) == stats.op_histogram
        assert engine.read_layer_histogram_csv(layers_path) == stats.layer_histogram

    def test_samples_round_trip(self, tmp_path):
        space = build_space("condensenet")
        state = create_controller(space, seed=6)
        evaluator = engine.make_evaluator("condensenet")
        samples = engine.sample_trained_controller(state, evaluator, n=10)
        path = tmp_path / "samples.csv"
        engine.write_samples_csv(path, samples)
        assert engine.read_samples_csv(path) == samples
