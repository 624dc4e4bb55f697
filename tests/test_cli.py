import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from archsearch import controller as ctl
from archsearch import engine
from archsearch.cli import SAMPLE_KEYS, SETTINGS, main
from archsearch.engine import read_results_csv
from archsearch.evaluators import LOOKUP_HEADER, fixture_lookup_path, load_lookup
from archsearch.search_space import build_space, MacroArch

from oracles import arch_to_text, encode, read_front_csv

NO_SKIPS = ((),) * 12


def run_cli(*argv):
    return main(list(argv))


def search_args(out_dir, *extra):
    return ["search", "--space", "condensenet", "--reward", "power_constraint",
            "--threshold", "70", "--iterations", "25", "--seed", "1",
            "--out", str(out_dir), *extra]


def lookup_args(out_dir, *extra):
    # lookup rows carry no peak power, so these runs use the mixed reward
    return ["search", "--space", "condensenet", "--reward", "mixed", "--alpha", "0.5",
            "--evaluator", "lookup", "--iterations", "25", "--seed", "1",
            "--out", str(out_dir), *extra]


class TestSearchCommand:
    def test_writes_all_artifacts(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert run_cli(*search_args(out)) == 0
        for name in ("results.csv", "summary.json", "stats.csv", "front.csv",
                     "checkpoint.npz"):
            assert (out / name).is_file(), name
        printed = capsys.readouterr().out
        assert "best iteration" in printed

    @pytest.mark.parametrize("command", ["search", "random"])
    @pytest.mark.parametrize("space", ["condensenet", "macro"])
    def test_wrote_line_names_the_files_written(self, tmp_path, capsys, command, space):
        out = tmp_path / "run"
        assert run_cli(command, "--space", space, "--reward", "mixed", "--alpha", "0.5",
                       "--iterations", "3", "--out", str(out)) == 0
        wrote = capsys.readouterr().out.splitlines()[-1]
        names = sorted(p.name for p in out.iterdir())
        assert wrote.startswith(f"wrote {out}/")
        assert sorted(wrote[len(f"wrote {out}/"):].split(", ")) == names
        assert ("checkpoint.npz" in names) == (command == "search")
        assert ("layer_ops.csv" in names) == (space == "macro")

    def test_mixed_alpha_example(self, tmp_path):
        out = tmp_path / "mix"
        code = run_cli("search", "--space", "condensenet", "--reward", "mixed",
                       "--alpha", "0.75", "--iterations", "600", "--seed", "1",
                       "--out", str(out))
        assert code == 0
        assert len(read_results_csv(out / "results.csv")) == 600

    def test_missing_config_file_exits_2(self, tmp_path, capsys):
        assert run_cli("search", "--config", str(tmp_path / "nope.cfg")) == 2
        assert "not found" in capsys.readouterr().err

    def test_zero_iterations_exits_2(self, tmp_path):
        out = tmp_path / "z"
        args = search_args(out)
        args[args.index("--iterations") + 1] = "0"
        assert run_cli(*args) == 2

    @pytest.mark.parametrize("hidden", ["0", "-3"])
    def test_nonpositive_hidden_exits_2(self, tmp_path, capsys, hidden):
        out = tmp_path / "h"
        assert run_cli(*search_args(out), "--hidden", hidden) == 2
        assert "controller.hidden" in capsys.readouterr().err
        assert not out.exists()

    def test_nonpositive_hidden_in_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("space = condensenet\nreward.kind = mixed\nreward.alpha = 0.5\n"
                       "run.iterations = 5\ncontroller.hidden = 0\n")
        assert run_cli("search", "--config", str(cfg), "--out", str(tmp_path / "o")) == 2
        assert "controller.hidden" in capsys.readouterr().err

    def test_missing_reward_exits_2(self, tmp_path, capsys):
        assert run_cli("search", "--space", "condensenet",
                       "--iterations", "5", "--out", str(tmp_path / "x")) == 2
        assert "reward.kind" in capsys.readouterr().err

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("search", "--space", "condensenet", "--frobnicate", "1")
        assert exc.value.code == 2

    def test_byte_identical_reruns(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert run_cli(*search_args(out_a)) == 0
        assert run_cli(*search_args(out_b)) == 0
        for name in ("results.csv", "summary.json", "stats.csv", "front.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name

    @pytest.mark.parametrize("flag, value, named", [
        ("--threshold", "nan", "threshold"),
        ("--threshold", "inf", "threshold"),
        ("--energy-norm", "inf", "energy_norm_max"),
        ("--energy-norm", "nan", "energy_norm_max"),
        ("--violation-reward", "nan", "violation_reward"),
    ])
    def test_non_finite_reward_setting_exits_2(self, tmp_path, capsys, flag, value,
                                               named):
        out = tmp_path / "nf"
        assert run_cli(*search_args(out), flag, value) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_violation_in_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("space = macro\nreward.kind = mac_constraint\n"
                       "reward.threshold = 0.31\nreward.violation = nan\n"
                       "run.iterations = 5\n")
        assert run_cli("search", "--config", str(cfg), "--out", str(tmp_path / "o")) == 2
        assert "violation_reward" in capsys.readouterr().err

    def test_lookup_evaluator_with_fallback(self, tmp_path):
        out = tmp_path / "lk"
        code = run_cli(*lookup_args(out), "--fallback", "on")
        assert code == 0

    def test_lookup_without_fallback_refused_at_config_time(self, tmp_path, capsys,
                                                            monkeypatch):
        """The shipped table lacks most condensenet architectures, so each
        command exits 2 before its run, naming the rows and the fallback."""
        first = tmp_path / "first"
        assert run_cli(*lookup_args(first), "--fallback", "on", "--iterations", "2") == 0
        forbid_runs(monkeypatch)
        out = tmp_path / "lk2"
        for argv in (lookup_args(out), ["random", *lookup_args(out)[1:]],
                     ["sample", "--checkpoint", str(first / "checkpoint.npz"),
                      "--evaluator", "lookup", "--out", str(out)]):
            capsys.readouterr()
            assert run_cli(*argv) == 2, argv[0]
            err = capsys.readouterr().err
            assert "holds 10 rows" in err and "evaluator.fallback = off" in err, argv[0]
        assert not out.exists()


class TestDivergence:
    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    def test_diverging_update_exits_1_and_writes_nothing(self, tmp_path, capsys):
        """No config-time rule can tell whether a learning rate diverges; a
        run that does stops at the first update whose norm is not finite,
        instead of writing nan parameters and all-zero actions."""
        out = tmp_path / "run"
        assert run_cli("search", "--space", "condensenet", "--reward", "mixed", "--alpha",
                       "0.5", "--iterations", "3", "--lr", "1e308", "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert "error: FloatingPointError: update 2 diverged: gradient norm nan" in err
        assert "adam.lr = 1e+308" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    def test_last_update_overflowing_the_forward_pass_exits_1_and_writes_nothing(
            self, tmp_path, capsys):
        """One update at this rate passes its gradient check but leaves
        finite parameters of about 1e308, which overflow the forward pass:
        the run stops instead of writing a checkpoint that only the next
        `sample` or resume would find broken."""
        out = tmp_path / "run"
        assert run_cli("search", "--space", "condensenet", "--reward", "mixed", "--alpha",
                       "0.5", "--iterations", "1", "--lr", "1e308", "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert ("error: FloatingPointError: update 1 diverged: the parameters overflow the "
                "forward pass; adam.lr = 1e+308 may be too large") in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    def test_sampling_an_overflowing_checkpoint_exits_1_and_writes_nothing(self, tmp_path,
                                                                           capsys):
        """Finite parameters that overflow the forward pass: the checkpoint
        loads, but its probabilities are nan, so `sample` stops at the first
        sample instead of writing actions picked from nan."""
        state = ctl.create_controller(build_space("condensenet"), seed=0)
        state.params.flat.fill(1e308)
        checkpoint = tmp_path / "checkpoint.npz"
        ctl.save_checkpoint(state, checkpoint)
        out = tmp_path / "samples"
        assert run_cli("sample", "--checkpoint", str(checkpoint), "--n", "3",
                       "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert ("error: FloatingPointError: sample 1: probabilities are not finite; the "
                "checkpoint's parameters overflow the forward pass") in err
        assert not out.exists()


class TestConfigFile:
    def test_file_drives_run_and_flags_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "space = condensenet\n"
            "reward.kind = power_constraint\n"
            "reward.threshold = 70\n"
            "run.iterations = 5\n"
            "run.seed = 4\n"
            f"out.dir = {tmp_path / 'from_file'}\n")
        assert run_cli("search", "--config", str(cfg)) == 0
        assert len(read_results_csv(tmp_path / "from_file" / "results.csv")) == 5

        assert run_cli("search", "--config", str(cfg), "--iterations", "7",
                       "--out", str(tmp_path / "override")) == 0
        assert len(read_results_csv(tmp_path / "override" / "results.csv")) == 7

    def test_unknown_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("space = condensenet\nspeed.hack = 1\n")
        assert run_cli("search", "--config", str(cfg)) == 2
        assert "unknown key" in capsys.readouterr().err

    def test_comments_and_blanks_ignored(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("# a comment\n\nspace = condensenet\n"
                       "reward.kind = mixed\nreward.alpha = 0.25\n"
                       "run.iterations = 3\n"
                       f"out.dir = {tmp_path / 'o'}\n")
        assert run_cli("search", "--config", str(cfg)) == 0


class TestRandomCommand:
    def test_runs_and_writes(self, tmp_path):
        out = tmp_path / "rnd"
        args = search_args(out)
        args[0] = "random"
        assert run_cli(*args) == 0
        assert (out / "results.csv").is_file()
        assert not (out / "checkpoint.npz").exists()  # nothing to resume


class TestHashSeedIndependence:
    """Set and string-hash order follow PYTHONHASHSEED, which an interpreter
    fixes when it starts; no output byte may follow it. Criterion 9 reruns
    in one process, so it cannot see this."""

    @pytest.mark.parametrize("argv", [
        ["random", "--space", "macro", "--reward", "mac_constraint", "--threshold", "0.31",
         "--iterations", "40", "--seed", "5"],
        ["search", "--space", "condensenet", "--reward", "mixed", "--alpha", "0.5",
         "--evaluator", "lookup", "--fallback", "on", "--iterations", "40", "--seed", "2"],
    ], ids=["macro-random", "condensenet-lookup-search"])
    def test_every_file_is_the_same_under_two_hash_seeds(self, argv, tmp_path):
        src = Path(__file__).resolve().parents[1] / "src"
        files = []
        for hash_seed in ("0", "12345"):
            out = tmp_path / hash_seed
            subprocess.run([sys.executable, "-m", "archsearch.cli", *argv, "--out", str(out)],
                           check=True, capture_output=True, timeout=120,
                           env={**os.environ, "PYTHONHASHSEED": hash_seed,
                                "PYTHONPATH": str(src)})
            files.append({path.name: path.read_bytes() for path in out.iterdir()})
        assert files[0] == files[1]
        assert "results.csv" in files[0] and "summary.json" in files[0]


class TestMacCommand:
    def write_arch(self, tmp_path, ops):
        arch = MacroArch(ops=ops, skips=NO_SKIPS)
        path = tmp_path / "arch.txt"
        path.write_text(arch_to_text(arch))
        return path

    def test_all_pooling_is_free(self, tmp_path, capsys):
        path = self.write_arch(tmp_path, ("avg_pool",) * 12)
        assert run_cli("mac", "--arch", str(path)) == 0
        total_line = [line for line in capsys.readouterr().out.splitlines()
                      if line.startswith("total")]
        assert total_line and total_line[0].split() == ["total", "0"]

    def test_all_conv5x5_matches_straight_line_sum(self, tmp_path, capsys):
        path = self.write_arch(tmp_path, ("conv5x5",) * 12)
        expected = 0
        for layer in range(12):
            size = (32, 16, 8)[layer // 4]
            c_in = 3 if layer == 0 else 32
            expected += 25 * c_in * size * size * 32
        assert run_cli("mac", "--arch", str(path), "--json") == 0
        report = json.loads(capsys.readouterr().out)
        assert report["total_mac"] == expected
        assert report["normalized"] == 1.0

    def test_sep_conv_layers_use_separable_formula(self, tmp_path, capsys):
        path = self.write_arch(tmp_path, ("sep_conv3x3",) * 12)
        assert run_cli("mac", "--arch", str(path), "--json") == 0
        report = json.loads(capsys.readouterr().out)
        # first layer: C_in=3, 32x32 map, K=3, C_out=32 -> 3*32*32*(9+32)
        assert report["per_layer"][0]["mac"] == 3 * 32 * 32 * (9 + 32)
        # mid layer 6: C_in=32, 16x16 map
        assert report["per_layer"][5]["mac"] == 32 * 16 * 16 * (9 + 32)

    def test_parse_error_exits_2(self, tmp_path):
        path = tmp_path / "broken.txt"
        path.write_text("kind = macro\nlayer1.op = conv3x3\n")  # missing layers
        assert run_cli("mac", "--arch", str(path)) == 2

    def test_non_macro_arch_exits_2(self, tmp_path):
        path = tmp_path / "cn.txt"
        path.write_text("kind = condensenet\n" + "\n".join(
            f"block{i}.stage = 6\nblock{i}.growth = 4" for i in (1, 2, 3)))
        assert run_cli("mac", "--arch", str(path)) == 2


class TestParetoCommand:
    def table_results_file(self, tmp_path):
        # results rows for the shipped table; rows outside the searchable
        # grid carry scores but no actions
        space = build_space("condensenet")
        rows = load_lookup(fixture_lookup_path())
        lines = ["iteration,actions,accuracy,energy,peak_power,mac_normalized,"
                 "reward,grad_norm"]
        for i, (arch, (error_pct, energy)) in enumerate(sorted(
                rows.items(), key=lambda kv: kv[1][1]), start=1):
            try:
                actions = ":".join(str(a) for a in encode(space, arch))
            except ValueError:
                actions = ""
            accuracy = 1.0 - error_pct / 100.0
            lines.append(f"{i},{actions},{accuracy!r},{energy!r},,,0.0,0.0")
        path = tmp_path / "table_results.csv"
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_front_of_table_rows(self, tmp_path):
        results = self.table_results_file(tmp_path)
        out = tmp_path / "front.csv"
        assert run_cli("pareto", "--results", str(results), "--space", "condensenet",
                       "--out", str(out)) == 0
        front = read_front_csv(out)
        pairs = [(round(accuracy, 4), energy) for accuracy, energy, _ in front]
        assert (0.9566, 92.16) in pairs
        assert len(front) == 5

    def test_permuted_results_give_identical_front(self, tmp_path):
        results = self.table_results_file(tmp_path)
        lines = results.read_text().splitlines()
        permuted = tmp_path / "permuted.csv"
        permuted.write_text("\n".join([lines[0]] + lines[:0:-1]) + "\n")
        out_a = tmp_path / "fa.csv"
        out_b = tmp_path / "fb.csv"
        assert run_cli("pareto", "--results", str(results), "--space", "condensenet",
                       "--out", str(out_a)) == 0
        assert run_cli("pareto", "--results", str(permuted), "--space", "condensenet",
                       "--out", str(out_b)) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_empty_results_give_empty_front(self, tmp_path):
        results = tmp_path / "empty.csv"
        results.write_text("iteration,actions,accuracy,energy,peak_power,"
                           "mac_normalized,reward,grad_norm\n")
        out = tmp_path / "front.csv"
        assert run_cli("pareto", "--results", str(results), "--space", "condensenet",
                       "--out", str(out)) == 0
        assert len(read_front_csv(out)) == 0

    def test_nan_energy_row_exits_2(self, tmp_path, capsys):
        results = self.table_results_file(tmp_path)
        lines = results.read_text().splitlines()
        fields = lines[1].split(",")
        fields[3] = "nan"
        results.write_text("\n".join(lines[:1] + [",".join(fields)] + lines[2:]) + "\n")
        out = tmp_path / "front.csv"
        assert run_cli("pareto", "--results", str(results), "--space", "condensenet",
                       "--out", str(out)) == 2
        assert f"{results}, line 2: energy must be finite" in capsys.readouterr().err
        assert not out.exists()

    @staticmethod
    def results_of_actions(path, *actions):
        """A results file with one row per action sequence, iterations from 1."""
        lines = ["iteration,actions,accuracy,energy,peak_power,mac_normalized,"
                 "reward,grad_norm"]
        lines += [f"{i},{':'.join(map(str, seq))},0.9,40.0,,,0.0,0.0"
                  for i, seq in enumerate(actions, start=1)]
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_macro_results_as_alexnet_name_file_and_iteration(self, tmp_path, capsys):
        results = self.results_of_actions(tmp_path / "macro.csv", (0,) * 78)
        out = tmp_path / "front.csv"
        assert run_cli("pareto", "--results", str(results), "--space", "alexnet",
                       "--out", str(out)) == 2
        assert (f"{results}, iteration 1: sequence has 78 actions, space has 6 slots"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_condensenet_row_out_of_alexnet_range_names_its_iteration(self, tmp_path,
                                                                       capsys):
        """The first row's actions fit alexnet too; the second's last does not."""
        results = self.results_of_actions(tmp_path / "condensenet.csv", (0,) * 6,
                                          (0, 0, 0, 0, 0, 4))
        out = tmp_path / "front.csv"
        assert run_cli("pareto", "--results", str(results), "--space", "alexnet",
                       "--out", str(out)) == 2
        assert (f"{results}, iteration 2: action 4 out of range for slot 5 (conv2.width)"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_space_other_than_the_summary_exits_2(self, tmp_path, capsys):
        """The run's actions would decode in alexnet too; its summary says
        condensenet."""
        run = tmp_path / "run"
        assert run_cli(*search_args(run)) == 0
        out = tmp_path / "front.csv"
        assert run_cli("pareto", "--results", str(run / "results.csv"), "--space", "alexnet",
                       "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert "holds condensenet results" in err and "not --space alexnet" in err
        assert str(run / "summary.json") in err
        assert not out.exists()

    def test_space_of_the_summary_gives_the_runs_front(self, tmp_path):
        run = tmp_path / "run"
        assert run_cli(*search_args(run)) == 0
        out = tmp_path / "front.csv"
        assert run_cli("pareto", "--results", str(run / "results.csv"), "--space",
                       "condensenet", "--out", str(out)) == 0
        assert out.read_bytes() == (run / "front.csv").read_bytes()

    def test_results_without_summary_are_read_as_given(self, tmp_path):
        run = tmp_path / "run"
        assert run_cli(*search_args(run)) == 0
        results = tmp_path / "results.csv"
        results.write_bytes((run / "results.csv").read_bytes())
        out = tmp_path / "front.csv"
        assert run_cli("pareto", "--results", str(results), "--space", "condensenet",
                       "--out", str(out)) == 0
        assert out.read_bytes() == (run / "front.csv").read_bytes()

    def test_unreadable_summary_exits_2_naming_it(self, tmp_path, capsys):
        run = tmp_path / "run"
        assert run_cli(*search_args(run)) == 0
        (run / "summary.json").write_text("{not json\n")
        out = tmp_path / "front.csv"
        assert run_cli("pareto", "--results", str(run / "results.csv"), "--space",
                       "condensenet", "--out", str(out)) == 2
        assert f"{run / 'summary.json'}: unreadable run summary" in capsys.readouterr().err
        assert not out.exists()

    def test_malformed_results_exit_2(self, tmp_path):
        results = tmp_path / "bad.csv"
        results.write_text("nope\n")
        assert run_cli("pareto", "--results", str(results), "--space",
                       "condensenet", "--out", str(tmp_path / "f.csv")) == 2


class TestResumeFlag:
    def test_search_resumes_from_checkpoint(self, tmp_path):
        first = tmp_path / "first"
        assert run_cli(*search_args(first)) == 0
        resumed = tmp_path / "resumed"
        assert run_cli(*search_args(resumed), "--resume",
                       str(first / "checkpoint.npz")) == 0
        assert (resumed / "results.csv").is_file()

    def test_summary_records_the_resumed_controller(self, tmp_path):
        """The config record names the checkpoint's controller settings, not
        the defaults of settings a resumed run may not be given."""
        first = tmp_path / "first"
        assert run_cli(*search_args(first), "--hidden", "9", "--baseline", "on",
                       "--lr", "0.02") == 0
        resumed = tmp_path / "resumed"
        assert run_cli(*search_args(resumed), "--resume",
                       str(first / "checkpoint.npz")) == 0
        config = json.loads((resumed / "summary.json").read_text())["config"]
        assert (config["hidden_dim"], config["lr"], config["use_baseline"]) == (9, 0.02, True)
        assert config["resume_path"] == str(first / "checkpoint.npz")
        assert config["clip_norm"] == 5.0
        # a fresh run records the settings as given
        config = json.loads((first / "summary.json").read_text())["config"]
        assert (config["hidden_dim"], config["lr"], config["use_baseline"]) == (9, 0.02, True)

    def test_summary_records_the_checkpoints_clip_norm(self, tmp_path):
        first = tmp_path / "first"
        assert run_cli(*search_args(first)) == 0
        path = first / "checkpoint.npz"
        with np.load(path) as data:
            contents = {k: data[k] for k in data.files}
        set_meta(contents, None, "clip_norm", 2.5)
        np.savez(path, **contents)
        resumed = tmp_path / "resumed"
        assert run_cli(*search_args(resumed), "--resume", str(path)) == 0
        assert json.loads((resumed / "summary.json").read_text())["config"]["clip_norm"] == 2.5

    def test_missing_resume_checkpoint_exits_2(self, tmp_path):
        out = tmp_path / "r"
        assert run_cli(*search_args(out), "--resume",
                       str(tmp_path / "ghost.npz")) == 2

    def test_empty_checkpoint_exits_2(self, tmp_path, capsys):
        path = tmp_path / "empty.npz"
        path.write_bytes(b"")
        out = tmp_path / "r"
        assert run_cli(*search_args(out), "--resume", str(path)) == 2
        assert run_cli("sample", "--checkpoint", str(path), "--n", "3",
                       "--out", str(tmp_path / "s")) == 2
        assert capsys.readouterr().err.count("not a readable numpy archive") == 2
        assert not out.exists()

    @pytest.mark.parametrize("flag, value, key", [
        ("--hidden", "7", "controller.hidden"),
        ("--lr", "0.5", "adam.lr"),
        ("--baseline", "on", "controller.baseline"),
        ("--baseline", "off", "controller.baseline"),
    ])
    def test_controller_setting_with_resume_exits_2(self, tmp_path, capsys, flag, value,
                                                    key):
        """The resumed run continues the saved controller, whatever these say."""
        first = tmp_path / "first"
        assert run_cli(*search_args(first)) == 0
        capsys.readouterr()
        out = tmp_path / "r"
        assert run_cli(*search_args(out), "--resume", str(first / "checkpoint.npz"),
                       flag, value) == 2
        assert f"{key} is not read with run.resume" in capsys.readouterr().err
        assert not out.exists()

    def test_resume_from_other_space_exits_2(self, tmp_path, capsys):
        first = tmp_path / "alex"
        assert run_cli("search", "--space", "alexnet", "--reward", "mixed",
                       "--alpha", "0.5", "--iterations", "2",
                       "--out", str(first)) == 0
        capsys.readouterr()
        out = tmp_path / "r"
        assert run_cli(*search_args(out), "--resume",
                       str(first / "checkpoint.npz")) == 2
        assert "alexnet controller" in capsys.readouterr().err
        assert not out.exists()


class TestSampleCommand:
    def test_samples_from_checkpoint(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert run_cli(*search_args(out)) == 0
        samples_dir = tmp_path / "samples"
        assert run_cli("sample", "--checkpoint", str(out / "checkpoint.npz"),
                       "--n", "20", "--out", str(samples_dir)) == 0
        lines = (samples_dir / "samples.csv").read_text().splitlines()
        assert lines[0] == "arch,accuracy,energy,peak_power,mac_normalized"
        assert len(lines) == 21

    def test_missing_checkpoint_exits_2(self, tmp_path):
        assert run_cli("sample", "--checkpoint", str(tmp_path / "none.npz")) == 2

    @pytest.mark.parametrize("n", ["0", "-5"])
    def test_nonpositive_n_exits_2(self, tmp_path, capsys, n):
        out = tmp_path / "run"
        assert run_cli(*search_args(out)) == 0
        samples_dir = tmp_path / "samples"
        assert run_cli("sample", "--checkpoint", str(out / "checkpoint.npz"),
                       "--n", n, "--out", str(samples_dir)) == 2
        assert "--n" in capsys.readouterr().err
        assert not samples_dir.exists()

    @pytest.mark.parametrize("named, edit", [
        ("param/lstm.u",  # would broadcast into every entry
         lambda contents: contents.__setitem__("param/lstm.u", np.zeros(1))),
        ("adam_m/lstm.w", lambda contents: contents.pop("adam_m/lstm.w")),
        ("version", lambda contents: contents.__setitem__("meta", np.frombuffer(
            json.dumps({"version": 1}).encode(), dtype=np.uint8))),
        ("meta record is not JSON", lambda contents: contents.__setitem__(
            "meta", np.frombuffer(b"\x00garbage", dtype=np.uint8))),
        # resuming from these ran on, the first with nan grad_norm
        ("timestep must be an int >= 0", lambda contents: set_meta(contents, "adam", "t", -1)),
        ("baseline_decay must lie in [0, 1)",
         lambda contents: set_meta(contents, None, "baseline_decay", 7)),
        # resumed with the baseline on
        ("checkpoint meta use_baseline must be a bool",
         lambda contents: set_meta(contents, None, "use_baseline", "no")),
        # sampled one architecture n times; resumed with nan grad_norm
        ("checkpoint array 'param/lstm.b' holds a value that is not finite",
         lambda contents: contents["param/lstm.b"].__setitem__(0, np.nan)),
    ])
    def test_bad_checkpoint_exits_2(self, tmp_path, capsys, named, edit):
        out = tmp_path / "run"
        assert run_cli(*search_args(out)) == 0
        path = out / "checkpoint.npz"
        with np.load(path) as data:
            contents = {k: data[k] for k in data.files}
        edit(contents)
        np.savez(path, **contents)
        capsys.readouterr()
        assert run_cli("sample", "--checkpoint", str(path), "--n", "3",
                       "--out", str(tmp_path / "s")) == 2
        err = capsys.readouterr().err
        assert named in err and f"{path}: " in err
        # search --resume checks the same file before the run starts
        resumed = tmp_path / "resumed"
        assert run_cli(*search_args(resumed), "--resume", str(path)) == 2
        err = capsys.readouterr().err
        assert named in err and f"{path}: " in err
        assert not resumed.exists()


def set_meta(contents, record, key, value):
    """Set ``key`` of the checkpoint's meta record, or of its ``record`` entry."""
    meta = json.loads(bytes(contents["meta"]).decode())
    (meta if record is None else meta[record])[key] = value
    contents["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)


def macro_checkpoint(tmp_path):
    out = tmp_path / "macro"
    assert run_cli("search", "--space", "macro", "--reward", "mixed", "--alpha", "0.5",
                   "--iterations", "2", "--out", str(out)) == 0
    return out / "checkpoint.npz"


class TestIncompatibleSettings:
    """Settings a run would ignore or fail on at iteration 1 exit 2 up front."""

    def test_random_refuses_resume(self, tmp_path, capsys):
        first = tmp_path / "first"
        assert run_cli(*search_args(first)) == 0
        out = tmp_path / "r"
        args = ["random", *search_args(out)[1:], "--resume", str(first / "checkpoint.npz")]
        assert run_cli(*args) == 2
        assert "search only" in capsys.readouterr().err
        assert not out.exists()

    CONTROLLER_SETTINGS = [("controller.hidden", "7"), ("adam.lr", "0.5"),
                           ("controller.baseline", "on"), ("controller.baseline", "off")]

    @pytest.mark.parametrize("key, value", CONTROLLER_SETTINGS)
    def test_random_refuses_controller_flag(self, tmp_path, capsys, key, value):
        out = tmp_path / "r"
        assert run_cli("random", *search_args(out)[1:], SETTINGS[key].flag, value) == 2
        assert (f"{key} is not read by random: random search has no controller"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("key, value", CONTROLLER_SETTINGS)
    def test_random_refuses_controller_key(self, tmp_path, capsys, key, value):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("space = condensenet\nreward.kind = mixed\nreward.alpha = 0.5\n"
                       f"run.iterations = 5\n{key} = {value}\n")
        out = tmp_path / "r"
        assert run_cli("random", "--config", str(cfg), "--out", str(out)) == 2
        assert (f"{key} is not read by random: random search has no controller"
                in capsys.readouterr().err)
        assert not out.exists()
        # the same file drives a search
        assert run_cli("search", "--config", str(cfg), "--out", str(out)) == 0

    def test_mac_constraint_needs_macro_space(self, tmp_path, capsys):
        out = tmp_path / "a"
        assert run_cli("search", "--space", "alexnet", "--reward", "mac_constraint",
                       "--threshold", "0.3", "--iterations", "5", "--out", str(out)) == 2
        assert "macro space" in capsys.readouterr().err
        assert not out.exists()

    def test_power_constraint_needs_surrogate(self, tmp_path, capsys):
        out = tmp_path / "p"
        assert run_cli(*search_args(out), "--evaluator", "lookup", "--fallback", "on") == 2
        assert "peak power" in capsys.readouterr().err
        assert not out.exists()

    def test_lookup_needs_condensenet_space(self, tmp_path, capsys):
        out = tmp_path / "m"
        assert run_cli("random", "--space", "macro", "--reward", "mixed", "--alpha", "0.5",
                       "--evaluator", "lookup", "--iterations", "5", "--out", str(out)) == 2
        assert "condensenet space" in capsys.readouterr().err
        assert not out.exists()

    def test_sample_lookup_needs_condensenet_space(self, tmp_path, capsys):
        checkpoint = macro_checkpoint(tmp_path)
        capsys.readouterr()
        out = tmp_path / "s"
        assert run_cli("sample", "--checkpoint", str(checkpoint), "--n", "3",
                       "--evaluator", "lookup", "--out", str(out)) == 2
        assert "condensenet space" in capsys.readouterr().err
        assert not out.exists()


def surrogate_file(**values):
    """A condensenet surrogate constants file, 1.0 for every key not given."""
    values = dict.fromkeys(("a_max", "kappa", "e0", "e1", "p0", "p1", "sigma"), "1.0") | values
    return "version = 1\n" + "\n".join(f"condensenet.{k} = {v}" for k, v in values.items())


class TestBadInputFiles:
    """Missing or malformed input files and flags exit 2 and name the cause."""

    @pytest.mark.parametrize("flag, content, named", [
        ("--fixture", None, "ghost.txt"),
        ("--fixture", "stage1,stage2\n", "expected header"),
        ("--fixture", ",".join(LOOKUP_HEADER) + "\n6,6,6,4,4,x,5.0,30.0\n", "line 2"),
        ("--fixture", ",".join(LOOKUP_HEADER) + "\n6,6,6,4,4,4,5.0,nan\n",
         "ghost.txt, line 2: energy must be finite and >= 0"),
        ("--fixture", ",".join(LOOKUP_HEADER) + "\n6,6,6,4,4,4,5.0,inf\n",
         "ghost.txt, line 2: energy must be finite and >= 0"),
        ("--fixture", ",".join(LOOKUP_HEADER) + "\n6,6,6,4,4,4,5.0,-3\n",
         "ghost.txt, line 2: energy must be finite and >= 0"),
        ("--surrogate-config", None, "ghost.txt"),
        ("--surrogate-config", "condensenet.a_max = 0.9\n", "missing version"),
        ("--surrogate-config", surrogate_file(kappa="abc"), "condensenet.kappa"),
        ("--surrogate-config", surrogate_file(sigma="-1"),
         "ghost.txt: condensenet.sigma must be >= 0"),
        ("--surrogate-config", surrogate_file(kappa="inf"),
         "ghost.txt: condensenet.kappa must be finite"),
        ("--surrogate-config", surrogate_file(sigma="nan"),
         "ghost.txt: condensenet.sigma must be finite"),
        # a zero kappa divided by zero mid-run, a negative one made every accuracy 0
        ("--surrogate-config", surrogate_file(kappa="0"),
         "ghost.txt: condensenet.kappa must be > 0"),
        ("--surrogate-config", surrogate_file(kappa="-3"),
         "ghost.txt: condensenet.kappa must be > 0"),
        ("--surrogate-config", surrogate_file(e1="-5"),
         "ghost.txt: condensenet.e1 must be >= 0"),
        ("--surrogate-config", surrogate_file(p0="-1"),
         "ghost.txt: condensenet.p0 must be >= 0"),
        ("--surrogate-config", surrogate_file(a_max="1.5"),
         "ghost.txt: condensenet.a_max must lie in (0, 1]"),
        ("--surrogate-config", surrogate_file(a_max="0"),
         "ghost.txt: condensenet.a_max must lie in (0, 1]"),
        ("--surrogate-config", surrogate_file(capacity_weight="0"),
         "ghost.txt: condensenet.capacity_weight must be > 0"),
    ], ids=["fixture-missing", "fixture-header", "fixture-row", "fixture-nan-energy",
            "fixture-inf-energy", "fixture-negative-energy", "surrogate-missing",
            "surrogate-version", "surrogate-value", "surrogate-range", "surrogate-nonfinite",
            "surrogate-nan-sigma", "surrogate-zero-kappa", "surrogate-negative-kappa",
            "surrogate-negative-e1", "surrogate-negative-p0", "surrogate-a-max-above-1",
            "surrogate-zero-a-max", "surrogate-zero-capacity-weight"])
    def test_run_and_sample_exit_2(self, tmp_path, capsys, flag, content, named):
        path = tmp_path / "ghost.txt"
        if content is not None:
            path.write_text(content)
        extra = [flag, str(path), "--fallback", "on"]
        out = tmp_path / "run"
        assert run_cli(*lookup_args(out), *extra) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()
        first = tmp_path / "first"
        assert run_cli(*lookup_args(first), "--fallback", "on") == 0
        capsys.readouterr()
        samples = tmp_path / "samples"
        assert run_cli("sample", "--checkpoint", str(first / "checkpoint.npz"), "--n", "3",
                       "--evaluator", "lookup", *extra, "--out", str(samples)) == 2
        assert named in capsys.readouterr().err
        assert not samples.exists()

    def test_config_line_without_equals_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("space = condensenet\nreward.kind mixed\n")
        assert run_cli("search", "--config", str(cfg), "--out", str(tmp_path / "o")) == 2
        assert "line 2: expected 'key = value'" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, named", [
        (["--channels", "0"], "--channels 0"),
        (["--input-size", "2"], "--input-size 2"),
        (["--input-size", "3"], "--input-size 3"),
        (["--channels", "-1"], "--channels -1"),
    ])
    def test_mac_geometry_flags_exit_2(self, tmp_path, capsys, flags, named):
        path = tmp_path / "arch.txt"
        path.write_text(arch_to_text(MacroArch(ops=("conv3x3",) * 12, skips=NO_SKIPS)))
        assert run_cli("mac", "--arch", str(path), *flags) == 2
        assert named in capsys.readouterr().err


# the path settings take any non-empty string: "bogus" is a valid path
PATH_KEYS = ["evaluator.fixture", "evaluator.surrogate", "run.resume", "out.dir"]
CONVERTED_KEYS = [key for key, setting in SETTINGS.items()
                  if setting.convert is not str and key not in PATH_KEYS]


class TestSettingsTable:
    """Config keys and flags come from one table and share one converter."""

    @pytest.mark.parametrize("key", CONVERTED_KEYS)
    def test_unconvertible_value_names_key(self, tmp_path, capsys, key):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"space = condensenet\nreward.kind = mixed\nreward.alpha = 0.5\n"
                       f"run.iterations = 5\n{key} = bogus\n")
        out = tmp_path / "o"
        assert run_cli("search", "--config", str(cfg), "--out", str(out)) == 2
        assert f"{key}: " in capsys.readouterr().err
        assert run_cli(*search_args(out), SETTINGS[key].flag, "bogus") == 2
        assert f"{key}: " in capsys.readouterr().err
        assert not out.exists()

    def test_flag_accepts_what_its_key_accepts(self, tmp_path):
        assert run_cli(*lookup_args(tmp_path / "a"), "--fallback", "on") == 0
        assert run_cli(*lookup_args(tmp_path / "b"), "--fallback", "yes") == 0
        assert ((tmp_path / "a" / "results.csv").read_bytes()
                == (tmp_path / "b" / "results.csv").read_bytes())

    def test_readme_lists_every_key_and_flag(self):
        """Every row of README's settings table, up to the blank line after
        it, is a key of `SETTINGS` with its flag, in the table's order."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        head = "| config key | flag | meaning |\n|---|---|---|\n"
        assert readme.count(head) == 1
        table = readme.split(head)[1].split("\n\n")[0]
        rows = [line.split(" | ")[:2] for line in table.splitlines()]
        assert rows == [[f"| `{key}`", f"`{setting.flag}`"] for key, setting in SETTINGS.items()]


class TestEmptyPaths:
    """An empty path setting names its key and exits 2; nothing is written."""

    @pytest.mark.parametrize("key", PATH_KEYS)
    def test_config_key_exits_2(self, tmp_path, capsys, monkeypatch, key):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("space = condensenet\nreward.kind = mixed\nreward.alpha = 0.5\n"
                       "evaluator.kind = lookup\nevaluator.fallback = on\n"
                       f"run.iterations = 5\n{key} =\n")
        args = ["search", "--config", str(cfg)]
        if key != "out.dir":
            args += ["--out", str(tmp_path / "o")]
        assert run_cli(*args) == 2
        assert f"{key}: expected a path, got an empty value" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]

    @pytest.mark.parametrize("key", PATH_KEYS)
    def test_flag_exits_2(self, tmp_path, capsys, monkeypatch, key):
        monkeypatch.chdir(tmp_path)
        args = lookup_args(tmp_path / "o", "--fallback", "on")
        assert run_cli(*args, SETTINGS[key].flag, "") == 2  # the last --out wins
        assert f"{key}: expected a path, got an empty value" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("key", [key for key in PATH_KEYS if key != "run.resume"])
    def test_sample_flag_exits_2(self, tmp_path, capsys, monkeypatch, key):
        checkpoint = macro_checkpoint(tmp_path)
        monkeypatch.chdir(checkpoint.parent)
        before = sorted(p.name for p in checkpoint.parent.iterdir())
        capsys.readouterr()
        assert run_cli("sample", "--checkpoint", str(checkpoint), "--n", "3",
                       "--out", str(tmp_path / "samples"), SETTINGS[key].flag, "") == 2
        assert f"{key}: expected a path, got an empty value" in capsys.readouterr().err
        assert sorted(p.name for p in checkpoint.parent.iterdir()) == before
        assert not (tmp_path / "samples").exists()


class TestRunConfigRefusals:
    """Settings that used to run to a meaningless result or fail mid-run exit 2."""

    REFUSED = [("adam.lr", "nan", "learning rate must be finite and positive"),
               ("adam.lr", "inf", "learning rate must be finite and positive"),
               ("run.seed", "-1", "run.seed must be >= 0"),
               ("space", "resnet", "unknown space 'resnet': expected one of alexnet, "
                                   "condensenet, macro")]

    @pytest.mark.parametrize("command", ["search", "random"])
    @pytest.mark.parametrize("key, value, named", REFUSED)
    def test_flag_exits_2(self, tmp_path, capsys, command, key, value, named):
        out = tmp_path / "o"
        assert run_cli(command, *search_args(out)[1:], SETTINGS[key].flag, value) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key, value, named", REFUSED)
    def test_config_key_exits_2(self, tmp_path, capsys, key, value, named):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("space = condensenet\nreward.kind = mixed\nreward.alpha = 0.5\n"
                       f"run.iterations = 5\n{key} = {value}\n")
        assert run_cli("search", "--config", str(cfg), "--out", str(tmp_path / "o")) == 2
        assert named in capsys.readouterr().err


class TestUnreadRewardSettings:
    """A reward setting the chosen reward kind never reads exits 2, naming the key."""

    @pytest.mark.parametrize("space, kind, extra, named", [
        ("condensenet", "power_constraint", ["--threshold", "70", "--alpha", "0.3"],
         "reward.alpha"),
        ("macro", "mac_constraint", ["--threshold", "0.3", "--alpha", "0.3"], "reward.alpha"),
        ("condensenet", "mixed", ["--alpha", "0.5", "--threshold", "70"], "reward.threshold"),
        ("condensenet", "mixed", ["--alpha", "0.5", "--violation-reward", "-5"],
         "reward.violation"),
        ("condensenet", "accuracy_constraint", ["--threshold", "0.9",
                                                "--violation-reward", "-5"],
         "reward.violation"),
        ("condensenet", "power_constraint", ["--threshold", "70", "--energy-norm", "9"],
         "reward.energy_norm_max"),
        ("macro", "mac_constraint", ["--threshold", "0.3", "--energy-norm", "9"],
         "reward.energy_norm_max"),
    ])
    def test_flag_exits_2(self, tmp_path, capsys, space, kind, extra, named):
        out = tmp_path / "o"
        assert run_cli("search", "--space", space, "--reward", kind, *extra,
                       "--iterations", "5", "--out", str(out)) == 2
        assert f"{named} ({SETTINGS[named].field}) is not read by the {kind} reward" in \
            capsys.readouterr().err
        assert not out.exists()

    def test_config_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("space = condensenet\nreward.kind = power_constraint\n"
                       "reward.threshold = 70\nreward.violation = -5\nrun.iterations = 5\n")
        assert run_cli("random", "--config", str(cfg), "--out", str(tmp_path / "o")) == 2
        assert "reward.violation (violation_reward)" in capsys.readouterr().err

    def test_settings_the_kind_reads_run(self, tmp_path):
        assert run_cli("search", "--space", "condensenet", "--reward", "accuracy_constraint",
                       "--threshold", "0.9", "--energy-norm", "120", "--iterations", "5",
                       "--out", str(tmp_path / "a")) == 0
        assert run_cli("search", "--space", "macro", "--reward", "mac_constraint",
                       "--threshold", "0.3", "--violation-reward", "-2", "--iterations", "5",
                       "--out", str(tmp_path / "m")) == 0


class TestUnreadEvaluatorSettings:
    """A setting the chosen evaluator never reads exits 2, for runs and sample."""

    @pytest.mark.parametrize("extra, named", [
        (["--fixture", "ghost.csv"], "evaluator.fixture"),
        (["--fallback", "on"], "evaluator.fallback"),
        (["--evaluator", "surrogate", "--fixture", "ghost.csv"], "evaluator.fixture"),
    ], ids=["fixture", "fallback", "named-surrogate-fixture"])
    def test_lookup_settings_with_surrogate(self, tmp_path, capsys, extra, named):
        out = tmp_path / "run"
        assert run_cli(*search_args(out), *extra) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()
        checkpoint = macro_checkpoint(tmp_path)
        capsys.readouterr()
        samples = tmp_path / "samples"
        assert run_cli("sample", "--checkpoint", str(checkpoint), "--n", "3", *extra,
                       "--out", str(samples)) == 2
        assert named in capsys.readouterr().err
        assert not samples.exists()

    def test_surrogate_config_with_lookup_and_no_fallback(self, tmp_path, capsys):
        constants = tmp_path / "constants.cfg"
        constants.write_text(surrogate_file())
        out = tmp_path / "run"
        assert run_cli(*lookup_args(out), "--surrogate-config", str(constants)) == 2
        assert "evaluator.surrogate" in capsys.readouterr().err
        assert not out.exists()
        first = tmp_path / "first"
        assert run_cli(*lookup_args(first), "--fallback", "on") == 0
        capsys.readouterr()
        samples = tmp_path / "samples"
        assert run_cli("sample", "--checkpoint", str(first / "checkpoint.npz"), "--n", "3",
                       "--evaluator", "lookup", "--surrogate-config", str(constants),
                       "--fallback", "off", "--out", str(samples)) == 2
        assert "evaluator.surrogate" in capsys.readouterr().err
        assert not samples.exists()


def forbid_runs(monkeypatch):
    def started(*args, **kwargs):
        raise AssertionError("the run started")
    for name in ("run_search", "run_random", "sample_trained_controller"):
        monkeypatch.setattr(engine, name, started)


class TestOutputPaths:
    """An output path no file can be written to exits 2 before any run,
    leaving what is there as it was."""

    @pytest.mark.parametrize("command", ["search", "random"])
    @pytest.mark.parametrize("below", [False, True], ids=["file", "below-file"])
    def test_run_out_dir_on_a_file_exits_2(self, tmp_path, capsys, monkeypatch, command,
                                           below):
        blocker = tmp_path / "F"
        blocker.write_text("kept\n")
        forbid_runs(monkeypatch)
        out = blocker / "run" if below else blocker
        assert run_cli(command, *search_args(out)[1:]) == 2
        assert f"out.dir: {blocker} exists and is not a directory" in capsys.readouterr().err
        assert blocker.read_text() == "kept\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["F"]

    def test_sample_out_dir_on_a_file_exits_2(self, tmp_path, capsys, monkeypatch):
        checkpoint = macro_checkpoint(tmp_path)
        blocker = tmp_path / "F"
        blocker.write_text("kept\n")
        forbid_runs(monkeypatch)
        capsys.readouterr()
        assert run_cli("sample", "--checkpoint", str(checkpoint), "--n", "3",
                       "--out", str(blocker)) == 2
        assert f"out.dir: {blocker} exists and is not a directory" in capsys.readouterr().err
        assert blocker.read_text() == "kept\n"

    @pytest.mark.parametrize("where", ["missing/front.csv", "."])
    def test_pareto_out_without_a_directory_exits_2(self, tmp_path, capsys, where):
        results = tmp_path / "results.csv"
        results.write_text("iteration,actions,accuracy,energy,peak_power,"
                           "mac_normalized,reward,grad_norm\n1,,0.5,1.0,,,0.0,0.0\n")
        out = tmp_path / where
        assert run_cli("pareto", "--results", str(results), "--space", "condensenet",
                       "--out", str(out)) == 2
        assert f"--out {out}: " in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["results.csv"]


# per config key: values a run takes with the right other settings, and
# values no alexnet or condensenet run takes; "{name}" is a path that
# `TestSettingsProperty` fills in
SETTING_VALUES = {
    "space": (["alexnet", "condensenet"], ["resnet", ""]),
    "reward.kind": (["mixed", "power_constraint", "accuracy_constraint"],
                    ["mac_constraint", "bogus"]),
    "reward.alpha": (["0", "0.5", "1"], ["1.5", "nan", "x"]),
    "reward.threshold": (["0.5", "70"], ["nan", "x"]),
    "reward.energy_norm_max": (["130", "20"], ["0", "inf"]),
    "reward.violation": (["-1", "-5"], ["nan", "x"]),
    "evaluator.kind": (["surrogate", "lookup"], ["oracle"]),
    "evaluator.fixture": (["{table}"], ["", "{missing}"]),
    "evaluator.surrogate": (["{surrogate}"], ["", "{missing}"]),
    "evaluator.fallback": (["on", "off", "yes"], ["maybe"]),
    "controller.hidden": (["1", "8"], ["0", "x"]),
    "controller.baseline": (["on", "off"], ["x"]),
    "adam.lr": (["1", "0.01"], ["0", "-1", "nan", "inf"]),
    "run.iterations": (["1", "3"], ["0", "x"]),
    "run.seed": (["0", "7"], ["-1", "x"]),
    "run.window": (["1", "2"], ["0"]),
    "run.batch": (["1", "2"], ["0"]),
    "run.resume": (["{checkpoint}"], ["", "{missing}"]),
    "out.dir": (["{out}"], ["", "{file}"]),
}
# a valid run each drawn config starts from, the share of keys then given a
# valid value of their own, and how many keys are then made invalid or dropped
BASE_REWARDS = {"mixed": ("reward.alpha", "0.5"), "power_constraint": ("reward.threshold", "70"),
                "accuracy_constraint": ("reward.threshold", "0.5")}
VALID_EDIT = [False] * 7 + [True]
FAULTS = [0, 1, 1, 2]
READERS = {"results.csv": engine.read_results_csv, "stats.csv": engine.read_stats_csv,
           "summary.json": lambda path: json.loads(path.read_text()),
           "front.csv": read_front_csv, "checkpoint.npz": ctl.load_checkpoint,
           "samples.csv": engine.read_samples_csv}


@st.composite
def drawn_commands(draw):
    """(command, {key: (value, "file" or "flag")}, extra sample flags): a
    valid run, some keys given other valid values, up to two made invalid
    or dropped. `sample` takes its keys as flags only."""
    command = draw(st.sampled_from(["search", "random", "sample"]))
    if command == "sample":
        values = {"out.dir": "{out}"}
        keys = SAMPLE_KEYS
    else:
        kind = draw(st.sampled_from(sorted(BASE_REWARDS)))
        values = dict([("space", draw(st.sampled_from(SETTING_VALUES["space"][0]))),
                       ("reward.kind", kind), BASE_REWARDS[kind],
                       ("run.iterations", draw(st.sampled_from(["1", "2", "3"]))),
                       ("out.dir", "{out}")])
        keys = SETTINGS
    for key in keys:
        if draw(st.sampled_from(VALID_EDIT)):
            values[key] = draw(st.sampled_from(SETTING_VALUES[key][0]))
    for _ in range(draw(st.sampled_from(FAULTS))):
        key = draw(st.sampled_from(list(keys)))
        if key in values and draw(st.booleans()):
            del values[key]
        else:
            values[key] = draw(st.sampled_from(SETTING_VALUES[key][1]))
    forms = {key: (value, "flag" if command == "sample" else
                   draw(st.sampled_from(["file", "flag"]))) for key, value in values.items()}
    extra = []
    if command == "sample":
        extra = ["--checkpoint", draw(st.sampled_from(["{checkpoint}", "{alexnet}"])),
                 "--n", draw(st.sampled_from(["1", "3"]))]
    return command, forms, extra


@pytest.fixture(scope="module")
def setting_inputs(tmp_path_factory):
    """The existing files a drawn setting names: checkpoints and the shipped tables."""
    root = tmp_path_factory.mktemp("inputs")
    for space in ("condensenet", "alexnet"):
        assert main(["search", "--space", space, "--reward", "mixed", "--alpha", "0.5",
                     "--iterations", "2", "--hidden", "3", "--out", str(root / space)]) == 0
    table = fixture_lookup_path()
    return {"checkpoint": str(root / "condensenet" / "checkpoint.npz"),
            "alexnet": str(root / "alexnet" / "checkpoint.npz"), "table": str(table),
            "surrogate": str(table.with_name("surrogate_defaults.cfg"))}


def listing(root):
    return {p.relative_to(root): p.read_bytes() if p.is_file() else None
            for p in root.rglob("*")}


class TestSettingsProperty:
    """Any mix of settings, each valid or not, in the config file or as a
    ``--flag=value``: the command exits 2 before any run starts and writes
    nothing, or exits 0 with files that their readers take back."""

    def test_values_cover_the_settings(self):
        assert SETTING_VALUES.keys() == SETTINGS.keys()

    @settings(max_examples=150, deadline=None)
    @given(drawn=drawn_commands())
    def test_exit_0_with_readable_files_or_2_with_none(self, setting_inputs, drawn):
        command, forms, extra = drawn
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            paths = dict(setting_inputs, missing=str(root / "ghost"), out=str(root / "run"),
                         file=str(root / "F"))
            (root / "F").write_text("kept\n")
            argv = [command] + [arg.format(**paths) for arg in extra]
            lines = [f"{key} = {value.format(**paths)}"
                     for key, (value, form) in forms.items() if form == "file"]
            if lines:
                (root / "run.cfg").write_text("\n".join(lines) + "\n")
                argv += ["--config", str(root / "run.cfg")]
            argv += [f"{SETTINGS[key].flag}={value.format(**paths)}"
                     for key, (value, form) in forms.items() if form == "flag"]
            before = listing(root)
            err = io.StringIO()
            with contextlib.ExitStack() as stack:
                runs = [stack.enter_context(mock.patch.object(
                    engine, name, wraps=getattr(engine, name)))
                    for name in ("run_search", "run_random", "sample_trained_controller")]
                stack.enter_context(contextlib.redirect_stdout(io.StringIO()))
                stack.enter_context(contextlib.redirect_stderr(err))
                cwd = os.getcwd()
                os.chdir(root)  # a default out.dir is relative
                try:
                    code = main(argv)
                finally:
                    os.chdir(cwd)
            assert code in (0, 2), (argv, err.getvalue())
            if code == 2:
                assert not any(run.called for run in runs), argv
                assert listing(root) == before, argv
                return
            new = {p.parts[0] for p in listing(root).keys() - before.keys()}
            assert len(new) == 1, (argv, new)
            out = root / new.pop()
            for path in out.iterdir():
                READERS[path.name](path)
            if command != "sample":
                space = json.loads((out / "summary.json").read_text())["config"]["space"]
                assert main(["pareto", "--results", str(out / "results.csv"), "--space", space,
                             "--out", str(root / "rebuilt.csv")]) == 0
                assert (root / "rebuilt.csv").read_bytes() == (out / "front.csv").read_bytes()
