import json

import numpy as np
import pytest

from archsearch.cli import main
from archsearch.engine import read_front_csv, read_results_csv
from archsearch.evaluators import fixture_lookup_path, load_lookup
from archsearch.search_space import arch_to_text, build_space, encode, MacroArch

NO_SKIPS = ((),) * 12


def run_cli(*argv):
    return main(list(argv))


def search_args(out_dir, *extra):
    return ["search", "--space", "condensenet", "--reward", "power_constraint",
            "--threshold", "70", "--iterations", "25", "--seed", "1",
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
        code = run_cli(*search_args(out), "--evaluator", "lookup", "--fallback", "on")
        assert code == 0

    def test_lookup_without_fallback_fails_at_runtime(self, tmp_path, capsys):
        out = tmp_path / "lk2"
        code = run_cli(*search_args(out), "--evaluator", "lookup")
        assert code == 1
        assert "iteration" in capsys.readouterr().err


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
        table = load_lookup(fixture_lookup_path())
        lines = ["iteration,actions,accuracy,energy,peak_power,mac_normalized,"
                 "reward,grad_norm"]
        for i, (arch, row) in enumerate(sorted(
                table.rows.items(), key=lambda kv: kv[1].energy_j), start=1):
            try:
                actions = ":".join(str(a) for a in encode(space, arch).actions)
            except ValueError:
                actions = ""
            accuracy = 1.0 - row.error_pct / 100.0
            lines.append(f"{i},{actions},{accuracy!r},{row.energy_j!r},,,0.0,0.0")
        path = tmp_path / "table_results.csv"
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_front_of_table_rows(self, tmp_path):
        results = self.table_results_file(tmp_path)
        out = tmp_path / "front.csv"
        assert run_cli("pareto", "--results", str(results), "--space", "condensenet",
                       "--out", str(out)) == 0
        front = read_front_csv(out)
        pairs = [(round(p.accuracy, 4), p.energy) for p in front.points]
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
        assert named in capsys.readouterr().err
        # search --resume checks the same file before the run starts
        resumed = tmp_path / "resumed"
        assert run_cli(*search_args(resumed), "--resume", str(path)) == 2
        assert named in capsys.readouterr().err
        assert not resumed.exists()
