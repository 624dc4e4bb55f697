"""The shared text formats: key = value settings, tables, the JSON writer
and atomic writes, plus round trips of every table format; front.csv, which
the program only writes, is read back through `oracles.read_front_csv`."""

import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from archsearch import controller as ctl
from archsearch import engine, textio
from archsearch.evaluators import LOOKUP_HEADER, load_lookup
from archsearch.pareto import ParetoFront, ParetoPoint
from archsearch.rewards import EvaluationResult
from archsearch.search_space import (MACRO_LAYERS, MACRO_OPS, CondenseNetArch,
                                     arch_from_compact, build_space)

from oracles import read_front_csv
from strategies import architectures


class TestReadKeyValues:
    def test_blanks_comments_and_spaces(self):
        text = "# head\n\n  a = 1 \nb=two words\n  # indented comment\nc =\n"
        assert textio.read_key_values(text, "s.cfg") == {"a": "1", "b": "two words", "c": ""}

    def test_later_line_wins(self):
        assert textio.read_key_values("a = 1\na = 2\n", "s.cfg") == {"a": "2"}

    def test_line_without_equals_names_source_and_line(self):
        with pytest.raises(ValueError, match=r"s\.cfg, line 2: expected 'key = value'"):
            textio.read_key_values("a = 1\njunk\n", "s.cfg")

    def test_unknown_key_names_line(self):
        with pytest.raises(ValueError, match=r"s\.cfg, line 3: unknown key 'z'"):
            textio.read_key_values("a = 1\n\nz = 2\n", "s.cfg", keys={"a"})


class TestTable:
    def test_writer_bytes(self, tmp_path):
        path = tmp_path / "t.csv"
        textio.write_table(path, ("a", "b"), [("1", "x"), ["2", ""]])
        assert path.read_bytes() == b"a,b\n1,x\n2,\n"
        textio.write_table(path, ("a", "b"), [])
        assert path.read_bytes() == b"a,b\n"

    def test_reader_skips_blank_lines_and_strips_fields(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(" a , b\n1, x\n\n   \n2 ,y \n")
        assert textio.read_table(path, ("a", "b"), lambda a, b: (int(a), b)) == \
            [(1, "x"), (2, "y")]

    @pytest.mark.parametrize("text", ["", "a\n", "b,a\n1,2\n", "a,b,c\n"])
    def test_bad_header(self, tmp_path, text):
        path = tmp_path / "t.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=r"t\.csv, line 1: expected header a,b"):
            textio.read_table(path, ("a", "b"), lambda a, b: a)

    @pytest.mark.parametrize("row", ["1", "1,2,3"])
    def test_field_count_names_line(self, tmp_path, row):
        path = tmp_path / "t.csv"
        path.write_text(f"a,b\n1,2\n\n{row}\n")
        with pytest.raises(ValueError, match=r"t\.csv, line 4: expected 2 fields"):
            textio.read_table(path, ("a", "b"), lambda a, b: a)

    def test_converter_error_names_line(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b\n1,2\nx,3\n")
        with pytest.raises(ValueError, match=r"t\.csv, line 3: invalid literal"):
            textio.read_table(path, ("a", "b"), lambda a, b: int(a) + int(b))


def dumps(value):
    return json.dumps(value, indent=2, sort_keys=True)


class IntWithRepr(int):
    def __repr__(self):
        return "seven"


class FloatWithRepr(float):
    def __repr__(self):
        return "half"


class StrSubclass(str):
    pass


def program_form(value):
    """True if ``value`` is built only of what the program writes as JSON:
    None, bool, int, float, str, list and dict with str keys, by exact type."""
    if type(value) is list:
        return all(map(program_form, value))
    if type(value) is dict:
        return all(type(key) is str and program_form(item) for key, item in value.items())
    return type(value) in (type(None), bool, int, float, str)


# any code point, lone surrogates and control characters included
TEXT = st.text(st.characters(exclude_categories=()), max_size=8)
SCALARS = (st.none(), st.booleans(), st.integers(), st.integers(-2**200, 2**200),
           st.floats(), st.sampled_from([-0.0, 5e-324, -2.2250738585072014e-308,
                                         float("nan"), float("inf"), float("-inf")]), TEXT)
# lists of one leaf type, which the writer joins with one map
UNIFORM = st.one_of(*[st.lists(leaf, max_size=5) for leaf in SCALARS])
JSON_VALUES = st.recursive(
    st.one_of(*SCALARS, UNIFORM),
    lambda children: st.one_of(st.lists(children, max_size=4),
                               st.dictionaries(TEXT, children, max_size=4)),
    max_leaves=30)


class TestJsonText:
    @settings(max_examples=400, deadline=None)
    @given(JSON_VALUES)
    def test_equals_json_dumps(self, value):
        assert textio.json_text(value) == dumps(value)

    @pytest.mark.parametrize("value", [
        [], {}, [[]], [{}], {"a": []}, {"a": {}}, [[], {}, [[{}]]], (), ((),),
        {"b": 1, "a": [1.5, 2], "c": {"z": None, "y": (True, False)}},
        {None: 1}, {2.5: "x"}, {-1: 0, 3: 1},
        [IntWithRepr(7), FloatWithRepr(0.5), StrSubclass("s")],
        {"k": IntWithRepr(7)}, IntWithRepr(7), FloatWithRepr(0.5), np.float64(0.1),
        [np.float64(0.1), np.float64("nan")], [1, True, None, 1.0, "1"],
    ])
    def test_examples(self, value):
        """json.dumps's text for the program's forms; TypeError for a tuple,
        a subclass or a non-str key, all of which json.dumps writes."""
        if program_form(value):
            assert textio.json_text(value) == dumps(value)
        else:
            dumps(value)
            with pytest.raises(TypeError):
                textio.json_text(value)

    @pytest.mark.parametrize("value", [(), (1, 2), [1, (2,)], {"a": {"b": ("c",)}}],
                             ids=["empty", "flat", "in-list", "in-dict"])
    def test_tuple_refused(self, value):
        with pytest.raises(TypeError, match="tuple"):
            textio.json_text(value)

    @pytest.mark.parametrize("key", [None, True, 1, 2.5], ids=repr)
    def test_non_str_key_refused(self, key):
        for value in ({key: 0}, {"a": 0, key: 0}, [{"a": {key: 0}}]):
            with pytest.raises(TypeError, match="keys must be str"):
                textio.json_text(value)

    @pytest.mark.parametrize("leaf", [IntWithRepr(7), FloatWithRepr(0.5), StrSubclass("s"),
                                      np.float64(0.1)], ids=["int", "float", "str", "np.float64"])
    def test_subclass_refused(self, leaf):
        for value in (leaf, [leaf], [1, leaf], {"a": leaf}):
            with pytest.raises(TypeError, match=type(leaf).__name__):
                textio.json_text(value)

    @pytest.mark.parametrize("value", [
        np.int64(1), [np.int64(1)], {1, 2}, {"a": {1, 2}}, b"x", [b"x"], np.bool_(True),
        {(1,): 2}, {"a": 1, 2: 3}, object(),
    ])
    def test_type_error_where_json_dumps_raises_it(self, value):
        with pytest.raises(TypeError):
            dumps(value)
        with pytest.raises(TypeError):
            textio.json_text(value)


class TestAtomicFile:
    def test_failure_midway_keeps_old_file(self, tmp_path):
        path = tmp_path / "results.csv"
        path.write_bytes(b"old\n")
        with pytest.raises(RuntimeError):
            with textio.atomic_file(path) as f:
                f.write(b"half of the new")
                raise RuntimeError("disk full")
        assert path.read_bytes() == b"old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["results.csv"]

    def test_success_replaces(self, tmp_path):
        path = tmp_path / "summary.json"
        path.write_bytes(b"old\n")
        textio.write_text(path, "new\n")
        assert path.read_bytes() == b"new\n"
        assert [p.name for p in tmp_path.iterdir()] == ["summary.json"]

    def test_failed_writer_leaves_old_artifact(self, tmp_path):
        path = tmp_path / "results.csv"
        path.write_bytes(b"old\n")

        def rows():
            yield ["1"] * len(engine.RESULTS_HEADER)
            raise RuntimeError("interrupted")

        with pytest.raises(RuntimeError):
            textio.write_table(path, engine.RESULTS_HEADER, rows())
        assert path.read_bytes() == b"old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["results.csv"]

    def test_failed_checkpoint_save_leaves_old_file(self, tmp_path, monkeypatch):
        state = ctl.create_controller(build_space("condensenet"), seed=0)
        path = tmp_path / "checkpoint.npz"
        ctl.save_checkpoint(state, path)
        before = path.read_bytes()

        def savez(file, **arrays):
            file.write(b"PK partial archive")
            raise OSError("no space left on device")

        monkeypatch.setattr(ctl.np, "savez", savez)
        with pytest.raises(OSError):
            ctl.save_checkpoint(state, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["checkpoint.npz"]

    def test_checkpoint_path_kept_without_npz_suffix(self, tmp_path):
        state = ctl.create_controller(build_space("condensenet"), seed=0)
        path = tmp_path / "controller.ckpt"
        ctl.save_checkpoint(state, path)
        assert [p.name for p in tmp_path.iterdir()] == ["controller.ckpt"]
        assert ctl.load_checkpoint(path).hidden_dim == state.hidden_dim


# ---------------------------------------------------------------------------
# Every table writer/reader pair round-trips, and a corrupted row is named.

unit = st.floats(0.0, 1.0)
nonneg = st.floats(0.0, 1e6, allow_subnormal=True)
finite = st.floats(allow_nan=False, allow_infinity=False)
counts = st.integers(0, 10**6)


@st.composite
def scores(draw):
    return EvaluationResult(accuracy=draw(unit), energy_joules=draw(st.none() | nonneg),
                            peak_power_watts=draw(st.none() | nonneg),
                            mac_normalized=draw(st.none() | unit))


@st.composite
def records(draw):
    n = draw(st.integers(0, 6))
    out = []
    for i in range(1, n + 1):
        actions = tuple(draw(st.lists(st.integers(0, 9), max_size=8)))
        out.append(engine.IterationRecord(
            iteration=i, actions=actions,
            arch=None, result=draw(scores()), reward=draw(finite),
            grad_norm=draw(nonneg)))
    return out


def check_results(path, recs):
    engine.write_results_csv(path, recs)
    rows = engine.read_results_csv(path)
    assert [(r.iteration, r.actions, r.accuracy, r.energy, r.peak_power, r.mac_normalized,
             r.reward, r.grad_norm) for r in rows] == \
        [(r.iteration, r.actions, r.result.accuracy, r.result.energy_joules,
          r.result.peak_power_watts, r.result.mac_normalized, r.reward, r.grad_norm)
         for r in recs]


def check_front(path, points):
    engine.write_front_csv(path, ParetoFront(points))
    assert [(accuracy, energy, arch_from_compact(token) if token else None)
            for accuracy, energy, token in read_front_csv(path)] == \
        [(p.accuracy, p.energy, p.arch) for p in points]


def check_stats(path, windows):
    engine.write_stats_csv(path, engine.SearchStats(window_size=7, windows=windows))
    assert engine.read_stats_csv(path) == windows


def check_histogram(path, values):
    histogram = dict(zip(MACRO_OPS, values))
    engine.write_histogram_csv(path, histogram)
    assert engine.read_histogram_csv(path) == histogram


def check_layers(path, layers):
    engine.write_layer_histogram_csv(path, layers)
    assert engine.read_layer_histogram_csv(path) == layers


def check_samples(path, samples):
    engine.write_samples_csv(path, samples)
    assert engine.read_samples_csv(path) == samples


def check_lookup(path, rows):
    textio.write_table(path, LOOKUP_HEADER, (
        [str(v) for v in arch.stages + arch.growths] + [repr(err), repr(energy)]
        for arch, (err, energy) in rows.items()))
    assert load_lookup(path) == rows


condensenet = st.builds(CondenseNetArch, st.tuples(*[st.integers(1, 99)] * 3),
                        st.tuples(*[st.integers(1, 99)] * 3))

TABLES = {
    "results": (check_results, records()),
    "front": (check_front, st.lists(st.builds(
        ParetoPoint, accuracy=unit, energy=nonneg, arch=st.none() | architectures()),
        max_size=6)),
    "stats": (check_stats, st.lists(unit, max_size=6)),
    "histogram": (check_histogram, st.lists(counts, min_size=6, max_size=6)),
    "layers": (check_layers, st.lists(st.lists(counts, min_size=6, max_size=6),
                                      min_size=MACRO_LAYERS, max_size=MACRO_LAYERS)),
    "samples": (check_samples, st.lists(st.tuples(architectures(), scores()), max_size=6)),
    "lookup": (check_lookup, st.dictionaries(
        condensenet, st.tuples(st.floats(0.0, 100.0), nonneg), max_size=6)),
}

# the program's readers; front.csv has none, it is only written
READERS = {"results": engine.read_results_csv,
           "stats": engine.read_stats_csv, "histogram": engine.read_histogram_csv,
           "layers": engine.read_layer_histogram_csv, "samples": engine.read_samples_csv,
           "lookup": load_lookup}


@pytest.fixture(scope="module")
def table_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("tables")


@pytest.mark.parametrize("name", list(TABLES))
def test_table_round_trips(table_dir, name):
    check, values = TABLES[name]

    @settings(max_examples=60, deadline=None)
    @given(values)
    def round_trip(value):
        check(table_dir / f"{name}.csv", value)

    round_trip()


@pytest.mark.parametrize("name", list(READERS))
def test_corrupted_row_names_file_and_line(table_dir, name):
    check, values = TABLES[name]
    path = table_dir / f"{name}.corrupt.csv"

    @settings(max_examples=60, deadline=None)
    @given(values, st.data())
    def corrupt(value, data):
        check(path, value)
        lines = path.read_text().splitlines()
        if len(lines) < 2:
            return
        index = data.draw(st.integers(1, len(lines) - 1), label="row")
        fields = lines[index].split(",")
        column = data.draw(st.integers(0, len(fields) - 1), label="field")
        how = data.draw(st.sampled_from(["garble", "drop", "extra"]), label="how")
        if how == "garble":
            fields[column] = "?"
        elif how == "drop":
            del fields[column]
        else:
            fields.insert(column, "0")
        lines[index] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}, line {index + 1}: ")):
            READERS[name](path)

    corrupt()

