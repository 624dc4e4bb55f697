import itertools
from dataclasses import replace
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings

from archsearch.evaluators import (SURROGATE_FIXTURE, LookupEvaluator, SurrogateConfig,
                                   SurrogateEvaluator, UnknownArchitectureError, _capacities,
                                   fixture_lookup_path, load_lookup, load_surrogate_config,
                                   make_surrogate)
from archsearch.search_space import (AlexNetArch, CondenseNetArch, MacroArch, build_space,
                                     decode)

from oracles import macro_capacities_reference
from strategies import architectures


@pytest.fixture(scope="module")
def table():
    return load_lookup(fixture_lookup_path())


def condensenet(st, gr):
    return CondenseNetArch(stages=tuple(st), growths=tuple(gr))


def noiseless(space):
    """The shipped surrogate of a space with sigma 0."""
    return SurrogateEvaluator(replace(load_surrogate_config(space), sigma=0.0))


class TestLookupTable:
    def test_fixture_has_ten_rows(self, table):
        assert len(table) == 10

    @pytest.mark.parametrize("stages,growths,accuracy,energy", [
        ((20, 20, 20), (8, 16, 32), 0.9552, 129.37),
        ((6, 14, 14), (32, 32, 32), 0.9566, 92.16),
        ((14, 14, 12), (4, 16, 32), 0.944, 34.88),
    ])
    def test_rows_reproduce_measured_values(self, table, stages, growths, accuracy, energy):
        result = LookupEvaluator(table).evaluate(condensenet(stages, growths))
        assert result.accuracy == pytest.approx(accuracy, abs=1e-12)
        assert result.energy_joules == energy
        assert result.peak_power_watts is None

    def test_missing_arch_raises_not_found(self, table):
        with pytest.raises(UnknownArchitectureError):
            LookupEvaluator(table).evaluate(condensenet((6, 6, 6), (4, 4, 4)))

    def test_empty_data_section_is_valid(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("stage1,stage2,stage3,growth1,growth2,growth3,error_pct,energy_j\n")
        assert len(load_lookup(p)) == 0

    def test_malformed_row_names_line(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("stage1,stage2,stage3,growth1,growth2,growth3,error_pct,energy_j\n"
                     "6,6,6,4,4,4,5.0,30.0\n"
                     "6,6,6,4,4,broken,5.0,30.0\n")
        with pytest.raises(ValueError, match="line 3"):
            load_lookup(p)

    def test_duplicate_key_rejected(self, tmp_path):
        p = tmp_path / "dup.csv"
        p.write_text("stage1,stage2,stage3,growth1,growth2,growth3,error_pct,energy_j\n"
                     "6,6,6,4,4,4,5.0,30.0\n"
                     "6,6,6,4,4,4,5.1,31.0\n")
        with pytest.raises(ValueError, match="duplicate"):
            load_lookup(p)

    def test_wrong_header_rejected(self, tmp_path):
        p = tmp_path / "hdr.csv"
        p.write_text("a,b,c\n")
        with pytest.raises(ValueError, match="header"):
            load_lookup(p)

    def test_fallback_covers_missing_rows(self, table):
        fallback = make_surrogate("condensenet", seed=0)
        evaluator = LookupEvaluator(table, fallback=fallback)
        missing = condensenet((6, 6, 6), (4, 4, 4))
        assert evaluator.evaluate(missing) == fallback.evaluate(missing)
        known = condensenet((6, 14, 14), (32, 32, 32))
        assert evaluator.evaluate(known).energy_joules == 92.16


class TestSurrogateConfig:
    def test_shipped_defaults_load_for_every_space(self):
        for space in ("alexnet", "condensenet", "macro"):
            cfg = load_surrogate_config(space)
            assert cfg.space == space
            assert cfg.kappa > 0

    def test_missing_key_rejected(self, tmp_path):
        p = tmp_path / "surr.cfg"
        p.write_text("version = 1\ncondensenet.a_max = 0.9\n")
        with pytest.raises(ValueError, match="condensenet.kappa"):
            load_surrogate_config("condensenet", p)

    def test_version_required(self, tmp_path):
        p = tmp_path / "surr.cfg"
        p.write_text("condensenet.a_max = 0.9\n")
        with pytest.raises(ValueError, match="version"):
            load_surrogate_config("condensenet", p)

    def test_sigma_override(self, tmp_path):
        # a run sets sigma, like every constant, through a constants file
        p = tmp_path / "surr.cfg"
        shipped = resources.files("archsearch.data").joinpath(SURROGATE_FIXTURE).read_text()
        p.write_text(shipped.replace("condensenet.sigma = 0.01", "condensenet.sigma = 0"))
        assert make_surrogate("condensenet", config_path=p).config.sigma == 0.0


class TestSurrogateEvaluator:
    def test_minimal_arch_cheaper_than_maximal(self):
        surrogate = noiseless("condensenet")
        small = surrogate.evaluate(condensenet((6, 6, 6), (4, 4, 4)))
        large = surrogate.evaluate(condensenet((14, 14, 14), (32, 32, 32)))
        assert small.energy_joules < large.energy_joules
        assert small.peak_power_watts < large.peak_power_watts

    def test_noiseless_accuracy_increases_with_capacity(self):
        surrogate = noiseless("condensenet")
        accs = [surrogate.evaluate(condensenet((s, s, s), (g, g, g))).accuracy
                for s, g in [(6, 4), (8, 8), (10, 16), (12, 24), (14, 32)]]
        assert all(a < b for a, b in zip(accs, accs[1:]))

    def test_deterministic_per_arch_and_seed(self):
        arch = condensenet((8, 10, 12), (8, 16, 24))
        one = make_surrogate("condensenet", seed=5).evaluate(arch)
        two = make_surrogate("condensenet", seed=5).evaluate(arch)
        assert one == two
        other_seed = make_surrogate("condensenet", seed=6).evaluate(arch)
        assert other_seed.accuracy != one.accuracy  # noise keyed by seed

    def test_order_independent(self):
        surrogate = make_surrogate("condensenet", seed=3)
        a = condensenet((6, 8, 10), (4, 8, 16))
        b = condensenet((14, 12, 10), (32, 24, 16))
        first = (surrogate.evaluate(a), surrogate.evaluate(b))
        second = (surrogate.evaluate(b), surrogate.evaluate(a))
        assert first == (second[1], second[0])

    def test_outputs_within_ranges(self):
        surrogate = make_surrogate("alexnet", seed=1)
        rng = np.random.default_rng(0)
        space = build_space("alexnet")
        for _ in range(100):
            seq = tuple(int(rng.integers(len(s.candidates))) for s in space.slots)
            result = surrogate.evaluate(decode(space, seq))
            assert 0.0 <= result.accuracy <= 1.0
            assert result.energy_joules >= 0.0
            assert result.peak_power_watts >= 0.0

    def test_macro_reports_normalized_mac(self):
        surrogate = noiseless("macro")
        pooled = MacroArch(ops=("avg_pool",) * 12, skips=((),) * 12)
        heavy = MacroArch(ops=("conv5x5",) * 12, skips=((),) * 12)
        assert surrogate.evaluate(pooled).mac_normalized == 0.0
        assert surrogate.evaluate(heavy).mac_normalized == 1.0

    @settings(max_examples=200, deadline=None)
    @given(arch=architectures(kinds=("macro",)))
    def test_macro_capacities_match_straight_line_oracle(self, arch):
        """The one pass over the MAC table's rows and shares gives the bits of
        the cost model's formulas summed and divided layer by layer."""
        got = _capacities(arch)
        assert [v.hex() for v in got] == [v.hex() for v in macro_capacities_reference(arch)]

    def test_alexnet_and_condensenet_omit_mac(self):
        assert make_surrogate("alexnet").evaluate(
            AlexNetArch(layers=((8, 3, 3), (8, 3, 3)))).mac_normalized is None

    def test_tradeoff_pair_exists_by_full_enumeration(self):
        # the landscape must offer real trade-offs: some pair where one arch
        # has both higher accuracy and higher energy, checked over the
        # entire condensenet space
        surrogate = noiseless("condensenet")
        space = build_space("condensenet")
        stages = space.slots[0].candidates
        growths = space.slots[3].candidates
        results = [surrogate.evaluate(condensenet(st, gr))
                   for st in itertools.product(stages, repeat=3)
                   for gr in itertools.product(growths, repeat=3)]
        assert len(results) == 15625
        lowest = min(results, key=lambda r: r.energy_joules)
        highest = max(results, key=lambda r: r.energy_joules)
        assert highest.accuracy > lowest.accuracy
        assert highest.energy_joules > lowest.energy_joules

    def test_bad_sigma_rejected(self):
        with pytest.raises(ValueError):
            SurrogateConfig(space="condensenet", a_max=0.9, kappa=1.0, e0=0.0,
                            e1=1.0, p0=0.0, p1=1.0, sigma=-0.1)
