import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from archsearch import cost_model as cm
from archsearch.search_space import MACRO_LAYERS, MACRO_OPS, MacroArch

from oracles import formula_mac
from strategies import architectures

NO_SKIPS = ((),) * 12
DEFAULT = cm.mac_table(cm.DEFAULT_CHANNELS, cm.DEFAULT_INPUT_SIZE)


def plain_arch(op):
    return MacroArch(ops=(op,) * 12, skips=NO_SKIPS)


class TestConvMac:
    def test_hand_computed_values(self):
        # 3x3 on the 3-channel 32x32 image into 16 channels
        assert cm.mac_table(16, 32).rows[0]["conv3x3"] == 442_368
        # 5x5 at half resolution, 32 channels in and out
        assert DEFAULT.rows[4]["conv5x5"] == 6_553_600

    def test_wrong_op_rejected(self):
        # an op outside the table never reaches it: the architecture refuses it
        for op in ("conv7x7", "sep_conv1x1", "identity"):
            assert op not in DEFAULT.rows[3]
            with pytest.raises(ValueError, match="unknown op"):
                plain_arch(op)

    def test_nonpositive_dimension_rejected(self):
        for channels, input_size in ((0, 32), (-1, 32), (32, 3), (32, 0), (32, -8)):
            with pytest.raises(ValueError):
                cm.mac_table(channels, input_size)


class TestSepConvMac:
    def test_hand_computed_value(self):
        # 3x3 separable at half resolution, 32 channels in and out
        assert DEFAULT.rows[4]["sep_conv3x3"] == 335_872

    def test_cheaper_than_full_conv_across_macro_geometries(self):
        # K*K + C_out < K*K * C_out holds for every geometry the space uses
        for layer in range(12):
            for k in (3, 5):
                sep = DEFAULT.rows[layer][f"sep_conv{k}x{k}"]
                full = DEFAULT.rows[layer][f"conv{k}x{k}"]
                assert sep < full


class TestMacroMac:
    def test_all_pooling_is_free(self):
        for op in ("avg_pool", "max_pool"):
            report = cm.macro_mac(plain_arch(op))
            assert report.total_mac == 0
            assert report.normalized == 0.0
            assert all(mac == 0 for _, mac in report.per_layer)

    def test_most_expensive_arch_normalizes_to_one(self):
        report = cm.macro_mac(plain_arch("conv5x5"))
        assert report.normalized == 1.0

    def test_all_conv5x5_total_matches_straight_line_sum(self):
        # independent accumulation: 25 * C_in * H * W * C_out per layer,
        # resolution 32 for layers 1-4, 16 for 5-8, 8 for 9-12
        expected = 0
        for layer in range(12):
            size = (32, 16, 8)[layer // 4]
            c_in = 3 if layer == 0 else 32
            expected += 25 * c_in * size * size * 32
        report = cm.macro_mac(plain_arch("conv5x5"))
        assert report.total_mac == expected == 113_868_800

    def test_per_layer_sums_to_total(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            arch = MacroArch(ops=tuple(rng.choice(MACRO_OPS, size=12)), skips=NO_SKIPS)
            report = cm.macro_mac(arch)
            assert report.total_mac == sum(mac for _, mac in report.per_layer)
            assert 0.0 <= report.normalized <= 1.0

    def test_skips_do_not_change_cost(self):
        wired = MacroArch(ops=("conv3x3",) * 12,
                          skips=tuple(tuple(range(i)) for i in range(12)))
        assert cm.macro_mac(wired).total_mac == cm.macro_mac(plain_arch("conv3x3")).total_mac

    def test_monotone_in_op_cost(self):
        # swapping any single layer to a cheaper op never raises the total
        rng = np.random.default_rng(1)
        costs = DEFAULT.rows[5]  # mid-network ordering
        for _ in range(50):
            ops = list(rng.choice(MACRO_OPS, size=12))
            base = cm.macro_mac(MacroArch(ops=tuple(ops), skips=NO_SKIPS)).total_mac
            layer = int(rng.integers(12))
            cheaper = [op for op in MACRO_OPS if costs[op] <= costs[ops[layer]]]
            ops[layer] = cheaper[int(rng.integers(len(cheaper)))]
            swapped = cm.macro_mac(MacroArch(ops=tuple(ops), skips=NO_SKIPS)).total_mac
            assert swapped <= base

    def test_totals_are_exact_integers(self):
        report = cm.macro_mac(plain_arch("sep_conv5x5"))
        assert isinstance(report.total_mac, int)
        assert all(isinstance(mac, int) for _, mac in report.per_layer)

    def test_channel_count_configurable(self):
        small = cm.macro_mac(plain_arch("conv3x3"), channels=8)
        large = cm.macro_mac(plain_arch("conv3x3"), channels=64)
        assert small.total_mac < large.total_mac
        assert small.normalized == pytest.approx(large.normalized)  # both all-conv3x3


class TestMacTable:
    @settings(max_examples=300, deadline=None)
    @given(channels=st.integers(1, 256), input_size=st.integers(4, 512),
           arch=architectures(kinds=("macro",)))
    def test_table_equals_docstring_formulas(self, channels, input_size, arch):
        rows = [{op: formula_mac(op, layer, channels, input_size) for op in MACRO_OPS}
                for layer in range(MACRO_LAYERS)]
        table = cm.mac_table(channels, input_size)
        assert [dict(row) for row in table.rows] == rows
        assert table.layer_max == tuple(max(row.values()) for row in rows)
        space_max = sum(max(row.values()) for row in rows)
        assert table.space_max == space_max

        report = cm.macro_mac(arch, channels=channels, input_size=input_size)
        per_layer = [formula_mac(op, layer, channels, input_size)
                     for layer, op in enumerate(arch.ops)]
        assert report.per_layer == tuple(enumerate(per_layer))
        assert report.total_mac == sum(per_layer)
        assert report.normalized == report.total_mac / space_max

    @settings(max_examples=100, deadline=None)
    @given(channels=st.integers(1, 256), input_size=st.integers(4, 512))
    def test_shares_are_each_op_over_its_layer_max(self, channels, input_size):
        table = cm.mac_table(channels, input_size)
        assert len(table.shares) == MACRO_LAYERS
        for row, shares, top in zip(table.rows, table.shares, table.layer_max):
            assert list(shares) == list(row)
            for op in MACRO_OPS:
                assert shares[op].hex() == (row[op] / top).hex()

    def test_built_once_per_geometry(self):
        assert cm.mac_table(16, 64) is cm.mac_table(16, 64)
        with pytest.raises(TypeError):
            cm.mac_table(16, 64).rows[0]["conv3x3"] = 0  # shared by every caller: read-only
        with pytest.raises(TypeError):
            cm.mac_table(16, 64).shares[0]["conv3x3"] = 0.0
