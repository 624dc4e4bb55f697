import numpy as np
import pytest

from archsearch.search_space import (ActionSequence, AlexNetArch, CondenseNetArch,
                                     MACRO_OPS, MacroArch, arch_from_compact,
                                     arch_from_dict, arch_from_text, arch_to_compact,
                                     arch_to_dict, arch_to_text, build_space, decode,
                                     encode, input_token)

# every CondenseNet-family row used in the results table fixture
TABLE_ARCHS = [
    CondenseNetArch((20, 20, 20), (8, 16, 32)),
    CondenseNetArch((18, 18, 18), (8, 16, 32)),
    CondenseNetArch((16, 16, 16), (8, 16, 32)),
    CondenseNetArch((14, 14, 14), (8, 16, 32)),
    CondenseNetArch((12, 12, 12), (8, 16, 32)),
    CondenseNetArch((8, 8, 8), (8, 16, 32)),
    CondenseNetArch((6, 14, 14), (32, 32, 32)),
    CondenseNetArch((8, 8, 12), (32, 32, 32)),
    CondenseNetArch((6, 12, 14), (8, 32, 32)),
    CondenseNetArch((14, 14, 12), (4, 16, 32)),
]


def random_sequence(space, rng):
    return ActionSequence(actions=tuple(
        int(rng.integers(len(slot.candidates))) for slot in space.slots))


class TestBuildSpace:
    def test_alexnet_layout(self):
        space = build_space("alexnet")
        assert len(space.slots) == 6
        assert space.vocab_size == 26
        assert space.slots[0].candidates == (8, 16, 32, 48, 64)
        assert space.slots[1].candidates == (3, 5, 7, 9)
        assert space.size() == 6400

    def test_condensenet_layout(self):
        space = build_space("condensenet")
        assert len(space.slots) == 6
        assert space.vocab_size == 30
        assert [s.head for s in space.slots] == ["stage"] * 3 + ["growth"] * 3
        assert space.slots[3].candidates == (4, 8, 16, 24, 32)
        assert space.size() == 15625

    def test_macro_layout(self):
        space = build_space("macro")
        op_slots = [s for s in space.slots if s.head == "op"]
        skip_slots = [s for s in space.slots if s.head == "skip"]
        assert len(space.slots) == 78
        assert len(op_slots) == 12
        assert len(skip_slots) == 66
        assert op_slots[0].candidates == MACRO_OPS

    def test_macro_skip_slots_cover_earlier_layers_only(self):
        space = build_space("macro")
        names = [s.name for s in space.slots]
        for layer in range(1, 13):
            for src in range(1, 13):
                exists = f"layer{layer}.skip{src}" in names
                assert exists == (src < layer)

    def test_macro_cardinality_exact(self):
        space = build_space("macro")
        assert space.size() == 6**12 * 2**66
        # the exact count rounds to 1.6e29 at two significant digits
        assert float(f"{space.size():.1e}") == 1.6e29

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            build_space("resnet")


class TestDecode:
    def test_condensenet_table_row(self):
        space = build_space("condensenet")
        seq = ActionSequence(actions=(0, 4, 4, 4, 4, 4))
        arch = decode(space, seq)
        assert arch == CondenseNetArch(stages=(6, 14, 14), growths=(32, 32, 32))

    def test_alexnet_all_zero_actions(self):
        space = build_space("alexnet")
        arch = decode(space, ActionSequence(actions=(0,) * 6))
        assert arch == AlexNetArch(layers=((8, 3, 3), (8, 3, 3)))

    def test_macro_all_zero_actions(self):
        space = build_space("macro")
        arch = decode(space, ActionSequence(actions=(0,) * 78))
        assert arch.ops == ("conv3x3",) * 12
        assert arch.skips == ((),) * 12

    def test_out_of_range_action_rejected(self):
        space = build_space("condensenet")
        with pytest.raises(ValueError):
            decode(space, ActionSequence(actions=(0, 0, 0, 0, 0, 5)))
        with pytest.raises(ValueError):
            decode(space, ActionSequence(actions=(0, 0, 0)))


class TestEncode:
    def test_alexnet_max_arch_hits_last_candidates(self):
        space = build_space("alexnet")
        arch = AlexNetArch(layers=((64, 9, 9), (64, 9, 9)))
        assert encode(space, arch).actions == (4, 3, 3, 4, 3, 3)

    def test_round_trip_table_rows_inside_the_space(self):
        space = build_space("condensenet")
        stage_candidates = set(space.slots[0].candidates)
        for arch in TABLE_ARCHS:
            if set(arch.stages) <= stage_candidates:
                assert decode(space, encode(space, arch)) == arch
            else:
                # stages 16/18/20 sit outside the searchable grid
                with pytest.raises(ValueError):
                    encode(space, arch)

    def test_round_trip_random_macro_archs(self):
        space = build_space("macro")
        rng = np.random.default_rng(0)
        for _ in range(1000):
            seq = random_sequence(space, rng)
            arch = decode(space, seq)
            assert encode(space, arch).actions == seq.actions

    @pytest.mark.parametrize("kind", ["alexnet", "condensenet", "macro"])
    def test_round_trip_random_sequences(self, kind):
        space = build_space(kind)
        rng = np.random.default_rng(1)
        for _ in range(200):
            seq = random_sequence(space, rng)
            arch = decode(space, seq)
            assert encode(space, arch).actions == seq.actions
            assert decode(space, encode(space, arch)) == arch

    def test_value_not_in_candidates_rejected(self):
        space = build_space("condensenet")
        with pytest.raises(ValueError):
            encode(space, CondenseNetArch(stages=(7, 8, 10), growths=(4, 4, 4)))


class TestOneHotInput:
    """`input_token` gives the position of the one-hot input's single 1.0."""

    def test_absent_choice_gives_zeros(self):
        space = build_space("alexnet")
        assert space.vocab_size == 26
        assert input_token(space) is None

    def test_slot0_action2(self):
        space = build_space("alexnet")
        assert input_token(space, (0, 2)) == 2

    def test_slot1_action0_offset(self):
        # five filter candidates precede the first height candidate
        space = build_space("alexnet")
        assert input_token(space, (1, 0)) == 5

    @pytest.mark.parametrize("kind", ["alexnet", "condensenet", "macro"])
    def test_l0_norm_is_zero_or_one(self, kind):
        space = build_space(kind)
        rng = np.random.default_rng(2)
        assert input_token(space) is None
        seen = {}
        for _ in range(50):
            slot = int(rng.integers(len(space.slots)))
            action = int(rng.integers(len(space.slots[slot].candidates)))
            token = input_token(space, (slot, action))
            start = space.vocab_offsets[slot]
            assert start <= token < start + len(space.slots[slot].candidates)
            assert seen.setdefault(token, (slot, action)) == (slot, action)

    def test_invalid_choice_rejected(self):
        space = build_space("alexnet")
        with pytest.raises(ValueError):
            input_token(space, (6, 0))
        with pytest.raises(ValueError):
            input_token(space, (0, 5))


class TestMacroArchInvariants:
    def test_forward_skip_rejected(self):
        with pytest.raises(ValueError):
            MacroArch(ops=("conv3x3",) * 12,
                      skips=((), (), (5,)) + ((),) * 9)

    def test_unsorted_skips_rejected(self):
        with pytest.raises(ValueError):
            MacroArch(ops=("conv3x3",) * 12,
                      skips=((), (), (1, 0)) + ((),) * 9)


class TestSerialization:
    @pytest.mark.parametrize("kind", ["alexnet", "condensenet", "macro"])
    def test_text_round_trip(self, kind):
        space = build_space(kind)
        rng = np.random.default_rng(3)
        for _ in range(25):
            arch = decode(space, random_sequence(space, rng))
            assert arch_from_text(arch_to_text(arch)) == arch

    @pytest.mark.parametrize("kind", ["alexnet", "condensenet", "macro"])
    def test_compact_round_trip(self, kind):
        space = build_space(kind)
        rng = np.random.default_rng(4)
        for _ in range(25):
            arch = decode(space, random_sequence(space, rng))
            assert arch_from_compact(arch_to_compact(arch)) == arch

    @pytest.mark.parametrize("kind", ["alexnet", "condensenet", "macro"])
    def test_dict_round_trip(self, kind):
        space = build_space(kind)
        rng = np.random.default_rng(5)
        for _ in range(25):
            arch = decode(space, random_sequence(space, rng))
            assert arch_from_dict(arch_to_dict(arch)) == arch

    def test_text_form_is_flat_key_value(self):
        arch = CondenseNetArch(stages=(6, 14, 14), growths=(32, 32, 32))
        text = arch_to_text(arch)
        assert "kind = condensenet" in text.splitlines()
        assert "block1.stage = 6" in text.splitlines()

    def test_bad_text_rejected(self):
        with pytest.raises(ValueError):
            arch_from_text("kind = resnet\n")
        with pytest.raises(ValueError):
            arch_from_text("not a key value line\n")
