import dataclasses
import operator
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from archsearch import controller as ctl
from archsearch.search_space import (AlexNetArch, CondenseNetArch, DecisionSlot, MACRO_LAYERS,
                                     MACRO_OPS, MacroArch, SearchSpace, arch_from_compact,
                                     arch_from_text, arch_to_compact, arch_to_dict, build_space,
                                     decode, validate_sequence)

from oracles import (arch_from_dict, arch_to_text, compact_reference, decode_reference, encode,
                     macro_arch_refusal)
from strategies import action_sequences, architectures

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
    return tuple(int(rng.integers(len(slot.candidates))) for slot in space.slots)


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

    @pytest.mark.parametrize("candidates", [(), (3,)])
    def test_slot_of_fewer_than_two_candidates_refused(self, candidates):
        with pytest.raises(ValueError, match="slot s needs two or more candidates"):
            DecisionSlot("s", "h", candidates)


class TestDecode:
    def test_condensenet_table_row(self):
        space = build_space("condensenet")
        arch = decode(space, (0, 4, 4, 4, 4, 4))
        assert arch == CondenseNetArch(stages=(6, 14, 14), growths=(32, 32, 32))

    def test_alexnet_all_zero_actions(self):
        space = build_space("alexnet")
        arch = decode(space, (0,) * 6)
        assert arch == AlexNetArch(layers=((8, 3, 3), (8, 3, 3)))

    def test_macro_all_zero_actions(self):
        space = build_space("macro")
        arch = decode(space, (0,) * 78)
        assert arch.ops == ("conv3x3",) * 12
        assert arch.skips == ((),) * 12

    def test_out_of_range_action_rejected(self):
        space = build_space("condensenet")
        with pytest.raises(ValueError):
            decode(space, (0, 0, 0, 0, 0, 5))
        with pytest.raises(ValueError):
            decode(space, (0, 0, 0))


class TestEncode:
    """`decode` against the straight-line encoding of `oracles.encode`."""

    def test_alexnet_max_arch_hits_last_candidates(self):
        space = build_space("alexnet")
        arch = AlexNetArch(layers=((64, 9, 9), (64, 9, 9)))
        assert decode(space, (4, 3, 3, 4, 3, 3)) == arch
        assert encode(space, arch) == (4, 3, 3, 4, 3, 3)

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
            assert encode(space, arch) == seq

    @pytest.mark.parametrize("kind", ["alexnet", "condensenet", "macro"])
    def test_round_trip_random_sequences(self, kind):
        space = build_space(kind)
        rng = np.random.default_rng(1)
        for _ in range(200):
            seq = random_sequence(space, rng)
            arch = decode(space, seq)
            assert encode(space, arch) == seq
            assert decode(space, encode(space, arch)) == arch


class TestOneHotInput:
    """A choice's input token, the position of the one-hot input's single 1.0,
    is its slot's vocabulary offset plus its action."""

    def test_absent_choice_gives_zeros(self):
        # the first step has no previous choice: token -1, an all-zero input
        space = build_space("alexnet")
        assert space.vocab_size == 26
        _, rollout = ctl.sample_sequence(ctl.create_controller(space, seed=0))
        assert rollout.tokens[0] == -1

    def test_slot0_action2(self):
        space = build_space("alexnet")
        assert space.vocab_offsets[0] + 2 == 2

    def test_slot1_action0_offset(self):
        # five filter candidates precede the first height candidate
        space = build_space("alexnet")
        assert space.vocab_offsets[1] + 0 == 5

    @pytest.mark.parametrize("kind", ["alexnet", "condensenet", "macro"])
    def test_l0_norm_is_zero_or_one(self, kind):
        """Every choice has a token of its own, and a rollout feeds each step's
        choice to the next step."""
        space = build_space(kind)
        tokens = [offset + action for offset, slot in zip(space.vocab_offsets, space.slots)
                  for action in range(len(slot.candidates))]
        assert tokens == list(range(space.vocab_size))
        state = ctl.create_controller(space, seed=2)
        for _ in range(5):
            actions, rollout = ctl.sample_sequence(state)
            fed = [offset + a for offset, a in zip(space.vocab_offsets, actions[:-1])]
            assert rollout.tokens.tolist() == [-1] + fed


class TestMacroArchInvariants:
    def test_forward_skip_rejected(self):
        with pytest.raises(ValueError):
            MacroArch(ops=("conv3x3",) * 12,
                      skips=((), (), (5,)) + ((),) * 9)

    def test_unsorted_skips_rejected(self):
        with pytest.raises(ValueError):
            MacroArch(ops=("conv3x3",) * 12,
                      skips=((), (), (1, 0)) + ((),) * 9)

    @pytest.mark.parametrize("skip, layer", [
        ((0.5,), 1), ((False,), 1), ((True,), 2), ((0, 1.0), 2), ((np.int64(0),), 1)],
        ids=["half", "false", "true", "float-one", "numpy-int"])
    def test_non_integer_skip_rejected_naming_the_layer(self, skip, layer):
        """In range and increasing, so only the entry type is wrong: the
        checks name the layer."""
        skips = tuple(skip if i == layer else () for i in range(12))
        with pytest.raises(ValueError, match=f"layer {layer} skip inputs must be integers"):
            MacroArch(ops=("conv3x3",) * 12, skips=skips)

    def test_non_integer_skip_named_when_another_layer_is_a_list(self):
        """The first bad layer is named, also when a later one is a list."""
        skips = ((), (0.5,), [0]) + ((),) * 9
        with pytest.raises(ValueError, match="layer 1 skip inputs must be integers"):
            MacroArch(ops=("conv3x3",) * 12, skips=skips)


class TestArchitectureShape:
    @pytest.mark.parametrize("make", [
        lambda: CondenseNetArch((6, 6), (4, 4)),
        lambda: CondenseNetArch((6, 6, 6, 6), (4, 4, 4)),
        lambda: CondenseNetArch((6, 0, 6), (4, 4, 4)),
        lambda: CondenseNetArch((6, 6, 6), (4, 4.0, 4)),
        lambda: CondenseNetArch([6, 6, 6], (4, 4, 4)),
        lambda: AlexNetArch(((8, 3, 3),)),
        lambda: AlexNetArch(((8, 3, 3), (8, 3))),
        lambda: AlexNetArch(((8, 3, 3), (8, 3, -5))),
        lambda: MacroArch(ops=("conv3x3",) * 11 + ("conv7x7",), skips=((),) * 12),
        lambda: MacroArch(ops=("conv3x3",) * 11, skips=((),) * 11),
    ], ids=["cn-2-stages", "cn-4-stages", "cn-zero", "cn-float", "cn-list",
            "alex-1-layer", "alex-short-layer", "alex-negative",
            "macro-unknown-op", "macro-11-layers"])
    def test_malformed_architecture_rejected(self, make):
        with pytest.raises(ValueError):
            make()

    @pytest.mark.parametrize("token", [
        "st6.6+gr4.4",                      # two stages
        "st6.6.6+gr4.4.4.4",                # four growths
        "+".join(["bogus"] * 12),           # twelve unknown ops
        "8x3x3+8x3x0",                      # zero kernel width
    ])
    def test_malformed_compact_token_rejected(self, token):
        with pytest.raises(ValueError):
            arch_from_compact(token)

    @pytest.mark.parametrize("layer", ["max_pool[1", "max_pool[1]]", "max_pool[1]2]"])
    def test_bracketed_compact_layer_must_end_in_one_bracket(self, layer):
        token = "+".join(["conv3x3", layer] + ["conv3x3"] * 10)
        with pytest.raises(ValueError, match=re.escape(f"macro layer {layer!r} must end")):
            arch_from_compact(token)

    def test_malformed_text_and_dict_rejected(self):
        with pytest.raises(ValueError):
            arch_from_text("kind = condensenet\n" + "\n".join(
                f"block{i}.stage = 6\nblock{i}.growth = -4" for i in (1, 2, 3)))
        with pytest.raises(ValueError):
            arch_from_dict({"kind": "macro", "ops": ["pool"] * 12, "skips": [[]] * 12})


class TestSerializationProperties:
    @settings(max_examples=200, deadline=None)
    @given(arch=architectures())
    def test_every_form_round_trips(self, arch):
        assert arch_from_text(arch_to_text(arch)) == arch
        assert arch_from_compact(arch_to_compact(arch)) == arch
        assert arch_from_dict(arch_to_dict(arch)) == arch

    @settings(max_examples=200, deadline=None)
    @given(arch=architectures())
    def test_encode_inverts_decode(self, arch):
        space = build_space(arch_to_dict(arch)["kind"])
        assert decode(space, encode(space, arch)) == arch


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
        text = ("# any key order, blanks and comments\nblock2.growth = 32\n\n"
                "kind = condensenet\nblock1.stage = 6\nblock2.stage = 14\n"
                "block3.stage = 14\nblock1.growth = 32\nblock3.growth = 32\n")
        assert arch_from_text(text) == CondenseNetArch((6, 14, 14), (32, 32, 32))

    def test_bad_text_rejected(self):
        with pytest.raises(ValueError):
            arch_from_text("kind = resnet\n")
        with pytest.raises(ValueError):
            arch_from_text("not a key value line\n")


class TestDecodeBuildsOnce:
    """`decode` builds a shipped space's architecture without re-running its
    class's checks; every field it builds passes them."""

    @settings(max_examples=300, deadline=None)
    @given(drawn=action_sequences())
    def test_decoded_fields_pass_the_checked_constructor(self, drawn):
        arch = decode(*drawn)
        fields = {f.name: getattr(arch, f.name) for f in dataclasses.fields(arch)}
        assert vars(arch) == fields
        checked = type(arch)(**fields)
        assert checked == arch and hash(checked) == hash(arch)

    def test_a_hand_built_space_goes_through_the_checks(self):
        zeros = SearchSpace("condensenet", tuple(
            DecisionSlot(f"block{t}", "block", (0, 1)) for t in range(6)))
        with pytest.raises(ValueError, match="condensenet stages must be a tuple of 3 "
                                             "positive ints, got \\(0, 0, 0\\)"):
            decode(zeros, (0,) * 6)
        shipped = build_space("macro")
        copy = SearchSpace("macro", shipped.slots)
        assert copy == shipped and copy is not shipped
        actions = tuple(a % n for a, n in enumerate(shipped.arities))
        assert decode(copy, actions) == decode(shipped, actions)


def spaces_of(kind):
    """A shipped space, or for "hand-built macro" a copy of the macro space
    without its tables, which decodes a block row by row."""
    if kind == "hand-built macro":
        return SearchSpace("macro", build_space("macro").slots)
    return build_space(kind)


SPACE_NAMES = ["alexnet", "condensenet", "macro", "hand-built macro"]


class TestBlockDecode:
    """`decode` on a 2-D integer array: one architecture per row, as the
    sequence form gives it, or the sequence form's refusal of the first bad
    row."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_equals_the_row_by_row_decode(self, data):
        space = spaces_of(data.draw(st.sampled_from(SPACE_NAMES), label="space"))
        k = data.draw(st.sampled_from([0, 1]) | st.integers(2, 40), label="rows")
        rows = data.draw(st.lists(st.tuples(*(st.integers(0, n - 1) for n in space.arities)),
                                  min_size=k, max_size=k), label="block")
        dtype = data.draw(st.sampled_from([np.int64, np.int32, np.int8, np.uint8, np.uint64]),
                          label="dtype")
        order = data.draw(st.sampled_from("CF"), label="order")
        block = np.array(rows, dtype=dtype, order=order).reshape(k, len(space.arities))
        archs = decode(space, block)
        assert archs == [decode(space, row) for row in rows]
        if space is build_space(space.kind):
            assert archs == [decode_reference(space, row) for row in rows]

    @pytest.mark.parametrize("kind", SPACE_NAMES)
    @pytest.mark.parametrize("case", ["out-of-range", "negative", "wrong-width", "float", "bool",
                                      "1-d", "3-d"])
    def test_refused_with_the_sequence_message_of_the_first_bad_row(self, kind, case):
        space = spaces_of(kind)
        width = len(space.arities)
        block, bad_row = np.zeros((3, width), np.int64), 0
        if case == "out-of-range":
            block[1, -1] = space.arities[-1]
            block[2, 0] = 99
            bad_row = 1
        elif case == "negative":
            block[1, 3] = -1
            block[2, 0] = -5
            bad_row = 1
        elif case == "wrong-width":
            block = np.zeros((3, width + 1), np.int64)
        elif case in ("float", "bool"):
            block = block.astype(case)
        elif case == "3-d":
            block = np.zeros((2, width, 2), np.int64)
        # the sequence form of the first bad row; a 1-D block is one
        # sequence, of numpy integers
        first = tuple(block[0]) if case == "1-d" else tuple(block[bad_row].tolist())
        if case == "1-d":
            block = block[0]
        with pytest.raises(ValueError) as expected:
            decode(space, first)
        with pytest.raises(ValueError) as raised:
            decode(space, block)
        assert str(raised.value) == str(expected.value)

    @pytest.mark.parametrize("kind", SPACE_NAMES)
    def test_an_empty_block_is_refused_only_when_malformed(self, kind):
        space = spaces_of(kind)
        assert decode(space, np.zeros((0, len(space.arities)), np.int64)) == []
        for block in (np.zeros((0, len(space.arities))), np.zeros((0, 1), np.int64)):
            with pytest.raises(ValueError, match=re.escape(
                    f"actions must be a 2-D integer array of {len(space.arities)} columns, "
                    f"got {block.dtype} of shape {block.shape}")):
                decode(space, block)


class TestAgainstStraightLineOracles:
    """The table-driven `decode`, `validate_sequence`, `arch_to_compact` and
    `MacroArch` checks against the slot-by-slot forms in `oracles`."""

    @settings(max_examples=300, deadline=None)
    @given(drawn=action_sequences())
    def test_decode_and_compact_match_oracles(self, drawn):
        space, actions = drawn
        arch = decode(space, actions)
        assert arch == decode_reference(space, actions)
        assert arch_to_compact(arch) == compact_reference(arch)

    @settings(max_examples=200, deadline=None)
    @given(drawn=action_sequences(), data=st.data())
    def test_out_of_range_action_refused_as_the_oracle_refuses_it(self, drawn, data):
        space, actions = drawn
        t = data.draw(st.integers(0, len(actions) - 1), label="slot")
        bad = data.draw(st.one_of(st.integers(max_value=-1),
                                  st.integers(min_value=space.arities[t])), label="action")
        actions = actions[:t] + (bad,) + actions[t + 1:]
        with pytest.raises(ValueError) as raised:
            decode(space, actions)
        with pytest.raises(ValueError) as expected:
            decode_reference(space, actions)
        assert str(raised.value) == str(expected.value)

    @settings(max_examples=200, deadline=None)
    @given(drawn=action_sequences(), data=st.data())
    def test_non_integer_action_refused_naming_its_slot(self, drawn, data):
        space, actions = drawn
        t = data.draw(st.integers(0, len(actions) - 1), label="slot")
        bad = data.draw(st.one_of(st.booleans(), st.floats(0, 1), st.just(float(actions[t])),
                                  st.just(str(actions[t]))), label="action")
        with pytest.raises(ValueError, match=re.escape(
                f"action {bad!r} for slot {t} ({space.slots[t].name}) is not an integer")):
            decode(space, actions[:t] + (bad,) + actions[t + 1:])

    @settings(max_examples=100, deadline=None)
    @given(drawn=action_sequences(), data=st.data())
    def test_numpy_integer_action_refused_naming_its_slot(self, drawn, data):
        """No program path hands `decode` a numpy integer; it is refused as
        `MacroArch` refuses one among its skips."""
        space, actions = drawn
        t = data.draw(st.integers(0, len(actions) - 1), label="slot")
        bad = np.int64(actions[t])
        with pytest.raises(ValueError, match=re.escape(
                f"action {bad!r} for slot {t} ({space.slots[t].name}) is not an integer")):
            decode(space, actions[:t] + (bad,) + actions[t + 1:])

    def test_half_skip_action_is_refused_not_wired(self):
        space = build_space("macro")
        actions = [0] * len(space.slots)
        actions[2] = 0.5  # layer 2's skip from layer 1
        with pytest.raises(ValueError, match="slot 2 .layer2.skip1. is not an integer"):
            decode(space, tuple(actions))

    def test_wrong_length_message_unchanged(self):
        space = build_space("macro")
        for actions in ((0,) * 77, (0,) * 79, ()):
            with pytest.raises(ValueError) as raised:
                decode(space, actions)
            with pytest.raises(ValueError) as expected:
                decode_reference(space, actions)
            assert str(raised.value) == str(expected.value)

    def test_every_skip_table_entry_matches_the_oracles(self):
        """Each of the 4,095 skip codes (layer l's code has bit k set for its
        skip from layer k) wires what the slot-by-slot walk wires, alone and in
        one block, and its suffix is the straight compact form's. The lower
        half of layer l's entries, the codes without bit l - 1, are layer
        l - 1's tuple objects."""
        space = build_space("macro")
        tables = space.macro_tables
        assert tables.arities.tolist() == list(space.arities)
        assert len(tables.skips) == 4095
        rows, expected = [], []
        for layer in range(MACRO_LAYERS):
            start = layer * (layer + 1) // 2 + 1  # the slot after the layer's op slot
            entries = tables.skips[2 ** layer - 1:2 ** (layer + 1) - 1]
            for code, sources in enumerate(entries):
                actions = [0] * len(space.slots)
                actions[start:start + layer] = [code >> k & 1 for k in range(layer)]
                arch = decode_reference(space, tuple(actions))
                assert sources == arch.skips[layer]
                part = compact_reference(arch).split("+")[layer]
                assert tables.suffixes[sources] == part[len(arch.ops[layer]):]
                assert decode(space, tuple(actions)) == arch
                assert arch_from_compact(arch_to_compact(arch)) == arch
                rows.append(actions)
                expected.append(arch)
            if layer:
                previous = tables.skips[2 ** (layer - 1) - 1:2 ** layer - 1]
                assert all(map(operator.is_, entries[:2 ** (layer - 1)], previous))
        assert decode(space, np.array(rows)) == expected

    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_macro_sequence_decodes_or_is_refused_as_the_checks_say(self, data):
        """Tuples and lists, with up to three slots holding another type or a
        value out of range, or cut short or run long: `decode` builds the
        oracle's architecture, or raises `validate_sequence`'s message."""
        space = build_space("macro")
        actions = list(data.draw(st.tuples(*(st.integers(0, n - 1) for n in space.arities)),
                                 label="actions"))
        for _ in range(data.draw(st.integers(0, 3), label="changed slots")):
            t = data.draw(st.integers(0, len(actions) - 1), label="slot")
            actions[t] = data.draw(st.sampled_from(
                [True, np.int64(1), 1.0, "1", None, -1, 2, 6, 7]), label="value")
        length = data.draw(st.sampled_from([78, 78, 78, 0, 77, 79]), label="length")
        actions = data.draw(st.sampled_from([tuple, list]), label="form")((actions + [0])[:length])
        try:
            validate_sequence(space, actions)
        except ValueError as exc:
            with pytest.raises(ValueError) as raised:
                decode(space, actions)
            assert str(raised.value) == str(exc)
        else:
            assert decode(space, actions) == decode_reference(space, actions)

    def test_tables_are_built_with_the_macro_space_only(self):
        """Importing builds no space and a condensenet space no tables; once
        build_space("macro") has returned, neither `decode` nor
        `arch_to_compact` builds them. A fresh interpreter, so that no
        earlier test has built a space."""
        script = "\n".join([
            "import archsearch.cli",
            "from archsearch import search_space as ss",
            "assert ss.build_space.cache_info().currsize == 0",
            "calls, build = [], ss._macro_tables",
            "ss._macro_tables = lambda: calls.append(1) or build()",
            "assert ss.build_space('condensenet').macro_tables is None and not calls",
            "space = ss.build_space('macro')",
            "assert calls == [1] and space.macro_tables is not None",
            "ss.arch_to_compact(ss.decode(space, (0,) * len(space.arities)))",
            "assert calls == [1], calls"])
        src = Path(__file__).resolve().parents[1] / "src"
        subprocess.run([sys.executable, "-c", script], check=True, timeout=120,
                       env={**os.environ, "PYTHONPATH": str(src)})

    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_macro_arch_refuses_as_the_checks_did(self, data):
        """Unsorted, duplicate and out-of-range skips, list skips, unknown ops
        and wrong lengths raise the exception and message the straight
        checks raise; whatever they accept, MacroArch accepts."""
        n_layers = data.draw(st.sampled_from([12, 12, 12, 11, 13]), label="layers")
        ops = data.draw(st.lists(st.sampled_from(MACRO_OPS), min_size=n_layers,
                                 max_size=n_layers), label="ops")
        if data.draw(st.booleans(), label="unknown op"):
            ops[data.draw(st.integers(0, n_layers - 1), label="at")] = data.draw(
                st.sampled_from(["conv7x7", "", "pool"]), label="op")
        skips = []
        for layer in range(data.draw(st.sampled_from([n_layers, 12]), label="skip layers")):
            in_range = st.integers(0, max(layer - 1, 0))
            skips.append(tuple(data.draw(st.one_of(
                st.lists(in_range, max_size=3, unique=True).map(sorted),
                st.lists(in_range, max_size=3),  # unsorted or repeated
                st.lists(st.integers(-2, 13), max_size=3)), label=f"skips {layer}")))
        if data.draw(st.booleans(), label="a list"):
            at = data.draw(st.integers(0, len(skips) - 1), label="at")
            skips[at] = list(skips[at])
        ops, skips = tuple(ops), tuple(skips)
        expected = macro_arch_refusal(ops, skips)
        if expected is None:
            assert MacroArch(ops=ops, skips=skips).skips == skips
        else:
            with pytest.raises(type(expected)) as raised:
                MacroArch(ops=ops, skips=skips)
            assert str(raised.value) == str(expected)

    @pytest.mark.parametrize("ops, skips", [
        (("conv3x3",) * 12, ((), (), (1, 0)) + ((),) * 9),        # unsorted
        (("conv3x3",) * 12, ((), (), (0, 0)) + ((),) * 9),        # duplicate
        (("conv3x3",) * 12, ((), (), (2,)) + ((),) * 9),          # from itself
        (("conv3x3",) * 12, ((), (-1,)) + ((),) * 10),            # negative
        (("conv3x3",) * 12, ((), [0]) + ((),) * 10),              # a list
        (("conv3x3",) * 12, ((), []) + ((),) * 10),               # an empty list
        (("conv3x3",) * 11 + (["conv3x3"],), ((),) * 12),         # an unhashable op
        (("conv3x3",) * 12, ((), ("0",)) + ((),) * 10),           # a string skip
        (("conv3x3",) * 12, ((), (0.5,)) + ((),) * 10),           # a float skip
        (("conv3x3",) * 12, ((), (False,)) + ((),) * 10),         # a bool skip
        (None, ((),) * 12),                                       # no ops at all
    ], ids=["unsorted", "duplicate", "self", "negative", "list", "empty-list",
            "unhashable-op", "string-skip", "float-skip", "bool-skip", "none-ops"])
    def test_macro_arch_refusal_examples(self, ops, skips):
        expected = macro_arch_refusal(ops, skips)
        assert expected is not None
        with pytest.raises(type(expected)) as raised:
            MacroArch(ops=ops, skips=skips)
        assert str(raised.value) == str(expected)
