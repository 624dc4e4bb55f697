"""Decision spaces for the three supported architecture families.

A space is an ordered list of decision slots, each slot an enumerated
candidate list. The controller predicts one slot per time step, so slot
order is generation order. A sample is its actions, a tuple of per-slot
candidate indices; ``decode`` maps those to typed architecture
descriptions.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate
from typing import NamedTuple, NoReturn

import numpy as np

from . import textio

ALEXNET_FILTERS = (8, 16, 32, 48, 64)
ALEXNET_KERNEL = (3, 5, 7, 9)
CONDENSENET_STAGES = (6, 8, 10, 12, 14)
CONDENSENET_GROWTHS = (4, 8, 16, 24, 32)
MACRO_OPS = ("conv3x3", "conv5x5", "sep_conv3x3", "sep_conv5x5",
             "avg_pool", "max_pool")
MACRO_LAYERS = 12
# position of each macro layer's op slot in an action sequence; the layer's
# skip slots, one per earlier layer, follow it
_MACRO_OP_SLOTS = tuple(layer * (layer + 1) // 2 for layer in range(MACRO_LAYERS))

SPACE_KINDS = ("alexnet", "condensenet", "macro")


@dataclass(frozen=True)
class DecisionSlot:
    name: str
    head: str  # slot type; the controller keeps one projection head per type
    candidates: tuple

    def __post_init__(self) -> None:
        if len(self.candidates) < 2:  # one candidate is no decision
            raise ValueError(f"slot {self.name} needs two or more candidates")
        if len(set(self.candidates)) != len(self.candidates):
            raise ValueError(f"slot {self.name} has duplicate candidates")


class MacroTables(NamedTuple):
    """What reads a block of macro action rows, built by `build_space("macro")`
    alone. Layer l's skip code has bit k set for its skip from layer k; the
    layer's sources are ``skips[2**l - 1 + code]``."""

    arities: np.ndarray  # [slots] uint64: candidates per slot, for one range comparison
    skip_bits: np.ndarray  # [slots] uint64: 2**k at a layer's skip from layer k, 0 at ops
    layer_starts: np.ndarray  # [layers] uint64: 2**l - 1, where layer l's skips start
    op_names: np.ndarray  # MACRO_OPS as objects, read by op action
    skips: np.ndarray  # 4,095 sources tuples as objects, layer by layer
    suffixes: dict[tuple[int, ...], str]  # sources -> compact-form suffix: "" or "[1.3]"


def _macro_tables() -> MacroTables:
    """Layer l's 2**l skip entries double layer l - 1's: the lower half is
    those same tuples, whose codes lack bit l - 1, and the upper half adds
    layer l - 1 to each (written l: labels are 1-based)."""
    skips, suffixes = [()], {(): ""}
    for layer in range(1, MACRO_LAYERS):
        lower, label = skips[-2 ** (layer - 1):], f"{layer}]"
        wired = [sources + (layer - 1,) for sources in lower]
        for sources, more in zip(lower, wired):
            suffixes[more] = (suffixes[sources][:-1] + "." if sources else "[") + label
        skips += lower + wired
    arities, skip_bits = [], []  # slot by slot, in `build_space`'s layout
    for layer in range(MACRO_LAYERS):
        arities += [len(MACRO_OPS)] + [2] * layer
        skip_bits += [0] + [2 ** k for k in range(layer)]
    return MacroTables(np.array(arities, np.uint64), np.array(skip_bits, np.uint64),
                       2 ** np.arange(MACRO_LAYERS, dtype=np.uint64) - 1,
                       np.array(MACRO_OPS, object),
                       np.fromiter(skips, object, len(skips)), suffixes)


@dataclass(frozen=True)
class SearchSpace:
    kind: str
    slots: tuple[DecisionSlot, ...]
    vocab_size: int = field(init=False)
    vocab_offsets: tuple[int, ...] = field(init=False)
    arities: tuple[int, ...] = field(init=False, compare=False)  # candidates per slot
    macro_tables: MacroTables | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        arities = tuple(len(slot.candidates) for slot in self.slots)
        object.__setattr__(self, "arities", arities)
        object.__setattr__(self, "vocab_size", sum(arities))
        object.__setattr__(self, "vocab_offsets", tuple(accumulate(arities, initial=0))[:-1])

    def size(self) -> int:
        """Exact number of architectures in the space (big integer)."""
        return math.prod(self.arities)

    def head_types(self) -> dict[str, int]:
        """Each slot type, in order of first use, and the arity its slots share."""
        seen: dict[str, int] = {}
        for slot in self.slots:
            seen.setdefault(slot.head, len(slot.candidates))
            if seen[slot.head] != len(slot.candidates):
                raise ValueError(f"head {slot.head} used with differing arities")
        return seen


def _check_ints(what: str, values: tuple, length: int) -> None:
    if (not isinstance(values, tuple) or len(values) != length
            or not all(type(v) is int and v > 0 for v in values)):
        raise ValueError(f"{what} must be a tuple of {length} positive ints, got {values!r}")


@dataclass(frozen=True)
class AlexNetArch:
    """Two conv layers, each (num_filters, filter_height, filter_width)."""

    layers: tuple[tuple[int, int, int], tuple[int, int, int]]

    def __post_init__(self) -> None:
        if not isinstance(self.layers, tuple) or len(self.layers) != 2:
            raise ValueError(f"alexnet arch needs 2 layers, got {self.layers!r}")
        for layer in self.layers:
            _check_ints("alexnet layer (filters, height, width)", layer, 3)


@dataclass(frozen=True)
class CondenseNetArch:
    stages: tuple[int, int, int]
    growths: tuple[int, int, int]

    def __post_init__(self) -> None:
        _check_ints("condensenet stages", self.stages, 3)
        _check_ints("condensenet growths", self.growths, 3)


@dataclass(frozen=True)
class MacroArch:
    """12-layer macro network.

    ``ops[i]`` is the operation of layer i (0-based). ``skips[i]`` holds the
    0-based indices of earlier layers wired in as extra inputs, so
    ``skips[i]`` is a sorted subset of 0..i-1.
    """

    ops: tuple[str, ...]
    skips: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if len(self.ops) != MACRO_LAYERS or len(self.skips) != MACRO_LAYERS:
            raise ValueError(f"macro arch needs {MACRO_LAYERS} layers")
        for i, op in enumerate(self.ops):
            if op not in MACRO_OPS:
                raise ValueError(f"layer {i} has unknown op {op!r}")
        for i, sk in enumerate(self.skips):
            if any(type(j) is not int for j in sk):
                raise ValueError(f"layer {i} skip inputs must be integers, got {sk!r}")
            if any(j < 0 or j >= i for j in sk):
                raise ValueError(f"layer {i} skip inputs must come from layers 0..{i - 1}")
            if tuple(sorted(set(sk))) != sk:
                raise ValueError(f"layer {i} skip inputs must be sorted and distinct")


Architecture = AlexNetArch | CondenseNetArch | MacroArch


@lru_cache(maxsize=None)
def build_space(kind: str) -> SearchSpace:
    """One of the shipped spaces: alexnet, condensenet or macro, built once
    per kind and shared, as it is frozen."""
    if kind == "alexnet":
        slots = []
        for layer in (1, 2):
            slots.append(DecisionSlot(f"conv{layer}.filters", "filters", ALEXNET_FILTERS))
            slots.append(DecisionSlot(f"conv{layer}.height", "height", ALEXNET_KERNEL))
            slots.append(DecisionSlot(f"conv{layer}.width", "width", ALEXNET_KERNEL))
        return SearchSpace(kind, tuple(slots))
    if kind == "condensenet":
        slots = [DecisionSlot(f"block{b}.stage", "stage", CONDENSENET_STAGES)
                 for b in (1, 2, 3)]
        slots += [DecisionSlot(f"block{b}.growth", "growth", CONDENSENET_GROWTHS)
                  for b in (1, 2, 3)]
        return SearchSpace(kind, tuple(slots))
    if kind == "macro":
        slots = []
        for layer in range(MACRO_LAYERS):
            slots.append(DecisionSlot(f"layer{layer + 1}.op", "op", MACRO_OPS))
            for src in range(layer):
                slots.append(DecisionSlot(f"layer{layer + 1}.skip{src + 1}", "skip", (0, 1)))
        space = SearchSpace(kind, tuple(slots))
        # built here: not at import, for the other spaces, nor in a run's loop
        object.__setattr__(space, "macro_tables", _macro_tables())
        return space
    raise ValueError(f"unknown space kind: {kind!r}")


def validate_sequence(space: SearchSpace, actions: tuple[int, ...]) -> None:
    """Refuse a sequence of the wrong length, or an action that is not an int
    (a bool, numpy integer, float or string) or not a candidate of its slot."""
    if len(actions) != len(space.arities):
        raise ValueError(
            f"sequence has {len(actions)} actions, space has {len(space.arities)} slots")
    for t, (arity, a) in enumerate(zip(space.arities, actions)):
        if type(a) is not int:
            raise ValueError(f"action {a!r} for slot {t} ({space.slots[t].name}) "
                             "is not an integer")
        if not 0 <= a < arity:
            raise ValueError(f"action {a} out of range for slot {t} ({space.slots[t].name})")


def _from_checked(space: SearchSpace, cls: type, **fields) -> Architecture:
    """A ``cls`` holding ``fields``, set as its ``__init__`` sets them; only a
    hand-built space's are checked, as a `build_space` space decodes valid ones."""
    arch = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(arch, name, value)
    if space is not build_space(space.kind):
        arch.__post_init__()
    return arch


def decode(space: SearchSpace, actions: tuple[int, ...] | np.ndarray
           ) -> Architecture | list[Architecture]:
    """Map an action sequence to the architecture it describes, or each row of
    a 2-D integer array of sequences to its architecture, as a list. A macro
    block is range-checked in one comparison and read through `MacroTables`,
    a single macro sequence as a one-row block after `validate_sequence`;
    other spaces decode a block row by row. A sequence, or a block's first
    row, that `validate_sequence` refuses raises its message."""
    if isinstance(actions, np.ndarray):
        return _decode_block(space, actions)
    return _decode_sequence(space, actions)


def _refuse(space: SearchSpace, block: np.ndarray) -> NoReturn:
    """Raise `validate_sequence`'s error for the first row of ``block`` it
    refuses (a 1-D block is one sequence, of numpy integers), else one that
    names the form a block must take."""
    for row in [block] if block.ndim == 1 else block.tolist() if block.ndim else ():
        validate_sequence(space, row)
    raise ValueError(f"actions must be a 2-D integer array of {len(space.arities)} "
                     f"columns, got {block.dtype} of shape {block.shape}")


def _decode_block(space: SearchSpace, block: np.ndarray) -> list[Architecture]:
    if block.ndim != 2 or block.dtype.kind not in "iu" or block.shape[1] != len(space.arities):
        _refuse(space, block)
    tables = space.macro_tables
    if tables is None:
        return [_decode_sequence(space, row) for row in block.tolist()]
    unsigned = block.view(f"u{block.itemsize}")  # a negative entry reads as out of range
    if (unsigned >= tables.arities).any():
        _refuse(space, block)
    ops = tables.op_names[block[:, _MACRO_OP_SLOTS]].tolist()
    # per layer, the code whose bit k is its skip from layer k
    codes = np.add.reduceat(unsigned * tables.skip_bits, _MACRO_OP_SLOTS, axis=1)
    skips = tables.skips[codes + tables.layer_starts].tolist()
    archs, new, set_field = [], object.__new__, object.__setattr__
    for op_row, skip_row in zip(ops, skips):
        arch = new(MacroArch)  # fields set as `_from_checked` sets them, valid by the tables
        set_field(arch, "ops", tuple(op_row))
        set_field(arch, "skips", tuple(skip_row))
        archs.append(arch)
    return archs


def _decode_sequence(space: SearchSpace, actions: tuple[int, ...]) -> Architecture:
    validate_sequence(space, actions)
    if space.kind == "macro":  # a hand-built space too is read in build_space's layout
        return _decode_block(build_space("macro"), np.array((actions,)))[0]
    chosen = [slot.candidates[a] for slot, a in zip(space.slots, actions)]
    if space.kind == "alexnet":
        return _from_checked(space, AlexNetArch,
                             layers=(tuple(chosen[0:3]), tuple(chosen[3:6])))
    if space.kind == "condensenet":
        return _from_checked(space, CondenseNetArch, stages=tuple(chosen[0:3]),
                             growths=tuple(chosen[3:6]))
    raise ValueError(f"cannot decode space kind {space.kind!r}")


# ---------------------------------------------------------------------------
# Text forms. The key-value form is the architecture file `mac` reads; the
# compact form is a single token used to annotate CSV rows. Skip inputs are
# written 1-based in every form (layer numbers as a person counts them).

def arch_from_text(text: str) -> Architecture:
    kv = textio.read_key_values(text, "architecture text")
    kind = kv.get("kind")
    if kind == "alexnet":
        layers = tuple(
            (int(kv[f"conv{n}.filters"]), int(kv[f"conv{n}.height"]), int(kv[f"conv{n}.width"]))
            for n in (1, 2))
        return AlexNetArch(layers=layers)
    if kind == "condensenet":
        stages = tuple(int(kv[f"block{n}.stage"]) for n in (1, 2, 3))
        growths = tuple(int(kv[f"block{n}.growth"]) for n in (1, 2, 3))
        return CondenseNetArch(stages=stages, growths=growths)
    if kind == "macro":
        ops = []
        skips = []
        for n in range(1, MACRO_LAYERS + 1):
            ops.append(kv[f"layer{n}.op"])
            raw_skips = kv.get(f"layer{n}.skips", "")
            skips.append(tuple(sorted(int(tok) - 1 for tok in raw_skips.split())))
        return MacroArch(ops=tuple(ops), skips=tuple(skips))
    raise ValueError(f"unknown or missing architecture kind: {kind!r}")


def arch_to_dict(arch: Architecture) -> dict:
    """JSON-ready form; macro skip references are 1-based like the text forms."""
    if isinstance(arch, AlexNetArch):
        return {"kind": "alexnet", "layers": [list(layer) for layer in arch.layers]}
    if isinstance(arch, CondenseNetArch):
        return {"kind": "condensenet", "stages": list(arch.stages),
                "growths": list(arch.growths)}
    if isinstance(arch, MacroArch):
        return {"kind": "macro", "ops": list(arch.ops),
                "skips": [[s + 1 for s in sk] for sk in arch.skips]}
    raise ValueError(f"unsupported architecture type: {type(arch).__name__}")


def arch_to_compact(arch: Architecture) -> str:
    """One-token form safe for comma-delimited files."""
    if isinstance(arch, AlexNetArch):
        return "+".join(f"{flt}x{h}x{w}" for flt, h, w in arch.layers)
    if isinstance(arch, CondenseNetArch):
        st = ".".join(str(s) for s in arch.stages)
        gr = ".".join(str(g) for g in arch.growths)
        return f"st{st}+gr{gr}"
    if isinstance(arch, MacroArch):
        suffixes = build_space("macro").macro_tables.suffixes
        return "+".join(map(operator.add, arch.ops, map(suffixes.__getitem__, arch.skips)))
    raise ValueError(f"unsupported architecture type: {type(arch).__name__}")


def arch_from_compact(token: str) -> Architecture:
    parts = token.split("+")
    if len(parts) == 2 and parts[0].startswith("st") and parts[1].startswith("gr"):
        stages = tuple(int(v) for v in parts[0][2:].split("."))
        growths = tuple(int(v) for v in parts[1][2:].split("."))
        return CondenseNetArch(stages=stages, growths=growths)
    if len(parts) == 2 and all(p.count("x") == 2 for p in parts):
        layers = tuple(tuple(int(v) for v in p.split("x")) for p in parts)
        return AlexNetArch(layers=layers)
    if len(parts) == MACRO_LAYERS:
        ops = []
        skips = []
        for p in parts:
            if "[" in p:
                op, _, rest = p.partition("[")
                if not rest.endswith("]") or rest.count("]") > 1:
                    raise ValueError(f"macro layer {p!r} must end in one ']'")
                refs = tuple(sorted(int(v) - 1 for v in rest[:-1].split(".")))
            else:
                op, refs = p, ()
            ops.append(op)
            skips.append(refs)
        return MacroArch(ops=tuple(ops), skips=tuple(skips))
    raise ValueError(f"unrecognized compact architecture token: {token!r}")
