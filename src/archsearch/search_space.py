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
from itertools import accumulate, chain, compress

from . import textio

ALEXNET_FILTERS = (8, 16, 32, 48, 64)
ALEXNET_KERNEL = (3, 5, 7, 9)
CONDENSENET_STAGES = (6, 8, 10, 12, 14)
CONDENSENET_GROWTHS = (4, 8, 16, 24, 32)
MACRO_OPS = ("conv3x3", "conv5x5", "sep_conv3x3", "sep_conv5x5",
             "avg_pool", "max_pool")
MACRO_LAYERS = 12
_MACRO_OP_SET = frozenset(MACRO_OPS)
_INT_TYPE = frozenset((int,))
# position of each macro layer's op slot in an action sequence; the layer's
# skip slots, one per earlier layer, follow it
_MACRO_OP_SLOTS = tuple(layer * (layer + 1) // 2 for layer in range(MACRO_LAYERS))
_macro_op_actions = operator.itemgetter(*_MACRO_OP_SLOTS)
# per macro layer: its possible skip sources and the span of its skip slots
_MACRO_SKIP_SPANS = tuple((range(layer), p + 1, p + 1 + layer)
                          for layer, p in enumerate(_MACRO_OP_SLOTS))
# 1-based skip label of each layer index, as the compact form writes it
_SKIP_LABELS = tuple(str(layer + 1) for layer in range(MACRO_LAYERS))

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


@dataclass(frozen=True)
class SearchSpace:
    kind: str
    slots: tuple[DecisionSlot, ...]
    vocab_size: int = field(init=False)
    vocab_offsets: tuple[int, ...] = field(init=False)
    arities: tuple[int, ...] = field(init=False, compare=False)  # candidates per slot

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
        if _well_formed(self.ops, self.skips):
            return
        # the checks below say what is wrong
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


def _well_formed(ops, skips) -> bool:
    """True if `MacroArch`'s checks would pass: known ops, and every skip
    tuple strictly increasing ints within 0..layer-1. False leaves the
    verdict to those checks."""
    try:
        return (len(ops) == MACRO_LAYERS == len(skips) and _MACRO_OP_SET.issuperset(ops)
                and all(type(sk) is tuple and (not sk or (
                            sk[0] >= 0 and sk[-1] < layer and all(map(operator.lt, sk, sk[1:]))))
                        for layer, sk in enumerate(skips))
                and _INT_TYPE.issuperset(map(type, chain.from_iterable(skips))))
    except TypeError:  # an unhashable op or an unordered skip entry
        return False


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
        return SearchSpace(kind, tuple(slots))
    raise ValueError(f"unknown space kind: {kind!r}")


def validate_sequence(space: SearchSpace, actions: tuple[int, ...]) -> None:
    """Refuse a sequence of the wrong length, or an action that is not an int
    (a bool, numpy integer, float or string) or not a candidate of its slot."""
    if len(actions) != len(space.arities):
        raise ValueError(
            f"sequence has {len(actions)} actions, space has {len(space.arities)} slots")
    for arity, a in zip(space.arities, actions):
        if type(a) is not int or not 0 <= a < arity:
            break
    else:
        return
    for t, (arity, a) in enumerate(zip(space.arities, actions)):
        if type(a) is not int:
            raise ValueError(f"action {a!r} for slot {t} ({space.slots[t].name}) "
                             "is not an integer")
        if not 0 <= a < arity:
            raise ValueError(f"action {a} out of range for slot {t} ({space.slots[t].name})")


def _from_checked(space: SearchSpace, cls: type, **fields) -> Architecture:
    """A ``cls`` holding ``fields``, set as the dataclass's own ``__init__``
    sets them. Decoded from actions `validate_sequence` passed on a
    `build_space` space, the fields pass ``cls``'s checks by construction,
    so only a hand-built space's go through them."""
    arch = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(arch, name, value)
    if space is not build_space(space.kind):
        arch.__post_init__()
    return arch


def decode(space: SearchSpace, actions: tuple[int, ...]) -> Architecture:
    """Map an action sequence to the architecture it describes."""
    validate_sequence(space, actions)
    if space.kind == "macro":
        # build_space's layout: op slots hold MACRO_OPS, and a skip slot's
        # candidates are (0, 1), so its action is its value
        return _from_checked(
            space, MacroArch, ops=tuple([MACRO_OPS[a] for a in _macro_op_actions(actions)]),
            skips=tuple([tuple(compress(sources, actions[start:stop]))
                         for sources, start, stop in _MACRO_SKIP_SPANS]))
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
        return "+".join([f"{op}[{'.'.join([_SKIP_LABELS[s] for s in sk])}]" if sk else op
                         for op, sk in zip(arch.ops, arch.skips)])
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
