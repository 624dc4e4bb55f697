"""Decision spaces for the three supported architecture families.

A space is an ordered list of decision slots, each slot an enumerated
candidate list. The controller predicts one slot per time step, so slot
order is generation order. Action sequences store per-slot candidate
indices; ``decode``/``encode`` convert between those and typed
architecture descriptions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

ALEXNET_FILTERS = (8, 16, 32, 48, 64)
ALEXNET_KERNEL = (3, 5, 7, 9)
CONDENSENET_STAGES = (6, 8, 10, 12, 14)
CONDENSENET_GROWTHS = (4, 8, 16, 24, 32)
MACRO_OPS = ("conv3x3", "conv5x5", "sep_conv3x3", "sep_conv5x5",
             "avg_pool", "max_pool")
MACRO_LAYERS = 12

SPACE_KINDS = ("alexnet", "condensenet", "macro")


@dataclass(frozen=True)
class DecisionSlot:
    name: str
    head: str  # slot type; the controller keeps one projection head per type
    candidates: tuple

    def __post_init__(self) -> None:
        if not self.candidates:
            raise ValueError(f"slot {self.name} has no candidates")
        if len(set(self.candidates)) != len(self.candidates):
            raise ValueError(f"slot {self.name} has duplicate candidates")


@dataclass(frozen=True)
class SearchSpace:
    kind: str
    slots: tuple[DecisionSlot, ...]
    vocab_size: int = field(init=False)
    vocab_offsets: tuple[int, ...] = field(init=False)

    def __post_init__(self) -> None:
        offsets = []
        total = 0
        for slot in self.slots:
            offsets.append(total)
            total += len(slot.candidates)
        object.__setattr__(self, "vocab_size", total)
        object.__setattr__(self, "vocab_offsets", tuple(offsets))

    def __len__(self) -> int:
        return len(self.slots)

    def size(self) -> int:
        """Exact number of architectures in the space (big integer)."""
        return math.prod(len(s.candidates) for s in self.slots)

    def head_types(self) -> tuple[str, ...]:
        seen: dict[str, int] = {}
        for slot in self.slots:
            seen.setdefault(slot.head, len(slot.candidates))
            if seen[slot.head] != len(slot.candidates):
                raise ValueError(f"head {slot.head} used with differing arities")
        return tuple(seen)


@dataclass
class ActionSequence:
    """Per-slot chosen candidate indices plus sampling log-probabilities.

    ``log_probs`` is empty for sequences built by ``encode``.
    """

    actions: tuple[int, ...]
    log_probs: tuple[float, ...] = ()

    @property
    def total_log_prob(self) -> float:
        return float(sum(self.log_probs))


@dataclass(frozen=True)
class AlexNetArch:
    """Two conv layers, each (num_filters, filter_height, filter_width)."""

    layers: tuple[tuple[int, int, int], tuple[int, int, int]]


@dataclass(frozen=True)
class CondenseNetArch:
    stages: tuple[int, int, int]
    growths: tuple[int, int, int]


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
        for i, sk in enumerate(self.skips):
            if any(j < 0 or j >= i for j in sk):
                raise ValueError(f"layer {i} skip inputs must come from layers 0..{i - 1}")
            if tuple(sorted(set(sk))) != sk:
                raise ValueError(f"layer {i} skip inputs must be sorted and distinct")


Architecture = AlexNetArch | CondenseNetArch | MacroArch


def build_space(kind: str) -> SearchSpace:
    """Construct one of the shipped spaces: alexnet, condensenet or macro."""
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


def validate_sequence(space: SearchSpace, seq: ActionSequence) -> None:
    if len(seq.actions) != len(space.slots):
        raise ValueError(
            f"sequence has {len(seq.actions)} actions, space has {len(space.slots)} slots")
    for t, (slot, a) in enumerate(zip(space.slots, seq.actions)):
        if not 0 <= a < len(slot.candidates):
            raise ValueError(f"action {a} out of range for slot {t} ({slot.name})")


def decode(space: SearchSpace, seq: ActionSequence) -> Architecture:
    """Map an action sequence to the architecture it describes."""
    validate_sequence(space, seq)
    chosen = [slot.candidates[a] for slot, a in zip(space.slots, seq.actions)]
    if space.kind == "alexnet":
        return AlexNetArch(layers=(tuple(chosen[0:3]), tuple(chosen[3:6])))
    if space.kind == "condensenet":
        return CondenseNetArch(stages=tuple(chosen[0:3]), growths=tuple(chosen[3:6]))
    if space.kind == "macro":
        ops = []
        skips = []
        pos = 0
        for layer in range(MACRO_LAYERS):
            ops.append(chosen[pos])
            pos += 1
            wired = tuple(src for src in range(layer) if chosen[pos + src] == 1)
            pos += layer
            skips.append(wired)
        return MacroArch(ops=tuple(ops), skips=tuple(skips))
    raise ValueError(f"cannot decode space kind {space.kind!r}")


def encode(space: SearchSpace, arch: Architecture) -> ActionSequence:
    """Inverse of decode; log_probs are left empty."""
    if space.kind == "alexnet":
        if not isinstance(arch, AlexNetArch):
            raise ValueError("alexnet space expects an AlexNetArch")
        values = [v for layer in arch.layers for v in layer]
    elif space.kind == "condensenet":
        if not isinstance(arch, CondenseNetArch):
            raise ValueError("condensenet space expects a CondenseNetArch")
        values = list(arch.stages) + list(arch.growths)
    elif space.kind == "macro":
        if not isinstance(arch, MacroArch):
            raise ValueError("macro space expects a MacroArch")
        values = []
        for layer in range(MACRO_LAYERS):
            values.append(arch.ops[layer])
            for src in range(layer):
                values.append(1 if src in arch.skips[layer] else 0)
    else:
        raise ValueError(f"cannot encode space kind {space.kind!r}")

    actions = []
    for slot, value in zip(space.slots, values):
        try:
            actions.append(slot.candidates.index(value))
        except ValueError:
            raise ValueError(
                f"value {value!r} not a candidate of slot {slot.name}") from None
    return ActionSequence(actions=tuple(actions))


def input_token(space: SearchSpace,
                previous: tuple[int, int] | None = None) -> int | None:
    """Controller input token for the next step.

    None before the first decision; afterwards the global candidate
    position (vocabulary index) of the previous (slot, action) choice,
    the place of the single 1.0 in a one-hot input.
    """
    if previous is None:
        return None
    slot_index, action = previous
    if not 0 <= slot_index < len(space.slots):
        raise ValueError(f"slot index {slot_index} out of range")
    if not 0 <= action < len(space.slots[slot_index].candidates):
        raise ValueError(f"action {action} out of range for slot {slot_index}")
    return space.vocab_offsets[slot_index] + action


# ---------------------------------------------------------------------------
# Text forms. The key-value form is the on-disk architecture file format;
# the compact form is a single token used to annotate CSV rows. Skip inputs
# are written 1-based in both forms (layer numbers as a person counts them).

def arch_to_text(arch: Architecture) -> str:
    lines = []
    if isinstance(arch, AlexNetArch):
        lines.append("kind = alexnet")
        for n, (flt, h, w) in enumerate(arch.layers, start=1):
            lines.append(f"conv{n}.filters = {flt}")
            lines.append(f"conv{n}.height = {h}")
            lines.append(f"conv{n}.width = {w}")
    elif isinstance(arch, CondenseNetArch):
        lines.append("kind = condensenet")
        for n in range(3):
            lines.append(f"block{n + 1}.stage = {arch.stages[n]}")
            lines.append(f"block{n + 1}.growth = {arch.growths[n]}")
    elif isinstance(arch, MacroArch):
        lines.append("kind = macro")
        for n in range(MACRO_LAYERS):
            lines.append(f"layer{n + 1}.op = {arch.ops[n]}")
            skips = " ".join(str(s + 1) for s in arch.skips[n])
            lines.append(f"layer{n + 1}.skips = {skips}".rstrip())
    else:
        raise ValueError(f"unsupported architecture type: {type(arch).__name__}")
    return "\n".join(lines) + "\n"


def arch_from_text(text: str) -> Architecture:
    kv: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        kv[key.strip()] = value.strip()

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


def arch_from_dict(data: dict) -> Architecture:
    kind = data.get("kind")
    if kind == "alexnet":
        return AlexNetArch(layers=tuple(tuple(layer) for layer in data["layers"]))
    if kind == "condensenet":
        return CondenseNetArch(stages=tuple(data["stages"]), growths=tuple(data["growths"]))
    if kind == "macro":
        return MacroArch(ops=tuple(data["ops"]),
                         skips=tuple(tuple(sorted(s - 1 for s in sk)) for sk in data["skips"]))
    raise ValueError(f"unknown or missing architecture kind: {kind!r}")


def arch_to_compact(arch: Architecture) -> str:
    """One-token form safe for comma-delimited files."""
    if isinstance(arch, AlexNetArch):
        return "+".join(f"{flt}x{h}x{w}" for flt, h, w in arch.layers)
    if isinstance(arch, CondenseNetArch):
        st = ".".join(str(s) for s in arch.stages)
        gr = ".".join(str(g) for g in arch.growths)
        return f"st{st}+gr{gr}"
    if isinstance(arch, MacroArch):
        parts = []
        for op, sk in zip(arch.ops, arch.skips):
            if sk:
                parts.append(op + "[" + ".".join(str(s + 1) for s in sk) + "]")
            else:
                parts.append(op)
        return "+".join(parts)
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
                refs = tuple(sorted(int(v) - 1 for v in rest.rstrip("]").split(".")))
            else:
                op, refs = p, ()
            ops.append(op)
            skips.append(refs)
        return MacroArch(ops=tuple(ops), skips=tuple(skips))
    raise ValueError(f"unrecognized compact architecture token: {token!r}")
