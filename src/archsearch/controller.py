"""LSTM controller: samples architectures and learns from episode rewards.

One rollout makes one decision per space slot. The input at each step is
the token of the previous choice, its global vocabulary index (no input at
the first step); the LSTM hidden state feeds a per-slot-type linear head
whose softmax is sampled. Updates follow the episode-reward policy gradient: the gradient
of the sequence log-probability scaled by the reward, averaged over a batch of
samples and applied as one ADAM ascent step.
"""

from __future__ import annotations

import functools
import json
import math
import zipfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import textio
from .nn_core import (GATE_NAMES, AdamState, LstmCellParams, LstmRecord,
                      ParamBuffer, adam_step, clip_by_global_norm, forward_views,
                      lstm_backward, lstm_forward, lstm_shapes, ordered_outer_sum,
                      ordered_row_sum, softmax_sample)
from .search_space import SearchSpace, build_space

INIT_SCALE = 0.08  # uniform init range, keeps early softmax near-uniform
DEFAULT_HIDDEN = {"alexnet": 24, "condensenet": 20, "macro": 64}
DEFAULT_LR = {"alexnet": 0.03, "condensenet": 0.008, "macro": 0.0075}
DEFAULT_CLIP_NORM = 5.0
DEFAULT_BASELINE_DECAY = 0.95
CHECKPOINT_VERSION = 2
# the checkpoint meta values `save_checkpoint` writes from the state and
# `load_checkpoint` reads back, in the order written, with their JSON type
# ("adam." names one of the nested adam record, read from `state.adam`);
# adam.t follows adam.eps, and AdamState checks its type itself
META_TYPES = {"hidden_dim": int, "adam.lr": float, "adam.beta1": float,
              "adam.beta2": float, "adam.eps": float, "clip_norm": float,
              "use_baseline": bool, "baseline_decay": float, "baseline": float,
              "revision": int}


@dataclass
class Rollout(LstmRecord):
    """One sampled sequence as arrays, enough for exact gradients.

    The LSTM's rows of every step (`LstmRecord`), the action of every step,
    and one flat array of softmax probabilities: per head type, in
    `ControllerState.heads` order, its steps' rows in step order.
    """

    actions: np.ndarray  # [T] int
    probs: np.ndarray  # step t's row starts at `ControllerState.prob_starts[t]`
    revision: int


class SlotHead(NamedTuple):
    """One step of a rollout: its head and where its decision goes."""

    head: str
    w: np.ndarray  # the head's parameter views
    b: np.ndarray
    offset: int  # vocabulary offset: a choice's input token is offset + action


class HeadSteps(NamedTuple):
    """The steps one head type decides, in order, and what they read."""

    head: str
    steps: np.ndarray
    h_rows: np.ndarray  # the rows of `Rollout.h` its logits read: steps + 1
    block: slice  # its steps' rows in a rollout's flat `probs`
    w: np.ndarray  # the head's weight view


@dataclass
class ControllerState:
    space: SearchSpace
    params: ParamBuffer  # lstm tensors + head tensors in one flat buffer
    adam: AdamState
    rng: np.random.Generator
    clip_norm: float = DEFAULT_CLIP_NORM  # math.inf: no clipping
    use_baseline: bool = False
    baseline_decay: float = DEFAULT_BASELINE_DECAY
    baseline: float = 0.0
    revision: int = 0
    hidden_dim: int = field(init=False)
    lstm: LstmCellParams = field(init=False, repr=False)  # views into params
    # the update's gradient workspace, same layout as params, and its
    # `param_blocks`; rewritten by every update. A batch's further
    # rollouts go through a second one, made on first use.
    grads: ParamBuffer = field(init=False, repr=False)
    grad_blocks: tuple[np.ndarray, ...] = field(init=False, repr=False)
    batch_grads: ParamBuffer | None = field(default=None, init=False, repr=False)
    # where each step and head type sits in a rollout, fixed by the space
    slots: tuple[SlotHead, ...] = field(init=False, repr=False)
    heads: tuple[HeadSteps, ...] = field(init=False, repr=False)
    prob_starts: np.ndarray = field(init=False, repr=False)  # [T], into `Rollout.probs`

    def __post_init__(self) -> None:
        if not self.clip_norm > 0.0:
            raise ValueError(f"clip_norm must be > 0, got {self.clip_norm}")
        if not 0.0 <= self.baseline_decay < 1.0:
            raise ValueError(f"baseline_decay must lie in [0, 1), got {self.baseline_decay}")
        self.lstm = LstmCellParams.from_tensors(self.params)
        self.hidden_dim = self.lstm.hidden_dim
        self.grads = self.params.like()
        self.grad_blocks = param_blocks(self.grads)
        heads = [slot.head for slot in self.space.slots]
        self.slots = tuple(
            SlotHead(head, self.params[f"head.{head}.w"], self.params[f"head.{head}.b"], offset)
            for head, offset in zip(heads, self.space.vocab_offsets))
        self.prob_starts, self.heads = np.empty(len(heads), dtype=int), ()
        for head, arity in self.space.head_types().items():
            steps = np.flatnonzero([h == head for h in heads])
            start = self.heads[-1].block.stop if self.heads else 0
            block = slice(start, start + len(steps) * arity)
            self.prob_starts[steps] = range(block.start, block.stop, arity)
            self.heads += (HeadSteps(head, steps, steps + 1, block, self.params[f"head.{head}.w"]),)

    @functools.cached_property
    def sample_scratch(self) -> SampleScratch:
        """`sample_sequence`'s scratch, made at the first sample."""
        return SampleScratch(self)


class SampleScratch:
    """`sample_sequence`'s record of one rollout, and the views of it and of
    the parameters each step reads and writes, made once per state.

    Step t writes row t of ``gates`` and ``tanh_c``, row t + 1 of ``h`` and
    ``c`` (row 0 of those, the zero state, is never written) and its row of
    ``probs``. Each sample writes over the last one's, so `sample_sequence`
    copies them into the `Rollout` it returns.
    """

    def __init__(self, state: ControllerState) -> None:
        record = LstmRecord.empty(len(state.slots), state.hidden_dim)
        self.gates, self.h, self.c, self.tanh_c = (
            record.gates, record.h, record.c, record.tanh_c)
        self.probs = np.empty(state.heads[-1].block.stop)
        # each step's input token less the previous action: -1 at step 0,
        # then the previous slot's vocabulary offset
        self.token_bases = np.array((-1,) + state.space.vocab_offsets[:-1])
        columns = list(state.lstm.w.T)  # w[:, token] for every token
        # per step: its head's w and b, the row its logits go to, the lstm
        # input column of each of its actions, the previous state and the
        # `forward_views` of its record rows
        self.steps = tuple(
            (slot.w, slot.b, self.probs[start:start + len(slot.b)],
             columns[slot.offset:slot.offset + len(slot.b)], self.h[t], self.c[t],
             forward_views(self.gates[t], self.c[t + 1], self.tanh_c[t], self.h[t + 1]))
            for t, (slot, start) in enumerate(zip(state.slots, state.prob_starts.tolist())))


def create_controller(space: SearchSpace, seed: int, hidden_dim: int | None = None,
                      lr: float | None = None, clip_norm: float = DEFAULT_CLIP_NORM,
                      use_baseline: bool = False,
                      baseline_decay: float = DEFAULT_BASELINE_DECAY) -> ControllerState:
    """Fresh controller for a space, every weight drawn from [-INIT_SCALE, INIT_SCALE].

    Hidden size and learning rate default per space kind.
    """
    if hidden_dim is None:
        hidden_dim = DEFAULT_HIDDEN.get(space.kind, 32)
    if hidden_dim < 1:
        raise ValueError(f"hidden size must be >= 1, got {hidden_dim}")
    if lr is None:
        lr = DEFAULT_LR.get(space.kind, 0.01)
    rng = np.random.default_rng(seed)
    shapes = lstm_shapes(space.vocab_size, hidden_dim)
    for head, arity in space.head_types().items():  # then a (w, b) head per slot type
        shapes.update({f"head.{head}.w": (arity, hidden_dim), f"head.{head}.b": (arity,)})
    params = ParamBuffer(shapes)
    for block in param_blocks(params):
        block[...] = rng.uniform(-INIT_SCALE, INIT_SCALE, size=block.shape)
    adam = AdamState.for_params(params, lr=lr)
    return ControllerState(space=space, params=params, adam=adam, rng=rng,
                           clip_norm=clip_norm, use_baseline=use_baseline,
                           baseline_decay=baseline_decay)


def param_blocks(params: ParamBuffer) -> tuple[np.ndarray, ...]:
    """Views that partition a buffer of the controller's layout, in the order
    of the unfused tensors: each gate's w, u and b, then each head's w and b.

    Initial weights are drawn, and the gradient norm adds one float sum,
    block by block in this order, so it fixes the norm's rounding too.
    """
    cell = LstmCellParams.from_tensors(params)
    blocks = [block for gate in GATE_NAMES for block in cell.gate(gate)]
    blocks += [tensor for name, tensor in params.items() if not name.startswith("lstm.")]
    return tuple(blocks)


def sample_sequence(state: ControllerState) -> tuple[tuple[int, ...], Rollout]:
    """Sample one architecture of the state's space: its actions and the
    rollout the update reads.

    The uniforms are drawn up front, the same values and generator state as
    one draw per step. The steps run through the state's `SampleScratch`:
    step t writes its logits into its row of ``probs``, which
    `softmax_sample` turns into probabilities in place. The input of step
    t > 0 is the token of the previous choice: the previous slot's
    vocabulary offset plus its action. The returned rollout holds copies,
    so it shares no memory with the scratch or another rollout.
    """
    scratch = state.sample_scratch
    uniforms = state.rng.random(len(scratch.steps)).tolist()
    cell = state.lstm
    actions: list[int] = []
    column = None
    for (w, b, scores, columns, h_prev, c_prev, out), u in zip(scratch.steps, uniforms):
        h, _ = lstm_forward(cell, column, h_prev, c_prev, out)
        np.dot(w, h, scores)  # the logits, turned into probabilities
        np.add(scores, b, scores)
        action = softmax_sample(scores, u)
        actions.append(action)
        column = columns[action]
    rollout = Rollout(
        tokens=np.add(scratch.token_bases, [0] + actions[:-1]), gates=scratch.gates.copy(),
        h=scratch.h.copy(), c=scratch.c.copy(), tanh_c=scratch.tanh_c.copy(),
        actions=np.array(actions), probs=scratch.probs.copy(), revision=state.revision)
    return tuple(actions), rollout


def policy_gradients(state: ControllerState, rollout: Rollout, scale: float,
                     out: ParamBuffer) -> ParamBuffer:
    """Gradient of scale * sum_t log P(a_t) w.r.t. every parameter.

    The softmax/log-prob gradient at the chosen action is
    scale * (one_hot(action) - probs); head gradients come directly from
    it, the rest flows through the unrolled LSTM. Written over every
    tensor of ``out``, which is returned.

    Each head's gradients sum its steps in step order, the LSTM's from the
    last step to the first (`ordered_outer_sum`), so the sums round as a
    step-by-step accumulation does.
    """
    dh = np.empty((len(rollout.actions), state.hidden_dim))
    flat = np.multiply(rollout.probs, -scale)  # the bits of -probs * scale
    flat[state.prob_starts + rollout.actions] += scale
    for head, steps, h_rows, block, w in state.heads:
        dlogits = flat[block].reshape(len(steps), len(w))
        ordered_outer_sum(dlogits, rollout.h[h_rows], out=out[f"head.{head}.w"])
        ordered_row_sum(dlogits, out=out[f"head.{head}.b"])
        # a stacked product, one gemv per step: a single w.T @ dlogits.T
        # (one gemm) rounds differently
        dh[steps] = np.matmul(w.T, dlogits[:, :, None])[:, :, 0]
    lstm_backward(state.lstm, rollout, dh, out=LstmCellParams.from_tensors(out))
    return out


def reinforce_update_batch(state: ControllerState, rollouts: list[Rollout],
                           rewards: list[float]) -> float:
    """Policy-gradient step averaged over a batch of sampled sequences.

    The gradient is the mean over rollouts of reward-scaled log-probability
    gradients, so a batch of one reduces to the plain per-sample update.
    A gradient norm that is not finite raises FloatingPointError, state unchanged.
    """
    if not rollouts or len(rollouts) != len(rewards):
        raise ValueError("need one reward per rollout")
    for rollout in rollouts:
        if rollout.revision != state.revision:
            raise ValueError("stale rollout: controller parameters changed since sampling")

    # the first rollout goes straight into the workspace; each further one
    # into the second workspace, which is then added, one rollout at a time
    grads = state.grads
    if len(rollouts) > 1 and state.batch_grads is None:
        state.batch_grads = state.params.like()
    for k, (rollout, reward) in enumerate(zip(rollouts, rewards)):
        scale = reward - state.baseline if state.use_baseline else reward
        if k == 0:
            policy_gradients(state, rollout, scale / len(rollouts), out=grads)
        else:
            grads.flat += policy_gradients(state, rollout, scale / len(rollouts),
                                           out=state.batch_grads).flat
    norm = clip_by_global_norm(grads.flat, blocks=state.grad_blocks, max_norm=state.clip_norm)
    if not math.isfinite(norm):  # the step would turn every parameter into nan
        raise FloatingPointError(f"update {state.revision + 1} diverged: gradient norm "
                                 f"{norm}; adam.lr = {state.adam.lr} may be too large")
    adam_step(state.params, grads, state.adam)
    state.revision += 1
    if state.use_baseline:
        decay = state.baseline_decay
        mean_reward = sum(rewards) / len(rewards)
        state.baseline = decay * state.baseline + (1.0 - decay) * mean_reward
    return norm


# ---------------------------------------------------------------------------
# Checkpointing (single .npz: parameter/moment arrays plus a JSON header)


def save_checkpoint(state: ControllerState, path: str | Path) -> None:
    """Write a resumable snapshot. Only the shipped space kinds can resume."""
    meta = {"version": CHECKPOINT_VERSION, "space_kind": state.space.kind}
    for name in META_TYPES:
        record, _, key = name.rpartition(".")
        if record:
            meta.setdefault(record, {})[key] = getattr(getattr(state, record), key)
        else:
            meta[key] = getattr(state, key)
    meta["adam"]["t"] = state.adam.t
    meta["rng_state"] = state.rng.bit_generator.state
    arrays: dict[str, np.ndarray] = {}
    for name, p in state.params.items():
        arrays[f"param/{name}"] = p
        arrays[f"adam_m/{name}"] = state.adam.m[name]
        arrays[f"adam_v/{name}"] = state.adam.v[name]
    with textio.atomic_file(path) as f:  # a file object: savez adds no .npz suffix
        np.savez(f, meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
                 **arrays)


def load_checkpoint(path: str | Path) -> ControllerState:
    """Read a snapshot written by `save_checkpoint`.

    Raises ValueError on a file that is not a readable numpy archive (an
    empty or truncated file), on another format version, and, naming the
    array, on a missing or extra array, a non-finite value, or the wrong shape
    or dtype: numpy would otherwise broadcast a wrong-shaped array silently.
    Meta values of the wrong JSON type (`META_TYPES`) or out of range (an
    ADAM setting, the clip norm, the baseline, its decay or the revision)
    are refused, naming the value.
    """
    try:
        # np.load leaves a file it opened itself open when the archive is cut off
        with open(path, "rb") as fh, np.load(fh) as data:
            if "meta" not in data.files:
                raise ValueError("checkpoint has no meta record")
            try:
                meta = json.loads(bytes(data["meta"]).decode())
            except ValueError as exc:  # also UnicodeDecodeError
                raise ValueError(f"checkpoint meta record is not JSON: {exc}") from exc
            version = meta.get("version") if isinstance(meta, dict) else None
            if version != CHECKPOINT_VERSION:
                raise ValueError(f"unsupported checkpoint version: {version}")
            arrays = {key: data[key] for key in data.files if key != "meta"}
    except (EOFError, zipfile.BadZipFile) as exc:
        raise ValueError(f"checkpoint is not a readable numpy archive: {exc}") from exc

    try:
        for name, kind in META_TYPES.items():
            record, _, key = name.rpartition(".")
            value = (meta[record] if record else meta)[key]
            # a float may be written as an int; a bool is neither
            if type(value) not in ((int, float) if kind is float else (kind,)):
                raise ValueError(f"checkpoint meta {name} must be a {kind.__name__}, "
                                 f"got {value!r}")
        state = create_controller(build_space(meta["space_kind"]), seed=0,
                                  hidden_dim=meta["hidden_dim"], clip_norm=meta["clip_norm"],
                                  use_baseline=meta["use_baseline"],
                                  baseline_decay=meta["baseline_decay"])
        adam = meta["adam"]  # built from the loaded values, so AdamState checks them
        state.adam = AdamState.for_params(state.params, lr=adam["lr"], beta1=adam["beta1"],
                                          beta2=adam["beta2"], eps=adam["eps"], t=adam["t"])
        state.baseline = meta["baseline"]
        state.revision = meta["revision"]
        if not math.isfinite(state.baseline):
            raise ValueError(f"baseline must be finite, got {state.baseline}")
        if state.revision < 0:
            raise ValueError(f"revision must be >= 0, got {state.revision}")
        # JSON turns the inner state ints into plain ints, which numpy accepts
        state.rng.bit_generator.state = meta["rng_state"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"checkpoint meta record is malformed: {exc!r}") from exc

    buffers = {"param": state.params, "adam_m": state.adam.m, "adam_v": state.adam.v}
    expected = {f"{kind}/{name}": tensor
                for kind, buf in buffers.items() for name, tensor in buf.items()}
    missing = sorted(expected.keys() - arrays.keys())
    if missing:
        raise ValueError(f"checkpoint lacks array {missing[0]!r}")
    extra = sorted(arrays.keys() - expected.keys())
    if extra:
        raise ValueError(f"checkpoint holds unexpected array {extra[0]!r}")
    for key, tensor in expected.items():
        array = arrays[key]
        if array.dtype != np.float64:
            raise ValueError(f"checkpoint array {key!r} has dtype {array.dtype}, not float64")
        if array.shape != tensor.shape:
            raise ValueError(f"checkpoint array {key!r} has shape {array.shape}, "
                             f"expected {tensor.shape}")
        if not np.isfinite(array).all():
            raise ValueError(f"checkpoint array {key!r} holds a value that is not finite")
        tensor[...] = array
    return state
