"""LSTM controller: samples architectures and learns from episode rewards.

One rollout makes one decision per space slot. The input at each step is
the token of the previous choice, its global vocabulary index (no input at
the first step); the LSTM hidden state feeds a per-slot-type linear head
whose softmax is sampled. Updates follow the episode-reward policy gradient: the gradient
of the sequence log-probability scaled by the reward, averaged over a batch of
samples and applied as one ADAM ascent step.
"""

from __future__ import annotations

import json
import math
import zipfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import textio
from .nn_core import (GATE_NAMES, INIT_SCALE, AdamState, LstmCellParams, LstmRecord,
                      ParamBuffer, adam_step, clip_by_global_norm, init_lstm, lstm_backward,
                      lstm_forward, lstm_shapes, ordered_outer_sum, ordered_row_sum,
                      softmax_probs, softmax_sample)
from .search_space import SearchSpace, build_space, validate_sequence

DEFAULT_HIDDEN = {"alexnet": 24, "condensenet": 20, "macro": 64}
DEFAULT_LR = {"alexnet": 0.03, "condensenet": 0.008, "macro": 0.0075}
DEFAULT_CLIP_NORM = 5.0
DEFAULT_BASELINE_DECAY = 0.95
CHECKPOINT_VERSION = 2
# the JSON type of the checkpoint meta values `load_checkpoint` reads into
# the state ("adam." names one of the nested adam record); AdamState checks
# adam.t's type itself
META_TYPES = {"hidden_dim": int, "clip_norm": float, "use_baseline": bool,
              "baseline_decay": float, "baseline": float, "revision": int,
              "adam.lr": float, "adam.beta1": float, "adam.beta2": float,
              "adam.eps": float}


@dataclass
class Rollout(LstmRecord):
    """One sampled sequence as arrays, enough for exact gradients.

    The LSTM's rows of every step (`LstmRecord`), the action of every step,
    and per head type the softmax probabilities of its steps, one row per
    step in step order.
    """

    actions: np.ndarray  # [T] int
    probs: dict[str, np.ndarray]  # head type -> [steps of that type, arity]
    revision: int


class SlotHead(NamedTuple):
    """One step of a rollout: its head and where its decision goes."""

    head: str
    row: int  # its row among the steps of its head type
    w: np.ndarray  # the head's parameter views
    b: np.ndarray
    offset: int  # vocabulary offset: a choice's input token is offset + action


class HeadSteps(NamedTuple):
    """The steps one head type decides, in order, and what they read."""

    head: str
    steps: np.ndarray
    h_rows: np.ndarray  # the rows of `Rollout.h` its logits read: steps + 1
    rows: np.ndarray  # 0 .. len(steps) - 1
    w: np.ndarray  # the head's weight view


@dataclass
class ControllerState:
    space: SearchSpace
    hidden_dim: int
    lstm: LstmCellParams  # views into params
    params: ParamBuffer  # lstm tensors + head tensors in one flat buffer
    adam: AdamState
    rng: np.random.Generator
    clip_norm: float = DEFAULT_CLIP_NORM  # math.inf: no clipping
    use_baseline: bool = False
    baseline_decay: float = DEFAULT_BASELINE_DECAY
    baseline: float = 0.0
    revision: int = 0
    # the update's gradient workspace, same layout as params, and the
    # blocks its global norm is summed over; rewritten by every update.
    # A batch's further rollouts go through a second one, made on first use.
    grads: ParamBuffer = field(init=False, repr=False)
    grad_blocks: dict[str, np.ndarray] = field(init=False, repr=False)
    batch_grads: ParamBuffer | None = field(default=None, init=False, repr=False)
    # where each step and head type sits in a rollout, fixed by the space
    slots: tuple[SlotHead, ...] = field(init=False, repr=False)
    heads: tuple[HeadSteps, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not self.clip_norm > 0.0:
            raise ValueError(f"clip_norm must be > 0, got {self.clip_norm}")
        if not 0.0 <= self.baseline_decay < 1.0:
            raise ValueError(f"baseline_decay must lie in [0, 1), got {self.baseline_decay}")
        self.grads = self.params.like()
        self.grad_blocks = _norm_blocks(self.grads)
        heads = [slot.head for slot in self.space.slots]
        self.slots = tuple(
            SlotHead(head, heads[:t].count(head), self.params[f"head.{head}.w"],
                     self.params[f"head.{head}.b"], offset)
            for t, (head, offset) in enumerate(zip(heads, self.space.vocab_offsets)))
        steps_of = {head: np.flatnonzero([h == head for h in heads])
                    for head in self.space.head_types()}
        self.heads = tuple(
            HeadSteps(head, steps, steps + 1, np.arange(len(steps)),
                      self.params[f"head.{head}.w"]) for head, steps in steps_of.items())


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
    params = ParamBuffer(_param_shapes(space, hidden_dim))
    lstm = LstmCellParams.from_tensors(params)
    init_lstm(lstm, rng)
    for head_type in space.head_types():
        for kind in ("w", "b"):
            tensor = params[f"head.{head_type}.{kind}"]
            tensor[...] = rng.uniform(-INIT_SCALE, INIT_SCALE, size=tensor.shape)
    adam = AdamState.for_params(params, lr=lr)
    return ControllerState(space=space, hidden_dim=hidden_dim, lstm=lstm,
                           params=params, adam=adam, rng=rng, clip_norm=clip_norm,
                           use_baseline=use_baseline, baseline_decay=baseline_decay)


def _param_shapes(space: SearchSpace, hidden_dim: int) -> dict[str, tuple[int, ...]]:
    """Every controller tensor: the LSTM cell, then a (w, b) head per slot type."""
    shapes = lstm_shapes(space.vocab_size, hidden_dim)
    for head_type in space.head_types():
        arity = next(len(s.candidates) for s in space.slots if s.head == head_type)
        shapes[f"head.{head_type}.w"] = (arity, hidden_dim)
        shapes[f"head.{head_type}.b"] = (arity,)
    return shapes


def _norm_blocks(grads: ParamBuffer) -> dict[str, np.ndarray]:
    """Views that cut a gradient into the blocks its global norm is summed over.

    Each gate's w, u and b in turn, then the heads. The norm adds one float
    sum per block, so the blocks and their order fix its rounding, which
    results.csv records as grad_norm.
    """
    cell = LstmCellParams.from_tensors(grads)
    blocks = {}
    for gate in GATE_NAMES:
        for kind, block in zip("wub", cell.gate(gate)):
            blocks[f"lstm.{kind}_{gate}"] = block
    for name, tensor in grads.items():
        if not name.startswith("lstm."):
            blocks[name] = tensor
    return blocks


def sample_sequence(state: ControllerState) -> tuple[tuple[int, ...], Rollout]:
    """Sample one architecture of the state's space, one decision per slot, in order.

    Returns its actions and the rollout the update reads. The input of
    step t > 0 is the token of the previous choice: the previous slot's
    vocabulary offset plus its action.
    """
    steps = len(state.slots)
    rollout = Rollout.empty(
        steps, state.hidden_dim, actions=np.empty(steps, dtype=int),
        probs={head.head: np.empty((len(head.steps), len(head.w))) for head in state.heads},
        revision=state.revision)
    actions: list[int] = []
    token = None
    for t, slot in enumerate(state.slots):
        if token is not None:
            rollout.tokens[t] = token
        h, _ = lstm_forward(state.lstm, token, rollout.h[t], rollout.c[t],
                            out=rollout.rows(t))
        action, probs = softmax_sample(slot.w @ h + slot.b, state.rng)
        rollout.probs[slot.head][slot.row] = probs
        actions.append(action)
        token = slot.offset + action
    rollout.actions[:] = actions
    return tuple(actions), rollout


def action_log_prob(state: ControllerState, actions: tuple[int, ...]) -> float:
    """Sum of log P(a_t | a_1..t-1) for fixed actions (teacher forcing).

    Recomputes exactly the probabilities sampling computed, so as long as
    parameters are unchanged it equals the step-order sum of the logs of
    the rollout's chosen probabilities bit for bit. Nothing is recorded:
    the steps write into two sets of rows in turn, each step reading the
    state the other set holds.
    """
    validate_sequence(state.space, actions)
    n = state.hidden_dim
    h = np.zeros(n)
    c = np.zeros(n)
    # (gates, c, tanh_c, h), as lstm_forward writes them
    rows = [(np.empty(4 * n), np.empty(n), np.empty(n), np.empty(n)) for _ in range(2)]
    token = None
    total = 0.0
    for t, (slot, action) in enumerate(zip(state.slots, actions)):
        h, c = lstm_forward(state.lstm, token, h, c, out=rows[t % 2])
        probs = softmax_probs(slot.w @ h + slot.b)
        total += float(np.log(probs[action]))
        token = slot.offset + action
    return total


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
    if out.shapes != state.params.shapes:
        raise ValueError("gradient layout does not match parameter layout")
    dh = np.empty((len(rollout.actions), state.hidden_dim))
    for head, steps, h_rows, rows, w in state.heads:
        dlogits = -rollout.probs[head] * scale
        dlogits[rows, rollout.actions[steps]] += scale
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
    norm = clip_by_global_norm(state.grad_blocks, state.clip_norm)
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
    meta = {
        "version": CHECKPOINT_VERSION,
        "space_kind": state.space.kind,
        "hidden_dim": state.hidden_dim,
        "adam": {"lr": state.adam.lr, "beta1": state.adam.beta1,
                 "beta2": state.adam.beta2, "eps": state.adam.eps, "t": state.adam.t},
        "clip_norm": state.clip_norm,
        "use_baseline": state.use_baseline,
        "baseline_decay": state.baseline_decay,
        "baseline": state.baseline,
        "revision": state.revision,
        "rng_state": state.rng.bit_generator.state,
    }
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
    array, on a missing or extra array or one of the wrong shape or dtype:
    numpy would otherwise broadcast a wrong-shaped array into place silently.
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
        tensor[...] = array
    return state
