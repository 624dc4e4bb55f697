"""LSTM controller: samples architectures and learns from episode rewards.

One rollout makes one decision per space slot. The input at each step is
the token of the previous choice, its global vocabulary index (no input at
the first step); the LSTM hidden state feeds a per-slot-type linear head
whose softmax is sampled. Updates follow the episode-reward policy gradient: the gradient
of the sequence log-probability scaled by the reward, applied as one ADAM
ascent step per sampled architecture.
"""

from __future__ import annotations

import json
import zipfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .nn_core import (GATE_NAMES, AdamState, LstmCellParams, LstmStepCache, ParamBuffer,
                      adam_step, clip_by_global_norm, global_norm, init_lstm,
                      lstm_backward, lstm_forward, lstm_shapes, softmax_probs,
                      softmax_sample)
from .search_space import (ActionSequence, SearchSpace, build_space, input_token,
                           validate_sequence)

DEFAULT_HIDDEN = {"alexnet": 24, "condensenet": 20, "macro": 64}
DEFAULT_LR = {"alexnet": 0.03, "condensenet": 0.008, "macro": 0.0075}
DEFAULT_CLIP_NORM = 5.0
DEFAULT_BASELINE_DECAY = 0.95
CHECKPOINT_VERSION = 2


@dataclass
class RolloutStep:
    cache: LstmStepCache
    head: str
    probs: np.ndarray
    action: int


@dataclass
class Rollout:
    """Everything recorded while sampling, enough for exact gradients."""

    steps: list[RolloutStep]
    revision: int


@dataclass
class ControllerState:
    space: SearchSpace
    hidden_dim: int
    lstm: LstmCellParams  # views into params
    params: ParamBuffer  # lstm tensors + head tensors in one flat buffer
    adam: AdamState
    rng: np.random.Generator
    clip_norm: float | None = DEFAULT_CLIP_NORM
    use_baseline: bool = False
    baseline_decay: float = DEFAULT_BASELINE_DECAY
    baseline: float = 0.0
    revision: int = 0
    # the update's gradient workspace, same layout as params, and the
    # blocks its global norm is summed over; rewritten by every update
    grads: ParamBuffer = field(init=False, repr=False)
    grad_blocks: dict[str, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.grads = self.params.like()
        self.grad_blocks = _norm_blocks(self.grads)

    def head(self, head_type: str) -> tuple[np.ndarray, np.ndarray]:
        return self.params[f"head.{head_type}.w"], self.params[f"head.{head_type}.b"]


def create_controller(space: SearchSpace, seed: int, hidden_dim: int | None = None,
                      lr: float | None = None, init_scale: float = 0.08,
                      clip_norm: float | None = DEFAULT_CLIP_NORM,
                      use_baseline: bool = False,
                      baseline_decay: float = DEFAULT_BASELINE_DECAY) -> ControllerState:
    """Fresh controller for a space.

    ``init_scale=0`` gives an all-zero controller (uniform policy), handy
    for tests. Hidden size and learning rate default per space kind.
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
    init_lstm(lstm, rng, scale=init_scale)
    for head_type in space.head_types():
        for kind in ("w", "b"):
            tensor = params[f"head.{head_type}.{kind}"]
            tensor[...] = rng.uniform(-init_scale, init_scale, size=tensor.shape)
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


def _check_space(state: ControllerState, space: SearchSpace) -> None:
    if space.vocab_size != state.space.vocab_size or len(space) != len(state.space):
        raise ValueError("controller was built for a different space")


def sample_sequence(state: ControllerState, space: SearchSpace
                    ) -> tuple[ActionSequence, Rollout]:
    """Sample one architecture, one decision per slot, autoregressively."""
    _check_space(state, space)
    h = np.zeros(state.hidden_dim)
    c = np.zeros(state.hidden_dim)
    token = input_token(space)
    actions: list[int] = []
    log_probs: list[float] = []
    steps: list[RolloutStep] = []
    for t, slot in enumerate(space.slots):
        h, c, cache = lstm_forward(state.lstm, token, h, c)
        w, b = state.head(slot.head)
        action, lp, probs = softmax_sample(w @ h + b, state.rng)
        actions.append(action)
        log_probs.append(lp)
        steps.append(RolloutStep(cache=cache, head=slot.head, probs=probs, action=action))
        token = input_token(space, (t, action))
    seq = ActionSequence(actions=tuple(actions), log_probs=tuple(log_probs))
    return seq, Rollout(steps=steps, revision=state.revision)


def action_log_prob(state: ControllerState, seq: ActionSequence) -> float:
    """Sum of log P(a_t | a_1..t-1) for a fixed sequence (teacher forcing).

    Recomputes exactly what sampling computed, so it matches recorded
    log-probabilities bit for bit as long as parameters are unchanged.
    """
    validate_sequence(state.space, seq)
    h = np.zeros(state.hidden_dim)
    c = np.zeros(state.hidden_dim)
    token = input_token(state.space)
    total = 0.0
    for t, (slot, action) in enumerate(zip(state.space.slots, seq.actions)):
        h, c, _ = lstm_forward(state.lstm, token, h, c)
        w, b = state.head(slot.head)
        probs = softmax_probs(w @ h + b)
        total += float(np.log(probs[action]))
        token = input_token(state.space, (t, action))
    return total


def policy_gradients(state: ControllerState, rollout: Rollout, scale: float,
                     out: ParamBuffer | None = None) -> ParamBuffer:
    """Gradient of scale * sum_t log P(a_t) w.r.t. every parameter.

    The softmax/log-prob gradient at the chosen action is
    scale * (one_hot(action) - probs); head gradients come directly from
    it, the rest flows through the unrolled LSTM. Written over every
    tensor of ``out`` when given, else into a new buffer.
    """
    if out is None:
        grads = state.params.like()
    elif out.shapes != state.params.shapes:
        raise ValueError("gradient layout does not match parameter layout")
    else:
        grads = out
        for name, tensor in grads.items():
            if not name.startswith("lstm."):  # lstm_backward clears its own
                tensor.fill(0.0)
    caches = [step.cache for step in rollout.steps]
    dh_list: list[np.ndarray] = []
    for step in rollout.steps:
        dlogits = -step.probs * scale
        dlogits[step.action] += scale
        w, _ = state.head(step.head)
        grad_w, grad_b = grads[f"head.{step.head}.w"], grads[f"head.{step.head}.b"]
        grad_w += np.outer(dlogits, step.cache.h)
        grad_b += dlogits
        dh_list.append(w.T @ dlogits)
    lstm_backward(state.lstm, caches, dh_list, out=LstmCellParams.from_tensors(grads))
    return grads


def reinforce_update(state: ControllerState, seq: ActionSequence,
                     rollout: Rollout, reward: float) -> float:
    """One policy-gradient ascent step from a sampled sequence and its reward.

    Returns the global L2 norm of the gradient (before clipping) for
    logging. Refuses rollouts recorded under older parameters.
    """
    if len(rollout.steps) != len(seq.actions):
        raise ValueError("rollout does not match sequence length")
    return reinforce_update_batch(state, [rollout], [reward])


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
    # into a second buffer that is then added, one rollout at a time
    grads = state.grads
    rest = state.params.like() if len(rollouts) > 1 else None
    for k, (rollout, reward) in enumerate(zip(rollouts, rewards)):
        scale = reward - state.baseline if state.use_baseline else reward
        if k == 0:
            policy_gradients(state, rollout, scale / len(rollouts), out=grads)
        else:
            grads.flat += policy_gradients(state, rollout, scale / len(rollouts),
                                           out=rest).flat
    if state.clip_norm is not None:
        norm = clip_by_global_norm(state.grad_blocks, state.clip_norm)
    else:
        norm = global_norm(state.grad_blocks)
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
    np.savez(path, meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
             **arrays)


def load_checkpoint(path: str | Path) -> ControllerState:
    """Read a snapshot written by `save_checkpoint`.

    Raises ValueError on a file that is not a readable numpy archive (an
    empty or truncated file), on another format version, and, naming the
    array, on a missing or extra array or one of the wrong shape or dtype:
    numpy would otherwise broadcast a wrong-shaped array into place silently.
    """
    try:
        with np.load(path) as data:
            if "meta" not in data.files:
                raise ValueError("checkpoint has no meta record")
            meta = json.loads(bytes(data["meta"]).decode())
            version = meta.get("version") if isinstance(meta, dict) else None
            if version != CHECKPOINT_VERSION:
                raise ValueError(f"unsupported checkpoint version: {version}")
            arrays = {key: data[key] for key in data.files if key != "meta"}
    except (EOFError, zipfile.BadZipFile) as exc:
        raise ValueError(f"checkpoint is not a readable numpy archive: {exc}") from exc

    try:
        state = create_controller(build_space(meta["space_kind"]), seed=0,
                                  hidden_dim=meta["hidden_dim"], lr=meta["adam"]["lr"],
                                  clip_norm=meta["clip_norm"],
                                  use_baseline=meta["use_baseline"],
                                  baseline_decay=meta["baseline_decay"])
        state.adam.beta1 = meta["adam"]["beta1"]
        state.adam.beta2 = meta["adam"]["beta2"]
        state.adam.eps = meta["adam"]["eps"]
        state.adam.t = meta["adam"]["t"]
        state.baseline = meta["baseline"]
        state.revision = meta["revision"]
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
