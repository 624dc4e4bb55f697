"""Minimal numeric kernel: one LSTM cell with exact BPTT, softmax sampling, ADAM.

Everything runs in float64 numpy so analytic gradients can be checked against
central finite differences to tight tolerances. A parameter set is a
`ParamBuffer`: one flat array holding every tensor back to back, with a
named view per tensor, so the optimizer updates all of it in one vector
expression while the model code reads and writes tensors by name.

The LSTM's input at each step is a token, the index of a single one-hot
entry (or none at all), so the input product is a column lookup and its
gradient a column add.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field

import numpy as np

INIT_SCALE = 0.08  # uniform init range, keeps early softmax near-uniform

GATE_NAMES = ("i", "f", "o", "g")


class ParamBuffer(Mapping):
    """Named float64 tensors stored back to back in one flat array.

    ``flat`` owns the memory and each tensor is a reshaped view of its
    slice, so an in-place write through either is seen by both. Tensors
    keep the insertion order of ``shapes``.
    """

    def __init__(self, shapes: Mapping[str, tuple[int, ...]]) -> None:
        self.shapes = {name: tuple(shape) for name, shape in shapes.items()}
        self.flat = np.zeros(sum(math.prod(s) for s in self.shapes.values()))
        self._views: dict[str, np.ndarray] = {}
        start = 0
        for name, shape in self.shapes.items():
            stop = start + math.prod(shape)
            self._views[name] = self.flat[start:stop].reshape(shape)
            start = stop

    def like(self) -> "ParamBuffer":
        """A zero buffer with the same layout."""
        return ParamBuffer(self.shapes)

    def __getitem__(self, name: str) -> np.ndarray:
        return self._views[name]

    def __iter__(self) -> Iterator[str]:
        return iter(self._views)

    def __len__(self) -> int:
        return len(self._views)


def sigmoid(x: np.ndarray) -> np.ndarray:
    # exp of -|x| never overflows; 1/(1+e) for x >= 0 and e/(1+e) below
    # give the same values as evaluating each sign on its own subset
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    return np.where(x >= 0, 1.0 / d, e / d)


@dataclass
class LstmCellParams:
    """Weights of a single LSTM cell, the four gates fused.

    ``w`` [4H, D] acts on the input token, ``u`` [4H, H] on the previous
    hidden state, ``b`` is [4H]. Row block k (rows k*H to (k+1)*H) belongs
    to gate ``GATE_NAMES[k]``: input (i), forget (f), output (o), candidate
    (g), as in cuDNN-style LSTMs.
    """

    w: np.ndarray
    u: np.ndarray
    b: np.ndarray

    def __post_init__(self) -> None:
        if self.u.ndim != 2 or self.u.shape[0] != 4 * self.u.shape[1]:
            raise ValueError(f"u must have shape (4H, H), got {self.u.shape}")
        four_h = self.u.shape[0]
        if self.w.ndim != 2 or self.w.shape[0] != four_h:
            raise ValueError(f"w must have shape ({four_h}, D), got {self.w.shape}")
        if self.b.shape != (four_h,):
            raise ValueError(f"b must have shape ({four_h},), got {self.b.shape}")

    @property
    def input_dim(self) -> int:
        return self.w.shape[1]

    @property
    def hidden_dim(self) -> int:
        return self.u.shape[1]

    def gate(self, name: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Views (w, u, b) of one gate's row block."""
        n = self.hidden_dim
        k = GATE_NAMES.index(name)
        rows = slice(k * n, (k + 1) * n)
        return self.w[rows], self.u[rows], self.b[rows]

    def tensors(self) -> dict[str, np.ndarray]:
        """Flat name -> array view of all weights (shared references)."""
        return {"lstm.w": self.w, "lstm.u": self.u, "lstm.b": self.b}

    @classmethod
    def from_tensors(cls, tensors: Mapping[str, np.ndarray]) -> "LstmCellParams":
        """The cell whose weights are the arrays named as in ``tensors()``."""
        return cls(tensors["lstm.w"], tensors["lstm.u"], tensors["lstm.b"])


def lstm_shapes(input_dim: int, hidden_dim: int) -> dict[str, tuple[int, ...]]:
    """Tensor shapes of an LSTM cell, under the names of ``tensors()``."""
    four_h = 4 * hidden_dim
    return {"lstm.w": (four_h, input_dim), "lstm.u": (four_h, hidden_dim),
            "lstm.b": (four_h,)}


def zero_lstm(input_dim: int, hidden_dim: int) -> LstmCellParams:
    shapes = lstm_shapes(input_dim, hidden_dim)
    return LstmCellParams(*(np.zeros(shape) for shape in shapes.values()))


def init_lstm(params: LstmCellParams, rng: np.random.Generator,
              scale: float = INIT_SCALE) -> None:
    """Fill a cell in place with weights drawn uniformly from [-scale, scale].

    Draws gate by gate, w then u then b, each in its per-gate shape.
    """
    for gate in GATE_NAMES:
        for block in params.gate(gate):
            block[...] = rng.uniform(-scale, scale, size=block.shape)


@dataclass
class LstmStepCache:
    """Everything from one forward step needed for exact backprop."""

    token: int | None
    h_prev: np.ndarray
    c_prev: np.ndarray
    gates: np.ndarray  # activations i, f, o, g back to back, as the rows of w
    tanh_c: np.ndarray
    h: np.ndarray


def lstm_forward(params: LstmCellParams, token: int | None, h_prev: np.ndarray,
                 c_prev: np.ndarray) -> tuple[np.ndarray, np.ndarray, LstmStepCache]:
    """One LSTM step on input token ``token`` (None: an all-zero input).

    i, f, o are sigmoid gates, g the tanh candidate:
        c = f * c_prev + i * g
        h = o * tanh(c)
    """
    n = params.hidden_dim
    if token is not None and not 0 <= token < params.input_dim:
        raise ValueError(f"input token must lie in [0, {params.input_dim}), got {token}")
    if h_prev.shape != (n,) or c_prev.shape != (n,):
        raise ValueError(f"state must have shape ({n},)")

    pre = params.u @ h_prev
    if token is not None:
        pre += params.w[:, token]
    pre += params.b
    gates = np.empty(4 * n)
    gates[:3 * n] = sigmoid(pre[:3 * n])
    np.tanh(pre[3 * n:], out=gates[3 * n:])
    i, f, o, g = gates[:n], gates[n:2 * n], gates[2 * n:3 * n], gates[3 * n:]
    c = f * c_prev + i * g
    tanh_c = np.tanh(c)
    h = o * tanh_c
    cache = LstmStepCache(token=token, h_prev=h_prev, c_prev=c_prev, gates=gates,
                          tanh_c=tanh_c, h=h)
    return h, c, cache


def lstm_backward(params: LstmCellParams, caches: list[LstmStepCache],
                  output_grads: list[np.ndarray],
                  out: LstmCellParams | None = None) -> LstmCellParams:
    """Backprop through time over a full forward pass.

    ``output_grads[t]`` is dLoss/dh_t. Returns the accumulated parameter
    gradients, written over ``out`` when given (its old contents are never
    read), else into a new cell. No truncation: gradients are exact.
    """
    if len(caches) != len(output_grads):
        raise ValueError("need one output gradient per cached step")
    n = params.hidden_dim
    for t, cache in enumerate(caches):
        if cache.h.shape != (n,) or (cache.token is not None
                                     and not 0 <= cache.token < params.input_dim):
            raise ValueError(f"cache at step {t} does not match params dimensions")

    if out is None:
        grads = zero_lstm(params.input_dim, n)
    elif out.w.shape != params.w.shape or out.u.shape != params.u.shape:
        raise ValueError("gradient cell does not match params dimensions")
    else:
        grads = out
        for tensor in grads.tensors().values():
            tensor.fill(0.0)
    u_i, u_f, u_o, u_g = (params.gate(gate)[1].T for gate in GATE_NAMES)
    dh_next = np.zeros(n)
    dc_next = np.zeros(n)

    for t in range(len(caches) - 1, -1, -1):
        cc = caches[t]
        gates = cc.gates
        i, f, o, g = gates[:n], gates[n:2 * n], gates[2 * n:3 * n], gates[3 * n:]
        dh = output_grads[t] + dh_next
        dc = dc_next + dh * o * (1.0 - cc.tanh_c * cc.tanh_c)

        # gradient at the pre-activations, in the gate rows of w; a sigmoid
        # gate a takes ((x * y) * a) * (1 - a), multiplied in that order
        d_pre = np.empty(4 * n)
        np.multiply(dc, g, out=d_pre[:n])
        np.multiply(dc, cc.c_prev, out=d_pre[n:2 * n])
        np.multiply(dh, cc.tanh_c, out=d_pre[2 * n:3 * n])
        sig = d_pre[:3 * n]
        sig *= gates[:3 * n]
        sig *= 1.0 - gates[:3 * n]
        np.multiply(dc * i, 1.0 - g * g, out=d_pre[3 * n:])
        d_i, d_f, d_o, d_g = d_pre[:n], d_pre[n:2 * n], d_pre[2 * n:3 * n], d_pre[3 * n:]

        if cc.token is not None:
            grads.w[:, cc.token] += d_pre
        grads.u += np.outer(d_pre, cc.h_prev)
        grads.b += d_pre
        # four per-gate products added in this order: one fused u.T @ d_pre
        # sums in another order and rounds differently
        dh_next = u_o @ d_o
        dh_next += u_i @ d_i
        dh_next += u_f @ d_f
        dh_next += u_g @ d_g
        dc_next = dc * f

    return grads


def softmax_probs(logits: np.ndarray) -> np.ndarray:
    """Numerically stable softmax (max subtraction)."""
    if logits.size == 0:
        raise ValueError("softmax of empty logits")
    # the ndarray methods run the same reductions as np.max/np.sum without
    # the dispatch of the module-level wrappers
    shifted = logits - logits.max()
    exps = np.exp(shifted)
    return exps / exps.sum()


def softmax_sample(logits: np.ndarray, rng: np.random.Generator
                   ) -> tuple[int, float, np.ndarray]:
    """Sample an index from softmax(logits) with one uniform draw.

    Inverse CDF: the index is the first position whose cumulative
    probability exceeds the draw. Returns (index, log prob of index, probs).
    """
    probs = softmax_probs(logits)
    u = rng.random()
    index = int(probs.cumsum().searchsorted(u, side="right"))
    index = min(index, len(probs) - 1)  # guard against cumsum rounding below 1
    return index, float(np.log(probs[index])), probs


@dataclass
class AdamState:
    """ADAM moment accumulators for a parameter buffer (ascent convention).

    ``scratch`` holds the step's temporaries, two rows as long as the
    buffer; `adam_step` allocates it on first use and overwrites it on
    every step, so its contents carry nothing between steps.
    """

    lr: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    t: int = 0
    m: ParamBuffer | None = None
    v: ParamBuffer | None = None
    scratch: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not 0.0 <= self.beta1 < 1.0 or not 0.0 <= self.beta2 < 1.0:
            raise ValueError("decay rates must lie in [0, 1)")
        if self.t < 0:
            raise ValueError("timestep must be >= 0")

    @classmethod
    def for_params(cls, params: ParamBuffer, lr: float, **kw) -> "AdamState":
        return cls(lr=lr, m=params.like(), v=params.like(), **kw)


def adam_step(params: ParamBuffer, grads: ParamBuffer, state: AdamState) -> None:
    """One bias-corrected ADAM step, in place, over the whole flat buffer.

    Gradient ascent: callers pass reward gradients and the update is added,
    so params move toward higher reward.
    """
    if grads.shapes != params.shapes:
        raise ValueError("gradient layout does not match parameter layout")
    state.t += 1
    b1, b2 = state.beta1, state.beta2
    correct1 = 1.0 - b1 ** state.t
    correct2 = 1.0 - b2 ** state.t
    g, m, v = grads.flat, state.m.flat, state.v.flat
    if state.scratch is None or state.scratch.shape != (2, g.size):
        state.scratch = np.empty((2, g.size))
    s, d = state.scratch
    # the same operations in the same order as
    #   m = b1 * m + (1 - b1) * g;  v = b2 * v + ((1 - b2) * g) * g
    #   params += (lr * (m / c1)) / (sqrt(v / c2) + eps)
    # computed into the scratch rows instead of fresh temporaries
    m *= b1
    np.multiply(1.0 - b1, g, out=s)
    m += s
    v *= b2
    np.multiply(1.0 - b2, g, out=s)
    s *= g
    v += s
    np.divide(m, correct1, out=s)
    np.multiply(state.lr, s, out=s)
    np.divide(v, correct2, out=d)
    np.sqrt(d, out=d)
    d += state.eps
    s /= d
    params.flat += s


def global_norm(grads: Mapping[str, np.ndarray]) -> float:
    """L2 norm over all entries of all tensors, summed tensor by tensor."""
    total = 0.0
    for g in grads.values():
        total += float(np.sum(g * g))
    return float(np.sqrt(total))


def clip_by_global_norm(grads: Mapping[str, np.ndarray], max_norm: float) -> float:
    """Scale grads in place so their global norm is at most max_norm.

    Returns the norm before clipping.
    """
    norm = global_norm(grads)
    if norm > max_norm > 0.0:
        scale = max_norm / norm
        for g in grads.values():
            g *= scale
    return norm
