"""Minimal numeric kernel: one LSTM cell with exact BPTT, softmax sampling, ADAM.

Everything runs in float64 numpy so analytic gradients can be checked against
central finite differences to tight tolerances. A parameter set is a
`ParamBuffer`: one flat array holding every tensor back to back, with a
named view per tensor, so the optimizer updates all of it in one vector
expression while the model code reads and writes tensors by name.

The LSTM's input at each step is a token, the index of a single one-hot
entry (or none at all), so the input product is a column lookup: the
forward adds the token's column of w; a rollout feeds each token at most
once, so its gradient is one step's column.

A forward pass is kept as an `LstmRecord`, one row per step. A step writes
through its rows' `forward_views`; the controller builds them, and the
column views of w, once per state for every step of a rollout, runs each
sample in that scratch record and copies the record out. The backward
runs the recurrence step by step, then sums each parameter gradient over
the whole record with `ordered_outer_sum` (and a bias with
`ordered_row_sum`, an `np.add.reduce` from +0.0), which add the steps in
the same order, and so to the same bits, as accumulating them step by
step. The temporaries of both passes live in scratch owned by the cell:
the forward's are made on its first step, the backward's for the last
step count it saw, with every per-step row view built once.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field

import numpy as np

GATE_NAMES = ("i", "f", "o", "g")

# 0-d operands for the per-step kernels: a ufunc converts a Python float
# operand on every call, an array it takes as it is
_ONE = np.array(1.0)
_MINUS_ONE = np.array(-1.0)
_ZERO = np.array(0.0)
for _constant in (_ONE, _MINUS_ONE, _ZERO):
    _constant.flags.writeable = False


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


def sigmoid(x: np.ndarray, scratch: tuple[np.ndarray, np.ndarray, np.ndarray]
            ) -> np.ndarray:
    """Overwrite ``x`` with its logistic sigmoid and return it.

    exp of -|x| never overflows; 1/(1+e) for x >= 0 and e/(1+e) below
    give the same values as evaluating each sign on its own subset.
    ``scratch`` is three arrays of x's shape: float for e (then the
    numerator), float for 1 + e, and bool for the sign mask.
    """
    num, den, nonneg = scratch
    np.copysign(x, _MINUS_ONE, num)  # -|x|
    np.exp(num, num)
    np.add(num, _ONE, den)
    np.greater_equal(x, _ZERO, nonneg)
    np.putmask(num, nonneg, _ONE)
    return np.divide(num, den, x)


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
    # `lstm_backward`'s scratch for the last step count it ran, replaced
    # when the step count changes
    backward_scratch: BackwardScratch | None = field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.u.ndim != 2 or self.u.shape[0] != 4 * self.u.shape[1]:
            raise ValueError(f"u must have shape (4H, H), got {self.u.shape}")
        four_h = self.u.shape[0]
        if self.w.ndim != 2 or self.w.shape[0] != four_h:
            raise ValueError(f"w must have shape ({four_h}, D), got {self.w.shape}")
        if self.b.shape != (four_h,):
            raise ValueError(f"b must have shape ({four_h},), got {self.b.shape}")

    # `lstm_forward`'s temporaries, made on a cell's first step (a gradient
    # cell never takes one) and rewritten by every step
    @functools.cached_property
    def sigmoid_scratch(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The `sigmoid` scratch for the 3H rows of i, f and o."""
        n = self.hidden_dim
        return np.empty(3 * n), np.empty(3 * n), np.empty(3 * n, dtype=bool)

    @functools.cached_property
    def ig_scratch(self) -> np.ndarray:
        """Where i * g goes."""
        return np.empty(self.hidden_dim)

    @functools.cached_property
    def input_tokens(self) -> frozenset[int]:
        """Every input token: what `lstm_backward` checks a record's against."""
        return frozenset(range(self.input_dim))

    @functools.cached_property
    def u_blocks(self) -> np.ndarray:
        """Each gate's u.T, a [4, H, H] view of ``u``: one stacked product
        with it gives the four per-gate products of `lstm_backward`."""
        n = self.hidden_dim
        return self.u.reshape(4, n, n).transpose(0, 2, 1)

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

    @classmethod
    def from_tensors(cls, tensors: Mapping[str, np.ndarray]) -> "LstmCellParams":
        """The cell whose weights are the arrays named as in `lstm_shapes`."""
        return cls(tensors["lstm.w"], tensors["lstm.u"], tensors["lstm.b"])


def lstm_shapes(input_dim: int, hidden_dim: int) -> dict[str, tuple[int, ...]]:
    """Tensor shapes of an LSTM cell: "lstm.w", "lstm.u" and "lstm.b"."""
    four_h = 4 * hidden_dim
    return {"lstm.w": (four_h, input_dim), "lstm.u": (four_h, hidden_dim),
            "lstm.b": (four_h,)}


@dataclass
class LstmRecord:
    """A forward pass over T steps, one row per step: what exact BPTT reads.

    Row t of ``tokens``, ``gates`` and ``tanh_c`` belongs to step t. ``h``
    and ``c`` have T + 1 rows: row 0 is the initial state (zeros) and row
    t + 1 the state step t leaves, so row t is step t's previous state.
    """

    tokens: np.ndarray  # [T] int, the input token of each step, -1 for none
    gates: np.ndarray  # [T, 4H] activations i, f, o, g back to back, as the rows of w
    h: np.ndarray  # [T + 1, H]
    c: np.ndarray  # [T + 1, H]
    tanh_c: np.ndarray  # [T, H]

    @classmethod
    def empty(cls, steps: int, hidden_dim: int) -> "LstmRecord":
        """A record for ``steps`` steps from the zero state."""
        return cls(tokens=np.full(steps, -1), gates=np.empty((steps, 4 * hidden_dim)),
                   h=np.zeros((steps + 1, hidden_dim)), c=np.zeros((steps + 1, hidden_dim)),
                   tanh_c=np.empty((steps, hidden_dim)))


def forward_views(gates: np.ndarray, c: np.ndarray, tanh_c: np.ndarray, h: np.ndarray
                  ) -> tuple[np.ndarray, ...]:
    """The views `lstm_forward` writes one step through, from the step's rows
    (gates, c, tanh_c, h): of an `LstmRecord`, gates[t], c[t + 1],
    tanh_c[t], h[t + 1]. They are gates, its i, f, o rows together, each of
    i, f, o and g, then c, tanh_c and h."""
    n = len(h)
    return (gates, gates[:3 * n], gates[:n], gates[n:2 * n], gates[2 * n:3 * n],
            gates[3 * n:], c, tanh_c, h)


def lstm_forward(params: LstmCellParams, column: np.ndarray | None, h_prev: np.ndarray,
                 c_prev: np.ndarray, out: tuple[np.ndarray, ...]
                 ) -> tuple[np.ndarray, np.ndarray]:
    """One LSTM step on the input token whose column of ``params.w`` is
    ``column`` (None: an all-zero input).

    i, f, o are sigmoid gates, g the tanh candidate:
        c = f * c_prev + i * g
        h = o * tanh(c)
    Returns (h, c). ``out`` is the step's `forward_views`, which it is
    written through. Unchecked, as `sample_sequence` makes them so: the
    state and ``out`` are rows of the cell's sizes.
    """
    gates, ifo, i, f, o, g, c, tanh_c, h = out

    # the pre-activations, squashed in place; np.dot runs the same gemv as
    # np.matmul with less dispatch
    np.dot(params.u, h_prev, gates)
    if column is not None:
        np.add(gates, column, gates)
    np.add(gates, params.b, gates)
    sigmoid(ifo, params.sigmoid_scratch)
    np.tanh(g, g)
    np.multiply(f, c_prev, c)
    np.add(c, np.multiply(i, g, params.ig_scratch), c)
    np.tanh(c, tanh_c)
    np.multiply(o, tanh_c, h)
    return h, c


def ordered_outer_sum(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write sum_t outer(a[t], b[t]) over ``out``, added in the order of t.

    Bit for bit the loop ``out[...] = 0; for t: out += np.outer(a[t], b[t])``.
    einsum rounds each product on its own (no fused multiply-add) and adds
    along t in order into a zeroed output, provided the inputs lie in
    memory in the order of t (it walks a reversed view in memory order, so
    they are made C-contiguous here) and the output has more than one
    entry (a single one goes through an unrolled sum, so it is refused).
    """
    shape = (a.shape[1], b.shape[1])
    if not out.flags.c_contiguous or out.shape != shape or out.size < 2:
        raise ValueError(f"out must be a C-contiguous {shape} array of two or more entries")
    np.einsum("ti,tj->ij", np.ascontiguousarray(a), np.ascontiguousarray(b), out=out)
    return out


def ordered_row_sum(a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write sum_t a[t] over the 1-D ``out``, added in the order of t from zero.

    ``np.add.reduce`` along t adds each row into ``out`` in turn, given two
    or more columns; a single column it sums pairwise, so it is refused.
    """
    if a.shape[1] < 2:
        raise ValueError(f"a must have two or more columns, got {a.shape[1]}")
    np.add.reduce(a, 0, None, out, initial=0.0)
    return out


class BackwardScratch:
    """`lstm_backward`'s arrays for one step count, and the row views of
    them each step reads and writes, made once.

    Row k of every array belongs to step steps-1-k: the rows are in the
    order the backward runs and the parameter gradients add them.
    """

    def __init__(self, steps: int, hidden_dim: int) -> None:
        n = hidden_dim
        self.steps = steps
        # copied in: the output gradients, and each step's gates i, f, o, g
        # followed by its c_prev and tanh_c, so that g, c_prev and tanh_c,
        # what dc, dc and dh multiply first in the rows of i, f and o, lie
        # side by side
        self.out_grads = np.empty((steps, n))
        inputs = np.empty((steps, 6 * n))
        self.gates, self.c_prev, self.tanh_c = (
            inputs[:, :4 * n], inputs[:, 4 * n:5 * n], inputs[:, 5 * n:])
        firsts = inputs[:, 3 * n:]
        # the factors that do not depend on the incoming gradient: 1 - a for
        # the sigmoid gates a (i, f, o), and 1 - x * x for the tanh outputs
        # x (g and tanh_c), the two of those in one call over a strided view
        self.sigmoids = inputs[:, :3 * n]
        self.d_sig = np.empty((steps, 3 * n))
        self.tanhs = firsts.reshape(steps, 3, n)[:, ::2]
        self.d_tanhs = np.empty((steps, 2, n))
        d_cand, d_tanh_c = self.d_tanhs[:, 0], self.d_tanhs[:, 1]
        # the pre-activation gradients, the output of the step loop
        self.d_pre_rows = np.empty((steps, 4 * n))
        # each step's temporaries, all of them 1-D: a ufunc that broadcasts
        # or reduces costs more per call than the arithmetic on H entries
        self.dc_dc_dh = np.empty(3 * n)
        self.dc, self.dc_copy, self.dh = self.dc_dc_dh.reshape(3, n)
        self.dh_dc_next = np.empty(2 * n)  # zeroed by each call
        self.dh_next, self.dc_next = self.dh_dc_next.reshape(2, n)
        self.gate_products = np.empty((4, n, 1))  # each gate's u.T @ d_pre
        self.products = tuple(self.gate_products[:, :, 0])
        gates, d_pre = self.gates, self.d_pre_rows
        self.rows = tuple(zip(*(list(a) for a in (
            self.out_grads, gates[:, :n], gates[:, n:2 * n], gates[:, 2 * n:3 * n],
            self.sigmoids, d_tanh_c, self.d_sig, d_cand, firsts,
            d_pre[:, :3 * n], d_pre[:, 3 * n:], d_pre.reshape(steps, 4, n, 1)))))


def lstm_backward(params: LstmCellParams, record: LstmRecord, output_grads: np.ndarray,
                  out: LstmCellParams) -> LstmCellParams:
    """Backprop through time over a rollout's forward pass.

    ``output_grads[t]`` is dLoss/dh of step t ([T, H]). The record must be
    a rollout's: token -1 at step 0, then a distinct one of
    ``params.input_tokens`` per step; another raises ValueError. Returns
    ``out`` (params' shapes, unchecked) with the parameter gradients written over
    it (its old contents are never read). Gradients are exact (no truncation);
    each sums its steps last to first, as a step-by-step accumulation would.
    The temporaries live in the cell's `BackwardScratch`: a call copies its
    inputs in and runs the steps over row views made with the scratch.
    """
    n = params.hidden_dim
    steps = len(record.tokens)
    if output_grads.shape != (steps, n):
        raise ValueError(f"need one output gradient of size {n} per recorded step")
    token_list = record.tokens.tolist()  # -1 is not in params.input_tokens
    if record.gates.shape != (steps, 4 * n) or record.h.shape != (steps + 1, n) or (
            not steps or token_list[0] != -1
            or len(params.input_tokens.intersection(token_list)) != steps - 1):
        raise ValueError("record does not match params dimensions or a rollout's tokens")

    scratch = params.backward_scratch
    if scratch is None or scratch.steps != steps:
        scratch = params.backward_scratch = BackwardScratch(steps, n)
    back = slice(None, None, -1)
    np.copyto(scratch.out_grads, output_grads[back])
    np.copyto(scratch.gates, record.gates[back])
    np.copyto(scratch.c_prev, record.c[:steps][back])
    np.copyto(scratch.tanh_c, record.tanh_c[back])
    np.subtract(_ONE, scratch.sigmoids, scratch.d_sig)  # 1 - a
    d_tanhs = scratch.d_tanhs
    np.multiply(scratch.tanhs, scratch.tanhs, d_tanhs)
    np.subtract(_ONE, d_tanhs, d_tanhs)  # 1 - g * g and 1 - tanh_c * tanh_c
    scratch.dh_dc_next.fill(0.0)
    dc_dc_dh, dc, dc_copy, dh = scratch.dc_dc_dh, scratch.dc, scratch.dc_copy, scratch.dh
    dh_next, dc_next = scratch.dh_next, scratch.dc_next
    gate_products = scratch.gate_products
    p_i, p_f, p_o, p_g = scratch.products
    u_blocks = params.u_blocks
    for (out_grad, i, f, o, ifo, d_tanh_c_t, d_sig_t, d_cand_t, first,
         d_pre_ifo, d_pre_g, d_pre_blocks) in scratch.rows:
        np.add(out_grad, dh_next, dh)
        np.multiply(dh, o, dc)
        dc *= d_tanh_c_t
        dc += dc_next
        np.copyto(dc_copy, dc)

        # gradient at the pre-activations, in the gate rows of w; a sigmoid
        # gate a takes ((x * y) * a) * (1 - a), multiplied in that order
        np.multiply(dc_dc_dh, first, d_pre_ifo)
        d_pre_ifo *= ifo
        d_pre_ifo *= d_sig_t
        np.multiply(dc, i, d_pre_g)
        d_pre_g *= d_cand_t

        # one gemv per gate, as four separate products round, added in the
        # order o, i, f, g: one fused u.T @ d_pre sums in another order and
        # rounds differently
        np.matmul(u_blocks, d_pre_blocks, gate_products)
        np.add(p_o, p_i, dh_next)
        dh_next += p_f
        dh_next += p_g
        np.multiply(dc, f, dc_next)

    d_pre_rows = scratch.d_pre_rows
    ordered_outer_sum(d_pre_rows, record.h[:steps][::-1], out=out.u)
    ordered_row_sum(d_pre_rows, out=out.b)
    columns = d_pre_rows[:steps - 1]  # steps steps-1 to 1, each with its own token
    columns += _ZERO  # 0 + d, as a loop's first add gives (-0.0 becomes 0.0)
    out.w.fill(0.0)
    out.w.T[record.tokens[:0:-1]] = columns
    return out


def softmax_probs(scores: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Turn the logits in ``scores`` into their softmax, in place, and
    return ``scores``.

    Numerically stable: the max is subtracted before the exp. The max and
    then the sum are written into the 0-d float array ``scratch``. Empty
    logits raise ValueError, as their max has no value.
    """
    np.maximum.reduce(scores, None, None, scratch)
    np.subtract(scores, scratch, scores)
    np.exp(scores, scores)
    np.add.reduce(scores, None, None, scratch)
    np.divide(scores, scratch, scores)
    return scores


def softmax_sample(scores: np.ndarray, u: float, scratch: np.ndarray) -> int:
    """Turn the logits in ``scores`` into their softmax with
    `softmax_probs`, in place, and pick an index with the uniform draw ``u``.

    Inverse CDF: the index is the first position whose cumulative
    probability exceeds ``u``, capped at the last one (the sums can round
    below 1). With two entries that is ``u >= p0``, since the second sum
    p0 + p1 is never below p0. With more, the sums are added left to right
    in a Python float, the bits of a float64 ``cumsum``, so the index is
    ``min(cumsum.searchsorted(u, side="right"), len - 1)``.
    """
    softmax_probs(scores, scratch)
    if len(scores) == 2:
        return 1 if u >= scores[0] else 0
    total = 0.0
    for index, p in enumerate(scores.tolist()):
        total += p
        if not total <= u:  # also at nan, which searchsorted sorts last
            return index
    return len(scores) - 1


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
        # nan fails every comparison, so each check also refuses it
        if not (math.isfinite(self.lr) and self.lr > 0.0):
            raise ValueError(f"learning rate must be finite and positive, got {self.lr}")
        if not 0.0 <= self.beta1 < 1.0 or not 0.0 <= self.beta2 < 1.0:
            raise ValueError("decay rates must lie in [0, 1)")
        if not self.eps > 0.0:
            raise ValueError(f"eps must be > 0, got {self.eps}")
        if type(self.t) is not int or self.t < 0:
            raise ValueError(f"timestep must be an int >= 0, got {self.t!r}")

    @classmethod
    def for_params(cls, params: ParamBuffer, lr: float, **kw) -> "AdamState":
        return cls(lr=lr, m=params.like(), v=params.like(), **kw)


def adam_step(params: ParamBuffer, grads: ParamBuffer, state: AdamState) -> None:
    """One bias-corrected ADAM step, in place, over the whole flat buffer.

    Gradient ascent: callers pass reward gradients of params' layout
    (unchecked) and the update is added, so params move toward higher reward.
    """
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


def clip_by_global_norm(flat: np.ndarray, *, blocks: tuple[np.ndarray, ...],
                        max_norm: float) -> float:
    """Scale the gradient ``flat`` in place so its global norm is at most max_norm.

    ``blocks`` are views of ``flat`` that partition it. The norm adds one
    float sum of fresh squares per block, in block order, so the blocks and
    their order fix its rounding; each sum is the reduction ``.sum()``
    runs, called without its Python wrapper. Returns the norm before
    clipping. ``blocks`` and ``max_norm`` are keyword-only, so that no
    call can pass one for the other.
    """
    total = 0.0
    for block in blocks:
        total += float(np.add.reduce(np.multiply(block, block), None))
    norm = math.sqrt(total)
    if norm > max_norm > 0.0:
        flat *= max_norm / norm
    return norm
