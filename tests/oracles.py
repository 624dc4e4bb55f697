"""Independent reference implementations used as test oracles.

Everything here is deliberately written straight-line (scalar loops, no
shared code with the package) so the tests compare two separate routes to
the same answer.
"""

from __future__ import annotations

import dis
import math
import sys
from types import CodeType

import numpy as np


def scalar_lstm_step(params, x, h_prev, c_prev):
    """One LSTM step computed scalar by scalar with math.* only.

    ``x`` is a dense input vector: the one-hot row of a token, or zeros.
    """
    n = params.hidden_dim

    def gate(w, u, b, squash):
        out = []
        for r in range(n):
            acc = b[r]
            for j in range(len(x)):
                acc += w[r, j] * x[j]
            for j in range(n):
                acc += u[r, j] * h_prev[j]
            out.append(squash(acc))
        return out

    sig = lambda v: 1.0 / (1.0 + math.exp(-v))
    i = gate(*params.gate("i"), sig)
    f = gate(*params.gate("f"), sig)
    o = gate(*params.gate("o"), sig)
    g = gate(*params.gate("g"), math.tanh)
    c = [f[r] * c_prev[r] + i[r] * g[r] for r in range(n)]
    h = [o[r] * math.tanh(c[r]) for r in range(n)]
    return np.array(h), np.array(c)


def central_diff_grads(loss_fn, tensors: dict[str, np.ndarray],
                       eps: float = 1e-5) -> dict[str, np.ndarray]:
    """Central finite differences of loss_fn() w.r.t. every tensor entry.

    loss_fn takes no arguments and reads the (mutated in place) tensors.
    """
    grads = {}
    for name, arr in tensors.items():
        g = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            ix = it.multi_index
            orig = arr[ix]
            arr[ix] = orig + eps
            up = loss_fn()
            arr[ix] = orig - eps
            down = loss_fn()
            arr[ix] = orig
            g[ix] = (up - down) / (2.0 * eps)
        grads[name] = g
    return grads


def max_rel_error(analytic: dict[str, np.ndarray], numeric: dict[str, np.ndarray],
                  floor: float = 1e-5) -> float:
    """Worst relative error across tensors.

    Entries below ``floor`` in both routes are held to absolute agreement of
    rtol*floor instead: central differences of an objective of magnitude |f|
    carry ~|f|*1e-16/(2*eps) cancellation noise, which would swamp a pure
    ratio on near-zero gradients. Pick the floor so rtol*floor sits well
    above that noise (1e-5 for unit-scale objectives, 1e-3 for full
    controller rollouts where |f| is tens).
    """
    worst = 0.0
    for name in analytic:
        a = analytic[name]
        n = numeric[name]
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), floor)
        worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst


def adam_reference(theta0: float, grads: list[float], lr: float,
                   beta1: float = 0.9, beta2: float = 0.999,
                   eps: float = 1e-8) -> float:
    """Scalar ADAM ascent recurrence, step by step."""
    theta, m, v = theta0, 0.0, 0.0
    for t, g in enumerate(grads, start=1):
        m = beta1 * m + (1.0 - beta1) * g
        v = beta2 * v + (1.0 - beta2) * g * g
        m_hat = m / (1.0 - beta1 ** t)
        v_hat = v / (1.0 - beta2 ** t)
        theta += lr * m_hat / (math.sqrt(v_hat) + eps)
    return theta


def adam_step_reference(params, grads, state) -> None:
    """One ADAM ascent step on flat buffers, every temporary a fresh array.

    The same expression as `nn_core.adam_step`, written without ``out=``
    and scratch memory, so the two must agree byte for byte.
    """
    state.t += 1
    b1, b2 = state.beta1, state.beta2
    correct1 = 1.0 - b1 ** state.t
    correct2 = 1.0 - b2 ** state.t
    g, m, v = grads.flat, state.m.flat, state.v.flat
    m *= b1
    m += (1.0 - b1) * g
    v *= b2
    v += (1.0 - b2) * g * g
    params.flat += state.lr * (m / correct1) / (np.sqrt(v / correct2) + state.eps)


def softmax_sample_reference(logits, rng):
    """Inverse-CDF softmax sampling through numpy's module-level functions.

    The formula `nn_core.softmax_sample` computes with ndarray methods:
    returns (index, log prob of index, probs).
    """
    shifted = logits - np.max(logits)
    exps = np.exp(shifted)
    probs = exps / np.sum(exps)
    u = rng.random()
    index = int(np.searchsorted(np.cumsum(probs), u, side="right"))
    index = min(index, len(probs) - 1)
    return index, float(np.log(probs[index])), probs


def brute_force_front(points):
    """O(n^2) non-dominated filter; duplicates keep the smallest iteration."""
    def dominated(p, q):
        return (q.accuracy >= p.accuracy and q.energy <= p.energy
                and (q.accuracy > p.accuracy or q.energy < p.energy))

    kept = []
    for p in points:
        if any(dominated(p, q) for q in points):
            continue
        twin = [q for q in points
                if q.accuracy == p.accuracy and q.energy == p.energy]
        if min(t.iteration for t in twin) < p.iteration:
            continue
        if any(k.accuracy == p.accuracy and k.energy == p.energy for k in kept):
            continue
        kept.append(p)
    kept.sort(key=lambda q: (q.energy, q.accuracy))
    return kept


# Opcodes that never fire a ``line`` trace event: ``RESUME`` (3.11+) sits
# alone on a function's ``def`` line. Empty on 3.10, which has no RESUME.
_SILENT_OPS = {dis.opmap["RESUME"]} if "RESUME" in dis.opmap else set()


def executable_lines(code: CodeType) -> set[int]:
    """Lines of ``code`` that must fire a ``line`` trace event to have run.

    Every line holding an instruction counts, except one whose instructions
    are all ``RESUME``: that is the ``def`` line, which 3.11+ never reports.
    """
    ops: dict[int, set[int]] = {}
    for start, end, line in code.co_lines():
        if line is not None:
            ops.setdefault(line, set()).update(code.co_code[start:end:2])
    return {line for line, line_ops in ops.items() if not line_ops <= _SILENT_OPS}


def missed_lines(codes, run) -> dict[CodeType, set[int]]:
    """Call ``run()`` under a line tracer; per code object in ``codes``,
    return the executable lines that never ran (empty sets included).

    Any tracer already installed (a coverage tool, a debugger) is put back
    afterwards, also when ``run`` raises.
    """
    seen: dict[CodeType, set[int]] = {code: set() for code in codes}

    def tracer(frame, event, arg):
        if frame.f_code not in seen:
            return None
        if event == "line":
            seen[frame.f_code].add(frame.f_lineno)
        return tracer

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        run()
    finally:
        sys.settrace(previous)
    return {code: executable_lines(code) - lines for code, lines in seen.items()}
