"""Independent reference implementations used as test oracles.

Everything here is deliberately written straight-line (scalar loops, no
shared code with the package) so the tests compare two separate routes to
the same answer. The architecture forms at the end build the package's
architecture records, whose constructors check them, and nothing else of it.
"""

from __future__ import annotations

import dis
import hashlib
import math
import sys
from types import CodeType

import numpy as np

from archsearch.search_space import AlexNetArch, CondenseNetArch, MacroArch


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


def sigmoid_reference(x):
    """The logistic sigmoid through fresh arrays: exp of -|x|, then
    1/(1+e) where x >= 0 and e/(1+e) below."""
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    return np.where(x >= 0, 1.0 / d, e / d)


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


def sequential_outer_sum(a, b) -> np.ndarray:
    """sum_t outer(a[t], b[t]) in plain Python floats, t in order from 0.0.

    Each product is rounded, then added to its running sum, which starts
    at +0.0: the loop ``out = 0; for t: out += np.outer(a[t], b[t])``.
    """
    rows = np.shape(a)[1]
    cols = np.shape(b)[1]
    acc = [[0.0] * cols for _ in range(rows)]
    for t in range(len(a)):
        for i in range(rows):
            for j in range(cols):
                acc[i][j] = acc[i][j] + float(a[t][i]) * float(b[t][j])
    return np.array(acc, dtype=float).reshape(rows, cols)


def stepwise_lstm_backward(params, record, output_grads) -> dict[str, np.ndarray]:
    """BPTT one step at a time, each step's gradients added as it is reached.

    The recurrence of `nn_core.lstm_backward` with fresh arrays for every
    temporary, and ``w``, ``u`` and ``b`` accumulated step by step from the
    last step to the first, so the whole-rollout sums must agree with it
    byte for byte.
    """
    n = params.hidden_dim
    grads = {"lstm.w": np.zeros_like(params.w), "lstm.u": np.zeros_like(params.u),
             "lstm.b": np.zeros_like(params.b)}
    u_i, u_f, u_o, u_g = (params.gate(gate)[1].T for gate in "ifog")
    dh_next = np.zeros(n)
    dc_next = np.zeros(n)
    for t in range(len(record.tokens) - 1, -1, -1):
        gates, tanh_c = record.gates[t], record.tanh_c[t]
        i, f, o, g = gates[:n], gates[n:2 * n], gates[2 * n:3 * n], gates[3 * n:]
        dh = output_grads[t] + dh_next
        dc = dc_next + dh * o * (1.0 - tanh_c * tanh_c)
        d_i = dc * g * i * (1.0 - i)
        d_f = dc * record.c[t] * f * (1.0 - f)
        d_o = dh * tanh_c * o * (1.0 - o)
        d_g = dc * i * (1.0 - g * g)
        d_pre = np.concatenate([d_i, d_f, d_o, d_g])
        if record.tokens[t] >= 0:
            grads["lstm.w"][:, record.tokens[t]] += d_pre
        grads["lstm.u"] += np.outer(d_pre, record.h[t])
        grads["lstm.b"] += d_pre
        dh_next = u_o @ d_o
        dh_next += u_i @ d_i
        dh_next += u_f @ d_f
        dh_next += u_g @ d_g
        dc_next = dc * f
    return grads


def softmax_reference(logits):
    """The softmax through numpy's module-level functions, the max
    subtracted before the exp: the formula of `nn_core.softmax_probs`."""
    shifted = logits - np.max(logits)
    exps = np.exp(shifted)
    return exps / np.sum(exps)


def softmax_sample_reference(logits, rng):
    """Inverse-CDF softmax sampling through numpy's module-level functions.

    The formula `nn_core.softmax_sample` computes with ndarray methods:
    returns (index, probs).
    """
    probs = softmax_reference(logits)
    u = rng.random()
    index = int(np.searchsorted(np.cumsum(probs), u, side="right"))
    index = min(index, len(probs) - 1)
    return index, probs


def global_norm_reference(blocks) -> float:
    """L2 norm over all entries of the blocks of a mapping, one float sum of
    fresh squares per block, the sums added in block order."""
    total = 0.0
    for g in blocks.values():
        total += float((g * g).sum())
    return float(np.sqrt(total))


def lstm_step_reference(params, token, h_prev, c_prev):
    """One LSTM step through fresh arrays, the gates' pre-activations added
    as u @ h, then the token's column of w, then b: (gates, c, tanh_c, h)."""
    n = params.hidden_dim
    pre = params.u @ h_prev
    if token is not None:
        pre = pre + params.w[:, token]
    pre = pre + params.b
    gates = np.concatenate([sigmoid_reference(pre[:3 * n]), np.tanh(pre[3 * n:])])
    i, f, o, g = gates[:n], gates[n:2 * n], gates[2 * n:3 * n], gates[3 * n:]
    c = f * c_prev + i * g
    tanh_c = np.tanh(c)
    return gates, c, tanh_c, o * tanh_c


def sample_reference(state, rng):
    """A rollout of the controller ``state`` drawn step by step from ``rng``:
    per step an LSTM step, the head's logits ``w @ h + b`` and one scalar
    draw through `softmax_sample_reference`; the next input is the previous
    slot's vocabulary offset plus its action. Returns (actions, record),
    the record a dict of per-step lists: tokens, gates, c, tanh_c, h, probs.
    """
    n = state.hidden_dim
    h, c = np.zeros(n), np.zeros(n)
    token = None
    actions = []
    record = {key: [] for key in ("tokens", "gates", "c", "tanh_c", "h", "probs")}
    for slot, offset in zip(state.space.slots, state.space.vocab_offsets):
        gates, c, tanh_c, h = lstm_step_reference(state.lstm, token, h, c)
        logits = state.params[f"head.{slot.head}.w"] @ h + state.params[f"head.{slot.head}.b"]
        action, probs = softmax_sample_reference(logits, rng)
        record["tokens"].append(-1 if token is None else token)
        for key, value in zip(("gates", "c", "tanh_c", "h", "probs"),
                              (gates, c, tanh_c, h, probs)):
            record[key].append(value)
        actions.append(action)
        token = offset + action
    return tuple(actions), record


def log_prob_reference(state, actions):
    """Teacher forcing: the log-probability of fixed ``actions`` under the
    controller ``state``, log p[action] added step by step from 0.0.

    Each step is a step of `sample_reference` with the given action in
    place of a draw: an LSTM step, the head's logits ``w @ h + b`` and
    their softmax. A sequence of the wrong length, or with an action
    outside its slot's candidates, raises ValueError. No random number is
    drawn and the parameters are only read.
    """
    slots = state.space.slots
    if len(actions) != len(slots):
        raise ValueError(f"sequence has {len(actions)} actions, space has {len(slots)} slots")
    for t, (slot, action) in enumerate(zip(slots, actions)):
        if not 0 <= action < len(slot.candidates):
            raise ValueError(f"action {action} out of range for slot {t} ({slot.name})")
    n = state.hidden_dim
    h, c = np.zeros(n), np.zeros(n)
    token = None
    total = 0.0
    for slot, offset, action in zip(slots, state.space.vocab_offsets, actions):
        _, c, _, h = lstm_step_reference(state.lstm, token, h, c)
        logits = state.params[f"head.{slot.head}.w"] @ h + state.params[f"head.{slot.head}.b"]
        probs = softmax_reference(logits)
        total += float(np.log(probs[action]))
        token = offset + action
    return total


def dominates(a, b):
    """True iff a is no worse than b in both objectives and better in one."""
    return (a.accuracy >= b.accuracy and a.energy <= b.energy
            and (a.accuracy > b.accuracy or a.energy < b.energy))


def brute_force_front(points):
    """O(n^2) non-dominated filter; duplicates keep the smallest iteration."""
    kept = []
    for p in points:
        if any(dominates(q, p) for q in points):
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


def linear_front_insert(points, p):
    """Insert p into a front held as a list, by a full scan and a re-sort.

    The scan-every-point front update, kept as the reference for the
    bisected one: mutates ``points`` in place and returns the outcome,
    "added", "dominated" or "tie-replaced".
    """
    survivors = []
    twin = None
    for q in points:
        if dominates(q, p):
            return "dominated"
        if q.accuracy == p.accuracy and q.energy == p.energy:
            twin = q
        if not dominates(p, q):
            survivors.append(q)

    if twin is not None:
        if p.iteration < twin.iteration:
            survivors = [q for q in survivors if q is not twin]
            survivors.append(p)
            survivors.sort(key=lambda q: (q.energy, q.accuracy))
            points[:] = survivors
            return "tie-replaced"
        return "dominated"

    survivors.append(p)
    survivors.sort(key=lambda q: (q.energy, q.accuracy))
    points[:] = survivors
    return "added"


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


def formula_mac(op, layer, channels, input_size):
    """The cost model's formulas, written out for one macro layer."""
    size = input_size // 2 ** (layer // 4)
    c_in = 3 if layer == 0 else channels
    if op.startswith("conv"):
        k = int(op[4])
        return k * k * c_in * size * size * channels
    if op.startswith("sep_conv"):
        k = int(op[8])
        return c_in * size * size * (k * k + channels)
    return 0


def macro_capacities_reference(arch):
    """(normalized MAC, largest per-layer share, normalized MAC) of a macro
    architecture at the surrogate's geometry (32 channels, 32x32 input): the
    layers' MACs over the all-most-expensive-op total, and each layer's MACs
    over its layer's most expensive op."""
    macs = [formula_mac(op, layer, 32, 32) for layer, op in enumerate(arch.ops)]
    layer_max = [max(formula_mac(op, layer, 32, 32) for op in
                     ("conv3x3", "conv5x5", "sep_conv3x3", "sep_conv5x5", "avg_pool", "max_pool"))
                 for layer in range(len(macs))]
    normalized = sum(macs) / sum(layer_max)
    return normalized, max([mac / top for mac, top in zip(macs, layer_max)]), normalized


def noise_reference(seed, arch, sigma):
    """The surrogate's accuracy noise of one architecture, drawn alone: a
    normal(0, sigma) draw of a PCG64 seeded with the first 8 bytes,
    big-endian, of sha256 over "seed|compact token"."""
    if sigma == 0.0:
        return 0.0
    digest = hashlib.sha256(f"{seed}|{compact_reference(arch)}".encode()).digest()
    rng = np.random.Generator(np.random.PCG64(int.from_bytes(digest[:8], "big")))
    return float(rng.normal(0.0, sigma))


def surrogate_reference(config, arch):
    """(accuracy, energy, peak power, normalized MAC) of the analytic landscape
    with the constants of ``config``: accuracy saturates in the weighted
    capacity, plus the noise, clamped to [0, 1]; energy and peak power are
    linear in the capacity and in the largest per-unit capacity."""
    if isinstance(arch, AlexNetArch):
        sizes = [flt * h * w for flt, h, w in arch.layers]
        capacity, peak, mac = float(sum(sizes)), float(max(sizes)), None
    elif isinstance(arch, CondenseNetArch):
        sizes = [s * g for s, g in zip(arch.stages, arch.growths)]
        capacity, peak, mac = float(sum(sizes)), float(max(sizes)), None
    else:
        capacity, peak, mac = macro_capacities_reference(arch)
    capacity *= config.capacity_weight
    accuracy = config.a_max * (1.0 - math.exp(-capacity / config.kappa))
    accuracy += noise_reference(config.seed, arch, config.sigma)
    return (min(max(accuracy, 0.0), 1.0), config.e0 + config.e1 * capacity,
            config.p0 + config.p1 * peak, mac)


# ---------------------------------------------------------------------------
# Architecture forms the package has only one direction of. Skip inputs are
# 1-based in the text and dict forms, as the package writes and reads them.


def encode(space, arch) -> tuple[int, ...]:
    """The actions that `decode` maps to ``arch``: per slot, the index of the
    value the architecture holds there (ValueError if it is no candidate)."""
    if space.kind == "alexnet":
        values = [v for layer in arch.layers for v in layer]
    elif space.kind == "condensenet":
        values = list(arch.stages) + list(arch.growths)
    else:
        values = []
        for layer, op in enumerate(arch.ops):
            values.append(op)
            for src in range(layer):
                values.append(1 if src in arch.skips[layer] else 0)
    return tuple(slot.candidates.index(v) for slot, v in zip(space.slots, values))


def arch_to_text(arch) -> str:
    """The key-value architecture file that `arch_from_text` reads."""
    lines = []
    if isinstance(arch, AlexNetArch):
        lines.append("kind = alexnet")
        for n, (filters, height, width) in enumerate(arch.layers, start=1):
            lines.append(f"conv{n}.filters = {filters}")
            lines.append(f"conv{n}.height = {height}")
            lines.append(f"conv{n}.width = {width}")
    elif isinstance(arch, CondenseNetArch):
        lines.append("kind = condensenet")
        for n in range(3):
            lines.append(f"block{n + 1}.stage = {arch.stages[n]}")
            lines.append(f"block{n + 1}.growth = {arch.growths[n]}")
    else:
        lines.append("kind = macro")
        for n, (op, skips) in enumerate(zip(arch.ops, arch.skips), start=1):
            lines.append(f"layer{n}.op = {op}")
            refs = " ".join(str(s + 1) for s in skips)
            lines.append(f"layer{n}.skips = {refs}".rstrip())
    return "\n".join(lines) + "\n"


def arch_from_dict(data: dict):
    """The architecture of an `arch_to_dict` record, as summary.json holds it."""
    if data["kind"] == "alexnet":
        return AlexNetArch(layers=tuple(tuple(layer) for layer in data["layers"]))
    if data["kind"] == "condensenet":
        return CondenseNetArch(stages=tuple(data["stages"]), growths=tuple(data["growths"]))
    return MacroArch(ops=tuple(data["ops"]),
                     skips=tuple(tuple(s - 1 for s in refs) for refs in data["skips"]))


def read_front_csv(path) -> list[tuple[float, float, str]]:
    """(accuracy, energy, compact arch token) of each row of a front file."""
    with open(path) as f:
        lines = f.read().splitlines()
    assert lines[0] == "energy,accuracy,arch", lines[0]
    rows = []
    for line in lines[1:]:
        energy, accuracy, token = line.split(",")
        rows.append((float(accuracy), float(energy), token))
    return rows


def decode_reference(space, actions):
    """`decode` as a slot-by-slot walk: each action picks its slot's candidate,
    and a macro layer's skip slots wire in the earlier layers whose value is 1."""
    if len(actions) != len(space.slots):
        raise ValueError(
            f"sequence has {len(actions)} actions, space has {len(space.slots)} slots")
    chosen = []
    for t, (slot, a) in enumerate(zip(space.slots, actions)):
        if not 0 <= a < len(slot.candidates):
            raise ValueError(f"action {a} out of range for slot {t} ({slot.name})")
        chosen.append(slot.candidates[a])
    if space.kind == "alexnet":
        return AlexNetArch(layers=(tuple(chosen[0:3]), tuple(chosen[3:6])))
    if space.kind == "condensenet":
        return CondenseNetArch(stages=tuple(chosen[0:3]), growths=tuple(chosen[3:6]))
    ops = []
    skips = []
    pos = 0
    for layer in range(12):
        ops.append(chosen[pos])
        pos += 1
        wired = []
        for src in range(layer):
            if chosen[pos + src] == 1:
                wired.append(src)
        pos += layer
        skips.append(tuple(wired))
    return MacroArch(ops=tuple(ops), skips=tuple(skips))


def compact_reference(arch) -> str:
    """`arch_to_compact` part by part, skip references counted from 1."""
    if isinstance(arch, AlexNetArch):
        return "+".join(f"{flt}x{h}x{w}" for flt, h, w in arch.layers)
    if isinstance(arch, CondenseNetArch):
        return ("st" + ".".join(str(s) for s in arch.stages)
                + "+gr" + ".".join(str(g) for g in arch.growths))
    parts = []
    for op, sk in zip(arch.ops, arch.skips):
        if sk:
            parts.append(op + "[" + ".".join(str(s + 1) for s in sk) + "]")
        else:
            parts.append(op)
    return "+".join(parts)


def macro_arch_refusal(ops, skips):
    """The exception `MacroArch(ops, skips)` must raise, by its checks in
    order, or None if it must accept them."""
    try:
        if len(ops) != 12 or len(skips) != 12:
            raise ValueError("macro arch needs 12 layers")
        for i, op in enumerate(ops):
            if op not in ("conv3x3", "conv5x5", "sep_conv3x3", "sep_conv5x5",
                          "avg_pool", "max_pool"):
                raise ValueError(f"layer {i} has unknown op {op!r}")
        for i, sk in enumerate(skips):
            if any(type(j) is not int for j in sk):
                raise ValueError(f"layer {i} skip inputs must be integers, got {sk!r}")
            if any(j < 0 or j >= i for j in sk):
                raise ValueError(f"layer {i} skip inputs must come from layers 0..{i - 1}")
            if tuple(sorted(set(sk))) != sk:
                raise ValueError(f"layer {i} skip inputs must be sorted and distinct")
    except (TypeError, ValueError) as exc:
        return exc
    return None
