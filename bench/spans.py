"""Wrappers around archsearch's public functions, installed from outside.

A wrapper replaces a function by identity in every loaded archsearch module,
so names bound with ``from .x import f`` are wrapped too; a method is
replaced on its class. Nothing under src/ is edited. The untraced run uses
only `LoopClock` (two timestamps per process); the traced run uses
`Recorder`, which times every call of the functions in `SPANS`.

Spans are aggregated per name while the run goes (total time of every call;
calls, inclusive and self time of the calls inside the loop); no per-call
record is kept.

All times come from CLOCK_MONOTONIC, which on Linux is shared by every
process, so a child's timestamps compare with its parent's.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter
from dataclasses import dataclass

now_ns = time.monotonic_ns

# (layer metric name, module, attribute). A dotted attribute is a method.
SPANS = (
    ("controller.sample_sequence", "archsearch.controller", "sample_sequence"),
    ("controller.policy_gradients", "archsearch.controller", "policy_gradients"),
    ("controller.reinforce_update_batch", "archsearch.controller", "reinforce_update_batch"),
    ("controller.create_controller", "archsearch.controller", "create_controller"),
    ("controller.save_checkpoint", "archsearch.controller", "save_checkpoint"),
    ("controller.load_checkpoint", "archsearch.controller", "load_checkpoint"),
    ("nn_core.lstm_forward", "archsearch.nn_core", "lstm_forward"),
    ("nn_core.lstm_backward", "archsearch.nn_core", "lstm_backward"),
    ("nn_core.softmax_sample", "archsearch.nn_core", "softmax_sample"),
    ("nn_core.adam_step", "archsearch.nn_core", "adam_step"),
    ("nn_core.clip_by_global_norm", "archsearch.nn_core", "clip_by_global_norm"),
    ("search_space.decode", "archsearch.search_space", "decode"),
    ("search_space.one_hot_input", "archsearch.search_space", "one_hot_input"),
    ("evaluators.surrogate.evaluate", "archsearch.evaluators", "SurrogateEvaluator.evaluate"),
    ("evaluators.lookup.evaluate", "archsearch.evaluators", "LookupEvaluator.evaluate"),
    ("cost_model.macro_mac", "archsearch.cost_model", "macro_mac"),
    ("rewards.compute_reward", "archsearch.rewards", "compute_reward"),
    ("pareto.insert", "archsearch.pareto", "ParetoFront.insert"),
    ("engine.compute_stats", "archsearch.engine", "compute_stats"),
    ("engine.make_evaluator", "archsearch.engine", "make_evaluator"),
)

# Every engine function whose name starts with this is an artifact emitter;
# all of them share the span name "engine.emit".
EMITTER_PREFIX = "write_"

# The first call of any of these inside the top-level call starts the loop:
# every workload samples, decodes or evaluates at the start of an iteration.
MARKERS = ("controller.sample_sequence", "search_space.decode",
           "evaluators.surrogate.evaluate", "evaluators.lookup.evaluate")

# The engine function each timed subcommand spends its loop in.
TOP = {"search": "run_search", "random": "run_random", "sample": "sample_trained_controller"}

# Functions reported per call and as a share of loop time.
LOOP_FUNCTIONS = (
    "controller.sample_sequence", "controller.policy_gradients",
    "controller.reinforce_update_batch",
    "nn_core.lstm_forward", "nn_core.lstm_backward", "nn_core.softmax_sample",
    "nn_core.adam_step", "nn_core.clip_by_global_norm",
    "search_space.decode", "search_space.one_hot_input",
    "evaluators.surrogate.evaluate", "evaluators.lookup.evaluate",
    "cost_model.macro_mac", "rewards.compute_reward", "pareto.insert",
    "engine.compute_stats",
)
LAYERS = ("controller", "nn_core", "search_space", "evaluators", "cost_model",
          "rewards", "pareto", "engine")


def _archsearch_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "archsearch" or name.startswith("archsearch."))]


class Patches:
    """Replaced attributes, so they can all be put back."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def replace(self, module: str, attr: str, make_wrapper) -> bool:
        """Wrap `module.attr` everywhere it is bound; False if it does not exist."""
        owner: object = importlib.import_module(module)
        name = attr
        if "." in attr:
            cls_name, name = attr.split(".")
            owner = getattr(owner, cls_name, None)
        original = getattr(owner, name, None) if owner is not None else None
        if original is None:
            return False
        wrapper = make_wrapper(original)
        if isinstance(owner, type):
            sites = [(owner, name)]
        else:
            sites = [(m, key) for m in _archsearch_modules()
                     for key, value in list(vars(m).items()) if value is original]
        for site, key in sites:
            setattr(site, key, wrapper)
            self._undo.append((site, key, original))
        return True

    def undo(self) -> None:
        for site, key, original in reversed(self._undo):
            setattr(site, key, original)
        self._undo.clear()


class LoopClock:
    """Untraced timing: when the first iteration starts and the loop returns."""

    def __init__(self, command: str) -> None:
        self.top_start: int | None = None
        self.first_ns: int | None = None
        self.end_ns: int | None = None
        self._markers = Patches()
        self._top = Patches()
        module_of = {name: (module, attr) for name, module, attr in SPANS}
        for name in MARKERS:
            self._markers.replace(*module_of[name], self._marker)
        if not self._top.replace("archsearch.engine", TOP[command], self._wrap_top):
            raise RuntimeError(f"archsearch.engine has no {TOP[command]}")

    def _marker(self, fn):
        def marker(*args, **kwargs):
            if self.first_ns is None and self.top_start is not None:
                self.first_ns = now_ns()
                self._markers.undo()  # the rest of the loop runs unwrapped
            return fn(*args, **kwargs)
        return marker

    def _wrap_top(self, fn):
        def top(*args, **kwargs):
            self.top_start = now_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                self.end_ns = now_ns()
        return top

    def undo(self) -> None:
        self._markers.undo()
        self._top.undo()


@dataclass
class Stat:
    total_ns: int = 0     # every call
    loop_calls: int = 0   # calls made inside the loop, and their times
    loop_total_ns: int = 0
    loop_self_ns: int = 0


class Recorder:
    """Traced timing: a span around every call of each function in SPANS."""

    def __init__(self, command: str) -> None:
        self.stats: dict[str, Stat] = {}
        self.counts: Counter[str] = Counter()
        self.front = None
        self.top_start: int | None = None
        self.loop_start: int | None = None
        self.loop_end: int | None = None
        self.pre_top_ns = 0      # wrapped time spent before the top-level call
        self.loop_covered_ns = 0  # loop time spent inside the top call's child spans
        self._root_ns = 0
        self._stack: list[list] = []  # frames: [name, child_ns]
        self._patches = Patches()
        after = {"evaluators.surrogate.evaluate": self._after_surrogate,
                 "nn_core.clip_by_global_norm": self._after_clip,
                 "pareto.insert": self._after_insert}
        for name, module, attr in SPANS:
            self._patches.replace(module, attr, lambda fn, name=name: self._span(
                name, fn, marker=name in MARKERS, after=after.get(name)))
        engine = importlib.import_module("archsearch.engine")
        for attr in sorted(vars(engine)):
            if attr.startswith(EMITTER_PREFIX) and callable(getattr(engine, attr)):
                self._patches.replace("archsearch.engine", attr,
                                      lambda fn: self._span("engine.emit", fn))
        if not self._patches.replace("archsearch.engine", TOP[command],
                                     lambda fn: self._span("engine.top", fn, top=True)):
            raise RuntimeError(f"archsearch.engine has no {TOP[command]}")

    def _span(self, name: str, fn, marker: bool = False, top: bool = False, after=None):
        stat = self.stats.setdefault(name, Stat())
        stack = self._stack

        def span(*args, **kwargs):
            t0 = now_ns()
            if top:
                self.top_start = t0
                self.pre_top_ns = self._root_ns
            elif marker and self.loop_start is None and self.top_start is not None:
                self.loop_start = t0
            parent = stack[-1] if stack else None
            frame = [name, 0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = now_ns()
                stack.pop()
                elapsed = t1 - t0
                stat.total_ns += elapsed
                in_loop = self.loop_start is not None and self.loop_end is None and not top
                if in_loop:
                    stat.loop_calls += 1
                    stat.loop_total_ns += elapsed
                    stat.loop_self_ns += elapsed - frame[1]
                if parent is None:
                    self._root_ns += elapsed
                else:
                    parent[1] += elapsed
                    if in_loop and parent[0] == "engine.top":
                        self.loop_covered_ns += elapsed
                if top:
                    self.loop_end = t1
            if after is not None:
                after(args, kwargs, result, parent)
            return result
        return span

    def _after_surrogate(self, args, kwargs, result, parent) -> None:
        if parent is not None and parent[0] == "evaluators.lookup.evaluate":
            self.counts["lookup_fallbacks"] += 1

    def _after_clip(self, args, kwargs, result, parent) -> None:
        max_norm = args[1] if len(args) > 1 else kwargs.get("max_norm")
        self.counts["clip_calls"] += 1
        if max_norm is not None and result > max_norm > 0.0:
            self.counts["clip_clipped"] += 1

    def _after_insert(self, args, kwargs, result, parent) -> None:
        self.counts[f"insert.{result}"] += 1
        self.front = args[0]

    def undo(self) -> None:
        self._patches.undo()

    def _stat(self, name: str) -> Stat:
        return self.stats.get(name, Stat())  # a function never called has no entry

    def metrics(self, iterations: int, main_start: int, emit_bytes: int,
                checkpoint_bytes: int) -> dict[str, float]:
        """Per-layer metrics of this one traced process."""
        if self.loop_start is None or self.loop_end is None:
            raise RuntimeError("the traced run never entered its loop")
        loop_ns = self.loop_end - self.loop_start
        stat = self._stat
        out: dict[str, float] = {}
        for name in LOOP_FUNCTIONS:
            s = stat(name)
            out[f"{name}.us_per_call"] = s.loop_total_ns / s.loop_calls / 1e3 if s.loop_calls else 0.0
            out[f"{name}.calls_per_iter"] = s.loop_calls / iterations
            out[f"{name}.self_share"] = s.loop_self_ns / loop_ns
        s = stat("controller.reinforce_update_batch")
        out["controller.reinforce_update_batch.self_us_per_call"] = (
            s.loop_self_ns / s.loop_calls / 1e3 if s.loop_calls else 0.0)

        loop_self_ns = loop_ns - self.loop_covered_ns
        for layer in LAYERS:
            busy = sum(s.loop_self_ns for name, s in self.stats.items()
                       if name.startswith(layer + ".") and name in LOOP_FUNCTIONS)
            if layer == "engine":
                busy += loop_self_ns
            out[f"layer.{layer}.share"] = busy / loop_ns
        out["engine.loop_self_us"] = loop_self_ns / iterations / 1e3

        lookups = stat("evaluators.lookup.evaluate").loop_calls
        hits = lookups - self.counts["lookup_fallbacks"]
        out["evaluators.lookup.lookups"] = lookups
        out["evaluators.lookup.hits"] = hits
        out["evaluators.lookup.hit_ratio"] = hits / lookups if lookups else 0.0
        updates = self.counts["clip_calls"]
        out["nn_core.clip.updates"] = updates
        out["nn_core.clip.clipped_ratio"] = self.counts["clip_clipped"] / updates if updates else 0.0
        out["pareto.front_size"] = len(self.front) if self.front is not None else 0
        for outcome in ("added", "dominated", "tie-replaced"):
            out[f"pareto.insert.{outcome.replace('-', '_')}"] = self.counts[f"insert.{outcome}"]

        out["engine.emit_ms"] = stat("engine.emit").total_ns / 1e6
        out["engine.emit_bytes"] = emit_bytes
        out["controller.save_checkpoint_ms"] = stat("controller.save_checkpoint").total_ns / 1e6
        out["controller.checkpoint_bytes"] = checkpoint_bytes
        out["controller.load_checkpoint_ms"] = stat("controller.load_checkpoint").total_ns / 1e6
        out["controller.create_controller_ms"] = stat("controller.create_controller").total_ns / 1e6
        out["engine.make_evaluator_ms"] = stat("engine.make_evaluator").total_ns / 1e6
        out["cli.config_parse_ms"] = (self.top_start - main_start - self.pre_top_ns) / 1e6
        out["trace.iterations"] = iterations
        out["trace.iter_ms"] = loop_ns / iterations / 1e6
        return out
