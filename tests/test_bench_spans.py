"""The benchmark's span and marker names must name callables of archsearch,
and the names its output checks use must exist.

`bench/spans.py` wraps functions by module and attribute name. A renamed
or deleted kernel or marker would leave its span empty, and a missing
marker would stop every benchmark run with "the run never entered its
loop", while the rest of the suite still passes. `bench/checks.py` calls
archsearch's functions on every run's outputs, so a renamed one would fail
every benchmark run. This reads bench/ and edits nothing there.
"""

import ast
import importlib
import importlib.util
import math
import sys
from pathlib import Path

import pytest

from archsearch import controller as ctl
from archsearch import engine
from archsearch.rewards import RewardSpec
from archsearch.search_space import build_space

SPANS_FILE = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
CHECKS_FILE = SPANS_FILE.with_name("checks.py")
# wrapped by the benchmark though the function is gone: its metrics read 0
# until the benchmark drops it
STALE = {"search_space.one_hot_input"}


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_FILE)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def resolve(module: str, attr: str):
    """The object `spans.Patches.replace` would wrap, or None."""
    owner = importlib.import_module(module)
    for part in attr.split("."):  # a dotted attribute is a method of a class
        owner = getattr(owner, part, None)
    return owner


def test_every_span_and_marker_names_a_callable():
    spans = load_spans()
    targets = {name: (module, attr) for name, module, attr in spans.SPANS}
    assert set(spans.MARKERS) <= targets.keys()
    assert not STALE & set(spans.MARKERS)
    unresolved = {name for name, target in targets.items()
                  if not callable(resolve(*target))}
    assert unresolved <= STALE
    for name in spans.TOP.values():
        assert callable(resolve("archsearch.engine", name)), name


def test_every_archsearch_name_in_checks_resolves():
    """Each `from archsearch.<m> import <name>` and each `engine.<name>`."""
    tree = ast.parse(CHECKS_FILE.read_text())
    imported = [(node.module, alias.name) for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module
                and node.module.split(".")[0] == "archsearch" for alias in node.names]
    engine_names = {node.attr for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id == "engine"}
    assert ("archsearch", "engine") in imported and engine_names
    unresolved = []
    for module, name in imported:
        owner = importlib.import_module(module)
        # `from archsearch import engine` names a submodule
        if not hasattr(owner, name) and importlib.util.find_spec(f"{module}.{name}") is None:
            unresolved.append(f"{module}.{name}")
    engine = importlib.import_module("archsearch.engine")
    unresolved += [f"engine.{name}" for name in sorted(engine_names)
                   if not hasattr(engine, name)]
    assert not unresolved


def test_traced_clip_counts_read_max_norm_from_the_update():
    """The trace counts every clip and those whose norm exceeded max_norm,
    which it reads from the controller's call: five updates clipped at
    1e-9 are five clipped, five at inf none."""
    spans = load_spans()
    for clip_norm, clipped in ((1e-9, 5), (math.inf, 0)):
        state = ctl.create_controller(build_space("condensenet"), seed=4, clip_norm=clip_norm)
        recorder = spans.Recorder("search")
        try:
            for _ in range(5):
                _, rollout = ctl.sample_sequence(state)
                ctl.reinforce_update_batch(state, [rollout], [1.0])
        finally:
            recorder.undo()
        assert (recorder.counts["clip_calls"], recorder.counts["clip_clipped"]) == (5, clipped)


@pytest.mark.parametrize("command", ["search", "random", "sample"])
def test_loop_clock_starts_in_every_timed_loop(command):
    """The untimed benchmark run starts `iter_ms` at the first marker call
    inside the command's engine function; a loop that calls none fails every
    benchmark run with "the run never entered its loop"."""
    spans = load_spans()
    assert set(spans.TOP) == {"search", "random", "sample"}  # each one is a case here
    cfg = engine.RunConfig(space_kind="macro", n_iterations=3,
                           reward=RewardSpec(kind="mac_constraint", threshold=0.31))
    state = ctl.create_controller(build_space("macro"), seed=5)
    evaluator = engine.build_evaluator(cfg)
    original = getattr(engine, spans.TOP[command])
    clock = spans.LoopClock(command)
    try:
        if command == "search":
            engine.run_search(cfg, controller=state, evaluator=evaluator)
        elif command == "random":
            engine.run_random(cfg, evaluator=evaluator)
        else:
            engine.sample_trained_controller(state, evaluator, n=3)
    finally:
        clock.undo()
    assert getattr(engine, spans.TOP[command]) is original
    assert clock.first_ns is not None
    assert clock.top_start <= clock.first_ns <= clock.end_ns
