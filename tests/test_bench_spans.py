"""The benchmark's span and marker names must name callables of archsearch.

`bench/spans.py` wraps functions by module and attribute name. A renamed
or deleted kernel or marker would leave its span empty, and a missing
marker would stop every benchmark run with "the run never entered its
loop", while the rest of the suite still passes. This reads bench/ and
edits nothing there.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

SPANS_FILE = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
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
