"""Rules about the source itself, checked on its syntax trees.

`src/archsearch` holds only what a program path calls: every module-level
function and class there is named somewhere else in the package or in the
benchmark, which drives the program. Code that only tests call belongs in
`tests/oracles.py`. The oracles in turn share no code with the package, so
that a test comparing the two compares two separate routes to one answer.
An architecture is built without its class's checks in one place only, the
macro table read, whose values are valid by construction. This reads bench/
and edits nothing there.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = sorted((ROOT / "src" / "archsearch").glob("*.py"))
BENCH = sorted((ROOT / "bench").glob("*.py"))
# the console-script entry point, called from outside the source
ENTRY_POINTS = {("cli", "main")}
# what oracles.py may build: the package's architecture records
ORACLE_IMPORTS = {"AlexNetArch", "CondenseNetArch", "MacroArch"}


def parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def referenced_names(tree, strings=False):
    """Every name, attribute and imported name in ``tree``; with ``strings``,
    also each dotted part of every string constant (the benchmark names the
    functions it wraps by string)."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(part for alias in node.names for part in alias.name.split("."))
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.update(node.value.split("."))
    return names


def test_every_source_definition_is_named_by_a_program_path():
    named = set()
    for path in SRC:
        named |= referenced_names(parse(path))
    for path in BENCH:
        named |= referenced_names(parse(path), strings=True)
    definitions = [(path.stem, node.name) for path in SRC for node in parse(path).body
                   if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
    assert definitions
    unnamed = [f"{module}.{name}" for module, name in definitions
               if name not in named and (module, name) not in ENTRY_POINTS]
    assert not unnamed, f"defined in src/ but called only from tests: {unnamed}"


def test_oracles_import_only_the_architecture_records():
    tree = parse(Path(__file__).with_name("oracles.py"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert not any(alias.name.split(".")[0] == "archsearch" for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("archsearch"):
            imported.update(alias.name for alias in node.names)
    assert imported == ORACLE_IMPORTS


def test_only_the_macro_table_read_builds_without_the_checks():
    unchecked = [(path.stem, node.name) for path in SRC for node in parse(path).body
                 for sub in ast.walk(node)
                 if isinstance(sub, ast.Attribute) and sub.attr == "__new__"
                 and isinstance(sub.value, ast.Name) and sub.value.id == "object"]
    assert unchecked == [("search_space", "_decode_block")]
