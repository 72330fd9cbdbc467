"""The library's surface: every function in `src/tseitinkit` has a caller
among the pipeline, the CLI, the checkers, the scripts or the benchmark.

Code that only the tests call belongs in the tests (`tests/lemmas.py`).
`oracles.py` is the brute-force layer and is exempt; so are dunders.  A
function counts as called when its name appears as a name, an attribute
or an imported name anywhere in `src/` outside its own definition and the
package's `__init__`, or in `scripts/` or `perfbench/`.  A method, a
function defined in a class body, counts as called only through an
attribute (`x.name`): a local variable of the same name does not call it.
A method that shares its name with another class's called method still
passes.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "tseitinkit"


def _names(tree: ast.AST) -> tuple[Counter, Counter]:
    """Bare and imported names, and attribute names, with their counts."""
    names: Counter = Counter()
    attributes: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            attributes[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names, attributes


def _trees(paths):
    return {path: ast.parse(path.read_text(), filename=str(path)) for path in paths}


def _methods(tree: ast.AST) -> set[ast.AST]:
    return {
        node
        for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
        for node in cls.body if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


def test_every_library_function_has_a_caller():
    library = _trees(path for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py")
    callers = _trees(sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py")))
    names, attributes = Counter(), Counter()
    for tree in (*library.values(), *callers.values()):
        found_names, found_attributes = _names(tree)
        names += found_names
        attributes += found_attributes
    orphans = []
    for path, tree in library.items():
        if path.name == "oracles.py":
            continue
        methods = _methods(tree)
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            own_names, own_attributes = _names(node)
            calls = attributes[node.name] - own_attributes[node.name]
            if node not in methods:
                calls += names[node.name] - own_names[node.name]
            if calls <= 0:
                orphans.append(f"{path.name}:{node.lineno} {node.name}")
    assert not orphans, "functions only the tests call:\n" + "\n".join(orphans)
