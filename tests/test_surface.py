"""The library's surface: every function in `src/tseitinkit` has a caller
among the pipeline, the CLI, the checkers, the scripts or the benchmark.

Code that only the tests call belongs in the tests (`tests/lemmas.py`).
`oracles.py` is the brute-force layer and is exempt; so are dunders.  A
name counts as called when it appears as a name, an attribute or an
imported name anywhere in `src/` outside its own definition and the
package's `__init__`, or in `scripts/` or `perfbench/`.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "tseitinkit"


def _names(tree: ast.AST) -> Counter:
    out: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


def _trees(paths):
    return {path: ast.parse(path.read_text(), filename=str(path)) for path in paths}


def test_every_library_function_has_a_caller():
    library = _trees(path for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py")
    callers = _trees(sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py")))
    named = sum((_names(tree) for tree in (*library.values(), *callers.values())), Counter())
    orphans = []
    for path, tree in library.items():
        if path.name == "oracles.py":
            continue
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            if named[node.name] - _names(node)[node.name] <= 0:
                orphans.append(f"{path.name}:{node.lineno} {node.name}")
    assert not orphans, "functions only the tests call:\n" + "\n".join(orphans)
