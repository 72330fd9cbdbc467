"""The library's surface: every function in `src/tseitinkit` has a caller
among the pipeline, the CLI, the checkers, the scripts or the benchmark.

Code that only the tests call belongs in the tests (`tests/lemmas.py`).
`oracles.py` is the brute-force layer and is exempt; so are dunders.  A
function counts as called when its name appears as a name, an attribute
or an imported name anywhere in `src/` outside its own definition and the
package's `__init__`, or in `scripts/` or `perfbench/`.  A method, a
function defined in a class body, counts as called only through an
attribute (`x.name`): a local variable of the same name does not call it.
A method name that k classes define needs k attribute uses outside those
definitions, so a dead method does not pass on another class's live one
of the same name.
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


def _trees(paths) -> dict[str, ast.AST]:
    return {str(path.relative_to(ROOT)): ast.parse(path.read_text(), filename=str(path)) for path in paths}


def _methods(tree: ast.AST) -> set[ast.AST]:
    return {
        node
        for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
        for node in cls.body if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


def uncalled(library: dict[str, ast.AST], callers: dict[str, ast.AST]) -> list[str]:
    """`file:line name` of every function in the library trees without
    enough callers among all the trees."""
    names, attributes = Counter(), Counter()
    for tree in (*library.values(), *callers.values()):
        found_names, found_attributes = _names(tree)
        names += found_names
        attributes += found_attributes
    functions = [
        (file, node)
        for file, tree in library.items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
    ]
    methods = set().union(*map(_methods, library.values()))
    defined: Counter = Counter()  # method name -> classes that define it
    inside: Counter = Counter()  # method name -> attribute uses inside those definitions
    for _, node in functions:
        if node in methods:
            defined[node.name] += 1
            inside[node.name] += _names(node)[1][node.name]
    orphans = []
    for file, node in functions:
        if node in methods:
            called = attributes[node.name] - inside[node.name] >= defined[node.name]
        else:
            own_names, own_attributes = _names(node)
            called = attributes[node.name] - own_attributes[node.name] + names[node.name] - own_names[node.name] > 0
        if not called:
            orphans.append(f"{file}:{node.lineno} {node.name}")
    return orphans


def test_every_library_function_has_a_caller():
    library = _trees(path for path in sorted(PACKAGE.glob("*.py")) if path.name not in ("__init__.py", "oracles.py"))
    callers = _trees([PACKAGE / "oracles.py"] + sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py")))
    orphans = uncalled(library, callers)
    assert not orphans, "functions only the tests call:\n" + "\n".join(orphans)


def test_a_dead_method_named_like_a_live_one_is_flagged():
    library = {
        "a.py": ast.parse("class A:\n    def size(self):\n        return 1\n"),
        "b.py": ast.parse("class B:\n    def size(self):\n        return 2\n"),
    }
    caller = {"run.py": ast.parse("from a import A\nprint(A().size())\n")}
    assert "b.py:2 size" in uncalled(library, caller)
    # with both called, neither is flagged
    both = {"run.py": ast.parse("from a import A\nfrom b import B\nprint(A().size(), B().size())\n")}
    assert uncalled(library, both) == []
