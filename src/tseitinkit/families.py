"""Deterministic graph family generators used by the CLI and the tests."""

from __future__ import annotations

import random

from .graphs import Graph


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    return Graph(n, tuple(sorted((i, (i + 1) % n)) for i in range(n)))


def path(n: int) -> Graph:
    if n < 2:
        raise ValueError("path needs n >= 2")
    return Graph(n, tuple((i, i + 1) for i in range(n - 1)))


def complete(n: int) -> Graph:
    if n < 1:
        raise ValueError("complete needs n >= 1")
    return Graph(n, tuple((u, v) for u in range(n) for v in range(u + 1, n)))


def grid(rows: int, cols: int) -> Graph:
    if rows < 1 or cols < 1:
        raise ValueError("grid needs positive dimensions")
    edges = []
    for i in range(rows):
        for j in range(cols):
            v = i * cols + j
            if j + 1 < cols:
                edges.append((v, v + 1))
            if i + 1 < rows:
                edges.append((v, v + cols))
    return Graph(rows * cols, tuple(edges))


def wheel(rim: int) -> Graph:
    """Cycle 0..rim-1 plus a hub (id rim) joined to every rim vertex."""
    if rim < 3:
        raise ValueError("wheel needs rim >= 3")
    edges = [tuple(sorted((i, (i + 1) % rim))) for i in range(rim)]
    edges += [(i, rim) for i in range(rim)]
    return Graph(rim + 1, tuple(edges))


def cube(dim: int) -> Graph:
    if dim < 1:
        raise ValueError("cube needs dim >= 1")
    edges = []
    for v in range(1 << dim):
        for b in range(dim):
            w = v ^ (1 << b)
            if v < w:
                edges.append((v, w))
    return Graph(1 << dim, tuple(edges))


def bowtie() -> Graph:
    """Two triangles sharing vertex 2."""
    return Graph(5, ((0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)))


def two_k4_shared_edge() -> Graph:
    """Two K4s glued along the edge {2, 3}."""
    edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (2, 4), (2, 5), (3, 4), (3, 5), (4, 5)]
    return Graph(6, tuple(edges))


def random_regular(n: int, degree: int, seed: int) -> Graph:
    """Configuration model with rejection; deterministic for a fixed seed."""
    if n * degree % 2 != 0 or degree >= n:
        raise ValueError("need n*degree even and degree < n")
    rng = random.Random(seed)
    for _ in range(10000):
        stubs = [v for v in range(n) for _ in range(degree)]
        rng.shuffle(stubs)
        edges = set()
        ok = True
        for u, v in zip(stubs[0::2], stubs[1::2]):
            if u == v or (min(u, v), max(u, v)) in edges:
                ok = False
                break
            edges.add((min(u, v), max(u, v)))
        if ok:
            return Graph(n, tuple(sorted(edges)))
    raise ValueError("failed to sample a simple regular graph")


def desk() -> list[tuple[str, Graph]]:
    """The desk-scale bench family, named: the names are test ids and the
    rows of `scripts/family_report.py`'s CSV, in this order."""
    return [
        ("C3", cycle(3)), ("C4", cycle(4)), ("C5", cycle(5)), ("C6", cycle(6)),
        ("P2", path(2)), ("P3", path(3)), ("P4", path(4)), ("P5", path(5)),
        ("K4", complete(4)), ("K5", complete(5)), ("W4", wheel(4)),
        ("grid2x3", grid(2, 3)), ("grid3x3", grid(3, 3)), ("Q3", cube(3)),
        ("bowtie", bowtie()), ("twoK4", two_k4_shared_edge()),
    ]


# CLI name -> (generator, parameter names)
FAMILIES = {
    "cycle": (cycle, ("n",)),
    "path": (path, ("n",)),
    "complete": (complete, ("n",)),
    "grid": (grid, ("rows", "cols")),
    "wheel": (wheel, ("rim",)),
    "cube": (cube, ("dim",)),
    "random-regular": (random_regular, ("n", "degree", "seed")),
}


def generate(family: str, params: list[str]) -> Graph:
    """Dispatch for the CLI `generate` subcommand."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family}")
    make, names = FAMILIES[family]
    if len(params) != len(names):
        plural = "s" if len(names) > 1 else ""
        raise ValueError(f"{family} needs {len(names)} parameter{plural} ({' '.join(names)}), got {len(params)}")
    try:
        return make(*map(int, params))
    except ValueError as exc:
        raise ValueError(f"invalid parameters for family {family}: {exc}") from exc
