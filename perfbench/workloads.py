"""The benchmark's three workloads.

Each workload refutes the CLI default charge `odd-at 0` and retargets to
`zero`.  A workload sets up its inputs (`setup`), lists its operations
(`operations`: label and a callable that returns whether the operation's
output checks passed), and reads its artifact counts from the artifacts
the last pass returned (`counters`).  Output checks never take the
code under test's own verdict: they are independent checkers, closed
forms, or known answers.
"""

from __future__ import annotations

import functools
import io
from contextlib import redirect_stderr, redirect_stdout

import tseitinkit
from tseitinkit import bounds, bp, cli, cnf, compiler, graphs, nnf, resolution, tseitin

import artifacts
from tracer import package_modules

# Taken before tracing wraps any function.  Clearing them gives every
# operation the cold library state each CLI invocation starts from (a warm
# `certified_lower_bound` on random-regular 16 3 1 takes ~0.02 s against
# ~1.3 s cold).  Graph objects memoise their adjacency, so operations also
# work on fresh Graph copies.
_CACHE_CLEARS = [obj.cache_clear for module in package_modules(tseitinkit)
                 for obj in vars(module).values() if callable(getattr(obj, "cache_clear", None))]


def cold_start() -> None:
    for clear in _CACHE_CLEARS:
        clear()


def _fresh(g):
    return graphs.Graph(g.n, g.edges)


def _charges(g):
    return tseitin.unit_charge(g.n, 0), tseitin.charge_of(g.n, ())


def _generate(workdir, spec) -> graphs.Graph:
    """Graph of a family spec, written and read back through the CLI format."""
    path = workdir / ("-".join(spec) + ".graph")
    if cli.main(["generate", *spec, "--out", str(path)]) != 0:
        raise RuntimeError(f"generate {' '.join(spec)} failed")
    return graphs.graph_from_text(path.read_text())


def _bp_counters(programs) -> dict:
    """programs: (bp text, graph, charge, DNNF gates) per compiled instance."""
    nodes = decisions = vertex_total = gates = 0
    for text, g, c, dnnf_gates in programs:
        _, dec, sinks = artifacts.parse_bp(text)
        nodes += len(dec) + len(sinks)
        decisions += len(dec)
        vertex_total += artifacts.bp_vertex_total(text, g.n, g.edges, c)
        gates += dnnf_gates
    # every node but the source is created by the first child edge that
    # reaches it; the other child edges hit an existing node
    child_edges = 2 * decisions
    return {
        "bp.nodes": nodes,
        "bp.share_ratio": (child_edges - (nodes - len(programs))) / child_edges,
        "compiler.dnnf_gates": gates,
        "compiler.budget_use": gates / (3 * vertex_total),
    }


class MidCompile:
    """compiler.pipeline on two graphs with m > 16 (no truth tables)."""

    name = "mid-compile"
    instances = (("grid", "5", "5"), ("cycle", "60"))
    setup_repeats = 25

    def setup(self, seed: int, workdir) -> None:
        self.graphs = [_generate(workdir, spec) for spec in self.instances]
        self.built = {}

    def operations(self):
        return [(" ".join(spec), functools.partial(self._compile, i)) for i, spec in enumerate(self.instances)]

    def _compile(self, i: int) -> bool:
        g = _fresh(self.graphs[i])
        c, zero = _charges(g)
        report, d, b = compiler.pipeline(g, c, zero)
        smoothed = nnf.smooth(d)
        self.built[i] = (g, c, b, d, smoothed)
        return (nnf.validate_decomposable(d)
                and nnf.model_count_smooth(smoothed) == 1 << (g.m - g.n + 1)
                and report.ratio_ok)

    def counters(self) -> dict:
        out = _bp_counters([(bp.bp_to_text(b), g, c, artifacts.nnf_counts(nnf.nnf_to_text(d))[0])
                            for g, c, b, d, _ in self.built.values()])
        out["nnf.smooth_gates"] = sum(artifacts.nnf_counts(nnf.nnf_to_text(s))[0] for *_, s in self.built.values())
        return out


class Proofs:
    """The side branches: a regular refutation and a certified 2^k bound."""

    name = "proofs"
    instances = (("random-regular", "16", "3", "1"), ("grid", "4", "5"))
    setup_repeats = 25

    def setup(self, seed: int, workdir) -> None:
        self.graphs = [_generate(workdir, spec) for spec in self.instances]
        self.steps = {}
        self.k = {}

    def operations(self):
        ops = []
        for i, spec in enumerate(self.instances):
            ops.append(("refute " + " ".join(spec), functools.partial(self._refute, i)))
            ops.append(("certify " + " ".join(spec), functools.partial(self._certify, i)))
        return ops

    def _refute(self, i: int) -> bool:
        g = _fresh(self.graphs[i])
        formula = tseitin.to_cnf(tseitin.TseitinFormula(g, _charges(g)[0]))
        trace = resolution.dpll_refute(formula)
        self.steps[i] = len(trace)
        return bool(resolution.check_refutation(formula, trace)) and resolution.check_regularity(trace)

    def _certify(self, i: int) -> bool:
        cert = bounds.certified_lower_bound(_fresh(self.graphs[i]))
        self.k[i] = cert.k
        cold_start()  # the verifier runs as its own cold check
        ok, _ = bounds.verify_certificate(cert, _fresh(self.graphs[i]))
        return ok

    def counters(self) -> dict:
        return {"resolution.steps": sum(self.steps.values()), "bounds.k": sum(self.k.values())}


class Check:
    """`tseitinkit check` on genuine artifacts and seeded corrupted copies."""

    name = "check"
    instances = (("complete", "6"), ("wheel", "8"), ("grid", "3", "4"), ("grid", "2", "8"), ("cycle", "20"))
    setup_repeats = 2

    def setup(self, seed: int, workdir) -> None:
        self.cases = []  # (label, argv, expected exit code)
        programs = []
        steps = k = cells = 0
        for spec in self.instances:
            g = _generate(workdir, spec)
            c, zero = _charges(g)
            _, d, b = compiler.pipeline(g, c, zero, desk_cap=0)
            formula = tseitin.to_cnf(tseitin.TseitinFormula(g, c))
            trace = resolution.dpll_refute(formula)
            cert = bounds.certified_lower_bound(g)
            texts = {
                ".graph": graphs.graph_to_text(g),
                ".tseitin": tseitin.tseitin_to_text(tseitin.TseitinFormula(g, c)),
                ".target.tseitin": tseitin.tseitin_to_text(tseitin.TseitinFormula(g, zero)),
                ".bp": bp.bp_to_text(b),
                ".nnf": nnf.nnf_to_text(d),
                ".cnf": cnf.cnf_to_dimacs(formula),
                ".trace": resolution.trace_to_text(trace),
                ".cert": bounds.certificate_to_text(cert),
            }
            name = "-".join(spec)
            bad = {
                ".bp": artifacts.corrupt_bp(texts[".bp"], artifacts.rng_for(seed, name, "bp")),
                ".nnf": artifacts.corrupt_nnf(texts[".nnf"], artifacts.rng_for(seed, name, "nnf")),
                ".trace": artifacts.corrupt_trace(texts[".trace"], texts[".cnf"], artifacts.rng_for(seed, name, "trace")),
                ".cert": artifacts.corrupt_certificate(texts[".cert"], artifacts.rng_for(seed, name, "cert")),
            }
            for ext, text in texts.items():
                (workdir / (name + ext)).write_text(text)
            for ext, (text, _) in bad.items():
                (workdir / (name + ".bad" + ext)).write_text(text)
            p = str(workdir / name)
            for tag, code in (("", 0), (".bad", 1)):
                for kind, files, ext in (
                    ("refutation", [p + ".cnf", p + tag + ".trace"], ".trace"),
                    ("bp", [p + ".tseitin", p + tag + ".bp"], ".bp"),
                    ("dnnf-equiv", [p + ".target.tseitin", p + tag + ".nnf", "--desk-scale-cap", "24"], ".nnf"),
                    ("certificate", [p + ".graph", p + tag + ".cert"], ".cert"),
                ):
                    label = f"check {kind} {name}{tag}{ext}" + (f" ({bad[ext][1]})" if code else "")
                    self.cases.append((label, ["check", kind, *files], code))
            gates, node_count, num_vars = artifacts.nnf_counts(texts[".nnf"])
            programs.append((texts[".bp"], g, c, gates))
            steps += len(trace)
            k += cert.k
            cells += 2 * node_count << num_vars  # genuine and corrupted circuit
        self._counters = _bp_counters(programs)
        self._counters.update({"resolution.steps": steps, "bounds.k": k, "nnf.truth_table_cells": cells})

    def operations(self):
        return [(label, functools.partial(self._check, argv, code)) for label, argv, code in self.cases]

    @staticmethod
    def _check(argv, expected: int) -> bool:
        sink = io.StringIO()
        with redirect_stdout(sink), redirect_stderr(sink):
            return cli.main(argv) == expected

    def counters(self) -> dict:
        return dict(self._counters)


WORKLOADS = {w.name: w for w in (MidCompile, Proofs, Check)}
