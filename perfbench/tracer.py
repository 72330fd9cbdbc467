"""Spans around every call into the library's public functions.

`Tracer.install` replaces each public function of every `tseitinkit`
module with a timing wrapper, under every module attribute that names it
(so `cli.nnf_truth_table` and `nnf.truth_table` share one wrapper, named
after the defining module: `nnf.truth_table`).  Spans nest, stay in memory
until the run ends, and are reduced by `layer_times` into exclusive time
per layer metric: each instant of traced time is charged to the innermost
span that names a layer metric, so layer times add up to the covered time.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import time

# Span name -> per-layer metric.  A span whose function is not listed is
# charged to the metric of the span that called it.
LAYER_OF = {
    "bp.build_well_structured_bp": "bp.build_s",
    "bp.validate_well_structured": "bp.validate_s",
    "bp.validate_read_once": "bp.validate_s",
    "bp.infer_annotations": "bp.infer_s",
    "width.heuristic_branch_decomposition": "width.branch_decomposition_s",
    "width.all_cuts": "width.branch_decomposition_s",
    "width.max_order_cut": "width.branch_decomposition_s",
    "width.cut_boundary": "width.branch_decomposition_s",
    "width.width_of": "width.branch_decomposition_s",
    "width.treewidth_exact": "width.treewidth_s",
    "width.treewidth_bounds": "width.treewidth_s",
    "width.treewidth_lower_bound": "width.treewidth_s",
    "width.treewidth_upper_bound": "width.treewidth_s",
    "minors.three_connected_minor": "minors.three_connected_minor_s",
    "minors.find_safe_separator": "minors.safe_separator_s",
    "graphs.is_3_connected": "graphs.is_3_connected_s",
    "cnf.cnf_truth_table": "cnf.truth_table_s",
    "resolution.dpll_refute": "resolution.dpll_s",
    "resolution.check_refutation": "resolution.check_s",
    "resolution.check_regularity": "resolution.check_s",
    "tseitin.truth_table": "tseitin.truth_table_s",
    "tseitin.to_cnf": "tseitin.to_cnf_s",
    "nnf.truth_table": "nnf.truth_table_s",
    "nnf.smooth": "nnf.smooth_s",
    "nnf.model_count_smooth": "nnf.count_s",
    "compiler.compile_bp_to_dnnf": "compiler.compile_s",
    "bounds.certified_lower_bound": "bounds.certify_s",
    "bounds.verify_certificate": "bounds.verify_s",
}

# Call counts reported as per-layer metrics.
CALLS_OF = {
    "width.branch_decomposition_calls": "width.heuristic_branch_decomposition",
    "width.treewidth_exact_calls": "width.treewidth_exact",
    "graphs.is_3_connected_calls": "graphs.is_3_connected",
}

TIME_METRICS = sorted(set(LAYER_OF.values()) | {"cli.parse_s"})


def package_modules(package) -> list:
    """The package and every module directly inside it, imported."""
    return [package] + [
        importlib.import_module(f"{package.__name__}.{info.name}")
        for info in pkgutil.iter_modules(package.__path__)
    ]


def layer_of(name: str) -> str | None:
    """Every text parser (`*_from_text`, `*_from_dimacs`) is charged to cli.parse_s."""
    if name.endswith(("_from_text", "_from_dimacs")):
        return "cli.parse_s"
    return LAYER_OF.get(name)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.enabled = False
        self._stack: list[int] = []
        self._patched: list[tuple] = []  # (module, attribute, original)

    def _wrap(self, name, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()

        return traced

    def install(self, package) -> None:
        """Wrap every public function defined in the package, under every
        module attribute bound to it."""
        wrappers: dict[int, object] = {}
        for module in package_modules(package):
            for attr, obj in list(vars(module).items()):
                owner = getattr(obj, "__module__", None) or ""
                if (attr.startswith("_") or isinstance(obj, type) or not callable(obj)
                        or not owner.startswith(package.__name__ + ".")):
                    continue
                if id(obj) not in wrappers:
                    short = owner[len(package.__name__) + 1:]
                    wrappers[id(obj)] = self._wrap(f"{short}.{obj.__name__}", obj)
                self._patched.append((module, attr, obj))
                setattr(module, attr, wrappers[id(obj)])

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._patched):
            setattr(module, attr, obj)
        self._patched.clear()

    def layer_times(self) -> tuple[dict[str, float], dict[str, int], float]:
        """(exclusive seconds per layer metric, calls per span name, seconds
        covered by top-level spans)."""
        times: dict[str, float] = {}
        calls: dict[str, int] = {}
        exclusive = [end - start for _, start, end, _ in self.spans]
        charged: list[str] = []
        covered = 0.0
        for i, (name, start, end, parent) in enumerate(self.spans):
            calls[name] = calls.get(name, 0) + 1
            if parent < 0:
                covered += end - start
                charged.append(layer_of(name) or name)
            else:
                exclusive[parent] -= end - start
                charged.append(layer_of(name) or charged[parent])
        for key, secs in zip(charged, exclusive):
            times[key] = times.get(key, 0.0) + secs
        return times, calls, covered
