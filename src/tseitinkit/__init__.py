"""Tseitin-formula workbench: graphs, parity formulas, branching programs,
DNNF circuits, resolution traces, and certified DNNF lower bounds.

The package holds the pipeline, the CLI, the independent checkers of its
artifacts, the lower-bound certificate and the brute-force oracles
(`oracles`).  What only the tests run lives in the test suite, in
`tests/lemmas.py`: the desk-scale lemma checks behind the bound
(rectangles, proof trees, sub-constraints, the cover game), general
branch decompositions and their cuts, point evaluation, circuit
conditioning and forgetting, and the path-wise read-once check;
`tests/test_surface.py` keeps it that way."""

from .graphs import Graph, SplitRequest, connected_components, is_3_connected, safe_split_subset
from .width import treewidth_exact
from .minors import find_safe_separator, three_connected_minor
from .tseitin import Charge, TseitinFormula, charge_retarget_flips, is_satisfiable, model_count, to_cnf
from .cnf import Cnf
from .resolution import ResolutionTrace, check_refutation, check_regularity, dpll_refute
from .bp import BranchingProgram, build_well_structured_bp, validate_well_structured
from .nnf import NnfCircuit, model_count_smooth, rename_flip, smooth, validate_decomposable
from .oracles import bp_semantics_hold, eval_bp
from .compiler import compile_bp_to_dnnf, pipeline, retarget
from .bounds import LowerBoundCertificate, adam_response, certified_lower_bound, verify_certificate

__all__ = [
    "Graph", "SplitRequest", "connected_components", "is_3_connected", "safe_split_subset",
    "treewidth_exact",
    "find_safe_separator", "three_connected_minor",
    "Charge", "TseitinFormula", "charge_retarget_flips", "is_satisfiable", "model_count", "to_cnf",
    "Cnf",
    "ResolutionTrace", "check_refutation", "check_regularity", "dpll_refute",
    "BranchingProgram", "build_well_structured_bp", "eval_bp", "validate_well_structured",
    "bp_semantics_hold",
    "NnfCircuit", "model_count_smooth", "rename_flip", "smooth", "validate_decomposable",
    "compile_bp_to_dnnf", "pipeline", "retarget",
    "LowerBoundCertificate", "adam_response", "certified_lower_bound", "verify_certificate",
]
