"""Tseitin-formula workbench: graphs, parity formulas, branching programs,
DNNF circuits, resolution traces, and rectangle-based lower bounds."""

from .graphs import Graph, SplitRequest, connected_components, is_3_connected, safe_split_subset, split_vertex
from .width import BranchDecomposition, Cut, branchwidth_bounds, max_order_cut, treewidth_exact
from .minors import find_safe_separator, three_connected_minor
from .tseitin import (
    Charge,
    SubConstraint,
    TseitinFormula,
    brute_force_models,
    charge_retarget_flips,
    condition,
    conjoin_subconstraints_count,
    is_satisfiable,
    model_count,
    to_cnf,
)
from .cnf import Cnf
from .resolution import ResolutionTrace, check_refutation, check_regularity, dpll_refute
from .bp import BranchingProgram, build_well_structured_bp, validate_read_once, validate_well_structured
from .nnf import (
    NnfCircuit,
    condition_dnnf,
    forget_var,
    gate_rectangle,
    model_count_smooth,
    rename_flip,
    smooth,
    validate_decomposable,
)
from .oracles import bp_semantics_hold, eval_bp
from .rectangles import Rectangle, is_rectangle
from .compiler import compile_bp_to_dnnf, pipeline, retarget
from .bounds import (
    LowerBoundCertificate,
    adam_response,
    certified_lower_bound,
    extract_balanced_cover,
    game_simulate,
    induced_subconstraint,
    rectangle_cap_check,
    verify_certificate,
)

__all__ = [
    "Graph", "SplitRequest", "connected_components", "is_3_connected", "safe_split_subset", "split_vertex",
    "BranchDecomposition", "Cut", "branchwidth_bounds", "max_order_cut", "treewidth_exact",
    "find_safe_separator", "three_connected_minor",
    "Charge", "SubConstraint", "TseitinFormula", "brute_force_models", "charge_retarget_flips",
    "condition", "conjoin_subconstraints_count", "is_satisfiable", "model_count", "to_cnf",
    "Cnf",
    "ResolutionTrace", "check_refutation", "check_regularity", "dpll_refute",
    "BranchingProgram", "build_well_structured_bp", "eval_bp", "validate_read_once", "validate_well_structured",
    "bp_semantics_hold",
    "NnfCircuit", "condition_dnnf", "forget_var", "gate_rectangle", "model_count_smooth",
    "rename_flip", "smooth", "validate_decomposable",
    "Rectangle", "is_rectangle",
    "compile_bp_to_dnnf", "pipeline", "retarget",
    "LowerBoundCertificate", "adam_response", "certified_lower_bound", "extract_balanced_cover",
    "game_simulate", "induced_subconstraint", "rectangle_cap_check", "verify_certificate",
]
