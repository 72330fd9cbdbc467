"""Command line driver: generate graph families, run the full pipeline,
check artifacts, and convert between the text formats.

Reports are CSV with one experiment per row; all numeric columns are
integers so reruns diff cleanly.
"""

from __future__ import annotations

import argparse
import random
import sys

from . import families
from .bounds import certificate_from_text, certified_lower_bound, verify_certificate
from .bp import bp_from_text, bp_to_text, build_well_structured_bp, validate_well_structured
from .cnf import Cnf, cnf_from_dimacs, cnf_to_dimacs
from .compiler import DESK_SCALE_CAP, equivalent, pipeline
from .graphs import Graph, connected_components, graph_from_text, graph_to_text
from .nnf import nnf_from_text, nnf_to_text, validate_decomposable
from .oracles import VAR_CAP
from .resolution import check_refutation, check_regularity, dpll_refute, trace_from_text, trace_to_text
from .tseitin import DEGREE_CAP, TseitinFormula, is_satisfiable, to_cnf, tseitin_from_text, tseitin_to_text, unit_charge
from .width import treewidth_estimate

CSV_HEADER = "name,n,m,treewidth,tw_provenance,bp_size,refutation_length,dnnf_size,model_count,bound_exponent,equivalence"


def _parse_charge(spec: str, g: Graph, want_satisfiable: bool):
    parts = spec.split() or [""]

    def number(text: str) -> int:
        try:
            return int(text)
        except ValueError:
            raise ValueError(f"charge spec {spec!r} needs an integer, not {text!r}") from None

    if parts[0] == "zero":
        if len(parts) != 1:
            raise ValueError(f"charge spec {spec!r} takes no parameter")
        charge = tuple([0] * g.n)
    elif parts[0] == "odd-at":
        if len(parts) != 2 or not 0 <= number(parts[1]) < g.n:
            raise ValueError(f"charge spec {spec!r} needs one vertex in 0..{g.n - 1}")
        charge = unit_charge(g.n, int(parts[1]))
    elif parts[0] in ("random-sat", "random-unsat"):
        if len(parts) > 2:
            raise ValueError(f"charge spec {spec!r} takes at most one seed")
        rng = random.Random(number(parts[1]) if len(parts) > 1 else int(want_satisfiable))  # 0 for a charge, 1 for a target
        comps = connected_components(g)
        bits = [rng.randint(0, 1) for _ in range(g.n)]
        for comp in comps:
            anchor = max(comp)
            parity = sum(bits[v] for v in comp) % 2
            if parity == 1:
                bits[anchor] ^= 1
        if parts[0] == "random-unsat" and comps:
            bits[max(comps[0])] ^= 1
        charge = tuple(bits)
    else:
        raise ValueError(f"unknown charge spec: {spec}")
    sat = is_satisfiable(TseitinFormula(g, charge))
    if sat != want_satisfiable:
        kind = "satisfiable" if want_satisfiable else "unsatisfiable"
        raise ValueError(f"charge spec {spec!r} is not {kind} on this graph")
    return charge


def _desk_scale_cap(text: str) -> int:
    """A --desk-scale-cap value: an int from 0 up to the truth table cap,
    so a run that could never reach its verdict is refused up front, and
    a negative cap as the usage error it is."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"{value} is negative")
    if value > VAR_CAP:
        raise argparse.ArgumentTypeError(f"{value} exceeds the truth table cap {VAR_CAP}")
    return value


def _read(path: str, parse):
    """parse(the text of the file at `path`); a ValueError it raises, or a
    decode error, names the file: `<path>: line N: ...`."""
    with open(path) as fh:
        try:
            return parse(fh.read())
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


def _cnf_or_tseitin(text: str):
    """A DIMACS CNF, or the Tseitin formula of a `p tseitin` file."""
    return tseitin_from_text(text) if text.lstrip().startswith("p tseitin") else cnf_from_dimacs(text)


def _emit(text: str, out: str | None) -> int:
    """Write text to the file `out`, or to stdout when it is not given."""
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_generate(args) -> int:
    g = families.generate(args.family, args.params)
    return _emit(graph_to_text(g), args.out)


def _refutation_length(cnf: Cnf) -> int:
    """Length of the DPLL refutation of `cnf`, once `check_refutation` and
    `check_regularity` have accepted it; a ValueError naming the
    refutation stage otherwise."""
    trace = dpll_refute(cnf)
    result = check_refutation(cnf, trace)
    if not result:
        raise ValueError(f"refutation stage: invalid refutation: {result.error}")
    if not check_regularity(trace):
        raise ValueError("refutation stage: the refutation is not regular")
    return len(trace)


def pipeline_row(name: str, g: Graph, charge_spec: str, target_spec: str, desk_cap: int = DESK_SCALE_CAP) -> str:
    c_unsat = _parse_charge(charge_spec, g, want_satisfiable=False)
    c_star = _parse_charge(target_spec, g, want_satisfiable=True)
    report, d, bp = pipeline(g, c_unsat, c_star, desk_cap=desk_cap)
    # the refutation runs on the CNF, which caps the degree; the rest of the row does not need it
    refutation_length = _refutation_length(to_cnf(TseitinFormula(g, c_unsat))) if g.max_degree <= DEGREE_CAP else ""
    treewidth, provenance = treewidth_estimate(g)
    count = report.model_count_circuit if report.model_count_circuit is not None else report.model_count_expected
    return ",".join(str(x) for x in (
        name, g.n, g.m, treewidth, provenance, report.bp_size, refutation_length, report.dnnf_size,
        count, certified_lower_bound(g).k, report.equivalence,
    ))


def cmd_pipeline(args) -> int:
    g = _read(args.graph, graph_from_text)
    row = pipeline_row(args.graph, g, args.charge, args.target, args.desk_scale_cap)
    return _emit(CSV_HEADER + "\n" + row + "\n", args.out)


def cmd_check(args) -> int:
    if args.kind == "refutation":
        cnf = _read(args.files[0], cnf_from_dimacs)
        trace = _read(args.files[1], trace_from_text)
        result = check_refutation(cnf, trace)
        if not result:
            print(f"invalid refutation: {result.error}", file=sys.stderr)
            return 1
        regular = check_regularity(trace)
        print(f"valid refutation; regular: {regular}")
        return 0
    if args.kind == "bp":
        t = _read(args.files[0], tseitin_from_text)
        b = _read(args.files[1], bp_from_text)
        result = validate_well_structured(b, t.graph, t.charge)
        if not result:
            print(f"invalid program: {result.error} (node {result.node})", file=sys.stderr)
            return 1
        print("valid well-structured program")
        return 0
    if args.kind == "dnnf-equiv":
        t = _read(args.files[0], tseitin_from_text)
        d = _read(args.files[1], nnf_from_text)
        if t.graph.m > args.desk_scale_cap:
            print("formula exceeds the desk-scale cap", file=sys.stderr)
            return 1
        if d.num_vars != t.graph.m:
            print("variable counts differ", file=sys.stderr)
            return 1
        if not validate_decomposable(d):
            print("circuit is not decomposable", file=sys.stderr)
            return 1
        if not equivalent(d, t):
            print("circuit and formula are not equivalent", file=sys.stderr)
            return 1
        print("equivalent")
        return 0
    g = _read(args.files[0], graph_from_text)
    cert = _read(args.files[1], certificate_from_text)
    ok, msg = verify_certificate(cert, g)
    if not ok:
        print(f"invalid certificate: {msg}", file=sys.stderr)
        return 1
    print("valid certificate")
    return 0


def cmd_convert(args) -> int:
    fmt = args.format
    if fmt == "graph":
        out = graph_to_text(_read(args.input, graph_from_text))
    elif fmt == "tseitin":
        out = tseitin_to_text(_read(args.input, tseitin_from_text))
    elif fmt == "cnf":
        source = _read(args.input, _cnf_or_tseitin)
        out = cnf_to_dimacs(to_cnf(source) if isinstance(source, TseitinFormula) else source)
    elif fmt == "nnf":
        out = nnf_to_text(_read(args.input, nnf_from_text))
    elif fmt == "bp":
        out = bp_to_text(_read(args.input, bp_from_text))
    else:
        out = trace_to_text(_read(args.input, trace_from_text))
    return _emit(out, args.out)


def cmd_build_bp(args) -> int:
    t = _read(args.input, tseitin_from_text)
    bp = build_well_structured_bp(t.graph, t.charge)
    return _emit(bp_to_text(bp), args.out)


def _generate_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("family", choices=list(families.FAMILIES))
    p.add_argument("params", nargs="*")
    p.add_argument("--out")


def _pipeline_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--graph", required=True)
    p.add_argument("--charge", default="odd-at 0")
    p.add_argument("--target", default="zero")
    p.add_argument("--out")
    p.add_argument("--desk-scale-cap", type=_desk_scale_cap, default=DESK_SCALE_CAP)


def _check_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("kind", choices=["refutation", "bp", "dnnf-equiv", "certificate"])
    p.add_argument("files", nargs=2)
    p.add_argument("--desk-scale-cap", type=_desk_scale_cap, default=DESK_SCALE_CAP)


def _convert_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("input")
    p.add_argument("--format", required=True, choices=["graph", "tseitin", "cnf", "nnf", "bp", "trace"])
    p.add_argument("--out")


def _build_bp_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("input")
    p.add_argument("--out")


# name -> (help text, a function adding the command's arguments to its parser, handler)
COMMANDS = {
    "generate": ("emit a graph from a named family", _generate_arguments, cmd_generate),
    "pipeline": ("run the full build/compile/verify pipeline", _pipeline_arguments, cmd_pipeline),
    "check": ("validate an artifact", _check_arguments, cmd_check),
    "convert": ("parse and re-emit a file in a text format", _convert_arguments, cmd_convert),
    "build-bp": ("build a well-structured program for an unsatisfiable formula", _build_bp_arguments, cmd_build_bp),
}


def _command(parser: argparse.ArgumentParser, name: str) -> argparse.ArgumentParser:
    """`parser`, given command `name`'s arguments and handler."""
    _, add_arguments, handler = COMMANDS[name]
    add_arguments(parser)
    parser.set_defaults(func=handler)
    return parser


def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, one subparser each."""
    top = argparse.ArgumentParser(prog="tseitinkit")
    sub = top.add_subparsers(dest="command", required=True)
    for name, (help_text, _, _) in COMMANDS.items():
        _command(sub.add_parser(name, help=help_text), name)
    return top


def main(argv=None) -> int:
    """Run the command in argv (sys.argv[1:] when None), building one parser,
    the command's own; help, no or an unknown command, a leading option and
    a leftover argument build the full tree.  A bad input, an unreadable or
    unwritable file, and a failed allocation exit 1 with one `error:` line."""
    argv = sys.argv[1:] if argv is None else argv
    args, extra = None, argv
    if argv and argv[0] in COMMANDS:
        args, extra = _command(argparse.ArgumentParser(prog=f"tseitinkit {argv[0]}"), argv[0]).parse_known_args(argv[1:])
    if args is None or extra:  # the full tree refuses a leftover argument with the top usage line
        args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
