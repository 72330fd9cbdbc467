import argparse
import io
import os
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from tseitinkit import cli
from tseitinkit.cli import main
from tseitinkit.bounds import certificate_to_text, certified_lower_bound
from tseitinkit.bp import bp_to_text, build_well_structured_bp
from tseitinkit.cnf import cnf_to_dimacs
from tseitinkit.compiler import compile_bp_to_dnnf, pipeline, retarget
from tseitinkit.graphs import graph_from_text, graph_to_text
from tseitinkit.nnf import nnf_to_text
from tseitinkit.resolution import dpll_refute, trace_from_text, trace_to_text
from tseitinkit.tseitin import TseitinFormula, charge_add, to_cnf, tseitin_to_text, unit_charge
from tseitinkit import families as fam


@pytest.fixture
def workdir(tmp_path):
    g = fam.cycle(3)
    c = unit_charge(3, 1)
    t = TseitinFormula(g, c)
    cnf = to_cnf(t)
    bp = build_well_structured_bp(g, c)
    d = compile_bp_to_dnnf(bp, g, c, 0)
    dz = retarget(d, g, charge_add(c, unit_charge(3, 0)), (0, 0, 0))
    files = {
        "graph": graph_to_text(g),
        "tseitin": tseitin_to_text(t),
        "tseitin_zero": tseitin_to_text(TseitinFormula(g, (0, 0, 0))),
        "cnf": cnf_to_dimacs(cnf),
        "trace": trace_to_text(dpll_refute(cnf)),
        "bp": bp_to_text(bp),
        "nnf": nnf_to_text(dz),
        "cert": certificate_to_text(certified_lower_bound(fam.complete(4))),
        "k4": graph_to_text(fam.complete(4)),
    }
    paths = {}
    for name, text in files.items():
        p = tmp_path / f"{name}.txt"
        p.write_text(text)
        paths[name] = str(p)
    paths["dir"] = tmp_path
    return paths


def run_fresh(code: str, argv: list[str], cwd) -> subprocess.CompletedProcess:
    """`python -c code argv` in a fresh process that imports the source tree."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run([sys.executable, "-c", code, *argv], env=env, cwd=cwd, capture_output=True, text=True)


def run_without_numpy(argv: list[str], cwd) -> subprocess.CompletedProcess:
    """`tseitinkit argv` in a fresh process in which `import numpy` fails."""
    code = 'import sys; sys.modules["numpy"] = None; from tseitinkit.cli import main; sys.exit(main(sys.argv[1:]))'
    return run_fresh(code, argv, cwd)


def test_runs_without_numpy(tmp_path):
    """The desk-scale verdicts need no numpy: check dnnf-equiv on grid 2 8
    (m = 22, 64 blocks of assignments) accepts the genuine circuit and
    rejects one with a flipped literal, and a desk-scale pipeline reports
    its row equivalent."""
    g = fam.grid(2, 8)
    zero = (0,) * g.n
    _, d, _ = pipeline(g, unit_charge(g.n, 0), zero, desk_cap=0)
    lines = nnf_to_text(d).splitlines()
    i = next(i for i, ln in enumerate(lines) if ln.startswith("L "))
    flipped = lines[:i] + ["L " + str(-int(lines[i].split()[1]))] + lines[i + 1:]
    (tmp_path / "g.tseitin").write_text(tseitin_to_text(TseitinFormula(g, zero)))
    (tmp_path / "g.nnf").write_text("\n".join(lines) + "\n")
    (tmp_path / "flipped.nnf").write_text("\n".join(flipped) + "\n")
    (tmp_path / "g33.graph").write_text(graph_to_text(fam.grid(3, 3)))
    genuine = run_without_numpy(["check", "dnnf-equiv", "g.tseitin", "g.nnf", "--desk-scale-cap", "22"], tmp_path)
    assert (genuine.returncode, genuine.stdout, genuine.stderr) == (0, "equivalent\n", "")
    bad = run_without_numpy(["check", "dnnf-equiv", "g.tseitin", "flipped.nnf", "--desk-scale-cap", "22"], tmp_path)
    assert bad.returncode == 1 and "not equivalent" in bad.stderr and "Traceback" not in bad.stderr
    report = run_without_numpy(["pipeline", "--graph", "g33.graph"], tmp_path)
    assert report.returncode == 0 and report.stderr == ""
    assert report.stdout.splitlines()[-1].endswith(",equivalent")


def test_loads_no_openssl_binding(tmp_path):
    """A process that checks a certificate and writes a pipeline row, both
    of which hash a graph, never imports `hashlib` (whose `_hashlib` maps
    OpenSSL's libcrypto): `graph_hash` uses the interpreter's builtin
    SHA-256."""
    g = fam.grid(3, 3)
    (tmp_path / "g33.graph").write_text(graph_to_text(g))
    (tmp_path / "g33.cert").write_text(certificate_to_text(certified_lower_bound(g)))
    code = ("import sys; from tseitinkit.cli import main; "
            "codes = [main(['check', 'certificate', 'g33.graph', 'g33.cert']), main(['pipeline', '--graph', 'g33.graph'])]; "
            "print(codes, [m for m in ('hashlib', '_hashlib') if m in sys.modules])")
    run = run_fresh(code, [], tmp_path)
    assert run.returncode == 0 and run.stderr == ""
    lines = run.stdout.splitlines()
    assert lines[0] == "valid certificate"
    assert lines[-2].split(",")[-2:] == ["1", "equivalent"]  # bound_exponent 1: the row certifies
    assert lines[-1] == "[0, 0] []"


TOP_USAGE = "usage: tseitinkit [-h] {generate,pipeline,check,convert,build-bp} ...\n"
TOP_HELP = TOP_USAGE + """
positional arguments:
  {generate,pipeline,check,convert,build-bp}
    generate            emit a graph from a named family
    pipeline            run the full build/compile/verify pipeline
    check               validate an artifact
    convert             parse and re-emit a file in a text format
    build-bp            build a well-structured program for an unsatisfiable
                        formula

options:
  -h, --help            show this help message and exit
"""
GENERATE_USAGE = """usage: tseitinkit generate [-h] [--out OUT]
                           {cycle,path,complete,grid,wheel,cube,random-regular}
                           [params ...]
"""
PIPELINE_USAGE = """usage: tseitinkit pipeline [-h] --graph GRAPH [--charge CHARGE]
                           [--target TARGET] [--out OUT]
                           [--desk-scale-cap DESK_SCALE_CAP]
"""
CHECK_USAGE = """usage: tseitinkit check [-h] [--desk-scale-cap DESK_SCALE_CAP]
                        {refutation,bp,dnnf-equiv,certificate} files files
"""
CONVERT_USAGE = """usage: tseitinkit convert [-h] --format {graph,tseitin,cnf,nnf,bp,trace}
                          [--out OUT]
                          input
"""
BUILD_BP_USAGE = "usage: tseitinkit build-bp [-h] [--out OUT] input\n"
COMMAND_CHOICES = "(choose from 'generate', 'pipeline', 'check', 'convert', 'build-bp')"

# argv -> (exit code, stdout, stderr) at an 80-column terminal
GOLDEN = {
    (): (2, "", TOP_USAGE + "tseitinkit: error: the following arguments are required: command\n"),
    ("-h",): (0, TOP_HELP, ""),
    ("--help",): (0, TOP_HELP, ""),
    ("bogus",): (2, "", TOP_USAGE + f"tseitinkit: error: argument command: invalid choice: 'bogus' {COMMAND_CHOICES}\n"),
    ("--", "check"): (2, "", TOP_USAGE + f"tseitinkit: error: argument command: invalid choice: '--' {COMMAND_CHOICES}\n"),
    ("-x", "check"): (2, "", CHECK_USAGE + "tseitinkit check: error: the following arguments are required: kind, files\n"),
    ("generate", "-h"): (0, GENERATE_USAGE + """
positional arguments:
  {cycle,path,complete,grid,wheel,cube,random-regular}
  params

options:
  -h, --help            show this help message and exit
  --out OUT
""", ""),
    ("pipeline", "-h"): (0, PIPELINE_USAGE + """
options:
  -h, --help            show this help message and exit
  --graph GRAPH
  --charge CHARGE
  --target TARGET
  --out OUT
  --desk-scale-cap DESK_SCALE_CAP
""", ""),
    ("check", "-h"): (0, CHECK_USAGE + """
positional arguments:
  {refutation,bp,dnnf-equiv,certificate}
  files

options:
  -h, --help            show this help message and exit
  --desk-scale-cap DESK_SCALE_CAP
""", ""),
    ("convert", "-h"): (0, CONVERT_USAGE + """
positional arguments:
  input

options:
  -h, --help            show this help message and exit
  --format {graph,tseitin,cnf,nnf,bp,trace}
  --out OUT
""", ""),
    ("build-bp", "-h"): (0, BUILD_BP_USAGE + """
positional arguments:
  input

options:
  -h, --help  show this help message and exit
  --out OUT
""", ""),
    ("check",): (2, "", CHECK_USAGE + "tseitinkit check: error: the following arguments are required: kind, files\n"),
    ("pipeline",): (2, "", PIPELINE_USAGE + "tseitinkit pipeline: error: the following arguments are required: --graph\n"),
    ("build-bp",): (2, "", BUILD_BP_USAGE + "tseitinkit build-bp: error: the following arguments are required: input\n"),
    ("check", "nope", "a", "b"): (2, "", CHECK_USAGE + "tseitinkit check: error: argument kind: invalid choice: 'nope' "
                                  "(choose from 'refutation', 'bp', 'dnnf-equiv', 'certificate')\n"),
    ("generate", "nofam"): (2, "", GENERATE_USAGE + "tseitinkit generate: error: argument family: invalid choice: 'nofam' "
                            "(choose from 'cycle', 'path', 'complete', 'grid', 'wheel', 'cube', 'random-regular')\n"),
    # an extra argument is refused by the top parser, with its usage line
    ("check", "bp", "a", "b", "c"): (2, "", TOP_USAGE + "tseitinkit: error: unrecognized arguments: c\n"),
    ("convert", "x", "--format", "nnf", "y"): (2, "", TOP_USAGE + "tseitinkit: error: unrecognized arguments: y\n"),
    ("check", "bp", "a", "b", "--desk-scale-cap", "99"): (
        2, "", CHECK_USAGE + "tseitinkit check: error: argument --desk-scale-cap: 99 exceeds the truth table cap 24\n"),
    ("check", "--desk-scale-cap"): (
        2, "", CHECK_USAGE + "tseitinkit check: error: argument --desk-scale-cap: expected one argument\n"),
    # a negative cap is a usage error, not a failed check or a skipped row
    ("check", "dnnf-equiv", "g.tseitin", "g.nnf", "--desk-scale-cap", "-1"): (
        2, "", CHECK_USAGE + "tseitinkit check: error: argument --desk-scale-cap: -1 is negative\n"),
    # the seed is set in the charge specs ("random-unsat S", "random-sat S+1"), not by an option
    ("pipeline", "--graph", "g.graph", "--seed", "3"): (2, "", TOP_USAGE + "tseitinkit: error: unrecognized arguments: --seed 3\n"),
    ("pipeline", "--graph", "g.graph", "--desk-scale-cap", "-3"): (
        2, "", PIPELINE_USAGE + "tseitinkit pipeline: error: argument --desk-scale-cap: -3 is negative\n"),
}


class TestParser:
    @pytest.mark.parametrize("argv", list(GOLDEN), ids=lambda argv: " ".join(argv) or "no-arguments")
    def test_text_and_exit_code(self, argv, capsys, monkeypatch):
        """Help, usage and error text, byte for byte, and the exit code."""
        monkeypatch.setenv("COLUMNS", "80")
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr()
        assert (code, out.out, out.err) == GOLDEN[argv]

    @pytest.fixture
    def built(self, monkeypatch):
        """The number of ArgumentParser objects made so far."""
        count = [0]
        init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            count[0] += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        return count

    def test_a_command_builds_only_its_parser(self, built, workdir):
        assert main(["check", "refutation", workdir["cnf"], workdir["trace"]]) == 0
        assert built[0] == 1

    @pytest.mark.parametrize("argv", [["-h"], ["bogus"], ["check", "bp", "a", "b", "c"]])
    def test_help_and_errors_build_the_full_tree(self, built, argv):
        with pytest.raises(SystemExit):
            main(argv)
        own = 1 if argv[0] in cli.COMMANDS else 0  # a leftover argument: the command's parser came first
        assert built[0] == own + 1 + len(cli.COMMANDS)

    @pytest.mark.parametrize("argv", [
        ["generate", "grid", "3", "3", "--out", "g"],
        ["pipeline", "--graph", "g", "--target", "random-sat 4", "--desk-scale-cap", "20"],
        ["check", "dnnf-equiv", "a", "b", "--desk-scale-cap", "24"],
        ["convert", "x", "--format", "nnf"],
        ["build-bp", "t", "--out", "b"],
    ])
    def test_own_parser_parses_as_the_full_tree(self, argv, built, monkeypatch):
        """The one parser main builds hands the command's handler the
        arguments the full tree gives it (which also records the command's
        name)."""
        help_text, add_arguments, _ = cli.COMMANDS[argv[0]]
        got = []
        monkeypatch.setitem(cli.COMMANDS, argv[0], (help_text, add_arguments, lambda args: got.append(args) or 0))
        assert main(argv) == 0
        assert built[0] == 1
        [args] = got
        full = cli.build_parser().parse_args(argv)
        assert args.func is full.func is cli.COMMANDS[argv[0]][2]
        assert vars(full) == {"command": argv[0], **vars(args)}

    def test_main_reads_sys_argv(self, tmp_path, monkeypatch):
        out = tmp_path / "c3.graph"
        monkeypatch.setattr(sys, "argv", ["tseitinkit", "generate", "cycle", "3", "--out", str(out)])
        assert main() == 0
        assert graph_from_text(out.read_text()) == fam.cycle(3)


class TestGenerate:
    def test_grid_counts(self, tmp_path):
        out = tmp_path / "g.graph"
        assert main(["generate", "grid", "3", "3", "--out", str(out)]) == 0
        g = graph_from_text(out.read_text())
        assert (g.n, g.m) == (9, 12)

    def test_complete4_is_k4(self, tmp_path):
        out = tmp_path / "k4.graph"
        main(["generate", "complete", "4", "--out", str(out)])
        assert graph_from_text(out.read_text()) == fam.complete(4)

    def test_cycle3(self, tmp_path):
        out = tmp_path / "c3.graph"
        main(["generate", "cycle", "3", "--out", str(out)])
        assert graph_from_text(out.read_text()) == fam.cycle(3)

    def test_random_regular_deterministic(self, tmp_path):
        a, b = tmp_path / "a.graph", tmp_path / "b.graph"
        main(["generate", "random-regular", "8", "3", "11", "--out", str(a)])
        main(["generate", "random-regular", "8", "3", "11", "--out", str(b)])
        assert a.read_text() == b.read_text()
        g = graph_from_text(a.read_text())
        assert all(len(g.adj[v]) == 3 for v in range(g.n))

    def test_invalid_params(self, capsys):
        with pytest.raises(SystemExit):
            main(["generate", "nosuch", "3"])
        assert main(["generate", "cycle", "2"]) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["grid", "2"], "grid needs 2 parameters (rows cols), got 1"),
        (["cycle", "5", "7"], "cycle needs 1 parameter (n), got 2"),
    ], ids=["grid-too-few", "cycle-too-many"])
    def test_parameter_count(self, argv, message, tmp_path, capsys):
        out = tmp_path / "g.graph"
        assert main(["generate", *argv, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["cube", "40"], ["complete", "1000000"], ["grid", "1000000", "1000000"]],
                             ids=["cube40", "complete1e6", "grid1e6x1e6"])
    def test_too_large_refused_before_building(self, argv, monkeypatch, tmp_path, capsys):
        def build(*params):
            pytest.fail(f"{argv[0]} built with {params}")

        _, *rest = fam.FAMILIES[argv[0]]
        monkeypatch.setitem(fam.FAMILIES, argv[0], (build, *rest))
        out = tmp_path / "g.graph"
        assert main(["generate", *argv, "--out", str(out)]) == 1
        assert capsys.readouterr().err == (f"error: invalid parameters for family {argv[0]}: "
                                           f"too large: more than {fam.GENERATE_CAP} vertices or edges\n")
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["cycle", "7"], ["path", "5"], ["complete", "6"], ["grid", "3", "5"],
                                      ["wheel", "6"], ["cube", "4"], ["random-regular", "10", "3", "2"]],
                             ids=lambda argv: argv[0])
    def test_counts_are_the_generated_graphs(self, argv):
        make, _, counts = fam.FAMILIES[argv[0]]
        g = make(*map(int, argv[1:]))
        assert counts(*map(int, argv[1:])) == (g.n, g.m)

    def test_grid_408_within_the_cap(self):
        # the scale at which the certified exponent first exceeds 1
        assert fam.FAMILIES["grid"][2](408, 408) == (166464, 332112)
        assert 332112 <= fam.GENERATE_CAP


class TestPipeline:
    def test_c3_row(self, workdir, tmp_path):
        out = tmp_path / "report.csv"
        rc = main(["pipeline", "--graph", workdir["graph"], "--charge", "odd-at 1",
                   "--target", "zero", "--out", str(out)])
        assert rc == 0
        header, row = out.read_text().strip().splitlines()
        cols = dict(zip(header.split(","), row.split(",")))
        assert cols["n"] == "3" and cols["m"] == "3"
        assert cols["treewidth"] == "2" and cols["bound_exponent"] == "0"
        assert cols["equivalence"] == "equivalent" and cols["model_count"] == "2"

    def test_k4_row_has_k1(self, workdir, tmp_path):
        out = tmp_path / "report.csv"
        main(["pipeline", "--graph", workdir["k4"], "--charge", "odd-at 0",
              "--target", "zero", "--out", str(out)])
        row = out.read_text().strip().splitlines()[1]
        assert row.split(",")[9] == "1"

    def test_p4_row_has_k0(self, tmp_path):
        p4 = tmp_path / "p4.graph"
        main(["generate", "path", "4", "--out", str(p4)])
        out = tmp_path / "report.csv"
        main(["pipeline", "--graph", str(p4), "--charge", "odd-at 0",
              "--target", "zero", "--out", str(out)])
        row = out.read_text().strip().splitlines()[1]
        assert row.split(",")[9] == "0"

    def test_degree_above_cnf_cap_leaves_only_refutation_empty(self, tmp_path):
        # the refutation needs the CNF (degree cap 8); the other columns do not
        w12 = tmp_path / "w12.graph"
        main(["generate", "wheel", "12", "--out", str(w12)])
        out = tmp_path / "report.csv"
        assert main(["pipeline", "--graph", str(w12), "--out", str(out)]) == 0
        header, row = out.read_text().strip().splitlines()
        cols = dict(zip(header.split(","), row.split(",")))
        assert cols["refutation_length"] == ""
        assert [name for name, value in cols.items() if value == ""] == ["refutation_length"]
        assert cols["n"] == "13" and cols["m"] == "24" and cols["model_count"] == str(1 << 12)

    def test_byte_identical_reruns(self, workdir, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["pipeline", "--graph", workdir["graph"], "--charge", "random-unsat 5",
                "--target", "random-sat 9"]
        main(args + ["--out", str(a)])
        main(args + ["--out", str(b)])
        assert a.read_text() == b.read_text()

    def test_random_specs_default_to_seed_0_for_the_charge_and_1_for_the_target(self):
        """The seed a spec leaves out; a spec that names it is the one way
        to set it."""
        g = fam.grid(3, 3)
        assert cli._parse_charge("random-unsat", g, False) == cli._parse_charge("random-unsat 0", g, False)
        assert cli._parse_charge("random-sat", g, True) == cli._parse_charge("random-sat 1", g, True)
        assert cli._parse_charge("random-sat 0", g, True) != cli._parse_charge("random-sat 1", g, True)

    @pytest.mark.parametrize("cap", ["25", "40"])
    def test_desk_scale_cap_above_the_table_cap_is_a_usage_error(self, workdir, tmp_path, capsys, cap):
        """Refused at argument parsing: nothing is built and no row is written."""
        out = tmp_path / "report.csv"
        with pytest.raises(SystemExit) as exit_info:
            main(["pipeline", "--graph", workdir["graph"], "--desk-scale-cap", cap, "--out", str(out)])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert f"argument --desk-scale-cap: {cap} exceeds the truth table cap 24" in err
        assert "Traceback" not in err and not out.exists()

    def test_desk_scale_cap_at_the_table_cap_runs(self, workdir, tmp_path):
        out = tmp_path / "report.csv"
        assert main(["pipeline", "--graph", workdir["graph"], "--desk-scale-cap", "24", "--out", str(out)]) == 0
        assert out.read_text().endswith(",equivalent\n")

    @pytest.mark.parametrize("option, spec, message", [
        ("--charge", "odd-at x", "charge spec 'odd-at x' needs an integer, not 'x'"),
        ("--charge", "random-unsat x", "charge spec 'random-unsat x' needs an integer, not 'x'"),
        ("--target", "random-sat 1.5", "charge spec 'random-sat 1.5' needs an integer, not '1.5'"),
        ("--charge", "odd-at 3", "charge spec 'odd-at 3' needs one vertex in 0..2"),
        ("--charge", "odd", "unknown charge spec: odd"),
        ("--target", "zero 5 x", "charge spec 'zero 5 x' takes no parameter"),
        ("--charge", "zero 5 x", "charge spec 'zero 5 x' takes no parameter"),
        ("--charge", "random-unsat 3 x", "charge spec 'random-unsat 3 x' takes at most one seed"),
        ("--target", "random-sat 1 2", "charge spec 'random-sat 1 2' takes at most one seed"),
        ("--charge", "odd-at 0 junk", "charge spec 'odd-at 0 junk' needs one vertex in 0..2"),
        ("--charge", "zero", "charge spec 'zero' is not unsatisfiable on this graph"),
        ("--target", "odd-at 1", "charge spec 'odd-at 1' is not satisfiable on this graph"),
    ], ids=["odd-at-x", "random-unsat-x", "random-sat-float", "odd-at-out-of-range", "unknown",
            "zero-trailing-target", "zero-trailing-charge", "random-unsat-trailing", "random-sat-trailing",
            "odd-at-trailing", "satisfiable-charge", "unsatisfiable-target"])
    def test_bad_charge_spec_is_named(self, workdir, tmp_path, capsys, option, spec, message):
        out = tmp_path / "report.csv"
        assert main(["pipeline", "--graph", workdir["graph"], option, spec, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    # The pipeline's C3 CNF (charge odd-at 0) is 1 3 / -1 -3 / -1 2 / 1 -2 / -2 3 / 2 -3.
    # Its DPLL trace ends "10 -1 0 6 9 0" and "11 0 5 10 0"; the first
    # corruption gives the empty clause's step a literal.  The second trace
    # is a valid refutation whose path 13 -> 8 -> 7 resolves on 1 twice.
    @pytest.mark.parametrize("text, message", [
        (
            "1 1 3 0 0\n2 2 -3 0 0\n3 1 2 0 1 2 0\n4 1 -2 0 0\n5 1 0 3 4 0\n6 -1 2 0 0\n"
            "7 -2 3 0 0\n8 -1 -3 0 0\n9 -1 -2 0 7 8 0\n10 -1 0 6 9 0\n11 1 0 5 10 0\n",
            "refutation stage: invalid refutation: step 11: clause is not the resolvent",
        ),
        (
            "1 1 3 0 0\n2 2 -3 0 0\n3 1 2 0 1 2 0\n4 1 -2 0 0\n5 1 0 3 4 0\n6 -1 -3 0 0\n7 -3 0 5 6 0\n"
            "8 1 0 1 7 0\n9 -1 2 0 0\n10 -2 3 0 0\n11 -1 3 0 9 10 0\n12 -1 0 11 6 0\n13 0 8 12 0\n",
            "refutation stage: the refutation is not regular",
        ),
    ], ids=["invalid", "irregular"])
    def test_refutation_is_checked_before_its_length_is_reported(self, workdir, tmp_path, capsys, monkeypatch, text, message):
        monkeypatch.setattr(cli, "dpll_refute", lambda cnf: trace_from_text(text))
        out = tmp_path / "report.csv"
        assert main(["pipeline", "--graph", workdir["graph"], "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_desk_scale_cap_not_an_int(self, workdir, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["pipeline", "--graph", workdir["graph"], "--desk-scale-cap", "x"])
        assert exit_info.value.code == 2
        assert "argument --desk-scale-cap: invalid int value: 'x'" in capsys.readouterr().err


class TestCheck:
    def test_valid_refutation(self, workdir):
        assert main(["check", "refutation", workdir["cnf"], workdir["trace"]]) == 0

    def test_corrupted_trace_rejected(self, workdir, tmp_path):
        lines = open(workdir["trace"]).read().splitlines()
        # flip a literal in the last derived step
        parts = lines[-1].split()
        parts[1] = "1"
        bad = tmp_path / "bad.trace"
        bad.write_text("\n".join(lines[:-1] + [" ".join(parts)]) + "\n")
        assert main(["check", "refutation", workdir["cnf"], str(bad)]) != 0

    def test_valid_bp(self, workdir):
        assert main(["check", "bp", workdir["tseitin"], workdir["bp"]]) == 0

    def test_wrong_charge_bp_rejected(self, workdir):
        assert main(["check", "bp", workdir["tseitin_zero"], workdir["bp"]]) != 0

    def test_huge_sink_vertex_bp_rejected(self, workdir, tmp_path, capsys):
        # a sink naming vertex 10^12 fails condition 2 without a 10^12-bit mask
        huge = tmp_path / "huge.bp"
        huge.write_text("source 0\nsink 0 1000000000000\n")
        assert main(["check", "bp", workdir["tseitin"], str(huge)]) == 1
        err = capsys.readouterr().err
        assert "condition 2: sink annotation must be its unit-charged vertex" in err
        assert "Traceback" not in err

    def test_dnnf_equiv(self, workdir):
        assert main(["check", "dnnf-equiv", workdir["tseitin_zero"], workdir["nnf"]]) == 0

    def test_dnnf_not_equiv(self, workdir):
        assert main(["check", "dnnf-equiv", workdir["tseitin"], workdir["nnf"]]) != 0

    def test_dnnf_equiv_refuses_a_circuit_that_is_not_decomposable(self, tmp_path, capsys):
        """(NOT x1) AND (NOT x1 OR x1) computes the zero-charge formula of
        path 2, but its AND shares x1: not a DNNF, so no verdict."""
        t, d = tmp_path / "p2.tseitin", tmp_path / "shared.nnf"
        t.write_text("p tseitin 2 1\ng 0 0\ne 1 2\n")
        d.write_text("nnf 4 4 1\nL -1\nL 1\nO 0 2 0 1\nA 2 0 2\n")
        assert main(["check", "dnnf-equiv", str(t), str(d)]) == 1
        out = capsys.readouterr()
        assert out.out == "" and out.err == "circuit is not decomposable\n"

    def test_dnnf_equiv_refuses_a_formula_above_the_default_cap(self, tmp_path, capsys):
        """grid 4 4 has m = 24, above the default desk-scale cap of 16:
        refused before any truth table is built."""
        g = fam.grid(4, 4)
        zero = TseitinFormula(g, (0,) * g.n)
        _, d, _ = pipeline(g, unit_charge(g.n, 0), zero.charge, desk_cap=0)
        t, nnf = tmp_path / "g44.tseitin", tmp_path / "g44.nnf"
        t.write_text(tseitin_to_text(zero))
        nnf.write_text(nnf_to_text(d))
        assert main(["check", "dnnf-equiv", str(t), str(nnf)]) == 1
        out = capsys.readouterr()
        assert out.out == "" and out.err == "formula exceeds the desk-scale cap\n"

    def test_dnnf_equiv_refuses_other_variable_counts(self, workdir, tmp_path, capsys):
        """The C3 circuit read against the 4-edge path's formula."""
        t = tmp_path / "p5.tseitin"
        t.write_text(tseitin_to_text(TseitinFormula(fam.path(5), (0,) * 5)))
        assert main(["check", "dnnf-equiv", str(t), workdir["nnf"]]) == 1
        out = capsys.readouterr()
        assert out.out == "" and out.err == "variable counts differ\n"

    def test_dnnf_equiv_at_the_variable_cap(self, tmp_path):
        """grid 4 4 has m = 24, the largest table the desk-scale check builds."""
        g = fam.grid(4, 4)
        zero = TseitinFormula(g, (0,) * g.n)
        _, d, _ = pipeline(g, unit_charge(g.n, 0), zero.charge, desk_cap=0)
        lines = nnf_to_text(d).splitlines()
        first = next(i for i, ln in enumerate(lines) if ln.startswith("L "))
        lines[first] = f"L {-int(lines[first].split()[1])}"
        paths = {}
        for name, text in (("t", tseitin_to_text(zero)), ("good", nnf_to_text(d)), ("flipped", "\n".join(lines) + "\n")):
            paths[name] = tmp_path / name
            paths[name].write_text(text)
        for name, code in (("good", 0), ("flipped", 1)):
            assert main(["check", "dnnf-equiv", str(paths["t"]), str(paths[name]), "--desk-scale-cap", "24"]) == code, name

    def test_dnnf_equiv_cap_above_the_table_cap_is_a_usage_error(self, workdir, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["check", "dnnf-equiv", workdir["tseitin_zero"], workdir["nnf"], "--desk-scale-cap", "25"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "argument --desk-scale-cap: 25 exceeds the truth table cap 24" in err and "Traceback" not in err

    def test_certificate(self, workdir):
        assert main(["check", "certificate", workdir["k4"], workdir["cert"]]) == 0

    @pytest.mark.parametrize("count", [1, 3])
    def test_wrong_file_count_is_a_usage_error(self, workdir, capsys, count):
        with pytest.raises(SystemExit) as exit_info:
            main(["check", "certificate", *[workdir["k4"]] * count])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:") and "Traceback" not in err

    def test_certificate_wrong_graph(self, workdir):
        assert main(["check", "certificate", workdir["graph"], workdir["cert"]]) != 0

    @pytest.mark.parametrize("line,name", [
        ("treewidht: 99", "treewidht"), ("not a field at all", "not a field at all"),
        # fields an older format stored, with their genuine values: the verifier derives each
        ("bw_lower: 2", "bw_lower"), ("minor_m: 8", "minor_m"), ("minor_max_degree: 4", "minor_max_degree"),
        ("cap_exponent: 3", "cap_exponent"), ("bound: 2", "bound"),
        # and the graph's size, treewidth and provenance: the chain reads the stored minor
        ("n: 9", "n"), ("m: 12", "m"), ("treewidth: 3", "treewidth"), ("tw_provenance: exact-dp", "tw_provenance"),
    ])
    def test_certificate_with_an_unknown_field(self, tmp_path, capsys, line, name):
        """A genuine grid 3x3 certificate with one line that names no
        certificate field is refused, naming the file and the line, with
        no traceback."""
        g = fam.grid(3, 3)
        text = certificate_to_text(certified_lower_bound(g))
        graph, cert = tmp_path / "g33.graph", tmp_path / "g33.cert"
        graph.write_text(graph_to_text(g))
        cert.write_text(text)
        assert main(["check", "certificate", str(graph), str(cert)]) == 0
        cert.write_text(text + line + "\n")
        assert main(["check", "certificate", str(graph), str(cert)]) == 1
        number = len(text.splitlines()) + 1
        assert capsys.readouterr().err == f"error: {cert}: line {number}: unknown field {name!r}\n"


    @pytest.mark.parametrize("edits, message", [
        ({"v_prime": "1 1 1", "v_second": "1", "v_star": "1"}, "witness set repeats a vertex"),
        ({"k": "0"}, "k disagrees with the constant chain"),
    ], ids=["repeated-vertex", "k0"])
    def test_forged_certificate(self, tmp_path, capsys, edits, message):
        """A genuine grid 4x4 certificate with edited fields: its boundary
        `1 1 1` has one vertex, though the branchwidth stage asks for 3;
        k = 0 is not the chain's value on its 3-connected minor."""
        g = fam.grid(4, 4)
        lines = certificate_to_text(certified_lower_bound(g)).splitlines()
        for name, value in edits.items():
            (i,) = [i for i, line in enumerate(lines) if line.startswith(name + ":")]
            lines[i] = f"{name}: {value}"
        graph, cert = tmp_path / "g44.graph", tmp_path / "g44.cert"
        graph.write_text(graph_to_text(g))
        cert.write_text("\n".join(lines) + "\n")
        assert main(["check", "certificate", str(graph), str(cert)]) == 1
        out = capsys.readouterr()
        assert out.out == "" and out.err == f"invalid certificate: {message}\n"


class TestUndecodableFile:
    """A file that is not UTF-8 is named in the one error line, as every
    other reader error is, so a command reading two files says which."""

    @pytest.fixture
    def files(self, tmp_path):
        """A grid 3x3 graph and its certificate, good and with byte 0xff at
        position 18: path by name."""
        g = fam.grid(3, 3)
        texts = {"graph": graph_to_text(g), "cert": certificate_to_text(certified_lower_bound(g))}
        paths = {}
        for kind, text in texts.items():
            data = text.encode()
            for name, content in ((f"good_{kind}", data), (f"bad_{kind}", data[:18] + b"\xff" + data[18:])):
                paths[name] = str(tmp_path / name)
                Path(paths[name]).write_bytes(content)
        return paths

    @pytest.mark.parametrize("argv,bad", [
        (["pipeline", "--graph", "bad_graph"], "bad_graph"),
        (["check", "certificate", "bad_graph", "good_cert"], "bad_graph"),
        (["check", "certificate", "good_graph", "bad_cert"], "bad_cert"),
        (["convert", "bad_graph", "--format", "graph"], "bad_graph"),
    ])
    def test_names_the_file(self, files, capsys, argv, bad):
        code = main([files.get(arg, arg) for arg in argv])
        err = capsys.readouterr().err
        assert code == 1
        assert err == f"error: {files[bad]}: 'utf-8' codec can't decode byte 0xff in position 18: invalid start byte\n"


class TestConvert:
    @pytest.mark.parametrize("kind,fmt", [
        ("graph", "graph"), ("tseitin", "tseitin"), ("cnf", "cnf"),
        ("nnf", "nnf"), ("bp", "bp"), ("trace", "trace"),
    ])
    def test_round_trips(self, workdir, tmp_path, kind, fmt):
        out = tmp_path / f"out.{fmt}"
        assert main(["convert", workdir[kind], "--format", fmt, "--out", str(out)]) == 0
        again = tmp_path / f"again.{fmt}"
        assert main(["convert", str(out), "--format", fmt, "--out", str(again)]) == 0
        assert out.read_text() == again.read_text()

    def test_tseitin_to_cnf(self, workdir, tmp_path):
        out = tmp_path / "out.cnf"
        assert main(["convert", workdir["tseitin"], "--format", "cnf", "--out", str(out)]) == 0
        assert out.read_text() == open(workdir["cnf"]).read()

    def test_bad_file(self, workdir, tmp_path):
        junk = tmp_path / "junk"
        junk.write_text("what even is this\n")
        assert main(["convert", str(junk), "--format", "graph"]) == 1


class TestBuildBp:
    def test_emits_valid_program(self, workdir, tmp_path):
        out = tmp_path / "out.bp"
        assert main(["build-bp", workdir["tseitin"], "--out", str(out)]) == 0
        assert main(["check", "bp", workdir["tseitin"], str(out)]) == 0

    def test_satisfiable_rejected(self, workdir):
        assert main(["build-bp", workdir["tseitin_zero"]]) == 1


def _genuine_files() -> dict[str, str]:
    g = fam.cycle(3)
    c = unit_charge(3, 1)
    t = TseitinFormula(g, c)
    cnf = to_cnf(t)
    bp = build_well_structured_bp(g, c)
    d = retarget(compile_bp_to_dnnf(bp, g, c, 0), g, charge_add(c, unit_charge(3, 0)), (0, 0, 0))
    return {
        "graph": graph_to_text(g),
        "tseitin": tseitin_to_text(t),
        "zero": tseitin_to_text(TseitinFormula(g, (0, 0, 0))),
        "cnf": cnf_to_dimacs(cnf),
        "trace": trace_to_text(dpll_refute(cnf)),
        "bp": bp_to_text(bp),
        "nnf": nnf_to_text(d),
        "k4": graph_to_text(fam.complete(4)),
        "cert": certificate_to_text(certified_lower_bound(fam.complete(4))),
    }


GENUINE = _genuine_files()
_CERT_LINES = GENUINE["cert"].splitlines()
_K_LINE = next(i for i, ln in enumerate(_CERT_LINES, 1) if ln.startswith("k:"))

# argv naming files: @name is a genuine artifact, {name} the one that gets the edits
FUZZ_COMMANDS = [
    ["check", "refutation", "{cnf}", "@trace"],
    ["check", "refutation", "@cnf", "{trace}"],
    ["check", "bp", "{tseitin}", "@bp"],
    ["check", "bp", "@tseitin", "{bp}"],
    ["check", "dnnf-equiv", "{zero}", "@nnf"],
    ["check", "dnnf-equiv", "@zero", "{nnf}"],
    ["check", "certificate", "{k4}", "@cert"],
    ["check", "certificate", "@k4", "{cert}"],
    ["convert", "{graph}", "--format", "graph"],
    ["convert", "{tseitin}", "--format", "tseitin"],
    ["convert", "{tseitin}", "--format", "cnf"],
    ["convert", "{cnf}", "--format", "cnf"],
    ["convert", "{nnf}", "--format", "nnf"],
    ["convert", "{bp}", "--format", "bp"],
    ["convert", "{trace}", "--format", "trace"],
    ["build-bp", "{tseitin}"],
    ["pipeline", "--graph", "{k4}"],
    ["pipeline", "--graph", "{graph}"],
]

TOKENS = ["0", "1", "2", "3", "-1", "-2", "7", "99", "x", "", "0 0", "e", "p", "node", "sink", "L", "A", "O", ":"]

_edit = st.tuples(
    st.sampled_from(["drop", "duplicate", "replace", "insert"]),
    st.integers(0, 40),  # line
    st.integers(0, 6),  # field
    st.sampled_from(TOKENS),
)


def _apply(text: str, edits) -> str:
    lines = text.splitlines()
    for kind, line, field, token in edits:
        if not lines:
            lines = [token]
            continue
        i = line % len(lines)
        if kind == "drop":
            del lines[i]
        elif kind == "duplicate":
            lines.insert(i, lines[i])
        elif kind == "insert":
            lines.insert(i, token)
        else:
            fields = lines[i].split() or [""]
            fields[field % len(fields)] = token
            lines[i] = " ".join(fields)
    return "\n".join(lines) + "\n"


class TestMalformedInput:
    @pytest.mark.parametrize("argv,text,line", [
        (["check", "bp", "@tseitin", "{bp}"], "source 0\nnode 0 1\n", 2),
        (["convert", "{graph}", "--format", "graph"], "p graph 2 1\ne 1\n", 2),
        (["check", "dnnf-equiv", "@zero", "{nnf}"], "nnf 2 2 3\nL 1\nA 2 0 5\n", 3),
        (["check", "bp", "{tseitin}", "@bp"], "p tseitin 3 3\ng 1 0 0\ne 1 2\ne 2 9\ne 1 3\n", 4),
        (["convert", "{tseitin}", "--format", "tseitin"], "e 0 1\np tseitin 2 1\ng 0 0\n", 1),
        (["check", "dnnf-equiv", "@zero", "{nnf}"], "nnf 2 0 3\nL 1\nA\n", 3),
        (["convert", "{nnf}", "--format", "nnf"], "nnf 2 0 3\nL 1\nO 0\n", 3),
        (["convert", "{tseitin}", "--format", "tseitin"], "p tseitin 2 1\ng 0 2\ne 1 2\n", 2),
    ])
    def test_error_names_the_line(self, tmp_path, capsys, argv, text, line):
        assert main(_fuzz_argv(tmp_path, argv, text)) == 1
        assert f"line {line}:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,text,message", [
        (["convert", "{graph}", "--format", "graph"], "p graph 3 2\ne 1 2\ne 2 2\n",
         "line 3: loop at vertex 2"),
        (["convert", "{tseitin}", "--format", "tseitin"], "p tseitin 3 2\ng 1 0 0\ne 1 2\ne 2 1\n",
         "line 4: parallel edge (1, 2), first on line 3"),
    ], ids=["loop", "parallel_edge"])
    def test_loop_and_parallel_edge_name_the_line(self, tmp_path, capsys, argv, text, message):
        assert main(_fuzz_argv(tmp_path, argv, text)) == 1
        assert capsys.readouterr().err == f"error: {tmp_path / 'fuzzed'}: {message}\n"

    @pytest.mark.parametrize("argv,text,message", [
        (["convert", "{bp}", "--format", "bp"], "source 0\nnode 0 0 1 2\nnode 0 1 1 2\nsink 1 0\nsink 2 1\n",
         "line 3: repeated id 0, first on line 2"),
        (["check", "bp", "@tseitin", "{bp}"], "source 0\nnode 0 0 1 2\nsink 1 0\nsink 2 1\nsink 1 2\n",
         "line 5: repeated id 1, first on line 3"),
        (["check", "bp", "@tseitin", "{bp}"], "source 0\nnode 0 0 1 2\nsink 1 0\nsink 2 1\nsink 0 2\n",
         "line 5: repeated id 0, first on line 2"),
        (["convert", "{bp}", "--format", "bp"], "source 0\nsource 7\nnode 0 0 1 2\nsink 1 0\nsink 2 1\n",
         "line 2: second source line, first on line 1"),
        (["convert", "{graph}", "--format", "graph"], "p graph 2 1\ne 1 2\np graph 5 1\n",
         "line 3: second header, first on line 1"),
        (["convert", "{tseitin}", "--format", "tseitin"], "p tseitin 2 1\ng 1 1\n# c\np tseitin 2 1\ne 1 2\n",
         "line 4: second header, first on line 1"),
        (["convert", "{tseitin}", "--format", "tseitin"], "p tseitin 2 1\ng 1 1\ne 1 2\ng 0 0\n",
         "line 4: second charge line, first on line 2"),
        (["check", "refutation", "{cnf}", "@trace"], "c x\np cnf 1 2\n1 0\np cnf 1 2\n-1 0\n",
         "line 4: second header, first on line 2"),
        (["check", "certificate", "@k4", "{cert}"], GENUINE["cert"] + _CERT_LINES[_K_LINE - 1] + "\n",
         f"line {len(_CERT_LINES) + 1}: repeated field k, first on line {_K_LINE}"),
    ], ids=["node_twice", "sink_twice", "node_then_sink", "source_twice", "graph_header_twice", "tseitin_header_twice",
            "tseitin_charge_twice", "cnf_header_twice", "certificate_field_twice"])
    def test_repeated_record_names_both_lines(self, tmp_path, capsys, argv, text, message):
        assert main(_fuzz_argv(tmp_path, argv, text)) == 1
        assert capsys.readouterr().err == f"error: {tmp_path / 'fuzzed'}: {message}\n"

    @pytest.mark.parametrize("argv,text,message", [
        (["check", "refutation", "{cnf}", "@trace"], "p cnf 4 2\n1 2 0\n5 -1 0\n",
         "line 3: literal 5 out of range"),
        (["check", "refutation", "{cnf}", "@trace"], "c a comment\np cnf 4 2\n1 2 0\n\n3 -1 1 0\n",
         "line 5: clause [-1, 1, 3] contains a variable and its negation"),
        (["convert", "{cnf}", "--format", "cnf"], "1 -4 0\np cnf 3 1\n",
         "line 1: literal -4 out of range"),
    ], ids=["literal_out_of_range", "variable_and_negation", "clause_before_header"])
    def test_bad_clause_names_its_line(self, tmp_path, capsys, argv, text, message):
        assert main(_fuzz_argv(tmp_path, argv, text)) == 1
        assert capsys.readouterr().err == f"error: {tmp_path / 'fuzzed'}: {message}\n"

    @pytest.mark.parametrize("argv", [
        ["check", "refutation", "@cnf", "{trace}"],
        ["check", "bp", "{tseitin}", "@bp"],
        ["check", "dnnf-equiv", "@zero", "{nnf}"],
        ["check", "certificate", "{k4}", "@cert"],
        ["convert", "{cnf}", "--format", "cnf"],
        ["convert", "{tseitin}", "--format", "cnf"],
        ["pipeline", "--graph", "{graph}"],
        ["build-bp", "{tseitin}"],
    ], ids=lambda argv: "-".join(a.strip("{}@") for a in argv if not a.startswith("-")))
    def test_reader_error_names_the_file(self, tmp_path, capsys, argv):
        """A reader's error is prefixed with the file it read, exit 1."""
        slot = next(a for a in argv if a.startswith("{")).strip("{}")
        lines = GENUINE[slot].splitlines()
        lines[1] = "x 1 0 0"
        assert main(_fuzz_argv(tmp_path, argv, "\n".join(lines) + "\n")) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {tmp_path / 'fuzzed'}: line 2: ") and err.count("\n") == 1

    def test_huge_vertex_count_is_an_error(self, tmp_path, capsys):
        """A header announcing 10^15 vertices asks the charge for an 8 PB
        list, which fails at once: one error line, exit 1, no traceback."""
        text = "p graph 1000000000000000 1\ne 1 2\n"
        assert main(_fuzz_argv(tmp_path, ["pipeline", "--graph", "{graph}"], text)) == 1
        assert capsys.readouterr() == ("", "error: out of memory\n")

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(argv=st.sampled_from(FUZZ_COMMANDS), edits=st.lists(_edit, min_size=1, max_size=4))
    def test_main_returns_an_exit_code(self, argv, edits):
        slot = next(a for a in argv if a.startswith("{"))
        text = _apply(GENUINE[slot.strip("{}")], edits)
        with tempfile.TemporaryDirectory() as tmp:
            sink = io.StringIO()
            with redirect_stdout(sink), redirect_stderr(sink):
                rc = main(_fuzz_argv(Path(tmp), argv, text))
        assert rc in (0, 1, 2)


class TestHugeVariableIds:
    """A variable id of 10^12 costs one entry in a trace's variable table,
    not a 10^12-bit mask."""

    TRACE = "1 1 1000000000000 0 0\n"
    CNF = "p cnf 1000000000000 1\n1000000000000 0\n"

    def run(self, tmp_path, capsys, argv):
        (tmp_path / "h.trace").write_text(self.TRACE)
        (tmp_path / "h.cnf").write_text(self.CNF)
        start = time.process_time()
        code = main([str(tmp_path / arg) if arg.startswith("h.") else arg for arg in argv])
        assert time.process_time() - start < 0.5
        return code, capsys.readouterr()

    def test_check_refutation(self, tmp_path, capsys):
        code, out = self.run(tmp_path, capsys, ["check", "refutation", "h.cnf", "h.trace"])
        assert (code, out.out, out.err) == (1, "", "invalid refutation: step 1: axiom clause not in the input CNF\n")

    def test_convert_round_trips(self, tmp_path, capsys):
        code, out = self.run(tmp_path, capsys, ["convert", "h.trace", "--format", "trace"])
        assert (code, out.out, out.err) == (0, self.TRACE, "")


def _fuzz_argv(tmp: Path, argv: list[str], text: str) -> list[str]:
    """argv with each @name replaced by a file holding that genuine
    artifact and the {name} slot by a file holding `text`."""
    out = []
    for arg in argv:
        if arg.startswith("{"):
            path = tmp / "fuzzed"
            path.write_text(text)
            out.append(str(path))
        elif arg.startswith("@"):
            path = tmp / arg[1:]
            path.write_text(GENUINE[arg[1:]])
            out.append(str(path))
        else:
            out.append(arg)
    return out
