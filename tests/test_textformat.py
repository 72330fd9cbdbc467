"""The text readers against the `Line`-based readers they replaced.

Every reader splits its text once and each line once; the readers kept in
`lemmas` built a `Line` object for every line.  On genuine artifacts of the
desk families, and on seeded mutations of them (blank lines, comments,
CRLF and other line boundaries, tabs, leading spaces, odd integer tokens,
truncated, merged, repeated and dropped lines, sparse variable ids), each
pair must return equal objects or raise the same error with the same
message, line number included.
"""

import random

import pytest

from lemmas import (
    reference_bp_from_text,
    reference_certificate_from_text,
    reference_cnf_from_dimacs,
    reference_graph_from_text,
    reference_nnf_from_text,
    reference_trace_from_text,
    reference_trace_to_text,
    reference_tseitin_from_text,
    trace_of,
)
from tseitinkit import families as fam
from tseitinkit.bounds import certificate_from_text, certificate_to_text, certified_lower_bound
from tseitinkit.bp import bp_from_text, bp_to_text
from tseitinkit.cnf import cnf_from_dimacs, cnf_to_dimacs
from tseitinkit.compiler import pipeline
from tseitinkit.graphs import graph_from_text, graph_to_text
from tseitinkit.nnf import nnf_from_text, nnf_to_text
from tseitinkit.resolution import ResolutionTrace, Step, dpll_refute, trace_from_text, trace_to_text
from tseitinkit.textformat import once
from tseitinkit.tseitin import TseitinFormula, to_cnf, tseitin_from_text, tseitin_to_text, unit_charge

READERS = {
    "graph": (graph_from_text, reference_graph_from_text),
    "tseitin": (tseitin_from_text, reference_tseitin_from_text),
    "cnf": (cnf_from_dimacs, reference_cnf_from_dimacs),
    "bp": (bp_from_text, reference_bp_from_text),
    "nnf": (nnf_from_text, reference_nnf_from_text),
    "trace": (trace_from_text, reference_trace_from_text),
    "certificate": (certificate_from_text, reference_certificate_from_text),
}


def _genuine() -> dict[str, list[str]]:
    texts: dict[str, list[str]] = {fmt: [] for fmt in READERS}
    for _, g in fam.desk():
        c = unit_charge(g.n, 0)
        formula = to_cnf(TseitinFormula(g, c))
        _, d, b = pipeline(g, c, (0,) * g.n, desk_cap=0)
        texts["graph"].append(graph_to_text(g))
        texts["tseitin"].append(tseitin_to_text(TseitinFormula(g, c)))
        texts["cnf"].append(cnf_to_dimacs(formula))
        texts["bp"].append(bp_to_text(b))
        texts["nnf"].append(nnf_to_text(d))
        texts["trace"].append(trace_to_text(dpll_refute(formula)))
        texts["certificate"].append(certificate_to_text(certified_lower_bound(g)))
    return texts


GENUINE = _genuine()

COMMENTS = ["# note", "#", "  # indented", "c note", "c", "c\tnote", "c  two spaces", "cx", "\tc note", "c 1 2 0"]
BLANKS = ["", "   ", "\t", " \t "]
TOKENS = ["01", "+1", "-0", "00", "+0", "x", "1_0", "-01", "0", "1", "-1", "2", "7", str(10**12), f"-{10**12}",
          "١", "1.0", ":", "-", "1-2", "A", "L", "O", "e", "p", "node", "sink", "source", "nnf"]
BOUNDARIES = ["\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", " "]


def _sparse(text: str, rng: random.Random) -> str:
    """Every literal of a trace or DIMACS text renamed by one injective map
    into 1..10**12; the rest of each line left as it is."""
    names: dict[int, int] = {}
    out = []
    for line in text.splitlines():
        fields = line.split()
        if not fields or not all(f.lstrip("-").isdigit() for f in fields):
            out.append(line)
            continue
        first = 1 if len(fields) > 1 and fields[-1] == "0" and fields.count("0") >= 2 else 0  # trace lines lead with an id
        try:
            end = fields.index("0", first)
        except ValueError:
            out.append(line)
            continue
        for k in range(first, end):
            v = abs(int(fields[k]))
            if v not in names:
                names[v] = rng.randrange(1, 10**12 + 1)
            fields[k] = str(names[v] if int(fields[k]) > 0 else -names[v])
        out.append(" ".join(fields))
    return "\n".join(out) + "\n"


def mutate(text: str, rng: random.Random) -> str:
    """One to three seeded edits of `text`."""
    for _ in range(rng.randint(1, 3)):
        lines = text.split("\n")
        i = rng.randrange(len(lines))
        kind = rng.randrange(13)
        if kind == 0:
            lines.insert(i, rng.choice(BLANKS))
        elif kind == 1:
            lines.insert(i, rng.choice(COMMENTS))
        elif kind == 2:
            text = text.replace("\n", rng.choice(BOUNDARIES), rng.choice([1, 3, -1]))
            continue
        elif kind == 3:
            lines[i] = lines[i].replace(" ", rng.choice(["\t", "  ", " \t"]), rng.choice([1, -1]))
        elif kind == 4:
            lines[i] = rng.choice([" ", "  ", "\t"]) + lines[i] + rng.choice(["", " ", "\t "])
        elif kind == 5:
            fields = lines[i].split()
            if fields:
                fields[rng.randrange(len(fields))] = rng.choice(TOKENS)
                lines[i] = " ".join(fields)
        elif kind == 6:
            fields = lines[i].split()
            lines[i] = " ".join(fields[:rng.randrange(len(fields) + 1)])
        elif kind == 7:
            text = text[:rng.randrange(len(text) + 1)]
            continue
        elif kind == 8 and i + 1 < len(lines):
            lines[i:i + 2] = [lines[i] + rng.choice([" ", ""]) + lines[i + 1]]
        elif kind == 9:
            lines.insert(i, lines[rng.randrange(len(lines))])
        elif kind == 10:
            del lines[i]
        elif kind == 11:
            j = rng.randrange(len(lines))
            lines[i], lines[j] = lines[j], lines[i]
        else:
            text = _sparse(text, rng)
            continue
        text = "\n".join(lines)
    return text


def outcome(reader, text: str):
    """What reading `text` gives: the object, or the error's type and message."""
    try:
        result = reader(text)
    except Exception as exc:  # every escape is compared, not only ValueError
        return type(exc).__name__, str(exc)
    if isinstance(result, ResolutionTrace):  # its == ignores the table; compare it too
        return result.variables, result.steps
    return result


def cases(fmt: str, per_text: int, seed: int):
    rng = random.Random(f"{fmt}:{seed}")
    for text in GENUINE[fmt]:
        yield text
        for _ in range(per_text):
            yield mutate(text, rng)


@pytest.mark.parametrize("fmt", sorted(READERS))
def test_genuine_artifacts_read_alike(fmt):
    new, reference = READERS[fmt]
    for text in GENUINE[fmt]:
        assert outcome(new, text) == outcome(reference, text)


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("fmt", sorted(READERS))
def test_mutated_texts_read_alike(fmt, seed):
    new, reference = READERS[fmt]
    errors = 0
    for text in cases(fmt, 12, seed):
        expected = outcome(reference, text)
        assert outcome(new, text) == expected, repr(text)
        errors += isinstance(expected, tuple) and isinstance(expected[0], str)
    assert errors > 0  # the mutations reach the error paths


# Hand-picked texts for each rule a random edit may miss.
EDGE_CASES = {
    "graph": [
        "p graph 2 1\r\ne 1 2\r\n", "# c\n\n  p graph 2 1\n\te 1\t2  \n", "p graph 2 1\ne 01 +2\n",
        "p graph 2 1\ne 1 x\n", "p graph 2 1\ne 1 2 3\n", "e 1 2\np graph 2 1\n", "p graph 2 1\np graph 3 1\ne 1 3\n",
        "p graph 3 2\ne 1 2\ne 2 1\n", "p graph 2 1\ne 1 3\n", "p graph 2 1\nx 1 2\n", "p graph 2\n", "p cnf 2 1\n",
        "p graph 2 1\x0be 1 2\n", "p graph 2 1 e 1 2\n", "", "\n\n", "# only\n",
        "p graph 2 1\np graph x\n", "p graph 2 1\ne 1 2\np cnf 1 1\n",
    ],
    "tseitin": [
        "p tseitin 2 1\ng 1 1\ne 1 2\n", "p tseitin 2 1\ng 1\ne 1 2\n", "p tseitin 2 1\ng 1 x\ne 1 2\n",
        "g 1 1\ne 1 2\np tseitin 2 1\n", "p tseitin 2 1\ne 1 2\n", "p tseitin 3 2\ng 1 0 1\ne 1 2\ne 2 1\n",
        "p tseitin 2 1\r\ng 1 1\r\ne 1 5\r\n", "p tseitin 2 1\ng 1 1\ng x\ne 1 2\n", "p tseitin 2 1\np tseitin\n",
        "g 1 1\np tseitin 2 1\ng 1 1\n",
        # a charge bit outside 0/1, with the header later or missing, and on a charge of the wrong length
        "p tseitin 2 1\ng 0 2\ne 1 2\n", "g -1 1\np tseitin 2 1\ne 1 2\n", "g 0 2\n", "p tseitin 2 1\ng 0 0 7\n",
    ],
    "cnf": [
        "c\np cnf 1 2\n1 0\n-1 0\n", "cat\np cnf 1 1\n1 0\n", "p cnf 1 1\n1\n", "p cnf 1 1\n1 0 1 0\n",
        "p cnf 1 1\n0\n", "p cnf 1 1\n-0 1 0\n", "p cnf 1 1\n+1 00\n", "p cnf 2 1\n1 1 0\n", "p cnf 1 1\n1 -1 0\n",
        f"p cnf {10**12} 1\n{10**12} -1 0\n", "p cnf 1 2\n1 0\n", "p cnf 1\n", "p dnf 1 1\n1 0\n", "\tc x\np cnf 1 1\n1 0\n",
        "p cnf 1 1\np dnf 1\n1 0\n",
    ],
    "bp": [
        "source 0\nnode 0 0 1 2\nsink 1 0\nsink 2 1\n", "source 0\nnode 0 0 1\n", "source 0\nnode 0 0 1 2 3\n",
        "source 0\nnode 0 x 1 2\n", "source 0\nsink 0 1\n", "source 0\nsource 0\n", "node 0 0 1 2\nsink 0 1\n",
        "source 0\nnode 01 0 1 2\nsink 1 0\nsink 2 1\n", "source\n", "source 0\nleaf 1 0\n", "source 0 1\n",
        "source 0\nsource x\n", "source 0\nnode 0 0 1 2\nsink 1 0\nsink 2 1\nsource 0\n",
    ],
    "nnf": [
        "nnf 1 0 1\nL 1\n", "c x\nnnf 1 0 1\nL 1\n", "c\nnnf 1 0 1\nL 1\n", "c\tx\nnnf 1 0 1\nL 1\n",
        "nnf 1 0 1\nc  x\nL 1\n", "nnf 1 0 1\nL 2\n", "nnf 1 0 1\nL 0\n", "nnf 1 0 1\nL -0\n", "nnf 1 0 1\nL +1\n",
        "nnf 2 0 1\nL 1\nA 0\n", "nnf 1 0 1\nA 0\n", "nnf 1 0 1\nO 0 0\n", "nnf 1 0 1\nO x 0\n", "nnf 1 0 1\nA\n",
        "nnf 1 0 1\nO 0\n", "nnf 2 0 1\nL 1\nA 2 0\n", "nnf 2 0 1\nL 1\nA 1 1\n", "nnf 2 0 1\nL 1\nA 1 -1\n",
        "nnf 3 0 2\nL 1\nL 2\nA 2 0 1\n", "nnf 4 0 3\nL 1\nL 2\nL 3\nO 0 3 0 1 2\n", "nnf 2 0 1\nL 1\nX 0\n",
        "nnf 3 0 1\nL 1\nA x\n", "nnf 1 0 1\nL 1\nL 1\nQ\n", "nnf 0 0 0\n", "nnf 1 0\nL 1\n", "dnnf 1 0 1\nL 1\n",
        "", "c x\n", "nnf 1 0 1\nL 1 2\n", "nnf 2 0 1\nL 1\nA 1 x\nL\n",
    ],
    "trace": [
        "1 1 0 0\n2 -1 0 0\n3 0 1 2 0\n", "1 1 -0 0\n", "1 1 0 -0\n", "1 1 00 0\n", "1 +1 01 0 0\n",
        "1 1 1 0 0\n", "1 1 01 -1 0 0\n", "1 x 0 0\n", "x 1 0 0\n", "1 1 2\n", "1 1 0\n", "1 1 0 5\n",
        "1 1 0 2 0\n", "1 1 0 2 3 4 0\n", "1 0 0 0\n", "1 1 0 0 0 0\n", "1 0\n", "# c\n\n1 1 0 0\r\n",
        f"1 {10**12} -7 0 0\n2 {-10**12} 0 0\n3 -7 0 1 2 0\n", "1 ١ 0 0\n", "1 1_0 0 0\n",
        "1 2 0 0\n2 -2 0 0\n3 0 x 2 0\n", "5 1 0 3 0 0\n", "",
    ],
    "certificate": [
        "minor_n: 1\n", "k: 1\nk: 2\n", "just text\n", "minor_n 1\n", "k: 1\nminor_n: 1\nk: x\n",
        # a line that names no certificate field, before and after a repeat
        "minor_n: 1\ntreewidht: 99\n", "k: 1\ntw_provenance: exact-dp\n", "not a field at all\n", ": 1\n", "N: 1\n", "k: 1\nk: 2\nkk: 3\n",
        "kk: 3\nk: 1\nk: 2\n", "# c\n\n  n x: 1\n",
    ],
}


@pytest.mark.parametrize("fmt", sorted(READERS))
def test_edge_cases_read_alike(fmt):
    new, reference = READERS[fmt]
    for text in EDGE_CASES[fmt]:
        assert outcome(new, text) == outcome(reference, text), repr(text)


def test_certificate_field_errors_quote_the_value():
    lines = GENUINE["certificate"][8].splitlines()  # K4
    new, reference = READERS["certificate"]
    for i, line in enumerate(lines):
        name = line.partition(":")[0]
        for value in ("", " x", " 1 2", " 1-", " 1-2-3", " 0-x", "\t7\t"):
            text = "\n".join(lines[:i] + [name + ":" + value] + lines[i + 1:]) + "\n"
            assert outcome(new, text) == outcome(reference, text), repr(text)


@pytest.mark.parametrize("text, number", [
    ("p tseitin 3 2\ng 0 2 0\ne 1 2\ne 2 3\n", 2), ("# c\n\ng 1 -1\np tseitin 2 1\ne 1 2\n", 3),
])
def test_charge_bit_outside_0_1_names_its_line(text, number):
    with pytest.raises(ValueError) as got:
        tseitin_from_text(text)
    assert str(got.value) == f"line {number}: charge bits must be 0/1"


@pytest.mark.parametrize("text, message", [
    ("", "missing header"), ("g 0 0\ne 1 2\n", "missing header"), ("p tseitin 2 1\ne 1 2\n", "missing charge line"),
    ("p tseitin 3 1\ng 0 0\ne 1 2\n", "header announces 3 vertices, charge line has 2 bits"),
    ("p tseitin 2 1\ng 0 0 1\ne 1 2\n", "header announces 2 vertices, charge line has 3 bits"),
    ("p tseitin 2 2\ng 0 0\ne 1 2\n", "header announces 2 edges, found 1"),
    ("p tseitin 3 1\ng 0 0 0\ne 1 2\ne 2 3\n", "header announces 1 edges, found 2"),
])
def test_tseitin_count_errors_name_the_count(text, message):
    """A missing record or a count the body does not match names which,
    in the graph reader's wording, and the reference reads it alike."""
    new, reference = READERS["tseitin"]
    assert outcome(new, text) == outcome(reference, text) == ("ValueError", message)


def test_trace_writer_matches_the_reference():
    """Byte for byte: genuine traces, their mutations that still read, and
    hand-made ones with tautologies, both polarities of one variable in
    different fragments, an empty table and sparse or far-apart ids."""
    traces = []
    for seed in (1, 2):
        for text in cases("trace", 12, seed):
            try:
                traces.append(trace_from_text(text))
            except ValueError:
                pass
    traces += [
        trace_of([(1, (1, -1), None), (2, (9, -9, 17, -3), None), (3, (), (1, 2))]),
        trace_of([(5, (), None)]),
        trace_of([(1, (10**12, -7, 8, -15, 16, 33), None), (2, (-(10**12),), None), (3, (-7, 33), (1, 2))]),
        trace_of([(k, (k, -(k + 1)), None) for k in range(1, 70)]),
        ResolutionTrace((Step(1, 0, 0), Step(2, 0, 0, (1, 1))), ()),
    ]
    assert len(traces) > 100
    for trace in traces:
        assert trace_to_text(trace) == reference_trace_to_text(trace)


def test_trace_writer_refuses_a_bit_outside_the_table():
    for step in (Step(1, 1 << 2, 0), Step(1, 0, 1 << 9), Step(1, 1 << 70, 0)):
        with pytest.raises(ValueError, match="step 1: a literal outside the variable table"):
            trace_to_text(ResolutionTrace((step,), (4, 5)))


def test_once_names_the_first_line():
    lines = ["p a", "# c", "p b", "q"]
    first: dict = {}
    once(lines, 0, first, "p", "second header")
    once(lines, 3, first, "q", "second q")  # another key is another record
    assert first == {"p": 0, "q": 3}
    with pytest.raises(ValueError) as got:
        once(lines, 2, first, "p", "second header")
    assert str(got.value) == "line 3: second header, first on line 1"
    assert first == {"p": 0, "q": 3}
