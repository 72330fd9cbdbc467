"""The line reader every text-format parser shares.

A reader splits its text once with `str.splitlines()` and each line once
with `str.split()`; a line makes no other object than its field list and
what its record becomes.

* A record is a line that is neither blank nor a comment.  Comments are
  lines whose stripped text starts with `#` (graph, tseitin, bp, trace,
  certificate), with `c` or `#` (cnf), or with `c ` (nnf: a `c` and a
  space; a bare `c`, or a `c` and a tab, is a record, and a malformed
  one).
* Line numbers count every physical line that `str.splitlines()` sees,
  records or not, from 1: blank and comment lines count, and `\\r\\n`,
  `\\r` and the other line boundaries it knows each end a line.
* A record that may occur once (a header, a charge line, a program's
  source, a certificate field) and occurs again raises
  `ValueError("line N: <what>, first on line M")` (`once`).
* A `p <kind> a b` header (graph, tseitin, cnf) is read by `header`: a
  second one raises `second header`, a wrong kind or field count
  `bad header: <line>`.
* A malformed record raises `ValueError("line N: <what is wrong>")`.
  Where the message quotes the line it quotes its stripped text.  An error
  about the file as a whole (a missing header, a count the body does not
  match) names no line.

The line number and the stripped text are built only when an error is
raised, from the line list and the record's index into it (`error`).
`ints` converts fields and raises the error for a wrong count or a field
that is no integer; a reader converts its frequent records inline and
calls `ints` only when that conversion fails.
"""

from __future__ import annotations


def lines_of(text: str) -> tuple[list[str], enumerate]:
    """The text's lines, and (index, fields) for each of them, fields split
    on whitespace; a reader skips the blank lines and comments itself."""
    lines = text.splitlines()
    return lines, enumerate(map(str.split, lines))


def error(lines: list[str], i: int, message: str) -> ValueError:
    """The error for line i of `lines` (0-based): `line i+1: message`."""
    return ValueError(f"line {i + 1}: {message}")


def once(lines: list[str], i: int, first: dict, key, what: str) -> None:
    """Record that line i holds `key`, a record that may occur once;
    `first` maps each key seen to its line index.  A second occurrence
    raises `line i+1: <what>, first on line M`."""
    if key in first:
        raise error(lines, i, f"{what}, first on line {first[key] + 1}")
    first[key] = i


def ints(lines: list[str], i: int, values: list[str], count: int | None = None, text: str | None = None) -> list[int]:
    """`values`, fields of line i, as integers: exactly `count` of them
    unless count is None.  An error quotes `text`, by default the line,
    stripped."""
    if count is None or len(values) == count:
        try:
            return list(map(int, values))
        except ValueError:
            problem = "not a list of integers: {!r}"
    else:
        problem = f"expected {count} numbers in {{!r}}"
    raise error(lines, i, problem.format((lines[i] if text is None else text).strip()))


def header(lines: list[str], i: int, fields: list[str], first: dict, kind: str) -> list[int]:
    """The two counts of the `p <kind> a b` header on line i, whose fields
    are `fields`; `first` is the reader's `once` record, keyed "p"."""
    once(lines, i, first, "p", "second header")
    if len(fields) != 4 or fields[1] != kind:
        raise error(lines, i, f"bad header: {lines[i].strip()}")
    return ints(lines, i, fields[2:], 2)
