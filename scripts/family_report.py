#!/usr/bin/env python3
"""Run the full pipeline over the desk-scale bench family and write one
CSV row per instance.

Usage: python3 scripts/family_report.py [out.csv]
"""

import sys

from tseitinkit import families as fam
from tseitinkit.cli import CSV_HEADER, pipeline_row

BENCH = [
    ("C3", fam.cycle(3)), ("C4", fam.cycle(4)), ("C5", fam.cycle(5)), ("C6", fam.cycle(6)),
    ("P2", fam.path(2)), ("P3", fam.path(3)), ("P4", fam.path(4)), ("P5", fam.path(5)),
    ("K4", fam.complete(4)), ("K5", fam.complete(5)), ("W4", fam.wheel(4)),
    ("grid2x3", fam.grid(2, 3)), ("grid3x3", fam.grid(3, 3)), ("Q3", fam.cube(3)),
    ("bowtie", fam.bowtie()), ("twoK4", fam.two_k4_shared_edge()),
]


def main() -> int:
    rows = [CSV_HEADER]
    for name, g in BENCH:
        rows.append(pipeline_row(name, g, "odd-at 0", "zero"))
        print(rows[-1])
    if len(sys.argv) > 1:
        with open(sys.argv[1], "w") as fh:
            fh.write("\n".join(rows) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
