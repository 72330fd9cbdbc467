#!/usr/bin/env python3
"""Run the full pipeline over the desk-scale bench family and write one
CSV row per instance.

Usage: python3 scripts/family_report.py [out.csv]
"""

import sys

from tseitinkit import families as fam
from tseitinkit.cli import CSV_HEADER, pipeline_row


def main() -> int:
    rows = [CSV_HEADER]
    for name, g in fam.desk():
        rows.append(pipeline_row(name, g, "odd-at 0", "zero"))
        print(rows[-1])
    if len(sys.argv) > 1:
        with open(sys.argv[1], "w") as fh:
            fh.write("\n".join(rows) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
