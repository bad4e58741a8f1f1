"""External malfunction oracle for the cli-subprocess workload.

Usage: python3 oracle_domain.py --domain ATTR[,ATTR...] [--allowed -1,1] DATASET.csv

Reads the CSV with the standard library only and prints, as its last
line, the conjunctive domain-remap score: the mean over the named
attributes of the share of present cells that are not one of the allowed
numbers (1.0 for an attribute with no present cell). It matches the
``builtin:domain-remap`` scorer, so the benchmark can check the CLI
against the library.
"""

import argparse
import csv
import sys


def bad_fraction(cells, allowed):
    present = [c for c in cells if c != ""]
    if not present:
        return 1.0
    bad = 0
    for cell in present:
        try:
            ok = float(cell) in allowed
        except ValueError:
            ok = False
        bad += not ok
    return bad / len(present)


def main(argv):
    parser = argparse.ArgumentParser()
    parser.add_argument("--domain", required=True)
    parser.add_argument("--allowed", default="-1,1")
    parser.add_argument("dataset")
    args = parser.parse_args(argv)
    allowed = {float(v) for v in args.allowed.split(",")}
    attributes = [a for a in args.domain.split(",") if a]
    with open(args.dataset, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    scores = [bad_fraction([row[header.index(a)] for row in body], allowed)
              for a in attributes]
    print(repr(sum(scores) / len(scores)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
