#!/usr/bin/env python3
"""Check the artifact float formatter against fmt_float, value by value.

The cells of modes.json, modes.csv and field.csv are formatted by one
vectorized kernel (``hamelflow.report.format_rows``); report.json's
scalars by ``fmt_float``, Python's ``%.17g`` with the artifacts' rules.
This script compares the two on N random 64-bit patterns (both signs,
every exponent, subnormals, nan and inf), processed in blocks, and on edge
families: every power of ten with both neighbours, the double nearest
1e-304, exact 17-digit ties, integers and the extreme doubles.

Given CSV artifacts, it also re-formats every numeric cell with
``fmt_float`` and compares the bytes; the integer mode label column ``n``
of modes.csv is not a float and is skipped.

    python scripts/check_formatter.py --count 20000000 --seed 1 \\
        out/field.csv out/modes.csv

Exits 1 and prints the first mismatches when any cell differs.
"""

import argparse
import math
import sys

import numpy as np

from hamelflow.report import fmt_float, format_rows

BLOCK = 2 ** 16
SHOW = 10


def edge_values():
    pow10 = np.array([float(f"1e{e}") for e in range(-323, 309)])
    k = np.arange(-2000, 2000)
    x = np.concatenate([
        pow10, np.nextafter(pow10, 0), np.nextafter(pow10, math.inf),
        [1e-304, 1e20, 1e21, 1e22, 9999999999999998.0, 1e16, 5e-324,
         sys.float_info.max, 0.0, 1e15 + 0.25],
        2.0 ** 52 + k / 4,
        np.ravel((2 * k + 1)[:, None] * 2.0 ** -np.arange(1, 64, 4)),
        np.arange(1000.0), [math.inf, math.nan]])
    return np.concatenate([x, -x])


class Mismatches:
    """The count of mismatches, and the first SHOW of them."""

    def __init__(self):
        self.count, self.first = 0, []

    def add(self, *item):
        self.count += 1
        if len(self.first) < SHOW:
            self.first.append(item)


def check_values(x, bad):
    """Add (value, kernel, fmt_float) for each cell that differs."""
    for part in np.array_split(x, -(-len(x) // BLOCK)):
        got = format_rows(part[:, None], "")
        for v, g in zip(part.tolist(), got):
            if g != fmt_float(v):
                bad.add(v, g, fmt_float(v))


def check_csv(path, bad):
    """Add (path:line, written, re-formatted) for each line that
    differs."""
    with open(path, "rb") as fh:
        header = fh.readline().decode("ascii").rstrip("\n").split(",")
        skip = {header.index("n")} if "n" in header else set()
        for number, raw in enumerate(fh, start=2):
            line = raw.decode("ascii").rstrip("\n")
            cells = line.split(",")
            again = ",".join(
                c if j in skip else
                fmt_float(math.nan if c == "null" else float(c))
                for j, c in enumerate(cells))
            if again != line or len(cells) != len(header):
                bad.add(f"{path}:{number}", line, again)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=int, default=1_000_000,
                        help="random 64-bit patterns to check")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("csv", nargs="*", help="CSV artifacts to re-format")
    args = parser.parse_args(argv)

    rng = np.random.default_rng(args.seed)
    bad, edges = Mismatches(), edge_values()
    check_values(edges, bad)
    for start in range(0, args.count, 16 * BLOCK):
        size = min(16 * BLOCK, args.count - start)
        bits = rng.integers(0, 2 ** 64, size, dtype=np.uint64)
        check_values(bits.view(np.float64), bad)
    for path in args.csv:
        check_csv(path, bad)

    for item in bad.first:
        print("MISMATCH", *map(repr, item))
    print(f"{args.count} random patterns, {len(edges)} edge values, "
          f"{len(args.csv)} CSV files: {bad.count} mismatches")
    return 1 if bad.count else 0


if __name__ == "__main__":
    sys.exit(main())
