#!/usr/bin/env python3
"""`impactc sweep` must agree with the bench harness's per-cell CSV.

Compares the table `impactc sweep -l NAME` prints with the NAME rows of
`bench/main.exe csv`. Both must list the same (level, machine) cells,
and for every cell:

  - cycles are equal;
  - the speedups agree to 2 decimals (sweep prints %.2f, the CSV %.3f,
    so two roundings of one value differ by at most 0.0055);
  - sweep's regs equal the CSV's int_regs + float_regs.

Exits 1 and names every disagreeing cell otherwise.

Usage: python3 scripts/check_sweep.py NAME SWEEP_OUT CSV_OUT
"""

import csv
import sys


def sweep_rows(path):
    """(level, machine) -> (cycles, speedup, regs) from a sweep table."""
    rows = {}
    with open(path) as f:
        lines = [l.split() for l in f if l.strip()]
    for fields in lines[1:]:
        level, machine, cycles, speedup, regs = fields
        rows[(level, machine)] = (int(cycles), float(speedup), int(regs))
    return rows


def csv_rows(path, name):
    """(level, machine) -> (cycles, speedup, regs) for NAME's CSV rows."""
    rows = {}
    with open(path) as f:
        for r in csv.DictReader(l for l in f if l.strip()):
            if r["name"] == name:
                rows[(r["level"], r["machine"])] = (
                    int(r["cycles"]),
                    float(r["speedup"]),
                    int(r["int_regs"]) + int(r["float_regs"]),
                )
    return rows


def main():
    if len(sys.argv) != 4:
        sys.exit(__doc__)
    name, sweep_path, csv_path = sys.argv[1:]
    sweep, bench = sweep_rows(sweep_path), csv_rows(csv_path, name)
    errors = []
    if not bench:
        errors.append(f"no {name} rows in {csv_path}")
    if set(sweep) != set(bench):
        errors.append(f"cells differ: sweep {sorted(sweep)} vs csv {sorted(bench)}")
    for key in sorted(set(sweep) & set(bench)):
        (sc, ss, sr), (bc, bs, br) = sweep[key], bench[key]
        cell = "/".join(key)
        if sc != bc:
            errors.append(f"{cell}: cycles {sc} (sweep) vs {bc} (csv)")
        if abs(ss - bs) > 0.0055:
            errors.append(f"{cell}: speedup {ss} (sweep) vs {bs} (csv)")
        if sr != br:
            errors.append(f"{cell}: regs {sr} (sweep) vs {br} (csv int+float)")
    for e in errors:
        print(e, file=sys.stderr)
    if errors:
        sys.exit(1)
    print(f"sweep agrees with the harness on {len(sweep)} {name} cells")


if __name__ == "__main__":
    main()
