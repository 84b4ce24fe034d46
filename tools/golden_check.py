#!/usr/bin/env python3
"""Golden-output checker for ported scenario benches.

Canonicalizes a run's stdout into the parts that must be bit-identical
across the legacy bench binary and the scenario driver — every ASCII
density map, plus named metric columns of the last N data rows of the
metrics table — and compares against (or captures) a golden file.

The round-label column is dropped on purpose: the legacy benches label
rows with the simulator's post-round counter (21..30) while the scenario
driver uses completed-round ids (20..29); the metric *values* must match
byte for byte.

Usage:
  golden_check.py --canon OUT.txt --rows 10 --cols homogeneity,reference_h,...
      print the canonical form of a captured output (golden capture)
  golden_check.py --golden FILE --rows 10 --cols ... -- CMD ARGS...
      run CMD, canonicalize its stdout, diff against FILE; exit 1 on
      mismatch
"""

import argparse
import re
import subprocess
import sys


def density_maps(text):
    maps, cur, inside = [], [], False
    for line in text.splitlines():
        if re.fullmatch(r"\+-+\+", line):
            cur.append(line)
            if inside:
                maps.append("\n".join(cur))
                cur = []
            inside = not inside
        elif inside:
            cur.append(line)
    return maps


def table_rows(text, cols):
    """Last table whose header contains all of `cols` -> list of dicts."""
    lines = text.splitlines()
    best = None
    for i, line in enumerate(lines):
        if not line.startswith("|"):
            continue
        cells = [c.strip() for c in line.strip("|\n").split("|")]
        if all(c in cells for c in cols):
            best = (i, cells)
    if best is None:
        sys.exit(f"golden_check: no table with columns {cols} found")
    start, header = best
    rows = []
    for line in lines[start + 1:]:
        if not line.startswith("|"):
            break
        cells = [c.strip() for c in line.strip("|\n").split("|")]
        if len(cells) != len(header):
            break
        if all(re.fullmatch(r"-+", c) for c in cells):
            continue  # the markdown separator under the header
        rows.append(dict(zip(header, cells)))
    return rows


def canonicalize(text, cols, last_rows):
    parts = []
    for i, m in enumerate(density_maps(text)):
        parts.append(f"== map {i} ==")
        parts.append(m)
    rows = table_rows(text, cols)
    if last_rows > 0:
        rows = rows[-last_rows:]
    parts.append(f"== metrics ({','.join(cols)}) ==")
    for r in rows:
        parts.append(" ".join(r[c] for c in cols))
    return "\n".join(parts) + "\n"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--canon", metavar="FILE",
                    help="print the canonical form of this captured output")
    ap.add_argument("--golden", metavar="FILE",
                    help="golden canonical file to compare against")
    ap.add_argument("--rows", type=int, default=0,
                    help="compare only the last N metric rows (0 = all)")
    ap.add_argument("--cols", required=True,
                    help="comma-separated metric columns to compare")
    ap.add_argument("cmd", nargs="*", help="command to run (after --)")
    args = ap.parse_args()
    cols = args.cols.split(",")

    if args.canon:
        with open(args.canon) as f:
            sys.stdout.write(canonicalize(f.read(), cols, args.rows))
        return 0

    if not args.golden or not args.cmd:
        ap.error("need --canon FILE, or --golden FILE -- CMD...")

    proc = subprocess.run(args.cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        sys.exit(f"golden_check: command failed (rc={proc.returncode})")
    got = canonicalize(proc.stdout, cols, args.rows)
    with open(args.golden) as f:
        want = f.read()
    if got == want:
        print(f"golden_check: OK ({args.golden})")
        return 0
    import difflib
    sys.stdout.writelines(difflib.unified_diff(
        want.splitlines(keepends=True), got.splitlines(keepends=True),
        fromfile=args.golden, tofile="actual"))
    return 1


if __name__ == "__main__":
    sys.exit(main())
