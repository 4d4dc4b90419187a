#!/usr/bin/env python3
"""Cross-decomposition oracle for the shard-aware scale benches.

Runs BENCH at --sim-shards 1 and at each sharded count (2 and 8) and
requires every coverage/success cell of each sharded run to lie within
tolerance of the matching single-shard row: a fraction within 0.05, a
percentage within 5 points. Shard counts pick different (equally valid)
random streams, so the rows are not byte-equal, but a decomposition that
loses or misroutes work shows up as a coverage gap.

usage: decomposition_oracle.py OUTDIR BENCH [BENCH ARGS...]
Writes one JSON artifact per shard count under OUTDIR; exits 1 on any gap.
"""
import json
import os
import subprocess
import sys

SHARDS = (2, 8)
TOLERANCE = {"coverage": 0.05, "coverage_pct": 5.0, "success_pct": 5.0}
# Cells that name a row; they must agree between the two runs.
KEYS = ("sweep", "overlay", "n", "fanout", "block_kb", "links", "mode")


def run(bench, args, shards, outdir):
    out = os.path.join(
        outdir, f"{os.path.basename(bench)}_oracle_s{shards}.json")
    subprocess.run([bench, "--quiet", *args, "--sim-shards", str(shards),
                    "--json", out], check=True, stdout=subprocess.DEVNULL)
    with open(out) as f:
        return json.load(f)["rows"]


def main():
    if len(sys.argv) < 3:
        sys.exit(__doc__)
    outdir, bench, args = sys.argv[1], sys.argv[2], sys.argv[3:]
    single = run(bench, args, 1, outdir)
    failures = []
    checked = 0
    for shards in SHARDS:
        split = run(bench, args, shards, outdir)
        if len(single) != len(split):
            sys.exit(f"row count differs: {len(single)} at S=1, "
                     f"{len(split)} at S={shards}")
        for a, b in zip(single, split):
            label = {k: a[k] for k in KEYS if k in a}
            if label != {k: b[k] for k in KEYS if k in b}:
                sys.exit(f"rows do not line up: {a} vs {b}")
            for cell, tol in TOLERANCE.items():
                if cell not in a:
                    continue
                checked += 1
                gap = abs(a[cell] - b[cell])
                if gap > tol:
                    failures.append(f"{label}: {cell} {a[cell]} at S=1 vs "
                                    f"{b[cell]} at S={shards} (gap "
                                    f"{gap:.4g} > {tol})")
    if checked == 0:
        sys.exit("no coverage/success cells to compare")
    for line in failures:
        print(line)
    print(f"{checked - len(failures)}/{checked} cells within tolerance")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
