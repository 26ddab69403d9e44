#!/usr/bin/env python3
"""Compare two revisions on the benchmark in alternating pairs.

Checks PARENT and CHANGE out into a temporary directory (git worktree
add --detach), then for every workload and seed runs the command in
BENCHMARK.json once in each checkout, untraced and for the manifest's
run_seconds, alternating which side goes first from seed to seed.
Prints each side's provenance line and, per workload, a markdown table
of every end-to-end metric: both sides' median and quartiles, the
change/parent ratio of the medians, the number of pairs in which the
change was better (in the direction the manifest declares; ties count
for neither side) and whether the medians differ by more than the
parent's interquartile range. Exits 1 if a pair's output digests
differ, a run is not correct or a call failed. The checkouts are
removed on exit.

The revisions may be any committed git revision; the checkouts go
under $TMPDIR:

    python3 scripts/ab.py HEAD~1 HEAD
    python3 scripts/ab.py main my-branch --workloads uniform-s9 --seeds 11-20
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "starbench"))
sys.dont_write_bytecode = True  # leave no __pycache__ under starbench/
from spread import parse_seeds, run_once  # noqa: E402


def git(*args):
    subprocess.run(["git", "-C", str(ROOT), *args], check=True, capture_output=True)


def quartiles(vals):
    q1, med, q3 = statistics.quantiles(vals, n=4)
    return med, q1, q3


def main():
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in manifest["workloads"]))
    ap.add_argument("--seeds", default="11-20", help="e.g. 11-20 or 3,7,11; at least two")
    opts = ap.parse_args()
    seeds = parse_seeds(opts.seeds)
    if len(seeds) < 2:
        sys.exit("quartiles need at least two seeds")
    # Each checkout builds into its own starbench/target.
    os.environ.pop("CARGO_TARGET_DIR", None)

    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        sides = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        try:
            for side, tree in sides.items():
                git("worktree", "add", "--detach", str(tree), getattr(opts, side))
            ok = compare(manifest, sides, opts.workloads.split(","), seeds)
        finally:
            os.chdir(ROOT)
            for tree in sides.values():
                if tree.exists():
                    git("worktree", "remove", "--force", str(tree))
            git("worktree", "prune")
    sys.exit(0 if ok else 1)


def compare(manifest, sides, workloads, seeds):
    """Runs every pair and prints the tables; False on a failed check."""
    ok = True
    seconds = manifest["run_seconds"]
    better = {m["name"]: m["better"] for m in manifest["end_to_end"]}
    provenance = {}
    for workload in workloads:
        values = {side: {} for side in sides}
        for k, seed in enumerate(seeds):
            order = list(sides) if k % 2 == 0 else list(sides)[::-1]
            digests = {}
            for side in order:
                # starbench reads its provenance from the working directory.
                os.chdir(sides[side])
                report, result = run_once(manifest["command"], workload, seed, seconds)
                provenance[side] = report["provenance"]
                digests[side] = report["digest"]
                if not result["correct"] or result["failed"] != 0:
                    print(f"{workload} seed {seed} {side}: not correct or a call failed")
                    ok = False
                for name, m in result["metrics"].items():
                    values[side].setdefault(name, []).append(m["value"])
            if digests["parent"] != digests["change"]:
                print(f"{workload} seed {seed}: digests differ {digests}")
                ok = False
        print(f"\n== {workload}: {len(seeds)} pairs, seeds {seeds}, {seconds} s\n")
        print("| metric | parent median [q1, q3] | change median [q1, q3] "
              "| change/parent | change better | beyond parent IQR |")
        print("|---|---|---|---|---|---|")
        for name, direction in better.items():
            p, c = values["parent"][name], values["change"][name]
            (pm, p1, p3), (cm, c1, c3) = quartiles(p), quartiles(c)
            wins = sum((b < a) if direction == "lower" else (b > a) for a, b in zip(p, c))
            ratio = f"{cm / pm:.3f}" if pm else "-"
            beyond = "yes" if abs(cm - pm) > p3 - p1 else "no"
            print(f"| `{name}` | {pm:.6g} [{p1:.6g}, {p3:.6g}] | {cm:.6g} [{c1:.6g}, {c3:.6g}] "
                  f"| {ratio} | {wins}/{len(seeds)} | {beyond} |")
    print()
    for side, prov in provenance.items():
        print(f"{side}: {json.dumps(prov)}")
    return ok


if __name__ == "__main__":
    main()
