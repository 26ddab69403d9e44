#!/usr/bin/env python3
"""Compare two revisions on the benchmark in alternating pairs.

Checks PARENT and CHANGE out into a temporary directory (git worktree
add --detach), then for every workload and seed runs the command in
BENCHMARK.json once in each checkout, untraced and for the manifest's
run_seconds, alternating which side goes first from seed to seed.
Prints one line per finished pair as it completes (workload, seed,
each side's wall_s, whether the digests are equal), flushed, so a
redirected log fills during the run. Then prints each side's
provenance line and, per workload, a markdown table of every
end-to-end metric: both sides' median and quartiles, the change/parent
ratio of the medians, the interval from the 2nd-smallest to the
2nd-largest paired change/parent ratio, the number of pairs in which
the change was better (in the direction the manifest declares; ties
count for neither side) and whether the medians differ by more than
the parent's interquartile range.

The interval is distribution-free: the median of the paired ratios
lies between the 2nd-smallest and the 2nd-largest of n pairs with
probability 1 - (n + 1) / 2^(n - 1), which is 97.9 % for 10 pairs. For
a lower-is-better metric its upper end is below 1 exactly when the
change is better in all but at most one pair.

Exits 1 if a pair's output digests differ, a run is not correct or a
call failed. The checkouts are removed on exit.

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


def ratio_interval(parent, change):
    """2nd-smallest to 2nd-largest paired change/parent ratio, or None."""
    if len(parent) < 4 or not all(parent):
        return None
    ratios = sorted(c / p for p, c in zip(parent, change))
    return ratios[1], ratios[-2]


def coverage(pairs):
    """Probability that the interval above holds the median ratio."""
    return 1 - (pairs + 1) / 2 ** (pairs - 1)


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
            same = digests["parent"] == digests["change"]
            if not same:
                print(f"{workload} seed {seed}: digests differ {digests}")
                ok = False
            walls = " ".join(f"{side} {values[side]['wall_s'][-1]:.6g}" for side in sides)
            print(f"pair {k + 1}/{len(seeds)}: {workload} seed {seed}: wall_s {walls}; "
                  f"digests {'equal' if same else 'DIFFER'}", flush=True)
        print(f"\n== {workload}: {len(seeds)} pairs, seeds {seeds}, {seconds} s\n")
        print("| metric | parent median [q1, q3] | change median [q1, q3] | change/parent "
              f"| paired ratio, {coverage(len(seeds)):.1%} interval "
              "| change better | beyond parent IQR |")
        print("|---|---|---|---|---|---|---|")
        for name, direction in better.items():
            p, c = values["parent"][name], values["change"][name]
            (pm, p1, p3), (cm, c1, c3) = quartiles(p), quartiles(c)
            wins = sum((b < a) if direction == "lower" else (b > a) for a, b in zip(p, c))
            ratio = f"{cm / pm:.3f}" if pm else "-"
            interval = ratio_interval(p, c)
            interval = f"[{interval[0]:.3f}, {interval[1]:.3f}]" if interval else "-"
            beyond = "yes" if abs(cm - pm) > p3 - p1 else "no"
            print(f"| `{name}` | {pm:.6g} [{p1:.6g}, {p3:.6g}] | {cm:.6g} [{c1:.6g}, {c3:.6g}] "
                  f"| {ratio} | {interval} | {wins}/{len(seeds)} | {beyond} |", flush=True)
    print()
    for side, prov in provenance.items():
        print(f"{side}: {json.dumps(prov)}", flush=True)
    return ok


if __name__ == "__main__":
    main()
