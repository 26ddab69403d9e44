#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

For every workload, runs the command in BENCHMARK.json once per seed,
untraced and for the manifest's run_seconds, then prints each end-to-end
metric's median, first and third quartiles (statistics.quantiles, n=4)
and the spread (Q3 - Q1) / median next to the metric's bound. A metric
is steady when its spread is below a third of its bound; the script
exits 1 unless every metric of every workload is steady. With
--record FILE it also appends one trajectory entry (provenance,
per-workload quartiles and output digests) to FILE as a JSON line, and
it refuses to when the runs were not steady.

Run from the repository root:

    python3 starbench/spread.py --seeds 1-10
    python3 starbench/spread.py --workloads jobs-s7 --seeds 1-5
    python3 starbench/spread.py --seeds 1-10 --record starbench/trajectory.jsonl
"""

import argparse
import datetime
import json
import statistics
import subprocess
import sys


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(args, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.exit(f"{' '.join(args)} failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def main():
    with open("BENCHMARK.json") as f:
        manifest = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in manifest["workloads"]))
    ap.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,7,11; at least two")
    ap.add_argument("--record", metavar="FILE", help="append a trajectory entry if steady")
    ap.add_argument("--note", default="", help="free text stored with --record")
    opts = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in manifest["end_to_end"]}
    seeds = parse_seeds(opts.seeds)
    if len(seeds) < 2:
        sys.exit("quartiles need at least two seeds")
    seconds = manifest["run_seconds"]
    entry = {
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "seeds": seeds, "seconds": seconds, "note": opts.note, "workloads": {},
    }
    steady = True
    for workload in opts.workloads.split(","):
        values, digests, correct = {}, [], True
        for seed in seeds:
            report, result = run_once(manifest["command"], workload, seed, seconds)
            entry["provenance"] = report["provenance"]
            digests.append(report["digest"])
            correct &= result["correct"] and result["failed"] == 0
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        steady &= correct
        print(f"== {workload}: {len(seeds)} seeds, all correct: {correct}")
        rows = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread}
            ok = spread < bounds[name] / 3
            steady &= ok
            print(f"  {name:<24} median {med:<14.6g} q1 {q1:<14.6g} q3 {q3:<14.6g} "
                  f"spread {spread:8.4f}  bound {bounds[name]:<5} "
                  f"{'steady' if ok else 'NOT STEADY'}")
        entry["workloads"][workload] = {"correct": correct, "digests": digests, "metrics": rows}
    if opts.record:
        if not steady:
            sys.exit(f"not steady: no entry written to {opts.record}")
        with open(opts.record, "a") as f:
            f.write(json.dumps(entry) + "\n")
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
