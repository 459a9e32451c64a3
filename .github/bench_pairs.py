#!/usr/bin/env python3
"""Recomputes a perfbench claim from the committed run records.

    python3 .github/bench_pairs.py [BENCH_perf.jsonl] [--commits PARENT CHANGE]

Each line of the record file is one `python3 perfbench/run.py` run:
`side` ("parent" or "change"), `commit`, `workload`, `seed`, `seconds`,
`trace` (0 or 1), perfbench's `meta` object and its result object.
Traced runs carry the per-layer rows and are left out of the pairs. A
pair is the parent run and the change run of one workload on one seed
(the untraced ones). For each workload
and each end-to-end metric of BENCHMARK.json this prints both sides'
medians and quartiles (linear interpolation between the closest ranks),
the change's pair wins (ties count for neither side) and the verdict:

  gain        the change wins at least 9 in 10 pairs and the medians
              differ by more than the parent's quartile distance;
  worse       the change's median is worse than the parent's by more
              than the metric's bound;
  unresolved  neither, and the runs spread too widely to call the metric
              unchanged: either side's quartile distance exceeds the
              metric's bound times the parent's median, and not every
              change run reads better than every parent run;
  -           none of these.

With several commits on one side, `--commits` picks the pair to compare
(a prefix of each commit hash is enough).
"""

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def pick_commit(records, side, prefix):
    commits = sorted({r["commit"] for r in records if r["side"] == side})
    if prefix is not None:
        commits = [c for c in commits if c.startswith(prefix)]
    if len(commits) != 1:
        sys.exit(f"bench_pairs: {side} commits {commits}: name one with --commits")
    return commits[0]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("records", nargs="?", default=os.path.join(ROOT, "BENCH_perf.jsonl"))
    parser.add_argument("--commits", nargs=2, metavar=("PARENT", "CHANGE"))
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        metrics = json.load(f)["end_to_end"]
    with open(args.records) as f:
        records = [json.loads(line) for line in f if line.strip()]
    records = [r for r in records if not r["trace"]]
    parent_prefix, change_prefix = args.commits or (None, None)
    parent = pick_commit(records, "parent", parent_prefix)
    change = pick_commit(records, "change", change_prefix)

    for workload in sorted({r["workload"] for r in records}):
        runs = {}
        for r in records:
            if r["workload"] == workload and r["commit"] in (parent, change):
                runs.setdefault(r["seed"], {})[r["side"]] = r["result"]
        pairs = [p for _, p in sorted(runs.items()) if len(p) == 2]
        if not pairs:
            continue
        failed = [sum(p[s]["failed"] for p in pairs) for s in ("parent", "change")]
        print(f"{workload}: {len(pairs)} pairs, parent {parent[:7]}, change {change[:7]}, "
              f"failed (sum over runs) parent {failed[0]}, change {failed[1]}")
        print(f"  {'metric':<22}{'parent median [q1, q3]':>34}{'change median [q1, q3]':>34}"
              f"{'ratio':>8}{'wins':>7}  verdict")
        for m in metrics:
            name, higher = m["name"], m["better"] == "higher"
            if not all(name in p[s]["metrics"] for p in pairs for s in ("parent", "change")):
                continue
            side = {s: [p[s]["metrics"][name]["value"] for p in pairs]
                    for s in ("parent", "change")}
            wins = sum((c > p) if higher else (c < p)
                       for p, c in zip(side["parent"], side["change"]))
            med = {s: statistics.median(v) for s, v in side.items()}
            q = {s: quartiles(v) for s, v in side.items()}
            spread = q["parent"][1] - q["parent"][0]
            gain = (med["change"] - med["parent"]) * (1 if higher else -1)
            limit = m["bound"] * abs(med["parent"])
            wide = max(q[s][1] - q[s][0] for s in q) > limit
            # Every change run beats every parent run: the change's worst
            # run beats the parent's best.
            worst, best = (min, max) if higher else (max, min)
            sweeps = (worst(side["change"]) - best(side["parent"])) * (1 if higher else -1) > 0
            if wins * 10 >= 9 * len(pairs) and gain > spread:
                verdict = "gain"
            elif -gain > limit:
                verdict = "worse"
            elif wide and not sweeps:
                verdict = "unresolved"
            else:
                verdict = "-"
            ratio = med["change"] / med["parent"] if med["parent"] else float("nan")
            cells = [f"{med[s]:.4g} [{q[s][0]:.4g}, {q[s][1]:.4g}]" for s in ("parent", "change")]
            print(f"  {name:<22}{cells[0]:>34}{cells[1]:>34}{ratio:>7.3f}x"
                  f"{wins:>4}/{len(pairs):<2}  {verdict}")


if __name__ == "__main__":
    main()
