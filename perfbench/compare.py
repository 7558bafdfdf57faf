#!/usr/bin/env python3
"""Compares two result sets of the fhs benchmark.

    python3 perfbench/compare.py BASE.jsonl CHANGE.jsonl

Each file holds the records `perfbench/run.py --record FILE` appends, one
run per line, for the parent commit (BASE) and the change (CHANGE), made
with the same benchmark code and run length. For every workload and
end-to-end metric of BENCHMARK.json the report gives each side's median
and quartiles over its untraced runs and the change in the median, signed
so that a positive change is worse. The verdict follows the benchmark's
bound for the metric:

* unresolved  - a side's run-to-run spread (quartile distance over its
                median) exceeds the bound, and the runs of the two sides
                overlap, so the medians cannot be told apart;
* worse       - the change's median is worse by more than the bound;
* better      - the change's median is better by more than the base's
                quartile distance, and the change wins at least nine tenths
                of the runs paired by seed (all cross pairs if no seeds
                match), ties counting for neither side;
* within bound - none of the above.

For traced runs the per-layer medians are listed side by side, without a
verdict: per-layer metrics have no bound. The exit code is 1 if any
metric is worse, else 0.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def load(path):
    records = []
    for n, line in enumerate(Path(path).read_text().splitlines(), 1):
        if line.strip():
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError as e:
                sys.exit(f"{path}:{n}: not a JSON record: {e}")
    return records


def runs(records, workload, trace):
    """(seed, metrics) of the correct runs of `workload` with `trace`."""
    return [(r["context"]["seed"], r["result"]["metrics"]) for r in records
            if r["context"]["workload"] == workload and r["context"]["trace"] == trace
            and r["result"]["correct"]]


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def verdict(base, change, bound, lower_is_better):
    """Verdict for one metric; `base`/`change` are [(seed, value)]."""
    sign = 1.0 if lower_is_better else -1.0
    bv = [v for _, v in base]
    cv = [v for _, v in change]
    b_med = statistics.median(bv)
    c_med = statistics.median(cv)
    worse_by = sign * (c_med - b_med) / abs(b_med) if b_med else 0.0
    all_better = all(sign * (c - b) < 0 for c in cv for b in bv)
    if max(spread(bv), spread(cv)) > bound and not all_better:
        return "unresolved", worse_by
    if worse_by > bound:
        return "worse", worse_by
    by_seed = dict(base)
    pairs = [(c, by_seed[s]) for s, c in change if s in by_seed] or \
        [(c, b) for c in cv for b in bv]
    wins = sum(1 for c, b in pairs if sign * (c - b) < 0)
    b_q1, _, b_q3 = quartiles(bv)
    if -worse_by * abs(b_med) > (b_q3 - b_q1) and wins >= 0.9 * len(pairs):
        return "better", worse_by
    return "within bound", worse_by


def fmt(x):
    return f"{x:.6g}"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base")
    ap.add_argument("change")
    ap.add_argument("--benchmark", default=str(HERE.parent / "BENCHMARK.json"))
    args = ap.parse_args()
    bench = json.loads(Path(args.benchmark).read_text())
    base, change = load(args.base), load(args.change)

    worse = False
    header = f"{'workload':14} {'metric':16} {'base median [q1, q3]':40} " \
             f"{'change median [q1, q3]':40} {'worse by':>9}  verdict"
    print(header)
    print("-" * len(header))
    for w in bench["workloads"]:
        name = w["name"]
        b_runs, c_runs = runs(base, name, 0), runs(change, name, 0)
        if not b_runs or not c_runs:
            print(f"{name:14} (no correct untraced runs on {'both sides' if not b_runs and not c_runs else 'one side'})")
            continue
        for m in bench["end_to_end"]:
            key = m["name"]
            b = [(s, ms[key]["value"]) for s, ms in b_runs if key in ms]
            c = [(s, ms[key]["value"]) for s, ms in c_runs if key in ms]
            if not b or not c:
                continue
            v, worse_by = verdict(b, c, m["bound"], m["better"] == "lower")
            worse |= v == "worse"
            bq, cq = quartiles([x for _, x in b]), quartiles([x for _, x in c])
            print(f"{name:14} {key:16} "
                  f"{fmt(bq[1]) + ' [' + fmt(bq[0]) + ', ' + fmt(bq[2]) + ']':40} "
                  f"{fmt(cq[1]) + ' [' + fmt(cq[0]) + ', ' + fmt(cq[2]) + ']':40} "
                  f"{worse_by:+9.2%}  {v} (n={len(b)}/{len(c)}, bound {m['bound']:.0%})")

    for w in bench["workloads"]:
        b_runs, c_runs = runs(base, w["name"], 1), runs(change, w["name"], 1)
        if not b_runs or not c_runs:
            continue
        print(f"\nper-layer medians, {w['name']} (traced runs {len(b_runs)}/{len(c_runs)})")
        for m in bench["per_layer"]:
            key = m["name"]
            b = [ms[key]["value"] for _, ms in b_runs if key in ms]
            c = [ms[key]["value"] for _, ms in c_runs if key in ms]
            if b and c:
                print(f"  {key:32} {fmt(statistics.median(b)):>14} {fmt(statistics.median(c)):>14} {m['unit']}")
    sys.exit(1 if worse else 0)


if __name__ == "__main__":
    main()
