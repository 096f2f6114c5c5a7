#!/usr/bin/env python3
"""Steadiness report over saved benchmark outputs.

Each file holds the standard output of one run of verdictbench/run.py (its
last two lines: the host-noise record and the result object). Runs are
grouped by workload and trace mode; for every metric the report prints the
median, the first and third quartiles (statistics.quantiles, n=4), the
interquartile spread and the full range as shares of the median. An
end-to-end metric whose interquartile spread exceeds its bound in
BENCHMARK.json is flagged, as is any metric whose range does.

    for s in 1 2 3 4 5 6 7 8 9 10; do
      python3 verdictbench/run.py --workload warm_repeat --seed $s \\
          --seconds 10 --trace 0 > out/warm_repeat-$s.txt
    done
    python3 verdictbench/steadiness.py out/*.txt

With --baseline, a second set of outputs (of the same or the parent code)
is compared with the first: for every end-to-end metric the report prints
how far the median moved from the baseline's median, and flags a move in
the worse direction by more than the bound.

    python3 verdictbench/steadiness.py out/*.txt --baseline base/*.txt

Exits 1 when a flagged end-to-end metric (other than setup_s) has an
interquartile spread beyond its bound, or when any end-to-end median is
worse than the baseline's by more than its bound.
"""
import argparse
import json
import os
import statistics
import sys


def load(path):
    with open(path) as f:
        lines = [line for line in f.read().splitlines() if line.strip()]
    if len(lines) < 2:
        raise ValueError(f"{path}: expected a host record and a result line")
    host = json.loads(lines[-2])["verdictbench"]
    result = json.loads(lines[-1])
    return host, result


def end_to_end():
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(os.path.dirname(here), "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m for m in spec["end_to_end"]}


def group(paths):
    groups = {}
    for path in paths:
        host, result = load(path)
        key = (host["workload"], host["trace"])
        groups.setdefault(key, []).append((host, result))
    return groups


def medians(runs):
    names = {name for _, r in runs for name in r["metrics"]}
    return {name: statistics.median(r["metrics"][name]["value"] for _, r in runs
                                    if name in r["metrics"])
            for name in names}


def compare(groups, baseline, spec):
    """Prints each end-to-end median's move from the baseline; True if one
    got worse by more than its bound."""
    worse = False
    print("median move from the baseline (positive: worse)")
    for key in sorted(groups):
        if key not in baseline:
            continue
        now, base = medians(groups[key]), medians(baseline[key])
        for name, metric in sorted(spec.items()):
            if name not in now or name not in base or not base[name]:
                continue
            move = (now[name] - base[name]) / abs(base[name])
            if metric["better"] == "higher":
                move = -move
            flag = f"worse than bound {metric['bound']}" if move > metric["bound"] else ""
            worse = worse or bool(flag)
            print(f"  {key[0]:14} {name:24} {base[name]:12.4f} -> {now[name]:12.4f} "
                  f"{move:+8.3f}  {flag}")
    return worse


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="+", help="outputs of the runs to report")
    parser.add_argument("--baseline", nargs="+", default=[],
                        help="outputs of a second set to compare medians with")
    args = parser.parse_args()
    spec = end_to_end()
    limit = {name: m["bound"] for name, m in spec.items()}
    groups = group(args.paths)

    over = False
    for (workload, trace), runs in sorted(groups.items()):
        seeds = sorted(h["seed"] for h, _ in runs)
        steal = [h["steal_share"] for h, _ in runs]
        failed = sum(r["failed"] for _, r in runs)
        print(f"{workload} trace={trace}: {len(runs)} runs, seeds {seeds}, "
              f"failed ops {failed}, steal share {min(steal):.3f}-{max(steal):.3f}")
        print(f"  {'metric':34} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'iqr/med':>8} {'rng/med':>8}  flag")
        names = sorted({name for _, r in runs for name in r["metrics"]})
        for name in names:
            values = [r["metrics"][name]["value"] for _, r in runs
                      if name in r["metrics"]]
            med = statistics.median(values)
            q1, _, q3 = (statistics.quantiles(values, n=4)
                         if len(values) >= 2 else (med, med, med))
            scale = abs(med) if med else 1.0
            iqr, rng = (q3 - q1) / scale, (max(values) - min(values)) / scale
            flag = ""
            bound = limit.get(name)
            if bound is not None:
                if iqr > bound:
                    flag = f"IQR > bound {bound}"
                    over = over or name != "setup_s"
                elif rng > bound:
                    flag = f"range > bound {bound}"
                elif iqr > bound / 3:
                    flag = f"IQR > bound/3"
            print(f"  {name:34} {med:12.4f} {q1:12.4f} {q3:12.4f} "
                  f"{iqr:8.3f} {rng:8.3f}  {flag}")
    if args.baseline:
        over = compare(groups, group(args.baseline), spec) or over
    return 1 if over else 0


if __name__ == "__main__":
    sys.exit(main())
