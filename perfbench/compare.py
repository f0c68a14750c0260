#!/usr/bin/env python3
"""Compare benchmark runs of a parent commit and a change.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR [--benchmark FILE]
    python3 perfbench/compare.py --self-test

Each directory holds the run records anyseq_bench writes with --out (run.py
passes --out through), made in alternating pairs: parent, change, change,
parent, ...  Records are paired per workload in file-name order, so name
them by run index.  Only untraced records are compared.

For every (end-to-end metric, workload) it prints both sides' medians and
quartiles, the share of pairs the change wins (ties count for neither) and
a verdict against the metric's bound in BENCHMARK.json:

  improved    the change wins at least 9/10 of the pairs and the medians
              differ by more than the parent's own quartile spread
  regressed   the change's median is worse than the parent's by more than
              the bound
  unresolved  a side's run-to-run spread (quartile distance over median)
              exceeds the bound, and not every change run beats every
              parent run
  no worse    otherwise

The exit code is 1 when any verdict is "regressed" or when the share of
failed operations (failed / attempted) rose on any workload.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def load_runs(directory):
    """Untraced run records of a directory, grouped by workload."""
    runs = {}
    for path in sorted(Path(directory).glob("*.json")):
        with open(path) as f:
            rec = json.load(f)
        if rec.get("traced"):
            continue
        runs.setdefault(rec["workload"], []).append(rec)
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, better, bound):
    """Verdict and statistics for one (metric, workload)."""
    sign = 1.0 if better == "higher" else -1.0
    pq, cq = quartiles(parent), quartiles(change)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    win_share = wins / len(pairs) if pairs else 0.0
    p_med, c_med = pq[1], cq[1]
    gain = sign * (c_med - p_med) / abs(p_med) if p_med else 0.0
    spread = max((pq[2] - pq[0]) / abs(p_med) if p_med else 0.0,
                 (cq[2] - cq[0]) / abs(c_med) if c_med else 0.0)
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if win_share >= 0.9 and gain > 0 and abs(c_med - p_med) > pq[2] - pq[0]:
        v = "improved"
    elif spread > bound and not all_better:
        v = "unresolved"
    elif -gain > bound:
        v = "regressed"
    else:
        v = "no worse"
    return v, {"parent": pq, "change": cq, "win_share": win_share,
               "gain": gain, "spread": spread}


def fail_share(runs):
    attempted = sum(r["attempted"] for r in runs)
    return sum(r["failed"] for r in runs) / attempted if attempted else 0.0


def compare(spec, parent_runs, change_runs, out=sys.stdout):
    """Print the comparison; returns (exit code, {(metric, workload): verdict})."""
    verdicts = {}
    bad = False
    out.write(f"{'workload':12s} {'metric':12s} {'parent q1/med/q3':>30s} "
              f"{'change q1/med/q3':>30s} {'wins':>5s} {'gain':>7s}  verdict\n")
    for w in spec["workloads"]:
        name = w["name"]
        p_runs, c_runs = parent_runs.get(name, []), change_runs.get(name, [])
        if not p_runs or not c_runs:
            out.write(f"{name:12s} (no runs on one side)\n")
            continue
        n = min(len(p_runs), len(c_runs))
        p_runs, c_runs = p_runs[:n], c_runs[:n]
        for m in spec["end_to_end"]:
            p = [r["metrics"][m["name"]]["value"] for r in p_runs]
            c = [r["metrics"][m["name"]]["value"] for r in c_runs]
            v, st = verdict(p, c, m["better"], m["bound"])
            verdicts[(m["name"], name)] = v
            bad |= v == "regressed"
            fmt = lambda q: "/".join(f"{x:.4g}" for x in q)
            out.write(f"{name:12s} {m['name']:12s} {fmt(st['parent']):>30s} "
                      f"{fmt(st['change']):>30s} {st['win_share']:5.2f} "
                      f"{st['gain'] * 100:+6.1f}%  {v}\n")
        pf, cf = fail_share(p_runs), fail_share(c_runs)
        if cf > pf:
            bad = True
            verdicts[("fail_frac", name)] = "regressed"
            out.write(f"{name:12s} fail_frac rose: {pf:.3g} -> {cf:.3g}\n")
    return (1 if bad else 0), verdicts


def self_test():
    """Verdicts on synthetic runs with known answers."""
    import io
    import random

    spec = {
        "workloads": [{"name": "w"}],
        "end_to_end": [
            {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.1},
            {"name": "lat", "unit": "us", "better": "lower", "bound": 0.1},
        ],
    }
    rng = random.Random(7)

    def runs(rate, lat, noise=0.01, failed=0):
        return {"w": [{"workload": "w", "attempted": 1000, "failed": failed,
                       "metrics": {
                           "rate": {"value": rate * (1 + rng.uniform(-noise, noise))},
                           "lat": {"value": lat * (1 + rng.uniform(-noise, noise))}}}
                      for _ in range(10)]}

    cases = [
        ("same commit", runs(100, 50), runs(100, 50), 0,
         {"rate": "no worse", "lat": "no worse"}),
        ("faster", runs(100, 50), runs(130, 40), 0,
         {"rate": "improved", "lat": "improved"}),
        ("slower", runs(100, 50), runs(70, 70), 1,
         {"rate": "regressed", "lat": "regressed"}),
        ("noisy", runs(100, 50, noise=0.4), runs(95, 52, noise=0.4), 0,
         {"rate": "unresolved", "lat": "unresolved"}),
        ("failures", runs(100, 50), runs(100, 50, failed=3), 1,
         {"rate": "no worse", "lat": "no worse"}),
    ]
    ok = True
    for label, parent, change, want_code, want in cases:
        code, got = compare(spec, parent, change, out=io.StringIO())
        got = {m: v for (m, _), v in got.items() if m != "fail_frac"}
        passed = code == want_code and got == want
        ok &= passed
        print(f"{label:12s} {'ok' if passed else 'FAIL'}  exit {code}  {got}")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", nargs="?")
    ap.add_argument("change", nargs="?")
    ap.add_argument("--benchmark", default=str(HERE.parent / "BENCHMARK.json"))
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        sys.exit(self_test())
    if not args.parent or not args.change:
        ap.error("PARENT_DIR and CHANGE_DIR are required")
    with open(args.benchmark) as f:
        spec = json.load(f)
    code, _ = compare(spec, load_runs(args.parent), load_runs(args.change))
    sys.exit(code)


if __name__ == "__main__":
    main()
