"""Summarise the run records in perfbench/out/.

    python3 perfbench/summarize.py                  # spread table of every metric
    python3 perfbench/summarize.py --baseline       # also write baseline.json
    python3 perfbench/summarize.py --compare DIR    # a second set of records against the first

For each workload and end-to-end metric: the median, the quartiles as
statistics.quantiles(values, n=4) gives them, and the spread (Q3 - Q1) /
median, next to a third of the metric's bound.  For traced records: the
median of every per-layer metric.  --baseline writes baseline.json with
these figures, the environment, and every row that failed in any untraced
run (with the number of runs it failed in and its first reason).  --compare
adds the second set's spreads and, per metric, how much worse its median is
than the first set's, as a share of the first median, next to the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def load(out_dir: Path) -> list:
    return [json.loads(p.read_text()) for p in sorted(out_dir.glob("*.json"))]


def spread_table(records: list, spec: dict) -> dict:
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    table = defaultdict(dict)
    for wl in sorted({r["env"]["workload"] for r in records}):
        runs = [r for r in records if r["env"]["workload"] == wl and not r["env"]["trace"]]
        if len(runs) < 2:
            continue
        for name in bounds:
            vals = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            table[wl][name] = {"runs": len(vals), "median": med, "q1": q1, "q3": q3,
                               "spread": (q3 - q1) / abs(med) if med else float("inf"),
                               "bound": bounds[name], "min": min(vals), "max": max(vals)}
    return dict(table)


def layer_table(records: list) -> dict:
    table = defaultdict(dict)
    for wl in sorted({r["env"]["workload"] for r in records}):
        runs = [r for r in records if r["env"]["workload"] == wl and r["env"]["trace"]]
        if runs:
            for name in runs[0]["metrics"]:
                table[wl][name] = statistics.median(r["metrics"][name]["value"] for r in runs)
            table[wl]["runs"] = len(runs)
    return dict(table)


def failing_rows(records: list) -> dict:
    out = defaultdict(dict)
    for r in records:
        if r["env"]["trace"]:
            continue
        wl = r["env"]["workload"]
        for row in r["rows"]:
            if not row["ok"]:
                entry = out[wl].setdefault(row["id"], {"runs_failed": 0, "reason": row["reason"]})
                entry["runs_failed"] += 1
    return {wl: dict(sorted(rows.items())) for wl, rows in out.items()}


def print_spreads(spreads: dict) -> None:
    for wl, metrics in spreads.items():
        for name, s in metrics.items():
            flag = "ok" if s["spread"] < s["bound"] / 3 else "WIDE"
            print(f"{wl:15s} {name:13s} median={s['median']:.6g} spread={s['spread']:.4f} "
                  f"(third of bound {s['bound'] / 3:.4f}) {flag} n={s['runs']}")


def repeat_table(first: dict, second: dict, spec: dict) -> dict:
    """Per workload and metric: how much worse the second median is than the
    first, as a share of the first (negative when it is better)."""
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    out = defaultdict(dict)
    for wl, metrics in second.items():
        for name, s in metrics.items():
            m1, m2 = first[wl][name]["median"], s["median"]
            worse = (m2 - m1) if better[name] == "lower" else (m1 - m2)
            out[wl][name] = {"spread": s["spread"], "median": m2,
                             "worse_share": worse / abs(m1) if m1 else 0.0, "bound": s["bound"]}
    return dict(out)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", default=str(HERE / "out"))
    ap.add_argument("--compare", help="directory of a second set of records")
    ap.add_argument("--baseline", action="store_true")
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    records = load(Path(args.out))
    spreads = spread_table(records, spec)
    print_spreads(spreads)
    repeat = None
    if args.compare:
        second = spread_table(load(Path(args.compare)), spec)
        print("second set:")
        print_spreads(second)
        repeat = repeat_table(spreads, second, spec)
        for wl, metrics in repeat.items():
            for name, r in metrics.items():
                flag = "ok" if r["worse_share"] <= r["bound"] else "WORSE"
                print(f"{wl:15s} {name:13s} second median worse by {r['worse_share']:+.4f} "
                      f"(bound {r['bound']}) {flag}")
    if args.baseline:
        failing = failing_rows(records)
        untraced = [r for r in records if not r["env"]["trace"]]
        doc = {
            "about": "Baseline of the perfbench workloads; written by perfbench/summarize.py --baseline.",
            "env": {k: v for k, v in untraced[0]["env"].items() if k not in ("seed", "program_seed", "workload")},
            "seeds": {wl: sorted(r["env"]["seed"] for r in untraced if r["env"]["workload"] == wl)
                      for wl in spreads},
            "end_to_end": spreads,
            "repeat": repeat,
            "per_layer_medians": layer_table(records),
            "failing_rows": failing,
        }
        (HERE / "baseline.json").write_text(json.dumps(doc, indent=1) + "\n")
        print(f"wrote {HERE / 'baseline.json'}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
