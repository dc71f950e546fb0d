"""Summarize run records: median, quartiles and spread of every metric.

    python3 perfbench/summarize.py perfbench/out/*-trace0.json
    python3 perfbench/summarize.py --label seed --write perfbench/trajectory/seed.json perfbench/out/*-trace?.json

Records are the JSON files `run.py` writes under `perfbench/out/`, one per
run.  Spread is the distance between the first and third quartile
(`statistics.quantiles(values, n=4)`) as a share of the median; it is
compared with the bound `BENCHMARK.json` gives an end-to-end metric.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def summary(values: list[float]) -> dict:
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    spread = (q3 - q1) / abs(median) if median else float("inf")
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "runs": len(values)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("records", nargs="+", type=Path)
    parser.add_argument("--write", type=Path, help="write a trajectory point to this path")
    parser.add_argument("--label", default="unlabelled", help="label of the trajectory point")
    args = parser.parse_args(argv)

    bounds = {}
    spec_path = ROOT / "BENCHMARK.json"
    if spec_path.is_file():
        bounds = {m["name"]: m["bound"] for m in json.loads(spec_path.read_text())["end_to_end"]}

    values: dict[tuple[str, str], dict[str, list[float]]] = defaultdict(lambda: defaultdict(list))
    units: dict[str, str] = {}
    envs, seeds, tails = [], defaultdict(list), defaultdict(list)
    for path in args.records:
        record = json.loads(path.read_text())
        key = (record["workload"], "per_layer" if record["trace"] else "end_to_end")
        for name, metric in record["result"]["metrics"].items():
            values[key][name].append(metric["value"])
            units[name] = metric["unit"]
        seeds[key].append(record["seed"])
        if record.get("tail"):
            tails[record["workload"]].append(record["tail"]["percentile"])
        envs.append(record["env"])

    worst = 0.0
    point = {"label": args.label, "env": envs[0] if envs else None, "workloads": {}}
    for (workload, kind), metrics in sorted(values.items()):
        print(f"{workload} {kind}: {len(seeds[(workload, kind)])} runs, seeds {sorted(seeds[(workload, kind)])}")
        if kind == "end_to_end":
            print(f"  op_tail_s percentiles: {sorted(set(tails[workload]))}")
        out = point["workloads"].setdefault(workload, {}).setdefault(kind, {})
        for name, vals in metrics.items():
            s = summary(vals)
            out[name] = {**s, "unit": units[name]}
            flag = ""
            if kind == "end_to_end" and name in bounds:
                ratio = s["spread"] / bounds[name]
                worst = max(worst, ratio)
                flag = f"  spread/bound {ratio:.2f}" + ("  OVER THIRD" if ratio > 1 / 3 else "")
            print(f"  {name:32s} {s['median']:.6g} {units[name]:6s} "
                  f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {s['spread']:.4f}{flag}")
    print(f"largest spread/bound: {worst:.2f}")
    if args.write:
        args.write.parent.mkdir(parents=True, exist_ok=True)
        args.write.write_text(json.dumps(point, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
