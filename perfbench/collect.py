"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 perfbench/collect.py --workloads train-fast,harvest-fast \
        --seeds 1-10 --seconds 25 --trace 0 --out perfbench/out/spread.json

Runs one process at a time.  For every workload and metric it reports the
median, the quartiles (``statistics.quantiles(values, n=4)``) and the spread
``(q3 - q1) / median``, and flags a spread above a third of the metric's
bound in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def summarise(runs: list[dict], bounds: dict) -> dict:
    summary = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        spread = (q3 - q1) / median if median else 0.0
        summary[name] = {"unit": runs[0]["metrics"][name]["unit"], "median": median,
                         "q1": q1, "q3": q3, "spread": spread, "values": values}
        if name in bounds:
            summary[name]["bound"] = bounds[name]
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {"seconds": seconds, "trace": args.trace, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seed_list(args.seeds):
            child = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)],
                cwd=ROOT, check=True, stdout=subprocess.PIPE, text=True)
            lines = child.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            result["seed"], result["printed"] = seed, lines[:-1]
            runs.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)
        summary = summarise(runs, bounds)
        report["workloads"][workload] = {
            "correct": all(r["correct"] for r in runs),
            "failed_share": [r["failed"] / r["attempted"] for r in runs],
            "metrics": summary, "runs": runs}
        for name, s in summary.items():
            flag = ""
            if "bound" in s and name != "setup_s" and s["spread"] > s["bound"] / 3:
                flag = "  <-- spread above a third of the bound"
            print(f"  {name:<34} median {s['median']:.6g} {s['unit']}  "
                  f"spread {s['spread']:.4f}{flag}", flush=True)
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
