"""Run the benchmark in alternating pairs on two checkouts and write the comparison.

    python3 tools/bench_pairs.py --parent ../parent --change . \
        --workload all --seeds 301-310 --name render_stream

Pair ``i`` runs ``perfbench/run.py --workload W --seed s --trace 0`` once in
each checkout, one process at a time; the parent runs first in even pairs
and the change first in odd ones.  For every end-to-end metric it reports
each side's median and quartiles (``statistics.quantiles(values, n=4)``),
the change's median relative to the parent's, the pairs the change won
(ties count for neither side), and two verdicts:

- ``gain``: the change won at least 9 of every 10 pairs, and its median
  beats the parent's by more than the parent's interquartile range;
- ``within_bound``: the change's median is worse than the parent's by no
  more than the metric's ``BENCHMARK.json`` bound, a fraction of the
  parent's median (``null`` for a metric without a bound).

It writes all of it, every run included, to ``BENCH_<name>.json`` at the
root of the repository this script sits in.
It exits 1, after writing the report, when any run failed a check or an
operation, or crashed, and 0 otherwise.  A run that exits non-zero ends the
series: the report holds the pairs finished before it and names the crashed
run by seed, side and exit code.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def revision(checkout: Path) -> str:
    """The checkout's commit, with ``+dirty`` when tracked files differ from it."""
    rev = subprocess.run(["git", "-C", str(checkout), "rev-parse", "--short=12", "HEAD"],
                         capture_output=True, text=True).stdout.strip()
    if not rev:
        return "unknown"
    dirty = subprocess.run(["git", "-C", str(checkout), "diff", "--quiet", "HEAD"]).returncode
    return rev + ("+dirty" if dirty else "")


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in ``checkout``; returns its result object."""
    child = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, check=True, stdout=subprocess.PIPE, text=True)
    return json.loads(child.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                      else values * 3)
    return {"median": median, "q1": q1, "q3": q3}


def verdicts(summary: dict, bound: float | None) -> dict:
    """The ``gain`` and ``within_bound`` verdicts of one metric's summary."""
    sign = 1 if summary["better"] == "higher" else -1
    parent = summary["parent"]
    gained = sign * (summary["change"]["median"] - parent["median"])
    return {"gain": (10 * summary["change_wins"] >= 9 * summary["pairs"]
                     and gained > parent["q3"] - parent["q1"]),
            "within_bound": None if bound is None else -gained <= bound * abs(parent["median"])}


def compare(pairs: list[dict], better: dict, bounds: dict | None = None) -> dict:
    """Per metric: each side's median and quartiles, the change's wins, and
    the verdicts, with ``bounds`` keyed like ``better``."""
    out = {}
    for name, first in pairs[0]["parent"]["metrics"].items():
        base = name.split("/")[-1]
        parent = [p["parent"]["metrics"][name]["value"] for p in pairs]
        change = [p["change"]["metrics"][name]["value"] for p in pairs]
        sign = 1 if better.get(base, "higher") == "higher" else -1
        summary = {"unit": first["unit"], "better": better.get(base, "higher"),
                   "parent": quartiles(parent), "change": quartiles(change),
                   "change_wins": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
                   "parent_wins": sum(sign * (p - c) > 0 for p, c in zip(parent, change)),
                   "pairs": len(pairs)}
        p50 = summary["parent"]["median"]
        summary["relative_change"] = (summary["change"]["median"] - p50) / p50 if p50 else None
        summary.update(verdicts(summary, (bounds or {}).get(base)))
        out[name] = summary
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--workload", default="all",
                        help="train-fast, harvest-fast, train-full or all")
    parser.add_argument("--seeds", default="1-10", help="'a-b' or a comma list")
    parser.add_argument("--seconds", type=float, help="run length (BENCHMARK.json's by default)")
    parser.add_argument("--name", required=True, help="writes BENCH_<name>.json")
    args = parser.parse_args(argv)
    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"] if "bound" in m}

    pairs, crashed = [], []
    for i, seed in enumerate(seed_list(args.seeds)):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            try:
                pair[side] = run_once(getattr(args, side), args.workload, seed, seconds)
            except subprocess.CalledProcessError as exc:
                crashed.append([seed, side, exc.returncode])
                break
            print(f"pair {i} seed {seed} {side}: correct {pair[side]['correct']}, "
                  f"failed {pair[side]['failed']} of {pair[side]['attempted']}", flush=True)
        if crashed:
            break
        pairs.append(pair)

    report = {
        "workload": args.workload,
        "seconds": seconds,
        "seeds": seed_list(args.seeds),
        "parent": revision(args.parent),
        "change": revision(args.change),
        "metrics": compare(pairs, better, bounds) if pairs else {},
        # Runs that failed a check or an operation, as [seed, side].
        "failed_runs": [[p["seed"], side] for p in pairs for side in ("parent", "change")
                        if not p[side]["correct"] or p[side]["failed"]],
        # The run that exited non-zero, as [seed, side, exit code].
        "crashed_runs": crashed,
        "runs": pairs,
    }
    path = ROOT / f"BENCH_{args.name}.json"
    path.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    for name, m in report["metrics"].items():
        print(f"{name:<34} {m['parent']['median']:.6g} [{m['parent']['q1']:.6g}, "
              f"{m['parent']['q3']:.6g}] -> {m['change']['median']:.6g} "
              f"({m['change_wins']}/{m['pairs']} won) {m['unit']}; "
              f"gain {m['gain']}, within bound {m['within_bound']}")
    print(f"written to {path}")
    if report["failed_runs"]:
        print(f"runs that failed a check or an operation: {report['failed_runs']}",
              file=sys.stderr)
    if crashed:
        print(f"run that crashed, as [seed, side, exit code]: {crashed[0]}", file=sys.stderr)
    return 1 if report["failed_runs"] or crashed else 0


if __name__ == "__main__":
    sys.exit(main())
