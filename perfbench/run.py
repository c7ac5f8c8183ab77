"""Benchmark of the listen-look-move loop: one workload per run.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload train-fast --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

A run measures set-up first, then runs whole rounds of its workload (see
``workloads.py``) until ``--seconds`` have passed, checks every round's
outputs, and prints its figures followed by one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` alternates untraced and traced rounds on the
same inputs, reports the per-layer metrics and the tracing overhead, and
writes the spans to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("train-fast", "harvest-fast", "train-full")
#: Fresh interpreters timed per run; set-up is their median.
SETUP_RUNS = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def import_program():
    """Put this checkout's ``src/`` first on the path; refuse any other copy.

    Thread counts must be fixed before numpy is first imported.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"
    package = SRC / "cocktail"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source at {package}")
    sys.path[:0] = [str(SRC), str(HERE)]
    import cocktail

    if Path(cocktail.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: imported cocktail from {cocktail.__file__}")


def measure_setup(workload: str, seed: int, runs: int, clock) -> float:
    """Median calibrated wall time of fresh interpreters that import the
    program and prepare the workload."""
    times = []
    for _ in range(runs):
        clock.sample()
        t0 = time.perf_counter()
        subprocess.run([sys.executable, str(Path(__file__)), "--setup-only",
                        "--workload", workload, "--seed", str(seed)],
                       check=True, stdout=subprocess.DEVNULL)
        t1 = time.perf_counter()
        clock.sample()
        times.append((t1 - t0) * clock.factor(t0, t1))
    return statistics.median(times)


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 setup_runs: int = SETUP_RUNS, spec=None) -> dict:
    """Measure one workload; returns the result object and prints figures."""
    import workloads as w
    from calibrate import Clock
    from tracing import Tracer

    spec = spec or w.WORKLOADS[name]
    clock = Clock()
    setup_s = measure_setup(name, seed, setup_runs, clock) if setup_runs and not trace else 0.0
    policy = w.prepare(spec)
    log = w.EpisodeLog(clock)
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    plain, traced = [], []
    origin_ns = time.perf_counter_ns()
    try:
        start = last = time.perf_counter()
        while True:
            index = len(plain) + len(traced)
            tracer = Tracer() if trace and index % 2 else None
            done = w.run_round(spec, policy, w.round_seed(seed, 0 if trace else index),
                               log, workdir, tracer)
            (traced.append((done, tracer)) if tracer else plain.append(done))
            if done.error:
                break
            # Whole rounds only: start another while it is expected to end
            # nearer the time asked for than stopping now would.
            now = time.perf_counter()
            if now - start + (now - last) / 2 >= seconds and (traced or not trace):
                break
            last = now
    finally:
        shutil.rmtree(workdir)

    rounds = plain + [done for done, _ in traced]
    errors = [r.error for r in rounds if r.error]
    if trace:
        digests = {r.digest for r in rounds if not r.error}
        if len(digests) > 1:
            errors.append(f"rounds on the same inputs disagree: {sorted(digests)}")
    print(f"workload {name}  seed {seed}  {'traced' if trace else 'untraced'}  "
          f"{len(rounds)} rounds of {spec.episodes} episodes")
    for message in errors:
        print(f"  CHECK FAILED: {message}", file=sys.stderr)

    if trace and traced:
        metrics, figures = w.per_layer(traced, plain)
        path = OUT / f"trace-{name}-seed{seed}.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"workload": name, "seed": seed,
                       "rounds": [t.export(origin_ns) for _, t in traced]},
                      fh, separators=(",", ":"))
        print(f"  spans written to {path.relative_to(HERE.parent)}")
    else:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = w.end_to_end(plain, setup_s, peak_rss_mb)
        figures = w.workload_figures(spec, plain)
    for key, (value, unit) in figures.items():
        print(f"  ({key:<32} {value} {unit})")
    for key, (value, unit) in metrics.items():
        print(f"  {key:<34} {value:.6g} {unit}")
    return {
        "correct": not errors,
        "attempted": sum(r.ops for r in rounds),
        "failed": 0,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_all(seed: int, seconds: float, trace: int) -> dict:
    """Each workload in its own interpreter, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        child = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            check=True, stdout=subprocess.PIPE, text=True)
        lines = child.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{name}/{key}"] = value
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import and prepare the workload, then exit "
                             "(what set-up time measures)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.setup_only and args.workload == "all":
        parser.error("--setup-only takes one workload")
    import_program()
    if args.setup_only:
        import workloads

        workloads.prepare(workloads.WORKLOADS[args.workload])
        return 0
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, args.trace)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
