"""cssgates benchmark: four closed-loop job workloads, end-to-end and per layer.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

--seconds defaults to run_seconds in BENCHMARK.json, which also holds
every metric's name and unit.

Each pass over a workload's job list runs in its own fresh
single-threaded Python process (bench/worker.py) with one client that
sends the next job only after the previous one returned. Run from the
root of a checkout: the program is imported from its src/ and nothing
else.

With --trace 0 the run makes passes until --seconds is spent and reports
the end-to-end metrics, measured with tracing off. Times are scaled to a
reference host speed measured inside every pass (see worker.py). With --trace 1 it
runs an untraced pass, two traced ones and another untraced one, and
reports the per-layer metrics, including the tracing overhead; the exact
counts of bench/spans.py must agree between the two traced passes. Every output is
checked after timing; the last line of stdout is one JSON object with
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}

SETUP_PROBES = 4          # set-up-only processes, half before the passes and half after
MIN_PASSES = 2            # so that every job time is taken at two moments at least
RUN_TIMEOUT_S = 170       # a run must end within 180 s


def _worker(args: list[str], timeout: float) -> tuple[float, dict]:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    started = time.monotonic()
    proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), *args], env=env,
                          capture_output=True, text=True, timeout=timeout, cwd=ROOT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker {' '.join(args)} exited with {proc.returncode}")
    return started, json.loads(proc.stdout.strip().splitlines()[-1])


def tail(times: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond it): the highest percentile with
    at least ten samples beyond it, by nearest rank."""
    ordered = sorted(times)
    rank = max(1, len(ordered) - 10)
    return ordered[rank - 1], 100.0 * rank / len(ordered), len(ordered) - rank


def run_passes(common: list[str], seconds: int, deadline: float) -> tuple[list[dict], list[dict]]:
    """Untraced passes, one fresh process each, while the next pass is
    expected to end within `seconds` of the first one's start, and at
    least MIN_PASSES. Returns the passes and every process's result,
    set-up probes included."""
    processes: list[dict] = []

    def worker(args: list[str]) -> dict:
        started, res = _worker([*common, *args], deadline - time.monotonic())
        res["setup_s"] = res["ready"] - started
        processes.append(res)
        return res

    for _ in range(SETUP_PROBES // 2):
        worker(["--setup-only"])
    passes: list[dict] = []
    begin = time.monotonic()
    while True:
        started = time.monotonic()
        passes.append(worker([]))
        now = time.monotonic()
        if len(passes) >= MIN_PASSES and now + (now - started) > begin + seconds:
            break
    for _ in range(SETUP_PROBES - SETUP_PROBES // 2):
        worker(["--setup-only"])
    return passes, processes


def time_metrics(passes: list[dict], processes: list[dict], scaled: bool) -> tuple[dict, float, int]:
    """wall_s, job_p50_s, job_tail_s and setup_s, the tail percentile and
    the number of jobs beyond it.

    A job's time is its median over the passes, which repeats better
    than one pass's time or the fastest pass. A scaled job time is
    multiplied by the host speed measured just before and after the
    job; a scaled set-up time by the speed measured in its process.
    """
    def k(res: dict) -> float:
        return res["speed"] if scaled else 1.0

    job_times = [statistics.median(ts) for ts in zip(*(
        [t * (s if scaled else 1.0) for t, s in zip(res["job_times"], res["job_speeds"])]
        for res in passes))]
    value, pct, beyond = tail(job_times)
    return {
        "wall_s": sum(job_times),
        "job_p50_s": statistics.median(job_times),
        "job_tail_s": value,
        "setup_s": statistics.median(res["setup_s"] * k(res) for res in processes),
    }, pct, beyond


def run_workload(name: str, seed: int, seconds: int, trace: int) -> dict:
    deadline = time.monotonic() + RUN_TIMEOUT_S
    common = ["--workload", name, "--seed", str(seed)]
    if trace:
        # untraced, traced twice, untraced: the overhead is the mean wall
        # time of the traced passes minus that of the untraced ones around them
        passes = [_worker([*common, *args], deadline - time.monotonic())[1]
                  for args in ([], ["--trace", "1"], ["--trace", "1"], [])]
    else:
        passes, processes = run_passes(common, seconds, deadline)
    problems = [p for res in passes for p in res["problems"]]
    # outputs must be byte-identical in every pass, traced or not
    first = passes[0]["digests"]
    problems += sorted({f"{job}: output differs between passes" for res in passes[1:]
                        for job, d in res["digests"].items() if first.get(job) != d})
    failures = [f for res in passes for f in res["failures"]]
    attempted = sum(res["attempted"] for res in passes)
    notes = [f"  failed_frac {len(failures) / attempted:.4f} ratio "
             f"({len(failures)} of {attempted} jobs)"]
    if trace:
        traced = passes[1:3]
        problems += [f"{m} is {traced[0]['layers'][m]} and {traced[1]['layers'][m]} "
                     "in the two traced passes" for m in spans.EXACT_COUNTS
                     if traced[0]["layers"][m] != traced[1]["layers"][m]]
        walls = [res["wall"] * res["speed"] for res in passes]
        metrics = {}
        for m in [metric["name"] for metric in SPEC["per_layer"]]:
            if m == "trace.overhead_s":
                metrics[m] = (walls[1] + walls[2] - walls[0] - walls[3]) / 2
            else:
                metrics[m] = statistics.mean(
                    res["layers"][m] * (res["speed"] if m.endswith("_s") else 1) for res in traced)
        notes.append("  per-layer metrics are the mean of the two traced passes, "
                     "times scaled to host speed 1")
    else:
        metrics, pct, beyond = time_metrics(passes, processes, scaled=True)
        raw, _, _ = time_metrics(passes, processes, scaled=False)
        metrics["peak_rss_mib"] = statistics.median(res["peak_rss_mib"] for res in passes)
        metrics = {m["name"]: metrics[m["name"]] for m in SPEC["end_to_end"]}
        notes.append(f"  times are scaled to host speed 1; each job's time is its median "
                     f"over the {len(passes)} passes")
        notes.append("  unscaled: " + ", ".join(f"{m} {v:.6f} s" for m, v in raw.items()))
        notes.append(f"  job_tail_s is p{pct:.1f} of {len(passes[0]['job_times'])} jobs "
                     f"({beyond} beyond it)")
        notes.append(f"  setup_s is the median of {len(processes)} processes")
    out = [f"{name} seed={seed} passes={len(passes)} jobs={attempted} "
           f"failed={len(failures)} problems={len(problems)}"]
    out += [f"  failure: {f}" for f in sorted(set(failures))]
    out += [f"  problem: {p}" for p in problems[:20]]
    out.append("  pass wall times " + ", ".join(
        f"{res['wall']:.3f} s at host speed {res['speed']:.3f}" for res in passes))
    out += notes
    out += [f"  {m:30s} {v:14.6f} {UNITS[m]}" for m, v in metrics.items()]
    print("\n".join(out), flush=True)
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m: {"value": v, "unit": UNITS[m]} for m, v in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=["all", *workloads.WORKLOADS])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "cssgates" / "__init__.py").is_file():
        print(f"error: no cssgates sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if set(spans.MOVES) != {m["name"] for m in SPEC["per_layer"]}:
        print("error: bench/spans.py MOVES and BENCHMARK.json per_layer name "
              "different metrics", file=sys.stderr)
        return 2

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run_workload(name, args.seed, args.seconds, args.trace) for name in names}
    if len(results) == 1:
        summary = results[names[0]]
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{m}": v for name, r in results.items()
                        for m, v in r["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
