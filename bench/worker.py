"""One pass of one workload in one fresh process: set up, run, check.

Started by run.py with PYTHONPATH pointing at the checkout's src/. One
client sends the next job only when the previous one has returned. CLI
jobs go through cssgates.cli.main(argv) with a job file in and an
--output file out, as a shell user would run them; library jobs call
cssgates.monomial functions. With --trace 1 the pass is traced through
spans.py. Calibration slices timed between the jobs give the host
speed around each job. Outputs are checked after timing ends. Prints one
JSON line with raw timings, counts and the check outcome.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import spans  # noqa: E402
import workloads  # noqa: E402

EXPECTED = BENCH / "expected.json"
OUT = BENCH / "out"

# Host-speed calibration. The sandbox's speed drifts by a fifth and more
# over minutes, and the jobs of a pass drift with it. A fixed
# pure-Python loop, timed before every job and after the last one,
# tracks that drift; each job's time is scaled by the speed of the
# slices just before and just after it, to the speed at which one loop
# takes REFERENCE_SLICE_S. Neither may change, or times stop being
# comparable.
REFERENCE_SLICE_S = 0.0006
SLICES_PER_JOB = 3
SETUP_SLICES = 30

# Facts that do not depend on the coordinate permutation or generator
# scramble of a matrix_kernel code, so they must hold at every seed. The
# transversal group depends on the chosen logical basis and is left out.
INVARIANT_FACTS = ("len:H", "len:Id", "gate:H", "gate:Id", "info:k1", "info:k2",
                   "ones:H", "ones:Id", "ones:power_dual", "ones:divisibility")


def _slice() -> int:
    total = 0
    for i in range(8_000):
        total += i * i % 7
    return total


def _timed_slice() -> float:
    t0 = time.perf_counter()
    _slice()
    return time.perf_counter() - t0


def speed(slices: list[float]) -> float:
    """Host speed relative to the reference, from the slice times."""
    return REFERENCE_SLICE_S / statistics.median(slices)


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:24]


class Workload:
    """Jobs of one workload at one seed, ready to run."""

    def __init__(self, name: str, seed: int, workdir: Path):
        import cssgates
        import cssgates.cli
        import cssgates.monomial as monomial

        src = (ROOT / "src").resolve()
        if Path(cssgates.__file__).resolve().parent.parent != src:
            raise SystemExit(f"cssgates imported from {cssgates.__file__}, not from {src}")
        self.cli = cssgates.cli
        self.monomial = monomial
        self.name = name
        self.seed = seed
        self.workdir = workdir
        self.jobs = workloads.WORKLOADS[name](seed)
        specs: dict = {}
        files: dict[int, Path] = {}   # jobs on one code share one job file
        self.paths: list[Path | None] = []
        for job in self.jobs:
            if job.payload is None:
                job.args = tuple(self._spec(a, specs) for a in job.args)
                self.paths.append(None)
                continue
            if id(job.payload) not in files:
                path = workdir / f"{len(files)}.json"
                path.write_text(json.dumps(job.payload), encoding="utf-8")
                files[id(job.payload)] = path
            self.paths.append(files[id(job.payload)])

    def _spec(self, arg, specs: dict):
        if not (isinstance(arg, tuple) and arg[:1] == ("spec",)):
            return arg
        if arg not in specs:
            mo = self.monomial
            _, m, outer, inner = arg
            specs[arg] = mo.MonomialCodeSpec(
                m, mo.MonomialSet.from_masks(m, outer), mo.MonomialSet.from_masks(m, inner))
        return specs[arg]

    def run_pass(self, tag: str, tracer=None) -> tuple[float, list[float], list, list[list[float]]]:
        """(wall time, job times, outcomes, slice times) of one pass. The
        slice times are one list before each job and one after the last;
        the slices are not part of any job's time."""
        times, outcomes, slices = [], [], []
        start = time.perf_counter()
        for i, job in enumerate(self.jobs):
            if tracer is not None:
                tracer.job = f"{tag}:{job.id}"
            slices.append([_timed_slice() for _ in range(SLICES_PER_JOB)])
            t0 = time.perf_counter()
            outcome = self._run_job(i, job, tag)
            times.append(time.perf_counter() - t0)
            outcomes.append(outcome)
        wall = time.perf_counter() - start
        slices.append([_timed_slice() for _ in range(SLICES_PER_JOB)])
        return wall, times, outcomes, slices

    def _run_job(self, i: int, job, tag: str):
        if job.call is not None:
            try:
                return ("result", getattr(self.monomial, job.call)(*job.args))
            except self.monomial.HypothesisError as exc:
                return ("result", exc)
            except Exception as exc:  # a crash is a failed job, not a stopped run
                return ("crash", f"{type(exc).__name__}: {exc}")
        out = self.workdir / f"{i}.{tag}.out"
        err = io.StringIO()
        try:
            with contextlib.redirect_stderr(err):
                rc = self.cli.main([*job.argv, "-i", str(self.paths[i]), "--output", str(out)])
        except Exception as exc:  # a crash is a failed job, not a stopped run
            return ("crash", f"{type(exc).__name__}: {exc}")
        if rc != 0:
            return ("exit", f"exit {rc}: {err.getvalue().strip()}")
        return ("report", out)

    # ---------------------------------------------------------- checks

    def canonical(self, outcome) -> tuple[bytes | None, str | None]:
        """Output bytes of a finished job, or the reason it failed."""
        kind, value = outcome
        if kind == "report":
            return value.read_bytes(), None
        if kind == "result":
            return json.dumps(self._plain(value), sort_keys=True).encode(), None
        return None, value

    def _plain(self, value):
        mo = self.monomial
        if value is None:
            return None
        if isinstance(value, mo.HypothesisError):
            return {"hypothesis_error": value.code, "level": value.level}
        if isinstance(value, tuple):
            return [self._plain(v) for v in value]
        if isinstance(value, mo.MonomialSet):
            return value.tokens()
        if isinstance(value, mo.GeneralClosedForm):
            return {"level": value.ell, "module": self._plain(value.module)}
        if isinstance(value, mo.ZModule):
            return {"n": value.n, "ell": value.ell, "length": value.length,
                    "generators": value.gens.tolist()}
        raise TypeError(f"no canonical form for {type(value).__name__}")


def _check_module(entry: dict, ell: int) -> str | None:
    """Howell-form shape: increasing pivots, power-of-two pivot entries,
    reduced above each pivot, and a length that matches the pivots."""
    rows = entry["generators"]
    last, length, N = -1, 0, 1 << ell
    for i, row in enumerate(rows):
        col = next((c for c, x in enumerate(row) if x), None)
        if col is None or col <= last or not 0 < row[col] < N or row[col] & (row[col] - 1):
            return "generators are not in Howell echelon form"
        if any(not 0 <= prev[col] < row[col] for prev in rows[:i]):
            return "entry above a pivot is not reduced"
        last = col
        length += ell - (row[col].bit_length() - 1)
    if length != entry["length"]:
        return f"length {entry['length']} does not match the pivots ({length})"
    return None


def report_facts(report: dict) -> tuple[dict, list[str]]:
    """Facts a CLI report states about its code and gate, plus shape errors."""
    facts, errors = {}, []
    ell = report["level"]
    for key in ("H", "T", "Id"):
        if key in report:
            facts[f"len:{key}"] = report[key]["length"]
            errors.append(_check_module(report[key], ell))
    for key, entry in report.get("closed_form", {}).items():
        if key in ("H", "T", "Id"):
            facts[f"len:{key}"] = entry["length"]
            errors.append(_check_module(entry, ell))
    actions = report.get("logical_actions")
    if actions and len(actions) == 1 and actions[0]["name"] is None:
        act = actions[0]
        facts["gate:H"] = act["in_fixing_group"]
        if act["in_fixing_group"]:
            facts["gate:T"] = act["in_transversal"]
            facts["gate:Id"] = act["is_identity"]
    if "verify" in report:
        ver = report["verify"]
        for key, value in ver["memberships"].items():
            facts[f"gate:{key}"] = value
        if not all(ver["agreement"].values()):
            errors.append("verify reports a disagreement")
    if "info" in report:
        info = report["info"]
        for key, value in info["lengths"].items():
            facts[f"len:{key}"] = value
        facts["info:k1"] = info["dimensions"]["k1"]
        facts["info:k2"] = info["dimensions"]["k2"]
        ones = info["all_ones"]
        facts["ones:H"] = ones["in_H"]
        facts["ones:Id"] = ones["in_Id"]
        facts["ones:power_dual"] = ones["power_dual_contains_inner"]
        facts["ones:divisibility"] = ones["divisibility"]
    return facts, [e for e in errors if e]


def check(wl: Workload, outcomes: list) -> tuple[list[str], list[str], dict, dict]:
    """(problems, failures, digests, facts) of one pass.

    A problem is a wrong answer: a digest or fact mismatch, a missing
    digest at the default seed, or a malformed Howell form. A failure is
    a job that produced no answer. The failures must be exactly the
    recorded ones, job and reason, at every seed; any other failure, or
    a recorded one that did not happen, is a problem too, so a run whose
    failure count differs from the recorded one is never correct.
    """
    expected = json.loads(EXPECTED.read_text()).get(wl.name, {}) if EXPECTED.exists() else {}
    known_digests = expected.get("digests", {})
    known_facts = expected.get("facts", {})
    default = wl.seed == workloads.DEFAULT_SEED
    known_failures = set(expected.get("known_failures", ()))
    problems, failures = [], []
    digests: dict[str, str] = {}
    facts: dict[str, dict] = {}
    for job, outcome in zip(wl.jobs, outcomes):
        data, failure = wl.canonical(outcome)
        if failure is not None:
            failures.append(f"{job.id}: {failure}")
            continue
        digests[job.id] = digest = _digest(data)
        want = known_digests.get(job.id)
        if want is None and default:
            problems.append(f"{job.id}: no stored digest")
        elif (default or job.stable) and want is not None and want != digest:
            problems.append(f"{job.id}: digest {digest} != expected {want}")
        if job.call is not None:
            continue
        found, errors = report_facts(json.loads(data))
        problems += [f"{job.id}: {e}" for e in errors]
        seen = facts.setdefault(job.code, {})
        for key, value in [*job.facts.items(), *found.items()]:
            if seen.setdefault(key, value) != value:
                problems.append(f"{job.id}: {key} is {value}, another job said {seen[key]}")
    for code, wanted in known_facts.items():
        got = facts.get(code, {})
        for key, want in wanted.items():
            if key not in got:
                problems.append(f"{code}: {key} not reported, expected {want}")
            elif got[key] != want:
                problems.append(f"{code}: {key} is {got[key]}, expected {want}")
    problems += [f"unexpected failure {f}" for f in failures if f not in known_failures]
    problems += [f"recorded failure did not happen: {f}" for f in sorted(known_failures - set(failures))]
    return problems, failures, digests, facts


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        wl = Workload(args.workload, args.seed, workdir)
        ready = time.monotonic()
        result: dict = {"ready": ready}
        if args.setup_only:
            result["speed"] = speed([_timed_slice() for _ in range(SETUP_SLICES)])
            print(json.dumps(result))
            return 0
        if args.trace:
            tracer = spans.Tracer()
            uninstall = spans.install(tracer)
            try:
                wall, times, outcomes, slices = wl.run_pass("traced", tracer)
            finally:
                uninstall()
            tracer.write_spans(str(OUT / f"spans-{args.workload}-seed{args.seed}-{os.getpid()}.jsonl"))
            result["layers"] = tracer.metrics()
        else:
            wall, times, outcomes, slices = wl.run_pass("pass")
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        problems, failures, digests, facts = check(wl, outcomes)
        if threading.active_count() > 1:
            # a thread left running would slow the calibration slices
            # and so make every scaled time read low
            problems.append(f"{threading.active_count() - 1} threads left running after the pass")
        result.update(
            wall=wall,
            job_times=times,
            speed=speed([t for around in slices for t in around]),
            job_speeds=[speed(before + after) for before, after in zip(slices, slices[1:])],
            attempted=len(wl.jobs),
            failures=failures,
            problems=problems,
            peak_rss_mib=peak,
            digests=digests,
            facts=facts,
        )
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
