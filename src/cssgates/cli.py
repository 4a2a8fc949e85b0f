"""Command-line front end: a JSON job in, a deterministic JSON report out.

Job format (version 1):

    {
      "version": 1,
      "ell": 2,
      "code": {"type": "matrix", "n": 2, "C1": ["10", "01"], "C2": ["11"]},
      "y_x": "00",            optional, defaults to all zero
      "y_z": "00",            optional, defaults to all zero
      "gate": "1,3",          optional; "1,3", "1 3", or [1, 3]
      "tasks": ["groups"],    optional, overridden by the subcommand
      "seed": 7               optional, echoed into the report
    }

Monomial codes use {"type": "monomial", "m": 4, "M1": [...], "M2": [...]}
with monomial tokens like "1" and "x1x3". The report is a flat JSON
object: "params" always, then per requested task the keys "H"/"T"/"Id"
(Howell generators plus length), "logical_actions", "verify", and
"closed_form". Keys are sorted and the indent is fixed, so equal jobs
give byte-identical reports regardless of --threads.

Exit status: 0 on success, 1 on a rejected job or command line (the
message names the offending field, "arguments" for the command line), 2
when two formulations that must agree disagreed.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .bincode import BitVector, rref_basis
from .gates import (
    ConsistencyError,
    CssCode,
    _constraint_spans,
    all_ones_report,
    build_css,
    decompose_action,
    fixing_group,
    gate_groups,
    phase_profile,
)
from .monomial import (
    HypothesisError,
    Monomial,
    MonomialCodeSpec,
    MonomialSet,
    closed_form_fixing_group,
    closed_form_fixing_group_general,
    closed_form_transversal_identity,
    decreasing_span_monomials,
    evaluate,
    is_decreasing,
    reed_muller_degrees,
    validate_fixing_hypotheses,
    validate_transversal_identity_hypotheses,
)
from .oracle import coset_phase_check
from .zmod import MAX_LEVEL, ZModule, howell_form, kernel_perp, zvector_from_text

TASK_NAMES = ("groups", "action", "verify", "closed-form")

_MAX_VARIABLES = 20
_MAX_PHASE_QUBITS = 12


class JobError(Exception):
    """A job that cannot be run; field names the offending entry."""

    def __init__(self, field: str, message: str):
        super().__init__(message)
        self.field = field


def _expect(obj: dict, field: str, key: str, kind, *, required: bool = True, default=None):
    if key not in obj:
        if required:
            raise JobError(f"{field}.{key}" if field else key, "missing required entry")
        return default
    value = obj[key]
    if kind is int and isinstance(value, bool):
        raise JobError(f"{field}.{key}" if field else key, "expected an integer")
    if not isinstance(value, kind):
        kind_name = kind.__name__ if isinstance(kind, type) else "value"
        raise JobError(f"{field}.{key}" if field else key, f"expected a {kind_name}")
    return value


def _parse_bitstring(text: str, n: int, field: str) -> BitVector:
    if not isinstance(text, str) or len(text) != n or set(text) - {"0", "1"}:
        raise JobError(field, f"expected a string of {n} characters '0'/'1'")
    return BitVector.from_string(text)


class Job:
    """Validated job: the code, the level, and the optional extras."""

    def __init__(self, data: dict):
        if not isinstance(data, dict):
            raise JobError("", "the job must be a JSON object")
        known = {"version", "ell", "code", "y_x", "y_z", "gate", "tasks", "seed"}
        for key in data:
            if key not in known:
                raise JobError(key, "unknown entry")
        version = _expect(data, "", "version", int)
        if version != 1:
            raise JobError("version", f"unsupported version {version}")
        self.ell = _expect(data, "", "ell", int)
        if not 1 <= self.ell <= MAX_LEVEL:
            raise JobError("ell", f"must be in [1, {MAX_LEVEL}]")
        code = _expect(data, "", "code", dict)
        self.spec: MonomialCodeSpec | None = None
        self.code = self._parse_code(code)
        n = self.code.n
        y_x = data.get("y_x")
        y_z = data.get("y_z")
        if y_x is not None or y_z is not None:
            self.code = CssCode(
                self.code.pair,
                _parse_bitstring(y_x, n, "y_x") if y_x is not None else BitVector(n),
                _parse_bitstring(y_z, n, "y_z") if y_z is not None else BitVector(n),
            )
        self.gate_spec = data.get("gate")
        if self.gate_spec is not None and not isinstance(self.gate_spec, (str, list)):
            raise JobError("gate", "expected a string or a list of residues")
        self.seed = _expect(data, "", "seed", int, required=False)
        tasks = _expect(data, "", "tasks", list, required=False, default=[])
        for i, t in enumerate(tasks):
            if t not in TASK_NAMES:
                raise JobError(f"tasks[{i}]", f"unknown task {t!r}")
        self.tasks = list(tasks)

    def _parse_code(self, code: dict) -> CssCode:
        kind = _expect(code, "code", "type", str)
        if kind == "matrix":
            return self._parse_matrix(code)
        if kind == "monomial":
            return self._parse_monomial(code)
        raise JobError("code.type", f"unknown code type {kind!r}")

    def _parse_matrix(self, code: dict) -> CssCode:
        for key in code:
            if key not in {"type", "n", "C1", "C2"}:
                raise JobError(f"code.{key}", "unknown entry")
        n = _expect(code, "code", "n", int)
        if n < 1:
            raise JobError("code.n", "length must be positive")
        rows: dict[str, list[BitVector]] = {}
        for name in ("C1", "C2"):
            listed = _expect(code, "code", name, list)
            rows[name] = [
                _parse_bitstring(text, n, f"code.{name}[{i}]")
                for i, text in enumerate(listed)
            ]
        c1 = rref_basis(rows["C1"], n=n)
        c2 = rref_basis(rows["C2"], n=n)
        if c1.k == 0:
            raise JobError("code.C1", "the outer code must be nonzero")
        try:
            return build_css(c1, c2)
        except ValueError as exc:
            raise JobError("code.C2", str(exc)) from exc

    def _parse_monomial(self, code: dict) -> CssCode:
        for key in code:
            if key not in {"type", "m", "M1", "M2"}:
                raise JobError(f"code.{key}", "unknown entry")
        m = _expect(code, "code", "m", int)
        if not 1 <= m <= _MAX_VARIABLES:
            raise JobError("code.m", f"variable count must be in [1, {_MAX_VARIABLES}]")
        sets: dict[str, MonomialSet] = {}
        for name in ("M1", "M2"):
            listed = _expect(code, "code", name, list)
            masks = []
            for i, token in enumerate(listed):
                field = f"code.{name}[{i}]"
                if not isinstance(token, str):
                    raise JobError(field, "expected a monomial token")
                try:
                    masks.append(Monomial.parse(m, token).mask)
                except ValueError as exc:
                    raise JobError(field, str(exc)) from exc
            sets[name] = MonomialSet.from_masks(m, masks)
        try:
            self.spec = MonomialCodeSpec(m, sets["M1"], sets["M2"])
        except ValueError as exc:
            raise JobError("code.M2", str(exc)) from exc
        return self.spec.induced_css()

    def gate_vector(self, override: str | None) -> np.ndarray:
        source = override if override is not None else self.gate_spec
        if source is None:
            raise JobError("gate", "this task needs a gate vector")
        try:
            if isinstance(source, list):
                arr = np.array([int(x) for x in source], dtype=np.int64) % (1 << self.ell)
            else:
                arr = zvector_from_text(source, self.ell)
        except (TypeError, ValueError) as exc:
            raise JobError("gate", str(exc)) from exc
        if arr.shape[0] != self.code.n:
            raise JobError("gate", f"expected {self.code.n} entries")
        return arr

    def has_gate(self, override: str | None) -> bool:
        return override is not None or self.gate_spec is not None


def _ints(values) -> list[int]:
    return [int(x) for x in values]


def _module_entry(mod: ZModule) -> dict:
    return {"length": mod.length, "generators": [_ints(row) for row in mod.gens]}


def _groups(code, ell: int) -> dict[str, ZModule]:
    return dict(zip(("H", "T", "Id"), gate_groups(code, ell)))


def _spans(job: Job) -> dict[str, ZModule]:
    return dict(zip(("H", "T", "Id"), _constraint_spans(job.code, job.ell)))


def _task_groups(job: Job) -> dict:
    return {name: _module_entry(mod) for name, mod in _groups(job.code, job.ell).items()}


def _gates_for_action(job: Job, override: str | None) -> list[tuple[str | None, np.ndarray]]:
    if job.has_gate(override):
        return [(None, job.gate_vector(override))]
    if job.spec is None:
        raise JobError("gate", "this task needs a gate vector")
    try:
        sieve = decreasing_span_monomials(job.spec, job.ell)
    except HypothesisError as exc:
        raise JobError("gate", f"no gate given and no span candidates: {exc}") from exc
    return [
        (mono.token, evaluate(job.spec.m, mono).to_array())
        for mono in sieve.monomials()
    ]


def _task_action(job: Job, override: str | None) -> list[dict]:
    code = job.code
    spans = _spans(job)
    fixing = kernel_perp(spans["H"], job.ell, n=code.n)
    entries = []
    for name, arr in _gates_for_action(job, override):
        profile = phase_profile(code, job.ell, arr, group=fixing)
        entry: dict = {
            "name": name,
            "gate": _ints(arr),
            "in_fixing_group": bool(profile.in_fixing_group),
        }
        if profile.in_fixing_group:
            decomp = decompose_action(code, job.ell, arr, group=fixing)
            entry["global_phase"] = int(profile.global_phase)
            entry["factors"] = [
                {"J": _ints(f.qubits), "a": int(f.phase)} for f in decomp.factors
            ]
            entry["in_transversal"] = spans["T"].kernel_contains(arr)
            entry["is_identity"] = spans["Id"].kernel_contains(arr)
            if code.num_logical <= _MAX_PHASE_QUBITS:
                entry["logical_phases"] = _ints(profile.phases)
        entries.append(entry)
    return entries


def _task_verify(job: Job, override: str | None) -> dict:
    code = job.code
    arr = job.gate_vector(override)
    try:
        result = coset_phase_check(code, job.ell, arr)
    except ValueError as exc:
        raise JobError("code", str(exc)) from exc
    memberships = {name: span.kernel_contains(arr) for name, span in _spans(job).items()}
    rank = result.gate_class.rank
    expected = {"H": rank >= 1, "T": rank >= 2, "Id": rank >= 3}
    agreement = {name: memberships[name] == expected[name] for name in expected}
    if not all(agreement.values()):
        raise ConsistencyError(
            f"oracle classified the gate as {result.gate_class.value} "
            f"but the kernel memberships are {memberships}"
        )
    return {
        "gate": _ints(arr),
        "classification": result.gate_class.value,
        "memberships": memberships,
        "agreement": agreement,
        "phases": _ints(result.phases) if result.phases is not None else None,
        "witness": result.witness,
    }


def _mismatch_witness(computed: ZModule, reference: ZModule) -> list[int] | None:
    for row in computed.gens:
        if not reference.contains(row):
            return _ints(row)
    for row in reference.gens:
        if not computed.contains(row):
            return _ints(row)
    return None


def _task_closed_form(job: Job) -> dict:
    if job.spec is None:
        raise JobError("code.type", "closed forms are defined for monomial codes")
    spec = job.spec
    ell = job.ell
    pair = job.code.pair  # the closed forms describe the pair, whatever y_z is
    generic = _groups(pair, ell)
    report: dict = {}

    def theorem_entry(key: str, outcome: ZModule | HypothesisError) -> None:
        if isinstance(outcome, HypothesisError):
            entry = _module_entry(generic[key])
            entry.update(
                fallback=True,
                reason=outcome.code,
                reason_level=outcome.level,
                matches_generic=None,
            )
            report[key] = entry
            return
        if outcome != generic[key]:
            raise ConsistencyError(
                f"closed form for {key} disagrees with the kernel computation"
            )
        entry = _module_entry(outcome)
        entry.update(fallback=False, matches_generic=True)
        report[key] = entry

    try:
        h_mod = closed_form_fixing_group(spec, ell)
    except HypothesisError as exc:
        h_mod = exc
    theorem_entry("H", h_mod)
    try:
        t_mod, id_mod = closed_form_transversal_identity(spec, ell)
    except HypothesisError as exc:
        t_mod = id_mod = exc
    theorem_entry("T", t_mod)
    theorem_entry("Id", id_mod)

    try:
        general = closed_form_fixing_group_general(spec)
    except HypothesisError as exc:
        report["general"] = {"reason": exc.code, "reason_level": exc.level}
    else:
        reference = fixing_group(pair, general.ell)
        matches = general.module == reference
        report["general"] = {
            "level": general.ell,
            "length": general.module.length,
            "matches_generic": matches,
            "witness": None if matches else _mismatch_witness(general.module, reference),
        }

    try:
        sieve = decreasing_span_monomials(spec, ell)
    except HypothesisError as exc:
        report["span_candidates"] = {"reason": exc.code, "reason_level": exc.level}
    else:
        span = howell_form(
            [evaluate(spec.m, u).to_array() for u in sieve.monomials()],
            ell,
            n=spec.n,
        )
        inside = bool(generic["H"].contains_module(span))
        report["span_candidates"] = {
            "monomials": sieve.tokens(),
            "span_in_H": inside,
            "witness": None if inside else _mismatch_witness(span, generic["H"]),
        }
    return report


def _hypothesis_entry(check) -> dict:
    try:
        check()
    except HypothesisError as exc:
        return {"applies": False, "reason": exc.code, "reason_level": exc.level}
    return {"applies": True, "reason": None, "reason_level": None}


def _info(job: Job) -> dict:
    code = job.code
    pair = code.pair
    spans = _spans(job)
    ones = all_ones_report(pair, job.ell)
    info: dict = {
        # a group's length is n * ell minus its span's
        "lengths": {name: code.n * job.ell - span.length for name, span in spans.items()},
        "dimensions": {"k1": pair.c1.k, "k2": pair.c2.k},
        "all_ones": {
            "in_H": ones.in_fixing_group,
            "in_T": ones.in_transversal_group,
            "in_Id": ones.in_identity_group,
            "power_dual_contains_inner": ones.power_dual_contains_inner,
            "weights_condition": ones.weights_condition,
            "divisibility": ones.divisibility,
        },
    }
    if job.spec is not None:
        spec = job.spec
        info["closed_forms"] = {
            "fixing": _hypothesis_entry(lambda: validate_fixing_hypotheses(spec, job.ell)),
            "transversal_identity": _hypothesis_entry(
                lambda: validate_transversal_identity_hypotheses(spec, job.ell)
            ),
        }
        degrees = reed_muller_degrees(spec)
        rm: dict = {"degrees": list(degrees) if degrees else None}
        if degrees:
            q, r = degrees
            limit = spec.m - 1
            fixing_bound = q + (job.ell - 1) * r
            identity_bound = job.ell * r
            rm["fixing"] = {
                "bound": fixing_bound,
                "limit": limit,
                "applies": fixing_bound <= limit,
            }
            rm["identity"] = {
                "bound": identity_bound,
                "limit": limit,
                "applies": identity_bound <= limit,
            }
        info["reed_muller"] = rm
        info["decreasing"] = {
            "M1": is_decreasing(spec.outer),
            "M2": is_decreasing(spec.inner),
        }
    return info


def build_report(job: Job, command: str, gate_override: str | None = None) -> dict:
    report: dict = {
        "version": 1,
        "level": job.ell,
        "modulus": 1 << job.ell,
        "params": [[job.code.n, job.code.num_logical]],
        "seed": job.seed,
    }
    if command == "groups":
        report.update(_task_groups(job))
    elif command == "action":
        report["logical_actions"] = _task_action(job, gate_override)
    elif command == "verify":
        report["verify"] = _task_verify(job, gate_override)
    elif command == "closed-form":
        report["closed_form"] = _task_closed_form(job)
    elif command == "info":
        report["info"] = _info(job)
    return report


def render_report(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def _read_job(path: str) -> dict:
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except OSError as exc:
        raise JobError("input", str(exc)) from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise JobError("input", f"invalid JSON: {exc}") from exc


class _Parser(argparse.ArgumentParser):
    """A usage error is a rejected job (exit 1); exit 2 stays reserved."""

    def error(self, message: str):
        raise JobError("arguments", message)


def _make_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cssgates",
        description="Diagonal gate groups of CSS codes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = {
        "groups": "compute the three gate groups",
        "action": "decompose logical actions of diagonal gates",
        "verify": "cross-check a gate against the brute-force oracle",
        "closed-form": "evaluate monomial-code closed forms",
        "info": "summarize the code, hypotheses, and the uniform gate",
    }
    for name, help_text in specs.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--input", "-i", required=True, help="job file, or - for stdin")
        p.add_argument("--output", "-o", help="report file, defaults to stdout")
        p.add_argument("--threads", type=int, default=1,
                       help="worker hint; accepted for compatibility, unused")
        p.add_argument("--seed", type=int, help="override the job's seed")
        if name in ("action", "verify"):
            p.add_argument("--gate", help="gate vector, comma-separated residues")
    return parser


def main(argv=None) -> int:
    try:
        args = _make_parser().parse_args(argv)
        job = Job(_read_job(args.input))
        if args.seed is not None:
            job.seed = args.seed
        report = build_report(job, args.command, getattr(args, "gate", None))
    except JobError as exc:
        where = exc.field or "job"
        print(f"error: {where}: {exc}", file=sys.stderr)
        return 1
    except ConsistencyError as exc:
        print(f"inconsistency: {exc}", file=sys.stderr)
        return 2
    text = render_report(report)
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: output: {exc}", file=sys.stderr)
            return 1
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
