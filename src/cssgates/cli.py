"""Command-line front end: a JSON job in, a deterministic JSON report out.

Job format (version 1):

    {
      "version": 1,
      "ell": 2,
      "code": {"type": "matrix", "n": 2, "C1": ["10", "01"], "C2": ["11"]},
      "y_x": "00",            optional, defaults to all zero
      "y_z": "00",            optional, defaults to all zero
      "gate": "1,3",          optional; "1,3", "1 3", or [1, 3]
      "tasks": ["groups"],    optional; each a command name, checked, never run
      "seed": 7               optional, echoed into the report
    }

Monomial codes use {"type": "monomial", "m": 4, "M1": [...], "M2": [...]}
with monomial tokens like "1" and "x1x3". The report is a flat JSON
object: "params" always, then the command's keys: "H"/"T"/"Id" (Howell
generators plus length), "logical_actions", "verify", "closed_form" or
"info". Keys are sorted and the indent is fixed, so equal jobs give
byte-identical reports.

The command line is `cssgates COMMAND -i JOB [-o REPORT] [--seed N]
[--gate B]`, options in any order; COMMANDS names the five commands, and
only action and verify take --gate. Every command reads the groups of
the unshifted pair from gates.groups, the library's one entry point: it
is handed the spec of a monomial job (exponent tables) or the pair of a
matrix job (constraint spans), and the job's y_z moves either by the one
rule of gates._Groups. A command builds a module only where its report
prints one; closed-form checks each closed form against the exponent
tables by memberships and length, and action answers each gate from one
pass of the job's route (gates._Groups.action).

Exit status: 0 on success, 1 on a rejected job or command line (the
message names the offending field, "arguments" for the command line), 2
when two formulations that must agree disagreed.
"""

from __future__ import annotations

import argparse
import json
import sys
from json.encoder import encode_basestring_ascii

import numpy as np

from .bincode import BitVector, NestedCodePair, aligned_bases, rref_basis
from .gates import (
    ConsistencyError,
    CssCode,
    _GROUPS,
    _all_ones,
    groups,
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
from .zmod import MAX_LEVEL, ZModule, howell_form, zvector_from_text

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
    """Validated job: the code, the level, and the optional extras.

    A monomial job builds its CssCode (the length-2^m evaluation vectors,
    no elimination) on first use of `code`: the groups read only the
    spec, the level and y_z."""

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
        pair = self._parse_code(code)
        n = self.n
        y_x = data.get("y_x")
        y_z = data.get("y_z")
        self.y_x = _parse_bitstring(y_x, n, "y_x") if y_x is not None else BitVector(n)
        self.y_z = _parse_bitstring(y_z, n, "y_z") if y_z is not None else BitVector(n)
        self._code = None if pair is None else CssCode(pair, self.y_x, self.y_z)
        self.gate_spec = data.get("gate")
        if self.gate_spec is not None and not isinstance(self.gate_spec, (str, list)):
            raise JobError("gate", "expected a string or a list of residues")
        self.seed = _expect(data, "", "seed", int, required=False)
        tasks = _expect(data, "", "tasks", list, required=False, default=[])
        for i, t in enumerate(tasks):
            if not isinstance(t, str) or t not in COMMANDS:
                raise JobError(f"tasks[{i}]", f"unknown task {t!r}")

    @property
    def code(self) -> CssCode:
        if self._code is None:
            self._code = CssCode(self.spec.induced_pair(), self.y_x, self.y_z)
        return self._code

    def _parse_code(self, code: dict) -> NestedCodePair | None:
        """Set n and num_logical; the pair of a matrix code, None for a
        monomial one."""
        kind = _expect(code, "code", "type", str)
        if kind == "matrix":
            return self._parse_matrix(code)
        if kind == "monomial":
            self._parse_monomial(code)
            return None
        raise JobError("code.type", f"unknown code type {kind!r}")

    def _parse_matrix(self, code: dict) -> NestedCodePair:
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
            pair = aligned_bases(c1, c2)
        except ValueError as exc:
            raise JobError("code.C2", str(exc)) from exc
        self.n, self.num_logical = pair.n, pair.num_logical
        return pair

    def _parse_monomial(self, code: dict) -> None:
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
            raise JobError("code.M2" if sets["M1"].masks else "code.M1", str(exc)) from exc
        # distinct monomials evaluate to independent words, so K = |M1| - |M2|
        self.n, self.num_logical = self.spec.n, len(sets["M1"]) - len(sets["M2"])

    def gate_vector(self) -> np.ndarray:
        if self.gate_spec is None:
            raise JobError("gate", "this task needs a gate vector")
        gate = self.gate_spec
        try:
            if isinstance(gate, list):
                for i, x in enumerate(gate):
                    if type(x) is not int:
                        raise ValueError(f"not an integer residue at position {i + 1}: {x!r}")
                gate = ",".join(map(str, gate))
            arr = zvector_from_text(gate, self.ell)
        except ValueError as exc:
            raise JobError("gate", str(exc)) from exc
        if arr.shape[0] != self.n:
            raise JobError("gate", f"expected {self.n} entries")
        return arr


def _module_entry(mod: ZModule) -> dict:
    return {"length": mod.length, "generators": mod.gens.tolist()}


def _task_groups(job: Job) -> dict:
    found = groups(job.spec or job.code.pair, job.ell).shifted(job)
    return {name: _module_entry(found.module(name)) for name in _GROUPS}


def _gates_for_action(job: Job) -> list[tuple[str | None, np.ndarray]]:
    if job.gate_spec is not None:
        return [(None, job.gate_vector())]
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


def _task_action(job: Job) -> dict:
    found = groups(job.spec or job.code.pair, job.ell).shifted(job)
    entries = []
    for name, arr in _gates_for_action(job):
        # one route pass gives the memberships, the factors and the phases
        members, global_phase, decomp = found.action(arr)
        phases = decomp.phase_table()
        entry: dict = {"name": name, "gate": arr.tolist(), "in_fixing_group": members["H"]}
        if members["H"]:
            entry["global_phase"] = global_phase
            entry["factors"] = [
                {"J": list(f.qubits), "a": f.phase} for f in decomp.factors
            ]
            entry["in_transversal"] = members["T"]
            entry["is_identity"] = members["Id"]
            if job.num_logical <= _MAX_PHASE_QUBITS:
                entry["logical_phases"] = phases.tolist()
        entries.append(entry)
    return {"logical_actions": entries}


def _task_verify(job: Job) -> dict:
    code = job.code
    arr = job.gate_vector()
    try:
        result = coset_phase_check(code, job.ell, arr)
    except ValueError as exc:
        raise JobError("code", str(exc)) from exc
    found = groups(job.spec or code.pair, job.ell).shifted(code)
    memberships = {name: found.contains(name, arr) for name in _GROUPS}
    rank = result.gate_class.rank
    expected = {"H": rank >= 1, "T": rank >= 2, "Id": rank >= 3}
    agreement = {name: memberships[name] == expected[name] for name in expected}
    if not all(agreement.values()):
        raise ConsistencyError(
            f"oracle classified the gate as {result.gate_class.value} "
            f"but the kernel memberships are {memberships}"
        )
    return {"verify": {
        "gate": arr.tolist(),
        "classification": result.gate_class.value,
        "memberships": memberships,
        "agreement": agreement,
        "phases": result.phases.tolist() if result.phases is not None else None,
        "witness": result.witness,
    }}


def _mismatch_witness(computed: ZModule, tables, name: str) -> list[int] | None:
    """None when computed is the group of tables, the groups of a spec;
    else a generator of one outside the other, computed's first. One zeta
    pass answers the memberships of all of computed's generators, and the
    group's module is built only when computed is a proper submodule of
    it."""
    outside = np.flatnonzero(~tables.members(name, computed.gens))
    if outside.size:
        return computed.gens[outside[0]].tolist()
    if computed.length == tables.length(name):
        return None
    return next(row.tolist() for row in tables.module(name).gens if not computed.contains(row))


def _task_closed_form(job: Job) -> dict:
    if job.spec is None:
        raise JobError("code.type", "closed forms are defined for monomial codes")
    spec = job.spec
    ell = job.ell
    # the closed forms describe the pair, whatever y_z is
    tables = groups(spec, ell)
    report: dict = {}

    def theorem_entry(key: str, outcome: ZModule | HypothesisError) -> None:
        if isinstance(outcome, HypothesisError):
            entry = _module_entry(tables.module(key))
            entry.update(
                fallback=True,
                reason=outcome.code,
                reason_level=outcome.level,
                matches_generic=None,
            )
            report[key] = entry
            return
        if _mismatch_witness(outcome, tables, key) is not None:
            raise ConsistencyError(
                f"closed form for {key} disagrees with the exponent tables"
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
        witness = _mismatch_witness(general.module, groups(spec, general.ell), "H")
        report["general"] = {
            "level": general.ell,
            "length": general.module.length,
            "matches_generic": witness is None,
            "witness": witness,
        }

    try:
        sieve = decreasing_span_monomials(spec, ell)
    except HypothesisError as exc:
        report["span_candidates"] = {"reason": exc.code, "reason_level": exc.level}
    else:
        rows = np.array([evaluate(spec.m, u).to_array() for u in sieve.monomials()])
        witness = None
        if not tables.members("H", rows).all():
            # a span outside H has a Howell generator outside it
            witness = _mismatch_witness(howell_form(rows, ell, n=spec.n), tables, "H")
        report["span_candidates"] = {
            "monomials": sieve.tokens(),
            "span_in_H": witness is None,
            "witness": witness,
        }
    return {"closed_form": report}


def _hypothesis_entry(check) -> dict:
    try:
        check()
    except HypothesisError as exc:
        return {"applies": False, "reason": exc.code, "reason_level": exc.level}
    return {"applies": True, "reason": None, "reason_level": None}


def _task_info(job: Job) -> dict:
    code = job.code
    pair = code.pair
    pair_groups = groups(job.spec or pair, job.ell)
    uniform = np.ones(code.n, dtype=np.int64)
    ones = _all_ones(pair, job.ell, [pair_groups.contains(name, uniform) for name in _GROUPS])
    found = pair_groups.shifted(code)
    info: dict = {
        "lengths": {name: found.length(name) for name in _GROUPS},
        "dimensions": {"k1": len(pair.beta1), "k2": len(pair.beta2)},
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
    return {"info": info}


COMMANDS = {
    "groups": ("compute the three gate groups", _task_groups),
    "action": ("decompose logical actions of diagonal gates", _task_action),
    "verify": ("cross-check a gate against the brute-force oracle", _task_verify),
    "closed-form": ("evaluate monomial-code closed forms", _task_closed_form),
    "info": ("summarize the code, hypotheses, and the uniform gate", _task_info),
}


def build_report(job: Job, command: str) -> dict:
    report: dict = {
        "version": 1,
        "level": job.ell,
        "modulus": 1 << job.ell,
        "params": [[job.n, job.num_logical]],
        "seed": job.seed,
    }
    report.update(COMMANDS[command][1](job))
    return report


def render_report(report: dict) -> str:
    """json.dumps(report, sort_keys=True, indent=2) + "\n", byte for byte,
    for str keys and str, int, bool, None, list and dict values; a list of
    plain ints, most of a report, is written with one join."""
    return _render(report, "\n") + "\n"


def _render(obj, pad: str) -> str:
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if obj is True or obj is False:
        return "true" if obj else "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    inner = pad + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = (f"{encode_basestring_ascii(key)}: {_render(obj[key], inner)}" for key in sorted(obj))
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    if isinstance(obj, list):
        if not obj:
            return "[]"
        if all(type(x) is int for x in obj):
            items = map(int.__repr__, obj)
        else:
            items = (_render(x, inner) for x in obj)
        return "[" + inner + ("," + inner).join(items) + pad + "]"
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


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


_PARSER = _Parser(
    prog="cssgates",
    description="Diagonal gate groups of CSS codes.",
    epilog="commands:\n" + "\n".join(
        f"  {name:<12} {help_text}" for name, (help_text, _) in COMMANDS.items()
    ),
    formatter_class=argparse.RawDescriptionHelpFormatter,
)
_PARSER.add_argument("command", choices=COMMANDS, metavar="command", help="one of the commands below")
_PARSER.add_argument("--input", "-i", required=True, help="job file, or - for stdin")
_PARSER.add_argument("--output", "-o", help="report file, defaults to stdout")
_PARSER.add_argument("--seed", type=int, help="override the job's seed")
_PARSER.add_argument("--gate", help="gate vector, comma-separated residues (action and verify)")


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
        if args.gate is not None and args.command not in ("action", "verify"):
            _PARSER.error(f"argument --gate: not allowed with {args.command}")
        job = Job(_read_job(args.input))
        if args.seed is not None:
            job.seed = args.seed
        if args.gate is not None:
            job.gate_spec = args.gate
        report = build_report(job, args.command)
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
