import io
import itertools
import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cssgates
from cssgates import ConsistencyError, GateClass, fixing_group, howell_form
from cssgates.cli import COMMANDS, Job, build_report, main, render_report
from cssgates.oracle import OracleResult

from helpers import closed_form_report_reference, random_decreasing_spec, random_spec, rm_pairs


EX2_JOB = {
    "version": 1,
    "ell": 2,
    "code": {"type": "matrix", "n": 2, "C1": ["10", "01"], "C2": ["11"]},
}

MONO16_JOB = {
    "version": 1,
    "ell": 3,
    "code": {
        "type": "monomial",
        "m": 4,
        "M1": ["1", "x1", "x2", "x3", "x4", "x1x2"],
        "M2": ["1"],
    },
}

GAP_JOB = {
    "version": 1,
    "ell": 2,
    "code": {"type": "monomial", "m": 4, "M1": ["1", "x1", "x4"], "M2": ["1", "x1"]},
}

RM_JOB = {
    "version": 1,
    "ell": 4,
    "code": {
        "type": "monomial",
        "m": 4,
        "M1": ["1", "x1", "x2", "x3", "x4"],
        "M2": ["1"],
    },
}


def run_cli(capsys, monkeypatch, argv, job=None):
    if job is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(job)))
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def run_json(capsys, monkeypatch, argv, job):
    rc, out, err = run_cli(capsys, monkeypatch, argv, job)
    assert rc == 0, err
    return json.loads(out)


class TestJobValidation:
    REJECTS = [
        ({**EX2_JOB, "code": {**EX2_JOB["code"], "C1": ["10", "0x"]}}, "code.C1[1]"),
        ({**EX2_JOB, "flavor": "odd"}, "flavor"),
        ({**EX2_JOB, "version": 2}, "version"),
        ({**EX2_JOB, "ell": 0}, "ell"),
        ({**EX2_JOB, "ell": True}, "ell"),
        ({**EX2_JOB, "tasks": ["closed_form"]}, "tasks[0]"),
        ({**EX2_JOB, "code": {"type": "parity"}}, "code.type"),
        ({**EX2_JOB, "code": {"type": "matrix", "C1": [], "C2": []}}, "code.n"),
        ({**EX2_JOB, "code": {**EX2_JOB["code"], "C1": ["00", "00"]}}, "code.C1"),
        ({**EX2_JOB, "code": {"type": "matrix", "n": 2, "C1": ["10"], "C2": ["01"]}}, "code.C2"),
        ({**MONO16_JOB, "code": {**MONO16_JOB["code"], "M1": ["1", "x9"]}}, "code.M1[1]"),
        ({**MONO16_JOB, "code": {**MONO16_JOB["code"], "M2": ["x3x4"]}}, "code.M2"),
        ({**EX2_JOB, "y_x": "012"}, "y_x"),
        ({**EX2_JOB, "gate": {"a": 1}}, "gate"),
        ({**EX2_JOB, "tasks": ["groups", ["groups"]]}, "tasks[1]"),
        ({**EX2_JOB, "tasks": [{}]}, "tasks[0]"),
        ({**MONO16_JOB, "y_x": "01"}, "y_x"),
        ({**MONO16_JOB, "y_x": "0" * 15 + "2", "y_z": "1"}, "y_x"),
        ({**MONO16_JOB, "y_z": "0" * 17}, "y_z"),
    ]

    @pytest.mark.parametrize("job,field", REJECTS)
    def test_rejected_jobs_name_the_field(self, capsys, monkeypatch, job, field):
        rc, out, err = run_cli(capsys, monkeypatch, ["groups", "--input", "-"], job)
        assert rc == 1
        assert out == ""
        assert err.startswith(f"error: {field}:")

    @pytest.mark.parametrize("outer, inner, error", [
        ([], [], "code.M1: outer set must be nonempty"),
        ([], ["1"], "code.M1: outer set must be nonempty"),
        (["1", "x1"], [], "code.M2: inner set must be nonempty"),
        (["1", "x1"], ["x2"], "code.M2: inner monomials must be contained in the outer set"),
    ])
    def test_monomial_sets_name_their_field(self, capsys, monkeypatch, outer, inner, error):
        job = {**MONO16_JOB, "code": {**MONO16_JOB["code"], "M1": outer, "M2": inner}}
        rc, out, err = run_cli(capsys, monkeypatch, ["groups", "--input", "-"], job)
        assert (rc, out, err) == (1, "", f"error: {error}\n")

    def test_invalid_json_is_an_input_error(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO("{not json"))
        rc, _, err = run_cli(capsys, monkeypatch, ["groups", "--input", "-"])
        assert rc == 1 and err.startswith("error: input:")

    def test_missing_file_is_an_input_error(self, capsys, monkeypatch, tmp_path):
        rc, _, err = run_cli(
            capsys, monkeypatch, ["groups", "--input", str(tmp_path / "absent.json")]
        )
        assert rc == 1 and err.startswith("error: input:")

    def test_verify_needs_a_gate(self, capsys, monkeypatch):
        rc, _, err = run_cli(capsys, monkeypatch, ["verify", "--input", "-"], EX2_JOB)
        assert rc == 1 and err.startswith("error: gate:")

    def test_gate_length_checked(self, capsys, monkeypatch):
        job = {**EX2_JOB, "gate": [1, 2, 3]}
        rc, _, err = run_cli(capsys, monkeypatch, ["verify", "--input", "-"], job)
        assert rc == 1 and err.startswith("error: gate:")

    @pytest.mark.parametrize(
        "gate,reason",
        [
            ([1.7, 1], "not an integer residue at position 1: 1.7"),
            ([1, True], "not an integer residue at position 2: True"),
            (["1", 1], "not an integer residue at position 1: '1'"),
            ([1, None], "not an integer residue at position 2: None"),
            ([1, -1], "residue out of range at position 2: -1"),
            ([4, 1], "residue out of range at position 1: 4"),
        ],
    )
    def test_list_gate_takes_the_text_rule(self, capsys, monkeypatch, gate, reason):
        rc, out, err = run_cli(capsys, monkeypatch, ["verify", "-i", "-"], {**EX2_JOB, "gate": gate})
        assert rc == 1 and out == ""
        assert err == f"error: gate: {reason}\n"

    def test_action_on_matrix_code_needs_a_gate(self, capsys, monkeypatch):
        rc, _, err = run_cli(capsys, monkeypatch, ["action", "--input", "-"], EX2_JOB)
        assert rc == 1 and err.startswith("error: gate:")

    @pytest.mark.parametrize(
        "argv,reason",
        [
            (["groups"], "the following arguments are required: --input/-i"),
            (["bogus"], "invalid choice: 'bogus'"),
            (["groups", "-i", "-", "--gate", "1,3"], "--gate: not allowed with groups"),
            (["info", "-i", "-", "--gate", "1,3"], "--gate: not allowed with info"),
            (["closed-form", "-i", "-", "--gate", "1,3"], "--gate: not allowed with closed-form"),
            (["groups", "-i", "-", "--threads", "8"], "unrecognized arguments: --threads 8"),
        ],
    )
    def test_usage_errors_are_rejected_jobs(self, capsys, monkeypatch, argv, reason):
        # exit 2 is kept for disagreeing routes, so argparse must not use it
        rc, out, err = run_cli(capsys, monkeypatch, argv)
        assert rc == 1 and out == ""
        assert err.startswith("error: arguments:") and reason in err
        assert err.count("\n") == 1

    def test_help_still_exits_zero(self, capsys, monkeypatch):
        with pytest.raises(SystemExit) as exc:
            main(["groups", "--help"])
        assert exc.value.code == 0
        assert "--input" in capsys.readouterr().out


class TestCommandLine:
    def test_no_parser_is_built_per_call(self, capsys, monkeypatch):
        import argparse

        built = []
        init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        for argv in (["groups", "-i", "-"], ["info", "-i", "-"], ["bogus"], ["groups"]):
            run_cli(capsys, monkeypatch, argv, EX2_JOB)
        assert built == []

    def test_options_may_precede_the_command(self, capsys, monkeypatch):
        _, first, _ = run_cli(capsys, monkeypatch, ["groups", "-i", "-"], EX2_JOB)
        rc, before, err = run_cli(capsys, monkeypatch, ["-i", "-", "groups"], EX2_JOB)
        assert rc == 0, err
        assert before == first

    def test_help_lists_every_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for name, (help_text, _) in COMMANDS.items():
            assert f"  {name}" in out and help_text in out

    def test_readme_commands_are_the_table(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("## Command line", 1)[1]
        block = section.split("```sh\n", 1)[1].split("```", 1)[0]
        listed = [line.split()[1] for line in block.splitlines() if line.startswith("cssgates ")]
        assert sorted(listed) == sorted(COMMANDS)

    def test_tasks_accept_every_command(self, capsys, monkeypatch):
        # the command runs; tasks is only checked against the table
        job = {**EX2_JOB, "tasks": ["groups", "action", "verify", "closed-form", "info"]}
        rep = run_json(capsys, monkeypatch, ["groups", "-i", "-"], job)
        assert rep == run_json(capsys, monkeypatch, ["groups", "-i", "-"], EX2_JOB)


class TestDeterminism:
    def test_byte_identical_reports(self, capsys, monkeypatch):
        rc1, out1, _ = run_cli(capsys, monkeypatch, ["groups", "-i", "-"], EX2_JOB)
        rc2, out2, _ = run_cli(capsys, monkeypatch, ["groups", "-i", "-"], EX2_JOB)
        assert rc1 == rc2 == 0
        assert out1 == out2

    def test_seed_override_changes_only_the_echo(self, capsys, monkeypatch):
        base = run_json(capsys, monkeypatch, ["groups", "-i", "-"], {**EX2_JOB, "seed": 7})
        seeded = run_json(
            capsys, monkeypatch, ["groups", "-i", "-", "--seed", "99"], {**EX2_JOB, "seed": 7}
        )
        assert base.pop("seed") == 7
        assert seeded.pop("seed") == 99
        assert base == seeded


class TestRenderReport:
    """render_report writes json.dumps(sort_keys=True, indent=2)'s bytes."""

    TEXTS = ["", "plain", 'say "hi"', "back\\slash", "tab\tnew\nline\x00\x1f\x7f",
             "caf\u00e9", "\u2211 \u2264 2^\u2113", "\U0001d400", "\ud800 lone"]
    INTS = [0, 1, -1, 7, -(1 << 63), (1 << 63) - 1, 1 << 63, 1 << 200, -(1 << 100)]

    def value(self, rng, depth):
        kind = rng.randrange(9 if depth < 4 else 5)
        if kind == 0:
            return rng.choice(self.TEXTS)
        if kind == 1:
            return rng.choice(self.INTS)
        if kind == 2:
            return rng.choice([None, True, False])
        if kind == 3:
            return [rng.choice(self.INTS + [rng.randrange(-9, 10)]) for _ in range(rng.randrange(5))]
        if kind == 4:
            # bools and None inside an otherwise integer list
            return [rng.choice([3, -4, 1 << 70, True, False, None]) for _ in range(rng.randrange(1, 6))]
        if kind in (5, 6):
            return [self.value(rng, depth + 1) for _ in range(rng.randrange(4))]
        return {rng.choice(self.TEXTS) + str(rng.randrange(3)): self.value(rng, depth + 1)
                for _ in range(rng.randrange(4))}

    def test_matches_json_dumps(self):
        rng = random.Random(20261020)
        nested = {"a": {}, "b": [], "c": [[], {}, [[]], {"d": {}}], "\u00e9\"k\n": [True, 1, False, 0]}
        cases = [{}, nested] + [{str(i): self.value(rng, 0) for i in range(rng.randrange(6))} for _ in range(300)]
        for report in cases:
            assert render_report(report) == json.dumps(report, sort_keys=True, indent=2) + "\n"

    @pytest.mark.parametrize("value", [1.5, np.int64(3), b"x", {1, 2}, [np.int64(1)], {1: 2}])
    def test_other_types_raise(self, value):
        # reports hold no floats, so unlike json.dumps the writer has no
        # float format to match and rejects them with the rest
        with pytest.raises(TypeError):
            render_report({"x": value})


class TestGroupsReport:
    def test_two_qubit_pair(self, capsys, monkeypatch):
        rep = run_json(capsys, monkeypatch, ["groups", "-i", "-"], EX2_JOB)
        assert rep["params"] == [[2, 1]]
        assert rep["modulus"] == 4 and rep["level"] == 2
        assert rep["H"] == {"length": 1, "generators": [[2, 2]]}
        assert rep["T"] == rep["H"]
        assert rep["Id"] == {"length": 0, "generators": []}

    def test_generators_are_howell_canonical(self, capsys, monkeypatch):
        rep = run_json(capsys, monkeypatch, ["groups", "-i", "-"], MONO16_JOB)
        recomputed = fixing_group(
            __import__("helpers").make_mono16_spec().induced_css(), 3
        )
        rebuilt = howell_form(
            [np.array(row) for row in rep["H"]["generators"]], 3, n=16
        )
        assert rebuilt == recomputed
        assert [list(map(int, r)) for r in rebuilt.gens] == rep["H"]["generators"]


class TestVerifyReport:
    def test_rejected_gate_carries_witness(self, capsys, monkeypatch):
        job = {**EX2_JOB, "gate": "1,3"}
        rep = run_json(capsys, monkeypatch, ["verify", "-i", "-"], job)
        v = rep["verify"]
        assert v["classification"] == "NotInH"
        assert v["memberships"] == {"H": False, "T": False, "Id": False}
        assert v["agreement"] == {"H": True, "T": True, "Id": True}
        assert v["witness"] == {"coset": 1, "word": "10", "phase": 1, "expected": 3}
        assert v["phases"] is None

    def test_member_gate_space_separated(self, capsys, monkeypatch):
        job = {**EX2_JOB, "gate": "2 2"}
        rep = run_json(capsys, monkeypatch, ["verify", "-i", "-"], job)
        v = rep["verify"]
        assert v["classification"] == "TransversalLogical"
        assert v["memberships"] == {"H": True, "T": True, "Id": False}
        assert v["phases"] == [0, 2]
        assert v["witness"] is None

    def test_gate_flag_overrides_job_gate(self, capsys, monkeypatch):
        job = {**EX2_JOB, "gate": [0, 0]}
        rep = run_json(
            capsys, monkeypatch, ["verify", "-i", "-", "--gate", "1,3"], job
        )
        assert rep["verify"]["classification"] == "NotInH"
        assert rep["verify"]["gate"] == [1, 3]


class TestActionReport:
    def test_uniform_gate_decomposition(self, capsys, monkeypatch):
        job = {**MONO16_JOB, "gate": [1] * 16}
        rep = run_json(capsys, monkeypatch, ["action", "-i", "-"], job)
        assert rep["params"] == [[16, 5]]
        (entry,) = rep["logical_actions"]
        assert entry["name"] is None
        assert entry["in_fixing_group"] is True
        assert entry["global_phase"] == 0
        assert entry["factors"] == [
            {"J": [5], "a": 4},
            {"J": [3, 5], "a": 4},
            {"J": [4, 5], "a": 4},
            {"J": [3, 4, 5], "a": 4},
        ]
        assert entry["in_transversal"] is False
        assert entry["is_identity"] is False
        assert len(entry["logical_phases"]) == 32
        assert entry["logical_phases"][16] == 4

    def test_monomial_code_defaults_to_span_candidates(self, capsys, monkeypatch):
        rep = run_json(capsys, monkeypatch, ["action", "-i", "-"], MONO16_JOB)
        entries = rep["logical_actions"]
        assert [e["name"] for e in entries] == ["1", "x1", "x2"]
        assert all(e["in_fixing_group"] for e in entries)

    @pytest.mark.parametrize("y_z", [None, "1" + "0" * 15])
    def test_memberships_match_the_groups(self, capsys, monkeypatch, y_z):
        from cssgates import gate_groups

        job = {**MONO16_JOB, "ell": 2}
        if y_z is not None:
            job["y_z"] = y_z
        code = Job(job).code
        h, t, i = gate_groups(code, 2)
        probes = [h.gens[0], (h.gens[0] + h.gens[-1]) % 4, t.gens[-1], i.gens[0], np.ones(16, dtype=int)]
        for b in probes:
            rep = run_json(capsys, monkeypatch, ["action", "-i", "-"], {**job, "gate": [int(x) for x in b]})
            (entry,) = rep["logical_actions"]
            assert entry["in_fixing_group"] == h.contains(b)
            if entry["in_fixing_group"]:
                assert entry["in_transversal"] == t.contains(b)
                assert entry["is_identity"] == i.contains(b)

    def test_outside_gate_reports_membership_only(self, capsys, monkeypatch):
        job = {**MONO16_JOB, "ell": 1, "gate": [1] + [0] * 15}
        rep = run_json(capsys, monkeypatch, ["action", "-i", "-"], job)
        (entry,) = rep["logical_actions"]
        assert entry["in_fixing_group"] is False
        assert "factors" not in entry


class TestClosedFormReport:
    def test_gap_instance_falls_back_and_reports(self, capsys, monkeypatch):
        rep = run_json(capsys, monkeypatch, ["closed-form", "-i", "-"], GAP_JOB)
        cf = rep["closed_form"]
        assert cf["H"]["fallback"] is True
        assert cf["H"]["reason"] == "head_outside_kernel"
        assert cf["H"]["reason_level"] == 2
        assert cf["H"]["matches_generic"] is None
        assert cf["H"]["length"] == 26  # the exponent tables, reported anyway
        assert cf["T"]["reason"] == "identity_head_outside_kernel"
        assert cf["Id"]["reason"] == "identity_head_outside_kernel"
        assert (cf["T"]["length"], cf["Id"]["length"]) == (26, 25)
        assert cf["general"] == {"reason": "full_unreachable", "reason_level": 3}
        sc = cf["span_candidates"]
        assert sc["span_in_H"] is False
        assert sc["witness"] is not None
        assert len(sc["monomials"]) == 12

    def test_no_logicals_closed_forms_apply(self, capsys, monkeypatch):
        job = {
            "version": 1,
            "ell": 2,
            "code": {
                "type": "monomial",
                "m": 3,
                "M1": ["1", "x1", "x2", "x3"],
                "M2": ["1", "x1", "x2", "x3"],
            },
        }
        rep = run_json(capsys, monkeypatch, ["closed-form", "-i", "-"], job)
        cf = rep["closed_form"]
        for key in ("H", "T", "Id"):
            assert cf[key]["fallback"] is False
            assert cf[key]["matches_generic"] is True
        assert cf["T"]["generators"] == cf["Id"]["generators"]
        assert cf["H"]["generators"] == cf["T"]["generators"]

    def test_shifted_code_reports_the_unshifted_pair(self, capsys, monkeypatch):
        # the closed forms describe the nested pair, so a Z shift neither
        # changes the block nor counts as a disagreement
        plain = run_json(capsys, monkeypatch, ["closed-form", "-i", "-"], MONO16_JOB)
        job = {**MONO16_JOB, "y_z": "1" + "0" * 15}
        shifted = run_json(capsys, monkeypatch, ["closed-form", "-i", "-"], job)
        assert shifted["closed_form"] == plain["closed_form"]

    def test_matrix_code_has_no_closed_form(self, capsys, monkeypatch):
        rc, _, err = run_cli(capsys, monkeypatch, ["closed-form", "-i", "-"], EX2_JOB)
        assert rc == 1 and err.startswith("error: code.type:")


class TestClosedFormReference:
    """closed-form reads H, T and Id off the exponent tables; its reports
    equal, byte for byte, the ones that compare each closed form with the
    kernel route (tests/helpers.closed_form_report_reference)."""

    @staticmethod
    def jobs():
        """Every RM pair with m <= 6 and 120 seeded specs with m <= 5, half
        of them not divisibility-closed, at ell = 1..3; the m = 6 pairs and
        the seeded specs take one level each, in turn. Each job also runs
        with a random y_z."""
        cases = []
        for i, spec in enumerate(rm_pairs(6)):
            cases += [(spec, ell) for ell in ((1, 2, 3) if spec.m < 6 else (1 + i % 3,))]
        rng = random.Random(180018)
        specs = [random_decreasing_spec(rng, 5) for _ in range(60)]
        specs += [random_spec(rng, 5) for _ in range(60)]
        cases += [(spec, 1 + i % 3) for i, spec in enumerate(specs)]
        for spec, ell in cases:
            job = {
                "version": 1,
                "ell": ell,
                "code": {"type": "monomial", "m": spec.m, "M1": spec.outer.tokens(),
                         "M2": spec.inner.tokens()},
            }
            yield job
            yield {**job, "y_z": "".join(rng.choice("01") for _ in range(spec.n))}

    def test_matches_the_kernel_route(self):
        for data in self.jobs():
            job = Job(data)
            report = build_report(job, "closed-form")
            reference = {**report, **closed_form_report_reference(job)}
            assert render_report(report) == render_report(reference), data


class TestInfoReport:
    def test_reed_muller_bounds(self, capsys, monkeypatch):
        rep = run_json(capsys, monkeypatch, ["info", "-i", "-"], RM_JOB)
        info = rep["info"]
        assert info["reed_muller"]["degrees"] == [0, 1]
        assert info["reed_muller"]["fixing"] == {
            "bound": 3,
            "limit": 3,
            "applies": True,
        }
        assert info["reed_muller"]["identity"] == {
            "bound": 4,
            "limit": 3,
            "applies": False,
        }
        assert info["decreasing"] == {"M1": True, "M2": True}
        assert set(info["all_ones"]) == {
            "in_H",
            "in_T",
            "in_Id",
            "power_dual_contains_inner",
            "weights_condition",
            "divisibility",
        }

    def test_matrix_code_info_is_generic_only(self, capsys, monkeypatch):
        rep = run_json(capsys, monkeypatch, ["info", "-i", "-"], EX2_JOB)
        info = rep["info"]
        assert info["dimensions"] == {"k1": 2, "k2": 1}
        assert info["lengths"] == {"H": 1, "T": 1, "Id": 0}
        assert "closed_forms" not in info
        assert "reed_muller" not in info


class TestInputOutput:
    def test_output_file_matches_stdout(self, capsys, monkeypatch, tmp_path):
        job_path = tmp_path / "job.json"
        job_path.write_text(json.dumps(EX2_JOB))
        rc, out, _ = run_cli(capsys, monkeypatch, ["groups", "-i", str(job_path)])
        assert rc == 0
        out_path = tmp_path / "report.json"
        rc2, stdout2, _ = run_cli(
            capsys,
            monkeypatch,
            ["groups", "-i", str(job_path), "-o", str(out_path)],
        )
        assert rc2 == 0
        assert stdout2 == ""
        assert out_path.read_text() == out

    def test_unwritable_output_is_an_error(self, capsys, monkeypatch, tmp_path):
        job_path = tmp_path / "job.json"
        job_path.write_text(json.dumps(EX2_JOB))
        rc, _, err = run_cli(
            capsys,
            monkeypatch,
            ["groups", "-i", str(job_path), "-o", str(tmp_path / "no" / "dir.json")],
        )
        assert rc == 1 and err.startswith("error: output:")

    def test_console_script_and_module_entry(self, tmp_path):
        # The console script is the wrapper an installer writes for the
        # declared `[project.scripts]` entry; an installed `cssgates` on PATH
        # is held to the same assertions.
        try:
            import tomllib
        except ModuleNotFoundError:
            tomllib = pytest.importorskip("tomli")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        entry = tomllib.loads(pyproject.read_text())["project"]["scripts"]["cssgates"]
        module_name, func = entry.split(":")
        wrapper = tmp_path / "bin" / "cssgates"
        wrapper.parent.mkdir()
        wrapper.write_text(
            f"#!{sys.executable}\n"
            "import sys\n"
            f"from {module_name} import {func}\n"
            f"sys.exit({func}())\n"
        )
        wrapper.chmod(0o755)
        scripts = [str(wrapper)]
        installed = shutil.which("cssgates")
        if installed:
            scripts.append(installed)

        # Every route imports the package under test, not a stale install.
        source_root = str(Path(cssgates.__file__).resolve().parents[1])
        pythonpath = filter(None, [source_root, os.environ.get("PYTHONPATH")])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(pythonpath)}
        job_path = tmp_path / "job.json"
        job_path.write_text(json.dumps(EX2_JOB))

        def run(command):
            return subprocess.run(
                [*command, "groups", "-i", str(job_path)],
                capture_output=True,
                text=True,
                env=env,
            )

        module = run([sys.executable, "-m", "cssgates"])
        for command in scripts:
            script = run([command])
            assert script.returncode == 0 and module.returncode == 0
            assert script.stdout == module.stdout
            assert json.loads(script.stdout)["H"]["generators"] == [[2, 2]]


class TestKernelCalls:
    @pytest.mark.parametrize("y_z", [None, "10"])
    def test_only_returned_modules_solve_a_kernel(self, capsys, monkeypatch, y_z):
        from cssgates import cli as cli_module
        from cssgates import gates, zmod

        calls = []

        def counted(*args, **kwargs):
            calls.append(kwargs.get("within"))
            return zmod.kernel_perp(*args, **kwargs)

        monkeypatch.setattr(gates, "kernel_perp", counted)
        monkeypatch.setattr(cli_module, "kernel_perp", counted, raising=False)
        job = {**EX2_JOB, "gate": "2,2"}
        if y_z is not None:
            job["y_z"] = y_z
        # memberships and lengths are read off the constraint spans, and
        # only groups returns modules: H on the whole space, then Id
        # inside T; with one logical qubit every gate of H acts as a
        # tensor product, so T's span adds no row and T is H itself
        for command, expected in (("groups", 2), ("action", 0), ("verify", 0), ("info", 0)):
            calls.clear()
            run_json(capsys, monkeypatch, [command, "-i", "-"], job)
            assert len(calls) == expected, command
            if expected:
                assert [within is None for within in calls] == [True, False]


    @pytest.mark.parametrize("base,expected", [(EX2_JOB, 3), (MONO16_JOB, 0)])
    def test_eliminations_per_job(self, capsys, monkeypatch, base, expected):
        from cssgates import bincode

        calls, rref = [], bincode._rref
        monkeypatch.setattr(bincode, "_rref", lambda masks: calls.append(1) or rref(masks))
        job = {**base, "gate": ",".join("1" * Job(base).n)}
        # a matrix job reduces C1, C2 and the extension rows once each
        # (a code checks its canonical basis without elimination); a
        # monomial pair is its evaluation vectors, echelon already
        for command in COMMANDS:
            calls.clear()
            run_cli(capsys, monkeypatch, [command, "-i", "-"], job)
            assert len(calls) == expected, command

    @pytest.mark.parametrize("y_z", [None, "1000000"])
    def test_howell_forms_per_matrix_job(self, capsys, monkeypatch, steane7_css, y_z):
        from cssgates import zmod

        calls = []
        howell = zmod._howell

        def counted(mat, ell):
            calls.append(1)
            return howell(mat, ell)

        monkeypatch.setattr(zmod, "_howell", counted)
        pair = steane7_css.pair
        job = {
            "version": 1,
            "ell": 2,
            "code": {"type": "matrix", "n": 7, "C1": [v.to_string() for v in pair.c1.basis],
                     "C2": [v.to_string() for v in pair.c2.basis]},
            "gate": "1,1,1,1,1,1,1",
        }
        if y_z is not None:
            job["y_z"] = y_z
        # five Howell forms build the pair's spans (S_H, S_T, S_Id and the
        # two direct systems); a kernel takes one more, and T, whose span
        # adds no row over H's here, none. A Z shift reuses the spans and
        # is folded into each kernel's constraint rows
        expected = {"verify": 5, "info": 5, "action": 5, "groups": 7}
        for command, count in expected.items():
            calls.clear()
            run_json(capsys, monkeypatch, [command, "-i", "-"], job)
            assert len(calls) == count, command

    @pytest.mark.parametrize("y_z", [False, True])
    @pytest.mark.parametrize("base", [EX2_JOB, MONO16_JOB])
    def test_info_builds_the_pair_spans_once(self, capsys, monkeypatch, base, y_z):
        from cssgates import gates

        calls = []
        spans = gates._pair_spans

        def counted(*args):
            calls.append(1)
            return spans(*args)

        monkeypatch.setattr(gates, "_pair_spans", counted)
        job = dict(base)
        if y_z:
            n = Job(base).code.n
            job["y_z"] = "1" + "0" * (n - 1)
        # the lengths and the uniform-gate report share one build; a
        # monomial job reads its exponent tables instead
        run_json(capsys, monkeypatch, ["info", "-i", "-"], job)
        assert len(calls) == (0 if base is MONO16_JOB else 1)


    @pytest.mark.parametrize("y_z", [False, True])
    def test_monomial_jobs_read_the_exponent_tables(self, capsys, monkeypatch, y_z):
        from cssgates import gates, zmod

        calls = []

        def counting(name, fn):
            def counted(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return counted

        monkeypatch.setattr(gates, "kernel_perp", counting("kernel_perp", zmod.kernel_perp))
        monkeypatch.setattr(zmod, "kernel_perp", counting("kernel_perp", zmod.kernel_perp))
        for name in ("_product_levels", "_pair_spans"):
            monkeypatch.setattr(gates, name, counting(name, getattr(gates, name)))
        job = {**MONO16_JOB, "gate": ",".join("1" * 16)}
        if y_z:
            job["y_z"] = "0110" * 4
        for command in ("groups", "info", "action", "verify", "closed-form"):
            calls.clear()
            run_json(capsys, monkeypatch, [command, "-i", "-"], job)
            # a shift cuts Id by b . y_z = 0: one kernel inside the span
            # of Id's flipped generators; info's power-dual check reads
            # the outer basis's products off its own table, apart from
            # the exponent tables on purpose
            expected = {"groups": ["kernel_perp"] if y_z else [], "info": ["_product_levels"]}
            assert calls == expected.get(command, []), command

    @pytest.mark.parametrize("base, closed_form", [
        (MONO16_JOB, 3), (RM_JOB, 3), ({**RM_JOB, "ell": 1}, 3), (GAP_JOB, 3),
        # the general level 3 lies two above the job's, so the general form
        # and the report's comparison each deepen the outer table
        ({"version": 1, "ell": 1, "code": {"type": "monomial", "m": 3, "M1": ["1", "x1", "x2", "x3"],
                                           "M2": ["x1"]}}, 5),
    ])
    def test_reach_tables_per_monomial_job(self, capsys, monkeypatch, base, closed_form):
        from cssgates import monomial

        calls = []
        reach = monomial._reach_levels

        def counted(*args):
            calls.append(1)
            return reach(*args)

        # every job parses a fresh spec, which builds its inner and outer
        # tables once for all its readers; closed-form adds the general
        # form's inner table at MAX_LEVEL and its deeper outer tables
        monkeypatch.setattr(monomial, "_reach_levels", counted)
        gate = {"gate": ",".join("0" * Job(base).n)}
        for command, job, expected in (("groups", base, 2), ("info", base, 2), ("action", base, 2),
                                       ("action", {**base, **gate}, 2), ("verify", {**base, **gate}, 2),
                                       ("closed-form", base, closed_form)):
            calls.clear()
            run_cli(capsys, monkeypatch, [command, "-i", "-"], job)
            assert len(calls) == expected, command

    @pytest.mark.parametrize("y_z", [None, "0110" * 4])
    def test_monomial_code_is_built_on_first_use(self, capsys, monkeypatch, y_z):
        from cssgates.monomial import MonomialCodeSpec

        calls = []
        induced = MonomialCodeSpec.induced_pair

        def counted(spec):
            calls.append(spec.m)
            return induced(spec)

        monkeypatch.setattr(MonomialCodeSpec, "induced_pair", counted)
        job = dict(MONO16_JOB)
        if y_z:
            job["y_z"] = y_z
        # groups and closed forms read only the spec, the level and y_z
        for command in ("groups", "closed-form"):
            rep = run_json(capsys, monkeypatch, [command, "-i", "-"], job)
            assert calls == [] and rep["params"] == [[16, 5]], command
        # info reads the pair, built once however often the job asks
        run_json(capsys, monkeypatch, ["info", "-i", "-"], job)
        assert calls == [4]

    @pytest.mark.parametrize("y_z", [None, "1" + "0" * 15])
    def test_one_coefficient_pass_per_member_gate(self, capsys, monkeypatch, y_z):
        from cssgates.monomial import _TableGroups

        passes, checks = [], []
        zeta, divides = _TableGroups._dots, _TableGroups._divides

        def counted_pass(self, rows):
            passes.append(1)
            return zeta(self, rows)

        def counted_check(self, name, dots):
            checks.append(name)
            return divides(self, name, dots)

        # the table route's zeta pass, and its membership tests read off it
        monkeypatch.setattr(_TableGroups, "_dots", counted_pass)
        monkeypatch.setattr(_TableGroups, "_divides", counted_check)
        # RM(0) inside RM(1) at m = 4, ell = 2: the span-candidate sieve
        # gives the gates, all in the fixing group of the unshifted code
        job = {**RM_JOB, "ell": 2}
        if y_z is not None:
            job["y_z"] = y_z
        entries = run_json(capsys, monkeypatch, ["action", "-i", "-"], job)["logical_actions"]
        members = sum(e["in_fixing_group"] for e in entries)
        assert members > 1 and (y_z is not None or members == len(entries))
        # one pass and one fixing-group membership test per gate, factors
        # and phases both read off the pass
        assert len(passes) == checks.count("H") == len(entries)


class TestConsistencyGuard:
    def test_oracle_disagreement_exits_two(self, capsys, monkeypatch):
        from cssgates import cli as cli_module

        def lying_oracle(code, ell, b):
            return OracleResult(
                gate_class=GateClass.IDENTITY, phases=np.zeros(2, dtype=np.int64), witness=None
            )

        monkeypatch.setattr(cli_module, "coset_phase_check", lying_oracle)
        job = {**EX2_JOB, "gate": "1,3"}
        rc, out, err = run_cli(capsys, monkeypatch, ["verify", "-i", "-"], job)
        assert rc == 2
        assert out == ""
        assert err.startswith("inconsistency:")

    @pytest.mark.parametrize(
        "rows, group",
        [("_transversal_rows_direct", "transversal"), ("_identity_rows_direct", "identity")],
    )
    def test_constraint_span_disagreement_exits_two(self, capsys, monkeypatch, rows, group):
        from cssgates import gates

        # the first direct row is an inner or outer basis vector at scale 1,
        # which no other row spans, so dropping it changes the span
        direct = getattr(gates, rows)
        monkeypatch.setattr(
            gates, rows, lambda pair, ell: itertools.islice(direct(pair, ell), 1, None)
        )
        with pytest.raises(ConsistencyError, match=f"^{group} group"):
            gates.gate_groups(Job(EX2_JOB).code, EX2_JOB["ell"])
        rc, out, err = run_cli(capsys, monkeypatch, ["groups", "-i", "-"], EX2_JOB)
        assert rc == 2
        assert out == ""
        assert err.startswith(f"inconsistency: {group} group")

    @pytest.mark.parametrize("wrong", ["zero", "whole"])
    def test_closed_form_disagreement_exits_two(self, capsys, monkeypatch, wrong):
        from cssgates import cli as cli_module

        # the zero module lies inside H but is shorter, the whole space has
        # a generator outside H; either must not pass for the fixing group
        def lying_form(spec, ell):
            rows = np.zeros((1, spec.n), dtype=np.int64) if wrong == "zero" else np.eye(spec.n, dtype=np.int64)
            return howell_form(rows, ell, n=spec.n)

        monkeypatch.setattr(cli_module, "closed_form_fixing_group", lying_form)
        rc, out, err = run_cli(capsys, monkeypatch, ["closed-form", "-i", "-"], MONO16_JOB)
        assert rc == 2
        assert out == ""
        assert err == "inconsistency: closed form for H disagrees with the exponent tables\n"

    @pytest.mark.parametrize("start, group", [("inner", "transversal"), ("outer", "identity")])
    @pytest.mark.parametrize("command", ["groups", "info", "action", "verify", "closed-form"])
    def test_exponent_table_disagreement_exits_two(self, capsys, monkeypatch, start, group, command):
        from cssgates import monomial

        # no start mask at level 0: the inner set leaves H's table, which
        # T's direct table keeps, or the outer set leaves Id's
        starts = getattr(Job(MONO16_JOB).spec, start).masks
        reach = monomial._reach_levels

        def corrupted(n, first, factors, horizon):
            table = reach(n, first, factors, horizon)
            return np.maximum(table, 1) if first == starts else table

        monkeypatch.setattr(monomial, "_reach_levels", corrupted)
        job = {**MONO16_JOB, "gate": ",".join("0" * 16)}
        rc, out, err = run_cli(capsys, monkeypatch, [command, "-i", "-"], job)
        assert rc == 2
        assert out == ""
        assert err.startswith(f"inconsistency: {group} group")
