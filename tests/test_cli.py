import io
import itertools
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cssgates
from cssgates import ConsistencyError, GateClass, fixing_group, howell_form
from cssgates.cli import Job, main
from cssgates.oracle import OracleResult


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
    ]

    @pytest.mark.parametrize("job,field", REJECTS)
    def test_rejected_jobs_name_the_field(self, capsys, monkeypatch, job, field):
        rc, out, err = run_cli(capsys, monkeypatch, ["groups", "--input", "-"], job)
        assert rc == 1
        assert out == ""
        assert err.startswith(f"error: {field}:")

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

    def test_action_on_matrix_code_needs_a_gate(self, capsys, monkeypatch):
        rc, _, err = run_cli(capsys, monkeypatch, ["action", "--input", "-"], EX2_JOB)
        assert rc == 1 and err.startswith("error: gate:")

    @pytest.mark.parametrize(
        "argv,reason",
        [
            (["groups"], "the following arguments are required: --input/-i"),
            (["bogus"], "invalid choice: 'bogus'"),
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


class TestDeterminism:
    def test_byte_identical_reports(self, capsys, monkeypatch):
        rc1, out1, _ = run_cli(capsys, monkeypatch, ["groups", "-i", "-"], EX2_JOB)
        rc2, out2, _ = run_cli(capsys, monkeypatch, ["groups", "-i", "-"], EX2_JOB)
        rc3, out3, _ = run_cli(
            capsys, monkeypatch, ["groups", "-i", "-", "--threads", "8"], EX2_JOB
        )
        assert rc1 == rc2 == rc3 == 0
        assert out1 == out2 == out3

    def test_seed_override_changes_only_the_echo(self, capsys, monkeypatch):
        base = run_json(capsys, monkeypatch, ["groups", "-i", "-"], {**EX2_JOB, "seed": 7})
        seeded = run_json(
            capsys, monkeypatch, ["groups", "-i", "-", "--seed", "99"], {**EX2_JOB, "seed": 7}
        )
        assert base.pop("seed") == 7
        assert seeded.pop("seed") == 99
        assert base == seeded


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
        assert cf["H"]["length"] == 26  # kernel route, reported anyway
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
            calls.append(1)
            return zmod.kernel_perp(*args, **kwargs)

        monkeypatch.setattr(gates, "kernel_perp", counted)
        monkeypatch.setattr(cli_module, "kernel_perp", counted, raising=False)
        job = {**EX2_JOB, "gate": "2,2"}
        if y_z is not None:
            job["y_z"] = y_z
        # memberships and lengths are read off the constraint spans; only
        # groups returns modules, and action hands H to the decomposition
        for command, expected in (("groups", 3), ("action", 1), ("verify", 0), ("info", 0)):
            calls.clear()
            run_json(capsys, monkeypatch, [command, "-i", "-"], job)
            assert len(calls) == expected, command


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
