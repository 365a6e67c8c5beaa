import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import superholonomy
from superholonomy.cli import main


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out


class TestJacobi:
    def test_osp12_passes(self, capsys):
        code, out = run(capsys, "jacobi", "--m", "1", "--n", "1")
        assert code == 0
        assert "pass" in out

    def test_osp22_passes(self, capsys):
        code, _ = run(capsys, "jacobi", "--m", "2", "--n", "1")
        assert code == 0

    def test_invalid_size_usage_error(self, capsys):
        code, _ = run(capsys, "jacobi", "--m", "0", "--n", "1")
        assert code == 2

    def test_json_payload(self, capsys):
        code, out = run(capsys, "jacobi", "--format", "json")
        data = json.loads(out)
        assert data["passed"] is True
        assert data["max_residual"] <= 1e-12


class TestUsageErrors:
    @pytest.mark.parametrize("argv, env_seed", [
        (["moduli", "--seed", "-1"], None),
        (["moduli"], "abc"),
        (["membership", "--tol", "nan"], None),
        (["membership", "--tol", "inf"], None),
        (["membership", "--tol", "0"], None),
        (["moduli", "--samples", "0"], None),
        (["moduli", "--samples", "2", "--out", "{missing_dir}/x.json"], None),
        (["report", "--sam", "3"], None),          # no prefix matching of flags
        (["closure", "--debug"], None),
        (["jacobi", "--tol", "1e-3"], None),       # looser than the exact checks allow
        (["closure", "--tol", "1e-11"], None),
        (["sectors", "--samples", "7"], None),     # the osp(1|2) branch reads no --samples
        (["sectors", "--m", "2", "--n", "1", "--N", "3"], None),   # nor the osp(2|2) one --N
    ])
    def test_exit_2(self, capsys, monkeypatch, tmp_path, argv, env_seed):
        if env_seed is not None:
            monkeypatch.setenv("SUPERHOLONOMY_SEED", env_seed)
        argv = [a.format(missing_dir=tmp_path / "missing") for a in argv]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("usage error:") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["report", "--m", "3"],
        ["report", "--tol", "1e-30"],
        ["moduli", "--tol", "1e-3"],
        ["moduli", "--N", "4"],
        ["jacobi", "--samples", "5"],
        ["closure", "--N", "3"],
    ])
    def test_unread_flag_rejected(self, capsys, argv):
        code = main(argv)
        assert code == 2
        assert capsys.readouterr().out == ""


class TestOversizedAlgebra:
    @pytest.mark.parametrize("command", ["jacobi", "membership", "closure"])
    def test_usage_error(self, capsys, command):
        code = main([command, "--m", "5", "--n", "2"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("usage error:") and captured.err.count("\n") == 1

    def test_moduli_builds_no_algebra(self, capsys):
        code, out = run(capsys, "moduli", "--m", "5", "--n", "2", "--samples", "5")
        assert code == 0
        assert "osp(5|4)" in out


class TestSectors:
    def test_counts_reported(self, capsys):
        code, out = run(capsys, "sectors")
        assert code == 0
        assert "bosonic=36" in out and "fermionic=4" in out

    def test_json_round_trip(self, capsys):
        code, out = run(capsys, "sectors", "--format", "json")
        data = json.loads(out)
        assert data["bosonic_sectors"] == 36
        assert len(data["fermionic_sectors"]) == 4
        assert all(s["moduli"] == 2 for s in data["fermionic_sectors"])
        assert json.loads(json.dumps(data)) == data

    def test_representatives_parse_back_as_members(self, capsys):
        from superholonomy.group import OspGroup
        from superholonomy.supermatrix import SuperMatrix

        _, out = run(capsys, "sectors", "--format", "json")
        data = json.loads(out)
        group = OspGroup(1, 1, 2)
        assert len(data["fermionic_representatives"]) == 4
        for entry in data["fermionic_representatives"]:
            U1 = SuperMatrix.from_json_dict(entry["U1"])
            U2 = SuperMatrix.from_json_dict(entry["U2"])
            assert group.is_member(U1, 1e-10) and group.is_member(U2, 1e-10)

    def test_osp22_partial(self, capsys):
        code, out = run(capsys, "sectors", "--m", "2", "--n", "1", "--format", "json")
        data = json.loads(out)
        assert code == 0
        assert data["partial"] is True
        assert data["so2_so2_moduli"] == 4

    def test_unsupported_group(self, capsys):
        code, _ = run(capsys, "sectors", "--m", "1", "--n", "2")
        assert code == 2


class TestModuli:
    def test_sweep_agrees(self, capsys):
        code, out = run(capsys, "moduli", "--m", "1", "--n", "1",
                        "--samples", "50", "--seed", "7")
        assert code == 0
        assert "mismatches=0" in out

    def test_osp22_sweep(self, capsys):
        code, _ = run(capsys, "moduli", "--m", "2", "--n", "1", "--samples", "30")
        assert code == 0

    def test_deterministic_bytes(self, capsys, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["moduli", "--samples", "25", "--seed", "11",
                     "--format", "json", "--out", str(out1)]) == 0
        assert main(["moduli", "--samples", "25", "--seed", "11",
                     "--format", "json", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_env_seed_override(self, capsys, tmp_path, monkeypatch):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        main(["moduli", "--samples", "10", "--seed", "5", "--format", "json", "--out", str(out1)])
        monkeypatch.setenv("SUPERHOLONOMY_SEED", "5")
        main(["moduli", "--samples", "10", "--format", "json", "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()


class TestClosure:
    def test_passes(self, capsys):
        code, out = run(capsys, "closure")
        assert code == 0
        assert "kappa=+1" in out
        assert "moduli=2" in out      # the parabolic direction line

    def test_tamper_flag_fails(self, capsys):
        code, _ = run(capsys, "closure", "--debug-tamper")
        assert code == 1

    def test_text_and_json_agree(self, capsys):
        _, text = run(capsys, "closure")
        _, js = run(capsys, "closure", "--format", "json")
        data = json.loads(js)
        assert f"kappa={data['kappa']:+g}" in text


class TestMembership:
    def test_sweep(self, capsys):
        code, out = run(capsys, "membership", "--samples", "60", "--seed", "3")
        assert code == 0
        assert "worst defect" in out


class TestReport:
    def test_aggregate(self, capsys):
        code, out = run(capsys, "report", "--samples", "20", "--format", "json")
        data = json.loads(out)
        assert code == 0
        assert data["passed"] is True
        assert set(data["results"]) == {
            "jacobi", "membership", "sectors", "moduli", "closure", "exponential_sector",
        }


# the README's commands, with small sample counts
README_COMMANDS = [
    ["jacobi", "--m", "2", "--n", "1"],
    ["membership", "--samples", "20", "--seed", "3"],
    ["sectors"],
    ["sectors", "--m", "2", "--n", "1"],
    ["moduli", "--m", "1", "--n", "2", "--samples", "10", "--seed", "7"],
    ["closure", "--format", "json"],
    ["closure", "--debug-tamper"],
    ["report", "--samples", "10"],
]


def test_in_process_output_matches_fresh_process(capsys, monkeypatch):
    """A command's stdout may not depend on what ran before it in the process."""
    monkeypatch.delenv("SUPERHOLONOMY_SEED", raising=False)
    src = str(Path(superholonomy.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    for argv in README_COMMANDS:
        main(argv)
    capsys.readouterr()
    for argv in README_COMMANDS:   # each now runs after all the others
        code = main(argv)
        out = capsys.readouterr().out
        fresh = subprocess.run([sys.executable, "-m", "superholonomy.cli", *argv],
                               env=env, capture_output=True, check=False)
        assert (code, out.encode()) == (fresh.returncode, fresh.stdout), argv
