import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import superholonomy
from superholonomy import cli
from superholonomy.cli import main
from superholonomy.group import _spawned_words


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out


# sha256 of `jacobi --m M --n N --format json` stdout, every size build_osp accepts
JACOBI_JSON_SHA256 = [
    ((1, 1), "8d7e885ec1b60e129338e392f7f71609000049035a026645fa4907a7355d45b0"),
    ((1, 2), "b9b22227b5a0e958c676d9252a44ff715b1bc482b7dc52a296f071a0739bc3ed"),
    ((1, 3), "c23344b09c2a25a60495fad2be475cc76b02ea5f62dbc79d443d2aa56664acbc"),
    ((2, 1), "a36c21d8127791e7989ceda345b2bdd0706599596a8fc9a3820098a248312929"),
    ((2, 2), "a70db0d4c9c20c5dae20ee0b8630acf427c7cc53760a560aadd3adcba4cfb955"),
    ((2, 3), "27b971bd3062dfbb3579cd26df32529708b3fb60a511f32554152b6fe4560492"),
    ((3, 1), "ab4f8e26af6a4728e9a302dbe49c5668c855b61de47a1746feafcab7a9a10651"),
    ((3, 2), "810bb2dc2b0adc8a478f3dcb39a1986397ca0e83af9d6d008c512bef9f5b65e8"),
    ((4, 1), "528996386d9e3fbcfaa28ae96a2d8978642c6c6580ae2a7ffbb70108bd0620f3"),
    ((4, 2), "a89565323efa6b75da9921ba34a5d7fd602d899506b1e36fe05418a3de2d3639"),
    ((5, 1), "ab5a9e758a0d6eae65f23f12e2198e2d63106c4f74836c47691262b376f01367"),
    ((6, 1), "10e51dd7652a0daf20962b0a72a58ec16da7e3eca8e53776345f400c72c9bf51"),
]

# sha256 of fresh-process `closure --m M --n N --format json` stdout, every size
# build_osp accepts, and of `closure --debug-tamper --format json`: the printed
# kappa and residuals, which a reordered sum in check_closure would change.  The
# builders' fit is exact, so they print 0.0, 0.0 and kappa 1.0 on any BLAS kernel
CLOSURE_JSON_SHA256 = [
    (("--m", "1", "--n", "1"), "78bf65685be9d43d5b7b22e7d3fa17f2a21c7fb475c1e4a2a1f400daf4c7b638"),
    (("--m", "1", "--n", "2"), "a2a2e1e4d92543926e6931ffd581b72a8ec5b26097ed1ea92fe9258ff5c53cc4"),
    (("--m", "1", "--n", "3"), "f005b91dd4f324d490034897e0938a8240bd22cf7952af478a2dacb280bff4a0"),
    (("--m", "2", "--n", "1"), "fb35c6c95857f9c70b6bb324e1af7c5b7f06516656f30396ae03fc0d953846a0"),
    (("--m", "2", "--n", "2"), "4ad11d72f3ce091d1c0915fc2b670d2cc9d7a5e76d85db2a23f4d1edd88c6b97"),
    (("--m", "2", "--n", "3"), "d49fc96c34aa17a691be753cdf6098828db4cfd62c6d99232fb216610e068c01"),
    (("--m", "3", "--n", "1"), "d02ec1298f93f0fba23916eb3e9c4974913c10b60d5cf08021183dd08483cbb1"),
    (("--m", "3", "--n", "2"), "68442879d369222160c068032b6e8793ee971a8ce6ec9a0f8e547f96a8ec6b52"),
    (("--m", "4", "--n", "1"), "b068fe0ec1db9282abe3c6cb4b9d11b37f694c0d4b11ebe67ff3d0cd7cf1c761"),
    (("--m", "4", "--n", "2"), "bb76f60b012369b273529974135ce0a2890d4e70ff4d7d4e7e22608235d0c4c2"),
    (("--m", "5", "--n", "1"), "fc2de596c7066be63b48f686ae4a72859a4289524914359ce4b4e4a2d525af1a"),
    (("--m", "6", "--n", "1"), "e03055e321855525c225768bc5f47210952a6cf9680e64e2837d85b7669ad2c6"),
    (("--debug-tamper",), "c4349cacd34c9e296bd0a57013a8a61ddbee95c896b967a7964473f03a6daee3"),
]

# sha256 of fresh-process `sectors --format json` stdout (seed-independent):
# the sector data and the supermatrix wire format of the representatives
SECTORS_JSON_SHA256 = [
    ((), "8b9e6d5e9bd32b5152700ee3a18fc7a37730311f2b0a19b4b98f54e6a5d3c036"),
    (("--N", "5"), "adf6760d0129223577e654d03fc3edea3d32cee2d7de5a1dd7407021384eed7e"),
]

# sha256 of fresh-process `--format json` stdout of the commands that draw per
# sample (moduli, membership, report, and sectors at (2, 1)), two seeds each:
# the per-sample streams and every number computed from them.  At m = 1 the
# central draws (kind 2) count 2d, ranked at their bodies' scale
SAMPLED_JSON_SHA256 = [
    (("moduli", "--seed", "0"),
     "d87468d781417ce3a75a0f98047d342f76bcdf2134bb4ebea91d298054050f75"),
    (("moduli", "--seed", "11"),
     "e9e291c5066ce9ea52df0ebef086d192b5e928a027c3749c54cfd6e066bad99e"),
    (("moduli", "--m", "1", "--n", "2", "--samples", "50", "--seed", "0"),
     "28f4a10912e941da41612d294bbc7814ef29c9fb13b362ed8cb5a18d64eeef76"),
    (("moduli", "--m", "1", "--n", "2", "--samples", "50", "--seed", "11"),
     "b61ca2314a97f36daec88a6aefa6fc9d9eb774c6531a0324852110d7f1bfb586"),
    (("moduli", "--m", "3", "--n", "2", "--seed", "0"),
     "c6560355105d39bd87df5cd6025c900e9259ec264471a92a7199a516d5e06a02"),
    (("moduli", "--m", "3", "--n", "2", "--seed", "11"),
     "515c6bf16f77e94d4abad98b2d2ae4885f00dc45645b2163d1dd3ec49eae9f6c"),
    (("membership", "--samples", "200", "--seed", "0"),
     "71ca2bf85e73f2cb54151631f39eeebb5eda23a51f3eeb0cb299c74e0bc1f1fb"),
    (("membership", "--samples", "200", "--seed", "11"),
     "553ca814ad4cef80672f8cdf97e039abdb5a5492bbd6424f765739a6b297ca4b"),
    (("report", "--seed", "0"),
     "6c704c78be4ac0b8efd4e22b600fd8bac13528064c78e18408f19d75a35932c9"),
    (("report", "--seed", "11"),
     "9865afd5230b6615a10773e907f424ed4a40f41ca303e53b975f2b561cf38f34"),
    (("sectors", "--m", "2", "--n", "1", "--seed", "0"),
     "0033a83af23c2eaa89ca5e90bd9eb1f87451d63f89a44c69f17557fd1431aa54"),
    (("sectors", "--m", "2", "--n", "1", "--seed", "11"),
     "046dd788744956d18239c28cd81a3cb4bc3c3a827244a97e40a9e8531298382d"),
]


def fresh_env():
    """The environment of a fresh `python -m superholonomy.cli` on this source tree."""
    src = str(Path(superholonomy.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


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

    @pytest.mark.parametrize("size, digest", JACOBI_JSON_SHA256)
    def test_json_bytes_pinned(self, capsys, size, digest):
        # the payload carries every nonzero entry of f and eta, so any change to
        # the algebra data (or its wire format) changes these bytes
        code, out = run(capsys, "jacobi", "--m", str(size[0]), "--n", str(size[1]), "--format", "json")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


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
        (["sectors", "--N", "0"], None),           # the fermionic representatives need theta1
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

    def test_enumerates_once(self, capsys, monkeypatch):
        # the report printed is the one checks.osp12_sector_counts reads
        from superholonomy import checks, cli, group

        real, calls = group.enumerate_sectors_osp12, []

        def counted():
            calls.append(1)
            return real()

        for module in (group, cli, checks):
            if hasattr(module, "enumerate_sectors_osp12"):
                monkeypatch.setattr(module, "enumerate_sectors_osp12", counted)
        assert run(capsys, "sectors")[0] == 0
        assert len(calls) == 1

    def test_osp22_partial(self, capsys):
        code, out = run(capsys, "sectors", "--m", "2", "--n", "1", "--format", "json")
        data = json.loads(out)
        assert code == 0
        assert data["partial"] is True
        assert data["so2_so2_moduli"] == 4

    def test_unsupported_group(self, capsys):
        code, _ = run(capsys, "sectors", "--m", "1", "--n", "2")
        assert code == 2

    @pytest.mark.parametrize("flags, digest", SECTORS_JSON_SHA256)
    def test_json_bytes_pinned(self, flags, digest):
        res = subprocess.run([sys.executable, "-m", "superholonomy.cli", "sectors", *flags,
                              "--format", "json"], env=fresh_env(), capture_output=True, check=False)
        assert res.returncode == 0
        assert hashlib.sha256(res.stdout).hexdigest() == digest


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

    def test_seeds_share_no_sample(self):
        # a stream's first word identifies it: seed 0 and seed 1 must not
        # reuse each other's per-sample streams
        def first_words(seed):
            return set(_spawned_words(seed, 50, 1)[:, 0].tolist())

        zero, one = first_words(0), first_words(1)
        assert len(zero) == len(one) == 50
        assert not zero & one


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

    @pytest.mark.parametrize("flags, digest", CLOSURE_JSON_SHA256)
    def test_json_bytes_pinned(self, flags, digest):
        res = subprocess.run([sys.executable, "-m", "superholonomy.cli", "closure", *flags,
                              "--format", "json"], env=fresh_env(), capture_output=True, check=False)
        assert res.returncode == (1 if "--debug-tamper" in flags else 0)
        assert hashlib.sha256(res.stdout).hexdigest() == digest


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


class TestWireFormat:
    @pytest.mark.parametrize("argv", [["jacobi", "--m", "2", "--n", "2"], ["sectors"]])
    def test_text_output_builds_none(self, capsys, monkeypatch, argv):
        from superholonomy.group import SectorReport
        from superholonomy.superlie import SuperAlgebra
        from superholonomy.supermatrix import SuperMatrix

        expected = run(capsys, *argv)

        def refuse(self):
            raise AssertionError(f"{type(self).__name__} wire format built for text output")

        for cls in (SuperAlgebra, SuperMatrix, SectorReport):
            monkeypatch.setattr(cls, "to_json_dict", refuse)
        assert run(capsys, *argv) == expected
        assert expected[0] == 0

    def test_hook_refuses_other_objects(self):
        with pytest.raises(TypeError, match="Object of type object is not JSON serializable"):
            json.dumps({"x": object()}, default=cli._wire_format)


# the README's commands, with small sample counts
README_COMMANDS = [
    ["jacobi", "--m", "2", "--n", "1"],
    ["jacobi", "--m", "2", "--n", "2"],
    ["membership", "--samples", "20", "--seed", "3"],
    ["sectors"],
    ["sectors", "--m", "2", "--n", "1"],
    ["moduli", "--m", "1", "--n", "2", "--samples", "10", "--seed", "7"],
    ["closure", "--format", "json"],
    ["closure", "--debug-tamper"],
    ["closure", "--m", "2", "--n", "2"],
    ["report", "--samples", "10"],
]


def test_in_process_output_matches_fresh_process(capsys, monkeypatch):
    """A command's stdout may not depend on what ran before it in the process."""
    monkeypatch.delenv("SUPERHOLONOMY_SEED", raising=False)
    env = fresh_env()
    for argv in README_COMMANDS:
        main(argv)
    capsys.readouterr()
    for argv in README_COMMANDS:   # each now runs after all the others
        code = main(argv)
        out = capsys.readouterr().out
        fresh = subprocess.run([sys.executable, "-m", "superholonomy.cli", *argv],
                               env=env, capture_output=True, check=False)
        assert (code, out.encode()) == (fresh.returncode, fresh.stdout), argv


def test_cached_parser_carries_no_state(capsys):
    """The parser is built once per process; no parse leaves a default behind."""
    from superholonomy.cli import build_parser

    assert build_parser() is build_parser()
    sequence = (["sectors", "--m", "2", "--n", "1"], ["sectors"], ["report"])
    cached = [run(capsys, *argv) for argv in sequence]
    fresh = []
    for argv in sequence:
        build_parser.cache_clear()
        fresh.append(run(capsys, *argv))
    assert cached == fresh
    assert cached[1][1].startswith("osp(1|2) sectors:")


def test_cli_import_leaves_scipy_unloaded():
    """scipy is a test dependency only: the CLI's import time must not pay for it."""
    env = fresh_env()
    code = "import sys, superholonomy.cli; print('scipy' in sys.modules)"
    res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, check=True)
    assert res.stdout.decode().strip() == "False"


def test_export_list_resolves_once_in_sorted_order():
    names = superholonomy.__all__
    assert names == sorted(set(names))
    namespace = {}
    exec("from superholonomy import *", namespace)
    assert all(namespace[name] is getattr(superholonomy, name) for name in names)


@pytest.mark.parametrize("argv, digest", SAMPLED_JSON_SHA256)
def test_sampled_json_bytes_pinned(argv, digest):
    res = subprocess.run([sys.executable, "-m", "superholonomy.cli", *argv, "--format", "json"],
                         env=fresh_env(), capture_output=True, check=False)
    assert (res.returncode, res.stderr) == (0, b"")
    assert hashlib.sha256(res.stdout).hexdigest() == digest
