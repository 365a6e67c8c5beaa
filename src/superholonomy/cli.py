"""Command-line front end: verification suites, enumerations and sweeps.

Exit codes: 0 = all checks passed, 1 = a property failed, 2 = usage error.
Output is deterministic for a fixed seed and flag set; the default seed can
be overridden with the SUPERHOLONOMY_SEED environment variable.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys

import numpy as np

from . import checks
from .group import OspGroup, enumerate_sectors_osp12, sector_representatives
from .phase import check_closure, exponential_sector_moduli, osp12_exponential_sector
from .grassmann import DEFECT_TOL, EXACT_TOL, MAX_GENERATORS
from .superlie import MAX_OSP_SIZE, OSP12_DIRECTIONS, build_osp, build_osp12, check_tolerance

# commands whose --m/--n build the osp(m|2n) algebra (moduli only samples bodies)
ALGEBRA_COMMANDS = ("jacobi", "membership", "closure")
# commands that check exact structure-constant identities: their residuals are
# rounding of O(1) products, so a --tol looser than EXACT_TOL is refused
EXACT_COMMANDS = ("jacobi", "closure")
# sectors reads --N only for osp(1|2) and --samples only for osp(2|2); its
# parser leaves both unset, so a flag given for the other (m, n) is refused
SECTOR_FLAGS = {"--N": ("ngen", (1, 1)), "--samples": ("samples", (2, 1))}


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """Argument errors become one usage-error line instead of argparse's exit."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _validate(ns: argparse.Namespace) -> None:
    """Resolve the seed and reject out-of-range flags before any command runs."""
    if ns.seed is None:
        try:
            ns.seed = int(os.environ.get("SUPERHOLONOMY_SEED", "0"))
        except ValueError:
            raise UsageError("SUPERHOLONOMY_SEED must be an integer") from None
    if ns.seed < 0:
        raise UsageError("seed must be non-negative")
    if ns.command == "sectors":
        for flag, (dest, reader) in SECTOR_FLAGS.items():
            if getattr(ns, dest) is None:
                setattr(ns, dest, FLAGS[flag]["default"])
            elif (ns.m, ns.n) != reader:
                raise UsageError(f"sectors reads {flag} only for (m, n) = {reader}")
    if "m" in ns and (ns.m < 1 or ns.n < 1):
        raise UsageError("block sizes require m >= 1 and n >= 1")
    if "ngen" in ns and not 0 <= ns.ngen <= MAX_GENERATORS:
        raise UsageError(f"generator count must be in 0..{MAX_GENERATORS}")
    if ns.command == "sectors" and (ns.m, ns.n) == (1, 1) and ns.ngen < 1:
        raise UsageError("sectors builds its fermionic representatives on theta1: --N must be at least 1")
    if "tol" in ns:
        try:
            check_tolerance(ns.tol)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
    if ns.command in EXACT_COMMANDS and ns.tol > EXACT_TOL:
        raise UsageError(f"{ns.command} takes a tolerance of at most {EXACT_TOL:g}")
    if "samples" in ns and ns.samples < 1:
        raise UsageError("sample count must be positive")
    if ns.command in ALGEBRA_COMMANDS and ns.m + 2 * ns.n > MAX_OSP_SIZE:
        raise UsageError(f"{ns.command} builds osp(m|2n) only for m + 2n <= {MAX_OSP_SIZE}")


def _group_name(ns) -> str:
    return f"osp({ns.m}|{2 * ns.n})"


def _status(passed: bool) -> str:
    return "pass" if passed else "FAIL"


def _wire_format(obj) -> dict:
    """json.dumps's default: a library object's to_json_dict, so a text run builds none of them;
    TypeError for anything else, as json raises it."""
    to_json_dict = getattr(obj, "to_json_dict", None)
    if to_json_dict is None:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
    return to_json_dict()


@dataclasses.dataclass(frozen=True)
class _Extended:
    """An object's wire format with more top-level fields, built when JSON is printed."""
    obj: object
    fields: dict

    def to_json_dict(self) -> dict:
        return {**self.obj.to_json_dict(), **self.fields}


# ----------------------------------------------------------------------
# commands: each returns (passed, json data, text lines); data may hold
# objects with a to_json_dict, which main calls only for --format json
# ----------------------------------------------------------------------

def cmd_jacobi(ns):
    alg = build_osp(ns.m, ns.n)
    report = alg.check_jacobi(tol=ns.tol)
    data = {
        "command": "jacobi",
        "group": _group_name(ns),
        "dim": report.dim,
        "max_residual": report.max_residual,
        "tol": report.tol,
        "algebra": alg,
        "passed": report.passed,
    }
    return report.passed, data, [f"{_group_name(ns)} {report}"]


def cmd_membership(ns):
    group = OspGroup(ns.m, ns.n, ns.ngen)
    res = checks.membership_closure(group, np.random.default_rng(ns.seed),
                                    max(4, min(16, ns.samples // 4)), ns.samples, ns.tol)
    worst = res["worst_defect"]
    data = {"command": "membership", "group": _group_name(ns), "samples": ns.samples,
            "seed": ns.seed, "tol": ns.tol, **res}
    return res["passed"], data, [
        f"membership closure: {_group_name(ns)} samples={ns.samples} "
        f"worst defect={worst:.3e} tol={ns.tol:.1e} [{_status(res['passed'])}]"
    ]


def cmd_sectors(ns):
    if (ns.m, ns.n) == (1, 1):
        report = enumerate_sectors_osp12()
        passed = checks.osp12_sector_counts(report)["passed"]
        representatives = []
        for pair in sector_representatives(report.fermionic_sectors, ngen=ns.ngen):
            passed &= pair.residual <= ns.tol and pair.moduli == 2
            representatives.append({"sector": pair.label, "U1": pair.U1, "U2": pair.U2})
        data = _Extended(report, {"command": "sectors", "fermionic_representatives": representatives,
                                  "passed": bool(passed)})
        lines = [
            f"osp(1|2) sectors: bosonic={report.bosonic_count} fermionic={len(report.fermionic_sectors)}",
        ]
        for s in report.fermionic_sectors:
            lines.append(f"  {s.label()}: moduli={s.moduli} ({report.parabolic_constraint})")
        lines.append(f"[{_status(passed)}]")
        return passed, data, lines
    if (ns.m, ns.n) == (2, 1):
        # only the rotation-sector determinant formula is classified here
        res = checks.osp22_rotation_det(np.random.default_rng(ns.seed), ns.samples, ns.tol)
        data = {"command": "sectors", "group": "osp(2|2)", "partial": True,
                "samples": ns.samples, "seed": ns.seed, **res}
        return res["passed"], data, [
            "osp(2|2) sectors (partial): rotation-sector determinant formula",
            f"  worst |det - (2cos(phi) - tr A0)^2| = {res['det_formula_worst_error']:.3e} "
            f"over {ns.samples} samples",
            f"  SO(2)xSO(2) sector fermionic moduli = {res['so2_so2_moduli']}",
            f"[{_status(res['passed'])}]",
        ]
    raise UsageError("sector classification is available for (m, n) = (1, 1) or (2, 1)")


def cmd_moduli(ns):
    res = checks.moduli_counts(ns.m, ns.n, ns.seed, ns.samples)
    rows = [{"sample": k, "closed_form": closed, "bruteforce": brute}
            for k, (closed, brute) in enumerate(res["counts"])]
    data = {"command": "moduli", "group": _group_name(ns), "samples": ns.samples,
            "seed": ns.seed, "mismatches": res["mismatches"], "counts": rows,
            "passed": res["passed"]}
    histogram: dict[int, int] = {}
    for closed, _ in res["counts"]:
        histogram[closed] = histogram.get(closed, 0) + 1
    hist = " ".join(f"{k}:{v}" for k, v in sorted(histogram.items()))
    return res["passed"], data, [
        f"fermionic moduli count: {_group_name(ns)} samples={ns.samples} "
        f"mismatches={res['mismatches']} counts[{hist}] [{_status(res['passed'])}]"
    ]


def cmd_closure(ns):
    alg = build_osp12() if (ns.m, ns.n) == (1, 1) else build_osp(ns.m, ns.n)
    if ns.debug_tamper:
        f_bad = alg.f.copy()
        f_bad[alg.even_indices[0], alg.odd_indices[0], alg.odd_indices[-1]] += 0.1
        alg = dataclasses.replace(alg, f=f_bad)
    report = check_closure(alg, tol=ns.tol)
    directions = {}
    if (ns.m, ns.n) == (1, 1):
        for name, (c, _) in OSP12_DIRECTIONS.items():
            efm = exponential_sector_moduli(alg, c)
            directions[name] = {"det": efm.det, "rank": efm.rank, "moduli": efm.moduli,
                                "eta_null": efm.direction_is_null}
    data = {
        "command": "closure",
        "group": _group_name(ns),
        "kappa": report.kappa,
        "max_unexplained": report.max_unexplained,
        "proportionality_residual": report.proportionality_residual,
        "tampered": ns.debug_tamper,
        "directions": directions,
        "passed": report.passed,
    }
    lines = [f"{_group_name(ns)} {report}"]
    for name, info in directions.items():
        lines.append(
            f"  direction {name}: det={info['det']:+.6g} rank={info['rank']} moduli={info['moduli']}"
        )
    return report.passed, data, lines


def cmd_report(ns):
    """Aggregate run: jacobi + membership + sectors + moduli + closure."""
    moduli = checks.moduli_counts(1, 1, ns.seed, min(ns.samples, 50))
    closure = check_closure(build_osp12(), tol=EXACT_TOL)
    exp_sector = osp12_exponential_sector(samples=8, seed=ns.seed)
    results = {
        "jacobi": checks.jacobi_suite(),
        # the pooled sweep's defect grows with --N (1.4e-14 at 6, 1.1e-12 at 12,
        # 200 ops), so it keeps ten times the unit-scale bound
        "membership": checks.membership_closure(
            OspGroup(1, 1, ns.ngen), np.random.default_rng(ns.seed), 6, min(ns.samples, 200), 10 * DEFECT_TOL),
        "sectors": checks.osp12_sector_counts(enumerate_sectors_osp12()),
        "moduli": {"mismatches": moduli["mismatches"], "passed": moduli["passed"]},
        "closure": {"kappa": float(closure.kappa),
                    "max_unexplained": float(closure.max_unexplained),
                    "passed": closure.passed},
        "exponential_sector": {"bracket": float(exp_sector.bracket_a1_a2),
                               "worst_commutator": float(max(exp_sector.commutator_norms)),
                               "passed": exp_sector.passed},
    }
    failures = sum(not section["passed"] for section in results.values())
    data = {"command": "report", "seed": ns.seed, "results": results, "passed": failures == 0}
    lines = ["verification report"]
    for name, section in results.items():
        detail = {k: v for k, v in section.items() if k != "passed"}
        lines.append(f"  {name}: {detail} [{_status(section['passed'])}]")
    lines.append("[pass]" if failures == 0 else f"[FAIL] ({failures} sections)")
    return failures == 0, data, lines


COMMANDS = {
    "jacobi": cmd_jacobi,
    "membership": cmd_membership,
    "sectors": cmd_sectors,
    "moduli": cmd_moduli,
    "closure": cmd_closure,
    "report": cmd_report,
}


# every flag of the CLI; a command registers only those its cmd_* reads
FLAGS = {
    "--m": dict(type=int, default=1, help="orthogonal block size"),
    "--n": dict(type=int, default=1, help="half the symplectic block size"),
    "--N": dict(dest="ngen", type=int, default=2, help="Grassmann generator count (default 2)"),
    "--tol": dict(type=float, default=DEFECT_TOL),
    "--samples": dict(type=int, default=50),
    "--seed": dict(type=int, default=None),
    "--format": dict(dest="fmt", choices=("text", "json"), default="text"),
    "--out": dict(default=None),
    "--debug-tamper": dict(action="store_true",
                           help="detune the bracket to demonstrate failure detection"),
}
COMMAND_FLAGS = {
    "jacobi": ("--m", "--n", "--tol"),
    "membership": ("--m", "--n", "--N", "--tol", "--samples"),
    "sectors": ("--m", "--n", "--N", "--tol", "--samples"),
    "moduli": ("--m", "--n", "--samples"),
    "closure": ("--m", "--n", "--tol", "--debug-tamper"),
    "report": ("--N", "--samples"),
}
COMMON_FLAGS = ("--seed", "--format", "--out")


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built once per process: parsing leaves it unchanged."""
    parser = _Parser(
        prog="superholonomy",
        description="Verification suites for the OSp(m|2n) flat-connection moduli calculus.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in COMMANDS.items():
        p = sub.add_parser(name, help=fn.__doc__ or name, allow_abbrev=False)
        for flag in FLAGS:
            if flag in COMMAND_FLAGS[name] + COMMON_FLAGS:
                p.add_argument(flag, **FLAGS[flag])
        if name in EXACT_COMMANDS:
            p.set_defaults(tol=EXACT_TOL)
        if name == "sectors":
            p.set_defaults(**{dest: None for dest, _ in SECTOR_FLAGS.values()})
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        ns = build_parser().parse_args(argv)
    except SystemExit as exc:   # --help
        return 2 if exc.code not in (0, None) else 0
    except UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 2
    try:
        _validate(ns)
        passed, data, lines = COMMANDS[ns.command](ns)
    except UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 2
    if ns.fmt == "json":
        payload = json.dumps(data, sort_keys=True, indent=2, default=_wire_format) + "\n"
    else:
        payload = "\n".join(lines) + "\n"
    if ns.out:
        try:
            with open(ns.out, "w") as fh:
                fh.write(payload)
        except OSError as exc:
            sys.stderr.write(f"usage error: cannot write --out: {exc}\n")
            return 2
    else:
        sys.stdout.write(payload)
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
