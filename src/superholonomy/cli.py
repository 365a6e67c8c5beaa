"""Command-line front end: verification suites, enumerations and sweeps.

Exit codes: 0 = all checks passed, 1 = a property failed, 2 = usage error.
Output is deterministic for a fixed seed and flag set; the default seed can
be overridden with the SUPERHOLONOMY_SEED environment variable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from .group import (
    OspGroup,
    ahat,
    enumerate_sectors_osp12,
    fermionic_moduli_count,
    fermionic_moduli_count_bruteforce,
    random_sp,
    rotation,
    sample_commuting_bodies,
    sector_representative,
)
from .phase import check_closure, exponential_sector_moduli, osp12_exponential_sector
from .superlie import MAX_OSP_SIZE, build_osp, build_osp12
from .supermatrix import commutator

DEFAULT_TOL = 1e-10

# commands whose --m/--n build the osp(m|2n) algebra (moduli only samples bodies)
ALGEBRA_COMMANDS = ("jacobi", "membership", "closure")


@dataclass
class RunConfig:
    command: str
    m: int = 1
    n: int = 1
    ngen: int = 2
    tol: float = DEFAULT_TOL
    samples: int = 50
    seed: int = 0
    fmt: str = "text"
    out: str | None = None
    debug_tamper: bool = False

    def validate(self):
        if self.m < 1 or self.n < 1:
            raise UsageError("block sizes require m >= 1 and n >= 1")
        if self.ngen < 0 or self.ngen > 16:
            raise UsageError("generator count must be in 0..16")
        if self.tol <= 0:
            raise UsageError("tolerance must be positive")
        if self.samples < 1:
            raise UsageError("sample count must be positive")
        if self.command in ALGEBRA_COMMANDS and self.m + 2 * self.n > MAX_OSP_SIZE:
            raise UsageError(f"{self.command} builds osp(m|2n) only for m + 2n <= {MAX_OSP_SIZE}")


class UsageError(ValueError):
    pass


def _emit(cfg: RunConfig, report: dict, text_lines: list[str]) -> None:
    if cfg.fmt == "json":
        payload = json.dumps(report, sort_keys=True, indent=2) + "\n"
    else:
        payload = "\n".join(text_lines) + "\n"
    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _rng_for(cfg: RunConfig, sample_index: int = 0):
    # deterministic per-sample seeding: seed xor index
    return np.random.default_rng(cfg.seed ^ sample_index)


def _moduli_counts(cfg: RunConfig, m: int, n: int, samples: int) -> list[tuple[int, int]]:
    """(closed-form, brute-force) moduli counts for seeded commuting bodies."""
    counts = []
    for k in range(samples):
        bodies = sample_commuting_bodies(m, n, _rng_for(cfg, k))
        counts.append((fermionic_moduli_count(*bodies), fermionic_moduli_count_bruteforce(*bodies)))
    return counts


# ----------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------

def cmd_jacobi(cfg: RunConfig) -> int:
    alg = build_osp(cfg.m, cfg.n)
    report = alg.check_jacobi(tol=min(cfg.tol, 1e-12))
    data = {
        "command": "jacobi",
        "group": f"osp({cfg.m}|{2 * cfg.n})",
        "dim": report.dim,
        "max_residual": report.max_residual,
        "tol": report.tol,
        "algebra": alg.to_json_dict(),
        "passed": report.passed,
    }
    _emit(cfg, data, [f"osp({cfg.m}|{2 * cfg.n}) {report}"])
    return 0 if report.passed else 1


def cmd_membership(cfg: RunConfig) -> int:
    group = OspGroup(cfg.m, cfg.n, cfg.ngen)
    rng = _rng_for(cfg)
    pool = [group.sample_member(rng) for _ in range(max(4, min(16, cfg.samples // 4)))]
    worst = 0.0
    for k in range(cfg.samples):
        i, j = rng.integers(0, len(pool), 2)
        op = k % 3
        if op == 0:
            M = pool[i] @ pool[j]
        elif op == 1:
            M = pool[i].inverse()
        else:
            M = pool[i] @ pool[j] @ pool[i].inverse()
        worst = max(worst, group.membership_defect(M))
    passed = worst <= cfg.tol
    data = {
        "command": "membership",
        "group": f"osp({cfg.m}|{2 * cfg.n})",
        "samples": cfg.samples,
        "seed": cfg.seed,
        "worst_defect": worst,
        "tol": cfg.tol,
        "passed": passed,
    }
    status = "pass" if passed else "FAIL"
    _emit(cfg, data, [
        f"membership closure: osp({cfg.m}|{2 * cfg.n}) samples={cfg.samples} "
        f"worst defect={worst:.3e} tol={cfg.tol:.1e} [{status}]"
    ])
    return 0 if passed else 1


def cmd_sectors(cfg: RunConfig) -> int:
    if (cfg.m, cfg.n) == (1, 1):
        report = enumerate_sectors_osp12()
        ok = report.bosonic_count == 36 and len(report.fermionic_sectors) == 4
        rep_ok = True
        group = OspGroup(1, 1, cfg.ngen)
        representatives = []
        for desc in report.fermionic_sectors:
            pair = sector_representative(desc, ngen=cfg.ngen)
            rep_ok &= group.is_member(pair.U1, cfg.tol)
            rep_ok &= commutator(pair.U1, pair.U2).max_abs() <= cfg.tol
            rep_ok &= pair.moduli == 2
            representatives.append(
                {"sector": desc.label(), "U1": pair.U1.to_json_dict(), "U2": pair.U2.to_json_dict()}
            )
        data = report.to_json_dict()
        data.update({
            "command": "sectors",
            "fermionic_representatives": representatives,
            "passed": bool(ok and rep_ok),
        })
        lines = [
            f"osp(1|2) sectors: bosonic={report.bosonic_count} fermionic={len(report.fermionic_sectors)}",
        ]
        for s in report.fermionic_sectors:
            lines.append(f"  {s.label()}: moduli={s.moduli} ({report.parabolic_constraint})")
        lines.append("[pass]" if ok and rep_ok else "[FAIL]")
        _emit(cfg, data, lines)
        return 0 if ok and rep_ok else 1
    if (cfg.m, cfg.n) == (2, 1):
        # only the rotation-sector determinant formula is classified here
        rng = _rng_for(cfg)
        worst = 0.0
        for _ in range(cfg.samples):
            phi = rng.uniform(0.0, 2 * np.pi)
            A0 = random_sp(2, rng) * rng.choice([-1.0, 1.0])
            det = float(np.linalg.det(ahat(rotation(phi), A0)))
            formula = (2 * np.cos(phi) - np.trace(A0)) ** 2
            worst = max(worst, abs(det - formula))
        count = fermionic_moduli_count(rotation(0.4), rotation(1.1), rotation(0.4), rotation(1.1))
        passed = worst <= cfg.tol and count == 4
        data = {
            "command": "sectors",
            "group": "osp(2|2)",
            "partial": True,
            "det_formula_worst_error": worst,
            "so2_so2_moduli": count,
            "samples": cfg.samples,
            "seed": cfg.seed,
            "passed": bool(passed),
        }
        status = "pass" if passed else "FAIL"
        _emit(cfg, data, [
            "osp(2|2) sectors (partial): rotation-sector determinant formula",
            f"  worst |det - (2cos(phi) - tr A0)^2| = {worst:.3e} over {cfg.samples} samples",
            f"  SO(2)xSO(2) sector fermionic moduli = {count}",
            f"[{status}]",
        ])
        return 0 if passed else 1
    raise UsageError("sector classification is available for (m, n) = (1, 1) or (2, 1)")


def cmd_moduli(cfg: RunConfig) -> int:
    counts = _moduli_counts(cfg, cfg.m, cfg.n, cfg.samples)
    mismatches = sum(closed != brute for closed, brute in counts)
    rows = [{"sample": k, "closed_form": closed, "bruteforce": brute}
            for k, (closed, brute) in enumerate(counts)]
    passed = mismatches == 0
    data = {
        "command": "moduli",
        "group": f"osp({cfg.m}|{2 * cfg.n})",
        "samples": cfg.samples,
        "seed": cfg.seed,
        "mismatches": mismatches,
        "counts": rows,
        "passed": passed,
    }
    status = "pass" if passed else "FAIL"
    histogram: dict[int, int] = {}
    for row in rows:
        histogram[row["closed_form"]] = histogram.get(row["closed_form"], 0) + 1
    hist = " ".join(f"{k}:{v}" for k, v in sorted(histogram.items()))
    _emit(cfg, data, [
        f"fermionic moduli count: osp({cfg.m}|{2 * cfg.n}) samples={cfg.samples} "
        f"mismatches={mismatches} counts[{hist}] [{status}]"
    ])
    return 0 if passed else 1


def cmd_closure(cfg: RunConfig) -> int:
    if (cfg.m, cfg.n) == (1, 1):
        alg = build_osp12()
    else:
        alg = build_osp(cfg.m, cfg.n)
    if cfg.debug_tamper:
        import dataclasses

        f_bad = alg.f.copy()
        ev, od = alg.even_indices, alg.odd_indices
        f_bad[ev[0], od[0], od[-1]] += 0.1
        alg = dataclasses.replace(alg, f=f_bad)
    report = check_closure(alg, tol=min(cfg.tol, 1e-12))
    directions = {}
    if (cfg.m, cfg.n) == (1, 1):
        for name, c in (("so2", [-1.0, 0.0, 0.0]), ("hyperbolic", [0.0, 1.0, 0.0]),
                        ("parabolic", [-1.0, 0.0, 1.0])):
            efm = exponential_sector_moduli(alg, c)
            directions[name] = {
                "det": efm.det,
                "rank": efm.rank,
                "moduli": efm.moduli,
                "eta_null": efm.direction_is_null,
            }
    data = {
        "command": "closure",
        "group": f"osp({cfg.m}|{2 * cfg.n})",
        "kappa": report.kappa,
        "max_unexplained": report.max_unexplained,
        "proportionality_residual": report.proportionality_residual,
        "tampered": cfg.debug_tamper,
        "directions": directions,
        "passed": report.passed,
    }
    lines = [f"osp({cfg.m}|{2 * cfg.n}) {report}"]
    for name, info in directions.items():
        lines.append(
            f"  direction {name}: det={info['det']:+.6g} rank={info['rank']} moduli={info['moduli']}"
        )
    _emit(cfg, data, lines)
    return 0 if report.passed else 1


def cmd_report(cfg: RunConfig) -> int:
    """Aggregate run: jacobi + membership + sectors + moduli + closure."""
    results = {}
    failures = 0
    alg_sizes = [(1, 1), (2, 1), (1, 2), (2, 2)]
    jacobi: dict = {}
    for m, n in alg_sizes:
        rep = build_osp(m, n).check_jacobi(tol=1e-12)
        jacobi[f"osp({m}|{2 * n})"] = float(rep.max_residual)
        failures += 0 if rep.passed else 1
    jacobi["passed"] = all(v <= 1e-12 for k, v in jacobi.items() if k != "passed")
    results["jacobi"] = jacobi
    group = OspGroup(1, 1, cfg.ngen)
    rng = _rng_for(cfg)
    worst = 0.0
    pool = [group.sample_member(rng) for _ in range(6)]
    for k in range(min(cfg.samples, 200)):
        i, j = rng.integers(0, len(pool), 2)
        M = pool[i] @ pool[j] if k % 2 else pool[i] @ pool[j] @ pool[i].inverse()
        worst = max(worst, group.membership_defect(M))
    results["membership"] = {"worst_defect": float(worst), "passed": worst <= 1e-9}
    failures += 0 if worst <= 1e-9 else 1
    sectors = enumerate_sectors_osp12()
    sec_ok = sectors.bosonic_count == 36 and len(sectors.fermionic_sectors) == 4
    results["sectors"] = {
        "bosonic": sectors.bosonic_count,
        "fermionic": len(sectors.fermionic_sectors),
        "passed": sec_ok,
    }
    failures += 0 if sec_ok else 1
    mismatches = sum(closed != brute
                     for closed, brute in _moduli_counts(cfg, 1, 1, min(cfg.samples, 50)))
    results["moduli"] = {"mismatches": mismatches, "passed": mismatches == 0}
    failures += 0 if mismatches == 0 else 1
    closure = check_closure(build_osp12(), tol=1e-12)
    results["closure"] = {
        "kappa": float(closure.kappa),
        "max_unexplained": float(closure.max_unexplained),
        "passed": closure.passed,
    }
    failures += 0 if closure.passed else 1
    exp_sector = osp12_exponential_sector(samples=8, seed=cfg.seed)
    results["exponential_sector"] = {
        "bracket": float(exp_sector.bracket_a1_a2),
        "worst_commutator": float(max(exp_sector.commutator_norms)),
        "passed": exp_sector.passed,
    }
    failures += 0 if exp_sector.passed else 1
    data = {"command": "report", "seed": cfg.seed, "results": results, "passed": failures == 0}
    lines = ["verification report"]
    for name, section in results.items():
        status = "pass" if section.get("passed") else "FAIL"
        detail = {k: v for k, v in section.items() if k != "passed"}
        lines.append(f"  {name}: {detail} [{status}]")
    lines.append("[pass]" if failures == 0 else f"[FAIL] ({failures} sections)")
    _emit(cfg, data, lines)
    return 0 if failures == 0 else 1


COMMANDS = {
    "jacobi": cmd_jacobi,
    "membership": cmd_membership,
    "sectors": cmd_sectors,
    "moduli": cmd_moduli,
    "closure": cmd_closure,
    "report": cmd_report,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="superholonomy",
        description="Verification suites for the OSp(m|2n) flat-connection moduli calculus.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in COMMANDS.items():
        p = sub.add_parser(name, help=fn.__doc__ or name)
        p.add_argument("--m", type=int, default=1, help="orthogonal block size")
        p.add_argument("--n", type=int, default=1, help="half the symplectic block size")
        p.add_argument("--N", dest="ngen", type=int, default=2,
                       help="Grassmann generator count (default 2)")
        p.add_argument("--tol", type=float, default=DEFAULT_TOL)
        p.add_argument("--samples", type=int, default=50)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--format", dest="fmt", choices=("text", "json"), default="text")
        p.add_argument("--out", default=None)
        if name == "closure":
            p.add_argument("--debug-tamper", action="store_true",
                           help="detune the bracket to demonstrate failure detection")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    seed = ns.seed
    if seed is None:
        seed = int(os.environ.get("SUPERHOLONOMY_SEED", "0"))
    cfg = RunConfig(
        command=ns.command,
        m=ns.m,
        n=ns.n,
        ngen=ns.ngen,
        tol=ns.tol,
        samples=ns.samples,
        seed=seed,
        fmt=ns.fmt,
        out=ns.out,
        debug_tamper=getattr(ns, "debug_tamper", False),
    )
    try:
        cfg.validate()
        return COMMANDS[cfg.command](cfg)
    except UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
