"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Every tolerance is pinned here, not configurable.
"""

import time

import numpy as np

from random_inputs import random_sp
from superholonomy import checks
from superholonomy.grassmann import real_expm
from superholonomy.group import (
    OspGroup,
    SingularGaugeOperatorError,
    ahat,
    build_nonexp_holonomy,
    enumerate_sectors_osp12,
    gauge_fix_sigma,
    rotation,
    sector_representatives,
)
from superholonomy.phase import check_closure, exponential_sector_moduli, osp12_exponential_sector
from superholonomy.superlie import OSP12_DIRECTIONS, SIGMA1, build_osp, build_osp12
from superholonomy.supermatrix import SuperMatrix


def report(index: int, name: str, passed: bool, detail: str = ""):
    status = "pass" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {index:2d} [{status}] {name}{suffix}")
    assert passed, f"criterion {index}: {name}{suffix}"


def test_01_super_jacobi_suite():
    start = time.perf_counter()
    res = checks.jacobi_suite()
    elapsed = time.perf_counter() - start
    worst = max(v for k, v in res.items() if k != "passed")
    report(1, "super Jacobi for osp(m|2n)", res["passed"] and elapsed < 5.0,
           f"max residual {worst:.2e}, {elapsed:.2f}s")


def test_02_membership_closure_1000_ops(monkeypatch):
    ops = 0
    defect = OspGroup.membership_defect

    def counted_defect(group, M):
        nonlocal ops
        ops += 1 if isinstance(M, SuperMatrix) else len(M)   # a stack counts its members
        return defect(group, M)

    monkeypatch.setattr(OspGroup, "membership_defect", counted_defect)
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    results = [checks.membership_closure(group, rng, 24, 500, 1e-9)
               for group in (OspGroup(1, 1, 2), OspGroup(2, 1, 2))]
    elapsed = time.perf_counter() - start
    worst = max(res["worst_defect"] for res in results)
    report(2, "membership closure under 1000 group operations",
           ops == 1000 and all(res["passed"] for res in results) and elapsed < 30.0,
           f"worst defect {worst:.2e}, {elapsed:.1f}s")


def test_03_xi_block_dependence():
    rng = np.random.default_rng(3)
    worst = 0.0
    for k in range(200):
        group = OspGroup(1, 1, 2) if k % 2 else OspGroup(2, 1, 2)
        M = group.sample_member(rng)
        xi = group.xi_from_chi(M.block_coeffs("a"), M.block_coeffs("A"), M.block_coeffs("chi"))
        worst = max(worst, np.abs(xi - M.block_coeffs("xi")).max())
    report(3, "xi block equals -(a^T)^-1 chi^T C A on 200 members",
           worst <= 1e-10, f"worst {worst:.2e}")


def test_04_determinant_conjugation_invariance():
    rng = np.random.default_rng(4)
    worst_rel = 0.0
    for k in range(100):
        if k % 3 == 0:
            a0, A0 = np.array([[1.0]]), np.array([[1.0, 0.6], [0.0, 1.0]])
        elif k % 3 == 1:
            a0, A0 = np.array([[-1.0]]), real_expm(0.8 * SIGMA1)
        else:
            a0, A0 = rotation(rng.uniform(0.2, 3.0)), random_sp(2, rng)
        # I (x) S0 conjugates one Kronecker operator into the other
        S0 = random_sp(2, rng)
        d1 = np.linalg.det(ahat(a0, S0 @ A0 @ np.linalg.inv(S0)))
        d2 = np.linalg.det(ahat(a0, A0))
        scale = max(abs(d1), abs(d2), 1.0)
        worst_rel = max(worst_rel, abs(d1 - d2) / scale)
    report(4, "det Ahat invariant under 100 symplectic conjugations",
           worst_rel <= 1e-8, f"worst relative error {worst_rel:.2e}")


def test_05_gauge_fixing_recursion():
    rng = np.random.default_rng(5)
    group = OspGroup(1, 1, 2)
    worst_chi = 0.0
    regular_done = 0
    while regular_done < 100:
        U = group.sample_member(rng)
        a0, A0 = U.body_blocks()
        det = np.linalg.det(ahat(a0, A0))
        if abs(det) < 1e-6:
            continue
        result = gauge_fix_sigma(group, U)
        worst_chi = max(worst_chi, np.abs(result.U_fixed.block_coeffs("chi")).max(initial=0.0))
        regular_done += 1
    fermionic = [s for s in enumerate_sectors_osp12().sectors if s.fermionic]
    singular_raises = 0
    for k in range(100):
        desc = fermionic[k % len(fermionic)]
        pair, = sector_representatives([desc], params=[(0.4 + 0.004 * k, 0.9 - 0.003 * k)])
        S = group.sample_member(rng)
        U = S @ pair.U1 @ S.inverse()
        try:
            gauge_fix_sigma(group, U)
        except SingularGaugeOperatorError:
            singular_raises += 1
    report(5, "gauge fixing annihilates chi / fails on parabolic sectors",
           worst_chi <= 1e-10 and singular_raises == 100,
           f"worst chi {worst_chi:.2e}, singular raises {singular_raises}/100")


def test_06_sector_counts():
    res = checks.osp12_sector_counts(enumerate_sectors_osp12())
    report(6, "osp(1|2) sector counts 36 bosonic / 4 fermionic / 2 moduli each", res["passed"],
           f"bosonic {res['bosonic']}, fermionic {res['fermionic']}")


def test_07_moduli_count_oracle_equivalence():
    mismatches = 0
    total = 0
    for m, n in [(1, 1), (2, 1), (1, 2)]:
        res = checks.moduli_counts(m, n, 700 + 10 * m + n, 50)
        mismatches += res["mismatches"]
        total += len(res["counts"])
    report(7, "closed-form moduli count equals degree-1 kernel/orbit oracle",
           mismatches == 0 and total == 150, f"{total} pairs, {mismatches} mismatches")


def test_08_osp22_determinant_formula():
    res = checks.osp22_rotation_det(np.random.default_rng(8), 100, 1e-10)
    report(8, "osp(2|2) rotation-sector determinant formula and 4 moduli", res["passed"],
           f"worst {res['det_formula_worst_error']:.2e}, moduli {res['so2_so2_moduli']}")


def test_09_constraint_closure():
    rep12 = check_closure(build_osp12(), tol=1e-12)
    rep22 = check_closure(build_osp(2, 1), tol=1e-12)
    ok = (
        rep12.passed
        and rep22.passed
        and abs(rep12.kappa - rep22.kappa) <= 1e-12
    )
    report(9, "constraint closure with a single global factor",
           ok, f"kappa {rep12.kappa:+.3f}, residuals {rep12.max_unexplained:.1e}/"
               f"{rep22.max_unexplained:.1e}")


def test_10_criterion_equivalence():
    alg = build_osp12()
    agree = 0
    for c, sigma in OSP12_DIRECTIONS.values():
        phase_det = exponential_sector_moduli(alg, c).det
        A0 = real_expm(0.8 * sigma)
        group_det = np.linalg.det(ahat(np.array([[1.0]]), A0))
        if (abs(phase_det) < 1e-10) == (abs(group_det) < 1e-10):
            agree += 1
    report(10, "fermion-block criterion matches det Ahat on exponentials",
           agree == 3, f"{agree}/3 abelian directions")


def test_11_exponential_sector_holonomies():
    rep = osp12_exponential_sector(samples=10, seed=11)
    worst = max(rep.commutator_norms)
    ok = len(rep.commutator_norms) == 10 and worst <= 1e-8 and rep.passed
    report(11, "parametrized holonomies commute on the constraint surface",
           ok, f"10 sample points, worst commutator {worst:.2e}")


def test_12_nonexponential_family():
    fam = build_nonexp_holonomy(0.35, -0.2, grid_points=64)
    eye = SuperMatrix.identity(1, 2, 2)
    exact_start = fam.U1[0].diff(eye) == 0.0 and fam.U2[0].diff(eye) == 0.0
    end_err = max(
        np.abs(fam.U1[-1].body() - fam.target_body_1).max(),
        np.abs(fam.U2[-1].body() - fam.target_body_2).max(),
    )
    group = OspGroup(1, 1, 2)
    members = all(group.is_member(u, 1e-9) for u in fam.U1 + fam.U2)
    report(12, "non-exponential family: U(0) = Id exactly, U(2pi) hits the target",
           exact_start and end_err <= 1e-8 and members,
           f"endpoint body error {end_err:.2e}, 2 x 65 grid members")
