"""The paper's checkable claims as plain functions shared by the CLI and tests.

Each check returns a dict of named numbers plus a boolean "passed", the
section the `report` command prints.  Randomness comes only from the
generators passed in, so callers keep their own seeding.
"""

from __future__ import annotations

import numpy as np

from .grassmann import EXACT_TOL, graded_inverse, graded_matmul, real_expm, stack_chunk
from .group import (
    SectorReport,
    ahat,
    commuting_bodies,
    fermionic_moduli_count,
    integers_from_random,
    rotation,
    sp_from_random,
    torus_cohomology,
    uniform_from_random,
)
from .superlie import build_osp

JACOBI_ALGEBRAS = ((1, 1), (2, 1), (1, 2), (2, 2))


def jacobi_suite() -> dict:
    """Super Jacobi residual of osp(m|2n) for each size in JACOBI_ALGEBRAS."""
    res = {f"osp({m}|{2 * n})": float(build_osp(m, n).check_jacobi().max_residual)
           for m, n in JACOBI_ALGEBRAS}
    res["passed"] = all(v <= EXACT_TOL for v in res.values())
    return res


def membership_closure(group, rng, pool_size: int, ops: int, tol: float) -> dict:
    """Worst M^st H M - H over products, inverses and conjugations of members.

    Op k is pool[i] @ pool[j], pool[i]^-1 or pool[i] @ pool[j] @ pool[i]^-1
    as k % 3 is 0, 1 or 2, with (i, j) drawn per op.  The pool and every
    op's (i, j) are drawn first, in that order; each pool member is then
    inverted once, and the ops run in chunks of at most STACK_BYTES (see
    stack_chunk): one product, one conjugation and one defect call per chunk.
    """
    pool = group.sample_stack([rng] * pool_size)
    pairs = rng.integers(0, pool_size, (ops, 2))
    # the pool comes from sample_stack, on the even pattern
    inverses = graded_inverse(pool, group.m, check=False)
    chunk = stack_chunk(pool.shape[1:])
    worst = 0.0
    for start in range(0, ops, chunk):
        k = np.arange(start, min(start + chunk, ops))
        i, j = pairs[k].T
        stack = inverses[i]
        product = k % 3 != 1
        stack[product] = graded_matmul(pool[i[product]], pool[j[product]], group.m, check=False)
        conj = k % 3 == 2
        stack[conj] = graded_matmul(stack[conj], inverses[i[conj]], group.m, check=False)
        worst = max(worst, float(group.membership_defect(stack).max()))
    return {"worst_defect": worst, "passed": worst <= tol}


def osp12_sector_counts(rep: SectorReport) -> dict:
    """36 bosonic and 4 fermionic osp(1|2) sectors, 2 fermionic moduli each, in rep."""
    fermionic = rep.fermionic_sectors
    passed = rep.bosonic_count == 36 and len(fermionic) == 4 and all(s.moduli == 2 for s in fermionic)
    return {"bosonic": rep.bosonic_count, "fermionic": len(fermionic), "passed": passed}


def osp22_rotation_det(rng, samples: int, tol: float) -> dict:
    """det Ahat = (2cos(phi) - tr A0)^2 on rotation bodies, and 4 SO(2)xSO(2) moduli.

    Each sample draws phi and its sp(2) generator's S as one random(5) call
    (the stream of uniform(0, 2 pi) then uniform(-0.7, 0.7, (2, 2))) and its
    sign as one float32 draw, which reads what integers(2) reads (see
    integers_from_random); the maps, exponentials, operators and
    determinants are then one stacked call each.
    """
    draws, half = np.empty((samples, 5)), np.empty((samples, 1), dtype=np.float32)
    for d, h in zip(draws, half):
        rng.random(out=d)
        rng.random(out=h, dtype=np.float32)
    phi = uniform_from_random(draws[:, 0], 0.0, 2 * np.pi)
    flips = 2.0 * integers_from_random(half[:, 0], 2) - 1.0
    A0 = real_expm(sp_from_random(draws[:, 1:].reshape(-1, 2, 2), 0.7)) * flips[:, None, None]
    c, s = np.cos(phi), np.sin(phi)
    a0 = np.stack([np.stack([c, -s], axis=-1), np.stack([s, c], axis=-1)], axis=-2)
    det = np.linalg.det(ahat(a0, A0))
    worst = float(np.abs(det - (2 * c - np.trace(A0, axis1=-2, axis2=-1)) ** 2).max())
    count = fermionic_moduli_count(rotation(0.4), rotation(1.1), rotation(0.4), rotation(1.1))
    return {"det_formula_worst_error": worst, "so2_so2_moduli": count,
            "passed": bool(worst <= tol and count == 4)}


def moduli_counts(m: int, n: int, seed: int, samples: int) -> dict:
    """Closed-form 2 dim H^0 against the degree-1 oracle dim H^0 + dim H^2 on commuting_bodies(m, n, seed, samples).

    Each pair is the (fermionic_moduli_count, fermionic_moduli_count_bruteforce) pair of its
    bodies, both read off one torus_cohomology call, so a mismatch is a pair where the duality
    dim H^2 = dim H^0, rank [-Bhat, Ahat] = rank [Ahat; Bhat], fails.
    """
    h0, h2 = torus_cohomology(*commuting_bodies(m, n, seed, samples))
    counts = list(zip((2 * h0).tolist(), (h0 + h2).tolist()))
    mismatches = sum(closed != brute for closed, brute in counts)
    return {"counts": counts, "mismatches": mismatches, "passed": mismatches == 0}
