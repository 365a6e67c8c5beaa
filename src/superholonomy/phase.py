"""Finite-dimensional graded phase space of homogeneous torus connections.

Polynomials in even variables A_k^a and odd variables psi_k^alpha (k = 1, 2
labels the two cycles) carry the graded bracket

    {A_k^a, A_j^b}   = eps_kj eta^{ab}
    {psi_k^a, psi_j^b} = eps_kj C^{ab}

extended by the graded Leibniz rule.  The flatness constraints G^a, G^alpha
live here, close under the bracket onto the underlying superalgebra, and the
determinant of the fermion-fermion adjoint block decides whether a sector
carries fermionic moduli.

With x_I = (A_1^a, psi_1^alpha) and y_J = (A_2^a, psi_2^alpha) in the
algebra's basis order, every constraint is bilinear, G^K = F[I, J, K] x_I y_J
with x written before y, and ``constraint_tensor`` is the one place F is read
off the structure constants.  Closure is checked on F by contraction;
``GradedPolynomial`` is the symbolic view of the same constraints.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from .grassmann import (COEFF_CUTOFF, DEFECT_TOL, EXACT_TOL, FORWARD_ROUNDING, canonical, counted_values, graded_expm,
                        graded_matmul, matrix_rank, merge_sign, stack_chunk)
from .superlie import OSP12_DIRECTIONS, SuperAlgebra, build_osp12, check_forms, check_tolerance, pair_plan, pair_sums
from .supermatrix import real_array

EPS_CYCLES = np.array([[0.0, 1.0], [-1.0, 0.0]])   # eps_12 = +1


@dataclass(frozen=True)
class PhaseSpace:
    """Variable layout and fundamental brackets for one graded phase space.

    Even variables are indexed (k, a) with k in {1, 2} and a < n_even; odd
    variables (k, alpha) likewise.  eta must be symmetric invertible and C
    antisymmetric invertible.
    """

    n_even: int
    n_odd: int
    eta: tuple        # stored as nested tuples to stay hashable
    C: tuple

    @classmethod
    def create(cls, eta: np.ndarray, C: np.ndarray) -> "PhaseSpace":
        eta, C = real_array(eta, "eta"), real_array(C, "C")
        check_forms(eta, C)
        return cls(n_even=len(eta), n_odd=len(C), eta=tuple(map(tuple, eta)), C=tuple(map(tuple, C)))

    @classmethod
    def from_algebra(cls, alg: SuperAlgebra) -> "PhaseSpace":
        return cls.create(alg.eta_even, alg.eta_odd)

    # ------------------------------------------------------------------
    @property
    def eta_mat(self) -> np.ndarray:
        return np.array(self.eta)

    @property
    def C_mat(self) -> np.ndarray:
        return np.array(self.C)

    def even_weights(self) -> np.ndarray:
        """Bracket coefficients over the 2*n_even even slots, k-major order."""
        return np.kron(EPS_CYCLES, np.linalg.inv(self.eta_mat))

    def odd_weights(self) -> np.ndarray:
        """Bracket coefficients over the 2*n_odd odd slots (symmetric matrix).

        The raised form obeys C^{ab} C_{bc} = delta^a_c; the other index
        order flips its sign and breaks constraint closure against the
        structure constants, which is what pins the convention.
        """
        C_upper = np.linalg.inv(self.C_mat)
        return np.kron(EPS_CYCLES, C_upper)

    def even_slot(self, k: int, a: int) -> int:
        return (int(k) - 1) * self.n_even + int(a)

    def odd_slot(self, k: int, alpha: int) -> int:
        return (int(k) - 1) * self.n_odd + int(alpha)

    # ------------------------------------------------------------------
    def zero(self) -> "GradedPolynomial":
        return GradedPolynomial(self, {})

    def scalar(self, value: float) -> "GradedPolynomial":
        key = ((0,) * (2 * self.n_even), 0)
        return GradedPolynomial(self, {key: float(value)})

    def A(self, k: int, a: int) -> "GradedPolynomial":
        exps = [0] * (2 * self.n_even)
        exps[self.even_slot(k, a)] = 1
        return GradedPolynomial(self, {(tuple(exps), 0): 1.0})

    def psi(self, k: int, alpha: int) -> "GradedPolynomial":
        key = ((0,) * (2 * self.n_even), 1 << self.odd_slot(k, alpha))
        return GradedPolynomial(self, {key: 1.0})


class GradedPolynomial:
    """Polynomial in even A-variables and odd psi-variables, canonical form.

    Terms map (even exponent tuple, odd slot mask) -> coefficient; odd masks
    follow the same bit conventions as Grassmann monomials.
    """

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: PhaseSpace, terms: dict):
        clean = {k: float(c) for k, c in terms.items() if abs(c) >= COEFF_CUTOFF}
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *_):
        raise AttributeError("GradedPolynomial is immutable")

    # ------------------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def parity_part(self, parity: int) -> "GradedPolynomial":
        return GradedPolynomial(
            self.ctx,
            {k: c for k, c in self.terms.items() if k[1].bit_count() & 1 == parity},
        )

    # ------------------------------------------------------------------
    def _check(self, other: "GradedPolynomial"):
        if self.ctx is not other.ctx and self.ctx != other.ctx:
            raise ValueError("polynomials belong to different phase spaces")

    def __add__(self, other):
        if isinstance(other, (int, float)):
            other = self.ctx.scalar(other)
        self._check(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, 0.0) + c
        return GradedPolynomial(self.ctx, out)

    __radd__ = __add__

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return GradedPolynomial(self.ctx, {k: c * other for k, c in self.terms.items()})
        self._check(other)
        out: dict = {}
        for (e1, m1), c1 in self.terms.items():
            for (e2, m2), c2 in other.terms.items():
                if m1 & m2:
                    continue
                key = (tuple(a + b for a, b in zip(e1, e2)), m1 | m2)
                out[key] = out.get(key, 0.0) + merge_sign(m1, m2) * c1 * c2
        return GradedPolynomial(self.ctx, out)

    # ------------------------------------------------------------------
    def d_even(self, slot: int) -> "GradedPolynomial":
        out: dict = {}
        for (exps, mask), c in self.terms.items():
            e = exps[slot]
            if e == 0:
                continue
            new = list(exps)
            new[slot] = e - 1
            key = (tuple(new), mask)
            out[key] = out.get(key, 0.0) + c * e
        return GradedPolynomial(self.ctx, out)

    def d_odd_left(self, slot: int) -> "GradedPolynomial":
        """Left derivative: moves psi_slot to the front, then removes it."""
        bit = 1 << slot
        out: dict = {}
        for (exps, mask), c in self.terms.items():
            if not mask & bit:
                continue
            below = (mask & (bit - 1)).bit_count()
            sign = -1.0 if below & 1 else 1.0
            key = (exps, mask ^ bit)
            out[key] = out.get(key, 0.0) + sign * c
        return GradedPolynomial(self.ctx, out)

    # ------------------------------------------------------------------
    def bracket(self, other: "GradedPolynomial") -> "GradedPolynomial":
        """Graded bracket from the fundamental relations plus Leibniz.

        For homogeneous F the odd-sector term carries (-1)^{|F|+1}; mixed
        inputs are split into parity components first.
        """
        self._check(other)
        fe, fo = self.parity_part(0), self.parity_part(1)
        out = self.ctx.zero()
        for f_part, pf in ((fe, 0), (fo, 1)):
            if f_part.is_zero():
                continue
            out = out + f_part._bracket_homogeneous(other, pf)
        return out

    def _bracket_homogeneous(self, other: "GradedPolynomial", pf: int) -> "GradedPolynomial":
        ctx = self.ctx
        out = ctx.zero()
        we = ctx.even_weights()
        for i, j in zip(*np.nonzero(we)):
            df = self.d_even(int(i))
            if df.is_zero():
                continue
            dg = other.d_even(int(j))
            if dg.is_zero():
                continue
            out = out + df * dg * float(we[i, j])
        wo = ctx.odd_weights()
        pref = 1.0 if pf else -1.0   # (-1)^{|F|+1}
        for i, j in zip(*np.nonzero(wo)):
            df = self.d_odd_left(int(i))
            if df.is_zero():
                continue
            dg = other.d_odd_left(int(j))
            if dg.is_zero():
                continue
            out = out + df * dg * (pref * float(wo[i, j]))
        return out

    # ------------------------------------------------------------------
    def evaluate(self, even_values: Sequence[float],
                 odd_values: Sequence[GrassmannElement]) -> GrassmannElement:
        """Substitute numbers for A-variables and odd elements for psi's."""
        from .grassmann import GrassmannElement   # the one element reader of this module
        ctx = self.ctx
        if len(even_values) != 2 * ctx.n_even or len(odd_values) != 2 * ctx.n_odd:
            raise ValueError("value vectors do not match the variable layout")
        ngen = odd_values[0].n if odd_values else 2
        total = GrassmannElement.zero(ngen)
        for (exps, mask), c in self.terms.items():
            factor = GrassmannElement.scalar(c, ngen)
            for slot, e in enumerate(exps):
                if e:
                    factor = factor * (float(even_values[slot]) ** e)
            rest = mask
            while rest:
                low = rest & -rest
                factor = factor * odd_values[low.bit_length() - 1]
                rest ^= low
            total = total + factor
        return total

    def __eq__(self, other):
        if not isinstance(other, GradedPolynomial):
            return NotImplemented
        return self.ctx == other.ctx and self.terms == other.terms

    def __hash__(self):
        return hash((self.ctx, tuple(sorted(self.terms.items()))))


# ----------------------------------------------------------------------
# flatness constraints
# ----------------------------------------------------------------------

@lru_cache(maxsize=None)
def _constraint_gather(parities: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """constraint_tensor's plan for one parity tuple: per flat entry of F, the flat position in f it
    copies (dim^3, one past f's end, where F is held at zero) and its sign, -1.0 where the entry is
    the swapped (odd, even -> odd) one."""
    dim = len(parities)
    par = np.array(parities, dtype=bool)
    i, j, k = par[:, None, None], par[:, None], par
    at = np.arange(dim ** 3).reshape((dim,) * 3)
    swap = (i > j) & k
    src = np.where((k == (i ^ j)) & (j >= i), at, np.where(swap, at.transpose(1, 0, 2), dim ** 3)).ravel()
    sign = np.where(swap, -1.0, 1.0).ravel()
    src.flags.writeable = sign.flags.writeable = False
    return src, sign


def constraint_tensor(alg: SuperAlgebra) -> np.ndarray:
    """F[I, J, K] with G^K = F[I, J, K] x_I y_J, in the algebra's basis order.

        G^a     = f_bc^a A_1^b A_2^c + f_{alpha beta}^a psi_1^alpha psi_2^beta
        G^alpha = f_{a beta}^alpha (A_1^a psi_2^beta - A_2^a psi_1^beta)

    so F copies f on the (even, even -> even), (odd, odd -> even) and
    (even, odd -> odd) blocks and F[beta, a, alpha] = -f[a, beta, alpha]
    carries the psi_1 A_2 term.  No other entry of f is read, so constants
    that are not graded-antisymmetric give the same constraints.  F is one
    signed gather from f by a plan that depends only on the parities
    (_constraint_gather), so it is read from f on every call.
    """
    src, sign = _constraint_gather(alg.parities)
    F = np.concatenate((alg.f.ravel(), (0.0,))).take(src)
    F *= sign          # by +-1, exact, the signs of zeros included
    return F.reshape(alg.f.shape)


def flatness_constraints(alg: SuperAlgebra, ctx: PhaseSpace | None = None
                         ) -> tuple[list[GradedPolynomial], list[GradedPolynomial]]:
    """The constraints expressing [A_1, A_2} = 0, as polynomials read off F.

    Returns (G^a for the even generators, G^alpha for the odd ones).
    """
    if ctx is None:
        ctx = PhaseSpace.from_algebra(alg)
    pos = {idx: p for block in (alg.even_indices, alg.odd_indices) for p, idx in enumerate(block)}

    def var(k: int, idx: int) -> GradedPolynomial:
        return (ctx.psi if alg.odd_mask[idx] else ctx.A)(k, pos[idx])

    F = constraint_tensor(alg)
    G = [sum((var(1, i) * var(2, j) * F[i, j, k] for i, j in zip(*np.nonzero(F[:, :, k]))),
             ctx.zero()) for k in range(F.shape[2])]
    return [G[k] for k in alg.even_indices], [G[k] for k in alg.odd_indices]


# ----------------------------------------------------------------------
# constraint closure
# ----------------------------------------------------------------------

@dataclass
class ClosureReport:
    dim: int
    kappa: float
    max_unexplained: float
    proportionality_residual: float
    induced: np.ndarray
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_unexplained <= self.tol and self.proportionality_residual <= self.tol

    def __str__(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return (
            f"constraint closure: dim={self.dim} kappa={self.kappa:+.6g} "
            f"unexplained={self.max_unexplained:.3e} "
            f"proportionality residual={self.proportionality_residual:.3e} [{status}]"
        )


@lru_cache(maxsize=None)
def _form_slots(parities: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Flat positions in a (dim, dim) W of its even-even and its odd-odd block, each row-major."""
    dim = len(parities)
    par = np.array(parities, dtype=bool)
    slots = tuple((idx[:, None] * dim + idx).ravel() for idx in (np.flatnonzero(~par), np.flatnonzero(par)))
    for arr in slots:
        arr.flags.writeable = False
    return slots


def _inverse_forms(alg: SuperAlgebra, eta: np.ndarray, name: str = "eta", own: np.ndarray | None = None
                   ) -> np.ndarray:
    """W, the fundamental brackets {x_I, y_J} = W_IJ: eta^-1 on the even generators, C^-1 on the odd,
    put at the slots of _form_slots.  Given own, the algebra's own W, C^-1 is copied from it, so an
    override inverts only its eta."""
    even, odd = _form_slots(alg.parities)
    W = np.zeros((alg.dim, alg.dim)) if own is None else own.copy()
    try:
        W.put(even, np.linalg.inv(eta))
    except np.linalg.LinAlgError:
        raise ValueError(f"{name} is singular on the even generators") from None
    if own is None:
        try:
            W.put(odd, np.linalg.inv(alg.eta_odd))
        except np.linalg.LinAlgError:
            raise ValueError("C is singular on the odd generators") from None
    return W


def _gram_pinv(B: np.ndarray) -> np.ndarray:
    """G+ for the Gram matrix G = B^T B of the constraint basis's nonzero rows B, under the one rank
    rule.  G is symmetric positive semi-definite, so its eigenvalues (eigh) are its singular values;
    each entry of G is a dot product over B's rows, whose rounding is at most about rows * eps times
    the largest eigenvalue (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., 3.5),
    so counted_values runs at B's shape.  An eigenvalue within RANK_MARGIN of its bound raises
    RankUndecidedError rather than fit to rounding.  The builders' G is diagonal with integer
    entries, so V is a signed permutation and G+ holds the reciprocals alone, on any BLAS kernel."""
    w, V = np.linalg.eigh(B.T @ B)
    # eigh sorts ascending, so the eigenvalues the rule drops come first
    dropped = len(w) - np.count_nonzero(counted_values(w[::-1], B.shape))
    V = V[:, dropped:]
    return (V / w[dropped:]) @ V.T


class _ClosurePlan(NamedTuple):
    """check_closure's sums over nonzero terms (_closure_plan): pair_sums groups for T1 and T2,
    whose outputs, the right-hand sides v, come in plan order, and for raw = B^T v, flat
    [K, (k, L)]; each of the first n_on outputs' flat place in its k-chunk's residual, and per
    chunk its outputs' slice and its columns of coeffs; the output count."""
    t1: tuple
    t2: tuple
    raw: tuple
    local: np.ndarray
    chunks: list
    n_on: int
    size: int


# check_closure's plans per algebra, one per nonzero pattern of a call's W:
# {that pattern as bytes: (the basis's nonzero rows, the plan or None)}.  f is
# read-only and dataclasses.replace makes a new instance, which is hashed by
# identity, so a plan cannot go stale, and it goes with its algebra.
_RHS_PLANS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _closure_plan(alg: SuperAlgebra, F: np.ndarray, W: np.ndarray):
    """The cached entry for the nonzero patterns of F and W, built on the first call with W's pattern
    (_build_closure_plan)."""
    plans = _RHS_PLANS.get(alg)
    if plans is None:
        plans = _RHS_PLANS[alg] = {}
    pattern = (W != 0).tobytes()
    entry = plans.get(pattern)
    if entry is None:
        entry = plans[pattern] = _build_closure_plan(alg, F, W)
    return entry


def _build_closure_plan(alg: SuperAlgebra, F: np.ndarray, W: np.ndarray):
    """The nonzero rows r = I dim + J of the basis F.reshape(dim^2, dim), which make B, and the
    _ClosurePlan, or None for the dense route: above PLAN_PAIRS products in either stage, as in
    check_jacobi.

    The coefficient v of x_I y_J in {G^k, G^L} is T1 - T2 with
        T1[k, I, J, L] = sum_M FtW[k, J, M] (-1)^{|I||M| + |J||L|} F[I, M, L]
        T2[k, I, J, L] = sum_M FW[k, I, M] F[M, J, L]
    over the dense first-stage products FtW[k] = F_k^T W and FW[k] = F_k W.
    Each term pairs a structural nonzero of FtW or FW (from the patterns of F
    and W) with a nonzero of F that shares M, with M ascending within each
    output, the order of a dot product over M.  The fit's raw = B^T v pairs
    each output (k, r, L) with each nonzero (r, K) of the basis, r ascending
    within each entry of raw.  The outputs on a nonzero row come first, in
    flat order and so grouped by k-chunk, then those on a zero row.  Only
    the patterns are read.
    """
    dim, odd = alg.dim, alg.odd_mask
    nz = np.flatnonzero(F)
    x0, x1, x2 = np.unravel_index(nz, F.shape)
    rows = np.flatnonzero(np.bincount(nz // dim, minlength=dim * dim))
    rows.flags.writeable = False
    Fb, Wb = (F != 0).astype(float), (W != 0).astype(float)
    # the patterns of FtW[k, J, M] and FW[k, I, M], each flat index ending in M
    ftw = np.flatnonzero(Fb.transpose(2, 1, 0) @ Wb)
    fw = np.flatnonzero(Fb.transpose(2, 0, 1) @ Wb)
    kj = ftw // dim
    # each factor's part of the output (k, I, J, L) = k dim^3 + I dim^2 + J dim + L
    built = pair_plan((((ftw % dim, kj // dim * dim ** 3 + kj % dim * dim), (x1, x0 * dim ** 2 + x2)),
                       ((fw % dim, fw // dim * dim ** 2), (x0, nz % dim ** 2))), dim)
    if built is None:
        return rows, None
    ((p1, q1), (p2, q2)), outputs, rank = built
    k, r = outputs // dim ** 3, outputs // dim % dim ** 2
    kl = k * dim + outputs % dim
    # each factor's part of raw's flat index K dim^2 + k dim + L
    raw_built = pair_plan((((r, kl), (nz // dim, nz % dim * dim ** 2)),), dim ** 2)
    if raw_built is None:
        return rows, None
    ((p3, q3),), raw_at, raw_rank = raw_built
    # each output's row of B, -1 on a zero row, and its place in plan order
    row_of = np.full(dim * dim, -1)
    row_of[rows] = np.arange(len(rows))
    at = row_of.take(r)
    order = np.argsort(at < 0, kind="stable")
    place = np.empty_like(order)
    place[order] = np.arange(len(order))
    n_on = int(np.count_nonzero(at >= 0))
    # (-1)^{|I||M| + |J||L|}: -1 where exactly one of the pairs is odd-odd
    flip = (odd.take(x0) & odd.take(x1)).take(q1) ^ (odd.take(kj % dim).take(p1) & odd.take(x2).take(q1))
    t1 = ftw.take(p1), nz.take(q1), 1.0 - 2.0 * flip, place.take(rank[:len(p1)])
    t2 = fw.take(p2), nz.take(q2), None, place.take(rank[len(p1):])
    t3 = place.take(p3), nz.take(q3), None, raw_at.take(raw_rank)
    # the residual of a k-chunk [k0, k0 + width) is (rows, width dim), [r, (k - k0, L)]
    step = stack_chunk((max(len(rows), 1), dim))
    k0 = k // step * step
    local = (at * np.minimum(step, dim - k0) * dim + kl - k0 * dim).take(order[:n_on])
    starts = np.searchsorted(k.take(order[:n_on]), np.arange(0, dim, step)).tolist() + [n_on]
    chunks = [(slice(b0, b1), slice(c * step * dim, (c + 1) * step * dim))
              for c, (b0, b1) in enumerate(zip(starts, starts[1:]))]
    for arr in (*t1, *t2, *t3, local):
        if arr is not None:
            arr.flags.writeable = False
    return rows, _ClosurePlan(t1, t2, t3, local, chunks, n_on, len(outputs))


def _rhs_sums(plan: _ClosurePlan, F: np.ndarray, FtW: np.ndarray, FW: np.ndarray) -> np.ndarray:
    """The right-hand sides at the plan's outputs, in plan order: T1's sums less T2's, each summed
    apart by pair_sums."""
    sums = pair_sums(FtW, F, plan.t1, plan.size)
    sums -= pair_sums(FW, F, plan.t2, plan.size)
    return sums


def _planned_fit(plan: _ClosurePlan, F: np.ndarray, FtW: np.ndarray, FW: np.ndarray, B: np.ndarray,
                 pinv: np.ndarray):
    """coeffs [K, (k, L)] and the largest residual from the plan's sums: raw = B^T v by pair_sums,
    coeffs = G+ raw, and B coeffs - v on B's nonzero rows, one k-chunk at a time, with each chunk's
    outputs subtracted at their places; an output on a zero row is its own residual."""
    dim = len(F)
    sums = _rhs_sums(plan, F, FtW, FW)
    coeffs = pinv @ pair_sums(sums, F, plan.raw, dim ** 3).reshape(dim, dim * dim)
    worst = np.abs(sums[plan.n_on:]).max(initial=0.0)
    for outs, cols in plan.chunks:
        res = B @ coeffs[:, cols]
        flat = res.reshape(-1)
        flat[plan.local[outs]] -= sums[outs]
        worst = max(worst, np.abs(flat, out=flat).max(initial=0.0))
    return coeffs, worst


def _dense_rhs(F: np.ndarray, FtW: np.ndarray, FW: np.ndarray, graded_sign: np.ndarray):
    """Each chunk's slice and its (chunk, dim^2, dim) right-hand sides from stacked matrix products,
    each slab's product as it would be done alone, so the result does not depend on the chunk size."""
    dim = len(F)
    F_rows = F.reshape(dim, dim * dim)                                     # [M, (N, L)]
    signed_rows = (graded_sign[:, :, None] * F).transpose(1, 0, 2).reshape(dim, dim * dim)
    step = stack_chunk((dim, dim, dim))     # slabs per chunk, one dim^3 rhs each
    for k0 in range(0, dim, step):
        ks = slice(k0, k0 + step)
        # coefficient of x_I y_J in {G^k, G^L}, indexed [k, I, J, L]
        rhs = (FtW[ks] @ signed_rows).reshape(-1, dim, dim, dim).transpose(0, 2, 1, 3).copy()
        rhs *= graded_sign
        rhs -= (FW[ks] @ F_rows).reshape(-1, dim, dim, dim)
        yield ks, rhs.reshape(-1, dim * dim, dim)


def _dense_fit(F: np.ndarray, FtW: np.ndarray, FW: np.ndarray, graded_sign: np.ndarray, rows: np.ndarray,
               B: np.ndarray, pinv: np.ndarray):
    """_planned_fit's coeffs and residual from _dense_rhs's chunks: the same G+ and the same residual
    rule, raw = B^T v and B coeffs - v on B's nonzero rows, and v on the zero rows as it is."""
    dim = len(F)
    zero_rows = np.ones(dim * dim, dtype=bool)
    zero_rows[rows] = False
    coeffs = np.empty((dim, dim, dim))
    worst = 0.0
    for ks, rhs in _dense_rhs(F, FtW, FW, graded_sign):
        v = rhs[:, rows].transpose(1, 0, 2).reshape(len(rows), -1)         # [r, (k, L)]
        fit = pinv @ (B.T @ v)
        coeffs[:, ks] = fit.reshape(dim, -1, dim)
        fit = B @ fit
        fit -= v
        worst = max(worst, np.abs(fit).max(initial=0.0), np.abs(rhs[:, zero_rows]).max(initial=0.0))
    return coeffs.reshape(dim, dim * dim), worst


def check_closure(alg: SuperAlgebra, tol: float = EXACT_TOL,
                  eta_override: np.ndarray | None = None) -> ClosureReport:
    """Brackets of the constraints close linearly onto the constraints.

    Works on the constraint tensor F.  Only {x_I, y_J} = W_IJ is nonzero,
    W = eta_even^-1 on the even block and C^-1 on the odd one, so by the
    graded Leibniz rule, with L the parity of G^L = F[M, N, L] x_M y_N,

        {x_I y_J, x_M y_N} = -W_JM x_I y_N + (-1)^{|J||L| + |M||N|} W_IN x_M y_J

    Each {G^k, .} slab's right-hand sides v, the coefficients of x_I y_J in
    {G^k, G^L}, are T1 - T2 over the first-stage products FtW[k] = F_k^T W
    and FW[k] = F_k W, two dense stacked matrix products (_build_closure_plan
    has the sums).  Each slab is fitted to the span of the G's, the columns
    of the basis F.reshape(dim^2, dim), by least squares through the Gram
    matrix G = B^T B of B, the basis's nonzero rows: coeffs = G+ B^T v, with
    G+ from one eigh of G under the one rank rule (_gram_pinv), so a
    rank-deficient basis gets the minimum-norm fit and an eigenvalue float64
    cannot place raises RankUndecidedError.  The residual B coeffs - v is
    taken on B's rows; a coefficient on a zero row of the basis is its own
    residual, as the fit is zero there.  The builders' B has orthogonal
    integer columns and their v is dyadic, so every step of their fit is
    exact and they read residuals 0.0 and kappa 1.0 on any BLAS kernel.
    For other f the fit rounds as lstsq's does, to within a few eps of the
    report's scale.

    While v's sums and B^T v have at most PLAN_PAIRS nonzero terms each, as
    for every build_osp algebra (at most 13,080 and 7,314, at osp(2|6)), they are
    taken over those terms alone by a plan over the nonzero patterns of F
    and of the call's W, built on the algebra's first call with that W
    pattern and kept for it in _RHS_PLANS, so a plain call and a diagonal
    detuning share one build in either order.  A call gathers the terms'
    factors, multiplies them with their signs, sums T1 and T2 apart by
    bincount, each output's terms in the order of a dot product over M,
    and sums B^T v over the outputs the same way.  On the dense route, as
    for a dense f above PLAN_PAIRS, v is built a chunk of slabs at a time
    by a few stacked matrix products over all dim^2 entries of a slab, and
    B^T v by one product.  Both routes' residuals run in k-chunks of at
    most STACK_BYTES, at least one slab; a batch of all dim slabs at once
    would hold dim^4 doubles.  In terms of the lowered G~_I = eta_IA G^A
    the induced coefficients (basis order) must reproduce (-1)^{|I||J|}
    f_IJ^K up to one global measured factor kappa; eta^-1 is the
    algebra's own W, built on every call.  A finite, symmetric,
    invertible, real n_even x n_even eta_override detunes the bracket to
    show the check has teeth; its W takes C^-1 from the own W.  A tol
    that is not finite and positive raises ValueError.
    """
    check_tolerance(tol)
    W = own = _inverse_forms(alg, alg.eta_even)
    if eta_override is not None:
        eta = real_array(eta_override, "eta_override")
        if eta.shape != alg.eta_even.shape:
            raise ValueError(f"eta_override has shape {eta.shape}, not {alg.eta_even.shape}")
        check_forms(eta, alg.eta_odd)
        W = _inverse_forms(alg, eta, "eta_override", own)
    F = constraint_tensor(alg)
    rows, plan = _closure_plan(alg, F, W)
    dim = F.shape[0]
    B = F.reshape(dim * dim, dim).take(rows, 0)
    pinv = _gram_pinv(B)
    # F_k.T @ W and F_k @ W for every slab k, each the same product as alone
    FtW = F.transpose(2, 1, 0) @ W
    FW = F.transpose(2, 0, 1) @ W
    if plan is None:
        coeffs, max_unexplained = _dense_fit(F, FtW, FW, alg.pair_signs, rows, B, pinv)
    else:
        coeffs, max_unexplained = _planned_fit(plan, F, FtW, FW, B, pinv)
    induced = coeffs.reshape(dim, dim, dim).transpose(1, 2, 0)      # [k, L, K]
    # compare in lowered form, eta_ia eta_jb induced[a, b, k] eta^-1_kl with
    # eta^-1 the own W, against the graded-signed structure constants
    lowered = (alg.eta @ (alg.eta @ (induced @ own)).reshape(dim, -1)).reshape(dim, dim, dim)
    target = alg.pair_signs[:, :, None] * alg.f
    denom = float(np.vdot(target, target))
    kappa = float(np.vdot(lowered, target) / denom) if denom else 0.0
    lowered -= kappa * target
    prop_residual = float(np.abs(lowered, out=lowered).max())
    return ClosureReport(dim=dim, kappa=kappa, max_unexplained=float(max_unexplained),
                         proportionality_residual=prop_residual, induced=induced, tol=tol)


# ----------------------------------------------------------------------
# fermionic-moduli criterion in the exponential sector
# ----------------------------------------------------------------------

@dataclass
class EfmReport:
    det: float
    rank: int
    moduli: int
    direction_is_null: bool

    def __str__(self) -> str:
        null = " (eta-null direction: bosonic bracket degenerates)" if self.direction_is_null else ""
        return f"fermion block: det={self.det:+.6g} rank={self.rank} moduli={self.moduli}{null}"


def exponential_sector_moduli(alg: SuperAlgebra, c: Sequence[float]) -> EfmReport:
    """det and rank of c^a f_{a alpha}^beta, with the moduli count attached.

    The direction is eta-null when |c eta^-1 c| is rounding next to its
    scale |c|^2 |eta^-1| (Frobenius norm), so the flag does not depend on
    the length of c.  Both quadratic forms take c scaled by the power of two
    that brings its largest entry into [1/2, 1), exactly, so neither form
    overflows or underflows with the length of c.
    """
    c_vec = alg.even_components(c)
    block = alg._ff_block(c_vec)
    det = float(np.linalg.det(block))
    rank = matrix_rank(block)
    eta_inv = np.linalg.inv(alg.eta_even)
    unit = np.ldexp(c_vec, -np.frexp(np.abs(c_vec).max(initial=0.0))[1])
    scale = float(unit @ unit) * np.linalg.norm(eta_inv)
    null = bool(abs(unit @ eta_inv @ unit) <= DEFECT_TOL * scale)
    return EfmReport(det=det, rank=rank, moduli=2 * (alg.n_odd - rank), direction_is_null=null)


# ----------------------------------------------------------------------
# gauge fixing in the homogeneous sector
# ----------------------------------------------------------------------

def _odd_constraint_rows(alg: SuperAlgebra, even_values: np.ndarray) -> np.ndarray:
    """G^alpha = F[a, beta, alpha] A_1^a psi_2^beta + F[beta, a, alpha] psi_1^beta A_2^a at the
    background even_values (A_1, then A_2): rows over the psi slots, each summed over a in order."""
    od = alg.odd_idx
    F = constraint_tensor(alg)[:, :, od]
    rows = np.zeros((alg.n_odd, 2 * alg.n_odd))
    for k, a in enumerate(alg.even_idx):
        rows += np.hstack([F[od, a].T * even_values[alg.n_even + k], F[a, od].T * even_values[k]])
    return rows


@dataclass
class GaugeFixingCheck:
    rank: int
    pairing_det: float
    pairing_ok: bool
    residual_constraint: float
    residual_ok: bool
    free_odd_coordinates: int

    @property
    def ok(self) -> bool:
        return self.pairing_ok and self.residual_ok


def gauge_fixing_check(alg: SuperAlgebra, c: Sequence[float],
                       chi_choice: Sequence[GradedPolynomial],
                       A_values: tuple[float, float] = (0.6, 0.8)) -> GaugeFixingCheck:
    """Test a fermionic gauge-fixing choice against the independent constraints.

    At the bosonic background A_k = cal_A_k * c the fermionic constraints
    reduce to linear forms in the psi's; the r independent ones are paired
    with the r gauge conditions through the odd bracket, and the leftover
    quadratic constraint is pulled back to the fixed surface.  Returns the
    pairing determinant, the surviving residual and the number of free odd
    coordinates (which equals 2(n_odd - r)).
    """
    ctx = PhaseSpace.from_algebra(alg)
    r = matrix_rank(alg.ff_block(c))
    if len(chi_choice) != r:
        raise ValueError(f"need exactly r = {r} gauge conditions, got {len(chi_choice)}")
    n_odd = ctx.n_odd
    slots = 2 * n_odd
    c_vec = alg.even_components(c)
    even_values = np.concatenate([A_values[0] * c_vec, A_values[1] * c_vec])

    def linear_form(poly: GradedPolynomial) -> np.ndarray:
        vec = np.zeros(slots)
        for (exps, mask), coeff in poly.terms.items():
            if mask.bit_count() != 1:
                raise ValueError("gauge conditions must be linear in the psi's")
            slot = mask.bit_length() - 1
            factor = coeff
            for s, e in enumerate(exps):
                factor *= float(even_values[s]) ** e
            vec[slot] += factor
        return vec

    g_rows = _odd_constraint_rows(alg, even_values)
    # r independent constraint rows via pivoted factorization, at most rank many
    picked: list[int] = []
    work = g_rows.copy()
    for _ in range(min(r, matrix_rank(g_rows))):
        norms = np.linalg.norm(work, axis=1)
        pick = int(np.argmax(norms))
        picked.append(pick)
        pivot = work[pick] / norms[pick] ** 2
        work = work - np.outer(work @ work[pick], pivot)
    g_ind = g_rows[picked]
    chi_rows = np.array([linear_form(p) for p in chi_choice]).reshape(len(chi_choice), slots)
    # odd-sector pairing of linear forms: u M v^T with the fundamental matrix
    M = ctx.odd_weights()
    if len(picked) < r:
        # the background degenerates the constraints themselves
        pairing_det, pairing_ok = 0.0, False
    else:
        pairing_det = float(np.linalg.det(g_ind @ M @ chi_rows.T))
        # a determinant test, not the rank rule, against the product of its
        # factors' norms, which bounds it: free of the background's scale
        scale = np.prod(np.linalg.norm(g_ind, axis=1) * np.linalg.norm(chi_rows, axis=1)) * np.linalg.norm(M, 2) ** r
        pairing_ok = bool(abs(pairing_det) > FORWARD_ROUNDING * np.finfo(float).eps * scale)
    # the fixed surface and the pulled-back quadratic constraint
    stacked = np.vstack([g_ind, chi_rows])
    # one factorization: the null space and, under the one rank rule, the rank
    _, svals, vt = np.linalg.svd(stacked)
    kernel = vt[np.count_nonzero(counted_values(svals, stacked.shape)):].T
    free = kernel.shape[1]
    # G^a restricted to the psi's: psi_1^alpha psi_2^beta F[alpha, beta, a]
    F_odd = constraint_tensor(alg)[np.ix_(alg.odd_idx, alg.odd_idx, alg.even_idx)]
    residual = 0.0
    for a in range(alg.n_even):
        quad = np.zeros((slots, slots))
        quad[:n_odd, n_odd:] = F_odd[:, :, a]
        pulled = kernel.T @ quad @ kernel
        anti = np.abs(pulled - pulled.T).max(initial=0.0) / 2.0
        residual = max(residual, float(anti))
    return GaugeFixingCheck(rank=r, pairing_det=pairing_det, pairing_ok=pairing_ok, residual_constraint=residual,
                            residual_ok=residual <= DEFECT_TOL, free_odd_coordinates=free)


# ----------------------------------------------------------------------
# the parabolic exponential sector of osp(1|2)
# ----------------------------------------------------------------------

@dataclass
class ExponentialSectorReport:
    bracket_a1_a2: float
    constraint_residual: float
    gauge_residual: float
    commutator_norms: list[float]
    invariants: list[float]          # p^2 + q^2 per sample point
    tol: float

    @property
    def passed(self) -> bool:
        return (
            self.constraint_residual <= self.tol
            and self.gauge_residual <= self.tol
            # generators of norm up to 2 pi: products of the holonomies reach
            # entries near 70, and their rounding grows with them
            and max(self.commutator_norms, default=0.0) <= 100 * DEFECT_TOL
        )


def osp12_exponential_sector(samples: int = 10, seed: int = 0) -> ExponentialSectorReport:
    """Canonical variables, constraints and holonomies of the parabolic sector.

    Uses a reduced phase space with a single even direction per cycle and
    unit pairing {cal_A_1, cal_A_2} = 1 (the direction itself is eta-null, so
    the pullback pairing would degenerate).  That pairing is the reduced
    space's convention, so bracket_a1_a2 is 1.0 and ``passed`` does not test
    it.  The two psi-linear conditions cal_A_1 psi_2 - cal_A_2 psi_1 = 0 make
    both fermions proportional to one odd modulus; the resulting holonomy
    pair exponentiates proportional algebra elements and commutes.
    """
    # {cal_A_1, cal_A_2}: the slots (1, 0) and (2, 0) of the reduced even pairing
    bracket_a1_a2 = PhaseSpace.create(np.array([[1.0]]), EPS_CYCLES).even_weights()[0, 1]

    alg = build_osp12()
    sigma_plus_dir, _ = OSP12_DIRECTIONS["parabolic"]
    rng = np.random.default_rng(seed)
    # a reference sample point plus a unit-circle sweep
    sweep = np.linspace(0.2, 2.8, samples - 1)
    p, q = np.array([(0.6, 0.8)] + [(np.cos(t), np.sin(t)) for t in sweep]).T
    # psi_2 = direction * scale * theta1, each point drawing its direction, then its scale
    psi2 = canonical(np.array([rng.uniform(-1.0, 1.0, 2) * rng.uniform(0.3, 1.0) for _ in p]))
    psi1 = canonical(psi2 * (p / q)[:, None])
    # both linear conditions A_1 psi_2 - A_2 psi_1 vanish here; one is the
    # constraint component, the other the derived gauge condition
    v = np.abs(canonical(psi2 * p[:, None] - psi1 * q[:, None])).max(axis=0)
    # the two holonomies' generators at every point over B_2, (points, 2, 4, 5)
    coeffs = np.zeros((len(p), 2, 4, alg.dim))
    coeffs[:, :, 0, :3] = (2 * np.pi * np.stack([p, q], axis=1))[:, :, None] * sigma_plus_dir
    coeffs[:, :, 1, 3:] = np.stack([psi1, psi2], axis=1) * (2 * np.pi)
    # every point's two holonomies in one stacked exponential, then the
    # commutators U1 U2 - U2 U1 in two stacked products
    U = graded_expm(alg.embed(canonical(coeffs)), alg.block_m)
    U1, U2 = U[:, 0], U[:, 1]
    comm = canonical(graded_matmul(U1, U2, alg.block_m) - graded_matmul(U2, U1, alg.block_m))
    commutator_norms = np.abs(comm).max(axis=(-3, -2, -1)).tolist()
    return ExponentialSectorReport(
        bracket_a1_a2=float(bracket_a1_a2),
        constraint_residual=float(v[0]),
        gauge_residual=float(v[1]),
        commutator_norms=commutator_norms,
        invariants=(p * p + q * q).tolist(),
        tol=DEFECT_TOL,
    )
