"""Super Lie algebra data: structure constants, parities, bilinear form.

Algebras are built from explicit matrix representations (real supermatrix
bodies).  Structure constants come from projecting representation brackets
back onto the basis with the supertrace form, which is also stored as the
invariant bilinear form.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from types import MappingProxyType
from typing import Sequence

import numpy as np

from .grassmann import (DEFECT_TOL, EXACT_TOL, PLAN_PAIRS, canonical, grade_signs, graded_matmul, matrix_rank,
                        stack_chunk)
from .supermatrix import _json_number, graded_form, real_array, supertranspose_coeffs, symplectic_form

SIGMA0 = np.array([[0.0, 1.0], [-1.0, 0.0]])
SIGMA1 = np.array([[1.0, 0.0], [0.0, -1.0]])
SIGMA2 = np.array([[0.0, 1.0], [1.0, 0.0]])
SIGMA_PLUS = SIGMA0 + SIGMA2
# osp(1|2) abelian directions: coefficients c^a on the even generators
# (J0, J1, J2), where J0 carries -sigma0, and the sl(2) matrix they embed
OSP12_DIRECTIONS = {
    "so2": ((-1.0, 0.0, 0.0), SIGMA0),
    "hyperbolic": ((0.0, 1.0, 0.0), SIGMA1),
    "parabolic": ((-1.0, 0.0, 1.0), SIGMA_PLUS),
}
EPS2 = np.array([[0.0, 1.0], [-1.0, 0.0]])

# build_osp keeps the defining representation at desk scale: m + 2n <= this
MAX_OSP_SIZE = 8


@lru_cache(maxsize=None)
def _off_parity(n: int, parities: tuple[int, ...]) -> np.ndarray:
    """Flat positions in a (2^n, dim) coefficient table of the monomials whose parity differs from their
    generator's: a gather by them is cheaper than the boolean mask."""
    out = np.flatnonzero((grade_signs(n)[:, 0] < 0) != np.array(parities, dtype=bool))
    out.flags.writeable = False
    return out


def pair_signs(parities: Sequence[int]) -> np.ndarray:
    """(-1)^{|i||j|} for every pair of generators: -1 on odd-odd pairs."""
    p = np.asarray(parities)
    return np.where(np.outer(p, p) == 1, -1.0, 1.0)


def pair_plan(terms, size: int):
    """The products of nonzeros in a sum of terms, or None above PLAN_PAIRS of them.

    Each term is two factors, each given over its nonzeros as (key, out):
    key, in range(size), the index the two factors share and sum over, and
    out, the nonzero's part of the flat output index.  The pair count is
    read from the keys' counts alone, before any pair is listed.  Returns,
    per term, the positions (p, q) of every pair with key_a[p] == key_b[q],
    p ascending and q in key_b's stable order within p; then the sorted
    distinct outputs out_a[p] + out_b[q] and, over all the terms' pairs in
    order, each pair's rank among them, np.unique's (values, inverse).
    """
    counts = [np.bincount(key_b, minlength=size) for _, (key_b, _) in terms]
    reps = [c.take(key_a) for c, ((key_a, _), _) in zip(counts, terms)]
    if sum(int(r.sum()) for r in reps) > PLAN_PAIRS:
        return None
    pairs, outs = [], []
    for ((key_a, out_a), (key_b, out_b)), c, r in zip(terms, counts, reps):
        # each p's run of q starts at key_a[p]'s block of key_b's stable order
        block = np.cumsum(c) - c
        p, shift = np.repeat([np.arange(len(key_a)), block.take(key_a) - np.cumsum(r) + r], r, axis=1)
        q = np.argsort(key_b, kind="stable").take(shift + np.arange(len(p)))
        pairs.append((p, q))
        outs.append(out_a.take(p) + out_b.take(q))
    # outputs ranked by one stable sort: np.unique's sort kernels would add
    # about 0.3 MB of resident code
    out = np.concatenate(outs)
    order = np.argsort(out, kind="stable")
    ranked = out.take(order)
    new = np.concatenate((ranked[:1] >= 0, ranked[1:] != ranked[:-1]))
    rank = np.empty_like(out)
    rank[order] = np.cumsum(new) - 1
    return pairs, ranked[new], rank


def pair_sums(a: np.ndarray, b: np.ndarray, group, size: int) -> np.ndarray:
    """The (size,) sums over a pair plan's group (a_at, b_at, sign, rank) of a.flat[a_at] b.flat[b_at]
    sign, each output's pairs added in plan order by bincount; a group whose every sign is +1 holds
    None for them.  b is float: the products start from its gather, so an a that is bincount's
    int zeros of no pairs still multiplies in place."""
    a_at, b_at, sign, rank = group
    products = b.take(b_at)
    products *= a.take(a_at)   # x y is y x bit for bit
    if sign is not None:
        products *= sign       # by +-1, exact: -(x y) is (-x) y bit for bit
    return np.bincount(rank, products, size)


@dataclass
class JacobiReport:
    dim: int
    max_residual: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.tol

    def __str__(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return f"super Jacobi: dim={self.dim} max residual={self.max_residual:.3e} tol={self.tol:.1e} [{status}]"


def check_tolerance(tol: float):
    """Raise ValueError unless tol is finite and positive: an infinite one passes any input, NaN none."""
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError("tolerance must be finite and positive")


def check_forms(eta: np.ndarray, C: np.ndarray):
    """Raise ValueError unless eta and C are finite, eta symmetric and C antisymmetric."""
    if not (np.isfinite(eta).all() and np.isfinite(C).all()):
        raise ValueError("eta and C must be finite")
    if not (np.array_equal(eta, eta.T) and np.array_equal(C, -C.T)):
        raise ValueError("eta must be symmetric and C antisymmetric")


@dataclass(frozen=True, eq=False)
class SuperAlgebra:
    """Basis labels with parities, structure constants and bilinear form.

    Immutable, and equal only to itself: the constructor copies f, eta and rep
    into read-only float arrays (a complex one raises TypeError) and
    conventions into a read-only mapping, checks the forms (finite, eta
    symmetric on the even generators, antisymmetric on the odd ones and zero
    between the two) and derives the graded layout below once.  So a builder's cached instance can be shared, and
    ``dataclasses.replace`` makes a changed copy.  The graded antisymmetry of
    f is ``validate``'s, an explicit call.
    """

    labels: tuple[str, ...]
    parities: tuple[int, ...]
    f: np.ndarray            # f[I, J, K] with [T_I, T_J} = f_IJ^K T_K
    eta: np.ndarray          # invariant form; even block symmetric, odd block antisymmetric, no even-odd entry
    rep: tuple[np.ndarray, ...] | None = None
    block_m: int | None = None
    block_n: int | None = None   # size of the lower-right block (= 2n for osp(m|2n))
    conventions: Mapping = field(default_factory=dict)
    # the graded layout: even and odd generators in basis order, as index
    # arrays and as masks over the basis; (-1)^{|I||J|}; the eta blocks on
    # the even and on the odd generators (C); rep as (dim, d*d) for embed
    even_idx: np.ndarray = field(init=False, repr=False)
    odd_idx: np.ndarray = field(init=False, repr=False)
    even_mask: np.ndarray = field(init=False, repr=False)
    odd_mask: np.ndarray = field(init=False, repr=False)
    pair_signs: np.ndarray = field(init=False, repr=False)
    eta_even: np.ndarray = field(init=False, repr=False)
    eta_odd: np.ndarray = field(init=False, repr=False)
    generators: np.ndarray | None = field(init=False, repr=False)

    def __post_init__(self):
        dim, f, eta = len(self.labels), _frozen(real_array(self.f, "f")), _frozen(real_array(self.eta, "eta"))
        if dim == 0:
            raise ValueError("a super Lie algebra needs at least one generator")
        if len(self.parities) != dim:
            raise ValueError(f"parities has {len(self.parities)} entries for {dim} labels")
        if any(p not in (0, 1) for p in self.parities):
            raise ValueError("parities must be 0 or 1")
        if f.shape != (dim,) * 3 or eta.shape != (dim,) * 2:
            raise ValueError(f"f and eta have shapes {f.shape} and {eta.shape}, not {(dim,) * 3} and {(dim,) * 2}")
        if not (np.isfinite(f).all() and np.isfinite(eta).all()):
            raise ValueError("structure constants and eta must be finite")
        odd = _frozen(self.parities, bool)
        even = _frozen(~odd, bool)
        eta_even, eta_odd = _frozen(eta[np.ix_(even, even)]), _frozen(eta[np.ix_(odd, odd)])
        check_forms(eta_even, eta_odd)
        if eta[odd[:, None] != odd].any():
            raise ValueError("eta must vanish between even and odd generators")
        rep = None if self.rep is None else tuple(_frozen(real_array(mat, "rep")) for mat in self.rep)
        for name, value in dict(
                labels=tuple(self.labels), parities=tuple(map(int, self.parities)), f=f, eta=eta, rep=rep,
                conventions=_freeze(self.conventions), even_mask=even, odd_mask=odd,
                even_idx=_frozen(np.flatnonzero(even), int), odd_idx=_frozen(np.flatnonzero(odd), int),
                pair_signs=_frozen(pair_signs(self.parities)), eta_even=eta_even, eta_odd=eta_odd,
                generators=None if rep is None else _frozen(np.reshape(rep, (dim, rep[0].size)))).items():
            object.__setattr__(self, name, value)

    # ------------------------------------------------------------------
    @property
    def dim(self) -> int:
        return len(self.labels)

    @property
    def even_indices(self) -> list[int]:
        return self.even_idx.tolist()

    @property
    def odd_indices(self) -> list[int]:
        return self.odd_idx.tolist()

    @property
    def n_even(self) -> int:
        return len(self.even_idx)

    @property
    def n_odd(self) -> int:
        return len(self.odd_idx)

    # ------------------------------------------------------------------
    def validate(self):
        """Graded antisymmetry and parity selection rules of f; raises at the first
        failing (i, j) in row-major order, antisymmetry before the parity rule."""
        p = self.odd_mask
        anti = (np.abs(self.f + self.pair_signs[:, :, None] * self.f.transpose(1, 0, 2)) > EXACT_TOL).any(axis=2)
        odd = p[:, None, None] ^ p[None, :, None] ^ p[None, None, :]
        rule = odd & (np.abs(self.f) > EXACT_TOL)
        bad = anti | rule.any(axis=2)
        if bad.any():
            i, j = divmod(int(np.argmax(bad)), self.dim)
            if anti[i, j]:
                raise ValueError(f"graded antisymmetry violated at ({i},{j})")
            raise ValueError(f"parity selection rule violated at ({i},{j},{int(np.argmax(rule[i, j]))})")

    def _graded_coeffs(self, coeffs) -> np.ndarray:
        """coeffs as a float (..., 2^N, dim) array, axis -2 the monomial mask; TypeError for a complex
        one, ValueError for another shape, or at the first generator with a monomial of the other
        parity: coefficients must match their generators' parity, which keeps every term of the
        enveloping-algebra element even."""
        coeffs = real_array(coeffs, "coefficients")
        size = coeffs.shape[-2] if coeffs.ndim >= 2 else 0
        if coeffs.shape[-1:] != (self.dim,) or size < 1 or size & (size - 1):
            raise ValueError(f"expected a (..., 2^N, {self.dim}) coefficient array, got shape {coeffs.shape}")
        off = _off_parity(size.bit_length() - 1, self.parities)
        wrong = coeffs.reshape(-1, size * self.dim)[:, off].any(axis=0)
        if wrong.any():
            i = int((off[wrong] % self.dim).min())
            raise ValueError(f"coefficient {i} must have Grassmann parity {self.parities[i]}")
        return coeffs

    def bracket(self, x, y) -> np.ndarray:
        """Bilinear extension of f to coefficient vectors: real (dim,) vectors give the (dim,) abstract
        bracket of basis combinations, odd-odd pairs resolved by the anticommutator; Grassmann-valued
        (2^N, dim) arrays, checked as in embed, give the canonical (2^N, dim) array."""
        x, y = real_array(x, "coefficients"), real_array(y, "coefficients")
        if x.ndim == y.ndim == 1:
            return np.einsum("i,j,ijk->k", x, y, self.f)
        # every x_i y_j at once, (2^N, dim, dim), then contracted with f
        products = graded_matmul(self._graded_coeffs(x)[..., :, None], self._graded_coeffs(y)[..., None, :])
        return canonical(np.einsum("...qij,ijk->...qk", products, self.f))

    @cached_property
    def _jacobi_plan(self):
        """check_jacobi's pair plan over f's nonzero pattern, or None above PLAN_PAIRS pairs: the
        flat positions nz of f's nonzeros, one group of pairs over f.flat[nz] (pair_sums) and the
        output count.  Built once per algebra: f is read-only, and a changed copy is a new instance
        with its own plan."""
        f, dim = self.f, self.dim
        nz = np.flatnonzero(f)
        x0, x1, x2 = np.unravel_index(nz, f.shape)
        head = nz // dim
        # the terms f[j,k,l] f[i,l,m], f[i,j,l] f[l,k,m] and f[i,k,l] f[j,l,m], each factor's
        # part of the output (i, j, k, m) = i dim^3 + j dim^2 + k dim + m
        built = pair_plan((((x2, head * dim), (x1, x0 * dim ** 3 + x2)),
                           ((x2, head * dim ** 2), (x0, nz % dim ** 2)),
                           ((x2, x0 * dim ** 3 + x1 * dim), (x1, x0 * dim ** 2 + x2))), dim)
        if built is None:
            return None
        ((p1, q1), (p2, q2), (p3, q3)), outputs, rank = built
        # signs +1, -1 and -(-1)^{|i||j|}, which is -1 unless i and j are both odd
        odd = self.odd_mask
        sign = np.concatenate((np.ones(len(p1)), np.full(len(p2), -1.0),
                               np.where(odd.take(x0.take(p3)) & odd.take(x0.take(q3)), 1.0, -1.0)))
        group = np.concatenate((p1, p2, p3)), np.concatenate((q1, q2, q3)), sign, rank
        for arr in (nz, *group):
            arr.flags.writeable = False
        return nz, group, len(outputs)

    def check_jacobi(self, tol: float = EXACT_TOL) -> JacobiReport:
        """Residual of [X,[Y,Z}} - [[X,Y},Z} - (-1)^{|X||Y|}[Y,[X,Z}} on the basis.

        While f's nonzeros make at most PLAN_PAIRS products, the residual is
        taken over them alone, by the algebra's cached pair plan (pair_plan):
        each call gathers f's values and then each pair's factors, multiplies
        them with its sign and sums each entry r[i, j, k, m] over its pairs in
        plan order (pair_sums).  A builder's f holds 0, +-1, +-2 and +-4, so
        every sum is exact in any order.  Above that, as for a dense f, r is swept over i in chunks of
        at most STACK_BYTES of (dim, dim, dim) slabs, at least one slab, so no
        dim^4 array is allocated (10.7 MB at dim 34).  Each chunk is three
        matrix products, every entry of each one dot product over l.  A tol
        that is not finite and positive raises ValueError."""
        check_tolerance(tol)
        plan = self._jacobi_plan
        if plan is not None:
            nz, group, size = plan
            values = self.f.take(nz)
            sums = pair_sums(values, values, group, size)
            return JacobiReport(self.dim, float(np.abs(sums, out=sums).max(initial=0.0)), tol)
        f, dim = self.f, self.dim
        signs = self.pair_signs[:, :, None, None]
        step = stack_chunk((dim, dim, dim))
        worst = 0.0
        for i0 in range(0, dim, step):
            rows = slice(i0, i0 + step)
            # lhs[i,j,k,m] = f[j,k,l] f[i,l,m] minus rhs1[i,j,k,m] = f[i,j,l] f[l,k,m],
            # then minus the swapped lhs[j,i,k,m] = f[i,k,l] f[j,l,m] times (-1)^{|i||j|}
            residual = (f[rows].reshape(-1, dim) @ f.reshape(dim, dim * dim)).reshape(-1, dim, dim, dim)
            np.subtract((f.reshape(dim * dim, dim) @ f[rows]).reshape(residual.shape), residual, out=residual)
            swapped = f[rows, None] @ f
            swapped *= signs[rows]     # by +-1, exact: x - (-y) is x + y bit for bit
            residual -= swapped
            worst = max(worst, float(np.abs(residual, out=residual).max()))
        return JacobiReport(dim, worst, tol)

    def even_components(self, c: Sequence[float]) -> np.ndarray:
        """An even direction's components on the even generators.

        c is real, given either on the even generators or on the whole basis,
        where its odd components must vanish.
        """
        c = real_array(c, "direction")
        if not np.isfinite(c).all():
            raise ValueError("direction must be finite")
        if c.shape == (self.dim,):
            if np.abs(c[self.odd_mask]).max(initial=0.0) > 0:
                raise ValueError("direction must be supported on even generators")
            c = c[self.even_mask]
        if c.shape != (self.n_even,):
            raise ValueError("direction has wrong length")
        return c

    def ff_block(self, c: Sequence[float]) -> np.ndarray:
        """Fermion-fermion block of the adjoint action of an even direction.

        For c supported on the even generators returns the matrix
        J[alpha, beta] = sum_a c^a f[a, alpha, beta] acting on the odd basis.
        """
        return self._ff_block(self.even_components(c))

    def _ff_block(self, c: np.ndarray) -> np.ndarray:
        """ff_block of components c already checked by even_components."""
        od = self.odd_idx
        block = np.zeros((self.n_odd, self.n_odd))
        # f's (even, odd, odd) block in one gather, summed in generator order
        for ci, f_a in zip(c, self.f[np.ix_(self.even_idx, od, od)]):
            if ci:
                block += ci * f_a
        return block

    # ------------------------------------------------------------------
    def embed(self, coeffs) -> np.ndarray:
        """Enveloping-algebra elements sum_I coeffs[..., I] T_I of (..., 2^N, dim) coefficients, each
        of its generator's parity, as one product with the (dim, d*d) generators: the canonical
        (..., 2^N, d, d) array.  A builder's matrix entry is nonzero in at most two generators, by
        +-1 or +-2, so each entry is one rounding of two exact products, the same in any order."""
        if self.generators is None:
            raise ValueError("algebra carries no matrix representation")
        d = self.rep[0].shape[-1]
        out = self._graded_coeffs(coeffs) @ self.generators
        return canonical(out.reshape(*out.shape[:-1], d, d))

    # ------------------------------------------------------------------
    def to_json_dict(self) -> dict:
        def triples(arr):
            return [{"index": idx.tolist(), "value": float(arr[tuple(idx)])} for idx in np.argwhere(arr != 0)]

        return {"labels": list(self.labels), "parities": list(self.parities), "f": triples(self.f),
                "eta": triples(self.eta), "conventions": _thaw(self.conventions)}

    @classmethod
    def from_json_dict(cls, data: dict) -> "SuperAlgebra":
        """Inverse of to_json_dict; a repeated index sums its values, as SuperMatrix entries do, and
        malformed or inconsistent input, a value that is not an int or float included, raises ValueError."""
        labels, parities, arrays = tuple(data["labels"]), tuple(data["parities"]), {}
        dim = len(labels)
        for name, rank in (("f", 3), ("eta", 2)):
            arr = np.zeros((dim,) * rank)
            for entry in data[name]:
                idx = tuple(entry["index"])
                if len(idx) != rank or not all(isinstance(v, (int, np.integer)) and not isinstance(v, bool)
                                               and 0 <= v < dim for v in idx):
                    raise ValueError(f"{name} index {list(idx)} is not {rank} integers in [0, {dim})")
                arr[idx] += _json_number(entry["value"], f"{name} value")
            arrays[name] = arr
        alg = cls(labels=labels, parities=parities, f=arrays["f"], eta=arrays["eta"],
                  conventions=data.get("conventions", {}))
        alg.validate()
        return alg


# ----------------------------------------------------------------------
# structure-constant extraction
# ----------------------------------------------------------------------

def _structure_constants_from_rep(rep: Sequence[np.ndarray], parities: Sequence[int],
                                  m: int) -> tuple[np.ndarray, np.ndarray]:
    """f and the supertrace Gram matrix from representation matrices, in batched products:
    str(X R_l) = sum_ab X_ab (s R_l^T)_ab, s the supertrace signs; exact for integer entries."""
    R = np.asarray(rep, dtype=float)
    dim, d = R.shape[:2]
    flat = R.reshape(dim, d * d)
    W = (np.where(np.arange(d) < m, 1.0, -1.0)[:, None] * R.transpose(0, 2, 1)).reshape(dim, d * d)
    gram = flat @ W.T
    if matrix_rank(gram) < dim:
        raise ValueError("supertrace form is degenerate on this basis")
    # [x, y} on representation matrices: anticommutator only for odd-odd
    prod = R[:, None] @ R[None, :]
    br = (prod.transpose(1, 0, 2, 3) * -pair_signs(parities)[:, :, None, None]).reshape(dim * dim, d * d)
    br += prod.reshape(dim * dim, d * d)
    del prod   # at most two (dim, dim, d, d) stacks are alive at once
    f = np.ascontiguousarray(np.linalg.solve(gram.T, (br @ W.T).T).T).reshape(dim, dim, dim)
    # round-trip: the projected constants must reproduce every bracket
    miss = f.reshape(dim * dim, dim) @ flat
    miss -= br
    unclosed = np.abs(miss, out=miss).max(axis=1, initial=0.0) > DEFECT_TOL
    if unclosed.any():
        i, j = divmod(int(np.argmax(unclosed)), dim)
        raise ValueError(f"bracket ({i},{j}) does not close on the basis")
    return f, gram


# ----------------------------------------------------------------------
# osp(1|2) with the explicit 3x3 sigma-matrix representation
# ----------------------------------------------------------------------

def _osp12_relation_residual(rep, eps_scale: float) -> float:
    """Exactness of the three defining relation families for the five generators rep.

    Each family is one stack of residual matrices over all index pairs:
    (3, 3, 3, 3) for [J_a, J_b], (3, 2, 3, 3) for [J_a, Q_alpha] and
    (2, 2, 3, 3) for {Q_alpha, Q_beta}.
    """
    J, Q = np.array(rep[:3]), np.array(rep[3:])
    eta_inv = np.diag([-1.0, 1.0, 1.0])        # eta = diag(-1, 1, 1) is its own inverse
    sigmas = np.array([SIGMA0, SIGMA1, SIGMA2])
    eps = np.zeros((3, 3, 3))
    for a, b, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        eps[a, b, c], eps[b, a, c] = eps_scale, -eps_scale
    eps_up = eps @ eta_inv
    sigma_up = np.einsum("ab,bxy->axy", eta_inv, sigmas @ EPS2)
    JJ, JQ, QQ = J[:, None] @ J[None, :], J[:, None] @ Q[None, :], Q[:, None] @ Q[None, :]
    residuals = (
        JJ - JJ.transpose(1, 0, 2, 3) - np.einsum("abc,cij->abij", eps_up, J),
        JQ - Q[None, :] @ J[:, None] - np.einsum("axy,yij->axij", sigmas, Q),
        QQ + QQ.transpose(1, 0, 2, 3) - np.einsum("axy,aij->xyij", sigma_up, J),
    )
    return max(float(np.abs(r).max()) for r in residuals)


@lru_cache(maxsize=None)
def build_osp12() -> SuperAlgebra:
    """osp(1|2) from its 3x3 representation, verified against its defining relations.

    The result is cached and shared, which its immutability makes safe.

    The defining relations are
        [J_a, J_b]     = eps_ab^c J_c
        [J_a, Q_alpha] = (sigma_a)_alpha^beta Q_beta
        {Q_alpha, Q_beta} = (sigma^a)_alpha_beta J_a
    with indices moved by eta = diag(-1, 1, 1) and C = eps.  The generators
    are J_a = lam_a diag(0, sigma_a) and Q_alpha with column mu_alpha e_alpha
    and row -mu_alpha (C)_alpha.  The J's top-left entry must vanish (else
    {Q, Q} cannot close onto them); the J-Q relations force lam_1 = 1,
    lam_2 = -lam_0 = t and mu_2 = t mu_1 with t^2 = 1, and all three hold
    exactly, with eps_012 = 2, for t = 1 and either sign of mu_1 (t = -1
    leaves a residual of 4).  The convention is lam = (-1, 1, 1), mu = (1, 1),
    recorded in conventions; a residual above EXACT_TOL raises.
    """
    lam, mu = np.array([-1.0, 1.0, 1.0]), np.array([1.0, 1.0])
    rep = np.zeros((5, 3, 3))
    rep[:3, 1:, 1:] = lam[:, None, None] * np.array([SIGMA0, SIGMA1, SIGMA2])
    rep[3:, 0, 1:] = -mu[:, None] * EPS2
    rep[3:, 1:, 0] = mu[:, None] * np.eye(2)
    if _osp12_relation_residual(rep, eps_scale=2.0) > EXACT_TOL:
        raise RuntimeError("the osp(1|2) representation does not satisfy the defining relations exactly")
    parities = [0, 0, 0, 1, 1]
    f, gram = _structure_constants_from_rep(rep, parities, m=1)
    eta_target = np.zeros((5, 5))
    eta_target[:3, :3] = np.diag([-1.0, 1.0, 1.0])
    eta_target[3:, 3:] = EPS2
    # single global factor between the supertrace form and the target eta
    k = gram[0, 0] / eta_target[0, 0]
    if np.abs(gram - k * eta_target).max() > EXACT_TOL:
        raise RuntimeError("supertrace form is not proportional to the expected eta")
    alg = SuperAlgebra(
        labels=("J0", "J1", "J2", "Q1", "Q2"), parities=parities, f=f, eta=eta_target, rep=rep, block_m=1, block_n=2,
        conventions={
            "epsilon_012": 2.0,
            "supertrace_normalization": float(k),
            "J_scale": lam.tolist(),
            "Q_scale": mu.tolist(),
            "sigma_upper": "eta^{ab} (sigma_b C)_{alpha beta}",
            "C_12": 1.0,
        },
    )
    alg.validate()
    return alg


# ----------------------------------------------------------------------
# general osp(m|2n)
# ----------------------------------------------------------------------

@lru_cache(maxsize=None)
def build_osp(m: int, n: int) -> SuperAlgebra:
    """osp(m|2n) as all X with X^st H + H X = 0, H = diag(I_m, C_2n).

    The condition splits into: a antisymmetric (so(m)), A^T C + C A = 0
    (sp(2n)) and xi = -chi^T C with chi free, so the dimensions are
    m(m-1)/2 + n(2n+1) even and 2mn odd generators.  Cached and shared,
    which its immutability makes safe.
    """
    if m < 1 or n < 1:
        raise ValueError("need m >= 1 and n >= 1")
    if m + 2 * n > MAX_OSP_SIZE:
        raise ValueError(f"desk-scale builder capped at m + 2n <= {MAX_OSP_SIZE}")
    two_n = 2 * n
    d = m + two_n
    C = symplectic_form(two_n)
    gens: list[tuple[str, int, np.ndarray]] = []
    # so(m) block
    for i in range(m):
        for j in range(i + 1, m):
            mat = np.zeros((d, d))
            mat[i, j], mat[j, i] = 1.0, -1.0
            gens.append((f"J(o{i}{j})", 0, mat))
    # sp(2n) block: A = C S with S symmetric
    for k in range(two_n):
        for l in range(k, two_n):
            S = np.zeros((two_n, two_n))
            S[k, l] += 1.0
            S[l, k] += 1.0
            mat = np.zeros((d, d))
            mat[m:, m:] = C @ S
            gens.append((f"J(sp{k}{l})", 0, mat))
    # odd generators: chi = E_{ji}, xi = -chi^T C
    for i in range(m):
        for j in range(two_n):
            chi = np.zeros((two_n, m))
            chi[j, i] = 1.0
            mat = np.zeros((d, d))
            mat[m:, :m] = chi
            mat[:m, m:] = -chi.T @ C
            gens.append((f"Q({j}{i})", 1, mat))
    labels, parities, rep = zip(*gens)
    expected_even = m * (m - 1) // 2 + n * (2 * n + 1)
    assert parities.count(0) == expected_even and parities.count(1) == 2 * m * n
    R = np.array(rep)
    H = graded_form(m, two_n)
    if np.abs(supertranspose_coeffs(R, m) @ H + H @ R).max() > EXACT_TOL:
        raise RuntimeError("generator fails the tangency condition")
    f, gram = _structure_constants_from_rep(R, parities, m=m)
    alg = SuperAlgebra(labels=labels, parities=parities, f=f, eta=gram, rep=rep, block_m=m, block_n=two_n,
                       conventions={"eta": "supertrace Gram matrix", "C": "block off-diagonal (0, I; -I, 0)"})
    alg.validate()
    return alg


def _frozen(values, dtype=float) -> np.ndarray:
    """A read-only copy: no caller can change an algebra's array for the others."""
    arr = np.array(values, dtype=dtype)
    arr.flags.writeable = False
    return arr


def _freeze(value):
    """A read-only copy of JSON-like data: mappings become read-only mappings, lists tuples."""
    if isinstance(value, Mapping):
        return MappingProxyType({k: _freeze(v) for k, v in value.items()})
    return tuple(map(_freeze, value)) if isinstance(value, (list, tuple)) else value


def _thaw(value):
    """_freeze undone, with mapping keys sorted, as JSON writes it."""
    if isinstance(value, Mapping):
        return {k: _thaw(v) for k, v in sorted(value.items())}
    return list(map(_thaw, value)) if isinstance(value, tuple) else value
