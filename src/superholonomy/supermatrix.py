"""Block-graded matrices over a Grassmann algebra.

A SuperMatrix of block dimensions (m, n) is an (m+n) x (m+n) matrix of
GrassmannElement entries split into blocks

    M = [[a,   xi],
         [chi, A ]]

with a (m x m) and A (n x n).  In the default (even) parity pattern the
diagonal blocks carry even entries and the off-diagonal blocks odd entries;
the odd pattern swaps the roles and exists so that graded identities such as
(XY)^st = (-1)^{|X||Y|} Y^st X^st can be exercised on both parities.

Storage is dense: one read-only coefficient array of shape (2^N, m+n, m+n),
axis 0 the monomial mask, so a product is one call of the graded kernel
``grassmann.graded_matmul`` and the inverse one call of
``grassmann.graded_inverse`` on the whole matrix.  The GrassmannElement
entries are a view built on demand.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .grassmann import (MAX_GENERATORS, GrassmannElement, canonical, grade_signs, graded_inverse,
                        graded_matmul)

GMatrix = list[list[GrassmannElement]]


class ParityPatternError(ValueError):
    """An entry violates the block parity pattern."""


class ExpmNotConvergedError(ArithmeticError):
    """The Taylor series of an exponential did not reach its cutoff in time."""


# the Taylor sum stops at a term below this: an exact zero for a SuperMatrix
# (COEFF_CUTOFF drops its coefficients), far under rounding for a real matrix
TAYLOR_CUTOFF = 1e-22


# ----------------------------------------------------------------------
# plain matrices of Grassmann elements (the row view of blocks)
# ----------------------------------------------------------------------

def gmat_zero(rows: int, cols: int, n: int) -> GMatrix:
    z = GrassmannElement.zero(n)
    return [[z for _ in range(cols)] for _ in range(rows)]


def gmat_from_real(mat: np.ndarray, n: int) -> GMatrix:
    return [[GrassmannElement.scalar(float(v), n) for v in row] for row in np.asarray(mat, dtype=float)]


def gmat_to_array(x: GMatrix, n: int) -> np.ndarray:
    """Dense (2^n, rows, cols) coefficient array of a Grassmann matrix."""
    out = np.zeros((1 << n, len(x), len(x[0]) if x else 0))
    for i, row in enumerate(x):
        for j, e in enumerate(row):
            if e.terms:
                out[list(e.terms), i, j] = list(e.terms.values())
    return out


def array_to_gmat(coeffs: np.ndarray) -> GMatrix:
    """Grassmann matrix of a canonical (2^n, rows, cols) coefficient array."""
    return [[GrassmannElement.from_dense(coeffs[:, i, j]) for j in range(coeffs.shape[2])]
            for i in range(coeffs.shape[1])]


def gmat_mul(x: GMatrix, y: GMatrix) -> GMatrix:
    n = x[0][0].n
    return array_to_gmat(graded_matmul(gmat_to_array(x, n), gmat_to_array(y, n)))


def gmat_max_abs(x: GMatrix) -> float:
    return max((e.max_abs() for row in x for e in row), default=0.0)


# ----------------------------------------------------------------------
# dense coefficient arrays (2^N, rows, cols)
# ----------------------------------------------------------------------

def body_array(mat: np.ndarray, ngen: int) -> np.ndarray:
    """A real matrix as a coefficient array over B_ngen (body only)."""
    mat = np.asarray(mat, dtype=float)
    out = np.zeros((1 << ngen, *mat.shape))
    out[0] = mat
    return canonical(out)


def scaling_squaring_expm(x, identity, body: np.ndarray, size, max_terms: int = 80):
    """exp(x) by scaling and squaring around a Taylor kernel.

    x is a real square array or an even SuperMatrix (anything with ``@``,
    ``+`` and scalar ``*``), body its real part and size(t) the largest
    absolute coefficient of t.  x is scaled by 2^-s until the 1-norm of the
    body is at most 1/2, the series is summed until a term falls below
    TAYLOR_CUTOFF, and the sum is squared s times (Higham, SIAM J. Matrix Anal.
    Appl. 26, 2005).  Soul parts are nilpotent, so they only lengthen the
    series by finitely many orders.  Raises ExpmNotConvergedError when
    max_terms terms do not reach the cutoff.
    """
    norm = float(np.abs(body).sum(axis=0).max(initial=0.0))
    squarings = math.ceil(math.log2(norm / 0.5)) if norm > 0.5 else 0
    x = x * (0.5 ** squarings)
    acc = term = identity
    for k in range(1, max_terms + 1):
        term = (term @ x) * (1.0 / k)
        if size(term) < TAYLOR_CUTOFF:
            break
        acc = acc + term
    else:
        raise ExpmNotConvergedError(
            f"Taylor terms still above {TAYLOR_CUTOFF:g} after {max_terms} terms"
        )
    for _ in range(squarings):
        acc = acc @ acc
    return acc


# ----------------------------------------------------------------------
# SuperMatrix
# ----------------------------------------------------------------------

class SuperMatrix:
    """Immutable (m+n) x (m+n) matrix over B_N with a graded block pattern.

    ``coeffs`` is a read-only float array of shape (2^N, m+n, m+n) in
    canonical form (no coefficient below COEFF_CUTOFF); ``rows`` is the same
    matrix as GrassmannElement entries, built on first use.
    """

    __slots__ = ("m", "n", "ngen", "parity", "coeffs", "_rows")

    def __init__(self, m: int, n: int, rows: Sequence[Sequence[GrassmannElement]],
                 parity: int = 0, ngen: int | None = None):
        d = m + n
        if len(rows) != d or any(len(r) != d for r in rows):
            raise ValueError(f"expected {d}x{d} entries")
        if ngen is None:
            ngen = rows[0][0].n
        if any(e.n != ngen for row in rows for e in row):
            raise ValueError("mixed generator counts among entries")
        coeffs = gmat_to_array(rows, ngen)
        _check_pattern(m, n, coeffs, parity)
        self._set(m, n, coeffs, parity)

    def _set(self, m, n, coeffs, parity):
        coeffs.flags.writeable = False
        for name, value in (("m", m), ("n", n), ("ngen", len(coeffs).bit_length() - 1),
                            ("parity", parity), ("coeffs", coeffs), ("_rows", None)):
            object.__setattr__(self, name, value)

    @classmethod
    def _wrap(cls, m: int, n: int, coeffs: np.ndarray, parity: int = 0) -> "SuperMatrix":
        """A SuperMatrix on a canonical array that already obeys the pattern."""
        out = object.__new__(cls)
        out._set(m, n, coeffs, parity)
        return out

    def __setattr__(self, *_):
        raise AttributeError("SuperMatrix is immutable")

    # ------------------------------------------------------------------
    @classmethod
    def from_coeffs(cls, m: int, n: int, coeffs: np.ndarray, parity: int = 0) -> "SuperMatrix":
        """From a (2^N, m+n, m+n) coefficient array (copied, then made canonical)."""
        coeffs = canonical(np.array(coeffs, dtype=float))
        size = len(coeffs)
        if (coeffs.shape != (size, m + n, m + n) or size < 1 or size & (size - 1)
                or size.bit_length() - 1 > MAX_GENERATORS):
            raise ValueError(f"expected a (2^N, {m + n}, {m + n}) array with "
                             f"N <= {MAX_GENERATORS}, got shape {coeffs.shape}")
        _check_pattern(m, n, coeffs, parity)
        return cls._wrap(m, n, coeffs, parity)

    @classmethod
    def identity(cls, m: int, n: int, ngen: int) -> "SuperMatrix":
        return cls._wrap(m, n, body_array(np.eye(m + n), ngen))

    @classmethod
    def zero(cls, m: int, n: int, ngen: int) -> "SuperMatrix":
        return cls._wrap(m, n, np.zeros((1 << ngen, m + n, m + n)))

    @classmethod
    def from_body(cls, body: np.ndarray, m: int, n: int, ngen: int) -> "SuperMatrix":
        body = np.asarray(body, dtype=float)
        if body.shape != (m + n, m + n):
            raise ValueError("body shape does not match block dimensions")
        if np.abs(body[:m, m:]).max(initial=0.0) > 0 or np.abs(body[m:, :m]).max(initial=0.0) > 0:
            raise ParityPatternError("real matrices must be block diagonal (odd blocks have no body)")
        return cls._wrap(m, n, body_array(body, ngen))

    @classmethod
    def from_blocks(cls, a: GMatrix, xi: GMatrix, chi: GMatrix, A: GMatrix,
                    parity: int = 0) -> "SuperMatrix":
        m, n = len(a), len(A)
        rows = [list(a[i]) + list(xi[i]) for i in range(m)]
        rows += [list(chi[i]) + list(A[i]) for i in range(n)]
        return cls(m, n, rows, parity=parity)

    # ------------------------------------------------------------------
    # block access
    # ------------------------------------------------------------------
    @property
    def rows(self) -> tuple[tuple[GrassmannElement, ...], ...]:
        if self._rows is None:
            object.__setattr__(self, "_rows", tuple(map(tuple, array_to_gmat(self.coeffs))))
        return self._rows

    def block_coeffs(self, name: str) -> np.ndarray:
        """Read-only coefficient array of the block a, xi, chi or A."""
        head, tail = slice(0, self.m), slice(self.m, self.m + self.n)
        spans = {"a": (head, head), "xi": (head, tail), "chi": (tail, head), "A": (tail, tail)}
        rs, cs = spans[name]
        return self.coeffs[:, rs, cs]

    def block(self, name: str) -> GMatrix:
        return array_to_gmat(self.block_coeffs(name))

    def body(self) -> np.ndarray:
        return self.coeffs[0].copy()

    def body_blocks(self) -> tuple[np.ndarray, np.ndarray]:
        b = self.body()
        return b[: self.m, : self.m], b[self.m :, self.m :]

    def max_abs(self) -> float:
        return float(np.abs(self.coeffs).max(initial=0.0))

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------
    def _check_compatible(self, other: "SuperMatrix"):
        if (self.m, self.n, self.ngen) != (other.m, other.n, other.ngen):
            raise ValueError("supermatrix dimensions or generator counts differ")

    def _same_pattern(self, other: "SuperMatrix"):
        self._check_compatible(other)
        if self.parity != other.parity:
            raise ParityPatternError("cannot add matrices of different parity")

    def __add__(self, other: "SuperMatrix") -> "SuperMatrix":
        self._same_pattern(other)
        return SuperMatrix._wrap(self.m, self.n, canonical(self.coeffs + other.coeffs), self.parity)

    def __sub__(self, other: "SuperMatrix") -> "SuperMatrix":
        self._same_pattern(other)
        return SuperMatrix._wrap(self.m, self.n, canonical(self.coeffs - other.coeffs), self.parity)

    def __mul__(self, scalar) -> "SuperMatrix":
        if not isinstance(scalar, (int, float)):
            return NotImplemented
        return SuperMatrix._wrap(self.m, self.n, canonical(self.coeffs * scalar), self.parity)

    __rmul__ = __mul__

    def __matmul__(self, other: "SuperMatrix") -> "SuperMatrix":
        self._check_compatible(other)
        # block parity adds mod 2, and the kernel keeps the pattern exactly:
        # every pair landing on a wrong-parity cell has a vanishing factor
        return SuperMatrix._wrap(self.m, self.n, graded_matmul(self.coeffs, other.coeffs),
                                 (self.parity + other.parity) % 2)

    def supertranspose(self) -> "SuperMatrix":
        """Graded transpose: blocks (a, xi, chi, A) -> (a^T, chi^T, -xi^T, A^T).

        On the odd parity pattern the off-diagonal signs flip, which is what
        makes (XY)^st = (-1)^{|X||Y|} Y^st X^st hold for both parities.
        """
        sign = -1.0 if self.parity else 1.0
        m = self.m
        out = self.coeffs.transpose(0, 2, 1).copy()
        out[:, :m, m:] *= sign
        out[:, m:, :m] *= -sign
        return SuperMatrix._wrap(m, self.n, canonical(out), self.parity)

    def supertrace(self) -> GrassmannElement:
        """Graded trace tr(a) - tr(A) (tr(a) + tr(A) on the odd pattern)."""
        sign = -1.0 if self.parity == 0 else 1.0
        out = GrassmannElement.zero(self.ngen)
        for i in range(self.m):
            out = out + self.rows[i][i]
        for i in range(self.m, self.m + self.n):
            out = out + self.rows[i][i] * sign
        return out

    def inverse(self) -> "SuperMatrix":
        """Two-sided inverse through ``graded_inverse`` (even parity pattern only).

        The odd blocks have no body, so the body is block diagonal and the
        inverse exists exactly when both diagonal body blocks are invertible;
        its blocks then obey the Schur-complement formulas of the paper.
        """
        if self.parity != 0:
            raise ValueError("inverse requires the even parity pattern")
        # the inverse of a block-diagonal body is block diagonal with exact
        # zeros, and the kernel keeps the pattern exactly from there
        return SuperMatrix._wrap(self.m, self.n, graded_inverse(self.coeffs))

    def expm(self, max_terms: int = 80) -> "SuperMatrix":
        """exp(X) through scaling_squaring_expm (even parity pattern only)."""
        if self.parity != 0:
            raise ValueError("expm requires the even parity pattern")
        return scaling_squaring_expm(self, SuperMatrix.identity(self.m, self.n, self.ngen),
                                     self.body(), SuperMatrix.max_abs, max_terms)

    # ------------------------------------------------------------------
    # comparisons / io
    # ------------------------------------------------------------------
    def diff(self, other: "SuperMatrix") -> float:
        """Largest absolute coefficient of self - other."""
        return (self - other).max_abs()

    def __eq__(self, other) -> bool:
        if not isinstance(other, SuperMatrix):
            return NotImplemented
        return ((self.m, self.n, self.parity) == (other.m, other.n, other.parity)
                and np.array_equal(self.coeffs, other.coeffs))

    def __hash__(self):
        return hash((self.m, self.n, self.parity, self.coeffs.tobytes()))

    def __repr__(self) -> str:
        d = self.m + self.n
        lines = [f"SuperMatrix(m={self.m}, n={self.n}, N={self.ngen})"]
        for i in range(d):
            lines.append("  [" + ", ".join(repr(e) for e in self.rows[i]) + "]")
        return "\n".join(lines)

    def to_json_dict(self) -> dict:
        """Wire format: sparse entries keyed by (row, col, monomial indices)."""
        entries = []
        for i, row in enumerate(self.rows):
            for j, e in enumerate(row):
                for idx, coeff in e.monomials():
                    entries.append(
                        {"row": i, "col": j, "monomial": list(idx), "value": coeff}
                    )
        return {"m": self.m, "n": self.n, "N": self.ngen, "entries": entries}

    @classmethod
    def from_json_dict(cls, data: dict) -> "SuperMatrix":
        m, n, ngen = int(data["m"]), int(data["n"]), int(data["N"])
        d = m + n
        terms: list[list[dict[int, float]]] = [[{} for _ in range(d)] for _ in range(d)]
        for entry in data["entries"]:
            i, j = int(entry["row"]), int(entry["col"])
            if not (0 <= i < d and 0 <= j < d):
                raise ValueError(f"entry ({i}, {j}) outside a {d}x{d} supermatrix")
            (mask,) = GrassmannElement.monomial([int(g) for g in entry["monomial"]], ngen).terms
            terms[i][j][mask] = terms[i][j].get(mask, 0.0) + float(entry["value"])
        rows = [[GrassmannElement(ngen, t) for t in row] for row in terms]
        return cls(m, n, rows, ngen=ngen)


def _check_pattern(m: int, n: int, coeffs: np.ndarray, parity: int):
    """Raise ParityPatternError at the first entry with a wrong-parity monomial."""
    upper = np.arange(m + n) >= m
    want = (upper[:, None] ^ upper[None, :]) ^ bool(parity)
    odd = grade_signs(len(coeffs).bit_length() - 1) < 0
    bad = np.any((coeffs != 0.0) & (odd != want), axis=0)
    if bad.any():
        i, j = (int(v) for v in np.argwhere(bad)[0])
        want = ((i >= m) ^ (j >= m)) ^ parity
        raise ParityPatternError(
            f"entry ({i},{j}) must be parity {want}, "
            f"got {GrassmannElement.from_dense(coeffs[:, i, j])!r}"
        )


def commutator(x: SuperMatrix, y: SuperMatrix) -> SuperMatrix:
    return x @ y - y @ x


def random_supermatrix(rng, m: int, n: int, ngen: int, parity: int = 0,
                       scale: float = 1.0) -> SuperMatrix:
    """Random homogeneous-parity supermatrix for property sweeps."""
    from .grassmann import random_element

    d = m + n
    rows = []
    for i in range(d):
        row = []
        for j in range(d):
            want = ((i >= m) ^ (j >= m)) ^ parity
            row.append(random_element(rng, ngen, parity=want, scale=scale))
        rows.append(row)
    return SuperMatrix(m, n, rows, parity=parity, ngen=ngen)
