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
axis 0 the monomial mask, so a product is one call of
``grassmann.graded_matmul``, the inverse one of ``grassmann.graded_inverse``
and the exponential one of ``grassmann.graded_expm`` on the whole matrix,
with m declaring the even pattern, so that they run on the split regular
representation.  Every computation, the
JSON wire format included, reads and writes that array; the GrassmannElement
entries (``rows``, ``block``, ``repr``) are a presentation view built on
demand.  A SuperMatrix is one matrix; the array
functions under it (the kernel, ``graded_expm``, ``supertranspose_coeffs``)
also take stacks (..., 2^N, d, d) and give each member its one-matrix result.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

import numpy as np

# ExpmNotConvergedError and graded_expm are imported from here too
from .grassmann import (MAX_GENERATORS, ExpmNotConvergedError, GrassmannElement, ParityPatternError,
                        canonical, graded_expm, graded_inverse, graded_matmul, monomial_mask, pattern_mask)

GMatrix = list[list[GrassmannElement]]


# ----------------------------------------------------------------------
# plain matrices of Grassmann elements: the row view, for presentation and
# for building test input; no computation reads it
# ----------------------------------------------------------------------

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


# ----------------------------------------------------------------------
# dense coefficient arrays (2^N, rows, cols)
# ----------------------------------------------------------------------

def _real(x) -> np.ndarray:
    """x as a float array; a complex one raises TypeError instead of losing its imaginary part."""
    x = np.asarray(x)
    if np.iscomplexobj(x):
        raise TypeError(f"supermatrix coefficients must be real, got dtype {x.dtype}")
    return x.astype(float)


def body_array(mat: np.ndarray, ngen: int) -> np.ndarray:
    """A real matrix as a coefficient array over B_ngen (body only)."""
    mat = _real(mat)
    out = np.zeros((1 << ngen, *mat.shape))
    out[0] = mat
    return canonical(out)


@lru_cache(maxsize=None)
def symplectic_form(two_n: int) -> np.ndarray:
    """C with C^T = -C and C^2 = -I; the 2x2 case is the epsilon matrix.  Cached, read-only."""
    half = two_n // 2
    C = np.zeros((two_n, two_n))
    C[:half, half:] = np.eye(half)
    C[half:, :half] = -np.eye(half)
    C.flags.writeable = False
    return C


def graded_form(m: int, two_n: int) -> np.ndarray:
    """The preserved form H = diag(I_m, C)."""
    H = np.zeros((m + two_n, m + two_n))
    H[:m, :m] = np.eye(m)
    H[m:, m:] = symplectic_form(two_n)
    return H


@lru_cache(maxsize=None)
def transpose_plan(m: int, d: int, parity: int = 0, graded: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """(index, sign) with (X^st F).flat = sign * X.flat[index], F = graded_form(m, d - m) if graded, else I."""
    form = graded_form(m, d - m) if graded else np.eye(d)
    j, k = np.nonzero(form.T)                        # column j's entry sits in row k
    assert np.array_equal(j, np.arange(d)) and np.all(np.abs(form[k, j]) == 1.0), "F needs one ±1 per column"
    block = np.arange(d) >= m
    # X^st[i, k] = t[i, k] X[k, i], t = -1 on the chi^T block (on the xi^T block for odd parity)
    t = (-1.0) ** ((block[:, None] != block) & (block[:, None] != bool(parity)))
    index, sign = (k * d + np.arange(d)[:, None]).ravel(), (t[:, k] * form[k, j]).ravel()
    index.flags.writeable = sign.flags.writeable = False
    return index, sign


def signed_gather(x: np.ndarray, plan: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """sign * X.flat[index] for each (d, d) member X of x, plan = (index, sign) (see transpose_plan)."""
    return (np.take(x.reshape(*x.shape[:-2], plan[0].size), plan[0], axis=-1) * plan[1]).reshape(x.shape)


def supertranspose_coeffs(coeffs: np.ndarray, m: int, parity: int = 0) -> np.ndarray:
    """Graded transpose of a (..., 2^N, d, d) stack: (a, xi, chi, A) -> (a^T, chi^T, -xi^T, A^T).

    On the odd parity pattern the off-diagonal signs flip, which is what
    makes (XY)^st = (-1)^{|X||Y|} Y^st X^st hold for both parities.
    """
    return canonical(signed_gather(coeffs, transpose_plan(m, coeffs.shape[-1], parity)))


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
        _check_blocks(m, n)
        d = m + n
        if len(rows) != d or any(len(r) != d for r in rows):
            raise ValueError(f"expected {d}x{d} entries")
        if ngen is None:
            if not d:
                raise ValueError("an empty (0|0) matrix takes its generator count from ngen")
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
        _check_blocks(m, n)
        coeffs = canonical(_real(coeffs))
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
        body = _real(body)
        if body.shape != (m + n, m + n):
            raise ValueError("body shape does not match block dimensions")
        if np.abs(body[:m, m:]).max(initial=0.0) > 0 or np.abs(body[m:, :m]).max(initial=0.0) > 0:
            raise ParityPatternError("real matrices must be block diagonal (odd blocks have no body)")
        return cls._wrap(m, n, body_array(body, ngen))

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
        # every pair landing on a wrong-parity cell has a vanishing factor;
        # an even product runs split, which writes only the even pattern
        even = None if self.parity or other.parity else self.m
        return SuperMatrix._wrap(self.m, self.n, graded_matmul(self.coeffs, other.coeffs, even, check=False),
                                 (self.parity + other.parity) % 2)

    def supertranspose(self) -> "SuperMatrix":
        """Graded transpose through ``supertranspose_coeffs``."""
        return SuperMatrix._wrap(self.m, self.n, supertranspose_coeffs(self.coeffs, self.m, self.parity),
                                 self.parity)

    def supertrace(self) -> np.ndarray:
        """Graded trace tr(a) - tr(A) (tr(a) + tr(A) on the odd pattern), a canonical (2^N,) array."""
        signs = np.where(np.arange(self.m + self.n) < self.m, 1.0, -1.0 if self.parity == 0 else 1.0)
        return canonical(np.diagonal(self.coeffs, axis1=1, axis2=2) @ signs)

    def inverse(self) -> "SuperMatrix":
        """Two-sided inverse through ``graded_inverse`` (even parity pattern only).

        The odd blocks have no body, so the body is block diagonal and the
        inverse exists exactly when both diagonal body blocks are invertible;
        its blocks then obey the Schur-complement formulas of the paper.
        """
        if self.parity != 0:
            raise ValueError("inverse requires the even parity pattern")
        # the inverse of a block-diagonal body is block diagonal with exact
        # zeros, and the split keeps the pattern exactly from there
        return SuperMatrix._wrap(self.m, self.n, graded_inverse(self.coeffs, self.m, check=False))

    def expm(self, max_terms: int = 80) -> "SuperMatrix":
        """exp(X) through ``graded_expm`` (even parity pattern only)."""
        if self.parity != 0:
            raise ValueError("expm requires the even parity pattern")
        return SuperMatrix._wrap(self.m, self.n, graded_expm(self.coeffs, self.m, max_terms, check=False))

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
        """Wire format: sparse entries keyed by (row, col, monomial indices), in that order."""
        entries = [{"row": int(i), "col": int(j),
                    "monomial": [g + 1 for g in range(self.ngen) if q >> g & 1],
                    "value": float(self.coeffs[q, i, j])}
                   for i, j, q in np.argwhere(self.coeffs.transpose(1, 2, 0))]
        return {"m": self.m, "n": self.n, "N": self.ngen, "entries": entries}

    @classmethod
    def from_json_dict(cls, data: dict) -> "SuperMatrix":
        m, n, ngen = (_json_int(data[key], key) for key in ("m", "n", "N"))
        _check_blocks(m, n)
        if not 0 <= ngen <= MAX_GENERATORS:
            raise ValueError(f"generator count must be in 0..{MAX_GENERATORS}, got {ngen}")
        d = m + n
        coeffs = np.zeros((1 << ngen, d, d))
        for entry in data["entries"]:
            i, j = _json_int(entry["row"], "row"), _json_int(entry["col"], "col")
            if not (0 <= i < d and 0 <= j < d):
                raise ValueError(f"entry ({i}, {j}) outside a {d}x{d} supermatrix")
            mask = monomial_mask([_json_int(g, "monomial index") for g in entry["monomial"]], ngen)
            coeffs[mask, i, j] += float(entry["value"])
        return cls.from_coeffs(m, n, coeffs)


def _json_int(value, name: str) -> int:
    """An integer field of the wire format: a float, string or bool raises ValueError."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _check_blocks(m: int, n: int):
    if m < 0 or n < 0:
        raise ValueError(f"block sizes must be non-negative, got ({m}, {n})")


def _check_pattern(m: int, n: int, coeffs: np.ndarray, parity: int):
    """Raise ParityPatternError at the first entry with a wrong-parity monomial."""
    off = pattern_mask(len(coeffs).bit_length() - 1, m + n, m) != bool(parity)
    bad = np.any((coeffs != 0.0) & off, axis=0)
    if bad.any():
        i, j = (int(v) for v in np.argwhere(bad)[0])
        want = ((i >= m) ^ (j >= m)) ^ parity
        raise ParityPatternError(
            f"entry ({i},{j}) must be parity {want}, "
            f"got {GrassmannElement.from_dense(coeffs[:, i, j])!r}"
        )


def commutator(x: SuperMatrix, y: SuperMatrix) -> SuperMatrix:
    return x @ y - y @ x

