"""Even block-graded matrices over a Grassmann algebra.

A SuperMatrix of block dimensions (m, n) is an (m+n) x (m+n) matrix over B_N
split into blocks

    M = [[a,   xi],
         [chi, A ]]

with a (m x m) and A (n x n), on the even pattern: the diagonal blocks carry
even entries and the off-diagonal blocks odd ones, as the paper's holonomies
and osp(m|2n) elements do.  Odd matrices exist only as kernel arrays.

Storage is dense: one read-only coefficient array of shape (2^N, m+n, m+n),
axis 0 the monomial mask, so a product is one ``grassmann.graded_matmul``,
the inverse one ``graded_inverse`` and the exponential one ``graded_expm``,
each told m, so that they run on the split regular representation.
``from_coeffs`` is the validated constructor; it scans the pattern with
``grassmann.even_pattern``.  Every computation, the JSON wire format
included, reads and writes that array; the GrassmannElement entries
(``rows``, ``block``, ``repr``) are a presentation view built on demand.
The array functions under a SuperMatrix (the kernel, ``graded_expm``,
``supertranspose_coeffs``) also take stacks (..., 2^N, d, d) and give each
member its one-matrix result.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

# ExpmNotConvergedError, ParityPatternError and graded_expm are imported from here too
from .grassmann import (MAX_COEFFS, MAX_GENERATORS, ExpmNotConvergedError, GrassmannElement, ParityPatternError,
                        canonical, even_pattern, graded_expm, graded_inverse, graded_matmul, monomial_mask)

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

def real_array(x, name: str = "supermatrix coefficients") -> np.ndarray:
    """x as a float array, not copied if it is one; a complex one raises TypeError, naming it, instead
    of losing its imaginary part."""
    x = np.asarray(x)
    if np.iscomplexobj(x):
        raise TypeError(f"{name} must be real, got dtype {x.dtype}")
    return x.astype(float, copy=False)


def body_array(mat: np.ndarray, ngen: int) -> np.ndarray:
    """A real matrix as a coefficient array over B_ngen (body only)."""
    mat = real_array(mat)
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
def transpose_plan(m: int, d: int, graded: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """(index, sign) with (X^st F).flat = sign * X.flat[index], F = graded_form(m, d - m) if graded, else I."""
    form = graded_form(m, d - m) if graded else np.eye(d)
    j, k = np.nonzero(form.T)                        # column j's entry sits in row k
    assert np.array_equal(j, np.arange(d)) and np.all(np.abs(form[k, j]) == 1.0), "F needs one ±1 per column"
    block = np.arange(d) >= m
    # X^st[i, k] = t[i, k] X[k, i], t = -1 on the xi^T block
    t = (-1.0) ** (block[:, None] & ~block)
    index, sign = (k * d + np.arange(d)[:, None]).ravel(), (t[:, k] * form[k, j]).ravel()
    index.flags.writeable = sign.flags.writeable = False
    return index, sign


def signed_gather(x: np.ndarray, plan: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """sign * X.flat[index] for each (d, d) member X of x, plan = (index, sign) (see transpose_plan)."""
    return (np.take(x.reshape(*x.shape[:-2], plan[0].size), plan[0], axis=-1) * plan[1]).reshape(x.shape)


def supertranspose_coeffs(coeffs: np.ndarray, m: int) -> np.ndarray:
    """Graded transpose of a (..., 2^N, d, d) stack: (a, xi, chi, A) -> (a^T, chi^T, -xi^T, A^T)."""
    return canonical(signed_gather(coeffs, transpose_plan(m, coeffs.shape[-1])))


# ----------------------------------------------------------------------
# SuperMatrix
# ----------------------------------------------------------------------

class SuperMatrix:
    """Immutable even (m+n) x (m+n) matrix over B_N, built by from_coeffs, identity, from_body or JSON.

    ``coeffs`` is a read-only float array of shape (2^N, m+n, m+n) in
    canonical form (no coefficient below COEFF_CUTOFF); ``rows`` is the same
    matrix as GrassmannElement entries, built on first use.
    """

    __slots__ = ("m", "n", "ngen", "coeffs", "_rows")

    @classmethod
    def _wrap(cls, m: int, n: int, coeffs: np.ndarray) -> "SuperMatrix":
        """A SuperMatrix on a canonical array that already obeys the pattern."""
        out = object.__new__(cls)
        coeffs.flags.writeable = False
        for name, value in (("m", m), ("n", n), ("ngen", len(coeffs).bit_length() - 1),
                            ("coeffs", coeffs), ("_rows", None)):
            object.__setattr__(out, name, value)
        return out

    def __setattr__(self, *_):
        raise AttributeError("SuperMatrix is immutable")

    # ------------------------------------------------------------------
    @classmethod
    def from_coeffs(cls, m: int, n: int, coeffs: np.ndarray) -> "SuperMatrix":
        """From a (2^N, m+n, m+n) coefficient array on the even pattern (copied, then made canonical)."""
        size = len(coeffs)
        _check_dims(m, n, size.bit_length() - 1)
        if np.shape(coeffs) != (size, m + n, m + n) or size & (size - 1):
            raise ValueError(f"expected a (2^N, {m + n}, {m + n}) array, got shape {np.shape(coeffs)}")
        coeffs = canonical(np.array(real_array(coeffs)))
        even_pattern(m, coeffs)
        return cls._wrap(m, n, coeffs)

    @classmethod
    def identity(cls, m: int, n: int, ngen: int) -> "SuperMatrix":
        _check_dims(m, n, ngen)
        return cls._wrap(m, n, body_array(np.eye(m + n), ngen))

    @classmethod
    def from_body(cls, body: np.ndarray, m: int, n: int, ngen: int) -> "SuperMatrix":
        """A real (m+n, m+n) matrix over B_ngen; odd blocks have no body, so it must be block diagonal."""
        _check_dims(m, n, ngen)
        return cls.from_coeffs(m, n, body_array(body, ngen))

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

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------
    def _check_compatible(self, other: "SuperMatrix"):
        if (self.m, self.n, self.ngen) != (other.m, other.n, other.ngen):
            raise ValueError("supermatrix dimensions or generator counts differ")

    def __matmul__(self, other: "SuperMatrix") -> "SuperMatrix":
        self._check_compatible(other)
        # the split writes only the even pattern; above SPLIT_MAX every pair
        # landing on a wrong-parity cell has a vanishing factor
        return SuperMatrix._wrap(self.m, self.n, graded_matmul(self.coeffs, other.coeffs, self.m, check=False))

    def supertranspose(self) -> "SuperMatrix":
        """Graded transpose through ``supertranspose_coeffs``."""
        return SuperMatrix._wrap(self.m, self.n, supertranspose_coeffs(self.coeffs, self.m))

    def inverse(self) -> "SuperMatrix":
        """Two-sided inverse through ``graded_inverse``.

        The odd blocks have no body, so the body is block diagonal and the
        inverse exists exactly when both diagonal body blocks are invertible;
        its blocks then obey the Schur-complement formulas of the paper.  The
        body's inverse is block diagonal with exact zeros, and the split keeps
        the pattern exactly from there.
        """
        return SuperMatrix._wrap(self.m, self.n, graded_inverse(self.coeffs, self.m, check=False))

    def expm(self) -> "SuperMatrix":
        """exp(X) through ``graded_expm``."""
        return SuperMatrix._wrap(self.m, self.n, graded_expm(self.coeffs, self.m, check=False))

    # ------------------------------------------------------------------
    # comparisons / io
    # ------------------------------------------------------------------
    def __eq__(self, other) -> bool:
        if not isinstance(other, SuperMatrix):
            return NotImplemented
        return (self.m, self.n) == (other.m, other.n) and np.array_equal(self.coeffs, other.coeffs)

    def __hash__(self):
        return hash((self.m, self.n, self.coeffs.tobytes()))

    def __repr__(self) -> str:
        rows = ("  [" + ", ".join(map(repr, row)) + "]" for row in self.rows)
        return "\n".join([f"SuperMatrix(m={self.m}, n={self.n}, N={self.ngen})", *rows])

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
        _check_dims(m, n, ngen)
        d = m + n
        coeffs = np.zeros((1 << ngen, d, d))
        for entry in data["entries"]:
            i, j = _json_int(entry["row"], "row"), _json_int(entry["col"], "col")
            if not (0 <= i < d and 0 <= j < d):
                raise ValueError(f"entry ({i}, {j}) outside a {d}x{d} supermatrix")
            mask = monomial_mask([_json_int(g, "monomial index") for g in entry["monomial"]], ngen)
            coeffs[mask, i, j] += _json_number(entry["value"], "value")
        return cls.from_coeffs(m, n, coeffs)


def _json_int(value, name: str) -> int:
    """An integer field of the wire format: a float, string or bool raises ValueError."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _json_number(value, name: str) -> float:
    """A real field of the wire format: a string, bool or anything but an int or float raises ValueError."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(value)


def _check_dims(m: int, n: int, ngen: int):
    """The one validation of a SuperMatrix's sizes, run before anything is allocated."""
    if m < 0 or n < 0 or m + n == 0:
        raise ValueError(f"block sizes must be non-negative and not both zero, got ({m}, {n})")
    if not 0 <= ngen <= MAX_GENERATORS:
        raise ValueError(f"generator count must be in 0..{MAX_GENERATORS}, got {ngen}")
    if (m + n) ** 2 << ngen > MAX_COEFFS:
        raise ValueError(f"a ({m}|{n}) supermatrix over B_{ngen} holds {(m + n) ** 2 << ngen} coefficients, "
                         f"above MAX_COEFFS = {MAX_COEFFS}")
