"""Block-graded matrices over a Grassmann algebra.

A SuperMatrix of block dimensions (m, n) is an (m+n) x (m+n) matrix of
GrassmannElement entries split into blocks

    M = [[a,   xi],
         [chi, A ]]

with a (m x m) and A (n x n).  In the default (even) parity pattern the
diagonal blocks carry even entries and the off-diagonal blocks odd entries;
the odd pattern swaps the roles and exists so that graded identities such as
(XY)^st = (-1)^{|X||Y|} Y^st X^st can be exercised on both parities.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .grassmann import GrassmannElement, graded_dot

GMatrix = list[list[GrassmannElement]]


class ParityPatternError(ValueError):
    """An entry violates the block parity pattern."""


class ExpmNotConvergedError(ArithmeticError):
    """The Taylor series of an exponential did not reach its cutoff in time."""


# the Taylor sum stops at a term below this: an exact zero for a SuperMatrix
# (COEFF_CUTOFF drops its coefficients), far under rounding for a real matrix
TAYLOR_CUTOFF = 1e-22


# ----------------------------------------------------------------------
# plain matrices of Grassmann elements (used for block manipulations)
# ----------------------------------------------------------------------

def gmat_zero(rows: int, cols: int, n: int) -> GMatrix:
    z = GrassmannElement.zero(n)
    return [[z for _ in range(cols)] for _ in range(rows)]


def gmat_from_real(mat: np.ndarray, n: int) -> GMatrix:
    return [[GrassmannElement.scalar(float(v), n) for v in row] for row in np.asarray(mat, dtype=float)]


def gmat_mul(x: GMatrix, y: GMatrix) -> GMatrix:
    n = x[0][0].n
    cols = list(zip(*y))
    return [[graded_dot(row, col, n) for col in cols] for row in x]


def gmat_transpose(x: GMatrix) -> GMatrix:
    return [list(col) for col in zip(*x)]


def gmat_scale(x: GMatrix, s: float) -> GMatrix:
    return [[e * s for e in row] for row in x]


def gmat_add(x: GMatrix, y: GMatrix) -> GMatrix:
    return [[a + b for a, b in zip(rx, ry)] for rx, ry in zip(x, y)]


def gmat_sub(x: GMatrix, y: GMatrix) -> GMatrix:
    return [[a - b for a, b in zip(rx, ry)] for rx, ry in zip(x, y)]


def gmat_body(x: GMatrix) -> np.ndarray:
    return np.array([[e.body for e in row] for row in x], dtype=float)


def gmat_max_abs(x: GMatrix) -> float:
    return max((e.max_abs() for row in x for e in row), default=0.0)


def gmat_inverse(x: GMatrix) -> GMatrix:
    """Inverse of a square Grassmann matrix with invertible real body.

    Factors X = X0 (1 + K) with X0 the body and K soul-valued, so the
    Neumann series for (1 + K)^-1 terminates at the generator count.
    """
    size = len(x)
    n = x[0][0].n
    body = gmat_body(x)
    body_inv = np.linalg.inv(body)
    b_inv = gmat_from_real(body_inv, n)
    k = gmat_sub(gmat_mul(b_inv, x), gmat_from_real(np.eye(size), n))
    acc = gmat_from_real(np.eye(size), n)
    power = gmat_from_real(np.eye(size), n)
    for _ in range(n):
        power = gmat_scale(gmat_mul(power, k), -1.0)
        if gmat_max_abs(power) == 0.0:
            break
        acc = gmat_add(acc, power)
    return gmat_mul(acc, b_inv)


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
    """Immutable (m+n) x (m+n) matrix over B_N with a graded block pattern."""

    __slots__ = ("m", "n", "ngen", "parity", "rows")

    def __init__(self, m: int, n: int, rows: Sequence[Sequence[GrassmannElement]],
                 parity: int = 0, ngen: int | None = None):
        d = m + n
        if len(rows) != d or any(len(r) != d for r in rows):
            raise ValueError(f"expected {d}x{d} entries")
        if ngen is None:
            ngen = rows[0][0].n
        for i in range(d):
            for j in range(d):
                e = rows[i][j]
                if e.n != ngen:
                    raise ValueError("mixed generator counts among entries")
                want = ((i >= m) ^ (j >= m)) ^ parity
                if not e.is_homogeneous(want):
                    raise ParityPatternError(
                        f"entry ({i},{j}) must be parity {want}, got {e!r}"
                    )
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "ngen", ngen)
        object.__setattr__(self, "parity", parity)
        object.__setattr__(self, "rows", tuple(tuple(r) for r in rows))

    def __setattr__(self, *_):
        raise AttributeError("SuperMatrix is immutable")

    # ------------------------------------------------------------------
    @classmethod
    def identity(cls, m: int, n: int, ngen: int) -> "SuperMatrix":
        d = m + n
        rows = gmat_zero(d, d, ngen)
        for i in range(d):
            rows[i][i] = GrassmannElement.one(ngen)
        return cls(m, n, rows, ngen=ngen)

    @classmethod
    def zero(cls, m: int, n: int, ngen: int) -> "SuperMatrix":
        return cls(m, n, gmat_zero(m + n, m + n, ngen), ngen=ngen)

    @classmethod
    def from_body(cls, body: np.ndarray, m: int, n: int, ngen: int) -> "SuperMatrix":
        body = np.asarray(body, dtype=float)
        if body.shape != (m + n, m + n):
            raise ValueError("body shape does not match block dimensions")
        if np.abs(body[:m, m:]).max(initial=0.0) > 0 or np.abs(body[m:, :m]).max(initial=0.0) > 0:
            raise ParityPatternError("real matrices must be block diagonal (odd blocks have no body)")
        return cls(m, n, gmat_from_real(body, ngen), ngen=ngen)

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
    def block(self, name: str) -> GMatrix:
        m, d = self.m, self.m + self.n
        spans = {
            "a": (range(0, m), range(0, m)),
            "xi": (range(0, m), range(m, d)),
            "chi": (range(m, d), range(0, m)),
            "A": (range(m, d), range(m, d)),
        }
        rs, cs = spans[name]
        return [[self.rows[i][j] for j in cs] for i in rs]

    def body(self) -> np.ndarray:
        return gmat_body(self.rows)

    def body_blocks(self) -> tuple[np.ndarray, np.ndarray]:
        b = self.body()
        return b[: self.m, : self.m], b[self.m :, self.m :]

    def max_abs(self) -> float:
        return gmat_max_abs(self.rows)

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------
    def _check_compatible(self, other: "SuperMatrix"):
        if (self.m, self.n, self.ngen) != (other.m, other.n, other.ngen):
            raise ValueError("supermatrix dimensions or generator counts differ")

    def __add__(self, other: "SuperMatrix") -> "SuperMatrix":
        self._check_compatible(other)
        if self.parity != other.parity:
            raise ParityPatternError("cannot add matrices of different parity")
        return SuperMatrix(self.m, self.n, gmat_add(self.rows, other.rows),
                           parity=self.parity, ngen=self.ngen)

    def __sub__(self, other: "SuperMatrix") -> "SuperMatrix":
        return self + (other * -1.0)

    def __mul__(self, scalar) -> "SuperMatrix":
        if not isinstance(scalar, (int, float)):
            return NotImplemented
        return SuperMatrix(self.m, self.n, gmat_scale(self.rows, scalar),
                           parity=self.parity, ngen=self.ngen)

    __rmul__ = __mul__

    def __matmul__(self, other: "SuperMatrix") -> "SuperMatrix":
        self._check_compatible(other)
        # block parity adds mod 2; the constructor asserts the pattern
        return SuperMatrix(self.m, self.n, gmat_mul(self.rows, other.rows),
                           parity=(self.parity + other.parity) % 2, ngen=self.ngen)

    def supertranspose(self) -> "SuperMatrix":
        """Graded transpose: blocks (a, xi, chi, A) -> (a^T, chi^T, -xi^T, A^T).

        On the odd parity pattern the off-diagonal signs flip, which is what
        makes (XY)^st = (-1)^{|X||Y|} Y^st X^st hold for both parities.
        """
        sign = -1.0 if self.parity else 1.0
        a = gmat_transpose(self.block("a"))
        xi = gmat_scale(gmat_transpose(self.block("chi")), sign)
        chi = gmat_scale(gmat_transpose(self.block("xi")), -sign)
        A = gmat_transpose(self.block("A"))
        return SuperMatrix.from_blocks(a, xi, chi, A, parity=self.parity)

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
        """Two-sided inverse through the block (Schur complement) pattern.

        With M = [[s, d], [sg, S]] the inverse is

            [[ sbar^-1,           -s^-1 d Sbar^-1 ],
             [ -S^-1 sg sbar^-1,   Sbar^-1        ]]

        where sbar = s - d S^-1 sg and Sbar = S - sg s^-1 d.  Valid whenever
        the bodies of both diagonal blocks are invertible.
        """
        if self.parity != 0:
            raise ValueError("inverse requires the even parity pattern")
        s = self.block("a")
        d = self.block("xi")
        sg = self.block("chi")
        S = self.block("A")
        s_inv = gmat_inverse(s)
        S_inv = gmat_inverse(S)
        sbar = gmat_sub(s, gmat_mul(d, gmat_mul(S_inv, sg)))
        Sbar = gmat_sub(S, gmat_mul(sg, gmat_mul(s_inv, d)))
        sbar_inv = gmat_inverse(sbar)
        Sbar_inv = gmat_inverse(Sbar)
        top_right = gmat_scale(gmat_mul(s_inv, gmat_mul(d, Sbar_inv)), -1.0)
        bottom_left = gmat_scale(gmat_mul(S_inv, gmat_mul(sg, sbar_inv)), -1.0)
        return SuperMatrix.from_blocks(sbar_inv, top_right, bottom_left, Sbar_inv)

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
        return (self.m, self.n, self.parity) == (other.m, other.n, other.parity) and all(
            a == b for ra, rb in zip(self.rows, other.rows) for a, b in zip(ra, rb)
        )

    def __hash__(self):
        return hash((self.m, self.n, self.parity, self.rows))

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
