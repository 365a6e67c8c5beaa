"""Exact arithmetic in the real Grassmann algebra on N anticommuting generators.

An element is a finite real linear combination of monomials
theta_{i1}*...*theta_{ik} with strictly increasing indices.  Monomials are
encoded as bit masks (bit i-1 <-> theta_i), which caps N at 16; the default
working algebra is B_2.  Coefficients are double floats, while all monomial
and sign bookkeeping is exact, so only genuinely numerical operations carry
floating error.

Every product, of elements or of matrices over B_N, is one signed subset
convolution, ``graded_matmul``, on dense coefficient arrays with the monomial
mask on axis 0, and every inverse is ``graded_inverse``, the same split on the
last generator.  GrassmannElement keeps the sparse {mask: coefficient} form
as its public view.  Coefficients are finite: NaN and infinities raise
ValueError.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterable, Iterator, Mapping, Union

import numpy as np

MAX_GENERATORS = 16
# the pair table of B_n has 3^n rows; above this many generators a product
# recurses on the last generator, three products at n - 1 per level.  Dense
# OSp(2|2) products ran fastest with 6 at N = 8 and within 25% of the best
# (7) at N = 10 and 12; 5 and 8 were slower everywhere
TABLE_MAX_N = 6

# Coefficients below this are dropped during canonicalization so that exact
# cancellations are not blocked by floating dust.
COEFF_CUTOFF = 1e-14

Scalar = Union[int, float]


class NonInvertibleError(ValueError):
    """Inversion was requested for an element with vanishing scalar part."""


def merge_sign(p: int, q: int) -> int:
    """Sign of sorting the concatenation of two disjoint monomial masks.

    Counts the pairs (i in p, j in q) with i > j; each such pair is one
    transposition when the generators of q are interleaved into p.
    """
    s = 0
    rest = q
    while rest:
        low = rest & -rest
        s += (p >> low.bit_length()).bit_count()
        rest ^= low
    return -1 if s & 1 else 1


@lru_cache(maxsize=None)
def _pair_table(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 3^n disjoint monomial pairs (p, q) of B_n, grouped by r = p | q.

    Returns (left, right, starts).  left[k] indexes the stack [x, -x], so the
    sign merge_sign(p, q) is picked up by the gather itself; right[k] = q;
    the pairs of r run from starts[r], with p ascending inside each group.
    Every r owns at least the pair (0, r), so no group is empty.
    """
    size = 1 << n
    left, right, starts = [], [], []
    for r in range(size):
        starts.append(len(left))
        for p in range(r + 1):
            if p & ~r:
                continue
            q = r ^ p
            left.append(p if merge_sign(p, q) > 0 else p + size)
            right.append(q)
    table = np.array(left), np.array(right), np.array(starts)
    for arr in table:
        arr.flags.writeable = False
    return table


@lru_cache(maxsize=None)
def grade_signs(n: int) -> np.ndarray:
    """(-1)^|q| for every monomial q of B_n, shaped to scale (2^n, d, d) arrays."""
    out = np.array([-1.0 if q.bit_count() & 1 else 1.0 for q in range(1 << n)])[:, None, None]
    out.flags.writeable = False
    return out


def _convolve(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """sum over disjoint (p, q) of merge_sign(p, q) x[p] @ y[q] into slot p | q."""
    if not x[1:].any():      # no soul: only the pairs (0, q) contribute
        return np.matmul(x[0], y)
    if not y[1:].any():
        return np.matmul(x, y[0])
    size = len(x)
    n = size.bit_length() - 1
    if n <= TABLE_MAX_N:
        left, right, starts = _pair_table(n)
        pairs = np.matmul(np.concatenate((x, -x))[left], y[right])
        return np.add.reduceat(pairs, starts, axis=0)
    # split off theta_n, the last generator: x = x0 + x1 theta_n, likewise y,
    # and theta_n y0 = y0^ theta_n with ^ the grade involution, so
    # xy = x0 y0 + (x0 y1 + x1 y0^) theta_n
    half = size >> 1
    x0, x1, y0, y1 = x[:half], x[half:], y[:half], y[half:]
    out = np.empty((size, x.shape[1], y.shape[2]))
    out[:half] = _convolve(x0, y0)
    out[half:] = _convolve(x0, y1)
    out[half:] += _convolve(x1, y0 * grade_signs(n - 1))
    return out


def canonical(coeffs: np.ndarray) -> np.ndarray:
    """Zero, in place, what GrassmannElement drops: all |c| < COEFF_CUTOFF.

    That includes signed zeros.  A NaN or infinite coefficient raises
    ValueError, as in the dict form: it comes from bad input or an overflow
    and must fail, not vanish.
    """
    mags = np.abs(coeffs)
    if not np.isfinite(mags.max(initial=0.0)):
        raise ValueError("non-finite Grassmann coefficient")
    coeffs[mags < COEFF_CUTOFF] = 0.0
    return coeffs


def graded_matmul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The package's one graded product: out[p|q] += sign(p, q) x[p] @ y[q].

    x and y are dense coefficient arrays of shapes (2^N, a, b) and
    (2^N, b, c), axis 0 the monomial mask; the sum runs over the 3^N
    disjoint pairs, a signed subset convolution (Wlodarczyk, Algorithmica
    2019).  Element products are the case a = b = c = 1.  Up to
    TABLE_MAX_N generators one cached pair table does it in a few batched
    numpy calls; above, the last generator is split off recursively, with
    the table as the base case.  The result is canonical: coefficients
    below COEFF_CUTOFF are zeroed, as GrassmannElement does.
    """
    return canonical(_convolve(x, y))


def _invert(x: np.ndarray) -> np.ndarray:
    if len(x) == 1:
        return np.linalg.inv(x)
    # x = x0 + x1 theta_n and y = y0 + y1 theta_n with x y = 1: x0 y0 = 1 and
    # x0 y1 + x1 y0^ = 0, so y1 = -y0 x1 y0^ with ^ the grade involution
    half = len(x) >> 1
    y0 = _invert(x[:half])
    out = np.empty_like(x)
    out[:half] = y0
    out[half:] = -_convolve(y0, _convolve(x[half:], y0 * grade_signs(half.bit_length() - 1)))
    return out


def graded_inverse(x: np.ndarray) -> np.ndarray:
    """The package's one inverse over B_N, of a (2^N, d, d) coefficient array.

    Splits off the last generator, x = x0 + x1 theta_N, inverts x0 the same
    way and sets y1 = -y0 x1 y0^, the split ``graded_matmul`` uses for
    products; the base case is np.linalg.inv of the body, which raises
    LinAlgError when the body is singular.  About one product's work; the
    result is two-sided and canonical.
    """
    return canonical(_invert(x))


class GrassmannElement:
    """Immutable element of B_N in canonical form (no zero coefficients)."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Mapping[int, float] | None = None):
        if not 0 <= n <= MAX_GENERATORS:
            raise ValueError(f"generator count must be in 0..{MAX_GENERATORS}, got {n}")
        clean: dict[int, float] = {}
        if terms:
            limit = 1 << n
            for mask, coeff in terms.items():
                if not 0 <= mask < limit:
                    raise ValueError(f"monomial mask {mask:#x} outside B_{n}")
                c = float(coeff)
                if not math.isfinite(c):
                    raise ValueError(f"non-finite coefficient {c} at monomial mask {mask:#x}")
                if abs(c) >= COEFF_CUTOFF:
                    clean[mask] = c
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *_):
        raise AttributeError("GrassmannElement is immutable")

    def dense(self) -> np.ndarray:
        """Coefficients as a float array of length 2^N indexed by monomial mask."""
        out = np.zeros(1 << self.n)
        if self.terms:
            out[list(self.terms)] = list(self.terms.values())
        return out

    @classmethod
    def from_dense(cls, coeffs: np.ndarray) -> "GrassmannElement":
        """Element from a canonical dense coefficient vector (see ``canonical``)."""
        nz = np.flatnonzero(coeffs)
        out = object.__new__(cls)
        object.__setattr__(out, "n", len(coeffs).bit_length() - 1)
        object.__setattr__(out, "terms", dict(zip(nz.tolist(), coeffs[nz].tolist())))
        return out

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def scalar(cls, value: Scalar, n: int) -> "GrassmannElement":
        return cls(n, {0: float(value)})

    @classmethod
    def zero(cls, n: int) -> "GrassmannElement":
        return cls(n, {})

    @classmethod
    def one(cls, n: int) -> "GrassmannElement":
        return cls(n, {0: 1.0})

    @classmethod
    def theta(cls, index: int, n: int) -> "GrassmannElement":
        """Generator theta_index with 1-based index."""
        if not 1 <= index <= n:
            raise ValueError(f"generator index {index} outside 1..{n}")
        return cls(n, {1 << (index - 1): 1.0})

    @classmethod
    def monomial(cls, indices: Iterable[int], n: int, coeff: Scalar = 1.0) -> "GrassmannElement":
        """Monomial from strictly increasing 1-based generator indices."""
        mask = 0
        prev = 0
        for i in indices:
            if i <= prev:
                raise ValueError("monomial indices must be strictly increasing")
            if not 1 <= i <= n:
                raise ValueError(f"generator index {i} outside 1..{n}")
            mask |= 1 << (i - 1)
            prev = i
        return cls(n, {mask: float(coeff)})

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    @property
    def body(self) -> float:
        """Coefficient of the empty monomial."""
        return self.terms.get(0, 0.0)

    def soul(self) -> "GrassmannElement":
        return GrassmannElement(self.n, {m: c for m, c in self.terms.items() if m})

    def is_zero(self) -> bool:
        return not self.terms

    def is_homogeneous(self, parity: int) -> bool:
        """True when every monomial has length = parity mod 2 (zero passes)."""
        return all(mask.bit_count() & 1 == parity for mask in self.terms)

    def parity(self) -> int | None:
        """0 / 1 for homogeneous elements, None for mixed or zero."""
        if not self.terms:
            return None
        parities = {mask.bit_count() & 1 for mask in self.terms}
        return parities.pop() if len(parities) == 1 else None

    def degree(self) -> int:
        """Largest monomial length present (-1 for the zero element)."""
        return max((m.bit_count() for m in self.terms), default=-1)

    def max_abs(self) -> float:
        return max((abs(c) for c in self.terms.values()), default=0.0)

    def graded_component(self, degree: int) -> "GrassmannElement":
        return GrassmannElement(
            self.n, {m: c for m, c in self.terms.items() if m.bit_count() == degree}
        )

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------
    def _coerce(self, other) -> "GrassmannElement | None":
        if isinstance(other, GrassmannElement):
            if other.n != self.n:
                raise ValueError(f"mixed generator counts {self.n} and {other.n}")
            return other
        if isinstance(other, (int, float)):
            return GrassmannElement.scalar(other, self.n)
        return None

    def __add__(self, other) -> "GrassmannElement":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out = dict(self.terms)
        for mask, c in o.terms.items():
            out[mask] = out.get(mask, 0.0) + c
        return GrassmannElement(self.n, out)

    __radd__ = __add__

    def __sub__(self, other) -> "GrassmannElement":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out = dict(self.terms)
        for mask, c in o.terms.items():
            out[mask] = out.get(mask, 0.0) - c
        return GrassmannElement(self.n, out)

    def __rsub__(self, other) -> "GrassmannElement":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self) -> "GrassmannElement":
        return GrassmannElement(self.n, {m: -c for m, c in self.terms.items()})

    def __mul__(self, other) -> "GrassmannElement":
        if isinstance(other, (int, float)):
            return GrassmannElement(self.n, {m: c * other for m, c in self.terms.items()})
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out = graded_matmul(self.dense()[:, None, None], o.dense()[:, None, None])
        return GrassmannElement.from_dense(out[:, 0, 0])

    def __rmul__(self, other) -> "GrassmannElement":
        if isinstance(other, (int, float)):
            return self * other
        return NotImplemented

    def __truediv__(self, other) -> "GrassmannElement":
        if isinstance(other, (int, float)):
            return self * (1.0 / other)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def inverse(self) -> "GrassmannElement":
        """Multiplicative inverse through ``graded_inverse``; needs a nonzero body."""
        if self.body == 0.0:
            raise NonInvertibleError("element has zero body; no inverse exists")
        return GrassmannElement.from_dense(graded_inverse(self.dense()[:, None, None])[:, 0, 0])

    # ------------------------------------------------------------------
    # comparison / presentation
    # ------------------------------------------------------------------
    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.terms == o.terms

    def __hash__(self):
        return hash((self.n, tuple(sorted(self.terms.items()))))

    def isclose(self, other, tol: float = 1e-12) -> bool:
        o = self._coerce(other)
        return (self - o).max_abs() <= tol

    def monomials(self) -> Iterator[tuple[tuple[int, ...], float]]:
        """Pairs of (1-based increasing index tuple, coefficient), sorted."""
        for mask in sorted(self.terms):
            idx = tuple(i + 1 for i in range(self.n) if mask >> i & 1)
            yield idx, self.terms[mask]

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for idx, coeff in self.monomials():
            mono = "".join(f"t{i}" for i in idx)
            parts.append(f"{coeff:g}" if not mono else f"{coeff:g}*{mono}")
        return " + ".join(parts).replace("+ -", "- ")


def random_element(rng, n: int, parity: int | None = None, scale: float = 1.0) -> GrassmannElement:
    """Random element with uniform coefficients, optionally parity-homogeneous."""
    terms = {}
    for mask in range(1 << n):
        if parity is None or mask.bit_count() & 1 == parity:
            terms[mask] = rng.uniform(-scale, scale)
    return GrassmannElement(n, terms)
