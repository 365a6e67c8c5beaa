"""Exact arithmetic in the real Grassmann algebra on N anticommuting generators.

An element is a finite real linear combination of monomials
theta_{i1}*...*theta_{ik} with strictly increasing indices.  Monomials are
encoded as bit masks (bit i-1 <-> theta_i), which caps N at 16; the default
working algebra is B_2.  Coefficients are double floats, while all monomial
and sign bookkeeping is exact, so only genuinely numerical operations carry
floating error.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Union

MAX_GENERATORS = 16

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


def graded_dot(xs: Iterable["GrassmannElement"], ys: Iterable["GrassmannElement"],
               n: int) -> "GrassmannElement":
    """sum_j xs[j] * ys[j] in B_n, accumulated into one coefficient table.

    This is the package's one graded product loop: element products and
    Grassmann matrix products both reduce to it.  Pairs are visited in the
    order j, then monomials of xs[j], then monomials of ys[j], so the
    floating-point sums and the term order of the result are fixed.
    """
    acc: dict[int, float] = {}
    for x, y in zip(xs, ys):
        yt = y.terms
        if not yt:
            continue
        for p, a in x.terms.items():
            for q, b in yt.items():
                if p & q:
                    continue  # repeated generator -> nilpotent
                key = p | q
                acc[key] = acc.get(key, 0.0) + merge_sign(p, q) * a * b
    return GrassmannElement(n, acc)


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
                if abs(c) >= COEFF_CUTOFF:
                    clean[mask] = c
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *_):
        raise AttributeError("GrassmannElement is immutable")

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
        return graded_dot((self,), (o,), self.n)

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
        """Multiplicative inverse via the terminating Neumann series.

        With x = b(1 + s/b), b the body and s the nilpotent soul, the series
        for (1 + s/b)^-1 stops once the power of s exceeds degree N.
        """
        b = self.body
        if b == 0.0:
            raise NonInvertibleError("element has zero body; no inverse exists")
        u = self.soul() * (1.0 / b)
        result = GrassmannElement.one(self.n)
        power = GrassmannElement.one(self.n)
        for _ in range(self.n):
            power = power * u * (-1.0)
            if power.is_zero():
                break
            result = result + power
        return result * (1.0 / b)

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
