"""Seeded test data: random Grassmann elements, homogeneous-parity coefficient arrays, even supermatrices
and Sp(2n) elements."""

import numpy as np

from superholonomy.grassmann import GrassmannElement, pattern_mask, real_expm
from superholonomy.group import sp_from_random
from superholonomy.supermatrix import SuperMatrix


def random_element(rng, n: int, parity: int | None = None, scale: float = 1.0) -> GrassmannElement:
    """Random element with uniform coefficients, optionally parity-homogeneous."""
    terms = {}
    for mask in range(1 << n):
        if parity is None or mask.bit_count() & 1 == parity:
            terms[mask] = rng.uniform(-scale, scale)
    return GrassmannElement(n, terms)


def random_coeffs(rng, m: int, n: int, ngen: int, parity: int = 0, scale: float = 1.0) -> np.ndarray:
    """Random (2^ngen, m+n, m+n) coefficients on the even (parity 0) or odd (parity 1) (m|n) pattern: a
    uniform coefficient in [-scale, scale] on every monomial the pattern allows, entries in row-major
    order, monomials in mask order.  Odd arrays exist only here, for the kernel's graded identities."""
    drawn = (pattern_mask(ngen, m + n, m) == bool(parity)).transpose(1, 2, 0)
    coeffs = np.zeros(drawn.shape)
    coeffs[drawn] = rng.uniform(-scale, scale, int(drawn.sum()))
    return coeffs.transpose(2, 0, 1)


def random_supermatrix(rng, m: int, n: int, ngen: int, scale: float = 1.0) -> SuperMatrix:
    """The even random_coeffs as a SuperMatrix, for property sweeps."""
    return SuperMatrix.from_coeffs(m, n, random_coeffs(rng, m, n, ngen, 0, scale))


def random_sp(two_n: int, rng) -> np.ndarray:
    """A random Sp(2n) element, exp C (S + S^T) with the entries of S uniform in [-0.7, 0.7]."""
    return real_expm(sp_from_random(rng.random((two_n, two_n)), 0.7))
