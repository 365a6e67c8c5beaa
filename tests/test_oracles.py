"""Independent oracles for the Grassmann and supermatrix arithmetic.

Two oracles that share no code with the package's product kernel:

* the regular representation: a supermatrix X over B_N acts on column
  vectors with entries in B_N by left multiplication, and the real
  (d * 2^N) x (d * 2^N) matrix L(X) of that action is a homomorphism, so
  L(XY) = L(X) L(Y), L(X^-1) = L(X)^-1 and L(exp X) = expm(L(X)), soul parts
  included;
* the dict-of-monomials double loop over term pairs, which checks the kernel
  on sparse elements at generator counts where it no longer uses one table.

Both read only the public ``rows`` / ``terms`` view of the results.  The
paper's Schur-complement block formula for the inverse is checked against
``SuperMatrix.inverse`` as well; it shares only the block inverses with it.
"""

from functools import lru_cache

import numpy as np
import pytest
import scipy.linalg

from superholonomy.grassmann import COEFF_CUTOFF, GrassmannElement, graded_inverse, graded_matmul
from superholonomy.supermatrix import SuperMatrix, gmat_mul, random_supermatrix


@lru_cache(maxsize=None)
def permutation_sign(p: int, q: int) -> int:
    """Sign of sorting the generator list of p followed by that of q."""
    idx = [i for i in range(p.bit_length()) if p >> i & 1]
    idx += [i for i in range(q.bit_length()) if q >> i & 1]
    inversions = sum(idx[a] > idx[b] for a in range(len(idx)) for b in range(a + 1, len(idx)))
    return -1 if inversions % 2 else 1


def left_regular(M: SuperMatrix) -> np.ndarray:
    """L(M)[(r, i), (q, j)]: coefficient of theta^r e_i in M (theta^q e_j)."""
    d, size = M.m + M.n, 1 << M.ngen
    L = np.zeros((size * d, size * d))
    for i, row in enumerate(M.rows):
        for j, e in enumerate(row):
            for p, c in e.terms.items():
                for q in range(size):
                    if not p & q:
                        L[(p | q) * d + i, q * d + j] += permutation_sign(p, q) * c
    return L


def invertible_even(rng, m, n, ngen):
    return random_supermatrix(rng, m, n, ngen, scale=0.4) + SuperMatrix.identity(m, n, ngen)


SHAPES = [(1, 2), (2, 2)]
GENERATORS = [0, 1, 2, 3, 4]
# above TABLE_MAX_N, where the products inside the inverse recurse too
INVERSE_GENERATORS = GENERATORS + [7]


class TestRegularRepresentation:
    def test_identity_maps_to_identity(self):
        eye = SuperMatrix.identity(2, 2, 3)
        assert np.array_equal(left_regular(eye), np.eye(4 * 8))

    @pytest.mark.parametrize("ngen", GENERATORS)
    @pytest.mark.parametrize("m, n", SHAPES)
    def test_product_both_parities(self, m, n, ngen):
        rng = np.random.default_rng([m, n, ngen, 1])
        for px in (0, 1):
            for py in (0, 1):
                x = random_supermatrix(rng, m, n, ngen, parity=px)
                y = random_supermatrix(rng, m, n, ngen, parity=py)
                xy = x @ y
                assert xy.parity == (px + py) % 2
                err = np.abs(left_regular(xy) - left_regular(x) @ left_regular(y)).max()
                assert err <= 1e-12

    @pytest.mark.parametrize("ngen", INVERSE_GENERATORS)
    @pytest.mark.parametrize("m, n", SHAPES)
    def test_inverse_with_souls(self, m, n, ngen):
        rng = np.random.default_rng([m, n, ngen, 2])
        for _ in range(3):
            x = invertible_even(rng, m, n, ngen)
            want = np.linalg.inv(left_regular(x))
            assert np.abs(left_regular(x.inverse()) - want).max() <= 1e-10

    @pytest.mark.parametrize("ngen", GENERATORS)
    @pytest.mark.parametrize("m, n", SHAPES)
    def test_expm_with_souls(self, m, n, ngen):
        rng = np.random.default_rng([m, n, ngen, 3])
        for _ in range(3):
            x = random_supermatrix(rng, m, n, ngen, scale=0.6)
            want = scipy.linalg.expm(left_regular(x))
            got = left_regular(x.expm())
            assert np.abs(got - want).max() <= 1e-10 * max(1.0, np.abs(want).max())

    def test_supertranspose_reversal_both_parities(self):
        # (XY)^st = (-1)^{|X||Y|} Y^st X^st, compared through L
        rng = np.random.default_rng(4)
        for px in (0, 1):
            for py in (0, 1):
                x = random_supermatrix(rng, 2, 2, 3, parity=px)
                y = random_supermatrix(rng, 2, 2, 3, parity=py)
                sign = -1.0 if px and py else 1.0
                lhs = left_regular((x @ y).supertranspose())
                rhs = sign * left_regular(y.supertranspose() @ x.supertranspose())
                assert np.abs(lhs - rhs).max() <= 1e-12


def dict_product(xs, ys, n) -> GrassmannElement:
    """sum_j xs[j] * ys[j] by the dict double loop over term pairs."""
    acc: dict[int, float] = {}
    for x, y in zip(xs, ys):
        for p, a in x.terms.items():
            for q, b in y.terms.items():
                if p & q:
                    continue
                acc[p | q] = acc.get(p | q, 0.0) + permutation_sign(p, q) * a * b
    return GrassmannElement(n, acc)


def sparse_element(rng, n, terms, parity=None):
    masks = [int(v) for v in rng.choice(1 << n, min(4 * terms, 1 << n), replace=False)]
    if parity is not None:
        masks = [k for k in masks if k.bit_count() & 1 == parity]
    return GrassmannElement(n, {k: rng.uniform(-1, 1) for k in masks[:terms]})


class TestDictLoopOracle:
    # 10 and 13 generators lie above the largest pair table, so the kernel
    # recurses on the last generator there; 0 and 3 use one table
    @pytest.mark.parametrize("ngen", [0, 3, 10, 13])
    def test_element_products(self, ngen):
        rng = np.random.default_rng([ngen, 5])
        for _ in range(20):
            x = sparse_element(rng, ngen, min(12, 1 << ngen))
            y = sparse_element(rng, ngen, min(12, 1 << ngen))
            assert (x * y - dict_product([x], [y], ngen)).max_abs() <= 1e-14

    @pytest.mark.parametrize("ngen", [3, 10])
    def test_matrix_products(self, ngen):
        rng = np.random.default_rng([ngen, 6])
        m, n = 1, 2
        d = m + n

        def sparse_matrix():
            rows = [[sparse_element(rng, ngen, 6, parity=(i >= m) ^ (j >= m)) for j in range(d)]
                    for i in range(d)]
            return SuperMatrix(m, n, rows, ngen=ngen)

        for _ in range(5):
            x, y = sparse_matrix(), sparse_matrix()
            cols = list(zip(*y.rows))
            want = [[dict_product(row, col, ngen) for col in cols] for row in x.rows]
            for got in ((x @ y).rows, gmat_mul(x.rows, y.rows)):
                err = max((g - w).max_abs() for rg, rw in zip(got, want) for g, w in zip(rg, rw))
                assert err <= 1e-14

    def test_element_inverse(self):
        # x x^-1 = x^-1 x = 1 at 13 generators, both products by the dict loop;
        # low-degree souls leave many disjoint pairs, so the inverse is rich
        ngen = 13
        rng = np.random.default_rng([ngen, 7])
        one = GrassmannElement.one(ngen)
        for _ in range(5):
            terms = {0: rng.uniform(1, 2)}
            for _ in range(20):
                gens = rng.choice(ngen, int(rng.integers(1, 3)), replace=False)
                terms[sum(1 << int(g) for g in gens)] = rng.uniform(-1, 1)
            x = GrassmannElement(ngen, terms)
            y = x.inverse()
            assert len(y.terms) > 100
            assert (dict_product([x], [y], ngen) - one).max_abs() <= 1e-12
            assert (dict_product([y], [x], ngen) - one).max_abs() <= 1e-12

    def test_cutoff_matches_canonical_form(self):
        # products that cancel to below COEFF_CUTOFF drop the coefficient
        ngen = 10
        x = GrassmannElement(ngen, {0: 1.0, 1: 1.0})
        y = GrassmannElement(ngen, {0: 1.0, 1: -1.0 + 0.5 * COEFF_CUTOFF})
        got = x * y
        assert got.terms == dict_product([x], [y], ngen).terms
        assert 1 not in got.terms


class TestSchurComplement:
    """The block formula of the paper for the inverse of M = [[s, d], [sg, S]]:

        M^-1 = [[ sbar^-1,           -s^-1 d Sbar^-1 ],
                [ -S^-1 sg sbar^-1,   Sbar^-1        ]]

    with sbar = s - d S^-1 sg and Sbar = S - sg s^-1 d.
    """

    @pytest.mark.parametrize("ngen", INVERSE_GENERATORS)
    @pytest.mark.parametrize("m, n", SHAPES)
    def test_blocks_of_inverse(self, m, n, ngen):
        rng = np.random.default_rng([m, n, ngen, 8])
        mul = graded_matmul
        for _ in range(3):
            M = invertible_even(rng, m, n, ngen)
            s, d, sg, S = (M.block_coeffs(name) for name in ("a", "xi", "chi", "A"))
            s_inv, S_inv = graded_inverse(s), graded_inverse(S)
            sbar_inv = graded_inverse(s - mul(d, mul(S_inv, sg)))
            Sbar_inv = graded_inverse(S - mul(sg, mul(s_inv, d)))
            want = {"a": sbar_inv, "xi": -mul(s_inv, mul(d, Sbar_inv)),
                    "chi": -mul(S_inv, mul(sg, sbar_inv)), "A": Sbar_inv}
            got = M.inverse()
            for name, block in want.items():
                assert np.abs(got.block_coeffs(name) - block).max() <= 1e-12
