"""Independent oracles for the Grassmann and supermatrix arithmetic.

Two oracles that share no code with the package's product kernel:

* the regular representation: a supermatrix X over B_N acts on column
  vectors with entries in B_N by left multiplication, and the real
  (d * 2^N) x (d * 2^N) matrix L(X) of that action is a homomorphism, so
  L(XY) = L(X) L(Y), L(X^-1) = L(X)^-1 and L(exp X) = expm(L(X)), soul parts
  included; the package builds only the two parity blocks of L for even X,
  which are checked against this loop too, and its build in whole runs of
  columns against the one-coefficient-at-a-time plan it replaced;
* the dict-of-monomials double loop over term pairs, which checks the kernel
  on sparse elements at generator counts where it no longer uses one table.

Both read only the public ``rows`` / ``terms`` view of the results.  The
paper's Schur-complement block formula for the inverse is checked against
``SuperMatrix.inverse`` as well; it shares only the block inverses with it.

The algebra builders' batched structure-constant extraction, the osp(1|2)
defining-relation residual and ``SuperAlgebra.validate`` are checked against
per-pair and per-triple loops that fit one bracket and test one index at a
time.

The builders that take coefficient arrays (the non-exponential family,
``random_coeffs`` and the odd constraint rows of
``gauge_fixing_check``) are checked bit for bit against the element and
polynomial routes they replaced.

``membership_defect`` builds M^st H by one signed gather of M and takes
the residual on the split slots; it is checked bit for bit against the
routes it replaced: the block-sign supertranspose, then the body product by
H, then the product with M, and the gather with the residual over the whole
(2^N, d, d) array.

The two fermionic moduli counts are checked against the exact cohomology of the
torus, dim H^0, H^1 and H^2, ranked by Gauss-Jordan elimination over
``fractions.Fraction`` of Ahat and Bhat, built entry by entry from bodies whose
float entries are the intended rationals.  It shares no code with
``matrix_rank`` and no numpy linear algebra.
"""

import dataclasses
import itertools
import math
import warnings
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
import scipy.linalg

from random_inputs import random_coeffs, random_element, random_supermatrix
from superholonomy import checks, grassmann
from superholonomy.grassmann import (COEFF_CUTOFF, EXACT_TOL, SPLIT_MAX, ExpmNotConvergedError, GrassmannElement,
                                     NonInvertibleError, ParityPatternError, RankUndecidedError, canonical, grade_signs,
                                     graded_inverse, graded_matmul, matrix_rank, pattern_mask, real_expm, taylor_sum)
from superholonomy.group import (NONEXP_NGEN, NONEXP_PSI, SAMPLE_SCALE, OspGroup, _spawned_words, ahat,
                                 build_nonexp_holonomy, commuting_bodies, enumerate_sectors_osp12,
                                 fermionic_moduli_count, fermionic_moduli_count_bruteforce, integers_from_random,
                                 parabolic, rotation, sector_representatives,
                                 uniform_from_random)
from superholonomy.phase import _odd_constraint_rows, flatness_constraints
from superholonomy.superlie import (EPS2, MAX_OSP_SIZE, OSP12_DIRECTIONS, SIGMA0, SIGMA1, SIGMA2,
                                    _osp12_relation_residual, _structure_constants_from_rep, build_osp, build_osp12)
from superholonomy.supermatrix import (SuperMatrix, array_to_gmat, body_array, gmat_mul, gmat_to_array, graded_expm,
                                      graded_form, signed_gather, supertranspose_coeffs, symplectic_form, transpose_plan)


@lru_cache(maxsize=None)
def permutation_sign(p: int, q: int) -> int:
    """Sign of sorting the generator list of p followed by that of q."""
    idx = [i for i in range(p.bit_length()) if p >> i & 1]
    idx += [i for i in range(q.bit_length()) if q >> i & 1]
    inversions = sum(idx[a] > idx[b] for a in range(len(idx)) for b in range(a + 1, len(idx)))
    return -1 if inversions % 2 else 1


def left_regular(M) -> np.ndarray:
    """L(M)[(r, i), (q, j)]: coefficient of theta^r e_i in M (theta^q e_j).

    M is a SuperMatrix or a (2^N, a, b) coefficient array, read through its
    GrassmannElement entries.
    """
    rows = M.rows if isinstance(M, SuperMatrix) else array_to_gmat(M)
    a, b, size = len(rows), len(rows[0]), 1 << rows[0][0].n
    L = np.zeros((size * a, size * b))
    for i, row in enumerate(rows):
        for j, e in enumerate(row):
            for p, c in e.terms.items():
                for q in range(size):
                    if not p & q:
                        L[(p | q) * a + i, q * b + j] += permutation_sign(p, q) * c
    return L


@lru_cache(maxsize=None)
def coefficient_plan(n: int, d: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """(dst, src): one flat position in the split blocks and one in [x, -x] per nonzero of L.

    Pair k of the pair table puts sign x_p[i, j] at L[(r, i), (q, j)], which
    lies in block [(q, j) in V1] when (i, j) is on the even (m|d-m) pattern.
    """
    size, h = 1 << n, (1 << n) * d // 2
    cls = (grade_signs(n)[:, 0] < 0) ^ (np.arange(d) >= m)
    rank = np.empty((size, d), dtype=np.intp)
    for c in (False, True):
        rank.flat[np.flatnonzero(cls == c)] = np.arange(h)
    left, right, starts = grassmann._pair_table(n)
    r = np.repeat(np.arange(size), np.diff(np.append(starts, len(left))))
    on = ~pattern_mask(n, d, m)[left % size]
    dst = (cls[right][:, None, :] * h + rank[r][:, :, None]) * h + rank[right][:, None, :]
    src = (left[:, None, None] * d + np.arange(d)[:, None]) * d + np.arange(d)
    return dst[on], src[on]


def coefficient_regular(x: np.ndarray, m: int) -> np.ndarray:
    """The split blocks (..., 2, h, h) of L(x) for an even stack, one coefficient at a time."""
    size, d = x.shape[-3], x.shape[-1]
    h = size * d // 2
    dst, src = coefficient_plan(size.bit_length() - 1, d, m)
    members = x.reshape(-1, size * d * d)
    L = np.zeros((len(members), 2 * h * h))
    L[:, dst] = np.concatenate((members, -members), axis=1)[:, src]
    return L.reshape(*x.shape[:-3], 2, h, h)


def parity_classes(m: int, d: int, ngen: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows (q, j) of L, flat q d + j, with |q| + [j >= m] even (V0) and odd (V1)."""
    cls = np.array([(q.bit_count() + (j >= m)) & 1 for q in range(1 << ngen) for j in range(d)])
    return np.flatnonzero(cls == 0), np.flatnonzero(cls == 1)


def invertible_even(rng, m, n, ngen):
    return random_supermatrix(rng, m, n, ngen, scale=0.4) + SuperMatrix.identity(m, n, ngen)


SHAPES = [(1, 2), (2, 2)]
GENERATORS = [0, 1, 2, 3, 4]
# above TABLE_MAX_N; (2|2) at 7 sits on SPLIT_MAX (2^N d = 512)
INVERSE_GENERATORS = GENERATORS + [7]


class TestRegularRepresentation:
    def test_identity_maps_to_identity(self):
        eye = SuperMatrix.identity(2, 2, 3)
        assert np.array_equal(left_regular(eye), np.eye(4 * 8))

    @pytest.mark.parametrize("ngen", GENERATORS)
    @pytest.mark.parametrize("m, n", SHAPES)
    def test_product_both_parities(self, m, n, ngen):
        # odd patterns exist only as arrays, under the pair-table kernel; an
        # even pair is declared even, as SuperMatrix @ declares it
        rng = np.random.default_rng([m, n, ngen, 1])
        for px in (0, 1):
            for py in (0, 1):
                x = random_coeffs(rng, m, n, ngen, px)
                y = random_coeffs(rng, m, n, ngen, py)
                xy = graded_matmul(x, y, None if px or py else m)
                # block parity adds mod 2: xy is zero off the (px + py) pattern
                assert not xy[pattern_mask(ngen, m + n, m) != bool((px + py) % 2)].any()
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
        # (XY)^st = (-1)^{|X||Y|} Y^st X^st for the kernel's products, compared
        # through L, with the block-sign transpose of each parity
        rng = np.random.default_rng(4)
        for px in (0, 1):
            for py in (0, 1):
                x = random_coeffs(rng, 2, 2, 3, px)
                y = random_coeffs(rng, 2, 2, 3, py)
                sign = -1.0 if px and py else 1.0
                lhs = left_regular(block_supertranspose(graded_matmul(x, y), 2, (px + py) % 2))
                rhs = sign * left_regular(graded_matmul(block_supertranspose(y, 2, py), block_supertranspose(x, 2, px)))
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
            return SuperMatrix.from_coeffs(m, n, gmat_to_array(rows, ngen))

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
            # the diagonal blocks and their complements are all-even: (m|0) and (n|0)
            s_inv, S_inv = graded_inverse(s, m), graded_inverse(S, n)
            sbar_inv = graded_inverse(s - mul(d, mul(S_inv, sg)), m)
            Sbar_inv = graded_inverse(S - mul(sg, mul(s_inv, d)), n)
            want = {"a": sbar_inv, "xi": -mul(s_inv, mul(d, Sbar_inv)),
                    "chi": -mul(S_inv, mul(sg, sbar_inv)), "A": Sbar_inv}
            got = M.inverse()
            for name, block in want.items():
                assert np.abs(got.block_coeffs(name) - block).max() <= 1e-12


# (1|2) stacks: 1-6 take the split representation (2^N d <= SPLIT_MAX), 8 lies
# above it, where products take the pair table and recurse on the last generator
STACK_GENERATORS = [0, 1, 2, 6, 8]


def stack_of(rng, m, n, ngen, size=4, soulless=()):
    """Invertible even coefficient arrays, members in ``soulless`` cut to their bodies."""
    out = np.array([invertible_even(rng, m, n, ngen).coeffs for _ in range(size)])
    out[list(soulless), 1:] = 0.0
    return out


def expm_generators(rng, m, n, ngen):
    """Even generators of 1-norm 0, 0.05, 1 and 4: 0, 0, 1 and 3 squarings, four series lengths."""
    gen = random_supermatrix(rng, m, n, ngen).coeffs
    return np.array([0.0, 0.05, 1.0, 4.0])[:, None, None, None] * gen / np.abs(gen[0]).sum(axis=0).max()


def bit_equal(a, b):
    """Same shape, dtype and bytes: the same sign on every zero, NaN payloads included."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestStacks:
    """A stacked kernel call gives every member its one-matrix result, bit for bit."""

    @pytest.mark.parametrize("ngen", STACK_GENERATORS)
    def test_members_equal_one_matrix_calls(self, ngen):
        rng = np.random.default_rng([ngen, 9])
        x, y = stack_of(rng, 1, 2, ngen), stack_of(rng, 1, 2, ngen)
        gens = expm_generators(rng, 1, 2, ngen)
        for m in (None, 1):        # the kernel for undeclared input, and the even route
            prod, inv, exp = graded_matmul(x, y, m), graded_inverse(x, m), graded_expm(gens, m)
            for k in range(len(x)):
                assert np.array_equal(prod[k], graded_matmul(x[k], y[k], m))
                assert np.array_equal(inv[k], graded_inverse(x[k], m))
                assert bit_equal(exp[k], graded_expm(gens[k], m))
        # SuperMatrix declares its even pattern
        for k in range(len(x)):
            X, Y = SuperMatrix.from_coeffs(1, 2, x[k]), SuperMatrix.from_coeffs(1, 2, y[k])
            assert np.array_equal(prod[k], (X @ Y).coeffs)
            assert np.array_equal(inv[k], X.inverse().coeffs)
            assert bit_equal(exp[k], SuperMatrix.from_coeffs(1, 2, gens[k]).expm().coeffs)
        # stack axes broadcast as in a gufunc: outer[a, b] = x[a] y[b]
        for m in (1, None):
            outer = graded_matmul(x[:, None], y[None, :3], m)
            assert outer.shape == (4, 3, *x.shape[1:])
            for a in range(4):
                for b in range(3):
                    assert np.array_equal(outer[a, b], graded_matmul(x[a], y[b], m))

    @pytest.mark.parametrize("ngen", [2, 8])
    def test_mixed_soulless_members(self, ngen):
        # the kernel's no-soul shortcut is decided for the whole stack: a
        # soulless member inside a souled stack takes the table, alone the
        # shortcut; the split route takes no shortcut
        rng = np.random.default_rng([ngen, 10])
        x = stack_of(rng, 2, 2, ngen, soulless=(1,))
        y = stack_of(rng, 2, 2, ngen, soulless=(1, 2))
        gens = expm_generators(rng, 2, 2, ngen)
        gens[2, 1:] = 0.0
        for m in (2, None):
            exp = graded_expm(gens, m)
            for k in range(len(x)):
                assert np.array_equal(graded_matmul(x, y, m)[k], graded_matmul(x[k], y[k], m))
                assert np.array_equal(graded_matmul(y, x, m)[k], graded_matmul(y[k], x[k], m))
                assert np.array_equal(graded_inverse(y, m)[k], graded_inverse(y[k], m))
                assert bit_equal(exp[k], graded_expm(gens[k], m))

    @pytest.mark.parametrize("ngen", [0, 2, 6, 8])
    def test_soulless_factor_broadcasts(self, ngen):
        rng = np.random.default_rng([ngen, 11])
        H = SuperMatrix.from_body(np.diag([1.0, 1.0, -1.0, 2.0]), 2, 2, ngen).coeffs
        x = stack_of(rng, 2, 2, ngen)
        for m in (None, 2):
            left, right = graded_matmul(H, x, m), graded_matmul(x, H, m)
            assert left.shape == right.shape == x.shape
            for k in range(len(x)):
                assert np.array_equal(left[k], graded_matmul(H, x[k], m))
                assert np.array_equal(right[k], graded_matmul(x[k], H, m))

    def test_converged_members_raise_no_warning(self):
        # a zero generator stops at its first term while a norm-4 one runs
        # on; the stopped member's terms only shrink
        rng = np.random.default_rng(12)
        gen = expm_generators(rng, 1, 2, 2)[3]
        stack = np.array([gen, np.zeros_like(gen)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            graded, real = graded_expm(stack, 1), real_expm(stack[:, 0])
        assert bit_equal(graded[1], SuperMatrix.identity(1, 2, 2).coeffs)
        assert bit_equal(real[1], np.eye(3))
        assert bit_equal(graded[0], graded_expm(gen, 1))
        assert bit_equal(real[0], real_expm(gen[0]))


class TestOneMemberSeries:
    """One member sums its Taylor series without the stack mask, bit-equal to the masked loop."""

    @pytest.mark.parametrize("m, n, ngen", [(1, 2, 4), (2, 2, 6), (2, 2, 8)])     # split, split, table
    def test_graded_expm(self, m, n, ngen):
        gens = expm_generators(np.random.default_rng([m, n, ngen, 43]), m, n, ngen)
        stacked = graded_expm(gens, m)
        for k, gen in enumerate(gens):
            one = graded_expm(gen, m)
            assert bit_equal(one, graded_expm(gen[None], m)[0])
            assert bit_equal(one, stacked[k])
            assert bit_equal(one, graded_expm(np.array([gen, gens[-1]]), m)[0])

    def test_real_expm(self):
        rng = np.random.default_rng(44)
        mats = np.array([scale * rng.uniform(-1.0, 1.0, (4, 4)) for scale in (0.0, 0.05, 1.0, 4.0)])
        stacked = real_expm(mats)
        for k, mat in enumerate(mats):
            assert bit_equal(real_expm(mat), stacked[k])
            assert bit_equal(real_expm(mat), real_expm(mat[None])[0])

    def test_short_series_raises(self):
        gen = expm_generators(np.random.default_rng(45), 2, 2, 6)[2]
        for x in (gen, gen[None]):
            with pytest.raises(ExpmNotConvergedError):
                graded_expm(x, 2, max_terms=3)
        step = 0.3 * np.eye(3)
        want = taylor_sum(lambda t: t @ step, np.array([np.eye(3), 2.0 * np.eye(3)]), 2, 1e-22, 80)[0]
        for identity in (np.eye(3), np.eye(3)[None]):
            with pytest.raises(ExpmNotConvergedError):
                taylor_sum(lambda t: t @ step, identity, 2, 1e-22, 5)
            assert bit_equal(taylor_sum(lambda t: t @ step, identity, 2, 1e-22, 80).reshape(3, 3), want)


class TestStoppedMembers:
    """Members whose series stop terms apart keep their one-matrix bytes; a stopped sum is not written again."""

    @staticmethod
    def graded_generators(rng, m, n, ngen):
        # zero (stops at k = 1), soul-only (nilpotent: a few terms) and 1-norm 4
        # (scaled to 1/2, the largest scaled norm: the longest series)
        gen = expm_generators(rng, m, n, ngen)[3]
        soul = gen.copy()
        soul[0] = 0.0
        return np.array([np.zeros_like(gen), soul, gen])

    @pytest.mark.parametrize("m, n, ngen", [(1, 2, 4), (2, 2, 6), (2, 2, 8)])     # split, split, table
    def test_graded_expm(self, m, n, ngen):
        gens = self.graded_generators(np.random.default_rng([m, n, ngen, 46]), m, n, ngen)
        for route in (m, None):
            for stack in (gens, np.array([gens, gens[::-1]])):
                stacked = graded_expm(stack, route)
                for k in np.ndindex(stack.shape[:-3]):
                    assert bit_equal(stacked[k], graded_expm(stack[k], route))

    def test_real_expm(self):
        nilpotent = np.array([[0.0, 0.0, 0.0], [0.7, 0.0, 0.0], [0.3, -1.1, 0.0]])
        large = np.random.default_rng(47).uniform(-1.0, 1.0, (3, 3))
        large *= 4.0 / np.abs(large).sum(axis=0).max()
        mats = np.array([np.zeros((3, 3)), nilpotent, large])
        for stack in (mats, np.array([mats, mats[::-1]])):
            stacked = real_expm(stack)
            for k in np.ndindex(stack.shape[:-2]):
                assert bit_equal(stacked[k], real_expm(stack[k]))

    def test_stopped_sum_is_not_written(self):
        # member 0 stops at its 1e-32 first term, then its terms grow to 1e100;
        # member 1 runs on for about twenty terms
        identity = np.array([1e-40 * np.eye(3), np.eye(3)])
        step = np.array([1e8 * np.eye(3), 0.5 * np.eye(3)])
        stacked = taylor_sum(lambda t: t @ step, identity, 2, 1e-22, 80)
        for k in range(2):
            one = taylor_sum(lambda t: t @ step[k], identity[k], 2, 1e-22, 80)
            assert bit_equal(stacked[k], one)
        assert bit_equal(stacked[0], identity[0] + 1e8 * identity[0])


class TestSquaringCounts:
    """Stacks whose members all square at first, then stop at different counts, keep their one-matrix bytes."""

    # body 1-norms 0.8, 1.5 and 3: 1, 2 and 3 squarings
    NORMS = np.array([0.8, 1.5, 3.0])
    SQUARINGS = [1, 2, 3]

    def test_real_expm(self):
        mats = np.random.default_rng(48).uniform(-1.0, 1.0, (3, 4, 4))
        mats *= (self.NORMS / np.abs(mats).sum(axis=-2).max(axis=-1))[:, None, None]
        assert np.ceil(np.log2(np.abs(mats).sum(axis=-2).max(axis=-1) / 0.5)).tolist() == self.SQUARINGS
        for stack in (mats, mats[::-1], np.array([mats, mats[::-1]])):
            stacked = real_expm(stack)
            for k in np.ndindex(stack.shape[:-2]):
                assert bit_equal(stacked[k], real_expm(stack[k]))

    @pytest.mark.parametrize("m, n, ngen, route", [(1, 2, 4, 1), (2, 2, 6, 2),       # split
                                                   (1, 2, 4, None), (2, 2, 8, 2)])   # table
    def test_graded_expm(self, m, n, ngen, route):
        gen = random_supermatrix(np.random.default_rng([m, n, ngen, 49]), m, 2 * n, ngen).coeffs
        gens = self.NORMS[:, None, None, None] * gen / np.abs(gen[0]).sum(axis=0).max()
        body = np.abs(gens[:, 0]).sum(axis=-2).max(axis=-1)
        assert np.ceil(np.log2(body / 0.5)).tolist() == self.SQUARINGS
        assert (grassmann.even_route(route, gen) is None) == (route is None or ngen == 8)
        for stack in (gens, gens[::-1], np.array([gens, gens[::-1]])):
            stacked = graded_expm(stack, route)
            for k in np.ndindex(stack.shape[:-3]):
                assert bit_equal(stacked[k], graded_expm(stack[k], route))


def count_calls(monkeypatch, name):
    """Wrap grassmann's name so that each call, recursive ones included, logs its shape."""
    calls = []
    original = getattr(grassmann, name)

    def counted(*args):
        calls.append(args[0].shape)
        return original(*args)

    monkeypatch.setattr(grassmann, name, counted)
    return calls


def count_regular(monkeypatch):
    """Log the shape of every array whose split regular blocks are built."""
    calls = []
    original = grassmann.EvenSplit.regular

    def counted(self, x):
        calls.append(x.shape)
        return original(self, x)

    monkeypatch.setattr(grassmann.EvenSplit, "regular", counted)
    return calls


def count_products(monkeypatch):
    """Log the split point and first factor's shape of every product by a split plan."""
    calls = []
    original = grassmann.EvenSplit.product

    def counted(self, x, y):
        calls.append((self.a, x.shape))
        return original(self, x, y)

    monkeypatch.setattr(grassmann.EvenSplit, "product", counted)
    return calls


class TestRegularPaths:
    """Even arrays run on the parity blocks of L while 2^N d <= SPLIT_MAX, on the kernel above.

    (2|2) at N = 6 is under the cap (256), at N = 7 on it (512) and at
    N = 8 above it (1024); (2|4) at N = 5 and 6 under it (192, 384) and at
    N = 7 above it (768).
    """

    @pytest.mark.parametrize("ngen", GENERATORS)
    @pytest.mark.parametrize("m, n", SHAPES + [(3, 0)])
    def test_vectorized_equals_loop(self, m, n, ngen):
        # L maps each parity class onto itself: the cross blocks vanish and
        # the two diagonal blocks are what the plan builds
        rng = np.random.default_rng([m, n, ngen, 13])
        xs = [random_supermatrix(rng, m, n, ngen) for _ in range(3)]
        v0, v1 = parity_classes(m, m + n, ngen)
        stack = np.array([x.coeffs for x in xs])
        split = grassmann.even_route(m, stack)
        if ngen == 0:
            assert split is None            # body only: the product is a matmul of bodies
        else:
            assert np.array_equal(split.unpack(split.pack(stack)), stack)
            blocks = split.regular(stack)
        for k, x in enumerate(xs):
            L = left_regular(x)
            assert not L[np.ix_(v0, v1)].any() and not L[np.ix_(v1, v0)].any()
            if ngen:
                assert np.array_equal(blocks[k, 0], L[np.ix_(v0, v0)])
                assert np.array_equal(blocks[k, 1], L[np.ix_(v1, v1)])
                assert np.array_equal(split.regular(x.coeffs), blocks[k])

    def test_rectangular_factor(self):
        # L(x) of a (2^N, a, b) block times y reshaped to (2^N b, c) is x y
        rng = np.random.default_rng(14)
        x, y = rng.uniform(-1, 1, (16, 2, 3)), rng.uniform(-1, 1, (16, 3, 5))
        got = (left_regular(x) @ y.reshape(48, 5)).reshape(16, 2, 5)
        assert np.abs(got - graded_matmul(x, y)).max() <= 1e-14

    @pytest.mark.parametrize("m, n, ngen", [(2, 2, 6), (2, 2, 7), (2, 4, 5), (2, 4, 6), (1, 2, 8)])
    def test_inverse_and_expm_match_oracle(self, m, n, ngen):
        rng = np.random.default_rng([m, n, ngen, 15])
        x = invertible_even(rng, m, n, ngen)
        L = left_regular(x)
        assert np.abs(left_regular(x.inverse()) - np.linalg.inv(L)).max() <= 1e-10
        g = random_supermatrix(rng, m, n, ngen, scale=0.6)
        want = scipy.linalg.expm(left_regular(g))
        got = left_regular(g.expm())
        assert np.abs(got - want).max() <= 1e-10 * max(1.0, np.abs(want).max())

    @pytest.mark.parametrize("m, n, ngen", [(2, 2, 6), (2, 2, 7), (2, 4, 5), (2, 4, 6), (2, 2, 8), (2, 4, 7)])
    def test_path_by_size(self, monkeypatch, m, n, ngen):
        kernel = count_calls(monkeypatch, "_convolve")
        regular = count_regular(monkeypatch)
        rng = np.random.default_rng([m, n, ngen, 16])
        x = invertible_even(rng, m, n, ngen).coeffs
        # body 1-norm 1/4: no squarings, so every product is a Taylor step
        g = expm_generators(rng, m, n, ngen)[2] / 4
        under = (1 << ngen) * (m + n) <= SPLIT_MAX
        graded_inverse(x, m)
        if under:
            # the Neumann series: N - 1 products by the blocks of L(k), no kernel call
            assert not kernel and regular == [x.shape]
        else:
            # the split on the last generator down to the cap, then the series
            half = (x.shape[0] // 2, *x.shape[1:])
            assert kernel and regular == [half]
        kernel.clear()
        regular.clear()
        graded_expm(g, m)
        if under:
            assert not kernel and regular == [g.shape]
        else:
            assert len(kernel) >= 10 and not regular
        regular.clear()
        products = count_products(monkeypatch)
        graded_matmul(x, x, m)
        # one product by the balanced plan, which builds no L
        assert not regular and products == ([(grassmann.split_point(ngen), x.shape)] if under else [])

    @pytest.mark.parametrize("ngen", [2, 6])
    def test_sliced_stack_equals_unsliced(self, monkeypatch, ngen):
        rng = np.random.default_rng([ngen, 17])
        x = stack_of(rng, 2, 2, ngen, size=4, soulless=(2,)).reshape(2, 2, 1 << ngen, 4, 4)
        gens = expm_generators(rng, 2, 2, ngen).reshape(2, 2, 1 << ngen, 4, 4)
        regular = count_regular(monkeypatch)

        def run():
            return graded_inverse(x, 2), graded_expm(gens, 2), graded_matmul(x, x[::-1], 2)

        monkeypatch.setattr(grassmann, "SPLIT_BYTES", 1 << 40)
        whole = run()
        assert max(math.prod(shape[:-3]) for shape in regular) == 4
        # one member per slice: a budget below one member's blocks
        regular.clear()
        monkeypatch.setattr(grassmann, "SPLIT_BYTES", 1)
        sliced = run()
        assert max(math.prod(shape[:-3]) for shape in regular) == 1
        for a, b in zip(whole, sliced):
            assert a.shape == b.shape and np.array_equal(a, b)
        for k in np.ndindex(2, 2):
            assert np.array_equal(sliced[0][k], graded_inverse(x[k], 2))
            assert np.array_equal(sliced[1][k], graded_expm(gens[k], 2))
            assert np.array_equal(sliced[2][k], graded_matmul(x[k], x[::-1][k], 2))

    @pytest.mark.parametrize("ngen", [6, 7, 8])
    def test_bad_input_fails_on_both_sides_of_the_cap(self, ngen):
        rng = np.random.default_rng([ngen, 18])
        x = stack_of(rng, 2, 2, ngen, size=2)
        singular = x.copy()
        singular[1, 0, 2:, 2:] = [[1.0, 2.0], [2.0, 4.0]]
        with pytest.raises(NonInvertibleError):
            graded_inverse(singular, 2)
        with pytest.raises(NonInvertibleError):
            graded_inverse(singular[1], 2)
        bad = x.copy()
        bad[0, 3, 0, 1] = np.nan
        with pytest.raises(ValueError):
            graded_inverse(bad, 2)
        bad[0, 0, 0, 0] = np.nan
        with pytest.raises(ValueError):
            graded_inverse(bad, 2)
        with pytest.raises(ValueError):
            graded_expm(bad, 2)

    @pytest.mark.parametrize("ngen", [3, 8])
    def test_pattern_break_raises(self, ngen):
        # an odd coefficient in the even a block: declared even, the array
        # is refused on both sides of the cap, never cut to its pattern
        rng = np.random.default_rng([ngen, 19])
        x = stack_of(rng, 2, 2, ngen, size=2)
        bad = x.copy()
        bad[1, 1, 0, 1] = 0.5
        for call in (lambda: graded_matmul(bad, x, 2), lambda: graded_matmul(x, bad, 2),
                     lambda: graded_inverse(bad, 2), lambda: graded_expm(0.1 * bad, 2),
                     lambda: graded_inverse(bad[1], 2)):
            with pytest.raises(ParityPatternError):
                call()
        with pytest.raises(ValueError):
            graded_matmul(x[..., :3], x[..., :3, :], 2)       # not square
        with pytest.raises(ValueError):
            graded_inverse(x, 5)                              # m > d
        # undeclared, the kernel takes any input: the oracle agrees
        want = left_regular(bad[1]) @ left_regular(x[0])
        assert np.abs(left_regular(graded_matmul(bad[1], x[0])) - want).max() <= 1e-12


# every even (m|d-m) pattern, d <= 6, that takes the split route
SPLIT_SHAPES = [(n, d, m) for n in range(1, 8) for d in range(1, 7) for m in range(d + 1)
                if (1 << n) * d <= SPLIT_MAX]


def even_stack(rng, n, d, m, size=3):
    """Random (size, 2^n, d, d) coefficients on the even (m|d-m) pattern."""
    out = rng.uniform(-1.0, 1.0, (size, 1 << n, d, d))
    out[:, pattern_mask(n, d, m)] = 0.0
    return out


class TestRunBuild:
    """EvenSplit.regular moves whole runs of gcd(m, d - m) columns; the coefficient plan is the oracle."""

    @pytest.mark.parametrize("ngen", range(1, 8))
    def test_runs_equal_coefficient_plan(self, ngen):
        shapes = [(d, m) for n, d, m in SPLIT_SHAPES if n == ngen]
        assert shapes
        for d, m in shapes:
            stack = even_stack(np.random.default_rng([ngen, d, m, 41]), ngen, d, m)
            split = grassmann.even_route(m, stack)
            assert split.run == math.gcd(m, d - m)
            want = coefficient_regular(stack, m)
            assert np.array_equal(split.regular(stack), want)
            for k in range(len(stack)):
                assert np.array_equal(split.regular(stack[k]), want[k])
            assert np.array_equal(split.regular(stack[:, None][::2]), want[:, None][::2])

    @pytest.mark.parametrize("m, n, ngen, run", [(1, 1, 5, 1), (1, 1, 7, 1), (2, 2, 5, 2), (2, 2, 6, 2),
                                                 (2, 1, 6, 2)])
    def test_group_members(self, m, n, ngen, run):
        # OSp(1|2) moves single columns; OSp(2|4) runs of 2 with padded slots
        group = OspGroup(m, n, ngen)
        rng = np.random.default_rng([m, n, ngen, 42])
        stack = np.array([group.sample_member(rng).coeffs for _ in range(3)])
        split = grassmann.even_route(m, stack)
        assert split.run == run and split.shape[-1] == max(m, 2 * n)
        blocks = split.regular(stack)
        assert np.array_equal(blocks, coefficient_regular(stack, m))
        v0, v1 = parity_classes(m, m + 2 * n, ngen)
        if ngen <= 5:
            L = left_regular(stack[0])
            assert np.array_equal(blocks[0, 0], L[np.ix_(v0, v0)])
            assert np.array_equal(blocks[0, 1], L[np.ix_(v1, v1)])


# (n, d, m) for the split point's oracle: (0|d), (d|0), m = d - m, m != d - m
# in runs of 1 and, where 2^n d <= SPLIT_MAX allows d = 6, in runs of 2
SPLIT_POINT_SHAPES = ([(n, d, m) for n in range(1, 7) for d, m in ((4, 0), (4, 4), (4, 2), (3, 1), (6, 2), (6, 4))]
                      + [(7, 4, 0), (7, 4, 4), (7, 4, 2), (7, 4, 1), (8, 2, 0), (8, 2, 2), (8, 2, 1),
                         (9, 1, 0), (9, 1, 1)])


def sparse_even(rng, n, d, m, terms):
    """(2^n, d, d) coefficients on the even (m|d-m) pattern, at most terms monomials an entry."""
    out = np.zeros((1 << n, d, d))
    allowed = ~pattern_mask(n, d, m)
    for i, j in np.ndindex(d, d):
        masks = np.flatnonzero(allowed[:, i, j])
        pick = rng.choice(masks, min(terms, len(masks)), replace=False)
        out[pick, i, j] = rng.uniform(-1.0, 1.0, len(pick))
    return out


def dict_matmul(x, y):
    """x y by dict_product entry by entry, and each entry's sum of |term pair| products."""
    n, d = x.shape[0].bit_length() - 1, x.shape[1]
    gx, gy = array_to_gmat(x), array_to_gmat(y)
    out, scale = np.zeros(x.shape), np.zeros(x.shape)
    for i, k in np.ndindex(d, d):
        column = [gy[j][k] for j in range(d)]
        out[:, i, k] = dict_product(gx[i], column, n).dense()
        for e, f in zip(gx[i], column):
            for p, a in e.terms.items():
                for q, b in f.terms.items():
                    if not p & q:
                        scale[p | q, i, k] += abs(a * b)
    return out, scale


class TestSplitPoint:
    """One-shot products at split point a: the top a generators go into the right operand."""

    @pytest.mark.parametrize("n, d, m", SPLIT_POINT_SHAPES)
    def test_every_split_point_equals_dict_product(self, n, d, m):
        rng = np.random.default_rng([n, d, m, 43])
        terms = 1 << n if n <= 5 else 12
        x, y = sparse_even(rng, n, d, m, terms), sparse_even(rng, n, d, m, terms)
        want, scale = dict_matmul(x, y)
        tol = 16 * np.finfo(float).eps * scale.max()
        got = graded_matmul(x, y, m)
        assert np.abs(got - want).max() <= tol and not got[pattern_mask(n, d, m)].any()
        for a in range(n):
            split = grassmann.EvenSplit(n, d, m, a)
            assert split.run == math.gcd(m, d - m)
            assert np.abs(split.product(x, y) - want).max() <= tol

    @pytest.mark.parametrize("n", range(1, 10))
    def test_split_point_rule(self, n):
        assert grassmann.split_point(n) == (n // 2 if n >= 4 else 0)
        split = grassmann.even_route(1, np.zeros((1 << n, 1, 1)))
        plan = split.one_shot
        assert (plan.n, plan.a) == (n, grassmann.split_point(n)) and split.a == 0
        # a balanced plan's operands hold about 2^(3n/2) d^2 floats where L holds 2^(2n-1) d^2
        if plan.a:
            assert plan.items < split.left_items

    @pytest.mark.parametrize("n, d, m", [(4, 4, 2), (5, 6, 2), (6, 4, 2), (6, 3, 1), (7, 4, 0), (8, 2, 1),
                                         (9, 1, 1)])
    def test_stacks_equal_members(self, n, d, m):
        rng = np.random.default_rng([n, d, m, 44])
        x, y = even_stack(rng, n, d, m), even_stack(rng, n, d, m)
        whole = graded_matmul(x, y, m)
        grid = graded_matmul(x[:, None], y[None, :2], m)
        for k in range(len(x)):
            assert bit_equal(whole[k], graded_matmul(x[k], y[k], m))
            for j in range(2):
                assert bit_equal(grid[k, j], graded_matmul(x[k], y[j], m))
        assert bit_equal(graded_matmul(x[0], y, m)[1], graded_matmul(x[0], y[1], m))

    @pytest.mark.parametrize("n, d, m", [shape for shape in SPLIT_SHAPES if shape[0] <= 3])
    def test_below_four_generators_is_the_split_form(self, n, d, m):
        # a = 0 below BALANCED_MIN_N: the product is today's L @ t, bit for bit
        stack = even_stack(np.random.default_rng([n, d, m, 45]), n, d, m)
        split = grassmann.even_route(m, stack)
        want = canonical(split.unpack(split.regular(stack) @ split.pack(stack[::-1])))
        assert bit_equal(graded_matmul(stack, stack[::-1], m), want)
        assert bit_equal(graded_matmul(stack[0], stack[2], m), want[0])

    @pytest.mark.parametrize("m, n, ngen", [(2, 1, 4), (2, 1, 6), (1, 2, 5), (2, 2, 5), (1, 1, 7)])
    def test_fused_defect_equals_gathered_product(self, m, n, ngen):
        # M^st H is read through transpose_plan inside the plan: the defect is
        # the product's of the gathered transpose, bit for bit, and within
        # rounding of the pair table's
        group = OspGroup(m, n, ngen)
        d, H = m + 2 * n, group.H_matrix().coeffs
        rng = np.random.default_rng([m, n, ngen, 46])
        members = np.array([group.sample_member(rng).coeffs for _ in range(2)])
        near = members[0] + 1e-6 * random_supermatrix(rng, m, 2 * n, ngen).coeffs
        # below the cutoff: the raw left operand would add 2 e, above COEFF_CUTOFF
        tiny = np.array(SuperMatrix.identity(m, 2 * n, ngen).coeffs)
        tiny[3, 0, 0] = 0.9 * COEFF_CUTOFF
        stack = np.array([members[0], near, tiny, members[1]])
        plan = transpose_plan(m, d, graded=True)
        got = group.membership_defect(stack)
        st_h = canonical(signed_gather(stack, plan))
        split_route = np.abs(canonical(graded_matmul(st_h, stack, m)) - H).max(axis=(-3, -2, -1))
        assert bit_equal(got, np.where(split_route < COEFF_CUTOFF, 0.0, split_route))
        table = np.abs(graded_matmul(st_h, stack) - H).max(axis=(-3, -2, -1))
        assert np.abs(got - table).max() <= 1e-14 and got[2] == 0.0 and got[1] > 1e-7
        for k, M in enumerate(stack):
            assert group.membership_defect(M) == got[k]
        assert group.membership_defect(SuperMatrix.from_coeffs(m, 2 * n, members[1])) == got[3]


# ----------------------------------------------------------------------
# loop oracles for the algebra data

# the reference's singularity rule is a determinant test, kept independent of
# the library's rank rule: the builders' Gram determinants are integers of
# size at least 1, and a duplicated generator makes them rounding
GRAM_DET_TOL = 1e-10


def loop_structure_constants(rep, parities, m):
    """One Gram entry, one bracket, one solve and one reconstruction at a time."""
    def str_body(mat):
        return float(np.trace(mat[:m, :m]) - np.trace(mat[m:, m:]))

    dim = len(rep)
    gram = np.zeros((dim, dim))
    for i in range(dim):
        for j in range(dim):
            gram[i, j] = str_body(rep[i] @ rep[j])
    if abs(np.linalg.det(gram)) < GRAM_DET_TOL:
        raise ValueError("supertrace form is degenerate on this basis")
    f = np.zeros((dim, dim, dim))
    for i in range(dim):
        for j in range(dim):
            if parities[i] and parities[j]:
                br = rep[i] @ rep[j] + rep[j] @ rep[i]
            else:
                br = rep[i] @ rep[j] - rep[j] @ rep[i]
            rhs = np.array([str_body(br @ rep[l]) for l in range(dim)])
            f[i, j] = np.linalg.solve(gram.T, rhs)
            recon = sum(f[i, j, k] * rep[k] for k in range(dim))
            if np.abs(recon - br).max() > 1e-10:
                raise ValueError(f"bracket ({i},{j}) does not close on the basis")
    return f, gram


def loop_validate(f, parities):
    """The triple loop over (i, j, k); returns the first message, or None."""
    dim = len(parities)
    for i in range(dim):
        for j in range(dim):
            sign = -1.0 if (parities[i] and parities[j]) else 1.0
            if np.abs(f[i, j] + sign * f[j, i]).max() > EXACT_TOL:
                return f"graded antisymmetry violated at ({i},{j})"
            for k in range(dim):
                if (parities[i] + parities[j] - parities[k]) % 2 and abs(f[i, j, k]) > EXACT_TOL:
                    return f"parity selection rule violated at ({i},{j},{k})"
    return None


def loop_osp12_relation_residual(rep, eps_scale):
    """The osp(1|2) defining relations checked one index pair at a time."""
    J, Q = rep[:3], rep[3:]
    eta_inv = np.linalg.inv(np.diag([-1.0, 1.0, 1.0]))
    sigmas = [SIGMA0, SIGMA1, SIGMA2]
    eps = np.zeros((3, 3, 3))
    for a, b, c in itertools.permutations(range(3)):
        sign = 1.0 if (a, b, c) in ((0, 1, 2), (1, 2, 0), (2, 0, 1)) else -1.0
        eps[a, b, c] = sign * eps_scale
    eps_up = np.einsum("abc,cd->abd", eps, eta_inv)
    sigma_up = [sum(eta_inv[a, b] * (sigmas[b] @ EPS2) for b in range(3)) for a in range(3)]
    res = 0.0
    for a, b in itertools.product(range(3), repeat=2):
        target = sum(eps_up[a, b, c] * J[c] for c in range(3))
        res = max(res, np.abs(J[a] @ J[b] - J[b] @ J[a] - target).max())
    for a, al in itertools.product(range(3), range(2)):
        target = sum(sigmas[a][al, be] * Q[be] for be in range(2))
        res = max(res, np.abs(J[a] @ Q[al] - Q[al] @ J[a] - target).max())
    for al, be in itertools.product(range(2), repeat=2):
        target = sum(sigma_up[a][al, be] * J[a] for a in range(3))
        res = max(res, np.abs(Q[al] @ Q[be] + Q[be] @ Q[al] - target).max())
    return res


def message(fn, *args):
    try:
        fn(*args)
    except ValueError as exc:
        return str(exc)
    return None


# every size build_osp accepts: m >= 1, n >= 1, m + 2n <= MAX_OSP_SIZE
OSP_SIZES = [(m, n) for n in range(1, MAX_OSP_SIZE // 2) for m in range(1, MAX_OSP_SIZE - 2 * n + 1)]


class TestAlgebraLoops:
    def test_every_size_is_covered(self):
        assert len(OSP_SIZES) == 12

    @pytest.mark.parametrize("m, n", OSP_SIZES)
    def test_build_osp_bit_equal_to_loop(self, m, n):
        alg = build_osp(m, n)
        f, gram = loop_structure_constants(alg.rep, alg.parities, m)
        assert bit_equal(alg.f, f)
        assert bit_equal(alg.eta, gram)

    def test_osp12_bit_equal_to_loop(self):
        alg = build_osp12()
        f, gram = loop_structure_constants(alg.rep, alg.parities, 1)
        batched = _structure_constants_from_rep(alg.rep, alg.parities, 1)
        assert bit_equal(alg.f, f)
        assert bit_equal(batched[0], f)
        assert bit_equal(batched[1], gram)

    @pytest.mark.parametrize("eps_scale", [1.0, 2.0, -2.0, 3.0])
    @pytest.mark.parametrize("t_sign, mu1", itertools.product((1.0, -1.0), repeat=2))
    def test_osp12_relation_residual_matches_loop(self, t_sign, mu1, eps_scale):
        # the sign choices lam = (-t, 1, t), mu = (mu1, t mu1) scale build_osp12's (-1, 1, 1), (1, 1)
        rep = [s * R for s, R in zip((t_sign, 1.0, t_sign, mu1, t_sign * mu1), build_osp12().rep)]
        assert _osp12_relation_residual(rep, eps_scale) == loop_osp12_relation_residual(rep, eps_scale)

    @pytest.mark.parametrize("tamper", [
        [((1, 2, 0), 0.5)],                              # antisymmetry, even-even
        [((2, 1, 0), 0.5)],                              # the same pair seen from below
        [((0, 11, 2), 0.5), ((11, 0, 2), -0.5)],         # parity rule, even-odd into even
        [((11, 12, 13), 0.5), ((12, 11, 13), 0.5)],      # parity rule, odd-odd into odd
        [((0, 11, k), 0.5) for k in (5, 2)] + [((11, 0, k), -0.5) for k in (5, 2)],  # the first k
        [((3, 4, 15), 0.5)],                             # both at one pair: antisymmetry first
        [((18, 17, 5), 0.5), ((4, 4, 14), 0.5)],         # the earlier pair wins
        [((11, 12, 13), 0.5), ((12, 11, 13), 0.5), ((12, 11, 0), 0.5)],
        [((1, 2, 0), 0.5 * EXACT_TOL), ((0, 11, 12), 0.5 * EXACT_TOL)],  # under tolerance
    ])
    def test_validate_message_matches_loop(self, tamper):
        alg = build_osp(2, 2)   # osp(2|4): 11 even generators, then 8 odd
        f = alg.f.copy()
        for idx, delta in tamper:
            f[idx] += delta
        expected = loop_validate(f, alg.parities)
        assert message(dataclasses.replace(alg, f=f).validate) == expected
        assert (expected is None) == (tamper[0][1] < EXACT_TOL)

    @pytest.mark.parametrize("seed", range(20))
    def test_validate_random_tampers_match_loop(self, seed):
        rng = np.random.default_rng([seed, 19])
        alg = build_osp12() if seed % 2 else build_osp(2, 1)
        f = alg.f.copy()
        for _ in range(rng.integers(1, 4)):
            i, j, k = rng.integers(0, alg.dim, 3)
            delta = rng.choice([1e-13, 0.25, -3.0])
            f[i, j, k] += delta
            if rng.integers(2):   # keep graded antisymmetry, so the parity rule decides
                f[j, i, k] -= (-1.0 if alg.parities[i] and alg.parities[j] else 1.0) * delta
        assert message(dataclasses.replace(alg, f=f).validate) == loop_validate(f, alg.parities)

    @pytest.mark.parametrize("build, drop", [(build_osp12, 1), (lambda: build_osp(2, 2), 0),
                                             (lambda: build_osp(2, 1), 0)])
    def test_dropped_generator_does_not_close(self, build, drop):
        alg = build()
        rep = alg.rep[:drop] + alg.rep[drop + 1:]
        parities = alg.parities[:drop] + alg.parities[drop + 1:]
        m = alg.block_m
        expected = message(loop_structure_constants, rep, parities, m)
        assert expected is not None and expected.endswith("does not close on the basis")
        assert message(_structure_constants_from_rep, rep, parities, m) == expected

    @pytest.mark.parametrize("build", [build_osp12, lambda: build_osp(1, 2)])
    def test_duplicated_generator_is_degenerate(self, build):
        alg = build()
        rep, parities = alg.rep + alg.rep[-1:], alg.parities + alg.parities[-1:]
        expected = message(loop_structure_constants, rep, parities, alg.block_m)
        assert expected == "supertrace form is degenerate on this basis"
        assert message(_structure_constants_from_rep, rep, parities, alg.block_m) == expected


# ----------------------------------------------------------------------
# the element routes: the builders as they ran on GrassmannElement and
# GradedPolynomial values, one coefficient at a time
# ----------------------------------------------------------------------

def element_nonexp_samples(cal_a1, cal_a2, grid_points):
    """build_nonexp_holonomy's U1 then U2 samples, each generator a vector of elements."""
    alg = build_osp12()
    direction, _ = OSP12_DIRECTIONS["hyperbolic"]
    psi1 = tuple(GrassmannElement.theta(k + 1, NONEXP_NGEN) * c for k, c in enumerate(NONEXP_PSI))
    grid = np.linspace(0.0, 2.0 * math.pi, grid_points + 1)

    def path(phi, amp):
        coeffs = [GrassmannElement.scalar(amp * c * phi, NONEXP_NGEN) for c in direction]
        coeffs += [psi * phi for psi in psi1]
        body = np.zeros((3, 3))
        body[0, 0] = 1.0
        body[1:, 1:] = rotation(phi / 2.0)
        D = SuperMatrix.from_body(body, 1, 2, NONEXP_NGEN)
        X = SuperMatrix.from_coeffs(1, 2, alg.embed(np.stack([c.dense() for c in coeffs], axis=1)))
        return D @ X.expm()

    return [path(phi, amp) for amp in (cal_a1, cal_a2) for phi in grid]


def element_random_coeffs(rng, m, n, ngen, parity=0, scale=1.0):
    """random_coeffs drawn entry by entry as random_element values."""
    d = m + n
    rows = [[random_element(rng, ngen, parity=((i >= m) ^ (j >= m)) ^ parity, scale=scale)
             for j in range(d)] for i in range(d)]
    return gmat_to_array(rows, ngen)


def polynomial_odd_rows(alg, even_values):
    """The odd flatness polynomials at A = even_values, as linear forms in the psi slots."""
    _, odd_G = flatness_constraints(alg)
    rows = np.zeros((len(odd_G), 2 * alg.n_odd))
    for row, g in zip(rows, odd_G):
        for (exps, mask), coeff in g.terms.items():
            assert mask.bit_count() == 1
            factor = coeff
            for s, e in enumerate(exps):
                factor *= float(even_values[s]) ** e
            row[mask.bit_length() - 1] += factor
    return rows


class TestElementRoutes:
    @pytest.mark.parametrize("cal_a1, cal_a2, grid_points",
                             [(0.35, -0.2, 64), (0.3, 0.1, 16), (0.2, 0.1, 32), (1.3, -0.7, 9)])
    def test_nonexp_family_equals_element_route(self, cal_a1, cal_a2, grid_points):
        fam = build_nonexp_holonomy(cal_a1, cal_a2, grid_points)
        want = element_nonexp_samples(cal_a1, cal_a2, grid_points)
        assert len(fam.U1 + fam.U2) == len(want) == 2 * (grid_points + 1)
        for got, ref in zip(fam.U1 + fam.U2, want):
            assert np.array_equal(got.coeffs, ref.coeffs)

    @pytest.mark.parametrize("m, n, ngen, parity, scale",
                             [(1, 2, 2, 0, 1.0), (1, 2, 2, 1, 1.0), (2, 2, 3, 1, 0.4), (2, 1, 5, 0, 0.6),
                              (0, 0, 2, 0, 1.0), (1, 1, 0, 0, 1.0), (0, 3, 1, 1, 2.0)])
    def test_random_supermatrix_equals_element_draws(self, m, n, ngen, parity, scale):
        for seed in range(4):
            rng, ref = np.random.default_rng([seed, ngen]), np.random.default_rng([seed, ngen])
            for _ in range(3):
                got = random_coeffs(rng, m, n, ngen, parity, scale)
                assert np.array_equal(got, element_random_coeffs(ref, m, n, ngen, parity, scale))
            assert rng.random() == ref.random()

    @pytest.mark.parametrize("m, n", [(0, 0)] + OSP_SIZES)      # (0, 0): the explicit osp(1|2)
    def test_odd_constraint_rows_equal_polynomial_forms(self, m, n):
        alg = build_osp12() if m == 0 else build_osp(m, n)
        rng = np.random.default_rng([m, n, 29])
        for _ in range(5):
            c = rng.uniform(-1.0, 1.0, alg.n_even)
            A1, A2 = rng.uniform(-2.0, 2.0, 2)
            even_values = np.concatenate([A1 * c, A2 * c])
            assert bit_equal(_odd_constraint_rows(alg, even_values), polynomial_odd_rows(alg, even_values))


# ----------------------------------------------------------------------
# membership_defect against the route it replaced
# ----------------------------------------------------------------------

def block_supertranspose(coeffs, m, parity=0):
    """The graded transpose by block signs: a transposed copy, two signed block scalings, canonical.

    On the odd pattern (parity 1) the off-diagonal signs flip, which is what
    makes (XY)^st = (-1)^{|X||Y|} Y^st X^st hold for both parities."""
    sign = -1.0 if parity else 1.0
    out = np.swapaxes(coeffs, -1, -2).copy()
    out[..., :m, m:] *= sign
    out[..., m:, :m] *= -sign
    return canonical(out)


def defect_by_body_product(group, M):
    """max |M^st H M - H| with M^st H a kernel product of the transpose and H."""
    H = group.H_matrix().coeffs
    trusted = isinstance(M, SuperMatrix)
    M = M.coeffs if trusted else M
    st_h = graded_matmul(block_supertranspose(M, group.m), H)
    residual = canonical(graded_matmul(st_h, M, group.m, check=not trusted) - H)
    worst = np.abs(residual).max(axis=(-3, -2, -1), initial=0.0)
    return float(worst) if worst.ndim == 0 else worst


def defect_on_full_array(group, M):
    """max |M^st H M - H| by the gather, with the residual over the whole (2^N, d, d) array."""
    H = group.H_matrix().coeffs
    trusted = isinstance(M, SuperMatrix)
    M = M.coeffs if trusted else M
    st_h = signed_gather(M, transpose_plan(group.m, M.shape[-1], graded=True))
    residual = canonical(graded_matmul(st_h if trusted else canonical(st_h), M, group.m, check=not trusted) - H)
    worst = np.abs(residual).max(axis=(-3, -2, -1), initial=0.0)
    return float(worst) if worst.ndim == 0 else worst


def same_defects(group, members):
    """Each member's defect and the stack's equal the old routes', bit for bit."""
    for M in members:
        got = group.membership_defect(M)
        assert np.array_equal(got, defect_by_body_product(group, M))
        assert np.array_equal(got, defect_on_full_array(group, M)) and type(got) is float
    stack = np.array([M.coeffs if isinstance(M, SuperMatrix) else M for M in members])
    got = group.membership_defect(stack)
    assert np.array_equal(got, defect_by_body_product(group, stack))
    assert np.array_equal(got, defect_on_full_array(group, stack))
    assert got.tolist() == [group.membership_defect(M) for M in members]
    return got


GATHER_SIZES = [(1, 1), (2, 1), (1, 2), (2, 2)]     # OSp(1|2), (2|2), (1|4), (2|4)


class TestMembershipGather:
    @pytest.mark.parametrize("m, n", GATHER_SIZES)
    @pytest.mark.parametrize("parity", [0, 1])
    def test_plan_equals_block_signs(self, m, n, parity):
        # the plan is the even transpose's; its gather reads no pattern, so on
        # odd arrays (parity 1), which membership_defect gathers before its
        # scan refuses them, it is still the even block-sign transpose
        d = m + 2 * n
        for ngen in (0, 1, 3):
            x = random_coeffs(np.random.default_rng([m, n, ngen, parity]), m, 2 * n, ngen, parity)
            stack = np.array([x, 2.0 * x, -x])
            for arr in (x, stack, x[0]):
                assert bit_equal(supertranspose_coeffs(arr, m), block_supertranspose(arr, m))
                gathered = canonical(signed_gather(arr, transpose_plan(m, d, graded=True)))
                assert bit_equal(gathered, canonical(block_supertranspose(arr, m) @ graded_form(m, 2 * n)))

    @pytest.mark.parametrize("m, n", GATHER_SIZES)
    @pytest.mark.parametrize("ngen", [3, 4, 5, 6, 7])
    def test_members(self, m, n, ngen):
        group = OspGroup(m, n, ngen)
        rng = np.random.default_rng([m, n, ngen])
        defects = same_defects(group, [group.sample_member(rng) for _ in range(3)])
        assert defects.max() <= 1e-10

    @pytest.mark.parametrize("m, n", GATHER_SIZES)
    @pytest.mark.parametrize("ngen", [3, 6])
    def test_perturbed_non_members(self, m, n, ngen):
        group = OspGroup(m, n, ngen)
        rng = np.random.default_rng([m, n, ngen, 1])
        M = group.sample_member(rng)
        for noise in (1e-13, 1e-11, 1e-9, 1e-6, 1e-3):
            raw = [M.coeffs + noise * random_supermatrix(rng, m, 2 * n, ngen).coeffs for _ in range(3)]
            # raw stacks keep entries below COEFF_CUTOFF; SuperMatrix drops them
            same_defects(group, raw)
            defects = same_defects(group, [SuperMatrix.from_coeffs(m, 2 * n, c) for c in raw])
            if noise >= 1e-9:
                assert defects.min() > 0.0

    @pytest.mark.parametrize("m, n, ngen", [(1, 1, 4), (2, 2, 6), (2, 1, 8)])     # split, split, table
    def test_worst_below_the_cutoff_reads_zero(self, m, n, ngen):
        # noise of 1e-15 on the bodies leaves residuals below COEFF_CUTOFF,
        # some of them nonzero, so the worst reads 0; noise of 1e-3 on every
        # coefficient gives the largest residual
        group = OspGroup(m, n, ngen)
        rng = np.random.default_rng([m, n, ngen, 5])
        members = [group.sample_member(rng) for _ in range(3)]
        H = group.H_matrix().coeffs
        for noise, souls in ((1e-15, 0.0), (1e-3, 1.0)):
            raw = [M.coeffs + noise * random_supermatrix(rng, m, 2 * n, ngen).coeffs
                   * np.where(np.arange(1 << ngen) == 0, 1.0, souls)[:, None, None] for M in members]
            defects = same_defects(group, raw)
            assert np.array_equal(defects, [defect_on_full_array(group, M) for M in raw])
            if noise < COEFF_CUTOFF:
                assert defects.tolist() == [0.0] * 3
                st_h = signed_gather(raw[0], transpose_plan(m, m + 2 * n, graded=True))
                assert 0.0 < np.abs(graded_matmul(st_h, raw[0], m) - H).max() < COEFF_CUTOFF
            else:
                assert defects.min() > 1e-4

    @pytest.mark.parametrize("m, n", GATHER_SIZES)
    def test_raw_entries_below_the_cutoff(self, m, n):
        # a raw stack's M^st H drops coefficients below COEFF_CUTOFF, as the
        # canonical transpose it replaced did.  For M = I + e, e = 0.9
        # COEFF_CUTOFF theta1 theta2 at (0, 0), M^st H M - H then keeps only
        # H e, below the cutoff too; a gather left raw would give 2 e, above it
        group = OspGroup(m, n, 4)
        M = np.array(SuperMatrix.identity(m, 2 * n, 4).coeffs)
        M[3, 0, 0] = 0.9 * COEFF_CUTOFF
        assert same_defects(group, [M]).tolist() == [0.0]

    @pytest.mark.parametrize("m, n", GATHER_SIZES)
    def test_odd_parity(self, m, n):
        # an odd array is no member: the defect refuses it, naming M's first
        # entry off the even pattern, as from_coeffs refuses to build it
        group = OspGroup(m, n, 4)
        rng = np.random.default_rng([m, n, 2])
        for _ in range(3):
            M = random_coeffs(rng, m, 2 * n, 4, 1)
            for call in (group.membership_defect, lambda x: group.membership_defect(x[None]),
                         lambda x: SuperMatrix.from_coeffs(m, 2 * n, x)):
                with pytest.raises(ParityPatternError, match=r"^entry \(0, 0\) must be even on the even"):
                    call(M)

    def test_table_route(self):
        group = OspGroup(2, 1, 8)
        assert (1 << group.ngen) * (group.m + group.two_n) > SPLIT_MAX
        rng = np.random.default_rng(8)
        M = group.sample_member(rng)
        noisy = M.coeffs + 1e-6 * random_supermatrix(rng, 2, 2, 8).coeffs
        same_defects(group, [M, group.sample_member(rng)])
        same_defects(group, [noisy, M.coeffs])

    def test_non_finite_stack_raises(self):
        group = OspGroup(1, 1, 3)
        bad = np.array(group.sample_member(np.random.default_rng(0)).coeffs)
        bad[2, 1, 0] = np.nan
        for fn in (group.membership_defect, lambda x: defect_by_body_product(group, x)):
            with pytest.raises(ValueError, match="non-finite"):
                fn(bad)

    @pytest.mark.parametrize("m, n, ngen", [(1, 1, 5), (2, 2, 5), (2, 1, 8)])
    def test_non_finite_member_of_a_stack_raises(self, m, n, ngen):
        group = OspGroup(m, n, ngen)
        rng = np.random.default_rng([m, n, ngen, 3])
        stack = np.array([group.sample_member(rng).coeffs for _ in range(3)])
        for mask, value in ((3, np.nan), (0, np.inf)):
            bad = stack.copy()
            bad[1, mask, 0, 0] = value
            with pytest.raises(ValueError, match="non-finite"):
                group.membership_defect(bad)

    @pytest.mark.parametrize("m, n, ngen, run", [(1, 1, 5, 1), (1, 1, 7, 1), (2, 2, 5, 2), (2, 1, 6, 2)])
    def test_split_slots(self, monkeypatch, m, n, ngen, run):
        # OSp(2|4) at N = 5: d = 6, runs of 2 and padded slots; OSp(1|2): runs of 1
        group = OspGroup(m, n, ngen)
        d = m + 2 * n
        split = grassmann.even_route(m, group.H_matrix().coeffs)
        assert split.run == run and split.shape[-1] == max(m, d - m)
        rng = np.random.default_rng([m, n, ngen, 4])
        members = [group.sample_member(rng) for _ in range(3)]
        near = [M.coeffs + 1e-7 * random_supermatrix(rng, m, 2 * n, ngen).coeffs for M in members]
        same_defects(group, members)
        assert same_defects(group, near).min() > 0.0
        grid = np.array(near + [M.coeffs for M in members]).reshape(2, 3, 1 << ngen, d, d)
        whole = group.membership_defect(grid)
        assert whole.shape == (2, 3) and np.array_equal(whole, defect_on_full_array(group, grid))
        # one member per slice of SPLIT_BYTES gives the unsliced stack's defects
        monkeypatch.setattr(grassmann, "SPLIT_BYTES", 1)
        assert np.array_equal(group.membership_defect(grid), whole)



# ----------------------------------------------------------------------
# the draw plan and the parity refusal against the steps they replaced
# ----------------------------------------------------------------------

def loop_sample_stack(group, rngs, components=True):
    """sample_stack one sample at a time by the steps the draw plan replaced: the slot scan over the
    (dim, 2^N) mask, the draws, the even souls halved afterwards, embed of the swapped table and the
    reflection by a boolean mask."""
    alg = group.algebra()
    odd_masks = grade_signs(group.ngen)[:, 0, 0] < 0
    slots = np.flatnonzero(odd_masks[None, :] == alg.odd_mask[:, None])
    members = []
    for rng in rngs:
        table = np.zeros((1, alg.dim, 1 << group.ngen))
        table.reshape(1, -1)[0, slots] = rng.uniform(-SAMPLE_SCALE, SAMPLE_SCALE, len(slots))
        flip = np.array([components and rng.random() < 0.5])
        table[:, alg.even_mask, 1:] *= 0.5
        canonical(table)
        block = graded_expm(alg.embed(table.swapaxes(1, 2)), group.m, check=False)
        block[flip, :, 0] = canonical(-block[flip, :, 0])
        members.append(block[0])
    return np.array(members)


class TestDrawPlan:
    """sample_stack and sample_member, drawn at the cached plan, equal the scanning loop bit for bit."""

    @pytest.mark.parametrize("m, n", GATHER_SIZES)
    @pytest.mark.parametrize("ngen", [0, 1, 2, 6, 8])
    def test_stack_and_member_equal_the_loop(self, m, n, ngen):
        group = OspGroup(m, n, ngen)
        for components in (True, False):
            seeds = [[m, n, ngen, k, components] for k in range(3)]
            rngs, ref = ([np.random.default_rng(s) for s in seeds] for _ in range(2))
            # the first generator comes twice: its second sample reads on in its stream
            stack = group.sample_stack(rngs + rngs[:1], components)
            assert bit_equal(stack, loop_sample_stack(group, ref + ref[:1], components))
            member = group.sample_member(rngs[1], components)
            assert bit_equal(member.coeffs, loop_sample_stack(group, ref[1:2], components)[0])
            for rng, r in zip(rngs, ref):
                assert rng.random() == r.random()

    def test_stack_across_chunks(self):
        # OSp(2|2) over B_7: 8 members a chunk, so 11 run as 8 and a short 3
        group = OspGroup(2, 1, 7)
        assert grassmann.stack_chunk((1 << 7, 4, 4)) == 8
        rngs, ref = ([np.random.default_rng([7, k]) for k in range(10)] for _ in range(2))
        stack = group.sample_stack(rngs + rngs[:1])
        assert bit_equal(stack, loop_sample_stack(group, ref + ref[:1]))
        for rng, r in zip(rngs, ref):
            assert rng.random() == r.random()


def two_mask_refusal(alg, coeffs):
    """The parity refusal of embed and bracket by the two-mask scan it replaced: the message naming
    the first generator with a nonzero coefficient of the other parity, or None."""
    coeffs = np.asarray(coeffs, dtype=float)
    size = coeffs.shape[-2]
    wrong = (grade_signs(size.bit_length() - 1)[:, :, 0] < 0) != alg.odd_mask
    bad = ((coeffs != 0.0) & wrong).reshape(-1, alg.dim).any(axis=0)
    if not bad.any():
        return None
    i = int(np.argmax(bad))
    return f"coefficient {i} must have Grassmann parity {alg.parities[i]}"


class TestParityRefusal:
    @pytest.mark.parametrize("build", [build_osp12, lambda: build_osp(2, 1), lambda: build_osp(1, 2)])
    @pytest.mark.parametrize("ngen", range(7))
    def test_same_message_as_the_two_mask_scan(self, build, ngen):
        alg = build()
        rng = np.random.default_rng([alg.dim, ngen])
        wrong = (grade_signs(ngen)[:, :, 0] < 0) != alg.odd_mask
        good = rng.uniform(-1.0, 1.0, (3, 1 << ngen, alg.dim)) * ~wrong
        named = set()
        for trial in range(12):
            bad = good.copy()
            # one to three off-parity coefficients in random members, a signed
            # zero (no refusal) or a NaN among them
            for _ in range(rng.integers(1, 4)):
                k, (q, i) = rng.integers(3), np.argwhere(wrong)[rng.integers(wrong.sum())]
                bad[k, q, i] = (-0.0, np.nan, rng.uniform(-1.0, 1.0))[trial % 3]
            # contiguous, transposed (a (..., dim, 2^N) array's swapped view) and one member
            for x in (bad, np.swapaxes(np.ascontiguousarray(np.swapaxes(bad, 1, 2)), 1, 2), bad[0]):
                want = two_mask_refusal(alg, x)
                named.add(want)
                if want is None:
                    assert alg.embed(x).shape[-2:] == alg.rep[0].shape
                    continue
                for call in (alg.embed, lambda c: alg.bracket(c, good[0]), lambda c: alg.bracket(good[0], c)):
                    with pytest.raises(ValueError) as info:
                        call(x)
                    assert str(info.value) == want
        assert None in named and len(named) > 2


# ----------------------------------------------------------------------
# the CLI's sampling loops: per-sample draws and sector representatives
# ----------------------------------------------------------------------

def random_signs(rng, size=None):
    """Uniform draws from {-1.0, 1.0}, equal in values and stream to
    rng.choice([-1.0, 1.0], size) at about half the cost."""
    return 2.0 * rng.integers(0, 2, size) - 1.0


def _loop_commuting_draws(m, n, rng):
    """One commuting sample's draws and generators, one rng.uniform call per block, and its kind."""
    two_n = 2 * n
    C = symplectic_form(two_n)
    K = rng.uniform(-1, 1, (m, m))
    K = K - K.T
    kind = rng.integers(0, 4)
    if kind == 1:
        S = np.zeros((two_n, two_n))
        S[0, 0] = 1.0
        Hs = C @ S
    elif kind == 2:
        Hs = np.zeros((two_n, two_n))
    elif kind == 3 and m > 1:
        K = np.zeros((m, m))
        S = rng.uniform(-0.8, 0.8, (two_n, two_n))
        Hs = C @ (S + S.T)
    else:
        S = rng.uniform(-0.8, 0.8, (two_n, two_n))
        Hs = C @ (S + S.T)
    t1, t2 = rng.uniform(0.2, 1.2, 2) * random_signs(rng, 2)
    u1, u2 = rng.uniform(0.2, 1.2, 2) * random_signs(rng, 2)
    signs = random_signs(rng, 2)
    L = rng.uniform(-1.0, 1.0, (m, m))
    S = rng.uniform(-0.7, 0.7, (two_n, two_n))
    return (u1 * K, u2 * K, L - L.T), (t1 * Hs, t2 * Hs, C @ (S + S.T)), signs, kind


def _loop_commuting_bodies(m, n, rngs):
    """commuting_bodies with the draws taken sample by sample; returns the four stacks and the kinds."""
    draws = [_loop_commuting_draws(m, n, rng) for rng in rngs]
    so_gens, sp_gens, signs, kinds = (np.array(x) for x in zip(*draws))
    so, sp = real_expm(so_gens), real_expm(sp_gens)
    signs = signs[:, :, None, None]
    P, Q = so[:, 2:], sp[:, 2:]
    a = P @ (signs * so[:, :2]) @ np.swapaxes(P, -1, -2)
    A = Q @ (signs * sp[:, :2]) @ np.linalg.inv(Q)
    return (a[:, 0], a[:, 1], A[:, 0], A[:, 1]), kinds


def _loop_osp22_rotation_det(rng, samples, tol):
    """checks.osp22_rotation_det with one rng.uniform call per draw."""
    draws = [(rng.uniform(0.0, 2 * np.pi), rng.uniform(-0.7, 0.7, (2, 2)), random_signs(rng))
             for _ in range(samples)]
    phi, S, signs = (np.array(x) for x in zip(*draws))
    A0 = real_expm(symplectic_form(2) @ (S + np.swapaxes(S, -1, -2))) * signs[:, None, None]
    c, s = np.cos(phi), np.sin(phi)
    a0 = np.stack([np.stack([c, -s], axis=-1), np.stack([s, c], axis=-1)], axis=-2)
    det = np.linalg.det(ahat(a0, A0))
    worst = float(np.abs(det - (2 * c - np.trace(A0, axis1=-2, axis2=-1)) ** 2).max())
    count = fermionic_moduli_count(rotation(0.4), rotation(1.1), rotation(0.4), rotation(1.1))
    return {"det_formula_worst_error": worst, "so2_so2_moduli": count,
            "passed": bool(worst <= tol and count == 4)}


class TestRandomSigns:
    """The loop oracle's signs replaced rng.choice([-1.0, 1.0], size), and the
    library's float32 draws replace them; all read the same values from the same stream."""

    @pytest.mark.parametrize("size", [None, 1, 2, 5])
    def test_same_values_and_stream_as_choice(self, size):
        for seed in range(300):
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            got, want = random_signs(rng, size), ref.choice([-1.0, 1.0], size)
            assert type(got) is type(want) and np.shape(got) == np.shape(want)
            assert np.array_equal(got, want)
            assert rng.random() == ref.random()

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_integers_from_random(self, k):
        # k float32 draws read what k integers(high) calls, or one call of size k, read;
        # an odd count leaves half a 64-bit draw buffered for the next 32-bit call,
        # and a double drawn in between leaves it there
        for seed in range(300):
            for high, dtype in itertools.product((2, 4), (np.int32, np.int64)):
                rng, ref, sized = (np.random.default_rng(seed) for _ in range(3))
                got = integers_from_random(rng.random(k, dtype=np.float32), high)
                assert got.dtype == np.int64 and got.shape == (k,)
                assert got.tolist() == [ref.integers(high, dtype=dtype) for _ in range(k)]
                assert got.tolist() == sized.integers(0, high, k, dtype=dtype).tolist()
                assert rng.random() == ref.random() == sized.random()
                assert integers_from_random(rng.random(dtype=np.float32), high) == ref.integers(high, dtype=dtype)
                assert rng.integers(4) == ref.integers(4) and rng.random() == ref.random()

    def test_uniform_from_random(self):
        for seed in range(100):
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            for lo, hi, shape in ((-1, 1, (3, 3)), (0.2, 1.2, 2), (0.0, 2 * np.pi, None), (-0.7, 0.7, (4, 4))):
                want = ref.uniform(lo, hi, shape)
                got = uniform_from_random(rng.random(shape), lo, hi)
                assert np.array_equal(got, want) and np.shape(got) == np.shape(want)

    def test_symplectic_form_is_shared_and_read_only(self):
        C = symplectic_form(4)
        assert C is symplectic_form(4) and not C.flags.writeable
        assert np.array_equal(C @ C, -np.eye(4)) and np.array_equal(C.T, -C)
        # a signed permutation: C @ X is exact, on a stack as on one matrix
        assert np.array_equal(np.abs(C) @ np.abs(C).T, np.eye(4))


class TestSpawnedWords:
    """The batched spawn against numpy's SeedSequence children and their PCG64 streams."""

    @pytest.mark.parametrize("samples", [1, 2, 50, 200])
    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**130 + 5])
    def test_equal_pcg64_of_each_child(self, seed, samples):
        # 2^130 + 5 has five 32-bit words, one more than SeedSequence's pool:
        # its fifth word goes through the third mixing loop
        got = _spawned_words(seed, samples, 11)
        want = [np.random.PCG64(c).random_raw(11) for c in np.random.SeedSequence(seed).spawn(samples)]
        assert got.dtype == np.uint64 and got.shape == (samples, 11)
        assert np.array_equal(got, want)

    def test_negative_seed_raises(self):
        with pytest.raises(ValueError):
            np.random.SeedSequence(-1)
        with pytest.raises(ValueError):
            _spawned_words(-1, 3, 5)


class TestSamplingLoops:
    """The stacked samplers against the per-sample loops they replaced, bit for bit."""

    @pytest.mark.parametrize("m, n", [(1, 1), (2, 1), (1, 2), (3, 2), (2, 2)])
    def test_commuting_bodies_equal_loop(self, m, n):
        # the word layout against the generator calls it stands for, one
        # default_rng per child; the kinds that draw S (0 and 3) and those that
        # do not (1 and 2) all occur, and 2^130 + 5 has five seed words
        for seed in (20 + 10 * m + n, 2**130 + 5):
            got = commuting_bodies(m, n, seed, 60)
            children = np.random.SeedSequence(seed).spawn(60)
            want, kinds = _loop_commuting_bodies(m, n, [np.random.default_rng(c) for c in children])
            assert set(kinds.tolist()) == {0, 1, 2, 3}
            for g, w in zip(got, want):
                assert np.array_equal(g, w) and np.array_equal(np.signbit(g), np.signbit(w))

    @pytest.mark.parametrize("samples", [1, 7, 100])
    def test_rotation_det_equals_loop(self, samples):
        for seed in (0, 3, 11, 2718):
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            assert checks.osp22_rotation_det(rng, samples, 1e-10) == _loop_osp22_rotation_det(ref, samples, 1e-10)
            assert rng.random() == ref.random()


SECTOR_PARAMS = {"hyperbolic": (0.3, 0.7), "parabolic": (0.8, 0.6), "so2": (0.9, 1.7)}


def _loop_sector_representative(desc, ngen, params=None):
    """A sector's pair built one matrix at a time, and from_stack's checks on it: (U1, U2, fields)."""
    group = OspGroup(1, 1, ngen)
    p1, p2 = params if params is not None else SECTOR_PARAMS[desc.family]
    if desc.family == "hyperbolic":
        A0, B0 = desc.eps1 * real_expm(p1 * SIGMA1), desc.eps2 * real_expm(p2 * SIGMA1)
    elif desc.family == "parabolic":
        A0, B0 = desc.eps1 * parabolic(p1), desc.eps2 * parabolic(p2)
    else:
        A0, B0 = rotation(p1), rotation(p2)
    pair = []
    for sign, A_block, p in ((desc.a0, A0, p1), (desc.b0, B0, p2)):
        body = np.zeros((3, 3))
        body[0, 0] = sign
        body[1:, 1:] = A_block
        coeffs = body_array(body, ngen)
        if desc.fermionic:
            coeffs[1, 2, 0] = sign * p
            coeffs[:, :1, 1:] = group.xi_from_chi(coeffs[:, :1, :1], coeffs[:, 1:, 1:], coeffs[:, 1:, :1])
        pair.append(SuperMatrix.from_coeffs(1, 2, coeffs))
    residual = 0.0
    for U in pair:
        a, A = U.body()[:1, :1], U.body()[1:, 1:]
        C = symplectic_form(2)
        residual = max(residual, defect_by_body_product(group, U), np.abs(a.T @ a - np.eye(1)).max(),
                       np.abs(A.T @ C @ A - C).max())
    residual = max(residual, (pair[0] @ pair[1] - pair[1] @ pair[0]).max_abs())
    (a0, A0), (b0, B0) = pair[0].body_blocks(), pair[1].body_blocks()
    Ah, Bh = ahat(a0, A0), ahat(b0, B0)
    fields = (matrix_rank(Ah), float(np.linalg.det(Ah)), matrix_rank(Bh), float(np.linalg.det(Bh)),
              fermionic_moduli_count_bruteforce(a0, b0, A0, B0), residual)
    return pair[0], pair[1], fields


def assert_pairs_equal_loop(pairs, descs, ngen, params=None):
    for k, (pair, desc) in enumerate(zip(pairs, descs)):
        U1, U2, (rank_a, det_a, rank_b, det_b, moduli, residual) = _loop_sector_representative(
            desc, ngen, None if params is None else params[k])
        assert pair.U1 == U1 and pair.U2 == U2 and pair.label == desc.label()
        assert (pair.rank_ahat, pair.det_ahat, pair.rank_bhat, pair.det_bhat) == (rank_a, det_a, rank_b, det_b)
        assert (pair.moduli, pair.residual) == (moduli, residual)
        assert all(type(v) is int for v in (pair.rank_ahat, pair.rank_bhat, pair.moduli))


class TestSectorStack:
    """sector_representatives against the one-matrix build and one-pair checks."""

    def test_every_sector_in_one_stack(self):
        descs = enumerate_sectors_osp12().sectors
        pairs = sector_representatives(descs)
        assert_pairs_equal_loop(pairs, descs, 2)
        assert [p.moduli for p in pairs] == [d.moduli for d in descs]

    @pytest.mark.parametrize("ngen", [1, 2, 3, 5, 7, 8])
    def test_fermionic_stack(self, ngen):
        # 2^N d = 768 > SPLIT_MAX at N = 8: the products take the pair table,
        # and STACK_BYTES holds three pairs, so the stack runs in two chunks
        descs = enumerate_sectors_osp12().fermionic_sectors
        assert_pairs_equal_loop(sector_representatives(descs, ngen), descs, ngen)

    def test_params_per_descriptor(self):
        descs = enumerate_sectors_osp12().sectors[::3]
        params = [(0.4 + 0.004 * k, 0.9 - 0.003 * k) for k in range(len(descs))]
        pairs = sector_representatives(descs, 3, params)
        assert_pairs_equal_loop(pairs, descs, 3, params)
        for pair, desc, p in zip(pairs, descs, params):
            one, = sector_representatives([desc], 3, [p])
            assert (one.U1, one.U2, one.moduli, one.residual) == (pair.U1, pair.U2, pair.moduli, pair.residual)


# ----------------------------------------------------------------------
# the Berezinian: an invariant that no membership formula reads
# ----------------------------------------------------------------------

# members are products of exponentials with O(1) entries, whose membership
# defects sit near 1e-15, and Ber^2 - 1 vanishes with them: the member
# bodies measured within 5.6e-15 of +-1 and every soul exactly 0.0
BER_MEMBER_TOL = 1e-12
# Ber of a random O(1) even matrix is a few hundred products of O(1) entries,
# so rounding stays near 1e-15 of its largest coefficient (2.2e-15 measured
# at N = 8); a wrong sign in the kernel moves a coefficient by O(1)
BER_PRODUCT_RTOL = 1e-12


def element_product(x, y):
    return graded_matmul(x[:, None, None], y[:, None, None])[:, 0, 0]


def grassmann_det(B):
    """det of an even (2^N, k, k) Grassmann matrix as a (2^N,) element: det(b) exp(tr log(1 + K)).

    b is the body and K = b^-1 (B - b) has no body and even souls, so K^j
    has degree at least 2j: both series stop after floor(N/2) + 1 terms.
    """
    n = len(B).bit_length() - 1
    K = graded_matmul(np.linalg.inv(B[0])[None], B)
    K[0] = 0.0
    log, power = np.zeros(B.shape), K
    for j in range(1, n // 2 + 1):
        log += (-1) ** (j + 1) / j * power
        power = graded_matmul(power, K)
    trace = np.trace(log, axis1=1, axis2=2)
    out = term = np.eye(1 << n)[0]
    for j in range(1, n // 2 + 1):
        term = element_product(term, trace) / j
        out = out + term
    return canonical(np.linalg.det(B[0]) * out)


def berezinian(M: SuperMatrix) -> np.ndarray:
    """Ber(M) = det(a - xi A^-1 chi) / det A (Berezin 1987), a canonical (2^N,) element."""
    m, c = M.m, M.coeffs
    a, xi, chi, A = c[:, :m, :m], c[:, :m, m:], c[:, m:, :m], c[:, m:, m:]
    schur = a - graded_matmul(xi, graded_matmul(graded_inverse(A, None), chi))
    det_A_inv = graded_inverse(grassmann_det(A)[:, None, None], None)[:, 0, 0]
    return canonical(element_product(grassmann_det(schur), det_A_inv))


class TestBerezinian:
    @pytest.mark.parametrize("m, n, ngen", [(1, 1, 4), (2, 1, 6), (1, 2, 5), (2, 2, 4)])
    def test_members_have_unit_body_and_no_soul(self, m, n, ngen):
        # M^st H M = H gives Ber(M)^2 = 1, and the reflection component gives -1
        group, rng = OspGroup(m, n, ngen), np.random.default_rng([m, n, ngen])
        signs = set()
        for _ in range(12):
            ber = berezinian(group.sample_member(rng))
            assert abs(abs(ber[0]) - 1.0) <= BER_MEMBER_TOL
            assert np.abs(ber[1:]).max() <= BER_MEMBER_TOL
            signs.add(np.sign(ber[0]))
        assert signs == {-1.0, 1.0}

    # (2|2) is d = 4: 2^N d = 256 at N = 6 takes the split route, and 1024 at
    # N = 8 and 4096 at N = 10, above SPLIT_MAX and TABLE_MAX_N, the
    # last-generator recursion, two and four levels deep
    @pytest.mark.parametrize("ngen, split", [(6, True), (8, False), (10, False)])
    def test_multiplicative(self, ngen, split):
        rng = np.random.default_rng(ngen)
        for _ in range(3):
            X, Y = invertible_even(rng, 2, 2, ngen), invertible_even(rng, 2, 2, ngen)
            assert (grassmann.even_route(2, X.coeffs) is not None) == split
            want = element_product(berezinian(X), berezinian(Y))
            assert np.abs(berezinian(X @ Y) - want).max() <= BER_PRODUCT_RTOL * np.abs(want).max()
            assert np.abs(want[1:]).max() > 0.1        # the souls take part

    # the same products with no declared pattern: up to TABLE_MAX_N generators
    # graded_matmul takes them on the cached pair table
    @pytest.mark.parametrize("ngen", [4, 6])
    def test_multiplicative_on_the_pair_table(self, ngen):
        assert 1 << ngen <= 1 << grassmann.TABLE_MAX_N
        rng = np.random.default_rng([ngen, 7])
        for _ in range(3):
            X, Y = invertible_even(rng, 2, 2, ngen), invertible_even(rng, 2, 2, ngen)
            assert X.coeffs[1:].any() and Y.coeffs[1:].any()      # no body-only shortcut
            XY = SuperMatrix.from_coeffs(2, 2, grassmann.graded_matmul(X.coeffs, Y.coeffs))
            want = element_product(berezinian(X), berezinian(Y))
            assert np.abs(berezinian(XY) - want).max() <= BER_PRODUCT_RTOL * np.abs(want).max()
            assert np.abs(want[1:]).max() > 0.1        # the souls take part

    # gl(m|n) elements, whose supertrace osp's would zero: (1|2) and (2|2) take
    # the split route, (2|4) at N = 7 (2^N d = 768) the last-generator recursion
    @pytest.mark.parametrize("m, n, ngen, split", [(1, 2, 4, True), (2, 2, 6, True), (2, 4, 7, False)])
    def test_exponential_has_the_supertrace(self, m, n, ngen, split):
        # Ber(e^X) = e^(str X): e^s = e^(body) sum_j soul^j / j!, the soul's
        # powers vanishing above floor(N/2)
        rng = np.random.default_rng([m, n, ngen, 5])
        for _ in range(3):
            X = random_supermatrix(rng, m, n, ngen, scale=0.5)
            assert (grassmann.even_route(m, X.coeffs) is not None) == split
            s = X.supertrace()
            soul = s.copy()
            soul[0] = 0.0
            want = term = np.eye(1 << ngen)[0]
            for j in range(1, ngen // 2 + 1):
                term = element_product(term, soul) / j
                want = want + term
            want = math.exp(s[0]) * want
            assert np.abs(berezinian(X.expm()) - want).max() <= BER_PRODUCT_RTOL * np.abs(want).max()
            assert np.abs(want[1:]).max() > 0.1        # the souls take part

    def test_perturbed_member_shows_a_soul(self):
        # to first order Ber moves by tr(a^-1 da): a 1e-6 change to the
        # theta1 theta2 soul of a = +-1 gives a soul near 1e-6
        group = OspGroup(1, 1, 4)
        M = group.sample_member(np.random.default_rng(3))
        coeffs = M.coeffs.copy()
        coeffs[3, 0, 0] += 1e-6
        ber = berezinian(SuperMatrix.from_coeffs(1, 2, coeffs))
        assert np.abs(berezinian(M)[1:]).max() <= BER_MEMBER_TOL
        assert abs(abs(ber[3]) - 1e-6) <= 1e-6 * 1e-3


def exact_rank(rows) -> int:
    """Rank by Gauss-Jordan elimination over Fraction: no rounding and no numpy linear algebra."""
    rows = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        top = rows[rank]
        for i, row in enumerate(rows):
            if i != rank and row[col] != 0:
                factor = row[col] / top[col]
                rows[i] = [a - factor * b for a, b in zip(row, top)]
        rank += 1
    return rank


def exact_ahat(a0, A0):
    """a0^T (x) I - I (x) A0 over Fraction: row (i, p), column (j, q), as ahat's kron form."""
    a0 = [[Fraction(float(v)) for v in row] for row in np.atleast_2d(a0)]
    A0 = [[Fraction(float(v)) for v in row] for row in np.atleast_2d(A0)]
    m, two_n = len(a0), len(A0)
    return [[a0[j][i] * (p == q) - (i == j) * A0[p][q] for j in range(m) for q in range(two_n)]
            for i in range(m) for p in range(two_n)]


def exact_product(X, Y):
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in zip(*Y)] for row in X]


def exact_cohomology(a0, b0, A0, B0) -> tuple[int, int, int]:
    """dim H^0, H^1 and H^2 of the torus with coefficients in V = R^2mn, the bodies acting by Ahat and Bhat.

    The cochains are V -> V^2 -> V with d0 z = (Ahat z, Bhat z) and d1 (chi, mu) = Ahat mu - Bhat chi.
    d1 d0 = Ahat Bhat - Bhat Ahat vanishes exactly, so B^1 = im d0 lies in Z^1 = ker d1 and
    H^1 = Z^1 / B^1.  chi = 0 is then rank-nullity; H^2 = H^0 is the duality the closed-form count
    rests on, checked here rather than assumed.
    """
    Ah, Bh = exact_ahat(a0, A0), exact_ahat(b0, B0)
    assert exact_product(Ah, Bh) == exact_product(Bh, Ah)
    d, b1 = len(Ah), exact_rank(Ah + Bh)
    z1 = 2 * d - exact_rank([[-v for v in b] + a for a, b in zip(Ah, Bh)])
    h0, h1, h2 = d - b1, z1 - b1, z1 - d
    assert h0 - h1 + h2 == 0
    assert h2 == h0
    return h0, h1, h2


def lift(P):
    """diag(P, P^-T), a member of Sp(4) for the form [[0, I], [-I, 0]]."""
    return scipy.linalg.block_diag(P, np.linalg.inv(P).T)


QUARTER = np.array([[0.0, -1.0], [1.0, 0.0]])
# commuting (a0, b0, A0, B0) with dyadic entries, each with its exact count
DYADIC_BODIES = {
    "(1|2) parabolic": (1.0, 1.0, parabolic(0.5), parabolic(1.0), 2),
    "(1|2) parabolic, large c": (1.0, 1.0, parabolic(96.0), parabolic(192.0), 2),
    "(1|2) parabolic, negative": (-1.0, -1.0, -parabolic(0.375), -parabolic(0.75), 2),
    "(2|2) parabolic": (np.eye(2), np.eye(2), parabolic(0.5), parabolic(1.0), 4),
    "(2|2) quarter turns": (QUARTER, -QUARTER, QUARTER, -QUARTER, 4),
    "(2|2) reflection and -parabolic": (np.diag([1.0, -1.0]), np.diag([1.0, -1.0]), -parabolic(0.5), -parabolic(1.0), 2),
    "(2|2) hyperbolic": (np.diag([1.0, -1.0]), np.diag([-1.0, 1.0]), np.diag([2.0, 0.5]), np.diag([0.25, 4.0]), 0),
    "(1|4) parabolic": (1.0, 1.0, lift(parabolic(0.5)), lift(parabolic(1.0)), 4),
    "(1|4) half hyperbolic": (1.0, 1.0, lift(np.diag([2.0, 1.0])), lift(np.diag([4.0, 1.0])), 4),
    "(1|4) hyperbolic": (1.0, 1.0, lift(np.diag([2.0, 4.0])), lift(np.diag([8.0, 2.0])), 0),
    "(1|4) minus identity": (-1.0, -1.0, -np.eye(4), -np.eye(4), 8),
    # rank 3 and 3 but different kernels, so [Ahat; Bhat] has rank 4
    "(2|2) equal ranks, other kernels": (np.diag([1.0, -1.0]), np.diag([-1.0, 1.0]), -parabolic(0.5),
                                         -parabolic(1.0), 0),
    # rational c, exact in float64 only as the nearest binary fraction, which
    # is what both the exact and the float routes read
    "(1|2) parabolic, c = 1/3 and 2/7": (1.0, 1.0, parabolic(1 / 3), parabolic(2 / 7), 2),
    "(1|2) parabolic and identity": (1.0, 1.0, parabolic(5 / 3), np.eye(2), 2),
    "(1|2) parabolic, reflected a0": (-1.0, 1.0, parabolic(5 / 3), parabolic(-1 / 9), 0),
}


class TestExactRank:
    """Both moduli counts against the torus cohomology ranked exactly over the rationals."""

    def test_elimination(self):
        assert exact_rank([[1, 2], [2, 4]]) == 1
        assert exact_rank([[0, 0], [0, 0]]) == 0
        assert exact_rank([[2 ** -60, 1], [0, 2 ** 60]]) == 2
        assert exact_rank([[1, 2, 3], [4, 5, 6], [7, 8, 9]]) == 2

    @pytest.mark.parametrize("name", sorted(DYADIC_BODIES))
    def test_dyadic_bodies(self, name):
        a0, b0, A0, B0, want = DYADIC_BODIES[name]
        C = symplectic_form(len(A0))
        for g in (A0, B0):
            assert np.array_equal(g.T @ C @ g, C)
        for g in (np.atleast_2d(a0), np.atleast_2d(b0)):
            assert np.array_equal(g.T @ g, np.eye(len(g)))
        h0, h1, h2 = exact_cohomology(a0, b0, A0, B0)
        assert h1 == want == 2 * h0
        assert fermionic_moduli_count(a0, b0, A0, B0) == 2 * h0
        assert fermionic_moduli_count_bruteforce(a0, b0, A0, B0) == h1

    @pytest.mark.parametrize("k", range(4))
    def test_fermionic_sector_representatives(self, k):
        # the four osp(1|2) fermionic sectors: eps * parabolic bodies with a0 = eps
        pair = sector_representatives(enumerate_sectors_osp12().fermionic_sectors)[k]
        (a0, A0), (b0, B0) = ((U.coeffs[0, :1, :1], U.coeffs[0, 1:, 1:]) for U in (pair.U1, pair.U2))
        assert exact_cohomology(a0, b0, A0, B0) == (1, 2, 1)
        assert pair.moduli == fermionic_moduli_count(a0, b0, A0, B0) == 2
        assert fermionic_moduli_count_bruteforce(a0, b0, A0, B0) == 2

    @pytest.mark.parametrize("k", range(1, 45))
    def test_dyadic_hyperbolic_family(self, k):
        # A0 = diag(2^k, 2^-k), B0 = diag(2^(k+1), 2^-(k+1)): Ahat is regular at
        # every k.  Both routes count it up to k = 36 and raise from k = 37 to 44.
        # From k = 45 both give 2, silently wrong, which no test pins
        A0, B0 = np.diag([2.0 ** k, 2.0 ** -k]), np.diag([2.0 ** (k + 1), 2.0 ** -(k + 1)])
        assert exact_cohomology(1.0, 1.0, A0, B0) == (0, 0, 0)
        for count in (fermionic_moduli_count, fermionic_moduli_count_bruteforce):
            if k <= 36:
                assert count(1.0, 1.0, A0, B0) == 0
            else:
                with pytest.raises(RankUndecidedError):
                    count(1.0, 1.0, A0, B0)
