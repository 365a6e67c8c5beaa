import numpy as np
import pytest

from random_inputs import random_element
from superholonomy.grassmann import GrassmannElement, NonInvertibleError, merge_sign


def t(i, n=2):
    return GrassmannElement.theta(i, n)


class TestProduct:
    def test_anticommutation(self):
        assert t(1) * t(2) == GrassmannElement.monomial([1, 2], 2)
        assert t(2) * t(1) == GrassmannElement.monomial([1, 2], 2, coeff=-1.0)

    def test_nilpotency(self):
        assert (t(1) * t(1)).is_zero()

    def test_top_soul_units_cancel(self):
        # (1 + t1 t2)(1 - t1 t2) = 1 because (t1 t2)^2 = 0
        x = 1 + t(1) * t(2)
        y = 1 - t(1) * t(2)
        assert x * y == GrassmannElement.one(2)

    def test_merge_sign_matches_permutation_parity(self):
        # t3 t4 through t1 t2 needs an even number of swaps, t2 past t1 one swap
        assert merge_sign(0b0011, 0b1100) == 1
        assert merge_sign(0b0010, 0b0001) == -1
        assert merge_sign(0b1010, 0b0101) == -1  # (2,4) x (1,3): pairs 2>1, 4>1, 4>3

    def test_associativity_random(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            x = random_element(rng, 4)
            y = random_element(rng, 4)
            z = random_element(rng, 4)
            assert ((x * y) * z).isclose(x * (y * z), tol=1e-12)

    def test_graded_commutativity_random(self):
        rng = np.random.default_rng(2)
        for _ in range(1000):
            px, py = rng.integers(0, 2), rng.integers(0, 2)
            x = random_element(rng, 4, parity=int(px))
            y = random_element(rng, 4, parity=int(py))
            sign = -1.0 if px and py else 1.0
            assert (x * y - sign * (y * x)).max_abs() <= 1e-13

    def test_mismatched_generator_counts(self):
        with pytest.raises(ValueError):
            t(1, 2) * t(1, 3)


class TestInverse:
    def test_scalar(self):
        assert GrassmannElement.scalar(2.0, 2).inverse() == GrassmannElement.scalar(0.5, 2)

    def test_unit_plus_soul(self):
        x = 1 + t(1) * t(2)
        assert x.inverse() == 1 - t(1) * t(2)
        assert x * x.inverse() == GrassmannElement.one(2)

    def test_inhomogeneous_element(self):
        # 1 + t1 has no parity: it takes the last-generator recursion
        x = 1 + t(1)
        assert x.inverse() == 1 - t(1)
        y = 2 + t(1) - 0.5 * t(2) + 3 * t(1) * t(2)
        assert (y * y.inverse() - 1).max_abs() < 1e-15

    def test_zero_body_rejected(self):
        with pytest.raises(NonInvertibleError):
            t(1).inverse()

    def test_random_inverses(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            x = random_element(rng, 4) + 1.5  # keep the body away from zero
            assert (x * x.inverse() - 1).max_abs() < 1e-12
            assert (x.inverse() * x - 1).max_abs() < 1e-12


class TestStructure:
    def test_parity(self):
        assert t(1).parity() == 1
        assert (t(1) * t(2)).parity() == 0
        assert (1 + t(1, 3) * t(2, 3) + t(3, 3)).parity() is None
        assert GrassmannElement.zero(2).parity() is None
        assert GrassmannElement.zero(2).is_homogeneous(0)
        assert GrassmannElement.zero(2).is_homogeneous(1)

    def test_canonical_drops_dust(self):
        x = GrassmannElement(2, {0: 1.0, 1: 1e-16})
        assert list(x.terms) == [0]

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_coefficient_raises(self, bad):
        with pytest.raises(ValueError):
            GrassmannElement(2, {0: bad, 1: 2.0})

    def test_overflowing_product_raises(self):
        x = 1e200 + t(1)
        with np.errstate(over="ignore"), pytest.raises(ValueError):
            x * x

    def test_body_soul_split(self):
        x = 2.0 + 3.0 * t(1)
        assert x.body == 2.0
        assert x.soul() == 3.0 * t(1)

    def test_graded_component(self):
        x = 1 + t(1) + t(1) * t(2)
        assert x.graded_component(1) == t(1)
        assert x.degree() == 2

    def test_monomial_io(self):
        x = GrassmannElement.monomial([1, 3], 3, coeff=2.5)
        assert list(x.monomials()) == [((1, 3), 2.5)]

    def test_zero_generator_algebra_is_plain_reals(self):
        x = GrassmannElement.scalar(2.0, 0)
        y = GrassmannElement.scalar(-3.0, 0)
        assert (x * y).body == -6.0
        assert x.inverse() == GrassmannElement.scalar(0.5, 0)

    def test_division_by_invertible_element(self):
        x = 3.0 + t(1) * t(2)
        assert ((x / x) - 1).max_abs() < 1e-15
        assert (x / 2.0) == x * 0.5

    def test_generator_bounds_checked(self):
        with pytest.raises(ValueError):
            GrassmannElement.theta(3, 2)
        with pytest.raises(ValueError):
            GrassmannElement.monomial([2, 1], 3)
        with pytest.raises(ValueError):
            GrassmannElement(17, {})
