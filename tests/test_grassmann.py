import numpy as np
import pytest

from random_inputs import random_element
from superholonomy.grassmann import GrassmannElement, NonInvertibleError, merge_sign, monomial_mask

# the generators theta1, theta2 of B_2, their product and the unit, by monomial mask
T1, T2 = GrassmannElement(2, {0b01: 1.0}), GrassmannElement(2, {0b10: 1.0})
T12 = GrassmannElement(2, {0b11: 1.0})
ONE = GrassmannElement.scalar(1.0, 2)


class TestProduct:
    def test_anticommutation(self):
        assert T1 * T2 == T12
        assert T2 * T1 == T12 * -1.0

    def test_nilpotency(self):
        assert not (T1 * T1).terms

    def test_top_soul_units_cancel(self):
        # (1 + t1 t2)(1 - t1 t2) = 1 because (t1 t2)^2 = 0
        x = 1 + T12
        y = 1 + T12 * -1.0
        assert x * y == ONE

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
            assert np.abs(((x * y) * z).dense() - (x * (y * z)).dense()).max() <= 1e-12

    def test_graded_commutativity_random(self):
        rng = np.random.default_rng(2)
        for _ in range(1000):
            px, py = rng.integers(0, 2), rng.integers(0, 2)
            x = random_element(rng, 4, parity=int(px))
            y = random_element(rng, 4, parity=int(py))
            sign = -1.0 if px and py else 1.0
            assert np.abs((x * y).dense() - sign * (y * x).dense()).max() <= 1e-13

    def test_mismatched_generator_counts(self):
        with pytest.raises(ValueError):
            T1 * GrassmannElement(3, {0b001: 1.0})


class TestInverse:
    def test_scalar(self):
        assert GrassmannElement.scalar(2.0, 2).inverse() == GrassmannElement.scalar(0.5, 2)

    def test_unit_plus_soul(self):
        x = 1 + T12
        assert x.inverse() == 1 + T12 * -1.0
        assert x * x.inverse() == ONE

    def test_inhomogeneous_element(self):
        # 1 + t1 has no parity: it takes the last-generator recursion
        x = 1 + T1
        assert x.inverse() == 1 + T1 * -1.0
        y = GrassmannElement(2, {0b00: 2.0, 0b01: 1.0, 0b10: -0.5, 0b11: 3.0})
        assert np.abs((y * y.inverse()).dense() - ONE.dense()).max() < 1e-15

    def test_zero_body_rejected(self):
        with pytest.raises(NonInvertibleError):
            T1.inverse()

    def test_random_inverses(self):
        rng = np.random.default_rng(3)
        unit = GrassmannElement.scalar(1.0, 4).dense()
        for _ in range(100):
            x = random_element(rng, 4) + 1.5  # keep the body away from zero
            assert np.abs((x * x.inverse()).dense() - unit).max() < 1e-12
            assert np.abs((x.inverse() * x).dense() - unit).max() < 1e-12


class TestStructure:
    def test_canonical_drops_dust(self):
        x = GrassmannElement(2, {0: 1.0, 1: 1e-16})
        assert list(x.terms) == [0]

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_coefficient_raises(self, bad):
        with pytest.raises(ValueError):
            GrassmannElement(2, {0: bad, 1: 2.0})

    def test_overflowing_product_raises(self):
        x = 1e200 + T1
        with np.errstate(over="ignore"), pytest.raises(ValueError):
            x * x

    def test_monomial_io(self):
        x = GrassmannElement(3, {monomial_mask([1, 3], 3): 2.5})
        assert list(x.monomials()) == [((1, 3), 2.5)]

    def test_zero_generator_algebra_is_plain_reals(self):
        x = GrassmannElement.scalar(2.0, 0)
        y = GrassmannElement.scalar(-3.0, 0)
        assert (x * y).terms == {0: -6.0}
        assert x.inverse() == GrassmannElement.scalar(0.5, 0)

    def test_generator_bounds_checked(self):
        with pytest.raises(ValueError):
            monomial_mask([3], 2)
        with pytest.raises(ValueError):
            monomial_mask([2, 1], 3)
        with pytest.raises(ValueError):
            GrassmannElement(2, {0b100: 1.0})
        with pytest.raises(ValueError):
            GrassmannElement(17, {})
