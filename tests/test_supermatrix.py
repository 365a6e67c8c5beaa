import math

import numpy as np
import pytest
import scipy.linalg

from superholonomy.grassmann import GrassmannElement, graded_inverse
from superholonomy.supermatrix import (
    ExpmNotConvergedError,
    ParityPatternError,
    SuperMatrix,
    array_to_gmat,
    commutator,
    gmat_from_real,
    gmat_mul,
    gmat_to_array,
    gmat_zero,
    random_supermatrix,
)


def t(i, n=2):
    return GrassmannElement.theta(i, n)


def sample_osp12_like(rng, ngen=2):
    """Even supermatrix with the (1,2) block pattern and invertible body."""
    m = random_supermatrix(rng, 1, 2, ngen, scale=0.4)
    return m + SuperMatrix.identity(1, 2, ngen)


class TestConstruction:
    def test_parity_pattern_enforced(self):
        rows = [[GrassmannElement.one(2) for _ in range(3)] for _ in range(3)]
        with pytest.raises(ParityPatternError):
            SuperMatrix(1, 2, rows)

    def test_odd_pattern_accepts_swapped_roles(self):
        z = GrassmannElement.zero(2)
        rows = [[t(1), z, z], [z, t(2), z], [z, z, t(1)]]
        sm = SuperMatrix(1, 2, rows, parity=1)
        assert sm.parity == 1

    def test_from_coeffs_rejects_nan_body(self):
        coeffs = np.zeros((4, 3, 3))
        coeffs[0] = np.eye(3)
        coeffs[0, 1, 1] = np.nan
        with pytest.raises(ValueError):
            SuperMatrix.from_coeffs(1, 2, coeffs)

    def test_from_body_rejects_offdiagonal(self):
        with pytest.raises(ParityPatternError):
            SuperMatrix.from_body(np.ones((3, 3)), 1, 2, 2)


class TestProduct:
    def test_identity(self):
        rng = np.random.default_rng(5)
        x = sample_osp12_like(rng)
        eye = SuperMatrix.identity(1, 2, 2)
        assert (x @ eye).diff(x) == 0.0
        assert (eye @ x).diff(x) == 0.0

    def test_block_diagonal_bodies(self):
        a0, A0 = np.array([[2.0]]), np.array([[1.0, 1.0], [0.0, 1.0]])
        b0, B0 = np.array([[3.0]]), np.array([[2.0, 0.0], [1.0, 1.0]])
        x = SuperMatrix.from_body(scipy.linalg.block_diag(a0, A0), 1, 2, 2)
        y = SuperMatrix.from_body(scipy.linalg.block_diag(b0, B0), 1, 2, 2)
        expect = scipy.linalg.block_diag(a0 @ b0, A0 @ B0)
        assert np.allclose((x @ y).body(), expect)


class TestSupertranspose:
    def test_identity_fixed(self):
        eye = SuperMatrix.identity(2, 2, 2)
        assert eye.supertranspose().diff(eye) == 0.0

    def test_bosonic_reduces_to_transpose(self):
        body = scipy.linalg.block_diag(np.arange(4.0).reshape(2, 2), np.eye(2) * 3)
        x = SuperMatrix.from_body(body, 2, 2, 2)
        assert np.allclose(x.supertranspose().body(), body.T)

    def test_chi_block_moves_without_sign(self):
        z1 = gmat_zero(1, 1, 2)
        z12 = gmat_zero(1, 2, 2)
        z2 = gmat_zero(2, 2, 2)
        chi = [[t(1)], [t(2)]]
        x = SuperMatrix.from_blocks(z1, z12, chi, z2)
        st = x.supertranspose()
        assert st.block("xi") == [[t(1), t(2)]]
        assert all(e.is_zero() for row in st.block("chi") for e in row)
        # xi picks up the sign instead
        xi = [[t(1), t(2)]]
        y = SuperMatrix.from_blocks(z1, xi, gmat_zero(2, 1, 2), z2)
        assert y.supertranspose().block("chi") == [[-t(1)], [-t(2)]]

    def test_graded_reversal_rule(self):
        # (XY)^st = (-1)^{|X||Y|} Y^st X^st for homogeneous X, Y
        rng = np.random.default_rng(7)
        for _ in range(200):
            px, py = int(rng.integers(0, 2)), int(rng.integers(0, 2))
            x = random_supermatrix(rng, 1, 2, 2, parity=px)
            y = random_supermatrix(rng, 1, 2, 2, parity=py)
            sign = -1.0 if px and py else 1.0
            lhs = (x @ y).supertranspose()
            rhs = (y.supertranspose() @ x.supertranspose()) * sign
            assert lhs.diff(rhs) <= 1e-13

    def test_involution_up_to_sign_on_even(self):
        rng = np.random.default_rng(8)
        x = random_supermatrix(rng, 1, 2, 2, parity=0)
        st2 = x.supertranspose().supertranspose()
        # double supertranspose flips the sign of both odd blocks
        assert np.allclose(st2.body(), x.body())
        assert (st2.supertranspose().supertranspose()).diff(x) == 0.0


class TestSupertrace:
    def test_identity_value(self):
        assert SuperMatrix.identity(1, 2, 2).supertrace() == GrassmannElement.scalar(-1.0, 2)

    def test_graded_cyclicity(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            px, py = int(rng.integers(0, 2)), int(rng.integers(0, 2))
            x = random_supermatrix(rng, 2, 2, 3, parity=px)
            y = random_supermatrix(rng, 2, 2, 3, parity=py)
            sign = -1.0 if px and py else 1.0
            lhs = (x @ y).supertrace()
            rhs = (y @ x).supertrace() * sign
            assert (lhs - rhs).max_abs() <= 1e-13


class TestInverse:
    def test_identity(self):
        eye = SuperMatrix.identity(1, 2, 2)
        assert eye.inverse().diff(eye) == 0.0

    def test_bosonic_diag(self):
        a0 = np.array([[2.0]])
        A0 = np.array([[1.0, 2.0], [1.0, 3.0]])
        x = SuperMatrix.from_body(scipy.linalg.block_diag(a0, A0), 1, 2, 2)
        expect = scipy.linalg.block_diag(np.linalg.inv(a0), np.linalg.inv(A0))
        assert np.allclose(x.inverse().body(), expect, atol=1e-12)

    def test_two_sided_with_fermions(self):
        rng = np.random.default_rng(10)
        eye = SuperMatrix.identity(1, 2, 2)
        for _ in range(50):
            x = sample_osp12_like(rng)
            xi = x.inverse()
            assert (x @ xi).diff(eye) < 1e-10
            assert (xi @ x).diff(eye) < 1e-10

    def test_gmat_inverse_neumann_terminates(self):
        rng = np.random.default_rng(11)
        base = gmat_from_real(np.eye(2) + 0.2 * rng.standard_normal((2, 2)), 4)
        soul = [[GrassmannElement.monomial([1, 2], 4, 0.7), GrassmannElement.monomial([3, 4], 4, -0.4)],
                [GrassmannElement.monomial([1, 3], 4, 0.3), GrassmannElement.monomial([2, 4], 4, 0.9)]]
        x = [[base[i][j] + soul[i][j] for j in range(2)] for i in range(2)]
        prod = gmat_mul(x, array_to_gmat(graded_inverse(gmat_to_array(x, 4))))
        assert abs(prod[0][0].body - 1) < 1e-12 and abs(prod[1][1].body - 1) < 1e-12
        off = max((prod[i][j] - (1.0 if i == j else 0.0)).max_abs() for i in range(2) for j in range(2))
        assert off < 1e-12


class TestExp:
    def test_exp_zero(self):
        z = SuperMatrix.zero(1, 2, 2)
        assert z.expm().diff(SuperMatrix.identity(1, 2, 2)) == 0.0

    def test_hyperbolic_block(self):
        v = 0.3
        body = np.zeros((3, 3))
        body[1, 1], body[2, 2] = v, -v
        x = SuperMatrix.from_body(body, 1, 2, 2)
        expect = np.diag([1.0, math.exp(v), math.exp(-v)])
        assert np.allclose(x.expm().body(), expect, atol=1e-12)

    def test_body_matches_dense_expm(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            body = scipy.linalg.block_diag(
                rng.uniform(-1, 1, (2, 2)), rng.uniform(-1, 1, (2, 2))
            )
            x = SuperMatrix.from_body(body, 2, 2, 2)
            assert np.allclose(x.expm().body(), scipy.linalg.expm(body), atol=1e-10)

    def test_unconverged_series_raises(self):
        body = np.zeros((3, 3))
        body[1, 1], body[2, 2] = 0.4, -0.4   # 1-norm 0.4: no squaring
        x = SuperMatrix.from_body(body, 1, 2, 2)
        with pytest.raises(ExpmNotConvergedError):
            x.expm(max_terms=2)

    def test_exp_inverse(self):
        rng = np.random.default_rng(13)
        eye = SuperMatrix.identity(1, 2, 2)
        for _ in range(25):
            x = random_supermatrix(rng, 1, 2, 2, scale=0.6)
            assert (x.expm() @ (x * -1.0).expm()).diff(eye) < 1e-8


class TestJson:
    def test_round_trip(self):
        rng = np.random.default_rng(14)
        x = sample_osp12_like(rng)
        again = SuperMatrix.from_json_dict(x.to_json_dict())
        assert again.diff(x) == 0.0

    def test_schema_fields(self):
        x = SuperMatrix.identity(1, 2, 2)
        data = x.to_json_dict()
        assert set(data) == {"m", "n", "N", "entries"}
        assert all(set(e) == {"row", "col", "monomial", "value"} for e in data["entries"])

    def test_zero_matrix_round_trip(self):
        z = SuperMatrix.zero(2, 2, 2)
        data = z.to_json_dict()
        assert data["entries"] == []
        assert SuperMatrix.from_json_dict(data).diff(z) == 0.0

    def test_duplicate_entries_accumulate(self):
        data = {"m": 1, "n": 2, "N": 2, "entries": [
            {"row": 0, "col": 0, "monomial": [], "value": 1.0},
            {"row": 0, "col": 0, "monomial": [], "value": 0.5},
        ]}
        x = SuperMatrix.from_json_dict(data)
        assert x.rows[0][0].body == 1.5

    @pytest.mark.parametrize("row, col, monomial", [
        (0, 1, [2, 1]),      # out of order: would flip the sign of t1 t2
        (0, 1, [1, 1]),      # repeated generator
        (-1, 0, []),         # would wrap to the last row
        (0, 1, [0]),         # generators are 1-based
    ])
    def test_malformed_entry_rejected(self, row, col, monomial):
        data = {"m": 1, "n": 2, "N": 2, "entries": [
            {"row": row, "col": col, "monomial": monomial, "value": 1.0},
        ]}
        with pytest.raises(ValueError):
            SuperMatrix.from_json_dict(data)


def test_commutator_of_commuting_matrices_vanishes():
    body = np.diag([1.0, 2.0, 0.5])
    x = SuperMatrix.from_body(body, 1, 2, 2)
    y = SuperMatrix.from_body(body @ body, 1, 2, 2)
    assert commutator(x, y).max_abs() == 0.0
