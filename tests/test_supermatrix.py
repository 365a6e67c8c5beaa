import math

import numpy as np
import pytest
import scipy.linalg

from random_inputs import random_coeffs, random_supermatrix
from superholonomy.grassmann import (MAX_COEFFS, GrassmannElement, NonInvertibleError, graded_expm, graded_inverse,
                                     graded_matmul)
from superholonomy.supermatrix import (
    ExpmNotConvergedError,
    ParityPatternError,
    SuperMatrix,
    _check_dims,
    array_to_gmat,
    body_array,
    gmat_mul,
    gmat_to_array,
)


def sample_osp12_like(rng, ngen=2):
    """Even supermatrix with the (1,2) block pattern and invertible body."""
    m = random_supermatrix(rng, 1, 2, ngen, scale=0.4)
    return m + SuperMatrix.identity(1, 2, ngen)


def graded_trace(coeffs, m, parity):
    """The graded trace on the even (parity 0) or odd (1) pattern: the row view's diagonal, the lower
    block signed on the even pattern only."""
    rows = array_to_gmat(coeffs)
    signs = [1.0 if i < m or parity else -1.0 for i in range(len(rows))]
    return sum((rows[i][i] * signs[i] for i in range(len(rows))), GrassmannElement.zero(rows[0][0].n)).dense()


class TestConstruction:
    def test_parity_pattern_enforced(self):
        ones = gmat_to_array([[GrassmannElement.one(2) for _ in range(3)] for _ in range(3)], 2)
        with pytest.raises(ParityPatternError):
            SuperMatrix.from_coeffs(1, 2, ones)

    def test_pattern_error_names_the_entry(self):
        # from_coeffs and the declared kernel share one scan and one message:
        # the first bad entry in row-major order, with all its coefficients
        x = np.array(SuperMatrix.identity(1, 2, 2).coeffs)
        x[[0, 1, 3], 0, 1] = 0.5, 0.25, -2.0      # xi entry (0, 1): 0.5 + 0.25 t1 - 2 t1t2, two even terms
        x[1, 2, 2] = 1.0                            # a later bad entry, not named
        eye = SuperMatrix.identity(1, 2, 2).coeffs
        want = "entry (0, 1) must be odd on the even (1|2) pattern, got coefficients {(): 0.5, (1,): 0.25, (1, 2): -2.0}"
        for call in (lambda: SuperMatrix.from_coeffs(1, 2, x), lambda: graded_matmul(x, eye, 1),
                     lambda: graded_matmul(eye, x, 1), lambda: graded_matmul(np.array([eye, x]), eye, 1)):
            with pytest.raises(ParityPatternError) as info:
                call()
            assert str(info.value) == want

    @pytest.mark.parametrize("build", ["identity", "zero", "from_body", "from_coeffs", "from_json_dict"])
    @pytest.mark.parametrize("m, n, ngen, message", [
        (-1, 3, 2, "block sizes"), (2, -1, 2, "block sizes"), (0, 0, 2, "block sizes"),
        (1, 2, 17, "generator count"), (1, 2, -1, "generator count")])
    def test_every_constructor_checks_its_sizes(self, build, m, n, ngen, message):
        d = max(m + n, 0)
        args = {"identity": (m, n, ngen), "zero": (m, n, ngen), "from_body": (np.eye(d), m, n, ngen),
                "from_coeffs": (m, n, np.zeros((1 << ngen if ngen >= 0 else 0, d, d))),
                "from_json_dict": ({"m": m, "n": n, "N": ngen, "entries": []},)}[build]
        with pytest.raises(ValueError, match=f"^{message} must be"):
            getattr(SuperMatrix, build)(*args)

    @pytest.mark.parametrize("build, args", [
        ("from_json_dict", ({"m": 1000000, "n": 0, "N": 16, "entries": []},)),   # was a 466 PiB MemoryError
        ("from_json_dict", ({"m": 10**10, "n": 0, "N": 0, "entries": []},)),     # was numpy's "array is too big"
        ("identity", (3000, 3000, 16)),                                            # was a 17.2 TiB MemoryError
        ("zero", (3000, 3000, 16))])
    def test_oversized_matrix_refused_before_allocating(self, build, args):
        with pytest.raises(ValueError, match=r"supermatrix over B_\d+ holds \d+ coefficients, above MAX_COEFFS"):
            getattr(SuperMatrix, build)(*args)

    def test_size_bound_is_max_coeffs(self):
        # checked on the sizes alone: a matrix at the bound would take 128 MiB
        assert 64 ** 2 << 12 == MAX_COEFFS
        _check_dims(64, 0, 12)
        _check_dims(32, 32, 12)
        for m, n, ngen in ((65, 0, 12), (32, 33, 12), (64, 0, 13)):
            with pytest.raises(ValueError, match=r"above MAX_COEFFS = 16777216$"):
                _check_dims(m, n, ngen)

    def test_from_coeffs_rejects_nan_body(self):
        coeffs = np.zeros((4, 3, 3))
        coeffs[0] = np.eye(3)
        coeffs[0, 1, 1] = np.nan
        with pytest.raises(ValueError):
            SuperMatrix.from_coeffs(1, 2, coeffs)

    def test_from_body_rejects_offdiagonal(self):
        with pytest.raises(ParityPatternError):
            SuperMatrix.from_body(np.ones((3, 3)), 1, 2, 2)

    @pytest.mark.parametrize("build", [lambda z: SuperMatrix.from_coeffs(1, 2, z),
                                       lambda z: SuperMatrix.from_body(z[0], 1, 2, 2),
                                       lambda z: body_array(z[0], 2)])
    @pytest.mark.parametrize("imag", [0.5, 0.0])
    def test_complex_input_raises(self, build, imag):
        # the imaginary part is never dropped, even when it is zero
        coeffs = np.zeros((4, 3, 3), dtype=complex)
        coeffs[0] = np.eye(3) * (1.0 + imag * 1j)
        with pytest.raises(TypeError, match="complex128"):
            build(coeffs)


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
        # chi = (t1, t2)^T, every other block zero
        chi = np.zeros((4, 3, 3))
        chi[1, 1, 0] = chi[2, 2, 0] = 1.0
        st = SuperMatrix.from_coeffs(1, 2, chi).supertranspose()
        want = np.zeros((4, 1, 2))
        want[1, 0, 0] = want[2, 0, 1] = 1.0
        assert np.array_equal(st.block_coeffs("xi"), want)
        assert not st.block_coeffs("chi").any()
        # xi = (t1, t2) picks up the sign instead
        xi = np.zeros((4, 3, 3))
        xi[1, 0, 1] = xi[2, 0, 2] = 1.0
        st = SuperMatrix.from_coeffs(1, 2, xi).supertranspose()
        assert np.array_equal(st.block_coeffs("chi"), -want.transpose(0, 2, 1))
        assert not st.block_coeffs("xi").any()

    def test_graded_reversal_rule(self):
        # (XY)^st = Y^st X^st for even X, Y; the odd cases, with the sign
        # (-1)^{|X||Y|}, run on arrays in test_oracles.TestRegularRepresentation
        rng = np.random.default_rng(7)
        for _ in range(200):
            x = random_supermatrix(rng, 1, 2, 2)
            y = random_supermatrix(rng, 1, 2, 2)
            lhs = (x @ y).supertranspose()
            rhs = y.supertranspose() @ x.supertranspose()
            assert lhs.diff(rhs) <= 1e-13

    def test_involution_up_to_sign_on_even(self):
        rng = np.random.default_rng(8)
        x = random_supermatrix(rng, 1, 2, 2)
        st2 = x.supertranspose().supertranspose()
        # double supertranspose flips the sign of both odd blocks
        assert np.allclose(st2.body(), x.body())
        assert (st2.supertranspose().supertranspose()).diff(x) == 0.0


class TestSupertrace:
    def test_identity_value(self):
        want = GrassmannElement.scalar(-1.0, 2).dense()
        assert np.array_equal(SuperMatrix.identity(1, 2, 2).supertrace(), want)

    def test_graded_cyclicity(self):
        # str(XY) = (-1)^{|X||Y|} str(YX): odd factors are kernel arrays, an
        # even pair also SuperMatrix products and supertraces
        rng = np.random.default_rng(9)
        for _ in range(200):
            px, py = int(rng.integers(0, 2)), int(rng.integers(0, 2))
            x = random_coeffs(rng, 2, 2, 3, px)
            y = random_coeffs(rng, 2, 2, 3, py)
            sign = -1.0 if px and py else 1.0
            lhs = graded_trace(graded_matmul(x, y), 2, (px + py) % 2)
            rhs = graded_trace(graded_matmul(y, x), 2, (px + py) % 2) * sign
            assert np.abs(lhs - rhs).max() <= 1e-13
            if not px and not py:
                X, Y = SuperMatrix.from_coeffs(2, 2, x), SuperMatrix.from_coeffs(2, 2, y)
                assert np.abs((X @ Y).supertrace() - (Y @ X).supertrace()).max() <= 1e-13

    def test_matches_row_view_sum(self):
        # the diagonal of the rows, the lower block signed
        rng = np.random.default_rng([0, 15])
        for _ in range(20):
            x = random_supermatrix(rng, 2, 2, 3)
            assert x.supertrace().shape == (8,)
            assert np.abs(x.supertrace() - graded_trace(x.coeffs, 2, 0)).max() <= 1e-15


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

    @pytest.mark.parametrize("body", [
        scipy.linalg.block_diag([[0.0]], np.eye(2)),                    # singular a block
        scipy.linalg.block_diag([[2.0]], [[1.0, 2.0], [2.0, 4.0]]),    # singular A block
    ])
    def test_singular_body_block_raises(self, body):
        with pytest.raises(NonInvertibleError):
            SuperMatrix.from_body(body, 1, 2, 2).inverse()

    def test_gmat_inverse_neumann_terminates(self):
        rng = np.random.default_rng(11)
        body = np.eye(2) + 0.2 * rng.standard_normal((2, 2))
        soul = [[GrassmannElement.monomial([1, 2], 4, 0.7), GrassmannElement.monomial([3, 4], 4, -0.4)],
                [GrassmannElement.monomial([1, 3], 4, 0.3), GrassmannElement.monomial([2, 4], 4, 0.9)]]
        x = [[GrassmannElement.scalar(body[i, j], 4) + soul[i][j] for j in range(2)] for i in range(2)]
        # every entry is even: an all-even (2|0) block
        prod = gmat_mul(x, array_to_gmat(graded_inverse(gmat_to_array(x, 4), 2)))
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
            graded_expm(x.coeffs, x.m, max_terms=2)

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

    def test_entries_in_row_col_monomial_order(self):
        # the order and values of a loop over the row view, monomials sorted
        rng = np.random.default_rng(16)
        for _ in range(2):
            x = random_supermatrix(rng, 2, 2, 3)
            want = [{"row": i, "col": j, "monomial": list(idx), "value": c}
                    for i, row in enumerate(x.rows) for j, e in enumerate(row)
                    for idx, c in e.monomials()]
            got = x.to_json_dict()["entries"]
            assert got == want
            assert all(type(e["value"]) is float and type(e["row"]) is int for e in got)

    @pytest.mark.parametrize("m, n", [(-1, 3), (2, -1), (-4, 1)])
    def test_negative_block_size_rejected(self, m, n):
        with pytest.raises(ValueError, match="block sizes must be non-negative"):
            SuperMatrix.from_json_dict({"m": m, "n": n, "N": 2, "entries": []})
        with pytest.raises(ValueError, match="block sizes must be non-negative"):
            SuperMatrix.from_coeffs(m, n, np.zeros((4, 2, 2)))

    @pytest.mark.parametrize("ngen", [-1, 17, 64, 10**6])
    def test_generator_count_checked_before_allocating(self, ngen):
        with pytest.raises(ValueError, match="generator count must be in 0..16"):
            SuperMatrix.from_json_dict({"m": 1, "n": 2, "N": ngen, "entries": []})

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


    @pytest.mark.parametrize("field, value", [
        ("m", 1.9), ("n", 2.0), ("N", 2.7), ("N", "2"), ("m", True),
        ("row", 0.6), ("col", 1.0), ("monomial", [1.0]), ("monomial", ["1"]),
    ])
    def test_non_integer_field_rejected(self, field, value):
        # int() would truncate 1.9 to a (1|2) matrix and 0.6 to row 0
        data = {"m": 1, "n": 2, "N": 2, "entries": [
            {"row": 0, "col": 1, "monomial": [1], "value": 1.0},
        ]}
        if field in ("m", "n", "N"):
            data[field] = value
        else:
            data["entries"][0][field] = value
        with pytest.raises(ValueError, match="must be an integer"):
            SuperMatrix.from_json_dict(data)


def test_empty_matrix_refused():
    # no (0|0) SuperMatrix is built (see test_every_constructor_checks_its_sizes),
    # and the kernel refuses a (0|0) array declared even
    empty = np.zeros((4, 0, 0))
    for call in (lambda: graded_matmul(empty, empty, 0), lambda: graded_inverse(empty, 0),
                 lambda: graded_expm(empty, 0)):
        with pytest.raises(ValueError, match=r"^an even \(0\|0\) pattern needs square"):
            call()


def test_commutator_of_commuting_matrices_vanishes():
    body = np.diag([1.0, 2.0, 0.5])
    x = SuperMatrix.from_body(body, 1, 2, 2)
    y = SuperMatrix.from_body(body @ body, 1, 2, 2)
    assert (x @ y - y @ x).max_abs() == 0.0
