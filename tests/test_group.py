import math

import numpy as np
import pytest
import scipy.linalg

import superholonomy
from random_inputs import random_coeffs, random_element, random_sp
from superholonomy import checks, grassmann
from superholonomy import group as group_module
from superholonomy.grassmann import (COEFF_CUTOFF, DEFECT_TOL, RANK_MARGIN, RANK_ROUNDING, GrassmannElement,
                                     RankUndecidedError, canonical, graded_matmul, matrix_rank, pattern_mask,
                                     real_expm)
from superholonomy.group import (
    SAMPLE_SCALE,
    GaugeFixResidualError,
    HolonomyPair,
    OspGroup,
    SingularGaugeOperatorError,
    ahat,
    build_nonexp_holonomy,
    commuting_bodies,
    enumerate_sectors_osp12,
    fermionic_moduli_count,
    fermionic_moduli_count_bruteforce,
    gauge_fix_sigma,
    integers_from_random,
    parabolic,
    rotation,
    sector_representatives,
    torus_cohomology,
)
from superholonomy.checks import moduli_counts
from superholonomy.superlie import SIGMA_PLUS, graded_form, symplectic_form
from superholonomy.supermatrix import SuperMatrix, body_array, signed_gather, supertranspose_coeffs, transpose_plan


@pytest.fixture(scope="module")
def g12():
    return OspGroup(1, 1, 2)


@pytest.fixture(scope="module")
def g22():
    return OspGroup(2, 1, 2)


def reflection(group):
    """diag(-1, 1, ..., 1), a member of the det(a0) = -1 component of O(m)."""
    body = np.eye(group.m + group.two_n)
    body[0, 0] = -1.0
    return SuperMatrix.from_body(body, group.m, group.two_n, group.ngen)


class TestGeneratorCount:
    @pytest.mark.parametrize("ngen", [-1, 17])
    def test_out_of_range_rejected(self, ngen):
        with pytest.raises(ValueError, match=rf"generator count must be in 0\.\.16, got {ngen}$"):
            OspGroup(1, 1, ngen)

    def test_range_ends_build(self):
        assert OspGroup(1, 1, 0).sample_member(np.random.default_rng(0)).coeffs.shape == (1, 3, 3)
        # the group's stack shape at N = 16, read before any product
        with pytest.raises(ValueError, match=r"^expected a \(\.\.\., 65536, 3, 3\) stack, got \(4, 3, 3\)$"):
            OspGroup(1, 1, 16).membership_defect(np.zeros((4, 3, 3)))


class TestMembership:
    def test_identity(self, g12):
        assert g12.membership_defect(SuperMatrix.identity(1, 2, 2)) <= DEFECT_TOL

    def test_disconnected_component(self, g12):
        # diag(-1, I) satisfies the graded-form condition
        assert g12.membership_defect(reflection(g12)) <= DEFECT_TOL

    def test_perturbed_identity_rejected(self, g12):
        body = np.eye(3)
        body[1, 1] += 0.1
        assert g12.membership_defect(SuperMatrix.from_body(body, 1, 2, 2)) > DEFECT_TOL

    def test_wrong_shape_raises(self, g12):
        # refused by block sizes or N before the gather plan runs
        with pytest.raises(ValueError, match=r"^expected block sizes \(1,2\) over B_2, got \(2,2\) over B_2$"):
            g12.membership_defect(SuperMatrix.identity(2, 2, 2))
        with pytest.raises(ValueError, match=r"^expected block sizes \(1,2\) over B_2, got \(1,2\) over B_3$"):
            g12.membership_defect(SuperMatrix.identity(1, 2, 3))
        with pytest.raises(ValueError, match=r"^expected a \(\.\.\., 4, 3, 3\) stack, got \(2, 4, 4, 4\)$"):
            g12.membership_defect(np.zeros((2, 4, 4, 4)))
        # a nested list is converted before its shape is read
        with pytest.raises(ValueError, match=r"^expected a \(\.\.\., 4, 3, 3\) stack, got \(2, 4, 4, 4\)$"):
            g12.membership_defect(np.zeros((2, 4, 4, 4)).tolist())

    @pytest.mark.parametrize("shape", [(32, 4, 4), (3, 32, 4, 4), (64, 5, 5), (2, 64, 4, 5), (64, 4), (4, 4)])
    def test_stack_of_wrong_shape_raises(self, shape):
        # OSp(2|2) over B_6 wants (..., 64, 4, 4): a stack at N = 5, with d = 5
        # or without the mask axis must not reach the gather plan or a product
        group = OspGroup(2, 1, 6)
        with pytest.raises(ValueError, match=r"^expected a \(\.\.\., 64, 4, 4\) stack"):
            group.membership_defect(np.zeros(shape))

    @pytest.mark.parametrize("ngen", [2, 8])
    def test_nested_list_equals_its_array(self, ngen):
        # OSp(2|2): 2^N d = 16 on the split route, 1024 > SPLIT_MAX on the pair table
        group = OspGroup(2, 1, ngen)
        rng = np.random.default_rng([ngen, 41])
        members = [group.sample_member(rng).coeffs for _ in range(2)]
        stack = np.array(members + [M + 1e-6 * random_coeffs(rng, 2, 2, ngen) for M in members])
        defects = group.membership_defect(stack)
        assert defects.tobytes() == group.membership_defect(stack.tolist()).tobytes()
        assert group.membership_defect(stack[2].tolist()) == defects[2] > 0.0

    def test_complex_stack_raises(self, g12):
        M = SuperMatrix.identity(1, 2, 2).coeffs
        with pytest.raises(TypeError, match=r"^M must be real, got dtype complex128$"):
            g12.membership_defect(M + 0j)
        with pytest.raises(TypeError, match=r"^M must be real, got dtype complex128$"):
            g12.membership_defect((M + 1e-3j).tolist())

    @pytest.mark.parametrize("ngen", [2, 8])
    @pytest.mark.parametrize("broken", ["orthogonal", "symplectic"])
    def test_body_conditions_are_read(self, ngen, broken):
        # a body off O(2) x Sp(2) by 1e-6 in one block, the other block in its
        # group: the defect is that block's residual, 2e-6 + 1e-12, as a
        # SuperMatrix and as a raw stack, on the split route (B_2) and the
        # pair table (B_8)
        group = OspGroup(2, 1, ngen)
        a0, A0 = rotation(0.3), parabolic(0.7)
        if broken == "orthogonal":
            a0 = (1 + 1e-6) * a0
        else:
            A0 = (1 + 1e-6) * A0
        C = symplectic_form(2)
        body_residual = max(np.abs(a0.T @ a0 - np.eye(2)).max(), np.abs(A0.T @ C @ A0 - C).max())
        M = SuperMatrix.from_body(scipy.linalg.block_diag(a0, A0), 2, 2, ngen)
        good = SuperMatrix.from_body(scipy.linalg.block_diag(rotation(0.3), parabolic(0.7)), 2, 2, ngen)
        defects = group.membership_defect(np.array([M.coeffs, good.coeffs]))
        assert group.membership_defect(M) == defects[0] > DEFECT_TOL and defects[1] <= DEFECT_TOL
        assert defects[0] == pytest.approx(body_residual, abs=1e-15)

    @pytest.mark.parametrize("ngen", [2, 8])
    def test_body_block_is_the_body_residuals(self, ngen):
        # membership_defect is the largest coefficient of the residual its
        # route takes, M^st H M - H with M^st H the signed gather; its mask-0
        # block is blockdiag(a0^T a0 - I, A0^T C A0 - C).  Each entry of the
        # two is a dot product of length d over the same body factors, summed
        # in another order (the split route's gemm or numpy's matmul), so each
        # lies within gamma_d |x|^T |y| of the exact sum, gamma_d ~ d u
        # (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
        # 3.1), and the two within 2 gamma_d |x|^T |y| <= d eps |x|^T |y|,
        # eps = 2u: a few eps on these O(1) bodies, and the bound below is
        # twice it.  Subtracting H is exact: where H is +-1 the entry lies
        # within a factor 2 of it (Sterbenz), elsewhere H is 0.  An entry below
        # COEFF_CUTOFF reads 0.  Half the members have bodies perturbed by
        # 1e-6, so the block holds entries above the cutoff as well as rounding
        group, m, d = OspGroup(2, 1, ngen), 2, 4
        rng = np.random.default_rng([ngen, 42])
        H = body_array(graded_form(2, 2), ngen)
        plan = transpose_plan(m, d, graded=True)
        members = [group.sample_member(rng).coeffs for _ in range(4)]
        for M in members + [M + 1e-6 * body_array(random_coeffs(rng, 2, 2, 0)[0], ngen) for M in members]:
            st_h = canonical(signed_gather(M, plan))
            R = graded_matmul(st_h, M, m if ngen == 2 else None) - H
            worst = np.abs(R).max()
            assert group.membership_defect(M) == (worst if worst >= COEFF_CUTOFF else 0.0)
            a0, A0, C = M[0, :m, :m], M[0, m:, m:], symplectic_form(2)
            want = scipy.linalg.block_diag(a0.T @ a0 - np.eye(m), A0.T @ C @ A0 - C)
            bound = 2 * d * np.finfo(float).eps * (np.abs(st_h[0]) @ np.abs(M[0]))
            assert np.all(np.abs(R[0] - want) <= np.where(R[0] == 0.0, COEFF_CUTOFF, 0.0) + bound)
            assert not R[0][:m, m:].any() and not R[0][m:, :m].any()

    def test_sampled_members(self, g12, g22):
        rng = np.random.default_rng(31)
        for group in (g12, g22):
            for _ in range(10):
                M = group.sample_member(rng)
                assert group.membership_defect(M) <= 1e-9

    def test_sampled_members_exact_to_cutoff(self):
        # the exponential's series is summed raw and canonicalized once, so
        # no truncation inside it reaches COEFF_CUTOFF: every coefficient of
        # M^st H M - H lies below it and the defect is 0 here
        group = OspGroup(2, 1, 6)
        for seed in range(20):
            assert group.membership_defect(group.sample_member(np.random.default_rng(seed))) <= 1e-14

    @pytest.mark.parametrize("m, n, ngen", [(1, 1, 2), (2, 1, 6), (2, 2, 5), (2, 1, 8)])
    def test_sample_member_wraps_the_stack_member(self, m, n, ngen):
        # sample_member takes sample_stack's member as it is: canonical, on
        # the even pattern and read-only, as from_coeffs would make it
        group = OspGroup(m, n, ngen)
        for seed in range(3):
            M = group.sample_member(np.random.default_rng([seed, ngen]))
            row = group.sample_stack([np.random.default_rng([seed, ngen])])[0]
            want = SuperMatrix.from_coeffs(m, 2 * n, row)
            assert np.array_equal(M.coeffs, want.coeffs) and (M.m, M.n) == (m, 2 * n)
            assert np.array_equal(canonical(np.array(M.coeffs)), M.coeffs)
            assert not (M.coeffs * pattern_mask(ngen, m + 2 * n, m)).any()
            assert not M.coeffs.flags.writeable
            with pytest.raises(ValueError):
                M.coeffs[0, 0, 0] = 2.0

    def test_closure_under_group_operations(self, g12):
        rng = np.random.default_rng(32)
        pool = [g12.sample_member(rng) for _ in range(8)]
        for _ in range(60):
            x, y = rng.choice(len(pool), 2)
            op = rng.integers(0, 3)
            if op == 0:
                M = pool[x] @ pool[y]
            elif op == 1:
                M = pool[x].inverse()
            else:
                M = pool[x] @ pool[y] @ pool[x].inverse()
            assert g12.membership_defect(M) <= 1e-9


class TestXiFromChi:
    def test_zero_chi_gives_zero_xi(self, g12):
        xi = g12.xi_from_chi(body_array(np.eye(1), 2), body_array(np.eye(2), 2), np.zeros((4, 2, 1)))
        assert xi.shape == (4, 1, 2)
        assert not xi.any()

    def test_trivial_bodies(self, g12):
        # a = 1, A = I: xi = -chi^T C, so chi = (0, t1)^T gives (t1, 0)
        chi = np.zeros((4, 2, 1))
        chi[1, 1, 0] = 1.0
        xi = g12.xi_from_chi(body_array(np.eye(1), 2), body_array(np.eye(2), 2), chi)
        want = np.zeros((4, 1, 2))
        want[1, 0, 0] = 1.0
        assert np.array_equal(xi, want)

    def test_recovers_sampled_members(self, g12, g22):
        rng = np.random.default_rng(33)
        for group in (g12, g22):
            for _ in range(25):
                M = group.sample_member(rng)
                xi = group.xi_from_chi(M.block_coeffs("a"), M.block_coeffs("A"), M.block_coeffs("chi"))
                assert np.abs(xi - M.block_coeffs("xi")).max() < 1e-10


class TestAhat:
    def test_parabolic_sector(self):
        op = ahat(np.array([[1.0]]), parabolic(0.7))
        assert np.linalg.det(op) == 0.0 and matrix_rank(op) == 1

    def test_rotation_determinant(self):
        phi = 0.9
        op = ahat(np.array([[1.0]]), rotation(phi))
        assert abs(np.linalg.det(op) - (2 - 2 * math.cos(phi))) < 1e-12
        assert matrix_rank(op) == 2

    def test_osp22_determinant_formula(self):
        rng = np.random.default_rng(34)
        for _ in range(30):
            phi = rng.uniform(0, 2 * math.pi)
            A0 = random_sp(2, rng) * rng.choice([-1.0, 1.0])
            det = np.linalg.det(ahat(rotation(phi), A0))
            assert abs(det - (2 * math.cos(phi) - np.trace(A0)) ** 2) < 1e-10

    def test_zero_matrix_rank(self):
        assert matrix_rank(np.zeros((4, 4))) == 0

    def test_rank_band(self):
        bound = RANK_ROUNDING * 2 * np.finfo(float).eps      # of diag(1, x)
        assert matrix_rank(np.diag([1.0, bound])) == 1
        assert matrix_rank(np.diag([1.0, 2 * RANK_MARGIN * bound])) == 2
        # the first undecided member of a stack raises, with its singular value
        with pytest.raises(RankUndecidedError, match="cannot decide the rank") as info:
            matrix_rank(np.stack([np.eye(2), np.diag([1.0, 2 * bound])]))
        assert (info.value.sigma_min, info.value.bound) == (2 * bound, bound)

    @staticmethod
    def conjugated_dets(a0, A0, S0):
        """det Ahat of (a0, S0 A0 S0^-1) and of (a0, A0): I (x) S0 conjugates one operator into the other."""
        return np.linalg.det(ahat(a0, S0 @ A0 @ np.linalg.inv(S0))), np.linalg.det(ahat(a0, A0))

    def test_det_conjugation_invariance(self):
        rng = np.random.default_rng(35)
        d1, d2 = self.conjugated_dets(np.array([[1.0]]), parabolic(0.5), np.eye(2))
        assert d1 == d2 == 0.0
        for _ in range(20):
            S0 = random_sp(2, rng)
            d1, d2 = self.conjugated_dets(np.array([[1.0]]), parabolic(0.5), S0)
            assert abs(d1) < 1e-10 and abs(d2) < 1e-10
            A0 = np.diag([1.7, 1 / 1.7])
            d1, d2 = self.conjugated_dets(np.array([[1.0]]), A0, S0)
            assert abs(d1 - d2) <= 1e-8 * abs(d2)
            assert abs(d2) > 1e-3

    def test_small_conjugator_is_regular(self):
        # det(1e-7 I) = 1e-14, but the rank rule reads the scale-free spectrum
        assert matrix_rank(1e-7 * np.eye(2)) == 2
        d1, d2 = self.conjugated_dets(1, np.diag([1.7, 1 / 1.7]), 1e-7 * np.eye(2))
        assert d1 == d2 != 0.0

    def test_rank_gauge_invariance(self, g12):
        # det and rank computed before/after conjugation by random members agree
        rng = np.random.default_rng(36)
        for _ in range(15):
            U = g12.sample_member(rng)
            S = g12.sample_member(rng)
            V = S @ U @ S.inverse()
            opU, opV = ahat(*U.body_blocks()), ahat(*V.body_blocks())
            assert matrix_rank(opU) == matrix_rank(opV)
            dU, dV = np.linalg.det(opU), np.linalg.det(opV)
            assert abs(dU - dV) <= 1e-8 * max(1.0, abs(dU))


class TestGaugeFix:
    def test_chi_free_input_is_fixed_point(self, g12):
        body = np.diag([1.0, 2.0, 0.5])
        U = SuperMatrix.from_body(body, 1, 2, 2)
        res = gauge_fix_sigma(g12, U)
        assert res.U_fixed == U
        assert res.degrees_solved == ()

    def test_annihilates_chi_generic(self, g12):
        rng = np.random.default_rng(37)
        for _ in range(25):
            U = g12.sample_member(rng)
            res = gauge_fix_sigma(g12, U)
            chi_norm = max(e.max_abs() for row in res.U_fixed.block("chi") for e in row)
            assert chi_norm < 1e-10
            assert np.abs((res.S @ U @ res.S.inverse()).coeffs - res.U_fixed.coeffs).max() < 1e-12
            assert g12.membership_defect(res.U_fixed) <= 1e-9
            assert g12.membership_defect(res.S) <= 1e-9

    def test_recursion_with_higher_degrees(self):
        # N = 4 souls make the degree-1 solve feed a degree-3 correction,
        # so the iteration must run twice
        group = OspGroup(1, 1, 4)
        rng = np.random.default_rng(38)
        for _ in range(5):
            U = _sample_member_loop(group, rng, components=False)
            res = gauge_fix_sigma(group, U)
            assert res.degrees_solved == (1, 3)
            chi_norm = max(e.max_abs() for row in res.U_fixed.block("chi") for e in row)
            assert chi_norm < 1e-10
            assert group.membership_defect(res.U_fixed) <= 1e-8

    def test_parabolic_sector_raises(self, g12):
        desc = [s for s in enumerate_sectors_osp12().sectors if s.fermionic][0]
        pair, = sector_representatives([desc])
        with pytest.raises(SingularGaugeOperatorError):
            gauge_fix_sigma(g12, pair.U1)

    def test_chi_left_above_tol_raises_typed_error(self):
        # OSp(1|2) over B_7, member seed 25: the first of member seeds 0-39
        # whose chi block ends above DEFECT_TOL, found by scanning the seeds
        group = OspGroup(1, 1, 7)
        U = group.sample_member(np.random.default_rng(25))
        with pytest.raises(GaugeFixResidualError, match="chi residual of") as info:
            gauge_fix_sigma(group, U)
        assert info.value.tol == DEFECT_TOL < info.value.residual
        assert isinstance(info.value, RuntimeError)
        assert superholonomy.GaugeFixResidualError is GaugeFixResidualError

    def test_seed_conjugation_applied(self, g12):
        # a conjugation applied before the call composes with the fixing one
        rng = np.random.default_rng(39)
        U = g12.sample_member(rng)
        seed = g12.sample_member(rng)
        res = gauge_fix_sigma(g12, seed @ U @ seed.inverse())
        S = res.S @ seed
        assert np.abs((S @ U @ S.inverse()).coeffs - res.U_fixed.coeffs).max() < 1e-11


def fermion_norm(M):
    return max(np.abs(M.block_coeffs(name)).max(initial=0.0) for name in ("chi", "xi"))


def assert_commutant_diagonal(group, U1, U2, tol=DEFECT_TOL):
    """The lemma: with U1 block diagonal and Ahat regular, a U2 commuting with U1 is block diagonal too."""
    assert fermion_norm(U1) <= tol
    assert matrix_rank(ahat(*U1.body_blocks())) == 2 * group.m * group.n
    assert np.abs((U1 @ U2).coeffs - (U2 @ U1).coeffs).max() <= tol
    assert fermion_norm(U2) < DEFECT_TOL


class TestCommutingPair:
    def test_hyperbolic_commutant_is_diagonal(self, g12):
        U1 = SuperMatrix.from_body(np.diag([1.0, 2.0, 0.5]), 1, 2, 2)
        # members of the commutant: powers share the abelian direction
        U2 = SuperMatrix.from_body(np.diag([1.0, 4.0, 0.25]), 1, 2, 2)
        assert_commutant_diagonal(g12, U1, U2)

    def test_identity_second_factor(self, g12):
        U1 = SuperMatrix.from_body(np.diag([1.0, 2.0, 0.5]), 1, 2, 2)
        assert_commutant_diagonal(g12, U1, SuperMatrix.identity(1, 2, 2))

    def test_linear_commutant_equations(self):
        # mu a0 = A0 mu as a linear system: trivial kernel exactly when the
        # Kronecker operator is regular, so the commutant keeps no fermions
        rng = np.random.default_rng(77)
        for _ in range(20):
            A0 = random_sp(2, rng)
            a0 = np.array([[rng.choice([-1.0, 1.0])]])
            op = ahat(a0, A0)
            kernel_dim = 2 - matrix_rank(op)
            if abs(np.linalg.det(op)) > 1e-10:
                assert kernel_dim == 0
            else:
                assert kernel_dim > 0
        op = ahat(np.array([[1.0]]), parabolic(0.6))
        assert 2 - matrix_rank(op) == 1  # one fermion direction survives


class TestPairGaugeFixing:
    def test_fixing_one_member_diagonalizes_the_partner(self, g12):
        # start from a regular block-diagonal commuting pair, dress both with
        # a random conjugation, then undo it by gauge fixing U1 alone: the
        # same conjugator must strip U2's fermion blocks as well
        rng = np.random.default_rng(88)
        for _ in range(10):
            v1, v2 = rng.uniform(0.3, 1.2, 2)
            U1 = SuperMatrix.from_body(
                np.diag([1.0, math.exp(v1), math.exp(-v1)]), 1, 2, 2
            )
            U2 = SuperMatrix.from_body(
                np.diag([1.0, math.exp(v2), math.exp(-v2)]), 1, 2, 2
            )
            S = g12.sample_member(rng)
            V1, V2 = S @ U1 @ S.inverse(), S @ U2 @ S.inverse()
            assert np.abs((V1 @ V2).coeffs - (V2 @ V1).coeffs).max() < 1e-10
            dressed = max(e.max_abs() for row in V2.block("chi") for e in row)
            assert dressed > 1e-3  # the dressing really introduced fermions
            res = gauge_fix_sigma(g12, V1)
            W2 = res.S @ V2 @ res.S.inverse()
            assert_commutant_diagonal(g12, res.U_fixed, W2, tol=1e-9)


class TestModuliCount:
    def test_parabolic_two(self):
        c = fermionic_moduli_count(1.0, 1.0, parabolic(0.5), parabolic(0.9))
        assert c == 2

    def test_hyperbolic_zero(self):
        c = fermionic_moduli_count(1.0, 1.0, np.diag([2.0, 0.5]), np.diag([3.0, 1 / 3.0]))
        assert c == 0

    def test_osp22_so2_sector_four(self):
        c = fermionic_moduli_count(rotation(0.4), rotation(1.1), rotation(0.4), rotation(1.1))
        assert c == 4

    @pytest.mark.parametrize("count", [fermionic_moduli_count, fermionic_moduli_count_bruteforce])
    @pytest.mark.parametrize("t", [1.0, 10.0, 24.0, 30.0])
    def test_large_hyperbolic_bodies_are_regular(self, count, t):
        # Ahat = diag(1 - e^t, 1 - e^-t) is regular at every t, while its
        # sigma_min / sigma_max = e^-t falls toward rounding: the rank rule
        # decides it up to t = 24 and raises at t = 30 (211 max(r, c) eps)
        a0 = b0 = np.eye(1)
        A0, B0 = np.diag([math.exp(t), math.exp(-t)]), np.diag([math.exp(1.02 * t), math.exp(-1.02 * t)])
        assert abs(np.linalg.det(ahat(a0, A0))) >= 1.0
        if t < 30:
            assert count(a0, b0, A0, B0) == 0
        else:
            with pytest.raises(RankUndecidedError) as info:
                count(a0, b0, A0, B0)
            assert info.value.bound < info.value.sigma_min <= RANK_MARGIN * info.value.bound

    def test_noncommuting_rejected(self):
        with pytest.raises(ValueError):
            fermionic_moduli_count(np.eye(2), np.eye(2), rotation(0.3), np.diag([2.0, 0.5]))

    def test_equal_ranks_with_other_kernels_count_zero(self):
        # a commuting OSp(2|2) pair whose Ahat and Bhat both have rank 3 but
        # different kernels, so [Ahat; Bhat] has rank 4 and H^0 = 0: both
        # routes give 0, not the 2(4 - 3) = 2 that equal ranks alone would give
        a0, b0 = np.diag([1.0, -1.0]), np.diag([-1.0, 1.0])
        A0, B0 = -np.array([[1.0, 0.5], [0.0, 1.0]]), -np.array([[1.0, 1.0], [0.0, 1.0]])
        assert matrix_rank(np.stack([ahat(a0, A0), ahat(b0, B0)])).tolist() == [3, 3]
        assert fermionic_moduli_count(a0, b0, A0, B0) == 0
        assert fermionic_moduli_count_bruteforce(a0, b0, A0, B0) == 0
        # in a stack, next to a singular (count 4) or a regular (count 0)
        # aligned pair, each member keeps its own count
        singular = (rotation(0.4), rotation(1.1), rotation(0.4), rotation(1.1))
        regular = (a0, b0, np.diag([2.0, 0.5]), np.diag([0.25, 4.0]))
        for aligned, count in ((singular, 4), (regular, 0)):
            stacked = [np.stack([x, y]) for x, y in zip(aligned, (a0, b0, A0, B0))]
            assert fermionic_moduli_count(*stacked).tolist() == [count, 0]
            assert fermionic_moduli_count_bruteforce(*stacked).tolist() == [count, 0]

    @pytest.mark.parametrize("m,n", [(1, 1), (2, 1), (1, 2)])
    def test_closed_form_equals_bruteforce(self, m, n):
        for bodies in zip(*commuting_bodies(m, n, 40 + m * 10 + n, 60)):
            assert fermionic_moduli_count(*bodies) == fermionic_moduli_count_bruteforce(*bodies)


def central_mask(bodies):
    """The pairs of commuting_bodies whose bodies are +-1 and +-I up to rounding (kind 2 at m = 1)."""
    return np.all([np.abs(np.abs(x) - np.eye(x.shape[-1])).max(axis=(-2, -1)) < 1e-12 for x in bodies], axis=0)


class TestRankScale:
    """The rank rule's zero bound is relative to the size of the operands that formed the matrix."""

    @pytest.mark.parametrize("m, n, seed, samples, central", [(1, 2, 0, 500, 142), (1, 1, 11, 50, 12),
                                                               (1, 2, 11, 50, 10)])
    def test_central_draws_count_2d(self, m, n, seed, samples, central):
        # Ahat = a0^T (x) I - I (x) A0 cancels to rounding on a central pair:
        # ranked against its own sigma_max every rounding value counted, and
        # the pair read 0 on both routes; at the bodies' scale it ranks 0
        bodies = commuting_bodies(m, n, seed, samples)
        mask = central_mask(bodies)
        assert mask.sum() == central
        d = 2 * m * n
        closed, brute = fermionic_moduli_count(*bodies), fermionic_moduli_count_bruteforce(*bodies)
        assert closed[mask].tolist() == brute[mask].tolist() == [2 * d] * central
        assert (closed[~mask] < 2 * d).all() and np.array_equal(closed, brute)

    @pytest.mark.parametrize("count", [fermionic_moduli_count, fermionic_moduli_count_bruteforce])
    def test_exactly_and_nearly_central(self, count):
        one = np.eye(1)
        assert count(one, one, np.eye(2), np.eye(2)) == 4
        assert count(-one, one, -np.eye(4), np.eye(4)) == 8
        R = rotation(2 * math.pi)          # I up to 2.4e-16
        assert count(one, one, R, R) == 4
        # singular values of 1e-9 lie far above rounding at scale 2: not a loosened rule
        R = rotation(2 * math.pi - 1e-9)
        assert count(one, one, R, R) == 0

    def test_cancelled_matrix_ranks_zero(self):
        rounding = 1e-16 * np.random.default_rng(7).uniform(-1.0, 1.0, (3, 4, 4))
        assert matrix_rank(rounding).tolist() == [4, 4, 4]
        assert matrix_rank(rounding, 2.0).tolist() == [0, 0, 0]
        assert matrix_rank(rounding[0], 2.0) == 0 and matrix_rank(np.zeros((4, 4)), 2.0) == 0
        # the scale of each member of a stack: the second is counted at its own
        assert matrix_rank(rounding, np.array([2.0, 1e-15, 2.0])).tolist() == [0, 4, 0]
        # a scale below sigma_max leaves the rule as it was
        mats = np.random.default_rng(8).uniform(-1.0, 1.0, (4, 5, 3))
        assert np.array_equal(matrix_rank(mats, 1e-3), matrix_rank(mats))

    def test_undecided_at_the_scale(self):
        bound = RANK_ROUNDING * 2 * np.finfo(float).eps * 8.0
        assert matrix_rank(np.diag([1.0, 0.5 * bound]), 8.0) == 1
        with pytest.raises(RankUndecidedError) as info:
            matrix_rank(np.diag([1.0, 2 * bound]), 8.0)
        assert (info.value.sigma_min, info.value.bound) == (2 * bound, bound)


class TestSectors:
    def test_counts(self):
        report = enumerate_sectors_osp12()
        assert report.bosonic_count == 36
        assert len(report.fermionic_sectors) == 4
        assert all(s.moduli == 2 for s in report.fermionic_sectors)

    def test_family_split(self):
        report = enumerate_sectors_osp12()
        by_family = {}
        for s in report.sectors:
            by_family[s.family] = by_family.get(s.family, 0) + 1
        assert by_family == {"hyperbolic": 16, "parabolic": 16, "so2": 4}

    def test_fermionic_sector_signs_match(self):
        for s in enumerate_sectors_osp12().fermionic_sectors:
            assert s.family == "parabolic" and s.eps1 == s.a0 and s.eps2 == s.b0

    def test_representatives_are_valid_pairs(self, g12):
        report = enumerate_sectors_osp12()
        for desc in report.sectors:
            pair, = sector_representatives([desc])
            assert g12.membership_defect(pair.U1) <= 1e-10 and g12.membership_defect(pair.U2) <= 1e-10
            assert np.abs((pair.U1 @ pair.U2).coeffs - (pair.U2 @ pair.U1).coeffs).max() <= 1e-10
            ops = [ahat(*U.body_blocks()) for U in (pair.U1, pair.U2)]
            dets = [np.linalg.det(op) for op in ops]
            if desc.fermionic:
                # fermions require BOTH determinant criteria to degenerate
                assert dets == [0.0, 0.0]
                assert [matrix_rank(op) for op in ops] == [1, 1]
                assert pair.moduli == 2
                chi_norm = max(e.max_abs() for row in pair.U1.block("chi") for e in row)
                assert chi_norm > 0
            else:
                assert max(abs(det) for det in dets) > 1e-10
                assert pair.moduli == 0

    def test_fermionic_representative_needs_theta1(self):
        report = enumerate_sectors_osp12()
        with pytest.raises(ValueError, match="needs theta1"):
            sector_representatives(report.fermionic_sectors[:1], ngen=0)
        bosonic = next(s for s in report.sectors if not s.fermionic)
        assert sector_representatives([bosonic], ngen=0)[0].moduli == 0

    def test_gauge_fix_verdict_per_sector(self, g12):
        # raises on every fermionic representative; succeeds on all bosonic
        # representatives whose own operator is regular (the sign-mismatched
        # parabolic sectors degenerate on one side only and are already diagonal)
        for desc in enumerate_sectors_osp12().sectors:
            pair, = sector_representatives([desc])
            if desc.fermionic:
                for U in (pair.U1, pair.U2):
                    with pytest.raises(SingularGaugeOperatorError):
                        gauge_fix_sigma(g12, U)
            else:
                for U in (pair.U1, pair.U2):
                    if abs(np.linalg.det(ahat(*U.body_blocks()))) > 1e-10:
                        res = gauge_fix_sigma(g12, U)
                        assert np.abs(res.U_fixed.coeffs - U.coeffs).max() < 1e-10  # already diagonal

    def test_json_matches_counts(self):
        report = enumerate_sectors_osp12()
        data = report.to_json_dict()
        assert data["group"] == "osp(1|2)"
        assert data["bosonic_sectors"] == 36
        assert len(data["fermionic_sectors"]) == 4
        assert all(e["moduli"] == 2 for e in data["fermionic_sectors"])
        assert len(data["sectors"]) == 36


class TestHolonomyPair:
    def test_noncommuting_rejected(self, g12):
        U1 = SuperMatrix.from_body(np.diag([1.0, 2.0, 0.5]), 1, 2, 2)
        body = np.eye(3)
        body[1:, 1:] = rotation(0.7)
        U2 = SuperMatrix.from_body(body, 1, 2, 2)
        with pytest.raises(ValueError, match="do not commute"):
            HolonomyPair.from_stack(g12, np.array([[U1.coeffs, U2.coeffs]]), ["a"])

    def test_stack_raises_at_the_first_bad_pair(self, g12):
        # pair 1 is not a member, pair 2 does not commute: the first bad pair's first failed check
        body = np.eye(3)
        body[1:, 1:] = rotation(0.7)
        good = SuperMatrix.from_body(body, 1, 2, 2).coeffs
        stretched = SuperMatrix.from_body(np.diag([1.0, 2.0, 0.5]), 1, 2, 2).coeffs
        scaled = SuperMatrix.from_body(np.diag([1.0, 2.0, 2.0]), 1, 2, 2).coeffs
        U = np.array([[good, good], [good, scaled], [good, stretched]])
        with pytest.raises(ValueError, match="not group members"):
            HolonomyPair.from_stack(g12, U, ["a", "b", "c"])
        with pytest.raises(ValueError, match="do not commute"):
            HolonomyPair.from_stack(g12, U[[0, 2]], ["a", "c"])
        pair, = HolonomyPair.from_stack(g12, U[:1], ["a"])
        assert (pair.U1, pair.U2, pair.label) == (*(SuperMatrix.from_coeffs(1, 2, u) for u in U[0]), "a")

    @pytest.mark.parametrize("group, message", [
        (OspGroup(1, 1, 2),
         r"^expected block sizes \(1,2\) over B_2: a \(k, 2, 4, 3, 3\) stack, got \(1, 2, 4, 5, 5\)$"),
        (OspGroup(1, 2, 3),
         r"^expected block sizes \(1,4\) over B_3: a \(k, 2, 8, 5, 5\) stack, got \(1, 2, 4, 5, 5\)$"),
    ], ids=["osp12", "osp14_B3"])
    def test_stack_of_other_blocks_rejected(self, group, message):
        # an OSp(1|4) pair over B_2: named by the group's block sizes before any product, where
        # numpy's matmul would raise about a core dimension
        U = OspGroup(1, 2, 2).sample_member(np.random.default_rng(0)).coeffs
        with pytest.raises(ValueError, match=message):
            HolonomyPair.from_stack(group, np.array([[U, U]]), ["a"])
        with pytest.raises(ValueError, match=r"^expected block sizes"):
            HolonomyPair.from_stack(group, U, ["a"])

    def test_nested_list_and_complex_stack(self, g12):
        # U is converted once: a nested list gives the array's pairs, a complex U is named
        U = np.array([[SuperMatrix.from_body(np.diag([s, 1.0, 1.0]), 1, 2, 2).coeffs] * 2 for s in (1.0, -1.0)])
        assert HolonomyPair.from_stack(g12, U.tolist(), ["a", "b"]) == HolonomyPair.from_stack(g12, U, ["a", "b"])
        with pytest.raises(TypeError, match=r"^U must be real, got dtype complex128$"):
            HolonomyPair.from_stack(g12, U + 0j, ["a", "b"])

    def test_metadata(self, g12):
        body = np.eye(3)
        body[1:, 1:] = rotation(0.7)
        U = SuperMatrix.from_body(body, 1, 2, 2)
        pair, = HolonomyPair.from_stack(g12, np.array([[U.coeffs, U.coeffs]]), ["so2"])
        assert (pair.label, pair.moduli) == ("so2", 0) and pair.residual <= DEFECT_TOL


class TestNonExponentialFamily:
    def test_boundary_conditions(self, g12):
        fam = build_nonexp_holonomy(0.35, -0.2, grid_points=64)
        eye = SuperMatrix.identity(1, 2, 2)
        assert fam.U1[0] == eye
        assert fam.U2[0] == eye
        assert np.abs(fam.U1[-1].body() - fam.target_body_1).max() < 1e-8
        assert np.abs(fam.U2[-1].body() - fam.target_body_2).max() < 1e-8

    def test_membership_along_path(self, g12):
        fam = build_nonexp_holonomy(0.3, 0.1, grid_points=16)
        for u in fam.U1 + fam.U2:
            assert g12.membership_defect(u) <= 1e-9

    def test_target_is_outside_the_exponential_image(self):
        fam = build_nonexp_holonomy(0.35, 0.1, grid_points=8)
        # the SL(2) exponential image is {tr > -2} plus -I; the endpoint's
        # lower block -exp(2 pi A sigma_1) has tr = -2 cosh(2 pi A) < -2,
        # so no single exponential reaches it even though the path does
        lower = fam.target_body_1[1:, 1:]
        assert abs(np.linalg.det(lower) - 1.0) < 1e-10
        assert np.trace(lower) < -2.0
        assert np.abs(lower + np.eye(2)).max() > 0.1

    def test_connection_is_approximately_tangent(self):
        fam = build_nonexp_holonomy(0.2, 0.1, grid_points=32)
        H = graded_form(1, 2)
        h, U = float(fam.grid[1] - fam.grid[0]), fam.U1
        for j in range(1, 6):
            # U^-1 dU by central differences
            dU = SuperMatrix.from_coeffs(1, 2, (U[j + 1].coeffs - U[j - 1].coeffs) * (1.0 / (2 * h)))
            b = (U[j].inverse() @ dU).body()
            assert np.abs(supertranspose_coeffs(b, 1) @ H + H @ b).max() < 1e-3


def _so(m, scale, seed):
    K = np.random.default_rng(seed).uniform(-scale, scale, (m, m))
    return K - K.T


def _sp(two_n, scale, seed):
    S = np.random.default_rng(seed).uniform(-scale, scale, (two_n, two_n))
    return symplectic_form(two_n) @ (S + S.T)


def _sp_nilpotent(two_n, c):
    S = np.zeros((two_n, two_n))
    S[0, 0] = c
    return symplectic_form(two_n) @ S


# (m, 2n, so(m) block, sp(2n) block): rotations, symplectic and parabolic
# generators, with 1-norms from 0.3 (no squaring) to about 8 (four squarings)
EXPM_GENERATORS = {
    "so2": (2, 2, _so(2, 1.0, 1), np.zeros((2, 2))),
    "so3-large": (3, 2, _so(3, 3.0, 2), np.zeros((2, 2))),
    "so4": (4, 2, _so(4, 1.0, 3), np.zeros((2, 2))),
    "sp2": (1, 2, np.zeros((1, 1)), _sp(2, 0.7, 4)),
    "sp4-large": (1, 4, np.zeros((1, 1)), _sp(4, 1.5, 5)),
    "parabolic-small": (1, 2, np.zeros((1, 1)), 0.15 * SIGMA_PLUS),
    "parabolic-large": (1, 2, np.zeros((1, 1)), 2.5 * SIGMA_PLUS),
    "parabolic-sp4": (1, 4, np.zeros((1, 1)), _sp_nilpotent(4, 3.0)),
    "mixed": (2, 2, _so(2, 0.8, 6), _sp(2, 0.5, 7)),
}


class TestRealExpm:
    """The shared scaling-and-squaring exponential against scipy.linalg.expm."""

    @pytest.mark.parametrize("name", sorted(EXPM_GENERATORS))
    def test_blocks_match_scipy(self, name):
        _, _, so_block, sp_block = EXPM_GENERATORS[name]
        for block in (so_block, sp_block):
            # a few ulps of rounding per product, over at most four squarings
            ref = scipy.linalg.expm(block)
            assert np.abs(real_expm(block) - ref).max() <= 1e-13 * np.abs(ref).max()

    @pytest.mark.parametrize("name", sorted(EXPM_GENERATORS))
    def test_supermatrix_body_matches_real_path(self, name):
        m, two_n, so_block, sp_block = EXPM_GENERATORS[name]
        body = scipy.linalg.block_diag(so_block, sp_block)
        real = real_expm(body)
        super_body = SuperMatrix.from_body(body, m, two_n, 2).expm().body()
        # the supermatrix side drops coefficients below COEFF_CUTOFF in every
        # Taylor term, and each of the squarings can double that error
        squarings = max(0, math.ceil(math.log2(np.abs(body).sum(axis=0).max() / 0.5)))
        tol = 2.0 ** squarings * len(body) * COEFF_CUTOFF
        assert np.abs(super_body - real).max() <= tol * np.abs(real).max()


def _kron_ahat(a0, A0):
    return np.kron(a0.T, np.eye(len(A0))) - np.kron(np.eye(len(a0)), A0)


class RandomOnly:
    """A seeded Generator that counts its random calls and refuses every other method."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.calls = 0

    def random(self, *args, **kwargs):
        self.calls += 1
        return self._rng.random(*args, **kwargs)

    def __getattr__(self, name):
        raise AssertionError(f"the sampler called Generator.{name}")


class TestStacks:
    """The stacked moduli path against the one-matrix forms it replaces."""

    @pytest.mark.parametrize("m,two_n", [(1, 2), (2, 2), (1, 4), (3, 4), (2, 6)])
    def test_ahat_equals_kron(self, m, two_n):
        rng = np.random.default_rng(10 * m + two_n)
        a0, A0 = rng.normal(size=(5, m, m)), rng.normal(size=(5, two_n, two_n))
        stacked = ahat(a0, A0)
        assert stacked.shape == (5, m * two_n, m * two_n)
        for k in range(5):
            assert np.array_equal(ahat(a0[k], A0[k]), _kron_ahat(a0[k], A0[k]))
            assert np.array_equal(stacked[k], _kron_ahat(a0[k], A0[k]))

    def test_rank_stack_equals_per_matrix(self):
        rng = np.random.default_rng(3)
        mats = np.array([rng.normal(size=(4, r)) @ rng.normal(size=(r, 6)) for r in (0, 1, 2, 3, 4)])
        ranks = matrix_rank(mats.reshape(5, 1, 4, 6))
        assert ranks.shape == (5, 1) and ranks.dtype == np.intp
        assert ranks[:, 0].tolist() == [matrix_rank(mat) for mat in mats] == [0, 1, 2, 3, 4]
        assert isinstance(matrix_rank(mats[2]), int)

    def test_expm_mixed_stack_matches_scipy(self):
        C = symplectic_form(2)
        nilpotent = C @ np.array([[1.0, 0.0], [0.0, 0.0]])
        generic = _sp(2, 0.7, 8)
        generic *= 4.0 / np.abs(generic).sum(axis=0).max()
        # a zero, a norm-1 nilpotent, a norm-4, a norm-0.3 and a norm-2e-12
        # generator: 0, 1, 3, 0 and 0 squarings, and series of 1 to ~20 terms
        tiny = 1e-12 * np.array([[1.0, 1.0], [0.0, 1.0]])
        stack = np.array([np.zeros((2, 2)), nilpotent, generic, 0.075 * generic, tiny])
        result = real_expm(stack)
        for block, member in zip(stack, result):
            # scipy sums a Pade approximant, a different rounding path
            ref = scipy.linalg.expm(block)
            assert np.abs(member - ref).max() <= 1e-13 * np.abs(ref).max()
            # each member keeps its own squaring count and series length:
            # bit-equal to the one-matrix result, also where a shared series
            # length would add tiny's 1e-24 second term to its 1e-12 entries
            assert member.tobytes() == real_expm(block).tobytes()

    @pytest.mark.parametrize("m,n", [(1, 1), (2, 1), (1, 2), (3, 2)])
    def test_moduli_counts_equal_per_sample_loop(self, m, n):
        seed = 90 + 10 * m + n
        counts = moduli_counts(m, n, seed, 25)["counts"]
        loop = [(fermionic_moduli_count(*bodies), fermionic_moduli_count_bruteforce(*bodies))
                for bodies in zip(*commuting_bodies(m, n, seed, 25))]
        assert counts == loop
        assert all(type(x) is int for pair in loop for x in pair)

    @pytest.mark.parametrize("m,n", [(1, 1), (2, 1), (1, 2), (3, 2)])
    def test_torus_cohomology_equals_per_pair_ranks(self, m, n):
        # the stacked joint rank against each pair's [Ahat; Bhat] and the
        # untransposed constraint [-Bhat, Ahat], each ranked on its own at the
        # pair's scale; the (1|2), (1|4) and (3|4) draws include singular
        # pairs, central ones among them at m = 1, (2|2)'s do not
        bodies = commuting_bodies(m, n, 40, 40)
        h0, h2 = torus_cohomology(*bodies)
        d = 2 * m * n
        for k, (a0, b0, A0, B0) in enumerate(zip(*bodies)):
            Ah, Bh = ahat(a0, A0), ahat(b0, B0)
            scale = max(np.linalg.norm(a0) + np.linalg.norm(A0), np.linalg.norm(b0) + np.linalg.norm(B0))
            assert d - h0[k] == matrix_rank(np.concatenate([Ah, Bh]), scale)
            assert d - h2[k] == matrix_rank(np.concatenate([-Bh, Ah], axis=1), scale)
            assert torus_cohomology(a0, b0, A0, B0) == (h0[k], h2[k])

    def test_one_svd_call_per_sweep(self, monkeypatch):
        # moduli_counts ranks every pair's orbit and constraint in one call, and
        # from_stack its brute-force counts in one more
        shapes, svd = [], np.linalg.svd

        def counting_svd(a, *args, **kwargs):
            shapes.append(a.shape)
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        res = moduli_counts(1, 2, 0, 50)
        assert res["passed"] and shapes == [(2, 50, 8, 4)]
        shapes.clear()
        assert [pair.moduli for pair in sector_representatives(enumerate_sectors_osp12().fermionic_sectors)] == [2] * 4
        assert shapes == [(2, 4, 4, 2)]

    @pytest.mark.parametrize("m,n", [(1, 1), (2, 1), (1, 2), (3, 2)])
    def test_seven_random_calls_per_sample(self, m, n):
        # the block of words commuting_bodies reads for sample k is what a
        # generator on PCG64(seed) advanced by k W words reads in seven random
        # calls: doubles into K | S t | u | L P, float32 halves for the kind and
        # the six signs; the kinds that draw S (0 and 3) and those that do not
        # (1 and 2) alike
        s0, q = m * m, 4 * n * n
        W = 2 * s0 + 2 * q + 8
        words = np.random.PCG64(40 + m + n).random_raw(40 * W).reshape(40, W)
        kinds = set()
        for k, w in enumerate(words):
            rng = RandomOnly(np.random.PCG64(40 + m + n).advance(k * W))
            row, half = np.zeros(2 * s0 + 2 * q + 4), np.empty(7, dtype=np.float32)
            rng.random(out=row[:s0])
            rng.random(out=half[:1], dtype=np.float32)
            kind = int(integers_from_random(half[0], 4))
            draws_s = kind in (0, 3)
            rng.random(out=row[s0 if draws_s else s0 + q:s0 + q + 2])
            rng.random(out=half[1:3], dtype=np.float32)
            rng.random(out=row[s0 + q + 2:s0 + q + 4])
            rng.random(out=half[3:], dtype=np.float32)
            rng.random(out=row[s0 + q + 4:])
            assert rng.calls == 7
            kinds.add(kind)
            rest = w[s0 + 1 + q:] if draws_s else w[s0 + 1:-q]
            K, S, t, u, LP = ((x >> np.uint64(11)) * 2.0 ** -53
                              for x in (w[:s0], w[s0 + 1:s0 + 1 + q], rest[:2], rest[3:5], rest[7:]))
            assert np.array_equal(row, np.concatenate([K, S if draws_s else np.zeros(q), t, u, LP]))
            halves = [int(x) >> shift & 0xFFFFFFFF for x in (w[s0], rest[2], rest[5]) for shift in (0, 32)]
            halves.append(int(rest[6]) & 0xFFFFFFFF)
            assert np.array_equal(half, np.array([(h >> 8) * 2.0 ** -24 for h in halves], dtype=np.float32))
            assert kind == halves[0] >> 30
        assert kinds == {0, 1, 2, 3}

    def test_two_random_calls_per_rotation_sample(self):
        rng = RandomOnly(8)
        res = checks.osp22_rotation_det(rng, 37, 1e-10)
        assert rng.calls == 2 * 37
        assert res == checks.osp22_rotation_det(np.random.default_rng(8), 37, 1e-10)


def _sample_member_loop(group, rng, components=True):
    """sample_member as a one-sample loop: one draw per coefficient, embed, expm."""
    alg = group.algebra()
    coeffs = []
    for par in alg.parities:
        c = random_element(rng, group.ngen, parity=par, scale=SAMPLE_SCALE)
        if par == 0:   # halve the even souls
            c = GrassmannElement(group.ngen, {k: v * 0.5 if k else v for k, v in c.terms.items()})
        coeffs.append(c)
    M = SuperMatrix.from_coeffs(group.m, group.two_n,
                                alg.embed(np.stack([c.dense() for c in coeffs], axis=1))).expm()
    if components and rng.random() < 0.5:
        M = reflection(group) @ M
    return M


def _membership_closure_loop(group, rng, pool_size, ops, tol):
    """membership_closure as a per-op loop, one product, inverse or defect call each."""
    pool = [_sample_member_loop(group, rng) for _ in range(pool_size)]
    worst = 0.0
    for k in range(ops):
        i, j = rng.integers(0, len(pool), 2)
        if k % 3 == 0:
            M = pool[i] @ pool[j]
        elif k % 3 == 1:
            M = pool[i].inverse()
        else:
            M = pool[i] @ pool[j] @ pool[i].inverse()
        worst = max(worst, group.membership_defect(M))
    return {"worst_defect": float(worst), "passed": worst <= tol}


CLOSURE_GROUPS = [(1, 1, 2), (2, 1, 2), (1, 2, 2), (2, 1, 3), (1, 1, 4)]


class TestStackedMembership:
    """The stacked sampler and membership sweep against the per-op loops."""

    @pytest.mark.parametrize("m,n,ngen", [(1, 1, 2), (2, 1, 2), (2, 1, 6), (2, 2, 6)])
    def test_sample_stack_equals_loop(self, m, n, ngen):
        group = OspGroup(m, n, ngen)
        rng, ref = np.random.default_rng(m + 10 * ngen), np.random.default_rng(m + 10 * ngen)
        stack = group.sample_stack([rng] * 5)
        single = group.sample_member(rng)
        for member in stack:
            assert np.array_equal(member, _sample_member_loop(group, ref).coeffs)
        assert single == _sample_member_loop(group, ref)
        assert rng.random() == ref.random()

    @pytest.mark.parametrize("ngen", [0, 2, 8])
    def test_empty_sample_stack(self, ngen):
        # no generators, no members: the empty stack of the usual shape, on
        # the split route (B_2) and above SPLIT_MAX (B_8), drawing nothing
        group = OspGroup(2, 1, ngen)
        stack = group.sample_stack([])
        assert stack.shape == (0, 1 << ngen, 4, 4) and stack.dtype == np.float64
        assert group.sample_stack(iter([])).shape == stack.shape

    @pytest.mark.parametrize("m,n", [(1, 1), (2, 1)])
    @pytest.mark.parametrize("ngen", [2, 6, 8])
    def test_reflection_is_the_body_product(self, m, n, ngen):
        # a member's coefficients come before its coin, so the same seed gives
        # the loop's unreflected member, or its reflection
        group = OspGroup(m, n, ngen)
        R = reflection(group).coeffs
        flipped = 0
        for seed in range(6):
            plain = _sample_member_loop(group, np.random.default_rng(seed), components=False).coeffs
            member = group.sample_stack([np.random.default_rng(seed)])[0]
            if not np.array_equal(member, plain):
                # the same bits, signs of zeros included
                assert member.tobytes() == graded_matmul(R, plain).tobytes()
                flipped += 1
        assert 0 < flipped < 6

    @pytest.mark.parametrize("budget", [1, 3 * 1024 * 9 * 8])
    def test_chunked_sample_stack_equals_one_chunk(self, monkeypatch, budget):
        # one member of OspGroup(1, 1, 10) is 1024 * 9 doubles: chunks of 1 and 3
        group = OspGroup(1, 1, 10)
        calls = []
        real = group_module.graded_expm
        monkeypatch.setattr(group_module, "graded_expm",
                            lambda X, *args, **kw: (calls.append(len(X)), real(X, *args, **kw))[1])
        monkeypatch.setattr(grassmann, "STACK_BYTES", 1 << 30)
        whole = group.sample_stack([np.random.default_rng(8)] * 7)
        monkeypatch.setattr(grassmann, "STACK_BYTES", budget)
        chunked = group.sample_stack([np.random.default_rng(8)] * 7)
        assert np.array_equal(chunked, whole)
        assert calls == [7] + ([1] * 7 if budget == 1 else [3, 3, 1])

    @pytest.mark.parametrize("m,n,ngen", CLOSURE_GROUPS)
    @pytest.mark.parametrize("samples", [50, 200])
    def test_closure_equals_per_op_loop(self, m, n, ngen, samples):
        group = OspGroup(m, n, ngen)
        pool_size = max(4, min(16, samples // 4))    # the membership command's pool
        for seed in (0, 1, 5, 7, 12345, 99):
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            got = checks.membership_closure(group, rng, pool_size, samples, 1e-9)
            assert got == _membership_closure_loop(group, ref, pool_size, samples, 1e-9)
            assert rng.random() == ref.random()

    def test_chunked_sweep_equals_one_chunk(self, monkeypatch):
        group = OspGroup(2, 1, 3)
        defect, seen = OspGroup.membership_defect, []

        def recorded(self, M):
            seen.append(defect(self, M))
            return seen[-1]

        monkeypatch.setattr(OspGroup, "membership_defect", recorded)

        def sweep():
            seen.clear()
            res = checks.membership_closure(group, np.random.default_rng(4), 8, 100, 1e-9)
            return res, len(seen), np.concatenate(seen).tolist()

        whole = sweep()
        assert whole[1] == 1
        member = (1 << group.ngen) * (group.m + group.two_n) ** 2 * 8    # bytes of one op
        for budget, chunks in ((1, 100), (7 * member, 15)):
            monkeypatch.setattr(grassmann, "STACK_BYTES", budget)
            res, calls, defects = sweep()
            assert calls > 1       # a patch stack_chunk does not read would run one chunk
            # the same defect for every op, in op order
            assert (res, calls, defects) == (whole[0], chunks, whole[2])

    def test_defect_of_a_stack(self, g12):
        rng = np.random.default_rng(6)
        members = [g12.sample_member(rng) for _ in range(3)]
        bad = SuperMatrix.from_coeffs(1, 2, members[0].coeffs + 1e-3 * SuperMatrix.identity(1, 2, 2).coeffs)
        stack = np.array([M.coeffs for M in members + [bad]])
        defects = g12.membership_defect(stack)
        assert defects.shape == (4,)
        assert defects.tolist() == [g12.membership_defect(M) for M in members + [bad]]
        assert type(g12.membership_defect(bad)) is float and defects[3] > 1e-4
