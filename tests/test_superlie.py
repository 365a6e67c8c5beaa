import dataclasses
import functools
import tracemalloc

import numpy as np
import pytest

from random_inputs import random_element
from superholonomy import superlie
from superholonomy.checks import JACOBI_ALGEBRAS
from superholonomy.grassmann import (PLAN_PAIRS, STACK_BYTES, GrassmannElement, canonical, grade_signs, graded_matmul,
                                    monomial_mask, stack_chunk)
from superholonomy.group import commuting_bodies
from superholonomy.phase import PhaseSpace, check_closure, gauge_fixing_check
from superholonomy.superlie import (
    EPS2,
    MAX_OSP_SIZE,
    SIGMA0,
    SIGMA1,
    SIGMA2,
    SuperAlgebra,
    build_osp,
    build_osp12,
    graded_form,
    pair_plan,
)
from superholonomy.supermatrix import SuperMatrix, body_array, supertranspose_coeffs


@pytest.fixture(scope="module")
def osp12():
    return build_osp12()


class TestOsp12Relations:
    def test_jj_relations_with_scaled_epsilon(self, osp12):
        # [J_a, J_b] = eps_ab^c J_c with eps_012 recorded (the exact solution
        # forces |lam_a| = 1, which scales the symbol to 2)
        J = osp12.rep[:3]
        eps012 = osp12.conventions["epsilon_012"]
        eta_inv = np.linalg.inv(np.diag([-1.0, 1.0, 1.0]))
        eps = np.zeros((3, 3, 3))
        for a, b, c in [(0, 1, 2), (1, 2, 0), (2, 0, 1)]:
            eps[a, b, c] = eps012
            eps[b, a, c] = -eps012
        eps_up = np.einsum("abc,cd->abd", eps, eta_inv)
        for a in range(3):
            for b in range(3):
                lhs = J[a] @ J[b] - J[b] @ J[a]
                rhs = sum(eps_up[a, b, c] * J[c] for c in range(3))
                assert np.abs(lhs - rhs).max() == 0.0

    def test_jq_relations_match_sigma_matrices(self, osp12):
        J, Q = osp12.rep[:3], osp12.rep[3:]
        sigmas = [SIGMA0, SIGMA1, SIGMA2]
        for a in range(3):
            for al in range(2):
                lhs = J[a] @ Q[al] - Q[al] @ J[a]
                rhs = sum(sigmas[a][al, be] * Q[be] for be in range(2))
                assert np.abs(lhs - rhs).max() == 0.0

    def test_qq_closes_onto_even_span(self, osp12):
        J, Q = osp12.rep[:3], osp12.rep[3:]
        eta_inv = np.linalg.inv(np.diag([-1.0, 1.0, 1.0]))
        sigma_up = [
            sum(eta_inv[a, b] * (s @ EPS2) for b, s in enumerate([SIGMA0, SIGMA1, SIGMA2]))
            for a in range(3)
        ]
        for al in range(2):
            for be in range(2):
                lhs = Q[al] @ Q[be] + Q[be] @ Q[al]
                rhs = sum(sigma_up[a][al, be] * J[a] for a in range(3))
                assert np.abs(lhs - rhs).max() == 0.0

    def test_supertrace_form_is_scaled_eta(self, osp12):
        k = osp12.conventions["supertrace_normalization"]
        J = osp12.rep[:3]
        gram = np.array([[np.trace((J[a] @ J[b])[:1, :1]) - np.trace((J[a] @ J[b])[1:, 1:])
                          for b in range(3)] for a in range(3)])
        assert np.allclose(gram, k * np.diag([-1.0, 1.0, 1.0]))
        assert k != 0

    def test_top_left_entry_vanishes(self, osp12):
        # a unit top-left entry cannot satisfy the even bracket relations
        for mat in osp12.rep[:3]:
            assert mat[0, 0] == 0.0

    def test_graded_trace_of_generator_products(self, osp12):
        # the supermatrix supertrace reproduces the full bilinear form, even
        # block diag(-1,1,1) and odd block antisymmetric, with one scale
        k = osp12.conventions["supertrace_normalization"]
        # the generators as coefficient arrays over B_2, the odd ones on the
        # odd pattern; a product of equal parities is even, a SuperMatrix, and
        # one of mixed parities is odd, with zero diagonal blocks and eta 0
        mats = [body_array(mat, 2) for mat in osp12.rep]
        for i in range(5):
            for j in range(5):
                prod = graded_matmul(mats[i], mats[j])
                if osp12.parities[i] == osp12.parities[j]:
                    val = SuperMatrix.from_coeffs(1, 2, prod).supertrace()
                    assert abs(val[0] - k * osp12.eta[i, j]) < 1e-12
                else:
                    assert not np.diagonal(prod, axis1=1, axis2=2).any() and osp12.eta[i, j] == 0.0


class TestBuildOsp:
    @pytest.mark.parametrize(
        "m,n,even,odd", [(1, 1, 3, 2), (2, 1, 4, 4), (1, 2, 10, 4), (2, 2, 11, 8)]
    )
    def test_dimension_formula(self, m, n, even, odd):
        alg = build_osp(m, n)
        assert alg.n_even == m * (m - 1) // 2 + n * (2 * n + 1) == even
        assert alg.n_odd == 2 * m * n == odd

    def test_generators_satisfy_tangency(self):
        alg = build_osp(2, 1)
        H = graded_form(2, 2)
        for mat in alg.rep:
            assert np.abs(supertranspose_coeffs(mat, 2) @ H + H @ mat).max() == 0.0

    def test_11_isomorphic_to_explicit_osp12(self, osp12):
        alg = build_osp(1, 1)
        # both span the same matrix solution space; expand one basis in the
        # other and check the structure constants transform accordingly
        basis = np.array([mat.flatten() for mat in alg.rep]).T
        P = np.array([np.linalg.lstsq(basis, mat.flatten(), rcond=None)[0] for mat in osp12.rep])
        recon = np.einsum("il,ljk->ijk", P, np.array(alg.rep))
        assert np.abs(recon - np.array(osp12.rep)).max() < 1e-12
        P_inv = np.linalg.inv(P)
        f_transformed = np.einsum("il,jm,lmn,nk->ijk", P, P, alg.f, P_inv)
        assert np.abs(f_transformed - osp12.f).max() < 1e-10

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            build_osp(0, 1)
        with pytest.raises(ValueError):
            build_osp(3, 3)


class TestBracket:
    def test_even_even_self_bracket_vanishes(self, osp12):
        x = np.array([0.3, -0.7, 0.2, 0.0, 0.0])
        assert np.abs(osp12.bracket(x, x)).max() < 1e-15

    def test_single_odd_self_bracket_nonzero(self, osp12):
        # {Q, Q} for one odd generator lands on the even span
        x = np.zeros(5)
        x[3] = 1.0
        out = osp12.bracket(x, x)
        assert np.abs(out[:3]).max() > 0.5
        assert np.abs(out[3:]).max() == 0.0

    def test_matches_representation_commutators(self, osp12):
        rng = np.random.default_rng(21)
        for _ in range(20):
            # even coefficients on the body, odd ones on theta1 (x) and theta2 (y)
            xc, yc = np.zeros((4, 5)), np.zeros((4, 5))
            xc[0, :3] = rng.uniform(-1, 1, 3)
            xc[1, 3:] = rng.uniform(-1, 1, 2)
            yc[0, :3] = rng.uniform(-1, 1, 3)
            yc[2, 3:] = rng.uniform(-1, 1, 2)
            X = SuperMatrix.from_coeffs(1, 2, osp12.embed(xc))
            Y = SuperMatrix.from_coeffs(1, 2, osp12.embed(yc))
            matrix_side = X @ Y - Y @ X
            coeff_side = osp12.bracket(xc, yc)
            recon = SuperMatrix.from_coeffs(1, 2, osp12.embed(coeff_side))
            assert matrix_side.diff(recon) < 1e-12

    def test_parity_violation_rejected(self, osp12):
        bad = np.zeros((4, 5))
        bad[1, 0] = 1.0          # theta1 on the even generator J0
        good = np.zeros((4, 5))
        with pytest.raises(ValueError):
            osp12.bracket(bad, good)

    def test_odd_odd_lands_on_even(self, osp12):
        rng = np.random.default_rng(22)
        for _ in range(20):
            x, y = np.zeros((4, 5)), np.zeros((4, 5))
            x[1, 3:] = rng.uniform(-1, 1, 2)
            y[2, 3:] = rng.uniform(-1, 1, 2)
            out = osp12.bracket(x, y)
            assert out.shape == (4, 5)
            assert not out[:, osp12.odd_indices].any()

    def test_real_and_grassmann_routes_agree_on_the_body(self, osp12):
        rng = np.random.default_rng(23)
        x, y = rng.uniform(-1, 1, (2, 5))
        x[3:] = y[3:] = 0.0
        X, Y = np.zeros((4, 5)), np.zeros((4, 5))
        X[0], Y[0] = x, y
        assert osp12.bracket(x, y).shape == (5,)
        assert np.array_equal(osp12.bracket(X, Y)[0], osp12.bracket(x, y))

    @pytest.mark.parametrize("shape", [(5,), (3, 5), (4, 4), (4, 3, 5)])
    def test_embed_rejects_other_shapes(self, osp12, shape):
        with pytest.raises(ValueError, match="coefficient array"):
            osp12.embed(np.zeros(shape))

    def test_embed_of_a_stack_equals_each_member(self, osp12):
        rng = np.random.default_rng(24)
        stack = np.zeros((3, 4, 5))
        stack[:, 0, :3] = rng.uniform(-1, 1, (3, 3))
        stack[:, 1, 3:] = rng.uniform(-1, 1, (3, 2))
        out = osp12.embed(stack)
        assert out.shape == (3, 4, 3, 3)
        for member, coeffs in zip(out, stack):
            assert np.array_equal(member, osp12.embed(coeffs))


def _pairwise_bracket(alg, x, y):
    """Reference route: one element product per coefficient pair, summed term by term."""
    out = [GrassmannElement.zero(x[0].n) for _ in range(alg.dim)]
    for i in range(alg.dim):
        for j in range(alg.dim):
            for k in np.nonzero(alg.f[i, j])[0]:
                out[k] = out[k] + (x[i] * y[j]) * float(alg.f[i, j, k])
    return out


def _dense(elements):
    """A vector of GrassmannElement as the (2^N, dim) coefficient array."""
    return np.stack([e.dense() for e in elements], axis=1)


class TestBracketMatchesPairwiseLoop:
    @pytest.mark.parametrize("m, n, ngen", [(1, 1, 3), (2, 1, 4), (1, 2, 2)])
    def test_same_coefficients(self, m, n, ngen):
        alg = build_osp(m, n)
        rng = np.random.default_rng([m, n, ngen])
        for _ in range(5):
            x, y = ([random_element(rng, ngen, parity=p) for p in alg.parities] for _ in range(2))
            got = alg.bracket(_dense(x), _dense(y))
            want = _dense(_pairwise_bracket(alg, x, y))
            assert got.shape == (1 << ngen, alg.dim)
            assert np.abs(got - want).max() <= 1e-14

    def test_parity_message_names_first_bad_coefficient(self, osp12):
        x = np.zeros((4, 5))
        x[1, 3:] = 1.0           # theta1 on both odd generators
        y = x.copy()
        y[:, 4] = [1.0, 0.0, 0.0, 0.0]    # 1 on the odd Q2
        y[:, 2] = [0.0, 0.0, 1.0, 0.0]    # theta2 on the even J2
        with pytest.raises(ValueError, match="^coefficient 2 must have Grassmann parity 0$"):
            osp12.bracket(x, y)
        with pytest.raises(ValueError, match="^coefficient 4 must have Grassmann parity 1$"):
            osp12.bracket(np.concatenate([y[:, :2], x[:, 2:4], y[:, 4:]], axis=1), x)

    def test_embed_shares_the_parity_message(self, osp12):
        x = np.zeros((4, 5))
        x[0, 3] = 0.5            # a real coefficient on the odd Q1
        with pytest.raises(ValueError, match="^coefficient 3 must have Grassmann parity 1$"):
            osp12.embed(x)


def _embed_loop(alg, coeffs):
    """Reference route: one broadcast multiply-add per generator, in basis order."""
    out = np.zeros((*coeffs.shape[:-1], *alg.rep[0].shape))
    for g, mat in enumerate(alg.rep):
        out += coeffs[..., g, None, None] * mat
    return canonical(out)


BUILDERS = [build_osp12] + [functools.partial(build_osp, m, n) for m in range(1, MAX_OSP_SIZE)
                            for n in range(1, MAX_OSP_SIZE // 2) if m + 2 * n <= MAX_OSP_SIZE]


class TestEmbedMatchesLoop:
    @pytest.mark.parametrize("build", BUILDERS)
    def test_bit_equal(self, build):
        alg = build()
        rng = np.random.default_rng(alg.dim)
        for ngen in range(7):
            # each coefficient at its generator's parity, as _graded_coeffs requires
            wrong = (grade_signs(ngen)[:, :, 0] < 0) != np.array(alg.parities, dtype=bool)
            for scale in (1e-3, 1.0, 1e3):
                coeffs = rng.uniform(-scale, scale, (3, 1 << ngen, alg.dim))
                coeffs[:, wrong] = 0.0
                assert alg.embed(coeffs).tobytes() == _embed_loop(alg, coeffs).tobytes()


class TestJacobi:
    @pytest.mark.parametrize("m,n", [(1, 1), (2, 1), (1, 2), (2, 2)])
    def test_osp_passes(self, m, n):
        report = build_osp(m, n).check_jacobi(tol=1e-12)
        assert report.passed, str(report)

    def test_explicit_osp12_passes(self, osp12):
        assert osp12.check_jacobi(tol=1e-12).passed

    @pytest.mark.parametrize("tol", [np.inf, np.nan, 0.0, -1.0])
    def test_vacuous_tolerance_rejected(self, tol):
        # an infinite tol would pass any f, NaN none
        with pytest.raises(ValueError, match="tolerance must be finite and positive"):
            build_osp(2, 1).check_jacobi(tol=tol)

    def test_perturbation_detected(self, osp12):
        f_bad = osp12.f.copy()
        f_bad[0, 1, 2] += 0.1
        broken = SuperAlgebra(
            labels=osp12.labels, parities=osp12.parities, f=f_bad, eta=osp12.eta
        )
        assert not broken.check_jacobi(tol=1e-12).passed


def _einsum_jacobi_residual(alg):
    """Reference route: the three full einsum contractions."""
    f, p = alg.f, np.asarray(alg.parities)
    sgn = np.where(np.outer(p, p) == 1, -1.0, 1.0)
    lhs = np.einsum("jkl,ilm->ijkm", f, f, optimize=True)
    rhs1 = np.einsum("ijl,lkm->ijkm", f, f, optimize=True)
    rhs2 = np.einsum("ikl,jlm->ijkm", f, f, optimize=True)
    return float(np.abs(lhs - rhs1 - sgn[:, :, None, None] * rhs2).max())


# every size build_osp accepts: m >= 1, n >= 1, m + 2n <= MAX_OSP_SIZE
OSP_SIZES = [(m, n) for n in range(1, MAX_OSP_SIZE // 2) for m in range(1, MAX_OSP_SIZE - 2 * n + 1)]


def _dense_algebra(dim, seed=0):
    """An algebra with the parities and eta of a builder's, f every entry a random integer in [-2, 2]:
    every product and sum is exact, so each route's residual is the einsums' bit for bit."""
    base = next(build_osp(m, n) for m, n in OSP_SIZES if build_osp(m, n).dim == dim)
    f = np.random.default_rng(seed).integers(-2, 3, (dim,) * 3).astype(float)
    return SuperAlgebra(labels=base.labels, parities=base.parities, f=f, eta=base.eta)


# dense f is swept in chunks: all slabs in one (dim 8), several with a short
# last one (dim 19) and one slab per chunk (dim 23)
DENSE_DIMS = (8, 19, 23)


class TestJacobiMatchesEinsum:
    """Both routes of check_jacobi against three einsums.  Every size build_osp
    accepts, plain and with one odd-odd-even entry of f tampered, takes the
    contraction plan; a dense f above PLAN_PAIRS pairs takes the chunked sweep,
    whose sizes run every chunk shape."""

    def test_sizes_cover_every_chunk_shape(self):
        steps = {dim: stack_chunk((dim,) * 3) for dim in DENSE_DIMS}
        assert steps[8] >= 8                    # one chunk of all slabs
        assert steps[19] == 2                   # nine chunks of two and a short one
        assert steps[23] == 1
        assert all(3 * dim ** 5 > PLAN_PAIRS for dim in DENSE_DIMS)

    @pytest.mark.parametrize("m,n", OSP_SIZES)
    def test_every_builder_size_takes_the_plan(self, m, n):
        alg = build_osp(m, n)
        nz, group, size = alg._jacobi_plan
        a_at, b_at, sign, rank = group
        assert len(nz) == np.count_nonzero(alg.f)
        assert len(a_at) == len(b_at) == len(sign) == len(rank) <= PLAN_PAIRS and size == rank.max() + 1
        assert set(sign) <= {-1.0, 1.0}
        assert not any(arr.flags.writeable for arr in (nz, *group))

    @pytest.mark.parametrize("tamper", [False, True])
    @pytest.mark.parametrize("m,n", OSP_SIZES)
    def test_same_residual(self, m, n, tamper):
        alg = build_osp(m, n)
        if tamper:
            f_bad = alg.f.copy()
            f_bad[alg.even_indices[0], alg.odd_indices[0], alg.odd_indices[-1]] += 0.1
            alg = dataclasses.replace(alg, f=f_bad)
        residual = alg.check_jacobi().max_residual
        assert residual == _einsum_jacobi_residual(alg)
        assert (residual > 0.1) if tamper else (residual == 0.0)

    @pytest.mark.parametrize("dim", (5,) + DENSE_DIMS)
    def test_dense_same_residual(self, dim):
        # dim 5 has 3 * 5^5 pairs, under PLAN_PAIRS: the plan also takes a dense f
        alg = _dense_algebra(dim)
        residual = alg.check_jacobi().max_residual
        assert (alg._jacobi_plan is None) == (dim > 5)
        assert residual == _einsum_jacobi_residual(alg) and residual >= 1.0

    @pytest.mark.parametrize("entries", [(), ((0, 1, 2),)])
    def test_plan_without_pairs(self, entries):
        # f = 0, and one nonzero whose l is no first or middle index: no pair, residual 0
        base = build_osp(2, 1)
        f = np.zeros_like(base.f)
        for idx in entries:
            f[idx] = 1.0
        alg = SuperAlgebra(labels=base.labels, parities=base.parities, f=f, eta=base.eta)
        assert alg.check_jacobi().max_residual == 0.0 == _einsum_jacobi_residual(alg)
        _, (a_at, _, _, _), size = alg._jacobi_plan
        assert len(a_at) == 0 == size

    def test_plan_is_not_shared_by_a_copy(self):
        alg = build_osp(2, 1)
        assert alg.check_jacobi().max_residual == 0.0      # builds alg's plan
        f_new = alg.f.copy()
        zero = tuple(np.argwhere(alg.f == 0)[0])
        f_new[zero] = 1.0
        copy = dataclasses.replace(alg, f=f_new)
        residual = copy.check_jacobi().max_residual
        assert residual == _einsum_jacobi_residual(copy) and residual >= 1.0
        assert len(copy._jacobi_plan[0]) == len(alg._jacobi_plan[0]) + 1

    def test_plan_built_once(self, monkeypatch):
        calls = []
        real = superlie.pair_plan
        monkeypatch.setattr(superlie, "pair_plan", lambda *args: (calls.append(1), real(*args))[1])
        alg = dataclasses.replace(build_osp(2, 2))
        first = alg.check_jacobi()
        plan = alg._jacobi_plan
        assert alg.check_jacobi() == first and alg._jacobi_plan is plan
        assert calls == [1]

    @pytest.mark.parametrize("size", [(2, 2), (2, 3)])
    def test_working_memory_bound(self, size):
        # a warm call gathers two float64 factors a pair, 4 STACK_BYTES in all at
        # PLAN_PAIRS; the whole residual would hold dim^4 doubles
        alg = build_osp(*size)
        alg.check_jacobi()
        tracemalloc.start()
        try:
            alg.check_jacobi()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4 * STACK_BYTES + 4 * 8 * alg.dim ** 3, (alg.dim, peak)

    def test_dense_working_memory_bound(self):
        # the first call on a dense f, its route chosen from the pattern included:
        # about three sweep chunks of STACK_BYTES, and no list of its 3 dim^5 pairs
        alg = _dense_algebra(19, seed=1)
        tracemalloc.start()
        try:
            residual = alg.check_jacobi().max_residual
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert alg._jacobi_plan is None
        assert peak <= 4 * STACK_BYTES + 4 * 8 * alg.dim ** 3, peak
        assert residual > 1e-3


def _brute_pairs(terms):
    """Every term's pairs (p, q) with equal keys, p ascending and q ascending within p, and every
    pair's output, term by term, by enumeration."""
    pairs = [[(p, q) for p in range(len(key_a)) for q in range(len(key_b)) if key_a[p] == key_b[q]]
             for (key_a, _), (key_b, _) in terms]
    outputs = [int(out_a[p] + out_b[q]) for ((_, out_a), (_, out_b)), term in zip(terms, pairs) for p, q in term]
    return pairs, outputs


class TestPairPlan:
    """superlie.pair_plan, the one builder behind check_jacobi's and check_closure's plans, against
    a brute-force enumeration of pairs."""

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)

        def factor(count, keys):
            # few output values, so outputs repeat within and across terms
            return rng.choice(keys, count), rng.integers(0, 40, count)

        terms = [
            (factor(12, [0, 1, 2, 3]), factor(9, [1, 2, 3, 4])),   # keys 0 and 4 have no partner
            (factor(0, [0]), factor(5, [0, 1])),                  # an empty factor
            (factor(6, [5, 6]), factor(10, [2, 5, 6])),
        ]
        pairs, outputs, rank = pair_plan(terms, 7)
        expected, out = _brute_pairs(terms)
        assert [list(zip(p.tolist(), q.tolist())) for p, q in pairs] == expected
        assert len(pairs[1][0]) == 0 and len(out) > 0
        values, inverse = np.unique(out, return_inverse=True)
        assert np.array_equal(outputs, values) and np.array_equal(rank, inverse)

    def test_no_pairs(self):
        key, out = np.array([0, 0, 1]), np.array([3, 1, 2])
        pairs, outputs, rank = pair_plan([((key, out), (key + 2, out))], 3)
        assert [len(p) + len(q) for p, q in pairs] == [0] and len(outputs) == len(rank) == 0

    def test_cap_from_counts(self):
        # one key shared by every nonzero makes len(a) len(b) pairs: exactly PLAN_PAIRS are
        # listed, one row more returns None with no pair list allocated (8 bytes a pair, a few
        # times over), only the keys' counts
        def terms(rows):
            a, b = np.zeros(128, dtype=np.int64), np.zeros(rows, dtype=np.int64)
            return [((a, a), (b, b))]

        pairs, _, rank = pair_plan(terms(PLAN_PAIRS // 128), 1)
        assert len(rank) == len(pairs[0][0]) == PLAN_PAIRS
        above = terms(PLAN_PAIRS // 128 + 1)
        tracemalloc.start()
        try:
            plan = pair_plan(above, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert plan is None and peak <= 8 * PLAN_PAIRS // 16, peak


class TestNonFiniteAlgebra:
    @pytest.mark.parametrize("field", ["f", "eta"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejected(self, osp12, field, bad):
        arr = getattr(osp12, field).copy()
        arr.flat[1] = bad
        with pytest.raises(ValueError, match="finite"):
            dataclasses.replace(osp12, **{field: arr})

    def test_rejected_from_json(self, osp12):
        data = osp12.to_json_dict()
        data["f"][0]["value"] = float("nan")
        with pytest.raises(ValueError, match="finite"):
            SuperAlgebra.from_json_dict(data)


class TestComplexInputRefused:
    """A complex array raises TypeError at every float cast of caller input, where numpy would keep
    its real part with only a ComplexWarning; a float array passes uncopied."""

    @pytest.mark.parametrize("field", ["f", "eta", "rep"])
    def test_constructor(self, osp12, field):
        # f[0, 1, 2] + 0.5j, the first nonzero of f, would be stored as 2.0
        arr = np.array(getattr(osp12, field), dtype=complex)
        arr.flat[np.flatnonzero(arr)[0]] += 0.5j
        with pytest.raises(TypeError, match=f"^{field} must be real, got dtype complex128$"):
            dataclasses.replace(osp12, **{field: tuple(arr) if field == "rep" else arr})

    def test_even_components(self, osp12):
        with pytest.raises(TypeError, match="^direction must be real, got dtype complex128$"):
            osp12.even_components([1.0, 0.0, 0.5j])

    def test_embed(self, osp12):
        coeffs = np.zeros((4, osp12.dim), dtype=complex)
        coeffs[0, 0] = 1.0 + 0.5j
        with pytest.raises(TypeError, match="^coefficients must be real, got dtype complex128$"):
            osp12.embed(coeffs)

    @pytest.mark.parametrize("shape", [(5,), (4, 5)])
    def test_bracket(self, osp12, shape):
        x = np.zeros(shape)
        x[..., 0] = 1.0
        for args in ((x * 1j, x), (x, x * 1j)):
            with pytest.raises(TypeError, match="^coefficients must be real, got dtype complex128$"):
                osp12.bracket(*args)

    def test_real_input_not_copied(self, osp12):
        coeffs = np.zeros((4, osp12.dim))
        c = np.array([1.0, 0.0, 0.0])
        assert osp12._graded_coeffs(coeffs) is coeffs and osp12.even_components(c) is c


def _quadratic_gauge_condition():
    # the so2 direction of osp(1|2) pairs r = 2 conditions; psi_1 psi_2 is quadratic
    alg = build_osp12()
    ctx = PhaseSpace.from_algebra(alg)
    return gauge_fixing_check(alg, (1.0, 0.0, 0.0), [ctx.psi(1, 0) * ctx.psi(2, 0)] * 2)


@pytest.mark.parametrize("call, message", [
    (lambda a: dataclasses.replace(a, f=a.f[:4]), r"^f and eta have shapes \(4, 5, 5\) and \(5, 5\), not "),
    (lambda a: dataclasses.replace(a, eta=a.eta[:4]), r"^f and eta have shapes \(5, 5, 5\) and \(4, 5\), not "),
    (lambda a: a.even_components([1.0, 0.0]), "^direction has wrong length$"),
    (lambda a: dataclasses.replace(a, rep=None).embed(np.zeros((2, 5))), "^algebra carries no matrix representation$"),
    (lambda a: SuperMatrix.from_coeffs(1, 2, np.zeros((4, 3, 4))),
     r"^expected a \(2\^N, 3, 3\) array, got shape \(4, 3, 4\)$"),
    (lambda a: SuperMatrix.identity(1, 2, 2) @ SuperMatrix.identity(1, 2, 3),
     "^supermatrix dimensions or generator counts differ$"),
    (lambda a: commuting_bodies(1, 1, 0, 0), "^at least one sample is required$"),
    (lambda a: GrassmannElement(2, {4: 1.0}), "^monomial mask 0x4 outside B_2$"),
    (lambda a: monomial_mask([3], 2), r"^generator index 3 outside 1\.\.2$"),
    (lambda a: _quadratic_gauge_condition(), "^gauge conditions must be linear in the psi's$"),
], ids=["f shape", "eta shape", "direction length", "embed without rep", "from_coeffs shape", "matmul across N",
        "no samples", "mask outside B_N", "generator outside B_N", "quadratic gauge condition"])
def test_validation_raises(osp12, call, message):
    # each argument check raises ValueError with its message
    with pytest.raises(ValueError, match=message):
        call(osp12)


class TestFfBlock:
    def test_parabolic_direction_singular(self, osp12):
        # sigma_+ = sigma_0 + sigma_2 corresponds to -J0 + J2 here
        block = osp12.ff_block([-1.0, 0.0, 1.0])
        assert np.linalg.det(block) == 0.0
        assert np.linalg.matrix_rank(block) == 1

    def test_hyperbolic_direction_regular(self, osp12):
        block = osp12.ff_block([0.0, 1.0, 0.0])
        assert abs(np.linalg.det(block) - (-1.0)) < 1e-14

    def test_zero_direction(self, osp12):
        assert np.abs(osp12.ff_block([0.0, 0.0, 0.0])).max() == 0.0

    def test_rejects_odd_support(self, osp12):
        with pytest.raises(ValueError):
            osp12.ff_block(np.array([0.0, 0.0, 0.0, 1.0, 0.0]))

    @staticmethod
    def _loop_block(alg, c):
        """Reference route: one np.ix_ gather of f[a] per nonzero component, summed in order."""
        od = alg.odd_idx
        block = np.zeros((alg.n_odd, alg.n_odd))
        for a, ci in zip(alg.even_idx, alg.even_components(c)):
            if ci:
                block += ci * alg.f[a][np.ix_(od, od)]
        return block

    @pytest.mark.parametrize("size", [None] + [(m, n) for n in range(1, 4) for m in range(1, 9 - 2 * n)])
    def test_equals_per_generator_loop(self, size):
        alg = build_osp12() if size is None else build_osp(*size)
        rng = np.random.default_rng(alg.dim)
        for trial in range(6):
            c = rng.uniform(-2.0, 2.0, alg.n_even)
            # zero components, some of them -0.0, skipped by both routes
            c[rng.random(alg.n_even) < trial / 6] = rng.choice([0.0, -0.0])
            if trial == 5:
                full = np.zeros(alg.dim)
                full[alg.even_idx] = c
                c = full
            assert alg.ff_block(c).tobytes() == self._loop_block(alg, c).tobytes(), (alg.dim, trial)


class TestInvariance:
    @pytest.mark.parametrize("m,n", [(1, 1), (2, 1), (1, 2)])
    def test_structure_constant_round_trip(self, m, n):
        # f projected out of the representation must reproduce every bracket
        alg = build_osp(m, n)
        for i in range(alg.dim):
            for j in range(alg.dim):
                if alg.parities[i] and alg.parities[j]:
                    br = alg.rep[i] @ alg.rep[j] + alg.rep[j] @ alg.rep[i]
                else:
                    br = alg.rep[i] @ alg.rep[j] - alg.rep[j] @ alg.rep[i]
                recon = sum(alg.f[i, j, k] * alg.rep[k] for k in range(alg.dim))
                assert np.abs(br - recon).max() <= 1e-12

    def test_eta_invariance_on_basis_triples(self, osp12):
        # str([X,Y} Z) = str(X [Y,Z}) expressed through f and eta
        f, eta = osp12.f, osp12.eta
        lhs = np.einsum("ijl,lk->ijk", f, eta)
        rhs = np.einsum("jkl,il->ijk", f, eta)
        assert np.abs(lhs - rhs).max() < 1e-12

    def test_eta_invariance_general_build(self):
        alg = build_osp(2, 1)
        lhs = np.einsum("ijl,lk->ijk", alg.f, alg.eta)
        rhs = np.einsum("jkl,il->ijk", alg.f, alg.eta)
        assert np.abs(lhs - rhs).max() < 1e-12


class TestJson:
    def test_round_trip(self, osp12):
        again = SuperAlgebra.from_json_dict(osp12.to_json_dict())
        assert np.abs(again.f - osp12.f).max() == 0.0
        assert np.abs(again.eta - osp12.eta).max() == 0.0
        assert again.labels == osp12.labels
        assert again.parities == osp12.parities

    @pytest.mark.parametrize("field, index", [
        ("f", [-1, 0, 1]), ("f", [0, 5, 1]), ("f", [0, 1]), ("f", [0, 1, 2, 3]),
        ("eta", [0, -1]), ("eta", [5, 0]), ("eta", [0.0, 1]),
    ])
    def test_rejects_bad_index(self, osp12, field, index):
        data = osp12.to_json_dict()
        data[field][0]["index"] = index
        with pytest.raises(ValueError, match=f"^{field} index"):
            SuperAlgebra.from_json_dict(data)

    @pytest.mark.parametrize("parities, match", [([0, 0, 0, 1], "parities has 4 entries for 5 labels"),
                                                 ([0, 0, 0, 1, 1, 1], "parities has 6 entries"),
                                                 ([0, 0, 0, 1, 2], "parities must be 0 or 1"),
                                                 ([0, 0, 0, 1, 1.5], "parities must be 0 or 1")])
    def test_rejects_bad_parities(self, osp12, parities, match):
        data = osp12.to_json_dict()
        data["parities"] = parities
        with pytest.raises(ValueError, match=match):
            SuperAlgebra.from_json_dict(data)

    def test_validates_structure_constants(self, osp12):
        data = osp12.to_json_dict()
        # drop one entry of an antisymmetric pair
        data["f"] = [e for e in data["f"] if e["index"] != [0, 1, 2]]
        assert len(data["f"]) == len(osp12.to_json_dict()["f"]) - 1
        with pytest.raises(ValueError, match=r"graded antisymmetry violated at \(0,1\)"):
            SuperAlgebra.from_json_dict(data)

    def test_rejects_asymmetric_eta(self, osp12):
        # eta[0, 1] = 0.5 with eta[1, 0] = 0 breaks the even block's symmetry
        data = osp12.to_json_dict()
        data["eta"].append({"index": [0, 1], "value": 0.5})
        with pytest.raises(ValueError, match="eta must be symmetric"):
            SuperAlgebra.from_json_dict(data)

    def test_rejects_even_odd_eta(self, osp12):
        # eta[0, 3] = eta[3, 0] keeps eta symmetric, but the closure's W and the
        # fermion block read only the parity blocks, so the entry must not load
        data = osp12.to_json_dict()
        data["eta"] += [{"index": [0, 3], "value": 0.5}, {"index": [3, 0], "value": 0.5}]
        with pytest.raises(ValueError, match="eta must vanish between even and odd generators"):
            SuperAlgebra.from_json_dict(data)

    @pytest.mark.parametrize("build", [build_osp12, lambda: build_osp(2, 2)])
    def test_replace_rejects_even_odd_eta(self, build):
        alg = build()
        i, a = alg.odd_indices[-1], alg.even_indices[0]
        for entries in ([(i, a)], [(a, i), (i, a)]):
            eta = alg.eta.copy()
            for idx in entries:
                eta[idx] = 0.5
            with pytest.raises(ValueError, match="eta must vanish between even and odd generators"):
                dataclasses.replace(alg, eta=eta)

    def test_general_build_round_trips(self):
        alg = build_osp(2, 2)
        again = SuperAlgebra.from_json_dict(alg.to_json_dict())
        assert np.array_equal(again.f, alg.f) and np.array_equal(again.eta, alg.eta)


class TestCachedAlgebrasReadOnly:
    @pytest.mark.parametrize("build", [build_osp12, lambda: build_osp(2, 2)])
    def test_in_place_write_raises(self, build):
        alg = build()
        try:
            for arr in (alg.f, alg.eta, *alg.rep):
                with pytest.raises(ValueError, match="read-only"):
                    arr[(0,) * arr.ndim] += 1.0
            with pytest.raises(ValueError, match="read-only"):
                alg.f[0, 1] *= 2.0
        finally:   # a write that got through must not reach later tests
            build_osp.cache_clear()
            build_osp12.cache_clear()

    def test_replace_with_copies_still_tampers(self):
        alg = build_osp(2, 1)
        f_bad = alg.f + 0.01
        f_bad[0, 0, 0] = 1.0
        tampered = dataclasses.replace(alg, f=f_bad)
        f_bad[0, 0, 0] = 0.0   # the copy took its own f, which is read-only too
        assert tampered.f[0, 0, 0] == 1.0
        with pytest.raises(ValueError, match="read-only"):
            tampered.f[0, 0, 0] = 2.0
        assert tampered.check_jacobi().max_residual > 1e-3
        assert build_osp(2, 1) is alg
        assert alg.check_jacobi().max_residual == 0.0


class TestImmutableAlgebra:
    @pytest.mark.parametrize("build", [build_osp12] + [functools.partial(build_osp, m, n) for m, n in JACOBI_ALGEBRAS])
    def test_rebinding_raises(self, build):
        alg = build()
        for field in dataclasses.fields(alg):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(alg, field.name, np.zeros_like(alg.f))
        with pytest.raises(TypeError):
            alg.conventions["eta"] = "tampered"
        for arr in (alg.even_idx, alg.odd_idx, alg.even_mask, alg.odd_mask, alg.pair_signs, alg.eta_even,
                    alg.eta_odd, alg.generators):
            assert not arr.flags.writeable
        assert build() is alg and check_closure(alg).passed

    def test_zero_dimensional_rejected(self, osp12):
        # no generators: check_closure would divide by the zero slab size
        with pytest.raises(ValueError, match="at least one generator"):
            SuperAlgebra(labels=(), parities=(), f=np.zeros((0, 0, 0)), eta=np.zeros((0, 0)))
        with pytest.raises(ValueError, match="at least one generator"):
            dataclasses.replace(osp12, labels=(), parities=(), f=np.zeros((0, 0, 0)), eta=np.zeros((0, 0)), rep=None)
        with pytest.raises(ValueError, match="at least one generator"):
            SuperAlgebra.from_json_dict({**osp12.to_json_dict(), "labels": [], "parities": [], "f": [], "eta": []})

    def test_replace_is_a_new_algebra(self, osp12):
        copy = dataclasses.replace(osp12)
        assert copy != osp12 and copy == copy and len({osp12, copy}) == 2
        assert np.array_equal(copy.f, osp12.f) and copy.f is not osp12.f
        assert copy.even_indices + copy.odd_indices == list(range(osp12.dim))

    def test_layout(self):
        alg = build_osp(2, 1)
        assert alg.even_indices == [0, 1, 2, 3] and alg.odd_indices == [4, 5, 6, 7]
        assert np.array_equal(alg.eta_even, alg.eta[:4, :4]) and np.array_equal(alg.eta_odd, alg.eta[4:, 4:])
        assert np.array_equal(alg.generators, np.reshape(alg.rep, (alg.dim, 16)))
        assert alg.pair_signs[4:, 4:].max() == -1.0 and alg.pair_signs[:4].min() == 1.0
