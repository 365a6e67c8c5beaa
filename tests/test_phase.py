import dataclasses
import gc
import tracemalloc
import warnings
import weakref
from itertools import product

import numpy as np
import pytest

from superholonomy import phase
from superholonomy.grassmann import (PLAN_PAIRS, RANK_ROUNDING, STACK_BYTES, GrassmannElement, RankUndecidedError,
                                     canonical, matrix_rank, real_expm)
from superholonomy.group import ahat
from superholonomy.phase import (
    EPS_CYCLES,
    GradedPolynomial,
    PhaseSpace,
    check_closure,
    constraint_tensor,
    exponential_sector_moduli,
    flatness_constraints,
    gauge_fixing_check,
    osp12_exponential_sector,
)
from superholonomy.superlie import (
    OSP12_DIRECTIONS,
    SIGMA0,
    SIGMA1,
    SIGMA2,
    SuperAlgebra,
    build_osp,
    build_osp12,
)
from superholonomy.supermatrix import SuperMatrix


@pytest.fixture(scope="module")
def alg():
    return build_osp12()


@pytest.fixture(scope="module")
def ctx(alg):
    return PhaseSpace.from_algebra(alg)


def random_poly(ctx, rng, parity=None, max_factors=3):
    """Integer-coefficient random polynomial: all checks stay float-exact."""
    out = ctx.zero()
    for _ in range(4):
        term = ctx.scalar(float(rng.integers(-3, 4)))
        for _ in range(rng.integers(0, max_factors + 1)):
            if rng.random() < 0.5:
                term = term * ctx.A(int(rng.integers(1, 3)), int(rng.integers(0, ctx.n_even)))
            else:
                term = term * ctx.psi(int(rng.integers(1, 3)), int(rng.integers(0, ctx.n_odd)))
        out = out + term
    return out.parity_part(parity) if parity is not None else out


class TestFundamentalBrackets:
    def test_even_even(self, ctx):
        # {A_1^a, A_2^b} = eps_12 eta^{ab}; eta = diag(-1,1,1)
        assert ctx.A(1, 1).bracket(ctx.A(2, 1)) == ctx.scalar(1.0)
        assert ctx.A(1, 0).bracket(ctx.A(2, 0)) == ctx.scalar(-1.0)
        assert ctx.A(2, 1).bracket(ctx.A(1, 1)) == ctx.scalar(-1.0)
        assert ctx.A(1, 1).bracket(ctx.A(1, 2)).is_zero()

    def test_same_cycle_psi_vanishes(self, ctx):
        assert ctx.psi(1, 0).bracket(ctx.psi(1, 1)).is_zero()

    def test_cross_cycle_psi(self, ctx):
        # symmetric in the combined index: eps_kj C^{ab}
        b12 = ctx.psi(1, 0).bracket(ctx.psi(2, 1))
        b21 = ctx.psi(2, 1).bracket(ctx.psi(1, 0))
        assert not b12.is_zero()
        assert b12 == b21

    def test_mixed_sector_vanishes(self, ctx):
        assert ctx.A(1, 0).bracket(ctx.psi(2, 1)).is_zero()


class TestBracketLaws:
    def test_graded_antisymmetry(self, ctx):
        rng = np.random.default_rng(60)
        for _ in range(120):
            pf, pg = int(rng.integers(0, 2)), int(rng.integers(0, 2))
            F, G = random_poly(ctx, rng, pf), random_poly(ctx, rng, pg)
            sign = 1.0 if pf and pg else -1.0
            assert F.bracket(G) == G.bracket(F) * sign

    def test_graded_leibniz(self, ctx):
        rng = np.random.default_rng(61)
        for _ in range(120):
            pf, pg = int(rng.integers(0, 2)), int(rng.integers(0, 2))
            F, G = random_poly(ctx, rng, pf), random_poly(ctx, rng, pg)
            H = random_poly(ctx, rng)
            sign = -1.0 if pf and pg else 1.0
            lhs = F.bracket(G * H)
            rhs = F.bracket(G) * H + (G * F.bracket(H)) * sign
            assert lhs == rhs

    def test_graded_jacobi(self, ctx):
        rng = np.random.default_rng(62)
        for _ in range(120):
            pf, pg = int(rng.integers(0, 2)), int(rng.integers(0, 2))
            F, G = random_poly(ctx, rng, pf), random_poly(ctx, rng, pg)
            H = random_poly(ctx, rng, int(rng.integers(0, 2)))
            sign = -1.0 if pf and pg else 1.0
            lhs = F.bracket(G.bracket(H))
            rhs = (F.bracket(G)).bracket(H) + G.bracket(F.bracket(H)) * sign
            assert lhs == rhs


class TestPolynomialAlgebra:
    def test_psi_squares_vanish(self, ctx):
        p = ctx.psi(1, 0)
        assert (p * p).is_zero()

    def test_odd_ordering_sign(self, ctx):
        p, q = ctx.psi(1, 0), ctx.psi(2, 1)
        assert (p * q + q * p).is_zero()

    def test_evaluate_into_grassmann(self, ctx):
        t1, t2 = GrassmannElement(2, {0b01: 1.0}), GrassmannElement(2, {0b10: 1.0})
        poly = ctx.A(1, 0) * ctx.psi(1, 0) * ctx.psi(2, 0) * 2.0
        even_vals = [3.0, 0.0, 0.0, 1.0, 0.0, 0.0]
        odd_vals = [t1, GrassmannElement.zero(2), t2, GrassmannElement.zero(2)]
        out = poly.evaluate(even_vals, odd_vals)
        assert out == t1 * t2 * 6.0

    def test_parity_split(self, ctx):
        mix = ctx.A(1, 0) + ctx.psi(1, 1)
        assert mix.parity_part(0) == ctx.A(1, 0)
        assert mix.parity_part(1) == ctx.psi(1, 1)


class TestConstraints:
    def test_abelian_algebra_gives_zero(self):
        import dataclasses

        alg = build_osp12()
        trivial = dataclasses.replace(alg, f=np.zeros_like(alg.f))
        ev, od = flatness_constraints(trivial)
        assert all(g.is_zero() for g in ev + od)

    def test_odd_constraint_count(self, alg):
        _, odd_G = flatness_constraints(alg)
        assert len(odd_G) == 2

    def test_vanish_on_commuting_exponential_data(self, alg):
        # same abelian direction and aligned fermions solve every constraint
        ctx = PhaseSpace.from_algebra(alg)
        ev_G, od_G = flatness_constraints(alg, ctx)
        rng = np.random.default_rng(63)
        for _ in range(10):
            c = rng.uniform(-1, 1, 3)
            p, q = rng.uniform(0.2, 1.0, 2)
            even_vals = np.concatenate([p * c, q * c])
            psi = GrassmannElement(2, {0b01: 1.0})       # theta1
            direction = rng.uniform(-1, 1, 2)
            odd_vals = [psi * float(direction[0] * p), psi * float(direction[1] * p),
                        psi * float(direction[0] * q), psi * float(direction[1] * q)]
            for g in ev_G + od_G:
                assert g.evaluate(even_vals, odd_vals).max_abs() < 1e-10

    def test_constraints_vanish_iff_exponentials_commute(self, alg):
        # dual route: the same (A, psi) data feeds both the exponential map
        # and the constraint polynomials; commuting holonomies <-> G = 0
        ctx = PhaseSpace.from_algebra(alg)
        ev_G, od_G = flatness_constraints(alg, ctx)
        psi = GrassmannElement(2, {0b01: 1.0})           # theta1
        zero = GrassmannElement.zero(2)

        def build_pair(even_vals, odd_vals):
            c1 = [GrassmannElement.scalar(v, 2) for v in even_vals[:3]] + list(odd_vals[:2])
            c2 = [GrassmannElement.scalar(v, 2) for v in even_vals[3:]] + list(odd_vals[2:])
            return _embed_elements(alg, c1).expm(), _embed_elements(alg, c2).expm()

        # aligned data: everything vanishes and the holonomies commute
        c = np.array([-0.4, 0.2, 0.9])
        even_vals = np.concatenate([0.5 * c, 1.1 * c])
        odd_vals = [psi * 0.35, psi * (-0.6), psi * 0.77, psi * (-1.32)]
        U1, U2 = build_pair(even_vals, odd_vals)
        assert np.abs((U1 @ U2).coeffs - (U2 @ U1).coeffs).max() < 1e-10
        for g in ev_G + od_G:
            assert g.evaluate(even_vals, odd_vals).max_abs() < 1e-10
        # misaligned bosonic data: a constraint fires and the pair stops commuting
        even_bad = np.array([0.7, 0.0, 0.0, 0.0, 0.9, 0.0])
        U1, U2 = build_pair(even_bad, [zero] * 4)
        assert np.abs((U1 @ U2).coeffs - (U2 @ U1).coeffs).max() > 1e-3
        assert max(g.evaluate(even_bad, [zero] * 4).max_abs() for g in ev_G) > 0.1


def _embed_elements(alg, coeffs):
    """alg.embed of a vector of GrassmannElement, as a SuperMatrix."""
    embedded = alg.embed(np.stack([c.dense() for c in coeffs], axis=1))
    return SuperMatrix.from_coeffs(alg.block_m, alg.block_n, embedded)


def _tampered(alg):
    """The CLI's --debug-tamper: f loses graded antisymmetry in one entry."""
    f_bad = alg.f.copy()
    f_bad[alg.even_indices[0], alg.odd_indices[0], alg.odd_indices[-1]] += 0.1
    return dataclasses.replace(alg, f=f_bad)


def _polynomial_closure(alg, eta_override=None):
    """Reference route: bracket every constraint pair as polynomials and fit
    each bracket to the constraint span by exact coefficient matching."""
    ctx = PhaseSpace.from_algebra(alg)
    if eta_override is not None:
        ctx = PhaseSpace.create(eta_override, ctx.C_mat)
    even_G, odd_G = flatness_constraints(alg, ctx)
    Gs = even_G + odd_G
    dim = len(Gs)
    monomials = sorted({key for g in Gs for key in g.terms})
    index = {key: i for i, key in enumerate(monomials)}
    basis = np.zeros((len(monomials), dim))
    for col, g in enumerate(Gs):
        for key, c in g.terms.items():
            basis[index[key], col] = c
    induced = np.zeros((dim, dim, dim))
    max_unexplained = 0.0
    for i, j in product(range(dim), repeat=2):
        rhs = np.zeros(len(monomials))
        for key, c in Gs[i].bracket(Gs[j]).terms.items():
            if key in index:
                rhs[index[key]] = c
            else:
                max_unexplained = max(max_unexplained, abs(c))
        induced[i, j] = np.linalg.lstsq(basis, rhs, rcond=None)[0]
        max_unexplained = max(max_unexplained, np.abs(basis @ induced[i, j] - rhs).max(initial=0.0))
    order = alg.even_indices + alg.odd_indices
    f_ord = alg.f[np.ix_(order, order, order)]
    eta_ord = alg.eta[np.ix_(order, order)]
    par = np.array([alg.parities[i] for i in order])
    target = np.where(np.outer(par, par) == 1, -1.0, 1.0)[:, :, None] * f_ord
    lowered = np.einsum("ia,jb,abk,kl->ijl", eta_ord, eta_ord, induced, np.linalg.inv(eta_ord))
    kappa = float(np.sum(lowered * target) / np.sum(target * target))
    return kappa, max_unexplained, float(np.abs(lowered - kappa * target).max()), induced


class TestClosureMatchesPolynomials:
    """check_closure contracts the constraint tensor; the polynomial bracket
    of the symbolic constraints must give the same report."""

    @pytest.mark.parametrize("tamper", [False, True])
    @pytest.mark.parametrize("size", [(1, 1), (2, 1), (1, 2)])
    def test_same_report(self, size, tamper):
        alg = build_osp12() if size == (1, 1) else build_osp(*size)
        self._compare(_tampered(alg) if tamper else alg)

    @pytest.mark.parametrize("eta", [np.diag([-1.0, 1.3, 1.0]), np.diag([-1.2, 1.0, 1.0])])
    def test_same_report_detuned(self, alg, eta):
        self._compare(alg, eta)

    @staticmethod
    def _compare(alg, eta=None):
        kappa, unexplained, prop, induced = _polynomial_closure(alg, eta)
        report = check_closure(alg, eta_override=eta)
        assert abs(report.kappa - kappa) <= 1e-14
        assert abs(report.max_unexplained - unexplained) <= 1e-14
        assert abs(report.proportionality_residual - prop) <= 1e-14
        assert np.abs(report.induced - induced).max() <= 1e-14

    def test_closure_builds_no_polynomials(self, monkeypatch):
        def refuse(*_):
            raise AssertionError("check_closure used polynomial arithmetic")

        monkeypatch.setattr(GradedPolynomial, "bracket", refuse)
        monkeypatch.setattr(GradedPolynomial, "__mul__", refuse)
        assert check_closure(build_osp(2, 1)).passed


def _lstsq_closure(alg, eta_override=None):
    """Reference route: the per-slab lstsq loop, one SVD of the same basis
    per {G^K, .} slab, with tensordot terms and an einsum lowering."""
    ctx = PhaseSpace.from_algebra(alg)
    if eta_override is not None:
        ctx = PhaseSpace.create(eta_override, ctx.C_mat)
    F = constraint_tensor(alg)
    dim = F.shape[0]
    ev, od = alg.even_indices, alg.odd_indices
    W = np.zeros((dim, dim))
    W[np.ix_(ev, ev)] = np.linalg.inv(ctx.eta_mat)
    W[np.ix_(od, od)] = np.linalg.inv(ctx.C_mat)
    par = np.asarray(alg.parities)
    graded_sign = np.where(np.outer(par, par) == 1, -1.0, 1.0)
    signed_F = graded_sign[:, :, None] * F
    basis = F.reshape(dim * dim, dim)
    induced = np.zeros((dim, dim, dim))
    max_unexplained = 0.0
    for k in range(dim):
        swapped = np.tensordot(signed_F, W.T @ F[:, :, k], axes=(1, 0)).transpose(0, 2, 1)
        rhs = (graded_sign * swapped - np.tensordot(F[:, :, k] @ W, F, axes=(1, 0))
               ).reshape(dim * dim, dim)
        coeffs = np.linalg.lstsq(basis, rhs, rcond=None)[0]
        induced[k] = coeffs.T
        max_unexplained = max(max_unexplained, np.abs(basis @ coeffs - rhs).max(initial=0.0))
    lowered = np.einsum("ia,jb,abk,kl->ijl", alg.eta, alg.eta, induced,
                        np.linalg.inv(alg.eta), optimize=True)
    target = graded_sign[:, :, None] * alg.f
    kappa = float(np.sum(lowered * target) / np.sum(target * target))
    return kappa, max_unexplained, float(np.abs(lowered - kappa * target).max()), induced


def _slab_loop_rhs(alg, eta_override=None):
    """Reference route: check_closure's right-hand sides, rhs[k, (I, J), L] the coefficient of
    x_I y_J in {G^k, G^L}, built one {G^K, .} slab at a time on a strided transposed view."""
    par = np.asarray(alg.parities)
    ev, od = par == 0, par == 1
    eta = alg.eta[ev][:, ev] if eta_override is None else np.asarray(eta_override, dtype=float)
    W = np.zeros((alg.dim, alg.dim))
    W[np.ix_(ev, ev)] = np.linalg.inv(eta)
    W[np.ix_(od, od)] = np.linalg.inv(alg.eta[od][:, od])
    return _slab_rhs(constraint_tensor(alg), W, np.where(np.outer(par, par) == 1, -1.0, 1.0))


def _slab_rhs(F, W, graded_sign):
    dim = F.shape[0]
    F_rows = F.reshape(dim, dim * dim)
    signed_rows = (graded_sign[:, :, None] * F).transpose(1, 0, 2).reshape(dim, dim * dim)
    rhs = np.empty((dim, dim * dim, dim))
    for k in range(dim):
        F_k = F[:, :, k]
        swapped = ((F_k.T @ W) @ signed_rows).reshape(dim, dim, dim).transpose(1, 0, 2)
        rhs[k] = (graded_sign * swapped - ((F_k @ W) @ F_rows).reshape(dim, dim, dim)).reshape(dim * dim, dim)
    return rhs


def _plan_order(alg, eta_override=None):
    """The flat positions in _slab_loop_rhs of a plan's outputs, in plan order, from the patterns
    alone: the structural nonzeros of the right-hand sides, where T1 or T2 has a product of nonzeros
    (the slab loop's two products on the 0/1 patterns of F and W), those on a nonzero row of the
    basis first, in flat order, then the rest."""
    dim = alg.dim
    eta = alg.eta_even if eta_override is None else eta_override
    Fb = (constraint_tensor(alg) != 0).astype(float)
    Wb = (phase._inverse_forms(alg, eta) != 0).astype(float)
    F_rows, swapped_rows = Fb.reshape(dim, dim * dim), Fb.transpose(1, 0, 2).reshape(dim, dim * dim)
    hit = np.stack([((Fb[:, :, k].T @ Wb) @ swapped_rows).reshape(dim, dim, dim).transpose(1, 0, 2)
                    + ((Fb[:, :, k] @ Wb) @ F_rows).reshape(dim, dim, dim) for k in range(dim)])
    outputs = np.flatnonzero(hit)
    on = Fb.reshape(dim * dim, dim).any(1)[outputs // dim % dim ** 2]
    return np.concatenate((outputs[on], outputs[~on]))


def _with_spectator(alg, mix=False):
    """alg plus one even generator Z in no bracket: F has a zero K = Z column,
    so the constraint basis is rank-deficient.  With mix, Z is rotated into
    the second even generator, so the null direction is no basis column and
    its singular value is rounding (1e-16), which only the cutoff removes."""
    dim = alg.dim
    f = np.zeros((dim + 1,) * 3)
    f[:dim, :dim, :dim] = alg.f
    eta = np.zeros((dim + 1,) * 2)
    eta[:dim, :dim] = alg.eta
    eta[dim, dim] = 1.0
    if mix:
        R = np.eye(dim + 1)
        R[np.ix_([1, dim], [1, dim])] = [[0.6, -0.8], [0.8, 0.6]]
        f = np.einsum("ia,jb,abc,ck->ijk", R, R, f, R.T)
        eta = R @ eta @ R.T
    return SuperAlgebra(labels=alg.labels + ("Z",), parities=alg.parities + (0,), f=f, eta=eta)


def _perturbed_eta(alg, seed=0):
    """alg's even eta block plus a small dense symmetric perturbation: a non-diagonal eta_override
    whose inverse W has a nonzero pattern other than alg's own."""
    R = np.random.default_rng(seed).uniform(-0.05, 0.05, alg.eta_even.shape)
    eta = alg.eta_even + (R + R.T)
    assert np.count_nonzero(np.linalg.inv(eta)) > np.count_nonzero(np.linalg.inv(alg.eta_even))
    return eta


def _dense_closure_algebra(base, seed=0):
    """base's parities and eta with a dense graded-antisymmetric f of integers in [-4, 4]: every entry
    of F is nonzero where it is read, and every product and sum of the builders' W is exact."""
    f = np.random.default_rng(seed).integers(-2, 3, (base.dim,) * 3).astype(float)
    f -= base.pair_signs[:, :, None] * f.transpose(1, 0, 2)
    return SuperAlgebra(labels=base.labels, parities=base.parities, f=f, eta=base.eta)


CLOSURE_SIZES = [(1, 1), (2, 1), (1, 2), (2, 2), (3, 1), (1, 3)]


def _ix_constraint_tensor(alg):
    """Reference route: F block by block through np.ix_."""
    par = np.asarray(alg.parities)
    ev, od = par == 0, par == 1
    F = np.zeros_like(alg.f)
    for blk in ((ev, ev, ev), (od, od, ev), (ev, od, od)):
        F[np.ix_(*blk)] = alg.f[np.ix_(*blk)]
    F[np.ix_(od, ev, od)] = -alg.f[np.ix_(ev, od, od)].transpose(1, 0, 2)
    return F


@pytest.mark.parametrize("tamper", [False, True])
@pytest.mark.parametrize("size", [(1, 1), (2, 1), (1, 2), (2, 2), (3, 1), (1, 3)])
def test_constraint_tensor_matches_block_reference(size, tamper):
    alg = build_osp12() if size == (1, 1) else build_osp(*size)
    if tamper:
        alg = _tampered(alg)
        # every entry of f nonzero, so a mask that reads a wrong block shows
        alg = dataclasses.replace(alg, f=alg.f + np.random.default_rng(size).uniform(-1, 1, alg.f.shape))
    F = constraint_tensor(alg)
    assert np.array_equal(F, _ix_constraint_tensor(alg))
    assert np.array_equal(np.signbit(F), np.signbit(_ix_constraint_tensor(alg)))


def _random_parity_algebra(rng, dim):
    """Random parities in random order and a random f with about a third of its entries 0.0 and a
    third -0.0: constraint_tensor reads no form, so eta is zero."""
    parities = tuple(int(p) for p in rng.integers(0, 2, dim))
    f = rng.uniform(-1.0, 1.0, (dim,) * 3)
    f[rng.random(f.shape) < 1 / 3] = 0.0
    f[rng.random(f.shape) < 1 / 3] = -0.0
    return SuperAlgebra(labels=tuple(f"T{i}" for i in range(dim)), parities=parities, f=f,
                        eta=np.zeros((dim, dim)))


@pytest.mark.parametrize("seed", range(8))
def test_constraint_tensor_matches_block_reference_on_random_parities(seed):
    rng = np.random.default_rng(seed)
    alg = _random_parity_algebra(rng, int(rng.integers(1, 9)))
    assert np.signbit(alg.f[alg.f == 0]).any()
    F = constraint_tensor(alg)
    assert np.array_equal(F, _ix_constraint_tensor(alg))
    assert np.array_equal(np.signbit(F), np.signbit(_ix_constraint_tensor(alg)))


def test_constraint_tensor_plan_is_per_parity_tuple():
    # a tampered copy has its algebra's parities, so it shares the gather
    # plan, but its F is read from its own f
    alg = build_osp(2, 1)
    tampered = _tampered(alg)
    assert phase._constraint_gather(alg.parities) is phase._constraint_gather(tampered.parities)
    F, F_bad = constraint_tensor(alg), constraint_tensor(tampered)
    assert np.array_equal(F_bad, _ix_constraint_tensor(tampered))
    # the tampered f[a, beta, alpha] and its swapped copy F[beta, a, alpha]
    a, beta, alpha = alg.even_indices[0], alg.odd_indices[0], alg.odd_indices[-1]
    assert np.argwhere(F != F_bad).tolist() == [[a, beta, alpha], [beta, a, alpha]]
    assert not any(arr.flags.writeable for arr in phase._constraint_gather(alg.parities))


def _ix_inverse_forms(alg, eta):
    """Reference route: W block by block through np.ix_."""
    par = np.asarray(alg.parities)
    ev, od = par == 0, par == 1
    W = np.zeros((alg.dim, alg.dim))
    W[np.ix_(ev, ev)] = np.linalg.inv(eta)
    W[np.ix_(od, od)] = np.linalg.inv(alg.eta[np.ix_(od, od)])
    return W


def _interleaved_algebra(seed):
    """Three even and four odd generators in a shuffled order, with a random symmetric eta and a
    random antisymmetric C, both invertible; f is zero, which W does not read."""
    rng = np.random.default_rng(seed)
    parities = tuple(int(p) for p in rng.permutation([0, 0, 0, 1, 1, 1, 1]))
    par = np.array(parities, dtype=bool)
    eta = np.zeros((7, 7))
    R = rng.uniform(-1.0, 1.0, (3, 3))
    eta[np.ix_(~par, ~par)] = R + R.T + 4 * np.eye(3)
    R = rng.uniform(-1.0, 1.0, (4, 4))
    eta[np.ix_(par, par)] = R - R.T + np.kron(np.eye(2), [[0.0, 3.0], [-3.0, 0.0]])
    return SuperAlgebra(labels=tuple(f"T{i}" for i in range(7)), parities=parities, f=np.zeros((7,) * 3),
                        eta=eta)


@pytest.mark.parametrize("source", [None, (2, 1), (1, 2), (2, 2), (2, 3), "interleaved"])
def test_inverse_forms_matches_ix_reference(source):
    alg = {None: build_osp12, "interleaved": lambda: _interleaved_algebra(0)}.get(
        source, lambda: build_osp(*source))()
    # the algebra's own eta, a diagonal detuning of one entry and a dense perturbation
    detuned = alg.eta_even.copy()
    detuned[0, 0] *= 1.3
    R = np.random.default_rng(1).uniform(-0.05, 0.05, detuned.shape)
    own = phase._inverse_forms(alg, alg.eta_even)
    for eta in (alg.eta_even, detuned, alg.eta_even + (R + R.T)):
        expected = _ix_inverse_forms(alg, eta)
        # built whole, and from the own W's C^-1, as an eta_override's W is
        for W in (phase._inverse_forms(alg, eta), phase._inverse_forms(alg, eta, "eta_override", own)):
            assert np.array_equal(W, expected)
            assert np.array_equal(np.signbit(W), np.signbit(expected))


def test_inverse_forms_singular_eta_message():
    alg = build_osp12()
    for args, message in (((), "eta"), (("eta_override",), "eta_override")):
        with pytest.raises(ValueError, match=f"^{message} is singular on the even generators$"):
            phase._inverse_forms(alg, np.diag([0.0, 1.0, 1.0]), *args)


def test_closure_rejects_asymmetric_algebra_forms(alg):
    # the algebra's own even eta and C get PhaseSpace.create's checks too
    for (i, j) in ((0, 1), (3, 4)):
        eta = alg.eta.copy()
        eta[i, j] += 0.25
        with pytest.raises(ValueError, match="symmetric"):
            check_closure(dataclasses.replace(alg, eta=eta))


class TestClosureMatchesLstsq:
    """The Gram fit for every slab against one lstsq per slab, through every residual chunking: one
    k-chunk (dim 5, 8, 12), a short last chunk (dim 14 as 11 + 3, dim 19 as 4 + 4 + 4 + 4 + 3) and
    one-slab chunks (dim 27)."""

    @pytest.mark.parametrize("tamper", [False, True])
    @pytest.mark.parametrize("size", CLOSURE_SIZES)
    def test_same_report(self, size, tamper):
        alg = build_osp12() if size == (1, 1) else build_osp(*size)
        self._compare(_tampered(alg) if tamper else alg)

    @pytest.mark.parametrize("eta", [np.diag([-1.0, 1.3, 1.0]), np.diag([-1.2, 1.0, 1.0])])
    def test_same_report_detuned(self, alg, eta):
        report = self._compare(alg, eta)
        assert not report.passed

    @pytest.mark.parametrize("size", [(2, 2), (2, 3)])
    def test_same_report_new_pattern(self, size):
        # a non-diagonal override: its W has a pattern of its own, so
        # check_closure builds a plan for it at osp(2|4), and at osp(2|6),
        # above PLAN_PAIRS, fits the dense route's chunks, whose right-hand
        # sides reach the basis's zero rows
        alg = build_osp(*size)
        assert not self._compare(alg, _perturbed_eta(alg)).passed

    @pytest.mark.parametrize("mix", [False, True])
    def test_rank_deficient_basis(self, alg, mix):
        spectator = _with_spectator(alg, mix)
        F = constraint_tensor(spectator)
        assert np.linalg.matrix_rank(F.reshape(spectator.dim ** 2, spectator.dim)) == alg.dim
        assert F[:, :, -1].any() == mix
        report = self._compare(spectator)
        assert report.passed and abs(report.kappa - 1.0) <= 1e-12

    @pytest.mark.parametrize("size", [(1, 1), (2, 1), (1, 2)])
    def test_same_report_dense_f(self, size):
        # dim 5 and 8 on the plan, dim 14 on the dense route.  The residuals
        # reach 38, where 1e-14 is under two ulps and lstsq itself is 1.6e-14
        # from a long-double fit at dim 14: held to 16 eps of the report's
        # scale where that is above 1e-14, as for inexact products below
        alg = _dense_closure_algebra(build_osp12() if size == (1, 1) else build_osp(*size))
        self._compare(alg, scaled=True)

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("size", [(1, 1), (2, 1)])
    def test_same_report_inexact_products(self, size, seed):
        self._compare(_inexact_algebra(build_osp12() if size == (1, 1) else build_osp(*size), seed), scaled=True)

    @staticmethod
    def _compare(alg, eta=None, scaled=False):
        kappa, unexplained, prop, induced = _lstsq_closure(alg, eta)
        report = check_closure(alg, eta_override=eta)
        tol = 1e-14
        if scaled:
            tol = max(tol, 16 * np.finfo(float).eps * max(np.abs(induced).max(), unexplained, prop))
        assert abs(report.kappa - kappa) <= tol
        assert abs(report.max_unexplained - unexplained) <= tol
        assert abs(report.proportionality_residual - prop) <= tol
        assert np.abs(report.induced - induced).max() <= tol
        return report

    def test_one_factorization_per_call(self, alg, monkeypatch):
        algs = [build_osp(*size) for size in CLOSURE_SIZES]     # built before patching

        def refuse(name):
            def call(*_, **__):
                raise AssertionError(f"check_closure called np.{name}")
            return call

        monkeypatch.setattr(np.linalg, "lstsq", refuse("linalg.lstsq"))
        monkeypatch.setattr(np, "einsum", refuse("einsum"))
        calls = []
        for name in ("pinv", "svd", "eigh", "eigvalsh", "cholesky", "qr", "solve", "inv"):
            real = getattr(np.linalg, name)

            def counted(*args, _real=real, _name=name, **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        for algebra in algs:
            calls.clear()
            assert check_closure(algebra).passed
            assert sorted(calls) == ["eigh", "inv", "inv"], (algebra.dim, calls)
        # an override inverts its own eta, and takes C^-1 from the algebra's W
        calls.clear()
        assert not check_closure(alg, eta_override=np.diag([-1.0, 1.3, 1.0])).passed
        assert sorted(calls) == ["eigh", "inv", "inv", "inv"], calls


# every size build_osp accepts (m >= 1, n >= 1, m + 2n <= 8), dim 5 to 34
OSP_SIZES = [(m, n) for n in range(1, 4) for m in range(1, 9 - 2 * n)]


def _inexact_algebra(base, seed):
    """base's parities and eta with a dense graded-antisymmetric f of non-dyadic values: every
    product of the closure sums rounds."""
    f = np.random.default_rng(seed).uniform(-1.0, 1.0, (base.dim,) * 3) * (np.sqrt(2) / 3)
    f -= base.pair_signs[:, :, None] * f.transpose(1, 0, 2)
    return SuperAlgebra(labels=base.labels, parities=base.parities, f=f, eta=base.eta)


def _basis_rows(alg):
    """The constraint basis F.reshape(dim^2, dim), and the flat indices of its nonzero rows."""
    basis = constraint_tensor(alg).reshape(alg.dim ** 2, alg.dim)
    return basis, np.flatnonzero(basis.any(1))


class TestPseudoInverse:
    """check_closure's Gram pseudo-inverse, G+ B^T on the basis's nonzero rows B, against
    np.linalg.pinv of the whole basis with lstsq's cutoff, zero on the zero rows.  Both are
    backward stable on a basis whose condition number is at most 3.3 (osp(2|6): sqrt(44 / 4));
    they part by at most 3.4 eps of the pseudo-inverse's largest entry, held to 16 eps."""

    @pytest.mark.parametrize("tamper", [False, True])
    @pytest.mark.parametrize("size", [None] + OSP_SIZES)
    def test_equals_numpy_pinv(self, size, tamper):
        alg = build_osp12() if size is None else build_osp(*size)
        self._compare(_tampered(alg) if tamper else alg)

    @pytest.mark.parametrize("mix", [False, True])
    def test_rank_deficient_basis(self, alg, mix):
        self._compare(_with_spectator(alg, mix))

    @staticmethod
    def _compare(alg):
        basis, rows = _basis_rows(alg)
        expected = np.linalg.pinv(basis, rcond=np.finfo(float).eps * max(basis.shape))
        gram = np.zeros_like(expected)
        gram[:, rows] = phase._gram_pinv(basis[rows]) @ basis[rows].T
        assert np.abs(gram - expected).max() <= 16 * np.finfo(float).eps * np.abs(expected).max()

    @pytest.mark.parametrize("size", [None] + OSP_SIZES)
    def test_builders_get_the_reciprocals(self, size):
        # the builders' Gram matrix is diagonal with integer entries: G+ is
        # diag(1 / G_KK) to the bit, whatever BLAS kernel runs eigh's steps
        alg = build_osp12() if size is None else build_osp(*size)
        basis, rows = _basis_rows(alg)
        gram = basis.T @ basis
        assert np.array_equal(gram, np.diag(np.diag(gram)))
        assert np.array_equal(phase._gram_pinv(basis[rows]), np.diag(1.0 / np.diag(gram)))


def _coupled_spectator(base, delta):
    """base plus one even generator Z whose only bracket is [T_0, Z] = delta Z: its basis column is
    delta on the rows (0, Z) and (Z, 0) alone, so the Gram matrix gains the eigenvalue 2 delta^2
    and nothing else changes."""
    spectator = _with_spectator(base)
    f = spectator.f.copy()
    z = spectator.dim - 1
    f[0, z, z], f[z, 0, z] = delta, -delta
    return dataclasses.replace(spectator, f=f)


class TestGramRankRule:
    """The Gram fit ranks G by the one rank rule at the shape of B, its nonzero rows: an eigenvalue
    within RANK_MARGIN of that bound raises, one under it is dropped, one above the margin is kept."""

    @staticmethod
    def _bound(alg):
        basis, rows = _basis_rows(alg)
        largest = np.linalg.eigvalsh(basis.T @ basis)[-1]
        return RANK_ROUNDING * max(len(rows), alg.dim) * np.finfo(float).eps * largest

    @pytest.mark.parametrize("factor", [2.0, 16.0, 200.0])
    def test_eigenvalue_inside_the_margin_raises(self, alg, factor):
        bound = self._bound(_coupled_spectator(alg, 1.0))
        coupled = _coupled_spectator(alg, np.sqrt(factor * bound / 2))
        with pytest.raises(RankUndecidedError):
            check_closure(coupled)

    @pytest.mark.parametrize("factor", [1 / 16, 1024.0])
    def test_eigenvalue_outside_the_margin_is_decided(self, alg, factor):
        bound = self._bound(_coupled_spectator(alg, 1.0))
        coupled = _coupled_spectator(alg, np.sqrt(factor * bound / 2))
        check_closure(coupled)
        if factor > 1:     # lstsq's cutoff, eps max(shape) sigma_max, keeps the smaller one too
            TestClosureMatchesLstsq._compare(coupled)
        basis, rows = _basis_rows(coupled)
        kept = np.count_nonzero(phase._gram_pinv(basis[rows]).any(0))
        assert kept == (alg.dim + 1 if factor > 1 else alg.dim)


class TestClosureMatchesSlabLoop:
    """The plan's right-hand-side sums, and the dense route's chunks (dim 14 as 5 + 5 + 4, one slab
    each at dim 34), against the slab loop's dense right-hand sides built one slab at a time, bit
    for bit wherever every product is exact (the signs of zeros aside).  The plan's outputs are the
    structural nonzeros, and the slab loop is zero everywhere else."""

    @pytest.mark.parametrize("tamper", [False, True])
    @pytest.mark.parametrize("size", [None] + OSP_SIZES)
    def test_bit_identical(self, size, tamper):
        alg = build_osp12() if size is None else build_osp(*size)
        self._compare(_tampered(alg) if tamper else alg)

    @pytest.mark.parametrize("eta", [np.diag([-1.0, 1.3, 1.0]), np.diag([-1.2, 1.0, 1.0])])
    def test_bit_identical_detuned(self, alg, eta):
        self._compare(alg, eta)

    def test_bit_identical_new_pattern(self):
        alg = build_osp(2, 2)
        self._compare(alg, _perturbed_eta(alg))

    @pytest.mark.parametrize("mix", [False, True])
    def test_bit_identical_rank_deficient(self, alg, mix):
        self._compare(_with_spectator(alg, mix))

    @pytest.mark.parametrize("size", [(1, 1), (2, 1), (1, 2)])
    def test_bit_identical_dense_f(self, size):
        # dim 5 and 8 on the plan, many terms an output; dim 14 on the dense route
        self._compare(_dense_closure_algebra(build_osp12() if size == (1, 1) else build_osp(*size)))

    @pytest.mark.parametrize("size", [(1, 1), (2, 1)])
    def test_bit_identical_inexact_sums(self, size):
        # a dense f of 0, +-1, +-2, +-4, then eta scaled by 1.3, which keeps W's
        # pattern and so takes the plan the first call built: every product is
        # exact but the sums round, so the plan must add each output's terms
        # in M order, as a dot product does, and subtract T2 from T1 after
        base = build_osp12() if size == (1, 1) else build_osp(*size)
        f = np.random.default_rng(5).choice([0.0, 1.0, -1.0, 2.0, -2.0, 4.0, -4.0], (base.dim,) * 3)
        alg = SuperAlgebra(labels=base.labels, parities=base.parities, f=f, eta=base.eta)
        self._compare(alg)
        self._compare(alg, 1.3 * alg.eta_even)
        plan, = _cached_plans(alg)
        assert plan is not None

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("size", [(1, 1), (2, 1)])
    def test_inexact_products_within_ulps(self, size, seed):
        # a dense f of non-dyadic values makes the products inexact: a BLAS
        # kernel that fuses each multiply-add rounds once where the plan rounds
        # the product and then the sum, so the plan and the slab loop may part
        # in the last bits (up to 8 eps of the sums' scale at dims 5 and 8
        # under OpenBLAS's Haswell, SkylakeX and Zen kernels, none under
        # Sandybridge's); every sum stays within 16 eps of that scale
        alg = _inexact_algebra(build_osp12() if size == (1, 1) else build_osp(*size), seed)
        sums, expected = self._sums(alg)
        assert np.abs(sums - expected).max() <= 16 * np.finfo(float).eps * np.abs(expected).max()

    @staticmethod
    def _sums(alg, eta=None):
        """The plan's sums and the slab loop's right-hand sides at the plan's outputs, in plan order."""
        F = constraint_tensor(alg)
        W = phase._inverse_forms(alg, alg.eta_even if eta is None else eta)
        _, plan = phase._closure_plan(alg, F, W)
        assert plan is not None
        sums = phase._rhs_sums(plan, F, F.transpose(2, 1, 0) @ W, F.transpose(2, 0, 1) @ W)
        return sums, _slab_loop_rhs(alg, eta).ravel()[_plan_order(alg, eta)]

    @staticmethod
    def _compare(alg, eta=None):
        check_closure(alg, eta_override=eta)      # builds the plan, or not, for W's pattern
        expected = _slab_loop_rhs(alg, eta)
        F = constraint_tensor(alg)
        W = phase._inverse_forms(alg, alg.eta_even if eta is None else eta)
        FtW, FW = F.transpose(2, 1, 0) @ W, F.transpose(2, 0, 1) @ W
        _, plan = phase._closure_plan(alg, F, W)
        if plan is None:
            got = np.concatenate([rhs for _, rhs in phase._dense_rhs(F, FtW, FW, alg.pair_signs)])
        else:
            order = _plan_order(alg, eta)
            sums = phase._rhs_sums(plan, F, FtW, FW)
            got = np.zeros_like(expected)
            got.put(order, sums)
            assert len(sums) == len(order) and plan.local.shape == (plan.n_on,)
        # == to the bit but for the signs of zeros: the slab loop applies (-1)^{|J||L|} to its
        # sums, the plan to its products
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("size", [(2, 2), (2, 3)])
    def test_working_memory_bound(self, size):
        # about 14 dim^3 doubles of whole-tensor arrays plus a few chunks of
        # at most STACK_BYTES; all dim slabs in one batch would hold dim^4
        alg = build_osp(*size)
        check_closure(alg)
        tracemalloc.start()
        try:
            check_closure(alg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 14 * 8 * alg.dim ** 3 + 4 * STACK_BYTES, (alg.dim, peak)


def _report_bytes(report):
    """Every number of a ClosureReport as bytes, the signs of zeros included."""
    return (np.array([report.dim, report.kappa, report.max_unexplained, report.proportionality_residual,
                      report.tol]).tobytes(), report.induced.tobytes())


def _cached_plans(alg):
    """check_closure's cached plans for alg, one per W pattern its calls used, in build order."""
    return [plan for _, plan in phase._RHS_PLANS[alg].values()]


class TestClosurePlan:
    """check_closure's right-hand-side plans: one per algebra and nonzero pattern of the call's W,
    built on the first call with that pattern, with or without an eta_override, and not built
    above PLAN_PAIRS terms, where the call takes the dense route.  Every call's right-hand sides
    == the slab loop's."""

    @pytest.fixture
    def builds(self, monkeypatch):
        # every plan the builder returns, None above PLAN_PAIRS
        built = []
        real = phase._build_closure_plan

        def build(*args):
            entry = real(*args)
            built.append(entry[1])
            return entry

        monkeypatch.setattr(phase, "_build_closure_plan", build)
        return built

    @pytest.fixture
    def routes(self, monkeypatch):
        # the route each call took, "plan" or "dense"
        taken = []
        for name, route in (("_planned_fit", "plan"), ("_dense_fit", "dense")):
            real = getattr(phase, name)
            monkeypatch.setattr(phase, name, lambda *args, real=real, route=route: (taken.append(route), real(*args))[1])
        return taken

    _compare = staticmethod(TestClosureMatchesSlabLoop._compare)

    @pytest.mark.parametrize("size", [None] + OSP_SIZES)
    def test_every_builder_size_takes_the_plan(self, size):
        alg = build_osp12() if size is None else build_osp(*size)
        check_closure(alg)
        # the plain call's plan is kept under the pattern of the algebra's own W
        rows, plan = phase._RHS_PLANS[alg][(np.linalg.inv(alg.eta) != 0).tobytes()]
        groups = (plan.t1, plan.t2, plan.raw)
        assert all(len({len(arr) for arr in group if arr is not None}) == 1 for group in groups)
        assert set(plan.t1[2]) <= {-1.0, 1.0} and plan.t2[2] is None and plan.raw[2] is None
        assert len(plan.t1[3]) + len(plan.t2[3]) <= PLAN_PAIRS and len(plan.raw[3]) <= PLAN_PAIRS
        # the chunks cover the outputs on nonzero rows in order, and raw is [K, (k, L)]
        bounds = [(outs.start, outs.stop) for outs, _ in plan.chunks]
        assert [b0 for b0, _ in bounds] + [plan.n_on] == [0] + [b1 for _, b1 in bounds]
        assert plan.n_on == len(plan.local) <= plan.size and plan.raw[3].max() < alg.dim ** 3
        assert np.array_equal(rows, _basis_rows(alg)[1])
        arrays = [arr for group in groups for arr in group if arr is not None] + [plan.local, rows]
        assert not any(arr.flags.writeable for arr in arrays)

    def test_one_build_per_algebra(self, builds, routes):
        alg = dataclasses.replace(build_osp(2, 2))       # a new instance, no plan yet
        for _ in range(3):
            self._compare(alg)
        plan, = _cached_plans(alg)
        assert len(builds) == 1 and builds[0] is not None and plan is not None
        assert routes == ["plan"] * 3

    def test_diagonal_detuning_shares_the_build(self, builds, routes):
        alg = dataclasses.replace(build_osp12())
        self._compare(alg, np.diag([-1.0, 1.3, 1.0]))  # before the first plain call
        self._compare(alg)
        self._compare(alg, np.diag([-1.0, 1.3, 1.0]))
        self._compare(alg, np.diag([-1.2, 1.0, 1.0]))
        assert len(builds) == 1 and routes == ["plan"] * 4

    @pytest.mark.parametrize("size", [None, (2, 1), (2, 2)])
    def test_route_does_not_depend_on_call_order(self, size, builds, routes):
        # a diagonal detuning keeps W's pattern: whichever call comes first
        # builds the one plan both use, and the reports of either order are
        # the same bits
        base = build_osp12() if size is None else build_osp(*size)
        detuned = base.eta_even.copy()
        detuned[0, 0] *= 1.3
        reports, plans = [], []
        for order in ((detuned, None), (None, detuned)):
            alg = dataclasses.replace(base)
            by_eta = {eta is None: check_closure(alg, eta_override=eta) for eta in order}
            reports.append([_report_bytes(by_eta[plain]) for plain in (True, False)])
            plan, = _cached_plans(alg)
            plans.append([arr for arr in (*plan.t1, *plan.t2, *plan.raw, plan.local) if arr is not None]
                         + [np.array([(o.start, o.stop, c.start, c.stop) for o, c in plan.chunks]),
                            np.array([plan.n_on, plan.size])])
        assert reports[0] == reports[1]
        assert len(builds) == 2 and routes == ["plan"] * 4
        assert all(np.array_equal(a, b) for a, b in zip(*plans))

    def test_singular_own_eta_refused_before_an_override(self, builds):
        # the lowering needs the algebra's own W, built before any plan
        base = build_osp12()
        eta = base.eta.copy()
        eta[0, 0] = 0.0
        alg = dataclasses.replace(base, eta=eta)
        for override in (None, base.eta_even):
            with pytest.raises(ValueError, match="^eta is singular on the even generators$"):
                check_closure(alg, eta_override=override)
        assert builds == [] and alg not in phase._RHS_PLANS

    def test_tampered_copy_gets_its_own_build(self, builds):
        alg = dataclasses.replace(build_osp(2, 1))
        self._compare(alg)
        tampered = _tampered(alg)
        self._compare(tampered)
        assert len(builds) == 2 and None not in builds
        assert _cached_plans(tampered)[0] is not _cached_plans(alg)[0]

    @pytest.mark.parametrize("size, terms", [((1, 2), 11_456), ((2, 2), 20_800), ((2, 3), None)],
                             ids=["osp14", "osp24", "osp26"])
    def test_new_pattern_gets_its_own_build(self, size, terms, builds, routes):
        # a non-diagonal override's W has a pattern of its own: one more build,
        # kept next to the plain call's, or None above PLAN_PAIRS terms (170,520
        # at osp(2|6)), and then the dense route
        alg = dataclasses.replace(build_osp(*size))
        self._compare(alg)
        own, = _cached_plans(alg)
        eta = _perturbed_eta(alg)
        for _ in range(2):
            self._compare(alg, eta)
        assert len(builds) == 2 and builds[0] is not None and _cached_plans(alg)[0] is own
        if terms is None:
            assert builds[1] is None and _cached_plans(alg)[1] is None
            assert routes == ["plan", "dense", "dense"]
        else:
            assert len(builds[1].t1[3]) + len(builds[1].t2[3]) == terms and _cached_plans(alg)[1] is not None
            assert routes == ["plan"] * 3

    def test_dense_f_takes_the_dense_route(self, builds, routes):
        alg = _dense_closure_algebra(build_osp(1, 2))
        for _ in range(2):
            self._compare(alg)
        assert builds == [None] and routes == ["dense", "dense"]

    @pytest.mark.parametrize("entries", [(), ((0, 1, 2),)])
    def test_plan_without_terms(self, entries, builds, routes):
        # on osp(2|2)'s layout, f = 0, and f[0, 1, 2] = 1 alone, which no term pairs: the plan
        # lists no T1 or T2 term and the report reads zeros, with no warning, as the slab loop does
        base = build_osp(2, 1)
        f = np.zeros_like(base.f)
        for idx in entries:
            f[idx] = 1.0
        alg = SuperAlgebra(labels=base.labels, parities=base.parities, f=f, eta=base.eta)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            report = check_closure(alg)
            self._compare(alg)
        plan, = _cached_plans(alg)
        assert len(plan.t1[0]) == len(plan.t2[0]) == len(plan.raw[0]) == len(plan.local) == 0
        assert routes == ["plan"] * 2 and len(builds) == 1
        assert report.max_unexplained == report.proportionality_residual == report.kappa == 0.0
        assert not report.induced.any() and not np.signbit(report.induced).any()

    def test_plan_goes_with_its_algebra(self):
        alg = dataclasses.replace(build_osp(2, 1))
        check_closure(alg)
        gc.collect()            # earlier tests' algebras go first, so only alg's plan can go below
        gone, held = weakref.ref(alg), len(phase._RHS_PLANS)
        assert _cached_plans(alg)[0] is not None
        del alg
        gc.collect()
        assert gone() is None and len(phase._RHS_PLANS) == held - 1


class TestClosure:
    @pytest.mark.parametrize(
        "builder",
        [build_osp12, lambda: build_osp(2, 1), lambda: build_osp(1, 2), lambda: build_osp(2, 2),
         lambda: build_osp(3, 1), lambda: build_osp(1, 3)],
    )
    def test_closure_passes(self, builder):
        report = check_closure(builder(), tol=1e-12)
        assert report.passed, str(report)
        assert abs(report.kappa - 1.0) < 1e-12

    @pytest.mark.parametrize("size", [None] + OSP_SIZES)
    def test_builders_close_exactly(self, size):
        # orthogonal integer basis columns and dyadic right-hand sides: every
        # step of the fit is exact, so the residuals are 0.0 and kappa 1.0 to
        # the bit, on any BLAS kernel
        report = check_closure(build_osp12() if size is None else build_osp(*size))
        assert (report.max_unexplained, report.proportionality_residual, report.kappa) == (0.0, 0.0, 1.0)

    def test_first_class_property(self, alg):
        # every bracket lies in the constraint span: unexplained residual tiny
        report = check_closure(alg)
        assert report.max_unexplained < 1e-12

    def test_detuned_eta_detected(self, alg):
        report = check_closure(alg, eta_override=np.diag([-1.0, 1.3, 1.0]))
        assert not report.passed

    @pytest.mark.parametrize("eta, message", [
        (np.eye(4), "shape"),                  # too many even generators
        (np.eye(2), "shape"),                  # too few
        (np.diag([np.nan, 1.0, 1.0]), "finite"),
        (np.array([[-1.0, 0.2, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]), "symmetric"),
        (np.diag([0.0, 1.0, 1.0]), "eta_override is singular"),
    ])
    def test_bad_eta_override_rejected(self, alg, eta, message):
        with pytest.raises(ValueError, match=message):
            check_closure(alg, eta_override=eta)

    def test_singular_odd_form_rejected(self):
        # one odd generator: its 1 x 1 C is antisymmetric, so zero, which the constructor and
        # the super-Jacobi check accept; closure needs C^-1, plain and with an override
        alg = SuperAlgebra(labels=("a", "b", "c"), parities=(0, 0, 1), f=np.zeros((3, 3, 3)),
                           eta=np.diag([1.0, 1.0, 0.0]))
        assert alg.check_jacobi().passed
        for override in (None, np.eye(2)):
            with pytest.raises(ValueError, match="^C is singular on the odd generators$"):
                check_closure(alg, eta_override=override)
        assert alg not in phase._RHS_PLANS

    def test_complex_eta_override_rejected(self, alg):
        # kept as its real part, this override would pass with kappa 1.0
        with pytest.raises(TypeError, match="^eta_override must be real, got dtype complex128$"):
            check_closure(alg, eta_override=np.diag([-1.0, 1.0, 1.0]) + 0.1j * np.eye(3))

    @pytest.mark.parametrize("form", ["eta", "C"])
    def test_complex_phase_space_form_rejected(self, alg, form):
        forms = {"eta": alg.eta_even, "C": alg.eta_odd}
        forms[form] = forms[form] * (1.0 + 0.5j)
        with pytest.raises(TypeError, match=f"^{form} must be real, got dtype complex128$"):
            PhaseSpace.create(**forms)

    @pytest.mark.parametrize("tol", [np.inf, np.nan, 0.0, -1.0])
    def test_vacuous_tolerance_rejected(self, tol):
        # an infinite tol would pass any f, NaN none
        with pytest.raises(ValueError, match="tolerance must be finite and positive"):
            check_closure(build_osp(2, 1), tol=tol)

    def test_algebra_from_json_feeds_phase_space(self, alg):
        # the serialized algebra (no matrix representation) is enough for
        # the whole constraint analysis
        from superholonomy.superlie import SuperAlgebra

        parsed = SuperAlgebra.from_json_dict(alg.to_json_dict())
        report = check_closure(parsed, tol=1e-12)
        assert report.passed and abs(report.kappa - 1.0) < 1e-12


class TestExponentialSectorModuli:
    def test_parabolic_direction(self, alg):
        report = exponential_sector_moduli(alg, [-1.0, 0.0, 1.0])
        assert report.det == 0.0 and report.rank == 1 and report.moduli == 2
        assert report.direction_is_null

    @pytest.mark.parametrize("c", [[np.nan, 0.0, 0.0], [0.0, np.inf, 0.0, 0.0, 0.0]])
    def test_non_finite_direction_rejected(self, alg, c):
        with pytest.raises(ValueError, match="finite"):
            exponential_sector_moduli(alg, c)

    def test_hyperbolic_direction(self, alg):
        report = exponential_sector_moduli(alg, [0.0, 1.0, 0.0])
        assert abs(report.det + 1.0) < 1e-12 and report.moduli == 0
        assert not report.direction_is_null

    @pytest.mark.parametrize("scale", [1e-8, 1e-6, 1e-3, 1.0, 1e3, 1e200, 1e-200, 2.0 ** -600, 2.0 ** 500])
    def test_null_flag_ignores_scale(self, alg, scale):
        # so2 at 1e-6 has det 1e-12 and rank 2: small, not eta-null.  c.c and
        # c eta^-1 c would overflow at 1e200 and underflow at 1e-200 and
        # 2^-600; det = +-s^2 itself overflows at 1e200
        for name, (c, _) in OSP12_DIRECTIONS.items():
            scaled = scale * np.asarray(c)
            with np.errstate(over="ignore"):
                report = exponential_sector_moduli(alg, scaled)
                det = np.linalg.det(alg.ff_block(scaled))
            assert report.direction_is_null == (name == "parabolic"), (name, scale)
            assert report.rank == exponential_sector_moduli(alg, c).rank and report.det == det, (name, scale)

    def test_criterion_matches_group_side(self, alg):
        # det(c^a f block) = 0 iff det(a0 x I - I x A0) = 0 for exponentials
        # of the same direction (generic parameter, no elliptic wrap-around)
        for name, (c, sigma) in OSP12_DIRECTIONS.items():
            phase_det = exponential_sector_moduli(alg, c).det
            A0 = real_expm(0.8 * sigma)
            group_det = np.linalg.det(ahat(np.array([[1.0]]), A0))
            assert (abs(phase_det) < 1e-10) == (abs(group_det) < 1e-10), name

    def test_random_direction_sweep(self, alg):
        rng = np.random.default_rng(64)
        for _ in range(25):
            c = rng.uniform(-1, 1, 3)
            phase_det = exponential_sector_moduli(alg, c).det
            M = -c[0] * SIGMA0 + c[1] * SIGMA1 + c[2] * SIGMA2
            A0 = real_expm(0.7 * M)
            group_det = np.linalg.det(ahat(np.array([[1.0]]), A0))
            assert (abs(phase_det) < 1e-9) == (abs(group_det) < 1e-9)

    def test_rank_matches_bruteforce_orbit_count(self, alg):
        # r from the fermion block equals 2mn - (brute-force moduli)/2 on the
        # exponentials of each abelian direction
        from superholonomy.group import fermionic_moduli_count_bruteforce

        for name, (c, sigma) in OSP12_DIRECTIONS.items():
            r = exponential_sector_moduli(alg, c).rank
            A0 = real_expm(0.7 * sigma)
            B0 = real_expm(1.3 * sigma)
            moduli = fermionic_moduli_count_bruteforce(1.0, 1.0, A0, B0)
            assert r == 2 - moduli // 2, name


class TestGaugeFixing:
    @staticmethod
    def _eps_contraction(ctx, c, alpha):
        """A_1 psi_2^alpha - A_2 psi_1^alpha with A_k read off along c."""
        norm = sum(ci * ci for ci in c)
        out = ctx.zero()
        for a, ca in enumerate(c):
            if ca:
                w = ca / norm
                out = out + ctx.A(1, a) * ctx.psi(2, alpha) * w
                out = out + ctx.A(2, a) * ctx.psi(1, alpha) * -w
        return out

    @staticmethod
    def _orbit_form(ctx, c, alpha):
        """A_1 psi_1^alpha + A_2 psi_2^alpha, the direction the gauge flow moves."""
        norm = sum(ci * ci for ci in c)
        out = ctx.zero()
        for a, ca in enumerate(c):
            if ca:
                w = ca / norm
                out = out + ctx.A(1, a) * ctx.psi(1, alpha) * w
                out = out + ctx.A(2, a) * ctx.psi(2, alpha) * w
        return out

    def test_rank_and_free_coordinates(self, alg, ctx):
        c = [-1.0, 0.0, 1.0]
        res = gauge_fixing_check(alg, c, [self._eps_contraction(ctx, c, 0)])
        assert res.rank == 1
        assert res.free_odd_coordinates == 2 * (2 - res.rank) == 2

    def test_mirror_contraction_is_bracket_degenerate(self, alg, ctx):
        # the eps-contraction on the complementary component solves the
        # leftover quadratic constraint but pairs to zero with the
        # constraint under the graded bracket: not a valid gauge fixing
        c = [-1.0, 0.0, 1.0]
        res = gauge_fixing_check(alg, c, [self._eps_contraction(ctx, c, 0)])
        assert abs(res.pairing_det) < 1e-12
        assert res.residual_ok
        assert not res.ok

    def test_orbit_form_pairs_but_leaves_residual(self, alg, ctx):
        # the combination actually moved by the gauge flow pairs with
        # determinant -(A1^2 + A2^2) but does not kill the quadratic leftover
        c = [-1.0, 0.0, 1.0]
        res = gauge_fixing_check(alg, c, [self._orbit_form(ctx, c, 0)],
                                 A_values=(0.6, 0.8))
        assert res.pairing_ok
        assert abs(abs(res.pairing_det) - 2.0) < 1e-12
        assert not res.residual_ok
        res_origin = gauge_fixing_check(alg, c, [self._orbit_form(ctx, c, 0)],
                                        A_values=(0.0, 0.0))
        assert not res_origin.pairing_ok

    def test_small_background_keeps_its_rows(self, alg, ctx):
        # the constraint rows are picked by the scale-free rank rule, so at
        # |A| = 1e-11 the pairing is still -2 |A|^2, where an absolute pivot
        # stop at 1e-10 read 0; the determinant is tested against the product
        # of its factors' norms, so the regular pairing passes at every scale
        c = [-1.0, 0.0, 1.0]
        for A_values in ((6e-6, 8e-6), (6e-12, 8e-12)):
            res = gauge_fixing_check(alg, c, [self._orbit_form(ctx, c, 0)], A_values=A_values)
            det = -2 * (A_values[0] ** 2 + A_values[1] ** 2)
            assert abs(res.pairing_det - det) <= 1e-12 * abs(det)
            assert res.pairing_ok

    def test_duplicate_choice_degenerates(self, alg, ctx):
        # re-using the constraint itself as the gauge condition
        c = [-1.0, 0.0, 1.0]
        res = gauge_fixing_check(alg, c, [self._eps_contraction(ctx, c, 1)])
        assert not res.pairing_ok
        assert not res.ok

    def test_wrong_count_raises(self, alg, ctx):
        c = [-1.0, 0.0, 1.0]
        with pytest.raises(ValueError):
            gauge_fixing_check(alg, c, [ctx.psi(1, 0), ctx.psi(1, 1)])

    def test_regular_direction_full_fixing(self, alg, ctx):
        # hyperbolic direction: r = 2, both conditions pair, no leftover
        c = [0.0, 1.0, 0.0]
        chi = [self._orbit_form(ctx, c, 0), self._orbit_form(ctx, c, 1)]
        res = gauge_fixing_check(alg, c, chi)
        assert res.rank == 2
        assert res.free_odd_coordinates == 0
        assert res.pairing_ok is True

    @pytest.mark.parametrize("algebra, free", [(build_osp12(), 4), (build_osp(2, 1), 8)])
    def test_zero_direction_takes_no_conditions(self, algebra, free):
        # at r = 0 there is nothing to pair: the empty determinant is 1, every
        # odd coordinate stays free, and the quadratic constraint is left over
        res = gauge_fixing_check(algebra, [0.0] * algebra.n_even, [])
        assert res.rank == 0 and res.free_odd_coordinates == free == 2 * algebra.n_odd
        assert res.pairing_det == 1.0 and res.pairing_ok is True
        assert res.residual_constraint == 0.5 and res.residual_ok is False

    def test_full_length_direction_equals_even_form(self, alg, ctx):
        # a direction on the whole basis (odd components zero) is its even part
        for c in ([0.0, 1.0, 0.0], [-1.0, 0.0, 1.0]):
            full = c + [0.0] * len(alg.odd_indices)
            chi = [self._orbit_form(ctx, c, alpha)
                   for alpha in range(matrix_rank(alg.ff_block(c)))]
            assert gauge_fixing_check(alg, full, chi) == gauge_fixing_check(alg, c, chi)
            assert exponential_sector_moduli(alg, full) == exponential_sector_moduli(alg, c)


class TestExponentialSectorReport:
    def test_report_passes(self):
        report = osp12_exponential_sector(samples=10, seed=3)
        assert report.passed
        assert abs(report.bracket_a1_a2 - 1.0) == 0.0
        assert max(report.commutator_norms) <= 1e-8
        assert report.invariants[0] == pytest.approx(1.0)

    def test_failures_read_failed(self):
        report = osp12_exponential_sector(samples=4, seed=1)
        assert report.passed
        # the unit pairing is the reduced space's convention: reported, not tested
        assert dataclasses.replace(report, bracket_a1_a2=0.5).passed
        over = 10.0 * report.tol
        for change in ({"commutator_norms": report.commutator_norms + [2e-8]},
                       {"constraint_residual": over}, {"gauge_residual": over}):
            assert not dataclasses.replace(report, **change).passed

    def test_reference_sample_point(self):
        report = osp12_exponential_sector(samples=2, seed=0)
        # first sample point is (p, q) = (0.6, 0.8): on the unit circle
        assert report.invariants[0] == pytest.approx(0.6**2 + 0.8**2)


def _exponential_sector_loop(samples, seed):
    """osp12_exponential_sector as a serial per-point loop on the symbolic layers.

    Returns (bracket_a1_a2, constraint_residual, gauge_residual,
    commutator_norms, invariants): the bracket of two polynomials, each
    point's coefficients in GrassmannElement arithmetic, and its two
    exponentials one SuperMatrix.expm call each.
    """
    reduced = PhaseSpace.create(np.array([[1.0]]), EPS_CYCLES)
    bracket = reduced.A(1, 0).bracket(reduced.A(2, 0)).terms.get(((0, 0), 0), 0.0)
    alg, ngen = build_osp12(), 2
    sigma_plus_dir, _ = OSP12_DIRECTIONS["parabolic"]
    rng = np.random.default_rng(seed)
    constraint_residual = gauge_residual = 0.0
    commutator_norms, invariants = [], []
    points = [(0.6, 0.8)]
    for t in np.linspace(0.2, 2.8, samples - 1):
        points.append((float(np.cos(t)), float(np.sin(t))))
    for p, q in points:
        c_dir = rng.uniform(-1.0, 1.0, 2)
        psi = GrassmannElement(ngen, {0b01: 1.0}) * rng.uniform(0.3, 1.0)      # theta1
        psi2 = [psi * float(c_dir[0]), psi * float(c_dir[1])]
        psi1 = [e * (p / q) for e in psi2]
        v = [psi2[alpha] * p + psi1[alpha] * -q for alpha in range(2)]
        constraint_residual = max(constraint_residual, v[0].max_abs())
        gauge_residual = max(gauge_residual, v[1].max_abs())
        coeffs1 = [GrassmannElement.scalar(2 * np.pi * p * sigma_plus_dir[a], ngen)
                   for a in range(3)] + [psi1[0] * (2 * np.pi), psi1[1] * (2 * np.pi)]
        coeffs2 = [GrassmannElement.scalar(2 * np.pi * q * sigma_plus_dir[a], ngen)
                   for a in range(3)] + [psi2[0] * (2 * np.pi), psi2[1] * (2 * np.pi)]
        U1 = _embed_elements(alg, coeffs1).expm()
        U2 = _embed_elements(alg, coeffs2).expm()
        commutator_norms.append(float(np.abs(canonical((U1 @ U2).coeffs - (U2 @ U1).coeffs)).max()))
        invariants.append(p * p + q * q)
    return bracket, constraint_residual, gauge_residual, commutator_norms, invariants


class TestExponentialSectorStack:
    @pytest.mark.parametrize("samples", [2, 8, 10])
    @pytest.mark.parametrize("seed", [0, 1, 7, 12345])
    def test_equals_serial_loop(self, samples, seed):
        report = osp12_exponential_sector(samples=samples, seed=seed)
        got = (report.bracket_a1_a2, report.constraint_residual, report.gauge_residual,
               report.commutator_norms, report.invariants)
        assert got == _exponential_sector_loop(samples, seed)
        assert all(type(x) is float for x in report.commutator_norms)
