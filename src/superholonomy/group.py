"""OSp(m|2n) group calculus and the moduli of commuting holonomy pairs.

Membership is the graded-form condition M^st H M = H with H = diag(I_m, C).
For a holonomy with body blocks (a0, A0), the linear operator

    sigma -> sigma a0 - A0 sigma,   vectorized as  Ahat = a0^T (x) I - I (x) A0,

controls whether the lower fermion block can be conjugated away: an
invertible Ahat means the gauge-fixing recursion annihilates it degree by
degree, a singular Ahat signals fermionic moduli, counted by 2(2mn - r)
with r = rank(Ahat).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import product

import numpy as np

from .grassmann import (TAYLOR_CUTOFF, _split_slices, canonical, even_route, grade_signs, graded_expm,
                        graded_inverse, graded_matmul, scaling_squaring_expm, taylor_sum)
from .supermatrix import SuperMatrix, body_array, commutator, signed_gather, transpose_plan
from .superlie import (
    OSP12_DIRECTIONS,
    SIGMA1,
    SuperAlgebra,
    build_osp,
    build_osp12,
    graded_form,
    symplectic_form,
)

# singular values below this fraction of the largest count as zero: the
# operators have O(1) entries, so float dust sits near 1e-15 relative
RANK_THRESHOLD = 1e-10
# absolute bound on membership, commutator and chi residuals of products of
# O(1)-entry supermatrices: far above float dust, far below a real defect
DEFECT_TOL = 1e-10
# sample_member draws algebra coefficients from [-0.6, 0.6]: big enough to
# leave the identity, small enough that expm needs few squarings
SAMPLE_SCALE = 0.6
# the non-exponential family lives over B_2 with odd parts 0.4 theta1 and
# -0.3 theta2: distinct generators keep the two fermions independent
NONEXP_NGEN = 2
NONEXP_PSI = (0.4, -0.3)
# a stacked sweep takes its ops in chunks of at most this many bytes of
# coefficients (one op is 2^N (m+2n)^2 doubles), so its memory does not grow
# with the op count.  The product kernel holds about 36 chunks of
# temporaries at N = 6, 4.5 MB here; a 200-op OSp(1|2) sweep at N = 6 to 8
# ran no faster with 1 MB chunks, which added 40 MB of peak RSS.  A 200-op
# OSp(1|2) sweep at N = 2 is one chunk
STACK_BYTES = 1 << 17


class SingularGaugeOperatorError(ValueError):
    """The Kronecker operator is singular: the fermion block cannot be gauged away."""


class GaugeFixResidualError(RuntimeError):
    """Gauge fixing ended with a chi block above its tolerance."""

    def __init__(self, residual: float, tol: float):
        super().__init__(f"gauge fixing left a chi residual of {residual:.3e} above {tol:.1e}")
        self.residual, self.tol = residual, tol


class HypothesisError(ValueError):
    """An operation's structural hypotheses are violated by the inputs."""


def stack_chunk(stack: np.ndarray) -> int:
    """Members of a (S, ...) stack per chunk of at most STACK_BYTES, at least one."""
    return max(1, STACK_BYTES // (stack.itemsize * math.prod(stack.shape[1:])))


def rotation(phi: float) -> np.ndarray:
    c, s = math.cos(phi), math.sin(phi)
    return np.array([[c, -s], [s, c]])


def parabolic(c: float) -> np.ndarray:
    return np.array([[1.0, c], [0.0, 1.0]])


# ----------------------------------------------------------------------
# group context
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class OspGroup:
    """OSp(m|2n) with block sizes (m, 2n) over B_N."""

    m: int
    n: int
    ngen: int = 2

    @property
    def two_n(self) -> int:
        return 2 * self.n

    @property
    def C(self) -> np.ndarray:
        return symplectic_form(self.two_n)

    @property
    def H(self) -> np.ndarray:
        return graded_form(self.m, self.two_n)

    def algebra(self) -> SuperAlgebra:
        return build_osp(self.m, self.n)

    def H_matrix(self) -> SuperMatrix:
        return self._H_matrix

    @cached_property
    def _H_matrix(self) -> SuperMatrix:
        # built once per group: SuperMatrix is immutable, so every caller may share it
        return SuperMatrix.from_body(self.H, self.m, self.two_n, self.ngen)

    # ------------------------------------------------------------------
    def is_member(self, M: SuperMatrix, tol: float = DEFECT_TOL) -> bool:
        """M^st H M = H plus the body conditions a0 in O(m), A0 in Sp(2n)."""
        if (M.m, M.n) != (self.m, self.two_n):
            raise ValueError(
                f"expected block sizes ({self.m},{self.two_n}), got ({M.m},{M.n})"
            )
        if self.membership_defect(M) > tol:
            return False
        a0, A0 = M.body_blocks()
        if np.abs(a0.T @ a0 - np.eye(self.m)).max() > tol:
            return False
        if np.abs(A0.T @ self.C @ A0 - self.C).max() > tol:
            return False
        return True

    @cached_property
    def _H_slots(self) -> np.ndarray:
        # H in split form, read by membership_defect on the split route only
        H = self.H_matrix().coeffs
        return even_route(self.m, H, check=False).pack(H)

    def membership_defect(self, M):
        """Largest coefficient of M^st H M - H: one signed gather of M (transpose_plan), one product.

        M is a SuperMatrix, giving a float, or an even coefficient stack
        (..., 2^N, m+2n, m+2n), giving an array of shape (...) whose members
        equal the one-matrix defects, as in matrix_rank.  On the split route
        the residual is taken on the split slots; off them both sides are 0.
        """
        H = self.H_matrix()
        even, trusted, parity = self.m, isinstance(M, SuperMatrix), 0
        if trusted:
            H._check_compatible(M)
            even, parity, M = (None if M.parity else even), M.parity, M.coeffs
        elif np.shape(M)[-3:] != H.coeffs.shape:
            raise ValueError("expected a (..., %d, %d, %d) stack, got %s" % (*H.coeffs.shape, np.shape(M)))
        st_h = signed_gather(M, transpose_plan(self.m, self.m + self.two_n, parity, graded=True))
        st_h = st_h if trusted else canonical(st_h)
        split = even_route(even, st_h, M, check=not trusted)
        if split is None:       # odd parity, or the pair table above SPLIT_MAX
            worst = np.abs(canonical(graded_matmul(st_h, M) - H.coeffs)).max(axis=(-3, -2, -1), initial=0.0)
        else:
            worst = _split_slices(lambda a, b: np.abs(canonical(canonical(split.regular(a) @ split.pack(b))
                                                                - self._H_slots)).max(axis=(-3, -2, -1)), st_h, M)
        return float(worst) if worst.ndim == 0 else worst

    # ------------------------------------------------------------------
    def xi_from_chi(self, a: np.ndarray, A: np.ndarray, chi: np.ndarray) -> np.ndarray:
        """The dependent fermion block xi = -(a^T)^-1 chi^T C A.

        a (2^N, m, m), A (2^N, 2n, 2n) and chi (2^N, 2n, m) are block
        coefficient arrays, as ``SuperMatrix.block_coeffs`` gives them; a must
        have an invertible body.  Returns xi as a (2^N, m, 2n) array.
        """
        at_inv = graded_inverse(a.transpose(0, 2, 1), self.m)
        CA = graded_matmul(body_array(self.C, len(a).bit_length() - 1), A)
        return -graded_matmul(at_inv, graded_matmul(chi.transpose(0, 2, 1), CA))

    # ------------------------------------------------------------------
    def reflection_component(self) -> SuperMatrix:
        """A representative of the det(a0) = -1 component of O(m)."""
        body = np.eye(self.m + self.two_n)
        body[0, 0] = -1.0
        return SuperMatrix.from_body(body, self.m, self.two_n, self.ngen)

    def sample_stack(self, rngs, components: bool = True) -> np.ndarray:
        """sample_member for each generator of rngs, as one coefficient stack.

        Every sample's draws are taken first, in sample_member's order (its
        coefficients, then the reflection coin), so a generator repeated in
        rngs gives the stream of the one-sample loop.  The exponentials and
        reflections then run over the stack in chunks of at most
        STACK_BYTES of coefficients, so the temporaries do not grow with the
        pool.  Returns (S, 2^N, d, d).
        """
        alg = self.algebra()
        even = np.array(alg.parities) == 0
        odd_masks = grade_signs(self.ngen)[:, 0, 0] < 0
        # random_element's order: generators in basis order, inside each the
        # monomials of its parity in mask order; one rng.uniform call of k
        # values reads the stream of k scalar calls
        slots = np.flatnonzero(odd_masks[None, :] == ~even[:, None])
        rngs = list(rngs)
        table = np.zeros((len(rngs), len(even), 1 << self.ngen))
        flat = table.reshape(len(rngs), -1)
        flips = np.zeros(len(rngs), dtype=bool)
        for k, rng in enumerate(rngs):
            flat[k, slots] = rng.uniform(-SAMPLE_SCALE, SAMPLE_SCALE, len(slots))
            flips[k] = components and rng.random() < 0.5
        table[:, even, 1:] *= 0.5      # halve the even souls
        canonical(table)               # and zero what falls below COEFF_CUTOFF
        d = self.m + self.two_n
        members = np.empty((len(rngs), 1 << self.ngen, d, d))
        chunk = stack_chunk(members)
        for start in range(0, len(rngs), chunk):
            part = slice(start, start + chunk)
            # the algebra's generators keep the even pattern, and so do sums of them
            block = graded_expm(alg.embed(table[part].swapaxes(1, 2)), self.m, check=False)
            flip = flips[part]
            if flip.any():     # a body-only factor: the kernel's body matmul
                block[flip] = graded_matmul(self.reflection_component().coeffs, block[flip])
            members[part] = block
        return members

    def sample_member(self, rng, components: bool = True) -> SuperMatrix:
        """exp of a random enveloping-algebra element, optionally reflected.

        Algebra coefficients are uniform in [-SAMPLE_SCALE, SAMPLE_SCALE],
        even souls halved; the one-sample case of sample_stack, whose
        member is canonical and on the even pattern as it comes.
        """
        return SuperMatrix._wrap(self.m, self.two_n, self.sample_stack([rng], components)[0])


# ----------------------------------------------------------------------
# the Kronecker-product operator and its determinant criterion
# ----------------------------------------------------------------------

def ahat(a0: np.ndarray, A0: np.ndarray) -> np.ndarray:
    """a0^T (x) I_{2n} - I_m (x) A0, the vectorization of s -> s a0 - A0 s.

    Column-major vectorization of the (2n x m) block s is used throughout,
    matching numpy's kron with this index order.  Leading axes are a stack,
    broadcast between a0 (..., m, m) and A0 (..., 2n, 2n) as in a numpy
    gufunc: the result is (..., 2mn, 2mn), entry for entry the kron form.
    """
    a0 = np.atleast_2d(np.asarray(a0, dtype=float))
    A0 = np.atleast_2d(np.asarray(A0, dtype=float))
    m, two_n = a0.shape[-1], A0.shape[-1]
    # axes (..., i, p, j, q) of the row index (i, p) and column index (j, q)
    op = (np.swapaxes(a0, -1, -2)[..., :, None, :, None] * np.eye(two_n)[:, None, :]
          - np.eye(m)[:, None, :, None] * A0[..., None, :, None, :])
    return op.reshape(*op.shape[:-4], m * two_n, m * two_n)


def matrix_rank(mat: np.ndarray):
    """Rank by singular values after rescaling to unit spectral norm.

    A stack (..., r, c) is ranked member by member from one SVD call and
    gives an int array of shape (...); a single matrix gives an int.
    """
    svals = np.linalg.svd(mat, compute_uv=False)
    top = svals[..., :1]
    ranks = np.count_nonzero(svals / np.where(top > 0.0, top, 1.0) > RANK_THRESHOLD, axis=-1)
    return int(ranks) if ranks.ndim == 0 else ranks


def ahat_det_rank(a0: np.ndarray, A0: np.ndarray) -> tuple[float, int]:
    op = ahat(a0, A0)
    return float(np.linalg.det(op)), matrix_rank(op)


def det_conjugation_invariance(a0: np.ndarray, A0: np.ndarray,
                               S0: np.ndarray) -> tuple[float, float]:
    """det(a0^T x I - I x S0 A0 S0^-1) and det(a0^T x I - I x A0).

    The two agree because I (x) S0 conjugates one operator into the other.
    """
    S0 = np.asarray(S0, dtype=float)
    if abs(np.linalg.det(S0)) < 1e-12:
        raise ValueError("conjugating matrix is singular")
    conjugated = S0 @ np.atleast_2d(A0) @ np.linalg.inv(S0)
    return float(np.linalg.det(ahat(a0, conjugated))), float(np.linalg.det(ahat(a0, A0)))


# ----------------------------------------------------------------------
# gauge fixing of the fermion block
# ----------------------------------------------------------------------

@dataclass
class GaugeFixResult:
    S: SuperMatrix
    U_fixed: SuperMatrix
    degrees_solved: tuple[int, ...]


def gauge_fix_sigma(group: OspGroup, U: SuperMatrix,
                    S0_seed: SuperMatrix | None = None) -> GaugeFixResult:
    """Conjugate U into block-diagonal form, annihilating the chi block.

    Works degree by degree in the Grassmann grading: at odd degree d the
    remaining chi_d satisfies a Sylvester equation  z a0 - A0 z = -chi_d
    solved through the Kronecker operator, and conjugation by exp(Z) with Z
    the odd algebra element built from z removes it without disturbing lower
    degrees.  Raises SingularGaugeOperatorError when det Ahat = 0, which is
    exactly the fermionic-moduli situation, and GaugeFixResidualError when
    the chi block ends above DEFECT_TOL.
    """
    m, two_n, ngen = group.m, group.two_n, group.ngen
    S = S0_seed if S0_seed is not None else SuperMatrix.identity(m, two_n, ngen)
    if S0_seed is not None:
        U = S0_seed @ U @ S0_seed.inverse()
    a0, A0 = U.body_blocks()
    op = ahat(a0, A0)
    if matrix_rank(op) < 2 * group.m * group.n:
        raise SingularGaugeOperatorError(
            "det Ahat = 0: fermion block cannot be gauged away (fermionic moduli sector)"
        )
    # soul-valued conjugations leave the bodies untouched, so one operator
    # inverse serves every degree of the iteration
    op_inv = np.linalg.inv(op)
    C = body_array(group.C, ngen)
    degrees = np.array([q.bit_count() for q in range(1 << ngen)])
    solved = []
    for degree in range(1, ngen + 1, 2):
        chi = U.block_coeffs("chi")
        masks = [q for q in np.flatnonzero(degrees == degree) if chi[q].any()]
        if not masks:
            continue
        z = np.zeros((1 << ngen, two_n, m))
        for q in masks:
            z[q] = (op_inv @ (-chi[q].flatten(order="F"))).reshape((two_n, m), order="F")
        Z = np.zeros((1 << ngen, m + two_n, m + two_n))
        Z[:, :m, m:] = -graded_matmul(z.transpose(0, 2, 1), C)
        Z[:, m:, :m] = z
        T = SuperMatrix.from_coeffs(m, two_n, Z).expm()
        U = T @ U @ T.inverse()
        S = T @ S
        solved.append(degree)
    residual = _block_max_abs(U, "chi")
    if residual > DEFECT_TOL:
        raise GaugeFixResidualError(residual, DEFECT_TOL)
    return GaugeFixResult(S=S, U_fixed=U, degrees_solved=tuple(solved))


def commuting_pair_forces_diagonal(group: OspGroup, U1: SuperMatrix,
                                   U2: SuperMatrix, tol: float = DEFECT_TOL) -> bool:
    """With U1 block diagonal and Ahat invertible, U2 must be block diagonal too."""
    off = max(_block_max_abs(U1, "chi"), _block_max_abs(U1, "xi"))
    if off > tol:
        raise HypothesisError("U1 is not block diagonal")
    a0, A0 = U1.body_blocks()
    if matrix_rank(ahat(a0, A0)) < 2 * group.m * group.n:
        raise HypothesisError("det Ahat = 0: the commutant admits fermions")
    if commutator(U1, U2).max_abs() > tol:
        raise HypothesisError("holonomies do not commute")
    fermion_norm = max(_block_max_abs(U2, "chi"), _block_max_abs(U2, "xi"))
    return fermion_norm < DEFECT_TOL


def _block_max_abs(M: SuperMatrix, name: str) -> float:
    return float(np.abs(M.block_coeffs(name)).max(initial=0.0))


# ----------------------------------------------------------------------
# fermionic moduli counting
# ----------------------------------------------------------------------

def fermionic_moduli_count(a0, b0, A0, B0):
    """Closed-form count 2(2mn - r) with r = rank(Ahat) = rank(Bhat).

    Leading axes are a stack of body pairs, as in ahat; the count is then an
    int array over the stack, and one bad pair fails the whole call.
    """
    a0, b0 = np.atleast_2d(a0), np.atleast_2d(b0)
    A0, B0 = np.atleast_2d(A0), np.atleast_2d(B0)
    if max(np.abs(a0 @ b0 - b0 @ a0).max(), np.abs(A0 @ B0 - B0 @ A0).max()) > DEFECT_TOL:
        raise ValueError("holonomy bodies do not commute")
    Ah, Bh = ahat(a0, A0), ahat(b0, B0)
    r, r_prime = matrix_rank(Ah), matrix_rank(Bh)
    bad = np.flatnonzero(np.ravel(r != r_prime))
    if bad.size:
        raise ValueError(
            f"rank(Ahat) = {np.ravel(r)[bad[0]]} != rank(Bhat) = {np.ravel(r_prime)[bad[0]]}; "
            "the closed-form count applies to aligned abelian sectors only"
        )
    two_mn = Ah.shape[-1]
    return 2 * (two_mn - r)


def fermionic_moduli_count_bruteforce(a0, b0, A0, B0):
    """Independent count from the degree-1 linear system.

    First-order commutation ties the two fermion blocks by Ahat mu = Bhat chi;
    treating the theta coefficients as plain reals, the count is the solution
    space dimension minus the dimension of the degree-1 gauge orbit
    (chi, mu) -> (chi + Ahat z, mu + Bhat z).  Stacks as fermionic_moduli_count.
    """
    Ah, Bh = ahat(a0, A0), ahat(b0, B0)
    d = Ah.shape[-1]
    constraint = np.concatenate([-Bh, Ah], axis=-1)     # acts on (chi_vec, mu_vec)
    solution_dim = 2 * d - matrix_rank(constraint)
    orbit_dim = matrix_rank(np.concatenate([Ah, Bh], axis=-2))
    return solution_dim - orbit_dim


def _real_expm(mat: np.ndarray) -> np.ndarray:
    """Small dense exponential through the shared scaling-and-squaring loop.

    A stack (..., d, d) is exponentiated in one pass, each member with its
    own squaring count and its own series length, so each is bit-equal to
    its one-matrix exponential (see scaling_squaring_expm).
    """
    mat = np.asarray(mat, dtype=float)
    identity = np.broadcast_to(np.eye(mat.shape[-1]), mat.shape)
    return scaling_squaring_expm(
        mat, mat, lambda x: taylor_sum(lambda t: np.matmul(t, x), identity, 2, TAYLOR_CUTOFF, 80),
        lambda a: np.matmul(a, a))


def sp_generator(two_n: int, rng) -> np.ndarray:
    """A random sp(2n) element C (S + S^T), the entries of S uniform in [-0.7, 0.7]."""
    S = rng.uniform(-0.7, 0.7, (two_n, two_n))
    return symplectic_form(two_n) @ (S + S.T)


def random_sp(two_n: int, rng) -> np.ndarray:
    """A random Sp(2n) element, the exponential of sp_generator."""
    return _real_expm(sp_generator(two_n, rng))


def random_signs(rng, size=None):
    """Uniform draws from {-1.0, 1.0}, equal in values and stream to
    rng.choice([-1.0, 1.0], size) at about half the cost."""
    return 2.0 * rng.integers(0, 2, size) - 1.0


def _commuting_draws(m: int, n: int, rng):
    """The rng draws of one commuting sample, in the sampler's order.

    Returns the o(m) generators (u1 K, u2 K, L - L^T) and the sp(2n)
    generators (t1 Hs, t2 Hs, sp_generator) whose exponentials are the two
    holonomy bodies and the conjugations P, Q, and the two overall signs.
    """
    two_n = 2 * n
    C = symplectic_form(two_n)
    K = rng.uniform(-1, 1, (m, m))
    K = K - K.T
    kind = rng.integers(0, 4)
    if kind == 1:       # nilpotent sp direction -> parabolic-type blocks
        S = np.zeros((two_n, two_n))
        S[0, 0] = 1.0
        Hs = C @ S
    elif kind == 2:     # vanishing sp direction
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
    sp_gen = sp_generator(two_n, rng)
    return (u1 * K, u2 * K, L - L.T), (t1 * Hs, t2 * Hs, sp_gen), signs


def commuting_bodies(m: int, n: int, rngs):
    """sample_commuting_bodies for each generator of rngs, as four stacks.

    Every sample's draws are taken first, in order, so a generator repeated
    in rngs gives the stream of the one-sample loop; the exponentials, sign
    flips and conjugations then run once over the whole stack.  Returns
    (a0, b0, A0, B0) of shapes (S, m, m) and (S, 2n, 2n).
    """
    draws = [_commuting_draws(m, n, rng) for rng in rngs]
    if not draws:
        raise ValueError("at least one sample is required")
    so_gens, sp_gens, signs = (np.array(x) for x in zip(*draws))
    so, sp = _real_expm(so_gens), _real_expm(sp_gens)
    signs = signs[:, :, None, None]
    P, Q = so[:, 2:], sp[:, 2:]
    a = P @ (signs * so[:, :2]) @ np.swapaxes(P, -1, -2)
    A = Q @ (signs * sp[:, :2]) @ np.linalg.inv(Q)
    return a[:, 0], a[:, 1], A[:, 0], A[:, 1]


def sample_commuting_bodies(m: int, n: int, rng):
    """Commuting (a0, b0, A0, B0) drawn from one abelian direction.

    Both holonomies exponentiate multiples of the same o(m) and sp(2n)
    generators (the aligned sectors the moduli count applies to), with
    random overall sign flips and nilpotent or vanishing directions to
    exercise rank-deficient cases, plus a random simultaneous conjugation.
    """
    return tuple(body[0] for body in commuting_bodies(m, n, [rng]))


# ----------------------------------------------------------------------
# holonomy pairs and the osp(1|2) sector enumeration
# ----------------------------------------------------------------------

@dataclass
class HolonomyPair:
    """Two commuting group elements with the determinant/rank metadata.

    Fermionic moduli require both Kronecker operators to degenerate; the
    stored count comes from the degree-1 kernel/orbit computation, which is
    also correct for sectors where only one side degenerates.
    """

    U1: SuperMatrix
    U2: SuperMatrix
    label: str
    det_ahat: float
    det_bhat: float
    rank_ahat: int
    rank_bhat: int
    moduli: int

    @property
    def fermionic(self) -> bool:
        return self.moduli > 0

    @classmethod
    def make(cls, group: OspGroup, U1: SuperMatrix, U2: SuperMatrix,
             label: str = "") -> "HolonomyPair":
        if not group.is_member(U1, DEFECT_TOL) or not group.is_member(U2, DEFECT_TOL):
            raise ValueError("holonomies are not group members")
        defect = commutator(U1, U2).max_abs()
        if defect > DEFECT_TOL:
            raise ValueError(f"holonomies do not commute (defect {defect:.3e})")
        a0, A0 = U1.body_blocks()
        b0, B0 = U2.body_blocks()
        det_a, rank_a = ahat_det_rank(a0, A0)
        det_b, rank_b = ahat_det_rank(b0, B0)
        moduli = fermionic_moduli_count_bruteforce(a0, b0, A0, B0)
        return cls(U1=U1, U2=U2, label=label, det_ahat=det_a, det_bhat=det_b,
                   rank_ahat=rank_a, rank_bhat=rank_b, moduli=moduli)


@dataclass(frozen=True)
class SectorDescriptor:
    family: str                  # "hyperbolic" | "parabolic" | "so2"
    a0: int
    b0: int
    eps1: int | None = None
    eps2: int | None = None
    fermionic: bool = False
    moduli: int = 0

    def label(self) -> str:
        eps = "" if self.eps1 is None else f" eps=({self.eps1:+d},{self.eps2:+d})"
        tag = " +fermions" if self.fermionic else ""
        return f"{self.family} a0={self.a0:+d} b0={self.b0:+d}{eps}{tag}"


@dataclass
class SectorReport:
    group: str
    sectors: tuple[SectorDescriptor, ...]
    parabolic_constraint: str = "c1^2 + c2^2 = 1"

    @property
    def bosonic_count(self) -> int:
        return len(self.sectors)

    @property
    def fermionic_sectors(self) -> list[SectorDescriptor]:
        return [s for s in self.sectors if s.fermionic]

    def to_json_dict(self) -> dict:
        return {
            "group": self.group,
            "bosonic_sectors": self.bosonic_count,
            "fermionic_sectors": [
                {
                    "a0": s.a0,
                    "b0": s.b0,
                    "eps1": s.eps1,
                    "eps2": s.eps2,
                    "type": s.family,
                    "moduli": s.moduli,
                    "constraint": self.parabolic_constraint,
                }
                for s in self.fermionic_sectors
            ],
            "sectors": [
                {
                    "type": s.family,
                    "a0": s.a0,
                    "b0": s.b0,
                    "eps1": s.eps1,
                    "eps2": s.eps2,
                    "fermionic": s.fermionic,
                    "moduli": s.moduli,
                }
                for s in self.sectors
            ],
        }


def enumerate_sectors_osp12() -> SectorReport:
    """Conjugacy-class sectors of commuting OSp(1|2) pairs.

    The inequivalent abelian families of SL(2) holonomies are the hyperbolic
    and parabolic one-parameter subgroups, each dressed with four component
    signs (a0, b0) x (eps1, eps2), plus the rotation family where the extra
    signs are absorbed: 2*16 + 4 = 36 bosonic sectors.  Fermions occur
    exactly when both determinant criteria degenerate, which in the
    parabolic family means eps_k matching the O(1) signs: 4 sectors with 2
    moduli each.
    """
    sectors: list[SectorDescriptor] = []
    signs = (1, -1)
    for family in ("hyperbolic", "parabolic"):
        for a0, b0, e1, e2 in product(signs, signs, signs, signs):
            fermionic = family == "parabolic" and e1 == a0 and e2 == b0
            sectors.append(
                SectorDescriptor(
                    family=family, a0=a0, b0=b0, eps1=e1, eps2=e2,
                    fermionic=fermionic, moduli=2 if fermionic else 0,
                )
            )
    for a0, b0 in product(signs, signs):
        sectors.append(SectorDescriptor(family="so2", a0=a0, b0=b0))
    return SectorReport(group="osp(1|2)", sectors=tuple(sectors))


_SECTOR_PARAMS = {
    "hyperbolic": (0.3, 0.7),
    "parabolic": (0.8, 0.6),   # the parabolic normal form carries c1^2+c2^2 = 1
    "so2": (0.9, 1.7),
}


def sector_representative(desc: SectorDescriptor, ngen: int = 2,
                          params: tuple[float, float] | None = None) -> HolonomyPair:
    """A concrete commuting pair realizing a sector of the enumeration.

    Fermionic sectors attach chi_k = (0, mu_k)^T with mu_k proportional to a
    shared odd element, theta1, so they need ngen >= 1; first-order
    commutation fixes mu_k ~ sign_k * c_k.  xi_k follows from xi_from_chi.
    """
    group = OspGroup(1, 1, ngen)
    p1, p2 = params if params is not None else _SECTOR_PARAMS[desc.family]
    if desc.family == "hyperbolic":
        A0 = desc.eps1 * _real_expm(p1 * SIGMA1)
        B0 = desc.eps2 * _real_expm(p2 * SIGMA1)
    elif desc.family == "parabolic":
        A0 = desc.eps1 * parabolic(p1)
        B0 = desc.eps2 * parabolic(p2)
    else:
        A0 = rotation(p1)
        B0 = rotation(p2)
    if desc.fermionic and ngen < 1:
        raise ValueError("a fermionic sector's representative needs theta1: ngen must be at least 1")
    pairs = []
    for sign, A_block, p in ((desc.a0, A0, p1), (desc.b0, B0, p2)):
        body = np.zeros((3, 3))
        body[0, 0] = sign
        body[1:, 1:] = A_block
        if not desc.fermionic:
            pairs.append(SuperMatrix.from_body(body, 1, 2, ngen))
            continue
        coeffs = body_array(body, ngen)
        coeffs[1, 2, 0] = sign * p           # chi = (0, sign p theta1)^T
        coeffs[:, :1, 1:] = group.xi_from_chi(coeffs[:, :1, :1], coeffs[:, 1:, 1:], coeffs[:, 1:, :1])
        pairs.append(SuperMatrix.from_coeffs(1, 2, coeffs))
    return HolonomyPair.make(group, pairs[0], pairs[1], label=desc.label())


# ----------------------------------------------------------------------
# the non-exponential holonomy family
# ----------------------------------------------------------------------

@dataclass
class NonExpFamily:
    grid: np.ndarray
    U1: list[SuperMatrix]
    U2: list[SuperMatrix]
    target_body_1: np.ndarray
    target_body_2: np.ndarray

    def connection(self, which: int = 1) -> list[SuperMatrix]:
        """U^-1 dU by central differences on the interior grid points."""
        samples = self.U1 if which == 1 else self.U2
        h = float(self.grid[1] - self.grid[0])
        out = []
        for j in range(1, len(samples) - 1):
            dU = (samples[j + 1] - samples[j - 1]) * (1.0 / (2 * h))
            out.append(samples[j].inverse() @ dU)
        return out


def build_nonexp_holonomy(cal_a1: float, cal_a2: float,
                          grid_points: int = 64) -> NonExpFamily:
    """Paths U(phi) = diag(1, R(phi/2)) exp(phi (A_k sigma1 + psi^alpha Q_alpha)).

    U(0) is exactly the identity while U(2pi) lands in the disconnected
    a0 = 1, A0 = -e^X part of the group that no single exponential reaches;
    every grid sample remains a group member.
    """
    alg = build_osp12()
    direction, sigma = OSP12_DIRECTIONS["hyperbolic"]
    amps = np.array([cal_a1, cal_a2])
    grid = np.linspace(0.0, 2.0 * math.pi, grid_points + 1)
    # the generator at every (amplitude, phi): even coefficients amp c phi,
    # psi_k phi on theta_k, so (2, G, 2^N, 5)
    coeffs = np.zeros((2, len(grid), 1 << NONEXP_NGEN, alg.dim))
    coeffs[:, :, 0, :3] = np.multiply.outer(amps, direction)[:, None, :] * grid[:, None]
    for k, c in enumerate(NONEXP_PSI):
        coeffs[:, :, 1 << k, 3 + k] = c * grid
    D = np.zeros((len(grid), 1 << NONEXP_NGEN, 3, 3))
    D[:, 0, 0, 0] = 1.0
    D[:, 0, 1:, 1:] = [rotation(phi / 2.0) for phi in grid]
    U = graded_matmul(canonical(D), graded_expm(alg.embed(canonical(coeffs)), 1, check=False), 1,
                      check=False)
    U1, U2 = ([SuperMatrix.from_coeffs(1, 2, u) for u in stack] for stack in U)
    target = np.zeros((2, 3, 3))
    target[:, 0, 0] = 1.0
    target[:, 1:, 1:] = -_real_expm((2.0 * math.pi * amps)[:, None, None] * sigma)
    return NonExpFamily(grid=grid, U1=U1, U2=U2, target_body_1=target[0], target_body_2=target[1])
