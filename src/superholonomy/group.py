"""OSp(m|2n) group calculus and the moduli of commuting holonomy pairs.

Membership is the graded-form condition M^st H M = H with H = diag(I_m, C),
and OspGroup.membership_defect, the largest coefficient of M^st H M - H, is
its one measure: odd blocks have no body, so the body block of M^st H M - H
is blockdiag(a0^T a0 - I, A0^T C A0 - C) and the souls are the rest.
For a holonomy with body blocks (a0, A0), the linear operator

    sigma -> sigma a0 - A0 sigma,   vectorized as  Ahat = a0^T (x) I - I (x) A0,

controls whether the lower fermion block can be conjugated away: an
invertible Ahat means the gauge-fixing recursion annihilates it degree by
degree, a singular Ahat signals fermionic moduli.  A commuting pair carries
dim H^1 = 2 dim H^0 = 2(2mn - rank [Ahat; Bhat]) of them, H the cohomology of
the torus with coefficients in the odd part; on an aligned sector, where Ahat
and Bhat have one kernel and rank r, that is 2(2mn - r).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from itertools import product

import numpy as np

from .grassmann import (COEFF_CUTOFF, DEFECT_TOL, MAX_GENERATORS, _split_slices, canonical, even_pattern, even_route,
                        grade_signs, graded_expm, graded_inverse, graded_matmul, matrix_rank, real_expm, stack_chunk)
from .supermatrix import SuperMatrix, body_array, real_array, signed_gather, transpose_plan
from .superlie import (
    OSP12_DIRECTIONS,
    SIGMA1,
    SuperAlgebra,
    build_osp,
    build_osp12,
    graded_form,
    symplectic_form,
)

# sample_member draws algebra coefficients from [-0.6, 0.6]: big enough to
# leave the identity, small enough that expm needs few squarings
SAMPLE_SCALE = 0.6
# the non-exponential family lives over B_2 with odd parts 0.4 theta1 and
# -0.3 theta2: distinct generators keep the two fermions independent
NONEXP_NGEN = 2
NONEXP_PSI = (0.4, -0.3)


class SingularGaugeOperatorError(ValueError):
    """The Kronecker operator is singular: the fermion block cannot be gauged away."""


class GaugeFixResidualError(RuntimeError):
    """Gauge fixing ended with a chi block above its tolerance."""

    def __init__(self, residual: float, tol: float):
        super().__init__(f"gauge fixing left a chi residual of {residual:.3e} above {tol:.1e}")
        self.residual, self.tol = residual, tol


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

    def __post_init__(self):
        if not 0 <= self.ngen <= MAX_GENERATORS:
            raise ValueError(f"generator count must be in 0..{MAX_GENERATORS}, got {self.ngen}")

    @property
    def two_n(self) -> int:
        return 2 * self.n

    @property
    def C(self) -> np.ndarray:
        return symplectic_form(self.two_n)

    def algebra(self) -> SuperAlgebra:
        return build_osp(self.m, self.n)

    def _check_shape(self, M):
        """The coefficients of M, a SuperMatrix of the group's block sizes over B_N or a real
        (..., 2^N, d, d) array, converted once (supermatrix.real_array: a complex M raises
        TypeError); any other M raises ValueError."""
        if isinstance(M, SuperMatrix):
            if (M.m, M.n, M.ngen) != (self.m, self.two_n, self.ngen):
                raise ValueError(f"expected block sizes ({self.m},{self.two_n}) over B_{self.ngen}, "
                                 f"got ({M.m},{M.n}) over B_{M.ngen}")
            return M.coeffs
        M, d = real_array(M, "M"), self.m + self.two_n
        if M.shape[-3:] != (1 << self.ngen, d, d):
            raise ValueError("expected a (..., %d, %d, %d) stack, got %s" % (1 << self.ngen, d, d, M.shape))
        return M

    @cached_property
    def _draw_plan(self) -> tuple[np.ndarray, np.ndarray]:
        # sample_stack's slots in its draw order, generators in basis order
        # and inside each the monomials of its parity in mask order, as flat
        # positions in the (2^N, dim) table embed takes; and each slot's
        # factor, 0.5 on an even generator's soul and 1 elsewhere (both exact)
        alg = self.algebra()
        odd_masks = grade_signs(self.ngen)[:, 0, 0] < 0
        generator, mask = np.nonzero(odd_masks[None, :] == alg.odd_mask[:, None])
        positions, factor = mask * alg.dim + generator, np.where(alg.even_mask[generator] & (mask > 0), 0.5, 1.0)
        positions.flags.writeable = factor.flags.writeable = False
        return positions, factor

    def membership_defect(self, M):
        """Largest coefficient of M^st H M - H, the group's one membership measure: M is a member when
        it is at most DEFECT_TOL.

        Its mask-0 block is blockdiag(a0^T a0 - I, A0^T C A0 - C), as odd
        blocks have no body, so it reads the body conditions and every soul
        at once.  One product, its left factor M^st H read from M by
        transpose_plan's signed gather.  M is a SuperMatrix, giving a float,
        or an even coefficient stack (..., 2^N, m+2n, m+2n), giving an array
        of shape (...) whose members equal the one-matrix defects, as in
        matrix_rank; _check_shape refuses any other M before any product.
        On the split route the gather is composed into the one-shot plan's
        (EvenSplit.gathered), so M^st H is never built, and the residual is
        taken on the result's slots; off them both sides are 0.
        """
        trusted = isinstance(M, SuperMatrix)
        M = self._check_shape(M)
        if not trusted:
            even_pattern(self.m, M)
        plan, gathered, H = _membership_plan(self.m, self.two_n, self.ngen)
        if plan is None:       # the pair table above SPLIT_MAX
            st_h = signed_gather(M, transpose_plan(self.m, self.m + self.two_n, graded=True))
            st_h = st_h if trusted else canonical(st_h)
            worst = np.abs(graded_matmul(st_h, M) - H).max(axis=(-3, -2, -1), initial=0.0)
        else:
            worst = _split_slices(partial(_split_defects, plan, gathered, H, clean=not trusted), plan.items, M)
        # a residual below COEFF_CUTOFF is zero, so the worst is 0 when every one is
        if worst.ndim == 0:
            return 0.0 if worst < COEFF_CUTOFF else float(worst)
        return np.where(worst < COEFF_CUTOFF, 0.0, worst)

    # ------------------------------------------------------------------
    def xi_from_chi(self, a: np.ndarray, A: np.ndarray, chi: np.ndarray) -> np.ndarray:
        """The dependent fermion block xi = -(a^T)^-1 chi^T C A.

        a (..., 2^N, m, m), A (..., 2^N, 2n, 2n) and chi (..., 2^N, 2n, m) are
        block coefficient arrays, as ``SuperMatrix.block_coeffs`` gives them,
        leading axes a stack; a must have an invertible body.  Returns xi as
        a (..., 2^N, m, 2n) array, each member its one-matrix value.
        """
        at_inv = graded_inverse(np.swapaxes(a, -1, -2), self.m)
        CA = graded_matmul(body_array(self.C, a.shape[-3].bit_length() - 1), A)
        return -graded_matmul(at_inv, graded_matmul(np.swapaxes(chi, -1, -2), CA))

    # ------------------------------------------------------------------
    def sample_stack(self, rngs) -> np.ndarray:
        """sample_member for each generator of rngs, as one coefficient stack.

        Every sample's draws are taken first, in sample_member's order (its
        coefficients, then the reflection coin), so a generator repeated in
        rngs gives the stream of the one-sample loop.  They are written, even
        souls halved, straight into the (S, 2^N, dim) table embed takes, at
        the group's cached draw plan.  The exponentials and reflections then
        run over the stack in chunks of at most STACK_BYTES of coefficients,
        so the temporaries do not grow with the pool; a lone chunk is
        returned as it is.  Returns (S, 2^N, d, d); an empty rngs gives an
        empty stack.
        """
        alg, (positions, factor) = self.algebra(), self._draw_plan
        rngs = list(rngs)
        size, d = 1 << self.ngen, self.m + self.two_n
        table = np.zeros((len(rngs), size, alg.dim))
        flat = table.reshape(len(rngs), size * alg.dim)
        flips = np.zeros(len(rngs), dtype=bool)
        for k, rng in enumerate(rngs):
            # one rng.uniform call of k values reads the stream of k scalar calls
            flat[k, positions] = rng.uniform(-SAMPLE_SCALE, SAMPLE_SCALE, len(positions)) * factor
            flips[k] = rng.random() < 0.5
        canonical(table)               # zero what falls below COEFF_CUTOFF

        def members_of(part):
            # the algebra's generators keep the even pattern, and so do sums of them
            block = graded_expm(alg.embed(table[part]), self.m, check=False)
            flip = np.flatnonzero(flips[part])
            if flip.size:   # the reflection diag(-1, 1, ...) negates row 0 of every coefficient
                block[flip, :, 0] = canonical(-block[flip, :, 0])
            return block

        chunk = stack_chunk((size, d, d))
        if len(rngs) <= chunk:
            return members_of(slice(None))
        members = np.empty((len(rngs), size, d, d))
        for start in range(0, len(rngs), chunk):
            members[start:start + chunk] = members_of(slice(start, start + chunk))
        return members

    def sample_member(self, rng) -> SuperMatrix:
        """exp of a random enveloping-algebra element, reflected on a coin toss.

        Algebra coefficients are uniform in [-SAMPLE_SCALE, SAMPLE_SCALE],
        even souls halved; the one-sample case of sample_stack, whose
        member is canonical and on the even pattern as it comes.
        """
        return SuperMatrix._wrap(self.m, self.two_n, self.sample_stack([rng])[0])


@lru_cache(maxsize=None)
def _membership_plan(m: int, two_n: int, ngen: int):
    """membership_defect's route for OSp(m|two_n) over B_ngen, built once per size, as the CLI makes a
    group per command: (plan, gathered, H).  On the split route the one-shot product plan, its sources
    with the left factor read as M^st H through transpose_plan, and H in the result's slots; above
    SPLIT_MAX (None, None, H) with H the (2^N, d, d) coefficient array the pair table's product meets."""
    H = body_array(graded_form(m, two_n), ngen)
    H.flags.writeable = False
    split = even_route(m, H, check=False)
    if split is None:
        return None, None, H
    plan = split.one_shot
    H_slots = plan.pack(H)
    H_slots.flags.writeable = False
    return plan, plan.gathered(*transpose_plan(m, m + two_n, graded=True)), H_slots


def _split_defects(plan, gathered, H_slots: np.ndarray, M: np.ndarray, clean: bool) -> np.ndarray:
    """Each member's largest |(M^st H M)_slot - H_slot| on _membership_plan's split route; clean makes
    the left operand canonical, as an untrusted stack's M^st H would be."""
    members = M.reshape(-1, plan.flat)
    out = canonical(plan.multiply(np.concatenate((members, -members), axis=1, dtype=float), gathered, clean))
    out -= H_slots
    return np.abs(out, out=out).reshape(len(members), -1).max(axis=1).reshape(M.shape[:-3])


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


# ----------------------------------------------------------------------
# gauge fixing of the fermion block
# ----------------------------------------------------------------------

@dataclass
class GaugeFixResult:
    S: SuperMatrix
    U_fixed: SuperMatrix
    degrees_solved: tuple[int, ...]


def gauge_fix_sigma(group: OspGroup, U: SuperMatrix) -> GaugeFixResult:
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
    S = SuperMatrix.identity(m, two_n, ngen)
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
    residual = float(np.abs(U.block_coeffs("chi")).max(initial=0.0))
    if residual > DEFECT_TOL:
        raise GaugeFixResidualError(residual, DEFECT_TOL)
    return GaugeFixResult(S=S, U_fixed=U, degrees_solved=tuple(solved))


# ----------------------------------------------------------------------
# fermionic moduli counting
# ----------------------------------------------------------------------

def torus_cohomology(a0, b0, A0, B0, check: bool = True):
    """dim H^0 and dim H^2 of the torus with coefficients in V, the odd part of dimension d = 2mn.

    The bodies act on V by Ahat and Bhat.  H^0 = ker [Ahat; Bhat], so dim H^0 = d - B^1 with
    B^1 = rank [Ahat; Bhat], the degree-1 gauge orbit (chi, mu) -> (chi + Ahat z, mu + Bhat z);
    H^2 is the cokernel of the constraint (chi, mu) -> Ahat mu - Bhat chi, so
    dim H^2 = d - rank [-Bhat, Ahat].  The constraint is ranked as its transpose
    [-Bhat^T; Ahat^T], the same singular values and max(r, c), so both ranks are one
    matrix_rank call on a (2, ..., 2d, d) stack.  Leading axes are a stack of body pairs, as
    in ahat: the two dimensions are then int arrays over it, and ints for one pair.  Each pair is
    ranked at the scale max(||a0|| + ||A0||, ||b0|| + ||B0||) (Frobenius norms, see
    counted_values): a central pair, whose Ahat and Bhat cancel to rounding, ranks 0.  check
    raises ValueError when the bodies do not commute within DEFECT_TOL.
    """
    a0, b0, A0, B0 = (np.atleast_2d(np.asarray(x, dtype=float)) for x in (a0, b0, A0, B0))
    if check:
        if max(np.abs(a0 @ b0 - b0 @ a0).max(), np.abs(A0 @ B0 - B0 @ A0).max()) > DEFECT_TOL:
            raise ValueError("holonomy bodies do not commute")
    Ah, Bh = np.broadcast_arrays(ahat(a0, A0), ahat(b0, B0))
    AhT, BhT = np.swapaxes(Ah, -1, -2), np.swapaxes(Bh, -1, -2)
    # Ahat = a0^T (x) I - I (x) A0 is a difference: its rounding is that of ||a0|| + ||A0||
    norms = [np.sqrt(np.square(x).sum(axis=(-2, -1))) for x in (a0, A0, b0, B0)]
    scale = np.maximum(norms[0] + norms[1], norms[2] + norms[3])
    dims = Ah.shape[-1] - matrix_rank(np.stack([np.concatenate([Ah, Bh], axis=-2),
                                                np.concatenate([-BhT, AhT], axis=-2)]), scale)
    return tuple(dims.tolist()) if dims.ndim == 1 else tuple(dims)


def fermionic_moduli_count(a0, b0, A0, B0):
    """Closed-form count 2 dim H^0 = 2(2mn - B^1), B^1 = rank [Ahat; Bhat] (see torus_cohomology).

    The degree-1 count is dim H^1 = dim H^0 + dim H^2, as the torus has Euler characteristic 0,
    and eta's odd block, an invariant symplectic form, gives the duality dim H^2 = dim H^0; so it
    holds for every commuting pair, and on an aligned sector, rank Ahat = rank Bhat = B^1 = r, it
    is the paper's 2(2mn - r).  Raises ValueError when the bodies do not commute.  Leading axes
    are a stack of body pairs, as in ahat; the count is then an int array over the stack.
    """
    return 2 * torus_cohomology(a0, b0, A0, B0)[0]


def fermionic_moduli_count_bruteforce(a0, b0, A0, B0):
    """Independent count from the degree-1 linear system.

    First-order commutation ties the two fermion blocks by Ahat mu = Bhat chi;
    treating the theta coefficients as plain reals, the count is the solution
    space dimension, 2d - rank [-Bhat, Ahat], minus the dimension B^1 of the
    degree-1 gauge orbit: dim H^2 + dim H^0 (see torus_cohomology), with no
    duality assumed and no commutator test.  Stacks as fermionic_moduli_count.
    """
    h0, h2 = torus_cohomology(a0, b0, A0, B0, check=False)
    return h0 + h2


def uniform_from_random(u, lo: float, hi: float):
    """rng.uniform(lo, hi, shape) from its raw draws u = rng.random(shape): lo + (hi - lo) u, bit for bit."""
    return lo + (hi - lo) * u


def integers_from_random(h, high: int):
    """rng.integers(high) values from raw float32 draws h = rng.random(dtype=np.float32), high = 2**j, 1 <= j <= 24.

    Both read one 32-bit half u of the generator's 64-bit output, the second
    half buffered for the next 32-bit draw of either kind; integers gives
    u >> (32 - j) and random (u >> 8) 2^-24, so the value is floor(high h),
    exactly.  Returns an int64 array of h's shape.
    """
    return (np.asarray(h) * high).astype(np.int64)


def sp_from_random(u: np.ndarray, scale: float) -> np.ndarray:
    """C (S + S^T), S = rng.uniform(-scale, scale, shape) read from its raw draws u = rng.random(shape).

    A stack (..., 2n, 2n) is one product; C is a signed permutation, so each
    member is exactly its one-matrix value.
    """
    S = uniform_from_random(u, -scale, scale)
    return symplectic_form(u.shape[-1]) @ (S + np.swapaxes(S, -1, -2))


def commuting_bodies(m: int, n: int, seed: int, samples: int):
    """Commuting bodies (a0, b0, A0, B0), one pair per block of PCG64(seed)'s raw words, as four stacks.

    Both holonomies of a pair exponentiate multiples of the same o(m) and
    sp(2n) generators (aligned sectors, where the count is 2(2mn - r)), with
    random overall sign flips and nilpotent or vanishing directions, plus a
    random simultaneous conjugation.  Rank-deficient pairs (dim H^0 > 0)
    come only at odd m, where the antisymmetric K has a zero eigenvalue, so
    exp(uK) keeps an eigenvalue +-1 for the parabolic (kind 1) and vanishing
    (kind 2) sp(2n) directions to meet.  At even m every draw is regular,
    with count 0: kinds 1 and 2 keep a nonzero K, whose exponential has no
    eigenvalue +-1 for a generic draw, kind 3 zeroes K but draws a generic
    sp(2n) direction, and kind 0 draws both generic.

    The stream contract: one random_raw(samples W) call of PCG64(seed) gives
    W = 2m^2 + 8n^2 + 8 raw 64-bit words a sample, and sample k reads only
    its block w = words kW ... kW + W - 1, in this fixed order:
    K(m^2) . A . [S(4n^2)] . t(2) . B . u(2) . C . D . L(m^2) . P(4n^2),
    what Generator(PCG64(seed).advance(kW)) reads when it makes these draws
    one uniform or integers call at a time.  A double is (w >> 11) 2^-53, as
    Generator.random reads it, mapped to [lo, hi) as uniform(lo, hi) maps it;
    K and L are o(m) draws, S the sp(2n) direction, t and u the multiples and
    P the conjugating sp(2n) generator.  The seven 32-bit draws are the halves
    low(A), high(A), low(B), high(B), low(C), high(C), low(D), as a Generator
    buffers the second half of each word for the next 32-bit draw: the kind is
    low(A) >> 30, and the signs of t, of u and of the two overall flips are the
    top bits of the other six, what integers(4) and integers(2) return.  Kinds
    1 and 2 draw no S, so their later words move up by 4n^2.  The moduli and
    report JSON bytes depend on that layout.

    All the arithmetic then runs once over the stack: the uniform maps, the
    kinds as masks, the exponentials, sign flips and conjugations.  Returns
    (a0, b0, A0, B0) of shapes (samples, m, m) and (samples, 2n, 2n).
    """
    if samples < 1:
        raise ValueError("at least one sample is required")
    two_n, s0, q = 2 * n, m * m, 4 * n * n
    words = np.random.PCG64(seed).random_raw(samples * (2 * s0 + 2 * q + 8)).reshape(samples, -1)
    kind = words[:, s0] >> 30 & 3
    # t B u C D L P, its place fixed by whether the kind drew S (0 and 3) or not (1 and 2)
    rest = np.where((kind % 3 == 0)[:, None], words[:, s0 + 1 + q:], words[:, s0 + 1:-q])
    a, b, c, d = words[:, s0], rest[:, 2], rest[:, 5], rest[:, 6]
    signs = 2.0 * (np.stack([a >> 63, b >> 31, b >> 63, c >> 31, c >> 63, d >> 31], axis=-1) & 1) - 1.0
    head, rest = ((w >> 11) * 2.0 ** -53 for w in (words, rest))
    K, L = (x.reshape(-1, m, m) for x in (head[:, :s0], rest[:, 7:7 + s0]))
    S, P = (x.reshape(-1, two_n, two_n) for x in (head[:, s0 + 1:s0 + 1 + q], rest[:, 7 + s0:]))
    t, u = rest[:, :2], rest[:, 3:5]
    C = symplectic_form(two_n)
    K = uniform_from_random(K, -1.0, 1.0)
    K = K - np.swapaxes(K, -1, -2)
    if m > 1:
        K[kind == 3] = 0.0          # a pure sp(2n) direction
    Hs = sp_from_random(S, 0.8)     # kinds 1 and 2 replace it below
    nilpotent = np.zeros((two_n, two_n))
    nilpotent[0, 0] = 1.0
    Hs[kind == 1] = C @ nilpotent   # parabolic-type blocks
    Hs[kind == 2] = 0.0             # a vanishing sp(2n) direction
    t = uniform_from_random(t, 0.2, 1.2) * signs[:, :2]
    u = uniform_from_random(u, 0.2, 1.2) * signs[:, 2:4]
    L = uniform_from_random(L, -1.0, 1.0)
    # the o(m) generators u1 K, u2 K, L - L^T and the sp(2n) ones t1 Hs, t2 Hs, C (P + P^T)
    so = real_expm(np.concatenate([u[..., None, None] * K[:, None], (L - np.swapaxes(L, -1, -2))[:, None]], 1))
    sp = real_expm(np.concatenate([t[..., None, None] * Hs[:, None], sp_from_random(P, 0.7)[:, None]], 1))
    flips = signs[:, 4:, None, None]
    P, Q = so[:, 2:], sp[:, 2:]
    a = P @ (flips * so[:, :2]) @ np.swapaxes(P, -1, -2)
    A = Q @ (flips * sp[:, :2]) @ np.linalg.inv(Q)
    return a[:, 0], a[:, 1], A[:, 0], A[:, 1]


# ----------------------------------------------------------------------
# holonomy pairs and the osp(1|2) sector enumeration
# ----------------------------------------------------------------------

@dataclass
class HolonomyPair:
    """Two commuting group elements and their count of fermionic moduli.

    moduli is the degree-1 kernel/orbit count,
    fermionic_moduli_count_bruteforce, which is also correct for sectors
    where only one Kronecker operator degenerates.  residual is the largest
    of U1's and U2's membership_defect and of the coefficients of their
    commutator, at most DEFECT_TOL in every pair that from_stack returns.
    """

    U1: SuperMatrix
    U2: SuperMatrix
    label: str
    moduli: int
    residual: float

    @classmethod
    def from_stack(cls, group: OspGroup, U: np.ndarray, labels) -> list["HolonomyPair"]:
        """One pair per (U1, U2) of an even (k, 2, 2^N, d, d) coefficient stack.

        Membership is group.membership_defect over the whole stack, whose
        body block holds a0^T a0 - I and A0^T C A0 - C; it, the commutator
        check and the brute-force counts are one stacked call each, each
        member its one-pair value.  Raises ValueError at the first pair, in
        stack order, that is not a pair of commuting members within
        DEFECT_TOL, and before any product when U is not a stack of the
        group's (m, 2n) blocks; a complex U raises TypeError.
        """
        m, two_n = group.m, group.two_n
        d = m + two_n
        U = real_array(U, "U")
        if U.ndim != 5 or U.shape[1:] != (2, 1 << group.ngen, d, d):
            raise ValueError(f"expected block sizes ({m},{two_n}) over B_{group.ngen}: "
                             f"a (k, 2, {1 << group.ngen}, {d}, {d}) stack, got {U.shape}")
        member = group.membership_defect(U)
        # membership_defect has checked the even pattern
        comm = np.abs(canonical(graded_matmul(U[:, 0], U[:, 1], m, check=False)
                                - graded_matmul(U[:, 1], U[:, 0], m, check=False))).max(axis=(-3, -2, -1))
        for k in range(len(U)):
            if member[k].max() > DEFECT_TOL:
                raise ValueError("holonomies are not group members")
            if comm[k] > DEFECT_TOL:
                raise ValueError(f"holonomies do not commute (defect {comm[k]:.3e})")
        a0, A0 = U[:, :, 0, :m, :m], U[:, :, 0, m:, m:]
        moduli = fermionic_moduli_count_bruteforce(a0[:, 0], a0[:, 1], A0[:, 0], A0[:, 1])
        return [cls(U1=SuperMatrix._wrap(m, two_n, U[k, 0]), U2=SuperMatrix._wrap(m, two_n, U[k, 1]),
                    label=label, moduli=int(moduli[k]), residual=float(max(member[k].max(), comm[k])))
                for k, label in enumerate(labels)]


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
        def row(s: SectorDescriptor, **extra) -> dict:
            return {"type": s.family, "a0": s.a0, "b0": s.b0, "eps1": s.eps1, "eps2": s.eps2, "moduli": s.moduli,
                    **extra}

        return {"group": self.group, "bosonic_sectors": self.bosonic_count,
                "fermionic_sectors": [row(s, constraint=self.parabolic_constraint) for s in self.fermionic_sectors],
                "sectors": [row(s, fermionic=s.fermionic) for s in self.sectors]}


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


def sector_representatives(descs, ngen: int = 2, params=None) -> list[HolonomyPair]:
    """A concrete commuting pair realizing each sector of the enumeration, built as one
    (k, 2, 2^N, 3, 3) stack.

    Fermionic sectors attach chi_k = (0, mu_k)^T with mu_k proportional to a
    shared odd element, theta1, so they need ngen >= 1; first-order
    commutation fixes mu_k ~ sign_k * c_k.  xi_k follows from xi_from_chi.
    params is None (each family's _SECTOR_PARAMS) or one (p1, p2) per
    descriptor.  The pairs are built and checked (HolonomyPair.from_stack)
    in chunks of at most STACK_BYTES of coefficients, all four fermionic
    sectors in one chunk up to N = 7, so each pair equals its one-descriptor
    build and the temporaries do not grow with the stack.
    """
    descs = list(descs)
    if ngen < 1 and any(desc.fermionic for desc in descs):
        raise ValueError("a fermionic sector's representative needs theta1: ngen must be at least 1")
    p = np.array([_SECTOR_PARAMS[desc.family] for desc in descs] if params is None else params, dtype=float)
    group, pairs = OspGroup(1, 1, ngen), []
    chunk = stack_chunk((2, 1 << ngen, 3, 3))
    for start in range(0, len(descs), chunk):
        part = descs[start:start + chunk]
        U = _sector_stack(group, part, p[start:start + chunk])
        pairs += HolonomyPair.from_stack(group, U, [desc.label() for desc in part])
    return pairs


def _sector_stack(group: OspGroup, descs, p: np.ndarray) -> np.ndarray:
    """The (k, 2, 2^N, 3, 3) coefficients of the descriptors' pairs, p their (k, 2) params."""
    U = np.zeros((len(descs), 2, 1 << group.ngen, 3, 3))
    for k, desc in enumerate(descs):
        p1, p2 = p[k]
        U[k, :, 0, 0, 0] = desc.a0, desc.b0
        if desc.family == "hyperbolic":
            U[k, :, 0, 1:, 1:] = desc.eps1 * real_expm(p1 * SIGMA1), desc.eps2 * real_expm(p2 * SIGMA1)
        elif desc.family == "parabolic":
            U[k, :, 0, 1:, 1:] = desc.eps1 * parabolic(p1), desc.eps2 * parabolic(p2)
        else:
            U[k, :, 0, 1:, 1:] = rotation(p1), rotation(p2)
    canonical(U)
    fermionic = np.array([desc.fermionic for desc in descs], dtype=bool)
    if fermionic.any():
        F = U[fermionic]
        F[:, :, 1, 2, 0] = F[:, :, 0, 0, 0] * p[fermionic]      # chi = (0, sign p theta1)^T
        F[..., :1, 1:] = group.xi_from_chi(F[..., :1, :1], F[..., 1:, 1:], F[..., 1:, :1])
        U[fermionic] = canonical(F)
    return U


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


def build_nonexp_holonomy(cal_a1: float, cal_a2: float,
                          grid_points: int = 64) -> NonExpFamily:
    """Paths U(phi) = diag(1, R(phi/2)) exp(phi (A_k sigma1 + psi^alpha Q_alpha)).

    U(0) is exactly the identity while U(2pi) lands in the disconnected
    a0 = 1, A0 = -e^X part of the group that no single exponential reaches;
    every grid sample remains a group member.  The two endpoint holonomies
    do not commute (largest commutator entry 2.56 at (0.35, -0.2)): these
    are per-cycle paths, not the holonomies of one flat connection.
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
    target[:, 1:, 1:] = -real_expm((2.0 * math.pi * amps)[:, None, None] * sigma)
    return NonExpFamily(grid=grid, U1=U1, U2=U2, target_body_1=target[0], target_body_2=target[1])
