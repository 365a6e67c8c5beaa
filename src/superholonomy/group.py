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
from itertools import product

import numpy as np

from .grassmann import GrassmannElement, graded_inverse, graded_matmul, random_element
from .supermatrix import (
    SuperMatrix,
    array_to_gmat,
    body_array,
    commutator,
    gmat_from_real,
    gmat_to_array,
    scaling_squaring_expm,
)
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


class SingularGaugeOperatorError(ValueError):
    """The Kronecker operator is singular: the fermion block cannot be gauged away."""


class HypothesisError(ValueError):
    """An operation's structural hypotheses are violated by the inputs."""


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

    def membership_defect(self, M: SuperMatrix) -> float:
        H = self.H_matrix()
        return (M.supertranspose() @ H @ M - H).max_abs()

    # ------------------------------------------------------------------
    def xi_from_chi(self, a, A, chi):
        """The dependent fermion block xi = -(a^T)^-1 chi^T C A.

        a, A, chi are Grassmann block matrices (lists of lists); a must have
        an invertible body.
        """
        ngen = a[0][0].n
        a, A, chi = (gmat_to_array(x, ngen) for x in (a, A, chi))
        at_inv = graded_inverse(a.transpose(0, 2, 1))
        CA = graded_matmul(body_array(self.C, ngen), A)
        return array_to_gmat(-graded_matmul(at_inv, graded_matmul(chi.transpose(0, 2, 1), CA)))

    # ------------------------------------------------------------------
    def reflection_component(self) -> SuperMatrix:
        """A representative of the det(a0) = -1 component of O(m)."""
        body = np.eye(self.m + self.two_n)
        body[0, 0] = -1.0
        return SuperMatrix.from_body(body, self.m, self.two_n, self.ngen)

    def sample_member(self, rng, components: bool = True) -> SuperMatrix:
        """exp of a random enveloping-algebra element, optionally reflected."""
        alg = self.algebra()
        coeffs = []
        for par in alg.parities:
            c = random_element(rng, self.ngen, parity=par, scale=SAMPLE_SCALE)
            if par == 0:   # halve the even souls
                c = GrassmannElement(self.ngen, {k: v * 0.5 if k else v for k, v in c.terms.items()})
            coeffs.append(c)
        M = alg.embed(coeffs, self.ngen).expm()
        if components and rng.random() < 0.5:
            M = self.reflection_component() @ M
        return M


# ----------------------------------------------------------------------
# the Kronecker-product operator and its determinant criterion
# ----------------------------------------------------------------------

def ahat(a0: np.ndarray, A0: np.ndarray) -> np.ndarray:
    """a0^T (x) I_{2n} - I_m (x) A0, the vectorization of s -> s a0 - A0 s.

    Column-major vectorization of the (2n x m) block s is used throughout,
    matching numpy's kron with this index order.
    """
    a0 = np.atleast_2d(np.asarray(a0, dtype=float))
    A0 = np.atleast_2d(np.asarray(A0, dtype=float))
    m, two_n = a0.shape[0], A0.shape[0]
    return np.kron(a0.T, np.eye(two_n)) - np.kron(np.eye(m), A0)


def matrix_rank(mat: np.ndarray) -> int:
    """Rank by singular values after rescaling to unit spectral norm."""
    svals = np.linalg.svd(mat, compute_uv=False)
    if svals.size == 0 or svals[0] == 0.0:
        return 0
    return int(np.count_nonzero(svals / svals[0] > RANK_THRESHOLD))


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
    exactly the fermionic-moduli situation.
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
        raise RuntimeError(f"gauge fixing left a chi residual of {residual:.3e}")
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

def fermionic_moduli_count(a0, b0, A0, B0) -> int:
    """Closed-form count 2(2mn - r) with r = rank(Ahat) = rank(Bhat)."""
    a0, b0 = np.atleast_2d(a0), np.atleast_2d(b0)
    A0, B0 = np.atleast_2d(A0), np.atleast_2d(B0)
    if max(np.abs(a0 @ b0 - b0 @ a0).max(), np.abs(A0 @ B0 - B0 @ A0).max()) > DEFECT_TOL:
        raise ValueError("holonomy bodies do not commute")
    Ah, Bh = ahat(a0, A0), ahat(b0, B0)
    r, r_prime = matrix_rank(Ah), matrix_rank(Bh)
    if r != r_prime:
        raise ValueError(
            f"rank(Ahat) = {r} != rank(Bhat) = {r_prime}; the closed-form count "
            "applies to aligned abelian sectors only"
        )
    two_mn = Ah.shape[0]
    return 2 * (two_mn - r)


def fermionic_moduli_count_bruteforce(a0, b0, A0, B0) -> int:
    """Independent count from the degree-1 linear system.

    First-order commutation ties the two fermion blocks by Ahat mu = Bhat chi;
    treating the theta coefficients as plain reals, the count is the solution
    space dimension minus the dimension of the degree-1 gauge orbit
    (chi, mu) -> (chi + Ahat z, mu + Bhat z).
    """
    Ah = ahat(np.atleast_2d(a0), np.atleast_2d(A0))
    Bh = ahat(np.atleast_2d(b0), np.atleast_2d(B0))
    d = Ah.shape[0]
    constraint = np.hstack([-Bh, Ah])          # acts on (chi_vec, mu_vec)
    solution_dim = 2 * d - matrix_rank(constraint)
    orbit_dim = matrix_rank(np.vstack([Ah, Bh]))
    return solution_dim - orbit_dim


def _real_expm(mat: np.ndarray) -> np.ndarray:
    """Small dense exponential through the shared scaling-and-squaring loop."""
    mat = np.asarray(mat, dtype=float)
    return scaling_squaring_expm(mat, np.eye(mat.shape[0]), mat, lambda t: np.abs(t).max())


def random_so(m: int, rng, scale: float = 1.0) -> np.ndarray:
    K = rng.uniform(-scale, scale, (m, m))
    return _real_expm(K - K.T)


def random_sp(two_n: int, rng, scale: float = 0.7) -> np.ndarray:
    C = symplectic_form(two_n)
    S = rng.uniform(-scale, scale, (two_n, two_n))
    return _real_expm(C @ (S + S.T))


def sample_commuting_bodies(m: int, n: int, rng):
    """Commuting (a0, b0, A0, B0) drawn from one abelian direction.

    Both holonomies exponentiate multiples of the same o(m) and sp(2n)
    generators (the aligned sectors the moduli count applies to), with
    random overall sign flips and nilpotent or vanishing directions to
    exercise rank-deficient cases, plus a random simultaneous conjugation.
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
    t1, t2 = rng.uniform(0.2, 1.2, 2) * rng.choice([-1.0, 1.0], 2)
    u1, u2 = rng.uniform(0.2, 1.2, 2) * rng.choice([-1.0, 1.0], 2)
    a0, b0 = _real_expm(u1 * K), _real_expm(u2 * K)
    A0, B0 = _real_expm(t1 * Hs), _real_expm(t2 * Hs)
    s1, s2 = rng.choice([-1.0, 1.0], 2)
    a0, A0 = s1 * a0, s1 * A0
    b0, B0 = s2 * b0, s2 * B0
    P, Q = random_so(m, rng), random_sp(two_n, rng)
    a0, b0 = P @ a0 @ P.T, P @ b0 @ P.T
    Qi = np.linalg.inv(Q)
    A0, B0 = Q @ A0 @ Qi, Q @ B0 @ Qi
    return a0, b0, A0, B0


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
    shared odd element; first-order commutation fixes mu_k ~ sign_k * c_k.
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
    body1 = np.zeros((3, 3))
    body1[0, 0] = desc.a0
    body1[1:, 1:] = A0
    body2 = np.zeros((3, 3))
    body2[0, 0] = desc.b0
    body2[1:, 1:] = B0
    if not desc.fermionic:
        U1 = SuperMatrix.from_body(body1, 1, 2, ngen)
        U2 = SuperMatrix.from_body(body2, 1, 2, ngen)
        return HolonomyPair.make(group, U1, U2, label=desc.label())
    tau = GrassmannElement.theta(1, ngen)
    mu = (desc.a0 * p1 * tau, desc.b0 * p2 * tau)
    pairs = []
    for body, A_block, mu_k, sign in ((body1, A0, mu[0], desc.a0), (body2, B0, mu[1], desc.b0)):
        zero = GrassmannElement.zero(ngen)
        chi = [[zero], [mu_k]]
        a = [[GrassmannElement.scalar(float(sign), ngen)]]
        Ag = gmat_from_real(A_block, ngen)
        xi = group.xi_from_chi(a, Ag, chi)
        pairs.append(SuperMatrix.from_blocks(a, xi, chi, Ag))
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
    ngen = NONEXP_NGEN
    direction, sigma = OSP12_DIRECTIONS["hyperbolic"]
    psi1 = tuple(GrassmannElement.theta(k + 1, ngen) * c for k, c in enumerate(NONEXP_PSI))
    grid = np.linspace(0.0, 2.0 * math.pi, grid_points + 1)

    def path(phi: float, amp: float) -> SuperMatrix:
        coeffs = [GrassmannElement.scalar(amp * c * phi, ngen) for c in direction]
        coeffs += [psi * phi for psi in psi1]
        body = np.zeros((3, 3))
        body[0, 0] = 1.0
        body[1:, 1:] = rotation(phi / 2.0)
        D = SuperMatrix.from_body(body, 1, 2, ngen)
        return D @ alg.embed(coeffs, ngen).expm()

    U1 = [path(phi, cal_a1) for phi in grid]
    U2 = [path(phi, cal_a2) for phi in grid]
    target1 = np.zeros((3, 3))
    target1[0, 0] = 1.0
    target1[1:, 1:] = -_real_expm(2.0 * math.pi * cal_a1 * sigma)
    target2 = np.zeros((3, 3))
    target2[0, 0] = 1.0
    target2[1:, 1:] = -_real_expm(2.0 * math.pi * cal_a2 * sigma)
    return NonExpFamily(grid=grid, U1=U1, U2=U2,
                        target_body_1=target1, target_body_2=target2)
