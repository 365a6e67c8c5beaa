"""Exact arithmetic in the real Grassmann algebra on N anticommuting generators.

An element is a finite real linear combination of monomials
theta_{i1}*...*theta_{ik} with strictly increasing indices.  Monomials are
encoded as bit masks (bit i-1 <-> theta_i), which caps N at 16; the default
working algebra is B_2.  Coefficients are double floats, while all monomial
and sign bookkeeping is exact, so only genuinely numerical operations carry
floating error.

Every product, of elements or of matrices over B_N, is one signed subset
convolution, ``graded_matmul``, on dense coefficient arrays with the monomial
mask on axis -3, every inverse is ``graded_inverse`` and every exponential
``graded_expm``, or ``real_expm`` for a real matrix.  An even supermatrix,
declared by its block size m, runs on index plans of its parity classes
(``EvenSplit``): a product is one batched matmul of two gathered operands,
from N = 4 on with the top N // 2 generators in the right one
(``split_point``), and each step of an inverse or exponential series one
matmul by the two parity blocks of its regular representation; every other
input takes the pair-table kernel.
All take leading stack axes, as numpy gufuncs do, and give each member of a
stack its one-matrix result bit for bit.
GrassmannElement keeps the sparse {mask: coefficient} form as its public
view.  Coefficients are finite: NaN and infinities raise ValueError.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache
from typing import Iterable, Iterator, Mapping, Union

import numpy as np

MAX_GENERATORS = 16
# the pair table of B_n has 3^n rows; above this many generators a product
# recurses on the last generator, three products at n - 1 per level.  Dense
# OSp(2|2) products ran fastest with 6 at N = 8 and within 25% of the best
# (7) at N = 10 and 12; 5 and 8 were slower everywhere
TABLE_MAX_N = 6

# An even (m|d-m) array x over B_N, whose entry (i, j) has monomials of
# degree parity [i >= m] ^ [j >= m], acts on columns t (2^N d long) by
# t -> x t, the real matrix L(x), and L(x) maps each parity class
# V_c = {(q, j) : |q| + [j >= m] = c mod 2} onto itself.  So only its two
# diagonal blocks L0 and L1, each 2^(N-1) d square, are built, from a cached
# index plan, and x y is one batched matmul by them (see EvenSplit).  A class
# holds m or d - m adjacent columns at each mask, so the plan moves L's
# nonzeros in aligned runs of gcd(m, d - m) entries.  They do 4^(N-1)
# d^3 multiplications where the pair table does 3^N d^3, so the split wins
# only while the table's per-pair overhead dominates: SPLIT_MAX caps 2^N d.
# Against the table and the last-generator recursion, (1|2), (2|2) and
# (2|4) members at N = 5-8, one OpenBLAS thread on a 2-core Xeon, best of
# 10 interleaved timings: up to 512 the product ran 1.1-2.0x, the inverse
# 1.3-3.6x and exp 1.6-7x as fast; at 768 and 1024 the inverse ran
# 0.5-0.56x (1.2x for (1|2)) and the product 0.87-2.4x, exp still
# 1.8-4.7x.  At N = 1-4 the product ran 0.82-1.29x and exp 1.5-2.3x
SPLIT_MAX = 512
# Under the cap, a one-shot product (graded_matmul, SuperMatrix @, the
# squarings of graded_expm) and membership_defect take split point
# a = N // 2 from this many generators on (``split_point``), else a = 0, the
# blocks of L: the left operand then spans the low N - a generators and the
# right one is gathered over the top a, so the operands hold about
# 2^(3N/2) d^2 floats where L holds 2^(2N-1) d^2 (8,192 against 32,768 for
# OSp(2|2) at N = 6) for the same multiplications, and the fill that built L
# was most of a product.  The series of _neumann and graded_expm keep a = 0:
# they reuse one L for N - 1 to about 12 steps, and a balanced step, which
# regathers its right operand, took 11-16 us against 6.5 for L @ t (OSp(2|2),
# N = 6).  Against a = 0 with M^st H built, OSp(1|2), (2|2), (1|4) and
# (2|4) members, one OpenBLAS thread on a 2-core Xeon, best of 9 interleaved
# rounds: products ran 0.99-1.28x as fast at N = 4, 0.99-1.21x at 5,
# 1.30-1.56x at 6 and 1.60-2.03x at 7, and membership_defect 1.30-1.50x,
# 1.06-1.73x, 1.35-1.77x and 1.97-2.04x.  At N = 2 and 3, a = 1 tied with
# a = 0 within 12% either way, so a stays 0 there and those products keep
# their bits
BALANCED_MIN_N = 4

# The numerical policy: what is zero, when a matrix loses rank, how small a
# residual must be and how much memory a stack may take.  Every module reads
# these and none decides again.

# a coefficient below this is zero (``canonical``), so exact cancellations
# are not blocked by floating dust
COEFF_CUTOFF = 1e-14
# a real Taylor series stops at a term below this, far under rounding
TAYLOR_CUTOFF = 1e-22
# a singular value of an (r, c) matrix at most RANK_ROUNDING max(r, c) eps
# sigma_max is zero (``counted_values``, read by ``matrix_rank`` and by
# check_closure's Gram fit), or RANK_ROUNDING max(r, c) eps max(sigma_max,
# scale) for a matrix formed from operands of size scale, whose rounding a
# cancellation keeps.  A backward-stable SVD gives the exact singular
# values of A + E, ||E||_2 <= p(r, c) u ||A||_2, so each is off by at most
# ||E||_2 (Golub and Van Loan, Matrix Computations, 4th ed., 5.4.1);
# numpy takes p = max(r, c).  The ranked matrices come out of exponentials and
# conjugations, which adds rounding: conjugated parabolic 2 x 2 bodies reach
# 1.9 eps sigma_max and the zero singular values of sampled commuting bodies,
# OSp(1|2) to OSp(5|6), 8.9 max(r, c) eps sigma_max.  32 is 3.6 times that
RANK_ROUNDING = 32
# within this factor above that bound float64 cannot tell amplified rounding
# from a true singular value, and counted_values raises RankUndecidedError.
# Sampled regular bodies sit above 1.8e7 max(r, c) eps sigma_max
RANK_MARGIN = 256
# a product of factors, such as the determinant of gauge_fixing_check's
# pairing g M chi^T, is zero at most FORWARD_ROUNDING eps times the product
# of its factors' norms, which by Hadamard's inequality bounds it.  Each
# pairing entry is two chained sums over s psi slots, so rounding moves it by
# at most about s eps of that scale (Higham, Accuracy and Stability of
# Numerical Algorithms, 2nd ed., 3.5); s <= 32 for the builders (osp(4|4)).
# Singular osp(1|2) pairings read 0.12 eps and 0, regular ones 1.0 at every
# background scale
FORWARD_ROUNDING = 64
# absolute bound on membership, commutator, chi and constraint residuals of
# products of O(1)-entry matrices: far above float dust, far below a defect
DEFECT_TOL = 1e-10
# bound on identities that hold exactly on the builders' data: the
# representations have entries 0, +-1, +-2, so Jacobi, closure, graded
# antisymmetry and the defining relations hold to rounding of O(1) products
EXACT_TOL = 1e-12
# a stack's L blocks, and a one-shot product's operands, are built in slices
# of at most this many bytes: four OSp(2|2) members' L at N = 6, one at 7.
# The CLI's 200-op OSp(2|2) membership sweep at N = 6 peaked at 38.3 MB in
# 1 MiB slices and 44.8 MB unsliced, and 256 KiB slices ran 40% slower
SPLIT_BYTES = 1 << 20
# a stacked sweep takes its ops in chunks of at most this many bytes of
# coefficients (``stack_chunk``), so its memory does not grow with the op
# count.  The product kernel holds about 36 chunks of temporaries at N = 6,
# 4.5 MB here; a 200-op OSp(1|2) sweep at N = 6 to 8 ran no faster with
# 1 MB chunks, which added 40 MB of peak RSS
STACK_BYTES = 1 << 17
# check_jacobi and check_closure sum over the products of nonzeros that a
# pair plan lists (``superlie.pair_plan``) while there are at most this many
# (osp(2|6), the largest build_osp size, has 19,620 and 13,080), else over
# dense chunks: a call gathers two float64 factors a product, 4 STACK_BYTES
# in all at the bound, about what the dense chunks take, and a plan holds
# four 8-byte entries a product
PLAN_PAIRS = STACK_BYTES // 4
# a supermatrix holds at most this many coefficients, 2^N (m+n)^2 (128 MiB of
# float64), checked before anything is allocated: the kernels keep several
# temporaries of an operand's size, so a larger one exhausts memory rather
# than computing.  The builders' largest, OSp(m|2n) with m + 2n <= 8 over
# B_16, holds 2^22
MAX_COEFFS = 1 << 24


_EPS = float(np.finfo(float).eps)


def counted_values(svals: np.ndarray, shape, scale=None) -> np.ndarray:
    """The one rank rule on the singular values svals (..., k), largest first, of a matrix of shape
    (..., r, c): a mask of those above RANK_ROUNDING * max(r, c) * eps times the largest, and
    RankUndecidedError at the first one within RANK_MARGIN times that.

    scale, a float or an array over the stack, is the size of the operands the matrix was formed
    from, as ||a|| + ||b|| for a difference a - b: their rounding survives a cancellation, so the
    bound is relative to max(sigma_max, scale), and a matrix that cancels to rounding counts 0.
    """
    top = svals[..., :1] if scale is None else np.maximum(svals[..., :1], np.asarray(scale)[..., None])
    bound = RANK_ROUNDING * max(shape[-2:]) * _EPS * top
    counted = svals > bound
    undecided = counted & (svals <= RANK_MARGIN * bound)
    if undecided.any():
        member = tuple(np.argwhere(undecided)[0][:-1])
        raise RankUndecidedError(float(svals[member][undecided[member]][-1]), float(bound[member][0]))
    return counted


def matrix_rank(mat: np.ndarray, scale=None):
    """The rank under the one rank rule, counted_values (scale as there), from one SVD call.  A stack
    (..., r, c) is ranked member by member, an int array (...); a matrix gives an int."""
    mat = np.asarray(mat)
    ranks = counted_values(np.linalg.svd(mat, compute_uv=False), mat.shape, scale).sum(-1)
    return int(ranks) if ranks.ndim == 0 else ranks


def stack_chunk(member_shape) -> int:
    """float64 members of member_shape per chunk of at most STACK_BYTES, at least one."""
    return max(1, STACK_BYTES // (8 * math.prod(member_shape)))


Scalar = Union[int, float]


class NonInvertibleError(ValueError):
    """Inversion was requested where the body (scalar part) is singular."""


class RankUndecidedError(ValueError):
    """A singular value lies too near the rounding bound for float64 to decide the rank."""

    def __init__(self, sigma_min: float, bound: float):
        super().__init__(f"singular value {sigma_min:.3e} lies within {RANK_MARGIN}x of the rounding "
                         f"bound {bound:.3e}: float64 cannot decide the rank")
        self.sigma_min, self.bound = sigma_min, bound


class ParityPatternError(ValueError):
    """An entry violates the block parity pattern."""


class ExpmNotConvergedError(ArithmeticError):
    """The Taylor series of an exponential did not reach its cutoff in time."""


def merge_sign(p: int, q: int) -> int:
    """Sign of sorting the concatenation of two disjoint monomial masks.

    Counts the pairs (i in p, j in q) with i > j; each such pair is one
    transposition when the generators of q are interleaved into p.
    """
    s = 0
    rest = q
    while rest:
        low = rest & -rest
        s += (p >> low.bit_length()).bit_count()
        rest ^= low
    return -1 if s & 1 else 1


def monomial_mask(indices: Iterable[int], n: int) -> int:
    """Bit mask of the monomial of B_n with strictly increasing 1-based generator indices."""
    mask = prev = 0
    for i in indices:
        if i <= prev:
            raise ValueError("monomial indices must be strictly increasing")
        if not 1 <= i <= n:
            raise ValueError(f"generator index {i} outside 1..{n}")
        mask |= 1 << (i - 1)
        prev = i
    return mask


@lru_cache(maxsize=None)
def _pair_table(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 3^n disjoint monomial pairs (p, q) of B_n, grouped by r = p | q.

    Returns (left, right, starts).  left[k] indexes the stack [x, -x], so the
    sign merge_sign(p, q) is picked up by the gather itself; right[k] = q;
    the pairs of r run from starts[r], with p ascending inside each group.
    Every r owns at least the pair (0, r), so no group is empty.
    """
    size = 1 << n
    left, right, starts = [], [], []
    for r in range(size):
        starts.append(len(left))
        for p in range(r + 1):
            if p & ~r:
                continue
            q = r ^ p
            left.append(p if merge_sign(p, q) > 0 else p + size)
            right.append(q)
    table = np.array(left), np.array(right), np.array(starts)
    for arr in table:
        arr.flags.writeable = False
    return table


@lru_cache(maxsize=None)
def grade_signs(n: int) -> np.ndarray:
    """(-1)^|q| for every monomial q of B_n, shaped to scale (..., 2^n, d, d) arrays."""
    out = np.array([-1.0 if q.bit_count() & 1 else 1.0 for q in range(1 << n)])[:, None, None]
    out.flags.writeable = False
    return out


@lru_cache(maxsize=None)
def pattern_mask(n: int, d: int, m: int) -> np.ndarray:
    """(2^n, d, d) mask of the coefficients an even (m|d-m) array over B_n must have zero.

    Entry (i, j) holds monomials of degree parity [i >= m] ^ [j >= m]; the
    odd pattern's zeros are the complement.
    """
    block = np.arange(d) >= m
    out = (grade_signs(n) < 0) != (block[:, None] ^ block[None, :])
    out.flags.writeable = False
    return out


@lru_cache(maxsize=None)
def _off_pattern(n: int, d: int, m: int) -> np.ndarray:
    """Flat positions of pattern_mask(n, d, m): a gather by them is cheaper than the boolean mask."""
    out = np.flatnonzero(pattern_mask(n, d, m))
    out.flags.writeable = False
    return out


def _parity_classes(n: int, d: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The class [|q| odd] ^ [j >= m] of each pair (q, j) of a mask of B_n and a column, as a (2^n, d)
    bool array, and the pair's rank in its class in flat order q d + j."""
    cls = (grade_signs(n)[:, 0] < 0) ^ (np.arange(d) >= m)
    rank = np.empty(cls.shape, dtype=np.intp)
    for c in (False, True):
        where = np.flatnonzero(cls == c)
        rank.flat[where] = np.arange(len(where))
    return cls, rank


class EvenSplit:
    """Index plan of products of even (m|d-m) arrays over B_n, n >= 1, at split point 0 <= a < n.

    A monomial is P|p, P on the top a generators and p on the low n - a, and
    the low pairs (p, j), j a column, fall in the parity classes
    V_c = {(p, j) : |p| + [j >= m] = c mod 2}, h = 2^(n-a-1) d each.  As
    merge_sign(P|p, Q|q) = merge_sign(P|p, q) merge_sign(P, Q), x y is one
    matmul (2, h, 2^a h) @ (2, 2^a h, w) a member (``multiply``):
    - the left operand (``regular``) holds merge_sign(P|p, q) x[P|p, i, j] at
      row (c, (r, i)), (r, i) in V_c, and column (P, (q, j)), (q, j) in
      V_(c + |P|), p = r - q;
    - the right operand holds merge_sign(P, Q) y[Q|q, j, k] at row
      (P, (q, j)) and column (R, k), Q = R - P, where column class c holds the
      (R, k) with |R| + [k >= m] = c;
    - the result holds (x y)[R|r, i, k] at row (c, (r, i)) and column (R, k);
      ``pack`` gathers an array into that layout and ``unpack`` writes it out.
    Every other slot is zero.  For a >= 1 a column class holds w = 2^(a-1) d
    columns.  At a = 0 it holds m or d - m, w = max(m, d - m), and a slot past
    them pads; the left operand is then the blocks L0 and L1 of L(x), and the
    right operand is the result's layout, the split form, which the series of
    ``_neumann`` and ``graded_expm`` step by L @ t.  Operand slots and their
    sources in [x, -x, y, -y] come in aligned runs of ``run`` = gcd(m, d - m)
    columns, moved as one item of ``unit`` each.  ``identity`` is the
    identity in the result's layout, packed once, read-only.
    """

    def __init__(self, n: int, d: int, m: int, a: int = 0):
        size, low, top = 1 << n, 1 << (n - a), 1 << a
        self.n, self.d, self.m, self.a, self.flat = n, d, m, a, size * d * d
        cls, rank = _parity_classes(n - a, d, m)             # rows (r, i) and inner pairs (q, j)
        col_cls, col_rank = _parity_classes(a, d, m)         # result columns (R, k)
        h = low * d // 2
        w = max(np.count_nonzero(col_cls), np.count_nonzero(~col_cls))
        self.left_shape, self.right_shape, self.shape = (2, h, top * h), (2, top * h, w), (2, h, w)
        self.left_items = left_items = 2 * h * top * h
        self.items = left_items + 2 * top * h * w
        self.run = math.gcd(m, d - m)
        self.unit = np.dtype(float) if self.run == 1 else np.dtype((np.void, 8 * self.run))
        first = np.arange(0, d, self.run)                    # a run of columns is planned by its first
        odd = grade_signs(a)[:, 0, 0] < 0                    # |P| odd
        shifted = np.arange(top) << (n - a)                  # P as a mask of B_n
        # left operand: low pair (p, q) into r (signed in [x, -x]), P, row column i, columns j
        signed_p, q, starts = _pair_table(n - a)
        r = np.repeat(np.arange(low), np.diff(np.append(starts, len(q))))
        neg = (signed_p >= low)[:, None] ^ (odd & (grade_signs(n - a)[q, 0, 0] < 0)[:, None])
        on = [cls[q][:, None, None, first] == (cls[r][:, None, :, None] ^ odd[:, None, None])]
        dst = [((cls[r] * h + rank[r])[:, None, :, None] * top + np.arange(top)[:, None, None]) * h
               + rank[q][:, None, None, first]]
        src = [((neg * size + (shifted | (signed_p % low)[:, None]))[:, :, None, None] * d
                + np.arange(d)[:, None]) * d + first]
        # right operand: top pair (P, Q) into R (signed in [y, -y]), low mask q, row column j, columns k
        signed_P, Q, starts = _pair_table(a)
        R = np.repeat(np.arange(top), np.diff(np.append(starts, len(Q))))
        P, c = signed_P % top, col_cls[R][:, first]
        on.append(cls[:, :, None] == (c[:, None, None, :] ^ odd[P][:, None, None, None]))
        dst.append(left_items + (((c * top + P[:, None])[:, None, None, :] * h + rank[:, :, None]) * w
                                 + col_rank[R][:, None, None, first]))
        src.append(2 * self.flat + (((((signed_P >= top) * size)[:, None] + ((Q << (n - a))[:, None] | np.arange(low)))
                                     [:, :, None, None] * d + np.arange(d)[:, None]) * d + first))
        dst, src = (np.concatenate([part[keep] for part, keep in zip(parts, on)]) for parts in (dst, src))
        order = np.argsort(dst)
        self.dst, self.src = dst[order] // self.run, src[order] // self.run
        cut = np.searchsorted(self.dst, left_items // self.run)
        self.regular_plan = self.dst[:cut], self.src[:cut]
        # result slots (c, (r, i), (R, k)) and the coefficients [R|r, i, k] they
        # hold; a pad slot reads the first coefficient off the pattern, at mask
        # 1, where every column of a run is zero
        keep = cls[:, :, None, None] == col_cls[:, first]
        slot = ((cls * h + rank)[:, :, None, None] * w + col_rank[:, first])[keep] // self.run
        coeff = ((((shifted[:, None] | np.arange(low)[:, None, None, None]) * d + np.arange(d)[:, None, None]) * d
                  + first)[keep] // self.run)
        packed = np.full(math.prod(self.shape) // self.run, d * d // self.run)
        packed[slot] = coeff
        real = np.sort(slot)
        # the result holds one float a coefficient or pad, so pack and unpack
        # move floats: on it runs saved less than their extra views cost
        self.packed, self.real, self.written = ((part[:, None] * self.run + np.arange(self.run)).ravel()
                                                for part in (packed, real, packed[real]))
        for arr in (self.dst, self.src, *self.regular_plan, self.packed, self.real, self.written):
            arr.flags.writeable = False

    @cached_property
    def one_shot(self) -> EvenSplit:
        """The plan of this pattern at the split point of a one-shot product, split_point(n)."""
        return _even_split(self.n, self.d, self.m, split_point(self.n))

    @cached_property
    def identity(self) -> np.ndarray:
        eye = np.zeros((1 << self.n, self.d, self.d))
        eye[0] = np.eye(self.d)
        out = self.pack(eye)
        out.flags.writeable = False
        return out

    def regular(self, x: np.ndarray) -> np.ndarray:
        """The left operand (..., 2, h, 2^a h) of x; at a = 0 the blocks of L(x)."""
        members = x.reshape(-1, self.flat)
        out = _fill(np.concatenate((members, -members), axis=1, dtype=float), *self.regular_plan,
                    self.left_items, self.unit)
        return out.reshape(*x.shape[:-3], *self.left_shape)

    def pack(self, x: np.ndarray) -> np.ndarray:
        """x in the result's layout (..., 2, h, w), one gather; at a = 0 the split form."""
        return x.reshape(-1, self.flat).take(self.packed, axis=1).reshape(*x.shape[:-3], *self.shape)

    def unpack(self, s: np.ndarray) -> np.ndarray:
        """The (..., 2^n, d, d) array of a result."""
        slots = s.reshape(-1, self.packed.size)
        if len(self.real) < self.packed.size:
            slots = slots.take(self.real, axis=1)
        out = np.zeros(len(slots) * self.flat)
        out[_flat_positions(self.written, len(slots), self.flat)] = slots.ravel()
        return out.reshape(*s.shape[:-3], 1 << self.n, self.d, self.d)

    def multiply(self, source: np.ndarray, plan=None, clean: bool = False) -> np.ndarray:
        """The results (members, 2, h, w) of the operands filled from the rows of source by plan
        (dst, src, unit), this plan's own by default, whose source rows are [x, -x, y, -y]: one
        take, one scatter, one matmul.  clean makes the left operand canonical first."""
        dst, src, unit = plan or (self.dst, self.src, self.unit)
        both = _fill(source, dst, src, self.items, unit).reshape(len(source), self.items)
        left = both[:, :self.left_items]
        if clean:
            canonical(left)
        return left.reshape(-1, *self.left_shape) @ both[:, self.left_items:].reshape(-1, *self.right_shape)

    def product(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """x y, canonical, stacks broadcast as in a numpy gufunc.  At a = 0, L(x) @ y in split form."""
        if not self.a:
            out = self.regular(x) @ self.pack(y)
        else:
            if x.shape[:-3] != y.shape[:-3]:
                stack = np.broadcast_shapes(x.shape[:-3], y.shape[:-3])
                x, y = (np.broadcast_to(v, stack + v.shape[-3:]) for v in (x, y))
            xs, ys = x.reshape(-1, self.flat), y.reshape(-1, self.flat)
            out = self.multiply(np.concatenate((xs, -xs, ys, -ys), axis=1, dtype=float)).reshape(
                *x.shape[:-3], *self.shape)
        return self.unpack(canonical(out))

    def gathered(self, index: np.ndarray, sign: np.ndarray):
        """A plan for multiply of x y from source rows [y, -y], x = sign * y.flat[index] in each
        mask's (d, d) block (see supermatrix.transpose_plan): x is never built.  index transposes,
        so x's runs of columns are no runs of y: the plan moves one float an item, and its
        operands are those of the plan's own for x and y, value for value."""
        offsets = np.arange(self.run)
        dst, src = ((part[:, None] * self.run + offsets).ravel() for part in (self.dst, self.src))
        left = dst < self.left_items
        entry = src[left] % (self.d * self.d)
        neg = (src[left] >= self.flat) ^ (sign[entry] < 0)
        src[left] = neg * self.flat + src[left] % self.flat - entry + index[entry]
        src[~left] -= 2 * self.flat
        for arr in (dst, src):
            arr.flags.writeable = False
        return dst, src, np.dtype(float)


def _fill(source: np.ndarray, dst: np.ndarray, src: np.ndarray, width: int, unit: np.dtype) -> np.ndarray:
    """Zeroed rows of width floats, flat, holding item src of each row of source at their item dst.

    source is a C-contiguous (members, k) float array; an item is one unit.  Gathers take axis 1
    of it, by the method (np.take adds a dispatch), and the scatter writes a flat array: numpy's
    fancy indexing after an Ellipsis ran two to four times slower.
    """
    out = np.zeros(len(source) * width)
    out.view(unit)[_flat_positions(dst, len(source), width * 8 // unit.itemsize)] = source.view(unit).take(
        src, axis=1).ravel()
    return out


def _flat_positions(index: np.ndarray, members: int, width: int) -> np.ndarray:
    """index in each of members consecutive rows of width entries, as flat positions."""
    return index if members == 1 else (np.arange(members)[:, None] * width + index).ravel()


@lru_cache(maxsize=None)
def _even_split(n: int, d: int, m: int, a: int = 0) -> EvenSplit:
    return EvenSplit(n, d, m, a)


def split_point(n: int) -> int:
    """The split point of a one-shot product over B_n (see SPLIT_MAX): n // 2 from BALANCED_MIN_N on, else 0."""
    return n // 2 if n >= BALANCED_MIN_N else 0


def even_pattern(m: int, *arrays: np.ndarray, check: bool = True) -> int:
    """N of square (..., 2^N, d, d) arrays, one N and d >= 1, on the even (m|d-m) pattern; else raises.

    ParityPatternError names the first entry (i, j) off the pattern, row-major
    in the first member that has one, with its coefficients by 1-based
    monomial, as the JSON wire format writes them.  check False skips that
    scan for a caller that vouches for the pattern, as SuperMatrix does.
    """
    size, d = arrays[0].shape[-3], arrays[0].shape[-1]
    if not 0 <= m <= d or not d or any(a.shape[-3:] != (size, d, d) for a in arrays):
        raise ValueError(f"an even ({m}|{d - m}) pattern needs square (2^N, {d}, {d}) arrays with d >= 1, "
                         f"got shapes {[a.shape for a in arrays]}")
    n = size.bit_length() - 1
    if not check:
        return n
    off = _off_pattern(n, d, m)
    for a in arrays:
        if a.reshape(-1, size * d * d)[:, off].any():
            members = a.reshape(-1, size, d, d)
            k, i, j = np.argwhere(((members != 0.0) & pattern_mask(n, d, m)).any(axis=1))[0]
            coeffs = {tuple(g + 1 for g in range(n) if q >> g & 1): float(members[k, q, i, j])
                      for q in np.flatnonzero(members[k, :, i, j])}
            raise ParityPatternError(f"entry ({i}, {j}) must be {'odd' if (i >= m) != (j >= m) else 'even'} "
                                     f"on the even ({m}|{d - m}) pattern, got coefficients {coeffs}")
    return n


def even_route(m: int | None, *arrays: np.ndarray, check: bool = True) -> EvenSplit | None:
    """The split plan for even (m|d-m) arrays, or None for the pair table.

    m None declares no pattern.  Otherwise the arrays are checked by
    ``even_pattern`` (check as there), and the plan is returned for 1 <= N
    and 2^N d <= SPLIT_MAX.
    """
    if m is None:
        return None
    n, d = even_pattern(m, *arrays, check=check), arrays[0].shape[-1]
    return _even_split(n, d, m) if 1 <= n and (1 << n) * d <= SPLIT_MAX else None


def _split_slices(fn, width: int, x: np.ndarray, *rest: np.ndarray) -> np.ndarray:
    """fn(x, *rest) over x's stack in slices of members whose width floats each fit SPLIT_BYTES.

    width is what a split plan's operands take a member: L for the loops at
    a = 0, both operands for a product.  fn must treat members
    independently, so each gets its one-matrix result; rest is broadcast
    against x's stack.
    """
    per = max(1, SPLIT_BYTES // (x.itemsize * width))
    if x.ndim == 3 or math.prod(x.shape[:-3]) <= per:
        return fn(x, *rest)
    shape = np.broadcast_shapes(*(a.shape[:-3] for a in (x, *rest)))
    flat = [np.broadcast_to(a, shape + a.shape[-3:]).reshape(-1, *a.shape[-3:]) for a in (x, *rest)]
    out = np.concatenate([fn(*(a[k:k + per] for a in flat)) for k in range(0, len(flat[0]), per)])
    return out.reshape(*shape, *out.shape[1:])


def _split_matmul(split: EvenSplit, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """graded_matmul of even arrays on split's pattern, by its one-shot plan."""
    # the split route takes no shortcut: a member's gemm must not depend on its stack
    plan = split.one_shot
    return _split_slices(plan.product, plan.items, x, y)


def _convolve(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """sum over disjoint (p, q) of merge_sign(p, q) x_p @ y_q into slot p | q of axis -3."""
    if not x[..., 1:, :, :].any():      # no soul in the stack: only the pairs (0, q) contribute
        return np.matmul(x[..., :1, :, :], y)
    if not y[..., 1:, :, :].any():
        return np.matmul(x, y[..., :1, :, :])
    size = x.shape[-3]
    n = size.bit_length() - 1
    if n <= TABLE_MAX_N:
        left, right, starts = _pair_table(n)
        pairs = np.matmul(np.concatenate((x, -x), axis=-3)[..., left, :, :], y[..., right, :, :])
        return np.add.reduceat(pairs, starts, axis=-3)
    # split off theta_n, the last generator: x = x0 + x1 theta_n, likewise y,
    # and theta_n y0 = y0^ theta_n with ^ the grade involution, so
    # xy = x0 y0 + (x0 y1 + x1 y0^) theta_n
    half = size >> 1
    x0, x1 = x[..., :half, :, :], x[..., half:, :, :]
    y0, y1 = y[..., :half, :, :], y[..., half:, :, :]
    out = np.empty((*np.broadcast_shapes(x.shape[:-3], y.shape[:-3]), size, x.shape[-2], y.shape[-1]))
    out[..., :half, :, :] = _convolve(x0, y0)
    out[..., half:, :, :] = _convolve(x0, y1)
    out[..., half:, :, :] += _convolve(x1, y0 * grade_signs(n - 1))
    return out


def canonical(coeffs: np.ndarray) -> np.ndarray:
    """Zero, in place, what GrassmannElement drops: all |c| < COEFF_CUTOFF.

    That includes signed zeros.  A NaN or infinite coefficient raises
    ValueError, as in the dict form: it comes from bad input or an overflow
    and must fail, not vanish.  Any shape, stacks included.
    """
    mags = np.abs(coeffs)
    if not np.isfinite(mags.max(initial=0.0)):
        raise ValueError("non-finite Grassmann coefficient")
    np.putmask(coeffs, mags < COEFF_CUTOFF, 0.0)
    return coeffs


def graded_matmul(x: np.ndarray, y: np.ndarray, m: int | None = None, check: bool = True) -> np.ndarray:
    """The package's one graded product: out[p|q] += sign(p, q) x[p] @ y[q].

    x and y are dense coefficient arrays of shapes (..., 2^N, a, b) and
    (..., 2^N, b, c), axis -3 the monomial mask; the sum runs over the 3^N
    disjoint pairs, a signed subset convolution (Wlodarczyk, Algorithmica
    2019).  Leading axes are a stack, broadcast between x and y as in a
    numpy gufunc, and each member gets exactly its one-matrix result.
    Element products are the case a = b = c = 1.  With m, both factors are
    declared even (m|d-m) square arrays (see ``even_route`` for m and
    check), and up to SPLIT_MAX the product is one matmul of operands
    gathered at the split point split_point(N) (see EvenSplit), the blocks
    of L(x) below BALANCED_MIN_N generators.  Otherwise a factor with no soul in any member is a plain matmul
    of its body; up to TABLE_MAX_N generators one cached pair table does
    the rest in a few batched numpy calls, and above it the last generator
    is split off recursively, with the table as the base case.  The result is
    canonical: coefficients below COEFF_CUTOFF are zeroed, as
    GrassmannElement does.
    """
    split = even_route(m, x, y, check=check)
    return canonical(_convolve(x, y)) if split is None else _split_matmul(split, x, y)


def _neumann(split: EvenSplit, x: np.ndarray) -> np.ndarray:
    # x = b (1 + k) with b the body and k = b^-1 (x - b) nilpotent, k^(n+1) = 0,
    # so x^-1 = sum_{j <= n} (-k)^j b^-1, n Horner steps y <- b^-1 - k y in
    # split form; the first, from y = b^-1, is k's own coefficients times b^-1
    body_inv = _body_inverse(x)
    k = np.matmul(body_inv[..., None, :, :], x)
    k[..., 0, :, :] = 0.0
    y = -(k.reshape(*x.shape[:-3], -1, x.shape[-1]) @ body_inv).reshape(x.shape)
    y[..., 0, :, :] = body_inv
    first = np.zeros(x.shape)
    first[..., 0, :, :] = body_inv
    first, y = split.pack(first), split.pack(y)
    L = split.regular(k)
    for _ in range(split.n - 1):
        y = first - L @ y
    return split.unpack(y)


def _body_inverse(x: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.inv(x[..., 0, :, :])
    except np.linalg.LinAlgError as exc:
        raise NonInvertibleError("singular body; no inverse exists") from exc


def _invert(x: np.ndarray, m: int | None, split: EvenSplit | None) -> np.ndarray:
    """x^-1 on split, even_route's plan for x, or by splitting off the last generator."""
    if split is not None:
        return _split_slices(lambda part: _neumann(split, part), split.left_items, x)
    size = x.shape[-3]
    if size == 1:
        return _body_inverse(x)[..., None, :, :]
    # x = x0 + x1 theta_n and y = y0 + y1 theta_n with x y = 1: x0 y0 = 1 and
    # x0 y1 + x1 y0^ = 0, so y1 = -y0 x1 y0^ with ^ the grade involution
    half = size >> 1
    x0 = x[..., :half, :, :]
    y0 = _invert(x0, m, even_route(m, x0, check=False))
    out = np.empty_like(x)
    out[..., :half, :, :] = y0
    out[..., half:, :, :] = -_convolve(
        y0, _convolve(x[..., half:, :, :], y0 * grade_signs(half.bit_length() - 1)))
    return out


def graded_inverse(x: np.ndarray, m: int | None, check: bool = True) -> np.ndarray:
    """The package's one inverse over B_N, of a (..., 2^N, d, d) coefficient array.

    For x declared even (m|d-m) (see ``even_route``) and 2^N d <= SPLIT_MAX
    it is the terminating Neumann series of the paper: x = b (1 + k) with b
    the body and k = b^-1 (x - b) nilpotent, so x^-1 = sum_{j <= N} (-k)^j
    b^-1, N products against the blocks of L(k), built once (stacks in
    slices of SPLIT_BYTES).  Otherwise, inhomogeneous elements included
    (m None), it splits off the last generator, x = x0 + x1 theta_N, inverts
    x0 the same way down to the cap or to the body and sets
    y1 = -y0 x1 y0^, the split ``graded_matmul`` uses for products.  A
    singular body (of any member of a stack) raises NonInvertibleError.  The
    result is two-sided and canonical, member by member the one-matrix
    inverse.
    """
    return canonical(_invert(x, m, even_route(m, x, check=check)))


def taylor_sum(step, identity: np.ndarray, member_ndim: int, cutoff: float,
               max_terms: int) -> np.ndarray:
    """sum_k t_k with t_0 = identity and t_k = step(t_{k-1}) / k, summed raw.

    The last member_ndim axes are a member; each member stops after its
    first term below cutoff in every entry (a NaN entry is never below),
    which it still adds.  A stopped member's sum is not written again while
    the others run on, so each is bit-equal to its one-matrix series.  One
    member, alone or as a one-member stack, sums without the mask.  Raises
    ExpmNotConvergedError when max_terms terms do not reach the cutoff.
    """
    stack = identity.shape[:-member_ndim]
    flat = stack + (math.prod(identity.shape[-member_ndim:]),)
    done = np.zeros(stack, dtype=bool)
    acc = term = identity
    for k in range(1, max_terms + 1):
        term = step(term) * (1.0 / k)
        if done.size == 1:
            acc = acc + term
            if np.abs(term).max() < cutoff:
                return acc
            continue
        if k == 1:
            acc = acc + term        # a new array: identity may be a read-only broadcast
        else:
            np.add(acc, term, out=acc, where=~done.reshape(stack + (1,) * member_ndim))
        done |= (np.abs(term).reshape(flat) < cutoff).all(axis=-1)
        if done.all():
            return acc
    raise ExpmNotConvergedError(f"Taylor terms still above {cutoff:g} after {max_terms} terms")


def scaling_squaring_expm(x: np.ndarray, body: np.ndarray, taylor, square) -> np.ndarray:
    """exp(x) by scaling and squaring around a Taylor sum.

    x is a stack of square arrays, real matrices (..., d, d) or even
    coefficient arrays (..., 2^N, d, d), and body (..., d, d) its real part,
    whose leading axes are the stack, as in a numpy gufunc.  Each member is
    scaled by 2^-s until the 1-norm of its body is at most 1/2, taylor(x)
    sums its series, and square(a), a a, is applied s times (Higham, SIAM J.
    Matrix Anal. Appl. 26, 2005).  Soul parts are nilpotent, so they only
    lengthen the series by finitely many orders.  A small member gets no
    extra squarings, which would only add rounding, so every member is
    bit-equal to its one-matrix exponential: while every member still
    squares the stack's square(a) is taken as it is, after that a finished
    member keeps its value.
    """
    norm = np.abs(body).sum(axis=-2).max(axis=-1, initial=0.0)
    squarings = np.ceil(np.log2(np.fmax(norm, 0.5) / 0.5)).astype(int)

    def per_member(v):
        return v.reshape(v.shape + (1,) * (x.ndim - v.ndim))

    acc = taylor(x * per_member(0.5 ** squarings))
    for k in range(int(squarings.max(initial=0))):
        squares = squarings > k
        acc = square(acc) if squares.all() else np.where(per_member(squares), square(acc), acc)
    return acc


def real_expm(mat: np.ndarray) -> np.ndarray:
    """exp of a small dense real matrix through the shared scaling-and-squaring loop.

    A stack (..., d, d) is exponentiated in one pass, each member with its
    own squaring count and its own series length, so each is bit-equal to
    its one-matrix exponential (see scaling_squaring_expm).
    """
    mat = np.asarray(mat, dtype=float)
    identity = np.broadcast_to(np.eye(mat.shape[-1]), mat.shape)
    return scaling_squaring_expm(
        mat, mat, lambda x: taylor_sum(lambda t: np.matmul(t, x), identity, 2, TAYLOR_CUTOFF, 80),
        lambda a: np.matmul(a, a))


def graded_expm(coeffs: np.ndarray, m: int | None, max_terms: int = 80,
                check: bool = True) -> np.ndarray:
    """exp of a (..., 2^N, d, d) coefficient array with the graded product.

    The Taylor series is summed raw, each member stopping after its first
    term below COEFF_CUTOFF, and canonicalized once: no term is cut on the
    way.  For coeffs declared even (m|d-m) (see ``even_route``) and 2^N d <=
    SPLIT_MAX, the sum runs in split form, each step one matmul by the
    blocks of L of the scaled generator, built once per call (stacks in
    slices of SPLIT_BYTES), from the split's read-only identity, an
    exponential's action in the sense of Al-Mohy and Higham (SIAM J. Sci.
    Comput. 33, 2011); otherwise each step is the kernel.  The squarings
    are ``graded_matmul``.  Every member of a stack is bit-equal to its
    one-matrix exponential.
    """
    split = even_route(m, coeffs, check=check)
    if not np.isfinite(np.abs(coeffs).max(initial=0.0)):
        raise ValueError("non-finite Grassmann coefficient")

    def taylor(x):
        if split is None:
            identity = np.zeros(x.shape)
            identity[..., 0, :, :] = np.eye(x.shape[-1])
            return canonical(taylor_sum(lambda t: _convolve(t, x), identity, 3, COEFF_CUTOFF, max_terms))
        L = split.regular(x)
        identity = np.broadcast_to(split.identity, (*x.shape[:-3], *split.shape))
        return split.unpack(canonical(taylor_sum(lambda t: L @ t, identity, 3, COEFF_CUTOFF, max_terms)))

    def square(a):
        return canonical(_convolve(a, a)) if split is None else _split_matmul(split, a, a)

    def expm(part):
        return scaling_squaring_expm(part, part[..., 0, :, :], taylor, square)

    return _split_slices(expm, split.left_items, coeffs) if split else expm(coeffs)


class GrassmannElement:
    """Immutable element of B_N in canonical form (no zero coefficients)."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Mapping[int, float] | None = None):
        if not 0 <= n <= MAX_GENERATORS:
            raise ValueError(f"generator count must be in 0..{MAX_GENERATORS}, got {n}")
        clean: dict[int, float] = {}
        if terms:
            limit = 1 << n
            for mask, coeff in terms.items():
                if not 0 <= mask < limit:
                    raise ValueError(f"monomial mask {mask:#x} outside B_{n}")
                c = float(coeff)
                if not math.isfinite(c):
                    raise ValueError(f"non-finite coefficient {c} at monomial mask {mask:#x}")
                if abs(c) >= COEFF_CUTOFF:
                    clean[mask] = c
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *_):
        raise AttributeError("GrassmannElement is immutable")

    def dense(self) -> np.ndarray:
        """Coefficients as a float array of length 2^N indexed by monomial mask."""
        out = np.zeros(1 << self.n)
        if self.terms:
            out[list(self.terms)] = list(self.terms.values())
        return out

    @classmethod
    def from_dense(cls, coeffs: np.ndarray) -> "GrassmannElement":
        """Element from a canonical dense coefficient vector (see ``canonical``)."""
        nz = np.flatnonzero(coeffs)
        out = object.__new__(cls)
        object.__setattr__(out, "n", len(coeffs).bit_length() - 1)
        object.__setattr__(out, "terms", dict(zip(nz.tolist(), coeffs[nz].tolist())))
        return out

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def scalar(cls, value: Scalar, n: int) -> "GrassmannElement":
        return cls(n, {0: float(value)})

    @classmethod
    def zero(cls, n: int) -> "GrassmannElement":
        return cls(n, {})

    def max_abs(self) -> float:
        return max((abs(c) for c in self.terms.values()), default=0.0)

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------
    def _coerce(self, other) -> "GrassmannElement | None":
        if isinstance(other, GrassmannElement):
            if other.n != self.n:
                raise ValueError(f"mixed generator counts {self.n} and {other.n}")
            return other
        if isinstance(other, (int, float)):
            return GrassmannElement.scalar(other, self.n)
        return None

    def __add__(self, other) -> "GrassmannElement":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out = dict(self.terms)
        for mask, c in o.terms.items():
            out[mask] = out.get(mask, 0.0) + c
        return GrassmannElement(self.n, out)

    __radd__ = __add__

    def __mul__(self, other) -> "GrassmannElement":
        if isinstance(other, (int, float)):
            return GrassmannElement(self.n, {m: c * other for m, c in self.terms.items()})
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out = graded_matmul(self.dense()[:, None, None], o.dense()[:, None, None])
        return GrassmannElement.from_dense(out[:, 0, 0])

    def inverse(self) -> "GrassmannElement":
        """Multiplicative inverse through ``graded_inverse``; needs a nonzero body."""
        return GrassmannElement.from_dense(graded_inverse(self.dense()[:, None, None], None)[:, 0, 0])

    # ------------------------------------------------------------------
    # comparison / presentation
    # ------------------------------------------------------------------
    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.terms == o.terms

    def __hash__(self):
        return hash((self.n, tuple(sorted(self.terms.items()))))

    def monomials(self) -> Iterator[tuple[tuple[int, ...], float]]:
        """Pairs of (1-based increasing index tuple, coefficient), sorted."""
        for mask in sorted(self.terms):
            idx = tuple(i + 1 for i in range(self.n) if mask >> i & 1)
            yield idx, self.terms[mask]

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for idx, coeff in self.monomials():
            mono = "".join(f"t{i}" for i in idx)
            parts.append(f"{coeff:g}" if not mono else f"{coeff:g}*{mono}")
        return " + ".join(parts).replace("+ -", "- ")
