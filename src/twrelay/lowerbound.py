"""Double-precision engine for the lower-bound (noise-term-dropped) SNR law:
per-link largest-eigenvalue CDF and density, the end-to-end CDF, and the
sum-BER, each computed from non-negative terms only; and the exact forms
of the per-link law that the high-SNR and closed-form engines use, and its
mean, for the Monte-Carlo controls.  Other modules use only public names.

Per link, the largest eigenvalue of an m x n complex Wishart matrix with
s = min(m, n), t = max(m, n) has the determinant CDF (Kang & Alouini,
IEEE JSAC 21(3), 2003; Chiani, Win & Zanella, IEEE Trans. IT 49(10), 2003)

    F(u) = det[gamma(a_ij, u)] / K,  a_ij = t - s + i + j + 1,
    K = prod_{k=1..s} (t - k)! (s - k)!.

Since gamma(a, u) = u^a / a + O(u^(a+1)), F(u) = c u^(st) + O(u^(st+1)) with
c = det[1 / a_ij] / K, a Cauchy determinant: the exact rational
c = prod_{i<j<s} (j - i)^2 / (K prod_{i,j<s} a_ij) sets the link's weight in
the high-SNR asymptote.  Expanded exactly in e^(-u) and u, the same
determinant gives the coefficients of 1 - F as a sum of Erlang tails
(`ccdf_expansion`), on which the paper's closed form is built.

The matrix is a Gram matrix (of 1, y, ..., y^(s-1) under the weight
y^(t-s) e^(-u y) on [0, 1], scaled by u^a_ij), so it is positive definite:
its determinant is the product of the squared Cholesky pivots, and the
density, by Jacobi's formula with the rank-one derivative of the matrix,
is F times a positive quadratic form.  For small u the monomial Gram matrix
is as ill-conditioned as the Hilbert matrix; the Gram matrix of the Jacobi
polynomials orthogonal under y^(t-s) is near-diagonal instead.  Against
60-digit references for u in [1e-6, 30] the relative error is at most
1.2e-13 (4 x 4, just above u = 4, where the monomial basis takes over) and
1.1e-14 (4 x 3).  A call pays only for the side of the switch its
arguments lie on: on a 2-vCPU x86_64 host one argument costs about 25-30 us
at 2 x 2 and 35-65 us at 3 x 3 and 4 x 4, and 200 arguments on both sides
about 60 us at 2 x 2 (`link_cdf_pdf`).

End to end, gamma = A g_s g_f / (B g_s + C g_f) with independent link
gains g = rho lambda (rho the link's SNR, lambda its largest eigenvalue),
so 1 / gamma = k_s / lambda_s + k_f / lambda_f with k_s = C / (A rho_s),
k_f = B / (A rho_f): a `Direction` is two link shapes and these two scales.
Conditioning on the far link, with lambda_f = w + k_f x,

    F(x) = F_f(k_f x) + int_0^inf F_s(k_s x lambda_f / w) f_f(lambda_f) dw,
    1 - F(x) = int_0^inf (1 - F_s(k_s x lambda_f / w)) f_f(lambda_f) dw;

the first form serves F <= 1/2, the second the rest, so neither cancels
and F stays in [0, 1].

The sum-BER of a direction is (a / log2 M) E[Q(sqrt(2 b gamma))], an
average over the two independent link eigenvalues,

    (a / (2 log2 M)) int int erfc(sqrt(b gamma)) f_s(l_s) f_f(l_f) dl_s dl_f,

so one trapezoid grid in (ln l_s, ln l_f) needs each link law only at its
own axis nodes.  Below its deep-fade eigenvalue, k_s / b for the source
link and k_f / b for the far link, an eigenvalue leaves Q near 1/2 and
the integrand falls like a power of it; each axis starts
well below it, or below its own upper end where that is lower (at low SNR,
where the deep fade lies above the whole law).  It ends at U with
1 - F(U) <= 1e-18: Q falls in each gain, so E[Q; l > U] <= (1 - F(U))
E[Q | l <= U], and the cut carries at most (1 - F(U)) / F(U) of the value.
Equal directions (the two of a symmetric network) are integrated once and
counted as often as they occur.  A sum-BER below the smallest normal double
raises NumericalError: its digits, and its error estimate, are lost.  Where
a Chernoff bound from the link scales alone (`_sum_ber_bound`) already lies
below it, no grid is built.

Every axis of the grid takes one ladder of steps in the substitution's
variable s (below): 1 at the coarsest level, 1/8 at the first estimate and
halved on each refinement, with as many steps as its own range needs.  With
v0 = ln(min(fade, top)) - F, F = _FADE_SHIFT, and the lattice nodes
s_i = _LO + i h, each axis has b k / lambda_i = e^F rho phi_i, phi_i =
exp(e^(-s_i) - s_i) and rho = max(1, fade / top), so

    b gamma_ij = e^(-F) / (rho_s phi_i + rho_f phi_j).

Where both deep fades lie below their axes' tops (rho_s = rho_f = 1: on
every link measured from 30 dB up, and from 0 dB with the relay midway, d0
= 0.5) the erfc factor depends only on the level and the node indices, not
on the scales, the modulation, the link shapes or the SNR: each level's
matrix is built once per process on first use, at most _KERNEL_NODES a
side, and a grid reads its leading block, so a grid call is a weighted
contraction with no erfc.  There the link law takes lambda_i = min(fade,
top) e^(-F) / phi_i with the same phi_i, so that both see one node
(`_Axis.at`).  At low SNR, or past that size, the same formula is evaluated
per call.

Every integral runs over logarithmic variables (ln w; ln l_s and ln l_f)
with the trapezoid rule, whose error falls like e^(-2 pi d / h) in the step
h for these integrands, analytic in a strip |Im| < d (Trefethen & Weideman,
SIAM Review 56(3), 2014; on a product of two such laws the grid converges
the same way).  Each integral keeps its integrand at the nodes of the
finest level evaluated, and the sums of its last three levels are the
plain sums over those nodes at strides 4, 2 and 1.  One stop rule serves
them all (`_settle`): the error estimate, extrapolated from the sums' two
differences, plus the integrand at the cut ends or edges (which bounds the
neglected tails), must be at most REL_TOL of the value.  Every integral
steps on the ladder above (the end-to-end CDF's inner integrals from a
coarse step of 1.2), with as many coarse intervals as its own range needs,
fine enough for the strip at its first estimate.  Else the step is halved
and only the new level's odd nodes are evaluated (on the grid, only each
axis's new nodes reach the link law); past MAX_INTERVALS the engine raises
NumericalError.  The first pass evaluates the fourth level (_LEVELS) at
once, which almost every integral stops at; no integral stops before it.
Rounding in the per-link
determinant and in the sums is not part of the estimate, so the same rule
reports every error of an integral as at least REL_ROUNDING of its value.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from fractions import Fraction
from typing import NamedTuple

import numpy as np
from scipy.special import erfc, gammainc, gammainccinv

from .errors import NumericalError

# Relative error the integrals are refined to, and the most trapezoid
# intervals per integral (per axis of a sum-BER grid) before the engine
# gives up.
REL_TOL = 1e-13
MAX_INTERVALS = 1 << 13

# Least relative error an integral reports (a sum-BER or an integrated
# end-to-end CDF value), for the rounding in the link kernel and the sums
# that the extrapolation cannot see (at worst 3.2e-15 against 100-digit
# closed forms); the stop rule (`_settle`) floors its report there, and
# does not stop on it.
REL_ROUNDING = 1e-14

# Outer nodes whose inner integrals are evaluated together, which bounds
# the temporaries, and arguments per block of the per-link quadrature,
# which bounds its node buffer (at most 24 x 4096 doubles, 786 kB).
_CHUNK = 64
_BLOCK = 4096

# Every integrand decays like a power of its variable below its scale and
# double-exponentially above it.  The substitution v = v0 + s - e^(-s)
# (v = ln w or ln lambda) makes the lower tail decay double-exponentially
# too, so _PAD e-folds below v0 cost a few nodes (s starts at _LO); the CDF
# integral's upper end is a far-link eigenvalue of _FAR_SPAN.
_PAD = 40.0
_LO = -math.log(_PAD)
_FAR_SPAN = 60.0

# A link argument where the link CDF is 1 and its density 0 in double (from
# about 2e3 on), and the CDF integrand's products stay finite.
_SATURATED = 1e150

# The largest double, where `link_cdf_pdf` takes u = inf, and the smallest
# normal one.
_HUGE = np.finfo(float).max
_TINY = float(np.finfo(float).smallest_normal)

# The trapezoid error of an integrand analytic in |Im v| < d falls like
# e^(-2 pi d / h); the integrands (CDF tails and Q, like e^(-u) with u ~
# e^(+-v)) have d = pi/2.  On the ladder of `_Steps` from the coarse step
# _INNER_UNIT, the end-to-end CDF's third level (0.3) brings that below
# 1e-14, and each first estimate is on the fourth (0.15), never on a
# coarser step, where its last two values can agree by accident.  The
# substitution narrows the strip where s < 1, so v0 sits _INNER_SHIFT
# e-folds below where the CDF integrand starts to matter, and _FADE_SHIFT
# below a link's deep-fade gain (or its axis's upper end) on the sum-BER grid.
_INNER_UNIT = 1.2
_INNER_SHIFT = 20.0
_FADE_SHIFT = 4.0

# The sum-BER grid ends where P(trace > lambda) <= _TAIL: the trace exceeds
# the largest eigenvalue, so 1 - F <= _TAIL there too.  Where `_level_sums`
# evaluates the erfc factor per call, _GRID_BLOCK values per block of grid
# rows bound its temporaries (32 kB each); a grid that reads the cached
# factor takes one temporary of its size, at most that of a cached matrix.
_TAIL = 1e-18
_GRID_BLOCK = 1 << 12

# The sum-BER grid's erfc factor at rho_s = rho_f = 1 (`_kernel`) depends on
# the level and the node indices alone; each level's matrix is built on its
# first use and rebuilt, in steps of 64 nodes, when a longer axis needs it,
# up to _KERNEL_NODES nodes a side (2 MiB).  Every axis spans at least 9
# unit intervals, so at level l it has at least 9 2^(l-1) + 1 nodes: only
# levels 3 to 6 fit, and the matrices never take more than 8 MiB.
_KERNEL_NODES = 512
_kernels = {}

# The level (step halvings plus one) that each integral evaluates in its
# first pass and that its first estimate is taken at: the stop rule reads
# the sums of the last three levels, so it is at least 3, and almost every
# integral stops at the fourth, so the call overhead of the link law is
# paid once per integral instead of once per level.
_LEVELS = 4


def _gauss_legendre(n: int):
    """Gauss-Legendre nodes and weights on [-1, 1], by Newton's method on
    the Legendre recurrence.  (numpy's leggauss solves an eigenproblem,
    which loads LAPACK, about 1 MB of resident memory; these weights also
    agree with 40-digit ones to 1e-14, numpy's to 1e-13.)"""
    def legendre(x):
        # P_n(x) and P_n'(x)
        p0, p1 = np.ones_like(x), x
        for k in range(2, n + 1):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        return p1, n * (x * p1 - p0) / (x * x - 1.0)

    x = np.cos(np.pi * (np.arange(n) + 0.75) / (n + 0.5))
    for _ in range(8):      # quadratic convergence from these starting points
        p, dp = legendre(x)
        x = x - p / dp
    dp = legendre(x)[1]
    return x, 2.0 / ((1.0 - x * x) * dp * dp)


@functools.cache
def _jacobi_gram(s: int, c: int):
    """The quadrature of the Gram matrices of the Jacobi polynomials
    P_i(2y - 1), i < s, orthogonal under y^(c-1) on [0, 1], against
    e^(-u y) for u below a limit: (limit, nodes y, index pairs (i, j) with
    j <= i, weights times y^(c-1) P_i P_j at the nodes with one column per
    pair, product of the squared leading coefficients of the P_i in y).

    Up to 2 x 2 the moment matrix in the monomial basis is accurate for
    u >= 1; at 3 x 3 and 4 x 4 only from u = 4 on.  12 nodes integrate
    polynomials of degree 23 and 24 of degree 47: the polynomial part has
    degree <= 5 up to 2 x 2 and <= 9 beyond, and the Taylor terms of
    e^(-u y) past degree 17 (u < 1) or 37 (u < 4) are below 1e-16."""
    limit, nodes = (1.0, 12) if s <= 2 else (4.0, 24)
    x, w = _gauss_legendre(nodes)
    y = 0.5 * (x + 1.0)
    # P_i^(0, c-1)(x) by the three-term recurrence of the Jacobi polynomials
    beta = c - 1.0
    poly = [np.ones_like(x), 0.5 * ((beta + 2.0) * x - beta)]
    for i in range(1, s - 1):
        k = 2.0 * i + beta
        poly.append(((k + 1.0) * (k * (k + 2.0) * x - beta * beta) * poly[i]
                     - 2.0 * i * (i + beta) * (k + 2.0) * poly[i - 1])
                    / (2.0 * (i + 1.0) * (i + beta + 1.0) * k))
    pairs = [(i, j) for i in range(s) for j in range(i + 1)]
    prods = np.stack([0.5 * w * y ** (c - 1) * poly[i] * poly[j] for i, j in pairs], axis=1)
    lead = math.prod(math.comb(2 * i + c - 1, i) ** 2 for i in range(s))
    return limit, y, pairs, prods, lead


class _Shape(NamedTuple):
    """The constants of `link_cdf_pdf` for s = min, t = max: c = t - s + 1
    and the lower Gram entries `pairs` (i, j); below the basis switch
    `limit`, the Jacobi quadrature of `_jacobi_gram` (its nodes negated, as
    a column) and the determinant's scale lead K; at and above it, the
    scale K, the top order of the Gamma recurrence with Gamma(top) and the
    orders c..top-1 below it (a column), each pair's order less c (i + j)
    and the powers i + (c - 1) / 2 of u in the vector w (a column)."""

    c: int
    pairs: list
    limit: float
    neg_y: np.ndarray
    prods: np.ndarray
    small_norm: float
    norm: float
    top: int
    gamma_top: float
    below_top: np.ndarray
    orders: np.ndarray
    powers: np.ndarray


@functools.cache
def _shape(s: int, t: int) -> _Shape:
    c = t - s + 1
    limit, y, pairs, prods, lead = _jacobi_gram(s, c)
    top = c + 2 * s - 2
    return _Shape(c, pairs, limit, -y[:, None], prods, float(lead * _norm(s, t)),
                  float(_norm(s, t)), top, math.gamma(top), np.arange(c, top)[:, None],
                  np.array([i + j for i, j in pairs]),
                  np.array([i + 0.5 * (c - 1) for i in range(s)])[:, None])


def _det_and_quad(entry: dict, q: list):
    """det(M) and q' M^-1 q for the positive-definite matrices M with lower
    entries entry[i, j] (arrays), from the Cholesky factor: det is the
    product of the squared pivots, the form a sum of squares.  Each inner
    product is summed over k in order and then subtracted."""
    s = len(q)
    low, z = {}, []
    for j in range(s):
        for i in range(j, s):
            value = entry[i, j]
            if j:
                dot = low[i, 0] * low[j, 0]
                for k in range(1, j):
                    dot += low[i, k] * low[j, k]
                value = value - dot
            if i > j:
                low[i, j] = value / low[j, j]
                continue
            det = det * value if j else value
            low[j, j] = np.sqrt(value)
    for i in range(s):
        value = q[i]
        if i:
            dot = low[i, 0] * z[0]
            for k in range(1, i):
                dot += low[i, k] * z[k]
            value = value - dot
        z.append(value / low[i, i])
        quad = quad + z[i] * z[i] if i else z[i] * z[i]
    return det, quad


@functools.cache
def _norm(s: int, t: int) -> int:
    # K of the determinant form for s = min, t = max
    return math.prod(math.factorial(t - k) * math.factorial(s - k) for k in range(1, s + 1))


def leading_coefficient(m: int, n: int) -> Fraction:
    """The exact c in F(u) = c u^(st) + O(u^(st+1)) of the largest
    eigenvalue of an m x n complex Wishart matrix, s = min(m, n),
    t = max(m, n): the Cauchy determinant det[1 / a_ij] over K."""
    return _leading_coefficient(min(m, n), max(m, n))


@functools.cache
def _leading_coefficient(s: int, t: int) -> Fraction:
    vandermonde = math.prod((j - i) ** 2 for j in range(s) for i in range(j))
    return Fraction(vandermonde,
                    _norm(s, t) * math.prod(t - s + i + j + 1 for i in range(s) for j in range(s)))


def _poly_mul(p: dict, q: dict) -> dict:
    # product of polynomials in e^(-u) and u, keyed by (power of e^(-u), power of u)
    out = {}
    for (e1, k1), c1 in p.items():
        for (e2, k2), c2 in q.items():
            out[e1 + e2, k1 + k2] = out.get((e1 + e2, k1 + k2), 0) + c1 * c2
    return out


def ccdf_expansion(m: int, n: int) -> tuple:
    """The exact expansion of the largest eigenvalue L of an m x n complex
    Wishart matrix, s = min(m, n), t = max(m, n),

        P(L > u) = sum_(i, k) d[i, k] sum_(j <= k) (i u)^j e^(-i u) / j!,

    as the pairs ((i, k), d[i, k]) with d[i, k] != 0 in sorted order, each
    d a Fraction, 1 <= i <= s and t - s <= k <= (t + s) i - 2 i^2.

    det[gamma(a_ij, u)] is expanded by minors along its rows as a
    polynomial in e^(-u) and u with integer coefficients, from
    gamma(a, u) = (a - 1)! (1 - e^(-u) sum_(j < a) u^j / j!).  With c_ik its
    coefficient of e^(-i u) u^k, the tail sums are
    S_k = sum_(k' >= k) d[i, k'] = -c_ik k! / (K i^k), and
    d[i, k] = S_k - S_(k+1)."""
    return _ccdf_expansion(min(m, n), max(m, n))


@functools.cache
def _ccdf_expansion(s: int, t: int) -> tuple:
    def gamma(a):
        f = math.factorial(a - 1)
        poly = {(1, j): -(f // math.factorial(j)) for j in range(a)}
        poly[0, 0] = f
        return poly

    @functools.cache
    def minor(cols):
        # determinant of the last len(cols) rows over the columns cols
        if not cols:
            return {(0, 0): 1}
        i = s - len(cols)
        out = {}
        for pos, j in enumerate(cols):
            term = _poly_mul(gamma(t - s + i + j + 1), minor(cols[:pos] + cols[pos + 1:]))
            for key, c in term.items():
                out[key] = out.get(key, 0) + (-c if pos % 2 else c)
        return out

    det = minor(tuple(range(s)))
    k_norm = _norm(s, t)
    table = []
    for i in range(1, s + 1):
        tail = {k: Fraction(-c * math.factorial(k), k_norm * i ** k)
                for (e, k), c in det.items() if e == i}
        for k in range(max(tail) + 1):
            d = tail.get(k, 0) - tail.get(k + 1, 0)
            if d:
                table.append(((i, k), d))
    return tuple(table)


def link_cdf_pdf(u, m: int, n: int):
    """(F, f) of the largest eigenvalue of an m x n complex Wishart matrix
    with unit-variance entries at u >= 0 (array of any shape, +inf allowed:
    F = 1, f = 0; NaN gives NaN); f is the density in u.

    The arguments below the basis switch (u = 1 up to 2 x 2, u = 4 beyond)
    and those above it take separate routes into one Cholesky pass, and a
    call pays nothing for a range it has no argument in: no quadrature, no
    Gamma recurrence and no mask or scatter.  On a 2-vCPU x86_64 host
    (least of interleaved repetitions) a call of one argument takes 26 us
    below the switch and 31 us above it at 2 x 2, 36-48 us at 3 x 3 and
    51-67 us at 4 x 4; one of 2 arguments, one on each side, 45 us, of 200
    about 60 us and of 446 about 73 us at 2 x 2."""
    s, t = min(m, n), max(m, n)
    shape = _shape(s, t)
    c, pairs = shape.c, shape.pairs
    u = np.asarray(u, dtype=float)
    flat = u.ravel()
    small = flat < shape.limit
    ns = int(np.count_nonzero(small))
    nb = flat.size - ns
    # where each range's values go: its arguments' places in a call that
    # has both, else the whole output
    at_small, at_big = (small, ~small) if ns and nb else (slice(None), slice(None))
    us, ub = flat[at_small], flat[at_big]
    # entry-major: row k holds Gram entry pairs[k], small u in the first ns
    # columns and larger u after them, so that one Cholesky serves both
    entries = np.empty((len(pairs), flat.size))
    vec = np.empty((s, flat.size))
    # Jacobi's formula: d/du gamma(a_ij, u) = e^(-u) u^(c-1) u^i u^j is rank
    # one, so f = F e^(-u) u^(c-1) w' G^-1 w with w_i = u^i, G = [gamma(a_ij, u)]

    if ns:
        # small u: G = u^(c+i+j) H_ij with the moment matrix H of y^(c-1)
        # e^(-u y) on [0, 1], near the Hilbert matrix and as ill-conditioned.
        # In the basis of the Jacobi polynomials P_i = sum_k C_ik y^k,
        # orthogonal under y^(c-1), its Gram matrix C H C' is near-diagonal,
        # det H is its det over prod C_ii^2, and w' G^-1 w = u^-c (C 1)'
        # (C H C')^-1 (C 1) with (C 1)_i = P_i(1) = 1.
        # The node values e^(-u y_q) fill a (nodes x arguments) buffer, and
        # the contraction sums each argument's nodes in node order.  The
        # block is a view of a buffer at least 2 columns wide, so that a lone
        # argument is a strided operand too: on a contiguous one, einsum
        # takes a dot-product path with other rounding, and a call's values
        # would depend on its batch.
        nodes = np.empty((shape.neg_y.size, max(2, min(_BLOCK, ns))))
        for k in range(0, ns, _BLOCK):
            block = nodes[:, :min(_BLOCK, ns - k)]
            np.multiply(shape.neg_y, us[k:k + _BLOCK], out=block)
            np.exp(block, out=block)
            np.einsum("qn,qk->kn", block, shape.prods, out=entries[:, k:k + block.shape[1]])
        vec[:, :ns] = np.exp(-0.5 * us)

    if nb:
        # larger u: the entries gamma(a, u) themselves, from the top one down
        # by gamma(a, u) = (gamma(a + 1, u) + u^a e^(-u)) / a, all terms
        # positive.  u = inf is taken at the largest double, where u^a e^(-u)
        # underflows to 0, F rounds to 1 and f to 0 (at inf itself a ln u - u
        # is inf - inf).
        ub = np.minimum(ub, _HUGE)
        ln_ub = np.log(ub)
        # gamma(a, u) in row a - c: the terms u^a e^(-u) of every a < top
        # at once, then the recurrence in place
        gam = np.empty((shape.top - c + 1, nb))
        np.multiply(shape.gamma_top, gammainc(shape.top, ub), out=gam[-1])
        if shape.top > c:
            terms = np.multiply(shape.below_top, ln_ub, out=gam[:-1])
            terms -= ub
            np.exp(terms, out=terms)
        for a in range(shape.top - 1, c - 1, -1):
            gam[a - c] += gam[a - c + 1]
            gam[a - c] /= a
        entries[:, ns:] = gam[shape.orders]
        vec[:, ns:] = np.exp(shape.powers * ln_ub - 0.5 * ub)

    det, quad = _det_and_quad(dict(zip(pairs, entries)), list(vec))
    cdf, pdf = np.empty_like(flat), np.empty_like(flat)
    if ns:
        det_s = det[:ns] / shape.small_norm
        cdf[at_small] = det_s * us ** (s * t)
        pdf[at_small] = det_s * us ** (s * t - 1) * quad[:ns]
    if nb:
        det_b = det[ns:] / shape.norm
        cdf[at_big] = det_b
        pdf[at_big] = det_b * quad[ns:]
    return np.minimum(cdf, 1.0).reshape(u.shape), pdf.reshape(u.shape)


class Link(NamedTuple):
    """One hop's shape: the antenna counts of its channel matrix, whose
    largest eigenvalue is the link's gain without its SNR rho."""

    m: int
    n: int


def link_laws(links, args) -> tuple:
    """((F, f) of src, (F, f) of far) for links = (src, far), each at its own
    array args = (u_src, u_far) and in its shape.  Links of one shape share
    one `link_cdf_pdf` call, whose values do not depend on the batch."""
    (src, far), (u_src, u_far) = links, args
    if sorted(src) != sorted(far):
        return link_cdf_pdf(u_src, src.m, src.n), link_cdf_pdf(u_far, far.m, far.n)
    cdf, pdf = link_cdf_pdf(np.concatenate((u_src, u_far), axis=None), src.m, src.n)
    k = u_src.size
    return ((cdf[:k].reshape(u_src.shape), pdf[:k].reshape(u_src.shape)),
            (cdf[k:].reshape(u_far.shape), pdf[k:].reshape(u_far.shape)))


def mean_largest_eigenvalue(m: int, n: int) -> float:
    """Mean of the largest eigenvalue of an m x n complex Wishart matrix,
    int_0^inf (1 - F(u)) du with the determinant-form F of `link_cdf_pdf`,
    by 24-point Gauss-Legendre panels of width 4 on [0, U].  1 - F lies
    below the Gamma(mn) tail of the trace, so the part past U is at most
    mn Q(mn + 1, U), which U sets to 1e-17.  (The exact mean over
    `ccdf_expansion` takes time that grows like 2^s.)  The kernel is sized
    for 4 antennas a side, where the error is below 1e-13; beyond, it is
    1.8e-14 at 5 x 5, 2.7e-15 at 6 x 3, 2.5e-13 at 6 x 6, 1.5e-13 at 8 x 4,
    1.4e-12 at 7 x 7 and 5.1e-12 at 8 x 8.  Where a Cholesky pivot rounds
    below 0 or K leaves the double range (14 x 14, and 10 x 20 already) it
    raises NumericalError."""
    return _mean_largest_eigenvalue(min(m, n), max(m, n))


@functools.cache
def _mean_largest_eigenvalue(s: int, t: int) -> float:
    k = s * t
    upper = gammainccinv(k + 1, 1e-17 / k)
    x, w = _gauss_legendre(24)
    left = np.arange(0.0, upper, 4.0)
    try:
        # a negative pivot's square root is NaN, reported below
        with np.errstate(invalid="ignore"):
            cdf, _ = link_cdf_pdf((left[:, None] + 2.0 * (x + 1.0)).ravel(), s, t)
    except OverflowError:   # K, an integer, is too large for a double
        cdf = math.nan
    mean = math.fsum((1.0 - cdf) * np.tile(2.0 * w, left.size))
    if not math.isfinite(mean):
        raise NumericalError(f"the mean largest eigenvalue of a {s} x {t} Wishart matrix is "
                             f"out of the kernel's double-precision range")
    return mean


@functools.cache
def _trace_tail(k: int) -> float:
    """The point past which a Gamma(k) trace has probability _TAIL: the
    upper end of an axis of the sum-BER grid for a link with m n = k."""
    return gammainccinv(k, _TAIL)


class Estimate(NamedTuple):
    """The sum-BER, its error estimate (at least REL_ROUNDING of each
    grid's value), the points of the trapezoid grids it was taken at (the
    finest each direction evaluated) and the arguments it passed to
    `link_cdf_pdf`, summed over the distinct directions."""

    value: float
    error: float
    grid_points: int
    link_args: int


def _interleave(even, odd):
    # a level's nodes from the level before's and its own odd ones, along the last axis
    return np.insert(even, np.arange(1, even.shape[-1]), odd, axis=-1)


def _lattice(h: float, k):
    """The ladder's nodes s = _LO + h k on the level of step h (k an array)."""
    return _LO + h * k


class _Steps:
    """The ladder of trapezoid steps in s, v = v0 + s - e^(-s) from s = _LO
    (v from about v0 - _PAD): n intervals of step h at the nodes `_lattice`
    of the finest level evaluated, from n coarse intervals of step `unit`
    halved _LEVELS - 1 times for the first estimate.  Integrals that share
    the steps (v0 a column) share every node.  The arguments `what` and
    `per` name the integral and its unit of intervals in the NumericalError
    of `halve`."""

    def __init__(self, v0, n: int, unit: float, what: str, per: str = ""):
        if _LEVELS < 3:
            raise ValueError(f"_LEVELS must be at least 3 for the three sums read, got {_LEVELS}")
        self.v0, self.n, self.h = v0, int(n), unit
        self.what, self.per = what, per
        self.halve(times=_LEVELS - 1)

    def at(self, k):
        """(v, dv/ds) at the nodes k of the current step, one row per
        integral where v0 is a column."""
        s = _lattice(self.h, k)
        decay = np.exp(-s)
        return self.v0 + s - decay, 1.0 + decay

    def halve(self, status: str = "", times: int = 1) -> None:
        """Halve the step `times` times; past MAX_INTERVALS raise
        NumericalError, naming the integral and the caller's status (its
        last estimate)."""
        n = self.n << times
        if n > MAX_INTERVALS:
            raise NumericalError(f"{self.what} did not reach relative error {REL_TOL:g} within "
                                 f"{MAX_INTERVALS} trapezoid intervals{self.per} {status}".rstrip())
        # divided by a power of two, h k keeps every coarser node bit for bit
        self.n, self.h = n, self.h / (1 << times)


# The strides, in nodes of the finest level, of the three levels whose sums
# the stop rule reads, coarsest first.
_STRIDES = (4, 2, 1)


def _settle(coarse, mid, fine, edges, value):
    """The stop rule of every integral: (its reported error, whether it
    stops) from the sums of its last three levels, coarsest first, the
    integrand at its cut ends or edges, which bounds the tails beyond them,
    and its value.  For analytic integrands the error falls like e^(-k/h),
    so each difference of the sums is about the error of the coarser one,
    and the error of the finest is at most last^2 / before for the
    differences last = |fine - mid| and before = |mid - coarse|; where they
    do not yet fall, it is the last difference itself.  That plus the edges
    must be at most REL_TOL of the value; the error reported is at least
    REL_ROUNDING of it, for the rounding the differences cannot see."""
    last, before = np.abs(fine - mid), np.abs(mid - coarse)
    ratio = np.divide(last, before, out=np.ones_like(last), where=last < before)
    err = last * ratio + edges
    return np.maximum(err, REL_ROUNDING * value), err <= REL_TOL * value


def _e2e_chunk(rows, n: int, links, scaled, f_first, v0, out) -> int:
    """Integrate the end-to-end CDF at the live thresholds `rows`, each x
    given by scaled = (k_s x, k_f x), on the ladder of `_Steps` from n
    coarse intervals of _INNER_UNIT (v0[rows] a column); write F_f(k_f x)
    into f_first and each F and its error into out = (values, errors), at
    its row, and return the nodes of the sums they were taken at, summed.

    The integrand of both forms, F_s and 1 - F_s times the far link's
    density in s, is kept at every node of the finest level, and a coarser
    level's sum is the plain sum over the nodes at its stride (each step is
    the finest times a power of two, so every node has the abscissa it would
    have on its own level).  The first pass evaluates the fourth level, and
    its kernel call takes the rows' k_f x with the far link's arguments, so
    that it also gives F_f(k_f x), the first term of each F; a refinement
    evaluates only the new level's odd nodes, of the rows that go on."""
    s_x, f_x = scaled
    steps = _Steps(v0[rows, None], n, _INNER_UNIT, "end-to-end CDF")

    def integrand(k, first=False):
        # at the nodes k of the rows still live (rows is rebound below)
        v, dv = steps.at(k)
        w = np.exp(v)
        lam_f = w + f_x[rows, None]
        u_far = np.concatenate((lam_f, f_x[rows]), axis=None) if first else lam_f
        (f_s, _), (cdf_f, dens) = link_laws(links, (s_x[rows, None] * lam_f / w, u_far))
        if first:
            f_first[rows] = cdf_f[lam_f.size:]
            dens = dens[:lam_f.size].reshape(lam_f.shape)
        weight = dens * w
        both = np.empty((2,) + f_s.shape)
        np.multiply(f_s, weight, out=both[0])
        np.multiply(1.0 - f_s, weight, out=both[1])
        both *= dv
        return both

    values = integrand(np.arange(steps.n + 1), first=True)
    nodes = 0
    while True:
        # each level's sum, ends halved, times its step, the finest times its
        # stride; then the integrand at the two cut ends, summed
        ends = values[..., 0] + values[..., -1]
        totals = np.array([(np.add.reduce(values[..., ::stride], axis=-1) - 0.5 * ends)
                           * (stride * steps.h) for stride in _STRIDES] + [ends])
        lower_p = f_first[rows] + totals[-2, 0]
        use_q = lower_p > 0.5
        # the F or the 1 - F form of each threshold, for every sum at once
        coarse, mid, fine, ends = np.where(use_q, totals[:, 1], totals[:, 0])
        value = np.where(use_q, 1.0 - fine, lower_p)
        err, done = _settle(coarse, mid, fine, ends, value)
        # every row's estimate is written; a row that goes on is rewritten
        out[0][rows], out[1][rows] = value, err
        count = np.count_nonzero(done)
        nodes += count * (steps.n + 1)
        if count == done.size:
            return nodes
        status = f"(estimate {np.max(err[~done]):.1e} at values up to {np.max(value[~done]):.6e})"
        rows, steps.v0, values = rows[~done], steps.v0[~done], values[:, ~done]
        steps.halve(status)
        values = _interleave(values, integrand(np.arange(1, steps.n, 2)))


def e2e_cdf(xs, src: Link, far: Link, k_s: float, k_f: float) -> tuple:
    """CDF of gamma, 1 / gamma = k_s / lambda_s + k_f / lambda_f, at each x
    in xs (array), with a per-point error estimate: (values, errors, the
    nodes of the inner sum each point was taken at, summed).  values and
    errors have the shape of xs; at x <= 0 both are 0, at x = inf the value
    is 1 with error 0, at NaN both are NaN.  Every other point is
    integrated on the coarse intervals its own range needs, on the ladder
    of `_Steps`, until `_settle` stops it (its estimate at most REL_TOL of
    its value; it reports at least REL_ROUNDING of it), so its value, error
    and nodes are those of a call of its own; points of one interval count
    are integrated _CHUNK at a time.  Each chunk's first kernel call also
    takes F_f(k_f x) of its points (`_e2e_chunk`), so a point whose inner
    integral stops at its first estimate, as almost every one does, costs
    one kernel call."""
    shape = np.shape(xs)
    xs = np.asarray(xs, dtype=float).ravel()
    errors = np.where(np.isnan(xs), np.nan, 0.0)
    values = np.where(xs == np.inf, 1.0, errors)
    live = np.flatnonzero((xs > 0.0) & (xs < np.inf))
    # a threshold past _SATURATED on either link is taken there: F = 1 at both
    x = np.minimum(xs[live], _SATURATED / max(k_s, k_f))
    s_x, f_x = k_s * x, k_f * x
    v1 = np.log(_FAR_SPAN + f_x)
    # below w ~ k_s k_f x^2 the source link saturates, F_s -> 1; the bounds
    # keep w = e^v normal (what lies below is below the smallest double)
    # and the range below its upper end
    v0 = np.minimum(np.maximum(2.0 * np.log(x) + math.log(k_s * k_f) - _INNER_SHIFT, -650.0), v1)
    # coarse intervals from s = _LO to past v = v1 + 1 (at least 4: 1 - _LO > 4.6)
    counts = np.ceil((v1 - v0 + 1.0 - _LO) / _INNER_UNIT)
    out, f_first = np.empty((2, live.size)), np.empty(live.size)
    nodes = 0
    for n in sorted(set(counts.tolist())):
        group = np.flatnonzero(counts == n)
        for k in range(0, group.size, _CHUNK):
            nodes += _e2e_chunk(group[k:k + _CHUNK], n, (src, far), (s_x, f_x), f_first, v0, out)
    values[live], errors[live] = out
    return values.reshape(shape), errors.reshape(shape), nodes


class Direction(NamedTuple):
    """One direction's end-to-end SNR: source and far links and the scales
    of 1 / gamma = k_s / lambda_s + k_f / lambda_f (module docstring)."""

    src: Link
    far: Link
    k_s: float
    k_f: float


class _Axis(_Steps):
    """One link's axis of the sum-BER grid, with ln(lambda) = v0 + s -
    e^(-s).  v0 sits _FADE_SHIFT e-folds below the deep-fade eigenvalue
    `fade` or the axis's upper end, whichever is smaller: at low SNR the
    deep fade lies far above the law, which would then fall in the
    compressed part of the map and need fine steps.  rho = max(1, fade /
    top) is the deep fade's ratio to the point v0 sits below.

    Every axis takes the ladder of `_Steps` from whole intervals of 1 at
    the coarsest level, enough of them to cover its range, so its nodes are
    the lattice s = _LO + i 2^(1-l) at every level l."""

    def __init__(self, link: Link, fade: float):
        top = _trace_tail(link.m * link.n)
        v0 = math.log(min(fade, top)) - _FADE_SHIFT
        n = math.ceil(math.log(top) - v0 + 1.0 - _LO)
        super().__init__(v0, n, 1.0, "sum-BER grid", " per axis")
        self.link, self.rho = link, max(1.0, fade / top)
        self.base = min(fade, top) * math.exp(-_FADE_SHIFT)

    def at(self, k):
        """(lambda, dv/ds) at the nodes k.  At rho = 1, lambda = base / phi
        takes the `_phi` of the cached erfc factor, so that the factor and
        the link law see one lambda: e^v carries the rounding of v0 (about
        eps |v0|, |v0| up to 30 at 60 dB), an offset common to every node
        that b gamma, tens where a 4 x 4 grid's value lies, multiplies (at
        4x4x4 30 dB it moved a value 2e-14 off its 100-digit closed form,
        twice its error estimate).  At rho > 1, v0 lies within 0.3 of 0, so
        e^v has no such offset, and at the low-SNR points measured it came
        closer to the closed form than base / phi."""
        v, dv = super().at(k)
        if self.rho > 1.0:
            return np.exp(v), dv
        return self.base / _phi(self.h, k), dv


def _weights(axes, ks):
    """(lam, f(lam) lam (1 + e^(-s))) as rows of one array at the nodes
    ks[i] of axes[i]."""
    lams, jacs = zip(*(ax.at(k) for ax, k in zip(axes, ks)))
    laws = link_laws([ax.link for ax in axes], lams)
    return [np.stack([lam, pdf * lam * jac]) for lam, (_, pdf), jac in zip(lams, laws, jacs)]


def _phi(h: float, k, rho: float = 1.0):
    """rho e^(e^(-s) - s) at the nodes s = `_lattice`(h, k) (k an array)."""
    s = _lattice(h, k)
    return rho * np.exp(np.exp(-s) - s)


def _kernel(phi_s, phi_f, out=None):
    """erfc(sqrt(b gamma)) at the grid nodes (i, j) of axes with the `_phi`
    values phi_s and phi_f, into out if given: with lambda = min(fade, top)
    e^(-_FADE_SHIFT) / phi on each axis, b gamma = e^(-_FADE_SHIFT) /
    (phi_s[i] + phi_f[j]), whatever the scales, the modulation and the link
    shapes."""
    q = np.add.outer(phi_s, phi_f, out=out)
    np.divide(math.exp(-_FADE_SHIFT), q, out=q)
    np.sqrt(q, out=q)
    return erfc(q, out=q)


def _cached_kernel(h: float, nodes: int):
    """The `_kernel` matrix at rho = 1 on the level of step h, at least
    `nodes` <= _KERNEL_NODES a side; each entry is the same at any size."""
    kernel = _kernels.get(h)
    if kernel is None or len(kernel) < nodes:
        phi = _phi(h, np.arange(min(_KERNEL_NODES, -(-nodes // 64) * 64)))
        kernel = _kernels[h] = _kernel(phi, phi)
    return kernel


def _level_sums(axes, w_s, w_f):
    """(the sums sum_ij erfc(sqrt(mod_b gamma_ij)) w_s[i] w_f[j] of the last
    three levels, coarsest first, level l taking every _STRIDES[l]-th node of
    each axis; the finest level's sum over its two end rows i with 2 w_s and
    over its two end columns j with 2 w_f) on the grid of the two axes.

    Where both axes have rho = 1 and fit, the erfc factor is the leading
    block of the level's cached matrix (`_cached_kernel`), taken whole;
    else it is evaluated here, _GRID_BLOCK values at a time.  Each block of
    rows times w_f is reduced to its row sums at each level's stride, and a
    level's total is the plain sum of its rows' sums times w_s.  These are
    numpy's pairwise sums, not a BLAS product: each row's rounding error
    grows like log n instead of n, and is the same on every host."""
    n_s, n_f = w_s.size, w_f.size
    if axes[0].rho == axes[1].rho == 1.0 and max(n_s, n_f) <= _KERNEL_NODES:
        blocks = [np.multiply(_cached_kernel(axes[0].h, max(n_s, n_f))[:n_s, :n_f], w_f)]
    else:
        phi_s, phi_f = (_phi(ax.h, np.arange(ax.n + 1), ax.rho) for ax in axes)
        # blocks start at multiples of 4, so each holds its own rows of every level
        rows = max(4, _GRID_BLOCK // n_f // 4 * 4)

        def evaluated():
            for k in range(0, n_s, rows):
                q = _kernel(phi_s[k:k + rows], phi_f)
                q *= w_f
                yield q
        blocks = evaluated()
    row_sums, end_cols = ([], [], []), []
    for q in blocks:
        for sums, stride in zip(row_sums, _STRIDES):
            sums.append(q[::stride, ::stride].sum(axis=1))
        end_cols.append(q[:, 0] + q[:, -1])
    row_sums = [np.concatenate(sums) for sums in row_sums]
    totals = [float(np.sum(r * w_s[::stride])) for r, stride in zip(row_sums, _STRIDES)]
    fine = row_sums[-1]
    return (totals, 2.0 * float(fine[0] * w_s[0] + fine[-1] * w_s[-1]),
            2.0 * float(np.sum(np.concatenate(end_cols) * w_s)))


def _direction_ber(d: Direction, mod_b: float, scale: float):
    """(value, error, grid points, link arguments) of
    scale int int erfc(sqrt(mod_b gamma)) f_s f_f dlam_s dlam_f, the
    trapezoid grid refined by halving both steps.  The weights are
    f(lam) lam (1 + e^(-s)), the density in s, halved at the ends.

    The axes hold the finest level evaluated, and `_level_sums` reads the
    last three levels' totals and the finest level's edge sums off that
    grid.  The first pass evaluates both axes' nodes with one `_weights`
    call; each refinement evaluates only the axes' new nodes."""
    axes = (_Axis(d.src, d.k_s / mod_b), _Axis(d.far, d.k_f / mod_b))
    src, far = _weights(axes, [np.arange(ax.n + 1) for ax in axes])
    # the lowest node lies about 1e-21 below the deep fade k / mod_b, and
    # from about 3030 dB it underflows to 0, where the link law's arguments
    # no longer follow the lattice that the erfc factor is taken on
    if not (src[0, 0] > 0.0 and far[0, 0] > 0.0):
        raise NumericalError("sum-BER grid cannot run at this SNR: its lowest eigenvalue node "
                             "underflows to 0")
    for nodes in (src, far):
        nodes[1, [0, -1]] *= 0.5
    while True:
        totals, edge_s, edge_f = _level_sums(axes, src[1], far[1])
        # both axes are on the ladder's step h; a level's step is h times
        # its stride, and the integrand along the grid's edges bounds the
        # tails beyond them
        h = axes[0].h
        value = scale * h * h * totals[-1]
        err, done = _settle(*(scale * (h * stride) ** 2 * total
                              for total, stride in zip(totals, _STRIDES)),
                            scale * h ** 3 * (edge_s + edge_f), value)
        if done:
            # the link law saw each axis node once
            sizes = src.shape[1], far.shape[1]
            return value, float(err), math.prod(sizes), sum(sizes)
        for ax in axes:
            ax.halve(f"(estimate {err:.1e} of {value:.6e})")
        new_src, new_far = _weights(axes, [np.arange(1, ax.n, 2) for ax in axes])
        src, far = _interleave(src, new_src), _interleave(far, new_far)


def _sum_ber_bound(directions, mod_a: float, mod_b: float, bits: float) -> float:
    """An upper bound on `sum_ber`'s total from the directions' link shapes
    and scales alone, with no kernel call:

        (mod_a / (2 bits)) sum_directions sum_links (1 + mod_b / (2 k s))^(-m n),

    k the link's scale and s = min(m, n).  It rests on Q(x) <= e^(-x^2/2) / 2
    (Chernoff); on gamma >= min(lambda_s / k_s, lambda_f / k_f) / 2, so that
    e^(-mod_b gamma) is at most the sum over the links of
    e^(-mod_b lambda / (2 k)); and on lambda >= tr / s, whose trace tr ~
    Gamma(m n) has the Laplace transform that gives each term.  A scale that
    underflows to 0 gives its term 0."""
    total = 0.0
    for d in directions:
        for link, k in ((d.src, d.k_s), (d.far, d.k_f)):
            t = 2.0 * k * min(link)
            total += (t / (t + mod_b)) ** (link.m * link.n)
    return mod_a / (2.0 * bits) * total


def sum_ber(directions, mod_a: float, mod_b: float, bits: float,
            silenced: float = 0.0) -> Estimate:
    """Sum over the directions of E[mod_a Q(sqrt(2 mod_b gamma))] / bits,
    each the trapezoid grid of (mod_a / (2 bits)) int int erfc(sqrt(mod_b
    gamma)) f_s f_f over both link gains (module docstring), plus
    `silenced`, an exact part of the total that no grid carries (a silenced
    direction's (mod_a / bits) Q(0)).  Equal directions (a symmetric
    network's two) are integrated once and counted as often as they occur.
    A total below the smallest normal double raises NumericalError, before
    any grid where `_sum_ber_bound` and `silenced` already lie below it (at
    2x1x2 from about 1550 dB, where a grid's first pass would take 0.1 s or
    more).  Where only the bound lies below it, the grids' part cannot move
    the total: it is `silenced`, with the bound as its error and no grid."""
    bound = _sum_ber_bound(directions, mod_a, mod_b, bits)
    if bound < _TINY <= silenced:
        return Estimate(silenced, bound, 0, 0)
    if not bound >= _TINY:
        raise NumericalError(f"the sum-BER lies below the smallest normal double ({_TINY:.1e}): "
                             f"its bound from the link scales is {bound!r}")
    parts = [_direction_ber(d, mod_b, count * mod_a / (2.0 * bits))
             for d, count in Counter(directions).items()]
    total = Estimate(*(sum(column) for column in zip(*parts)))
    total = total._replace(value=silenced + total.value)
    if not total.value >= _TINY:
        raise NumericalError(f"the sum-BER lies below the smallest normal double ({_TINY:.1e}): "
                             f"the grid gave {total.value!r}")
    return total
