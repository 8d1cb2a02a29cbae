"""Double-precision engine for the lower-bound (noise-term-dropped) SNR law:
per-link largest-eigenvalue CDF and density, the end-to-end CDF, and the
sum-BER, each computed from non-negative terms only; and the exact forms
of the per-link law that the high-SNR and closed-form engines use.

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
1.1e-14 (4 x 3).

End to end, gamma = A g_s g_f / (B g_s + C g_f) with independent link gains;
conditioning on the far link, with g_f = (w + B x) / A,

    F(x) = F_f(B x / A) + int_0^inf F_s(x C g_f / w) f_f(g_f) dw / A,
    1 - F(x) = int_0^inf (1 - F_s(x C g_f / w)) f_f(g_f) dw / A;

the first form serves F <= 1/2, the second the rest, so neither cancels
and F stays in [0, 1].  Since 1/gamma = B / (A g_f) + C / (A g_s), gamma <= x
holds where g_f <= B x / A or g_s <= C x / A, and requires g_f <= 2 B x / A
or g_s <= 2 C x / A, so the link CDFs bound F on both sides:

    L = max(F_f(B x / A), F_s(C x / A)) <= F(x)
      <= min(1, F_f(2 B x / A) + F_s(2 C x / A)) = U.

A value whose bounds meet (U == L) is settled at that value without an
integral.

The sum-BER of a direction is (a / log2 M) E[Q(sqrt(2 b gamma))], an
average over the two independent link eigenvalues,

    (a / (2 log2 M)) int int erfc(sqrt(b gamma)) f_s(l_s) f_f(l_f) dl_s dl_f,

so one trapezoid grid in (ln l_s, ln l_f) needs each link law only at its
own axis nodes.  Below its deep-fade eigenvalue, C / (A b rho_s) for the
source link and B / (A b rho_f) for the far link, a gain leaves Q near
1/2 and the integrand falls like a power of the gain; each axis starts
well below it, or below its own upper end where that is lower (at low SNR,
where the deep fade lies above the whole law).  It ends at U with
1 - F(U) <= 1e-18: Q falls in each gain, so E[Q; l > U] <= (1 - F(U))
E[Q | l <= U], and the cut carries at most (1 - F(U)) / F(U) of the value.  Equal directions (the two of a symmetric
network) are integrated once and counted as often as they occur.

Every integral runs over logarithmic variables (ln w; ln l_s and ln l_f)
with the trapezoid rule, whose error falls like e^(-2 pi d / h) in the step
h for these integrands, analytic in a strip |Im| < d (Trefethen &
Weideman, SIAM Review 56(3), 2014; on a product of two such laws the grid
converges the same way).  The step is halved until it is fine enough for
the strip and the error estimate, extrapolated from the last two
differences, plus the integrand at the cut ends or edges (which bounds the
neglected tails), is below the tolerance; past MAX_INTERVALS the engine
raises NumericalError.  No sum can pass that check before the third level
and almost every one stops at the fourth, so each integral evaluates the
nodes of its first four levels (_LEVELS) in one pass, at the fourth
level's step, and forms the coarser sums from them; past the fourth level
only the new nodes are evaluated (on the grid both steps halve together,
so only each axis's new nodes reach the link law).  Rounding in the
per-link determinant is not part of the estimate.
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

# Outer nodes whose inner integrals are evaluated together, which bounds
# the temporaries, and arguments per block of the per-link quadrature,
# which bounds its node buffer (at most 24 x 4096 doubles, 786 kB).
_CHUNK = 64
_BLOCK = 4096

# Every integrand decays like a power of its variable below its scale and
# double-exponentially above it.  The substitution v = v0 + s - e^(-s)
# (v = ln w or ln lambda) makes the lower tail decay double-exponentially
# too, so _PAD e-folds below v0 cost a few nodes; the CDF integral's upper
# end is a far-link gain of _FAR_SPAN times its mean.
_PAD = 40.0
_FAR_SPAN = 60.0

# The trapezoid error of an integrand analytic in |Im v| < d falls like
# e^(-2 pi d / h).  The integrands (CDF tails and Q, like e^(-u) with
# u ~ e^(+-v)) have d = pi/2; this step brings e^(-2 pi d / h) below 1e-14,
# and no sum is accepted on a coarser step, however close its last two
# values (they can agree by accident).  The substitution narrows the strip
# where s < 1, so v0 sits _INNER_SHIFT e-folds below where the CDF
# integrand starts to matter, and _FADE_SHIFT below a link's deep-fade gain
# (or its axis's upper end) on the sum-BER grid.
_INNER_H = 0.3
_INNER_SHIFT = 20.0
_FADE_SHIFT = 4.0

# The sum-BER grid ends where P(trace > lambda) <= _TAIL: the trace exceeds
# the largest eigenvalue, so 1 - F <= _TAIL there too.  _GRID_BLOCK values
# per block of grid rows bound the temporaries (32 kB each).
_TAIL = 1e-18
_GRID_BLOCK = 1 << 12

# Trapezoid levels (step halvings) that each integral evaluates in one
# pass: no sum passes its check before the third level, and almost every
# integral stops at the fourth, so the call overhead of the link law is paid
# once per integral instead of once per level.
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


def _det_and_quad(entry: dict, q: list):
    """det(M) and q' M^-1 q for the positive-definite matrices M with lower
    entries entry[i, j] (arrays), from the Cholesky factor: det is the
    product of the squared pivots, the form a sum of squares."""
    s = len(q)
    low = {}
    det = 1.0
    for j in range(s):
        pivot = entry[j, j] - sum(low[j, k] ** 2 for k in range(j))
        low[j, j] = np.sqrt(pivot)
        det = det * pivot
        for i in range(j + 1, s):
            low[i, j] = (entry[i, j] - sum(low[i, k] * low[j, k] for k in range(j))) / low[j, j]
    quad, z = 0.0, []
    for i in range(s):
        z.append((q[i] - sum(low[i, k] * z[k] for k in range(i))) / low[i, i])
        quad = quad + z[i] ** 2
    return det, quad


@functools.cache
def _norm(s: int, t: int) -> int:
    # K of the determinant form for s = min, t = max
    return math.prod(math.factorial(t - k) * math.factorial(s - k) for k in range(1, s + 1))


@functools.cache
def leading_coefficient(m: int, n: int) -> Fraction:
    """The exact c in F(u) = c u^(st) + O(u^(st+1)) of the largest
    eigenvalue of an m x n complex Wishart matrix, s = min(m, n),
    t = max(m, n): the Cauchy determinant det[1 / a_ij] over K."""
    s, t = min(m, n), max(m, n)
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


@functools.cache
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
    s, t = min(m, n), max(m, n)

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
    with unit-variance entries at u >= 0 (array, +inf allowed: F = 1,
    f = 0); f is the density in u."""
    s, t = min(m, n), max(m, n)
    c = t - s + 1
    u = np.asarray(u, dtype=float)
    k_norm = _norm(s, t)
    cdf, pdf = np.empty_like(u), np.empty_like(u)
    # Jacobi's formula: d/du gamma(a_ij, u) = e^(-u) u^(c-1) u^i u^j is rank
    # one, so f = F e^(-u) u^(c-1) w' G^-1 w with w_i = u^i, G = [gamma(a_ij, u)]

    # small u: G = u^(c+i+j) H_ij with the moment matrix H of y^(c-1)
    # e^(-u y) on [0, 1], near the Hilbert matrix and as ill-conditioned.
    # In the basis of the Jacobi polynomials P_i = sum_k C_ik y^k, orthogonal
    # under y^(c-1), its Gram matrix C H C' is near-diagonal, det H is its
    # det over prod C_ii^2, and w' G^-1 w = u^-c (C 1)' (C H C')^-1 (C 1)
    # with (C 1)_i = P_i(1) = 1.
    limit, y, pairs, prods, lead = _jacobi_gram(s, c)
    small = u < limit
    us, ub = u[small], u[~small]
    ns = us.size
    # entry-major: row k holds Gram entry pairs[k], small u in the first ns
    # columns and larger u after them, so that one Cholesky serves both
    entries = np.empty((len(pairs), u.size))
    vec = np.empty((s, u.size))
    # The node values e^(-u y_q) fill a (nodes x arguments) buffer, and the
    # contraction sums each argument's nodes in node order.  The block is a
    # view of a buffer at least 2 columns wide, so that a lone argument is
    # a strided operand too: on a contiguous one, einsum takes a dot-product
    # path with other rounding, and a call's values would depend on its batch.
    nodes = np.empty((y.size, max(2, min(_BLOCK, ns))))
    for k in range(0, ns, _BLOCK):
        block = nodes[:, :min(_BLOCK, ns - k)]
        np.multiply.outer(-y, us[k:k + _BLOCK], out=block)
        np.exp(block, out=block)
        entries[:, k:k + block.shape[1]] = np.einsum("qn,qk->kn", block, prods)
    vec[:, :ns] = np.exp(-0.5 * us)

    # larger u: the entries gamma(a, u) themselves, from the top one down by
    # gamma(a, u) = (gamma(a + 1, u) + u^a e^(-u)) / a, all terms positive.
    # u = inf is taken at the largest double, where u^a e^(-u) underflows to
    # 0, F rounds to 1 and f to 0 (at inf itself a ln u - u is inf - inf).
    ub = np.minimum(ub, np.finfo(float).max)
    ln_ub = np.log(ub)
    top = c + 2 * s - 2
    e = {top: math.gamma(top) * gammainc(top, ub)}
    for a in range(top - 1, c - 1, -1):
        e[a] = (np.exp(a * ln_ub - ub) + e[a + 1]) / a
    for k, (i, j) in enumerate(pairs):
        entries[k, ns:] = e[c + i + j]
    for i in range(s):
        vec[i, ns:] = np.exp((i + 0.5 * (c - 1)) * ln_ub - 0.5 * ub)

    det, quad = _det_and_quad(dict(zip(pairs, entries)), list(vec))
    det[:ns] /= lead * k_norm
    det[ns:] /= k_norm
    cdf[small] = det[:ns] * us ** (s * t)
    pdf[small] = det[:ns] * us ** (s * t - 1) * quad[:ns]
    cdf[~small] = det[ns:]
    pdf[~small] = det[ns:] * quad[ns:]
    return np.minimum(cdf, 1.0), pdf


class Link(NamedTuple):
    """One hop: the antenna counts of its channel matrix and its average
    SNR rho; the link gain is rho times the largest eigenvalue."""

    m: int
    n: int
    rho: float


class Estimate(NamedTuple):
    """The sum-BER, its error estimate, the points of the finest trapezoid
    grids it evaluated and the arguments it passed to `link_cdf_pdf`,
    summed over the distinct directions.  Both counts include the nodes of
    the first pass's finest level (_LEVELS) when a grid stops before it."""

    value: float
    error: float
    grid_points: int
    link_args: int


def _levels(n: int) -> int:
    """How many levels to evaluate in one pass for an integral whose first
    sum has n intervals: _LEVELS, or as many as stay within MAX_INTERVALS
    (at least the first)."""
    levels = 1
    while levels < _LEVELS and n << levels <= MAX_INTERVALS:
        levels += 1
    return levels


class _Trapezoid:
    """Trapezoid sums of integrals of g over v from v0 - _PAD to v1, one
    integral per entry of the 1-d arrays v0 and v1, in the variable s with
    v = v0 + s - e^(-s), refined by halving the step.  The first step of
    the narrowest integral is at most 4 h_max, so that its third sum, the
    first that two differences can vouch for, has a step of at most h_max.
    g(v, rows) maps abscissae
    of shape (len(rows), k) for the integrals `rows` to values of that
    shape, with any leading axes.  `ends` holds the integrands at the two
    ends, summed.

    The nodes of the first `_levels` levels are evaluated in one call of g,
    at the finest of them (each step is the first divided by a power of
    two, so every node has the abscissa it would have on its own level);
    each level's sum is formed from them in the order refine uses, and
    refine hands them out before it evaluates new nodes."""

    def __init__(self, what: str, g, v0, v1, h_max: float):
        self.what = what
        self.g = g
        self.rows = np.arange(v0.size)
        self.v0 = v0
        self.lo = -math.log(_PAD)
        width = np.maximum(v1 - v0, 0.0) + 1.0 - self.lo
        self.n = max(2, math.ceil(np.min(width) / (4.0 * h_max)))
        self.h = width / self.n
        stride = 1 << _levels(self.n) - 1
        values = self._values(np.arange(self.n * stride + 1), self.h / stride)
        self.ends = values[..., 0] + values[..., -1]
        self.total = self.h * (values[..., ::stride].sum(-1) - 0.5 * self.ends)
        # the sums of the finer levels, each from the one before and the
        # level's odd nodes
        self._ahead = []
        total, h = self.total, self.h
        while stride > 1:
            h, stride = h / 2, stride // 2
            total = 0.5 * total + h * values[..., stride::2 * stride].sum(-1)
            self._ahead.append(total)

    def _values(self, k, h):
        s = self.lo + h[:, None] * k
        return self.g(self.v0[:, None] + s - np.exp(-s), self.rows) * (1.0 + np.exp(-s))

    def refine(self, status: str = "") -> None:
        """Halve the step; past MAX_INTERVALS raise NumericalError, with the
        caller's status (its last estimate) in the message."""
        if 2 * self.n > MAX_INTERVALS:
            raise NumericalError(f"{self.what} did not reach relative error {REL_TOL:g} within "
                                 f"{MAX_INTERVALS} trapezoid intervals {status}".rstrip())
        self.h = self.h / 2
        if self._ahead:
            self.total = self._ahead.pop(0)
        else:
            self.total = (0.5 * self.total
                          + self.h * self._values(2 * np.arange(self.n) + 1, self.h).sum(-1))
        self.n *= 2

    def keep(self, mask) -> None:
        """Refine only the integrals where mask is true from now on."""
        self.rows, self.v0, self.h = self.rows[mask], self.v0[mask], self.h[mask]
        self.total, self.ends = self.total[..., mask], self.ends[..., mask]
        self._ahead = [total[..., mask] for total in self._ahead]


def _extrapolated(last, before):
    """Error of the finest trapezoid sum from the last two step-halving
    differences.  For analytic integrands the error falls like e^(-k/h), so
    each difference is about the error of the coarser sum, and the error of
    the finest is at most last^2 / before; where the differences do not yet
    fall, it is the last difference itself."""
    ratio = np.where(last < before, last / np.where(before > 0.0, before, 1.0), 1.0)
    return last * ratio


def _same_shape(src: Link, far: Link) -> bool:
    # links of one shape share a kernel call (half the per-call work)
    return sorted(src[:2]) == sorted(far[:2])


def _cdf_bounds(xs, src: Link, far: Link, a: float, b: float, c: float):
    """(F_f(B x / A), L, U) at xs: the far link's CDF at B x / A and the
    bounds L <= F(x) <= U of the end-to-end CDF (module docstring)."""
    u_f = b * xs / (a * far.rho)
    u_s = c * xs / (a * src.rho)
    if _same_shape(src, far):
        f_f, f_f2, f_s, f_s2 = link_cdf_pdf(np.stack([u_f, 2.0 * u_f, u_s, 2.0 * u_s]),
                                            src.m, src.n)[0]
    else:
        f_f, f_f2 = link_cdf_pdf(np.stack([u_f, 2.0 * u_f]), far.m, far.n)[0]
        f_s, f_s2 = link_cdf_pdf(np.stack([u_s, 2.0 * u_s]), src.m, src.n)[0]
    lower = np.maximum(f_f, f_s)
    # the clip keeps U >= L where rounding in the kernel would invert them
    return f_f, lower, np.clip(f_f2 + f_s2, lower, 1.0)


def _e2e_chunk(xs, f_first, src: Link, far: Link, a: float, b: float, c: float):
    """(F, error estimate, nodes of the final sums) of the end-to-end CDF
    at xs > 0, given f_first = F_f(B x / A)."""
    base = far.rho * a          # w scale where the far gain reaches its mean
    v1 = np.log(_FAR_SPAN * base + b * xs)
    # below w ~ x^2 B C / (A rho_s) the source link saturates, F_s -> 1; the
    # clip keeps w = e^v normal (what lies below is below the smallest
    # double) and the range below its upper end
    v0 = np.clip(2.0 * np.log(xs) + math.log(b * c / (a * src.rho)) - _INNER_SHIFT,
                 -650.0, v1)
    same_shape = _same_shape(src, far)

    def integrand(v, rows):
        x = xs[rows, None]
        w = np.exp(v)
        g_f = (w + b * x) / a
        u_s, u_f = x * c * g_f / (w * src.rho), g_f / far.rho
        if same_shape:
            cdf, pdf = link_cdf_pdf(np.stack([u_s, u_f]), src.m, src.n)
            f_s, dens = cdf[0], pdf[1]
        else:
            f_s = link_cdf_pdf(u_s, src.m, src.n)[0]
            dens = link_cdf_pdf(u_f, far.m, far.n)[1]
        dens = dens * (w / base)
        return np.stack([f_s * dens, (1.0 - f_s) * dens])

    values, errors = np.empty_like(xs), np.empty_like(xs)
    nodes = 0
    rule = _Trapezoid("end-to-end CDF", integrand, v0, v1, _INNER_H)
    prev = diff = None
    status = ""
    while True:
        rows = rule.rows
        lower_p = f_first[rows] + rule.total[0]
        use_q = lower_p > 0.5
        value = np.where(use_q, 1.0 - rule.total[1], lower_p)
        step = np.where(use_q, rule.total[1], rule.total[0])
        if prev is not None:
            last = np.abs(step - prev)
            if diff is not None:
                # the integrand at the cut ends bounds the tails beyond them
                err = _extrapolated(last, diff) + np.where(use_q, rule.ends[1], rule.ends[0])
                done = (err <= REL_TOL * value) & (rule.h <= _INNER_H)
                values[rows[done]], errors[rows[done]] = value[done], err[done]
                nodes += int(done.sum()) * (rule.n + 1)
                if done.all():
                    return values, errors, nodes
                status = (f"(estimate {np.max(err[~done]):.1e} at values up to "
                          f"{np.max(value[~done]):.6e})")
                rule.keep(~done)
                last, step = last[~done], step[~done]
            diff = last
        prev = step
        rule.refine(status)


def e2e_cdf(xs, src: Link, far: Link, a: float, b: float, c: float) -> tuple:
    """CDF of A g_s g_f / (B g_s + C g_f) at each x in xs (array), with a
    per-point error estimate: (values, errors, the nodes of each point's
    final inner sum, summed, points settled by the bounds).  values and
    errors have the shape of xs; at x <= 0 both are 0, at NaN both NaN.
    Each point is refined until its estimate is at most REL_TOL times its
    value.

    The link bounds L <= F(x) <= U come first, for all points at once.  A
    point where they meet (U == L) is settled at that value, with error 0
    and without a node; so is x = inf, at 1.  Only the other points are
    integrated, _CHUNK at a time."""
    shape = np.shape(xs)
    xs = np.asarray(xs, dtype=float).ravel()
    values = np.where(np.isnan(xs), np.nan, 0.0)
    errors = values.copy()
    pos = np.flatnonzero(xs > 0.0)
    f_first, lower, upper = _cdf_bounds(xs[pos], src, far, a, b, c)
    settled = upper == lower
    values[pos[settled]] = lower[settled]
    live, f_first = pos[~settled], f_first[~settled]
    nodes = 0
    for k in range(0, live.size, _CHUNK):
        idx = live[k:k + _CHUNK]
        values[idx], errors[idx], n = _e2e_chunk(xs[idx], f_first[k:k + _CHUNK], src, far, a, b, c)
        nodes += n
    return values.reshape(shape), errors.reshape(shape), nodes, int(settled.sum())


class Direction(NamedTuple):
    """One direction's end-to-end SNR: source and far links and the
    constants (A, B, C) of A g_s g_f / (B g_s + C g_f)."""

    src: Link
    far: Link
    a: float
    b: float
    c: float


class _Axis:
    """One link's axis of the sum-BER grid: n trapezoid intervals of step h
    in s, from s = -ln(_PAD), with ln(lambda) = v0 + s - e^(-s).  v0 sits
    _FADE_SHIFT e-folds below the deep-fade eigenvalue `fade` or the axis's
    upper end, whichever is smaller: at low SNR the deep fade lies far above
    the law, which would then fall in the compressed part of the map and
    need fine steps.  The first step is at most 4 _INNER_H, so that the
    third sum, the first that two differences can vouch for, has a step of
    at most _INNER_H."""

    def __init__(self, link: Link, fade: float):
        self.link = link
        top = gammainccinv(link.m * link.n, _TAIL)
        self.v0 = math.log(min(fade, top)) - _FADE_SHIFT
        v1 = math.log(top)
        self.lo = -math.log(_PAD)
        width = max(v1 - self.v0, 0.0) + 1.0 - self.lo
        self.n = max(2, math.ceil(width / (4.0 * _INNER_H)))
        self.h = width / self.n

    def nodes(self, k):
        """(lam, 1 + e^(-s)) at the nodes k."""
        s = self.lo + self.h * k
        return np.exp(self.v0 + s - np.exp(-s)), 1.0 + np.exp(-s)


def _weights(axes, ks):
    """(lam, f(lam) lam (1 + e^(-s))) at the nodes ks[i] of axes[i]; links
    of one shape share one kernel call."""
    lams, jacs = zip(*(ax.nodes(k) for ax, k in zip(axes, ks)))
    src, far = (ax.link for ax in axes)
    if _same_shape(src, far):
        pdfs = np.split(link_cdf_pdf(np.concatenate(lams), src.m, src.n)[1], [lams[0].size])
    else:
        pdfs = [link_cdf_pdf(lam, ax.link.m, ax.link.n)[1] for lam, ax in zip(lams, axes)]
    return [(lam, pdf * lam * jac) for lam, pdf, jac in zip(lams, pdfs, jacs)]


def _weighted(row_sums, w, cols: int) -> float:
    """sum_i row_sums[i] w[i], reduced in the blocks of rows that hold
    _GRID_BLOCK grid values of a grid with cols columns."""
    rows = max(1, _GRID_BLOCK // cols)
    return sum(float(np.sum(row_sums[k:k + rows] * w[k:k + rows]))
               for k in range(0, row_sums.size, rows))


def _level_sums(d: Direction, mod_b: float, lam_s, w_s, lam_f, w_f, levels: int) -> list:
    """For each of `levels` nested grids in lam_s x lam_f, coarsest first,
    level l taking every 2^(levels - l)-th node of each axis and the last
    level all of them: (sum_ij erfc(sqrt(mod_b gamma_ij)) w_s[i] w_f[j],
    the same over the two end rows i with 2 w_s, and over the two end columns
    j with 2 w_f), with A / gamma = C / (rho_s lam_s) + B / (rho_f lam_f).

    One pass of erfc over the finest grid, each block of rows reduced to its
    row sums as soon as it is computed.  Each level's total is the one the
    grid refined level by level would have, to the bit: the total before it
    plus its new rows over all its columns and its old rows over its new
    columns, each reduced as `_grid_sum` reduces that part."""
    x_s = d.c / (d.src.rho * lam_s)
    x_f = d.b / (d.far.rho * lam_f)
    strides = [1 << levels - 1 - k for k in range(levels)]
    # row sums over each level's columns, and over the columns it adds
    every, added = np.empty((levels, x_s.size)), np.empty((levels, x_s.size))
    end_cols = np.empty(x_s.size)
    rows = max(1, _GRID_BLOCK // x_f.size)
    for k in range(0, x_s.size, rows):
        q = np.add.outer(x_s[k:k + rows], x_f)
        np.divide(d.a * mod_b, q, out=q)
        np.sqrt(q, out=q)
        erfc(q, out=q)
        # numpy's pairwise sums: a BLAS product here would load BLAS pages
        # that no other lower-bound path touches
        q *= w_f
        for level, stride in enumerate(strides):
            every[level, k:k + rows] = q[:, ::stride].sum(axis=1)
            if level:
                added[level, k:k + rows] = q[:, stride::2 * stride].sum(axis=1)
        end_cols[k:k + rows] = q[:, 0] + q[:, -1]
    out = []
    for level, stride in enumerate(strides):
        n = (x_f.size - 1) // stride            # the level's column intervals
        r, w = every[level, ::stride], w_s[::stride]
        if level == 0:
            total = _weighted(r, w, n + 1)
        else:
            new, old = slice(stride, None, 2 * stride), slice(0, None, 2 * stride)
            total += (_weighted(every[level, new], w_s[new], n + 1)
                      + _weighted(added[level, old], w_s[old], n // 2))
        out.append((total, _weighted(r[[0, -1]], 2.0 * w[[0, -1]], n + 1),
                    _weighted(2.0 * end_cols[::stride], w, 2)))
    return out


def _grid_sum(d: Direction, mod_b: float, lam_s, w_s, lam_f, w_f) -> float:
    """sum_ij erfc(sqrt(mod_b gamma_ij)) w_s[i] w_f[j] over the grid
    lam_s x lam_f (`_level_sums` with one level)."""
    return _level_sums(d, mod_b, lam_s, w_s, lam_f, w_f, 1)[0][0]


def _interleave(even, odd):
    out = np.empty(even.size + odd.size)
    out[0::2], out[1::2] = even, odd
    return out


def _direction_ber(d: Direction, mod_b: float, scale: float):
    """(value, error, grid points, link arguments) of
    scale int int erfc(sqrt(mod_b gamma)) f_s f_f dlam_s dlam_f, the
    trapezoid grid refined by halving both steps.  The weights are
    f(lam) lam (1 + e^(-s)), the density in s, halved at the ends.

    The first `_levels` levels come from one `_weights` call on both axes'
    nodes at the finest of them and one `_level_sums` pass over its grid,
    which yields every level's total and edge sums; past that level each
    halving evaluates only the new nodes and the grid cells they add."""
    axes = (_Axis(d.src, d.c / (d.a * mod_b * d.src.rho)),
            _Axis(d.far, d.b / (d.a * mod_b * d.far.rho)))
    # the axes hold the finest level evaluated
    levels = _levels(max(ax.n for ax in axes))
    for ax in axes:
        ax.h, ax.n = ax.h / (1 << levels - 1), ax.n << levels - 1
    (lam_s, w_s), (lam_f, w_f) = _weights(axes, [np.arange(ax.n + 1) for ax in axes])
    for w in (w_s, w_f):
        w[[0, -1]] *= 0.5
    args = lam_s.size + lam_f.size
    ahead = _level_sums(d, mod_b, lam_s, w_s, lam_f, w_f, levels)
    prev = diff = None
    status = ""
    while True:
        if ahead:
            # a level of the first pass, whose steps are the axes' times coarse
            total, edge_s, edge_f = ahead.pop(0)
            coarse = 1 << len(ahead)
        else:
            if 2 * max(ax.n for ax in axes) > MAX_INTERVALS:
                raise NumericalError(f"sum-BER grid did not reach relative error {REL_TOL:g} "
                                     f"within {MAX_INTERVALS} trapezoid intervals per axis "
                                     f"{status}".rstrip())
            for ax in axes:
                ax.h, ax.n = ax.h / 2, ax.n * 2
            (new_s, v_s), (new_f, v_f) = _weights(axes, [np.arange(1, ax.n, 2) for ax in axes])
            args += new_s.size + new_f.size
            lam_f, w_f = _interleave(lam_f, new_f), _interleave(w_f, v_f)
            # the new rows meet every column, the old rows only the new columns
            total += (_grid_sum(d, mod_b, new_s, v_s, lam_f, w_f)
                      + _grid_sum(d, mod_b, lam_s, w_s, new_f, v_f))
            lam_s, w_s = _interleave(lam_s, new_s), _interleave(w_s, v_s)
            edge_s = _grid_sum(d, mod_b, lam_s[[0, -1]], 2.0 * w_s[[0, -1]], lam_f, w_f)
            edge_f = _grid_sum(d, mod_b, lam_s, w_s, lam_f[[0, -1]], 2.0 * w_f[[0, -1]])
            coarse = 1
        h_s, h_f = (ax.h * coarse for ax in axes)
        value = scale * h_s * h_f * total
        if prev is not None:
            last = abs(value - prev)
            if diff is not None:
                # the integrand along the grid's edges bounds the tails beyond them
                ends = h_f * edge_s + h_s * edge_f
                err = float(_extrapolated(last, diff)) + scale * h_s * h_f * ends
                if err <= REL_TOL * value:
                    return value, err, lam_s.size * lam_f.size, args
                status = f"(estimate {err:.1e} of {value:.6e})"
            diff = last
        prev = value


def sum_ber(directions, mod_a: float, mod_b: float, bits: float) -> Estimate:
    """Sum over the directions of E[mod_a Q(sqrt(2 mod_b gamma))] / bits,
    each the trapezoid grid of (mod_a / (2 bits)) int int erfc(sqrt(mod_b
    gamma)) f_s f_f over both link gains (module docstring).  Equal
    directions (a symmetric network's two) are integrated once and counted
    as often as they occur."""
    parts = [_direction_ber(d, mod_b, count * mod_a / (2.0 * bits))
             for d, count in Counter(directions).items()]
    return Estimate(*(sum(column) for column in zip(*parts)))
