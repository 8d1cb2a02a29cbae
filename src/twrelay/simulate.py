"""Monte-Carlo engine: link gains sampled from their exact joint law under
Rayleigh fading, exact per-realization end-to-end SNRs for each protocol,
semi-analytic sum-BER estimation, and the dual-reception mean-ratio
factors.

Trials are drawn from counter-partitioned Philox substreams in fixed-size
blocks, so results depend only on (seed, trial index) and are identical no
matter how trials are batched or distributed.  Every pass over the draws is
one ordered map over its blocks, `_gain_blocks`: a task draws a block,
trims it to the trial count, turns it into link gains and applies the
caller's per-block reduction; or, given the blocks of a pass at least as
long over the same stream, it only reduces their first draws.  A sweep
evaluates every point of the sweep on each block's gains.  The protocol
picks the SNR form, the exact two-branch sums for dual reception and the
unified form otherwise.  The unified form is the analytic engines' law,
read from `analysis.direction_scales` and not restated here: 1 / gamma =
k_s / lambda_s + k_f / lambda_f + n1 kappa / (lambda_s lambda_f), n1 = 1
for the exact form and 0 for the lower one.

The tasks run on a pool of worker threads, one per CPU available to the
process and at most one per block.  numpy, `standard_gamma` and `erfc`
release the interpreter lock inside their loops, so blocks are drawn and
reduced side by side.  The caller reads the results in block order and
combines partial sums with math.fsum, so every output is the same bit for
bit whatever the number of workers.  Each worker holds the working set of
one block in flight, a few MB at 16 384 trials (about 5 MB at 4x4x4), on
top of what the caller keeps.  A task of `estimate_d_factors` writes its
block's fourteen rows and a row of ones into one array and reads every sum
it needs off their Gram matrix, one BLAS product, with no array per sum or
product: glibc hands a freed 128 KiB block array back to the kernel once
enough of them lie free, the next one is faulted back in page by page, and
the worker threads then contend on the process's page tables.

The engine reads four gains per trial.  With W = H H^H the relay-side Gram
of a side's m_r x m channel and f its top unit eigenvector (that side's
matched beamformer), they are lam_a = lam_max(W_A), lam_b = lam_max(W_B),
lam_a_x = f_B^H W_A f_B and lam_b_x = f_A^H W_B f_A.  They are sampled from
their joint law, with no channel matrix:

- The Householder reduction of H to lower-bidiagonal form that keeps the
  first coordinate gives W = U T U^H with U e_1 = e_1 and T = B B^T, where
  B is real lower-bidiagonal with independent B_ii^2 ~ Gamma(m - i) and
  B_(i+1,i)^2 ~ Gamma(m_r - 1 - i), 0-based (the beta = 2 Laguerre model of
  Dumitriu & Edelman, "Matrix models for beta ensembles", J. Math. Phys.
  43, 2002).  With m_r > m the reduction runs out of columns after m
  steps, so rows past m are zero and T is its leading n = min(m_r, m + 1)
  rows and columns.  With one relay antenna T is the 1 x 1 matrix
  B_00^2 = |h|^2 ~ Gamma(m) of the side's channel row.
- So T_00 is W's quadratic form at a fixed unit vector, and the first
  components of T's eigenvectors are those of W's in a basis that starts
  with that vector.  The law of W is unitarily invariant and the other
  side's beamformer is independent of W, so that vector may be taken to
  be the beamformer: lam_a = lam_max(T_A), lam_a_x = T_A[0, 0] = B_00^2,
  which is exactly Gamma(m_a) (a control of `estimate_d_factors`), and
  c = |f_A^H f_B|^2 = q_A^2, the squared first component of T_A's top
  eigenvector.
- lam_b_x = lam_b c + (1 - c) R_B.  R_B is the mean of W_B's other
  eigenvalues under weights that are Dirichlet(1, ..., 1) and independent
  of everything else (the rest of a Haar unitary's first row, given its
  first column).  The other squared first components of T_B's
  eigenvectors, divided by 1 - q_B^2, have that law, so
  R_B = (T_B[0, 0] - lam_b q_B^2) / (1 - q_B^2).
- q^2 = p_1(lam) / p'(lam), with p T's characteristic polynomial and p_1
  that of T without its first row and column (Golub & Welsch, "Calculation
  of Gauss quadrature rules", Math. Comp. 23, 1969).

Each side's top eigenpair takes its route from n alone, never from a
setting (`_top_gains`):

- n = 1: lam = T_00 and q^2 = 1, so each cross gain equals the matched
  one, bit for bit.
- n = 2: closed forms, with R_B = det T / lam.
- n >= 3: Newton on p and p', evaluated by T's bottom-up three-term
  recurrence, from the Samuelson upper bound, which falls monotonically
  onto the top root; a row stops, keeping its iterate, at its first step
  that is no shorter than the one before.  A row still stepping after
  _NEWTON_MAX steps (a near-tie at the top) is finished by bisection on
  the Sturm count.  One more pass of the recurrence at lam gives q^2 and
  R_B through the Christoffel-Darboux sum p_1 p' = sum of squares, so
  neither loses digits as q^2 -> 1.
"""

from __future__ import annotations

import math
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np
from scipy.special import digamma, erfc

from .analysis import direction_scales
from .errors import ConfigurationError, NumericalError
from .lowerbound import mean_largest_eigenvalue
from .scenario import (MR1_DFACTORS, AntennaConfig, CoefficientSet, DFactors, Modulation,
                       PowerProfile, Protocol, WeightPair, coefficient_set,
                       protocol_modulation)

_BLOCK = 1 << 14
# the fewest trials of the Monte-Carlo pre-pass that estimates the
# dual-reception factors for the analytic rows (sweep, gaps, beta, validate):
# two blocks, whose control-variate standard errors are below those of a
# plain estimate from 200 000 draws
D_FACTOR_TRIALS = 1 << 15
# Newton steps before a row is left to bisection: a top eigenvalue of a
# random draw takes at most about 13 from the Samuelson bound, a near-tie
# about one more per halving of its gap
_NEWTON_MAX = 32


@dataclass(frozen=True)
class BerEstimate:
    mean: float
    std_error: float
    trials: int


def _variate_shapes(m_r: int, m: int) -> list:
    """Gamma shapes of one side's bidiagonal: B_ii^2 for i < n, then
    B_(i+1,i)^2 for i < n - 1, n = min(m_r, m + 1)."""
    n = min(m_r, m + 1)
    return [m - i for i in range(n)] + [m_r - 1 - i for i in range(n - 1)]


class ChannelStream:
    """Counter-based random stream: block b of trials is generated from a
    Philox generator keyed by the seed with the block index in the top
    counter word, so any trial's draws are a pure function of
    (seed, index)."""

    def __init__(self, seed: int):
        self.seed = int(seed)
        require_seed(self.seed)

    def _rng(self, block: int) -> np.random.Generator:
        return np.random.Generator(np.random.Philox(key=self.seed, counter=[0, 0, 0, block]))

    def draw_block(self, ant: AntennaConfig, block: int) -> tuple[np.ndarray, np.ndarray]:
        """The A side's and the B side's draws of one block, trial axis first:
        the squared bidiagonal entries of each side (see the module
        docstring), arrays of shape (B, 2 n - 1) with n = min(m_r, m + 1):
        columns B_00^2, ..., B_(n-1,n-1)^2, then B_10^2, ..., B_(n-1,n-2)^2.
        With m_r = 1 that is one Gamma(m) column per side.  The stream fills
        them column by column, the A side first, each column with
        `standard_gamma` at its shape (`_variate_shapes`); a column of shape
        0 (B_mm with m_r > m) is all zero and takes nothing from the
        stream."""
        rng = self._rng(block)
        out = []
        for m in (ant.m_a, ant.m_b):
            shapes = _variate_shapes(ant.m_r, m)
            g = np.empty((len(shapes), _BLOCK))
            for row, shape in zip(g, shapes):
                rng.standard_gamma(shape, out=row)
            out.append(g.T)
        return tuple(out)


def _samuelson(a: np.ndarray, b2: np.ndarray) -> np.ndarray:
    """Samuelson's upper bound on the largest eigenvalue, tr/n +
    sqrt((n - 1)/n (|T|_F^2 - tr^2/n)), of each symmetric tridiagonal with
    diagonal a (n, rows) and squared off-diagonal b2 (n - 1, rows)."""
    n = len(a)
    tr = a.sum(axis=0)
    fro2 = (a * a).sum(axis=0) + 2.0 * b2.sum(axis=0)
    return tr / n + np.sqrt((n - 1) / n * np.maximum(fro2 - tr * tr / n, 0.0))


def _some_eig_at_least(a: np.ndarray, b2: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Whether each tridiagonal has an eigenvalue >= x: whether T - x I is
    not negative definite, from the signs of its LDL^T pivots (the Sturm
    count).  A row is settled at its first pivot that is not negative."""
    d = a[0] - x
    neg = d < 0.0
    for ai, bi in zip(a[1:], b2):
        d = ai - x - bi / np.where(neg, d, -1.0)
        neg &= d < 0.0
    return ~neg


def _bisect_top(a: np.ndarray, b2: np.ndarray) -> np.ndarray:
    """Largest eigenvalue of each tridiagonal by bisection on the Sturm
    count, between its largest diagonal entry and the Samuelson bound,
    until the interval is one ulp wide."""
    lo = a.max(axis=0)
    hi = np.maximum(_samuelson(a, b2), lo)
    while True:
        mid = 0.5 * (lo + hi)
        wide = (lo < mid) & (mid < hi)
        if not wide.any():
            return hi
        up = _some_eig_at_least(a, b2, mid)
        lo = np.where(wide & up, mid, lo)
        hi = np.where(wide & ~up, mid, hi)


def _top_eig(a: np.ndarray, b2: np.ndarray) -> np.ndarray:
    """Largest eigenvalue of each real symmetric tridiagonal with diagonal
    a (n, rows) and squared off-diagonal b2 (n - 1, rows), n >= 2.

    Newton from the Samuelson bound on p(x) = P_0(x), where P_i is the
    characteristic polynomial of T without its first i rows and columns:
    P_n = 1, P_(n-1) = x - a_(n-1), P_i = (x - a_i) P_(i+1) - b2_i P_(i+2),
    and P_i' by the derived recurrence.  A row stops, keeping its iterate,
    at its first step that is no shorter than the one before (rounding has
    taken over); rows that stopped are dropped from the arrays once they
    are half of them.  A row still stepping after _NEWTON_MAX steps goes to
    `_bisect_top`.  Each row's result depends on that row alone.
    """
    x = _samuelson(a, b2)
    lam = np.empty_like(x)
    rows = np.arange(x.size)
    prev = np.full(x.shape, np.inf)
    # a row whose p' vanishes takes an infinite or NaN step, and stops
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(_NEWTON_MAX):
            p, p_next, dp, dp_next = x - a[-1], 1.0, 1.0, 0.0
            for ai, bi in zip(a[-2::-1], b2[::-1]):
                t = x - ai
                p, p_next, dp, dp_next = t * p - bi * p_next, p, p + t * dp - bi * dp_next, dp
            step = p / dp
            size = np.abs(step)
            go = size < prev
            x = np.where(go, x - step, x)
            prev = np.where(go, size, -1.0)     # -1: no later step is shorter
            live = np.count_nonzero(go)
            if 2 * live < go.size:
                lam[rows] = x
                rows, x, prev, a, b2 = rows[go], x[go], prev[go], a[:, go], b2[:, go]
                if not live:
                    break
    lam[rows] = x
    left = prev >= 0.0
    if left.any():
        lam[rows[left]] = _bisect_top(a[:, left], b2[:, left])
    return lam


def _top_weights(a: np.ndarray, b2: np.ndarray, lam: np.ndarray):
    """(q2, rest) of each tridiagonal at its top eigenvalue lam (n >= 2):
    q2 the squared first component of the top unit eigenvector, rest the
    mean of the other eigenvalues weighted by their eigenvectors' squared
    first components.

    The top eigenvector is v_i = (b_0 ... b_(i-1)) P_(i+1)(lam), so with
    U_i = P_(i+1)^2 + b2_i U_(i+1), U_(n-1) = 1, its squared norm is
    U_0 = P_1 p'(lam) (Christoffel-Darboux), q2 = P_1^2 / U_0 (Golub-Welsch)
    and rest = a_0 - P_1 P_2 / U_1; U_i is a sum of squares.  Where the top
    eigenvector lies in T without its first row, and that row is nearly
    decoupled (b2_0 below about 1e-18 lam^2, which a draw reaches with
    probability below 1e-16), the rounding error of P_1, of order
    eps lam^(n-1), leaves q2 resolved to about eps^2 lam^2 / b2_0 only."""
    p_next, p, u = 1.0, lam - a[-1], 1.0
    for ai, bi in zip(a[-2:0:-1], b2[:0:-1]):
        u = p * p + bi * u
        p, p_next = (lam - ai) * p - bi * p_next, p
    return p * p / (p * p + b2[0] * u), a[0] - p * p_next / u


def _top_gains(g: np.ndarray):
    """(lam, t00, q2, rest) of one side's T from its squared bidiagonal
    entries g, of shape (2 n - 1, rows) as `ChannelStream.draw_block` lays
    them out: the top eigenvalue, T[0, 0], the top eigenvector's squared
    first component and the weighted mean of the other eigenvalues (see
    `_top_weights`)."""
    n = (len(g) + 1) // 2
    d, e = g[:n], g[n:]
    if n == 1:
        # T = [B_00^2], whose one eigenvector is the first coordinate
        return d[0], d[0], 1.0, 0.0
    if n == 2:
        # T = [[d0, b], [b, d1 + e0]], b^2 = d0 e0: lam = (a0 + a1)/2 + r with
        # h = (a0 - a1)/2 and r = sqrt(h^2 + b^2); the top eigenvector is
        # [t, b] with t = lam - a1 = h + r, taken as b^2 / (r - h) when h < 0,
        # so q2 = t / (2 r); the other eigenvalue is det T / lam = d0 d1 / lam
        a1 = d[1] + e[0]
        b2 = d[0] * e[0]
        h = 0.5 * (d[0] - a1)
        r = np.sqrt(h * h + b2)
        lam = 0.5 * (d[0] + a1) + r
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.where(h >= 0.0, h + r, b2 / (r - h))
            # r = 0 only for T = a I, where every vector is an eigenvector
            q2 = np.where(r > 0.0, t / (2.0 * r), 1.0)
            rest = np.where(lam > 0.0, d[0] * d[1] / lam, 0.0)
        return lam, d[0], q2, rest
    a = d.copy()
    a[1:] += e
    b2 = d[:-1] * e
    lam = _top_eig(a, b2)
    q2, rest = _top_weights(a, b2, lam)
    return lam, d[0], q2, rest


@dataclass(frozen=True)
class LinkGains:
    """Power-free link gains of a batch of draws: the top Gram eigenvalues
    of each side, lam_a and lam_b, and the cross gains lam_a_x and lam_b_x,
    received through the opposite side's matched beamformer.  A link SNR
    is one of them times that link's average SNR: g_ar = rho_ar lam_a,
    g_ra_x = rho_ra lam_a_x, and so on."""

    lam_a: np.ndarray
    lam_b: np.ndarray
    lam_a_x: np.ndarray
    lam_b_x: np.ndarray

    def head(self, n: int) -> "LinkGains":
        """The gains of the first n draws."""
        return LinkGains(self.lam_a[:n], self.lam_b[:n], self.lam_a_x[:n], self.lam_b_x[:n])


def link_gains(side_a: np.ndarray, side_b: np.ndarray) -> LinkGains:
    """LinkGains of the draws of `ChannelStream.draw_block` (or their first
    rows)."""
    lam_a, t00, c, _ = _top_gains(side_a.T)
    lam_b, _, _, rest = _top_gains(side_b.T)
    # rest lies in [0, lam_b] but for rounding; with one relay antenna c = 1
    # and rest = 0, so lam_b_x is lam_b
    lam_b_x = lam_b * c + (1.0 - c) * np.clip(rest, 0.0, lam_b)
    # a copy, which does not keep the whole block of variates alive
    return LinkGains(lam_a, lam_b, t00.copy(), lam_b_x)


def require_trials(trials: int) -> None:
    """A Monte-Carlo pass draws at least two trials, the fewest that give
    a standard error."""
    if trials < 2:
        raise ConfigurationError(f"trials must be >= 2, got {trials!r}")


def require_seed(seed: int) -> None:
    """A seed keys a Philox stream: [0, 2**128)."""
    if not 0 <= seed < 1 << 128:
        raise ConfigurationError(f"seed must be in [0, 2**128), got {seed!r}")


def _cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _block_map(task, items, blocks: int):
    """task(item) of each of the `blocks` items, in order, each on a worker
    thread of one pool of min(`_cpus()`, blocks) threads.  At most one task
    per worker runs while the reader holds a result, so a result is never
    more than workers + 1 items ahead of the reader.  An error raised by a
    task, or by `items`, reaches the reader unchanged once the tasks before
    it are read; then, as when the reader stops early, every task not yet
    started is cancelled and the running ones are waited for."""
    workers = min(_cpus(), blocks)
    pool = ThreadPoolExecutor(workers)
    pending = deque()
    try:
        for item in items:
            pending.append(pool.submit(task, item))
            if len(pending) > workers:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()
    finally:
        pool.shutdown(cancel_futures=True)


def _same(block):
    return block


def _gain_blocks(ant: AntennaConfig, trials: int, seed: int, gains=None, reduce=_same):
    """reduce(LinkGains) of each block of the first `trials` draws of the
    seed's stream, in block order, the last block trimmed to the trial count
    (by default the LinkGains themselves).  Each block is drawn
    (`ChannelStream.draw_block`), turned into link gains and reduced by one
    task of `_block_map`.  If gains is given, the blocks are taken from its
    blocks instead, those of a pass over the same stream that is at least
    that long, and only reduced there."""
    require_trials(trials)
    blocks = -(-trials // _BLOCK)
    if gains is not None:
        return _block_map(reduce, _heads(gains, trials), blocks)
    stream = ChannelStream(seed)

    def task(b):
        n = min(_BLOCK, trials - b * _BLOCK)
        # the variates are released once their gains are formed, before the
        # reduction
        return reduce(link_gains(*(side[:n] for side in stream.draw_block(ant, b))))
    return _block_map(task, range(blocks), blocks)


def _heads(gains, trials: int):
    """The LinkGains blocks of gains, a pass at least `trials` long, trimmed
    to its first `trials` draws."""
    left = trials
    for block in gains:
        yield block.head(left)
        left -= block.lam_a.size
        if left <= 0:
            return
    raise ConfigurationError(f"the given gains hold {trials - left} draws, "
                             f"fewer than trials={trials}")


def _ratio(num, den, n1: float, out=None):
    """num / den, into out if given (an array of the broadcast shape).  With
    the noise term (n1 = 1) every denominator is positive; without it,
    0/0 -> 0 covers the all-zero-channel corner of the lower-bound form."""
    if n1:
        return np.divide(num, den, out=out)
    if out is None:
        out = np.zeros(np.broadcast_shapes(np.shape(num), np.shape(den)))
    else:
        out.fill(0.0)
    np.divide(num, den, out=out, where=den > 0)
    return out


def end_to_end_snrs(p: Protocol, gains: LinkGains, pw: PowerProfile,
                    w: Optional[WeightPair] = None,
                    coeffs: Optional[CoefficientSet] = None,
                    snr_form: str = "exact"):
    """End-to-end received SNRs (g_arb, g_bra) for one protocol at the
    LinkGains of a batch of draws and the average link SNRs pw.

    Given a CoefficientSet, the unified form, the analytic engines' law
    with its noise term: lambda_s lambda_f / (k_f lambda_s + k_s lambda_f
    + n1 kappa) with each direction's (k_s, k_f, kappa) of
    `analysis.direction_scales`.  Without one, the exact two-branch sums,
    which only the dual-reception protocols have.  snr_form "lower" drops
    the noise term from every denominator (n1 = 0), giving the analytically
    tractable lower-bound SNRs; the shared sum makes them at least the
    exact ones, draw by draw.
    """
    if snr_form not in ("exact", "lower"):
        raise ConfigurationError(f"snr_form must be 'exact' or 'lower', got {snr_form!r}")
    n1 = 1.0 if snr_form == "exact" else 0.0
    if coeffs is not None:
        # n1 = 0 drops kappa rather than scale it: 0 times an infinite kappa is nan
        return tuple(_ratio(lam_s * lam_f, k_f * lam_s + k_s * lam_f + (kappa if n1 else 0.0), n1)
                     for (k_s, k_f, kappa), lam_s, lam_f in zip(
                         direction_scales(coeffs, pw), (gains.lam_a, gains.lam_b),
                         (gains.lam_b, gains.lam_a)))
    if not p.dual_reception:
        raise ConfigurationError(f"{p.value} has a single reception; its end-to-end SNRs "
                                 f"need a CoefficientSet")
    if p is Protocol.SECOND_THREE_SLOT:
        a2 = b2 = 1.0
    else:
        if w is None:
            raise ConfigurationError(f"{p.value} requires a WeightPair")
        a2, b2 = w.alpha ** 2, w.beta ** 2
    arb1, arb2, bra1, bra2 = _dual_branches(gains, pw, a2, b2, n1)
    return arb1 + arb2, bra1 + bra2


def _dual_branches(gains: LinkGains, pw: PowerProfile, a2, b2, n1: float = 1.0,
                   out=(None,) * 4):
    """Primary (matched) and secondary (non-matched) branch SNRs per
    direction of a dual-reception protocol with squared relay weights a2 and
    b2, (arb1, arb2, bra1, bra2): w2 g_src (g_far/2) / (a2 g_ar + b2 g_br +
    g_far/2 + n1) with w2 g_src = a2 g_ar, a2 g_ar, b2 g_br, b2 g_br and
    g_far = g_rb, g_rb_x, g_ra, g_ra_x.  The gains are scaled by a2 rho_ar,
    b2 rho_br and rho/2, so with a2 and b2 powers of two the values are
    those on g = rho lam bit for bit.  n1 is the unit noise term of each
    denominator, 0 for the lower-bound form.  out, if given, is four arrays
    of the draws' shape that receive them."""
    src_a, src_b = a2 * pw.rho_ar * gains.lam_a, b2 * pw.rho_br * gains.lam_b
    half_rb, half_ra = 0.5 * pw.rho_rb, 0.5 * pw.rho_ra
    base = src_a + src_b
    return tuple(_ratio(src * far, base + far + n1, n1, row) for src, far, row in zip(
        (src_a, src_a, src_b, src_b), (half_rb * gains.lam_b, half_rb * gains.lam_b_x,
                                       half_ra * gains.lam_a, half_ra * gains.lam_a_x), out))


def _q_sqrt2(x):
    """Q(sqrt(2 x)) = erfc(sqrt(x)) / 2."""
    return 0.5 * erfc(np.sqrt(x))


def _sampler_coeffs(p: Protocol, ant: AntennaConfig, pw: PowerProfile,
                    w: Optional[WeightPair]) -> Optional[CoefficientSet]:
    """The CoefficientSet that the samplers pass to end_to_end_snrs: None
    for a dual-reception protocol, whose exact two-branch sums need none,
    the unified form's otherwise."""
    return None if p.dual_reception else coefficient_set(p, ant, pw, w)


def sample_end_to_end_snrs(p: Protocol, ant: AntennaConfig, pw: PowerProfile,
                           w: Optional[WeightPair] = None, snr_form: str = "exact",
                           trials: int = 100_000, seed: int = 12345):
    """Arrays of (g_arb, g_bra) over Monte-Carlo trials: the exact two-branch
    sums for the dual-reception protocols, the unified form otherwise."""
    coeffs = _sampler_coeffs(p, ant, pw, w)
    arb, bra = zip(*_gain_blocks(ant, trials, seed, reduce=lambda gains: end_to_end_snrs(
        p, gains, pw, w, coeffs, snr_form)))
    return np.concatenate(arb), np.concatenate(bra)


class SweepPoint(NamedTuple):
    """One sum-BER point of a Monte-Carlo sweep; mod defaults to the
    protocol's modulation."""

    protocol: Protocol
    power: PowerProfile
    weights: Optional[WeightPair] = None
    mod: Optional[Modulation] = None


def semi_analytic_sweep(points, ant: AntennaConfig, trials: int = 100_000,
                        seed: int = 12345, snr_form: str = "exact",
                        gains=None) -> list[BerEstimate]:
    """Sum-BER estimates of every SweepPoint on the same channel draws.

    Each estimate is the sample average over channel draws of the exact
    conditional error rate a Q(sqrt(2 b g)) summed over both directions,
    scaled by 1/log2(M).  Averaging the conditional error rate needs no
    symbol-level detection and has far lower variance than bit counting.

    Blocks are the outer loop: each is drawn once, and every
    point is evaluated on its power-free gains, so a point's estimate equals
    its one-point estimate bit for bit.  Each block is reduced to each
    point's (sum y, sum (y/s)^2, s) with np.sum, s the smallest power of two
    above the block's largest y, by one task on a worker thread
    (`_gain_blocks`), and the block partials are combined in block order
    with math.fsum (`_mean_estimate`), so results depend only on (seed, trials), not on how
    blocks are scheduled or on the number of workers.

    gains, if given, are the LinkGains blocks of a pass over the seed's
    stream, made already by the caller; the estimates read their first
    `trials` draws, which equal the drawn ones bit for bit, and a pass
    shorter than `trials` is a ConfigurationError.  By default the draws
    are made here.
    """
    evals = []
    for p, pw, w, mod in points:
        if mod is None:
            mod = protocol_modulation(p)
        evals.append((p, pw, w, _sampler_coeffs(p, ant, pw, w), mod.ceiling, mod.b))

    def reduce(block):
        # per point: (sum y, sum (y/s)^2, s) of the block
        part = []
        for p, pw, w, coeffs, scale, b in evals:
            g_arb, g_bra = end_to_end_snrs(p, block, pw, w, coeffs, snr_form)
            y = scale * (_q_sqrt2(b * g_arb) + _q_sqrt2(b * g_bra))
            s = math.ldexp(1.0, math.frexp(np.max(y))[1])
            z = y / s
            part.append((np.sum(y), np.sum(np.square(z, out=z)), s))
        return part
    parts = zip(*_gain_blocks(ant, trials, seed, gains, reduce))
    return [_mean_estimate(part, trials) for part in parts]


def _mean_estimate(part, trials: int) -> BerEstimate:
    """The mean and its standard error from the blocks' (sum y, sum (y/s)^2,
    s).  The sums of squares are taken to the largest s and the variance is
    formed there, so a mean far below 1e-154, whose plain y^2 underflow,
    keeps its standard error; every factor is a power of two, so elsewhere
    the result is that of the plain sums bit for bit."""
    mean = math.fsum(s for s, _, _ in part) / trials
    top = max(s for _, _, s in part)
    total_sq = math.fsum(sq * (s / top) ** 2 for _, sq, s in part)
    scaled = mean / top
    var = max(0.0, (total_sq - trials * scaled * scaled) / (trials - 1))
    return BerEstimate(mean=mean, std_error=top * math.sqrt(var / trials), trials=trials)


def _solve_psd(a: list, bs: list, most: int):
    """The solutions x of a x = b for each b in bs, for a symmetric positive
    semi-definite a (lists of floats), by Cholesky in Python floats, and the
    number of indices that enter.  Pivots are taken in index order, at most
    `most` of them; an index past those, or whose pivot falls to 1e-9 of its
    diagonal entry (a variable that the earlier ones span), gets x = 0."""
    p = len(a)
    low = [[0.0] * p for _ in range(p)]
    rank = 0
    for j in range(p):
        pivot = a[j][j] - math.fsum(v * v for v in low[j][:j])
        if rank == most or pivot <= 1e-9 * a[j][j]:
            continue        # row and column j of low stay 0
        rank += 1
        low[j][j] = math.sqrt(pivot)
        for i in range(j + 1, p):
            low[i][j] = (a[i][j] - math.fsum(u * v for u, v in zip(low[i][:j], low[j][:j]))) / low[j][j]
    used = [i for i in range(p) if low[i][i]]
    xs = []
    for b in bs:
        y = [0.0] * p
        for i in used:
            y[i] = (b[i] - math.fsum(low[i][k] * y[k] for k in range(i))) / low[i][i]
        x = [0.0] * p
        for i in reversed(used):
            x[i] = (y[i] - math.fsum(low[k][i] * x[k] for k in range(i + 1, p))) / low[i][i]
        xs.append(x)
    return xs, rank


def estimate_d_factors(ant: AntennaConfig, pw: PowerProfile, trials: int = 1_000_000,
                       seed: int = 12345, return_std_errors: bool = True, gains=None):
    """Dual-reception factors d = 1 + E[x2]/E[x1] for both dual-reception
    protocols and both directions, x1 the primary (matched) and x2 the
    secondary (non-matched) branch SNR, and their standard errors, as
    (DFactors, (se_arb_3, se_bra_3, se_arb_4, se_bra_4)).
    return_std_errors is ignored: the standard errors are always returned,
    and the argument stays only because perfbench/make_reference.py
    passes it.

    The weighted protocol is evaluated at balanced weights; the ratio is
    insensitive to the average SNRs.  With one relay antenna every factor is
    exactly 2 with standard error 0, and nothing is drawn.

    Each mean is a regression control-variate estimate.  The six controls C
    have exactly known means mu: the cross gains lam_a_x and lam_b_x are
    Gamma(m_a) and Gamma(m_b) (the beamformer of one side is independent of
    the other side's channel), so E lam_x = m and E ln lam_x = psi(m); and
    E lam_a, E lam_b is the mean of the top eigenvalue of an m_r x m_a and
    an m_r x m_b Wishart matrix (`lowerbound.mean_largest_eigenvalue`).
    With sample means, sample covariances S and n trials,

        m_j = mean(x_j) - beta_j' (mean(C) - mu),  beta_j = S_CC^-1 S_Cj,
        d = 1 + m_2 / m_1,
        SE = sqrt(s_e^2 / n) / m_1,
        s_e^2 = (S_zz - S_zC S_CC^-1 S_Cz) (n - 1) / (n - 1 - p),

    where z = x2 - (m_2 / m_1) x1 is the ratio's delta-method residual and
    p the number of controls that enter: those that the earlier ones do not
    span in the sample, at most (n - 2) // 10, one per ten trials
    (`_solve_psd`).  A ratio m_2 / m_1 outside (0, 1], where the plain
    ratio of sums always lies, is replaced by that plain ratio and its
    delta-method SE (p = 0).  Each block contributes the sums of x1, x2 and
    C - mu and of the products that these formulas read, from one task on
    a worker thread (`_gain_blocks`); the block sums are combined in block
    order with math.fsum, so results depend only on (seed, trials), not on
    the number of workers.  The task writes the rows x1, x2 and C - mu and
    a row of ones into one array (the module docstring says why one) and
    takes its Gram matrix, rows @ rows.T, in one BLAS product: each row's
    sum is its entry against the ones, each product's sum another entry.
    Each entry lies within the dot product's rounding bound n eps
    sum |x_i x_j|, and with OpenBLAS its bits were the same at 1, 2 and 4
    BLAS threads.  gains, if given, replaces the draw as in
    semi_analytic_sweep: the first `trials` draws of a pass at least that
    long (unread with one relay antenna).  Give it a list of blocks made
    already; a lazy `_gain_blocks` pass would run its pool under this one.
    Where the Wishart mean cannot be formed (14 antennas a side) the two
    top-eigenvalue controls are left out; the four Gamma controls keep
    their exact means at any size.  Where a sum overflows (from about
    1500 dB) it raises NumericalError.
    """
    require_trials(trials)
    if ant.m_r == 1:
        # a scalar relay weight: the secondary branch equals the primary
        return MR1_DFACTORS, (0.0, 0.0, 0.0, 0.0)
    try:
        top = [mean_largest_eigenvalue(ant.m_r, m) for m in (ant.m_a, ant.m_b)]
    except NumericalError:
        # past the Wishart kernel's range the two top-eigenvalue controls
        # are zero rows, which _solve_psd leaves out
        top = None
    mu = np.array([ant.m_a, ant.m_b, digamma(ant.m_a), digamma(ant.m_b), *(top or (0.0, 0.0))])
    # rows: x1, x2 of arb and bra of the unweighted, then of the balanced
    # weighted protocol, then C - mu; per block, the sums of the rows and of
    # the products that the estimate reads: each x with C, C with C, and
    # each x1, x2 pair with itself
    nrow = len(mu) + 8
    pairs = [(i, j) for i in range(nrow) for j in range(i, nrow)
             if j >= 8 or j == i or (j == i + 1 and i % 2 == 0)]

    def reduce(block):
        # one array per task: the rows and a row of ones, whose Gram matrix
        # holds every sum and product sum; a sum that overflows (from about
        # 1500 dB) is reported below
        with np.errstate(over="ignore", invalid="ignore"):
            rows = np.empty((nrow + 1, block.lam_a.size))
            _dual_branches(block, pw, 1.0, 1.0, out=rows[0:4])
            _dual_branches(block, pw, 0.5, 0.5, out=rows[4:8])
            ctrl = rows[8:nrow]
            ctrl[0], ctrl[1] = block.lam_a_x, block.lam_b_x
            ctrl[4], ctrl[5] = (block.lam_a, block.lam_b) if top else (0.0, 0.0)
            np.log(block.lam_a_x, out=ctrl[2])
            np.log(block.lam_b_x, out=ctrl[3])
            ctrl -= mu[:, None]
            rows[nrow] = 1.0
            # the gains are released before the product
            del block
            gram = (rows @ rows.T).tolist()
            return [gram[i][nrow] for i in range(nrow)] + [gram[i][j] for i, j in pairs]
    # drawn before the try: too short a `gains` raises a ConfigurationError, a ValueError
    blocks = list(_gain_blocks(ant, trials, seed, gains, reduce))
    try:
        totals = [math.fsum(col) for col in zip(*blocks)]
    except (OverflowError, ValueError):     # a total past the largest double, or inf - inf
        totals = [math.nan]
    if not all(map(math.isfinite, totals)):
        raise NumericalError("the dual-reception factors cannot be estimated at this SNR: the "
                             "branch SNRs or their squares pass the largest double")
    mean = [t / trials for t in totals[:nrow]]
    cov = [[0.0] * nrow for _ in range(nrow)]
    for (i, j), t in zip(pairs, totals[nrow:]):
        cov[i][j] = cov[j][i] = (t - trials * mean[i] * mean[j]) / (trials - 1)
    ctrl = range(8, nrow)
    s_cc = [[cov[i][j] for j in ctrl] for i in ctrl]
    # at most one control per ten trials: more, at a few trials, fit the
    # residual away and leave its variance far below the plain one
    fitted = _solve_psd(s_cc, [[cov[i][j] for i in ctrl] for j in range(8)], (trials - 2) // 10)
    plain = ([[0.0] * len(ctrl)] * 8, 0)

    def ratio_and_se(j, beta, rank):
        # x1 is row j, x2 row j + 1
        m_1, m_2 = (mean[k] - math.fsum(b * mean[i] for b, i in zip(beta[k], ctrl))
                    for k in (j, j + 1))
        r = m_2 / m_1
        s_zz = cov[j + 1][j + 1] - 2.0 * r * cov[j][j + 1] + r * r * cov[j][j]
        explained = math.fsum((cov[i][j + 1] - r * cov[i][j]) * (b2 - r * b1)
                              for i, b1, b2 in zip(ctrl, beta[j], beta[j + 1]))
        var = max(0.0, s_zz - explained) * (trials - 1) / (trials - 1 - rank)
        return r, math.sqrt(var / trials) / abs(m_1)

    def estimate(j):
        # x2 <= x1 in every draw, so the plain ratio lies in (0, 1]; with a
        # handful of trials the fitted controls can carry it out of there
        r, se = ratio_and_se(j, *fitted)
        return (r, se) if 0.0 < r <= 1.0 else ratio_and_se(j, *plain)

    r, se = zip(*(estimate(j) for j in range(0, 8, 2)))
    return DFactors(*(1.0 + x for x in r)), se
