"""Monte-Carlo engine: Rayleigh channel draws, power-free link gains from
the top eigenpair of each side's Gram matrix, exact per-realization
end-to-end SNRs for each protocol, semi-analytic sum-BER estimation, and
the dual-reception mean-ratio factors.

Trials are drawn from counter-partitioned Philox substreams in fixed-size
blocks, so results depend only on (seed, trial index) and are identical no
matter how trials are batched or distributed.  One generator,
`_gain_blocks`, draws each block, trims it to the trial count and
decomposes it; every sampler iterates it, or takes blocks that a longer
pass over the same stream decomposed, trimmed with `LinkGains.head`.  A
sweep evaluates every point of the sweep on each block's gains.  The protocol picks the
SNR form: the exact two-branch sums for dual reception, the unified
three-constant form otherwise.

The Gram entries are summed straight from the channel rows.  The top
eigenpair of each m_r x m_r Gram G takes its route from m_r alone, never
from a setting:

- m_r = 2: a closed form.
- m_r = 3, 4: Newton on det(x I - G), whose coefficients are sums of
  principal minors, from the Samuelson upper bound; the eigenvector is the
  column of adj(G - x I) through its diagonal entry of largest modulus, x
  is polished once by that column's Rayleigh quotient, and the column is
  taken again at the polished value (after Kopp, arXiv:physics/0610206,
  for 3x3).  A row is accepted only if Newton converged, the column is
  longer than _ADJ_FLOOR = 1e-3 times lam^(m-1) (shorter means a
  near-degenerate top eigenvalue), and |G v - lam v| <= _RESIDUAL_ULPS eps
  m lam with _RESIDUAL_ULPS = 4, a backward error like LAPACK's; each
  other row is decomposed by LAPACK (`np.linalg.eigh`).
- m_r >= 5: LAPACK.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import NamedTuple, Optional

import numpy as np
from scipy.special import digamma, erfc, gammainccinv

from .errors import ConfigurationError
from .lowerbound import _gauss_legendre, link_cdf_pdf
from .scenario import (AntennaConfig, CoefficientSet, DFactors, Modulation,
                       PowerProfile, Protocol, WeightPair, coefficient_set,
                       protocol_modulation)

_BLOCK = 1 << 14
# the fewest trials of the Monte-Carlo pre-pass that estimates the
# dual-reception factors for the analytic rows (sweep, gaps, beta, validate):
# two blocks, whose control-variate standard errors are below those of a
# plain estimate from 200 000 draws
D_FACTOR_TRIALS = 1 << 15
# the 3x3 and 4x4 top-eigenpair kernel: rows per sub-block, Newton step
# cap, and its guard's adjugate-column floor and residual bound in units
# of eps m lam (see the module docstring)
_EIG_ROWS = 1 << 11
_NEWTON_MAX = 64
_ADJ_FLOOR = 1e-3
_RESIDUAL_ULPS = 4.0
_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class InstantaneousSnrs:
    """Per-realization link SNRs.  The x-suffixed entries use the opposite
    direction's transmit beamformer (non-matched reception)."""

    g_ar: np.ndarray
    g_br: np.ndarray
    g_ra: np.ndarray
    g_rb: np.ndarray
    g_ra_x: np.ndarray
    g_rb_x: np.ndarray


@dataclass(frozen=True)
class BerEstimate:
    mean: float
    std_error: float
    trials: int


class ChannelStream:
    """Counter-based random stream: block b of trials is generated from a
    Philox generator keyed by the seed with the block index in the top
    counter word, so any trial's channels are a pure function of
    (seed, index)."""

    def __init__(self, seed: int):
        self.seed = int(seed)
        if not 0 <= self.seed < 1 << 128:     # a Philox key
            raise ConfigurationError(f"seed must be in [0, 2**128), got {seed!r}")

    def _rng(self, block: int) -> np.random.Generator:
        return np.random.Generator(np.random.Philox(key=self.seed, counter=[0, 0, 0, block]))

    def draw_block(self, ant: AntennaConfig, block: int) -> tuple[np.ndarray, np.ndarray]:
        """All channel matrices of one block, shapes (B, m_r, m_a) and (B, m_r, m_b).

        The stream fills the A side's real parts, its imaginary parts, then
        the B side's, each scaled by 1/sqrt(2) into its complex array."""
        rng = self._rng(block)
        scale = 1.0 / math.sqrt(2.0)
        buf = np.empty(_BLOCK * ant.m_r * max(ant.m_a, ant.m_b))
        out = []
        for m in (ant.m_a, ant.m_b):
            h = np.empty((_BLOCK, ant.m_r, m), dtype=complex)
            normals = buf[:h.size].reshape(h.shape)
            for part in (h.real, h.imag):
                rng.standard_normal(out=normals)
                np.multiply(normals, scale, out=part)
            out.append(h)
        return tuple(out)


def _gram(h: np.ndarray) -> np.ndarray:
    """Gram matrices h h^H of a batch of shape (B, m, k), each entry summed
    straight from two rows of h, _EIG_ROWS draws at a time.  The result is
    a (B, m, m) view of an entry-major array, so that each entry's B values
    are contiguous."""
    m = h.shape[1]
    g = np.empty((m, m, h.shape[0]), dtype=complex)
    for s in range(0, h.shape[0], _EIG_ROWS):
        rows = h[s:s + _EIG_ROWS].transpose(1, 2, 0)
        part = g[:, :, s:s + _EIG_ROWS]
        for i in range(m):
            part[i, i] = sum(x.real * x.real + x.imag * x.imag for x in rows[i])
            for j in range(i + 1, m):
                part[i, j] = sum(x * y.conj() for x, y in zip(rows[i], rows[j]))
                np.conjugate(part[i, j], out=part[j, i])
    return g.transpose(2, 0, 1)


def _top_eig(gram: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Largest eigenvalue and a unit eigenvector of each Hermitian matrix
    in a batch of shape (B, m, m); for m = 3 and 4 the matrices must be
    positive semi-definite, as Grams are.

    m = 2 takes the closed form.  m = 3 and 4 take the guarded kernel: the
    characteristic polynomial (`_char_poly`), its top root (`_top_root`),
    and the eigenvector from the adjugate with the guard (`_top_eigvec`),
    the first and last in sub-blocks of _EIG_ROWS rows, which bounds their
    temporaries.  A row goes to LAPACK's `eigh` when Newton did not
    converge within _NEWTON_MAX steps, its adjugate column is no longer
    than _ADJ_FLOOR lam^(m-1), or its residual |G v - lam v| exceeds
    _RESIDUAL_ULPS eps m lam; so does every matrix with m >= 5.  Each row's
    result depends on that row alone.
    """
    m = gram.shape[-1]
    if m == 2:
        return _top_eig_2x2(gram)
    if m > 4:
        # eigh orders eigenvalues ascending
        w, v = np.linalg.eigh(gram)
        return w[:, -1], v[:, :, -1]
    n = gram.shape[0]
    entries = gram.transpose(1, 2, 0)
    parts = [slice(s, s + _EIG_ROWS) for s in range(0, n, _EIG_ROWS)]
    coef = np.empty((m + 1, n))
    lam = np.empty(n)
    vec = np.empty((n, m), dtype=complex)
    # a degenerate row divides by zero on its way to failing its guard
    with np.errstate(divide="ignore", invalid="ignore"):
        for part in parts:
            coef[:, part] = _char_poly(entries[:, :, part])
        root, ok = _top_root(coef[:m], coef[m])
        for part in parts:
            lam[part], vec[part], held = _top_eigvec(entries[:, :, part], root[part])
            ok[part] &= held
    rest = np.flatnonzero(~ok)
    if rest.size:
        w, v = np.linalg.eigh(gram[rest])
        lam[rest], vec[rest] = w[:, -1], v[:, :, -1]
    return lam, vec


def _minor(a, rows: tuple, cols: tuple, memo: dict):
    """Determinant of the submatrix of a (a list of rows of equal-shape
    arrays) on the given rows and columns, in that order, by Laplace
    expansion along the last row.  Every minor is formed once per memo, so
    minors on the same rows share their smaller minors."""
    key = (rows, cols)
    if key not in memo:
        if len(rows) == 1:
            memo[key] = a[rows[0]][cols[0]]
        else:
            # the last row's k-th term has the sign (-1)^(len - 1 + k)
            val = None
            for k, c in enumerate(cols):
                term = a[rows[-1]][c] * _minor(a, rows[:-1], cols[:k] + cols[k + 1:], memo)
                val = term if k == 0 else (val - term if k % 2 else val + term)
            memo[key] = val if len(cols) % 2 else -val
    return memo[key]


def _principal_minor(diag, q, r, s):
    """Principal minor on the index tuple s (at most 3 long) of a Hermitian
    matrix with real diagonal diag, squared off-diagonal moduli q[i, j] and
    cubic terms r[i, j, k] = 2 Re(m_ij m_jk m_ki)."""
    if len(s) == 1:
        return diag[s[0]]
    if len(s) == 2:
        return diag[s[0]] * diag[s[1]] - q[s]
    i, j, k = s
    return (diag[i] * (diag[j] * diag[k] - q[j, k]) - diag[j] * q[i, k]
            - diag[k] * q[i, j] + r[s])


def _top_root(c: np.ndarray, fro2: np.ndarray):
    """Largest root of x^m - c1 x^(m-1) + c2 x^(m-2) - ... (all roots real
    and non-negative) and whether Newton converged, per row.

    Newton starts from the Samuelson bound c1/m + sqrt((m-1)/m (fro2 -
    c1^2/m)), which no root exceeds when fro2 is the sum of the squared
    roots, and descends onto the root.  A row stops, keeping its iterate,
    at the first step that is no shorter than the one before (rounding has
    taken over); a row still stepping after _NEWTON_MAX steps has not
    converged.
    """
    m = len(c)
    # signed so that p(x) = x^m + coef[0] x^(m-1) + ... + coef[m-1]
    coef = c * ((-1.0) ** np.arange(1, m + 1))[:, None]
    x = c[0] / m + np.sqrt((m - 1) / m * np.maximum(fro2 - c[0] * c[0] / m, 0.0))
    root = x.copy()
    done = np.zeros(x.shape, dtype=bool)
    live = np.arange(x.size)
    prev = np.full(x.shape, np.inf)
    for _ in range(_NEWTON_MAX):
        # Horner for p and p'
        p, dp = x + coef[0], 1.0
        for k in range(1, m):
            dp = dp * x + p
            p = p * x + coef[k]
        step = p / dp
        size = np.abs(step)
        go = size < prev
        if go.all():
            x, prev = x - step, size
            continue
        stop = ~go
        root[live[stop]] = x[stop]
        done[live[stop]] = True
        live, x, prev, coef = live[go], (x - step)[go], size[go], coef[:, go]
        if not live.size:
            break
    return root, done


def _hermitian_terms(g: np.ndarray):
    """Real diagonal d, squared off-diagonal moduli q[i, j] and cubic terms
    r[i, j, k] = 2 Re(g_ij g_jk g_ki) of an entry-major batch g of shape
    (m, m, n), the parts of its principal minors up to 3x3."""
    idx = range(g.shape[0])
    d = [g[i, i].real.copy() for i in idx]
    q = {(i, j): g[i, j].real ** 2 + g[i, j].imag ** 2 for i, j in combinations(idx, 2)}
    r = {(i, j, k): 2.0 * (g[i, j] * g[j, k] * g[k, i]).real
         for i, j, k in combinations(idx, 3)}
    return d, q, r


def _char_poly(g: np.ndarray) -> np.ndarray:
    """Coefficients c1..cm of det(x I - G) = x^m - c1 x^(m-1) + c2 x^(m-2)
    - ..., c_k the sum of the k x k principal minors of G, and the squared
    Frobenius norm of G, as rows of an (m + 1, n) array, for an entry-major
    batch g of shape (m, m, n), m = 3 or 4."""
    m = g.shape[0]
    idx = tuple(range(m))
    d, q, r = _hermitian_terms(g)
    out = [sum(_principal_minor(d, q, r, s) for s in combinations(idx, k))
           for k in range(1, 4)]
    if m == 4:
        out.append(_minor(g, idx, idx, {}).real)
    out.append(sum(di * di for di in d) + 2.0 * sum(q.values()))
    return np.array(out)


def _top_eigvec(g: np.ndarray, x: np.ndarray):
    """Top eigenpair (lam, v) of each Hermitian positive semi-definite
    matrix G of an entry-major batch of shape (m, m, n), m = 3 or 4, given
    its top eigenvalue x to a few ulps, and whether the row's guard holds.

    At the top eigenvalue every column of adj(G - x I) is a multiple of the
    eigenvector, the one through the diagonal entry of largest modulus the
    longest.  Its Rayleigh quotient is the returned lam, and the same
    column taken again at that lam, normalised, is v.  The guard holds when
    the column is longer than _ADJ_FLOOR lam^(m-1) (shorter means a
    near-degenerate top eigenvalue) and the residual |G v - lam v| is at
    most _RESIDUAL_ULPS eps m lam, a backward error like LAPACK's.
    """
    m, n = g.shape[0], g.shape[2]
    idx = tuple(range(m))
    d, q, r = _hermitian_terms(g)
    # adj(G - x I)_jj is the principal minor of G - x I without index j
    diag = [di - x for di in d]
    adj_diag = np.array([_principal_minor(diag, q, r, idx[:j] + idx[j + 1:]) for j in idx])
    # each row's indices cycled to start at its longest column, so that
    # the column wanted is column 0 of the reordered matrix
    order = (np.argmax(np.abs(adj_diag), axis=0) + np.arange(m)[:, None]) % m
    rows = np.arange(n)
    gp = g[order[:, None], order[None, :], rows]

    def column(shift):
        # column 0 of the Hermitian adj: (-1)^i times the minor of
        # G - shift I without row 0 and column i
        a = [[np.subtract(gp[i, i], shift) if i == j else gp[i, j] for j in idx] for i in idx]
        memo = {}
        col = [_minor(a, idx[1:], idx[:i] + idx[i + 1:], memo) for i in idx]
        return [-c if i % 2 else c for i, c in enumerate(col)]

    def times_g(v):
        return [sum(gp[i, j] * v[j] for j in idx) for i in idx]

    col = column(x)
    gc = times_g(col)
    lam = (sum((c.conj() * y).real for c, y in zip(col, gc))
           / sum(c.real ** 2 + c.imag ** 2 for c in col))
    col = column(lam)
    norm2 = sum(c.real ** 2 + c.imag ** 2 for c in col)
    scale = 1.0 / np.sqrt(norm2)
    vp = [c * scale for c in col]
    res2 = 0.0
    for vi, y in zip(vp, times_g(vp)):
        e = y - lam * vi
        res2 = res2 + e.real ** 2 + e.imag ** 2
    tol = _RESIDUAL_ULPS * _EPS * m * lam
    ok = (norm2 > (_ADJ_FLOOR * lam ** (m - 1)) ** 2) & (res2 <= tol * tol)
    v = np.empty((n, m), dtype=complex)
    v[rows, order] = vp
    return lam, v, ok


def _top_eig_2x2(gram: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # G = [[a, b], [conj(b), d]] has top eigenvalue (a+d)/2 + r with
    # r = sqrt(h^2 + |b|^2), h = (a-d)/2.  The eigenvector's entry on the
    # larger diagonal entry's axis is t = |h| + r (= lam - min(a, d)), a sum
    # of non-negative terms: [t, conj(b)] if a >= d, else [b, t].
    a = gram[:, 0, 0].real
    d = gram[:, 1, 1].real
    b = gram[:, 0, 1]
    h = 0.5 * (a - d)
    b2 = b.real * b.real + b.imag * b.imag
    r = np.sqrt(h * h + b2)
    lam = 0.5 * (a + d) + r
    # t == 0 only for G = a I (b == 0), where every vector is an eigenvector
    t = np.abs(h) + r
    t[t == 0.0] = 1.0
    norm = np.sqrt(t * t + b2)
    first = h >= 0.0
    v = np.empty(b.shape + (2,), dtype=complex)
    v[:, 0] = np.where(first, t, b) / norm
    v[:, 1] = np.where(first, b.conj(), t) / norm
    return lam, v


@dataclass(frozen=True)
class LinkGains:
    """Power-free link gains of a batch of channel draws: the top Gram
    eigenvalues of each side, lam_a and lam_b, and the cross gains lam_a_x
    and lam_b_x, received through the opposite side's matched beamformer.
    Every link SNR is one of them scaled by a link's average SNR."""

    lam_a: np.ndarray
    lam_b: np.ndarray
    lam_a_x: np.ndarray
    lam_b_x: np.ndarray

    def head(self, n: int) -> "LinkGains":
        """The gains of the first n draws."""
        return LinkGains(self.lam_a[:n], self.lam_b[:n], self.lam_a_x[:n], self.lam_b_x[:n])

    def snrs(self, pw: PowerProfile) -> InstantaneousSnrs:
        return InstantaneousSnrs(
            g_ar=pw.rho_ar * self.lam_a,
            g_br=pw.rho_br * self.lam_b,
            g_ra=pw.rho_ra * self.lam_a,
            g_rb=pw.rho_rb * self.lam_b,
            g_ra_x=pw.rho_ra * self.lam_a_x,
            g_rb_x=pw.rho_rb * self.lam_b_x,
        )


def link_gains_block(h_ar: np.ndarray, h_br: np.ndarray) -> LinkGains:
    """Vectorized link gains for a batch of channel draws, shapes
    (B, m_r, m_a) and (B, m_r, m_b)."""
    m_r = h_ar.shape[1]
    if m_r == 1:
        lam_a = np.sum(np.abs(h_ar[:, 0, :]) ** 2, axis=1)
        lam_b = np.sum(np.abs(h_br[:, 0, :]) ** 2, axis=1)
        # a single relay antenna has a scalar transmit weight, so the
        # non-matched reception coincides with the matched one
        return LinkGains(lam_a, lam_b, lam_a, lam_b)
    lam_a, f_ra = _top_eig(_gram(h_ar))
    lam_b, f_rb = _top_eig(_gram(h_br))
    # H_RA f_RB = H_AR^H f_RB, an (m_a,)-vector per draw
    proj_a = np.einsum("nra,nr->na", h_ar.conj(), f_rb)
    proj_b = np.einsum("nrb,nr->nb", h_br.conj(), f_ra)
    lam_a_x = np.sum(np.abs(proj_a) ** 2, axis=1)
    lam_b_x = np.sum(np.abs(proj_b) ** 2, axis=1)
    return LinkGains(lam_a, lam_b, lam_a_x, lam_b_x)


def _require_trials(trials: int) -> None:
    if trials < 1:
        raise ConfigurationError(f"trials must be >= 1, got {trials!r}")


def _gain_blocks(ant: AntennaConfig, trials: int, seed: int):
    """LinkGains of the first `trials` draws of the seed's stream, one per
    block, the last block trimmed to the trial count."""
    _require_trials(trials)
    stream = ChannelStream(seed)
    for b in range((trials + _BLOCK - 1) // _BLOCK):
        h_ar, h_br = stream.draw_block(ant, b)
        n = min(_BLOCK, trials - b * _BLOCK)
        yield link_gains_block(h_ar[:n], h_br[:n])


def _ratio(num, den):
    # 0/0 -> 0 covers the all-zero-channel corner in the lower-bound form
    num = np.asarray(num, dtype=float)
    den = np.asarray(den, dtype=float)
    out = np.zeros(np.broadcast_shapes(num.shape, den.shape))
    np.divide(num, den, out=out, where=den > 0)
    return out


def end_to_end_snrs(p: Protocol, s: InstantaneousSnrs,
                    w: Optional[WeightPair] = None,
                    mode: str = "unified",
                    coeffs: Optional[CoefficientSet] = None,
                    snr_form: str = "exact"):
    """End-to-end received SNRs (g_arb, g_bra) for one protocol.

    mode "unified" evaluates the three-constant form (coeffs required);
    mode "dual_reception" evaluates the exact two-branch sums and is valid
    only for the dual-reception protocols.  snr_form "lower" drops the unit
    noise term from every denominator, giving the analytically tractable
    lower-bound SNRs.
    """
    if snr_form not in ("exact", "lower"):
        raise ConfigurationError(f"snr_form must be 'exact' or 'lower', got {snr_form!r}")
    n1 = 1.0 if snr_form == "exact" else 0.0
    if mode == "unified":
        if coeffs is None:
            raise ConfigurationError("unified mode requires a CoefficientSet")
        g_arb = _ratio(coeffs.a_arb * s.g_ar * s.g_rb,
                       coeffs.b_arb * s.g_ar + coeffs.c_arb * s.g_rb + n1)
        g_bra = _ratio(coeffs.a_bra * s.g_br * s.g_ra,
                       coeffs.b_bra * s.g_br + coeffs.c_bra * s.g_ra + n1)
        return g_arb, g_bra
    if mode != "dual_reception":
        raise ConfigurationError(f"mode must be 'unified' or 'dual_reception', got {mode!r}")
    if not p.dual_reception:
        raise ConfigurationError(f"{p.value} has a single reception; dual_reception mode is undefined")
    if p is Protocol.SECOND_THREE_SLOT:
        a2 = b2 = 1.0
    else:
        if w is None:
            raise ConfigurationError(f"{p.value} requires a WeightPair")
        a2, b2 = w.alpha ** 2, w.beta ** 2
    arb1, arb2, bra1, bra2 = _dual_branches(s, a2, b2, n1)
    return arb1 + arb2, bra1 + bra2


def _dual_branches(s: InstantaneousSnrs, a2, b2, n1: float = 1.0):
    """Primary (matched) and secondary (non-matched) branch SNRs per
    direction of a dual-reception protocol with squared relay weights a2 and
    b2: (arb1, arb2, bra1, bra2).  n1 is the unit noise term of each
    denominator, 0 for the lower-bound form."""
    base = a2 * s.g_ar + b2 * s.g_br
    arb1 = _ratio(a2 * s.g_ar * (s.g_rb / 2), base + s.g_rb / 2 + n1)
    arb2 = _ratio(a2 * s.g_ar * (s.g_rb_x / 2), base + s.g_rb_x / 2 + n1)
    bra1 = _ratio(b2 * s.g_br * (s.g_ra / 2), base + s.g_ra / 2 + n1)
    bra2 = _ratio(b2 * s.g_br * (s.g_ra_x / 2), base + s.g_ra_x / 2 + n1)
    return arb1, arb2, bra1, bra2


def _q_vec(x):
    return 0.5 * erfc(np.sqrt(x / 2.0))


def _sampler_form(p: Protocol, ant: AntennaConfig, pw: PowerProfile,
                  w: Optional[WeightPair]):
    """(mode, coeffs) of end_to_end_snrs for the samplers: the exact
    two-branch sums for the dual-reception protocols, the unified form
    otherwise."""
    if p.dual_reception:
        return "dual_reception", None
    return "unified", coefficient_set(p, ant, pw, w)


def sample_end_to_end_snrs(p: Protocol, ant: AntennaConfig, pw: PowerProfile,
                           w: Optional[WeightPair] = None, snr_form: str = "exact",
                           trials: int = 100_000, seed: int = 12345):
    """Arrays of (g_arb, g_bra) over Monte-Carlo trials: the exact two-branch
    sums for the dual-reception protocols, the unified form otherwise."""
    mode, coeffs = _sampler_form(p, ant, pw, w)
    arb, bra = zip(*(end_to_end_snrs(p, gains.snrs(pw), w, mode, coeffs, snr_form)
                     for gains in _gain_blocks(ant, trials, seed)))
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

    Blocks are the outer loop: each is drawn and decomposed once, and every
    point is evaluated on its power-free gains, so a point's estimate equals
    its one-point estimate bit for bit.  Each block is reduced with np.sum
    and the block partials are combined with math.fsum, so results depend
    only on (seed, trials), not on how blocks are scheduled.

    gains, if given, are the LinkGains blocks of those draws, decomposed
    already by the caller; by default they are drawn.
    """
    _require_trials(trials)
    evals = []
    for p, pw, w, mod in points:
        if mod is None:
            mod = protocol_modulation(p)
        evals.append((p, pw, w, *_sampler_form(p, ant, pw, w),
                      mod.ceiling, 2.0 * mod.b))
    parts = [[] for _ in evals]     # per point: (sum y, sum y^2) of each block
    for block in _gain_blocks(ant, trials, seed) if gains is None else gains:
        for (p, pw, w, mode, coeffs, scale, two_b), part in zip(evals, parts):
            g_arb, g_bra = end_to_end_snrs(p, block.snrs(pw), w, mode, coeffs, snr_form)
            y = scale * (_q_vec(two_b * g_arb) + _q_vec(two_b * g_bra))
            part.append((np.sum(y), np.sum(y * y)))
    return [_mean_estimate(part, trials) for part in parts]


def _mean_estimate(part, trials: int) -> BerEstimate:
    mean = math.fsum(s for s, _ in part) / trials
    if trials > 1:
        total_sq = math.fsum(sq for _, sq in part)
        var = max(0.0, (total_sq - trials * mean * mean) / (trials - 1))
        se = math.sqrt(var / trials)
    else:
        se = 0.0
    return BerEstimate(mean=mean, std_error=se, trials=trials)


def _mean_top_eig(m: int, n: int) -> float:
    """Mean of the largest eigenvalue of an m x n complex Wishart matrix,
    int_0^inf (1 - F(u)) du with the determinant-form F of
    `lowerbound.link_cdf_pdf`, by 24-point Gauss-Legendre panels of width 4
    on [0, U].  1 - F lies below the Gamma(mn) tail of the trace, so the
    part past U is at most mn Q(mn + 1, U), which U sets to 1e-17."""
    k = m * n
    upper = gammainccinv(k + 1, 1e-17 / k)
    x, w = _gauss_legendre(24)
    left = np.arange(0.0, upper, 4.0)
    cdf, _ = link_cdf_pdf((left[:, None] + 2.0 * (x + 1.0)).ravel(), m, n)
    return math.fsum((1.0 - cdf) * np.tile(2.0 * w, left.size))


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
    an m_r x m_b Wishart matrix (`_mean_top_eig`).  With sample means,
    sample covariances S and n trials,

        m_j = mean(x_j) - beta_j' (mean(C) - mu),  beta_j = S_CC^-1 S_Cj,
        d = 1 + m_2 / m_1,
        SE = sqrt(s_e^2 / n) / m_1,
        s_e^2 = (S_zz - S_zC S_CC^-1 S_Cz) (n - 1) / (n - 1 - p),

    where z = x2 - (m_2 / m_1) x1 is the ratio's delta-method residual and
    p the number of controls that enter: those that the earlier ones do not
    span in the sample, at most n - 2 (`_solve_psd`).  Each block
    contributes the sums of x1, x2 and C - mu and of the products that
    these formulas read, each with np.sum; the block sums are combined with
    math.fsum, so results depend only on (seed, trials).  gains, if given, replaces the draw as in
    semi_analytic_sweep.
    """
    _require_trials(trials)
    if ant.m_r == 1:
        # a scalar relay weight: the secondary branch equals the primary
        return DFactors(2.0, 2.0, 2.0, 2.0), (0.0, 0.0, 0.0, 0.0)
    top = {m: _mean_top_eig(ant.m_r, m) for m in {ant.m_a, ant.m_b}}
    mu = np.array([ant.m_a, ant.m_b, digamma(ant.m_a), digamma(ant.m_b),
                   top[ant.m_a], top[ant.m_b]])
    # rows: x1, x2 of arb and bra of the unweighted, then of the balanced
    # weighted protocol, then C - mu; per block, the sums of the rows and of
    # the products that the estimate reads: each x with C, C with C, and
    # each x1, x2 pair with itself
    nrow = len(mu) + 8
    pairs = [(i, j) for i in range(nrow) for j in range(i, nrow)
             if j >= 8 or j == i or (j == i + 1 and i % 2 == 0)]
    parts = []
    for block in _gain_blocks(ant, trials, seed) if gains is None else gains:
        s = block.snrs(pw)
        controls = (block.lam_a_x, block.lam_b_x, np.log(block.lam_a_x),
                    np.log(block.lam_b_x), block.lam_a, block.lam_b)
        # released before the next block is decomposed, which sets the peak
        # memory of a 4x4x4 pass
        del block
        rows = (_dual_branches(s, 1.0, 1.0) + _dual_branches(s, 0.5, 0.5)
                + tuple(c - m for c, m in zip(controls, mu)))
        del s, controls
        parts.append([np.sum(v) for v in rows] + [np.sum(rows[i] * rows[j]) for i, j in pairs])
    totals = [math.fsum(col) for col in zip(*parts)]
    mean = [t / trials for t in totals[:nrow]]
    den = max(trials - 1, 1)
    cov = [[0.0] * nrow for _ in range(nrow)]
    for (i, j), t in zip(pairs, totals[nrow:]):
        cov[i][j] = cov[j][i] = (t - trials * mean[i] * mean[j]) / den
    ctrl = range(8, nrow)
    s_cc = [[cov[i][j] for j in ctrl] for i in ctrl]
    # at most trials - 2 controls, which leaves the residual a degree of freedom
    beta, rank = _solve_psd(s_cc, [[cov[i][j] for i in ctrl] for j in range(8)], trials - 2)
    adjusted = [mean[j] - math.fsum(b * mean[i] for b, i in zip(beta[j], ctrl))
                for j in range(8)]
    dof = max(trials - 1 - rank, 1)

    def ratio_and_se(j):
        # x1 is row j, x2 row j + 1
        r = adjusted[j + 1] / adjusted[j]
        s_zz = cov[j + 1][j + 1] - 2.0 * r * cov[j][j + 1] + r * r * cov[j][j]
        explained = math.fsum((cov[i][j + 1] - r * cov[i][j]) * (b2 - r * b1)
                              for i, b1, b2 in zip(ctrl, beta[j], beta[j + 1]))
        var = max(0.0, s_zz - explained) * den / dof
        return r, math.sqrt(var / trials) / abs(adjusted[j])

    r, se = zip(*(ratio_and_se(j) for j in range(0, 8, 2)))
    return DFactors(*(1.0 + x for x in r)), se
