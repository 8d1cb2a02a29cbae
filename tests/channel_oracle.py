"""Test-only oracles for the Monte-Carlo engine's link gains.

`channel_gains` samples the gains the direct way: complex Rayleigh channel
matrices, their relay-side Grams, LAPACK's top eigenpairs (the matched
beamformers) and the cross gains through the opposite side's beamformer.
`tridiagonal_top_mp` gives a symmetric tridiagonal's top eigenvalue, its
eigenvector's squared first component and the weighted mean of the other
eigenvalues in mpmath, for inputs on which double-precision LAPACK loses
those weights."""

import math

import mpmath as mp
import numpy as np


def channel_gains(m_a: int, m_r: int, m_b: int, trials: int, seed: int) -> dict:
    """{lam_a, lam_b, lam_a_x, lam_b_x} of `trials` draws of unit-variance
    complex Gaussian m_r x m_a and m_r x m_b channels."""
    rng = np.random.default_rng(seed)
    scale = 1.0 / math.sqrt(2.0)
    h_ar, h_br = ((rng.standard_normal((trials, m_r, m))
                   + 1j * rng.standard_normal((trials, m_r, m))) * scale for m in (m_a, m_b))
    gram, lam, vec = [], [], []
    for h in (h_ar, h_br):
        gram.append(h @ h.conj().transpose(0, 2, 1))
        # eigh orders eigenvalues ascending
        w, v = np.linalg.eigh(gram[-1])
        lam.append(w[:, -1])
        vec.append(v[:, :, -1])

    def cross(w, f):
        # |H^H f|^2 = f^H W f, W = H H^H: with one relay antenna f = 1 and
        # this is the matched gain W, bit for bit
        return np.einsum("nr,nrs,ns->n", f.conj(), w, f).real
    return {"lam_a": lam[0], "lam_b": lam[1],
            "lam_a_x": cross(gram[0], vec[1]), "lam_b_x": cross(gram[1], vec[0])}


def tridiagonal_top_mp(a, b2, dps: int = 40) -> tuple:
    """(lam, q2, rest) of the symmetric tridiagonal with diagonal a and
    squared off-diagonal b2, as floats: the top eigenvalue, the squared
    first component of its unit eigenvector, and the mean of the other
    eigenvalues weighted by their eigenvectors' squared first components."""
    n = len(a)
    with mp.workdps(dps):
        t = mp.zeros(n, n)
        for i in range(n):
            t[i, i] = mp.mpf(float(a[i]))
        for i in range(n - 1):
            t[i, i + 1] = t[i + 1, i] = mp.sqrt(mp.mpf(float(b2[i])))
        w, v = mp.eigsy(t)
        top = max(range(n), key=lambda j: w[j])
        others = [j for j in range(n) if j != top]
        weight = sum(v[0, j] ** 2 for j in others)
        rest = sum(w[j] * v[0, j] ** 2 for j in others) / weight
        return float(w[top]), float(v[0, top] ** 2), float(rest)
