"""Polyphase cross-spectral matrices on the normalized frequency circle.

Splitting a cyclostationary process into its per-phase subsequences yields a
jointly stationary vector process. Its M x M cross-spectral matrix at each
normalized frequency phi is assembled here, either from slot spectra
(discrete time) or from the cyclic spectral densities folded over the
sampling lattice (continuous time). The eigenvalues of this matrix carry the
entire rate-distortion content of the source.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, isfinite
from typing import Callable

import numpy as np

from .spectra import CyclicSpectrum, DiscreteCsProcess, TruncationError

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True, eq=False)
class PsdPcMatrix:
    """Hermitian spectral matrix field phi -> (dim x dim)."""

    dim: int
    _evaluate: Callable[[np.ndarray], np.ndarray]
    phi_breakpoints: tuple

    def __call__(self, phi) -> np.ndarray:
        """Evaluate the matrix at an array of phis; returns (n, dim, dim)."""
        phi = np.atleast_1d(np.asarray(phi, dtype=float))
        return self._evaluate(phi)


def psd_pc_matrix_discrete(proc: DiscreteCsProcess) -> PsdPcMatrix:
    """Polyphase matrix of a discrete-time process with period M.

    Entry (m, r) at phi is (1/M) sum_{n=0}^{M-1} S_r((phi - n)/M)
    e^{2 pi i (m - r)(phi - n)/M}, where S_r is the slot-r spectrum; the sum
    over n folds the slot spectrum onto the decimated circle.
    """
    m_dim = proc.period

    def evaluate(phi):
        npts = phi.size
        out = np.zeros((npts, m_dim, m_dim), dtype=complex)
        idx = np.arange(m_dim)
        for n in range(m_dim):
            x = (phi - n) / m_dim
            a = np.exp(TWO_PI * 1j * np.multiply.outer(x, idx))   # a[p, m]
            for r in range(m_dim):
                s = proc.tpsd(r, x)
                out[:, :, r] += (s * a[:, r].conj())[:, None] * a
        out /= m_dim
        return out

    return PsdPcMatrix(m_dim, evaluate, tuple(proc.phi_breakpoints))


def psd_pc_matrix_continuous(spec: CyclicSpectrum, dim: int) -> PsdPcMatrix:
    """Polyphase matrix of a continuous-time process at intra-period resolution dim.

    Entry (m, r) at phi is (1/T0) sum_k sum_n cpsd(n, (phi - k)/T0)
    e^{2 pi i (n r + (m - r)(phi - k)) / dim}. With
    A[m, j] = e^{2 pi i m (phi - j) / dim} over the column aliases j = k + n,
    the double series regroups into one batched product (1/T0) A_k W, where
    W[k, r] = sum_n cpsd(n, (phi - k)/T0) conj(A[r, k + n]) and A_k keeps the
    alias columns k = -kmax..kmax. Spectra that expose an exact rank-one
    factorization (pulse-amplitude structure) bypass the series.
    """
    if dim < 1:
        raise ValueError("dim must be a positive integer")

    if hasattr(spec, "polyphase_factor"):
        def evaluate(phi):
            fold, g = spec.polyphase_factor(dim, phi)
            return np.einsum("p,pm,pr->pmr", fold, g, g.conj())

        return PsdPcMatrix(dim, evaluate, spec.phi_breakpoints())

    if spec.active_indices is None or not isfinite(spec.freq_radius):
        raise TruncationError(
            "psd_pc_matrix_continuous: harmonic/alias series does not truncate "
            "for this spectrum; achieved tail bound is unbounded")

    t0 = spec.period
    kmax = ceil(0.5 + t0 * spec.freq_radius) + 1
    n_alias = 2 * kmax + 1
    idx = np.arange(dim)
    # column aliases j = k + n cover -kmax + min(n, 0) .. kmax + max(n, 0)
    j_lo = min(min(spec.active_indices, default=0), 0)
    j_hi = max(max(spec.active_indices, default=0), 0)
    aliases = np.arange(-kmax + j_lo, kmax + j_hi + 1)
    k_rows = slice(-j_lo, -j_lo + n_alias)
    alias_phase = np.exp(-TWO_PI * 1j * np.multiply.outer(aliases, idx) / dim)   # (j, m)

    def evaluate(phi):
        # a[p, j, m] = A[m, j] at phi_p, split as e^{2 pi i m phi/dim} e^{-2 pi i m j/dim}
        a = np.exp(TWO_PI * 1j * np.multiply.outer(phi / dim, idx))[:, None, :] * alias_phase
        a_conj = a.conj()
        f = ((phi[:, None] - aliases[k_rows]) / t0).ravel()
        w = np.zeros((phi.size, n_alias, dim), dtype=complex)           # w[p, k, r]
        for n in spec.active_indices:
            s = spec.cpsd(n, f).reshape(phi.size, n_alias) / t0
            w += s[:, :, None] * a_conj[:, k_rows.start + n:k_rows.stop + n, :]
        return np.swapaxes(a[:, k_rows, :], 1, 2) @ w

    return PsdPcMatrix(dim, evaluate, spec.phi_breakpoints())


def polyphase_component_psd(proc: DiscreteCsProcess, m: int, phi) -> np.ndarray:
    """Spectrum of the m-th polyphase subsequence X[M n + m] on the circle.

    This is the (m, m) diagonal entry of the polyphase matrix: the folded
    slot-m spectrum (1/M) sum_n S_m((phi - n)/M). Real and nonnegative up to
    rounding, which is clipped.
    """
    m_dim = proc.period
    phi = np.asarray(phi, dtype=float)
    acc = np.zeros(phi.shape, dtype=complex)
    for n in range(m_dim):
        acc += proc.tpsd(m, (phi - n) / m_dim)
    return np.maximum(acc.real / m_dim, 0.0)
