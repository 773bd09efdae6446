"""Polyphase cross-spectral matrices on the normalized frequency circle.

Splitting a cyclostationary process into its per-phase subsequences yields a
jointly stationary vector process. Its M x M cross-spectral matrix at each
normalized frequency phi is assembled here, either from the covariance table
(discrete time) or from the cyclic spectral densities folded over the
sampling lattice (continuous time). In continuous time the alias series is
summed once, into the residue-folded matrix (``folded_alias_matrix``); the
full M x M matrix is that matrix seen in a DFT basis. The eigenvalues of
this matrix carry the entire rate-distortion content of the source.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, gcd, isfinite
from typing import Callable

import numpy as np

from .quadrature import _require_positive_int
from .spectra import CyclicSpectrum, DiscreteCsProcess, TruncationError

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True, eq=False)
class PsdPcMatrix:
    """Hermitian spectral matrix field phi -> (dim x dim), with the
    ``phi_breakpoints`` that a grid over phi pins its cell edges to (none
    for a discrete table's symbol, a trigonometric polynomial).

    ``blocks``, when set, is a tuple of index arrays, disjoint and ascending,
    that holds every nonzero entry at every phi: entry (i, j) is zero unless
    i and j lie in the same block. The eigenvalues are then those of the
    blocks, plus one exact zero per index in no block. None means one block,
    the whole matrix.

    ``node_entries`` is the number of array entries that evaluating one phi
    makes, its assembly's temporaries and the dim x dim result together;
    None counts the result alone, dim**2. ``EigenField.from_matrix`` sizes
    its slices by it.
    """

    dim: int
    _evaluate: Callable[[np.ndarray], np.ndarray]
    phi_breakpoints: tuple = ()
    blocks: tuple | None = None
    node_entries: int | None = None

    def __call__(self, phi) -> np.ndarray:
        """Evaluate the matrix at an array of phis; returns (n, dim, dim)."""
        phi = np.atleast_1d(np.asarray(phi, dtype=float))
        return self._evaluate(phi)


def psd_pc_matrix_discrete(proc: DiscreteCsProcess) -> PsdPcMatrix:
    """Polyphase matrix of a discrete-time process with period M.

    The components X[M n + m] are vector-stationary; their spectral matrix
    is the block-Toeplitz symbol of the covariance table R,
    S(phi)[m, r] = sum_j R[r, m - r - j M] e^{2 pi i j phi}, over the block
    lags j with |m - r - j M| <= L, the memory. Every other entry is an
    exact zero. The symbol is a trigonometric polynomial, so the matrix has
    no breakpoints. A memoryless table gives a diagonal matrix whose
    ``blocks`` are singletons, so its field calls no eigensolver. One phi's
    assembly makes its phase factors, the matrix and one product term.
    """
    m_dim, lmax, table = proc.period, proc.memory, proc.cov_table
    idx = np.arange(m_dim)
    span = (lmax + m_dim - 1) // m_dim
    j = np.arange(-span, span + 1)
    lag = idx[:, None] - idx - m_dim * j[:, None, None]          # lag[j, m, r]
    coef = np.where(np.abs(lag) <= lmax, table[idx, np.clip(lag, -lmax, lmax) + lmax], 0.0)
    coef = coef.reshape(j.size, -1)
    blocks = tuple(idx[:, None]) if lmax == 0 else None

    def evaluate(phi):
        phase = np.exp(TWO_PI * 1j * np.multiply.outer(phi, j))
        out = phase[:, :1] * coef[0]      # a loop, not a BLAS matmul: its buffers cost RSS
        for k in range(1, j.size):
            out += phase[:, k:k + 1] * coef[k]
        return out.reshape(phi.size, m_dim, m_dim)

    return PsdPcMatrix(m_dim, evaluate, blocks=blocks, node_entries=j.size + 2 * m_dim ** 2)


@dataclass(frozen=True, eq=False)
class _AliasSeries:
    """Truncated alias series of a harmonic-limited continuous-time spectrum.

    At resolution M the polyphase matrix is (1/T0) A S A^H with
    A[m, k] = e^{2 pi i m (phi - k) / M} and S[k, k + n] = cpsd(n, (phi - k)/T0)
    over the aliases k = -kmax..kmax, kmax = ceil(0.5 + T0 f_rad) + 1, and the
    active harmonics n. Only the aliases with |k| - 1/2 < T0 f_rad can be
    nonzero for phi in (-1/2, 1/2) (see ``saturation_dim``). The outer aliases
    stay in the series, so a matrix keeps its side; ``folded_alias_matrix``
    marks them dead in its ``blocks``, and they are skipped when the matrix is
    decomposed.
    """

    spec: CyclicSpectrum
    aliases: np.ndarray      # k = -kmax..kmax, consecutive and ascending

    @classmethod
    def of(cls, spec: CyclicSpectrum, caller: str) -> "_AliasSeries":
        if spec.active_indices is None or not isfinite(spec.freq_radius):
            raise TruncationError(
                f"{caller}: harmonic/alias series does not truncate "
                "for this spectrum; achieved tail bound is unbounded")
        kmax = ceil(0.5 + spec.period * spec.freq_radius) + 1
        return cls(spec, np.arange(-kmax, kmax + 1))

    def harmonics(self, phi: np.ndarray):
        """(n, values) per active harmonic, one ``cpsd`` call each:
        values[p, i] = cpsd(n, (phi_p - k_i)/T0) / T0 over the aliases k_i."""
        t0 = self.spec.period
        f = ((phi[:, None] - self.aliases) / t0).ravel()
        for n in self.spec.active_indices:
            yield n, self.spec.cpsd(n, f).reshape(phi.size, self.aliases.size) / t0


def saturation_dim(spec: CyclicSpectrum) -> int | None:
    """Resolution from which the nonzero polyphase spectrum only rescales.

    Alias k of S(phi) holds cpsd(., (phi - k)/T0), which vanishes for every
    phi in (-1/2, 1/2) unless k is live, |k| - 1/2 < T0 f_rad; the
    s = 2 ceil(T0 f_rad - 1/2) + 1 live aliases are consecutive (the float
    T0 f_rad - 1/2 rounds only below 1/4, where the ceiling is 0 either way).
    From dim = s on they fall on distinct residues, and the nonzero
    eigenvalues of the polyphase matrix are (dim/T0) eig S(phi): doubling dim
    doubles every eigenvalue and changes nothing else. Returns s, or None
    where no such resolution exists: a pulse-amplitude spectrum, whose
    rank-one level depends on dim through the pulse samples, or a series
    that does not truncate.
    """
    if (hasattr(spec, "polyphase_factor") or spec.active_indices is None
            or not isfinite(spec.freq_radius)):
        return None
    return 2 * ceil(spec.period * spec.freq_radius - 0.5) + 1


def psd_pc_matrix_continuous(spec: CyclicSpectrum, dim: int) -> PsdPcMatrix:
    """Polyphase matrix of a continuous-time process at intra-period resolution dim.

    Entry (m, r) at phi is (1/T0) sum_k sum_n cpsd(n, (phi - k)/T0)
    e^{2 pi i (n r + (m - r)(phi - k)) / dim}, that is (1/T0) A S A^H in the
    alias series of ``folded_alias_matrix``. There A = V(phi) E, where E maps
    alias k to its residue and V[m, rho] = e^{2 pi i m (phi - (rho - kmax)) / dim}
    (column rho holds the residue counted from -kmax), so the matrix is the
    folded one in this basis, V(phi) folded(phi) V(phi)^H / dim. Spectra that
    expose an exact rank-one factorization (pulse-amplitude structure) bypass
    the series.
    """
    _require_positive_int("dim", dim)

    if hasattr(spec, "polyphase_factor"):
        def evaluate(phi):
            fold, g = spec.polyphase_factor(dim, phi)
            return np.einsum("p,pm,pr->pmr", fold, g, g.conj())

        return PsdPcMatrix(dim, evaluate, spec.phi_breakpoints())

    kmax = -_AliasSeries.of(spec, "psd_pc_matrix_continuous").aliases[0]
    folded = folded_alias_matrix(spec, dim)
    idx = np.arange(dim)
    shift = np.exp(-TWO_PI * 1j * np.multiply.outer(idx, np.arange(folded.dim) - kmax) / dim)

    def evaluate(phi):
        v = np.exp(TWO_PI * 1j * np.multiply.outer(phi / dim, idx))[:, :, None] * shift
        return v @ folded(phi) @ np.swapaxes(v.conj(), 1, 2) / dim

    return PsdPcMatrix(dim, evaluate, spec.phi_breakpoints())


def folded_alias_matrix(spec: CyclicSpectrum, dim: int) -> PsdPcMatrix:
    """Smallest matrix with the nonzero spectrum of ``psd_pc_matrix_continuous(spec, dim)``.

    Over the J = 2 kmax + 1 row aliases k the alias matrix factors as
    A = D(phi) F E: D(phi) = diag(e^{2 pi i m phi/dim}) is unitary, F is the
    dim-point DFT (F^H F = dim I) and E maps alias k to its residue k mod dim.
    The nonzero eigenvalues of (1/T0) A S A^H are therefore those of
    (dim/T0) E S E^T, of side r = min(dim, J); entries of aliases that share a
    residue add. This holds at every dim, below the alias count too. Columns
    k + n beyond the row aliases are dropped: a cyclic spectrum is Hermitian,
    cpsd(n, f) = conj(cpsd(-n, f - n/T0)), so such an entry mirrors one on a
    row beyond kmax, which the support radius makes zero.

    A slice whose scattered ``cpsd`` values are all real (an AM source with
    phase 0, a stationary source) is returned as a real symmetric float64
    matrix; any other slice is complex Hermitian.

    The matrix records its ``blocks``. Harmonic n couples aliases k and k + n,
    and g, the gcd of the active harmonics (2 for AM, 0 for a stationary
    source), divides every n; so aliases of different positions mod g never
    meet. Once every live alias (|k| - 1/2 < T0 f_rad) has its own residue
    (dim >= the live count), the classes of live aliases mod g are the
    blocks; below that, aliases dim apart share a residue, and the classes are
    taken mod gcd(g, dim), which is one class for AM at odd dim. A class is
    the residues of its live aliases only: a residue that no live alias
    reaches is a zero row and column, and in no block. The matrix itself is
    unchanged by this; ``EigenField.from_matrix`` decomposes it block by block.

    Pulse-amplitude spectra give the rank-one case, a 1 x 1 matrix holding
    fold * sum_m |g_m|^2. An eigenvalue field of the result carries the
    distortion weight 1/dim, not one over its own side.

    The matrix reports its ``node_entries``. One phi of the alias series
    makes J cpsd values per active harmonic, one scatter position and one
    ``bincount`` weight per scattered entry, and the side x side result: at
    J = 27 and three harmonics the assembly outweighs a 4 x 4 matrix
    fifteen times. One phi of the rank-one case makes dim gains and their
    squared magnitudes.
    """
    _require_positive_int("dim", dim)

    if hasattr(spec, "polyphase_factor"):
        def evaluate(phi):
            fold, g = spec.polyphase_factor(dim, phi)
            return (fold * (g * g.conj()).real.sum(axis=-1))[:, None, None]

        return PsdPcMatrix(1, evaluate, spec.phi_breakpoints(), node_entries=2 * dim + 1)

    series = _AliasSeries.of(spec, "folded_alias_matrix")
    pos = np.arange(series.aliases.size)      # alias k sits at k + kmax
    side = min(dim, pos.size)
    # residues counted from -kmax, (k + kmax) mod dim, fill 0..side-1; they
    # differ from k mod dim by a shift, a diagonal unitary similarity
    residue = pos % dim
    inside = {n: pos[(pos + n >= 0) & (pos + n < pos.size)] for n in spec.active_indices}
    # row-major (k, k + n) entries; a spectrum without harmonics is zero
    flat = np.concatenate([np.zeros(0, dtype=int)] +
                          [residue[i] * side + residue[i + n] for n, i in inside.items()])

    # positions of the live aliases, |k| <= (s - 1)/2 with k = position - kmax
    live = pos[np.abs(pos - pos.size // 2) <= saturation_dim(spec) // 2].tolist()
    g = gcd(*spec.active_indices)
    if len(live) > dim:             # aliases dim apart share a residue, and its block
        g = gcd(g, dim)
    classes: dict[int, set] = {}    # g = 0: harmonic 0 alone, every residue its own block
    for p in live:
        classes.setdefault(p % g if g else p, set()).add(p % dim)
    blocks = tuple(np.array(sorted(c)) for c in classes.values())
    if len(blocks) == 1 and blocks[0].size == side:
        blocks = None

    def evaluate(phi):
        s = dim * np.concatenate([np.zeros((phi.size, 0))] +
                                 [values[:, inside[n]] for n, values in series.harmonics(phi)],
                                 axis=1)
        where = (np.arange(phi.size)[:, None] * side ** 2 + flat).ravel()
        size = phi.size * side ** 2
        if not np.any(s.imag):      # a real slice stays real: half the bytes, real eigvalsh
            out = np.bincount(where, s.real.ravel(), size)
        else:
            out = np.empty(size, dtype=complex)
            out.real = np.bincount(where, s.real.ravel(), size)
            out.imag = np.bincount(where, s.imag.ravel(), size)
        return out.reshape(phi.size, side, side)

    entries = series.aliases.size * len(spec.active_indices) + 2 * flat.size + side ** 2
    return PsdPcMatrix(side, evaluate, spec.phi_breakpoints(), blocks, entries)


def component_spectra(proc: DiscreteCsProcess, phi, components=slice(None)) -> np.ndarray:
    """Spectra of the polyphase components X[M n + m], shaped (phi.size, M),
    or of the ``components`` (a slice of 0..M-1) only.

    Column m is the diagonal entry (m, m) of ``psd_pc_matrix_discrete``,
    R[m, 0] + 2 sum_{j >= 1} R[m, j M] cos(2 pi j phi), a cosine polynomial
    read from the table, clipped to nonnegative against rounding.
    """
    phi = np.atleast_1d(np.asarray(phi, dtype=float))
    m_dim, lmax, table = proc.period, proc.memory, proc.cov_table[components]
    j = np.arange(1, lmax // m_dim + 1)
    cosines = np.cos(TWO_PI * np.multiply.outer(phi, j))
    return np.maximum(table[:, lmax] + 2.0 * cosines @ table[:, lmax + m_dim * j].T, 0.0)
