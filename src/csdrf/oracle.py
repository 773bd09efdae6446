"""Brute-force ground truth from finite-window covariance eigenvalues.

Everything here avoids the polyphase machinery on purpose: kernels come from
covariance functions, eigenvalues from symmetric decompositions, and curves
from the classical parametric form over those eigenvalues. Agreement with the
spectral fast paths at desk scale is the package's main validation.

Each step does only the work its structure needs, with the result of the
plain dense computation up to rounding. A kernel's grid times are a lattice,
so its lags are the integer offsets k dt, k = -(n-1)..n-1, evaluated once
each; a stepped kernel's times are a lattice of the step. The harmonics are
summed into a real matrix, harmonic 0 as the real part of its lag row alone
(its phase factor is exactly 1), bit for bit the real part of the complex
sum (``CyclicSpectrum.covariance``). A kernel is symmetrized once, in the
buffer it was built in, so a built kernel and its decomposition hold one
n x n array. A PAM kernel with a time-windowed
pulse is the product P R_U P^T of an n x s pulse matrix and an s x s symbol
Toeplitz matrix: its nonzero eigenvalues are those of one s x s matrix, and
the other n - s are exact zeros; its dense n x n values are formed only for
``weyl_gap`` (``KernelGrid.dense_values``). A dense kernel of even size that
equals its reversal J K J within REVERSAL_TOL n eps max |K| (a stationary
kernel, AM at phase 0 or pi/2, PAM with an even pulse: the grid is symmetric
about 0) is decomposed as an even and an odd half of size n/2, each
eigenvalue within the Weyl bound ||K - J K J||_2 / 2 of the dense one; any
other kernel is decomposed dense.

Each window owns its normalization: ``operator_eigenvalues()`` of the
window-normalized operator and the rate unit ``r_scale``, 1/(4T) bits per
second over [-T, T] or 1/(2N) bits per symbol over N symbols.

A discrete source has two windows, both read from its covariance table. The
plain block (``BlockCovariance``) is the covariance of n consecutive symbols,
filled one diagonal at a time and decomposed dense. The periodized block
(``PeriodizedBlock``) wraps P whole periods onto a circle: it has no window
edge, and it is block-circulant, so a DFT over the period index, the
paper's orthogonalization over polyphase components done in the time
domain, splits it into P Hermitian M x M matrices, and only its first block
row is stored. A memoryless periodized block skips the DFT: its diagonal,
repeated and sorted, is exact, and the DFT of a lone first block is not at
every period count P.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .quadrature import _require_positive_int
from .spectra import CyclicSpectrum, DiscreteCsProcess, factor_product, row_blocks
from .waterfilling import ScalarWaterfiller, _clip_eigenvalues

# A dense kernel of even size n is decomposed as two halves when
# max |K - J K J| <= REVERSAL_TOL n eps max |K| (``_commutes_with_reversal``).
REVERSAL_TOL = 8.0
# ``weyl_gap`` allows WEYL_ROUNDING n eps max(|K_a|, |K_b|) of rounding.
WEYL_ROUNDING = 16.0


@dataclass(frozen=True, eq=False)
class KernelGrid:
    """Covariance kernel sampled on a uniform midpoint grid over [-T, T].

    ``weight`` is the quadrature weight per cell divided by the window length
    2T, so values * weight is the matrix of the window-normalized integral
    operator. ``values`` must be exactly symmetric, as both builders make it
    (``build_kernel``, ``step_approximation``); it is kept as given. A
    factored kernel has ``factor`` = (P, R), R symmetric, and ``values`` None:
    its eigenvalues come from the factor, and ``dense_values`` forms P R P^T.
    """

    times: np.ndarray
    values: np.ndarray | None
    weight: float
    half_width: float
    factor: tuple | None = None

    def __post_init__(self):
        if self.values is None and self.factor is None:
            raise ValueError("a kernel needs its values or its factor")

    def dense_values(self) -> np.ndarray:
        """The n x n kernel: ``values``, or P R P^T symmetrized in a new array."""
        return self.values if self.factor is None else _symmetrize(factor_product(self.factor))

    @property
    def size(self) -> int:
        return self.times.size

    @property
    def r_scale(self) -> float:
        """Bits per second: 1/(4T) per waterfilled log2+ unit."""
        return 1.0 / (4.0 * self.half_width)

    def operator_eigenvalues(self) -> np.ndarray:
        """Descending eigenvalues of the window-normalized operator.

        A factored kernel P R P^T is decomposed in symbol space: with the
        reduced QR factorization P = Q Rp, the kernel is Q (Rp R Rp^T) Q^T,
        so its nonzero eigenvalues are those of the k x k matrix Rp R Rp^T,
        k = min(n, s) for s columns of P, and the other n - k are exact zeros.

        A dense kernel of even size n = 2m that commutes with the reversal J
        (J K J = K within REVERSAL_TOL n eps max |K|) is decomposed as two
        m x m halves. With A and B the top blocks of S = (K + J K J)/2, the
        orthogonal change of basis to the even vectors [x; J x] and the odd
        ones [x; -J x] makes S block diagonal with blocks A + B J and A - B J,
        formed one after the other in one m x m buffer.
        The eigenvalues returned are those of S; by Weyl's inequality each
        is within ||K - J K J||_2 / 2 <= (n/2) max |K - J K J| of the
        corresponding eigenvalue of K, which is at most (REVERSAL_TOL/2) n eps
        max |K| after the 1/n window normalization. Any other dense kernel
        is decomposed whole.
        """
        if self.factor is None:
            if _commutes_with_reversal(self.values):
                lam = _reversal_eigenvalues(self.values)
            else:
                lam = _window_eigvalsh(self.values, self.size, self.values)
        else:
            pulses, inner = self.factor
            rp = np.linalg.qr(pulses, mode="r")
            core = _window_eigvalsh(_symmetrize(rp @ inner @ rp.T), self.size, inner)
            lam = np.concatenate([np.zeros(self.size - core.size), core])
        return lam[::-1] * self.weight


@dataclass(frozen=True, eq=False)
class BlockCovariance:
    """Covariance matrix of a length-N block of a discrete-time process."""

    matrix: np.ndarray

    @property
    def size(self) -> int:
        return self.matrix.shape[0]

    @property
    def r_scale(self) -> float:
        """Bits per symbol: 1/(2N) per waterfilled log2+ unit."""
        return 1.0 / (2.0 * self.size)

    @classmethod
    def from_process(cls, proc: DiscreteCsProcess, n: int) -> "BlockCovariance":
        """Block of length n, filled one diagonal at a time from the table.

        Entry (j+k, j) and its mirror (j, j+k) both hold the symmetrized
        value 0.5 * (R[j, k] + R[j+k, -k]) of the covariance table R.
        """
        if n < 1:
            raise ValueError(f"block length n must be at least 1, got {n!r}")
        table = proc.cov_table
        m, lmax = proc.period, proc.memory
        mat = np.zeros((n, n))
        flat = mat.reshape(-1)
        for k in range(min(lmax, n - 1) + 1):
            j = np.arange(n - k)
            diag = 0.5 * table[j % m, lmax + k] + 0.5 * table[(j + k) % m, lmax - k]
            flat[k * n::n + 1] = diag
            flat[k:(n - k) * n:n + 1] = diag
        return cls(mat)

    def operator_eigenvalues(self) -> np.ndarray:
        """Descending eigenvalues of C/N, the block decomposed dense."""
        return _window_eigvalsh(self.matrix, self.size, self.matrix)[::-1] / self.size


@dataclass(frozen=True, eq=False)
class PeriodizedBlock:
    """Covariance of P whole periods of a discrete process wrapped onto a
    circle of n = P M symbols, kept as its first block row.

    The wrapped matrix C[s, t] = sum_w E[X[s + w n] X[t]] is block-circulant
    with M x M blocks, so ``blocks`` (P, M, M) holds all of it: block q is
    B_q[a, b] = sum over j = q (mod P) of R[b, j M + a - b].
    """

    blocks: np.ndarray

    @property
    def size(self) -> int:
        return self.blocks.shape[0] * self.blocks.shape[1]

    r_scale = BlockCovariance.r_scale       # bits per symbol, 1/(2N)

    @classmethod
    def from_process(cls, proc: DiscreteCsProcess, n: int) -> "PeriodizedBlock":
        """Block of n symbols, n a positive multiple of the period, read from
        the covariance table R (zero beyond the memory L). Each block lag j
        reaches the entries whose lag j M + a - b is within L; when n < 2L + 1
        several lags wrap onto one block and are summed there.
        """
        m, lmax = proc.period, proc.memory
        if n < 1 or n % m:
            raise ValueError(f"periodized block length n must be a positive multiple "
                             f"of the period {m}, got {n!r}")
        table = proc.cov_table
        periods = n // m
        blocks = np.zeros((periods, m, m))
        a, b = np.arange(m)[:, None], np.arange(m)[None, :]
        reach = (lmax + m - 1) // m
        for j in range(-reach, reach + 1):
            lag = j * m + a - b
            live = np.abs(lag) <= lmax
            blocks[j % periods] += np.where(live, table[b, np.clip(lag, -lmax, lmax) + lmax], 0.0)
        return cls(blocks)

    def operator_eigenvalues(self) -> np.ndarray:
        """Descending eigenvalues of C/N, those of the P Hermitian M x M
        matrices sum_q B_q exp(-2 pi i q k / P), k = 0..P-1: one DFT over the
        period axis and one batched decomposition. A block row whose only
        nonzero block is a diagonal B_0 (a memoryless source) is its diagonal
        repeated P times, sorted, with no decomposition.
        """
        blocks = self.blocks
        diagonal = np.diagonal(blocks[0])
        if np.count_nonzero(blocks) == np.count_nonzero(diagonal):
            return np.sort(np.tile(diagonal, blocks.shape[0]))[::-1] / self.size
        spectra = np.fft.fft(blocks, axis=0)
        spectra *= 0.5
        spectra += spectra.conj().transpose(0, 2, 1)
        return np.sort(_window_eigvalsh(spectra, self.size, blocks), axis=None)[::-1] / self.size


def build_kernel(spec: CyclicSpectrum, periods: int, n: int) -> KernelGrid:
    """Covariance kernel of a continuous-time source on a [-T, T] grid of
    whole periods, T = periods T0 for a positive integer ``periods``.

    The kernel is evaluated through the source's covariance function at the
    lags k dt of the grid's lattice, symmetrized in that buffer, and paired
    with the 1/(2T) window normalization. A source with a covariance factor
    (``covariance_factor``) builds the kernel from it alone, with no dense
    values, which ``kl_drf`` does not read.
    """
    if n < 2:
        raise ValueError(f"need at least two grid points, got n = {n!r}")
    _require_positive_int("periods", periods)
    t_half = periods * spec.period
    dt = 2.0 * t_half / n
    times = -t_half + dt * (np.arange(n) + 0.5)
    factor = spec.covariance_factor(times)
    values = _symmetrize(spec.covariance(times, dt)) if factor is None else None
    return KernelGrid(times, values, 1.0 / n, t_half, factor)


def step_approximation(spec: CyclicSpectrum, kernel: KernelGrid,
                       steps_per_period: int) -> KernelGrid:
    """``spec``'s ``kernel`` held constant on cells of width T0/steps_per_period.

    Both time arguments are floored to the step lattice before evaluating the
    source's covariance, whose lags are then multiples of the step.
    """
    h = spec.period / steps_per_period
    stepped = np.floor(kernel.times / h) * h
    return KernelGrid(kernel.times, _symmetrize(spec.covariance(stepped, h)), kernel.weight,
                      kernel.half_width)


def _commutes_with_reversal(values: np.ndarray) -> bool:
    """Whether a kernel of even size n equals its reversal J K J within
    REVERSAL_TOL n eps max |K|.

    The top rows of K and of J K J are compared entry by entry, a block of
    rows at a time (``row_blocks``); the bottom rows repeat them reversed.
    """
    n = values.shape[0]
    if n % 2:
        return False
    mirror = values[::-1, ::-1]
    tol = REVERSAL_TOL * n * np.finfo(float).eps * max(values.max(), -values.min())
    return not any(np.abs(values[rows] - mirror[rows]).max() > tol
                   for rows in row_blocks(n // 2, n))


def _reversal_eigenvalues(values: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of S = (K + J K J)/2 for a kernel of even size
    n = 2m: those of its even half A + B J and its odd half A - B J, A and B
    being the top blocks of S.

    The halves are formed in turn in one m x m buffer, a block of rows at a
    time, and each is decomposed before the next overwrites it.
    """
    n = values.shape[0]
    m = n // 2
    mirror = values[::-1, ::-1]
    half = np.empty((m, m))
    lam = []
    for combine in (np.add, np.subtract):
        for rows in row_blocks(m, n):
            top = 0.5 * values[rows] + 0.5 * mirror[rows]    # rows of [A | B]
            with np.errstate(over="ignore"):                 # refused below
                combine(top[:, :m], top[:, m:][:, ::-1], out=half[rows])
        lam.append(_window_eigvalsh(half, n, values))
    return np.sort(np.concatenate(lam))


def _symmetrize(values: np.ndarray) -> np.ndarray:
    """A square float array overwritten with K / 2 + K^T / 2, and returned.

    Entry (i, j) and its mirror both get K[i, j] * 0.5 + K[j, i] * 0.5, halved
    before adding so that no finite mean overflows. A block of rows from the
    diagonal on is added to its mirror block of columns (``row_blocks``); no
    earlier block has written either, so the temporaries are block-sized.
    """
    n = values.shape[0]
    for rows in row_blocks(n, n):
        block = values[rows, rows.start:] * 0.5
        block += values[rows.start:, rows].T * 0.5
        values[rows, rows.start:] = block
        values[rows.start:, rows] = block.T
    return values


def _window_eigvalsh(operand: np.ndarray, size: int, values: np.ndarray) -> np.ndarray:
    """``np.linalg.eigvalsh`` of an operand formed from the ``values`` of a window
    of ``size``; an entry that overflowed raises ``LinAlgError`` naming both."""
    if not np.isfinite(operand).all():
        raise np.linalg.LinAlgError(
            f"a decomposition of the window of size {size} overflowed; max |entry| = "
            f"{max(values.max(), -values.min()):.3e}")
    return np.linalg.eigvalsh(operand)


def kl_drf(window) -> ScalarWaterfiller:
    """Finite-window waterfiller from covariance eigenvalues.

    The window (``KernelGrid``, ``BlockCovariance`` or ``PeriodizedBlock``)
    is decomposed once (``operator_eigenvalues``); ``.solve_many(rates)``
    then gives the curve at any rates, in the window's rate unit
    (``r_scale``). Distortion is a plain eigenvalue sum because the
    normalization already sits inside the eigenvalues.
    """
    lam = _clip_eigenvalues(window.operator_eigenvalues())
    return ScalarWaterfiller(lam, np.ones_like(lam), d_scale=1.0, r_scale=window.r_scale)


@dataclass(frozen=True)
class WeylGap:
    """Observed eigenvalue gap between two kernels and its sup-norm bound."""

    gap: float
    bound: float
    per_rank: np.ndarray


def weyl_gap(a: KernelGrid, b: KernelGrid) -> WeylGap:
    """Largest per-rank eigenvalue difference against 2 sup |K_a - K_b|.

    Eigenvalues are those of the window-normalized operators, sorted
    descending; for self-adjoint kernels the operator perturbation is
    controlled by the sup norm of the kernel difference, which the observed
    gap must not exceed up to rounding. The rounding allowed is
    WEYL_ROUNDING n eps max(|K_a|, |K_b|), the scale of the two
    decompositions' own errors (a reversal split included), so the check
    keeps its meaning at any kernel power.
    """
    if a.size != b.size or not np.allclose(a.times, b.times, rtol=0.0, atol=1e-12):
        raise ValueError("kernel grids do not match")
    if abs(a.weight - b.weight) > 1e-15:
        raise ValueError("kernel normalizations do not match")
    la = a.operator_eigenvalues()
    lb = b.operator_eigenvalues()
    per_rank = np.abs(la - lb)
    gap = float(per_rank.max())
    ka, kb = a.dense_values(), b.dense_values()
    bound = 2.0 * float(np.abs(ka - kb).max())
    scale = max(np.abs(ka).max(), np.abs(kb).max())
    if gap > bound + WEYL_ROUNDING * a.size * np.finfo(float).eps * scale:
        raise AssertionError(f"eigenvalue gap {gap:.6e} exceeds sup-norm bound {bound:.6e}")
    return WeylGap(gap, bound, per_rank)
