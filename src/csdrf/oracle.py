"""Brute-force ground truth from finite-window covariance eigenvalues.

Everything here avoids the polyphase machinery on purpose: kernels come from
covariance functions, eigenvalues from dense symmetric decompositions, and
curves from the classical parametric form over those eigenvalues. Agreement
with the spectral fast paths at desk scale is the package's main validation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectra import CyclicSpectrum, DiscreteCsProcess
from .waterfilling import ScalarWaterfiller, _clip_eigenvalues


@dataclass(frozen=True, eq=False)
class KernelGrid:
    """Covariance kernel sampled on a uniform midpoint grid over [-T, T].

    ``weight`` is the quadrature weight per cell divided by the window length
    2T, so values * weight is the matrix of the window-normalized integral
    operator. ``fn`` optionally keeps the kernel callable for resampling: it
    maps a 1-d time vector to the covariance matrix at those times.
    """

    times: np.ndarray
    values: np.ndarray
    weight: float
    half_width: float
    fn: object = None

    @property
    def size(self) -> int:
        return self.times.size

    def operator_eigenvalues(self) -> np.ndarray:
        """Descending eigenvalues of the window-normalized operator."""
        lam = np.linalg.eigvalsh(0.5 * (self.values + self.values.T))
        return lam[::-1] * self.weight


@dataclass(frozen=True, eq=False)
class BlockCovariance:
    """Covariance matrix of a length-N block of a discrete-time process."""

    matrix: np.ndarray

    @property
    def size(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def from_process(cls, proc: DiscreteCsProcess, n: int) -> "BlockCovariance":
        if n < 1:
            raise ValueError(f"block length n must be at least 1, got {n!r}")
        mat = np.zeros((n, n))
        lmax = proc.memory
        for lag in range(-lmax, lmax + 1):
            for j in range(max(0, -lag), min(n, n - lag)):
                mat[j + lag, j] = proc.cov(j, lag)
        return cls(0.5 * (mat + mat.T))


def build_kernel(spec: CyclicSpectrum, t_half: float, n: int) -> KernelGrid:
    """Covariance kernel of a continuous-time source on a [-T, T] grid.

    T must be a positive integer multiple of the period (keeps whole cycles
    in the window). The kernel is evaluated through the source's covariance
    function, symmetrized, and paired with the 1/(2T) window normalization.
    """
    if n < 2:
        raise ValueError(f"need at least two grid points, got n = {n!r}")
    if not (np.isfinite(t_half) and t_half > 0.0):
        raise ValueError(f"window half-width t_half must be finite and positive, "
                         f"got {t_half!r}")
    cycles = t_half / spec.period
    if abs(cycles - round(cycles)) > 1e-9 * max(1.0, cycles):
        raise ValueError(f"window half-width {t_half} is not a multiple of the period {spec.period}")
    dt = 2.0 * t_half / n
    times = -t_half + dt * (np.arange(n) + 0.5)
    return KernelGrid(times, _symmetric(spec.covariance(times)), 1.0 / n, t_half,
                      spec.covariance)


def step_approximation(kernel: KernelGrid, steps_per_period: int, period: float) -> KernelGrid:
    """Kernel held constant on cells of width period/steps_per_period.

    Both time arguments are floored to the step lattice before evaluating the
    original kernel; requires the source kernel callable.
    """
    if kernel.fn is None:
        raise ValueError("step approximation needs the kernel callable")
    h = period / steps_per_period
    stepped = np.floor(kernel.times / h) * h
    return KernelGrid(kernel.times, _symmetric(kernel.fn(stepped)), kernel.weight,
                      kernel.half_width, kernel.fn)


def _symmetric(values) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    return 0.5 * (values + values.T)


def kl_drf(source) -> ScalarWaterfiller:
    """Finite-window waterfiller from covariance eigenvalues.

    The kernel or block is decomposed once; ``.solve_many(rates)`` then gives
    the curve at any rates. For a KernelGrid the eigenvalues of the
    window-normalized operator are waterfilled with rate in bits per second,
    (1/(4T)) sum log2+. For a BlockCovariance the eigenvalues of C/N are
    waterfilled with rate in bits per symbol, (1/(2N)) sum log2+. Distortion
    is a plain eigenvalue sum in both cases because the normalization already
    sits inside the eigenvalues.
    """
    if isinstance(source, KernelGrid):
        lam = _clip_eigenvalues(source.operator_eigenvalues())
        r_scale = 1.0 / (4.0 * source.half_width)
    elif isinstance(source, BlockCovariance):
        n = source.size
        lam = _clip_eigenvalues(np.linalg.eigvalsh(source.matrix)[::-1] / n)
        r_scale = 1.0 / (2.0 * n)
    else:
        raise TypeError(f"unsupported oracle source: {type(source)!r}")
    return ScalarWaterfiller(lam, np.ones_like(lam), d_scale=1.0, r_scale=r_scale)


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
    gap must not exceed (up to rounding).
    """
    if a.size != b.size or not np.allclose(a.times, b.times, rtol=0.0, atol=1e-12):
        raise ValueError("kernel grids do not match")
    if abs(a.weight - b.weight) > 1e-15:
        raise ValueError("kernel normalizations do not match")
    la = a.operator_eigenvalues()
    lb = b.operator_eigenvalues()
    per_rank = np.abs(la - lb)
    gap = float(per_rank.max())
    bound = 2.0 * float(np.abs(a.values - b.values).max())
    if gap > bound + 1e-9:
        raise AssertionError(f"eigenvalue gap {gap:.6e} exceeds sup-norm bound {bound:.6e}")
    return WeylGap(gap, bound, per_rank)
