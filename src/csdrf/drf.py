"""Distortion-rate curves of cyclostationary sources and related bounds.

This layer wires the spectral models into the waterfilling engine. Each
curve has one builder: ``discrete_waterfiller`` for discrete time,
``ContinuousDrfSolver`` for the intra-period refinement in continuous time,
``pam_waterfiller`` for the pulse-amplitude closed form and
``sampled_coding`` for sampling followed by source coding; the scalar ones
return a ``ScalarWaterfiller`` to solve at every rate of a curve. Each
per-component lower bound solves all its component or phase spectra at every
rate of a curve in one call (``waterfilling.stacked_solve``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .polyphase import (component_spectra, folded_alias_matrix, psd_pc_matrix_discrete,
                        saturation_dim)
# phi_grid is not called here: the benchmark's tracer test rebinds this name
from .quadrature import _require_positive_int, gauss_segments, half_grid, phi_grid  # noqa: F401
from .spectra import (CyclicSpectrum, DiscreteCsProcess, PamCyclicSpectrum, StationaryPsd,
                      wiener_pulse)
from .waterfilling import (DECOMPOSITION_ERRORS, EigenField, RateDistortionPoint,
                           ScalarWaterfiller, WaterLevelUnderflow, stacked_solve)


class NonConvergedError(RuntimeError):
    """The intra-period refinement hit its cap before the tolerance."""


# ---------------------------------------------------------------------------
# discrete time
# ---------------------------------------------------------------------------

def discrete_waterfiller(proc: DiscreteCsProcess, n_grid: int = 2048) -> ScalarWaterfiller:
    """Waterfiller of a discrete-time cyclostationary source, rates per symbol.

    Builds the polyphase matrix and decomposes it over the frequency grid;
    the levels are its eigenvalues, weighted 1/M. The process is real
    (``DiscreteCsProcess``), so the matrix at -phi is the conjugate of the
    matrix at phi and has the same eigenvalues: the field is decomposed on
    ``half_grid``, the nodes phi >= 0 of the mirror-symmetric grid with
    mirrored weights added. The matrix is a trigonometric polynomial in phi,
    so the grid has no breakpoints.
    """
    matrix = psd_pc_matrix_discrete(proc)
    grid = half_grid(0.5, n_grid)
    return EigenField.from_matrix(matrix, grid).waterfiller(1.0 / (2.0 * proc.period))


def lower_bound_discrete(proc: DiscreteCsProcess, rates_bits_per_symbol,
                         n_grid: int = 2048) -> np.ndarray:
    """Average of the per-component curves: a lower bound on the distortion.

    Each polyphase subsequence is waterfilled on its own spectrum. A code of
    R bits per source symbol spends M*R bits per vector step, so each
    coordinate sees the full M*R bits per its own symbol; coding the
    coordinates jointly can only do better, hence the bound. Tight at rate 0
    and asymptotically as the rate grows.

    Returns the bound at every rate, shaped like ``rates_bits_per_symbol``:
    one ``stacked_solve`` over the M component spectra, which it reads from
    the table a block at a time (``component_spectra``: R[m, 0] +
    2 sum_{j >= 1} R[m, j M] cos(2 pi j phi)). A component of a real process
    has a spectrum even in phi, so it is taken on ``half_grid``, as in
    ``discrete_waterfiller``.
    """
    m = proc.period
    grid = half_grid(0.5, n_grid)
    rates = np.asarray(rates_bits_per_symbol, dtype=float)
    return stacked_solve(lambda s: component_spectra(proc, grid.nodes, s).T, m, grid.weights,
                         m * rates, 0.5)


# ---------------------------------------------------------------------------
# continuous time
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ContinuousDrfConfig:
    """Refinement schedule for continuous-time curves.

    The intra-period resolution doubles from ``m_start`` until successive
    distortions differ by strictly less than ``convergence_tol`` times the
    average power, or ``m_max`` is reached. A tolerance of 0 therefore never
    stops early: every level from ``m_start`` to ``m_max`` runs and the
    result reports ``converged=False``, even where a saturated source gives
    bit-identical distortions. A supplied ``lipschitz_c`` feeds the reported
    (conservative) kernel-perturbation diagnostic 4 C T0 / M; when None no
    diagnostic is reported.
    """

    m_start: int = 4
    m_max: int = 64
    lipschitz_c: float | None = None
    convergence_tol: float = 1e-4
    n_grid: int = 2048

    def __post_init__(self):
        for name in ("m_start", "m_max", "n_grid"):
            _require_positive_int(name, getattr(self, name))
        if self.m_max < self.m_start:
            raise ValueError(f"m_max must be at least m_start = {self.m_start}, "
                             f"got {self.m_max}")
        if self.lipschitz_c is not None and self.lipschitz_c < 0:
            raise ValueError("lipschitz_c must be nonnegative")
        if not (math.isfinite(self.convergence_tol) and self.convergence_tol >= 0):
            raise ValueError("convergence_tol must be finite and nonnegative")


@dataclass(frozen=True)
class ContinuousDrfResult:
    """Final refinement point plus the iterate sequence and diagnostics."""

    point: RateDistortionPoint
    iterates: tuple            # (dim, theta, distortion) per refinement level
    converged: bool
    cauchy_gaps: tuple         # |D_{2M} - D_M| sequence
    weyl_bounds: tuple         # heuristic 4 C T0 / M per level; empty without lipschitz_c
    sigma2: float


class ContinuousDrfSolver:
    """Refines continuous-time curves level by level over a cached field per resolution.

    The field at resolution M is the nonzero spectrum of the M x M polyphase
    matrix, taken from the folded alias matrix of side min(M, J) over the J
    aliases, decomposed on its live parity blocks, or from the rank-one level
    for pulse-amplitude spectra.

    ``solve_many`` walks the doubling schedule from ``m_start`` to ``m_max``
    once for all of a curve's rates: at each level, every rate whose
    refinement has not stopped takes its iterate, and a rate stops when its
    Cauchy gap is strictly below ``convergence_tol * sigma^2``. A built
    level's iterate is ``point_at(rate, dim)``, the exact water-level solve
    (``ScalarWaterfiller.solve_many``) on the level's waterfiller. That
    waterfiller, with its sorted breakpoint table, is built once per level
    and kept in a one-entry cache, released before the next level's field is
    assembled, so at most one table is alive. ``solve(rate)`` is
    ``solve_many([rate])`` for one rate.

    A level is built only while the rate's previous iterate is below the
    saturation dimension s (``polyphase.saturation_dim``). From M >= s on
    every nonzero alias has its own residue, so the field at 2M is the field
    at M with each eigenvalue doubled and weight 1/(2M): the rate at 2 theta
    equals the rate at theta and the distortion is unchanged. The next
    iterate is therefore (2M, 2 theta, D), derived from the previous one
    without a matrix, a decomposition or a water-level solve; a derived gap
    is 0. Pulse-amplitude spectra have no s and build every level.
    ``point_at`` always builds its level.

    A built level whose water-level bracket cannot reach a rate
    (``WaterLevelUnderflow``) is skipped for that rate: it adds no iterate
    and no gap, and the next level is built, since a level is derived only
    from the one just before it. An underflow at the last level of the
    schedule, or a failed decomposition, ends that rate's refinement:
    ``solve_many`` returns the exception in the rate's place, and ``solve``
    raises it. A level that fails to decompose is built once; every later
    rate that reaches it gets the same exception.

    Every ``CyclicSpectrum`` is a real process, so each level's matrix at -phi
    is the conjugate of its matrix at phi, with the same eigenvalues: the
    fields are decomposed on ``half_grid``, the nodes phi >= 0 of the
    mirror-symmetric phi grid with mirrored weights added. This holds for
    ``solve_many``, ``point_at`` and every caller of either.
    """

    def __init__(self, spec: CyclicSpectrum, cfg: ContinuousDrfConfig | None = None):
        self.spec = spec
        self.cfg = cfg or ContinuousDrfConfig()
        self.sigma2 = spec.avg_power
        self._grid = half_grid(0.5, self.cfg.n_grid, spec.phi_breakpoints())
        self._fields: dict[int, EigenField | Exception] = {}
        self._saturation = saturation_dim(spec)
        self._filler: tuple[int, ScalarWaterfiller] | None = None    # (dim, waterfiller)

    def eigen_field(self, dim: int) -> EigenField:
        if dim not in self._fields:
            self._filler = None
            matrix = folded_alias_matrix(self.spec, dim)
            try:
                self._fields[dim] = EigenField.from_matrix(matrix, self._grid, 1.0 / dim)
            except DECOMPOSITION_ERRORS as exc:
                self._fields[dim] = exc
        field = self._fields[dim]
        if isinstance(field, Exception):
            raise field
        return field

    def point_at(self, rate_bits_per_second: float, dim: int) -> RateDistortionPoint:
        field = self.eigen_field(dim)
        if self._filler is None or self._filler[0] != dim:
            self._filler = (dim, field.waterfiller(1.0 / (2.0 * self.spec.period)))
        theta, dist = self._filler[1].solve_many(rate_bits_per_second)
        return RateDistortionPoint(float(theta), rate_bits_per_second, float(dist))

    def solve(self, rate_bits_per_second: float) -> ContinuousDrfResult:
        (result,) = self.solve_many([rate_bits_per_second])
        if isinstance(result, Exception):
            raise result
        return result

    def solve_many(self, rates_bits_per_second) -> list:
        """The refined point at every rate, in order: a ``ContinuousDrfResult``,
        or the exception that ended that rate's refinement."""
        rates = np.asarray(rates_bits_per_second, dtype=float).ravel().tolist()
        if not all(math.isfinite(r) and r >= 0.0 for r in rates):
            raise ValueError("target rate must be finite and nonnegative")
        cfg = self.cfg
        dims = []
        dim = cfg.m_start
        while dim <= cfg.m_max:
            dims.append(dim)
            dim *= 2
        tol = cfg.convergence_tol * max(self.sigma2, 1e-300)
        iterates = [[] for _ in rates]          # (dim, theta, distortion) per rate
        gaps = [[] for _ in rates]
        outcome = [None] * len(rates)           # result or exception, once the rate stops
        for dim in dims:
            for i, rate in enumerate(rates):
                if outcome[i] is not None:
                    continue
                its = iterates[i]
                if its and self._saturation is not None and its[-1][0] >= self._saturation:
                    theta, dist = 2.0 * its[-1][1], its[-1][2]   # exact rescale of the last level
                else:
                    try:
                        pt = self.point_at(rate, dim)
                    except WaterLevelUnderflow as exc:
                        if dim == dims[-1]:
                            outcome[i] = exc
                        continue        # too coarse to carry the rate: no iterate, no gap
                    except DECOMPOSITION_ERRORS as exc:
                        outcome[i] = exc
                        continue
                    theta, dist = pt.theta, pt.distortion
                its.append((dim, theta, dist))
                if len(its) > 1:
                    gaps[i].append(abs(dist - its[-2][2]))
                    if gaps[i][-1] < tol:
                        outcome[i] = self._result(rate, its, gaps[i], True)
        return [out if out is not None else self._result(rate, its, gap, False)
                for rate, its, gap, out in zip(rates, iterates, gaps, outcome)]

    def _result(self, rate, iterates, gaps, converged) -> ContinuousDrfResult:
        c = self.cfg.lipschitz_c
        weyl = () if c is None else tuple(4.0 * c * self.spec.period / d
                                          for d, _, _ in iterates)
        _, theta, dist = iterates[-1]
        return ContinuousDrfResult(RateDistortionPoint(theta, rate, dist), tuple(iterates),
                                   converged, tuple(gaps), weyl, self.sigma2)


def lower_bound_continuous(spec: CyclicSpectrum, rates_bits_per_second,
                           n_t: int = 64, n_grid: int = 2048) -> np.ndarray:
    """Phase-averaged per-component bound for a continuous-time source.

    For each phase t the component spectrum is the folded time-varying
    spectrum; it is waterfilled at the full code rate (1/(2 T0) normalizer),
    and the resulting distortions are averaged over one period. Equality
    holds exactly when a single component determines all others.

    The average takes two Gauss-Legendre nodes on each of ceil(n_t / 2)
    equal cells of [0, T0), so an odd ``n_t`` takes one node more; the
    weights are equal. It takes at least one cell more than the highest
    active harmonic N: a phase's variance is a trigonometric polynomial of
    degree N in t, and m equal cells average e^{2 pi i j t / T0} to 0 unless
    m divides j, so D(0) = sigma^2 to rounding. For a pulse inside one
    symbol the phase-t component is U(a T0) p(t), so the phase curves are
    p(t)^2 times one curve and the bound is the mean of p(t)^2 times it: the
    rule is exact where p(t)^2 is piecewise cubic with its kinks on cell
    edges (a rect or triangle pulse of one symbol), and D(0) = sigma^2 to
    rounding.

    Returns the bound at every rate, shaped like ``rates_bits_per_second``:
    one ``stacked_solve`` over the phases, whose spectra it builds a block at
    a time from folds of each harmonic taken once for the whole curve
    (``phase_spectra``). A phase of a real process has an even spectrum in
    phi, so the phases are taken on ``half_grid``, as in ``ContinuousDrfSolver``.
    """
    _require_positive_int("n_t", n_t)
    t0 = spec.period
    grid = half_grid(0.5, n_grid, spec.phi_breakpoints())
    rates = np.asarray(rates_bits_per_second, dtype=float)
    harmonics = max(abs(n) for n in spec.active_indices or (0,))
    phases, _ = gauss_segments(0.0, t0, (), min_cells=max((n_t + 1) // 2, harmonics + 1),
                               order=2)
    profiles = spec.phase_spectra(grid.nodes)
    return stacked_solve(lambda s: profiles(phases[s]), phases.size, grid.weights, rates,
                         1.0 / (2.0 * t0))


# ---------------------------------------------------------------------------
# pulse-amplitude structure
# ---------------------------------------------------------------------------

def pam_waterfiller(spec: PamCyclicSpectrum, n_grid: int = 2048) -> ScalarWaterfiller:
    """Closed-form waterfiller of a pulse-amplitude process on its Nyquist band.

    The profile is the folded base spectrum times the aliased pulse energy;
    distortion carries a 1/T0 in front of the band integral so it stays in
    power units per unit time. Both factors are even in f (a real base
    density, a real pulse), so the profile is taken on a half grid. It is
    the eigenvalue path's grid, ``half_grid`` of the phi circle with the
    folded breakpoints (``ContinuousDrfSolver``), its nodes and weights
    divided by T0: a band grid rounds its segments' node counts in other
    units, and where a count is an exact .5 tie the two grids differ.

    The polyphase matrix of the process is rank one at every frequency, so
    no intra-period refinement is needed. The fixed-resolution curves of
    ``ContinuousDrfSolver`` equal this one at every resolution M only for
    the rectangular pulse; otherwise they approach it as M grows (for the
    triangle pulse the relative gap is 1.25e-1, 3.1e-2 and 7.8e-3 at M = 4,
    8 and 16, i.e. O(1/M^2)).
    """
    t0 = spec.period
    grid = half_grid(0.5, n_grid, spec.phi_breakpoints())
    return ScalarWaterfiller(spec.shaped_profile(grid.nodes / t0), grid.weights / t0,
                             d_scale=1.0 / t0, r_scale=0.5)


# ---------------------------------------------------------------------------
# combined sampling and source coding
# ---------------------------------------------------------------------------

def sampled_coding(base: StationaryPsd, fs: float,
                   n_grid: int = 2048) -> tuple[float, ScalarWaterfiller]:
    """(MMSE, waterfiller) of sampling at fs, then coding the MMSE estimate.

    The estimate is the pulse-amplitude process of the samples with the
    Wiener pulse, so its waterfiller is the PAM closed form; its level is
    theta / fs for a level theta on the estimate's density folded onto
    (-fs/2, fs/2). The MMSE is the source power minus D(rate 0).
    """
    spec = PamCyclicSpectrum(base, wiener_pulse(base, fs), 1.0 / fs)
    sw = pam_waterfiller(spec, n_grid)
    return max(base.total_power - sw.solve(0.0).distortion, 0.0), sw
