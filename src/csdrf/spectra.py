"""Spectral descriptions of stationary and cyclostationary Gaussian sources.

A stationary source is described by its power spectral density on the real
frequency line. A cyclostationary source with period T0 is described by the
family of cyclic spectral densities indexed by the cycle harmonic n; harmonic
0 is the time-averaged spectrum, and the time-varying spectrum is the Fourier
series over harmonics. Discrete-time sources carry one spectrum per time slot
within the period.

Frequencies are physical (Hz) at this layer. The polyphase machinery maps
them onto the normalized circle phi in [-1/2, 1/2] internally.

Convention note: the cyclic spectra here use the asymmetric time origin
(correlation measured between t+tau and t). References that center the lag
symmetrically define harmonics shifted by half a cycle frequency; converting
to that convention amounts to evaluating harmonic n at f - n/(2*T0).
"""

from __future__ import annotations

from math import ceil, floor, isfinite

import numpy as np

from .quadrature import fold_breakpoints, gauss_segments, segmented_midpoint

TWO_PI = 2.0 * np.pi


class TruncationError(RuntimeError):
    """An infinite spectral series could not be truncated within tolerance."""


# Largest T0 times support radius that a model may have. A lattice fold or an
# alias series over spacing 1/T0 sums about twice that many shifts at every
# frequency, and the Wiener pulse folds a fold, so its cost grows as the
# square; every built-in source at this bound runs each command in about a
# second at the default grids (README "Numerical notes").
MAX_ALIASES = 64.0


class AliasCountError(ValueError):
    """A model whose lattice folds would take more than ``MAX_ALIASES`` shifts."""


def _check_aliases(what: str, period: float, radius: float) -> None:
    """Refuse a finite ``radius`` whose folds over spacing 1/period exceed the bound."""
    if isfinite(radius) and not period * radius <= MAX_ALIASES:
        raise AliasCountError(
            f"{what}: T0 times the support radius is {period * radius:.6g}, above "
            f"MAX_ALIASES = {MAX_ALIASES:g}; its lattice folds would take too many shifts")


def _lattice_fold(fn, f, radius: float, period: float) -> np.ndarray:
    """sum_l fn(f - l/period) for a function that vanishes outside |x| <= radius.

    Every shift that can reach the support at some f is summed, in ascending
    l. The folded base density, the aliased pulse energy and the Wiener pulse
    all fold through here.
    """
    f = np.asarray(f, dtype=float)
    out = np.zeros(f.shape, dtype=float)
    lo = floor((f.min() - radius) * period) - 1
    hi = ceil((f.max() + radius) * period) + 1
    for l in range(lo, hi + 1):
        out += fn(f - l / period)
    return out


# ---------------------------------------------------------------------------
# stationary sources
# ---------------------------------------------------------------------------

class StationaryPsd:
    """Nonnegative, even power spectral density of a real stationary source.

    Parameters
    ----------
    fn : callable
        Vectorized density, power per Hz. Must satisfy fn(f) = fn(-f) >= 0.
    support_radius : float
        Smallest radius outside which the density vanishes (may be inf).
    total_power : float
        Integral of the density over the real line.
    breakpoints : sequence of float
        Frequencies where the density jumps or kinks; quadrature grids pin
        cell edges to these points.
    autocorr : callable, optional
        Closed-form autocorrelation (inverse transform of the density), used
        by covariance-kernel builders when available.
    """

    def __init__(self, fn, support_radius, total_power, breakpoints=(),
                 autocorr=None, name=""):
        self._fn = fn
        self.support_radius = float(support_radius)
        self.total_power = float(total_power)
        self.breakpoints = tuple(sorted(set(float(b) for b in breakpoints)))
        self.autocorr = autocorr
        self.name = name
        self.negative_clip_count = 0

    def __call__(self, f):
        return self._fn(np.asarray(f, dtype=float))

    def __repr__(self):
        return f"StationaryPsd({self.name or 'custom'}, f_max={self.support_radius}, power={self.total_power})"


def flat_psd(f_cut: float, power: float = 1.0) -> StationaryPsd:
    """Flat density of the given total power on [-f_cut, f_cut]."""
    if f_cut <= 0:
        raise ValueError("f_cut must be positive")
    h = power / (2.0 * f_cut)

    def fn(f):
        return np.where(np.abs(f) <= f_cut, h, 0.0)

    def autocorr(tau):
        return power * np.sinc(2.0 * f_cut * np.asarray(tau, dtype=float))

    return StationaryPsd(fn, f_cut, power, (-f_cut, f_cut), autocorr, "flat")


def triangular_psd(f_cut: float, power: float = 1.0) -> StationaryPsd:
    """Triangular density peaking at f = 0, supported on [-f_cut, f_cut]."""
    if f_cut <= 0:
        raise ValueError("f_cut must be positive")
    h = power / f_cut

    def fn(f):
        return h * np.maximum(1.0 - np.abs(f) / f_cut, 0.0)

    def autocorr(tau):
        return power * np.sinc(f_cut * np.asarray(tau, dtype=float)) ** 2

    return StationaryPsd(fn, f_cut, power, (-f_cut, 0.0, f_cut), autocorr, "triangular")


def raised_cosine_psd(f_cut: float, power: float = 1.0) -> StationaryPsd:
    """Smooth raised-cosine density 0.5*h*(1 + cos(pi f / f_cut)) on [-f_cut, f_cut]."""
    if f_cut <= 0:
        raise ValueError("f_cut must be positive")
    h = power / f_cut

    def fn(f):
        f = np.asarray(f, dtype=float)
        inside = np.abs(f) <= f_cut
        out = np.zeros_like(f)
        out[inside] = 0.5 * h * (1.0 + np.cos(np.pi * f[inside] / f_cut))
        return out

    def autocorr(tau):
        x = 2.0 * f_cut * np.asarray(tau, dtype=float)
        return power * (np.sinc(x) + 0.5 * np.sinc(x - 1.0) + 0.5 * np.sinc(x + 1.0))

    return StationaryPsd(fn, f_cut, power, (-f_cut, f_cut), autocorr, "raised_cosine")


def tabulated_psd(freqs, values) -> StationaryPsd:
    """Linearly interpolated density from samples; negatives are clamped to 0.

    The input is symmetrized so the evenness invariant holds exactly. The
    number of clamped evaluations is tracked on ``negative_clip_count``.
    """
    freqs = np.asarray(freqs, dtype=float)
    values = np.asarray(values, dtype=float)
    if freqs.ndim != 1 or freqs.size < 2 or freqs.shape != values.shape:
        raise ValueError("need matching 1-d frequency and value arrays")
    if np.any(np.diff(freqs) <= 0):
        raise ValueError("frequencies must be strictly increasing")
    f_max = max(abs(freqs[0]), abs(freqs[-1]))

    psd = None

    def raw(f):
        return np.interp(f, freqs, values, left=0.0, right=0.0)

    def fn(f):
        f = np.asarray(f, dtype=float)
        out = 0.5 * (raw(f) + raw(-f))
        neg = out < 0.0
        if np.any(neg):
            psd.negative_clip_count += int(np.count_nonzero(neg))
            out = np.where(neg, 0.0, out)
        return out

    dense = np.linspace(-f_max, f_max, 4 * freqs.size + 1)
    power = float(np.trapezoid(np.maximum(0.5 * (raw(dense) + raw(-dense)), 0.0), dense))
    psd = StationaryPsd(fn, f_max, power, (-f_max, f_max), None, "tabulated")
    return psd


# ---------------------------------------------------------------------------
# pulse shapes
# ---------------------------------------------------------------------------

class PulseShape:
    """Deterministic finite-energy pulse, described in the frequency domain.

    ``fourier`` is the transform P(f) (complex); ``energy`` is the integral of
    the squared pulse, which equals the integral of |P|^2 by Parseval. Either
    the frequency support or the time window should be finite so aliased
    energy sums can be truncated exactly.
    """

    def __init__(self, fourier, energy, support_radius, time_fn=None,
                 time_window=None, breakpoints=(), name=""):
        self._fourier = fourier
        self.energy = float(energy)
        self.support_radius = float(support_radius)
        self.time_fn = time_fn
        self.time_window = tuple(time_window) if time_window is not None else None
        self.breakpoints = tuple(sorted(set(float(b) for b in breakpoints)))
        self.name = name

    def fourier(self, f):
        return self._fourier(np.asarray(f, dtype=float))

    def __repr__(self):
        return f"PulseShape({self.name or 'custom'}, energy={self.energy})"


def rect_pulse(width: float) -> PulseShape:
    """Unit-height rectangular pulse on [0, width)."""
    if width <= 0:
        raise ValueError("width must be positive")

    def fourier(f):
        return width * np.exp(-1j * np.pi * f * width) * np.sinc(f * width)

    def time_fn(t):
        t = np.asarray(t, dtype=float)
        return ((t >= 0.0) & (t < width)).astype(float)

    return PulseShape(fourier, width, np.inf, time_fn, (0.0, width), (), "rect")


def triangle_pulse(width: float) -> PulseShape:
    """Unit-height triangular pulse on [-width/2, width/2]."""
    if width <= 0:
        raise ValueError("width must be positive")

    def fourier(f):
        return (width / 2.0) * np.sinc(np.asarray(f, dtype=float) * width / 2.0) ** 2

    def time_fn(t):
        t = np.asarray(t, dtype=float)
        return np.maximum(1.0 - np.abs(2.0 * t / width), 0.0)

    return PulseShape(fourier, width / 3.0, np.inf, time_fn,
                      (-width / 2.0, width / 2.0), (), "triangle")


def ideal_interp_pulse(t_symbol: float) -> PulseShape:
    """Unit-gain interpolating pulse sinc(t / t_symbol); P = t_symbol on the Nyquist band."""
    if t_symbol <= 0:
        raise ValueError("t_symbol must be positive")
    f_cut = 0.5 / t_symbol

    def fourier(f):
        return np.where(np.abs(np.asarray(f, dtype=float)) <= f_cut, t_symbol, 0.0).astype(complex)

    def time_fn(t):
        return np.sinc(np.asarray(t, dtype=float) / t_symbol)

    return PulseShape(fourier, t_symbol, f_cut, time_fn, None,
                      (-f_cut, f_cut), "ideal_interp")


def raised_cosine_pulse(t_symbol: float, beta: float = 0.25) -> PulseShape:
    """Raised-cosine spectrum pulse with roll-off beta in (0, 1]."""
    if t_symbol <= 0:
        raise ValueError("t_symbol must be positive")
    if not 0.0 < beta <= 1.0:
        raise ValueError("beta must lie in (0, 1]")
    f1 = (1.0 - beta) / (2.0 * t_symbol)
    f2 = (1.0 + beta) / (2.0 * t_symbol)

    def fourier(f):
        a = np.abs(np.asarray(f, dtype=float))
        out = np.zeros_like(a)
        out[a <= f1] = t_symbol
        roll = (a > f1) & (a <= f2)
        out[roll] = t_symbol * np.cos(np.pi * t_symbol * (a[roll] - f1) / (2.0 * beta)) ** 2
        return out.astype(complex)

    energy = t_symbol * (1.0 - beta / 4.0)
    return PulseShape(fourier, energy, f2, None, None, (-f2, -f1, f1, f2), "raised_cosine")


def wiener_pulse(base: StationaryPsd, fs: float) -> PulseShape:
    """Pulse of the MMSE estimate sum_n U(n/fs) p(t - n/fs) of a source from its samples.

    P(f) = S(f) / (fs sum_k S(f - k fs)), and 0 where the fold vanishes. Its
    support is that of S, and ``energy`` integrates |P|^2 on a grid pinned
    to the lattice shifts of the base breakpoints, where P kinks.
    ``breakpoints`` are the base's own: a fold over 1/fs maps the shifts
    onto the same points.
    """
    if not (isfinite(fs) and fs > 0.0):
        raise ValueError(f"fs must be finite and positive, got {fs!r}")
    f_b = base.support_radius
    if not isfinite(f_b):
        raise ValueError("base must be band-limited (finite support_radius) for a Wiener pulse")
    t0 = 1.0 / fs
    _check_aliases("wiener_pulse", t0, f_b)

    def fourier(f):
        num = base(f)
        den = fs * _lattice_fold(base, f, f_b, t0)
        return np.divide(num, den, out=np.zeros_like(num), where=den > 0.0).astype(complex)

    kinks = [b + k * fs for b in base.breakpoints
             for k in range(ceil((-f_b - b) / fs), floor((f_b - b) / fs) + 1)]
    grid = segmented_midpoint(-f_b, f_b, 4096, kinks)
    energy = float(grid.weights @ np.abs(fourier(grid.nodes)) ** 2)
    return PulseShape(fourier, energy, f_b, None, None, base.breakpoints,
                      f"wiener({base.name},fs={fs:g})")


# ---------------------------------------------------------------------------
# continuous-time cyclostationary spectra
# ---------------------------------------------------------------------------

class CyclicSpectrum:
    """Second-order description of a real Gaussian cyclostationary process.

    ``cpsd(n, f)`` evaluates the harmonic-n cyclic spectral density. The
    active harmonic set and the frequency support radius control how the
    infinite folding sums are truncated; both are exact for the built-in
    constructors (truncation only drops terms that are identically zero).
    """

    def __init__(self, period, cpsd_fn, active_indices, freq_radius, avg_power,
                 breakpoints=(), cyclic_autocorr=None, name=""):
        if period <= 0:
            raise ValueError("period must be positive")
        _check_aliases(name or "cyclic spectrum", period, freq_radius)
        self.period = float(period)
        self._cpsd_fn = cpsd_fn
        self.active_indices = tuple(active_indices) if active_indices is not None else None
        self.freq_radius = float(freq_radius)
        self.avg_power = float(avg_power)
        self.breakpoints = tuple(sorted(set(float(b) for b in breakpoints)))
        self._cyclic_autocorr = cyclic_autocorr
        self.name = name
        self._quad_cache = None

    # -- harmonic access ----------------------------------------------------

    def cpsd(self, n: int, f):
        """Cyclic spectral density of harmonic n at frequencies f."""
        if self.active_indices is not None and n not in self.active_indices:
            return np.zeros_like(np.asarray(f, dtype=float), dtype=complex)
        return np.asarray(self._cpsd_fn(n, np.asarray(f, dtype=float)), dtype=complex)

    def _require_finite(self, what):
        if self.active_indices is None:
            raise TruncationError(
                f"{what}: the harmonic series of {self.name or 'this spectrum'} does not "
                "truncate (unbounded active set); no tail bound below tolerance is available")
        if not isfinite(self.freq_radius):
            raise TruncationError(f"{what}: unbounded frequency support")

    # -- derived spectra ------------------------------------------------------

    def tpsd(self, t: float, f):
        """Time-varying spectral density at time t (complex in general)."""
        self._require_finite("tpsd")
        f = np.asarray(f, dtype=float)
        out = np.zeros(f.shape, dtype=complex)
        for n in self.active_indices:
            out += self.cpsd(n, f) * np.exp(TWO_PI * 1j * n * t / self.period)
        return out

    def pc_psd(self, t, phi):
        """Spectrum of the phase-t polyphase component on the normalized circle.

        Folds the time-varying spectrum over the sampling lattice 1/period:
        Re sum_n e^{2 pi i n t / T0} F_n(phi) / T0, where F_n(phi) is
        cpsd(n, .) summed over the lattice shifts (phi - k) / T0. Each F_n is
        folded once, whatever the number of phases; ``t`` may be an array,
        and the result has shape t.shape + phi.shape. Every phase is summed
        elementwise, so a phase's row does not depend on the others. The
        fold is real and nonnegative up to rounding.
        """
        self._require_finite("pc_psd")
        t = np.asarray(t, dtype=float)
        phi = np.asarray(phi, dtype=float)
        kr = self.period * self.freq_radius
        shifts = range(floor(phi.min() - kr), ceil(phi.max() + kr) + 1)
        out = np.zeros(t.shape + phi.shape)
        for n in self.active_indices:
            fold = np.zeros(phi.shape, dtype=complex)
            for k in shifts:
                fold += self.cpsd(n, (phi - k) / self.period)
            out += np.multiply.outer(np.exp(TWO_PI * 1j * n * t / self.period), fold).real
        return np.maximum(out / self.period, 0.0)

    def phi_breakpoints(self):
        """Physical breakpoints folded onto the normalized circle."""
        return fold_breakpoints(self.breakpoints, self.period)

    # -- lag-domain access ----------------------------------------------------

    def cyclic_autocorr(self, n, tau):
        """Harmonic-n cyclic autocorrelation (inverse transform of cpsd(n, .)).

        ``n`` is one harmonic or a 1-d array of them; an array gives one
        stacked row per harmonic, shaped n.shape + tau.shape. Without a closed
        form, the transform runs on a Gauss grid whose exponential matrix is
        built once, for every harmonic, over the distinct values of |tau|:
        since cpsd(n, .) carries real weights, a negative lag is
        conj(E @ conj(w * cpsd(n, .))) with the same matrix E.
        """
        if np.ndim(n) > 1:
            raise ValueError(f"harmonics must be a scalar or a 1-d array, got shape "
                             f"{np.shape(n)}")
        harmonics = np.atleast_1d(n).tolist()
        tau = np.asarray(tau, dtype=float)
        out = np.empty((len(harmonics),) + tau.shape, dtype=complex)
        if self._cyclic_autocorr is not None:
            for row, h in zip(out, harmonics):
                row[...] = self._cyclic_autocorr(h, tau)
            return out if np.ndim(n) else out[0]
        self._require_finite("cyclic_autocorr")
        if self._quad_cache is None:
            r = self.freq_radius
            self._quad_cache = gauss_segments(-r, r, self.breakpoints, min_cells=128)
        nodes, weights = self._quad_cache
        mag, where = np.unique(np.abs(tau), return_inverse=True)
        where = where.reshape(-1)
        negative = np.flatnonzero(tau.reshape(-1) < 0.0)
        kern = np.exp(TWO_PI * 1j * np.multiply.outer(mag, nodes))
        for row, h in zip(out.reshape(len(harmonics), -1), harmonics):
            spectrum = weights * self.cpsd(h, nodes)
            row[:] = (kern @ spectrum)[where]
            if negative.size:
                row[negative] = np.conj(kern @ np.conj(spectrum))[where[negative]]
        return out if np.ndim(n) else out[0]

    def covariance(self, times):
        """Covariance matrix E[X(t_i) X(t_j)] at the times of a 1-d vector.

        Entry (i, j) is sum_n cyclic_autocorr(n, t_i - t_j) exp(2 pi i n t_j / T0).
        One ``cyclic_autocorr`` call evaluates every active harmonic at the
        distinct values of t_i - t_j, and each harmonic's row is gathered into
        the matrix, so the lag-domain work grows with the number of distinct
        lags, not with n^2, and a quadrature transform builds its exponential
        matrix once per kernel.
        """
        self._require_finite("covariance")
        t = _time_vector(times)
        lags, where = np.unique(np.subtract.outer(t, t), return_inverse=True)
        where = where.reshape(t.size, t.size)
        rows = self.cyclic_autocorr(np.array(self.active_indices), lags)
        out = np.zeros((t.size, t.size), dtype=complex)
        for n, row in zip(self.active_indices, rows):
            out += row[where] * np.exp(TWO_PI * 1j * n * t / self.period)
        return out.real


def _time_vector(times) -> np.ndarray:
    t = np.asarray(times, dtype=float)
    if t.ndim != 1:
        raise ValueError(f"times must be a 1-d vector, got shape {t.shape}")
    return t


def am_cpsd(base: StationaryPsd, f0: float, phase: float = 0.0) -> CyclicSpectrum:
    """Cyclic spectrum of sqrt(2) * U(t) * cos(2 pi f0 t + phase).

    The sqrt(2) factor preserves the average power of the baseband source,
    so ``avg_power`` equals ``base.total_power``. Only harmonics 0 and +-2
    are active.
    """
    if f0 <= 0:
        raise ValueError("carrier frequency f0 must be positive")

    def cpsd_fn(n, f):
        if n == 0:
            return 0.5 * (base(f + f0) + base(f - f0)).astype(complex)
        if n == 2:
            return 0.5 * base(f - f0) * np.exp(2j * phase)
        if n == -2:
            return 0.5 * base(f + f0) * np.exp(-2j * phase)
        return np.zeros_like(np.asarray(f, dtype=float), dtype=complex)

    cyc_ac = None
    if base.autocorr is not None:
        def cyc_ac(n, tau):
            r = base.autocorr(tau)
            if n == 0:
                return r * np.cos(TWO_PI * f0 * tau)
            if n == 2:
                return 0.5 * r * np.exp(1j * (TWO_PI * f0 * tau + 2.0 * phase))
            if n == -2:
                return 0.5 * r * np.exp(-1j * (TWO_PI * f0 * tau + 2.0 * phase))
            return np.zeros_like(np.asarray(tau, dtype=float), dtype=complex)

    breaks = [b + f0 for b in base.breakpoints] + [b - f0 for b in base.breakpoints]
    return CyclicSpectrum(
        period=1.0 / f0,
        cpsd_fn=cpsd_fn,
        active_indices=(-2, 0, 2),
        freq_radius=base.support_radius + f0,
        avg_power=base.total_power,
        breakpoints=breaks,
        cyclic_autocorr=cyc_ac,
        name=f"am({base.name})",
    )


def am_gaussian_psd(base: StationaryPsd, f0: float) -> StationaryPsd:
    """Stationary density 0.5*S(f-f0) + 0.5*S(f+f0) of the modulated source.

    A Gaussian source with this density upper-bounds the distortion-rate
    curve of the modulated process at every rate.
    """
    if f0 <= 0:
        raise ValueError("carrier frequency f0 must be positive")

    def fn(f):
        return 0.5 * (base(f - f0) + base(f + f0))

    autocorr = None
    if base.autocorr is not None:
        def autocorr(tau):
            return base.autocorr(tau) * np.cos(TWO_PI * f0 * np.asarray(tau, dtype=float))

    breaks = [b + f0 for b in base.breakpoints] + [b - f0 for b in base.breakpoints]
    return StationaryPsd(fn, base.support_radius + f0, base.total_power,
                         breaks, autocorr, f"am_psd({base.name})")


class PamCyclicSpectrum(CyclicSpectrum):
    """Cyclic spectrum of sum_n U(n T0) p(t - n T0).

    The harmonic densities factor as (1/T0) P(f) conj(P(f - n/T0)) Q(f),
    where Q is the spectrum of the sampled sequence U(n T0), i.e. the base
    density folded over the sampling lattice. Because Q is 1/T0-periodic,
    the polyphase matrix of this process is an exact rank-one Gram matrix,
    which the dedicated hooks below expose to the polyphase layer.
    """

    def __init__(self, base: StationaryPsd, pulse: PulseShape, t_symbol: float):
        if t_symbol <= 0:
            raise ValueError("symbol time must be positive")
        _check_aliases(f"pam({base.name})", t_symbol, base.support_radius)
        self.base = base
        self.pulse = pulse
        t0 = float(t_symbol)

        if isfinite(pulse.support_radius):
            nmax = floor(2.0 * pulse.support_radius * t0 + 1e-12)
            active = tuple(range(-nmax, nmax + 1))
            radius = pulse.support_radius
        else:
            active = None       # e.g. rectangular pulse: every harmonic carries energy
            radius = np.inf

        breaks = set()
        half = 0.5 / t0
        for b in base.breakpoints:
            breaks.update(fold_breakpoints([b], t0))
        for b in pulse.breakpoints:
            breaks.update(fold_breakpoints([b], t0))
        band_breaks = tuple(sorted(x / t0 for x in breaks))  # physical f inside the band

        super().__init__(
            period=t0,
            cpsd_fn=self._cpsd_impl,
            active_indices=active,
            freq_radius=radius,
            avg_power=np.nan,   # filled below once the profile machinery exists
            breakpoints=band_breaks,
            name=f"pam({base.name},{pulse.name})",
        )
        self._band_breaks = band_breaks
        self.avg_power = self._integrate_profile() / t0

    # -- spectral building blocks --------------------------------------------

    def sampled_base_psd(self, f):
        """Folded base density (1/T0) sum_l S(f - l/T0): spectrum of the samples."""
        return _lattice_fold(self.base, f, self.base.support_radius, self.period) / self.period

    def pulse_energy_fold(self, f):
        """Aliased pulse energy sum_k |P(f - k/T0)|^2.

        For pulses with compact frequency support the sum is finite. For
        pulses confined to a single symbol interval in time the lattice
        autocorrelation collapses and the fold is the constant T0 * energy.
        """
        f = np.asarray(f, dtype=float)
        t0 = self.period
        if isfinite(self.pulse.support_radius):
            def energy(x):
                p = self.pulse.fourier(x)
                return (p * p.conj()).real
            return _lattice_fold(energy, f, self.pulse.support_radius, t0)
        win = self.pulse.time_window
        if win is not None and (win[1] - win[0]) <= t0 * (1.0 + 1e-12):
            return np.full(f.shape, t0 * self.pulse.energy)
        raise TruncationError(
            "pulse_energy_fold: pulse has neither compact frequency support nor a "
            "time window inside one symbol; aliased energy cannot be truncated")

    def shaped_profile(self, f):
        """Reverse-waterfilling profile on the Nyquist band: Q(f) * pulse fold."""
        return self.sampled_base_psd(f) * self.pulse_energy_fold(f)

    def band_grid(self, n: int):
        """Quadrature grid on (-1/(2 T0), 1/(2 T0)) aligned to profile breakpoints."""
        half = 0.5 / self.period
        return segmented_midpoint(-half, half, n, self._band_breaks)

    def _integrate_profile(self, n: int = 4096) -> float:
        g = self.band_grid(n)
        return float(g.weights @ self.shaped_profile(g.nodes))

    # -- cyclic spectra --------------------------------------------------------

    def _cpsd_impl(self, n, f):
        t0 = self.period
        p1 = self.pulse.fourier(f)
        p2 = self.pulse.fourier(f - n / t0)
        return p1 * p2.conj() * self.sampled_base_psd(f) / t0

    # -- polyphase structure ----------------------------------------------------

    def synthesis_gain(self, t: float, phi):
        """Gain g(t, phi) = sum_a p(a T0 + t) e^{-2 pi i phi a} of the pulse bank."""
        phi = np.asarray(phi, dtype=float)
        t0 = self.period
        win = self.pulse.time_window
        if win is not None and self.pulse.time_fn is not None:
            a_lo = ceil((win[0] - t) / t0 - 1e-12)
            a_hi = floor((win[1] - t) / t0 + 1e-12)
            out = np.zeros(phi.shape, dtype=complex)
            for a in range(a_lo, a_hi + 1):
                w = float(self.pulse.time_fn(a * t0 + t))
                if w != 0.0:
                    out += w * np.exp(-TWO_PI * 1j * phi * a)
            return out
        if isfinite(self.pulse.support_radius):
            fp = self.pulse.support_radius
            out = np.zeros(phi.shape, dtype=complex)
            lo = floor(phi.min() - fp * t0) - 1
            hi = ceil(phi.max() + fp * t0) + 1
            for l in range(lo, hi + 1):
                x = phi + l
                out += self.pulse.fourier(x / t0) * np.exp(TWO_PI * 1j * x * t / t0) / t0
            return out
        raise TruncationError("synthesis_gain: pulse representable in neither domain")

    def polyphase_factor(self, dim: int, phi):
        """Rank-one factorization of the polyphase matrix at the given phis.

        Returns (fold, g) with fold the folded base spectrum evaluated on the
        circle and g the (n_phi, dim) matrix of synthesis gains at the phases
        m*T0/dim; the polyphase matrix is fold * g g^H.
        """
        phi = np.asarray(phi, dtype=float)
        fold = self.sampled_base_psd(phi / self.period)
        g = np.empty(phi.shape + (dim,), dtype=complex)
        for m in range(dim):
            g[..., m] = self.synthesis_gain(m * self.period / dim, phi)
        return fold, g

    def pc_psd(self, t, phi):
        """Phase-t component spectrum fold * |g(t, phi)|^2, the fold taken
        once for every phase in ``t``; shaped t.shape + phi.shape."""
        t = np.asarray(t, dtype=float)
        phi = np.asarray(phi, dtype=float)
        fold = self.sampled_base_psd(phi / self.period)
        gains = np.array([self.synthesis_gain(ti, phi) for ti in t.ravel()])
        power = (gains * gains.conj()).real.reshape(t.shape + phi.shape)
        return fold * power

    def phi_breakpoints(self):
        return fold_breakpoints(self._band_breaks, self.period)

    def covariance(self, times):
        """Covariance matrix P R_U P^T for pulses with a time window.

        P[i, b] = p(t_i - b T0) over every symbol b whose pulse window meets
        the times, and R_U is the Toeplitz matrix of the base autocorrelation
        at whole-symbol lags. Other pulses take the generic lag-domain path.
        """
        win = self.pulse.time_window
        if win is None or self.pulse.time_fn is None or self.base.autocorr is None:
            return super().covariance(times)
        t = _time_vector(times)
        t0 = self.period
        symbols = np.arange(floor((t.min() - win[1]) / t0) - 1,
                            ceil((t.max() - win[0]) / t0) + 2)
        pulses = self.pulse.time_fn(np.subtract.outer(t, symbols * t0))
        r_u = self.base.autocorr(np.arange(1 - symbols.size, symbols.size) * t0).real
        toeplitz = r_u[np.subtract.outer(symbols, symbols) + symbols.size - 1]
        return pulses @ toeplitz @ pulses.T


def pam_cpsd(base: StationaryPsd, pulse: PulseShape, t_symbol: float) -> PamCyclicSpectrum:
    """Cyclic spectrum of the pulse-amplitude process sum_n U(n T0) p(t - n T0)."""
    return PamCyclicSpectrum(base, pulse, t_symbol)


def stationary_cyclic(base: StationaryPsd, period: float) -> CyclicSpectrum:
    """A stationary source viewed as cyclostationary with an arbitrary period.

    Only harmonic 0 is active; useful for reduction checks, since every
    polyphase quantity then collapses to the folded stationary density.
    """
    def cpsd_fn(n, f):
        if n == 0:
            return base(f).astype(complex)
        return np.zeros_like(np.asarray(f, dtype=float), dtype=complex)

    cyc_ac = None
    if base.autocorr is not None:
        def cyc_ac(n, tau):
            tau = np.asarray(tau, dtype=float)
            if n == 0:
                return base.autocorr(tau).astype(complex)
            return np.zeros_like(tau, dtype=complex)

    return CyclicSpectrum(period, cpsd_fn, (0,), base.support_radius,
                          base.total_power, base.breakpoints, cyc_ac,
                          f"stationary({base.name})")


# ---------------------------------------------------------------------------
# discrete-time cyclostationary processes
# ---------------------------------------------------------------------------

class DiscreteCsProcess:
    """Discrete-time Gaussian process whose covariance is periodic in time.

    ``tpsd(n, phi)`` is the slot-n spectrum, the transform of the covariance
    sequence seen from time slot n. Slot spectra of processes with memory are
    complex-valued in general; validity is enforced through the positive
    semidefiniteness of the polyphase matrix they generate.

    The process is real: its covariance is real, so every slot spectrum
    satisfies tpsd(n, -phi) = conj(tpsd(n, phi)). The polyphase matrix at
    -phi is then the conjugate of the matrix at phi, with the same
    eigenvalues, and ``discrete_waterfiller`` decomposes only the half
    phi >= 0 of its grid. A ``tpsd_fn`` without this symmetry is outside the
    contract and gives a wrong curve.
    """

    def __init__(self, period: int, tpsd_fn, avg_power: float, cov_table=None,
                 phi_breakpoints=(), name=""):
        if period < 1:
            raise ValueError("period must be a positive integer")
        self.period = int(period)
        self._tpsd_fn = tpsd_fn
        self.avg_power = float(avg_power)
        self._cov_table = cov_table          # (M, 2L+1) lags -L..L, or None
        self.phi_breakpoints = tuple(phi_breakpoints)
        self.name = name

    def tpsd(self, n: int, phi):
        return np.asarray(self._tpsd_fn(int(n) % self.period, np.asarray(phi, dtype=float)),
                          dtype=complex)

    @property
    def cov_table(self) -> np.ndarray:
        """The table R[n, k] = E[X[n+k] X[n]], shaped (M, 2L+1) over lags -L..L."""
        if self._cov_table is None:
            raise ValueError("process was not built from a covariance table")
        return self._cov_table

    def cov(self, n: int, k: int) -> float:
        """Covariance E[X[n+k] X[n]]; zero beyond the stored memory."""
        table = self.cov_table
        lmax = (table.shape[1] - 1) // 2
        if abs(k) > lmax:
            return 0.0
        return float(table[int(n) % self.period, k + lmax])

    @property
    def memory(self) -> int:
        if self._cov_table is None:
            return 0
        return (self._cov_table.shape[1] - 1) // 2

    @classmethod
    def from_covariance(cls, table, name="") -> "DiscreteCsProcess":
        """Build from a covariance table R[n, k], n in 0..M-1, lags -L..L.

        Consistency R[n, -k] = R[(n-k) mod M, k] is required; it is what makes
        the table the covariance of an actual process.
        """
        table = np.asarray(table, dtype=float)
        if table.ndim != 2 or table.shape[1] % 2 != 1:
            raise ValueError("table must be (M, 2L+1) with lags -L..L")
        if not np.all(np.isfinite(table)):
            raise ValueError("covariance table must be finite")
        m, width = table.shape
        lmax = (width - 1) // 2
        for n in range(m):
            for k in range(1, lmax + 1):
                lhs = table[n, lmax - k]
                rhs = table[(n - k) % m, lmax + k]
                if abs(lhs - rhs) > 1e-12 * max(1.0, abs(lhs), abs(rhs)):
                    raise ValueError(
                        f"covariance table inconsistent at n={n}, k={k}: "
                        f"R[n,-k]={lhs} vs R[n-k,k]={rhs}")
        lags = np.arange(-lmax, lmax + 1)

        def tpsd_fn(n, phi):
            return table[n] @ np.exp(-TWO_PI * 1j * np.multiply.outer(lags, phi))

        avg_power = float(np.mean(table[:, lmax]))
        return cls(m, tpsd_fn, avg_power, cov_table=table, name=name or "from_covariance")


def white_cs(variances) -> DiscreteCsProcess:
    """Independent samples with periodically varying variances."""
    variances = np.asarray(variances, dtype=float)
    if variances.ndim != 1 or variances.size < 1 or np.any(variances < 0):
        raise ValueError("variances must be a 1-d nonnegative array")
    m = variances.size
    table = np.zeros((m, 1))
    table[:, 0] = variances
    return DiscreteCsProcess.from_covariance(table, name="white_cs")


def modulated_ma(scales, taps) -> DiscreteCsProcess:
    """Periodic scaling of a moving-average process: X[n] = c[n mod M] Y[n].

    Y is the unit-white MA filter with the given taps, so R[n, k] =
    c[n+k] c[n] rho(k) with rho the tap autocorrelation. Valid by construction.
    """
    c = np.asarray(scales, dtype=float)
    h = np.asarray(taps, dtype=float)
    if c.ndim != 1 or h.ndim != 1:
        raise ValueError("scales and taps must be 1-d")
    m = c.size
    lmax = h.size - 1
    table = np.zeros((m, 2 * lmax + 1))
    # a product that overflows is refused by from_covariance as non-finite
    with np.errstate(over="ignore", invalid="ignore"):
        rho = np.correlate(h, h, mode="full")    # lags -(L-1)..(L-1)
        for n in range(m):
            for k in range(-lmax, lmax + 1):
                table[n, k + lmax] = c[(n + k) % m] * c[n] * rho[k + lmax]
    return DiscreteCsProcess.from_covariance(table, name="modulated_ma")


# ---------------------------------------------------------------------------
# shared power accounting
# ---------------------------------------------------------------------------

def average_power(spec) -> float:
    """Time-averaged power of a spectral description.

    Continuous spectra integrate harmonic 0; discrete processes average the
    integrals of the slot spectra over the circle (which are the slot
    variances). Raises TruncationError when the integral cannot be truncated.
    """
    if isinstance(spec, PamCyclicSpectrum):
        return spec._integrate_profile() / spec.period
    if isinstance(spec, CyclicSpectrum):
        spec._require_finite("average_power")
        nodes, weights = gauss_segments(-spec.freq_radius, spec.freq_radius,
                                        spec.breakpoints, min_cells=256)
        return float((weights @ spec.cpsd(0, nodes)).real)
    if isinstance(spec, DiscreteCsProcess):
        grid = segmented_midpoint(-0.5, 0.5, 1024, spec.phi_breakpoints)
        vals = [float((grid.weights @ spec.tpsd(n, grid.nodes)).real)
                for n in range(spec.period)]
        return float(np.mean(vals))
    if isinstance(spec, StationaryPsd):
        return spec.total_power
    raise TypeError(f"unsupported spectral description: {type(spec)!r}")
