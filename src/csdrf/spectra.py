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

# entries of the largest temporary that a stacked step builds at once: a
# block of the bounds' level rows and of their stacked solve, of a kernel's
# rows, or of a quadrature transform's lags. 2^13 float64 values are 64 kB,
# well below the allocator's mmap threshold, so a block's buffers are reused
# rather than mapped and faulted in again on every call.
BLOCK_ENTRIES = 2 ** 13


def row_blocks(rows: int, width: int):
    """Slices that split ``rows`` rows of ``width`` entries into blocks of about
    ``BLOCK_ENTRIES`` entries, each of at least two rows unless ``rows`` is 1.

    A matrix product with a single row runs another BLAS routine (a dot
    product) than the same row inside a larger product, and rounds
    differently; with no lone row in a block, every row of a blocked product
    is the row of the whole product bit for bit.
    """
    step = max(2, BLOCK_ENTRIES // max(width, 1))
    start = 0
    while start < rows:
        stop = start + step
        if stop >= rows - 1:        # the last block takes a lone last row
            stop = rows
        yield slice(start, stop)
        start = stop


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
    l; the sum is real or complex as ``fn`` is. The folded base density, the
    aliased pulse energy, the Wiener pulse, the polyphase component spectra
    and the pulse bank's gain all fold through here.
    """
    f = np.asarray(f, dtype=float)
    lo = floor((f.min() - radius) * period) - 1
    hi = ceil((f.max() + radius) * period) + 1
    return sum(fn(f - l / period) for l in range(lo, hi + 1))


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
    number of clamped evaluations is tracked on ``negative_clip_count``. The
    density is affine between its kinks, every +-f_i and each zero where the
    clamp bends it, so those are its breakpoints, and its power is the exact
    integral: on each piece between kinks, the length times the midpoint value.
    """
    freqs = np.asarray(freqs, dtype=float)
    values = np.asarray(values, dtype=float)
    if freqs.ndim != 1 or freqs.size < 2 or freqs.shape != values.shape:
        raise ValueError("need matching 1-d frequency and value arrays")
    if np.any(np.diff(freqs) <= 0):
        raise ValueError("frequencies must be strictly increasing")

    psd = None

    def raw(f, side=0):
        """The interpolant, or its limit from the right (side 1) or left (-1)."""
        out = np.interp(f, freqs, values, left=0.0, right=0.0)
        if side:        # the limit outside the table's last (first) knot is 0
            out = np.where(f == (freqs[-1] if side > 0 else freqs[0]), 0.0, out)
        return out

    def even(f):
        return 0.5 * (raw(f) + raw(-f))

    def fn(f):
        out = even(np.asarray(f, dtype=float))
        neg = out < 0.0
        if np.any(neg):
            psd.negative_clip_count += int(np.count_nonzero(neg))
            out = np.where(neg, 0.0, out)
        return out

    # on the half line, the affine piece between knots a < b changes sign at
    # most once, where its limits at the ends differ in sign (their product
    # may underflow)
    knots = np.union1d(np.abs(freqs), 0.0)
    a, b = knots[:-1], knots[1:]
    at_a, at_b = 0.5 * (raw(a, 1) + raw(-a, -1)), 0.5 * (raw(b, -1) + raw(-b, 1))
    bent = np.sign(at_a) * np.sign(at_b) < 0.0
    zeros = a[bent] + (b - a)[bent] * at_a[bent] / (at_a - at_b)[bent]
    edges = np.union1d(knots, zeros)
    power = 2.0 * float(np.diff(edges) @ np.maximum(even(0.5 * (edges[:-1] + edges[1:])), 0.0))
    psd = StationaryPsd(fn, knots[-1], power, np.concatenate([freqs, -freqs, zeros, -zeros]),
                        None, "tabulated")
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

    return PulseShape(fourier, t_symbol, f_cut, breakpoints=(-f_cut, f_cut), name="ideal_interp")


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
    to the lattice shifts of the base breakpoints, where P kinks: the fold of
    the breakpoints (``fold_breakpoints``) onto [-f_B, f_B] in units of fs.
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

    kinks = [fs * x for x in fold_breakpoints(base.breakpoints, t0, -f_b * t0, f_b * t0)]
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
    A real process has a Hermitian cyclic spectrum,
    cpsd(-n, f) = conj(cpsd(n, f + n/T0)); the polyphase builders rely on it
    to drop alias columns beyond the truncated rows, so a custom ``cpsd_fn``
    must satisfy it.
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

    def _active(self, n: int) -> bool:
        """Whether harmonic n may carry energy; an inactive one is exactly zero."""
        return self.active_indices is None or n in self.active_indices

    def cpsd(self, n: int, f):
        """Cyclic spectral density of harmonic n at frequencies f."""
        if not self._active(n):
            return np.zeros_like(np.asarray(f, dtype=float), dtype=complex)
        return np.asarray(self._cpsd_fn(n, np.asarray(f, dtype=float)), dtype=complex)

    @property
    def truncates(self) -> bool:
        """Whether its harmonic and alias series truncate: a finite active set
        and a finite support radius."""
        return self.active_indices is not None and isfinite(self.freq_radius)

    def _require_finite(self, what):
        if not self.truncates:
            raise TruncationError(
                f"{what}: the harmonic/alias series of {self.name or 'this spectrum'} does "
                "not truncate (unbounded active set or frequency support)")

    # -- derived spectra ------------------------------------------------------

    def phase_spectra(self, phi):
        """The function t -> the phase-t component spectra on the normalized
        circle, shaped t.shape + phi.shape: Re sum_n e^{2 pi i n t / T0}
        F_n(phi) / T0, F_n(phi) being cpsd(n, .) summed over the lattice shifts
        (phi - k) / T0, folded once, here. Every phase is summed elementwise, in
        harmonic order, so its row depends neither on the other phases of a call
        nor on how they are split between calls. Real and nonnegative up to rounding.
        """
        self._require_finite("phase_spectra")
        phi = np.asarray(phi, dtype=float)
        folds = [(n, _lattice_fold(lambda x: self.cpsd(n, x / self.period), phi,
                                   self.period * self.freq_radius, 1.0))
                 for n in self.active_indices]

        def at(t):
            t = np.asarray(t, dtype=float)
            out = np.zeros(t.shape + phi.shape)
            for n, fold in folds:
                out += np.multiply.outer(np.exp(TWO_PI * 1j * n * t / self.period), fold).real
            return np.maximum(out / self.period, 0.0)
        return at

    def phi_breakpoints(self):
        """Physical breakpoints folded onto the normalized circle."""
        return fold_breakpoints(self.breakpoints, self.period)

    # -- lag-domain access ----------------------------------------------------

    def cyclic_autocorr(self, n, tau):
        """Harmonic-n cyclic autocorrelation (inverse transform of cpsd(n, .)).

        ``n`` is one harmonic or a 1-d array of them; an array gives one
        stacked row per harmonic, shaped n.shape + tau.shape. Without a closed
        form, the transform runs on a Gauss grid whose exponential matrix E
        is built over the distinct values of |tau|, one block of them at a
        time (``row_blocks``), each block once for every harmonic: since
        cpsd(n, .) carries real weights, a negative lag is
        conj(E @ conj(w * cpsd(n, .))) with the same matrix E. Each lag's
        value is one row of a matrix product, which no block holds alone, so
        it does not depend on the blocks.
        """
        if np.ndim(n) > 1:
            raise ValueError(f"harmonics must be a scalar or a 1-d array, got shape "
                             f"{np.shape(n)}")
        harmonics = np.atleast_1d(n).tolist()
        tau = np.asarray(tau, dtype=float)
        out = np.empty((len(harmonics),) + tau.shape, dtype=complex)
        if self._cyclic_autocorr is not None:
            for row, h in zip(out, harmonics):
                row[...] = self._cyclic_autocorr(h, tau) if self._active(h) else 0.0
            return out if np.ndim(n) else out[0]
        self._require_finite("cyclic_autocorr")
        if self._quad_cache is None:
            r = self.freq_radius
            self._quad_cache = gauss_segments(-r, r, self.breakpoints, min_cells=128)
        nodes, weights = self._quad_cache
        mag, where = np.unique(np.abs(tau), return_inverse=True)
        where = where.reshape(-1)
        negative = np.flatnonzero(tau.reshape(-1) < 0.0)
        spectra = [weights * self.cpsd(h, nodes) for h in harmonics]
        # the transform at each distinct |tau|, and its conjugate form for
        # the negative lags, one block of lags of E at a time
        pos = np.empty((len(harmonics), mag.size), dtype=complex)
        neg = np.empty((len(harmonics), mag.size if negative.size else 0), dtype=complex)
        for lags in row_blocks(mag.size, nodes.size):
            kern = np.exp(TWO_PI * 1j * np.multiply.outer(mag[lags], nodes))
            for i, spectrum in enumerate(spectra):
                pos[i, lags] = kern @ spectrum
                if negative.size:
                    neg[i, lags] = np.conj(kern @ np.conj(spectrum))
        for row, p, q in zip(out.reshape(len(harmonics), -1), pos, neg):
            row[:] = p[where]
            if negative.size:
                row[negative] = q[where[negative]]
        return out if np.ndim(n) else out[0]

    def covariance(self, times, step):
        """Covariance matrix E[X(t_i) X(t_j)] at times on a lattice of ``step``;
        a model with a ``covariance_factor`` gives its product P R P^T instead.

        Otherwise the times are t_i = t_0 + k_i step with integer k_i (within 1e-6 of a
        step). Entry (i, j) is Re sum_n cyclic_autocorr(n, (k_i - k_j) step)
        exp(2 pi i n t_j / T0): one ``cyclic_autocorr`` call evaluates every
        active harmonic at the integer offsets k step, k = -K..K for
        K = max k_i - min k_i, and each harmonic's row is gathered into the
        matrix, so the lag-domain work grows with the 2K + 1 lags, not with
        n^2, no difference of two times is taken, and a quadrature transform
        builds its exponential matrix once per kernel. The matrix is gathered
        and summed one block of rows at a time (``row_blocks``), so no n x n
        temporary is made beside it.

        The sum accumulates into a real matrix. Harmonic 0 adds the real part
        of its row alone: its factor e^0 is exactly 1 + 0j, so this is the
        real part of the complex product bit for bit. Every other harmonic
        keeps numpy's complex product and adds its real part, because a
        product spelled in real arithmetic rounds differently from numpy's
        (fused) complex multiply. Complex addition is componentwise, so the
        result is the real part of the complex sum bit for bit.
        """
        factor = self.covariance_factor(times)
        if factor is not None:
            return factor_product(factor)
        self._require_finite("covariance")
        t = _time_vector(times)
        k = _lattice_offsets(t, step)
        span = int(k.max() - k.min())
        lags = step * np.arange(-span, span + 1)
        rows = self.cyclic_autocorr(np.array(self.active_indices), lags)
        factors = [None if n == 0 else np.exp(TWO_PI * 1j * n * t / self.period)
                   for n in self.active_indices]
        out = np.zeros((t.size, t.size))
        for part in row_blocks(t.size, t.size):
            block = out[part]
            where = np.subtract.outer(k[part], k) + span
            for row, factor in zip(rows, factors):
                if factor is None:
                    block += row.real[where]
                else:
                    term = row[where]
                    term *= factor
                    block += term.real
        return out

    def covariance_factor(self, times):
        """(P, R) with covariance P R P^T at the times and R symmetric, for
        models whose covariance has such a finite factor; None here."""
        return None


def factor_product(factor) -> np.ndarray:
    """The matrix P R P^T of a covariance factor (P, R)."""
    pulses, inner = factor
    return pulses @ inner @ pulses.T


def _time_vector(times) -> np.ndarray:
    t = np.asarray(times, dtype=float)
    if t.ndim != 1:
        raise ValueError(f"times must be a 1-d vector, got shape {t.shape}")
    return t


def _lattice_offsets(t: np.ndarray, step: float) -> np.ndarray:
    """Integer k_i with t_i = t_0 + k_i step; raises unless every time is
    within 1e-6 of a step of its lattice point."""
    if not (isfinite(step) and step > 0.0):
        raise ValueError(f"lattice step must be finite and positive, got {step!r}")
    offsets = (t - t[0]) / step
    k = np.rint(offsets)
    if np.any(np.abs(offsets - k) > 1e-6):
        raise ValueError(f"times are not on a lattice of step {step!r}")
    return k.astype(np.int64)


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
        return 0.5 * base(f + f0) * np.exp(-2j * phase)     # n == -2

    cyc_ac = None
    if base.autocorr is not None:
        def cyc_ac(n, tau):
            r = base.autocorr(tau)
            if n == 0:
                return r * np.cos(TWO_PI * f0 * tau)
            if n == 2:
                return 0.5 * r * np.exp(1j * (TWO_PI * f0 * tau + 2.0 * phase))
            return 0.5 * r * np.exp(-1j * (TWO_PI * f0 * tau + 2.0 * phase))    # n == -2

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

    breaks = [b + f0 for b in base.breakpoints] + [b - f0 for b in base.breakpoints]
    return StationaryPsd(fn, base.support_radius + f0, base.total_power,
                         breaks, None, f"am_psd({base.name})")


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

        # physical frequencies inside the band where an aliased copy kinks
        band_breaks = [x / t0 for x in fold_breakpoints(base.breakpoints + pulse.breakpoints, t0)]
        super().__init__(
            period=t0,
            cpsd_fn=self._cpsd_impl,
            active_indices=active,
            freq_radius=radius,
            avg_power=np.nan,   # filled below once the profile machinery exists
            breakpoints=band_breaks,
            name=f"pam({base.name},{pulse.name})",
        )
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
        return segmented_midpoint(-half, half, n, self.breakpoints)

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

    def synthesis_gain(self, t, phi):
        """Gain g(t, phi) = sum_a p(a T0 + t) e^{-2 pi i phi a} of the pulse
        bank, shaped t.shape + phi.shape. The phases of an array ``t`` are
        taken at once, each row as a scalar ``t`` gives it: a pulse sample
        outside a phase's window adds an exact zero to its row.
        """
        t = np.asarray(t, dtype=float)
        phi = np.asarray(phi, dtype=float)
        t0 = self.period
        win = self.pulse.time_window
        if win is not None and self.pulse.time_fn is not None:
            a_lo = np.ceil((win[0] - t) / t0 - 1e-12)
            a_hi = np.floor((win[1] - t) / t0 + 1e-12)
            out = np.zeros(t.shape + phi.shape, dtype=complex)
            for a in range(int(a_lo.min(initial=0.0)), int(a_hi.max(initial=-1.0)) + 1):
                w = np.where((a_lo <= a) & (a <= a_hi), self.pulse.time_fn(a * t0 + t), 0.0)
                if np.any(w != 0.0):
                    out += np.multiply.outer(w, np.exp(-TWO_PI * 1j * phi * a))
            return out
        if isfinite(self.pulse.support_radius):
            t = t[..., None] if t.ndim else t

            def alias(x):
                return self.pulse.fourier(x / t0) * np.exp(TWO_PI * 1j * x * t / t0) / t0
            return _lattice_fold(alias, phi, self.pulse.support_radius * t0, 1.0)
        raise TruncationError("synthesis_gain: pulse representable in neither domain")

    def polyphase_factor(self, dim: int, phi):
        """Rank-one factorization of the polyphase matrix at the given phis.

        Returns (fold, g) with fold the folded base spectrum evaluated on the
        circle and g the (n_phi, dim) matrix of synthesis gains at the phases
        m*T0/dim; the polyphase matrix is fold * g g^H.
        """
        phi = np.asarray(phi, dtype=float)
        fold = self.sampled_base_psd(phi / self.period)
        g = self.synthesis_gain(np.arange(dim) * self.period / dim, phi)
        return fold, np.ascontiguousarray(np.moveaxis(g, 0, -1))

    def phase_spectra(self, phi):
        """``CyclicSpectrum.phase_spectra`` as fold * |g(t, phi)|^2: the fold is
        taken once, here, and each call's gains at once for all its phases."""
        phi = np.asarray(phi, dtype=float)
        fold = self.sampled_base_psd(phi / self.period)

        def at(t):
            gains = self.synthesis_gain(t, phi)
            return fold * (gains * gains.conj()).real
        return at

    def covariance_factor(self, times):
        """(P, R_U) for pulses with a time window, else None.

        P[i, b] = p(t_i - b T0) over every symbol b whose pulse is nonzero at
        some time, and R_U[b, c] = R_U(|b - c| T0) is the symmetric Toeplitz
        matrix of the base autocorrelation at whole-symbol lags, so the
        covariance is P R_U P^T and has rank at most the symbol count.
        """
        win = self.pulse.time_window
        if win is None or self.pulse.time_fn is None or self.base.autocorr is None:
            return None
        t = _time_vector(times)
        t0 = self.period
        symbols = np.arange(floor((t.min() - win[1]) / t0) - 1,
                            ceil((t.max() - win[0]) / t0) + 2)
        pulses = self.pulse.time_fn(np.subtract.outer(t, symbols * t0))
        reached = np.flatnonzero(pulses.any(axis=0))
        symbols, pulses = symbols[reached], pulses[:, reached]
        span = int(symbols[-1] - symbols[0]) if symbols.size else 0
        r_u = self.base.autocorr(np.arange(span + 1) * t0).real
        return pulses, r_u[np.abs(np.subtract.outer(symbols, symbols))]


def pam_cpsd(base: StationaryPsd, pulse: PulseShape, t_symbol: float) -> PamCyclicSpectrum:
    """Cyclic spectrum of the pulse-amplitude process sum_n U(n T0) p(t - n T0)."""
    return PamCyclicSpectrum(base, pulse, t_symbol)


def stationary_cyclic(base: StationaryPsd, period: float) -> CyclicSpectrum:
    """A stationary source viewed as cyclostationary with an arbitrary period.

    Only harmonic 0 is active; useful for reduction checks, since every
    polyphase quantity then collapses to the folded stationary density.
    """
    def cpsd_fn(n, f):      # n == 0, the only active harmonic
        return base(f).astype(complex)

    cyc_ac = None
    if base.autocorr is not None:
        def cyc_ac(n, tau):     # n == 0, the only active harmonic
            return base.autocorr(tau)

    return CyclicSpectrum(period, cpsd_fn, (0,), base.support_radius,
                          base.total_power, base.breakpoints, cyc_ac,
                          f"stationary({base.name})")


# ---------------------------------------------------------------------------
# discrete-time cyclostationary processes
# ---------------------------------------------------------------------------

class DiscreteCsProcess:
    """Discrete-time Gaussian process whose covariance is periodic in time.

    The process is its real covariance table R[n, k] = E[X[n+k] X[n]], slots
    n = 0..M-1 and lags -L..L, shaped (M, 2L+1); its period M, memory L and
    power, the mean slot variance, are read from the table. Consistency
    R[n, -k] = R[(n-k) mod M, k] is required; it is what makes the table the
    covariance of an actual process. The polyphase matrix
    (``psd_pc_matrix_discrete``) is the table's block-Toeplitz symbol, a
    trigonometric polynomial in phi, and its matrix at -phi is the conjugate
    of the one at phi.
    """

    def __init__(self, table, name=""):
        table = np.asarray(table, dtype=float)
        if table.ndim != 2 or table.shape[0] < 1 or table.shape[1] % 2 != 1:
            raise ValueError("table must be (M, 2L+1) with lags -L..L")
        if not np.all(np.isfinite(table)):
            raise ValueError("covariance table must be finite")
        m, width = table.shape
        lmax = (width - 1) // 2
        # R[n, -k] against R[(n-k) mod M, k], k = 1..L, as (M, L) arrays
        k = np.arange(1, lmax + 1)
        lhs = table[:, lmax - k]
        rhs = table[(np.arange(m)[:, None] - k) % m, lmax + k]
        bad = np.abs(lhs - rhs) > 1e-12 * np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))
        if bad.any():
            n, j = np.argwhere(bad)[0]          # the first in (n, k) row-major order
            raise ValueError(
                f"covariance table inconsistent at n={n}, k={j + 1}: "
                f"R[n,-k]={lhs[n, j]} vs R[n-k,k]={rhs[n, j]}")
        self.cov_table = table
        self.period = m
        self.memory = lmax
        with np.errstate(over="ignore"):
            self.avg_power = float(np.mean(table[:, lmax]))
        if not isfinite(self.avg_power):
            raise ValueError(f"the power, the mean slot variance, is not finite: {self.avg_power}")
        self.name = name

    def cov(self, n: int, k: int) -> float:
        """Covariance E[X[n+k] X[n]]; zero beyond the memory."""
        if abs(k) > self.memory:
            return 0.0
        return float(self.cov_table[int(n) % self.period, k + self.memory])


def white_cs(variances) -> DiscreteCsProcess:
    """Independent samples with periodically varying variances."""
    variances = np.array(variances, dtype=float)
    if variances.ndim != 1 or variances.size < 1 or np.any(variances < 0):
        raise ValueError("variances must be a 1-d nonnegative array")
    return DiscreteCsProcess(variances[:, None], name="white_cs")


def modulated_ma(scales, taps) -> DiscreteCsProcess:
    """Periodic scaling of a moving-average process: X[n] = c[n mod M] Y[n].

    Y is the unit-white MA filter with the given taps, so R[n, k] =
    c[n+k] c[n] rho(k) with rho the tap autocorrelation. Valid by construction.
    """
    c = np.asarray(scales, dtype=float)
    h = np.asarray(taps, dtype=float)
    if c.ndim != 1 or h.ndim != 1:
        raise ValueError("scales and taps must be 1-d")
    n = np.arange(c.size)[:, None]
    k = np.arange(1 - h.size, h.size)
    # a product that overflows is refused by the constructor as non-finite
    with np.errstate(over="ignore", invalid="ignore"):
        rho = np.correlate(h, h, mode="full")    # lags -L..L, L = taps - 1
        table = c[(n + k) % c.size] * c[n] * rho
    return DiscreteCsProcess(table, name="modulated_ma")

