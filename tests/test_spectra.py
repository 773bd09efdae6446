import re
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from csdrf.drf import ContinuousDrfSolver, pam_waterfiller
from csdrf.polyphase import saturation_dim
from csdrf.spectra import (MAX_ALIASES, AliasCountError, CyclicSpectrum,
                           DiscreteCsProcess, PulseShape, StationaryPsd, TruncationError,
                           am_cpsd, am_gaussian_psd, flat_psd,
                           ideal_interp_pulse, modulated_ma, pam_cpsd,
                           raised_cosine_psd, raised_cosine_pulse, rect_pulse,
                           stationary_cyclic, tabulated_psd, triangle_pulse,
                           triangular_psd, white_cs, wiener_pulse)
from csdrf.waterfilling import stationary_waterfiller

EPS = sys.float_info.epsilon


def _saturated_d0(spec):
    """(D(0), rounding bound) of the curve built from ``spec`` at M = s, its
    saturation dimension. D(0) is the weighted sum of at most n = 1025 M
    nonnegative eigenvalues of the default grid's half; a recursive sum of n
    such terms rounds by at most n eps of its value, and each M x M
    decomposition moves its eigenvalues' sum (its trace) by a few M eps."""
    dim = saturation_dim(spec)
    d0 = ContinuousDrfSolver(spec).point_at(0.0, dim).distortion
    return d0, (1025 * dim + 8 * dim) * EPS * spec.avg_power


# ---------------------------------------------------------------------------
# stationary families
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("psd", [flat_psd(1.0, 1.0), triangular_psd(0.7, 2.0),
                                 raised_cosine_psd(1.3, 0.5)])
def test_family_power_matches_quadrature(psd):
    f = np.linspace(-psd.support_radius, psd.support_radius, 200001)
    quad = np.trapezoid(psd(f), f)
    assert quad == pytest.approx(psd.total_power, rel=1e-6)


@pytest.mark.parametrize("psd", [flat_psd(1.0, 1.0), triangular_psd(0.7, 2.0),
                                 raised_cosine_psd(1.3, 0.5)])
def test_family_even_and_nonnegative(psd):
    rng = np.random.default_rng(11)
    f = rng.uniform(-3, 3, 256)
    assert np.all(psd(f) >= 0)
    np.testing.assert_allclose(psd(f), psd(-f), atol=1e-15)
    assert np.all(psd(f[np.abs(f) > psd.support_radius]) == 0)


@pytest.mark.parametrize("psd", [flat_psd(0.8, 1.5), triangular_psd(1.1, 0.9),
                                 raised_cosine_psd(0.6, 2.0)])
def test_autocorr_matches_numeric_inverse_transform(psd):
    # oracle: plain Riemann sum of S(f) e^{2 pi i f tau}
    f = np.linspace(-psd.support_radius, psd.support_radius, 40001)
    taus = np.array([0.0, 0.31, 1.7, -2.4])
    for tau in taus:
        ref = np.trapezoid(psd(f) * np.cos(2 * np.pi * f * tau), f)
        assert psd.autocorr(tau) == pytest.approx(ref, abs=1e-8 * psd.total_power)
    assert psd.autocorr(0.0) == pytest.approx(psd.total_power, rel=1e-12)


def test_tabulated_symmetrizes_and_clamps():
    psd = tabulated_psd([-1.0, 0.0, 1.0], [0.2, -0.5, 1.0])
    assert psd(np.array([0.5]))[0] == psd(np.array([-0.5]))[0]
    vals = psd(np.linspace(-1, 1, 101))
    assert np.all(vals >= 0)
    assert psd.negative_clip_count > 0


@st.composite
def _tables(draw):
    """(freqs, values): knots on a lattice of step h, on both sides of 0 or on
    one, and values of either sign or exactly 0. The lattice keeps distinct
    knots h apart, far above the 1e-12 span within which the quadrature
    grid merges cell edges."""
    lo = draw(st.sampled_from([-12, 0, 1]))
    ks = draw(st.lists(st.integers(lo, 12), min_size=2, max_size=12, unique=True))
    h = draw(st.floats(1e-3, 10.0))
    value = st.one_of(st.just(0.0), st.floats(-10.0, 10.0))
    values = draw(st.lists(value, min_size=len(ks), max_size=len(ks)))
    return h * np.sort(np.array(ks, dtype=float)), np.array(values)


@settings(max_examples=200, deadline=None)
@given(table=_tables())
# clamp zeros at +-1.995e-12, within the grid's merge tolerance of the knot at 0
@example(table=(np.array([0.0, 1.0, 2.0]), np.array([-1.995e-12, 1.0, 1.0])))
def test_tabulated_power_is_the_curve_at_rate_zero(table):
    freqs, values = table
    psd = tabulated_psd(freqs, values)
    fill = stationary_waterfiller(psd)
    d0 = fill.solve(0.0).distortion
    # the density is affine between its breakpoints, which the grid pins, so
    # the midpoint rule is exact and D(0) is the power up to rounding. Each
    # value rounds by a few eps of S = 2 f_max max|v|, the integral of the
    # table's magnitude bound, and each node by eps f_max, which moves its
    # value by at most the slope 2 max|v| / h times that: K = f_max / h. The
    # n levels' sums round by at most n eps S, and by 2^-1074 a term when
    # the values are subnormal.
    f_max = psd.support_radius
    scale = 2.0 * f_max * np.max(np.abs(values))
    n = fill.levels.size
    # A zero of the clamp within 1e-12 of the span of a knot merges into it:
    # the kink moves by tau <= 1e-12 * 2 f_max, which changes the midpoint rule
    # by a term of order tau^2, and the grid stays mirrored.
    tol = (n + 4 * f_max / np.diff(freqs).min() + 16) * EPS * scale + 16 * n * 2.0 ** -1074
    assert abs(d0 - psd.total_power) <= tol
    # the interpolant kinks at every +-f_i, so each is a breakpoint
    assert set(np.abs(freqs)) <= {abs(b) for b in psd.breakpoints}


# ---------------------------------------------------------------------------
# pulses
# ---------------------------------------------------------------------------

def test_rect_pulse_transform_closed_form():
    p = rect_pulse(0.8)
    f = np.array([0.0, 0.3, 1.1])
    expect = 0.8 * np.exp(-1j * np.pi * f * 0.8) * np.sinc(f * 0.8)
    np.testing.assert_allclose(p.fourier(f), expect, rtol=1e-14)


@pytest.mark.parametrize("pulse,span,tol", [
    (rect_pulse(1.0), 400.0, 2e-2),      # slow 1/f^2 tail in |P|^2
    (triangle_pulse(0.9), 40.0, 1e-4),
    (ideal_interp_pulse(0.7), 2.0, 1e-5),  # band-edge jump limits trapezoid
    (raised_cosine_pulse(1.2, 0.35), 2.0, 1e-6),
])
def test_parseval_energy(pulse, span, tol):
    f = np.linspace(-span, span, 800001)
    quad = np.trapezoid(np.abs(pulse.fourier(f)) ** 2, f)
    assert quad == pytest.approx(pulse.energy, rel=tol)


@pytest.mark.parametrize("fs", [0.0, -1.0, float("nan"), float("inf")])
def test_wiener_pulse_rejects_a_meaningless_sampling_rate(fs):
    with pytest.raises(ValueError, match="fs must be finite and positive"):
        wiener_pulse(flat_psd(1.0, 1.0), fs)


def test_wiener_pulse_needs_a_band_limited_base():
    gauss = StationaryPsd(lambda f: np.exp(-np.pi * f * f), np.inf, 1.0)
    with pytest.raises(ValueError, match="base must be band-limited"):
        wiener_pulse(gauss, 1.0)


@pytest.mark.parametrize("psd", [flat_psd(1.0, 1.0), triangular_psd(0.7, 2.0),
                                 raised_cosine_psd(1.3, 0.5)])
@pytest.mark.parametrize("ratio", [2.0, 3.1])
def test_wiener_pulse_energy_at_or_above_nyquist(psd, ratio):
    # no alias overlaps the support: P = 1/fs wherever S > 0
    f_b = psd.support_radius
    fs = ratio * f_b
    pulse = wiener_pulse(psd, fs)
    assert pulse.support_radius == f_b
    assert pulse.energy == pytest.approx(2.0 * f_b / fs ** 2, rel=1e-12)
    f = np.linspace(-1.5 * f_b, 1.5 * f_b, 60)     # misses the edges, where aliases touch
    np.testing.assert_allclose(pulse.fourier(f), np.where(psd(f) > 0.0, 1.0 / fs, 0.0),
                               rtol=1e-13, atol=0.0)


def test_wiener_pulse_energy_below_nyquist():
    # flat f_B = 1 sampled at fs = 1: two aliases overlap everywhere, P = 1/2
    # on [-1, 1]; the triangle's energy against a dense independent rule
    assert wiener_pulse(flat_psd(1.0, 1.0), 1.0).energy == pytest.approx(0.5, rel=1e-12)
    pulse = wiener_pulse(triangular_psd(1.0, 1.0), 1.3)
    f = np.linspace(-1.0, 1.0, 400001)
    quad = np.trapezoid(np.abs(pulse.fourier(f)) ** 2, f)
    assert pulse.energy == pytest.approx(quad, rel=1e-6)


def test_wiener_pulse_of_a_zero_source_is_zero():
    pulse = wiener_pulse(flat_psd(1.0, 0.0), 0.7)
    assert pulse.energy == 0.0
    assert np.all(pulse.fourier(np.linspace(-2.0, 2.0, 41)) == 0.0)


def test_pulse_conjugate_symmetry():
    rng = np.random.default_rng(3)
    f = rng.uniform(-2, 2, 64)
    for pulse in (rect_pulse(1.0), triangle_pulse(1.0), raised_cosine_pulse(1.0, 0.5)):
        np.testing.assert_allclose(pulse.fourier(-f), np.conj(pulse.fourier(f)), atol=1e-14)


# ---------------------------------------------------------------------------
# amplitude modulation
# ---------------------------------------------------------------------------

def test_am_spot_values_flat_base():
    spec = am_cpsd(flat_psd(1.0, 2.0), 4.0, 0.0)
    assert spec.period == pytest.approx(0.25)
    f4 = np.array([4.0])
    assert spec.cpsd(0, f4)[0] == pytest.approx(0.5, rel=1e-14)    # S_U flat = 1
    assert spec.cpsd(2, f4)[0] == pytest.approx(0.5, rel=1e-14)
    assert np.all(spec.cpsd(1, np.linspace(-6, 6, 64)) == 0)


def test_am_zero_source_vanishes():
    spec = am_cpsd(flat_psd(1.0, 0.0), 4.0)
    f = np.linspace(-6, 6, 33)
    for n in (-2, 0, 2):
        assert np.all(spec.cpsd(n, f) == 0)
    # the curve's D(0) is the power, exactly 0
    assert _saturated_d0(spec)[0] == 0.0


def test_am_tpsd_matches_direct_modulated_expression():
    # oracle: the modulated time-varying spectrum written out by hand at t,
    # against the harmonic series sum_n cpsd(n, f) e^{2 pi i n t / T0}
    base = flat_psd(1.0, 1.0)
    f0, phase = 4.0, 0.0
    spec = am_cpsd(base, f0, phase)
    f = np.linspace(-6, 6, 64)
    for t in (0.0, 0.08, 0.2):
        psi = 2 * np.pi * f0 * t + phase
        direct = 0.5 * base(f + f0) * (1 + np.exp(-2j * psi)) \
            + 0.5 * base(f - f0) * (1 + np.exp(2j * psi))
        series = sum(spec.cpsd(n, f) * np.exp(2j * np.pi * n * t / spec.period)
                     for n in spec.active_indices)
        np.testing.assert_allclose(series, direct, atol=1e-12)


def test_am_rejects_bad_carrier():
    with pytest.raises(ValueError):
        am_cpsd(flat_psd(1.0, 1.0), 0.0)
    with pytest.raises(ValueError):
        am_cpsd(flat_psd(1.0, 1.0), -1.0)


def test_am_power_is_preserved():
    spec = am_cpsd(flat_psd(1.0, 1.0), 4.0)
    assert spec.avg_power == pytest.approx(1.0, rel=1e-12)
    # D(0) at M = s: the flat base's aliases are flat between the folded
    # breakpoints that the grid pins, so the midpoint rule is exact and D(0)
    # is the power up to the rounding of the sum and the decompositions
    d0, tol = _saturated_d0(spec)
    assert abs(d0 - spec.avg_power) <= tol


def test_am_gaussian_psd_carries_same_power():
    ub = am_gaussian_psd(triangular_psd(1.0, 1.0), 1.2)
    f = np.linspace(-ub.support_radius, ub.support_radius, 200001)
    assert np.trapezoid(ub(f), f) == pytest.approx(1.0, rel=1e-8)


def test_conjugate_symmetry_of_cyclic_spectra():
    rng = np.random.default_rng(5)
    f = rng.uniform(-6, 6, 128)
    am = am_cpsd(triangular_psd(1.0, 1.0), 1.2, 0.7)
    pam = pam_cpsd(triangular_psd(1.0, 1.0), raised_cosine_pulse(0.8, 0.3), 0.8)
    for spec in (am, pam):
        for n in spec.active_indices:
            np.testing.assert_allclose(spec.cpsd(-n, -f), np.conj(spec.cpsd(n, f)),
                                       atol=1e-13)


def test_tpsd_series_reconstruction_real_nonneg_on_grid():
    # folded component spectra must come out real and nonnegative
    spec = am_cpsd(triangular_psd(1.0, 1.0), 1.2, 0.3)
    phi = np.linspace(-0.5, 0.5, 65)
    for t in np.linspace(0.0, spec.period, 7):
        vals = spec.phase_spectra(phi)(t)
        assert np.all(vals >= 0)


# ---------------------------------------------------------------------------
# pulse-amplitude modulation
# ---------------------------------------------------------------------------

def test_pam_narrow_pulse_is_stationary():
    # pulse spectrum strictly inside the Nyquist band: only harmonic 0 remains
    spec = pam_cpsd(flat_psd(0.3, 1.0), ideal_interp_pulse(1.25), 1.0)
    assert spec.active_indices == (0,)
    f = np.linspace(-2, 2, 101)
    assert np.all(spec.cpsd(1, f) == 0)


def test_pam_zero_pulse_vanishes():
    zero = PulseShape(lambda f: np.zeros_like(f, dtype=complex), 0.0, 0.1,
                      breakpoints=(), name="zero")
    spec = pam_cpsd(flat_psd(1.0, 1.0), zero, 1.0)
    assert spec.avg_power == pytest.approx(0.0, abs=1e-15)
    assert np.all(spec.shaped_profile(np.linspace(-0.5, 0.5, 33)) == 0)


def test_pam_rect_pulse_harmonic0_spot_values():
    # derived by hand: harmonic 0 is |P(f)|^2 / T0 times the sampled-sequence
    # spectrum (1/T0) sum_l S(f - l/T0)
    base = flat_psd(0.4, 0.8)   # super-Nyquist at T0 = 1
    spec = pam_cpsd(base, rect_pulse(1.0), 1.0)
    for f in (0.0, 0.2):
        expect = np.sinc(f) ** 2 * base(np.array([f]))[0]
        got = spec.cpsd(0, np.array([f]))[0]
        assert got == pytest.approx(expect, rel=1e-12)
    # an aliased point picks up both copies of the base density
    base2 = flat_psd(0.6, 1.2)
    spec2 = pam_cpsd(base2, rect_pulse(1.0), 1.0)
    f = 0.5
    fold = base2(np.array([0.5]))[0] + base2(np.array([-0.5]))[0]
    assert spec2.cpsd(0, np.array([f]))[0] == pytest.approx(np.sinc(0.5) ** 2 * fold, rel=1e-12)


def test_pam_staircase_power_equals_base_power():
    spec = pam_cpsd(flat_psd(1.0, 1.0), rect_pulse(1.0), 1.0)
    assert spec.avg_power == pytest.approx(1.0, rel=1e-12)
    # D(0) of the closed form: its profile is the constant 1 on the Nyquist
    # band, so the half grid's weighted sum of its at most 1025 levels is the
    # power up to 1025 eps of rounding
    d0 = pam_waterfiller(spec).solve(0.0).distortion
    assert abs(d0 - spec.avg_power) <= 1025 * EPS * spec.avg_power


def test_pam_staircase_component_spectra_all_equal_sample_spectrum():
    # staircase: every polyphase component literally repeats the samples
    base = flat_psd(1.0, 1.0)
    spec = pam_cpsd(base, rect_pulse(1.0), 1.0)
    phi = np.linspace(-0.49, 0.49, 50)
    ref = spec.sampled_base_psd(phi)
    for t in (0.1, 0.5, 0.9):
        np.testing.assert_allclose(spec.phase_spectra(phi)(t), ref, rtol=1e-12)


def test_pam_generic_vs_structured_component_spectra():
    # dual route: harmonic-series fold vs the synthesis-gain factorization
    base = triangular_psd(1.0, 1.0)
    pulse = raised_cosine_pulse(0.8, 0.3)
    spec = pam_cpsd(base, pulse, 0.8)
    from csdrf.spectra import CyclicSpectrum
    generic = CyclicSpectrum(spec.period, spec._cpsd_impl, spec.active_indices,
                             spec.freq_radius, spec.avg_power, spec.breakpoints)
    phi = np.linspace(-0.5, 0.5, 41)
    for t in (0.0, 0.13, 0.52):
        np.testing.assert_allclose(spec.phase_spectra(phi)(t), generic.phase_spectra(phi)(t),
                                   atol=1e-12)


def _phase_profile(spec, t, phi):
    """One phase's component spectrum, folded term by term: the sum over
    lattice shifts of the time-varying spectrum sum_n cpsd(n, f) e^{2 pi i n t / T0},
    or fold * |g|^2 for PAM."""
    if hasattr(spec, "synthesis_gain"):
        g = spec.synthesis_gain(t, phi)
        return spec.sampled_base_psd(phi / spec.period) * (g * g.conj()).real

    def tvsd(f):
        return sum(spec.cpsd(n, f) * np.exp(2j * np.pi * n * t / spec.period)
                   for n in spec.active_indices)
    kr = spec.period * spec.freq_radius
    out = sum(tvsd((phi - k) / spec.period)
              for k in range(int(np.floor(phi.min() - kr)), int(np.ceil(phi.max() + kr)) + 1))
    return np.maximum(out.real / spec.period, 0.0)


@pytest.mark.parametrize("spec", [
    am_cpsd(triangular_psd(1.0, 1.0), 1.2),
    am_cpsd(triangular_psd(1.0, 1.0), 1.2, 0.3),
    stationary_cyclic(raised_cosine_psd(1.0, 1.0), 0.7),
    pam_cpsd(flat_psd(1.0, 1.0), rect_pulse(1.0), 1.0),
    pam_cpsd(flat_psd(1.0, 1.0), triangle_pulse(0.8), 0.8),
    pam_cpsd(triangular_psd(1.0, 1.0), raised_cosine_pulse(0.8, 0.3), 0.8),
], ids=["am", "am-phase", "stationary", "pam-rect", "pam-triangle", "pam-raised-cosine"])
def test_batched_component_spectra_equal_the_per_phase_ones(spec):
    phi = np.linspace(-0.5, 0.5, 97)
    ts = (np.arange(16) + 0.5) * spec.period / 16
    profiles = spec.phase_spectra(phi)
    batched = profiles(ts)
    assert batched.shape == (16, 97)
    assert profiles(ts.reshape(4, 4)).shape == (4, 4, 97)
    scale = batched.max()
    for t, row in zip(ts, batched):
        np.testing.assert_allclose(row, _phase_profile(spec, t, phi), rtol=0, atol=1e-14 * scale)
        single = spec.phase_spectra(phi)(float(t))
        assert single.shape == phi.shape
        np.testing.assert_array_equal(single, row)


def test_pam_rejects_bad_symbol_time():
    with pytest.raises(ValueError):
        pam_cpsd(flat_psd(1.0, 1.0), rect_pulse(1.0), 0.0)


def test_pam_unbounded_harmonics_raise_on_generic_paths():
    # the rect pulse's harmonic series does not truncate, and the lag-domain
    # transform, which has no closed form here, refuses it
    spec = pam_cpsd(flat_psd(1.0, 1.0), rect_pulse(1.0), 1.0)
    with pytest.raises(TruncationError, match="does not truncate"):
        spec.cyclic_autocorr(0, [0.0])


# ---------------------------------------------------------------------------
# discrete processes
# ---------------------------------------------------------------------------

def test_white_cs_covariance_and_power():
    proc = white_cs([1.0, 4.0])
    assert proc.period == 2
    assert proc.cov(0, 0) == 1.0
    assert proc.cov(1, 0) == 4.0
    assert proc.cov(0, 1) == 0.0
    assert proc.avg_power == pytest.approx(2.5)


def test_modulated_ma_covariance_consistency():
    proc = modulated_ma([1.0, 0.5, 1.5], [1.0, 0.4])
    # R[n, -k] must equal R[n-k, k]; the constructor validates, so this
    # simply has to construct without raising
    assert proc.period == 3
    # slot variance: c_n^2 (1 + a^2)
    assert proc.cov(1, 0) == pytest.approx(0.25 * 1.16)


def test_modulated_ma_table_is_the_per_entry_product():
    c, h = np.array([1.0, -0.5, 1.5]), np.array([1.0, 0.4, -0.3])
    rho = np.correlate(h, h, mode="full")
    table = modulated_ma(c, h).cov_table
    assert table.shape == (3, 5)
    for n in range(3):
        for k in range(-2, 3):
            assert table[n, k + 2] == c[(n + k) % 3] * c[n] * rho[k + 2]


def test_constructor_rejects_inconsistent_table():
    bad = np.array([[0.3, 1.0, 0.3], [0.1, 1.0, 0.2]])
    with pytest.raises(ValueError):
        DiscreteCsProcess(bad)


def test_inconsistency_names_the_first_offender_in_row_major_order():
    # each negative-lag entry R[n, -k] is compared with R[n-k, k] alone, so
    # spoiling two of them makes exactly the pairs (n, k) = (1, 2) and (2, 1)
    # inconsistent; (1, 2) comes first by slot, (2, 1) first by lag
    table = modulated_ma([1.0, -0.5, 1.5], [1.0, 0.4, -0.3]).cov_table.copy()
    table[1, 2 - 2] += 1.0
    table[2, 2 - 1] += 1.0
    lhs, rhs = table[1, 2 - 2], table[(1 - 2) % 3, 2 + 2]
    message = f"covariance table inconsistent at n=1, k=2: R[n,-k]={lhs} vs R[n-k,k]={rhs}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        DiscreteCsProcess(table)
    # within the 1e-12 relative rule, a table is consistent
    table = modulated_ma([1.0, -0.5, 1.5], [1.0, 0.4, -0.3]).cov_table.copy()
    table[1, 0] *= 1.0 + 5e-13
    DiscreteCsProcess(table)


def test_stationary_cyclic_reduces_to_base():
    base = triangular_psd(1.0, 1.0)
    spec = stationary_cyclic(base, 0.5)
    f = np.linspace(-2, 2, 21)
    np.testing.assert_allclose(spec.cpsd(0, f).real, base(f), atol=1e-15)
    assert np.all(spec.cpsd(1, f) == 0)
    # D(0) at M = s: the triangle's aliases are linear between the folded
    # breakpoints that the grid pins, so the midpoint rule is exact and D(0)
    # is the power up to the rounding of the sum and the decompositions
    d0, tol = _saturated_d0(spec)
    assert abs(d0 - spec.avg_power) <= tol


def test_constructor_rejects_a_table_that_overflowed():
    with pytest.raises(ValueError, match="must be finite"):
        modulated_ma([1e300, 1.0], [1.0])
    with pytest.raises(ValueError, match="must be finite"):
        DiscreteCsProcess([[np.nan]])


# ---------------------------------------------------------------------------
# the bound on lattice shifts
# ---------------------------------------------------------------------------

# per model kind: the model whose T0 times support radius is exactly r
AT_RATIO = {
    "am": lambda r: am_cpsd(flat_psd(r - 1.0, 1.0), 1.0),
    "pam": lambda r: pam_cpsd(flat_psd(r, 1.0), rect_pulse(1.0), 1.0),
    "wiener": lambda r: wiener_pulse(flat_psd(r, 1.0), 1.0),
    "cyclic": lambda r: CyclicSpectrum(r, lambda n, f: np.zeros_like(f, dtype=complex),
                                       (0,), 1.0, 0.0),
}


@pytest.mark.parametrize("build", sorted(AT_RATIO))
def test_models_at_the_alias_bound_are_built_and_past_it_refused(build):
    AT_RATIO[build](MAX_ALIASES)
    for ratio in (np.nextafter(MAX_ALIASES, np.inf), 1e300):
        with pytest.raises(AliasCountError, match="MAX_ALIASES"):
            AT_RATIO[build](ratio)
    assert issubclass(AliasCountError, ValueError)


# ---------------------------------------------------------------------------
# refusals
# ---------------------------------------------------------------------------

def _no_truncation(n, f):
    return np.zeros_like(f, dtype=complex)


# a pulse inside one symbol in time that has no time function, and no finite
# frequency support: its aliased energy is known, its gains are not
_WINDOW_ONLY = PulseShape(lambda f: np.ones_like(f, dtype=complex), 1.0, np.inf, None, (0.0, 0.5))

REFUSALS = {
    "flat f_cut": (lambda: flat_psd(0.0), ValueError, "f_cut must be positive"),
    "triangular f_cut": (lambda: triangular_psd(-1.0), ValueError, "f_cut must be positive"),
    "raised_cosine f_cut": (lambda: raised_cosine_psd(0.0), ValueError, "f_cut must be positive"),
    "tabulated shape": (lambda: tabulated_psd([0.0], [1.0]), ValueError,
                        "need matching 1-d frequency and value arrays"),
    "tabulated order": (lambda: tabulated_psd([0.0, 0.0], [1.0, 1.0]), ValueError,
                        "frequencies must be strictly increasing"),
    "rect width": (lambda: rect_pulse(0.0), ValueError, "width must be positive"),
    "triangle width": (lambda: triangle_pulse(-1.0), ValueError, "width must be positive"),
    "ideal t_symbol": (lambda: ideal_interp_pulse(0.0), ValueError, "t_symbol must be positive"),
    "raised_cosine t_symbol": (lambda: raised_cosine_pulse(0.0), ValueError,
                               "t_symbol must be positive"),
    "raised_cosine beta": (lambda: raised_cosine_pulse(1.0, beta=0.0), ValueError,
                           r"beta must lie in \(0, 1\]"),
    "covariance times": (lambda: stationary_cyclic(flat_psd(1.0), 1.0).covariance(
        np.zeros((2, 2)), 0.5), ValueError, "times must be a 1-d vector"),
    "am_gaussian_psd f0": (lambda: am_gaussian_psd(flat_psd(1.0), 0.0), ValueError,
                           "carrier frequency f0 must be positive"),
    "pam wide pulse": (lambda: pam_cpsd(flat_psd(0.5), rect_pulse(2.0), 1.0), TruncationError,
                       "pulse_energy_fold: pulse has neither compact frequency support"),
    "pam pulse gains": (lambda: pam_cpsd(flat_psd(0.5), _WINDOW_ONLY, 1.0).synthesis_gain(0.0, 0.0),
                        TruncationError, "synthesis_gain: pulse representable in neither domain"),
    "white_cs shape": (lambda: white_cs([[1.0]]), ValueError,
                       "variances must be a 1-d nonnegative array"),
    "modulated_ma shape": (lambda: modulated_ma([[1.0]], [1.0]), ValueError,
                           "scales and taps must be 1-d"),
    "cyclic period": (lambda: CyclicSpectrum(0.0, _no_truncation, (0,), 1.0, 1.0), ValueError,
                      "period must be positive"),
    "cyclic support": (lambda: CyclicSpectrum(1.0, _no_truncation, (0,), np.inf, 1.0)
                       .cyclic_autocorr(0, [0.0]), TruncationError, "does not truncate"),
    "table shape": (lambda: DiscreteCsProcess(np.ones((2, 2))), ValueError,
                    r"table must be \(M, 2L\+1\)"),
    "table power": (lambda: DiscreteCsProcess([[1.5e308], [1e308]]), ValueError,
                    "the power, the mean slot variance, is not finite"),
}


@pytest.mark.parametrize("build, error, message", REFUSALS.values(), ids=REFUSALS.keys())
def test_a_bad_model_or_argument_is_refused(build, error, message):
    with pytest.raises(error, match=message):
        build()
