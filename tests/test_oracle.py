from math import ceil, floor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csdrf.cli import Scenario, _normalized_pam, make_base
from csdrf.oracle import (BlockCovariance, KernelGrid, build_kernel, kl_drf,
                          step_approximation, weyl_gap)
from csdrf.spectra import (am_cpsd, flat_psd, ideal_interp_pulse, modulated_ma,
                           pam_cpsd, raised_cosine_psd, raised_cosine_pulse,
                           rect_pulse, stationary_cyclic, triangle_pulse,
                           triangular_psd, white_cs)
from csdrf.waterfilling import stationary_drf


# ---------------------------------------------------------------------------
# kernel construction
# ---------------------------------------------------------------------------

def test_stationary_kernel_is_toeplitz():
    spec = stationary_cyclic(triangular_psd(1.0, 1.0), 0.5)
    kern = build_kernel(spec, 2.0, 64)
    vals = kern.values
    for off in (1, 5, 17):
        diag = np.diagonal(vals, offset=off)
        assert np.ptp(diag) <= 1e-9 * abs(diag).max()


def test_am_kernel_matches_direct_product_form():
    # oracle: K(t, s) = 2 cos(2 pi f0 t) cos(2 pi f0 s) R_U(t - s)
    base = flat_psd(1.0, 1.0)
    f0 = 4.0
    spec = am_cpsd(base, f0, 0.0)
    kern = build_kernel(spec, 8 * spec.period, 128)
    t = kern.times
    direct = 2.0 * np.cos(2 * np.pi * f0 * t)[:, None] * \
        np.cos(2 * np.pi * f0 * t)[None, :] * base.autocorr(t[:, None] - t[None, :])
    np.testing.assert_allclose(kern.values, direct, atol=1e-12)
    np.testing.assert_allclose(np.diag(kern.values),
                               2.0 * base.autocorr(0.0) * np.cos(2 * np.pi * f0 * t) ** 2,
                               atol=1e-12)


def test_am_kernel_with_phase():
    base = triangular_psd(1.0, 1.0)
    f0, phase = 2.0, 0.6
    spec = am_cpsd(base, f0, phase)
    kern = build_kernel(spec, 4 * spec.period, 64)
    t = kern.times
    direct = 2.0 * np.cos(2 * np.pi * f0 * t + phase)[:, None] * \
        np.cos(2 * np.pi * f0 * t + phase)[None, :] * base.autocorr(t[:, None] - t[None, :])
    np.testing.assert_allclose(kern.values, direct, atol=1e-12)


def test_pam_rect_kernel_is_block_constant():
    base = flat_psd(1.0, 1.0)
    spec = pam_cpsd(base, rect_pulse(1.0), 1.0)
    kern = build_kernel(spec, 4.0, 128)     # 16 points per symbol cell
    cell = np.floor(kern.times).astype(int)
    for ci in (-4, -1, 2):
        for cj in (-4, 0, 3):
            block = kern.values[np.ix_(cell == ci, cell == cj)]
            assert np.ptp(block) <= 1e-12


def test_window_must_cover_whole_periods():
    spec = am_cpsd(flat_psd(1.0, 1.0), 4.0)
    with pytest.raises(ValueError):
        build_kernel(spec, 1.1, 64)


def test_window_half_width_must_be_finite_and_positive():
    spec = am_cpsd(flat_psd(1.0, 1.0), 4.0)
    for t_half in (0.0, -2.0 * spec.period, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="t_half"):
            build_kernel(spec, t_half, 64)


@pytest.mark.parametrize("n", [0, -3])
def test_block_length_must_be_positive(n):
    with pytest.raises(ValueError, match="block length n"):
        BlockCovariance.from_process(white_cs([1.0, 4.0]), n)


# ---------------------------------------------------------------------------
# covariance evaluation against the direct sums it replaces
# ---------------------------------------------------------------------------

def _pam_loop_covariance(spec, t, s):
    """Windowed-pulse PAM covariance by the lag-by-symbol double sum.

    sum_j R_U(j T0) sum_b p(t - (b + j) T0) p(s - b T0), broadcasting over
    t and s; the reference for the factored product P R_U P^T.
    """
    win = spec.pulse.time_window
    t0 = spec.period
    t, s = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(s, dtype=float))
    out = np.zeros(t.shape)
    width = win[1] - win[0]
    dmin = floor(((t - s).min() - width) / t0) - 1
    dmax = ceil(((t - s).max() + width) / t0) + 1
    b_lo = floor((s.min() - win[1]) / t0) - 1
    b_hi = ceil((s.max() - win[0]) / t0) + 1
    for j in range(dmin, dmax + 1):
        acc = np.zeros(t.shape)
        for b in range(b_lo, b_hi + 1):
            acc += spec.pulse.time_fn(t - (b + j) * t0) * spec.pulse.time_fn(s - b * t0)
        if np.any(acc):
            out += float(spec.base.autocorr(j * t0).real) * acc
    return out


def _broadcast_covariance(spec, t, s):
    """sum_n cyclic_autocorr(n, t - s) exp(2 pi i n s / T0) on the full broadcast grid."""
    t, s = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(s, dtype=float))
    out = np.zeros(t.shape, dtype=complex)
    for n in spec.active_indices:
        out += spec.cyclic_autocorr(n, t - s) * np.exp(2.0 * np.pi * 1j * n * s / spec.period)
    return out.real


def _outer(reference, spec, times):
    values = reference(spec, times[:, None], times[None, :])
    return 0.5 * (values + values.T)


def _pam(family, bandwidth, power, pulse, symbol_rate, normalize):
    sc = Scenario(kind="pam", family=family, bandwidth=bandwidth, power=power,
                  pulse=pulse, normalize_power=normalize)
    return _normalized_pam(sc, make_base(sc), symbol_rate)


def _assert_factored_matches_loop(spec, periods, n, steps):
    kern = build_kernel(spec, periods * spec.period, n)
    stepped = step_approximation(kern, steps, spec.period)
    h = spec.period / steps
    for values, times in ((kern.values, kern.times),
                          (stepped.values, np.floor(kern.times / h) * h)):
        ref = _outer(_pam_loop_covariance, spec, times)
        np.testing.assert_allclose(values, ref, rtol=0.0, atol=1e-15 * np.abs(ref).max())


@pytest.mark.parametrize("pulse, normalize", [
    ("rect", False), ("triangle", False), ("rect", True), ("triangle", True)])
def test_factored_pam_kernel_matches_the_symbol_loop(pulse, normalize):
    spec = _pam("raised_cosine", 1.0, 2.0, pulse, 1.3, normalize)
    if normalize:
        assert spec.pulse.name.startswith(pulse + "*")
    _assert_factored_matches_loop(spec, periods=4, n=96, steps=6)


@settings(max_examples=40, deadline=None)
@given(family=st.sampled_from(["flat", "triangular", "raised_cosine"]),
       bandwidth=st.floats(0.25, 4.0), power=st.floats(0.1, 10.0),
       pulse=st.sampled_from(["rect", "triangle"]), normalize=st.booleans(),
       nyquist_share=st.floats(0.1, 2.0), periods=st.integers(1, 5),
       n=st.integers(2, 64), steps=st.integers(1, 8))
def test_factored_pam_kernel_property(family, bandwidth, power, pulse, normalize,
                                      nyquist_share, periods, n, steps):
    spec = _pam(family, bandwidth, power, pulse, 2.0 * bandwidth * nyquist_share, normalize)
    _assert_factored_matches_loop(spec, periods, n, steps)


GENERIC_SOURCES = {
    "am": lambda: am_cpsd(triangular_psd(1.0, 1.5), 1.7, 0.4),
    "stationary": lambda: stationary_cyclic(raised_cosine_psd(0.8, 1.0), 0.7),
    "pam-ideal": lambda: pam_cpsd(flat_psd(1.0, 1.0), ideal_interp_pulse(0.8), 0.8),
    "pam-raised-cosine": lambda: pam_cpsd(triangular_psd(1.0, 1.0),
                                          raised_cosine_pulse(0.7, 0.3), 0.7),
}


@pytest.mark.parametrize("name", sorted(GENERIC_SOURCES))
def test_generic_covariance_equals_the_broadcast_sum(name):
    spec = GENERIC_SOURCES[name]()
    kern = build_kernel(spec, 3 * spec.period, 40)
    stepped = step_approximation(kern, 5, spec.period)
    h = spec.period / 5
    for values, times in ((kern.values, kern.times),
                          (stepped.values, np.floor(kern.times / h) * h)):
        np.testing.assert_array_equal(values, _outer(_broadcast_covariance, spec, times))


@pytest.mark.parametrize("name", ["pam-ideal", "pam-raised-cosine", "am"])
def test_cyclic_autocorr_sees_only_the_distinct_lags(monkeypatch, name):
    spec = GENERIC_SOURCES[name]()
    original = spec.cyclic_autocorr
    sizes = []

    def recording(n, tau):
        sizes.append(np.size(tau))
        return original(n, tau)

    monkeypatch.setattr(spec, "cyclic_autocorr", recording)
    kern = build_kernel(spec, 4 * spec.period, 64)
    h = spec.period / 3
    for times in (kern.times, np.floor(kern.times / h) * h):
        sizes.clear()
        spec.covariance(times)
        distinct = np.unique(np.subtract.outer(times, times)).size
        assert sizes and max(sizes) <= distinct < times.size ** 2


# ---------------------------------------------------------------------------
# finite-window curves
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [16, 64, 256])
def test_iid_block_closed_form_any_length(n):
    oracle = kl_drf(BlockCovariance.from_process(white_cs([1.0]), n))
    for rate in (0.5, 1.0, 3.0):
        pt = oracle.solve(rate)
        assert pt.distortion == pytest.approx(2.0 ** (-2.0 * rate), rel=1e-12)


def test_alternating_block_matches_fast_path():
    block = BlockCovariance.from_process(white_cs([1.0, 4.0]), 64)
    pt = kl_drf(block).solve(0.5)
    assert pt.distortion == pytest.approx(1.0, rel=1e-3)


def test_block_covariance_layout():
    proc = modulated_ma([1.0, 0.5], [1.0, 0.4])
    block = BlockCovariance.from_process(proc, 8)
    assert block.matrix.shape == (8, 8)
    np.testing.assert_allclose(block.matrix, block.matrix.T, atol=0)
    assert block.matrix[3, 3] == pytest.approx(proc.cov(3, 0))
    assert block.matrix[4, 3] == pytest.approx(proc.cov(3, 1))


def test_trace_identity_continuous():
    spec = am_cpsd(triangular_psd(1.0, 1.0), 2.0)
    kern = build_kernel(spec, 4 * spec.period, 200)
    lam = kern.operator_eigenvalues()
    windowed_power = np.mean(np.diag(kern.values))
    assert lam.sum() == pytest.approx(windowed_power, rel=1e-8)


def test_window_doubling_halves_the_gap():
    # the finite-window curve approaches the spectral value; the error
    # roughly halves per window doubling on band-limited sources
    base = flat_psd(1.0, 1.0)
    cases = [
        (stationary_cyclic(base, 0.25), stationary_drf(base, 1.0).distortion),
        (am_cpsd(base, 4.0), stationary_drf(base, 1.0).distortion),
    ]
    for spec, ref in cases:
        gaps = []
        for periods, n in ((8, 256), (16, 512), (32, 1024)):
            kern = build_kernel(spec, periods * spec.period, n)
            gaps.append(abs(kl_drf(kern).solve(1.0).distortion - ref))
        assert gaps[1] <= 0.65 * gaps[0]
        assert gaps[2] <= 0.65 * gaps[1]


def test_negative_definite_block_rejected():
    bad = KernelGrid(np.array([0.0, 1.0]), np.array([[1.0, 2.0], [2.0, 1.0]]),
                     0.5, 1.0)
    with pytest.raises(ValueError):
        kl_drf(bad)


# ---------------------------------------------------------------------------
# eigenvalue perturbation checks
# ---------------------------------------------------------------------------

def _am_kernel(n=640, periods=4):
    spec = am_cpsd(triangular_psd(1.0, 1.0), 4.0)
    return spec, build_kernel(spec, periods * spec.period, n)


def test_identical_kernels_zero_gap():
    _, kern = _am_kernel(n=128)
    wg = weyl_gap(kern, kern)
    assert wg.gap == 0.0


def test_operator_shift_moves_every_eigenvalue_by_epsilon():
    _, kern = _am_kernel(n=128)
    eps = 1e-3
    shifted = KernelGrid(kern.times, kern.values + eps * kern.size * np.eye(kern.size),
                         kern.weight, kern.half_width)
    wg = weyl_gap(kern, shifted)
    assert wg.gap == pytest.approx(eps, rel=1e-9)
    np.testing.assert_allclose(wg.per_rank, eps, rtol=1e-9)


def test_step_approximation_gap_shrinks_linearly():
    spec, kern = _am_kernel(n=1280)
    gaps = []
    for m in (16, 32, 64):
        stepped = step_approximation(kern, m, spec.period)
        wg = weyl_gap(kern, stepped)     # raises if the bound is violated
        assert wg.gap <= wg.bound
        gaps.append(wg.gap)
    assert gaps[0] / gaps[1] >= 1.8
    assert gaps[1] / gaps[2] >= 1.8


def test_grid_mismatch_rejected():
    _, a = _am_kernel(n=64)
    _, b = _am_kernel(n=128)
    with pytest.raises(ValueError):
        weyl_gap(a, b)


# ---------------------------------------------------------------------------
# oracle vs fast path across built-in families
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("family", [flat_psd, triangular_psd])
def test_staircase_oracle_agreement_all_families(family):
    # symbol-time at the base's decorrelation lattice: the windowed process
    # is exactly equivalent to independent symbols and the finite-window
    # curve has no truncation bias
    base = family(1.0, 1.0)
    spec = pam_cpsd(base, rect_pulse(1.0), 1.0)
    oracle = kl_drf(build_kernel(spec, 8.0, 256))
    from csdrf.drf import drf_pam
    for rate in np.geomspace(0.1, 2.0, 6):
        fast = drf_pam(base, rect_pulse(1.0), 1.0, float(rate)).distortion
        ref = oracle.solve(float(rate)).distortion
        assert fast == pytest.approx(ref, rel=1e-3)
