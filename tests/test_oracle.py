import tracemalloc
from functools import partial
from math import ceil, floor
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import csdrf.oracle
import csdrf.spectra
from csdrf.cli import Scenario, _normalized_pam, main, make_base
from csdrf.drf import discrete_waterfiller, pam_waterfiller
from csdrf.oracle import (BlockCovariance, KernelGrid, PeriodizedBlock, build_kernel,
                          kl_drf, step_approximation, weyl_gap)
from csdrf.quadrature import gauss_segments
from csdrf.spectra import (DiscreteCsProcess, am_cpsd, flat_psd, ideal_interp_pulse,
                           modulated_ma, pam_cpsd, raised_cosine_psd, raised_cosine_pulse,
                           rect_pulse, stationary_cyclic, triangle_pulse,
                           triangular_psd, white_cs)
from csdrf.waterfilling import (NotPositiveSemidefinite, _clip_eigenvalues,
                                stationary_waterfiller)


# ---------------------------------------------------------------------------
# kernel construction
# ---------------------------------------------------------------------------

def test_stationary_kernel_is_toeplitz():
    spec = stationary_cyclic(triangular_psd(1.0, 1.0), 0.5)
    kern = build_kernel(spec, 4, 64)
    vals = kern.values
    for off in (1, 5, 17):
        diag = np.diagonal(vals, offset=off)
        assert np.ptp(diag) <= 1e-9 * abs(diag).max()


def test_am_kernel_matches_direct_product_form():
    # oracle: K(t, s) = 2 cos(2 pi f0 t) cos(2 pi f0 s) R_U(t - s)
    base = flat_psd(1.0, 1.0)
    f0 = 4.0
    spec = am_cpsd(base, f0, 0.0)
    kern = build_kernel(spec, 8, 128)
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
    kern = build_kernel(spec, 4, 64)
    t = kern.times
    direct = 2.0 * np.cos(2 * np.pi * f0 * t + phase)[:, None] * \
        np.cos(2 * np.pi * f0 * t + phase)[None, :] * base.autocorr(t[:, None] - t[None, :])
    np.testing.assert_allclose(kern.values, direct, atol=1e-12)


def test_pam_rect_kernel_is_block_constant():
    base = flat_psd(1.0, 1.0)
    spec = pam_cpsd(base, rect_pulse(1.0), 1.0)
    kern = build_kernel(spec, 4, 128)       # 16 points per symbol cell
    cell = np.floor(kern.times).astype(int)
    for ci in (-4, -1, 2):
        for cj in (-4, 0, 3):
            block = kern.dense_values()[np.ix_(cell == ci, cell == cj)]
            assert np.ptp(block) <= 1e-12


def test_window_must_cover_whole_periods():
    spec = am_cpsd(flat_psd(1.0, 1.0), 4.0)
    with pytest.raises(ValueError):
        build_kernel(spec, 1.1, 64)


def test_window_periods_must_be_a_positive_integer():
    spec = am_cpsd(flat_psd(1.0, 1.0), 4.0)
    for periods in (0, -2, 1.5, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="periods must be a positive integer"):
            build_kernel(spec, periods, 64)


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


def _broadcast_covariance(spec, t, s, lags=None):
    """sum_n cyclic_autocorr(n, tau) exp(2 pi i n s / T0) on the full broadcast
    grid, with tau = t - s unless the lags are given."""
    t, s = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(s, dtype=float))
    tau = t - s if lags is None else lags
    out = np.zeros(t.shape, dtype=complex)
    for n in spec.active_indices:
        out += spec.cyclic_autocorr(n, tau) * np.exp(2.0 * np.pi * 1j * n * s / spec.period)
    return out.real


def _outer(reference, spec, times):
    values = reference(spec, times[:, None], times[None, :])
    return 0.5 * (values + values.T)


def _pam(family, bandwidth, power, pulse, symbol_rate, normalize):
    sc = Scenario(kind="pam", family=family, bandwidth=bandwidth, power=power,
                  pulse=pulse, normalize_power=normalize)
    return _normalized_pam(sc, make_base(sc), symbol_rate)


def _assert_factored_matches_loop(spec, periods, n, steps):
    kern = build_kernel(spec, periods, n)
    stepped = step_approximation(spec, kern, steps)
    h = spec.period / steps
    for values, times in ((kern.dense_values(), kern.times),
                          (stepped.values, np.floor(kern.times / h) * h)):
        ref = _outer(_pam_loop_covariance, spec, times)
        np.testing.assert_allclose(values, ref, rtol=0.0, atol=1e-15 * np.abs(ref).max())


@pytest.mark.parametrize("pulse, normalize", [
    ("rect", False), ("triangle", False), ("rect", True), ("triangle", True)])
def test_factored_pam_kernel_matches_the_symbol_loop(pulse, normalize):
    spec = _pam("raised_cosine", 1.0, 2.0, pulse, 1.3, normalize)
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


@settings(max_examples=60, deadline=None)
@given(family=st.sampled_from(["flat", "triangular", "raised_cosine"]),
       bandwidth=st.floats(0.25, 4.0), power=st.floats(0.1, 10.0),
       pulse=st.sampled_from(["rect", "triangle"]), normalize=st.booleans(),
       nyquist_share=st.floats(0.1, 2.0), periods=st.integers(1, 5), n=st.integers(2, 64))
def test_symbol_space_eigenvalues_equal_the_dense_decomposition(
        family, bandwidth, power, pulse, normalize, nyquist_share, periods, n):
    # P R_U P^T = Q (Rp R_U Rp^T) Q^T: the s x s core carries the nonzero
    # eigenvalues and the other n - s are exact zeros. Both decompositions are
    # backward stable, so they agree within a small multiple of n eps lambda_max
    # (the largest seen over 4000 draws was 1.1 n eps lambda_max)
    spec = _pam(family, bandwidth, power, pulse, 2.0 * bandwidth * nyquist_share, normalize)
    kern = build_kernel(spec, periods, n)
    symbols = kern.factor[0].shape[1]
    with mock.patch.object(np.linalg, "eigvalsh", wraps=np.linalg.eigvalsh) as eigvalsh:
        fast = kern.operator_eigenvalues()
    assert [np.shape(c.args[0]) for c in eigvalsh.call_args_list] == [(min(n, symbols),) * 2]
    dense = np.linalg.eigvalsh(kern.dense_values())[::-1] * kern.weight
    assert fast.shape == (n,) and np.all(fast[min(n, symbols):] == 0.0)
    tol = 4.0 * n * np.finfo(float).eps * np.abs(dense).max()
    np.testing.assert_allclose(fast, dense, rtol=0.0, atol=tol)


def test_factored_kernel_keeps_no_dense_values_and_forms_them_bit_for_bit():
    # a factored kernel is built and decomposed (kl_drf) without its dense
    # P R_U P^T; ``dense_values`` forms it with the bits of the symmetrized
    # covariance
    spec = _pam("triangular", 1.0, 1.0, "rect", 1.3, False)
    with mock.patch("csdrf.oracle.factor_product",
                    wraps=csdrf.oracle.factor_product) as product:
        kern = build_kernel(spec, 4, 96)
        kl_drf(kern)
        assert product.call_count == 0 and kern.values is None
        dense = kern.dense_values()
        assert product.call_count == 1
    covariance = spec.covariance(kern.times, 2.0 * kern.half_width / kern.size)
    np.testing.assert_array_equal(dense, 0.5 * (covariance + covariance.T))


def test_symmetrize_is_the_half_sum_bit_for_bit_and_a_kernel_keeps_its_array():
    # (K + K^T)/2 is formed in place, a block of rows against its mirror
    # columns; a kernel holds the array it is given, unchecked and uncopied
    n = 301                     # several row blocks, the last one ragged
    values = np.random.default_rng(5).normal(size=(n, n))
    before = values.copy()
    assert csdrf.oracle._symmetrize(values) is values
    np.testing.assert_array_equal(values, 0.5 * (before + before.T))
    kern = KernelGrid(np.arange(n) + 0.5, values, 1.0 / n, n / 2.0)
    assert kern.values is values and kern.dense_values() is values


def _am(phase):
    return am_cpsd(triangular_psd(1.0, 1.5), 1.7, phase)


# source -> the n x n array a builder made for it
BUILT_KERNELS = {
    "stationary": lambda: build_kernel(
        stationary_cyclic(raised_cosine_psd(0.8), 0.7), 3, 97).values,
    "am phase 0": lambda: build_kernel(_am(0.0), 3, 97).values,
    "am phase 0.3": lambda: build_kernel(_am(0.3), 3, 97).values,
    "pam ideal": lambda: build_kernel(
        pam_cpsd(flat_psd(1.0), ideal_interp_pulse(0.8), 0.8), 3, 97).values,
    "pam rect": lambda: build_kernel(
        pam_cpsd(flat_psd(1.0), rect_pulse(0.8), 0.8), 3, 97).dense_values(),
    "am stepped": lambda: step_approximation(_am(0.3), build_kernel(_am(0.3), 3, 97), 5).values,
}


@pytest.mark.parametrize("build", BUILT_KERNELS.values(), ids=BUILT_KERNELS.keys())
def test_every_kernel_builder_makes_an_exactly_symmetric_array(build):
    # a KernelGrid keeps its values as given, so each builder symmetrizes
    values = build()
    assert values.shape == (97, 97) and np.array_equal(values, values.T)


def test_reversal_halves_are_the_whole_halves_bit_for_bit():
    # the even and odd halves are formed in turn, a block of rows at a time,
    # in one buffer: the eigenvalues are those of the halves formed whole
    spec = GENERIC_SOURCES["stationary"]()
    kern = build_kernel(spec, 4, 512)
    values, m = kern.values, 256
    top = 0.5 * (values[:m, :m] + values[m:, m:][::-1, ::-1])
    flip = (0.5 * (values[:m, m:] + values[m:, :m][::-1, ::-1]))[:, ::-1]
    whole = np.sort(np.concatenate([np.linalg.eigvalsh(top + flip),
                                    np.linalg.eigvalsh(top - flip)]))
    assert csdrf.oracle._commutes_with_reversal(values)
    assert (kern.operator_eigenvalues() == whole[::-1] * kern.weight).all()


def test_kernel_without_values_or_factor_is_refused():
    with pytest.raises(ValueError, match="values or its factor"):
        KernelGrid(np.array([0.0, 1.0]), None, 0.5, 1.0)


GENERIC_SOURCES = {
    "am": lambda: am_cpsd(triangular_psd(1.0, 1.5), 1.7, 0.4),
    "stationary": lambda: stationary_cyclic(raised_cosine_psd(0.8, 1.0), 0.7),
    "pam-ideal": lambda: pam_cpsd(flat_psd(1.0, 1.0), ideal_interp_pulse(0.8), 0.8),
    "pam-raised-cosine": lambda: pam_cpsd(triangular_psd(1.0, 1.0),
                                          raised_cosine_pulse(0.7, 0.3), 0.7),
}


@pytest.mark.parametrize("name", sorted(GENERIC_SOURCES))
def test_generic_covariance_equals_the_broadcast_sum(name):
    # the kernel's lags are the integer offsets of its grid, (i - j) dt, and
    # the stepped kernel's are those of its cells, (c_i - c_j) h
    spec = GENERIC_SOURCES[name]()
    kern = build_kernel(spec, 3, 40)
    stepped = step_approximation(spec, kern, 5)
    dt = 2.0 * kern.half_width / kern.size
    h = spec.period / 5
    cells = np.floor(kern.times / h)
    for values, times, offsets, step in ((kern.values, kern.times, np.arange(40), dt),
                                         (stepped.values, cells * h, cells, h)):
        lags = step * np.subtract.outer(offsets, offsets)
        reference = partial(_broadcast_covariance, lags=lags)
        np.testing.assert_array_equal(values, _outer(reference, spec, times))


def _assert_bitwise(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and a.dtype == b.dtype
    assert a.tobytes() == b.tobytes()


GENERATED_SOURCES = {
    "am": lambda a, x: am_cpsd(triangular_psd(a, 1.0), a * (0.5 + 3.0 * x), 6.0 * x),
    "stationary": lambda a, x: stationary_cyclic(raised_cosine_psd(a, 1.0), (0.2 + x) / a),
    "pam-ideal": lambda a, x: pam_cpsd(flat_psd(a, 1.0), ideal_interp_pulse((0.2 + x) / a),
                                       (0.2 + x) / a),
    "pam-raised-cosine": lambda a, x: pam_cpsd(triangular_psd(a, 1.0),
                                               raised_cosine_pulse((0.2 + x) / a, 0.1 + 0.9 * x),
                                               (0.2 + x) / a),
}


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(sorted(GENERATED_SOURCES)), bandwidth=st.floats(0.25, 4.0),
       shape=st.floats(0.0, 1.0), periods=st.integers(1, 4), n=st.integers(2, 64),
       steps=st.one_of(st.none(), st.integers(1, 8)))
def test_covariance_equals_the_broadcast_sum_property(name, bandwidth, shape, periods, n, steps):
    # plain and stepped times, each at the integer offsets of its lattice;
    # every harmonic row of one stacked call equals its own scalar call
    spec = GENERATED_SOURCES[name](bandwidth, shape)
    kern = build_kernel(spec, periods, n)
    times, offsets, step = kern.times, np.arange(n), 2.0 * kern.half_width / n
    if steps is not None:
        step = spec.period / steps
        offsets = np.floor(times / step)
        times = offsets * step
    lags = step * np.subtract.outer(offsets, offsets)
    _assert_bitwise(spec.covariance(times, step),
                    _broadcast_covariance(spec, times[:, None], times[None, :], lags))
    harmonics = np.array(spec.active_indices + (max(spec.active_indices) + 1,))
    lags = np.subtract.outer(times, times)
    rows = spec.cyclic_autocorr(harmonics, lags)
    assert rows.shape == harmonics.shape + lags.shape
    for h, row in zip(harmonics.tolist(), rows):
        _assert_bitwise(row, spec.cyclic_autocorr(h, lags))
        if name.startswith("pam"):
            ref = _signed_lag_transform(spec, h, lags)
            np.testing.assert_allclose(row, ref, rtol=0.0, atol=1e-14 * max(np.abs(ref).max(), 1.0))


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(sorted(GENERATED_SOURCES)), bandwidth=st.floats(0.25, 4.0),
       shape=st.floats(0.0, 1.0), periods=st.integers(1, 4), n=st.integers(2, 300),
       steps=st.one_of(st.none(), st.integers(1, 8)), block=st.integers(1, 3),
       tau=st.lists(st.floats(-6.0, 6.0), min_size=1, max_size=40))
@example(name="pam-ideal", bandwidth=1.0, shape=0.0, periods=1, n=2, steps=8, block=1,
         tau=[-1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0])
def test_kernel_rows_and_transform_lags_in_blocks_equal_one_block(name, bandwidth, shape,
                                                                 periods, n, steps, block, tau):
    # the covariance in blocks of 1 to 3 rows of the kernel, and the
    # quadrature transform in blocks of 1 to 3 lags (a lone row joins its
    # neighbour), against one block holding all of either: bit for bit
    spec = GENERATED_SOURCES[name](bandwidth, shape)
    times = build_kernel(spec, periods, n).times
    step = 2.0 * periods * spec.period / n
    if steps is not None:
        step = spec.period / steps
        times = np.floor(times / step) * step
    harmonics = np.array(spec.active_indices)
    nodes = gauss_segments(-spec.freq_radius, spec.freq_radius, spec.breakpoints,
                           min_cells=128)[0]
    with mock.patch.object(csdrf.spectra, "BLOCK_ENTRIES", 2 ** 40):
        whole = spec.covariance(times, step), spec.cyclic_autocorr(harmonics, np.array(tau))
    with mock.patch.object(csdrf.spectra, "BLOCK_ENTRIES", block * n):
        rows = spec.covariance(times, step)
    with mock.patch.object(csdrf.spectra, "BLOCK_ENTRIES", block * nodes.size):
        lags = spec.cyclic_autocorr(harmonics, np.array(tau))
    _assert_bitwise(rows, whole[0])
    _assert_bitwise(lags, whole[1])


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_window_symmetrizations_halve_before_adding_and_an_overflow_is_named():
    # entries of 1.5e308 sum past the float range, but their mean is finite;
    # the reversal halves A + B J of an all-1e308 kernel are 2e308, refused
    big = 1.5e308
    np.testing.assert_array_equal(csdrf.oracle._symmetrize(np.full((2, 2), big)), big)
    assert csdrf.oracle._reversal_eigenvalues(np.diag([big, big])).tolist() == [big, big]
    block = BlockCovariance.from_process(DiscreteCsProcess([[big]]), 2)
    np.testing.assert_array_equal(block.matrix, np.diag([big, big]))
    wrapped = PeriodizedBlock(np.array([[[big, 0.0], [0.0, big]], [[0.0, 1.0], [1.0, 0.0]]]))
    np.testing.assert_allclose(wrapped.operator_eigenvalues(), big / 4, rtol=1e-15)
    with pytest.raises(np.linalg.LinAlgError, match=r"the window of size 2 overflowed; "
                                                    r"max \|entry\| = 1\.000e\+308$"):
        csdrf.oracle._reversal_eigenvalues(np.full((2, 2), 1e308))


@pytest.mark.parametrize("spec", [am_cpsd(triangular_psd(1.0, 1.0), 1.2, 0.3),
                                  stationary_cyclic(raised_cosine_psd(1.0, 1.0), 0.7),
                                  pam_cpsd(flat_psd(1.0, 1.0), ideal_interp_pulse(0.8), 0.8)],
                         ids=["am", "stationary", "pam-ideal"])
def test_kernel_oracle_peak_is_one_kernel(spec):
    # the n x n kernel is gathered a block of rows at a time and symmetrized
    # in place, and a reversal-symmetric kernel's halves are formed in turn in
    # one n/2 x n/2 buffer, so the build and its decomposition hold one kernel
    # (tracemalloc sees numpy's buffers, not LAPACK's workspace); with a
    # symmetrized copy they held two, and summed whole, the generic kernel
    # peaked at 6 such arrays, the stationary one at 3
    n = 1024
    tracemalloc.start()
    try:
        kl_drf(build_kernel(spec, 4, n))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 8 * n * n, peak / (8 * n * n)


REVERSAL_SOURCES = {
    # name: (spectrum from bandwidth a and shape x, reversal-symmetric on a grid
    # symmetric about 0)
    "stationary": (GENERATED_SOURCES["stationary"], True),
    "am-phase-0": (lambda a, x: am_cpsd(triangular_psd(a, 1.0), a * (0.5 + 3.0 * x), 0.0), True),
    "am-phase-pi/2": (lambda a, x: am_cpsd(flat_psd(a, 1.0), a * (0.5 + 3.0 * x), np.pi / 2),
                      True),
    "am-random-phase": (lambda a, x: am_cpsd(triangular_psd(a, 1.0), a * (0.5 + 3.0 * x),
                                             0.1 + (np.pi / 2 - 0.2) * x), False),
    "pam-ideal": (GENERATED_SOURCES["pam-ideal"], True),
    "pam-raised-cosine": (GENERATED_SOURCES["pam-raised-cosine"], True),
}


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(REVERSAL_SOURCES)), bandwidth=st.floats(0.25, 4.0),
       shape=st.floats(0.0, 1.0), periods=st.integers(1, 3), n=st.integers(24, 96))
@example(name="am-random-phase", bandwidth=1.0, shape=0.2 / (np.pi / 2 - 0.2), periods=2, n=64)
def test_reversal_split_is_taken_exactly_for_symmetric_kernels(name, bandwidth, shape, periods, n):
    # the grid is symmetric about 0 with at least four points per period, so
    # the kernel commutes with the reversal J exactly when the source is
    # time-reversible about 0: stationary, AM at phase 0 or pi/2, PAM with an
    # even pulse. An even-sized such kernel is decomposed as two n/2 halves;
    # the eigenvalues are those of (K + J K J)/2, within the Weyl bound
    # ||K - J K J||_2 / 2 of the dense ones, plus rounding
    make, symmetric = REVERSAL_SOURCES[name]
    spec = make(bandwidth, shape)
    kern = build_kernel(spec, periods, n)
    with mock.patch.object(np.linalg, "eigvalsh", wraps=np.linalg.eigvalsh) as eigvalsh:
        fast = kern.operator_eigenvalues()
    split = symmetric and n % 2 == 0
    shapes = [np.shape(c.args[0]) for c in eigvalsh.call_args_list]
    assert shapes == ([(n // 2, n // 2)] * 2 if split else [(n, n)])
    dense = np.linalg.eigvalsh(kern.values)[::-1] * kern.weight
    mirror = kern.values[::-1, ::-1]
    weyl = 0.5 * np.linalg.norm(kern.values - mirror, 2) * kern.weight
    tol = weyl + 4.0 * n * np.finfo(float).eps * np.abs(dense).max()
    assert fast.shape == (n,) and np.all(np.diff(fast) <= 0.0)
    np.testing.assert_allclose(fast, dense, rtol=0.0, atol=tol)


def _signed_lag_transform(spec, n, tau):
    """Gauss-grid inverse transform of cpsd(n, .) at every lag, sign included."""
    nodes, weights = gauss_segments(-spec.freq_radius, spec.freq_radius, spec.breakpoints,
                                    min_cells=128)
    kern = np.exp(2.0 * np.pi * 1j * np.multiply.outer(tau, nodes))
    return kern @ (weights * spec.cpsd(n, nodes))


def test_cyclic_autocorr_takes_one_harmonic_or_a_vector_of_them():
    spec = GENERIC_SOURCES["pam-ideal"]()
    tau = np.array([[-0.3, 0.0], [0.3, 1.1]])
    assert spec.cyclic_autocorr(0, tau).shape == tau.shape
    assert spec.cyclic_autocorr(np.array([0]), tau).shape == (1,) + tau.shape
    with pytest.raises(ValueError, match="1-d"):
        spec.cyclic_autocorr(np.zeros((1, 1), dtype=int), tau)


@pytest.mark.parametrize("name", ["pam-ideal", "am"])
def test_kernel_lags_are_the_integer_offsets_of_its_grid(monkeypatch, name):
    # 2n - 1 lags k dt for the kernel, 2K + 1 lags k h for its stepped cells,
    # not the distinct float differences of the times, which round apart for
    # one grid offset
    spec = GENERIC_SOURCES[name]()
    original = spec.cyclic_autocorr
    seen = []

    def recording(n, tau):
        seen.append(np.array(tau))
        return original(n, tau)

    monkeypatch.setattr(spec, "cyclic_autocorr", recording)
    kern = build_kernel(spec, 4, 96)
    dt = 2.0 * kern.half_width / kern.size
    h = spec.period / 3
    step_approximation(spec, kern, 3)
    cells = np.floor(kern.times / h)
    span = cells.max() - cells.min()
    assert len(seen) == 2
    _assert_bitwise(seen[0], dt * np.arange(-95, 96))
    _assert_bitwise(seen[1], h * np.arange(-span, span + 1))


def test_covariance_refuses_times_off_the_declared_lattice():
    spec = GENERIC_SOURCES["am"]()
    with pytest.raises(ValueError, match="not on a lattice of step 0.1"):
        spec.covariance(np.array([0.0, 0.1, 0.25]), 0.1)
    for step in (0.0, -0.1, np.nan):
        with pytest.raises(ValueError, match="lattice step"):
            spec.covariance(np.array([0.0, 0.1]), step)


# ---------------------------------------------------------------------------
# block assembly and its decomposition
# ---------------------------------------------------------------------------

def _per_entry_block(proc, n):
    """The block entry by entry from ``proc.cov``, then symmetrized."""
    mat = np.zeros((n, n))
    lmax = proc.memory
    for lag in range(-lmax, lmax + 1):
        for j in range(max(0, -lag), min(n, n - lag)):
            mat[j + lag, j] = proc.cov(j, lag)
    return 0.5 * (mat + mat.T)


def _time_varying_ma(taps):
    """Table of X[n] = sum_i taps[n mod M, i] W[n - i] with W unit white:
    R[n, k] = sum_i taps[n+k, i+k] taps[n, i], consistent by construction."""
    m, width = taps.shape
    lmax = width - 1
    table = np.zeros((m, 2 * lmax + 1))
    for n in range(m):
        for k in range(-lmax, lmax + 1):
            for i in range(max(0, -k), min(width, width - k)):
                table[n, lmax + k] += taps[(n + k) % m, i + k] * taps[n, i]
    return DiscreteCsProcess(table)


_unit = st.floats(-2.0, 2.0).map(lambda x: 0.0 if abs(x) < 0.2 else x)
_processes = st.one_of(
    st.lists(_unit.map(abs), min_size=1, max_size=5).map(white_cs),
    st.builds(modulated_ma, st.lists(_unit, min_size=1, max_size=5),
              st.lists(_unit, min_size=1, max_size=4)),
    st.integers(1, 4).flatmap(lambda m: st.integers(1, 4).flatmap(
        lambda w: st.lists(_unit, min_size=m * w, max_size=m * w).map(
            lambda v: _time_varying_ma(np.reshape(v, (m, w)))))),
)


@settings(max_examples=80, deadline=None)
@given(proc=_processes, extra=st.integers(0, 12))
def test_block_fill_equals_the_per_entry_loop(proc, extra):
    # lengths from 1 to past the memory, multiples of the period or not
    for n in sorted({1, 2, proc.period, proc.memory + 1, 2 * proc.memory + extra + 1}):
        _assert_bitwise(BlockCovariance.from_process(proc, n).matrix, _per_entry_block(proc, n))


def _dense_levels(matrix):
    lam = _clip_eigenvalues(np.linalg.eigvalsh(matrix)[::-1] / matrix.shape[0])
    return lam[lam > 0.0]


@settings(max_examples=60, deadline=None)
@given(variances=st.lists(_unit.map(abs), min_size=1, max_size=6), n=st.integers(1, 200))
@example(variances=[0.3, 2.0, 0.0, 1.7], n=1024)
def test_memoryless_block_is_its_sorted_diagonal(variances, n):
    # the dense decomposition of a diagonal block is its sorted diagonal, bit for bit
    block = BlockCovariance.from_process(white_cs(variances), n)
    closed = np.sort(np.diagonal(block.matrix))[::-1] / n
    _assert_bitwise(kl_drf(block).levels, closed[closed > 0.0])


@settings(max_examples=60, deadline=None)
@given(scales=st.lists(_unit, min_size=2, max_size=6), zero=st.integers(0, 5),
       taps=st.lists(_unit, min_size=1, max_size=4), n=st.integers(1, 60))
def test_block_with_memory_is_decomposed_dense(scales, zero, taps, n):
    # a zero scale makes the block reducible; it is still decomposed whole
    scales[zero % len(scales)] = 0.0
    block = BlockCovariance.from_process(modulated_ma(scales, taps), n)
    _assert_bitwise(kl_drf(block).levels, _dense_levels(block.matrix))


@pytest.mark.parametrize("matrix", [
    np.diag([1.0, -1.0, 2.0]),
    np.array([[2.0, 0.0, 0.0], [0.0, 1.0, 2.0], [0.0, 2.0, 1.0]]),
])
def test_block_with_a_negative_part_is_rejected(matrix):
    with pytest.raises(NotPositiveSemidefinite):
        kl_drf(BlockCovariance(matrix))


# ---------------------------------------------------------------------------
# periodized blocks: whole periods on a circle, block-circulant
# ---------------------------------------------------------------------------

def _per_entry_wrapped(proc, n):
    """The n x n wrapped block entry by entry: every lag of every column is
    added at its row modulo n, so lags that wrap onto one entry are summed."""
    mat = np.zeros((n, n))
    lmax = proc.memory
    for t in range(n):
        for lag in range(-lmax, lmax + 1):
            mat[(t + lag) % n, t] += proc.cov(t, lag)
    return 0.5 * (mat + mat.T)


@settings(max_examples=80, deadline=None)
@given(proc=_processes, periods=st.integers(1, 12))
@example(proc=modulated_ma([1.0], [0.5, -0.8, 0.3, 0.9]), periods=2)
@example(proc=modulated_ma([1.3, 0.7], [0.5, 0.8, 0.3, 0.2, 0.9]), periods=4)
def test_periodized_block_equals_the_wrapped_dense_matrix(proc, periods):
    # m = 1 and n < 2L + 1 included: the lags that wrap onto one block are summed
    n = periods * proc.period
    dense = np.linalg.eigvalsh(_per_entry_wrapped(proc, n))[::-1] / n
    block = PeriodizedBlock.from_process(proc, n)
    assert block.blocks.shape == (periods, proc.period, proc.period)
    lam = block.operator_eigenvalues()
    assert np.abs(lam - dense).max() <= 1e-14 * np.abs(dense).max()


@settings(max_examples=60, deadline=None)
@given(variances=st.lists(_unit.map(abs), min_size=1, max_size=6), periods=st.integers(1, 100))
@example(variances=[0.3, 2.0, 0.0, 1.7], periods=256)
def test_memoryless_periodized_block_is_the_plain_blocks_levels(variances, periods):
    proc = white_cs(variances)
    n = periods * proc.period
    plain = kl_drf(BlockCovariance.from_process(proc, n)).levels
    with mock.patch.object(np.linalg, "eigvalsh", wraps=np.linalg.eigvalsh) as eigvalsh:
        _assert_bitwise(kl_drf(PeriodizedBlock.from_process(proc, n)).levels, plain)
    assert eigvalsh.call_count == 0


@pytest.mark.parametrize("n", [0, 5, -3])
def test_periodized_block_takes_whole_periods(n):
    with pytest.raises(ValueError, match="positive multiple of the period 3"):
        PeriodizedBlock.from_process(white_cs([1.0, 2.0, 3.0]), n)


# the cross-check workload's period-3 modulated MA source at seed 1
MODULATED_MA_3 = """
[source]
kind = discrete-cs
mod_scales = 1.859751 1.884272 1.019848
ma_taps = 0.901714 0.833481 0.90797

[rates]
min = 0.1
max = 4.0
count = 8
spacing = log

[numerics]
oracle_n = {n}
"""


def _verify_gap(tmp_path, capsys, n):
    cfg = tmp_path / f"mma3-{n}.ini"
    cfg.write_text(MODULATED_MA_3.format(n=n))
    code = main(["verify", "--config", str(cfg)])
    gap = float(capsys.readouterr().out.split("max_rel_gap=")[1].split()[0])
    return code, gap


def test_periodized_oracle_makes_no_dense_block(tmp_path, capsys):
    # a dense 8190 x 8190 block alone would take 537 MB
    tracemalloc.start()
    try:
        code, gap = _verify_gap(tmp_path, capsys, 8192)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and gap < 1e-6
    assert peak < 6e6


def test_periodized_oracle_converges_as_the_window_doubles(tmp_path, capsys):
    gaps = [_verify_gap(tmp_path, capsys, n) for n in (96, 192, 384, 768, 1536)]
    assert all(code == 0 for code, _ in gaps)
    gaps = [gap for _, gap in gaps]
    assert all(b < a for a, b in zip(gaps, gaps[1:])), gaps
    assert gaps[3] <= 1e-4 and gaps[4] <= 1e-6


def test_periodized_oracle_still_checks_the_fast_path(tmp_path, capsys, monkeypatch):
    # the fast path alone sees slot 0 scaled by 1.01: verify must fail
    assert _verify_gap(tmp_path, capsys, 768)[0] == 0
    waterfiller = csdrf.drf.discrete_waterfiller

    def scaled(proc, *args):
        table, lmax = proc.cov_table, proc.memory
        scale = np.ones(proc.period)
        scale[0] = 1.01
        rows = np.arange(proc.period)[:, None]
        lags = np.arange(-lmax, lmax + 1)[None, :]
        return waterfiller(DiscreteCsProcess(
            table * scale[rows] * scale[(rows + lags) % proc.period]), *args)

    monkeypatch.setattr(csdrf.drf, "discrete_waterfiller", scaled)
    code, gap = _verify_gap(tmp_path, capsys, 768)
    assert code == 3 and gap > 1e-3


def test_plain_window_richardson_limit_is_an_independent_reference():
    # the periodized block is the fast path's own symbol on a uniform grid;
    # the plain window converges to the DRF at O(1/n) through its edges, so
    # one Richardson step 2 D(n) - D(n/2) leaves O(1/n^2) against the step
    # |D(n) - D(n/2)| = O(1/n). The fast path must sit within 8/n steps of
    # the limit (0.57/n seen); one table slot scaled by 1.01 misses by 12
    proc = modulated_ma([1.0, 0.5, 2.0], [1.0, 0.6, 0.3])
    rates = np.array([0.25, 1.0, 4.0])
    n = 768
    full, half = (kl_drf(BlockCovariance.from_process(proc, k)).solve_many(rates)[1]
                  for k in (n, n // 2))
    limit, step = 2.0 * full - half, np.abs(full - half)
    fast = discrete_waterfiller(proc, 2 ** 16).solve_many(rates)[1]
    assert np.all(np.abs(fast - limit) <= 8.0 / n * step), np.abs(fast - limit) / step


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
    kern = build_kernel(spec, 4, 200)
    lam = kern.operator_eigenvalues()
    windowed_power = np.mean(np.diag(kern.values))
    assert lam.sum() == pytest.approx(windowed_power, rel=1e-8)


def test_window_doubling_halves_the_gap():
    # the finite-window curve approaches the spectral value; the error
    # roughly halves per window doubling on band-limited sources
    base = flat_psd(1.0, 1.0)
    baseband = stationary_waterfiller(base).solve(1.0).distortion
    cases = [(stationary_cyclic(base, 0.25), baseband), (am_cpsd(base, 4.0), baseband)]
    for spec, ref in cases:
        gaps = []
        for periods, n in ((8, 256), (16, 512), (32, 1024)):
            kern = build_kernel(spec, periods, n)
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
    return spec, build_kernel(spec, periods, n)


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
        stepped = step_approximation(spec, kern, m)
        wg = weyl_gap(kern, stepped)     # raises if the bound is violated
        assert wg.gap <= wg.bound
        gaps.append(wg.gap)
    assert gaps[0] / gaps[1] >= 1.8
    assert gaps[1] / gaps[2] >= 1.8


@pytest.mark.parametrize("power", [1e-12, 1e12])
def test_weyl_gap_rounding_slack_scales_with_the_kernels(power):
    # identical and stepped pairs pass at any power; an eigenvalue moved by
    # 1e-6 of the largest fails even at power 1e-12, where an absolute slack
    # of 1e-9 would have let it through
    spec = am_cpsd(triangular_psd(1.0, power), 4.0)
    kern = build_kernel(spec, 4, 128)
    assert weyl_gap(kern, kern).gap == 0.0
    wg = weyl_gap(kern, step_approximation(spec, kern, 16))
    assert 0.0 < wg.gap <= wg.bound
    honest = KernelGrid.operator_eigenvalues

    def perturbed(self):
        lam = honest(self)
        return lam + 1e-6 * lam.max() * (self is not kern)

    twin = KernelGrid(kern.times, kern.values, kern.weight, kern.half_width)
    with mock.patch.object(KernelGrid, "operator_eigenvalues", perturbed):
        with pytest.raises(AssertionError, match="exceeds"):
            weyl_gap(kern, twin)


def test_grid_mismatch_rejected():
    _, a = _am_kernel(n=64)
    _, b = _am_kernel(n=128)
    with pytest.raises(ValueError):
        weyl_gap(a, b)


def _unit_kernel(weight):
    return KernelGrid(np.array([-0.5, 0.5]), np.eye(2), weight, 1.0)


WINDOW_REFUSALS = {
    "kernel size": (lambda: build_kernel(stationary_cyclic(flat_psd(1.0), 1.0), 1, 1),
                    "need at least two grid points, got n = 1"),
    "normalizations": (lambda: weyl_gap(_unit_kernel(0.5), _unit_kernel(0.25)),
                       "kernel normalizations do not match"),
}


@pytest.mark.parametrize("build, message", WINDOW_REFUSALS.values(), ids=WINDOW_REFUSALS.keys())
def test_a_bad_window_is_refused(build, message):
    with pytest.raises(ValueError, match=message):
        build()


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
    oracle = kl_drf(build_kernel(spec, 8, 256))
    closed = pam_waterfiller(spec)
    for rate in np.geomspace(0.1, 2.0, 6):
        fast = closed.solve(float(rate)).distortion
        ref = oracle.solve(float(rate)).distortion
        assert fast == pytest.approx(ref, rel=1e-3)
