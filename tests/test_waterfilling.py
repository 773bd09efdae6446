import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import csdrf.spectra
import csdrf.waterfilling
from csdrf.polyphase import (PsdPcMatrix, folded_alias_matrix, psd_pc_matrix_continuous,
                             psd_pc_matrix_discrete)
from csdrf.quadrature import half_grid, phi_grid
from csdrf.spectra import (am_cpsd, flat_psd, raised_cosine_psd, row_blocks,
                           triangular_psd, white_cs)
from csdrf.waterfilling import (BRACKET_EXP, MAX_BISECT, NORMAL_FLOOR, SLICE_ENTRIES, EigenField,
                                NotPositiveSemidefinite, RateDistortionPoint,
                                ScalarWaterfiller, WaterLevelUnderflow,
                                discrete_stationary_drf, hermitian_eigenvalues,
                                stacked_solve, stationary_waterfiller)


# ---------------------------------------------------------------------------
# eigenvalue kernel
# ---------------------------------------------------------------------------

def test_2x2_closed_form():
    a, b = 3.0, 1.0 + 2.0j
    mat = np.array([[[a, b], [np.conj(b), a]]])
    lam = hermitian_eigenvalues(mat)[0]
    np.testing.assert_allclose(lam, [a - abs(b), a + abs(b)], rtol=1e-14)


def test_scaled_identity():
    lam = hermitian_eigenvalues(2.5 * np.eye(4)[None, :, :])[0]
    np.testing.assert_allclose(lam, 2.5, rtol=1e-15)


def _char_poly_roots(mat, lo, hi, n_scan=20000):
    """Independent oracle: sign-change bisection on det(A - x I)."""
    xs = np.linspace(lo, hi, n_scan)
    det = np.array([np.linalg.det(mat - x * np.eye(3)).real for x in xs])
    roots = []
    for i in range(n_scan - 1):
        if det[i] == 0.0:
            roots.append(xs[i])
        elif det[i] * det[i + 1] < 0:
            a, b = xs[i], xs[i + 1]
            for _ in range(100):
                m = 0.5 * (a + b)
                if np.linalg.det(mat - a * np.eye(3)).real * \
                   np.linalg.det(mat - m * np.eye(3)).real <= 0:
                    b = m
                else:
                    a = m
            roots.append(0.5 * (a + b))
    return np.array(sorted(roots))


def test_random_hermitian_matches_char_poly_bisection():
    rng = np.random.default_rng(42)
    x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    h = x @ x.conj().T            # Hermitian PSD
    lam = hermitian_eigenvalues(h[None, :, :])[0]
    radius = float(np.abs(h).sum())
    roots = _char_poly_roots(h, -1.0, radius)
    assert roots.size == 3
    np.testing.assert_allclose(lam, roots, rtol=1e-9, atol=1e-9)


def test_indefinite_matrix_rejected():
    mat = np.diag([1.0, -0.5]).astype(complex)[None, :, :]
    with pytest.raises(NotPositiveSemidefinite):
        hermitian_eigenvalues(mat)


def test_tiny_negative_clipped():
    mat = np.diag([1.0, -1e-12]).astype(complex)[None, :, :]
    lam = hermitian_eigenvalues(mat)[0]
    assert lam[0] == 0.0


# ---------------------------------------------------------------------------
# waterfilling on eigenvalue fields
# ---------------------------------------------------------------------------

def _field_from_white(variances, n_grid=512):
    mat = psd_pc_matrix_discrete(white_cs(variances))
    return EigenField.from_matrix(mat, phi_grid(n_grid))


def _recording(matrix):
    """The same matrix field, recording the node count of every evaluation."""
    sizes = []

    def evaluate(phi):
        sizes.append(phi.size)
        return matrix(phi)

    return PsdPcMatrix(matrix.dim, evaluate, matrix.phi_breakpoints), sizes


def test_field_is_built_in_slices_and_equals_the_one_shot_field():
    matrix, sizes = _recording(
        psd_pc_matrix_continuous(am_cpsd(triangular_psd(1.0, 1.0), 0.45, 0.3), 64))
    step = SLICE_ENTRIES // 64 ** 2
    grid = phi_grid(2 * step + step // 2, matrix.phi_breakpoints)     # a partial third slice
    field = EigenField.from_matrix(matrix, grid)
    assert max(sizes) <= step and sum(sizes) == grid.size and len(sizes) == 3
    np.testing.assert_array_equal(field.lam, hermitian_eigenvalues(matrix(grid.nodes)))


@pytest.mark.parametrize("phase", [0.0, 0.3])
def test_field_is_bit_identical_whatever_its_slice_budget(monkeypatch, phase):
    # the wide-alias AM level (J = 27 aliases, three harmonics, side 4) whose
    # assembly outweighs its matrix: a budget of one node, the default and
    # 2**30 entries give the same bits, and no slice's assembly exceeds it
    matrix = folded_alias_matrix(am_cpsd(triangular_psd(1.0, 1.0), 0.1, phase), 4)
    grid = half_grid(0.5, 2048, matrix.phi_breakpoints)
    per_node = matrix.node_entries
    assert matrix.dim == 4 and per_node > 10 * matrix.dim ** 2
    fields, slices = [], []
    for budget in (per_node, SLICE_ENTRIES, 2 ** 30):
        sizes = []
        recording = dataclasses.replace(
            matrix, _evaluate=lambda phi: sizes.append(phi.size) or matrix(phi))
        monkeypatch.setattr(csdrf.waterfilling, "SLICE_ENTRIES", budget)
        fields.append(EigenField.from_matrix(recording, grid).lam)
        assert sum(sizes) == grid.size and max(sizes) * per_node <= budget
        slices.append(len(sizes))
    assert slices[0] == grid.size and 2 < slices[1] < 8 and slices[2] == 1
    for lam in fields[1:]:
        assert lam.tobytes() == fields[0].tobytes()


def test_psd_failure_in_a_later_slice_names_the_grid_node():
    dim = 32
    step = SLICE_ENTRIES // dim ** 2
    grid = phi_grid(3 * step)
    bad = 2 * step + 5

    def evaluate(phi):
        out = np.tile(np.eye(dim, dtype=complex), (phi.size, 1, 1))
        out[phi == grid.nodes[bad], 0, 0] = -1.0
        return out

    matrix, sizes = _recording(PsdPcMatrix(dim, evaluate, ()))
    with pytest.raises(NotPositiveSemidefinite) as info:
        EigenField.from_matrix(matrix, grid)
    assert info.value.index == bad and sizes == [step] * 3
    assert f"node {bad} at phi = {grid.nodes[bad]:.17g}:" in str(info.value)


def test_zero_rate_region_gives_total_power():
    eigs = _field_from_white([1.0, 4.0])
    pt = eigs.waterfiller(1.0 / 4.0).point(5.0)   # theta above lam_max
    assert pt.rate == 0.0
    assert pt.distortion == pytest.approx(2.5, rel=1e-12)


def test_hand_example_two_constant_eigenvalues():
    eigs = _field_from_white([1.0, 4.0])
    pt = eigs.waterfiller(1.0 / 4.0).point(1.0)
    assert pt.distortion == pytest.approx(1.0, rel=1e-12)
    assert pt.rate == pytest.approx(0.5, rel=1e-12)
    inv = eigs.waterfiller(1.0 / 4.0).solve(0.5)
    assert inv.theta == pytest.approx(1.0, rel=1e-9)
    assert inv.distortion == pytest.approx(1.0, rel=1e-9)


def test_flat_band_closed_form_discrete():
    # single flat level sigma^2 on a band of measure 2 w: D = sigma^2 2^{-rate/w}
    w = 0.25

    def spectrum(phi):
        return np.where(np.abs(phi) <= w, 2.0, 0.0)

    pt = discrete_stationary_drf(spectrum, 1.0, breakpoints=(-w, w))
    assert pt.distortion == pytest.approx(2.0 * 2.0 * w * 2.0 ** (-1.0 / w), rel=1e-12)


def test_theta_zero_infinite_rate_sentinel():
    eigs = _field_from_white([1.0])
    pt = eigs.waterfiller(0.5).point(0.0)
    assert math.isinf(pt.rate)


def test_underflow_reported():
    sw = ScalarWaterfiller(np.array([1.0]), np.array([0.1]), 1.0, 0.5)
    with pytest.raises(WaterLevelUnderflow):
        sw.solve(1e6)


def test_monotone_in_theta():
    eigs = EigenField.from_matrix(
        psd_pc_matrix_continuous(am_cpsd(triangular_psd(1.0, 1.0), 1.2), 4),
        phi_grid(512))
    thetas = np.geomspace(1e-6, eigs.lam.max(), 25)
    sw = eigs.waterfiller(0.5)
    rates = [sw.point(t).rate for t in thetas]
    dists = [sw.point(t).distortion for t in thetas]
    assert np.all(np.diff(rates) <= 1e-12)
    assert np.all(np.diff(dists) >= -1e-15)


def test_distortion_vanishes_for_small_theta_on_bounded_support():
    eigs = _field_from_white([1.0, 4.0])
    pt = eigs.waterfiller(0.25).point(1e-12)
    assert pt.distortion <= 1e-11


# ---------------------------------------------------------------------------
# stationary special case
# ---------------------------------------------------------------------------

def test_flat_band_continuous_closed_form():
    sw = stationary_waterfiller(flat_psd(1.0, 1.0))
    for rate in (0.0, 1.0, 3.0):
        pt = sw.solve(rate)
        assert pt.distortion == pytest.approx(2.0 ** -rate, rel=1e-9)


def test_rate_zero_gives_total_power():
    base = triangular_psd(0.7, 1.3)
    assert stationary_waterfiller(base).solve(0.0).distortion == pytest.approx(1.3, rel=1e-12)


def test_triangular_matches_folded_discrete_evaluation():
    # cross-module consistency: sampling a band-limited source at its Nyquist
    # rate preserves the curve after converting rate per second to per symbol
    base = triangular_psd(1.0, 1.0)
    fs = 2.0
    cont = stationary_waterfiller(base).solve(1.0)

    def folded(phi):
        return fs * base(fs * phi)     # single alias inside [-1/2, 1/2]

    disc = discrete_stationary_drf(folded, 1.0 / fs, breakpoints=(-0.5, 0.0, 0.5))
    assert disc.distortion == pytest.approx(cont.distortion, rel=1e-9)


def test_solved_rate_hits_target():
    sw = stationary_waterfiller(raised_cosine_psd(1.0, 1.0))
    for target in (0.3, 1.7, 12.0):
        pt = sw.solve(target)
        assert pt.rate == pytest.approx(target, rel=1e-9, abs=1e-9)


def test_quadrature_refinement_stability():
    # doubling the grid moves the distortion by < 1e-6 relative on a smooth
    # density at a fixed water level
    base = raised_cosine_psd(1.0, 1.0)
    sw1 = stationary_waterfiller(base, 2048)
    sw2 = stationary_waterfiller(base, 4096)
    for theta in (0.05, 0.2, 0.6):
        d1, d2 = sw1.distortion(theta), sw2.distortion(theta)
        assert abs(d2 - d1) <= 1e-6 * max(d1, 1e-12)


def test_diagonal_field_equals_average_of_scalar_evaluations():
    eigs = _field_from_white([1.0, 4.0], n_grid=256)
    theta = 0.7
    pt = eigs.waterfiller(1.0 / 4.0).point(theta)
    # common water level across two independent flat spectra
    d_avg = 0.5 * (min(1.0, theta) + min(4.0, theta))
    r_avg = 0.5 * (0.5 * math.log2(1.0 / theta) + 0.5 * math.log2(4.0 / theta))
    assert pt.distortion == pytest.approx(d_avg, rel=1e-12)
    assert pt.rate == pytest.approx(r_avg, rel=1e-12)


def test_curve_convexity():
    base = triangular_psd(1.0, 1.0)
    rates = np.linspace(0.0, 4.0, 15)
    sw = stationary_waterfiller(base)
    d = np.array([sw.solve(r).distortion for r in rates])
    assert np.all(np.diff(d) <= 1e-9 * d[0])               # non-increasing
    assert np.all(np.diff(d, 2) >= -1e-9 * d[0])           # convex on the uniform grid


def test_waterfiller_is_permutation_invariant():
    rng = np.random.default_rng(13)
    levels = rng.uniform(0.0, 3.0, 64)
    weights = rng.uniform(0.1, 1.0, 64)
    perm = rng.permutation(64)
    a = ScalarWaterfiller(levels, weights, 1.0, 0.5)
    b = ScalarWaterfiller(levels[perm], weights[perm], 1.0, 0.5)
    pa, pb = a.solve(1.2), b.solve(1.2)
    assert pa.distortion == pytest.approx(pb.distortion, rel=1e-12)
    assert pa.theta == pytest.approx(pb.theta, rel=1e-12)


# ---------------------------------------------------------------------------
# the log-level bisection against the direct rate map
# ---------------------------------------------------------------------------

class _DirectWaterfiller:
    """Reference: the same bisection with the rate map evaluated directly as
    sum_i w_i log2(max(level_i / theta, 1)) over every level, zeros included."""

    def __init__(self, levels, weights, d_scale, r_scale):
        self.levels = np.maximum(np.asarray(levels, dtype=float), 0.0)
        self.weights = np.asarray(weights, dtype=float)
        self.d_scale, self.r_scale = d_scale, r_scale
        self.level_max = float(self.levels.max(initial=0.0))

    def distortion(self, theta):
        return self.d_scale * float(self.weights @ np.minimum(self.levels, theta))

    def rate(self, theta):
        return self.r_scale * float(self.weights @ np.log2(np.maximum(self.levels / theta, 1.0)))

    def point(self, theta):
        return RateDistortionPoint(float(theta), self.rate(theta), self.distortion(theta))

    def edge_rate(self):
        """Largest target the bracket admits before WaterLevelUnderflow."""
        if self.level_max == 0.0:
            return 1.0              # any target: the curve is zero
        rate_lo = self.rate(self.level_max * 2.0 ** -BRACKET_EXP)
        return rate_lo * (1.0 + 1e-12) + 1e-12

    def solve(self, target_rate):
        if self.level_max == 0.0:
            return RateDistortionPoint(0.0, 0.0, 0.0)
        if target_rate == 0.0:
            return self.point(self.level_max)
        if target_rate > self.edge_rate():
            raise WaterLevelUnderflow("reference")
        lo, hi = self.level_max * 2.0 ** -BRACKET_EXP, self.level_max
        for _ in range(MAX_BISECT):
            mid = math.sqrt(lo * hi)
            if self.rate(mid) >= target_rate:
                lo = mid
            else:
                hi = mid
            if hi - lo <= 4e-16 * hi:
                break
        return self.point(math.sqrt(lo * hi))


_levels_and_weights = st.lists(
    st.tuples(st.one_of(st.just(0.0), st.floats(-30.0, 3.0).map(lambda e: 10.0 ** e)),
              st.one_of(st.just(0.0), st.floats(1e-3, 10.0))),
    min_size=1, max_size=40)


@settings(max_examples=300, deadline=None)
@given(pairs=_levels_and_weights, d_scale=st.floats(1e-3, 1e3), r_scale=st.floats(1e-3, 1e3),
       share=st.floats(0.0, 1.2))
@example(pairs=[(1e-30, 1.0), (1e3, 1.0), (0.0, 1.0)], d_scale=1.0, r_scale=0.5, share=1.0)
@example(pairs=[(1e-30, 1.0), (1e3, 1.0), (0.0, 1.0)], d_scale=1.0, r_scale=0.5, share=1.01)
@example(pairs=[(0.0, 1.0), (0.0, 2.0)], d_scale=1.0, r_scale=0.5, share=0.5)
@example(pairs=[(2.0, 0.0), (1.0, 1.0)], d_scale=1.0, r_scale=0.5, share=1e-9)
def test_log_level_bisection_matches_the_direct_rate_map(pairs, d_scale, r_scale, share):
    # the target runs from 0 to past the bracket edge, as a share of the edge rate
    levels, weights = map(np.array, zip(*pairs))
    ref = _DirectWaterfiller(levels, weights, d_scale, r_scale)
    edge = ref.edge_rate()
    target = share * edge
    # the two rate maps round differently; only a target inside that
    # rounding of the edge may be refused by one and solved by the other
    assume(abs(target - edge) > 1e-12 * edge)
    sw = ScalarWaterfiller(levels, weights, d_scale, r_scale)
    try:
        want = ref.solve(target)
    except WaterLevelUnderflow:
        with pytest.raises(WaterLevelUnderflow):
            sw.solve(target)
        return
    got = sw.solve(target)
    assert got.theta == pytest.approx(want.theta, rel=1e-13, abs=0.0)
    assert got.distortion == pytest.approx(want.distortion, rel=1e-13, abs=0.0)
    assert got.rate == pytest.approx(want.rate, rel=1e-12, abs=1e-12 * edge)


def test_log2_runs_once_per_waterfiller_and_never_per_step(monkeypatch):
    calls = []
    real_log2 = np.log2

    def recording_log2(*args, **kwargs):
        calls.append(np.size(args[0]))
        return real_log2(*args, **kwargs)

    monkeypatch.setattr(np, "log2", recording_log2)
    levels = np.array([0.0, 1e-6, 0.3, 2.0, 5.0])
    sw = ScalarWaterfiller(levels, np.ones(5), 1.0, 0.5)
    assert calls == []                                    # none at construction
    rate_calls = []
    real_rate = ScalarWaterfiller.rate
    monkeypatch.setattr(ScalarWaterfiller, "rate",
                        lambda self, theta: rate_calls.append(theta) or real_rate(self, theta))
    sw.solve(1.5)
    assert calls == [4]                                   # the kept levels, once
    sw.point(0.7)
    assert calls == [4] and len(rate_calls) > 30
    # solved only by the table, a waterfiller takes the table's one log2 alone
    ScalarWaterfiller(levels, np.ones(5), 1.0, 0.5).solve_many([0.4, 1.5])
    assert calls == [4, 4]


@settings(max_examples=300, deadline=None)
@given(pairs=_levels_and_weights, d_scale=st.floats(1e-3, 1e3), r_scale=st.floats(1e-3, 1e3),
       shares=st.lists(st.floats(0.0, 1.2), min_size=1, max_size=8))
@example(pairs=[(1.0, 0.0)], d_scale=1.0, r_scale=0.5, shares=[0.0, 0.5, 1e-3])
@example(pairs=[(2.0, 0.0), (1.0, 1.0)], d_scale=1.0, r_scale=0.5, shares=[1e-9, 0.5])
@example(pairs=[(3.0, 1.0), (3.0, 0.0), (3.0, 2.0), (1.0, 1.0)], d_scale=1.0, r_scale=0.5,
         shares=[0.0, 1e-6, 0.01, 0.3, 1.1])
@example(pairs=[(1e-30, 1.0), (1e3, 1.0), (0.0, 1.0)], d_scale=1.0, r_scale=0.5,
         shares=[0.9, 1.0, 1.01])
@example(pairs=[(0.0, 1.0), (0.0, 2.0)], d_scale=1.0, r_scale=0.5, shares=[0.0, 0.5])
def test_exact_solve_matches_the_bisection_and_the_direct_rate_map(pairs, d_scale, r_scale,
                                                                   shares):
    levels, weights = map(np.array, zip(*pairs))
    ref = _DirectWaterfiller(levels, weights, d_scale, r_scale)
    sw = ScalarWaterfiller(levels, weights, d_scale, r_scale)
    edge = ref.edge_rate()
    # only a target inside the rounding of the edge may be refused by one
    # rate map and solved by the other
    targets = [share * edge for share in shares if abs(share - 1.0) > 1e-12]
    assume(targets)
    solved = []
    for target in targets:
        try:
            ref.solve(target)
        except WaterLevelUnderflow:
            with pytest.raises(WaterLevelUnderflow):
                sw.solve(target)
            with pytest.raises(WaterLevelUnderflow):
                sw.solve_many([0.0, target])
            continue
        solved.append(target)
    theta, dist = sw.solve_many(solved)
    assert theta.shape == dist.shape == (len(solved),)
    for target, got_theta, got_dist in zip(solved, theta, dist):
        for want in (sw.solve(target), ref.solve(target)):
            assert got_theta == pytest.approx(want.theta, rel=1e-12, abs=0.0)
            assert got_dist == pytest.approx(want.distortion, rel=1e-12, abs=0.0)


def test_waterfiller_keeps_only_the_positive_levels():
    sw = ScalarWaterfiller([0.0, 3.0, -1e-18, 1.0], [0.5, 1.0, 2.0, 0.25], 1.0, 0.5)
    np.testing.assert_array_equal(sw.levels, [3.0, 1.0])
    np.testing.assert_array_equal(sw.weights, [1.0, 0.25])
    assert sw.level_max == 3.0


def test_waterfiller_without_positive_levels_is_the_zero_curve():
    sw = ScalarWaterfiller([0.0, -1e-20], [1.0, 1.0], 1.0, 0.5)
    assert sw.levels.size == 0
    assert sw.solve(2.0) == RateDistortionPoint(0.0, 0.0, 0.0)
    assert sw.rate(0.0) == 0.0 and sw.distortion(1.0) == 0.0


@pytest.mark.parametrize("exp", [-990, 990])
def test_bisection_is_exact_under_a_power_of_two_scale(exp):
    # levels near either end of the float range: the bracket product lo * hi
    # overflowed (theta = inf) and the bracket floor underflowed to 0
    # (theta = D = 0) before the bracket was held in the binade of level_max
    levels, weights = np.array([3.0, 1.7, 0.4, 0.05]), np.array([0.25, 0.25, 0.3, 0.2])
    ref = ScalarWaterfiller(levels, weights, 1.0, 0.5)
    scaled = ScalarWaterfiller(np.ldexp(levels, exp), weights, 1.0, 0.5)
    for rate in (0.0, 0.3, 1.0, 4.0):
        want, got = ref.solve(rate), scaled.solve(rate)
        assert got.theta == math.ldexp(want.theta, exp)
        assert got.distortion == math.ldexp(want.distortion, exp)
        assert got.rate == want.rate


def test_rate_at_a_water_level_below_the_float_range_is_infinite():
    sw = ScalarWaterfiller([1e300], [1.0], 1.0, 0.5)
    assert math.isinf(sw.rate(1e-300)) and math.isinf(sw.rate(-1.0))


def test_levels_below_the_float_range_keep_their_underflow_edge():
    # the bracket floor level_max 2^-120 underflows here; the edge is the
    # rate at 2^-1022, taken in the log domain, and both solves refuse past it
    sw = ScalarWaterfiller([1e-300, 5e-301], [1.0, 1.0], 1.0, 0.5)
    edge = 0.5 * sum(math.log2(level / NORMAL_FLOOR) for level in (1e-300, 5e-301))
    with pytest.raises(WaterLevelUnderflow) as one:
        sw.solve(200.0)
    with pytest.raises(WaterLevelUnderflow) as many:
        sw.solve_many(200.0)
    assert str(one.value) == str(many.value)
    assert f"underflow below {NORMAL_FLOOR}" in str(one.value)
    assert float(str(one.value).split("maximum ")[1].split()[0]) == pytest.approx(edge, rel=1e-12)
    for rate in (0.5 * edge, edge, edge * (1.0 + 1e-13)):
        pt = sw.solve(rate)
        theta, dist = sw.solve_many(rate)
        assert pt.theta >= NORMAL_FLOOR and theta >= NORMAL_FLOOR
        assert theta == pytest.approx(pt.theta, rel=1e-9)
        assert dist == pytest.approx(pt.distortion, rel=1e-9)


@settings(max_examples=100, deadline=None)
@given(exp=st.integers(-1060, -880), share=st.floats(0.0, 1.2))
def test_every_water_level_solved_is_a_normal_float(exp, share):
    # levels whose bracket floor falls below the normal floats: a positive
    # rate up to the edge gives a normal theta from either solve (rate 0 gives
    # level_max, subnormal itself below exp = -1023), and past it both raise
    levels = np.ldexp(np.array([3.0, 1.7, 0.4, 0.05]), exp)
    sw = ScalarWaterfiller(levels, [0.25, 0.25, 0.3, 0.2], 1.0, 0.5)
    theta_lo, rate_lo = sw._edge()
    assert theta_lo >= NORMAL_FLOOR
    rate = share * rate_lo
    assume(rate > 0.0)
    if rate > rate_lo * (1.0 + 1e-12) + 1e-12:
        with pytest.raises(WaterLevelUnderflow):
            sw.solve(rate)
        with pytest.raises(WaterLevelUnderflow):
            sw.solve_many(rate)
        return
    pt = sw.solve(rate)
    theta, _ = sw.solve_many(rate)
    assert pt.theta >= NORMAL_FLOOR and theta >= NORMAL_FLOOR


@pytest.mark.parametrize("levels, weights, d_scale, r_scale, name", [
    ([1.0, np.nan], [1.0, 1.0], 1.0, 0.5, "levels"),
    ([1.0, np.inf], [1.0, 1.0], 1.0, 0.5, "levels"),
    ([1.0, -np.inf], [1.0, 1.0], 1.0, 0.5, "levels"),
    ([1.0, 2.0], [1.0, np.nan], 1.0, 0.5, "weights"),
    ([1.0, 2.0], [1.0, np.inf], 1.0, 0.5, "weights"),
    ([1.0, 2.0], [1.0, -0.1], 1.0, 0.5, "weights"),
    ([1.0, 2.0], [1.0, 1.0], 0.0, 0.5, "d_scale"),
    ([1.0, 2.0], [1.0, 1.0], -1.0, 0.5, "d_scale"),
    ([1.0, 2.0], [1.0, 1.0], np.nan, 0.5, "d_scale"),
    ([1.0, 2.0], [1.0, 1.0], 1.0, 0.0, "r_scale"),
    ([1.0, 2.0], [1.0, 1.0], 1.0, np.inf, "r_scale"),
    ([1.0, 2.0], [1.0, 1.0], 1.0, np.nan, "r_scale"),
])
def test_waterfiller_input_contract(levels, weights, d_scale, r_scale, name):
    with pytest.raises(ValueError, match=name):
        ScalarWaterfiller(levels, weights, d_scale, r_scale)


@pytest.mark.parametrize("rates", [-1.0, [0.5, -1e-300], [0.5, np.nan], [np.inf]])
def test_exact_solve_refuses_a_negative_or_non_finite_rate(rates):
    sw = ScalarWaterfiller([1.0, 2.0], [1.0, 1.0], 1.0, 0.5)
    with pytest.raises(ValueError, match="finite and nonnegative"):
        sw.solve_many(rates)


def test_exact_solve_keeps_the_shape_and_the_endpoints_of_solve():
    sw = ScalarWaterfiller([0.0, 1.0, 2.0, 0.5], [1.0, 0.5, 1.0, 2.0], 3.0, 0.5)
    theta, dist = sw.solve_many(0.0)
    assert theta.shape == dist.shape == ()
    assert theta == 2.0 and dist == pytest.approx(3.0 * (0.5 + 2.0 + 1.0), rel=1e-15)
    theta, dist = sw.solve_many(np.full((2, 3), 0.7))
    assert theta.shape == dist.shape == (2, 3)
    zero = ScalarWaterfiller([0.0, -1e-20], [1.0, 1.0], 1.0, 0.5)
    for out in zero.solve_many([0.0, 2.0, 1e9]):
        np.testing.assert_array_equal(out, 0.0)


def test_exact_solve_names_the_first_rate_past_the_bracket():
    sw = ScalarWaterfiller([1.0], [1.0], 1.0, 0.5)
    edge_rate = 0.5 * BRACKET_EXP
    with pytest.raises(WaterLevelUnderflow) as many:
        sw.solve_many([1.0, 2.0 * edge_rate, 3.0 * edge_rate])
    with pytest.raises(WaterLevelUnderflow) as one:
        sw.solve(2.0 * edge_rate)
    assert str(many.value) == str(one.value)

@pytest.mark.parametrize("rates, index", [
    (1.5, 0),                                   # a 0-d rate
    ([0.5, 1.5, 1.6], 1),
    ([1.6, 0.5, 1.5], 0),
    ([[0.5, 0.9], [1.6, 1.5]], 2),              # flat (C) order
])
def test_underflow_index_is_the_flat_position_of_the_first_rate_past_the_edge(rates, index):
    # in units of the edge of one level of weight 1 at r_scale 0.5; the
    # stack's rows 0 and 2 resolve about twice that, so row 1 fails
    rates = 0.5 * BRACKET_EXP * np.asarray(rates)
    levels, weights = np.array([[1.0, 2.0], [1.0, 0.0], [4.0, 1.0]]), np.array([1.0, 1.0])
    with pytest.raises(WaterLevelUnderflow) as one_row:
        ScalarWaterfiller([1.0], [1.0], 1.0, 0.5).solve_many(rates)
    with pytest.raises(WaterLevelUnderflow) as stack:
        stacked_solve(levels, weights, rates, 0.5)
    for exc in (one_row.value, stack.value):
        assert exc.index == index and f"target rate {rates.flat[index]} " in str(exc)
    with pytest.raises(WaterLevelUnderflow) as bisection:
        ScalarWaterfiller([1.0], [1.0], 1.0, 0.5).solve(float(rates.flat[index]))
    assert bisection.value.index is None


def test_exact_solve_keeps_its_table_and_gives_the_batch_result_one_rate_at_a_time():
    rng = np.random.default_rng(5)
    levels, weights = rng.exponential(size=300), rng.uniform(0.0, 1.0, 300)
    rates = np.geomspace(1e-3, 40.0, 9)
    batch = ScalarWaterfiller(levels, weights, 0.7, 0.3).solve_many(rates)
    sw = ScalarWaterfiller(levels, weights, 0.7, 0.3)
    singles = [sw.solve_many(rate) for rate in rates]
    table = sw._table
    sw.solve_many(rates)
    assert sw._table is table                  # built once, on the first call
    np.testing.assert_array_equal(np.array(singles).T, np.array(batch))



# ---------------------------------------------------------------------------
# the stacked exact solve
# ---------------------------------------------------------------------------

def _blocks_of(rows, width):
    """``BLOCK_ENTRIES`` patched so that a block holds ``rows`` rows of ``width``."""
    return mock.patch.object(csdrf.spectra, "BLOCK_ENTRIES", rows * width)


@settings(max_examples=200, deadline=None)
@given(rows=st.integers(0, 40), width=st.integers(1, 50), entries=st.integers(0, 400))
def test_row_blocks_take_every_row_once_and_never_a_lone_row(rows, width, entries):
    with mock.patch.object(csdrf.spectra, "BLOCK_ENTRIES", entries):
        blocks = list(row_blocks(rows, width))
    step = max(2, entries // width)
    assert [i for b in blocks for i in range(rows)[b]] == list(range(rows))
    for b in blocks:
        size = len(range(rows)[b])
        assert (size >= 2 or rows == 1) and size <= step + 1


# rows drawn from a few values, so that rows hold ties, zeros, negative
# levels, and sometimes nothing positive at all
_stack_level = st.one_of(st.sampled_from([0.0, -0.5, 1.0, 2.0, 0.25]),
                         st.floats(-12.0, 3.0).map(lambda e: 10.0 ** e))


@st.composite
def _stacks(draw):
    n = draw(st.integers(1, 12))
    rows = draw(st.lists(st.one_of(st.lists(_stack_level, min_size=n, max_size=n),
                                   st.just([0.0] * n)), min_size=1, max_size=9))
    weights = draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 10.0)),
                            min_size=n, max_size=n))
    return np.array(rows), np.array(weights)


def _per_row(levels, weights, rates, r_scale):
    """Each row's own ``solve_many``, or the message of the first row that underflows."""
    out = []
    for row in levels:
        try:
            out.append(ScalarWaterfiller(row, weights, 1.0, r_scale).solve_many(rates))
        except WaterLevelUnderflow as exc:
            return str(exc)
    return out


@settings(max_examples=300, deadline=None)
@given(stack=_stacks(), r_scale=st.floats(1e-2, 1e2),
       rates=st.lists(st.one_of(st.just(0.0), st.floats(0.0, 40.0)), min_size=1, max_size=6),
       block=st.integers(1, 3))
@example(stack=(np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 0.0], [0.0, -1.0]]), np.array([1.0, 0.0])),
         r_scale=0.5, rates=[0.0, 0.5, 3.0], block=1)
def test_stacked_solve_is_each_rows_exact_solve_bit_for_bit(stack, r_scale, rates, block):
    # blocks of 1 to 3 rows (a lone row joins its neighbour), so that every
    # stack of more than three rows spans several blocks
    levels, weights = stack
    want = _per_row(levels, weights, rates, r_scale)
    with _blocks_of(block, levels.shape[1]):
        if isinstance(want, str):
            with pytest.raises(WaterLevelUnderflow) as got:
                stacked_solve(levels, weights, rates, r_scale)
            assert str(got.value) == want
            return
        theta, dist = stacked_solve(levels, weights, rates, r_scale)
    assert theta.shape == dist.shape == (levels.shape[0], len(rates))
    for row_theta, row_dist, (t, d) in zip(theta, dist, want):
        assert row_theta.tobytes() == t.tobytes() and row_dist.tobytes() == d.tobytes()


def test_stacked_solve_names_the_first_row_and_rate_past_the_bracket():
    # rows 3 and 4 both underflow, in the second block of two; row 3 first,
    # at its second rate
    # (a row of one positive level resolves 60 bits, of two about 120)
    levels = np.array([[1.0, 2.0], [4.0, 1.0], [0.0, 0.0], [1.0, 0.0], [0.5, 0.0]])
    weights = np.array([1.0, 1.0])
    edge = 0.5 * BRACKET_EXP                 # one level of weight 1, r_scale 0.5
    rates = [0.5 * edge, 1.5 * edge, 1.6 * edge]
    with pytest.raises(WaterLevelUnderflow) as want:
        ScalarWaterfiller(levels[3], weights, 1.0, 0.5).solve_many(rates)
    with pytest.raises(WaterLevelUnderflow) as later:
        ScalarWaterfiller(levels[4], weights, 1.0, 0.5).solve_many(rates)
    assert f"target rate {1.5 * edge} " in str(want.value) and str(later.value) != str(want.value)
    with _blocks_of(2, 2), pytest.raises(WaterLevelUnderflow) as got:
        stacked_solve(levels, weights, rates, 0.5)
    assert str(got.value) == str(want.value)


def test_stacked_solve_keeps_the_rate_shape_and_checks_its_inputs():
    levels = np.array([[1.0, 2.0, 0.0], [0.0, 0.0, 0.0]])
    theta, dist = stacked_solve(levels, [1.0, 1.0, 1.0], np.full((2, 3), 0.4), 0.5)
    assert theta.shape == dist.shape == (2, 2, 3)
    np.testing.assert_array_equal(theta[1], 0.0)
    np.testing.assert_array_equal(dist[1], 0.0)
    for empty in (np.zeros((0, 3)), np.zeros((2, 0))):         # no rows, rows of no level
        theta, dist = stacked_solve(empty, np.ones(empty.shape[1]), [0.0, 0.5], 0.5)
        assert theta.shape == dist.shape == (empty.shape[0], 2)
        assert not theta.any() and not dist.any()
    for bad, name in (((levels[0], [1.0, 1.0, 1.0]), "levels must be"),
                      ((levels, [1.0, 1.0]), "levels must be"),
                      ((levels * np.nan, [1.0, 1.0, 1.0]), "levels must be finite"),
                      ((levels, [1.0, -1.0, 1.0]), "weights")):
        with pytest.raises(ValueError, match=name):
            stacked_solve(*bad, [0.5], 0.5)
    with pytest.raises(ValueError, match="finite and nonnegative"):
        stacked_solve(levels, [1.0, 1.0, 1.0], [0.5, -1.0], 0.5)
    with pytest.raises(ValueError, match="r_scale"):
        stacked_solve(levels, [1.0, 1.0, 1.0], [0.5], 0.0)


# ---------------------------------------------------------------------------
# real fields in real arithmetic
# ---------------------------------------------------------------------------

def _eigvalsh_dtypes(monkeypatch):
    dtypes = []
    real_eigvalsh = np.linalg.eigvalsh

    def recording_eigvalsh(a, *args, **kwargs):
        dtypes.append(np.asarray(a).dtype)
        return real_eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", recording_eigvalsh)
    return dtypes


@pytest.mark.parametrize("phase, dtype", [(0.0, np.float64), (0.3, np.complex128)])
def test_am_field_reaches_eigvalsh_real_only_at_phase_zero(monkeypatch, phase, dtype):
    matrix = folded_alias_matrix(am_cpsd(triangular_psd(1.0, 1.0), 0.1, phase), 8)
    grid = phi_grid(300, matrix.phi_breakpoints)
    dtypes = _eigvalsh_dtypes(monkeypatch)
    field = EigenField.from_matrix(matrix, grid, d_scale=1.0 / 8)
    assert dtypes and set(dtypes) == {np.dtype(dtype)}       # every slice's call
    as_complex = hermitian_eigenvalues(matrix(grid.nodes).astype(complex))
    assert dtypes[-1] == np.complex128
    np.testing.assert_allclose(field.lam, as_complex, rtol=0, atol=1e-13 * as_complex.max())


@pytest.mark.parametrize("complex_stack", [False, True], ids=["real", "complex"])
def test_symmetrization_is_bit_identical_and_leaves_the_input_alone(complex_stack):
    # (A^H + A) / 2 formed in one buffer equals 0.5 * (A + A^H) bit for bit;
    # a real stack's conj() is a view, so the sum must not add into the input
    rng = np.random.default_rng(11)
    mats = rng.normal(size=(40, 6, 6))
    if complex_stack:
        mats = mats + 1j * rng.normal(size=mats.shape)
    mats = mats @ np.swapaxes(mats, -1, -2).conj() + 1e-10 * rng.normal(size=mats.shape)
    for stack in (mats, np.swapaxes(mats, -1, -2)):
        before = stack.copy()
        ref = np.maximum(np.linalg.eigvalsh(0.5 * (stack + np.swapaxes(stack, -1, -2).conj())),
                         0.0)
        np.testing.assert_array_equal(hermitian_eigenvalues(stack), ref)
        np.testing.assert_array_equal(stack, before)
