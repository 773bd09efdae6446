import tracemalloc
from math import ceil, floor
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import csdrf.drf
import csdrf.spectra
import csdrf.waterfilling
from csdrf.cli import (SOURCES, Scenario, _normalized_pam, drf_rows, load_scenario, make_base,
                       make_discrete)
from csdrf.drf import (ContinuousDrfConfig, ContinuousDrfSolver,
                       discrete_waterfiller, lower_bound_continuous,
                       lower_bound_discrete, pam_waterfiller, sampled_coding)
from csdrf.polyphase import (PsdPcMatrix, folded_alias_matrix, psd_pc_matrix_continuous,
                             psd_pc_matrix_discrete, saturation_dim)
from csdrf.quadrature import half_grid, phi_grid, segmented_midpoint
from csdrf.spectra import (DiscreteCsProcess, PamCyclicSpectrum, PulseShape, am_cpsd,
                           am_gaussian_psd, flat_psd,
                           ideal_interp_pulse, modulated_ma, pam_cpsd,
                           raised_cosine_psd, raised_cosine_pulse, rect_pulse,
                           stationary_cyclic, triangle_pulse, triangular_psd,
                           white_cs, wiener_pulse)
from csdrf.waterfilling import (BRACKET_EXP, EigenField, ScalarWaterfiller,
                                WaterLevelUnderflow, discrete_stationary_drf,
                                stationary_waterfiller)


# ---------------------------------------------------------------------------
# discrete-time curves
# ---------------------------------------------------------------------------

def test_single_slot_reduces_to_scalar_waterfilling():
    proc = modulated_ma([1.0], [1.0, 0.6])

    def spectrum(phi):
        return np.abs(1.0 + 0.6 * np.exp(-2j * np.pi * phi)) ** 2

    sw = discrete_waterfiller(proc)
    for rate in (0.2, 1.0, 3.0):
        fast = sw.solve(rate)
        ref = discrete_stationary_drf(spectrum, rate)
        assert fast.distortion == pytest.approx(ref.distortion, rel=1e-12)


def test_alternating_hand_value():
    proc = white_cs([1.0, 4.0])
    pt = discrete_waterfiller(proc).solve(0.5)
    assert pt.distortion == pytest.approx(1.0, rel=1e-9)
    assert pt.theta == pytest.approx(1.0, rel=1e-9)


def test_zero_rate_is_average_power():
    proc = modulated_ma([0.9, 1.2, 0.7], [1.0, 0.3])
    pt = discrete_waterfiller(proc).solve(0.0)
    assert pt.rate == 0.0
    assert pt.distortion == pytest.approx(proc.avg_power, rel=1e-12)


# ---------------------------------------------------------------------------
# continuous-time refinement
# ---------------------------------------------------------------------------

def test_stationary_spec_constant_in_resolution():
    base = triangular_psd(1.0, 1.0)
    spec = stationary_cyclic(base, 0.5 / base.support_radius)
    ref = stationary_waterfiller(base).solve(1.0)
    solver = ContinuousDrfSolver(spec)
    for m in (1, 2, 4):
        pt = solver.point_at(1.0, m)
        assert pt.distortion == pytest.approx(ref.distortion, rel=1e-9)


def test_am_above_twice_bandwidth_matches_baseband_at_every_resolution():
    base = flat_psd(1.0, 1.0)
    spec = am_cpsd(base, 4.0)
    ref = stationary_waterfiller(base).solve(1.0)
    solver = ContinuousDrfSolver(spec)
    for m in (4, 8, 16):
        pt = solver.point_at(1.0, m)
        assert pt.distortion == pytest.approx(ref.distortion, rel=1e-6)


def test_pam_matches_closed_form_at_every_resolution():
    base = triangular_psd(1.0, 1.0)
    pulse = raised_cosine_pulse(0.8, 0.3)
    spec = pam_cpsd(base, pulse, 0.8)
    closed, solver = pam_waterfiller(spec), ContinuousDrfSolver(spec)
    for rate in (0.4, 1.5):
        ref = closed.solve(rate)
        for m in (4, 8, 16):
            pt = solver.point_at(rate, m)
            assert pt.distortion == pytest.approx(ref.distortion, rel=1e-6)


def test_refinement_reports_iterates_and_weyl_diagnostic():
    spec = am_cpsd(triangular_psd(1.0, 1.0), 1.2)
    res = ContinuousDrfSolver(spec, ContinuousDrfConfig(m_start=4, m_max=32)).solve(1.0)
    assert res.weyl_bounds == ()            # no diagnostic without a supplied constant
    res = ContinuousDrfSolver(spec, ContinuousDrfConfig(4, 32, lipschitz_c=2.0)).solve(1.0)
    assert res.converged
    assert res.iterates[0][0] == 4
    assert len(res.weyl_bounds) == len(res.iterates)
    assert all(w > 0 for w in res.weyl_bounds)
    # heuristic bound halves as the resolution doubles
    assert res.weyl_bounds[1] == pytest.approx(0.5 * res.weyl_bounds[0], rel=1e-12)


def test_nonconvergence_flagged():
    spec = am_cpsd(triangular_psd(1.0, 1.0), 1.2)
    cfg = ContinuousDrfConfig(m_start=4, m_max=8, convergence_tol=0.0)
    res = ContinuousDrfSolver(spec, cfg).solve(1.0)
    assert not res.converged
    # a zero tolerance runs the whole schedule, even where D_4 and D_8 tie
    assert len(res.iterates) == 2
    assert len(res.cauchy_gaps) == 1


def test_levels_too_coarse_for_the_rate_are_skipped():
    # AM at f0 = f_B / 16: M = 1 resolves at most 3.75 bits per second, so
    # at R = 4 the schedule from M = 1 skips it and runs as the one from M = 2
    spec = am_cpsd(flat_psd(1.0, 1.0), 0.0625)
    with pytest.raises(WaterLevelUnderflow, match="resolvable maximum 3.75"):
        ContinuousDrfSolver(spec).point_at(4.0, 1)
    a = ContinuousDrfSolver(spec, ContinuousDrfConfig(m_start=1)).solve(4.0)
    b = ContinuousDrfSolver(spec, ContinuousDrfConfig(m_start=2)).solve(4.0)
    assert a == b
    assert a.iterates[0][0] == 2 and len(a.cauchy_gaps) == len(a.iterates) - 1
    # an underflow at the last level of the schedule still raises
    with pytest.raises(WaterLevelUnderflow):
        ContinuousDrfSolver(spec, ContinuousDrfConfig(m_start=1, m_max=1)).solve(4.0)


@pytest.mark.parametrize("tol", [-1.0, float("nan"), float("inf")])
def test_meaningless_convergence_tol_rejected(tol):
    with pytest.raises(ValueError, match="convergence_tol"):
        ContinuousDrfConfig(convergence_tol=tol)


@pytest.mark.parametrize("key, value", [
    ("m_start", 2.5), ("m_start", 4.0), ("m_start", 0), ("m_max", 64.0), ("m_max", "64"),
    ("n_grid", 100.5), ("n_grid", 0), ("n_grid", -8), ("n_grid", True),
])
def test_refinement_schedule_must_be_positive_integers(key, value):
    with pytest.raises(ValueError, match=f"{key} must be a positive integer"):
        ContinuousDrfConfig(**{key: value})


def test_m_max_below_m_start_rejected():
    with pytest.raises(ValueError, match="m_max must be at least m_start"):
        ContinuousDrfConfig(m_start=8, m_max=4)


class _FullMatrixSolver(ContinuousDrfSolver):
    """Reference: the same refinement over fields of the full M x M polyphase
    matrix, all M eigenvalues kept."""

    def eigen_field(self, dim):
        if dim not in self._fields:
            self._fields[dim] = EigenField.from_matrix(
                psd_pc_matrix_continuous(self.spec, dim), self._grid)
        return self._fields[dim]


FOLDED_SOURCES = {
    "am-fig6": lambda: am_cpsd(triangular_psd(1.0, 1.0), 1.2),
    "am-early-stop": lambda: am_cpsd(triangular_psd(1.0, 1.0), 0.1),
    "am-flat-phase": lambda: am_cpsd(flat_psd(0.8, 2.0), 0.35, 0.9),
    "am-raised-cosine": lambda: am_cpsd(raised_cosine_psd(1.5, 0.5), 2.1, 2.0),
    "stationary": lambda: stationary_cyclic(triangular_psd(1.0, 1.0), 0.7),
    "pam-raised-cosine": lambda: pam_cpsd(triangular_psd(1.0, 1.0),
                                          raised_cosine_pulse(0.8, 0.3), 0.8),
    "pam-triangle": lambda: pam_cpsd(flat_psd(1.0, 1.0), triangle_pulse(0.8), 0.8),
}


def _roundoff_mass(ref, fast, dim):
    """Distortion that the reference's M - r trailing eigenvalues, round-off
    of the zeros the folded field leaves out, can add at any water level."""
    field, side = ref.eigen_field(dim), fast.eigen_field(dim).lam.shape[1]
    return field.d_scale * float(field.grid.weights @ field.lam[:, :dim - side].sum(axis=1))


@pytest.mark.parametrize("name", sorted(FOLDED_SOURCES))
def test_folded_fields_reproduce_the_full_matrix_solver(name):
    # every level of the schedule, converged or not, at rates up to 8 bits
    # per second per unit bandwidth: within 1e-12 D + 1e-15 sigma^2, plus the
    # round-off mass of the reference (up to 3e-15 sigma^2 for PAM at M = 64)
    spec = FOLDED_SOURCES[name]()
    for cfg in (ContinuousDrfConfig(4, 64, None, 1e-4, 512),
                ContinuousDrfConfig(4, 64, None, 0.0, 512)):
        fast, ref = ContinuousDrfSolver(spec, cfg), _FullMatrixSolver(spec, cfg)
        for rate in np.geomspace(0.25, 8.0, 6):
            a, b = fast.solve(float(rate)), ref.solve(float(rate))
            assert a.converged == b.converged
            assert [d for d, _, _ in a.iterates] == [d for d, _, _ in b.iterates]
            for (dim, _, d_fast), (_, _, d_ref) in zip(a.iterates, b.iterates):
                slack = 1e-15 * spec.avg_power + _roundoff_mass(ref, fast, dim)
                assert abs(d_fast - d_ref) <= 1e-12 * d_ref + slack


FAMILIES = {"flat": flat_psd, "triangular": triangular_psd,
            "raised_cosine": raised_cosine_psd}


def _assert_every_iterate_is_its_built_level(solver, rate):
    """Solve, then hold every iterate against ``point_at`` on the field built
    at its resolution; returns the result and the resolutions ``solve`` built."""
    res = solver.solve(rate)
    built = sorted(solver._fields)
    for dim, theta, dist in res.iterates:
        ref = solver.point_at(rate, dim)
        assert abs(dist - ref.distortion) <= 1e-12 * ref.distortion + 1e-15 * solver.sigma2
        assert theta == pytest.approx(ref.theta, rel=1e-12, abs=0.0)
    return res, built


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["am", "stationary"]),
       family=st.sampled_from(sorted(FAMILIES)), bandwidth=st.floats(0.25, 4.0),
       power=st.floats(0.1, 10.0), carrier=st.floats(0.05, 2.0),
       phase=st.one_of(st.just(0.0), st.floats(0.0, 2.0 * np.pi)),
       rate=st.floats(0.05, 16.0))
@example(kind="am", family="triangular", bandwidth=1.0, power=1.0, carrier=0.1,
         phase=0.0, rate=12.0)                 # the early-stop curve: s = 23, J = 27
@example(kind="am", family="triangular", bandwidth=1.0, power=1.0, carrier=1.2,
         phase=0.3, rate=2.0)                  # fig6 with a complex slice: s = 5, J = 9
@example(kind="am", family="flat", bandwidth=1.0, power=1.0, carrier=2.0,
         phase=0.0, rate=1.0)                  # T0 f_rad + 1/2 = 2, an integer: s = 3
def test_levels_past_the_alias_span_are_exact_rescales(
        kind, family, bandwidth, power, carrier, phase, rate):
    # AM carriers up to the narrowband threshold 2 f_B, and stationary sources
    # with periods 0.25/f_B to 10/f_B; every level from M = 1 to 128 runs, so
    # the rate, in units of 1/T0, stays within what M = 1 can resolve
    base = FAMILIES[family](bandwidth, power)
    if kind == "am":
        spec = am_cpsd(base, carrier * bandwidth, phase)
    else:
        spec = stationary_cyclic(base, 0.5 / (carrier * bandwidth))
    solver = ContinuousDrfSolver(spec, ContinuousDrfConfig(1, 128, None, 0.0, 128))
    res, built = _assert_every_iterate_is_its_built_level(solver, rate / spec.period)
    dims = [2 ** i for i in range(8)]
    assert [d for d, _, _ in res.iterates] == dims and not res.converged
    # built up to the first level at or above the s aliases that can be
    # nonzero (|k| - 1/2 < T0 f_rad), derived past it: the comparison above
    # covers derived levels
    s = 2 * ceil(spec.period * spec.freq_radius - 0.5) + 1
    assert built == [d for d in dims if d < 2 * s]


def _built_levels(monkeypatch, spec, cfg, rates):
    """Resolutions whose folded alias matrix ``solve`` assembles."""
    built = []
    original = csdrf.drf.folded_alias_matrix

    def recording(spec, dim):
        built.append(dim)
        return original(spec, dim)

    monkeypatch.setattr(csdrf.drf, "folded_alias_matrix", recording)
    solver = ContinuousDrfSolver(spec, cfg)
    results = [solver.solve(rate) for rate in rates]
    return built, results


def test_am_builds_only_the_levels_up_to_saturation(monkeypatch):
    # f0 = 0.45 f_B: s = 7, so M = 4 and M = 8 are built and 16..64 derived;
    # with a positive tolerance the first derived gap, 0, stops the schedule
    spec = am_cpsd(triangular_psd(1.0, 1.0), 0.45)
    built, results = _built_levels(monkeypatch, spec, ContinuousDrfConfig(4, 64, None, 0.0, 256),
                                   (0.5, 2.0))
    assert built == [4, 8]
    assert all(not r.converged and len(r.iterates) == 5 for r in results)
    built, results = _built_levels(monkeypatch, spec, ContinuousDrfConfig(4, 64, None, 1e-4, 256),
                                   (0.5, 2.0))
    assert built == [4, 8]
    assert all(r.converged and [d for d, _, _ in r.iterates] == [4, 8, 16] for r in results)
    assert all(r.cauchy_gaps[0] > 1e-2 and r.cauchy_gaps[1] == 0.0 for r in results)


def test_saturation_counts_the_live_aliases_on_the_boundary(monkeypatch):
    # T0 f_rad + 1/2 = 3 is an integer: aliases +-3 reach the band only at its
    # edges, so 5 aliases are live, not 7, and M = 12 is derived from M = 6
    spec = am_cpsd(flat_psd(1.5, 1.0), 1.0)
    assert saturation_dim(spec) == 5
    assert [b.tolist() for b in folded_alias_matrix(spec, 8).blocks] == [[2, 4, 6], [3, 5]]
    cfg = ContinuousDrfConfig(3, 12, None, 0.0, 256)
    built, results = _built_levels(monkeypatch, spec, cfg, (0.5, 2.0))
    assert built == [3, 6]
    built_12 = ContinuousDrfSolver(spec, cfg)
    for rate, res in zip((0.5, 2.0), results):
        assert [d for d, _, _ in res.iterates] == [3, 6, 12]
        pt = built_12.point_at(rate, 12)
        np.testing.assert_allclose(res.iterates[-1][1:], (pt.theta, pt.distortion), rtol=1e-12)


@pytest.mark.parametrize("pulse", [rect_pulse(0.8), triangle_pulse(0.8),
                                   raised_cosine_pulse(0.8, 0.3)])
def test_pam_builds_every_level(monkeypatch, pulse):
    # the rank-one level depends on M through the pulse samples: no level is
    # a rescale of the one before
    spec = pam_cpsd(triangular_psd(1.0, 1.0), pulse, 0.8)
    built, _ = _built_levels(monkeypatch, spec, ContinuousDrfConfig(4, 64, None, 0.0, 256),
                             (0.5, 2.0))
    assert built == [4, 8, 16, 32, 64]


# ---------------------------------------------------------------------------
# fields on the non-negative half of the phi grid
# ---------------------------------------------------------------------------

class _FullGridSolver(ContinuousDrfSolver):
    """Reference: the same refinement with every field decomposed on the
    whole phi grid, both halves."""

    def __init__(self, spec, cfg):
        super().__init__(spec, cfg)
        self._grid = phi_grid(self.cfg.n_grid, spec.phi_breakpoints())


def _full_grid_discrete_waterfiller(proc, n_grid):
    matrix = psd_pc_matrix_discrete(proc)
    field = EigenField.from_matrix(matrix, phi_grid(n_grid, matrix.phi_breakpoints))
    return field.waterfiller(1.0 / (2.0 * proc.period))


def _assert_same_point(a, b, sigma2):
    """(theta, D) pairs: theta within 1e-12 relative; D within 1e-12 relative
    plus 1e-15 sigma^2, the round-off mass that the eigenvalues of zero,
    decomposed at other nodes, can add below the water level."""
    assert a[0] == pytest.approx(b[0], rel=1e-12, abs=0.0)
    assert abs(a[1] - b[1]) <= 1e-12 * b[1] + 1e-15 * sigma2


PULSES = {"rect": rect_pulse, "triangle": triangle_pulse,
          "raised_cosine": lambda t: raised_cosine_pulse(t, 0.3)}


@st.composite
def _real_sources(draw):
    """AM (phase 0 or random), stationary and PAM sources on the three bases."""
    kind = draw(st.sampled_from(["am", "stationary", "pam"]))
    base = FAMILIES[draw(st.sampled_from(sorted(FAMILIES)))](
        draw(st.floats(0.25, 4.0)), draw(st.floats(0.1, 10.0)))
    ratio = draw(st.floats(0.05, 2.0))          # f0 / f_B, or f_B T0 / 2
    if kind == "am":
        phase = draw(st.one_of(st.just(0.0), st.floats(0.0, 2.0 * np.pi)))
        return am_cpsd(base, ratio * base.support_radius, phase)
    if kind == "stationary":
        return stationary_cyclic(base, 0.5 / (ratio * base.support_radius))
    t_symbol = 0.5 / (ratio * base.support_radius)
    return pam_cpsd(base, PULSES[draw(st.sampled_from(sorted(PULSES)))](t_symbol), t_symbol)


@settings(max_examples=40, deadline=None)
@given(spec=_real_sources(), m_start=st.integers(1, 64), n_grid=st.integers(16, 300),
       rate=st.floats(0.05, 16.0))
@example(spec=am_cpsd(triangular_psd(1.0, 1.0), 0.1), m_start=4, n_grid=256, rate=12.0)
@example(spec=am_cpsd(triangular_psd(1.0, 1.0), 1.2, 0.3), m_start=1, n_grid=257, rate=2.0)
@example(spec=pam_cpsd(flat_psd(1.0, 1.0), triangle_pulse(0.8), 0.8), m_start=4,
         n_grid=256, rate=3.0)
def test_half_grid_solver_reproduces_the_full_grid(spec, m_start, n_grid, rate):
    # rates in units of 1/T0 that every level from M = 1 resolves; every level
    # of the schedule and the stop rule must come out the same
    cfg = ContinuousDrfConfig(m_start, max(m_start, 64), None, 1e-4, n_grid)
    fast, ref = ContinuousDrfSolver(spec, cfg), _FullGridSolver(spec, cfg)
    a, b = fast.solve(rate / spec.period), ref.solve(rate / spec.period)
    assert a.converged == b.converged
    assert [d for d, _, _ in a.iterates] == [d for d, _, _ in b.iterates]
    for it_a, it_b in zip(a.iterates, b.iterates):
        _assert_same_point(it_a[1:], it_b[1:], spec.avg_power)


# ---------------------------------------------------------------------------
# the level-by-level walk
# ---------------------------------------------------------------------------

class _BisectingSolver(ContinuousDrfSolver):
    """Reference: the same refinement, each built level solved by geometric
    bisection on a waterfiller built for that one rate."""

    def point_at(self, rate, dim):
        return self.eigen_field(dim).waterfiller(1.0 / (2.0 * self.spec.period)).solve(rate)


@settings(max_examples=40, deadline=None)
@given(spec=_real_sources(), tol=st.sampled_from([0.0, 1e-4]), m_start=st.sampled_from([1, 4]),
       rates=st.lists(st.floats(0.0, 40.0), min_size=1, max_size=5))
@example(spec=am_cpsd(flat_psd(1.0, 1.0), 0.0625), tol=1e-4, m_start=1,
         rates=[64.0, 4.0, 1e4])       # 4 and 625 bits per second: skips M = 1; fails at M = 32
def test_level_walk_matches_a_per_rate_bisection(spec, tol, m_start, rates):
    # rates in units of 1/T0, some beyond what M = 1 resolves (the underflow
    # skip) and some beyond the last level: same iterate dims, stop and
    # failure as the rate-by-rate bisection, D within 1e-12 D + 1e-15 sigma^2
    cfg = ContinuousDrfConfig(m_start, 32, None, tol, 128)
    rates = [r / spec.period for r in rates]
    walked = ContinuousDrfSolver(spec, cfg).solve_many(rates)
    ref = _BisectingSolver(spec, cfg)
    assert len(walked) == len(rates)
    for rate, a in zip(rates, walked):
        try:
            b = ref.solve(rate)
        except WaterLevelUnderflow as exc:
            assert isinstance(a, WaterLevelUnderflow) and str(a) == str(exc)
            continue
        assert not isinstance(a, Exception), a
        assert a.converged == b.converged and a.point.rate == rate
        assert [d for d, _, _ in a.iterates] == [d for d, _, _ in b.iterates]
        for it_a, it_b in zip(a.iterates, b.iterates):
            _assert_same_point(it_a[1:], it_b[1:], spec.avg_power)


def test_failed_level_ends_each_rate_that_builds_it(monkeypatch):
    # the M = 8 field fails to decompose: every rate gets the exception in its
    # place, and ``solve`` raises it
    spec = am_cpsd(triangular_psd(1.0, 1.0), 0.45)
    failure = csdrf.waterfilling.NotPositiveSemidefinite("eigenvalue below tolerance", 3)
    from_matrix = EigenField.from_matrix

    def failing(matrix, grid, d_scale=None):
        if matrix.dim == 8:
            raise failure
        return from_matrix(matrix, grid, d_scale)

    monkeypatch.setattr(EigenField, "from_matrix", failing)
    solver = ContinuousDrfSolver(spec, ContinuousDrfConfig(4, 16, None, 1e-4, 128))
    assert solver.solve_many([0.5, 2.0]) == [failure, failure]
    with pytest.raises(type(failure)):
        solver.solve(1.0)


def test_a_level_that_fails_to_decompose_is_built_once(monkeypatch):
    # harmonics +-2 cancel harmonic 0 here, and the M = 2 field, zero up to
    # round-off, fails the clip (ROADMAP item 13): that level is assembled
    # and decomposed once, and all six rates get its exception
    spec = am_cpsd(flat_psd(1.979, 1.0), 0.657, np.pi / 2)
    dims = []
    from_matrix = EigenField.from_matrix

    def recording(matrix, grid, d_scale=None):
        dims.append(matrix.dim)
        return from_matrix(matrix, grid, d_scale)

    monkeypatch.setattr(EigenField, "from_matrix", recording)
    solver = ContinuousDrfSolver(spec, ContinuousDrfConfig(1, 64))
    results = solver.solve_many(np.geomspace(0.5, 4.0, 6))
    assert dims == [1, 2]
    assert isinstance(results[0], csdrf.waterfilling.NotPositiveSemidefinite)
    assert all(res is results[0] for res in results)
    with pytest.raises(type(results[0])):
        solver.solve(1.0)
    assert dims == [1, 2]


@settings(max_examples=30, deadline=None)
@given(kind=st.sampled_from(["white_cs", "modulated_ma"]), period=st.integers(1, 64),
       seed=st.integers(0, 2 ** 32 - 1), n_grid=st.integers(16, 300),
       rates=st.lists(st.floats(0.0, 8.0), min_size=1, max_size=4))
def test_half_grid_discrete_waterfiller_reproduces_the_full_grid(kind, period, seed,
                                                                 n_grid, rates):
    rng = np.random.default_rng(seed)
    if kind == "white_cs":
        proc = white_cs(rng.uniform(0.1, 10.0, period))
    else:
        proc = modulated_ma(rng.uniform(0.1, 3.0, period), rng.uniform(-1.0, 1.0, 3))
    fast = discrete_waterfiller(proc, n_grid)
    ref = _full_grid_discrete_waterfiller(proc, n_grid)
    for a, b in ((fast.solve(rate), ref.solve(rate)) for rate in rates):
        _assert_same_point((a.theta, a.distortion), (b.theta, b.distortion), proc.avg_power)


SCALAR_FAMILIES = {"flat": flat_psd, "triangular": triangular_psd,
                   "raised_cosine": raised_cosine_psd}
SCALAR_PULSES = {"rect": rect_pulse, "triangle": triangle_pulse, "ideal": ideal_interp_pulse,
                 "raised_cosine": lambda t: raised_cosine_pulse(t, 0.3)}


@settings(max_examples=40, deadline=None)
@given(family=st.sampled_from(sorted(SCALAR_FAMILIES)), bandwidth=st.floats(0.25, 4.0),
       power=st.floats(0.1, 10.0), pulse=st.sampled_from(sorted(SCALAR_PULSES)),
       nyquist_share=st.floats(0.1, 2.0))
def test_normalize_power_scales_the_pam_curve(family, bandwidth, power, pulse, nyquist_share):
    # normalize_power scales the symbols by g, g^2 = P / A: every level of the
    # PAM profile, and so theta and D at every rate, scale by g^2
    fs = 2.0 * bandwidth * nyquist_share
    rates = fs * np.array([0.05, 0.5, 2.0])
    spec, curve = {}, {}
    for normalize in (False, True):
        sc = Scenario(kind="pam", family=family, bandwidth=bandwidth, power=power,
                      pulse=pulse, pulse_beta=0.3, symbol_rates=(fs,),
                      normalize_power=normalize, phi_grid=256)
        src = SOURCES["pam"](sc)[0]
        spec[normalize] = src.spec
        points, failure = src.curves["drf"](rates)
        assert failure is None
        curve[normalize] = np.array([pt[:2] for pt in points])
    gain2 = power / spec[False].avg_power
    np.testing.assert_allclose(spec[True].avg_power, power, rtol=1e-12)
    np.testing.assert_allclose(curve[True], gain2 * curve[False], rtol=1e-12)


def _scalar_waterfillers(kind, base, ratio, n_grid):
    """(waterfiller, whole-grid reference) of one scalar curve: the reference
    takes every node of the grid the waterfiller halves."""
    if kind in ("stationary", "upper_bound"):
        psd = base if kind == "stationary" else am_gaussian_psd(base, ratio * base.support_radius)
        r = psd.support_radius
        grid = segmented_midpoint(-r, r, n_grid, psd.breakpoints)
        whole = ScalarWaterfiller(psd(grid.nodes), grid.weights, d_scale=1.0, r_scale=0.5)
        return stationary_waterfiller(psd, n_grid), whole
    fs = ratio * base.support_radius
    if kind == "sampled_coding":
        spec, fast = _estimate(base, fs), sampled_coding(base, fs, n_grid)[1]
    else:
        spec = pam_cpsd(base, SCALAR_PULSES[kind](1.0 / fs), 1.0 / fs)
        fast = pam_waterfiller(spec, n_grid)
    grid = spec.band_grid(n_grid)
    whole = ScalarWaterfiller(spec.shaped_profile(grid.nodes), grid.weights,
                              d_scale=1.0 / spec.period, r_scale=0.5)
    return fast, whole


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["stationary", "upper_bound", "sampled_coding", *SCALAR_PULSES]),
       family=st.sampled_from(sorted(SCALAR_FAMILIES)), bandwidth=st.floats(0.25, 4.0),
       power=st.floats(0.1, 10.0), ratio=st.floats(0.3, 2.5), n_grid=st.integers(2, 600),
       shares=st.lists(st.floats(0.0, 0.95), min_size=1, max_size=4))
@example(kind="stationary", family="triangular", bandwidth=1.0, power=1.0, ratio=1.0,
         n_grid=301, shares=[0.5])       # odd, breakpoint at 0: 300 nodes, halved
@example(kind="rect", family="flat", bandwidth=1.0, power=1.0, ratio=0.55,
         n_grid=2, shares=[0.0, 0.9])
def test_half_grid_scalar_waterfillers_reproduce_the_whole_grid(kind, family, bandwidth, power,
                                                               ratio, n_grid, shares):
    # ``ratio`` is the carrier (upper bound) or the symbol or sampling rate over f_B;
    # the rates are shares of the largest rate the whole grid resolves
    base = SCALAR_FAMILIES[family](bandwidth, power)
    fast, whole = _scalar_waterfillers(kind, base, ratio, n_grid)
    top = whole.rate(whole.level_max * 2.0 ** -BRACKET_EXP)
    for rate in (share * top for share in shares):
        a, b = fast.solve(rate), whole.solve(rate)
        assert a.theta == pytest.approx(b.theta, rel=1e-12, abs=0.0)
        assert a.distortion == pytest.approx(b.distortion, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("n_grid, kept", [(2048, 1024), (2047, 1023)])
def test_stationary_waterfiller_halves_a_mirror_symmetric_grid(n_grid, kept):
    # the triangle's breakpoint at 0 gives an odd grid one node less, so it is mirrored
    assert stationary_waterfiller(triangular_psd(1.0, 1.0), n_grid).levels.size == kept


def _recorded_nodes(monkeypatch):
    """phi arrays that ``PsdPcMatrix.__call__`` is evaluated at, in call order."""
    seen = []
    original = PsdPcMatrix.__call__

    def recording(self, phi):
        seen.append(np.atleast_1d(np.asarray(phi, dtype=float)).copy())
        return original(self, phi)

    monkeypatch.setattr(PsdPcMatrix, "__call__", recording)
    return seen


HALF_GRID_SOURCES = {
    "am": lambda: am_cpsd(triangular_psd(1.0, 1.0), 0.45, 0.3),
    "pam": lambda: pam_cpsd(triangular_psd(1.0, 1.0), raised_cosine_pulse(0.8, 0.3), 0.8),
    "discrete": lambda: modulated_ma([1.0, 2.0, 0.5], [1.0, 0.4]),
}


# the AM and PAM breakpoints include phi = 0, so their odd grids get one node
# less; the discrete source has none, so its odd grid has a node at 0
@pytest.mark.parametrize("source, n_grid, half", [("am", 2048, 1024), ("am", 2047, 1023),
                                                  ("pam", 2048, 1024), ("discrete", 2048, 1024),
                                                  ("discrete", 255, 128)])
def test_fields_are_decomposed_on_the_non_negative_half(monkeypatch, source, n_grid, half):
    spec = HALF_GRID_SOURCES[source]()
    seen = _recorded_nodes(monkeypatch)
    if source == "discrete":
        assert half_grid(0.5, n_grid).size == half
        discrete_waterfiller(spec, n_grid).solve(1.0)
        fields = 1
    else:
        assert half_grid(0.5, n_grid, spec.phi_breakpoints()).size == half
        solver = ContinuousDrfSolver(spec, ContinuousDrfConfig(4, 16, None, 0.0, n_grid))
        solver.solve(1.0)
        fields = len(solver._fields)
    nodes = np.concatenate(seen)
    assert nodes.size == fields * half and np.all(nodes >= 0.0)


def test_odd_grid_split_at_zero_is_halved(monkeypatch):
    # 257 nodes split at phi = 0 cannot be mirrored: the grid has 256, and the
    # fields are decomposed on its 128 nodes phi > 0, within rounding of the whole grid
    spec = am_cpsd(triangular_psd(1.0, 1.0), 1.2, 0.3)
    cfg = ContinuousDrfConfig(1, 16, None, 0.0, 257)
    grid = half_grid(0.5, 257, spec.phi_breakpoints())
    assert grid.size == 128 and np.all(grid.nodes > 0.0)
    seen = _recorded_nodes(monkeypatch)
    solver = ContinuousDrfSolver(spec, cfg)
    fast = solver.solve(2.0)
    assert np.array_equal(np.concatenate(seen), np.tile(grid.nodes, len(solver._fields)))
    ref = _FullGridSolver(spec, cfg).solve(2.0)
    assert [d for d, _, _ in fast.iterates] == [d for d, _, _ in ref.iterates]
    for it_a, it_b in zip(fast.iterates, ref.iterates):
        _assert_same_point(it_a[1:], it_b[1:], spec.avg_power)


# ---------------------------------------------------------------------------
# pulse-amplitude closed form
# ---------------------------------------------------------------------------

def test_super_nyquist_unit_gain_interpolation_equals_baseband():
    # |P| = T0 on the Nyquist band reconstructs the source with unit gain
    base = flat_psd(0.4, 1.0)
    baseband = stationary_waterfiller(base)
    for t0 in (1.0, 0.7):
        sw = pam_waterfiller(pam_cpsd(base, ideal_interp_pulse(t0), t0))
        for rate in (0.5, 2.0):
            pt = sw.solve(rate)
            ref = baseband.solve(rate)
            assert pt.distortion == pytest.approx(ref.distortion, rel=1e-9)


def test_staircase_equals_sampled_sequence_curve():
    # holding each sample for one symbol: curve in bits/s equals the sampled
    # sequence's curve at rate*T0 bits/symbol
    base = flat_psd(1.0, 1.0)
    t0 = 1.0
    spec = pam_cpsd(base, rect_pulse(t0), t0)

    def sample_spectrum(phi):
        return spec.sampled_base_psd(phi / t0)

    sw = pam_waterfiller(spec)
    for rate in (0.35, 1.0, 2.2):
        pt = sw.solve(rate)
        ref = discrete_stationary_drf(sample_spectrum, rate * t0)
        assert pt.distortion == pytest.approx(ref.distortion, rel=1e-9)


def test_zero_pulse_zero_distortion_at_any_rate():
    zero = PulseShape(lambda f: np.zeros_like(f, dtype=complex), 0.0, 0.1)
    sw = pam_waterfiller(pam_cpsd(flat_psd(1.0, 1.0), zero, 1.0))
    for rate in (0.0, 1.0, 10.0):
        pt = sw.solve(rate)
        assert pt.distortion == 0.0


# ---------------------------------------------------------------------------
# amplitude modulation
# ---------------------------------------------------------------------------

def test_am_exact_path_above_twice_bandwidth():
    # the CLI's AM source takes the baseband curve once the carrier clears
    # twice the bandwidth: no refinement (M = 0), the stationary curve's values
    base = triangular_psd(1.0, 1.0)
    (src,) = SOURCES["am"](Scenario("am", family="triangular", f0=4.0))
    rates = np.array([0.3, 1.0, 4.0])
    baseband = stationary_waterfiller(base)
    points, failure = src.curves["drf"](rates)
    assert failure is None and len(points) == rates.size
    for rate, (d, _, m, converged) in zip(rates, points):
        assert m == 0 and converged
        assert d == pytest.approx(baseband.solve(float(rate)).distortion, rel=1e-12)


def test_am_zero_rate_power_preserved():
    base = triangular_psd(1.0, 1.0)
    res = ContinuousDrfSolver(am_cpsd(base, 1.2)).solve(0.0)
    assert res.point.distortion == pytest.approx(1.0, rel=1e-9)


def test_am_numeric_below_gaussian_psd_upper_bound():
    base = triangular_psd(1.0, 1.0)
    am = ContinuousDrfSolver(am_cpsd(base, 1.2))
    upper = stationary_waterfiller(am_gaussian_psd(base, 1.2))
    for rate in np.geomspace(0.25, 4.0, 8):
        d = am.solve(float(rate)).point.distortion
        assert d <= upper.solve(float(rate)).distortion + 1e-9


# ---------------------------------------------------------------------------
# lower bounds
# ---------------------------------------------------------------------------

def test_discrete_bound_sandwich_and_endpoints():
    proc = white_cs([1.0, 4.0])
    assert lower_bound_discrete(proc, 0.0) == pytest.approx(2.5, rel=1e-9)
    rates = [0.25, 0.5, 1.0, 2.0]
    sw = discrete_waterfiller(proc)
    for rate, lb in zip(rates, lower_bound_discrete(proc, rates)):
        drf = sw.solve(rate).distortion
        assert lb <= drf + 1e-12
    # hand value: each coordinate coded at 2 * 0.5 = 1 bit per own symbol
    lb = lower_bound_discrete(proc, 0.5)
    assert lb == pytest.approx(0.25 * (1.0 + 4.0) / 2.0, rel=1e-9)


def test_discrete_bound_tight_at_high_rate():
    proc = white_cs([1.0, 4.0])
    gap = discrete_waterfiller(proc).solve(20.0).distortion - lower_bound_discrete(proc, 20.0)
    assert abs(gap) <= 1e-4 * proc.avg_power


_symbol = st.floats(-3.0, 3.0).map(lambda x: 0.0 if abs(x) < 0.1 else x)
_discrete_keys = st.one_of(
    st.builds(lambda v: {"variances": tuple(v)},
              st.lists(_symbol.map(abs), min_size=1, max_size=8)),
    st.builds(lambda c, h: {"mod_scales": tuple(c), "ma_taps": tuple(h)},
              st.lists(_symbol, min_size=1, max_size=8),
              st.lists(_symbol, min_size=1, max_size=4)),
)


@settings(max_examples=60, deadline=None)
@given(keys=_discrete_keys, rates=st.lists(st.floats(0.0, 4.0), min_size=2, max_size=10))
def test_discrete_rows_keep_the_papers_identities(keys, rates):
    sc = Scenario("discrete-cs", methods=("drf", "lower_bound"),
                  rates=np.array(sorted({0.0, *rates})), phi_grid=64, **keys)
    rows = [row.split(",") for row in drf_rows(sc, False)]
    d = {m: np.array([float(r[1]) for r in rows if r[3] == m]) for m in ("drf", "lower_bound")}
    table = make_discrete(sc).cov_table
    m, width = table.shape
    sigma2 = float(np.mean(table[:, width // 2]))
    # Rounding slack. Every level is at most ||S(phi)||_2 <= (2L + 1) max |R|,
    # and a distortion sums at most n = M x 32 (half-grid nodes) weighted
    # levels: the sum carries n eps of that bound, and each level its
    # eigensolver's O(M eps) backward error. 16 covers both constants.
    tol = 16 * m * 32 * np.finfo(float).eps * width * np.abs(table).max()
    r = sc.rates
    for curve in d.values():
        assert abs(curve[0] - sigma2) <= tol                        # D(0) = sigma^2
        assert np.all(np.diff(curve) <= tol)                        # non-increasing
        # convex: slopes rise, compared cross-multiplied so close rates divide nothing
        left, right = np.diff(curve)[:-1] * np.diff(r)[1:], np.diff(curve)[1:] * np.diff(r)[:-1]
        assert np.all(left <= right + 2 * tol * (r[2:] - r[:-2]))
    assert np.all(d["lower_bound"] <= d["drf"] + tol)


def test_continuous_bound_zero_rate_and_am_ordering():
    spec = am_cpsd(triangular_psd(1.0, 1.0), 1.2)
    assert lower_bound_continuous(spec, 0.0) == pytest.approx(spec.avg_power, rel=1e-9)
    rates = [0.3, 1.0, 2.5]
    solver = ContinuousDrfSolver(spec)
    for rate, lb in zip(rates, lower_bound_continuous(spec, rates)):
        assert lb <= solver.solve(rate).point.distortion + 1e-9


def test_staircase_bound_attains_the_curve():
    # maximally correlated components: the bound is the curve
    base = flat_psd(1.0, 1.0)
    spec = pam_cpsd(base, rect_pulse(1.0), 1.0)
    rates = [0.3, 0.9, 1.8]
    sw = pam_waterfiller(spec)
    for rate, lb in zip(rates, lower_bound_continuous(spec, rates)):
        pt = sw.solve(rate)
        assert lb == pytest.approx(pt.distortion, rel=1e-6)


@pytest.mark.parametrize("bound, source", [
    (lower_bound_discrete, lambda: modulated_ma([1.0, 0.5, 2.0], [1.0, 0.4, 0.2])),
    (lower_bound_continuous, lambda: am_cpsd(triangular_psd(1.0, 1.0), 1.2)),
    (lower_bound_continuous, lambda: pam_cpsd(flat_psd(1.0, 1.0), triangle_pulse(0.8), 0.8)),
])
def test_whole_curve_bound_equals_the_bound_at_each_rate(bound, source):
    # the profiles are built once per curve; each rate still sums the same
    # terms in the same order, so the values are bit-identical
    src = source()
    rates = np.geomspace(0.05, 3.0, 7)
    curve = bound(src, rates, n_grid=256)
    assert curve.shape == rates.shape
    for rate, d in zip(rates, curve):
        assert d == bound(src, float(rate), n_grid=256)
    assert bound(src, rates.reshape(7, 1), n_grid=256).shape == (7, 1)


_BOUND_SOURCES = {
    "white_cs": lambda rng, x: white_cs(rng.uniform(0.1, 10.0, 1 + int(4 * x))),
    "modulated_ma": lambda rng, x: modulated_ma(rng.uniform(-3.0, 3.0, 1 + int(4 * x)),
                                                rng.uniform(-1.0, 1.0, 3)),
    "am": lambda rng, x: am_cpsd(triangular_psd(1.0, 1.0), 0.3 + 3.0 * x, rng.uniform(0.0, 3.0)),
    "stationary": lambda rng, x: stationary_cyclic(raised_cosine_psd(1.0, 1.0), 0.2 + x),
    "pam-rect": lambda rng, x: pam_cpsd(flat_psd(1.0, 1.0), rect_pulse(0.5 + x), 0.5 + x),
    "pam-triangle": lambda rng, x: pam_cpsd(raised_cosine_psd(1.0, 1.0),
                                            triangle_pulse(0.5 + x), 0.5 + x),
    "pam-raised-cosine": lambda rng, x: pam_cpsd(
        triangular_psd(1.0, 1.0), raised_cosine_pulse(0.5 + x, 0.1 + 0.9 * x), 0.5 + x),
}


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(sorted(_BOUND_SOURCES)), seed=st.integers(0, 2 ** 16),
       shape=st.floats(0.0, 1.0), n_grid=st.integers(2, 600),
       rates=st.lists(st.floats(0.0, 4.0), min_size=1, max_size=6))
def test_half_grid_bound_reproduces_the_full_grid(name, seed, shape, n_grid, rates):
    # every phase or component spectrum of a real source is even in phi, so
    # the bound on the non-negative half of the grid equals the bound on the
    # whole grid up to the order of its sums. Their rounding grows with the
    # node count times log2 theta: at 600 nodes and 4 bits per symbol over a
    # period of 5 the largest seen was 3.9e-13 relative, 6000 worst-corner draws
    src = _BOUND_SOURCES[name](np.random.default_rng(seed), shape)
    if isinstance(src, DiscreteCsProcess):
        bound, kwargs = lower_bound_discrete, {}
    else:
        bound, kwargs = lower_bound_continuous, {"n_t": 8}
        rates = [rate / src.period for rate in rates]
    fast = bound(src, rates, n_grid=n_grid, **kwargs)
    with mock.patch.object(csdrf.drf, "half_grid",
                           lambda r, n, b=(): segmented_midpoint(-r, r, n, b)):
        ref = bound(src, rates, n_grid=n_grid, **kwargs)
    np.testing.assert_allclose(fast, ref, rtol=1e-12, atol=0.0)


def test_continuous_bound_t_grid_refinement():
    spec = am_cpsd(triangular_psd(1.0, 1.0), 1.2)
    a = lower_bound_continuous(spec, 1.0, n_t=64)
    b = lower_bound_continuous(spec, 1.0, n_t=128)
    assert abs(a - b) <= 1e-6 * max(a, 1e-12)


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(sorted(_BOUND_SOURCES)), seed=st.integers(0, 2 ** 16),
       shape=st.floats(0.0, 1.0), n_grid=st.integers(2, 300), n_t=st.integers(1, 24),
       rates=st.lists(st.floats(0.0, 4.0), min_size=1, max_size=6), block=st.integers(1, 3))
def test_bound_in_blocks_of_rows_equals_the_bound_in_one_block(name, seed, shape, n_grid, n_t,
                                                              rates, block):
    # blocks of 1 to 3 phase or component rows (a lone row joins its
    # neighbour), against one block holding every row: bit for bit
    src = _BOUND_SOURCES[name](np.random.default_rng(seed), shape)
    if isinstance(src, DiscreteCsProcess):
        bound, kwargs, bps = lower_bound_discrete, {}, ()
    else:
        bound, kwargs, bps = lower_bound_continuous, {"n_t": n_t}, src.phi_breakpoints()
        rates = [rate / src.period for rate in rates]
    width = half_grid(0.5, n_grid, bps).size
    with mock.patch.object(csdrf.spectra, "BLOCK_ENTRIES", 2 ** 40):
        whole = bound(src, rates, n_grid=n_grid, **kwargs)
    with mock.patch.object(csdrf.spectra, "BLOCK_ENTRIES", block * width):
        blocked = bound(src, rates, n_grid=n_grid, **kwargs)
    assert blocked.tobytes() == whole.tobytes()


def _fig4_sources():
    sc = load_scenario(str(Path(__file__).resolve().parents[1] / "configs" / "fig4.ini"))
    base = make_base(sc)
    return sc, [_normalized_pam(sc, base, fs) for fs in sc.symbol_rates]


def test_continuous_bound_is_the_power_at_rate_zero_on_fig4():
    # a pulse inside one symbol makes the phase-t component U(a T0) p(t): the
    # bound is the mean of p(t)^2, here the parabola 3 (1 - 2t/T0)^2, times
    # one curve. Two Gauss nodes per t cell integrate it exactly, where the
    # midpoint rule read 1 - 1/64^2 of every row.
    sc, sources = _fig4_sources()
    for spec in sources:
        d = lower_bound_continuous(spec, [0.0, 1.0, 3.0], sc.t_grid, sc.phi_grid)
        assert abs(d[0] - spec.avg_power) <= 1e-12 * spec.avg_power
    # symbol rate 0.25 (T0 = 4): the flat base leaves white samples, so a
    # rate of R bits per second, 4 R bits per symbol, gives D = 2^(-8 R)
    assert sc.symbol_rates[0] == 0.25
    d = lower_bound_continuous(sources[0], [1.0, 3.0], sc.t_grid, sc.phi_grid)
    np.testing.assert_allclose(d, [2.0 ** -8, 2.0 ** -24], rtol=1e-12)


@settings(max_examples=40, deadline=None)
@given(pulse=st.sampled_from([rect_pulse, triangle_pulse]),
       family=st.sampled_from([flat_psd, triangular_psd]), bandwidth=st.floats(0.2, 2.0),
       t_symbol=st.floats(0.3, 3.0), n_t=st.integers(1, 64), n_grid=st.integers(16, 600))
def test_continuous_bound_is_the_power_at_rate_zero_on_one_symbol_pulses(
        pulse, family, bandwidth, t_symbol, n_t, n_grid):
    # |p(t)|^2 is 1 or a parabola over the period, and the folded base density
    # is piecewise linear with its kinks pinned to the phi grid: both rules
    # are exact, so D(0) = sigma^2 to rounding
    spec = pam_cpsd(family(bandwidth, 1.0), pulse(t_symbol), t_symbol)
    d0 = lower_bound_continuous(spec, 0.0, n_t=n_t, n_grid=n_grid)
    assert abs(d0 - spec.avg_power) <= 1e-12 * spec.avg_power


@pytest.mark.parametrize("n_t", [1, 7, 63])
def test_an_odd_phase_count_takes_the_next_even_count(n_t):
    # two Gauss nodes on each of ceil(n_t / 2) cells
    spec = pam_cpsd(flat_psd(1.0, 1.0), triangle_pulse(0.8), 0.8)
    rates = [0.0, 0.5, 2.0]
    odd = lower_bound_continuous(spec, rates, n_t=n_t, n_grid=256)
    assert odd.tobytes() == lower_bound_continuous(spec, rates, n_t=n_t + 1, n_grid=256).tobytes()


@pytest.mark.parametrize("spec", [am_cpsd(triangular_psd(1.0, 1.0), 1.2, 0.3),
                                  pam_cpsd(raised_cosine_psd(1.0, 1.0), triangle_pulse(0.8), 0.8)],
                         ids=["am", "pam-triangle"])
def test_continuous_bound_memory_does_not_grow_with_the_phase_count(spec):
    # the phases are folded, built and solved a block at a time, so the peak
    # is set by one block of profiles, not by t_grid
    rates = np.linspace(0.0, 4.0, 100)
    peaks = []
    for n_t in (64, 1024):
        lower_bound_continuous(spec, rates, n_t=n_t)
        tracemalloc.start()
        try:
            lower_bound_continuous(spec, rates, n_t=n_t)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0], peaks


def _am():
    return am_cpsd(triangular_psd(1.0, 1.0), 1.2)


# every grid builder checks its size where the grid is built
@pytest.mark.parametrize("value", [0, -3, 2.5, True])
@pytest.mark.parametrize("build, name", [
    pytest.param(lambda v: lower_bound_continuous(_am(), [0.5, 1.0], n_t=v), "n_t", id="n_t"),
    pytest.param(lambda v: lower_bound_continuous(_am(), [0.5, 1.0], n_grid=v), "grid size",
                 id="lower_bound_continuous"),
    pytest.param(lambda v: lower_bound_discrete(white_cs([1.0, 4.0]), [0.5, 1.0], n_grid=v),
                 "grid size", id="lower_bound_discrete"),
    pytest.param(lambda v: stationary_waterfiller(triangular_psd(1.0, 1.0), v), "grid size",
                 id="stationary_waterfiller"),
    pytest.param(lambda v: pam_waterfiller(pam_cpsd(flat_psd(1.0, 1.0), rect_pulse(0.8), 0.8), v),
                 "grid size", id="pam_waterfiller"),
    pytest.param(lambda v: discrete_waterfiller(white_cs([1.0, 4.0]), v), "grid size",
                 id="discrete_waterfiller"),
    pytest.param(lambda v: sampled_coding(triangular_psd(1.0, 1.0), 1.5, v), "grid size",
                 id="sampled_coding"),
    pytest.param(lambda v: discrete_stationary_drf(np.ones_like, 1.0, v), "grid size",
                 id="discrete_stationary_drf"),
    pytest.param(phi_grid, "grid size", id="phi_grid"),
])
def test_bounds_reject_grid_sizes_that_are_not_positive_integers(build, name, value):
    with pytest.raises(ValueError, match=f"{name} must be a positive integer"):
        build(value)


# ---------------------------------------------------------------------------
# sampling plus coding
# ---------------------------------------------------------------------------

def _estimate(base, fs):
    """The MMSE estimate from samples at fs: the PAM process with the Wiener pulse."""
    return PamCyclicSpectrum(base, wiener_pulse(base, fs), 1.0 / fs)


def _response(base, fs, f):
    """Dimensionless interpolation gain fs P(f) of the Wiener pulse."""
    p = fs * wiener_pulse(base, fs).fourier(f)
    assert np.all(p.imag == 0.0)
    return p.real


def test_filter_above_nyquist_is_lossless():
    base = triangular_psd(1.0, 1.0)
    mmse, _ = sampled_coding(base, 2.5)
    assert mmse == pytest.approx(0.0, abs=1e-12)
    f = np.linspace(-0.9, 0.9, 33)
    np.testing.assert_allclose(_response(base, 2.5, f), 1.0, atol=1e-13)


def test_filter_zero_source():
    base, fs = flat_psd(1.0, 0.0), 1.0
    mmse, _ = sampled_coding(base, fs)
    assert mmse == 0.0
    assert np.all(fs * _estimate(base, fs).shaped_profile(np.linspace(-0.4, 0.4, 9)) == 0)


def test_flat_twofold_overlap_closed_form():
    # derived: two equal aliases overlap everywhere on the band, so the
    # response is 1/2, the folded estimate density is 1/4 + 1/4 = ... S^2/S
    base, fs = flat_psd(1.0, 1.0), 1.0
    mmse, _ = sampled_coding(base, fs)
    assert mmse == pytest.approx(0.5, abs=1e-6)
    f = np.linspace(-0.45, 0.45, 10)   # even count avoids the f = 0 alias edge
    np.testing.assert_allclose(_response(base, fs, f), 0.5, atol=1e-13)
    np.testing.assert_allclose(fs * _estimate(base, fs).shaped_profile(f), 0.5, atol=1e-13)


def test_filter_error_accounting():
    # mmse equals the source power minus the band mass of the estimate
    base, fs = triangular_psd(1.0, 1.0), 1.3
    spec = _estimate(base, fs)
    mmse, _ = sampled_coding(base, fs)
    grid = spec.band_grid(2048)
    mass = grid.weights @ (fs * spec.shaped_profile(grid.nodes))
    assert mmse == pytest.approx(base.total_power - mass, abs=1e-12)
    # grid refinement only moves the accounting at the quadrature level
    fine = spec.band_grid(4096)
    mass_fine = fine.weights @ (fs * spec.shaped_profile(fine.nodes))
    assert abs(mass_fine - mass) <= 1e-6
    w = _response(base, fs, np.linspace(-0.6, 0.6, 41))
    assert np.all((0.0 <= w) & (w <= 1.0 + 1e-12))


def _reference_fold(base, fs, f, exponent):
    """sum_k S(f - k fs)**exponent, the fold of the former MMSE-filter code."""
    f_b = base.support_radius
    out = np.zeros(f.shape)
    for k in range(floor((f.min() - f_b) / fs) - 1, ceil((f.max() + f_b) / fs) + 2):
        out += base(f - k * fs) ** exponent
    return out


def _reference_sampled_coding(base, fs, rate, grid):
    """Total distortion and theta of the former closed form on ``grid``:
    the estimate's folded density sum S^2 / sum S waterfilled, plus the
    source power it leaves out."""
    num = _reference_fold(base, fs, grid.nodes, 2)
    den = _reference_fold(base, fs, grid.nodes, 1)
    levels = np.divide(num, den, out=np.zeros_like(num), where=den > 0.0)
    mmse = max(base.total_power - float(grid.weights @ levels), 0.0)
    pt = ScalarWaterfiller(levels, grid.weights, d_scale=1.0, r_scale=0.5).solve(rate)
    return mmse + pt.distortion, pt.theta


@settings(max_examples=60, deadline=None)
@given(family=st.sampled_from(sorted(FAMILIES)), bandwidth=st.floats(0.25, 4.0),
       power=st.one_of(st.just(0.0), st.floats(0.1, 10.0)), ratio=st.floats(0.3, 4.0),
       rates=st.lists(st.floats(0.0, 4.0), min_size=1, max_size=4))
@example(family="raised_cosine", bandwidth=1.0, power=1.0, ratio=0.6, rates=[0.5, 3.0])
def test_wiener_pam_equals_the_mmse_fold(family, bandwidth, power, ratio, rates):
    # fs / f_B in [0.3, 4], rates up to 4 f_B bits per second; the reference
    # runs on the PAM band grid, since the two constructions' folded
    # breakpoints can differ in the last bit and so split a segment's nodes
    # differently (raised cosine at fs = 0.6 f_B: 0.12 vs 0.12000000000000005)
    base = FAMILIES[family](bandwidth, power)
    fs = ratio * bandwidth
    grid = _estimate(base, fs).band_grid(512)
    mmse, sw = sampled_coding(base, fs, 512)
    for rate in rates:
        pt = sw.solve(rate * bandwidth)
        ref_total, ref_theta = _reference_sampled_coding(base, fs, rate * bandwidth, grid)
        assert mmse + pt.distortion == pytest.approx(ref_total, rel=1e-12, abs=0.0)
        assert fs * pt.theta == pytest.approx(ref_theta, rel=1e-12, abs=0.0)


def test_sampled_coding_super_nyquist_equals_baseband():
    base = flat_psd(1.0, 1.0)
    baseband = stationary_waterfiller(base)
    for fs in (2.0, 3.1):
        mmse, sw = sampled_coding(base, fs)
        for rate in (0.5, 1.0, 3.0):
            assert mmse + sw.solve(rate).distortion == pytest.approx(
                baseband.solve(rate).distortion, rel=1e-9, abs=1e-12)


def test_sampled_coding_saturates_at_estimation_error():
    base = flat_psd(1.0, 1.0)
    mmse, sw = sampled_coding(base, 1.0)
    total = mmse + sw.solve(60.0).distortion
    assert total - mmse <= 1e-9


def test_sampled_coding_flat_overlap_value():
    mmse, sw = sampled_coding(flat_psd(1.0, 1.0), 1.0)
    assert mmse + sw.solve(1.0).distortion == pytest.approx(0.5 + 0.5 * 0.25, rel=1e-9)


# ---------------------------------------------------------------------------
# cross-cutting properties
# ---------------------------------------------------------------------------

def test_monotone_information_content_in_symbol_rate():
    base = flat_psd(0.5, 1.0)
    rates = np.linspace(0.2, 3.0, 10)
    curves = []
    for fs in (0.25, 0.5, 0.9):
        t0 = 1.0 / fs
        pulse = rect_pulse(t0)
        spec = pam_cpsd(base, pulse, t0)
        gain2 = base.total_power / spec.avg_power
        sw = pam_waterfiller(spec)
        curves.append(np.array([gain2 * sw.solve(float(r)).distortion for r in rates]))
    baseband = stationary_waterfiller(base)
    curves.append(np.array([baseband.solve(float(r)).distortion for r in rates]))
    for low, high in zip(curves, curves[1:]):
        assert np.all(low < high)


@pytest.mark.parametrize("dim", [4, 32])
def test_a_refinement_level_stays_within_its_working_set(dim):
    # one level of the wide-alias AM source (J = 27 aliases, three harmonics)
    # on the 1024 half-grid nodes of phi_grid = 2048: its field, waterfiller
    # and breakpoint table. The field holds one slice of SLICE_ENTRIES complex
    # entries, its assembly included, beside lam; the table build holds lam,
    # the waterfiller's weights and logarithms and four more arrays of lam's
    # size. Assembled in one slice, M = 4 peaked at 81 x lam (2.66 MB); with
    # nine full-size build temporaries, M = 32 peaked at 12.7 x lam (2.80 MB)
    spec = am_cpsd(triangular_psd(1.0, 1.0), 0.1, 0.0)
    solver = ContinuousDrfSolver(spec, ContinuousDrfConfig(n_grid=2048))
    tracemalloc.start()
    try:
        solver.point_at(1.0, dim)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    lam = solver.eigen_field(dim).lam
    assert lam.shape == (1024, min(dim, 27))
    budget = 7 * lam.nbytes + 16 * csdrf.waterfilling.SLICE_ENTRIES
    assert peak <= budget, (peak / lam.nbytes, peak / budget)
