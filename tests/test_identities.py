"""The paper's identities over generated scenarios, run through the CLI's rows.

Each test builds a valid ``Scenario`` of one source kind, takes its curves
from ``drf_rows`` and ``bound_rows`` on a linear rate grid from 0, and checks:

- D(0) is the source power;
- D is non-increasing and convex in R;
- the per-component lower bound is at most the curve, and the curve at most
  the Gaussian spectral upper bound;
- every row is finite.

The continuous kinds are stationary, PAM with each pulse, sampled coding,
and AM above the narrowband threshold; every method but ``oracle``, a
finite-window reference whose D(0) is a sampled time average, is checked.
Library tests check two of the paper's claims that the CLI does not expose:
the AM theorem, and the PAM closed form against the eigenvalue path.

Every tolerance is stated where it is used: rounding where the quadrature is
exact (piecewise-linear levels with their kinks on cell edges), and a stated
O(h^2) bound of the midpoint rule otherwise.
"""

import sys
from math import pi

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from csdrf.cli import SOURCES, Scenario, bound_rows, drf_rows, make_base
from csdrf.drf import ContinuousDrfConfig, ContinuousDrfSolver, pam_waterfiller
from csdrf.polyphase import saturation_dim
from csdrf.quadrature import half_grid
from csdrf.spectra import am_cpsd, am_gaussian_psd, flat_psd, pam_cpsd, rect_pulse
from csdrf.waterfilling import stationary_waterfiller

EPS = sys.float_info.epsilon

# exact zeros, and magnitudes from 1e-3: the water level is solved down to
# 2^-120 of the largest level, so such a source carries every rate below
# (120 / 2M) bits per symbol, more than the 4 tested even at M = 6
_magnitude = st.one_of(st.just(0.0), st.floats(1e-3, 10.0))
_signed = st.one_of(_magnitude, _magnitude.map(lambda x: -x))


def _curve(rows):
    """(rates, distortions) of CSV rows, whose rate, distortion and theta are finite."""
    cells = np.array([[float(x) for x in row.split(",")[:3]] for row in rows])
    assert np.all(np.isfinite(cells)), rows
    return cells[:, 0], cells[:, 1]


@st.composite
def _discrete_scenarios(draw):
    """A discrete-cs scenario: white with periodic variances, or a modulated MA."""
    sc = Scenario(kind="discrete-cs", phi_grid=draw(st.integers(4, 512)),
                  rates=np.linspace(0.0, draw(st.floats(0.1, 4.0)), draw(st.integers(3, 12))))
    if draw(st.booleans()):
        sc.variances = tuple(draw(st.lists(_magnitude, min_size=1, max_size=6)))
    else:
        sc.mod_scales = tuple(draw(st.lists(_signed, min_size=1, max_size=6)))
        sc.ma_taps = tuple(draw(st.lists(_signed, min_size=1, max_size=4)))
    return sc


def _power(sc):
    """Mean slot variance: c_n^2 times the taps' energy, or the variances."""
    if sc.mod_scales:
        return float(np.mean(np.square(sc.mod_scales)) * np.sum(np.square(sc.ma_taps)))
    return float(np.mean(sc.variances))


@settings(max_examples=150, deadline=None)
@given(sc=_discrete_scenarios())
def test_discrete_curves_keep_the_paper_identities(sc):
    rates, drf = _curve(drf_rows(sc, False))
    bound_rates, bound = _curve(bound_rows(sc))
    assert np.array_equal(rates, sc.rates) and np.array_equal(bound_rates, sc.rates)
    sigma2 = _power(sc)
    m = len(sc.mod_scales or sc.variances)
    # each D is a sum of at most n = (phi_grid / 2 + 1) M weighted levels,
    # nonnegative and summing to at most sigma^2, so recursive summation
    # rounds it by at most n eps sigma^2; the water level adds a few ulps
    n = (sc.phi_grid // 2 + 1) * m
    tol = (n + 8) * EPS * sigma2
    # D(0): the symbol's trace and every component spectrum are trigonometric
    # polynomials of degree ceil(L / M) <= 3 < phi_grid, which the midpoint
    # rule integrates exactly, so both read the mean slot variance to rounding
    # (and the table's own products, a few ulps of sigma^2)
    assert abs(drf[0] - sigma2) <= tol + 8 * EPS * sigma2
    assert abs(bound[0] - sigma2) <= tol + 8 * EPS * sigma2
    for d in (drf, bound):
        assert np.all(np.diff(d) <= 2 * tol)                    # non-increasing
        assert np.all(d[:-2] - 2 * d[1:-1] + d[2:] >= -4 * tol)  # convex on the even grid
    # coding one component alone is no harder than coding all of them
    # jointly: the bound is below the curve at every rate, in exact arithmetic
    assert np.all(bound <= drf + 2 * tol)


# ---------------------------------------------------------------------------
# continuous time
# ---------------------------------------------------------------------------

# source kind -> the methods checked (all but the oracle)
CONTINUOUS_METHODS = {
    "stationary": ("drf",),
    "am": ("drf", "baseband", "upper_bound_gaussian_psd", "lower_bound"),
    "pam": ("drf", "lower_bound", "baseband"),
    "sampled-coding": ("drf", "baseband"),
}
ALL_FAMILIES = ("flat", "triangular", "raised_cosine")
FAMILIES = {"stationary": ALL_FAMILIES, "am": ALL_FAMILIES,
            "pam": ALL_FAMILIES[:2], "sampled-coding": ALL_FAMILIES[:2]}


@st.composite
def _continuous_scenarios(draw):
    """A continuous scenario of any kind, rates from 0 to a few bits per unit
    of bandwidth, where no water level reaches the 2^-120 bracket floor.

    PAM and sampled-coding bases are flat or triangular, so the folded base
    is piecewise linear with its kinks pinned; under the raised-cosine pulse
    the base is flat, so the fold is constant between kinks and the pulse
    alone sets the O(h^2) bound of ``_pam_rc_bound``. Sampled coding's D(0)
    is the power plus any excess of its estimate's D(0) over it; the
    estimate's profile sum_k S_k^2 / sum_k S_k (S_k the aliases of S) is at
    most the fold sum_k S_k, whose midpoint rule is the power exactly for
    such bases, so there is no excess beyond rounding."""
    kind = draw(st.sampled_from(sorted(CONTINUOUS_METHODS)))
    f_b = draw(st.floats(0.1, 10.0))
    sc = Scenario(kind=kind, bandwidth=f_b, power=draw(_magnitude),
                  family=draw(st.sampled_from(FAMILIES[kind])),
                  phi_grid=draw(st.integers(1, 512)), t_grid=draw(st.integers(1, 64)),
                  methods=CONTINUOUS_METHODS[kind])
    top = f_b
    if kind == "am":
        sc.f0 = draw(st.floats(2.0, 8.0)) * f_b * (1.0 + 1e-9)     # above 2 f_B
        sc.phase = draw(st.floats(-pi, pi))
    elif kind == "pam":
        sc.pulse = draw(st.sampled_from(["rect", "triangle", "ideal", "raised_cosine"]))
        if sc.pulse == "raised_cosine":
            sc.family = "flat"
        sc.pulse_beta = draw(st.floats(0.05, 1.0))
        sc.symbol_rates = (draw(st.floats(0.25, 4.0)) * f_b,)
        sc.normalize_power = draw(st.booleans())
        top = min(f_b, sc.symbol_rates[0])
    elif kind == "sampled-coding":
        sc.sampling_rate = draw(st.floats(0.25, 4.0)) * f_b
        top = min(f_b, sc.sampling_rate)
    sc.rates = np.linspace(0.0, draw(st.floats(0.1, 4.0)) * top, draw(st.integers(3, 10)))
    return sc


def _pam_rc_bound(spec, beta, phi_grid):
    """Bound on |D(0) - sigma^2| of the PAM closed form and lower bound, for
    the raised-cosine pulse on a flat base: on u = f T0 in [-1/2, 1/2], D(0)
    and sigma^2 are midpoint rules of one integral, each off by at most
    h^2 max|F''| / 24 for cells of at most h.

    The pulse's copies r(u - k), r = P / T0, have |r| <= 1, |r'| <= pi / (2 beta)
    and |r''| <= 2 (pi / (2 beta))^2, and at most two are nonzero on the band.
    Each profile F is the fold Q, constant between kinks, times
    |sum_k r(u - k) e^{-2 pi i k tau}|^2 (the closed form's is sum_k r(u - k)^2),
    whose second derivative is at most (4 + 4 + 2 * 6) (pi / (2 beta))^2 =
    5 pi^2 / beta^2. Each half-grid weight is one cell or a mirrored pair, so
    the largest weight bounds h.
    """
    t0 = spec.period
    cells = [half_grid(0.5 / t0, phi_grid, spec.breakpoints).weights.max() * t0,
             half_grid(0.5, phi_grid, spec.phi_breakpoints()).weights.max()]
    power_grid = spec.band_grid(4096)
    q_max = spec.sampled_base_psd(power_grid.nodes).max()
    return q_max * 5.0 * pi ** 2 / beta ** 2 / 24.0 * (
        max(cells) ** 2 + (power_grid.weights.max() * t0) ** 2)


def _raised_cosine_bound(sc):
    """Bound on |D(0) - sigma^2| of a curve over the raised-cosine base, on
    any of the kind's grids (stationary and AM).

    A copy of power p has |S''| <= (p / f_c) pi^2 / (2 f_c^2) on its 2 f_c,
    so the midpoint rule with cells of at most h is off by at most
    2 f_c h^2 max|S''| / 24 = (pi^2 / 24) p (h / f_c)^2, and the copies' p sum
    to sigma^2. An AM phase spectrum weights its copies by 1 + cos(2 psi)
    <= 2, hence the factor 2. The lower bound's grid is in phi = f / f0.
    """
    base = make_base(sc)
    cells = [half_grid(sc.bandwidth, sc.phi_grid, base.breakpoints).weights.max()]
    if sc.kind == "am":
        upper = am_gaussian_psd(base, sc.f0)
        spec = SOURCES["am"](sc)[0].spec
        cells += [half_grid(upper.support_radius, sc.phi_grid, upper.breakpoints).weights.max(),
                  half_grid(0.5, sc.phi_grid, spec.phi_breakpoints()).weights.max() * sc.f0]
    return 2.0 * pi ** 2 / 24.0 * sc.power * (max(cells) / sc.bandwidth) ** 2


def _check_curve(d, sigma2, rounding, quad):
    """D(0) = sigma^2 within rounding and the quadrature's error, and D
    non-increasing and convex on the even rate grid within rounding: each
    curve is that of its grid's levels, for which both hold exactly."""
    assert abs(d[0] - sigma2) <= rounding + quad
    assert np.all(np.diff(d) <= 2 * rounding)
    assert np.all(d[:-2] - 2 * d[1:-1] + d[2:] >= -4 * rounding)


@settings(max_examples=120, deadline=None)
@given(sc=_continuous_scenarios())
def test_continuous_curves_keep_the_paper_identities(sc):
    rows = drf_rows(sc, False)
    curves = {m: _curve([r for r in rows if r.split(",")[3] == m]) for m in sc.methods}
    if "lower_bound" in sc.methods:
        assert bound_rows(sc) == [r for r in rows if r.split(",")[3] == "lower_bound"]
    for rates, _ in curves.values():
        assert np.array_equal(rates, sc.rates)
    d = {m: dist for m, (_, dist) in curves.items()}
    # each curve's sigma^2: the model's own for PAM, else the base power
    # (AM keeps it, and sampled coding adds the MMSE to the coded curve's D)
    sigma2 = dict.fromkeys(sc.methods, sc.power)
    if sc.kind == "pam":
        spec = SOURCES["pam"](sc)[0].spec
        sigma2["drf"] = sigma2["lower_bound"] = spec.avg_power
    # the midpoint rule's O(h^2) where the levels are not piecewise linear;
    # elsewhere every level is piecewise linear with its kinks pinned, and
    # the rule is exact
    quad = 0.0
    if sc.kind == "pam" and sc.pulse == "raised_cosine":
        quad = _pam_rc_bound(spec, sc.pulse_beta, sc.phi_grid)
    elif sc.family == "raised_cosine":
        quad = _raised_cosine_bound(sc)
    # a curve's D is a sum of at most n nonnegative weighted levels: the half
    # grid's phi_grid / 2 + 1, for each of at most t_grid + 6 phases of a
    # lower bound; recursive summation rounds it by at most n eps sigma^2,
    # and PAM's sigma^2 is itself a sum of 4096 levels
    n = (sc.t_grid + 6) * (sc.phi_grid // 2 + 1) + 4096
    for method, dist in d.items():
        _check_curve(dist, sigma2[method], (n + 8) * EPS * sigma2[method], quad)
    # the bounds: in exact arithmetic at every rate. Off rate 0 the midpoint
    # rule is exact only where every level is constant between kinks, since
    # min(S, theta) and log+(S / theta) kink where S crosses theta, off the
    # cell edges: on a flat base, under any pulse but the triangle's (whose
    # phase spectra vary as cos(2 pi phi)) and the raised cosine's. Elsewhere
    # the order of two curves on different grids is checked at rate 0.
    exact = sc.family == "flat" and not (sc.kind == "pam" and sc.pulse in ("triangle",
                                                                        "raised_cosine"))
    upto = len(sc.rates) if exact else 1
    scale = (n + 8) * EPS * max(sigma2.values()) + quad
    if "lower_bound" in d:
        assert np.all(d["lower_bound"][:upto] <= d["drf"][:upto] + 2 * scale)
    if "upper_bound_gaussian_psd" in d:
        assert np.all(d["drf"][:upto] <= d["upper_bound_gaussian_psd"][:upto] + 2 * scale)


@settings(max_examples=60, deadline=None)
@given(f_b=st.floats(0.1, 10.0), power=_magnitude, ratio=st.floats(2.0, 8.0),
       phase=st.floats(-pi, pi), n_grid=st.integers(8, 512), top=st.floats(0.1, 4.0))
def test_am_above_the_narrowband_threshold_is_its_baseband(f_b, power, ratio, phase, n_grid,
                                                           top):
    # the paper's AM theorem: with f0 > 2 f_B the modulated source's curve is
    # the baseband's. Its field at M = s and 2 s against the baseband's
    # waterfiller: on a flat base every level is constant between the kinks
    # that both grids pin, so both rules are exact at every rate, and the
    # curves agree to rounding: n = (n_grid / 2 + 1) M weighted levels, and
    # each M x M decomposition moves its eigenvalues by a few M eps
    base = flat_psd(f_b, power)
    spec = am_cpsd(base, ratio * f_b * (1.0 + 1e-9), phase)
    rates = np.linspace(0.0, top * f_b, 7)
    _, baseband = stationary_waterfiller(base, n_grid).solve_many(rates)
    solver = ContinuousDrfSolver(spec, ContinuousDrfConfig(n_grid=n_grid))
    for dim in (saturation_dim(spec), 2 * saturation_dim(spec)):
        d = np.array([solver.point_at(r, dim).distortion for r in rates])
        tol = ((n_grid // 2 + 1) * dim + 8 * dim) * EPS * power
        assert np.all(np.abs(d - baseband) <= tol)


@pytest.mark.parametrize("dim", [1, 2, 4])
@settings(max_examples=30, deadline=None)
@given(family=st.sampled_from(["flat", "triangular", "raised_cosine"]),
       f_b=st.floats(0.1, 10.0), power=_magnitude, ratio=st.floats(0.25, 4.0),
       n_grid=st.integers(8, 512), top=st.floats(0.1, 4.0))
@example(family="raised_cosine", f_b=0.99999, power=1.0, ratio=3.0, n_grid=297, top=1.0)
def test_pam_closed_form_is_the_eigenvalue_path_for_the_rect_pulse(dim, family, f_b, power,
                                                                    ratio, n_grid, top):
    # the rect pulse's synthesis gain is 1 at every phase, so the rank-one
    # polyphase matrix at every M has the closed form's profile as its one
    # eigenvalue, on the same grid scaled by T0: the curves agree to
    # rounding, as above, whatever the base. The example's segment counts,
    # 297 x (1/6, 2/3, 1/6), are exact .5 ties, which a grid built on the
    # band rather than on the phi circle rounds apart
    fs = ratio * f_b
    spec = pam_cpsd(make_base(Scenario(kind="pam", family=family, bandwidth=f_b, power=power)),
                    rect_pulse(1.0 / fs), 1.0 / fs)
    rates = np.linspace(0.0, top * min(f_b, fs), 7)
    _, closed = pam_waterfiller(spec, n_grid).solve_many(rates)
    solver = ContinuousDrfSolver(spec, ContinuousDrfConfig(n_grid=n_grid))
    d = np.array([solver.point_at(r, dim).distortion for r in rates])
    tol = ((n_grid // 2 + 1) * dim + 8 * dim) * EPS * spec.avg_power
    assert np.all(np.abs(d - closed) <= tol)
