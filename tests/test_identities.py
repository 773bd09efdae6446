"""The paper's identities over generated scenarios, run through the CLI's rows.

Each test builds a valid ``Scenario`` of one source kind, takes its curves
from ``drf_rows`` and ``bound_rows`` on a linear rate grid from 0, and checks:

- D(0) is the source power;
- D is non-increasing and convex in R;
- the per-component lower bound is at most the curve;
- every row is finite.

Every tolerance is rounding, stated where it is used.
"""

import sys

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from csdrf.cli import Scenario, bound_rows, drf_rows

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
