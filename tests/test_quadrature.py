import numpy as np
import pytest

from csdrf.quadrature import fold_breakpoints, segmented_midpoint


def test_weights_sum_to_span():
    g = segmented_midpoint(-1.0, 3.0, 100, (0.3, 1.7))
    assert g.size == 100
    assert np.isclose(g.weights.sum(), 4.0, rtol=0, atol=1e-14)
    assert np.all(np.diff(g.nodes) > 0)


def test_piecewise_linear_is_exact():
    # midpoint integrates linear pieces exactly when kinks sit on cell edges
    def f(x):
        return np.maximum(1.0 - np.abs(x), 0.0)

    g = segmented_midpoint(-2.0, 2.0, 64, (-1.0, 0.0, 1.0))
    assert g.weights @ f(g.nodes) == pytest.approx(1.0, abs=1e-15)


def test_discontinuity_on_edge_is_exact():
    def f(x):
        return np.where(np.abs(x) <= 0.31, 2.0, 0.0)

    g = segmented_midpoint(-0.5, 0.5, 37, (-0.31, 0.31))
    assert g.weights @ f(g.nodes) == pytest.approx(2.0 * 0.62, abs=1e-15)


def test_node_budget_honors_minimum_per_segment():
    g = segmented_midpoint(0.0, 1.0, 4, (0.001, 0.002, 0.999))
    assert g.size == 4          # one node per tiny segment, deterministic
    assert np.isclose(g.weights.sum(), 1.0)


def test_fold_breakpoints_lands_in_window():
    brks = fold_breakpoints([-1.0, 1.0], period=0.4)
    assert all(-0.5 <= b <= 0.5 for b in brks)
    assert 0.4 in brks and -0.4 in brks


def test_empty_interval_rejected():
    with pytest.raises(ValueError):
        segmented_midpoint(1.0, 1.0, 8)
