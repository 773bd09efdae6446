import numpy as np
import pytest

from csdrf.quadrature import even_half, fold_breakpoints, phi_grid, segmented_midpoint


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


@pytest.mark.parametrize("n, breakpoints", [
    (2048, ()), (2047, ()), (64, (-0.3, 0.3)), (65, (-0.3, -0.1, 0.1, 0.3)),
    (13, (-0.2, 0.2)), (1, ()),
])
def test_even_half_keeps_the_integral_of_even_functions(n, breakpoints):
    def f(x):
        return np.maximum(1.0 - 2.5 * np.abs(x), 0.0) + np.cos(2.0 * np.pi * x) ** 2

    grid = phi_grid(n, breakpoints)
    half = even_half(grid)
    assert half is not grid and half.size == (n + 1) // 2
    assert np.all(half.nodes >= 0.0) and (half.lo, half.hi) == (0.0, grid.hi)
    assert half.weights.sum() == pytest.approx(grid.weights.sum(), rel=0, abs=1e-15)
    assert half.weights @ f(half.nodes) == pytest.approx(grid.weights @ f(grid.nodes),
                                                         rel=0, abs=1e-15)
    if n % 2:      # the middle node keeps its own weight; every other one is paired
        assert half.nodes[0] == 0.0 and half.weights[0] == grid.weights[n // 2]
        assert np.array_equal(half.weights[1:], 2.0 * grid.weights[n // 2 + 1:])
    else:
        assert np.array_equal(half.weights, 2.0 * grid.weights[n // 2:])


@pytest.mark.parametrize("grid", [
    phi_grid(12, (-0.2, 0.2)),              # largest remainders 0.8, 0.6, 0.6: counts 4, 5, 3
    phi_grid(64, (-0.3, 0.1)),              # asymmetric breakpoints
    segmented_midpoint(0.0, 1.0, 16),       # not centred on 0
])
def test_even_half_returns_an_asymmetric_grid_whole(grid):
    assert even_half(grid) is grid
