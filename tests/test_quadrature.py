import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csdrf.quadrature import Grid, fold_breakpoints, half_grid, phi_grid, segmented_midpoint


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


def _even(x):
    return np.maximum(1.0 - 2.5 * np.abs(x), 0.0) + np.cos(2.0 * np.pi * x) ** 2


@pytest.mark.parametrize("n, breakpoints", [
    (2048, ()), (2047, ()), (64, (-0.3, 0.3)), (65, (-0.3, -0.1, 0.1, 0.3)),
    (13, (-0.2, 0.2)), (1, ()),
])
def test_half_grid_keeps_the_integral_of_even_functions(n, breakpoints):
    grid = phi_grid(n, breakpoints)
    half = half_grid(0.5, n, breakpoints)
    assert half.size == (n + 1) // 2
    assert np.all(half.nodes >= 0.0) and (half.lo, half.hi) == (0.0, grid.hi)
    assert half.weights.sum() == pytest.approx(grid.weights.sum(), rel=0, abs=1e-15)
    assert half.weights @ _even(half.nodes) == pytest.approx(grid.weights @ _even(grid.nodes),
                                                             rel=0, abs=1e-15)
    if n % 2:      # the middle node keeps its own weight; every other one is paired
        assert half.nodes[0] == 0.0 and half.weights[0] == grid.weights[n // 2]
        assert np.array_equal(half.weights[1:], 2.0 * grid.weights[n // 2 + 1:])
    else:
        assert np.array_equal(half.weights, 2.0 * grid.weights[n // 2:])


def _counts(grid, edges):
    return tuple(int(np.sum((grid.nodes > a) & (grid.nodes < b))) for a, b in zip(edges, edges[1:]))


@pytest.mark.parametrize("grid, edges, counts", [
    # remainders 0.6, 0.8, 0.6: the mirrored pair takes both leftovers, not the
    # middle and the left segment (4, 5, 3)
    (phi_grid(12, (-0.2, 0.2)), (-0.5, -0.2, 0.2, 0.5), (4, 4, 4)),
    # an asymmetric list on a centred interval keeps its edges and the
    # largest-remainder rule
    (phi_grid(64, (-0.3, 0.1)), (-0.5, -0.3, 0.1, 0.5), (13, 26, 25)),
    (segmented_midpoint(0.0, 1.0, 16, (0.3,)), (0.0, 0.3, 1.0), (5, 11)),
])
def test_only_asymmetric_edges_give_an_asymmetric_grid(grid, edges, counts):
    assert _counts(grid, edges) == counts
    mirrored = np.allclose(grid.nodes, -grid.nodes[::-1], rtol=0.0, atol=1e-15)
    assert mirrored == (counts == counts[::-1])


def test_half_grid_folds_a_one_sided_breakpoint_list():
    half = half_grid(0.5, 64, (-0.3, 0.1))
    both = half_grid(0.5, 64, (-0.3, -0.1, 0.1, 0.3))
    assert np.array_equal(half.nodes, both.nodes) and np.array_equal(half.weights, both.weights)
    whole = phi_grid(64, (-0.3, -0.1, 0.1, 0.3))
    assert half.weights @ _even(half.nodes) == pytest.approx(whole.weights @ _even(whole.nodes),
                                                             rel=0, abs=1e-15)


def _reference_edges(lo, hi, breakpoints):
    tol = 1e-12 * (hi - lo)
    edges = [lo]
    for b in sorted(breakpoints):
        if not (b <= edges[-1] + tol or b >= hi - tol):
            edges.append(b)
    return np.asarray(edges + [hi])


def _reference_midpoint(lo, hi, n, breakpoints):
    """The largest-remainder allocation without mirroring: leftover nodes go to
    the largest remainders, ties to the left; surplus nodes leave the largest
    count, ties to the left."""
    edges = _reference_edges(lo, hi, breakpoints)
    lengths = np.diff(edges)
    n = max(n, lengths.size)
    raw = n * lengths / (hi - lo)
    counts = np.maximum(np.floor(raw).astype(int), 1)
    deficit = n - int(counts.sum())
    for i in np.argsort(-(raw - np.floor(raw)), kind="stable")[:max(deficit, 0)]:
        counts[i] += 1
    while counts.sum() > n and counts.max() > 1:
        counts[np.argmax(counts)] -= 1
    nodes = [a + (length / c) * (np.arange(c) + 0.5)
             for a, length, c in zip(edges[:-1], lengths, counts)]
    return Grid(np.concatenate(nodes), np.repeat(lengths / counts, counts), lo, hi)


def _is_mirrored(grid, tol=2e-12, weight_rtol=0.0):
    """Nodes and weights mirrored within ``tol`` of the span, or the weights
    within ``weight_rtol`` relative. Edges merged within the breakpoint
    tolerance, 1e-12 of the span, can be that far from their mirrors, and a
    node or a weight then inherits that, plus rounding."""
    tol *= grid.hi - grid.lo
    return (np.all(np.abs(grid.nodes + grid.nodes[::-1]) <= tol)
            and np.allclose(grid.weights, grid.weights[::-1], rtol=weight_rtol,
                            atol=0.0 if weight_rtol else tol))


@st.composite
def _mirrored_breakpoints(draw):
    """|b| in [0, 1/2], sometimes with 0 or a round value, and their fold +-|b|."""
    pos = draw(st.lists(st.floats(0.0, 0.5), max_size=4))
    pos += draw(st.lists(st.sampled_from([0.0, 0.1, 0.2, 0.25, 0.3, 0.4]), max_size=2))
    return pos, sorted({s * b for b in pos for s in (-1.0, 1.0)})


@settings(max_examples=150, deadline=None)
@given(bps=_mirrored_breakpoints(), n=st.integers(1, 600))
def test_centred_grids_are_mirrored_and_keep_every_symmetric_reference(bps, n):
    pos, folded = bps
    grid = segmented_midpoint(-0.5, 0.5, n, folded)
    assert _is_mirrored(grid)
    assert grid.weights.sum() == pytest.approx(1.0, rel=0, abs=1e-14)
    # an even number of cells has an edge at 0: an odd n loses one node
    edges = _reference_edges(-0.5, 0.5, folded)
    cells = len(edges) - 1
    size = max(n, cells)
    assert grid.size == (size - size % 2 if cells % 2 == 0 else size)
    ref = _reference_midpoint(-0.5, 0.5, n, folded)
    if _is_mirrored(ref, 1e-12, weight_rtol=1e-12):      # the reference's own half-grid test
        assert np.array_equal(grid.nodes, ref.nodes)
        assert np.array_equal(grid.weights, ref.weights)
    # the half grid reads the nodes phi >= 0. Where a breakpoint and its mirror
    # were merged within the tolerance (one of +-b near 0, or near-equal |b|), a
    # node sits up to 1e-12 from its mirror's negation: the integrals then differ
    # by up to 1e-12 times max |f'| (2.5 + 2 pi) over the half span
    atol = 1e-15 if np.array_equal(edges, -edges[::-1]) else 1e-15 + 0.5e-12 * (2.5 + 2 * np.pi)
    half = half_grid(0.5, n, pos)
    assert half.weights @ _even(half.nodes) == pytest.approx(grid.weights @ _even(grid.nodes),
                                                             rel=0, abs=atol)
