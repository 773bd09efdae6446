"""Deterministic quadrature grids for frequency-domain integrals.

All integrals in this package run over fixed composite-midpoint grids whose
cell edges are pinned to the discontinuities and kinks of the integrand.
Midpoint rules integrate piecewise-linear functions exactly, so flat and
triangular spectral shapes incur no quadrature bias at band edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, floor

import numpy as np


@dataclass(frozen=True, eq=False)
class Grid:
    """Quadrature nodes and positive weights on a closed interval."""

    nodes: np.ndarray
    weights: np.ndarray
    lo: float
    hi: float

    @property
    def size(self) -> int:
        return self.nodes.size


def segmented_midpoint(lo: float, hi: float, n: int, breakpoints=()) -> Grid:
    """Composite midpoint rule with cell edges aligned to breakpoints.

    Interior breakpoints split [lo, hi] into segments; each segment receives
    a node budget proportional to its length (largest-remainder rounding,
    at least one node per segment). The allocation is deterministic, so the
    same inputs always yield the same grid.
    """
    lo = float(lo)
    hi = float(hi)
    span = hi - lo
    if not span > 0.0:
        raise ValueError(f"empty interval [{lo}, {hi}]")
    tol = 1e-12 * span

    edges = [lo]
    for b in sorted(float(x) for x in breakpoints):
        if b <= edges[-1] + tol or b >= hi - tol:
            continue
        edges.append(b)
    edges.append(hi)
    edges = np.asarray(edges)
    lengths = np.diff(edges)
    nseg = lengths.size

    n = max(int(n), nseg)
    raw = n * lengths / span
    counts = np.maximum(np.floor(raw).astype(int), 1)
    deficit = n - int(counts.sum())
    if deficit > 0:
        frac = raw - np.floor(raw)
        for i in np.argsort(-frac, kind="stable"):
            if deficit == 0:
                break
            counts[i] += 1
            deficit -= 1
    while deficit < 0:
        i = int(np.argmax(counts))
        if counts[i] <= 1:
            break
        counts[i] -= 1
        deficit += 1

    nodes = []
    weights = []
    for a, length, c in zip(edges[:-1], lengths, counts):
        h = length / c
        nodes.append(a + h * (np.arange(c) + 0.5))
        weights.append(np.full(c, h))
    return Grid(np.concatenate(nodes), np.concatenate(weights), lo, hi)


def phi_grid(n: int, breakpoints=()) -> Grid:
    """Grid on the normalized frequency interval [-1/2, 1/2]."""
    return segmented_midpoint(-0.5, 0.5, n, breakpoints)


def even_half(grid: Grid) -> Grid:
    """Non-negative half of a mirror-symmetric grid, integrating even functions.

    A grid is mirror-symmetric when its nodes equal their negated reverse
    within 1e-12 of its span and its weights equal their reverse within 1e-12
    relative. For such a grid the integral of an even function is the sum over
    the nodes phi >= 0 with each mirrored pair's weights added; the middle node
    of an odd grid keeps its own weight (and is read as |phi|, since it may sit
    a rounding error below 0). Any other grid is returned unchanged, so a
    caller integrates over it whole.
    """
    nodes, weights = grid.nodes, grid.weights
    n = nodes.size
    if not (np.all(np.abs(nodes + nodes[::-1]) <= 1e-12 * (grid.hi - grid.lo))
            and np.all(np.abs(weights - weights[::-1])
                       <= 1e-12 * np.maximum(weights, weights[::-1]))):
        return grid
    half = n // 2
    paired = weights[half:] + weights[::-1][half:]
    if n % 2:
        paired[0] = weights[half]
    return Grid(np.abs(nodes[half:]), paired, 0.0, grid.hi)


def fold_breakpoints(f_breaks, period: float, lo: float = -0.5, hi: float = 0.5):
    """Map physical-frequency breakpoints through phi = period*f + k into [lo, hi].

    Every integer shift of a mapped breakpoint that lands inside the target
    interval is returned; these are the normalized frequencies where an
    aliased copy of the spectrum switches on, off, or kinks.
    """
    out = set()
    for b in f_breaks:
        x = period * float(b)
        for k in range(ceil(lo - x), floor(hi - x) + 1):
            out.add(x + k)
    return tuple(sorted(out))


def gauss_segments(lo: float, hi: float, breakpoints=(), min_cells: int = 64, order: int = 8):
    """Gauss-Legendre nodes/weights on breakpoint-refined segments.

    Used for oscillatory inverse transforms where midpoint rules would need
    very fine grids. Returns (nodes, weights) arrays.
    """
    base = segmented_midpoint(lo, hi, max(min_cells, 1), breakpoints)
    gx, gw = np.polynomial.legendre.leggauss(order)
    centers = base.nodes
    halves = 0.5 * base.weights
    nodes = (centers[:, None] + halves[:, None] * gx[None, :]).ravel()
    weights = (halves[:, None] * gw[None, :]).ravel()
    return nodes, weights
