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


def _require_positive_int(name: str, value) -> None:
    """Reject anything but an integer of at least 1, naming the argument."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")


def segmented_midpoint(lo: float, hi: float, n: int, breakpoints=()) -> Grid:
    """Composite midpoint rule with cell edges aligned to breakpoints.

    Interior breakpoints split [lo, hi] into segments; each segment receives
    a node budget proportional to its length (largest-remainder rounding,
    at least one node per segment). The allocation is deterministic, so the
    same inputs always yield the same grid.

    Breakpoints are taken in order of magnitude: one within 1e-12 of the span
    of an end, or of a kept breakpoint of smaller magnitude, merges into it,
    and a mirrored pair that close merges at 0. Mirrored breakpoints
    therefore give exactly mirrored edges.

    Where the edges are mirror-symmetric about 0 (within the 1e-12 span
    tolerance that also merges breakpoints), each mirrored pair of segments
    gets the same count, so the grid is mirror-symmetric: leftover nodes go
    to pairs two at a time in largest-remainder order, surplus nodes leave in
    pairs, and a segment across 0 takes or gives up a single node. An odd n
    with an edge at 0 cannot be mirrored and gets n - 1 nodes.
    """
    lo, hi = float(lo), float(hi)
    _require_positive_int("grid size", n)
    span = hi - lo
    if not span > 0.0:
        raise ValueError(f"empty interval [{lo}, {hi}]")
    tol = 1e-12 * span

    pos, neg = [], []       # kept breakpoints by sign and magnitude; a pair merged at 0 is neg[0]
    for b in sorted({float(x) for x in breakpoints if lo + tol < x < hi - tol},
                    key=lambda x: (abs(x), x)):
        same, other = (pos, neg) if b >= 0.0 else (neg, pos)
        nearest = same[-1:] + [x for x in other[:1] if abs(x) < abs(b)]
        if other[:1] == [-b] and 2.0 * b <= tol:
            other[0] = 0.0
        elif all(abs(b - x) > tol for x in nearest):
            same.append(b)
    edges = np.array([lo, *neg[::-1], *pos, hi])
    lengths = np.diff(edges)
    nseg = lengths.size
    mirrored = np.all(np.abs(edges + edges[::-1]) <= tol)

    n = max(n, nseg)
    raw = n * lengths / span
    if mirrored:        # a pair's lengths may differ in the last bits
        raw = 0.5 * (raw + raw[::-1])
    counts = np.maximum(np.floor(raw).astype(int), 1)
    deficit = n - int(counts.sum())
    if deficit > 0:
        frac = raw - np.floor(raw)
        order = np.argsort(-frac, kind="stable")
        if mirrored:    # the left segment of each pair, and its mirror
            left = order[2 * order < nseg - 1][:deficit // 2]
            counts[left] += 1
            counts[nseg - 1 - left] += 1
        else:
            counts[order[:deficit]] += 1
    while counts.sum() > n and counts.max() > 1:
        i = int(np.argmax(counts))
        counts[list({i, nseg - 1 - i} if mirrored else {i})] -= 1
    if mirrored and nseg % 2 and counts.sum() < n:
        counts[nseg // 2] += 1      # the segment across 0 takes the odd node

    h = lengths / counts
    nodes = [a + w * (np.arange(c) + 0.5) for a, w, c in zip(edges[:-1], h, counts)]
    return Grid(np.concatenate(nodes), np.repeat(h, counts), lo, hi)


def phi_grid(n: int, breakpoints=()) -> Grid:
    """Grid on the normalized frequency interval [-1/2, 1/2]."""
    return segmented_midpoint(-0.5, 0.5, n, breakpoints)


def half_grid(radius: float, n: int, breakpoints=()) -> Grid:
    """Non-negative half of the grid on [-radius, radius], for even integrands.

    The breakpoints are folded to +-|b|, so the grid is mirror-symmetric
    (``segmented_midpoint``), and the integral of an even function over it is
    the sum over its nodes phi >= 0 with each mirrored pair's weights added.
    The middle node of an odd grid keeps its own weight, and is read as
    |phi|, since it may sit a rounding error below 0.
    """
    grid = segmented_midpoint(-radius, radius, n,
                              [s * abs(float(b)) for b in breakpoints for s in (-1.0, 1.0)])
    nodes, weights = grid.nodes, grid.weights
    half = nodes.size // 2
    paired = weights[half:] + weights[::-1][half:]
    if nodes.size % 2:
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
