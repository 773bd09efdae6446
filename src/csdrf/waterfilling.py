"""Parametric reverse waterfilling over spectral levels.

A water level theta splits every spectral level lambda into a preserved part
min(lambda, theta) charged to distortion and a coded part log+(lambda/theta)
charged to rate. ``ScalarWaterfiller.solve_many`` inverts the monotone rate
map exactly from the sorted levels, at any number of rates; the continuous-
time refinement, the per-component bounds and the ``verify`` oracle solve
this way. ``ScalarWaterfiller.solve``, a geometric bisection one rate at a
time, serves the scalar curves (stationary, discrete-time, PAM and sampled
coding), which the CLI builds in one function, ``cli._solved``: the
benchmark harness keeps every pass's output, so a much faster solve there
would run more passes and raise its peak memory (ROADMAP item 1). Integrals
are computed in nats and rates reported in bits.

Every source solves at its smallest exact size. An eigenvalue field
(``EigenField.from_matrix``) decomposes a matrix that records its blocks
(``PsdPcMatrix.blocks``, the live parity blocks of an AM alias matrix) block
by block, with exact zeros for the rows in no block. A real source's density
is even in frequency, so ``stationary_waterfiller``, like the fields and the
bounds, waterfills ``even_half`` of its grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .polyphase import PsdPcMatrix
from .quadrature import Grid, even_half, segmented_midpoint
from .spectra import StationaryPsd, TruncationError

LOG2 = math.log(2.0)

# bisection bracket [lam_max * 2**-BRACKET_EXP, lam_max]; rates beyond the
# bracket's resolution are reported as errors rather than extrapolated
BRACKET_EXP = 120
MAX_BISECT = 200

# smallest normal float, 2**-1022: no water level is solved below it
NORMAL_FLOOR = 2.0 ** -1022

# relative size of the negative eigenvalues read as round-off and clipped to zero
CLIP_SCALE = 1e-9

# matrix entries per eigenvalue-field slice (1 MB complex, 0.5 MB real): a field
# is assembled and decomposed at most SLICE_ENTRIES // side**2 phi nodes at a
# time, side being the matrix side (r for a folded alias matrix, not M)
SLICE_ENTRIES = 2 ** 16


class WaterLevelUnderflow(RuntimeError):
    """Requested rate exceeds what the bisection bracket can resolve."""


class NotPositiveSemidefinite(ValueError):
    """A spectral matrix had an eigenvalue below the tolerance floor.

    ``index`` is the batch position of the offending matrix.
    """

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.index = index


# what a decomposition raises: a matrix below the semidefinite floor, or an
# eigensolver that did not converge
DECOMPOSITION_ERRORS = (NotPositiveSemidefinite, np.linalg.LinAlgError)


@dataclass(frozen=True)
class RateDistortionPoint:
    """One point (water level, rate, distortion) on a distortion-rate curve.

    ``rate`` is in bits, per symbol for discrete-time sources and per second
    for continuous-time sources; the two kinds must not be mixed without an
    explicit conversion by the symbol rate.
    """

    theta: float
    rate: float
    distortion: float


class ScalarWaterfiller:
    """Waterfilling over a weighted set of nonnegative spectral levels.

    distortion(theta) = d_scale * sum_i w_i * min(level_i, theta)
    rate(theta)       = r_scale * sum_i w_i * log2+(level_i / theta)

    Levels at or below zero add nothing to either sum and are dropped;
    ``levels`` and ``weights`` hold the positive levels that are kept. Their
    logarithms relative to the largest level are taken once here, so that a
    rate evaluation is a subtraction, a clip and a weighted dot product.
    """

    def __init__(self, levels, weights, d_scale: float, r_scale: float):
        levels = np.asarray(levels, dtype=float).ravel()
        weights = np.asarray(weights, dtype=float).ravel()
        if levels.shape != weights.shape:
            raise ValueError("levels and weights must have matching shapes")
        if not np.all(np.isfinite(levels)):
            raise ValueError("levels must be finite")
        if not np.all(np.isfinite(weights)) or np.any(weights < 0.0):
            raise ValueError("weights must be finite and nonnegative")
        for name, scale in (("d_scale", d_scale), ("r_scale", r_scale)):
            if not (math.isfinite(scale) and scale > 0.0):
                raise ValueError(f"{name} must be finite and positive, got {scale!r}")
        kept = levels > 0.0
        self.levels = levels[kept]
        self.weights = weights[kept]
        self.d_scale = float(d_scale)
        self.r_scale = float(r_scale)
        self.level_max = float(self.levels.max(initial=0.0))
        # log2(level / level_max) <= 0; rate(theta) clips log_levels - log2(theta / level_max)
        self._log_levels = np.log2(self.levels / self.level_max)
        self._table: _BreakpointTable | None = None

    def distortion(self, theta: float) -> float:
        return self.d_scale * float(self.weights @ np.minimum(self.levels, theta))

    def rate(self, theta: float) -> float:
        if not self.levels.size:
            return 0.0
        ratio = theta / self.level_max
        if ratio <= 0.0:        # theta <= 0, or too far below level_max to represent
            return math.inf
        excess = np.maximum(self._log_levels - math.log2(ratio), 0.0)
        return self.r_scale * float(self.weights @ excess)

    def point(self, theta: float) -> RateDistortionPoint:
        return RateDistortionPoint(float(theta), self.rate(theta), self.distortion(theta))

    def solve(self, target_rate: float) -> RateDistortionPoint:
        """Water level whose rate matches the target, by geometric bisection.

        The rate map is continuous and non-increasing in theta, so bisection
        on log-theta converges; the bracket is run down to machine precision
        rather than stopping at a rate tolerance. The bracket is held as
        theta / 2**e, 2**e being the binade of ``level_max``: the power-of-two
        scale is exact, so in the normal float range every step is the same
        bit for bit, and a level near either end of the range neither
        overflows ``lo * hi`` nor underflows ``lo`` to 0. A rate beyond the
        lowest level solved (``_edge``) raises ``WaterLevelUnderflow``, so
        every theta returned at a positive rate is a normal float.
        """
        if not math.isfinite(target_rate) or target_rate < 0.0:
            raise ValueError("target rate must be finite and nonnegative")
        if not self.levels.size:
            return RateDistortionPoint(0.0, 0.0, 0.0)
        if target_rate == 0.0:
            return self.point(self.level_max)
        theta_lo, rate_lo = self._edge()
        if target_rate > rate_lo * (1.0 + 1e-12) + 1e-12:
            raise WaterLevelUnderflow(
                f"target rate {target_rate} exceeds resolvable maximum {rate_lo} "
                f"(water level underflow below {theta_lo})")
        hi, e = math.frexp(self.level_max)
        lo = math.ldexp(hi, -BRACKET_EXP)
        for _ in range(MAX_BISECT):
            mid = math.sqrt(lo * hi)
            if self.rate(math.ldexp(mid, e)) >= target_rate:
                lo = mid
            else:
                hi = mid
            if hi - lo <= 4e-16 * hi:
                break
        return self.point(max(math.ldexp(math.sqrt(lo * hi), e), theta_lo))

    def _edge(self) -> tuple[float, float]:
        """(theta, rate) at the lowest water level solved.

        That level is the bracket floor level_max 2^-BRACKET_EXP, raised to
        ``NORMAL_FLOOR`` where the floor is not a normal float. The rate is
        taken in the log domain, at x = log2(theta / level_max), so it needs
        no theta that underflows; in the normal range x is -BRACKET_EXP
        exactly, and the rate is ``rate`` at the floor bit for bit.
        """
        x = max(-BRACKET_EXP, math.log2(NORMAL_FLOOR) - math.log2(self.level_max))
        rate = self.r_scale * float(self.weights @ np.maximum(self._log_levels - x, 0.0))
        return max(self.level_max * 2.0 ** -BRACKET_EXP, NORMAL_FLOOR), rate

    def solve_many(self, rates) -> tuple[np.ndarray, np.ndarray]:
        """(theta, distortion) at every target rate, shaped like ``rates``.

        The exact solve: with the levels sorted descending, the rate map is
        linear in x = log2(theta / level_max) between breakpoints. Above the
        (k+1)-th largest level only the top k levels code, and

            rate = r_scale * (L_k - W_k x)

        with W_k and L_k the sums of w and of w log2(level / level_max) over
        the top k (every term <= 0, so nothing cancels). Each rate finds its
        segment among the breakpoint rates, and x = (L_k - rate / r_scale) /
        W_k; the distortion is d_scale * (tail_k + theta W_k), tail_k being
        the sum of w level over the remaining levels, taken from the small
        end. The rules of ``solve`` hold: a negative or non-finite rate
        raises ``ValueError``, rate 0 gives theta = level_max, no positive
        level gives the zero curve, and a rate beyond the lowest level solved
        (``_edge``) raises ``WaterLevelUnderflow`` (within the edge's 1e-12
        band, theta stays at the edge). A zero-weight level adds nothing to
        rate or distortion and never stops theta from falling below it.

        The sorted table is built on the first call and kept on the
        waterfiller, so each further call costs one ``searchsorted``.
        """
        rates = np.asarray(rates, dtype=float)
        flat = rates.ravel()
        if not np.all(np.isfinite(flat)) or np.any(flat < 0.0):
            raise ValueError("target rate must be finite and nonnegative")
        if not self.levels.size:
            return np.zeros(rates.shape), np.zeros(rates.shape)
        table = self._table or self._build_table()
        if np.any(flat > table.edge):
            raise WaterLevelUnderflow(
                f"target rate {flat[np.argmax(flat > table.edge)]} exceeds resolvable maximum "
                f"{table.rate_lo} (water level underflow below {table.lo})")
        k = np.maximum(np.searchsorted(table.breaks, flat, side="left"), 1)   # top k code
        wk, lk = table.big_w[k - 1], table.big_l[k - 1]
        with np.errstate(divide="ignore", invalid="ignore"):
            xk = np.where(wk > 0.0, (lk - flat / self.r_scale) / wk, -np.inf)
        theta = np.where(flat == 0.0, self.level_max,
                         np.maximum(self.level_max * np.exp2(xk), table.lo))
        dist = np.where(flat == 0.0, table.tail[0], table.tail[k] + theta * wk)
        return theta.reshape(rates.shape), (self.d_scale * dist).reshape(rates.shape)

    def _build_table(self) -> _BreakpointTable:
        lo, rate_lo = self._edge()
        order = np.argsort(-self._log_levels, kind="stable")
        x, w = self._log_levels[order], self.weights[order]
        big_w = np.cumsum(w)                                  # W_k at index k - 1
        big_l = np.cumsum(w * x)                              # L_k at index k - 1
        tail = np.append(np.cumsum((w * self.levels[order])[::-1])[::-1], 0.0)
        # rate at theta = k-th largest level; every level above it codes
        breaks = np.maximum.accumulate(
            self.r_scale * np.append(0.0, big_l[:-1] - big_w[:-1] * x[1:]))
        self._table = _BreakpointTable(lo, rate_lo, rate_lo * (1.0 + 1e-12) + 1e-12,
                                       big_w, big_l, tail, breaks)
        return self._table


@dataclass(frozen=True, eq=False)
class _BreakpointTable:
    """What ``ScalarWaterfiller.solve_many`` keeps between calls."""

    lo: float                # lowest water level solved (``ScalarWaterfiller._edge``)
    rate_lo: float           # rate at that level
    edge: float              # largest rate solved; beyond it, WaterLevelUnderflow
    big_w: np.ndarray
    big_l: np.ndarray
    tail: np.ndarray
    breaks: np.ndarray


# ---------------------------------------------------------------------------
# eigenvalue fields
# ---------------------------------------------------------------------------

def _clip_eigenvalues(lam: np.ndarray) -> np.ndarray:
    """Eigenvalues (one matrix per row of the last axis) with round-off
    negatives set to zero.

    An eigenvalue below -CLIP_SCALE times the largest magnitude in its row
    raises, since it means the input was not a valid spectral or covariance
    matrix.
    """
    scale = np.maximum(np.abs(lam).max(axis=-1, keepdims=True, initial=0.0), 1e-300)
    if np.any(lam < -CLIP_SCALE * scale):
        worst = int(np.argmin(lam.min(axis=-1)))
        raise NotPositiveSemidefinite(
            f"eigenvalue {lam.min():.3e} below tolerance at batch index {worst} "
            f"(scale {scale.ravel()[worst]:.3e})", worst)
    return np.maximum(lam, 0.0)


def hermitian_eigenvalues(mats: np.ndarray) -> np.ndarray:
    """Ascending real eigenvalues of a stack of (near-)Hermitian matrices.

    The input is symmetrized as (A + A^H)/2 before decomposition; a real
    stack is decomposed in real arithmetic, a complex one in complex. Small
    negative eigenvalues (within CLIP_SCALE times the matrix's largest
    magnitude) are clipped to zero; anything more negative raises
    NotPositiveSemidefinite.
    """
    mats = np.asarray(mats)
    # (A^H + A) / 2 in one buffer
    if np.iscomplexobj(mats):
        herm = np.swapaxes(mats, -1, -2).conj()
        herm += mats
    else:
        mats = mats.astype(float, copy=False)
        herm = np.swapaxes(mats, -1, -2) + mats     # conj() of a real stack is a view of it
    herm *= 0.5
    try:
        lam = np.linalg.eigvalsh(herm)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            f"eigensolver failed on a batch of shape {herm.shape}; "
            f"max |entry| = {np.abs(herm).max():.3e}") from exc
    return _clip_eigenvalues(lam)


def _block_eigenvalues(mats: np.ndarray, blocks) -> np.ndarray:
    """Ascending eigenvalues of each matrix of a stack, decomposed by ``blocks``
    (``PsdPcMatrix.blocks``). A ``NotPositiveSemidefinite`` names the matrix's
    position in the stack."""
    if blocks is None:
        return hermitian_eigenvalues(mats)
    lam = np.zeros(mats.shape[:2])
    by_size: dict[int, list] = {}
    for block in blocks:
        by_size.setdefault(block.size, []).append(block)
    col = 0
    for size, same in by_size.items():
        idx = np.array(same)                                  # (blocks, size)
        stack = mats[:, idx[:, :, None], idx[:, None, :]].reshape(-1, size, size)
        try:
            vals = hermitian_eigenvalues(stack)
        except NotPositiveSemidefinite as exc:
            raise NotPositiveSemidefinite(f"{exc} in a {size} x {size} block",
                                          exc.index // len(same)) from exc
        lam[:, col:col + idx.size] = vals.reshape(mats.shape[0], idx.size)
        col += idx.size
    lam.sort(axis=-1, kind="stable")    # the sort code ScalarWaterfiller already pages in
    return lam


@dataclass(frozen=True, eq=False)
class EigenField:
    """Sorted nonnegative eigenvalues of a spectral matrix over a phi grid.

    ``d_scale`` is the distortion weight of each eigenvalue: 1/M for the
    nonzero spectrum of an M x M polyphase matrix, however many of its
    eigenvalues ``lam`` keeps.
    """

    grid: Grid
    lam: np.ndarray          # (n_phi, r), ascending in the last axis
    d_scale: float

    @classmethod
    def from_matrix(cls, matrix: PsdPcMatrix, grid: Grid,
                    d_scale: float | None = None) -> "EigenField":
        """Field of ``matrix`` over ``grid``, built slice by slice.

        ``d_scale`` defaults to 1/matrix.dim, the weight of a full polyphase
        matrix. Each matrix is decomposed on its own, so the field does not
        depend on the slicing; only the peak memory does.

        Each slice is assembled whole, as ``matrix(nodes)`` returns it. A
        matrix with ``blocks`` is then decomposed block by block: the blocks
        of one size are gathered from the slice into one stack and decomposed
        in one ``hermitian_eigenvalues`` call, and every index in no block
        gives an exact zero. The eigenvalues of a node are sorted ascending,
        as the whole matrix's would be.
        """
        step = max(1, SLICE_ENTRIES // matrix.dim ** 2)
        parts = []
        for start in range(0, grid.size, step):
            nodes = grid.nodes[start:start + step]
            where = (f"nodes {start}..{start + nodes.size - 1} of the phi grid on "
                     f"[{grid.lo}, {grid.hi}], {grid.size} nodes")
            try:
                parts.append(_block_eigenvalues(matrix(nodes), matrix.blocks))
            except NotPositiveSemidefinite as exc:
                node = start + exc.index
                raise NotPositiveSemidefinite(
                    f"node {node} at phi = {grid.nodes[node]:.17g}: {exc} in {where}",
                    node) from exc
            except np.linalg.LinAlgError as exc:
                raise np.linalg.LinAlgError(f"{exc} ({where})") from exc
        if d_scale is None:
            d_scale = 1.0 / matrix.dim
        return cls(grid, np.concatenate(parts), d_scale)

    def waterfiller(self, rate_normalizer: float) -> ScalarWaterfiller:
        """Waterfiller over the field: ``rate_normalizer`` is 1/(2 M) for bits
        per symbol or 1/(2 T0) for bits per second."""
        weights = np.repeat(self.grid.weights, self.lam.shape[1])
        return ScalarWaterfiller(self.lam.ravel(), weights,
                                 d_scale=self.d_scale, r_scale=rate_normalizer)


# ---------------------------------------------------------------------------
# scalar special cases
# ---------------------------------------------------------------------------

def stationary_waterfiller(psd: StationaryPsd, n_grid: int = 2048) -> ScalarWaterfiller:
    """Waterfiller over a stationary density on the physical frequency line.

    The density is even (``StationaryPsd``), so it is taken on ``even_half``
    of the grid on [-f_max, f_max]: the nodes f >= 0 with mirrored weights
    added, half the levels of the whole grid and the same integrals up to
    rounding. A grid whose node allocation is not mirror-symmetric (an odd
    grid with a breakpoint at 0) is taken whole.
    """
    if not math.isfinite(psd.support_radius):
        raise TruncationError("stationary waterfilling needs a finite support radius")
    r = psd.support_radius
    grid = even_half(segmented_midpoint(-r, r, n_grid, psd.breakpoints))
    return ScalarWaterfiller(psd(grid.nodes), grid.weights, d_scale=1.0, r_scale=0.5)


def discrete_stationary_drf(spectrum_fn, target_rate: float, n_grid: int = 2048,
                     breakpoints=()) -> RateDistortionPoint:
    """Scalar waterfilling of a discrete-time spectrum on [-1/2, 1/2].

    ``spectrum_fn`` maps normalized frequency to a nonnegative density; rate
    is in bits per symbol.
    """
    grid = segmented_midpoint(-0.5, 0.5, n_grid, breakpoints)
    levels = np.asarray(spectrum_fn(grid.nodes), dtype=float)
    return ScalarWaterfiller(levels, grid.weights, d_scale=1.0, r_scale=0.5).solve(target_rate)
