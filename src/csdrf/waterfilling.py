"""Parametric reverse waterfilling over spectral levels.

A water level theta splits every spectral level lambda into a preserved part
min(lambda, theta) charged to distortion and a coded part log+(lambda/theta)
charged to rate. ``stacked_solve`` inverts the monotone rate map exactly
from the sorted levels, for the caller's level rows with shared weights at
any number of rates, asking for ``spectra.BLOCK_ENTRIES`` levels at a time
(``spectra.row_blocks``), and returns their mean distortion: each
per-component bound is one such call. ``ScalarWaterfiller.solve_many`` is
its one-row case, and the continuous-time refinement and the ``verify``
oracle solve through it. ``ScalarWaterfiller.solve``, a geometric bisection
one rate at a time, serves the scalar curves (stationary, discrete-time, PAM
and sampled coding), which the CLI builds in one function, ``cli._solved``:
the benchmark harness keeps every pass's output, so a much faster solve
there would run more passes and raise its peak memory (ROADMAP item 1).
Integrals are computed in nats and rates reported in bits.

Every source solves at its smallest exact size. An eigenvalue field
(``EigenField.from_matrix``) decomposes a matrix that records its blocks
(``PsdPcMatrix.blocks``, the live parity blocks of an AM alias matrix) block
by block, with exact zeros for the rows in no block. A real source's density
is even in frequency, so ``stationary_waterfiller``, like the fields and the
bounds, waterfills the half of a mirrored grid (``quadrature.half_grid``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .polyphase import PsdPcMatrix
from .quadrature import Grid, half_grid, segmented_midpoint
from .spectra import StationaryPsd, TruncationError, row_blocks

# bisection bracket [lam_max * 2**-BRACKET_EXP, lam_max]; rates beyond the
# bracket's resolution are reported as errors rather than extrapolated
BRACKET_EXP = 120
MAX_BISECT = 200

# smallest normal float, 2**-1022: no water level is solved below it
NORMAL_FLOOR = 2.0 ** -1022

# log2 of a level ratio that underflowed to 0: below every ratio (2**-1074 up)
LOG_FLOOR = -1075.0

# relative size of the negative eigenvalues read as round-off and clipped to zero
CLIP_SCALE = 1e-9

# array entries per eigenvalue-field slice (1 MB complex, 0.5 MB real), the
# assembly's temporaries included: a field is assembled and decomposed at most
# SLICE_ENTRIES // node_entries phi nodes at a time, node_entries being what one
# node's assembly makes (``PsdPcMatrix.node_entries``; side**2 by default)
SLICE_ENTRIES = 2 ** 16


class WaterLevelUnderflow(RuntimeError):
    """Requested rate exceeds what the bisection bracket can resolve; ``index``
    is that rate's flat position among the rates of an exact solve, else None."""

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


class NotPositiveSemidefinite(ValueError):
    """A spectral matrix had an eigenvalue below the tolerance floor, or one
    that is not finite.

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
    ``levels`` and ``weights`` hold the positive levels that are kept, the
    given arrays themselves when none is dropped (they are read, never
    written). Their logarithms relative to the largest level are taken once,
    on the first ``rate`` or ``_edge`` call, so that a rate evaluation is a
    subtraction, a clip and a weighted dot product; a waterfiller solved only
    by ``solve_many`` never takes them.
    """

    def __init__(self, levels, weights, d_scale: float, r_scale: float):
        levels = np.asarray(levels, dtype=float).ravel()
        weights = np.asarray(weights, dtype=float).ravel()
        if levels.shape != weights.shape:
            raise ValueError("levels and weights must have matching shapes")
        _check_inputs(levels, weights, d_scale, r_scale)
        kept = levels > 0.0
        if not kept.all():
            levels, weights = levels[kept], weights[kept]
        self.levels = levels
        self.weights = weights
        self.d_scale = float(d_scale)
        self.r_scale = float(r_scale)
        self.level_max = float(levels.max(initial=0.0))
        self._log_levels: np.ndarray | None = None
        self._table: _BreakpointTable | None = None

    def distortion(self, theta: float) -> float:
        return self.d_scale * float(self.weights @ np.minimum(self.levels, theta))

    def rate(self, theta: float) -> float:
        if not self.levels.size:
            return 0.0
        ratio = theta / self.level_max
        if ratio <= 0.0:        # theta <= 0, or too far below level_max to represent
            return math.inf
        excess = np.maximum(self._logs() - math.log2(ratio), 0.0)
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
        rate at the lowest level solved (``_edge``) by more than 1e-12 of that
        rate raises ``WaterLevelUnderflow``, so every theta returned at a
        positive rate is a normal float; where that rate is 0 (every positive
        level has weight 0), every positive rate raises.
        """
        if not math.isfinite(target_rate) or target_rate < 0.0:
            raise ValueError("target rate must be finite and nonnegative")
        if not self.levels.size:
            return RateDistortionPoint(0.0, 0.0, 0.0)
        if target_rate == 0.0:
            return self.point(self.level_max)
        theta_lo, rate_lo = self._edge()
        if target_rate > rate_lo * (1.0 + 1e-12):
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
        """(theta, rate) at the lowest water level solved: the module's ``_edge``."""
        return _edge(self._logs(), self.weights, self.level_max, self.r_scale)

    def _logs(self) -> np.ndarray:
        """log2(level / level_max) in [LOG_FLOOR, 0], formed on first use; ``rate`` clips it
        minus log2(theta / level_max). A plain attribute set in ``__init__``: a
        cached_property's instance dict would slow every attribute load in ``rate``."""
        if self._log_levels is None:
            logs = self._log_levels = self.levels / self.level_max
            with np.errstate(divide="ignore"):
                np.maximum(np.log2(logs, out=logs), LOG_FLOOR, out=logs)
        return self._log_levels

    def solve_many(self, rates) -> tuple[np.ndarray, np.ndarray]:
        """(theta, distortion) at every target rate, shaped like ``rates``.

        The exact solve, the one-row case of ``stacked_solve``: with the
        levels sorted descending, the rate map is linear in
        x = log2(theta / level_max) between breakpoints. Above the (k+1)-th
        largest level only the top k levels code, and

            rate = r_scale * (L_k - W_k x)

        with W_k and L_k the sums of w and of w log2(level / level_max) over
        the top k (every term <= 0, so nothing cancels). Each rate finds its
        segment among the breakpoint rates, and x = (L_k - rate / r_scale) /
        W_k; the distortion is d_scale * (tail_k + theta W_k), tail_k being
        the sum of w level over the remaining levels, taken from the small
        end. The rules of ``solve`` hold: a negative or non-finite rate
        raises ``ValueError``, rate 0 gives theta = level_max, no positive
        level gives the zero curve, and a rate beyond the edge raises
        ``WaterLevelUnderflow`` (within 1e-12 of the edge rate, relative,
        theta stays at the edge). A zero-weight level adds nothing to rate or
        distortion and never stops theta from falling below it.

        The sorted table is built on the first call and kept on the
        waterfiller, so each further call is one ``_BreakpointTable.solve``,
        which refuses a rate past the edge before it solves.
        """
        rates = np.asarray(rates, dtype=float)
        flat = _checked_rates(rates)
        if not self.levels.size:
            return np.zeros(rates.shape), np.zeros(rates.shape)
        if self._table is None:
            self._table = _BreakpointTable.build(self.levels[None, :], self.weights, self.r_scale)
        theta, dist = self._table.solve(flat)
        return theta.reshape(rates.shape), (self.d_scale * dist).reshape(rates.shape)


def _check_inputs(levels, weights, d_scale: float, r_scale: float) -> None:
    if not np.all(np.isfinite(levels)):
        raise ValueError("levels must be finite")
    if not np.all(np.isfinite(weights)) or np.any(weights < 0.0):
        raise ValueError("weights must be finite and nonnegative")
    for name, scale in (("d_scale", d_scale), ("r_scale", r_scale)):
        if not (math.isfinite(scale) and scale > 0.0):
            raise ValueError(f"{name} must be finite and positive, got {scale!r}")


def _checked_rates(rates: np.ndarray) -> np.ndarray:
    flat = rates.ravel()
    if not np.all(np.isfinite(flat)) or np.any(flat < 0.0):
        raise ValueError("target rate must be finite and nonnegative")
    return flat


def _edge(log_levels, weights, level_max: float, r_scale: float) -> tuple[float, float]:
    """(theta, rate) at the lowest water level solved for the positive levels
    whose log2(level / level_max) are ``log_levels``.

    That level is the bracket floor level_max 2^-BRACKET_EXP, raised to
    ``NORMAL_FLOOR`` where the floor is not a normal float. The rate is
    taken in the log domain, at x = log2(theta / level_max), so it needs
    no theta that underflows; in the normal range x is -BRACKET_EXP
    exactly, and the rate is ``ScalarWaterfiller.rate`` at the floor bit for
    bit.
    """
    x = max(-BRACKET_EXP, math.log2(NORMAL_FLOOR) - math.log2(level_max))
    rate = r_scale * float(weights @ np.maximum(log_levels - x, 0.0))
    return max(level_max * 2.0 ** -BRACKET_EXP, NORMAL_FLOOR), rate


def stacked_solve(rows, count: int, weights, rates, r_scale: float) -> np.ndarray:
    """Mean of ``count`` level rows' distortions at every target rate, shaped
    like ``rates``; the rows share ``weights`` (n,).

    ``rows(s)`` returns the (len, n) rows of a slice ``s`` of 0..count-1,
    asked for a block at a time (``row_blocks``), so no temporary grows with
    ``count``. Each row's distortion is its ``ScalarWaterfiller(row, weights,
    1.0, r_scale).solve_many(rates)`` bit for bit: a row is sorted stably and
    summed cumulatively in the same order, its levels at or below zero
    sorting last with weight zero, which leaves every sum over the positive
    ones unchanged; a row with no positive level gives 0. Each block is one
    table, built and solved in one call. The distortions are added in row
    order and the total is divided by ``count``. A count below 1, a
    non-finite level, or an invalid shape, rate or scale raises
    ``ValueError``; a rate beyond a row's edge raises the first such row's
    ``WaterLevelUnderflow``, naming its first such rate and that rate's flat
    position (``index``).
    """
    if count < 1:
        raise ValueError(f"need at least one level row, got count = {count!r}")
    weights = np.asarray(weights, dtype=float)
    rates = np.asarray(rates, dtype=float)
    flat = _checked_rates(rates)
    total = np.zeros(flat.size)
    for s in row_blocks(count if weights.size else 0, weights.size):
        levels = np.ascontiguousarray(rows(s), dtype=float)
        if levels.shape != (s.stop - s.start,) + weights.shape:
            raise ValueError(f"rows {s.start}..{s.stop - 1} have shape {levels.shape}, "
                             f"not (rows, n) for weights of shape {weights.shape}")
        _check_inputs(levels, weights, 1.0, r_scale)
        for dist in _BreakpointTable.build(levels, weights, float(r_scale)).solve(flat)[1]:
            total += dist
    return (total / count).reshape(rates.shape)


@dataclass(frozen=True, eq=False)
class _BreakpointTable:
    """The exact solve's sorted breakpoints of P level rows, n levels each;
    the (P, n) sums are kept flat, row after row.

    ``solve`` is its one entry point and refuses a rate past a row's edge
    before it solves. A row with no positive level has lowest water level 0,
    an infinite edge and zero sums, so it solves to theta = D = 0.
    """

    r_scale: float
    level_max: np.ndarray    # (P, 1) largest level of each row
    lo: np.ndarray           # (P, 1) lowest water level solved (``_edge``)
    rate_lo: np.ndarray      # (P,) rate at that level
    edge: np.ndarray         # (P, 1) largest rate solved; beyond it, WaterLevelUnderflow
    big_w: np.ndarray        # W_k at w_at[row] + k
    big_l: np.ndarray        # L_k at w_at[row] + k
    tail: np.ndarray         # tail_k at tail_at[row] + k
    breaks: np.ndarray       # (P, n) rate at theta = the k-th largest level
    w_at: np.ndarray         # (P, 1) row * n - 1
    tail_at: np.ndarray      # (P, 1) row * (n + 1)

    @classmethod
    def build(cls, levels: np.ndarray, weights: np.ndarray, r_scale: float) -> "_BreakpointTable":
        """Table of a C-contiguous (P, n) stack.

        Each (P, n) temporary is freed once it is used, and the products,
        cumulative sums and breakpoints are formed in the buffers they read,
        so beside its input the build holds at most four (P, n) arrays, the
        table's own four included.
        """
        p, n = levels.shape
        full = bool(levels.min(initial=1.0) > 0.0)
        kept = None if full else levels > 0.0
        level_max = levels.max(axis=1, initial=0.0)
        live = level_max > 0.0
        log_levels = levels / np.where(live, level_max, 1.0)[:, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            np.maximum(np.log2(log_levels, out=log_levels), LOG_FLOOR, out=log_levels)
        edges = [(0.0, 0.0)] * p
        for row, top in enumerate(level_max.tolist()):
            if top > 0.0:
                keep = slice(None) if full else kept[row]
                edges[row] = _edge(log_levels[row][keep], weights[keep], top, r_scale)
        # a level at or below zero sorts last (NaN) and is summed with weight
        # 0: the sums stop growing there, and its breakpoint repeats the last
        # one, so a rate past the last level still finds W and L of every
        # positive level
        order = np.argsort(-log_levels if full else np.where(kept, -log_levels, np.nan),
                           axis=1, kind="stable")
        w = weights[order]
        order += n * np.arange(p)[:, None]          # flat positions
        x = log_levels.ravel()[order]
        del log_levels
        lev = levels.ravel()[order]
        if not full:
            dropped = ~kept.ravel()[order]
            x[dropped], w[dropped], lev[dropped] = 0.0, 0.0, 0.0
        del order
        lev *= w
        tail = np.zeros((p, n + 1))
        np.cumsum(lev[:, ::-1], axis=1, out=tail[:, :n][:, ::-1])
        del lev
        big_w = np.cumsum(w, axis=1)
        w *= x
        big_l = np.cumsum(w, axis=1, out=w)
        breaks = x      # breaks[k] = r_scale (L_{k-1} - W_{k-1} x_k), written over x_k
        breaks[:, 1:] *= big_w[:, :-1]
        np.subtract(big_l[:, :-1], breaks[:, 1:], out=breaks[:, 1:])
        breaks[:, 1:] *= r_scale
        breaks[:, 0] = 0.0
        np.maximum.accumulate(breaks, axis=1, out=breaks)
        lo, rate_lo = np.array(edges).T
        edge = np.where(live, rate_lo * (1.0 + 1e-12), np.inf)
        rows = np.arange(p)[:, None]
        return cls(r_scale, level_max[:, None], lo[:, None], rate_lo, edge[:, None],
                   big_w.ravel(), big_l.ravel(), tail.ravel(), breaks, n * rows - 1,
                   (n + 1) * rows)

    def solve(self, rates: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(theta, sum of w min(level, theta)) of every row at every rate of
        a flat ``rates`` (``_checked_rates``), each (P, rates.size). A rate
        beyond a row's edge raises ``WaterLevelUnderflow`` first, at the first
        such row in row order, naming that row's first such rate and its
        ``index``."""
        over = rates > self.edge
        if over.any():
            row, at = divmod(int(np.argmax(over)), rates.size)   # first in row-major order
            raise WaterLevelUnderflow(
                f"target rate {rates[at]} exceeds resolvable maximum "
                f"{float(self.rate_lo[row])} (water level underflow below "
                f"{float(self.lo[row, 0])})", at)
        k = np.maximum([b.searchsorted(rates, side="left") for b in self.breaks], 1)  # top k code
        wk, lk = self.big_w[k + self.w_at], self.big_l[k + self.w_at]
        with np.errstate(divide="ignore", invalid="ignore"):
            xk = np.where(wk > 0.0, (lk - rates / self.r_scale) / wk, -np.inf)
        theta = np.where(rates == 0.0, self.level_max,
                         np.maximum(self.level_max * np.exp2(xk), self.lo))
        dist = np.where(rates == 0.0, self.tail[self.tail_at],
                        self.tail[k + self.tail_at] + theta * wk)
        return theta, dist


# ---------------------------------------------------------------------------
# eigenvalue fields
# ---------------------------------------------------------------------------

def _clip_eigenvalues(lam: np.ndarray) -> np.ndarray:
    """Eigenvalues (one matrix per row of the last axis) with round-off
    negatives set to zero.

    An eigenvalue that is not finite (an entry overflowed) or is below
    -CLIP_SCALE times the largest magnitude in its row raises, since it means
    the input was not a valid spectral or covariance matrix.
    """
    peak = np.abs(lam).max(axis=-1, keepdims=True, initial=0.0)   # NaN or inf with lam
    finite = np.isfinite(peak).ravel()
    if not finite.all():
        bad = int(np.argmin(finite))            # the first matrix with one
        raise NotPositiveSemidefinite(
            f"eigenvalue not finite at batch index {bad}; the matrix overflows", bad)
    scale = np.maximum(peak, 1e-300)
    if np.any(lam < -CLIP_SCALE * scale):
        worst = int(np.argmin(lam.min(axis=-1)))
        raise NotPositiveSemidefinite(
            f"eigenvalue {lam.min():.3e} below tolerance at batch index {worst} "
            f"(scale {scale.ravel()[worst]:.3e})", worst)
    return np.maximum(lam, 0.0)


def hermitian_eigenvalues(mats: np.ndarray) -> np.ndarray:
    """Ascending real eigenvalues of a stack of (near-)Hermitian matrices.

    The input is symmetrized as A^H / 2 + A / 2, halved before adding so that
    an entry overflows only where its mean does, and decomposed in real or
    complex arithmetic as it is real or complex. Small negative eigenvalues (within CLIP_SCALE
    times the matrix's largest magnitude) are clipped to zero; anything more
    negative raises NotPositiveSemidefinite.
    """
    mats = np.asarray(mats)
    herm = np.multiply(np.swapaxes(mats, -1, -2), 0.5)     # one buffer, A/2 added a block at a time
    np.conjugate(herm, out=herm)
    for rows in row_blocks(len(mats), math.prod(mats.shape[1:])):
        herm[rows] += 0.5 * mats[rows]
    try:
        lam = np.linalg.eigvalsh(herm)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            f"eigensolver failed on a batch of shape {herm.shape}; "
            f"max |entry| = {np.abs(herm).max():.3e}") from exc
    return _clip_eigenvalues(lam)


def _block_eigenvalues(mats: np.ndarray, blocks) -> np.ndarray:
    """Ascending eigenvalues of each matrix of a stack, decomposed by ``blocks``
    (``PsdPcMatrix.blocks``); a size-1 block needs no eigensolver. A
    ``NotPositiveSemidefinite`` names the matrix's position in the stack."""
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
        try:       # a 1 x 1 block's eigenvalue is its real entry, as eigvalsh returns it
            vals = (hermitian_eigenvalues(stack) if size > 1
                    else _clip_eigenvalues(stack.real[:, 0]))
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

        A slice holds at most ``SLICE_ENTRIES // matrix.node_entries`` nodes
        (side**2 when the matrix reports no count), so its assembly, which
        for a folded alias matrix makes several entries per alias and
        harmonic beside the matrix, stays within ``SLICE_ENTRIES`` entries.
        Each slice is assembled whole, as ``matrix(nodes)`` returns it. A
        matrix with ``blocks`` is then decomposed block by block: the blocks
        of one size are gathered from the slice into one stack and decomposed
        in one ``hermitian_eigenvalues`` call, and every index in no block
        gives an exact zero. The eigenvalues of a node are sorted ascending,
        as the whole matrix's would be.
        """
        step = max(1, SLICE_ENTRIES // (matrix.node_entries or matrix.dim ** 2))
        lam = np.empty((grid.size, matrix.dim))
        for start in range(0, grid.size, step):
            nodes = grid.nodes[start:start + step]
            where = (f"nodes {start}..{start + nodes.size - 1} of the phi grid on "
                     f"[{grid.lo}, {grid.hi}], {grid.size} nodes")
            try:
                lam[start:start + step] = _block_eigenvalues(matrix(nodes), matrix.blocks)
            except NotPositiveSemidefinite as exc:
                node = start + exc.index
                raise NotPositiveSemidefinite(
                    f"node {node} at phi = {grid.nodes[node]:.17g}: {exc} in {where}",
                    node) from exc
            except np.linalg.LinAlgError as exc:
                raise np.linalg.LinAlgError(f"{exc} ({where})") from exc
        if d_scale is None:
            d_scale = 1.0 / matrix.dim
        return cls(grid, lam, d_scale)

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

    The density is even (``StationaryPsd``), so it is taken on ``half_grid``
    on [-f_max, f_max]: the nodes f >= 0 of the mirror-symmetric grid with
    mirrored weights added, half the levels of the whole grid and the same
    integrals up to rounding.
    """
    if not math.isfinite(psd.support_radius):
        raise TruncationError("stationary waterfilling needs a finite support radius")
    r = psd.support_radius
    grid = half_grid(r, n_grid, psd.breakpoints)
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
