from math import ceil
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from csdrf.polyphase import (TWO_PI, component_spectra, folded_alias_matrix,
                             psd_pc_matrix_continuous, psd_pc_matrix_discrete)
from csdrf.quadrature import Grid, phi_grid
from csdrf.spectra import (CyclicSpectrum, TruncationError, am_cpsd, flat_psd,
                           modulated_ma, pam_cpsd, raised_cosine_psd,
                           raised_cosine_pulse, rect_pulse, stationary_cyclic,
                           triangle_pulse, triangular_psd, white_cs)
from csdrf.waterfilling import EigenField, hermitian_eigenvalues
from test_oracle import _time_varying_ma


def test_single_slot_matrix_is_the_spectrum_itself():
    # X = 1.3 Y, Y[n] = W[n] + 0.5 W[n-1]: S(phi) = 1.69 |1 + 0.5 e^{-2 pi i phi}|^2
    proc = modulated_ma([1.3], [1.0, 0.5])
    mat = psd_pc_matrix_discrete(proc)
    phi = np.linspace(-0.5, 0.5, 17)
    vals = mat(phi)
    assert vals.shape == (17, 1, 1)
    np.testing.assert_allclose(vals[:, 0, 0], 1.69 * (1.25 + np.cos(TWO_PI * phi)), atol=1e-14)


def test_white_noise_diagonalizes_exactly():
    proc = white_cs([2.0, 2.0, 2.0])
    vals = psd_pc_matrix_discrete(proc)(np.linspace(-0.5, 0.5, 9))
    expect = 2.0 * np.eye(3)
    for v in vals:
        np.testing.assert_allclose(v, expect, atol=1e-14)


def test_alternating_variances_give_diagonal_matrix():
    proc = white_cs([1.0, 4.0])
    vals = psd_pc_matrix_discrete(proc)(np.array([0.11, -0.37]))
    for v in vals:
        np.testing.assert_allclose(v, np.diag([1.0, 4.0]), atol=1e-14)


def test_discrete_matrix_hermitian_psd_at_random_phis():
    proc = modulated_ma([1.0, 0.5, 1.4], [1.0, 0.4, -0.2])
    mat = psd_pc_matrix_discrete(proc)
    rng = np.random.default_rng(29)
    phi = rng.uniform(-0.5, 0.5, 128)
    vals = mat(phi)
    np.testing.assert_allclose(vals, np.conj(np.swapaxes(vals, 1, 2)), atol=1e-12)
    lam = hermitian_eigenvalues(vals)
    trace = np.einsum("pmm->p", vals).real
    assert np.all(lam.min(axis=1) >= -1e-9 * trace)


def test_discrete_trace_identity():
    # integral of the trace over the circle equals the summed slot variances
    proc = modulated_ma([1.0, 0.5, 1.4], [1.0, 0.4, -0.2])
    mat = psd_pc_matrix_discrete(proc)
    grid = phi_grid(1024)
    trace = np.einsum("pmm->p", mat(grid.nodes)).real
    total = grid.weights @ trace
    expect = sum(proc.cov(n, 0) for n in range(3))
    assert total == pytest.approx(expect, rel=1e-6)


def test_stationary_continuous_m1_is_folded_density():
    base = triangular_psd(1.0, 1.0)
    period = 0.4
    spec = stationary_cyclic(base, period)
    mat = psd_pc_matrix_continuous(spec, 1)
    phi = np.linspace(-0.5, 0.5, 33)
    vals = mat(phi)[:, 0, 0].real
    expect = np.zeros_like(phi)
    for k in range(-3, 4):
        expect += base((phi - k) / period)
    np.testing.assert_allclose(vals, expect / period, atol=1e-13)


def test_am_rank_one_identity_above_twice_bandwidth():
    base = flat_psd(1.0, 1.0)
    spec = am_cpsd(base, 4.0)
    for m in (4, 7, 8):
        mat = psd_pc_matrix_continuous(spec, m)
        phi = np.array([-0.31, 0.05, 0.2])
        lam = hermitian_eigenvalues(mat(phi))
        np.testing.assert_allclose(lam[:, -1], m * 4.0 * base(4.0 * phi), rtol=1e-12)
        assert np.all(lam[:, :-1] <= 1e-12 * lam[:, -1:])


def test_pam_rank_one_both_routes_agree():
    base = triangular_psd(1.0, 1.0)
    spec = pam_cpsd(base, raised_cosine_pulse(0.8, 0.3), 0.8)
    generic = CyclicSpectrum(spec.period, spec._cpsd_impl, spec.active_indices,
                             spec.freq_radius, spec.avg_power, spec.breakpoints)
    phi = np.linspace(-0.45, 0.45, 21)
    a = psd_pc_matrix_continuous(spec, 4)(phi)
    b = psd_pc_matrix_continuous(generic, 4)(phi)
    np.testing.assert_allclose(a, b, atol=1e-13 * np.abs(a).max())


def test_pam_matrix_is_rank_one_at_random_phis():
    spec = pam_cpsd(triangular_psd(1.0, 1.0), raised_cosine_pulse(0.8, 0.3), 0.8)
    rng = np.random.default_rng(17)
    phi = rng.uniform(-0.5, 0.5, 128)
    lam = hermitian_eigenvalues(psd_pc_matrix_continuous(spec, 6)(phi))
    top = lam[:, -1]
    mask = top > 1e-12 * top.max()
    assert np.all(lam[mask, -2] / top[mask] <= 1e-10)


def _double_sum_matrix(spec, dim, phi):
    """Reference: (1/T0) sum_k sum_n cpsd(n, (phi - k)/T0)
    e^{2 pi i (n r + (m - r)(phi - k)) / dim}, one rank-one term per
    (alias, harmonic) pair."""
    t0 = spec.period
    kmax = ceil(0.5 + t0 * spec.freq_radius) + 1
    idx = np.arange(dim)
    out = np.zeros((phi.size, dim, dim), dtype=complex)
    for k in range(-kmax, kmax + 1):
        a = np.exp(TWO_PI * 1j * np.multiply.outer((phi - k) / dim, idx))
        for n in spec.active_indices:
            s = spec.cpsd(n, (phi - k) / t0)
            w = a.conj() * (s[:, None] * np.exp(TWO_PI * 1j * n * idx / dim)[None, :])
            out += np.einsum("pm,pr->pmr", a, w)
    return out / t0


def _assert_matches_double_sum(spec, dim, phi):
    got = psd_pc_matrix_continuous(spec, dim)(phi)
    ref = _double_sum_matrix(spec, dim, phi)
    np.testing.assert_allclose(got, ref, rtol=0, atol=1e-13 * np.abs(ref).max())


@pytest.mark.parametrize("center", [0.11, 0.2, 0.45, 1.4, 2.5])
def test_factored_am_matrix_matches_double_sum(center):
    # one carrier in each refinement stratum (f0/f_B near 0.11, 0.2, 0.45,
    # 1.4) and one above the narrowband threshold
    rng = np.random.default_rng(int(100 * center))
    bandwidth = rng.uniform(0.5, 2.0)
    spec = am_cpsd(triangular_psd(bandwidth, rng.uniform(0.5, 2.0)),
                   bandwidth * center * rng.uniform(0.97, 1.03), rng.uniform(0.0, np.pi))
    phi = rng.uniform(-0.5, 0.5, 48)
    for dim in (1, 3, 8, 64):
        _assert_matches_double_sum(spec, dim, phi)


def test_factored_stationary_and_shifted_harmonic_matrices_match_double_sum():
    phi = np.random.default_rng(3).uniform(-0.5, 0.5, 40)
    base = triangular_psd(1.0, 1.0)
    t0, shift = 0.7, 3 / 0.7

    def cpsd(n, f):
        # the Hermitian partner of harmonic 3 lies on the band shifted to -3/T0
        if n == -3:
            return np.conj(cpsd(3, f + shift))
        return (1.0 + 0.25 * n) * np.exp(0.4j * n) * base(f)

    # harmonics (-3, 0, 3): the column aliases reach k - 3 and k + 3
    shifted = CyclicSpectrum(t0, cpsd, (-3, 0, 3), base.support_radius + shift, 1.0,
                             base.breakpoints + tuple(b - shift for b in base.breakpoints))
    for spec in (stationary_cyclic(base, 0.4), shifted):
        for dim in (1, 3, 8):
            _assert_matches_double_sum(spec, dim, phi)


def test_staircase_matrix_works_through_factor_route():
    # the rectangular pulse has unbounded harmonics; the factorized route
    # still produces the matrix, while a generic spectrum must refuse
    base = flat_psd(1.0, 1.0)
    spec = pam_cpsd(base, rect_pulse(1.0), 1.0)
    mat = psd_pc_matrix_continuous(spec, 4)
    phi = np.array([0.2])
    vals = mat(phi)[0]
    fold = spec.sampled_base_psd(np.array([0.2]))[0]
    np.testing.assert_allclose(vals, fold * np.ones((4, 4)), atol=1e-12)

    generic = CyclicSpectrum(1.0, lambda n, f: np.zeros_like(f, dtype=complex),
                             None, np.inf, 1.0)
    with pytest.raises(TruncationError, match="psd_pc_matrix_continuous"):
        psd_pc_matrix_continuous(generic, 4)


def test_continuous_trace_tracks_average_power():
    spec = am_cpsd(triangular_psd(1.0, 1.0), 1.2, 0.4)
    grid = phi_grid(2048, spec.phi_breakpoints())
    for m in (4, 8):
        mat = psd_pc_matrix_continuous(spec, m)
        trace = np.einsum("pmm->p", mat(grid.nodes)).real
        # (1/M) integral of the trace approximates the average power; the
        # phase average converges as the intra-period resolution grows
        avg = grid.weights @ trace / m
        assert avg == pytest.approx(spec.avg_power, rel=2e-2)


def test_eigenvalue_sum_matches_trace():
    spec = am_cpsd(triangular_psd(1.0, 1.0), 1.2, 0.4)
    mat = psd_pc_matrix_continuous(spec, 6)
    rng = np.random.default_rng(8)
    phi = rng.uniform(-0.5, 0.5, 64)
    vals = mat(phi)
    lam = hermitian_eigenvalues(vals)
    trace = np.einsum("pmm->p", vals).real
    np.testing.assert_allclose(lam.sum(axis=1), trace, rtol=1e-9)
    assert np.all(np.diff(lam, axis=1) >= 0)       # ascending
    assert np.all(lam >= 0)


def test_component_psd_is_matrix_diagonal():
    proc = modulated_ma([1.0, 0.5, 1.4], [1.0, 0.4])
    mat = psd_pc_matrix_discrete(proc)
    phi = np.linspace(-0.5, 0.5, 11)
    vals = mat(phi)
    np.testing.assert_allclose(component_spectra(proc, phi),
                               np.diagonal(vals, axis1=1, axis2=2).real, atol=1e-13)


# ---------------------------------------------------------------------------
# the block-Toeplitz symbol against the slot-spectrum fold
# ---------------------------------------------------------------------------

def _slot_spectrum_fold(proc, phi):
    """Reference: entry (m, r) is (1/M) sum_{n<M} S_r((phi - n)/M)
    e^{2 pi i (m - r)(phi - n)/M}, with the slot-r spectrum
    S_r(x) = sum_k R[r, k] e^{-2 pi i k x}; the sum over n folds it onto the
    decimated circle, and its off-class terms cancel only up to rounding."""
    table, m_dim = proc.cov_table, proc.period
    lags = np.arange(-proc.memory, proc.memory + 1)
    idx = np.arange(m_dim)
    out = np.zeros((phi.size, m_dim, m_dim), dtype=complex)
    for n in range(m_dim):
        x = (phi - n) / m_dim
        a = np.exp(TWO_PI * 1j * np.multiply.outer(x, idx))   # a[p, m]
        for r in range(m_dim):
            s = table[r] @ np.exp(-TWO_PI * 1j * np.multiply.outer(lags, x))
            out[:, :, r] += (s * a[:, r].conj())[:, None] * a
    return out / m_dim


_coef = st.floats(-2.0, 2.0).map(lambda x: 0.0 if abs(x) < 0.1 else x)
_tables = st.integers(1, 64).flatmap(lambda m: st.one_of(
    st.lists(_coef.map(abs), min_size=m, max_size=m).map(white_cs),
    st.builds(modulated_ma, st.lists(_coef, min_size=m, max_size=m),
              st.lists(_coef, min_size=1, max_size=4)),
    st.integers(1, 3).flatmap(lambda w: st.lists(_coef, min_size=m * w, max_size=m * w).map(
        lambda v: _time_varying_ma(np.reshape(v, (m, w))))),
))


@settings(max_examples=40, deadline=None)
@given(proc=_tables, phi=st.lists(st.floats(-0.5, 0.5), min_size=1, max_size=4))
def test_symbol_matches_the_slot_spectrum_fold(proc, phi):
    phi = np.array(phi)
    got = psd_pc_matrix_discrete(proc)(phi)
    ref = _slot_spectrum_fold(proc, phi)
    scale = max(np.abs(ref).max(), 1e-300)
    assert np.abs(got - ref).max() <= 1e-12 * scale
    # no block lag reaches entry (m, r) when m - r is more than L from every multiple of M
    m_dim = proc.period
    d = np.subtract.outer(np.arange(m_dim), np.arange(m_dim)) % m_dim
    zero = np.minimum(d, m_dim - d) > proc.memory
    assert np.all(got[:, zero] == 0.0)


@settings(max_examples=30, deadline=None)
@given(variances=st.lists(_coef.map(abs), min_size=1, max_size=64), n=st.integers(1, 40))
def test_memoryless_field_calls_no_eigensolver(variances, n):
    proc = white_cs(variances)
    matrix = psd_pc_matrix_discrete(proc)
    assert [b.tolist() for b in matrix.blocks] == [[i] for i in range(proc.period)]
    grid = phi_grid(n)
    with mock.patch.object(np.linalg, "eigvalsh", wraps=np.linalg.eigvalsh) as eigvalsh:
        field = EigenField.from_matrix(matrix, grid)
    assert eigvalsh.call_count == 0
    # what the eigensolver returns for the whole diagonal matrix, bit for bit
    assert field.lam.tobytes() == hermitian_eigenvalues(matrix(grid.nodes)).tobytes()


# ---------------------------------------------------------------------------
# the residue-folded alias matrix
# ---------------------------------------------------------------------------

FAMILIES = {"flat": flat_psd, "triangular": triangular_psd, "raised_cosine": raised_cosine_psd}


def _alias_count(spec):
    """Row aliases k = -kmax..kmax of the truncated alias series."""
    return 2 * (ceil(0.5 + spec.period * spec.freq_radius) + 1) + 1


def _magnitude(spec):
    """The same alias series with every ``cpsd`` value replaced by its modulus."""
    return CyclicSpectrum(spec.period, lambda n, f: np.abs(spec.cpsd(n, f)),
                          spec.active_indices, spec.freq_radius, spec.avg_power)


def _assert_folded_field_is_the_nonzero_spectrum(spec, dim, phi):
    ref = _double_sum_matrix(spec, dim, phi)
    full = np.linalg.eigvalsh(ref)    # ungated: a reference that cancels to round-off
    folded = hermitian_eigenvalues(folded_alias_matrix(spec, dim)(phi))
    side = min(dim, _alias_count(spec))
    assert folded.shape == (phi.size, side)
    # round-off scales with the summands, not with the entries or eigenvalues
    # they cancel to. The |cpsd| fold bounds both: an entry of the double sum
    # has 1/dim of its total in absolute terms, an eigenvalue its largest row sum
    magnitude = folded_alias_matrix(_magnitude(spec), dim)(phi)
    terms = magnitude.sum(axis=(-2, -1)).max() / dim
    # the full matrix is the folded one in a DFT basis: entry by entry the double sum
    np.testing.assert_allclose(psd_pc_matrix_continuous(spec, dim)(phi), ref, rtol=0,
                               atol=1e-13 * terms)
    scale = 1e-13 * magnitude.sum(axis=-1).max()
    np.testing.assert_allclose(folded, full[:, dim - side:], rtol=0, atol=scale)
    assert np.all(full[:, :dim - side] <= scale)      # the rest is round-off


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["am", "stationary"]),
       family=st.sampled_from(sorted(FAMILIES)), bandwidth=st.floats(0.25, 4.0),
       power=st.floats(0.1, 10.0), carrier=st.floats(0.05, 2.0),
       phase=st.floats(0.0, 2.0 * np.pi), dim=st.integers(1, 64),
       seed=st.integers(0, 2 ** 16))
@example(kind="am", family="triangular", bandwidth=1.0, power=1.0, carrier=0.1,
         phase=0.3, dim=8, seed=0)                      # 27 aliases on 8 residues
@example(kind="am", family="flat", bandwidth=1.0, power=1.0, carrier=1.2,
         phase=0.0, dim=5, seed=1)                      # 9 aliases on 5 residues
@example(kind="am", family="flat", bandwidth=1.25, power=1.0, carrier=1.0,
         phase=1.5625, dim=1, seed=0)                   # harmonics +-2 cancel harmonic 0
def test_folded_field_is_the_nonzero_spectrum_of_the_full_matrix(
        kind, family, bandwidth, power, carrier, phase, dim, seed):
    # AM carriers up to the narrowband threshold 2 f_B, and stationary sources
    # with periods 0.25/f_B to 10/f_B; dim runs below the alias count as well,
    # where aliases share a residue
    base = FAMILIES[family](bandwidth, power)
    if kind == "am":
        spec = am_cpsd(base, carrier * bandwidth, phase)
    else:
        spec = stationary_cyclic(base, 0.5 / (carrier * bandwidth))
    phi = np.random.default_rng(seed).uniform(-0.5, 0.5, 16)
    _assert_folded_field_is_the_nonzero_spectrum(spec, dim, phi)


@pytest.mark.parametrize("pulse", [rect_pulse, triangle_pulse,
                                   lambda t0: raised_cosine_pulse(t0, 0.3)])
@pytest.mark.parametrize("dim", [4, 16, 64])
def test_pam_rank_one_level_is_the_top_eigenvalue(pulse, dim):
    spec = pam_cpsd(triangular_psd(1.0, 1.0), pulse(0.8), 0.8)
    phi = np.random.default_rng(dim).uniform(-0.5, 0.5, 64)
    level = folded_alias_matrix(spec, dim)(phi)
    assert level.shape == (64, 1, 1)
    top = hermitian_eigenvalues(psd_pc_matrix_continuous(spec, dim)(phi))[:, -1]
    np.testing.assert_allclose(level[:, 0, 0].real, top, rtol=0, atol=1e-14 * top.max())


@pytest.mark.parametrize("build", [psd_pc_matrix_continuous, folded_alias_matrix])
@pytest.mark.parametrize("dim", [2.5, 4.0, np.float64(8.0), "4", True, 0, -3])
def test_dim_must_be_a_positive_integer(build, dim):
    spec = am_cpsd(triangular_psd(1.0, 1.0), 1.2)
    with pytest.raises(ValueError, match="dim must be a positive integer"):
        build(spec, dim)


def test_folded_matrix_refuses_a_series_that_does_not_truncate():
    generic = CyclicSpectrum(1.0, lambda n, f: np.zeros_like(f, dtype=complex),
                             None, np.inf, 1.0)
    with pytest.raises(TruncationError, match="folded_alias_matrix"):
        folded_alias_matrix(generic, 4)


def test_spectrum_without_harmonics_gives_zero_matrices():
    zero = CyclicSpectrum(1.0, lambda n, f: np.zeros_like(f, dtype=complex), (), 1.0, 0.0)
    phi = np.array([0.1, -0.3])
    assert not np.any(psd_pc_matrix_continuous(zero, 4)(phi))
    folded = folded_alias_matrix(zero, 4)(phi)
    assert folded.shape == (2, 4, 4) and not np.any(folded)


def test_folded_matrix_accepts_numpy_integers():
    spec = am_cpsd(triangular_psd(1.0, 1.0), 1.2)
    phi = np.array([0.1, -0.3])
    np.testing.assert_array_equal(folded_alias_matrix(spec, np.int64(8))(phi),
                                  folded_alias_matrix(spec, 8)(phi))


# ---------------------------------------------------------------------------
# live parity blocks
# ---------------------------------------------------------------------------

def _coupled_residues(spec, dim):
    """Residue sets of the connected live aliases, the reference for ``blocks``.

    An alias k is live when |k| - 1/2 < T0 f_rad. Two live aliases are joined
    when an active harmonic couples them (k' - k = n) or when they share a
    residue (k' - k a multiple of dim); each connected set is reported as the
    residues (k + kmax) mod dim of its aliases.
    """
    kmax = ceil(0.5 + spec.period * spec.freq_radius) + 1
    live = [k for k in range(-kmax, kmax + 1)
            if abs(k) - 0.5 < spec.period * spec.freq_radius]
    parent = {k: k for k in live}

    def root(k):
        while parent[k] != k:
            k = parent[k]
        return k

    for a in live:
        for b in live:
            if b - a in spec.active_indices or (b - a) % dim == 0:
                parent[root(a)] = root(b)
    sets = {}
    for k in live:
        sets.setdefault(root(k), set()).add((k + kmax) % dim)
    return sorted(sorted(s) for s in sets.values())


@settings(max_examples=80, deadline=None)
@given(family=st.sampled_from(sorted(FAMILIES)), bandwidth=st.floats(0.25, 4.0),
       power=st.floats(0.1, 10.0), carrier=st.floats(0.05, 3.0),
       phase=st.floats(0.0, 2.0 * np.pi), dim=st.integers(1, 64),
       seed=st.integers(0, 2 ** 16))
@example(family="triangular", bandwidth=1.0, power=1.0, carrier=0.1, phase=0.0,
         dim=32, seed=0)                 # 23 live of 27 aliases, unfolded: blocks 12 and 11
@example(family="triangular", bandwidth=1.0, power=1.0, carrier=1.2, phase=0.0,
         dim=7, seed=0)                  # fig6 at an odd dim above its 5 live aliases
@example(family="flat", bandwidth=1.0, power=1.0, carrier=0.3, phase=0.7,
         dim=5, seed=1)                  # an odd dim below the live count: one block
@example(family="flat", bandwidth=1.0, power=1.0, carrier=3.0, phase=0.0,
         dim=64, seed=2)                 # alias 0 is live but zero: its block stays
def test_block_field_is_the_spectrum_of_the_full_folded_matrix(
        family, bandwidth, power, carrier, phase, dim, seed):
    spec = am_cpsd(FAMILIES[family](bandwidth, power), carrier * bandwidth, phase)
    matrix = folded_alias_matrix(spec, dim)
    side = matrix.dim
    blocks = matrix.blocks if matrix.blocks is not None else (np.arange(side),)
    # the blocks are the connected live aliases: a merged or a dropped class fails here
    assert sorted(b.tolist() for b in blocks) == _coupled_residues(spec, dim)
    phi = np.random.default_rng(seed).uniform(-0.5, 0.5, 16)
    mats = matrix(phi)
    inside = np.zeros((side, side), dtype=bool)
    for b in blocks:
        inside[np.ix_(b, b)] = True
    assert not np.any(mats[:, ~inside])            # every nonzero entry is in a block
    field = EigenField.from_matrix(matrix, Grid(phi, np.ones(phi.size), -0.5, 0.5))
    full = hermitian_eigenvalues(mats)
    assert field.lam.shape == full.shape == (phi.size, side)
    assert np.all(np.diff(field.lam, axis=1) >= 0.0)
    tol = 4 * side * np.finfo(float).eps * full.max(axis=1, keepdims=True)
    assert np.all(np.abs(field.lam - full) <= tol)
    dead = side - sum(b.size for b in blocks)
    assert np.all(field.lam[:, :dead] == 0.0)      # dead residues are exact zeros
