"""Command-line front end: scenario configs in, CSV curve data out.

Scenarios are flat INI files (sections [source], [rates], [methods],
[numerics], [output]) naming a built-in spectral family and its parameters.
Output is deterministic: fixed grids, fixed-order reductions, 17 significant
digits, newline-terminated rows, no timestamps. Every subcommand reads one
table, ``SOURCES``, for the sources of a kind and the methods they offer.
"""

from __future__ import annotations

import argparse
import configparser
import math
import sys
from dataclasses import dataclass, field
from functools import cache, partial
from typing import Callable

import numpy as np

from . import drf as drf_mod
from . import oracle as oracle_mod
from .polyphase import psd_pc_matrix_continuous, psd_pc_matrix_discrete
from .quadrature import segmented_midpoint
from .spectra import (AliasCountError, DiscreteCsProcess, PamCyclicSpectrum,
                      PulseShape, StationaryPsd, am_cpsd, am_gaussian_psd, flat_psd,
                      ideal_interp_pulse, modulated_ma, pam_cpsd,
                      raised_cosine_psd, raised_cosine_pulse, rect_pulse,
                      stationary_cyclic, triangle_pulse, triangular_psd,
                      white_cs)
from .waterfilling import (DECOMPOSITION_ERRORS, WaterLevelUnderflow,
                           hermitian_eigenvalues, stationary_waterfiller)

CSV_HEADER = "rate_bits,distortion,theta,method,M,converged"


class ConfigError(Exception):
    pass


class NumericFailure(RuntimeError):
    """A spectral or kernel decomposition failed while a curve was built or
    evaluated, or while ``spectra`` ran; the message names the method."""


@dataclass
class Scenario:
    kind: str
    family: str = "flat"
    bandwidth: float = 1.0
    power: float = 1.0
    f0: float = 4.0
    phase: float = 0.0
    pulse: str = "rect"
    pulse_beta: float = 0.25
    symbol_rates: tuple = (1.0,)
    normalize_power: bool = False
    include_baseband: bool = False
    sampling_rate: float = 1.0
    variances: tuple = (1.0, 4.0)
    mod_scales: tuple = ()
    ma_taps: tuple = (1.0,)
    methods: tuple = ("drf",)
    rates: np.ndarray = field(default_factory=lambda: np.array([1.0]))
    out_path: str = "out.csv"
    # numeric overrides
    phi_grid: int = 2048
    m_start: int = 4
    m_max: int = 64
    convergence_tol: float = 1e-4
    oracle_n: int = 256
    oracle_periods: int = 8
    t_grid: int = 64
    oracle_tol: float = 1e-3
    spectra_m: int = 8
    spectra_points: int = 512


# [numerics] key -> (type, least allowed value)
NUMERICS = {"phi_grid": (int, 1), "m_start": (int, 1), "m_max": (int, 1), "oracle_n": (int, 2),
            "oracle_periods": (int, 1), "t_grid": (int, 1), "spectra_m": (int, 1),
            "spectra_points": (int, 1), "convergence_tol": (float, 0.0), "oracle_tol": (float, 0.0)}


def _get(cp, section, key, cast, default=None, required=False):
    if not cp.has_option(section, key):
        if required:
            raise ConfigError(f"missing required key '{key}' in section [{section}]")
        return default
    try:
        raw = cp.get(section, key)
    except configparser.Error as exc:          # e.g. a '%' the interpolation rejects
        raise ConfigError(f"bad value for [{section}] {key}: {exc}") from exc
    try:
        return cast(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad value for [{section}] {key}: {raw!r} ({exc})") from exc


def _floats(raw):
    return tuple(float(x) for x in raw.replace(",", " ").split())


def _bool(raw):
    low = raw.strip().lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


# [source] number key -> (parser, range of every value); every value must also
# be finite, and a list must hold at least one (an empty mod_scales selects white_cs)
SOURCE_NUMBERS = {"bandwidth": (float, "positive"), "power": (float, "nonnegative"),
                  "f0": (float, "positive"), "phase": (float, "any"),
                  "pulse_beta": (float, "in (0, 1]"), "symbol_rates": (_floats, "positive"),
                  "sampling_rate": (float, "positive"), "variances": (_floats, "nonnegative"),
                  "mod_scales": (_floats, "any"), "ma_taps": (_floats, "any")}
IN_RANGE = {"positive": lambda x: x > 0.0, "nonnegative": lambda x: x >= 0.0,
            "in (0, 1]": lambda x: 0.0 < x <= 1.0, "any": lambda x: True}


def _check_source(key, value, bound):
    values = value if isinstance(value, tuple) else (value,)
    if not (values or key == "mod_scales") or \
            not all(math.isfinite(x) and IN_RANGE[bound](x) for x in values):
        what = "finite" if bound == "any" else f"finite and {bound}"
        many = " (at least one value)" if isinstance(value, tuple) else ""
        raise ConfigError(f"[source] {key} must be {what}{many}, got {value!r}")


def load_scenario(path: str) -> Scenario:
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        read = cp.read(path)
    except configparser.Error as exc:          # e.g. a duplicated key, named in the message
        raise ConfigError(str(exc)) from exc
    if not read:
        raise ConfigError(f"cannot read config file: {path}")
    if not cp.has_section("source"):
        raise ConfigError("missing required section [source]")
    kind = _get(cp, "source", "kind", str, required=True).strip()
    if kind not in SOURCES:
        raise ConfigError(f"unknown source kind {kind!r} for key 'kind'; "
                          f"expected one of {tuple(SOURCES)}")
    sc = Scenario(kind=kind)
    sc.family = _get(cp, "source", "family", str, sc.family).strip()
    sc.pulse = _get(cp, "source", "pulse", str, sc.pulse).strip()
    sc.normalize_power = _get(cp, "source", "normalize_power", _bool, sc.normalize_power)
    sc.include_baseband = _get(cp, "source", "include_baseband", _bool, sc.include_baseband)
    for key, (cast, bound) in SOURCE_NUMBERS.items():
        value = _get(cp, "source", key, cast, getattr(sc, key))
        _check_source(key, value, bound)
        setattr(sc, key, value)
    if cp.has_option("source", "symbol_rate") and not cp.has_option("source", "symbol_rates"):
        single = _get(cp, "source", "symbol_rate", float)
        _check_source("symbol_rate", single, "positive")
        sc.symbol_rates = (single,)

    if cp.has_section("rates"):
        rmin = _get(cp, "rates", "min", float, 0.1)
        rmax = _get(cp, "rates", "max", float, 8.0)
        count = _get(cp, "rates", "count", int, 6)
        spacing = _get(cp, "rates", "spacing", str, "log").strip()
        if count < 1:
            raise ConfigError("[rates] count must be at least 1")
        for key, value in (("min", rmin), ("max", rmax)):
            if not (math.isfinite(value) and value >= 0):
                raise ConfigError(f"[rates] {key} must be finite and nonnegative, got {value!r}")
            if spacing == "log" and value <= 0:
                raise ConfigError(f"[rates] spacing=log requires {key} > 0")
        if spacing == "log":
            sc.rates = np.geomspace(rmin, rmax, count)
        elif spacing == "linear":
            sc.rates = np.linspace(rmin, rmax, count)
        else:
            raise ConfigError(f"[rates] spacing must be 'log' or 'linear', got {spacing!r}")

    if cp.has_section("methods"):
        sc.methods = tuple(_get(cp, "methods", "methods", str, "drf").split())
    for key, (cast, least) in NUMERICS.items():
        value = _get(cp, "numerics", key, cast, getattr(sc, key))
        if not (math.isfinite(value) and value >= least):
            raise ConfigError(f"[numerics] {key} must be finite and at least {least}, "
                              f"got {value!r}")
        setattr(sc, key, value)
    if sc.m_max < sc.m_start:
        raise ConfigError(f"[numerics] m_max must be at least m_start = {sc.m_start}, "
                          f"got {sc.m_max}")
    sc.out_path = _get(cp, "output", "path", str, sc.out_path)
    return sc


# ---------------------------------------------------------------------------
# model construction
# ---------------------------------------------------------------------------

def make_base(sc: Scenario) -> StationaryPsd:
    families = {"flat": flat_psd, "triangular": triangular_psd,
                "raised_cosine": raised_cosine_psd}
    if sc.family not in families:
        raise ConfigError(f"unknown spectral family {sc.family!r} for key 'family'")
    return families[sc.family](sc.bandwidth, sc.power)


def make_pulse(sc: Scenario, t_symbol: float) -> PulseShape:
    pulses = {"rect": rect_pulse, "triangle": triangle_pulse, "ideal": ideal_interp_pulse,
              "raised_cosine": partial(raised_cosine_pulse, beta=sc.pulse_beta)}
    if sc.pulse not in pulses:
        raise ConfigError(f"unknown pulse {sc.pulse!r} for key 'pulse'")
    return pulses[sc.pulse](t_symbol)


def make_discrete(sc: Scenario) -> DiscreteCsProcess:
    keys = "mod_scales and ma_taps" if sc.mod_scales else "variances"
    try:
        if sc.mod_scales:
            return modulated_ma(sc.mod_scales, sc.ma_taps)
        return white_cs(sc.variances)
    except ValueError as exc:                  # e.g. a covariance that overflows
        raise ConfigError(f"[source] {keys}: {exc}") from exc


def _normalized_pam(sc: Scenario, base: StationaryPsd, fs: float) -> PamCyclicSpectrum:
    t0 = 1.0 / fs
    pulse = make_pulse(sc, t0)
    spec = pam_cpsd(base, pulse, t0)
    if sc.normalize_power and spec.avg_power > 0.0:
        gain = float(np.sqrt(base.total_power / spec.avg_power))
        spec = pam_cpsd(base, _scaled_pulse(pulse, gain), t0)
    return spec


def _scaled_pulse(pulse: PulseShape, gain: float) -> PulseShape:
    def fourier(f):
        return gain * pulse.fourier(f)

    time_fn = None
    if pulse.time_fn is not None:
        def time_fn(t):
            return gain * pulse.time_fn(t)

    return PulseShape(fourier, gain * gain * pulse.energy, pulse.support_radius,
                      time_fn, pulse.time_window, pulse.breakpoints,
                      f"{pulse.name}*{gain:.6g}")


# ---------------------------------------------------------------------------
# the source table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Source:
    """One source of a scenario: its spectral model and the curves it offers.

    ``curves`` maps a method name to its curve, ``curve(rates)``, run once
    per curve. It returns, for each configured rate in order, either
    (distortion, theta, M, converged) or the exception that ended that rate;
    ``_points`` raises a rate's exception when it reaches that rate, so the
    first failure in rate order wins. An exception that ``curve`` itself
    raises ends the whole curve (the bound's ``lower_bound: ...``). ``spec``
    is the model that ``verify`` takes sigma^2 from (a CyclicSpectrum, or
    the DiscreteCsProcess in discrete time), ``matrix`` builds the polyphase
    matrix that ``spectra`` dumps, and ``tag`` suffixes the method labels of
    a scenario with several sources.
    """

    spec: object
    curves: dict
    matrix: Callable | None = None
    tag: str = ""


def _solved(make_filler, m=0):
    """Curve of the scalar waterfiller ``make_filler()``, built once per curve
    and bisected at each rate; a rate beyond its bracket fails in its place."""
    def curve(rates):
        sw = make_filler()
        out = []
        for rate in rates.tolist():
            try:
                pt = sw.solve(rate)
            except WaterLevelUnderflow as exc:
                out.append(exc)
            else:
                out.append((pt.distortion, pt.theta, m, True))
        return out
    return curve


def _bound(distortions, m=0):
    """Lower-bound curve from ``distortions(rates)``; theta reads 0. A rate
    beyond the bracket of any profile ends the whole curve."""
    def curve(rates):
        try:
            values = distortions(rates)
        except WaterLevelUnderflow as exc:
            raise WaterLevelUnderflow(f"lower_bound: {exc}") from exc
        return [(d, 0.0, m, True) for d in values.tolist()]
    return curve


def _oracle(make_filler, m=0):
    """Oracle curve: the waterfiller ``make_filler()`` is built once per curve
    and solved exactly at every rate in one call. A rate beyond its bracket
    fails in its place, like the per-rate solve."""
    def at(sw, rate):
        try:
            theta, dist = sw.solve_many(rate)
        except WaterLevelUnderflow as exc:
            return exc
        return float(dist), float(theta), m, True

    def curve(rates):
        sw = make_filler()
        try:
            theta, dist = sw.solve_many(rates)
        except WaterLevelUnderflow:
            return [at(sw, rate) for rate in rates.tolist()]
        return [(d, t, m, True) for d, t in zip(dist.tolist(), theta.tolist())]
    return curve


def _stationary(sc, psd):
    return _solved(lambda: stationary_waterfiller(psd, sc.phi_grid))


def _lower_bound(sc, spec):
    return _bound(lambda rates: drf_mod.lower_bound_continuous(
        spec, rates, sc.t_grid, sc.phi_grid))


def _kernel_oracle(sc, spec):
    return _oracle(lambda: oracle_mod.kl_drf(oracle_mod.build_kernel(
        spec, sc.oracle_periods * spec.period, sc.oracle_n)))


def _refined(sc, spec):
    """M-doubling refinement of the whole curve, walked level by level."""
    def curve(rates):
        solver = drf_mod.ContinuousDrfSolver(spec, drf_mod.ContinuousDrfConfig(
            sc.m_start, sc.m_max, None, sc.convergence_tol, sc.phi_grid))
        return [res if isinstance(res, Exception) else
                (res.point.distortion, res.point.theta, res.iterates[-1][0], res.converged)
                for res in solver.solve_many(rates)]
    return curve


def _stationary_sources(sc):
    base = make_base(sc)
    spec = stationary_cyclic(base, 0.5 / base.support_radius)
    return [Source(spec, {"drf": _stationary(sc, base), "oracle": _kernel_oracle(sc, spec)},
                   lambda: psd_pc_matrix_continuous(spec, 1))]


def _discrete_sources(sc):
    proc = make_discrete(sc)
    m = proc.period

    def block_filler():
        return oracle_mod.kl_drf(oracle_mod.BlockCovariance.from_process(proc, sc.oracle_n))

    return [Source(proc, {
        "drf": _solved(lambda: drf_mod.discrete_waterfiller(proc, sc.phi_grid), m),
        "lower_bound": _bound(
            lambda rates: drf_mod.lower_bound_discrete(proc, rates, sc.phi_grid), m),
        "oracle": _oracle(block_filler, m),
    }, lambda: psd_pc_matrix_discrete(proc))]


def _am_sources(sc):
    base = make_base(sc)
    spec = am_cpsd(base, sc.f0, sc.phase)
    if sc.f0 > 2.0 * base.support_radius:
        drf = _stationary(sc, base)     # the carrier clears the band: exactly the baseband curve
    else:
        drf = _refined(sc, spec)
    return [Source(spec, {
        "drf": drf,
        "baseband": _stationary(sc, base),
        "upper_bound_gaussian_psd": _stationary(sc, am_gaussian_psd(base, sc.f0)),
        "lower_bound": _lower_bound(sc, spec),
        "oracle": _kernel_oracle(sc, spec),
    }, lambda: psd_pc_matrix_continuous(spec, sc.spectra_m))]


def _pam_source(sc, spec, tag):
    return Source(spec, {
        "drf": _solved(lambda: drf_mod.pam_waterfiller(spec, sc.phi_grid)),
        "lower_bound": _lower_bound(sc, spec),
        "oracle": _kernel_oracle(sc, spec),
    }, lambda: psd_pc_matrix_continuous(spec, sc.spectra_m), tag)


def _pam_sources(sc):
    """One source per symbol rate, then the baseband source they are compared with."""
    base = make_base(sc)
    multi = len(sc.symbol_rates) > 1
    sources = [_pam_source(sc, _normalized_pam(sc, base, fs), f":fs={fs:g}" if multi else "")
               for fs in sc.symbol_rates]
    return sources + [Source(None, {"baseband": _stationary(sc, base)})]


def _sampled_sources(sc):
    base = make_base(sc)
    fs = sc.sampling_rate

    def coded(rates):
        """The MMSE plus the PAM curve; theta is on the estimate's density, fs
        times the PAM level."""
        mmse, sw = drf_mod.sampled_coding(base, fs, sc.phi_grid)
        return [out if isinstance(out, Exception) else (mmse + out[0], fs * out[1], 0, True)
                for out in _solved(lambda: sw)(rates)]

    return [Source(None, {"drf": coded, "baseband": _stationary(sc, base)})]


# source kind -> the [source] key of its lattice rate, named with bandwidth
# when the model refuses their ratio (spectra.MAX_ALIASES)
RATE_KEYS = {"am": "f0", "pam": "symbol_rates", "sampled-coding": "sampling_rate"}

# source kind -> the scenario's sources. A (kind, method) pair is supported
# exactly when one of the sources offers the method; bound, verify and
# spectra use the first source.
SOURCES = {
    "stationary": _stationary_sources,
    "discrete-cs": _discrete_sources,
    "am": _am_sources,
    "pam": _pam_sources,
    "sampled-coding": _sampled_sources,
}


# ---------------------------------------------------------------------------
# row generation
# ---------------------------------------------------------------------------

def _row(rate, distortion, theta, method, m, converged):
    flag = "true" if converged else "false"
    return f"{rate:.17g},{distortion:.17g},{theta:.17g},{method},{m},{flag}"


def _points(sc, src, method, allow_nonconverged):
    """(rate, distortion, theta, M, converged) of the ``method`` curve of ``src``
    at every configured rate. A rate beyond the bracket raises, naming the
    method and rate; a failed decomposition raises, naming the method."""
    try:
        outs = src.curves[method](sc.rates)
    except DECOMPOSITION_ERRORS as exc:
        raise NumericFailure(f"{method}: {exc}") from exc
    for rate, out in zip(sc.rates, outs):
        if isinstance(out, WaterLevelUnderflow):
            raise WaterLevelUnderflow(f"{method} at rate {rate}: {out}") from out
        if isinstance(out, DECOMPOSITION_ERRORS):
            raise NumericFailure(f"{method}: {out}") from out
        d, theta, m, converged = out
        if not converged and not allow_nonconverged:
            raise drf_mod.NonConvergedError(
                f"{method} at rate {rate} did not converge by M={sc.m_max}")
        yield rate, d, theta, m, converged


def _unavailable(sc, command):
    return ConfigError(f"{command} is not available for source kind {sc.kind!r}")


def drf_rows(sc: Scenario, allow_nonconverged: bool):
    """Rows of the configured methods in order, one block per source offering each.

    ``include_baseband`` appends ``baseband``. An empty method list and a
    method no source offers are config errors. Raises on non-convergence
    unless allowed.
    """
    sources = SOURCES[sc.kind](sc)
    methods = sc.methods
    if sc.include_baseband and "baseband" not in methods:
        methods += ("baseband",)
    if not methods:
        raise ConfigError("[methods] methods lists no method")
    for method in methods:
        if not any(method in src.curves for src in sources):
            raise ConfigError(f"[methods] methods: method {method!r} is not available "
                              f"for {sc.kind}")
    rows = []
    for method in methods:
        for src in sources:
            if method in src.curves:
                rows += [_row(rate, d, theta, method + src.tag, m, ok)
                         for rate, d, theta, m, ok in
                         _points(sc, src, method, allow_nonconverged)]
    return rows


def bound_rows(sc: Scenario):
    """Per-component lower-bound rows of the first source."""
    src = SOURCES[sc.kind](sc)[0]
    if "lower_bound" not in src.curves:
        raise _unavailable(sc, "bound")
    return [_row(rate, d, theta, "lower_bound", m, ok)
            for rate, d, theta, m, ok in _points(sc, src, "lower_bound", False)]


def spectra_rows(sc: Scenario):
    """phi, f, ascending eigenvalues, trace, and the pulse profile when present."""
    src = SOURCES[sc.kind](sc)[0]
    if src.matrix is None:
        raise _unavailable(sc, "spectra")
    spec, matrix = src.spec, src.matrix()
    period = float(spec.period)
    grid = segmented_midpoint(-0.5, 0.5, sc.spectra_points, matrix.phi_breakpoints)
    vals = matrix(grid.nodes)
    try:
        lam = hermitian_eigenvalues(vals)
    except DECOMPOSITION_ERRORS as exc:
        raise NumericFailure(f"spectra: {exc}") from exc
    trace = np.einsum("pmm->p", vals).real
    is_pam = isinstance(spec, PamCyclicSpectrum)
    header = ["phi", "f"] + [f"lambda_{i + 1}" for i in range(matrix.dim)] + ["trace"]
    if is_pam:
        header.append("s_tilde")
        profile = spec.shaped_profile(grid.nodes / period)
    rows = [",".join(header)]
    for i, phi in enumerate(grid.nodes):
        cells = [f"{phi:.17g}", f"{phi / period:.17g}"]
        cells += [f"{x:.17g}" for x in lam[i]]
        cells.append(f"{trace[i]:.17g}")
        if is_pam:
            cells.append(f"{profile[i]:.17g}")
        rows.append(",".join(cells))
    return rows


def verify_lines(sc: Scenario, allow_nonconverged: bool):
    """The first source's ``drf`` curve against its ``oracle`` curve.

    Returns (report lines, max relative gap); raises on non-convergence
    unless allowed.
    """
    src = SOURCES[sc.kind](sc)[0]
    if not {"drf", "oracle"} <= src.curves.keys():
        raise _unavailable(sc, "verify")
    sigma2 = src.spec.avg_power
    lines = []
    gaps = []
    for (rate, fast, *_), (_, ref, *_) in zip(_points(sc, src, "drf", allow_nonconverged),
                                             _points(sc, src, "oracle", allow_nonconverged)):
        diff = abs(fast - ref)
        scale = max(ref, 1e-9 * sigma2)
        # a zero-power source gives fast == ref == 0: no gap, not 0/0
        rel = diff / scale if scale > 0.0 else (math.inf if diff else 0.0)
        gaps.append(rel)
        lines.append(f"rate={rate:.6g} fast={fast:.12g} oracle={ref:.12g} rel_gap={rel:.3e}")
    return lines, max(gaps)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _write_csv(path: str, lines):
    with open(path, "w", newline="") as fh:
        for line in lines:
            fh.write(line + "\n")


def build_parser() -> argparse.ArgumentParser:
    """A new argument parser for the ``csdrf`` command line."""
    parser = argparse.ArgumentParser(
        prog="csdrf",
        description="Distortion-rate curves of cyclostationary Gaussian sources.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (
        ("drf", "compute curve rows for the configured methods"),
        ("bound", "compute per-component lower-bound rows"),
        ("verify", "cross-check the fast path against the covariance oracle"),
        ("spectra", "dump eigenvalue profiles: columns phi, f, lambda_1..lambda_M "
                    "(ascending), trace, and s_tilde for pulse-amplitude sources"),
    ):
        p = sub.add_parser(name, help=text, description=text)
        p.add_argument("--config", required=True, help="scenario INI file")
        p.add_argument("--out", default=None, help="output CSV path (overrides [output] path)")
        p.add_argument("--allow-nonconverged", action="store_true",
                       help="emit rows flagged converged=false instead of failing")
    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses, built once per process: every call parses
    into a fresh namespace, so the calls share no state. Not for changing."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        sc = load_scenario(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    out = args.out or sc.out_path
    try:
        if args.command == "drf":
            _write_csv(out, [CSV_HEADER, *drf_rows(sc, args.allow_nonconverged)])
        elif args.command == "bound":
            _write_csv(out, [CSV_HEADER, *bound_rows(sc)])
        elif args.command == "spectra":
            _write_csv(out, spectra_rows(sc))
        elif args.command == "verify":
            lines, worst = verify_lines(sc, args.allow_nonconverged)
            for line in lines:
                print(line)
            print(f"max_rel_gap={worst:.6e} tol={sc.oracle_tol:.1e}")
            if worst > sc.oracle_tol:
                print("verify FAILED", file=sys.stderr)
                return 3
            print("verify OK")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except AliasCountError as exc:
        print(f"config error: [source] bandwidth and {RATE_KEYS[sc.kind]}: {exc}",
              file=sys.stderr)
        return 2
    except (drf_mod.NonConvergedError, WaterLevelUnderflow, NumericFailure) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
