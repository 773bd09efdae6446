"""Independent checks of every output point of a curve.

Distortion is compared, never ``theta`` or ``M``. References come from closed
forms or from a different route through the model than the one the CLI takes:

- flat stationary (and flat sampled above Nyquist): P * 2^(-R / f_B);
- white discrete sources: closed-form waterfilling over the slot variances,
  and the per-slot closed form for the lower bound;
- AM below the narrowband threshold: the fixed-resolution curve at the
  saturation resolution, the first M of the doubling schedule with
  M f0 > 2 (f_B + f0) (the paper's saturation claim);
- AM above the threshold: the baseband curve of the same output;
- PAM with a band-limited pulse: waterfilling the trace of the rank-one
  polyphase matrix at the smallest M that holds every overlapping alias;
- PAM with a pulse inside one symbol: (E / T0) times the discrete-time curve
  of the symbol samples at T0 * R bits per symbol. Fixed-M fields are not
  used here, because they converge to the continuous curve only as O(1/M^2)
  for non-rectangular pulses.

Invariants on every row: finite, D <= sigma^2, non-increasing in rate per
method, and lower_bound <= drf <= upper_bound where both exist.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

import csdrf
from workloads import Curve, read_ini

REL = 1e-12          # ROADMAP default for reproduced distortions
PRINTED_REL = 1e-11  # verify prints 12 significant digits: rounding is 5e-12

# CLI defaults for the [numerics] keys the references need
DEFAULTS = {"phi_grid": 2048, "m_start": 4, "convergence_tol": 1e-4}


@dataclass(frozen=True)
class Point:
    rate: float
    distortion: float
    method: str
    converged: bool = True


@dataclass
class CurveResult:
    """What one CLI call left behind."""

    exit_code: int | None      # None when the call raised
    error: str                 # exception or stderr text
    csv: str                   # output file text ("" for verify)
    stdout: str


@dataclass
class Verdict:
    points: int
    failed: int
    reasons: list = field(default_factory=list)
    verify_gap: float | None = None       # verify: max relative gap printed
    verify_failed: bool = False           # verify: exit 3 for an oracle gap


def parse_csv(text: str) -> list[Point]:
    lines = text.splitlines()
    out = []
    for line in lines[1:]:
        rate, dist, _theta, method, _m, conv = line.split(",")
        out.append(Point(float(rate), float(dist), method, conv == "true"))
    return out


def parse_verify(text: str, rates) -> tuple[list[Point], list[Point], float | None]:
    """Rate lines of a verify report. Lines print the rate with 6 digits only,
    so each line takes its exact rate from the scenario's grid, in order."""
    fast, oracle, worst = [], [], None
    for line in text.splitlines():
        if line.startswith("rate="):
            kv = dict(item.split("=") for item in line.split())
            i = len(fast)
            rate = float(rates[i]) if i < len(rates) else math.nan
            if not _close(float(kv["rate"]), rate, 1e-5):
                rate = math.nan
            fast.append(Point(rate, float(kv["fast"]), "fast"))
            oracle.append(Point(rate, float(kv["oracle"]), "oracle"))
        elif line.startswith("max_rel_gap="):
            worst = float(line.split()[0].split("=")[1])
    return fast, oracle, worst


# ---------------------------------------------------------------------------
# models and references, built from the scenario text alone
# ---------------------------------------------------------------------------

def _floats(raw: str) -> list[float]:
    return [float(x) for x in raw.replace(",", " ").split()]


class Scenario:
    """Source parameters of a scenario file and its reference curves."""

    def __init__(self, ini: str):
        cp = read_ini(ini)
        src = cp["source"]
        self.kind = src.get("kind").strip()
        self.family = src.get("family", "flat").strip()
        self.bandwidth = float(src.get("bandwidth", "1.0"))
        self.power = float(src.get("power", "1.0"))
        self.f0 = float(src.get("f0", "4.0"))
        self.phase = float(src.get("phase", "0.0"))
        self.pulse = src.get("pulse", "rect").strip()
        self.pulse_beta = float(src.get("pulse_beta", "0.25"))
        self.symbol_rates = _floats(src.get("symbol_rates", src.get("symbol_rate", "1.0")))
        self.normalize = src.get("normalize_power", "false").strip().lower() in ("true", "yes", "1", "on")
        self.sampling_rate = float(src.get("sampling_rate", "1.0"))
        self.variances = _floats(src.get("variances", "1 4"))
        self.mod_scales = _floats(src.get("mod_scales", ""))
        self.ma_taps = _floats(src.get("ma_taps", "1.0"))
        num = cp["numerics"] if cp.has_section("numerics") else {}
        self.n_grid = int(num.get("phi_grid", DEFAULTS["phi_grid"]))
        self.m_start = int(num.get("m_start", DEFAULTS["m_start"]))
        self.tol = float(num.get("convergence_tol", DEFAULTS["convergence_tol"]))
        lo, hi = float(cp["rates"]["min"]), float(cp["rates"]["max"])
        count = int(cp["rates"]["count"])
        space = np.geomspace if cp["rates"]["spacing"].strip() == "log" else np.linspace
        self.rates = space(lo, hi, count)
        self._pam = {}
        self._am_ref = None

    # -- models ---------------------------------------------------------------

    def base(self):
        make = {"flat": csdrf.flat_psd, "triangular": csdrf.triangular_psd,
                "raised_cosine": csdrf.raised_cosine_psd}[self.family]
        return make(self.bandwidth, self.power)

    def discrete(self):
        if self.mod_scales:
            return csdrf.modulated_ma(self.mod_scales, self.ma_taps)
        return csdrf.white_cs(self.variances)

    def pam(self, fs: float):
        """(unscaled spectrum, power gain applied by normalize_power)."""
        if fs not in self._pam:
            t0 = 1.0 / fs
            pulse = {"rect": lambda: csdrf.rect_pulse(t0),
                     "triangle": lambda: csdrf.triangle_pulse(t0),
                     "ideal": lambda: csdrf.ideal_interp_pulse(t0),
                     "raised_cosine": lambda: csdrf.raised_cosine_pulse(t0, self.pulse_beta),
                     }[self.pulse]()
            spec = csdrf.pam_cpsd(self.base(), pulse, t0)
            gain2 = self.power / spec.avg_power if self.normalize else 1.0
            self._pam[fs] = (spec, gain2)
        return self._pam[fs]

    def symbol_rate(self, method: str) -> float:
        """Configured symbol rate of a row label such as ``drf:fs=0.25`` (6 digits)."""
        if "fs=" not in method:
            return self.symbol_rates[0]
        label = float(method.split("fs=")[1])
        return min(self.symbol_rates, key=lambda fs: abs(fs - label))

    def sigma2(self, method: str) -> float:
        if self.kind == "discrete-cs":
            return self.discrete().avg_power
        if self.kind == "pam" and method not in ("baseband",):
            spec, gain2 = self.pam(self.symbol_rate(method))
            return spec.avg_power * gain2
        return self.power

    # -- references -----------------------------------------------------------

    def reference(self, method: str, rate: float) -> float | None:
        """Reference distortion for a row, or None where no reference applies."""
        group = method.split(":")[0]
        if group == "baseband":
            return self._flat(rate)
        if self.kind == "discrete-cs" and not self.mod_scales and group == "lower_bound":
            m = len(self.variances)
            return float(np.mean([v * 2.0 ** (-2.0 * m * rate) for v in self.variances]))
        if group not in ("drf", "fast"):
            return None
        if self.kind == "stationary":
            return self._flat(rate)
        if self.kind == "sampled-coding":
            return self._flat(rate) if self.sampling_rate >= 2.0 * self.bandwidth else None
        if self.kind == "discrete-cs":
            return None if self.mod_scales else white_waterfill(self.variances, rate)
        if self.kind == "am":
            # above the threshold the rows are checked against the baseband rows
            return None if self.f0 > 2.0 * self.bandwidth else self._am_saturated(rate)
        return self._pam_reference(self.symbol_rate(method), rate)

    def _flat(self, rate: float) -> float | None:
        if self.family != "flat":
            return None
        return self.power * 2.0 ** (-rate / self.bandwidth)

    def saturation_dim(self) -> int:
        dim = self.m_start
        while dim * self.f0 <= 2.0 * (self.bandwidth + self.f0):
            dim *= 2
        return dim

    def _am_saturated(self, rate: float) -> float:
        if self._am_ref is None:
            dim = self.saturation_dim()
            spec = csdrf.am_cpsd(self.base(), self.f0, self.phase)
            cfg = csdrf.ContinuousDrfConfig(dim, dim, 0.0, self.tol, self.n_grid)
            self._am_ref = (csdrf.ContinuousDrfSolver(spec, cfg), dim)
        solver, dim = self._am_ref
        return solver.point_at(rate, dim).distortion

    def _pam_reference(self, fs: float, rate: float) -> float:
        spec, gain2 = self.pam(fs)
        t0 = spec.period
        pulse = spec.pulse
        if pulse.time_window is not None and pulse.time_window[1] - pulse.time_window[0] <= t0:
            # one symbol per pulse: E/T0 times the curve of the samples U(n T0)
            pt = csdrf.discrete_stationary_drf(lambda phi: spec.sampled_base_psd(phi / t0),
                                               t0 * rate, self.n_grid, spec.phi_breakpoints())
            return gain2 * pulse.energy / t0 * pt.distortion
        dim = max(1, math.ceil(2.0 * t0 * pulse.support_radius - 1e-12))
        key = ("trace", fs)
        if key not in self._pam:
            grid = csdrf.phi_grid(self.n_grid, spec.phi_breakpoints())
            vals = csdrf.psd_pc_matrix_continuous(spec, dim)(grid.nodes)
            trace = np.maximum(np.einsum("pmm->p", vals).real, 0.0)
            self._pam[key] = csdrf.ScalarWaterfiller(trace, grid.weights, 1.0 / dim, 0.5 / t0)
        return gain2 * self._pam[key].solve(rate).distortion


def white_waterfill(variances, rate_bits_per_symbol: float) -> float:
    """Reverse waterfilling over independent slot variances, in closed form."""
    v = sorted((x for x in variances if x > 0.0), reverse=True)
    m = len(variances)
    budget = 2.0 * m * rate_bits_per_symbol        # sum of log2(v / theta) over active slots
    for k in range(len(v), 0, -1):
        log_theta = (sum(math.log2(x) for x in v[:k]) - budget) / k
        theta = 2.0 ** log_theta
        if theta <= v[k - 1] and (k == len(v) or theta >= v[k]):
            return (k * theta + sum(v[k:])) / m
    return sum(v) / m


# ---------------------------------------------------------------------------
# the checks
# ---------------------------------------------------------------------------

def _exceeds(a: float, b: float, rel: float) -> bool:
    """a > b beyond a relative slack."""
    return a > b + rel * max(abs(a), abs(b))


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * abs(b)


def check_points(sc: Scenario, points: list[Point], rel: float) -> dict:
    """Failure reasons keyed by point index."""
    bad: dict[int, list[str]] = {}
    by_method: dict[str, list[int]] = {}
    for i, p in enumerate(points):
        by_method.setdefault(p.method, []).append(i)
        why = []
        if not (math.isfinite(p.rate) and math.isfinite(p.distortion)):
            why.append("non-finite")
        elif p.distortion < 0.0 or _exceeds(p.distortion, sc.sigma2(p.method), REL):
            why.append(f"D={p.distortion:.6g} outside [0, sigma2]")
        if not p.converged:
            why.append("converged=false")
        if not why:
            ref = sc.reference(p.method, p.rate)
            if ref is not None and not _close(p.distortion, ref, rel):
                why.append(f"D={p.distortion!r} vs reference {ref!r} "
                           f"(rel {abs(p.distortion - ref) / abs(ref):.2e})")
        if why:
            bad[i] = why

    for idx in by_method.values():
        order = sorted(idx, key=lambda i: points[i].rate)
        for prev, cur in zip(order, order[1:]):
            if _exceeds(points[cur].distortion, points[prev].distortion, REL):
                bad.setdefault(cur, []).append("increases with rate")

    def group(prefix):
        return {(points[i].rate, m.partition(":")[2]): points[i].distortion
                for m, idx in by_method.items() if m.split(":")[0] == prefix for i in idx}

    lower, upper, base = group("lower_bound"), group("upper_bound_gaussian_psd"), group("baseband")
    for i, p in enumerate(points):
        kind = p.method.split(":")[0]
        key = (p.rate, p.method.partition(":")[2])
        if kind == "drf":
            if key in lower and _exceeds(lower[key], p.distortion, REL):
                bad.setdefault(i, []).append("below lower_bound")
            if (p.rate, "") in upper and _exceeds(p.distortion, upper[(p.rate, "")], REL):
                bad.setdefault(i, []).append("above upper_bound_gaussian_psd")
            if sc.kind == "am" and sc.f0 > 2.0 * sc.bandwidth and (p.rate, "") in base \
                    and not _close(p.distortion, base[(p.rate, "")], REL):
                bad.setdefault(i, []).append("differs from baseband above the threshold")
    return bad


def check_curve(curve: Curve, res: CurveResult) -> Verdict:
    expected = curve.points
    verdict = Verdict(points=expected, failed=0)
    verify = curve.command == "verify"
    # verify exits 3 both for an oracle gap (a verdict, not a failure) and for
    # a numeric failure; only the former prints its verdict line
    gap_verdict = verify and res.exit_code == 3 and "verify FAILED" in res.error
    if res.exit_code != 0 and not gap_verdict:
        how = "raised" if res.exit_code is None else f"exit {res.exit_code}"
        verdict.failed = expected
        verdict.reasons.append(f"call {how}: {res.error.strip()[-300:]}")
        return verdict
    sc = Scenario(curve.ini)
    if verify:
        points, oracle, verdict.verify_gap = parse_verify(res.stdout, sc.rates)
        verdict.verify_failed = gap_verdict
        bad = check_points(sc, points, PRINTED_REL)
        for i, why in check_points(sc, oracle, PRINTED_REL).items():
            bad.setdefault(i, []).extend("oracle " + r for r in why)
    else:
        points = parse_csv(res.csv)
        bad = check_points(sc, points, REL)
    missing = max(expected - len(points), 0)
    verdict.failed = min(len(bad) + missing, expected)
    if missing:
        verdict.reasons.append(f"{missing} of {expected} points missing")
    if len(points) > expected:
        verdict.reasons.append(f"{len(points) - expected} unexpected extra points")
        verdict.failed = expected
    for i in sorted(bad):
        verdict.reasons.append(f"{points[i].method} R={points[i].rate:.6g}: " + "; ".join(bad[i]))
    return verdict
