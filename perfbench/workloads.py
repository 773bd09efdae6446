"""Seeded scenario generation for the benchmark workloads.

Every workload is a list of curves; a curve is one ``csdrf`` command on one
scenario file. The seed moves continuous parameters only (bandwidth scale,
power, carrier and symbol-rate jitter inside fixed strata), so every seed
yields the same amount of work: the same curve and rate counts, grid sizes,
kernel sizes and AM refinement stop levels. The shipped configs are included
verbatim. The same seed always yields byte-identical scenario text.
"""

from __future__ import annotations

import configparser
import math
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("curve-sweep", "am-refine", "cross-check")

FAMILIES = ("flat", "triangular", "raised_cosine")
PULSES = ("rect", "triangle", "ideal", "raised_cosine")

# Carrier-to-bandwidth ratios f0/f_B below the narrowband threshold, with the
# resolution at which the doubling schedule stops for every rate of a
# triangular source on the am-refine rate grid and AM_GRID nodes. Each stratum is narrow enough
# that jitter inside it changes neither the stop level nor the alias count.
AM_STRATA = {8: (1.4, 0.02), 16: (0.45, 0.02), 32: (0.2, 0.02), 64: (0.11, 0.005)}
AM_GRID = 512

# The known early-stop defect: at f0 = 0.1 and R = 4 bit/s the refinement
# stops at M = 8 with a distortion far below the saturated value, flagged
# converged. Kept fixed (not seeded) so that it shows on every seed.
AM_EARLY_STOP_INI = """\
# Triangular source modulated at f0 = 0.1, far below the narrowband threshold.
[source]
kind = am
family = triangular
bandwidth = 1.0
power = 1.0
f0 = 0.1
phase = 0.0

[rates]
min = 0.25
max = 4.0
count = 8
spacing = log

[methods]
methods = drf baseband upper_bound_gaussian_psd
"""


@dataclass(frozen=True)
class Curve:
    """One CLI call: ``csdrf <command> --config <name>.ini``."""

    name: str
    command: str
    ini: str

    @property
    def points(self) -> int:
        """CSV rows (drf, bound) or rate lines (verify) the call should emit."""
        return expected_points(self.command, self.ini)


def read_ini(text: str) -> configparser.ConfigParser:
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    cp.read_string(text)
    return cp


def expected_points(command: str, ini: str) -> int:
    cp = read_ini(ini)
    rates = cp.getint("rates", "count", fallback=6)
    if command in ("bound", "verify"):
        return rates
    kind = cp.get("source", "kind").strip()
    methods = cp.get("methods", "methods", fallback="drf").split()
    if kind == "stationary":
        return rates
    if kind == "pam":
        n_fs = len(cp.get("source", "symbol_rates", fallback="1").split())
        groups = n_fs * sum(m in ("drf", "lower_bound", "oracle") for m in methods)
        if cp.getboolean("source", "include_baseband", fallback=False) or "baseband" in methods:
            groups += 1
        return rates * groups
    return rates * len(methods)


def _num(x: float) -> str:
    return repr(round(float(x), 6))


def _ini(source: dict, rates: tuple, methods: str = "drf", numerics: dict | None = None) -> str:
    lines = ["[source]"] + [f"{k} = {v}" for k, v in source.items()]
    lo, hi, count, spacing = rates
    lines += ["", "[rates]", f"min = {_num(lo)}", f"max = {_num(hi)}",
              f"count = {count}", f"spacing = {spacing}",
              "", "[methods]", f"methods = {methods}"]
    if numerics:
        lines += ["", "[numerics]"] + [f"{k} = {v}" for k, v in numerics.items()]
    return "\n".join(lines) + "\n"


class _Draw:
    """Seeded draws; one instance per workload so workloads stay independent."""

    def __init__(self, workload: str, seed: int):
        self.rng = random.Random(f"{workload}:{seed}")

    def scale(self) -> float:
        return 2.0 ** self.rng.uniform(-1.0, 1.0)

    def jitter(self, center: float, rel: float) -> float:
        return center * (1.0 + self.rng.uniform(-rel, rel))


def _shipped(configs: Path, name: str, command: str = "drf") -> Curve:
    text = (configs / f"{name}.ini").read_text()
    return Curve(name if command == "drf" else f"{command}-{name}", command, text)


def curve_sweep(draw: _Draw, configs: Path) -> list[Curve]:
    """Scalar paths with dense rate grids: one set of levels serves 100 rates."""
    curves = [_shipped(configs, "fig4")]
    dense = 100

    for i in range(6):
        fam = FAMILIES[i % 3]
        a, p = draw.scale(), draw.scale()
        src = {"kind": "stationary", "family": fam, "bandwidth": _num(a), "power": _num(p)}
        curves.append(Curve(f"stationary-{fam}-{i // 3}", "drf",
                            _ini(src, (0.02 * a, 8.0 * a, dense, "log"))))

    for i, pulse in enumerate(PULSES):
        for j, ratio in enumerate((0.3, 0.55, 0.8)):
            fam = FAMILIES[(i + j) % 3]
            a, p = draw.scale(), draw.scale()
            fs = 2.0 * a * draw.jitter(ratio, 0.05)
            src = {"kind": "pam", "family": fam, "bandwidth": _num(a), "power": _num(p),
                   "pulse": pulse, "pulse_beta": _num(draw.jitter(0.3, 0.3)),
                   "symbol_rate": _num(fs), "normalize_power": "true"}
            curves.append(Curve(f"pam-{pulse}-{j}", "drf",
                                _ini(src, (0.02 * a, 6.0 * a, dense, "log"))))

    for fam, ratio in (("flat", 0.5), ("triangular", 0.8), ("flat", 1.25), ("raised_cosine", 2.0)):
        a, p = draw.scale(), draw.scale()
        fs = 2.0 * a * draw.jitter(ratio, 0.05)
        src = {"kind": "sampled-coding", "family": fam, "bandwidth": _num(a),
               "power": _num(p), "sampling_rate": _num(fs)}
        curves.append(Curve(f"sampled-{fam}-{ratio:g}", "drf",
                            _ini(src, (0.02 * a, 6.0 * a, dense, "log"))))

    for fam in FAMILIES:
        a, p = draw.scale(), draw.scale()
        src = {"kind": "am", "family": fam, "bandwidth": _num(a), "power": _num(p),
               "f0": _num(a * draw.jitter(3.0, 0.15))}
        curves.append(Curve(f"am-wide-{fam}", "drf",
                            _ini(src, (0.02 * a, 6.0 * a, dense, "log"),
                                 "drf baseband upper_bound_gaussian_psd")))

    var = " ".join(_num(2.0 ** draw.rng.uniform(-2.0, 2.0)) for _ in range(2))
    curves.append(Curve("white-cs-2", "drf", _ini({"kind": "discrete-cs", "variances": var},
                                                  (0.02, 4.0, dense, "log"), "drf lower_bound")))
    scales = " ".join(_num(2.0 ** draw.rng.uniform(-1.0, 1.0)) for _ in range(3))
    taps = " ".join(_num(draw.rng.uniform(0.2, 1.0)) for _ in range(3))
    curves.append(Curve("modulated-ma-3", "drf",
                        _ini({"kind": "discrete-cs", "mod_scales": scales, "ma_taps": taps},
                             (0.02, 4.0, dense, "log"), "drf lower_bound")))
    return curves


def am_refine(draw: _Draw, configs: Path) -> list[Curve]:
    """AM below the narrowband threshold: polyphase assembly and batched eigh."""
    curves = [_shipped(configs, "fig6"), Curve("am-early-stop-f0.1", "drf", AM_EARLY_STOP_INI)]
    # Generated carriers use a 512-node grid so that many fit in one pass. The
    # stratum counts put the median among the M = 16 curves and the tail
    # percentile among the M = 32 curves, away from class boundaries, where
    # single timings would make the order statistics jumpy.
    for stop, count in ((64, 4), (32, 8), (16, 8), (8, 13)):
        center, rel = AM_STRATA[stop]
        for i in range(count):
            a, p = draw.scale(), draw.scale()
            src = {"kind": "am", "family": "triangular", "bandwidth": _num(a),
                   "power": _num(p), "f0": _num(a * draw.jitter(center, rel)), "phase": "0.0"}
            curves.append(Curve(f"am-m{stop}-{i}", "drf",
                                _ini(src, (0.25 * a, 4.0 * a, 8, "log"),
                                     "drf baseband upper_bound_gaussian_psd",
                                     {"phi_grid": AM_GRID})))
    return curves


def cross_check(draw: _Draw, configs: Path) -> list[Curve]:
    """Lower bounds and oracle verification: spectral evaluation and dense eigh.

    Four classes by cost: 14 cheap verifications (closed-form covariances,
    n = 256); 8 rectangular-pulse PAM verifications, where the median falls;
    10 middle curves (triangle-pulse PAM kernels, PAM bounds, n = 768 and 1024
    blocks, fig6), where the tail percentile falls; 5 heavy ones (fig4, AM
    bounds, and the generic quadrature covariance, kept at n = 96 because its
    kernel holds n^2 x 1024 complex quadrature terms).
    """
    curves = [_shipped(configs, "verify_alternating", "verify"),
              _shipped(configs, "fig4", "verify"),
              _shipped(configs, "fig6", "verify")]

    def scaled(src_extra, numerics=None):
        a, p = draw.scale(), draw.scale()
        src = {"bandwidth": _num(a), "power": _num(p)}
        src.update({k: (v(a) if callable(v) else v) for k, v in src_extra.items()})
        return _ini(src, (0.1 * a, 4.0 * a, 8, "log"), numerics=numerics)

    discrete_rates = (0.1, 4.0, 8, "log")
    for period, n in ((2, 256), (3, 256), (4, 1024)):
        var = " ".join(_num(2.0 ** draw.rng.uniform(-2.0, 2.0)) for _ in range(period))
        curves.append(Curve(f"verify-white-cs-{period}-n{n}", "verify",
                            _ini({"kind": "discrete-cs", "variances": var}, discrete_rates,
                                 numerics={"oracle_n": n})))
    for period, n in ((2, 256), (3, 768)):
        scales = " ".join(_num(2.0 ** draw.rng.uniform(-1.0, 1.0)) for _ in range(period))
        taps = " ".join(_num(draw.rng.uniform(0.2, 1.0)) for _ in range(3))
        curves.append(Curve(f"verify-modulated-ma-{period}-n{n}", "verify",
                            _ini({"kind": "discrete-cs", "mod_scales": scales, "ma_taps": taps},
                                 discrete_rates, numerics={"oracle_n": n})))
    for i in range(6):
        fam = FAMILIES[i % 3]
        curves.append(Curve(f"verify-stationary-{fam}-{i // 3}", "verify",
                            scaled({"kind": "stationary", "family": fam})))
    for i in range(4):
        fam = FAMILIES[i % 3]
        curves.append(Curve(f"verify-am-wide-{fam}-{i // 3}", "verify",
                            scaled({"kind": "am", "family": fam,
                                    "f0": lambda a: _num(a * draw.jitter(3.0, 0.15))})))

    for fam, stop in (("triangular", 16), ("flat", 8)):
        center, rel = AM_STRATA[stop]
        curves.append(Curve(f"bound-am-{fam}", "bound",
                            scaled({"kind": "am", "family": fam,
                                    "f0": lambda a: _num(a * draw.jitter(center, rel))})))
    pam = [(f"bound-pam-{pulse}", "bound", pulse, fam, None)
           for pulse, fam in (("rect", "triangular"), ("triangle", "flat"))]
    pam += [(f"verify-pam-rect-{FAMILIES[i % 3]}-{i // 3}", "verify", "rect", FAMILIES[i % 3], 256)
            for i in range(8)]
    pam += [(f"verify-pam-triangle-{FAMILIES[i % 3]}-{i // 3}", "verify", "triangle",
             FAMILIES[i % 3], 256) for i in range(5)]
    pam += [(f"verify-pam-{pulse}-{fam}", "verify", pulse, fam, 96)
            for pulse, fam in (("ideal", "flat"), ("raised_cosine", "triangular"))]
    for name, command, pulse, fam, n in pam:
        curves.append(Curve(name, command,
                            scaled({"kind": "pam", "family": fam, "pulse": pulse,
                                    "symbol_rate": lambda a: _num(2.0 * a * draw.jitter(0.6, 0.05)),
                                    "normalize_power": "true"},
                                   {"oracle_n": n} if n else None)))
    return curves


GENERATORS = {"curve-sweep": curve_sweep, "am-refine": am_refine, "cross-check": cross_check}


def spread(curves: list) -> list:
    """Run order that spreads each class of similar curves over the whole pass.

    The machine's speed drifts over seconds; consecutive curves of one class
    would all see the same phase and make the median and tail jumpy. A stride
    near K / golden ratio, coprime with K, visits the K curves evenly.
    """
    k = len(curves)
    step = max(1, round(k / 1.618))
    while math.gcd(step, k) != 1:
        step += 1
    return [curves[(i * step) % k] for i in range(k)]


def generate(workload: str, seed: int, configs: Path) -> list[Curve]:
    """The workload's curves for this seed, in run order."""
    return spread(GENERATORS[workload](_Draw(workload, seed), configs))
