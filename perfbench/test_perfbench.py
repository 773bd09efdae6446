"""Tests of the benchmark itself: seeded generation, output checks and tracing.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import csdrf  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

CONFIGS = ROOT / "configs"


def _curve(workload, name, seed=1):
    return next(c for c in workloads.generate(workload, seed, CONFIGS) if c.name == name)


def _call(curve, tmp_path):
    runner = run.Runner([curve], tmp_path)
    return runner.call(0)[1]


# ---------------------------------------------------------------------------
# seeded, work-stable generation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_bytes(workload):
    a = workloads.generate(workload, 7, CONFIGS)
    b = workloads.generate(workload, 7, CONFIGS)
    assert [(c.name, c.command, c.ini) for c in a] == [(c.name, c.command, c.ini) for c in b]


def _work(curve):
    cp = workloads.read_ini(curve.ini)
    src = cp["source"]
    return (curve.name, curve.command, curve.points, cp.get("rates", "count"),
            cp.get("rates", "spacing"), src.get("kind"), src.get("family"), src.get("pulse"),
            cp.get("methods", "methods", fallback=None),
            tuple(cp.items("numerics")) if cp.has_section("numerics") else ())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_any_seed_gives_the_same_work(workload):
    shapes = {tuple(_work(c) for c in workloads.generate(workload, s, CONFIGS))
              for s in (1, 2, 12345)}
    assert len(shapes) == 1
    texts = {tuple(c.ini for c in workloads.generate(workload, s, CONFIGS)) for s in (1, 2)}
    assert len(texts) == 2


def test_shipped_configs_are_used_verbatim():
    for workload, name, file in (("curve-sweep", "fig4", "fig4"), ("am-refine", "fig6", "fig6"),
                                 ("cross-check", "verify-verify_alternating", "verify_alternating"),
                                 ("cross-check", "verify-fig4", "fig4")):
        assert _curve(workload, name).ini == (CONFIGS / f"{file}.ini").read_text()


def test_am_strata_fix_alias_span_and_saturation():
    """Jitter inside a stratum moves neither the assembly's alias span nor M_sat."""
    seen = {}
    for seed in range(1, 40):
        for c in workloads.generate("am-refine", seed, CONFIGS):
            if not c.name.startswith("am-m"):
                continue
            sc = checks.Scenario(c.ini)
            span = math.ceil(0.5 + (sc.bandwidth + sc.f0) / sc.f0) + 1
            seen.setdefault(c.name.rsplit("-", 1)[0], set()).add((span, sc.saturation_dim()))
    assert seen and all(len(v) == 1 for v in seen.values()), seen


@pytest.mark.parametrize("seed", (1, 2))
def test_am_stop_levels_do_not_depend_on_the_seed(seed, tmp_path):
    for stop in (8, 16, 32):
        res = _call(_curve("am-refine", f"am-m{stop}-0", seed), tmp_path)
        dims = {int(line.split(",")[4]) for line in res.csv.splitlines()[1:]
                if ",drf," in line}
        assert dims == {stop}


def test_cli_writes_only_into_the_work_dir(tmp_path, monkeypatch):
    cwd = tmp_path / "cwd"
    work = tmp_path / "work"
    cwd.mkdir()
    work.mkdir()
    monkeypatch.chdir(cwd)
    res = _call(_curve("curve-sweep", "fig4"), work)
    assert res.exit_code == 0 and res.csv.startswith("rate_bits,")
    assert list(cwd.iterdir()) == []


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def test_white_waterfill_matches_bisection():
    rng = np.random.default_rng(3)
    for _ in range(20):
        v = rng.uniform(0.1, 5.0, rng.integers(1, 6))
        for rate in (0.05, 0.7, 3.0):
            sw = csdrf.ScalarWaterfiller(v, np.ones_like(v), 1.0 / v.size, 0.5 / v.size)
            ref = sw.solve(rate).distortion
            assert abs(checks.white_waterfill(v, rate) - ref) <= 1e-12 * ref


def test_checks_pass_good_rows_and_flag_bad_ones(tmp_path):
    curve = _curve("curve-sweep", "stationary-flat-0")
    res = _call(curve, tmp_path)
    assert checks.check_curve(curve, res).failed == 0

    lines = res.csv.splitlines()
    cells = lines[5].split(",")
    cells[1] = repr(float(cells[1]) * (1.0 + 1e-9))
    lines[5] = ",".join(cells)
    bad = checks.CurveResult(0, "", "\n".join(lines) + "\n", "")
    assert checks.check_curve(curve, bad).failed == 1

    short = checks.CurveResult(0, "", "\n".join(res.csv.splitlines()[:-3]) + "\n", "")
    assert checks.check_curve(curve, short).failed == 3
    for code in (None, 2):
        broken = checks.CurveResult(code, "boom", "", "")
        assert checks.check_curve(curve, broken).failed == curve.points


def test_known_early_stop_row_fails(tmp_path):
    curve = _curve("am-refine", "am-early-stop-f0.1")
    verdict = checks.check_curve(curve, _call(curve, tmp_path))
    assert verdict.failed == 1 and "R=4" in verdict.reasons[0]


def test_verify_exit_3_is_a_verdict_not_a_failure(tmp_path):
    curve = _curve("cross-check", "verify-fig6")
    res = _call(curve, tmp_path)
    verdict = checks.check_curve(curve, res)
    assert res.exit_code == 3 and verdict.verify_failed and verdict.failed == 0
    assert verdict.verify_gap > 1e-3


def test_tail_has_ten_samples_beyond():
    assert run.tail([float(x) for x in range(1, 101)]) == (90.0, 90.0)
    assert run.tail([float(x) for x in range(20, 0, -1)]) == (10.0, 50.0)
    assert run.tail([3.0, 1.0]) == (3.0, 100.0)


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------

def test_tracer_records_spans_and_restores_the_package(tmp_path):
    curve = _curve("am-refine", "am-m8-0")
    plain = _call(curve, tmp_path)
    before = (csdrf.drf.phi_grid, csdrf.cli.main,
              csdrf.waterfilling.ScalarWaterfiller.__dict__["solve"],
              csdrf.waterfilling.EigenField.__dict__["from_matrix"])
    tracer = tracing.Tracer()
    wrapped = tracer.install()
    try:
        assert csdrf.drf.phi_grid is not before[0]          # imported by value, rebound
        traced = _call(curve, tmp_path)
    finally:
        tracer.uninstall()
    after = (csdrf.drf.phi_grid, csdrf.cli.main,
             csdrf.waterfilling.ScalarWaterfiller.__dict__["solve"],
             csdrf.waterfilling.EigenField.__dict__["from_matrix"])
    assert all(a is b for a, b in zip(before, after))
    assert not tracer.absent and set(tracing.REQUIRED) <= set(wrapped)
    assert traced.csv == plain.csv

    assert all(s[3] < i for i, s in enumerate(tracer.spans))
    dur, own = tracer.self_times()
    assert np.all(own >= -1e-9) and np.all(own <= dur + 1e-12)
    m = {k: v for k, (v, _unit) in tracing.layer_metrics(tracer).items()}
    assert m["waterfilling.solves"] > 0 and m["polyphase.matrices"] > 0
    assert m["drf.fields_built"] == 2 and m["polyphase.max_dim"] == 8
    assert 0.0 < m["drf.field_cache_hit_ratio"] < 1.0


def test_tracer_reports_deleted_names(monkeypatch):
    monkeypatch.delattr(csdrf.drf, "lower_bound_discrete")
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert "drf.lower_bound_discrete" in tracer.absent
    assert tracing.layer_metrics(tracer)["drf.lower_bound_s"] == (0.0, "s")
