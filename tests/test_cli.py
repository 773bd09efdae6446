import contextlib
import csv
import io
import math
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import csdrf
from csdrf.cli import SOURCES, _parser, build_parser, load_scenario, main
from csdrf.drf import sampled_coding
from csdrf.spectra import flat_psd, triangular_psd
from csdrf.waterfilling import stationary_waterfiller

STATIONARY_CFG = """
[source]
kind = stationary
family = flat
bandwidth = 1.0
power = 1.0

[rates]
min = 0.2
max = 4.0
count = 5
spacing = log
"""

AM_CFG = """
[source]
kind = am
family = triangular
bandwidth = 1.0
power = 1.0
f0 = 4.0

[rates]
min = 0.3
max = 2.0
count = 4
spacing = linear

[methods]
methods = drf baseband
"""

VERIFY_CFG = """
[source]
kind = discrete-cs
variances = 1 4

[rates]
min = 0.1
max = 8.0
count = 6
spacing = log
"""


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def _read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_stationary_run_monotone(tmp_path):
    cfg = _write(tmp_path, "s.ini", STATIONARY_CFG)
    out = str(tmp_path / "out.csv")
    assert main(["drf", "--config", cfg, "--out", out]) == 0
    rows = _read_rows(out)
    assert len(rows) == 5
    dist = [float(r["distortion"]) for r in rows]
    assert all(a > b for a, b in zip(dist, dist[1:]))


def test_csv_byte_reproducible(tmp_path):
    cfg = _write(tmp_path, "s.ini", STATIONARY_CFG)
    out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    assert main(["drf", "--config", cfg, "--out", out1]) == 0
    assert main(["drf", "--config", cfg, "--out", out2]) == 0
    assert open(out1, "rb").read() == open(out2, "rb").read()


def test_rows_revalidate_against_api_exactly(tmp_path):
    cfg = _write(tmp_path, "s.ini", STATIONARY_CFG)
    out = str(tmp_path / "out.csv")
    assert main(["drf", "--config", cfg, "--out", out]) == 0
    sw = stationary_waterfiller(flat_psd(1.0, 1.0), 2048)
    for row in _read_rows(out):
        pt = sw.solve(float(row["rate_bits"]))
        assert float(row["distortion"]) == pt.distortion
        assert float(row["theta"]) == pt.theta


def test_am_drf_and_baseband_rows_pair_up(tmp_path):
    cfg = _write(tmp_path, "am.ini", AM_CFG)
    out = str(tmp_path / "out.csv")
    assert main(["drf", "--config", cfg, "--out", out]) == 0
    rows = _read_rows(out)
    drf_rows = {r["rate_bits"]: float(r["distortion"]) for r in rows if r["method"] == "drf"}
    bb_rows = {r["rate_bits"]: float(r["distortion"]) for r in rows if r["method"] == "baseband"}
    assert drf_rows and bb_rows
    for rate, d in drf_rows.items():
        assert d == pytest.approx(bb_rows[rate], rel=1e-6)


def test_wide_am_drf_and_baseband_are_one_curve_solved_once(tmp_path, monkeypatch):
    # f0 = 4 > 2 f_B: the carrier clears the band, and AM's drf curve is its
    # baseband curve, so its waterfiller is built once for both blocks
    built = []
    monkeypatch.setattr(csdrf.cli, "stationary_waterfiller",
                        lambda *args: built.append(args) or stationary_waterfiller(*args))
    out = tmp_path / "out.csv"
    assert main(["drf", "--config", _write(tmp_path, "am.ini", AM_CFG), "--out", str(out)]) == 0
    assert len(built) == 1
    lines = out.read_text().splitlines()[1:]
    drf = [line.replace(",drf,", ",") for line in lines if ",drf," in line]
    baseband = [line.replace(",baseband,", ",") for line in lines if ",baseband," in line]
    assert len(drf) == 4 and drf == baseband


def test_verify_subcommand_passes(tmp_path, capsys):
    cfg = _write(tmp_path, "v.ini", VERIFY_CFG)
    assert main(["verify", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "max_rel_gap" in out and "verify OK" in out


@pytest.mark.parametrize("source", [
    "kind = stationary\nfamily = flat\nbandwidth = 1.0\npower = 0",
    "kind = am\nfamily = triangular\nbandwidth = 1.0\npower = 0\nf0 = 1.2",
    "kind = discrete-cs\nvariances = 0 0",
], ids=["stationary", "am", "discrete-cs"])
def test_verify_zero_power_source_has_zero_gap(tmp_path, capsys, source):
    text = f"[source]\n{source}\n\n[rates]\nmin = 0.1\nmax = 2.0\ncount = 3\nspacing = log\n"
    cfg = _write(tmp_path, "zero.ini", text)
    assert main(["verify", "--config", cfg]) == 0      # raised ZeroDivisionError before
    out = capsys.readouterr().out
    assert "max_rel_gap=0.000000e+00" in out and "verify OK" in out


def test_config_error_names_the_key(tmp_path, capsys):
    cfg = _write(tmp_path, "bad.ini", "[source]\nfamily = flat\n")
    assert main(["drf", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2
    err = capsys.readouterr().err
    assert "kind" in err

    cfg2 = _write(tmp_path, "bad2.ini", "[source]\nkind = am\nf0 = notanumber\n")
    assert main(["drf", "--config", cfg2, "--out", str(tmp_path / "x.csv")]) == 2
    err = capsys.readouterr().err
    assert "f0" in err


def test_config_error_names_convergence_tol(tmp_path, capsys):
    """Every bad [source], [rates] or [numerics] value, every parse error and
    every key or section that no kind reads exits 2 naming the key."""
    am = "[source]\nkind = am\nf0 = 1.2\n"
    numerics = [("convergence_tol", v) for v in ("-1", "nan", "inf")]
    numerics += [("oracle_tol", v) for v in ("nan", "-1", "inf")]
    numerics += [("m_start", "0"), ("m_start", "1.5"), ("m_max", "2"), ("t_grid", "0"),
                 ("oracle_n", "1"), ("phi_grid", "0"), ("oracle_periods", "0"),
                 ("spectra_m", "0"), ("spectra_points", "0")]
    cases = [(key, am + f"[numerics]\n{key} = {value}\n") for key, value in numerics]
    cases += [("oracle_tol", am + "[numerics]\noracle_tol = 1e-3\noracle_tol = 1e-2\n"),
              ("path", am + "[output]\npath = out%.csv\n"),    # '%' starts an interpolation
              ("[numerics] phi_gird", am + "[numerics]\nphi_gird = 16\n"),
              ("[source] f_0", am + "f_0 = 1.5\n"), ("[output] pth", am + "[output]\npth = x\n"),
              ("[rates] spaceing", am + "[rates]\nspaceing = log\n"),
              ("[outputs]", am + "[outputs]\npath = x.csv\n"),
              ("[DEFAULT]", am + "[DEFAULT]\npath = x.csv\n")]
    source = [("am", "f0", "0"), ("am", "f0", "nan"), ("am", "phase", "nan"),
              ("stationary", "bandwidth", "-1"), ("stationary", "bandwidth", "inf"),
              ("stationary", "power", "-1"), ("stationary", "power", "nan"),
              ("pam", "symbol_rates", "0.5 0"), ("pam", "symbol_rates", "0.5 0.9 0.50"),
              ("pam", "symbol_rate", "-1"),
              ("pam", "pulse_beta", "2"), ("sampled-coding", "sampling_rate", "0"),
              ("discrete-cs", "variances", "1 -1"), ("discrete-cs", "variances", ""),
              ("discrete-cs", "variances", "1 nan"),
              ("discrete-cs", "ma_taps", "\nmod_scales = 1 2")]
    cases += [(key, f"[source]\nkind = {kind}\n{key} = {value}\n") for kind, key, value in source]
    cases += [("[rates] max", am + "[rates]\nmax = nan\n")]
    for i, (key, text) in enumerate(cases):
        cfg = _write(tmp_path, f"bad{i}.ini", text)
        assert main(["drf", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2, text
        err = capsys.readouterr().err
        assert key in err, (text, err)


# (command, scenario, the stderr line) of each refusal of a scenario that no
# other case reaches for certain; an unreadable file is test_console_entry_point's
CONFIG_REFUSALS = {
    "boolean": ("drf", "[source]\nkind = pam\nnormalize_power = maybe\n",
                "bad value for [source] normalize_power: 'maybe' (not a boolean: 'maybe')"),
    "no source": ("drf", "[rates]\nmin = 1\n", "missing required section [source]"),
    "kind": ("drf", "[source]\nkind = fm\n",
             f"unknown source kind 'fm' for key 'kind'; expected one of {tuple(SOURCES)}"),
    "log spacing": ("drf", "[source]\nkind = stationary\n[rates]\nmin = 0\nspacing = log\n",
                    "[rates] spacing=log requires min > 0"),
    "family": ("drf", "[source]\nkind = stationary\nfamily = gaussian\n",
               "unknown spectral family 'gaussian' for key 'family'"),
    "pulse": ("drf", "[source]\nkind = pam\npulse = sinc\n",
              "unknown pulse 'sinc' for key 'pulse'"),
    "spectra": ("spectra", "[source]\nkind = sampled-coding\n",
                "spectra is not available for source kind 'sampled-coding'"),
    "verify": ("verify", "[source]\nkind = sampled-coding\n",
               "verify is not available for source kind 'sampled-coding'"),
}


@pytest.mark.parametrize("command, text, line", CONFIG_REFUSALS.values(),
                         ids=CONFIG_REFUSALS.keys())
def test_a_refused_scenario_exits_2_with_its_reason(tmp_path, capsys, command, text, line):
    out = tmp_path / "x.csv"
    assert main([command, "--config", _write(tmp_path, "x.ini", text), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: {line}\n"
    assert not out.exists()


def test_rate_beyond_the_bracket_is_a_numeric_failure(tmp_path, capsys):
    cfg = _write(tmp_path, "big.ini", STATIONARY_CFG.replace("max = 4.0", "max = 1e6"))
    assert main(["drf", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric failure: drf at rate ") and "exceeds" in err, err
    assert not (tmp_path / "x.csv").exists()
    cfg = _write(tmp_path, "bigb.ini", VERIFY_CFG.replace("max = 8.0", "max = 1e6"))
    assert main(["bound", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric failure: lower_bound: ") and "exceeds" in err, err
    assert not (tmp_path / "x.csv").exists()


DECOMPOSITION_FAILURES = [
    csdrf.NotPositiveSemidefinite("eigenvalue -1 below tolerance at batch index 0", 0),
    np.linalg.LinAlgError("Eigenvalues did not converge"),
]


@pytest.mark.parametrize("failure", DECOMPOSITION_FAILURES, ids=lambda e: type(e).__name__)
def test_failed_kernel_decomposition_is_a_numeric_failure(tmp_path, capsys, monkeypatch, failure):
    def failing(kernel):
        raise failure

    monkeypatch.setattr(csdrf.oracle, "kl_drf", failing)
    cfg = _write(tmp_path, "v.ini", VERIFY_CFG)
    assert main(["verify", "--config", cfg]) == 3
    err = capsys.readouterr().err
    assert err == f"numeric failure: oracle: {failure}\n", err


def test_failed_field_decomposition_is_a_numeric_failure(tmp_path, capsys, monkeypatch):
    # R(0) = 1, R(+-1) = 2: the spectrum 1 + 4 cos(2 pi phi) is negative near phi = 1/2
    proc = csdrf.DiscreteCsProcess([[2.0, 1.0, 2.0]])
    monkeypatch.setattr(csdrf.cli, "make_discrete", lambda sc: proc)
    cfg = _write(tmp_path, "d.ini", VERIFY_CFG)
    out = tmp_path / "x.csv"
    assert main(["drf", "--config", cfg, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric failure: drf: node ") and "below tolerance" in err, err
    assert not out.exists()
    assert main(["spectra", "--config", cfg, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric failure: spectra: eigenvalue ") and "below" in err, err
    assert not out.exists()


def test_nonconverging_eigensolver_is_a_numeric_failure(tmp_path, capsys, monkeypatch):
    def failing(mats):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", failing)
    # a source with memory: a white source's diagonal field calls no eigensolver
    cfg = _write(tmp_path, "d.ini", VERIFY_CFG.replace("variances = 1 4\n", MODULATED_MA))
    out = tmp_path / "x.csv"
    assert main(["drf", "--config", cfg, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric failure: drf: eigensolver failed on a batch"), err
    assert not out.exists()


def test_nonconvergence_exit_code_and_flag(tmp_path):
    cfg_text = """
[source]
kind = am
family = triangular
bandwidth = 1.0
f0 = 1.2

[rates]
min = 1.0
max = 1.0
count = 1
spacing = linear

[numerics]
m_start = 4
m_max = 8
convergence_tol = 0.0
"""
    cfg = _write(tmp_path, "nc.ini", cfg_text)
    out = str(tmp_path / "nc.csv")
    assert main(["drf", "--config", cfg, "--out", out]) == 3
    assert main(["drf", "--config", cfg, "--out", out, "--allow-nonconverged"]) == 0
    rows = _read_rows(out)
    assert rows[0]["converged"] == "false"


def test_bound_subcommand(tmp_path):
    cfg = _write(tmp_path, "v.ini", VERIFY_CFG)
    out = str(tmp_path / "b.csv")
    assert main(["bound", "--config", cfg, "--out", out]) == 0
    rows = _read_rows(out)
    assert all(r["method"] == "lower_bound" for r in rows)
    assert len(rows) == 6


def test_spectra_dump_stationary_single_eigenvalue(tmp_path):
    cfg = _write(tmp_path, "s.ini", STATIONARY_CFG)
    out = str(tmp_path / "sp.csv")
    assert main(["spectra", "--config", cfg, "--out", out]) == 0
    rows = _read_rows(out)
    base = flat_psd(1.0, 1.0)
    period = 0.5 / base.support_radius
    for row in rows[:: max(1, len(rows) // 16)]:
        phi = float(row["phi"])
        # single eigenvalue equals the folded density (one alias in band)
        expect = base(np.array([phi / period]))[0] / period
        assert float(row["lambda_1"]) == pytest.approx(expect, abs=1e-12)


def test_spectra_dump_am_top_eigenvalue_identity(tmp_path):
    cfg = _write(tmp_path, "am.ini", AM_CFG + "\n[numerics]\nspectra_m = 8\n")
    out = str(tmp_path / "sp.csv")
    assert main(["spectra", "--config", cfg, "--out", out]) == 0
    rows = _read_rows(out)
    base = triangular_psd(1.0, 1.0)
    for row in rows[:: max(1, len(rows) // 16)]:
        phi = float(row["phi"])
        expect = 8 * 4.0 * base(np.array([4.0 * phi]))[0]
        assert float(row["lambda_8"]) == pytest.approx(expect, rel=1e-9, abs=1e-9)


def test_spectra_dump_pam_rank_one_from_file(tmp_path):
    cfg_text = """
[source]
kind = pam
family = triangular
bandwidth = 1.0
pulse = raised_cosine
pulse_beta = 0.3
symbol_rate = 1.25

[numerics]
spectra_m = 6
spectra_points = 128
"""
    cfg = _write(tmp_path, "p.ini", cfg_text)
    out = str(tmp_path / "sp.csv")
    assert main(["spectra", "--config", cfg, "--out", out]) == 0
    rows = _read_rows(out)
    lam_top = np.array([float(r["lambda_6"]) for r in rows])
    lam_second = np.array([float(r["lambda_5"]) for r in rows])
    mask = lam_top > 1e-12 * lam_top.max()
    assert np.all(lam_second[mask] / lam_top[mask] <= 1e-10)


def test_sampled_coding_scenario(tmp_path):
    cfg_text = """
[source]
kind = sampled-coding
family = flat
bandwidth = 1.0
sampling_rate = 2.0

[rates]
min = 0.5
max = 3.0
count = 3
spacing = linear

[methods]
methods = drf baseband
"""
    cfg = _write(tmp_path, "sc.ini", cfg_text)
    out = str(tmp_path / "sc.csv")
    assert main(["drf", "--config", cfg, "--out", out]) == 0
    rows = _read_rows(out)
    drf_d = {r["rate_bits"]: float(r["distortion"]) for r in rows if r["method"] == "drf"}
    bb_d = {r["rate_bits"]: float(r["distortion"]) for r in rows if r["method"] == "baseband"}
    # above the Nyquist rate the sampling costs nothing
    for rate, d in drf_d.items():
        assert d == pytest.approx(bb_d[rate], rel=1e-9)
    # the rows are the MMSE plus the coded estimate's D, and theta is on the
    # estimate's density: fs times the PAM level
    fs = 2.0
    mmse, sw = sampled_coding(flat_psd(1.0, 1.0), fs, 2048)
    for row in (r for r in rows if r["method"] == "drf"):
        pt = sw.solve(float(row["rate_bits"]))
        assert float(row["distortion"]) == mmse + pt.distortion
        assert float(row["theta"]) == fs * pt.theta


def test_console_entry_point():
    # run from the directory holding the imported package, so no install is needed
    res = subprocess.run([sys.executable, "-m", "csdrf.cli", "drf", "--config",
                          "/nonexistent.ini"], capture_output=True, text=True,
                         cwd=Path(csdrf.__file__).parents[1])
    assert res.returncode == 2


# one tiny scenario per source kind; PAM has two symbol rates, so two sources
TINY = {
    "stationary": "family = triangular\n",
    "discrete-cs": "variances = 1 4\n",
    "am": "family = triangular\nf0 = 1.2\n",
    "pam": "family = flat\nbandwidth = 0.5\npulse = triangle\nsymbol_rates = 0.5 0.9\n",
    "sampled-coding": "sampling_rate = 1.5\n",
}
# the methods each kind offers, as the README tables them
OFFERS = {
    "stationary": {"drf", "oracle"},
    "discrete-cs": {"drf", "lower_bound", "oracle"},
    "am": {"drf", "lower_bound", "oracle", "baseband", "upper_bound_gaussian_psd"},
    "pam": {"drf", "lower_bound", "oracle", "baseband"},
    "sampled-coding": {"drf", "baseband"},
}
TINY_NUMERICS = """
[rates]
min = 0.5
max = 2.0
count = 3
spacing = linear

[numerics]
phi_grid = 128
m_start = 4
m_max = 8
oracle_n = 48
oracle_periods = 2
t_grid = 4
"""


def _tiny(tmp_path, kind, methods, extra=""):
    text = (f"[source]\nkind = {kind}\n{TINY[kind]}{extra}{TINY_NUMERICS}\n"
            f"[methods]\nmethods = {methods}\n")
    return _write(tmp_path, f"{kind}.ini", text)


@pytest.mark.parametrize("kind", sorted(SOURCES))
def test_every_tabled_method_runs(tmp_path, kind):
    sc = load_scenario(_tiny(tmp_path, kind, "drf"))
    sources = SOURCES[kind](sc)
    methods = {m for src in sources for m in src.curves}
    assert methods == OFFERS[kind]
    for method in sorted(methods):
        for src in sources:
            if method in src.curves:
                points, failure = src.curves[method](sc.rates)
                assert failure is None and len(points) == len(sc.rates), method
        out = str(tmp_path / f"{method}.csv")
        assert main(["drf", "--config", _tiny(tmp_path, kind, method), "--out", out]) == 0, method
        rows = _read_rows(out)
        offering = [src for src in sources if method in src.curves]
        labels = [method + src.tag for src in offering for _ in range(3)]
        assert [r["method"] for r in rows] == labels
        assert all(r["converged"] == "true" for r in rows)
        assert all(np.isfinite(float(r["distortion"])) for r in rows)


@pytest.mark.parametrize("kind, method", [
    ("stationary", "lower_bound"), ("stationary", "baseband"), ("discrete-cs", "baseband"),
    ("sampled-coding", "oracle"), ("pam", "upper_bound_gaussian_psd"),
    ("am", "baseline"), ("pam", "baseline"), ("sampled-coding", "baseline")])
def test_unsupported_method_is_a_config_error(tmp_path, capsys, kind, method):
    cfg = _tiny(tmp_path, kind, f"drf {method}")
    assert main(["drf", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2
    err = capsys.readouterr().err
    assert repr(method) in err and "[methods] methods" in err
    assert not (tmp_path / "x.csv").exists()


def test_empty_method_list_is_a_config_error(tmp_path, capsys):
    out = tmp_path / "x.csv"
    cfg = _tiny(tmp_path, "am", "")
    assert main(["drf", "--config", cfg, "--out", str(out)]) == 2
    assert "[methods] methods" in capsys.readouterr().err
    assert not out.exists()
    # include_baseband alone still names a method
    cfg = _tiny(tmp_path, "am", "", "include_baseband = true\n")
    assert main(["drf", "--config", cfg, "--out", str(out)]) == 0
    assert [r["method"] for r in _read_rows(str(out))] == ["baseband"] * 3


def test_rows_follow_method_order(tmp_path):
    out = str(tmp_path / "p.csv")
    cfg = _tiny(tmp_path, "pam", "baseband lower_bound drf")
    assert main(["drf", "--config", cfg, "--out", out]) == 0
    labels = [r["method"] for r in _read_rows(out)]
    expect = ["baseband", "lower_bound:fs=0.5", "lower_bound:fs=0.9", "drf:fs=0.5", "drf:fs=0.9"]
    assert labels == [label for label in expect for _ in range(3)]
    # include_baseband appends the baseband block after the configured methods
    cfg = _tiny(tmp_path, "am", "drf", "include_baseband = true\n")
    assert main(["drf", "--config", cfg, "--out", out]) == 0
    assert [r["method"] for r in _read_rows(out)] == ["drf"] * 3 + ["baseband"] * 3


def test_pam_labels_keep_every_digit_of_the_symbol_rate(tmp_path):
    # six significant digits wrote both curves as drf:fs=0.123457
    out = str(tmp_path / "p.csv")
    pam = f"[source]\nkind = pam\n{TINY['pam']}{TINY_NUMERICS}"
    cfg = _write(tmp_path, "p.ini", pam.replace("0.5 0.9", "0.1234567 0.1234568"))
    assert main(["drf", "--config", cfg, "--out", out]) == 0
    assert [r["method"] for r in _read_rows(out)] == \
        ["drf:fs=0.1234567"] * 3 + ["drf:fs=0.1234568"] * 3


def test_a_key_that_some_kind_reads_is_accepted_by_every_kind(tmp_path):
    other = "pulse = rect\npulse_beta = 0.3\nsymbol_rate = 2\nnormalize_power = true\n"
    cfg = _tiny(tmp_path, "stationary", "drf", other + "include_baseband = false\nf0 = 3\n")
    assert main(["drf", "--config", cfg, "--out", str(tmp_path / "s.csv")]) == 0


AM_PHASE_CFG = """
[source]
kind = am
family = triangular
f0 = 1.2
phase = 0.7

[rates]
min = 1.0
max = 1.0
count = 1
spacing = linear

[numerics]
m_start = 1
m_max = 2
oracle_n = 64
"""


def test_verify_am_uses_phase_and_convergence(tmp_path, capsys):
    cfg = _write(tmp_path, "amp.ini", AM_PHASE_CFG)
    out = str(tmp_path / "amp.csv")
    assert main(["drf", "--config", cfg, "--out", out, "--allow-nonconverged"]) == 0
    row = _read_rows(out)[0]
    assert row["converged"] == "false"
    capsys.readouterr()
    main(["verify", "--config", cfg, "--allow-nonconverged"])
    assert f"fast={float(row['distortion']):.12g} " in capsys.readouterr().out
    assert main(["verify", "--config", cfg]) == 3
    assert "did not converge" in capsys.readouterr().err


def test_successive_calls_share_the_parser_and_no_state(tmp_path, monkeypatch, capsys):
    # main's parser is built once per process, build_parser's anew on each
    # call; the options of one main call reach neither a later call nor a
    # later parse, whatever their commands
    assert _parser() is _parser()
    assert build_parser() is not build_parser()
    monkeypatch.chdir(tmp_path)
    cfg = _write(tmp_path, "amp.ini", AM_PHASE_CFG)      # [output] path defaults to out.csv
    for command in ("drf", "bound", "spectra", "verify"):
        main([command, "--config", cfg, "--out", str(tmp_path / f"{command}.csv"),
              "--allow-nonconverged"])
    assert _read_rows(tmp_path / "drf.csv")[0]["converged"] == "false"
    capsys.readouterr()
    assert main(["spectra", "--config", cfg]) == 0
    assert (tmp_path / "out.csv").read_text().startswith("phi,f,")
    assert main(["verify", "--config", cfg]) == 3
    assert "did not converge" in capsys.readouterr().err
    for command in ("drf", "bound", "spectra", "verify"):
        args = _parser().parse_args([command, "--config", "b.ini"])
        assert (args.command, args.config, args.out, args.allow_nonconverged) == (
            command, "b.ini", None, False)


# ---------------------------------------------------------------------------
# expensive state is built once per curve
# ---------------------------------------------------------------------------

def _curve_cfg(tmp_path, kind, count, source=None):
    text = (f"[source]\nkind = {kind}\n{source or TINY[kind]}\n"
            f"[rates]\nmin = 0.2\nmax = 2.0\ncount = {count}\nspacing = log\n\n"
            "[numerics]\nphi_grid = 128\nm_start = 4\nm_max = 8\n"
            "oracle_n = 48\noracle_periods = 2\nt_grid = 4\n")
    return _write(tmp_path, f"{kind}-{count}{'-own' if source else ''}.ini", text)


# a discrete source with memory: its periodized block is decomposed as P
# small matrices, one per frequency of the period index
MODULATED_MA = "mod_scales = 1 0.5\nma_taps = 1 0.4\n"


@pytest.mark.parametrize("kind, source, shapes", [
    ("stationary", None, [(24, 24)] * 2), ("discrete-cs", None, []),
    ("discrete-cs", MODULATED_MA, [(24, 2, 2)]), ("am", None, [(24, 24)] * 2), ("pam", None, [])],
    ids=["stationary", "discrete-cs", "modulated-ma", "am", "pam"])
def test_verify_decomposes_each_kernel_once(tmp_path, monkeypatch, capsys, kind, source, shapes):
    # one oracle decomposition per curve; the memoryless block is diagonal
    # and the triangle-pulse PAM kernel is decomposed in symbol space, so
    # neither makes a dense call; the stationary and phase-0 AM kernels equal
    # their reversal J K J and are decomposed as two (24, 24) halves, and the
    # modulated-MA block of 24 periods makes no dense call but one batched
    # call on 24 blocks of size 2 x 2
    kl_drf = csdrf.oracle.kl_drf
    eigvalsh = np.linalg.eigvalsh
    decompositions, oracle_shapes = [], []

    def recording_kl_drf(block):
        decompositions.append(block)
        return kl_drf(block)

    def recording_eigvalsh(a, *args, **kwargs):
        if np.shape(a) in ((48, 48), (24, 24), (24, 2, 2)):
            oracle_shapes.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(csdrf.oracle, "kl_drf", recording_kl_drf)
    monkeypatch.setattr(np.linalg, "eigvalsh", recording_eigvalsh)
    main(["verify", "--config", _curve_cfg(tmp_path, kind, 8, source), "--allow-nonconverged"])
    assert capsys.readouterr().out.count("rate=") == 8
    assert len(decompositions) == 1
    assert oracle_shapes == shapes


# AM at a phase other than 0 and pi/2: the kernel does not commute with the
# reversal, so it is decomposed whole
AM_OFF_REVERSAL_CFG = """
[source]
kind = am
family = triangular
bandwidth = 1.0
power = 1.0
f0 = 2.5
phase = 0.3
"""


def test_verify_decomposes_an_am_kernel_off_the_reversal_dense(tmp_path, monkeypatch, capsys):
    # default numerics: one dense (256, 256) call; the plain window's edge
    # bias may exceed oracle_tol, so verify may exit 3 (ROADMAP item 4)
    eigvalsh = np.linalg.eigvalsh
    kernel_shapes = []

    def recording_eigvalsh(a, *args, **kwargs):
        if np.ndim(a) == 2 and np.shape(a)[0] >= 128:
            kernel_shapes.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", recording_eigvalsh)
    code = main(["verify", "--config", _write(tmp_path, "am-phase.ini", AM_OFF_REVERSAL_CFG)])
    assert code in (0, 3)
    assert kernel_shapes == [(256, 256)]
    assert "max_rel_gap=" in capsys.readouterr().out


@pytest.mark.parametrize("kind", ["discrete-cs", "am", "pam"])
def test_bound_folds_each_profile_once_per_curve(tmp_path, monkeypatch, kind):
    calls = []

    def record(owner, name):
        original = getattr(owner, name)

        def recording(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        monkeypatch.setattr(owner, name, recording)

    # the continuous bounds fold their harmonics in ``phase_spectra``, once per
    # curve, and evaluate the phases from those folds block by block
    record(csdrf.spectra.CyclicSpectrum, "phase_spectra")
    record(csdrf.spectra.PamCyclicSpectrum, "phase_spectra")
    record(csdrf.drf, "component_spectra")
    counts = []
    for count in (2, 8):
        calls.clear()
        out = str(tmp_path / f"b{count}.csv")
        assert main(["bound", "--config", _curve_cfg(tmp_path, kind, count), "--out", out]) == 0
        assert len(_read_rows(out)) == count
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


@pytest.mark.parametrize("kind", ["discrete-cs", "am", "pam"])
def test_bound_solves_each_profile_without_evaluating_the_rate_map(tmp_path, monkeypatch, kind):
    # the bound solves its profiles in closed form: no bisection step runs
    calls = []
    rate = csdrf.waterfilling.ScalarWaterfiller.rate
    monkeypatch.setattr(csdrf.waterfilling.ScalarWaterfiller, "rate",
                        lambda self, theta: calls.append(theta) or rate(self, theta))
    for count in (2, 8):
        out = str(tmp_path / f"b{count}.csv")
        assert main(["bound", "--config", _curve_cfg(tmp_path, kind, count), "--out", out]) == 0
        assert len(_read_rows(out)) == count
    assert calls == []


def test_sampled_coding_builds_one_waterfiller_per_curve(tmp_path, monkeypatch):
    # the estimate's waterfiller serves every rate of the curve and its MMSE
    built = []
    init = csdrf.waterfilling.ScalarWaterfiller.__init__

    def recording(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(csdrf.waterfilling.ScalarWaterfiller, "__init__", recording)
    for count in (2, 8):
        built.clear()
        out = str(tmp_path / f"s{count}.csv")
        assert main(["drf", "--config", _curve_cfg(tmp_path, "sampled-coding", count),
                     "--out", out]) == 0
        assert len(_read_rows(out)) == count
        assert len(built) == 1


def test_fig6_refinement_never_decomposes_beyond_its_alias_count(tmp_path, monkeypatch):
    # fig6's source with every level of the schedule up to M = 64: the solver
    # decomposes the live parity blocks of folded alias matrices, never the
    # M x M polyphase matrix, and only the levels up to the first one at or
    # above the s = 5 aliases that can be nonzero; M = 16, 32 and 64 are
    # exact rescales of M = 8
    shipped = (Path(__file__).resolve().parent.parent / "configs" / "fig6.ini").read_text()
    assert "convergence_tol = 1e-4" in shipped
    cfg = _write(tmp_path, "fig6-all-levels.ini",
                 shipped.replace("convergence_tol = 1e-4", "convergence_tol = 0"))
    sc = load_scenario(cfg)
    spec = csdrf.am_cpsd(csdrf.triangular_psd(sc.bandwidth, sc.power), sc.f0, sc.phase)
    aliases = 2 * (math.ceil(0.5 + spec.period * spec.freq_radius) + 1) + 1
    nonzero = 2 * math.floor(spec.period * spec.freq_radius + 0.5) + 1
    decompose = csdrf.waterfilling.hermitian_eigenvalues
    widths = []

    def recording(mats):
        widths.append(np.shape(mats)[-1])
        return decompose(mats)

    monkeypatch.setattr(csdrf.waterfilling, "hermitian_eigenvalues", recording)
    out = str(tmp_path / "fig6.csv")
    assert main(["drf", "--config", cfg, "--out", out, "--allow-nonconverged"]) == 0
    assert {row["M"] for row in _read_rows(out) if row["method"] == "drf"} == {"64"}
    assert (aliases, nonzero) == (9, 5)
    # one call per block size in every slice: M = 4 (side 4, the residues
    # {0, 2} and {1, 3}) and M = 8 (side 8; the live aliases k = -2..2 sit on
    # residues 2..6, split into {2, 4, 6} and {3, 5})
    assert set(widths) == {2, 3} and max(widths) <= nonzero


# AM at f0 = f_B / 16 with the single level M = 1, which resolves at most
# 3.75 bits per second: the rate 4 underflows at the last level of the schedule
LAST_LEVEL_CFG = """
[source]
kind = am
family = flat
bandwidth = 1.0
power = 1.0
f0 = 0.0625

[rates]
min = 1.0
max = 4.0
count = 4
spacing = linear

[numerics]
m_start = 1
m_max = 1
phi_grid = 256
"""


def _bisection_underflow(path):
    """The message of a per-rate bisection at the last level, at rate 4."""
    sc = load_scenario(path)
    spec = csdrf.am_cpsd(csdrf.flat_psd(sc.bandwidth, sc.power), sc.f0, sc.phase)
    solver = csdrf.ContinuousDrfSolver(spec, csdrf.ContinuousDrfConfig(
        sc.m_start, sc.m_max, None, sc.convergence_tol, sc.phi_grid))
    with pytest.raises(csdrf.WaterLevelUnderflow) as info:
        solver.eigen_field(sc.m_max).waterfiller(1.0 / (2.0 * spec.period)).solve(4.0)
    return str(info.value)


def test_underflow_at_the_last_level_fails_at_its_rate(tmp_path, capsys):
    # with every row allowed to be non-converged, the rates 1..3 pass and the
    # rate 4 fails with the message of a rate-by-rate solve, in either order
    for name, text in (("up", LAST_LEVEL_CFG),
                       ("down", LAST_LEVEL_CFG.replace("min = 1.0", "min = 4.0")
                        .replace("max = 4.0", "max = 1.0"))):
        cfg = _write(tmp_path, f"{name}.ini", text)
        expect = f"numeric failure: drf at rate 4.0: {_bisection_underflow(cfg)}\n"
        out = str(tmp_path / f"{name}.csv")
        assert main(["drf", "--config", cfg, "--out", out, "--allow-nonconverged"]) == 3
        assert capsys.readouterr().err == expect
        assert not Path(out).exists()
    # the descending curve reaches rate 4 first, before any non-converged row
    assert main(["drf", "--config", cfg, "--out", out]) == 3
    assert capsys.readouterr().err == expect


def test_nonconverged_earlier_rate_wins_over_a_later_underflow(tmp_path, capsys):
    cfg = _write(tmp_path, "up.ini", LAST_LEVEL_CFG)
    out = str(tmp_path / "up.csv")
    assert main(["drf", "--config", cfg, "--out", out]) == 3
    assert capsys.readouterr().err == "numeric failure: drf at rate 1.0 did not converge by M=1\n"
    assert not Path(out).exists()


# On a two-node grid the field of a period-1 MA source with taps (1, 0.5) is
# one level, S(1/4) = 1.25, which resolves 60 bits per symbol; the eigenvalues
# 2.25, 0.75 and 0.75 of its periodized 3-symbol block resolve only 59.47
ONE_LEVEL_CFG = """
[source]
kind = discrete-cs
mod_scales = 1
ma_taps = 1 0.5

[rates]
min = {lo}
max = {hi}
count = {count}
spacing = linear

[numerics]
phi_grid = 2
oracle_n = 3
"""


def _one_level_block():
    return csdrf.kl_drf(csdrf.oracle.PeriodizedBlock.from_process(
        csdrf.modulated_ma([1.0], [1.0, 0.5]), 3))


def test_oracle_underflow_fails_at_its_rate(tmp_path, capsys):
    # the oracle alone fails at 59.7, with the message of a rate-by-rate solve
    cfg = _write(tmp_path, "o.ini", ONE_LEVEL_CFG.format(lo=1.0, hi=59.7, count=3))
    with pytest.raises(csdrf.WaterLevelUnderflow) as info:
        _one_level_block().solve(59.7)
    assert main(["drf", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 0
    assert main(["verify", "--config", cfg]) == 3
    out = capsys.readouterr()
    assert out.err == f"numeric failure: oracle at rate 59.7: {info.value}\n" and out.out == ""


def test_verify_fails_at_the_first_rate_that_any_curve_fails(tmp_path, capsys):
    # the same source at 59.7 and 60.1: only the oracle fails at 59.7, both
    # curves fail at 60.1. The oracle's failure at the earlier rate wins,
    # whatever the drf curve does later
    cfg = _write(tmp_path, "o.ini", ONE_LEVEL_CFG.format(lo=59.7, hi=60.1, count=2))
    with pytest.raises(csdrf.WaterLevelUnderflow) as info:
        _one_level_block().solve(59.7)
    assert main(["drf", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 3
    assert capsys.readouterr().err.startswith("numeric failure: drf at rate 60.1: ")
    assert main(["verify", "--config", cfg]) == 3
    out = capsys.readouterr()
    assert out.err == f"numeric failure: oracle at rate 59.7: {info.value}\n" and out.out == ""


def _first_underflow(solve, rates):
    """(position, exception) of the first of ``rates`` that ``solve`` refuses."""
    for i, rate in enumerate(rates):
        try:
            solve(rate)
        except csdrf.WaterLevelUnderflow as exc:
            return i, exc
    raise AssertionError("no rate past the edge")


def _run(argv):
    """(exit code, stdout, stderr) of ``main(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=40, deadline=None)
@given(lo=st.floats(50.0, 59.4), hi=st.floats(60.05, 62.0), count=st.integers(2, 12),
       descending=st.booleans())
@example(lo=59.0, hi=61.0, count=5, descending=False)     # the oracle fails first, at 59.5
@example(lo=59.0, hi=61.0, count=2, descending=False)     # both fail first at 61
def test_each_curve_stops_at_its_first_rate_past_an_edge(lo, hi, count, descending):
    # linear grids over both edges of the one-level source, either way round.
    # Each curve returns the points of the rates before its first rate past
    # its edge, in configured order, and that rate's failure; drf, bound and
    # verify exit 3 with the message of a rate-by-rate solve, and verify with
    # whichever of its curves fails first, drf at a rate past both edges
    proc = csdrf.modulated_ma([1.0], [1.0, 0.5])
    lo, hi = (hi, lo) if descending else (lo, hi)
    with tempfile.TemporaryDirectory() as tmp:
        cfg = _write(Path(tmp), "o.ini", ONE_LEVEL_CFG.format(lo=lo, hi=hi, count=count))
        out = str(Path(tmp) / "x.csv")
        sc = load_scenario(cfg)
        rates = sc.rates
        at = {"drf": _first_underflow(csdrf.discrete_waterfiller(proc, 2).solve, rates),
              "oracle": _first_underflow(_one_level_block().solve, rates)}
        edges = {"drf": 60.0, "oracle": 60.0 - math.log2(3.0) / 3.0}
        (src,) = SOURCES["discrete-cs"](sc)
        for method, solve in (("drf", "solve"), ("oracle", "solve_many")):
            i, exc = at[method]
            assert rates[i] > edges[method] >= rates[:i].max(initial=0.0), method
            with mock.patch.object(csdrf.ScalarWaterfiller, solve, autospec=True,
                                   side_effect=getattr(csdrf.ScalarWaterfiller, solve)) as spy:
                points, failure = src.curves[method](rates)
            assert len(points) == i and str(failure) == str(exc), method
            # the bisection stops at the failing rate; the exact solve makes
            # one call more, on the rates before it
            solved = [np.size(call.args[1]) for call in spy.call_args_list]
            assert solved == ([1] * (i + 1) if method == "drf" else [rates.size, i]), method
        i_bound, _ = _first_underflow(lambda r: csdrf.lower_bound_discrete(proc, r, 2), rates)
        with pytest.raises(csdrf.WaterLevelUnderflow) as bound:
            csdrf.lower_bound_discrete(proc, rates, 2)
        assert f"target rate {rates[i_bound]} " in str(bound.value)
        want = {method: f"numeric failure: {method} at rate {rates[i]}: {exc}\n"
                for method, (i, exc) in at.items()}
        assert _run(["drf", "--config", cfg, "--out", out]) == (3, "", want["drf"])
        assert _run(["bound", "--config", cfg, "--out", out]) == \
            (3, "", f"numeric failure: lower_bound: {bound.value}\n")
        first = "drf" if at["drf"][0] <= at["oracle"][0] else "oracle"
        assert _run(["verify", "--config", cfg]) == (3, "", want[first])
        assert not Path(out).exists()


@pytest.mark.parametrize("section, key, value", [
    ("rates", "count", 10 ** 19), ("numerics", "phi_grid", 10 ** 19),
    ("numerics", "t_grid", 10 ** 19), ("numerics", "spectra_points", 10 ** 19),
    ("numerics", "oracle_n", 10 ** 19), ("numerics", "spectra_m", 10 ** 19),
    ("numerics", "oracle_n", 10 ** 9),          # an n x n kernel of 1e18 entries
    ("numerics", "spectra_m", 10 ** 8),         # 512 matrices of 1e16 entries
])
def test_a_key_that_sizes_an_array_beyond_numpy_is_a_config_error(tmp_path, capsys, section,
                                                                   key, value):
    # refused before any array is made: no size here is ever allocated
    text = (STATIONARY_CFG.replace("count = 5", f"count = {value}") if key == "count"
            else STATIONARY_CFG + f"\n[numerics]\n{key} = {value}\n")
    cfg = _write(tmp_path, "big.ini", text)
    out = tmp_path / "out.csv"
    for command in ("drf", "bound", "verify", "spectra"):
        assert main([command, "--config", cfg, "--out", str(out)]) == 2, command
        err = capsys.readouterr().err
        assert err.startswith(f"config error: [{section}] {key} ") and "576460752303423487" in err
    assert not out.exists()
    # the bound is on the entries: a side of 1e8 is a kernel of 1e16 entries
    assert load_scenario(_write(tmp_path, "n.ini", STATIONARY_CFG + "\n[numerics]\n"
                                "oracle_n = 100000000\n")).oracle_n == 10 ** 8


@pytest.mark.parametrize("where", ["load_scenario", "stationary_waterfiller"])
def test_an_allocation_that_fails_is_a_numeric_failure(tmp_path, capsys, monkeypatch, where):
    # the message numpy gives when the machine cannot hold an array
    message = ("Unable to allocate 72.8 TiB for an array with shape (10000000000000,) "
               "and data type float64")

    def refuse(*args):
        raise MemoryError(message)

    monkeypatch.setattr(csdrf.cli, where, refuse)
    cfg = _write(tmp_path, "s.ini", STATIONARY_CFG)
    out = tmp_path / "out.csv"
    assert main(["drf", "--config", cfg, "--out", str(out)]) == 3
    assert capsys.readouterr().err == f"numeric failure: {message}\n"
    assert not out.exists()


# sources whose values come near or past the float range, with the exit code
# of drf, bound, verify and spectra: a covariance table whose power overflows
# is refused, every symmetrization halves before it adds, so the spectral
# matrices stay finite, and the stationary kernel's reversal halves, of about
# n x 1e308, overflow: verify names the overflow. No call prints a warning.
OVERFLOWING = {
    "lopsided-variances": ("kind = discrete-cs\nvariances = 1e308 1e-300\n", (0, 0, 0, 0)),
    "stationary-power": ("kind = stationary\nfamily = flat\npower = 1e308\n", (0, 2, 3, 0)),
    "variances-power": ("kind = discrete-cs\nvariances = 1.5e308 1e308\n", (2, 2, 2, 2)),
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("source, codes", OVERFLOWING.values(), ids=OVERFLOWING.keys())
def test_no_command_exits_0_with_a_non_finite_value(tmp_path, capsys, source, codes):
    cfg = _write(tmp_path, "x.ini", f"[source]\n{source}\n[rates]\nmin = 1\nmax = 2\ncount = 2\n")
    out = tmp_path / "x.csv"
    for command, code in zip(("drf", "bound", "verify", "spectra"), codes):
        out.unlink(missing_ok=True)
        assert main([command, "--config", cfg, "--out", str(out)]) == code, command
        printed, err = capsys.readouterr()
        if code == 0:
            text = printed + (out.read_text() if command != "verify" else "")
            values = [float(x) for x in re.split(r"[\s,=]+", text) if _is_float(x)]
            assert values and all(math.isfinite(v) for v in values), command
        elif code == 2 and "discrete" in source:
            assert err.startswith("config error: [source] variances: ") and "not finite" in err
        elif command == "verify":
            assert err == ("numeric failure: oracle: a decomposition of the window of size 256 "
                           "overflowed; max |entry| = 1.000e+308\n")


def _is_float(text):
    try:
        float(text)
    except ValueError:
        return False
    return True


def test_discrete_oracle_takes_whole_periods(tmp_path, capsys, monkeypatch):
    # oracle_n = 256 is not a multiple of the period 3: the block is 255
    # symbols, whose slot counts are equal, so its D(0) is sigma^2 and the
    # memoryless oracle is the fast path up to rounding
    cfg = _write(tmp_path, "w.ini", VERIFY_CFG.replace("variances = 1 4", "variances = 1 4 2")
                 + "\n[numerics]\noracle_n = 256\n")
    sizes = []
    from_process = csdrf.oracle.PeriodizedBlock.from_process
    monkeypatch.setattr(csdrf.oracle.PeriodizedBlock, "from_process", staticmethod(
        lambda proc, n: sizes.append(n) or from_process(proc, n)))
    assert main(["verify", "--config", cfg]) == 0
    assert sizes == [255]
    gap = float(capsys.readouterr().out.split("max_rel_gap=")[1].split()[0])
    assert gap < 1e-12


# scenarios whose folds or alias series took unbounded time or memory before
# the model refused a T0 times support radius above MAX_ALIASES
EXTREME_RATIOS = [
    ("am", "f0 = 1.2\nbandwidth = 1e300\n", "drf bound verify spectra", "f0"),
    ("am", "f0 = 1.2\nbandwidth = 1e30\n", "drf", "f0"),
    ("am", "f0 = 1e-30\n", "drf", "f0"),
    ("am", "f0 = 1e-6\nbandwidth = 1\n", "drf", "f0"),
    ("pam", "symbol_rates = 1e-300\n", "drf bound verify spectra", "symbol_rates"),
    ("pam", "bandwidth = 1e300\n", "drf bound verify spectra", "symbol_rates"),
    ("pam", "symbol_rates = 1e-30\n", "drf", "symbol_rates"),
    ("sampled-coding", "sampling_rate = 1e-30\n", "drf", "sampling_rate"),
    ("sampled-coding", "sampling_rate = 1e-300\n", "drf", "sampling_rate"),
    ("sampled-coding", "bandwidth = 1e300\n", "drf", "sampling_rate"),
    ("sampled-coding", "bandwidth = 1\nsampling_rate = 0.01\n", "drf", "sampling_rate"),
    ("sampled-coding", "bandwidth = 1\nsampling_rate = 0.001\n", "drf", "sampling_rate"),
]


@pytest.mark.parametrize("kind, source, commands, key", EXTREME_RATIOS)
def test_extreme_bandwidth_to_rate_ratio_is_a_config_error(tmp_path, capsys, kind, source,
                                                            commands, key):
    grid = "" if kind == "sampled-coding" else "[numerics]\nphi_grid = 64\n"
    cfg = _write(tmp_path, "x.ini", f"[source]\nkind = {kind}\n{source}{grid}")
    for command in commands.split():
        start = time.perf_counter()
        assert main([command, "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2
        assert time.perf_counter() - start < 2.0, command
        err = capsys.readouterr().err
        assert err.startswith(f"config error: [source] bandwidth and {key}: ")
        assert "MAX_ALIASES" in err and not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("kind, source", [
    ("am", "family = triangular\nbandwidth = 63\nf0 = 1\n"),
    ("pam", "family = triangular\nbandwidth = 64\nsymbol_rates = 1\npulse = ideal\n"),
    ("sampled-coding", "family = triangular\nbandwidth = 64\nsampling_rate = 1\n"),
])
def test_sources_at_the_alias_bound_run(tmp_path, kind, source):
    # T0 times the support radius is exactly MAX_ALIASES = 64; tiny grids,
    # since the time this takes at the default grids is stated in the docs
    assert csdrf.spectra.MAX_ALIASES == 64
    cfg = _write(tmp_path, "x.ini", f"[source]\nkind = {kind}\n{source}{TINY_NUMERICS}")
    commands = ("drf",) if kind == "sampled-coding" else ("drf", "bound", "verify", "spectra")
    for command in commands:
        code = main([command, "--config", cfg, "--out", str(tmp_path / "x.csv"),
                     "--allow-nonconverged"])
        assert code in (0, 3), command


def test_refined_curve_builds_one_waterfiller_per_built_level_and_never_bisects(
        tmp_path, monkeypatch):
    # f0 = 0.45 f_B: s = 7, so M = 4 and M = 8 are built and 16..64 derived;
    # six rates share each built level's waterfiller and its exact solve
    cfg = _write(tmp_path, "am.ini", AM_CFG.replace("f0 = 4.0", "f0 = 0.45")
                 .replace("count = 4", "count = 6").replace("drf baseband", "drf")
                 + "\n[numerics]\nphi_grid = 256\nconvergence_tol = 0\n")
    init = csdrf.waterfilling.ScalarWaterfiller.__init__
    built, fields = [], []
    from_matrix = csdrf.waterfilling.EigenField.from_matrix

    def recording(self, *args, **kwargs):
        built.append(len(fields))
        init(self, *args, **kwargs)

    def recording_field(matrix, grid, d_scale=None):
        fields.append(matrix.dim)
        return from_matrix(matrix, grid, d_scale)

    def forbidden(self, *args):
        raise AssertionError("the refinement bisected")

    monkeypatch.setattr(csdrf.waterfilling.ScalarWaterfiller, "__init__", recording)
    monkeypatch.setattr(csdrf.waterfilling.ScalarWaterfiller, "solve", forbidden)
    monkeypatch.setattr(csdrf.waterfilling.ScalarWaterfiller, "rate", forbidden)
    monkeypatch.setattr(csdrf.waterfilling.EigenField, "from_matrix", recording_field)
    out = str(tmp_path / "am.csv")
    assert main(["drf", "--config", cfg, "--out", out, "--allow-nonconverged"]) == 0
    assert [row["M"] for row in _read_rows(out)] == ["64"] * 6
    # one waterfiller per built level, each built after its own field
    assert fields == [4, 8] and built == [1, 2]
