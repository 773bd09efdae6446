"""Config fuzzer: one bad or extreme value in one key never ends in a traceback.

Each example takes a tiny scenario of one source kind, sets one [source],
[rates], [methods] or [numerics] key to an edge value, and runs one command through
``cli.main`` with every method the kind offers. It must exit 0, 2 or 3; on
exit 2 the message names the key, or the command that the kind does not
offer; the rows written on exit 0 are finite.
"""

import contextlib
import csv
import io
import math
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from csdrf.cli import NUMERICS, SOURCES, main

# per kind: the [source] keys the fuzzer sets, the section it starts from,
# and the methods the kind offers
KINDS = {
    "stationary": (("bandwidth", "power"), {"family": "triangular"}, "drf oracle"),
    "am": (("bandwidth", "power", "f0", "phase"), {"family": "triangular", "f0": "1.2"},
           "drf baseband upper_bound_gaussian_psd lower_bound oracle"),
    "pam": (("bandwidth", "power", "symbol_rates", "pulse_beta"),
            {"family": "flat", "bandwidth": "0.5", "pulse": "raised_cosine",
             "symbol_rates": "0.9"},
            "drf baseband lower_bound oracle"),
    "sampled-coding": (("bandwidth", "power", "sampling_rate"), {"sampling_rate": "1.5"},
                       "drf baseband"),
    "discrete-cs": (("variances", "mod_scales", "ma_taps"), {"variances": "1 4"},
                    "drf lower_bound oracle"),
}
RATES = {"min": "0.5", "max": "2.0", "count": "3", "spacing": "linear"}
# grids small enough for a few milliseconds per call
NUMERIC_DEFAULTS = {"phi_grid": "32", "m_start": "2", "m_max": "4", "oracle_n": "16",
                    "oracle_periods": "2", "t_grid": "4"}
VALUES = ("0", "-1", "nan", "inf", "1e-300", "1e300", "x", "")


def test_every_kind_is_fuzzed():
    assert set(KINDS) == set(SOURCES)


@st.composite
def _keys(draw):
    kind = draw(st.sampled_from(sorted(KINDS)))
    section = draw(st.sampled_from(["source", "rates", "methods", "numerics"]))
    keys = {"source": KINDS[kind][0], "rates": tuple(RATES), "methods": ("methods",),
            "numerics": tuple(NUMERICS)}
    return kind, section, draw(st.sampled_from(keys[section]))


def _config(kind, section, key, value):
    _, source, methods = KINDS[kind]
    sections = {"source": {"kind": kind, **source}, "rates": dict(RATES),
                "numerics": dict(NUMERIC_DEFAULTS), "methods": {"methods": methods}}
    sections[section][key] = value
    return "".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items()) + "\n"
                   for name, keys in sections.items())


# the scenarios that once ended in a traceback, a run that did not finish, a
# non-finite row or no row: folds or alias series over too many lattice
# shifts, a bisection bracket that overflowed, a covariance table that
# overflowed, an empty method list
@example(case=("am", "methods", "methods"), command="drf", value="")
@example(case=("am", "source", "bandwidth"), command="drf", value="1e300")
@example(case=("am", "source", "bandwidth"), command="bound", value="1e300")
@example(case=("am", "source", "f0"), command="verify", value="1e-300")
@example(case=("pam", "source", "symbol_rates"), command="drf", value="1e-300")
@example(case=("pam", "source", "bandwidth"), command="bound", value="1e300")
@example(case=("pam", "source", "bandwidth"), command="verify", value="1e300")
@example(case=("sampled-coding", "source", "sampling_rate"), command="drf", value="1e-300")
@example(case=("sampled-coding", "source", "bandwidth"), command="drf", value="1e300")
@example(case=("stationary", "source", "power"), command="drf", value="1e300")
@example(case=("discrete-cs", "source", "variances"), command="drf", value="1e300")
@example(case=("discrete-cs", "source", "mod_scales"), command="verify", value="1e300")
@settings(max_examples=100, deadline=None)
@given(case=_keys(), command=st.sampled_from(["drf", "bound", "verify"]),
       value=st.sampled_from(VALUES))
def test_one_bad_key_exits_cleanly(case, command, value):
    kind, section, key = case
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp) / "fuzz.ini", Path(tmp) / "out.csv"
        cfg.write_text(_config(kind, section, key, value))
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main([command, "--config", str(cfg), "--out", str(out)])
        err = stderr.getvalue()
        assert code in (0, 2, 3), err
        if code == 2:
            assert key in err or f"{command} is not available" in err, err
        if code == 0 and command != "verify":
            with open(out, newline="") as fh:
                rows = list(csv.DictReader(fh))
            assert rows and all(math.isfinite(float(row[col])) for row in rows
                                for col in ("rate_bits", "distortion", "theta"))
