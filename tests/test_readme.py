"""The README's library examples run as written."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_quick_tour_runs():
    text = README.read_text()
    section = text[text.index("## Library quick tour"):]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(compile(block, "README.md quick tour", "exec"), namespace)
    # the comments' claims hold
    first = namespace["pt"]
    assert first.distortion == pytest.approx(1.0) and first.theta == pytest.approx(1.0)
    assert len(namespace["lb"]) == 2 and namespace["res"].converged
    assert namespace["res"].point.distortion <= namespace["ub"].distortion
    assert namespace["total"] == namespace["mmse"] + namespace["coder"].solve(1.0).distortion
