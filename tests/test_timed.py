import subprocess
import sys
from pathlib import Path

TIMED = Path(__file__).resolve().parents[1] / "tools" / "timed.py"


def _run(*argv, **kwargs):
    return subprocess.run([sys.executable, str(TIMED), *argv], capture_output=True, text=True,
                          timeout=60, **kwargs)


def test_timed_passes_the_exit_code_through_and_prints_wall_and_peak(tmp_path):
    # the child holds a 50 MB buffer, so its peak RSS reads above it
    child = "import sys; b = bytearray(50 * 2 ** 20); b[::4096] = b'x' * len(b[::4096]); sys.exit(3)"
    summary = tmp_path / "summary.md"
    out = _run(sys.executable, "-c", child, env={"GITHUB_STEP_SUMMARY": str(summary)})
    assert out.returncode == 3
    line = out.stdout.strip().splitlines()[-1]
    assert ": exit 3, wall " in line and line.endswith(" MB")
    assert float(line.split("peak RSS ")[1].split()[0]) > 50.0
    assert summary.read_text() == line + "\n"


def test_timed_without_a_command_prints_its_usage():
    out = _run()
    assert out.returncode == 2 and "tools/timed.py" in out.stderr
