import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DIGEST = ROOT / "tools" / "digest.py"


def _run(*argv):
    return subprocess.run([sys.executable, str(DIGEST), *argv], capture_output=True, text=True,
                          timeout=300, check=True).stdout


def test_digest_of_the_configs_is_the_same_on_every_run(tmp_path):
    # one line per command and shipped config; the outputs are deterministic,
    # so two runs print the same digests
    first, second = _run(), _run()
    lines = first.splitlines()
    configs = sorted(p.stem for p in (ROOT / "configs").glob("*.ini"))
    assert [line.split(" ", 1)[1] for line in lines] == [
        f"config {name} {command}" for name in configs
        for command in ("drf", "bound", "verify", "spectra")]
    assert all(len(line.split(" ", 1)[0]) == 64 for line in lines)
    assert second == first
    base, head = tmp_path / "base", tmp_path / "head"
    base.write_text(first)
    head.write_text(first.replace(lines[1].split(" ", 1)[0], "0" * 64))
    assert _run("--compare", str(base), str(base)).splitlines() == [
        f"0 of {len(lines)} outputs differ"]
    assert _run("--compare", str(base), str(head)).splitlines() == [
        f"1 of {len(lines)} outputs differ", lines[1].split(" ", 1)[1]]
