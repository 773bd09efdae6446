import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CENSUS = ROOT / "tools" / "census.py"


def test_census_of_the_configs_lists_what_no_command_enters():
    out = subprocess.run([sys.executable, str(CENSUS)], capture_output=True, text=True,
                         timeout=300, check=True).stdout.splitlines()
    *listed, total = out
    names = [line.split()[1] for line in listed]
    # the finite-window check of the paper's argument runs only in tests;
    # the CLI's entry point runs on every call
    assert "oracle.weyl_gap" in names
    assert "cli.main" not in names
    assert len(set(names)) == len(names)
    lines = sum(int(line.split()[0]) for line in listed)
    assert total == f"{len(listed)} functions, {lines} lines, entered by no call"
