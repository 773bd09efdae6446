"""Run a command and print its wall time and peak resident set size.

    python tools/timed.py python -m pytest -q

The command runs as a child process with this process's environment; its
exit code is passed through, and the numbers are printed after it ends, never
checked. Peak RSS is the largest resident set of any waited-for descendant
(``resource.RUSAGE_CHILDREN``): for a test suite, the pytest process. When
``GITHUB_STEP_SUMMARY`` names a file, the line is appended to it as well.
"""

from __future__ import annotations

import os
import resource
import subprocess
import sys
from time import perf_counter


def peak_child_rss_mb() -> float:
    """Largest resident set of the waited-for children, in MB."""
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return peak / 2 ** 20 if sys.platform == "darwin" else peak / 2 ** 10   # bytes, else kB


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    t0 = perf_counter()
    code = subprocess.call(argv)
    line = (f"{' '.join(argv)}: exit {code}, wall {perf_counter() - t0:.1f} s, "
            f"peak RSS {peak_child_rss_mb():.1f} MB")
    print(line, flush=True)
    summary = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary:
        with open(summary, "a") as fh:
            fh.write(line + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
