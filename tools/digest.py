"""Print one sha256 per ``csdrf`` call, over its exit code, CSV, stdout and stderr.

    python tools/digest.py [--root DIR] [--seed N ...]
    python tools/digest.py --compare BASE HEAD

The calls are ``drf``, ``bound``, ``verify`` and ``spectra`` on every
``configs/*.ini``, then every curve of each benchmark workload
(``perfbench/workloads.py``) at each ``--seed``. Each line is the digest and
the call's label. The code, configs and workloads are those of ``--root``
(by default the checkout holding this script), so two checkouts, such as a
change and its parent, can be compared line by line: ``--compare`` prints how
many of the calls differ, and which. Every call runs in process through
``csdrf.cli.main`` with BLAS on one thread, as the benchmark runs it, in a
scratch directory under fixed file names, so no path reaches the outputs.
"""

from __future__ import annotations

import os

# one BLAS thread, set before numpy loads, as in perfbench/run.py
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

COMMANDS = ("drf", "bound", "verify", "spectra")


def _digest(code, csv: bytes, stdout: str, stderr: str) -> str:
    h = hashlib.sha256()
    for part in (str(code).encode(), csv, stdout.encode(), stderr.encode()):
        h.update(len(part).to_bytes(8, "big"))
        h.update(part)
    return h.hexdigest()


def _call(main, command: str, ini: str) -> str:
    """Digest of ``csdrf <command>`` on the scenario text ``ini``, run in the
    current directory as x.ini with its CSV at x.csv."""
    Path("x.ini").write_text(ini)
    Path("x.csv").unlink(missing_ok=True)
    so, se = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(so), contextlib.redirect_stderr(se):
        try:
            code = main([command, "--config", "x.ini", "--out", "x.csv"])
        except Exception as exc:  # a traceback is an output too; its paths are not
            code = "raised"
            print("".join(traceback.format_exception_only(type(exc), exc)), file=sys.stderr)
    csv = Path("x.csv").read_bytes() if Path("x.csv").exists() else b""
    return _digest(code, csv, so.getvalue(), se.getvalue())


def calls(root: Path, seeds):
    """(label, command, scenario text) of every call, configs first."""
    for cfg in sorted((root / "configs").glob("*.ini")):
        for command in COMMANDS:
            yield f"config {cfg.stem} {command}", command, cfg.read_text()
    sys.path.insert(0, str(root / "perfbench"))
    from workloads import WORKLOADS, generate

    for seed in seeds:
        for workload in WORKLOADS:
            for curve in generate(workload, seed, root / "configs"):
                yield f"{workload} seed={seed} {curve.name} {curve.command}", curve.command, \
                    curve.ini


def digest(root: Path, seeds) -> list[str]:
    """'<sha256> <label>' of every call, importing ``csdrf`` from ``root``."""
    sys.path.insert(0, str(root / "src"))
    from csdrf import cli

    if Path(cli.__file__).resolve().parents[1] != (root / "src").resolve():
        raise SystemExit(f"csdrf imported from {cli.__file__}, not from {root / 'src'}")
    lines = []
    here = Path.cwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for label, command, ini in calls(root, seeds):
                lines.append(f"{_call(cli.main, command, ini)} {label}")
        finally:
            os.chdir(here)
    return lines


def compare(base: Path, head: Path) -> list[str]:
    """How many calls differ between two digest listings, then the label of
    each: a call in one listing only counts as differing."""
    def read(path):
        return dict(line.split(" ", 1)[::-1] for line in path.read_text().splitlines())

    a, b = read(base), read(head)
    labels = list(dict.fromkeys([*a, *b]))
    differ = [label for label in labels if a.get(label) != b.get(label)]
    return [f"{len(differ)} of {len(labels)} outputs differ"] + differ


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--root", type=Path, default=Path(__file__).resolve().parents[1],
                   help="checkout whose src/, configs/ and perfbench/ are used")
    p.add_argument("--seed", type=int, action="append", default=[],
                   help="also digest every workload curve at this seed (repeatable)")
    p.add_argument("--compare", type=Path, nargs=2, metavar=("BASE", "HEAD"),
                   help="count the differing lines of two digest listings instead")
    args = p.parse_args(argv)
    lines = compare(*args.compare) if args.compare else digest(args.root.resolve(), args.seed)
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
