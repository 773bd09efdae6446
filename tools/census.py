"""List each function of ``src/csdrf/*.py`` that no ``csdrf`` call enters.

    python tools/census.py [--seed N ...]

The calls are those of ``tools/digest.py``: ``drf``, ``bound``, ``verify`` and
``spectra`` on every ``configs/*.ini``, then every curve of each benchmark
workload at each ``--seed``. They run in process under ``sys.setprofile``,
which records every function entered. Each function defined in the package
(methods and nested functions included) that none entered is printed as its
line count and qualified name, in file order, and a last line gives the
total. A function listed is reached by no CLI path: only tests, the
benchmark's own code or other library callers can need it.
"""

from __future__ import annotations

import argparse
import ast
import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import digest  # noqa: E402  (sets BLAS to one thread before numpy loads)

ROOT = Path(__file__).resolve().parents[1]


def functions(path: Path):
    """(first line, def line, line count, qualified name) of every function
    in a module; the first line is that of its first decorator."""
    out = []

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                out.append((first, child.lineno, child.end_lineno - first + 1,
                            prefix + child.name))
                walk(child, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                walk(child, f"{prefix}{child.name}.")
            else:
                walk(child, prefix)

    walk(ast.parse(path.read_text()), f"{path.stem}.")
    return sorted(out)


def entered(seeds) -> set:
    """(file, name, first line) of every code object that the calls enter."""
    sys.path.insert(0, str(ROOT / "src"))
    from csdrf import cli

    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    here = Path.cwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        sys.setprofile(profile)
        try:
            for _, command, ini in digest.calls(ROOT, seeds):
                digest._call(cli.main, command, ini)
        finally:
            sys.setprofile(None)
            os.chdir(here)
    return {(Path(c.co_filename).resolve(), c.co_name, c.co_firstlineno) for c in codes}


def census(seeds) -> list[str]:
    """'<lines> <module>.<qualname>' of each function no call entered, then the total."""
    reached = entered(seeds)
    lines, count, total = [], 0, 0
    for path in sorted((ROOT / "src" / "csdrf").glob("*.py")):
        path = path.resolve()
        for first, line, size, name in functions(path):
            short = name.rsplit(".", 1)[-1]
            # a decorated function's code starts at its first decorator
            if not any((path, short, n) in reached for n in range(first, line + 1)):
                lines.append(f"{size:5d} {name}")
                count += 1
                total += size
    return lines + [f"{count} functions, {total} lines, entered by no call"]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seed", type=int, action="append", default=[],
                   help="also run every workload curve at this seed (repeatable)")
    args = p.parse_args(argv)
    print("\n".join(census(args.seed)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
