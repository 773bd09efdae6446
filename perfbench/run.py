"""csdrf benchmark: seeded workloads through ``csdrf.cli.main``, in-process.

    python3 perfbench/run.py --workload curve-sweep --seed 1 --seconds 20 --trace 0

Runs whole passes over the workload's curves until ``--seconds`` have
passed (at least one), checks every output point of one pass, and prints each
metric by name with its unit. The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics. ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` reports the per-layer metrics
of a traced run against an untraced run of the same passes. See README.md in
this directory for the metric definitions.
"""

from __future__ import annotations

import os

# Pin BLAS threads before numpy loads; one thread keeps the timings steady
# on a shared machine and is never above the core count.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 9
TAIL_BEYOND = 10

SETUP_CODE = (
    "import sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import csdrf\n"
    "from csdrf.cli import load_scenario\n"
    "for path in sys.argv[2:]:\n"
    "    load_scenario(path)\n"
)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def environment() -> dict:
    import numpy as np

    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except Exception:  # numpy builds differ in what show_config reports
        pass
    return {"python": platform.python_version(), "numpy": np.__version__, "blas": blas,
            "blas_threads": BLAS_THREADS, "nproc": os.cpu_count(),
            "probe_ms": f"{speed_probe_ms():.4f}"}


def speed_probe_ms() -> float:
    """Median time of a fixed numpy loop that uses no csdrf code.

    Recorded with each run, not used in any metric: on a shared machine the
    core's speed changes between phases, and this shows which phase a run saw.
    """
    import numpy as np

    x = np.linspace(1.0, 2.0, 2048)
    times = []
    for _ in range(25):
        t0 = perf_counter()
        for _ in range(50):
            float(x @ np.log2(np.maximum(x / 1.3, 1.0)))
        times.append(perf_counter() - t0)
    return 1e3 * statistics.median(times)


class Runner:
    """Writes the workload's scenario files and runs its curves through the CLI."""

    def __init__(self, curves, workdir: Path):
        from csdrf import cli

        self.cli = cli
        self.curves = curves
        self.workdir = workdir
        self.configs = []
        for c in curves:
            path = workdir / f"{c.name}.ini"
            path.write_text(c.ini)
            self.configs.append(path)

    def call(self, i: int):
        """Run curve i once: (wall seconds, CurveResult)."""
        from checks import CurveResult

        curve = self.curves[i]
        out = self.workdir / f"{curve.name}.out"
        out.unlink(missing_ok=True)
        argv = [curve.command, "--config", str(self.configs[i]), "--out", str(out)]
        so, se = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(so), contextlib.redirect_stderr(se):
            t0 = perf_counter()
            try:
                code = self.cli.main(argv)
                error = ""
            except Exception:  # a raising call is a failed curve, not a crash
                code, error = None, traceback.format_exc()
            wall = perf_counter() - t0
        text = out.read_text() if curve.command != "verify" and out.exists() else ""
        return wall, CurveResult(code, error or se.getvalue(), text, so.getvalue())

    def passes(self, seconds: float, count: int | None = None):
        """Whole passes until ``seconds`` elapse, or exactly ``count`` passes.

        Returns (wall seconds, per-curve wall lists, results of each pass)."""
        times = [[] for _ in self.curves]
        results = []
        t0 = perf_counter()
        while True:
            outs = []
            for i in range(len(self.curves)):
                wall, res = self.call(i)
                times[i].append(wall)
                outs.append(res)
            results.append(outs)
            elapsed = perf_counter() - t0
            if (count is not None and len(results) >= count) or \
                    (count is None and elapsed >= seconds):
                return elapsed, times, results


def setup_seconds(configs) -> list[float]:
    """Fresh interpreters that import csdrf and load every scenario file."""
    walls = []
    for _ in range(SETUP_RUNS):
        t0 = perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(ROOT / "src"),
                               *map(str, configs)], capture_output=True, text=True, timeout=120)
        walls.append(perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up interpreter failed: {proc.stderr.strip()[-500:]}")
    return walls


def tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with at least TAIL_BEYOND samples above it: (value, pct)."""
    s = sorted(values)
    if len(s) <= TAIL_BEYOND:
        return s[-1], 100.0
    k = len(s) - TAIL_BEYOND - 1
    return s[k], 100.0 * (k + 1) / len(s)


def check_all(curves, outputs):
    from checks import check_curve

    return [check_curve(c, r) for c, r in zip(curves, outputs)]


def same_outputs(a, b) -> list[int]:
    """Indices of curves whose exit codes or output bytes differ between passes."""
    return [i for i, (x, y) in enumerate(zip(a, b))
            if (x.exit_code, x.csv, x.stdout) != (y.exit_code, y.csv, y.stdout)]


def report_checks(curves, verdicts, lines):
    for c, v in zip(curves, verdicts):
        if v.verify_gap is not None:
            lines.append(f"verdict {c.name}: max_rel_gap={v.verify_gap:.6g} "
                         f"{'FAILED (exit 3)' if v.verify_failed else 'OK'}")
        for reason in v.reasons:
            lines.append(f"failed point {c.name}: {reason}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "csdrf" / "cli.py").is_file() or not (ROOT / "configs").is_dir():
        print(f"cannot find the csdrf sources and configs under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; expected one of {workloads.WORKLOADS}",
              file=sys.stderr)
        return 2

    curves = workloads.generate(args.workload, args.seed, ROOT / "configs")
    outdir = ROOT / ".perfbench_out"
    outdir.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=outdir))
    try:
        lines, result = run(args, curves, workdir, outdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


def run(args, curves, workdir: Path, outdir: Path):
    runner = Runner(curves, workdir)
    env = environment()
    lines = ["env " + " ".join(f"{k}={v}" for k, v in env.items()),
             f"workload {args.workload} seed {args.seed}: {len(curves)} curves, "
             f"{sum(c.points for c in curves)} points per pass"]
    runner.call(0)                                   # warm numpy's lazy set-up

    if args.trace == 0:
        setup = setup_seconds(runner.configs)
        wall, times, results = runner.passes(args.seconds)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        tracer = None
    else:
        import tracing

        wall, times, results = runner.passes(args.seconds / 2.0)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced_wall, _, traced = runner.passes(0.0, count=len(results))
        finally:
            tracer.uninstall()
        results += traced

    verdicts = check_all(curves, results[0])
    changed = sorted({i for other in results[1:] for i in same_outputs(results[0], other)})
    attempted = sum(v.points for v in verdicts)
    failed = sum(v.failed for v in verdicts)
    n_pass = len(times[0])
    per_curve = [statistics.median(t) for t in times]
    lines.append(f"{n_pass} passes in {wall:.3f} s; attempted {attempted} points per pass, "
                 f"failed {failed} (failed_share {failed / attempted:.6g})")
    report_checks(curves, verdicts, lines)
    for i in changed:
        lines.append(f"non-deterministic output: {curves[i].name} differs between passes")
    gaps = [v.verify_gap for v in verdicts if v.verify_gap is not None]

    if tracer is None:
        tail_value, tail_pct = tail(per_curve)
        metrics = {
            "points_per_s": (attempted * n_pass / wall, "1/s"),
            "curve_s.p50": (statistics.median(per_curve), "s"),
            "curve_s.tail": (tail_value, "s"),
            "peak_rss_mb": (peak_mb, "MB"),
            "setup_s": (statistics.median(setup), "s"),
            "ok_share": (1.0 - failed / attempted, "ratio"),
        }
        notes = {
            "curve_s.p50": f"median of {len(curves)} per-curve medians over {n_pass} passes",
            "curve_s.tail": f"p{tail_pct:.0f} of {len(curves)} per-curve medians, "
                            f"{min(TAIL_BEYOND, len(curves) - 1)} curves slower",
            "setup_s": f"median of {SETUP_RUNS} fresh interpreters, "
                       + " ".join(f"{s:.3f}" for s in setup),
            "ok_share": f"1 - failed_share; {failed} of {attempted} points failed",
        }
    else:
        import tracing

        metrics = dict(tracing.layer_metrics(tracer, n_pass))
        metrics["oracle.max_rel_gap"] = (max(gaps) if gaps else 0.0, "ratio")
        metrics["oracle.verify_failed"] = (sum(v.verify_failed for v in verdicts), "count")
        metrics["trace.overhead_s"] = ((traced_wall - wall) / n_pass, "s")
        notes = {"trace.overhead_s": f"traced {traced_wall:.3f} s - untraced {wall:.3f} s, "
                                     f"divided by {n_pass} passes"}
        if tracer.absent:
            lines.append("absent from the package: " + " ".join(tracer.absent))
        span_file = outdir / f"trace-{args.workload}-{args.seed}.json"
        tracer.dump(span_file)
        lines.append(f"{len(tracer.spans)} spans written to {span_file.relative_to(ROOT)}")

    for name, (value, unit) in metrics.items():
        note = notes.get(name)
        lines.append(f"{name} = {value:.6g} {unit}" + (f"  ({note})" if note else ""))
    result = {"correct": not changed, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()}}
    return lines, result


if __name__ == "__main__":
    sys.exit(main())
