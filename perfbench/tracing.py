"""Spans around the public functions of each csdrf layer, installed from outside.

A span records name, start, end and parent. Spans stay in memory until the run
ends. ``install`` wraps every public function of the traced modules and every
public method (plus ``__call__``) of their classes, then rebinds each name
that another csdrf module imported by value. ``ScalarWaterfiller.rate`` is
counted, not spanned, because the bisection calls it about 60 times per solve.

Layer metrics use self time: a span's duration minus its child spans. A named
function that a later version of the package no longer has is reported as
absent and its metrics read 0.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("quadrature", "spectra", "polyphase", "waterfilling", "drf", "oracle", "cli")
COUNTED_ONLY = {"waterfilling.ScalarWaterfiller.rate"}

# names the per-layer metrics rely on; any that is missing is reported absent
REQUIRED = (
    "waterfilling.ScalarWaterfiller.solve", "waterfilling.ScalarWaterfiller.rate",
    "waterfilling.hermitian_eigenvalues", "polyphase.PsdPcMatrix.__call__",
    "drf.ContinuousDrfSolver.solve", "drf.ContinuousDrfSolver.eigen_field",
    "waterfilling.EigenField.from_matrix", "drf.lower_bound_continuous",
    "drf.lower_bound_discrete", "spectra.CyclicSpectrum.covariance",
    "spectra.CyclicSpectrum.cpsd", "oracle.build_kernel", "oracle.kl_drf",
    "oracle.BlockCovariance.from_process", "oracle.KernelGrid.operator_eigenvalues",
    "quadrature.segmented_midpoint", "cli.load_scenario", "cli.main",
)

COVARIANCE = ("spectra.CyclicSpectrum.covariance", "spectra.PamCyclicSpectrum.covariance",
              "spectra.CyclicSpectrum.cyclic_autocorr")
SOLVE = ("waterfilling.ScalarWaterfiller.solve", "waterfilling.ScalarWaterfiller.point",
         "waterfilling.ScalarWaterfiller.distortion")
KERNEL_BUILD = ("oracle.build_kernel", "oracle.BlockCovariance.from_process",
                "oracle.step_approximation")
DECOMPOSE = ("oracle.kl_drf", "oracle.KernelGrid.operator_eigenvalues")
LOWER_BOUND = ("drf.lower_bound_continuous", "drf.lower_bound_discrete")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []        # [name, start, end, parent index or -1]
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        self._undo: list[tuple] = []

    # -- wrapping -------------------------------------------------------------

    def _spanned(self, name: str, fn, hook=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(tracer.spans)
            parent = tracer.stack[-1] if tracer.stack else -1
            rec = [name, 0.0, 0.0, parent]
            tracer.spans.append(rec)
            tracer.stack.append(idx)
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                tracer.stack.pop()
            if hook is not None:
                hook(tracer, idx, args, out)
            return out

        wrapper.__wrapped_original__ = fn
        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped_original__ = fn
        return wrapper

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                           else getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, name, fn):
        if name in COUNTED_ONLY:
            return self._counted(name, fn)
        return self._spanned(name, fn, HOOKS.get(name))

    def install(self, package: str = "csdrf"):
        """Wrap the layers of ``package``; returns the names wrapped."""
        replaced = {}                       # id(original) -> wrapper
        wrapped = []
        for layer in LAYERS:
            try:
                mod = importlib.import_module(f"{package}.{layer}")
            except ImportError:
                self.absent.append(layer)
                continue
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    w = self._wrap(f"{layer}.{attr}", obj)
                    self._set(mod, attr, w)
                    replaced[id(obj)] = w
                    wrapped.append(f"{layer}.{attr}")
                elif inspect.isclass(obj):
                    for meth, raw in list(vars(obj).items()):
                        if meth.startswith("_") and meth != "__call__":
                            continue
                        name = f"{layer}.{attr}.{meth}"
                        if inspect.isfunction(raw):
                            self._set(obj, meth, self._wrap(name, raw))
                        elif isinstance(raw, (classmethod, staticmethod)):
                            self._set(obj, meth, type(raw)(self._wrap(name, raw.__func__)))
                        else:
                            continue
                        wrapped.append(name)
        # names imported by value into other modules of the package
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == package or modname.startswith(package + ".")):
                continue
            for attr, obj in list(vars(mod).items()):
                w = replaced.get(id(obj))
                if w is not None and obj is not w and getattr(mod, attr) is obj:
                    self._set(mod, attr, w)
        self.absent += [n for n in REQUIRED if n not in wrapped]
        return wrapped

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- results --------------------------------------------------------------

    def self_times(self) -> tuple[np.ndarray, np.ndarray]:
        """(duration, self time) per span."""
        n = len(self.spans)
        dur = np.array([s[2] - s[1] for s in self.spans]) if n else np.zeros(0)
        child = np.zeros(n)
        for s, d in zip(self.spans, dur):
            if s[3] >= 0:
                child[s[3]] += d
        return dur, dur - child

    def dump(self, path):
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent"], "names": names,
                       "spans": [[index[s[0]], round(s[1] - t0, 9), round(s[2] - t0, 9), s[3]]
                                 for s in self.spans]}, fh, separators=(",", ":"))


# ---------------------------------------------------------------------------
# counters recorded at span exit
# ---------------------------------------------------------------------------

def _parent_name(tracer, idx):
    p = tracer.spans[idx][3]
    return tracer.spans[p][0] if p >= 0 else ""


def _solve(tracer, idx, args, out):
    levels = getattr(args[0], "levels", None)
    tracer.counts["levels"] += getattr(levels, "size", 0)
    if _parent_name(tracer, idx) in LOWER_BOUND:
        tracer.counts["lower_bound_profiles"] += 1


def _assemble(tracer, idx, args, out):
    out = np.asarray(out)
    if out.ndim >= 2:
        tracer.counts["matrices"] += int(np.prod(out.shape[:-2]))
        tracer.counts["matrix_bytes"] += out.nbytes
        tracer.counts["max_dim"] = max(tracer.counts["max_dim"], out.shape[-1])


def _eigh(tracer, idx, args, out):
    shape = np.shape(args[0]) if args else ()
    if len(shape) >= 2:
        batch = int(np.prod(shape[:-2]))
        tracer.counts["eigh_matrices"] += batch
        tracer.counts["eigh_work"] += batch * shape[-1] ** 3


def _refine(tracer, idx, args, out):
    tracer.counts["refine_points"] += 1
    tracer.counts["refine_levels"] += len(getattr(out, "iterates", ()))


def _field(tracer, idx, args, out):
    if _parent_name(tracer, idx) == "drf.ContinuousDrfSolver.eigen_field":
        tracer.counts["fields_built"] += 1


def _covariance(tracer, idx, args, out):
    if _parent_name(tracer, idx) not in COVARIANCE:
        tracer.counts["covariance_points"] += np.size(out)


def _grid(tracer, idx, args, out):
    if not _parent_name(tracer, idx).startswith("quadrature."):
        nodes = out[0] if isinstance(out, tuple) else getattr(out, "nodes", ())
        tracer.counts["grid_nodes"] += np.size(nodes)


HOOKS = {
    "waterfilling.ScalarWaterfiller.solve": _solve,
    "polyphase.PsdPcMatrix.__call__": _assemble,
    "waterfilling.hermitian_eigenvalues": _eigh,
    "drf.ContinuousDrfSolver.solve": _refine,
    "waterfilling.EigenField.from_matrix": _field,
    "spectra.CyclicSpectrum.covariance": _covariance,
    "spectra.PamCyclicSpectrum.covariance": _covariance,
    "quadrature.segmented_midpoint": _grid,
    "quadrature.phi_grid": _grid,
    "quadrature.gauss_segments": _grid,
}


# per-span or per-solve figures; every other metric is a sum, reported per pass
NOT_ADDITIVE = {"waterfilling.rate_evals_per_solve", "waterfilling.levels_per_solve",
                "polyphase.max_dim", "drf.refine_levels_per_point",
                "drf.field_cache_hit_ratio", "oracle.decompositions_per_kernel"}


def layer_metrics(tracer: Tracer, passes: int = 1) -> dict:
    """Per-layer metrics from the recorded spans and counters, per pass."""
    return {name: (value if name in NOT_ADDITIVE else value / passes, unit)
            for name, (value, unit) in _totals(tracer).items()}


def _totals(tracer: Tracer) -> dict:
    spans = tracer.spans
    dur, own = tracer.self_times()
    names = np.array([s[0] for s in spans], dtype=object)
    parents = np.array([s[3] for s in spans], dtype=np.int64)
    c = tracer.counts

    def self_s(*group):
        return float(own[np.isin(names, group)].sum())

    def count(name):
        return int(np.count_nonzero(names == name))

    def outermost(group):
        inside = np.isin(names, group)
        parent_in = np.zeros(len(spans), dtype=bool)
        has = parents >= 0
        parent_in[has] = inside[parents[has]]
        return inside & ~parent_in

    def inclusive_s(*group):
        return float(dur[outermost(group)].sum())

    spectra_eval = [n for n in set(names) if n.startswith("spectra.") and n not in COVARIANCE]
    quad = [n for n in set(names) if n.startswith("quadrature.")]
    cli_other = [n for n in set(names) if n.startswith("cli.") and n != "cli.load_scenario"]
    solves = count("waterfilling.ScalarWaterfiller.solve")
    eigen_requests = count("drf.ContinuousDrfSolver.eigen_field")
    kernels = count("oracle.build_kernel") + count("oracle.BlockCovariance.from_process")

    def ratio(a, b):
        return a / b if b else 0.0

    return {
        "waterfilling.solve_s": (self_s(*SOLVE), "s"),
        "waterfilling.solves": (solves, "count"),
        "waterfilling.rate_evals_per_solve": (ratio(c["waterfilling.ScalarWaterfiller.rate"], solves), "count"),
        "waterfilling.levels_per_solve": (ratio(c["levels"], solves), "count"),
        "waterfilling.eigh_s": (self_s("waterfilling.hermitian_eigenvalues"), "s"),
        "waterfilling.eigh_matrices": (int(c["eigh_matrices"]), "count"),
        "waterfilling.eigh_work": (int(c["eigh_work"]), "count"),
        "polyphase.assemble_s": (self_s("polyphase.PsdPcMatrix.__call__",
                                        "polyphase.polyphase_component_psd"), "s"),
        "polyphase.matrices": (int(c["matrices"]), "count"),
        "polyphase.matrix_mb": (c["matrix_bytes"] / 1e6, "MB"),
        "polyphase.max_dim": (int(c["max_dim"]), "count"),
        "drf.refine_s": (inclusive_s("drf.ContinuousDrfSolver.solve"), "s"),
        "drf.refine_levels_per_point": (ratio(c["refine_levels"], c["refine_points"]), "count"),
        "drf.fields_built": (int(c["fields_built"]), "count"),
        "drf.field_cache_hit_ratio": (ratio(eigen_requests - c["fields_built"], eigen_requests),
                                      "ratio"),
        "drf.lower_bound_s": (inclusive_s(*LOWER_BOUND), "s"),
        "drf.lower_bound_profiles": (int(c["lower_bound_profiles"]), "count"),
        "spectra.eval_s": (self_s(*spectra_eval), "s"),
        "spectra.eval_calls": (int(outermost(spectra_eval).sum()), "count"),
        "spectra.covariance_s": (self_s(*COVARIANCE), "s"),
        "spectra.covariance_points": (int(c["covariance_points"]), "count"),
        "oracle.kernel_build_s": (self_s(*KERNEL_BUILD), "s"),
        "oracle.decompose_s": (self_s(*DECOMPOSE), "s"),
        "oracle.decompositions_per_kernel": (ratio(count("oracle.kl_drf"), kernels), "count"),
        "quadrature.grid_s": (self_s(*quad), "s"),
        "quadrature.grid_nodes": (int(c["grid_nodes"]), "count"),
        "cli.load_s": (self_s("cli.load_scenario"), "s"),
        "cli.self_s": (self_s(*cli_other), "s"),
    }
