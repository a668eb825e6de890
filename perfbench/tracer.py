"""Spans around calls into intmr, recorded from outside the package.

The tracer swaps module attributes that intmr's own code looks up at call
time, and two methods of AdmmSolver, so no file of the package is edited.
Spans live in flat in-memory arrays (name, start, end, parent span, op id,
one numeric argument) and are written out once, when the run ends.  A
layer's self time is its span's duration minus the durations of its direct
child spans.

An attribute that a later version of intmr no longer has is skipped; the
metrics it feeds then read 0.
"""

import functools
import importlib
import os
from array import array
from time import perf_counter

import numpy as np

# (module, attribute, span name).  Some span names are patched in several
# modules because intmr imports those functions by name.
SPAN_PATCHES = (
    ("intmr.cli", "cli", "cli.cli"),
    ("intmr.io", "read_table", "io.read_table"),
    ("intmr.io", "standardize", "io.standardize"),
    ("intmr.io", "save_fit", "io.save_fit"),
    ("intmr.io", "load_fit", "io.load_fit"),
    ("intmr.io", "dump_json", "io.dump_json"),
    ("intmr.io", "write_cv_matrix_csv", "io.write_cv_matrix_csv"),
    ("intmr.io", "write_coefficient_csv", "io.write_coefficient_csv"),
    ("intmr.admm", "cho_solve", "admm.cho_solve"),
    ("intmr.admm", "soft_threshold", "prox.soft_threshold"),
    ("intmr.admm", "threshold_shared", "admm.threshold_shared"),
    ("intmr.admm", "update_duals", "admm.update_duals"),
    ("intmr.admm", "augmented_lagrangian", "admm.augmented_lagrangian"),
    ("intmr.admm", "kkt_residual", "admm.kkt_residual"),
    ("intmr.selection", "select", "selection.select"),
    ("intmr.sim", "select", "selection.select"),
    ("intmr.selection", "default_grid", "selection.default_grid"),
    ("intmr.sim", "default_grid", "selection.default_grid"),
    ("intmr.selection", "make_folds", "selection.make_folds"),
    ("intmr.selection", "predict", "model.predict"),
    ("intmr.sim", "predict", "model.predict"),
    ("intmr.cli", "objective", "model.objective"),
    ("intmr.sim", "generate", "sim.generate"),
    ("intmr.sim", "mse", "sim.mse"),
    ("intmr.sim", "fpr_fnr", "sim.fpr_fnr"),
)

METHODS = ("mr", "mlasso", "lasso")

# Per-layer metrics: (name, unit, better).  Times are seconds per traced op;
# counts are exact and taken from op 0, whose inputs depend only on the seed.
LAYER_METRICS = (
    ("io.read_table.calls", "count", "lower"),
    ("io.read_table.self_s", "s", "lower"),
    ("io.read_table.bytes", "bytes", "lower"),
    ("io.standardize.self_s", "s", "lower"),
    ("io.save_fit.self_s", "s", "lower"),
    ("io.load_fit.self_s", "s", "lower"),
    ("io.dump_json.self_s", "s", "lower"),
    ("io.write_cv_matrix_csv.self_s", "s", "lower"),
    ("io.write_coefficient_csv.self_s", "s", "lower"),
    ("io.write.bytes", "bytes", "lower"),
    ("admm.factor.calls", "count", "lower"),
    ("admm.factor.self_s", "s", "lower"),
    ("admm.fit.calls", "count", "lower"),
    ("admm.fit.self_s", "s", "lower"),
    ("admm.iterations", "count", "lower"),
    ("admm.iterations.p50", "count", "lower"),
    ("admm.iterations.max", "count", "lower"),
    ("admm.us_per_iter", "us", "lower"),
    ("admm.converged_frac", "ratio", "higher"),
    ("admm.cho_solve.calls", "count", "lower"),
    ("admm.cho_solve.self_s", "s", "lower"),
    ("admm.cho_solve.gflop_computed", "GFLOP", "lower"),
    ("admm.augmented_lagrangian.self_s", "s", "lower"),
    ("admm.threshold_shared.self_s", "s", "lower"),
    ("prox.soft_threshold.self_s", "s", "lower"),
    ("admm.update_duals.self_s", "s", "lower"),
    ("admm.kkt_residual.self_s", "s", "lower"),
    ("selection.select.calls", "count", "lower"),
    ("selection.select.self_s", "s", "lower"),
    ("selection.grid_fits", "count", "lower"),
    ("selection.refit.self_s", "s", "lower"),
    ("selection.refit.iterations", "count", "lower"),
    ("selection.default_grid.self_s", "s", "lower"),
    ("selection.make_folds.self_s", "s", "lower"),
    ("model.predict.calls", "count", "lower"),
    ("model.predict.self_s", "s", "lower"),
    ("model.objective.self_s", "s", "lower"),
    ("sim.generate.self_s", "s", "lower"),
    ("sim.mse.self_s", "s", "lower"),
    ("sim.fpr_fnr.self_s", "s", "lower"),
)
LAYER_METRICS += tuple(
    ("sim.method.%s.%s" % (m, stat), "s", "lower")
    for m in METHODS
    for stat in ("self_s", "total_s")
)
LAYER_METRICS += (
    ("cli.cli.self_s", "s", "lower"),
    ("trace.ops", "count", "higher"),
    ("trace.overhead", "ratio", "lower"),
    ("ops.fail_frac", "ratio", "lower"),
)


def _file_size(args, kwargs, result):
    return os.path.getsize(args[0])


def _solve_flops(args, kwargs, result):
    # two triangular solves of order n per right-hand-side column
    (c, _), rhs = args[0], args[1]
    q = rhs.shape[1] if rhs.ndim == 2 else 1
    return 2.0 * c.shape[0] ** 2 * q


def _iterations(args, kwargs, result):
    return result.iterations


class Tracer:
    """Records spans while installed; one instance per traced phase."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.arg = array("d")
        self.counters = {}
        self.op_id = -1
        self._stack = []
        self._undo = []

    def name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid):
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.arg.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx):
        self.end[idx] = perf_counter()
        self._stack.pop()

    def count(self, name, value):
        key = (name, self.op_id)
        self.counters[key] = self.counters.get(key, 0.0) + value

    def _span(self, fn, name, arg=None, name_of=None):
        nid = self.name_id(name) if name else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(nid if name_of is None else self.name_id(name_of(args)))
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if arg is not None:
                self.arg[idx] = arg(args, kwargs, result)
            return result

        return traced

    def _swap(self, owner, attr, wrapper):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self):
        for modname, attr, name in SPAN_PATCHES:
            mod = importlib.import_module(modname)
            if hasattr(mod, attr):
                fn = getattr(mod, attr)
                arg = {"io.read_table": _file_size, "admm.cho_solve": _solve_flops}.get(name)
                self._swap(mod, attr, self._span(fn, name, arg=arg))

        solver = getattr(importlib.import_module("intmr.admm"), "AdmmSolver", None)
        if solver is not None:
            self._swap(solver, "__init__", self._span(solver.__init__, "admm.factor"))
            fit = solver.fit

            def fit_and_count(*args, **kwargs):
                report = fit(*args, **kwargs)
                self.count("admm.converged", float(report.converged))
                return report

            self._swap(solver, "fit", self._span(fit_and_count, "admm.fit", arg=_iterations))

        io_mod = importlib.import_module("intmr.io")
        if hasattr(io_mod, "atomic_write_text"):
            write = io_mod.atomic_write_text

            def write_and_count(path, text):
                write(path, text)
                self.count("io.write.bytes", float(len(text.encode())))

            self._swap(io_mod, "atomic_write_text", write_and_count)

        sim = importlib.import_module("intmr.sim")
        if hasattr(sim, "_fit_method"):
            self._swap(sim, "_fit_method", self._span(
                sim._fit_method, None, name_of=lambda args: "sim.method.%s" % args[0]
            ))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -----------------------------------------------------------------------
    # results

    def arrays(self):
        return {
            "name": np.asarray(self.name, dtype=np.int32),
            "start": np.asarray(self.start),
            "end": np.asarray(self.end),
            "parent": np.asarray(self.parent, dtype=np.int32),
            "op": np.asarray(self.op, dtype=np.int32),
            "arg": np.asarray(self.arg),
        }

    def write(self, path):
        np.savez(path, names=np.asarray(self.names, dtype=str), **self.arrays())

    def _is(self, a, name):
        return a["name"] == self._ids.get(name, -1)

    def exact_counts(self, op):
        """Work counts of one op; they must repeat exactly for equal inputs."""
        a = self.arrays()
        mine = a["op"] == op
        calls = lambda name: int((mine & self._is(a, name)).sum())
        fits = mine & self._is(a, "admm.fit")
        iters = a["arg"][fits]
        sel_idx = np.flatnonzero(mine & self._is(a, "selection.select"))
        under_sel = fits & np.isin(a["parent"], sel_idx)
        refits = _last_child(a["parent"], under_sel)
        counter = lambda name: self.counters.get((name, op), 0.0)
        n_fits = int(fits.sum())
        return {
            "io.read_table.calls": calls("io.read_table"),
            "io.read_table.bytes": int(a["arg"][mine & self._is(a, "io.read_table")].sum()),
            "io.write.bytes": int(counter("io.write.bytes")),
            "admm.factor.calls": calls("admm.factor"),
            "admm.fit.calls": n_fits,
            "admm.iterations": int(iters.sum()),
            "admm.iterations.p50": float(np.median(iters)) if n_fits else 0.0,
            "admm.iterations.max": int(iters.max()) if n_fits else 0,
            "admm.converged_frac": counter("admm.converged") / n_fits if n_fits else 0.0,
            "admm.cho_solve.calls": calls("admm.cho_solve"),
            "admm.cho_solve.gflop_computed":
                float(a["arg"][mine & self._is(a, "admm.cho_solve")].sum()) / 1e9,
            "selection.select.calls": len(sel_idx),
            "selection.grid_fits": int(under_sel.sum()) - len(refits),
            "selection.refit.iterations": int(a["arg"][refits].sum()),
            "model.predict.calls": calls("model.predict"),
        }

    def layer_times(self, n_ops):
        """Self and total seconds per op over the spans of ops 0..n_ops-1."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(
            a["parent"][has_parent], weights=dur[has_parent], minlength=len(dur)
        )
        self_t = dur - child
        timed = (a["op"] >= 0) & (a["op"] < n_ops)
        out = {}
        for name, nid in self._ids.items():
            mask = timed & (a["name"] == nid)
            out[name + ".self_s"] = float(self_t[mask].sum()) / n_ops
            out[name + ".total_s"] = float(dur[mask].sum()) / n_ops
        fits = timed & self._is(a, "admm.fit")
        iters = a["arg"][fits].sum()
        out["admm.us_per_iter"] = float(dur[fits].sum() / iters * 1e6) if iters else 0.0
        sel_idx = np.flatnonzero(timed & self._is(a, "selection.select"))
        refits = _last_child(a["parent"], fits & np.isin(a["parent"], sel_idx))
        out["selection.refit.self_s"] = float(self_t[refits].sum()) / n_ops
        return out


def _last_child(parent, mask):
    """Index of the last masked span under each parent: select's refit."""
    last = {}
    for idx in np.flatnonzero(mask):
        last[parent[idx]] = idx
    return np.asarray(sorted(last.values()), dtype=np.int64)
