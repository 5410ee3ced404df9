"""Spans around the calls into each logop module, installed from outside `src/`.

The tracer replaces module attributes (for example `logop.geometry.scatter_weights`)
with wrappers that record a span per call: name, start, end, parent span and the
operation id.  Calls made inside logop look their callees up through module
globals or module attributes, so the wrappers see nested calls as well.  LAPACK
calls are caught by giving `logop.solver` proxy `sla`/`np` namespaces whose
`lu_factor`, `lu_solve` and `linalg.slogdet` are wrapped; nothing else changes.

`install()` and `uninstall()` swap the wrappers in and out, so untraced batches
run the original functions.  Spans stay in memory until `write()`.
"""

from __future__ import annotations

import dataclasses
import json
import math
import time
from collections import defaultdict

import numpy as np

from logop import _quadrules, barriers, cli, geometry, kernels, nonlocal_eval, solver

_EVAL = "nonlocal_eval.eval"
_VERIFY = "barriers.verify"


class _Proxy:
    """Attribute-forwarding stand-in for a module, with some names overridden."""

    def __init__(self, target, **overrides):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)


def _len(a):
    return int(getattr(a, "shape", (len(a),))[0])


class Tracer:
    def __init__(self):
        self.spans = []          # [id, parent, op, name, start, end, counters]
        self.op = 0
        self._taken = 0
        self.active = False
        self._stack = []
        self._patches = []
        self._plan()

    # -- wrapping ---------------------------------------------------------

    def wrap(self, name, fn, count=None):
        """`fn` with a span per call while active; `count(args, kwargs, result)`
        returns the counters the span carries."""
        if getattr(fn, "_perfbench_traced", False):
            return fn
        tracer = self
        layer = name.split(".")[0]

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            span = [len(tracer.spans), stack[-1] if stack else -1, tracer.op, name,
                    time.perf_counter(), math.nan, None]
            tracer.spans.append(span)
            stack.append(span[0])
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[6] = {f"{layer}.errors": 1}
                raise
            finally:
                span[5] = time.perf_counter()
                stack.pop()
            if count is not None:
                span[6] = count(args, kwargs, result)
            return result

        traced._perfbench_traced = True
        return traced

    def kernel(self, K):
        """The KernelSpec with its evaluate callable traced."""
        return dataclasses.replace(K, evaluate=self.wrap(
            "kernels.evaluate", K.evaluate,
            lambda a, kw, r: {"kernels.evaluate.points": _len(a[1])}))

    def kernel_factory(self, fn):
        """A kernel constructor whose kernels come back traced."""

        def factory(*args, **kwargs):
            return self.kernel(fn(*args, **kwargs))

        return factory

    def patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, getattr(owner, attr), replacement))

    def _plan(self):
        w = self.wrap
        self.patch(cli, "main", w("cli.main", cli.main))

        def assemble_n(a, kw, r):
            return {"solver.assemble.n": a[1].n}

        def sweep_evals(a, kw, r):
            return {"solver.fredholm.evaluations": r["evaluations"]}

        def lu_factor_flops(a, kw, r):
            n = _len(a[0])
            return {"solver.lu_factor.flops_computed": 2.0 * n ** 3 / 3.0}

        def lu_solve_bytes(a, kw, r):
            n = _len(a[0][0])
            return {"solver.lu_solve.bytes_computed": 8.0 * n * n}

        self.patch(solver, "assemble", w("solver.assemble", solver.assemble, assemble_n))
        self.patch(solver, "solve_dirichlet",
                   w("solver.solve_dirichlet", solver.solve_dirichlet))
        self.patch(solver, "fredholm_sweep",
                   w("solver.fredholm_sweep", solver.fredholm_sweep, sweep_evals))
        self.patch(solver, "torsion_scan", w("solver.torsion_scan", solver.torsion_scan))
        sla = solver.sla
        self.patch(solver, "sla", _Proxy(
            sla,
            lu_factor=w("solver.lu_factor", sla.lu_factor, lu_factor_flops),
            lu_solve=w("solver.lu_solve", sla.lu_solve, lu_solve_bytes)))
        np_ = solver.np
        self.patch(solver, "np", _Proxy(
            np_, linalg=_Proxy(np_.linalg, slogdet=w("solver.slogdet", np_.linalg.slogdet))))

        def scatter_counts(a, kw, r):
            idx = r[0]
            # column by column: six times faster than a reduction along axis 1
            hit = idx[:, 0] >= 0
            for c in range(1, idx.shape[1]):
                hit |= idx[:, c] >= 0
            return {"geometry.scatter_weights.points": _len(idx),
                    "geometry.scatter.in_grid_points": int(np.count_nonzero(hit))}

        self.patch(geometry, "scatter_weights",
                   w("geometry.scatter_weights", geometry.scatter_weights, scatter_counts))
        self.patch(geometry, "interpolate_many", w(
            "geometry.interpolate_many", geometry.interpolate_many,
            lambda a, kw, r: {"geometry.interpolate_many.points": _len(r)}))

        self.patch(kernels, "kernel_from_name", self.kernel_factory(kernels.kernel_from_name))
        self.patch(kernels, "unit_kernel", self.kernel_factory(kernels.unit_kernel))

        self.patch(_quadrules, "radial_rule", w(
            "quadrules.radial_rule", _quadrules.radial_rule,
            lambda a, kw, r: {"quadrules.radial_rule.nodes": _len(r[0])}))

        for fname in ("eval_LK", "eval_loglap", "eval_J_conv", "eval_schrodinger"):
            self.patch(nonlocal_eval, fname, w(_EVAL, getattr(nonlocal_eval, fname)))
        # barriers imported eval_LK by name, so its copy is patched separately
        self.patch(barriers, "eval_LK", w(_EVAL, barriers.eval_LK))

        def alpha_tries(a, kw, r):
            return {"barriers.alpha_tries": len(r.get("per_alpha", ()))}

        for fname in ("verify_boundary_barrier", "verify_bump", "verify_gain", "verify_tail",
                      "verify_exponential", "verify_composite", "verify_sector"):
            self.patch(barriers, fname, w(_VERIFY, getattr(barriers, fname), alpha_tries))

    def install(self):
        for owner, attr, _, replacement in self._patches:
            setattr(owner, attr, replacement)
        self.active = True

    def uninstall(self):
        self.active = False
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    # -- results ----------------------------------------------------------

    def take(self):
        """Spans recorded since the last call; all of them stay for `write()`."""
        spans = self.spans[self._taken:]
        self._taken = len(self.spans)
        return spans

    def write(self, path):
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps({"id": s[0], "parent": s[1], "op": s[2], "name": s[3],
                                    "start": s[4], "end": s[5], "counters": s[6]}) + "\n")


# Every per-layer metric the traced run reports, with its unit.
LAYER_METRICS = {
    "cli.self_s": "s",
    "cli.calls": "count",
    "cli.errors": "count",
    "solver.assemble_s": "s",
    "solver.assemble.self_s": "s",
    "solver.assemble.calls": "count",
    "solver.assemble.n": "count",
    "solver.solve_dirichlet.self_s": "s",
    "solver.torsion_scan_s": "s",
    "solver.lu_factor_s": "s",
    "solver.lu_factor.calls": "count",
    "solver.lu_factor.flops_computed": "flop",
    "solver.lu_solve_s": "s",
    "solver.lu_solve.calls": "count",
    "solver.lu_solve.per_solve": "count",
    "solver.lu_solve.bytes_computed": "byte",
    "solver.slogdet_s": "s",
    "solver.slogdet.calls": "count",
    "solver.fredholm.evaluations": "count",
    "solver.errors": "count",
    "geometry.scatter_weights_s": "s",
    "geometry.scatter_weights.calls": "count",
    "geometry.scatter_weights.points": "count",
    "geometry.scatter.in_grid_frac": "ratio",
    "geometry.interpolate_many_s": "s",
    "geometry.interpolate_many.points": "count",
    "geometry.errors": "count",
    "kernels.evaluate_s": "s",
    "kernels.evaluate.calls": "count",
    "kernels.evaluate.points": "count",
    "kernels.errors": "count",
    "quadrules.radial_rule_s": "s",
    "quadrules.radial_rule.calls": "count",
    "quadrules.radial_rule.nodes": "count",
    "quadrules.errors": "count",
    "nonlocal_eval.eval_s": "s",
    "nonlocal_eval.eval.calls": "count",
    "nonlocal_eval.eval.self_s": "s",
    "nonlocal_eval.eval.nodes_per_call": "count",
    "nonlocal_eval.errors": "count",
    "barriers.verify_s": "s",
    "barriers.verify.calls": "count",
    "barriers.points": "count",
    "barriers.alpha_tries": "count",
    "barriers.errors": "count",
    "trace.spans": "count",
    "trace.overhead_s": "s",
}


def layer_metrics(spans):
    """Per-layer metrics of one traced batch (all but trace.overhead_s).

    A `_s` metric is busy time: the spans of that name not nested in another
    span of the same name.  A `.self_s` metric subtracts the time of the
    span's direct children.
    """
    by_id = {s[0]: s for s in spans}
    child_time = defaultdict(float)
    for s in spans:
        if s[1] in by_id:
            child_time[s[1]] += s[5] - s[4]

    def ancestors(s):
        p = s[1]
        while p in by_id:
            yield by_id[p]
            p = by_id[p][1]

    busy, self_t, calls = defaultdict(float), defaultdict(float), defaultdict(int)
    total = defaultdict(float)
    eval_nodes = 0
    verify_points = 0
    for s in spans:
        name = s[3]
        self_t[name] += s[5] - s[4] - child_time[s[0]]
        up = list(ancestors(s))
        if all(a[3] != name for a in up):
            busy[name] += s[5] - s[4]
            calls[name] += 1
        for key, inc in (s[6] or {}).items():
            total[key] += inc
        if name == _EVAL and up and up[0][3] == _VERIFY:
            verify_points += 1
        if name == "quadrules.radial_rule" and any(a[3] == _EVAL for a in up):
            eval_nodes += s[6]["quadrules.radial_rule.nodes"]

    def per(num, den):
        return num / den if den else 0.0

    out = {
        "cli.self_s": self_t["cli.main"],
        "cli.calls": calls["cli.main"],
        "solver.assemble_s": busy["solver.assemble"],
        "solver.assemble.self_s": self_t["solver.assemble"],
        "solver.assemble.calls": calls["solver.assemble"],
        "solver.solve_dirichlet.self_s": self_t["solver.solve_dirichlet"],
        "solver.torsion_scan_s": busy["solver.torsion_scan"],
        "solver.lu_factor_s": busy["solver.lu_factor"],
        "solver.lu_factor.calls": calls["solver.lu_factor"],
        "solver.lu_solve_s": busy["solver.lu_solve"],
        "solver.lu_solve.calls": calls["solver.lu_solve"],
        "solver.lu_solve.per_solve": per(calls["solver.lu_solve"],
                                         calls["solver.solve_dirichlet"]),
        "solver.slogdet_s": busy["solver.slogdet"],
        "solver.slogdet.calls": calls["solver.slogdet"],
        "geometry.scatter_weights_s": busy["geometry.scatter_weights"],
        "geometry.scatter_weights.calls": calls["geometry.scatter_weights"],
        "geometry.scatter.in_grid_frac": per(total["geometry.scatter.in_grid_points"],
                                             total["geometry.scatter_weights.points"]),
        "geometry.interpolate_many_s": busy["geometry.interpolate_many"],
        "kernels.evaluate_s": busy["kernels.evaluate"],
        "kernels.evaluate.calls": calls["kernels.evaluate"],
        "quadrules.radial_rule_s": busy["quadrules.radial_rule"],
        "quadrules.radial_rule.calls": calls["quadrules.radial_rule"],
        "nonlocal_eval.eval_s": busy[_EVAL],
        "nonlocal_eval.eval.calls": calls[_EVAL],
        "nonlocal_eval.eval.self_s": self_t[_EVAL],
        "nonlocal_eval.eval.nodes_per_call": per(eval_nodes, calls[_EVAL]),
        "barriers.verify_s": busy[_VERIFY],
        "barriers.verify.calls": calls[_VERIFY],
        "barriers.points": per(verify_points, calls[_VERIFY]),
        "trace.spans": len(spans),
    }
    for key in ("solver.assemble.n", "solver.lu_factor.flops_computed",
                "solver.lu_solve.bytes_computed", "solver.fredholm.evaluations",
                "geometry.scatter_weights.points", "geometry.interpolate_many.points",
                "kernels.evaluate.points", "quadrules.radial_rule.nodes",
                "barriers.alpha_tries"):
        out[key] = total[key]
    for layer in ("cli", "solver", "geometry", "kernels", "quadrules", "nonlocal_eval",
                  "barriers"):
        out[f"{layer}.errors"] = total[f"{layer}.errors"]
    return out
