"""Batch command-line front end.

Subcommands: solve, eval, verify, torsion, fit, converge, constants.  Configs
are strict JSON documents (unknown keys are rejected so typos fail loudly);
outputs are CSV with 17-significant-digit floats and pretty-printed JSON with
sorted keys, both written atomically.  Exit codes: 0 success, 1 verification
or numerical failure, 2 usage/config error.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import inspect
import json
import math
import os
import sys
import tempfile

import numpy as np

from . import barriers, geometry, kernels, nonlocal_eval, solver
from .logmod import ell

__all__ = ["main"]


class ConfigError(Exception):
    pass


class VerificationFailure(Exception):
    pass


@contextlib.contextmanager
def _config_errors(where):
    """Report a bad value met while reading flags or a config as a config
    error (exit 2), not as a numerical failure (exit 1)."""
    try:
        yield
    except (OSError, TypeError, ValueError) as e:
        raise ConfigError(f"{where}: {e}") from e


# --------------------------------------------------------------------------
# config parsing helpers
# --------------------------------------------------------------------------


def _check_keys(obj, where, allowed, required=()):
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown keys {unknown} in {where}")
    missing = sorted(set(required) - set(obj))
    if missing:
        raise ConfigError(f"missing keys {missing} in {where}")


def _load_config(path):
    try:
        with open(path) as f:
            return json.load(f)
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(
            f"malformed JSON in {path}: line {e.lineno} column {e.colno}: {e.msg}"
        ) from e


def _parse_domain(spec):
    _check_keys(spec, "domain", {"type", "a", "b", "center", "radius", "lo", "hi"},
                {"type"})
    kind = spec["type"]
    if kind == "interval":
        _check_keys(spec, "interval domain", {"type", "a", "b"}, {"a", "b"})
        return geometry.Domain.interval(float(spec["a"]), float(spec["b"]))
    if kind == "ball":
        _check_keys(spec, "ball domain", {"type", "center", "radius"},
                    {"center", "radius"})
        return geometry.Domain.ball(np.asarray(spec["center"], dtype=float),
                                    float(spec["radius"]))
    if kind == "box":
        _check_keys(spec, "box domain", {"type", "lo", "hi"}, {"lo", "hi"})
        return geometry.Domain.box(np.asarray(spec["lo"], dtype=float),
                                   np.asarray(spec["hi"], dtype=float))
    raise ConfigError(f"unknown domain type {kind!r}")


def _required(parameters, names):
    """The names whose entry in a signature's parameters has no default."""
    return {name for name in names if parameters[name].default is inspect.Parameter.empty}


def _parse_field(spec, where="rhs"):
    """A catalog field from its JSON form {"name": ..., parameter: value}."""
    every = {p for _, params in nonlocal_eval.FIELDS.values() for p in params}
    _check_keys(spec, where, {"name"} | every, {"name"})
    name = spec["name"]
    if name not in nonlocal_eval.FIELDS:
        raise ConfigError(f"unknown field name {name!r} in {where}")
    make, params = nonlocal_eval.FIELDS[name]
    _check_keys(spec, f"{where} ({name})", {"name", *params},
                {"name"} | _required(inspect.signature(make).parameters, params))
    return make(**{key: spec[key] for key in params if key in spec})


_QUADRATURE = dataclasses.fields(nonlocal_eval.QuadratureConfig)


def _parse_quadrature(values, where="quadrature"):
    """A QuadratureConfig from the JSON quadrature object or the eval flags
    given: each of its fields, read with the type of the field's default;
    one left out keeps that default."""
    _check_keys(values, where, {f.name for f in _QUADRATURE})
    with _config_errors(where):
        return nonlocal_eval.QuadratureConfig(**{
            f.name: type(f.default)(values[f.name]) for f in _QUADRATURE if f.name in values
        })


def _parse_problem(cfg, where="config"):
    _check_keys(cfg, where,
                {"domain", "operator", "perturbation", "rhs", "h", "quadrature"},
                {"domain", "operator", "rhs"})
    with _config_errors(where):
        domain = _parse_domain(cfg["domain"])
        op = cfg["operator"]
        _check_keys(op, "operator", {"name", "kernel"}, {"name"})
        kernel = None
        if "kernel" in op:
            kernel = kernels.kernel_from_name(op["kernel"], N=domain.N)
        shift = 0.0
        if "perturbation" in cfg:
            pert = cfg["perturbation"]
            _check_keys(pert, "perturbation", {"name", "c"}, {"name"})
            if pert["name"] == "identity":
                shift = float(pert.get("c", 0.0))
            else:
                raise ConfigError(f"unknown perturbation {pert['name']!r}")
        rhs = _parse_field(cfg["rhs"])
        problem = solver.ProblemSpec(
            operator=op["name"], domain=domain, rhs=rhs, kernel=kernel, shift=shift
        )
        quad = _parse_quadrature(cfg.get("quadrature", {}))
        return problem, quad


# --------------------------------------------------------------------------
# output helpers
# --------------------------------------------------------------------------


def _write_atomic(path, text):
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-logop-")
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(text, out):
    """Print text and, when out is given, also write it there atomically."""
    print(text, end="")
    if out:
        _write_atomic(out, text)


def _json_text(obj):
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _g17(v):
    return f"{float(v):.17g}"


def _solution_csv(u):
    grid = u.grid
    cols = [f"x{i + 1}" for i in range(grid.domain.N)]
    lines = [",".join(cols + ["u"])]
    for node, val in zip(grid.nodes, u.values):
        lines.append(",".join([_g17(c) for c in node] + [_g17(val)]))
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------


def _cmd_constants(args):
    with _config_errors("--N"):
        consts = kernels.loglap_constants(args.N)
    print(json.dumps(
        {"c_N": round(consts.c_N, 7), "rho_N": round(consts.rho_N, 7)},
        sort_keys=True,
    ))
    return 0


def _cmd_eval(args):
    flags = {f.name: getattr(args, f.name) for f in _QUADRATURE}
    cfg = _parse_quadrature({k: v for k, v in flags.items() if v is not None}, "eval flags")
    with _config_errors("eval flags"):
        if args.op != "sector":
            x = np.array([float(t) for t in args.x.split(",")], dtype=float)
            field = nonlocal_eval.make_field(args.field)
        if args.op == "LK":
            K = kernels.kernel_from_name(args.kernel, N=args.N)
    if args.op == "sector":
        if args.r is None or args.d is None:
            raise ConfigError("--op sector requires --r and --d")
        value = nonlocal_eval.sector_integral(args.r, args.d, args.N, cfg)
        out = {"value": value}
    else:
        if len(x) != args.N:
            raise ConfigError("--x length must match --N")
        if args.op == "LK":
            value, err = nonlocal_eval.eval_LK(K, field, x, cfg, return_estimate=True)
        elif args.op == "loglap":
            value, err = nonlocal_eval.eval_loglap(
                field, x, cfg, args.N, path=args.path, return_estimate=True
            )
        elif args.op == "J":
            value, err = nonlocal_eval.eval_J_conv(field, x, cfg, return_estimate=True)
        else:
            value, err = nonlocal_eval.eval_schrodinger(
                field, x, cfg, args.N, return_estimate=True
            )
        out = {"err_est": err, "value": value}
    _emit(json.dumps(out, sort_keys=True) + "\n", args.out)
    return 0


def _parse_solve(doc, where):
    """The problem, quadrature and grid of a solve config (a problem plus 'h')."""
    problem, quad = _parse_problem(doc, where)
    if "h" not in doc:
        raise ConfigError(f"{where} requires 'h'")
    with _config_errors(f"{where}: h"):
        grid = geometry.build_grid(problem.domain, float(doc["h"]))
    return problem, quad, grid


def _cmd_solve(args):
    problem, quad, grid = _parse_solve(_load_config(args.config), "config")
    u, report = solver.solve_dirichlet(problem, grid, quad)
    _write_atomic(args.out, _solution_csv(u))
    _write_atomic(args.report, _json_text(dataclasses.asdict(report)))
    if report.alternative != "unique_solution":
        print("solver: near-singular system; wrote approximate null vector",
              file=sys.stderr)
        return 1
    return 0


# each lemma's verifier in barriers, and the rule that passes the lemma on
# the verifier's result
_LEMMAS = {
    "boundary": ("verify_boundary_barrier", lambda r: r["delta_hat"] > 0),
    "bump": ("verify_bump", lambda r: bool(r["stable"]) and math.isfinite(r["C_hat"])),
    "gain": ("verify_gain", lambda r: bool(r["pass"])),
    "tail": ("verify_tail", lambda r: math.isfinite(r["C_hat"])),
    "exponential": ("verify_exponential", lambda r: r["c0_hat"] > 0),
    "sector": ("verify_sector", lambda r: bool(r["pass"])),
    "composite": ("verify_composite", lambda r: r["delta_hat"] > 0),
}

# Each verifier's signature is its lemma's config schema: every parameter
# but K, N and cfg is a config key, required when it has no default, and a
# verifier with a K parameter takes the 'kernel' key.  The signatures are
# read once, here: tracing may later swap in wrappers that have none.
_SCHEMAS = {lemma: inspect.signature(getattr(barriers, fn)).parameters
            for lemma, (fn, _) in _LEMMAS.items()}


def _lemma_param(key, value):
    """A lemma parameter from its JSON value: a list of floats for the
    '*_list' keys, a float otherwise."""
    if key.endswith("_list"):
        return [float(v) for v in value]
    return float(value)


def _cmd_verify(args):
    doc = _load_config(args.config)
    lemma = args.lemma
    verifier, passes = _LEMMAS[lemma]
    schema = _SCHEMAS[lemma]
    params = [key for key in schema if key not in ("K", "N", "cfg")]
    where = f"{lemma} config"
    kernel = ["kernel"] if "K" in schema else []
    _check_keys(doc, where, {"N", "quadrature", *kernel, *params},
                _required(schema, params))
    with _config_errors(where):
        N = int(doc.get("N", 1))
        kwargs = {key: _lemma_param(key, doc[key]) for key in params if key in doc}
        if "K" in schema:
            kwargs["K"] = kernels.kernel_from_name(doc.get("kernel", "unit"), N=N)
    quad = _parse_quadrature(doc.get("quadrature", {}))

    try:
        result = getattr(barriers, verifier)(cfg=quad, N=N, **kwargs)
        verdict = {"pass": bool(passes(result)), "constants": result}
    except RuntimeError as e:
        verdict = {"pass": False, "constants": {}, "detail": str(e)}
    verdict |= {"lemma": lemma, "samples": barriers.SAMPLES_PER_SCALE}
    _emit(_json_text(verdict), args.out)
    return 0 if verdict["pass"] else 1


def _cmd_torsion(args):
    doc = _load_config(args.config)
    _check_keys(doc, "torsion config",
                {"R_list", "kernel", "N", "rhs", "nodes_across", "quadrature"},
                {"R_list"})
    quad = _parse_quadrature(doc.get("quadrature", {}))
    with _config_errors("torsion config"):
        N = int(doc.get("N", 1))
        template = solver.ProblemSpec(
            operator="generic",
            domain=geometry.Domain.ball(np.zeros(N), 0.05),
            rhs=_parse_field(doc.get("rhs", {"name": "const", "value": 1.0})),
            kernel=kernels.kernel_from_name(doc.get("kernel", "unit"), N=N),
        )
        radii = solver.torsion_radii(doc["R_list"])
        nodes_across = int(doc.get("nodes_across", 80))
    rows = solver.torsion_scan(radii, template, quad, nodes_across=nodes_across)
    cols = ["R", "h", "max_u", "ell_R", "ratio", "residual_inf"]
    lines = [",".join(cols)]
    for row in rows:
        lines.append(",".join(_g17(row[c]) for c in cols))
    _write_atomic(args.out, "\n".join(lines) + "\n")
    return 0


def _cmd_fit(args):
    doc = _load_config(args.config)
    _check_keys(doc, "fit config", {"solve", "synthetic"})
    if ("solve" in doc) == ("synthetic" in doc):
        raise ConfigError("fit config requires exactly one of 'solve'/'synthetic'")
    if "solve" in doc:
        problem, quad, grid = _parse_solve(doc["solve"], "fit.solve")
        u, report = solver.solve_dirichlet(problem, grid, quad)
        if report.alternative != "unique_solution":
            raise VerificationFailure("fit: solve hit the near-singular alternative")
        desc = doc["solve"]["rhs"]["name"]
    else:
        syn = doc["synthetic"]
        _check_keys(doc["synthetic"], "synthetic", {"domain", "h", "alpha"},
                    {"domain", "h", "alpha"})
        with _config_errors("synthetic"):
            domain = _parse_domain(syn["domain"])
            grid = geometry.build_grid(domain, float(syn["h"]))
            alpha = float(syn["alpha"])
        d = geometry.dist_to_boundary(domain, grid.nodes)
        u = geometry.GridFunction(grid, ell(np.maximum(d, 1e-300), alpha))
        desc = f"synthetic ell^{alpha}(d)"
    result = solver.estimate_regularity(u, desc)
    # keep the document strict JSON: infinite exponents (flat samples) as strings
    result = {
        k: (v if math.isfinite(v) else ("inf" if v > 0 else "-inf"))
        for k, v in result.items()
    }
    _emit(_json_text(result), args.out)
    return 0


def _cmd_converge(args):
    doc = _load_config(args.config)
    _check_keys(doc, "converge config",
                {"domain", "operator", "perturbation", "rhs", "h_list",
                 "quadrature"},
                {"domain", "operator", "rhs", "h_list"})
    problem_doc = {k: v for k, v in doc.items() if k not in ("h_list",)}
    problem, quad = _parse_problem(problem_doc, where="converge config")
    with _config_errors("h_list"):
        h_list = sorted((float(h) for h in doc["h_list"]), reverse=True)
        grids = [geometry.build_grid(problem.domain, h) for h in h_list]
    if len(h_list) < 3:
        raise ConfigError("converge requires at least 3 levels in h_list")
    solutions = []
    for h, grid in zip(h_list, grids):
        u, report = solver.solve_dirichlet(problem, grid, quad)
        if report.alternative != "unique_solution":
            print(f"converge: near-singular system at h={h:g}", file=sys.stderr)
            return 1
        solutions.append(u)
    lines = ["h,sup_diff_to_next"]
    for k in range(len(h_list) - 1):
        coarse, fine = solutions[k], solutions[k + 1]
        fine_at_coarse = geometry.interpolate_many(fine, coarse.grid.nodes)
        diff = float(np.max(np.abs(coarse.values - fine_at_coarse)))
        lines.append(f"{_g17(h_list[k])},{_g17(diff)}")
    _write_atomic(args.out, "\n".join(lines) + "\n")
    return 0


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------


@functools.cache  # built once per process; parse_args does not change it
def _build_parser():
    p = argparse.ArgumentParser(
        prog="logop",
        description="Zero-order nonlocal operators: evaluation, Dirichlet solves,"
                    " and barrier verification.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("constants", help="print the log-Laplacian constants")
    c.add_argument("--N", type=int, required=True)
    c.set_defaults(fn=_cmd_constants)

    e = sub.add_parser("eval", help="evaluate an operator at a point")
    e.add_argument("--op", required=True,
                   choices=["LK", "loglap", "J", "schrodinger", "sector"])
    e.add_argument("--kernel", default="unit")
    e.add_argument("--field", default="const(1)")
    e.add_argument("--x", default="0")
    e.add_argument("--N", type=int, default=1)
    e.add_argument("--path", default="decomposition",
                   choices=["decomposition", "direct"])
    e.add_argument("--r", type=float, default=None, help="sector ball radius")
    e.add_argument("--d", type=float, default=None, help="sector boundary gap")
    for f in _QUADRATURE:
        e.add_argument("--" + f.name.replace("_", "-"), type=type(f.default),
                       help=f"default {f.default}")
    e.add_argument("--out", default=None)
    e.set_defaults(fn=_cmd_eval)

    s = sub.add_parser("solve", help="solve a Dirichlet problem")
    s.add_argument("--config", required=True)
    s.add_argument("--out", required=True, help="solution CSV path")
    s.add_argument("--report", required=True, help="report JSON path")
    s.set_defaults(fn=_cmd_solve)

    v = sub.add_parser("verify", help="run a barrier verifier")
    v.add_argument("--lemma", required=True, choices=list(_LEMMAS))
    v.add_argument("--config", required=True)
    v.add_argument("--out", default=None)
    v.set_defaults(fn=_cmd_verify)

    t = sub.add_parser("torsion", help="torsion scaling scan over ball radii")
    t.add_argument("--config", required=True)
    t.add_argument("--out", required=True)
    t.set_defaults(fn=_cmd_torsion)

    f = sub.add_parser("fit", help="fit regularity exponents of a solution")
    f.add_argument("--config", required=True)
    f.add_argument("--out", default=None)
    f.set_defaults(fn=_cmd_fit)

    g = sub.add_parser("converge", help="grid refinement study")
    g.add_argument("--config", required=True)
    g.add_argument("--out", required=True)
    g.set_defaults(fn=_cmd_converge)

    return p


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except VerificationFailure as e:
        print(f"verification failure: {e}", file=sys.stderr)
        return 1
    except (ArithmeticError, ValueError, RuntimeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
