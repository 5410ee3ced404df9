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


_FIELD_KEYS = {
    "const": ({"value"}, ()),
    "linear": (set(), ()),
    "quadratic": (set(), ()),
    "gaussian": ({"sigma"}, ()),
    "ell_profile": ({"alpha"}, ("alpha",)),
    "shell": ({"a", "b"}, ("a", "b")),
}


def _parse_field(spec, where="rhs"):
    _check_keys(spec, where, {"name"} | {k for ks, _ in _FIELD_KEYS.values() for k in ks},
                {"name"})
    name = spec["name"]
    if name not in _FIELD_KEYS:
        raise ConfigError(f"unknown field name {name!r} in {where}")
    allowed, required = _FIELD_KEYS[name]
    _check_keys(spec, f"{where} ({name})", {"name"} | allowed,
                {"name"} | set(required))
    if name == "const":
        return nonlocal_eval.const_field(float(spec.get("value", 1.0)))
    if name == "linear":
        return nonlocal_eval.linear_field()
    if name == "quadratic":
        return nonlocal_eval.quadratic_field()
    if name == "gaussian":
        return nonlocal_eval.gaussian_field(float(spec.get("sigma", math.sqrt(0.5))))
    if name == "ell_profile":
        return nonlocal_eval.ell_profile_field(float(spec["alpha"]))
    return nonlocal_eval.shell_field(float(spec["a"]), float(spec["b"]))


def _parse_quadrature(spec):
    if spec is None:
        return nonlocal_eval.QuadratureConfig()
    _check_keys(spec, "quadrature", {"n_radial", "n_angular", "r_min", "mode"})
    with _config_errors("quadrature"):
        kwargs = {}
        if "n_radial" in spec:
            kwargs["n_radial"] = int(spec["n_radial"])
        if "n_angular" in spec:
            kwargs["n_angular"] = int(spec["n_angular"])
        if "r_min" in spec:
            kwargs["r_min"] = float(spec["r_min"])
        if "mode" in spec:
            kwargs["mode"] = str(spec["mode"])
        return nonlocal_eval.QuadratureConfig(**kwargs)


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
        pert = cfg.get("perturbation")
        if pert is not None:
            _check_keys(pert, "perturbation", {"name", "c"}, {"name"})
            if pert["name"] == "identity":
                shift = float(pert.get("c", 0.0))
            else:
                raise ConfigError(f"unknown perturbation {pert['name']!r}")
        rhs = _parse_field(cfg["rhs"])
        problem = solver.ProblemSpec(
            operator=op["name"], domain=domain, rhs=rhs, kernel=kernel, shift=shift
        )
        quad = _parse_quadrature(cfg.get("quadrature"))
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


def _report_dict(report):
    return {
        "residual_inf": report.residual_inf,
        "condition_estimate": report.condition_estimate,
        "alternative": report.alternative,
        "mp_audit": report.mp_audit,
        "h": report.h,
        "sigma_min": report.sigma_min,
        "timings": report.timings,
    }


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
    with _config_errors("eval flags"):
        cfg = nonlocal_eval.QuadratureConfig(
            n_radial=args.n_radial, n_angular=args.n_angular,
            r_min=args.r_min, mode=args.mode,
        )
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
    text = json.dumps(out, sort_keys=True)
    print(text)
    if args.out:
        _write_atomic(args.out, text + "\n")
    return 0


def _cmd_solve(args):
    cfg_doc = _load_config(args.config)
    problem, quad = _parse_problem(cfg_doc)
    if "h" not in cfg_doc:
        raise ConfigError("solve config requires 'h'")
    with _config_errors("h"):
        grid = geometry.build_grid(problem.domain, float(cfg_doc["h"]))
    u, report = solver.solve_dirichlet(problem, grid, quad)
    _write_atomic(args.out, _solution_csv(u))
    _write_atomic(args.report, _json_text(_report_dict(report)))
    if report.alternative != "unique_solution":
        print("solver: near-singular system; wrote approximate null vector",
              file=sys.stderr)
        return 1
    return 0


def _floats(values):
    return [float(v) for v in values]


# each lemma's config keys besides N, kernel and quadrature:
# key -> (parse, default), where a default of None marks a required key
_LEMMA_PARAMS = {
    "boundary": {"r": (float, None), "alpha_list": (_floats, None)},
    "bump": {"r_list": (_floats, None)},
    "gain": {"rho": (float, None), "A_fraction": (float, 1.0)},
    "tail": {"rho": (float, None), "alpha": (float, None)},
    "exponential": {"alpha_list": (_floats, None), "half_width": (float, 1.0)},
    "sector": {"r": (float, None), "d": (float, None), "c_min": (float, 0.1)},
    "composite": {"rho": (float, None), "alpha_list": (_floats, None),
                  "A_fraction": (float, 1.0)},
}


def _run_lemma(lemma, K, N, quad, p):
    """Run one lemma's verifier on its parsed parameters p; returns the
    verifier's result and whether it passed."""
    if lemma == "boundary":
        result = barriers.verify_boundary_barrier(K, p["r"], p["alpha_list"], quad, N=N)
        return result, result["delta_hat"] > 0
    if lemma == "bump":
        result = barriers.verify_bump(K, p["r_list"], quad, N=N)
        return result, bool(result["stable"]) and math.isfinite(result["C_hat"])
    if lemma == "gain":
        result = barriers.verify_gain(K, p["rho"], p["A_fraction"], quad, N=N)
        return result, bool(result["pass"])
    if lemma == "tail":
        result = barriers.verify_tail(K, p["rho"], p["alpha"], quad, N=N)
        return result, math.isfinite(result["C_hat"])
    if lemma == "exponential":
        result = barriers.verify_exponential(
            K, p["alpha_list"], quad, N=N, half_width=p["half_width"]
        )
        return result, result["c0_hat"] > 0
    if lemma == "sector":
        result = barriers.verify_sector(p["r"], p["d"], N, quad, c_min=p["c_min"])
        return result, bool(result["pass"])
    result = barriers.verify_composite(
        K, p["rho"], p["alpha_list"], quad, N=N, A_fraction=p["A_fraction"]
    )
    return result, result["delta_hat"] > 0


def _cmd_verify(args):
    doc = _load_config(args.config)
    lemma = args.lemma
    params = _LEMMA_PARAMS[lemma]
    base_keys = {"N", "quadrature"} | ({"kernel"} if lemma != "sector" else set())
    where = f"{lemma} config"
    _check_keys(doc, where, base_keys | set(params),
                {key for key, (_, default) in params.items() if default is None})
    with _config_errors(where):
        N = int(doc.get("N", 1))
        K = kernels.kernel_from_name(doc.get("kernel", "unit"), N=N)
        p = {key: parse(doc[key]) if key in doc else default
             for key, (parse, default) in params.items()}
    quad = _parse_quadrature(doc.get("quadrature"))

    try:
        result, passed = _run_lemma(lemma, K, N, quad, p)
    except RuntimeError as e:
        verdict = {"lemma": lemma, "pass": False, "constants": {},
                   "samples": barriers.SAMPLES_PER_SCALE, "detail": str(e)}
        text = _json_text(verdict)
        print(text, end="")
        if args.out:
            _write_atomic(args.out, text)
        return 1

    verdict = {"lemma": lemma, "pass": bool(passed), "constants": result,
               "samples": barriers.SAMPLES_PER_SCALE}
    text = _json_text(verdict)
    print(text, end="")
    if args.out:
        _write_atomic(args.out, text)
    return 0 if passed else 1


def _cmd_torsion(args):
    doc = _load_config(args.config)
    _check_keys(doc, "torsion config",
                {"R_list", "kernel", "N", "rhs", "nodes_across", "quadrature"},
                {"R_list"})
    quad = _parse_quadrature(doc.get("quadrature"))
    with _config_errors("torsion config"):
        N = int(doc.get("N", 1))
        template = solver.ProblemSpec(
            operator="generic",
            domain=geometry.Domain.ball(np.zeros(N), 0.05),
            rhs=_parse_field(doc.get("rhs", {"name": "const", "value": 1.0})),
            kernel=kernels.kernel_from_name(doc.get("kernel", "unit"), N=N),
        )
        radii = [float(R) for R in doc["R_list"]]
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
        sub = doc["solve"]
        problem, quad = _parse_problem(sub, where="fit.solve")
        if "h" not in sub:
            raise ConfigError("fit.solve config requires 'h'")
        with _config_errors("fit.solve.h"):
            grid = geometry.build_grid(problem.domain, float(sub["h"]))
        u, report = solver.solve_dirichlet(problem, grid, quad)
        if report.alternative != "unique_solution":
            raise VerificationFailure("fit: solve hit the near-singular alternative")
        desc = sub["rhs"]["name"]
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
        quad = nonlocal_eval.QuadratureConfig()
        desc = f"synthetic ell^{alpha}(d)"
    result = solver.estimate_regularity(u, desc, quad)
    # keep the document strict JSON: infinite exponents (flat samples) as strings
    result = {
        k: (v if math.isfinite(v) else ("inf" if v > 0 else "-inf"))
        for k, v in result.items()
    }
    text = _json_text(result)
    print(text, end="")
    if args.out:
        _write_atomic(args.out, text)
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
    e.add_argument("--n-radial", type=int, default=128)
    e.add_argument("--n-angular", type=int, default=16)
    e.add_argument("--r-min", type=float, default=1e-12)
    e.add_argument("--mode", default="fast", choices=["fast", "oracle"])
    e.add_argument("--out", default=None)
    e.set_defaults(fn=_cmd_eval)

    s = sub.add_parser("solve", help="solve a Dirichlet problem")
    s.add_argument("--config", required=True)
    s.add_argument("--out", required=True, help="solution CSV path")
    s.add_argument("--report", required=True, help="report JSON path")
    s.set_defaults(fn=_cmd_solve)

    v = sub.add_parser("verify", help="run a barrier verifier")
    v.add_argument("--lemma", required=True, choices=list(_LEMMA_PARAMS))
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
