"""Seeded inputs, operations and output checks of the benchmark workloads.

The generator varies only positions and data: ball and box centres, right-hand
side fields, verifier radii and exponents, and evaluation points.  It never
changes h, a domain's size, a kernel or a node count, so every seed does the
same work.  Every range below was checked to pass on the code it was written
against.  Configs use no `seed` key and no `loglap_tail` perturbation.

An operation is one call a user waits for: a CLI subcommand through
`logop.cli.main`, or one `solve_dirichlet` / `assemble` / `fredholm_sweep`
call where the CLI has no subcommand for it.  Its check runs after it, outside
the timed region, and relies on the pointwise quadrature of
`logop.nonlocal_eval` (the collocation identity), closed forms and a dense
eigen-solve rather than on the assembly and LU paths being timed.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import os
import random

import numpy as np

from logop import cli, kernels, nonlocal_eval, solver
from logop.geometry import Domain, GridFunction, build_grid
from logop.nonlocal_eval import QuadratureConfig, const_field, gaussian_field, grid_field

CFG = QuadratureConfig()

# Sizes per workload; "tiny" serves the self-check.  No h divides a ball
# radius or box half-width, so no lattice node sits on a boundary and
# shifting the centre leaves the node count unchanged.
SIZES = {
    "solve-2d": {
        "full": {"solves": [(0.04, "unit"), (0.03, "sinlog"), (0.02, "unit")],
                 "nodes_across": 13, "box_h": 0.14},
        "tiny": {"solves": [(0.1, "unit"), (0.09, "sinlog")],
                 "nodes_across": 7, "box_h": 0.3},
    },
    "dense-1d": {
        "full": {"solve_h": 0.0005, "converge_h": [0.004, 0.002, 0.001],
                 "shared_h": 0.001, "rhs_count": 8, "sweep_h": 0.001},
        "tiny": {"solve_h": 0.02, "converge_h": [0.1, 0.05, 0.025],
                 "shared_h": 0.02, "rhs_count": 2, "sweep_h": 0.02},
    },
    "verify-2d": {
        "full": {"lemmas": ("boundary", "bump", "gain", "tail", "exponential", "sector",
                            "composite"),
                 "kernels": ("unit", "sinlog"), "evals_per_op": 4},
        "tiny": {"lemmas": ("gain", "sector"), "kernels": ("unit",), "evals_per_op": 1},
    },
    "xdep-2d": {
        "full": {"ball_h": 0.02, "interval_h": 0.001},
        "tiny": {"ball_h": 0.1, "interval_h": 0.02},
    },
}

# A perturbation this large breaks every check below by orders of magnitude.
_CORRUPTION = 1e-3


class CheckFailed(Exception):
    pass


def require(ok, message):
    if not ok:
        raise CheckFailed(message)


@dataclasses.dataclass
class Op:
    """One timed operation.  `check(output, corrupt)` raises CheckFailed; with
    `corrupt` set it first perturbs one output value, which must be caught."""

    name: str
    run: callable
    check: callable


@dataclasses.dataclass
class Workload:
    ops: list
    warmup: int   # index of the op run once during set-up


def wobble_kernel(amplitude, phase):
    """x-dependent, uniformly elliptic kernel: exercises the per-row assembly."""

    def evaluate(x, Y):
        rho = np.linalg.norm(np.atleast_2d(Y), axis=1)
        wobble = math.sin(3.0 * float(np.asarray(x).ravel()[0]) + phase)
        return 1.0 + amplitude * wobble * np.cos(rho)

    return kernels.KernelSpec(evaluate=evaluate, lam=1.0 - amplitude, Lam=1.0 + amplitude,
                              translation_invariant=False, name="wobble")


# --------------------------------------------------------------------------
# generation helpers
# --------------------------------------------------------------------------


def _rhs_doc(rng, kind):
    if kind == "const":
        return {"name": "const", "value": round(rng.uniform(0.5, 2.0), 6)}
    return {"name": "gaussian", "sigma": round(rng.uniform(0.2, 0.5), 6)}


def _rhs_field(doc):
    if doc["name"] == "const":
        return const_field(doc["value"])
    return gaussian_field(doc["sigma"])


def _domain(doc):
    if doc["type"] == "interval":
        return Domain.interval(doc["a"], doc["b"])
    if doc["type"] == "ball":
        return Domain.ball(doc["center"], doc["radius"])
    return Domain.box(doc["lo"], doc["hi"])


def _shifted(rng, make_doc, h, spread=0.3):
    """A domain doc at a seeded centre with the node count of the centred one."""
    n_ref = build_grid(_domain(make_doc([0.0, 0.0])), h).n
    for _ in range(100):
        c = [round(rng.uniform(-spread, spread), 6) for _ in range(2)]
        doc = make_doc(c)
        if build_grid(_domain(doc), h).n == n_ref:
            return doc
    raise RuntimeError("no centre keeps the node count")


def _ball(radius):
    return lambda c: {"type": "ball", "center": c, "radius": radius}


def _box(half):
    return lambda c: {"type": "box", "lo": [x - half for x in c], "hi": [x + half for x in c]}


def _write_json(work, name, doc):
    path = os.path.join(work, name)
    with open(path, "w") as f:
        json.dump(doc, f)
    return path


def _cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            rc = cli.main(argv)
        except SystemExit as e:   # argparse rejects the command line
            rc = e.code
    return rc, buf.getvalue()


def _check_points(rng, count=3):
    return [rng.random() for _ in range(count)]


def _finite_numbers(obj):
    if isinstance(obj, bool):
        return True
    if isinstance(obj, (int, float)):
        return math.isfinite(obj)
    if isinstance(obj, dict):
        return all(_finite_numbers(v) for v in obj.values())
    if isinstance(obj, (list, tuple)):
        return all(_finite_numbers(v) for v in obj)
    return True


# --------------------------------------------------------------------------
# checks
# --------------------------------------------------------------------------


def check_solution(problem, grid, u, report, fractions, tol, corrupt):
    """Fredholm verdict, residual and MP audit as reported, then the
    collocation identity L u(x_i) = f(x_i), with L evaluated pointwise on the
    interpolant of u at seeded nodes (as in the solver tests)."""
    u = np.array(u, dtype=float)
    if corrupt:
        u[len(u) // 3] += _CORRUPTION * max(1.0, float(np.max(np.abs(u))))
    require(report["alternative"] == "unique_solution", f"verdict {report['alternative']}")
    require(report["mp_audit"]["pass"], "maximum-principle audit failed")
    f = problem.rhs.evaluate(grid.nodes)
    scale = max(1.0, float(np.max(np.abs(f))))
    require(report["residual_inf"] <= 1e-9 * scale, f"residual {report['residual_inf']:.3g}")
    require(bool(np.all(np.isfinite(u))), "non-finite solution")
    field = grid_field(GridFunction(grid, u))
    for frac in fractions:
        i = int(frac * grid.n)
        x = grid.nodes[i]
        if problem.operator == "generic":
            value = nonlocal_eval.eval_LK(problem.kernel, field, x, CFG)
        else:
            value = nonlocal_eval.eval_loglap(field, x, CFG, grid.domain.N)
        value += problem.shift * u[i]
        require(abs(value - f[i]) <= tol * scale,
                f"collocation identity off by {abs(value - f[i]):.3g} at node {i}")


# --------------------------------------------------------------------------
# operations
# --------------------------------------------------------------------------


def cli_solve(work, tag, doc, kernel_name, fractions, tol=1e-8):
    """CLI `solve`; `tol` bounds the collocation identity relative to max|f|.
    Where the far-field block is nonzero the assembled and pointwise far-field
    quadratures use different outer radii, so they agree only to about 1e-5."""
    config = _write_json(work, f"{tag}.json", doc)
    out, rep = os.path.join(work, f"{tag}.csv"), os.path.join(work, f"{tag}.report.json")

    def run():
        return _cli(["solve", "--config", config, "--out", out, "--report", rep])

    def check(output, corrupt):
        rc, _ = output
        require(rc == 0, f"exit code {rc}")
        domain = _domain(doc["domain"])
        grid = build_grid(domain, doc["h"])
        table = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
        require(table.shape == (grid.n, domain.N + 1), "solution table has the wrong shape")
        require(np.allclose(table[:, :-1], grid.nodes, rtol=0, atol=1e-12),
                "solution nodes differ from the grid")
        with open(rep) as f:
            report = json.load(f)
        kernel = kernels.kernel_from_name(kernel_name, N=domain.N) if kernel_name else None
        problem = solver.ProblemSpec(operator=doc["operator"]["name"], domain=domain,
                                     rhs=_rhs_field(doc["rhs"]), kernel=kernel)
        check_solution(problem, grid, table[:, -1], report, fractions, tol, corrupt)

    return Op(f"solve:{tag}", run, check)


def cli_torsion(work, doc):
    config = _write_json(work, "torsion.json", doc)
    out = os.path.join(work, "torsion.csv")

    def run():
        return _cli(["torsion", "--config", config, "--out", out])

    def check(output, corrupt):
        rc, _ = output
        require(rc == 0, f"exit code {rc}")
        rows = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
        require(rows.shape == (len(doc["R_list"]), 6), "torsion table has the wrong shape")
        require(bool(np.all(np.isfinite(rows))), "non-finite torsion table")
        R, _, max_u, ell_R, ratio, resid = rows.T
        require(bool(np.all(max_u > 0)), "torsion maximum not positive")
        require(bool(np.all(resid <= 1e-9)), "torsion residual too large")
        require(np.allclose(ratio, max_u / ell_R, rtol=1e-12), "torsion ratio inconsistent")

    return Op("torsion", run, check)


def cli_converge(work, doc):
    config = _write_json(work, "converge.json", doc)
    out = os.path.join(work, "converge.csv")

    def run():
        return _cli(["converge", "--config", config, "--out", out])

    def check(output, corrupt):
        rc, _ = output
        require(rc == 0, f"exit code {rc}")
        rows = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
        require(rows.shape == (len(doc["h_list"]) - 1, 2), "converge table has the wrong shape")
        require(bool(np.all(np.isfinite(rows))) and bool(np.all(rows[:, 1] > 0)),
                "converge table not finite and positive")

    return Op("converge", run, check)


def cli_verify(work, lemma, doc):
    tag = f"verify-{lemma}-{doc.get('kernel', 'none')}"
    config = _write_json(work, f"{tag}.json", doc)

    def run():
        return _cli(["verify", "--lemma", lemma, "--config", config])

    def check(output, corrupt):
        rc, text = output
        verdict = json.loads(text)
        if corrupt:
            verdict["pass"] = False
        require(rc == 0 and verdict["pass"] is True, f"verify {lemma} failed (exit {rc})")
        require(_finite_numbers(verdict["constants"]), f"verify {lemma}: non-finite constant")

    return Op(tag, run, check)


def _gauss_loglap(field, x, path):
    return nonlocal_eval.eval_loglap(field, x, CFG, len(x), path=path)


def _eval_reference(op, field, x):
    """Closed forms (2-D) or an identity between two different quadratures."""
    if op == "LK-unit":
        return -math.pi                     # L |y|^2 = -|B_1| for K = 1
    if op == "LK-sinlog":
        return -0.8 * math.pi               # K = 1 + sin(ln r)/2
    if op == "schrodinger":
        return -4.0                         # 2 * int_0^inf r^2 K_1(r) dr
    if op == "loglap-decomposition":
        return _gauss_loglap(field, x, "direct")
    if op == "loglap-direct":
        return _gauss_loglap(field, x, "decomposition")
    # J = L_1 u - (loglap u - rho_N u) / c_N
    consts = kernels.loglap_constants(len(x))
    lk = nonlocal_eval.eval_LK(kernels.unit_kernel(), field, x, CFG)
    ux = float(field.evaluate(x[None, :])[0])
    return lk - (_gauss_loglap(field, x, "direct") - consts.rho_N * ux) / consts.c_N


_EVAL_ARGS = {
    "LK-unit": ["--op", "LK", "--kernel", "unit", "--field", "quadratic"],
    "LK-sinlog": ["--op", "LK", "--kernel", "sinlog", "--field", "quadratic"],
    "loglap-decomposition": ["--op", "loglap", "--path", "decomposition"],
    "loglap-direct": ["--op", "loglap", "--path", "direct"],
    "J": ["--op", "J"],
    "schrodinger": ["--op", "schrodinger", "--field", "quadratic"],
}


def cli_eval(op, x, sigma):
    argv = ["eval", "--N", "2", "--x=" + ",".join(repr(t) for t in x)] + _EVAL_ARGS[op]
    if "--field" not in argv:
        argv += ["--field", f"gaussian({sigma!r})"]
    x = np.array(x)

    def run():
        return _cli(argv)

    def check(output, corrupt):
        rc, text = output
        require(rc == 0, f"exit code {rc}")
        doc = json.loads(text)
        value = doc["value"] * (1 + _CORRUPTION) + _CORRUPTION if corrupt else doc["value"]
        require(math.isfinite(value) and math.isfinite(doc["err_est"]), "non-finite eval")
        ref = _eval_reference(op, gaussian_field(sigma), x)
        require(abs(value - ref) <= 1e-6 * max(1.0, abs(ref)),
                f"eval {op} = {value!r}, reference {ref!r}")

    return Op(f"eval:{op}", run, check)


def api_solve(tag, make_problem, grid, fractions, stiffness=None):
    """`solver.solve_dirichlet`; `stiffness` is a callable giving a shared
    assembled matrix."""

    def run():
        problem = make_problem()
        sm = stiffness() if stiffness is not None else None
        return problem, solver.solve_dirichlet(problem, grid, CFG, stiffness=sm)

    def check(output, corrupt):
        problem, (u, report) = output
        check_solution(problem, grid, u.values, dataclasses.asdict(report), fractions, 1e-8,
                       corrupt)

    return Op(f"solve:{tag}", run, check)


# --------------------------------------------------------------------------
# workloads
# --------------------------------------------------------------------------


def _solve_2d(rng, size, work):
    ops = []
    for k, (h, kname) in enumerate(size["solves"]):
        doc = {"domain": _shifted(rng, _ball(0.25), h),
               "operator": {"name": "generic", "kernel": kname},
               "rhs": _rhs_doc(rng, "const" if k % 2 == 0 else "gaussian"), "h": h}
        ops.append(cli_solve(work, f"ball-h{h}-{kname}", doc, kname, _check_points(rng)))
    ops.append(cli_torsion(work, {"R_list": [round(rng.uniform(0.05, 0.1), 6)], "N": 2,
                                  "kernel": "sinlog", "nodes_across": size["nodes_across"]}))
    h = size["box_h"]
    doc = {"domain": _shifted(rng, _box(0.75), h), "operator": {"name": "loglap"},
           "rhs": _rhs_doc(rng, "gaussian"), "h": h}
    ops.append(cli_solve(work, "box-loglap", doc, None, _check_points(rng), tol=1e-3))
    return Workload(ops, warmup=0)


def _dense_1d(rng, size, work):
    interval = {"type": "interval", "a": -0.5, "b": 0.5}
    domain = _domain(interval)
    ops = []
    doc = {"domain": interval, "operator": {"name": "generic", "kernel": "unit"},
           "rhs": _rhs_doc(rng, "gaussian"), "h": size["solve_h"]}
    ops.append(cli_solve(work, "interval", doc, "unit", _check_points(rng)))
    ops.append(cli_converge(work, {"domain": interval, "operator": {"name": "loglap"},
                                   "rhs": _rhs_doc(rng, "const"), "h_list": size["converge_h"]}))

    def unit_problem(rhs):
        # the kernel is built per call, so a traced run sees its evaluations
        return solver.ProblemSpec(operator="generic", domain=domain, rhs=rhs,
                                  kernel=kernels.unit_kernel())

    grid = build_grid(domain, size["shared_h"])
    shared = {}

    def assemble():
        shared["sm"] = solver.assemble(unit_problem(const_field(1.0)), grid, CFG)
        return shared["sm"]

    def check_matrix(sm, corrupt):
        A = sm.matrix
        require(A.shape == (grid.n, grid.n) and bool(np.all(np.isfinite(A))), "bad matrix")
        off = A - np.diag(np.diag(A))
        require(bool(np.all(off <= 1e-14)) and bool(np.all(np.diag(A) > 0)),
                "matrix is not an M-matrix")

    ops.append(Op("assemble:shared", assemble, check_matrix))
    for k in range(size["rhs_count"]):
        rhs = _rhs_field(_rhs_doc(rng, ("const", "gaussian")[k % 2]))
        ops.append(api_solve(f"shared-rhs{k}", lambda rhs=rhs: unit_problem(rhs), grid,
                             _check_points(rng), stiffness=lambda: shared["sm"]))

    sweep_grid = build_grid(domain, size["sweep_h"])
    lam = {}

    def sweep():
        return solver.fredholm_sweep(unit_problem(const_field(1.0)), sweep_grid, CFG, 1.0, 2.5)

    def check_sweep(out, corrupt):
        if "lam1" not in lam:
            A = solver.assemble(unit_problem(const_field(1.0)), sweep_grid, CFG).matrix
            lam["lam1"] = float(np.min(np.linalg.eigvals(A).real))
        mu = out["mu_star"] * (1 + _CORRUPTION) if corrupt else out["mu_star"]
        require(out["evaluations"] >= 3, "sweep made fewer than 3 evaluations")
        require(abs(mu - lam["lam1"]) <= 1e-8 * lam["lam1"],
                f"sweep mu* {mu!r} differs from lambda_1 {lam['lam1']!r}")

    ops.append(Op("fredholm_sweep", sweep, check_sweep))
    return Workload(ops, warmup=1)


def _verify_doc(rng, lemma):
    u = rng.uniform
    if lemma == "boundary":
        # below r = 0.035 the unit kernel fails for alpha near 1/3
        return {"r": round(u(0.04, 0.08), 6), "alpha_list": [round(u(0.15, 0.3), 6)]}
    if lemma == "bump":
        r = round(u(0.03, 0.08), 6)
        return {"r_list": [r, round(r / 10, 8)]}
    if lemma == "gain":
        return {"rho": round(u(0.03, 0.08), 6)}
    if lemma == "tail":
        return {"rho": round(u(5e-4, 2e-3), 8), "alpha": round(u(0.15, 0.35), 6)}
    if lemma == "exponential":
        return {"alpha_list": [round(u(0.8, 1.2), 6)]}
    if lemma == "sector":
        return {"r": round(u(0.03, 0.08), 6), "d": round(u(5e-6, 2e-5), 10)}
    # one exponent, low enough to pass with either kernel, so every seed
    # tries the same number of exponents
    return {"rho": round(u(0.04, 0.06), 6), "alpha_list": [round(u(0.04, 0.08), 6)]}


def _verify_2d(rng, size, work):
    ops = []
    for op in _EVAL_ARGS:
        for _ in range(size["evals_per_op"]):
            r, t = 0.3 * math.sqrt(rng.random()), 2 * math.pi * rng.random()
            x = [round(r * math.cos(t), 6), round(r * math.sin(t), 6)]
            ops.append(cli_eval(op, x, round(rng.uniform(0.3, 0.45), 6)))
    for lemma in size["lemmas"]:
        for kname in size["kernels"] if lemma != "sector" else (None,):
            doc = dict(_verify_doc(rng, lemma), N=2)
            if kname:
                doc["kernel"] = kname
            ops.append(cli_verify(work, lemma, doc))
    return Workload(ops, warmup=0)


def _xdep_2d(rng, size, work):
    amplitude, phase = round(rng.uniform(0.2, 0.4), 6), round(rng.uniform(0, 2 * math.pi), 6)
    h = size["ball_h"]
    ball = _domain(_shifted(rng, _ball(0.25), h))
    ops = []
    for tag, domain, h in (("ball", ball, h),
                           ("interval", Domain.interval(-0.5, 0.5), size["interval_h"])):
        rhs = _rhs_field(_rhs_doc(rng, "gaussian"))

        def make_problem(domain=domain, rhs=rhs):
            # the kernel is built per call through the module attribute, so a
            # traced run sees its evaluations
            return solver.ProblemSpec(operator="generic", domain=domain, rhs=rhs,
                                      kernel=wobble_kernel(amplitude, phase))

        ops.append(api_solve(f"wobble-{tag}", make_problem, build_grid(domain, h),
                             _check_points(rng)))
    return Workload(ops, warmup=1)


_WORKLOADS = {"solve-2d": _solve_2d, "dense-1d": _dense_1d, "verify-2d": _verify_2d,
            "xdep-2d": _xdep_2d}


def build(workload, seed, size, work):
    rng = random.Random(f"{workload}:{seed}")
    return _WORKLOADS[workload](rng, SIZES[workload][size], work)
