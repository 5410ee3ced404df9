import importlib
import json
import math
import os
import pkgutil
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import logop
from logop import _toeplitz, barriers, cli, nonlocal_eval, solver
from logop.cli import main
from logop.geometry import Domain, GridFunction, build_grid
from logop.kernels import unit_kernel
from logop.nonlocal_eval import QuadratureConfig, const_field, gaussian_field
from logop.solver import ProblemSpec, assemble

CONFIGS = Path(__file__).parent / "configs"


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# constants / eval
# ---------------------------------------------------------------------------


def test_constants_1d(capsys):
    code, out, _ = _run(capsys, "constants", "--N", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc == {"c_N": 1.0, "rho_N": -1.1544313}


def test_constants_2d(capsys):
    code, out, _ = _run(capsys, "constants", "--N", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["c_N"] == 0.3183099
    assert doc["rho_N"] == 0.2318630 or doc["rho_N"] == 0.231863


def test_constants_bad_dimension(capsys):
    code, _, err = _run(capsys, "constants", "--N", "0")
    assert code == 2
    assert "config error" in err


def test_eval_quadratic(capsys, tmp_path):
    out_file = tmp_path / "val.json"
    code, out, _ = _run(
        capsys, "eval", "--op", "LK", "--field", "quadratic", "--x", "0",
        "--out", str(out_file),
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == pytest.approx(-1.0, abs=1e-8)
    assert doc["err_est"] >= 0
    assert json.loads(out_file.read_text()) == doc


def test_eval_far_field(capsys):
    code, out, _ = _run(capsys, "eval", "--op", "J", "--field", "box(2,3)")
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(math.log(1.5), abs=1e-10)


def test_eval_sector(capsys):
    code, out, _ = _run(
        capsys, "eval", "--op", "sector", "--r", "0.1", "--d", "0.005"
    )
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(math.log(41.0), rel=1e-12)


def test_eval_sector_needs_geometry_flags(capsys):
    code, _, err = _run(capsys, "eval", "--op", "sector")
    assert code == 2
    assert "--r" in err


def test_eval_point_dimension_mismatch(capsys):
    code, _, err = _run(capsys, "eval", "--op", "LK", "--x", "0,0", "--N", "1")
    assert code == 2
    assert "config error" in err


def test_eval_bad_quadrature_flags(capsys):
    code, _, err = _run(capsys, "eval", "--op", "LK", "--n-radial", "4")
    assert code == 2
    assert "n_radial" in err


@pytest.mark.parametrize(
    "flags, cfg",
    [
        ([], QuadratureConfig()),
        (["--n-radial", "64", "--mode", "oracle"],
         QuadratureConfig(n_radial=64, mode="oracle")),
        (["--n-angular", "8", "--r-min", "1e-9"],
         QuadratureConfig(n_angular=8, r_min=1e-9)),
    ],
    ids=["defaults", "radial-oracle", "angular-rmin"],
)
def test_eval_flags_left_out_keep_the_config_defaults(capsys, flags, cfg):
    code, out, _ = _run(capsys, "eval", "--op", "LK", "--field", "gaussian(0.4)",
                        "--x", "0.1,0.2", "--N", "2", *flags)
    assert code == 0
    x = np.array([0.1, 0.2])
    value, err = nonlocal_eval.eval_LK(unit_kernel(), gaussian_field(0.4), x, cfg,
                                       return_estimate=True)
    assert json.loads(out) == {"value": value, "err_est": err}


@pytest.mark.parametrize("x", ["0.13", "-0.7"])
def test_loglap_paths_print_the_same_estimate(capsys, x):
    # both paths estimate the whole sum; adding the estimates of its parts
    # printed 2.2e-8 against 2.2e-16 at 0.13
    docs = []
    for path in ("decomposition", "direct"):
        code, out, _ = _run(capsys, "eval", "--op", "loglap", "--field", "gaussian(0.4)",
                            f"--x={x}", "--N", "1", "--path", path)
        assert code == 0
        docs.append(json.loads(out))
    assert docs[0] == docs[1]
    assert docs[0]["err_est"] < 1e-12


def test_eval_domain_error_is_numerical_failure(capsys):
    code, _, err = _run(
        capsys, "eval", "--op", "sector", "--r", "1.5", "--d", "0.1"
    )
    assert code == 1
    assert "error" in err


_BAD_SOLVE_CONFIGS = {
    "kernel": {"operator": {"name": "generic", "kernel": "nope"}},
    "h": {"h": "abc"},
    "radius": {"domain": {"type": "ball", "center": [0.0, 0.0], "radius": -1}},
    **{f"{key}-null": {"quadrature": {key: None}}
       for key in ("n_radial", "n_angular", "r_min", "mode")},
    # a null object is not an absent one
    "quadrature-null": {"quadrature": None},
    "perturbation-null": {"perturbation": None},
}


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--op", "LK", "--field", "nope"],
        ["eval", "--op", "LK", "--kernel", "nope"],
        ["eval", "--op", "LK", "--kernel", "table:missing.csv"],
        ["eval", "--op", "LK", "--x", "abc"],
        ["eval", "--op", "LK", "--field", "gaussian(x)"],
        *(["solve", bad] for bad in _BAD_SOLVE_CONFIGS),
    ],
    ids=" ".join,
)
def test_bad_flag_or_config_value_is_usage_error(capsys, tmp_path, argv):
    if argv[0] == "solve":
        config = json.loads((CONFIGS / "solve_interval.json").read_text())
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(config | _BAD_SOLVE_CONFIGS[argv[1]]))
        argv = ["solve", "--config", str(cfg_path), "--out", str(tmp_path / "u.csv"),
                "--report", str(tmp_path / "r.json")]
    code, _, err = _run(capsys, *argv)
    assert code == 2
    assert "config error" in err


def test_one_parser_serves_every_call(capsys):
    # main builds its parser once per process; no call may see an earlier one
    runs = [
        ["eval", "--op", "LK", "--bogus"],
        ["eval", "--op", "LK", "--field", "gaussian(0.5)", "--x", "0.1"],
        ["verify", "--lemma", "sector", "--config", str(CONFIGS / "verify_sector.json")],
        ["constants", "--N", "2"],
    ]

    def run(argv):
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
        return code, capsys.readouterr().out

    first = []
    for argv in runs:
        cli._build_parser.cache_clear()
        first.append(run(argv))
    assert [code for code, _ in first] == [2, 0, 0, 0]
    assert [run(argv) for argv in runs] == first


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def test_solve_writes_solution_and_report(capsys, tmp_path, toeplitz_at_any_n):
    out_csv = tmp_path / "u.csv"
    report_json = tmp_path / "report.json"
    code, _, _ = _run(
        capsys, "solve", "--config", str(CONFIGS / "solve_interval.json"),
        "--out", str(out_csv), "--report", str(report_json),
    )
    assert code == 0
    lines = out_csv.read_text().strip().splitlines()
    assert lines[0] == "x1,u"
    assert len(lines) == 1 + 19  # interval (-0.5, 0.5) at h = 0.05
    values = np.array([[float(t) for t in ln.split(",")] for ln in lines[1:]])
    assert np.all(values[:, 1] > 0)
    report = json.loads(report_json.read_text())
    assert report["alternative"] == "unique_solution"
    assert report["mp_audit"]["pass"] is True
    assert report["h"] == 0.05
    assert report["residual_inf"] < 1e-9
    assert report["factorization"] == "toeplitz"
    assert 0 < report["iterations"] <= _toeplitz.MAX_ITERATIONS
    # a Z-matrix with positive row sums: sigma_min and the condition number
    # come from the M-matrix certificate, which also certifies the audit
    assert report["sigma_path"] == "m_matrix"
    assert report["mp_audit"]["certified"] is True
    timings = report["timings"]
    assert timings["n"] == 19
    assert all(
        timings[k] >= 0 for k in ("assemble_s", "factor_s", "sigma_s", "solve_s", "audit_s")
    )


def test_solve_deterministic_output(capsys, tmp_path):
    files = []
    for tag in ("a", "b"):
        out_csv = tmp_path / f"u_{tag}.csv"
        report_json = tmp_path / f"r_{tag}.json"
        code, _, _ = _run(
            capsys, "solve", "--config", str(CONFIGS / "solve_interval.json"),
            "--out", str(out_csv), "--report", str(report_json),
        )
        assert code == 0
        report = json.loads(report_json.read_text())
        # wall-clock phase timings are the one part that may differ
        timings = report.pop("timings")
        assert set(timings) == {
            "assemble_s", "factor_s", "sigma_s", "solve_s", "audit_s", "n"
        }
        files.append((out_csv.read_bytes(), report))
    assert files[0] == files[1]


def test_solve_near_singular_exits_nonzero(capsys, tmp_path, toeplitz_at_any_n):
    # find the bottom eigenvalue first, then shift the identity onto it
    domain = Domain.interval(-0.25, 0.25)
    problem = ProblemSpec(
        operator="generic", domain=domain, rhs=const_field(1.0), kernel=unit_kernel()
    )
    grid = build_grid(domain, 0.025)
    A = assemble(problem, grid, QuadratureConfig()).matrix
    lam1 = float(np.min(np.linalg.eigvals(A).real))
    config = {
        "domain": {"type": "interval", "a": -0.25, "b": 0.25},
        "operator": {"name": "generic", "kernel": "unit"},
        "perturbation": {"name": "identity", "c": -lam1},
        "rhs": {"name": "const", "value": 1.0},
        "h": 0.025,
    }
    cfg_path = tmp_path / "singular.json"
    cfg_path.write_text(json.dumps(config))
    out_csv = tmp_path / "null.csv"
    report_json = tmp_path / "report.json"
    code, _, err = _run(
        capsys, "solve", "--config", str(cfg_path),
        "--out", str(out_csv), "--report", str(report_json),
    )
    assert code == 1
    assert "near-singular" in err
    report = json.loads(report_json.read_text())
    assert report["alternative"] == "near_singular"
    # sigma_min is near the singular threshold, so LU refactored the matrix
    assert (report["factorization"], report["iterations"]) == ("lu", 0)
    assert report["sigma_path"] == "iteration"
    # the CSV now holds a unit-norm approximate null vector
    rows = out_csv.read_text().strip().splitlines()[1:]
    v = np.array([float(r.split(",")[1]) for r in rows])
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize(
    "matrix",
    [np.ones((5, 5)), np.zeros((5, 5)), 5.0 * np.eye(5) - np.ones((5, 5))],
    ids=["ones", "zeros", "zero-row-sums"],
)
def test_solve_singular_matrix_exits_nonzero(capsys, tmp_path, monkeypatch, matrix):
    # an exactly singular LU factor gives the near-singular verdict with the
    # SVD's null vector, not a crash on the inverse iteration's inf iterate
    config = {
        "domain": {"type": "interval", "a": -0.1, "b": 0.1},
        "operator": {"name": "generic", "kernel": "unit"},
        "rhs": {"name": "const", "value": 1.0},
        "h": 0.04,
    }
    cfg_path = tmp_path / "singular.json"
    cfg_path.write_text(json.dumps(config))
    monkeypatch.setattr(
        solver, "assemble", lambda problem, grid, cfg: solver.StiffnessMatrix(matrix, grid)
    )
    out_csv, report_json = tmp_path / "null.csv", tmp_path / "report.json"
    code, _, err = _run(
        capsys, "solve", "--config", str(cfg_path),
        "--out", str(out_csv), "--report", str(report_json),
    )
    assert code == 1
    assert "near-singular" in err
    report = json.loads(report_json.read_text())
    assert report["alternative"] == "near_singular"
    assert report["factorization"] == "lu"
    assert report["sigma_min"] == 0.0
    assert report["sigma_path"] == "svd"
    v = np.loadtxt(out_csv, delimiter=",", skiprows=1)[:, 1]
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(matrix @ v)) <= 1e-12 * np.max(np.abs(matrix))


def test_solve_with_overflowing_solves_exits_nonzero(capsys, tmp_path, monkeypatch):
    # a pivot of 1e-310 is not zero, but every solve with it overflows: the
    # SVD gives sigma_min and the null vector, and the condition is infinite
    matrix = np.diag([1.0, 1.0, 1.0, 1.0, 1e-310])
    config = {
        "domain": {"type": "interval", "a": -0.1, "b": 0.1},
        "operator": {"name": "generic", "kernel": "unit"},
        "rhs": {"name": "const", "value": 1.0},
        "h": 0.04,
    }
    cfg_path = tmp_path / "tiny_pivot.json"
    cfg_path.write_text(json.dumps(config))
    monkeypatch.setattr(
        solver, "assemble", lambda problem, grid, cfg: solver.StiffnessMatrix(matrix, grid)
    )
    out_csv, report_json = tmp_path / "null.csv", tmp_path / "report.json"
    code, _, err = _run(
        capsys, "solve", "--config", str(cfg_path),
        "--out", str(out_csv), "--report", str(report_json),
    )
    assert code == 1
    assert "near-singular" in err
    report = json.loads(report_json.read_text())
    assert report["alternative"] == "near_singular"
    assert report["condition_estimate"] == math.inf
    assert report["sigma_path"] == "svd"
    v = np.loadtxt(out_csv, delimiter=",", skiprows=1)[:, 1]
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(matrix @ v)) <= 1e-12 * np.max(np.abs(matrix))


def test_solution_csv_is_the_g17_text():
    # one %-format of the whole table gives the text of _g17 on every value
    specials = [-0.0, math.inf, -math.inf, 5e-324, -2.5e-310, 1e-20, -1e20, 0.1, 1 / 3]
    for domain, h in [(Domain.interval(-0.5, 0.5), 0.0005), (Domain.ball([0.0, 0.0], 0.25), 0.03)]:
        grid = build_grid(domain, h)
        rng = np.random.default_rng(3)
        values = rng.standard_normal(grid.n) * 10.0 ** rng.integers(-20, 21, grid.n)
        values[: len(specials)] = specials
        u = GridFunction(grid, values)
        cols = [f"x{i + 1}" for i in range(domain.N)] + ["u"]
        lines = [",".join(cols)] + [
            ",".join([cli._g17(c) for c in node] + [cli._g17(val)])
            for node, val in zip(grid.nodes, values)
        ]
        assert cli._solution_csv(u) == "\n".join(lines) + "\n"


def test_solve_rejects_unknown_config_keys(capsys, tmp_path):
    code, _, err = _run(
        capsys, "solve", "--config", str(CONFIGS / "bad_unknown_key.json"),
        "--out", str(tmp_path / "u.csv"), "--report", str(tmp_path / "r.json"),
    )
    assert code == 2
    assert "solver_backend" in err


def _solve(capsys, tmp_path, config):
    cfg_path = tmp_path / "solve.json"
    cfg_path.write_text(json.dumps(config))
    out_csv = tmp_path / "u.csv"
    code, _, err = _run(capsys, "solve", "--config", str(cfg_path),
                        "--out", str(out_csv), "--report", str(tmp_path / "r.json"))
    return code, err, out_csv.read_bytes() if code == 0 else None


def test_solve_box_rhs(capsys, tmp_path):
    # a box covering the interval is 1 at every node, like const(1)
    config = json.loads((CONFIGS / "solve_interval.json").read_text())
    _, _, const_csv = _solve(capsys, tmp_path, config)
    code, _, box_csv = _solve(capsys, tmp_path,
                              config | {"rhs": {"name": "box", "lo": [-1.0], "hi": [1.0]}})
    assert code == 0
    assert box_csv == const_csv
    code, err, _ = _solve(capsys, tmp_path, config | {"rhs": {"name": "box", "lo": [-1.0]}})
    assert code == 2
    assert "missing keys ['hi'] in rhs (box)" in err


def test_solve_requires_h(capsys, tmp_path):
    config = {
        "domain": {"type": "interval", "a": -0.5, "b": 0.5},
        "operator": {"name": "generic", "kernel": "unit"},
        "rhs": {"name": "const"},
    }
    cfg_path = tmp_path / "no_h.json"
    cfg_path.write_text(json.dumps(config))
    code, _, err = _run(
        capsys, "solve", "--config", str(cfg_path),
        "--out", str(tmp_path / "u.csv"), "--report", str(tmp_path / "r.json"),
    )
    assert code == 2
    assert "'h'" in err


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_sector_pass(capsys, tmp_path):
    out = tmp_path / "verdict.json"
    code, text, _ = _run(
        capsys, "verify", "--lemma", "sector",
        "--config", str(CONFIGS / "verify_sector.json"), "--out", str(out),
    )
    assert code == 0
    doc = json.loads(text)
    assert doc["lemma"] == "sector"
    assert doc["pass"] is True
    assert doc["samples"] == 32
    assert doc["constants"]["value"] >= doc["constants"]["lower_bound"]
    assert json.loads(out.read_text()) == doc


def test_verify_sector_fail_exit_code(capsys):
    code, text, _ = _run(
        capsys, "verify", "--lemma", "sector",
        "--config", str(CONFIGS / "verify_sector_fail.json"),
    )
    assert code == 1
    assert json.loads(text)["pass"] is False


def test_verify_bump_pass(capsys):
    code, text, _ = _run(
        capsys, "verify", "--lemma", "bump",
        "--config", str(CONFIGS / "verify_bump.json"),
    )
    assert code == 0
    doc = json.loads(text)
    assert doc["pass"] is True
    assert doc["constants"]["stable"] is True


def test_verify_composite_runtime_failure_is_reported(capsys):
    code, text, _ = _run(
        capsys, "verify", "--lemma", "composite",
        "--config", str(CONFIGS / "verify_composite_hard.json"),
    )
    assert code == 1
    doc = json.loads(text)
    assert doc["pass"] is False
    assert "detail" in doc


def test_verify_malformed_config(capsys):
    code, _, err = _run(
        capsys, "verify", "--lemma", "sector",
        "--config", str(CONFIGS / "bad_malformed.json"),
    )
    assert code == 2
    assert "malformed JSON" in err
    assert "line 4" in err and "column" in err


@pytest.mark.parametrize(
    "lemma, config",
    [
        ("boundary", {"r": "abc", "alpha_list": [0.5]}),
        ("boundary", {"r": 0.05, "alpha_list": 0.5}),
        ("bump", {"r_list": [0.05, None]}),
        ("gain", {"rho": 0.05, "A_fraction": "half"}),
        ("exponential", {"alpha_list": [1.0], "half_width": [1.0]}),
        ("sector", {"r": 0.05, "d": "1e-5x"}),
        ("composite", {"rho": 0.05, "alpha_list": [0.1], "N": "two"}),
    ],
    ids=lambda v: v if isinstance(v, str) else "-".join(map(str, v.values())),
)
def test_verify_bad_parameter_is_config_error(capsys, tmp_path, lemma, config):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(config))
    code, text, err = _run(capsys, "verify", "--lemma", lemma, "--config", str(cfg_path))
    assert code == 2
    assert text == ""
    assert err.startswith(f"config error: {lemma} config: ")


_REQUIRED_ONLY = {
    "boundary": {"r": 0.05, "alpha_list": [0.25]},
    "bump": {"r_list": [0.05, 0.005]},
    "gain": {"rho": 0.05},
    "tail": {"rho": 1e-3, "alpha": 0.25},
    "exponential": {"alpha_list": [1.0]},
    "sector": {"r": 0.05, "d": 1e-5},
    "composite": {"rho": 0.05, "alpha_list": [0.05]},
}


@pytest.mark.parametrize("lemma", list(_REQUIRED_ONLY))
def test_verify_each_lemma_with_only_its_required_keys(capsys, tmp_path, lemma):
    cfg_path = tmp_path / "required.json"
    cfg_path.write_text(json.dumps(_REQUIRED_ONLY[lemma]))
    code, text, _ = _run(capsys, "verify", "--lemma", lemma, "--config", str(cfg_path))
    assert code == 0
    assert json.loads(text)["pass"] is True
    # any one required key left out is a config error
    for key in _REQUIRED_ONLY[lemma]:
        cfg_path.write_text(json.dumps({k: v for k, v in _REQUIRED_ONLY[lemma].items()
                                        if k != key}))
        code, _, err = _run(capsys, "verify", "--lemma", lemma, "--config", str(cfg_path))
        assert code == 2
        assert f"missing keys ['{key}']" in err


def test_verify_calls_the_verifier_it_finds_at_call_time(capsys, tmp_path, monkeypatch):
    # a wrapper without a signature, as a tracer installs
    original, calls = barriers.verify_gain, []

    def wrapper(*args, **kwargs):
        calls.append(kwargs)
        return original(*args, **kwargs)

    monkeypatch.setattr(barriers, "verify_gain", wrapper)
    cfg_path = tmp_path / "gain.json"
    cfg_path.write_text(json.dumps({"rho": 0.05, "A_fraction": 0.5}))
    code, text, _ = _run(capsys, "verify", "--lemma", "gain", "--config", str(cfg_path))
    assert code == 0
    assert [sorted(kw) for kw in calls] == [["A_fraction", "K", "N", "cfg", "rho"]]
    assert json.loads(text)["constants"] == json.loads(json.dumps(
        original(unit_kernel(), 0.05, QuadratureConfig(), A_fraction=0.5)))


def test_verify_numerical_failure_still_exits_one(capsys, tmp_path):
    # the parameters parse, but no barrier margin exists this close to exponent one
    cfg_path = tmp_path / "boundary.json"
    cfg_path.write_text(json.dumps({"r": 0.01, "alpha_list": [0.999]}))
    code, text, _ = _run(capsys, "verify", "--lemma", "boundary", "--config", str(cfg_path))
    assert code == 1
    doc = json.loads(text)
    assert doc["pass"] is False
    assert "detail" in doc


def test_verify_unknown_config_key(capsys, tmp_path):
    cfg_path = tmp_path / "sector_extra.json"
    cfg_path.write_text('{"r": 0.05, "d": 1e-05, "verbose": true}')
    code, _, err = _run(
        capsys, "verify", "--lemma", "sector", "--config", str(cfg_path)
    )
    assert code == 2
    assert "verbose" in err


@pytest.mark.parametrize(
    "extra, message",
    [
        ({"seed": 3}, "unknown keys ['seed'] in config"),
        (
            {"operator": {"name": "loglap"}, "perturbation": {"name": "loglap_tail"}},
            "unknown perturbation 'loglap_tail'",
        ),
    ],
    ids=["seed", "loglap_tail"],
)
def test_solve_rejects_knobs_nothing_reads(capsys, tmp_path, extra, message):
    config = json.loads((CONFIGS / "solve_interval.json").read_text()) | extra
    cfg_path = tmp_path / "knob.json"
    cfg_path.write_text(json.dumps(config))
    code, _, err = _run(
        capsys, "solve", "--config", str(cfg_path),
        "--out", str(tmp_path / "u.csv"), "--report", str(tmp_path / "r.json"),
    )
    assert code == 2
    assert message in err


# ---------------------------------------------------------------------------
# torsion / fit / converge
# ---------------------------------------------------------------------------


def test_torsion_csv(capsys, tmp_path):
    out = tmp_path / "torsion.csv"
    code, _, _ = _run(
        capsys, "torsion", "--config", str(CONFIGS / "torsion_small.json"),
        "--out", str(out),
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "R,h,max_u,ell_R,ratio,residual_inf"
    assert len(lines) == 3
    rows = [dict(zip(lines[0].split(","), map(float, ln.split(",")))) for ln in lines[1:]]
    assert rows[0]["R"] == 0.05 and rows[1]["R"] == 0.025
    assert rows[1]["max_u"] < rows[0]["max_u"]
    assert all(r["ratio"] > 0 for r in rows)


@pytest.mark.parametrize("radii", [[0.5], [0.05, 0.5], [0.05, 0.0]], ids=str)
def test_torsion_radius_out_of_range_is_config_error(capsys, tmp_path, monkeypatch, radii):
    solves = []
    monkeypatch.setattr(solver, "solve_dirichlet", lambda *a, **k: solves.append(a))
    cfg_path = tmp_path / "torsion.json"
    cfg_path.write_text(json.dumps({"R_list": radii}))
    code, _, err = _run(capsys, "torsion", "--config", str(cfg_path),
                        "--out", str(tmp_path / "t.csv"))
    assert code == 2
    assert "torsion radii must lie in (0, 0.1]" in err
    assert solves == []


def test_fit_synthetic_recovers_exponent(capsys, tmp_path):
    out = tmp_path / "fit.json"
    code, text, _ = _run(
        capsys, "fit", "--config", str(CONFIGS / "fit_synthetic.json"),
        "--out", str(out),
    )
    assert code == 0
    doc = json.loads(text)
    assert doc["alpha_boundary"] == pytest.approx(0.5, abs=0.02)
    assert 0.45 <= doc["alpha_global"] <= 0.65
    # flat second differences at the center are serialized as a string
    assert doc["alpha_interior"] == "inf"
    assert json.loads(out.read_text()) == doc


def test_fit_requires_exactly_one_source(capsys):
    code, _, err = _run(
        capsys, "fit", "--config", str(CONFIGS / "fit_ambiguous.json")
    )
    assert code == 2
    assert "exactly one" in err


def test_fit_error_names_the_rhs_with_its_parameters(capsys, tmp_path):
    # the solution of const(0) vanishes, so no oscillation scale survives
    # the global fit; the error tells that rhs from const(1)
    cfg_path = tmp_path / "fit.json"
    cfg_path.write_text(json.dumps({"solve": {
        "domain": {"type": "interval", "a": -0.5, "b": 0.5},
        "operator": {"name": "generic", "kernel": "unit"},
        "rhs": {"name": "const", "value": 0.0},
        "h": 0.002,
    }}))
    code, _, err = _run(capsys, "fit", "--config", str(cfg_path),
                        "--out", str(tmp_path / "fit_out.json"))
    assert code == 1
    assert "insufficient scales for the global oscillation fit (rhs 'const(value=0.0)')" in err


def test_converge_refinement_table(capsys, tmp_path):
    out = tmp_path / "converge.csv"
    code, _, _ = _run(
        capsys, "converge", "--config", str(CONFIGS / "converge_interval.json"),
        "--out", str(out),
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "h,sup_diff_to_next"
    assert len(lines) == 3
    diffs = [float(ln.split(",")[1]) for ln in lines[1:]]
    assert diffs[1] < diffs[0]  # Cauchy refinement contracts


def test_converge_zero_rhs(capsys, tmp_path):
    out = tmp_path / "converge0.csv"
    code, _, _ = _run(
        capsys, "converge", "--config", str(CONFIGS / "converge_zero_rhs.json"),
        "--out", str(out),
    )
    assert code == 0
    diffs = [
        float(ln.split(",")[1])
        for ln in out.read_text().strip().splitlines()[1:]
    ]
    assert all(d < 1e-13 for d in diffs)


def test_converge_needs_three_levels(capsys, tmp_path):
    config = {
        "domain": {"type": "interval", "a": -0.5, "b": 0.5},
        "operator": {"name": "generic", "kernel": "unit"},
        "rhs": {"name": "const", "value": 1.0},
        "h_list": [0.1, 0.05],
    }
    cfg_path = tmp_path / "short.json"
    cfg_path.write_text(json.dumps(config))
    code, _, err = _run(
        capsys, "converge", "--config", str(cfg_path), "--out", str(tmp_path / "c.csv")
    )
    assert code == 2
    assert "3 levels" in err


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------


def _python(script, **env_vars):
    """Run `script` in a fresh interpreter that imports the logop these tests
    import, installed or not; returns the finished process."""
    env = {
        k: v
        for k, v in os.environ.items()
        if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    }
    env.update(env_vars)
    src = os.path.dirname(os.path.dirname(barriers.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.mark.skipif(
    not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task"
)
def test_logop_threads_caps_blas_pool():
    # scipy's bundled OpenBLAS starts its pool at the first factorization
    script = (
        "import os, logop, numpy as np\n"
        "a = np.ones((400, 400)); a @ a\n"
        "logop.solver.sla.lu_factor(a + 400 * np.eye(400))\n"
        "print(len(os.listdir('/proc/self/task')))\n"
    )
    proc = _python(script, LOGOP_THREADS="1")
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) == 1


def _shifted_interval_config(tmp_path):
    """solve_interval.json shifted past lambda_1 (~1.85): its row sums are
    negative, so the matrix is not certified and LU factors it."""
    config = json.loads((CONFIGS / "solve_interval.json").read_text())
    config["perturbation"] = {"name": "identity", "c": -2.5}
    path = tmp_path / "shifted.json"
    path.write_text(json.dumps(config))
    return path


def test_eval_and_verify_never_load_lapack(tmp_path):
    script = f"""
import json, sys
from logop import cli, solver
argv = [["eval", "--op", "LK", "--field", "gaussian(0.5)", "--x", "0.1"],
        ["verify", "--lemma", "sector", "--config", {str(CONFIGS / "verify_sector.json")!r}]]
codes = [cli.main(a) for a in argv]
before = "scipy.linalg._flapack" in sys.modules
codes.append(cli.main(["solve", "--config", {str(_shifted_interval_config(tmp_path))!r},
                       "--out", {str(tmp_path / "u.csv")!r},
                       "--report", {str(tmp_path / "r.json")!r}]))
print(json.dumps([codes, before, "scipy.linalg._flapack" in sys.modules,
                  solver.sla is sys.modules["scipy.linalg"]]))
"""
    proc = _python(script)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [[0, 0, 0], False, True, True]


def test_single_use_symmetric_solves_never_load_lapack(tmp_path):
    # an assembled symmetric matrix certified as an M-matrix is solved once
    # by numpy.linalg.solve (numpy's own LAPACK): a 2-D solve, torsion, a
    # 2-D converge and the small interval solve leave scipy.linalg's LAPACK
    # wrappers unloaded, and report the certified LU path.  Reading the
    # dense matrix of a Toeplitz stiffness loads none either.
    ball = tmp_path / "ball.json"
    ball.write_text(json.dumps({
        "domain": {"type": "ball", "center": [0.0, 0.0], "radius": 0.25},
        "operator": {"name": "generic", "kernel": "sinlog"},
        "rhs": {"name": "const", "value": 1.0},
        "h": 0.05,
    }))
    converge = tmp_path / "converge.json"
    converge.write_text(json.dumps({
        "domain": {"type": "ball", "center": [0.0, 0.0], "radius": 0.25},
        "operator": {"name": "generic", "kernel": "unit"},
        "rhs": {"name": "const", "value": 1.0},
        "h_list": [0.1, 0.07, 0.05],
    }))
    torsion = tmp_path / "torsion.json"
    torsion.write_text(json.dumps({"R_list": [0.05], "N": 2, "kernel": "sinlog",
                                   "nodes_across": 10}))
    out, report = str(tmp_path / "u.csv"), str(tmp_path / "r.json")
    script = f"""
import json, sys
from logop import cli, solver
from logop.geometry import Domain, build_grid
from logop.kernels import unit_kernel
from logop.nonlocal_eval import QuadratureConfig, const_field
domain = Domain.interval(-0.5, 0.5)
problem = solver.ProblemSpec("generic", domain, const_field(1.0), kernel=unit_kernel())
dense = solver.assemble(problem, build_grid(domain, 0.002), QuadratureConfig()).matrix
reports = []
for config in ({str(ball)!r}, {str(CONFIGS / "solve_interval.json")!r}):
    code = cli.main(["solve", "--config", config, "--out", {out!r}, "--report", {report!r}])
    with open({report!r}) as f:
        r = json.load(f)
    reports.append([code, r["factorization"], r["sigma_path"], r["timings"]["sigma_s"]])
codes = [cli.main(["torsion", "--config", {str(torsion)!r}, "--out", {out!r}]),
         cli.main(["converge", "--config", {str(converge)!r}, "--out", {out!r}])]
print(json.dumps([dense.shape, reports, codes, "scipy.linalg._flapack" in sys.modules]))
"""
    proc = _python(script)
    assert proc.returncode == 0, proc.stderr
    single_use = [0, "lu", "m_matrix", 0.0]
    assert json.loads(proc.stdout.splitlines()[-1]) == [
        [499, 499], [single_use] * 2, [0, 0], False]


# each solve with the sigma_path it reports
_KEPT_FACTOR_SOLVES = {
    # a prebuilt matrix may be solved again: its LU factor is kept
    "reused": ("solver.solve_dirichlet(problem, grid, cfg, stiffness=solver.assemble("
               "problem, grid, cfg))", "m_matrix"),
    # K(z) != K(-z): not symmetric, so its certificate needs A^-T 1 too
    "nonsymmetric": ("solver.solve_dirichlet(replace(problem, kernel=KernelSpec("
                     "evaluate=lambda x, Y: 1.0 + 0.4 * np.tanh(5.0 * Y[:, 0]), lam=0.6, "
                     "Lam=1.4, name='skew')), grid, cfg)", "m_matrix"),
    # shifted past lambda_1: negative row sums, not certified
    "uncertified": ("solver.solve_dirichlet(replace(problem, shift=-100.0), grid, cfg)",
                    "iteration"),
}


@pytest.mark.parametrize("case", list(_KEPT_FACTOR_SOLVES))
def test_solves_that_keep_a_factor_load_lapack(case):
    script = f"""
import json, sys
from dataclasses import replace
import numpy as np
from logop import solver
from logop.geometry import Domain, build_grid
from logop.kernels import KernelSpec, unit_kernel
from logop.nonlocal_eval import QuadratureConfig, const_field
domain = Domain.ball([0.0, 0.0], 0.25)
problem = solver.ProblemSpec("generic", domain, const_field(1.0), kernel=unit_kernel())
grid, cfg = build_grid(domain, 0.05), QuadratureConfig()
_, report = {_KEPT_FACTOR_SOLVES[case][0]}
print(json.dumps([report.factorization, report.alternative, report.sigma_path,
                  "scipy.linalg._flapack" in sys.modules]))
"""
    proc = _python(script)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [
        "lu", "unique_solution", _KEPT_FACTOR_SOLVES[case][1], True]


def test_interval_solve_never_loads_scipy_fft(tmp_path):
    # the Toeplitz solves use numpy.fft; importing scipy.fft would add ~0.1 s
    # to the first solve in a process
    report = tmp_path / "r.json"
    script = f"""
import json, sys
from logop import cli, solver
solver.TOEPLITZ_MIN_N = 0  # n = 19: the Toeplitz factor only when asked for
code = cli.main(["solve", "--config", {str(CONFIGS / "solve_interval.json")!r},
                 "--out", {str(tmp_path / "u.csv")!r}, "--report", {str(report)!r}])
with open({str(report)!r}) as f:
    factorization = json.load(f)["factorization"]
print(json.dumps([code, factorization, "scipy.fft" in sys.modules]))
"""
    proc = _python(script)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [0, "toeplitz", False]


def test_interval_solve_and_sweep_never_load_lapack(tmp_path):
    # a 1-D Toeplitz matrix of TOEPLITZ_MIN_N rows or more is factored,
    # certified and swept with numpy.fft alone: scipy.linalg's solvers
    # (LAPACK, ~8 MB resident) are never imported
    config, report = tmp_path / "solve.json", tmp_path / "r.json"
    config.write_text(json.dumps({
        "domain": {"type": "interval", "a": -0.5, "b": 0.5},
        "operator": {"name": "loglap"},
        "rhs": {"name": "const", "value": 1.0},
        "h": 0.002,
    }))
    script = f"""
import json, sys
from logop import cli, solver
from logop.geometry import Domain, build_grid
from logop.kernels import unit_kernel
from logop.nonlocal_eval import QuadratureConfig, const_field
code = cli.main(["solve", "--config", {str(config)!r},
                 "--out", {str(tmp_path / "u.csv")!r}, "--report", {str(report)!r}])
with open({str(report)!r}) as f:
    r = json.load(f)
domain = Domain.interval(-0.5, 0.5)
problem = solver.ProblemSpec("generic", domain, const_field(1.0), kernel=unit_kernel())
solver.fredholm_sweep(problem, build_grid(domain, 0.002), QuadratureConfig(), 1.0, 2.5)
print(json.dumps([code, r["factorization"], r["timings"]["n"] >= solver.TOEPLITZ_MIN_N,
                  r["iterations"] > 0, "scipy.linalg._basic" in sys.modules]))
"""
    proc = _python(script)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [0, "toeplitz", True, True, False]


def test_only_x_dependent_assembly_loads_scipy_sparse(tmp_path):
    # a stencil's table is np.bincount of the projection; only the per-node
    # products of an x-dependent kernel use scipy.sparse (~13 MB resident)
    ball = tmp_path / "ball.json"
    ball.write_text(json.dumps({
        "domain": {"type": "ball", "center": [0.0, 0.0], "radius": 0.25},
        "operator": {"name": "generic", "kernel": "sinlog"},
        "rhs": {"name": "const", "value": 1.0},
        "h": 0.05,
    }))
    out, report = str(tmp_path / "u.csv"), str(tmp_path / "r.json")
    script = f"""
import json, sys
import numpy as np
from logop import cli, solver
from logop.geometry import Domain, build_grid
from logop.kernels import KernelSpec, unit_kernel
from logop.nonlocal_eval import QuadratureConfig, const_field
argv = [["solve", "--config", {str(CONFIGS / "solve_interval.json")!r},
         "--out", {out!r}, "--report", {report!r}],
        ["converge", "--config", {str(CONFIGS / "converge_interval.json")!r}, "--out", {out!r}],
        ["solve", "--config", {str(ball)!r}, "--out", {out!r}, "--report", {report!r}],
        ["eval", "--op", "loglap", "--field", "gaussian(0.5)", "--x", "0.1"],
        ["verify", "--lemma", "bump", "--config", {str(CONFIGS / "verify_bump.json")!r}]]
codes = [cli.main(a) for a in argv]
domain = Domain.interval(-0.5, 0.5)
problem = solver.ProblemSpec("generic", domain, const_field(1.0), kernel=unit_kernel())
solver.fredholm_sweep(problem, build_grid(domain, 0.05), QuadratureConfig(), 1.0, 2.5)
before = "scipy.sparse" in sys.modules
flat = KernelSpec(evaluate=lambda x, Y: np.ones(len(Y)), lam=1.0, Lam=1.0,
                  translation_invariant=False, name="flat")
problem = solver.ProblemSpec("generic", domain, const_field(1.0), kernel=flat)
solver.assemble(problem, build_grid(domain, 0.05), QuadratureConfig())
print(json.dumps([codes, before, "scipy.sparse" in sys.modules]))
"""
    proc = _python(script)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [[0] * 5, False, True]


def test_import_without_scipy_fails_at_import():
    script = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "try:\n"
        "    import logop\n"
        "except ModuleNotFoundError as e:\n"
        "    print(e.name)\n"
    )
    proc = _python(script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split(".")[0].strip() == "scipy"


def test_every_exported_name_resolves():
    names = [f"logop.{m.name}" for m in pkgutil.iter_modules(logop.__path__)]
    modules = [logop] + [importlib.import_module(name) for name in names]
    missing = [
        f"{mod.__name__}.{name}"
        for mod in modules
        for name in getattr(mod, "__all__", ())
        if not hasattr(mod, name)
    ]
    assert missing == []


# ---------------------------------------------------------------------------
# installed entry point
# ---------------------------------------------------------------------------


def test_console_script_is_installed():
    exe = shutil.which("logop")
    assert exe is not None, "console script 'logop' not on PATH"
    proc = subprocess.run(
        [exe, "constants", "--N", "1"], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["c_N"] == 1.0
