import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from logop import barriers, nonlocal_eval, solver
from logop.cli import main
from logop.geometry import Domain, build_grid
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


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def test_solve_writes_solution_and_report(capsys, tmp_path):
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


def test_solve_near_singular_exits_nonzero(capsys, tmp_path):
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
    # the CSV now holds a unit-norm approximate null vector
    rows = out_csv.read_text().strip().splitlines()[1:]
    v = np.array([float(r.split(",")[1]) for r in rows])
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-8)


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


@pytest.mark.skipif(
    not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task"
)
def test_logop_threads_caps_blas_pool():
    env = {
        k: v
        for k, v in os.environ.items()
        if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    }
    env["LOGOP_THREADS"] = "1"
    # the child imports the logop these tests import, installed or not
    src = os.path.dirname(os.path.dirname(barriers.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    script = (
        "import os, logop, numpy as np\n"
        "a = np.ones((400, 400)); a @ a\n"
        "print(len(os.listdir('/proc/self/task')))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) == 1


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
