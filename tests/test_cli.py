"""Command-line contracts: artifacts, exit codes, determinism, round-trips."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oracles
from lowmach.cli import main


BASE = {
    "geometry": {"kind": "sphere", "radius": 1.0, "r_far": 20.0,
                 "n_r": 16, "n_t": 16, "grading": 1.3,
                 "mode": "axisymmetric-3d"},
    "gas": {"gamma": 1.4, "q_inf": 1.0},
    "cutoff": {"theta": 0.65, "eps0": 0.45},
    "force": {"kind": "none"},
    "solver": {"tol": 1e-10},
    "sweep": {"eps": [0.4, 0.2, 0.1, 0.05]},
}


def _write_config(tmp_path, overrides=None, name="config.json"):
    cfg = json.loads(json.dumps(BASE))
    for section, vals in (overrides or {}).items():
        cfg.setdefault(section, {}).update(vals)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def _run_files(out_dir):
    runs = os.listdir(out_dir)
    assert len(runs) == 1
    run = os.path.join(out_dir, runs[0])
    return run, sorted(os.listdir(run))


def test_solve_incompressible_artifacts(tmp_path):
    cfg = _write_config(tmp_path)
    out = str(tmp_path / "out")
    assert main(["solve-incompressible", "--config", cfg, "--out", out]) == 0
    run, files = _run_files(out)
    assert files == ["psi.txt", "summary.json", "surface.csv"]
    summary = json.loads(open(os.path.join(run, "summary.json")).read())
    assert summary["residual"] < 1e-10
    meta, rows = oracles.read_field_dump(os.path.join(run, "psi.txt"))
    pts, vals = rows[:, :2], rows[:, 3]
    assert meta["kind"] == "incompressible_perturbation"
    assert pts.shape[0] == int(meta["n"]) == vals.size
    # the dump reloads to the in-memory solution exactly
    from lowmach import ObstacleShape, build_mesh, solve_incompressible

    mesh = build_mesh(ObstacleShape("sphere", 1.0), 20.0, 16, 16, grading=1.3)
    psi = solve_incompressible(mesh, 1.0)
    assert np.array_equal(vals, psi.values)
    assert np.array_equal(pts, mesh.nodes)


def test_solve_incompressible_deterministic(tmp_path):
    cfg = _write_config(tmp_path)
    outs = []
    for sub in ("a", "b"):
        out = str(tmp_path / sub)
        assert main(["solve-incompressible", "--config", cfg, "--out", out]) == 0
        run, files = _run_files(out)
        outs.append({f: open(os.path.join(run, f), "rb").read() for f in files})
    assert outs[0] == outs[1]


def _with(section, **vals):
    cfg = json.loads(json.dumps(BASE))
    cfg[section].update(vals)
    return cfg


def _ellipse(semi_axes):
    # an ellipse takes semi_axes in place of BASE's radius
    cfg = _with("geometry", kind="ellipse", semi_axes=semi_axes)
    del cfg["geometry"]["radius"]
    return cfg


# one rejected configuration per check: (raw config, what stderr names)
CONFIG_ERRORS = {
    "radius-negative": (_with("geometry", radius=-2.0), "geometry.radius"),
    "radius-overflow": (_with("geometry", radius=10**400), "geometry.radius"),
    "kind-unknown": (_with("geometry", kind="cube"), "geometry.kind"),
    "semi_axes-one": (_with("geometry", kind="ellipse", semi_axes=[1.0]),
                      "geometry.semi_axes"),
    "r_far-small": (_with("geometry", r_far=3), "geometry.r_far"),
    "n_r-small": (_with("geometry", n_r=3), "geometry.n_r"),
    "n_r-overflow": (_with("geometry", n_r=10**400), "geometry.n_r"),
    "n_t-large": (_with("geometry", n_t=1025), "geometry.n_t"),
    "grading-below-1": (_with("geometry", grading=0.9), "geometry.grading"),
    "grading-overflow": (_with("geometry", grading=1e300), "geometry.grading"),
    "r_far-overflow": (_with("geometry", r_far=1e300), "geometry.r_far"),
    "mode-unknown": (_with("geometry", kind="disk", mode="planar"),
                     "geometry.mode"),
    "ellipse-no-semi_axes": (_with("geometry", kind="ellipse"),
                             "geometry.semi_axes"),
    "sphere-semi_axes": (_with("geometry", semi_axes=[3.0, 1.0]), "geometry.semi_axes"),
    "gamma-below-1": (_with("gas", gamma=0.9), "gas.gamma"),
    "q_inf-zero": (_with("gas", q_inf=0), "gas.q_inf"),
    "theta-one": (_with("cutoff", theta=1), "cutoff.theta"),
    "eps0-zero": (_with("cutoff", eps0=0), "cutoff.eps0"),
    "far_field-unknown": (_with("solver", far_field="robin"), "solver.far_field"),
    "max_newton-zero": (_with("solver", max_newton=0), "solver.max_newton"),
    "max_backtracks-zero": (_with("solver", max_backtracks=0),
                            "solver.max_backtracks"),
    "quad_order-one": (_with("solver", quad_order=1), "solver.quad_order"),
    "quad_order-overflow": (_with("solver", quad_order=10**400), "solver.quad_order"),
    "eps-negative": (_with("sweep", eps=[0.2, -0.1]), "sweep.eps"),
    "eps-increasing": (_with("sweep", eps=[0.1, 0.2]), "sweep.eps"),
    "eps-three": (_with("sweep", eps=[0.4, 0.2, 0.1]), "sweep.eps"),
    "eps-overflow": (_with("sweep", eps=[1e200, 0.2, 0.1, 0.05]), "sweep.eps"),
    "force-unknown": (_with("force", kind="magnetic"), "force.kind"),
    # rules that join keys
    "sphere-planar": (_with("geometry", mode="planar-2d"), "geometry.mode"),
    "disk-axisymmetric": (_with("geometry", kind="disk"), "geometry.mode"),
    "force-planar": ({**_with("geometry", kind="disk", mode="planar-2d"),
                      "force": {"kind": "point_mass"}}, "force.kind"),
    "source-outside": (_with("force", kind="newtonian", source_radius=1.0),
                       "force.source_radius"),
    # the ball must fit the smaller semi-axis, whichever axis it lies along
    "source-outside-ellipse": ({**_ellipse([1.0, 2.0]),
                                "force": {"kind": "newtonian", "source_radius": 1.2}},
                               "force.source_radius"),
    "ellipse-radius": (_with("geometry", kind="ellipse", semi_axes=[1.5, 1.0]),
                       "geometry.radius"),
    "output-directory-int": ({**BASE, "output": {"directory": 3}},
                             "output.directory"),
    "top-level-list": ([BASE], "configuration"),
    "section-not-object": ({**BASE, "gas": 1.4}, "'gas'"),
    "section-unknown": ({**BASE, "wibble": {}}, "'wibble'"),
}


@pytest.fixture
def no_mesh(monkeypatch):
    import lowmach.cli

    def build_mesh(self):
        raise AssertionError("mesh built for a rejected configuration")

    monkeypatch.setattr(lowmach.cli.RunConfig, "build_mesh", build_mesh)


@pytest.mark.parametrize("raw, field", CONFIG_ERRORS.values(),
                         ids=CONFIG_ERRORS.keys())
def test_config_error_names_field(tmp_path, capsys, no_mesh, raw, field):
    # every key is checked before any work: no mesh, no run directory
    path = tmp_path / "c.json"
    path.write_text(json.dumps(raw))
    out = tmp_path / "o"
    assert main(["solve-incompressible", "--config", str(path),
                 "--out", str(out)]) == 2
    assert field in capsys.readouterr().err
    assert not out.exists()


def test_default_config_is_the_library_defaults():
    # the defaults are written in _KEYS and in the library signatures: the
    # empty configuration builds the default mesh and sweep setup
    from lowmach import ObstacleShape, build_mesh
    from lowmach.cli import RunConfig
    from lowmach.geometry import mesh_dump_string
    from lowmach.limits import SweepSetup

    cfg = RunConfig({})
    mesh = cfg.build_mesh()
    want = build_mesh(ObstacleShape("sphere"), 20.0, 48, 48)
    assert mesh_dump_string(mesh) == mesh_dump_string(want)
    assert mesh.qweights.tobytes() == want.qweights.tobytes()
    assert cfg.sweep_setup(mesh) == SweepSetup(mesh=mesh)


@pytest.mark.parametrize("force, field", [({"q": 2.0}, "force.q"),
                                          ({"beta": -5.0}, "force.beta")],
                         ids=["q", "beta"])
def test_validate_force_admissibility_names_key(tmp_path, capsys, force, field):
    cfg = _write_config(tmp_path, {"geometry": {"n_r": 8, "n_t": 8},
                                   "force": {"kind": "newtonian", "mass": 0.3, **force}})
    out = tmp_path / "o"
    assert main(["validate-force", "--config", cfg, "--out", str(out)]) == 2
    assert field in capsys.readouterr().err
    assert not out.exists()


def test_python_dash_m_exits_2_and_writes_nothing(tmp_path):
    # the module entry point returns main's exit code to the shell; the
    # default output directory lies under the working directory
    path = tmp_path / "c.json"
    path.write_text(json.dumps(_with("gas", gamma=0.9)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(__file__).resolve().parents[1] / "src"),
                    env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "lowmach", "sweep",
                           "--config", str(path)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert "gas.gamma" in proc.stderr
    assert os.listdir(tmp_path) == ["c.json"]


def test_solve_incompressible_ellipse(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(_ellipse([1.5, 1.0])))
    out = str(tmp_path / "out")
    assert main(["solve-incompressible", "--config", str(cfg), "--out", out]) == 0
    run, files = _run_files(out)
    assert files == ["psi.txt", "summary.json", "surface.csv"]
    meta, _ = oracles.read_field_dump(os.path.join(run, "psi.txt"))
    assert meta["kind"] == "incompressible_perturbation"
    # the surface profile lies on the ellipse (x1/1.5)^2 + xr^2 = 1
    rows = np.loadtxt(os.path.join(run, "surface.csv"), delimiter=",",
                      skiprows=2)
    assert np.allclose((rows[:, 1] / 1.5) ** 2 + rows[:, 2] ** 2, 1.0)


def _strict_json(path):
    def reject(name):
        raise ValueError(f"{name} in {os.path.basename(path)}")

    with open(path) as fh:
        return json.load(fh, parse_constant=reject)


def test_failed_sweep_report_is_strict_json(tmp_path):
    # a row without a solution has no cut-off margin, and a grid without
    # converged rows has no ratios and no critical epsilon: each is null
    cfg = _write_config(tmp_path, {"solver": {"max_newton": 1}})
    out = str(tmp_path / "out")
    assert main(["sweep", "--config", cfg, "--out", out]) == 3
    run, _ = _run_files(out)
    report = _strict_json(os.path.join(run, "report.json"))
    assert all(row["cutoff_margin"] is None for row in report["rows"])
    for key in ("uniform_u_ratio", "energy_uniform_ratio", "eps_c_estimate"):
        assert report[key] is None, key


def test_force_free_verdict_is_strict_json(tmp_path):
    # no force has no tail to fit: its infinite decay exponents are null;
    # the declared (beta, q) pair is still the one checked and reported
    cfg = _write_config(tmp_path, {"force": {"beta": 2.0, "q": 5.0}})
    out = str(tmp_path / "out")
    assert main(["validate-force", "--config", cfg, "--out", out]) == 0
    run, _ = _run_files(out)
    verdict = _strict_json(os.path.join(run, "verdict.json"))
    assert verdict["admissible"] is True and verdict["force_kind"] == "none"
    assert (verdict["beta"], verdict["q"]) == (2.0, 5.0)
    assert verdict["grad_tail_exponent"] is None
    assert verdict["phi_tail_exponent"] is None


def test_unknown_key_rejected(tmp_path, capsys):
    # output.formats was once accepted; every command writes all its
    # artifacts, so a format list would select nothing
    for section, key, value in [("geometry", "wibble", 3),
                                ("output", "formats", ["txt"])]:
        cfg = json.loads(json.dumps(BASE))
        cfg.setdefault(section, {})[key] = value
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "o"
        assert main(["solve-incompressible", "--config", str(path),
                     "--out", str(out)]) == 2
        assert f"{section}.{key}" in capsys.readouterr().err
        assert not out.exists()


def test_solve_compressible_removed(tmp_path):
    cfg = _write_config(tmp_path)
    out = str(tmp_path / "out")
    assert main(["solve-compressible", "--config", cfg, "--out", out,
                 "--epsilon", "0.1"]) == 0
    run, files = _run_files(out)
    assert "state_eps0.1.json" in files
    state = json.loads(open(os.path.join(run, "state_eps0.1.json")).read())
    assert state["cutoff_removed"] is True
    assert state["incompressible_solved_implicitly"] is True
    trace = state["newton_trace"]
    n = state["newton_iterations"]
    assert n > 0
    assert len(trace["gradient_norms"]) == n + 1
    assert len(trace["step_sizes"]) == len(trace["cg_iterations"]) == n
    assert len(trace["accepted_by"]) == n
    assert trace["energy"] < 0.0
    assert all(k > 0 for k in trace["cg_iterations"])
    assert trace["regularized"] is False
    norms = trace["gradient_norms"]
    assert norms[-1] <= state["relative_gradient_target"] * norms[0]


def test_solve_compressible_close_epsilons_keep_their_artifacts(tmp_path):
    # 0.1 and 0.1000001 agree to six digits; each keeps its own two files
    cfg = _write_config(tmp_path, {"geometry": {"n_r": 8, "n_t": 8}})
    out = str(tmp_path / "out")
    for eps in ("0.1", "0.1000001"):
        assert main(["solve-compressible", "--config", cfg, "--out", out,
                     "--epsilon", eps]) == 0
    run, files = _run_files(out)
    assert files == ["correction_eps0.1.txt", "correction_eps0.1000001.txt",
                     "state_eps0.1.json", "state_eps0.1000001.json"]
    assert json.loads(open(os.path.join(run, "state_eps0.1.json")).read())["epsilon"] == 0.1


def test_solve_compressible_saturated_exits_4(tmp_path):
    cfg = _write_config(tmp_path, {"cutoff": {"theta": 0.1, "eps0": 0.9}})
    out = str(tmp_path / "out")
    assert main(["solve-compressible", "--config", cfg, "--out", out,
                 "--epsilon", "5.0"]) == 4
    run, files = _run_files(out)
    state = json.loads(open(os.path.join(run, "state_eps5.json")).read())
    assert state["cutoff_removed"] is False


def test_solve_compressible_eps_too_large_is_config_error(tmp_path):
    # with the default cut-off the saturated branch leaves the enthalpy range
    cfg = _write_config(tmp_path)
    assert main(["solve-compressible", "--config", cfg,
                 "--out", str(tmp_path / "o"), "--epsilon", "5.0"]) == 2


def test_sweep_artifacts_and_rates(tmp_path):
    cfg = _write_config(tmp_path)
    out = str(tmp_path / "out")
    assert main(["sweep", "--config", cfg, "--out", out, "--assert-rates"]) == 0
    run, files = _run_files(out)
    assert files == ["report.csv", "report.json"]
    rep = json.loads(open(os.path.join(run, "report.json")).read())
    assert rep["slopes"]["rho_diff_inf"]["slope"] == pytest.approx(2.0, abs=0.1)
    for name, delta in rep["sensitivity"]["r_far"].items():
        assert abs(delta) < 0.1
    for name, delta in rep["sensitivity"]["refine"].items():
        assert abs(delta) < 0.1
    csv = open(os.path.join(run, "report.csv")).read().splitlines()
    assert csv[1].startswith("epsilon,")
    assert len(csv) == 2 + 4
    # the JSON report reads back with json.load and re-serializes to its bytes
    from lowmach.io_text import canonical_json

    with open(os.path.join(run, "report.json")) as fh:
        loaded = json.load(fh)
    assert loaded["schema"] == "lowmach-report v1"
    assert canonical_json(loaded) == open(os.path.join(run, "report.json")).read()
    assert loaded["energy_uniform_ratio"] < 2.0
    assert loaded["uniform_u_ratio"] < 1.25


def test_sweep_sabotaged_tolerance_exits_5(tmp_path):
    cfg = _write_config(tmp_path)
    out = str(tmp_path / "o")
    assert main(["sweep", "--config", cfg, "--out", out,
                 "--assert-rates", "--rate-tol", "0.0001"]) == 5
    assert _run_files(out)[1] == ["report.csv", "report.json"]


def test_sweep_unconverged_rows_exit_3(tmp_path):
    cfg = _write_config(tmp_path, {"solver": {"max_newton": 1}})
    out = str(tmp_path / "out")
    assert main(["sweep", "--config", cfg, "--out", out]) == 3
    run, _ = _run_files(out)
    report = json.loads(open(os.path.join(run, "report.json")).read())
    error = "Newton did not reach relative tolerance 1e-10 in 1 iterations"
    assert [r["epsilon"] for r in report["rows"]] == BASE["sweep"]["eps"]
    for row in report["rows"]:
        assert row["converged"] is False and row["cutoff_removed"] is False
        assert row["error"] == error
    assert report["slopes"] == {}


def test_solve_compressible_solver_error_exits_3(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"solver": {"max_newton": 1}})
    out = tmp_path / "out"
    assert main(["solve-compressible", "--config", cfg, "--out", str(out),
                 "--epsilon", "0.1"]) == 3
    err = capsys.readouterr().err
    assert ("solver error: Newton did not reach relative tolerance 1e-10 "
            "in 1 iterations") in err
    assert "residual history (tail): 6.363e-01, 6.541e-06" in err
    assert not out.exists()


def test_sweep_empty_eps_exits_2(tmp_path):
    cfg = _write_config(tmp_path, {"sweep": {"eps": []}})
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("overrides", [
    {"geometry": {"n_r": "12"}},
    {"solver": {"max_newton": "3"}},
    {"gas": {"gamma": None}},
    {"sweep": {"eps": 0.1}},
    {"solver": {"quad_order": 2.5}},
    {"gas": {"gamma": True}},
], ids=["n_r-string", "max_newton-string", "gamma-null", "eps-scalar",
        "quad_order-float", "gamma-bool"])
def test_mistyped_config_value_exits_2(tmp_path, overrides, capsys):
    # a value of the wrong type is a configuration error, neither a crash
    # nor a silent conversion
    cfg = _write_config(tmp_path, overrides)
    out = tmp_path / "o"
    assert main(["solve-compressible", "--config", cfg, "--out", str(out),
                 "--epsilon", "0.1"]) == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("tol", [1.0, 2.0])
@pytest.mark.parametrize("command", ["solve-incompressible", "solve-compressible"])
def test_solver_tol_of_one_or_more_exits_2(tmp_path, command, tol, capsys):
    # a relative tolerance >= 1 is met by the zero start: it would write
    # zero fields after no iteration at all
    cfg = _write_config(tmp_path, {"solver": {"tol": tol}})
    out = tmp_path / "o"
    argv = [command, "--config", cfg, "--out", str(out)]
    if command == "solve-compressible":
        argv += ["--epsilon", "0.1"]
    assert main(argv) == 2
    assert "solver.tol" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("eps", ["1e308", "1e200", "inf", "nan", "-0.1"])
def test_solve_compressible_bad_epsilon_exits_2_before_solving(
        tmp_path, eps, capsys, no_mesh):
    out = tmp_path / "o"
    assert main(["solve-compressible", "--config", _write_config(tmp_path),
                 "--out", str(out), "--epsilon", eps]) == 2
    assert "epsilon" in capsys.readouterr().err
    assert not out.exists()


def test_solve_compressible_without_epsilon_exits_2(tmp_path, capsys, no_mesh):
    out = tmp_path / "o"
    assert main(["solve-compressible", "--config", _write_config(tmp_path),
                 "--out", str(out)]) == 2
    assert "--epsilon" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_with_an_overflowing_epsilon_exits_2(tmp_path, capsys):
    # epsilon**2 overflows: rejected up front, not a traceback mid-sweep
    cfg = _write_config(tmp_path, {"sweep": {"eps": [1e200, 0.2, 0.1, 0.05]}})
    out = tmp_path / "o"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 2
    assert "epsilon" in capsys.readouterr().err
    assert not out.exists()


# (command, argv tail led by a flag of another command)
FOREIGN_FLAGS = [
    ("dump-mesh", ["--epsilon", "0.1"]),
    ("solve-incompressible", ["--assert-rates"]),
    ("validate-force", ["--rate-tol", "0.5"]),
    ("solve-compressible", ["--assert-rates", "--epsilon", "0.1"]),
    ("sweep", ["--epsilon", "0.1"]),
]


@pytest.mark.parametrize("command, flags", FOREIGN_FLAGS,
                         ids=[f"{c} {f[0]}" for c, f in FOREIGN_FLAGS])
def test_foreign_flag_exits_2(tmp_path, capsys, no_mesh, command, flags):
    # each command parses only its own flags: one it would ignore is refused
    out = tmp_path / "o"
    assert main([command, "--config", _write_config(tmp_path),
                 "--out", str(out), *flags]) == 2
    assert flags[0] in capsys.readouterr().err
    assert not out.exists()


def test_sweep_rate_tol_without_assert_rates_exits_2(tmp_path, capsys, no_mesh):
    out = tmp_path / "o"
    assert main(["sweep", "--config", _write_config(tmp_path),
                 "--out", str(out), "--rate-tol", "0.5"]) == 2
    assert "--rate-tol" in capsys.readouterr().err
    assert not out.exists()


def test_usage_exits_are_returned(tmp_path, capsys, monkeypatch):
    # main returns argparse's exit codes instead of raising SystemExit
    monkeypatch.chdir(tmp_path)
    assert main([]) == 2
    assert main(["dump-mesh", "--help"]) == 0
    assert "--epsilon" not in capsys.readouterr().out
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-0.1"])
def test_sweep_bad_rate_tol_exits_2(tmp_path, tol):
    # every comparison with nan is False, so a nan window would pass any slope
    cfg = _write_config(tmp_path)
    out = tmp_path / "o"
    assert main(["sweep", "--config", cfg, "--out", str(out),
                 "--assert-rates", "--rate-tol", tol]) == 2
    assert not out.exists()


# the forced epsilon sweep of the README and the ROADMAP baseline (48^2)
FORCED = {"cutoff": {"theta": 0.45, "eps0": 0.3},
          "force": {"kind": "newtonian", "mass": 0.5},
          "sweep": {"eps": [0.3, 0.2, 0.1, 0.05]}}


@pytest.mark.parametrize("overrides", [
    {},
    FORCED,
    {"solver": {"far_field": "neumann"}},
    {"solver": {"max_backtracks": 10}},
], ids=["force-free", "newtonian", "neumann", "max-backtracks"])
def test_sweep_rows_match_solve_compressible(tmp_path, overrides):
    # sweep and solve-compressible share one per-epsilon solve, and the
    # sweep honours every solver key, so each report row equals the state
    # file of its epsilon on every key the two share
    cfg = _write_config(tmp_path, overrides)
    out = str(tmp_path / "sweep")
    assert main(["sweep", "--config", cfg, "--out", out]) == 0
    run, _ = _run_files(out)
    rows = json.loads(open(os.path.join(run, "report.json")).read())["rows"]
    assert len(rows) == 4
    for row in rows:
        eps = row["epsilon"]
        out_e = str(tmp_path / f"solve{eps:g}")
        code = main(["solve-compressible", "--config", cfg, "--out", out_e,
                     "--epsilon", repr(eps)])
        assert code == (0 if row["cutoff_removed"] else 4)
        run_e, _ = _run_files(out_e)
        state = json.loads(open(os.path.join(run_e, f"state_eps{eps:g}.json")).read())
        shared = row.keys() & state.keys()
        assert {"rho_diff_inf", "u_diff_l2", "mach_max", "dp_gap_radial",
                "cutoff_margin", "newton_iterations"} <= shared
        for key in shared:
            assert row[key] == state[key], key


def test_forced_sweep_keeps_rates(tmp_path):
    # the extra force's effect vanishes with the Mach number: the forced
    # sweep keeps the low-Mach rate windows, the uniform bounds and its
    # slopes under r_far doubling and one refinement
    path = tmp_path / "forced.json"
    path.write_text(json.dumps(FORCED))
    out = str(tmp_path / "out")
    assert main(["sweep", "--config", str(path), "--out", out,
                 "--assert-rates"]) == 0
    run, _ = _run_files(out)
    rep = json.loads(open(os.path.join(run, "report.json")).read())
    assert rep["uniform_u_ratio"] < 1.25
    assert rep["energy_uniform_ratio"] < 2.0
    for deltas in rep["sensitivity"].values():
        assert deltas
        for delta in deltas.values():
            assert abs(delta) < 0.1


def test_validate_force_verdicts(tmp_path):
    cfg = _write_config(tmp_path, {
        "force": {"kind": "newtonian", "mass": 0.5, "source_radius": 0.5,
                  "beta": 1.2, "q": 4.0},
        "cutoff": {"theta": 0.45, "eps0": 0.3},
    })
    out = str(tmp_path / "out")
    assert main(["validate-force", "--config", cfg, "--out", out]) == 0
    run, _ = _run_files(out)
    verdict = json.loads(open(os.path.join(run, "verdict.json")).read())
    assert verdict["admissible"] is True
    assert verdict["beta_prime"] == pytest.approx(0.95)

    cfg2 = _write_config(tmp_path, {
        "force": {"kind": "newtonian", "mass": 0.5, "source_radius": 0.5,
                  "beta": 2.0, "q": 4.0},
    }, name="config2.json")
    out2 = str(tmp_path / "out2")
    assert main(["validate-force", "--config", cfg2, "--out", out2]) == 0
    run2, _ = _run_files(out2)
    verdict2 = json.loads(open(os.path.join(run2, "verdict.json")).read())
    assert verdict2["admissible"] is False


def test_dump_mesh_roundtrip(tmp_path):
    from lowmach import ObstacleShape, build_mesh
    from lowmach.geometry import mesh_dump_string

    cfg = _write_config(tmp_path)
    out = str(tmp_path / "out")
    assert main(["dump-mesh", "--config", cfg, "--out", out]) == 0
    run, files = _run_files(out)
    assert files == ["mesh.txt"]
    path = os.path.join(run, "mesh.txt")
    kv, nodes, cells = oracles.read_mesh_dump(path)
    assert kv["n_r"] == kv["n_t"] == "16"
    # the tables are those of the mesh built from the header's parameters,
    # and re-dumping that mesh reproduces the file byte for byte
    mesh = build_mesh(ObstacleShape(kv["kind"], float(kv["radius"])), float(kv["r_far"]),
                      int(kv["n_r"]), int(kv["n_t"]), grading=float(kv["grading"]),
                      mode=kv["mode"], quad_order=int(kv["quad_order"]))
    assert np.array_equal(nodes, mesh.nodes)
    assert np.array_equal(cells, mesh.cells)
    assert mesh_dump_string(mesh, kv["config"]) == open(path).read()


def test_missing_config_exits_2(tmp_path):
    assert main(["sweep", "--config", str(tmp_path / "nope.json")]) == 2


def test_invalid_json_exits_2(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    assert main(["sweep", "--config", str(p)]) == 2
