"""Command-line contracts: artifacts, exit codes, determinism, round-trips."""

import json
import os

import numpy as np
import pytest

from lowmach.cli import main
from lowmach.io_text import load_field


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
    pts, wts, vals, meta = load_field(os.path.join(run, "psi.txt"))
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


def test_config_error_names_field(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"geometry": {"radius": -2.0}})
    assert main(["solve-incompressible", "--config", cfg,
                 "--out", str(tmp_path / "o")]) == 2
    assert "geometry.radius" in capsys.readouterr().err


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
    assert len(trace["gradient_norms"]) == len(trace["energies"]) == n + 1
    assert len(trace["step_sizes"]) == len(trace["cg_iterations"]) == n
    assert all(k > 0 for k in trace["cg_iterations"])
    assert trace["regularized"] is False
    norms = trace["gradient_norms"]
    assert norms[-1] <= state["relative_gradient_target"] * norms[0]


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
    # the JSON report round-trips through its loader
    from lowmach.io_text import load_report, canonical_json

    loaded = load_report(os.path.join(run, "report.json"))
    assert canonical_json(loaded) == open(os.path.join(run, "report.json")).read()
    assert loaded["energy_uniform_ratio"] < 2.0
    assert loaded["uniform_u_ratio"] < 1.25


def test_sweep_sabotaged_tolerance_exits_5(tmp_path):
    cfg = _write_config(tmp_path)
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "o"),
                 "--assert-rates", "--rate-tol", "0.0001"]) == 5


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
        tmp_path, eps, capsys, monkeypatch):
    import lowmach.cli

    def no_mesh(self):
        raise AssertionError("mesh built for a bad epsilon")

    monkeypatch.setattr(lowmach.cli.RunConfig, "build_mesh", no_mesh)
    out = tmp_path / "o"
    assert main(["solve-compressible", "--config", _write_config(tmp_path),
                 "--out", str(out), "--epsilon", eps]) == 2
    assert "epsilon" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_with_an_overflowing_epsilon_exits_2(tmp_path, capsys):
    # epsilon**2 overflows: rejected up front, not a traceback mid-sweep
    cfg = _write_config(tmp_path, {"sweep": {"eps": [1e200, 0.2, 0.1, 0.05]}})
    out = tmp_path / "o"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 2
    assert "epsilon" in capsys.readouterr().err
    assert not out.exists()


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
    from lowmach.geometry import load_mesh

    cfg = _write_config(tmp_path)
    out = str(tmp_path / "out")
    assert main(["dump-mesh", "--config", cfg, "--out", out]) == 0
    run, files = _run_files(out)
    assert files == ["mesh.txt"]
    mesh = load_mesh(os.path.join(run, "mesh.txt"))
    assert mesh.n_r == 16 and mesh.n_t == 16


def test_missing_config_exits_2(tmp_path):
    assert main(["sweep", "--config", str(tmp_path / "nope.json")]) == 2


def test_invalid_json_exits_2(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    assert main(["sweep", "--config", str(p)]) == 2
