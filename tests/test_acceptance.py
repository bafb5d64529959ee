"""Acceptance suite: one test per criterion, each printing a PASS line.

Every tolerance is fixed here, not calibrated at run time.  The sweeps and
the variational suites share module-scoped fixtures so the whole module
stays inside the stated runtime budgets.
"""

import json
import os
import time

import numpy as np
import pytest

import oracles
from lowmach import (
    ForceSpec,
    GasModel,
    ObstacleShape,
    build_force,
    build_mesh,
    critical_density,
    critical_speed,
    decay_fit,
    make_cutoff,
    minimize,
    solve_incompressible,
    sweep,
    validate_force,
)
from lowmach.cli import main
from lowmach.compressible import DifferenceProblem
from lowmach.gas import density_departure
from lowmach.incompressible import surface_speeds, velocity_at_points, velocity_at_qpts
from lowmach.limits import SweepSetup
import lowmach.fem as fem


def _report(k, detail):
    print(f"ACCEPTANCE {k}: PASS - {detail}")


@pytest.fixture(scope="module")
def mesh64():
    t0 = time.perf_counter()
    mesh = build_mesh(ObstacleShape("sphere", 1.0), 20.0, 64, 64, grading=1.15)
    return mesh, time.perf_counter() - t0


@pytest.fixture(scope="module")
def psi64(mesh64):
    mesh, _ = mesh64
    t0 = time.perf_counter()
    psi = solve_incompressible(mesh, 1.0)
    return psi, time.perf_counter() - t0


@pytest.fixture(scope="module")
def report64(mesh64):
    mesh, _ = mesh64
    t0 = time.perf_counter()
    rep = sweep(SweepSetup(mesh=mesh), [0.4, 0.2, 0.1, 0.05], sensitivity=True)
    return rep, time.perf_counter() - t0


def test_criterion_1_closure_exactness():
    t0 = time.perf_counter()
    gas = GasModel(1.4, 1e-8, 1.0)
    rho_cr = critical_density(0.0, gas)
    rho_oracle = oracles.sonic_head_inv_bisect(0.0, 1.4)
    assert abs(rho_cr - 0.63394) <= 1e-4
    assert rho_cr == pytest.approx(rho_oracle, rel=1e-9)
    scaled_q = gas.epsilon * critical_speed(0.0, gas)
    q_oracle = np.sqrt(oracles.p_prime(rho_oracle, 1.4))
    assert abs(scaled_q - 1.08012) <= 1e-4
    assert scaled_q == pytest.approx(q_oracle, rel=1e-9)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(1, f"rho_cr={rho_cr:.6f}, eps*q_cr={scaled_q:.6f}, {elapsed:.2f}s")


def test_criterion_2_incompressible_oracle(mesh64, psi64):
    _, t_mesh = mesh64
    psi, t_solve = psi64
    speed_max = float(surface_speeds(psi, 1.0).max())
    assert 1.47 <= speed_max <= 1.53
    stag = max(
        float(np.linalg.norm(velocity_at_points(psi, 1.0, np.array(p))))
        for p in ([1.0, 0.0], [-1.0, 0.0])
    )
    assert stag < 0.05
    elapsed = t_mesh + t_solve
    assert elapsed < 30.0
    _report(2, f"max surface speed={speed_max:.4f}, stagnation={stag:.2e}, "
               f"{elapsed:.1f}s")


def test_criterion_3_low_mach_rates(report64):
    rep, elapsed = report64
    assert rep.all_converged()
    sl = {k: fit.slope for k, fit in rep.slopes.items()}
    assert abs(sl["rho_diff_inf"] - 2.0) <= 0.1
    assert abs(sl["u_diff_l2"] - 2.0) <= 0.15
    assert abs(sl["mach_max"] - 1.0) <= 0.05
    for name in ("dp_gap_radial", "dp_gap_aligned", "dp_gap_quadrupole"):
        assert abs(sl[name] - 2.0) <= 0.2
    assert elapsed < 600.0
    _report(3, "slopes rho={rho_diff_inf:.3f} u={u_diff_l2:.3f} "
               "M={mach_max:.3f} dp={dp_gap_radial:.3f}/{dp_gap_aligned:.3f}/"
               "{dp_gap_quadrupole:.3f}".format(**sl) + f", {elapsed:.0f}s")


def test_criterion_4_uniform_difference_bound(report64):
    rep, _ = report64
    # ratio of |u - u_bar|_inf / eps^2 over the two smallest epsilons
    rows = sorted(rep.rows, key=lambda r: r["epsilon"])[:2]
    vals = [r["u_diff_inf"] / r["epsilon"] ** 2 for r in rows]
    variation = max(vals) / min(vals) - 1.0
    assert variation < 0.25
    _report(4, f"difference-velocity bound varies {100 * variation:.2f}% "
               f"over the two smallest epsilons")


def test_criterion_5_variational_properties(mesh64, psi64):
    t0 = time.perf_counter()
    mesh, _ = mesh64
    psi, _ = psi64
    gas = GasModel(1.4, 0.3, 1.0)
    cut = make_cutoff(gas, 0.65, 0.45)
    prob = DifferenceProblem(psi, None, gas, cut)
    w = mesh.qweights

    assert prob.functional(np.zeros(mesh.n_nodes)) == 0.0

    rng = np.random.default_rng(20240801)
    base = velocity_at_qpts(psi, gas.q_inf)
    base_sq = np.sum(base**2, axis=-1)
    base_term = density_departure(base_sq, 0.0, gas, cut)[..., None] * base
    c_data = float(np.sum(w * np.sum(base_term**2, axis=-1))) / cut.lam1
    for _ in range(100):
        a = 0.4 * rng.standard_normal(mesh.n_nodes)
        b = 0.4 * rng.standard_normal(mesh.n_nodes)
        ia, ib = prob.functional(a), prob.functional(b)
        gap = ia + ib - 2.0 * prob.functional((a + b) / 2.0)
        g = fem.grad_at_qpts(mesh, a - b)
        vnorm2 = float(np.sum(w * np.sum(g * g, axis=-1)))
        assert gap >= 0.5 * cut.lam1 * vnorm2 - 1e-10 * max(1.0, abs(gap))
        ga = fem.grad_at_qpts(mesh, a)
        va2 = float(np.sum(w * np.sum(ga * ga, axis=-1)))
        assert ia >= 0.5 * cut.lam1 * va2 - c_data

    # finite differences against smooth random fields: white noise on the
    # graded mesh has first-layer gradients in the hundreds, which drives the
    # integrand across the cut-off kinks where the parameter quadrature is
    # only piecewise smooth
    def smooth_field(amp):
        s = np.log(np.linalg.norm(mesh.nodes, axis=1)) / np.log(mesh.r_far)
        mu = mesh.nodes[:, 0] / np.maximum(np.linalg.norm(mesh.nodes, axis=1), 1e-12)
        out = np.zeros(mesh.n_nodes)
        for i in range(4):
            for j in range(4):
                out += rng.normal(0.0, amp) * s**i * mu**j
        return out

    x = smooth_field(0.2)
    g = prob.gradient(x)
    h = 1e-5
    for _ in range(20):
        v = smooth_field(1.0)
        v /= np.linalg.norm(v)
        fd = (prob.functional(x + h * v) - prob.functional(x - h * v)) / (2 * h)
        assert fd == pytest.approx(float(g @ v), rel=1e-6, abs=1e-10)

    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _report(5, f"convexity/coercivity on 100 pairs, 20 FD directions, "
               f"I(0)=0, {elapsed:.0f}s")


def test_criterion_6_cutoff_removal(report64, tmp_path):
    rep, _ = report64
    for row in rep.rows:
        assert row["cutoff_removed"]
        assert row["cutoff_margin"] > 0.0
    cfg = {
        "geometry": {"kind": "sphere", "radius": 1.0, "r_far": 20.0,
                     "n_r": 16, "n_t": 16, "grading": 1.3,
                     "mode": "axisymmetric-3d"},
        "cutoff": {"theta": 0.1, "eps0": 0.9},
    }
    path = tmp_path / "adversarial.json"
    path.write_text(json.dumps(cfg))
    code = main(["solve-compressible", "--config", str(path),
                 "--out", str(tmp_path / "out"), "--epsilon", "5.0"])
    assert code == 4
    run = os.path.join(str(tmp_path / "out"), os.listdir(tmp_path / "out")[0])
    state = json.loads(open(os.path.join(run, "state_eps5.json")).read())
    assert state["cutoff_removed"] is False
    margins = [r["cutoff_margin"] for r in rep.rows]
    _report(6, f"sweep margins {['%.3f' % m for m in margins]}, "
               f"adversarial eps=5 exit code 4")


def test_criterion_7_decay_bounds(report64):
    rep, _ = report64
    d_psi = rep.decay["incompressible_grad"].exponent
    d_corr = rep.decay["correction_grad"].exponent
    assert d_psi >= 1.4
    assert d_corr >= 1.4

    mesh = build_mesh(ObstacleShape("sphere", 1.0), 20.0, 48, 48, grading=1.15)
    force = build_force(ForceSpec("newtonian", mass=0.5, source_radius=0.5,
                                  beta=1.2, q=4.0), mesh)
    gas = GasModel(1.4, 0.1, 1.0)
    samples = np.concatenate([force.phi_nodes, force.phi_qpts.ravel()])
    cut = make_cutoff(gas, 0.45, 0.3, phi_samples=samples)
    psi = solve_incompressible(mesh, 1.0)
    corr, info = minimize(psi, force, gas, cut)
    assert info.gradient_norms[-1] <= info.relative_target * info.gradient_norms[0]
    d_forced = decay_fit(corr, np.pi / 4.0).exponent
    assert d_forced >= 0.95 - 0.1
    _report(7, f"decay exponents: incompressible {d_psi:.2f} >= 1.4, "
               f"force-free correction {d_corr:.2f} >= 1.4, "
               f"Newtonian-forced {d_forced:.2f} >= 0.85")


def test_criterion_8_force_admissibility():
    mesh = build_mesh(ObstacleShape("sphere", 1.0), 20.0, 24, 24, grading=1.3)
    spec = ForceSpec("newtonian", mass=0.5, source_radius=0.5)
    ff = build_force(spec, mesh)

    # shell theorem to 1e-4: closed form against the direct Coulomb sum
    pts = mesh.qpts.reshape(-1, 2)
    coulomb, _ = oracles.coulomb_ball(pts, 0.5, 0.5)
    rel = np.abs(ff.phi_qpts.reshape(-1) - coulomb) / coulomb
    assert np.max(rel) < 1e-4

    rep1 = validate_force(ff, beta=1.2, q=4.0, mesh=mesh)
    assert rep1.admissible
    assert rep1.beta_prime == pytest.approx(0.95, abs=1e-12)

    rep2 = validate_force(build_force(None, mesh), beta=1.2, q=4.0, mesh=mesh)
    assert rep2.admissible
    assert rep2.grad_lq_truncated == 0.0 and rep2.l2_phi_truncated == 0.0

    rep3 = validate_force(ff, beta=2.0, q=4.0, mesh=mesh)
    assert not rep3.admissible
    _report(8, f"verdicts admissible/zero/inadmissible as declared, "
               f"shell theorem {np.max(rel):.1e} <= 1e-4")


def test_criterion_9_sensitivity_and_determinism(report64, tmp_path):
    rep, _ = report64
    for variant in ("r_far", "refine"):
        for name, delta in rep.sensitivity[variant].items():
            assert abs(delta) < 0.1, (variant, name, delta)

    cfg = {
        "geometry": {"kind": "sphere", "radius": 1.0, "r_far": 20.0,
                     "n_r": 16, "n_t": 16, "grading": 1.3,
                     "mode": "axisymmetric-3d"},
        "sweep": {"eps": [0.4, 0.2, 0.1, 0.05]},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    blobs = []
    for sub in ("a", "b"):
        out = str(tmp_path / sub)
        assert main(["sweep", "--config", str(path), "--out", out]) == 0
        run = os.path.join(out, os.listdir(out)[0])
        blobs.append({
            f: open(os.path.join(run, f), "rb").read()
            for f in sorted(os.listdir(run))
        })
    assert blobs[0] == blobs[1]
    worst = max(abs(d) for v in rep.sensitivity.values() for d in v.values())
    _report(9, f"headline slopes move <= {worst:.4f} under r_far doubling "
               f"and one refinement; sweep reruns byte-identical")
