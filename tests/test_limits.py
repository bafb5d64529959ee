"""Rate fitting, decay fitting, Newtonian forces, admissibility, sweeps."""

import numpy as np
import pytest

import oracles
from lowmach import (
    ForceSpec,
    ObstacleShape,
    build_force,
    build_mesh,
    decay_fit,
    fit_rate,
    solve_incompressible,
    sweep,
    validate_force,
)
from lowmach.errors import ConfigError, DomainError
from lowmach.limits import SweepSetup, beta_prime


@pytest.fixture(scope="module")
def mesh():
    return build_mesh(ObstacleShape("sphere", 1.0), 20.0, 24, 24, grading=1.3)


def test_fit_rate_exact_quadratic():
    f = fit_rate([(0.4, 0.16), (0.2, 0.04), (0.1, 0.01)])
    assert f.slope == pytest.approx(2.0, abs=1e-12)
    assert f.r_squared == pytest.approx(1.0, abs=1e-12)


def test_fit_rate_exact_linear():
    f = fit_rate([(0.4, 0.4), (0.2, 0.2)])
    assert f.slope == pytest.approx(1.0, abs=1e-12)


def test_fit_rate_with_noise():
    rng = np.random.default_rng(42)
    eps = np.geomspace(0.4, 0.02, 10)
    vals = eps**2 * (1.0 + 0.01 * rng.standard_normal(10))
    f = fit_rate(list(zip(eps, vals)))
    assert f.slope == pytest.approx(2.0, abs=0.05)


@pytest.mark.parametrize("n", [2, 3])
def test_fit_rate_rejects_one_abscissa(n):
    # no slope is defined: 3 pairs divided by a zero spread, 2 read slope 0.0
    with pytest.raises(DomainError):
        fit_rate([(0.2, 0.1 * (k + 1)) for k in range(n)])


def test_fit_rate_rejects_nonpositive():
    with pytest.raises(DomainError):
        fit_rate([(0.4, 0.1), (0.2, -0.1)])
    with pytest.raises(DomainError):
        fit_rate([(0.4, 0.0), (0.2, 0.1)])


def test_point_mass_potential(mesh):
    ff = build_force(ForceSpec("point_mass", mass=2.0), mesh)
    pts = mesh.qpts.reshape(-1, 2)
    k = int(np.argmin(np.abs(np.linalg.norm(pts, axis=1) - 2.0)))
    r = np.linalg.norm(pts[k])
    assert ff.phi_qpts.reshape(-1)[k] == pytest.approx(2.0 / r, rel=1e-12)
    g = ff.grad_qpts.reshape(-1, 2)[k]
    assert np.linalg.norm(g) == pytest.approx(2.0 / r**2, rel=1e-12)


def test_shell_theorem(mesh):
    # a uniform finite-mass ball acts like a point mass outside itself: the
    # library's closed form against a direct Coulomb sum over the ball
    spec = ForceSpec("newtonian", mass=0.5, source_radius=0.5)
    ff = build_force(spec, mesh)
    pts = mesh.qpts.reshape(-1, 2)
    expect_phi, expect_grad = oracles.coulomb_ball(pts, 0.5, 0.5)
    err_phi = np.max(np.abs(ff.phi_qpts.reshape(-1) - expect_phi) / expect_phi)
    assert err_phi < 1e-4
    gdiff = np.linalg.norm(ff.grad_qpts.reshape(-1, 2) - expect_grad, axis=1)
    err_g = np.max(gdiff / np.linalg.norm(expect_grad, axis=1))
    assert err_g < 1e-4


def test_newtonian_mass_sanity(mesh):
    spec = ForceSpec("newtonian", mass=1.0, source_radius=0.5)
    ff = build_force(spec, mesh)
    pts = mesh.nodes
    r = np.linalg.norm(pts, axis=1)
    far = r > 15.0
    assert np.allclose(r[far] * ff.phi_nodes[far], 1.0, rtol=1e-3)


def test_newtonian_requires_axisym():
    m2 = build_mesh(ObstacleShape("disk", 1.0), 20.0, 8, 8, mode="planar-2d")
    with pytest.raises(ConfigError):
        build_force(ForceSpec("newtonian"), m2)


def test_newtonian_source_must_fit():
    m = build_mesh(ObstacleShape("sphere", 1.0), 20.0, 8, 8)
    with pytest.raises(ConfigError):
        build_force(ForceSpec("newtonian", source_radius=1.2), m)


def test_beta_prime_arithmetic():
    assert beta_prime(1.2, 4.0, 3) == pytest.approx(0.95)
    assert beta_prime(5.0, 4.0, 3) == pytest.approx(1.5)


def test_validate_force_newtonian_admissible(mesh):
    ff = build_force(ForceSpec("newtonian", mass=0.5, source_radius=0.5), mesh)
    rep = validate_force(ff, beta=1.2, q=4.0, mesh=mesh)
    assert rep.admissible
    assert rep.beta_prime == pytest.approx(0.95)
    assert rep.grad_tail_exponent == pytest.approx(2.0, abs=0.1)
    assert rep.phi_star == pytest.approx(0.5, rel=0.05)
    # the potential itself decays like 1/r, so its own L2 tail diverges
    assert not rep.phi_tail_finite


def test_validate_force_zero(mesh):
    ff = build_force(None, mesh)
    rep = validate_force(ff, beta=1.2, q=4.0, mesh=mesh)
    assert rep.admissible
    assert rep.grad_lq_truncated == 0.0
    assert rep.l2_phi_truncated == 0.0


def test_validate_force_inadmissible_beta(mesh):
    ff = build_force(ForceSpec("newtonian", mass=0.5, source_radius=0.5), mesh)
    rep = validate_force(ff, beta=2.0, q=4.0, mesh=mesh)
    assert not rep.admissible
    # tail integrand ~ r^{q beta - q d + n - 1} = r^{+1} for d = 2
    assert rep.grad_tail_exponent == pytest.approx(2.0, abs=0.1)


def test_validate_force_precondition(mesh):
    ff = build_force(None, mesh)
    with pytest.raises(ConfigError):
        validate_force(ff, beta=1.2, q=2.0, mesh=mesh)  # q must exceed n


def test_decay_fit_dipole(mesh):
    psi = solve_incompressible(mesh, 1.0)
    fit = decay_fit(psi, ray_direction=np.pi / 4.0)
    assert fit.resolved
    # analytic dipole gradient decays like r^-3; the discrete solution, closed
    # by a Dirichlet condition at r_far, reads it within 0.2
    assert 2.8 <= fit.exponent <= 3.2
    assert fit.exponent >= 1.4


def test_decay_fit_exact_dipole(mesh):
    # the nodal interpolant of the sphere's exact perturbation 0.5 x1 / r^3
    # (q_inf 1, unit radius): its gradient decays like r^-3
    from lowmach.incompressible import PotentialField

    x1, r = mesh.nodes[:, 0], np.linalg.norm(mesh.nodes, axis=1)
    fit = decay_fit(PotentialField(mesh, 0.5 * x1 / r**3), ray_direction=np.pi / 4.0)
    assert fit.exponent == pytest.approx(3.0, abs=0.05)


def test_decay_fit_unresolved(mesh):
    from lowmach.incompressible import PotentialField

    flat = PotentialField(mesh, np.zeros(mesh.n_nodes), name="flat")
    fit = decay_fit(flat, ray_direction=0.9)
    assert not fit.resolved


def test_sweep_report_force_free(mesh):
    setup = SweepSetup(mesh=mesh)
    report = sweep(setup, [0.4, 0.2, 0.1, 0.05], sensitivity=False)
    assert report.all_converged()
    assert all(r["cutoff_removed"] for r in report.rows)
    assert report.mode_label == "axisymmetric-3d"
    assert report.eps_c_estimate == pytest.approx(0.4)
    sl = report.slopes
    assert sl["rho_diff_inf"].slope == pytest.approx(2.0, abs=0.1)
    assert sl["u_diff_l2"].slope == pytest.approx(2.0, abs=0.15)
    assert sl["mach_max"].slope == pytest.approx(1.0, abs=0.05)
    for k in ("dp_gap_radial", "dp_gap_aligned", "dp_gap_quadrupole"):
        assert sl[k].slope == pytest.approx(2.0, abs=0.2)
    assert report.uniform_u_ratio < 1.25
    # correction energy uniform in eps: bounded by its largest-eps value
    # times a fixed factor
    assert report.energy_uniform_ratio < 2.0
    assert report.decay["incompressible_grad"].exponent >= 1.4
    assert report.decay["correction_grad"].exponent >= 1.4


def test_sweep_grid_validation(mesh):
    setup = SweepSetup(mesh=mesh)
    with pytest.raises(ConfigError):
        sweep(setup, [0.4, 0.2], sensitivity=False)
    with pytest.raises(ConfigError):
        sweep(setup, [0.1, 0.2, 0.3, 0.4], sensitivity=False)


def test_sweep_isothermal_gas():
    # gamma = 1 exercises the logarithmic enthalpy branch through the whole
    # stack; the rates are the same.  The isothermal sound speed is 1/eps
    # independent of density, so the removal threshold theta/eps_ref needs a
    # slightly smaller reference to clear the 1.5x sphere speedup.
    m = build_mesh(ObstacleShape("sphere", 1.0), 20.0, 16, 16, grading=1.3)
    setup = SweepSetup(mesh=m, gamma=1.0, eps_ref=0.4)
    report = sweep(setup, [0.4, 0.2, 0.1, 0.05], sensitivity=False)
    assert report.all_converged()
    assert all(r["cutoff_removed"] for r in report.rows)
    assert report.slopes["rho_diff_inf"].slope == pytest.approx(2.0, abs=0.1)
    assert report.slopes["mach_max"].slope == pytest.approx(1.0, abs=0.05)


def test_sweep_planar_mode_labeled_outside_theory():
    # exploratory two-dimensional mode; the disk doubles the surface speed,
    # so a slower stream keeps the cut-off removed
    m2 = build_mesh(ObstacleShape("disk", 1.0), 20.0, 16, 16,
                    grading=1.3, mode="planar-2d")
    setup = SweepSetup(mesh=m2, q_inf=0.7)
    report = sweep(setup, [0.4, 0.2, 0.1, 0.05], sensitivity=False)
    assert report.mode_label == "planar-2d-outside-theory"
    assert report.all_converged()
    assert all(r["cutoff_removed"] for r in report.rows)
    assert report.slopes["rho_diff_inf"].slope == pytest.approx(2.0, abs=0.1)
