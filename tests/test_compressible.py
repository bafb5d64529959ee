"""Difference-functional minimization: variational properties and states."""

import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

import oracles
from lowmach import (
    ForceSpec,
    GasModel,
    ObstacleShape,
    build_force,
    build_mesh,
    flow_state,
    make_cutoff,
    minimize,
    solve_incompressible,
)
from lowmach.compressible import DifferenceProblem, station_mass_flux
from lowmach.gas import density_departure
from lowmach.incompressible import velocity_at_qpts
from lowmach.errors import ConfigError, SolverError


@pytest.fixture(scope="module")
def mesh():
    return build_mesh(ObstacleShape("sphere", 1.0), 20.0, 24, 24, grading=1.3)


@pytest.fixture(scope="module")
def psi(mesh):
    return solve_incompressible(mesh, 1.0)


@pytest.fixture(scope="module")
def cut():
    return make_cutoff(GasModel(1.4, 0.1, 1.0), 0.65, 0.45)


def _gas(eps):
    return GasModel(1.4, eps, 1.0)


@pytest.fixture(scope="module", params=["none", "point_mass"])
def force_and_cut(request, mesh, cut):
    """Force-free case with the default cut-off, and a point-mass force
    with the forced cut-off (theta 0.45, eps0 0.3): the phi != 0 path."""
    if request.param == "none":
        return None, cut
    force = build_force(ForceSpec("point_mass", mass=0.3), mesh)
    samples = np.concatenate([force.phi_nodes, force.phi_qpts.ravel()])
    return force, make_cutoff(_gas(0.1), 0.45, 0.3, phi_samples=samples)


def test_functional_zero_at_zero(mesh, psi, cut):
    z = np.zeros(mesh.n_nodes)
    assert DifferenceProblem(psi, None, _gas(0.1), cut).functional(z) == 0.0


def test_functional_constant_correction(mesh, psi, cut):
    c = 3.7 * np.ones(mesh.n_nodes)
    val = DifferenceProblem(psi, None, _gas(0.1), cut).functional(c)
    assert abs(val) < 1e-12


def test_functional_gauge_invariance(mesh, psi, cut):
    rng = np.random.default_rng(17)
    x = 0.1 * rng.standard_normal(mesh.n_nodes)
    prob = DifferenceProblem(psi, None, _gas(0.2), cut)
    v1 = prob.functional(x)
    v2 = prob.functional(x + 42.0)
    assert v1 == pytest.approx(v2, rel=1e-12)
    g1 = prob.gradient(x)
    g2 = prob.gradient(x + 42.0)
    assert np.allclose(g1, g2, atol=1e-12 * max(1.0, np.max(np.abs(g1))))


def test_functional_quadrature_refinement(psi, cut):
    # re-evaluate on the same nodes with a higher-order volume rule and a
    # denser parameter integral
    mesh = psi.mesh
    rng = np.random.default_rng(4)
    x = 0.1 * rng.standard_normal(mesh.n_nodes)
    gas = _gas(0.2)
    coarse = DifferenceProblem(psi, None, gas, cut).functional(x)
    mesh6 = build_mesh(mesh.shape, mesh.r_far, mesh.n_r, mesh.n_t,
                       grading=mesh.grading, mode=mesh.mode, quad_order=6)
    psi6 = solve_incompressible(mesh6, 1.0)
    psi6.values[:] = psi.values  # same nodal field, richer quadrature
    fine = DifferenceProblem(psi6, None, gas, cut, t_order=16).functional(x)
    assert coarse == pytest.approx(fine, rel=1e-8)


def test_functional_matches_literal_definition(mesh, psi, cut):
    # the eps-stable expansion equals the literal scaled difference of
    # energy densities, evaluated through the closed-form integral (an
    # independent code path).  Smooth states keep the whole expansion path
    # on the subsonic branch, where the parameter integral is essentially
    # exact; at compressibilities this moderate the literal form still has
    # enough digits left to compare tightly.
    import lowmach.fem as fem
    from oracles import energy_density

    rng = np.random.default_rng(8)
    r = np.linalg.norm(mesh.nodes, axis=1)
    s = np.log(r) / np.log(mesh.r_far)
    mu = mesh.nodes[:, 0] / r
    x = np.zeros(mesh.n_nodes)
    for i in range(4):
        for j in range(4):
            x += rng.normal(0.0, 0.3) * s**i * mu**j
    for eps in (0.4, 0.2, 0.1):
        gas = _gas(eps)
        prob = DifferenceProblem(psi, None, gas, cut)
        base = velocity_at_qpts(psi, gas.q_inf)
        g = fem.grad_at_qpts(mesh, x)
        full = base + eps**2 * g
        lam_full = np.sum(full * full, axis=-1)
        lam_base = np.sum(base * base, axis=-1)
        assert np.max(np.sqrt(lam_full)) < cut.q_lower(0.0)
        literal = (energy_density(lam_full, 0.0, gas, cut)
                   - energy_density(lam_base, 0.0, gas, cut)
                   - eps**2 * np.sum(base * g, axis=-1)) / eps**4
        val_literal = float(np.sum(mesh.qweights * literal))
        val_stable = prob.functional(x)
        assert val_stable == pytest.approx(val_literal, rel=1e-8)


def test_hessian_matches_gradient_differences(mesh, psi, force_and_cut):
    force, cut = force_and_cut
    gas = _gas(0.2)
    prob = DifferenceProblem(psi, force, gas, cut)
    rng = np.random.default_rng(12)
    x = 0.05 * rng.standard_normal(mesh.n_nodes)
    h = prob.hessian(x)
    step = 1e-6
    for _ in range(5):
        v = rng.standard_normal(mesh.n_nodes)
        v /= np.linalg.norm(v)
        fd = (prob.gradient(x + step * v) - prob.gradient(x - step * v)) / (2 * step)
        hv = oracles.stencil_to_csr(h) @ v
        assert np.linalg.norm(fd - hv) <= 1e-5 * max(1.0, np.linalg.norm(hv))


def test_hessian_is_the_assembled_coefficient_matrix(mesh, psi, force_and_cut):
    # the rank-one assembly against the einsum oracle of c I - d v v^T
    import lowmach.fem as fem
    from lowmach.gas import coefficients

    force, cut = force_and_cut
    gas = _gas(0.2)
    prob = DifferenceProblem(psi, force, gas, cut)
    x = 0.05 * np.random.default_rng(29).standard_normal(mesh.n_nodes)
    v = velocity_at_qpts(psi, gas.q_inf) + gas.epsilon**2 * fem.grad_at_qpts(mesh, x)
    c, d = coefficients(np.sum(v * v, axis=-1), prob.phi, gas, cut)
    want = oracles.assemble_matrix(mesh, oracles.coefficient_matrix(v, c, d))
    got = oracles.stencil_to_csr(prob.hessian(x))
    assert abs(got - want).max() <= 1e-13 * abs(want).max()


def test_gradient_matches_finite_differences(mesh, psi, force_and_cut):
    force, cut = force_and_cut
    rng = np.random.default_rng(23)
    gas = _gas(0.1)
    prob = DifferenceProblem(psi, force, gas, cut)
    x = 0.05 * rng.standard_normal(mesh.n_nodes)
    g = prob.gradient(x)
    h = 1e-5
    for _ in range(20):
        v = rng.standard_normal(mesh.n_nodes)
        v /= np.linalg.norm(v)
        fd = (prob.functional(x + h * v) - prob.functional(x - h * v)) / (2.0 * h)
        assert fd == pytest.approx(float(g @ v), rel=1e-6, abs=1e-10)


def test_gradient_at_zero_low_mach(mesh, psi, cut):
    # the physical first variation (eps^2 times the scaled gradient) vanishes
    # quadratically as eps -> 0, while the scaled gradient itself stays O(1):
    # it converges to the compressibility source driving the correction
    z = np.zeros(mesh.n_nodes)
    g_small = DifferenceProblem(psi, None, _gas(1e-6), cut).gradient(z)
    g_ref = DifferenceProblem(psi, None, _gas(0.3), cut).gradient(z)
    n_small, n_ref = np.linalg.norm(g_small), np.linalg.norm(g_ref)
    assert (1e-6) ** 2 * n_small < 1e-11
    assert 0.1 < n_small < 10.0 and 0.1 < n_ref < 10.0
    assert n_small == pytest.approx(n_ref, rel=0.05)


def test_minimize_tiny_epsilon(mesh, psi, cut):
    gas = _gas(1e-4)
    corr, info = minimize(psi, None, gas, cut)
    assert info.gradient_norms[-1] <= info.relative_target * info.gradient_norms[0]
    state = flow_state(corr, psi, gas, None, cut)
    assert state.norms["corr_grad_inf"] < 5.0
    assert state.norms["u_diff_inf"] <= 1e-6


def test_minimize_zero_stream(mesh, cut):
    psi0 = solve_incompressible(mesh, 0.0)
    gas = GasModel(1.4, 0.1, 0.0)
    cut0 = make_cutoff(gas, 0.65, 0.45)
    corr, info = minimize(psi0, None, gas, cut0)
    assert info.gradient_norms[-1] <= info.relative_target * info.gradient_norms[0]
    g = corr.grad_at_qpts()
    assert np.max(np.abs(g)) < 1e-10


@pytest.mark.parametrize("n", [16, 24])
def test_newton_converges_on_coarse_planar_disk(n, cut):
    # the last Newton steps predict a decrease far below the resolution of
    # the energy; the line search must not stall on round-off there
    disk = build_mesh(ObstacleShape("disk", 1.0), 20.0, n, n, grading=1.15,
                      mode="planar-2d")
    corr, info = minimize(solve_incompressible(disk, 1.0), None, _gas(0.2), cut)
    assert info.iterations <= 5
    assert info.gradient_norms[-1] <= 1e-10 * info.gradient_norms[0]
    assert info.energy < 0.0


@pytest.mark.parametrize("max_newton", [0, -1])
def test_newton_budget_exhausted_raises(psi, cut, max_newton):
    # no budget left and the target not met: raise, never return the start
    with pytest.raises(SolverError, match=f"in {max_newton} iterations"):
        minimize(psi, None, _gas(0.2), cut, max_newton=max_newton)


def test_failed_line_search_raises(psi, cut):
    # a Newton direction always descends, so no second descent method backs
    # the search up: beyond the cut-off reference, where every step is taken
    # by the line search, no trial step allowed fails the first step at once
    with pytest.raises(SolverError, match="line search failed at Newton iteration 0"):
        minimize(psi, None, _gas(0.5), cut, max_backtracks=0)


def test_certified_steps_need_no_line_search(psi, cut):
    # up to the reference the convexity certificate accepts every full step,
    # so a search with no trial step allowed is never run
    _, info = minimize(psi, None, _gas(0.2), cut, max_backtracks=0)
    assert info.gradient_norms[-1] <= info.relative_target * info.gradient_norms[0]
    assert info.accepted_by == ["certificate"] * info.iterations


def test_armijo_fallback_takes_the_certified_steps(psi, cut):
    # with the certificate off (lam1 = -inf) every step goes through the
    # Armijo search, which accepts the same full steps
    corr, info = minimize(psi, None, _gas(0.2), cut)
    corr_a, info_a = minimize(psi, None, _gas(0.2), replace(cut, lam1=-math.inf))
    assert "armijo" not in info.accepted_by
    assert info_a.accepted_by == ["armijo"] * info.iterations
    assert corr_a.values.tobytes() == corr.values.tobytes()
    assert info_a.energy == info.energy


def test_solve_from_zero_evaluates_the_functional_once(psi, cut, monkeypatch):
    # I(0) = 0 is known and every step is certified: the functional is read
    # once, for the returned energy
    calls = []
    real = DifferenceProblem.functional

    def counted(self, corr):
        calls.append(1)
        return real(self, corr)

    monkeypatch.setattr(DifferenceProblem, "functional", counted)
    _, info = minimize(psi, None, _gas(0.2), cut)
    assert info.iterations > 0
    assert len(calls) == 1


def test_energy_above_the_certified_bound_raises(psi, cut, monkeypatch):
    # the one functional value is audited against what the steps certified
    real = DifferenceProblem.functional
    monkeypatch.setattr(DifferenceProblem, "functional",
                        lambda self, corr: real(self, corr) + 1.0)
    with pytest.raises(SolverError, match="above I\\(0\\) = 0 or the certified bound"):
        minimize(psi, None, _gas(0.2), cut)


def test_hessian_below_lam1_raises(psi, cut):
    # the certificate's premise, checked at every Hessian up to the reference
    with pytest.raises(SolverError, match=r"below lam1 = 10\.0 at epsilon 0\.2"):
        minimize(psi, None, _gas(0.2), replace(cut, lam1=10.0))


def test_hessian_with_a_nan_coefficient_raises(psi, cut):
    # a NaN eigenvalue is not at or above lam1: the minima must propagate it
    # (Python's min(1.0, nan) is 1.0), and the comparison must fail on it
    prob = DifferenceProblem(psi, None, _gas(0.1), cut)
    corr = np.zeros(psi.mesh.n_nodes)
    corr[40] = np.nan
    with pytest.raises(SolverError, match=r"Hessian eigenvalue nan below lam1"):
        prob.hessian(corr)


def test_regularization_shifts_the_hessian_centre(psi, monkeypatch):
    # beyond the cut-off reference a failed Newton solve is retried on
    # H + diag(tau |H_kk| + tau), an update of the stencil's centre coefficient
    from lowmach import fem

    real_pcg, seen = fem.pcg, []

    def first_solve_fails(a, b, cycle, tol=1e-10):
        seen.append(a)
        if len(seen) == 1:
            raise SolverError("non-positive curvature in CG", [1.0])
        return real_pcg(a, b, cycle, tol)

    monkeypatch.setattr(fem, "pcg", first_solve_fails)
    _, info = minimize(psi, None, _gas(0.25), make_cutoff(_gas(0.1), 0.65, 0.2))
    assert info.regularized
    assert info.gradient_norms[-1] <= info.relative_target * info.gradient_norms[0]
    h, shifted = (oracles.stencil_to_csr(a) for a in seen[:2])
    want = h + sp.diags(1e-6 * np.abs(h.diagonal()) + 1e-6)
    assert abs(shifted - want).max() == 0.0


def _failing_pcg(monkeypatch):
    from lowmach import fem

    calls = []

    def fail(a, b, cycle, tol=1e-10):
        calls.append(a)
        raise SolverError("non-positive curvature in CG", [1.0])

    monkeypatch.setattr(fem, "pcg", fail)
    return calls


def test_indefinite_hessian_below_reference_raises(psi, cut, monkeypatch):
    # at or below the cut-off reference every Hessian is SPD: a failed CG
    # solve is an error, never a regularized retry
    calls = _failing_pcg(monkeypatch)
    with pytest.raises(SolverError, match="Hessian lost positive definiteness "
                       "below the cut-off reference epsilon"):
        minimize(psi, None, _gas(0.2), cut)
    assert len(calls) == 1


def test_regularization_gives_up_past_tau_1e6(psi, monkeypatch):
    # beyond the reference the shift tau runs 0, 1e-6, 1e-5, ..., 1e6:
    # 14 attempts, then the step fails
    calls = _failing_pcg(monkeypatch)
    with pytest.raises(SolverError, match="Hessian regularization failed"):
        minimize(psi, None, _gas(0.25), make_cutoff(_gas(0.1), 0.65, 0.2))
    assert len(calls) == 14


def test_newton_quadratic_tail(mesh, psi, cut):
    rng = np.random.default_rng(31)
    x0 = 0.3 * rng.standard_normal(mesh.n_nodes)
    _, info = minimize(psi, None, _gas(0.4), cut, initial=x0)
    # keep the cleanly contracting phase (before any rounding floor)
    norms = [info.gradient_norms[0]]
    for n in info.gradient_norms[1:]:
        if n > 0.3 * norms[-1]:
            break
        norms.append(n)
    assert len(norms) >= 4
    r0, r1, r2 = np.log(norms[-3]), np.log(norms[-2]), np.log(norms[-1])
    assert (r2 - r1) <= 1.5 * (r1 - r0)  # log-reductions accelerate


def test_minimizer_unique_across_starts(mesh, psi, cut):
    gas = _gas(0.3)
    rng = np.random.default_rng(7)
    corr_a, _ = minimize(psi, None, gas, cut)
    corr_b, _ = minimize(psi, None, gas, cut,
                         initial=0.5 * rng.standard_normal(mesh.n_nodes))
    scale = max(1.0, np.max(np.abs(corr_a.values)))
    assert np.max(np.abs(corr_a.values - corr_b.values)) <= 1e-8 * scale


@pytest.mark.parametrize("eps", [0.05, 0.2, 0.4])
def test_forcing_keeps_newton_steps_and_minimizer(mesh, psi, cut, eps, monkeypatch):
    # the inexact-Newton forcing against every step solved to the floor
    from lowmach import compressible, fem

    corr, info = minimize(psi, None, _gas(eps), cut)
    real_pcg = fem.pcg
    monkeypatch.setattr(fem, "pcg", lambda a, b, cycle, tol:
                        real_pcg(a, b, cycle, compressible._LIN_TOL))
    corr_tight, info_tight = minimize(psi, None, _gas(eps), cut)
    assert info.iterations == info_tight.iterations
    assert sum(info.cg_iterations) < sum(info_tight.cg_iterations)
    scale = max(1.0, np.max(np.abs(corr_tight.values)))
    assert np.max(np.abs(corr.values - corr_tight.values)) <= 1e-8 * scale


@pytest.fixture
def built_cycles(monkeypatch):
    # the matrix of every fem.VCycle built while the test runs
    from lowmach import fem

    built = []

    class Counted(fem.VCycle):
        def __init__(self, grid, a):
            built.append(a)
            super().__init__(grid, a)

    monkeypatch.setattr(fem, "VCycle", Counted)
    return built


@pytest.mark.parametrize("eps", [0.2, 0.45, 0.5])
def test_one_laplacian_cycle_serves_every_newton_step(psi, cut, eps, built_cycles,
                                                      monkeypatch):
    # up to the cut-off reference the mesh's cycle is the only one: no solve
    # builds its own; beyond it every Newton step builds its Hessian's
    cycle = psi.mesh.laplacian_cycle
    built_cycles.clear()
    corr, info = minimize(psi, None, _gas(eps), cut)
    beyond = eps > cut.eps_ref
    assert len(built_cycles) == (info.iterations if beyond else 0)
    assert psi.mesh.laplacian_cycle is cycle
    if not beyond:
        monkeypatch.undo()
        corr_own, _ = minimize(psi, None, _gas(eps), cut)
        assert corr_own.values.tobytes() == corr.values.tobytes()


def test_mesh_builds_one_laplacian_cycle(cut, built_cycles):
    # the base flow and every Newton solve up to the cut-off reference share
    # the cycle the mesh holds
    mesh = build_mesh(ObstacleShape("sphere", 1.0), 20.0, 16, 16, grading=1.15)
    psi = solve_incompressible(mesh, 1.0)
    for eps in (0.2, 0.1):
        _, info = minimize(psi, None, _gas(eps), cut)
        assert info.gradient_norms[-1] <= info.relative_target * info.gradient_norms[0]
    assert len(built_cycles) == 1
    assert mesh.laplacian_cycle is mesh.laplacian_cycle


def test_minimizer_optimality_and_el_residual(mesh, psi, cut):
    gas = _gas(0.2)
    corr, info = minimize(psi, None, gas, cut)
    prob = DifferenceProblem(psi, None, gas, cut)
    val = prob.functional(corr.values)
    assert val <= 1e-12
    g = prob.gradient(corr.values)
    free = np.setdiff1d(np.arange(mesh.n_nodes), mesh.sigma_nodes)
    # weak residual of the truncated potential equation, rescaled
    assert gas.epsilon**2 * np.linalg.norm(g[free]) < 1e-9


def test_convexity_inequality(mesh, psi, cut):
    import lowmach.fem as fem

    gas = _gas(0.3)
    prob = DifferenceProblem(psi, None, gas, cut)
    w = mesh.qweights
    rng = np.random.default_rng(101)
    for _ in range(100):
        a = 0.4 * rng.standard_normal(mesh.n_nodes)
        b = 0.4 * rng.standard_normal(mesh.n_nodes)
        gap = prob.functional(a) + prob.functional(b) \
            - 2.0 * prob.functional((a + b) / 2.0)
        g = fem.grad_at_qpts(mesh, a - b)
        vnorm2 = float(np.sum(w * np.sum(g * g, axis=-1)))
        assert gap >= 0.5 * cut.lam1 * vnorm2 - 1e-10 * max(1.0, abs(gap))


def test_coercivity_inequality(mesh, psi, cut):
    import lowmach.fem as fem

    gas = _gas(0.3)
    prob = DifferenceProblem(psi, None, gas, cut)
    w = mesh.qweights
    base = velocity_at_qpts(psi, gas.q_inf)
    base_sq = np.sum(base**2, axis=-1)
    base_term = density_departure(base_sq, 0.0, gas, cut)[..., None] * base
    c_data = float(np.sum(w * np.sum(base_term**2, axis=-1))) / cut.lam1
    rng = np.random.default_rng(55)
    for _ in range(100):
        x = rng.uniform(0.1, 2.0) * rng.standard_normal(mesh.n_nodes)
        val = prob.functional(x)
        g = fem.grad_at_qpts(mesh, x)
        vnorm2 = float(np.sum(w * np.sum(g * g, axis=-1)))
        assert val >= 0.5 * cut.lam1 * vnorm2 - c_data


def test_flow_state_invariants(mesh, psi, cut):
    for eps in (0.3, 0.1, 0.03):
        gas = _gas(eps)
        corr, _ = minimize(psi, None, gas, cut)
        state = flow_state(corr, psi, gas, None, cut)
        assert not state.truncated_regime
        assert state.cutoff_margin > 0.0
        assert state.norms["mach_max"] < 1.0
        # departure bounded uniformly: |rho - 1| = O(eps^2)
        assert state.norms["rho_diff_inf"] / eps**2 < 2.0
        # Mach closure identity at rho ~ 1
        u = oracles.pointwise_state(state)[1]
        m_expect = eps * np.linalg.norm(u, axis=-1).max() / np.sqrt(1.4)
        assert state.norms["mach_max"] == pytest.approx(m_expect, rel=0.05)


def test_cutoff_margin_shrinks_with_eps(mesh, psi, cut):
    margins = []
    for eps in (0.05, 0.2, 0.4):
        gas = _gas(eps)
        corr, _ = minimize(psi, None, gas, cut)
        state = flow_state(corr, psi, gas, None, cut)
        assert state.cutoff_margin > 0.0
        margins.append(state.cutoff_margin)
    assert margins[0] > margins[1] > margins[2]


def test_forced_saturation_not_removed(mesh, psi):
    # artificially large eps with a small Mach threshold: the whole flow sits
    # in the saturated branch and the cut-off cannot be removed
    gas = _gas(5.0)
    wide = make_cutoff(GasModel(1.4, 0.9, 1.0), 0.1, 0.9)
    corr, info = minimize(psi, None, gas, wide)
    state = flow_state(corr, psi, gas, None, wide)
    assert state.cutoff_margin < 0.0       # not removed
    assert state.truncated_regime
    # beyond the reference: a real run through the regularized, damped path
    assert info.regularized
    assert info.gradient_norms[-1] <= info.relative_target * info.gradient_norms[0]
    assert min(info.step_sizes) < 1.0


@pytest.mark.parametrize("gas, named", [
    (GasModel(3.0, 0.3, 1.0), "gamma = 1.4, but the gas has gamma = 3.0"),
    (GasModel(1.4, 0.3, 1.5), "q_inf = 1.0, but the gas has q_inf = 1.5"),
], ids=["gamma", "q_inf"])
def test_cutoff_built_for_another_gas_rejected(psi, cut, gas, named):
    # the thresholds read gamma and q_inf from the cut-off; epsilon may differ
    with pytest.raises(ConfigError, match=named):
        minimize(psi, None, gas, cut)
    corr, _ = minimize(psi, None, _gas(0.3), cut)
    with pytest.raises(ConfigError, match=named):
        flow_state(corr, psi, gas, None, cut)


def test_mass_flux_station_independent(mesh, psi, cut):
    gas = _gas(0.2)
    corr, _ = minimize(psi, None, gas, cut)
    state = flow_state(corr, psi, gas, None, cut)
    fluxes = [station_mass_flux(state, s) for s in (4, 10, 18)]
    scale = 4.0 * np.pi * 1.0  # rho q_inf a^2 reference flux scale
    for fx in fluxes:
        assert abs(fx - fluxes[0]) <= 1e-6 * scale


def test_dp_gap_scales_quadratically(mesh, psi, cut):
    gaps = {}
    for eps in (0.2, 0.1):
        gas = _gas(eps)
        corr, _ = minimize(psi, None, gas, cut)
        state = flow_state(corr, psi, gas, None, cut)
        gaps[eps] = state.dp_gap
    for name in gaps[0.2]:
        assert gaps[0.2][name] != 0.0
        ratio = abs(gaps[0.2][name]) / abs(gaps[0.1][name])
        assert ratio == pytest.approx(4.0, rel=0.25)


def _assert_dp_gap_matches_tensor_oracle(psi, force, cut, eps, monkeypatch):
    def no_projection(*args, **kwargs):
        raise AssertionError("flow_state projected onto the nodes")

    monkeypatch.setattr("lowmach.fem.project_to_nodes", no_projection)
    gas = _gas(eps)
    corr, _ = minimize(psi, force, gas, cut)
    state = flow_state(corr, psi, gas, force, cut)
    assert not hasattr(state, "pressure_grad")
    ref = oracles.weak_dp_gaps_tensor(state, force)
    assert sorted(state.dp_gap) == ["aligned", "quadrupole", "radial"]
    for name, val in ref.items():
        assert val != 0.0
        assert state.dp_gap[name] == pytest.approx(val, rel=1e-12, abs=0.0)


def test_dp_gap_matches_tensor_oracle(psi, force_and_cut, monkeypatch):
    # scalar-product pairing against the (M, Q, 2, 2) tensor form; the
    # point-mass case carries the force term departure * grad(phi_f) . w
    force, cut = force_and_cut
    _assert_dp_gap_matches_tensor_oracle(psi, force, cut, 0.1, monkeypatch)


def test_dp_gap_matches_tensor_oracle_planar_disk(cut, monkeypatch):
    disk = build_mesh(ObstacleShape("disk", 1.0), 20.0, 24, 24, grading=1.3,
                      mode="planar-2d")
    _assert_dp_gap_matches_tensor_oracle(solve_incompressible(disk, 1.0), None,
                                         cut, 0.05, monkeypatch)


def test_flow_state_temporaries_are_bounded(cut):
    # the pressure gaps pair scalar fields only, and every per-point field
    # lives one block at a time: a flow state allocates about 17 (M, Q)
    # arrays and keeps none
    mesh = build_mesh(ObstacleShape("sphere", 1.0), 20.0, 48, 48)
    psi = solve_incompressible(mesh, 1.0)
    gas = _gas(0.1)
    corr, _ = minimize(psi, None, gas, cut)
    units = oracles.traced_units(mesh, lambda: flow_state(corr, psi, gas, None, cut))
    assert units <= 19.5


def test_bernoulli_residual_pointwise(mesh, psi, cut):
    from lowmach.gas import enthalpy

    gas = _gas(0.25)
    corr, _ = minimize(psi, None, gas, cut)
    state = flow_state(corr, psi, gas, None, cut)
    _, u, rho, _ = oracles.pointwise_state(state)
    lam = np.sum(u * u, axis=-1)
    res = gas.epsilon**2 * (lam - gas.q_inf**2) / 2.0 + enthalpy(rho, gas)
    assert np.max(np.abs(res)) < 1e-10
