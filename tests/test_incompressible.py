"""Incompressible solver vs the analytic sphere solution and its invariants."""

import numpy as np
import pytest

import oracles
from lowmach import (
    ObstacleShape,
    analytic_sphere_reference,
    build_mesh,
    solve_incompressible,
)
from lowmach.errors import DomainError
from lowmach.fem import assemble_matrix, boundary_component_load
from lowmach.incompressible import (
    surface_speeds,
    velocity_at_points,
    velocity_at_qpts,
    weak_slip_residual,
)


@pytest.fixture(scope="module")
def mesh():
    return build_mesh(ObstacleShape("sphere", 1.0), 20.0, 48, 48, grading=1.15)


@pytest.fixture(scope="module")
def psi(mesh):
    return solve_incompressible(mesh, 1.0)


def test_solver_residual(psi):
    assert psi.meta["residual"] <= 1e-10


def test_max_surface_speed(psi):
    # analytic tangential maximum is 1.5 q_inf at the equator
    speeds = surface_speeds(psi, 1.0)
    assert speeds.max() == pytest.approx(1.5, abs=0.02)


def test_stagnation_point_speed(psi):
    for p in ([1.0, 0.0], [-1.0, 0.0]):
        u = velocity_at_points(psi, 1.0, np.array(p))
        assert np.linalg.norm(u) < 0.05


def test_far_field_recovers_stream(psi):
    rng = np.random.default_rng(11)
    th = rng.uniform(0.1, np.pi - 0.1, 24)
    r = 0.9 * 20.0
    pts = np.stack([r * np.cos(th), r * np.sin(th)], axis=1)
    u = velocity_at_points(psi, 1.0, pts)
    assert np.max(np.linalg.norm(u - [1.0, 0.0], axis=1)) < 0.01


def test_velocity_vs_analytic_sphere(psi):
    rng = np.random.default_rng(5)
    r = rng.uniform(1.2, 10.0, 50)
    th = rng.uniform(0.1, np.pi - 0.1, 50)
    pts2 = np.stack([r * np.cos(th), r * np.sin(th)], axis=1)
    pts3 = np.stack([pts2[:, 0], pts2[:, 1], np.zeros(50)], axis=1)
    _, u_exact = analytic_sphere_reference(1.0, 1.0, pts3)
    u_num = velocity_at_points(psi, 1.0, pts2)
    err = np.linalg.norm(u_num - u_exact[:, :2], axis=1)
    assert np.max(err) < 0.02


def test_zero_stream_is_trivial(mesh):
    psi0 = solve_incompressible(mesh, 0.0)
    assert np.allclose(psi0.values, 0.0, atol=1e-14)
    u = velocity_at_qpts(psi0, 0.0)
    assert np.allclose(u, 0.0, atol=1e-14)


def test_linearity_in_stream(mesh, psi):
    psi2 = solve_incompressible(mesh, 2.0)
    assert np.allclose(psi2.values, 2.0 * psi.values, rtol=1e-9, atol=1e-12)


def test_weak_slip_flux(psi):
    per_node, total = weak_slip_residual(psi, 1.0)
    b = boundary_component_load(psi.mesh, "gamma")
    scale = np.linalg.norm(b)
    assert np.max(np.abs(per_node)) <= 1e-8 * max(scale, 1.0)
    assert abs(total) <= 1e-8


def test_reflection_parity(psi):
    # u1 even, ur odd under x1 -> -x1
    rng = np.random.default_rng(2)
    r = rng.uniform(1.2, 15.0, 30)
    th = rng.uniform(0.1, np.pi / 2.0 - 0.05, 30)
    pts = np.stack([r * np.cos(th), r * np.sin(th)], axis=1)
    mirror = pts.copy()
    mirror[:, 0] *= -1.0
    u = velocity_at_points(psi, 1.0, pts)
    um = velocity_at_points(psi, 1.0, mirror)
    assert np.allclose(u[:, 0], um[:, 0], atol=1e-8)
    assert np.allclose(u[:, 1], -um[:, 1], atol=1e-8)


def test_energy_bound_stability(mesh, psi):
    # discrete int |grad psi|^2 approximates the analytic dipole energy
    # 2 pi /3 and moves < 1% under refinement and r_far doubling
    def energy(field):
        g = field.grad_at_qpts()
        return float(np.sum(field.mesh.qweights * np.sum(g * g, axis=-1)))

    e0 = energy(psi)
    assert e0 == pytest.approx(2.0 * np.pi / 3.0, rel=0.02)
    mesh_r = build_mesh(ObstacleShape("sphere", 1.0), 40.0, 48, 48, grading=1.15)
    e_r = energy(solve_incompressible(mesh_r, 1.0))
    assert abs(e_r - e0) < 0.01 * e0
    mesh_f = build_mesh(ObstacleShape("sphere", 1.0), 20.0, 72, 72,
                        grading=1.15 ** (48.0 / 72.0))
    e_f = energy(solve_incompressible(mesh_f, 1.0))
    assert abs(e_f - e0) < 0.01 * e0


def test_decay_bound_along_ray(psi):
    # (1 + r)^{n/2} |grad psi| stays bounded along rays (true decay is r^-3)
    radii = np.geomspace(2.0, 16.0, 16)
    pts = np.stack([radii, radii, np.zeros(16)], axis=1)[:, :2] / np.sqrt(2.0)
    pts = np.stack([radii * np.cos(0.7), radii * np.sin(0.7)], axis=1)
    g = psi.mesh.evaluate_gradient(psi.values, pts)
    vals = (1.0 + radii) ** 1.5 * np.linalg.norm(g, axis=1)
    assert np.all(vals[1:] <= 1.05 * vals[:-1])
    assert np.max(vals) <= 1.1 * vals[0]


def test_discrete_maximum_principle(psi):
    mesh = psi.mesh
    boundary = np.union1d(mesh.gamma_nodes, mesh.sigma_nodes)
    interior = np.setdiff1d(np.arange(mesh.n_nodes), boundary)
    scale = np.max(np.abs(psi.values))
    assert psi.values[interior].max() <= psi.values[boundary].max() + 1e-8 * scale
    assert psi.values[interior].min() >= psi.values[boundary].min() - 1e-8 * scale


def test_neumann_far_field_close_to_dirichlet(mesh, psi):
    psi_n = solve_incompressible(mesh, 1.0, far_field="neumann")
    # gauge: compare gradients, not values
    gd = psi.grad_at_qpts()
    gn = psi_n.grad_at_qpts()
    diff = np.sqrt(np.sum(mesh.qweights * np.sum((gd - gn) ** 2, -1)))
    assert diff < 0.05


def test_analytic_references():
    phi, u = analytic_sphere_reference(1.0, 1.0, np.array([0.0, 1.0, 0.0]))
    assert np.linalg.norm(u) == pytest.approx(1.5, rel=1e-14)
    _, u0 = analytic_sphere_reference(1.0, 1.0, np.array([1.0, 0.0, 0.0]))
    assert np.allclose(u0, 0.0, atol=1e-14)
    _, uf = analytic_sphere_reference(1.0, 1.0, np.array([1e6, 0.0, 0.0]))
    assert np.allclose(uf, [1.0, 0.0, 0.0], atol=1e-12)
    with pytest.raises(DomainError):
        analytic_sphere_reference(1.0, 1.0, np.array([0.1, 0.0, 0.0]))
    _, ud = oracles.analytic_disk_reference(1.0, 1.0, np.array([0.0, 1.0]))
    assert np.linalg.norm(ud) == pytest.approx(2.0, rel=1e-14)


def test_assembly_deterministic(mesh):
    a1 = assemble_matrix(mesh, lambda cells: (1.0, None, None))
    a2 = assemble_matrix(mesh, lambda cells: (1.0, None, None))
    assert a1.tobytes() == a2.tobytes()
    c1, c2 = oracles.stencil_to_csr(a1), oracles.stencil_to_csr(a2)
    assert np.array_equal(c1.data, c2.data)
    assert np.array_equal(c1.indices, c2.indices)
