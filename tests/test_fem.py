"""Finite-element kernels against the einsum oracles, and the linear solver."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oracles
from lowmach import (
    GasModel,
    ObstacleShape,
    build_mesh,
    make_cutoff,
    solve_incompressible,
)
from lowmach.compressible import DifferenceProblem
from lowmach.errors import SolverError
from lowmach.fem import (
    _OMEGA,
    Multigrid,
    Operator,
    VCycle,
    _line_solver,
    assemble_mass,
    assemble_matrix,
    assemble_vector_load,
    boundary_component_load,
    grad_at_qpts,
    pcg,
)
from lowmach.geometry import refined

RTOL = 1e-13


@pytest.fixture(scope="module", params=["axisymmetric-3d", "planar-2d"])
def mesh(request):
    # planar meshes wrap periodically in theta (the last cell column shares
    # its nodes with the first); axisymmetric meshes do not
    kind = "sphere" if request.param == "axisymmetric-3d" else "disk"
    return build_mesh(ObstacleShape(kind, 1.0), 12.0, 10, 14, grading=1.2,
                      mode=request.param)


def _rel_err(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


def _rank_one(sym):
    """(c, d, v) with c I - d v v^T equal to the symmetric 2x2 matrices sym:
    c the larger eigenvalue, v a unit eigenvector of the smaller."""
    lam, vec = np.linalg.eigh(sym)
    return lam[..., 1], lam[..., 1] - lam[..., 0], vec[..., 0]


def _coefficients(mesh):
    # per kind: the arguments of assemble_matrix after the mesh, and the
    # coefficient (scalar or 2x2 matrix) the einsum oracle takes
    rng = np.random.default_rng(7)
    iso = rng.uniform(0.5, 2.0, mesh.qweights.shape)
    a = rng.standard_normal(mesh.qweights.shape + (2, 2))
    sym = a + np.swapaxes(a, -1, -2)
    c, d = rng.uniform(-2.0, 2.0, (2,) + mesh.qweights.shape)
    v = rng.standard_normal(mesh.qpts.shape)
    outer = v[..., :, None] * v[..., None, :]
    return {"isotropic": ((iso,), iso), "matrix": (_rank_one(sym), sym),
            "rank_one": ((c, d, v), c[..., None, None] * np.eye(2)
                         - d[..., None, None] * outer)}


def test_basis_gradients_are_cell_major(mesh):
    m, q = mesh.qweights.shape
    assert mesh.bgrads.shape == (m, 4, q, 2)
    assert mesh.bgrads.flags.c_contiguous


def test_grad_at_qpts_matches_oracle(mesh):
    nodal = np.random.default_rng(1).standard_normal(mesh.n_nodes)
    got = grad_at_qpts(mesh, nodal)
    assert got.shape == mesh.qpts.shape
    assert _rel_err(got, oracles.grad_at_qpts(mesh, nodal)) <= RTOL


def test_assemble_vector_load_matches_oracle(mesh):
    vec = np.random.default_rng(2).standard_normal(mesh.qpts.shape)
    got = assemble_vector_load(mesh, vec)
    assert _rel_err(got, oracles.assemble_vector_load(mesh, vec)) <= RTOL


@pytest.mark.parametrize("kind", ["isotropic", "matrix", "rank_one"])
def test_assemble_matrix_matches_oracle_and_is_symmetric(mesh, kind):
    args, coeff = _coefficients(mesh)[kind]
    got = oracles.stencil_to_csr(assemble_matrix(mesh, *args))
    want = oracles.assemble_matrix(mesh, coeff)
    scale = np.max(np.abs(want.data))
    assert got.shape == want.shape == (mesh.n_nodes, mesh.n_nodes)
    assert abs(got - want).max() <= RTOL * scale
    assert abs(got - got.T).max() <= RTOL * scale


# ----------------------------------------------------------------------
# Multigrid-preconditioned conjugate gradient
# ----------------------------------------------------------------------

SOLVE_TOL = 1e-12


def _sphere(n_r, n_t, grading=1.15):
    return build_mesh(ObstacleShape("sphere", 1.0), 20.0, n_r, n_t, grading=grading)


def _disk(n_r, n_t, grading=1.15):
    return build_mesh(ObstacleShape("disk", 1.0), 20.0, n_r, n_t, grading=grading,
                      mode="planar-2d")


def _free_block(a, b, fixed):
    # the system on the free nodes alone, for the dense and one-level solvers
    free = np.setdiff1d(np.arange(b.shape[0]), fixed)
    return oracles.stencil_to_csr(a)[free][:, free].tocsr(), b[free], free


def _laplacian(mesh):
    a = assemble_matrix(mesh, np.ones_like(mesh.qweights))
    return a, -boundary_component_load(mesh, "gamma", component=0)


def _newton_hessian(mesh, eps=0.1):
    # the first Newton system of the difference functional
    gas = GasModel(1.4, eps, 1.0)
    prob = DifferenceProblem(solve_incompressible(mesh, 1.0), None, gas,
                             make_cutoff(gas, 0.65, 0.45))
    zero = np.zeros(mesh.n_nodes)
    return prob.hessian(zero), -prob.gradient(zero)


# (mesh, fixed nodes, matrix) per case; "mass" is the all-free L2 projection
SOLVER_CASES = {
    "axisym-dirichlet": (lambda: _sphere(40, 40), "sigma", "laplacian"),
    "neumann-far-field": (lambda: _sphere(40, 40), "pin", "laplacian"),
    "planar-periodic": (lambda: _disk(40, 40), "sigma", "laplacian"),
    "odd-23x17": (lambda: _sphere(23, 17), "sigma", "laplacian"),
    "odd-23x17-periodic": (lambda: _disk(23, 17), "pin", "laplacian"),
    "mass-all-free": (lambda: _sphere(40, 40), "none", "mass"),
}


def _system(name):
    make_mesh, fixed_kind, matrix = SOLVER_CASES[name]
    mesh = make_mesh()
    fixed = {"sigma": mesh.sigma_nodes, "pin": mesh.sigma_nodes[:1],
             "none": np.array([], dtype=np.int64)}[fixed_kind]
    if matrix == "mass":
        a = assemble_mass(mesh)
        b = np.random.default_rng(5).standard_normal(mesh.n_nodes)
    else:
        a, b = _laplacian(mesh)
    return mesh, fixed, a, b


@pytest.fixture(scope="module", params=sorted(SOLVER_CASES))
def system(request):
    return _system(request.param)


def test_solution_matches_dense_solve(system):
    mesh, fixed, a, b = system
    grid = Multigrid(mesh, fixed)
    assert len(grid.transfers) >= 1           # the cycle really coarsens
    x, history = pcg(a, b, grid, tol=SOLVE_TOL)
    a_ff, b_f, free = _free_block(a, b, fixed)
    dense = np.zeros(mesh.n_nodes)
    dense[free] = np.linalg.solve(a_ff.toarray(), b_f)
    assert history[-1] <= SOLVE_TOL and len(history) - 1 <= 30
    assert np.max(np.abs(x - dense)) <= 1e-10 * np.max(np.abs(dense))
    x_jacobi, _ = oracles.jacobi_pcg(a_ff, b_f, tol=SOLVE_TOL)
    assert np.max(np.abs(x[free] - x_jacobi)) <= 1e-10 * np.max(np.abs(dense))


@pytest.mark.parametrize(
    "name", sorted(k for k, case in SOLVER_CASES.items() if case[1] != "none"))
def test_fixed_nodes_are_identity_rows(name):
    mesh, fixed, a, b = _system(name)
    grid = Multigrid(mesh, fixed)
    x, history = pcg(a, b, grid, tol=SOLVE_TOL)
    assert np.all(x[fixed] == 0.0)
    # whatever finite values are stored for the fixed nodes, nothing changes
    rng = np.random.default_rng(13)
    on_fixed = _couplings_of(mesh, fixed)
    a_junk, b_junk = a.copy(), b.copy()
    a_junk[on_fixed] = rng.uniform(-1e3, 1e3, np.count_nonzero(on_fixed))
    b_junk[fixed] = rng.uniform(-1e3, 1e3, fixed.size)
    x_junk, history_junk = pcg(a_junk, b_junk, grid, tol=SOLVE_TOL)
    assert x_junk.tobytes() == x.tobytes()
    assert history_junk == history


def test_vcycle_is_symmetric_positive_definite(system):
    mesh, fixed, a, _ = system
    rng = np.random.default_rng(11)
    if fixed.size:
        # an anisotropic SPD coefficient, as in a Newton Hessian (with no
        # node fixed the stiffness matrix is singular: keep the mass matrix)
        m = rng.standard_normal(mesh.qweights.shape + (2, 2))
        coeff = m @ np.swapaxes(m, -1, -2) + 0.1 * np.eye(2)
        a = assemble_matrix(mesh, *_rank_one(coeff))
    apply = VCycle(Multigrid(mesh, fixed), a)
    r1, r2 = rng.standard_normal((2, mesh.n_nodes))
    z1, z2 = apply(r1), apply(r2)
    assert abs(z1 @ r2 - z2 @ r1) <= 1e-12 * np.linalg.norm(z1) * np.linalg.norm(r2)
    assert z1 @ r1 > 0.0 and z2 @ r2 > 0.0


@pytest.fixture(scope="module")
def sphere_family():
    # geometry.refined family: each level doubles n and square-roots the grading
    coarse = _sphere(24, 24, grading=1.15**2)
    return [coarse, refined(coarse), refined(refined(coarse))]


@pytest.mark.parametrize("matrix", ["laplacian", "newton_hessian"])
def test_iterations_are_mesh_independent(sphere_family, matrix):
    counts, jacobi_counts = [], []
    for mesh in sphere_family:
        a, b = _laplacian(mesh) if matrix == "laplacian" else _newton_hessian(mesh)
        _, history = pcg(a, b, Multigrid(mesh, mesh.sigma_nodes), tol=SOLVE_TOL)
        counts.append(len(history) - 1)
        a_ff, b_f, _ = _free_block(a, b, mesh.sigma_nodes)
        jacobi_counts.append(len(oracles.jacobi_pcg(a_ff, b_f, tol=SOLVE_TOL)[1]) - 1)
    assert max(counts) <= 30, counts
    # the family is one a one-level preconditioner cannot handle
    assert jacobi_counts[2] >= 3 * jacobi_counts[0], jacobi_counts


def test_indefinite_matrix_raises():
    mesh = _sphere(24, 24)
    a, b = _laplacian(mesh)
    grid = Multigrid(mesh, mesh.sigma_nodes)
    # a negative pivot on a radial line: the line factorization itself
    # raises, and so does building the cycle
    flipped = a.copy()
    flipped[1, 1].reshape(-1)[40] *= -0.01
    with pytest.raises(SolverError, match="non-positive curvature"):
        _line_solver(flipped)
    with pytest.raises(SolverError, match="non-positive curvature"):
        VCycle(grid, flipped)
    with pytest.raises(SolverError, match="non-positive curvature"):
        pcg(flipped, b, grid)
    # one negative eigenvalue: shifted between the two smallest
    lam = np.linalg.eigvalsh(_free_block(a, b, mesh.sigma_nodes)[0].toarray())[:2]
    shifted = a.copy()
    shifted[1, 1] -= 0.5 * (lam[0] + lam[1])
    with pytest.raises(SolverError, match="non-positive curvature"):
        pcg(shifted, b, grid)


def test_indefinite_matrix_raises_with_the_laplacian_cycle():
    # a prebuilt cycle has no pivot of the solved matrix to check: the
    # curvature test in CG must catch the flipped diagonal on its own
    mesh = _sphere(24, 24)
    a, b = _laplacian(mesh)
    cycle = VCycle(Multigrid(mesh, mesh.sigma_nodes), a)
    flipped = a.copy()
    flipped[1, 1].reshape(-1)[40] *= -0.01
    with pytest.raises(SolverError, match="non-positive curvature"):
        pcg(flipped, b, cycle)
    # the Laplacian itself solves as with a cycle built in the call
    x, history = pcg(a, b, cycle, tol=SOLVE_TOL)
    x_own, history_own = pcg(a, b, Multigrid(mesh, mesh.sigma_nodes), tol=SOLVE_TOL)
    assert x.tobytes() == x_own.tobytes() and history == history_own


def _couplings_of(mesh, nodes):
    # stencil entries in the rows of ``nodes`` or coupling to one of them
    n_i, n_j, _ = mesh.node_grid
    mark = np.zeros(mesh.n_nodes, dtype=bool)
    mark[nodes] = True
    mark = mark.reshape(n_i, n_j)
    out = np.zeros((3, 3, n_i, n_j), dtype=bool)
    for a in range(3):
        rows = np.arange(n_i) + a - 1
        inside = (rows >= 0) & (rows < n_i)
        for b in range(3):
            col = np.roll(mark, 1 - b, axis=1)[np.clip(rows, 0, n_i - 1)]
            out[a, b] = (mark | col) & inside[:, None]
    return out


STENCIL_CASES = ["axisym-dirichlet", "planar-periodic", "odd-23x17", "odd-23x17-periodic"]


@pytest.mark.parametrize("name", STENCIL_CASES)
def test_stencil_matvec_matches_csr(name):
    mesh, _, a, _ = _system(name)
    x = np.random.default_rng(3).standard_normal(mesh.n_nodes)
    want = oracles.stencil_to_csr(a) @ x
    assert np.max(np.abs(Operator(a)(x) - want)) <= RTOL * np.max(np.abs(want))


@pytest.mark.parametrize("name", STENCIL_CASES)
def test_coarse_stencils_match_galerkin_products(name):
    mesh, fixed, a, _ = _system(name)
    grid = Multigrid(mesh, fixed)
    ops = VCycle(grid, a).ops
    want, frees = oracles.galerkin_hierarchy(
        oracles.stencil_to_csr(a), grid.levels[0], mesh.node_grid[2], len(ops))
    for op, free, oracle, oracle_free in zip(ops, grid.levels, want, frees):
        assert np.array_equal(free, oracle_free)
        got = oracles.stencil_to_csr(op.stencil)
        assert abs(got - oracle).max() <= RTOL * abs(oracle).max()


@pytest.mark.parametrize("name", STENCIL_CASES)
def test_line_solve_matches_thomas_sweep(name):
    mesh, fixed, a, _ = _system(name)
    vcycle = VCycle(Multigrid(mesh, fixed), a)
    rng = np.random.default_rng(17)
    for op, smooth in zip(vcycle.ops, vcycle.smoothers):
        r = rng.standard_normal(op.stencil[0, 0].size)
        want = oracles.thomas_line_solve(op.stencil, r, _OMEGA)
        assert np.max(np.abs(smooth(r) - want)) <= 1e-14 * np.max(np.abs(want))


def _subprocess_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(__file__).resolve().parents[1] / "src"),
                    env.get("PYTHONPATH")) if p)
    return env


def test_no_dense_linear_algebra_module_is_loaded():
    # scipy costs about 0.2 s of start-up and 20 MB of peak RSS on every run
    code = (
        "import sys\n"
        "from lowmach import (GasModel, ObstacleShape, build_mesh, make_cutoff,\n"
        "                     minimize, solve_incompressible)\n"
        "from lowmach.fem import project_to_nodes\n"
        "mesh = build_mesh(ObstacleShape('sphere', 1.0), 20.0, 16, 16)\n"
        "psi = solve_incompressible(mesh, 1.0)\n"
        "project_to_nodes(mesh, mesh.qweights)\n"
        "gas = GasModel(1.4, 0.1, 1.0)\n"
        "minimize(psi, None, gas, make_cutoff(gas, 0.65, 0.45))\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=_subprocess_env(), check=True)
    assert out.stdout.strip() == "[]"


def test_cli_solves_with_scipy_unavailable(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"geometry": {"n_r": 12, "n_t": 12}}')
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from lowmach.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, "solve-compressible", "--config", str(cfg),
         "--out", str(tmp_path / "out"), "--epsilon", "0.1"],
        capture_output=True, text=True, env=_subprocess_env())
    assert out.returncode == 0, out.stderr
