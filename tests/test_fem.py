"""Finite-element kernels against the einsum oracles, and the linear solver."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

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
    _LINE_TAIL,
    FastLaplacian,
    Operator,
    StationCholesky,
    _identity_rows,
    _separable_factors,
    _tridiagonal_lines,
    assemble_mass,
    assemble_matrix,
    assemble_vector_load,
    boundary_component_load,
    free_mask,
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


def _blockwise(c, d=None, v=None):
    # assemble_matrix's function of a block of cells, from whole-mesh arrays
    return lambda cells: tuple(None if f is None else f[cells] for f in (c, d, v))


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
    got = assemble_vector_load(mesh, lambda cells: vec[cells])
    assert _rel_err(got, oracles.assemble_vector_load(mesh, vec)) <= RTOL


@pytest.mark.parametrize("kind, quad_order", [
    pytest.param(kind, order, id=kind if order == 3 else f"{kind}-q{order}")
    for order in (3, 2, 4) for kind in ("isotropic", "matrix", "rank_one")])
def test_assemble_matrix_matches_oracle_and_is_symmetric(mesh, kind, quad_order):
    # the reference table of the element blocks depends on the quadrature
    # rule; the fixture's is order 3
    if quad_order != mesh.quad_order:
        mesh = build_mesh(mesh.shape, mesh.r_far, mesh.n_r, mesh.n_t, grading=mesh.grading,
                          mode=mesh.mode, quad_order=quad_order)
    args, coeff = _coefficients(mesh)[kind]
    got = oracles.stencil_to_csr(assemble_matrix(mesh, _blockwise(*args)))
    want = oracles.assemble_matrix(mesh, coeff)
    scale = np.max(np.abs(want.data))
    assert got.shape == want.shape == (mesh.n_nodes, mesh.n_nodes)
    assert abs(got - want).max() <= RTOL * scale
    assert abs(got - got.T).max() <= RTOL * scale


def test_rank_one_assembly_temporaries_are_bounded():
    # the element blocks come from three (M, Q) forms, not from an
    # (M, 4, Q, 2) flux: a rank-one assembly allocates about 10 (M, Q)
    # arrays (19 with the flux), its stencil included
    mesh = build_mesh(ObstacleShape("sphere", 1.0), 20.0, 48, 48)
    args, _ = _coefficients(mesh)["rank_one"]
    assemble_matrix(mesh, _blockwise(*args))            # caches the mesh's scatter slots
    assert oracles.traced_units(mesh, lambda: assemble_matrix(mesh, _blockwise(*args))) <= 12.0


# ----------------------------------------------------------------------
# Exact block solves and the conjugate gradient
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
    a = assemble_matrix(mesh, lambda cells: (1.0, None, None))
    return a, -boundary_component_load(mesh, "gamma")


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
    x, history = pcg(a, b, StationCholesky(free_mask(mesh, fixed), a), tol=SOLVE_TOL)
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
    free = free_mask(mesh, fixed)
    x, history = pcg(a, b, StationCholesky(free, a), tol=SOLVE_TOL)
    assert np.all(x[fixed] == 0.0)
    # whatever finite values are stored for the fixed nodes, nothing changes
    rng = np.random.default_rng(13)
    on_fixed = _couplings_of(mesh, fixed)
    a_junk, b_junk = a.copy(), b.copy()
    a_junk[on_fixed] = rng.uniform(-1e3, 1e3, np.count_nonzero(on_fixed))
    b_junk[fixed] = rng.uniform(-1e3, 1e3, fixed.size)
    x_junk, history_junk = pcg(a_junk, b_junk, StationCholesky(free, a_junk), tol=SOLVE_TOL)
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
        a = assemble_matrix(mesh, _blockwise(*_rank_one(coeff)))
    apply = StationCholesky(free_mask(mesh, fixed), a)
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
        _, history = pcg(a, b, StationCholesky(free_mask(mesh, mesh.sigma_nodes), a),
                         tol=SOLVE_TOL)
        counts.append(len(history) - 1)
        a_ff, b_f, _ = _free_block(a, b, mesh.sigma_nodes)
        jacobi_counts.append(len(oracles.jacobi_pcg(a_ff, b_f, tol=SOLVE_TOL)[1]) - 1)
    assert max(counts) <= 30, counts
    # the family is one a one-level preconditioner cannot handle
    assert jacobi_counts[2] >= 3 * jacobi_counts[0], jacobi_counts


def test_indefinite_matrix_raises():
    mesh = _sphere(24, 24)
    a, b = _laplacian(mesh)
    free = free_mask(mesh, mesh.sigma_nodes)
    # a negative pivot on a radial line: the line factorization itself
    # raises, and so does building the solver
    flipped = a.copy()
    flipped[1, 1].reshape(-1)[40] *= -0.01
    with pytest.raises(SolverError, match="non-positive curvature"):
        _tridiagonal_lines(flipped[1, 1], flipped[2, 1, :-1])
    with pytest.raises(SolverError, match="non-positive curvature"):
        StationCholesky(free, flipped)
    with pytest.raises(SolverError, match="non-positive curvature"):
        pcg(flipped, b, StationCholesky(free, flipped))
    # one negative eigenvalue: shifted between the two smallest
    lam = np.linalg.eigvalsh(_free_block(a, b, mesh.sigma_nodes)[0].toarray())[:2]
    shifted = a.copy()
    shifted[1, 1] -= 0.5 * (lam[0] + lam[1])
    with pytest.raises(SolverError, match="non-positive curvature"):
        pcg(shifted, b, StationCholesky(free, shifted))


@pytest.mark.parametrize("fault", ["negative", "nan"])
@pytest.mark.parametrize("station", [5, 20], ids=["reduced", "tail"])
def test_line_definiteness_is_checked_on_both_sides_of_the_tail(station, fault):
    # 41 stations: one step of cyclic reduction eliminates the odd stations
    # (a fault at station 5 is a pivot of it), and the 21 even ones are
    # solved densely (a fault at station 20 reaches the tail's Cholesky
    # factor; the factor of a NaN line is NaN rather than an error)
    mesh = _sphere(40, 40)
    n_i, n_j, _ = mesh.node_grid
    assert (n_i + 1) // 2 <= _LINE_TAIL < n_i
    a, b = _laplacian(mesh)
    free = free_mask(mesh, mesh.sigma_nodes)
    broken = a.copy()
    centre = broken[1, 1].reshape(-1)
    centre[station * n_j + 10] = -0.01 * centre[station * n_j + 10] if fault == "negative" else np.nan
    with pytest.raises(SolverError, match="non-positive curvature"):
        _tridiagonal_lines(broken[1, 1], broken[2, 1, :-1])
    with pytest.raises(SolverError, match="non-positive curvature"):
        StationCholesky(free, broken)
    with pytest.raises(SolverError, match="non-positive curvature"):
        pcg(broken, b, StationCholesky(free, broken))


@pytest.mark.parametrize("where", ["rhs", "diagonal"])
def test_non_finite_system_raises_at_once(where):
    # a NaN residual norm or curvature compares false with everything, so
    # CG must test for it, not run into its iteration limit (12000 here)
    mesh = _sphere(24, 24)
    a, b = _laplacian(mesh)
    cycle = StationCholesky(free_mask(mesh, mesh.sigma_nodes), a)
    if where == "rhs":
        b[40] = np.nan
    else:
        a[1, 1].reshape(-1)[40] = np.nan
    with pytest.raises(SolverError, match="non-finite") as info:
        pcg(a, b, cycle)
    assert len(info.value.history) - 1 <= 2


def test_indefinite_matrix_raises_with_the_laplacian_cycle():
    # a prebuilt solver has no pivot of the solved matrix to check: the
    # curvature test in CG must catch the flipped diagonal on its own
    mesh = _sphere(24, 24)
    a, b = _laplacian(mesh)
    free = free_mask(mesh, mesh.sigma_nodes)
    cycle = StationCholesky(free, a)
    flipped = a.copy()
    flipped[1, 1].reshape(-1)[40] *= -0.01
    with pytest.raises(SolverError, match="non-positive curvature"):
        pcg(flipped, b, cycle)
    # the Laplacian itself solves as with a cycle built in the call
    x, history = pcg(a, b, cycle, tol=SOLVE_TOL)
    x_own, history_own = pcg(a, b, StationCholesky(free, a), tol=SOLVE_TOL)
    assert x.tobytes() == x_own.tobytes() and history == history_own


def _ellipse(n_r, n_t, grading=1.15):
    return build_mesh(ObstacleShape("ellipse", semi_axes=(1.5, 1.0)), 20.0, n_r, n_t,
                      grading=grading)


def _dense_free(s, nodes):
    # the dense block of a stencil on the node indices ``nodes``
    return oracles.stencil_to_csr(s)[nodes][:, nodes].toarray()


@pytest.mark.parametrize("make", [_sphere, _disk, _ellipse], ids=["sphere", "disk", "ellipse"])
def test_block_solver_raises_exactly_when_indefinite(make):
    # K - sigma M, M the mass matrix: past the smallest eigenvalue lambda_0
    # of (K, M) it has one negative eigenvalue, below it none, and the
    # pivots tell the two apart at 0.1% of lambda_0 (on the disk the angle
    # wraps around)
    mesh = make(24, 24)
    a, b = _laplacian(mesh)
    mass = assemble_mass(mesh)
    free = free_mask(mesh, mesh.sigma_nodes)
    nodes = np.flatnonzero(free)
    lam0 = scipy.linalg.eigh(_dense_free(a, nodes), _dense_free(mass, nodes),
                             eigvals_only=True, subset_by_index=[0, 0])[0]
    with pytest.raises(SolverError, match="non-positive curvature"):
        StationCholesky(free, a - 1.001 * lam0 * mass)
    shifted = a - 0.999 * lam0 * mass
    _, history = pcg(shifted, b, StationCholesky(free, shifted), tol=1e-10)
    assert len(history) - 1 == 1, history


def test_block_solver_raises_exactly_when_a_hessian_is_indefinite():
    # a Newton Hessian H far beyond the cut-off reference, on a saturated
    # cut-off, shifted as minimize regularizes it: H + tau (|diag H| + I).
    # Its smallest eigenvalue crosses zero at tau = -mu_0, mu_0 the smallest
    # eigenvalue of (H, |diag H| + I); the build raises exactly when the
    # dense free block has a negative eigenvalue
    mesh = _sphere(16, 16)
    gas = GasModel(1.4, 5.0, 1.0)
    wide = make_cutoff(GasModel(1.4, 0.9, 1.0), 0.1, 0.9)
    prob = DifferenceProblem(solve_incompressible(mesh, 1.0), None, gas, wide)
    h = prob.hessian(np.zeros(mesh.n_nodes))
    shift = np.zeros_like(h)
    shift[1, 1] = np.abs(h[1, 1]) + 1.0
    free = free_mask(mesh, mesh.sigma_nodes)
    nodes = np.flatnonzero(free)
    mu0 = scipy.linalg.eigh(_dense_free(h, nodes), _dense_free(shift, nodes),
                            eigvals_only=True, subset_by_index=[0, 0])[0]
    raised = []
    for tau in -mu0 * np.array([0.0, 0.5, 0.999, 1.001, 2.0]):
        hmat = h + tau * shift
        negative = np.linalg.eigvalsh(_dense_free(hmat, nodes))[0] < 0.0
        try:
            StationCholesky(free, hmat)
            raised.append(False)
        except SolverError:
            raised.append(True)
        assert raised[-1] == negative, tau
    assert raised == [True, True, True, False, False]


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
def test_line_solve_matches_thomas_sweep(name):
    mesh, fixed, a, _ = _system(name)
    a = _identity_rows(a, free_mask(mesh, fixed))
    r = np.random.default_rng(17).standard_normal(a[0, 0].size)
    want = oracles.thomas_line_solve(a, r, 1.0)
    got = _tridiagonal_lines(a[1, 1], a[2, 1, :-1])(r)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


# ----------------------------------------------------------------------
# Exact Laplacian solves by fast diagonalization
# ----------------------------------------------------------------------


def _tridiagonal(diag, off, wrap):
    # dense symmetric tridiagonal matrix; ``off`` couples each point to the
    # next, the last one to the first if ``wrap``
    n = diag.size
    m = np.diag(diag) + np.diag(off[:n - 1], 1) + np.diag(off[:n - 1], -1)
    if wrap:
        m[0, -1] = m[-1, 0] = off[-1]
    return m


@pytest.mark.parametrize("grading", [1.0, 1.15, 1.3])
@pytest.mark.parametrize("n", [24, 48, 96])
@pytest.mark.parametrize("make", [_sphere, _disk], ids=["sphere", "disk"])
def test_circle_laplacian_is_a_sum_of_two_kronecker_products(make, n, grading):
    # on the free stations K = A_1 (x) B_1 + A_2 (x) B_2 to 1e-10 of each
    # station's largest entry; the angular factors wrap around on a disk
    # (grading 1.0 is build_mesh's uniform branch)
    mesh = make(n, n, grading=grading)
    a, _ = _laplacian(mesh)
    n_i, n_j, periodic = mesh.node_grid
    (a_diag, a_off), (b_diag, b_off) = _separable_factors(a, np.arange(n_i) < n_i - 1)
    assert not periodic or np.all(b_off[:, -1] != 0.0)
    rebuilt = sum(sp.kron(_tridiagonal(a_diag[k, :-1], a_off[k, :-1], False),
                          _tridiagonal(b_diag[k], b_off[k], periodic))
                  for k in range(2))
    free = slice(0, (n_i - 1) * n_j)
    err = abs(oracles.stencil_to_csr(a)[free][:, free] - rebuilt).max(axis=1).toarray()
    station_max = np.abs(a).max(axis=(0, 1, 3))[:-1]
    assert np.all(err.reshape(n_i - 1, n_j).max(axis=1) <= 1e-10 * station_max)


@pytest.fixture(scope="module", params=["sphere", "disk"])
def circle_family(request):
    # geometry.refined family from 24^2: each level doubles n and
    # square-roots the grading
    coarse = (_sphere if request.param == "sphere" else _disk)(24, 24, grading=1.15**2)
    return [coarse, refined(coarse), refined(refined(coarse))]


def test_fast_laplacian_solves_exactly(circle_family):
    for mesh in circle_family:
        solver = mesh.laplacian_cycle
        assert isinstance(solver, FastLaplacian)
        free = solver.free.ravel()
        r = free * np.random.default_rng(mesh.n_r).standard_normal(mesh.n_nodes)
        x = solver(r)
        assert np.linalg.norm(solver.op(x) - r) <= 1e-10 * np.linalg.norm(r)
        # the far-field station gets zero, whatever the load holds there
        junk = r + (1.0 - free) * np.random.default_rng(1).standard_normal(mesh.n_nodes)
        assert np.array_equal(solver(junk), x)
        assert np.all(x[mesh.sigma_nodes] == 0.0)
        a, b = _laplacian(mesh)
        x, history = pcg(a, b, solver, tol=1e-10)
        assert len(history) - 1 == 1, history
        assert np.all(x[mesh.sigma_nodes] == 0.0)


def test_fast_laplacian_raises_exactly_when_indefinite():
    # -K: the coupling of the first station to itself is not positive
    # definite.  K - sigma M, M the mass matrix (separable on a circle mesh
    # too, with K's first angular factor): between the two smallest
    # eigenvalues of (K, M) it has one negative eigenvalue, below the
    # smallest none, and only the line pivots tell the two apart
    mesh = _sphere(24, 24)
    a, b = _laplacian(mesh)
    free = free_mask(mesh, mesh.sigma_nodes)
    with pytest.raises(SolverError, match="non-positive curvature"):
        FastLaplacian(free, -a)
    mass = assemble_mass(mesh)
    nodes = np.flatnonzero(free)
    lam = scipy.linalg.eigh(_dense_free(a, nodes), _dense_free(mass, nodes),
                            eigvals_only=True)[:2]
    with pytest.raises(SolverError, match="non-positive curvature"):
        FastLaplacian(free, a - 0.5 * (lam[0] + lam[1]) * mass)
    shifted = a - 0.5 * lam[0] * mass
    _, history = pcg(shifted, b, FastLaplacian(free, shifted), tol=1e-10)
    assert len(history) - 1 == 1, history


def test_fast_laplacian_rejects_what_it_cannot_solve():
    # a stencil that is not separable (one flipped entry), and a grid with
    # a node held at zero on a free station
    mesh = _sphere(24, 24)
    a, _ = _laplacian(mesh)
    flipped = a.copy()
    flipped[1, 1].reshape(-1)[40] *= -0.01
    with pytest.raises(SolverError, match="not a sum of two Kronecker products"):
        FastLaplacian(free_mask(mesh, mesh.sigma_nodes), flipped)
    with pytest.raises(ValueError, match="whole stations"):
        FastLaplacian(free_mask(mesh, mesh.sigma_nodes[:1]), a)


def test_ellipse_laplacian_gets_the_block_solver():
    # the ellipse's Laplacian is not separable: its solver is the block
    # factorization along the stations, and solves it in one iteration
    mesh = build_mesh(ObstacleShape("ellipse", semi_axes=(1.5, 1.0)), 20.0, 24, 24)
    assert type(mesh.laplacian_cycle) is StationCholesky
    a, b = _laplacian(mesh)
    with pytest.raises(SolverError, match="not a sum of two Kronecker products"):
        FastLaplacian(mesh.laplacian_cycle.free, a)
    _, history = pcg(a, b, mesh.laplacian_cycle, tol=1e-10)
    assert len(history) - 1 == 1, history


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
