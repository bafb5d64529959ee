"""Bilinear finite-element plumbing on the structured shell mesh.

The physical basis gradients are stored cell-major, ``mesh.bgrads`` of
shape (M, 4, Q, 2), so each cell's gradients form one (4, 2Q) matrix and the
gradient, load and stiffness kernels are batched matrix products over all
cells at once.  Element blocks are reduced through scipy.sparse's duplicate
summation (COO to CSR), which sorts indices before adding, so repeated runs
produce bitwise identical matrices.

The linear solver is a hand-rolled conjugate gradient, deterministic and
with a full residual history for error reports, preconditioned by one
geometric-multigrid V-cycle on the structured (station, angle) node grid:
linear interpolation between levels, Galerkin coarse operators, damped
block-Jacobi smoothing over radial lines (graded cells near the obstacle
are strongly anisotropic) and a dense solve on the coarsest level.  Its
iteration count does not grow with the mesh.  Every node of the grid stays
an equation: a node held at zero (the far-field station, or a pinned node)
is an identity row on every level, so callers pass the assembled matrix and
the nodal right-hand side as they are and get a nodal solution back.  Only
numpy and scipy.sparse are used: scipy.linalg and scipy.sparse.linalg are
not imported.
"""

import numpy as np
import scipy.sparse as sp

from .errors import SolverError

__all__ = [
    "grad_at_qpts",
    "assemble_matrix",
    "assemble_vector_load",
    "boundary_component_load",
    "project_to_nodes",
    "Multigrid",
    "VCycle",
    "pcg",
]


def _cell_grads(mesh):
    """Basis gradients as one (4, 2Q) matrix per cell: a view, (M, 4, 2Q)."""
    m, _, q, _ = mesh.bgrads.shape
    return mesh.bgrads.reshape(m, 4, 2 * q)


def grad_at_qpts(mesh, nodal):
    """Cell-wise gradient of a nodal field at quadrature points, (M, Q, 2)."""
    vals = np.asarray(nodal)[mesh.cells]                  # (M, 4)
    return (vals[:, None, :] @ _cell_grads(mesh)).reshape(mesh.qweights.shape + (2,))


def assemble_matrix(mesh, coeff):
    """Assemble sum_q w_q  grad(N_i)^T C grad(N_j) as a CSR matrix.

    coeff : (M, Q) scalars for an isotropic coefficient, or (M, Q, 2, 2)
        matrices.
    """
    c = np.asarray(coeff)
    w = mesh.qweights
    # w C as (M, 1, Q, 2, 2); an isotropic coefficient is c times the identity
    wc = ((w * c)[..., None, None] * np.eye(2) if c.ndim == 2
          else w[..., None, None] * c)[:, None]
    # flux_j = w C grad(N_j), (M, 4, Q, 2)
    bg = mesh.bgrads
    flux = bg[..., 0:1] * wc[..., 0]
    flux += bg[..., 1:2] * wc[..., 1]
    flux = flux.reshape(bg.shape[0], 4, -1)
    blocks = _cell_grads(mesh) @ flux.transpose(0, 2, 1)    # (M, 4, 4)
    rows = np.repeat(mesh.cells, 4, axis=1).ravel()
    cols = np.tile(mesh.cells, (1, 4)).ravel()
    n = mesh.n_nodes
    a = sp.coo_matrix((blocks.ravel(), (rows, cols)), shape=(n, n))
    return a.tocsr()


def assemble_vector_load(mesh, vec_at_qpts):
    """Nodal vector b_k = sum_q w_q  v(q) . grad(N_k)."""
    wv = np.asarray(vec_at_qpts) * mesh.qweights[..., None]      # (M, Q, 2)
    contrib = _cell_grads(mesh) @ wv.reshape(wv.shape[0], -1, 1)   # (M, 4, 1)
    out = np.zeros(mesh.n_nodes)
    np.add.at(out, mesh.cells.ravel(), contrib.ravel())
    return out


def boundary_component_load(mesh, tag, component=0):
    """Nodal vector of the facet integral of n_component * N_k over a tag."""
    fs = mesh.facets[tag]
    contrib = np.einsum("fq,fqc,fq->fc", fs.normals[..., component], fs.basis, fs.weights)
    out = np.zeros(mesh.n_nodes)
    cells = mesh.cells[fs.cells]
    np.add.at(out, cells.ravel(), contrib.ravel())
    return out


def assemble_mass(mesh):
    """Mass matrix sum_q w_q N_i N_j (carries the axisymmetric weight)."""
    blocks = np.einsum("qi,qj,mq->mij", mesh.basis, mesh.basis, mesh.qweights)
    rows = np.repeat(mesh.cells, 4, axis=1).ravel()
    cols = np.tile(mesh.cells, (1, 4)).ravel()
    n = mesh.n_nodes
    return sp.coo_matrix((blocks.ravel(), (rows, cols)), shape=(n, n)).tocsr()


def project_to_nodes(mesh, qpt_values):
    """Consistent L2 projection of quadrature-point values onto the nodal space.

    A mass-matrix solve, so any function already in the space is reproduced
    exactly.
    """
    num = np.zeros(mesh.n_nodes)
    w = mesh.qweights[..., None] * mesh.basis[None, ...]   # (M, Q, 4)
    np.add.at(num, mesh.cells.ravel(),
              (w * np.asarray(qpt_values)[..., None]).sum(axis=1).ravel())
    m = assemble_mass(mesh)
    x, _ = pcg(m, num, Multigrid(mesh), tol=1e-13)
    return x


# ----------------------------------------------------------------------
# Multigrid-preconditioned conjugate gradient
# ----------------------------------------------------------------------

# Damping of the radial-line Jacobi smoother.
_OMEGA = 0.8
# Grids of at most this many nodes are solved densely.
_COARSEST = 200


def _interp_1d(n, periodic):
    """Linear interpolation onto n points from every other one.

    The coarse points are the even indices, plus the last one unless the
    line is periodic (then the last point interpolates across the wrap).  A
    line of three points or fewer is kept as it is.  Returns the (n, n_c)
    CSR matrix and the fine indices of the coarse points.
    """
    if n <= 3:
        return sp.identity(n, format="csr"), np.arange(n)
    coarse = np.arange(0, n, 2)
    if not periodic and coarse[-1] != n - 1:
        coarse = np.append(coarse, n - 1)
    pos = np.full(n, -1)
    pos[coarse] = np.arange(coarse.size)
    odd = np.flatnonzero(pos < 0)
    rows = np.concatenate([coarse, odd, odd])
    cols = np.concatenate([pos[coarse], pos[odd - 1], pos[(odd + 1) % n]])
    vals = np.concatenate([np.ones(coarse.size), np.full(2 * odd.size, 0.5)])
    return sp.csr_matrix((vals, (rows, cols)), shape=(n, coarse.size)), coarse


def _zeroed(a, rows, cols):
    """``a`` in CSR form with its stored entries in the rows where ``rows`` is
    0 and in the columns where ``cols`` is 0 set to zero: new values, the
    index arrays of ``a``."""
    a = a.tocsr()
    data = a.data * np.repeat(rows, np.diff(a.indptr)) * cols[a.indices]
    return sp.csr_matrix((data, a.indices, a.indptr), shape=a.shape)


class Multigrid:
    """Grid hierarchy of a mesh's (station i, angle j) node grid.

    Node ``i * n_j + j`` of every level is a point of an (n_i, n_j) station
    grid (``mesh.node_grid``), periodic in j for planar meshes.  Each coarser
    level keeps every other station and angle (see ``_interp_1d``), and its
    prolongation is the Kronecker product of the two 1-D interpolations.
    ``levels`` holds one (n_i, n_j) array per level, 1 on free nodes and 0 on
    nodes held at zero (``fixed``); a coarse node is fixed when the fine node
    it sits on is, and the rows and columns of fixed nodes are zeroed in the
    prolongations.  The hierarchy depends only on the grid, so one is shared
    by every operator solved on it (see ``VCycle``).
    """

    def __init__(self, mesh, fixed=()):
        n_i, n_j, periodic = mesh.node_grid
        free = np.ones((n_i, n_j))
        free.reshape(-1)[np.asarray(fixed, dtype=np.int64)] = 0.0
        self.levels = [free]
        self.prolongations = []
        while free.size > _COARSEST:
            p_i, c_i = _interp_1d(n_i, False)
            p_j, c_j = _interp_1d(n_j, periodic)
            if c_i.size == n_i and c_j.size == n_j:
                break
            coarse = free[np.ix_(c_i, c_j)]
            p = _zeroed(sp.kron(p_i, p_j, format="csr"), free.ravel(), coarse.ravel())
            self.prolongations.append((p, p.T.tocsr()))
            n_i, n_j, free = c_i.size, c_j.size, coarse
            self.levels.append(free)


def _identity_rows(a, free):
    """``a`` with the row and column of every node where ``free`` is 0 made
    those of the identity: couplings zeroed, 1 on the diagonal."""
    keep = free.ravel()
    n = keep.size
    eye = sp.csr_matrix((1.0 - keep, np.arange(n), np.arange(n + 1)), shape=(n, n))
    return _zeroed(a, keep, keep) + eye      # the sum drops the zeroed entries


class VCycle:
    """One symmetric V(1,1) cycle of a ``Multigrid`` for a nodal matrix.

    ``ops`` holds ``a`` and its Galerkin operators P^T A P, each with the
    fixed nodes of its level as identity rows (``_identity_rows``).  Builds
    them and factors the radial lines of every level but the coarsest, and
    the coarsest level itself; calling it on a residual returns the
    preconditioned residual.  A non-positive pivot on the way means the
    matrix is not positive definite and raises SolverError.
    """

    def __init__(self, grid, a):
        self.prolongations = grid.prolongations
        self.ops = [_identity_rows(a, grid.levels[0])]
        for (p, pt), free in zip(self.prolongations, grid.levels[1:]):
            self.ops.append(_identity_rows(pt @ self.ops[-1] @ p, free))
        self.smoothers = [_line_solver(op, free.shape)
                          for free, op in zip(grid.levels[:-1], self.ops)]
        try:
            chol = np.linalg.cholesky(self.ops[-1].toarray())
        except np.linalg.LinAlgError:
            raise SolverError("non-positive curvature in CG", [1.0]) from None
        lower_inv = np.linalg.inv(chol)
        coarse = lower_inv.T @ lower_inv
        self.coarse = 0.5 * (coarse + coarse.T)

    def __call__(self, r):
        return self._cycle(0, r)

    def _cycle(self, level, r):
        if level == len(self.prolongations):
            return self.coarse @ r
        op, smooth = self.ops[level], self.smoothers[level]
        p, pt = self.prolongations[level]
        z = smooth(r)
        z += p @ self._cycle(level + 1, pt @ (r - op @ z))
        z += smooth(r - op @ z)
        return z


def _line_solver(a, shape):
    """Damped block-Jacobi solve over the radial lines, r -> omega T^-1 r.

    Line j of an (n_i, n_j) grid couples the nodes (i, j), i = 0..n_i-1,
    through the tridiagonal part of ``a``: its diagonals 0 and n_j.  All
    lines are factored as L D L^T at once, one station at a time, and solved
    by a Thomas sweep vectorized over j.
    """
    n_i, n_j = shape
    diag = a.diagonal().reshape(shape)
    off = a.diagonal(n_j).reshape(n_i - 1, n_j)
    low = np.empty_like(off)
    piv = np.empty(shape)
    piv[0] = diag[0]
    with np.errstate(divide="ignore", invalid="ignore"):
        for i in range(1, n_i):
            low[i - 1] = off[i - 1] / piv[i - 1]
            piv[i] = diag[i] - low[i - 1] * off[i - 1]
    # a pivot after a non-positive one can be positive again: check all
    if not np.all(piv > 0.0):
        raise SolverError("non-positive curvature in CG", [1.0])
    scale = _OMEGA / piv
    low_rows = list(low)

    def solve(r):
        y = r.reshape(shape).copy()
        rows = list(y)
        for i in range(1, n_i):
            rows[i] -= low_rows[i - 1] * rows[i - 1]
        y *= scale
        for i in range(n_i - 2, -1, -1):
            rows[i] -= low_rows[i] * rows[i + 1]
        return y.reshape(-1)

    return solve


def pcg(a, b, grid, tol=1e-10):
    """Multigrid-preconditioned conjugate gradient for SPD systems.

    ``a`` is the assembled nodal matrix and ``b`` the nodal right-hand side.
    The fixed nodes of ``grid`` (a ``Multigrid``) are held at zero: the
    system solved is ``a`` with their rows and columns made identity ones and
    ``b`` zeroed there, so the finite values ``a`` and ``b`` store for them do
    not matter.  One ``VCycle(grid, a)`` is the preconditioner.  Starts from
    zero and converges on the relative residual ||b - A x|| <= tol * ||b||
    within max(20 n, 200) iterations, n the number of free nodes.  Returns
    (x, history), x nodal and exactly zero on the fixed nodes.
    Non-positive curvature, or a non-positive pivot while the cycle is built,
    raises SolverError instead of silently diverging, which the Newton loop
    uses to trigger Hessian regularization.
    """
    free = grid.levels[0].ravel()
    b = free * b
    n = b.shape[0]
    maxiter = max(20 * int(free.sum()), 200)
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return np.zeros(n), [0.0]
    precondition = VCycle(grid, a)
    a = precondition.ops[0]                 # fixed nodes as identity rows
    x = np.zeros(n)
    r = b.copy()
    z = precondition(r)
    p = z.copy()
    rz = r @ z
    history = [float(np.linalg.norm(r) / bnorm)]
    for _ in range(maxiter):
        if history[-1] <= tol:
            return x, history
        ap = a @ p
        pap = p @ ap
        if pap <= 0.0:
            raise SolverError("non-positive curvature in CG", history)
        alpha = rz / pap
        x += alpha * p
        r -= alpha * ap
        z = precondition(r)
        rz_new = r @ z
        p = z + (rz_new / rz) * p
        rz = rz_new
        history.append(float(np.linalg.norm(r) / bnorm))
    if history[-1] <= tol:
        return x, history
    raise SolverError(
        f"CG did not reach tol={tol:g} in {maxiter} iterations "
        f"(residual {history[-1]:.3e})", history
    )
