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
iteration count does not grow with the mesh.  Only numpy and scipy.sparse
are used: scipy.linalg and scipy.sparse.linalg are not imported.
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
    "apply_dirichlet_solve",
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


class Multigrid:
    """Grid hierarchy of a mesh's (station i, angle j) node grid.

    Node ``i * n_j + j`` of every level is a point of an (n_i, n_j) station
    grid (``mesh.node_grid``), periodic in j for planar meshes.  Each coarser
    level keeps every other station and angle (see ``_interp_1d``), and its
    prolongation is the Kronecker product of the two 1-D interpolations,
    restricted to the free nodes of both levels: nodes held at zero
    (``fixed``) carry no unknown, and a coarse node is fixed when the fine
    node it sits on is.  The hierarchy depends only on the grid, so one is
    shared by every operator solved on it (see ``VCycle``).
    """

    def __init__(self, mesh, fixed=()):
        n_i, n_j, periodic = mesh.node_grid
        mask = np.ones((n_i, n_j), dtype=bool)
        mask.reshape(-1)[np.asarray(fixed, dtype=np.int64)] = False
        self.levels = [_GridLevel(mask)]
        self.prolongations = []
        while mask.size > _COARSEST:
            p_i, c_i = _interp_1d(n_i, False)
            p_j, c_j = _interp_1d(n_j, periodic)
            if c_i.size == n_i and c_j.size == n_j:
                break
            coarse = mask[np.ix_(c_i, c_j)]
            p = sp.kron(p_i, p_j, format="csr")[mask.ravel()][:, coarse.ravel()]
            self.prolongations.append((p, p.T.tocsr()))
            n_i, n_j, mask = c_i.size, c_j.size, coarse
            self.levels.append(_GridLevel(mask))


class VCycle:
    """One symmetric V(1,1) cycle of a ``Multigrid`` for a free-node matrix.

    Builds the Galerkin operators P^T A P and factors the radial lines of
    every level but the coarsest, and the coarsest level itself; calling it
    on a residual returns the preconditioned residual.  A non-positive pivot
    on the way means the matrix is not positive definite and raises
    SolverError.
    """

    def __init__(self, grid, a):
        self.prolongations = grid.prolongations
        self.ops = [a]
        for p, pt in self.prolongations:
            self.ops.append((pt @ self.ops[-1] @ p).tocsr())
        self.smoothers = [lev.line_solver(op)
                          for lev, op in zip(grid.levels[:-1], self.ops)]
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


class _GridLevel:
    """Free nodes of an (n_i, n_j) station grid and their radial lines."""

    def __init__(self, mask):
        self.shape = mask.shape
        self.free = np.flatnonzero(mask)
        pos = np.full(mask.shape, -1)
        pos.reshape(-1)[self.free] = np.arange(self.free.size)
        # station neighbours (i, j) -- (i + 1, j) that are both free
        both = mask[:-1] & mask[1:]
        self.pairs = np.flatnonzero(both)
        self.pair_rows = pos[:-1][both]
        self.pair_cols = pos[1:][both]

    def line_solver(self, a):
        """Damped block-Jacobi solve over the radial lines, r -> omega T^-1 r.

        Line j couples the nodes (i, j), i = 0..n_i-1, through the
        tridiagonal part of ``a``; fixed nodes are identity rows.  All lines
        are factored as L D L^T at once, one station at a time, and solved by
        a Thomas sweep vectorized over j.
        """
        shape = self.shape
        diag = np.ones(shape)
        diag.reshape(-1)[self.free] = a.diagonal()
        off = np.zeros((shape[0] - 1, shape[1]))
        off.reshape(-1)[self.pairs] = np.asarray(
            a[self.pair_rows, self.pair_cols]).ravel()
        low = np.empty_like(off)
        piv = np.empty(shape)
        piv[0] = diag[0]
        with np.errstate(divide="ignore", invalid="ignore"):
            for i in range(1, shape[0]):
                low[i - 1] = off[i - 1] / piv[i - 1]
                piv[i] = diag[i] - low[i - 1] * off[i - 1]
        # a pivot after a non-positive one can be positive again: check all
        if not np.all(piv > 0.0):
            raise SolverError("non-positive curvature in CG", [1.0])
        scale = _OMEGA / piv
        low_rows = list(low)
        free = self.free

        def solve(r):
            y = np.zeros(shape)
            flat = y.reshape(-1)             # a view; y.flat indexing is slower
            flat[free] = r
            rows = list(y)
            for i in range(1, shape[0]):
                rows[i] -= low_rows[i - 1] * rows[i - 1]
            y *= scale
            for i in range(shape[0] - 2, -1, -1):
                rows[i] -= low_rows[i] * rows[i + 1]
            return flat[free]

        return solve


def pcg(a, b, grid, tol=1e-10):
    """Multigrid-preconditioned conjugate gradient for SPD systems.

    ``a`` is the matrix on the free nodes of ``grid`` (a ``Multigrid``),
    ``b`` the right-hand side there; one ``VCycle(grid, a)`` is
    the preconditioner.  Starts from zero and converges on the relative
    residual ||b - A x|| <= tol * ||b|| within max(20 n, 200) iterations.
    Returns (x, history).  Non-positive curvature, or a non-positive pivot
    while the cycle is built, raises SolverError instead of silently
    diverging, which the Newton loop uses to trigger Hessian regularization.
    """
    n = b.shape[0]
    maxiter = max(20 * n, 200)
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return np.zeros(n), [0.0]
    precondition = VCycle(grid, a)
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


def apply_dirichlet_solve(mesh, a, b, fixed, tol=1e-10):
    """Solve A x = b on ``mesh`` with x[fixed] = 0, via the free block."""
    grid = Multigrid(mesh, fixed)
    free = grid.levels[0].free
    x = np.zeros(b.shape[0])
    a_ff = a[free][:, free].tocsr()
    x[free], history = pcg(a_ff, b[free], grid, tol=tol)
    return x, history
