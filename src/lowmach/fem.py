"""Bilinear finite-element plumbing on the structured shell mesh.

The physical basis gradients are stored cell-major, ``mesh.bgrads`` of
shape (M, 4, Q, 2), so each cell's gradients form one (4, 2Q) matrix and the
gradient, load and stiffness kernels are batched matrix products over all
cells at once.  Element blocks are reduced through scipy.sparse's duplicate
summation (COO to CSR), which sorts indices before adding, so repeated runs
produce bitwise identical matrices.  The linear solver is a
hand-rolled Jacobi-preconditioned conjugate gradient: deterministic, with a
full residual history for error reports.
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
    x, _ = pcg(m, num, tol=1e-13)
    return x


def pcg(a, b, tol=1e-10):
    """Jacobi-preconditioned conjugate gradient for SPD systems.

    Starts from zero and converges on the relative residual
    ||b - A x|| <= tol * ||b|| within max(20 n, 200) iterations.  Returns
    (x, history).  Non-positive curvature raises SolverError instead of
    silently diverging, which the Newton loop uses to trigger Hessian
    regularization.
    """
    n = b.shape[0]
    maxiter = max(20 * n, 200)
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return np.zeros(n), [0.0]
    x = np.zeros(n)
    d = a.diagonal()
    d = np.where(d > 0.0, d, 1.0)
    r = b.copy()
    z = r / d
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
        z = r / d
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


def apply_dirichlet_solve(a, b, fixed, tol=1e-10):
    """Solve A x = b with x[fixed] = 0, via reduction to the free block."""
    n = b.shape[0]
    mask = np.zeros(n, dtype=bool)
    mask[fixed] = True
    free = np.flatnonzero(~mask)
    x = np.zeros(n)
    a_ff = a[free][:, free].tocsr()
    xf, history = pcg(a_ff, b[free], tol=tol)
    x[free] = xf
    return x, history
