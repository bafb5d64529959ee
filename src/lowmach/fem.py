"""Bilinear finite-element plumbing on the structured shell mesh.

The physical basis gradients are stored cell-major, ``mesh.bgrads`` of
shape (M, 4, Q, 2), so the gradient, load and stiffness kernels are batched
matrix products over all cells at once.  Every mesh is a structured
(station i, angle j) node grid (``mesh.node_grid``), so an assembled
operator is a 9-point stencil, a (3, 3, n_i, n_j) array ``s``: row (i, j)
couples to node (i + a - 1, j + b - 1) with ``s[a, b, i, j]``, the angle
wrapping around on planar meshes; couplings that would leave the grid are
zero.  Element blocks are summed into it by one ``np.bincount``, which adds
in input order, so repeated runs produce bitwise identical operators.

The linear solver is a deterministic conjugate gradient with a full
residual history, preconditioned by one geometric-multigrid V-cycle on the
node grid: linear interpolation between levels, Galerkin coarse operators
(again 9-point stencils), damped block-Jacobi smoothing over radial lines
(graded cells near the obstacle are strongly anisotropic) and a dense solve
on the coarsest level; its iteration count does not grow with the mesh.  A
cycle preconditions every matrix spectrally equivalent to its own: the
mesh's Laplacian cycle (``ExteriorMesh.laplacian_cycle``) serves the Newton
solves of the compressible problem.  A node held at zero (the far-field
station, or a pinned node) stays an identity row on every level, so callers
pass the assembled operator and the nodal right-hand side as they are and
get a nodal solution back.  Only numpy is used.
"""

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

from .errors import SolverError

__all__ = [
    "grad_at_qpts",
    "assemble_matrix",
    "assemble_vector_load",
    "boundary_component_load",
    "project_to_nodes",
    "Operator",
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


def _scatter(mesh, blocks):
    """Sum (M, 4, 4) element blocks into a (3, 3, n_i, n_j) stencil."""
    n_i, n_j, _ = mesh.node_grid
    s = np.bincount(mesh.stencil_slots, blocks.ravel(), minlength=9 * n_i * n_j)
    return s.reshape(3, 3, n_i, n_j)


def assemble_matrix(mesh, c, d=None, v=None):
    """Assemble sum_q w_q  grad(N_i)^T C grad(N_j) as a stencil, for the
    coefficient C = c I - d v v^T.

    c : (M, Q) scalars; alone, an isotropic coefficient.
    d, v : (M, Q) scalars and (M, Q, 2) vectors of the rank-one part, or
        None.  Every symmetric 2x2 matrix has this form: with eigenvalues
        l_min <= l_max and a unit eigenvector e of l_min it is
        l_max I - (l_max - l_min) e e^T.
    """
    w = mesh.qweights
    bg = mesh.bgrads
    # flux_j = w c grad(N_j) - w d (v . grad(N_j)) v, (M, 4, Q, 2)
    flux = bg * (w * np.asarray(c))[:, None, :, None]
    if d is not None:
        # w d (v . grad(N_j)), then one component of the flux at a time
        v = np.asarray(v)[:, None]                            # (M, 1, Q, 2)
        along, term = bg[..., 0] * v[..., 0], bg[..., 1] * v[..., 1]
        along += term
        along *= (w * d)[:, None]
        for k in range(2):
            flux[..., k] -= np.multiply(along, v[..., k], out=term)
    flux = flux.reshape(bg.shape[0], 4, -1)
    blocks = _cell_grads(mesh) @ flux.transpose(0, 2, 1)    # (M, 4, 4)
    return _scatter(mesh, blocks)


def assemble_vector_load(mesh, vec_at_qpts):
    """Nodal vector b_k = sum_q w_q  v(q) . grad(N_k)."""
    wv = np.asarray(vec_at_qpts) * mesh.qweights[..., None]      # (M, Q, 2)
    contrib = _cell_grads(mesh) @ wv.reshape(wv.shape[0], -1, 1)   # (M, 4, 1)
    return np.bincount(mesh.cells.ravel(), contrib.ravel(), minlength=mesh.n_nodes)


def boundary_component_load(mesh, tag, component=0):
    """Nodal vector of the facet integral of n_component * N_k over a tag."""
    fs = mesh.facets[tag]
    contrib = np.einsum("fq,fqc,fq->fc", fs.normals[..., component], fs.basis, fs.weights)
    return np.bincount(mesh.cells[fs.cells].ravel(), contrib.ravel(),
                       minlength=mesh.n_nodes)


def assemble_mass(mesh):
    """Mass matrix sum_q w_q N_i N_j as a stencil (carries the axisymmetric
    weight)."""
    blocks = np.einsum("qi,qj,mq->mij", mesh.basis, mesh.basis, mesh.qweights)
    return _scatter(mesh, blocks)


def project_to_nodes(mesh, qpt_values):
    """Consistent L2 projection of quadrature-point values onto the nodal space.

    A mass-matrix solve, so any function already in the space is reproduced
    exactly.
    """
    w = mesh.qweights[..., None] * mesh.basis[None, ...]   # (M, Q, 4)
    num = np.bincount(mesh.cells.ravel(),
                      (w * np.asarray(qpt_values)[..., None]).sum(axis=1).ravel(),
                      minlength=mesh.n_nodes)
    m = assemble_mass(mesh)
    x, _ = pcg(m, num, VCycle(Multigrid(mesh), m), tol=1e-13)
    return x


# ----------------------------------------------------------------------
# Stencil operators and the multigrid-preconditioned conjugate gradient
# ----------------------------------------------------------------------

# Damping of the radial-line Jacobi smoother.
_OMEGA = 0.8
# Grids of at most _COARSEST nodes are solved densely.
_COARSEST = 200


def _neighbours(grid):
    """(3, 3, n_i, n_j) view of ``grid`` at node (i + a - 1, j + b - 1),
    wrapped around in both directions (past the first and last stations
    only zero couplings are met)."""
    i, j = (np.arange(-1, n + 1) for n in grid.shape)
    return sliding_window_view(grid.take(i, 0, mode="wrap").take(j, 1, mode="wrap"),
                               grid.shape)


class Operator:
    """Matrix-vector product with a (3, 3, n_i, n_j) stencil, flat nodal
    vectors in and out.

    The vector is copied into a buffer with a halo of one node around the
    grid (see ``_neighbours``), station by station with two halo columns, so
    each coupling multiplies contiguous slices: nine multiply-adds into
    preallocated buffers.
    """

    def __init__(self, s):
        _, _, n_i, n_j = s.shape
        coef = np.zeros((3, 3, n_i, n_j + 2))
        coef[..., 1:-1] = s
        self.stencil = coef[..., 1:-1]      # a view: ``s`` is not kept
        halo = np.zeros((n_i + 2) * (n_j + 2) + 2)
        view = as_strided(halo, (3, 3, coef[0, 0].size), (8 * (n_j + 2), 8, 8),
                          writeable=False)
        self._terms = [(coef[a, b].ravel(), view[a, b]) for a, b in np.ndindex(3, 3)]
        self._grid = halo[1:-1].reshape(n_i + 2, n_j + 2)[1:-1]
        self._out, self._term = np.empty((2, coef[0, 0].size))

    def __call__(self, x):
        grid, out, term = self._grid, self._out, self._term
        x = x.reshape(grid.shape[0], -1)
        grid[:, 1:-1], grid[:, 0], grid[:, -1] = x, x[:, -1], x[:, 0]
        (c, v), *rest = self._terms
        np.multiply(c, v, out=out)
        for c, v in rest:
            out += np.multiply(c, v, out=term)
        return out.reshape(grid.shape)[:, 1:-1].reshape(-1)


def _take(x, idx, axis):
    """``x`` gathered at ``idx`` along axis 0 or along the last axis (-1)."""
    return x[..., idx] if axis else x.take(idx, 0)


class _Interp:
    """Linear interpolation along a line of n points from every other one.

    The coarse points are the even indices, plus the last one unless the
    line is periodic (then the last point interpolates across the wrap).  A
    line is kept as it is when fewer than three points would remain, so the
    two neighbours of a periodic coarse point stay distinct.
    """

    def __init__(self, n, periodic):
        coarse = np.arange(0, n, 2)
        if not periodic and coarse[-1] != n - 1:
            coarse = np.append(coarse, n - 1)
        if coarse.size < 3:
            coarse = np.arange(n)
        self.periodic, self.coarse, self.size = periodic, coarse, coarse.size
        pos = np.full(n, -1)
        pos[coarse] = np.arange(coarse.size)
        fine, odd = np.arange(n), pos < 0
        # the two coarse neighbours of each fine point (itself twice if coarse)
        self.lo = np.where(odd, pos[fine - 1], pos)
        self.hi = np.where(odd, pos[(fine + 1) % n], pos)
        # the fine neighbours of each coarse point, weighted 1/2 if in between
        self.left, self.right = (coarse - 1) % n, (coarse + 1) % n
        self.w_left, self.w_right = 0.5 * odd[self.left], 0.5 * odd[self.right]

    def prolong(self, x, axis):
        return 0.5 * (_take(x, self.lo, axis) + _take(x, self.hi, axis))

    def restrict(self, r, axis):
        w = (self.w_left, self.w_right) if axis else (self.w_left[:, None], self.w_right[:, None])
        return (_take(r, self.coarse, axis) + w[0] * _take(r, self.left, axis)
                + w[1] * _take(r, self.right, axis))

    def galerkin(self, t):
        """P^T T P along the last axis of couplings ``t`` (3, ..., n) of each
        point to the one before, itself and the one after.

        Probed with one coarse line per colour: no two points within one of
        each other share a colour (points left over when a periodic line's
        length is not a multiple of 3 get colours of their own), so entry K
        of a colour's probe is the coupling of K to its neighbour of that
        colour.
        """
        n = self.size
        colour = np.arange(n) % 3
        if self.periodic:
            colour[n - n % 3:] = 3 + np.arange(n % 3)
        outside = colour.max() + 1
        probes = np.zeros((outside + 1,) + t.shape[1:-1] + (n,))   # last: off the line
        halo = np.arange(-1, t.shape[-1] + 1)
        for c in range(outside):
            v = self.prolong(1.0 * (colour == c), -1).take(halo, mode="wrap")
            probes[c] = self.restrict(t[0] * v[:-2] + t[1] * v[1:-1] + t[2] * v[2:], -1)
        codes = (colour.take(np.arange(-1, n + 1), mode="wrap") if self.periodic
                 else np.concatenate(([outside], colour, [outside])))
        codes = sliding_window_view(codes, n).reshape((3,) + (1,) * (t.ndim - 2) + (n,))
        return np.take_along_axis(probes, codes, axis=0)


class Multigrid:
    """Grid hierarchy of a mesh's (station i, angle j) node grid.

    Each coarser level keeps every other station and angle (``transfers``
    holds the two ``_Interp`` of each step), and its prolongation P
    interpolates linearly along both.  ``levels`` holds one (n_i, n_j) array
    per level, 1 on free nodes and 0 on nodes held at zero (``fixed``); a
    coarse node is fixed when the fine node it sits on is, and P neither
    reads nor writes fixed nodes.  The hierarchy depends only on the grid,
    so one is shared by every operator solved on it (see ``VCycle``).
    """

    def __init__(self, mesh, fixed=()):
        n_i, n_j, periodic = mesh.node_grid
        free = np.ones((n_i, n_j))
        free.reshape(-1)[np.asarray(fixed, dtype=np.int64)] = 0.0
        self.levels, self.transfers = [free], []
        while free.size > _COARSEST:
            t_i, t_j = _Interp(n_i, False), _Interp(n_j, periodic)
            if t_i.size == n_i and t_j.size == n_j:
                break
            free = free[np.ix_(t_i.coarse, t_j.coarse)]
            self.transfers.append((t_i, t_j))
            self.levels.append(free)
            n_i, n_j = free.shape


def _identity_rows(s, free):
    """Stencil ``s`` with the row and column of every node where ``free`` is
    0 made those of the identity: couplings zeroed, 1 on the diagonal."""
    out = s * free * _neighbours(free)
    out[1, 1] += 1.0 - free
    return out


class VCycle:
    """One symmetric V(1,1) cycle of a ``Multigrid`` for a nodal stencil.

    ``ops`` holds the ``Operator`` of ``a`` and of its Galerkin operators
    P^T A P, each with the fixed nodes of its level as identity rows
    (``_identity_rows``).  Builds them and factors the radial lines of every
    level but the coarsest, and the coarsest level itself; calling it on a
    residual returns the preconditioned residual.  A non-positive pivot on
    the way means the matrix is not positive definite and raises SolverError.
    """

    def __init__(self, grid, a):
        self.grid = grid
        self.ops = [Operator(_identity_rows(a, grid.levels[0]))]
        for (t_i, t_j), fine, coarse in zip(grid.transfers, grid.levels, grid.levels[1:]):
            # P^T A P, P blind to fixed nodes so A enters with their rows zeroed:
            # a pass along the angles, then one along the stations
            s = t_j.galerkin((self.ops[-1].stencil * fine).swapaxes(0, 1))   # [b, a, i, j]
            s = t_i.galerkin(np.ascontiguousarray(s.transpose(1, 0, 3, 2)))  # [a, b, j, i]
            self.ops.append(Operator(_identity_rows(s.swapaxes(2, 3), coarse)))
        self.smoothers = [_line_solver(op.stencil) for op in self.ops[:-1]]
        s = self.ops[-1].stencil
        node = np.arange(s[0, 0].size).reshape(s.shape[2:])
        dense = np.zeros((node.size, node.size))
        np.add.at(dense, (np.broadcast_to(node, s.shape), _neighbours(node)), s)
        try:
            np.linalg.cholesky(dense)
        except np.linalg.LinAlgError:
            raise SolverError("non-positive curvature in CG", [1.0]) from None
        inverse = np.linalg.inv(dense)
        self.coarse = 0.5 * (inverse + inverse.T)

    def __call__(self, r):
        return self._cycle(0, r)

    def _cycle(self, level, r):
        if level == len(self.smoothers):
            return self.coarse @ r
        op, smooth, (t_i, t_j) = self.ops[level], self.smoothers[level], self.grid.transfers[level]
        fine, coarse = self.grid.levels[level:level + 2]
        z = smooth(r)
        r_c = t_j.restrict(t_i.restrict(fine * (r - op(z)).reshape(fine.shape), 0), -1)
        e = self._cycle(level + 1, (coarse * r_c).reshape(-1)).reshape(coarse.shape)
        # e is 0 on fixed coarse nodes: their rows are identity rows, right-hand side 0
        z += (fine * t_i.prolong(t_j.prolong(e, -1), 0)).reshape(-1)
        z += smooth(r - op(z))
        return z


def _line_solver(s):
    """Damped block-Jacobi solve over the radial lines, r -> omega T^-1 r.

    Line j couples the nodes (i, j), i = 0..n_i-1, through the tridiagonal
    part of the stencil: the diagonal ``s[1, 1]`` and the coupling
    ``s[2, 1]`` of each station to the next (``s[0, 1]`` is its transpose).
    All lines are solved at once by cyclic reduction (Buzbee, Golub &
    Nielson 1970), vectorized over stations and angles on contiguous copies
    of the odd and even stations: each step eliminates the odd stations and
    leaves a tridiagonal system on the even ones, down to a single station.
    The eliminated diagonals, and that last one, are the pivots of an LDL^T
    factorization: the lines are positive definite exactly when all of them
    are positive.
    """
    shape = s.shape[2:]
    diag, off = s[1, 1], s[2, 1, :-1]
    steps, pivots = [], []
    with np.errstate(divide="ignore", invalid="ignore"):
        while diag.shape[0] > 1:
            pivots.append(diag[1::2])
            inv = 1.0 / diag[1::2]
            # couplings of each odd station to the even ones before and after
            left, right = off[0::2], off[1::2]
            up, down = left * inv, right * inv[:right.shape[0]]
            steps.append((_OMEGA * inv, up, down))
            diag = diag[0::2].copy()
            diag[:up.shape[0]] -= up * left
            diag[1:down.shape[0] + 1] -= down * right
            off = -up[:down.shape[0]] * right
        last = _OMEGA / diag
    # a pivot after a non-positive one can be positive again: check all
    if not all(np.all(p > 0.0) for p in pivots + [diag]):
        raise SolverError("non-positive curvature in CG", [1.0])

    def solve(r):
        r, odds = r.reshape(shape), []
        for _, up, down in steps:
            odd, r = r[1::2].copy(), r[0::2].copy()
            r[:up.shape[0]] -= up * odd
            r[1:down.shape[0] + 1] -= down * odd[:down.shape[0]]
            odds.append(odd)
        x = last * r
        for (inv, up, down), odd in zip(steps[::-1], odds[::-1]):
            odd *= inv
            odd -= up * x[:up.shape[0]]
            odd[:down.shape[0]] -= down * x[1:down.shape[0] + 1]
            merged = np.empty((x.shape[0] + odd.shape[0],) + shape[1:])
            merged[0::2], merged[1::2] = x, odd
            x = merged
        return x.reshape(-1)

    return solve


def pcg(a, b, cycle, tol=1e-10):
    """Multigrid-preconditioned conjugate gradient for SPD systems.

    ``a`` is the assembled stencil and ``b`` the nodal right-hand side.
    ``cycle`` is a ``VCycle`` and the fixed nodes of its grid are held at
    zero: the system solved is ``a`` with their rows and columns made
    identity ones and ``b`` zeroed there, so the finite values ``a`` and
    ``b`` store for them do not matter.  The cycle may be that of ``a``
    itself (``VCycle(grid, a)``, whose pivots check that ``a`` is positive
    definite) or of any matrix spectrally equivalent to it, which keeps the
    iteration count bounded: one cycle built once serves every solve.
    Starts from zero and converges on the relative residual
    ||b - A x|| <= tol * ||b|| within max(20 n, 200) iterations, n the
    number of free nodes.  Returns (x, history), x nodal and exactly zero on
    the fixed nodes.  Non-positive curvature raises SolverError instead of
    silently diverging, which the Newton loop uses to trigger Hessian
    regularization.
    """
    free = cycle.grid.levels[0]
    b = free.ravel() * b
    n = b.shape[0]
    maxiter = max(20 * int(free.sum()), 200)
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return np.zeros(n), [0.0]
    a = Operator(_identity_rows(a, free))
    x = np.zeros(n)
    r = b.copy()
    z = cycle(r)
    p = z.copy()
    rz = r @ z
    history = [float(np.linalg.norm(r) / bnorm)]
    while True:
        if history[-1] <= tol:             # false on a NaN residual
            return x, history
        if len(history) > maxiter:
            raise SolverError(
                f"CG did not reach tol={tol:g} in {maxiter} iterations "
                f"(residual {history[-1]:.3e})", history)
        ap = a(p)
        pap = p @ ap
        if pap <= 0.0:
            raise SolverError("non-positive curvature in CG", history)
        alpha = rz / pap
        x += alpha * p
        r -= alpha * ap
        z = cycle(r)
        rz_new = r @ z
        p = z + (rz_new / rz) * p
        rz = rz_new
        history.append(float(np.linalg.norm(r) / bnorm))
