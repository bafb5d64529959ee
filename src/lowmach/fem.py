"""Bilinear finite-element plumbing on the structured shell mesh.

The physical basis gradients are stored cell-major, ``mesh.bgrads`` of
shape (M, 4, Q, 2), so the gradient and load kernels are batched matrix
products over cells.  The stiffness kernel contracts three scalar forms of
corners 0 and 1 per point with a reference table of the quadrature rule
(``mesh.stiffness_table``; the reference-tensor form of Kirby & Logg, ACM
TOMS 32, 2006): one matrix product per block of cells.

Every per-point pipeline (mesh build, assembly, Newton kernels, flow state)
runs over blocks of cells (``cell_blocks``; loop tiling, Wolf & Lam, PLDI
1991) and writes each block's results into the arrays it returns, so its
temporaries are bounded by the block.  A block holds ``_BLOCK_POINTS`` =
15360 points; its temporaries (120-360 KiB) are reused from the heap by the
next block, since glibc raises its mmap and trim thresholds when a mapped
chunk is freed (0 faults per Newton kernel call at 192^2; 3-6k with the mmap
threshold pinned at 128 KiB).  Of 4096-65536 points, 15360 was about fastest.

Every mesh is a structured (station i, angle j) node grid
(``mesh.node_grid``), so an assembled operator is a 9-point stencil, a
(3, 3, n_i, n_j) array ``s``: row (i, j) couples to node (i + a - 1,
j + b - 1) with ``s[a, b, i, j]``, the angle wrapping around on planar
meshes; couplings that would leave the grid are zero.  Element blocks are
summed into it by one ``np.bincount``, which adds in input order, so
repeated runs produce bitwise identical operators.

The linear solver is a deterministic conjugate gradient with a full
residual history, preconditioned by one geometric-multigrid V-cycle on the
node grid: linear interpolation between levels (strided slices of the node
grid), Galerkin coarse operators (again 9-point stencils), damped
block-Jacobi smoothing over radial lines (graded cells near the obstacle are
strongly anisotropic; cyclic reduction down to ``_LINE_TAIL`` stations, then
one batched product with the remaining lines' inverses) and a dense solve on
the coarsest level; its iteration count does not grow with the mesh.  A
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
    "cell_blocks",
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


# Quadrature points per block of cells (see the module docstring).
_BLOCK_POINTS = 15360


def cell_blocks(n_cells, q):
    """Slices of consecutive cells, of at most ``_BLOCK_POINTS`` points at ``q`` per cell."""
    step = max(1, _BLOCK_POINTS // q)
    return [slice(a, min(a + step, n_cells)) for a in range(0, n_cells, step)]


def _cell_grads(mesh):
    """Basis gradients as one (4, 2Q) matrix per cell: a view, (M, 4, 2Q)."""
    m, _, q, _ = mesh.bgrads.shape
    return mesh.bgrads.reshape(m, 4, 2 * q)


def grad_at_qpts(mesh, nodal, cells=slice(None)):
    """Cell-wise gradient of a nodal field at quadrature points, (M, Q, 2),
    or at those of the slice ``cells`` alone."""
    vals = np.asarray(nodal)[mesh.cells[cells]]           # (B, 4)
    return (vals[:, None, :] @ _cell_grads(mesh)[cells]).reshape(vals.shape[0], -1, 2)


def _scatter(mesh, blocks):
    """Sum (M, 4, 4) element blocks into a (3, 3, n_i, n_j) stencil."""
    n_i, n_j, _ = mesh.node_grid
    s = np.bincount(mesh.stencil_slots, blocks.ravel(), minlength=9 * n_i * n_j)
    return s.reshape(3, 3, n_i, n_j)


def assemble_matrix(mesh, coef):
    """Assemble sum_q w_q  grad(N_i)^T C grad(N_j) as a stencil, for the
    coefficient C = c I - d v v^T.

    coef : a function of a block of cells (a slice), called once per block,
        returning its (c, d, v): c a scalar or (B, Q) scalars, and d, v the
        (B, Q) scalars and (B, Q, 2) vectors of the rank-one part, or both
        None for an isotropic coefficient.  Every symmetric 2x2 matrix has
        this form: with eigenvalues l_min <= l_max and a unit eigenvector e
        of l_min it is l_max I - (l_max - l_min) e e^T.

    Corner 2's basis gradient is a fixed combination of those of corners 0
    and 1 (``mesh.stiffness_table``), so the leading 3x3 part of the element
    blocks is one product K T of the (B, 3Q) forms of a block of cells

        K_ab = w grad(N_a)^T C grad(N_b),  (a, b) = (0, 0), (0, 1), (1, 1),

    with that (3Q, 9) table.  The four basis gradients sum to zero, so
    corner 3's row and column are minus the sums of the others: each block
    keeps the constants in its kernel up to its own round-off, with no bias
    that a table of rounded coefficients would share across all cells.
    """
    m, q = mesh.qweights.shape
    pairs = ((0, 0), (0, 1), (1, 1))
    blocks = np.empty((m, 4, 4))
    for cells in cell_blocks(m, q):
        c_b, d_b, v_b = coef(cells)
        w = mesh.qweights[cells]
        g = (mesh.bgrads[cells, 0], mesh.bgrads[cells, 1])   # (B, Q, 2) views
        forms = np.empty((len(w), 3, q))
        term = np.empty(w.shape)
        for k, (a, b) in enumerate(pairs):
            np.multiply(g[a][..., 0], g[b][..., 0], out=forms[:, k])
            forms[:, k] += np.multiply(g[a][..., 1], g[b][..., 1], out=term)
        forms *= (w * c_b)[:, None]
        if d_b is not None:
            # w d (v . grad N_a)(v . grad N_b), from the two projections of v
            along = np.empty((2,) + w.shape)
            for a in range(2):
                np.multiply(v_b[..., 0], g[a][..., 0], out=along[a])
                along[a] += np.multiply(v_b[..., 1], g[a][..., 1], out=term)
            np.multiply(w, d_b, out=term)
            for k, (a, b) in enumerate(pairs):
                forms[:, k] -= along[a] * along[b] * term
        lead = (forms.reshape(-1, 3 * q) @ mesh.stiffness_table).reshape(-1, 3, 3)
        out = blocks[cells]
        out[:, :3, :3] = lead
        out[:, :3, 3] = out[:, 3, :3] = -lead.sum(axis=2)
        out[:, 3, 3] = -out[:, 3, :3].sum(axis=1)
    return _scatter(mesh, blocks)


def assemble_vector_load(mesh, vec):
    """Nodal vector b_k = sum_q w_q  v(q) . grad(N_k), for the function
    ``vec`` of a block of cells (a slice) returning the (B, Q, 2) field v there."""
    m, q = mesh.qweights.shape
    contrib = np.empty((m, 4))
    for cells in cell_blocks(m, q):
        wv = vec(cells) * mesh.qweights[cells][..., None]         # (B, Q, 2)
        np.matmul(_cell_grads(mesh)[cells], wv.reshape(-1, 2 * q, 1),
                  out=contrib[cells, :, None])
    return np.bincount(mesh.cells.ravel(), contrib.ravel(), minlength=mesh.n_nodes)


def boundary_component_load(mesh, tag):
    """Nodal vector of the facet integral of n_1 N_k over a tag."""
    fs = mesh.facets[tag]
    contrib = np.einsum("fq,fqc,fq->fc", fs.normals[..., 0], fs.basis, fs.weights)
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
# Radial lines of at most _LINE_TAIL stations are solved densely (of 13, 25
# and 49, 25 gave the fastest cycle at 48^2, 96^2 and 192^2).
_LINE_TAIL = 25


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


def _along(x, axis, n):
    """An empty array shaped as ``x`` but with n entries along axis 0 or the
    last axis (-1), and a function indexing arrays along that axis."""
    if axis:
        return np.empty(x.shape[:-1] + (n,)), lambda s: (Ellipsis, s)
    return np.empty((n,) + x.shape[1:]), lambda s: s


class _Interp:
    """Linear interpolation along a line of n points from every other one.

    The coarse points are the even indices, plus the last one unless the
    line is periodic (then the last point interpolates across the wrap).  A
    line is kept as it is when fewer than three points would remain, so the
    two neighbours of a periodic coarse point stay distinct.

    Fine point 2k + 1 lies between coarse points k and k + 1 (k + 1 = 0
    across the wrap), so both transfers are strided slices along axis 0 or
    the last axis (-1).
    """

    def __init__(self, n, periodic):
        coarse = np.arange(0, n, 2)
        if not periodic and coarse[-1] != n - 1:
            coarse = np.append(coarse, n - 1)
        if coarse.size < 3:
            coarse = np.arange(n)
        self.periodic, self.coarse, self.size = periodic, coarse, coarse.size
        # fine points: n; at even indices: even; in between two coarse ones: odd
        self.n, self.even, self.odd = n, (n + 1) // 2, n - coarse.size
        self.wrap = periodic and n % 2 == 0

    def prolong(self, x, axis):
        if not self.odd:
            return x
        out, at = _along(x, axis, self.n)
        if self.wrap:
            x = np.concatenate((x, x[at(slice(0, 1))]), axis=axis)
        out[at(slice(0, None, 2))] = x[at(slice(0, self.even))]
        if self.size > self.even:
            out[at(-1)] = x[at(-1)]
        between = out[at(slice(1, 2 * self.odd, 2))]
        np.add(x[at(slice(0, self.odd))], x[at(slice(1, self.odd + 1))], out=between)
        between *= 0.5
        return out

    def restrict(self, r, axis):
        if not self.odd:
            return r
        out, at = _along(r, axis, self.size)
        out[at(slice(0, self.even))] = r[at(slice(0, None, 2))]
        if self.size > self.even:
            out[at(-1)] = r[at(-1)]
        half = 0.5 * r[at(slice(1, 2 * self.odd, 2))]
        # each coarse point adds the fine point before it, then the one after
        if self.wrap:
            out[at(slice(1, None))] += half[at(slice(0, -1))]
            out[at(0)] += half[at(-1)]
        else:
            out[at(slice(1, self.odd + 1))] += half
        out[at(slice(0, self.odd))] += half
        return out

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
    residual returns the preconditioned residual (each level forms its
    residual in a buffer of the cycle's own).  A non-positive pivot on the
    way means the matrix is not positive definite and raises SolverError.
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
        self.coarse = _spd_inverse(dense)
        self._res = [np.empty(op.stencil[0, 0].size) for op in self.ops[:-1]]

    def __call__(self, r):
        return self._cycle(0, r)

    def _cycle(self, level, r):
        if level == len(self.smoothers):
            return self.coarse @ r
        op, smooth, (t_i, t_j) = self.ops[level], self.smoothers[level], self.grid.transfers[level]
        fine, coarse = self.grid.levels[level:level + 2]
        res = self._res[level]
        z = smooth(r)
        np.subtract(r, op(z), out=res)
        res *= fine.reshape(-1)
        r_c = t_j.restrict(t_i.restrict(res.reshape(fine.shape), 0), -1)
        e = self._cycle(level + 1, (coarse * r_c).reshape(-1)).reshape(coarse.shape)
        # e is 0 on fixed coarse nodes: their rows are identity rows, right-hand side 0
        z += (fine * t_i.prolong(t_j.prolong(e, -1), 0)).reshape(-1)
        z += smooth(np.subtract(r, op(z), out=res))
        return z


def _spd_inverse(m, pivots=()):
    """Symmetrised inverse of the matrices ``m`` (..., k, k).

    Raises SolverError unless every diagonal entry of their Cholesky factors,
    and every entry of the arrays ``pivots``, is positive: a pivot after a
    non-positive one can be positive again, and the factor of a matrix
    holding a NaN is NaN rather than an error.
    """
    try:
        roots = np.linalg.cholesky(m).diagonal(axis1=-2, axis2=-1)
    except np.linalg.LinAlgError:
        roots = np.zeros(1)
    if not all(np.all(p > 0.0) for p in [*pivots, roots]):
        raise SolverError("non-positive curvature in CG", [1.0])
    inverse = np.linalg.inv(m)
    return 0.5 * (inverse + np.swapaxes(inverse, -1, -2))


def _line_solver(s):
    """Damped block-Jacobi solve over the radial lines, r -> omega T^-1 r.

    Line j couples the nodes (i, j), i = 0..n_i-1, through the tridiagonal
    part of the stencil: the diagonal ``s[1, 1]`` and the coupling
    ``s[2, 1]`` of each station to the next (``s[0, 1]`` is its transpose).
    All lines are solved at once.  While they have more than ``_LINE_TAIL``
    stations, a step of cyclic reduction (Buzbee, Golub & Nielson 1970),
    vectorized over stations and angles on contiguous copies of the odd and
    even stations, eliminates the odd stations and leaves a tridiagonal
    system on the even ones.  The lines that remain (on a level of at most
    ``_LINE_TAIL`` stations, the lines themselves) are solved by one batched
    product with their inverses, scaled by omega and symmetrised like the
    coarsest level's (``_spd_inverse``; a table of n_j _LINE_TAIL^2 numbers).

    The eliminated diagonals are pivots of an LDL^T factorization, and the
    remaining lines have Cholesky factors: the lines are positive definite
    exactly when every pivot and every diagonal entry of those factors is
    positive.  Anything else, a NaN included, raises SolverError.
    """
    shape = s.shape[2:]
    diag, off = s[1, 1], s[2, 1, :-1]
    steps, pivots = [], []
    with np.errstate(divide="ignore", invalid="ignore"):
        while diag.shape[0] > _LINE_TAIL:
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
    # the remaining lines as dense (n_j, k, k) matrices
    k = np.arange(diag.shape[0])
    lines = np.zeros((shape[1], k.size, k.size))
    lines[:, k, k] = diag.T
    lines[:, k[1:], k[:-1]] = lines[:, k[:-1], k[1:]] = off.T
    tail = _OMEGA * _spd_inverse(lines, pivots)

    def solve(r):
        r, odds = r.reshape(shape), []
        for _, up, down in steps:
            odd, r = r[1::2].copy(), r[0::2].copy()
            r[:up.shape[0]] -= up * odd
            r[1:down.shape[0] + 1] -= down * odd[:down.shape[0]]
            odds.append(odd)
        x = np.empty(r.shape)
        np.matmul(tail, r.T[..., None], out=x.T[..., None])
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
    regularization; so does a non-finite residual norm or curvature (a NaN
    in ``a`` or ``b``), at once rather than after ``maxiter`` iterations.
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
        if history[-1] <= tol:
            return x, history
        if not np.isfinite(history[-1]):
            raise SolverError("non-finite residual in CG", history)
        if len(history) > maxiter:
            raise SolverError(
                f"CG did not reach tol={tol:g} in {maxiter} iterations "
                f"(residual {history[-1]:.3e})", history)
        ap = a(p)
        pap = p @ ap
        if not pap > 0.0:
            kind = "non-positive" if pap <= 0.0 else "non-finite"
            raise SolverError(f"{kind} curvature in CG", history)
        alpha = rz / pap
        x += alpha * p
        r -= alpha * ap
        z = cycle(r)
        rz_new = r @ z
        p = z + (rz_new / rz) * p
        rz = rz_new
        history.append(float(np.linalg.norm(r) / bnorm))
