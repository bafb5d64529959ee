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
residual history, preconditioned by an exact solve.  On a circle mesh the
Laplacian's stencil is a sum of two Kronecker products, and
``FastLaplacian`` solves it by fast diagonalization: one eigenbasis of the
angular factors, then one batched tridiagonal solve along the stations per
angular mode (graded cells near the obstacle are strongly anisotropic, so
the lines along the stations are solved exactly: cyclic reduction down to
``_LINE_TAIL`` stations, then one batched product with the remaining lines'
inverses).  Every other matrix (an ellipse mesh's Laplacian, a Newton
Hessian beyond the cut-off reference, the pinned Neumann Laplacian, the
mass matrix) gets ``StationCholesky``, the block LDL^T factorization of its
stencil along the stations.  Both builds raise SolverError exactly when the
matrix is not positive definite.  A solver preconditions every matrix
spectrally equivalent to its own: the mesh's Laplacian solver
(``ExteriorMesh.laplacian_cycle``) serves the Newton solves of the
compressible problem up to the cut-off reference, in 3-7 iterations.  A
node held at zero (the far-field station, or a pinned node) is an identity
row, so callers pass the assembled operator and the nodal right-hand side
as they are and get a nodal solution back.  Only numpy is used.
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
    "free_mask",
    "Operator",
    "StationCholesky",
    "FastLaplacian",
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
    x, _ = pcg(m, num, StationCholesky(free_mask(mesh), m), tol=1e-13)
    return x


# ----------------------------------------------------------------------
# Stencil operators, exact solvers and the conjugate gradient
# ----------------------------------------------------------------------

# Radial lines of at most _LINE_TAIL stations are solved densely (of 13, 25
# and 49, 25 gave the fastest line solve at 48^2, 96^2 and 192^2).
_LINE_TAIL = 25


def free_mask(mesh, fixed=()):
    """(n_i, n_j) array over a mesh's node grid (``mesh.node_grid``): 0 on
    the nodes ``fixed`` held at zero, 1 on the free ones."""
    n_i, n_j, _ = mesh.node_grid
    free = np.ones(n_i * n_j)
    free[np.asarray(fixed, dtype=np.int64)] = 0.0
    return free.reshape(n_i, n_j)


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


def _identity_rows(s, free):
    """Stencil ``s`` with the row and column of every node where ``free`` is
    0 made those of the identity: couplings zeroed, 1 on the diagonal."""
    out = s * free * _neighbours(free)
    out[1, 1] += 1.0 - free
    return out


def _wrapped(c, x):
    """Product of a tridiagonal matrix that wraps around with ``x`` (n, ...):
    row j couples to j + b - 1 (mod n) with ``c[b, j]``, and broadcasts
    against ``x[j]``.  Three shifted products."""
    pad = np.concatenate((x[-1:], x, x[:1]))
    n = x.shape[0]
    return c[0] * pad[:n] + c[1] * pad[1:n + 1] + c[2] * pad[2:]


class StationCholesky:
    """Exact solve of a stencil by its block LDL^T factorization along the
    stations (the block Thomas algorithm).

    With the nodes held at zero (``free`` 0) as identity rows
    (``_identity_rows``), the stencil is block tridiagonal: A_ii couples
    station i to itself and A_i,i-1 to the station before, both tridiagonal
    along the angles (wrapping around on planar meshes) and read off the
    stencil as three shifted products (``_wrapped``).  The pivots are the
    Schur complements

        D_0 = A_00,   D_i = A_ii - A_i,i-1 D_i-1^-1 A_i-1,i,

    and only their symmetrised inverses are kept (``_spd_inverse``; n_i n_j^2
    numbers, 54 MiB at 192^2).  The matrix is positive definite exactly when
    every pivot is, so the build raises SolverError exactly when it is not
    (a NaN included).  A call on a residual returns the solution, by a
    forward and a backward sweep over the stations, with zero on the fixed
    nodes whatever the residual holds there; ``pcg`` with it converges in
    one iteration, up to the round-off of the inverses.  It holds the free
    mask as ``free`` and, as ``op``, the ``Operator`` of ``a`` with the
    fixed nodes as identity rows.
    """

    def __init__(self, free, a):
        self.free = free
        self.op = Operator(_identity_rows(a, free))
        s = self.op.stencil
        n_i, n_j = free.shape
        # A_i,i-1 and its transpose A_i-1,i, as couplings of row j to j + b - 1
        self._low = s[0]
        self._up = np.stack([np.roll(s[0, 2 - b], 1 - b, axis=-1) for b in range(3)])
        self._inv = np.empty((n_i, n_j, n_j))
        eye = np.eye(n_j)
        for i in range(n_i):
            pivot = _wrapped(s[1, :, i, :, None], eye)
            if i:
                # A D^-1 A^T = A (A D^-1)^T, D^-1 being symmetric
                low = self._low[:, i, :, None]
                pivot -= _wrapped(low, _wrapped(low, self._inv[i - 1]).T)
            self._inv[i] = _spd_inverse(pivot)

    def __call__(self, r):
        z = r.reshape(self.free.shape) * self.free
        inv, low, up = self._inv, self._low, self._up
        z[0] = inv[0] @ z[0]
        for i in range(1, z.shape[0]):
            z[i] -= _wrapped(low[:, i], z[i - 1])
            z[i] = inv[i] @ z[i]
        for i in range(z.shape[0] - 2, -1, -1):
            z[i] -= inv[i] @ _wrapped(up[:, i + 1], z[i + 1])
        z *= self.free
        return z.reshape(-1)


class FastLaplacian:
    """Exact solve of a separable stencil by fast diagonalization (Lynch,
    Rice & Thomas, Numer. Math. 6, 1964), cheaper than a ``StationCholesky``.

    On a circle mesh the nodes are r_i (cos t_j, sin t_j), so the metric
    terms and the axisymmetric weight of the bilinear map are products of a
    station factor and an angle factor, and the Laplacian's stencil is a sum
    of two Kronecker products, K = A_1 (x) B_1 + A_2 (x) B_2: the A along the
    stations and the B along the angles (wrapping around on planar meshes),
    all symmetric and tridiagonal (``_separable_factors``).  The nodes held
    at zero must be whole stations; on the free ones the solve is

        X = Lines^-1(R W) W^T,   W^T B_1 W = I,  W^T B_2 W = diag(lambda),

    R the residual as an (n_i, n_j) array and Lines the n_j lines w_m^T K
    w_m = A_1 + lambda_m A_2 along the stations, read off the stencil and
    solved by ``_tridiagonal_lines``, with identity rows on the
    fixed stations, whose nodes get zero.  B_1 is the coupling of one station
    to itself, a diagonal block of K: W comes from its Cholesky factor and
    ``np.linalg.eigh``.  The build raises SolverError exactly when K is not
    positive definite, when that block's Cholesky factor or a pivot of a
    line is not positive: a line is K seen through one w_m, and K is the
    direct sum of its lines.

    Like a ``StationCholesky`` it holds the free mask as ``free`` and, as
    ``op``, the ``Operator`` of ``a`` with the fixed nodes as identity rows,
    and a call on a residual returns the solution; ``pcg`` with it converges
    in one iteration.
    """

    def __init__(self, free, a):
        if np.any(free != free[:, :1]):
            raise ValueError("fast diagonalization holds whole stations at zero")
        self.free = free
        self.op = Operator(_identity_rows(a, free))
        stations = free[:, 0] == 1.0
        _, (b_diag, b_off) = _separable_factors(a, stations)
        n_j = b_diag.shape[1]
        j, after = np.arange(n_j), (np.arange(n_j) + 1) % n_j
        pencil = np.zeros((2, n_j, n_j))
        pencil[:, j, j] = b_diag
        pencil[:, j, after] = pencil[:, after, j] = b_off
        inv_low = np.linalg.inv(_cholesky(pencil[0]))
        c = inv_low @ pencil[1] @ inv_low.T
        w = inv_low.T @ np.linalg.eigh(0.5 * (c + c.T))[1]
        # line m couples stations i and i + a - 1 by w_m^T K_(i, i+a-1) w_m,
        # read off the stencil: sum_j,b s[a, b, i, j] w[j, m] w[j + b - 1, m]
        pairs = [w * np.roll(w, 1 - b, axis=0) for b in range(3)]
        diag, off = (sum(a[row, b] @ pairs[b] for b in range(3)) for row in (1, 2))
        diag[~stations] = 1.0
        off = off[:-1] * (stations[:-1] & stations[1:])[:, None]
        self._w, self._lines, self._free = w, _tridiagonal_lines(diag, off), free[:, :1]

    def __call__(self, r):
        shape = (self._free.shape[0], -1)
        x = self._lines(r.reshape(shape) @ self._w).reshape(shape) @ self._w.T
        x *= self._free
        return x.reshape(-1)


# Largest entry of the separable rebuild's error, relative to the largest
# entry of the station's stencil (``_separable_factors``).
_SEPARABLE_TOL = 1e-10


def _separable_factors(s, free):
    """The tridiagonal factors of a stencil s = A_1 (x) B_1 + A_2 (x) B_2 on
    the free stations (``free``, a boolean per station), couplings to the
    other stations dropped: ((A_diag, A_off), (B_diag, B_off)), each (2, n)
    arrays of the diagonals and of the couplings of each station (angle) to
    the next; B_off wraps around from the last angle to the first.

    The stencil is read as a matrix M with rows (i, a) and columns (j, b),
    each station's rows scaled by its largest entry, of rank 2.  Its skeleton
    M = M[:, J] M[I, J]^-1 M[I, :] takes the rows I and the columns J of two
    pivots: the largest entry of station i0's coupling to itself (i0 the
    first free station), and then the largest entry left once that cross is
    taken away.  So B_1 is that coupling, a diagonal block of the stencil.
    Raises SolverError unless the factors rebuild every free station's
    stencil to ``_SEPARABLE_TOL`` of its largest entry (a NaN included).
    M is visited one coupling (a, b) at a time, (n_i, n_j) each.
    """
    couplings = list(np.ndindex(3, 3))
    padded = np.pad(free, 1)
    to_free = free & np.stack([padded[:-2], padded[1:-1], padded[2:]])   # [a, i]
    scale = np.max([np.abs(s[a, b]).max(axis=1) for a, b in couplings], axis=0)
    scale[scale == 0.0] = 1.0
    weight = to_free / scale                                      # M = s * weight[a, i]
    i0 = np.flatnonzero(free)[0]
    row = s[1, :, i0] * weight[1, i0]                             # [b, j]
    b1, j1 = np.unravel_index(np.argmax(np.abs(row)), row.shape)
    col = s[:, b1, :, j1] * weight                                # [a, i]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ratio = row / row[b1, j1]
        peaks = []
        for a, b in couplings:
            rest = np.abs(s[a, b] * weight[a, :, None] - col[a, :, None] * ratio[b])
            k = np.argmax(rest)
            peaks.append((rest.flat[k], a, b) + np.unravel_index(k, rest.shape))
        _, a2, b2, i2, j2 = max(peaks, key=lambda peak: peak[0])
        rows = np.stack([row, s[a2, :, i2] * weight[a2, i2]])     # [k, b, j]
        cols = np.stack([col, s[:, b2, :, j2] * weight])          # [l, a, i]
        (g00, g01), (g10, g11) = rows[:, [b1, b2], [j1, j2]]      # M[I, J]
        inverse = np.array([[g11, -g01], [-g10, g00]]) / (g00 * g11 - g01 * g10)
        alpha = np.einsum("lai,lk->kai", cols, inverse) * scale   # [k, a, i]
        # each factor's couplings of station i to i - 1, i and i + 1 (angle
        # j to j - 1, j and j + 1), from its diagonal and its coupling to the next
        a_fac = np.stack([np.pad(alpha[:, 2, :-1], ((0, 0), (1, 0))), alpha[:, 1],
                          alpha[:, 2]], axis=1)
        b_fac = np.stack([np.roll(rows[:, 2], 1, axis=-1), rows[:, 1], rows[:, 2]], axis=1)
        err = np.zeros(s.shape[2])
        for a, b in couplings:
            rest = a_fac[0, a, :, None] * b_fac[0, b] + a_fac[1, a, :, None] * b_fac[1, b]
            rest -= s[a, b] * to_free[a, :, None]
            err = np.maximum(err, np.abs(rest).max(axis=1))       # NaN propagates
    if not np.all(err <= _SEPARABLE_TOL * scale):
        raise SolverError(f"stencil is not a sum of two Kronecker products: error "
                          f"{float(np.max(err / scale))!r} of a station's largest entry")
    return (alpha[:, 1], alpha[:, 2, :-1]), (rows[:, 1], rows[:, 2])


def _cholesky(m, pivots=()):
    """Cholesky factors of the matrices ``m`` (..., k, k).

    Raises SolverError unless every diagonal entry of them, and every entry
    of the arrays ``pivots``, is positive: a pivot after a non-positive one
    can be positive again, and the factor of a matrix holding a NaN is NaN
    rather than an error.
    """
    try:
        low = np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        low = np.zeros((1, 1))
    if not all(np.all(p > 0.0) for p in [*pivots, low.diagonal(axis1=-2, axis2=-1)]):
        raise SolverError("non-positive curvature in CG", [1.0])
    return low


def _spd_inverse(m, pivots=()):
    """Symmetrised inverse of the matrices ``m`` (..., k, k), checked by
    ``_cholesky``."""
    _cholesky(m, pivots)
    inverse = np.linalg.inv(m)
    return 0.5 * (inverse + np.swapaxes(inverse, -1, -2))


def _tridiagonal_lines(diag, off):
    """Solve of symmetric tridiagonal lines along axis 0, r -> T^-1 r.

    Line j has the diagonal ``diag[:, j]`` (n_i, n_j) and the couplings
    ``off[:, j]`` (n_i - 1, n_j) of each station to the next.  All lines are
    solved at once.  While they have more than ``_LINE_TAIL``
    stations, a step of cyclic reduction (Buzbee, Golub & Nielson 1970),
    vectorized over stations and angles on contiguous copies of the odd and
    even stations, eliminates the odd stations and leaves a tridiagonal
    system on the even ones.  The lines that remain (on a level of at most
    ``_LINE_TAIL`` stations, the lines themselves) are solved by one batched
    product with their symmetrised inverses (``_spd_inverse``; a table of
    n_j _LINE_TAIL^2 numbers).

    The eliminated diagonals are pivots of an LDL^T factorization, and the
    remaining lines have Cholesky factors: the lines are positive definite
    exactly when every pivot and every diagonal entry of those factors is
    positive.  Anything else, a NaN included, raises SolverError.
    """
    shape = diag.shape
    steps, pivots = [], []
    with np.errstate(divide="ignore", invalid="ignore"):
        while diag.shape[0] > _LINE_TAIL:
            pivots.append(diag[1::2])
            inv = 1.0 / diag[1::2]
            # couplings of each odd station to the even ones before and after
            left, right = off[0::2], off[1::2]
            up, down = left * inv, right * inv[:right.shape[0]]
            steps.append((inv, up, down))
            diag = diag[0::2].copy()
            diag[:up.shape[0]] -= up * left
            diag[1:down.shape[0] + 1] -= down * right
            off = -up[:down.shape[0]] * right
    # the remaining lines as dense (n_j, k, k) matrices
    k = np.arange(diag.shape[0])
    lines = np.zeros((shape[1], k.size, k.size))
    lines[:, k, k] = diag.T
    lines[:, k[1:], k[:-1]] = lines[:, k[:-1], k[1:]] = off.T
    tail = _spd_inverse(lines, pivots)

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
    """Preconditioned conjugate gradient for SPD systems.

    ``a`` is the assembled stencil and ``b`` the nodal right-hand side.
    ``cycle`` is a ``StationCholesky`` or a ``FastLaplacian``, and the nodes
    where its ``free`` mask is 0 are held at zero: the system solved is
    ``a`` with their rows and columns made identity ones and ``b`` zeroed
    there, so the finite values ``a`` and ``b`` store for them do not
    matter.  The solver may be that of ``a`` itself (its build checks that
    ``a`` is positive definite, and CG converges in one iteration) or of any
    matrix spectrally equivalent to it, which keeps the iteration count
    bounded: one solver built once serves every solve.
    Starts from zero and converges on the relative residual
    ||b - A x|| <= tol * ||b|| within max(20 n, 200) iterations, n the
    number of free nodes.  Returns (x, history), x nodal and exactly zero on
    the fixed nodes.  Non-positive curvature raises SolverError instead of
    silently diverging, which the Newton loop uses to trigger Hessian
    regularization; so does a non-finite residual norm or curvature (a NaN
    in ``a`` or ``b``), at once rather than after ``maxiter`` iterations.
    """
    free = cycle.free
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
