"""Truncated exterior computational domains around an obstacle.

The mesh is a structured shell of quadrilateral cells between the obstacle
boundary and a far-field circle/sphere of radius ``r_far``.  Two modes:

* ``axisymmetric-3d`` -- the meridian half-plane (x1, xr), xr >= 0, with the
  polar angle running over [0, pi].  Every volume/surface integral carries
  the weight 2*pi*xr, so the mesh represents a genuine three-dimensional
  exterior domain at two-dimensional cost.  Within each cell the angular
  parameter is affine in mu = cos(theta); this makes the volume integrand a
  polynomial (2*pi*r^2 dr dmu), so the tensor Gauss rule integrates shell
  volumes exactly, and the angular trace space contains cos(theta) exactly.
* ``planar-2d`` -- a full annulus in the plane, periodic in the angle.
  Genuinely two-dimensional, which is outside the regime where the decay
  theory applies; reports label it accordingly.

Radial stations are geometrically graded from the obstacle towards r_far to
concentrate resolution where gradients are largest.  Cell mappings follow
the exact obstacle geometry: for circles/spheres the inner boundary is
exact; for ellipses the stations use the exact polar radius function.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import fem
from .errors import ConfigError, DomainError

__all__ = ["ObstacleShape", "ExteriorMesh", "build_mesh", "check_mode", "check_shell", "refined",
           "mesh_dump_string"]

AXISYM = "axisymmetric-3d"
PLANAR = "planar-2d"

_MESH_FORMAT = "lowmach-mesh v1"


@dataclass(frozen=True)
class ObstacleShape:
    """Obstacle cross-section: sphere, disk, or ellipse (C^2 boundaries).

    ``sphere`` is the axisymmetric ball; ``disk`` the planar circle;
    ``ellipse`` has semi-axes (along x1, transverse) and doubles as a
    spheroid in axisymmetric mode.  Centered at the origin.  A sphere or disk
    stores ``semi_axes = (radius, radius)``, and every geometric quantity
    reads the semi-axes; equal ones give the exact circle.
    """

    kind: str
    radius: float = 1.0
    semi_axes: tuple = None

    def __post_init__(self):
        if self.kind not in ("sphere", "disk", "ellipse"):
            raise ConfigError(f"unknown obstacle kind {self.kind!r}")
        if self.kind == "ellipse":
            if self.semi_axes is None or len(self.semi_axes) != 2:
                raise ConfigError("ellipse requires semi_axes=(a1, a2)")
            if min(self.semi_axes) <= 0.0:
                raise ConfigError("semi-axes must be positive")
        elif not self.radius > 0.0:
            raise ConfigError(f"radius must be positive, got {self.radius}")
        elif self.semi_axes not in (None, (self.radius, self.radius)):
            raise ConfigError(f"a {self.kind} takes a radius, not semi_axes")
        else:
            object.__setattr__(self, "semi_axes", (self.radius, self.radius))

    @property
    def max_radius(self):
        return max(self.semi_axes)

    def boundary_radius(self, theta):
        """Polar radius of the boundary at angle theta from the x1 axis."""
        a, b = self.semi_axes
        if a == b:
            return np.full_like(np.asarray(theta, dtype=float), a)
        c, s = np.cos(theta), np.sin(theta)
        return a * b / np.sqrt(b * b * c * c + a * a * s * s)

    def boundary_radius_dtheta(self, theta):
        a, b = self.semi_axes
        if a == b:
            return np.zeros_like(np.asarray(theta, dtype=float))
        c, s = np.cos(theta), np.sin(theta)
        den = b * b * c * c + a * a * s * s
        return -a * b * (a * a - b * b) * s * c * den ** (-1.5)


@dataclass
class FacetSet:
    """Boundary facets sharing one tag, with their quadrature and normals.

    Normals point outward from the computational shell: into the obstacle
    on the inner boundary, away from the domain on the far-field circle.
    """

    tag: str
    cells: np.ndarray          # (F,) owner cell index
    nodes: np.ndarray          # (F, 2) endpoint node ids
    qpts: np.ndarray           # (F, Qf, 2)
    weights: np.ndarray        # (F, Qf) includes the axisymmetric factor
    normals: np.ndarray        # (F, Qf, 2) unit, outward of the shell
    basis: np.ndarray          # (F, Qf, 4) owner-cell basis values
    bgrads: np.ndarray         # (F, Qf, 4, 2) owner-cell basis gradients


@dataclass
class ExteriorMesh:
    """Structured shell mesh with quadrature, tags and axisymmetric weights.

    Immutable after construction (arrays are not written to).  It caches
    the finite-element data that depend on it alone (``stencil_slots``,
    ``stiffness_table``, ``laplacian_cycle``); the Laplacian solver applies
    its operators through work buffers, so solves on one mesh run one after
    another.
    The per-point arrays are filled one block of ``fem._BLOCK_POINTS``
    points at a time (``fem.cell_blocks``), so the build adds little to them.
    """

    mode: str
    shape: ObstacleShape
    r_far: float
    n_r: int
    n_t: int
    grading: float
    quad_order: int
    nodes: np.ndarray          # (N, 2) meridian / planar coordinates
    cells: np.ndarray          # (M, 4) corner node ids, positively oriented
    qpts: np.ndarray           # (M, Q, 2)
    qweights: np.ndarray       # (M, Q) full measure incl. axisym factor
    basis: np.ndarray          # (Q, 4) reference bilinear basis values
    bgrads: np.ndarray         # (M, 4, Q, 2) physical basis gradients, cell-major:
                               # bgrads[m].reshape(4, 2 * Q) is one matmul operand
    facets: dict               # tag -> FacetSet
    gamma_nodes: np.ndarray
    sigma_nodes: np.ndarray
    beta_stations: np.ndarray  # (n_r+1,) radial blending fractions
    theta_stations: np.ndarray

    @property
    def ndim(self):
        """Physical dimension the mesh represents (3 axisym, 2 planar)."""
        return 3 if self.mode == AXISYM else 2

    @property
    def n_nodes(self):
        return self.nodes.shape[0]

    @property
    def n_cells(self):
        return self.cells.shape[0]

    @property
    def mode_label(self):
        return AXISYM if self.mode == AXISYM else "planar-2d-outside-theory"

    @property
    def volume(self):
        return float(self.qweights.sum())

    def exact_shell_volume(self):
        """Analytic shell volume (the spheroid's in axisymmetric mode); the
        quadrature volume matches it for circular obstacles."""
        R, (a, b) = self.r_far, self.shape.semi_axes
        if self.mode == AXISYM:
            return 4.0 * np.pi / 3.0 * (R**3 - a * b * b)
        return np.pi * (R**2 - a * b)

    # -- structured index helpers -------------------------------------

    @property
    def node_grid(self):
        """(n_i, n_j, periodic): node ``i * n_j + j`` sits at station i,
        angle j; the angle wraps periodically on planar meshes."""
        periodic = self.mode == PLANAR
        return self.n_r + 1, self.n_t if periodic else self.n_t + 1, periodic

    @cached_property
    def stencil_slots(self):
        """Flat (3, 3, n_i, n_j) stencil slot of each entry (p, q) of (M, 4, 4)
        element blocks: slot (a, b) of corner p's node, if corner q lies
        a - 1 stations and b - 1 angles away."""
        di, dj = np.array([0, 1, 1, 0]), np.array([0, 0, 1, 1])
        slot = 3 * (di - di[:, None] + 1) + dj - dj[:, None] + 1     # [p, q]
        return (slot * self.n_nodes + self.cells[:, :, None]).ravel()

    @cached_property
    def stiffness_table(self):
        """(3Q, 9) reference table T of the element blocks: row (k, q) holds
        the weight of form k at point q in each entry (p, p') of the leading
        3x3 block, corners 0 to 2 (see ``fem.assemble_matrix``).

        At a point (xi, eta) the reference gradients g_0 and g_1 of corners 0
        and 1 span the plane (their determinant is 1 - eta > 0), and corner
        2's is g_2 = a_0 g_0 + a_1 g_1 with a = (-xi, eta - xi) / (1 - eta).
        The physical gradients J^-T g_p combine alike, so the forms k = (0, 0),
        (0, 1), (1, 1) of corners 0 and 1 give every entry.  T depends on the
        quadrature rule alone.
        """
        gx, _ = _gauss01(self.quad_order)
        xi, eta = (a.ravel() for a in np.meshgrid(gx, gx, indexing="ij"))
        one, zero = np.ones_like(xi), np.zeros_like(xi)
        # the coefficients of g_0 and of g_1 in g_p, p = 0, 1, 2: (Q, 3) each
        a0 = np.stack([one, zero, -xi / (1.0 - eta)], axis=1)
        a1 = np.stack([zero, one, (eta - xi) / (1.0 - eta)], axis=1)
        table = np.stack([a0[:, :, None] * a0[:, None, :],
                          a0[:, :, None] * a1[:, None, :] + a1[:, :, None] * a0[:, None, :],
                          a1[:, :, None] * a1[:, None, :]])       # (3, Q, 3, 3)
        return table.reshape(3 * xi.size, 9)

    @cached_property
    def laplacian_cycle(self):
        """Solver of the Laplacian with the far-field station held at zero:
        its exact solve by fast diagonalization (``fem.FastLaplacian``) on a
        circle mesh, whose Laplacian is separable, and by its block LDL^T
        factorization along the stations (``fem.StationCholesky``) on an
        ellipse mesh.

        It solves the Dirichlet closure of the incompressible flow and
        preconditions every Newton Hessian of the compressible problem up to
        the cut-off reference, whose eigenvalues lie in a fixed band around
        the Laplacian's (see ``compressible.minimize``).
        """
        a = fem.assemble_matrix(self, lambda cells: (1.0, None, None))
        a1, a2 = self.shape.semi_axes
        solver = fem.FastLaplacian if a1 == a2 else fem.StationCholesky
        return solver(fem.free_mask(self, self.sigma_nodes), a)

    def cell_id(self, i, j):
        return i * self.n_t + (j % self.n_t)

    # -- field evaluation at arbitrary points --------------------------

    def locate(self, points):
        """Map physical points to (cell id, xi, eta) reference coordinates."""
        p = np.atleast_2d(np.asarray(points, dtype=float))
        r = np.linalg.norm(p, axis=1)
        theta = np.arctan2(p[:, 1], p[:, 0])
        if self.mode == PLANAR:
            theta = np.mod(theta, 2.0 * np.pi)
        th = self.theta_stations
        j = np.clip(np.searchsorted(th, theta, side="right") - 1, 0, self.n_t - 1)
        if self.mode == AXISYM:
            mu = np.cos(theta)
            mu0, mu1 = np.cos(th[j]), np.cos(th[j + 1])
            eta = (mu - mu0) / (mu1 - mu0)
        else:
            eta = (theta - th[j]) / (th[j + 1] - th[j])
        eta = np.clip(eta, 0.0, 1.0)
        r_in = self.shape.boundary_radius(theta)
        beta = (r - r_in) / (self.r_far - r_in)
        bs = self.beta_stations
        i = np.clip(np.searchsorted(bs, beta, side="right") - 1, 0, self.n_r - 1)
        xi = (beta - bs[i]) / (bs[i + 1] - bs[i])
        if np.any(xi < -1e-9) or np.any(xi > 1.0 + 1e-9):
            raise DomainError("point outside the meshed shell")
        return self.cell_id(i, j), np.clip(xi, 0.0, 1.0), eta

    def _cell_geometry(self, cell_ids, xi, eta):
        """Positions and Jacobians of the cell mapping at (xi, eta)."""
        i = cell_ids // self.n_t
        j = cell_ids % self.n_t
        th0 = self.theta_stations[j]
        th1 = self.theta_stations[j + 1] if self.mode == AXISYM else \
            self.theta_stations[j] + 2.0 * np.pi / self.n_t
        if self.mode == AXISYM:
            mu0, mu1 = np.cos(th0), np.cos(th1)
            mu = mu0 + eta * (mu1 - mu0)
            mu = np.clip(mu, -1.0, 1.0)
            c = mu
            s = np.sqrt(np.maximum(1.0 - mu * mu, 0.0))
            dmu = mu1 - mu0
            c_eta = dmu * np.ones_like(eta)
            with np.errstate(divide="ignore", invalid="ignore"):
                s_eta = np.where(s > 0.0, -mu * dmu / s, 0.0)
                th_eta = np.where(s > 0.0, -dmu / s, 0.0)
            theta = np.arccos(mu)
        else:
            dth = th1 - th0
            theta = th0 + eta * dth
            c, s = np.cos(theta), np.sin(theta)
            c_eta, s_eta = -s * dth, c * dth
            th_eta = dth * np.ones_like(eta)
        r_in = self.shape.boundary_radius(theta)
        dr_in = self.shape.boundary_radius_dtheta(theta)
        b0 = self.beta_stations[i]
        b1 = self.beta_stations[i + 1]
        beta = b0 + xi * (b1 - b0)
        r = r_in + (self.r_far - r_in) * beta
        r_xi = (self.r_far - r_in) * (b1 - b0)
        r_eta = dr_in * th_eta * (1.0 - beta)
        x1 = r * c
        xr = r * s
        j11 = r_xi * c
        j12 = r_eta * c + r * c_eta
        j21 = r_xi * s
        j22 = r_eta * s + r * s_eta
        det = j11 * j22 - j12 * j21
        return x1, xr, (j11, j12, j21, j22), det

    def evaluate_gradient(self, nodal, points):
        """Gradient of a nodal field at arbitrary points inside the shell.

        On the symmetry axis the meridian Jacobian degenerates; there the
        angular direction contributes nothing (d mu / d x vanishes on the
        axis) and the gradient reduces to its radial part, which is what is
        evaluated in that limit.
        """
        cid, xi, eta = self.locate(points)
        x1, xr, jac, det = self._cell_geometry(cid, xi, eta)
        dxi, deta = _basis_grads(xi, eta)
        vals = np.asarray(nodal)[self.cells[cid]]
        gxi = np.einsum("pk,pk->p", dxi, vals)
        geta = np.einsum("pk,pk->p", deta, vals)
        r = np.hypot(x1, xr)
        on_axis = (self.mode == AXISYM) & (np.abs(xr) <= 1e-12 * np.maximum(r, 1.0))
        out = _physical_grads(jac, np.where(on_axis, 1.0, det), gxi, geta,
                              np.empty(gxi.shape + (2,)))
        out[on_axis, 0] = gxi[on_axis] / jac[0][on_axis]
        out[on_axis, 1] = 0.0
        return out if np.asarray(points).ndim > 1 else out[0]


def _gauss01(n):
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


def _basis_values(xi, eta):
    xi = np.asarray(xi)[..., None]
    eta = np.asarray(eta)[..., None]
    one = np.ones_like(xi)
    return np.concatenate(
        [(1 - xi) * (1 - eta), xi * (1 - eta), xi * eta, (1 - xi) * eta], axis=-1
    ) * one


def _basis_grads(xi, eta):
    xi = np.asarray(xi)[..., None]
    eta = np.asarray(eta)[..., None]
    dxi = np.concatenate([-(1 - eta), (1 - eta), eta, -eta], axis=-1)
    deta = np.concatenate([-(1 - xi), -xi, xi, (1 - xi)], axis=-1)
    return dxi, deta


def _physical_grads(jac, det, dxi, deta, out):
    """Write the physical gradients J^-T (dxi, deta) of reference gradients
    into ``out[..., 0]`` and ``out[..., 1]``; returns ``out``."""
    j11, j12, j21, j22 = jac
    out[..., 0] = (j22 * dxi - j21 * deta) / det
    out[..., 1] = (-j12 * dxi + j11 * deta) / det
    return out


def check_mode(kind, mode):
    """Reject (naming ``geometry.mode``) a sphere off the axisymmetric-3d
    mode or a disk off the planar-2d one."""
    need = {"sphere": AXISYM, "disk": PLANAR}.get(kind, mode)
    if mode != need:
        raise ConfigError(f"geometry.mode: a {kind} obstacle requires the {need} mode")


def check_shell(shape, r_far, n_r, grading):
    """Reject (naming ``geometry.r_far``) a far-field radius below 5x the
    obstacle size or with an overflowing cube, and (naming
    ``geometry.grading``) a grading below 1 or whose n_r-th power passes e^700."""
    if not (r_far >= 5.0 * shape.max_radius and math.isfinite(r_far * r_far * r_far)):
        raise ConfigError(f"geometry.r_far: must be at least 5x the obstacle size, "
                          f"with a finite cube, got {r_far!r}")
    if not (grading >= 1.0 and n_r * math.log(grading) <= 700.0):
        raise ConfigError(f"geometry.grading: must be >= 1, with its n_r-th power "
                          f"at most e^700, got {grading!r}")


def build_mesh(shape, r_far, n_r, n_t, grading=1.15, mode=AXISYM, quad_order=3):
    """Build a structured exterior shell mesh around the obstacle.

    Parameters
    ----------
    shape : ObstacleShape
    r_far : float
        Truncation radius; must be at least 5x the obstacle size.
    n_r, n_t : int
        Radial and angular cell counts (>= 4 each).
    grading : float
        Geometric radial grading ratio (>= 1); layer widths grow by this
        factor away from the obstacle.
    mode : str
        "axisymmetric-3d" or "planar-2d".
    quad_order : int
        Tensor Gauss order per cell (>= 2).
    """
    if mode not in (AXISYM, PLANAR):
        raise ConfigError(f"unknown mesh mode {mode!r}")
    check_mode(shape.kind, mode)
    check_shell(shape, r_far, n_r, grading)
    if n_r < 4 or n_t < 4:
        raise ConfigError("n_r and n_t must both be >= 4")
    if quad_order < 2:
        raise ConfigError("quad_order must be >= 2")

    # radial blending fractions, geometric layer widths
    if grading == 1.0:
        beta = np.linspace(0.0, 1.0, n_r + 1)
    else:
        beta = (grading ** np.arange(n_r + 1) - 1.0) / (grading**n_r - 1.0)

    if mode == AXISYM:
        theta = np.linspace(0.0, np.pi, n_t + 1)
        n_th_nodes = n_t + 1
    else:
        theta = np.linspace(0.0, 2.0 * np.pi, n_t + 1)  # last repeats first
        n_th_nodes = n_t

    # nodes
    th_nodes = theta[:n_th_nodes]
    r_in = shape.boundary_radius(th_nodes)
    rr = r_in[None, :] + (r_far - r_in[None, :]) * beta[:, None]
    x1 = rr * np.cos(th_nodes)[None, :]
    xr = rr * np.sin(th_nodes)[None, :]
    nodes = np.stack([x1.ravel(), xr.ravel()], axis=1)

    # cells, positively oriented (xi radial outward, eta along theta); node
    # (i, j) is i * n_th_nodes + j, and the angle wraps on planar meshes
    i, j = np.divmod(np.arange(n_r * n_t, dtype=np.int64), n_t)
    j_next = (j + 1) % n_th_nodes
    cells = np.stack([i * n_th_nodes + j, (i + 1) * n_th_nodes + j,
                      (i + 1) * n_th_nodes + j_next, i * n_th_nodes + j_next], axis=1)

    mesh = ExteriorMesh(
        mode=mode, shape=shape, r_far=float(r_far), n_r=int(n_r), n_t=int(n_t),
        grading=float(grading), quad_order=int(quad_order),
        nodes=nodes, cells=cells,
        qpts=None, qweights=None, basis=None, bgrads=None,
        facets=None, gamma_nodes=None, sigma_nodes=None,
        beta_stations=beta, theta_stations=theta,
    )

    _attach_quadrature(mesh)
    _attach_facets(mesh)

    mesh.gamma_nodes = np.arange(n_th_nodes, dtype=np.int64)
    mesh.sigma_nodes = n_r * n_th_nodes + mesh.gamma_nodes

    _validate_mesh(mesh)
    return mesh


def _attach_quadrature(mesh):
    gx, gw = _gauss01(mesh.quad_order)
    xi, eta = (a.ravel() for a in np.meshgrid(gx, gx, indexing="ij"))
    W2 = np.outer(gw, gw).ravel()
    Q = xi.size
    M = mesh.n_cells

    mesh.basis = _basis_values(xi, eta)
    # grad N = J^{-T} grad_ref N, cell-major: (M, 4, Q) per component.  The
    # reference gradients are made C-ordered (4, Q), so each product is too.
    dxi, deta = (np.ascontiguousarray(a.T) for a in _basis_grads(xi, eta))
    mesh.qpts, mesh.qweights = np.empty((M, Q, 2)), np.empty((M, Q))
    mesh.bgrads = np.empty((M, 4, Q, 2))
    for cells in fem.cell_blocks(M, Q):
        cid = np.arange(cells.start, cells.stop)[:, None]
        x1, xr, jac, det = mesh._cell_geometry(cid, xi, eta)
        if np.any(det <= 0.0):
            raise ConfigError("mesh construction produced non-positive Jacobians")
        mesh.qpts[cells, :, 0], mesh.qpts[cells, :, 1] = x1, xr
        w = np.multiply(W2, det, out=mesh.qweights[cells])
        if mesh.mode == AXISYM:
            w *= 2.0 * np.pi * xr
        _physical_grads([a[:, None, :] for a in jac], det[:, None, :], dxi, deta,
                        mesh.bgrads[cells])


def _attach_facets(mesh):
    gx, gw = _gauss01(mesh.quad_order)
    Qf = gx.size
    facets = {}
    for tag, i_cell, xi_val, sign, corners in (("gamma", 0, 0.0, -1.0, [0, 3]),
                                               ("sigma", mesh.n_r - 1, 1.0, +1.0, [1, 2])):
        cells = mesh.cell_id(i_cell, np.arange(mesh.n_t))
        F = cells.size
        cid = np.repeat(cells, Qf)
        xi = np.full(F * Qf, xi_val)
        eta = np.tile(gx, F)
        x1, xr, (j11, j12, j21, j22), det = mesh._cell_geometry(cid, xi, eta)
        tang = np.stack([j12, j22], axis=-1)  # d x / d eta
        tlen = np.linalg.norm(tang, axis=-1)
        nrm = np.stack([tang[:, 1], -tang[:, 0]], axis=-1) / tlen[:, None]
        # orient outward from the shell: along -x on gamma, +x on sigma
        pts = np.stack([x1, xr], axis=-1)
        dots = np.sum(nrm * pts, axis=-1)
        flip = np.sign(dots) != sign
        nrm[flip] *= -1.0
        axw = 2.0 * np.pi * xr if mesh.mode == AXISYM else np.ones_like(xr)
        wts = np.tile(gw, F) * tlen * axw

        vals = _basis_values(xi, eta)
        dxi, deta = _basis_grads(xi, eta)
        bg = _physical_grads([a[:, None] for a in (j11, j12, j21, j22)], det[:, None],
                             dxi, deta, np.empty(dxi.shape + (2,)))
        facets[tag] = FacetSet(
            tag=tag, cells=cells, nodes=mesh.cells[cells][:, corners],
            qpts=pts.reshape(F, Qf, 2),
            weights=wts.reshape(F, Qf),
            normals=nrm.reshape(F, Qf, 2),
            basis=vals.reshape(F, Qf, 4),
            bgrads=bg.reshape(F, Qf, 4, 2),
        )
    mesh.facets = facets


def _validate_mesh(mesh):
    vol = mesh.volume
    exact = mesh.exact_shell_volume()
    a, b = mesh.shape.semi_axes
    if a == b and abs(vol - exact) > 1e-8 * exact:
        raise ConfigError(f"quadrature volume {vol!r} does not match shell volume {exact!r}")
    nrm = np.concatenate([fs.normals.reshape(-1, 2) for fs in mesh.facets.values()])
    if np.max(np.abs(np.linalg.norm(nrm, axis=1) - 1.0)) > 1e-12:
        raise ConfigError("facet normals are not unit length")


def refined(mesh):
    """One uniform refinement: double both cell counts, halve the grading
    exponent so the radial distribution is preserved."""
    return build_mesh(
        mesh.shape, mesh.r_far, 2 * mesh.n_r, 2 * mesh.n_t,
        grading=float(np.sqrt(mesh.grading)), mode=mesh.mode,
        quad_order=mesh.quad_order,
    )


# ----------------------------------------------------------------------
# plain-text dump (bit-exact round-trip)
# ----------------------------------------------------------------------


def mesh_dump_string(mesh, config_hash=""):
    """The mesh in a versioned plain-text format.

    One header line (format, mode, shape, counts, parameters, config hash),
    then the node table, the cell table and the boundary-facet table.
    Floats are written with 17 significant digits so the round-trip is
    bit-exact.
    """
    from .io_text import g17_rows      # not loaded by ``import lowmach``

    shp = mesh.shape
    geom = (f"radius={shp.radius!r}" if shp.kind != "ellipse"
            else f"semi_axes={shp.semi_axes[0]!r},{shp.semi_axes[1]!r}")
    lines = [
        f"{_MESH_FORMAT} mode={mesh.mode} kind={shp.kind} {geom} "
        f"r_far={mesh.r_far!r} n_r={mesh.n_r} n_t={mesh.n_t} "
        f"grading={mesh.grading!r} quad_order={mesh.quad_order} "
        f"config={config_hash}\n",
        f"NODES {mesh.n_nodes}\n",
    ]
    # '%.17g' of an integer-valued float is the integer: the index columns
    # and the cell table too
    lines += g17_rows(np.column_stack([np.arange(mesh.n_nodes), mesh.nodes]), " ")
    lines.append(f"CELLS {mesh.n_cells}\n")
    lines += g17_rows(np.column_stack([np.arange(mesh.n_cells), mesh.cells]).astype(float), " ")
    facets = [(tag, c, a, b) for tag in ("gamma", "sigma")
              for c, (a, b) in zip(mesh.facets[tag].cells, mesh.facets[tag].nodes)]
    lines.append(f"FACETS {len(facets)}\n")
    lines += [f"{k} {tag} {c} {a} {b}\n" for k, (tag, c, a, b) in enumerate(facets)]
    return "".join(lines)

