"""Incompressible reference flow: the exterior Neumann problem.

The perturbation potential (total potential minus the uniform stream
q_inf * x1) satisfies a Laplace equation outside the obstacle with a Neumann
condition on the obstacle that cancels the normal component of the stream.
On the truncated far-field boundary the perturbation is closed either with
a homogeneous Dirichlet condition (default; justified by its fast decay) or
a homogeneous Neumann condition with one pinned node, for sensitivity
studies.  Both go through the same multigrid-preconditioned conjugate
gradient (``fem.pcg``): each node of the far-field station, or the pinned
node, simply is an identity row.

The same bilinear space is used by the compressible module, so the two
potentials subtract cleanly degree of freedom by degree of freedom.
"""

from dataclasses import dataclass, field

import numpy as np

from . import fem
from .errors import ConfigError, DomainError

__all__ = [
    "PotentialField",
    "solve_incompressible",
    "velocity_at_qpts",
    "velocity_at_points",
    "surface_speeds",
    "weak_slip_residual",
    "analytic_sphere_reference",
]


@dataclass
class PotentialField:
    """Nodal scalar potential on the shell mesh."""

    mesh: object
    values: np.ndarray
    name: str = "potential"
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.mesh.n_nodes,):
            raise ConfigError("potential values must be nodal")
        if not np.all(np.isfinite(self.values)):
            raise ConfigError("potential contains non-finite values")

    def grad_at_qpts(self):
        return fem.grad_at_qpts(self.mesh, self.values)


def solve_incompressible(mesh, q_inf, tol=1e-10, far_field="dirichlet"):
    """Solve for the incompressible perturbation potential.

    Weak form: find the nodal field with

        int grad(psi) . grad(eta) dV = -q_inf * oint_Gamma n_1 eta dS

    for all test functions, with the far-field closure above.  The linear
    system is solved by multigrid-preconditioned CG (``fem.pcg``) to a
    relative residual of ``tol``; failure raises SolverError carrying the
    residual history.  The Dirichlet closure's system and preconditioner is
    the mesh's ``laplacian_cycle``; the Neumann closure pins one node
    instead, a hierarchy of its own.
    """
    if far_field not in ("dirichlet", "neumann"):
        raise ConfigError(f"unknown far-field closure {far_field!r}")
    if far_field == "dirichlet":
        cycle = mesh.laplacian_cycle
    else:
        # pure Neumann: solution only defined up to a constant; pin one node
        a = fem.assemble_matrix(mesh, lambda cells: (1.0, None, None))
        cycle = fem.VCycle(fem.Multigrid(mesh, mesh.sigma_nodes[:1]), a)
    values, history = fem.pcg(cycle.ops[0].stencil, _slip_load(mesh, q_inf), cycle, tol=tol)
    meta = {
        "q_inf": float(q_inf),
        "far_field": far_field,
        "residual": history[-1],
        "iterations": len(history) - 1,
        "kind": "incompressible_perturbation",
    }
    return PotentialField(mesh, values, name="incompressible_perturbation", meta=meta)


def velocity_at_qpts(psi, q_inf, cells=slice(None)):
    """grad(psi) + stream, (B, Q, 2), at the quadrature points of the slice ``cells``."""
    u = fem.grad_at_qpts(psi.mesh, psi.values, cells)
    u[..., 0] += q_inf
    return u


def velocity_at_points(psi, q_inf, points):
    g = psi.mesh.evaluate_gradient(psi.values, points)
    g = np.atleast_2d(g).copy()
    g[:, 0] += q_inf
    return g if np.asarray(points).ndim > 1 else g[0]


def surface_speeds(psi, q_inf):
    """|u| at the obstacle-facet quadrature points, evaluated cell-side."""
    fs = psi.mesh.facets["gamma"]
    vals = psi.values[psi.mesh.cells[fs.cells]]            # (F, 4)
    g = np.einsum("fc,fqcd->fqd", vals, fs.bgrads)
    g[..., 0] += q_inf
    return np.linalg.norm(g, axis=-1)


def weak_slip_residual(psi, q_inf):
    """Variationally consistent slip flux on the obstacle boundary.

    The discrete normal flux paired with each obstacle-node basis function
    is the residual of that node's Galerkin equation; at the solution it is
    bounded by the linear-solver tolerance.  Returns (per-node flux, total).
    The Laplacian is the mesh's ``laplacian_cycle`` operator: its identity
    rows touch only the far-field station, at least four stations away from
    the obstacle, so the obstacle rows are the assembled ones whichever
    far-field closure ``psi`` solved.
    """
    mesh = psi.mesh
    res = mesh.laplacian_cycle.ops[0](psi.values) - _slip_load(mesh, q_inf)
    per_node = res[mesh.gamma_nodes]
    return per_node, float(per_node.sum())


def _slip_load(mesh, q_inf):
    """-q_inf oint_Gamma n_1 eta dS: the load of the slip condition on the obstacle."""
    return -q_inf * fem.boundary_component_load(mesh, "gamma")


def analytic_sphere_reference(a, q_inf, point):
    """Exact potential and velocity for the sphere in a uniform stream.

    Test oracle: potential q_inf cos(theta) (r + a^3/(2 r^2)) and its
    gradient, valid for |point| >= a (three-dimensional points).
    """
    p = np.asarray(point, dtype=float)
    if p.shape[-1] != 3:
        raise DomainError("sphere reference expects 3-d points")
    r = np.linalg.norm(p, axis=-1)
    if np.any(r < a * (1.0 - 1e-12)):
        raise DomainError("point inside the obstacle")
    x1 = p[..., 0]
    phi = q_inf * (x1 + a**3 * x1 / (2.0 * r**3))
    e1 = np.zeros_like(p)
    e1[..., 0] = 1.0
    u = q_inf * (
        (1.0 + a**3 / (2.0 * r**3))[..., None] * e1
        - (3.0 * a**3 * x1 / (2.0 * r**5))[..., None] * p
    )
    return phi, u

