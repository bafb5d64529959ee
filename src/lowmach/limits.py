"""Convergence-rate sweeps, decay fits, and conservative-force machinery.

The sweep solves the incompressible problem once, the compressible problem
per epsilon, and fits log-log slopes of the difference norms against the
low Mach predictions: density and velocity differences shrink like eps^2,
the Mach number like eps, and the pressure-gradient gap like eps^2 in the
weak sense.  Far-field decay exponents of the perturbation and correction
gradients are fitted along rays and checked one-sidedly against
min(n/2, beta + n/q - 1), the rate the force admissibility parameters
dictate.

Per-epsilon solves share only what ``prepare`` builds and the mesh's
Laplacian solver, which applies its operator through work buffers, so the
solves run one after another.  The report assembly is sequential and
deterministic.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from . import compressible, geometry, incompressible
from .errors import ConfigError, DomainError, SolverError
from .gas import GasModel, make_cutoff

__all__ = [
    "ForceSpec",
    "ForceField",
    "RateFit",
    "DecayFit",
    "AdmissibilityReport",
    "ConvergenceReport",
    "SweepSetup",
    "build_force",
    "check_force",
    "prepare",
    "solve_epsilon",
    "validate_force",
    "fit_rate",
    "decay_fit",
    "sweep",
]


# ----------------------------------------------------------------------
# Conservative forces
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ForceSpec:
    """Description of the conservative extra force.

    kind : "none", "newtonian" or "point_mass".
        newtonian: a spherically symmetric source of total ``mass`` supported
        in a ball of ``source_radius`` strictly inside the obstacle.
        point_mass: the same field without the source-size check (outside
        the ball both are mass/|x| by the shell theorem).
    beta, q : declared admissibility parameters of the force
        ((1 + |x|^beta) grad phi must be q-integrable, q > n).
    """

    kind: str = "none"
    mass: float = 1.0
    source_radius: float = 0.5
    beta: float = 1.2
    q: float = 4.0

    def __post_init__(self):
        if self.kind not in ("none", "newtonian", "point_mass"):
            raise ConfigError(f"unknown force kind {self.kind!r}")


@dataclass
class ForceField:
    """Force potential and gradient sampled on a mesh."""

    phi_qpts: np.ndarray        # (M, Q)
    grad_qpts: np.ndarray       # (M, Q, 2)
    phi_nodes: np.ndarray       # (N,)
    phi_star: float = 0.0

    def __post_init__(self):
        self.phi_star = float(
            max(np.max(np.abs(self.phi_qpts)), np.max(np.abs(self.phi_nodes))))


def check_force(spec, shape, mode):
    """Reject a force off the axisymmetric-3d mode (naming ``force.kind``) or
    a newtonian source ball beyond 0.95 of the obstacle's smallest polar
    radius (naming ``force.source_radius``)."""
    if spec.kind != "none" and mode != geometry.AXISYM:
        raise ConfigError(f"force.kind: a {spec.kind} force requires the {geometry.AXISYM} mode")
    if spec.kind == "newtonian" and not spec.source_radius < 0.95 * min(shape.semi_axes):
        raise ConfigError("force.source_radius: the source ball must lie "
                          "strictly inside the obstacle")


def build_force(spec, mesh):
    """ForceField for a ForceSpec; None when there is no force.

    The source is spherically symmetric with total ``mass``, so by the shell
    theorem its potential outside the source ball is exactly the point-mass
    field mass/|x|, with gradient -mass x/|x|^3.  That closed form is
    evaluated at every quadrature point and node of the mesh.  Requires the
    three-dimensional (axisymmetric) mode and, for ``newtonian``, a source
    ball strictly inside the obstacle (``check_force``).
    """
    if spec is None or spec.kind == "none":
        return None
    check_force(spec, mesh.shape, mesh.mode)
    r_q = np.linalg.norm(mesh.qpts, axis=-1)
    return ForceField(
        phi_qpts=spec.mass / r_q,
        grad_qpts=-spec.mass * mesh.qpts / r_q[..., None] ** 3,
        phi_nodes=spec.mass / np.linalg.norm(mesh.nodes, axis=-1),
    )


def beta_prime(beta, q, ndim):
    """Far-field decay exponent of the difference velocity."""
    return min(ndim / 2.0, beta + ndim / q - 1.0)


@dataclass
class AdmissibilityReport:
    admissible: bool
    beta: float
    q: float
    beta_prime: float
    phi_star: float
    grad_lq_truncated: float
    grad_tail_exponent: float
    grad_tail_finite: bool
    l2_phi_truncated: float
    phi_tail_exponent: float
    phi_tail_finite: bool


def validate_force(force, beta, q, mesh):
    """Check the (beta, q) admissibility condition numerically.

    Integrates (1 + |x|^beta)^q |grad phi|^q and |phi|^2 over the truncated
    shell and extrapolates the radial tails with the fitted decay exponents
    of |grad phi| and |phi|.  The admissibility verdict is the finiteness of
    the gradient integral (the hypothesis the convergence theory needs); the
    potential's own L2 tail is reported alongside for reference.  No force
    (``force`` None) is admissible with all residuals zero.
    """
    ndim = mesh.ndim
    if not q > ndim:
        raise ConfigError(f"force.q: admissibility requires q > n = {ndim}")
    if not beta > 1.0 - ndim / q:
        raise ConfigError("force.beta: admissibility requires beta > 1 - n/q")
    bp = beta_prime(beta, q, ndim)
    if force is None:
        return AdmissibilityReport(
            admissible=True, beta=beta, q=q, beta_prime=bp,
            phi_star=0.0, grad_lq_truncated=0.0, grad_tail_exponent=math.inf,
            grad_tail_finite=True, l2_phi_truncated=0.0,
            phi_tail_exponent=math.inf, phi_tail_finite=True,
        )

    gmag = np.linalg.norm(force.grad_qpts, axis=-1)
    w = mesh.qweights
    r = np.linalg.norm(mesh.qpts, axis=-1)
    grad_int = float(np.sum(w * (1.0 + r**beta) ** q * gmag**q))
    l2_int = float(np.sum(w * force.phi_qpts**2))
    d_grad = _field_decay_exponent(mesh, gmag)
    d_phi = _field_decay_exponent(mesh, np.abs(force.phi_qpts))
    # tail integrand exponents: q*beta - q*d + (n-1) < -1 for convergence
    grad_tail = q * beta - q * d_grad + (ndim - 1.0)
    phi_tail = -2.0 * d_phi + (ndim - 1.0)
    return AdmissibilityReport(
        admissible=bool(grad_tail < -1.0), beta=beta, q=q, beta_prime=bp,
        phi_star=force.phi_star,
        grad_lq_truncated=grad_int, grad_tail_exponent=float(d_grad),
        grad_tail_finite=bool(grad_tail < -1.0),
        l2_phi_truncated=l2_int, phi_tail_exponent=float(d_phi),
        phi_tail_finite=bool(phi_tail < -1.0),
    )


def _field_decay_exponent(mesh, qpt_magnitudes):
    """Far-field power-law exponent of a quadrature-point field.

    Fits the averages over 10 geometric shells against the pure radius over
    the outer part of the shell, where the field has settled into its tail
    behavior; this is the exponent the tail-integral extrapolation needs.
    """
    r = np.linalg.norm(mesh.qpts, axis=-1).ravel()
    v = np.asarray(qpt_magnitudes).ravel()
    w = mesh.qweights.ravel()
    lo, hi = 0.3 * mesh.r_far, 0.85 * mesh.r_far
    edges = np.geomspace(lo, hi, 11)
    rs, vs = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        m = (r >= a) & (r < b)
        if not np.any(m) or np.sum(w[m] * v[m]) <= 0.0:
            continue
        rs.append(math.sqrt(a * b))
        vs.append(np.sum(w[m] * v[m]) / np.sum(w[m]))
    if len(rs) < 3:
        raise DomainError("not enough radial shells to fit a decay exponent")
    f = fit_rate(list(zip(rs, vs)))
    return -f.slope


# ----------------------------------------------------------------------
# Fits
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class RateFit:
    slope: float
    intercept: float
    r_squared: float
    slope_stderr: float = float("nan")

    def confidence(self):
        """The slope plus and minus two standard errors."""
        return self.slope - 2.0 * self.slope_stderr, self.slope + 2.0 * self.slope_stderr


def fit_rate(pairs):
    """Least-squares log-log fit of (x, value) pairs; refuses values <= 0 and one abscissa."""
    pts = [(float(x), float(v)) for x, v in pairs]
    if len(pts) < 2:
        raise DomainError("fit_rate needs at least 2 pairs")
    xs = np.array([p[0] for p in pts])
    vs = np.array([p[1] for p in pts])
    if np.any(xs <= 0.0) or np.any(vs <= 0.0):
        raise DomainError("fit_rate requires positive abscissae and values")
    if np.all(xs == xs[0]):
        raise DomainError("fit_rate needs at least 2 distinct abscissae")
    lx, lv = np.log(xs), np.log(vs)
    n = lx.size
    a = np.vstack([lx, np.ones(n)]).T
    coef, *_ = np.linalg.lstsq(a, lv, rcond=None)
    slope, intercept = float(coef[0]), float(coef[1])
    resid = lv - a @ coef
    ss_res = float(resid @ resid)
    ss_tot = float(np.sum((lv - lv.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    if n > 2:
        sxx = float(np.sum((lx - lx.mean()) ** 2))
        stderr = math.sqrt(max(ss_res, 0.0) / (n - 2) / sxx)
    else:
        stderr = 0.0
    return RateFit(slope=slope, intercept=intercept, r_squared=r2,
                   slope_stderr=stderr)


@dataclass(frozen=True)
class DecayFit:
    exponent: float
    r_squared: float
    window: tuple
    resolved: bool = True


def decay_fit(field, ray_direction):
    """Fitted radial decay exponent of |grad field| along a ray.

    Samples the gradient magnitude at 24 geometrically spaced radii along the
    ray, from twice the obstacle's largest radius to 0.8 r_far, and fits
    log|grad| against log r; the reported exponent is the negated slope.
    The contract is one-sided: the theory provides an upper bound on the
    field, hence a lower bound on the exponent.  A field that vanishes
    identically in the window is reported unresolved.
    """
    mesh = field.mesh
    lo, hi = 2.0 * mesh.shape.max_radius, 0.8 * mesh.r_far
    theta = float(ray_direction)
    radii = np.geomspace(lo, hi, 24)
    pts = np.stack([radii * np.cos(theta), radii * np.sin(theta)], axis=1)
    g = mesh.evaluate_gradient(field.values, pts)
    mag = np.linalg.norm(g, axis=1)
    if np.all(mag <= 1e3 * np.finfo(float).tiny):
        return DecayFit(float("nan"), 0.0, (lo, hi), resolved=False)
    keep = mag > 0.0
    f = fit_rate(list(zip(radii[keep], mag[keep])))
    return DecayFit(-f.slope, f.r_squared, (lo, hi))


# ----------------------------------------------------------------------
# Sweep
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SweepSetup:
    """Everything a sweep needs besides the epsilon grid."""

    mesh: object
    gamma: float = 1.4
    q_inf: float = 1.0
    mach_threshold: float = 0.65
    eps_ref: float = 0.45
    force_spec: ForceSpec = ForceSpec("none")
    tol: float = 1e-10
    max_newton: int = 40
    max_backtracks: int = 40
    far_field: str = "dirichlet"


_DECAY_RAY = np.pi / 4.0


@dataclass
class ConvergenceReport:
    """Per-epsilon norms, fitted rates, decay exponents and sensitivities."""

    mode_label: str
    eps_grid: list
    rows: list                   # one dict per epsilon
    slopes: dict                 # name -> RateFit
    decay: dict                  # name -> DecayFit
    eps_c_estimate: float
    uniform_u_ratio: float       # max/min of |u-u_bar|_inf/eps^2, lower half
    energy_uniform_ratio: float  # correction energy vs its largest-eps value
    sensitivity: dict            # "r_far"/"refine" -> {slope deltas}

    def all_converged(self):
        return all(r["converged"] for r in self.rows)


def prepare(setup):
    """(psi, force, cut): what every epsilon of a setup shares.

    The incompressible base flow, the sampled force (None without one) and
    the cut-off, whose thresholds depend on the gas through gamma and q_inf
    only.  The mesh's ``laplacian_cycle``, which preconditions every Newton
    step up to the cut-off reference, is built by the first solve that reads
    it and stays on the mesh.
    """
    mesh = setup.mesh
    force = build_force(setup.force_spec, mesh)
    phi_samples = None if force is None else np.concatenate(
        [force.phi_nodes, force.phi_qpts.ravel()])
    cut = make_cutoff(GasModel(setup.gamma, setup.eps_ref, setup.q_inf),
                      setup.mach_threshold, setup.eps_ref, phi_samples=phi_samples)
    psi = incompressible.solve_incompressible(
        mesh, setup.q_inf, tol=setup.tol, far_field=setup.far_field)
    return psi, force, cut


def solve_epsilon(setup, eps, psi, force, cut):
    """Compressible solve at one epsilon: (FlowState, MinimizeInfo)."""
    gas = GasModel(setup.gamma, float(eps), setup.q_inf)
    corr, info = compressible.minimize(
        psi, force, gas, cut, tol=setup.tol, max_newton=setup.max_newton,
        max_backtracks=setup.max_backtracks)
    return compressible.flow_state(corr, psi, gas, force, cut), info


def _sweep_rows(setup, eps_grid):
    """(psi, report rows, last converged correction or None)."""
    psi, force, cut = prepare(setup)
    rows, last = [], None
    for eps in eps_grid:
        try:
            state, info = solve_epsilon(setup, eps, psi, force, cut)
        except (SolverError, ConfigError) as exc:
            row = {"epsilon": float(eps), "converged": False,
                   "cutoff_removed": False, "cutoff_margin": float("nan"),
                   "error": str(exc)}
        else:
            row = {**state.summary(), "converged": True,
                   "newton_iterations": int(info.iterations)}
            last = state.phi_corr
        rows.append(row)
    return psi, rows, last


def _fit_slopes(rows):
    # every reported slope is fitted from at least 4 epsilon points; with
    # fewer converged rows the slope is simply absent (partial report)
    ok = [r for r in rows if r.get("converged")]
    gap_keys = sorted(k for k in ok[0] if k.startswith("dp_gap_")) if ok else []
    slopes = {}
    for key in ("rho_diff_inf", "u_diff_l2", "mach_max", *gap_keys):
        pairs = [(r["epsilon"], abs(r[key])) for r in ok if abs(r[key]) > 0.0]
        if len(pairs) >= 4:
            slopes[key] = fit_rate(pairs)
    return slopes


def sweep(setup, eps_grid, sensitivity=True):
    """Run the epsilon sweep and assemble a ConvergenceReport.

    Solves the incompressible problem once and the compressible problem per
    epsilon on the same mesh; requires a strictly decreasing positive grid
    of at least 4 points for the slope fits.  Unconverged solves leave
    flagged rows rather than aborting the whole report.  With
    ``sensitivity`` the headline slopes are recomputed with r_far doubled
    and with the mesh refined once, and the deltas stored.
    """
    eps_grid = [float(e) for e in eps_grid]
    if len(eps_grid) < 4:
        raise ConfigError("sweep needs at least 4 epsilon points")
    if any(e <= 0.0 for e in eps_grid) or any(np.diff(eps_grid) >= 0.0):
        raise ConfigError("epsilon grid must be positive and strictly decreasing")
    for eps in eps_grid:        # an epsilon no gas admits fails the whole sweep
        GasModel(setup.gamma, eps, setup.q_inf)

    setup_mesh = setup.mesh
    psi, rows, last = _sweep_rows(setup, eps_grid)
    slopes = _fit_slopes(rows)

    # uniform difference-velocity bound over the lower half of the grid
    lower = [r for r in rows[len(rows) // 2:] if r.get("converged")]
    ratios = [r["u_diff_inf"] / r["epsilon"] ** 2 for r in lower]
    uniform_ratio = max(ratios) / min(ratios) if ratios else float("nan")

    # the correction energy stays within a fixed factor of its value at the
    # largest epsilon (the uniform-in-eps energy bound of the minimizer)
    ok = [r for r in rows if r.get("converged") and r.get("corr_energy", 0) > 0]
    if ok:
        ref = ok[0]["corr_energy"]
        energy_ratio = max(r["corr_energy"] for r in ok) / ref
    else:
        energy_ratio = float("nan")

    removed_eps = [r["epsilon"] for r in rows if r.get("cutoff_removed")]
    eps_c = max(removed_eps) if removed_eps else float("nan")

    decay = {}
    decay["incompressible_grad"] = decay_fit(psi, _DECAY_RAY)
    if last is not None:
        decay["correction_grad"] = decay_fit(last, _DECAY_RAY)

    sens = {}
    if sensitivity:
        # each variant mesh is built when its re-run starts, and only the
        # rows are kept: one variant mesh (and its cycle) alive at a time
        for name, variant in (
            ("r_far", lambda m: geometry.build_mesh(
                m.shape, 2.0 * m.r_far, m.n_r, m.n_t, grading=m.grading,
                mode=m.mode, quad_order=m.quad_order)),
            ("refine", geometry.refined),
        ):
            rows_v = _sweep_rows(replace(setup, mesh=variant(setup_mesh)), eps_grid)[1]
            slopes_v = _fit_slopes(rows_v)
            sens[name] = {
                k: slopes_v[k].slope - slopes[k].slope
                for k in slopes if k in slopes_v
            }

    return ConvergenceReport(
        mode_label=setup_mesh.mode_label,
        eps_grid=eps_grid,
        rows=rows,
        slopes=slopes,
        decay=decay,
        eps_c_estimate=eps_c,
        uniform_u_ratio=float(uniform_ratio),
        energy_uniform_ratio=float(energy_ratio),
        sensitivity=sens,
    )
