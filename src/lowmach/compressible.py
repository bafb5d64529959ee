"""Compressible flow by minimizing the difference functional.

Writing the compressible potential as (incompressible potential) +
epsilon^2 * (correction), the correction is the unique minimizer of the
scaled difference functional

    I(corr) = eps^-4 * int [ G(|grad phi|^2, phi_f) - G(|grad phi_bar|^2, phi_f)
                             - grad phi_bar . (grad phi - grad phi_bar) ] dV.

Evaluating that integrand literally is hopeless for small epsilon (an
eps^-4 scaling of a difference of nearly equal numbers), so it is computed
through its exact algebraic expansion in powers of the correction gradient:

    I = int [ int_0^1 (1-t) g^T A(base + t eps^2 g) g dt
              + departure(|base|^2) * base . g ] dV,

where g is the correction gradient, A(v) = c I - d v v^T the truncated
coefficient matrix, whose (c, d) come from ``gas.coefficients``, and
``departure`` the cancellation-free (rho_hat - 1)/eps^2.  Both terms are
O(1) uniformly in epsilon; the t-integral uses an 8-point Gauss rule, which
is essentially exact while the expansion path stays on the subsonic branch
and degrades gracefully (to ~1e-3 relative) when a state is wild enough to
cross the cut-off's C^1 kinks -- harmless, since the gradient/Hessian come
from the closure directly and a functional value decides only an Armijo
line search, the fallback of the step acceptance, and the reported energy.

The minimizer is found by an inexact Newton method: the Hessian, the same
coefficient matrix at the state, assembled in weak form in its rank-one
form (``DifferenceProblem.hessian``), full steps accepted by a convexity
certificate up to the cut-off reference and by an Armijo backtracking line
search otherwise, and a preconditioned conjugate-gradient inner solve
(``fem.pcg``) taken only to a forcing tolerance proportional to the
gradient norm (see ``minimize``).  For epsilon at or below the cut-off
reference the Hessian is uniformly elliptic, with eigenvalues in a band
around the Laplacian's fixed for all states and epsilons, so the mesh's
Laplacian solver (an exact solve) preconditions every Newton solve and
each takes about as many iterations on every mesh: 3-7 on a circle mesh.
Beyond the reference (allowed, but outside the regime where the truncated
problem is convex) each step factors its own Hessian, and a Hessian that
is not positive definite triggers a diagonal regularization so the
iteration still reaches a stationary point.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import fem
from .errors import ConfigError, DomainError, SolverError
from .gas import (
    closure,
    coefficients,
    density_bounds,
    density_departure,
    density_from_speed,
    enthalpy,
    level_departure,
)
from .incompressible import PotentialField, velocity_at_qpts

__all__ = [
    "FlowState",
    "DifferenceProblem",
    "minimize",
    "flow_state",
    "station_mass_flux",
]

_ARMIJO_C = 1e-4
_MAX_BACKTRACKS = 40
# Floor of the inner CG solve's relative residual (see ``minimize``).
_LIN_TOL = 1e-12
# Resolution of a functional value, relative to its size.
_ENERGY_RESOLUTION = 4.0 * np.finfo(float).eps


def _dot(a, b):
    # scalar product over a last axis of length 2; a sum over it is slower
    return a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1]


def _check_cutoff_gas(gas, cut):
    """Reject a cut-off whose thresholds were built for another gas: they
    depend on gamma and q_inf (not on epsilon)."""
    for name in ("gamma", "q_inf"):
        if getattr(cut, name) != getattr(gas, name):
            raise ConfigError(
                f"cut-off built for {name} = {getattr(cut, name)!r}, "
                f"but the gas has {name} = {getattr(gas, name)!r}")


def _at(field, cells):
    """A per-point field over a slice of cells; a scalar stays as it is."""
    return field if np.ndim(field) == 0 else field[cells]


def _velocity(psi_base, corr, gas, cells):
    """(base velocity, correction gradient, base + eps^2 times the latter)
    at the quadrature points of the slice ``cells``."""
    base = velocity_at_qpts(psi_base, gas.q_inf, cells)
    g = fem.grad_at_qpts(psi_base.mesh, corr, cells)
    return base, g, base + gas.epsilon**2 * g


class DifferenceProblem:
    """Discrete difference functional on a fixed mesh and base flow."""

    def __init__(self, psi_base, force, gas, cut, t_order=8):
        self.mesh = psi_base.mesh
        self.psi_base = psi_base
        self.gas = gas
        self.cut = cut
        # force potential at the quadrature points; a scalar 0 without a
        # force keeps the closure's cut-off thresholds scalar
        self.phi = 0.0 if force is None else force.phi_qpts
        tn, tw = np.polynomial.legendre.leggauss(t_order)
        self.t_nodes, self.t_weights = 0.5 * (tn + 1.0), 0.5 * tw

    def functional(self, corr):
        """Value of the difference functional at a nodal correction.

        Zero at zero correction; depends on the correction only through its
        gradient, so adding a constant changes nothing (gauge invariance).
        """
        eps2 = self.gas.epsilon**2
        total = 0.0
        for cells in fem.cell_blocks(*self.mesh.qweights.shape):
            g = fem.grad_at_qpts(self.mesh, corr, cells)
            base, phi = velocity_at_qpts(self.psi_base, self.gas.q_inf, cells), _at(self.phi, cells)
            base_sq = _dot(base, base)
            g_sq = _dot(g, g)
            base_dot_g = _dot(base, g)
            quad = np.zeros_like(g_sq)
            for t, w in zip(self.t_nodes, self.t_weights):
                # v = base + t eps^2 g, through its scalar products
                s = t * eps2
                lam = base_sq + s * (2.0 * base_dot_g + s * g_sq)
                v_dot_g = base_dot_g + s * g_sq
                c, d = coefficients(lam, phi, self.gas, self.cut)
                quad += (w * (1.0 - t)) * (c * g_sq - d * v_dot_g**2)
            integrand = quad + density_departure(base_sq, phi, self.gas, self.cut) * base_dot_g
            total += np.sum(self.mesh.qweights[cells] * integrand)
        return float(total)

    def gradient(self, corr):
        """Nodal gradient: component k is int [D(|v|^2) v + g] . grad(N_k)."""
        def load(cells):
            _, g, v = _velocity(self.psi_base, corr, self.gas, cells)
            dep = density_departure(_dot(v, v), _at(self.phi, cells), self.gas, self.cut)
            return dep[..., None] * v + g

        return fem.assemble_vector_load(self.mesh, load)

    def hessian(self, corr):
        """Weak-form Hessian: the truncated coefficient matrix c I - d v v^T
        at the state v (``gas.coefficients``), assembled in that rank-one
        form.  Up to the cut-off reference, an eigenvalue below ``cut.lam1``
        at any quadrature point raises SolverError."""
        def coef(cells):
            v = _velocity(self.psi_base, corr, self.gas, cells)[2]
            lam = _dot(v, v)
            c, d = coefficients(lam, _at(self.phi, cells), self.gas, self.cut)
            if self.gas.epsilon <= self.cut.eps_ref:
                # the pointwise eigenvalues, on whose bound ``minimize`` relies
                low = float(np.minimum(np.min(c), np.min(c - d * lam)))   # NaN propagates
                if not low >= self.cut.lam1:
                    raise SolverError(
                        f"Hessian eigenvalue {low!r} below lam1 = {self.cut.lam1!r} "
                        f"at epsilon {self.gas.epsilon!r}")
            return c, d, v

        return fem.assemble_matrix(self.mesh, coef)


@dataclass
class MinimizeInfo:
    iterations: int
    gradient_norms: list
    energy: float               # the functional at the returned correction
    step_sizes: list
    accepted_by: list           # per step: "certificate" or "armijo"
    regularized: bool
    cg_iterations: list
    relative_target: float = float("nan")


# Beyond the cut-off reference the truncated equation changes type across
# the blending band; high-precision first-order stationarity is unreachable
# there, so those (flagged) runs target this relative gradient norm instead.
_BEYOND_REFERENCE_TOL = 1e-3


def _line_search(prob, x, d, energy, slope, max_backtracks):
    if 0.0 < -slope <= _ENERGY_RESOLUTION * abs(energy):
        # the predicted decrease is below what the energy resolves, so the
        # Armijo test would only compare round-off: take the full step
        return 1.0, prob.functional(x + d)
    alpha = 1.0
    for _ in range(max_backtracks):
        trial = prob.functional(x + alpha * d)
        if trial <= energy + _ARMIJO_C * alpha * slope:
            return alpha, trial
        alpha *= 0.5
    return None, None


def minimize(psi_base, force, gas, cut, tol=1e-10, max_newton=40,
             max_backtracks=_MAX_BACKTRACKS, initial=None):
    """Minimize the difference functional; returns (correction, info).

    Newton iteration; convergence when the free-dof gradient norm falls
    below ``tol`` relative to its initial value.  Step k solves its Newton
    system by CG only to the inexact-Newton forcing

        eta_k = min(|g_k| / |g_0|, 0.01 sqrt(relative target)),

    floored at 1e-12 (Dembo, Eisenstat & Steihaug, SIAM J. Numer. Anal. 19,
    1982; Eisenstat & Walker, SIAM J. Sci. Comput. 17, 1996): eta_k =
    O(|g_k|) keeps Newton's quadratic rate, and the cap keeps the first steps
    as accurate as the target needs.  The minimizer is unique for epsilon <=
    the cut-off reference (uniform convexity), so restarts from different
    initial guesses must agree.  There every Hessian has its eigenvalues in
    [cut.lam1, cut.lam2], so the mesh's ``laplacian_cycle`` (the exact
    Laplacian solve on a circle mesh) preconditions every Newton solve.  For
    epsilon beyond the reference the Hessian may lose definiteness on the
    blending band; each step then factors its own Hessian
    (``fem.StationCholesky``, one CG iteration), whose pivots detect that
    exactly, a Hessian that is not positive definite triggers diagonal
    regularization, and the gradient target is relaxed
    (and recorded in the diagnostics).  Each CG solve starts from zero on an
    SPD matrix, so every Newton direction descends.  Every SolverError it
    raises names the epsilon.

    Up to the reference I is lam1-strongly convex in d^T K d = int |grad d|^2
    w (K the Laplacian), so phi(a) = I(x + a d) has phi(1) <= phi(0) +
    phi'(1) - (lam1/2) d^T K d: the full step meets the Armijo condition
    without evaluating I when phi'(1) - (lam1/2) d^T K d <= c phi'(0), phi'(1)
    read from the gradient at x + d that the next step needs anyway.  That
    certificate rests on lam1 bounding the Hessian's eigenvalues (which
    ``DifferenceProblem.hessian`` checks) and on the gradient being the
    derivative of I, exact only up to the t-rule's quadrature error.  Where
    it fails, and beyond the reference, an Armijo backtracking search takes
    the step and raises SolverError if it fails.  I(0) = 0 is not evaluated;
    the returned ``energy`` must lie below it and below I(x_0) + c sum_k
    alpha_k phi_k'(0), the decrease the accepted steps certified.
    """
    _check_cutoff_gas(gas, cut)
    prob = DifferenceProblem(psi_base, force, gas, cut)
    mesh = prob.mesh
    at_eps = f"at epsilon {gas.epsilon!r}"
    x = (np.zeros(mesh.n_nodes) if initial is None
         else np.asarray(initial, dtype=float).copy())
    x[mesh.sigma_nodes] = 0.0
    beyond_reference = gas.epsilon > cut.eps_ref
    cycle = mesh.laplacian_cycle
    free = cycle.free.ravel()   # 0 on the far-field station
    rel_target = max(tol, _BEYOND_REFERENCE_TOL) if beyond_reference else tol
    max_forcing = 0.01 * math.sqrt(rel_target)

    # the functional of the zero correction is exactly 0; None below means
    # the functional at x is not known
    energy = 0.0 if initial is None else prob.functional(x)
    certified = energy              # I(x_0) + c sum_k alpha_k slope_k
    allowance = 1e-12 * max(1.0, abs(energy))
    grad = free * prob.gradient(x)
    gn0 = float(np.linalg.norm(grad))
    gn = gn0
    info = MinimizeInfo(0, [gn], None, [], [], False, [],
                        relative_target=rel_target)
    target = rel_target * gn0

    for it in itertools.count():
        if gn <= target:
            break
        if it >= max_newton:
            raise SolverError(
                f"Newton did not reach relative tolerance {rel_target:g} "
                f"in {max_newton} iterations {at_eps}", info.gradient_norms)
        h = prob.hessian(x)
        eta = max(_LIN_TOL, min(gn / gn0, max_forcing))
        tau = 0.0
        while True:
            try:
                hmat = h
                if tau > 0.0:
                    hmat = h.copy()
                    hmat[1, 1] += tau * np.abs(h[1, 1]) + tau
                d, cg_hist = fem.pcg(
                    hmat, -grad,
                    fem.StationCholesky(cycle.free, hmat) if beyond_reference else cycle,
                    tol=eta)
                break
            except SolverError:
                if not beyond_reference:
                    raise SolverError(
                        "Hessian lost positive definiteness below the cut-off "
                        f"reference epsilon {at_eps}", info.gradient_norms)
                info.regularized = True
                tau = 1e-6 if tau == 0.0 else 10.0 * tau
                if tau > 1e6:
                    raise SolverError(f"Hessian regularization failed {at_eps}",
                                      info.gradient_norms)
        info.cg_iterations.append(len(cg_hist) - 1)

        slope = float(grad @ d)
        alpha, full_grad, accepted = 1.0, None, "armijo"
        if not beyond_reference:
            full_grad = free * prob.gradient(x + d)
            curvature = float(d @ cycle.op(d))
            if float(full_grad @ d) - 0.5 * cut.lam1 * curvature <= _ARMIJO_C * slope:
                energy, accepted = None, "certificate"
        if accepted == "armijo":
            if energy is None:
                energy = prob.functional(x)
            alpha, energy = _line_search(prob, x, d, energy, slope, max_backtracks)
            if alpha is None:
                raise SolverError(f"line search failed at Newton iteration {it} {at_eps}",
                                  info.gradient_norms)
        info.accepted_by.append(accepted)
        x = x + alpha * d
        certified += _ARMIJO_C * alpha * slope
        grad = full_grad if alpha == 1.0 and full_grad is not None \
            else free * prob.gradient(x)
        gn = float(np.linalg.norm(grad))
        info.iterations = it + 1
        info.gradient_norms.append(gn)
        info.step_sizes.append(alpha)

    info.energy = prob.functional(x) if energy is None else energy
    # audit: never above what the accepted steps certified, nor above I(0) = 0
    if info.energy > min(certified, 0.0) + allowance:
        raise SolverError(f"minimizer energy {info.energy!r} above I(0) = 0 or "
                          f"the certified bound {certified!r} {at_eps}", info.gradient_norms)
    return PotentialField(mesh, x, name="compressibility_correction"), info


# ----------------------------------------------------------------------
# Flow state reconstruction
# ----------------------------------------------------------------------


@dataclass
class FlowState:
    """Norms, weak pressure gaps and cut-off margin of a converged correction.

    ``cutoff_margin`` is the smallest gap between the blending-onset speed
    and the local flow speed.  When it is positive the cut-off is removed:
    the minimizer of the truncated problem is a solution of the original
    subsonic potential equation.
    """

    gas: object
    psi_base: PotentialField
    phi_corr: PotentialField
    force: object               # ForceField or None
    cut: object                 # the cut-off the correction minimized under
    cutoff_margin: float
    truncated_regime: bool
    norms: dict
    dp_gap: dict

    def summary(self):
        """The per-epsilon record: a sweep row and ``state_eps*.json`` are
        this plus their own keys."""
        out = {
            "epsilon": self.gas.epsilon,
            "cutoff_removed": bool(self.cutoff_margin > 0.0),
            "cutoff_margin": self.cutoff_margin,
        }
        out.update({k: float(v) for k, v in self.norms.items()})
        out.update({f"dp_gap_{k}": float(v) for k, v in self.dp_gap.items()})
        return out


def flow_state(phi_corr, psi_base, gas, force, cut):
    """Derive the norms of (rho, u, M), the weak pressure gaps and cut-off diagnostics.

    The velocity is the base gradient plus eps^2 times the correction
    gradient; density follows from the Bernoulli branch (identical to the
    truncated one whenever the cut-off margin is positive, in which case the
    state solves the untruncated problem).  A state whose speeds enter the
    blending region is flagged ``truncated_regime`` and keeps the truncated
    density, which is defined for every speed.  Runs over blocks of cells
    (``fem.cell_blocks``) and combines their checks, norms and gap integrals.
    """
    _check_cutoff_gas(gas, cut)
    mesh = psi_base.mesh
    phi = 0.0 if force is None else force.phi_qpts
    eps2 = gas.epsilon**2
    margin, failed, energy, gaps = math.inf, set(), 0.0, 0.0
    grad_sq_max = dep_max = mach_max = 0.0
    for cells in fem.cell_blocks(*mesh.qweights.shape):
        base, corr_grad, u = _velocity(psi_base, phi_corr.values, gas, cells)
        dep, m, block_margin, block_failed = _pointwise_state(u, _at(phi, cells), gas, cut)
        margin, failed = min(margin, block_margin), failed | block_failed
        grad_sq = _dot(corr_grad, corr_grad)
        energy += np.sum(mesh.qweights[cells] * grad_sq)
        grad_sq_max, dep_max = max(grad_sq_max, np.max(grad_sq)), max(dep_max, np.max(np.abs(dep)))
        mach_max = max(mach_max, np.max(m))
        gaps += _weak_dp_gaps(mesh, cells, eps2, base, corr_grad, u, dep, force)
    truncated = margin <= 0.0
    failed -= {0, 1, 3} if truncated else set()
    if failed:
        raise SolverError(_CHECKS[min(failed)])

    grad_inf = np.sqrt(grad_sq_max)      # sqrt is monotone: max of the norms
    dp_gap = {k: float(eps2 * v) for k, v in zip(("radial", "aligned", "quadrupole"), gaps)}
    norms = {
        "u_diff_l2": float(eps2 * np.sqrt(energy)),
        "u_diff_inf": float(eps2 * grad_inf),
        "rho_diff_inf": float(eps2 * dep_max),
        "mach_max": float(mach_max),
        "corr_energy": float(energy),
        "corr_grad_inf": float(grad_inf),
        "dp_gap_max": max(abs(v) for v in dp_gap.values()),
    }
    return FlowState(
        gas=gas, psi_base=psi_base, phi_corr=phi_corr, force=force, cut=cut,
        cutoff_margin=margin, truncated_regime=truncated,
        norms=norms, dp_gap=dp_gap,
    )


# The checks of ``_pointwise_state``, in the order they are reported; 0, 1
# and 3 hold in the removal region, so they count only if the margin is positive.
_CHECKS = ("truncated and Bernoulli densities disagree inside the removal region",
           "Bernoulli residual above tolerance",
           "density left its two-sided closure bound",
           "supersonic point inside the removal region")


def _pointwise_state(u, phi, gas, cut):
    """(departure, Mach number, cut-off margin, failed checks: indices into
    ``_CHECKS``) at the velocities ``u`` of a block of cells; the checks of
    the removal region run where the block's margin is positive."""
    eps2 = gas.epsilon**2
    speed = np.sqrt(_dot(u, u))
    lam = speed**2
    margin = float(np.min(np.asarray(cut.q_lower(phi)) - speed))

    qhat, _, rho, slope = closure(lam, phi, gas, cut)
    dep = level_departure(qhat, gas)
    m = np.divide(gas.epsilon * speed, np.sqrt(slope, out=slope), out=slope)
    bad = {}
    if margin > 0.0:
        rho_b = np.asarray(density_from_speed(lam, phi, gas))
        bad[0] = not np.allclose(rho, rho_b, rtol=1e-12, atol=1e-14)
        # Bernoulli residual, pointwise
        res = eps2 * (lam - gas.q_inf**2) / 2.0 + enthalpy(rho, gas) - eps2 * phi
        bad[1] = float(np.max(np.abs(res))) > 1e-10
        bad[3] = float(np.max(m)) >= 1.0
    if gas.epsilon <= cut.eps_ref:
        # two-sided density bound, uniform over epsilon up to the reference
        low, high = density_bounds(gas, cut)
        bad[2] = not (np.all(rho > low) and np.all(rho <= high * (1.0 + 1e-12)))
    return dep, m, margin, {k for k, b in bad.items() if b}


# ----------------------------------------------------------------------
# Weak pressure-gradient comparison
# ----------------------------------------------------------------------


def _weak_dp_gaps(mesh, cells, eps2, base, c, u, dep, force):
    """The integrals over the slice ``cells`` of eps^-2 <grad p - grad p_bar, w>
    for three fixed smooth test fields w (radial, aligned, quadrupole),
    evaluated stably from scalar products alone.

    Each field is w = f a, a compactly supported radial bump g(r) times an
    angular factor Y(mu), mu = x1 / r, along a unit direction a, chosen so
    that none of the pairings vanishes by reflection symmetry of the
    force-free flow:

        radial      f = g,                     a = rhat,
        aligned     f = g mu,                  a = e1 (the stream direction),
        quadrupole  f = g (3 mu^2 - 1) / 2,    a = rhat.

    The momentum-flux difference is exactly eps^2 times the symmetric

        T = base x corr + corr x base + departure * u x u + eps^2 corr x corr,

    so the pairing integral(T : grad w + departure * grad(phi_f) . w) is the
    eps^-2 scaled gap; the reported gap carries the eps^2 factor.  The force
    difference (rho - 1) grad(phi_f) is included.  For w = f a,

        T : grad(f a) = (T a) . grad f + f T : grad a,

    with T : grad e1 = 0 and T : grad rhat = (tr T - rhat . T rhat) / r, and
    grad f = Y g' rhat + g Y' grad mu, grad mu = (e1 - mu rhat) / r.  So the
    pairing of each field is

        Y g' (T a . rhat) + g Y' (T a . e1 - mu T a . rhat) / r
            + f (T : grad a + departure grad(phi_f) . a).

    T is symmetric, so this needs only its three components T_rr, T_r1 and
    T_11 in the directions rhat and e1, each a sum of scalar products:

        (T x) . y = (base.x + eps^2 corr.x) corr.y + (corr.x) base.y
                    + departure (u.x)(u.y).

    No vector or tensor field is formed beyond the block's own velocities.
    Here ``c`` is the correction gradient, ``u`` the velocity and ``dep``
    the departure at the quadrature points of ``cells``.  Without a force
    (``force`` None) the force term is dropped.
    """
    x1, x2 = mesh.qpts[cells, :, 0], mesh.qpts[cells, :, 1]
    r = np.hypot(x1, x2)
    mu = x1 / r
    r0 = 1.5 * mesh.shape.max_radius
    r1 = 0.7 * mesh.r_far
    s = np.clip((r - r0) / (r1 - r0), 0.0, 1.0)
    g = np.sin(np.pi * s) ** 2
    gp = np.where((s > 0.0) & (s < 1.0),
                  np.pi / (r1 - r0) * np.sin(2.0 * np.pi * s), 0.0)
    del s

    def along_r(z):
        return (z[..., 0] * x1 + z[..., 1] * x2) / r

    # the components of base, corr and u along rhat and e1
    radial = [along_r(z) for z in (base, c, u)]
    stream = [z[..., 0] for z in (base, c, u)]

    def t_dot(x, y):
        # (T x) . y from those components along x and y
        (b_x, c_x, u_x), (b_y, c_y, u_y) = x, y
        return (b_x + eps2 * c_x) * c_y + c_x * b_y + dep * u_x * u_y

    t_rr, t_r1, t_11 = t_dot(radial, radial), t_dot(radial, stream), t_dot(stream, stream)
    del radial
    trace = 2.0 * _dot(base, c) + dep * _dot(u, u) + eps2 * _dot(c, c)
    # per direction a, the factor of f: T : grad a + dep grad(phi_f) . a (None if 0)
    coef_r, coef_1 = (trace - t_rr) / r, None
    del trace
    if force is not None:
        grad_f = force.grad_qpts[cells]
        coef_r += dep * along_r(grad_f)
        coef_1 = dep * grad_f[..., 0]

    def gap(y, dy, t_a, t_a1, coef):
        # the pairing of f a, f = g Y, from T a . rhat, T a . e1 and coef
        pair = y * gp * t_a + dy * g * (t_a1 - mu * t_a) / r
        if coef is not None:
            pair += g * y * coef
        return np.sum(mesh.qweights[cells] * pair)

    q2 = 1.5 * mu**2 - 0.5
    return np.array([gap(1.0, 0.0, t_rr, t_r1, coef_r),
                     gap(mu, 1.0, t_r1, t_11, coef_1),
                     gap(q2, 3.0 * mu, t_rr, t_r1, coef_r)])


def station_mass_flux(state, station):
    """Discrete mass flux through the radial station (weak, residual form).

    Sums int rho u . grad(N_k) over all nodes strictly inside the station;
    by the discrete divergence-free property the value is independent of the
    station up to the solver tolerance.  rho u is formed per block of cells.
    """
    mesh = state.psi_base.mesh
    if not 0 < station <= mesh.n_r:
        raise DomainError("station must lie in (0, n_r]")
    phi = 0.0 if state.force is None else state.force.phi_qpts

    def load(cells):
        u = _velocity(state.psi_base, state.phi_corr.values, state.gas, cells)[2]
        rho = closure(_dot(u, u), _at(phi, cells), state.gas, state.cut)[2]
        return rho[..., None] * u

    res = fem.assemble_vector_load(mesh, load)
    n_th = mesh.node_grid[1]
    inner = np.arange(0, station * n_th)
    return float(res[inner].sum())
