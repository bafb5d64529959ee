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
cross the cut-off's C^1 kinks -- harmless, since only the line search
consumes functional values and the gradient/Hessian come from the closure
directly.

The minimizer is found by an inexact Newton method: the Hessian, the same
coefficient matrix at the state, assembled in weak form in its rank-one
form (``DifferenceProblem.hessian``), an Armijo backtracking line search,
and a multigrid-preconditioned conjugate-gradient inner solve (``fem.pcg``)
taken only to a forcing tolerance proportional to the gradient norm (see
``minimize``).  For epsilon at or below the cut-off reference the Hessian
is uniformly elliptic, with eigenvalues in a band around the Laplacian's
fixed for all states and epsilons, so one V-cycle of the mesh's Laplacian
preconditions every Newton solve and each takes about as many iterations on
every mesh.  Beyond the reference (allowed, but outside the regime where the
truncated problem is convex) each step builds the cycle of its own Hessian,
and negative curvature triggers a diagonal regularization so the iteration
still reaches a stationary point.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import fem
from .errors import DomainError, SolverError
from .gas import (
    closure,
    coefficients,
    density_bounds,
    density_departure,
    density_from_speed,
    enthalpy,
    level_departure,
)
from .incompressible import PotentialField, VelocityField, velocity

__all__ = [
    "FlowState",
    "DifferenceProblem",
    "minimize",
    "flow_state",
    "build_test_panel",
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


class DifferenceProblem:
    """Discrete difference functional on a fixed mesh and base flow."""

    def __init__(self, psi_base, force, gas, cut, t_order=8):
        mesh = psi_base.mesh
        self.mesh = mesh
        self.gas = gas
        self.cut = cut
        # force potential at the quadrature points; a scalar 0 without a
        # force keeps the closure's cut-off thresholds scalar
        self.phi = 0.0 if force is None else force.phi_qpts
        base = velocity(psi_base, gas.q_inf).at_qpts
        self.base = base                               # grad of incompressible potential
        self.base_sq = _dot(base, base)
        self.base_departure = density_departure(self.base_sq, self.phi, gas, cut)
        tn, tw = np.polynomial.legendre.leggauss(t_order)
        self.t_nodes, self.t_weights = 0.5 * (tn + 1.0), 0.5 * tw

    def functional(self, corr):
        """Value of the difference functional at a nodal correction.

        Zero at zero correction; depends on the correction only through its
        gradient, so adding a constant changes nothing (gauge invariance).
        """
        g = fem.grad_at_qpts(self.mesh, np.asarray(corr, dtype=float))
        eps2 = self.gas.epsilon**2
        g_sq = _dot(g, g)
        base_dot_g = _dot(self.base, g)
        quad = np.zeros_like(g_sq)
        for t, w in zip(self.t_nodes, self.t_weights):
            # v = base + t eps^2 g, through its scalar products
            s = t * eps2
            lam = self.base_sq + s * (2.0 * base_dot_g + s * g_sq)
            v_dot_g = base_dot_g + s * g_sq
            c, d = coefficients(lam, self.phi, self.gas, self.cut)
            quad += (w * (1.0 - t)) * (c * g_sq - d * v_dot_g**2)
        integrand = quad + self.base_departure * base_dot_g
        return float(np.sum(self.mesh.qweights * integrand))

    def gradient(self, corr):
        """Nodal gradient: component k is int [D(|v|^2) v + g] . grad(N_k)."""
        g = fem.grad_at_qpts(self.mesh, np.asarray(corr, dtype=float))
        v = self.base + self.gas.epsilon**2 * g
        dep = density_departure(_dot(v, v), self.phi, self.gas, self.cut)
        return fem.assemble_vector_load(self.mesh, dep[..., None] * v + g)

    def hessian(self, corr):
        """Weak-form Hessian: the truncated coefficient matrix c I - d v v^T
        at the state v (``gas.coefficients``), assembled in that rank-one
        form."""
        v = fem.grad_at_qpts(self.mesh, np.asarray(corr, dtype=float))
        v *= self.gas.epsilon**2
        v += self.base
        return fem.assemble_matrix(
            self.mesh, *coefficients(_dot(v, v), self.phi, self.gas, self.cut), v)


@dataclass
class MinimizeInfo:
    converged: bool
    iterations: int
    gradient_norms: list
    energies: list
    step_sizes: list
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

    Newton iteration with Armijo backtracking; convergence when the free-dof
    gradient norm falls below ``tol`` relative to its initial value.  Step k
    solves its Newton system by CG only to the inexact-Newton forcing

        eta_k = min(|g_k| / |g_0|, 0.01 sqrt(relative target)),

    floored at 1e-12 (Dembo, Eisenstat & Steihaug, SIAM J. Numer. Anal. 19,
    1982; Eisenstat & Walker, SIAM J. Sci. Comput. 17, 1996): eta_k =
    O(|g_k|) keeps Newton's quadratic rate, and the cap keeps the first steps
    as accurate as the target needs.  The minimizer is unique for epsilon <=
    the cut-off reference (uniform convexity), so restarts from different
    initial guesses must agree.  There every Hessian has its eigenvalues in
    [cut.lam1, cut.lam2], so the mesh's ``laplacian_cycle`` preconditions
    every Newton solve.  For epsilon beyond the reference the Hessian may
    lose definiteness on the blending band; each step then builds the cycle
    of its own Hessian on the same hierarchy, whose pivots detect that,
    negative curvature triggers diagonal regularization, a failed Newton
    line search falls back to preconditioned descent, and the gradient
    target is relaxed (and recorded in the diagnostics).
    """
    prob = DifferenceProblem(psi_base, force, gas, cut)
    mesh = prob.mesh
    x = (np.zeros(mesh.n_nodes) if initial is None
         else np.asarray(initial, dtype=float).copy())
    x[mesh.sigma_nodes] = 0.0
    beyond_reference = gas.epsilon > cut.eps_ref
    cycle = mesh.laplacian_cycle
    free = cycle.grid.levels[0].ravel()     # 0 on the far-field station
    rel_target = max(tol, _BEYOND_REFERENCE_TOL) if beyond_reference else tol
    max_forcing = 0.01 * math.sqrt(rel_target)

    energy = prob.functional(x)
    grad = free * prob.gradient(x)
    gn0 = float(np.linalg.norm(grad))
    gn = gn0
    info = MinimizeInfo(False, 0, [gn], [energy], [], False, [],
                        relative_target=rel_target)
    if gn0 == 0.0:
        info.converged = True
        return PotentialField(mesh, x, name="compressibility_correction"), info
    target = rel_target * gn0

    for it in range(max_newton):
        if gn <= target:
            info.converged = True
            break
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
                    hmat, -grad, fem.VCycle(cycle.grid, hmat) if beyond_reference else cycle,
                    tol=eta)
                break
            except SolverError:
                if not beyond_reference:
                    raise SolverError(
                        "Hessian lost positive definiteness below the cut-off "
                        "reference epsilon", info.gradient_norms)
                info.regularized = True
                tau = 1e-6 if tau == 0.0 else 10.0 * tau
                if tau > 1e6:
                    raise SolverError("Hessian regularization failed",
                                      info.gradient_norms)
        info.cg_iterations.append(len(cg_hist) - 1)

        slope = float(grad @ d)
        alpha, trial = _line_search(prob, x, d, energy, slope, max_backtracks)
        if alpha is None:
            # fall back to preconditioned steepest descent for this step
            d = -grad / np.maximum(h[1, 1].ravel(), 1e-12)
            slope = float(grad @ d)
            alpha, trial = _line_search(prob, x, d, energy, slope, max_backtracks)
            if alpha is None:
                raise SolverError(
                    f"line search failed at Newton iteration {it}",
                    info.gradient_norms)
        x = x + alpha * d
        energy = trial
        grad = free * prob.gradient(x)
        gn = float(np.linalg.norm(grad))
        info.iterations = it + 1
        info.gradient_norms.append(gn)
        info.energies.append(energy)
        info.step_sizes.append(alpha)
    else:
        if gn > target:
            raise SolverError(
                f"Newton did not reach relative tolerance {rel_target:g} "
                f"in {max_newton} iterations", info.gradient_norms)
        info.converged = True

    # minimizer optimality: never above the zero-correction value
    if energy > 1e-12 * max(1.0, abs(info.energies[0])):
        raise SolverError("minimizer energy above I(0) = 0", info.energies)
    return PotentialField(mesh, x, name="compressibility_correction"), info


# ----------------------------------------------------------------------
# Flow state reconstruction
# ----------------------------------------------------------------------


@dataclass
class FlowState:
    """Full compressible state derived from the converged correction.

    ``cutoff_margin`` is the smallest gap between the blending-onset speed
    and the local flow speed.  When it is positive the cut-off is removed:
    the minimizer of the truncated problem is a solution of the original
    subsonic potential equation.
    """

    gas: object
    psi_base: PotentialField
    phi_corr: PotentialField
    u: VelocityField
    rho: np.ndarray             # (M, Q)
    departure: np.ndarray       # (rho - 1)/eps^2, cancellation-free
    mach: np.ndarray            # (M, Q)
    corr_grad: np.ndarray       # (M, Q, 2)
    cutoff_margin: float
    truncated_regime: bool
    norms: dict
    dp_gap: dict

    def summary(self):
        out = {
            "epsilon": self.gas.epsilon,
            "cutoff_removed": bool(self.cutoff_margin > 0.0),
            "cutoff_margin": self.cutoff_margin,
            "truncated_regime": self.truncated_regime,
        }
        out.update({k: float(v) for k, v in self.norms.items()})
        out.update({f"dp_gap_{k}": float(v) for k, v in self.dp_gap.items()})
        return out


def flow_state(phi_corr, psi_base, gas, force, cut):
    """Derive (rho, u, M) fields, the weak pressure gaps and cut-off diagnostics.

    The velocity is the base gradient plus eps^2 times the correction
    gradient; density follows from the Bernoulli branch (identical to the
    truncated one whenever the cut-off margin is positive, in which case the
    state solves the untruncated problem).  A state whose speeds enter the
    blending region is flagged ``truncated_regime`` and keeps the truncated
    density, which is defined for every speed.
    """
    mesh = psi_base.mesh
    phi = 0.0 if force is None else force.phi_qpts
    eps2 = gas.epsilon**2
    corr_grad = fem.grad_at_qpts(mesh, phi_corr.values)
    base = velocity(psi_base, gas.q_inf).at_qpts
    u = base + eps2 * corr_grad
    rho, dep, m, margin = _pointwise_state(u, phi, gas, cut)
    truncated = margin <= 0.0

    grad_sq = _dot(corr_grad, corr_grad)
    energy = np.sum(mesh.qweights * grad_sq)
    grad_inf = np.sqrt(np.max(grad_sq))      # sqrt is monotone: max of the norms
    del grad_sq                              # gone before the pressure gaps
    norms = {
        "u_diff_l2": float(eps2 * np.sqrt(energy)),
        "u_diff_inf": float(eps2 * grad_inf),
        "rho_diff_inf": float(eps2 * np.max(np.abs(dep))),
        "mach_max": float(np.max(m)),
        "corr_energy": float(energy),
        "corr_grad_inf": float(grad_inf),
    }

    state = FlowState(
        gas=gas, psi_base=psi_base, phi_corr=phi_corr,
        u=VelocityField(mesh, u),
        rho=rho, departure=np.asarray(dep), mach=np.asarray(m),
        corr_grad=corr_grad,
        cutoff_margin=margin, truncated_regime=truncated,
        norms=norms, dp_gap={},
    )
    state.dp_gap = _weak_dp_gaps(state, base, force)
    state.norms["dp_gap_max"] = max(abs(v) for v in state.dp_gap.values())
    return state


def _pointwise_state(u, phi, gas, cut):
    """(rho, departure, Mach number, cut-off margin) at the velocities ``u``,
    checked as ``flow_state`` describes; its temporaries are gone before the
    pressure gaps are evaluated."""
    eps2 = gas.epsilon**2
    speed = np.sqrt(_dot(u, u))
    lam = speed**2

    q_low = np.asarray(cut.q_lower(phi))
    margin = float(np.min(q_low - speed))
    truncated = margin <= 0.0

    qhat, _, rho, slope = closure(lam, phi, gas, cut)
    dep = level_departure(qhat, gas)
    if not truncated:
        rho_b = np.asarray(density_from_speed(lam, phi, gas))
        if not np.allclose(rho, rho_b, rtol=1e-12, atol=1e-14):
            raise SolverError("truncated and Bernoulli densities disagree "
                              "inside the removal region")
        # Bernoulli residual, pointwise
        res = eps2 * (lam - gas.q_inf**2) / 2.0 + enthalpy(rho, gas) - eps2 * phi
        if float(np.max(np.abs(res))) > 1e-10:
            raise SolverError("Bernoulli residual above tolerance")
    if gas.epsilon <= cut.eps_ref:
        # two-sided density bound, uniform over epsilon up to the reference
        low, high = density_bounds(gas, cut)
        if not (np.all(rho > low) and np.all(rho <= high * (1.0 + 1e-12))):
            raise SolverError("density left its two-sided closure bound")

    m = np.divide(gas.epsilon * speed, np.sqrt(slope, out=slope), out=slope)
    if not truncated and float(np.max(m)) >= 1.0:
        raise SolverError("supersonic point inside the removal region")
    return rho, dep, m, margin


# ----------------------------------------------------------------------
# Weak pressure-gradient comparison
# ----------------------------------------------------------------------


def build_test_panel(mesh):
    """Fixed smooth test fields for the weak pressure-gradient pairing.

    Compactly supported radial bump g(r) times three angular structures
    chosen so that none of the pairings vanishes by reflection symmetry of
    the force-free flow.  Each field is a scalar times a unit direction,
    w = f v, returned as {name: (f, grad_f, v)} at quadrature points with v
    naming the direction: "rhat" (radial) or "e1" (the stream direction).
    """
    pts = mesh.qpts
    x1 = pts[..., 0]
    r = np.hypot(x1, pts[..., 1])
    r0 = 1.5 * mesh.shape.max_radius
    r1 = 0.7 * mesh.r_far
    s = np.clip((r - r0) / (r1 - r0), 0.0, 1.0)
    g = np.sin(np.pi * s) ** 2
    gp = np.where((s > 0.0) & (s < 1.0),
                  np.pi / (r1 - r0) * np.sin(2.0 * np.pi * s), 0.0)

    rhat = pts / r[..., None]
    mu = x1 / r
    grad_mu = -mu[..., None] * rhat
    grad_mu[..., 0] += 1.0
    grad_mu /= r[..., None]
    grad_g = gp[..., None] * rhat

    q2 = 1.5 * mu**2 - 0.5
    return {
        "radial": (g, grad_g, "rhat"),
        "aligned": (g * mu, mu[..., None] * grad_g + g[..., None] * grad_mu, "e1"),
        "quadrupole": (g * q2, q2[..., None] * grad_g
                       + (3.0 * g * mu)[..., None] * grad_mu, "rhat"),
    }


def _weak_dp_gaps(state, base, force):
    """<grad p - grad p_bar, w> for each panel field, evaluated stably.

    The momentum-flux difference is exactly eps^2 times the symmetric

        T = base x corr + corr x base + departure * u x u + eps^2 corr x corr,

    so the pairing integral(T : grad w + departure * grad(phi_f) . w) is the
    eps^-2 scaled gap; the reported gap carries the eps^2 factor.  The force
    difference (rho - 1) grad(phi_f) is included.  For w = f v the pairing
    needs only scalar products:

        T : grad(f v) = (T v) . grad f + f T : grad v,
        T v = (base.v + eps^2 corr.v) corr + (corr.v) base + departure (u.v) u,

    with T : grad e1 = 0 and T : grad rhat = (tr T - rhat . T rhat) / r.
    Without a force (``force`` None) the force term is dropped.
    """
    mesh = state.psi_base.mesh
    eps2 = state.gas.epsilon**2
    c = state.corr_grad
    u = state.u.at_qpts
    dep = state.departure
    panel = build_test_panel(mesh)   # first: its temporaries go before T v exists
    r = np.hypot(mesh.qpts[..., 0], mesh.qpts[..., 1])
    rhat = mesh.qpts / r[..., None]

    def t_times(bv, cv, uv):
        # T v from the scalar products of base, corr and u with v
        return ((bv + eps2 * cv)[..., None] * c + cv[..., None] * base
                + (dep * uv)[..., None] * u)

    b_r, c_r, u_r = (_dot(a, rhat) for a in (base, c, u))
    trace = 2.0 * _dot(base, c) + dep * _dot(u, u) + eps2 * _dot(c, c)
    hoop = (trace - (2.0 * b_r * c_r + dep * u_r**2 + eps2 * c_r**2)) / r
    # per direction: T v, and the factor of f, T : grad v + dep grad(phi_f) . v
    # (None where it vanishes)
    coef_r, coef_1 = hoop, None
    if force is not None:
        coef_r = hoop + dep * _dot(force.grad_qpts, rhat)
        coef_1 = dep * force.grad_qpts[..., 0]
    directions = {
        "rhat": (t_times(b_r, c_r, u_r), coef_r),
        "e1": (t_times(base[..., 0], c[..., 0], u[..., 0]), coef_1),
    }

    gaps = {}
    for name, (f, grad_f, v) in panel.items():
        tv, coef = directions[v]
        pair = _dot(tv, grad_f)
        if coef is not None:
            pair += f * coef
        gaps[name] = float(eps2 * np.sum(mesh.qweights * pair))
    return gaps


def station_mass_flux(state, station):
    """Discrete mass flux through the radial station (weak, residual form).

    Sums int rho u . grad(N_k) over all nodes strictly inside the station;
    by the discrete divergence-free property the value is independent of the
    station up to the solver tolerance.
    """
    mesh = state.psi_base.mesh
    if not 0 < station <= mesh.n_r:
        raise DomainError("station must lie in (0, n_r]")
    res = fem.assemble_vector_load(mesh, state.rho[..., None] * state.u.at_qpts)
    n_th = mesh.node_grid[1]
    inner = np.arange(0, station * n_th)
    return float(res[inner].sum())
