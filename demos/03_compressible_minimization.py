#!/usr/bin/env python3
"""One compressible solve: Newton trace, Bernoulli residual, cut-off margin.

Minimizes the compressible-incompressible difference functional at a fixed
compressibility, prints the Newton history (quadratic once the iterate is
close, each step accepted by the convexity certificate or the Armijo line
search), and reconstructs the full flow state.
"""

import numpy as np

from lowmach import (
    GasModel,
    ObstacleShape,
    build_mesh,
    flow_state,
    make_cutoff,
    minimize,
    solve_incompressible,
)
from lowmach.compressible import DifferenceProblem, station_mass_flux
from lowmach.gas import enthalpy, truncated_density
from lowmach.incompressible import velocity_at_qpts

EPS = 0.3

mesh = build_mesh(ObstacleShape("sphere", 1.0), 20.0, 48, 48, grading=1.15)
psi = solve_incompressible(mesh, q_inf=1.0)
gas = GasModel(gamma=1.4, epsilon=EPS, q_inf=1.0)
cut = make_cutoff(gas, mach_threshold=0.65, eps_ref=0.45)

prob = DifferenceProblem(psi, None, gas, cut)
print(f"difference functional at zero correction: "
      f"{prob.functional(np.zeros(mesh.n_nodes))!r}")

corr, info = minimize(psi, None, gas, cut)
print("\n=== Newton history ===")
print(f"{'iter':>4} {'grad norm':>12} {'step':>6}  accepted by")
for k, gn in enumerate(info.gradient_norms):
    a, how = (info.step_sizes[k - 1], info.accepted_by[k - 1]) if k else ("", "")
    print(f"{k:>4} {gn:12.3e} {a!s:>6}  {how}")
rel = info.gradient_norms[-1] / info.gradient_norms[0]
print(f"relative gradient norm {rel:.3e} <= {info.relative_target:g}, "
      f"minimum value {info.energy:.6e} <= 0")

state = flow_state(corr, psi, gas, None, cut)
margin = state.cutoff_margin
print("\n=== flow state ===")
print(f"cut-off removed: {margin > 0.0} (margin {margin:.4f}) -> the minimizer "
      f"solves the untruncated subsonic problem")
print(f"max Mach number      {state.norms['mach_max']:.4f}")
print(f"|rho - 1|_inf        {state.norms['rho_diff_inf']:.3e} "
      f"(= {state.norms['rho_diff_inf'] / EPS**2:.3f} eps^2)")
print(f"|u - u_bar|_inf      {state.norms['u_diff_inf']:.3e} "
      f"(= {state.norms['u_diff_inf'] / EPS**2:.3f} eps^2)")
print(f"|u - u_bar|_L2       {state.norms['u_diff_l2']:.3e}")

# the state keeps no per-point field: u and rho at the quadrature points
u = velocity_at_qpts(psi, 1.0) + EPS**2 * corr.grad_at_qpts()
lam = np.sum(u * u, axis=-1)
res = gas.epsilon**2 * (lam - 1.0) / 2.0 + enthalpy(truncated_density(lam, 0.0, gas, cut), gas)
print(f"Bernoulli residual   {np.max(np.abs(res)):.2e} (pointwise)")

fluxes = [station_mass_flux(state, s) for s in (6, 24, 42)]
print(f"mass flux through three stations: "
      + ", ".join(f"{f:+.3e}" for f in fluxes) + " (conserved)")

print("\nweak pressure-gradient gap per test field:")
for name, gap in state.dp_gap.items():
    print(f"  {name:<12} {gap:+.4e}  ({gap / EPS**2:+.4f} eps^2)")
