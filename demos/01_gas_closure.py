#!/usr/bin/env python3
"""Tour of the gamma-law closure: Bernoulli density, critical state, cut-off.

Prints the density-speed relation at a few compressibilities, the sonic
(critical) quantities and their low Mach limits, and the anatomy of the
subsonic cut-off that makes the truncated closure uniformly elliptic.
"""

import numpy as np

from lowmach import (
    GasModel,
    critical_density,
    critical_speed,
    density_from_speed,
    elliptic_coeffs,
    mach,
    make_cutoff,
    speed_at_mach,
    truncated_density,
    truncated_speed_sq,
)

print("=== density along the Bernoulli branch (gamma = 1.4, q_inf = 1) ===")
speeds = np.array([0.0, 0.5, 1.0, 1.25, 1.5])
header = "eps     " + "".join(f"q={q:<8.2f}" for q in speeds)
print(header)
for eps in (0.4, 0.2, 0.1, 0.05):
    gas = GasModel(gamma=1.4, epsilon=eps, q_inf=1.0)
    rho = density_from_speed(speeds**2, 0.0, gas)
    print(f"{eps:<8.2f}" + "".join(f"{r:<10.6f}" for r in rho))
print("the q = q_inf column is pinned at 1; the spread shrinks like eps^2\n")

print("=== critical (sonic) state ===")
for eps in (0.4, 0.2, 0.1, 1e-4):
    gas = GasModel(gamma=1.4, epsilon=eps, q_inf=1.0)
    rho_cr = critical_density(0.0, gas)
    q_cr = critical_speed(0.0, gas)
    print(f"eps={eps:<8g} rho_cr={rho_cr:.6f}  q_cr={q_cr:10.3f}  "
          f"eps*q_cr={eps * q_cr:.6f}")
print("rho_cr -> (2/(gamma+1))^(1/(gamma-1)) = "
      f"{(2.0 / 2.4) ** 2.5:.6f} and eps*q_cr -> sqrt(2 gamma/(gamma+1)) = "
      f"{np.sqrt(2 * 1.4 / 2.4):.6f}\n")

print("=== subsonic cut-off (Mach threshold 0.65, reference eps 0.45) ===")
gas = GasModel(gamma=1.4, epsilon=0.3, q_inf=1.0)
cut = make_cutoff(gas, mach_threshold=0.65, eps_ref=0.45)
q_lo, q_hi = cut.q_lower(0.0), cut.q_upper(0.0)
print(f"blending begins at speed {q_lo:.4f} and saturates at {q_hi:.4f}")
print(f"saturation constant {cut.saturation:.4f}; "
      f"eigenvalue bounds [{cut.lam1:.4f}, {cut.lam2:.4f}]")
print(f"{'speed':>8} {'qhat':>10} {'d/dLambda':>10} {'rho_hat':>10} {'Mach':>8}")
for q in np.linspace(0.0, 1.4 * q_hi, 9):
    qhat, dl = truncated_speed_sq(q * q, 0.0, cut)
    rho = truncated_density(q * q, 0.0, gas, cut)
    m = mach(q, rho, gas)
    print(f"{q:8.3f} {qhat:10.4f} {dl:10.4f} {rho:10.6f} {m:8.4f}")
print("(identity branch up to the onset, constant past the cap)\n")

print("=== coefficient matrix at an aligned state ===")
v = np.array([1.0, 0.0, 0.0])
a = elliptic_coeffs(v, 0.0, gas, cut)
print("a =")
print(np.array_str(a, precision=6, suppress_small=True))
print(f"eigenvalues within [{cut.lam1:.4f}, {cut.lam2:.4f}]: "
      f"{np.sort(np.linalg.eigvalsh(a))}")
print(f"\nspeed at Mach 0.5 for this gas: {speed_at_mach(0.5, 0.0, gas):.4f}")
