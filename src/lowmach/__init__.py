"""Steady subsonic potential flow past an obstacle and its low Mach limit.

The package solves the exterior-domain ("airfoil") problem for a gamma-law
gas by minimizing the compressible-incompressible difference functional,
solves the incompressible reference problem, and provides the machinery to
verify the low Mach number convergence rates and far-field decay bounds
numerically.
"""

from .errors import ConfigError, DomainError, LowmachError, SolverError
from .gas import (
    CutoffSpec,
    GasModel,
    critical_density,
    critical_speed,
    density_bounds,
    density_departure,
    density_from_speed,
    energy_density,
    enthalpy,
    enthalpy_inv,
    mach,
    make_cutoff,
    speed_at_mach,
    truncated_density,
    truncated_speed_sq,
)
from .geometry import ExteriorMesh, ObstacleShape, build_mesh
from .incompressible import (
    PotentialField,
    VelocityField,
    analytic_disk_reference,
    analytic_sphere_reference,
    solve_incompressible,
    velocity,
)
from .compressible import (
    FlowState,
    flow_state,
    minimize,
)
from .limits import (
    ConvergenceReport,
    ForceField,
    ForceSpec,
    build_force,
    decay_fit,
    fit_rate,
    newtonian_potential,
    sweep,
    validate_force,
)

__version__ = "0.1.0"
