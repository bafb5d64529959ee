"""Algebraic closure of the isentropic gamma-law gas.

Everything here is dimensionless.  The pressure law is p(rho) = rho**gamma
scaled by a compressibility parameter ``epsilon``; the reduced enthalpy h
satisfies h'(rho) = p'(rho)/rho and h(1) = 0, so the Bernoulli relation along
the flow reads

    epsilon**2 * (|u|**2 - q_inf**2) / 2 + h(rho) = epsilon**2 * phi_force,

which closes the density as a decreasing function of speed (and an increasing
function of the force potential).  For the gamma-law gas every inverse that
appears below has a closed form; the expm1/log1p formulations keep the
small-epsilon limits exact, which matters because several downstream
quantities are O(epsilon**2) differences of O(1) numbers.  The test suite
cross-checks all of them against independent bisection and quadrature
oracles.

The second half of the module implements the subsonic cut-off: a C^1
monotone truncation of the speed-squared variable that freezes the closure
beyond a configurable Mach threshold, making the resulting coefficient
matrix uniformly elliptic no matter how large the argument gets.  The
kernel ``closure`` evaluates the truncation once per state; the truncated
density and the coefficient matrix are built on it.

Every operation is a pure function of its arguments and the two frozen
parameter objects (GasModel, CutoffSpec); all of it is safe to call
concurrently from any number of threads.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, DomainError

__all__ = [
    "GasModel",
    "CutoffSpec",
    "enthalpy",
    "enthalpy_inv",
    "pressure_slope",
    "density_from_speed",
    "mach",
    "critical_density",
    "critical_speed",
    "speed_at_mach",
    "make_cutoff",
    "truncated_speed_sq",
    "closure",
    "truncated_density",
    "level_departure",
    "density_departure",
    "density_bounds",
    "coefficients",
]

@dataclass(frozen=True)
class GasModel:
    """Gamma-law gas with compressibility parameter and far-field speed.

    Attributes
    ----------
    gamma : float
        Adiabatic exponent, >= 1.  gamma = 1 selects the logarithmic
        (isothermal) enthalpy branch explicitly.
    epsilon : float
        Compressibility parameter, > 0.  epsilon -> 0 is the low Mach limit.
    q_inf : float
        Far-field speed, > 0.
    """

    gamma: float
    epsilon: float
    q_inf: float

    def __post_init__(self):
        if not self.gamma >= 1.0:
            raise ConfigError(f"gamma must be >= 1, got {self.gamma}")
        if not self.epsilon > 0.0:
            raise ConfigError(f"epsilon must be > 0, got {self.epsilon}")
        # every kernel scales by epsilon**2, which must be a finite float
        if not math.isfinite(self.epsilon * self.epsilon):
            raise ConfigError(f"epsilon**2 must be finite, got epsilon = {self.epsilon}")
        # q_inf = 0 is admitted for the trivial-data cases (zero flow)
        if not self.q_inf >= 0.0:
            raise ConfigError(f"q_inf must be >= 0, got {self.q_inf}")


def _phi_of(f):
    """Force potential as a float/array; None means no force."""
    return 0.0 if f is None else np.asarray(f, dtype=float)


def _as_result(x):
    x = np.asarray(x)
    return float(x) if x.ndim == 0 else x


def pressure_slope(rho, gas):
    """p'(rho) = gamma * rho**(gamma-1); the scaled squared sound speed."""
    g = gas.gamma
    return g * np.asarray(rho, dtype=float) ** (g - 1.0)


def enthalpy(rho, gas):
    """Reduced enthalpy h(rho) with h'(rho) = p'(rho)/rho and h(1) = 0.

    Closed form: gamma/(gamma-1) * (rho**(gamma-1) - 1) for gamma > 1 and
    log(rho) for gamma = 1; strictly increasing on rho > 0.
    """
    r = np.asarray(rho, dtype=float)
    if np.any(r <= 0.0):
        raise DomainError("enthalpy requires rho > 0")
    g = gas.gamma
    if g == 1.0:
        return _as_result(np.log(r))
    return _as_result(g / (g - 1.0) * np.expm1((g - 1.0) * np.log(r)))


def _enthalpy_range_floor(gas):
    """Infimum of the enthalpy range (the vacuum level)."""
    g = gas.gamma
    return -math.inf if g == 1.0 else -g / (g - 1.0)


def enthalpy_inv(y, gas):
    """Inverse of the reduced enthalpy.

    For gamma > 1 the range of h is (-gamma/(gamma-1), inf); values at or
    below the infimum raise DomainError (vacuum).
    """
    yv = np.asarray(y, dtype=float)
    g = gas.gamma
    if g == 1.0:
        return _as_result(np.exp(yv))
    u = 1.0 + (g - 1.0) * yv / g
    if np.any(u <= 0.0):
        raise DomainError(
            f"enthalpy value below the vacuum level {-g / (g - 1.0):.6g}"
        )
    return _as_result(np.exp(np.log1p((g - 1.0) * yv / g) / (g - 1.0)))


def density_from_speed(q2, f, gas):
    """Density on the subsonic Bernoulli branch as a function of speed**2.

    Returns h^-1( eps^2 (q_inf^2 - q2)/2 + eps^2 phi ).  Equals 1 at the
    far-field anchor (q2 = q_inf**2, phi = 0); strictly decreasing in q2 and
    strictly increasing in phi.  A Bernoulli level below the vacuum floor
    raises DomainError naming the offending speed.
    """
    q2v = np.asarray(q2, dtype=float)
    phi = _phi_of(f)
    lvl = gas.epsilon**2 * ((gas.q_inf**2 - q2v) / 2.0 + phi)
    try:
        return enthalpy_inv(lvl, gas)
    except DomainError:
        bad = q2v if q2v.ndim == 0 else q2v[lvl <= _enthalpy_range_floor(gas)]
        raise DomainError(
            f"Bernoulli level out of range (vacuum) at speed^2 = {np.max(bad):.6g}"
        ) from None


def mach(q, rho, gas):
    """Mach number eps * q / sqrt(p'(rho)); zero iff the speed is zero."""
    qv = np.asarray(q, dtype=float)
    rv = np.asarray(rho, dtype=float)
    if np.any(qv < 0.0):
        raise DomainError("mach requires q >= 0")
    if np.any(rv <= 0.0):
        raise DomainError("mach requires rho > 0")
    return _as_result(gas.epsilon * qv / np.sqrt(pressure_slope(rv, gas)))


def _sonic_head_inv(y, gas):
    """Inverse of H(rho) = p'(rho)/2 + h(rho) (closed form for gamma-law).

    For gamma > 1, H is linear in t = rho**(gamma-1); for gamma = 1,
    H(rho) = 1/2 + log(rho).
    """
    yv = np.asarray(y, dtype=float)
    g = gas.gamma
    if g == 1.0:
        return _as_result(np.exp(yv - 0.5))
    t = (yv + g / (g - 1.0)) * 2.0 * (g - 1.0) / (g * (g + 1.0))
    if np.any(t <= 0.0):
        raise ConfigError(
            "sonic head level out of range: epsilon too large for this phi"
        )
    return _as_result(t ** (1.0 / (g - 1.0)))


def critical_density(f, gas):
    """Sonic (M = 1) density for the Bernoulli level set by (epsilon, phi).

    Converges to the closed-form stagnation-free limit H^-1(0) as
    epsilon -> 0.
    """
    phi = _phi_of(f)
    lvl = gas.epsilon**2 * (gas.q_inf**2 / 2.0 + phi)
    return _sonic_head_inv(lvl, gas)


def critical_speed(f, gas):
    """Sonic speed sqrt(p'(rho_cr)) / epsilon.

    Diverges as epsilon -> 0 while epsilon * critical_speed stays bounded.
    """
    rho_cr = critical_density(f, gas)
    return _as_result(np.sqrt(pressure_slope(rho_cr, gas)) / gas.epsilon)


def speed_at_mach(mach_bound, f, gas):
    """The unique speed at which the Mach number equals ``mach_bound``.

    Closed form for the gamma-law gas:

        q^2 = m^2 (gamma/eps^2 + (gamma-1)(q_inf^2/2 + phi))
              / (1 + m^2 (gamma-1)/2).

    Monotone increasing in the bound; approaches the critical speed as the
    bound tends to 1.
    """
    m = np.asarray(mach_bound, dtype=float)
    if np.any(m <= 0.0) or np.any(m > 1.0):
        raise DomainError("mach bound must lie in (0, 1]")
    q2 = _speed_sq_at_mach(m, _phi_of(f), gas.gamma, gas.epsilon, gas.q_inf)
    if np.any(q2 <= 0.0):
        raise ConfigError("no subsonic root: phi too negative for this epsilon")
    return _as_result(np.sqrt(q2))


def _speed_sq_at_mach(m, phi, gamma, epsilon, q_inf):
    """speed_at_mach(m, phi)^2, as lam0 + slope * phi (affine in phi)."""
    den = 1.0 + m**2 * (gamma - 1.0) / 2.0
    lam0 = m**2 * (gamma / epsilon**2 + (gamma - 1.0) * q_inf**2 / 2.0) / den
    return lam0 + m**2 * (gamma - 1.0) / den * np.asarray(phi, dtype=float)


# ----------------------------------------------------------------------
# Subsonic cut-off
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class CutoffSpec:
    """Truncation of the speed-squared variable above a Mach threshold.

    The truncated variable equals q^2 - 2*phi below the onset speed
    (``q_lower``), a configured constant (``saturation``) above the cap
    speed (``q_upper``), and a monotone C^1 cubic Hermite bridge in between,
    matching value and slope at both ends.  The onset/cap speeds are the
    infima over epsilon in (0, eps_ref] of the speeds at Mach threshold and
    (threshold+1)/2 respectively.  The squared speed at a Mach bound
    strictly decreases in epsilon (see speed_at_mach), so each infimum is
    the value at eps_ref, which is affine in phi.

    ``lam1``/``lam2`` bound the eigenvalues of the truncated coefficient
    matrix uniformly over all admissible states and all epsilon <= eps_ref;
    they are found by a dense parameter scan at construction and depend only
    on (threshold, eps_ref, gamma, q_inf, phi_star).
    """

    mach_threshold: float
    eps_ref: float
    gamma: float
    q_inf: float
    phi_star: float
    saturation: float
    lam1: float = float("nan")
    lam2: float = float("nan")

    def q_lower(self, phi=0.0):
        """Speed where the cut-off blending begins."""
        return _as_result(np.sqrt(self._lambda_lo(phi)))

    def q_upper(self, phi=0.0):
        """Speed beyond which the truncated variable saturates."""
        return _as_result(np.sqrt(self._lambda_hi(phi)))

    def _lambda_lo(self, phi):
        return _speed_sq_at_mach(self.mach_threshold, phi, self.gamma, self.eps_ref, self.q_inf)

    def _lambda_hi(self, phi):
        return _speed_sq_at_mach((self.mach_threshold + 1.0) / 2.0, phi, self.gamma,
                                 self.eps_ref, self.q_inf)


def make_cutoff(gas, mach_threshold=0.65, eps_ref=0.45, phi_samples=None):
    """Build a CutoffSpec for the given gas and truncation parameters.

    phi_samples : array or None
        Force potential sampled where the closure will be evaluated (mesh
        nodes and quadrature points).  The saturation constant is the sup
        over these samples of q_upper(phi)^2 - 2*phi; with no force it is
        simply q_upper(0)^2.  The global force bound ``phi_star`` is
        max |phi_samples| (0 without force).
    """
    if not 0.0 < mach_threshold < 1.0:
        raise ConfigError(f"mach_threshold must be in (0,1), got {mach_threshold}")
    if not 0.0 < eps_ref < 1.0:
        raise ConfigError(f"eps_ref must be in (0,1), got {eps_ref}")

    if phi_samples is None:
        samples = np.zeros(1)
    else:
        samples = np.asarray(phi_samples, dtype=float).ravel()
    star = float(np.max(np.abs(samples)))

    spec = CutoffSpec(
        mach_threshold=float(mach_threshold),
        eps_ref=float(eps_ref),
        gamma=gas.gamma,
        q_inf=gas.q_inf,
        phi_star=star,
        saturation=float("nan"),
    )
    if not spec._lambda_lo(-star) > 0.0:
        raise ConfigError("no subsonic root: phi too negative for this epsilon")

    sat = float(np.max(spec._lambda_hi(samples) - 2.0 * samples))
    spec = replace(spec, saturation=sat)

    lam1, lam2 = _ellipticity_scan(spec)
    if not lam1 > 0.0:
        raise ConfigError(
            "cut-off parameters do not yield a uniformly elliptic closure "
            f"(lam1 = {lam1:.3g}); lower the Mach threshold or eps_ref"
        )
    return replace(spec, lam1=lam1, lam2=lam2)


def _ellipticity_scan(spec):
    """Dense scan of the coefficient-matrix eigenvalue bounds.

    Eigenvalues of the truncated matrix are rho_hat (n-1 fold) and
    rho_hat * (1 - w) with w = eps^2 * qhat_L * Lambda / p'(rho_hat).  The
    scan covers Lambda up to past saturation, phi in [-phi_star, phi_star]
    and a geometric epsilon grid up to eps_ref; a 2% guard band absorbs
    pockets between scan points.

    The extremes over epsilon do not all sit at eps_ref, so eps_ref alone
    would not do.  As epsilon -> 0 the matrix tends to the identity, so
    lam1 <= 1 <= lam2; but once the saturation constant lies below q_inf^2,
    rho_hat > 1 for every state at eps_ref (gamma 1, q_inf 2, threshold
    0.05, eps_ref 0.95: the smallest eigenvalue there is 4.43).  And the
    smallest eigenvalue can be interior: for gamma 3, q_inf 2, threshold
    0.05, eps_ref 0.95 and phi sampled on [0, 0.3] it is 0.99394 near
    epsilon 0.53, against 1.0125 at eps_ref.
    """
    star = spec.phi_star
    phis = np.linspace(-star, star, 33) if star > 0 else np.zeros(1)
    lam_hi_max = float(np.max(spec._lambda_hi(phis)))
    lams = np.linspace(0.0, 1.25 * lam_hi_max, 801)

    # the truncation does not depend on epsilon: per epsilon only the
    # closure's Bernoulli level and what follows from it (see closure)
    qhat, qhat_L = truncated_speed_sq(lams, phis[:, None], spec)
    head = spec.q_inf**2 - qhat
    gas = GasModel(spec.gamma, spec.eps_ref, spec.q_inf)   # its gamma only
    lo, hi = math.inf, -math.inf
    for eps in np.geomspace(1e-3 * spec.eps_ref, spec.eps_ref, 25):
        rho, ps = _density_and_slope(head * float(eps)**2, gas)
        w = eps**2 * qhat_L * lams / ps
        ev_min = rho * np.minimum(1.0, 1.0 - w)
        ev_max = rho * np.maximum(1.0, 1.0 - w)
        lo = min(lo, float(ev_min.min()))
        hi = max(hi, float(ev_max.max()))
    return 0.98 * lo, 1.02 * hi


def truncated_speed_sq(q2, f, spec):
    """Truncated speed-squared variable and its Lambda-partial.

    Returns (qhat, d qhat / d Lambda) where Lambda = q2.  Identity branch:
    (q2 - 2 phi, 1).  Saturated branch: (saturation, 0).  The bridge is the
    monotone cubic Hermite between them; its Lambda-slope stays in
    [0, ~3/2 * secant slope] (a C^1 bridge matching value and slope at both
    ends necessarily exceeds slope 1 somewhere, by the mean value theorem).
    """
    lam = np.asarray(q2, dtype=float)
    phi = np.asarray(_phi_of(f), dtype=float)
    lam_lo = spec._lambda_lo(phi)           # scalar for a scalar phi
    lam_hi = spec._lambda_hi(phi)
    below = lam <= lam_lo
    above = lam >= lam_hi
    qhat = np.asarray(lam - 2.0 * phi)
    qhat[~below] = spec.saturation
    dl = np.asarray(below, dtype=float)

    # The bridge algebra runs only where a point lies on it (often nowhere).
    on = ~(below | above)
    if np.any(on):
        lam, phi, lam_lo, lam_hi = (a[on] for a in np.broadcast_arrays(lam, phi, lam_lo, lam_hi))
        v0 = lam_lo - 2.0 * phi
        sat = spec.saturation
        h = lam_hi - lam_lo

        s = np.clip((lam - lam_lo) / h, 0.0, 1.0)
        h00 = (2.0 * s - 3.0) * s * s + 1.0
        h10 = ((s - 2.0) * s + 1.0) * s
        h01 = (3.0 - 2.0 * s) * s * s
        d00 = 6.0 * s * (s - 1.0)
        d10 = (3.0 * s - 4.0) * s + 1.0
        d01 = -d00

        qhat[on] = v0 * h00 + h * h10 + sat * h01
        dl[on] = (v0 * d00 + h * d10 + sat * d01) / h
    return _as_result(qhat), _as_result(dl)


def closure(lam, phi, gas, cut):
    """The truncated closure at squared speed ``lam`` and force potential ``phi``.

    Returns (qhat, qhat_L, rho_hat, p'(rho_hat)): the truncated speed
    variable and its Lambda-partial (truncated_speed_sq), the density
    through the truncated Bernoulli relation

        h(rho_hat) = eps^2 (q_inf^2 - qhat) / 2,

    and the pressure slope there, p' = gamma + (gamma - 1) h for every
    gamma >= 1.  The density coincides with density_from_speed on the
    identity branch and is constant past saturation.  It is defined for every
    lam >= 0 while the saturated Bernoulli level stays above the vacuum floor,
    as for all epsilon <= eps_ref; beyond that the configuration is rejected.
    """
    qhat, qhat_L = truncated_speed_sq(lam, phi, cut)
    lvl = np.asarray(gas.q_inf**2 - qhat)
    lvl *= gas.epsilon**2
    return (qhat, qhat_L) + _density_and_slope(lvl, gas)


def _density_and_slope(lvl, gas):
    """(rho_hat, p'(rho_hat)) from the array eps^2 (q_inf^2 - qhat), which
    is overwritten; only ``gas.gamma`` is read."""
    lvl /= 2.0
    try:
        rho = enthalpy_inv(lvl, gas)
    except DomainError:
        raise ConfigError(
            "epsilon too large: the saturated cut-off branch leaves the "
            "enthalpy range ({:.4g} <= {:.4g})".format(
                float(np.min(lvl)), _enthalpy_range_floor(gas)
            )
        ) from None
    lvl *= gas.gamma - 1.0          # p'(rho_hat) = gamma + (gamma - 1) h, over h
    lvl += gas.gamma
    return rho, _as_result(lvl)


def truncated_density(q2, f, gas, spec):
    """Density through the truncated Bernoulli relation (see closure)."""
    return closure(q2, f, gas, spec)[2]


def _ratio(num, den):
    """num / den written over num, and 1 where den is 0 (as expm1(z)/z)."""
    with np.errstate(invalid="ignore"):
        np.divide(num, den, out=num)
    num[den == 0.0] = 1.0
    return num


def level_departure(qhat, gas):
    """(rho_hat - 1) / epsilon^2 at the truncated speed variable ``qhat``.

    In closed form, with A = (q_inf^2 - qhat)/2 and x = (gamma-1) eps^2 A/gamma,

        (rho_hat - 1)/eps^2 = expm1(log1p(x) / (gamma - 1)) / eps^2,

    or expm1(eps^2 A) / eps^2 at gamma = 1.  It is evaluated as
    A/gamma [log1p(x)/x] [expm1(y)/y], y = log1p(x)/(gamma - 1), with each
    bracket 1 + O(x): exact to round-off for every epsilon > 0, and A/gamma
    where eps^2 underflows.  A level at or below the vacuum floor raises
    ConfigError.
    """
    q = np.asarray(qhat, dtype=float)
    amp = gas.q_inf**2 - q.reshape(-1)
    amp /= 2.0
    g = gas.gamma
    if g == 1.0:
        y = amp * gas.epsilon**2
        ratio = None
    else:
        y = amp * ((g - 1.0) * gas.epsilon**2 / g)      # x, then y in place
        if np.any(y <= -1.0):
            raise ConfigError(
                "epsilon too large: the truncated Bernoulli level leaves the "
                "enthalpy range"
            )
        ratio = _ratio(np.log1p(y), y)                  # log1p(x)/x
        y *= ratio
        y /= g - 1.0
        amp /= g
        amp *= ratio                                    # A/gamma log1p(x)/x
    dep = _ratio(np.expm1(y, out=ratio), y)
    dep *= amp
    return _as_result(dep.reshape(q.shape))


def density_departure(q2, f, gas, spec):
    """(truncated_density - 1) / epsilon^2, exact to round-off for every epsilon.

    See level_departure.  Converges to (q_inf^2 - q2 + 2 phi) / (2 gamma)
    on the identity branch as epsilon -> 0.
    """
    qhat, _ = truncated_speed_sq(q2, f, spec)
    return level_departure(qhat, gas)


def density_bounds(gas, spec):
    """Two-sided bound on the truncated density, uniform for eps <= eps_ref.

    The lower bound is the sonic density at the lowest admissible Bernoulli
    level; the upper bound is the stagnation density at the highest.
    """
    low = _sonic_head_inv(-spec.phi_star, gas)
    high = enthalpy_inv(gas.q_inf**2 / 2.0 + spec.phi_star, gas)
    return float(low), float(high)


def coefficients(lam, phi, gas, cut):
    """The truncated coefficient matrix c I - d v v^T at a velocity v, in
    any spatial dimension, from ``lam`` = |v|^2 and the force potential.

    Returns (c, d) with c = rho_hat and d = rho_hat eps^2 qhat_L / p'(rho_hat),
    from one closure call.  The eigenvalues are c and c - d lam, both in
    [cut.lam1, cut.lam2] for all states and every epsilon <= eps_ref.
    """
    d, rho, ps = closure(lam, phi, gas, cut)[1:]
    d *= gas.epsilon**2
    d /= ps
    d *= rho                            # from qhat_L in place
    return rho, d
