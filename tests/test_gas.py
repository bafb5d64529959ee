"""Gas closure: closed forms vs independent oracles, and cut-off behavior."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import oracles
from lowmach import (
    CutoffSpec,
    ConfigError,
    DomainError,
    GasModel,
    critical_density,
    critical_speed,
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
from lowmach.gas import closure, coefficients, level_departure, pressure_slope

GAS = GasModel(gamma=1.4, epsilon=0.1, q_inf=1.0)


def test_enthalpy_anchor():
    assert enthalpy(1.0, GAS) == 0.0


def test_enthalpy_vs_quadrature():
    expect = oracles.enthalpy_quadrature(2.0, 1.4)  # 3.5*(2**0.4 - 1) ~ 1.1183
    assert enthalpy(2.0, GAS) == pytest.approx(expect, rel=1e-12)
    assert expect == pytest.approx(3.5 * (2.0**0.4 - 1.0), rel=1e-10)


def test_enthalpy_isothermal_branch():
    gas = GasModel(gamma=1.0, epsilon=0.1, q_inf=1.0)
    expect = oracles.enthalpy_quadrature(2.0, 1.0)
    assert enthalpy(2.0, gas) == pytest.approx(expect, rel=1e-12)
    assert expect == pytest.approx(np.log(2.0), rel=1e-12)


def test_enthalpy_rejects_nonpositive_density():
    with pytest.raises(DomainError):
        enthalpy(0.0, GAS)
    with pytest.raises(DomainError):
        enthalpy(-1.0, GAS)


def test_enthalpy_inv_anchor():
    assert enthalpy_inv(0.0, GAS) == pytest.approx(1.0, abs=1e-15)


def test_enthalpy_inv_vs_bisection():
    expect = oracles.enthalpy_inv_bisect(0.005, 1.4)
    assert enthalpy_inv(0.005, GAS) == pytest.approx(expect, rel=1e-10)
    assert expect == pytest.approx(1.003575, abs=2e-6)


def test_enthalpy_inv_isothermal():
    gas = GasModel(gamma=1.0, epsilon=0.1, q_inf=1.0)
    assert enthalpy_inv(np.log(2.0), gas) == pytest.approx(2.0, rel=1e-12)


def test_enthalpy_inv_below_range():
    with pytest.raises(DomainError):
        enthalpy_inv(-3.6, GAS)  # floor is -gamma/(gamma-1) = -3.5


@pytest.mark.parametrize("gamma", [1.0, 1.4, 5.0 / 3.0])
def test_enthalpy_round_trip(gamma):
    gas = GasModel(gamma=gamma, epsilon=0.1, q_inf=1.0)
    rho = np.linspace(0.5, 2.0, 41)
    back = enthalpy_inv(enthalpy(rho, gas), gas)
    assert np.allclose(back, rho, rtol=1e-10)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(gamma=st.floats(1.0, 3.0), log_rho=st.floats(-3.0, 3.0))
@example(gamma=3.0, log_rho=-3.0)
@example(gamma=1.0, log_rho=3.0)
def test_enthalpy_round_trip_property(gamma, log_rho):
    # the inverse is conditioned by d rho / d h = rho / p'(rho): an error of
    # u |h| in h moves rho by u rho |h| / p', which is 1.1e-10 relative at
    # gamma 3, rho 1e-3, next to the vacuum floor
    gas = GasModel(gamma=gamma, epsilon=0.1, q_inf=1.0)
    rho = 10.0**log_rho
    h = enthalpy(rho, gas)
    u = np.finfo(float).eps
    bound = 8.0 * u * rho * (1.0 + abs(h) / pressure_slope(rho, gas))
    assert abs(enthalpy_inv(h, gas) - rho) <= bound


def test_density_from_speed_anchor():
    for eps in (0.05, 0.3, 0.9):
        gas = GasModel(gamma=1.4, epsilon=eps, q_inf=1.0)
        assert density_from_speed(gas.q_inf**2, 0.0, gas) == pytest.approx(1.0, abs=1e-15)


def test_density_from_speed_vs_bisection():
    expect = oracles.density_from_speed_bisect(0.0, 0.0, 1.4, 0.1, 1.0)
    assert density_from_speed(0.0, 0.0, GAS) == pytest.approx(expect, rel=1e-10)
    assert expect == pytest.approx(1.003575, abs=2e-6)


def test_density_from_speed_coincident_levels():
    # eps^2 (q_inf^2 - q^2)/2 + eps^2 phi agrees between these two states.
    a = density_from_speed(0.0, 0.0, GAS)
    b = density_from_speed(1.0, 0.5, GAS)
    assert a == pytest.approx(b, rel=1e-14)


def test_density_from_speed_vacuum_error():
    gas = GasModel(gamma=1.4, epsilon=1.0, q_inf=1.0)
    with pytest.raises(DomainError, match="speed"):
        density_from_speed(100.0, 0.0, gas)


def test_density_from_speed_monotonicity():
    # strictly decreasing in q^2, strictly increasing in phi (sign test on a grid)
    q2 = np.linspace(0.0, 4.0, 41)
    rho = density_from_speed(q2, 0.0, GAS)
    assert np.all(np.diff(rho) < 0.0)
    phis = np.linspace(-0.5, 0.5, 21)
    rho_phi = density_from_speed(1.0, phis, GAS)
    assert np.all(np.diff(rho_phi) > 0.0)


def test_mach_examples():
    assert mach(0.0, 1.0, GAS) == 0.0
    # independent form: M = eps q rho**((1-gamma)/2) / sqrt(gamma)
    expect = 0.1 * 1.0 ** ((1.0 - 1.4) / 2.0) / np.sqrt(1.4)
    assert mach(1.0, 1.0, GAS) == pytest.approx(expect, rel=1e-14)
    assert expect == pytest.approx(0.08452, abs=1e-5)
    gas1 = GasModel(gamma=1.0, epsilon=0.1, q_inf=1.0)
    assert mach(1.0, 1.0, gas1) == pytest.approx(0.1, rel=1e-14)


def test_critical_density_low_mach_limit():
    gas = GasModel(gamma=1.4, epsilon=1e-8, q_inf=1.0)
    closed = (2.0 / 2.4) ** (1.0 / 0.4)
    assert closed == pytest.approx(0.63394, abs=1e-5)
    assert critical_density(0.0, gas) == pytest.approx(closed, rel=1e-10)
    assert critical_density(0.0, gas) == pytest.approx(
        oracles.sonic_head_inv_bisect(0.0, 1.4), rel=1e-10
    )


def test_critical_density_finite_eps_vs_bisection():
    expect = oracles.sonic_head_inv_bisect(0.005, 1.4)
    assert critical_density(0.0, GAS) == pytest.approx(expect, rel=1e-10)


def test_critical_density_isothermal():
    gas = GasModel(gamma=1.0, epsilon=1e-8, q_inf=1.0)
    assert critical_density(0.0, gas) == pytest.approx(np.exp(-0.5), rel=1e-10)
    assert np.exp(-0.5) == pytest.approx(0.60653, abs=1e-5)


def test_critical_speed_scaled_limit():
    gas = GasModel(gamma=1.4, epsilon=1e-8, q_inf=1.0)
    assert gas.epsilon * critical_speed(0.0, gas) == pytest.approx(
        np.sqrt(2.0 * 1.4 / 2.4), rel=1e-10
    )
    assert np.sqrt(2.0 * 1.4 / 2.4) == pytest.approx(1.08012, abs=1e-5)


def test_critical_speed_finite_eps():
    gas = GasModel(gamma=1.4, epsilon=0.5, q_inf=1.0)
    rho_cr = oracles.sonic_head_inv_bisect(0.125, 1.4)
    expect = np.sqrt(1.4 * rho_cr**0.4) / 0.5
    assert critical_speed(0.0, gas) == pytest.approx(expect, rel=1e-10)


def test_critical_speed_grows_as_eps_shrinks():
    q_small = critical_speed(0.0, GasModel(1.4, 0.1, 1.0))
    q_large = critical_speed(0.0, GasModel(1.4, 0.5, 1.0))
    assert q_small > q_large


def test_speed_at_mach_round_trip():
    rho = density_from_speed(1.0, 0.0, GAS)
    theta = mach(1.0, rho, GAS)
    assert speed_at_mach(theta, 0.0, GAS) == pytest.approx(1.0, rel=1e-12)


def test_speed_at_mach_vs_bisection():
    expect = oracles.speed_at_mach_bisect(0.5, 0.0, 1.4, 0.1, 1.0)
    assert speed_at_mach(0.5, 0.0, GAS) == pytest.approx(expect, rel=1e-10)


def test_speed_at_mach_ordering():
    q3 = speed_at_mach(0.3, 0.0, GAS)
    q6 = speed_at_mach(0.6, 0.0, GAS)
    assert q3 < q6 < critical_speed(0.0, GAS)


def test_critical_level_out_of_range():
    gas = GasModel(gamma=1.4, epsilon=0.9, q_inf=1.0)
    with pytest.raises(ConfigError):
        critical_density(-100.0, gas)


# ----------------------------------------------------------------------
# Cut-off
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def cut():
    return make_cutoff(GAS, mach_threshold=0.65, eps_ref=0.45)


@pytest.fixture(scope="module")
def cut_forced():
    phis = np.linspace(-0.3, 0.3, 61)
    return make_cutoff(GAS, mach_threshold=0.45, eps_ref=0.3, phi_samples=phis)


def test_thresholds_match_dense_eps_grid(cut, cut_forced):
    # onset/cap speeds are the infima over eps in (0, eps_ref] of the speeds
    # at the two Mach bounds, for every phi in [-phi_star, phi_star]
    for spec in (cut, cut_forced):
        bounds = (spec.mach_threshold, (spec.mach_threshold + 1.0) / 2.0)
        for phi in np.linspace(-spec.phi_star, spec.phi_star, 5):
            for bound, q in zip(bounds, (spec.q_lower, spec.q_upper)):
                expect = oracles.threshold_speed_sq(bound, phi, spec.gamma,
                                                    spec.eps_ref, spec.q_inf)
                assert q(phi) ** 2 == pytest.approx(expect, rel=1e-10)


def test_cutoff_identity_branch(cut):
    assert cut.q_lower(0.0) > 0.5  # 0.25 is safely below the onset
    val, dl = truncated_speed_sq(0.25, 0.0, cut)
    assert (val, dl) == (0.25, 1.0)


def test_cutoff_identity_branch_with_force(cut_forced):
    val, dl = truncated_speed_sq(0.25, 0.1, cut_forced)
    assert val == pytest.approx(0.05, abs=1e-15)
    assert dl == 1.0


def test_cutoff_saturated_branch(cut):
    lam_hi = cut.q_upper(0.0) ** 2
    val, dl = truncated_speed_sq(2.0 * lam_hi, 0.0, cut)
    assert val == pytest.approx(cut.saturation, rel=1e-14)
    assert dl == 0.0


def test_cutoff_bridge_monotone_and_c1(cut_forced):
    spec = cut_forced
    for phi in (-0.25, 0.0, 0.25):
        lo = spec.q_lower(phi) ** 2
        hi = spec.q_upper(phi) ** 2
        lam = np.linspace(lo - 0.2, hi + 0.2, 2001)
        val, dl = truncated_speed_sq(lam, phi, spec)
        assert np.all(np.diff(val) >= -1e-12)
        assert np.all(dl >= -1e-14)
        # finite-difference check of the Lambda-partial across the branches
        h = 1e-6
        vp, _ = truncated_speed_sq(lam + h, phi, spec)
        vm, _ = truncated_speed_sq(lam - h, phi, spec)
        assert np.allclose((vp - vm) / (2 * h), dl, atol=5e-5)


def _branch_states(spec):
    """Speeds through all three branches, including both knots exactly."""
    phis = np.linspace(-spec.phi_star, spec.phi_star, 33)[:, None]
    lams = np.linspace(0.0, 1.25 * float(np.max(spec._lambda_hi(phis))), 801)
    knots = np.concatenate([spec._lambda_lo(phis), spec._lambda_hi(phis)], axis=1)
    return lams, phis, knots


@pytest.mark.parametrize("which", ["cut", "cut_forced"])
def test_truncated_speed_sq_matches_all_branch_oracle(which, request):
    spec = request.getfixturevalue(which)
    lams, phis, knots = _branch_states(spec)

    def same(lam, phi):
        got = truncated_speed_sq(lam, phi, spec)
        want = oracles.truncated_speed_sq(lam, phi, spec)
        for g, w in zip(got, want):
            assert np.shape(g) == np.shape(w)
            assert np.array_equal(g, w, equal_nan=True)
        return got

    # broadcast (801,) x (33, 1), as in the ellipticity scan
    _, dl = same(lams, phis)
    on_bridge = (dl != 0.0) & (dl != 1.0)
    assert np.any(dl == 1.0) and np.any(dl == 0.0) and np.any(on_bridge)
    # knots, with and without force, as arrays and as scalars
    for row, phi in zip(knots, phis[:, 0]):
        for p in (phi, np.full(2, phi)):
            same(row, p)
        for lam in row:
            assert isinstance(same(float(lam), float(phi))[0], float)
    same(lams, None)
    same(lams, 0.0)
    same(np.array([np.nan, 0.5 * lams[-1]]), 0.0)


def _cutoff_or_reject(gamma, theta, eps0, q_inf, star):
    gas = GasModel(gamma, eps0, q_inf)
    try:
        return make_cutoff(gas, theta, eps0, phi_samples=np.array([-star, star]))
    except ConfigError:
        assume(False)


_CUTOFF_PARAMS = dict(
    gamma=st.floats(1.0, 3.0), theta=st.floats(0.2, 0.8),
    eps0=st.floats(0.05, 0.6), q_inf=st.floats(0.2, 2.0),
    star=st.floats(0.0, 0.5), frac=st.floats(-1.0, 1.0),
)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(**_CUTOFF_PARAMS)
def test_truncated_speed_sq_nondecreasing_in_lambda(gamma, theta, eps0, q_inf,
                                                    star, frac):
    spec = _cutoff_or_reject(gamma, theta, eps0, q_inf, star)
    phi = frac * spec.phi_star
    lo, hi = float(spec._lambda_lo(phi)), float(spec._lambda_hi(phi))
    lam = np.sort(np.concatenate([np.linspace(0.0, 1.25 * hi, 2001), [lo, hi]]))
    val, dl = truncated_speed_sq(lam, phi, spec)
    # round-off of the Hermite sums: a few ulp of the largest term
    scale = max(abs(spec.saturation), abs(lo - 2.0 * phi), hi - lo)
    assert np.all(np.diff(val) >= -1e-13 * scale)
    assert np.all(dl >= -1e-13 * scale / (hi - lo))


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(**_CUTOFF_PARAMS)
def test_truncated_speed_sq_c1_at_both_knots(gamma, theta, eps0, q_inf, star,
                                             frac):
    spec = _cutoff_or_reject(gamma, theta, eps0, q_inf, star)
    phi = frac * spec.phi_star
    lo, hi = float(spec._lambda_lo(phi)), float(spec._lambda_hi(phi))
    h = hi - lo
    v0 = lo - 2.0 * phi
    # |second derivative| of the cubic bridge is at most this; both other
    # branches are affine
    curv = (6.0 * abs(spec.saturation - v0) + 4.0 * h) / h**2
    delta = 1e-5 * h
    # a difference quotient carries the round-off of its two values
    noise = 1e-14 * max(abs(spec.saturation), abs(v0), h) / delta
    for knot in (lo, hi):
        val, dl = truncated_speed_sq(np.array([knot - delta, knot, knot + delta]),
                                     phi, spec)
        left = (val[1] - val[0]) / delta
        right = (val[2] - val[1]) / delta
        # one-sided slopes of the function agree ...
        assert abs(right - left) <= delta * curv + 2.0 * noise
        # ... and the returned partial is that slope on both sides
        assert abs(dl[0] - left) <= delta * curv + noise
        assert abs(dl[2] - right) <= delta * curv + noise


def test_truncated_density_identity_matches_bernoulli(cut_forced):
    q2 = np.linspace(0.0, 1.5, 30)
    for phi in (-0.2, 0.0, 0.2):
        a = truncated_density(q2, phi, GAS, cut_forced)
        b = density_from_speed(q2, phi, GAS)
        assert np.allclose(a, b, rtol=1e-14)


def test_truncated_density_anchor_and_saturation(cut):
    assert truncated_density(GAS.q_inf**2, 0.0, GAS, cut) == pytest.approx(1.0, abs=1e-15)
    assert truncated_density(0.0, 0.0, GAS, cut) == pytest.approx(
        oracles.density_from_speed_bisect(0.0, 0.0, 1.4, 0.1, 1.0), rel=1e-10
    )
    lam_hi = cut.q_upper(0.0) ** 2
    r1 = truncated_density(2.0 * lam_hi, 0.0, GAS, cut)
    r2 = truncated_density(10.0 * lam_hi, 0.0, GAS, cut)
    assert r1 == r2


def test_truncated_density_two_sided_bound(cut_forced):
    spec = cut_forced
    rng = np.random.default_rng(7)
    q2 = rng.uniform(0.0, 3.0 * spec.q_upper(0.0) ** 2, size=4000)
    phi = rng.uniform(-0.3, 0.3, size=4000)
    # the bound is uniform over eps up to the cut-off reference, not beyond
    from lowmach import density_bounds

    for eps in (0.05, 0.15, spec.eps_ref):
        gas = GasModel(1.4, eps, 1.0)
        rho = truncated_density(q2, phi, gas, spec)
        low, high = density_bounds(gas, spec)
        assert low == pytest.approx(
            oracles.sonic_head_inv_bisect(-spec.phi_star, 1.4), rel=1e-10)
        assert high == pytest.approx(
            enthalpy_inv(gas.q_inf**2 / 2.0 + spec.phi_star, gas), rel=1e-14)
        assert np.all(rho > low)
        assert np.all(rho <= high)


def test_truncated_density_eps_too_large(cut):
    gas = GasModel(gamma=1.4, epsilon=5.0, q_inf=1.0)
    with pytest.raises(ConfigError):
        truncated_density(np.array([0.0, 10.0]), 0.0, gas, cut)


def test_density_departure_matches_direct(cut):
    # at moderate eps the naive difference is accurate enough to compare
    q2 = np.linspace(0.0, 2.0, 17)
    direct = (truncated_density(q2, 0.0, GAS, cut) - 1.0) / GAS.epsilon**2
    stable = density_departure(q2, 0.0, GAS, cut)
    assert np.allclose(stable, direct, rtol=1e-8)


def test_density_departure_low_mach_limit(cut_forced):
    # identity branch: (rho_hat - 1)/eps^2 -> (q_inf^2 - q^2 + 2 phi)/(2 gamma)
    q2, phi = 0.7, 0.2
    expect = (1.0 - q2 + 2.0 * phi) / (2.0 * 1.4)
    for eps in (1e-3, 1e-5):
        gas = GasModel(1.4, eps, 1.0)
        got = density_departure(q2, phi, gas, cut_forced)
        assert got == pytest.approx(expect, rel=5e-5 if eps == 1e-3 else 5e-9)


# The closure over its parameter domain: gamma in [1, 3], epsilon in
# [1e-8, eps_ref] and the truncated speed variable in [0, saturation].
_EPS_REF = 0.45


def _force_free_spec(gamma, q_inf):
    # the cut-off without its eigenvalue scan, which these properties never read
    spec = CutoffSpec(0.65, _EPS_REF, gamma, q_inf, 0.0, float("nan"))
    return replace(spec, saturation=float(spec._lambda_hi(0.0)))


_CLOSURE_DOMAIN = dict(
    gamma=st.floats(1.0, 3.0), log_eps=st.floats(-8.0, np.log10(_EPS_REF)),
    q_inf=st.floats(0.5, 2.0),
)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(frac=st.floats(0.0, 1.0), **_CLOSURE_DOMAIN)
@example(frac=1.0, gamma=1.0, log_eps=-8.0, q_inf=1.0)
@example(frac=1.0, gamma=1.0, log_eps=np.log10(_EPS_REF), q_inf=1.0)
@example(frac=1.0, gamma=3.0, log_eps=np.log10(_EPS_REF), q_inf=2.0)
def test_departure_matches_high_precision_oracle(frac, gamma, log_eps, q_inf):
    gas = GasModel(gamma, 10.0**log_eps, q_inf)
    spec = _force_free_spec(gamma, q_inf)
    qhat = np.concatenate([np.linspace(0.0, spec.saturation, 9),
                           [q_inf**2, frac * spec.saturation]])
    lam = np.linspace(0.0, 1.25 * spec._lambda_hi(0.0), 9)
    cases = [(qhat, level_departure(qhat, gas)),
             (truncated_speed_sq(lam, 0.0, spec)[0], density_departure(lam, 0.0, gas, spec))]
    for q, got in cases:
        want = np.array([oracles.level_departure_mp(v, gamma, gas.epsilon, q_inf**2)
                         for v in q])
        # zero exactly at the anchor level, 2e-15 relative elsewhere
        assert np.array_equal(got == 0.0, want == 0.0)
        nz = want != 0.0
        assert np.all(np.abs(got[nz] - want[nz]) <= 2e-15 * np.abs(want[nz]))


def test_departure_limit_survives_eps_squared_underflow():
    # eps^2 = 1e-400 is 0 in double precision; the departure is its limit
    for gamma in (1.0, 1.4, 3.0):
        gas = GasModel(gamma, 1e-200, 1.0)
        q = np.array([0.0, 0.3, 1.0, 2.5])
        expect = (1.0 - q) / (2.0 * gamma)
        got = level_departure(q, gas)
        assert np.all(np.abs(got - expect) <= 1e-12 * np.abs(expect))
        assert level_departure(0.3, gas) == pytest.approx(0.7 / (2.0 * gamma), rel=1e-12)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(**_CLOSURE_DOMAIN)
@example(gamma=1.0, log_eps=np.log10(_EPS_REF), q_inf=1.0)
def test_closure_slope_is_pressure_slope(gamma, log_eps, q_inf):
    gas = GasModel(gamma, 10.0**log_eps, q_inf)
    spec = _force_free_spec(gamma, q_inf)
    lam = np.linspace(0.0, 1.25 * spec._lambda_hi(0.0), 33)
    _, _, rho, ps = closure(lam, 0.0, gas, spec)
    want = pressure_slope(rho, gas)
    assert np.all(np.abs(ps - want) <= 1e-14 * want)


def test_level_departure_rejects_levels_past_vacuum():
    gamma, eps = 1.4, 0.3
    gas = GasModel(gamma, eps, 1.0)
    # the Bernoulli level eps^2 (1 - qhat)/2 reaches the vacuum floor
    # -gamma/(gamma - 1) at this qhat
    floor = 1.0 + 2.0 * gamma / ((gamma - 1.0) * eps**2)
    inside = level_departure(np.array([0.999 * floor]), gas)[0]
    assert -1.0 / eps**2 < inside < 0.0
    for qhat in (1.001 * floor, 1.01 * floor, np.array([0.5, 1.01 * floor])):
        with pytest.raises(ConfigError):
            level_departure(qhat, gas)
    # the isothermal gas has no vacuum level
    iso = GasModel(1.0, eps, 1.0)
    assert -1.0 / eps**2 < level_departure(1.01 * floor, iso) < 0.0


def test_energy_density_zero(cut):
    assert energy_density(0.0, 0.0, GAS, cut) == 0.0


def test_energy_density_low_mach_limit(cut):
    gas = GasModel(1.4, 1e-7, 1.0)
    assert energy_density(1.0, 0.0, gas, cut) == pytest.approx(0.5, rel=1e-10)


def test_energy_density_vs_trapezoid(cut):
    # quadrature-refinement oracle: 1e6-point trapezoid of rho_hat / 2
    for lam_top in (1.0, 1.3 * cut.q_upper(0.0) ** 2):
        grid = np.linspace(0.0, lam_top, 1_000_001)
        rho = truncated_density(grid, 0.0, GAS, cut)
        expect = np.trapezoid(rho, grid) / 2.0
        assert energy_density(lam_top, 0.0, GAS, cut) == pytest.approx(expect, rel=1e-8)


def test_energy_density_slope_is_half_density(cut_forced):
    lam = np.linspace(0.05, 1.4 * cut_forced.q_upper(0.2) ** 2, 37)
    h = 1e-5
    up = energy_density(lam + h, 0.2, GAS, cut_forced)
    dn = energy_density(lam - h, 0.2, GAS, cut_forced)
    fd = (up - dn) / (2.0 * h)
    expect = truncated_density(lam, 0.2, GAS, cut_forced) / 2.0
    assert np.allclose(fd, expect, rtol=1e-6, atol=1e-8)


def test_coefficients_stagnation(cut):
    c, d = coefficients(0.0, 0.0, GAS, cut)
    rho0 = truncated_density(0.0, 0.0, GAS, cut)
    assert c == pytest.approx(rho0, rel=1e-14)
    assert np.array_equal(oracles.coefficient_matrix(np.zeros(3), c, d), c * np.eye(3))


def test_coefficients_rank_one_eigenvalues(cut):
    v = np.array([GAS.q_inf, 0.0, 0.0])
    lam = GAS.q_inf**2
    c, d = coefficients(lam, 0.0, GAS, cut)
    rho = 1.0
    deflated = rho * (1.0 - GAS.epsilon**2 * GAS.q_inf**2 / (1.4 * rho**0.4))
    assert c - d * lam == pytest.approx(deflated, rel=1e-12)
    assert c == pytest.approx(rho, rel=1e-12)
    evals = np.sort(np.linalg.eigvalsh(oracles.coefficient_matrix(v, c, d)))
    assert evals[0] == pytest.approx(deflated, rel=1e-12)
    assert evals[1] == pytest.approx(rho, rel=1e-12)
    assert evals[2] == pytest.approx(rho, rel=1e-12)


def test_coefficients_saturated_isotropic(cut):
    lam = (2.5 * cut.q_upper(0.0)) ** 2
    c, d = coefficients(lam, 0.0, GAS, cut)
    assert d == 0.0
    assert c == pytest.approx(truncated_density(lam, 0.0, GAS, cut), rel=1e-14)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(gamma=st.floats(1.0, 3.0), q_inf=st.floats(0.2, 2.0),
       theta=st.floats(0.05, 0.95), eps0=st.floats(0.05, 0.95),
       star=st.floats(0.0, 1.0), phi_low=st.floats(-1.0, 0.0),
       log_eps=st.floats(-6.0, 0.0),
       seed=st.integers(0, 2**32 - 1))
# the smallest eigenvalue over epsilon is interior here: 0.99394 at
# eps ~ 0.53, against 1.0125 at eps_ref (see _ellipticity_scan)
@example(gamma=3.0, q_inf=2.0, theta=0.05, eps0=0.95, star=0.3, phi_low=0.0,
         log_eps=np.log10(0.53 / 0.95), seed=0)
def test_coefficients_bounds_random_states(gamma, q_inf, theta, eps0, star,
                                          phi_low, log_eps, seed):
    # the force potential is sampled on [phi_low * star, star]
    samples = np.linspace(phi_low * star, star, 31)
    try:
        spec = make_cutoff(GasModel(gamma, eps0, q_inf), theta, eps0,
                           phi_samples=samples)
    except ConfigError:
        assume(False)
    gas = GasModel(gamma, eps0 * 10.0**log_eps, q_inf)
    rng = np.random.default_rng(seed)
    n_state = 4000
    star = spec.phi_star
    lam_max = 2.0 * float(np.max(spec._lambda_hi(np.array([-star, star]))))
    v = rng.normal(size=(n_state, 3))
    v *= (np.sqrt(rng.uniform(0.0, lam_max, n_state)) / np.linalg.norm(v, axis=1))[:, None]
    phi = rng.uniform(-star, star, n_state)
    lam = np.sum(v * v, axis=1)
    c, d = coefficients(lam, phi, gas, spec)
    eig = np.linalg.eigvalsh(oracles.coefficient_matrix(v, c, d))
    for ev in (c, c - d * lam, eig):
        assert np.all(ev >= spec.lam1)
        assert np.all(ev <= spec.lam2)


def test_ellipticity_scan_matches_per_epsilon_closure(cut, cut_forced):
    for spec in (cut, cut_forced):
        assert (spec.lam1, spec.lam2) == oracles.ellipticity_scan(spec)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(gamma=st.floats(1.0, 3.0), q_inf=st.floats(0.2, 2.0),
       theta=st.floats(0.05, 0.95), eps0=st.floats(0.05, 0.95),
       star=st.floats(0.0, 1.0), phi_low=st.floats(-1.0, 0.0))
def test_ellipticity_scan_matches_per_epsilon_closure_random_configs(
        gamma, q_inf, theta, eps0, star, phi_low):
    # the admissible configurations of test_coefficients_bounds_random_states
    samples = np.linspace(phi_low * star, star, 31)
    try:
        spec = make_cutoff(GasModel(gamma, eps0, q_inf), theta, eps0,
                           phi_samples=samples)
    except ConfigError:
        assume(False)
    assert (spec.lam1, spec.lam2) == oracles.ellipticity_scan(spec)


def test_coefficients_broadcast_over_phi(cut_forced):
    # a single speed against an array of force potentials gives one pair
    # per potential, each equal to the call at that potential alone
    lam = 0.7**2 + 0.2**2 + 0.1**2
    phis = np.linspace(-0.3, 0.3, 7)
    c, d = coefficients(lam, phis, GAS, cut_forced)
    assert c.shape == d.shape == (7,)
    for k, phi in enumerate(phis):
        assert (c[k], d[k]) == coefficients(lam, float(phi), GAS, cut_forced)


def test_gas_model_validation():
    with pytest.raises(ConfigError):
        GasModel(gamma=0.9, epsilon=0.1, q_inf=1.0)
    with pytest.raises(ConfigError):
        GasModel(gamma=1.4, epsilon=0.0, q_inf=1.0)
    with pytest.raises(ConfigError):
        GasModel(gamma=1.4, epsilon=0.1, q_inf=-1.0)


@pytest.mark.parametrize("eps", [1e200, 1e308, np.inf])
def test_gas_model_rejects_an_epsilon_whose_square_overflows(eps):
    with pytest.raises(ConfigError, match="epsilon"):
        GasModel(gamma=1.4, epsilon=eps, q_inf=1.0)
    GasModel(gamma=1.4, epsilon=1e150, q_inf=1.0)    # 1e300 is still finite


def test_make_cutoff_validation():
    with pytest.raises(ConfigError):
        make_cutoff(GAS, mach_threshold=1.5)
    with pytest.raises(ConfigError):
        make_cutoff(GAS, eps_ref=1.5)
