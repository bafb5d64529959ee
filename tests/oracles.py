"""Independent numerical oracles used by the test suite.

These deliberately avoid the closed forms used by the library: enthalpies
are integrated by quadrature and inverted by safeguarded bisection, so a
test that compares against them exercises two genuinely different routes to
the same number.
"""

import tracemalloc

import numpy as np
import scipy.sparse as sp
from scipy.integrate import quad

from lowmach.errors import ConfigError, DomainError
from lowmach.gas import _as_result, _phi_of, closure
from lowmach.geometry import _basis_values


def p_prime(s, gamma):
    return gamma * s ** (gamma - 1.0)


def enthalpy_quadrature(rho, gamma):
    """h(rho) = int_1^rho p'(s)/s ds by adaptive quadrature."""
    val, _ = quad(lambda s: p_prime(s, gamma) / s, 1.0, rho, epsabs=1e-14, epsrel=1e-13)
    return val


def sonic_head(rho, gamma):
    return 0.5 * p_prime(rho, gamma) + enthalpy_quadrature(rho, gamma)


def bisect_increasing(fn, lo, hi, target, rtol=1e-12, max_iter=200):
    """Safeguarded bisection for a strictly increasing scalar function."""
    flo, fhi = fn(lo) - target, fn(hi) - target
    assert flo <= 0.0 <= fhi, "bracket does not straddle the target"
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        fm = fn(mid) - target
        if fm <= 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= rtol * max(abs(lo), abs(hi)):
            break
    return 0.5 * (lo + hi)


def enthalpy_inv_bisect(y, gamma):
    return bisect_increasing(lambda r: enthalpy_quadrature(r, gamma), 1e-6, 1e6, y)


def sonic_head_inv_bisect(y, gamma):
    return bisect_increasing(lambda r: sonic_head(r, gamma), 1e-6, 1e6, y)


def density_from_speed_bisect(q2, phi, gamma, epsilon, q_inf):
    lvl = epsilon**2 * ((q_inf**2 - q2) / 2.0 + phi)
    return enthalpy_inv_bisect(lvl, gamma)


def mach_of_speed(q, phi, gamma, epsilon, q_inf):
    rho = density_from_speed_bisect(q * q, phi, gamma, epsilon, q_inf)
    return epsilon * q / np.sqrt(p_prime(rho, gamma))


def speed_at_mach_bisect(m, phi, gamma, epsilon, q_inf):
    """Bisection on the monotone map q -> M(q), bracketed below sonic.

    The bracket grows in steps of 1.25 from a speed below Mach m <= 1, so it
    stays below the vacuum speed, at least sqrt(2) times the sonic one for
    gamma <= 3.
    """
    q_hi = 1.0
    while mach_of_speed(q_hi, phi, gamma, epsilon, q_inf) < m:
        q_hi *= 1.25
    return bisect_increasing(
        lambda q: mach_of_speed(q, phi, gamma, epsilon, q_inf), 1e-12, q_hi, m
    )


def threshold_speed_sq(m, phi, gamma, eps_ref, q_inf, n_eps=2001):
    """inf over eps in (0, eps_ref] of the squared speed at Mach ``m``.

    For each eps of a dense geometric grid ending at eps_ref, bisects
    M(q) = eps q / c(q) = m with the gamma-law sound speed read off the
    Bernoulli relation, c^2 = gamma + (gamma-1) eps^2 ((q_inf^2 - q^2)/2 + phi);
    then takes the minimum over the grid.
    """
    eps = eps_ref * np.geomspace(1e-3, 1.0, n_eps)

    def mach_sq(q):
        c2 = gamma + (gamma - 1.0) * eps**2 * ((q_inf**2 - q * q) / 2.0 + phi)
        return np.where(c2 > 0.0, eps**2 * q * q / np.where(c2 > 0.0, c2, 1.0), np.inf)

    lo = np.zeros_like(eps)
    hi = np.ones_like(eps)
    while np.any(mach_sq(hi) < m * m):
        hi = np.where(mach_sq(hi) < m * m, 2.0 * hi, hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        below = mach_sq(mid) < m * m
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    return float(np.min(0.5 * (lo + hi)) ** 2)


def level_departure_mp(qhat, gamma, epsilon, q_inf_sq, dps=50):
    """(rho - 1)/eps^2 at 50 digits, rho from the Bernoulli level
    eps^2 (q_inf_sq - qhat)/2 through the power form of the enthalpy
    inverse, (1 + (gamma-1) h/gamma)^(1/(gamma-1)), or exp(h) at gamma = 1.
    The inputs are taken as the exact values of their doubles; at 50 digits
    the difference rho - 1 keeps more than 30 of them for eps >= 1e-8."""
    import mpmath as mp  # only this oracle needs it

    with mp.workdps(dps):
        g, eps2 = mp.mpf(gamma), mp.mpf(epsilon) ** 2
        lvl = eps2 * (mp.mpf(q_inf_sq) - mp.mpf(qhat)) / 2
        rho = mp.exp(lvl) if gamma == 1.0 else mp.power(1 + (g - 1) * lvl / g, 1 / (g - 1))
        return float((rho - 1) / eps2)


# Gauss-Legendre nodes/weights on [0, 1], for the energy density's bridge.
_T16, _W16 = np.polynomial.legendre.leggauss(16)
_T16 = 0.5 * (_T16 + 1.0)
_W16 = 0.5 * _W16


def energy_density(lam, f, gas, spec):
    """Integral energy density G(Lambda, phi) = 1/2 int_0^Lambda rho_hat.

    Closed form on the identity branch (the antiderivative of the density
    along the Bernoulli branch is the pressure), 16-point Gauss on the
    bridge, and linear in Lambda past saturation.  G(0) = 0 and
    dG/dLambda = rho_hat / 2.
    """
    lam = np.asarray(lam, dtype=float)
    phi = np.asarray(_phi_of(f), dtype=float)
    lam, phi = np.broadcast_arrays(lam, phi)
    if np.any(lam < 0.0):
        raise DomainError("energy_density requires Lambda >= 0")

    lam_lo = np.asarray(spec._lambda_lo(phi))
    lam_hi = np.asarray(spec._lambda_hi(phi))
    eps2 = gas.epsilon**2
    g = gas.gamma

    # Identity segment [0, min(lam, lam_lo)]: G = (p(rho(0)) - p(rho(L)))/eps^2,
    # written in expm1/log1p form so the eps -> 0 limit (= L/2) is exact.
    l1 = np.minimum(lam, lam_lo)
    y1 = eps2 * ((gas.q_inf**2 - l1) / 2.0 + phi)
    if g == 1.0:
        dlog = eps2 * l1 / 2.0
        ident = np.exp(y1) * np.expm1(dlog) / eps2
    else:
        u1 = 1.0 + (g - 1.0) * y1 / g
        if np.any(u1 <= 0.0):
            raise ConfigError("energy_density: Bernoulli level out of range")
        dlog = np.log1p((g - 1.0) * eps2 * l1 / (2.0 * g * u1)) / (g - 1.0)
        ident = np.exp(g / (g - 1.0) * np.log1p((g - 1.0) * y1 / g)) \
            * np.expm1(g * dlog) / eps2

    out = ident

    # Bridge segment [lam_lo, min(lam, lam_hi)], 16-point Gauss.
    on_bridge = lam > lam_lo
    if np.any(on_bridge):
        b_hi = np.minimum(lam, lam_hi)
        seg = np.where(on_bridge, b_hi - lam_lo, 0.0)
        nodes = lam_lo[..., None] + seg[..., None] * _T16
        rho_b = closure(nodes, phi[..., None], gas, spec)[2]
        out = out + 0.5 * seg * (np.asarray(rho_b) @ _W16)

    # Saturated tail.
    past = lam > lam_hi
    if np.any(past):
        rho_sat = closure(lam_hi, phi, gas, spec)[2]
        out = out + np.where(past, 0.5 * np.asarray(rho_sat) * (lam - lam_hi), 0.0)

    return _as_result(out)


def coulomb_ball(targets2d, mass, radius, n_radial=12, n_polar=12, n_azimuth=16,
                 chunk=2048):
    """Potential and meridian-plane gradient of a uniform ball by direct summation.

    The ball of total ``mass`` and ``radius`` is sampled with Gauss points in
    radius and polar cosine and uniformly in azimuth, the sample masses
    normalized to the total; phi(x) = sum_k w_k / |x - y_k|.
    """
    xs, ws = np.polynomial.legendre.leggauss(n_radial)
    rs = 0.5 * radius * (xs + 1.0)
    wr = 0.5 * radius * ws
    xm, wm = np.polynomial.legendre.leggauss(n_polar)
    az = 2.0 * np.pi * (np.arange(n_azimuth) + 0.5) / n_azimuth
    R, MU, AZ = np.meshgrid(rs, xm, az, indexing="ij")
    WR, WMU, _ = np.meshgrid(wr, wm, az, indexing="ij")
    s = np.sqrt(1.0 - MU**2)
    src = np.stack([R * MU, R * s * np.cos(AZ), R * s * np.sin(AZ)],
                   axis=-1).reshape(-1, 3)
    w = (WR * WMU * R**2).reshape(-1)
    w *= mass / w.sum()

    t3 = np.zeros((targets2d.shape[0], 3))
    t3[:, :2] = targets2d
    phi = np.empty(t3.shape[0])
    grad = np.empty((t3.shape[0], 2))
    for lo in range(0, t3.shape[0], chunk):
        d = t3[lo:lo + chunk, None, :] - src[None, :, :]
        inv = 1.0 / np.linalg.norm(d, axis=-1)
        phi[lo:lo + chunk] = inv @ w
        grad[lo:lo + chunk] = -np.einsum("tk,tkd->td", w * inv**3, d)[:, :2]
    return phi, grad


def analytic_disk_reference(a, q_inf, point):
    """Exact potential and velocity for the planar disk (two-dimensional)."""
    p = np.asarray(point, dtype=float)
    if p.shape[-1] != 2:
        raise DomainError("disk reference expects 2-d points")
    r = np.linalg.norm(p, axis=-1)
    if np.any(r < a * (1.0 - 1e-12)):
        raise DomainError("point inside the obstacle")
    x1 = p[..., 0]
    phi = q_inf * (x1 + a**2 * x1 / r**2)
    e1 = np.zeros_like(p)
    e1[..., 0] = 1.0
    u = q_inf * (
        (1.0 + a**2 / r**2)[..., None] * e1
        - (2.0 * a**2 * x1 / r**4)[..., None] * p
    )
    return phi, u


def truncated_speed_sq(q2, phi, spec):
    """The cut-off variable and its Lambda-partial, every branch evaluated everywhere.

    The bridge algebra runs at every point and np.where picks the branch;
    the library evaluates the bridge only where a point lies on it, so the
    two must agree bit for bit.
    """
    lam = np.asarray(q2, dtype=float)
    phi = np.asarray(0.0 if phi is None else phi, dtype=float)
    lam, phi = np.broadcast_arrays(lam, phi)

    lam_lo = np.asarray(spec._lambda_lo(phi))
    lam_hi = np.asarray(spec._lambda_hi(phi))
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

    bridge_val = v0 * h00 + h * h10 + sat * h01
    bridge_dl = (v0 * d00 + h * d10 + sat * d01) / h

    below = lam <= lam_lo
    above = lam >= lam_hi
    qhat = np.where(below, lam - 2.0 * phi, np.where(above, sat, bridge_val))
    dl = np.where(below, 1.0, np.where(above, 0.0, bridge_dl))
    return qhat, dl


def ellipticity_scan(spec):
    """The eigenvalue bounds of gas._ellipticity_scan by one full closure
    call per epsilon, truncation included (the library evaluates the
    epsilon-independent truncation once); the two must agree bit for bit."""
    from lowmach.gas import GasModel, closure

    star = spec.phi_star
    phis = np.linspace(-star, star, 33) if star > 0 else np.zeros(1)
    lams = np.linspace(0.0, 1.25 * float(np.max(spec._lambda_hi(phis))), 801)
    lo, hi = np.inf, -np.inf
    for eps in np.geomspace(1e-3 * spec.eps_ref, spec.eps_ref, 25):
        gas = GasModel(spec.gamma, float(eps), spec.q_inf)
        _, qhat_L, rho, ps = closure(lams, phis[:, None], gas, spec)
        w = eps**2 * qhat_L * lams / ps
        lo = min(lo, float((rho * np.minimum(1.0, 1.0 - w)).min()))
        hi = max(hi, float((rho * np.maximum(1.0, 1.0 - w)).max()))
    return 0.98 * lo, 1.02 * hi


def coefficient_matrix(v, c, d):
    """The n x n array c I - d v v^T of gas.coefficients at velocities v
    (..., n), batched over the leading axes of v, c and d."""
    v = np.asarray(v, dtype=float)
    c, d = (np.asarray(x)[..., None, None] for x in (c, d))
    return c * np.eye(v.shape[-1]) - d * (v[..., :, None] * v[..., None, :])


# The obstacle's implicit normal and point evaluation of a nodal field.

def level_set_normal(shape, points):
    """Unit normal from the implicit boundary description, pointing
    away from the obstacle (into the fluid)."""
    p = np.atleast_2d(np.asarray(points, dtype=float))
    a, b = shape.semi_axes
    g = np.stack([p[:, 0] / a**2, p[:, 1] / b**2], axis=1)
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    return g if np.asarray(points).ndim > 1 else g[0]


def evaluate(mesh, nodal, points):
    """Bilinear field value at arbitrary points inside the shell."""
    cid, xi, eta = mesh.locate(points)
    N = _basis_values(xi, eta)
    vals = np.asarray(nodal)[mesh.cells[cid]]
    out = np.einsum("pk,pk->p", N, vals)
    return out if np.asarray(points).ndim > 1 else float(out[0])


# Finite-element kernels written as einsum contractions over the
# point-major (M, Q, 4, 2) basis-gradient layout.

def _point_major_grads(mesh):
    return mesh.bgrads.transpose(0, 2, 1, 3)


def grad_at_qpts(mesh, nodal):
    vals = np.asarray(nodal)[mesh.cells]
    return np.einsum("mc,mqcd->mqd", vals, _point_major_grads(mesh))


def assemble_vector_load(mesh, vec_at_qpts):
    contrib = np.einsum("mqd,mqcd,mq->mc", vec_at_qpts, _point_major_grads(mesh),
                        mesh.qweights)
    out = np.zeros(mesh.n_nodes)
    np.add.at(out, mesh.cells.ravel(), contrib.ravel())
    return out


def assemble_matrix(mesh, coeff):
    bg = _point_major_grads(mesh)
    c = np.asarray(coeff)
    if c.ndim == 2:
        flux = c[..., None, None] * bg
        blocks = np.einsum("mqid,mqjd,mq->mij", bg, flux, mesh.qweights)
    else:
        blocks = np.einsum("mqid,mqde,mqje,mq->mij", bg, c, bg, mesh.qweights)
    rows = np.repeat(mesh.cells, 4, axis=1).ravel()
    cols = np.tile(mesh.cells, (1, 4)).ravel()
    n = mesh.n_nodes
    return sp.coo_matrix((blocks.ravel(), (rows, cols)), shape=(n, n)).tocsr()


def stencil_to_csr(s):
    """CSR matrix of a (3, 3, n_i, n_j) stencil: row (i, j) couples to node
    (i + a - 1, (j + b - 1) mod n_j) with s[a, b, i, j].  Couplings that
    would leave the station range must be zero."""
    _, _, n_i, n_j = s.shape
    i, j = np.meshgrid(np.arange(n_i), np.arange(n_j), indexing="ij")
    rows, cols, vals = [], [], []
    for a in range(3):
        for b in range(3):
            ii, jj = i + a - 1, (j + b - 1) % n_j
            inside = (ii >= 0) & (ii < n_i)
            assert np.all(s[a, b][~inside] == 0.0)
            rows.append((i * n_j + j)[inside])
            cols.append((ii * n_j + jj)[inside])
            vals.append(s[a, b][inside])
    n = n_i * n_j
    return sp.coo_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                         shape=(n, n)).tocsr()


def thomas_line_solve(s, r, omega):
    """omega T^-1 r for the tridiagonal radial-line part T of a stencil
    (diagonal s[1, 1], coupling s[2, 1] to the next station): an L D L^T
    Thomas sweep per line, one station at a time."""
    diag, off = s[1, 1], s[2, 1, :-1]
    low, piv = np.empty_like(off), np.empty_like(diag)
    piv[0] = diag[0]
    for i in range(1, diag.shape[0]):
        low[i - 1] = off[i - 1] / piv[i - 1]
        piv[i] = diag[i] - low[i - 1] * off[i - 1]
    y = r.reshape(diag.shape).copy()
    for i in range(1, diag.shape[0]):
        y[i] -= low[i - 1] * y[i - 1]
    y *= omega / piv
    for i in range(diag.shape[0] - 2, -1, -1):
        y[i] -= low[i] * y[i + 1]
    return y.reshape(-1)


def jacobi_pcg(a, b, tol=1e-10):
    """Jacobi-preconditioned conjugate gradient from zero: (x, history).

    A one-level solver: its iteration count doubles with each uniform
    refinement.
    """
    n = b.shape[0]
    bnorm = np.linalg.norm(b)
    x = np.zeros(n)
    d = a.diagonal()
    d = np.where(d > 0.0, d, 1.0)
    r = b.copy()
    z = r / d
    p = z.copy()
    rz = r @ z
    history = [float(np.linalg.norm(r) / bnorm)]
    for _ in range(max(20 * n, 200)):
        if history[-1] <= tol:
            break
        ap = a @ p
        alpha = rz / (p @ ap)
        x += alpha * p
        r -= alpha * ap
        z = r / d
        rz_new = r @ z
        p = z + (rz_new / rz) * p
        rz = rz_new
        history.append(float(np.linalg.norm(r) / bnorm))
    return x, history


# Weak pressure-gap pairing in tensor form: every panel field w as a
# (M, Q, 2) vector with its (M, Q, 2, 2) gradient, and the momentum-flux
# difference T built from outer products and contracted with einsum.

def tensor_panel(mesh):
    """{name: (w, grad_w)} with grad_w[..., i, j] = d w_i / d x_j."""
    pts = mesh.qpts
    x1 = pts[..., 0]
    xr = pts[..., 1]
    r = np.hypot(x1, xr)
    r0 = 1.5 * mesh.shape.max_radius
    r1 = 0.7 * mesh.r_far
    s = np.clip((r - r0) / (r1 - r0), 0.0, 1.0)
    g = np.sin(np.pi * s) ** 2
    gp = np.where((s > 0.0) & (s < 1.0),
                  np.pi / (r1 - r0) * np.sin(2.0 * np.pi * s), 0.0)

    rhat = np.stack([x1, xr], axis=-1) / r[..., None]
    mu = x1 / r
    eye = np.eye(2)
    outer_r = rhat[..., :, None] * rhat[..., None, :]
    grad_mu = (np.stack([np.ones_like(mu), np.zeros_like(mu)], axis=-1)
               - mu[..., None] * rhat) / r[..., None]

    panel = {}
    e1 = np.zeros_like(rhat)
    e1[..., 0] = 1.0

    w = g[..., None] * rhat
    gw = gp[..., None, None] * outer_r + (g / r)[..., None, None] * (eye - outer_r)
    panel["radial"] = (w, gw)

    w = (g * mu)[..., None] * e1
    gw = np.zeros(pts.shape + (2,))
    gw[..., 0, :] = (gp * mu)[..., None] * rhat + g[..., None] * grad_mu
    panel["aligned"] = (w, gw)

    q2 = 1.5 * mu**2 - 0.5
    w = (g * q2)[..., None] * rhat
    gw = (gp * q2)[..., None, None] * outer_r \
        + (g * 3.0 * mu)[..., None, None] * (rhat[..., :, None] * grad_mu[..., None, :]) \
        + (g * q2 / r)[..., None, None] * (eye - outer_r)
    panel["quadrupole"] = (w, gw)
    return panel


def pointwise_state(state):
    """(correction gradient, velocity, density, departure) of a flow state at
    every quadrature point, the departure from ``gas.density_departure``."""
    from lowmach import fem
    from lowmach.gas import density_departure, truncated_density
    from lowmach.incompressible import velocity_at_qpts

    gas, mesh = state.gas, state.psi_base.mesh
    phi = 0.0 if state.force is None else state.force.phi_qpts
    corr_grad = fem.grad_at_qpts(mesh, state.phi_corr.values)
    u = velocity_at_qpts(state.psi_base, gas.q_inf) + gas.epsilon**2 * corr_grad
    lam = np.sum(u * u, axis=-1)
    return (corr_grad, u, truncated_density(lam, phi, gas, state.cut),
            density_departure(lam, phi, gas, state.cut))


def weak_dp_gaps_tensor(state, force=None):
    """eps^2 integral(T : grad w + departure grad(phi_f) . w) per panel field."""
    from lowmach import fem

    mesh = state.psi_base.mesh
    eps2 = state.gas.epsilon**2
    base = fem.grad_at_qpts(mesh, state.psi_base.values)
    base[..., 0] += state.gas.q_inf
    force_grad = (np.zeros(mesh.qpts.shape) if force is None
                  else np.asarray(force.grad_qpts, dtype=float))
    ut, u, _, dep = pointwise_state(state)

    T = (base[..., :, None] * ut[..., None, :]
         + ut[..., :, None] * base[..., None, :]
         + dep[..., None, None] * (u[..., :, None] * u[..., None, :])
         + eps2 * (ut[..., :, None] * ut[..., None, :]))

    gaps = {}
    for name, (w, gw) in tensor_panel(mesh).items():
        pair = np.einsum("mqij,mqij->mq", T, gw) \
            + dep * np.einsum("mqd,mqd->mq", force_grad, w)
        gaps[name] = float(eps2 * np.sum(mesh.qweights * pair))
    return gaps


# Structured-mesh index tables, the field dump one node at a time, and
# the artifact readers (np.loadtxt; a '#' header line is a comment to it).

def structured_tables(n_r, n_t, periodic):
    """(cells, gamma_nodes, sigma_nodes) of the shell: node (i, j) is
    i * n_th + (j mod n_th), with n_th = n_t angles on a periodic mesh and
    n_t + 1 otherwise; cell (i, j) lists its corners counter-clockwise."""
    n_th = n_t if periodic else n_t + 1

    def nid(i, j):
        return i * n_th + (j % n_th)

    cells = np.empty((n_r * n_t, 4), dtype=np.int64)
    for i in range(n_r):
        for j in range(n_t):
            cells[i * n_t + j] = (nid(i, j), nid(i + 1, j), nid(i + 1, j + 1), nid(i, j + 1))
    gamma = np.array([nid(0, j) for j in range(n_th)], dtype=np.int64)
    sigma = np.array([nid(n_r, j) for j in range(n_th)], dtype=np.int64)
    return cells, gamma, sigma


def field_dump_rows(nodes, weights, values):
    """The rows of a field dump, one f-string per node."""
    return "".join(f"{x:.17g} {y:.17g} {w:.17g} {v:.17g}\n"
                   for (x, y), w, v in zip(nodes, weights, values))


def header_fields(line):
    """The key=value fields of an artifact's header line."""
    return dict(tok.split("=", 1) for tok in line.split() if "=" in tok)


def read_field_dump(path):
    """A field dump as (header fields, rows x1 xr weight value)."""
    with open(path) as fh:
        return header_fields(fh.readline()), np.loadtxt(path, ndmin=2)


def read_mesh_dump(path):
    """A mesh dump as (header fields, node coordinates, cell corners)."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    n = int(lines[1].split()[1])
    m = int(lines[n + 2].split()[1])
    nodes = np.loadtxt(lines[2:n + 2], ndmin=2)[:, 1:]
    cells = np.loadtxt(lines[n + 3:n + 3 + m], dtype=np.int64, ndmin=2)[:, 1:]
    return header_fields(lines[0]), nodes, cells


def traced_units(mesh, call):
    """Peak memory that ``call()`` allocates, its result included, in units
    of one (M, Q) float array of ``mesh`` (tracemalloc)."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - start) / (8 * mesh.qweights.size)
