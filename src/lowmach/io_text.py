"""Versioned plain-text artifact formats.

Every file starts with a header line carrying the format version and the
hash of the run configuration.  Floats are written with 17 significant
digits, so ``np.loadtxt`` reads them back bit for bit, and reruns of the same
configuration produce byte-identical artifacts (no timestamps anywhere).

The numeric tables of the field dump and the surface CSV go through one
numpy kernel, ``g17_rows``, that writes byte for byte the text of ``'%.17g'``
without making a Python float of each value.  For 1e-6 < |x| < 1e16 the
decimal exponent k is in -6..15, so 10**(16-k) is an exact double: Dekker's
error-free product gives x * 10**(16-k) exactly as hi + lo, and rounding it
half to even gives the same 17 digits as the correctly rounded conversion of
``'%.17g'``.  The digits are laid out as bytes (four at a time from a
table), the point is put in (with the exponent ``e-05`` or ``e-06`` for
k < -4) and trailing zeros are stripped, as ``%g`` does.  Every other value
(zeros, |x| <= 1e-6, |x| >= 1e16, inf, nan) is formatted by ``'%.17g'``
itself.  Rows are formatted a chunk at a time, so the temporaries are
bounded by the chunk.
"""

import hashlib
import json
import math

import numpy as np

FIELD_FORMAT = "lowmach-field v1"
SURFACE_FORMAT = "lowmach-surface v1"
REPORT_FORMAT = "lowmach-report v1"

REPORT_COLUMNS = [
    "epsilon", "u_diff_l2", "u_diff_inf", "rho_diff_inf", "mach_max",
    "corr_energy", "corr_grad_inf", "dp_gap_radial", "dp_gap_aligned",
    "dp_gap_quadrupole", "dp_gap_max", "converged", "cutoff_removed",
    "cutoff_margin", "newton_iterations",
]


def config_hash(config):
    """Short content hash of a configuration mapping."""
    blob = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def _finite_or_null(obj):
    if isinstance(obj, dict):
        return {k: _finite_or_null(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_null(v) for v in obj]
    return None if isinstance(obj, float) and not math.isfinite(obj) else obj


def canonical_json(obj, compact=False):
    """Strict JSON (RFC 8259): a NaN or infinite float is written as null."""
    layout = {"separators": (",", ":")} if compact else {"indent": 2}
    return json.dumps(_finite_or_null(obj), sort_keys=True, allow_nan=False,
                      **layout) + "\n"


def node_weights(mesh):
    """Lumped nodal measure weights (include the axisymmetric factor)."""
    w = np.zeros((mesh.n_cells, 4))
    for wq, nq in zip(mesh.qweights.T, mesh.basis):      # over the points, in order
        w += wq[:, None] * nq
    return np.bincount(mesh.cells.ravel(), w.ravel(), minlength=mesh.n_nodes)


# ----------------------------------------------------------------------
# '%.17g' at numpy speed
# ----------------------------------------------------------------------

# Rows formatted per pass: the kernel's temporaries are bounded by the chunk.
_CHUNK_ROWS = 2048
# Each value is laid out in a 32-byte slot (four uint64 words): bytes 0..23
# hold seven '0's and the 17 digits d0..d16, as six four-byte words of
# _DIGITS4, and the rest is free for the point, the exponent and the
# separator.
_SLOT = 32
_PAD = 10000                         # _DIGITS4 index of an all-zero word


def _quad_tables():
    """The text of 0000..9999 as four-byte words, with an all-zero word at
    _PAD, and the trailing zeros of each (4 for 0000)."""
    digits = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T
    text = np.zeros((10001, 4), np.uint8)
    text[:10000] = digits + np.uint8(ord("0"))
    zeros = (digits[:, ::-1] == 0).cumprod(axis=1, dtype=np.int8).sum(axis=1, dtype=np.int8)
    return text.view(np.uint32).ravel(), zeros


_DIGITS4, _TRAILING_ZEROS4 = _quad_tables()


def _veltkamp(a):
    """(hi, lo) with hi + lo = a exactly, each half fitting in 26 bits."""
    c = 134217729.0 * a              # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


# 10**(16 - k) and its Veltkamp halves, indexed by t = k + 8 in 2..24, where
# 10**22 .. 10**0 are exact doubles; entries 0 and 1 are never read.
_POW10 = np.array([float(10 ** (24 - t)) for t in range(25)])
_POW10_HI, _POW10_LO = _veltkamp(_POW10)


_BYTE = np.arange(_SLOT)
# indexed by the point's byte m: keeps the bytes before it (0xff), takes the
# rest from the slot moved one byte right
_BEFORE = np.where(_BYTE < np.arange(_SLOT + 1)[:, None], 0xFF, 0
                   ).astype(np.uint8).view("V32").ravel()
# indexed by start * 32 + end: bytes start..end of a slot are True
_SPAN = ((_BYTE >= _BYTE.repeat(_SLOT)[:, None]) & (_BYTE <= np.tile(_BYTE, _SLOT)[:, None])
         ).view(np.uint8).view("V32").ravel()


def _scaled(a, t):
    """(hi, lo) = a * 10**(24 - t) exactly (Dekker's product, no overflow)."""
    b, b_hi, b_lo = _POW10.take(t), _POW10_HI.take(t), _POW10_LO.take(t)
    a_hi, a_lo = _veltkamp(a)
    hi = a * b
    lo = a_hi * b_hi
    lo -= hi
    lo += a_hi * b_lo
    lo += a_lo * b_hi
    lo += a_lo * b_lo
    return hi, lo


def _digits17(a):
    """Decimal exponent k and 17-digit integer D of each 1e-6 < a < 1e16.

    a rounded to 17 significant digits is D * 10**(k - 16), with
    10**16 <= D < 10**17: D is a * 10**(16 - k) rounded half to even.  The
    double 1e-6 lies below 10**-6, so k >= -6 and 10**(16 - k) is exact.
    """
    t = np.log10(a)
    t += 8.0                         # > 0, so truncation is floor
    t = t.astype(np.intp)            # k + 8, off by one at most near 10**k
    np.maximum(t, 2, out=t)          # 10**23 is not exact: a log10 one ulp low
                                     # just above 1e-6 would ask for it
    hi, lo = _scaled(a, t)
    # the exact product hi + lo must lie in [1e16, 1e17): move k by one where
    # it does not, from an exact comparison
    near = np.flatnonzero((hi <= 1e16) | (hi >= 1e17))
    if near.size:
        h, l = hi[near], lo[near]
        t[near] += ((h > 1e17) | ((h == 1e17) & (l >= 0.0))).astype(np.intp)
        t[near] -= (h < 1e16) | ((h == 1e16) & (l < 0.0))
        hi[near], lo[near] = _scaled(a[near], t[near])
    # hi >= 1e16 > 2**53 is an even integer, so rint's ties to even on lo
    # round hi + lo half to even.  No D reaches 10**17: the double below each
    # power of ten 10**(k+1) gives hi + lo <= 10**17 - 8.
    d = hi.astype(np.int64)
    d += np.rint(lo).astype(np.int64)
    t -= 8
    return t, d


def g17_rows(table, sep):
    """Yield the text of a 2-D float64 array's rows, a chunk of rows at a time.

    Each row is written as ``sep.join('%.17g' % v for v in row) + '\\n'``,
    byte for byte, for every float64 value (``sep`` is one ASCII character).
    """
    rows, ncols = table.shape
    n = min(rows, _CHUNK_ROWS) * ncols
    seps = np.tile(np.frombuffer((sep * (ncols - 1) + "\n").encode("ascii"), np.uint8),
                   n // ncols)
    slot_at = np.arange(0, n * _SLOT, _SLOT)        # first byte of each slot
    words = np.empty((n, _SLOT // 4), np.intp)     # _DIGITS4 index of each word
    words[:, 0] = 0
    words[:, 6:] = _PAD
    slots = np.empty((n, _SLOT // 8), np.uint64)
    moved = np.empty(n * _SLOT // 8, np.uint64)
    span = np.empty(n, "V32")
    for first in range(0, rows, _CHUNK_ROWS):
        x = table[first:first + _CHUNK_ROWS].ravel()
        m = x.size
        a = np.abs(x)
        slow = np.flatnonzero(~((a > 1e-6) & (a < 1e16)))
        a[slow] = 2.0                              # a stand-in away from 10**k
        k, d = _digits17(a)
        # four-digit groups: d0 | d1-4 | d5-8 | d9-12 | d13-16
        upper = d // 100000000
        halves = np.empty((2, m), np.int32)
        halves[0] = upper
        halves[1] = d - upper * 100000000
        quads = halves // 10000
        w = words[:m]
        np.floor_divide(quads[0], 10000, out=w[:, 1])
        np.subtract(quads[0], w[:, 1] * 10000, out=w[:, 2])
        w[:, 4] = quads[1]
        quads *= 10000
        np.subtract(halves, quads, out=w[:, 3:6:2].T)
        s = slots[:m]
        _DIGITS4.take(w, out=s.view(np.uint32), mode="clip")
        zeros = _TRAILING_ZEROS4.take(w[:, 5])
        rest = np.flatnonzero(w[:, 5] == 0)
        for col in (4, 3, 2):                      # d0 is never 0
            group = w[rest, col]
            zeros[rest] += _TRAILING_ZEROS4.take(group)
            rest = rest[group == 0]
        # fixed notation for k >= -4: the point after d0..dk, or "0." and
        # -k - 1 zeros before d0; below, d0 '.' d1..d16 and the exponent
        point = k + 8
        start = np.minimum(k, 0)
        start += 7
        sci = np.flatnonzero(k < -4)
        point[sci] = 8
        start[sci] = 7
        # the bytes from the point on move one right
        flat = s.ravel()
        mv = moved[:flat.size]
        np.left_shift(flat, np.uint64(8), out=mv)
        mv[1:] |= flat[:-1] >> np.uint64(56)
        flat ^= mv
        s &= _BEFORE.take(point).view(np.uint64).reshape(m, -1)
        flat ^= mv
        text = s.view(np.uint8).ravel()
        at = slot_at[:m]
        text[at + point] = ord(".")
        end = 25 - zeros                           # one past the last digit kept
        end = np.where(end <= point + 1, point, end)
        at_sci = at[sci] + end[sci]
        for i, c in enumerate(b"e-0"):
            text[at_sci + i] = c
        text[at_sci + 3] = ord("0") - k[sci]
        end[sci] += 4
        neg = np.flatnonzero(x < 0.0)
        start[neg] -= 1
        text[at[neg] + start[neg]] = ord("-")
        fallback = ["%.17g" % v for v in x[slow].tolist()]
        s.view("V32").ravel()[slow] = np.array(fallback, dtype="S32").view("V32")
        start[slow] = 0
        end[slow] = [len(v) for v in fallback]
        text[at + end] = seps[:m]
        start *= _SLOT
        start += end
        keep = _SPAN.take(start, out=span[:m], mode="clip").view(np.bool_)
        yield text[keep.ravel()].tobytes().decode("ascii")


def field_dump_string(field, cfg_hash="", extra=None):
    """Point-cloud dump of a nodal field: x1 xr weight value per line."""
    mesh = field.mesh
    kv = " ".join(f"{k}={v}" for k, v in (extra or {}).items())
    cols = np.column_stack([mesh.nodes, node_weights(mesh), field.values])
    header = (f"# {FIELD_FORMAT} kind={field.name} mode={mesh.mode} "
              f"n={mesh.n_nodes} config={cfg_hash}" + (f" {kv}" if kv else "")
              + "\n# columns: x1 xr weight value\n")
    return "".join([header, *g17_rows(cols, " ")])


def surface_csv(psi, q_inf, cfg_hash=""):
    """CSV of the obstacle-surface profile: angle, position, speed, cp."""
    from .incompressible import surface_speeds

    mesh = psi.mesh
    fs = mesh.facets["gamma"]
    pts = fs.qpts.reshape(-1, 2)
    speeds = surface_speeds(psi, q_inf).ravel()
    theta = np.arctan2(pts[:, 1], pts[:, 0])
    order = np.argsort(theta, kind="stable")
    speeds = speeds[order]
    # Python floats: ** is C pow, as the per-value formula always was
    cp = ([1.0 - (s / q_inf) ** 2 for s in speeds.tolist()] if q_inf > 0.0
          else np.zeros(order.size))
    cols = np.column_stack([theta[order], pts[order], speeds, cp])
    header = f"# {SURFACE_FORMAT} config={cfg_hash}\ntheta,x1,xr,speed,cp\n"
    return "".join([header, *g17_rows(cols, ",")])


def report_csv(report, cfg_hash=""):
    """One row per epsilon with the fixed column schema."""
    lines = [f"# {REPORT_FORMAT} config={cfg_hash} mode={report.mode_label}",
             ",".join(REPORT_COLUMNS)]
    for row in report.rows:
        cells = []
        for col in REPORT_COLUMNS:
            v = row.get(col, "")
            if isinstance(v, bool):
                cells.append("1" if v else "0")
            elif isinstance(v, float):
                cells.append(f"{v:.17g}")
            else:
                cells.append(str(v))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def report_json(report, cfg_hash=""):
    out = {
        "schema": REPORT_FORMAT,
        "config": cfg_hash,
        "mode": report.mode_label,
        "eps_grid": report.eps_grid,
        "eps_c_estimate": report.eps_c_estimate,
        "uniform_u_ratio": report.uniform_u_ratio,
        "energy_uniform_ratio": report.energy_uniform_ratio,
        "slopes": {
            k: {"slope": f.slope, "intercept": f.intercept,
                "r_squared": f.r_squared, "stderr": f.slope_stderr,
                "confidence": list(f.confidence())}
            for k, f in report.slopes.items()
        },
        "decay": {
            k: {"exponent": d.exponent, "r_squared": d.r_squared,
                "resolved": d.resolved, "window": list(d.window)}
            for k, d in report.decay.items()
        },
        "sensitivity": report.sensitivity,
        "rows": report.rows,
    }
    return canonical_json(out)
