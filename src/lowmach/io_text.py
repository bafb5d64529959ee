"""Versioned plain-text artifact formats.

Every file starts with a header line carrying the format version and the
hash of the run configuration.  Floats are written with 17 significant
digits, so dump -> load -> dump is byte-identical and reruns of the same
configuration produce byte-identical artifacts (no timestamps anywhere).
"""

import hashlib
import json
import math

import numpy as np

from .errors import ConfigError

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
    w = mesh.qweights[..., None] * mesh.basis[None, ...]
    return np.bincount(mesh.cells.ravel(), w.sum(axis=1).ravel(),
                       minlength=mesh.n_nodes)


def load_field(path):
    """Parse a field dump; returns (points, weights, values, header dict)."""
    with open(path) as fh:
        header = fh.readline().strip()
        if FIELD_FORMAT not in header:
            raise ConfigError(f"not a field dump (header {header!r})")
        meta = dict(tok.split("=", 1) for tok in header.split() if "=" in tok)
        fh.readline()  # column comment
        rows = np.array([[float(tok) for tok in line.split()]
                         for line in fh if line.strip()])
    n = int(meta["n"])
    if rows.shape != (n, 4):
        raise ConfigError("field dump row count does not match header")
    return rows[:, :2], rows[:, 2], rows[:, 3], meta


def field_dump_string(field, cfg_hash="", extra=None):
    """Point-cloud dump of a nodal field: x1 xr weight value per line."""
    mesh = field.mesh
    kv = " ".join(f"{k}={v}" for k, v in (extra or {}).items())
    cols = np.column_stack([mesh.nodes, node_weights(mesh), field.values])
    header = (f"# {FIELD_FORMAT} kind={field.name} mode={mesh.mode} "
              f"n={mesh.n_nodes} config={cfg_hash}" + (f" {kv}" if kv else "")
              + "\n# columns: x1 xr weight value\n")
    # one %-format over every row: the same text as a .17g f-string per value
    return header + "%.17g %.17g %.17g %.17g\n" * len(cols) % tuple(cols.ravel().tolist())


def surface_csv(psi, q_inf, cfg_hash=""):
    """CSV of the obstacle-surface profile: angle, position, speed, cp."""
    from .incompressible import surface_speeds

    mesh = psi.mesh
    fs = mesh.facets["gamma"]
    pts = fs.qpts.reshape(-1, 2)
    speeds = surface_speeds(psi, q_inf).ravel()
    theta = np.arctan2(pts[:, 1], pts[:, 0])
    order = np.argsort(theta, kind="stable")
    lines = [f"# {SURFACE_FORMAT} config={cfg_hash}",
             "theta,x1,xr,speed,cp"]
    for k in order:
        cp = 1.0 - (speeds[k] / q_inf) ** 2 if q_inf > 0.0 else 0.0
        lines.append(
            f"{theta[k]:.17g},{pts[k, 0]:.17g},{pts[k, 1]:.17g},"
            f"{speeds[k]:.17g},{cp:.17g}"
        )
    return "\n".join(lines) + "\n"


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


def load_report(path):
    """Parse a JSON report back into the dictionary that produced it."""
    with open(path) as fh:
        out = json.load(fh)
    if out.get("schema") != REPORT_FORMAT:
        raise ConfigError(f"not a report file (schema {out.get('schema')!r})")
    return out


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
