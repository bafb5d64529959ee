"""Command-line front end.

Subcommands: solve-incompressible, solve-compressible, sweep,
validate-force, dump-mesh.  Every run reads a strict JSON configuration,
writes its artifacts into a directory addressed by the configuration hash,
and is byte-deterministic: the solver uses no randomness and one thread, so
a rerun of the same configuration writes the same bytes.

Every configuration key has its default and its rule in one table, ``_KEYS``,
and is checked before any work; a rejection names the dotted key.

Exit codes: 0 ok, 2 configuration error (including a mistyped configuration
value or a non-finite or non-positive --rate-tol), 3 solver error, 4 cut-off
not removed, 5 rate assertion failure.
"""

import argparse
import json
import math
import os
import sys

from . import geometry, incompressible, io_text, limits
from .errors import ConfigError, LowmachError, SolverError
# make_cutoff is not called here since limits.prepare builds the cut-off,
# but perfbench/test_perfbench.py checks that the tracer wraps cli.make_cutoff
from .gas import GasModel, make_cutoff  # noqa: F401

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_CUTOFF = 4
EXIT_RATES = 5

RATE_WINDOWS = {
    "rho_diff_inf": (2.0, 0.1),
    "u_diff_l2": (2.0, 0.15),
    "mach_max": (1.0, 0.05),
    "dp_gap_radial": (2.0, 0.2),
    "dp_gap_aligned": (2.0, 0.2),
    "dp_gap_quadrupole": (2.0, 0.2),
}


def _is_real(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def _int_from(lo):
    return (lambda v: isinstance(v, int) and not isinstance(v, bool) and v >= lo,
            f"an integer >= {lo}")


def _real(ok, rule):
    return lambda v: _is_real(v) and ok(v), rule


def _one_of(*names):
    return lambda v: v in names, "one of " + ", ".join(names)


_POSITIVE = _real(lambda v: v > 0.0, "a positive number")
_AT_LEAST_1 = _real(lambda v: v >= 1.0, "a number >= 1")
_UNIT = _real(lambda v: 0.0 < v < 1.0, "a number in (0, 1)")
_NUMBER = _real(lambda v: True, "a finite number")

# section -> key -> (default, (test, rule)); a None default is left out of
# the merged configuration, and so out of its hash
_KEYS = {
    "geometry": {
        "kind": ("sphere", _one_of("sphere", "disk", "ellipse")),
        "radius": (1.0, _POSITIVE),
        "semi_axes": (None, (lambda v: isinstance(v, list) and len(v) == 2
                             and all(_is_real(x) and x > 0.0 for x in v),
                             "two positive lengths")),
        "r_far": (20.0, _POSITIVE),
        "n_r": (48, _int_from(4)),
        "n_t": (48, _int_from(4)),
        "grading": (1.15, _AT_LEAST_1),
        "mode": ("axisymmetric-3d", _one_of("axisymmetric-3d", "planar-2d")),
    },
    "gas": {"gamma": (1.4, _AT_LEAST_1), "q_inf": (1.0, _POSITIVE)},
    "cutoff": {"theta": (0.65, _UNIT), "eps0": (0.45, _UNIT)},
    "force": {"kind": ("none", _one_of("none", "newtonian", "point_mass")),
              **{k: (None, _NUMBER) for k in ("mass", "source_radius", "beta", "q")}},
    "solver": {
        "tol": (1e-10, _UNIT),
        "max_newton": (40, _int_from(1)),
        "max_backtracks": (40, _int_from(1)),
        "quad_order": (3, _int_from(2)),
        "far_field": ("dirichlet", _one_of("dirichlet", "neumann")),
    },
    "sweep": {"eps": ([0.4, 0.2, 0.1, 0.05], (
        lambda v: isinstance(v, list) and len(v) > 0
        and all(_is_real(e) and e > 0.0 for e in v)
        and all(b < a for a, b in zip(v, v[1:])),
        "a non-empty, strictly decreasing list of positive numbers"))},
    "output": {"directory": ("out", (lambda v: isinstance(v, str), "a string"))},
}


class RunConfig:
    """Validated run configuration; rejects unknown keys outright."""

    def __init__(self, raw):
        if not isinstance(raw, dict):
            raise ConfigError("configuration must be a JSON object")
        for section in raw:
            if section not in _KEYS:
                raise ConfigError(f"unknown configuration section {section!r}")
            if not isinstance(raw[section], dict):
                raise ConfigError(f"section {section!r} must be an object")
            for key in raw[section]:
                if key not in _KEYS[section]:
                    raise ConfigError(f"unknown key {section}.{key}")
        self.raw = {}
        for section, keys in _KEYS.items():
            merged = {k: d for k, (d, _) in keys.items() if d is not None}
            merged.update(raw.get(section, {}))
            for key, value in merged.items():
                test, rule = keys[key][1]
                if not test(value):
                    raise ConfigError(f"{section}.{key}: {rule}")
            self.raw[section] = merged
        g = self.raw["geometry"]
        if g["kind"] == "ellipse" and "semi_axes" not in g:
            raise ConfigError("geometry.semi_axes: required for an ellipse")
        size = max(g["semi_axes"]) if g["kind"] == "ellipse" else g["radius"]
        if not g["r_far"] >= 5.0 * size:
            raise ConfigError("geometry.r_far: must be at least 5x the obstacle size")

    @property
    def hash(self):
        return io_text.config_hash(self.raw)

    def build_mesh(self):
        g = self.raw["geometry"]
        if g["kind"] == "ellipse":
            shape = geometry.ObstacleShape("ellipse", semi_axes=tuple(g["semi_axes"]))
        else:
            shape = geometry.ObstacleShape(g["kind"], radius=g["radius"])
        return geometry.build_mesh(
            shape, g["r_far"], g["n_r"], g["n_t"], grading=g["grading"],
            mode=g["mode"], quad_order=self.raw["solver"]["quad_order"],
        )

    def force_spec(self):
        return limits.ForceSpec(**self.raw["force"])

    def sweep_setup(self, mesh):
        return limits.SweepSetup(
            mesh=mesh,
            gamma=self.raw["gas"]["gamma"],
            q_inf=self.raw["gas"]["q_inf"],
            mach_threshold=self.raw["cutoff"]["theta"],
            eps_ref=self.raw["cutoff"]["eps0"],
            force_spec=self.force_spec(),
            tol=self.raw["solver"]["tol"],
            max_newton=self.raw["solver"]["max_newton"],
            max_backtracks=self.raw["solver"]["max_backtracks"],
            far_field=self.raw["solver"]["far_field"],
        )


def _run_dir(cfg, out_override):
    base = out_override or cfg.raw["output"]["directory"]
    path = os.path.join(base, cfg.hash)
    os.makedirs(path, exist_ok=True)
    return path


def _write(path, text):
    with open(path, "w") as fh:
        fh.write(text)


def cmd_solve_incompressible(cfg, out_dir):
    mesh = cfg.build_mesh()
    q_inf = cfg.raw["gas"]["q_inf"]
    psi = incompressible.solve_incompressible(
        mesh, q_inf, tol=cfg.raw["solver"]["tol"],
        far_field=cfg.raw["solver"]["far_field"],
    )
    run = _run_dir(cfg, out_dir)
    _write(os.path.join(run, "psi.txt"),
           io_text.field_dump_string(psi, cfg.hash))
    _write(os.path.join(run, "surface.csv"),
           io_text.surface_csv(psi, q_inf, cfg.hash))
    summary = {
        "config": cfg.hash,
        "command": "solve-incompressible",
        "residual": psi.meta["residual"],
        "iterations": psi.meta["iterations"],
        "far_field": psi.meta["far_field"],
    }
    _write(os.path.join(run, "summary.json"), io_text.canonical_json(summary))
    if not psi.meta["residual"] <= cfg.raw["solver"]["tol"]:
        return EXIT_SOLVER
    return EXIT_OK


def cmd_solve_compressible(cfg, epsilon, out_dir):
    # a bad epsilon is a configuration error before any mesh or base flow
    GasModel(cfg.raw["gas"]["gamma"], epsilon, cfg.raw["gas"]["q_inf"])
    setup = cfg.sweep_setup(cfg.build_mesh())
    state, info = limits.solve_epsilon(setup, epsilon, *limits.prepare(setup))

    run = _run_dir(cfg, out_dir)
    _write(os.path.join(run, f"correction_eps{epsilon:g}.txt"),
           io_text.field_dump_string(state.phi_corr, cfg.hash,
                                     extra={"epsilon": repr(float(epsilon))}))
    summary = dict(state.summary())
    summary.update({
        "config": cfg.hash,
        "command": "solve-compressible",
        "newton_iterations": info.iterations,
        "newton_trace": {
            "cg_iterations": info.cg_iterations,
            "energies": info.energies,
            "gradient_norms": info.gradient_norms,
            "regularized": info.regularized,
            "step_sizes": info.step_sizes,
        },
        "relative_gradient_target": info.relative_target,
        "incompressible_solved_implicitly": True,
    })
    _write(os.path.join(run, f"state_eps{epsilon:g}.json"),
           io_text.canonical_json(summary, compact=True))
    return EXIT_OK if state.cutoff_margin > 0.0 else EXIT_CUTOFF


def cmd_sweep(cfg, out_dir, assert_rates=False, rate_tol=None):
    setup = cfg.sweep_setup(cfg.build_mesh())
    report = limits.sweep(setup, [float(e) for e in cfg.raw["sweep"]["eps"]])
    run = _run_dir(cfg, out_dir)
    _write(os.path.join(run, "report.csv"), io_text.report_csv(report, cfg.hash))
    _write(os.path.join(run, "report.json"), io_text.report_json(report, cfg.hash))
    if not report.all_converged():
        return EXIT_SOLVER
    if assert_rates:
        for name, (target, width) in RATE_WINDOWS.items():
            if name not in report.slopes:
                return EXIT_RATES
            wid = rate_tol if rate_tol is not None else width
            if abs(report.slopes[name].slope - target) > wid:
                return EXIT_RATES
    return EXIT_OK


def cmd_validate_force(cfg, out_dir):
    mesh = cfg.build_mesh()
    spec = cfg.force_spec()
    force = limits.build_force(spec, mesh)
    verdict = limits.validate_force(force, spec.beta, spec.q, mesh)
    run = _run_dir(cfg, out_dir)
    out = verdict.as_dict()
    out.update({"config": cfg.hash, "command": "validate-force",
                "force_kind": spec.kind})
    _write(os.path.join(run, "verdict.json"), io_text.canonical_json(out))
    return EXIT_OK


def cmd_dump_mesh(cfg, out_dir):
    mesh = cfg.build_mesh()
    run = _run_dir(cfg, out_dir)
    _write(os.path.join(run, "mesh.txt"),
           geometry.mesh_dump_string(mesh, cfg.hash))
    return EXIT_OK


def _parser():
    p = argparse.ArgumentParser(
        prog="lowmach",
        description="Subsonic potential flow past an obstacle and its "
                    "low Mach number limit.",
    )
    p.add_argument("command", choices=[
        "solve-incompressible", "solve-compressible", "sweep",
        "validate-force", "dump-mesh",
    ])
    p.add_argument("--config", required=True, help="path to the JSON run configuration")
    p.add_argument("--out", default=None, help="output directory override")
    p.add_argument("--epsilon", type=float, default=None,
                   help="compressibility parameter (solve-compressible)")
    p.add_argument("--assert-rates", action="store_true",
                   help="sweep: fail with exit 5 unless the fitted slopes "
                        "lie inside the declared windows")
    p.add_argument("--rate-tol", type=float, default=None,
                   help="override every rate-window half-width")
    return p


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        with open(args.config) as fh:
            raw = json.load(fh)
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except json.JSONDecodeError as exc:
        print(f"config error: invalid JSON ({exc})", file=sys.stderr)
        return EXIT_CONFIG

    try:
        cfg = RunConfig(raw)
        if args.rate_tol is not None and not (math.isfinite(args.rate_tol)
                                              and args.rate_tol > 0.0):
            raise ConfigError("--rate-tol: must be a finite positive number")
        if args.command == "solve-incompressible":
            return cmd_solve_incompressible(cfg, args.out)
        if args.command == "solve-compressible":
            if args.epsilon is None:
                raise ConfigError("solve-compressible requires --epsilon")
            return cmd_solve_compressible(cfg, args.epsilon, args.out)
        if args.command == "sweep":
            return cmd_sweep(cfg, args.out, assert_rates=args.assert_rates,
                             rate_tol=args.rate_tol)
        if args.command == "validate-force":
            return cmd_validate_force(cfg, args.out)
        if args.command == "dump-mesh":
            return cmd_dump_mesh(cfg, args.out)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        if exc.history:
            tail = ", ".join(f"{h:.3e}" for h in exc.history[-5:])
            print(f"residual history (tail): {tail}", file=sys.stderr)
        return EXIT_SOLVER
    except LowmachError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
