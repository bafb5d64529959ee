"""Command-line front end.

Subcommands: solve-incompressible, solve-compressible, sweep,
validate-force, dump-mesh.  Every run reads a strict JSON configuration,
writes its artifacts into a directory addressed by the configuration hash,
and is byte-deterministic: the solver uses no randomness and one thread, so
a rerun of the same configuration writes the same bytes.

``COMMANDS`` maps each subcommand to a function that takes the validated
configuration and the parsed arguments and returns its exit code and its
artifacts as {file name: text}; ``main`` alone makes the run directory and
writes them.  Exits 0, 4, 5, and 3 from a sweep with unconverged rows leave
artifacts; exit 2, and 3 from a raised solver error, leave none.

Every configuration key has its default and its rule in one table, ``_KEYS``,
and is checked before any work; a rejection names the dotted key, as do the
library's rules that join keys (``geometry.check_mode``, ``geometry.check_shell``,
``limits.check_force``).

Each command parses only its own flags; ``main`` returns every exit code.
Exit codes: 0 ok (and --help), 2 usage or configuration error (including a
flag of another command, a mistyped configuration value, or a --rate-tol
that is not finite and positive or comes without --assert-rates), 3 solver
error, 4 cut-off not removed, 5 rate assertion failure.
"""

import argparse
import dataclasses
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
    # a JSON number with a finite float value: the comparison is exact for an
    # int of any size, and false for NaN and the infinities
    return isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


def _int_from(lo, hi=None):
    return (lambda v: isinstance(v, int) and not isinstance(v, bool) and v >= lo
            and (hi is None or v <= hi),
            f"an integer >= {lo}" if hi is None else f"an integer in [{lo}, {hi}]")


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
        "n_r": (48, _int_from(4, 1024)),
        "n_t": (48, _int_from(4, 1024)),
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
        "quad_order": (3, _int_from(2, 8)),
        "far_field": ("dirichlet", _one_of("dirichlet", "neumann")),
    },
    "sweep": {"eps": ([0.4, 0.2, 0.1, 0.05], (
        lambda v: isinstance(v, list) and len(v) >= 4
        and all(_is_real(e) and e > 0.0 and math.isfinite(e * e) for e in v)
        and all(b < a for a, b in zip(v, v[1:])),
        "a strictly decreasing list of at least 4 positive epsilons, "
        "each with a finite square"))},
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
        if (g["kind"] == "ellipse") != ("semi_axes" in g):
            raise ConfigError("geometry.semi_axes: required for an ellipse, and for no other kind")
        if g["kind"] == "ellipse" and "radius" in raw.get("geometry", {}):
            raise ConfigError("geometry.radius: an ellipse takes semi_axes, not a radius")
        axes = g.get("semi_axes")
        self.shape = geometry.ObstacleShape(g["kind"], g["radius"], axes and tuple(axes))
        geometry.check_shell(self.shape, g["r_far"], g["n_r"], g["grading"])
        geometry.check_mode(g["kind"], g["mode"])
        limits.check_force(self.force_spec(), self.shape, g["mode"])

    @property
    def hash(self):
        return io_text.config_hash(self.raw)

    def build_mesh(self):
        g = self.raw["geometry"]
        return geometry.build_mesh(
            self.shape, g["r_far"], g["n_r"], g["n_t"], grading=g["grading"],
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


def _write(path, text):
    # the same bytes whatever the locale's encoding or the platform's newline
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def cmd_solve_incompressible(cfg, args):
    mesh = cfg.build_mesh()
    q_inf = cfg.raw["gas"]["q_inf"]
    psi = incompressible.solve_incompressible(
        mesh, q_inf, tol=cfg.raw["solver"]["tol"],
        far_field=cfg.raw["solver"]["far_field"],
    )
    summary = {
        "config": cfg.hash,
        "command": "solve-incompressible",
        "residual": psi.meta["residual"],
        "iterations": psi.meta["iterations"],
        "far_field": psi.meta["far_field"],
    }
    return EXIT_OK, {
        "psi.txt": io_text.field_dump_string(psi, cfg.hash),
        "surface.csv": io_text.surface_csv(psi, q_inf, cfg.hash),
        "summary.json": io_text.canonical_json(summary),
    }


def cmd_solve_compressible(cfg, args):
    epsilon = args.epsilon
    # a bad epsilon is a configuration error before any mesh or base flow
    GasModel(cfg.raw["gas"]["gamma"], epsilon, cfg.raw["gas"]["q_inf"])
    setup = cfg.sweep_setup(cfg.build_mesh())
    state, info = limits.solve_epsilon(setup, epsilon, *limits.prepare(setup))
    correction = io_text.field_dump_string(
        state.phi_corr, cfg.hash, extra={"epsilon": repr(float(epsilon))})
    trace = dataclasses.asdict(info)
    summary = state.summary()
    summary.update({
        "config": cfg.hash,
        "command": "solve-compressible",
        "truncated_regime": state.truncated_regime,
        "newton_iterations": trace.pop("iterations"),
        "relative_gradient_target": trace.pop("relative_target"),
        "newton_trace": trace,
        "incompressible_solved_implicitly": True,
    })
    code = EXIT_OK if summary["cutoff_removed"] else EXIT_CUTOFF
    # six digits name the files unless two epsilons share them
    tag = f"{epsilon:g}" if float(f"{epsilon:g}") == epsilon else repr(epsilon)
    return code, {
        f"correction_eps{tag}.txt": correction,
        f"state_eps{tag}.json": io_text.canonical_json(summary, compact=True),
    }


def cmd_sweep(cfg, args):
    if args.rate_tol is not None and not (
            args.assert_rates and math.isfinite(args.rate_tol) and args.rate_tol > 0.0):
        raise ConfigError("--rate-tol: must be a finite positive number, "
                          "given with --assert-rates")
    setup = cfg.sweep_setup(cfg.build_mesh())
    report = limits.sweep(setup, [float(e) for e in cfg.raw["sweep"]["eps"]])
    files = {"report.csv": io_text.report_csv(report, cfg.hash),
             "report.json": io_text.report_json(report, cfg.hash)}
    if not report.all_converged():
        return EXIT_SOLVER, files
    if args.assert_rates and any(
            name not in report.slopes
            or abs(report.slopes[name].slope - target) > (args.rate_tol or width)
            for name, (target, width) in RATE_WINDOWS.items()):
        return EXIT_RATES, files
    return EXIT_OK, files


def cmd_validate_force(cfg, args):
    mesh = cfg.build_mesh()
    spec = cfg.force_spec()
    force = limits.build_force(spec, mesh)
    out = dataclasses.asdict(limits.validate_force(force, spec.beta, spec.q, mesh))
    out.update({"config": cfg.hash, "command": "validate-force",
                "force_kind": spec.kind})
    return EXIT_OK, {"verdict.json": io_text.canonical_json(out)}


def cmd_dump_mesh(cfg, args):
    return EXIT_OK, {"mesh.txt": geometry.mesh_dump_string(cfg.build_mesh(), cfg.hash)}


COMMANDS = {
    "solve-incompressible": cmd_solve_incompressible,
    "solve-compressible": cmd_solve_compressible,
    "sweep": cmd_sweep,
    "validate-force": cmd_validate_force,
    "dump-mesh": cmd_dump_mesh,
}


def _parser():
    p = argparse.ArgumentParser(
        prog="lowmach",
        description="Subsonic potential flow past an obstacle and its "
                    "low Mach number limit.",
    )
    commands = p.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        c = commands.add_parser(name)
        c.add_argument("--config", required=True, help="JSON run configuration file")
        c.add_argument("--out", help="output directory override")
        if name == "solve-compressible":
            c.add_argument("--epsilon", type=float, required=True,
                           help="compressibility parameter")
        if name == "sweep":
            c.add_argument("--assert-rates", action="store_true",
                           help="fail with exit 5 unless the fitted slopes "
                                "lie inside the declared windows")
            c.add_argument("--rate-tol", type=float, help="half-width of "
                           "every rate window (with --assert-rates)")
    return p


def main(argv=None):
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:       # a usage error (2) or --help (0)
        return exc.code
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
        code, files = COMMANDS[args.command](cfg, args)
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
    run = os.path.join(args.out or cfg.raw["output"]["directory"], cfg.hash)
    os.makedirs(run, exist_ok=True)
    for name, text in files.items():
        _write(os.path.join(run, name), text)
    return code


if __name__ == "__main__":
    sys.exit(main())
