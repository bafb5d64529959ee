"""Span tracing of lowmach's public entry points, installed at run time.

The benchmark records spans from its own files only: ``instrument`` swaps
each entry point listed in ``ENTRY_POINTS`` for a timing wrapper, at every
lowmach module that binds the function by name (``cli`` and ``limits`` hold
their own ``make_cutoff`` from ``from .gas import ...``), and restores the
originals on exit.  Spans are kept in memory; ``self_times`` and
``layer_metrics`` reduce them after the unit of work has finished.

A layer's self time is its span duration minus the part of that interval
covered by its child spans, so the self times of all spans sum to the time
covered by the outermost spans.
"""

import functools
import sys
import time
from contextlib import contextmanager


def _pcg_attrs(args, kwargs, result):
    # pcg(a, b, ...) -> (x, residual history); one history entry per iteration
    # plus the initial residual.
    b = args[1] if len(args) > 1 else kwargs["b"]
    return {"dim": len(b), "iterations": len(result[1]) - 1}


def _minimize_attrs(args, kwargs, result):
    return {"newton_iterations": result[1].iterations}


def _write_attrs(args, kwargs, result):
    text = args[1] if len(args) > 1 else kwargs["text"]
    return {"bytes": len(text.encode())}


# (module, owner attribute or None, function name, span name, attrs hook).
# An owner names a class whose method is wrapped on the class itself.
ENTRY_POINTS = [
    ("lowmach.geometry", None, "build_mesh", "geometry.build_mesh", None),
    ("lowmach.limits", None, "build_force", "limits.build_force", None),
    ("lowmach.gas", None, "make_cutoff", "gas.make_cutoff", None),
    ("lowmach.incompressible", None, "solve_incompressible",
     "incompressible.solve_incompressible", None),
    ("lowmach.fem", None, "assemble_matrix", "fem.assemble_matrix", None),
    ("lowmach.fem", None, "pcg", "fem.pcg", _pcg_attrs),
    ("lowmach.fem", None, "project_to_nodes", "fem.project_to_nodes", None),
    ("lowmach.compressible", None, "minimize", "compressible.minimize",
     _minimize_attrs),
    ("lowmach.compressible", None, "flow_state", "compressible.flow_state", None),
    ("lowmach.compressible", "DifferenceProblem", "functional",
     "compressible.functional", None),
    ("lowmach.compressible", "DifferenceProblem", "gradient",
     "compressible.gradient", None),
    ("lowmach.compressible", "DifferenceProblem", "hessian",
     "compressible.hessian", None),
    ("lowmach.cli", None, "_write", "cli.write", _write_attrs),
    ("lowmach.io_text", None, "field_dump_string", "io_text.format", None),
    ("lowmach.io_text", None, "surface_csv", "io_text.format", None),
    ("lowmach.io_text", None, "report_csv", "io_text.format", None),
    ("lowmach.io_text", None, "report_json", "io_text.format", None),
    ("lowmach.io_text", None, "canonical_json", "io_text.format", None),
]

SPAN_NAMES = tuple(dict.fromkeys(entry[3] for entry in ENTRY_POINTS))
# Layer of a span: the part of its name before the first dot.
LAYERS = tuple(dict.fromkeys(name.split(".", 1)[0] for name in SPAN_NAMES))

# Mesh levels whose linear solves are reported separately.
LEVELS = (48, 96, 192)


class Span:
    __slots__ = ("name", "start", "end", "parent", "attrs")

    def __init__(self, name, start, end=None, parent=-1, attrs=None):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.attrs = attrs or {}


class Tracer:
    """In-memory span recorder for one thread."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, attrs_hook=None):
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, clock(), parent=stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if attrs_hook is not None:
                span.attrs = attrs_hook(args, kwargs, result)
            return result

        return traced


@contextmanager
def instrument(tracer):
    """Wrap every entry point for the duration of the block.

    Yields the span names whose entry point could not be found, so a renamed
    entry point shows up as missing instead of silently untraced.
    """
    saved = []
    missing = []
    modules = [m for name, m in list(sys.modules.items())
               if name == "lowmach" or name.startswith("lowmach.")]
    try:
        for mod_name, owner, attr, span_name, hook in ENTRY_POINTS:
            mod = sys.modules.get(mod_name)
            target = getattr(mod, owner, None) if owner else mod
            original = getattr(target, attr, None) if target is not None else None
            if original is None:
                missing.append(span_name)
                continue
            wrapper = tracer.wrap(span_name, original, hook)
            if owner:
                saved.append((target, attr, original))
                setattr(target, attr, wrapper)
                continue
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        saved.append((m, key, original))
                        setattr(m, key, wrapper)
        yield missing
    finally:
        for target, attr, original in reversed(saved):
            setattr(target, attr, original)


def _covered(intervals):
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    """Self time of each span: its duration minus what its children cover."""
    children = [[] for _ in spans]
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append(span)
    out = []
    for span, kids in zip(spans, children):
        clipped = [(max(k.start, span.start), min(k.end, span.end)) for k in kids]
        clipped = [(lo, hi) for lo, hi in clipped if hi > lo]
        out.append((span.end - span.start) - _covered(clipped))
    return out


def mesh_level(dim):
    """Cells per side of the square mesh behind a linear system of ``dim``
    unknowns: (n+1)^2 nodes, or n(n+1) once the far-field row is pinned."""
    return int(dim ** 0.5 - 1e-9)


def layer_metrics(spans):
    """Per-layer self times, call counts and solver counts of one unit."""
    selfs = self_times(spans)
    sums, calls = {}, {}
    for span, s in zip(spans, selfs):
        sums[span.name] = sums.get(span.name, 0.0) + s
        calls[span.name] = calls.get(span.name, 0) + 1

    def attr_sum(name, key):
        return sum(sp.attrs.get(key, 0) for sp in spans if sp.name == name)

    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.s"] = sums.get(name, 0.0)
        out[f"{name}.calls"] = calls.get(name, 0)
    out["fem.pcg.iterations"] = attr_sum("fem.pcg", "iterations")
    for n in LEVELS:
        at_level = [sp for sp in spans if sp.name == "fem.pcg"
                    and mesh_level(sp.attrs.get("dim", 0)) == n]
        its = sum(sp.attrs["iterations"] for sp in at_level)
        out[f"fem.pcg.iterations_per_call.n{n}"] = its / len(at_level) if at_level else 0.0
    newton = attr_sum("compressible.minimize", "newton_iterations")
    out["compressible.newton_iterations"] = newton
    # Every minimize evaluates the functional once before iterating; every
    # other evaluation is a line-search trial, and each Newton iteration
    # accepts exactly one of them.
    trials = calls.get("compressible.functional", 0) - calls.get("compressible.minimize", 0)
    out["compressible.linesearch_accept_ratio"] = newton / trials if trials > 0 else 0.0
    out["cli.write.bytes"] = attr_sum("cli.write", "bytes")
    out["traced.s"] = sum(selfs)
    return out


def layers_called(spans):
    """Set of layers with at least one recorded call."""
    return {span.name.split(".", 1)[0] for span in spans}
