"""Tests of the benchmark's own arithmetic, on fixed inputs.

    python3 -m pytest perfbench -q
"""

import json
import sys
from pathlib import Path

import pytest

import run
import stats
import tracing
from tracing import Span


def spans_of(*rows):
    return [Span(name, t0, t1, parent, attrs) for name, t0, t1, parent, attrs in rows]


def test_self_time_subtracts_nested_children():
    spans = spans_of(
        ("root", 0.0, 10.0, -1, None),
        ("a", 1.0, 4.0, 0, None),
        ("a.inner", 2.0, 3.0, 1, None),
        ("b", 5.0, 9.0, 0, None),
    )
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    assert sum(tracing.self_times(spans)) == 10.0


def test_self_time_counts_overlapping_children_once():
    spans = spans_of(
        ("root", 0.0, 10.0, -1, None),
        ("a", 1.0, 4.0, 0, None),
        ("b", 3.0, 6.0, 0, None),
        ("c", 9.0, 12.0, 0, None),       # clipped to the parent's interval
    )
    assert tracing.self_times(spans)[0] == 10.0 - 5.0 - 1.0


def test_tracer_records_parents_and_closes_on_error():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("inner", lambda x: x + 1)

    def fail():
        inner(0)
        raise RuntimeError("boom")

    outer = tracer.wrap("outer", fail)
    with pytest.raises(RuntimeError):
        outer()
    (o, i) = tracer.spans
    assert (o.name, o.parent, i.name, i.parent) == ("outer", -1, "inner", 0)
    assert (o.start, i.start, i.end, o.end) == (0.0, 1.0, 2.0, 3.0)
    assert tracing.self_times(tracer.spans) == [2.0, 1.0]


@pytest.mark.parametrize("n", tracing.LEVELS)
def test_mesh_level_of_full_and_pinned_systems(n):
    assert tracing.mesh_level((n + 1) ** 2) == n
    assert tracing.mesh_level(n * (n + 1)) == n


def test_layer_metrics_counts_and_ratios():
    spans = spans_of(
        ("compressible.minimize", 0.0, 10.0, -1, {"newton_iterations": 2}),
        ("compressible.functional", 0.0, 1.0, 0, None),
        ("fem.pcg", 1.0, 2.0, 0, {"dim": 48 * 49, "iterations": 300}),
        ("compressible.functional", 2.0, 3.0, 0, None),
        ("compressible.functional", 3.0, 4.0, 0, None),
        ("fem.pcg", 4.0, 6.0, 0, {"dim": 48 * 49, "iterations": 340}),
        ("compressible.functional", 6.0, 7.0, 0, None),
        ("compressible.functional", 7.0, 8.0, 0, None),
        ("fem.pcg", 8.0, 9.0, -1, {"dim": 97 * 97, "iterations": 50}),
        ("cli.write", 11.0, 12.5, -1, {"bytes": 17}),
    )
    m = tracing.layer_metrics(spans)
    assert m["compressible.minimize.s"] == 10.0 - 8.0
    assert m["compressible.functional.calls"] == 5
    assert m["compressible.newton_iterations"] == 2
    assert m["compressible.linesearch_accept_ratio"] == 2 / 4
    assert m["fem.pcg.calls"] == 3
    assert m["fem.pcg.iterations"] == 690
    assert m["fem.pcg.iterations_per_call.n48"] == 320.0
    assert m["fem.pcg.iterations_per_call.n96"] == 50.0
    assert m["fem.pcg.iterations_per_call.n192"] == 0.0
    assert m["cli.write.bytes"] == 17
    assert m["traced.s"] == 10.0 + 1.0 + 1.5


def test_per_layer_medians_and_overhead():
    layers = [{"fem.pcg.s": 1.0}, {"fem.pcg.s": 3.0}]
    out = run.per_layer_metrics([10.0, 11.0, 12.0], [11.0, 12.1], layers)
    assert out == {"fem.pcg.s": 2.0, "trace.overhead_frac": pytest.approx(0.05)}


def test_instrument_wraps_every_binding_and_restores():
    sys.path.insert(0, str(run.SRC))
    from lowmach import cli, gas, limits

    original = gas.make_cutoff
    tracer = tracing.Tracer()
    with tracing.instrument(tracer) as missing:
        assert missing == []
        assert cli.make_cutoff is limits.make_cutoff is gas.make_cutoff
        assert gas.make_cutoff is not original
    assert cli.make_cutoff is limits.make_cutoff is gas.make_cutoff is original


def test_percentile_selection():
    values = [float(v) for v in range(1, 101)]
    assert stats.nearest_rank(values, 90.0) == 90.0
    assert stats.tail_percentile(values) == (90.0, 90.0)
    assert stats.tail_percentile(values[:20]) == (50.0, 10.0)
    assert stats.tail_percentile(values[:19]) is None


def test_fail_frac_counts_units_with_any_problem():
    assert stats.fail_frac([[], ["exit code 3"], [], ["a", "b"]]) == 0.5
    assert stats.fail_frac([[]]) == 0.0
    with pytest.raises(ValueError):
        stats.fail_frac([])


def test_headline_check_uses_relative_tolerance():
    ref = {k: 2.0 for k in run.HEADLINE}
    assert run.check_headline(dict(ref), ref) == []
    near = dict(ref, mach_max=2.0 * (1 + 0.5 * run.REL_TOL))
    assert run.check_headline(near, ref) == []
    far = dict(ref, mach_max=2.0 * (1 + 2 * run.REL_TOL))
    problems = run.check_headline(far, ref)
    assert len(problems) == 1 and problems[0].startswith("mach_max=")


def test_plan_is_a_function_of_the_seed():
    for workload in ("ladder", "forced"):
        picks = {run.plan(workload, seed)[1] for seed in range(40)}
        assert picks == set(run.EPS_SET)
        assert run.plan(workload, 7)[1] == run.plan(workload, 7)[1]
    labels = [c.label for c in run.plan("ladder", 0)[0]]
    assert labels == ["n48", "n96", "n192"]
    assert run.plan("sweep-default", 3)[0][0].config == {}


def test_refuses_to_run_without_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "ladder", "--seed", "1", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""


def test_emitted_per_layer_metrics_match_benchmark_json():
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())["per_layer"]
    spans = spans_of(("fem.pcg", 0.0, 1.0, -1, {"dim": 2401, "iterations": 3}))
    layer = tracing.layer_metrics(spans)
    layer["trace.untraced.s"] = 1.0 - layer.pop("traced.s")
    emitted = run.per_layer_metrics([1.0], [1.0], [layer])
    assert {m["name"]: m["unit"] for m in declared} == {
        name: run.per_layer_unit(name) for name in emitted}


class FakeCli:
    """Stands in for lowmach.cli: writes one state file per call."""

    def __init__(self, results):
        self.results = iter(results)

    def main(self, argv):
        code, text = next(self.results)
        out = Path(argv[argv.index("--out") + 1]) / "cfghash"
        out.mkdir(parents=True)
        (out / "state_eps0.1.json").write_text(text)
        return code


def test_runner_counts_exit_codes_and_changed_artifacts_as_failures(tmp_path):
    values = {k: 1.0 for k in run.HEADLINE}
    good = json.dumps(dict(values, cutoff_removed=True))
    reordered = json.dumps(dict(values, cutoff_removed=True), indent=1)
    wrong = json.dumps(dict(values, cutoff_removed=True, mach_max=1.1))
    reference = {"solves": {"forced/n48/eps0.1": values}}
    cli = FakeCli([(0, good), (3, good), (0, reordered), (0, wrong), (0, good)])
    runner = run.Runner(cli, tmp_path, reference)
    call = run.Call("n48", ["solve-compressible", "--epsilon", "0.1"], {},
                    reference="forced/n48/eps0.1")
    outcomes = [runner.run_unit([call])[2] for _ in range(5)]
    assert outcomes[0] == [] and outcomes[4] == []
    assert outcomes[1] == ["exit code 3"]
    assert outcomes[2] == ["n48: artifacts differ from the first repetition"]
    assert outcomes[3][0].startswith("mach_max=")
    assert stats.fail_frac(outcomes) == 3 / 5
    assert list(tmp_path.iterdir()) == []
