"""Tests of the benchmark's correctness layer and of its tracing hygiene."""

import importlib
import math
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from perfbench import run, tracing, workloads  # noqa: E402
from perfbench.workloads import Op, run_op  # noqa: E402


def test_wrong_slope_counts_as_failure():
    check = workloads.slope_check(2.0)
    assert run_op(Op("converge.t", lambda: SimpleNamespace(slope=2.1), check)).ok
    for slope in (1.8, 2.2, math.nan):
        sample = run_op(Op("converge.t", lambda s=slope: SimpleNamespace(slope=s), check))
        assert not sample.ok and sample.error == "output failed its check"


def test_corrupted_cli_output_counts_as_failure():
    reference = workloads.load_cli_references()["delta-opt"]
    check = workloads.cli_check(reference)
    assert run_op(Op("cli.t", lambda: (0, reference), check)).ok
    corrupted = bytes([reference[0] ^ 1]) + reference[1:]
    assert not run_op(Op("cli.t", lambda: (0, corrupted), check)).ok
    assert not run_op(Op("cli.t", lambda: (0, reference + b"\n"), check)).ok
    assert not run_op(Op("cli.t", lambda: (1, reference), check)).ok


def test_raising_operation_is_counted_not_raised():
    def boom():
        raise ZeroDivisionError("float division by zero")

    ops = [Op("sweep.t", boom, bool, known_defect=True), Op("ok.t", lambda: 1, bool)]
    passes = run.run_passes(lambda: ops, 0)
    samples = run.flatten(passes)
    assert [s.ok for s in samples] == [False, True]
    assert samples[0].error.startswith("ZeroDivisionError") and samples[0].known_defect


def test_only_failures_outside_the_known_defect_are_failed():
    def boom():
        raise ZeroDivisionError("float division by zero")

    ops = [Op("sweep.t", boom, bool, known_defect=True), Op("ok.t", lambda: 1, bool)]
    samples = run.flatten(run.run_passes(lambda: ops, 0))
    assert run.result_line(samples, {}) == {"correct": True, "attempted": 2, "failed": 0,
                                            "metrics": {}}
    ops.append(Op("other.t", boom, bool))
    samples = run.flatten(run.run_passes(lambda: ops, 0))
    result = run.result_line(samples, {})
    assert not result["correct"] and result["failed"] == 1 and result["attempted"] == 3


def _bound_objects():
    return [getattr(importlib.import_module(mod), attr) for mod, attr, _, _ in tracing.sites()]


def test_untraced_run_leaves_every_wrapped_name_untouched():
    from slenderspec import checks

    before = _bound_objects()
    ops = [Op("checks.appendixC", lambda: checks.verify_appendix_c(), lambda r: r.ok)]
    passes = run.run_passes(lambda: ops, 0)
    assert run.flatten(passes)[0].ok
    assert all(a is b for a, b in zip(before, _bound_objects()))


def test_traced_run_records_spans_and_restores_every_name():
    from slenderspec import checks

    before = _bound_objects()
    tracer = tracing.Tracer()
    saved = tracing.install(tracer)
    try:
        assert not any(a is b for a, b in zip(before, _bound_objects()))
        ops = [Op("checks.appendixC", lambda: checks.verify_appendix_c(), lambda r: r.ok)]
        run.run_passes(lambda: ops, 0, tracer=tracer)
    finally:
        tracing.uninstall(saved)
    assert all(a is b for a, b in zip(before, _bound_objects()))
    metrics = tracing.span_metrics(tracer)
    assert metrics["bessel.ratio.calls"] > 0 and metrics["bessel.ratio.points"] >= 10_000
    calls, _, _ = tracer.totals()["op.checks.appendixC"]
    assert calls == 1


def test_self_time_excludes_children():
    import time

    tracer = tracing.Tracer()
    tracer.span("outer", lambda: (time.sleep(0.02), tracer.span("inner", time.sleep, 0.05)))
    totals = tracer.totals()
    assert totals["outer"][1] >= totals["inner"][1] >= 0.05
    assert abs(totals["outer"][2] - (totals["outer"][1] - totals["inner"][1])) < 1e-9


def test_unique_ratio_counts_repeated_wavenumbers_once():
    unique = tracing.UniqueK()
    ks = np.arange(-100, 101)
    ks = ks[ks != 0]
    unique.add("fam", 0.01, ks)       # +k and -k: 100 distinct of 200
    unique.add("fam", 0.01, 7)
    unique.add("fam", 0.02, [3])
    assert unique.points == 202 and unique.distinct() == 101


def test_domain_sweep_reaches_z_700_and_is_seeded():
    first = workloads.domain_sweep(np.random.default_rng(3))
    again = workloads.domain_sweep(np.random.default_rng(3))
    assert [(d, m.k, m.eps) for d, m in first] == [(d, m.k, m.eps) for d, m in again]
    zs = [m.z for _, m in first]
    assert max(zs) <= workloads.SWEEP_Z_MAX and max(zs) > 690.0
    assert all(0.0 < m.eps < 0.5 for _, m in first)


def test_known_defect_is_the_boundary_underflow_region():
    assert not workloads.boundary_underflow("laplace_scalar", 700.0)
    assert not workloads.boundary_underflow("tangential", 340.0)
    assert workloads.boundary_underflow("tangential", 360.0)
    assert not workloads.boundary_underflow("normal", 220.0)
    assert workloads.boundary_underflow("normal", 250.0)


def test_tail_has_ten_samples_beyond_it():
    assert run.tail(list(range(1, 21))) == (10, 50.0)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
