"""The benchmark's entry points run on the package as it stands.

bench/workloads.py reaches shellmap by module path (for example
inverse.BlackBoxMap, analysis.linearize_fd and harness.run_scenario), so a
moved or renamed name breaks the benchmark.  One pass of each of the three
gated workloads must complete with no failed operation, and the traced
run's kernel sweep must find every entry point it times.
bench/reference.json is read and never written; the scenarios write their
reports under the test's temporary directory.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.mark.parametrize("name", ["pointwise_probes", "descent_1k", "scenarios"])
def test_bench_workload_pass_has_no_failed_operation(name, monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(BENCH))
    workloads = importlib.import_module("workloads")
    run = workloads.build(name, None, tmp_path)
    attempted, failed = run.run_pass()
    assert attempted > 0
    assert failed == 0, run.errors


def test_kernel_sweep_finds_every_entry_point(monkeypatch):
    # the traced run (--trace 1) times return_map, frame_at(...).vectors, retract and
    # _outer_geometry_batch(dom, X) by name; a missing one would read 0 and be listed
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    monkeypatch.setattr(run, "SWEEP_SIZES", (1, 2))
    monkeypatch.setattr(run, "_seconds_per_call", lambda fn: (fn(), 1.0)[1])
    absent = []
    metrics = run.kernel_sweep(0, absent)
    assert absent == []
    assert metrics and all(v > 0 for v in metrics.values())
