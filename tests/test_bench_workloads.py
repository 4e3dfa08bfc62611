"""The benchmark's entry points run on the package as it stands.

bench/workloads.py reaches shellmap by module path (for example
inverse.BlackBoxMap, analysis.linearize_fd and harness.run_scenario), so a
moved or renamed name breaks the benchmark.  One pass of each of the three
gated workloads must complete with no failed operation.
bench/reference.json is read and never written; the scenarios write their
reports under the test's temporary directory.
"""

import importlib
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
