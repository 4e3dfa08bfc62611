"""Record the reference outputs that the benchmark's checks compare against.

Run once from the repository root, on the commit whose results are the
reference:

    python3 bench/make_reference.py

It writes ``bench/reference.json``: every bundled scenario's summary.csv
rows, the printed outputs of the pointwise probes, the descent cluster
shares for the default seed, and the thin-shell basin evidence.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import workloads  # noqa: E402
from shellmap import dynamics, harness  # noqa: E402


def main() -> int:
    ref = {"scenarios": {}}
    out = Path(tempfile.mkdtemp(prefix="reference-", dir=ROOT))
    try:
        folder = Path(harness.__file__).parent / "scenarios"
        for name in harness.list_scenarios():
            harness.run_scenario(str(folder / f"{name}.scn"), out_dir=out / name)
            ref["scenarios"][name] = workloads.read_summary(out / name / "summary.csv")
    finally:
        shutil.rmtree(out, ignore_errors=True)

    probes = workloads.PointwiseProbes(0, {})
    ref["probes"] = {label: json.loads(json.dumps(probe())) for label, probe in probes.probes()}

    ref["descent_shares"] = {}
    for cls in (workloads.Descent1k, workloads.Descent10k):
        descent = cls(cls.default_seed, {})
        res = dynamics.iterate_batch(descent.dom, descent.X, max_iters=100_000, tol=1e-10)
        ref["descent_shares"][cls.name] = {str(descent.seed): descent.cluster_shares(res.limits)}

    thin = workloads.ThinShellEquivalence(workloads.ThinShellEquivalence.default_seed, {})
    ref["thin_shell_basins"] = thin.basin_evidence(thin.equivalence())

    workloads.REFERENCE_PATH.write_text(json.dumps(ref, indent=1) + "\n")
    print(f"wrote {workloads.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
