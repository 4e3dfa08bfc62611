"""Every bundled scenario's outputs against recorded SHA-256 digests.

bundled_digests.json holds one digest per output file of each bundled
scenario: each CSV as written, and the manifest without its wall_time_s
line, the one value that differs between reruns.  A change that moves any
output bit of any scenario fails here with the names of the files that
differ.  The digests depend on the numpy build that made them (einsum and
the reductions sum in its order), which the file records.

To record the digests of the current tree:

    PYTHONPATH=src python tests/test_bundled_digests.py
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from shellmap.harness import list_scenarios, load_bundled, parse_scenario_text, run_scenario

DIGESTS = Path(__file__).resolve().with_name("bundled_digests.json")


def _file_digest(path: Path) -> str:
    data = path.read_bytes()
    if path.name == "manifest.txt":
        data = b"".join(line for line in data.splitlines(keepends=True) if not line.startswith(b"wall_time_s = "))
    return hashlib.sha256(data).hexdigest()


def _scenario_digests(out_root: Path) -> dict:
    """{"scenario/file": digest} for every file of every bundled scenario,
    each run into its own directory under out_root."""
    digests = {}
    for name in list_scenarios():
        files = run_scenario(parse_scenario_text(load_bundled(name)), out_dir=out_root / name)
        digests.update({f"{name}/{path.name}": _file_digest(path) for path in files})
    return digests


def test_bundled_outputs_match_their_recorded_digests(tmp_path):
    recorded = json.loads(DIGESTS.read_text())
    assert recorded["numpy"] == np.__version__, (
        f"digests were recorded with numpy {recorded['numpy']}, this is {np.__version__}: "
        "rerun this module as a script to record them for this numpy")
    got = _scenario_digests(tmp_path)
    want = recorded["files"]
    assert sorted({key.split("/")[0] for key in want}) == list_scenarios()
    missing, extra = sorted(set(want) - set(got)), sorted(set(got) - set(want))
    differ = sorted(key for key in set(got) & set(want) if got[key] != want[key])
    assert not (missing or extra or differ), f"differ: {differ}; missing: {missing}; new: {extra}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        files = _scenario_digests(Path(tmp))
    DIGESTS.write_text(json.dumps({"numpy": np.__version__, "files": dict(sorted(files.items()))}, indent=1) + "\n")
    print(f"{len(files)} digests written to {DIGESTS}", file=sys.stderr)
