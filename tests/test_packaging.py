"""The declared dependencies cover what the package calls, and the bundled
scenarios read the same under any locale."""

import re
from importlib import resources
from pathlib import Path

from shellmap.harness import list_scenarios, load_bundled

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_numpy_floor_is_at_least_2_0():
    # np.vecdot (dynamics.iterate_orbit, analysis.find_fixed_points) is numpy
    # 2.0+, and the bit-for-bit tests pin numpy 2.x summation orders
    m = re.search(r'"numpy\s*>=\s*(\d+)(?:\.(\d+))?', PYPROJECT.read_text())
    assert m, "pyproject.toml declares no numpy floor"
    assert (int(m[1]), int(m[2] or 0)) >= (2, 0), f"numpy floor {m[0][1:]} is below 2.0"


def test_bundled_scenarios_are_utf8_and_load_as_their_text():
    # load_bundled reads UTF-8, as parse_scenario does, not the locale's encoding
    names = list_scenarios()
    assert names
    for name in names:
        raw = (resources.files("shellmap") / "scenarios" / f"{name}.scn").read_bytes()
        assert load_bundled(name) == raw.decode("utf-8")
