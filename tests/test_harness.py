"""Scenario parsing, task execution, CSV determinism, CLI exit codes."""

import csv
import filecmp
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from shellmap import ScenarioError
from shellmap.cli import main as cli_main
from shellmap.harness import (
    Scenario,
    build_core,
    build_field,
    list_scenarios,
    load_bundled,
    parse_scenario_text,
    run_scenario,
)

ZONAL_LINEARIZE = """
name = demo
rng_seed = 0
core.kind = sphere
core.radius = 1.0
field.kind = zonal_legendre
field.d0 = 0.5
field.eps = 0.01
task = linearize
task.point = equator
"""


def scn_path(tmp_path, text, name="s.scn"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def test_parse_round_trip():
    scn = parse_scenario_text(ZONAL_LINEARIZE)
    assert scn.name == "demo"
    assert scn.task == "linearize"
    assert scn.core["kind"] == "sphere"
    assert scn.field_spec["eps"] == "0.01"
    assert scn.params["point"] == "equator"


def test_parse_comments_and_blanks():
    scn = parse_scenario_text("# a comment\n\nname = x\ntask = orbit\ncore.kind = sphere\n")
    assert scn.name == "x"


def test_parse_missing_equals_reports_line():
    with pytest.raises(ScenarioError) as err:
        parse_scenario_text("name = x\ntask = orbit\nbroken line\n")
    assert err.value.line == 3


def test_parse_duplicate_key():
    with pytest.raises(ScenarioError):
        parse_scenario_text("name = x\nname = y\ntask = orbit\n")


def test_parse_unknown_task():
    with pytest.raises(ScenarioError):
        parse_scenario_text("name = x\ntask = frobnicate\n")


def test_parse_unknown_toplevel_key():
    with pytest.raises(ScenarioError):
        parse_scenario_text("name = x\ntask = orbit\nbogus.key = 1\n")


def test_build_core_variants():
    assert build_core({"kind": "circle", "radius": "2.0"}).dim == 2
    assert build_core({"kind": "ellipsoid", "a": "2", "b": "1", "c": "1"}).kind == "ellipsoid"
    with pytest.raises(ScenarioError):
        build_core({"kind": "torus"})


def test_build_field_variants():
    core = build_core({"kind": "sphere", "radius": "1.0"})
    fld = build_field(core, {"kind": "zonal_legendre", "d0": "0.5", "eps": "0.01"})
    assert fld.eps == 0.01
    with pytest.raises(ScenarioError):
        build_field(core, {"kind": "mystery"})


# ---------------------------------------------------------------------------
# bundled scenarios
# ---------------------------------------------------------------------------

def test_bundled_scenarios_parse_and_validate():
    names = list_scenarios()
    assert "sphere_p2_linearize" in names
    assert "constant_shell" in names
    assert "residual_sweep" in names
    for name in names:
        scn = parse_scenario_text(load_bundled(name))
        core = build_core(scn.core)
        build_field(core, scn.field_spec)


def test_unknown_bundled_name():
    with pytest.raises(ScenarioError):
        load_bundled("not_a_scenario")


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------

def test_linearize_scenario_outputs(tmp_path):
    start = time.monotonic()
    files = run_scenario(scn_path(tmp_path, ZONAL_LINEARIZE), out_dir=tmp_path / "out")
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    names = {f.name for f in files}
    assert {"linearize.csv", "summary.csv", "manifest.txt"} <= names
    text = (tmp_path / "out" / "linearize.csv").read_text()
    # measured eigenvalues (finite differences) and the classical-model row
    assert "1.009933" in text and "1.000000" in text
    assert "0.980134" in text


def test_constant_shell_flags_continuum(tmp_path):
    files = run_scenario(scn_path(tmp_path, load_bundled("constant_shell")), out_dir=tmp_path / "o")
    summary = (tmp_path / "o" / "summary.csv").read_text()
    assert "continuum_of_fixed_points,True" in summary


def test_circle_fixed_points_scenario(tmp_path):
    run_scenario(scn_path(tmp_path, load_bundled("circle_cos2_fixed_points")), out_dir=tmp_path / "o")
    lines = (tmp_path / "o" / "fixed_points.csv").read_text().splitlines()
    assert len(lines) == 5  # header + 4 fixed points
    thetas = sorted(float(l.split(",")[0]) for l in lines[1:])
    for got, want in zip(thetas, [0.0, np.pi / 2, np.pi, 3 * np.pi / 2]):
        assert abs(got - want) < 1e-6


def test_reruns_are_byte_identical(tmp_path):
    path = scn_path(tmp_path, ZONAL_LINEARIZE)
    run_scenario(path, out_dir=tmp_path / "a")
    run_scenario(path, out_dir=tmp_path / "b")
    for name in ("linearize.csv", "summary.csv"):
        assert filecmp.cmp(tmp_path / "a" / name, tmp_path / "b" / name, shallow=False)


def test_sweep_scenario_byte_identical_with_seed(tmp_path):
    text = load_bundled("residual_sweep").replace("1e-1,3e-2,1e-2,3e-3,1e-3", "1e-1,3e-2,1e-2")
    path = scn_path(tmp_path, text)
    run_scenario(path, out_dir=tmp_path / "a", seed=7)
    run_scenario(path, out_dir=tmp_path / "b", seed=7)
    assert filecmp.cmp(tmp_path / "a" / "sweep.csv", tmp_path / "b" / "sweep.csv", shallow=False)
    run_scenario(path, out_dir=tmp_path / "c", seed=8)
    assert not filecmp.cmp(tmp_path / "a" / "sweep.csv", tmp_path / "c" / "sweep.csv", shallow=False)


def test_admissibility_scenario(tmp_path):
    run_scenario(scn_path(tmp_path, load_bundled("ellipsoid_admissibility")), out_dir=tmp_path / "o")
    summary = (tmp_path / "o" / "summary.csv").read_text()
    assert "admissible,True" in summary
    header = (tmp_path / "o" / "admissibility.csv").read_text().splitlines()[0]
    assert header == "theta,phi,d,min_sv_DPhi,normal_ray_hits"


def test_manifest_contents(tmp_path):
    run_scenario(scn_path(tmp_path, ZONAL_LINEARIZE), out_dir=tmp_path / "o")
    manifest = (tmp_path / "o" / "manifest.txt").read_text()
    assert "name = demo" in manifest
    assert "tool_version = " in manifest
    assert "wall_time_s = " in manifest


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_validate_ok(tmp_path, capsys):
    rc = cli_main(["validate", scn_path(tmp_path, ZONAL_LINEARIZE)])
    assert rc == 0
    assert "ok:" in capsys.readouterr().out


def test_cli_validate_parse_error(tmp_path, capsys):
    rc = cli_main(["validate", scn_path(tmp_path, "name = x\nnot a kv line\n")])
    assert rc == 2
    assert "parse error at line 2" in capsys.readouterr().err


def test_cli_run_writes_files(tmp_path, capsys):
    rc = cli_main(["run", scn_path(tmp_path, ZONAL_LINEARIZE), "--out", str(tmp_path / "o")])
    assert rc == 0
    assert (tmp_path / "o" / "summary.csv").exists()


def test_cli_numeric_failure_exit_3(tmp_path, capsys):
    # linearization away from a fixed point is a numeric failure (exit 3)
    bad = ZONAL_LINEARIZE.replace("task.point = equator", "task.point = 0.785398,0.0")
    rc = cli_main(["run", scn_path(tmp_path, bad), "--out", str(tmp_path / "o")])
    assert rc == 3
    err = capsys.readouterr().err
    assert "numeric failure in linearize" in err


def test_cli_orbit_error_exit_3(tmp_path, capsys):
    # d = 0.1 + 0.5 P2(0) = -0.15 at the seed: an error record, not a crash
    bad = ZONAL_LINEARIZE.replace("field.d0 = 0.5", "field.d0 = 0.1").replace(
        "field.eps = 0.01", "field.eps = 0.5").replace(
        "task = linearize\ntask.point = equator", "task = orbit\ntask.point = 1.5707963,0")
    rc = cli_main(["run", scn_path(tmp_path, bad), "--out", str(tmp_path / "o")])
    assert rc == 3
    err = capsys.readouterr().err
    assert "numeric failure in orbit" in err and "InadmissibleThickness" in err
    assert (tmp_path / "o" / "orbit.csv").read_text().splitlines() == [
        "step,theta,phi,x,y,z,d,displacement"]


@pytest.mark.parametrize("old,new,key", [
    ("task.point = equator", "task.point = equator\ntask.h = abc", "task.h"),
    ("task.point = equator", "task.point = 1,2,3", "task.point"),
    ("field.eps = 0.01", "field.eps = 1e", "field.eps"),
    ("core.radius = 1.0", "core.radius = one", "core.radius"),
    ("rng_seed = 0", "rng_seed = 0.5", "rng_seed"),
], ids=["task.h", "task.point", "field.eps", "core.radius", "rng_seed"])
def test_cli_bad_value_exit_2_names_the_key(tmp_path, capsys, old, new, key):
    scn = scn_path(tmp_path, ZONAL_LINEARIZE.replace(old, new))
    assert cli_main(["run", scn, "--out", str(tmp_path / "o")]) == 2
    assert f"'{key}'" in capsys.readouterr().err


def test_cli_fixed_points_with_no_seeds(tmp_path, capsys):
    scn = ZONAL_LINEARIZE.replace("task = linearize\ntask.point = equator",
                                  "task = fixed_points\ntask.n_seeds = 0")
    assert cli_main(["run", scn_path(tmp_path, scn), "--out", str(tmp_path / "o")]) == 0
    bad = scn_path(tmp_path, scn.replace("n_seeds = 0", "n_seeds = abc"), "bad.scn")
    assert cli_main(["run", bad, "--out", str(tmp_path / "p")]) == 2
    assert "'task.n_seeds'" in capsys.readouterr().err
    summary = (tmp_path / "o" / "summary.csv").read_text().splitlines()
    assert summary[1:] == ["n_clusters,0", "continuum_of_fixed_points,False", "unresolved_seeds,0"]


def test_build_core_names_a_missing_ellipsoid_axis():
    with pytest.raises(ScenarioError, match="'core.c'"):
        build_core({"kind": "ellipsoid", "a": "2", "b": "1"})


def test_cli_list_scenarios(capsys):
    rc = cli_main(["list-scenarios"])
    assert rc == 0
    out = capsys.readouterr().out.split()
    assert "sphere_p2_linearize" in out


def test_cli_env_default_out(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SHELLMAP_OUT", str(tmp_path / "envout"))
    rc = cli_main(["run", scn_path(tmp_path, ZONAL_LINEARIZE)])
    assert rc == 0
    assert (tmp_path / "envout" / "demo" / "summary.csv").exists()


def test_linearize_csv_has_eigenvalue_pairs(tmp_path):
    run_scenario(scn_path(tmp_path, ZONAL_LINEARIZE), out_dir=tmp_path / "o")
    header = (tmp_path / "o" / "linearize.csv").read_text().splitlines()[0]
    assert header.startswith("method,eig1_re,eig1_im,eig2_re,eig2_im,")


@pytest.mark.slow
def test_every_bundled_scenario_completes_quickly(tmp_path):
    for name in list_scenarios():
        start = time.monotonic()
        run_scenario(scn_path(tmp_path, load_bundled(name), name + ".scn"),
                     out_dir=tmp_path / name)
        elapsed = time.monotonic() - start
        assert elapsed < 60.0, f"{name} took {elapsed:.1f} s"
        assert (tmp_path / name / "manifest.txt").exists()


BENCH_REFERENCE = Path(__file__).resolve().parents[1] / "bench" / "reference.json"


def _same_printed_value(got: str, want: str) -> bool:
    """Equal as printed, or as the numbers the 6-decimal strings denote."""
    if got == want:
        return True
    try:
        x, y = float(got), float(want)
    except ValueError:
        return False
    return x == y or (math.isnan(x) and math.isnan(y))


def test_bundled_summaries_match_bench_reference(tmp_path):
    # the `scenarios` table of bench/reference.json, read and never written
    expected = json.loads(BENCH_REFERENCE.read_text())["scenarios"]
    assert sorted(expected) == sorted(list_scenarios())
    for name in list_scenarios():
        run_scenario(scn_path(tmp_path, load_bundled(name), name + ".scn"), out_dir=tmp_path / name)
        with open(tmp_path / name / "summary.csv", newline="") as fh:
            got = list(csv.reader(fh))[1:]
        want = expected[name]
        assert len(got) == len(want), name
        for g, w in zip(got, want):
            assert g[0] == w[0] and _same_printed_value(g[1], w[1]), (name, g, w)
