"""Scenario parsing, task execution, CSV determinism, CLI exit codes."""

import csv
import filecmp
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from shellmap import InadmissibleThickness, ScenarioError, SurfacePoint
from shellmap.cli import main as cli_main
from shellmap.harness import (
    _Out,
    _sample_charts,
    _theta_phi,
    _xyz,
    build_core,
    list_scenarios,
    load_bundled,
    parse_scenario_text,
    resolve,
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

LINEARIZE_TASK = "task = linearize\ntask.point = equator"
ZONAL_TASK = "field.kind = zonal_legendre\nfield.d0 = 0.5\nfield.eps = 0.01\n" + LINEARIZE_TASK
SPHERE_ZONAL = "core.kind = sphere\ncore.radius = 1.0\nfield.kind = zonal_legendre"
CIRCLE_FOURIER = "core.kind = circle\ncore.radius = 1.0\nfield.kind = fourier_2d"
ZONAL_BODY = "core.kind = sphere\ncore.radius = 1.0\n" + ZONAL_TASK


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
    # ZONAL_LINEARIZE: a zonal_legendre field with d0 = 0.5 and eps = 0.01 on the unit sphere
    fld = resolve(parse_scenario_text(ZONAL_LINEARIZE)).dom.field
    assert fld.eps == 0.01
    with pytest.raises(ScenarioError):
        resolve(parse_scenario_text(ZONAL_LINEARIZE.replace("zonal_legendre", "mystery")))


# ---------------------------------------------------------------------------
# bundled scenarios
# ---------------------------------------------------------------------------

def test_bundled_scenarios_parse_and_validate():
    names = list_scenarios()
    assert "sphere_p2_linearize" in names
    assert "constant_shell" in names
    assert "residual_sweep" in names
    for name in names:
        resolve(parse_scenario_text(load_bundled(name)))


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


def test_a_run_makes_its_directory_once(tmp_path, monkeypatch):
    # the run's first file makes the directory; its later files only open
    made, mkdir = [], Path.mkdir

    def counted(self, *args, **kwargs):
        made.append(self)
        return mkdir(self, *args, **kwargs)

    monkeypatch.setattr(Path, "mkdir", counted)
    files = run_scenario(scn_path(tmp_path, load_bundled("constant_shell")), out_dir=tmp_path / "o")
    assert len(files) > 2 and all(f.exists() for f in files)
    assert made == [tmp_path / "o"]


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


def test_manifest_lists_every_resolved_key(tmp_path):
    # ZONAL_LINEARIZE sets neither field.axis nor task.h: their defaults are listed too
    run_scenario(scn_path(tmp_path, ZONAL_LINEARIZE), out_dir=tmp_path / "o")
    lines = (tmp_path / "o" / "manifest.txt").read_text().splitlines()
    assert lines[:-2] == ["name = demo", "task = linearize", "rng_seed = 0", "core.kind = sphere",
                          "core.radius = 1.0", "field.axis = 0,0,1", "field.d0 = 0.5", "field.eps = 0.01",
                          "field.kind = zonal_legendre", "task.h = 1e-5", "task.point = equator"]


def test_fourier_eps_sets_every_term_amplitude():
    text = ZONAL_LINEARIZE.replace(SPHERE_ZONAL, CIRCLE_FOURIER + "\nfield.terms = 2:0.01,3:0.02")
    text = text.replace(LINEARIZE_TASK, "task = orbit")

    def terms(text):
        return resolve(parse_scenario_text(text)).dom.field.terms
    assert terms(text.replace("field.eps = 0.01\n", "")) == [(2, 0.01), (3, 0.02)]
    assert terms(text.replace("field.eps = 0.01", "field.eps = 0.05")) == [(2, 0.05), (3, 0.05)]


def test_manifest_contents(tmp_path):
    run_scenario(scn_path(tmp_path, ZONAL_LINEARIZE), out_dir=tmp_path / "o")
    manifest = (tmp_path / "o" / "manifest.txt").read_text()
    assert "name = demo" in manifest
    assert "tool_version = " in manifest
    assert "wall_time_s = " in manifest


def test_out_table_formats_as_numpy_scalars_would(tmp_path):
    # the rows are formatted from Python numbers; the text must be that of the
    # numpy scalars: %d for int and bool columns, %.17g for floats, with signed
    # zero, nan, infinities and a subnormal among the values
    ints = np.array([0, -3, 2**62, 7, 1, -1])
    flags = np.array([True, False, True, False, True, False])
    floats = np.array([-0.0, np.nan, np.inf, -np.inf, 5e-324, 0.1 + 0.2])
    _Out(tmp_path).table("t.csv", ["i", "b", "f"], ints, flags, floats, list(floats))
    want = "".join("%d,%d,%.17g,%.17g\n" % r for r in zip(ints, flags, floats, floats))
    assert (tmp_path / "t.csv").read_text() == "i,b,f\n" + want
    assert [line.split(",")[2] for line in want.splitlines()] == \
        ["-0", "nan", "inf", "-inf", "4.9406564584124654e-324", "0.30000000000000004"]


def _cells(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_out_writes_every_table_exactly(tmp_path):
    # numeric tables: integer columns with %d, floats with %.17g, which reads
    # back as the same float (0.1 + 0.2 needs all 17 digits); N = 2 rows
    # are padded with phi = z = 0
    circle = build_core({"kind": "circle"})
    values = [-0.0, 0.1 + 0.2, 1 / 3, -2.5e-300, 6.02214076e23]
    charts = np.array([[0.5], [1.0], [2.0], [3.0], [4.0]])
    X = circle.ambient_from_chart(charts)
    out = _Out(tmp_path / "t")
    head = ["k", "v", "theta", "phi", "x", "y", "z"]
    out.table("t.csv", head, np.arange(5), values, *_theta_phi(circle, charts), *_xyz(circle, X))
    out.table("empty.csv", ["step", "d"], np.arange(0), [])
    rows = _cells(tmp_path / "t" / "t.csv")
    assert rows[0] == head and len(rows) == 6
    for k, row in enumerate(rows[1:]):
        assert row[0] == str(k)
        assert [float(s) for s in row[1:]] == [values[k], charts[k, 0], 0.0, X[k, 0], X[k, 1], 0.0]
        assert row[3] == row[6] == "0"
    assert rows[1][1] == "-0"
    assert (tmp_path / "t" / "empty.csv").read_text() == "step,d\n"
    assert out.files == [tmp_path / "t" / "t.csv", tmp_path / "t" / "empty.csv"]

    # each task's table, run small: header, one row per record, integer columns
    def run(text, table):
        d = tmp_path / table
        run_scenario(scn_path(tmp_path, text, table + ".scn"), out_dir=d)
        return _cells(d / table), dict(_cells(d / "summary.csv")[1:])

    def task(lines):
        return ZONAL_LINEARIZE.replace(LINEARIZE_TASK, lines)

    rows, summary = run(task("task = orbit\ntask.max_iters = 30"), "orbit.csv")
    assert rows[0] == ["step", "theta", "phi", "x", "y", "z", "d", "displacement"]
    assert [r[0] for r in rows[1:]] == [str(k) for k in range(int(summary["steps"]) + 1)]
    rows, _ = run(task("task = admissibility\ntask.grid = 64"), "admissibility.csv")
    assert rows[0] == ["theta", "phi", "d", "min_sv_DPhi", "normal_ray_hits"] and len(rows) == 65
    assert {r[4] for r in rows[1:]} == {"1"}
    rows, _ = run(task("task = basins\ntask.n_seeds = 20"), "basins.csv")
    assert rows[0] == ["seed_theta", "seed_phi", "label"] and len(rows) == 21
    assert all(r[2].lstrip("-").isdigit() for r in rows[1:])
    rows, summary = run(task("task = reconstruct\ntask.n_seeds = 40\ntask.n_samples = 3"),
                        "reconstruction.csv")
    counts = ("n_fixed_points", "n_descent_samples", "n_composites", "n_hessians")
    assert rows[0] == ["record", "theta", "phi", "data"]
    assert len(rows) == 1 + sum(int(summary[k]) for k in counts) and int(summary["n_hessians"]) > 0
    rows, summary = run(load_bundled("circle_cos2_fixed_points").replace("n_seeds = 360", "n_seeds = 40"),
                        "fixed_points.csv")
    assert rows[0] == ["theta", "phi", "x", "y", "z", "residual", "grad_norm"]
    assert len(rows) == 1 + int(summary["n_clusters"]) > 1
    assert all(r[1] == r[4] == "0" for r in rows[1:])


def test_drawn_charts_are_written_as_drawn(tmp_path):
    # the orbit seed and the descent samples are drawn as charts, and their rows carry
    # those charts: the charts recomputed from their ambient points differ in the last bit
    core = build_core({"kind": "sphere"})
    seed = np.array([0.785398163, 0.0])  # the orbit task's default point on a sphere
    assert core.chart_from_ambient(core.ambient_from_chart(seed))[0] != seed[0]
    orbit = ZONAL_LINEARIZE.replace(LINEARIZE_TASK, "task = orbit\ntask.max_iters = 3")
    run_scenario(scn_path(tmp_path, orbit, "orbit.scn"), out_dir=tmp_path / "orbit")
    assert _cells(tmp_path / "orbit" / "orbit.csv")[1][:3] == ["0", "%.17g" % seed[0], "%.17g" % seed[1]]

    n = 12
    rec = ZONAL_LINEARIZE.replace(LINEARIZE_TASK, f"task = reconstruct\ntask.n_seeds = 40\ntask.n_samples = {n}")
    run_scenario(scn_path(tmp_path, rec, "rec.scn"), out_dir=tmp_path / "rec")
    charts = _sample_charts(core, n, np.random.default_rng(0))  # the scenario's rng_seed
    assert np.any(core.chart_from_ambient(core.ambient_from_chart(charts)) != charts)
    rows = [r for r in _cells(tmp_path / "rec" / "reconstruction.csv")[1:] if r[0] == "descent_dir"]
    assert [r[1:3] for r in rows] == [["%.17g" % t, "%.17g" % f] for t, f in charts]


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


@pytest.mark.parametrize("command", ["run", "validate"])
@pytest.mark.parametrize("kind, reason", [("missing", "No such file or directory"),
                                          ("directory", "Is a directory"),
                                          ("not_utf8", "can't decode byte 0xff")])
def test_cli_unreadable_scenario_exit_2_names_the_path(tmp_path, capsys, command, kind, reason):
    path = tmp_path / "s.scn"
    if kind == "directory":
        path.mkdir()
    elif kind == "not_utf8":
        path.write_bytes(b"name = \xff\n")
    out = ["--out", str(tmp_path / "o")] if command == "run" else []
    assert cli_main([command, str(path), *out]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"parse error: cannot read {str(path)!r}: ") and reason in err
    assert "Traceback" not in err and not (tmp_path / "o").exists()


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
    # values that parse but are out of range
    ("core.radius = 1.0", "core.radius = -1", "core.radius"),
    ("core.kind = sphere\ncore.radius = 1.0", "core.kind = ellipsoid\ncore.a = 2\ncore.b = 1\ncore.c = 0",
     "core.c"),
    (LINEARIZE_TASK, "task = orbit\ntask.tol = -1", "task.tol"),
    (LINEARIZE_TASK, "task = expansion_sweep\ntask.kind = foo", "task.kind"),
    (LINEARIZE_TASK, "task = admissibility\ntask.grid = 0", "task.grid"),
    (LINEARIZE_TASK, "task = expansion_sweep\ntask.n_samples = 0", "task.n_samples"),
    (LINEARIZE_TASK, "task = scaling\ntask.equivalence = ture", "task.equivalence"),
    ("field.eps = 0.01", "field.eps = 0.01\nfield.axis = 0,0,0", "field.axis"),
    ("field.kind = zonal_legendre", "field.kind = two_axis_legendre\nfield.axis2 = nan,0,1", "field.axis2"),
    ("task.point = equator", "task.point = equator\ntask.h = 1e9", "task.h"),
    (LINEARIZE_TASK, "task = reconstruct\ntask.h = 0.5", "task.h"),
    # h is in units of surface_scale(), so its bound does not grow with the core
    ("core.radius = 1.0", "core.radius = 1e3\ntask.h = 0.05", "task.h"),
    (LINEARIZE_TASK, "task = expansion_sweep\ntask.eps_list = 0.1", "task.eps_list"),
    (LINEARIZE_TASK, "task = expansion_sweep\ntask.kind = series\ntask.d_list = 0.1,-0.01", "task.d_list"),
    # negative counts
    (LINEARIZE_TASK, "task = reconstruct\ntask.n_samples = -1", "task.n_samples"),
    (LINEARIZE_TASK, "task = reconstruct\ntask.n_seeds = -1", "task.n_seeds"),
    (LINEARIZE_TASK, "task = scaling\ntask.n_samples = -3", "task.n_samples"),
    (LINEARIZE_TASK, "task = scaling\ntask.equivalence_seeds = -1", "task.equivalence_seeds"),
    (LINEARIZE_TASK, "task = scaling\ntask.equivalence_probe = -1", "task.equivalence_probe"),
    (LINEARIZE_TASK, "task = scaling\ntask.equivalence_max_iters = -1", "task.equivalence_max_iters"),
    (LINEARIZE_TASK, "task = fixed_points\ntask.n_seeds = -1", "task.n_seeds"),
    (LINEARIZE_TASK, "task = basins\ntask.n_seeds = -1", "task.n_seeds"),
    (LINEARIZE_TASK, "task = basins\ntask.max_iters = -1", "task.max_iters"),
    (LINEARIZE_TASK, "task = orbit\ntask.max_iters = -1", "task.max_iters"),
    # reconstruction gains
    (LINEARIZE_TASK, "task = reconstruct\ntask.alpha_mode = assumed\ntask.alpha = 0", "task.alpha"),
    (LINEARIZE_TASK, "task = reconstruct\ntask.alpha_mode = assumed\ntask.alpha = nan", "task.alpha"),
    (LINEARIZE_TASK, "task = reconstruct\ntask.alpha_mode = sweep\ntask.alpha_factors = 1,0", "task.alpha_factors"),
    (LINEARIZE_TASK, "task = reconstruct\ntask.alpha_mode = sweep\ntask.alpha = 1e-200\n"
     "task.alpha_factors = 1e-200,1", "task.alpha_factors"),
    (LINEARIZE_TASK, "task = reconstruct\ntask.alpha_mode = guess", "task.alpha_mode"),
    # a field or a named point on a core of the wrong dimension
    (SPHERE_ZONAL, SPHERE_ZONAL.replace("sphere", "circle"), "field.kind"),
    (SPHERE_ZONAL, CIRCLE_FOURIER.replace("fourier_2d", "two_axis_legendre"), "field.kind"),
    (SPHERE_ZONAL, SPHERE_ZONAL.replace("zonal_legendre", "fourier_2d"), "field.kind"),
    (SPHERE_ZONAL, CIRCLE_FOURIER, "task.point"),
    # a negative seed, a series chart of the wrong length, a scale that is not positive and finite
    ("rng_seed = 0", "rng_seed = -1", "rng_seed"),
    (LINEARIZE_TASK, "task = expansion_sweep\ntask.kind = series\ntask.chart = 1.0", "task.chart"),
    (LINEARIZE_TASK, "task = expansion_sweep\ntask.kind = series\ntask.chart = 1.0,0.7,0.3", "task.chart"),
    (LINEARIZE_TASK, "task = scaling\ntask.lambda = 0", "task.lambda"),
    (LINEARIZE_TASK, "task = scaling\ntask.lambda = -2", "task.lambda"),
    (LINEARIZE_TASK, "task = scaling\ntask.lambda = nan", "task.lambda"),
    (LINEARIZE_TASK, "task = scaling\ntask.lambda = inf", "task.lambda"),
    # a positive real key that is not finite
    ("core.radius = 1.0", "core.radius = inf", "core.radius"),
    ("core.kind = sphere\ncore.radius = 1.0", "core.kind = ellipsoid\ncore.a = inf\ncore.b = 1\ncore.c = 1",
     "core.a"),
    (LINEARIZE_TASK, "task = fixed_points\ntask.tol = inf", "task.tol"),
    (LINEARIZE_TASK, "task = basins\ntask.cluster_radius = inf", "task.cluster_radius"),
    (LINEARIZE_TASK, "task = scaling\ntask.equivalence_tol = inf", "task.equivalence_tol"),
    (LINEARIZE_TASK, "task = expansion_sweep\ntask.eps_list = 0.1,inf", "task.eps_list"),
    # an eps sweep on a field kind that declares no eps (the series kind reads none: series_check)
    (ZONAL_TASK, "field.kind = constant\ntask = expansion_sweep", "field.kind"),
    (ZONAL_TASK, "field.kind = constant\ntask = expansion_sweep\ntask.kind = second_order", "field.kind"),
    (ZONAL_TASK, "field.kind = constant\ntask = expansion_sweep\ntask.kind = normal", "field.kind"),
    # a real field or step key that is not finite
    (ZONAL_TASK, "field.kind = zonal_legendre\nfield.d0 = nan\nfield.eps = 0.01\ntask = fixed_points", "field.d0"),
    ("field.eps = 0.01", "field.eps = inf", "field.eps"),
    ("field.kind = zonal_legendre\nfield.d0 = 0.5\nfield.eps = 0.01",
     "field.kind = two_axis_legendre\nfield.d0 = 0.5\nfield.eps = nan", "field.eps"),
    (ZONAL_BODY, CIRCLE_FOURIER + "\nfield.eps = -inf\ntask = admissibility", "field.eps"),
    (ZONAL_BODY, CIRCLE_FOURIER + "\nfield.terms = 2:inf\ntask = admissibility", "field.terms"),
    (LINEARIZE_TASK, "task = expansion_sweep\ntask.step_scale = nan", "task.step_scale"),
    (LINEARIZE_TASK, "task = orbit\ntask.point = nan,0", "task.point"),
], ids=["task.h", "task.point", "field.eps", "core.radius", "rng_seed", "core.radius=-1", "core.c=0",
        "orbit.tol=-1", "sweep.kind=foo", "admissibility.grid=0", "sweep.n_samples=0",
        "scaling.equivalence=ture", "field.axis=0", "field.axis2=nan", "linearize.h=1e9",
        "reconstruct.h=0.5", "linearize.h=0.05@radius=1e3", "sweep.eps_list=0.1", "series.d_list=negative",
        "reconstruct.n_samples=-1", "reconstruct.n_seeds=-1", "scaling.n_samples=-3",
        "scaling.equivalence_seeds=-1", "scaling.equivalence_probe=-1",
        "scaling.equivalence_max_iters=-1", "fixed_points.n_seeds=-1", "basins.n_seeds=-1",
        "basins.max_iters=-1", "orbit.max_iters=-1", "assumed.alpha=0", "assumed.alpha=nan",
        "sweep.alpha_factors=0", "sweep.alpha_factors=underflow", "reconstruct.alpha_mode=guess",
        "zonal_on_circle", "two_axis_on_circle", "fourier_on_sphere", "equator_on_circle",
        "rng_seed=-1", "series.chart=1", "series.chart=3", "scaling.lambda=0", "scaling.lambda=-2",
        "scaling.lambda=nan", "scaling.lambda=inf", "core.radius=inf", "core.a=inf", "fixed_points.tol=inf",
        "basins.cluster_radius=inf", "scaling.equivalence_tol=inf", "sweep.eps_list=inf",
        "constant.first_order", "constant.second_order", "constant.normal", "field.d0=nan",
        "field.eps=inf", "two_axis.eps=nan", "fourier.eps=-inf", "fourier.terms=inf",
        "sweep.step_scale=nan", "orbit.point=nan"])
def test_cli_bad_value_exit_2_names_the_key(tmp_path, capsys, old, new, key):
    scn = scn_path(tmp_path, ZONAL_LINEARIZE.replace(old, new))
    assert cli_main(["run", scn, "--out", str(tmp_path / "o")]) == 2
    assert f"'{key}'" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()
    # validate reads every key that run reads
    assert cli_main(["validate", scn]) == 2
    assert f"'{key}'" in capsys.readouterr().err


@pytest.mark.parametrize("name,line", [
    ("zonal_orbit", "task.tolerance = 1e-3"),
    ("zonal_orbit", "field.epsilon = 0.5"),
    ("zonal_orbit", "task.n_seed = 3"),
    ("constant_shell", "field.eps = 0.01"),
    ("circle_cos2_fixed_points", "field.axis = 0,0,1"),
    ("zonal_basins", "task.lambda = 2"),
], ids=["misspelt.tol", "misspelt.eps", "misspelt.n_seeds", "eps_on_constant", "axis_on_fourier",
        "lambda_on_basins"])
def test_cli_unknown_key_exit_2_names_the_key_and_its_line(tmp_path, capsys, name, line):
    # a key that no declaration of the core, field or task names is not silently ignored
    text = load_bundled(name).rstrip("\n") + "\n" + line + "\n"
    scn, key, lineno = scn_path(tmp_path, text), line.split(" = ")[0], len(text.splitlines())
    for argv in (["validate", scn], ["run", scn, "--out", str(tmp_path / "o")]):
        assert cli_main(argv) == 2
        err = capsys.readouterr().err
        assert f"parse error at line {lineno}," in err and f"unknown key '{key}'" in err
    assert not (tmp_path / "o").exists()


def test_cli_negative_seed_option_exit_2(tmp_path, capsys):
    scn = scn_path(tmp_path, ZONAL_LINEARIZE)
    assert cli_main(["run", scn, "--seed", "-1", "--out", str(tmp_path / "o")]) == 2
    assert "'rng_seed'" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_cli_run_parses_the_file_once(tmp_path, monkeypatch):
    import shellmap.harness as harness
    calls = []
    parse = harness.parse_scenario_text
    monkeypatch.setattr(harness, "parse_scenario_text", lambda text: calls.append(text) or parse(text))
    monkeypatch.setenv("SHELLMAP_OUT", str(tmp_path / "envout"))
    assert cli_main(["run", scn_path(tmp_path, ZONAL_LINEARIZE)]) == 0
    assert len(calls) == 1 and (tmp_path / "envout" / "demo" / "summary.csv").exists()


def test_cli_scaling_with_no_equivalence_seeds_exit_2_names_the_key(tmp_path, capsys):
    # an equivalence check over no seeds compares no basins: a map would be told apart from itself
    text = load_bundled("scaling_small_base").replace("task.lambda = 2.0", "task.lambda = 1.0").replace(
        "task.equivalence = false", "task.equivalence = true\ntask.equivalence_seeds = 0")
    scn = scn_path(tmp_path, text)
    assert cli_main(["run", scn, "--out", str(tmp_path / "o")]) == 2
    assert "'task.equivalence_seeds'" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("name,points", [("zonal_basins", 0), ("scaling_small_base", 0),
                                         ("zonal_reconstruct", 0)])
def test_point_sets_enter_the_inverse_pipeline_as_rows(tmp_path, monkeypatch, name, points):
    # seeds, samples and zonal_reconstruct's alpha_point go in as ambient rows
    calls = []
    from_chart = SurfacePoint.from_chart
    monkeypatch.setattr(SurfacePoint, "from_chart", staticmethod(lambda *a: calls.append(a) or from_chart(*a)))
    run_scenario(parse_scenario_text(load_bundled(name)), out_dir=tmp_path)
    assert len(calls) == points


@pytest.mark.parametrize("mode", ["known_classical", "known_measured"])
def test_reconstruct_rejects_a_known_gain_at_nonpositive_thickness(tmp_path, mode):
    # d = 0.1 + 0.5 P2(0) = -0.15 at the equator, the default alpha_point; no seeds, so no map call
    text = ZONAL_LINEARIZE.replace("field.d0 = 0.5\nfield.eps = 0.01", "field.d0 = 0.1\nfield.eps = 0.5").replace(
        LINEARIZE_TASK, f"task = reconstruct\ntask.n_seeds = 0\ntask.n_samples = 0\ntask.alpha_mode = {mode}")
    with pytest.raises(InadmissibleThickness):
        run_scenario(parse_scenario_text(text), out_dir=tmp_path)


def test_cli_validate_out_of_range_exit_2_names_the_key(tmp_path, capsys):
    scn = scn_path(tmp_path, ZONAL_LINEARIZE.replace("core.radius = 1.0", "core.radius = -1"))
    assert cli_main(["validate", scn]) == 2
    assert "'core.radius'" in capsys.readouterr().err


@pytest.mark.parametrize("field", [SPHERE_ZONAL.replace("sphere", "circle"),
                                   SPHERE_ZONAL.replace("zonal_legendre", "fourier_2d")],
                         ids=["zonal_on_circle", "fourier_on_sphere"])
def test_cli_validate_field_on_the_wrong_core_exit_2_names_the_key(tmp_path, capsys, field):
    assert cli_main(["validate", scn_path(tmp_path, ZONAL_LINEARIZE.replace(SPHERE_ZONAL, field))]) == 2
    assert "'field.kind'" in capsys.readouterr().err


@pytest.mark.parametrize("task", ["orbit", "linearize"])
def test_cli_circle_task_runs_from_its_default_point(tmp_path, task):
    scn = ZONAL_LINEARIZE.replace(SPHERE_ZONAL, CIRCLE_FOURIER).replace(LINEARIZE_TASK, f"task = {task}")
    assert cli_main(["run", scn_path(tmp_path, scn), "--out", str(tmp_path / "o")]) == 0
    assert (tmp_path / "o" / "summary.csv").exists()


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


def test_every_bundled_scenario_completes_quickly(tmp_path):
    for name in list_scenarios():
        start = time.monotonic()
        files = run_scenario(scn_path(tmp_path, load_bundled(name), name + ".scn"),
                             out_dir=tmp_path / name)
        elapsed = time.monotonic() - start
        assert elapsed < 60.0, f"{name} took {elapsed:.1f} s"
        assert (tmp_path / name / "manifest.txt").exists()
        # the returned list names every file of the output directory, once
        assert sorted(files) == sorted((tmp_path / name).iterdir())


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
