"""The benchmark's entry points run on the package as it stands.

bench/workloads.py reaches shellmap by module path (for example
inverse.BlackBoxMap, analysis.linearize_fd and harness.run_scenario), so a
moved or renamed name breaks the benchmark.  One pass of each of the three
gated workloads must complete with no failed operation, and the traced
run's kernel sweep must find every entry point it times.  Every name the
package exports, and every public method or property of an exported class,
must have a reader in the package or the benchmark, and every name a
package or test module imports must be referred to in it.  SurfacePoint
and TangentFrame are named only by the scalar views the benchmark calls.
Outside surfaces no function reads the quadric's axes or names a stage of
the return leg's component-row layout.  In dynamics only the orbit engine
has a while loop, and only the kernel's row stage calls the return leg,
whose stages call neither the general ray solve nor np.where.
No loop in analysis, inverse or harness runs once per cluster label.
bench/reference.json is read and never written; the scenarios write their
reports under the test's temporary directory.
"""

import ast
import importlib
import importlib.util
from pathlib import Path
from types import FunctionType

import pytest

import shellmap

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
PACKAGE = ROOT / "src" / "shellmap"


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


def _referenced(path: Path | ast.AST, strings: bool, names: bool = True) -> set:
    """The names that code in path (or a parsed node) refers to: ast.Attribute
    attrs, with names ast.Name ids too, and with strings its string constants."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text()) if isinstance(path, Path) else path):
        if names and isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
    return found


def _readers(names: bool) -> set:
    """What the package (outside __init__.py) and the benchmark refer to, as
    _referenced; bench/run.py looks entry points up by string, and
    bench/tracer.py's strings are names it tolerates missing, so they do not count."""
    used = set()
    for path in PACKAGE.glob("*.py"):
        if path.name != "__init__.py":
            used |= _referenced(path, strings=False, names=names)
    for path in BENCH.glob("*.py"):
        used |= _referenced(path, strings=path.name != "tracer.py", names=names)
    return used


def _exported() -> set:
    init = ast.parse((PACKAGE / "__init__.py").read_text())
    return {alias.asname or alias.name for node in init.body if isinstance(node, ast.ImportFrom)
            for alias in node.names}


def test_every_export_has_a_caller():
    unused = sorted(_exported() - _readers(names=True))
    assert not unused, f"exported with no caller in src/shellmap or bench: {unused}"


def test_every_public_method_has_a_reader():
    # a method or property is read as an attribute, so a bare name of the same
    # spelling (a local phi, say) does not count
    members = set()
    for name in _exported():
        cls = getattr(shellmap, name)
        if isinstance(cls, type):
            members |= {m for m, v in vars(cls).items() if not m.startswith("_")
                        and isinstance(v, (FunctionType, property, staticmethod, classmethod))}
    unread = sorted(members - _readers(names=False))
    assert not unread, f"public methods with no reader in src/shellmap or bench: {unread}"


def _imported(path: Path) -> set:
    """The names that the imports in path bind, __future__ imports aside."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names |= {alias.asname or alias.name.partition(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names |= {alias.asname or alias.name for alias in node.names}
    return names


def test_every_import_is_used():
    # __init__.py imports to export, which test_every_export_has_a_caller checks
    unused = {}
    for path in sorted([*PACKAGE.glob("*.py"), *(ROOT / "tests").glob("*.py")]):
        if path.name != "__init__.py":
            names = sorted(_imported(path) - _referenced(path, strings=False))
            if names:
                unused[f"{path.parent.name}/{path.name}"] = names
    assert not unused, f"imported and never referred to: {unused}"


# the scalar views bench/ calls with a SurfacePoint; everything else takes (n, N) rows
POINT_VIEWS = {"return_map", "retract", "frame_at", "linearize_fd", "linearize_analytic",
               "estimate_composite_operator"}
POINT_CLASSES = {"SurfacePoint", "TangentFrame"}


def test_only_the_bench_views_name_a_surface_point():
    # annotations count: `from __future__ import annotations` leaves them in the tree
    naming = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef) and node.name not in POINT_CLASSES:
                defs = [(f"{node.name}.{f.name}", f) for f in node.body if isinstance(f, ast.FunctionDef)]
            elif isinstance(node, ast.FunctionDef) and node.name not in POINT_VIEWS:
                defs = [(node.name, node)]
            else:
                continue
            naming += [f"{path.stem}.{name}" for name, f in defs
                       if _referenced(f, strings=True) & POINT_CLASSES]
    assert not naming, f"functions that name SurfacePoint or TangentFrame: {naming}"


# outside surfaces the tangent space comes from ConvexCore.normal, tangent_part and the
# frames, and the return leg from its (n, N)-row entry points: no function reads
# M = diag(1/s_i^2) or names _component_dot or a component-row stage (a private *_cols)
AXES_READERS = set()
AXES_NAMES = {"inv_axes_sq", "axes_sq", "implicit_grad", "_component_dot"}


def _reads_the_axes(names: set) -> bool:
    return bool(names & AXES_NAMES) or any(n.startswith("_") and n.endswith("_cols") for n in names)


def test_only_surfaces_reads_the_quadric_axes():
    reading = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name in ("__init__.py", "surfaces.py"):
            continue
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef):
                defs = [(f"{node.name}.{f.name}", f) for f in node.body if isinstance(f, ast.FunctionDef)]
            elif isinstance(node, ast.FunctionDef):
                defs = [(node.name, node)]
            else:
                defs = [("<module>", node)]
            reading += [f"{path.stem}.{name}" for name, f in defs
                        if _reads_the_axes(_referenced(f, strings=True))]
    extra = sorted(set(reading) - AXES_READERS)
    assert not extra, f"functions outside surfaces that read the axes or a component-row stage: {extra}"


def test_only_the_orbit_engine_has_a_while_loop():
    # iterate_orbit, iterate_batch and settle_batch are configurations of one
    # orbit loop, dynamics._orbits; a while loop elsewhere in dynamics is a
    # second copy of its working rows and stop test
    tree = ast.parse((PACKAGE / "dynamics.py").read_text())
    looping = sorted(f.name for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)
                     and any(isinstance(node, ast.While) for node in ast.walk(f)))
    assert looping == ["_orbits"], f"functions in dynamics with a while loop: {looping}"


def _per_label_iteration(node: ast.AST) -> bool:
    """Whether the iterable node runs over range(<labels>.max() + 1) or over
    set(<labels>), anywhere inside it (sorted(set(labels)) included)."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name) and sub.func.id == "set":
            return True
        if (isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name) and sub.func.id == "range"
                and any(isinstance(arg, ast.BinOp) and isinstance(arg.op, ast.Add)
                        and isinstance(arg.left, ast.Call) and isinstance(arg.left.func, ast.Attribute)
                        and arg.left.func.attr == "max" for arg in sub.args)):
            return True
    return False


def test_no_pass_per_label_in_the_clustering_consumers():
    # per-cluster results are one sort or one np.unique over the labels; a
    # loop or comprehension over range(labels.max() + 1) or set(labels) is a
    # pass over every row per label
    looping = []
    for name in ("analysis", "inverse", "harness"):
        tree = ast.parse((PACKAGE / f"{name}.py").read_text())
        looping += [f"{name}: {ast.unparse(node.iter)}" for node in ast.walk(tree)
                    if isinstance(node, (ast.For, ast.comprehension)) and _per_label_iteration(node.iter)]
    assert not looping, f"loops over every label: {looping}"


def test_only_the_row_stage_calls_the_return_leg():
    # return_map_batch and the residual sweeps reach the return leg through one
    # row stage, dynamics._return_map_rows, which holds the d > 0 check, the
    # blocks and the miss count; a second caller is a second kernel path
    callers = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        callers += [f"{path.stem}.{f.name}" for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)
                    and any(isinstance(node, ast.Call) and "_return_leg_rows" in _referenced(node.func, False)
                            for node in ast.walk(f))]
    assert callers == ["dynamics._return_map_rows"], f"functions that call the return leg: {callers}"


def test_the_return_leg_takes_no_case_analysis():
    # the leg's rays start outside the core, so its hit takes the near root in
    # closed form; the general solve's root choice (_ray_solve_cols) or a select
    # (np.where) on the kernel path would be the case analysis back
    tree = ast.parse((PACKAGE / "surfaces.py").read_text())
    defs = {f.name: f for f in tree.body if isinstance(f, ast.FunctionDef)}
    reached, todo = set(), ["_return_leg_rows"]
    while todo:
        name = todo.pop()
        reached.add(name)
        todo += [n for n in _referenced(defs[name], False) & defs.keys() if n not in reached]
    assert {"_near_hit_cols", "_outer_normals_cols", "_resolvent_cols"} <= reached
    offending = sorted(f"{name}: {ast.unparse(node.func)}" for name in reached for node in ast.walk(defs[name])
                       if isinstance(node, ast.Call) and _referenced(node.func, False) & {"_ray_solve_cols", "where"})
    assert not offending, f"case analysis on the return leg: {offending}"
