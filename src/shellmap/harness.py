"""Declarative scenario runner.

Scenario files are flat `key = value` text with dotted keys (blank lines
and # comments allowed), chosen so files diff cleanly and the parser is
trivial.  One scenario per run; every output is CSV plus a manifest, and
identical scenario + rng_seed produce byte-identical CSVs (data values at
17 significant digits, summary tables at 6 decimals).
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, field
from functools import partial
from importlib import resources
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (
    CLASSICAL_STEP_SCALE,
    MEASURED_STEP_SCALE,
    curvature_preconditioner,
    find_fixed_points,
    linearize_analytic,
    linearize_fd,
    preconditioner_series_residual,
    residual_sweep,
)
from .domain import RadialDomain, admissibility_check
from .dynamics import iterate_orbit
from .errors import ScenarioError, ShellmapError
from .fields import (
    ConstantField,
    Fourier2DField,
    ScaledField,
    SumField,
    ZonalLegendreField,
)
from .inverse import (
    BlackBoxMap,
    basin_decomposition,
    dynamical_equivalence_check,
    run_reconstruction,
    scaling_ambiguity_diagnostic,
)
from .surfaces import ConvexCore, SurfacePoint, fibonacci_chart_grid, frame_at

class TaskFailure(ShellmapError):
    """A numeric failure inside a named operation (CLI exit code 3)."""

    def __init__(self, operation: str, original: Exception):
        super().__init__(f"{operation}: {original}")
        self.operation = operation
        self.original = original


@dataclass
class Scenario:
    name: str
    core: dict
    field_spec: dict
    task: str
    params: dict
    rng_seed: int = 0
    output_dir: str | None = None


def parse_scenario_text(text: str) -> Scenario:
    """Parse the flat key = value format; raises ScenarioError with the
    offending line and column."""
    data = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ScenarioError(f"expected 'key = value', got {line!r}", line=lineno, column=1)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.split("#", 1)[0].strip()
        if not key:
            raise ScenarioError("empty key", line=lineno, column=1)
        if not value:
            raise ScenarioError(f"empty value for key {key!r}", line=lineno, column=raw.index("=") + 2)
        if key in data:
            raise ScenarioError(f"duplicate key {key!r}", line=lineno, column=1)
        data[key] = (value, lineno)

    def pop(key, default=None, required=False):
        if key in data:
            return data.pop(key)[0]
        if required:
            raise ScenarioError(f"missing required key {key!r}")
        return default

    name = pop("name", required=True)
    task = pop("task", required=True)
    if task not in TASKS:
        raise ScenarioError(f"unknown task {task!r}; expected one of {', '.join(TASKS)}")
    rng_seed = _convert(pop("rng_seed", "0"), int, "rng_seed")
    outdir = pop("output_dir")
    core = {k[len("core."):]: v for k, (v, _) in list(data.items()) if k.startswith("core.")}
    fieldspec = {k[len("field."):]: v for k, (v, _) in list(data.items()) if k.startswith("field.")}
    params = {k[len("task."):]: v for k, (v, _) in list(data.items()) if k.startswith("task.")}
    leftovers = [k for k in data if not k.startswith(("core.", "field.", "task."))]
    if leftovers:
        key = leftovers[0]
        raise ScenarioError(f"unknown key {key!r}", line=data[key][1], column=1)
    return Scenario(name=name, core=core, field_spec=fieldspec, task=task,
                    params=params, rng_seed=rng_seed, output_dir=outdir)


def parse_scenario(path) -> Scenario:
    return parse_scenario_text(Path(path).read_text())


_REQUIRED = object()


def _convert(text, convert, key: str):
    """convert(text); a value that does not convert raises ScenarioError
    naming the key."""
    try:
        return convert(text)
    except (ValueError, TypeError, OverflowError) as exc:
        raise ScenarioError(f"bad value {text!r} for key {key!r}: {exc}") from None


def _values(spec: dict, section: str):
    """The reader of one scenario section (core, field or task):
    get(key, default, convert=float) is convert(spec[key]), or
    convert(default) when the key is absent; a None default passes through
    and a missing key without default raises ScenarioError."""
    def get(key, default=_REQUIRED, convert=float):
        text = spec.get(key, default)
        if text is _REQUIRED:
            raise ScenarioError(f"missing required key '{section}.{key}'")
        return None if text is None else _convert(text, convert, f"{section}.{key}")
    return get


def build_core(spec: dict) -> ConvexCore:
    get = _values(spec, "core")
    kind = get("kind", None, str)
    if kind == "circle":
        return ConvexCore.circle(get("radius", 1.0))
    if kind == "sphere":
        return ConvexCore.sphere(get("radius", 1.0))
    if kind == "ellipsoid":
        return ConvexCore.ellipsoid(get("a"), get("b"), get("c"))
    raise ScenarioError(f"unknown core.kind {kind!r}")


def build_field(core: ConvexCore, spec: dict, eps_override: float | None = None):
    get = _values(spec, "field")
    kind = get("kind", None, str)
    d0 = get("d0", 0.5)
    eps = get("eps", 0.0) if eps_override is None else eps_override
    if kind == "constant":
        return ConstantField(core, d0)
    if kind == "zonal_legendre":
        axis = get("axis", "0,0,1", _parse_floats)
        return ZonalLegendreField(core, d0, eps, axis=axis)
    if kind == "fourier_2d":
        terms = get("terms", "2:0.01", _parse_terms)
        if eps_override is not None:
            terms = [(k, eps_override) for k, _ in terms]
        return Fourier2DField(core, d0, terms)
    if kind == "two_axis_legendre":
        axis2 = get("axis2", "1,1,1", _parse_floats)
        return SumField([
            ZonalLegendreField(core, d0, eps),
            ZonalLegendreField(core, 0.0, eps, axis=axis2),
        ])
    raise ScenarioError(f"unknown field.kind {kind!r}")


def _parse_terms(text):
    out = []
    for part in text.split(","):
        k, _, a = part.partition(":")
        out.append((int(k), float(a)))
    return out


def _parse_floats(text):
    return [float(x) for x in str(text).split(",")]


def _count(text):
    """An integer count that may be written as a float, e.g. 1e5."""
    return int(float(text))


def list_scenarios():
    """Names of the bundled scenario files."""
    root = resources.files("shellmap") / "scenarios"
    return sorted(p.name[:-4] for p in root.iterdir() if p.name.endswith(".scn"))


def load_bundled(name: str) -> str:
    root = resources.files("shellmap") / "scenarios"
    path = root / f"{name}.scn"
    if not path.is_file():
        raise ScenarioError(f"no bundled scenario named {name!r}")
    return path.read_text()


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------

class _Out:
    def __init__(self, directory: Path):
        self.dir = directory
        self.dir.mkdir(parents=True, exist_ok=True)
        self.files = []

    def csv(self, name, header, rows):
        path = self.dir / name
        with open(path, "w", newline="\n") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(header)
            w.writerows(rows)
        self.files.append(path)
        return path

    def summary(self, pairs):
        rows = []
        for k, v in pairs:
            if isinstance(v, float):
                rows.append([k, f"{v:.6f}"])
            else:
                rows.append([k, v])
        return self.csv("summary.csv", ["quantity", "value"], rows)


def _g17(x) -> str:
    return f"{float(x):.17g}"


def _sample_charts(core: ConvexCore, n: int, rng) -> np.ndarray:
    """Random sample charts: for N=3 away from the chart poles and the
    equator, for N=2 at least 0.15 from theta = 0; critical points of the
    field are not avoided."""
    if core.dim == 2:
        return rng.uniform(0.15, 2 * np.pi - 0.15, size=n)[:, None]
    theta = rng.uniform(0.35, np.pi / 2 - 0.25, size=n)
    phi = rng.uniform(0.0, 2 * np.pi, size=n)
    return np.stack([theta, phi], axis=-1)


def _named_point(core: ConvexCore, spec: str) -> SurfacePoint:
    if spec == "pole":
        return SurfacePoint.from_chart(core, 0.0, 0.0) if core.dim == 3 else SurfacePoint.from_chart(core, 0.0)
    if spec == "equator":
        if core.dim != 3:
            raise ScenarioError("'equator' needs an N=3 core")
        return SurfacePoint.from_chart(core, np.pi / 2, 0.0)
    vals = _parse_floats(spec)
    return SurfacePoint.from_chart(core, *vals)


# ---------------------------------------------------------------------------
# task implementations
# ---------------------------------------------------------------------------

def _task_orbit(scn, dom, out, rng):
    get = _values(scn.params, "task")
    seed_pt = get("point", "0.785398163,0", partial(_named_point, dom.core))
    rec = iterate_orbit(dom, seed_pt, max_iters=get("max_iters", 1e5, _count), tol=get("tol", 1e-10))
    path = out.dir / "orbit.csv"
    rec.to_csv(path)
    out.files.append(path)
    if rec.status == "error":
        raise ShellmapError(f"{rec.error_kind} after {max(len(rec.points) - 1, 0)} steps")
    out.summary([
        ("status", rec.status),
        ("steps", len(rec.points) - 1),
        ("final_thickness", float(rec.thickness_values[-1])),
        ("limit_grad_norm", float(rec.limit_grad_norm) if rec.limit_grad_norm is not None else "n/a"),
    ])


def _task_fixed_points(scn, dom, out, rng):
    get = _values(scn.params, "task")
    scan = find_fixed_points(dom, n_seeds=get("n_seeds", 400, int), tol=get("tol", 1e-10))
    rows = []
    for pt, res, gn in zip(scan.points, scan.residuals, scan.grad_norms):
        amb = list(pt.ambient) + [0.0] * (3 - dom.core.dim)
        phi = pt.chart[1] if dom.core.dim == 3 else 0.0
        rows.append([_g17(pt.theta), _g17(phi)] + [_g17(v) for v in amb] + [_g17(res), _g17(gn)])
    out.csv("fixed_points.csv", ["theta", "phi", "x", "y", "z", "residual", "grad_norm"], rows)
    out.summary([
        ("n_clusters", len(scan.points)),
        ("continuum_of_fixed_points", str(scan.continuum)),
        ("unresolved_seeds", scan.unresolved),
    ])


def _task_linearize(scn, dom, out, rng):
    get = _values(scn.params, "task")
    pt = get("point", "equator", partial(_named_point, dom.core))
    h = get("h", 1e-5)
    rep_fd = linearize_fd(dom, pt, h=h)
    rep_cl = linearize_analytic(dom, pt, step_scale=CLASSICAL_STEP_SCALE)
    rep_ms = linearize_analytic(dom, pt, step_scale=MEASURED_STEP_SCALE)
    rows = []
    for tag, rep in (("finite_difference", rep_fd), ("analytic_classical", rep_cl), ("analytic_measured", rep_ms)):
        eig_cols = []
        for z in rep.eigenvalues:
            eig_cols += [f"{z.real:.6f}", f"{z.imag:.6f}"]
        rows.append(
            [tag]
            + eig_cols
            + [rep.stability, "" if rep.morse_index is None else rep.morse_index]
            + [_g17(v) for v in rep.DF.ravel()]
        )
    k = rep_fd.DF.shape[0]
    head = ["method"]
    for i in range(k):
        head += [f"eig{i+1}_re", f"eig{i+1}_im"]
    head += ["stability", "morse_index"] + [f"DF{i}{j}" for i in range(k) for j in range(k)]
    out.csv("linearize.csv", head, rows)
    out.summary([
        ("point_theta", pt.theta),
        ("fd_eig_max", float(np.max(rep_fd.eigenvalues.real))),
        ("fd_eig_min", float(np.min(rep_fd.eigenvalues.real))),
        ("fd_stability", rep_fd.stability),
    ])


def _task_expansion_sweep(scn, dom, out, rng):
    get = _values(scn.params, "task")
    kind = get("kind", "first_order", str)
    core = dom.core
    if kind == "series":
        d_list = get("d_list", "1e-1,3e-2,1e-2,3e-3", _parse_floats)
        chart = get("chart", "1.0,0.7", _parse_floats)[: core.dim - 1]
        res, slope = preconditioner_series_residual(core, chart, d_list)
        out.csv("sweep.csv", ["d", "residual"], [[_g17(d), _g17(r)] for d, r in zip(d_list, res)])
        out.summary([("kind", kind), ("fitted_slope", float(slope))])
        return
    eps_list = get("eps_list", "1e-1,3e-2,1e-2,3e-3,1e-3", _parse_floats)
    n_samples = get("n_samples", 10, int)
    step_scale = get("step_scale", CLASSICAL_STEP_SCALE)
    charts = _sample_charts(core, n_samples, rng)
    report = residual_sweep(core, lambda e: build_field(core, scn.field_spec, eps_override=e),
                            eps_list, charts, step_scale=step_scale, kind=kind)
    rows = [[_g17(e), _g17(r), _g17(t)]
            for e, r, t in zip(report.epsilons, report.residual_norms, report.transverse_residual_norms)]
    out.csv("sweep.csv", ["eps", "residual", "transverse_residual"], rows)
    out.summary([
        ("kind", kind),
        ("step_scale", step_scale),
        ("fitted_slope", float(report.fitted_slope)),
        ("transverse_slope", float(report.transverse_slope)),
        ("min_per_sample_slope", float(np.min(report.per_sample_slopes))),
        ("max_per_sample_slope", float(np.max(report.per_sample_slopes))),
    ])


def _task_reconstruct(scn, dom, out, rng):
    get = _values(scn.params, "task")
    F = BlackBoxMap.wrap_domain(dom, name=scn.name)
    n_seeds = get("n_seeds", 400, int)
    n_samples = get("n_samples", 50, int)
    h = get("h", 1e-5)
    samples = [SurfacePoint.from_chart(dom.core, ch) for ch in _sample_charts(dom.core, n_samples, rng)]
    mode = get("alpha_mode", "known_measured", str)
    if mode in ("known_classical", "known_measured"):
        probe = get("alpha_point", "equator" if dom.core.dim == 3 else "0", partial(_named_point, dom.core))
        frame = frame_at(dom.core, probe)
        A = curvature_preconditioner(dom, probe, frame)
        a = float(np.trace(A)) / A.shape[0]
        alphas = [a if mode == "known_classical" else -0.5 * a]
    elif mode == "assumed":
        alphas = [get("alpha", 1.0)]
    elif mode == "sweep":
        base = get("alpha", 1.0)
        alphas = [base * m for m in get("alpha_factors", "0.25,0.5,1,2,4", _parse_floats)]
    else:
        raise ScenarioError(f"unknown alpha_mode {mode!r}")
    report = run_reconstruction(F, n_seeds, samples, alphas, alpha_mode=mode, h=h)
    path = out.dir / "reconstruction.csv"
    report.to_csv(path)
    out.files.append(path)
    out.summary([
        ("n_fixed_points", len(report.fixed_points)),
        ("n_descent_samples", len(report.descent_samples)),
        ("n_composites", len(report.composite_ops)),
        ("n_hessians", len(report.hessians_isotropic)),
        ("alpha_mode", mode),
        ("skipped_samples", report.skipped_samples),
    ])


def _task_scaling(scn, dom, out, rng):
    get = _values(scn.params, "task")
    lam = get("lambda", 2.0)
    n_samples = get("n_samples", 100, int)
    dom2 = RadialDomain(dom.core, ScaledField(lam, dom.field))
    F1 = BlackBoxMap.wrap_domain(dom, "base")
    F2 = BlackBoxMap.wrap_domain(dom2, "scaled")
    samples = [SurfacePoint.from_chart(dom.core, ch) for ch in _sample_charts(dom.core, n_samples, rng)]
    diag = scaling_ambiguity_diagnostic(F1, F2, samples)
    rows = [[_g17(c), _g17(r)] for c, r in zip(diag.cosines, diag.norm_ratios)]
    out.csv("scaling.csv", ["cosine", "norm_ratio"], rows)
    if get("equivalence", "true", str).lower() == "true":
        seeds = [SurfacePoint.from_chart(dom.core, ch)
                 for ch in fibonacci_chart_grid(dom.core, get("equivalence_seeds", 120, int))]
        verdict = dynamical_equivalence_check(
            F1, F2, seeds,
            n_probe=get("equivalence_probe", 200, int),
            iter_tol=get("equivalence_tol", 1e-7),
            max_iters=get("equivalence_max_iters", 2e5, _count),
        )
        eq = verdict.verdict
    else:
        eq = "skipped"
    out.summary([
        ("lambda", lam),
        ("mean_cosine", diag.mean_cosine),
        ("ratio_mean", diag.ratio_mean),
        ("ratio_median", diag.ratio_median),
        ("max_norm_difference", diag.max_norm_difference),
        ("equivalence", eq),
    ])


def _task_basins(scn, dom, out, rng):
    get = _values(scn.params, "task")
    F = BlackBoxMap.wrap_domain(dom, name=scn.name)
    seeds = [SurfacePoint.from_chart(dom.core, ch)
             for ch in fibonacci_chart_grid(dom.core, get("n_seeds", 500, int))]
    labeling = basin_decomposition(
        F, seeds,
        tol=get("tol", 1e-8),
        max_iters=get("max_iters", 2e5, _count),
        cluster_radius=get("cluster_radius", None),
    )
    path = out.dir / "basins.csv"
    labeling.to_csv(path)
    out.files.append(path)
    counts = {int(l): int(np.sum(labeling.labels == l)) for l in sorted(set(labeling.labels))}
    out.summary([
        ("n_clusters", len(labeling.cluster_reps)),
        ("unresolved", counts.get(-1, 0)),
        ("continuum_of_fixed_points", str(labeling.continuum)),
        ("largest_basin", max((v for k, v in counts.items() if k >= 0), default=0)),
    ])


def _task_admissibility(scn, dom, out, rng):
    get = _values(scn.params, "task")
    report = admissibility_check(dom, grid_size=get("grid", 4096, int))
    path = out.dir / "admissibility.csv"
    report.to_csv(path)
    out.files.append(path)
    out.summary([
        ("min_d", report.min_d),
        ("min_sv_dphi", report.min_sv),
        ("normal_ray_hit_rate", report.hit_rate),
        ("admissible", str(report.admissible)),
    ])


TASKS = {
    "orbit": _task_orbit,
    "fixed_points": _task_fixed_points,
    "linearize": _task_linearize,
    "expansion_sweep": _task_expansion_sweep,
    "reconstruct": _task_reconstruct,
    "scaling": _task_scaling,
    "basins": _task_basins,
    "admissibility": _task_admissibility,
}


def run_scenario(scenario: Scenario | str, out_dir=None, seed=None):
    """Execute a scenario, writing CSV reports plus a run manifest.

    Numeric failures are re-raised as TaskFailure carrying the operation
    name.  Returns the list of written files.
    """
    if isinstance(scenario, (str, Path)):
        scenario = parse_scenario(scenario)
    if seed is not None:
        scenario.rng_seed = int(seed)
    rng = np.random.default_rng(scenario.rng_seed)
    directory = Path(out_dir or scenario.output_dir or Path("runs") / scenario.name)
    out = _Out(directory)
    start = time.monotonic()
    core = build_core(scenario.core)
    fld = build_field(core, scenario.field_spec)
    dom = RadialDomain(core, fld)
    try:
        TASKS[scenario.task](scenario, dom, out, rng)
    except ScenarioError:
        raise
    except ShellmapError as exc:
        raise TaskFailure(scenario.task, exc) from exc
    elapsed = time.monotonic() - start
    manifest = out.dir / "manifest.txt"
    with open(manifest, "w", newline="\n") as fh:
        fh.write(f"name = {scenario.name}\n")
        fh.write(f"task = {scenario.task}\n")
        fh.write(f"rng_seed = {scenario.rng_seed}\n")
        for section, spec in (("core", scenario.core), ("field", scenario.field_spec), ("task", scenario.params)):
            for k in sorted(spec):
                fh.write(f"{section}.{k} = {spec[k]}\n")
        fh.write(f"tool_version = {__version__}\n")
        fh.write(f"wall_time_s = {elapsed:.3f}\n")
    out.files.append(manifest)
    return out.files
