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
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .analysis import (
    CLASSICAL_STEP_SCALE,
    MEASURED_STEP_SCALE,
    find_fixed_points,
    linearize,
    preconditioner_series_residual,
    residual_sweep,
    step_operator_batch,
)
from .domain import RadialDomain, admissibility_check
from .dynamics import BlackBoxMap, iterate_orbit
from .errors import InadmissibleThickness, ScenarioError, ShellmapError
from .fields import (
    ConstantField,
    Fourier2DField,
    ScaledField,
    SumField,
    ZonalLegendreField,
)
from .inverse import (
    basin_decomposition,
    dynamical_equivalence_check,
    run_reconstruction,
    scaling_ambiguity_diagnostic,
)
from .surfaces import ConvexCore, fibonacci_chart_grid, frames_batch

@dataclass
class Scenario:
    """A parsed scenario: its top-level keys read, its sections as text, each key's line."""
    name: str
    core: dict
    field_spec: dict
    task: str
    params: dict
    rng_seed: int = 0
    output_dir: str | None = None
    lines: dict = field(default_factory=dict)


def parse_scenario_text(text: str) -> Scenario:
    """Parse the flat key = value format and read its top-level keys;
    raises ScenarioError with the offending line and column."""
    sections, lines = {"": {}, "core": {}, "field": {}, "task": {}}, {}
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
        if key in lines:
            raise ScenarioError(f"duplicate key {key!r}", line=lineno, column=1)
        lines[key] = lineno
        head, dot, rest = key.partition(".")
        if dot and head in ("core", "field", "task"):
            sections[head][rest] = value
        else:
            sections[""][key] = value
    top = _read("", sections[""], SCENARIO_KEYS, lines, {})
    return Scenario(**top, core=sections["core"], field_spec=sections["field"], params=sections["task"],
                    lines=lines)


def parse_scenario(path) -> Scenario:
    """parse_scenario_text on the file at path, read as UTF-8; a file that
    cannot be read or decoded raises ScenarioError naming the path."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError(f"cannot read {str(path)!r}: {getattr(exc, 'strerror', None) or exc}") from None
    return parse_scenario_text(text)


_REQUIRED = object()


class _Given(NamedTuple):
    """A converter that depends on the core and on the keys declared before it."""
    make: Callable  # (core, values) -> converter


def _convert(text, convert, key: str, line: int = 0):
    """convert(text), or a ScenarioError naming the key and, when known, its line."""
    try:
        return convert(text)
    except (ValueError, TypeError, OverflowError) as exc:
        raise ScenarioError(f"bad value {text!r} for key {key!r}: {exc}", line=line, column=1) from None


def _read(prefix: str, spec: dict, keys: dict, lines: dict, texts: dict, core=None) -> dict:
    """The values of a section (prefix '', 'core.', 'field.' or 'task.'), its text spec read in order
    against keys, name -> (default text, by core dimension if a dict, None if unset; converter or
    _Given); texts gains each value's text.  A bad, missing or unknown key raises ScenarioError."""
    values = {}
    for key, (default, convert) in keys.items():
        name, text = prefix + key, spec.get(key, default)
        if isinstance(text, dict):
            text = text[core.dim]
        if text is _REQUIRED:
            raise ScenarioError(f"missing required key {name!r}")
        if isinstance(convert, _Given):
            convert = convert.make(core, values)
        values[key] = None if text is None else _convert(text, convert, name, lines.get(name, 0))
        if text is not None:
            texts[name] = text
    for key in spec:
        if key not in keys:
            raise ScenarioError(f"unknown key {prefix + key!r}", line=lines.get(prefix + key, 0), column=1)
    return values


def _parse_terms(text):
    out = []
    for part in text.split(","):
        k, _, a = part.partition(":")
        out.append((int(k), _real(a)))
    return out


def _parse_floats(text):
    return [float(x) for x in str(text).split(",")]


def _checked(convert, ok, need: str):
    """The converter convert, then ValueError(need) unless ok(value)."""
    def checked(text):
        value = convert(text)
        if not ok(value):
            raise ValueError(need)
        return value
    return checked


def _one_of(names):
    return _checked(str, names.__contains__, f"expected one of {', '.join(names)}")


_real = _checked(float, np.isfinite, "must be finite")
_positive = _checked(float, lambda x: 0 < x < np.inf, "must be positive and finite")
_positive_int = _checked(int, lambda n: n > 0, "must be positive")
_nonnegative_int = _checked(int, lambda n: n >= 0, "must be nonnegative")
# an integer count that may be written as a float, e.g. 1e5
_count = _checked(lambda text: int(float(text)), lambda n: n >= 0, "must be nonnegative")
# a reconstruction gain alpha divides, so it is finite and nonzero
_gain = _checked(float, lambda a: a != 0 and np.isfinite(a), "must be finite and nonzero")
_alpha_mode = _one_of(("known_classical", "known_measured", "assumed", "sweep"))
_flag = _checked(str.lower, ("true", "false").__contains__, "expected true or false")
_sweep_kind = _one_of(("series", "first_order", "second_order", "normal"))
_axis = _checked(_parse_floats, lambda v: len(v) == 3 and 0 < np.linalg.norm(v) < np.inf,
                 "expected three finite numbers, not all zero")
# a slope is fitted through the sweep, so it needs two scales
_scales = _checked(_parse_floats, lambda v: len(v) >= 2 and all(0 < x < np.inf for x in v),
                   "expected at least two positive finite values")
# a named point (pole, equator) or a chart on the core
_point = _Given(lambda core, _: partial(_named_point, core))
_chart = _Given(lambda core, _: _checked(
    _parse_floats, lambda v: len(v) == core.dim - 1 and np.all(np.isfinite(v)),
    f"expected {core.dim - 1} finite values"))
# the FD step, in units of surface_scale(): positive and at most 1e-2, beyond
# which central differences cannot resolve DF
_fd_step = _checked(float, lambda h: 0 < h <= 1e-2, "must be positive and at most 0.01")
_alpha_factors = _Given(lambda core, v: lambda text: [_gain(v["alpha"] * m) for m in _parse_floats(text)])

CORES = {  # kind -> (constructor, keys)
    "circle": (ConvexCore.circle, {"radius": ("1.0", _positive)}),
    "sphere": (ConvexCore.sphere, {"radius": ("1.0", _positive)}),
    "ellipsoid": (ConvexCore.ellipsoid, {k: (_REQUIRED, _positive) for k in "abc"}),
}


def _fourier_2d(core, d0, eps, terms):
    # eps, when set, is the amplitude of every term
    return Fourier2DField(core, d0, terms if eps is None else [(k, eps) for k, _ in terms])


def _two_axis_legendre(core, d0, eps, axis2):
    return SumField([ZonalLegendreField(core, d0, eps), ZonalLegendreField(core, 0.0, eps, axis=axis2)])


_D0, _EPS = ("0.5", _real), ("0.0", _real)
FIELDS = {  # kind -> (core dimension, or None for any, constructor, keys)
    "constant": (None, ConstantField, {"d0": _D0}),
    "zonal_legendre": (3, ZonalLegendreField, {"d0": _D0, "eps": _EPS, "axis": ("0,0,1", _axis)}),
    "fourier_2d": (2, _fourier_2d, {"d0": _D0, "eps": (None, _real), "terms": ("2:0.01", _parse_terms)}),
    "two_axis_legendre": (3, _two_axis_legendre, {"d0": _D0, "eps": _EPS, "axis2": ("1,1,1", _axis)}),
}
_field_kind = _Given(lambda core, _: _checked(
    _one_of(FIELDS), lambda kind: FIELDS[kind][0] in (None, core.dim), f"is not defined on an N={core.dim} core"))


def build_core(spec: dict, lines: dict | None = None, texts: dict | None = None) -> ConvexCore:
    """The core of a core section; texts, when given, gains the text of its keys."""
    make, keys = CORES.get(spec.get("kind"), (None, {}))
    kind = {"kind": (_REQUIRED, _one_of(CORES))}
    values = _read("core.", spec, {**kind, **keys}, lines or {}, {} if texts is None else texts)
    return make(**{k: values[k] for k in keys})


class Resolved(NamedTuple):
    """A scenario read against its declared keys."""
    dom: RadialDomain
    values: dict  # the task's
    field_at: Callable  # eps -> the field with field.eps = eps
    texts: dict  # the text of every key read, defaults included


def resolve(scn: Scenario) -> Resolved:
    """Read the core, field and task sections of scn against their declared
    keys, before any computation."""
    texts = {}
    core = build_core(scn.core, scn.lines, texts)
    _, make, keys = FIELDS.get(scn.field_spec.get("kind"), (None, None, {}))
    fv = _read("field.", scn.field_spec, {"kind": (_REQUIRED, _field_kind), **keys}, scn.lines, texts, core)
    def field_at(eps=fv.get("eps")):
        return make(core, **{k: eps if k == "eps" else fv[k] for k in keys})
    values = _read("task.", scn.params, TASKS[scn.task][1], scn.lines, texts, core)
    if scn.task == "expansion_sweep" and values["kind"] != "series" and "eps" not in keys:
        raise ScenarioError(f"bad value {fv['kind']!r} for key 'field.kind': a {values['kind']} sweep "
                            "varies the field's eps, and this kind has none",
                            line=scn.lines.get("field.kind", 0), column=1)
    return Resolved(RadialDomain(core, field_at()), values, field_at, texts)


def list_scenarios():
    """Names of the bundled scenario files."""
    root = resources.files("shellmap") / "scenarios"
    return sorted(p.name[:-4] for p in root.iterdir() if p.name.endswith(".scn"))


def load_bundled(name: str) -> str:
    root = resources.files("shellmap") / "scenarios"
    path = root / f"{name}.scn"
    if not path.is_file():
        raise ScenarioError(f"no bundled scenario named {name!r}")
    return path.read_text(encoding="utf-8")


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------

class _Out:
    """The one writer of a run's files; each file it opens joins self.files.
    The directory is made once, when the first file opens, so a run that
    fails before it writes leaves none."""

    def __init__(self, directory: Path):
        self.dir = directory
        self.files = []

    def _open(self, name):
        if not self.files:
            self.dir.mkdir(parents=True, exist_ok=True)
        path = self.dir / name
        self.files.append(path)
        return open(path, "w", newline="\n")

    def table(self, name, header, *columns):
        """A numeric table, one column per argument: integer and boolean
        columns are written with %d, the rest with %.17g, which reads back
        as the same float.  No rows leave the header line alone."""
        columns = [np.asarray(c) for c in columns]
        row = ",".join("%d" if c.dtype.kind in "biu" else "%.17g" for c in columns) + "\n"
        with self._open(name) as fh:
            fh.write(",".join(header) + "\n")
            # Python numbers format faster than numpy scalars, to the same text
            fh.writelines(row % r for r in zip(*(c.tolist() for c in columns)))

    def csv(self, name, header, rows):
        """A table of text cells, quoted where csv needs it."""
        with self._open(name) as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(header)
            w.writerows(rows)

    def summary(self, pairs):
        rows = []
        for k, v in pairs:
            if isinstance(v, float):
                rows.append([k, f"{v:.6f}"])
            else:
                rows.append([k, v])
        self.csv("summary.csv", ["quantity", "value"], rows)

    def manifest(self, pairs):
        with self._open("manifest.txt") as fh:
            fh.writelines(f"{k} = {v}\n" for k, v in pairs)


def _g17(x) -> str:
    return f"{float(x):.17g}"


def _theta_phi(core: ConvexCore, charts):
    """The theta and phi columns of n >= 0 chart rows; phi = 0 for N = 2."""
    C = np.reshape(charts, (-1, core.dim - 1))
    return C[:, 0], (C[:, 1] if core.dim == 3 else np.zeros(len(C)))


def _xyz(core: ConvexCore, X):
    """The x, y and z columns of n >= 0 ambient rows; z = 0 for N = 2."""
    X = np.reshape(X, (-1, core.dim))
    return X[:, 0], X[:, 1], (X[:, 2] if core.dim == 3 else np.zeros(len(X)))


def _sample_charts(core: ConvexCore, n: int, rng) -> np.ndarray:
    """Random sample charts: for N=3 away from the chart poles and the
    equator, for N=2 at least 0.15 from theta = 0; critical points of the
    field are not avoided."""
    if core.dim == 2:
        return rng.uniform(0.15, 2 * np.pi - 0.15, size=n)[:, None]
    theta = rng.uniform(0.35, np.pi / 2 - 0.25, size=n)
    phi = rng.uniform(0.0, 2 * np.pi, size=n)
    return np.stack([theta, phi], axis=-1)


def _named_point(core: ConvexCore, spec: str) -> np.ndarray:
    """The chart row, (N-1,), of a named point (pole, equator) or of a chart written out."""
    if spec == "pole":
        return np.zeros(core.dim - 1)
    if spec == "equator":
        if core.dim != 3:
            raise ValueError("'equator' needs an N=3 core")
        return np.array([np.pi / 2, 0.0])
    chart = np.array([_real(x) for x in spec.split(",")])
    if chart.shape != (core.dim - 1,):
        raise ValueError(f"chart must have {core.dim - 1} parameters")
    return chart


# ---------------------------------------------------------------------------
# task implementations
# ---------------------------------------------------------------------------

TASKS = {}  # name -> (function of (Resolved, _Out, rng), declared keys)


def _task(name: str, keys: dict):
    def register(fn):
        TASKS[name] = (fn, keys)
        return fn
    return register


@_task("orbit", {"point": ({2: "0.785398163", 3: "0.785398163,0"}, _point), "max_iters": ("1e5", _count),
                 "tol": ("1e-10", _positive)})
def _task_orbit(r, out, rng):
    v, core = r.values, r.dom.core
    rec = iterate_orbit(r.dom, core.ambient_from_chart(v["point"]), max_iters=v["max_iters"], tol=v["tol"])
    n = len(rec.points)
    disps = np.concatenate([rec.displacement_norms, np.zeros(n - len(rec.displacement_norms))])
    charts = core.chart_from_ambient(rec.points)
    charts[:1] = v["point"]  # the seed's chart as drawn
    out.table("orbit.csv", ["step", "theta", "phi", "x", "y", "z", "d", "displacement"],
              np.arange(n), *_theta_phi(core, charts), *_xyz(core, rec.points), rec.thickness_values, disps)
    if rec.status == "error":
        raise ShellmapError(f"{rec.error_kind} after {max(n - 1, 0)} steps")
    out.summary([
        ("status", rec.status),
        ("steps", n - 1),
        ("final_thickness", float(rec.thickness_values[-1])),
        ("limit_grad_norm", float(rec.limit_grad_norm) if rec.limit_grad_norm is not None else "n/a"),
    ])


@_task("fixed_points", {"n_seeds": ("400", _nonnegative_int), "tol": ("1e-10", _positive)})
def _task_fixed_points(r, out, rng):
    scan = find_fixed_points(r.dom, n_seeds=r.values["n_seeds"], tol=r.values["tol"])
    core = r.dom.core
    out.table("fixed_points.csv", ["theta", "phi", "x", "y", "z", "residual", "grad_norm"],
              *_theta_phi(core, core.chart_from_ambient(scan.points)), *_xyz(core, scan.points),
              scan.residuals, scan.grad_norms)
    out.summary([
        ("n_clusters", len(scan.points)),
        ("continuum_of_fixed_points", str(scan.continuum)),
        ("unresolved_seeds", scan.unresolved),
    ])


@_task("linearize", {"point": ({2: "0", 3: "equator"}, _point), "h": ("1e-5", _fd_step)})
def _task_linearize(r, out, rng):
    dom, chart = r.dom, r.values["point"]
    X = dom.core.ambient_from_chart(chart)[None]
    rep_fd = linearize(dom, X, "fd", h=r.values["h"])[0]
    rep_cl = linearize(dom, X, "analytic", step_scale=CLASSICAL_STEP_SCALE)[0]
    rep_ms = linearize(dom, X, "analytic", step_scale=MEASURED_STEP_SCALE)[0]
    rows = []
    for tag, rep in (("finite_difference", rep_fd), ("analytic_classical", rep_cl), ("analytic_measured", rep_ms)):
        eig_cols = []
        for z in rep.eigenvalues:
            eig_cols += [f"{z.real:.6f}", f"{z.imag:.6f}"]
        rows.append(
            [tag]
            + eig_cols
            + [rep.stability, rep.morse_index]
            + [_g17(v) for v in rep.DF.ravel()]
        )
    k = rep_fd.DF.shape[0]
    head = ["method"]
    for i in range(k):
        head += [f"eig{i+1}_re", f"eig{i+1}_im"]
    head += ["stability", "morse_index"] + [f"DF{i}{j}" for i in range(k) for j in range(k)]
    out.csv("linearize.csv", head, rows)
    out.summary([
        ("point_theta", float(chart[0])),
        ("fd_eig_max", float(np.max(rep_fd.eigenvalues.real))),
        ("fd_eig_min", float(np.min(rep_fd.eigenvalues.real))),
        ("fd_stability", rep_fd.stability),
    ])


# kind = series reads chart and d_list; the other kinds eps_list, n_samples and step_scale
@_task("expansion_sweep", {
    "kind": ("first_order", _sweep_kind), "d_list": ("1e-1,3e-2,1e-2,3e-3", _scales),
    "chart": ({2: "1.0", 3: "1.0,0.7"}, _chart), "eps_list": ("1e-1,3e-2,1e-2,3e-3,1e-3", _scales),
    "n_samples": ("10", _positive_int), "step_scale": (repr(CLASSICAL_STEP_SCALE), _real)})
def _task_expansion_sweep(r, out, rng):
    v, kind, core = r.values, r.values["kind"], r.dom.core
    if kind == "series":
        res, slope = preconditioner_series_residual(core, v["chart"], v["d_list"])
        out.table("sweep.csv", ["d", "residual"], v["d_list"], res)
        out.summary([("kind", kind), ("fitted_slope", float(slope))])
        return
    charts = _sample_charts(core, v["n_samples"], rng)
    report = residual_sweep(core, r.field_at, v["eps_list"], charts, step_scale=v["step_scale"], kind=kind)
    out.table("sweep.csv", ["eps", "residual", "transverse_residual"],
              report.epsilons, report.residual_norms, report.transverse_residual_norms)
    out.summary([
        ("kind", kind),
        ("step_scale", v["step_scale"]),
        ("fitted_slope", float(report.fitted_slope)),
        ("transverse_slope", float(report.transverse_slope)),
        ("min_per_sample_slope", float(np.min(report.per_sample_slopes))),
        ("max_per_sample_slope", float(np.max(report.per_sample_slopes))),
    ])


# the known alpha modes read the gain at alpha_point; assumed takes alpha, sweep alpha times each factor
@_task("reconstruct", {
    "n_seeds": ("400", _nonnegative_int), "n_samples": ("50", _nonnegative_int), "h": ("1e-5", _fd_step),
    "alpha_mode": ("known_measured", _alpha_mode), "alpha_point": ({2: "0", 3: "equator"}, _point),
    "alpha": ("1.0", _gain), "alpha_factors": ("0.25,0.5,1,2,4", _alpha_factors)})
def _task_reconstruct(r, out, rng):
    v, dom, core = r.values, r.dom, r.dom.core
    F = BlackBoxMap.wrap_domain(dom)
    charts = _sample_charts(core, v["n_samples"], rng)
    mode = v["alpha_mode"]
    if mode in ("known_classical", "known_measured"):
        # the known gains at alpha_point: measured -trace(G)/m, classical trace(A)/m with A = 2G
        x = core.ambient_from_chart(v["alpha_point"])[None]
        d = dom.field.ambient_value(x)
        if d[0] <= 0.0:
            raise InadmissibleThickness(f"d = {d[0]:.6g} <= 0 at alpha_point")
        G = step_operator_batch(core, x, d, frames_batch(core, x))[0]
        a = float(np.trace(G)) / G.shape[0]
        alphas = [2.0 * a if mode == "known_classical" else -a]
    else:
        alphas = [v["alpha"]] if mode == "assumed" else v["alpha_factors"]
    report = run_reconstruction(F, v["n_seeds"], core.ambient_from_chart(charts), alphas, alpha_mode=mode,
                                h=v["h"])
    fixed = core.chart_from_ambient(report.fixed_points)
    composite = fixed[report.composite_rows]
    records = (  # (tag, chart, data); the descent samples keep the charts they were drawn at
        [("fixed_point", ch, res) for ch, res in zip(fixed, report.residuals)]
        + [("descent_dir", ch, vec) for ch, vec in zip(charts[report.descent_kept], report.descent_directions)]
        + [("composite", ch, C) for ch, C in zip(composite, report.composite_ops)]
        + [(f"hessian(alpha={rec.alpha:.6g},{rec.alpha_mode})", ch, rec.hessian)
           for ch, recs in zip(composite, report.hessians_isotropic) for rec in recs]
    )
    theta, phi = _theta_phi(core, [ch for _, ch, _ in records])
    out.csv("reconstruction.csv", ["record", "theta", "phi", "data"],
            [[tag, _g17(t), _g17(f), ";".join(map(_g17, np.ravel(data)))]
             for (tag, _, data), t, f in zip(records, theta, phi)])
    out.summary([
        ("n_fixed_points", len(report.fixed_points)),
        ("n_descent_samples", len(report.descent_directions)),
        ("n_composites", len(report.composite_ops)),
        ("n_hessians", sum(map(len, report.hessians_isotropic))),
        ("alpha_mode", mode),
        ("skipped_samples", int(np.sum(~report.descent_kept))),
    ])


@_task("scaling", {
    "lambda": ("2.0", _positive), "n_samples": ("100", _nonnegative_int), "equivalence": ("true", _flag),
    "equivalence_seeds": ("120", _positive_int), "equivalence_probe": ("200", _nonnegative_int),
    "equivalence_tol": ("1e-7", _positive), "equivalence_max_iters": ("2e5", _count)})
def _task_scaling(r, out, rng):
    v, dom = r.values, r.dom
    dom2 = RadialDomain(dom.core, ScaledField(v["lambda"], dom.field))
    F1 = BlackBoxMap.wrap_domain(dom)
    F2 = BlackBoxMap.wrap_domain(dom2)
    samples = dom.core.ambient_from_chart(_sample_charts(dom.core, v["n_samples"], rng))
    diag = scaling_ambiguity_diagnostic(F1, F2, samples)
    if v["equivalence"] == "true":
        seeds = dom.core.ambient_from_chart(fibonacci_chart_grid(dom.core, v["equivalence_seeds"]))
        verdict = dynamical_equivalence_check(
            F1, F2, seeds,
            n_probe=v["equivalence_probe"],
            iter_tol=v["equivalence_tol"],
            max_iters=v["equivalence_max_iters"],
        )
        eq = verdict.verdict
    else:
        eq = "skipped"
    out.table("scaling.csv", ["cosine", "norm_ratio"], diag.cosines, diag.norm_ratios)
    out.summary([
        ("lambda", v["lambda"]),
        ("mean_cosine", diag.mean_cosine),
        ("ratio_mean", diag.ratio_mean),
        ("ratio_median", diag.ratio_median),
        ("max_norm_difference", diag.max_norm_difference),
        ("equivalence", eq),
    ])


@_task("basins", {"n_seeds": ("500", _nonnegative_int), "tol": ("1e-8", _positive),
                  "max_iters": ("2e5", _count), "cluster_radius": (None, _positive)})
def _task_basins(r, out, rng):
    v, dom = r.values, r.dom
    F = BlackBoxMap.wrap_domain(dom)
    charts = fibonacci_chart_grid(dom.core, v["n_seeds"])
    labeling = basin_decomposition(F, dom.core.ambient_from_chart(charts), tol=v["tol"],
                                   max_iters=v["max_iters"], cluster_radius=v["cluster_radius"])
    out.table("basins.csv", ["seed_theta", "seed_phi", "label"], *_theta_phi(dom.core, charts), labeling.labels)
    counts = dict(zip(*(a.tolist() for a in np.unique(labeling.labels, return_counts=True))))
    out.summary([
        ("n_clusters", len(labeling.cluster_reps)),
        ("unresolved", counts.get(-1, 0)),
        ("continuum_of_fixed_points", str(labeling.continuum)),
        ("largest_basin", max((c for k, c in counts.items() if k >= 0), default=0)),
    ])


@_task("admissibility", {"grid": ("4096", _positive_int)})
def _task_admissibility(r, out, rng):
    report = admissibility_check(r.dom, grid_size=r.values["grid"])
    out.table("admissibility.csv", ["theta", "phi", "d", "min_sv_DPhi", "normal_ray_hits"],
              *_theta_phi(r.dom.core, report.chart), report.d_values, report.min_sv_dphi,
              report.normal_ray_hits)
    out.summary([
        ("min_d", report.min_d),
        ("min_sv_dphi", report.min_sv),
        ("normal_ray_hit_rate", report.hit_rate),
        ("admissible", str(report.admissible)),
    ])


def run_scenario(scenario: Scenario | str, out_dir=None, seed=None):
    """Execute a scenario, writing CSV reports plus a run manifest.

    A bad key raises ScenarioError before any file is written; a numeric
    failure raises its ShellmapError.  Returns the list of written files.
    """
    if isinstance(scenario, (str, Path)):
        scenario = parse_scenario(scenario)
    start = time.monotonic()
    r = resolve(scenario)
    rng_seed = scenario.rng_seed if seed is None else _convert(seed, _nonnegative_int, "rng_seed")
    rng = np.random.default_rng(rng_seed)
    out = _Out(Path(out_dir or scenario.output_dir or Path("runs") / scenario.name))
    TASKS[scenario.task][0](r, out, rng)
    elapsed = time.monotonic() - start
    out.manifest([
        ("name", scenario.name),
        ("task", scenario.task),
        ("rng_seed", rng_seed),
        *sorted(r.texts.items()),
        ("tool_version", __version__),
        ("wall_time_s", f"{elapsed:.3f}"),
    ])
    return out.files


SCENARIO_KEYS = {"name": (_REQUIRED, str), "task": (_REQUIRED, _one_of(TASKS)),  # named as Scenario's fields
                 "rng_seed": ("0", _nonnegative_int), "output_dir": (None, str)}
