"""Forward differential analysis of the return map.

Linearization reports, expansion residuals against the first/second-order
step models, fixed-point search, and stability classification.  The
predicted displacement is parametrized as

    step = step_scale * d (I - d S)^(-1) grad d,

so step_scale = -2 reproduces the classical descent-model prediction and
step_scale = +1 the step law the exact ray dynamics actually follows (see
tests/test_measured_law.py).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .domain import RadialDomain, radial_map
from .dynamics import iterate_batch, return_map, return_map_batch
from .errors import CurvatureSingularity, NotAFixedPoint
from .surfaces import (
    ConvexCore,
    SurfacePoint,
    TangentFrame,
    fibonacci_chart_grid,
    frame_at,
    retract,
    shape_operator_at,
)

FIXED_POINT_RESIDUAL_TOL = 1e-8
NEWTON_MAX_STEPS = 20
DET_TOL = 1e-10
DEFAULT_FD_STEP = 1e-5
SLOPE_FLOOR_FACTOR = 1e-13

CLASSICAL_STEP_SCALE = -2.0  # descent-model coefficient of d (I-dS)^-1 grad d
MEASURED_STEP_SCALE = 1.0    # coefficient the exact ray mechanism exhibits


# ---------------------------------------------------------------------------
# tangent-space operators
# ---------------------------------------------------------------------------

def _resolvent(dom: RadialDomain, c: SurfacePoint, frame: TangentFrame):
    """(I - d S)^(-1) in the frame, with the thickness value d."""
    d = dom.field.eval(c)
    S = shape_operator_at(dom.core, c, frame)
    k = S.shape[0]
    A = np.eye(k) - d * S
    if abs(np.linalg.det(A)) <= DET_TOL:
        raise CurvatureSingularity(f"det(I - dS) = {np.linalg.det(A):.3e}")
    R = np.linalg.inv(A)
    return d, S, 0.5 * (R + R.T)


def step_operator(dom: RadialDomain, c: SurfacePoint, frame: TangentFrame | None = None) -> np.ndarray:
    """d (I - d S)^(-1): the exact shell-normal tilt times the travel length."""
    if frame is None:
        frame = frame_at(dom.core, c)
    d, _, R = _resolvent(dom, c, frame)
    return d * R

def curvature_preconditioner(dom: RadialDomain, c: SurfacePoint, frame: TangentFrame | None = None) -> np.ndarray:
    """2 d (I - d S)^(-1), the operator through which the thickness Hessian
    is observed in the classical linearization model."""
    return 2.0 * step_operator(dom, c, frame)


def preconditioner_determinant(dom: RadialDomain, c: SurfacePoint, frame: TangentFrame | None = None) -> float:
    """det(I - d S), reported as the operative invertibility condition."""
    if frame is None:
        frame = frame_at(dom.core, c)
    d = dom.field.eval(c)
    S = shape_operator_at(dom.core, c, frame)
    return float(np.linalg.det(np.eye(S.shape[0]) - d * S))


# ---------------------------------------------------------------------------
# expansion residuals
# ---------------------------------------------------------------------------

def _predicted_step_ambient(dom, c, frame, step_scale, second_order=False):
    """Predicted tangent displacement at c as an ambient vector."""
    d, _, R = _resolvent(dom, c, frame)
    g = dom.field.surface_gradient(c, frame)
    w = step_scale * d * (R @ g)
    if second_order:
        H = dom.field.surface_hessian(c, frame)
        w = w + 2.0 * d * d * (H @ g) + 2.0 * d * float(g @ g) * g
    return w @ frame.vectors


def first_order_residual(dom: RadialDomain, c: SurfacePoint, step_scale: float = CLASSICAL_STEP_SCALE) -> float:
    """|F(c) - retract(c, step)| with step = step_scale * d (I-dS)^-1 grad d."""
    frame = frame_at(dom.core, c)
    w = _predicted_step_ambient(dom, c, frame, step_scale)
    predicted = retract(dom.core, c, w, 1.0)
    actual = return_map(dom, c)
    return float(np.linalg.norm(actual.ambient - predicted.ambient))


def second_order_residual(dom: RadialDomain, c: SurfacePoint, step_scale: float = CLASSICAL_STEP_SCALE):
    """(total, transverse) residuals of the second-order displacement model.

    total: |F(c) - retract(c, first-order step + 2 d^2 H[g] + 2 d |g|^2 g)|.
    transverse: component of (F(c) - c - first-order step) orthogonal to
    grad d within the tangent space.
    """
    frame = frame_at(dom.core, c)
    g = dom.field.surface_gradient(c, frame)
    gnorm = float(np.linalg.norm(g))
    if gnorm == 0.0:
        raise ValueError("second_order_residual requires grad d != 0")
    w2 = _predicted_step_ambient(dom, c, frame, step_scale, second_order=True)
    predicted = retract(dom.core, c, w2, 1.0)
    actual = return_map(dom, c)
    total = float(np.linalg.norm(actual.ambient - predicted.ambient))

    w1 = _predicted_step_ambient(dom, c, frame, step_scale)
    disp = actual.ambient - c.ambient
    resid = frame.vectors @ (disp - w1)  # tangent components
    ghat = g / gnorm
    transverse = float(np.linalg.norm(resid - ghat * float(resid @ ghat)))
    return total, transverse


def normal_expansion_residual(dom: RadialDomain, c: SurfacePoint) -> float:
    """|n(Phi(c)) + nu(c) - (I - dS)^-1 grad d| for the exact inward normal."""
    frame = frame_at(dom.core, c)
    _, _, R = _resolvent(dom, c, frame)
    g = dom.field.surface_gradient(c, frame)
    m = (R @ g) @ frame.vectors
    nu = dom.core.normal(c.ambient)
    n = radial_map(dom, c).inward_normal
    return float(np.linalg.norm(n + nu - m))


def fit_loglog(xs, ys, floor: float | None = None):
    """Least-squares slope of log ys vs log xs.

    Values at or below the floor are excluded (they are indistinguishable
    from round-off); if fewer than two points survive, the quantity
    vanishes at all tested scales and the slope is reported as +inf.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if floor is None:
        floor = 0.0
    keep = ys > floor
    if int(np.sum(keep)) < 2:
        return float("inf"), int(np.sum(keep))
    slope = np.polyfit(np.log(xs[keep]), np.log(ys[keep]), 1)[0]
    return float(slope), int(np.sum(keep))


@dataclass
class ExpansionResidualReport:
    """Residual norms along a perturbation sweep with fitted log-log slopes."""

    epsilons: list
    residual_norms: list            # mean over sample points, per epsilon
    fitted_slope: float
    transverse_residual_norms: list
    transverse_slope: float
    per_sample_slopes: np.ndarray | None = None
    per_sample_transverse_slopes: np.ndarray | None = None
    points_used: int = 0


def residual_sweep(
    core: ConvexCore,
    field_factory,
    eps_list,
    sample_charts,
    step_scale: float = CLASSICAL_STEP_SCALE,
    kind: str = "first_order",
) -> ExpansionResidualReport:
    """Evaluate residuals at fixed sample points for each epsilon.

    field_factory(eps) builds the thickness field; kind selects the
    residual: "first_order" (total only), "second_order" (total and
    transverse), or "normal" (inward-normal expansion).
    """
    eps_list = list(eps_list)
    samples = [SurfacePoint.from_chart(core, ch) for ch in np.atleast_2d(sample_charts)]
    vals = np.zeros((len(eps_list), len(samples)))
    tvals = np.zeros_like(vals)
    for i, eps in enumerate(eps_list):
        dom = RadialDomain(core, field_factory(eps))
        for j, p in enumerate(samples):
            if kind == "first_order":
                vals[i, j] = first_order_residual(dom, p, step_scale)
            elif kind == "second_order":
                vals[i, j], tvals[i, j] = second_order_residual(dom, p, step_scale)
            elif kind == "normal":
                vals[i, j] = normal_expansion_residual(dom, p)
            else:
                raise ValueError(f"unknown sweep kind {kind!r}")
    floor = SLOPE_FLOOR_FACTOR * core.surface_scale()
    mean_res = vals.mean(axis=1)
    slope, used = fit_loglog(eps_list, mean_res, floor)
    per_sample = np.array([fit_loglog(eps_list, vals[:, j], floor)[0] for j in range(len(samples))])
    if kind == "second_order":
        mean_t = tvals.mean(axis=1)
        t_slope, _ = fit_loglog(eps_list, mean_t, floor)
        per_sample_t = np.array([fit_loglog(eps_list, tvals[:, j], floor)[0] for j in range(len(samples))])
    else:
        mean_t = np.zeros(len(eps_list))
        t_slope = float("nan")
        per_sample_t = None
    return ExpansionResidualReport(
        epsilons=eps_list,
        residual_norms=list(mean_res),
        fitted_slope=slope,
        transverse_residual_norms=list(mean_t),
        transverse_slope=t_slope,
        per_sample_slopes=per_sample,
        per_sample_transverse_slopes=per_sample_t,
        points_used=used,
    )


def preconditioner_series_residual(core: ConvexCore, chart, d_values, field_factory=None):
    """||A - 2dI - 2d^2 S|| over a thickness sweep, with fitted slope.

    With constant thickness d the preconditioner expands as
    2dI + 2d^2 S + O(d^3).
    """
    from .fields import ConstantField

    p = SurfacePoint.from_chart(core, chart)
    frame = frame_at(core, p)
    S = shape_operator_at(core, p, frame)
    k = S.shape[0]
    res = []
    for d0 in d_values:
        fld = ConstantField(core, d0) if field_factory is None else field_factory(d0)
        dom = RadialDomain(core, fld)
        A = curvature_preconditioner(dom, p, frame)
        res.append(float(np.linalg.norm(A - 2.0 * d0 * np.eye(k) - 2.0 * d0 * d0 * S)))
    slope, _ = fit_loglog(d_values, res, 0.0)
    return np.asarray(res), slope


# ---------------------------------------------------------------------------
# linearization
# ---------------------------------------------------------------------------

@dataclass
class LinearizationReport:
    """Estimated DF at a fixed point and derived classification."""

    point: SurfacePoint
    frame: TangentFrame
    DF: np.ndarray
    composite: np.ndarray            # I - DF
    eigenvalues: np.ndarray          # complex, sorted by descending real part
    method: str                      # "finite_difference" | "analytic"
    stability: str = "Unclassified"
    eigen_labels: list = field(default_factory=list)
    morse_index: int | None = None
    degenerate: bool = False
    preconditioner: np.ndarray | None = None
    hessian: np.ndarray | None = None
    h: float | None = None


def _sorted_eigs(M: np.ndarray) -> np.ndarray:
    w = np.linalg.eigvals(M)
    order = np.lexsort((-w.imag, -w.real))
    return w[order]


def _require_fixed(c: SurfacePoint, batch_map) -> None:
    resid = float(np.linalg.norm(batch_map(c.ambient[None])[0] - c.ambient))
    if resid > FIXED_POINT_RESIDUAL_TOL:
        raise NotAFixedPoint(f"|F(c) - c| = {resid:.3e} exceeds {FIXED_POINT_RESIDUAL_TOL:.1e}")


def finite_difference_jacobian(core: ConvexCore, batch_map, c: SurfacePoint,
                               frame: TangentFrame, h: float = DEFAULT_FD_STEP) -> np.ndarray:
    """Central-difference DF in the frame, columns projected onto the
    tangent space at c (valid at fixed points, where domain and codomain
    tangent spaces coincide).  All 2(N-1) stencil points go through
    batch_map in one call."""
    E = frame.vectors
    k = E.shape[0]
    nu = core.normal(c.ambient)
    stencil = np.array([retract(core, c, E[i], s * h).ambient for i in range(k) for s in (1.0, -1.0)])
    Y = batch_map(stencil)
    DF = np.empty((k, k))
    for i in range(k):
        diff = (Y[2 * i] - Y[2 * i + 1]) / (2.0 * h)
        diff = diff - nu * float(np.dot(diff, nu))
        DF[:, i] = E @ diff
    return DF


def linearize_fd(dom: RadialDomain, c_star: SurfacePoint, frame: TangentFrame | None = None,
                 h: float = DEFAULT_FD_STEP) -> LinearizationReport:
    """Finite-difference linearization of the exact return map at a fixed point."""
    if frame is None:
        frame = frame_at(dom.core, c_star)
    fmap = partial(return_map_batch, dom)
    _require_fixed(c_star, fmap)
    DF = finite_difference_jacobian(dom.core, fmap, c_star, frame, h)
    k = DF.shape[0]
    report = LinearizationReport(
        point=c_star,
        frame=frame,
        DF=DF,
        composite=np.eye(k) - DF,
        eigenvalues=_sorted_eigs(DF),
        method="finite_difference",
        preconditioner=curvature_preconditioner(dom, c_star, frame),
        h=h,
    )
    classify_fixed_point(report)
    return report


def linearize_analytic(dom: RadialDomain, c_star: SurfacePoint, frame: TangentFrame | None = None,
                       step_scale: float = CLASSICAL_STEP_SCALE) -> LinearizationReport:
    """DF = I + step_scale * d (I-dS)^-1 Hess d in the frame.

    step_scale = -2 gives the classical model DF = I - A Hess with
    A = 2d (I-dS)^-1; step_scale = +1 gives the law the ray dynamics
    measures.
    """
    if frame is None:
        frame = frame_at(dom.core, c_star)
    _require_fixed(c_star, partial(return_map_batch, dom))
    d, _, R = _resolvent(dom, c_star, frame)
    H = dom.field.surface_hessian(c_star, frame)
    k = H.shape[0]
    DF = np.eye(k) + step_scale * d * (R @ H)
    report = LinearizationReport(
        point=c_star,
        frame=frame,
        DF=DF,
        composite=np.eye(k) - DF,
        eigenvalues=_sorted_eigs(DF),
        method="analytic",
        preconditioner=curvature_preconditioner(dom, c_star, frame),
        hessian=H,
    )
    classify_fixed_point(report)
    return report


def classify_fixed_point(report: LinearizationReport, tol: float = 1e-6):
    """Per-eigenvalue stability labels and a Morse index estimate.

    Eigenvalues within tol of the unit circle are Neutral and excluded
    from index counting.  The index is the number of eigenvalues of the
    analytic Hessian (when attached) or of A^(-1)(I - DF) below -tol.
    """
    labels = []
    for mu in report.eigenvalues:
        m = abs(mu)
        if m < 1.0 - tol:
            labels.append("attracting")
        elif m > 1.0 + tol:
            labels.append("repelling")
        else:
            labels.append("neutral")
    uniq = set(labels)
    if uniq == {"attracting"}:
        stability = "Attracting"
    elif uniq == {"repelling"}:
        stability = "Repelling"
    elif uniq == {"neutral"}:
        stability = "Neutral"
    elif "neutral" in uniq:
        stability = "Mixed"
    else:
        stability = "Saddle"

    hess_est = None
    if report.hessian is not None:
        hess_est = np.linalg.eigvals(report.hessian).real
    elif report.preconditioner is not None:
        hess_est = np.linalg.eigvals(np.linalg.solve(report.preconditioner, report.composite)).real
    morse = None
    degenerate = False
    if hess_est is not None:
        morse = int(np.sum(hess_est < -tol))
        degenerate = bool(np.any(np.abs(hess_est) <= tol))

    report.stability = stability
    report.eigen_labels = labels
    report.morse_index = morse
    report.degenerate = degenerate
    return stability, morse


# ---------------------------------------------------------------------------
# fixed-point search
# ---------------------------------------------------------------------------

@dataclass
class FixedPointScan:
    """Clustered fixed points with residuals (and gradient norms when the
    thickness field is visible)."""

    points: list                    # SurfacePoint representatives
    residuals: np.ndarray
    grad_norms: np.ndarray | None
    continuum: bool                 # > 50% of the seed grid is fixed
    unresolved: int


def _newton_polish(core: ConvexCore, batch_map, x: np.ndarray):
    """Newton on G(c) = F(c) - c in the tangent frame at c.

    DG = DF - I with DF from finite_difference_jacobian; the step solves
    DG s = -G by least squares with singular values below 1e-6 of the
    largest dropped (along a curve of fixed points they are stencil
    noise), and is taken by retract.  The trial evaluation becomes the
    next centre.  Stops at |G| <= eps * surface_scale(), at the first step
    that does not lower |G|, or after NEWTON_MAX_STEPS steps.  Returns the
    point and its |G|.
    """
    c = SurfacePoint.from_ambient(core, x)
    G = batch_map(c.ambient[None])[0] - c.ambient
    r = float(np.linalg.norm(G))
    target = np.finfo(float).eps * core.surface_scale()
    for _ in range(NEWTON_MAX_STEPS):
        if r <= target:
            break
        frame = frame_at(core, c)
        E = frame.vectors
        J = finite_difference_jacobian(core, batch_map, c, frame) - np.eye(E.shape[0])
        s = np.linalg.lstsq(J, -(E @ G), rcond=1e-6)[0]
        trial = retract(core, c, s @ E, 1.0)
        G_trial = batch_map(trial.ambient[None])[0] - trial.ambient
        r_trial = float(np.linalg.norm(G_trial))
        if not r_trial < r:
            break
        c, G, r = trial, G_trial, r_trial
    return c, r


def _greedy_clusters(X: np.ndarray, radius: float):
    """Deterministic chain clustering; returns a label per row."""
    n = X.shape[0]
    labels = -np.ones(n, dtype=int)
    current = 0
    for i in range(n):
        if labels[i] >= 0:
            continue
        stack = [i]
        labels[i] = current
        while stack:
            j = stack.pop()
            near = np.linalg.norm(X - X[j], axis=-1) <= radius
            for k in np.nonzero(near & (labels < 0))[0]:
                labels[k] = current
                stack.append(int(k))
        current += 1
    return labels


def fixed_point_search(core: ConvexCore, batch_map, n_seeds: int,
                       tol: float = 1e-10, max_iters: int = 100_000,
                       max_refine: int = 64) -> FixedPointScan:
    """Shared engine: forward iteration for attractors plus a residual scan
    with local minimization for fixed points iteration cannot reach.

    Seeds on the deterministic near-uniform grid.  Orbit endpoints (also
    the stalled ones, which sit next to attractors) and the lowest-residual
    grid points are polished by Newton on F(c) - c (_newton_polish, on the
    same central-difference Jacobian as linearize_fd), then clustered at
    radius 10 * tol keeping the smallest-residual member of each cluster.
    The representatives come in lexicographic order of their ambient
    coordinates rounded to 1e-9 * surface_scale(), so their order does
    not follow round-off in the residuals.
    """
    X = core.ambient_from_chart(fibonacci_chart_grid(core, n_seeds))
    R = np.linalg.norm(batch_map(X) - X, axis=-1)
    continuum = bool(np.mean(R < tol) > 0.5)

    orbit = iterate_batch(None, X, max_iters=max_iters, tol=tol, map_batch=batch_map)
    unresolved = int(np.sum(~orbit.converged))

    candidates = []  # (residual, ambient point)
    limits = orbit.limits
    lim_res = np.linalg.norm(batch_map(limits) - limits, axis=-1)
    pre = _greedy_clusters(limits, radius=1e-5 * core.surface_scale())
    for lab in range(pre.max() + 1):
        members = np.nonzero(pre == lab)[0]
        best = members[np.argmin(lim_res[members])]
        candidates.append((float(lim_res[best]), limits[best]))
    n_scan = max(8, n_seeds // 20)
    scan_idx = np.argsort(R)[:n_scan]
    candidates.extend((float(R[i]), X[i]) for i in scan_idx)
    candidates.sort(key=lambda item: item[0])
    candidates = candidates[:max_refine]

    accept = max(tol, 1e-9)
    polished = [_newton_polish(core, batch_map, x) for _, x in candidates]
    polished = [(p, r) for p, r in polished if r < accept]
    if not polished:
        return FixedPointScan([], np.array([]), None, continuum, unresolved)

    pts = np.array([p.ambient for p, _ in polished])
    res = np.array([r for _, r in polished])
    labels = _greedy_clusters(pts, radius=10.0 * tol)
    best = []
    for lab in range(labels.max() + 1):
        members = np.nonzero(labels == lab)[0]
        best.append(members[np.argmin(res[members])])
    q = 1e-9 * core.surface_scale()
    best.sort(key=lambda i: tuple(np.round(pts[i] / q)))
    return FixedPointScan([polished[i][0] for i in best], res[best], None, continuum, unresolved)


def find_fixed_points(dom: RadialDomain, n_seeds: int, tol: float = 1e-10,
                      max_iters: int = 100_000) -> FixedPointScan:
    """Fixed points of the exact return map with thickness-gradient norms."""
    scan = fixed_point_search(dom.core, partial(return_map_batch, dom), n_seeds,
                              tol=tol, max_iters=max_iters)
    if scan.points:
        scan.grad_norms = np.array(
            [float(np.linalg.norm(dom.field.surface_gradient_ambient(p))) for p in scan.points]
        )
    else:
        scan.grad_norms = np.array([])
    return scan
