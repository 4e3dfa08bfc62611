"""Forward differential analysis of the return map.

Linearization reports, expansion residuals against the first/second-order
step models, fixed-point search, and stability classification.  The
predicted displacement is parametrized as

    step = step_scale * d (I - d S)^(-1) grad d,

so step_scale = -2 reproduces the classical descent-model prediction and
step_scale = +1 the step law the exact ray dynamics actually follows (see
tests/test_measured_law.py).  The residuals are batched on the closed-form
tilt of the return map and the field's Hessian action.  A map is passed
as one BlackBoxMap F; the FD Jacobian and the Newton polish of
fixed_point_search take batches of centres (one retract_batch and one map
call per stencil).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .domain import RadialDomain, _outer_geometry_batch, _resolvent_batch
from .dynamics import BlackBoxMap, return_map_batch, settle_batch
from .errors import CurvatureSingularity, InadmissibleThickness, NotAFixedPoint, OffSurface
from .fields import ConstantField
from .surfaces import (
    TOL_SURFACE,
    ConvexCore,
    SurfacePoint,
    TangentFrame,
    fibonacci_chart_grid,
    frame_at,
    frames_batch,
    retract_batch,
    shape_operator_at,
)

FIXED_POINT_RESIDUAL_TOL = 1e-8
NEWTON_MAX_STEPS = 20
MAX_REFINE = 64
CLUSTER_CHUNK = 1 << 15  # floats in one distance temporary of _greedy_clusters (256 KiB)
DEFAULT_FD_STEP = 1e-5
SLOPE_FLOOR_FACTOR = 1e-13

CLASSICAL_STEP_SCALE = -2.0  # descent-model coefficient of d (I-dS)^-1 grad d
MEASURED_STEP_SCALE = 1.0    # coefficient the exact ray mechanism exhibits


# ---------------------------------------------------------------------------
# tangent-space operators
# ---------------------------------------------------------------------------

def step_operator(dom: RadialDomain, c: SurfacePoint, frame: TangentFrame | None = None) -> np.ndarray:
    """d (I - d S)^(-1), the exact shell-normal tilt times the travel length:
    d E R(E)^T with the closed-form resolvent R of domain._resolvent_batch.
    I - dS >= I for d > 0; singular I - dS raises CurvatureSingularity."""
    if frame is None:
        frame = frame_at(dom.core, c)
    d = dom.field.eval(c)
    E = frame.vectors
    _, RE = _resolvent_batch(dom.core, np.broadcast_to(c.ambient, E.shape), np.full(E.shape[0], d), E)
    R = E @ RE.T
    if not np.isfinite(R).all():
        raise CurvatureSingularity(f"I - dS is singular at chart {c.chart} (d = {d:.6g})")
    return d * (0.5 * (R + R.T))

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

def expansion_residual_batch(dom: RadialDomain, X, step_scale: float = CLASSICAL_STEP_SCALE,
                             kind: str = "first_order"):
    """(total, transverse) residual norms, each (n,), at core points X with
    m = (I - dS)^-1 grad d from _resolvent_batch and w1 = step_scale * d * m.

    The kinds are those of first_order_residual, second_order_residual
    (w2 = w1 + 2 d^2 Hess d[g] + 2 d |g|^2 g with Hess d[g] from the
    field's hessian_action, transverse in ambient coordinates) and
    normal_expansion_residual; transverse is zero for the other two.
    """
    if kind not in ("first_order", "second_order", "normal"):
        raise ValueError(f"unknown sweep kind {kind!r}")
    core, fld = dom.core, dom.field
    X = np.atleast_2d(np.asarray(X, dtype=float))
    d = fld.ambient_value(X)
    if np.any(d <= 0.0):
        raise InadmissibleThickness(f"nonpositive thickness at {int(np.sum(d <= 0.0))} points")
    g = fld.ambient_grad(X)
    nu, m = _resolvent_batch(core, X, d, g)
    transverse = np.zeros(X.shape[0])
    if kind == "normal":
        _, n = _outer_geometry_batch(dom, X, d)
        return np.linalg.norm(n + nu - m, axis=-1), transverse
    w1 = step_scale * d[:, None] * m
    F = return_map_batch(dom, X)
    if kind == "first_order":
        return np.linalg.norm(F - retract_batch(core, X, w1), axis=-1), transverse
    gt = g - np.einsum("ij,ij->i", g, nu)[:, None] * nu
    gnorm = np.linalg.norm(gt, axis=-1)
    if np.any(gnorm == 0.0):
        raise ValueError("second_order residual requires grad d != 0")
    Hg = fld.hessian_action(X, gt)
    w2 = w1 + (2.0 * d * d)[:, None] * Hg + (2.0 * d * gnorm**2)[:, None] * gt
    total = np.linalg.norm(F - retract_batch(core, X, w2), axis=-1)
    r = F - X - w1
    r -= np.einsum("ij,ij->i", r, nu)[:, None] * nu
    ghat = gt / gnorm[:, None]
    r -= np.einsum("ij,ij->i", r, ghat)[:, None] * ghat
    return total, np.linalg.norm(r, axis=-1)


def first_order_residual(dom: RadialDomain, c: SurfacePoint, step_scale: float = CLASSICAL_STEP_SCALE) -> float:
    """|F(c) - retract(c, step)| with step = step_scale * d (I-dS)^-1 grad d."""
    dom.field.eval(c)  # the positivity guard and core check of the scalar API
    return float(expansion_residual_batch(dom, c.ambient[None], step_scale, "first_order")[0][0])


def second_order_residual(dom: RadialDomain, c: SurfacePoint, step_scale: float = CLASSICAL_STEP_SCALE):
    """(total, transverse) residuals of the second-order displacement model.

    total: |F(c) - retract(c, first-order step + 2 d^2 H[g] + 2 d |g|^2 g)|.
    transverse: component of (F(c) - c - first-order step) orthogonal to
    grad d within the tangent space.
    """
    dom.field.eval(c)
    total, transverse = expansion_residual_batch(dom, c.ambient[None], step_scale, "second_order")
    return float(total[0]), float(transverse[0])


def normal_expansion_residual(dom: RadialDomain, c: SurfacePoint) -> float:
    """|n(Phi(c)) + nu(c) - (I - dS)^-1 grad d| for the exact inward normal."""
    dom.field.eval(c)
    return float(expansion_residual_batch(dom, c.ambient[None], kind="normal")[0][0])


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
    transverse), or "normal" (inward-normal expansion).  One
    expansion_residual_batch call per epsilon.
    """
    eps_list = list(eps_list)
    X = core.ambient_from_chart(np.atleast_2d(sample_charts))
    res = np.array([expansion_residual_batch(RadialDomain(core, field_factory(eps)), X, step_scale, kind)
                    for eps in eps_list])  # (epsilon, total | transverse, sample)
    vals, tvals = res[:, 0], res[:, 1]
    floor = SLOPE_FLOOR_FACTOR * core.surface_scale()
    mean_res = vals.mean(axis=1)
    slope, _ = fit_loglog(eps_list, mean_res, floor)
    per_sample = np.array([fit_loglog(eps_list, vals[:, j], floor)[0] for j in range(X.shape[0])])
    mean_t = tvals.mean(axis=1)  # zero unless kind is second_order
    t_slope = fit_loglog(eps_list, mean_t, floor)[0] if kind == "second_order" else float("nan")
    return ExpansionResidualReport(
        epsilons=eps_list,
        residual_norms=list(mean_res),
        fitted_slope=slope,
        transverse_residual_norms=list(mean_t),
        transverse_slope=t_slope,
        per_sample_slopes=per_sample,
    )


def preconditioner_series_residual(core: ConvexCore, chart, d_values):
    """||A - 2dI - 2d^2 S|| over a thickness sweep, with fitted slope.

    With constant thickness d the preconditioner expands as
    2dI + 2d^2 S + O(d^3).
    """
    p = SurfacePoint.from_chart(core, chart)
    frame = frame_at(core, p)
    S = shape_operator_at(core, p, frame)
    k = S.shape[0]
    res = []
    for d0 in d_values:
        dom = RadialDomain(core, ConstantField(core, d0))
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


def _classified(c_star, frame, DF, method, preconditioner, **extra) -> LinearizationReport:
    """The report of DF at a fixed point, after classify_fixed_point."""
    w = np.linalg.eigvals(DF)
    report = LinearizationReport(c_star, frame, DF, np.eye(DF.shape[0]) - DF, w[np.lexsort((-w.imag, -w.real))],
                                 method, preconditioner=preconditioner, **extra)
    classify_fixed_point(report)
    return report


def _require_fixed(F: BlackBoxMap, X: np.ndarray) -> None:
    """NotAFixedPoint unless every row of X, (n, N), is fixed under F to tolerance."""
    resid = float(np.max(np.linalg.norm(F.batch(X) - X, axis=-1)))
    if resid > FIXED_POINT_RESIDUAL_TOL:
        raise NotAFixedPoint(f"|F(c) - c| = {resid:.3e} exceeds {FIXED_POINT_RESIDUAL_TOL:.1e}")


def finite_difference_jacobian_batch(F: BlackBoxMap, X: np.ndarray, E: np.ndarray,
                                     h: float = DEFAULT_FD_STEP) -> np.ndarray:
    """Central-difference DF, (k, N-1, N-1), at centres X, (k, N), in frames
    E, (k, N-1, N), columns projected onto the tangent space at the centre
    (valid at fixed points).  The 2(N-1)k stencil points c +- h e_i take one
    retract_batch and one call of F; one centre is a batch of one."""
    k, m, n = E.shape
    V = (np.array([h, -h])[None, None, :, None] * E[:, :, None, :]).reshape(-1, n)
    Y = F.batch(retract_batch(F.core, np.repeat(X, 2 * m, axis=0), V)).reshape(k, m, 2, n)
    diff = (Y[:, :, 0] - Y[:, :, 1]) / (2.0 * h)
    nu = F.core.normal(X)
    diff -= (diff @ nu[:, :, None]) * nu[:, None, :]
    return E @ diff.transpose(0, 2, 1)


def linearize_fd(dom: RadialDomain, c_star: SurfacePoint, frame: TangentFrame | None = None,
                 h: float = DEFAULT_FD_STEP) -> LinearizationReport:
    """Finite-difference linearization of the exact return map at a fixed point."""
    if frame is None:
        frame = frame_at(dom.core, c_star)
    F, X = BlackBoxMap.wrap_domain(dom), c_star.ambient[None]
    _require_fixed(F, X)
    DF = finite_difference_jacobian_batch(F, X, frame.vectors[None], h)[0]
    return _classified(c_star, frame, DF, "finite_difference", curvature_preconditioner(dom, c_star, frame), h=h)


def linearize_analytic(dom: RadialDomain, c_star: SurfacePoint, frame: TangentFrame | None = None,
                       step_scale: float = CLASSICAL_STEP_SCALE) -> LinearizationReport:
    """DF = I + step_scale * d (I-dS)^-1 Hess d in the frame.

    step_scale = -2 gives the classical model DF = I - A Hess with
    A = 2d (I-dS)^-1; step_scale = +1 gives the law the ray dynamics
    measures.
    """
    if frame is None:
        frame = frame_at(dom.core, c_star)
    _require_fixed(BlackBoxMap.wrap_domain(dom), c_star.ambient[None])
    G = step_operator(dom, c_star, frame)
    H = dom.field.surface_hessian(c_star, frame)
    DF = np.eye(H.shape[0]) + step_scale * (G @ H)
    return _classified(c_star, frame, DF, "analytic", 2.0 * G, hessian=H)


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


def _newton_polish(F: BlackBoxMap, X: np.ndarray):
    """Newton on G(c) = F(c) - c in the tangent frame at c, on all rows of
    X at once (OffSurface if one is off the core); returns them and |G|.

    DG = DF - I with DF from finite_difference_jacobian_batch; the step
    solves DG s = -G by least squares with singular values below 1e-6 of
    the largest dropped (along a curve of fixed points they are stencil
    noise).  The trial evaluation becomes the next centre.  A row stops at
    |G| <= eps * surface_scale(), at its first step that does not lower |G|,
    or after NEWTON_MAX_STEPS steps: at most 1 + 2 NEWTON_MAX_STEPS map calls.
    """
    core = F.core
    X = np.array(X, dtype=float, ndmin=2)
    off = float(np.max(np.abs(core.implicit(X)), initial=0.0))
    if off > TOL_SURFACE:
        raise OffSurface(f"|implicit(x)| = {off:.3e} exceeds {TOL_SURFACE:.1e}")
    G = F.batch(X) - X
    r = np.linalg.norm(G, axis=-1)
    target = np.finfo(float).eps * core.surface_scale()
    live = r > target
    for _ in range(NEWTON_MAX_STEPS):
        idx = np.flatnonzero(live)
        if idx.size == 0:
            break
        C = X[idx]
        E = frames_batch(core, C)
        J = finite_difference_jacobian_batch(F, C, E) - np.eye(core.dim - 1)
        steps = np.array([np.linalg.lstsq(J[i], -(E[i] @ G[j]), rcond=1e-6)[0] @ E[i]
                          for i, j in enumerate(idx)])
        trial = retract_batch(core, C, steps)
        G_trial = F.batch(trial) - trial
        r_trial = np.linalg.norm(G_trial, axis=-1)
        better = r_trial < r[idx]
        acc = idx[better]
        X[acc], G[acc], r[acc] = trial[better], G_trial[better], r_trial[better]
        live[idx] = better & (r[idx] > target)
    return X, r


def _greedy_clusters(X: np.ndarray, radius: float):
    """Deterministic chain clustering; returns a label per row.

    The clusters are the components of the graph joining rows at distance
    <= radius, numbered in order of their lowest row.  Each component is
    grown breadth first, one distance call per chunk of its frontier
    against the rows not yet labelled, so temporaries stay near
    CLUSTER_CHUNK floats."""
    n, dim = X.shape
    labels = np.full(n, -1)
    current = 0
    while True:
        free = np.flatnonzero(labels < 0)
        if not free.size:
            return labels
        frontier = free[:1]
        while frontier.size:
            labels[frontier] = current
            free = np.flatnonzero(labels < 0)
            if not free.size:
                break
            Xf, near = X[free], np.zeros(free.size, dtype=bool)
            rows = max(1, CLUSTER_CHUNK // (free.size * dim))
            for s in range(0, frontier.size, rows):
                dist = np.linalg.norm(Xf - X[frontier[s:s + rows], None], axis=-1)
                near |= (dist <= radius).any(axis=0)
            frontier = free[near]
        current += 1


def fixed_point_search(F: BlackBoxMap, n_seeds: int,
                       tol: float = 1e-10, max_iters: int = 100_000) -> FixedPointScan:
    """Fixed points of F from its calls alone: forward iteration for
    attractors plus a residual scan with local minimization for fixed
    points iteration cannot reach.

    Seeds on the deterministic near-uniform grid.  The residual scan is
    every orbit's first step: a seed fixed to tol there stops, the others
    go to settle_batch with radius 1e-6 * surface_scale(), a tenth of the
    radius at which the orbit endpoints are pre-clustered.  The endpoint of
    least residual in each pre-cluster and the lowest-residual grid points,
    the MAX_REFINE of lowest residual among them, are polished by Newton on
    F(c) - c (_newton_polish, on the same central-difference Jacobian as
    linearize_fd), which is the final verification, then clustered at
    radius 10 * tol keeping the smallest-residual member of each cluster.
    The representatives come in lexicographic order of their ambient
    coordinates rounded to 1e-9 * surface_scale(), so their order does
    not follow round-off in the residuals.  No seeds give an empty scan
    without a map call.
    """
    if n_seeds < 1:
        return FixedPointScan([], np.array([]), None, False, 0)
    core = F.core
    X = core.ambient_from_chart(fibonacci_chart_grid(core, n_seeds))
    limits = F.batch(X)
    R = np.linalg.norm(limits - X, axis=-1)
    continuum = bool(np.mean(R < tol) > 0.5)

    # the scan is every orbit's first step: a seed fixed to tol stops there
    moving = np.flatnonzero(R >= tol)
    pre_radius = 1e-5 * core.surface_scale()
    orbit = settle_batch(F, limits[moving], 0.1 * pre_radius, tol, max_iters - 1)
    limits[moving] = orbit.limits
    unresolved = int(np.sum(~orbit.converged))

    lim_res = np.linalg.norm(F.batch(limits) - limits, axis=-1)
    pre = _greedy_clusters(limits, radius=pre_radius)
    lim_best = [members[np.argmin(lim_res[members])]
                for members in (np.nonzero(pre == lab)[0] for lab in range(pre.max() + 1))]
    scan_idx = np.argsort(R)[:max(8, n_seeds // 20)]
    cand = np.concatenate([limits[lim_best], X[scan_idx]])
    cand_res = np.concatenate([lim_res[lim_best], R[scan_idx]])
    cand = cand[np.argsort(cand_res, kind="stable")[:MAX_REFINE]]

    pts, res = _newton_polish(F, cand)
    keep = res < max(tol, 1e-9)
    pts, res = pts[keep], res[keep]
    if not pts.shape[0]:
        return FixedPointScan([], np.array([]), None, continuum, unresolved)

    labels = _greedy_clusters(pts, radius=10.0 * tol)
    best = [members[np.argmin(res[members])]
            for members in (np.nonzero(labels == lab)[0] for lab in range(labels.max() + 1))]
    q = 1e-9 * core.surface_scale()
    best.sort(key=lambda i: tuple(np.round(pts[i] / q)))
    reps = [SurfacePoint.from_ambient(core, pts[i]) for i in best]
    return FixedPointScan(reps, res[best], None, continuum, unresolved)


def find_fixed_points(dom: RadialDomain, n_seeds: int, tol: float = 1e-10,
                      max_iters: int = 100_000) -> FixedPointScan:
    """Fixed points of the exact return map with thickness-gradient norms."""
    scan = fixed_point_search(BlackBoxMap.wrap_domain(dom), n_seeds, tol=tol, max_iters=max_iters)
    scan.grad_norms = np.array([float(np.linalg.norm(dom.field.surface_gradient_ambient(p)))
                                for p in scan.points])
    return scan
