"""Forward differential analysis of the return map.

Linearization reports, expansion residuals against the first/second-order
step models, fixed-point search, and stability classification.  The
linearization takes k fixed points as (k, N) ambient rows and returns
stacked arrays; its frame operators (the step operator, S and Hess d) are
batched over rows and frames.  The predicted displacement is parametrized as

    step = step_scale * d (I - d S)^(-1) grad d,

so step_scale = -2 reproduces the classical descent-model prediction and
step_scale = +1 the step law the exact ray dynamics actually follows (see
tests/test_measured_law.py).  The step operator and the residuals take
the kernel's own resolvent on (n, N) rows (surfaces._resolvent_rows), so
the residuals are batched on the closed-form tilt of the return map and
the field's Hessian action.  A residual sweep stacks the rows of all its
fields into one batch (_expansion_residual_rows): one resolvent, one call
of the kernel's row stage and one retraction per sweep, and one
fit_loglog call for all its slopes.  A map is passed
as one BlackBoxMap F; the FD Jacobian and the Newton polish of
fixed_point_search take batches of centres (one retract_batch and one map
call per stencil).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import RadialDomain
from .dynamics import BlackBoxMap, _return_map_rows, settle_batch
from .errors import CurvatureSingularity, InadmissibleThickness, NotAFixedPoint
from .surfaces import (
    ConvexCore,
    SurfacePoint,
    _frame_matrices,
    _outer_geometry_rows,
    _require_on_core,
    _resolvent_rows,
    fibonacci_chart_grid,
    frames_batch,
    retract_batch,
    shape_operator_batch,
    tangent_part,
)

FIXED_POINT_RESIDUAL_TOL = 1e-8
NEWTON_MAX_STEPS = 20
MAX_REFINE = 64
CLUSTER_CHUNK = 1 << 15  # floats in one (rows x unlabelled rows) distance temporary of _greedy_clusters (256 KiB)
CLUSTER_FIRST_ROWS = 16  # rows of _greedy_clusters' first block on a set larger than one temporary
DEFAULT_FD_STEP = 1e-5  # in units of surface_scale()
SLOPE_FLOOR_FACTOR = 1e-13
NEUTRAL_TOL = 1e-6  # |mu| this close to 1 is neutral

CLASSICAL_STEP_SCALE = -2.0  # descent-model coefficient of d (I-dS)^-1 grad d
MEASURED_STEP_SCALE = 1.0    # coefficient the exact ray mechanism exhibits


# ---------------------------------------------------------------------------
# tangent-space operators
# ---------------------------------------------------------------------------

def step_operator_batch(core: ConvexCore, X: np.ndarray, d: np.ndarray, E: np.ndarray) -> np.ndarray:
    """d (I - d S)^(-1), (k, m, m), at core points X, (k, N), with thickness
    d, (k,), in the frames E, (k, m, N): the exact shell-normal tilt times
    the travel length, d sym(E R(E)^T) with the closed-form resolvent R of
    surfaces._resolvent_rows.  Twice it is the classical preconditioner
    A = 2d (I - dS)^(-1).  I - dS >= I for d > 0; singular I - dS raises
    CurvatureSingularity."""
    dm = np.repeat(d, E.shape[1])
    with np.errstate(divide="ignore", invalid="ignore"):
        R = _frame_matrices(X, E, lambda Y, V: _resolvent_rows(core, Y, dm, V)[1])
    bad = ~np.isfinite(R).all(axis=(1, 2))
    if bad.any():
        raise CurvatureSingularity(f"I - dS is singular at {int(bad.sum())} of {bad.size} points")
    return d[:, None, None] * R


# ---------------------------------------------------------------------------
# expansion residuals
# ---------------------------------------------------------------------------

def expansion_residual_batch(dom: RadialDomain, X, step_scale: float = CLASSICAL_STEP_SCALE,
                             kind: str = "first_order"):
    """(total, transverse) residual norms, each (n,), at core points X with
    m = (I - dS)^-1 grad d from _resolvent_rows and w1 = step_scale * d * m.

    The kinds: "first_order", |F(c) - retract(c, w1)|; "second_order",
    |F(c) - retract(c, w2)| with w2 = w1 + 2 d^2 Hess d[g] + 2 d |g|^2 g
    (Hess d[g] from the field's hessian_action) and as transverse the part
    of F(c) - c - w1 tangent to the core and orthogonal to grad d;
    "normal", |n(Phi(c)) + nu(c) - m| for the exact inward normal n.
    transverse is zero for first_order and normal.  The one-field view of
    _expansion_residual_rows.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    total, transverse = _expansion_residual_rows(dom.core, [dom.field], X, step_scale, kind)
    return total[0], transverse[0]


def _expansion_residual_rows(core: ConvexCore, fields, X: np.ndarray, step_scale: float, kind: str):
    """(total, transverse), each (E, n): expansion_residual_batch of each
    of the E fields on core at the core points X, (n, N), as one batch.

    The fields' (d, grad d) from ambient_value_grad are stacked into E n
    rows, which take one _resolvent_rows, one kernel row call
    (_return_map_rows) and one retract_batch; second_order calls each
    field's hessian_action once, on its n rows.  A row's arithmetic does
    not depend on the rows stacked with it, so each field's rows equal its
    batch alone bit for bit.
    """
    if kind not in ("first_order", "second_order", "normal"):
        raise ValueError(f"unknown sweep kind {kind!r}")
    n_fields, n = len(fields), X.shape[0]
    d, g = map(np.concatenate, zip(*(f.ambient_value_grad(X) for f in fields)))
    if np.any(d <= 0.0):
        raise InadmissibleThickness(f"nonpositive thickness at {int(np.sum(d <= 0.0))} points")
    X = np.tile(X, (n_fields, 1))
    nu, m = _resolvent_rows(core, X, d, g)
    transverse = np.zeros(X.shape[0])
    if kind == "normal":
        total = np.linalg.norm(_outer_geometry_rows(core, X, d, g)[1] + nu - m, axis=-1)
        return total.reshape(n_fields, n), transverse.reshape(n_fields, n)
    w = w1 = step_scale * d[:, None] * m
    F = _return_map_rows(core, X, d, g)
    if kind == "second_order":
        gt = tangent_part(nu, g)
        gnorm = np.linalg.norm(gt, axis=-1)
        if np.any(gnorm == 0.0):
            raise ValueError("second_order residual requires grad d != 0")
        Hg = np.concatenate([f.hessian_action(X[:n], gt[i * n:(i + 1) * n]) for i, f in enumerate(fields)])
        w = w1 + (2.0 * d * d)[:, None] * Hg + (2.0 * d * gnorm**2)[:, None] * gt
        transverse = np.linalg.norm(tangent_part(gt / gnorm[:, None], tangent_part(nu, F - X - w1)), axis=-1)
    total = np.linalg.norm(F - retract_batch(core, X, w), axis=-1)
    return total.reshape(n_fields, n), transverse.reshape(n_fields, n)


def fit_loglog(xs, ys, floor: float):
    """Least-squares slope of log ys vs log xs, for ys of shape (n,) or
    (n, k) (one slope per column).

    Values at or below the floor are excluded (they are indistinguishable
    from round-off); if fewer than two points survive, the quantity
    vanishes at all tested scales and the slope is reported as +inf.
    Returns (slope, points kept): a float and an int for 1-D ys, (k,)
    arrays for 2-D ys.  Columns that keep the same points share one
    np.polyfit, whose slopes equal per-column fits bit for bit.  Raises
    ValueError on a non-finite y, which no floor can tell from a vanishing
    or a diverging quantity.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if not np.isfinite(ys).all():
        raise ValueError(f"{int(np.sum(~np.isfinite(ys)))} non-finite values to fit")
    keep = ys > floor
    if ys.ndim == 1:
        used = int(np.sum(keep))
        if used < 2:
            return float("inf"), used
        return float(np.polyfit(np.log(xs[keep]), np.log(ys[keep]), 1)[0]), used
    used = keep.sum(axis=0)
    slopes = np.full(ys.shape[1], np.inf)
    groups = {}
    for j, mask in enumerate(keep.T):
        groups.setdefault(mask.tobytes(), []).append(j)
    for cols in groups.values():
        mask = keep[:, cols[0]]
        if used[cols[0]] >= 2:
            slopes[cols] = np.polyfit(np.log(xs[mask]), np.log(ys[mask][:, cols]), 1)[0]
    return slopes, used


@dataclass
class ExpansionResidualReport:
    """Residual norms along a perturbation sweep with fitted log-log slopes."""

    epsilons: list
    residual_norms: list            # mean over sample points, per epsilon
    fitted_slope: float
    transverse_residual_norms: list
    transverse_slope: float
    per_sample_slopes: np.ndarray


def residual_sweep(
    core: ConvexCore,
    field_factory,
    eps_list,
    sample_charts,
    step_scale: float = CLASSICAL_STEP_SCALE,
    kind: str = "first_order",
) -> ExpansionResidualReport:
    """Evaluate residuals at fixed sample points for each epsilon.

    field_factory(eps) builds the thickness field, which must be defined
    on core; kind selects the residual: "first_order" (total only),
    "second_order" (total and transverse), or "normal" (inward-normal
    expansion).  All (epsilon, sample) rows go through one
    _expansion_residual_rows call, so one kernel call per sweep, and the
    pooled, per-sample and transverse slopes through one fit_loglog call.
    An empty epsilon list or sample set raises ValueError.
    """
    eps_list = list(eps_list)
    if not eps_list:
        raise ValueError("residual_sweep needs at least one epsilon")
    charts = np.atleast_2d(np.asarray(sample_charts, dtype=float))
    if not charts.size:
        raise ValueError("residual_sweep needs at least one sample point")
    fields = [field_factory(eps) for eps in eps_list]
    if any(f.core != core for f in fields):
        raise ValueError("field is defined on a different core")
    X = core.ambient_from_chart(charts)
    vals, tvals = _expansion_residual_rows(core, fields, X, step_scale, kind)  # (epsilon, sample) each
    mean_res = vals.mean(axis=1)
    mean_t = tvals.mean(axis=1)  # zero unless kind is second_order
    columns = [mean_res[:, None], vals] + ([mean_t[:, None]] if kind == "second_order" else [])
    slopes, _ = fit_loglog(eps_list, np.hstack(columns), SLOPE_FLOOR_FACTOR * core.surface_scale())
    return ExpansionResidualReport(
        epsilons=eps_list,
        residual_norms=list(mean_res),
        fitted_slope=float(slopes[0]),
        transverse_residual_norms=list(mean_t),
        transverse_slope=float(slopes[-1]) if kind == "second_order" else float("nan"),
        per_sample_slopes=slopes[1:1 + X.shape[0]],
    )


def preconditioner_series_residual(core: ConvexCore, chart, d_values):
    """||A - 2dI - 2d^2 S|| over a thickness sweep, with fitted slope.

    With constant thickness d the preconditioner A = 2d (I - dS)^(-1)
    expands as 2dI + 2d^2 S + O(d^3); one step-operator call takes A at
    every d.
    """
    x = core.ambient_from_chart(np.reshape(np.asarray(chart, dtype=float), (1, core.dim - 1)))
    E = frames_batch(core, x)
    S = shape_operator_batch(core, x, E)[0]
    d = np.asarray(d_values, dtype=float)
    A = 2.0 * step_operator_batch(core, np.repeat(x, d.size, axis=0), d, np.repeat(E, d.size, axis=0))
    dd = d[:, None, None]
    res = np.linalg.norm(A - 2.0 * dd * np.eye(S.shape[0]) - 2.0 * dd * dd * S, axis=(1, 2))
    slope, _ = fit_loglog(d, res, 0.0)
    return res, slope


# ---------------------------------------------------------------------------
# linearization
# ---------------------------------------------------------------------------

@dataclass
class LinearizationReport:
    """DF at k fixed points and its classification, stacked by row.

    report[i] is the report of row i alone: DF (m, m), eigenvalues (m,),
    the labels as a list, stability a str, morse_index an int, degenerate
    a bool and hessian (m, m) or None.
    """

    DF: np.ndarray            # (k, m, m)
    eigenvalues: np.ndarray   # (k, m), by descending real part, then imaginary part
    eigen_labels: np.ndarray  # (k, m) "attracting" | "repelling" | "neutral"
    stability: np.ndarray     # (k,) "Attracting" | "Repelling" | "Neutral" | "Mixed" | "Saddle"
    morse_index: np.ndarray   # (k,) int
    degenerate: np.ndarray    # (k,) bool
    hessian: np.ndarray | None = None  # (k, m, m) Hess d, analytic mode only

    def __getitem__(self, i: int) -> "LinearizationReport":
        return LinearizationReport(self.DF[i], self.eigenvalues[i], self.eigen_labels[i].tolist(),
                                   str(self.stability[i]), int(self.morse_index[i]),
                                   bool(self.degenerate[i]), None if self.hessian is None else self.hessian[i])


_LABELS = np.array(["attracting", "repelling", "neutral"])
# a row's stability by the labels it has: 4 if attracting, + 2 if repelling, + 1 if neutral
_STABILITY = np.array(["", "Neutral", "Repelling", "Mixed", "Attracting", "Mixed", "Saddle", "Mixed"])


def _classify(DF: np.ndarray, hessian=None) -> LinearizationReport:
    """The report of DF, (k, m, m), at k fixed points.

    Eigenvalues within NEUTRAL_TOL of the unit circle are neutral; a row is
    Attracting, Repelling or Neutral when all its labels agree, Mixed when
    some but not all are neutral, and Saddle otherwise.  The index counts a
    row's values below -NEUTRAL_TOL, and one within NEUTRAL_TOL of 0 makes
    the row degenerate.  The values are the eigenvalues of hessian,
    (k, m, m), when it is given, and else 1 - Re mu for the eigenvalues mu
    of DF: at a fixed point DF - I = G Hess d with G symmetric positive
    definite on an admissible shell, so by Sylvester's law of inertia the
    mu above 1 + NEUTRAL_TOL count the index of -d.  A black box whose gain
    sign is unknown fixes the index only up to i -> m - i.
    """
    w = np.linalg.eigvals(DF)
    w = np.take_along_axis(w, np.lexsort((-w.imag, -w.real), axis=-1), axis=-1)
    mod = np.abs(w)
    attracting, repelling = mod < 1.0 - NEUTRAL_TOL, mod > 1.0 + NEUTRAL_TOL
    neutral = ~(attracting | repelling)
    labels = _LABELS[repelling + 2 * neutral]
    stability = _STABILITY[4 * attracting.any(-1) + 2 * repelling.any(-1) + neutral.any(-1)]
    est = 1.0 - w.real if hessian is None else np.linalg.eigvals(hessian).real
    return LinearizationReport(DF, w, labels, stability, np.sum(est < -NEUTRAL_TOL, axis=-1),
                               np.any(np.abs(est) <= NEUTRAL_TOL, axis=-1), hessian)


def _require_fixed(F: BlackBoxMap, X: np.ndarray) -> None:
    """NotAFixedPoint unless every row of X, (k, N), is fixed under F to
    tolerance; no rows make no map call."""
    if not X.shape[0]:
        return
    resid = float(np.max(np.linalg.norm(F.batch(X) - X, axis=-1)))
    if resid > FIXED_POINT_RESIDUAL_TOL:
        raise NotAFixedPoint(f"|F(c) - c| = {resid:.3e} exceeds {FIXED_POINT_RESIDUAL_TOL:.1e}")


def fixed_point_jacobian(F: BlackBoxMap, X: np.ndarray, E: np.ndarray,
                         h: float = DEFAULT_FD_STEP) -> np.ndarray:
    """finite_difference_jacobian_batch at centres X, (k, N), in frames E,
    after NotAFixedPoint unless every centre is fixed under F; no centres
    give an empty (0, m, m) stack without a map call."""
    if not X.shape[0]:
        return np.empty((0, E.shape[1], E.shape[1]))
    _require_fixed(F, X)
    return finite_difference_jacobian_batch(F, X, E, h)


def finite_difference_jacobian_batch(F: BlackBoxMap, X: np.ndarray, E: np.ndarray,
                                     h: float = DEFAULT_FD_STEP) -> np.ndarray:
    """Central-difference DF, (k, N-1, N-1), at centres X, (k, N), in frames
    E, (k, N-1, N): the frame components E diff^T of the difference
    quotients, which read only their tangent parts (valid at fixed
    points).  The step h is in units of F.core.surface_scale(), so DF does
    not change when the problem is rescaled.  The 2(N-1)k stencil points
    c +- h e_i take one retract_batch and one call of F; one centre is a
    batch of one."""
    h = h * F.core.surface_scale()
    k, m, n = E.shape
    V = (np.array([h, -h])[None, None, :, None] * E[:, :, None, :]).reshape(-1, n)
    Y = F.batch(retract_batch(F.core, np.repeat(X, 2 * m, axis=0), V)).reshape(k, m, 2, n)
    diff = (Y[:, :, 0] - Y[:, :, 1]) / (2.0 * h)
    return E @ diff.transpose(0, 2, 1)


def linearize(dom: RadialDomain, X, mode: str = "fd", step_scale: float = CLASSICAL_STEP_SCALE,
              h: float = DEFAULT_FD_STEP) -> LinearizationReport:
    """DF of the exact return map and its classification at the k fixed
    points X, (k, N) ambient rows, in the frames frames_batch(core, X).

    mode "fd": DF by central differences at step h surface_scale()
    (fixed_point_jacobian), classified from DF alone: the index counts the
    eigenvalues of DF above 1 + NEUTRAL_TOL, which by Sylvester's law of
    inertia is the index of -d, not of d.  It reads only F and the core's
    frames, not the field.
    mode "analytic": DF = I + step_scale G Hess d, with G = d (I - dS)^(-1)
    the step operator and the Hessian stack attached and the index counted
    on it.  step_scale = -2 gives the classical model DF = I - A Hess with
    A = 2G; step_scale = +1 the law the ray dynamics measures.

    step_scale is read in analytic mode only and h in fd mode only.  Raises
    NotAFixedPoint unless every row is fixed; no rows give empty stacks
    without a map call.
    """
    if mode not in ("fd", "analytic"):
        raise ValueError(f"unknown linearization mode {mode!r}")
    core = dom.core
    X = np.asarray(X, dtype=float).reshape(-1, core.dim)
    F, E = BlackBoxMap.wrap_domain(dom), frames_batch(core, X)
    if mode == "fd":
        return _classify(fixed_point_jacobian(F, X, E, h))
    _require_fixed(F, X)
    G = step_operator_batch(core, X, dom.field.ambient_value(X), E)
    H = dom.field.surface_hessian_batch(X, E)
    return _classify(np.eye(core.dim - 1) + step_scale * (G @ H), H)


def linearize_fd(dom: RadialDomain, c_star: SurfacePoint) -> LinearizationReport:
    """linearize in fd mode at one point: the report of a batch of one."""
    return linearize(dom, c_star.ambient[None], "fd")[0]


def linearize_analytic(dom: RadialDomain, c_star: SurfacePoint,
                       step_scale: float = CLASSICAL_STEP_SCALE) -> LinearizationReport:
    """linearize in analytic mode at one point: the report of a batch of one."""
    return linearize(dom, c_star.ambient[None], "analytic", step_scale=step_scale)[0]


# ---------------------------------------------------------------------------
# fixed-point search
# ---------------------------------------------------------------------------

@dataclass
class FixedPointScan:
    """Clustered fixed points with residuals (and gradient norms when the
    thickness field is visible)."""

    points: np.ndarray              # (k, N) ambient representatives, (0, N) when none
    residuals: np.ndarray           # (k,) |F(c) - c|
    grad_norms: np.ndarray | None   # (k,) |grad d|, from find_fixed_points
    continuum: bool                 # > 50% of the seed grid is fixed
    unresolved: int


def _newton_polish(F: BlackBoxMap, X: np.ndarray):
    """Newton on G(c) = F(c) - c in the tangent frame at c, on all rows of
    X at once (OffSurface if one is off the core); returns them and |G|.

    DG = DF - I with DF from finite_difference_jacobian_batch; the step is
    -pinv(DG) G in frame components, one batched pinv with singular values
    below 1e-6 of the largest dropped (along a curve of fixed points they
    are stencil noise).  The trial evaluation becomes the next centre.  A row
    stops at |G| <= eps * surface_scale(), at its first step that does not
    lower |G|, or after NEWTON_MAX_STEPS steps: at most 1 + 2 NEWTON_MAX_STEPS map calls.
    """
    core = F.core
    X = np.array(X, dtype=float, ndmin=2)
    _require_on_core(core, X)
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
        s = np.linalg.pinv(J, rcond=1e-6) @ (E @ -G[idx][:, :, None])
        steps = (s.transpose(0, 2, 1) @ E)[:, 0]
        trial = retract_batch(core, C, steps)
        G_trial = F.batch(trial) - trial
        r_trial = np.linalg.norm(G_trial, axis=-1)
        better = r_trial < r[idx]
        acc = idx[better]
        X[acc], G[acc], r[acc] = trial[better], G_trial[better], r_trial[better]
        live[idx] = better & (r[idx] > target)
    return X, r


def _within(XT: np.ndarray, A: np.ndarray, B: np.ndarray, radius: float) -> np.ndarray:
    """(len(A), len(B)) bool: rows A of the points within radius of rows B,
    the points given as their component rows XT, (N, n).  The squared
    distances are summed column by column, (s0 + s1) + s2, the order of
    np.linalg.norm(..., axis=-1), so each distance is that norm bit for bit;
    a nan distance is not within any radius."""
    s = None
    for col in XT:
        c = col[A, None] - col[B]
        c *= c
        s = c if s is None else np.add(s, c, out=s)
    np.sqrt(s, out=s)
    return s <= radius


def _greedy_clusters(X: np.ndarray, radius: float):
    """Deterministic chain clustering; returns a label per row.

    The clusters are the components of the graph joining rows at distance
    <= radius, numbered in order of their lowest row.  A block of the rows
    not yet labelled is tested against all of them at once, and every
    block row is labelled from that test: a row whose only neighbour is
    itself (or none, for a row that is not finite) is a one-row cluster,
    and the others grow their components (_block_component).  The block's
    clusters are then numbered by their lowest rows, which are block rows,
    as the block holds the lowest rows not yet labelled.  A set whose
    distances fit one temporary of CLUSTER_CHUNK floats is one block; a
    larger one starts with CLUSTER_FIRST_ROWS rows, and each later block
    has twice as many rows as the last block had clusters, so a few large
    clusters take small blocks and many small ones large blocks.  A
    radius that is not > 0 (nan included) raises ValueError."""
    if not radius > 0:
        raise ValueError("cluster radius must be positive")
    XT = np.ascontiguousarray(X.T)
    n = X.shape[0]
    labels = np.full(n, -1)
    free = np.arange(n)
    current, rows = 0, (n if n * n <= CLUSTER_CHUNK else CLUSTER_FIRST_ROWS)
    while free.size:
        block = free[:max(1, min(rows, CLUSTER_CHUNK // free.size))]
        near = _within(XT, block, free, radius)
        lone = np.count_nonzero(near, axis=1) <= 1
        if lone.all():  # one-row clusters in bulk
            labels[block] = np.arange(current, current + block.size)
            current, rows, free = current + block.size, 2 * block.size, free[block.size:]
            continue
        # owner: the block row of each free row's cluster that starts it, its
        # lowest; -1 for a row outside the block's clusters
        owner = np.full(free.size, -1)
        owner[:block.size][lone] = np.flatnonzero(lone)
        for i in np.flatnonzero(~lone):
            if owner[i] < 0:
                owner[_block_component(XT, free, near, owner, i, radius)] = i
        got = owner >= 0
        starts = np.zeros(block.size, dtype=bool)
        starts[owner[got]] = True
        number = np.cumsum(starts) + (current - 1)
        labels[free[got]] = number[owner[got]]
        rows = 2 * (number[-1] + 1 - current)
        current = number[-1] + 1
        free = free[~got]
    return labels


def _block_component(XT, free, near, owner, i, radius: float) -> np.ndarray:
    """The component of block row i among the free rows, a mask over them.

    near is the block's test (block rows x free rows), the block being the
    first len(near) free rows.  A block row's neighbours are its row of
    near, and the block rows next to a later row its column, as a distance
    is the same both ways; a later row's neighbours beyond the block are
    found by distance, one call per chunk of such rows against the rows not
    yet in a component (owner < 0)."""
    b = len(near)
    comp = near[i].copy()
    grown = np.zeros(free.size, dtype=bool)
    while True:
        edge = np.flatnonzero(comp & ~grown)
        if not edge.size:
            return comp
        grown[edge] = True
        cut = np.searchsorted(edge, b)
        comp |= near[edge[:cut]].any(axis=0)
        later = edge[cut:]
        if not later.size:
            continue
        comp[:b] |= near[:, later].any(axis=1)
        rest = b + np.flatnonzero(~comp[b:] & (owner[b:] < 0))
        if rest.size:
            reach = np.zeros(rest.size, dtype=bool)
            rows = max(1, CLUSTER_CHUNK // rest.size)
            for s in range(0, later.size, rows):
                reach |= _within(XT, free[later[s:s + rows]], free[rest], radius).any(axis=0)
            comp[rest[reach]] = True


def _least_per_label(labels: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The row of least value in each label group, by label: the lowest row
    among ties and the first nan row of a group with one, as np.argmin over
    the group's rows in ascending order gives.  One stable lexsort by
    label, nan or not and value, and the first row of each group."""
    order = np.lexsort((values, ~np.isnan(values), labels))
    first = np.ones(order.size, dtype=bool)
    first[1:] = labels[order[1:]] != labels[order[:-1]]
    return order[first]


def fixed_point_search(F: BlackBoxMap, n_seeds: int,
                       tol: float = 1e-10, max_iters: int = 100_000) -> FixedPointScan:
    """Fixed points of F from its calls alone: forward iteration for
    attractors plus a residual scan with local minimization for fixed
    points iteration cannot reach.

    Seeds on the deterministic near-uniform grid.  The residual scan is
    every orbit's first step: a seed fixed to tol there stops, the others
    settle (settle_batch) to tol, and the orbit endpoints are pre-clustered
    at radius 1e-5 * surface_scale().  The endpoint of least residual in
    each pre-cluster and the lowest-residual grid points,
    the MAX_REFINE of lowest residual among them, are polished by Newton on
    F(c) - c (_newton_polish, on the same central-difference Jacobian as
    linearize_fd), which is the final verification, then clustered at
    radius 10 * tol keeping the smallest-residual member of each cluster.
    The representatives come in lexicographic order of their ambient
    coordinates rounded to 1e-9 * surface_scale(), so their order does
    not follow round-off in the residuals, and each is checked to be on
    the core.  No seeds give an empty scan without a map call.
    """
    core = F.core
    if n_seeds < 1:
        return FixedPointScan(np.empty((0, core.dim)), np.array([]), None, False, 0)
    X = core.ambient_from_chart(fibonacci_chart_grid(core, n_seeds))
    limits = F.batch(X)
    R = np.linalg.norm(limits - X, axis=-1)
    continuum = bool(np.mean(R < tol) > 0.5)

    # the scan is every orbit's first step: a seed fixed to tol stops there
    moving = np.flatnonzero(R >= tol)
    pre_radius = 1e-5 * core.surface_scale()
    orbit = settle_batch(F, limits[moving], tol, max_iters - 1)
    limits[moving] = orbit.limits
    unresolved = int(np.sum(~orbit.converged))

    lim_res = np.linalg.norm(F.batch(limits) - limits, axis=-1)
    pre = _greedy_clusters(limits, radius=pre_radius)
    lim_best = _least_per_label(pre, lim_res)
    scan_idx = np.argsort(R)[:max(8, n_seeds // 20)]
    cand = np.concatenate([limits[lim_best], X[scan_idx]])
    cand_res = np.concatenate([lim_res[lim_best], R[scan_idx]])
    cand = cand[np.argsort(cand_res, kind="stable")[:MAX_REFINE]]

    pts, res = _newton_polish(F, cand)
    keep = res < max(tol, 1e-9)
    pts, res = pts[keep], res[keep]
    if not pts.shape[0]:
        return FixedPointScan(pts, np.array([]), None, continuum, unresolved)

    labels = _greedy_clusters(pts, radius=10.0 * tol)
    best = _least_per_label(labels, res).tolist()
    q = 1e-9 * core.surface_scale()
    best.sort(key=lambda i: tuple(np.round(pts[i] / q)))
    reps = pts[best]
    _require_on_core(core, reps)
    return FixedPointScan(reps, res[best], None, continuum, unresolved)


def find_fixed_points(dom: RadialDomain, n_seeds: int, tol: float = 1e-10,
                      max_iters: int = 100_000) -> FixedPointScan:
    """Fixed points of the exact return map with thickness-gradient norms."""
    scan = fixed_point_search(BlackBoxMap.wrap_domain(dom), n_seeds, tol=tol, max_iters=max_iters)
    # each row's norm as for one point (vecdot's dot equals the 1-D norm's bit
    # for bit): a norm over axis -1 can differ in the last bits
    G = dom.field.tangent_gradient(scan.points)
    scan.grad_norms = np.sqrt(np.vecdot(G, G))
    return scan
