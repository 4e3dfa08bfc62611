"""Convex quadric cores: charts, frames, curvature, exact ray intersection
and the retraction.

Cores are centered quadrics (x/s1)^2 + ... + (x_N/s_N)^2 = 1 in ambient
dimension N in {2, 3}.  The shape operator follows the sign convention
S = -D(nu), so the unit sphere has S = -I and a circle of radius r has
S = -1/r.  Ray hits and the retraction are batched and leave points at
round-off on the core; the scalar retract is a batch-of-one view of
retract_batch.

The return leg of the return-map kernel lives here: the resolvent
(I - d S)^(-1) (_resolvent_cols), the outer points and inward normals
(_outer_normals_cols, unchecked, and _outer_geometry_cols, which raises
ImmersionFailure on a degenerate normal) and the leg's ray hit
(_near_hit_cols).  These stages take points as the columns of contiguous
component rows (N, n), so every arithmetic step runs on whole rows, and
they sum dot products with _component_dot in einsum's order.  Each stage
updates its own products in place (the dots sum into their row p[0], the
ray solves shift C and the general one scales B and q in place, the
resolvent scales D nu by mu and adds it, the outer points are nu scaled
by d plus X, and the Newton update adds into its product), with the bits
of the one-expression forms.  They also take a single point (N,), for
which every per-point value is a numpy scalar; _per_component shapes the
per-axis constants to either form, so each stage's arithmetic is written
once.  Where the row form is a masked or reducing ufunc call, the stage
holds a point form beside it with the same IEEE values in the same
order: _component_dot sums a point's indexed products
(a0 b0 + a2 b2) + a1 b1, and the polish's guarded division takes a
point's step as -f / df if df != 0 else 0.0, the bits of the masked
np.divide (+0.0 where df = +-0, nan where df is nan).  A sphere's or
circle's constants are one value, handed on as a scalar, so a per-point
value scaled by them, such as the resolvent's diagonal, stays one (n,)
row.  The layout stays inside this module: the other modules call the
(n, N)-row entry points _return_leg_rows, _resolvent_rows,
_outer_geometry_rows and _ray_solve_batch, each of which transposes its
rows into contiguous component rows, a copy only where they are not
already the view of such rows (_return_leg_rows takes a point as it is).
_return_leg_rows hands its hits back as the (n, N) view of their
component rows, not copied out, and a point's hit as itself, an array
that owns its data; the other three copy their outputs into C-ordered
rows.

Two ray solves.  The general one, _ray_solve_cols (and _ray_solve_batch
on rows), takes any ray: an origin on, inside or outside the core, and a
null, infinite or outward direction.  It solves A t^2 + B t + C = 0 by
the q-method, picks the smallest nonnegative root with ufuncs (copysign
for the sign of B, fmax for the q = 0 guard, bit for bit the selects they
stand for) and flags grazing rays, |disc| below GRAZING_TOL in units of
surface_scale()**-2, so the band scales with the core.  It serves
admissibility_check, whose outer points lie inside the core wherever
d <= 0.  The leg's rays always start outside the core, as the kernel
checks d > 0 first and the origin is c + d nu, so the leg takes its own
hit, _near_hit_cols, with no case analysis: with b = DW . O, the dot that
B doubles (both solves take A, b and C from _ray_quadratic), and
s = sqrt(b^2 - AC), the near root is t = C / fmax(s - b, 0).
Multiplying by 2 or 4 is exact and sqrt(4 x) = 2 sqrt(x), so the general
solve's disc is exactly 4 (b^2 - AC) and, for B < 0, its q is exactly
s - b; its min(q / A, C / q) picks C / q except where rounding puts q / A
below it, which needs the two roots equal to rounding, at grazing.  So on
every ray from outside the core that the general solve hits outside its
grazing band, the leg's hit has its bits (the tests check this against a
fresh-array copy of the general solve's hit).  The rows where the two
differ:

- a thickness below round-off (d of about 1e-16 of the scale or less),
  where c + d nu rounds inside the core (C < 0): the general root choice
  takes the far root, across the core, and the near root is a tiny
  t < 0, so F is the d -> 0 limit, the identity, to round-off;
- rays inside the grazing band, which the general solve hits with s
  taken as 0, where the leg's hit misses wherever b^2 < AC;
- nearly tangent rays whose Newton polish divides by df of about 0: a
  polish step longer than POLISH_STEP_TOL surface_scale() means the ray
  grazes, and the leg's hit counts it as a miss, so every finite hit has
  |implicit| at round-off.

A ray that misses, points away from the core or grazes gives a hit that
is not finite (the divisor fmax(s - b, 0) is 0 or the grazing step is
divided by False), which the kernel's row stage counts as a miss; a
degenerate outer normal gives one too, so the leg runs the unchecked
outer geometry and the row stage names a degenerate normal only on its
failure branch.

The tangent space is computed here alone: one unit normal
(ConvexCore.normal, Mx/|Mx|), one projection (tangent_part) and frames
that are the projected chart tangents in closed form.  Frame matrices of
tangent operators (shape_operator_batch, and the step operator and
surface Hessian elsewhere) are batched over rows and frames by
_frame_matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ImmersionFailure, OffSurface, ProjectionFailed

TOL_SURFACE = 1e-12
# below this value of sin(theta) the z-colatitude chart degenerates and
# frame construction switches to the x-colatitude chart
POLE_SIN_TOL = 1e-6
GRAZING_TOL = 1e-14  # the general ray solve's grazing band, in surface_scale()**-2
# longest Newton polish step of a return-leg hit, in surface_scale(): a
# longer step means the ray grazes the core, and the hit counts as a miss
POLISH_STEP_TOL = 1e-6
_NEWTON_MAX_ITERS = 50


@dataclass(frozen=True)
class ConvexCore:
    """A centered convex quadric hypersurface descriptor.

    kind is one of "circle", "sphere", "ellipsoid"; semi_axes has length N
    and is constant for the sphere and the circle.
    The implicit function is f(x) = sum (x_i/s_i)^2 - 1 (negative inside).
    axes is semi_axes as a read-only array, and axes_sq and inv_axes_sq
    are axes**2 and 1/axes**2, all built once; for the sphere and the
    circle these two hold their one value as a single entry, which
    broadcasts over every component.  Equality and hashing use kind and
    semi_axes only.
    """

    kind: str
    semi_axes: tuple

    def __post_init__(self):
        axes = tuple(float(a) for a in self.semi_axes)
        if any(a <= 0 for a in axes):
            raise ValueError("semi-axes must be positive")
        n = len(axes)
        if self.kind == "circle" and n != 2:
            raise ValueError("circle core requires 2 semi-axes")
        if self.kind in ("sphere", "ellipsoid") and n != 3:
            raise ValueError(f"{self.kind} core requires 3 semi-axes")
        if self.kind not in ("circle", "sphere", "ellipsoid"):
            raise ValueError(f"unknown core kind {self.kind!r}")
        if self.kind != "ellipsoid" and len(set(axes)) != 1:
            raise ValueError(f"{self.kind} core requires equal semi-axes")
        object.__setattr__(self, "semi_axes", axes)
        object.__setattr__(self, "_scale", max(axes))
        arr = np.array(axes)
        per_axis = arr if self.kind == "ellipsoid" else arr[:1]
        for name, value in (("axes", arr), ("axes_sq", per_axis**2), ("inv_axes_sq", 1.0 / per_axis**2)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    # -- constructors ------------------------------------------------------
    @staticmethod
    def circle(radius: float) -> "ConvexCore":
        return ConvexCore("circle", (radius, radius))

    @staticmethod
    def sphere(radius: float) -> "ConvexCore":
        return ConvexCore("sphere", (radius, radius, radius))

    @staticmethod
    def ellipsoid(a: float, b: float, c: float) -> "ConvexCore":
        return ConvexCore("ellipsoid", (a, b, c))

    # -- basic descriptors -------------------------------------------------
    @property
    def dim(self) -> int:
        """Ambient dimension N."""
        return len(self.semi_axes)

    def implicit(self, x) -> np.ndarray:
        """f(x) = x^T M x - 1, batched over leading axes."""
        x = np.asarray(x, dtype=float)
        return ((x / self.axes) ** 2).sum(axis=-1) - 1.0

    def implicit_grad(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return 2.0 * x / self.axes_sq

    def normal(self, x) -> np.ndarray:
        """Outward unit normal Mx/|Mx|, M = diag(1/s_i^2), batched: the one
        unit normal of the package."""
        MX = np.asarray(x, dtype=float) * self.inv_axes_sq
        return MX / np.linalg.norm(MX, axis=-1, keepdims=True)

    # -- charts ------------------------------------------------------------
    def chart_from_ambient(self, x) -> np.ndarray:
        """Intrinsic parameters: (theta,) for N=2, (theta, phi) for N=3."""
        x = np.asarray(x, dtype=float)
        u = x / self.axes
        if self.dim == 2:
            theta = np.mod(np.arctan2(u[..., 1], u[..., 0]), 2 * np.pi)
            return theta[..., None]
        theta = np.arctan2(np.hypot(u[..., 0], u[..., 1]), u[..., 2])
        phi = np.mod(np.arctan2(u[..., 1], u[..., 0]), 2 * np.pi)
        return np.stack([theta, phi], axis=-1)

    def ambient_from_chart(self, chart) -> np.ndarray:
        chart = np.asarray(chart, dtype=float)
        if self.dim == 2:
            theta = chart[..., 0]
            return np.stack(
                [self.semi_axes[0] * np.cos(theta), self.semi_axes[1] * np.sin(theta)],
                axis=-1,
            )
        theta, phi = chart[..., 0], chart[..., 1]
        st, ct = np.sin(theta), np.cos(theta)
        return np.stack(
            [
                self.semi_axes[0] * st * np.cos(phi),
                self.semi_axes[1] * st * np.sin(phi),
                self.semi_axes[2] * ct,
            ],
            axis=-1,
        )

    def surface_scale(self) -> float:
        """Characteristic chart length scale (largest semi-axis)."""
        return self._scale


@dataclass(frozen=True)
class SurfacePoint:
    """A point of the core surface with consistent chart and ambient data."""

    core: ConvexCore
    chart: np.ndarray
    ambient: np.ndarray

    @staticmethod
    def from_chart(core: ConvexCore, *chart) -> "SurfacePoint":
        ch = np.atleast_1d(np.asarray(chart, dtype=float).squeeze())
        if ch.shape != (core.dim - 1,):
            raise ValueError(f"chart must have {core.dim - 1} parameters")
        return SurfacePoint(core, ch, core.ambient_from_chart(ch))

    @staticmethod
    def from_ambient(core: ConvexCore, x) -> "SurfacePoint":
        x = np.asarray(x, dtype=float)
        _require_on_core(core, x)
        return SurfacePoint(core, core.chart_from_ambient(x), x.copy())


@dataclass(frozen=True)
class TangentFrame:
    """Orthonormal tangent vectors at a surface point (deterministic rule)."""

    vectors: np.ndarray  # shape (N-1, N)


def tangent_part(nu: np.ndarray, V: np.ndarray) -> np.ndarray:
    """V - (V . nu) nu: the part of V orthogonal to the unit vectors nu, the
    one tangent projection.  Broadcasts over leading axes, so nu of shape
    (k, 1, N) projects V of shape (k, m, N) row by row."""
    return V - nu * np.sum(V * nu, axis=-1, keepdims=True)


def _chart_tangents(core: ConvexCore, X: np.ndarray) -> np.ndarray:
    """Tangents of the colatitude chart about the axis e at ambient points
    X, each times the sine of the colatitude, (n, N-1, N): with u = x/s,
    s(u(u . e) - e) and s(e x u).  For N=3, e is the z-axis, or the x-axis
    where sin(theta) < POLE_SIN_TOL; for N=2, e is out of the plane and
    only s(e x u) is a tangent.  Written component by component, so one
    point costs a few small ufunc calls."""
    a = core.axes
    u = X / a
    if core.dim == 2:
        return (a * np.stack([-u[:, 1], u[:, 0]], axis=-1))[:, None, :]
    ux, uy, uz = u[:, 0], u[:, 1], u[:, 2]
    ez = (np.hypot(ux, uy) >= POLE_SIN_TOL).astype(float)
    ex = 1.0 - ez
    c = ex * ux + ez * uz  # u . e
    T = np.stack([ux * c - ex, uy * c, uz * c - ez,
                  -ez * uy, ez * ux - ex * uz, ex * uy], axis=-1)
    return T.reshape(-1, 2, 3) * a


def frames_batch(core: ConvexCore, X: np.ndarray) -> np.ndarray:
    """Orthonormal tangent frames at ambient points X, shape (n, N-1, N):
    Gram-Schmidt on the chart tangents, their normal parts removed first so
    orthogonality to nu holds to round-off however the chart is conditioned."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    T = tangent_part(core.normal(X)[:, None, :], _chart_tangents(core, X))
    e1 = T[:, 0] / np.linalg.norm(T[:, 0], axis=-1, keepdims=True)
    if core.dim == 2:
        return e1[:, None, :]
    e2 = tangent_part(e1, T[:, 1])
    e2 /= np.linalg.norm(e2, axis=-1, keepdims=True)
    return np.stack([e1, e2], axis=1)


def frame_at(core: ConvexCore, p: SurfacePoint) -> TangentFrame:
    """Deterministic orthonormal tangent frame at p."""
    return TangentFrame(frames_batch(core, p.ambient[None])[0])


def _frame_matrices(X: np.ndarray, E: np.ndarray, action) -> np.ndarray:
    """Symmetrized frame matrices sym(E op(E)^T), (k, m, m), of a tangent
    operator at the rows of X, (k, N), in the frames E, (k, m, N): one call
    of its action, action(Y, V) on rows Y and vectors V both (k m, N), with
    each row of X repeated over its m frame vectors."""
    k, m, n = E.shape
    A = action(np.repeat(X, m, axis=0), E.reshape(-1, n)).reshape(k, m, n)
    M = E @ A.transpose(0, 2, 1)
    return 0.5 * (M + M.transpose(0, 2, 1))


def shape_operator_batch(core: ConvexCore, X: np.ndarray, E: np.ndarray) -> np.ndarray:
    """Matrices of the shape operator S = -D(nu), (k, m, m), at core points
    X, (k, N), in the frames E, (k, m, N): S_ij = e_i . S e_j with S e_j
    from shape_action_batch (symmetrized)."""
    return _frame_matrices(X, E, lambda Y, V: shape_action_batch(core, Y, V))


def shape_action_batch(core: ConvexCore, X: np.ndarray, V: np.ndarray) -> np.ndarray:
    """S applied to tangent vectors V at points X (both (n, N)): for the
    quadric x^T M x = 1 with M = diag(1/s_i^2) and nu = Mx/|Mx|,
    S v = -P_t(M v)/|Mx|."""
    r = np.linalg.norm(X * core.inv_axes_sq, axis=-1, keepdims=True)
    return -tangent_part(core.normal(X), V * core.inv_axes_sq) / r


def _row_dot(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """The dot of each pair of (n, N) rows of A and B: the products summed
    over the columns one after another, (P0 + P1) + P2, the order in which
    np.linalg.norm(A, axis=-1) and (A * B).sum(axis=-1) sum them, without a
    reduction over a length-N inner loop.  Two points, (N,), give their dot
    as a numpy scalar, summed in the same order."""
    P = (A * B).T
    s = P[0] + P[1]
    if len(P) == 3:
        s += P[2]
    return s


def _component_dot(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Dot products of the points of A and B, component rows (N, n) each:
    p = A * B summed as (p[0] + p[2]) + p[1] for N=3 and p[0] + p[1] for
    N=2, the order in which numpy's einsum("ij,ij->i") sums C-ordered
    (n, N) rows, so the sums equal its row dots bit for bit, but where
    every product is -0.0: einsum's sum starts at +0.0 and gives +0.0,
    this one -0.0.  The sums accumulate in place in the row p[0].  Two
    points, (N,), give their dot as a numpy scalar from the indexed
    products, summed in the same order."""
    if A.ndim == 1:
        if len(A) == 3:
            return (A[0] * B[0] + A[2] * B[2]) + A[1] * B[1]
        return A[0] * B[0] + A[1] * B[1]
    p = A * B
    s = p[0]
    if len(p) == 3:
        s += p[2]
    s += p[1]
    return s


def _per_component(v: np.ndarray, X: np.ndarray):
    """v, one value per component, shaped to scale component rows X: a
    column (N, 1) against rows (N, n), and v itself against a point (N,).
    The one entry of an isotropic core's v is handed on as a scalar, so
    a per-point value scaled by it stays one (n,) row or one scalar."""
    if len(v) == 1:
        return v[0]
    return v[:, None] if X.ndim > 1 else v


def _ray_quadratic(core: ConvexCore, O: np.ndarray, D: np.ndarray):
    """A, b and C of the rays O + t D on the core, A t^2 + 2 b t + C = 0,
    origins and directions as component rows (N, n)."""
    w = _per_component(core.inv_axes_sq, O)
    DW = D * w
    A = _component_dot(DW, D)
    b = _component_dot(DW, O)
    C = _component_dot(O * w, O)
    C -= 1.0
    return A, b, C


def _ray_solve_cols(core: ConvexCore, O: np.ndarray, D: np.ndarray):
    """Smallest nonnegative parameters t of the rays O + t D, origins and
    directions as component rows (N, n), by the closed-form (q-method)
    solve: nan on a miss, with a grazing flag per ray where the
    discriminant is near zero."""
    A, B, C = _ray_quadratic(core, O, D)
    B *= 2.0
    disc = B * B
    disc -= 4.0 * A * C
    band = GRAZING_TOL / core.surface_scale() ** 2
    grazing = np.abs(disc) < band
    disc_c = np.sqrt(np.maximum(disc, 0.0))
    # disc_c with the sign of B; + 0.0 turns B = -0.0 into +0.0, so it
    # takes +disc_c as B < 0 is false there
    q = B + np.copysign(disc_c, B + 0.0)
    q *= -0.5
    # A = 0 (a null direction) leaves q / A undefined, as nan or +-inf, so
    # no mask can stand in for this block.  Where q = +-0, C / q is +-inf or
    # nan and t1 = q / A is +-0 or nan, so t2 = -inf there (fmax takes nan
    # to -inf) leaves the choice below at t1, as t2 = +inf would; where
    # q != 0, C / q is nan only if q is, and then so is t1
    with np.errstate(divide="ignore", invalid="ignore"):
        t1 = q / A
        t2 = np.fmax(C / q, -np.inf)
    lo = np.minimum(t1, t2)
    t = np.where(lo >= 0, lo, np.maximum(t1, t2))
    t[(t < 0) | (disc < -band)] = np.nan
    return t, grazing


def _ray_solve_batch(core: ConvexCore, O: np.ndarray, D: np.ndarray):
    """_ray_solve_cols on rays given as (n, N) rows, each transposed into
    contiguous component rows."""
    return _ray_solve_cols(core, np.ascontiguousarray(O.T), np.ascontiguousarray(D.T))


@np.errstate(divide="ignore", invalid="ignore")
def _near_hit_cols(core: ConvexCore, O: np.ndarray, D: np.ndarray) -> np.ndarray:
    """First hits on the core of the rays O + t D of the return leg, which
    start outside the core and have unit directions, as component rows
    (N, n) like O and D; a ray that misses gives a hit that is not finite.

    With the quadratic written A t^2 + 2 b t + C = 0 and s = sqrt(b^2 - AC),
    the near root is t = C / (s - b), taken as C / fmax(s - b, 0): where the
    ray misses (b^2 < AC, s nan) or points away from the core (s - b <= 0)
    the divisor is 0 and t is infinite, so the hit is not finite.  One Newton
    step along the ray, a division that takes the step as 0 where df = 0,
    keeps |implicit| at round-off; a step longer than POLISH_STEP_TOL
    surface_scale() means the ray grazes the core, and its hit is not
    finite either.  See the module docstring for why these are the bits of
    the general solve (_ray_solve_cols) on every ray it hits outside its
    grazing band, and for the rows where they differ: a thickness below
    round-off, the grazing band and nearly tangent rays.

    The divide and invalid flags are ignored over the whole stage, the
    quadratic included (np.errstate as a decorator, about half the cost of
    a with block): a ray that is not finite gives a hit that is not
    finite, with no warning from this stage."""
    A, b, C = _ray_quadratic(core, O, D)
    t = C / np.fmax(np.sqrt(b * b - A * C) - b, 0.0)
    Y = t * D
    Y += O
    YM = Y / _per_component(core.axes_sq, Y)
    f = _component_dot(YM, Y)
    f -= 1.0
    df = _component_dot(YM, D)
    df *= 2.0
    if O.ndim > 1:
        step = np.divide(-f, df, out=np.zeros(np.shape(f)), where=df != 0)
    else:
        # a point's f and df are numpy scalars: the bits of the masked
        # division, +0.0 where df = +-0 and nan where df is nan
        step = -f / df if df != 0 else 0.0
    # a grazing step is divided by False, so its hit is not finite
    Y += step / (abs(step) <= POLISH_STEP_TOL * core.surface_scale()) * D
    return Y


def _resolvent_cols(core: ConvexCore, X: np.ndarray, d: np.ndarray, V: np.ndarray):
    """Core normals nu and (I - d S)^(-1) applied to the tangent parts of
    V at core points X with thickness d: (nu, R).  X, V, nu and R are
    component rows (N, n), d is (n,).

    With r = |Mx|, nu = Mx/r and D = (I + (d/r) M)^(-1), the tangent
    solution of (I - d S) u = v_t is u = D (v_t + mu nu) with
    mu = -(nu . D v_t)/(nu . D nu), which equals D v + mu' D nu with
    mu' = -(nu . D v)/(nu . D nu) for the ambient vector v.  The tilt m is
    the case V = grad d.  X and V may also be one point (N,), with d a
    scalar.  On a sphere or circle M is a scalar, so the diagonal D is one
    (n,) row (a scalar at a point).  For d > 0 every step is defined; rows where
    I - d S is singular (d <= 0) are not finite and raise floating-point
    warnings, which a caller that admits such d silences.
    """
    w = _per_component(core.inv_axes_sq, X)
    nu = X * w
    r = np.sqrt(_component_dot(nu, nu))
    nu /= r
    D = d / r * w
    D += 1.0
    D = 1.0 / D
    Dnu = D * nu
    mu = -_component_dot(Dnu, V) / _component_dot(Dnu, nu)
    R = D * V
    Dnu *= mu
    R += Dnu
    return nu, R


def _outer_normals_cols(core: ConvexCore, X: np.ndarray, d: np.ndarray, G: np.ndarray):
    """Outer points X + d nu, inward normals (m - nu)/|m - nu| and the norms
    |m - nu| above core points X with thickness d and ambient gradient G of
    the field, X and G component rows (N, n), unchecked.  |m - nu| >= 1
    wherever m is finite, so for d > 0 no step divides by zero."""
    nu, nvec = _resolvent_cols(core, X, d, G)
    nvec -= nu  # m - nu
    norms = np.sqrt(_component_dot(nvec, nvec))
    nvec /= norms
    nu *= d  # the outer points X + d nu
    nu += X
    return nu, nvec, norms


def _outer_geometry_cols(core: ConvexCore, X: np.ndarray, d: np.ndarray, G: np.ndarray):
    """_outer_normals_cols' outer points and inward normals, where a
    degenerate normal (|m - nu| not below inf at a finite d) raises
    ImmersionFailure."""
    Xout, nvec, norms = _outer_normals_cols(core, X, d, G)
    ok = norms < np.inf
    if np.count_nonzero(ok) < ok.size:
        # a nan seed is left to fail in the ray solve
        bad = ~ok & np.isfinite(d)
        if bad.any():
            raise ImmersionFailure(f"degenerate outer normal at {int(np.sum(bad))} points")
    return Xout, nvec


def _return_leg_rows(core: ConvexCore, X: np.ndarray, d: np.ndarray, G: np.ndarray) -> np.ndarray:
    """The return leg on (n, N) rows: from core points X with thickness d
    and ambient gradient G, out to the outer points, then back along the
    inward normals to their first hits on the core (_outer_normals_cols,
    then _near_hit_cols), with no check for a degenerate normal, whose
    hit is not finite.  X and G are transposed into contiguous component
    rows (no copy where they are the view of such rows, as the plain
    step's rows and a zonal field's gradient are) and the hits come out as
    the (n, N) view of theirs; rays that miss are not finite.  A point X,
    (N,), with scalar d and G, (N,), goes to the stages as it is and gives
    its hit as a point."""
    if X.ndim > 1:
        X, G = np.ascontiguousarray(X.T), np.ascontiguousarray(G.T)
    Xout, nvec, _ = _outer_normals_cols(core, X, d, G)
    Y = _near_hit_cols(core, Xout, nvec)
    return Y.T if Y.ndim > 1 else Y


def _resolvent_rows(core: ConvexCore, X: np.ndarray, d: np.ndarray, V: np.ndarray):
    """_resolvent_cols on (n, N) rows X and V, each transposed into
    contiguous component rows: (nu, R) as (n, N) rows."""
    X, V = np.ascontiguousarray(X.T), np.ascontiguousarray(V.T)
    return tuple(A.T.copy() for A in _resolvent_cols(core, X, d, V))


def _outer_geometry_rows(core: ConvexCore, X: np.ndarray, d: np.ndarray, G: np.ndarray):
    """_outer_geometry_cols on (n, N) rows X and G: (outer points, inward
    normals) as (n, N) rows; X and G are transposed into contiguous
    component rows first."""
    X, G = np.ascontiguousarray(X.T), np.ascontiguousarray(G.T)
    return tuple(A.T.copy() for A in _outer_geometry_cols(core, X, d, G))


def retract_batch(core: ConvexCore, X, V) -> np.ndarray:
    """The rows of X + V (X may be one point) projected back onto the core,
    shape (n, N).

    Sphere and circle cores scale each row radially (closed form), by the
    radius over the root of its sum of squares, which _row_dot adds column
    by column with the bits of (Y * Y).sum(axis=-1).  The ellipsoid takes
    Newton steps along the implicit gradient, each row until |implicit| <=
    TOL_SURFACE, then one final Newton step on every row; Newton converges
    quadratically, so that step takes 1e-12 down to round-off.  Raises
    ProjectionFailed if a row is still off the core after _NEWTON_MAX_ITERS
    steps or is not finite.
    """
    Y = np.atleast_2d(np.asarray(X, dtype=float) + np.asarray(V, dtype=float))
    with np.errstate(divide="ignore", invalid="ignore"):
        if core.kind != "ellipsoid":
            Y *= (core.semi_axes[0] / np.sqrt(_row_dot(Y, Y)))[:, None]
        else:
            for _ in range(_NEWTON_MAX_ITERS):
                f = core.implicit(Y)
                live = np.abs(f) > TOL_SURFACE
                if not live.any():
                    break
                # f = 0 makes the step an exact no-op on converged rows
                Y = _newton_to_surface(core, Y, np.where(live, f, 0.0))
            else:
                raise ProjectionFailed(f"max |implicit| = {np.max(np.abs(core.implicit(Y))):.3e} "
                                       f"after {_NEWTON_MAX_ITERS} iterations")
            Y = _newton_to_surface(core, Y, f)
    if not np.isfinite(Y).all():
        raise ProjectionFailed(f"{int(np.sum(~np.isfinite(Y).all(axis=-1)))} rows are not finite")
    return Y


def _newton_to_surface(core: ConvexCore, Y: np.ndarray, f: np.ndarray) -> np.ndarray:
    """One Newton step on the implicit function along its gradient."""
    g = core.implicit_grad(Y)
    return Y - (f / (g * g).sum(axis=-1))[:, None] * g


def retract(core: ConvexCore, p: SurfacePoint, v, h: float) -> SurfacePoint:
    """Ambient step p + h*v followed by projection back onto the surface.

    v must be tangent at p; this is the computational surrogate for the
    exponential map, accurate to second order.  A batch of one through
    retract_batch.
    """
    v = np.asarray(v, dtype=float)
    vn = abs(float(np.dot(v, core.normal(p.ambient))))
    if vn > 1e-8 * max(1.0, float(np.linalg.norm(v))):
        raise ValueError(f"v is not tangent: |v.nu| = {vn:.3e}")
    y = retract_batch(core, p.ambient, h * v)[0]
    return SurfacePoint(core, core.chart_from_ambient(y), y)


def _require_on_core(core: ConvexCore, X, tol: float = TOL_SURFACE) -> None:
    """OffSurface unless every ambient point of X, one point or (n, N),
    is finite and has |implicit| <= tol."""
    resid = np.abs(np.atleast_1d(core.implicit(X)))
    bad = ~(resid <= tol)  # nan compares false, so a non-finite point is bad
    if bad.any():
        raise OffSurface(f"{int(bad.sum())} of {bad.size} points are not finite or off the core: "
                         f"max |implicit(x)| = {np.max(resid[bad]):.3e} exceeds {tol:.1e}")


def fibonacci_chart_grid(core: ConvexCore, n: int) -> np.ndarray:
    """Deterministic near-uniform chart grid: Fibonacci lattice for N=3,
    uniform angles for N=2.  Returns chart parameters, shape (n, N-1)."""
    if core.dim == 2:
        theta = 2.0 * np.pi * np.arange(n) / n
        return theta[:, None]
    i = np.arange(n)
    z = 1.0 - (2.0 * i + 1.0) / n
    theta = np.arccos(np.clip(z, -1.0, 1.0))
    golden = np.pi * (3.0 - np.sqrt(5.0))
    phi = np.mod(i * golden, 2.0 * np.pi)
    return np.stack([theta, phi], axis=-1)
