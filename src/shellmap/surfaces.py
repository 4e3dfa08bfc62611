"""Convex quadric cores: charts, frames, curvature, exact ray intersection
and the retraction.

Cores are centered quadrics (x/s1)^2 + ... + (x_N/s_N)^2 = 1 in ambient
dimension N in {2, 3}.  The shape operator follows the sign convention
S = -D(nu), so the unit sphere has S = -I and a circle of radius r has
S = -1/r.  Ray hits and the retraction are batched (_ray_hit_batch,
retract_batch) and leave points at round-off on the core; the scalar
ray_first_hit and retract are batch-of-one views of them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import OffSurface, ProjectionFailed

TOL_SURFACE = 1e-12
# below this value of sin(theta) the z-colatitude chart degenerates and
# frame construction switches to the x-colatitude chart
POLE_SIN_TOL = 1e-6
GRAZING_TOL = 1e-14
_NEWTON_MAX_ITERS = 50


@dataclass(frozen=True)
class ConvexCore:
    """A centered convex quadric hypersurface descriptor.

    kind is one of "circle", "sphere", "ellipsoid"; semi_axes has length N
    and is constant for the sphere and the circle.
    The implicit function is f(x) = sum (x_i/s_i)^2 - 1 (negative inside).
    axes is semi_axes as a read-only array, and axes_sq and inv_axes_sq
    are axes**2 and 1/axes**2, all built once; equality and hashing use
    kind and semi_axes only.
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
        arr = np.array(axes)
        for name, value in (("axes", arr), ("axes_sq", arr**2), ("inv_axes_sq", 1.0 / arr**2)):
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
        """Outward unit normal (normalized implicit gradient), batched."""
        g = self.implicit_grad(x)
        return g / np.linalg.norm(g, axis=-1, keepdims=True)

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
        return float(np.max(self.axes))


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
    def from_ambient(core: ConvexCore, x, tol: float = TOL_SURFACE) -> "SurfacePoint":
        x = np.asarray(x, dtype=float)
        resid = abs(float(core.implicit(x)))
        if resid > tol:
            raise OffSurface(f"|implicit(x)| = {resid:.3e} exceeds {tol:.1e}")
        return SurfacePoint(core, core.chart_from_ambient(x), x.copy())

    @property
    def theta(self) -> float:
        return float(self.chart[0])

    @property
    def phi(self) -> float:
        if self.core.dim != 3:
            raise AttributeError("phi is defined only for N=3 cores")
        return float(self.chart[1])


@dataclass(frozen=True)
class TangentFrame:
    """Orthonormal tangent vectors at a surface point (deterministic rule)."""

    base: SurfacePoint
    vectors: np.ndarray  # shape (N-1, N)


def _chart_tangents(core: ConvexCore, X: np.ndarray) -> np.ndarray:
    """Coordinate tangents of the canonical chart, (n, N-1, N).

    For N=3, points with sin(theta) < POLE_SIN_TOL use the x-colatitude
    chart instead; the choice is internal and deterministic.
    """
    a = core.axes
    if core.dim == 2:
        u = X / a
        t = np.stack([-a[0] * u[..., 1], a[1] * u[..., 0]], axis=-1)
        return t[:, None, :]
    u = X / a
    st = np.sqrt(np.clip(1.0 - u[..., 2] ** 2, 0.0, 1.0))
    out = np.empty((X.shape[0], 2, 3))
    main = st >= POLE_SIN_TOL
    if np.any(main):
        um = u[main]
        stm = st[main]
        ct = um[..., 2]
        cp = um[..., 0] / stm
        sp = um[..., 1] / stm
        out[main, 0, 0] = a[0] * ct * cp
        out[main, 0, 1] = a[1] * ct * sp
        out[main, 0, 2] = -a[2] * stm
        out[main, 1, 0] = -a[0] * stm * sp
        out[main, 1, 1] = a[1] * stm * cp
        out[main, 1, 2] = 0.0
    if np.any(~main):
        # rotated chart: colatitude measured from the x-axis
        ur = u[~main]
        str_ = np.sqrt(np.clip(1.0 - ur[..., 0] ** 2, 0.0, 1.0))
        str_ = np.maximum(str_, 1e-300)
        ctr = ur[..., 0]
        cpr = ur[..., 1] / str_
        spr = ur[..., 2] / str_
        sub = np.empty((ur.shape[0], 2, 3))
        sub[:, 0, 0] = -a[0] * str_
        sub[:, 0, 1] = a[1] * ctr * cpr
        sub[:, 0, 2] = a[2] * ctr * spr
        sub[:, 1, 0] = 0.0
        sub[:, 1, 1] = -a[1] * str_ * spr
        sub[:, 1, 2] = a[2] * str_ * cpr
        out[~main] = sub
    return out


def frames_batch(core: ConvexCore, X: np.ndarray) -> np.ndarray:
    """Orthonormal tangent frames at ambient points X, shape (n, N-1, N).

    Gram-Schmidt on the chart coordinate tangents, with the normal
    component projected out first so orthogonality to nu holds to
    round-off regardless of chart conditioning.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    nu = core.normal(X)
    t = _chart_tangents(core, X)
    e1 = t[:, 0] - nu * np.sum(t[:, 0] * nu, axis=-1, keepdims=True)
    e1 /= np.linalg.norm(e1, axis=-1, keepdims=True)
    if core.dim == 2:
        return e1[:, None, :]
    e2 = t[:, 1] - nu * np.sum(t[:, 1] * nu, axis=-1, keepdims=True)
    e2 -= e1 * np.sum(e2 * e1, axis=-1, keepdims=True)
    e2 /= np.linalg.norm(e2, axis=-1, keepdims=True)
    return np.stack([e1, e2], axis=1)


def frame_at(core: ConvexCore, p: SurfacePoint) -> TangentFrame:
    """Deterministic orthonormal tangent frame at p."""
    return TangentFrame(p, frames_batch(core, p.ambient[None])[0])


def normal_at(core: ConvexCore, p: SurfacePoint) -> np.ndarray:
    """Outward unit normal at a surface point."""
    _require_on_surface(core, p)
    return core.normal(p.ambient)


def shape_operator_at(core: ConvexCore, p: SurfacePoint, frame: TangentFrame) -> np.ndarray:
    """Matrix of the shape operator S = -D(nu) in the given frame,
    S_ij = e_i . S e_j with S e_j from shape_action_batch (symmetrized)."""
    _require_on_surface(core, p)
    E = frame.vectors
    S = E @ shape_action_batch(core, np.broadcast_to(p.ambient, E.shape), E).T
    return 0.5 * (S + S.T)


def shape_action_batch(core: ConvexCore, X: np.ndarray, V: np.ndarray) -> np.ndarray:
    """S applied to tangent vectors V at points X (both (n, N)): for the
    quadric x^T M x = 1 with M = diag(1/s_i^2) and nu = Mx/|Mx|,
    S v = -P_t(M v)/|Mx|."""
    MX = X * core.inv_axes_sq
    MV = V * core.inv_axes_sq
    r = np.linalg.norm(MX, axis=-1, keepdims=True)
    nu = MX / r
    proj = MV - nu * np.sum(MV * nu, axis=-1, keepdims=True)
    return -proj / r


@dataclass(frozen=True)
class RayHit:
    """First intersection of a ray with the core surface."""

    t: float
    point: SurfacePoint
    grazing: bool = False


def ray_first_hit(core: ConvexCore, origin, direction):
    """Smallest t >= 0 with origin + t*direction on the core, or None on a miss.

    A batch of one through _ray_hit_batch: the closed-form (q-method)
    solve with one Newton polish; a near-zero discriminant is flagged as
    grazing.
    """
    origin = np.asarray(origin, dtype=float)
    direction = np.asarray(direction, dtype=float)
    Y, grazing = _ray_hit_batch(core, origin[None], direction[None])
    x = Y[0]
    if not np.all(np.isfinite(x)):
        return None
    t = float(np.dot(x - origin, direction) / np.dot(direction, direction))
    return RayHit(t=t, point=SurfacePoint.from_ambient(core, x), grazing=bool(grazing[0]))


def _ray_solve_batch(core: ConvexCore, O: np.ndarray, D: np.ndarray):
    """Vectorized smallest nonnegative ray parameter; nan marks a miss."""
    w = core.inv_axes_sq
    DW = D * w
    A = np.einsum("ij,ij->i", DW, D)
    B = 2.0 * np.einsum("ij,ij->i", DW, O)
    C = np.einsum("ij,ij->i", O * w, O) - 1.0
    disc = B * B - 4.0 * A * C
    grazing = np.abs(disc) < GRAZING_TOL
    disc_c = np.sqrt(np.maximum(disc, 0.0))
    q = -0.5 * (B + np.where(B < 0, -disc_c, disc_c))
    with np.errstate(divide="ignore", invalid="ignore"):
        t1 = q / A
        t2 = np.where(q != 0, C / q, np.inf)
    lo = np.minimum(t1, t2)
    t = np.where(lo >= 0, lo, np.maximum(t1, t2))
    t[(t < 0) | (disc < -GRAZING_TOL)] = np.nan
    return t, grazing


def _ray_hit_batch(core: ConvexCore, O: np.ndarray, D: np.ndarray):
    """First hits of the rays O + t D on the core, shape (n, N), with the
    grazing flags.  One Newton step along each ray keeps |implicit| at
    round-off; rows that miss are nan."""
    t, grazing = _ray_solve_batch(core, O, D)
    Y = O + t[:, None] * D
    YM = Y / core.axes_sq
    f = np.einsum("ij,ij->i", YM, Y) - 1.0
    df = 2.0 * np.einsum("ij,ij->i", YM, D)
    step = np.divide(-f, df, out=np.zeros_like(f), where=df != 0)
    Y += step[:, None] * D
    return Y, grazing


def retract_batch(core: ConvexCore, X, V) -> np.ndarray:
    """The rows of X + V (X may be one point) projected back onto the core,
    shape (n, N).

    Sphere and circle cores scale each row radially (closed form).  The
    ellipsoid takes Newton steps along the implicit gradient, each row
    until |implicit| <= TOL_SURFACE, then one final Newton step on every
    row; Newton converges quadratically, so that step takes 1e-12 down to
    round-off.  Raises ProjectionFailed if a row is still off the core
    after _NEWTON_MAX_ITERS steps or is not finite.
    """
    Y = np.atleast_2d(np.asarray(X, dtype=float) + np.asarray(V, dtype=float))
    with np.errstate(divide="ignore", invalid="ignore"):
        if core.kind != "ellipsoid":
            Y = Y * (core.semi_axes[0] / np.sqrt((Y * Y).sum(axis=-1, keepdims=True)))
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
    nu = core.normal(p.ambient)
    vn = abs(float(np.dot(v, nu)))
    if vn > 1e-8 * max(1.0, float(np.linalg.norm(v))):
        raise ValueError(f"v is not tangent: |v.nu| = {vn:.3e}")
    y = retract_batch(core, p.ambient, h * v)[0]
    return SurfacePoint(core, core.chart_from_ambient(y), y)


def _require_on_surface(core: ConvexCore, p: SurfacePoint, tol: float = TOL_SURFACE):
    resid = abs(float(core.implicit(p.ambient)))
    if resid > tol:
        raise OffSurface(f"|implicit(p)| = {resid:.3e} exceeds {tol:.1e}")


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
