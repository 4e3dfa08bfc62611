"""Thickness fields on the core surface with analytic surface calculus.

Every field kind exposes a smooth ambient extension (value, gradient,
Hessian).  Tangential derivatives of any extension agree with derivatives
of the surface restriction, so the frame components of the surface
gradient are e_i . grad D and the surface Hessian in an orthonormal frame
is

    H_ij = e_i^T (hess D) e_j + (grad D . nu) S_ij,

the second derivative along retraction curves (for the projection
retractions used here the curve acceleration is S(v,v) nu, so this
coincides with the intrinsic Hessian).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InadmissibleThickness
from .surfaces import (
    ConvexCore,
    SurfacePoint,
    TangentFrame,
    fibonacci_chart_grid,
    frame_at,
    retract,
    shape_operator_at,
)


def legendre_p2(x):
    """Degree-2 Legendre polynomial (3x^2 - 1)/2."""
    x = np.asarray(x, dtype=float)
    return 0.5 * (3.0 * x * x - 1.0)


class ThicknessField:
    """Base class; subclasses provide the ambient extension."""

    def __init__(self, core: ConvexCore):
        self.core = core

    # -- ambient extension (batched over leading axes) ----------------------
    def ambient_value(self, X) -> np.ndarray:
        raise NotImplementedError

    def ambient_grad(self, X) -> np.ndarray:
        raise NotImplementedError

    def ambient_hess(self, x):
        """Ambient Hessian at a single point, or None if unavailable there."""
        raise NotImplementedError

    # -- surface operations --------------------------------------------------
    def eval(self, p: SurfacePoint) -> float:
        """Thickness d(p) > 0; raises InadmissibleThickness otherwise."""
        self._check_point(p)
        val = float(self.ambient_value(p.ambient))
        if val <= 0.0:
            raise InadmissibleThickness(f"d = {val:.6g} <= 0 at chart {p.chart}")
        return val

    def value_unchecked(self, p: SurfacePoint) -> float:
        """Raw value without the positivity guard (diagnostics only)."""
        return float(self.ambient_value(p.ambient))

    def surface_gradient(self, p: SurfacePoint, frame: TangentFrame | None = None) -> np.ndarray:
        """Riemannian gradient components in the frame, length N-1."""
        self._check_point(p)
        if frame is None:
            frame = frame_at(self.core, p)
        g = self.ambient_grad(p.ambient)
        return frame.vectors @ g

    def surface_gradient_ambient(self, p: SurfacePoint) -> np.ndarray:
        """Riemannian gradient as an ambient tangent vector."""
        g = self.ambient_grad(p.ambient)
        nu = self.core.normal(p.ambient)
        return g - nu * float(np.dot(g, nu))

    def surface_hessian(self, p: SurfacePoint, frame: TangentFrame | None = None) -> np.ndarray:
        """Riemannian Hessian matrix in the frame (symmetric).

        Defined as the second derivative along retraction curves; computed
        from the ambient extension plus the curvature correction, falling
        back to finite differences along retractions where a field kind has
        no usable ambient Hessian (zonal profiles at chart poles).
        """
        self._check_point(p)
        if frame is None:
            frame = frame_at(self.core, p)
        Hamb = self.ambient_hess(p.ambient)
        if Hamb is None:
            return finite_difference_hessian(self, p, frame)
        E = frame.vectors
        g = self.ambient_grad(p.ambient)
        nu = self.core.normal(p.ambient)
        S = shape_operator_at(self.core, p, frame)
        H = E @ Hamb @ E.T + float(np.dot(g, nu)) * S
        return 0.5 * (H + H.T)

    # -- validation ----------------------------------------------------------
    def check_positivity(self, n: int = 10000):
        """Minimum of the raw field over a deterministic validation grid.

        Returns (ok, min_value, argmin_chart).
        """
        grid = fibonacci_chart_grid(self.core, n)
        X = self.core.ambient_from_chart(grid)
        vals = self.ambient_value(X)
        k = int(np.argmin(vals))
        return bool(vals[k] > 0.0), float(vals[k]), grid[k]

    def _check_point(self, p: SurfacePoint):
        if p.core != self.core:
            raise ValueError("surface point belongs to a different core")


def finite_difference_hessian(field: "ThicknessField", p: SurfacePoint,
                              frame: TangentFrame, h: float | None = None,
                              richardson: bool = False) -> np.ndarray:
    """Second differences of eval along retraction curves, polarized.

    Default step h = eps_machine^(1/3) * max(1, chart scale); the
    richardson flag halves the step once and extrapolates.
    """
    if h is None:
        h = np.cbrt(np.finfo(float).eps) * max(1.0, field.core.surface_scale())
    E = frame.vectors
    k = E.shape[0]
    f0 = field.ambient_value(p.ambient)

    def dd(v, step):
        fp = field.ambient_value(retract(field.core, p, v, step).ambient)
        fm = field.ambient_value(retract(field.core, p, v, -step).ambient)
        return (fp - 2.0 * f0 + fm) / (step * step)

    def entry(v):
        if not richardson:
            return dd(v, h)
        d1 = dd(v, h)
        d2 = dd(v, h / 2.0)
        return (4.0 * d2 - d1) / 3.0

    H = np.empty((k, k))
    for i in range(k):
        H[i, i] = entry(E[i])
    for i in range(k):
        for j in range(i + 1, k):
            H[i, j] = H[j, i] = 0.25 * (entry(E[i] + E[j]) - entry(E[i] - E[j]))
    return H


class ConstantField(ThicknessField):
    """d = d0 everywhere."""

    def __init__(self, core: ConvexCore, d0: float):
        super().__init__(core)
        self.d0 = float(d0)

    def ambient_value(self, X):
        X = np.asarray(X, dtype=float)
        return np.full(X.shape[:-1], self.d0)

    def ambient_grad(self, X):
        X = np.asarray(X, dtype=float)
        return np.zeros_like(X)

    def ambient_hess(self, x):
        return np.zeros((self.core.dim, self.core.dim))


class ZonalLegendreField(ThicknessField):
    """d = d0 + eps * P2(w) with w the cosine of the chart colatitude
    about `axis` (w = <x/s, axis>, a linear function of x)."""

    def __init__(self, core: ConvexCore, d0: float, eps: float, axis=(0.0, 0.0, 1.0)):
        super().__init__(core)
        if core.dim != 3:
            raise ValueError("zonal fields require an N=3 core")
        self.d0 = float(d0)
        self.eps = float(eps)
        ax = np.asarray(axis, dtype=float)
        self.axis = ax / np.linalg.norm(ax)
        # grad of w(x) = <x/s, axis> is constant
        self._gw = self.axis / core.axes

    def _w(self, X):
        return np.einsum("...j,j->...", np.asarray(X, dtype=float), self._gw)

    def ambient_value(self, X):
        return self.d0 + self.eps * legendre_p2(self._w(X))

    def ambient_grad(self, X):
        w = self._w(X)
        return (3.0 * self.eps * w)[..., None] * self._gw

    def ambient_hess(self, x):
        return 3.0 * self.eps * np.outer(self._gw, self._gw)


class ZonalProfileField(ThicknessField):
    """d = d0 + eps * f(theta) for a user profile f of the colatitude about
    `axis`.  df and d2f are required (the surface calculus is exact away
    from the axis poles; the Hessian falls back to retraction-curve
    differences inside the pole guard band)."""

    _POLE_BAND = 1e-4

    def __init__(self, core: ConvexCore, d0: float, eps: float, f, df, d2f, axis=(0.0, 0.0, 1.0)):
        super().__init__(core)
        if core.dim != 3:
            raise ValueError("zonal fields require an N=3 core")
        self.d0 = float(d0)
        self.eps = float(eps)
        self.f, self.df, self.d2f = f, df, d2f
        ax = np.asarray(axis, dtype=float)
        self.axis = ax / np.linalg.norm(ax)
        self._gw = self.axis / core.axes

    def _w(self, X):
        return np.clip(np.einsum("...j,j->...", np.asarray(X, dtype=float), self._gw), -1.0, 1.0)

    def ambient_value(self, X):
        return self.d0 + self.eps * np.asarray(self.f(np.arccos(self._w(X))))

    def ambient_grad(self, X):
        w = self._w(X)
        theta = np.arccos(w)
        s = np.sqrt(np.clip(1.0 - w * w, 0.0, None))
        # q = f'(theta)/sin(theta); smooth zonal profiles have the limit
        # q -> f''(pole) at the poles
        q = np.where(
            s > self._POLE_BAND,
            np.asarray(self.df(theta)) / np.maximum(s, 1e-300),
            np.where(w > 0, self.d2f(np.zeros_like(theta)), -np.asarray(self.d2f(np.full_like(theta, np.pi)))),
        )
        return (-self.eps * q)[..., None] * self._gw

    def ambient_hess(self, x):
        w = float(self._w(np.asarray(x, dtype=float)))
        s2 = 1.0 - w * w
        if s2 <= self._POLE_BAND**2:
            return None  # triggers the retraction-curve fallback
        theta = np.arccos(w)
        s = np.sqrt(s2)
        q = float(self.df(theta)) / s
        g2 = (float(self.d2f(theta)) - q * w) / s2
        return self.eps * g2 * np.outer(self._gw, self._gw)


class Fourier2DField(ThicknessField):
    """d = d0 + sum_k a_k cos(k theta) on an N=2 core."""

    def __init__(self, core: ConvexCore, d0: float, terms):
        super().__init__(core)
        if core.dim != 2:
            raise ValueError("fourier fields require an N=2 core")
        self.d0 = float(d0)
        self.terms = [(int(k), float(a)) for k, a in terms]

    def _theta(self, X):
        X = np.asarray(X, dtype=float)
        u = X / self.core.axes
        return np.arctan2(u[..., 1], u[..., 0])

    def _grad_theta(self, X):
        X = np.asarray(X, dtype=float)
        a = self.core.axes
        u = X / a
        rho2 = u[..., 0] ** 2 + u[..., 1] ** 2
        return np.stack([-u[..., 1] / (a[0] * rho2), u[..., 0] / (a[1] * rho2)], axis=-1)

    def ambient_value(self, X):
        th = self._theta(X)
        val = np.full_like(th, self.d0, dtype=float)
        for k, amp in self.terms:
            val = val + amp * np.cos(k * th)
        return val

    def ambient_grad(self, X):
        th = self._theta(X)
        gth = self._grad_theta(X)
        dval = np.zeros_like(th, dtype=float)
        for k, amp in self.terms:
            dval = dval - amp * k * np.sin(k * th)
        return dval[..., None] * gth

    def ambient_hess(self, x):
        x = np.asarray(x, dtype=float)
        a = self.core.axes
        u = x / a
        rho2 = u[0] ** 2 + u[1] ** 2
        th = float(self._theta(x))
        gth = self._grad_theta(x)
        hess_th = np.array(
            [
                [2 * u[0] * u[1] / (a[0] ** 2), (u[1] ** 2 - u[0] ** 2) / (a[0] * a[1])],
                [(u[1] ** 2 - u[0] ** 2) / (a[0] * a[1]), -2 * u[0] * u[1] / (a[1] ** 2)],
            ]
        ) / rho2**2
        d1 = sum(-amp * k * np.sin(k * th) for k, amp in self.terms)
        d2 = sum(-amp * k * k * np.cos(k * th) for k, amp in self.terms)
        return d2 * np.outer(gth, gth) + d1 * hess_th


class ScaledField(ThicknessField):
    """lambda * inner, exactly (value, gradient, Hessian all scale)."""

    def __init__(self, scale: float, inner: ThicknessField):
        super().__init__(inner.core)
        self.scale = float(scale)
        self.inner = inner

    def ambient_value(self, X):
        return self.scale * self.inner.ambient_value(X)

    def ambient_grad(self, X):
        return self.scale * self.inner.ambient_grad(X)

    def ambient_hess(self, x):
        H = self.inner.ambient_hess(x)
        return None if H is None else self.scale * H


class SumField(ThicknessField):
    """Pointwise sum of fields on a common core.

    Used to compose perturbations without an axis of symmetry, e.g. two
    zonal bumps about different axes on a sphere.
    """

    def __init__(self, parts):
        parts = list(parts)
        if not parts:
            raise ValueError("SumField needs at least one part")
        core = parts[0].core
        if any(p.core != core for p in parts):
            raise ValueError("all parts must share one core")
        super().__init__(core)
        self.parts = parts

    def ambient_value(self, X):
        return sum(p.ambient_value(X) for p in self.parts)

    def ambient_grad(self, X):
        return sum(p.ambient_grad(X) for p in self.parts)

    def ambient_hess(self, x):
        total = np.zeros((self.core.dim, self.core.dim))
        for p in self.parts:
            H = p.ambient_hess(x)
            if H is None:
                return None
            total = total + H
        return total
