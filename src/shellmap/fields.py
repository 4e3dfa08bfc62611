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
    retract_batch,
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

    def ambient_hess(self, X) -> np.ndarray:
        """Ambient Hessian, shape X.shape + (N,); nan on the points where a
        field kind has no closed form (zonal profiles at the axis poles)."""
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
        back to finite differences along retractions where the ambient
        Hessian is not finite (zonal profiles at chart poles).
        """
        self._check_point(p)
        if frame is None:
            frame = frame_at(self.core, p)
        Hamb = self.ambient_hess(p.ambient)
        if not np.isfinite(Hamb).all():
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
    """Second differences of the value along retraction curves, polarized.

    Default step h = eps_machine^(1/3) * max(1, chart scale); the
    richardson flag halves the step once and extrapolates.  The whole
    stencil, p +- s v for the directions v = e_i and e_i +- e_j (i < j) and
    the steps s = h (and h/2), is retracted in one retract_batch call and
    evaluated with p in one ambient_value call.
    """
    if h is None:
        h = np.cbrt(np.finfo(float).eps) * max(1.0, field.core.surface_scale())
    E = frame.vectors
    k = E.shape[0]
    I, J = np.triu_indices(k, 1)
    dirs = np.concatenate([E, E[I] + E[J], E[I] - E[J]])
    steps = np.array([h, h / 2.0] if richardson else [h])
    signed = np.concatenate([steps, -steps])
    V = (signed[:, None, None] * dirs[None]).reshape(-1, E.shape[1])
    Y = retract_batch(field.core, p.ambient, V)
    vals = field.ambient_value(np.concatenate([p.ambient[None], Y]))
    f = vals[1:].reshape(2, steps.size, dirs.shape[0])
    dd = (f[0] - 2.0 * vals[0] + f[1]) / (steps * steps)[:, None]
    entry = (4.0 * dd[1] - dd[0]) / 3.0 if richardson else dd[0]
    H = np.diag(entry[:k])
    H[I, J] = H[J, I] = 0.25 * (entry[k:k + I.size] - entry[k + I.size:])
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

    def ambient_hess(self, X):
        X = np.asarray(X, dtype=float)
        return np.zeros(X.shape + X.shape[-1:])


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

    def ambient_hess(self, X):
        H = 3.0 * self.eps * np.outer(self._gw, self._gw)
        return np.broadcast_to(H, np.shape(X)[:-1] + H.shape).copy()


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

    def ambient_hess(self, X):
        w = self._w(X)
        s2 = 1.0 - w * w
        theta = np.arccos(w)
        with np.errstate(divide="ignore", invalid="ignore"):
            q = np.asarray(self.df(theta)) / np.sqrt(s2)
            g2 = self.eps * ((np.asarray(self.d2f(theta)) - q * w) / s2)
        # nan inside the pole band triggers the retraction-curve fallback
        g2 = np.where(s2 <= self._POLE_BAND**2, np.nan, g2)
        return g2[..., None, None] * np.outer(self._gw, self._gw)


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

    def ambient_hess(self, X):
        a = self.core.axes
        u0, u1 = np.moveaxis(np.asarray(X, dtype=float) / a, -1, 0)
        th = self._theta(X)
        gth = self._grad_theta(X)
        off = (u1**2 - u0**2) / (a[0] * a[1])
        hess_th = np.stack([2 * u0 * u1 / (a[0] ** 2), off, off, -2 * u0 * u1 / (a[1] ** 2)], axis=-1)
        hess_th = hess_th.reshape(u0.shape + (2, 2)) / ((u0**2 + u1**2) ** 2)[..., None, None]
        d1 = sum(-amp * k * np.sin(k * th) for k, amp in self.terms)
        d2 = sum(-amp * k * k * np.cos(k * th) for k, amp in self.terms)
        return (np.asarray(d2)[..., None, None] * (gth[..., :, None] * gth[..., None, :])
                + np.asarray(d1)[..., None, None] * hess_th)


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

    def ambient_hess(self, X):
        return self.scale * self.inner.ambient_hess(X)


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

    def ambient_hess(self, X):
        return sum(p.ambient_hess(X) for p in self.parts)
