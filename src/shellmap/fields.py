"""Thickness fields on the core surface with analytic surface calculus.

Every field kind exposes a smooth ambient extension (value, gradient,
Hessian).  Tangential derivatives of any extension agree with derivatives
of the surface restriction, so the frame components of the surface
gradient are e_i . grad D and the surface Hessian in an orthonormal frame
is

    H_ij = e_i^T (hess D) e_j + (grad D . nu) S_ij,

the second derivative along retraction curves (for the projection
retractions used here the curve acceleration is S(v,v) nu, so this
coincides with the intrinsic Hessian).  Its one closed form is the batched
action Hess d[v] = P_t(hess D v) + (grad D . nu) S v (hessian_action);
the frame matrix surface_hessian is E Hess d[E]^T.
"""

from __future__ import annotations

import numpy as np

from .errors import InadmissibleThickness
from .surfaces import (
    ConvexCore,
    SurfacePoint,
    TangentFrame,
    fibonacci_chart_grid,
    frame_at,
    shape_action_batch,
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
        """Ambient Hessian, shape X.shape + (N,)."""
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
        from the ambient extension plus the curvature correction.
        """
        self._check_point(p)
        if frame is None:
            frame = frame_at(self.core, p)
        E = frame.vectors
        X = np.broadcast_to(p.ambient, E.shape)
        H = E @ self.hessian_action(X, E).T
        return 0.5 * (H + H.T)

    def hessian_action(self, X, V) -> np.ndarray:
        """Hess d applied to tangent vectors V at core points X, both (n, N):
        P_t(hess D v) + (grad D . nu) S v with hess D = ambient_hess(X)."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        V = np.atleast_2d(np.asarray(V, dtype=float))
        MX = X * self.core.inv_axes_sq
        nu = MX / np.sqrt(np.einsum("ij,ij->i", MX, MX))[:, None]
        gn = np.einsum("ij,ij->i", self.ambient_grad(X), nu)
        HV = np.einsum("ijk,ik->ij", self.ambient_hess(X), V)
        return (HV - np.einsum("ij,ij->i", HV, nu)[:, None] * nu
                + gn[:, None] * shape_action_batch(self.core, X, V))

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


class ZonalProfileField(ThicknessField):
    """d = d0 + g(w) for a profile g of w = <x/s, axis>, the cosine of the
    chart colatitude about `axis` (a linear function of x).  dg and d2g are
    its first and second derivatives in w; each of g, dg, d2g maps an array
    of w to an array of its shape.  The gradient g'(w) grad w and the
    Hessian g''(w) grad w grad w^T are closed form on the whole core, the
    axis poles included."""

    def __init__(self, core: ConvexCore, d0: float, g, dg, d2g, axis=(0.0, 0.0, 1.0)):
        super().__init__(core)
        if core.dim != 3:
            raise ValueError("zonal fields require an N=3 core")
        self.d0 = float(d0)
        self.g, self.dg, self.d2g = g, dg, d2g
        ax = np.asarray(axis, dtype=float)
        norm = np.linalg.norm(ax)
        if not 0.0 < norm < np.inf:  # also false for nan
            raise ValueError(f"axis {axis} must be finite and nonzero")
        self.axis = ax / norm
        # grad of w(x) = <x/s, axis> is constant
        self._gw = self.axis / core.axes
        self._gwgw = np.outer(self._gw, self._gw)

    def _w(self, X):
        return np.einsum("...j,j->...", np.asarray(X, dtype=float), self._gw)

    def ambient_value(self, X):
        return self.d0 + self.g(self._w(X))

    def ambient_grad(self, X):
        w = self._w(X)
        return self.dg(w)[..., None] * self._gw

    def ambient_hess(self, X):
        w = self._w(X)
        return self.d2g(w)[..., None, None] * self._gwgw


class ZonalLegendreField(ZonalProfileField):
    """d = d0 + eps * P2(w): the zonal profile g = eps P2, g' = 3 eps w,
    g'' = 3 eps."""

    def __init__(self, core: ConvexCore, d0: float, eps: float, axis=(0.0, 0.0, 1.0)):
        self.eps = float(eps)
        super().__init__(core, d0, self._g, self._dg, self._d2g, axis)

    # methods rather than closures, so the field pickles
    def _g(self, w):
        return self.eps * legendre_p2(w)

    def _dg(self, w):
        return 3.0 * self.eps * w

    def _d2g(self, w):
        return np.full_like(w, 3.0 * self.eps)


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
