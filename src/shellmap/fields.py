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
the frame matrices surface_hessian_batch are E Hess d[E]^T.  nu, P_t and S
are surfaces' ConvexCore.normal, tangent_part and shape_action_batch.

ambient_value_grad is the return-map kernel's one field call.  Its values
equal those of ambient_value and ambient_grad bit for bit, but a zonal
field hands its gradient rows as the (n, N) view of their component rows
(N, n), made in one product, whose transpose the return leg takes without
a copy; ambient_grad stays C-ordered, because hessian_action's einsums sum
in their operands' memory order, and hessian_action takes C-ordered copies
of rows stored otherwise, so its bits do not depend on the layout.

At a point (N,) a zonal field reads x's components as numpy scalars, not
as the 0-d arrays X[..., j] would give, and legendre_p2 takes a float64
scalar as it is, so a one-row step's field call is scalar arithmetic, in
the same order and with the same bits as on rows.
"""

from __future__ import annotations

import numpy as np

from .surfaces import ConvexCore, _frame_matrices, shape_action_batch, tangent_part


def legendre_p2(x):
    """Degree-2 Legendre polynomial (3x^2 - 1)/2; a float64 array or numpy
    scalar is taken as it is, so a scalar gives a scalar."""
    if getattr(x, "dtype", None) != np.float64:
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

    def ambient_value_grad(self, X):
        """(ambient_value(X), ambient_grad(X)) at a point (N,) or at rows
        (n, N) in one call, the one field call of the return-map kernel; a
        field whose value and gradient share work overrides it with the
        same arithmetic.  The values are those of the two calls bit for bit,
        but the gradient rows may come in another memory layout."""
        return self.ambient_value(X), self.ambient_grad(X)

    # -- surface operations --------------------------------------------------
    def tangent_gradient(self, X) -> np.ndarray:
        """Riemannian gradients as ambient tangent vectors at core points X, (n, N)."""
        return tangent_part(self.core.normal(X), self.ambient_grad(X))

    def surface_hessian_batch(self, X, E) -> np.ndarray:
        """Riemannian Hessian matrices, (k, m, m), at core points X, (k, N),
        in the frames E, (k, m, N): E Hess d[E]^T from hessian_action,
        symmetrized.  The Hessian is the second derivative along retraction
        curves, from the ambient extension plus the curvature correction."""
        return _frame_matrices(X, E, self.hessian_action)

    def hessian_action(self, X, V) -> np.ndarray:
        """Hess d applied to tangent vectors V at core points X, both (n, N):
        P_t(hess D v) + (grad D . nu) S v with hess D = ambient_hess(X)."""
        # C-ordered rows: the einsums sum in their operands' memory order
        X = np.array(X, dtype=float, ndmin=2, order="C", copy=None)
        V = np.array(V, dtype=float, ndmin=2, order="C", copy=None)
        nu = self.core.normal(X)
        gn = np.einsum("ij,ij->i", self.ambient_grad(X), nu)
        HV = np.einsum("ijk,ik->ij", self.ambient_hess(X), V)
        return tangent_part(nu, HV) + gn[:, None] * shape_action_batch(self.core, X, V)


class ConstantField(ThicknessField):
    """d = d0 everywhere."""

    def __init__(self, core: ConvexCore, d0: float):
        super().__init__(core)
        self.d0 = float(d0)

    def ambient_value(self, X):
        X = np.asarray(X, dtype=float)
        return np.full(X.shape[:-1], self.d0)

    def ambient_grad(self, X):
        return np.zeros(np.shape(X))

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
        self._gwgw = np.multiply.outer(self._gw, self._gw)
        self._gw_columns = self._gw.tolist()

    def _w(self, X):
        # the column products summed as (x0 g0 + x2 g2) + x1 g1, the order in
        # which einsum("...j,j->...") sums C-ordered rows: w does not depend on
        # how X is stored, and component-major rows are read without a copy.
        # A point (N,) is unpacked into numpy scalars, not the 0-d arrays
        # of X[..., j]
        X = np.asarray(X, dtype=float)
        x0, x1, x2 = X if X.ndim == 1 else (X[..., 0], X[..., 1], X[..., 2])
        g0, g1, g2 = self._gw_columns
        return (x0 * g0 + x2 * g2) + x1 * g1

    def ambient_value(self, X):
        return self.d0 + self.g(self._w(X))

    def _grad(self, w):
        # g'(w) grad w written column by column: the products of the broadcast
        # g'(w)[..., None] * grad w, without its length-N inner loop
        dg = self.dg(w)
        G = np.empty(np.shape(w) + self._gw.shape)
        for j, c in enumerate(self._gw_columns):
            G[..., j] = dg * c
        return G

    def ambient_grad(self, X):
        return self._grad(self._w(X))

    def ambient_value_grad(self, X):
        # the gradient of rows (n, N) as the view of its component rows
        # grad w[:, None] * g'(w), (N, n), made in one pass; their transpose is
        # the contiguous component rows the return leg takes.  Over more
        # leading axes the outer product of grad w and g'(w).T is transposed
        # the same way, and at a point it is the one product grad w * g'(w)
        w = self._w(X)
        dg = self.dg(w)
        G = self._gw * dg if w.ndim == 0 else np.multiply.outer(self._gw, dg.T).T
        return self.d0 + self.g(w), G

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

    def _value(self, th):
        val = np.full_like(th, self.d0, dtype=float)
        for k, amp in self.terms:
            val = val + amp * np.cos(k * th)
        return val

    def _grad(self, X, th):
        gth = self._grad_theta(X)
        dval = np.zeros_like(th, dtype=float)
        for k, amp in self.terms:
            dval = dval - amp * k * np.sin(k * th)
        return dval[..., None] * gth

    def ambient_value(self, X):
        return self._value(self._theta(X))

    def ambient_grad(self, X):
        return self._grad(X, self._theta(X))

    def ambient_value_grad(self, X):
        th = self._theta(X)
        return self._value(th), self._grad(X, th)

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
