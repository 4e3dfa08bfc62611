"""Radial-graph outer domains over a convex core.

The outer boundary is x = Phi(c) = c + d(c) nu(c).  Its exact tangents are
DPhi(c)[v] = (I - d S)v + <grad d, v> nu, and the inward unit normal is the
closed form (-nu + m)/|-nu + m| with m = (I - d S)^(-1) grad d, computed
pointwise without a tangent basis or chart (_resolvent_batch, the one
closed form of (I - d S)^(-1), and the one reader of the core's axes
outside surfaces, as it needs |Mx| too).  Like the ray stages of
surfaces, the resolvent and _outer_geometry_cols, the kernel's outer
geometry, take points as the columns of component rows (N, n);
_outer_geometry_batch is their view on (n, N) rows.  For d > 0 no step
divides by zero, so the kernel enters no floating-point error state here.
The admissibility diagnostics build the DPhi columns in the frames of
surfaces instead (cross product for N=3, a quarter turn for N=2), an
independent check of the closed form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ImmersionFailure
from .fields import ThicknessField
from .surfaces import (
    ConvexCore,
    _component_dot,
    _ray_solve_batch,
    fibonacci_chart_grid,
    frames_batch,
    shape_action_batch,
)

MIN_SV_TOL = 1e-8


@dataclass(frozen=True)
class RadialDomain:
    """The pair (core, thickness field) describing the outer domain."""

    core: ConvexCore
    field: ThicknessField

    def __post_init__(self):
        if self.field.core != self.core:
            raise ValueError("field is defined on a different core")


def _resolvent_batch(core: ConvexCore, X: np.ndarray, d: np.ndarray, V: np.ndarray):
    """Core normals nu and (I - d S)^(-1) applied to the tangent parts of
    V at core points X with thickness d: (nu, R).  X, V, nu and R are
    component rows (N, n), d is (n,).

    With r = |Mx|, nu = Mx/r and D = (I + (d/r) M)^(-1), the tangent
    solution of (I - d S) u = v_t is u = D (v_t + mu nu) with
    mu = -(nu . D v_t)/(nu . D nu), which equals D v + mu' D nu with
    mu' = -(nu . D v)/(nu . D nu) for the ambient vector v.  The tilt m is
    the case V = grad d.  For d > 0 every step is defined; rows where
    I - d S is singular (d <= 0) are not finite and raise floating-point
    warnings, which a caller that admits such d silences.
    """
    w = core.inv_axes_sq[:, None]
    MX = X * w
    r = np.sqrt(_component_dot(MX, MX))
    nu = MX / r
    D = 1.0 / (1.0 + d / r * w)
    Dnu = D * nu
    mu = -_component_dot(Dnu, V) / _component_dot(Dnu, nu)
    return nu, D * V + mu * Dnu


def _outer_geometry_cols(core: ConvexCore, X: np.ndarray, d: np.ndarray, G: np.ndarray):
    """Outer points X + d nu and inward normals (m - nu)/|m - nu| above core
    points X with thickness d and ambient gradient G of the field, X and G
    component rows (N, n); a degenerate normal raises ImmersionFailure.
    |m - nu| >= 1 wherever m is finite, so for d > 0 no step divides by
    zero."""
    nu, m = _resolvent_batch(core, X, d, G)
    nvec = m - nu
    norms = np.sqrt(_component_dot(nvec, nvec))
    nvec /= norms
    ok = norms < np.inf
    if not ok.all():
        # a nan seed is left to fail in the ray solve
        bad = ~ok & np.isfinite(d)
        if bad.any():
            raise ImmersionFailure(f"degenerate outer normal at {int(np.sum(bad))} points")
    return X + d * nu, nvec


def _outer_geometry_batch(dom: RadialDomain, X: np.ndarray, d=None):
    """_outer_geometry_cols on (n, N) rows X, one transpose in and out.  d
    defaults to the field's value at X; any d is taken, and a singular
    I - d S raises ImmersionFailure without a floating-point warning."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if d is None:
        d = dom.field.ambient_value(X)
    with np.errstate(divide="ignore", invalid="ignore"):
        Xout, nvec = _outer_geometry_cols(dom.core, X.T, d, dom.field.ambient_grad(X).T)
    return Xout.T.copy(), nvec.T.copy()


def _outer_frames_batch(dom: RadialDomain, X: np.ndarray, d: np.ndarray):
    """DPhi columns w_i = e_i - d S e_i + (grad d . e_i) nu in the frames
    E = frames_batch(core, X), the independent check of the closed form.

    Returns (Xout, W, n_in, sv_min): the columns W, (n, N-1, N), their unit
    normal n_in oriented toward the core (cross product for N=3, a quarter
    turn for N=2) and sv_min, the smallest singular value of DPhi.
    Degenerate tangents are reported, not raised (diagnostic path).
    """
    core = dom.core
    X = np.atleast_2d(np.asarray(X, dtype=float))
    E = frames_batch(core, X)
    nu, g = core.normal(X), dom.field.ambient_grad(X)
    SE = shape_action_batch(core, np.repeat(X, core.dim - 1, axis=0), E.reshape(-1, core.dim))
    W = (E - d[:, None, None] * SE.reshape(E.shape)
         + np.sum(g[:, None] * E, axis=-1, keepdims=True) * nu[:, None])

    if core.dim == 2:
        nvec = np.stack([-W[:, 0, 1], W[:, 0, 0]], axis=-1)
    else:
        nvec = np.cross(W[:, 0], W[:, 1])
    sv = np.linalg.svd(W, compute_uv=False)[:, -1]
    Xout = X + d[:, None] * nu
    nvec = nvec / np.maximum(np.linalg.norm(nvec, axis=-1), 1e-300)[:, None]
    # orient toward the core (cores are centered at the origin)
    nvec[np.sum(nvec * Xout, axis=-1) > 0] *= -1.0
    return Xout, W, nvec, sv


@dataclass
class AdmissibilityReport:
    """Grid diagnostics for the radial-graph domain."""

    chart: np.ndarray          # (n, N-1)
    d_values: np.ndarray       # raw thickness, may be nonpositive
    min_sv_dphi: np.ndarray    # smallest singular value of DPhi per point
    normal_ray_hits: np.ndarray  # bool per point
    min_d: float
    min_sv: float
    hit_rate: float
    admissible: bool


def admissibility_check(dom: RadialDomain, grid_size: int = 4096) -> AdmissibilityReport:
    """Check min d, the immersion condition, and inward-normal ray hits.

    Failures are reported rather than raised so near-failure regimes can
    be studied; the verdict requires min d > 0, min singular value of
    DPhi > 1e-8 and a 100% normal-ray hit rate.
    """
    core = dom.core
    chart = fibonacci_chart_grid(core, grid_size)
    X = core.ambient_from_chart(chart)
    d = dom.field.ambient_value(X)
    Xout, _, nvec, sv = _outer_frames_batch(dom, X, d)
    t, _ = _ray_solve_batch(core, Xout, nvec)
    hits = np.isfinite(t)
    min_d = float(np.min(d))
    min_sv = float(np.min(sv))
    hit_rate = float(np.mean(hits))
    return AdmissibilityReport(
        chart=chart,
        d_values=d,
        min_sv_dphi=sv,
        normal_ray_hits=hits,
        min_d=min_d,
        min_sv=min_sv,
        hit_rate=hit_rate,
        admissible=bool(min_d > 0.0 and min_sv > MIN_SV_TOL and hit_rate == 1.0),
    )
