"""Radial-graph outer domains over a convex core.

The outer boundary is x = Phi(c) = c + d(c) nu(c).  Its exact tangents are
DPhi(c)[v] = (I - d S)v + <grad d, v> nu, and the inward unit normal is the
closed form (-nu + m)/|-nu + m| with m = (I - d S)^(-1) grad d, computed
pointwise without a tangent basis or chart (_resolvent_batch, the one
closed form of (I - d S)^(-1), and the one reader of the core's axes
outside surfaces, as it needs |Mx| too).  The admissibility diagnostics
build the DPhi columns in the frames of surfaces instead (cross product
for N=3, a quarter turn for N=2), an independent check of the closed form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ImmersionFailure
from .fields import ThicknessField
from .surfaces import (
    ConvexCore,
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
    V at core points X with thickness d: (nu, R), (n, N) each.

    With r = |Mx|, nu = Mx/r and D = (I + (d/r) M)^(-1), the tangent
    solution of (I - d S) u = v_t is u = D (v_t + mu nu) with
    mu = -(nu . D v_t)/(nu . D nu), which equals D v + mu' D nu with
    mu' = -(nu . D v)/(nu . D nu) for the ambient vector v.  The tilt m is
    the case V = grad d; rows where I - d S is singular are not finite.
    """
    w = core.inv_axes_sq
    MX = X * w
    r = np.sqrt(np.einsum("ij,ij->i", MX, MX))
    nu = MX / r[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        D = 1.0 / (1.0 + (d / r)[:, None] * w)
        Dnu = D * nu
        mu = -np.einsum("ij,ij->i", Dnu, V) / np.einsum("ij,ij->i", Dnu, nu)
        return nu, D * V + mu[:, None] * Dnu


def _outer_geometry_batch(dom: RadialDomain, X: np.ndarray, d=None):
    """Outer points and inward normals (m - nu)/|m - nu| above core points
    X, vectorized; a degenerate normal raises ImmersionFailure.  With d
    given, X must already be an (n, N) float array."""
    if d is None:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        d = dom.field.ambient_value(X)
    nu, m = _resolvent_batch(dom.core, X, d, dom.field.ambient_grad(X))
    with np.errstate(divide="ignore", invalid="ignore"):
        nvec = m - nu
        norms = np.sqrt(np.einsum("ij,ij->i", nvec, nvec))
        nvec /= norms[:, None]
    # a nan seed is left to fail in the ray solve
    bad = ~(norms < np.inf) & np.isfinite(d)
    if bad.any():
        raise ImmersionFailure(f"degenerate outer normal at {int(np.sum(bad))} points")
    return X + d[:, None] * nu, nvec


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
