"""Radial-graph outer domains over a convex core.

The outer boundary is x = Phi(c) = c + d(c) nu(c).  Its exact tangents are
DPhi(c)[v] = (I - d S)v + <grad d, v> nu, and the inward unit normal is the
closed form (-nu + m)/|-nu + m| with m = (I - d S)^(-1) grad d, computed
pointwise without a tangent basis or chart.  That closed form, like the
rest of the return leg, lives in surfaces; _outer_geometry_batch takes
the field's value and gradient on (n, N) rows and hands them to it.
The admissibility diagnostics build the DPhi columns in the frames of
surfaces instead (cross product for N=3, a quarter turn for N=2), an
independent check of the closed form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import ThicknessField
from .surfaces import (
    ConvexCore,
    _finite_rows,
    _outer_geometry_rows,
    _ray_solve_batch,
    _row_dot,
    _row_norm,
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


def _outer_geometry_batch(dom: RadialDomain, X: np.ndarray, d=None):
    """Outer points and inward normals above core points X, (n, N) rows,
    from surfaces._outer_geometry_rows.  d defaults to the field's value at
    X; any d is taken, and a singular I - d S raises ImmersionFailure
    without a floating-point warning."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if d is None:
        d = dom.field.ambient_value(X)
    with np.errstate(divide="ignore", invalid="ignore"):
        return _outer_geometry_rows(dom.core, X, d, dom.field.ambient_grad(X))


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
         + _row_dot(g[:, None], E)[..., None] * nu[:, None])

    if core.dim == 2:
        nvec = np.stack([-W[:, 0, 1], W[:, 0, 0]], axis=-1)
    else:
        nvec = np.cross(W[:, 0], W[:, 1])
    sv = np.linalg.svd(W, compute_uv=False)[:, -1]
    Xout = X + d[:, None] * nu
    nvec = nvec / np.maximum(_row_norm(nvec), 1e-300)[:, None]
    # orient toward the core (cores are centered at the origin)
    nvec[_row_dot(nvec, Xout) > 0] *= -1.0
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

    Each grid point casts the ray from its outer point along the inward
    normal of the DPhi columns through the return leg's own hit,
    surfaces._ray_solve_batch, and counts as a hit where every component
    of the hit is finite.  Where d <= 0 the outer point lies inside the
    core, and the hit is the near root behind it (t < 0), which is finite
    and counts; min d > 0 fails such a domain anyway.  Failures are
    reported rather than raised so near-failure regimes can be studied;
    the verdict requires min d > 0, min singular value of DPhi > 1e-8 and
    a 100% normal-ray hit rate.
    """
    core = dom.core
    chart = fibonacci_chart_grid(core, grid_size)
    X = core.ambient_from_chart(chart)
    d = dom.field.ambient_value(X)
    Xout, _, nvec, sv = _outer_frames_batch(dom, X, d)
    hits = _finite_rows(_ray_solve_batch(core, Xout, nvec))
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
