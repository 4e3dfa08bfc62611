"""Radial-graph outer domains over a convex core.

The outer boundary is x = Phi(c) = c + d(c) nu(c).  Its exact tangents are
DPhi(c)[v] = (I - d S)v + <grad d, v> nu, and the inward unit normal is the
closed form (-nu + m)/|-nu + m| with m = (I - d S)^(-1) grad d, computed
pointwise without a tangent basis or chart.  The admissibility diagnostics
build the DPhi columns in orthonormal frames instead (cross product for
N=3, a quarter turn for N=2), which also serves as an independent check of
the closed form.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import ImmersionFailure
from .fields import ThicknessField
from .surfaces import (
    ConvexCore,
    SurfacePoint,
    TangentFrame,
    _ray_solve_batch,
    fibonacci_chart_grid,
    frame_at,
    frames_batch,
    shape_action_batch,
)

DEGENERATE_TANGENT_TOL = 1e-12
MIN_SV_TOL = 1e-8


@dataclass(frozen=True)
class RadialDomain:
    """The pair (core, thickness field) describing the outer domain."""

    core: ConvexCore
    field: ThicknessField

    def __post_init__(self):
        if self.field.core != self.core:
            raise ValueError("field is defined on a different core")


@dataclass(frozen=True)
class OuterBoundaryPoint:
    """x = Phi(c) with its foot point and inward unit normal."""

    base: SurfacePoint
    ambient: np.ndarray
    inward_normal: np.ndarray


def _outer_geometry_batch(dom: RadialDomain, X: np.ndarray, d=None, raw: bool = False,
                          need_sv: bool = False):
    """Outer points and inward normals above core points X, vectorized.

    Returns (Xout, n_in, sv_min).  n_in is the closed form (m - nu)/|m - nu|:
    with r = |Mx|, nu = Mx/r and D = (I + (d/r) M)^(-1), the tangent
    solution of (I - d S) m = g_t is m = D (g_t + mu nu) with
    mu = -(nu . D g_t)/(nu . D nu), which equals D g + mu' D nu with
    mu' = -(nu . D g)/(nu . D nu) for the ambient gradient g.  need_sv=True
    instead builds the DPhi columns in orthonormal frames, the independent
    check of the closed form, and also returns sv_min, the smallest
    singular value of DPhi.  With raw=True a degenerate normal or
    nonpositive thickness is tolerated (diagnostic paths).
    """
    core, field = dom.core, dom.field
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if d is None:
        d = field.ambient_value(X)
    w = 1.0 / core.axes**2
    MX = X * w
    g = field.ambient_grad(X)
    if not need_sv:
        r = np.sqrt(np.einsum("ij,ij->i", MX, MX))
        nu = MX / r[:, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            D = 1.0 / (1.0 + (d / r)[:, None] * w)
            Dnu = D * nu
            mu = -np.einsum("ij,ij->i", Dnu, g) / np.einsum("ij,ij->i", Dnu, nu)
            nvec = D * g + mu[:, None] * Dnu - nu
            norms = np.sqrt(np.einsum("ij,ij->i", nvec, nvec))
            nvec /= norms[:, None]
        # a nan seed is left to fail in the ray solve
        bad = ~(norms < np.inf) & np.isfinite(d)
        if np.any(bad) and not raw:
            raise ImmersionFailure(f"degenerate outer normal at {int(np.sum(bad))} points")
        return X + d[:, None] * nu, nvec, None

    mx_norm = np.linalg.norm(MX, axis=-1, keepdims=True)
    nu = MX / mx_norm
    E = frames_batch(core, X)
    Xout = X + d[:, None] * nu

    # DPhi columns: w_i = e_i - d * S e_i + (grad d . e_i) nu,
    # with S e = -(M e - nu (nu . M e)) / |M x| for the quadric cores
    dcol = d[:, None]
    cols = []
    for i in range(core.dim - 1):
        e = E[:, i]
        Me = e * w
        Se = -(Me - nu * np.sum(Me * nu, axis=-1, keepdims=True)) / mx_norm
        gi = np.sum(g * e, axis=-1, keepdims=True)
        cols.append(e - dcol * Se + gi * nu)

    if core.dim == 2:
        t = cols[0]
        nvec = np.stack([-t[:, 1], t[:, 0]], axis=-1)
        sv = np.linalg.norm(t, axis=-1)
    else:
        nvec = np.cross(cols[0], cols[1])
        W = np.stack(cols, axis=1)
        G = np.einsum("nia,nja->nij", W, W)
        tr = G[:, 0, 0] + G[:, 1, 1]
        det = G[:, 0, 0] * G[:, 1, 1] - G[:, 0, 1] * G[:, 1, 0]
        disc = np.sqrt(np.clip(tr * tr / 4.0 - det, 0.0, None))
        sv = np.sqrt(np.clip(tr / 2.0 - disc, 0.0, None))

    norms = np.linalg.norm(nvec, axis=-1)
    bad = norms < DEGENERATE_TANGENT_TOL
    if np.any(bad) and not raw:
        raise ImmersionFailure(f"degenerate outer tangents at {int(np.sum(bad))} points")
    nvec = nvec / np.maximum(norms, 1e-300)[:, None]
    # orient toward the core (cores are centered at the origin)
    flip = np.sum(nvec * Xout, axis=-1) > 0
    nvec[flip] *= -1.0
    return Xout, nvec, sv


def radial_map(dom: RadialDomain, c: SurfacePoint) -> OuterBoundaryPoint:
    """Phi(c) = c + d(c) nu(c) together with the exact inward normal."""
    d = dom.field.eval(c)  # positivity-guarded
    Xout, nvec, _ = _outer_geometry_batch(dom, c.ambient[None], d=np.array([d]))
    return OuterBoundaryPoint(base=c, ambient=Xout[0], inward_normal=nvec[0])


def outer_tangent_frame(dom: RadialDomain, c: SurfacePoint, frame: TangentFrame | None = None):
    """Images DPhi(c)[v_i] of the frame vectors, analytic."""
    if frame is None:
        frame = frame_at(dom.core, c)
    core, field = dom.core, dom.field
    d = field.eval(c)
    nu = core.normal(c.ambient)
    gamb = field.ambient_grad(c.ambient)
    out = []
    for v in frame.vectors:
        Se = shape_action_batch(core, c.ambient[None], v[None])[0]
        out.append(v - d * Se + float(np.dot(gamb, v)) * nu)
    return out


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

    def to_csv(self, path):
        cols = ["theta", "phi", "d", "min_sv_DPhi", "normal_ray_hits"]
        with open(path, "w", newline="\n") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(cols)
            for i in range(self.chart.shape[0]):
                theta = self.chart[i, 0]
                phi = self.chart[i, 1] if self.chart.shape[1] > 1 else 0.0
                w.writerow(
                    [
                        f"{theta:.17g}",
                        f"{phi:.17g}",
                        f"{self.d_values[i]:.17g}",
                        f"{self.min_sv_dphi[i]:.17g}",
                        int(self.normal_ray_hits[i]),
                    ]
                )


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
    Xout, nvec, sv = _outer_geometry_batch(dom, X, d=d, raw=True, need_sv=True)
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
