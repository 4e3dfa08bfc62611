"""The exact forward dynamics: reciprocal map, return map, orbit iteration.

The forward map is computed purely by ray geometry (no asymptotic
formulas), so it can serve as an independent oracle for every expansion
tested elsewhere.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .domain import OuterBoundaryPoint, RadialDomain, _outer_geometry_batch
from .errors import InadmissibleThickness, NormalRayMissesCore, ShellmapError
from .surfaces import SurfacePoint, _ray_hit_batch, ray_first_hit

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITERS = 100_000


def reciprocal_map(dom: RadialDomain, x: OuterBoundaryPoint) -> SurfacePoint:
    """First hit of the inward normal ray from x on the core surface."""
    hit = ray_first_hit(dom.core, x.ambient, x.inward_normal)
    if hit is None:
        raise NormalRayMissesCore(
            f"inward ray from chart {x.base.chart} misses the core"
        )
    return hit.point


def return_map(dom: RadialDomain, c: SurfacePoint) -> SurfacePoint:
    """F(c): out along the core normal, back along the shell's inward normal.

    A batch of one through return_map_batch, after the positivity guard
    of field.eval.
    """
    dom.field.eval(c)
    return SurfacePoint.from_ambient(dom.core, return_map_batch(dom, c.ambient[None])[0])


def return_map_batch(dom: RadialDomain, X: np.ndarray) -> np.ndarray:
    """Vectorized return map on ambient points X, shape (n, N)."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    d = dom.field.ambient_value(X)
    if np.any(d <= 0.0):
        raise InadmissibleThickness("nonpositive thickness encountered in batch step")
    Xout, nvec = _outer_geometry_batch(dom, X, d=d)
    Y, _ = _ray_hit_batch(dom.core, Xout, nvec)
    miss = ~np.all(np.isfinite(Y), axis=-1)
    if np.any(miss):
        raise NormalRayMissesCore(f"{int(np.sum(miss))} inward rays miss the core")
    return Y


@dataclass
class OrbitRecord:
    """Trajectory of the discrete dynamics with per-step diagnostics."""

    seed: SurfacePoint
    points: list
    thickness_values: list
    displacement_norms: list
    status: str                  # "converged" | "max_iterations" | "error"
    error_kind: str | None = None
    limit: SurfacePoint | None = None
    limit_grad_norm: float | None = None

    def to_csv(self, path):
        with open(path, "w", newline="\n") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(["step", "theta", "phi", "x", "y", "z", "d", "displacement"])
            for k, p in enumerate(self.points):
                amb = list(p.ambient) + [0.0] * (3 - p.ambient.shape[0])
                phi = p.chart[1] if p.chart.shape[0] > 1 else 0.0
                disp = self.displacement_norms[k] if k < len(self.displacement_norms) else 0.0
                w.writerow(
                    [k]
                    + [f"{v:.17g}" for v in (p.theta, phi)]
                    + [f"{v:.17g}" for v in amb]
                    + [f"{self.thickness_values[k]:.17g}", f"{disp:.17g}"]
                )


def iterate_orbit(
    dom: RadialDomain,
    seed: SurfacePoint,
    max_iters: int = DEFAULT_MAX_ITERS,
    tol: float = DEFAULT_TOL,
) -> OrbitRecord:
    """Iterate F from seed until the ambient displacement drops below tol."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    points = [seed]
    thickness = []
    disps = []
    try:
        thickness.append(dom.field.eval(seed))
        current = seed
        for _ in range(max_iters):
            nxt = return_map(dom, current)
            step = float(np.linalg.norm(nxt.ambient - current.ambient))
            points.append(nxt)
            disps.append(step)
            thickness.append(dom.field.eval(nxt))
            current = nxt
            if step < tol:
                gnorm = float(
                    np.linalg.norm(dom.field.surface_gradient_ambient(current))
                )
                return OrbitRecord(
                    seed, points, thickness, disps, "converged",
                    limit=current, limit_grad_norm=gnorm,
                )
        return OrbitRecord(seed, points, thickness, disps, "max_iterations")
    except ShellmapError as exc:
        return OrbitRecord(
            seed, points, thickness, disps, "error", error_kind=type(exc).__name__
        )


@dataclass
class BatchOrbitResult:
    """Limits and step counts for a batch of seeds (no trajectories kept)."""

    seeds: np.ndarray        # (n, N) ambient
    limits: np.ndarray       # (n, N) ambient, last iterate
    steps: np.ndarray        # (n,) int
    converged: np.ndarray    # (n,) bool
    final_displacement: np.ndarray  # (n,)


def iterate_batch(
    dom: RadialDomain,
    seeds: np.ndarray,
    max_iters: int = DEFAULT_MAX_ITERS,
    tol: float = DEFAULT_TOL,
    map_batch=None,
    require_contraction: bool = False,
) -> BatchOrbitResult:
    """Iterate many seeds simultaneously with per-seed early termination.

    map_batch can replace the ray return map (used to drive black boxes
    through the same machinery).  With require_contraction the stopping
    rule additionally demands a non-growing displacement, so seeds creeping
    away from a repelling set are not mistaken for converged ones.
    """
    if map_batch is None:
        def map_batch(X):
            return return_map_batch(dom, X)
    X = np.atleast_2d(np.asarray(seeds, dtype=float)).copy()
    n = X.shape[0]
    steps = np.zeros(n, dtype=int)
    converged = np.zeros(n, dtype=bool)
    final_disp = np.full(n, np.inf)
    # -inf forces at least two steps under the contraction rule, so the
    # first displacement cannot satisfy it vacuously
    prev_disp = np.full(n, -np.inf) if require_contraction else np.full(n, np.inf)
    active = np.arange(n)
    seeds0 = X.copy()
    for _ in range(max_iters):
        if active.size == 0:
            break
        Xa = X[active]
        Y = map_batch(Xa)
        disp = np.linalg.norm(Y - Xa, axis=-1)
        X[active] = Y
        steps[active] += 1
        final_disp[active] = disp
        done = disp < tol
        if require_contraction:
            done &= disp <= prev_disp[active]
        prev_disp[active] = disp
        converged[active[done]] = True
        active = active[~done]
    return BatchOrbitResult(seeds0, X, steps, converged, final_disp)


def thickness_step_stats(dom: RadialDomain, X: np.ndarray):
    """One return step on each point of X: (d_before, d_after, displacement).

    Used to measure how the thickness changes along the dynamics (the
    monotonicity diagnostic).
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = return_map_batch(dom, X)
    d0 = dom.field.ambient_value(X)
    d1 = dom.field.ambient_value(Y)
    return d0, d1, np.linalg.norm(Y - X, axis=-1)
