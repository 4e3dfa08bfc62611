"""The exact forward dynamics: reciprocal map, return map, orbit iteration,
and BlackBoxMap, the one map object every map consumer takes.

The forward map is computed purely by ray geometry (no asymptotic
formulas), so it can serve as an independent oracle for every expansion
tested elsewhere.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import partial

import numpy as np

from .domain import OuterBoundaryPoint, RadialDomain, _outer_geometry_batch
from .errors import InadmissibleThickness, NormalRayMissesCore, ShellmapError
from .surfaces import ConvexCore, SurfacePoint, _ray_hit_batch, ray_first_hit, retract_batch

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITERS = 100_000
SETTLE_EVERY = 8  # steps between Aitken estimates in settle_batch
AMPLIFY_COS = 0.99  # direction agreement that doubles a seed's K in settle_batch
TRUST_RADIUS = 0.05  # longest amplified step in settle_batch, in surface_scale()


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
class BlackBoxMap:
    """A deterministic surface-to-surface map observed only through calls:
    one batched map, (n, N) ambient -> (n, N) ambient, on the core."""

    core: ConvexCore
    batch_fn: object

    @staticmethod
    def wrap_domain(dom: RadialDomain) -> "BlackBoxMap":
        """Hide a radial domain behind the call interface."""
        return BlackBoxMap(dom.core, partial(return_map_batch, dom))

    def __call__(self, p: SurfacePoint) -> SurfacePoint:
        return SurfacePoint.from_ambient(self.core, self.batch_fn(p.ambient[None])[0])

    def batch(self, X: np.ndarray) -> np.ndarray:
        return self.batch_fn(X)

    def compose(self, k: int) -> "BlackBoxMap":
        """The k-th iterate as a new black box."""
        def batch_fn(X):
            for _ in range(k):
                X = self.batch_fn(X)
            return X

        return BlackBoxMap(self.core, batch_fn)


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
    """Iterate F from seed until the ambient displacement drops below tol.
    A point joins the record with its thickness, also on an error record."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    points, thickness, disps = [], [], []
    try:
        thickness.append(dom.field.eval(seed))
        points.append(seed)
        current = seed
        for _ in range(max_iters):
            nxt = return_map(dom, current)
            thickness.append(dom.field.eval(nxt))
            step = float(np.linalg.norm(nxt.ambient - current.ambient))
            points.append(nxt)
            disps.append(step)
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
) -> BatchOrbitResult:
    """Iterate the return map of dom on many seeds at once; a seed stops at
    the first displacement below tol (plain iteration, no extrapolation).
    It takes the domain, not a BlackBoxMap, because its callers (the
    criterion 9 descent and its benchmark) hold one."""
    X = np.atleast_2d(np.asarray(seeds, dtype=float)).copy()
    n = X.shape[0]
    steps = np.zeros(n, dtype=int)
    converged = np.zeros(n, dtype=bool)
    final_disp = np.full(n, np.inf)
    active = np.arange(n)
    seeds0 = X.copy()
    for _ in range(max_iters):
        if active.size == 0:
            break
        Xa = X[active]
        Y = return_map_batch(dom, Xa)
        disp = np.linalg.norm(Y - Xa, axis=-1)
        X[active] = Y
        steps[active] += 1
        final_disp[active] = disp
        done = disp < tol
        converged[active[done]] = True
        active = active[~done]
    return BatchOrbitResult(seeds0, X, steps, converged, final_disp)


def settle_batch(F: BlackBoxMap, seeds: np.ndarray, radius: float,
                 tol: float = DEFAULT_TOL, max_iters: int = DEFAULT_MAX_ITERS) -> BatchOrbitResult:
    """Iterate F from many seeds, ambient points on its core, until each
    one settles on an attractor.

    Each seed runs the amplified map G_K(x) = retract(x, K (F(x) - x)), a
    reparametrization of F's orbits with F's fixed points and line field,
    whose rate 1 - delta at a fixed point becomes 1 - K delta.  K is per
    seed and starts at 1: it doubles while successive displacements
    D = F(x) - x keep their direction (cosine >= AMPLIFY_COS) and halves,
    never below 1, otherwise.  While displacements shrink by r < 1, K is
    capped at K_prev / (1 - r), the 1 / (1 - rho) of the rate rho of F
    that the last amplified step shows; K |D| never exceeds TRUST_RADIUS
    surface_scale(), so no step jumps a separatrix.  Where K = 1 the next
    iterate is F(x) itself.

    A seed stops on the contraction rule, disp < tol and disp <= the
    previous displacement (so at least two steps), both in F's units,
    with its F image as its limit.  Every SETTLE_EVERY steps it also forms
    the Aitken estimate L = Y + rho/(1 - rho) (Y - X) of the limit of the
    step X -> Y = G_K(X), rho = |Y - X| / the previous step's length, and
    retracts it onto the core, L^.  The seed stops at L^ when rho < 1, L
    moved less than radius since the seed's previous estimate, and L^
    checks out as a fixed point to within radius of the attractor,
    |F(L^) - L^| <= (1 - rho) / K radius; that check rides in the next
    step's map call.  An estimate that fails it (a spiral's chord
    overshoots) costs nothing but its row in that call.  max_iters counts
    map calls.  final_displacement is the last |F(x) - x|, or
    |F(L^) - L^| at a settled L^.
    """
    X = np.array(seeds, dtype=float, ndmin=2)
    seeds0 = X.copy()
    n = X.shape[0]
    steps = np.zeros(n, dtype=int)
    converged = np.zeros(n, dtype=bool)
    final_disp = np.full(n, np.inf)
    trust = TRUST_RADIUS * F.core.surface_scale()
    # the working rows are the seeds still running: ids, iterates, last
    # displacements (-inf forces two steps, so the first displacement cannot
    # satisfy the contraction rule vacuously) with their vectors, gains K,
    # last step lengths and last Aitken estimates
    ids, Xa = np.arange(n), X.copy()
    prev, prev_D = np.full(n, -np.inf), np.zeros(X.shape)
    K, prev_step = np.ones(n), np.zeros(n)
    last_L = np.full(X.shape, np.nan)
    pending = np.empty(0, dtype=int)  # rows whose estimate is checked next
    it = 0
    while ids.size and it < max_iters:
        it += 1
        m = ids.size
        Z = F.batch(np.concatenate([Xa, L_hat]) if pending.size else Xa)
        Y = Z[:m]
        D = Y - Xa
        disp = np.linalg.norm(D, axis=-1)
        stop = (disp < tol) & (disp <= prev)
        if pending.size:
            resid = np.linalg.norm(Z[m:] - L_hat, axis=-1)
            ok = (resid <= slack) & ~stop[pending]
            Y[pending[ok]], disp[pending[ok]], stop[pending[ok]] = L_hat[ok], resid[ok], True
            pending = pending[:0]
        with np.errstate(divide="ignore", invalid="ignore"):
            cos = np.sum(D * prev_D, axis=-1) / (disp * prev)  # nan where undefined
            r = np.where(prev > 0.0, disp / prev, np.inf)
            K_next = np.where(cos >= AMPLIFY_COS, 2.0 * K, 0.5 * K)
            K_next = np.where(r < 1.0, np.minimum(K_next, K / (1.0 - r)), K_next)
            K_next = np.maximum(np.minimum(K_next, trust / disp), 1.0)
        Xn = Y.copy()
        amp = (K_next != 1.0) & ~stop
        if amp.any():
            Xn[amp] = retract_batch(F.core, Xa[amp], K_next[amp, None] * D[amp])
        step = np.linalg.norm(Xn - Xa, axis=-1)
        if it % SETTLE_EVERY == 0:
            rho = np.full(m, np.inf)
            np.divide(step, prev_step, out=rho, where=prev_step > 0.0)
            gain = np.full(m, np.nan)  # nan where rho >= 1: no estimate
            np.divide(rho, 1.0 - rho, out=gain, where=rho < 1.0)
            L = Xn + gain[:, None] * (Xn - Xa)
            near = (np.linalg.norm(L - last_L, axis=-1) < radius) & ~stop
            last_L = L
            if near.any():
                L_hat = retract_batch(F.core, L[near], 0.0)
                slack = (1.0 - rho[near]) / K_next[near] * radius
                pending = np.flatnonzero(near[~stop])
        Xa, prev, prev_D, K, prev_step = Xn, disp, D, K_next, step
        if stop.any():
            done = ids[stop]
            X[done], final_disp[done], steps[done], converged[done] = Y[stop], disp[stop], it, True
            keep = ~stop
            ids, Xa, prev, last_L = ids[keep], Xa[keep], prev[keep], last_L[keep]
            prev_D, K, prev_step = prev_D[keep], K[keep], prev_step[keep]
    X[ids], final_disp[ids], steps[ids] = Xa, prev, it
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
