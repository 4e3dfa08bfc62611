"""The exact forward dynamics: return map, orbit iteration, and
BlackBoxMap, the one map object every map consumer takes.

The forward map is computed purely by ray geometry (no asymptotic
formulas), so it can serve as an independent oracle for every expansion
tested elsewhere.  Point sets are (n, N) ambient arrays; a SurfacePoint
is built only by the scalar view return_map.  The one plain
step, _map_step, makes one field call on the rows and hands them with
their d and grad d to its field-free row stage, _return_map_rows, which
checks d > 0, runs the return leg of surfaces (_return_leg_rows) in
blocks of at most BLOCK_ROWS rows and counts the rays that miss; the
residual sweeps of analysis call the row stage on the rows of many
fields at once.  The leg does not check its outer normals, as a
degenerate one gives a hit that is not finite: only when a step has such
hits does the row stage rerun the checking outer geometry, block by
block, to name a degenerate normal before it counts the misses.  The row
stage leaves its image rows as the leg gives them, the Fortran-ordered
view of the hits' component rows (N, n), which the next step's leg takes
without a copy.  The kernel, return_map_batch,
is the C-ordered copy of that step, after coercing X only when it is
not already a 2-D float64 array.  A batch of one runs the same stages on
its row as a point (N,), so its per-point values are numpy scalars,
whose arithmetic skips the ufunc dispatch that dominates a one-row call;
the image is returned as a (1, N) row, bit for bit the row a wider batch
gives.  The checks of a step on rows (d <= 0, finite images) and of the
orbit loop (stopped rows, amplified rows) are taken as np.count_nonzero
of their masks, which costs about half an .any() or .all() on a short
row or a mask of a few hundred rows; a point's d is checked by one
scalar comparison, which a nan d passes on to the miss count, as on rows,
and its image component by component with math.isfinite.

Orbits run in one loop, _orbits, on compact working rows (the seeds
still running, compacted in their own layout by one index) with one row
reduction, surfaces' _row_dot, which adds the column products in
np.linalg.norm's order without a length-N inner loop, for the
displacement norms (_row_norm) and settle's cosine;
iterate_batch (plain steps of F), settle_batch (amplified steps and the
contraction rule) and iterate_orbit (one seed, each image point
recorded as the leg hands it back, an array that owns its data) are
configurations of it, and none of them calls
another.  iterate_batch and iterate_orbit step with _map_step itself,
so their working rows stay component-major; one plain seed steps as its
point (N,), with a scalar displacement norm and a one-comparison stop.
settle_batch steps through its BlackBoxMap, return_map_batch for a
wrapped domain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .domain import RadialDomain
from .errors import InadmissibleThickness, NormalRayMissesCore, OffSurface, ShellmapError
from .surfaces import (
    TOL_SURFACE,
    ConvexCore,
    SurfacePoint,
    _outer_geometry_rows,
    _return_leg_rows,
    _row_dot,
    retract_batch,
)

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITERS = 100_000
AMPLIFY_COS = 0.99  # direction agreement that doubles a seed's K in settle_batch
TRUST_RADIUS = 0.05  # longest amplified step in settle_batch, in surface_scale()
BLOCK_ROWS = 4096  # rows of one return_map_batch pass: temporaries of 96 KiB at N=3


def return_map(dom: RadialDomain, c: SurfacePoint) -> SurfacePoint:
    """F(c): out along the core normal, back along the shell's inward normal.

    A batch of one through return_map_batch, after a check that c is a
    point of dom's core.
    """
    if c.core != dom.core:
        raise ValueError("surface point belongs to a different core")
    return SurfacePoint.from_ambient(dom.core, return_map_batch(dom, c.ambient[None])[0])


def return_map_batch(dom: RadialDomain, X: np.ndarray) -> np.ndarray:
    """Vectorized return map on ambient points X, shape (n, N): the
    C-ordered rows of the plain step _map_step.  One row runs as the point
    X[0], (N,), and its image comes back as a (1, N) row."""
    if not (type(X) is np.ndarray and X.ndim == 2 and X.dtype == np.float64):
        X = np.atleast_2d(np.asarray(X, dtype=float))
    return np.ascontiguousarray(_map_step(dom, X))


def _map_step(dom: RadialDomain, X: np.ndarray) -> np.ndarray:
    """One plain step of F on the 2-D float64 rows X, (n, N): one field
    call on the rows, then the row stage _return_map_rows, whose image rows
    come in its layout, a view of component rows.  One row runs as the
    point X[0], (N,), and its image comes back as a (1, N) row; a point X,
    (N,), as the orbit engine steps one plain seed, gives its image as a
    point.  The step of iterate_batch and iterate_orbit, and of
    return_map_batch."""
    if len(X) == 1:
        return _return_map_rows(dom.core, X[0], *dom.field.ambient_value_grad(X[0]))[None]
    return _return_map_rows(dom.core, X, *dom.field.ambient_value_grad(X))


def _return_map_rows(core: ConvexCore, X: np.ndarray, d: np.ndarray, G: np.ndarray) -> np.ndarray:
    """The field-free row stage of the kernel: the return leg of surfaces
    on core points X, (n, N), with thickness d, (n,), and ambient gradient
    G, (n, N), of any fields on core.  d > 0 is checked on every row, and
    the leg runs in blocks of at most BLOCK_ROWS rows.  The image rows are
    the (n, N) view of contiguous component rows (N, n), as the leg leaves
    them: Fortran-ordered, not copied out.  A point X, (N,), with scalar d
    and G, (N,), runs the leg once, with the same checks and messages.

    The failure branch runs only when some hit is not finite.  It first
    reruns the checking outer geometry (_outer_geometry_rows) on the same
    blocks, which raises ImmersionFailure with the count of degenerate
    normals in the first block that has any, as a leg that checked each
    block as it ran would; otherwise the rays that miss are counted over
    the whole batch, and the count names how many of them come from rows
    whose point or thickness is not finite."""
    if (d <= 0.0) if X.ndim == 1 else np.count_nonzero(d <= 0.0):
        raise InadmissibleThickness("nonpositive thickness encountered in batch step")
    if X.ndim == 1 or len(X) <= BLOCK_ROWS:
        Y = _return_leg_rows(core, X, d, G)
    else:
        Y = np.empty(X.shape[::-1]).T
        for i in range(0, len(X), BLOCK_ROWS):
            s = slice(i, i + BLOCK_ROWS)
            Y[s] = _return_leg_rows(core, X[s], d[s], G[s])
    if X.ndim == 1:
        # each component tested as it is: a sum of them overflows to inf
        # for a finite point near the largest float
        ok = all(map(math.isfinite, Y.tolist()))
    else:
        finite = np.isfinite(Y)
        ok = np.count_nonzero(finite) == finite.size
    if not ok:
        # a degenerate outer normal gives a hit that is not finite: the
        # checking outer geometry names it, block by block as the leg runs
        if X.ndim == 1:
            _outer_geometry_rows(core, X, d, G)
        else:
            for i in range(0, len(X), BLOCK_ROWS):
                s = slice(i, i + BLOCK_ROWS)
                _outer_geometry_rows(core, X[s], d[s], G[s])
        miss = int((~np.isfinite(Y).all(axis=-1)).sum())
        bad = int(np.sum(~(np.isfinite(X).all(axis=-1) & np.isfinite(d))))
        tail = f", {bad} of them from rows that are not finite" if bad else ""
        raise NormalRayMissesCore(f"{miss} inward rays miss the core{tail}")
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

    def batch(self, X: np.ndarray) -> np.ndarray:
        return self.batch_fn(X)


@dataclass
class OrbitRecord:
    """Trajectory of the discrete dynamics with per-step diagnostics."""

    points: np.ndarray              # (n, N) ambient rows, the seed's as given first
    thickness_values: np.ndarray    # (n,) d at each row
    displacement_norms: np.ndarray  # (max(n - 1, 0),) |x_{k+1} - x_k|
    status: str                     # "converged" | "max_iterations" | "error"
    error_kind: str | None = None
    limit_grad_norm: float | None = None  # |grad d| at the last row, when converged


@dataclass
class BatchOrbitResult:
    """Limits and step counts for a batch of seeds (no trajectories kept)."""

    limits: np.ndarray       # (n, N) ambient, last iterate
    steps: np.ndarray        # (n,) int
    converged: np.ndarray    # (n,) bool


def _row_norm(D: np.ndarray) -> np.ndarray:
    """|D| of each (n, N) row, the square root of _row_dot(D, D): equal to
    np.linalg.norm(D, axis=-1) bit for bit.  A point D, (N,), gives its
    norm as a float, the same correctly rounded square root."""
    s = _row_dot(D, D)
    if D.ndim == 1:
        return math.sqrt(s)
    return np.sqrt(s, out=s)


def _orbits(step, core: ConvexCore, seeds: np.ndarray, tol: float, max_iters: int,
            amplify: bool = False, record=None) -> BatchOrbitResult:
    """The one orbit loop: iterate step, a batched map (n, N) -> (n, N)
    on core, from each seed, a row of seeds, until the seed stops.

    Plain, a seed's next iterate is its image y = step(x), and it stops at
    the first displacement |y - x| below tol.  Amplified, it takes
    settle_batch's G_K steps and stops on the contraction rule.  Each map
    call maps exactly the seeds still running, and max_iters counts map
    calls.  A seed that stops keeps its image as its limit and the number
    of map calls so far as its steps; the others keep their last iterate
    and the number of calls made.  record, when given, receives each
    call's image rows.

    One plain seed runs as its point, (N,): the step maps the point, its
    displacement norm is a scalar and its stop one comparison."""
    if not tol > 0:  # also true for a nan tol
        raise ValueError("tol must be positive")
    X = np.array(seeds, dtype=float, ndmin=2)
    n = X.shape[0]
    steps = np.zeros(n, dtype=int)
    converged = np.zeros(n, dtype=bool)
    point = n == 1 and not amplify
    # the working rows are the seeds still running: ids, iterates and, when
    # amplified, the settle state: last displacements (-inf forces two steps,
    # so the first displacement cannot satisfy the contraction rule
    # vacuously) with their vectors, and gains K
    work = [np.arange(n), X[0].copy() if point else X.copy()]
    if amplify:
        trust = TRUST_RADIUS * core.surface_scale()
        work += [np.full(n, -np.inf), np.zeros(X.shape), np.ones(n)]
    it = 0
    while work[0].size and it < max_iters:
        it += 1
        ids, Xa = work[:2]
        Y = step(Xa)
        if record is not None:
            record(Y)
        D = Y - Xa
        disp = _row_norm(D)
        stop = disp < tol
        if amplify:
            prev, prev_D, K = work[2:]
            stop &= disp <= prev
            with np.errstate(divide="ignore", invalid="ignore"):
                cos = _row_dot(D, prev_D) / (disp * prev)  # nan where undefined
                r = disp / prev
                K_next = K * np.where(cos >= AMPLIFY_COS, 2.0, 0.5)
                # the cap K / (1 - r) where r < 1; where r >= 1 or r is nan,
                # fmax makes it K / 0 = +inf, which caps nothing.  On the
                # first step (prev = -inf) r is -0.0 and the cap is K = 1
                np.minimum(K_next, K / np.fmax(1.0 - r, 0.0), out=K_next)
                np.minimum(K_next, trust / disp, out=K_next)
                np.maximum(K_next, 1.0, out=K_next)
            # the map's array is never written: where every row that goes on
            # is amplified, all rows are retracted at once (a stopping row's
            # retracted point is dropped with it); where only some are, they
            # are gathered, retracted and scattered into a copy of the images
            Xn = Y
            amp = np.flatnonzero((K_next != 1.0) & ~stop)
            if amp.size and amp.size + np.count_nonzero(stop) == len(stop):
                Xn = retract_batch(core, Xa, K_next[:, None] * D)
            elif amp.size:
                Xn = Y.copy()
                Xn[amp] = retract_batch(core, Xa.take(amp, axis=0),
                                        K_next.take(amp)[:, None] * D.take(amp, axis=0))
            work = [ids, Xn, disp, D, K_next]
        else:
            work = [ids, Y]
        if point:
            if stop:  # the point goes to its limit as work's iterate
                converged[0] = True
                break
        elif np.count_nonzero(stop):
            keep = np.flatnonzero(~stop)
            done = ids[stop]
            X[done], steps[done], converged[done] = Y[stop], it, True
            # take along the rows of each array's transpose, so component
            # rows (N, n), the plain step's layout, stay contiguous
            work = [w.T.take(keep, axis=-1).T for w in work]
    ids, Xa = work[:2]
    X[ids], steps[ids] = Xa, it
    return BatchOrbitResult(X, steps, converged)


def iterate_orbit(
    dom: RadialDomain,
    x0: np.ndarray,
    max_iters: int = DEFAULT_MAX_ITERS,
    tol: float = DEFAULT_TOL,
) -> OrbitRecord:
    """Iterate F from the ambient row x0, (N,), until the ambient
    displacement drops below tol.

    The orbit engine runs the one seed as its point, (N,), each step one
    plain step (_map_step) on the point, and records each image point as
    the step returns it, an array that owns its data, which nothing writes
    into; the points are joined into (n, N) rows after the loop.  Then
    one batched pass over the rows takes the thickness values and
    checks them as a loop of scalar steps would each step: every iterate is
    on the core (|implicit| <= TOL_SURFACE) and every row, the seed's
    included, has d > 0.  The record ends before the first row that fails,
    with status "error" and error kind OffSurface or InadmissibleThickness;
    a ShellmapError raised by the kernel ends it at the last point reached.
    A row joins the record with its thickness, also on an error record;
    row 0 is x0 as given."""
    core = dom.core
    x = np.asarray(x0, dtype=float)
    rows = [x]
    status, error_kind = "max_iterations", None
    try:
        if _orbits(partial(_map_step, dom), core, x, tol, max_iters, record=rows.append).converged[0]:
            status = "converged"
    except ShellmapError as exc:
        status, error_kind = "error", type(exc).__name__
    X = np.concatenate(rows).reshape(-1, core.dim)
    rows.clear()  # the joined block replaces the per-step points
    S = np.diff(X, axis=0)
    # each step's norm as for one point, which an axis norm can differ from in the last bit
    disps = np.sqrt(np.vecdot(S, S))
    d = dom.field.ambient_value(X)
    off = np.abs(core.implicit(X)) > TOL_SURFACE
    off[0] = False  # the seed is taken as given
    bad = off | (d <= 0.0)
    if bad.any():
        k = int(np.argmax(bad))
        status = "error"
        error_kind = OffSurface.__name__ if off[k] else InadmissibleThickness.__name__
        X, d, disps = X[:k], d[:k], disps[:max(k - 1, 0)]
    gnorm = float(np.linalg.norm(dom.field.tangent_gradient(X[-1:])[0])) if status == "converged" else None
    return OrbitRecord(X, d, disps, status, error_kind, gnorm)


def iterate_batch(
    dom: RadialDomain,
    seeds: np.ndarray,
    max_iters: int = DEFAULT_MAX_ITERS,
    tol: float = DEFAULT_TOL,
) -> BatchOrbitResult:
    """Iterate the return map of dom on many seeds at once; a seed stops at
    the first displacement below tol (plain iteration).
    It takes the domain, not a BlackBoxMap, because its callers (the
    criterion 9 descent and its benchmark) hold one."""
    return _orbits(partial(_map_step, dom), dom.core, seeds, tol, max_iters)


def settle_batch(F: BlackBoxMap, seeds: np.ndarray,
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
    with its F image as its limit.  Each map call maps exactly the seeds
    still running, and max_iters counts map calls.

    A step's bookkeeping is a few whole-row passes: K is updated in
    place, the cap K / (1 - r) taken as K / max(1 - r, 0), which is +inf
    and caps nothing where r >= 1 (r = disp / prev, which is -0.0 on the
    first step, where prev = -inf, so the cap is then K = 1), and the rows
    to amplify are found once as an index.  Where every row that goes on
    is amplified, all rows are retracted at once; where only some are,
    those are gathered, retracted and scattered back into a copy of the
    images; a step with no amplified row keeps F's images as they are,
    uncopied.  F's arrays are never written.
    """
    return _orbits(F.batch, F.core, seeds, tol, max_iters, amplify=True)


def thickness_step_stats(dom: RadialDomain, X: np.ndarray):
    """One return step on each point of X: (d_before, d_after, displacement).

    Used to measure how the thickness changes along the dynamics (the
    monotonicity diagnostic).
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = return_map_batch(dom, X)
    d0 = dom.field.ambient_value(X)
    d1 = dom.field.ambient_value(Y)
    return d0, d1, _row_norm(Y - X)
