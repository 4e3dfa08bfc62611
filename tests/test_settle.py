"""settle_batch: orbits on amplified steps against plain iteration.

The oracle is a test-local loop of plain steps of F with the same
contraction rule and the same four-field result.  fixed_point_search and
basin_decomposition run once on settle_batch and once with the oracle in
its place; their fixed-point sets and basin labels must agree.  Where the
gain K stays 1 (the spiral) settle_batch is the oracle bit for bit.
"""

import numpy as np
import pytest

from shellmap import (
    BatchOrbitResult,
    BlackBoxMap,
    ConvexCore,
    Fourier2DField,
    RadialDomain,
    SurfacePoint,
    ZonalLegendreField,
    basin_decomposition,
    return_map_batch,
    settle_batch,
)
from shellmap import analysis, dynamics, inverse
from shellmap.harness import load_bundled, parse_scenario_text, run_scenario
from shellmap.surfaces import fibonacci_chart_grid, retract_batch

SPHERE = ConvexCore.sphere(1.0)
ELLIPSOID = ConvexCore.ellipsoid(2.0, 1.0, 0.5)
CIRCLE = ConvexCore.circle(1.0)
SPIRAL_ANGLE, SPIRAL_LIFT = 0.3, 0.01


def spiral_map(X):
    """Rotation by SPIRAL_ANGLE about z after X -> normalize(X + SPIRAL_LIFT e_z):
    the north pole attracts along a spiral (rate about 0.99), the south pole
    repels."""
    Y = X + np.array([0.0, 0.0, SPIRAL_LIFT])
    Y /= np.linalg.norm(Y, axis=-1, keepdims=True)
    c, s = np.cos(SPIRAL_ANGLE), np.sin(SPIRAL_ANGLE)
    return Y @ np.array([[c, s, 0.0], [-s, c, 0.0], [0.0, 0.0, 1.0]])


def _domain_box(core, field):
    return BlackBoxMap.wrap_domain(RadialDomain(core, field))


BOXES = {
    "zonal_sphere": lambda: _domain_box(SPHERE, ZonalLegendreField(SPHERE, 0.5, 0.05)),
    "tilted_ellipsoid": lambda: _domain_box(
        ELLIPSOID, ZonalLegendreField(ELLIPSOID, 0.25, 0.02, axis=(0.3, 0.5, 0.8))),
    "fourier_circle": lambda: _domain_box(
        CIRCLE, Fourier2DField(CIRCLE, 0.5, [(2, 0.05), (3, 0.02)])),
    "spiral": lambda: BlackBoxMap(SPHERE, spiral_map),
}


def plain_orbits(F, seeds, tol, max_iters):
    """The oracle: plain iteration to the contraction rule at tol."""
    X = np.array(seeds, dtype=float, ndmin=2)
    n = X.shape[0]
    steps = np.zeros(n, dtype=int)
    converged = np.zeros(n, dtype=bool)
    prev = np.full(n, -np.inf)
    active = np.arange(n)
    for _ in range(max_iters):
        if active.size == 0:
            break
        Y = F.batch(X[active])
        disp = np.linalg.norm(Y - X[active], axis=-1)
        X[active] = Y
        steps[active] += 1
        done = (disp < tol) & (disp <= prev[active])
        prev[active] = disp
        converged[active[done]] = True
        active = active[~done]
    return BatchOrbitResult(X, steps, converged)


def boolean_mask_settle(F, seeds, tol, max_iters):
    """settle_batch's amplified loop with the bookkeeping it had before one
    index took the place of its masks: boolean gathers and scatters of the
    amplified rows, K through a chain of np.where, and working rows
    compressed by a mask along each array's transpose (the layout
    settle_batch keeps, so F sees rows stored the same way)."""
    core = F.core
    X = np.array(seeds, dtype=float, ndmin=2)
    n = X.shape[0]
    steps, converged = np.zeros(n, dtype=int), np.zeros(n, dtype=bool)
    trust = dynamics.TRUST_RADIUS * core.surface_scale()
    work = [np.arange(n), X.copy(), np.full(n, -np.inf), np.zeros(X.shape), np.ones(n)]
    it = 0
    while work[0].size and it < max_iters:
        it += 1
        ids, Xa, prev, prev_D, K = work
        Y = F.batch(Xa)
        D = Y - Xa
        disp = np.linalg.norm(D, axis=-1)
        stop = (disp < tol) & (disp <= prev)
        with np.errstate(divide="ignore", invalid="ignore"):
            cos = np.sum(D * prev_D, axis=-1) / (disp * prev)
            r = np.where(prev > 0.0, disp / prev, np.inf)
            K_next = np.where(cos >= dynamics.AMPLIFY_COS, 2.0 * K, 0.5 * K)
            K_next = np.where(r < 1.0, np.minimum(K_next, K / (1.0 - r)), K_next)
            K_next = np.maximum(np.minimum(K_next, trust / disp), 1.0)
        Xn = Y.copy()
        amp = (K_next != 1.0) & ~stop
        if amp.any():
            Xn[amp] = retract_batch(core, Xa[amp], K_next[amp, None] * D[amp])
        work = [ids, Xn, disp, D, K_next]
        if stop.any():
            X[ids[stop]], steps[ids[stop]], converged[ids[stop]] = Y[stop], it, True
            work = [w.T.compress(~stop, axis=-1).T for w in work]
    X[work[0]], steps[work[0]] = work[1], it
    return BatchOrbitResult(X, steps, converged)


def _seeds(core, n):
    return [SurfacePoint.from_chart(core, ch) for ch in fibonacci_chart_grid(core, n)]


@pytest.mark.parametrize("name", sorted(BOXES))
def test_basin_labels_equal_plain_iteration(name, monkeypatch):
    F = BOXES[name]()
    seeds = _seeds(F.core, 120)
    settled = basin_decomposition(F, seeds, tol=1e-10, cluster_radius=1e-4 * F.core.surface_scale())
    monkeypatch.setattr(inverse, "settle_batch", plain_orbits)
    plain = basin_decomposition(F, seeds, tol=1e-10, cluster_radius=1e-4 * F.core.surface_scale())
    assert np.array_equal(settled.labels, plain.labels)
    assert settled.continuum == plain.continuum
    assert len(settled.cluster_reps) == len(plain.cluster_reps)


@pytest.mark.parametrize("name", sorted(BOXES))
def test_fixed_point_sets_equal_plain_iteration(name, monkeypatch):
    F = BOXES[name]()
    settled = analysis.fixed_point_search(F, 120, tol=1e-10)
    monkeypatch.setattr(analysis, "settle_batch", plain_orbits)
    plain = analysis.fixed_point_search(F, 120, tol=1e-10)
    assert len(settled.points) == len(plain.points) > 0
    assert settled.continuum == plain.continuum
    assert settled.unresolved == plain.unresolved == 0
    A, B = settled.points, plain.points
    gap = np.linalg.norm(A[:, None] - B[None], axis=-1)
    scale = F.core.surface_scale()
    assert np.max(gap.min(axis=0)) <= 1e-12 * scale
    assert np.max(gap.min(axis=1)) <= 1e-12 * scale


def test_settle_batch_stops_on_contraction():
    F = BOXES["zonal_sphere"]()
    X = SPHERE.ambient_from_chart(fibonacci_chart_grid(SPHERE, 50))
    near = 1e-6
    res = settle_batch(F, X, tol=1e-10)
    plain = plain_orbits(F, X, 1e-10, 100_000)
    assert res.converged.all()
    assert np.all(res.steps <= plain.steps)
    assert np.sum(res.steps) < 0.5 * np.sum(plain.steps)
    assert np.max(np.linalg.norm(res.limits - plain.limits, axis=-1)) <= near
    assert np.max(np.abs(SPHERE.implicit(res.limits))) <= 1e-15
    assert np.max(np.linalg.norm(F.batch(res.limits) - res.limits, axis=-1)) <= near


def test_settle_batch_leaves_a_repeller():
    # 1e-11 off the repelling equator the first displacements are below
    # tol but growing: the contraction rule must not stop there
    F = BOXES["zonal_sphere"]()
    X = SPHERE.ambient_from_chart(np.array([[np.pi / 2 - 1e-11, 0.3], [np.pi / 2 + 1e-11, 2.0]]))
    assert np.all(np.linalg.norm(F.batch(X) - X, axis=-1) < 1e-10)
    res = settle_batch(F, X, tol=1e-10)
    assert res.converged.all()
    assert np.allclose(res.limits[:, 2], [1.0, -1.0], atol=1e-5)


def test_settle_batch_on_no_seeds_makes_no_call():
    def never(X):
        raise AssertionError("map called")

    res = settle_batch(BlackBoxMap(SPHERE, never), np.empty((0, 3)))
    assert res.limits.shape == (0, 3) and res.steps.size == 0


# mapped points of the two scenarios before settle_batch (plain iteration
# to tol), counted through harness.run_scenario
PLAIN_POINTS = {"zonal_fixed_points": 754_110, "zonal_basins": 572_118}
# mapped points of the four orbit-heavy scenarios when settle_batch took
# only steps of F (K = 1 throughout, with an Aitken estimate every eighth
# step), counted the same way
UNAMPLIFIED_POINTS = {"zonal_fixed_points": 255_400, "zonal_basins": 209_488,
                      "zonal_reconstruct": 191_706, "circle_cos2_fixed_points": 156_652}


def _mapped_points(name, tmp_path, monkeypatch):
    """Points mapped by the kernel while the bundled scenario name runs."""
    points = []

    def counted(dom, X):
        points.append(len(X))
        return return_map_batch(dom, X)

    monkeypatch.setattr(dynamics, "return_map_batch", counted)
    run_scenario(parse_scenario_text(load_bundled(name)), out_dir=tmp_path)
    return sum(points)


@pytest.mark.parametrize("name", sorted(PLAIN_POINTS))
def test_scenario_map_budget(name, tmp_path, monkeypatch):
    assert 0 < _mapped_points(name, tmp_path, monkeypatch) <= 0.4 * PLAIN_POINTS[name]


@pytest.mark.parametrize("name", sorted(UNAMPLIFIED_POINTS))
def test_amplified_steps_map_a_fifth_of_the_points(name, tmp_path, monkeypatch):
    assert 0 < _mapped_points(name, tmp_path, monkeypatch) <= UNAMPLIFIED_POINTS[name] / 5


def test_thin_shell_fixed_points_resolve_in_few_calls():
    # criterion 8's base map: rates 1 - 1e-4 near the fixed points, where
    # plain steps left seeds unresolved after 80k calls
    calls = []
    box = _domain_box(SPHERE, ZonalLegendreField(SPHERE, 0.03, 1e-3))
    F = BlackBoxMap(SPHERE, lambda X: (calls.append(len(X)), box.batch(X))[1])
    scan = analysis.fixed_point_search(F, 120, tol=1e-10, max_iters=80_000)
    assert scan.unresolved == 0
    assert 0 < len(calls) <= 1_000
    P = scan.points
    # the critical set of P2: the two poles and the equator circle
    gap = np.minimum.reduce([np.linalg.norm(P - [0.0, 0.0, 1.0], axis=-1),
                             np.linalg.norm(P + [0.0, 0.0, 1.0], axis=-1), np.abs(P[:, 2])])
    assert len(P) > 0 and np.max(gap) <= 1e-10


def test_spiral_keeps_unit_gain():
    # the spiral's displacements turn by SPIRAL_ANGLE a step, so their
    # cosine stays below the amplification threshold and K stays at 1:
    # every step is a step of F, and the orbits are plain iteration's
    F = BOXES["spiral"]()
    X = SPHERE.ambient_from_chart(fibonacci_chart_grid(SPHERE, 60))
    X = X[X[:, 2] > -0.9]  # off the repelling south pole
    res = settle_batch(F, X, tol=1e-10, max_iters=20_000)
    plain = plain_orbits(F, X, 1e-10, 20_000)
    assert res.converged.all()
    assert np.array_equal(res.limits, plain.limits)
    assert np.array_equal(res.steps, plain.steps)


@pytest.mark.parametrize("name", sorted(BOXES))
def test_settle_batch_seeds_are_independent(name):
    # K and every other settle state are per seed: a batch of n seeds gives
    # the limits and steps of n batches of one
    F = BOXES[name]()
    X = F.core.ambient_from_chart(fibonacci_chart_grid(F.core, 12))
    res = settle_batch(F, X, tol=1e-10)
    one = [settle_batch(F, x[None], tol=1e-10) for x in X]
    assert np.array_equal(res.steps, np.concatenate([o.steps for o in one]))
    assert np.array_equal(res.limits, np.concatenate([o.limits for o in one]))
    assert np.array_equal(res.converged, np.concatenate([o.converged for o in one]))


@pytest.mark.parametrize("name", sorted(BOXES))
def test_settle_batch_equals_the_boolean_mask_step_bit_for_bit(name):
    # the index gathers, the in-place K update (K / max(1 - r, 0) for the
    # where on r < 1) and the compaction by one index change no bit of a
    # limit, a step count or a flag
    F = BOXES[name]()
    X = F.core.ambient_from_chart(fibonacci_chart_grid(F.core, 400))
    got = settle_batch(F, X, tol=1e-10, max_iters=20_000)
    want = boolean_mask_settle(F, X, 1e-10, 20_000)
    assert got.limits.tobytes() == want.limits.tobytes()
    assert np.array_equal(got.steps, want.steps)
    assert np.array_equal(got.converged, want.converged)


# the branches of an amplified step each box takes on the oracle's seeds:
# "all" where every running row that goes on is amplified (all rows retracted
# at once), "some" where only some are (those gathered, retracted and
# scattered).  The meridian orbits of the zonal fields keep their direction,
# so after the first step every row that goes on is amplified; the circle's
# take both branches, and the spiral keeps K = 1
ORACLE_BRANCHES = {"fourier_circle": {"all", "some"}, "spiral": set(), "tilted_ellipsoid": {"all"},
                   "zonal_sphere": {"all"}}


@pytest.mark.parametrize("name", sorted(BOXES))
def test_the_oracle_boxes_take_both_amplified_branches(name, monkeypatch):
    F = BOXES[name]()
    X = F.core.ambient_from_chart(fibonacci_chart_grid(F.core, 400))
    mapped, branches = [], set()
    box = BlackBoxMap(F.core, lambda X: (mapped.append(len(X)), F.batch(X))[1])

    def retract(core, X, V):
        branches.add("all" if len(X) == mapped[-1] else "some")
        return retract_batch(core, X, V)

    monkeypatch.setattr(dynamics, "retract_batch", retract)
    settle_batch(box, X, tol=1e-10, max_iters=20_000)
    assert branches == ORACLE_BRANCHES[name]


@pytest.mark.parametrize("core", [ConvexCore.sphere(1.7), ConvexCore.circle(0.6)], ids=["sphere", "circle"])
def test_retract_batch_scales_by_the_axis_sum_of_squares(core):
    # the radial scaling sums each row's squares column by column; its bits
    # are those of (Y * Y).sum(axis=-1), on rows with zero components too
    rng = np.random.default_rng(17)
    N = core.dim
    Y = rng.normal(size=(10_000, N)) * 10.0 ** rng.uniform(-6.0, 6.0, (10_000, 1))
    zeros = np.array([mask for mask in np.ndindex(*(2,) * N) if 0 < sum(mask) < N], dtype=bool)
    Y = np.concatenate([Y, np.where(zeros, 0.0, Y[:len(zeros)])])
    want = Y * (core.semi_axes[0] / np.sqrt((Y * Y).sum(axis=-1, keepdims=True)))
    assert retract_batch(core, Y[:5], np.zeros_like(Y[:5])).tobytes() == want[:5].tobytes()
    assert retract_batch(core, Y, np.zeros_like(Y)).tobytes() == want.tobytes()
    assert retract_batch(core, 0.5 * Y, 0.5 * Y).tobytes() == want.tobytes()
