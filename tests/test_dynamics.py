"""Exact forward dynamics: reciprocal map, return map, orbits.

Expected values here are frozen from the ray-geometry oracle itself (the
map is computed two independent ways where possible); in particular the
dynamics provably climbs the thickness field, so orbits terminate at
thickness maxima and the thickness sequence is nondecreasing.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shellmap import (
    BlackBoxMap,
    NormalRayMissesCore,
    ConstantField,
    ConvexCore,
    Fourier2DField,
    InadmissibleThickness,
    RadialDomain,
    SurfacePoint,
    ZonalLegendreField,
    iterate_batch,
    iterate_orbit,
    radial_map,
    reciprocal_map,
    return_map,
    return_map_batch,
    thickness_step_stats,
)
from shellmap import dynamics
from shellmap.dynamics import OrbitRecord
from shellmap.errors import ShellmapError
from shellmap.surfaces import fibonacci_chart_grid

SPHERE = ConvexCore.sphere(1.0)
CIRCLE = ConvexCore.circle(1.0)


def zonal_domain(d0=0.5, eps=0.01):
    return RadialDomain(SPHERE, ZonalLegendreField(SPHERE, d0, eps))


def pt(core, *chart):
    return SurfacePoint.from_chart(core, *chart)


# ---------------------------------------------------------------------------
# reciprocal and return maps
# ---------------------------------------------------------------------------

def test_constant_field_reciprocal_inverts_radial():
    dom = RadialDomain(SPHERE, ConstantField(SPHERE, 0.5))
    for theta, phi in [(0.3, 0.1), (1.2, 4.0), (2.8, 2.2)]:
        p = pt(SPHERE, theta, phi)
        x = radial_map(dom, p)
        back = reciprocal_map(dom, x)
        assert np.linalg.norm(back.ambient - p.ambient) < 1e-13


def test_constant_field_circle_reciprocal():
    dom = RadialDomain(CIRCLE, ConstantField(CIRCLE, 0.3))
    p = pt(CIRCLE, 0.77)
    x = radial_map(dom, p)
    assert np.allclose(x.ambient, 1.3 * p.ambient, atol=1e-14)
    assert np.linalg.norm(reciprocal_map(dom, x).ambient - p.ambient) < 1e-13


def test_constant_field_return_is_identity():
    dom = RadialDomain(SPHERE, ConstantField(SPHERE, 0.5))
    for theta, phi in [(0.5, 0.0), (1.0, 1.0), (2.0, 5.0)]:
        p = pt(SPHERE, theta, phi)
        assert np.linalg.norm(return_map(dom, p).ambient - p.ambient) < 1e-12


def test_zonal_critical_points_are_fixed():
    dom = zonal_domain()
    for theta in (0.0, np.pi / 2, np.pi):
        p = pt(SPHERE, theta, 0.8)
        assert np.linalg.norm(return_map(dom, p).ambient - p.ambient) < 1e-10


def test_off_critical_points_move():
    dom = zonal_domain()
    p = pt(SPHERE, np.pi / 4, 0.0)
    assert np.linalg.norm(return_map(dom, p).ambient - p.ambient) > 1e-5


def test_return_map_moves_toward_thickness_maximum():
    # at theta = pi/4 the thickness increases toward the pole, and the exact
    # inward shell normal tilts forward along +grad d: the iterate climbs
    dom = zonal_domain()
    p = pt(SPHERE, np.pi / 4, 0.0)
    q = return_map(dom, p)
    assert q.theta < p.theta  # toward the pole (the maximum of d)
    assert dom.field.eval(q) > dom.field.eval(p)


def test_reciprocal_lands_within_eps_of_foot():
    # || pi(Phi(c)) - c || <= K eps over a grid (K fit numerically ~ d)
    for eps in (1e-2, 1e-3, 1e-4):
        dom = zonal_domain(0.5, eps)
        worst = 0.0
        for ch in fibonacci_chart_grid(SPHERE, 200):
            p = SurfacePoint.from_chart(SPHERE, ch)
            drift = np.linalg.norm(return_map(dom, p).ambient - p.ambient)
            worst = max(worst, drift)
        assert worst < 2.0 * eps


def test_batch_matches_scalar():
    dom = zonal_domain()
    charts = fibonacci_chart_grid(SPHERE, 64)
    X = SPHERE.ambient_from_chart(charts)
    Y = return_map_batch(dom, X)
    for i in range(0, 64, 7):
        y = return_map(dom, SurfacePoint.from_chart(SPHERE, charts[i]))
        assert np.linalg.norm(Y[i] - y.ambient) < 1e-13


# the drawn point joins a mixed batch: points on both sides of the equator
# and next to both poles
_MIX_CHARTS = [(0.3, 0.2), (1.9, 4.0), (1e-6, 2.5), (np.pi - 3e-7, 0.4)]
_TILTED = ConvexCore.ellipsoid(2.0, 1.0, 0.5)
_BIT_DOMAINS = {
    "sphere": zonal_domain(),
    "ellipsoid": RadialDomain(_TILTED, ZonalLegendreField(_TILTED, 0.25, 0.02, axis=(0.3, 0.5, 0.8))),
    "circle": RadialDomain(CIRCLE, Fourier2DField(CIRCLE, 0.5, [(2, 0.05), (3, 0.02)])),
}


@settings(max_examples=80, deadline=None)
@given(theta=st.floats(0.0, np.pi), phi=st.floats(0.0, 2 * np.pi),
       slot=st.integers(0, len(_MIX_CHARTS)), kind=st.sampled_from(sorted(_BIT_DOMAINS)))
def test_scalar_return_map_is_a_batch_row_bit_for_bit(theta, phi, slot, kind):
    dom = _BIT_DOMAINS[kind]
    k = dom.core.dim - 1
    charts = [ch[:k] for ch in _MIX_CHARTS]
    charts.insert(slot, (theta, phi)[:k])
    Y = return_map_batch(dom, dom.core.ambient_from_chart(np.array(charts)))
    p = SurfacePoint.from_chart(dom.core, *charts[slot])
    assert np.array_equal(return_map(dom, p).ambient, Y[slot])


POLE_THETAS = [1e-7, 1.1e-6, 3e-6, 1e-5, 1e-4, 1e-3, 1e-2]


@pytest.mark.parametrize(
    "core",
    [SPHERE, ConvexCore.sphere(1e-3), ConvexCore.ellipsoid(2.0, 1.0, 0.5)],
    ids=["unit_sphere", "sphere_1e-3", "ellipsoid_2_1_0.5"],
)
def test_constant_shell_is_identity_to_round_off_near_poles(core):
    # F = id exactly on a constant shell; a normal built from chart tangents
    # loses ~1e-11 here, where sin(theta) = sqrt(1 - z^2) cancels
    dom = RadialDomain(core, ConstantField(core, 0.5 * core.surface_scale()))
    charts = np.array([(t, 0.7) for t in POLE_THETAS] + [(np.pi - t, 0.7) for t in POLE_THETAS])
    X = core.ambient_from_chart(charts)
    tol = 1e-15 * core.surface_scale()
    assert np.max(np.linalg.norm(return_map_batch(dom, X) - X, axis=-1)) <= tol
    for ch, x in zip(charts, X):
        assert np.linalg.norm(return_map(dom, SurfacePoint.from_chart(core, ch)).ambient - x) <= tol


def test_return_map_batch_counts_missed_rays(monkeypatch):
    dom = zonal_domain()
    hit = dynamics._ray_hit_batch

    def missing_two(core, O, D):
        Y, grazing = hit(core, O, D)
        Y[[1, 3]] = np.nan
        return Y, grazing

    monkeypatch.setattr(dynamics, "_ray_hit_batch", missing_two)
    X = SPHERE.ambient_from_chart(fibonacci_chart_grid(SPHERE, 5))
    with pytest.raises(NormalRayMissesCore, match="^2 inward rays miss the core$"):
        return_map_batch(dom, X)


@pytest.mark.parametrize("dom", [RadialDomain(SPHERE, ConstantField(SPHERE, 0.0)),
                                 RadialDomain(SPHERE, ZonalLegendreField(SPHERE, 0.1, 0.5))],
                         ids=["zero", "negative"])
def test_return_map_batch_rejects_nonpositive_thickness(dom):
    # the last row is on the equator: d = 0, and 0.1 + 0.5 P2(0) < 0
    X = SPHERE.ambient_from_chart(np.array([[0.1, 0.0], [0.2, 1.0], [np.pi / 2, 0.0]]))
    with pytest.raises(InadmissibleThickness):
        return_map_batch(dom, X)


def test_return_points_stay_on_surface():
    dom = zonal_domain()
    X = SPHERE.ambient_from_chart(fibonacci_chart_grid(SPHERE, 256))
    Y = return_map_batch(dom, X)
    assert np.abs(SPHERE.implicit(Y)).max() < 1e-12


# ---------------------------------------------------------------------------
# thickness monotonicity
# ---------------------------------------------------------------------------

def test_thickness_nondecreasing_under_one_step():
    # the ray mechanism ascends: d(F(c)) >= d(c), equality on the critical set
    dom = zonal_domain()
    rng = np.random.default_rng(0)
    charts = np.stack(
        [np.arccos(rng.uniform(-1, 1, 10_000)), rng.uniform(0, 2 * np.pi, 10_000)], axis=-1
    )
    X = SPHERE.ambient_from_chart(charts)
    d0, d1, disp = thickness_step_stats(dom, X)
    assert np.all(d1 >= d0 - 1e-12)
    moved = disp > 1e-6
    assert np.all(d1[moved] > d0[moved])


def test_descent_violation_counter_measures_ascent():
    # counting d(F(c)) > d(c) + 1e-12 across random points: the ray map
    # violates descent essentially everywhere off the critical set
    dom = zonal_domain()
    rng = np.random.default_rng(1)
    charts = np.stack(
        [np.arccos(rng.uniform(-1, 1, 2000)), rng.uniform(0, 2 * np.pi, 2000)], axis=-1
    )
    X = SPHERE.ambient_from_chart(charts)
    d0, d1, _ = thickness_step_stats(dom, X)
    violations = int(np.sum(d1 > d0 + 1e-12))
    assert violations / 2000 > 0.99


# ---------------------------------------------------------------------------
# orbits
# ---------------------------------------------------------------------------

def test_orbit_constant_field_converges_immediately():
    dom = RadialDomain(SPHERE, ConstantField(SPHERE, 0.5))
    rec = iterate_orbit(dom, pt(SPHERE, 1.0, 2.0), tol=1e-10)
    assert rec.status == "converged"
    assert len(rec.points) == 2 and rec.displacement_norms[0] < 1e-12


def test_orbit_record_consistency():
    dom = zonal_domain()
    rec = iterate_orbit(dom, pt(SPHERE, 1.0, 0.5), max_iters=5000, tol=1e-8)
    assert len(rec.points) == len(rec.thickness_values)
    assert len(rec.displacement_norms) == len(rec.points) - 1
    for k in range(len(rec.displacement_norms)):
        d = np.linalg.norm(rec.points[k + 1].ambient - rec.points[k].ambient)
        assert abs(d - rec.displacement_norms[k]) < 1e-15
    assert rec.status == "converged"
    assert rec.displacement_norms[-1] < 1e-8


def test_orbit_from_quarter_colatitude_reaches_pole():
    # the maximum of d sits at the poles; the orbit climbs there
    dom = zonal_domain()
    rec = iterate_orbit(dom, pt(SPHERE, np.pi / 4, 0.0), tol=1e-10)
    assert rec.status == "converged"
    assert rec.limit.theta < 1e-3
    assert rec.limit_grad_norm < 1e-6
    assert abs(rec.thickness_values[-1] - 0.51) < 1e-6


def test_orbit_thickness_monotone_nondecreasing():
    dom = zonal_domain()
    rec = iterate_orbit(dom, pt(SPHERE, 1.2, 0.3), max_iters=4000, tol=1e-9)
    t = np.array(rec.thickness_values)
    assert np.all(np.diff(t) >= -1e-12)


def test_orbit_seed_at_pole_fixed():
    dom = zonal_domain()
    rec = iterate_orbit(dom, pt(SPHERE, 0.0, 0.0), tol=1e-10)
    assert rec.status == "converged"
    assert len(rec.points) == 2
    assert rec.displacement_norms[0] < 1e-12


def test_orbit_error_captured():
    dom = RadialDomain(SPHERE, ZonalLegendreField(SPHERE, 0.1, 0.5))
    rec = iterate_orbit(dom, pt(SPHERE, np.pi / 2, 0.0), tol=1e-10)
    assert rec.status == "error"
    assert rec.error_kind == "InadmissibleThickness"


def test_orbit_error_record_keeps_points_and_thickness_aligned(tmp_path):
    dom = RadialDomain(SPHERE, ZonalLegendreField(SPHERE, 0.1, 0.5))
    rec = iterate_orbit(dom, pt(SPHERE, np.pi / 2, 0.0), tol=1e-10)
    assert rec.status == "error"
    assert len(rec.points) == len(rec.thickness_values) == 0
    rec.to_csv(tmp_path / "orbit.csv")
    assert len((tmp_path / "orbit.csv").read_text().splitlines()) == 1


def test_nonpositive_thickness_has_one_name_on_every_path():
    # d = 0.1 + 0.5 P2(0) = -0.15 at the equator
    dom = RadialDomain(SPHERE, ZonalLegendreField(SPHERE, 0.1, 0.5))
    p = pt(SPHERE, np.pi / 2, 0.0)
    with pytest.raises(InadmissibleThickness):
        iterate_batch(dom, p.ambient[None])
    with pytest.raises(InadmissibleThickness):
        return_map(dom, p)
    with pytest.raises(InadmissibleThickness):
        BlackBoxMap.wrap_domain(dom)(p)
    assert iterate_orbit(dom, p).error_kind == "InadmissibleThickness"


def test_orbit_csv(tmp_path):
    dom = zonal_domain()
    rec = iterate_orbit(dom, pt(SPHERE, 1.0, 0.0), max_iters=50, tol=1e-15)
    path = tmp_path / "orbit.csv"
    rec.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "step,theta,phi,x,y,z,d,displacement"
    assert len(lines) == len(rec.points) + 1


def test_iterate_batch_agrees_with_scalar_orbits():
    dom = zonal_domain()
    charts = np.array([[0.6, 0.0], [2.4, 1.0], [1.4, 3.0]])
    X = SPHERE.ambient_from_chart(charts)
    batch = iterate_batch(dom, X, max_iters=20_000, tol=1e-9)
    for i, ch in enumerate(charts):
        rec = iterate_orbit(dom, SurfacePoint.from_chart(SPHERE, ch), max_iters=20_000, tol=1e-9)
        assert batch.converged[i] and rec.status == "converged"
        assert np.linalg.norm(batch.limits[i] - rec.limit.ambient) < 1e-8
        assert batch.steps[i] == len(rec.points) - 1


def test_batch_limits_split_by_hemisphere():
    dom = zonal_domain()
    charts = fibonacci_chart_grid(SPHERE, 60)
    X = SPHERE.ambient_from_chart(charts)
    res = iterate_batch(dom, X, max_iters=50_000, tol=1e-9)
    assert np.all(res.converged)
    north = X[:, 2] > 0.05
    south = X[:, 2] < -0.05
    assert np.all(res.limits[north, 2] > 0.999)
    assert np.all(res.limits[south, 2] < -0.999)


# ---------------------------------------------------------------------------
# iterate_orbit against the per-step loop on SurfacePoints
# ---------------------------------------------------------------------------

def _per_step_orbit(dom, seed, max_iters, tol):
    """The orbit as a loop of scalar steps: return_map checks each iterate
    is on the core, field.eval checks its thickness."""
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
                gnorm = float(np.linalg.norm(dom.field.surface_gradient_ambient(current)))
                return OrbitRecord(seed, points, thickness, disps, "converged",
                                   limit=current, limit_grad_norm=gnorm)
        return OrbitRecord(seed, points, thickness, disps, "max_iterations")
    except ShellmapError as exc:
        return OrbitRecord(seed, points, thickness, disps, "error", error_kind=type(exc).__name__)


def _assert_same_record(got, want):
    assert (got.status, got.error_kind) == (want.status, want.error_kind)
    assert got.thickness_values == want.thickness_values
    assert got.displacement_norms == want.displacement_norms
    assert len(got.points) == len(want.points)
    for p, q in zip(got.points, want.points):
        assert np.array_equal(p.ambient, q.ambient) and np.array_equal(p.chart, q.chart)
    assert got.limit_grad_norm == want.limit_grad_norm
    assert (got.limit is None) == (want.limit is None)
    if want.limit is not None:
        assert np.array_equal(got.limit.ambient, want.limit.ambient)


@pytest.mark.parametrize("kind, chart, max_iters", [
    ("sphere", (0.9, 0.4), 100_000),
    ("sphere", (2.3, 5.0), 100_000),
    ("ellipsoid", (1.1, 0.7), 600),
    ("circle", (0.4,), 100_000),
    ("circle", (2.2,), 100_000),
])
def test_orbit_matches_per_step_loop_bit_for_bit(kind, chart, max_iters):
    dom = _BIT_DOMAINS[kind]
    seed = SurfacePoint.from_chart(dom.core, *chart)
    want = _per_step_orbit(dom, seed, max_iters, 1e-10)
    got = iterate_orbit(dom, seed, max_iters=max_iters, tol=1e-10)
    assert want.status in ("converged", "max_iterations") and len(want.points) > 50
    _assert_same_record(got, want)
    assert got.points[0] is seed


def test_orbit_max_iterations_matches_per_step_loop():
    dom = _BIT_DOMAINS["sphere"]
    seed = pt(SPHERE, 1.0, 0.0)
    got = iterate_orbit(dom, seed, max_iters=40, tol=1e-15)
    assert got.status == "max_iterations" and len(got.points) == 41
    _assert_same_record(got, _per_step_orbit(dom, seed, 40, 1e-15))


def test_orbit_nonpositive_seed_matches_per_step_loop():
    dom = RadialDomain(SPHERE, ZonalLegendreField(SPHERE, 0.1, 0.5))
    seed = pt(SPHERE, np.pi / 2, 0.0)
    got = iterate_orbit(dom, seed)
    assert got.error_kind == "InadmissibleThickness" and got.points == []
    _assert_same_record(got, _per_step_orbit(dom, seed, 100_000, 1e-10))


def test_orbit_takes_an_off_core_seed_as_given():
    # neither return_map nor field.eval checks the seed against the core
    dom = _BIT_DOMAINS["sphere"]
    on = pt(SPHERE, 0.9, 0.4)
    seed = SurfacePoint(SPHERE, on.chart, on.ambient * (1.0 + 1e-9))
    got = iterate_orbit(dom, seed)
    assert got.status == "converged"
    _assert_same_record(got, _per_step_orbit(dom, seed, 100_000, 1e-10))


def _inject_at_step(monkeypatch, k, make):
    """From the k-th map call on (counting from 1), return make(x, y) in
    place of the map's value y at x."""
    kernel, calls = dynamics.return_map_batch, [0]

    def patched(dom, X):
        calls[0] += 1
        Y = kernel(dom, X)
        return make(X, Y) if calls[0] == k else Y

    monkeypatch.setattr(dynamics, "return_map_batch", patched)
    return calls


def _raise_miss(X, Y):
    raise NormalRayMissesCore("1 inward rays miss the core")


# d = 0.1 + 0.5 P2(w) is negative at the equator, d = 0.05 + 0.1 P2(w) is zero
# there; both are positive near the poles
_THIN_EQUATOR = RadialDomain(SPHERE, ZonalLegendreField(SPHERE, 0.1, 0.5))
_ZERO_EQUATOR = RadialDomain(SPHERE, ZonalLegendreField(SPHERE, 0.05, 0.1))


def _equator(X, Y):
    return np.array([[1.0, 0.0, 0.0]])


@pytest.mark.parametrize("k", [1, 2, 7])
@pytest.mark.parametrize("dom, make, kind", [
    (_THIN_EQUATOR, lambda X, Y: Y * (1.0 + 1e-9), "OffSurface"),
    (_THIN_EQUATOR, _equator, "InadmissibleThickness"),
    (_ZERO_EQUATOR, _equator, "InadmissibleThickness"),
    (_THIN_EQUATOR, _raise_miss, "NormalRayMissesCore"),
], ids=["off_surface", "negative", "zero", "miss"])
def test_orbit_error_is_truncated_where_the_per_step_loop_stops(monkeypatch, k, dom, make, kind):
    seed = pt(SPHERE, 0.6, 0.3)
    calls = _inject_at_step(monkeypatch, k, make)
    want = _per_step_orbit(dom, seed, 100_000, 1e-10)
    calls[0] = 0
    got = iterate_orbit(dom, seed, tol=1e-10)
    assert want.status == "error" and want.error_kind == kind
    # the seed and the k - 1 iterates before the k-th map call's value
    assert len(want.points) == k
    _assert_same_record(got, want)
