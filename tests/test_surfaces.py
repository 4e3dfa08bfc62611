"""Geometry kernel: normals, shape operators, rays, retraction, frames."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shellmap import (
    ConvexCore,
    OffSurface,
    ProjectionFailed,
    SurfacePoint,
    fibonacci_chart_grid,
    frame_at,
    normal_at,
    ray_first_hit,
    retract,
    shape_operator_at,
)
from shellmap.surfaces import _ray_hit_batch, _ray_solve_batch, retract_batch

SPHERE = ConvexCore.sphere(1.0)
CIRCLE = ConvexCore.circle(1.0)
ELLIPSOID = ConvexCore.ellipsoid(2.0, 1.0, 1.0)
ALL_CORES = [SPHERE, CIRCLE, ELLIPSOID, ConvexCore.sphere(2.5), ConvexCore.circle(0.7)]


def random_points(core, n, seed=0):
    rng = np.random.default_rng(seed)
    if core.dim == 2:
        charts = rng.uniform(0, 2 * np.pi, size=(n, 1))
    else:
        charts = np.stack(
            [np.arccos(rng.uniform(-1, 1, size=n)), rng.uniform(0, 2 * np.pi, size=n)], axis=-1
        )
    return [SurfacePoint.from_chart(core, ch) for ch in charts]


# ---------------------------------------------------------------------------
# normals
# ---------------------------------------------------------------------------

def test_normal_unit_sphere_is_radial():
    p = SurfacePoint.from_ambient(SPHERE, [0.0, 0.0, 1.0])
    assert np.allclose(normal_at(SPHERE, p), [0, 0, 1])


def test_normal_unit_circle_is_radial():
    p = SurfacePoint.from_ambient(CIRCLE, [1.0, 0.0])
    assert np.allclose(normal_at(CIRCLE, p), [1, 0])


def test_normal_ellipsoid_axis_point():
    p = SurfacePoint.from_ambient(ELLIPSOID, [2.0, 0.0, 0.0])
    assert np.allclose(normal_at(ELLIPSOID, p), [1, 0, 0])


def test_normal_rejects_off_surface_point():
    with pytest.raises(OffSurface):
        SurfacePoint.from_ambient(SPHERE, [1.1, 0.0, 0.0])


@pytest.mark.parametrize("core", ALL_CORES, ids=lambda c: f"{c.kind}{c.semi_axes[0]}")
def test_normals_unit_length_everywhere(core):
    for p in random_points(core, 50, seed=1):
        assert abs(np.linalg.norm(normal_at(core, p)) - 1.0) < 1e-14


# ---------------------------------------------------------------------------
# shape operator
# ---------------------------------------------------------------------------

def test_shape_operator_unit_sphere_is_minus_identity():
    for p in random_points(SPHERE, 20, seed=2):
        S = shape_operator_at(SPHERE, p, frame_at(SPHERE, p))
        assert np.allclose(S, -np.eye(2), atol=1e-12)


def test_shape_operator_circle_is_minus_inverse_radius():
    core = ConvexCore.circle(0.7)
    for p in random_points(core, 10, seed=3):
        S = shape_operator_at(core, p, frame_at(core, p))
        assert S.shape == (1, 1)
        assert abs(S[0, 0] + 1.0 / 0.7) < 1e-12


def test_shape_operator_ellipsoid_axis_point():
    # at (2,0,0) both principal curvatures are -a/b^2 = -2
    p = SurfacePoint.from_ambient(ELLIPSOID, [2.0, 0.0, 0.0])
    S = shape_operator_at(ELLIPSOID, p, frame_at(ELLIPSOID, p))
    assert np.allclose(S, -2.0 * np.eye(2), atol=1e-12)


def _fd_normal_derivative(core, p, v, h):
    """Richardson-extrapolated forward difference of the normal field."""
    def diff(step):
        q = retract(core, p, v, step)
        return (core.normal(q.ambient) - core.normal(p.ambient)) / step

    d1 = diff(h)
    d2 = diff(h / 2.0)
    return 2.0 * d2 - d1


@pytest.mark.parametrize("core", [SPHERE, ELLIPSOID, CIRCLE])
def test_shape_operator_matches_normal_field_derivative(core):
    # oracle: D(nu)[v] ~ (nu(p + h v) - nu(p))/h, Richardson extrapolated; S = -D(nu)
    for p in random_points(core, 20, seed=4):
        frame = frame_at(core, p)
        S = shape_operator_at(core, p, frame)
        for i, v in enumerate(frame.vectors):
            dn = _fd_normal_derivative(core, p, v, 1e-5)
            approx = -(frame.vectors @ dn)
            assert np.allclose(S[:, i], approx, atol=1e-7)


@pytest.mark.parametrize("core", ALL_CORES, ids=lambda c: f"{c.kind}{c.semi_axes[0]}")
def test_shape_operator_symmetric_at_random_points(core):
    for p in random_points(core, 40, seed=5):
        S = shape_operator_at(core, p, frame_at(core, p))
        assert np.abs(S - S.T).max() < 1e-10


def test_sphere_curvature_eigenvalues_closed_form_vs_fd():
    core = ConvexCore.sphere(2.5)
    for p in random_points(core, 10, seed=6):
        frame = frame_at(core, p)
        S = shape_operator_at(core, p, frame)
        eig = np.linalg.eigvalsh(S)
        assert np.allclose(eig, -1.0 / 2.5, atol=1e-14)
        for i, v in enumerate(frame.vectors):
            dn = _fd_normal_derivative(core, p, v, 1e-4)
            assert np.allclose(-(frame.vectors @ dn), S[:, i], atol=1e-8)


def test_normal_consistency_along_retractions():
    # (nu(retract(p,v,h)) - nu(p))/h -> -S v with O(h) error
    rng = np.random.default_rng(7)
    for core in (SPHERE, ELLIPSOID):
        for p in random_points(core, 100, seed=8):
            frame = frame_at(core, p)
            coef = rng.normal(size=core.dim - 1)
            v = coef @ frame.vectors
            h = 1e-6
            lhs = (core.normal(retract(core, p, v, h).ambient) - core.normal(p.ambient)) / h
            S = shape_operator_at(core, p, frame)
            rhs = -(S @ coef) @ frame.vectors  # tangential part
            assert np.linalg.norm(frame.vectors @ lhs - frame.vectors @ rhs) < 50 * h


# ---------------------------------------------------------------------------
# rays
# ---------------------------------------------------------------------------

def test_ray_axial_hit_unit_sphere():
    hit = ray_first_hit(SPHERE, [2.0, 0.0, 0.0], [-1.0, 0.0, 0.0])
    assert hit is not None and not hit.grazing
    assert abs(hit.t - 1.0) < 1e-12
    assert np.allclose(hit.point.ambient, [1, 0, 0], atol=1e-12)


def test_ray_parallel_miss():
    assert ray_first_hit(SPHERE, [2.0, 0.0, 0.0], [0.0, 1.0, 0.0]) is None


def test_ray_axial_hit_ellipsoid():
    hit = ray_first_hit(ELLIPSOID, [0.0, 3.0, 0.0], [0.0, -1.0, 0.0])
    assert abs(hit.t - 2.0) < 1e-12
    assert np.allclose(hit.point.ambient, [0, 1, 0], atol=1e-12)


def test_ray_grazing_flagged():
    hit = ray_first_hit(SPHERE, [2.0, 1.0, 0.0], [-1.0, 0.0, 0.0])
    assert hit is not None and hit.grazing
    assert np.allclose(hit.point.ambient, [0, 1, 0], atol=1e-6)


def test_ray_from_inside_exits():
    hit = ray_first_hit(SPHERE, [0.0, 0.0, 0.0], [1.0, 0.0, 0.0])
    assert abs(hit.t - 1.0) < 1e-12


def _ray_hit_masked(core, O, D):
    """_ray_hit_batch with its Newton step as a masked division."""
    t, grazing = _ray_solve_batch(core, O, D)
    Y = O + t[:, None] * D
    YM = Y / core.axes**2
    f = np.einsum("ij,ij->i", YM, Y) - 1.0
    df = 2.0 * np.einsum("ij,ij->i", YM, D)
    with np.errstate(divide="ignore", invalid="ignore"):
        step = -f / df
    step[df == 0] = 0.0
    Y += step[:, None] * D
    return Y, grazing, df


@pytest.mark.parametrize("core", [SPHERE, ELLIPSOID, ConvexCore.sphere(0.7)],
                         ids=["sphere", "ellipsoid", "sphere_0.7"])
def test_ray_hit_newton_step_matches_masked_division_bit_for_bit(core):
    s = core.semi_axes
    # tangent rays (df == 0), a parallel miss, a null direction (nan rows)
    # and inward normal rays from random outer points
    special_O = [[2.0 * s[0], s[1], 0.0], [0.0, 2.0 * s[1], s[2]], [2.0 * s[0], 0.0, 2.0 * s[2]],
                 [2.0, 2.0, 2.0]]
    special_D = [[-1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0]]
    X = np.array([p.ambient for p in random_points(core, 40, seed=4)])
    O = np.concatenate([special_O, X + 0.3 * core.normal(X)])
    D = np.concatenate([special_D, -core.normal(X)])
    want_Y, want_grazing, df = _ray_hit_masked(core, O, D)
    assert np.any(df == 0.0) and np.any(np.isnan(want_Y))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        Y, grazing = _ray_hit_batch(core, O, D)
    assert np.array_equal(Y, want_Y, equal_nan=True)
    assert np.array_equal(grazing, want_grazing)


@pytest.mark.parametrize("scale", [2.0, 0.5])
def test_ray_t_is_the_ray_parameter_for_non_unit_directions(scale):
    origin = np.array([0.0, 0.0, 3.0])
    direction = scale * np.array([0.0, 0.0, -1.0])
    hit = ray_first_hit(SPHERE, origin, direction)
    assert abs(hit.t - 2.0 / scale) < 1e-12
    assert np.allclose(origin + hit.t * direction, hit.point.ambient, atol=1e-12)


@pytest.mark.parametrize("core", [SPHERE, ELLIPSOID, CIRCLE])
def test_ray_projection_round_trip(core):
    # fire from outside along -normal of a known point: first hit is that point
    for p in random_points(core, 60, seed=9):
        nu = normal_at(core, p)
        origin = p.ambient + 1.7 * nu
        hit = ray_first_hit(core, origin, -nu)
        assert hit is not None
        assert np.linalg.norm(hit.point.ambient - p.ambient) < 1e-10


def test_hit_points_satisfy_implicit_tolerance():
    for p in random_points(ELLIPSOID, 40, seed=10):
        nu = normal_at(ELLIPSOID, p)
        hit = ray_first_hit(ELLIPSOID, p.ambient + 0.9 * nu, -nu)
        assert abs(float(ELLIPSOID.implicit(hit.point.ambient))) < 1e-12


# ---------------------------------------------------------------------------
# retraction
# ---------------------------------------------------------------------------

def test_retract_zero_step_is_identity():
    p = SurfacePoint.from_ambient(SPHERE, [0.0, 0.0, 1.0])
    q = retract(SPHERE, p, [1.0, 0.0, 0.0], 0.0)
    assert np.allclose(q.ambient, p.ambient)


def test_retract_sphere_matches_radial_formula():
    p = SurfacePoint.from_ambient(SPHERE, [0.0, 0.0, 1.0])
    q = retract(SPHERE, p, [1.0, 0.0, 0.0], 0.1)
    expected = np.array([0.1, 0.0, 1.0]) / np.linalg.norm([0.1, 0.0, 1.0])
    assert np.allclose(q.ambient, expected, atol=1e-15)


def test_retract_second_order_accuracy_on_ellipsoid():
    # |retract(p, v, h) - (p + h v)| = O(h^2): slope ~ 2 on a log-log fit
    p = SurfacePoint.from_chart(ELLIPSOID, 1.1, 0.6)
    v = frame_at(ELLIPSOID, p).vectors[0]
    hs = [1e-2, 3e-3, 1e-3, 3e-4, 1e-4, 3e-5, 1e-5]
    errs = [float(np.linalg.norm(retract(ELLIPSOID, p, v, h).ambient - (p.ambient + h * v))) for h in hs]
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert 1.9 < slope < 2.1


def test_retract_rejects_non_tangent_vector():
    p = SurfacePoint.from_ambient(SPHERE, [0.0, 0.0, 1.0])
    with pytest.raises(ValueError):
        retract(SPHERE, p, [0.0, 0.0, 1.0], 0.1)


def test_retract_result_on_surface():
    for p in random_points(ELLIPSOID, 30, seed=11):
        v = frame_at(ELLIPSOID, p).vectors[-1]
        q = retract(ELLIPSOID, p, v, 0.05)
        assert abs(float(ELLIPSOID.implicit(q.ambient))) < 1e-12


def _tangent_steps(core, n, seed):
    """n random core points with tangent steps of length 1e-6 to 0.3 of
    the core scale, as (points, X, V)."""
    rng = np.random.default_rng(seed)
    points = random_points(core, n, seed=seed)
    X = np.array([p.ambient for p in points])
    E = np.array([frame_at(core, p).vectors for p in points])
    c = rng.normal(size=(n, core.dim - 1))
    dirs = np.einsum("ni,nia->na", c / np.linalg.norm(c, axis=1, keepdims=True), E)
    lengths = core.surface_scale() * 10.0 ** rng.uniform(-6.0, np.log10(0.3), n)
    return points, X, lengths[:, None] * dirs


@pytest.mark.parametrize("core", ALL_CORES + [ConvexCore.ellipsoid(2e-3, 1e-3, 5e-4)])
def test_retract_batch_rows_equal_scalar_retract_bit_for_bit(core):
    points, X, V = _tangent_steps(core, 40, seed=12)
    Y = retract_batch(core, X, V)
    for p, v, y in zip(points, V, Y):
        assert np.array_equal(retract(core, p, v, 1.0).ambient, y)


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
def test_retract_batch_reaches_round_off_on_ellipsoids(scale):
    core = ConvexCore.ellipsoid(2.0 * scale, scale, 0.5 * scale)
    _, X, V = _tangent_steps(core, 200, seed=13)
    Y = retract_batch(core, X, V)
    assert np.max(np.abs(core.implicit(Y))) <= 4 * np.finfo(float).eps


@pytest.mark.parametrize("core", [SPHERE, CIRCLE, ELLIPSOID])
def test_retract_batch_raises_on_rows_that_are_not_finite(core):
    X = np.array([core.ambient_from_chart(np.full(core.dim - 1, 0.7))] * 2)
    V = np.zeros_like(X)
    V[1, 0] = np.nan
    with pytest.raises(ProjectionFailed):
        retract_batch(core, X, V)


def test_retract_batch_raises_at_the_centre():
    # the centre has no radial projection
    with pytest.raises(ProjectionFailed):
        retract_batch(SPHERE, np.zeros((1, 3)), np.zeros((1, 3)))


# ---------------------------------------------------------------------------
# frames and charts
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(theta=st.floats(0.0, np.pi), phi=st.floats(0.0, 2 * np.pi))
def test_frames_orthonormal_and_tangent(theta, phi):
    p = SurfacePoint.from_chart(ELLIPSOID, theta, phi)
    frame = frame_at(ELLIPSOID, p)
    nu = normal_at(ELLIPSOID, p)
    G = frame.vectors @ frame.vectors.T
    assert np.abs(G - np.eye(2)).max() < 1e-12
    assert np.abs(frame.vectors @ nu).max() < 1e-12


def test_frame_deterministic():
    p = SurfacePoint.from_chart(SPHERE, 0.9, 1.3)
    f1 = frame_at(SPHERE, p).vectors
    f2 = frame_at(SPHERE, p).vectors
    assert np.array_equal(f1, f2)


def test_frame_at_pole_uses_rotated_chart():
    p = SurfacePoint.from_ambient(SPHERE, [0.0, 0.0, 1.0])
    frame = frame_at(SPHERE, p)
    assert np.abs(frame.vectors @ np.array([0, 0, 1.0])).max() < 1e-12
    assert np.abs(frame.vectors @ frame.vectors.T - np.eye(2)).max() < 1e-12


def test_frame_first_vector_along_colatitude():
    # away from the poles e1 is the normalized theta-tangent
    p = SurfacePoint.from_chart(SPHERE, np.pi / 2, 0.0)
    frame = frame_at(SPHERE, p)
    assert np.allclose(frame.vectors[0], [0, 0, -1], atol=1e-14)
    assert np.allclose(frame.vectors[1], [0, 1, 0], atol=1e-14)


@settings(max_examples=40, deadline=None)
@given(theta=st.floats(1e-3, np.pi - 1e-3), phi=st.floats(0.0, 2 * np.pi - 1e-9))
def test_chart_round_trip(theta, phi):
    p = SurfacePoint.from_chart(ELLIPSOID, theta, phi)
    q = SurfacePoint.from_ambient(ELLIPSOID, p.ambient)
    assert abs(q.theta - theta) < 1e-9
    assert min(abs(q.phi - phi), abs(q.phi - phi + 2 * np.pi), abs(q.phi - phi - 2 * np.pi)) < 1e-9


@pytest.mark.parametrize("core", [SPHERE, ConvexCore.ellipsoid(2.0, 1.0, 0.5)], ids=["sphere", "ellipsoid"])
@pytest.mark.parametrize("south", [False, True], ids=["north", "south"])
@pytest.mark.parametrize("delta", [1e-9, 1e-7, 1e-5])
def test_chart_round_trip_exact_near_poles(core, south, delta):
    # the colatitude comes back to round-off however close to a pole
    theta = np.pi - delta if south else delta
    p = SurfacePoint.from_chart(core, theta, 0.7)
    back = core.chart_from_ambient(p.ambient)
    assert abs(back[0] - theta) <= 4 * np.finfo(float).eps * theta
    assert abs(back[1] - 0.7) <= 4 * np.finfo(float).eps


def test_fibonacci_grid_shape_and_determinism():
    g1 = fibonacci_chart_grid(SPHERE, 100)
    g2 = fibonacci_chart_grid(SPHERE, 100)
    assert g1.shape == (100, 2)
    assert np.array_equal(g1, g2)
    g3 = fibonacci_chart_grid(CIRCLE, 64)
    assert g3.shape == (64, 1)


def test_axes_array_is_built_once_and_read_only():
    core = ConvexCore.ellipsoid(2.0, 1.0, 0.5)
    assert core.axes is core.axes
    assert np.array_equal(core.axes, [2.0, 1.0, 0.5])
    with pytest.raises(ValueError):
        core.axes[0] = 3.0
    for name, want in (("axes_sq", core.axes**2), ("inv_axes_sq", 1.0 / core.axes**2)):
        cached = getattr(core, name)
        assert cached is getattr(core, name)
        assert np.array_equal(cached, want)
        with pytest.raises(ValueError):
            cached[0] = 3.0
    twin = ConvexCore("ellipsoid", (2, 1, 0.5))
    assert twin == core and hash(twin) == hash(core)


@pytest.mark.parametrize("kind, axes", [("sphere", (1, 2, 3)), ("sphere", (1.0, 1.0, 1.5)),
                                        ("circle", (1.5, 0.8))])
def test_sphere_and_circle_reject_unequal_semi_axes(kind, axes):
    # retract_batch scales these kinds radially to semi_axes[0]
    with pytest.raises(ValueError):
        ConvexCore(kind, axes)
    assert ConvexCore(kind, (axes[0],) * len(axes)) == (ConvexCore.sphere(axes[0]) if kind == "sphere"
                                                        else ConvexCore.circle(axes[0]))
