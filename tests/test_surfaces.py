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
    retract,
)
from shellmap.surfaces import (
    POLE_SIN_TOL,
    POLISH_STEP_TOL,
    TOL_SURFACE,
    _component_dot,
    _finite_rows,
    _near_hit_cols,
    _outer_geometry_cols,
    _per_component,
    _ray_solve_batch,
    _resolvent_cols,
    _return_leg_rows,
    _require_on_core,
    frames_batch,
    retract_batch,
    shape_operator_batch,
    tangent_part,
)

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


def shape_at(core, p):
    """S at p in frame_at's frame: shape_operator_batch on a batch of one."""
    return shape_operator_batch(core, p.ambient[None], frame_at(core, p).vectors[None])[0]


# ---------------------------------------------------------------------------
# normals
# ---------------------------------------------------------------------------

def test_normal_unit_sphere_is_radial():
    p = SurfacePoint.from_ambient(SPHERE, [0.0, 0.0, 1.0])
    assert np.allclose(SPHERE.normal(p.ambient), [0, 0, 1])


def test_normal_unit_circle_is_radial():
    p = SurfacePoint.from_ambient(CIRCLE, [1.0, 0.0])
    assert np.allclose(CIRCLE.normal(p.ambient), [1, 0])


def test_normal_ellipsoid_axis_point():
    p = SurfacePoint.from_ambient(ELLIPSOID, [2.0, 0.0, 0.0])
    assert np.allclose(ELLIPSOID.normal(p.ambient), [1, 0, 0])


def test_normal_rejects_off_surface_point():
    with pytest.raises(OffSurface):
        SurfacePoint.from_ambient(SPHERE, [1.1, 0.0, 0.0])


@pytest.mark.parametrize("X,bad", [
    ([[np.nan, 0.0, 0.0], [2.0, 0.0, 0.0]], 2),
    ([[np.nan, 0.0, 0.0]], 1),
    ([[1.0, 0.0, 0.0], [np.inf, 0.0, 0.0]], 1),
    ([[0.0, 1.0, 0.0], [0.0, 0.0, 2.0], [0.0, 0.0, -1.0]], 1),
], ids=["nan_beside_off_core", "nan", "inf", "off_core"])
def test_require_on_core_rejects_every_nonfinite_or_off_core_row(X, bad):
    # a nan row fails the check on its own and hides no off-core row beside it
    with pytest.raises(OffSurface, match=f"^{bad} of {len(X)} points are not finite or off the core"):
        _require_on_core(SPHERE, X)


def test_require_on_core_passes_core_points_and_no_points():
    _require_on_core(SPHERE, [[1.0, 0.0, 0.0], [0.0, 0.0, -1.0]])
    _require_on_core(SPHERE, [0.0, 1.0, 0.0])
    _require_on_core(SPHERE, np.empty((0, 3)))


def test_from_ambient_rejects_a_nan_point():
    with pytest.raises(OffSurface):
        SurfacePoint.from_ambient(SPHERE, [np.nan, 0.0, 0.0])


@pytest.mark.parametrize("core", ALL_CORES, ids=lambda c: f"{c.kind}{c.semi_axes[0]}")
def test_normals_unit_length_everywhere(core):
    for p in random_points(core, 50, seed=1):
        assert abs(np.linalg.norm(core.normal(p.ambient)) - 1.0) < 1e-14


@pytest.mark.parametrize("core", ALL_CORES + [ConvexCore.ellipsoid(2.0, 1.0, 0.5)],
                         ids=lambda c: f"{c.kind}{c.semi_axes}")
def test_normal_is_the_unit_implicit_gradient(core):
    X = np.array([p.ambient for p in random_points(core, 200, seed=4)])
    nu, g = core.normal(X), core.implicit_grad(X)
    assert np.abs(np.linalg.norm(nu, axis=-1) - 1.0).max() <= 1e-15
    # parallel and pointing the same way: nu . g/|g| = 1
    cos = np.sum(nu * g, axis=-1) / np.linalg.norm(g, axis=-1)
    assert np.abs(cos - 1.0).max() <= 1e-15


def test_tangent_part_is_the_orthogonal_projection():
    rng = np.random.default_rng(5)
    nu = rng.normal(size=(40, 1, 3))
    nu /= np.linalg.norm(nu, axis=-1, keepdims=True)
    V = rng.normal(size=(40, 2, 3))
    P = tangent_part(nu, V)
    assert P.shape == V.shape
    # orthogonal to nu, and idempotent
    assert np.abs(np.sum(P * nu, axis=-1)).max() <= 1e-15
    assert np.abs(tangent_part(nu, P) - P).max() <= 1e-15
    # nu of shape (k, 1, N) projects every one of the m vectors of its row
    for i in range(V.shape[0]):
        for j in range(V.shape[1]):
            assert np.array_equal(P[i, j], tangent_part(nu[i, 0], V[i, j]))
    # it removes exactly the normal part: V = P + (V . nu) nu
    assert np.abs(P + np.sum(V * nu, axis=-1, keepdims=True) * nu - V).max() <= 1e-15
    # a dot whose products are all -0.0 is +0.0, as np.sum gives it, so the
    # projection of a tangent V with a -0.0 component keeps that -0.0
    V0, nu0 = np.array([[-1.0, -1.0, -0.0]]), np.array([[0.0, 0.0, 1.0]])
    assert tangent_part(nu0, V0).tobytes() == V0.tobytes()
    assert tangent_part(nu0[0], V0[0]).tobytes() == V0[0].tobytes()


# ---------------------------------------------------------------------------
# shape operator
# ---------------------------------------------------------------------------

def test_shape_operator_unit_sphere_is_minus_identity():
    for p in random_points(SPHERE, 20, seed=2):
        S = shape_at(SPHERE, p)
        assert np.allclose(S, -np.eye(2), atol=1e-12)


def test_shape_operator_circle_is_minus_inverse_radius():
    core = ConvexCore.circle(0.7)
    for p in random_points(core, 10, seed=3):
        S = shape_at(core, p)
        assert S.shape == (1, 1)
        assert abs(S[0, 0] + 1.0 / 0.7) < 1e-12


def test_shape_operator_ellipsoid_axis_point():
    # at (2,0,0) both principal curvatures are -a/b^2 = -2
    p = SurfacePoint.from_ambient(ELLIPSOID, [2.0, 0.0, 0.0])
    S = shape_at(ELLIPSOID, p)
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
        S = shape_at(core, p)
        for i, v in enumerate(frame.vectors):
            dn = _fd_normal_derivative(core, p, v, 1e-5)
            approx = -(frame.vectors @ dn)
            assert np.allclose(S[:, i], approx, atol=1e-7)


@pytest.mark.parametrize("core", ALL_CORES, ids=lambda c: f"{c.kind}{c.semi_axes[0]}")
def test_shape_operator_symmetric_at_random_points(core):
    for p in random_points(core, 40, seed=5):
        S = shape_at(core, p)
        assert np.abs(S - S.T).max() < 1e-10


def test_sphere_curvature_eigenvalues_closed_form_vs_fd():
    core = ConvexCore.sphere(2.5)
    for p in random_points(core, 10, seed=6):
        frame = frame_at(core, p)
        S = shape_at(core, p)
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
            S = shape_at(core, p)
            rhs = -(S @ coef) @ frame.vectors  # tangential part
            assert np.linalg.norm(frame.vectors @ lhs - frame.vectors @ rhs) < 50 * h


# ---------------------------------------------------------------------------
# rays
# ---------------------------------------------------------------------------

def first_hit(core, origin, direction):
    """(t, point) for one ray: t from the reference solve _ray_hit_fresh,
    the point (not finite on a miss) from the package's one ray hit
    _ray_solve_batch."""
    O, D = np.array([origin], dtype=float), np.array([direction], dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = _ray_hit_fresh(core, O.T, D.T)[1]
    return t[0], _ray_solve_batch(core, O, D)[0]


def test_ray_axial_hit_unit_sphere():
    t, x = first_hit(SPHERE, [2.0, 0.0, 0.0], [-1.0, 0.0, 0.0])
    assert np.isfinite(x).all()
    assert abs(t - 1.0) < 1e-12
    assert np.allclose(x, [1, 0, 0], atol=1e-12)


def test_ray_parallel_miss():
    # a ray the leg never casts, as it does not point at the core: the
    # reference solve misses, and the hit is not finite
    t, x = first_hit(SPHERE, [2.0, 0.0, 0.0], [0.0, 1.0, 0.0])
    assert np.isnan(t) and not np.isfinite(x).any()


def test_ray_axial_hit_ellipsoid():
    t, x = first_hit(ELLIPSOID, [0.0, 3.0, 0.0], [0.0, -1.0, 0.0])
    assert abs(t - 2.0) < 1e-12
    assert np.allclose(x, [0, 1, 0], atol=1e-12)


def test_ray_grazing_flagged():
    # the hit flags a grazing ray as a miss by its polish step, which is 0 on
    # the exactly tangent ray, so that ray's hit is finite and on the core
    _, x = first_hit(SPHERE, [2.0, 1.0, 0.0], [-1.0, 0.0, 0.0])
    assert np.isfinite(x).all() and abs(SPHERE.implicit(x)) <= TOL_SURFACE
    assert np.allclose(x, [0, 1, 0], atol=1e-6)


def test_ray_from_inside_exits():
    # a ray the leg never casts, from the centre: the reference solve's t
    t, _ = first_hit(SPHERE, [0.0, 0.0, 0.0], [1.0, 0.0, 0.0])
    assert abs(t - 1.0) < 1e-12


def _near_hit_masked(core, O, D):
    """_near_hit_cols on (n, N) rows with the near root in one expression,
    its Newton step as a masked division and the grazing step as a masked
    setitem: the hits (not finite where the ray misses or grazes) and df."""
    w = 1.0 / core.axes**2
    A = np.einsum("ij,ij->i", D * w, D)
    b = np.einsum("ij,ij->i", D * w, O)
    C = np.einsum("ij,ij->i", O * w, O) - 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        t = C / np.fmax(np.sqrt(b * b - A * C) - b, 0.0)
        Y = O + t[:, None] * D
        YM = Y / core.axes**2
        f = np.einsum("ij,ij->i", YM, Y) - 1.0
        df = 2.0 * np.einsum("ij,ij->i", YM, D)
        step = -f / df
    step[df == 0] = 0.0
    step[np.abs(step) > POLISH_STEP_TOL * core.surface_scale()] = np.inf
    with np.errstate(invalid="ignore"):
        Y += step[:, None] * D
    return Y, df


def _same_hits(a, b) -> bool:
    """Equal shapes, the same rows (the last axis) not finite, and the same
    bytes on the finite ones."""
    a, b = np.asarray(a), np.asarray(b)
    ok = np.isfinite(a).all(axis=-1)
    return a.shape == b.shape and np.array_equal(ok, np.isfinite(b).all(axis=-1)) and a[ok].tobytes() == b[ok].tobytes()


@pytest.mark.parametrize("core", [SPHERE, ELLIPSOID, ConvexCore.sphere(0.7)],
                         ids=["sphere", "ellipsoid", "sphere_0.7"])
def test_ray_hit_newton_step_matches_masked_division_bit_for_bit(core):
    s = core.semi_axes
    # tangent rays (df == 0; from 2 s the near root of the 0.7 sphere misses
    # the tangent point by rounding; the third has a hit component of -0.0,
    # whose sum with the zero step's product keeps the step's sign), a
    # parallel miss, a null direction (rows that are not finite), an axis ray
    # whose near root lands on the core with f exactly 0 (the step divides
    # -0.0 by df) and inward normal rays from random outer points
    special_O = [[2.5 * s[0], s[1], 0.0], [0.0, 2.5 * s[1], s[2]], [2.5 * s[0], s[1], -0.0],
                 [2.0 * s[0], 0.0, 2.0 * s[2]], [2.0, 2.0, 2.0], [0.0, 0.0, 1.5 * s[2]]]
    special_D = [[-1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [-1.0, 0.0, -0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0],
                 [0.0, 0.0, -1.0]]
    X = np.array([p.ambient for p in random_points(core, 40, seed=4)])
    O = np.concatenate([special_O, X + 0.3 * core.normal(X)])
    D = np.concatenate([special_D, -core.normal(X)])
    want_Y, df = _near_hit_masked(core, O, D)
    assert np.any(df == 0.0) and not np.isfinite(want_Y).all()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        Y = _near_hit_cols(core, O.T, D.T)
        # as points, one ray at a time: f and df are numpy scalars
        Y_points = [_near_hit_cols(core, o, d) for o, d in zip(O, D)]
    assert _same_hits(Y.T, want_Y)
    assert all(_same_hits(y, want) for y, want in zip(Y_points, want_Y))


def _edge_rays(core, rng, n):
    """n random rays of several lengths about core, (n, N) origins and
    directions, then the edge rays: zero directions inside and outside the
    core, tangent rays from surface points (B = 0, C = 0), nan origins,
    inf directions, -0.0 components, inward normal rays and the rays whose
    near-root divisor s - b is negative (from outside, pointing away) or nan
    (a miss across the core); the zero directions give s - b = +0.0."""
    N, s = core.dim, core.surface_scale()
    O = rng.standard_normal((n, N)) * s * rng.choice([0.1, 1.0, 3.0], (n, 1))
    D = rng.standard_normal((n, N)) * rng.choice([1e-3, 1.0, 1e3], (n, 1))
    X = core.ambient_from_chart(rng.uniform(0.0, np.pi, (8, N - 1)))
    nu = core.normal(X)
    T = tangent_part(nu, np.roll(nu, 1, axis=1))
    zero = np.zeros((2, N))
    signed = np.where(rng.uniform(size=(8, N)) < 0.5, -0.0, 0.0)
    axis = np.diag(core.axes)
    O = np.concatenate([O, [0.1 * s * np.ones(N), 3.0 * s * np.ones(N)], X, X[:2] * np.nan,
                        X[2:4], signed, X + 0.3 * s * nu, 2.0 * axis, 2.0 * np.roll(axis, 1, axis=0)])
    D = np.concatenate([D, zero, T, nu[:2], nu[2:4] * np.inf, signed[::-1] + 0.5, -nu, np.eye(N), np.eye(N)])
    return np.ascontiguousarray(O), np.ascontiguousarray(D)


@pytest.mark.parametrize("core", [SPHERE, ConvexCore.sphere(1e3), ConvexCore.ellipsoid(2.0, 1.0, 0.5), CIRCLE],
                         ids=lambda c: f"{c.kind}{c.semi_axes}")
def test_a_points_near_root_divisor_has_the_bits_of_fmax(core):
    # a point takes fmax(s - b, 0) as q if q >= 0.0 else 0.0 on a numpy
    # scalar; the edge rays hold divisors s - b below 0, nan and +0.0, and
    # each ray cast as a point gives the bits of its row
    O, D = _edge_rays(core, np.random.default_rng(37), 60)
    w = 1.0 / core.axes**2
    A = np.einsum("ij,ij->i", D * w, D)
    b = np.einsum("ij,ij->i", D * w, O)
    C = np.einsum("ij,ij->i", O * w, O) - 1.0
    with np.errstate(all="ignore"):
        q = np.sqrt(b * b - A * C) - b
    assert (q < 0.0).any() and np.isnan(q).any() and (q == 0.0).any()
    # b^2 >= +0.0, so b^2 - AC and s - b are never -0.0 on a ray; where the
    # guard could meet one, it keeps fmax's -0.0, as it keeps 0.0 for nan
    assert not np.signbit(q[q == 0.0]).any()
    for v in map(np.float64, [-0.0, 0.0, -1.0, 2.0, np.nan, -np.inf, np.inf, -5e-324]):
        assert np.float64(v if v >= 0.0 else 0.0).tobytes() == np.fmax(v, 0.0).tobytes()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = _near_hit_cols(core, np.ascontiguousarray(O.T), np.ascontiguousarray(D.T))
        points = [_near_hit_cols(core, o, d) for o, d in zip(O, D)]
    # a ray from outside pointing away has an infinite t: its hit is not finite
    assert not np.isfinite(rows[:, q < 0.0]).any()
    assert all(_same_bits(y, rows[:, i]) for i, y in enumerate(points))


@pytest.mark.parametrize("dim", [2, 3])
def test_finite_rows_ands_the_column_tests(dim):
    # a non-finite value in each column in turn: the rows, a Fortran-ordered
    # copy, (k, m, N) rows and each row as a point give np.isfinite(Y).all(axis=-1)
    Y = np.random.default_rng(dim).standard_normal((12, dim))
    core = CIRCLE if dim == 2 else SPHERE
    X = core.ambient_from_chart(fibonacci_chart_grid(core, 12))
    for j in range(dim):
        for bad in (np.nan, np.inf, -np.inf):
            Z = Y.copy()
            Z[[2, 7], j] = bad
            want = np.isfinite(Z).all(axis=-1)
            assert _finite_rows(Z).dtype == bool and np.array_equal(_finite_rows(Z), want)
            assert np.array_equal(_finite_rows(np.asfortranarray(Z)), want)
            assert np.array_equal(_finite_rows(Z.reshape(3, 4, dim)), want.reshape(3, 4))
            assert [_finite_rows(z) for z in Z] == want.tolist()
            # retract_batch counts the rows that are not finite with it
            V = np.zeros_like(X)
            V[[2, 7], j] = bad
            with pytest.raises(ProjectionFailed, match="^2 rows are not finite$"):
                retract_batch(core, X, V)


def _same_bits(a, b) -> bool:
    """Equal shapes, nan at the same places and the same bytes elsewhere."""
    a, b = np.asarray(a), np.asarray(b)
    nan = np.isnan(a)
    return a.shape == b.shape and np.array_equal(nan, np.isnan(b)) and a[~nan].tobytes() == b[~nan].tobytes()


RAY_CORES = [SPHERE, ConvexCore.sphere(1e-3), ConvexCore.sphere(1e3), ConvexCore.ellipsoid(2.0, 1.0, 0.5),
             CIRCLE]


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("n", [1, 2, 3, 5, 700])
def test_component_dot_sums_in_einsums_order(dim, n):
    # the kernel's dots on component rows equal einsum's row dots on C-ordered
    # (n, N) rows; a numpy whose einsum sums in another order fails here
    # each row also as a point, (N,), whose dot is summed from indexed products;
    # the edge rows hold signed zeros, subnormals, inf and nan
    rng = np.random.default_rng(n)
    A = rng.standard_normal((n, dim)) * np.exp(rng.uniform(-20.0, 20.0, (n, dim)))
    B = rng.standard_normal((n, dim))
    inf, nan, tiny = np.inf, np.nan, 5e-324
    edge_A = [[-0.0, 0.0, -0.0], [-0.0, -0.0, -0.0], [tiny, -1e-310, 2e-320], [1e-300, 1e-300, -1e-300],
              [inf, 1.0, 2.0], [1.0, -inf, 0.5], [inf, -inf, 1.0], [0.0, inf, 1.0], [nan, 1.0, 2.0],
              [1.0, 2.0, nan], [1e308, 1e308, 1e308]]
    edge_B = [[1.0, -1.0, 2.0], [0.0, -0.0, 0.0], [1.0, 3.0, -0.5], [1e-20, 1e-20, 1e-20],
              [1.0, 1.0, 1.0], [2.0, 1.0, -3.0], [1.0, 1.0, 1.0], [1.0, 1.0, 0.0], [1.0, 1.0, 1.0],
              [inf, 1.0, 1.0], [1e10, 1e10, -1e10]]
    A = np.concatenate([A, np.array(edge_A)[:, :dim]])
    B = np.concatenate([B, np.array(edge_B)[:, :dim]])
    with np.errstate(all="ignore"):  # inf - inf, inf * 0 and the overflow warn as points
        want = np.einsum("ij,ij->i", A, B)
        got = _component_dot(np.ascontiguousarray(A.T), np.ascontiguousarray(B.T))
        points = [_component_dot(a, b) for a, b in zip(A, B)]
        P = A * B
    # einsum adds the products to a sum that starts at +0.0, so a row whose
    # products are all -0.0 sums to +0.0 there and to -0.0 in the kernel's order
    all_negative_zero = np.all((P == 0.0) & np.signbit(P), axis=-1)
    assert all_negative_zero[n] and not np.signbit(want[all_negative_zero]).any()
    want[all_negative_zero] = -0.0
    assert got.tobytes() == want.tobytes()
    assert all(p.tobytes() == w.tobytes() for p, w in zip(points, want))


# the return leg's stages with every update a fresh one-expression array, on
# component rows (N, n) or a point (N,): the oracle of the in-place stages
def _dot_fresh(A, B):
    p = A * B
    return (p[0] + p[2]) + p[1] if len(p) == 3 else p[0] + p[1]


# the reference ray solve's band on the discriminant, in surface_scale()**-2
_GRAZING_BAND = 1e-14


def _ray_hit_fresh(core, O, D):
    """(hits, t) of the rays O + t D, component rows (N, n): the general
    solve, the reference of the package's one hit.  It takes any ray (an
    origin on, inside or outside the core, a null, infinite or outward
    direction), solves A t^2 + B t + C = 0 by the q-method, takes the
    smallest nonnegative root (nan on a miss) and counts a discriminant
    within _GRAZING_BAND of 0 as a tangent hit, then takes one Newton step.
    Scaling by 2 and 4 is exact and sqrt(4 x) = 2 sqrt(x), so its disc is
    exactly 4 (b^2 - AC) and, for B < 0, its q is exactly s - b; its
    min(q / A, C / q) picks C / q except where rounding puts q / A below
    it, which needs the two roots equal to rounding.  So on every ray from
    outside the core that it hits outside its band, the near root has its
    bits.  They differ where the origin rounds inside the core (the far
    root against the near root behind the origin), inside the band (a hit
    with s taken as 0 against a miss wherever b^2 < AC) and on nearly
    tangent rays whose polish step is longer than POLISH_STEP_TOL."""
    w = _per_component(core.inv_axes_sq, O)
    A = _dot_fresh(D * w, D)
    B = 2.0 * _dot_fresh(D * w, O)
    C = _dot_fresh(O * w, O) - 1.0
    disc = B * B - 4.0 * A * C
    band = _GRAZING_BAND / core.surface_scale() ** 2
    q = -0.5 * (B + np.copysign(np.sqrt(np.maximum(disc, 0.0)), B + 0.0))
    t1, t2 = q / A, np.fmax(C / q, -np.inf)
    lo = np.minimum(t1, t2)
    t = np.where(lo >= 0, lo, np.maximum(t1, t2))
    t[(t < 0) | (disc < -band)] = np.nan
    Y = O + t * D
    YM = Y / _per_component(core.axes_sq, Y)
    f = _dot_fresh(YM, Y) - 1.0
    df = 2.0 * _dot_fresh(YM, D)
    return Y + np.divide(-f, df, out=np.zeros(np.shape(f)), where=df != 0) * D, t


def _outer_geometry_fresh(core, X, d, G):
    """(outer points, inward normals, nu, m) above core points X."""
    w = _per_component(core.inv_axes_sq, X)
    r = np.sqrt(_dot_fresh(X * w, X * w))
    nu = X * w / r
    Dg = 1.0 / (1.0 + d / r * w)
    mu = -_dot_fresh(Dg * nu, G) / _dot_fresh(Dg * nu, nu)
    m = Dg * G + mu * (Dg * nu)
    nvec = m - nu
    return X + d * nu, nvec / np.sqrt(_dot_fresh(nvec, nvec)), nu, m


def _leg_inputs(core, rng, n):
    """n random core points with thickness and gradient over several scales,
    then the edge rows: zero and normal gradients, the axis points, -0.0
    components, a thickness of 1e-300 and a row whose point and thickness
    are nan."""
    N, s = core.dim, core.surface_scale()
    X = core.ambient_from_chart(rng.uniform(0.0, 2.0 * np.pi, (n, N - 1)))
    d = s * rng.uniform(1e-3, 2.0, n)
    G = rng.standard_normal((n, N)) * rng.choice([1e-3, 1.0, 1e3], (n, 1)) / s
    axis = np.diag(core.axes)
    X = np.concatenate([X, axis, -axis, X[:2] * np.where(X[:2] == 0.0, -0.0, 1.0), X[:1], X[:1] * np.nan])
    d = np.concatenate([d, np.full(2 * N + 2, 0.5 * s), [1e-300, np.nan]])
    G = np.concatenate([G, np.zeros((N, N)), 0.3 * core.normal(-axis) / s, np.full((2, N), -0.0),
                        G[:1], G[:1]])
    return X, d, G


@pytest.mark.parametrize("core", RAY_CORES, ids=lambda c: f"{c.kind}{c.semi_axes}")
def test_in_place_leg_stages_equal_the_fresh_array_forms_bit_for_bit(core):
    # the stages update their rows in place (sums into p[0], C -= 1, the
    # resolvent, the outer geometry and the Newton update); every output is
    # that of the one-expression forms, nan where they are nan
    rng = np.random.default_rng(29)
    O, D = _edge_rays(core, rng, 4000)
    X, d, G = _leg_inputs(core, rng, 4000)
    random_and_edges = [*range(300), *range(4000, len(O))]
    with np.errstate(all="ignore"):  # the nan and inf rows warn in both forms
        # the hit on rays the leg never casts as well (origins on or inside
        # the core, null, infinite and outward directions)
        want_Y = _near_hit_masked(core, O, D)[0]
        assert not np.isfinite(want_Y).all() and np.isfinite(want_Y).any()
        assert _same_hits(_near_hit_cols(core, np.ascontiguousarray(O.T), np.ascontiguousarray(D.T)).T, want_Y)
        want_out = _outer_geometry_fresh(core, X.T, d, G.T)
        Xc, Gc = np.ascontiguousarray(X.T), np.ascontiguousarray(G.T)
        got_out = (*_outer_geometry_cols(core, Xc, d, Gc), *_resolvent_cols(core, Xc, d, Gc))
        assert all(_same_bits(a, b) for a, b in zip(got_out, want_out))
        want_hits = _ray_hit_fresh(core, *want_out[:2])[0]
        assert _same_bits(_return_leg_rows(core, X, d, G), want_hits.T)
        # as points, one row at a time: the random rows after the first 300 are skipped
        for i in random_and_edges:
            assert _same_hits(_near_hit_cols(core, O[i], D[i]), want_Y[i]), (i, O[i], D[i])
        for i in [*range(300), *range(4000, len(X))]:
            got_i = (*_outer_geometry_cols(core, X[i], d[i], G[i]), *_resolvent_cols(core, X[i], d[i], G[i]))
            assert all(_same_bits(a, b[..., i]) for a, b in zip(got_i, want_out)), (i, X[i], d[i], G[i])
            assert _same_bits(_return_leg_rows(core, X[i], d[i], G[i]), want_hits[:, i]), (i, X[i], d[i])


def _leg_core(kind, R):
    """The core of kind at scale R: a sphere or circle of radius R, or the
    ellipsoid (2 R, R, R / 2)."""
    return {"sphere": ConvexCore.sphere, "circle": ConvexCore.circle,
            "ellipsoid": lambda R: ConvexCore.ellipsoid(2.0 * R, R, 0.5 * R)}[kind](R)


def _nearly_tangent_rays(core, rng, off):
    """Unit rays, (n, N) rows, tangent to the core at n random points, from
    0.2 to 3 times the scale before them, moved along the normal by off, (n,),
    times the scale: (O, D)."""
    n, N, s = len(off), core.dim, core.surface_scale()
    X = core.ambient_from_chart(rng.uniform(0.0, 2.0 * np.pi, (n, N - 1)))
    nu = core.normal(X)
    T = tangent_part(nu, rng.standard_normal((n, N)))
    T /= np.linalg.norm(T, axis=-1, keepdims=True)
    return X + (off * s)[:, None] * nu - (s * rng.uniform(0.2, 3.0, n))[:, None] * T, T


def _offsets(rng, n, lo, hi):
    """n offsets 10**uniform(lo, hi), each of either sign."""
    return rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(lo, hi, n)


def _rays_from_outside(core, rng, n):
    """2 n unit rays, (2 n, N) rows: n from points at heights 1e-6 to 3 times
    the scale above random core points, aimed at random points of the core's
    bounding box grown by 20%, then n nearly tangent rays."""
    N, s = core.dim, core.surface_scale()
    X = core.ambient_from_chart(rng.uniform(0.0, 2.0 * np.pi, (n, N - 1)))
    O = X + (s * 10.0 ** rng.uniform(-6.0, np.log10(3.0), n))[:, None] * core.normal(X)
    D = rng.uniform(-1.2, 1.2, (n, N)) * core.axes - O
    O_t, D_t = _nearly_tangent_rays(core, rng, _offsets(rng, n, -9.0, -3.0))
    return np.concatenate([O, O_t]), np.concatenate([D / np.linalg.norm(D, axis=-1, keepdims=True), D_t])


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["sphere", "ellipsoid", "circle"]), R=st.floats(1e-3, 1e3),
       seed=st.integers(0, 2**32 - 1))
def test_near_hit_equals_the_general_hit_outside_the_grazing_band(kind, R, seed):
    # rays that start outside the core (C > 0), point at it (B < 0) and lie
    # outside the grazing band: the near root with its grazing-step check has
    # the bits of the general solve's hit, as rows and as points
    core = _leg_core(kind, R)
    O, D = _rays_from_outside(core, np.random.default_rng(seed), 64)
    Oc, Dc = np.ascontiguousarray(O.T), np.ascontiguousarray(D.T)
    w = _per_component(core.inv_axes_sq, Oc)
    B = 2.0 * _dot_fresh(Dc * w, Oc)
    C = _dot_fresh(Oc * w, Oc) - 1.0
    disc = B * B - 4.0 * _dot_fresh(Dc * w, Dc) * C
    cast = np.flatnonzero((C > 0) & (B < 0) & (np.abs(disc) >= _GRAZING_BAND / core.surface_scale() ** 2))
    want = _ray_hit_fresh(core, Oc, Dc)[0]
    assert _same_bits(_near_hit_cols(core, Oc, Dc)[:, cast], want[:, cast])
    for i in cast:
        assert _same_bits(_near_hit_cols(core, O[i], D[i]), want[:, i]), (O[i], D[i])


@pytest.mark.parametrize("R", [1e-3, 1.0, 1e3])
def test_ray_solve_grazing_band_scales_with_the_core(R):
    # the hit's tangency test scales with the core: a ray that passes 1e-9 R
    # outside the sphere misses at every R, and the exactly tangent ray hits
    # at the tangent point
    core, D = ConvexCore.sphere(R), np.array([[1.0, 0.0, 0.0]])
    x = _ray_solve_batch(core, np.array([[-2.0 * R, R * (1.0 + 1e-9), 0.0]]), D)
    assert not np.isfinite(x).any()
    x = _ray_solve_batch(core, np.array([[-2.0 * R, R, 0.0]]), D)
    assert np.abs(x[0] - [0.0, R, 0.0]).max() <= 1e-12 * R


@pytest.mark.parametrize("kind", ["sphere", "ellipsoid", "circle"])
@pytest.mark.parametrize("R", [1e-3, 1.0, 1e3])
def test_near_hits_of_nearly_tangent_rays_stay_on_the_core(kind, R):
    # rays tangent to the core, moved off it along the normal by up to 1e-4
    # R either way: a polish step longer than POLISH_STEP_TOL R makes the hit
    # a miss, so every hit is on the core, and every ray that cuts 1e-12 R
    # deep or more still hits
    core, rng = _leg_core(kind, R), np.random.default_rng(17)
    off = _offsets(rng, 20000, -17.0, -4.0)
    off[:1000] = 0.0
    O, T = _nearly_tangent_rays(core, rng, off)
    Y = _near_hit_cols(core, np.ascontiguousarray(O.T), np.ascontiguousarray(T.T)).T
    hit = np.isfinite(Y).all(axis=-1)
    assert np.abs(core.implicit(Y[hit])).max() <= TOL_SURFACE
    assert hit[off <= -1e-12].all() and not hit[off >= 1e-12].any()


@pytest.mark.parametrize("scale", [2.0, 0.5])
def test_ray_t_is_the_ray_parameter_for_non_unit_directions(scale):
    origin = np.array([0.0, 0.0, 3.0])
    direction = scale * np.array([0.0, 0.0, -1.0])
    t, x = first_hit(SPHERE, origin, direction)
    assert abs(t - 2.0 / scale) < 1e-12
    assert np.allclose(origin + t * direction, x, atol=1e-12)


@pytest.mark.parametrize("core", [SPHERE, ELLIPSOID, CIRCLE])
def test_ray_projection_round_trip(core):
    # fire from outside along -normal of a known point: first hit is that point
    for p in random_points(core, 60, seed=9):
        nu = core.normal(p.ambient)
        origin = p.ambient + 1.7 * nu
        _, x = first_hit(core, origin, -nu)
        assert np.isfinite(x).all()
        assert np.linalg.norm(x - p.ambient) < 1e-10


def test_hit_points_satisfy_implicit_tolerance():
    for p in random_points(ELLIPSOID, 40, seed=10):
        nu = ELLIPSOID.normal(p.ambient)
        _, x = first_hit(ELLIPSOID, p.ambient + 0.9 * nu, -nu)
        assert abs(float(ELLIPSOID.implicit(x))) < 1e-12


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
    nu = ELLIPSOID.normal(p.ambient)
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


def _x_colatitude_chart(core, ch):
    """The chart with colatitude alpha from the x-axis and longitude beta
    about it: x = s (cos alpha, sin alpha cos beta, sin alpha sin beta)."""
    alpha, beta = ch[..., 0], ch[..., 1]
    return core.axes * np.stack([np.cos(alpha), np.sin(alpha) * np.cos(beta),
                                 np.sin(alpha) * np.sin(beta)], axis=-1)


def _oracle_frame(core, theta, phi, h=1e-5):
    """Gram-Schmidt of the central-difference chart derivatives at the point
    of chart (theta, phi) (theta alone for N=2): the z-colatitude chart of
    ambient_from_chart, or the x-colatitude chart within POLE_SIN_TOL of
    the z-poles."""
    if core.dim == 2:
        chart, ch = core.ambient_from_chart, np.array([theta])
    elif np.sin(theta) >= POLE_SIN_TOL:
        chart, ch = core.ambient_from_chart, np.array([theta, phi])
    else:
        u = core.ambient_from_chart(np.array([theta, phi])) / core.axes
        chart, ch = (lambda c: _x_colatitude_chart(core, c)), np.array([np.arccos(u[0]),
                                                                        np.arctan2(u[2], u[1])])
    steps = h * np.eye(ch.size)
    T = np.array([(chart(ch + s) - chart(ch - s)) / (2.0 * h) for s in steps])
    frame = []
    for t in T:
        for e in frame:
            t = t - np.dot(t, e) * e
        frame.append(t / np.linalg.norm(t))
    return np.array(frame)


@pytest.mark.parametrize("core", [SPHERE, ConvexCore.ellipsoid(2.0, 1.0, 0.5), CIRCLE],
                         ids=["sphere", "ellipsoid", "circle"])
def test_frames_are_gram_schmidt_of_the_chart_derivatives(core):
    # the direction of each frame vector, not only orthonormality, on an
    # ellipsoid and in the rotated chart at the poles
    rng = np.random.default_rng(6)
    thetas = np.concatenate([np.arccos(rng.uniform(-1, 1, 60)), [0.0, 1e-7, 1e-5, np.pi - 1e-7, np.pi]])
    phis = rng.uniform(0, 2 * np.pi, thetas.size)
    charts = np.stack([thetas, phis], axis=-1)[:, :core.dim - 1]
    E = frames_batch(core, core.ambient_from_chart(charts))
    for e, theta, phi in zip(E, thetas, phis):
        assert np.abs(e - _oracle_frame(core, theta, phi)).max() <= 1e-8, (theta, phi)


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
    assert abs(q.chart[0] - theta) < 1e-9
    qphi = float(q.chart[1])
    assert min(abs(qphi - phi), abs(qphi - phi + 2 * np.pi), abs(qphi - phi - 2 * np.pi)) < 1e-9


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
    # a sphere or circle keeps the one entry of axes_sq and inv_axes_sq, which
    # the return leg's stages take as a scalar
    for core, per_axis in ((ConvexCore.ellipsoid(2.0, 1.0, 0.5), [2.0, 1.0, 0.5]),
                           (ConvexCore.sphere(2.5), [2.5]), (ConvexCore.circle(0.7), [0.7])):
        assert core.axes is core.axes
        assert np.array_equal(core.axes, core.semi_axes)
        with pytest.raises(ValueError):
            core.axes[0] = 3.0
        per_axis = np.array(per_axis)
        for name, want in (("axes_sq", per_axis**2), ("inv_axes_sq", 1.0 / per_axis**2)):
            cached = getattr(core, name)
            assert cached is getattr(core, name)
            assert cached.shape == want.shape and cached.tobytes() == want.tobytes()
            with pytest.raises(ValueError):
                cached[0] = 3.0
    twin = ConvexCore("ellipsoid", (2, 1, 0.5))
    assert twin == ConvexCore.ellipsoid(2.0, 1.0, 0.5) and hash(twin) == hash(ConvexCore.ellipsoid(2.0, 1.0, 0.5))


@pytest.mark.parametrize("kind, axes", [("sphere", (1, 2, 3)), ("sphere", (1.0, 1.0, 1.5)),
                                        ("circle", (1.5, 0.8))])
def test_sphere_and_circle_reject_unequal_semi_axes(kind, axes):
    # retract_batch scales these kinds radially to semi_axes[0]
    with pytest.raises(ValueError):
        ConvexCore(kind, axes)
    assert ConvexCore(kind, (axes[0],) * len(axes)) == (ConvexCore.sphere(axes[0]) if kind == "sphere"
                                                        else ConvexCore.circle(axes[0]))
