"""Exact forward dynamics: return map, orbits.

Expected values here are frozen from the ray-geometry oracle itself (the
map is computed two independent ways where possible); in particular the
dynamics provably climbs the thickness field, so orbits terminate at
thickness maxima and the thickness sequence is nondecreasing.
"""

import tracemalloc

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
    SumField,
    SurfacePoint,
    ZonalLegendreField,
    ZonalProfileField,
    basin_decomposition,
    fixed_point_search,
    iterate_batch,
    iterate_orbit,
    return_map,
    return_map_batch,
    settle_batch,
    thickness_step_stats,
)
from shellmap import dynamics
from shellmap.domain import _outer_geometry_batch
from shellmap.dynamics import OrbitRecord, _row_dot, _row_norm
from shellmap.errors import ImmersionFailure, ShellmapError
from shellmap.harness import _Out, _task_orbit, load_bundled, parse_scenario_text, resolve, run_scenario
from shellmap.fields import ThicknessField
from shellmap.surfaces import _near_hit_cols, fibonacci_chart_grid, tangent_part

SPHERE = ConvexCore.sphere(1.0)
CIRCLE = ConvexCore.circle(1.0)


def zonal_domain(d0=0.5, eps=0.01):
    return RadialDomain(SPHERE, ZonalLegendreField(SPHERE, d0, eps))


def pt(core, *chart):
    return SurfacePoint.from_chart(core, *chart)


# ---------------------------------------------------------------------------
# the return map and its two legs
# ---------------------------------------------------------------------------

def test_constant_field_reciprocal_inverts_radial():
    dom = RadialDomain(SPHERE, ConstantField(SPHERE, 0.5))
    for theta, phi in [(0.3, 0.1), (1.2, 4.0), (2.8, 2.2)]:
        p = pt(SPHERE, theta, phi)
        x, n = _outer_geometry_batch(dom, p.ambient[None])
        back = _near_hit_cols(SPHERE, x.T, n.T)
        assert np.linalg.norm(back[:, 0] - p.ambient) < 1e-13


def test_constant_field_circle_reciprocal():
    dom = RadialDomain(CIRCLE, ConstantField(CIRCLE, 0.3))
    p = pt(CIRCLE, 0.77)
    x, n = _outer_geometry_batch(dom, p.ambient[None])
    assert np.allclose(x[0], 1.3 * p.ambient, atol=1e-14)
    assert np.linalg.norm(_near_hit_cols(CIRCLE, x.T, n.T)[:, 0] - p.ambient) < 1e-13


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
    assert q.chart[0] < p.chart[0]  # toward the pole (the maximum of d)
    assert dom.field.ambient_value(q.ambient) > dom.field.ambient_value(p.ambient)


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



@pytest.mark.parametrize("n", [4095, 4096, 4097, 8195])
def test_return_map_batch_rows_across_blocks_equal_batch_of_one(n):
    # batches of more than BLOCK_ROWS rows run block by block
    assert dynamics.BLOCK_ROWS == 4096
    dom = _BIT_DOMAINS["ellipsoid"]
    X = _TILTED.ambient_from_chart(fibonacci_chart_grid(_TILTED, n))
    Y = return_map_batch(dom, X)
    assert Y.shape == X.shape and Y.flags.c_contiguous
    rows = np.r_[np.arange(0, n, 97), 4094, 4095, 4096, 8191, 8192, n - 1]
    for i in np.unique(rows[rows < n]):
        assert np.array_equal(Y[i], return_map_batch(dom, X[i:i + 1])[0])


_TWO_AXIS = RadialDomain(SPHERE, SumField([ZonalLegendreField(SPHERE, 0.25, 0.02),
                                           ZonalLegendreField(SPHERE, 0.25, 0.02, axis=(0.3, 0.5, 0.8))]))


_POINT_DOMAINS = {
    "zonal_sphere": zonal_domain(0.5, 0.01),
    "tilted_ellipsoid": _BIT_DOMAINS["ellipsoid"],
    "fourier_circle": _BIT_DOMAINS["circle"],
    "two_axis_sphere": _TWO_AXIS,
    "constant_ellipsoid": RadialDomain(_TILTED, ConstantField(_TILTED, 0.25)),
}


@pytest.mark.parametrize("dom", _POINT_DOMAINS.values(), ids=_POINT_DOMAINS.keys())
def test_batch_of_one_runs_as_a_point_and_equals_its_row_in_a_wide_batch(dom, monkeypatch):
    # a batch of one runs the kernel stages on a point (N,), whose per-point
    # values are numpy scalars; a batch of 1,000 runs them on component rows
    X = dom.core.ambient_from_chart(fibonacci_chart_grid(dom.core, 1000))
    Y = return_map_batch(dom, X)
    stage, shapes = dynamics._return_map_rows, []

    def spy(core, P, d, G):
        shapes.append(P.shape)
        return stage(core, P, d, G)

    monkeypatch.setattr(dynamics, "_return_map_rows", spy)
    for i, x in enumerate(X):
        y = return_map_batch(dom, X[i:i + 1])
        assert y.shape == (1, dom.core.dim) and np.array_equal(y[0], Y[i]), i
        assert np.array_equal(return_map_batch(dom, x), y)
    assert set(shapes) == {(dom.core.dim,)}


@pytest.mark.parametrize("kind", ["sphere", "circle"])
def test_isotropic_kernel_equals_its_per_axis_columns_bit_for_bit(kind):
    # a sphere or circle hands the one entry of its axes_sq and inv_axes_sq to
    # the stages as a scalar; the same core with a column per axis, as an
    # ellipsoid has, must give the same bytes as rows and as points
    dom = _BIT_DOMAINS[kind]
    columns = ConvexCore(dom.core.kind, dom.core.semi_axes)
    for name in ("axes_sq", "inv_axes_sq"):
        value = np.full(dom.core.dim, getattr(dom.core, name)[0])
        value.flags.writeable = False
        object.__setattr__(columns, name, value)
    forced = RadialDomain(columns, dom.field)
    X = dom.core.ambient_from_chart(fibonacci_chart_grid(dom.core, 1000))
    assert return_map_batch(dom, X).tobytes() == return_map_batch(forced, X).tobytes()
    for x in X[::20]:
        assert return_map_batch(dom, x[None]).tobytes() == return_map_batch(forced, x[None]).tobytes()


def test_return_map_batch_takes_any_array_like_as_float_rows():
    # only input that is not already a 2-D float64 ndarray is coerced; lists,
    # ints, points and float rows of any layout or byte order map as their
    # C-ordered float64 rows
    dom = _BIT_DOMAINS["sphere"]
    X = SPHERE.ambient_from_chart(fibonacci_chart_grid(SPHERE, 40))
    wide = np.zeros((40, 5))
    wide[:, 1:4] = X
    ints = np.array([[0, 0, 1], [1, 0, 0], [0, -1, 0]])
    for given in (X.tolist(), X[7].tolist(), ints, ints[2], X[5], X[5:6], np.asfortranarray(X), X[::3],
                  wide[:, 1:4], X.astype(">f8"), X.astype(np.float32)):
        want = return_map_batch(dom, np.array(given, dtype=float, ndmin=2, order="C"))
        got = return_map_batch(dom, given)
        assert got.dtype == np.float64 and got.shape == want.shape and got.tobytes() == want.tobytes()


_NAN_GRAD = RadialDomain(SPHERE, ZonalProfileField(SPHERE, 0.5, lambda w: 0.0 * w, lambda w: np.nan * w,
                                                   lambda w: np.nan * w))


_NONPOSITIVE = "nonpositive thickness encountered in batch step"


@pytest.mark.parametrize("dom, seed, kind, message", [
    (RadialDomain(SPHERE, ConstantField(SPHERE, 0.0)), (0.6, 0.0, 0.8), InadmissibleThickness, _NONPOSITIVE),
    (RadialDomain(SPHERE, ZonalLegendreField(SPHERE, 0.1, 0.5)), (1.0, 0.0, 0.0), InadmissibleThickness,
     _NONPOSITIVE),
    (zonal_domain(), (np.nan,) * 3, NormalRayMissesCore,
     "1 inward rays miss the core, 1 of them from rows that are not finite"),
    (_NAN_GRAD, (0.6, 0.0, 0.8), ImmersionFailure, "degenerate outer normal at 1 points"),
], ids=["zero", "negative", "nan_seed", "degenerate_normal"])
def test_batch_of_one_fails_with_the_kernels_kinds_and_messages(dom, seed, kind, message):
    # RuntimeWarnings are errors under pytest.ini, so a warning on the point
    # path would surface here in place of the kernel's error
    for X in (np.array([seed]), np.array(seed)):
        with pytest.raises(kind) as err:
            return_map_batch(dom, X)
        assert str(err.value) == message


@pytest.mark.parametrize("dom", [_BIT_DOMAINS["ellipsoid"], _TWO_AXIS], ids=["tilted_ellipsoid", "two_axis_sphere"])
def test_return_map_batch_does_not_depend_on_the_memory_layout(dom):
    # einsum sums in an order that follows its operand's layout, so a zonal field
    # must read the same w from Fortran-ordered and strided rows as from C rows
    X = dom.core.ambient_from_chart(fibonacci_chart_grid(dom.core, 2000))
    Y, G = return_map_batch(dom, X), dom.field.ambient_grad(X)
    for view, rows in ((np.asfortranarray(X), slice(None)), (X[::2], slice(None, None, 2))):
        assert np.array_equal(return_map_batch(dom, view), Y[rows])
        assert np.array_equal(dom.field.ambient_grad(view), G[rows])
        assert np.array_equal(dom.field.ambient_value_grad(view)[1], G[rows])


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


def _failing_rows(kind, n):
    """n rows of the unit sphere, d = 0.5, whose rays hit, with the rows of a
    failure kind set in place, (X, d, G): thin rows (d <= 0); degenerate rows
    (a nan gradient at a finite d) beside rows whose rays miss; or rows whose
    rays miss (a tangent gradient of length 3) beside rows that are not
    finite.  At 2 BLOCK_ROWS + 1 rows the degenerate rows lie in the second
    and third blocks and the misses in the first two."""
    X = SPHERE.ambient_from_chart(fibonacci_chart_grid(SPHERE, n))
    d = np.full(n, 0.5)
    T = tangent_part(SPHERE.normal(X), np.roll(X, 1, axis=1) + 0.3)
    G = 0.1 * T
    B = dynamics.BLOCK_ROWS
    rows = {1: {"thin": [0], "degenerate": [0], "miss": [0], "not_finite": []},
            10: {"thin": [3, 9], "degenerate": [2, 7], "miss": [1, 4, 8], "not_finite": [5]},
            2 * B + 1: {"thin": [5, 2 * B], "degenerate": [B + 1, B + 9, 2 * B], "miss": [3, 2 * B - 1],
                        "not_finite": [B + 2]}}[n]
    if kind == "thin":
        d[rows["thin"]] = [0.0, -0.1][:len(rows["thin"])]
    if kind in ("degenerate", "miss"):
        G[rows["miss"]] = 3.0 * T[rows["miss"]] / np.linalg.norm(T[rows["miss"]], axis=-1, keepdims=True)
    if kind == "degenerate":
        G[rows["degenerate"]] = np.nan
    if kind == "miss":
        X[rows["not_finite"]], d[rows["not_finite"]] = np.nan, np.nan
    return X, d, G


@pytest.mark.parametrize("kind, n, error, message", [
    ("thin", 1, InadmissibleThickness, _NONPOSITIVE),
    ("thin", 10, InadmissibleThickness, _NONPOSITIVE),
    ("thin", 2 * dynamics.BLOCK_ROWS + 1, InadmissibleThickness, _NONPOSITIVE),
    ("degenerate", 1, ImmersionFailure, "degenerate outer normal at 1 points"),
    ("degenerate", 10, ImmersionFailure, "degenerate outer normal at 2 points"),
    ("degenerate", 2 * dynamics.BLOCK_ROWS + 1, ImmersionFailure, "degenerate outer normal at 2 points"),
    ("miss", 1, NormalRayMissesCore, "1 inward rays miss the core"),
    ("miss", 10, NormalRayMissesCore, "4 inward rays miss the core, 1 of them from rows that are not finite"),
    ("miss", 2 * dynamics.BLOCK_ROWS + 1, NormalRayMissesCore,
     "3 inward rays miss the core, 1 of them from rows that are not finite"),
], ids=lambda v: str(v) if isinstance(v, (str, int)) else "")
def test_row_stage_failures_keep_their_kinds_messages_and_block_counts(kind, n, error, message):
    # the leg does not check its outer normals; the row stage's failure branch
    # reruns the checking outer geometry block by block, so a degenerate normal
    # still raises before the miss count, with the first such block's count.
    # The messages are those of the kernel that checked every block as it ran
    X, d, G = _failing_rows(kind, n)
    for args in ([(X[0], d[0], G[0])] if n == 1 else []) + [(X, d, G)]:
        with pytest.raises(error) as err:
            dynamics._return_map_rows(SPHERE, *args)
        assert str(err.value) == message


class _TinyShell(ThicknessField):
    """d = 1e-300 everywhere, with the gradient x M of a fixed matrix M."""

    def __init__(self, core, M):
        super().__init__(core)
        self.M = M

    def ambient_value(self, X):
        return np.full(np.shape(X)[:-1], 1e-300)

    def ambient_grad(self, X):
        return np.asarray(X) @ self.M


def test_a_thickness_below_round_off_maps_each_point_to_itself():
    # c + d nu rounds to c, which can lie inside the core (C < 0); the near
    # root is then a tiny t < 0, not the far root across the core, so F is the
    # d -> 0 limit, the identity, to round-off
    core = ConvexCore.ellipsoid(2.0, 1.0, 0.5)
    rng = np.random.default_rng(0)
    X = core.ambient_from_chart(np.stack([np.arccos(rng.uniform(-1.0, 1.0, 2000)),
                                          rng.uniform(0.0, 2.0 * np.pi, 2000)], axis=-1))
    assert np.count_nonzero(core.implicit(X) < 0.0) > 100
    Y = return_map_batch(RadialDomain(core, _TinyShell(core, rng.standard_normal((3, 3)))), X)
    assert np.linalg.norm(Y - X, axis=-1).max() <= 4 * np.finfo(float).eps * core.surface_scale()


def test_return_map_batch_counts_missed_rays(monkeypatch):
    dom = zonal_domain()
    leg = dynamics._return_leg_rows

    def missing_two(core, X, d, G):
        Y = leg(core, X, d, G)
        Y[[1, 3]] = np.nan
        return Y

    monkeypatch.setattr(dynamics, "_return_leg_rows", missing_two)
    X = SPHERE.ambient_from_chart(fibonacci_chart_grid(SPHERE, 5))
    with pytest.raises(NormalRayMissesCore, match="^2 inward rays miss the core$"):
        return_map_batch(dom, X)


def test_a_nan_seed_among_ten_rows_is_counted_as_not_finite():
    dom = zonal_domain()
    X = SPHERE.ambient_from_chart(fibonacci_chart_grid(SPHERE, 10))
    X[4] = np.nan
    message = "^1 inward rays miss the core, 1 of them from rows that are not finite$"
    for run in (return_map_batch, iterate_batch, lambda dom, X: settle_batch(BlackBoxMap.wrap_domain(dom), X)):
        with pytest.raises(NormalRayMissesCore, match=message):
            run(dom, X)


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
    rec = iterate_orbit(dom, pt(SPHERE, 1.0, 2.0).ambient, tol=1e-10)
    assert rec.status == "converged"
    assert len(rec.points) == 2 and rec.displacement_norms[0] < 1e-12


def test_orbit_record_consistency():
    dom = zonal_domain()
    rec = iterate_orbit(dom, pt(SPHERE, 1.0, 0.5).ambient, max_iters=5000, tol=1e-8)
    assert len(rec.points) == len(rec.thickness_values)
    assert len(rec.displacement_norms) == len(rec.points) - 1
    for k in range(len(rec.displacement_norms)):
        d = np.linalg.norm(rec.points[k + 1] - rec.points[k])
        assert abs(d - rec.displacement_norms[k]) < 1e-15
    assert rec.status == "converged"
    assert rec.displacement_norms[-1] < 1e-8


def test_orbit_from_quarter_colatitude_reaches_pole():
    # the maximum of d sits at the poles; the orbit climbs there
    dom = zonal_domain()
    rec = iterate_orbit(dom, pt(SPHERE, np.pi / 4, 0.0).ambient, tol=1e-10)
    assert rec.status == "converged"
    assert SPHERE.chart_from_ambient(rec.points[-1])[0] < 1e-3
    assert rec.limit_grad_norm < 1e-6
    assert abs(rec.thickness_values[-1] - 0.51) < 1e-6


def test_orbit_thickness_monotone_nondecreasing():
    dom = zonal_domain()
    rec = iterate_orbit(dom, pt(SPHERE, 1.2, 0.3).ambient, max_iters=4000, tol=1e-9)
    t = np.array(rec.thickness_values)
    assert np.all(np.diff(t) >= -1e-12)


def test_orbit_seed_at_pole_fixed():
    dom = zonal_domain()
    rec = iterate_orbit(dom, pt(SPHERE, 0.0, 0.0).ambient, tol=1e-10)
    assert rec.status == "converged"
    assert len(rec.points) == 2
    assert rec.displacement_norms[0] < 1e-12


def test_orbit_error_captured():
    dom = RadialDomain(SPHERE, ZonalLegendreField(SPHERE, 0.1, 0.5))
    rec = iterate_orbit(dom, pt(SPHERE, np.pi / 2, 0.0).ambient, tol=1e-10)
    assert rec.status == "error"
    assert rec.error_kind == "InadmissibleThickness"


def test_orbit_error_record_keeps_points_and_thickness_aligned():
    dom = RadialDomain(SPHERE, ZonalLegendreField(SPHERE, 0.1, 0.5))
    rec = iterate_orbit(dom, pt(SPHERE, np.pi / 2, 0.0).ambient, tol=1e-10)
    assert rec.status == "error"
    assert len(rec.points) == len(rec.thickness_values) == 0


def test_nonpositive_thickness_has_one_name_on_every_path():
    # d = 0.1 + 0.5 P2(0) = -0.15 at the equator
    dom = RadialDomain(SPHERE, ZonalLegendreField(SPHERE, 0.1, 0.5))
    p = pt(SPHERE, np.pi / 2, 0.0)
    with pytest.raises(InadmissibleThickness):
        iterate_batch(dom, p.ambient[None])
    with pytest.raises(InadmissibleThickness):
        return_map(dom, p)
    with pytest.raises(InadmissibleThickness):
        BlackBoxMap.wrap_domain(dom).batch(p.ambient[None])
    assert iterate_orbit(dom, p.ambient).error_kind == "InadmissibleThickness"


def test_orbit_csv(tmp_path):
    # the orbit table as the harness writes it: one row per orbit point
    dom = zonal_domain()
    rec = iterate_orbit(dom, pt(SPHERE, 1.0, 0.0).ambient, max_iters=50, tol=1e-15)
    scn = parse_scenario_text("name = t\ncore.kind = sphere\nfield.kind = zonal_legendre\n"
                              "field.d0 = 0.5\nfield.eps = 0.01\ntask = orbit\ntask.point = 1.0,0.0\n"
                              "task.max_iters = 50\ntask.tol = 1e-15")
    _task_orbit(resolve(scn), _Out(tmp_path), None)
    lines = (tmp_path / "orbit.csv").read_text().splitlines()
    assert lines[0] == "step,theta,phi,x,y,z,d,displacement"
    assert len(lines) == len(rec.points) + 1


def test_iterate_batch_agrees_with_scalar_orbits():
    dom = zonal_domain()
    charts = np.array([[0.6, 0.0], [2.4, 1.0], [1.4, 3.0]])
    X = SPHERE.ambient_from_chart(charts)
    batch = iterate_batch(dom, X, max_iters=20_000, tol=1e-9)
    for i, ch in enumerate(charts):
        rec = iterate_orbit(dom, X[i], max_iters=20_000, tol=1e-9)
        assert batch.converged[i] and rec.status == "converged"
        # one orbit loop runs both, so the limits and steps are the same
        assert batch.limits[i].tobytes() == rec.points[-1].tobytes()
        assert batch.steps[i] == len(rec.points) - 1


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("n", [1, 2, 3, 5, 700])
def test_row_norm_sums_in_the_axis_norms_order(dim, n):
    # the orbit loop's displacements equal np.linalg.norm(D, axis=-1) row by
    # row; a numpy whose axis norm sums the columns in another order fails here
    rng = np.random.default_rng(n)
    D = rng.standard_normal((n, dim)) * np.exp(rng.uniform(-20.0, 20.0, (n, dim)))
    assert _row_norm(D).tobytes() == np.linalg.norm(D, axis=-1).tobytes()
    # settle's cosine takes its row dot in the same order
    B = rng.standard_normal((n, dim))
    assert _row_dot(D, B).tobytes() == np.sum(D * B, axis=-1).tobytes()


@pytest.mark.parametrize("dom", [zonal_domain(0.5, 0.05), _BIT_DOMAINS["ellipsoid"]],
                         ids=["zonal_sphere", "tilted_ellipsoid"])
def test_settle_batch_never_writes_into_the_maps_images(dom):
    # settle keeps its images as they are where no row is amplified and copies
    # them before it writes the amplified rows: a black box whose images are
    # read-only settles to the limits and steps of the wrapped domain
    def read_only(X):
        Y = return_map_batch(dom, X)
        Y.flags.writeable = False
        return Y

    X = dom.core.ambient_from_chart(fibonacci_chart_grid(dom.core, 60))
    want = settle_batch(BlackBoxMap.wrap_domain(dom), X, tol=1e-10)
    got = settle_batch(BlackBoxMap(dom.core, read_only), X, tol=1e-10)
    assert got.limits.tobytes() == want.limits.tobytes() and np.array_equal(got.steps, want.steps)
    assert got.converged.all() and got.steps.max() > 2


_ORBIT_ENTRIES = {
    "iterate_orbit": lambda dom, X, tol: iterate_orbit(dom, X[0], max_iters=50, tol=tol),
    "iterate_batch": lambda dom, X, tol: iterate_batch(dom, X, max_iters=50, tol=tol),
    "settle_batch": lambda dom, X, tol: settle_batch(BlackBoxMap.wrap_domain(dom), X, tol=tol, max_iters=50),
    "basin_decomposition": lambda dom, X, tol: basin_decomposition(BlackBoxMap.wrap_domain(dom), X, tol=tol,
                                                                   max_iters=50),
    "fixed_point_search": lambda dom, X, tol: fixed_point_search(BlackBoxMap.wrap_domain(dom), len(X), tol=tol,
                                                                 max_iters=50),
}


@pytest.mark.parametrize("tol", [0.0, -1e-10, np.nan])
@pytest.mark.parametrize("entry", sorted(_ORBIT_ENTRIES))
def test_nonpositive_tol_raises_before_iterating(entry, tol, monkeypatch):
    # no displacement is below a tol <= 0 or a nan tol, so an orbit would run
    # to max_iters
    calls = _inject_at_step(monkeypatch, 0, None)  # counts the kernel's calls, replaces none
    dom = zonal_domain()
    X = SPHERE.ambient_from_chart(fibonacci_chart_grid(SPHERE, 8))
    with pytest.raises(ValueError, match="tol must be positive"):
        _ORBIT_ENTRIES[entry](dom, X, tol)
    # fixed_point_search takes every seed's first step before it settles them
    assert calls[0] == (entry == "fixed_point_search")


@pytest.mark.parametrize("entry", sorted(_ORBIT_ENTRIES))
def test_every_orbit_entry_maps_through_the_injection_seam(entry, monkeypatch):
    # _inject_at_step patches the plain step; an entry whose map calls bypass it
    # would let the call counts and injected errors above pass vacuously
    calls = _inject_at_step(monkeypatch, 0, None)
    dom = zonal_domain()
    _ORBIT_ENTRIES[entry](dom, SPHERE.ambient_from_chart(fibonacci_chart_grid(SPHERE, 8)), 1e-10)
    assert calls[0] >= 2


def _active_index_loop(dom, seeds, max_iters, tol):
    """iterate_batch as one loop over the indices of the seeds still running,
    every limit and step count written on every step."""
    X = np.array(seeds, dtype=float)
    steps = np.zeros(len(X), dtype=int)
    converged = np.zeros(len(X), dtype=bool)
    active = np.arange(len(X))
    for _ in range(max_iters):
        if active.size == 0:
            break
        Xa = X[active]
        Y = return_map_batch(dom, Xa)
        disp = np.linalg.norm(Y - Xa, axis=-1)
        X[active] = Y
        steps[active] += 1
        done = disp < tol
        converged[active[done]] = True
        active = active[~done]
    return X, steps, converged


@pytest.mark.parametrize("kind", sorted(_BIT_DOMAINS))
@pytest.mark.parametrize("max_iters", [10, 25, 100_000], ids=["segment_10", "segment_25", "uncut"])
def test_iterate_batch_equals_the_active_index_loop_bit_for_bit(kind, max_iters):
    # a seed at a critical point stops after one step and the others at many
    # different steps; a cut max_iters stops the others mid-orbit, as the
    # benchmark's 10-step segments do
    dom = _BIT_DOMAINS[kind]
    core = dom.core
    critical = core.axes * dom.field.axis if core.dim == 3 else core.ambient_from_chart([0.0])
    X = np.concatenate([core.ambient_from_chart(fibonacci_chart_grid(core, 60)), [critical]])
    res = iterate_batch(dom, X, max_iters=max_iters, tol=1e-10)
    want = _active_index_loop(dom, X, max_iters, 1e-10)
    assert res.limits.tobytes() == want[0].tobytes()
    assert np.array_equal(res.steps, want[1]) and np.array_equal(res.converged, want[2])
    assert res.converged[-1] and res.steps[-1] == 1
    if max_iters < 100_000:
        running = ~res.converged
        assert running.sum() > 50 and (res.steps[running] == max_iters).all()
    else:
        assert res.converged.all() and len(np.unique(res.steps)) > 10


@pytest.mark.parametrize("kind", sorted(_BIT_DOMAINS))
def test_iterate_batch_across_blocks_equals_the_active_index_loop_bit_for_bit(kind):
    # 4,097 seeds cross BLOCK_ROWS: the first step fills the row stage's
    # component-major buffer block by block, the critical seed stops there, and
    # the engine compacts the rest in that layout for one-block steps
    dom = _BIT_DOMAINS[kind]
    core = dom.core
    critical = core.axes * dom.field.axis if core.dim == 3 else core.ambient_from_chart([0.0])
    X = np.concatenate([[critical], core.ambient_from_chart(fibonacci_chart_grid(core, dynamics.BLOCK_ROWS))])
    assert len(X) == 4097
    res = iterate_batch(dom, X, max_iters=10, tol=1e-10)
    want = _active_index_loop(dom, X, 10, 1e-10)
    assert res.limits.flags.c_contiguous and res.limits.tobytes() == want[0].tobytes()
    assert np.array_equal(res.steps, want[1]) and np.array_equal(res.converged, want[2])
    assert res.converged[0] and res.steps[0] == 1 and (~res.converged).sum() > 4000


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

def _thickness(dom, p):
    """d(p), InadmissibleThickness unless it is positive."""
    d = float(dom.field.ambient_value(p.ambient))
    if d <= 0.0:
        raise InadmissibleThickness(f"d = {d:.6g} <= 0")
    return d


def _per_step_orbit(dom, seed, max_iters, tol):
    """The orbit as a loop of scalar steps: return_map checks each iterate
    is on the core, _thickness checks its thickness.  Returns the record
    and the SurfacePoints of the loop."""
    points, thickness, disps = [], [], []
    status, error_kind, gnorm = "max_iterations", None, None
    try:
        thickness.append(_thickness(dom, seed))
        points.append(seed)
        current = seed
        for _ in range(max_iters):
            nxt = return_map(dom, current)
            thickness.append(_thickness(dom, nxt))
            step = float(np.linalg.norm(nxt.ambient - current.ambient))
            points.append(nxt)
            disps.append(step)
            current = nxt
            if step < tol:
                status = "converged"
                gnorm = float(np.linalg.norm(dom.field.tangent_gradient(current.ambient[None])[0]))
                break
    except ShellmapError as exc:
        status, error_kind = "error", type(exc).__name__
    X = np.array([p.ambient for p in points]).reshape(-1, dom.core.dim)
    return OrbitRecord(X, np.array(thickness), np.array(disps), status, error_kind, gnorm), points


def _assert_same_record(got, want):
    assert (got.status, got.error_kind) == (want.status, want.error_kind)
    for field in ("points", "thickness_values", "displacement_norms"):
        g, w = getattr(got, field), getattr(want, field)
        assert g.shape == w.shape and g.tobytes() == w.tobytes(), field
    assert got.limit_grad_norm == want.limit_grad_norm


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
    want, points = _per_step_orbit(dom, seed, max_iters, 1e-10)
    got = iterate_orbit(dom, seed.ambient, max_iters=max_iters, tol=1e-10)
    assert want.status in ("converged", "max_iterations") and len(want.points) > 50
    _assert_same_record(got, want)
    assert got.points[0].tobytes() == seed.ambient.tobytes()
    # the charts of the iterates, taken from the rows in one batch, are those the scalar steps hold
    assert np.array_equal(dom.core.chart_from_ambient(got.points[1:]), [p.chart for p in points[1:]])


def test_orbit_records_one_array_per_step():
    # the bundled zonal_orbit seed takes 1,813 steps; a recorded (1, N) view
    # that kept its (N,) point alive until the rows were joined read 0.70 MB
    dom = zonal_domain()
    x0 = SPHERE.ambient_from_chart(np.array([np.pi / 4, 0.0]))
    iterate_orbit(dom, x0)
    tracemalloc.start()
    try:
        rec = iterate_orbit(dom, x0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rec.status == "converged" and len(rec.points) == 1814
    assert peak <= 0.5e6, peak


def test_orbit_max_iterations_matches_per_step_loop():
    dom = _BIT_DOMAINS["sphere"]
    seed = pt(SPHERE, 1.0, 0.0)
    got = iterate_orbit(dom, seed.ambient, max_iters=40, tol=1e-15)
    assert got.status == "max_iterations" and len(got.points) == 41
    _assert_same_record(got, _per_step_orbit(dom, seed, 40, 1e-15)[0])


def test_orbit_nonpositive_seed_matches_per_step_loop():
    dom = RadialDomain(SPHERE, ZonalLegendreField(SPHERE, 0.1, 0.5))
    seed = pt(SPHERE, np.pi / 2, 0.0)
    got = iterate_orbit(dom, seed.ambient)
    assert got.error_kind == "InadmissibleThickness" and got.points.shape == (0, 3)
    _assert_same_record(got, _per_step_orbit(dom, seed, 100_000, 1e-10)[0])


def test_orbit_takes_an_off_core_seed_as_given():
    # neither return_map nor the thickness check tests the seed against the core
    dom = _BIT_DOMAINS["sphere"]
    on = pt(SPHERE, 0.9, 0.4)
    seed = SurfacePoint(SPHERE, on.chart, on.ambient * (1.0 + 1e-9))
    got = iterate_orbit(dom, seed.ambient)
    assert got.status == "converged"
    _assert_same_record(got, _per_step_orbit(dom, seed, 100_000, 1e-10)[0])


def _inject_at_step(monkeypatch, k, make):
    """From the k-th map call on (counting from 1), return make(x, y) in
    place of the map's value y at x.  The seam is the plain step
    dynamics._map_step, which iterate_orbit and iterate_batch call and
    return_map_batch wraps, so every orbit entry's map calls pass it."""
    kernel, calls = dynamics._map_step, [0]

    def patched(dom, X):
        calls[0] += 1
        Y = kernel(dom, X)
        return make(X, Y) if calls[0] == k else Y

    monkeypatch.setattr(dynamics, "_map_step", patched)
    return calls


def _raise_miss(X, Y):
    raise NormalRayMissesCore("1 inward rays miss the core")


# d = 0.1 + 0.5 P2(w) is negative at the equator, d = 0.05 + 0.1 P2(w) is zero
# there; both are positive near the poles
_THIN_EQUATOR = RadialDomain(SPHERE, ZonalLegendreField(SPHERE, 0.1, 0.5))
_ZERO_EQUATOR = RadialDomain(SPHERE, ZonalLegendreField(SPHERE, 0.05, 0.1))


def _equator(X, Y):
    return np.reshape([1.0, 0.0, 0.0], np.shape(Y))


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
    want = _per_step_orbit(dom, seed, 100_000, 1e-10)[0]
    calls[0] = 0
    got = iterate_orbit(dom, seed.ambient, tol=1e-10)
    assert want.status == "error" and want.error_kind == kind
    # the seed and the k - 1 iterates before the k-th map call's value
    assert len(want.points) == k
    _assert_same_record(got, want)


# ---------------------------------------------------------------------------
# one seed steps as its point
# ---------------------------------------------------------------------------

def _batch_rows(dom, X, max_iters, tol, inject=None):
    """Plain iteration of the seeds X as one batch: a test-local loop of
    return_map_batch over the indices still running, which records each
    seed's image rows.  inject = (i, k, make) puts make(x, y) in place of
    seed i's k-th image y.  Returns the rows of each seed, the limits, the
    steps, the converged flags and the kind of error a step raised (None
    if none did)."""
    X = np.array(X, dtype=float)
    rows = [[] for _ in X]
    steps, converged = np.zeros(len(X), dtype=int), np.zeros(len(X), dtype=bool)
    active, raised = np.arange(len(X)), None
    try:
        for _ in range(max_iters):
            if not active.size:
                break
            Y = return_map_batch(dom, X[active])
            for j, y in zip(active, Y):
                if inject is not None and (j, steps[j] + 1) == inject[:2]:
                    y[:] = inject[2](X[j], y)
                rows[j].append(y.copy())
            disp = np.linalg.norm(Y - X[active], axis=-1)
            X[active] = Y
            steps[active] += 1
            done = disp < tol
            converged[active[done]] = True
            active = active[~done]
    except ShellmapError as exc:
        raised = type(exc).__name__
    return rows, X, steps, converged, raised


def _spy_step_shapes(monkeypatch):
    """The shape of every array the plain step _map_step is called on."""
    step, shapes = dynamics._map_step, []

    def spy(dom, X):
        shapes.append(np.shape(X))
        return step(dom, X)

    monkeypatch.setattr(dynamics, "_map_step", spy)
    return shapes


@pytest.mark.parametrize("kind, max_iters", [("circle", 100_000), ("sphere", 100_000), ("ellipsoid", 600)])
def test_one_seed_steps_as_its_point_and_equals_its_row_in_a_batch_of_50(kind, max_iters, monkeypatch):
    # iterate_orbit and a one-seed iterate_batch step the seed as its point
    # (N,); a batch of 50 steps it as one of its rows.  Every recorded row, the
    # limit, the steps and the flag are the same bytes; the ellipsoid's cut
    # leaves some seeds running, and a seed at a critical point stops at once
    dom = _BIT_DOMAINS[kind]
    core = dom.core
    critical = core.axes * dom.field.axis if core.dim == 3 else core.ambient_from_chart([0.0])
    X = np.concatenate([core.ambient_from_chart(fibonacci_chart_grid(core, 49)), [critical]])
    rows, limits, steps, converged, raised = _batch_rows(dom, X, max_iters, 1e-10)
    assert raised is None and converged.any() and len(np.unique(steps)) > (1 if max_iters < 100_000 else 10)
    batch = iterate_batch(dom, X, max_iters=max_iters, tol=1e-10)
    assert batch.limits.tobytes() == limits.tobytes() and np.array_equal(batch.steps, steps)
    shapes = _spy_step_shapes(monkeypatch)
    for i in [*np.flatnonzero(converged)[[0, -1]], *np.flatnonzero(~converged)[:1]]:
        rec = iterate_orbit(dom, X[i], max_iters=max_iters, tol=1e-10)
        one = iterate_batch(dom, X[i:i + 1], max_iters=max_iters, tol=1e-10)
        assert rec.points.tobytes() == np.concatenate([X[i:i + 1], rows[i]]).tobytes()
        assert rec.status == ("converged" if converged[i] else "max_iterations")
        assert one.limits.tobytes() == limits[i:i + 1].tobytes()
        assert (one.steps[0], one.converged[0]) == (steps[i], converged[i])
    assert set(shapes) == {(core.dim,)}


# fields negative about their equators and positive about their poles, so
# that an image set to the point of least d has d <= 0
_THIN_DOMAINS = {
    "circle": RadialDomain(CIRCLE, Fourier2DField(CIRCLE, 0.1, [(2, 0.5)])),
    "sphere": _THIN_EQUATOR,
    "ellipsoid": RadialDomain(_TILTED, ZonalLegendreField(_TILTED, 0.1, 0.5, axis=(0.3, 0.5, 0.8))),
}


@pytest.mark.parametrize("error", ["OffSurface", "InadmissibleThickness", "NormalRayMissesCore"])
@pytest.mark.parametrize("kind", sorted(_THIN_DOMAINS))
def test_one_seed_record_ends_in_its_error_as_its_row_in_a_batch_of_50(kind, error, monkeypatch):
    # seed 7's 5th image is set off the core, to a point of d < 0 or to nan,
    # alone and as a row of a batch of 50.  The record keeps the batch's rows
    # up to the first that fails its check; the map raises on the image after
    # a point of d < 0 or a nan, in the batch and for the seed alone
    dom = _THIN_DOMAINS[kind]
    core = dom.core
    P = core.ambient_from_chart(fibonacci_chart_grid(core, 400))
    d = dom.field.ambient_value(P)
    X, low = P[d > 0.2][:50], P[np.argmin(d)]
    assert len(X) == 50 and dom.field.ambient_value(low) < 0.0
    make = {"OffSurface": lambda x, y: y * (1.0 + 1e-9),
            "InadmissibleThickness": lambda x, y: np.reshape(low, np.shape(y)),
            "NormalRayMissesCore": lambda x, y: np.full_like(y, np.nan)}[error]
    i, k = 7, 5
    rows, _, _, _, raised = _batch_rows(dom, X, 100, 1e-10, inject=(i, k, make))
    assert raised == (None if error == "OffSurface" else error)
    calls = _inject_at_step(monkeypatch, k, make)
    rec = iterate_orbit(dom, X[i], max_iters=100, tol=1e-10)
    assert (rec.status, rec.error_kind) == ("error", error)
    # a nan row is neither off the core nor of d <= 0 by its checks: the miss
    # it gives ends the record after it
    want = np.concatenate([X[i:i + 1], rows[i]])[:k + (error == "NormalRayMissesCore")]
    assert rec.points.tobytes() == want.tobytes()
    assert rec.thickness_values.tobytes() == dom.field.ambient_value(want).tobytes()
    if error != "OffSurface":
        calls[0] = 0
        with pytest.raises(ShellmapError) as err:
            iterate_batch(dom, X[i:i + 1], max_iters=100, tol=1e-10)
        assert type(err.value).__name__ == error


@pytest.mark.parametrize("d, error, message", [
    (0.0, InadmissibleThickness, _NONPOSITIVE),
    (-1e-300, InadmissibleThickness, _NONPOSITIVE),
    (np.nan, NormalRayMissesCore, "1 inward rays miss the core, 1 of them from rows that are not finite"),
], ids=["zero", "tiny_negative", "nan"])
def test_row_stage_at_a_point_checks_its_thickness_as_a_one_row_batch(d, error, message):
    # a point's d is a numpy scalar, tested by one comparison; a nan d passes
    # it and reaches the miss count, as on rows
    x = SPHERE.ambient_from_chart(np.array([0.6, 0.3]))
    g = 0.1 * tangent_part(SPHERE.normal(x[None]), np.array([[0.3, -0.2, 0.5]]))
    for args in ((x, np.float64(d), g[0]), (x[None], np.array([d]), g)):
        with pytest.raises(error) as err:
            dynamics._return_map_rows(SPHERE, *args)
        assert str(err.value) == message


_BIG = 1.7e308  # three of them sum to inf


@pytest.mark.parametrize("image", [
    [np.inf, 0.0, 0.0], [0.0, -np.inf, 0.0], [0.0, 0.0, np.nan],
    [_BIG, _BIG, _BIG], [-_BIG, -_BIG, -_BIG], [_BIG, -_BIG, _BIG],
], ids=["inf", "minus_inf", "nan", "big", "minus_big", "mixed_big"])
def test_row_stage_at_a_point_checks_its_image_as_a_one_row_batch(image, monkeypatch):
    # the leg's image is injected; a point's image is checked component by
    # component, so a finite one near the largest float passes as in a one-row
    # batch, and one that is not finite raises the one-row batch's miss
    monkeypatch.setattr(dynamics, "_return_leg_rows", lambda core, X, d, G: np.reshape(image, np.shape(X)))
    x = SPHERE.ambient_from_chart(np.array([0.6, 0.3]))
    g = 0.1 * tangent_part(SPHERE.normal(x[None]), np.array([[0.3, -0.2, 0.5]]))
    outcomes = []
    for args in ((x, np.float64(0.2), g[0]), (x[None], np.array([0.2]), g)):
        try:
            outcomes.append(np.reshape(dynamics._return_map_rows(SPHERE, *args), -1).tobytes())
        except ShellmapError as err:
            outcomes.append((type(err), str(err)))
    assert outcomes[0] == outcomes[1]
    miss = (NormalRayMissesCore, "1 inward rays miss the core")
    assert outcomes[0] == (np.array(image).tobytes() if np.isfinite(image).all() else miss)


def test_the_bundled_orbit_steps_its_point(tmp_path, monkeypatch):
    # the seam: the bundled zonal_orbit seed's 1,813 plain steps each map the
    # point (3,), not a (1, 3) row, and each image owns its data, so the
    # orbit record keeps it uncopied
    shapes, owners = _spy_step_shapes(monkeypatch), []
    step = dynamics._map_step

    def spy(dom, X):
        Y = step(dom, X)
        owners.append(Y.base is None)
        return Y

    monkeypatch.setattr(dynamics, "_map_step", spy)
    run_scenario(parse_scenario_text(load_bundled("zonal_orbit")), out_dir=tmp_path)
    assert len(shapes) == 1813 and set(shapes) == {(3,)}
    assert len(owners) == 1813 and all(owners)
