"""Thickness fields: values, surface gradients, surface Hessians."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shellmap import (
    ConstantField,
    ConvexCore,
    Fourier2DField,
    InadmissibleThickness,
    ScaledField,
    SumField,
    SurfacePoint,
    ZonalLegendreField,
    ZonalProfileField,
    frame_at,
    retract,
)
from shellmap.surfaces import frames_batch

SPHERE = ConvexCore.sphere(1.0)
CIRCLE = ConvexCore.circle(1.0)
ELLIPSOID = ConvexCore.ellipsoid(2.0, 1.0, 1.0)
TILTED_CORE = ConvexCore.ellipsoid(2.0, 1.0, 0.5)


def pt(core, *chart):
    return SurfacePoint.from_chart(core, *chart)


def random_points(core, n, seed=0):
    rng = np.random.default_rng(seed)
    if core.dim == 2:
        charts = rng.uniform(0, 2 * np.pi, size=(n, 1))
    else:
        charts = np.stack(
            [np.arccos(rng.uniform(-0.97, 0.97, size=n)), rng.uniform(0, 2 * np.pi, size=n)],
            axis=-1,
        )
    return [SurfacePoint.from_chart(core, ch) for ch in charts]


# ---------------------------------------------------------------------------
# values
# ---------------------------------------------------------------------------

def test_constant_field_value():
    fld = ConstantField(SPHERE, 0.5)
    assert fld.eval(pt(SPHERE, 1.234, 0.7)) == 0.5


def test_zonal_value_at_pole():
    fld = ZonalLegendreField(SPHERE, 0.5, 0.01)
    assert abs(fld.eval(pt(SPHERE, 0.0, 0.0)) - 0.51) < 1e-15
    assert abs(fld.eval(pt(SPHERE, np.pi, 0.0)) - 0.51) < 1e-15


def test_zonal_value_at_equator():
    fld = ZonalLegendreField(SPHERE, 0.5, 0.01)
    assert abs(fld.eval(pt(SPHERE, np.pi / 2, 0.3)) - 0.495) < 1e-15


def test_nonpositive_value_raises():
    fld = ZonalLegendreField(SPHERE, 0.1, 0.5)
    with pytest.raises(InadmissibleThickness):
        fld.eval(pt(SPHERE, np.pi / 2, 0.0))  # 0.1 - 0.25 < 0


def test_positivity_validation_grid():
    ok, mn, _ = ZonalLegendreField(SPHERE, 0.5, 0.01).check_positivity(10000)
    assert ok and mn > 0.49
    ok2, mn2, argmin = ZonalLegendreField(SPHERE, 0.1, 0.5).check_positivity(10000)
    assert not ok2 and mn2 < 0
    assert abs(argmin[0] - np.pi / 2) < 0.05  # violation sits at the equator


def test_field_rejects_foreign_point():
    fld = ZonalLegendreField(SPHERE, 0.5, 0.01)
    with pytest.raises(ValueError):
        fld.eval(pt(ELLIPSOID, 0.5, 0.5))


def test_zonal_requires_3d_core():
    with pytest.raises(ValueError):
        ZonalLegendreField(CIRCLE, 0.5, 0.01)
    with pytest.raises(ValueError):
        Fourier2DField(SPHERE, 0.5, [(2, 0.01)])


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------

def test_constant_gradient_zero():
    fld = ConstantField(SPHERE, 0.5)
    p = pt(SPHERE, 1.0, 2.0)
    assert np.allclose(fld.surface_gradient(p, frame_at(SPHERE, p)), 0.0)


def test_zonal_gradient_formula():
    # frame component along theta is -3 eps cos(theta) sin(theta); phi component 0
    fld = ZonalLegendreField(SPHERE, 0.5, 0.01)
    for theta in (0.4, 1.0, 2.2):
        p = pt(SPHERE, theta, 0.9)
        g = fld.surface_gradient(p, frame_at(SPHERE, p))
        assert abs(g[0] - (-3 * 0.01 * np.cos(theta) * np.sin(theta))) < 1e-14
        assert abs(g[1]) < 1e-15


def test_zonal_gradient_vanishes_on_critical_set():
    fld = ZonalLegendreField(SPHERE, 0.5, 0.01)
    for theta in (0.0, np.pi / 2, np.pi):
        p = pt(SPHERE, theta, 1.1)
        assert np.linalg.norm(fld.surface_gradient(p, frame_at(SPHERE, p))) < 1e-14


def _fd_gradient_oracle(fld, p, frame, h):
    """Central difference of eval along retraction curves."""
    core = fld.core
    out = []
    for v in frame.vectors:
        fp = fld.ambient_value(retract(core, p, v, h).ambient)
        fm = fld.ambient_value(retract(core, p, v, -h).ambient)
        out.append((fp - fm) / (2 * h))
    return np.array(out)


@pytest.mark.parametrize(
    "core,make",
    [
        (SPHERE, lambda c: ZonalLegendreField(c, 0.5, 0.03)),
        (ELLIPSOID, lambda c: ZonalLegendreField(c, 0.3, 0.02)),
        (CIRCLE, lambda c: Fourier2DField(c, 0.5, [(2, 0.01), (3, 0.004)])),
    ],
    ids=["sphere-zonal", "ellipsoid-zonal", "circle-fourier"],
)
def test_gradient_matches_fd_oracle_with_quadratic_convergence(core, make):
    fld = make(core)
    p = random_points(core, 1, seed=3)[0]
    frame = frame_at(core, p)
    exact = fld.surface_gradient(p, frame)
    hs = [1e-2, 3e-3, 1e-3, 3e-4]
    errs = [float(np.linalg.norm(_fd_gradient_oracle(fld, p, frame, h) - exact)) for h in hs]
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert 1.8 < slope < 2.2


def test_scaled_field_exact():
    inner = ZonalLegendreField(SPHERE, 0.5, 0.01)
    fld = ScaledField(2.0, inner)
    for p in random_points(SPHERE, 20, seed=4):
        frame = frame_at(SPHERE, p)
        assert fld.eval(p) == 2.0 * inner.eval(p)
        assert np.array_equal(fld.surface_gradient(p, frame), 2.0 * inner.surface_gradient(p, frame))


def test_sum_field_adds_parts():
    a = ZonalLegendreField(SPHERE, 0.5, 0.01)
    b = ZonalLegendreField(SPHERE, 0.0, 0.02, axis=(1.0, 0.0, 0.0))
    s = SumField([a, b])
    for p in random_points(SPHERE, 10, seed=5):
        assert abs(s.value_unchecked(p) - (a.value_unchecked(p) + b.value_unchecked(p))) < 1e-15


def test_rotated_axis_moves_critical_set():
    fld = ZonalLegendreField(SPHERE, 0.5, 0.01, axis=(1.0, 0.0, 0.0))
    p = pt(SPHERE, np.pi / 2, 0.0)  # ambient (1,0,0): pole of the rotated field
    assert np.linalg.norm(fld.surface_gradient(p, frame_at(SPHERE, p))) < 1e-14
    assert abs(fld.eval(p) - 0.51) < 1e-15


# ---------------------------------------------------------------------------
# hessians
# ---------------------------------------------------------------------------

def test_zonal_hessian_at_pole():
    fld = ZonalLegendreField(SPHERE, 0.5, 0.01)
    p = pt(SPHERE, 0.0, 0.0)
    H = fld.surface_hessian(p, frame_at(SPHERE, p))
    assert np.allclose(H, -3 * 0.01 * np.eye(2), atol=1e-12)


def test_zonal_hessian_at_equator():
    fld = ZonalLegendreField(SPHERE, 0.5, 0.01)
    p = pt(SPHERE, np.pi / 2, 0.0)
    H = fld.surface_hessian(p, frame_at(SPHERE, p))
    assert np.allclose(H, 3 * 0.01 * np.diag([1.0, 0.0]), atol=1e-12)


def test_constant_hessian_zero():
    fld = ConstantField(SPHERE, 0.5)
    p = pt(SPHERE, 0.8, 0.3)
    assert np.allclose(fld.surface_hessian(p, frame_at(SPHERE, p)), 0.0)


def test_hessian_symmetric():
    fld = ZonalLegendreField(ELLIPSOID, 0.3, 0.02)
    for p in random_points(ELLIPSOID, 25, seed=6):
        H = fld.surface_hessian(p, frame_at(ELLIPSOID, p))
        assert np.abs(H - H.T).max() < 1e-10


def _fd_hessian_of_gradient(fld, p, frame, h):
    """Symmetrized finite difference of the surface gradient (oracle).

    Gradient components are re-expressed in parallel-ish transported frames
    by projecting onto the base frame; O(h) accuracy is all that is claimed.
    """
    core = fld.core
    k = core.dim - 1
    H = np.zeros((k, k))
    for i, v in enumerate(frame.vectors):
        qp = retract(core, p, v, h)
        qm = retract(core, p, v, -h)
        gp = frame.vectors @ fld.surface_gradient_ambient(qp)
        gm = frame.vectors @ fld.surface_gradient_ambient(qm)
        H[:, i] = (gp - gm) / (2 * h)
    return 0.5 * (H + H.T)


@pytest.mark.parametrize(
    "core,make",
    [
        (SPHERE, lambda c: ZonalLegendreField(c, 0.5, 0.03)),
        (ELLIPSOID, lambda c: ZonalLegendreField(c, 0.3, 0.02)),
        (CIRCLE, lambda c: Fourier2DField(c, 0.5, [(2, 0.01)])),
    ],
    ids=["sphere", "ellipsoid", "circle"],
)
def test_hessian_close_to_fd_of_gradient(core, make):
    fld = make(core)
    h = 1e-5
    for p in random_points(core, 100, seed=7):
        frame = frame_at(core, p)
        H = fld.surface_hessian(p, frame)
        Hfd = _fd_hessian_of_gradient(fld, p, frame, h)
        assert np.abs(H - Hfd).max() < 5e-2 * max(1.0, np.abs(H).max())


def _p2_profile(core, d0, eps):
    """eps * P2 written out as a generic profile of w."""
    return ZonalProfileField(core, d0, g=lambda w: eps * (1.5 * w * w - 0.5),
                             dg=lambda w: 3.0 * eps * w, d2g=lambda w: np.full_like(w, 3.0 * eps))


def test_profile_field_matches_legendre():
    lg = ZonalLegendreField(SPHERE, 0.5, 0.01)
    pr = _p2_profile(SPHERE, 0.5, 0.01)
    for p in random_points(SPHERE, 20, seed=8):
        frame = frame_at(SPHERE, p)
        assert abs(lg.eval(p) - pr.eval(p)) < 1e-14
        assert np.allclose(lg.surface_gradient(p, frame), pr.surface_gradient(p, frame), atol=1e-12)
        assert np.allclose(lg.surface_hessian(p, frame), pr.surface_hessian(p, frame), atol=1e-10)


@pytest.mark.parametrize("theta", [0.0, 1e-6, 5e-5, 1.1e-4, 1e-3, 0.3])
def test_profile_field_hessian_is_closed_form_up_to_the_pole(theta):
    lg = ZonalLegendreField(SPHERE, 0.5, 0.01)
    pr = _p2_profile(SPHERE, 0.5, 0.01)
    for p in (pt(SPHERE, theta, 0.3), pt(SPHERE, np.pi - theta, 1.0)):
        frame = frame_at(SPHERE, p)
        assert np.abs(pr.surface_hessian(p, frame) - lg.surface_hessian(p, frame)).max() <= 1e-15
    if theta == 0.0:
        assert np.abs(pr.surface_hessian(p, frame) + 0.03 * np.eye(2)).max() <= 1e-15
        assert np.linalg.norm(pr.surface_gradient(p, frame)) < 1e-15


def _axis_poles(core, axis):
    """The two core points where w = <x/s, axis> is +-1."""
    u = np.asarray(axis, dtype=float) / np.linalg.norm(axis)
    return [SurfacePoint.from_ambient(core, s * core.axes * u) for s in (1.0, -1.0)]


def test_legendre_field_ambient_calculus_is_the_p2_closed_form():
    core, d0, eps, axis = TILTED_CORE, 0.25, 0.02, (0.3, 0.5, 0.8)
    fld = ZonalLegendreField(core, d0, eps, axis=axis)
    gw = np.asarray(axis) / np.linalg.norm(axis) / core.axes
    X = np.array([p.ambient for p in random_points(core, 30, seed=19) + _axis_poles(core, axis)])
    w = np.einsum("ij,j->i", X, gw)
    assert np.array_equal(fld.ambient_value(X), d0 + eps * (0.5 * (3.0 * w * w - 1.0)))
    assert np.array_equal(fld.ambient_grad(X), (3.0 * eps * w)[:, None] * gw)
    assert np.array_equal(fld.ambient_hess(X), np.broadcast_to(3.0 * eps * np.outer(gw, gw), (32, 3, 3)))


@pytest.mark.parametrize("core,d0,axis", [
    (SPHERE, 0.5, (0.0, 0.0, 1.0)),
    (TILTED_CORE, 0.25, (0.3, 0.5, 0.8)),
], ids=["sphere", "tilted_ellipsoid"])
def test_profile_field_surface_hessian_matches_fd_oracles(core, d0, axis):
    # g = 0.01 P4(w), with its calculus closed form at the axis poles too
    fld = ZonalProfileField(core, d0, g=lambda w: 0.01 * (35.0 * w**4 - 30.0 * w**2 + 3.0) / 8.0,
                            dg=lambda w: 0.01 * (35.0 * w**3 - 15.0 * w) / 2.0,
                            d2g=lambda w: 0.01 * (105.0 * w**2 - 15.0) / 2.0, axis=axis)
    poles = _axis_poles(core, axis)
    for p in random_points(core, 10, seed=17) + poles:
        frame = frame_at(core, p)
        H = fld.surface_hessian(p, frame)
        assert np.abs(H - _fd_hessian_reference(fld, p, frame, 1e-4)).max() < 1e-6
        assert np.abs(H - _fd_hessian_of_gradient(fld, p, frame, 1e-6)).max() < 1e-9
    for p in poles:
        assert np.linalg.norm(fld.surface_gradient(p, frame_at(core, p))) < 1e-15


def test_fourier_gradient_and_hessian_formulas():
    fld = Fourier2DField(CIRCLE, 0.5, [(2, 0.01)])
    theta = 0.8
    p = pt(CIRCLE, theta)
    frame = frame_at(CIRCLE, p)
    g = fld.surface_gradient(p, frame)
    assert abs(g[0] - (-0.02 * np.sin(2 * theta))) < 1e-13
    H = fld.surface_hessian(p, frame)
    # on the unit circle: second derivative along arclength plus the
    # curvature correction (grad D . nu) S vanishes at... compare with oracle
    Hfd = _fd_hessian_of_gradient(fld, p, frame, 1e-6)
    assert abs(H[0, 0] - Hfd[0, 0]) < 1e-6


def _fd_hessian_reference(fld, p, frame, h):
    """Second differences of the value along retraction curves, polarized:
    one scalar retract per stencil point."""
    f0 = fld.ambient_value(p.ambient)

    def dd(v):
        fp = fld.ambient_value(retract(fld.core, p, v, h).ambient)
        fm = fld.ambient_value(retract(fld.core, p, v, -h).ambient)
        return (fp - 2.0 * f0 + fm) / (h * h)

    E = frame.vectors
    H = np.empty((E.shape[0], E.shape[0]))
    for i in range(E.shape[0]):
        H[i, i] = dd(E[i])
        for j in range(i + 1, E.shape[0]):
            H[i, j] = H[j, i] = 0.25 * (dd(E[i] + E[j]) - dd(E[i] - E[j]))
    return H


@pytest.mark.parametrize("fld", [
    ConstantField(SPHERE, 0.5),
    ZonalLegendreField(ELLIPSOID, 0.3, 0.02, axis=(0.3, 0.5, 0.8)),
    _p2_profile(SPHERE, 0.5, 0.01),
    Fourier2DField(CIRCLE, 0.5, [(2, 0.05), (3, 0.02)]),
    ScaledField(2.5, _p2_profile(SPHERE, 0.5, 0.01)),
    SumField([ZonalLegendreField(SPHERE, 0.3, 0.01), _p2_profile(SPHERE, 0.2, 0.02)]),
], ids=["constant", "zonal_legendre", "zonal_profile", "fourier", "scaled", "sum"])
def test_ambient_hess_is_batched_with_rows_equal_to_single_point_calls(fld):
    core = fld.core
    X = np.array([p.ambient for p in random_points(core, 12, seed=31)])
    if core.dim == 3:  # two points within 5e-5 of the chart poles
        X = np.concatenate([X, core.ambient_from_chart([[5e-5, 0.3], [np.pi - 2e-5, 1.0]])])
    H = fld.ambient_hess(X)
    assert H.shape == (X.shape[0], core.dim, core.dim)
    assert np.isfinite(H).all()
    for x, row in zip(X, H):
        single = fld.ambient_hess(x)
        assert single.shape == (core.dim, core.dim)
        assert np.array_equal(row, single)


_ACTION_FIELDS = {
    "sphere": ZonalLegendreField(SPHERE, 0.5, 0.05),
    "tilted_ellipsoid": ZonalLegendreField(TILTED_CORE, 0.25, 0.02, axis=(0.3, 0.5, 0.8)),
    "fourier_circle": Fourier2DField(CIRCLE, 0.5, [(2, 0.05), (3, 0.02)]),
    "zonal_profile": _p2_profile(SPHERE, 0.5, 0.01),
}
# the drawn point joins a mixed batch, two of whose points lie within 5e-5
# of the chart poles
_MIX_CHARTS = [(0.3, 0.2), (1.9, 4.0), (5e-5, 2.5), (np.pi - 3e-7, 0.4)]


@settings(max_examples=60, deadline=None)
@given(theta=st.floats(0.0, np.pi), phi=st.floats(0.0, 2 * np.pi),
       a=st.floats(-2.0, 2.0), b=st.floats(-2.0, 2.0),
       slot=st.integers(0, len(_MIX_CHARTS)), name=st.sampled_from(sorted(_ACTION_FIELDS)))
def test_hessian_action_rows_equal_batch_of_one(theta, phi, a, b, slot, name):
    fld = _ACTION_FIELDS[name]
    core = fld.core
    k = core.dim - 1
    charts = [ch[:k] for ch in _MIX_CHARTS]
    charts.insert(slot, (theta, phi)[:k])
    X = core.ambient_from_chart(np.array(charts))
    E = frames_batch(core, X)
    V = a * E[:, 0] + b * E[:, -1]
    HV = fld.hessian_action(X, V)
    assert HV.shape == X.shape and np.isfinite(HV).all()
    for i in range(X.shape[0]):
        assert np.array_equal(fld.hessian_action(X[i], V[i])[0], HV[i])


def test_surface_hessian_is_the_frame_matrix_of_hessian_action():
    for fld in (_ACTION_FIELDS["tilted_ellipsoid"], _ACTION_FIELDS["zonal_profile"]):
        for p in random_points(fld.core, 6, seed=13) + [pt(fld.core, 5e-5, 0.3)]:
            frame = frame_at(fld.core, p)
            E = frame.vectors
            H = E @ fld.hessian_action(np.broadcast_to(p.ambient, E.shape), E).T
            assert np.abs(fld.surface_hessian(p, frame) - H).max() <= 1e-12
