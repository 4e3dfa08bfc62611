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
    RadialDomain,
    ScaledField,
    SumField,
    SurfacePoint,
    ZonalLegendreField,
    ZonalProfileField,
    admissibility_check,
    fibonacci_chart_grid,
    frame_at,
    legendre_p2,
    retract,
    return_map,
    return_map_batch,
)
from shellmap.surfaces import frames_batch, retract_batch, shape_action_batch, tangent_part

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


def value(fld, p):
    """d(p) from the ambient extension."""
    return float(fld.ambient_value(p.ambient))


def hessian_at(fld, p, frame):
    """Hess d at p in the frame: surface_hessian_batch on a batch of one."""
    return fld.surface_hessian_batch(p.ambient[None], frame.vectors[None])[0]


def frame_gradient(fld, p, frame):
    """The surface gradient's components in the frame, e_i . grad D at p."""
    return frame.vectors @ fld.ambient_grad(p.ambient)


# ---------------------------------------------------------------------------
# values
# ---------------------------------------------------------------------------

def test_constant_field_value():
    fld = ConstantField(SPHERE, 0.5)
    assert value(fld, pt(SPHERE, 1.234, 0.7)) == 0.5


def test_zonal_value_at_pole():
    fld = ZonalLegendreField(SPHERE, 0.5, 0.01)
    assert abs(value(fld, pt(SPHERE, 0.0, 0.0)) - 0.51) < 1e-15
    assert abs(value(fld, pt(SPHERE, np.pi, 0.0)) - 0.51) < 1e-15


def test_zonal_value_at_equator():
    fld = ZonalLegendreField(SPHERE, 0.5, 0.01)
    assert abs(value(fld, pt(SPHERE, np.pi / 2, 0.3)) - 0.495) < 1e-15


def test_nonpositive_value_raises():
    fld = ZonalLegendreField(SPHERE, 0.1, 0.5)
    with pytest.raises(InadmissibleThickness):
        return_map_batch(RadialDomain(SPHERE, fld), pt(SPHERE, np.pi / 2, 0.0).ambient[None])  # 0.1 - 0.25 < 0


def test_positivity_validation_grid():
    good = admissibility_check(RadialDomain(SPHERE, ZonalLegendreField(SPHERE, 0.5, 0.01)), 10000)
    assert good.min_d > 0.49
    bad = admissibility_check(RadialDomain(SPHERE, ZonalLegendreField(SPHERE, 0.1, 0.5)), 10000)
    assert bad.min_d < 0
    argmin = bad.chart[np.argmin(bad.d_values)]
    assert abs(argmin[0] - np.pi / 2) < 0.05  # violation sits at the equator


def test_field_rejects_foreign_point():
    # the one scalar view that takes a SurfacePoint of the field's core
    dom = RadialDomain(SPHERE, ZonalLegendreField(SPHERE, 0.5, 0.01))
    with pytest.raises(ValueError, match="different core"):
        return_map(dom, pt(ELLIPSOID, 0.5, 0.5))


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
    assert np.allclose(frame_gradient(fld, p, frame_at(SPHERE, p)), 0.0)


def test_zonal_gradient_formula():
    # frame component along theta is -3 eps cos(theta) sin(theta); phi component 0
    fld = ZonalLegendreField(SPHERE, 0.5, 0.01)
    for theta in (0.4, 1.0, 2.2):
        p = pt(SPHERE, theta, 0.9)
        g = frame_gradient(fld, p, frame_at(SPHERE, p))
        assert abs(g[0] - (-3 * 0.01 * np.cos(theta) * np.sin(theta))) < 1e-14
        assert abs(g[1]) < 1e-15


def test_zonal_gradient_vanishes_on_critical_set():
    fld = ZonalLegendreField(SPHERE, 0.5, 0.01)
    for theta in (0.0, np.pi / 2, np.pi):
        p = pt(SPHERE, theta, 1.1)
        assert np.linalg.norm(frame_gradient(fld, p, frame_at(SPHERE, p))) < 1e-14


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
    exact = frame_gradient(fld, p, frame)
    hs = [1e-2, 3e-3, 1e-3, 3e-4]
    errs = [float(np.linalg.norm(_fd_gradient_oracle(fld, p, frame, h) - exact)) for h in hs]
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert 1.8 < slope < 2.2


def test_scaled_field_exact():
    inner = ZonalLegendreField(SPHERE, 0.5, 0.01)
    fld = ScaledField(2.0, inner)
    for p in random_points(SPHERE, 20, seed=4):
        frame = frame_at(SPHERE, p)
        assert value(fld, p) == 2.0 * value(inner, p)
        assert np.array_equal(frame_gradient(fld, p, frame), 2.0 * frame_gradient(inner, p, frame))


def test_sum_field_adds_parts():
    a = ZonalLegendreField(SPHERE, 0.5, 0.01)
    b = ZonalLegendreField(SPHERE, 0.0, 0.02, axis=(1.0, 0.0, 0.0))
    s = SumField([a, b])
    for p in random_points(SPHERE, 10, seed=5):
        x = p.ambient
        assert abs(s.ambient_value(x) - (a.ambient_value(x) + b.ambient_value(x))) < 1e-15


def test_rotated_axis_moves_critical_set():
    fld = ZonalLegendreField(SPHERE, 0.5, 0.01, axis=(1.0, 0.0, 0.0))
    p = pt(SPHERE, np.pi / 2, 0.0)  # ambient (1,0,0): pole of the rotated field
    assert np.linalg.norm(frame_gradient(fld, p, frame_at(SPHERE, p))) < 1e-14
    assert abs(value(fld, p) - 0.51) < 1e-15


@pytest.mark.parametrize("axis", [(0.0, 0.0, 0.0), (np.nan, 0.0, 1.0), (np.inf, 0.0, 1.0)])
def test_zonal_axis_must_be_finite_and_nonzero(axis):
    with pytest.raises(ValueError, match="axis"):
        ZonalLegendreField(SPHERE, 0.5, 0.01, axis=axis)


# ---------------------------------------------------------------------------
# hessians
# ---------------------------------------------------------------------------

def test_zonal_hessian_at_pole():
    fld = ZonalLegendreField(SPHERE, 0.5, 0.01)
    p = pt(SPHERE, 0.0, 0.0)
    H = hessian_at(fld, p, frame_at(SPHERE, p))
    assert np.allclose(H, -3 * 0.01 * np.eye(2), atol=1e-12)


def test_zonal_hessian_at_equator():
    fld = ZonalLegendreField(SPHERE, 0.5, 0.01)
    p = pt(SPHERE, np.pi / 2, 0.0)
    H = hessian_at(fld, p, frame_at(SPHERE, p))
    assert np.allclose(H, 3 * 0.01 * np.diag([1.0, 0.0]), atol=1e-12)


def test_constant_hessian_zero():
    fld = ConstantField(SPHERE, 0.5)
    p = pt(SPHERE, 0.8, 0.3)
    assert np.allclose(hessian_at(fld, p, frame_at(SPHERE, p)), 0.0)


def test_hessian_symmetric():
    fld = ZonalLegendreField(ELLIPSOID, 0.3, 0.02)
    for p in random_points(ELLIPSOID, 25, seed=6):
        H = hessian_at(fld, p, frame_at(ELLIPSOID, p))
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
        gp = frame.vectors @ fld.tangent_gradient(qp.ambient[None])[0]
        gm = frame.vectors @ fld.tangent_gradient(qm.ambient[None])[0]
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
        H = hessian_at(fld, p, frame)
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
        assert abs(value(lg, p) - value(pr, p)) < 1e-14
        assert np.allclose(frame_gradient(lg, p, frame), frame_gradient(pr, p, frame), atol=1e-12)
        assert np.allclose(hessian_at(lg, p, frame), hessian_at(pr, p, frame), atol=1e-10)


@pytest.mark.parametrize("theta", [0.0, 1e-6, 5e-5, 1.1e-4, 1e-3, 0.3])
def test_profile_field_hessian_is_closed_form_up_to_the_pole(theta):
    lg = ZonalLegendreField(SPHERE, 0.5, 0.01)
    pr = _p2_profile(SPHERE, 0.5, 0.01)
    for p in (pt(SPHERE, theta, 0.3), pt(SPHERE, np.pi - theta, 1.0)):
        frame = frame_at(SPHERE, p)
        assert np.abs(hessian_at(pr, p, frame) - hessian_at(lg, p, frame)).max() <= 1e-15
    if theta == 0.0:
        assert np.abs(hessian_at(pr, p, frame) + 0.03 * np.eye(2)).max() <= 1e-15
        assert np.linalg.norm(frame_gradient(pr, p, frame)) < 1e-15


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
        H = hessian_at(fld, p, frame)
        assert np.abs(H - _fd_hessian_reference(fld, p, frame, 1e-4)).max() < 1e-6
        assert np.abs(H - _fd_hessian_of_gradient(fld, p, frame, 1e-6)).max() < 1e-9
    for p in poles:
        assert np.linalg.norm(frame_gradient(fld, p, frame_at(core, p))) < 1e-15


def test_fourier_gradient_and_hessian_formulas():
    fld = Fourier2DField(CIRCLE, 0.5, [(2, 0.01)])
    theta = 0.8
    p = pt(CIRCLE, theta)
    frame = frame_at(CIRCLE, p)
    g = frame_gradient(fld, p, frame)
    assert abs(g[0] - (-0.02 * np.sin(2 * theta))) < 1e-13
    H = hessian_at(fld, p, frame)
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



@pytest.mark.parametrize("fld", [
    ConstantField(SPHERE, 0.5),
    ZonalLegendreField(TILTED_CORE, 0.25, 0.02, axis=(0.3, 0.5, 0.8)),
    _p2_profile(SPHERE, 0.5, 0.01),
    Fourier2DField(CIRCLE, 0.5, [(2, 0.05), (3, 0.02)]),
    ScaledField(2.5, _p2_profile(SPHERE, 0.5, 0.01)),
    SumField([ZonalLegendreField(SPHERE, 0.3, 0.01), _p2_profile(SPHERE, 0.2, 0.02)]),
], ids=["constant", "zonal_legendre", "zonal_profile", "fourier", "scaled", "sum"])
def test_ambient_value_grad_is_value_and_grad_bit_for_bit(fld):
    # the kernel's one field call: rows, a single point and a stack of rows
    X = np.array([p.ambient for p in random_points(fld.core, 40, seed=37)])
    for Z in (X, X[3], X.reshape(4, 10, -1)):
        value, grad = fld.ambient_value_grad(Z)
        assert value.shape == Z.shape[:-1] and grad.shape == Z.shape
        assert np.array_equal(value, fld.ambient_value(Z))
        assert np.array_equal(grad, fld.ambient_grad(Z))


@pytest.mark.parametrize("fld", [
    ZonalLegendreField(TILTED_CORE, 0.25, 0.02, axis=(0.3, 0.5, 0.8)),
    _p2_profile(SPHERE, 0.5, 0.01),
], ids=["zonal_legendre", "zonal_profile"])
def test_zonal_gradient_by_columns_is_the_broadcast_product_bit_for_bit(fld):
    # ambient_grad writes the gradient column by column, G[..., j] = g'(w) grad_j w,
    # and ambient_value_grad as one outer product of grad w and g'(w); the bytes
    # of both are those of the broadcast g'(w)[..., None] * grad w
    X = np.array([p.ambient for p in random_points(fld.core, 5000, seed=41)])
    wide = np.zeros((len(X), 7))
    wide[:, 2:5] = X
    for Z in (X[17], X[:0], X[:2], X[:739], X, np.asfortranarray(X[:739]),
              X[::3], wide[:, 2:5], X[:1000].reshape(10, 100, 3)):
        want = fld.dg(fld._w(Z))[..., None] * fld._gw
        for G in (fld.ambient_grad(Z), fld.ambient_value_grad(Z)[1]):
            assert G.shape == Z.shape and G.tobytes() == want.tobytes()


_LAYOUT_FIELDS = {
    "zonal": ZonalLegendreField(TILTED_CORE, 0.25, 0.02, axis=(0.3, 0.5, 0.8)),
    "two_axis_sum": SumField([ZonalLegendreField(SPHERE, 0.25, 0.02),
                              ZonalLegendreField(SPHERE, 0.25, 0.02, axis=(0.3, 0.5, 0.8))]),
    "scaled": ScaledField(2.5, _p2_profile(SPHERE, 0.5, 0.01)),
    "fourier": Fourier2DField(CIRCLE, 0.5, [(2, 0.05), (3, 0.02)]),
    "constant": ConstantField(TILTED_CORE, 0.25),
}


@pytest.mark.parametrize("n", [1, 2, 739, 5000])
@pytest.mark.parametrize("kind", sorted(_LAYOUT_FIELDS))
def test_value_grad_gradient_is_ambient_grad_in_any_input_layout(kind, n):
    # the kernel's field call may hand its gradient rows in another layout (the
    # zonal field gives the view of its component rows), but not other values;
    # ambient_grad itself stays C-ordered, as hessian_action's einsum needs
    fld = _LAYOUT_FIELDS[kind]
    X = np.array([p.ambient for p in random_points(fld.core, n, seed=n)])
    N = fld.core.dim
    wide = np.zeros((2 * n, N + 4))
    wide[::2, 2:2 + N] = X
    layouts = {"C": X, "F": np.asfortranarray(X), "strided": wide[::2, 2:2 + N],
               "column_sliced": np.ascontiguousarray(wide[::2])[:, 2:2 + N]}
    if n == 1:
        layouts["point"] = X[0]
    want_value, want_grad = fld.ambient_value(X), fld.ambient_grad(X)
    for name, Z in layouts.items():
        value, grad = fld.ambient_value_grad(Z)
        rows = fld.ambient_grad(Z)
        assert rows.flags.c_contiguous, name
        assert grad.shape == rows.shape == Z.shape and grad.tobytes() == rows.tobytes(), name
        assert value.tobytes() == np.reshape(want_value, np.shape(value)).tobytes(), name
        assert grad.tobytes() == want_grad.tobytes(), name


@pytest.mark.parametrize("layout", ["C", "F", "strided", "point"])
def test_zonal_w_sums_in_einsums_order(layout):
    # w is the column sum (x0 g0 + x2 g2) + x1 g1, einsum's order on C-ordered
    # rows, read from any layout; a numpy whose einsum sums in another order
    # fails here, and the bundled digests with it
    fld = _LAYOUT_FIELDS["zonal"]
    rng = np.random.default_rng(43)
    X = rng.standard_normal((2000, 3)) * np.exp(rng.uniform(-20.0, 20.0, (2000, 3)))
    want = np.einsum("ij,j->i", X, fld._gw)
    Z = {"C": X, "F": np.asfortranarray(X), "strided": np.repeat(X, 2, axis=0)[::2], "point": X[7]}[layout]
    got = fld._w(Z)
    assert np.asarray(got).tobytes() == (want[7] if layout == "point" else want).tobytes()


def test_zonal_field_at_a_point_is_scalar_arithmetic():
    # a point's components are read as numpy scalars, and P2 takes a float64
    # scalar as it is: no 0-d array is made, and the bits are the rows'
    fld = _LAYOUT_FIELDS["zonal"]
    X = np.array([p.ambient for p in random_points(fld.core, 5, seed=47)])
    w, value = fld._w(X[2]), fld.ambient_value(X[2])
    assert type(w) is np.float64 and type(value) is np.float64
    assert w == fld._w(X)[2] and value == fld.ambient_value(X)[2]
    assert type(legendre_p2(w)) is np.float64 and legendre_p2(w) == legendre_p2(np.array([w]))[0]
    assert legendre_p2(0.5) == legendre_p2([0.5])[0] == -0.125


_ROW_CALLS = {
    "normal": lambda dom, X, V, E: dom.core.normal(X),
    "tangent_part": lambda dom, X, V, E: tangent_part(dom.core.normal(X), V),
    "frames_batch": lambda dom, X, V, E: frames_batch(dom.core, X),
    "retract_batch": lambda dom, X, V, E: retract_batch(dom.core, X, 1e-3 * V),
    "shape_action_batch": lambda dom, X, V, E: shape_action_batch(dom.core, X, V),
    "ambient_value": lambda dom, X, V, E: dom.field.ambient_value(X),
    "ambient_grad": lambda dom, X, V, E: dom.field.ambient_grad(X),
    "tangent_gradient": lambda dom, X, V, E: dom.field.tangent_gradient(X),
    "hessian_action": lambda dom, X, V, E: dom.field.hessian_action(X, V),
    "surface_hessian_batch": lambda dom, X, V, E: dom.field.surface_hessian_batch(X, E),
    "return_map_batch": lambda dom, X, V, E: return_map_batch(dom, X),
}


@pytest.mark.parametrize("name", sorted(_ROW_CALLS))
def test_row_calls_give_the_same_bits_for_c_and_f_ordered_rows(name):
    # every row function reads Fortran-ordered rows (the orbit loop's working
    # rows) with the bits of C-ordered ones; hessian_action's einsums sum in
    # memory order, so it takes C-ordered copies
    fld = _LAYOUT_FIELDS["zonal"]
    dom = RadialDomain(fld.core, fld)
    X = fld.core.ambient_from_chart(fibonacci_chart_grid(fld.core, 5000))
    V = fld.tangent_gradient(X)
    E = frames_batch(fld.core, X)
    F = np.asfortranarray
    want = _ROW_CALLS[name](dom, X, V, E)
    got = _ROW_CALLS[name](dom, F(X), F(V), F(E))
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


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
            assert np.abs(hessian_at(fld, p, frame) - H).max() <= 1e-12
