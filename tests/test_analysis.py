"""Linearization, preconditioner, residual sweeps, fixed-point search."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shellmap import (
    CLASSICAL_STEP_SCALE,
    MEASURED_STEP_SCALE,
    BlackBoxMap,
    ConstantField,
    ConvexCore,
    Fourier2DField,
    InadmissibleThickness,
    NotAFixedPoint,
    RadialDomain,
    SurfacePoint,
    ZonalLegendreField,
    ZonalProfileField,
    classify_fixed_point,
    curvature_preconditioner,
    find_fixed_points,
    first_order_residual,
    fit_loglog,
    frame_at,
    linearize_analytic,
    linearize_fd,
    normal_expansion_residual,
    preconditioner_determinant,
    preconditioner_series_residual,
    radial_map,
    residual_sweep,
    retract,
    return_map,
    return_map_batch,
    second_order_residual,
    shape_operator_at,
    step_operator,
)
from shellmap import analysis
from shellmap import analysis
from shellmap.analysis import (
    LinearizationReport,
    expansion_residual_batch,
    finite_difference_jacobian_batch,
)
from shellmap.errors import CurvatureSingularity, OffSurface
from shellmap.surfaces import frames_batch

SPHERE = ConvexCore.sphere(1.0)
CIRCLE = ConvexCore.circle(1.0)
ELLIPSOID = ConvexCore.ellipsoid(2.0, 1.0, 1.0)

D0, EPS = 0.5, 0.01
A_EQ = 2 * (D0 - EPS / 2) / (1 + D0 - EPS / 2)          # 0.6622073...
A_POLE = 2 * (D0 + EPS) / (1 + D0 + EPS)


def zonal_domain(d0=D0, eps=EPS, core=SPHERE):
    return RadialDomain(core, ZonalLegendreField(core, d0, eps))


def pt(core, *chart):
    return SurfacePoint.from_chart(core, *chart)


# ---------------------------------------------------------------------------
# preconditioner / step operator
# ---------------------------------------------------------------------------

def test_preconditioner_sphere_constant():
    dom = RadialDomain(SPHERE, ConstantField(SPHERE, 0.5))
    A = curvature_preconditioner(dom, pt(SPHERE, 1.0, 0.0))
    assert np.allclose(A, (2.0 / 3.0) * np.eye(2), atol=1e-14)


def test_preconditioner_equator_value():
    dom = zonal_domain()
    A = curvature_preconditioner(dom, pt(SPHERE, np.pi / 2, 0.0))
    assert np.allclose(A, A_EQ * np.eye(2), atol=1e-12)
    assert abs(A_EQ - 0.6622073578595318) < 1e-12


def test_preconditioner_ellipsoid_eigenvalues():
    # eigenvalues 2d/(1 - d kappa_i) with kappa_i the shape-operator spectrum
    dom = RadialDomain(ELLIPSOID, ConstantField(ELLIPSOID, 0.25))
    p = pt(ELLIPSOID, 1.0, 0.7)
    frame = frame_at(ELLIPSOID, p)
    S = shape_operator_at(ELLIPSOID, p, frame)
    kappas = np.linalg.eigvalsh(S)
    A = curvature_preconditioner(dom, p, frame)
    expected = np.sort(2 * 0.25 / (1 - 0.25 * kappas))
    assert np.allclose(np.sort(np.linalg.eigvalsh(A)), expected, atol=1e-12)


def test_preconditioner_symmetric_positive_definite():
    for dom in (zonal_domain(), zonal_domain(0.25, 0.01, ELLIPSOID)):
        rng = np.random.default_rng(3)
        for _ in range(20):
            p = pt(dom.core, np.arccos(rng.uniform(-0.9, 0.9)), rng.uniform(0, 2 * np.pi))
            A = curvature_preconditioner(dom, p)
            assert np.abs(A - A.T).max() < 1e-10
            assert np.linalg.eigvalsh(A).min() > 0
            assert preconditioner_determinant(dom, p) > 0


def test_step_operator_is_half_preconditioner():
    dom = zonal_domain()
    p = pt(SPHERE, 1.2, 0.4)
    assert np.allclose(2.0 * step_operator(dom, p), curvature_preconditioner(dom, p), atol=1e-15)


def test_preconditioner_singularity_raises():
    # d = -1 makes (I - dS) = 0 on the unit sphere; reachable only by
    # bypassing the positivity guard, so fake the field value via constant
    dom = RadialDomain(SPHERE, ConstantField(SPHERE, 1.0))

    class NegatedEval(ConstantField):
        def eval(self, p):  # bypass the positivity guard deliberately
            return -1.0

    dom_bad = RadialDomain(SPHERE, NegatedEval(SPHERE, 1.0))
    with pytest.raises(CurvatureSingularity):
        curvature_preconditioner(dom_bad, pt(SPHERE, 1.0, 0.0))


def test_preconditioner_series_slope_three():
    res, slope = preconditioner_series_residual(ELLIPSOID, (1.0, 0.7), [1e-1, 3e-2, 1e-2, 3e-3])
    assert 2.85 < slope < 3.15
    res2, slope2 = preconditioner_series_residual(SPHERE, (1.0, 0.7), [1e-1, 3e-2, 1e-2, 3e-3])
    assert 2.85 < slope2 < 3.15


# ---------------------------------------------------------------------------
# residuals
# ---------------------------------------------------------------------------

def test_first_order_residual_constant_field_zero():
    dom = RadialDomain(SPHERE, ConstantField(SPHERE, 0.5))
    assert first_order_residual(dom, pt(SPHERE, 1.0, 0.2)) < 1e-12


def test_first_order_residual_critical_point_zero():
    dom = zonal_domain()
    assert first_order_residual(dom, pt(SPHERE, np.pi / 2, 0.5)) < 1e-10
    assert first_order_residual(dom, pt(SPHERE, 0.0, 0.0)) < 1e-10


def test_residual_slopes_classical_vs_measured():
    # against the classical -2 d (I-dS)^-1 grad d step the residual is first
    # order (the prediction points the wrong way with the wrong gain);
    # against the +1 step it is third order on the sphere
    charts = np.array([[1.1, 0.3], [0.7, 2.0], [2.0, 4.0]])
    eps_list = [1e-1, 3e-2, 1e-2, 3e-3, 1e-3]
    rep_classical = residual_sweep(
        SPHERE, lambda e: ZonalLegendreField(SPHERE, 0.5, e), eps_list, charts,
        step_scale=CLASSICAL_STEP_SCALE,
    )
    assert 0.9 < rep_classical.fitted_slope < 1.1
    rep_measured = residual_sweep(
        SPHERE, lambda e: ZonalLegendreField(SPHERE, 0.5, e), eps_list, charts,
        step_scale=MEASURED_STEP_SCALE,
    )
    assert rep_measured.fitted_slope > 2.5


def test_second_order_residual_requires_gradient():
    dom = RadialDomain(SPHERE, ConstantField(SPHERE, 0.5))
    with pytest.raises(ValueError):
        second_order_residual(dom, pt(SPHERE, 1.0, 0.0))


def test_transverse_residual_zero_on_sphere():
    # on an umbilic core the tangential displacement is exactly parallel to
    # grad d, so the gradient-orthogonal residual vanishes identically
    dom = zonal_domain()
    for theta in (0.6, 1.2, 2.1):
        _, trans = second_order_residual(dom, pt(SPHERE, theta, 0.8))
        assert trans < 1e-14


def test_fit_loglog_floor_convention():
    slope, used = fit_loglog([1e-1, 1e-2, 1e-3], [1e-16, 2e-16, 1e-16], floor=1e-13)
    assert slope == float("inf") and used == 0
    slope2, used2 = fit_loglog([1e-1, 1e-2, 1e-3], [1e-2, 1e-4, 1e-6], floor=0.0)
    assert abs(slope2 - 2.0) < 1e-12 and used2 == 3


# ---------------------------------------------------------------------------
# linearization
# ---------------------------------------------------------------------------

def test_linearize_fd_equator_matches_measured_law():
    dom = zonal_domain()
    rep = linearize_fd(dom, pt(SPHERE, np.pi / 2, 0.0))
    mu = np.sort(rep.eigenvalues.real)
    expected = np.sort([1.0, 1.0 + 3.0 * (A_EQ / 2.0) * EPS])
    assert np.abs(mu - expected).max() < 1e-6
    assert rep.composite.shape == (2, 2)
    assert np.allclose(rep.composite, np.eye(2) - rep.DF)


def test_linearize_fd_pole_attracting():
    dom = zonal_domain()
    rep = linearize_fd(dom, pt(SPHERE, 0.0, 0.0))
    expected = 1.0 - 3.0 * (A_POLE / 2.0) * EPS
    assert np.abs(rep.eigenvalues.real - expected).max() < 1e-6
    assert rep.stability == "Attracting"


def test_linearize_fd_constant_field_identity():
    dom = RadialDomain(SPHERE, ConstantField(SPHERE, 0.5))
    rep = linearize_fd(dom, pt(SPHERE, 0.9, 0.4))
    assert np.abs(rep.DF - np.eye(2)).max() < 1e-8
    assert rep.stability == "Neutral"


def test_linearize_rejects_non_fixed_point():
    dom = zonal_domain()
    with pytest.raises(NotAFixedPoint):
        linearize_fd(dom, pt(SPHERE, np.pi / 4, 0.0))


def test_linearize_analytic_classical_formula():
    # the classical model value at the equator: eigs {1 - 3 a_eq eps, 1}
    dom = zonal_domain()
    rep = linearize_analytic(dom, pt(SPHERE, np.pi / 2, 0.0), step_scale=CLASSICAL_STEP_SCALE)
    mu = np.sort(rep.eigenvalues.real)
    assert np.abs(mu - np.sort([1.0, 1.0 - 3.0 * A_EQ * EPS])).max() < 1e-12
    assert abs(1.0 - 3.0 * A_EQ * EPS - 0.9801337792642141) < 1e-12


def test_linearize_analytic_measured_matches_fd():
    dom = zonal_domain()
    for chart in ((np.pi / 2, 0.0), (0.0, 0.0)):
        p = pt(SPHERE, *chart)
        fd = linearize_fd(dom, p)
        an = linearize_analytic(dom, p, step_scale=MEASURED_STEP_SCALE)
        assert np.abs(fd.DF - an.DF).max() < 1e-6


def test_linearize_analytic_measured_matches_fd_on_ellipsoid():
    dom = zonal_domain(0.25, 0.01, ELLIPSOID)
    p = pt(ELLIPSOID, np.pi / 2, 0.7)
    fd = linearize_fd(dom, p)
    an = linearize_analytic(dom, p, step_scale=MEASURED_STEP_SCALE)
    assert np.abs(fd.DF - an.DF).max() < 1e-5


def _fd_jacobian_reference(F, c, frame, h):
    """The per-column loop finite_difference_jacobian_batch batches: one
    scalar retract per stencil point, one projection per column."""
    E = frame.vectors
    nu = F.core.normal(c.ambient)
    DF = np.empty((E.shape[0], E.shape[0]))
    for i, e in enumerate(E):
        Y = F.batch(np.array([retract(F.core, c, e, s * h).ambient for s in (1.0, -1.0)]))
        diff = (Y[0] - Y[1]) / (2.0 * h)
        DF[:, i] = E @ (diff - nu * float(np.dot(diff, nu)))
    return DF


@pytest.mark.parametrize("dom, p", [
    (zonal_domain(), pt(SPHERE, np.pi / 2, 0.3)),
    (zonal_domain(), pt(SPHERE, 0.0, 0.0)),
    (zonal_domain(0.25, 0.01, ELLIPSOID), pt(ELLIPSOID, np.pi / 2, 0.7)),
    (RadialDomain(CIRCLE, Fourier2DField(CIRCLE, 0.5, [(2, 0.01)])), pt(CIRCLE, np.pi / 2)),
], ids=["equator", "pole", "ellipsoid", "circle"])
def test_fd_jacobian_matches_per_column_loop(dom, p):
    # the projection and the frame product are batched, so only their
    # summation order differs: a few ulps of the O(1) entries
    F = BlackBoxMap.wrap_domain(dom)
    frame = frame_at(dom.core, p)
    got = finite_difference_jacobian_batch(F, p.ambient[None], frame.vectors[None])[0]
    ref = _fd_jacobian_reference(F, p, frame, 1e-5)
    assert np.abs(got - ref).max() <= 4 * np.finfo(float).eps


def test_spectral_relation_in_aligned_case():
    # classical model: mu_i = 1 - alpha_i lambda_i when A and Hess commute
    dom = zonal_domain()
    p = pt(SPHERE, np.pi / 2, 0.0)
    frame = frame_at(SPHERE, p)
    rep = linearize_analytic(dom, p, frame, step_scale=CLASSICAL_STEP_SCALE)
    A = curvature_preconditioner(dom, p, frame)
    H = dom.field.surface_hessian(p, frame)
    alphas = np.linalg.eigvalsh(A)
    lams = np.sort(np.linalg.eigvalsh(H))
    mus = np.sort([1 - a * l for a, l in zip(alphas, lams)])
    assert np.abs(np.sort(rep.eigenvalues.real) - mus).max() < 1e-6 * max(1, np.abs(mus).max())


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def _report(DF, hessian=None, precond=None):
    k = DF.shape[0]
    return LinearizationReport(
        point=pt(SPHERE, 1.0, 0.0),
        frame=frame_at(SPHERE, pt(SPHERE, 1.0, 0.0)),
        DF=DF,
        composite=np.eye(k) - DF,
        eigenvalues=np.linalg.eigvals(DF),
        method="analytic",
        hessian=hessian,
        preconditioner=precond,
    )


def test_classify_identity_neutral():
    stability, morse = classify_fixed_point(_report(np.eye(2)))
    assert stability == "Neutral" and morse is None


def test_classify_saddle():
    stability, _ = classify_fixed_point(_report(np.diag([0.5, 1.5])))
    assert stability == "Saddle"


def test_classify_equator_mixed_with_index_zero():
    dom = zonal_domain()
    rep = linearize_fd(dom, pt(SPHERE, np.pi / 2, 0.0))
    # measured: one direction repels (mu > 1), the zonal circle is neutral
    assert rep.stability == "Mixed"
    assert rep.eigen_labels.count("neutral") == 1
    an = linearize_analytic(dom, pt(SPHERE, np.pi / 2, 0.0), step_scale=MEASURED_STEP_SCALE)
    assert an.morse_index == 0      # from the analytic Hessian: no negative directions
    assert an.degenerate            # the zonal zero eigenvalue


def test_classify_pole_morse_index_from_hessian():
    dom = zonal_domain()
    rep = linearize_analytic(dom, pt(SPHERE, 0.0, 0.0), step_scale=MEASURED_STEP_SCALE)
    assert rep.morse_index == 2     # Hess = -3 eps I: both directions negative
    assert rep.stability == "Attracting"


def test_classify_morse_from_composite_when_no_hessian():
    # A^{-1}(I - DF) with the classical positive A applied to the measured
    # dynamics yields -Hess/2: the counted index complements the true one
    dom = zonal_domain()
    rep = linearize_fd(dom, pt(SPHERE, 0.0, 0.0))
    assert rep.hessian is None and rep.preconditioner is not None
    assert rep.morse_index == 0


# ---------------------------------------------------------------------------
# fixed-point search
# ---------------------------------------------------------------------------

def test_find_fixed_points_constant_field_continuum():
    dom = RadialDomain(SPHERE, ConstantField(SPHERE, 0.5))
    scan = find_fixed_points(dom, n_seeds=200, tol=1e-10)
    assert scan.continuum


def test_find_fixed_points_zonal_recovers_critical_set():
    dom = zonal_domain()
    scan = find_fixed_points(dom, n_seeds=400, tol=1e-10)
    assert not scan.continuum
    P = np.array([p.ambient for p in scan.points])
    assert np.min(np.linalg.norm(P - np.array([0, 0, 1.0]), axis=1)) < 1e-6
    assert np.min(np.linalg.norm(P - np.array([0, 0, -1.0]), axis=1)) < 1e-6
    # every representative lies on the analytic critical set
    for x in P:
        d_pole = min(np.linalg.norm(x - [0, 0, 1]), np.linalg.norm(x - [0, 0, -1]))
        rho = np.hypot(x[0], x[1])
        d_eq = np.linalg.norm([rho - 1.0, x[2]])
        assert min(d_pole, d_eq) < 1e-6
    # the equatorial circle is represented by several clusters
    on_eq = [x for x in P if abs(x[2]) < 1e-6]
    assert len(on_eq) >= 3
    assert np.all(scan.grad_norms < 1e-6)


def test_find_fixed_points_circle_four_points():
    # d(theta) = 0.5 + 0.01 cos(2 theta): critical angles at multiples of pi/2
    dom = RadialDomain(CIRCLE, Fourier2DField(CIRCLE, 0.5, [(2, 0.01)]))
    scan = find_fixed_points(dom, n_seeds=360, tol=1e-10)
    thetas = sorted(p.theta for p in scan.points)
    assert len(thetas) == 4
    for got, want in zip(thetas, [0.0, np.pi / 2, np.pi, 3 * np.pi / 2]):
        assert min(abs(got - want), abs(got - want - 2 * np.pi), abs(got - want + 2 * np.pi)) < 1e-8


def test_find_fixed_points_deterministic():
    dom = zonal_domain()
    s1 = find_fixed_points(dom, n_seeds=150, tol=1e-10)
    s2 = find_fixed_points(dom, n_seeds=150, tol=1e-10)
    assert len(s1.points) == len(s2.points)
    for a, b in zip(s1.points, s2.points):
        assert np.array_equal(a.ambient, b.ambient)


def test_fixed_point_polish_reaches_critical_points_on_tilted_ellipsoid():
    core = ConvexCore.ellipsoid(2.0, 1.0, 0.5)
    dom = RadialDomain(core, ZonalLegendreField(core, 0.25, 0.01, axis=(1e-4, 0.0, 1.0)))
    scan = find_fixed_points(dom, n_seeds=200, tol=1e-10)
    assert len(scan.points) >= 2
    assert np.all(scan.grad_norms <= 1e-14)
    # the representatives lie on the core and are fixed to round-off
    P = np.array([p.ambient for p in scan.points])
    assert np.all(np.abs(core.implicit(P)) <= 4 * np.finfo(float).eps)
    assert np.all(scan.residuals <= 1e-15 * core.surface_scale())


def test_thin_shell_reports_each_pole_once():
    # contraction rate ~1 - 1e-4: every orbit stalls at the cap, so the
    # poles are reached only through the polish
    dom = zonal_domain(0.03, 1e-3)
    scan = find_fixed_points(dom, n_seeds=120, tol=1e-10, max_iters=5000)
    P = np.array([p.ambient for p in scan.points])
    for pole in ([0.0, 0.0, 1.0], [0.0, 0.0, -1.0]):
        assert int(np.sum(np.linalg.norm(P - pole, axis=1) <= 1e-6)) == 1


@pytest.mark.parametrize(
    "dom, n_seeds",
    [(zonal_domain(), 400), (RadialDomain(CIRCLE, Fourier2DField(CIRCLE, 0.5, [(2, 0.01)])), 360)],
    ids=["zonal_sphere", "circle_cos2"],
)
def test_fixed_points_come_in_canonical_order(dom, n_seeds):
    # lexicographic in the ambient coordinates rounded to 1e-9 * scale, so
    # the order cannot follow round-off in the residuals
    scan = find_fixed_points(dom, n_seeds=n_seeds, tol=1e-10)
    q = 1e-9 * dom.core.surface_scale()
    keys = [tuple(np.round(p.ambient / q)) for p in scan.points]
    assert len(keys) >= 4
    assert keys == sorted(keys)
    # residuals and gradient norms travel with their points
    X = np.array([p.ambient for p in scan.points])
    F = np.array([return_map(dom, p).ambient for p in scan.points])
    assert np.allclose(scan.residuals, np.linalg.norm(F - X, axis=-1), rtol=1e-12, atol=1e-30)
    # the Newton polish reaches round-off
    assert np.all(scan.residuals <= 1e-15 * dom.core.surface_scale())
    grads = [np.linalg.norm(dom.field.surface_gradient_ambient(p)) for p in scan.points]
    assert np.array_equal(scan.grad_norms, grads)



# ---------------------------------------------------------------------------
# batched expansion residuals
# ---------------------------------------------------------------------------

TILTED_CORE = ConvexCore.ellipsoid(2.0, 1.0, 0.5)
TILTED = RadialDomain(TILTED_CORE, ZonalLegendreField(TILTED_CORE, 0.25, 0.02, axis=(0.3, 0.5, 0.8)))
RESIDUAL_DOMAINS = {
    "sphere": zonal_domain(eps=0.05),
    "tilted_ellipsoid": TILTED,
    "fourier_circle": RadialDomain(CIRCLE, Fourier2DField(CIRCLE, 0.5, [(2, 0.05), (3, 0.02)])),
}
KINDS = ["first_order", "second_order", "normal"]


def _residual_points(core, n=7, seed=5):
    rng = np.random.default_rng(seed)
    if core.dim == 2:
        charts = rng.uniform(0.2, 2 * np.pi - 0.2, size=(n, 1))
    else:
        charts = np.stack([rng.uniform(0.3, 1.3, n), rng.uniform(0.0, 2 * np.pi, n)], axis=-1)
    return core.ambient_from_chart(charts)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("name", sorted(RESIDUAL_DOMAINS))
def test_expansion_residual_batch_rows_equal_batch_of_one(name, kind):
    dom = RESIDUAL_DOMAINS[name]
    X = _residual_points(dom.core)
    total, transverse = expansion_residual_batch(dom, X, MEASURED_STEP_SCALE, kind)
    assert total.shape == transverse.shape == (X.shape[0],)
    for i, x in enumerate(X):
        t1, tr1 = expansion_residual_batch(dom, x[None], MEASURED_STEP_SCALE, kind)
        assert t1[0] == total[i] and tr1[0] == transverse[i]


def _frame_step(dom, c, frame, step_scale, second_order=False):
    """The frame-based predicted step: components in the tangent frame,
    pushed to ambient coordinates."""
    d = dom.field.eval(c)
    S = shape_operator_at(dom.core, c, frame)
    R = np.linalg.inv(np.eye(S.shape[0]) - d * S)
    R = 0.5 * (R + R.T)
    g = dom.field.surface_gradient(c, frame)
    w = step_scale * d * (R @ g)
    if second_order:
        H = dom.field.surface_hessian(c, frame)
        w = w + 2.0 * d * d * (H @ g) + 2.0 * d * float(g @ g) * g
    return w @ frame.vectors, R, g


def _frame_residuals(dom, c, step_scale):
    """(first-order, second-order total, transverse, normal) residuals from
    the frame formulas."""
    frame = frame_at(dom.core, c)
    actual = return_map(dom, c).ambient
    w1, R, g = _frame_step(dom, c, frame, step_scale)
    w2, _, _ = _frame_step(dom, c, frame, step_scale, second_order=True)
    first = np.linalg.norm(actual - retract(dom.core, c, w1, 1.0).ambient)
    total = np.linalg.norm(actual - retract(dom.core, c, w2, 1.0).ambient)
    resid = frame.vectors @ (actual - c.ambient - w1)
    ghat = g / np.linalg.norm(g)
    transverse = np.linalg.norm(resid - ghat * float(resid @ ghat))
    m = (R @ g) @ frame.vectors
    normal = np.linalg.norm(radial_map(dom, c).inward_normal + dom.core.normal(c.ambient) - m)
    return first, total, transverse, normal


@pytest.mark.parametrize("step_scale", [CLASSICAL_STEP_SCALE, MEASURED_STEP_SCALE])
def test_residuals_agree_with_frame_formulas_on_tilted_ellipsoid(step_scale):
    # the (grad d . nu) S term of Hess d is nonzero only off the umbilic cores
    for x in _residual_points(TILTED.core, n=10, seed=9):
        c = SurfacePoint.from_ambient(TILTED.core, x)
        first, total, transverse, normal = _frame_residuals(TILTED, c, step_scale)
        assert abs(first_order_residual(TILTED, c, step_scale) - first) < 1e-14
        got_total, got_transverse = second_order_residual(TILTED, c, step_scale)
        assert abs(got_total - total) < 1e-14
        assert abs(got_transverse - transverse) < 1e-14
        assert abs(normal_expansion_residual(TILTED, c) - normal) < 1e-14


def test_second_order_residual_in_the_zonal_profile_pole_band():
    # 5e-5 from the pole a P2 profile of w has the Legendre field's closed-form Hess d
    fld = ZonalProfileField(SPHERE, 0.5, g=lambda w: 0.01 * (1.5 * w * w - 0.5),
                            dg=lambda w: 0.03 * w, d2g=lambda w: np.full_like(w, 0.03))
    c = pt(SPHERE, 5e-5, 0.3)
    total, transverse = second_order_residual(RadialDomain(SPHERE, fld), c)
    assert abs(total / 1.5432765468984404e-06 - 1.0) < 1e-9
    assert abs(total / second_order_residual(zonal_domain(), c)[0] - 1.0) < 1e-12
    assert np.isfinite(transverse)


def test_residual_sweep_makes_one_map_call_per_epsilon(monkeypatch):
    calls = []

    def counted(dom, X):
        calls.append(len(X))
        return return_map_batch(dom, X)

    monkeypatch.setattr(analysis, "return_map_batch", counted)
    charts = np.array([[1.1, 0.3], [0.7, 2.0], [2.0, 4.0], [0.5, 5.0]])
    eps_list = [1e-1, 1e-2, 1e-3]
    for kind, n_calls in (("first_order", 3), ("second_order", 3), ("normal", 0)):
        calls.clear()
        residual_sweep(SPHERE, lambda e: ZonalLegendreField(SPHERE, 0.5, e), eps_list, charts, kind=kind)
        assert calls == [4] * n_calls


@pytest.mark.parametrize("kind", KINDS)
def test_expansion_residuals_reject_nonpositive_thickness(kind):
    dom = zonal_domain(d0=0.1, eps=0.5)  # d < 0 at the equator
    c = pt(SPHERE, np.pi / 2, 0.0)
    with pytest.raises(InadmissibleThickness):
        expansion_residual_batch(dom, c.ambient[None], kind=kind)
    scalar = {"first_order": first_order_residual, "second_order": second_order_residual,
              "normal": normal_expansion_residual}[kind]
    with pytest.raises(InadmissibleThickness):
        scalar(dom, c)


# ---------------------------------------------------------------------------
# batched linearization layer
# ---------------------------------------------------------------------------

# the drawn point joins a mixed batch: points on both sides of the equator
# and next to both poles
_MIX_CHARTS = [(0.3, 0.2), (1.9, 4.0), (1e-6, 2.5), (np.pi - 3e-7, 0.4)]


def _mixed_batch(core, theta, phi, slot):
    k = core.dim - 1
    charts = [ch[:k] for ch in _MIX_CHARTS]
    charts.insert(slot, (theta, phi)[:k])
    return core.ambient_from_chart(np.array(charts))


@settings(max_examples=40, deadline=None)
@given(theta=st.floats(0.0, np.pi), phi=st.floats(0.0, 2 * np.pi),
       slot=st.integers(0, len(_MIX_CHARTS)), name=st.sampled_from(sorted(RESIDUAL_DOMAINS)))
def test_fd_jacobian_batch_rows_equal_batch_of_one(theta, phi, slot, name):
    dom = RESIDUAL_DOMAINS[name]
    F = BlackBoxMap.wrap_domain(dom)
    X = _mixed_batch(dom.core, theta, phi, slot)
    E = frames_batch(dom.core, X)
    J = finite_difference_jacobian_batch(F, X, E)
    assert J.shape == (X.shape[0], dom.core.dim - 1, dom.core.dim - 1)
    for i in range(X.shape[0]):
        assert np.array_equal(finite_difference_jacobian_batch(F, X[i:i + 1], E[i:i + 1])[0], J[i])
    p = SurfacePoint.from_ambient(dom.core, X[slot])
    E1 = frame_at(dom.core, p).vectors[None]
    assert np.array_equal(finite_difference_jacobian_batch(F, p.ambient[None], E1)[0], J[slot])


@settings(max_examples=20, deadline=None)
@given(theta=st.floats(0.0, np.pi), phi=st.floats(0.0, 2 * np.pi),
       slot=st.integers(0, len(_MIX_CHARTS)), name=st.sampled_from(sorted(RESIDUAL_DOMAINS)))
def test_newton_polish_rows_equal_batch_of_one(theta, phi, slot, name):
    dom = RESIDUAL_DOMAINS[name]
    F = BlackBoxMap.wrap_domain(dom)
    X = _mixed_batch(dom.core, theta, phi, slot)
    P, r = analysis._newton_polish(F, X)
    assert P.shape == X.shape and r.shape == (X.shape[0],)
    for i, x in enumerate(X):
        p1, r1 = analysis._newton_polish(F, x[None])
        assert np.array_equal(p1[0], P[i]) and r1[0] == r[i]


def test_newton_polish_rejects_a_candidate_off_the_core():
    dom = RESIDUAL_DOMAINS["sphere"]
    X = _residual_points(SPHERE, n=3)
    X[1] *= 1.0 + 1e-9
    with pytest.raises(OffSurface):
        analysis._newton_polish(BlackBoxMap.wrap_domain(dom), X)


def test_fixed_point_search_polishes_every_candidate_at_once(monkeypatch):
    calls, inside = [], []

    def counted(X):
        if inside:
            calls.append(len(X))
        return return_map_batch(TILTED, X)

    polish = analysis._newton_polish

    def traced(*args):
        inside.append(True)
        try:
            return polish(*args)
        finally:
            inside.clear()

    monkeypatch.setattr(analysis, "_newton_polish", traced)
    scan = analysis.fixed_point_search(BlackBoxMap(TILTED.core, counted), 200, tol=1e-10)
    assert len(scan.points) >= 2
    assert 3 <= len(calls) <= 1 + 2 * analysis.NEWTON_MAX_STEPS
    assert calls[0] <= analysis.MAX_REFINE  # every candidate in the first call


def test_fixed_point_search_with_no_seeds_is_empty():
    # runs under the suite's error::RuntimeWarning filter
    def no_call(X):
        raise AssertionError("no map call expected")

    scan = analysis.fixed_point_search(BlackBoxMap(TILTED.core, no_call), 0, tol=1e-10)
    assert (scan.points, scan.residuals.shape, scan.continuum, scan.unresolved) == ([], (0,), False, 0)
    scan = find_fixed_points(zonal_domain(), n_seeds=0)
    assert scan.points == [] and scan.grad_norms.shape == (0,)
    assert not scan.continuum and scan.unresolved == 0


def _quadric_shape_operator(core, x, E):
    """S = -(E M E^T)/|Mx| with M = diag(1/s_i^2), symmetrized."""
    M = np.diag(1.0 / core.axes**2)
    S = -(E @ M @ E.T) / np.linalg.norm(M @ x)
    return 0.5 * (S + S.T)


@pytest.mark.parametrize("name", sorted(RESIDUAL_DOMAINS))
def test_closed_forms_match_frame_matrix_formulas(name):
    # S, d (I - dS)^-1 and Hess d against the frame-matrix formulas:
    # the quadric matrix, a matrix inverse and E Hamb E^T + (g . nu) S
    dom = RESIDUAL_DOMAINS[name]
    core, fld = dom.core, dom.field
    for x in _residual_points(core, n=10, seed=11):
        c = SurfacePoint.from_ambient(core, x)
        frame = frame_at(core, c)
        E = frame.vectors
        S = _quadric_shape_operator(core, x, E)
        assert np.abs(shape_operator_at(core, c, frame) - S).max() <= 1e-14
        d = fld.eval(c)
        R = np.linalg.inv(np.eye(E.shape[0]) - d * S)
        assert np.abs(step_operator(dom, c, frame) - d * 0.5 * (R + R.T)).max() <= 1e-14
        H = E @ fld.ambient_hess(x) @ E.T + float(fld.ambient_grad(x) @ core.normal(x)) * S
        assert np.abs(fld.surface_hessian(c, frame) - 0.5 * (H + H.T)).max() <= 1e-14


def _depth_first_clusters(X, radius):
    """Chain clustering one point at a time: a distance row per visited
    point, components numbered by their lowest row."""
    labels = -np.ones(X.shape[0], dtype=int)
    current = 0
    for i in range(X.shape[0]):
        if labels[i] >= 0:
            continue
        stack = [i]
        labels[i] = current
        while stack:
            j = stack.pop()
            near = np.linalg.norm(X - X[j], axis=-1) <= radius
            for k in np.nonzero(near & (labels < 0))[0]:
                labels[k] = current
                stack.append(int(k))
        current += 1
    return labels


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("chunk", [None, 7])
def test_greedy_clusters_equal_depth_first_labels(dim, chunk, monkeypatch):
    # blobs at several spreads, a shuffled chain whose links sit near the
    # radius, and (chunk = 7) frontiers split into many distance calls
    if chunk is not None:
        monkeypatch.setattr(analysis, "CLUSTER_CHUNK", chunk)
    rng = np.random.default_rng(dim)
    t = rng.permutation(np.concatenate([np.linspace(0.0, 1.0, 120), np.linspace(1.5, 2.0, 60)]))
    chain = np.zeros((t.size, dim))
    chain[:, 0], chain[:, 1] = t, 0.2 * np.sin(5.0 * t)
    for trial in range(12):
        centres = rng.normal(size=(int(rng.integers(1, 6)), dim))
        n = int(rng.integers(0, 250))
        X = centres[rng.integers(0, len(centres), n)] + rng.normal(size=(n, dim)) * 10.0 ** -trial
        for radius in (1e-4, 1e-2, 0.3):
            assert np.array_equal(analysis._greedy_clusters(X, radius), _depth_first_clusters(X, radius))
    for radius in (0.005, 0.0101, 0.02):
        assert np.array_equal(analysis._greedy_clusters(chain, radius),
                              _depth_first_clusters(chain, radius))
