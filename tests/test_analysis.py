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
    ScaledField,
    SumField,
    SurfacePoint,
    ZonalLegendreField,
    ZonalProfileField,
    find_fixed_points,
    fit_loglog,
    frame_at,
    linearize,
    linearize_analytic,
    linearize_fd,
    preconditioner_series_residual,
    residual_sweep,
    retract,
    run_reconstruction,
    return_map,
    return_map_batch,
)
from shellmap import analysis, dynamics
from shellmap.analysis import (
    NEUTRAL_TOL,
    expansion_residual_batch,
    finite_difference_jacobian_batch,
    step_operator_batch,
)
from shellmap.domain import _outer_geometry_batch
from shellmap.errors import CurvatureSingularity, OffSurface
from shellmap.surfaces import frames_batch, shape_operator_batch

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


def step_at(dom, p):
    """G = d (I - dS)^-1 at p in frame_at's frame: step_operator_batch on a batch of one."""
    X = p.ambient[None]
    return step_operator_batch(dom.core, X, dom.field.ambient_value(X), frame_at(dom.core, p).vectors[None])[0]


def shape_at(core, p):
    """S at p in frame_at's frame: shape_operator_batch on a batch of one."""
    return shape_operator_batch(core, p.ambient[None], frame_at(core, p).vectors[None])[0]


def hessian_at(fld, p):
    """Hess d at p in frame_at's frame: surface_hessian_batch on a batch of one."""
    return fld.surface_hessian_batch(p.ambient[None], frame_at(fld.core, p).vectors[None])[0]


def residuals(dom, c, kind, step_scale=CLASSICAL_STEP_SCALE):
    """(total, transverse) at c: the row of expansion_residual_batch."""
    total, transverse = expansion_residual_batch(dom, c.ambient[None], step_scale, kind)
    return float(total[0]), float(transverse[0])


# ---------------------------------------------------------------------------
# preconditioner / step operator
# ---------------------------------------------------------------------------

def test_preconditioner_sphere_constant():
    dom = RadialDomain(SPHERE, ConstantField(SPHERE, 0.5))
    A = 2.0 * step_at(dom, pt(SPHERE, 1.0, 0.0))
    assert np.allclose(A, (2.0 / 3.0) * np.eye(2), atol=1e-14)


def test_preconditioner_equator_value():
    dom = zonal_domain()
    A = 2.0 * step_at(dom, pt(SPHERE, np.pi / 2, 0.0))
    assert np.allclose(A, A_EQ * np.eye(2), atol=1e-12)
    assert abs(A_EQ - 0.6622073578595318) < 1e-12


def test_preconditioner_ellipsoid_eigenvalues():
    # eigenvalues 2d/(1 - d kappa_i) with kappa_i the shape-operator spectrum
    dom = RadialDomain(ELLIPSOID, ConstantField(ELLIPSOID, 0.25))
    p = pt(ELLIPSOID, 1.0, 0.7)
    S = shape_at(ELLIPSOID, p)
    kappas = np.linalg.eigvalsh(S)
    A = 2.0 * step_at(dom, p)
    expected = np.sort(2 * 0.25 / (1 - 0.25 * kappas))
    assert np.allclose(np.sort(np.linalg.eigvalsh(A)), expected, atol=1e-12)


def test_preconditioner_symmetric_positive_definite():
    for dom in (zonal_domain(), zonal_domain(0.25, 0.01, ELLIPSOID)):
        rng = np.random.default_rng(3)
        for _ in range(20):
            p = pt(dom.core, np.arccos(rng.uniform(-0.9, 0.9)), rng.uniform(0, 2 * np.pi))
            A = 2.0 * step_at(dom, p)
            assert np.abs(A - A.T).max() < 1e-10
            assert np.linalg.eigvalsh(A).min() > 0


def test_preconditioner_singularity_raises():
    # d = -1 makes (I - dS) = 0 on the unit sphere; reachable only by
    # passing the step operator a thickness no field admits
    x = SPHERE.ambient_from_chart(np.array([[1.0, 0.0]]))
    with pytest.raises(CurvatureSingularity):
        step_operator_batch(SPHERE, x, np.array([-1.0]), frames_batch(SPHERE, x))


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
    assert residuals(dom, pt(SPHERE, 1.0, 0.2), "first_order")[0] < 1e-12


def test_first_order_residual_critical_point_zero():
    dom = zonal_domain()
    assert residuals(dom, pt(SPHERE, np.pi / 2, 0.5), "first_order")[0] < 1e-10
    assert residuals(dom, pt(SPHERE, 0.0, 0.0), "first_order")[0] < 1e-10


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
        residuals(dom, pt(SPHERE, 1.0, 0.0), "second_order")


def test_transverse_residual_zero_on_sphere():
    # on an umbilic core the tangential displacement is exactly parallel to
    # grad d, so the gradient-orthogonal residual vanishes identically
    dom = zonal_domain()
    for theta in (0.6, 1.2, 2.1):
        _, trans = residuals(dom, pt(SPHERE, theta, 0.8), "second_order")
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
    assert rep.DF.shape == (2, 2)


def test_linearize_fd_pole_attracting():
    dom = zonal_domain()
    rep = linearize_fd(dom, pt(SPHERE, 0.0, 0.0))
    expected = 1.0 - 3.0 * (A_POLE / 2.0) * EPS
    assert np.abs(rep.eigenvalues.real - expected).max() < 1e-6
    assert rep.stability == "Attracting"


@pytest.mark.parametrize("chart", [(0.0, 0.0), (np.pi / 2, 0.0)], ids=["pole", "equator"])
def test_linearize_fd_is_scale_covariant(chart):
    # the FD step is in units of surface_scale(), so rescaling the core and d
    # together by R leaves DF unchanged; an absolute step of 1e-5 read the
    # pole eigenvalue 0.98981909 at R = 1e-3 against 0.98986755 at R = 1
    eigs = []
    for R in (1e-3, 1.0, 1e3):
        core = ConvexCore.sphere(R)
        dom = RadialDomain(core, ScaledField(R, ZonalLegendreField(core, D0, EPS)))
        eigs.append(np.sort(linearize_fd(dom, pt(core, *chart)).eigenvalues.real))
    assert np.abs(np.array(eigs) - eigs[1]).max() < 1e-8, eigs


def test_fixed_point_search_is_scale_covariant():
    # the Newton polish takes its FD Jacobian at a step in units of
    # surface_scale(), so rescaling the core, d and tol together by R rescales
    # the fixed points found; an absolute step of 1e-5 moved them by up to
    # 0.65 R at R = 1e-3 and 4.5e-5 R at R = 1e3
    found = []
    for R in (1e-3, 1.0, 1e3):
        core = ConvexCore.ellipsoid(1.5 * R, R, 0.7 * R)
        dom = RadialDomain(core, ScaledField(R, ZonalLegendreField(core, D0, EPS, axis=(0.3, 0.5, 0.8))))
        scan = analysis.fixed_point_search(BlackBoxMap.wrap_domain(dom), 60, tol=1e-10 * R)
        found.append(scan.points / R)
    assert len(found[1]) == 9
    for pts in found:
        assert pts.shape == found[1].shape and np.abs(pts - found[1]).max() < 1e-6


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
    scalar retract per stencil point, one projection per column, at the
    step h in units of surface_scale()."""
    h = h * F.core.surface_scale()
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
    rep = linearize_analytic(dom, p, step_scale=CLASSICAL_STEP_SCALE)
    A = 2.0 * step_at(dom, p)
    H = hessian_at(dom.field, p)
    alphas = np.linalg.eigvalsh(A)
    lams = np.sort(np.linalg.eigvalsh(H))
    mus = np.sort([1 - a * l for a, l in zip(alphas, lams)])
    assert np.abs(np.sort(rep.eigenvalues.real) - mus).max() < 1e-6 * max(1, np.abs(mus).max())


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def _classify_one(DF):
    """The batched classifier on one DF, with no Hessian attached."""
    return analysis._classify(DF[None])[0]


def test_classify_identity_neutral():
    assert _classify_one(np.eye(2)).stability == "Neutral"


def test_classify_saddle():
    assert _classify_one(np.diag([0.5, 1.5])).stability == "Saddle"


def test_classify_labels_every_row_of_a_batch():
    DF = np.array([np.diag(mu) for mu in ([0.5, 0.5], [1.5, 1.5], [1.0, 1.0], [1.0, 0.5], [1.5, 1.0],
                                          [0.5, 1.5])])
    rep = analysis._classify(DF)
    assert rep.stability.tolist() == ["Attracting", "Repelling", "Neutral", "Mixed", "Mixed", "Saddle"]
    assert rep.eigen_labels.tolist() == [["attracting"] * 2, ["repelling"] * 2, ["neutral"] * 2,
                                         ["neutral", "attracting"], ["repelling", "neutral"],
                                         ["repelling", "attracting"]]


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
    # with no Hessian the index counts the eigenvalues of DF above 1; for the
    # measured dynamics DF - I = G Hess d with G > 0, so this is the index of
    # -d: the pole, a maximum of d, reads 0
    dom = zonal_domain()
    rep = linearize_fd(dom, pt(SPHERE, 0.0, 0.0))
    assert rep.hessian is None
    assert rep.morse_index == 0


_INDEX_DOMAINS = {
    "reference_sphere": zonal_domain,
    "tilted_ellipsoid": lambda: TILTED,
    "two_axis_sphere": lambda: RadialDomain(SPHERE, SumField([
        ZonalLegendreField(SPHERE, 0.25, 0.02), ZonalLegendreField(SPHERE, 0.25, 0.02, axis=(0.3, 0.5, 0.8))])),
    "fourier_circle": lambda: RESIDUAL_DOMAINS["fourier_circle"],
}


@pytest.mark.parametrize("name", sorted(_INDEX_DOMAINS))
def test_fd_index_is_the_index_of_minus_d_at_every_fixed_point(name):
    # DF - I = G Hess d with G > 0, so the eigenvalues of DF above 1 count the
    # positive eigenvalues of Hess d, and those near 1 its null directions
    dom = _INDEX_DOMAINS[name]()
    X = find_fixed_points(dom, 200).points
    fd = linearize(dom, X, "fd")
    an = linearize(dom, X, "analytic", step_scale=MEASURED_STEP_SCALE)
    assert len(X) > 1
    assert fd.morse_index.tolist() == np.sum(np.linalg.eigvals(an.hessian).real > NEUTRAL_TOL, axis=-1).tolist()
    assert fd.degenerate.tolist() == an.degenerate.tolist()


def test_fd_linearize_reads_neither_the_step_operator_nor_the_field(monkeypatch):
    dom = zonal_domain()
    X = SPHERE.ambient_from_chart(np.array([[np.pi / 2, 0.0], [0.0, 0.0]]))
    want = linearize(dom, X, "fd")

    def forbidden(*args):
        raise AssertionError("fd linearize must classify from DF alone")

    monkeypatch.setattr(analysis, "step_operator_batch", forbidden)
    monkeypatch.setattr(dom.field, "ambient_value", forbidden)
    got = linearize(dom, X, "fd")
    assert got.hessian is None
    for field in ("DF", "eigenvalues", "eigen_labels", "stability", "morse_index", "degenerate"):
        assert np.array_equal(getattr(got, field), getattr(want, field))


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
    P = scan.points
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
    thetas = sorted(CIRCLE.chart_from_ambient(scan.points)[:, 0])
    assert len(thetas) == 4
    for got, want in zip(thetas, [0.0, np.pi / 2, np.pi, 3 * np.pi / 2]):
        assert min(abs(got - want), abs(got - want - 2 * np.pi), abs(got - want + 2 * np.pi)) < 1e-8


def test_find_fixed_points_deterministic():
    dom = zonal_domain()
    s1 = find_fixed_points(dom, n_seeds=150, tol=1e-10)
    s2 = find_fixed_points(dom, n_seeds=150, tol=1e-10)
    assert np.array_equal(s1.points, s2.points)


def test_fixed_point_polish_reaches_critical_points_on_tilted_ellipsoid():
    core = ConvexCore.ellipsoid(2.0, 1.0, 0.5)
    dom = RadialDomain(core, ZonalLegendreField(core, 0.25, 0.01, axis=(1e-4, 0.0, 1.0)))
    scan = find_fixed_points(dom, n_seeds=200, tol=1e-10)
    assert len(scan.points) >= 2
    assert np.all(scan.grad_norms <= 1e-14)
    # the representatives lie on the core and are fixed to round-off
    P = scan.points
    assert np.all(np.abs(core.implicit(P)) <= 4 * np.finfo(float).eps)
    assert np.all(scan.residuals <= 1e-15 * core.surface_scale())


def test_thin_shell_reports_each_pole_once():
    # contraction rate ~1 - 1e-4: every orbit stalls at the cap, so the
    # poles are reached only through the polish
    dom = zonal_domain(0.03, 1e-3)
    scan = find_fixed_points(dom, n_seeds=120, tol=1e-10, max_iters=5000)
    P = scan.points
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
    keys = [tuple(np.round(x / q)) for x in scan.points]
    assert len(keys) >= 4
    assert keys == sorted(keys)
    # residuals and gradient norms travel with their points
    X = scan.points
    points = [SurfacePoint.from_ambient(dom.core, x) for x in X]
    F = np.array([return_map(dom, p).ambient for p in points])
    assert np.allclose(scan.residuals, np.linalg.norm(F - X, axis=-1), rtol=1e-12, atol=1e-30)
    # the Newton polish reaches round-off
    assert np.all(scan.residuals <= 1e-15 * dom.core.surface_scale())
    grads = [np.linalg.norm(dom.field.tangent_gradient(p.ambient[None])[0]) for p in points]
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
    d = float(dom.field.ambient_value(c.ambient))
    S = shape_at(dom.core, c)
    R = np.linalg.inv(np.eye(S.shape[0]) - d * S)
    R = 0.5 * (R + R.T)
    g = frame.vectors @ dom.field.ambient_grad(c.ambient)
    w = step_scale * d * (R @ g)
    if second_order:
        H = hessian_at(dom.field, c)
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
    n = _outer_geometry_batch(dom, c.ambient[None])[1][0]
    normal = np.linalg.norm(n + dom.core.normal(c.ambient) - m)
    return first, total, transverse, normal


@pytest.mark.parametrize("step_scale", [CLASSICAL_STEP_SCALE, MEASURED_STEP_SCALE])
def test_residuals_agree_with_frame_formulas_on_tilted_ellipsoid(step_scale):
    # the (grad d . nu) S term of Hess d is nonzero only off the umbilic cores
    for x in _residual_points(TILTED.core, n=10, seed=9):
        c = SurfacePoint.from_ambient(TILTED.core, x)
        first, total, transverse, normal = _frame_residuals(TILTED, c, step_scale)
        assert abs(residuals(TILTED, c, "first_order", step_scale)[0] - first) < 1e-14
        got_total, got_transverse = residuals(TILTED, c, "second_order", step_scale)
        assert abs(got_total - total) < 1e-14
        assert abs(got_transverse - transverse) < 1e-14
        assert abs(residuals(TILTED, c, "normal")[0] - normal) < 1e-14


def test_second_order_residual_in_the_zonal_profile_pole_band():
    # 5e-5 from the pole a P2 profile of w has the Legendre field's closed-form Hess d
    fld = ZonalProfileField(SPHERE, 0.5, g=lambda w: 0.01 * (1.5 * w * w - 0.5),
                            dg=lambda w: 0.03 * w, d2g=lambda w: np.full_like(w, 0.03))
    c = pt(SPHERE, 5e-5, 0.3)
    total, transverse = residuals(RadialDomain(SPHERE, fld), c, "second_order")
    assert abs(total / 1.5432765468984404e-06 - 1.0) < 1e-9
    assert abs(total / residuals(zonal_domain(), c, "second_order")[0] - 1.0) < 1e-12
    assert np.isfinite(transverse)


@pytest.mark.parametrize("n_eps", [1, 3, 5])
def test_residual_sweep_makes_one_kernel_call_per_sweep(monkeypatch, n_eps):
    # every (epsilon, sample) row goes through one call of the return leg;
    # the normal kind reads the outer normals alone and makes none
    calls, leg = [], dynamics._return_leg_rows

    def counted(core, X, d, G):
        calls.append(len(X))
        return leg(core, X, d, G)

    monkeypatch.setattr(dynamics, "_return_leg_rows", counted)
    charts = np.array([[1.1, 0.3], [0.7, 2.0], [2.0, 4.0], [0.5, 5.0]])
    eps_list = [1e-1, 3e-2, 1e-2, 3e-3, 1e-3][:n_eps]
    for kind, expected in (("first_order", [4 * n_eps]), ("second_order", [4 * n_eps]), ("normal", [])):
        calls.clear()
        residual_sweep(SPHERE, lambda e: ZonalLegendreField(SPHERE, 0.5, e), eps_list, charts, kind=kind)
        assert calls == expected


SWEEP_EPS = [1e-1, 3e-2, 1e-2, 3e-3, 1e-3]
FIELD_FAMILIES = {
    "sphere": (SPHERE, lambda e: ZonalLegendreField(SPHERE, 0.5, e)),
    "probe_ellipsoid": (ELLIPSOID, lambda e: ZonalLegendreField(ELLIPSOID, 0.25, e)),
    "tilted_ellipsoid": (TILTED_CORE, lambda e: ZonalLegendreField(TILTED_CORE, 0.25, e, axis=(0.3, 0.5, 0.8))),
    "fourier_circle": (CIRCLE, lambda e: Fourier2DField(CIRCLE, 0.5, [(2, e), (3, 0.4 * e)])),
}


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("name", sorted(FIELD_FAMILIES))
def test_stacked_residual_rows_equal_per_field_batches(name, kind):
    # the tilted ellipsoid takes retract_batch's Newton loop, whose rows stop
    # at different steps, across the stacked rows of all fields
    core, factory = FIELD_FAMILIES[name]
    X = _residual_points(core, n=8)
    fields = [factory(e) for e in SWEEP_EPS]
    total, transverse = analysis._expansion_residual_rows(core, fields, X, MEASURED_STEP_SCALE, kind)
    assert total.shape == transverse.shape == (len(fields), X.shape[0])
    for i, fld in enumerate(fields):
        t1, tr1 = expansion_residual_batch(RadialDomain(core, fld), X, MEASURED_STEP_SCALE, kind)
        assert np.array_equal(total[i], t1) and np.array_equal(transverse[i], tr1)


@pytest.mark.parametrize("name", sorted(FIELD_FAMILIES))
def test_residual_sweep_equals_per_epsilon_batches_and_fits(name):
    # the sweep's one batch and one fit give the per-epsilon batches' means and
    # the per-column fits bit for bit
    core, factory = FIELD_FAMILIES[name]
    X = _residual_points(core, n=6)
    charts = core.chart_from_ambient(X)
    floor = analysis.SLOPE_FLOOR_FACTOR * core.surface_scale()
    rep = residual_sweep(core, factory, SWEEP_EPS, charts, kind="second_order")
    Xc = core.ambient_from_chart(charts)
    res = np.array([expansion_residual_batch(RadialDomain(core, factory(e)), Xc, kind="second_order")
                    for e in SWEEP_EPS])
    assert rep.residual_norms == list(res[:, 0].mean(axis=1))
    assert rep.transverse_residual_norms == list(res[:, 1].mean(axis=1))
    assert rep.fitted_slope == fit_loglog(SWEEP_EPS, res[:, 0].mean(axis=1), floor)[0]
    assert rep.transverse_slope == fit_loglog(SWEEP_EPS, res[:, 1].mean(axis=1), floor)[0]
    assert rep.per_sample_slopes.tolist() == [fit_loglog(SWEEP_EPS, res[:, 0, j], floor)[0]
                                             for j in range(Xc.shape[0])]


def test_fit_loglog_columns_equal_per_column_fits():
    rng = np.random.default_rng(11)
    xs = np.array([1e-1, 3e-2, 1e-2, 3e-3, 1e-3, 3e-4])
    for _ in range(200):
        k = int(rng.integers(1, 9))
        ys = np.exp(rng.uniform(-40.0, 0.0, size=(xs.size, k)))
        # some columns keep every point, some share a mask, some keep one or none
        ys[rng.uniform(size=ys.shape) < 0.25] = 1e-20
        ys[:, rng.uniform(size=k) < 0.2] = 1e-20
        slopes, used = fit_loglog(xs, ys, 1e-13)
        assert slopes.shape == used.shape == (k,)
        for j in range(k):
            s1, u1 = fit_loglog(xs, ys[:, j], 1e-13)
            assert slopes[j] == s1 and used[j] == u1
    slopes, used = fit_loglog(xs, np.full((xs.size, 2), 1e-20), 1e-13)
    assert np.all(slopes == np.inf) and np.all(used == 0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_fit_loglog_rejects_non_finite_values(bad):
    # a nan once read as "vanishes at all tested scales" (slope +inf) and an inf gave a nan slope
    with pytest.raises(ValueError, match="non-finite"):
        fit_loglog([1.0, 2.0, 3.0], [bad, 1.0, 2.0], 0.0)
    with pytest.raises(ValueError, match="non-finite"):
        fit_loglog([1.0, 2.0, 3.0], [[1.0, 1.0], [2.0, bad], [3.0, 4.0]], 0.0)


def test_residual_sweep_rejects_an_empty_epsilon_list():
    with pytest.raises(ValueError, match="epsilon"):
        residual_sweep(SPHERE, lambda e: ZonalLegendreField(SPHERE, 0.5, e), [], [[1.1, 0.3]])


def test_residual_sweep_rejects_an_empty_sample_set():
    # runs under the suite's error::RuntimeWarning filter: no mean of an empty set
    for charts in ([], np.empty((0, 2))):
        with pytest.raises(ValueError, match="sample"):
            residual_sweep(SPHERE, lambda e: ZonalLegendreField(SPHERE, 0.5, e), [1e-1, 1e-2], charts)


def test_residual_sweep_rejects_a_field_on_another_core():
    with pytest.raises(ValueError, match="different core"):
        residual_sweep(SPHERE, lambda e: ZonalLegendreField(ELLIPSOID, 0.25, e), [1e-1, 1e-2], [[1.1, 0.3]])


@pytest.mark.parametrize("kind", KINDS)
def test_expansion_residuals_reject_nonpositive_thickness(kind):
    dom = zonal_domain(d0=0.1, eps=0.5)  # d < 0 at the equator
    c = pt(SPHERE, np.pi / 2, 0.0)
    with pytest.raises(InadmissibleThickness):
        expansion_residual_batch(dom, c.ambient[None], kind=kind)


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
    assert (scan.points.shape, scan.residuals.shape, scan.continuum, scan.unresolved) == ((0, 3), (0,), False, 0)
    scan = find_fixed_points(zonal_domain(), n_seeds=0)
    assert scan.points.shape == (0, 3) and scan.grad_norms.shape == (0,)
    assert not scan.continuum and scan.unresolved == 0


def test_zero_rows_give_empty_stacks_without_a_map_call(monkeypatch):
    def no_call(X):
        raise AssertionError("no map call expected")

    F, X = BlackBoxMap(SPHERE, no_call), np.empty((0, 3))
    analysis._require_fixed(F, X)
    assert analysis.fixed_point_jacobian(F, X, np.empty((0, 2, 3))).shape == (0, 2, 2)
    report = run_reconstruction(F, 0, X, [1.0])
    assert report.composite_ops.shape == (0, 2, 2) and report.hessians_isotropic == []
    monkeypatch.setattr(dynamics, "return_map_batch", lambda dom, X: no_call(X))
    for mode in ("fd", "analytic"):
        rep = linearize(zonal_domain(), X, mode)
        assert rep.DF.shape == (0, 2, 2) and rep.eigenvalues.shape == rep.eigen_labels.shape == (0, 2)
        assert rep.stability.shape == rep.morse_index.shape == rep.degenerate.shape == (0,)
        assert (rep.hessian is None) == (mode == "fd")


@pytest.mark.parametrize("mode", ["fd", "analytic"])
@pytest.mark.parametrize("name", ["reference_sphere", "tilted_ellipsoid", "fourier_circle"])
def test_linearize_rows_equal_batch_of_one(name, mode):
    # every fixed point the search returns, in one call and one at a time
    dom = {"reference_sphere": zonal_domain(), "tilted_ellipsoid": TILTED,
           "fourier_circle": RESIDUAL_DOMAINS["fourier_circle"]}[name]
    X = find_fixed_points(dom, n_seeds=200).points
    m = dom.core.dim - 1
    rep = linearize(dom, X, mode, step_scale=MEASURED_STEP_SCALE)
    assert len(X) >= 2 and rep.DF.shape == (len(X), m, m) and rep.eigenvalues.shape == (len(X), m)
    for i in range(len(X)):
        row, one = rep[i], linearize(dom, X[i:i + 1], mode, step_scale=MEASURED_STEP_SCALE)[0]
        assert row.DF.tobytes() == one.DF.tobytes()
        assert row.eigenvalues.tobytes() == one.eigenvalues.tobytes()
        assert (row.eigen_labels, row.stability, row.morse_index, row.degenerate) == \
            (one.eigen_labels, one.stability, one.morse_index, one.degenerate)
        assert (row.hessian is None and one.hessian is None) or row.hessian.tobytes() == one.hessian.tobytes()


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
        E = frame_at(core, c).vectors
        S = _quadric_shape_operator(core, x, E)
        assert np.abs(shape_at(core, c) - S).max() <= 1e-14
        d = float(fld.ambient_value(x))
        R = np.linalg.inv(np.eye(E.shape[0]) - d * S)
        assert np.abs(step_at(dom, c) - d * 0.5 * (R + R.T)).max() <= 1e-14
        H = E @ fld.ambient_hess(x) @ E.T + float(fld.ambient_grad(x) @ core.normal(x)) * S
        assert np.abs(hessian_at(fld, c) - 0.5 * (H + H.T)).max() <= 1e-14


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


@st.composite
def _cluster_cases(draw):
    """(points, radius): blobs with exact duplicates, integer grid points at
    distance exactly 1.0 with radius 1.0, or a shuffled chain with links
    near the radius; some rows nan, and n = 0 among the sizes."""
    dim, kind = draw(st.sampled_from([2, 3])), draw(st.sampled_from(["blobs", "grid", "chain"]))
    n = draw(st.integers(0, 40) | st.integers(200, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "grid":
        X, radius = rng.integers(0, 4, (n, dim)).astype(float), 1.0
    elif kind == "chain":
        radius = 0.01
        t = np.cumsum(rng.uniform(0.5, 1.5, n) * radius)
        X = np.zeros((n, dim))
        X[:, 0], X[:, 1] = t, 0.2 * np.sin(t)
        X = X[rng.permutation(n)]
    else:
        radius = draw(st.sampled_from([1e-4, 1e-2, 0.3]))
        centres = rng.normal(size=(int(rng.integers(1, 8)), dim))
        X = centres[rng.integers(0, len(centres), n)] + rng.normal(size=(n, dim)) * 10.0 ** -rng.integers(0, 6)
        X = X[rng.integers(0, max(n, 1), n)]  # drawn with replacement: exact duplicates
    X[rng.random(n) < draw(st.sampled_from([0.0, 0.05]))] = np.nan
    return X, radius


@settings(max_examples=60, deadline=None)
@given(case=_cluster_cases(), chunk=st.sampled_from([1, 7, 64, analysis.CLUSTER_CHUNK]))
def test_greedy_clusters_equal_depth_first_labels_on_drawn_sets(case, chunk):
    X, radius = case
    saved = analysis.CLUSTER_CHUNK
    analysis.CLUSTER_CHUNK = chunk
    try:
        labels = analysis._greedy_clusters(X, radius)
    finally:
        analysis.CLUSTER_CHUNK = saved
    assert labels.shape == (X.shape[0],)
    assert np.array_equal(labels, _depth_first_clusters(X, radius))


@settings(max_examples=60, deadline=None)
@given(sizes=st.lists(st.integers(1, 6), min_size=1, max_size=30), seed=st.integers(0, 2**32 - 1),
       with_nan=st.booleans())
def test_least_per_label_is_the_per_label_argmin(sizes, seed, with_nan):
    # values from a few levels, so ties are common; one-row groups included
    rng = np.random.default_rng(seed)
    labels = rng.permutation(np.repeat(np.arange(len(sizes)), sizes))
    values = rng.integers(0, 3, labels.size).astype(float)
    if with_nan:
        values[rng.random(labels.size) < 0.2] = np.nan
    want = [members[np.argmin(values[members])]
            for members in (np.flatnonzero(labels == lab) for lab in range(len(sizes)))]
    assert analysis._least_per_label(labels, values).tolist() == want


@pytest.mark.parametrize("radius", [np.nan, 0.0, -1.0])
def test_greedy_clusters_need_a_positive_radius(radius):
    # dist <= radius is false for every pair at such a radius, so every row
    # would be its own cluster
    for X in (np.zeros((5, 3)), np.empty((0, 2))):
        with pytest.raises(ValueError, match="cluster radius must be positive"):
            analysis._greedy_clusters(X, radius)


@pytest.mark.parametrize("tol", [np.nan, 0.0, -1e-10])
def test_fixed_point_search_needs_a_positive_tol(tol):
    # the search clusters its polished points at radius 10 tol; a tol that is
    # not positive stops it before any clustering
    F = BlackBoxMap.wrap_domain(zonal_domain())
    with pytest.raises(ValueError, match="must be positive"):
        analysis.fixed_point_search(F, 20, tol=tol)
