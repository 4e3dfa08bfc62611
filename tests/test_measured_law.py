"""Characterization of the exact ray mechanism's measured step law.

The classical descent model predicts F(c) ~ c - 2 d (I - dS)^-1 grad d.
Exact ray geometry disagrees: the shell's inward normal is exactly
(-nu + m)/|..| with m = (I - dS)^-1 grad d, so the landing displacement
tilts ALONG the preconditioned gradient:

    F(c) = retract(c, + d(c) (I - d(c) S)^-1 grad d(c)) + O(|grad d|^3),
    DF(c*) = I + d (I - dS)^-1 Hess d(c*)  at fixed points.

Consequently the dynamics climbs the thickness field: maxima attract,
minima/saddles repel, and d is a nondecreasing Lyapunov function.  These
tests pin that law quantitatively; test_acceptance.py states the reference
criteria in it, and all pass except criterion 2 (Morse index).
"""

import numpy as np

from shellmap import (
    MEASURED_STEP_SCALE,
    BlackBoxMap,
    ConvexCore,
    Fourier2DField,
    RadialDomain,
    ScaledField,
    SumField,
    SurfacePoint,
    ZonalLegendreField,
    estimate_composite_operator,
    frame_at,
    iterate_orbit,
    linearize_analytic,
    linearize_fd,
    reconstruct_hessian_isotropic,
    residual_sweep,
    return_map,
    thickness_step_stats,
)
from shellmap.analysis import step_operator_batch
from shellmap.surfaces import fibonacci_chart_grid, shape_operator_batch

SPHERE = ConvexCore.sphere(1.0)
CIRCLE = ConvexCore.circle(1.0)
ELLIPSOID = ConvexCore.ellipsoid(2.0, 1.0, 1.0)
D0, EPS = 0.5, 0.01
EPS_SWEEP = [1e-1, 3e-2, 1e-2, 3e-3, 1e-3]


def pt(core, *chart):
    return SurfacePoint.from_chart(core, *chart)


def operators_at(dom, p):
    """(d, S, G, Hess d) at p in frame_at's frame, from the batched operators
    on a batch of one."""
    X, E = p.ambient[None], frame_at(dom.core, p).vectors[None]
    d = dom.field.ambient_value(X)
    return (float(d[0]), shape_operator_batch(dom.core, X, E)[0], step_operator_batch(dom.core, X, d, E)[0],
            dom.field.surface_hessian_batch(X, E)[0])


def asymmetric_field(core, d0, eps):
    """Two zonal bumps about skew axes: no rotational symmetry."""
    return SumField([
        ZonalLegendreField(core, d0, eps),
        ZonalLegendreField(core, 0.0, eps, axis=(1.0, 1.0, 1.0)),
    ])


# ---------------------------------------------------------------------------
# the step law
# ---------------------------------------------------------------------------

def test_step_law_third_order_on_sphere():
    charts = np.array([[1.1, 0.3], [0.7, 2.0], [2.0, 4.0]])
    rep = residual_sweep(SPHERE, lambda e: ZonalLegendreField(SPHERE, D0, e),
                         EPS_SWEEP, charts, step_scale=MEASURED_STEP_SCALE)
    assert rep.fitted_slope > 2.5
    assert np.all(rep.per_sample_slopes > 2.5)


def test_step_law_third_order_on_ellipsoid():
    charts = np.array([[1.1, 0.7], [0.8, 2.1], [1.9, 3.9]])
    rep = residual_sweep(ELLIPSOID, lambda e: ZonalLegendreField(ELLIPSOID, 0.3, e),
                         EPS_SWEEP, charts, step_scale=MEASURED_STEP_SCALE)
    assert rep.fitted_slope > 2.5


def test_step_law_asymmetric_field():
    charts = np.array([[0.9, 0.7], [1.5, 2.9]])
    rep = residual_sweep(SPHERE, lambda e: asymmetric_field(SPHERE, D0, e),
                         EPS_SWEEP, charts, step_scale=MEASURED_STEP_SCALE)
    assert rep.fitted_slope > 2.5


def test_displacement_parallel_to_preconditioned_gradient_everywhere():
    # the chord is d nu + t n exactly, so its tangential part lies along
    # m = (I-dS)^-1 grad d on every core; transverse-to-m component ~ 0
    for core, fld in (
        (SPHERE, asymmetric_field(SPHERE, D0, EPS)),
        (ELLIPSOID, ZonalLegendreField(ELLIPSOID, 0.3, EPS)),
    ):
        dom = RadialDomain(core, fld)
        for ch in fibonacci_chart_grid(core, 40):
            p = SurfacePoint.from_chart(core, ch)
            frame = frame_at(core, p)
            g = frame.vectors @ fld.ambient_grad(p.ambient)
            if np.linalg.norm(g) < 1e-6:
                continue
            d, S, _, _ = operators_at(dom, p)
            m = np.linalg.solve(np.eye(len(g)) - d * S, g)
            mhat = m / np.linalg.norm(m)
            disp = frame.vectors @ (return_map(dom, p).ambient - p.ambient)
            transverse = disp - mhat * float(disp @ mhat)
            assert np.linalg.norm(transverse) < 1e-12


def test_gradient_orthogonal_component_vanishes_on_sphere_only():
    # on the umbilic core m is parallel to grad d, so the displacement has
    # no gradient-orthogonal part; on the ellipsoid it does (the
    # preconditioner rotates the step off the raw gradient direction)
    def max_grad_orthogonal(core, fld):
        dom = RadialDomain(core, fld)
        worst = 0.0
        for ch in fibonacci_chart_grid(core, 30):
            p = SurfacePoint.from_chart(core, ch)
            frame = frame_at(core, p)
            g = frame.vectors @ fld.ambient_grad(p.ambient)
            if np.linalg.norm(g) < 1e-6:
                continue
            ghat = g / np.linalg.norm(g)
            disp = frame.vectors @ (return_map(dom, p).ambient - p.ambient)
            worst = max(worst, float(np.linalg.norm(disp - ghat * float(disp @ ghat))))
        return worst

    assert max_grad_orthogonal(SPHERE, asymmetric_field(SPHERE, D0, EPS)) < 1e-13
    assert max_grad_orthogonal(ELLIPSOID, ZonalLegendreField(ELLIPSOID, 0.3, EPS)) > 1e-5


# ---------------------------------------------------------------------------
# the linearization law DF = I + d (I-dS)^-1 Hess
# ---------------------------------------------------------------------------

def test_linearization_law_zonal_sphere():
    dom = RadialDomain(SPHERE, ZonalLegendreField(SPHERE, D0, EPS))
    for chart in ((np.pi / 2, 0.0), (0.0, 0.0), (np.pi, 1.0)):
        p = pt(SPHERE, *chart)
        fd = linearize_fd(dom, p)
        _, _, G, H = operators_at(dom, p)
        assert np.abs(fd.DF - (np.eye(2) + G @ H)).max() < 1e-6


def test_linearization_law_anisotropic_core():
    dom = RadialDomain(ELLIPSOID, ZonalLegendreField(ELLIPSOID, 0.3, EPS))
    p = pt(ELLIPSOID, np.pi / 2, 0.8)   # on the critical circle, S anisotropic
    fd = linearize_fd(dom, p)
    an = linearize_analytic(dom, p, step_scale=MEASURED_STEP_SCALE)
    assert np.abs(fd.DF - an.DF).max() < 1e-5


def test_linearization_law_with_noncommuting_factors():
    # a skew zonal axis on a triaxial core puts a fixed point where the
    # rank-1 Hessian eigenframe is rotated off the principal curvature
    # frame, so the step operator and the Hessian genuinely fail to commute
    core = ConvexCore.ellipsoid(2.0, 1.3, 0.8)
    fld = ZonalLegendreField(core, 0.3, EPS, axis=(1.0, 1.0, 1.0))
    dom = RadialDomain(core, fld)
    u = np.array([1.0, -1.0, 0.0]) / np.sqrt(2)     # on the critical circle
    p = SurfacePoint.from_ambient(core, core.axes * u)
    _, _, G, H = operators_at(dom, p)
    assert np.abs(G @ H - H @ G).max() > 1e-4
    fd = linearize_fd(dom, p)
    an = linearize_analytic(dom, p, step_scale=MEASURED_STEP_SCALE)
    assert np.abs(fd.DF - an.DF).max() < 1e-6


def test_equator_eigenvalues_measured_values():
    dom = RadialDomain(SPHERE, ZonalLegendreField(SPHERE, D0, EPS))
    rep = linearize_fd(dom, pt(SPHERE, np.pi / 2, 0.0))
    a_eq = 2 * (D0 - EPS / 2) / (1 + D0 - EPS / 2)
    expected = sorted([1.0 + 3.0 * (a_eq / 2.0) * EPS, 1.0])
    assert np.abs(np.sort(rep.eigenvalues.real) - expected).max() < 1e-6
    assert abs(max(expected) - 1.0099331103678929) < 1e-12


def test_pole_is_attracting_with_measured_rate():
    dom = RadialDomain(SPHERE, ZonalLegendreField(SPHERE, D0, EPS))
    rep = linearize_fd(dom, pt(SPHERE, 0.0, 0.0))
    a_pole = 2 * (D0 + EPS) / (1 + D0 + EPS)
    expected = 1.0 - 3.0 * (a_pole / 2.0) * EPS
    assert rep.stability == "Attracting"
    assert np.abs(rep.eigenvalues.real - expected).max() < 1e-6


def test_circle_fixed_point_derivatives():
    # d = 0.5 + 0.01 cos(2 theta): F'(theta*) = 1 + [d/(1+d)] d''(theta*)
    dom = RadialDomain(CIRCLE, Fourier2DField(CIRCLE, 0.5, [(2, 0.01)]))
    for theta, ddpp in ((0.0, -0.04), (np.pi / 2, 0.04)):
        p = pt(CIRCLE, theta)
        rep = linearize_fd(dom, p)
        d = operators_at(dom, p)[0]
        expected = 1.0 + d / (1.0 + d) * ddpp
        assert abs(rep.DF[0, 0] - expected) < 1e-6


# ---------------------------------------------------------------------------
# ascent dynamics
# ---------------------------------------------------------------------------

def test_thickness_is_a_lyapunov_function_increasing():
    dom = RadialDomain(SPHERE, asymmetric_field(SPHERE, D0, EPS))
    X = SPHERE.ambient_from_chart(fibonacci_chart_grid(SPHERE, 2000))
    d0, d1, disp = thickness_step_stats(dom, X)
    assert np.all(d1 >= d0 - 1e-12)
    assert np.mean(d1 > d0 + 1e-12) > 0.99


def test_orbits_terminate_at_local_maxima():
    dom = RadialDomain(SPHERE, ZonalLegendreField(SPHERE, D0, EPS))
    rec = iterate_orbit(dom, pt(SPHERE, 2.5, 1.0).ambient, tol=1e-10)
    assert rec.status == "converged"
    assert SPHERE.chart_from_ambient(rec.points[-1])[0] > np.pi - 1e-3      # south pole
    assert abs(rec.thickness_values[-1] - (D0 + EPS)) < 1e-6


def test_scaling_law_norm_ratio_formula():
    # |F_{lam d} - c| / |F_d - c| = lam^2 (1 + d)/(1 + lam d) + O(eps) on
    # the unit sphere; the classical lam^2 claim is its thin-shell limit
    lam = 2.0
    for d0 in (0.5, 0.05):
        fld = ZonalLegendreField(SPHERE, d0, 1e-4)
        dom1 = RadialDomain(SPHERE, fld)
        dom2 = RadialDomain(SPHERE, ScaledField(lam, fld))
        p = pt(SPHERE, 1.0, 0.3)
        r1 = np.linalg.norm(return_map(dom1, p).ambient - p.ambient)
        r2 = np.linalg.norm(return_map(dom2, p).ambient - p.ambient)
        predicted = lam**2 * (1 + d0) / (1 + lam * d0)
        assert abs(r2 / r1 - predicted) < 0.01 * predicted


def test_isotropic_reconstruction_with_signed_gain():
    # the measured isotropic gain on the unit sphere is -d/(1+d); dividing
    # the composite by it recovers the thickness Hessian
    dom = RadialDomain(SPHERE, ZonalLegendreField(SPHERE, D0, EPS))
    F = BlackBoxMap.wrap_domain(dom)
    p = pt(SPHERE, np.pi / 2, 0.0)
    frame = frame_at(SPHERE, p)
    C = estimate_composite_operator(F, p, frame)
    d, _, _, H = operators_at(dom, p)
    rec = reconstruct_hessian_isotropic(C, -d / (1 + d), "known_measured")
    assert np.abs(rec.hessian - H).max() < 1e-3 * np.abs(H).max()


def test_measured_vs_classical_composite_ratio():
    # the classical model's composite is -2x the measured one: verify the
    # measured composite equals -(1/2) A_classical Hess to leading order
    dom = RadialDomain(SPHERE, ZonalLegendreField(SPHERE, D0, EPS))
    F = BlackBoxMap.wrap_domain(dom)
    p = pt(SPHERE, np.pi / 2, 0.0)
    frame = frame_at(SPHERE, p)
    C = estimate_composite_operator(F, p, frame)
    _, _, G, H = operators_at(dom, p)
    A = 2.0 * G
    assert np.abs(C - (-0.5) * (A @ H)).max() < 1e-6
