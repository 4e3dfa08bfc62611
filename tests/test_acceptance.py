"""Acceptance gate: eleven reference criteria, one test per criterion.

Each criterion is asserted at its stated tolerance against the exact ray
dynamics, and prints one PASS/FAIL line (run with -s to see them on
success).

The return leg is the shell's inward normal (README, "The measured step
law"), so the criteria are stated in the law that mechanism follows:

    F(c) = retract(c, + d (I - dS)^-1 grad d) + O(|grad d|^3),
    DF(c*) = I + d (I - dS)^-1 Hess d(c*)  at fixed points.

The map climbs d: maxima attract, and on the unit sphere the gain is
G = d/(1+d), half the abstract's A(c*) = 2d (I - dS)^-1.  Criteria 1 and 2
check their closed-form eigenvalues against a self-contained ray oracle
in the meridian plane, the arithmetic criterion 11 uses on the circle.

Criterion 2 fails on its Morse index: linearize's fd mode has no
Hessian and divides I - DF by A, which for this map gives -Hess d / 2,
so it counts the index of -d (0 at the pole, not 2).
"""

import time

import numpy as np
import pytest

from shellmap import (
    BlackBoxMap,
    MEASURED_STEP_SCALE,
    ConvexCore,
    Fourier2DField,
    RadialDomain,
    ScaledField,
    SurfacePoint,
    ZonalLegendreField,
    dynamical_equivalence_check,
    estimate_composite_operator,
    find_fixed_points,
    fixed_point_search,
    frame_at,
    iterate_batch,
    linearize_fd,
    preconditioner_series_residual,
    reconstruct_hessian_isotropic,
    residual_sweep,
    scaling_ambiguity_diagnostic,
    thickness_step_stats,
)
from shellmap.surfaces import fibonacci_chart_grid

SPHERE = ConvexCore.sphere(1.0)
CIRCLE = ConvexCore.circle(1.0)
ELLIPSOID = ConvexCore.ellipsoid(2.0, 1.0, 1.0)

D0, EPS = 0.5, 0.01
# the abstract's A(c*) = 2d (I - dS)^-1 at the equator and the pole
A_EQ = 2 * (D0 - EPS / 2) / (1 + D0 - EPS / 2)
A_POLE = 2 * (D0 + EPS) / (1 + D0 + EPS)
# gain d (I - dS)^-1 = d/(1+d) of the step law DF = I + G Hess d there
G_EQ = (D0 - EPS / 2) / (1 + D0 - EPS / 2)
G_POLE = (D0 + EPS) / (1 + D0 + EPS)
EPS_SWEEP = [1e-1, 3e-2, 1e-2, 3e-3, 1e-3]

GOLDEN = np.pi * (3.0 - np.sqrt(5.0))
OFF_CRITICAL_CHARTS = np.stack(
    [0.35 + 0.09 * np.arange(10), np.mod(GOLDEN * np.arange(10), 2 * np.pi)], axis=-1
)


def reference_domain():
    return RadialDomain(SPHERE, ZonalLegendreField(SPHERE, D0, EPS))


def _criterion(num, desc, checks):
    ok = all(c[1] for c in checks)
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num:02d}: {desc}")
    for label, good, detail in checks:
        print(f"    {'ok  ' if good else 'FAIL'} {label}: {detail}")
    assert ok, f"criterion {num} failed: " + "; ".join(
        f"{label} ({detail})" for label, good, detail in checks if not good
    )


def _ray_return_angle(theta, r, dr):
    """Return-map angle of the planar shell r(theta), by self-contained ray
    arithmetic: out along the radius, back along the shell's inward normal
    to the first hit on the unit circle."""
    ct, st = np.cos(theta), np.sin(theta)
    x = np.stack([r * ct, r * st], axis=-1)
    # shell tangent r'(cos,sin) + r(-sin,cos); inward normal toward origin
    tx = dr * ct - r * st
    ty = dr * st + r * ct
    nx, ny = ty, -tx
    flip = nx * x[..., 0] + ny * x[..., 1] > 0
    nx = np.where(flip, -nx, nx)
    ny = np.where(flip, -ny, ny)
    norm = np.hypot(nx, ny)
    nx, ny = nx / norm, ny / norm
    B = 2.0 * (x[..., 0] * nx + x[..., 1] * ny)
    C = x[..., 0] ** 2 + x[..., 1] ** 2 - 1.0
    s = (-B - np.sqrt(B * B - 4.0 * C)) / 2.0
    return np.arctan2(x[..., 1] + s * ny, x[..., 0] + s * nx)


def _wrap(a):
    return np.angle(np.exp(1j * np.asarray(a)))


def _oracle_slope(angle_map, theta, h=1e-5):
    """Central-difference derivative of an oracle return angle."""
    return float(_wrap(angle_map(theta + h) - angle_map(theta - h)) / (2 * h))


def _meridian_return_angle(theta):
    """Return map of the reference domain within a meridian plane.

    theta is the colatitude.  The field is zonal, so the shell's normal
    stays in the plane of the axis and the ray, and the map sends the
    meridian r(theta) = 1 + D0 + eps P2(cos theta) to itself; its slope at
    a fixed point is the meridional eigenvalue of DF.
    """
    theta = np.asarray(theta, dtype=float)
    c = np.cos(theta)
    r = 1.0 + D0 + EPS * 0.5 * (3.0 * c * c - 1.0)
    dr = -3.0 * EPS * c * np.sin(theta)
    return _ray_return_angle(theta, r, dr)


def test_criterion_01_equator_eigenvalues():
    dom = reference_domain()
    start = time.monotonic()
    rep = linearize_fd(dom, SurfacePoint.from_chart(SPHERE, np.pi / 2, 0.0))
    elapsed = time.monotonic() - start
    mu = np.sort(rep.eigenvalues.real)
    meridional = 1.0 + 3.0 * G_EQ * EPS
    expected = np.sort([meridional, 1.0])
    err = float(np.abs(mu - expected).max())
    oracle = _oracle_slope(_meridian_return_angle, np.pi / 2)
    _criterion(1, "equator eigenvalues {1 + 3 g_eq eps, 1} within 1e-4", [
        ("eigenvalue error", err < 1e-4,
         f"measured {mu.tolist()} vs expected {expected.tolist()} (err {err:.3e}; "
         f"descent model 1 - 3 a_eq eps = {1.0 - 3.0 * A_EQ * EPS:.6f})"),
        ("meridian ray oracle agrees (1e-9)", abs(oracle - meridional) < 1e-9,
         f"oracle {oracle:.12f} vs 1 + 3 g_eq eps = {meridional:.12f}"),
        ("runtime < 5 s", elapsed < 5.0, f"{elapsed:.2f} s"),
    ])


def test_criterion_02_pole_repulsion():
    dom = reference_domain()
    rep = linearize_fd(dom, SurfacePoint.from_chart(SPHERE, 0.0, 0.0))
    mu = rep.eigenvalues.real
    target = 1.0 - 3.0 * G_POLE * EPS
    err = float(np.abs(mu - target).max())
    oracle = _oracle_slope(_meridian_return_angle, 0.0)
    _criterion(2, "pole eigenvalues 1 - 3 g_pole eps; Attracting (maximum of d), index 2", [
        ("eigenvalues 1 - 3 g_pole eps (1e-4)", err < 1e-4,
         f"measured {mu.tolist()} vs {target:.7f} (err {err:.3e}; "
         f"descent model 1 + 3 a_pole eps = {1.0 + 3.0 * A_POLE * EPS:.6f})"),
        ("meridian ray oracle agrees (1e-9)", abs(oracle - target) < 1e-9,
         f"oracle {oracle:.12f} vs 1 - 3 g_pole eps = {target:.12f}"),
        ("classification Attracting", rep.stability == "Attracting", rep.stability),
        ("Morse index 2", rep.morse_index == 2, f"morse_index={rep.morse_index}"),
    ])


def _distance_to_critical_set(x):
    d_pole = min(np.linalg.norm(x - [0, 0, 1]), np.linalg.norm(x - [0, 0, -1]))
    rho = np.hypot(x[0], x[1])
    d_eq = np.hypot(rho - 1.0, x[2])
    return min(d_pole, d_eq)


def test_criterion_03_critical_set_recovery():
    F = BlackBoxMap.wrap_domain(reference_domain())
    scan = fixed_point_search(F, 600, tol=1e-10)
    P = scan.points
    worst_to_set = max(_distance_to_critical_set(x) for x in P)
    d_north = float(np.min(np.linalg.norm(P - np.array([0, 0, 1.0]), axis=1)))
    d_south = float(np.min(np.linalg.norm(P - np.array([0, 0, -1.0]), axis=1)))
    eq_dists = [np.hypot(np.hypot(x[0], x[1]) - 1.0, x[2]) for x in P]
    d_equator = float(np.min(eq_dists))
    _criterion(3, "black-box clusters recover {poles} U {equator circle} to 1e-5", [
        ("all clusters on the critical set", worst_to_set < 1e-5, f"max dist {worst_to_set:.2e}"),
        ("north pole recovered", d_north < 1e-5, f"dist {d_north:.2e}"),
        ("south pole recovered", d_south < 1e-5, f"dist {d_south:.2e}"),
        ("equator circle recovered", d_equator < 1e-5, f"dist {d_equator:.2e}"),
    ])


def test_criterion_04_first_order_remainder_order():
    rep = residual_sweep(
        SPHERE, lambda e: ZonalLegendreField(SPHERE, D0, e), EPS_SWEEP,
        OFF_CRITICAL_CHARTS, step_scale=MEASURED_STEP_SCALE, kind="first_order",
    )
    slopes = rep.per_sample_slopes
    ok = bool(np.all((slopes >= 2.85) & (slopes <= 3.15)))
    _criterion(4, "first-order remainder O(|grad d|^3): slope in [2.85, 3.15] at 10 points", [
        ("per-point slopes", ok,
         f"measured {np.round(slopes, 3).tolist()} (pooled {rep.fitted_slope:.3f})"),
    ])


def test_criterion_05_normal_expansion_order():
    rep = residual_sweep(
        SPHERE, lambda e: ZonalLegendreField(SPHERE, D0, e), EPS_SWEEP,
        OFF_CRITICAL_CHARTS, kind="normal",
    )
    slopes = rep.per_sample_slopes
    ok = bool(np.all((slopes >= 1.85) & (slopes <= 2.15)))
    _criterion(5, "inward-normal expansion residual slope in [1.85, 2.15]", [
        ("per-point slopes", ok,
         f"measured {np.round(slopes, 3).tolist()} (pooled {rep.fitted_slope:.3f})"),
    ])


def test_criterion_06_transverse_obstruction():
    sphere_rep = residual_sweep(
        SPHERE, lambda e: ZonalLegendreField(SPHERE, D0, e), EPS_SWEEP,
        OFF_CRITICAL_CHARTS[:8], step_scale=MEASURED_STEP_SCALE, kind="second_order",
    )
    ell_charts = np.stack(
        [0.45 + 0.08 * np.arange(8), 0.7 + 0.55 * np.arange(8)], axis=-1
    )
    ell_rep = residual_sweep(
        ELLIPSOID, lambda e: ZonalLegendreField(ELLIPSOID, 0.25, e), EPS_SWEEP,
        ell_charts, step_scale=MEASURED_STEP_SCALE, kind="second_order",
    )
    # the remainder lies along m = (I - dS)^-1 grad d; on a non-umbilic core
    # m has an O(1) share orthogonal to grad d, so the transverse part is
    # third order there and vanishes on the sphere
    _criterion(6, "transverse residual: sphere slope >= 2.8, ellipsoid slope 3 +- 0.3", [
        ("sphere slope >= 2.8", sphere_rep.transverse_slope >= 2.8,
         f"slope {sphere_rep.transverse_slope} (inf = vanishes identically; "
         f"max residual {max(sphere_rep.transverse_residual_norms):.2e})"),
        ("ellipsoid slope in [2.7, 3.3]",
         2.7 <= ell_rep.transverse_slope <= 3.3,
         f"measured slope {ell_rep.transverse_slope:.3f}"),
    ])


def test_criterion_07_isotropic_hessian_reconstruction():
    F = BlackBoxMap.wrap_domain(reference_domain())
    p = SurfacePoint.from_chart(SPHERE, np.pi / 2, 0.0)
    frame = frame_at(SPHERE, p)
    C = estimate_composite_operator(F, p, frame)
    # the true isotropic gain: C = I - DF = -d/(1+d) Hess d on the unit sphere
    rec = reconstruct_hessian_isotropic(C, -G_EQ, "known_measured")
    lam = rec.eigenvalues
    big = int(np.argmax(np.abs(lam)))
    small = 1 - big
    rel_err = abs(lam[big] - 3 * EPS) / (3 * EPS)
    # expected eigenvector for the nonzero eigenvalue: the theta direction
    angle = float(np.arccos(np.clip(abs(rec.eigenvectors[0, big]), 0, 1)))
    _criterion(7, "reconstructed equatorial Hessian = 3 eps diag(1,0) with true alpha", [
        ("nonzero eigenvalue within 1e-3 relative", rel_err < 1e-3,
         f"measured {lam[big]:.6e} vs 3 eps = {3 * EPS:.6e} (rel err {rel_err:.3f})"),
        ("spurious eigenvalue < 1e-6", abs(lam[small]) < 1e-6, f"{lam[small]:.2e}"),
        ("eigenvector angle < 1e-3 rad", angle < 1e-3, f"{angle:.2e} rad"),
    ])


def test_criterion_08_scaling_ambiguity():
    # thin shell: the lambda^2 step-length law holds within the stated 5%
    d0, eps, lam = 0.03, 1e-3, 2.0
    base = ZonalLegendreField(SPHERE, d0, eps)
    dom1 = RadialDomain(SPHERE, base)
    dom2 = RadialDomain(SPHERE, ScaledField(lam, base))
    F1 = BlackBoxMap.wrap_domain(dom1)
    F2 = BlackBoxMap.wrap_domain(dom2)
    rng = np.random.default_rng(0)
    charts = np.stack(
        [np.arccos(rng.uniform(-0.92, 0.92, 200)), rng.uniform(0, 2 * np.pi, 200)], axis=-1
    )
    samples = [SurfacePoint.from_chart(SPHERE, ch) for ch in charts]
    diag = scaling_ambiguity_diagnostic(F1, F2, samples)
    seeds = [SurfacePoint.from_chart(SPHERE, ch) for ch in fibonacci_chart_grid(SPHERE, 80)]
    verdict = dynamical_equivalence_check(
        F1, F2, seeds, n_probe=120, iter_tol=1e-5, max_iters=80_000
    )
    _criterion(8, "scaling d -> 2d: same line field, step ratio ~ lambda^2", [
        ("mean displacement cosine >= 0.999", diag.mean_cosine >= 0.999,
         f"{diag.mean_cosine:.6f}"),
        ("norm ratio within 5% of 4", abs(diag.ratio_mean - 4.0) <= 0.2,
         f"{diag.ratio_mean:.4f}"),
        ("ConsistentWithEquivalence", verdict.consistent, verdict.verdict),
        ("maps differ pointwise (> 1e-6)", diag.max_norm_difference > 1e-6,
         f"max norm difference {diag.max_norm_difference:.2e}"),
    ])


@pytest.mark.slow
def test_criterion_09_descent_and_convergence():
    dom = reference_domain()
    rng = np.random.default_rng(1)
    n = 10_000
    charts = np.stack(
        [np.arccos(rng.uniform(-1, 1, n)), rng.uniform(0, 2 * np.pi, n)], axis=-1
    )
    X = SPHERE.ambient_from_chart(charts)
    d0_vals, d1_vals, _ = thickness_step_stats(dom, X)
    # gradient-like: d is monotone (nondecreasing) along orbits
    violations = int(np.sum(d1_vals < d0_vals - 1e-12))

    result = iterate_batch(dom, X, max_iters=100_000, tol=1e-10)
    eq_dist = np.hypot(np.hypot(result.limits[:, 0], result.limits[:, 1]) - 1.0,
                       result.limits[:, 2])
    G = dom.field.ambient_grad(result.limits)
    nu = SPHERE.normal(result.limits)
    Gt = G - nu * np.sum(G * nu, axis=-1, keepdims=True)
    grad_ok = bool(np.all(np.linalg.norm(Gt[result.converged], axis=-1) < 1e-6))
    pole_dist = np.minimum(
        np.linalg.norm(result.limits - [0, 0, 1], axis=-1),
        np.linalg.norm(result.limits - [0, 0, -1], axis=-1),
    )
    to_poles = float(np.mean(result.converged & (pole_dist < 1e-3)))
    _criterion(9, "d is monotone along orbits and >= 99% of 1e4 seeds reach the maxima (poles)", [
        ("no step lowers d", violations == 0,
         f"{violations}/{n} steps lower d by > 1e-12 "
         f"(least change {float(np.min(d1_vals - d0_vals)):.1e})"),
        (">= 99% to the poles", to_poles >= 0.99,
         f"{to_poles:.1%} at poles; {float(np.mean(eq_dist < 1e-3)):.1%} at equator"),
        ("limit gradient norms < 1e-6", grad_ok,
         f"max {float(np.linalg.norm(Gt[result.converged], axis=-1).max()):.2e}"),
    ])


def test_criterion_10_preconditioner_series():
    res, slope = preconditioner_series_residual(
        ELLIPSOID, (1.0, 0.7), [1e-1, 3e-2, 1e-2, 3e-3]
    )
    _criterion(10, "||A - 2dI - 2d^2 S|| = O(d^3): slope in [2.85, 3.15]", [
        ("fitted slope", 2.85 <= slope <= 3.15, f"{slope:.3f}"),
    ])


# ---------------------------------------------------------------------------
# criterion 11: independent dense-scan oracle on the circle
# ---------------------------------------------------------------------------

D0_2D, EPS_2D = 0.5, 0.01


def _oracle_return_angle(theta):
    """Return-map angle computed with self-contained ray arithmetic."""
    theta = np.asarray(theta, dtype=float)
    r = 1.0 + D0_2D + EPS_2D * np.cos(2 * theta)
    dr = -2.0 * EPS_2D * np.sin(2 * theta)
    return _ray_return_angle(theta, r, dr)


def test_criterion_11_planar_brute_force_oracle():
    dom = RadialDomain(CIRCLE, Fourier2DField(CIRCLE, D0_2D, [(2, EPS_2D)]))
    F = BlackBoxMap.wrap_domain(dom)

    # oracle fixed points: dense drift scan over 1e5 angles + bisection.
    # Half-cell offset keeps the exact zeros off the grid so every root is
    # a clean sign change.
    n_grid = 100_000
    grid = (np.arange(n_grid) + 0.5) * (2 * np.pi / n_grid)
    drift = _wrap(_oracle_return_angle(grid) - grid)
    sgn = np.where(drift >= 0.0, 1, -1)
    sign_change = np.nonzero(sgn != np.roll(sgn, -1))[0]
    oracle_fp = []
    for i in sign_change:
        a = grid[i]
        b = grid[(i + 1) % n_grid] + (2 * np.pi if i + 1 >= n_grid else 0.0)
        fa = float(_wrap(_oracle_return_angle(a) - a))
        for _ in range(60):
            m = 0.5 * (a + b)
            fm = float(_wrap(_oracle_return_angle(m) - m))
            if (fm >= 0) == (fa >= 0):
                a, fa = m, fm
            else:
                b = m
        oracle_fp.append(0.5 * (a + b) % (2 * np.pi))
    oracle_fp = np.sort(np.array(oracle_fp))

    scan = find_fixed_points(dom, n_seeds=360, tol=1e-10)
    pipe_fp = np.sort(CIRCLE.chart_from_ambient(scan.points)[:, 0])
    fp_err = float(np.abs(_wrap(pipe_fp - oracle_fp)).max()) if len(pipe_fp) == len(oracle_fp) else np.inf

    checks = [
        ("four fixed points", len(pipe_fp) == 4, f"pipeline {len(pipe_fp)}, oracle {len(oracle_fp)}"),
        ("fixed-point agreement 1e-6", fp_err < 1e-6, f"max |dtheta| = {fp_err:.2e}"),
    ]
    worst_df = worst_rec = 0.0
    for theta in pipe_fp:
        dF_oracle = _oracle_slope(_oracle_return_angle, theta)
        p = SurfacePoint.from_chart(CIRCLE, theta)
        rep = linearize_fd(dom, p)
        worst_df = max(worst_df, abs(float(rep.DF[0, 0]) - dF_oracle))
        # reconstruction route: composite through the black box vs oracle
        comp = estimate_composite_operator(F, p)
        rec = reconstruct_hessian_isotropic(comp, 0.5)
        rec_oracle = (1.0 - dF_oracle) / 0.5
        worst_rec = max(worst_rec, abs(float(rec.hessian[0, 0]) - rec_oracle))
    checks.append(("DF agreement 1e-6", worst_df < 1e-6, f"max |dDF| = {worst_df:.2e}"))
    checks.append(("reconstruction agreement 1e-6", worst_rec < 1e-6, f"max = {worst_rec:.2e}"))
    _criterion(11, "planar pipeline agrees with the dense-scan ray oracle", checks)
