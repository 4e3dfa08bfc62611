"""Black-box reconstruction pipeline."""

import numpy as np
import pytest

from shellmap import (
    BlackBoxMap,
    ConstantField,
    ConvexCore,
    Fourier2DField,
    RadialDomain,
    ScaledField,
    SurfacePoint,
    ZonalLegendreField,
    basin_decomposition,
    detect_fixed_points_blackbox,
    dynamical_equivalence_check,
    estimate_composite_operator,
    find_fixed_points,
    frame_at,
    reconstruct_hessian_isotropic,
    recover_descent_field,
    run_reconstruction,
    scaling_ambiguity_diagnostic,
    shape_operator_at,
)
from shellmap import inverse
from shellmap.surfaces import fibonacci_chart_grid

SPHERE = ConvexCore.sphere(1.0)
CIRCLE = ConvexCore.circle(1.0)
ELLIPSOID = ConvexCore.ellipsoid(2.0, 1.0, 1.0)

D0, EPS = 0.5, 0.01
A_EQ = 2 * (D0 - EPS / 2) / (1 + D0 - EPS / 2)
A_POLE = 2 * (D0 + EPS) / (1 + D0 + EPS)


def zonal_box(d0=D0, eps=EPS, core=SPHERE, axis=(0.0, 0.0, 1.0)):
    dom = RadialDomain(core, ZonalLegendreField(core, d0, eps, axis=axis))
    return BlackBoxMap.wrap_domain(dom), dom


def pts(core, charts):
    return [SurfacePoint.from_chart(core, ch) for ch in np.atleast_2d(charts)]


# ---------------------------------------------------------------------------
# descent-field recovery
# ---------------------------------------------------------------------------

def test_constant_field_all_samples_skipped():
    dom = RadialDomain(SPHERE, ConstantField(SPHERE, 0.5))
    F = BlackBoxMap.wrap_domain(dom)
    samples = pts(SPHERE, fibonacci_chart_grid(SPHERE, 30))
    results, skipped = recover_descent_field(F, samples)
    assert not results and len(skipped) == 30


def test_empty_sample_lists_keep_empty_results():
    F, _ = zonal_box()
    assert recover_descent_field(F, []) == ([], [])
    diag = scaling_ambiguity_diagnostic(F, F, [])
    assert diag.verdict == "DifferentLineField"
    assert diag.skipped == 0
    assert diag.cosines.size == 0 and diag.norm_ratios.size == 0
    assert np.isnan(diag.mean_cosine) and diag.max_norm_difference == 0.0


def _worst_angle_to_preconditioned(F, dom, charts):
    results, _ = recover_descent_field(F, pts(dom.core, charts))
    worst = 0.0
    for p, direction in results:
        frame = frame_at(dom.core, p)
        d = dom.field.eval(p)
        S = shape_operator_at(dom.core, p, frame)
        g = dom.field.surface_gradient(p, frame)
        m = np.linalg.solve(np.eye(len(g)) - d * S, g) @ frame.vectors
        ref = m / np.linalg.norm(m)
        worst = max(worst, float(np.arccos(np.clip(np.dot(direction, ref), -1, 1))))
    return worst


def test_recovered_directions_exact_on_sphere():
    # umbilic core: the tangential displacement is parallel to grad d at
    # every order, so the recovered direction matches exactly
    charts = np.array([[1.1, 0.4], [0.7, 2.2], [2.1, 5.0]])
    for eps in (3e-2, 1e-3):
        F, dom = zonal_box(0.5, eps)
        assert _worst_angle_to_preconditioned(F, dom, charts) < 1e-6


def test_recovered_directions_exact_on_ellipsoid():
    # the displacement chord is d nu + t n with n's tangential part parallel
    # to (I - dS)^-1 grad d, so the recovered direction is exact on any core
    charts = np.array([[1.1, 0.4], [0.7, 2.2], [2.1, 5.0]])
    for eps in (3e-2, 1e-2, 1e-3):
        F, dom = zonal_box(0.3, eps, ELLIPSOID)
        assert _worst_angle_to_preconditioned(F, dom, charts) < 1e-6


def test_ellipsoid_direction_is_preconditioned_not_plain_gradient():
    F, dom = zonal_box(0.4, 1e-3, ELLIPSOID)
    p = SurfacePoint.from_chart(ELLIPSOID, 1.0, 0.8)
    results, _ = recover_descent_field(F, [p])
    (_, direction), = results
    frame = frame_at(ELLIPSOID, p)
    d = dom.field.eval(p)
    S = shape_operator_at(ELLIPSOID, p, frame)
    g = dom.field.surface_gradient(p, frame)
    m = np.linalg.solve(np.eye(2) - d * S, g) @ frame.vectors
    gamb = g @ frame.vectors
    cos_pre = float(np.dot(direction, m / np.linalg.norm(m)))
    cos_plain = float(np.dot(direction, gamb / np.linalg.norm(gamb)))
    assert cos_pre > 0.9999
    assert cos_pre > cos_plain + 1e-4


# ---------------------------------------------------------------------------
# black-box fixed points
# ---------------------------------------------------------------------------

def test_blackbox_matches_whitebox_clusters():
    F, dom = zonal_box()
    black = detect_fixed_points_blackbox(F, 300, tol=1e-10)
    white = find_fixed_points(dom, 300, tol=1e-10)
    assert len(black.points) == len(white.points)
    for b, w in zip(black.points, white.points):
        assert np.linalg.norm(b.ambient - w.ambient) < 1e-12


def test_blackbox_constant_continuum():
    dom = RadialDomain(SPHERE, ConstantField(SPHERE, 0.5))
    scan = detect_fixed_points_blackbox(BlackBoxMap.wrap_domain(dom), 200, tol=1e-10)
    assert scan.continuum


def test_blackbox_circle_four_points():
    dom = RadialDomain(CIRCLE, Fourier2DField(CIRCLE, 0.5, [(2, 0.01)]))
    scan = detect_fixed_points_blackbox(BlackBoxMap.wrap_domain(dom), 360, tol=1e-10)
    assert len(scan.points) == 4


# ---------------------------------------------------------------------------
# composite operator and isotropic reconstruction
# ---------------------------------------------------------------------------

def test_composite_constant_field_zero():
    dom = RadialDomain(SPHERE, ConstantField(SPHERE, 0.5))
    F = BlackBoxMap.wrap_domain(dom)
    C = estimate_composite_operator(F, SurfacePoint.from_chart(SPHERE, 1.0, 0.0))
    assert np.abs(C).max() < 1e-8


def test_composite_equator_measured_value():
    # the measured law gives I - DF = -(a_eq/2) Hess = -1.5 a_eq eps diag(1,0)
    F, _ = zonal_box()
    C = estimate_composite_operator(F, SurfacePoint.from_chart(SPHERE, np.pi / 2, 0.0))
    expected = -0.5 * A_EQ * 3 * EPS * np.diag([1.0, 0.0])
    assert np.abs(C - expected).max() < 1e-6


def test_composite_pole_measured_value():
    F, _ = zonal_box()
    C = estimate_composite_operator(F, SurfacePoint.from_chart(SPHERE, 0.0, 0.0))
    expected = 0.5 * A_POLE * 3 * EPS * np.eye(2)
    assert np.abs(C - expected).max() < 1e-6


def test_isotropic_round_trip_with_measured_gain():
    # composite / alpha with the signed measured gain alpha = -a/2 recovers
    # the analytic Hessian (umbilic core): eigenvalues and eigenvectors
    F, dom = zonal_box()
    for chart, Htrue in (
        ((np.pi / 2, 0.0), 3 * EPS * np.diag([1.0, 0.0])),
        ((0.0, 0.0), -3 * EPS * np.eye(2)),
    ):
        p = SurfacePoint.from_chart(SPHERE, *chart)
        frame = frame_at(SPHERE, p)
        C = estimate_composite_operator(F, p, frame)
        d = dom.field.eval(p)
        alpha_measured = -d / (1.0 + d)
        rec = reconstruct_hessian_isotropic(C, alpha_measured, "known_measured")
        Hana = dom.field.surface_hessian(p, frame)
        assert np.abs(rec.hessian - Hana).max() < 1e-3 * max(np.abs(Hana).max(), 1e-12) + 1e-9
        big = np.argmax(np.abs(rec.eigenvalues))
        lam_true = np.linalg.eigvalsh(Htrue)[np.argmax(np.abs(np.linalg.eigvalsh(Htrue)))]
        assert abs(rec.eigenvalues[big] - lam_true) < 1e-3 * abs(lam_true)


def test_alpha_scaling_ambiguity_is_exact():
    F, _ = zonal_box()
    C = estimate_composite_operator(F, SurfacePoint.from_chart(SPHERE, np.pi / 2, 0.0))
    r1 = reconstruct_hessian_isotropic(C, 0.33)
    r2 = reconstruct_hessian_isotropic(C, 0.66)
    assert np.allclose(r1.hessian, 2.0 * r2.hessian, atol=1e-15)
    assert np.allclose(np.abs(r1.eigenvectors), np.abs(r2.eigenvectors), atol=1e-12)
    assert np.array_equal(np.sign(r1.eigenvalues), np.sign(r2.eigenvalues))


def test_zero_composite_gives_zero_hessian():
    rec = reconstruct_hessian_isotropic(np.zeros((2, 2)), 0.5)
    assert np.all(rec.hessian == 0)


def test_alpha_zero_rejected():
    with pytest.raises(ValueError):
        reconstruct_hessian_isotropic(np.eye(2), 0.0)


def test_eigenvector_invariance_under_isotropy():
    # eigenvectors of the composite coincide with those of the analytic
    # Hessian on sphere cores, within 1e-3 radians
    F, dom = zonal_box()
    p = SurfacePoint.from_chart(SPHERE, np.pi / 2, 0.0)
    frame = frame_at(SPHERE, p)
    C = estimate_composite_operator(F, p, frame)
    w, V = np.linalg.eigh(0.5 * (C + C.T))
    k = np.argmax(np.abs(w))
    H = dom.field.surface_hessian(p, frame)
    wH, VH = np.linalg.eigh(H)
    kH = np.argmax(np.abs(wH))
    angle = np.arccos(np.clip(abs(float(np.dot(V[:, k], VH[:, kH]))), 0, 1))
    assert angle < 1e-3


# ---------------------------------------------------------------------------
# scaling diagnostics
# ---------------------------------------------------------------------------

def test_map_against_itself():
    F, _ = zonal_box()
    samples = pts(SPHERE, [[1.1, 0.2], [0.8, 2.0], [2.2, 4.4]])
    diag = scaling_ambiguity_diagnostic(F, F, samples)
    assert np.allclose(diag.cosines, 1.0)
    assert np.allclose(diag.norm_ratios, 1.0)
    assert diag.verdict == "SameLineField"


def test_scaled_field_same_line_field():
    F1, dom = zonal_box(0.02, 1e-3)
    dom2 = RadialDomain(SPHERE, ScaledField(2.0, dom.field))
    F2 = BlackBoxMap.wrap_domain(dom2)
    samples = pts(SPHERE, fibonacci_chart_grid(SPHERE, 64))
    diag = scaling_ambiguity_diagnostic(F1, F2, samples)
    assert diag.verdict == "SameLineField"
    assert diag.mean_cosine > 0.999
    # step lengths scale like lambda^2 (1 + d)/(1 + lambda d) ~ lambda^2 for thin shells
    assert abs(diag.ratio_mean - 4.0 * 1.02 / 1.04) < 0.02


def test_rotated_zonal_different_line_field():
    F1, _ = zonal_box()
    F2, _ = zonal_box(axis=(1.0, 0.0, 0.0))
    samples = pts(SPHERE, [[1.1, 0.4], [0.9, 2.0], [2.0, 3.1], [1.4, 5.5]])
    diag = scaling_ambiguity_diagnostic(F1, F2, samples)
    assert diag.verdict == "DifferentLineField"


# ---------------------------------------------------------------------------
# basins
# ---------------------------------------------------------------------------

def test_zonal_basins_split_by_hemisphere():
    F, _ = zonal_box()
    seeds = pts(SPHERE, fibonacci_chart_grid(SPHERE, 200))
    lab = basin_decomposition(F, seeds, tol=1e-8, max_iters=100_000)
    live = lab.labels >= 0
    assert np.all(live)
    assert len(lab.cluster_reps) == 2
    z = np.array([p.ambient[2] for p in seeds])
    north_label = lab.labels[np.argmax(z)]
    south_label = lab.labels[np.argmin(z)]
    assert north_label != south_label
    assert np.all(lab.labels[z > 0.05] == north_label)
    assert np.all(lab.labels[z < -0.05] == south_label)
    for rep in lab.cluster_reps:
        assert abs(abs(rep.ambient[2]) - 1.0) < 1e-3


def test_constant_field_every_seed_its_own_fixed_point():
    dom = RadialDomain(SPHERE, ConstantField(SPHERE, 0.5))
    F = BlackBoxMap.wrap_domain(dom)
    seeds = pts(SPHERE, fibonacci_chart_grid(SPHERE, 50))
    lab = basin_decomposition(F, seeds, tol=1e-8)
    assert lab.continuum
    assert len(set(lab.labels.tolist())) == 50


def test_circle_two_basins_end_at_maxima():
    # d = 0.5 + 0.01 cos(2 theta): maxima at theta = 0 and pi; the dynamics
    # climbs, splitting the circle into two basins
    dom = RadialDomain(CIRCLE, Fourier2DField(CIRCLE, 0.5, [(2, 0.01)]))
    F = BlackBoxMap.wrap_domain(dom)
    rng = np.random.default_rng(5)
    thetas = rng.uniform(0, 2 * np.pi, size=180)
    thetas = thetas[np.abs(np.sin(2 * thetas)) > 1e-2][:, None]  # off the critical set
    seeds = pts(CIRCLE, thetas)
    lab = basin_decomposition(F, seeds, tol=1e-9, max_iters=100_000)
    assert np.all(lab.labels >= 0)
    assert len(lab.cluster_reps) == 2
    for rep in lab.cluster_reps:
        assert min(abs(rep.theta - 0.0), abs(rep.theta - np.pi), abs(rep.theta - 2 * np.pi)) < 1e-3


def test_basin_csv(tmp_path):
    F, _ = zonal_box()
    seeds = pts(SPHERE, fibonacci_chart_grid(SPHERE, 20))
    lab = basin_decomposition(F, seeds, tol=1e-7, max_iters=50_000)
    path = tmp_path / "basins.csv"
    lab.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "seed_theta,seed_phi,label"
    assert len(lines) == 21


def test_basin_decomposition_of_no_seeds_is_empty():
    # runs under the suite's error::RuntimeWarning filter
    def no_call(X):
        raise AssertionError("no map call expected")

    lab = basin_decomposition(BlackBoxMap(SPHERE, no_call), [])
    assert lab.seeds == [] and lab.labels.shape == (0,) and lab.cluster_reps == []
    assert not lab.continuum


# ---------------------------------------------------------------------------
# dynamical equivalence battery
# ---------------------------------------------------------------------------

def test_equivalence_map_with_its_square():
    F, _ = zonal_box()
    seeds = pts(SPHERE, fibonacci_chart_grid(SPHERE, 60))
    verdict = dynamical_equivalence_check(F, F.compose(2), seeds, n_probe=200)
    assert verdict.consistent
    assert verdict.verdict == "ConsistentWithEquivalence"


def test_equivalence_scaled_field():
    F1, dom = zonal_box()
    F2 = BlackBoxMap.wrap_domain(RadialDomain(SPHERE, ScaledField(2.0, dom.field)))
    seeds = pts(SPHERE, fibonacci_chart_grid(SPHERE, 60))
    verdict = dynamical_equivalence_check(F1, F2, seeds, n_probe=200)
    assert verdict.consistent


def test_equivalence_distinguishes_rotated_zonal():
    F1, _ = zonal_box()
    F2, _ = zonal_box(axis=(1.0, 0.0, 0.0))
    seeds = pts(SPHERE, fibonacci_chart_grid(SPHERE, 60))
    verdict = dynamical_equivalence_check(F1, F2, seeds, n_probe=200)
    assert not verdict.consistent
    assert verdict.failed_test == "fixed_points"


# ---------------------------------------------------------------------------
# full pipeline
# ---------------------------------------------------------------------------

def test_run_reconstruction_bundle(tmp_path):
    F, dom = zonal_box()
    samples = pts(SPHERE, [[1.1, 0.3], [0.8, 2.0], [2.3, 1.1]])
    report = run_reconstruction(F, 200, samples, alphas=[-0.5 * A_EQ], alpha_mode="known_measured")
    assert report.fixed_points
    assert len(report.descent_samples) == 3
    assert len(report.composite_ops) == len(report.fixed_points)
    assert all(rec.alpha_mode == "known_measured" for _, rec in report.hessians_isotropic)
    path = tmp_path / "rec.csv"
    report.to_csv(path)
    assert path.read_text().startswith("record,theta,phi,data")


def test_run_reconstruction_composites_take_one_check_and_one_stencil(monkeypatch):
    F, dom = zonal_box()
    calls = []

    def counted(X):
        calls.append(len(X))
        return F.batch(X)

    recover = inverse.recover_descent_field

    def recover_then_count(*args):
        out = recover(*args)
        calls.clear()
        return out

    monkeypatch.setattr(inverse, "recover_descent_field", recover_then_count)
    samples = pts(SPHERE, [[1.1, 0.3], [0.8, 2.0]])
    report = run_reconstruction(BlackBoxMap(SPHERE, counted), 200, samples, alphas=[1.0, 2.0])
    n = len(report.composite_ops)
    assert n >= 3 and len(report.hessians_isotropic) == 2 * n
    assert calls == [n, 2 * (SPHERE.dim - 1) * n]
    for p, C in report.composite_ops:
        assert np.array_equal(C, estimate_composite_operator(F, p))


# ---------------------------------------------------------------------------
# a black box that is not a radial domain
# ---------------------------------------------------------------------------

SHIFT = 0.1


def shift_box():
    """X -> normalize(X + 0.1 e_z) on the unit sphere: the north pole
    attracts with DF = I/1.1, the south pole repels with DF = I/0.9."""
    def batch_fn(X):
        Y = X + SHIFT * np.array([0.0, 0.0, 1.0])
        return Y / np.linalg.norm(Y, axis=-1, keepdims=True)

    return BlackBoxMap(SPHERE, batch_fn, "shift")


def test_non_domain_box_fixed_points_are_the_poles():
    scan = detect_fixed_points_blackbox(shift_box(), 200, tol=1e-10)
    assert len(scan.points) == 2
    P = np.array(sorted((p.ambient for p in scan.points), key=lambda x: x[2]))
    assert np.abs(P - np.array([[0.0, 0.0, -1.0], [0.0, 0.0, 1.0]])).max() < 1e-8


def test_non_domain_box_composite_at_north_pole():
    C = estimate_composite_operator(shift_box(), SurfacePoint.from_chart(SPHERE, 0.0, 0.0))
    assert np.abs(C - SHIFT / (1.0 + SHIFT) * np.eye(2)).max() < 1e-8


def test_non_domain_box_single_basin():
    seeds = pts(SPHERE, fibonacci_chart_grid(SPHERE, 100))
    lab = basin_decomposition(shift_box(), seeds)
    assert np.all(lab.labels == 0)
    assert len(lab.cluster_reps) == 1
    assert np.linalg.norm(lab.cluster_reps[0].ambient - [0.0, 0.0, 1.0]) < 1e-3


@pytest.mark.parametrize("k", [1, 2])
def test_box_call_is_a_batch_row_bit_for_bit(k):
    charts = fibonacci_chart_grid(SPHERE, 40)
    X = SPHERE.ambient_from_chart(charts)
    for F in (shift_box().compose(k), zonal_box()[0].compose(k)):
        Y = F.batch(X)
        for i, ch in enumerate(charts):
            assert np.array_equal(F(SurfacePoint.from_chart(SPHERE, ch)).ambient, Y[i])

