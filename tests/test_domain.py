"""Radial map, outer tangents, inward normals, admissibility."""

import numpy as np
import pytest

from shellmap import (
    ConstantField,
    ConvexCore,
    Fourier2DField,
    RadialDomain,
    SurfacePoint,
    ZonalLegendreField,
    admissibility_check,
    frame_at,
    retract,
)
from shellmap.domain import _outer_frames_batch, _outer_geometry_batch
from shellmap.errors import ImmersionFailure
from shellmap.surfaces import shape_operator_batch
from shellmap.harness import _Out, _task_admissibility, parse_scenario_text, resolve
from test_surfaces import _ray_hit_fresh

SPHERE = ConvexCore.sphere(1.0)
CIRCLE = ConvexCore.circle(1.0)
ELLIPSOID = ConvexCore.ellipsoid(2.0, 1.0, 1.0)


def zonal_domain(d0=0.5, eps=0.01, core=SPHERE):
    return RadialDomain(core, ZonalLegendreField(core, d0, eps))


def random_points(core, n, seed=0):
    rng = np.random.default_rng(seed)
    if core.dim == 2:
        charts = rng.uniform(0, 2 * np.pi, size=(n, 1))
    else:
        charts = np.stack(
            [np.arccos(rng.uniform(-0.95, 0.95, size=n)), rng.uniform(0, 2 * np.pi, size=n)],
            axis=-1,
        )
    return [SurfacePoint.from_chart(core, ch) for ch in charts]


def outer_tangents(dom, p):
    """DPhi(p)[e_i] for the frame frame_at(core, p): the W row of _outer_frames_batch."""
    X = p.ambient[None]
    return _outer_frames_batch(dom, X, dom.field.ambient_value(X))[1][0]


# ---------------------------------------------------------------------------
# radial map
# ---------------------------------------------------------------------------

def test_constant_shell_is_scaled_sphere():
    dom = RadialDomain(SPHERE, ConstantField(SPHERE, 0.5))
    for p in random_points(SPHERE, 20, seed=1):
        x, n = _outer_geometry_batch(dom, p.ambient[None])
        assert np.allclose(x[0], 1.5 * p.ambient, atol=1e-14)
        assert np.allclose(n[0], -p.ambient, atol=1e-14)


def test_radial_map_foot_and_offset():
    dom = zonal_domain()
    p = SurfacePoint.from_chart(SPHERE, 0.9, 0.4)
    x, _ = _outer_geometry_batch(dom, p.ambient[None])
    d = float(dom.field.ambient_value(p.ambient))
    assert np.allclose(x[0], p.ambient + d * SPHERE.normal(p.ambient), atol=1e-14)


def test_inward_normal_points_at_core():
    for dom in (zonal_domain(), zonal_domain(0.25, 0.01, ELLIPSOID)):
        for p in random_points(dom.core, 30, seed=2):
            x, n = _outer_geometry_batch(dom, p.ambient[None])
            assert float(np.dot(n[0], -x[0])) > 0


def test_inward_normal_matches_resolvent_formula():
    # the exact outer normal is (nu - (I - dS)^-1 grad d), normalized, here
    # with a 2x2 solve in an orthonormal frame; the kernel solves the same
    # system in ambient coordinates without a frame
    dom = zonal_domain(0.25, 0.02, ELLIPSOID)
    for p in random_points(ELLIPSOID, 25, seed=3):
        frame = frame_at(ELLIPSOID, p)
        d = float(dom.field.ambient_value(p.ambient))
        S = shape_operator_batch(ELLIPSOID, p.ambient[None], frame.vectors[None])[0]
        g = frame.vectors @ dom.field.ambient_grad(p.ambient)
        m = np.linalg.solve(np.eye(2) - d * S, g) @ frame.vectors
        nu = ELLIPSOID.normal(p.ambient)
        expected = -(nu - m) / np.linalg.norm(nu - m)
        got = _outer_geometry_batch(dom, p.ambient[None])[1][0]
        assert np.allclose(got, expected, atol=1e-12)


def _cross_product_normal(dom, p):
    """Inward unit normal from the outer tangents DPhi[e_i] in the
    orthonormal frame: the cross product for N=3, a quarter turn for N=2."""
    W = outer_tangents(dom, p)
    n = np.cross(W[0], W[1]) if dom.core.dim == 3 else np.array([-W[0][1], W[0][0]])
    n = n / np.linalg.norm(n)
    return -n if float(np.dot(n, dom.core.normal(p.ambient))) > 0 else n


TILTED_ELLIPSOID = ConvexCore.ellipsoid(2.0, 1.0, 0.5)
ORACLE_DOMAINS = [
    zonal_domain(),
    RadialDomain(TILTED_ELLIPSOID,
                 ZonalLegendreField(TILTED_ELLIPSOID, 0.25, 0.02, axis=(0.3, 0.5, 0.8))),
    RadialDomain(CIRCLE, Fourier2DField(CIRCLE, 0.5, [(2, 0.05), (3, 0.02)])),
]


@pytest.mark.parametrize("dom", ORACLE_DOMAINS, ids=["sphere", "tilted_ellipsoid", "circle"])
def test_closed_form_normal_matches_cross_product_of_outer_tangents(dom):
    # the kernel's normal is the closed form (m - nu)/|m - nu|; the oracle
    # builds it from exact tangents in frames, so the measured-law tests
    # that read the normal do not check the kernel against itself
    points = random_points(dom.core, 40, seed=6)
    if dom.core.dim == 3:  # within 1e-5 of the chart poles
        points += [SurfacePoint.from_chart(dom.core, t, 0.9) for t in (1e-5, 3e-6, 1e-7)]
        points += [SurfacePoint.from_chart(dom.core, np.pi - t, 2.1) for t in (1e-5, 1e-6)]
    for p in points:
        got = _outer_geometry_batch(dom, p.ambient[None])[1][0]
        assert np.linalg.norm(got - _cross_product_normal(dom, p)) <= 1e-13


# ---------------------------------------------------------------------------
# outer tangents
# ---------------------------------------------------------------------------

def test_outer_tangents_constant_field_scale():
    dom = RadialDomain(SPHERE, ConstantField(SPHERE, 0.5))
    p = SurfacePoint.from_chart(SPHERE, 1.1, 0.3)
    frame = frame_at(SPHERE, p)
    for v, w in zip(frame.vectors, outer_tangents(dom, p)):
        assert np.allclose(w, 1.5 * v, atol=1e-14)


def test_outer_tangents_at_critical_point():
    # grad d = 0 there, so DPhi = I - d S exactly
    dom = zonal_domain()
    p = SurfacePoint.from_chart(SPHERE, np.pi / 2, 0.7)
    frame = frame_at(SPHERE, p)
    d = float(dom.field.ambient_value(p.ambient))
    S = shape_operator_batch(SPHERE, p.ambient[None], frame.vectors[None])[0]
    W = outer_tangents(dom, p)
    for i, w in enumerate(W):
        expected = frame.vectors[i] - d * (S[:, i] @ frame.vectors)
        assert np.allclose(w, expected, atol=1e-13)


def test_outer_tangents_match_fd():
    dom = zonal_domain(0.25, 0.02, ELLIPSOID)
    h = 1e-6
    for p in random_points(ELLIPSOID, 15, seed=4):
        frame = frame_at(ELLIPSOID, p)
        W = outer_tangents(dom, p)
        for v, w in zip(frame.vectors, W):
            qp = retract(ELLIPSOID, p, v, h)
            qm = retract(ELLIPSOID, p, v, -h)
            x, _ = _outer_geometry_batch(dom, np.array([qp.ambient, qm.ambient]))
            fd = (x[0] - x[1]) / (2 * h)
            assert np.linalg.norm(fd - w) < 1e-6


def test_normal_orthogonal_to_outer_tangents():
    for dom in (zonal_domain(), zonal_domain(0.25, 0.02, ELLIPSOID)):
        for p in random_points(dom.core, 40, seed=5):
            _, n = _outer_geometry_batch(dom, p.ambient[None])
            for w in outer_tangents(dom, p):
                assert abs(float(np.dot(n[0], w))) < 1e-10


def test_normal_expansion_residual_second_order():
    # || n(Phi(c)) + nu - (I-dS)^-1 grad d || = O(eps^2)
    eps_list = [1e-1, 3e-2, 1e-2, 3e-3, 1e-4]
    p_chart = (1.1, 0.6)
    res = []
    for eps in eps_list:
        dom = zonal_domain(0.5, eps)
        p = SurfacePoint.from_chart(SPHERE, *p_chart)
        frame = frame_at(SPHERE, p)
        d = float(dom.field.ambient_value(p.ambient))
        S = shape_operator_batch(SPHERE, p.ambient[None], frame.vectors[None])[0]
        g = frame.vectors @ dom.field.ambient_grad(p.ambient)
        m = np.linalg.solve(np.eye(2) - d * S, g) @ frame.vectors
        n = _outer_geometry_batch(dom, p.ambient[None])[1][0]
        res.append(float(np.linalg.norm(n + SPHERE.normal(p.ambient) - m)))
    slope = np.polyfit(np.log(eps_list), np.log(res), 1)[0]
    assert 1.85 < slope < 2.15


def test_immersion_failure_detected():
    # d = -1 on the unit sphere collapses DPhi; reachable only through the
    # diagnostic path (eval() guards it), so drive the kernel directly
    dom = RadialDomain(SPHERE, ConstantField(SPHERE, -1.0))
    X = np.array([[0.0, 0.0, 1.0]])
    with pytest.raises(ImmersionFailure):
        _outer_geometry_batch(dom, X, d=np.array([-1.0]))
    _, _, _, sv = _outer_frames_batch(dom, X, d=np.array([-1.0]))
    assert sv[0] < 1e-12


# ---------------------------------------------------------------------------
# admissibility
# ---------------------------------------------------------------------------

def test_constant_domain_admissible():
    report = admissibility_check(RadialDomain(SPHERE, ConstantField(SPHERE, 0.5)), 2000)
    assert report.admissible
    assert report.hit_rate == 1.0
    assert abs(report.min_d - 0.5) < 1e-15


def test_reference_zonal_admissible():
    report = admissibility_check(zonal_domain(), 2000)
    assert report.admissible
    assert report.min_d > 0.49


def test_large_perturbation_inadmissible():
    report = admissibility_check(RadialDomain(SPHERE, ZonalLegendreField(SPHERE, 0.1, 0.5)), 4000)
    assert not report.admissible
    assert report.min_d < -0.149  # d(pi/2) = -0.15


# (domain, hits of 4,096, min d, min sv, verdict): two Fourier circles, one of
# them with a partial hit rate, and three zonal domains, two of them with d < 0
# somewhere, where the outer points lie inside the core
ADMISSIBILITY_PINS = {
    "circle_1_cos6_0.9": (RadialDomain(CIRCLE, Fourier2DField(CIRCLE, 1.0, [(6, 0.9)])),
                          744, 0.09999999999999998, 1.1, False),
    "circle_0.5_cos6_0.15": (RadialDomain(CIRCLE, Fourier2DField(CIRCLE, 0.5, [(6, 0.15)])),
                             4096, 0.35, 1.35, True),
    "sphere_zonal_0.5_0.6": (zonal_domain(0.5, 0.6), 4096, 0.20000005364418033, 1.2000000536441804, True),
    "sphere_zonal_0.1_0.3": (zonal_domain(0.1, 0.3), 4096, -0.04999997317790983, 0.9500000268220903, False),
    "ellipsoid_zonal_0.2_0.5": (zonal_domain(0.2, 0.5, TILTED_ELLIPSOID),
                                4096, -0.04999995529651641, 0.6001552034481316, False),
}


@pytest.mark.parametrize("name", ADMISSIBILITY_PINS)
def test_normal_ray_hits_equal_the_reference_solve_per_point(name):
    # each grid point's hit is the reference solve's: a finite t on the ray
    # from the outer point along the DPhi columns' inward normal; where d <= 0
    # that ray starts inside the core, where both count a hit
    dom, hits, min_d, min_sv, admissible = ADMISSIBILITY_PINS[name]
    report = admissibility_check(dom)
    X = dom.core.ambient_from_chart(report.chart)
    Xout, _, nvec, _ = _outer_frames_batch(dom, X, report.d_values)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = _ray_hit_fresh(dom.core, np.ascontiguousarray(Xout.T), np.ascontiguousarray(nvec.T))[1]
    assert np.array_equal(report.normal_ray_hits, np.isfinite(t))
    assert int(np.count_nonzero(report.normal_ray_hits)) == hits and report.hit_rate == hits / 4096
    assert report.min_d == pytest.approx(min_d, rel=1e-12)
    assert report.min_sv == pytest.approx(min_sv, rel=1e-12)
    assert report.admissible is admissible


def test_admissibility_csv_schema(tmp_path):
    # the admissibility table as the harness writes it: one row per grid point
    scn = parse_scenario_text("name = t\ncore.kind = sphere\nfield.kind = zonal_legendre\n"
                              "field.d0 = 0.5\nfield.eps = 0.01\ntask = admissibility\ntask.grid = 500")
    _task_admissibility(resolve(scn), _Out(tmp_path), None)
    lines = (tmp_path / "admissibility.csv").read_text().splitlines()
    assert lines[0] == "theta,phi,d,min_sv_DPhi,normal_ray_hits"
    assert len(lines) == 501

