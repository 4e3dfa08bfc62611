"""Reconstruction from black-box return maps.

Everything here touches the dynamics only through a BlackBoxMap, whose
one map takes ambient points in a batch, (n, N) -> (n, N); a call on a
single surface point is a batch of one.  No thickness data is read.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import partial

import numpy as np

from .analysis import (
    FixedPointScan,
    classify_fixed_point,
    finite_difference_jacobian,
    finite_difference_jacobian_batch,
    fixed_point_search,
    fit_loglog,
    _greedy_clusters,
    _require_fixed,
    DEFAULT_FD_STEP,
    FIXED_POINT_RESIDUAL_TOL,
)
from .dynamics import return_map_batch, settle_batch
from .surfaces import ConvexCore, SurfacePoint, TangentFrame, frame_at, frames_batch

SKIP_DISPLACEMENT_TOL = 1e-9
DIR_TOL = 1e-3                      # line fields agree at mean cosine >= 1 - DIR_TOL
EQUIVALENCE_FP_RESIDUAL_TOL = 1e-7  # |F(c) - c| under the other map at a fixed point
BASIN_AGREEMENT = 0.98              # share of seeds whose matched basin labels agree


@dataclass
class BlackBoxMap:
    """A deterministic surface-to-surface map observed only through calls."""

    core: ConvexCore
    batch_fn: object                # (n, N) ambient -> (n, N) ambient
    name: str = ""

    @staticmethod
    def wrap_domain(dom, name: str = "") -> "BlackBoxMap":
        """Hide a radial domain behind the call interface."""
        return BlackBoxMap(dom.core, partial(return_map_batch, dom), name)

    def __call__(self, p: SurfacePoint) -> SurfacePoint:
        return SurfacePoint.from_ambient(self.core, self.batch_fn(p.ambient[None])[0])

    def batch(self, X: np.ndarray) -> np.ndarray:
        return self.batch_fn(X)

    def compose(self, k: int) -> "BlackBoxMap":
        """The k-th iterate as a new black box."""
        def batch_fn(X):
            for _ in range(k):
                X = self.batch_fn(X)
            return X

        return BlackBoxMap(self.core, batch_fn, name=f"{self.name}^{k}")


def _ambient_rows(core: ConvexCore, points) -> np.ndarray:
    """Ambient coordinates of surface points as an (n, N) array, n >= 0."""
    return np.array([p.ambient for p in points]).reshape(-1, core.dim)


def _displacements(F: BlackBoxMap, X: np.ndarray):
    """F(x) - x and its tangent part at the rows of X, both (n, N)."""
    disp = F.batch(X) - X if X.shape[0] else np.empty_like(X)
    nu = F.core.normal(X)
    return disp, disp - nu * np.einsum("ij,ij->i", disp, nu)[:, None]


def recover_descent_field(F: BlackBoxMap, samples):
    """Unit tangent direction of the displacement at each sample point.

    Points with |F(c) - c| <= 1e-9 are skipped and reported.  The
    directions span the gradient line field of the thickness function (for
    the ray mechanism they point along + (I - dS)^-1 grad d).
    """
    samples = list(samples)
    disp, tang = _displacements(F, _ambient_rows(F.core, samples))
    norm = np.linalg.norm(tang, axis=-1)
    keep = (np.linalg.norm(disp, axis=-1) > SKIP_DISPLACEMENT_TOL) & (norm != 0.0)
    results = [(p, tang[i] / norm[i]) for i, p in enumerate(samples) if keep[i]]
    skipped = [p for i, p in enumerate(samples) if not keep[i]]
    return results, skipped


def detect_fixed_points_blackbox(F: BlackBoxMap, n_seeds: int, tol: float = 1e-10,
                                 max_iters: int = 100_000) -> FixedPointScan:
    """Fixed-point search driven purely through black-box calls."""
    return fixed_point_search(F.core, F.batch, n_seeds, tol=tol, max_iters=max_iters)


def estimate_composite_operator(F: BlackBoxMap, c_star: SurfacePoint,
                                frame: TangentFrame | None = None,
                                h: float = DEFAULT_FD_STEP) -> np.ndarray:
    """I - DF at a fixed point, DF by the central-difference stencil."""
    if frame is None:
        frame = frame_at(F.core, c_star)
    _require_fixed(c_star.ambient[None], F.batch)
    DF = finite_difference_jacobian(F.core, F.batch, c_star, frame, h)
    return np.eye(DF.shape[0]) - DF


@dataclass
class IsotropicReconstruction:
    """Hessian estimate composite/alpha with its eigenstructure."""

    hessian: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # columns
    alpha: float
    alpha_mode: str = "assumed"


def reconstruct_hessian_isotropic(composite: np.ndarray, alpha: float,
                                  alpha_mode: str = "assumed") -> IsotropicReconstruction:
    """Divide the composite operator by a scalar gain and symmetrize.

    alpha is the isotropic gain assumed in composite = alpha * Hess; any
    nonzero value is accepted (the ray mechanism's measured gain is
    negative, the classical model's is positive), and the reported
    eigenvectors and signature are invariant under rescaling alpha.
    """
    if alpha == 0.0:
        raise ValueError("alpha must be nonzero")
    H = composite / float(alpha)
    H = 0.5 * (H + H.T)
    w, V = np.linalg.eigh(H)
    order = np.argsort(w)[::-1]
    return IsotropicReconstruction(H, w[order], V[:, order], float(alpha), alpha_mode)


@dataclass
class ScalingDiagnostic:
    """Pointwise comparison of two maps' displacement fields."""

    cosines: np.ndarray
    abs_cosines: np.ndarray
    norm_ratios: np.ndarray
    mean_cosine: float
    mean_abs_cosine: float
    ratio_mean: float
    ratio_median: float
    max_norm_difference: float
    verdict: str              # "SameLineField" | "DifferentLineField"
    skipped: int


def scaling_ambiguity_diagnostic(F1: BlackBoxMap, F2: BlackBoxMap, samples) -> ScalingDiagnostic:
    """Cosines and norm ratios between tangent displacements of two maps."""
    if F1.core != F2.core:
        raise ValueError("maps live on different cores")
    X = _ambient_rows(F1.core, samples)
    _, t1 = _displacements(F1, X)
    _, t2 = _displacements(F2, X)
    n1, n2 = np.linalg.norm(t1, axis=-1), np.linalg.norm(t2, axis=-1)
    keep = (n1 > SKIP_DISPLACEMENT_TOL) & (n2 > SKIP_DISPLACEMENT_TOL)
    t1, t2, n1, n2 = t1[keep], t2[keep], n1[keep], n2[keep]
    cos = np.einsum("ij,ij->i", t1, t2) / (n1 * n2)
    ratios = n2 / n1
    diffs = np.abs(n2 - n1)
    mean_cos = float(np.mean(cos)) if cos.size else float("nan")
    verdict = "SameLineField" if cos.size and mean_cos >= 1.0 - DIR_TOL else "DifferentLineField"
    return ScalingDiagnostic(
        cosines=cos,
        abs_cosines=np.abs(cos),
        norm_ratios=ratios,
        mean_cosine=mean_cos,
        mean_abs_cosine=float(np.mean(np.abs(cos))) if cos.size else float("nan"),
        ratio_mean=float(np.mean(ratios)) if ratios.size else float("nan"),
        ratio_median=float(np.median(ratios)) if ratios.size else float("nan"),
        max_norm_difference=float(np.max(diffs)) if diffs.size else 0.0,
        verdict=verdict,
        skipped=int(np.sum(~keep)),
    )


@dataclass
class BasinLabeling:
    """Limit-cluster label per seed; label -1 marks unresolved seeds."""

    seeds: list
    labels: np.ndarray
    cluster_reps: list
    continuum: bool = False

    def to_csv(self, path):
        with open(path, "w", newline="\n") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(["seed_theta", "seed_phi", "label"])
            for p, lab in zip(self.seeds, self.labels):
                phi = p.chart[1] if p.chart.shape[0] > 1 else 0.0
                w.writerow([f"{p.theta:.17g}", f"{phi:.17g}", int(lab)])


def basin_decomposition(F: BlackBoxMap, seeds, tol: float = 1e-8,
                        max_iters: int = 200_000,
                        cluster_radius: float | None = None) -> BasinLabeling:
    """Settle each seed on its attractor and cluster the limits.

    settle_batch runs the orbits with radius cluster_radius / 10, so an
    Aitken-settled limit lies well inside its cluster.  Non-convergent
    seeds get label -1.  The continuum flag is raised when every seed
    converges and more than half of them stop within two steps (steps <= 2:
    the contraction rule stops a seed that is already fixed at its second
    step).  No seeds give an empty labeling without a map call.
    """
    seeds = list(seeds)
    if not seeds:
        return BasinLabeling([], np.array([], dtype=int), [], False)
    if cluster_radius is None:
        # wide enough to swallow the convergence ball around each attractor
        cluster_radius = max(10.0 * tol, 1e-3 * F.core.surface_scale())
    result = settle_batch(F.core, F.batch, _ambient_rows(F.core, seeds), 0.1 * cluster_radius,
                          tol, max_iters)
    labels = -np.ones(len(seeds), dtype=int)
    conv = result.converged
    continuum = bool(np.mean(result.steps <= 2) > 0.5 and np.all(conv))
    if np.any(conv):
        sub = _greedy_clusters(result.limits[conv], cluster_radius)
        labels[conv] = sub
        reps = []
        for lab in range(sub.max() + 1):
            idx = np.nonzero(sub == lab)[0][0]
            reps.append(SurfacePoint.from_ambient(F.core, result.limits[conv][idx], tol=1e-6))
    else:
        reps = []
    return BasinLabeling(seeds, labels, reps, continuum)


@dataclass
class EquivalenceVerdict:
    """Outcome of the necessary-condition battery for orbit equivalence."""

    consistent: bool
    failed_test: str | None
    evidence: dict

    @property
    def verdict(self) -> str:
        return "ConsistentWithEquivalence" if self.consistent else f"Distinguished({self.failed_test})"


def _set_hausdorff(A: np.ndarray, B: np.ndarray) -> float:
    if A.shape[0] == 0 or B.shape[0] == 0:
        return float("inf")
    d = np.linalg.norm(A[:, None, :] - B[None, :, :], axis=-1)
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))


def dynamical_equivalence_check(F1: BlackBoxMap, F2: BlackBoxMap, seeds,
                                n_probe: int = 400,
                                iter_tol: float = 1e-8,
                                max_iters: int = 200_000) -> EquivalenceVerdict:
    """Necessary conditions for orbit equivalence, not a conjugacy search.

    (a) fixed-point sets match: every fixed point detected for one map must
    be fixed under the other to EQUIVALENCE_FP_RESIDUAL_TOL (a
    sampling-robust test even when the fixed set is a continuum), (b) basin
    partitions over the given seeds agree after label matching on at least
    BASIN_AGREEMENT of them, (c) the unsigned displacement line fields
    agree on off-critical seeds to DIR_TOL.
    """
    if F1.core != F2.core:
        raise ValueError("maps live on different cores")
    evidence = {}

    s1 = detect_fixed_points_blackbox(F1, n_probe, tol=1e-10, max_iters=max_iters)
    s2 = detect_fixed_points_blackbox(F2, n_probe, tol=1e-10, max_iters=max_iters)
    A = _ambient_rows(F1.core, s1.points)
    B = _ambient_rows(F1.core, s2.points)
    cross = 0.0
    for P, other in ((A, F2), (B, F1)):
        if P.shape[0]:
            cross = max(cross, float(np.max(np.linalg.norm(other.batch(P) - P, axis=-1))))
    evidence["max_cross_residual"] = cross
    evidence["fixed_point_hausdorff"] = _set_hausdorff(A, B)
    if not (cross <= EQUIVALENCE_FP_RESIDUAL_TOL):
        return EquivalenceVerdict(False, "fixed_points", evidence)

    radius = 0.1 * F1.core.surface_scale()
    b1 = basin_decomposition(F1, seeds, tol=iter_tol, max_iters=max_iters, cluster_radius=radius)
    b2 = basin_decomposition(F2, seeds, tol=iter_tol, max_iters=max_iters, cluster_radius=radius)
    ok = (b1.labels >= 0) & (b2.labels >= 0)
    agreement = 0.0
    if np.any(ok):
        # greedy label matching on the confusion matrix: take the first
        # maximum in row-major order, then mask its row and column
        l1, l2 = b1.labels[ok], b2.labels[ok]
        conf = np.zeros((l1.max() + 1, l2.max() + 1), dtype=int)
        np.add.at(conf, (l1, l2), 1)
        matched = 0
        for _ in range(min(conf.shape)):
            i, j = np.unravel_index(np.argmax(conf), conf.shape)
            if conf[i, j] <= 0:
                break
            matched += int(conf[i, j])
            conf[i, :] = -1
            conf[:, j] = -1
        agreement = matched / l1.size
    evidence["basin_agreement"] = agreement
    evidence["basin_resolved"] = int(np.sum(ok))
    if agreement < BASIN_AGREEMENT:
        return EquivalenceVerdict(False, "basins", evidence)

    diag = scaling_ambiguity_diagnostic(F1, F2, seeds)
    evidence["mean_abs_cosine"] = diag.mean_abs_cosine
    if not (diag.abs_cosines.size and diag.mean_abs_cosine >= 1.0 - DIR_TOL):
        return EquivalenceVerdict(False, "line_field", evidence)
    return EquivalenceVerdict(True, None, evidence)


@dataclass
class ReconstructionReport:
    """Everything the black-box pipeline recovered in one pass."""

    fixed_points: list                      # (SurfacePoint, residual)
    descent_samples: list                   # (SurfacePoint, unit ambient direction)
    composite_ops: list                     # (SurfacePoint, matrix)
    hessians_isotropic: list                # (SurfacePoint, IsotropicReconstruction)
    basin_labels: BasinLabeling | None
    skipped_samples: int = 0

    def to_csv(self, path):
        with open(path, "w", newline="\n") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(["record", "theta", "phi", "data"])
            for p, r in self.fixed_points:
                w.writerow(["fixed_point", f"{p.theta:.17g}", _phi_str(p), f"{r:.17g}"])
            for p, v in self.descent_samples:
                w.writerow(["descent_dir", f"{p.theta:.17g}", _phi_str(p),
                            ";".join(f"{x:.17g}" for x in v)])
            for p, C in self.composite_ops:
                w.writerow(["composite", f"{p.theta:.17g}", _phi_str(p),
                            ";".join(f"{x:.17g}" for x in C.ravel())])
            for p, rec in self.hessians_isotropic:
                w.writerow([
                    f"hessian(alpha={rec.alpha:.6g},{rec.alpha_mode})",
                    f"{p.theta:.17g}", _phi_str(p),
                    ";".join(f"{x:.17g}" for x in rec.hessian.ravel()),
                ])


def _phi_str(p: SurfacePoint) -> str:
    return f"{p.chart[1]:.17g}" if p.chart.shape[0] > 1 else "0"


def run_reconstruction(F: BlackBoxMap, n_seeds: int, samples, alphas,
                       alpha_mode: str = "assumed", h: float = DEFAULT_FD_STEP,
                       tol: float = 1e-10, basin_seeds=None) -> ReconstructionReport:
    """Full black-box pass: fixed points, line field, composite operators,
    isotropic Hessian estimates (one per supplied alpha), basins; all
    composites take one fixed-point check and one stencil call."""
    scan = detect_fixed_points_blackbox(F, n_seeds, tol=tol)
    fixed = list(zip(scan.points, scan.residuals))
    descent, skipped = recover_descent_field(F, samples)
    points = [p for p, r in fixed if r <= FIXED_POINT_RESIDUAL_TOL]
    composites, hessians = [], []
    if points:
        X = _ambient_rows(F.core, points)
        _require_fixed(X, F.batch)
        DF = finite_difference_jacobian_batch(F.core, F.batch, X, frames_batch(F.core, X), h)
        composites = [(p, np.eye(F.core.dim - 1) - J) for p, J in zip(points, DF)]
    for p, C in composites:
        for a in np.atleast_1d(alphas):
            hessians.append((p, reconstruct_hessian_isotropic(C, float(a), alpha_mode)))
    basins = None
    if basin_seeds is not None:
        basins = basin_decomposition(F, basin_seeds, tol=max(tol, 1e-8))
    return ReconstructionReport(fixed, descent, composites, hessians, basins, len(skipped))
