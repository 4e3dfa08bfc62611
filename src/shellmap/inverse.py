"""Reconstruction from black-box return maps.

Everything here touches the dynamics only through a BlackBoxMap, whose
one map takes ambient points in a batch, (n, N) -> (n, N); a call on a
single surface point is a batch of one.  No thickness data is read.
Point sets go in and out as ambient rows: seeds and samples are (n, N)
arrays (a sequence of SurfacePoints is read as their .ambient rows by
_ambient_rows), recovered point sets are (k, N) arrays, and per-sample
results come with a mask of the samples they keep.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analysis import (
    fixed_point_jacobian,
    fixed_point_search,
    _greedy_clusters,
    DEFAULT_FD_STEP,
    FIXED_POINT_RESIDUAL_TOL,
)
from .dynamics import BlackBoxMap, settle_batch
from .surfaces import (ConvexCore, SurfacePoint, TangentFrame, _require_on_core, frame_at, frames_batch,
                       tangent_part)

SKIP_DISPLACEMENT_TOL = 1e-9
DIR_TOL = 1e-3                      # line fields agree at mean cosine >= 1 - DIR_TOL
EQUIVALENCE_FP_RESIDUAL_TOL = 1e-7  # |F(c) - c| under the other map at a fixed point
BASIN_AGREEMENT = 0.98              # share of seeds whose matched basin labels agree


def _ambient_rows(core: ConvexCore, points) -> np.ndarray:
    """The points as an (n, N) array, n >= 0: an ambient row as it is, a
    SurfacePoint as its .ambient."""
    return np.array([getattr(p, "ambient", p) for p in points], dtype=float).reshape(-1, core.dim)


def _displacements(F: BlackBoxMap, X: np.ndarray):
    """F(x) - x and its tangent part at the rows of X, both (n, N)."""
    disp = F.batch(X) - X if X.shape[0] else np.empty_like(X)
    return disp, tangent_part(F.core.normal(X), disp)


def recover_descent_field(F: BlackBoxMap, samples):
    """Unit tangent direction of the displacement at the samples, (n, N)
    ambient rows: (directions, keep), directions (m, N) at the samples
    where keep, (n,) bool, is set.

    Points with |F(c) - c| <= 1e-9 are skipped.  The directions span the
    gradient line field of the thickness function (for the ray mechanism
    they point along + (I - dS)^-1 grad d).
    """
    disp, tang = _displacements(F, _ambient_rows(F.core, samples))
    norm = np.linalg.norm(tang, axis=-1)
    keep = (np.linalg.norm(disp, axis=-1) > SKIP_DISPLACEMENT_TOL) & (norm != 0.0)
    return tang[keep] / norm[keep, None], keep


def estimate_composite_operator(F: BlackBoxMap, c_star: SurfacePoint,
                                frame: TangentFrame | None = None) -> np.ndarray:
    """I - DF at a fixed point, DF by the central-difference stencil at
    step DEFAULT_FD_STEP surface_scale()."""
    if frame is None:
        frame = frame_at(F.core, c_star)
    DF = fixed_point_jacobian(F, c_star.ambient[None], frame.vectors[None])[0]
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
    norm_ratios: np.ndarray
    mean_cosine: float
    mean_abs_cosine: float
    ratio_mean: float
    ratio_median: float
    max_norm_difference: float
    verdict: str              # "SameLineField" | "DifferentLineField"
    skipped: int


def scaling_ambiguity_diagnostic(F1: BlackBoxMap, F2: BlackBoxMap, samples) -> ScalingDiagnostic:
    """Cosines and norm ratios between tangent displacements of two maps
    at the samples, (n, N) ambient rows."""
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

    labels: np.ndarray        # (n,) per seed, in the order given
    cluster_reps: np.ndarray  # (k, N) ambient, the first limit of each label
    continuum: bool = False


def basin_decomposition(F: BlackBoxMap, seeds, tol: float = 1e-8,
                        max_iters: int = 200_000,
                        cluster_radius: float | None = None) -> BasinLabeling:
    """Settle each seed, a row of the (n, N) ambient array seeds, on its
    attractor and cluster the limits.

    settle_batch runs the orbits to tol; non-convergent seeds get
    label -1.  The continuum flag is raised when every seed
    converges and more than half of them stop within two steps (steps <= 2:
    the contraction rule stops a seed that is already fixed at its second
    step).  Each representative is checked to be within 1e-6 of the core.
    No seeds give an empty labeling without a map call.
    """
    X = _ambient_rows(F.core, seeds)
    if not X.shape[0]:
        return BasinLabeling(np.array([], dtype=int), X, False)
    if cluster_radius is None:
        # wide enough to swallow the convergence ball around each attractor
        cluster_radius = max(10.0 * tol, 1e-3 * F.core.surface_scale())
    result = settle_batch(F, X, tol, max_iters)
    labels = -np.ones(X.shape[0], dtype=int)
    conv = result.converged
    continuum = bool(np.mean(result.steps <= 2) > 0.5 and np.all(conv))
    limits = result.limits[conv]
    sub = _greedy_clusters(limits, cluster_radius)
    labels[conv] = sub
    reps = limits[np.unique(sub, return_index=True)[1]]
    _require_on_core(F.core, reps, tol=1e-6)
    return BasinLabeling(labels, reps, continuum)


@dataclass
class EquivalenceVerdict:
    """Outcome of the necessary-condition battery for orbit equivalence."""

    consistent: bool
    failed_test: str | None
    evidence: dict

    @property
    def verdict(self) -> str:
        return "ConsistentWithEquivalence" if self.consistent else f"Distinguished({self.failed_test})"


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
    agree on off-critical seeds to DIR_TOL.  The seeds are (n, N) ambient
    rows, n >= 1.
    """
    if F1.core != F2.core:
        raise ValueError("maps live on different cores")
    X = _ambient_rows(F1.core, seeds)
    if not X.shape[0]:
        raise ValueError("the equivalence check needs at least one seed")
    evidence = {}

    s1 = fixed_point_search(F1, n_probe, tol=1e-10, max_iters=max_iters)
    s2 = fixed_point_search(F2, n_probe, tol=1e-10, max_iters=max_iters)
    cross = 0.0
    for P, other in ((s1.points, F2), (s2.points, F1)):
        if P.shape[0]:
            cross = max(cross, float(np.max(np.linalg.norm(other.batch(P) - P, axis=-1))))
    evidence["max_cross_residual"] = cross
    if not (cross <= EQUIVALENCE_FP_RESIDUAL_TOL):
        return EquivalenceVerdict(False, "fixed_points", evidence)

    radius = 0.1 * F1.core.surface_scale()
    b1 = basin_decomposition(F1, X, tol=iter_tol, max_iters=max_iters, cluster_radius=radius)
    b2 = basin_decomposition(F2, X, tol=iter_tol, max_iters=max_iters, cluster_radius=radius)
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

    diag = scaling_ambiguity_diagnostic(F1, F2, X)
    evidence["mean_abs_cosine"] = diag.mean_abs_cosine
    if not (diag.cosines.size and diag.mean_abs_cosine >= 1.0 - DIR_TOL):
        return EquivalenceVerdict(False, "line_field", evidence)
    return EquivalenceVerdict(True, None, evidence)


@dataclass
class ReconstructionReport:
    """Everything the black-box pipeline recovered in one pass."""

    fixed_points: np.ndarray        # (k, N) ambient, from fixed_point_search
    residuals: np.ndarray           # (k,) |F(c) - c| at them
    descent_directions: np.ndarray  # (m, N) unit ambient direction per kept sample
    descent_kept: np.ndarray        # (n,) bool per sample, as from recover_descent_field
    composite_rows: np.ndarray      # (j,) fixed-point rows with residual <= FIXED_POINT_RESIDUAL_TOL
    composite_ops: np.ndarray       # (j, N-1, N-1) I - DF at those rows
    hessians_isotropic: list        # per composite row, an IsotropicReconstruction per alpha


def run_reconstruction(F: BlackBoxMap, n_seeds: int, samples, alphas,
                       alpha_mode: str = "assumed", h: float = DEFAULT_FD_STEP) -> ReconstructionReport:
    """Full black-box pass: fixed points, line field at the samples ((n, N)
    ambient rows), composite operators and isotropic Hessian estimates (one
    per supplied alpha); all composites take one fixed-point check and one
    stencil call."""
    scan = fixed_point_search(F, n_seeds)
    directions, kept = recover_descent_field(F, samples)
    rows = np.flatnonzero(scan.residuals <= FIXED_POINT_RESIDUAL_TOL)
    X = scan.points[rows]
    composites = np.eye(F.core.dim - 1) - fixed_point_jacobian(F, X, frames_batch(F.core, X), h)
    hessians = [[reconstruct_hessian_isotropic(C, float(a), alpha_mode) for a in np.atleast_1d(alphas)]
                for C in composites]
    return ReconstructionReport(scan.points, scan.residuals, directions, kept, rows, composites, hessians)
