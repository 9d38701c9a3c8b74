"""Fuzzy c-means clustering with a linearly scheduled fuzzifier.

The fuzzifier moves from m_initial toward m_final over the iteration budget
(m(t) = m_i + t * (m_f - m_i) / T), so the softness of the memberships can be
annealed; with m_i == m_f this is classical fuzzy c-means. Each iteration
computes memberships from the previous centroids, updates the centroids as
membership-weighted means, and stops once the summed Euclidean centroid
displacement falls to the tolerance.

Memberships are inverse-power weights over squared Euclidean distances,
u_ij = (d_ij^2)^b / sum_k (d_ik^2)^b with b = -1/(m-1), which is algebraically
the classical fuzzy-c-means form 1 / sum_k (d_ij/d_ik)^(2/(m-1)). Distances
are divided by the row minimum before exponentiation, which leaves the ratios
unchanged but avoids overflow. A point coinciding with one or more centroids
is assigned crisp membership split equally among the coincident centroids.

Points may carry non-negative weights, which multiply u^m in the centroid
update; a weighted point counts as that many copies of itself. `fcm_segment`
uses this to cluster the image's gray-level histogram (each distinct level
weighted by its pixel count, as in EnFCM) instead of every pixel: the fixed
point is the same, at most 256 points instead of width * height. Initial
centroids are c distinct points drawn in one seeded draw, so a segmentation
seeds from the gray levels it clusters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataio import GrayImage, write_atomic
from .rng import Prng


@dataclass(frozen=True)
class FcmConfig:
    c: int
    m_initial: float = 2.0
    m_final: float = 2.0
    epsilon: float = 1e-6
    max_iter: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.c < 1:
            raise ValueError(f"cluster count c must be >= 1, got {self.c}")
        if self.m_initial <= 1 or self.m_final <= 1:
            raise ValueError("m_initial and m_final must be > 1 so b = -1/(m-1) stays finite")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


@dataclass
class FcmResult:
    memberships: np.ndarray  # (n, c), rows sum to 1; from fcm_segment, one row per gray level
    centroids: np.ndarray  # (c, d); from fcm_segment, ascending
    iterations_run: int
    final_shift: float
    converged: bool
    levels: np.ndarray | None = None  # from fcm_segment, the gray level of each membership row


def _as_points(points) -> np.ndarray:
    x = np.asarray(points, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2:
        raise ValueError(f"points must be a 2-D n x d matrix, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError("points must be finite")
    return x


def _distances(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    diff = points[:, None, :] - centroids[None, :, :]
    return np.sqrt((diff * diff).sum(axis=2))


def compute_memberships(points, centroids, m: float) -> np.ndarray:
    """Membership matrix for fixed centroids; every row sums to 1."""
    if m <= 1:
        raise ValueError("fuzzifier must be > 1")
    x = _as_points(points)
    v = np.atleast_2d(np.asarray(centroids, dtype=np.float64))
    dist = _distances(x, v)
    n, c = dist.shape
    b = -1.0 / (m - 1.0)

    u = np.empty((n, c))
    zero_mask = dist == 0.0
    has_zero = zero_mask.any(axis=1)
    if has_zero.any():
        rows = np.nonzero(has_zero)[0]
        counts = zero_mask[rows].sum(axis=1)
        u[rows] = zero_mask[rows] / counts[:, None]
    regular = ~has_zero
    if regular.any():
        d = dist[regular]
        # squared-distance powers: (d^2)^b == d^(2b); normalizing by the row
        # minimum keeps every base >= 1 so negative exponents cannot overflow
        weights = (d / d.min(axis=1, keepdims=True)) ** (2.0 * b)
        u[regular] = weights / weights.sum(axis=1, keepdims=True)
    u /= u.sum(axis=1, keepdims=True)  # absorb rounding
    return u


def update_centroids(points, memberships, m: float, weights=None) -> np.ndarray:
    """Centroids as u^m-weighted means of the points, u^m times `weights` if given."""
    x = _as_points(points)
    u = np.asarray(memberships, dtype=np.float64)
    um = u**m
    if weights is not None:
        um *= np.asarray(weights, dtype=np.float64)[:, None]
    mass = um.sum(axis=0)
    empty = np.flatnonzero(mass == 0.0)
    if empty.size:
        raise ValueError(f"cluster {empty[0]} has zero total membership mass")
    return (um.T @ x) / mass[:, None]


def pick_initial_centroids(points, c: int, seed: int) -> np.ndarray:
    """c distinct points, drawn without replacement from the distinct rows, seeded."""
    x = np.unique(_as_points(points), axis=0)
    if len(x) < c:
        raise ValueError(f"need at least c={c} distinct points, got {len(x)}")
    return x[Prng(seed).sample_indices(len(x), c)]


def fcm_cluster(
    points,
    config: FcmConfig,
    initial_centroids=None,
    on_iteration=None,
    weights=None,
) -> FcmResult:
    """Run the scheduled-fuzzifier c-means loop.

    Per iteration t = 1..max_iter: set m(t), compute memberships against the
    previous centroids, update centroids, then stop if the summed Euclidean
    centroid displacement is <= epsilon. `on_iteration(t, m, memberships,
    centroids)` is invoked after each update, for tracing. `weights`, one
    finite value >= 0 per point, multiply each point's u^m in the update.
    """
    x = _as_points(points)
    if x.shape[0] < config.c:
        raise ValueError(f"need at least c={config.c} points, got {x.shape[0]}")
    if weights is not None:
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != (x.shape[0],):
            raise ValueError(f"weights must have shape ({x.shape[0]},), got {weights.shape}")
        if not (np.isfinite(weights).all() and (weights >= 0.0).all()):
            raise ValueError("weights must be finite and >= 0")
    if initial_centroids is None:
        centroids = pick_initial_centroids(x, config.c, config.seed)
    else:
        centroids = np.atleast_2d(np.asarray(initial_centroids, dtype=np.float64)).copy()
        if centroids.shape != (config.c, x.shape[1]):
            raise ValueError(
                f"initial centroids must be {config.c}x{x.shape[1]}, got {centroids.shape}"
            )

    memberships = None
    shift = np.inf
    converged = False
    iterations = 0
    t_max = config.max_iter
    for t in range(1, t_max + 1):
        m = config.m_initial + t * (config.m_final - config.m_initial) / t_max
        memberships = compute_memberships(x, centroids, m)
        new_centroids = update_centroids(x, memberships, m, weights)
        shift = float(np.linalg.norm(new_centroids - centroids, axis=1).sum())
        centroids = new_centroids
        iterations = t
        if on_iteration is not None:
            on_iteration(t, m, memberships, centroids)
        if shift <= config.epsilon:
            converged = True
            break
    return FcmResult(memberships, centroids, iterations, shift, converged)


def fcm_segment(image: GrayImage, config: FcmConfig) -> tuple[GrayImage, FcmResult]:
    """Cluster pixel intensities and return the per-pixel label map.

    Clusters the distinct gray levels, each weighted by its pixel count, from
    centroids drawn from those levels. Clusters are numbered by ascending
    centroid, so label 0 is the darkest. The result's memberships have one row
    per distinct level, in ascending order, and its `levels` lists those levels.
    Labels are membership argmax with ties broken toward the lower, darker
    cluster. Levels and counts come from one 256-bin histogram, and each pixel
    takes its label from a 256-entry table (EnFCM's histogram form, Szilagyi
    et al., IEEE EMBS 2003).
    """
    if config.c > 256:
        raise ValueError("label maps are 8-bit; cluster count must be <= 256")
    histogram = np.bincount(image.data.ravel(), minlength=256)
    levels = np.flatnonzero(histogram).astype(np.uint8)
    if levels.size < config.c:
        raise ValueError(f"image has {levels.size} distinct gray levels, fewer than c={config.c}")
    result = fcm_cluster(levels, config, weights=histogram[levels])
    order = np.argsort(result.centroids[:, 0], kind="stable")
    result.centroids = result.centroids[order]
    result.memberships = result.memberships[:, order]
    result.levels = levels
    label_of_level = np.zeros(256, dtype=np.uint8)
    label_of_level[levels] = np.argmax(result.memberships, axis=1)
    label_map = GrayImage(image.width, image.height, label_of_level[image.data])
    return label_map, result


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------


def save_matrix_csv(matrix: np.ndarray, path) -> None:
    """One row per line, comma separated, 17 significant digits."""
    arr = np.atleast_2d(np.asarray(matrix, dtype=np.float64))
    write_atomic(path, "".join(",".join(f"{v:.17g}" for v in row) + "\n" for row in arr))


def format_run_summary(result: FcmResult) -> str:
    """`iterations,final_shift,converged` line for run logs."""
    flag = "true" if result.converged else "false"
    return f"{result.iterations_run},{result.final_shift:.17g},{flag}"
