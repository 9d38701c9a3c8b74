import warnings

import numpy as np
import pytest

from deepbrainnet.dataio import GrayImage
from deepbrainnet.fcm import (
    FcmConfig,
    compute_memberships,
    fcm_cluster,
    fcm_segment,
    format_run_summary,
    pick_initial_centroids,
    save_matrix_csv,
    update_centroids,
)
from deepbrainnet.rng import Prng


def random_points(rng, n, d, scale=10.0):
    return np.array([[rng.uniform_in(-scale, scale) for _ in range(d)] for _ in range(n)])


# ---------------------------------------------------------------------------
# Independent classical fuzzy c-means oracle
# ---------------------------------------------------------------------------


def classical_memberships(points, centroids, m):
    """Classical ratio form: u_ij = 1 / sum_k (d_ij / d_ik)^(2/(m-1))."""
    n, c = points.shape[0], centroids.shape[0]
    u = np.zeros((n, c))
    for i in range(n):
        dists = [float(np.linalg.norm(points[i] - centroids[j])) for j in range(c)]
        zero = [j for j, d in enumerate(dists) if d == 0.0]
        if zero:
            for j in zero:
                u[i, j] = 1.0 / len(zero)
            continue
        for j in range(c):
            u[i, j] = 1.0 / sum((dists[j] / dists[k]) ** (2.0 / (m - 1.0)) for k in range(c))
    return u


def classical_centroids(points, u, m):
    um = u**m
    return (um.T @ points) / um.sum(axis=0)[:, None]


def classical_fcm_trajectory(points, initial, m, max_iter):
    """Fixed-fuzzifier iteration recording (memberships, centroids) per step."""
    centroids = initial.copy()
    states = []
    for _ in range(max_iter):
        u = classical_memberships(points, centroids, m)
        new_centroids = classical_centroids(points, u, m)
        shift = float(np.linalg.norm(new_centroids - centroids, axis=1).sum())
        centroids = new_centroids
        states.append((u, centroids.copy(), shift))
    return states


def classical_fixed_point(points, initial, m, tol=1e-12, cap=10000):
    centroids = initial.copy()
    for _ in range(cap):
        u = classical_memberships(points, centroids, m)
        new_centroids = classical_centroids(points, u, m)
        if float(np.linalg.norm(new_centroids - centroids, axis=1).sum()) <= tol:
            return u, new_centroids
        centroids = new_centroids
    return u, centroids


# ---------------------------------------------------------------------------
# memberships
# ---------------------------------------------------------------------------


def test_single_cluster_membership_is_one():
    pts = np.array([[1.0], [5.0], [-3.0]])
    u = compute_memberships(pts, np.array([[0.0]]), 2.0)
    assert np.array_equal(u, np.ones((3, 1)))


def test_symmetric_point_splits_evenly():
    for m in (1.5, 2.0, 3.0):
        u = compute_memberships(np.array([[0.0]]), np.array([[-1.0], [1.0]]), m)
        assert u[0].tolist() == pytest.approx([0.5, 0.5], abs=1e-12)


def test_coincident_point_is_crisp():
    pts = np.array([[2.0, 3.0], [9.0, 9.0]])
    centroids = np.array([[2.0, 3.0], [0.0, 0.0]])
    u = compute_memberships(pts, centroids, 2.0)
    assert u[0].tolist() == [1.0, 0.0]


def test_point_on_two_centroids_splits_mass():
    """Rows on centroids and an ordinary row in one call, without a floating-point warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        u = compute_memberships(np.array([[1.0], [3.0], [5.0]]), np.array([[1.0], [1.0], [5.0]]), 2.0)
    assert u[0].tolist() == [0.5, 0.5, 0.0]
    assert u[1].tolist() == pytest.approx([1 / 3] * 3, abs=1e-15)
    assert u[2].tolist() == [0.0, 0.0, 1.0]


def test_rows_sum_to_one_property():
    rng = Prng(70)
    for _ in range(20):
        pts = random_points(rng, 30, 3)
        centroids = random_points(rng, 4, 3)
        u = compute_memberships(pts, centroids, 1.0 + rng.uniform_in(0.2, 3.0))
        assert np.abs(u.sum(axis=1) - 1.0).max() < 1e-9
        assert u.min() >= 0.0 and u.max() <= 1.0


def test_membership_formula_equivalence():
    # inverse-power-distance route vs the classical ratio form, independently
    rng = Prng(71)
    for _ in range(20):
        pts = random_points(rng, 25, 2)
        centroids = random_points(rng, 3, 2)
        m = 1.0 + rng.uniform_in(0.3, 2.5)
        mine = compute_memberships(pts, centroids, m)
        b = -1.0 / (m - 1.0)
        sq = ((pts[:, None, :] - centroids[None, :, :]) ** 2).sum(-1)
        naive = sq**b / (sq**b).sum(axis=1, keepdims=True)
        reference = classical_memberships(pts, centroids, m)
        assert np.abs(mine - naive).max() < 1e-9
        assert np.abs(mine - reference).max() < 1e-9


def test_membership_rejects_bad_fuzzifier():
    with pytest.raises(ValueError):
        compute_memberships(np.array([[0.0]]), np.array([[1.0]]), 1.0)


# ---------------------------------------------------------------------------
# centroid update
# ---------------------------------------------------------------------------


def test_all_ones_single_cluster_gives_mean():
    pts = np.array([[1.0], [2.0], [6.0]])
    v = update_centroids(pts, np.ones((3, 1)), 2.0)
    assert v[0, 0] == pytest.approx(3.0)


def test_crisp_memberships_give_member_points():
    pts = np.array([[0.0], [2.0]])
    u = np.array([[1.0, 0.0], [0.0, 1.0]])
    v = update_centroids(pts, u, 2.0)
    assert v.ravel().tolist() == [0.0, 2.0]


def test_uniform_memberships_give_shared_mean():
    # direct evaluation: sum(0.5^m * x) / sum(0.5^m) = mean for both clusters
    pts = np.array([[0.0], [2.0]])
    u = np.full((2, 2), 0.5)
    v = update_centroids(pts, u, 2.0)
    assert v.ravel().tolist() == pytest.approx([1.0, 1.0])


def test_zero_mass_cluster_is_named():
    pts = np.array([[0.0], [2.0]])
    u = np.array([[1.0, 0.0], [1.0, 0.0]])
    with pytest.raises(ValueError, match="cluster 1"):
        update_centroids(pts, u, 2.0)


# ---------------------------------------------------------------------------
# full clustering loop
# ---------------------------------------------------------------------------


def two_groups(rng, gap=10.0, spread=0.1, n=40):
    pts = []
    for _ in range(n // 2):
        pts.append([-gap + rng.normal(0.0, spread)])
    for _ in range(n // 2):
        pts.append([gap + rng.normal(0.0, spread)])
    return np.array(pts)


def test_two_group_instance_converges_to_group_means():
    rng = Prng(72)
    pts = two_groups(rng)
    config = FcmConfig(c=2, m_initial=2.0, m_final=2.0, epsilon=1e-6, max_iter=100, seed=4)
    result = fcm_cluster(pts, config)
    assert result.converged
    assert result.final_shift <= 1e-6

    # oracle: exhaustive fixed-point iteration at fixed m, driven to 1e-12
    initial = pick_initial_centroids(pts, 2, seed=4)
    _, v_star = classical_fixed_point(pts, initial, 2.0)
    got = sorted(result.centroids.ravel().tolist())
    want = sorted(v_star.ravel().tolist())
    assert got == pytest.approx(want, abs=1e-4)

    mean_low = pts[pts[:, 0] < 0].mean()
    mean_high = pts[pts[:, 0] > 0].mean()
    assert abs(got[0] - mean_low) < 0.1
    assert abs(got[1] - mean_high) < 0.1

    own = result.memberships.max(axis=1)
    assert own.min() > 0.9


def test_fixed_fuzzifier_matches_classical_per_iteration():
    rng = Prng(73)
    for case in range(10):
        n = 10 + rng.below(40)
        d = 1 + rng.below(4)
        c = 2 + rng.below(3)
        pts = random_points(rng, n, d)
        m = 1.0 + rng.uniform_in(0.5, 2.0)
        initial = pick_initial_centroids(pts, c, seed=case)
        config = FcmConfig(c=c, m_initial=m, m_final=m, epsilon=1e-30, max_iter=8, seed=case)
        mine = []
        fcm_cluster(
            pts,
            config,
            initial_centroids=initial,
            on_iteration=lambda t, mm, u, v: mine.append((u.copy(), v.copy())),
        )
        reference = classical_fcm_trajectory(pts, initial, m, 8)
        assert len(mine) == len(reference)
        for (u1, v1), (u2, v2, _) in zip(mine, reference):
            assert np.abs(u1 - u2).max() < 1e-9
            assert np.abs(v1 - v2).max() < 1e-9


def fuzzifier_trace(pts, config):
    """(result, [m of each iteration]) as fcm_cluster reports them to on_iteration."""
    trace = []
    result = fcm_cluster(pts, config, on_iteration=lambda t, m, u, v: trace.append(m))
    return result, trace


def test_single_iteration_trace():
    rng = Prng(74)
    pts = random_points(rng, 10, 2)
    config = FcmConfig(c=2, m_initial=3.0, m_final=1.5, epsilon=1e-12, max_iter=1, seed=1)
    result, trace = fuzzifier_trace(pts, config)
    assert result.iterations_run == 1
    assert trace == [pytest.approx(3.0 + (1.5 - 3.0) / 1)]


def test_fuzzifier_trace_is_affine():
    rng = Prng(75)
    pts = random_points(rng, 12, 1)
    t_max = 10
    config = FcmConfig(c=2, m_initial=2.5, m_final=1.5, epsilon=1e-30, max_iter=t_max, seed=2)
    result, trace = fuzzifier_trace(pts, config)
    assert len(trace) == result.iterations_run
    for t, m in enumerate(trace, start=1):
        assert m == pytest.approx(2.5 + t * (1.5 - 2.5) / t_max)
    assert trace[-1] == pytest.approx(1.5)


def test_permutation_equivariance():
    rng = Prng(76)
    pts = random_points(rng, 30, 2)
    initial = pick_initial_centroids(pts, 3, seed=9)
    config = FcmConfig(c=3, m_initial=2.0, m_final=2.0, epsilon=1e-9, max_iter=50, seed=9)
    base = fcm_cluster(pts, config, initial_centroids=initial)
    perm = [2, 0, 1]
    permuted = fcm_cluster(pts, config, initial_centroids=initial[perm])
    assert np.abs(permuted.centroids - base.centroids[perm]).max() < 1e-9
    assert np.abs(permuted.memberships - base.memberships[:, perm]).max() < 1e-9
    # permuted cluster j holds base cluster perm[j]
    assert np.array_equal(
        np.asarray(perm)[permuted.memberships.argmax(axis=1)],
        base.memberships.argmax(axis=1),
    )


def test_scale_invariance_of_memberships():
    rng = Prng(77)
    pts = random_points(rng, 25, 2)
    initial = pick_initial_centroids(pts, 3, seed=5)
    config = FcmConfig(c=3, m_initial=2.0, m_final=2.0, epsilon=1e-10, max_iter=60, seed=5)
    base = fcm_cluster(pts, config, initial_centroids=initial)
    s = 3.7
    scaled = fcm_cluster(pts * s, config, initial_centroids=initial * s)
    assert np.abs(scaled.centroids - base.centroids * s).max() < 1e-6
    assert np.abs(scaled.memberships - base.memberships).max() < 1e-7


def test_cluster_requires_enough_points():
    with pytest.raises(ValueError):
        fcm_cluster(np.array([[1.0]]), FcmConfig(c=2, seed=0))


def test_fewer_distinct_points_than_clusters_fails_at_once():
    pts = np.zeros((10, 1))
    with pytest.raises(ValueError, match=r"^need at least c=2 distinct points, got 1$"):
        pick_initial_centroids(pts, 2, seed=0)


def test_initial_centroids_are_drawn_from_distinct_points():
    pts = np.append(np.zeros(1000), 1.0)
    for seed in range(20):
        initial = pick_initial_centroids(pts, 2, seed=seed)
        assert sorted(initial.ravel().tolist()) == [0.0, 1.0]


def test_config_validation():
    with pytest.raises(ValueError):
        FcmConfig(c=0)
    with pytest.raises(ValueError):
        FcmConfig(c=2, m_initial=1.0)


# ---------------------------------------------------------------------------
# image segmentation
# ---------------------------------------------------------------------------


def kmeans_1d(values, k, initial, iters=100):
    """Plain Lloyd iteration on scalars, the partition oracle."""
    centers = list(initial)
    for _ in range(iters):
        assign = [int(np.argmin([abs(v - c) for c in centers])) for v in values]
        new_centers = []
        for j in range(k):
            members = [v for v, a in zip(values, assign) if a == j]
            new_centers.append(float(np.mean(members)) if members else centers[j])
        if new_centers == centers:
            break
        centers = new_centers
    return assign


def test_segment_bilevel_matches_kmeans_partition():
    rng = Prng(80)
    data = np.array(
        [[0 if rng.coin() else 255 for _ in range(16)] for _ in range(16)], dtype=np.uint8
    )
    image = GrayImage(16, 16, data)
    labels, result = fcm_segment(image, FcmConfig(c=2, seed=3))
    values = data.ravel().astype(float)
    km = np.array(kmeans_1d(values.tolist(), 2, result.centroids.ravel().tolist()))
    mine = labels.data.ravel()
    same = (mine == km).mean()
    assert same == 1.0 or same == 0.0  # equal up to label swap
    # exactly two populations and they match the intensities
    assert set(np.unique(mine[values == 0])) != set(np.unique(mine[values == 255]))


def repeated_values(rng, n, distinct):
    """n draws from `distinct` spread-out values, so most of them repeat."""
    return np.array([3.0 * rng.below(distinct) + rng.below(2) * 0.25 for _ in range(n)])


def test_weighted_levels_match_pixels_per_iteration():
    rng = Prng(83)
    for case in range(8):
        pixels = repeated_values(rng, 200 + rng.below(200), 5 + rng.below(30))
        levels, inverse, counts = np.unique(pixels, return_inverse=True, return_counts=True)
        c = 2 + rng.below(3)
        config = FcmConfig(c=c, m_initial=2.5, m_final=1.5 + rng.uniform_in(0.0, 1.0),
                           epsilon=1e-7, max_iter=60, seed=case)
        initial = pick_initial_centroids(pixels, c, seed=case)

        def record(states):
            return lambda t, m, u, v: states.append((u.copy(), v.copy()))

        by_pixel, by_level = [], []
        fcm_cluster(pixels, config, initial_centroids=initial, on_iteration=record(by_pixel))
        fcm_cluster(levels, config, initial_centroids=initial, on_iteration=record(by_level),
                    weights=counts)
        assert len(by_level) == len(by_pixel)
        for (u_pixel, v_pixel), (u_level, v_level) in zip(by_pixel, by_level):
            assert u_level.shape == (levels.size, c)
            assert np.abs(u_level[inverse] - u_pixel).max() < 1e-9
            assert np.abs(v_level - v_pixel).max() < 1e-9


def test_segment_labels_match_pixel_domain_clustering():
    rng = Prng(84)
    for case in range(12):
        width, height = 5 + rng.below(12), 3 + rng.below(9)
        if width == height:
            width += 1
        data = np.array([rng.below(64) * 4 for _ in range(width * height)], dtype=np.uint8)
        image = GrayImage(width, height, data.reshape(height, width))
        config = FcmConfig(c=2 + rng.below(3), epsilon=1e-9, max_iter=200, seed=case)
        labels, result = fcm_segment(image, config)
        reference = fcm_cluster(data.astype(np.float64), config)
        order = np.argsort(reference.centroids[:, 0])
        reference.centroids = reference.centroids[order]
        expected = np.argmax(reference.memberships[:, order], axis=1).reshape(height, width)
        assert np.array_equal(labels.data, expected)
        assert np.abs(result.centroids - reference.centroids).max() < 1e-9
        assert result.iterations_run == reference.iterations_run
        assert result.memberships.shape == (np.unique(data).size, config.c)


def test_segment_tie_goes_to_lower_cluster_per_level():
    # equal thirds of 0/100/200 converge to centroids symmetric about 100, so
    # level 100 sits at exactly 0.5/0.5 (seed 5 draws 0 and 200)
    data = np.repeat(np.array([0, 100, 200], dtype=np.uint8), 39).reshape(13, 9)
    labels, result = fcm_segment(GrayImage(9, 13, data), FcmConfig(c=2, seed=5))
    levels, inverse = np.unique(data.ravel(), return_inverse=True)
    assert np.array_equal(labels.data.ravel(), np.argmax(result.memberships, axis=1)[inverse])
    assert result.memberships[1].tolist() == [0.5, 0.5]
    assert set(labels.data[data == 100].tolist()) == {0}


def test_segment_numbers_clusters_dark_to_bright():
    rng = Prng(85)
    for case in range(12):
        data = np.array([rng.below(256) for _ in range(20 * 14)], dtype=np.uint8).reshape(14, 20)
        config = FcmConfig(c=2 + case % 3, seed=case)
        labels, result = fcm_segment(GrayImage(20, 14, data), config)
        assert np.all(np.diff(result.centroids[:, 0]) > 0)
        means = [data[labels.data == label].mean() for label in range(config.c)]
        assert np.all(np.diff(means) > 0)


@pytest.mark.parametrize("c", [2, 3])
def test_segment_dominant_level_image_on_every_seed(c):
    # 98 % level 0: a draw over the pixels almost never finds c distinct values
    data = np.zeros(224 * 224, dtype=np.uint8)
    data[:500], data[500:1000] = 120, 200
    data = data.reshape(224, 224)
    for seed in range(20):
        labels, result = fcm_segment(GrayImage(224, 224, data), FcmConfig(c=c, seed=seed))
        assert result.converged
        assert set(np.unique(labels.data[data == 0]).tolist()) == {0}


@pytest.mark.parametrize("weights", [[1.0, 2.0], [1.0, -1.0, 2.0], [1.0, np.nan, 2.0]])
def test_bad_weights_rejected(weights):
    with pytest.raises(ValueError, match="weights"):
        fcm_cluster(np.array([0.0, 1.0, 5.0]), FcmConfig(c=2, seed=0), weights=weights)


def test_segment_with_fewer_levels_than_clusters_fails_at_once():
    data = np.where(np.arange(224 * 224) % 3 == 0, 30, 200).astype(np.uint8)
    image = GrayImage(224, 224, data.reshape(224, 224))
    with pytest.raises(ValueError, match=r"^image has 2 distinct gray levels, fewer than c=3$"):
        fcm_segment(image, FcmConfig(c=3, seed=0))


def test_segment_constant_single_cluster():
    image = GrayImage(6, 6, [40] * 36)
    labels, result = fcm_segment(image, FcmConfig(c=1, seed=0))
    assert set(np.unique(labels.data)) == {0}
    assert result.converged


def test_segment_preserves_dims():
    rng = Prng(81)
    image = GrayImage(9, 5, [rng.below(256) for _ in range(45)])
    labels, _ = fcm_segment(image, FcmConfig(c=3, seed=1))
    assert (labels.width, labels.height) == (9, 5)


def unique_form_segment(image, config):
    """`fcm_segment` as it was before its histogram: levels, pixel index and counts
    from `np.unique`, and each pixel's label gathered through that index."""
    levels, inverse, counts = np.unique(image.data.ravel(), return_inverse=True, return_counts=True)
    result = fcm_cluster(levels, config, weights=counts)
    order = np.argsort(result.centroids[:, 0], kind="stable")
    result.centroids = result.centroids[order]
    result.memberships = result.memberships[:, order]
    result.levels = levels
    labels = np.argmax(result.memberships, axis=1).astype(np.uint8)[inverse]
    return GrayImage(image.width, image.height, labels.reshape(image.height, image.width)), result


@pytest.mark.parametrize("width,height", [(32, 29), (224, 200)])
@pytest.mark.parametrize("levels,c", [(1, 1), (2, 2), (256, 3)])
def test_histogram_segment_equals_the_unique_form(width, height, levels, c):
    rng = Prng(width * levels + c)
    data = (rng.belows(np.full(width * height, levels)) * (255 // max(levels - 1, 1))).astype(np.uint8)
    if levels == 256:
        data[:256] = np.arange(256)  # every level present
    image = GrayImage(width, height, data.reshape(height, width))
    config = FcmConfig(c=c, seed=5)
    labels, result = fcm_segment(image, config)
    ref_labels, ref = unique_form_segment(image, config)
    assert np.unique(image.data).size == levels
    assert labels.data.dtype == ref_labels.data.dtype and np.array_equal(labels.data, ref_labels.data)
    assert result.levels.dtype == ref.levels.dtype and np.array_equal(result.levels, ref.levels)
    for name in ("memberships", "centroids"):
        assert np.array_equal(getattr(result, name), getattr(ref, name)), name
    assert (result.iterations_run, result.final_shift, result.converged) == (
        ref.iterations_run, ref.final_shift, ref.converged)


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------


def test_matrix_csv_round_trip(tmp_path):
    rng = Prng(82)
    matrix = random_points(rng, 5, 3)
    path = tmp_path / "u.csv"
    save_matrix_csv(matrix, path)
    rows = path.read_text(encoding="utf-8").splitlines()
    loaded = np.array([[float(v) for v in row.split(",")] for row in rows])
    assert np.array_equal(loaded, matrix)  # 17 significant digits is lossless


def test_run_summary_format():
    from deepbrainnet.fcm import FcmResult

    result = FcmResult(np.ones((1, 1)), np.zeros((1, 1)), 17, 3.25e-07, True)
    assert format_run_summary(result) == f"17,{3.25e-07:.17g},true"
    assert format_run_summary(result).endswith(",true")
    assert float(format_run_summary(result).split(",")[1]) == 3.25e-07
