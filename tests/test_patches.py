import numpy as np
import pytest

from corn.errors import NonFiniteInput, SizeMismatch, TooFewPoints
from corn.geom import Pose, random_rotation
from corn.patches import PatchConfig, farthest_point_sample, knn, make_patches


def brute_force_fps(points, n):
    # reference: plain python greedy selection with explicit tie handling
    chosen = [0]
    dist = [float(np.linalg.norm(p - points[0])) for p in points]
    while len(chosen) < n:
        best, best_d = None, -1.0
        for i, d in enumerate(dist):
            if d > best_d:
                best, best_d = i, d
        chosen.append(best)
        for i, p in enumerate(points):
            dist[i] = min(dist[i], float(np.linalg.norm(p - points[best])))
    return chosen


def brute_force_knn(points, query, k):
    order = sorted(range(len(points)), key=lambda i: (float(np.sum((points[i] - query) ** 2)), i))
    return order[:k]


def test_fps_square_corners():
    pts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]], dtype=float)
    idx = farthest_point_sample(pts, 2)
    assert idx[0] == 0 and idx[1] == 3  # opposite corner


def test_fps_exhaustion_is_permutation():
    rng = np.random.default_rng(0)
    pts = rng.normal(size=(40, 3))
    idx = farthest_point_sample(pts, 40)
    assert sorted(idx.tolist()) == list(range(40))


def test_fps_matches_brute_force_many_seeds():
    for seed in range(50):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(10, 400))
        pts = rng.normal(size=(n, 3))
        k = int(rng.integers(2, min(n, 32)))
        assert farthest_point_sample(pts, k).tolist() == brute_force_fps(pts, k)


def test_fps_beats_random_subsets():
    rng = np.random.default_rng(1)
    pts = rng.normal(size=(512, 3))
    idx = farthest_point_sample(pts, 16)

    def min_pairwise(sel):
        sub = pts[sel]
        d = np.linalg.norm(sub[:, None] - sub[None, :], axis=-1)
        return d[np.triu_indices(len(sel), 1)].min()

    fps_quality = min_pairwise(idx)
    for _ in range(1000):
        sel = rng.choice(512, size=16, replace=False)
        assert fps_quality >= min_pairwise(sel)


def test_fps_too_few_points():
    with pytest.raises(TooFewPoints):
        farthest_point_sample(np.zeros((3, 3)), 4)


def test_knn_query_on_cloud_point():
    rng = np.random.default_rng(2)
    pts = rng.normal(size=(100, 3))
    idx = knn(pts, pts[17], 5)
    assert idx[0] == 17


def test_knn_collinear_points():
    pts = np.array([[0, 0, 0], [1, 0, 0], [2, 0, 0], [3, 0, 0]], dtype=float)
    assert knn(pts, [0, 0, 0], 2).tolist() == [0, 1]


def test_knn_matches_brute_force_many_seeds():
    for seed in range(50):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(20, 500))
        pts = rng.normal(size=(n, 3))
        # include duplicated points so distance ties actually occur
        pts[n // 2] = pts[0]
        for _ in range(4):
            q = rng.normal(size=3)
            k = int(rng.integers(1, min(n, 24)))
            assert knn(pts, q, k).tolist() == brute_force_knn(pts, q, k)


def test_knn_too_few_points():
    with pytest.raises(TooFewPoints):
        knn(np.zeros((2, 3)), [0, 0, 0], 3)


def test_make_patches_shapes_and_invariants():
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(512, 3))
    ps = make_patches(pts, PatchConfig())
    assert ps.centers.shape == (16, 3)
    assert ps.patches.shape == (16, 32, 3)
    assert ps.member_indices.shape == (16, 32)
    # centers are cloud points
    assert all(any(np.array_equal(c, p) for p in pts) for c in ps.centers)
    # member consistency and sortedness
    for i in range(16):
        assert np.array_equal(pts[ps.member_indices[i]] - ps.centers[i], ps.patches[i])
        d = np.linalg.norm(ps.patches[i], axis=1)
        assert np.all(np.diff(d) >= -1e-12)
    assert np.allclose(ps.patches[:, 0, :], 0.0)


def test_make_patches_members_match_stable_argsort():
    # every third cloud is snapped to a 0.5 or 0.125 grid, so many rows hold
    # more points at the k-th distance than the patch has room for
    rng = np.random.default_rng(20)
    for i in range(3000):
        pts = rng.normal(size=(512, 3))
        if i % 3:
            step = 0.5 if i % 3 == 1 else 0.125
            pts = np.round(pts / step) * step
        centers = pts[farthest_point_sample(pts, 16)]
        diff = centers[:, None, :] - pts[None, :, :]
        d2 = np.einsum("pnk,pnk->pn", diff, diff)
        want = np.argsort(d2, axis=1, kind="stable")[:, :32]
        assert np.array_equal(make_patches(pts).member_indices, want), i


def test_make_patches_rejects_non_finite_points():
    pts = np.random.default_rng(21).normal(size=(512, 3))
    pts[7, 1] = np.nan
    with pytest.raises(NonFiniteInput):
        make_patches(pts)


def test_make_patches_size_mismatch():
    with pytest.raises(SizeMismatch):
        make_patches(np.zeros((100, 3)), PatchConfig())


def test_translation_leaves_patches_bit_identical():
    rng = np.random.default_rng(4)
    pts = rng.normal(size=(512, 3))
    a = make_patches(pts, PatchConfig())
    b = make_patches(pts + np.array([10.0, -3.0, 0.5]), PatchConfig())
    assert np.array_equal(a.member_indices, b.member_indices)
    # distance computations shift numerically, so membership (not bytes) is
    # the bit-stable guarantee; normalized coordinates agree to rounding
    assert np.allclose(a.patches, b.patches, atol=1e-9)


def test_rigid_transform_rotates_patches():
    rng = np.random.default_rng(5)
    pts = rng.normal(size=(512, 3)) * 0.1
    t = Pose(rng.normal(size=3), random_rotation(rng))
    a = make_patches(pts, PatchConfig())
    b = make_patches(t.apply(pts), PatchConfig())
    assert np.array_equal(a.member_indices, b.member_indices)
    assert np.allclose(t.rotation.apply(a.patches.reshape(-1, 3)), b.patches.reshape(-1, 3), atol=1e-9)


def test_make_patches_deterministic():
    rng = np.random.default_rng(6)
    pts = rng.normal(size=(512, 3))
    a = make_patches(pts, PatchConfig())
    b = make_patches(pts.copy(), PatchConfig())
    assert np.array_equal(a.patches, b.patches)
    assert np.array_equal(a.member_indices, b.member_indices)
    assert np.array_equal(a.centers, b.centers)
