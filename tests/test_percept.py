import numpy as np
import pytest
from scipy.spatial import cKDTree

from corn import shapes
from corn.errors import BadMagic, DegenerateInput, NoCorrespondences, TooFewPoints
from corn.geom import (
    Aabb,
    PointCloud,
    Pose,
    Rotation,
    points_in_mesh,
    sample_surface_points,
)
from corn.percept import (
    SegmentationConfig,
    crop_workspace,
    dbscan,
    estimate_normals,
    halfspaces_of_box,
    icp,
    init_tracker,
    radius_outlier_removal,
    read_pcseq,
    remove_robot,
    remove_table,
    segment_object,
    track_step,
    write_pcseq,
)

PLANE_P = np.zeros(3)
PLANE_N = np.array([0.0, 0.0, 1.0])


def box_cloud(n, rng, extents=(0.1, 0.08, 0.06)):
    return sample_surface_points(shapes.box(extents), n, rng)


# ------------------------------------------------------------------ filters


def test_crop_workspace_identity_and_empty():
    rng = np.random.default_rng(0)
    ws = Aabb((-1, -1, -1), (1, 1, 1))
    inside = PointCloud(rng.uniform(-0.9, 0.9, (50, 3)))
    assert np.array_equal(crop_workspace(inside, ws).points, inside.points)
    outside = PointCloud(rng.uniform(2, 3, (50, 3)))
    assert len(crop_workspace(outside, ws)) == 0


def test_crop_workspace_matches_brute_force():
    rng = np.random.default_rng(1)
    ws = Aabb((-0.3, -0.2, 0.0), (0.4, 0.3, 0.5))
    pts = rng.uniform(-1, 1, (500, 3))
    got = crop_workspace(PointCloud(pts), ws).points
    want = np.array([p for p in pts if np.all(p >= ws.min) and np.all(p <= ws.max)])
    want = want.reshape(-1, 3)
    assert np.array_equal(got, want)


def test_remove_table_cases():
    cloud = PointCloud([[0, 0, 0], [0, 0, 0.02], [0, 0, 0.005], [0, 0, -0.03]])
    out = remove_table(cloud, PLANE_P, PLANE_N, eps=0.01)
    assert np.array_equal(out.points, [[0, 0, 0.02], [0, 0, -0.03]])


def test_remove_table_matches_brute_force():
    rng = np.random.default_rng(2)
    pts = rng.uniform(-0.05, 0.05, (500, 3))
    got = remove_table(PointCloud(pts), PLANE_P, PLANE_N, eps=0.01).points
    want = pts[np.abs(pts[:, 2]) >= 0.01]
    assert np.array_equal(got, want)


def test_remove_table_requires_unit_normal():
    with pytest.raises(DegenerateInput):
        remove_table(PointCloud([[0, 0, 1.0]]), PLANE_P, [0, 0, 2.0])


def test_remove_robot_cases():
    hull = halfspaces_of_box(Aabb((-0.5, -0.5, -0.5), (0.5, 0.5, 0.5)))
    cloud = PointCloud([[0, 0, 0], [2, 0, 0]])
    out = remove_robot(cloud, [hull])
    assert np.array_equal(out.points, [[2.0, 0, 0]])


def test_remove_robot_matches_mesh_containment():
    rng = np.random.default_rng(3)
    bb = Aabb((-0.2, -0.1, 0.0), (0.1, 0.2, 0.3))
    hull = halfspaces_of_box(bb)
    mesh = shapes.box(bb.max - bb.min, center=(bb.min + bb.max) / 2)
    pts = rng.uniform(-0.4, 0.4, (500, 3))
    got = remove_robot(PointCloud(pts), [hull]).points
    inside = points_in_mesh(pts, mesh)
    # margin keeps exactly-on-boundary points out; random points are interior
    want = pts[~inside]
    assert np.array_equal(got, want)


def test_radius_outlier_single_point_removed():
    out = radius_outlier_removal(PointCloud([[0, 0, 0]]), 0.02, 1)
    assert len(out) == 0


def test_radius_outlier_dense_grid_kept():
    g = np.linspace(0, 0.009, 10)
    pts = np.stack(np.meshgrid(g, g, g, indexing="ij"), axis=-1).reshape(-1, 3)
    out = radius_outlier_removal(PointCloud(pts), 0.02, 96)
    # with 1 mm spacing every point sees hundreds of neighbors within 2 cm
    assert len(out) == 1000


def test_radius_outlier_matches_brute_force():
    rng = np.random.default_rng(4)
    pts = rng.uniform(0, 0.1, (2000, 3))
    r, n_min = 0.012, 10
    got = radius_outlier_removal(PointCloud(pts), r, n_min).points
    d2 = np.sum((pts[:, None] - pts[None]) ** 2, axis=-1)
    counts = np.sum(d2 <= r * r, axis=1) - 1
    want = pts[counts >= n_min]
    assert np.array_equal(got, want)


# ------------------------------------------------------------------- dbscan


def reference_dbscan(pts, eps, min_pts):
    # textbook reference sharing the toolkit's border and numbering rules
    n = len(pts)
    dist = np.linalg.norm(pts[:, None] - pts[None], axis=-1)
    neighbors = [np.flatnonzero(dist[i] <= eps).tolist() for i in range(n)]
    core = [len(nb) >= min_pts for nb in neighbors]
    comp = [-1] * n
    n_comp = 0
    for s in range(n):
        if not core[s] or comp[s] != -1:
            continue
        stack = [s]
        comp[s] = n_comp
        while stack:
            i = stack.pop()
            for j in neighbors[i]:
                if core[j] and comp[j] == -1:
                    comp[j] = n_comp
                    stack.append(j)
        n_comp += 1
    labels = [-1] * n
    for i in range(n):
        if core[i]:
            labels[i] = comp[i]
        else:
            options = [
                ((dist[i][j], tuple(pts[j])), comp[j]) for j in neighbors[i] if core[j]
            ]
            if options:
                labels[i] = min(options)[1]
    remap = {}
    out = []
    for l in labels:
        if l >= 0 and l not in remap:
            remap[l] = len(remap)
        out.append(remap[l] if l >= 0 else -1)
    return np.array(out)


def test_dbscan_two_blobs():
    rng = np.random.default_rng(5)
    a = rng.normal(scale=0.002, size=(40, 3))
    b = rng.normal(scale=0.002, size=(40, 3)) + [0.1, 0, 0]
    labels = dbscan(np.vstack([a, b]), eps=0.01, min_pts=4)
    assert labels.max() == 1
    assert np.all(labels[:40] == labels[0]) and np.all(labels[40:] == labels[40])
    assert labels[0] != labels[40]


def test_dbscan_single_point_is_noise():
    assert dbscan(np.zeros((1, 3)), eps=0.01, min_pts=4)[0] == -1


def test_dbscan_matches_reference_many_seeds():
    for seed in range(50):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(30, 500))
        centers = rng.uniform(0, 0.2, (int(rng.integers(1, 5)), 3))
        pts = np.vstack([
            c + rng.normal(scale=0.004, size=(n // len(centers) + 1, 3)) for c in centers
        ])[:n]
        eps = float(rng.uniform(0.005, 0.02))
        min_pts = int(rng.integers(3, 8))
        got = dbscan(pts, eps, min_pts)
        want = reference_dbscan(pts, eps, min_pts)
        assert np.array_equal(got, want), seed


def test_dbscan_border_tie_break_and_numbering():
    # eps 1, min_pts 4: a chain of four points 0.3 apart is a cluster of cores,
    # and a point 0.9 beyond either end of it is a border point
    chain = np.array([[0.0, 0.0, 0.0], [0.3, 0.0, 0.0], [0.6, 0.0, 0.0], [0.9, 0.0, 0.0]])
    right = chain + [0.9, 0.0, 0.0]
    pts = np.vstack([
        [-0.9, 0.0, 20.0],          # 0: border of the cluster at z = 20
        right,                      # 1-4
        -right,                     # 5-8: the mirror image of 1-4
        [0.0, 0.0, 0.0],            # 9: border 0.9 from both cores 1 and 5
        chain + [0.0, 0.0, 20.0],   # 10-13: the cores of point 0's cluster
    ])
    labels = dbscan(pts, eps=1.0, min_pts=4)
    # point 0 gives its cluster number 0 although that cluster's cores come
    # last; point 9 joins core 5 at (-0.9, 0, 0), below core 1 at (0.9, 0, 0)
    assert labels.tolist() == [0, 1, 1, 1, 1, 2, 2, 2, 2, 2, 0, 0, 0, 0]
    assert np.array_equal(labels, reference_dbscan(pts, 1.0, 4))


def test_dbscan_partition_independent_of_order():
    rng = np.random.default_rng(6)
    pts = np.vstack([
        rng.normal(scale=0.004, size=(60, 3)),
        rng.normal(scale=0.004, size=(60, 3)) + [0.05, 0, 0],
        rng.uniform(-0.2, 0.2, (20, 3)),
    ])
    base = dbscan(pts, 0.01, 4)
    for _ in range(5):
        perm = rng.permutation(len(pts))
        permuted = dbscan(pts[perm], 0.01, 4)
        back = np.empty_like(permuted)
        back[perm] = permuted
        # identical partition: same noise set, same co-membership
        assert np.array_equal(back == -1, base == -1)
        for i in range(0, len(pts), 7):
            same_base = (base == base[i]) & (base >= 0)
            same_perm = (back == back[i]) & (back >= 0)
            if base[i] >= 0:
                assert np.array_equal(same_base, same_perm)


def test_filters_commute_with_rigid_transforms():
    # moving the cloud and every geometric parameter by the same rigid
    # transform must select the same points
    rng = np.random.default_rng(19)
    pts = rng.uniform(-0.2, 0.2, (400, 3))
    t = Pose(rng.normal(size=3), Rotation.from_axis_angle(rng.normal(size=3)))

    plane_p, plane_n = np.array([0.0, 0.0, 0.01]), np.array([0.0, 0.0, 1.0])
    base = remove_table(PointCloud(pts), plane_p, plane_n, eps=0.02).points
    moved = remove_table(PointCloud(t.apply(pts)), t.apply(plane_p),
                         t.rotation.apply(plane_n), eps=0.02).points
    assert np.array_equal(t.apply(base), moved) or np.allclose(t.apply(base), moved, atol=1e-12)

    hull = halfspaces_of_box(Aabb((-0.1, -0.1, -0.1), (0.1, 0.1, 0.1)))
    normals = t.rotation.apply(hull[:, :3])
    offsets = hull[:, 3] + normals @ t.translation
    hull_moved = np.column_stack([normals, offsets])
    base = remove_robot(PointCloud(pts), [hull]).points
    moved = remove_robot(PointCloud(t.apply(pts)), [hull_moved]).points
    assert np.allclose(t.apply(base), moved, atol=1e-12)

    base_mask = radius_outlier_removal(PointCloud(pts), 0.05, 8).points
    moved_mask = radius_outlier_removal(PointCloud(t.apply(pts)), 0.05, 8).points
    assert np.allclose(t.apply(base_mask), moved_mask, atol=1e-12)

    labels_a = dbscan(pts, 0.05, 4)
    labels_b = dbscan(t.apply(pts), 0.05, 4)
    assert np.array_equal(labels_a, labels_b)


# ------------------------------------------------------------------ normals


def test_normals_on_plane():
    rng = np.random.default_rng(7)
    pts = np.column_stack([rng.uniform(0, 0.1, 300), rng.uniform(0, 0.1, 300), np.zeros(300)])
    cloud = estimate_normals(PointCloud(pts), k=12)
    assert np.allclose(np.abs(cloud.normals[:, 2]), 1.0, atol=1e-3)
    assert np.allclose(np.linalg.norm(cloud.normals, axis=1), 1.0, atol=1e-12)


def test_normals_on_sphere_radial():
    # finely tessellated sphere so facet normals stay within the radial band
    rng = np.random.default_rng(8)
    cloud = sample_surface_points(shapes.icosphere(0.05, 4), 4000, rng)
    with_normals = estimate_normals(cloud, k=16, viewpoint=(0, 0, 0))
    radial = cloud.points / np.linalg.norm(cloud.points, axis=1, keepdims=True)
    cosines = np.abs(np.einsum("nk,nk->n", with_normals.normals, radial))
    assert np.all(cosines > np.cos(np.deg2rad(5.0)))


def test_normals_need_enough_points():
    with pytest.raises(TooFewPoints):
        estimate_normals(PointCloud(np.zeros((5, 3))), k=8)


# ---------------------------------------------------------------------- icp


def known_transform():
    axis = np.array([0.3, -0.5, 0.81])
    axis /= np.linalg.norm(axis)
    return Pose([0.006, -0.005, 0.006], Rotation.from_axis_angle(axis * np.deg2rad(5.0)))


def test_icp_identity():
    rng = np.random.default_rng(9)
    cloud = box_cloud(1024, rng)
    tgt = estimate_normals(cloud, 16)
    pose, fitness = icp(cloud, tgt, Pose.identity(), "point_to_plane")
    assert fitness == 1.0
    assert np.linalg.norm(pose.translation) < 1e-9
    assert pose.rotation.angle_to(Rotation.identity()) < 1e-9


@pytest.mark.parametrize("mode", ["point_to_plane", "point_to_point"])
def test_icp_recovers_known_transform(mode):
    rng = np.random.default_rng(10)
    src = box_cloud(2048, rng)
    t = known_transform()
    tgt = estimate_normals(PointCloud(t.apply(src.points)), 16)
    pose, fitness = icp(src, tgt, Pose.identity(), mode, max_corr_dist=0.02)
    assert np.linalg.norm(pose.translation - t.translation) < 1e-3
    assert pose.rotation.angle_to(t.rotation) < 1e-3
    assert fitness > 0.99


def test_icp_with_occlusion_and_noise():
    rng = np.random.default_rng(11)
    src = box_cloud(2048, rng)
    t = known_transform()
    moved = t.apply(src.points)
    keep = rng.permutation(len(moved))[: int(0.9 * len(moved))]
    noisy = moved[keep] + rng.normal(scale=0.001, size=(len(keep), 3))
    tgt = estimate_normals(PointCloud(noisy), 16)
    pose, _ = icp(src, tgt, Pose.identity(), "point_to_plane", max_corr_dist=0.02)
    assert np.linalg.norm(pose.translation - t.translation) < 5e-3
    assert pose.rotation.angle_to(t.rotation) < 1e-2


def mean_residual(src, tgt, pose, mode, max_corr_dist):
    """icp's mean correspondence residual of `pose`, recomputed."""
    moved = pose.apply(src.points)
    dist, idx = cKDTree(tgt.points).query(moved, distance_upper_bound=max_corr_dist)
    mask = np.isfinite(dist)
    if mode == "point_to_point":
        return float(np.mean(dist[mask]))
    offsets = moved[mask] - tgt.points[idx[mask]]
    return float(np.mean(np.abs(np.einsum("nk,nk->n", offsets, tgt.normals[idx[mask]]))))


def test_icp_residual_never_increases():
    rng = np.random.default_rng(20)
    src = box_cloud(1500, rng)
    t = known_transform()
    noisy = t.apply(src.points) + rng.normal(scale=0.0015, size=src.points.shape)
    tgt = estimate_normals(PointCloud(noisy), 16)
    for mode in ("point_to_plane", "point_to_point"):
        # the pose returned after iters = 1, 2, ... is the iters-th accepted
        # pose until icp stops, and the last accepted pose from then on
        residuals, last = [], None
        for iters in range(1, 31):
            pose, _ = icp(src, tgt, Pose.identity(), mode, iters, 1e-12, 0.02)
            if last is not None and np.array_equal(pose.to_seven(), last.to_seven()):
                break
            residuals.append(mean_residual(src, tgt, pose, mode, 0.02))
            last = pose
        assert len(residuals) >= 2
        assert all(a >= b - 1e-15 for a, b in zip(residuals, residuals[1:]))


def test_icp_fitness_is_of_the_returned_pose():
    rng = np.random.default_rng(21)
    src = box_cloud(1500, rng)
    tgt = estimate_normals(PointCloud(known_transform().apply(src.points)), 16)
    for iters in (1, 2, 30):
        pose, fitness = icp(src, tgt, Pose.identity(), "point_to_plane", iters, max_corr_dist=0.005)
        dist, _ = cKDTree(tgt.points).query(pose.apply(src.points), distance_upper_bound=0.005)
        assert fitness == np.mean(np.isfinite(dist))


def test_icp_needs_an_iteration():
    rng = np.random.default_rng(13)
    cloud = estimate_normals(box_cloud(256, rng), 8)
    with pytest.raises(DegenerateInput):
        icp(cloud, cloud, Pose.identity(), "point_to_plane", iters=0)


def test_icp_no_correspondences():
    rng = np.random.default_rng(12)
    src = box_cloud(256, rng)
    far = PointCloud(src.points + np.array([5.0, 0, 0]))
    with pytest.raises(NoCorrespondences):
        icp(src, estimate_normals(far, 8), Pose.identity(), "point_to_plane")


def test_icp_needs_normals_for_point_to_plane():
    rng = np.random.default_rng(13)
    cloud = box_cloud(256, rng)
    with pytest.raises(DegenerateInput):
        icp(cloud, cloud, Pose.identity(), "point_to_plane")


# ------------------------------------------------------------------ tracking


def test_tracking_static_object_low_drift():
    rng = np.random.default_rng(14)
    base = box_cloud(3000, rng)
    init_pose = Pose([0.3, 0.1, 0.05], Rotation.from_axis_angle([0, 0, 0.4]))
    world0 = PointCloud(init_pose.apply(base.points))
    state = init_tracker(world0, init_pose, SegmentationConfig(), seed=0)
    for _ in range(10):
        frame = PointCloud(init_pose.apply(base.points) + rng.normal(scale=0.001, size=base.points.shape))
        state = track_step(state, frame)
    drift = np.linalg.norm(state.pose.translation - init_pose.translation)
    assert drift < 5e-3
    assert not state.lost


def test_tracking_moving_object():
    rng = np.random.default_rng(15)
    base = box_cloud(3000, rng)
    init_pose = Pose.identity()
    state = init_tracker(PointCloud(base.points), init_pose, SegmentationConfig(), seed=0)
    true_t = np.zeros(3)
    for step in range(20):
        true_t = true_t + np.array([0.005, 0.0, 0.0])
        frame = PointCloud(base.points + true_t + rng.normal(scale=0.0005, size=base.points.shape))
        state = track_step(state, frame)
        err = np.linalg.norm(state.pose.translation - true_t)
        assert err < 2e-3, (step, err)
    assert np.linalg.norm(state.pose.translation - true_t) < 5e-3


def test_tracking_occluded_frame_holds_pose():
    rng = np.random.default_rng(16)
    base = box_cloud(2000, rng)
    state = init_tracker(base, Pose.identity(), SegmentationConfig(), seed=0)
    before = state.pose
    state = track_step(state, PointCloud(np.zeros((0, 3))))
    assert state.lost
    assert np.array_equal(state.pose.translation, before.translation)


@pytest.mark.parametrize("kwargs", [
    dict(corr_dist=np.nan), dict(corr_dist=-1.0), dict(corr_dist=0.0), dict(corr_dist=np.inf),
    dict(fitness_threshold=np.nan), dict(fitness_threshold=-0.1), dict(fitness_threshold=1.5),
], ids=["corr-nan", "corr-negative", "corr-zero", "corr-inf", "fit-nan", "fit-negative", "fit-above-one"])
def test_init_tracker_rejects_bad_gate_values(kwargs):
    # a NaN bound matches nothing and a negative one still matches near
    # points in cKDTree.query, so both would give a wrong track, not an error
    cloud = box_cloud(200, np.random.default_rng(19))
    with pytest.raises(DegenerateInput):
        init_tracker(cloud, Pose.identity(), SegmentationConfig(), **kwargs)


# ----------------------------------------------------------- pipeline, pcseq


def test_segment_object_pipeline_extracts_object():
    rng = np.random.default_rng(17)
    cfg = SegmentationConfig()
    obj = sample_surface_points(shapes.box((0.08, 0.06, 0.05), center=(0.1, 0.0, 0.1)), 3000, rng)
    table = np.column_stack([
        rng.uniform(-0.4, 0.4, 2000), rng.uniform(-0.4, 0.4, 2000), rng.normal(0, 0.002, 2000)
    ])
    robot = rng.uniform(-0.05, 0.05, (500, 3)) + np.array([-0.2, 0.2, 0.3])
    stray = rng.uniform(-2, 2, (100, 3))
    cloud = PointCloud(np.vstack([obj.points, table, robot, stray]))
    hull = halfspaces_of_box(Aabb((-0.26, 0.14, 0.24), (-0.14, 0.26, 0.36)))
    out = segment_object(cloud, cfg, hulls=[hull])
    # every survivor is an object point: objects sit first in the stack
    assert len(out) > 2000
    d2obj = np.min(np.linalg.norm(out.points[:, None, :] - obj.points[None, :500, :], axis=-1), axis=1)
    assert len(out) and np.all(out.points[:, 2] > 0.01)


def test_pcseq_round_trip(tmp_path):
    rng = np.random.default_rng(18)
    frames = [rng.normal(size=(int(rng.integers(5, 50)), 3)).astype(np.float32) for _ in range(7)]
    path = tmp_path / "seq.pcseq"
    write_pcseq(frames, path)
    back = read_pcseq(path)
    assert len(back) == 7
    for a, b in zip(frames, back):
        assert np.array_equal(a.astype(np.float64), b.points.astype(np.float64))


def test_pcseq_bad_magic(tmp_path):
    path = tmp_path / "x.pcseq"
    write_pcseq([np.zeros((3, 3), dtype=np.float32)], path)
    raw = bytearray(path.read_bytes())
    raw[:4] = b"ZZZZ"
    path.write_bytes(bytes(raw))
    with pytest.raises(BadMagic):
        read_pcseq(path)
