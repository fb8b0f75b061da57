import numpy as np
import pytest

from corn import shapes
from corn.errors import (
    DegenerateInput,
    EmptyMesh,
    MeshLoadError,
    NotWatertight,
)
from corn.geom import (
    _RAY_DIRECTIONS,
    _cast_parity,
    Aabb,
    Pose,
    Rotation,
    TriMesh,
    compose,
    load_obj,
    nearest_displacement,
    nearest_point_on_mesh,
    nearest_points_on_mesh,
    point_in_mesh,
    points_in_mesh,
    random_rotation,
    rot_from_6d,
    rot_to_6d,
    sample_surface_points,
    save_obj,
)


def random_pose(rng):
    return Pose(rng.normal(size=3), random_rotation(rng))


# ---------------------------------------------------------------- rotations


def test_rotation_canonicalized_and_validated():
    r = Rotation(np.array([0.0, 0.0, 0.0, -1.0]))
    assert r.quat[3] == 1.0
    with pytest.raises(DegenerateInput):
        Rotation(np.array([0.0, 0.0, 0.0, 1.1]))


def test_compose_identity():
    rng = np.random.default_rng(0)
    t = random_pose(rng)
    out = compose(Pose.identity(), t)
    assert np.allclose(out.translation, t.translation, atol=1e-12)
    assert np.allclose(out.rotation.quat, t.rotation.quat, atol=1e-12)


def test_compose_pure_translations():
    a = Pose(np.array([1.0, 0.0, 0.0]), Rotation.identity())
    b = Pose(np.array([0.0, 2.0, 0.0]), Rotation.identity())
    assert np.allclose(compose(a, b).translation, [1.0, 2.0, 0.0])


def test_rotation_90deg_about_z():
    p = Pose(np.zeros(3), Rotation.from_axis_angle([0.0, 0.0, np.pi / 2]))
    assert np.allclose(p.apply([1.0, 0.0, 0.0]), [0.0, 1.0, 0.0], atol=1e-9)


def test_pose_group_laws():
    rng = np.random.default_rng(1)
    for _ in range(200):
        a, b, c = (random_pose(rng) for _ in range(3))
        p = rng.normal(size=3)
        lhs = compose(compose(a, b), c).apply(p)
        rhs = compose(a, compose(b, c)).apply(p)
        assert np.allclose(lhs, rhs, atol=1e-9)
        ident = compose(a, a.inverse())
        assert np.allclose(ident.translation, 0.0, atol=1e-9)
        assert np.allclose(ident.rotation.quat, [0, 0, 0, 1], atol=1e-9)


def test_compose_matches_pointwise_application():
    rng = np.random.default_rng(2)
    for _ in range(50):
        a, b = random_pose(rng), random_pose(rng)
        pts = rng.normal(size=(5, 3))
        assert np.allclose(compose(a, b).apply(pts), a.apply(b.apply(pts)), atol=1e-9)


# ------------------------------------------------------------------- rot6d


def test_rot6d_identity():
    assert np.allclose(rot_to_6d(Rotation.identity()), [1, 0, 0, 0, 1, 0])


def test_rot6d_round_trip():
    rng = np.random.default_rng(3)
    for _ in range(100):
        r = random_rotation(rng)
        back = rot_from_6d(rot_to_6d(r))
        assert r.angle_to(back) < 1e-9


def gram_schmidt_oracle(r6):
    # independent reference: plain python Gram-Schmidt, column by column
    a1 = [float(x) for x in r6[:3]]
    a2 = [float(x) for x in r6[3:]]
    n1 = sum(x * x for x in a1) ** 0.5
    b1 = [x / n1 for x in a1]
    dot = sum(x * y for x, y in zip(b1, a2))
    a2p = [y - dot * x for x, y in zip(b1, a2)]
    n2 = sum(x * x for x in a2p) ** 0.5
    b2 = [x / n2 for x in a2p]
    b3 = [
        b1[1] * b2[2] - b1[2] * b2[1],
        b1[2] * b2[0] - b1[0] * b2[2],
        b1[0] * b2[1] - b1[1] * b2[0],
    ]
    return np.array([b1, b2, b3]).T


def test_rot6d_gram_schmidt_against_oracle():
    rng = np.random.default_rng(4)
    for _ in range(100):
        r6 = rot_to_6d(random_rotation(rng)) + rng.normal(scale=0.1, size=6)
        got = rot_from_6d(r6).as_matrix()
        assert np.allclose(got, gram_schmidt_oracle(r6), atol=1e-9)


def test_rot6d_degenerate_inputs():
    with pytest.raises(DegenerateInput):
        rot_from_6d([0, 0, 0, 0, 1, 0])
    with pytest.raises(DegenerateInput):
        rot_from_6d([1, 0, 0, 2, 0, 0])


# --------------------------------------------------------- surface sampling


def test_surface_samples_lie_on_cube_faces():
    cube = shapes.box((1, 1, 1))
    pts = sample_surface_points(cube, 512, np.random.default_rng(0)).points
    assert np.allclose(np.abs(pts).max(axis=1), 0.5, atol=1e-9)


def test_surface_sampling_area_weighted_chi_square():
    from scipy.stats import chisquare

    cube = shapes.box((1, 1, 1))
    pts = sample_surface_points(cube, 60_000, np.random.default_rng(5)).points
    axis = np.argmax(np.abs(pts), axis=1)
    sign = pts[np.arange(len(pts)), axis] > 0
    face = axis * 2 + sign
    counts = np.bincount(face, minlength=6)
    assert chisquare(counts).pvalue > 0.001


def test_surface_sampling_degenerate_mesh():
    flat = TriMesh(np.zeros((3, 3)), [[0, 1, 2]])  # zero-area face
    with pytest.raises(EmptyMesh):
        sample_surface_points(flat, 10, np.random.default_rng(0))


def test_sampling_bit_reproducible():
    mesh = shapes.icosphere(0.3, 1)
    a = sample_surface_points(mesh, 100, np.random.default_rng(7)).points
    b = sample_surface_points(mesh, 100, np.random.default_rng(7)).points
    assert np.array_equal(a, b)


# -------------------------------------------------------------- containment


def test_point_in_cube_basics():
    cube = shapes.box((1, 1, 1))
    assert point_in_mesh((0, 0, 0), cube)
    assert not point_in_mesh((0.6, 0, 0), cube)


def test_point_in_mesh_requires_watertight():
    open_mesh = TriMesh([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 2]])
    assert not open_mesh.watertight
    with pytest.raises(NotWatertight):
        point_in_mesh((0, 0, 0), open_mesh)


def convex_plane_oracle(points, mesh):
    # exact containment for convex meshes: inside all outward face planes
    tri = mesh.triangles()
    n = np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])
    n /= np.linalg.norm(n, axis=1, keepdims=True)
    d = np.einsum("qmk,mk->qm", points[:, None, :] - tri[:, 0][None], n)
    return np.all(d <= 0.0, axis=1)


def test_point_in_icosphere_vs_plane_oracle():
    sphere = shapes.icosphere(0.5, 2)
    rng = np.random.default_rng(8)
    pts = rng.uniform(-0.6, 0.6, size=(1000, 3))
    keep = np.abs(np.linalg.norm(pts, axis=1) - 0.5) > 1e-3
    got = points_in_mesh(pts[keep], sphere)
    want = convex_plane_oracle(pts[keep], sphere)
    assert np.array_equal(got, want)


def test_point_in_cube_vs_analytic_oracle():
    cube = shapes.box((1, 1, 1))
    rng = np.random.default_rng(9)
    pts = rng.uniform(-0.8, 0.8, size=(1000, 3))
    keep = np.abs(np.abs(pts).max(axis=1) - 0.5) > 1e-9
    got = points_in_mesh(pts[keep], cube)
    want = np.abs(pts[keep]).max(axis=1) < 0.5
    assert np.array_equal(got, want)


def test_containment_rigid_equivariance():
    mesh = shapes.wedge((0.2, 0.15, 0.1))
    rng = np.random.default_rng(10)
    pts = rng.uniform(-0.2, 0.2, size=(200, 3))
    base = points_in_mesh(pts, mesh)
    for _ in range(5):
        t = random_pose(rng)
        moved = points_in_mesh(t.apply(pts), mesh.transformed(t))
        assert np.array_equal(base, moved)


def test_axis_aligned_ray_through_vertices():
    # queries aligned with cube vertices force the degenerate-recast path
    cube = shapes.box((1, 1, 1))
    on_axis = np.array([[0.5, 0.5, 0.0], [0.49, 0.49, 0.49], [0.51, 0.51, 0.51]])
    got = points_in_mesh(on_axis, cube)
    assert bool(got[1]) and not bool(got[2])


def cast_containment(points, mesh):
    """points_in_mesh without its bounding-box skip: every point is cast."""
    tri = mesh.triangles()
    e1, e2 = tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0]
    normal = np.cross(e1, e2)
    normal /= np.linalg.norm(normal, axis=1, keepdims=True)
    faces = (tri[:, 0], e1, e2, normal)
    casts = [_cast_parity(points, *faces, d) for d in _RAY_DIRECTIONS]
    inside, degenerate, on_surface = (np.stack(x) for x in zip(*casts))
    clean = ~degenerate
    n_clean = clean.sum(axis=0)
    vote = np.where(n_clean > 0, np.sum(inside & clean, axis=0) * 2 > n_clean,
                    inside.sum(axis=0) * 2 > 3)
    return np.where(degenerate[0], vote, inside[0]) | on_surface[0] | (degenerate[0] & on_surface.any(axis=0))


def box_face_points(lo, hi, n, rng):
    """Points on the faces, edges and corners of the box [lo, hi], with the
    outward unit normal of the face each was put on."""
    pts = rng.uniform(lo, hi, size=(n, 3))
    axis = rng.integers(0, 3, n)
    side = rng.integers(0, 2, n)
    rows = np.arange(n)
    pts[rows, axis] = np.where(side == 1, hi[axis], lo[axis])
    edge = rows[: n // 3]
    other = (axis[edge] + 1) % 3
    pts[edge, other] = np.where(rng.integers(0, 2, len(edge)) == 1, hi[other], lo[other])
    normal = np.zeros((n, 3))
    normal[rows, axis] = np.where(side == 1, 1.0, -1.0)
    return pts, normal


def test_bounding_box_skip_matches_casts_on_cube():
    cube = shapes.box((1, 1, 1))
    rng = np.random.default_rng(23)
    face, normal = box_face_points(-0.5 * np.ones(3), 0.5 * np.ones(3), 600, rng)
    offsets = (0.0, 1e-10, -1e-10, 1e-7, -1e-7, 2e-6, 1e-3)
    pts = np.vstack([face + d * normal for d in offsets]
                    + [cube.vertices, rng.uniform(-0.8, 0.8, size=(2000, 3))])
    got = points_in_mesh(pts, cube)
    assert np.array_equal(got, cast_containment(pts, cube))
    analytic = np.abs(pts).max(axis=1) <= 0.5
    tolerated = np.zeros(len(pts), dtype=bool)
    tolerated[600:1200] = True  # 1e-10 outside: on the surface within the casts' 1e-9
    assert np.array_equal(got[~tolerated], analytic[~tolerated])
    assert got[tolerated].all()


def test_bounding_box_skip_matches_casts_on_posed_gripper():
    rng = np.random.default_rng(24)
    for _ in range(5):
        grip = shapes.two_finger_gripper().transformed(random_pose(rng))
        lo, hi = grip.vertices.min(axis=0), grip.vertices.max(axis=0)
        face, normal = box_face_points(lo, hi, 300, rng)
        pts = np.vstack([face + d * normal for d in (0.0, 1e-10, -1e-10, 1e-7, -1e-7, 2e-6)]
                        + [grip.vertices, rng.uniform(lo - 0.02, hi + 0.02, size=(1000, 3))])
        assert np.array_equal(points_in_mesh(pts, grip), cast_containment(pts, grip))


# ------------------------------------------------------------ nearest point


def scalar_closest_point(p, tri):
    # independent per-triangle oracle: interior projection plus clamped edges
    best_d, best_p = np.inf, None
    for a, b, c in tri:
        ab, ac = b - a, c - a
        cands = []
        d00, d01, d11 = ab @ ab, ab @ ac, ac @ ac
        den = d00 * d11 - d01 * d01
        dp = p - a
        if den > 1e-300:
            v = (d11 * (dp @ ab) - d01 * (dp @ ac)) / den
            w = (d00 * (dp @ ac) - d01 * (dp @ ab)) / den
            if v >= 0 and w >= 0 and v + w <= 1:
                cands.append(a + v * ab + w * ac)
        for base, e in ((a, ab), (a, ac), (b, c - b)):
            ee = e @ e
            t = 0.0 if ee < 1e-300 else min(max((p - base) @ e / ee, 0.0), 1.0)
            cands.append(base + t * e)
        for cand in cands:
            d = np.linalg.norm(p - cand)
            if d < best_d:
                best_d, best_p = d, cand
    return best_p, best_d


def test_nearest_point_cube_above():
    cube = shapes.box((1, 1, 1))
    p, d = nearest_point_on_mesh((0, 0, 2.0), cube)
    assert np.allclose(p, [0, 0, 0.5], atol=1e-12)
    assert abs(d - 1.5) < 1e-12


def test_nearest_point_on_surface_distance_zero():
    cube = shapes.box((1, 1, 1))
    _, d = nearest_point_on_mesh((0.5, 0.1, -0.2), cube)
    assert d < 1e-12


def test_nearest_point_vs_exhaustive_oracle():
    mesh = shapes.icosphere(0.3, 1)
    rng = np.random.default_rng(11)
    pts = rng.uniform(-0.7, 0.7, size=(100, 3))
    got_p, got_d = nearest_points_on_mesh(pts, mesh)
    for q, gp, gd in zip(pts, got_p, got_d):
        op, od = scalar_closest_point(q, mesh.triangles())
        assert abs(gd - od) < 1e-12
        assert abs(np.linalg.norm(q - gp) - gd) < 1e-12


def test_nearest_point_empty_mesh():
    empty = TriMesh(np.zeros((0, 3)), np.zeros((0, 3)))
    with pytest.raises(EmptyMesh):
        nearest_point_on_mesh((0, 0, 0), empty)


# ------------------------------------------------------ nearest displacement


def test_nearest_displacement_separated_cubes():
    a = shapes.box((1, 1, 1))
    b = shapes.box((1, 1, 1), center=(3.0, 0, 0))
    delta = nearest_displacement(a, b, 4096, np.random.default_rng(12))
    assert np.linalg.norm(delta - [2.0, 0, 0]) < 0.05


def test_nearest_displacement_touching_cubes():
    a = shapes.box((1, 1, 1))
    b = shapes.box((1, 1, 1), center=(1.0, 0, 0))
    delta = nearest_displacement(a, b, 4096, np.random.default_rng(13))
    assert np.linalg.norm(delta) < 1e-6


def test_nearest_displacement_vs_dense_brute_force():
    rng = np.random.default_rng(14)
    a = shapes.box((0.1, 0.1, 0.1))
    offset = np.array([0.22, 0.13, -0.08])
    b = shapes.icosphere(0.06, 2, center=offset)
    delta = nearest_displacement(a, b, 100_000, np.random.default_rng(15))

    from scipy.spatial import cKDTree

    sa = sample_surface_points(a, 100_000, rng).points
    sb = sample_surface_points(b, 100_000, rng).points
    d, idx = cKDTree(sb).query(sa)
    i = int(np.argmin(d))
    brute = sb[idx[i]] - sa[i]
    assert np.linalg.norm(delta - brute) < 1e-3


def test_nearest_pair_antisymmetry_on_fixed_samples():
    # with the sample sets held fixed, swapping roles negates the displacement
    rng = np.random.default_rng(16)
    sa = rng.normal(size=(300, 3))
    sb = rng.normal(size=(300, 3)) + [4.0, 0, 0]
    from scipy.spatial import cKDTree

    d_ab, i_ab = cKDTree(sb).query(sa)
    k = int(np.argmin(d_ab))
    fwd = sb[i_ab[k]] - sa[k]
    d_ba, i_ba = cKDTree(sa).query(sb)
    j = int(np.argmin(d_ba))
    rev = sa[i_ba[j]] - sb[j]
    assert np.allclose(fwd, -rev, atol=1e-12)


def test_nearest_displacement_mesh_antisymmetry_approx():
    a = shapes.box((0.1, 0.1, 0.1))
    b = shapes.icosphere(0.05, 2, center=(0.25, 0.05, 0.0))
    d_ab = nearest_displacement(a, b, 20_000, np.random.default_rng(17))
    d_ba = nearest_displacement(b, a, 20_000, np.random.default_rng(18))
    assert np.linalg.norm(d_ab + d_ba) < 5e-3


def exhaustive_displacement(a, b, m, seed):
    """What nearest_displacement prunes: every sample against every face."""
    samples = sample_surface_points(a, m, np.random.default_rng(seed)).points
    closest, dist = nearest_points_on_mesh(samples, b)
    i = int(np.argmin(dist))
    return closest[i] - samples[i]


def assert_pruning_exact(a, b, m, seed):
    got = nearest_displacement(a, b, m, np.random.default_rng(seed))
    assert got.tobytes() == exhaustive_displacement(a, b, m, seed).tobytes(), seed
    return got


def workspace_pose(rng):
    return Pose(rng.uniform((-0.3, -0.3, 0.0), (0.3, 0.3, 0.5)), random_rotation(rng))


def test_nearest_displacement_matches_exhaustive_on_random_draws():
    gripper = shapes.two_finger_gripper()
    objects = shapes.primitive_set()
    rng = np.random.default_rng(19)
    for k in range(300):
        a = objects[k % len(objects)].transformed(workspace_pose(rng))
        b = gripper.transformed(workspace_pose(rng))
        if k % 2:
            a, b = b, a
        assert_pruning_exact(a, b, (1024, 257, 1)[k % 3], seed=k)


def test_nearest_displacement_exact_on_touching_and_intersecting_pairs():
    gripper = shapes.two_finger_gripper()
    rng = np.random.default_rng(20)
    for k, obj in enumerate(shapes.primitive_set() * 8):
        pose = workspace_pose(rng)
        a = obj.transformed(pose)
        b = gripper.transformed(workspace_pose(rng))
        # the same samples against the gripper moved onto its nearest sample
        touching = b.translated(-nearest_displacement(a, b, 1024, np.random.default_rng(k)))
        assert np.linalg.norm(assert_pruning_exact(a, touching, 1024, seed=k)) < 1e-6
        centred = Pose(pose.translation + rng.uniform(-0.01, 0.01, 3), random_rotation(rng))
        assert_pruning_exact(a, gripper.transformed(centred), 1024, seed=k)


def test_nearest_displacement_ties_resolve_to_the_first_sample():
    # face to face on a dyadic grid: many samples lie exactly on the shared face
    a = shapes.box((0.25, 0.25, 0.25))
    b = shapes.box((0.25, 0.25, 0.25), center=(0.25, 0.0, 0.0))
    _, dist = nearest_points_on_mesh(sample_surface_points(a, 4096, np.random.default_rng(21)).points, b)
    assert np.sum(dist == dist.min()) > 100
    for seed in range(21, 31):
        assert_pruning_exact(a, b, 4096, seed)
        assert_pruning_exact(b, a, 4096, seed)
    assert_pruning_exact(a, b, 1, 31)
    # 332 faces: 30000 samples span three row chunks, with ties in each
    many = shapes.merge([b, shapes.icosphere(0.1, 2, center=(2.0, 0.0, 0.0))])
    assert_pruning_exact(a, many, 30_000, 32)


def test_nearest_displacement_keeps_pairs_at_the_sphere_bound():
    # A sliver on the ray from a triangle's centroid through a vertex: there the
    # bounding-sphere bound equals the distance, up to rounding.
    rng = np.random.default_rng(22)
    for seed in range(40):
        rot = random_rotation(rng)
        corners = np.array([[1.0, 0.0, 0.0], [-0.5, 0.75 ** 0.5, 0.0], [-0.5, -(0.75 ** 0.5), 0.0]])
        offset = rng.uniform(-0.3, 0.3, 3)
        tri = TriMesh(rot.apply(0.05 * corners) + offset, [[0, 1, 2]])
        u = rot.apply([1.0, 0.0, 0.0])
        side = rot.apply([0.0, 0.0, 1.0])
        v = tri.vertices[0]
        sliver = TriMesh([v + 1e-4 * u, v + 0.2 * u, v + 0.2 * u + 1e-10 * side], [[0, 1, 2]])
        assert_pruning_exact(sliver, tri, 64, seed)


def test_nearest_displacement_empty_target():
    empty = TriMesh(np.zeros((0, 3)), np.zeros((0, 3)))
    with pytest.raises(EmptyMesh):
        nearest_displacement(shapes.box((1, 1, 1)), empty, 16, np.random.default_rng(0))


# --------------------------------------------------------------- obj format


def test_obj_round_trip(tmp_path):
    mesh = shapes.wedge((0.2, 0.1, 0.05))
    path = tmp_path / "wedge.obj"
    save_obj(mesh, path)
    back = load_obj(path)
    assert np.array_equal(back.vertices, mesh.vertices)
    assert np.array_equal(back.faces, mesh.faces)
    assert back.watertight


def test_obj_rejects_non_triangle_faces(tmp_path):
    path = tmp_path / "quad.obj"
    path.write_text("v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 3 4\n")
    with pytest.raises(MeshLoadError):
        load_obj(path)


def test_obj_rejects_non_integer_indices(tmp_path):
    path = tmp_path / "tex.obj"
    path.write_text("v 0 0 0\nv 1 0 0\nv 1 1 0\nf 1/1 2/2 3/3\n")
    with pytest.raises(MeshLoadError):
        load_obj(path)


def test_obj_ignores_other_lines(tmp_path):
    path = tmp_path / "extra.obj"
    path.write_text(
        "# comment\nvn 0 0 1\nv 0 0 0\nv 1 0 0\nv 0 1 0\nusemtl foo\nf 1 2 3\n"
    )
    mesh = load_obj(path)
    assert len(mesh.vertices) == 3 and len(mesh.faces) == 1


# ------------------------------------------------------------------- shapes


def signed_volume(mesh):
    tri = mesh.triangles()
    return float(np.einsum("mk,mk->m", tri[:, 0], np.cross(tri[:, 1], tri[:, 2])).sum() / 6.0)


def test_primitive_meshes_watertight_and_outward():
    for mesh in shapes.primitive_set() + [shapes.two_finger_gripper()]:
        assert mesh.watertight
        assert signed_volume(mesh) > 0


def test_aabb_validation():
    with pytest.raises(DegenerateInput):
        Aabb((0, 0, 1), (1, 1, 0))
    bb = Aabb((-1, -1, -1), (1, 1, 1))
    assert bool(bb.contains([[0, 0, 0]])[0])
    assert not bool(bb.contains([[2, 0, 0]])[0])
