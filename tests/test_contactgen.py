import numpy as np
import pytest

from corn import shapes
from corn.contactgen import (
    ContactRecord,
    DataGenConfig,
    DatasetStats,
    _alg1_draw,
    dataset_stats,
    generate_dataset,
    generate_record,
    patch_labels,
    read_dataset,
    record_seed,
    sample_poses,
    write_dataset,
)
from corn.errors import (
    BadMagic,
    DegenerateInput,
    EmptyDataset,
    NotWatertight,
    TruncatedRecord,
    UnsupportedVersion,
)
from corn.geom import Aabb, Pose, TriMesh, points_in_mesh
from corn.patches import PatchConfig, make_patches

CUBE = shapes.box((0.062, 0.062, 0.062))
GRIPPER = shapes.two_finger_gripper()


def small_cfg(**kw):
    defaults = dict(samples_for_displacement=256)
    defaults.update(kw)
    return DataGenConfig(**defaults)


def random_record(rng, n=512):
    quat = rng.normal(size=4)
    quat /= np.linalg.norm(quat)
    pose7 = np.concatenate([rng.normal(size=3), quat]).astype(np.float32)
    return ContactRecord(
        object_id=int(rng.integers(0, 100)),
        seed=int(rng.integers(0, 2**63)),
        pose7=pose7,
        points=rng.normal(size=(n, 3)).astype(np.float32),
        labels=rng.random(n) < 0.3,
    )


# -------------------------------------------------------------- sample_poses


def test_sample_poses_translation_uniform():
    from scipy.stats import kstest

    ws = Aabb((-0.2, 0.1, 0.0), (0.4, 0.5, 0.3))
    rng = np.random.default_rng(0)
    ts = np.array([p.translation for pair in (sample_poses(ws, rng) for _ in range(50_000)) for p in pair])
    for k in range(3):
        lo, scale = ws.min[k], ws.max[k] - ws.min[k]
        assert kstest(ts[:, k], "uniform", args=(lo, scale)).pvalue > 0.001


def test_sample_poses_rotation_uniform_octants():
    from scipy.stats import chisquare

    ws = Aabb((0, 0, 0), (1, 1, 1))
    rng = np.random.default_rng(1)
    zs = []
    for _ in range(50_000):
        a, b = sample_poses(ws, rng)
        zs.append(a.rotation.apply([0.0, 0.0, 1.0]))
        zs.append(b.rotation.apply([0.0, 0.0, 1.0]))
    zs = np.array(zs)
    octant = (zs[:, 0] > 0) * 4 + (zs[:, 1] > 0) * 2 + (zs[:, 2] > 0)
    counts = np.bincount(octant, minlength=8)
    assert chisquare(counts).pvalue > 0.001


def test_sample_poses_zero_volume_workspace():
    ws = Aabb((0.1, 0.2, 0.3), (0.1, 0.2, 0.3))
    rng = np.random.default_rng(2)
    a, b = sample_poses(ws, rng)
    assert np.allclose(a.translation, [0.1, 0.2, 0.3])
    assert np.allclose(b.translation, [0.1, 0.2, 0.3])


# ---------------------------------------------------------------- generation


def test_sigma_zero_settles_to_touch():
    cfg = small_cfg(sigma=0.0)
    rng = np.random.default_rng(3)
    for _ in range(5):
        obj_w, t_grip, delta, s, settled = _alg1_draw(CUBE, GRIPPER, cfg, rng)
        assert s == 1.0
        from corn.geom import nearest_displacement

        gap = nearest_displacement(obj_w, GRIPPER.transformed(settled), 4096, np.random.default_rng(0))
        assert np.linalg.norm(gap) < 5e-3


def test_far_gripper_labels_all_false():
    rec = generate_record(CUBE, GRIPPER, small_cfg(), seed=5)
    far = Pose(rec.gripper_pose.translation + np.array([1.0, 0, 0]), rec.gripper_pose.rotation)
    labels = points_in_mesh(rec.points.astype(np.float64), GRIPPER.transformed(far))
    assert not labels.any()


@pytest.mark.parametrize("field, value", [
    ("sigma", float("nan")), ("sigma", float("inf")), ("sigma", float("-inf")), ("sigma", -0.001),
    ("samples_for_displacement", 0), ("n_surface_points", 0), ("n_surface_points", -5),
])
def test_config_rejects_out_of_range_values(field, value):
    with pytest.raises(DegenerateInput, match=f"{field} .*{value!r}"):
        DataGenConfig(**{field: value})


def test_non_finite_settled_translation_names_sigma_and_seed():
    with pytest.raises(DegenerateInput, match=r"record seed 3: sigma 1e\+300 "):
        generate_record(CUBE, GRIPPER, small_cfg(sigma=1e300), seed=3)


def test_generate_record_requires_watertight():
    open_mesh = TriMesh([[0, 0, 0], [0.1, 0, 0], [0, 0.1, 0]], [[0, 1, 2]])
    with pytest.raises(NotWatertight):
        generate_record(open_mesh, GRIPPER, small_cfg(), seed=0)
    with pytest.raises(NotWatertight):
        generate_record(CUBE, open_mesh, small_cfg(), seed=0)


def test_labels_recomputable_from_stored_record():
    for i in range(30):
        rec = generate_record(CUBE, GRIPPER, small_cfg(), seed=record_seed(9, i))
        again = points_in_mesh(rec.points.astype(np.float64), GRIPPER.transformed(rec.gripper_pose))
        assert np.array_equal(again, rec.labels)


def test_generation_deterministic():
    a = generate_record(CUBE, GRIPPER, small_cfg(), seed=123)
    b = generate_record(CUBE, GRIPPER, small_cfg(), seed=123)
    assert np.array_equal(a.pose7, b.pose7)
    assert np.array_equal(a.points, b.points)
    assert np.array_equal(a.labels, b.labels)


def test_generate_dataset_parallel_matches_serial():
    objs = [CUBE, shapes.icosphere(0.05, 1)]
    cfg = small_cfg(seed=7)
    serial = generate_dataset(objs, GRIPPER, cfg, 8, jobs=1)
    parallel = generate_dataset(objs, GRIPPER, cfg, 8, jobs=2)
    for a, b in zip(serial, parallel):
        assert a.object_id == b.object_id and a.seed == b.seed
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(a.pose7, b.pose7)


def test_noise_scaling_std_matches_sigma():
    cfg = small_cfg(sigma=0.01, samples_for_displacement=64)
    rng = np.random.default_rng(11)
    extra = []
    for _ in range(4000):
        _, _, delta, s, _ = _alg1_draw(CUBE, GRIPPER, cfg, rng)
        extra.append((s - 1.0) * np.linalg.norm(delta))
    std = np.std(extra)
    assert abs(std - cfg.sigma) / cfg.sigma < 0.2


# -------------------------------------------------------------- patch labels


def test_patch_labels_all_false():
    rng = np.random.default_rng(12)
    rec = random_record(rng)
    rec = ContactRecord(rec.object_id, rec.seed, rec.pose7, rec.points, np.zeros(512, dtype=bool))
    ps = make_patches(rec.points.astype(np.float64), PatchConfig())
    assert not patch_labels(rec, ps).any()


def test_patch_labels_single_positive_point():
    rng = np.random.default_rng(13)
    rec = random_record(rng)
    labels = np.zeros(512, dtype=bool)
    labels[37] = True
    rec = ContactRecord(rec.object_id, rec.seed, rec.pose7, rec.points, labels)
    ps = make_patches(rec.points.astype(np.float64), PatchConfig())
    got = patch_labels(rec, ps)
    want = np.array([37 in ps.member_indices[i] for i in range(16)])
    assert np.array_equal(got, want)


def test_patch_labels_match_brute_force():
    rng = np.random.default_rng(14)
    for _ in range(10):
        rec = random_record(rng)
        ps = make_patches(rec.points.astype(np.float64), PatchConfig())
        got = patch_labels(rec, ps)
        want = np.array(
            [any(rec.labels[j] for j in ps.member_indices[i]) for i in range(16)]
        )
        assert np.array_equal(got, want)


# ------------------------------------------------------------- serialization


def test_empty_dataset_round_trip(tmp_path):
    path = tmp_path / "empty.corn"
    write_dataset([], path)
    assert path.stat().st_size == 16
    assert read_dataset(path) == []


def test_dataset_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(15)
    records = [random_record(rng, n=int(rng.integers(1, 600))) for _ in range(100)]
    path = tmp_path / "d.corn"
    write_dataset(records, path)
    back = read_dataset(path)
    assert len(back) == 100
    for a, b in zip(records, back):
        assert a.object_id == b.object_id and a.seed == b.seed
        assert a.pose7.tobytes() == b.pose7.tobytes()
        assert a.points.tobytes() == b.points.tobytes()
        assert np.array_equal(a.labels, b.labels)
    # writing the parsed records again reproduces the file byte for byte
    path2 = tmp_path / "d2.corn"
    write_dataset(back, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.corn"
    write_dataset([], path)
    raw = bytearray(path.read_bytes())
    raw[:4] = b"NOPE"
    path.write_bytes(bytes(raw))
    with pytest.raises(BadMagic):
        read_dataset(path)


def test_unsupported_version(tmp_path):
    path = tmp_path / "v9.corn"
    write_dataset([], path)
    raw = bytearray(path.read_bytes())
    raw[4] = 9
    path.write_bytes(bytes(raw))
    with pytest.raises(UnsupportedVersion):
        read_dataset(path)


def test_truncated_record(tmp_path):
    rng = np.random.default_rng(16)
    path = tmp_path / "t.corn"
    write_dataset([random_record(rng)], path)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) - 7])
    with pytest.raises(TruncatedRecord):
        read_dataset(path)


# -------------------------------------------------------------------- stats


def test_stats_all_false():
    rng = np.random.default_rng(17)
    recs = []
    for _ in range(5):
        r = random_record(rng)
        recs.append(ContactRecord(r.object_id, r.seed, r.pose7, r.points, np.zeros(512, bool)))
    st = dataset_stats(recs)
    assert st.n_records == 5
    assert st.fraction_records_any_contact == 0.0
    assert st.fraction_points_positive == 0.0
    assert st.fraction_patches_positive == 0.0


def test_stats_half_and_half():
    rng = np.random.default_rng(18)
    recs = []
    for i in range(10):
        r = random_record(rng)
        labels = np.zeros(512, bool)
        if i % 2 == 0:
            labels[:] = True
        recs.append(ContactRecord(r.object_id, r.seed, r.pose7, r.points, labels))
    st = dataset_stats(recs)
    assert st.fraction_records_any_contact == 0.5


def test_stats_match_recount_on_generated_records():
    recs = generate_dataset(CUBE, GRIPPER, small_cfg(seed=19), 25)
    st = dataset_stats(recs)
    n_any = sum(
        bool(points_in_mesh(r.points.astype(np.float64), GRIPPER.transformed(r.gripper_pose)).any())
        for r in recs
    )
    assert st.fraction_records_any_contact == n_any / len(recs)
    assert isinstance(st, DatasetStats)


def test_stats_empty_dataset():
    with pytest.raises(EmptyDataset):
        dataset_stats([])
