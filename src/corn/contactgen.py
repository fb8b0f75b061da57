"""Contact-label dataset generation and its binary container format.

A record is produced by sampling object and gripper poses in a workspace,
moving the gripper along the nearest surface-to-surface displacement with
Gaussian noise on the travelled fraction, then labeling 512 object surface
points by containment in the settled gripper volume. Labels are computed
from the float32-rounded values that get stored, so re-running containment
on a stored record reproduces its labels exactly. The dataset file layout is
in `corn.formats`.
"""

from __future__ import annotations

import struct
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateGeometry, DegenerateInput, EmptyDataset, NotWatertight, SizeMismatch
from .formats import DATASET_FORMAT_VERSION, DATASET_MAGIC, Reader
from .geom import (
    Aabb,
    Pose,
    TriMesh,
    nearest_displacement,
    points_in_mesh,
    random_rotation,
    sample_surface_points,
    _readonly,
)
from .patches import PatchConfig, PatchSet, make_patches

_MASK64 = (1 << 64) - 1


def record_seed(master_seed: int, index: int) -> int:
    """SplitMix64-style per-record seed derivation; stable across platforms."""
    x = (master_seed + (index + 1) * 0x9E3779B97F4A7C15) & _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x


@dataclass(frozen=True)
class DataGenConfig:
    workspace: Aabb = field(
        default_factory=lambda: Aabb((-0.3, -0.3, 0.0), (0.3, 0.3, 0.5))
    )
    sigma: float = 0.01               # meters of absolute approach noise
    n_surface_points: int = 512
    samples_for_displacement: int = 1024
    seed: int = 0

    def __post_init__(self):
        if not (np.isfinite(self.sigma) and self.sigma >= 0):
            raise DegenerateInput(f"sigma must be finite and >= 0, got {self.sigma!r}")
        for name in ("n_surface_points", "samples_for_displacement"):
            if getattr(self, name) < 1:
                raise DegenerateInput(f"{name} must be >= 1, got {getattr(self, name)!r}")


@dataclass(frozen=True)
class ContactRecord:
    """One generated sample; pose7 and points hold the stored float32 values."""

    object_id: int
    seed: int
    pose7: np.ndarray   # (7,) float32: settled gripper pose (tx,ty,tz,qx,qy,qz,qw)
    points: np.ndarray  # (n, 3) float32 object surface points, world frame
    labels: np.ndarray  # (n,) bool

    def __post_init__(self):
        object.__setattr__(self, "pose7", _readonly(np.asarray(self.pose7, dtype=np.float32).reshape(7)))
        object.__setattr__(self, "points", _readonly(np.asarray(self.points, dtype=np.float32).reshape(-1, 3)))
        object.__setattr__(self, "labels", _readonly(np.asarray(self.labels, dtype=bool).reshape(-1)))
        if len(self.labels) != len(self.points):
            raise SizeMismatch("labels and points length differ")

    @property
    def gripper_pose(self) -> Pose:
        return Pose.from_seven(self.pose7.astype(np.float64))

    @property
    def any_contact(self) -> bool:
        return bool(self.labels.any())


@dataclass(frozen=True)
class DatasetStats:
    n_records: int
    fraction_records_any_contact: float
    fraction_points_positive: float
    fraction_patches_positive: float


def sample_poses(workspace: Aabb, rng):
    """Two poses with translation uniform in the workspace and rotation uniform on SO(3)."""
    poses = []
    for _ in range(2):
        t = workspace.sample(rng)
        poses.append(Pose(t, random_rotation(rng)))
    return poses[0], poses[1]


def _alg1_draw(obj: TriMesh, grip: TriMesh, cfg: DataGenConfig, rng):
    """Pose sampling and noisy approach; returns (obj_mesh, T_G, delta, s, settled pose)."""
    t_obj, t_grip = sample_poses(cfg.workspace, rng)
    obj_w = obj.transformed(t_obj)
    grip_w = grip.transformed(t_grip)
    delta = nearest_displacement(obj_w, grip_w, cfg.samples_for_displacement, rng)
    dist = float(np.linalg.norm(delta))
    if dist < 1e-6:
        # Already intersecting; moving by a noisy multiple of delta is
        # ill-defined, label at the sampled pose directly.
        return obj_w, t_grip, delta, 1.0, t_grip
    s = float(rng.normal(1.0, cfg.sigma / dist))
    with np.errstate(over="ignore", invalid="ignore"):
        translation = t_grip.translation - s * delta
        stored = translation.astype(np.float32)
    if not np.all(np.isfinite(stored)):
        raise DegenerateInput(f"sigma {cfg.sigma!r} moves the gripper to a non-finite translation")
    settled = Pose(translation, t_grip.rotation)
    return obj_w, t_grip, delta, s, settled


def generate_record(obj: TriMesh, grip: TriMesh, cfg: DataGenConfig, seed: int,
                    object_id: int = 0) -> ContactRecord:
    """Run the full sampling procedure for one record.

    The record seed fully determines the draw; labels are evaluated on the
    float32-rounded points against the gripper at the float32-rounded pose,
    which is exactly what a reader of the stored record can recompute.
    """
    if len(obj) == 0:
        raise DegenerateGeometry("object mesh has no faces")
    if not obj.watertight or not grip.watertight:
        raise NotWatertight("dataset generation requires watertight meshes")
    rng = np.random.default_rng(seed)
    try:
        obj_w, _, _, _, settled = _alg1_draw(obj, grip, cfg, rng)
    except DegenerateInput as exc:
        raise DegenerateInput(f"record seed {seed}: {exc}") from None
    cloud = sample_surface_points(obj_w, cfg.n_surface_points, rng)
    pose7 = settled.to_seven().astype(np.float32)
    pts32 = cloud.points.astype(np.float32)
    grip_settled = grip.transformed(Pose.from_seven(pose7.astype(np.float64)))
    labels = points_in_mesh(pts32.astype(np.float64), grip_settled)
    return ContactRecord(object_id=object_id, seed=seed, pose7=pose7,
                         points=pts32, labels=labels)


def _gen_chunk(args):
    obj_data, grip_data, cfg, tasks = args
    objs = [TriMesh(v, f) for v, f in obj_data]
    grip = TriMesh(*grip_data)
    return [
        (index, generate_record(objs[oid % len(objs)], grip, cfg, seed, object_id=oid))
        for index, seed, oid in tasks
    ]


def generate_dataset(objects, gripper: TriMesh, cfg: DataGenConfig, count: int,
                     jobs: int = 1) -> list[ContactRecord]:
    """Generate `count` records cycling through `objects` round-robin.

    Records are independently seeded from (cfg.seed, index), so the result is
    identical for any job count; workers only change wall-clock time.
    """
    if isinstance(objects, TriMesh):
        objects = [objects]
    tasks = [(i, record_seed(cfg.seed, i), i % len(objects)) for i in range(count)]
    if jobs <= 1 or count < 4:
        records = [
            generate_record(objects[oid % len(objects)], gripper, cfg, seed, object_id=oid)
            for _, seed, oid in tasks
        ]
        return records
    obj_data = [(m.vertices, m.faces) for m in objects]
    grip_data = (gripper.vertices, gripper.faces)
    chunks = [tasks[i::jobs] for i in range(jobs)]
    results: dict[int, ContactRecord] = {}
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        for part in pool.map(_gen_chunk, [(obj_data, grip_data, cfg, c) for c in chunks if c]):
            for index, record in part:
                results[index] = record
    return [results[i] for i in range(count)]


def patch_labels(record: ContactRecord, ps: PatchSet) -> np.ndarray:
    """Per-patch OR over the member point labels."""
    if ps.member_indices.size and int(ps.member_indices.max()) >= len(record.labels):
        raise SizeMismatch("patch set does not index this record's points")
    return record.labels[ps.member_indices].any(axis=1)


def write_dataset(records, path) -> None:
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sIQ", DATASET_MAGIC, DATASET_FORMAT_VERSION, len(records)))
        for rec in records:
            n = len(rec.points)
            if n > 0xFFFF:
                raise SizeMismatch("record too large for u16 point count")
            fh.write(struct.pack("<IQ", rec.object_id & 0xFFFFFFFF, rec.seed & _MASK64))
            fh.write(rec.pose7.astype("<f4").tobytes())
            fh.write(struct.pack("<H", n))
            fh.write(rec.points.astype("<f4").tobytes())
            fh.write(rec.labels.astype(np.uint8).tobytes())


def read_dataset(path) -> list[ContactRecord]:
    r = Reader(path, "dataset")
    (count,) = r.header(DATASET_MAGIC, DATASET_FORMAT_VERSION, "Q")
    records = []
    for _ in range(count):
        object_id, seed = r.unpack("<IQ", "record header")
        pose7 = r.array("<f4", 7, "pose")
        (n,) = r.unpack("<H", "point count")
        points = r.array("<f4", 3 * n, "points")
        records.append(ContactRecord(object_id=object_id, seed=seed, pose7=pose7,
                                     points=points, labels=r.array(np.uint8, n, "labels")))
    r.end()
    return records


def dataset_stats(records, patch_cfg: PatchConfig = PatchConfig()) -> DatasetStats:
    if not records:
        raise EmptyDataset("no records")
    any_contact = sum(1 for r in records if r.any_contact)
    total_points = sum(len(r.labels) for r in records)
    positive_points = sum(int(r.labels.sum()) for r in records)
    patch_pos = 0
    patch_total = 0
    for r in records:
        ps = make_patches(r.points.astype(np.float64), patch_cfg)
        labels = patch_labels(r, ps)
        patch_pos += int(labels.sum())
        patch_total += len(labels)
    return DatasetStats(
        n_records=len(records),
        fraction_records_any_contact=any_contact / len(records),
        fraction_points_positive=positive_points / total_points,
        fraction_patches_positive=patch_pos / patch_total,
    )
