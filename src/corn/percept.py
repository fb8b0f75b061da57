"""Segmentation filters, DBSCAN clustering, ICP registration, and pose tracking.

The segmentation stages are pure filters over a merged world-frame cloud:
workspace crop, table removal, robot removal by convex-hull halfspaces, then
radius outlier removal and DBSCAN to isolate the object cluster. Tracking
registers each frame against the previous one (point-to-plane by default) and
re-registers against the initial cloud every frame, overriding the pose when
that registration's fitness clears the gate. The cloud-sequence (.pcseq)
file layout is in `corn.formats`.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

from .errors import DegenerateInput, NoCorrespondences, TooFewPoints
from .formats import PCSEQ_FORMAT_VERSION, PCSEQ_MAGIC, Reader
from .geom import Aabb, PointCloud, Pose, Rotation, compose


@dataclass(frozen=True)
class SegmentationConfig:
    workspace: Aabb = field(default_factory=lambda: Aabb((-0.5, -0.5, -0.02), (0.5, 0.5, 0.6)))
    table_point: np.ndarray = field(default_factory=lambda: np.zeros(3))
    table_normal: np.ndarray = field(default_factory=lambda: np.array([0.0, 0.0, 1.0]))
    table_eps: float = 0.01
    outlier_radius: float = 0.02
    outlier_n_min: int = 96
    dbscan_eps: float = 0.01
    dbscan_min_pts: int = 4
    n_track: int = 2048

    def __post_init__(self):
        if min(self.table_eps, self.outlier_radius, self.dbscan_eps) <= 0:
            raise DegenerateInput("length thresholds must be positive")
        if self.outlier_n_min < 1 or self.n_track < 1:
            raise DegenerateInput("count thresholds must be at least 1")


# ------------------------------------------------------------------ filters


def crop_workspace(cloud: PointCloud, workspace: Aabb) -> PointCloud:
    """Keep points inside the closed box bounds."""
    return cloud.select(workspace.contains(cloud.points))


def remove_table(cloud: PointCloud, plane_point, plane_normal, eps: float = 0.01) -> PointCloud:
    """Drop points whose absolute signed distance to the plane is below eps."""
    n = np.asarray(plane_normal, dtype=np.float64).reshape(3)
    norm = np.linalg.norm(n)
    if abs(norm - 1.0) > 1e-6:
        raise DegenerateInput("table normal must be unit length")
    d = (cloud.points - np.asarray(plane_point, dtype=np.float64)) @ n
    return cloud.select(np.abs(d) >= eps)


def halfspaces_of_box(aabb: Aabb) -> np.ndarray:
    """Six outward halfspaces (nx, ny, nz, offset) with n.x <= offset inside."""
    rows = []
    for k in range(3):
        n = np.zeros(3)
        n[k] = 1.0
        rows.append([*n, aabb.max[k]])
        rows.append([*(-n), -aabb.min[k]])
    return np.array(rows)


def remove_robot(cloud: PointCloud, hulls, margin: float = 1e-6) -> PointCloud:
    """Drop points inside any convex hull given as (K, 4) outward halfspaces."""
    if len(cloud) == 0:
        return cloud
    inside_any = np.zeros(len(cloud), dtype=bool)
    for hull in hulls:
        hull = np.asarray(hull, dtype=np.float64).reshape(-1, 4)
        inside = np.all(cloud.points @ hull[:, :3].T <= hull[:, 3] + margin, axis=1)
        inside_any |= inside
    return cloud.select(~inside_any)


def radius_outlier_removal(cloud: PointCloud, radius: float, n_min: int) -> PointCloud:
    """Keep points with at least n_min neighbors (self excluded) within radius."""
    if radius <= 0:
        raise DegenerateInput("radius must be > 0")
    if len(cloud) == 0:
        return cloud
    tree = cKDTree(cloud.points)
    counts = tree.query_ball_point(cloud.points, radius, return_length=True)
    return cloud.select(counts - 1 >= n_min)


def dbscan(cloud, eps: float, min_pts: int) -> np.ndarray:
    """Density clustering; returns one label per point, -1 for noise.

    A point is core when its eps-ball holds at least min_pts points (itself
    included). Clusters are the connected components of core points; a border
    point joins the cluster of its nearest core neighbor (distance ties break
    on the core's lexicographically smallest coordinates), so the partition is
    a pure function of the point set. Labels are then canonicalized: clusters
    numbered by their lowest member index.
    """
    pts = cloud.points if isinstance(cloud, PointCloud) else np.asarray(cloud, dtype=np.float64)
    if eps <= 0:
        raise DegenerateInput("eps must be > 0")
    n = len(pts)
    pairs = cKDTree(pts).query_pairs(eps, output_type="ndarray")
    core = 1 + np.bincount(pairs.ravel(), minlength=n) >= min_pts
    core_pairs = pairs[core[pairs[:, 0]] & core[pairs[:, 1]]]
    graph = coo_matrix((np.ones(len(core_pairs)), core_pairs.T), shape=(n, n))
    _, component = connected_components(graph, directed=False)
    labels = np.where(core, component, -1).astype(np.int64)

    # each border point joins the core of its first (border, core) pair in
    # (distance, core x, y, z) order; the distance is the norm of each pair's
    # difference vector, because norm(..., axis=1) rounds differently
    mixed = pairs[core[pairs[:, 0]] != core[pairs[:, 1]]]
    border, near = mixed[~core[mixed]], mixed[core[mixed]]
    dist = [np.linalg.norm(d) for d in pts[border] - pts[near]]
    order = np.lexsort((*pts[near].T[::-1], dist, border))
    first = order[np.diff(border[order], prepend=-1) != 0]
    labels[border[first]] = component[near[first]]

    # final canonical numbering: clusters ordered by lowest member index
    member = labels >= 0
    _, lowest, inverse = np.unique(labels[member], return_index=True, return_inverse=True)
    labels[member] = np.argsort(np.argsort(lowest))[inverse]
    return labels


def segment_object(cloud: PointCloud, cfg: SegmentationConfig, hulls=()) -> PointCloud:
    """Full segmentation chain down to the largest remaining cluster."""
    out = crop_workspace(cloud, cfg.workspace)
    out = remove_table(out, cfg.table_point, cfg.table_normal, cfg.table_eps)
    out = remove_robot(out, hulls)
    out = radius_outlier_removal(out, cfg.outlier_radius, cfg.outlier_n_min)
    if len(out) == 0:
        return out
    labels = dbscan(out, cfg.dbscan_eps, cfg.dbscan_min_pts)
    if labels.max(initial=-1) < 0:
        return out.select(np.zeros(len(out), dtype=bool))
    counts = np.bincount(labels[labels >= 0])
    return out.select(labels == int(np.argmax(counts)))


# ------------------------------------------------------------------ normals


def estimate_normals(cloud: PointCloud, k: int = 16, viewpoint=(0.0, 0.0, 10.0)) -> PointCloud:
    """Covariance normals from the k-neighborhood, oriented toward a viewpoint."""
    pts = cloud.points
    if len(pts) < k + 1:
        raise TooFewPoints(f"need at least {k + 1} points for normals")
    tree = cKDTree(pts)
    _, idx = tree.query(pts, k=k + 1)
    nbh = pts[idx]                       # (n, k+1, 3)
    centered = nbh - nbh.mean(axis=1, keepdims=True)
    cov = np.einsum("nki,nkj->nij", centered, centered)
    _, vecs = np.linalg.eigh(cov)
    normals = vecs[:, :, 0]
    flip = np.einsum("ni,ni->n", np.asarray(viewpoint, dtype=np.float64) - pts, normals) < 0
    normals[flip] = -normals[flip]
    return PointCloud(pts, normals)


# ---------------------------------------------------------------------- icp


ICP_MODES = ("point_to_plane", "point_to_point")


def _kabsch(src: np.ndarray, dst: np.ndarray) -> Pose:
    """Closed-form rigid alignment of paired points (orthogonal Procrustes)."""
    mu_s, mu_d = src.mean(axis=0), dst.mean(axis=0)
    h = (src - mu_s).T @ (dst - mu_d)
    u, _, vt = np.linalg.svd(h)
    d = np.sign(np.linalg.det(vt.T @ u.T))
    rot = vt.T @ np.diag([1.0, 1.0, d]) @ u.T
    r = Rotation.from_matrix(rot)
    return Pose(mu_d - r.apply(mu_s), r)


def _plane_step(src: np.ndarray, dst: np.ndarray, normals: np.ndarray) -> Pose:
    """Small-angle point-to-plane least squares: solve for (omega, t)."""
    a = np.concatenate([np.cross(src, normals), normals], axis=1)  # (n, 6)
    b = -np.einsum("nk,nk->n", src - dst, normals)
    x, *_ = np.linalg.lstsq(a, b, rcond=None)
    return Pose(x[3:], Rotation.from_axis_angle(x[:3]))


def icp(src: PointCloud, tgt: PointCloud, init: Pose = Pose.identity(),
        mode: str = "point_to_plane", iters: int = 30, tol: float = 1e-8,
        max_corr_dist: float = 0.01):
    """Iterative closest point from src onto tgt.

    Returns (pose, fitness): the last accepted pose, which maps src points onto
    tgt, and the fraction of src points with a correspondence within
    max_corr_dist at that pose. The accepted mean correspondence residual
    never increases; a step that would increase it is rejected and iteration
    stops. At most `iters` (>= 1) poses are evaluated.
    """
    if mode not in ICP_MODES:
        raise DegenerateInput(f"unknown icp mode {mode!r}")
    if iters < 1:
        raise DegenerateInput("icp needs at least one iteration")
    if len(src) == 0 or len(tgt) == 0:
        raise NoCorrespondences("empty cloud")
    if mode == "point_to_plane" and tgt.normals is None:
        raise DegenerateInput("point-to-plane icp needs target normals")
    tree = cKDTree(tgt.points)
    current = init
    accepted = np.inf  # mean residual of the last accepted pose; the first is always accepted
    for _ in range(iters):
        moved = current.apply(src.points)
        dist, idx = tree.query(moved, distance_upper_bound=max_corr_dist)
        mask = np.isfinite(dist)
        if mask.sum() < 3:
            raise NoCorrespondences("fewer than 3 correspondences within range")
        pairs_src = moved[mask]
        pairs_dst = tgt.points[idx[mask]]
        if mode == "point_to_plane":
            normals = tgt.normals[idx[mask]]
            residual = float(np.mean(np.abs(np.einsum("nk,nk->n", pairs_src - pairs_dst, normals))))
        else:
            residual = float(np.mean(dist[mask]))
        if residual > accepted + 1e-15:
            break  # reject the step that made things worse
        best, fitness = current, float(np.mean(mask))
        if accepted - residual < tol:
            break
        accepted = residual
        if mode == "point_to_plane":
            update = _plane_step(pairs_src, pairs_dst, normals)
        else:
            update = _kabsch(pairs_src, pairs_dst)
        current = compose(update, current)
    return best, fitness


# ------------------------------------------------------------------ tracking


@dataclass
class TrackerState:
    pose: Pose                      # current object pose estimate
    initial_pose: Pose
    initial_cloud: PointCloud       # with normals
    previous_cloud: PointCloud      # with normals
    fitness_threshold: float = 0.6
    corr_dist: float = 0.01
    n_track: int = 2048
    mode: str = "point_to_plane"
    seed: int = 0
    lost: bool = False
    last_fitness: float = 1.0
    frame: int = 0


def init_tracker(initial_cloud: PointCloud, initial_pose: Pose,
                 cfg: SegmentationConfig = SegmentationConfig(),
                 mode: str = "point_to_plane", corr_dist: float = 0.01,
                 fitness_threshold: float = 0.6, seed: int = 0) -> TrackerState:
    if mode not in ICP_MODES:
        raise DegenerateInput(f"unknown icp mode {mode!r}")
    if not (np.isfinite(corr_dist) and corr_dist > 0):
        raise DegenerateInput(f"corr_dist must be finite and > 0, got {corr_dist}")
    if not 0.0 <= fitness_threshold <= 1.0:
        raise DegenerateInput(f"fitness_threshold must be in [0, 1], got {fitness_threshold}")
    cloud = _subsample(initial_cloud, cfg.n_track, np.random.default_rng(seed))
    if cloud.normals is None:
        cloud = estimate_normals(cloud)
    return TrackerState(pose=initial_pose, initial_pose=initial_pose,
                        initial_cloud=cloud, previous_cloud=cloud,
                        fitness_threshold=fitness_threshold, corr_dist=corr_dist,
                        n_track=cfg.n_track, mode=mode, seed=seed)


def _subsample(cloud: PointCloud, n: int, rng) -> PointCloud:
    if len(cloud) <= n:
        return cloud
    idx = np.sort(rng.choice(len(cloud), size=n, replace=False))
    return cloud.select(idx)


def track_step(state: TrackerState, cloud: PointCloud) -> TrackerState:
    """Advance the tracker by one frame, mutating and returning `state`.

    The frame-to-frame registration icp(C_t, C_{t-1}) maps current points
    onto previous ones, i.e. the inverse of the object's motion, so the pose
    update composes its inverse. The same holds for the drift-correcting
    registration against the initial cloud, which overrides the pose when its
    fitness clears the threshold. An empty or unmatchable frame leaves the
    pose unchanged and raises the lost flag.
    """
    state.frame += 1
    if len(cloud) == 0:
        state.lost = True
        return state
    rng = np.random.default_rng(np.random.SeedSequence((state.seed, state.frame)))
    sub = _subsample(cloud, state.n_track, rng)
    try:
        to_prev, _ = icp(sub, state.previous_cloud, Pose.identity(),
                         mode=state.mode, max_corr_dist=state.corr_dist)
        provisional = compose(to_prev.inverse(), state.pose)
        init_guess = compose(state.initial_pose, provisional.inverse())
        to_init, fitness = icp(sub, state.initial_cloud, init_guess,
                               mode=state.mode, max_corr_dist=state.corr_dist)
        state.last_fitness = fitness
        if fitness > state.fitness_threshold:
            state.pose = compose(to_init.inverse(), state.initial_pose)
        else:
            state.pose = provisional
    except NoCorrespondences:
        state.lost = True
        return state
    state.lost = False
    state.previous_cloud = sub if sub.normals is not None else estimate_normals(sub)
    return state


# ------------------------------------------------------------ pcseq format


def write_pcseq(frames, path) -> None:
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sII", PCSEQ_MAGIC, PCSEQ_FORMAT_VERSION, len(frames)))
        for frame in frames:
            pts = frame.points if isinstance(frame, PointCloud) else np.asarray(frame)
            pts = np.asarray(pts, dtype="<f4").reshape(-1, 3)
            fh.write(struct.pack("<I", len(pts)))
            fh.write(pts.tobytes())


def read_pcseq(path) -> list[PointCloud]:
    r = Reader(path, "pcseq")
    (count,) = r.header(PCSEQ_MAGIC, PCSEQ_FORMAT_VERSION, "I")
    frames = []
    for _ in range(count):
        (n,) = r.unpack("<I", "frame size")
        frames.append(PointCloud(r.array("<f4", 3 * n, "frame points")))
    r.end()
    return frames
