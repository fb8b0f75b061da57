"""Fixed patch decomposition of a point cloud: FPS centers, kNN members.

Default geometry is 512 points split into 16 patches of 32 points. Patches
are center-subtracted and sorted by distance from the center so downstream
consumers see a consistent point order; distance ties break toward the lower
cloud index, which makes every function here bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteInput, SizeMismatch, TooFewPoints
from .geom import PointCloud, _readonly


@dataclass(frozen=True)
class PatchConfig:
    n_points: int = 512
    n_patches: int = 16
    patch_size: int = 32

    def __post_init__(self):
        if self.n_patches > self.n_points or self.patch_size > self.n_points:
            raise SizeMismatch("patch configuration exceeds cloud size")


@dataclass(frozen=True)
class PatchSet:
    centers: np.ndarray         # (n_patches, 3)
    patches: np.ndarray         # (n_patches, k, 3), center-subtracted, distance-sorted
    member_indices: np.ndarray  # (n_patches, k) indices into the source cloud

    def __post_init__(self):
        object.__setattr__(self, "centers", _readonly(np.asarray(self.centers, dtype=np.float64)))
        object.__setattr__(self, "patches", _readonly(np.asarray(self.patches, dtype=np.float64)))
        object.__setattr__(
            self, "member_indices", _readonly(np.asarray(self.member_indices, dtype=np.int64))
        )

    @property
    def n_patches(self) -> int:
        return self.centers.shape[0]


def _points_of(cloud) -> np.ndarray:
    if isinstance(cloud, PointCloud):
        return cloud.points
    pts = np.asarray(cloud, dtype=np.float64).reshape(-1, 3)
    if not np.all(np.isfinite(pts)):
        raise NonFiniteInput("non-finite points in cloud")
    return pts


def farthest_point_sample(cloud, n: int) -> np.ndarray:
    """Greedy farthest-point subset of size n, always starting at index 0.

    Each subsequent pick maximizes the minimum distance to the points chosen
    so far; ties resolve to the lowest index (np.argmax returns the first
    maximum).
    """
    pts = _points_of(cloud)
    if len(pts) < n:
        raise TooFewPoints(f"need at least {n} points, have {len(pts)}")
    chosen = np.empty(n, dtype=np.int64)
    chosen[0] = 0
    d2 = np.sum((pts - pts[0]) ** 2, axis=1)
    for i in range(1, n):
        nxt = int(np.argmax(d2))
        chosen[i] = nxt
        d2 = np.minimum(d2, np.sum((pts - pts[nxt]) ** 2, axis=1))
    return chosen


def knn(cloud, query, k: int) -> np.ndarray:
    """Indices of the k nearest cloud points to the query.

    Sorted by ascending distance with ties broken by lower index; this is an
    exhaustive scan, so it is its own specification.
    """
    pts = _points_of(cloud)
    if len(pts) < k:
        raise TooFewPoints(f"need at least {k} points, have {len(pts)}")
    q = np.asarray(query, dtype=np.float64).reshape(3)
    d2 = np.sum((pts - q) ** 2, axis=1)
    return np.argsort(d2, kind="stable")[:k]


def make_patches(cloud, cfg: PatchConfig = PatchConfig()) -> PatchSet:
    """Decompose a cloud of exactly cfg.n_points into the fixed patch set."""
    pts = _points_of(cloud)
    if len(pts) != cfg.n_points:
        raise SizeMismatch(f"cloud has {len(pts)} points, config expects {cfg.n_points}")
    center_idx = farthest_point_sample(pts, cfg.n_patches)
    centers = pts[center_idx]
    # All-pairs distances from centers, then the k nearest per row, equal to
    # argsort(d2, kind="stable")[:, :k]: every point strictly nearer than the
    # k-th distance, the lowest-index points at exactly that distance to fill
    # the row, ascending index order, then a stable sort by distance.
    diff = centers[:, None, :] - pts[None, :, :]
    d2 = np.einsum("pnk,pnk->pn", diff, diff)
    k = cfg.patch_size
    kth = np.partition(d2, k - 1, axis=1)[:, k - 1 : k]
    nearer, tie = d2 < kth, d2 == kth
    room = k - np.count_nonzero(nearer, axis=1, keepdims=True)
    member = np.nonzero(nearer | (tie & (np.cumsum(tie, axis=1) <= room)))[1].reshape(-1, k)
    order = np.argsort(np.take_along_axis(d2, member, axis=1), axis=1, kind="stable")
    member = np.take_along_axis(member, order, axis=1)
    patches = pts[member] - centers[:, None, :]
    return PatchSet(centers=centers, patches=patches, member_indices=member)
