"""Stable resting orientations by quasi-static convex-hull analysis, and
episode initial/goal pose sampling.

For every convex-hull facet the object is oriented facet-down on the table
plane z = 0; the pose is kept when the center of mass (uniform density)
projects inside the support polygon with at least the requested margin.
Orientations equal up to a rotation about the table normal collapse into one
yaw-equivalence class.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import ConvexHull

from .errors import DegenerateInput, NonPositiveVolume, NotWatertight, WorkspaceTooSmall
from .geom import Aabb, Pose, Rotation

SUPPORT_PLANE_TOL = 1e-6
YAW_DEDUP_TOL = 1e-6


@dataclass(frozen=True)
class StablePose:
    orientation: Rotation        # resting face normal rotated to -z, yaw removed
    rest_height: float           # object origin height above the table, m
    support_polygon: np.ndarray  # (K, 2) convex, counterclockwise
    margin: float                # COM-projection distance to the polygon edge, m


@dataclass(frozen=True)
class EpisodeSpec:
    initial: Pose
    goal: Pose
    object_id: int = 0


def com_and_volume(mesh):
    """Center of mass and volume by signed tetrahedron decomposition.

    Requires a watertight mesh; a consistently inward-oriented mesh is
    accepted by flipping the signed result.
    """
    if not mesh.watertight:
        raise NotWatertight("volume integral requires a watertight mesh")
    tri = mesh.triangles()
    signed = np.einsum("mk,mk->m", tri[:, 0], np.cross(tri[:, 1], tri[:, 2])) / 6.0
    volume = float(signed.sum())
    centroids = tri.sum(axis=1) / 4.0
    moment = (signed[:, None] * centroids).sum(axis=0)
    if volume < 0:
        volume, moment = -volume, -moment
    if volume < 1e-12:
        raise NonPositiveVolume(f"mesh volume {volume} is not positive")
    return moment / volume, volume


def _rotation_to_down(normal: np.ndarray) -> Rotation:
    """Minimal rotation mapping `normal` onto -z (x-axis flip at the antipode)."""
    down = np.array([0.0, 0.0, -1.0])
    c = float(np.dot(normal, down))
    if c > 1.0 - 1e-12:
        return Rotation.identity()
    if c < -1.0 + 1e-12:
        return Rotation.from_axis_angle([np.pi, 0.0, 0.0])
    axis = np.cross(normal, down)
    axis /= np.linalg.norm(axis)
    return Rotation.from_axis_angle(axis * np.arccos(c))


def _remove_yaw(r: Rotation) -> Rotation:
    """Canonical representative of {Rz(t) r}: rotate about world z so the
    body axis with the largest horizontal image lands in the +x half-plane.

    Using the most horizontal axis keeps the construction well defined at
    gimbal lock (a body axis pointing straight down), where the usual
    Euler-yaw extraction degenerates.
    """
    m = r.as_matrix()  # columns are body axis images
    xy_norm = np.hypot(m[0], m[1])
    k = int(np.argmax(xy_norm))
    yaw = np.arctan2(m[1, k], m[0, k])
    return Rotation.from_axis_angle([0.0, 0.0, -yaw]).compose(r)


def _polygon_margin(polygon: np.ndarray, point: np.ndarray) -> float:
    """Signed distance from point to the CCW convex polygon edge (inside > 0)."""
    margins = []
    k = len(polygon)
    for i in range(k):
        a, b = polygon[i], polygon[(i + 1) % k]
        edge = b - a
        length = np.linalg.norm(edge)
        if length < 1e-12:
            continue
        rel = point - a
        margins.append(float(edge[0] * rel[1] - edge[1] * rel[0]) / length)
    return min(margins) if margins else -np.inf


def stable_orientations(mesh, margin_min: float = 0.002) -> list[StablePose]:
    """Enumerate yaw-equivalence classes of statically stable resting poses."""
    if not mesh.watertight:
        raise NotWatertight("stability analysis requires a watertight mesh")
    if not np.isfinite(margin_min):
        raise DegenerateInput(f"margin_min must be finite, got {margin_min}")
    com, _ = com_and_volume(mesh)
    hull = ConvexHull(mesh.vertices)
    hull_pts = mesh.vertices[hull.vertices]

    # a = Rz(t) b exactly when (a b^-1) z = z, and |(a b^-1) z - z| equals
    # |a^T z - b^T z|, so classes compare by the third matrix rows (no yaw
    # extraction, which is ambiguous at gimbal lock)
    kept_rows = np.empty((0, 3))
    poses: list[StablePose] = []
    for eq in hull.equations:  # outward [normal | offset]
        normal = eq[:3] / np.linalg.norm(eq[:3])
        orientation = _remove_yaw(_rotation_to_down(normal))
        rotated = orientation.apply(hull_pts)
        min_z = rotated[:, 2].min()
        support = rotated[rotated[:, 2] <= min_z + SUPPORT_PLANE_TOL, :2]
        if len(support) < 3:
            continue
        try:
            support_hull = ConvexHull(support)
        except Exception:
            continue  # collinear support, knife edge
        polygon = support[support_hull.vertices]
        margin = _polygon_margin(polygon, orientation.apply(com)[:2])
        if margin < margin_min:
            continue
        row = orientation.as_matrix()[2]
        if (np.linalg.norm(kept_rows - row, axis=1) < YAW_DEDUP_TOL).any():
            continue
        kept_rows = np.vstack([kept_rows, row])
        poses.append(StablePose(orientation=orientation, rest_height=float(-min_z),
                                support_polygon=polygon, margin=float(margin)))
    poses.sort(key=lambda p: (p.rest_height, tuple(p.orientation.quat)))
    return poses


def sample_episode(stable_set, workspace: Aabb, rng, object_id: int = 0,
                   min_separation: float = 0.1, max_attempts: int = 100) -> EpisodeSpec:
    """Draw initial and goal poses from the stable set, at least
    min_separation apart in the table plane."""
    if not stable_set:
        raise WorkspaceTooSmall("empty stable pose set")

    def draw() -> Pose:
        stable = stable_set[int(rng.integers(len(stable_set)))]
        yaw = float(rng.uniform(0.0, 2.0 * np.pi))
        x = float(rng.uniform(workspace.min[0], workspace.max[0]))
        y = float(rng.uniform(workspace.min[1], workspace.max[1]))
        rot = Rotation.from_axis_angle([0.0, 0.0, yaw]).compose(stable.orientation)
        return Pose([x, y, stable.rest_height], rot)

    initial = draw()
    for _ in range(max_attempts):
        goal = draw()
        if np.hypot(goal.translation[0] - initial.translation[0],
                    goal.translation[1] - initial.translation[1]) >= min_separation:
            return EpisodeSpec(initial=initial, goal=goal, object_id=object_id)
    raise WorkspaceTooSmall(
        f"no goal pose {min_separation} m from the initial pose in {max_attempts} attempts"
    )
