"""Reference computations the benchmark checks corn against.

Nothing here imports corn: every function recomputes a result from its
definition (solid angles, closest points, the DBSCAN rules, forward
kinematics, support polygons) so that a check compares the program with an
independent derivation, not with itself.
"""

from __future__ import annotations

import numpy as np


def quat_matrix(q) -> np.ndarray:
    """Rotation matrix of the quaternion (qx, qy, qz, qw), normalized first."""
    x, y, z, w = np.asarray(q, dtype=np.float64) / np.linalg.norm(q)
    return np.array([
        [w * w + x * x - y * y - z * z, 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), w * w - x * x + y * y - z * z, 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), w * w - x * x - y * y + z * z],
    ])


def axis_angle_matrix(rotvec) -> np.ndarray:
    """Rodrigues' formula for an axis-angle vector."""
    v = np.asarray(rotvec, dtype=np.float64)
    angle = np.linalg.norm(v)
    if angle < 1e-300:
        return np.eye(3)
    k = v / angle
    kx = np.array([[0, -k[2], k[1]], [k[2], 0, -k[0]], [-k[1], k[0], 0]])
    return np.eye(3) + np.sin(angle) * kx + (1 - np.cos(angle)) * kx @ kx


def rotation_angle(r: np.ndarray) -> float:
    """Geodesic angle of a rotation matrix, stable near 0 and pi."""
    s = 0.5 * np.linalg.norm([r[2, 1] - r[1, 2], r[0, 2] - r[2, 0], r[1, 0] - r[0, 1]])
    return float(np.arctan2(s, 0.5 * (np.trace(r) - 1.0)))


def winding_number(points: np.ndarray, tris: np.ndarray) -> np.ndarray:
    """Generalized winding number from the Van Oosterom-Strackee solid angle
    of every triangle: a containment test that shares no code or method with
    ray-parity casting. It counts how many closed components hold a point."""
    a = tris[None, :, 0, :] - points[:, None, :]
    b = tris[None, :, 1, :] - points[:, None, :]
    c = tris[None, :, 2, :] - points[:, None, :]
    la, lb, lc = (np.linalg.norm(v, axis=2) for v in (a, b, c))
    det = np.einsum("pmk,pmk->pm", a, np.cross(b, c))
    den = (la * lb * lc + np.einsum("pmk,pmk->pm", a, b) * lc
           + np.einsum("pmk,pmk->pm", b, c) * la + np.einsum("pmk,pmk->pm", c, a) * lb)
    return np.arctan2(det, den).sum(axis=1) / (2.0 * np.pi)


def point_triangle_distance(points: np.ndarray, tris: np.ndarray) -> np.ndarray:
    """Distance from each point to the nearest triangle, by projecting onto
    the plane and onto the three edge segments (exhaustive over triangles)."""
    def dot(u, v):
        return np.sum(u * v, axis=-1)

    p = points[:, None, :]
    corners = [tris[None, :, i, :] for i in range(3)]
    n = np.cross(corners[1] - corners[0], corners[2] - corners[0])
    area2 = dot(n, n)
    d = dot(p - corners[0], n) / np.where(area2 > 0.0, area2, 1.0)
    foot = p - d[..., None] * n
    best = np.full(d.shape, np.inf)
    inside = np.broadcast_to(area2 > 0.0, d.shape)
    for i in range(3):
        p0, p1 = corners[i], corners[(i + 1) % 3]
        e = p1 - p0
        t = np.clip(dot(p - p0, e) / dot(e, e), 0.0, 1.0)
        best = np.minimum(best, np.linalg.norm(p - (p0 + t[..., None] * e), axis=-1))
        # the plane foot lies inside when it is left of every CCW edge
        inside = inside & (dot(np.cross(e, foot - p0), n) >= 0.0)
    best = np.where(inside, np.minimum(best, np.abs(d) * np.sqrt(area2)), best)
    return best.min(axis=1)


def dbscan(points: np.ndarray, eps: float, min_pts: int) -> np.ndarray:
    """Textbook DBSCAN on an exhaustive distance scan with corn's documented
    rules: core components, border points to the nearest core (ties on the
    core's lexicographically smallest coordinates), clusters numbered by
    their lowest member index."""
    n = len(points)
    neighbors = []
    for s in range(0, n, 128):
        d = np.linalg.norm(points[s:s + 128, None, :] - points[None, :, :], axis=2)
        neighbors += [np.flatnonzero(row <= eps) for row in d]
    core = np.array([len(nb) >= min_pts for nb in neighbors], dtype=bool)
    comp = np.full(n, -1)
    n_comp = 0
    for s in range(n):
        if not core[s] or comp[s] != -1:
            continue
        comp[s] = n_comp
        stack = [s]
        while stack:
            i = stack.pop()
            for j in neighbors[i]:
                if core[j] and comp[j] == -1:
                    comp[j] = n_comp
                    stack.append(j)
        n_comp += 1
    labels = np.where(core, comp, -1)
    for i in np.flatnonzero(~core):
        options = [((float(np.linalg.norm(points[i] - points[j])), tuple(points[j])), comp[j])
                   for j in neighbors[i] if core[j]]
        if options:
            labels[i] = min(options)[1]
    remap: dict[int, int] = {}
    for lab in labels:
        if lab >= 0 and lab not in remap:
            remap[lab] = len(remap)
    return np.array([remap[lab] if lab >= 0 else -1 for lab in labels], dtype=np.int64)


def mesh_com(vertices: np.ndarray, faces: np.ndarray) -> np.ndarray:
    """Center of mass of a closed mesh by signed tetrahedra to the origin."""
    tri = vertices[faces]
    vol = np.linalg.det(tri) / 6.0
    return (vol[:, None] * tri.sum(axis=1) / 4.0).sum(axis=0) / vol.sum()


def convex_hull_2d(points: np.ndarray) -> np.ndarray:
    """Andrew's monotone chain; counterclockwise, no collinear points."""
    pts = sorted(set(map(tuple, points)))
    if len(pts) < 3:
        return np.array(pts)

    def half(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and ((out[-1][0] - out[-2][0]) * (p[1] - out[-2][1])
                                     - (out[-1][1] - out[-2][1]) * (p[0] - out[-2][0])) <= 0:
                out.pop()
            out.append(p)
        return out

    return np.array(half(pts)[:-1] + half(pts[::-1])[:-1])


def polygon_margin(polygon: np.ndarray, point: np.ndarray) -> float:
    """Smallest signed distance from a point to the edges of a CCW polygon."""
    edges = np.roll(polygon, -1, axis=0) - polygon
    rel = point - polygon
    cross = edges[:, 0] * rel[:, 1] - edges[:, 1] * rel[:, 0]
    return float(np.min(cross / np.linalg.norm(edges, axis=1)))


def chain_fk(origins, axes, ee_offset, q) -> np.ndarray:
    """4x4 end-effector transform of a serial chain given as data:
    per joint (translation, quaternion) parent offsets and unit axes."""
    t = np.eye(4)
    for (trans, quat), axis, angle in zip(origins, axes, q):
        t = t @ _homogeneous(quat_matrix(quat), trans) @ _homogeneous(
            axis_angle_matrix(np.asarray(axis) * angle), np.zeros(3))
    return t @ _homogeneous(quat_matrix(ee_offset[1]), ee_offset[0])


def _homogeneous(r: np.ndarray, t) -> np.ndarray:
    out = np.eye(4)
    out[:3, :3] = r
    out[:3, 3] = t
    return out


def bbox_distance(r_a, t_a, r_b, t_b, half_extents) -> float:
    """Mean distance of the 8 box corners placed by two rigid transforms."""
    signs = np.array([[x, y, z] for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)], dtype=float)
    corners = signs * half_extents
    return float(np.mean(np.linalg.norm((corners @ r_a.T + t_a) - (corners @ r_b.T + t_b), axis=1)))
