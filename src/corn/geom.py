"""SE(3) poses, triangle meshes, point clouds, and the geometric queries on them.

All quantities are 64-bit floats, lengths in meters, angles in radians.
Quaternions are stored as (qx, qy, qz, qw) and canonicalized to qw >= 0 so
that equal rotations compare equal. All container types are immutable after
construction; every operation here is a pure function.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateInput,
    EmptyMesh,
    MeshLoadError,
    NonFiniteInput,
    NotWatertight,
)

QUAT_NORM_TOL = 1e-9
NORMAL_NORM_TOL = 1e-6
MIN_FACE_AREA = 1e-12

# Fixed ray directions for parity containment tests. The primary direction is
# deliberately incommensurate with coordinate axes; the alternates are used
# when a cast grazes an edge or vertex.
_RAY_DIRECTIONS = np.array(
    [
        [0.5773502691896258, 0.5773502691896257, 0.5773502691896256],
        [0.2672612419124244, -0.5345224838248488, 0.8017837257372732],
        [-0.8111071056538127, 0.3244428422615251, 0.4866642633922876],
    ]
)

_POINT_CHUNK = 256
# Samples whose exact distances bound the minimum in nearest_displacement.
_BOUND_SAMPLES = 8


def _vec3(x) -> np.ndarray:
    v = np.asarray(x, dtype=np.float64).reshape(3)
    if not np.all(np.isfinite(v)):
        raise NonFiniteInput(f"non-finite 3-vector: {v}")
    return v


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


class Rotation:
    """Unit quaternion (qx, qy, qz, qw), canonicalized to qw >= 0."""

    __slots__ = ("quat",)

    def __init__(self, quat):
        q = np.asarray(quat, dtype=np.float64).reshape(4)
        if not np.all(np.isfinite(q)):
            raise NonFiniteInput("non-finite quaternion")
        n = np.linalg.norm(q)
        if abs(n - 1.0) > QUAT_NORM_TOL:
            raise DegenerateInput(f"quaternion norm {n} outside 1 +- {QUAT_NORM_TOL}")
        if q[3] < 0.0:
            q = -q
        self.quat = _readonly(q)

    @classmethod
    def identity(cls) -> "Rotation":
        return cls(np.array([0.0, 0.0, 0.0, 1.0]))

    @classmethod
    def normalized(cls, quat) -> "Rotation":
        """Build a Rotation from an un-normalized quaternion (e.g. after f32 storage)."""
        q = np.asarray(quat, dtype=np.float64).reshape(4)
        n = np.linalg.norm(q)
        if not np.isfinite(n) or n < 1e-12:
            raise DegenerateInput("cannot normalize near-zero quaternion")
        return cls(q / n)

    @classmethod
    def from_axis_angle(cls, rotvec) -> "Rotation":
        """Rotation from an axis-angle vector whose norm is the angle."""
        v = _vec3(rotvec)
        angle = np.linalg.norm(v)
        if angle < 1e-300:
            return cls.identity()
        axis = v / angle
        half = 0.5 * angle
        s = np.sin(half)
        return cls(np.array([axis[0] * s, axis[1] * s, axis[2] * s, np.cos(half)]))

    @classmethod
    def from_matrix(cls, m) -> "Rotation":
        """Quaternion extraction, branching on the largest diagonal term."""
        m = np.asarray(m, dtype=np.float64).reshape(3, 3)
        t = np.trace(m)
        if t > 0.0:
            r = np.sqrt(1.0 + t)
            w = 0.5 * r
            s = 0.5 / r
            q = np.array(
                [(m[2, 1] - m[1, 2]) * s, (m[0, 2] - m[2, 0]) * s, (m[1, 0] - m[0, 1]) * s, w]
            )
        else:
            i = int(np.argmax(np.diag(m)))
            j, k = (i + 1) % 3, (i + 2) % 3
            r = np.sqrt(1.0 + m[i, i] - m[j, j] - m[k, k])
            s = 0.5 / r
            q = np.empty(4)
            q[i] = 0.5 * r
            q[j] = (m[j, i] + m[i, j]) * s
            q[k] = (m[k, i] + m[i, k]) * s
            q[3] = (m[k, j] - m[j, k]) * s
        return cls.normalized(q)

    def as_matrix(self) -> np.ndarray:
        x, y, z, w = self.quat
        return np.array(
            [
                [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
                [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
                [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
            ]
        )

    def as_axis_angle(self) -> np.ndarray:
        """Axis-angle vector with angle in [0, pi] (qw >= 0 canonicalization)."""
        x, y, z, w = self.quat
        s = np.sqrt(x * x + y * y + z * z)
        if s < 1e-12:
            return np.zeros(3)
        angle = 2.0 * np.arctan2(s, w)
        return np.array([x, y, z]) * (angle / s)

    def apply(self, points) -> np.ndarray:
        p = np.asarray(points, dtype=np.float64)
        return p @ self.as_matrix().T

    def inverse(self) -> "Rotation":
        x, y, z, w = self.quat
        return Rotation(np.array([-x, -y, -z, w]))

    def compose(self, other: "Rotation") -> "Rotation":
        """Composition self * other: apply `other` first, then self."""
        x1, y1, z1, w1 = self.quat
        x2, y2, z2, w2 = other.quat
        q = np.array(
            [
                w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
                w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
                w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
                w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            ]
        )
        return Rotation.normalized(q)

    def angle_to(self, other: "Rotation") -> float:
        """Geodesic angle between two rotations, in [0, pi]."""
        rel = self.compose(other.inverse())
        x, y, z, w = rel.quat
        return float(2.0 * np.arctan2(np.sqrt(x * x + y * y + z * z), abs(w)))

    def __eq__(self, other):
        return isinstance(other, Rotation) and bool(np.array_equal(self.quat, other.quat))

    def __repr__(self):
        return f"Rotation(quat={self.quat.tolist()})"


def random_rotation(rng) -> Rotation:
    """Uniform rotation on SO(3) via the subgroup-algorithm quaternion scheme."""
    u1, u2, u3 = rng.random(3)
    a, b = np.sqrt(1.0 - u1), np.sqrt(u1)
    q = np.array(
        [
            a * np.sin(2 * np.pi * u2),
            a * np.cos(2 * np.pi * u2),
            b * np.sin(2 * np.pi * u3),
            b * np.cos(2 * np.pi * u3),
        ]
    )
    return Rotation.normalized(q)


def rot_to_6d(r: Rotation) -> np.ndarray:
    """First two columns of the rotation matrix, concatenated."""
    m = r.as_matrix()
    return np.concatenate([m[:, 0], m[:, 1]])


def rot_from_6d(r6) -> Rotation:
    """Recover a rotation from a 6D representation by Gram-Schmidt."""
    v = np.asarray(r6, dtype=np.float64).reshape(6)
    a1, a2 = v[:3], v[3:]
    n1 = np.linalg.norm(a1)
    if n1 <= 1e-9:
        raise DegenerateInput("first 6D column has near-zero norm")
    b1 = a1 / n1
    a2p = a2 - np.dot(b1, a2) * b1
    n2 = np.linalg.norm(a2p)
    if n2 <= 1e-9:
        raise DegenerateInput("6D columns are near-collinear")
    b2 = a2p / n2
    b3 = np.cross(b1, b2)
    return Rotation.from_matrix(np.stack([b1, b2, b3], axis=1))


@dataclass(frozen=True)
class Pose:
    """Rigid transform: p -> rotation(p) + translation."""

    translation: np.ndarray
    rotation: Rotation

    def __post_init__(self):
        object.__setattr__(self, "translation", _readonly(_vec3(self.translation)))

    @classmethod
    def identity(cls) -> "Pose":
        return cls(np.zeros(3), Rotation.identity())

    @classmethod
    def from_seven(cls, values) -> "Pose":
        """(tx, ty, tz, qx, qy, qz, qw); the quaternion is renormalized."""
        v = np.asarray(values, dtype=np.float64).reshape(7)
        return cls(v[:3], Rotation.normalized(v[3:]))

    def to_seven(self) -> np.ndarray:
        return np.concatenate([self.translation, self.rotation.quat])

    def apply(self, points) -> np.ndarray:
        return self.rotation.apply(points) + self.translation

    def compose(self, other: "Pose") -> "Pose":
        """self after other: (self o other)(p) = self(other(p))."""
        return Pose(
            self.rotation.apply(other.translation) + self.translation,
            self.rotation.compose(other.rotation),
        )

    def inverse(self) -> "Pose":
        rinv = self.rotation.inverse()
        return Pose(-rinv.apply(self.translation), rinv)

    def __repr__(self):
        return f"Pose(t={self.translation.tolist()}, q={self.rotation.quat.tolist()})"


def compose(a: Pose, b: Pose) -> Pose:
    return a.compose(b)


@dataclass(frozen=True)
class Aabb:
    min: np.ndarray
    max: np.ndarray

    def __post_init__(self):
        lo, hi = _vec3(self.min), _vec3(self.max)
        if np.any(lo > hi):
            raise DegenerateInput(f"Aabb min {lo} exceeds max {hi}")
        object.__setattr__(self, "min", _readonly(lo))
        object.__setattr__(self, "max", _readonly(hi))

    def contains(self, points) -> np.ndarray:
        p = np.atleast_2d(np.asarray(points, dtype=np.float64))
        return np.all((p >= self.min) & (p <= self.max), axis=1)

    def sample(self, rng) -> np.ndarray:
        return self.min + rng.random(3) * (self.max - self.min)


class PointCloud:
    """N x 3 point set with optional unit normals."""

    __slots__ = ("points", "normals")

    def __init__(self, points, normals=None):
        p = np.asarray(points, dtype=np.float64).reshape(-1, 3)
        if not np.all(np.isfinite(p)):
            raise NonFiniteInput("non-finite points in cloud")
        self.points = _readonly(p)
        if normals is None:
            self.normals = None
        else:
            n = np.asarray(normals, dtype=np.float64).reshape(-1, 3)
            if n.shape != p.shape:
                raise DegenerateInput("normals shape does not match points")
            norms = np.linalg.norm(n, axis=1)
            if np.any(np.abs(norms - 1.0) > NORMAL_NORM_TOL):
                raise DegenerateInput("normals are not unit length")
            self.normals = _readonly(n)

    def __len__(self):
        return self.points.shape[0]

    def select(self, index) -> "PointCloud":
        normals = None if self.normals is None else self.normals[index]
        return PointCloud(self.points[index], normals)

    def transformed(self, pose: Pose) -> "PointCloud":
        normals = None if self.normals is None else pose.rotation.apply(self.normals)
        return PointCloud(pose.apply(self.points), normals)


class TriMesh:
    """Triangle surface mesh.

    Faces with area below MIN_FACE_AREA are kept but excluded from
    area-weighted sampling; a mesh whose faces are all degenerate behaves as
    empty. The watertight flag comes from an edge-manifold check (every
    undirected edge shared by exactly two faces) and gates containment
    queries.
    """

    __slots__ = ("vertices", "faces", "face_areas", "watertight")

    def __init__(self, vertices, faces, _watertight=None):
        v = np.asarray(vertices, dtype=np.float64).reshape(-1, 3)
        f = np.asarray(faces, dtype=np.int64).reshape(-1, 3)
        if not np.all(np.isfinite(v)):
            raise NonFiniteInput("non-finite mesh vertices")
        if f.size and (f.min() < 0 or f.max() >= len(v)):
            raise MeshLoadError("face index out of range")
        self.vertices = _readonly(v)
        self.faces = _readonly(f)
        tri = v[f]
        cross = np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])
        self.face_areas = _readonly(0.5 * np.linalg.norm(cross, axis=1))
        if _watertight is None:
            self.watertight = self._edge_manifold()
        else:
            self.watertight = bool(_watertight)

    def _edge_manifold(self) -> bool:
        if len(self.faces) == 0:
            return False
        f = self.faces
        edges = np.concatenate([f[:, [0, 1]], f[:, [1, 2]], f[:, [2, 0]]])
        edges = np.sort(edges, axis=1)
        _, counts = np.unique(edges, axis=0, return_counts=True)
        return bool(np.all(counts == 2))

    def __len__(self):
        return self.faces.shape[0]

    def triangles(self) -> np.ndarray:
        return self.vertices[self.faces]

    def aabb(self) -> Aabb:
        if len(self.vertices) == 0:
            raise EmptyMesh("mesh has no vertices")
        return Aabb(self.vertices.min(axis=0), self.vertices.max(axis=0))

    def transformed(self, pose: Pose) -> "TriMesh":
        # Rigid transforms preserve areas and manifoldness; skip re-validation.
        return TriMesh(pose.apply(self.vertices), self.faces, _watertight=self.watertight)

    def translated(self, offset) -> "TriMesh":
        return TriMesh(self.vertices + _vec3(offset), self.faces, _watertight=self.watertight)


def load_obj(path) -> TriMesh:
    """Parse the ASCII OBJ subset: `v x y z` and `f i j k` (1-based triangles).

    Any `f` line without exactly three plain integer indices is a load error;
    all other line types are ignored.
    """
    vertices, faces = [], []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().split("\n")
    except UnicodeDecodeError as exc:
        raise MeshLoadError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    for lineno, raw in enumerate(lines, start=1):
        parts = raw.split()
        if not parts:
            continue
        if parts[0] == "v":
            if len(parts) != 4:
                raise MeshLoadError(f"{path}:{lineno}: malformed vertex line")
            try:
                vertices.append([float(x) for x in parts[1:]])
            except ValueError as exc:
                raise MeshLoadError(f"{path}:{lineno}: bad vertex coordinate") from exc
        elif parts[0] == "f":
            if len(parts) != 4:
                raise MeshLoadError(f"{path}:{lineno}: face must have exactly 3 indices")
            try:
                idx = [int(x) for x in parts[1:]]
            except ValueError as exc:
                raise MeshLoadError(f"{path}:{lineno}: face indices must be integers") from exc
            if any(i < 1 for i in idx):
                raise MeshLoadError(f"{path}:{lineno}: face indices are 1-based")
            faces.append([i - 1 for i in idx])
    return TriMesh(np.array(vertices, dtype=np.float64).reshape(-1, 3),
                   np.array(faces, dtype=np.int64).reshape(-1, 3))


def save_obj(mesh: TriMesh, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for v in mesh.vertices:
            fh.write(f"v {float(v[0])!r} {float(v[1])!r} {float(v[2])!r}\n")
        for f in mesh.faces:
            fh.write(f"f {f[0] + 1} {f[1] + 1} {f[2] + 1}\n")


def sample_surface_points(mesh: TriMesh, n: int, rng) -> PointCloud:
    """Sample n points uniformly over the mesh surface.

    Faces are drawn with probability proportional to area; the position
    inside the chosen triangle uses the sqrt-barycentric scheme.
    """
    areas = mesh.face_areas
    usable = areas >= MIN_FACE_AREA
    total = areas[usable].sum()
    if len(mesh) == 0 or not np.any(usable) or total <= 0.0:
        raise EmptyMesh("mesh has no usable surface area")
    probs = np.where(usable, areas, 0.0) / areas[usable].sum()
    face_idx = rng.choice(len(mesh), size=n, p=probs)
    tri = mesh.triangles()[face_idx]
    r1, r2 = rng.random(n), rng.random(n)
    su = np.sqrt(r1)[:, None]
    r2 = r2[:, None]
    pts = (1.0 - su) * tri[:, 0] + su * (1.0 - r2) * tri[:, 1] + su * r2 * tri[:, 2]
    return PointCloud(pts)


def _cast_parity(points: np.ndarray, a, e1, e2, normal, direction: np.ndarray):
    """One parity cast for a batch of points against faces with origins `a`,
    edges `e1`, `e2` and unit normals `normal`.

    Returns (inside, degenerate, on_surface) boolean arrays. A cast is
    degenerate for a point when the ray passes within 1e-9 of a triangle
    edge or vertex, or grazes a coplanar triangle.
    """
    eps = 1e-9
    h = np.cross(direction, e2)  # (M,3)
    det = np.einsum("mk,mk->m", e1, h)
    parallel = np.abs(det) < 1e-12

    n_pts = points.shape[0]
    inside = np.zeros(n_pts, dtype=bool)
    degenerate = np.zeros(n_pts, dtype=bool)
    on_surface = np.zeros(n_pts, dtype=bool)

    safe_det = np.where(parallel, 1.0, det)
    for start in range(0, n_pts, _POINT_CHUNK):
        p = points[start : start + _POINT_CHUNK]
        s = p[:, None, :] - a[None, :, :]  # (Q,M,3)
        u = np.einsum("qmk,mk->qm", s, h) / safe_det
        q = np.cross(s, e1[None, :, :])
        v = np.einsum("qmk,k->qm", q, direction) / safe_det
        t = np.einsum("qmk,mk->qm", q, e2) / safe_det

        in_plane_region = (u >= -eps) & (v >= -eps) & (u + v <= 1.0 + eps)
        hit = ~parallel[None, :] & in_plane_region
        near_edge = (np.minimum(np.minimum(u, v), 1.0 - u - v) < eps) & hit & (t > eps)
        origin_on_face = hit & (np.abs(t) <= eps)
        # Grazing a plane that contains the ray: conservative, any coplanar face.
        plane_dist = np.abs(np.einsum("qmk,mk->qm", s, normal))
        grazing = parallel[None, :] & (plane_dist < eps)

        clean_cross = hit & (t > eps) & ~near_edge
        inside[start : start + _POINT_CHUNK] = np.sum(clean_cross, axis=1) % 2 == 1
        degenerate[start : start + _POINT_CHUNK] = np.any(near_edge | grazing, axis=1)
        on_surface[start : start + _POINT_CHUNK] = np.any(origin_on_face, axis=1)
    return inside, degenerate, on_surface


def points_in_mesh(points, mesh: TriMesh) -> np.ndarray:
    """Batched containment test by ray parity with degenerate-cast recovery.

    Points exactly on the surface are reported inside. Requires a watertight
    mesh. Points outside the mesh's bounding box, padded by a margin well
    above the casts' 1e-9 tolerances, are outside without a cast; the answer
    equals that of casting every point.
    """
    if not mesh.watertight:
        raise NotWatertight("containment requires a watertight mesh")
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    lo, hi = mesh.vertices.min(axis=0), mesh.vertices.max(axis=0)
    pad = 1e-6 * max(1.0, float(np.max(hi - lo)))
    near = np.flatnonzero(np.all((pts >= lo - pad) & (pts <= hi + pad), axis=1))
    result = np.zeros(len(pts), dtype=bool)
    if near.size == 0:
        return result
    pts = pts[near]
    tri = mesh.triangles()
    e1 = tri[:, 1] - tri[:, 0]
    e2 = tri[:, 2] - tri[:, 0]
    normal = np.cross(e1, e2)
    nn = np.linalg.norm(normal, axis=1)
    nn[nn == 0.0] = 1.0
    faces = (tri[:, 0], e1, e2, normal / nn[:, None])

    inside, degen, on_surf = _cast_parity(pts, *faces, _RAY_DIRECTIONS[0])
    hit = inside.copy()
    retry = np.flatnonzero(degen)
    if retry.size:
        votes = [inside[retry]]
        clean = [~degen[retry]]
        for d in _RAY_DIRECTIONS[1:]:
            i2, d2, s2 = _cast_parity(pts[retry], *faces, d)
            votes.append(i2)
            clean.append(~d2)
            on_surf[retry] |= s2
        votes = np.stack(votes)  # (3, R)
        clean = np.stack(clean)
        n_clean = clean.sum(axis=0)
        clean_votes = np.sum(votes & clean, axis=0)
        all_votes = votes.sum(axis=0)
        majority = np.where(n_clean > 0, clean_votes * 2 > n_clean, all_votes * 2 > 3)
        hit[retry] = majority
    result[near] = hit | on_surf
    return result


def point_in_mesh(p, mesh: TriMesh) -> bool:
    return bool(points_in_mesh(np.asarray(p, dtype=np.float64).reshape(1, 3), mesh)[0])


def _tri_dots(points, a, ab, ac):
    """Per-pair dot products d1 = ab.(p-a), d2 = ac.(p-a), pa2 = |p-a|^2.

    Built from Q x M matrix products only, updated in place; no (Q, M, 3)
    arrays. The evaluation order, pa2 = (|p|^2 - 2 p.a) + |a|^2, is part of
    the output bits of every nearest-point query.
    """
    d1 = points @ ab.T
    d1 -= np.einsum("mk,mk->m", a, ab)
    d2 = points @ ac.T
    d2 -= np.einsum("mk,mk->m", a, ac)
    pa2 = points @ a.T
    pa2 *= 2.0
    np.subtract(np.einsum("qk,qk->q", points, points)[:, None], pa2, out=pa2)
    pa2 += np.einsum("mk,mk->m", a, a)
    return d1, d2, pa2


def _candidate_dist2(d1, d2, pa2, d00, d01, d11):
    """Squared distances of the four closest-point candidates per triangle.

    The closest point on a triangle is the in-plane projection when that
    falls inside, otherwise the clamped projection onto one of the three
    edges; the minimum over these four is exact. Degenerate triangles can
    only overestimate (every candidate is a real point of the triangle).
    Returns (d_int, d_ab, d_ac, d_bc) plus the parameters to rebuild each
    candidate's barycentric coordinates.
    """
    den = d00 * d11 - d01 * d01
    bc2 = d00 + d11 - 2.0 * d01

    def inv(x):
        return 1.0 / np.where(x > 1e-300, x, 1.0)

    vi = (d11 * d1 - d01 * d2) * inv(den)
    wi = (d00 * d2 - d01 * d1) * inv(den)
    proj = vi * d1 + wi * d2
    valid = (vi >= 0.0) & (wi >= 0.0) & (vi + wi <= 1.0) & (den > 1e-300)
    d_int = np.where(valid, pa2 - proj, np.inf)

    t_ab = np.clip(d1 * inv(d00), 0.0, 1.0)
    d_ab = pa2 + t_ab * (t_ab * d00 - 2.0 * d1)
    t_ac = np.clip(d2 * inv(d11), 0.0, 1.0)
    d_ac = pa2 + t_ac * (t_ac * d11 - 2.0 * d2)
    dbc = d2 - d1 + d00 - d01  # (c-b).(p-b)
    pb2 = pa2 - 2.0 * d1 + d00
    t_bc = np.clip(dbc * inv(bc2), 0.0, 1.0)
    d_bc = pb2 + t_bc * (t_bc * bc2 - 2.0 * dbc)
    return (d_int, d_ab, d_ac, d_bc), (vi, wi, t_ab, t_ac, t_bc)


def _faces(mesh: TriMesh):
    """Per-face terms of the closest-point evaluation: origin a, edges ab and
    ac, and the dot products ab.ab, ab.ac and ac.ac."""
    tri = mesh.triangles()
    a, ab, ac = tri[:, 0], tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0]
    return (a, ab, ac, np.einsum("mk,mk->m", ab, ab), np.einsum("mk,mk->m", ab, ac),
            np.einsum("mk,mk->m", ac, ac))


def _chunk_rows(n_faces: int) -> int:
    """Query rows per block; nearest_displacement uses the same blocks as
    nearest_points_on_mesh, so both see the same matrix-product bits."""
    return max(16, int(4e6 / max(n_faces, 1)))


def _nearest_in_block(d1, d2, pa2, faces):
    """Closest point and distance per row over the block's faces (columns)."""
    a, ab, ac, d00, d01, d11 = faces
    cands, params = _candidate_dist2(d1, d2, pa2, d00, d01, d11)
    dist2 = np.minimum(np.minimum(cands[0], cands[1]), np.minimum(cands[2], cands[3]))
    dist2 = np.maximum(dist2, 0.0)
    idx = np.argmin(dist2, axis=1)
    rows = np.arange(len(dist2))
    vi, wi, t_ab, t_ac, t_bc = (x[rows, idx] for x in params)
    which = np.argmin(np.stack([c[rows, idx] for c in cands]), axis=0)
    v = np.choose(which, [vi, t_ab, np.zeros_like(vi), 1.0 - t_bc])
    w = np.choose(which, [wi, np.zeros_like(wi), t_ac, t_bc])
    return a[idx] + v[:, None] * ab[idx] + w[:, None] * ac[idx], np.sqrt(dist2[rows, idx])


def nearest_points_on_mesh(points, mesh: TriMesh):
    """Closest surface point and distance for each query point."""
    if len(mesh) == 0:
        raise EmptyMesh("mesh has no faces")
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    faces = _faces(mesh)
    out_pts = np.empty_like(pts)
    out_d = np.empty(len(pts))
    chunk = _chunk_rows(len(mesh))
    for start in range(0, len(pts), chunk):
        block = _tri_dots(pts[start : start + chunk], *faces[:3])
        out_pts[start : start + chunk], out_d[start : start + chunk] = _nearest_in_block(*block, faces)
    return out_pts, out_d


def nearest_point_on_mesh(p, mesh: TriMesh):
    pts, d = nearest_points_on_mesh(np.asarray(p, dtype=np.float64).reshape(1, 3), mesh)
    return pts[0], float(d[0])


def nearest_displacement(a: TriMesh, b: TriMesh, m: int, rng) -> np.ndarray:
    """Displacement from the closest pair (a*, b*) between two surfaces.

    a* ranges over m surface samples of `a`; b* is the exact nearest point of
    `b` to each sample. Returns b* - a* for the minimizing pair, so
    translating `b` by the negative displacement brings b* onto a*.

    The result equals `nearest_points_on_mesh` on every sample followed by
    `argmin`, bit for bit, but evaluates only the pairs that can attain the
    minimum (Ericson 2004, Real-Time Collision Detection, ch. 5-6). The exact
    distances of the few samples nearest a face corner of `b` give an upper
    bound U; a (sample, face) pair is skipped when the sample lies farther than U
    from the face's bounding sphere, by a slack that covers the rounding of
    the bound and of the evaluated distances. The dot products come from the
    same row chunks as in `nearest_points_on_mesh`, and the surviving samples
    and faces, in their original order, form a sub-block of them, so every
    value and every tie is the same as in the full evaluation.
    """
    if m < 1:
        raise DegenerateInput("sample count must be >= 1")
    samples = sample_surface_points(a, m, rng).points
    if len(b) == 0:
        raise EmptyMesh("mesh has no faces")
    faces = _faces(b)
    fa, ab, ac, d00, d01, d11 = faces
    # Bounding sphere about the centroid fa + off: |p - centre|^2 is
    # pa2 - 2/3 (d1 + d2) + |off|^2 in terms of the block's dot products.
    off = (ab + ac) / 3.0
    off2 = np.einsum("mk,mk->m", off, off)
    radius = np.linalg.norm(np.stack([off, ab - off, ac - off]), axis=2).max(axis=0)
    # Rounding moves an evaluated distance by up to about 2e-8 scale
    # sqrt(conditioning), where scale bounds the coordinates and the
    # conditioning d00 d11 / den grows as a face degenerates; a slack of 1e-6
    # times that keeps every skipped pair strictly above U. Faces with
    # den <= 0 get an infinite slack.
    scale = max(float(np.abs(samples).max()), float(np.abs(b.vertices).max()))
    den = d00 * d11 - d01 * d01
    conditioning = np.divide(d00 * d11, den, out=np.full(len(den), np.inf), where=den > 0.0)
    slack = radius + 1e-6 * scale * np.sqrt(conditioning)

    upper = np.inf
    best = []  # (distance, displacement) of each chunk's first minimizer
    chunk = _chunk_rows(len(b))
    for start in range(0, m, chunk):
        p = samples[start : start + chunk]
        d1, d2, pa2 = _tri_dots(p, fa, ab, ac)
        near = np.argsort(pa2.min(axis=1), kind="stable")[:_BOUND_SAMPLES]
        upper = min(upper, float(_nearest_in_block(d1[near], d2[near], pa2[near], faces)[1].min()))
        centre2 = d1 + d2
        centre2 *= -2.0 / 3.0
        centre2 += pa2
        centre2 += off2
        keep = ~(centre2 > (upper + slack) ** 2)  # NaN keeps the pair
        rows = np.flatnonzero(keep.any(axis=1))
        if rows.size == 0:
            continue
        cols = np.flatnonzero(keep.any(axis=0))
        sub = np.ix_(rows, cols)
        closest, dist = _nearest_in_block(d1[sub], d2[sub], pa2[sub], tuple(x[cols] for x in faces))
        i = int(np.argmin(dist))
        best.append((dist[i], closest[i] - p[rows[i]]))
    return best[int(np.argmin([d for d, _ in best]))][1]
