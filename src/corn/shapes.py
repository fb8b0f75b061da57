"""Procedural watertight primitive meshes used by tests, demos, and the CLI.

All builders emit outward-oriented triangles (positive signed volume) and
pass the edge-manifold watertightness check.
"""

from __future__ import annotations

import numpy as np

from .geom import TriMesh, _vec3

_BOX_FACES = np.array(
    [
        [0, 2, 1], [0, 3, 2],  # -z
        [4, 5, 6], [4, 6, 7],  # +z
        [0, 1, 5], [0, 5, 4],  # -y
        [2, 3, 7], [2, 7, 6],  # +y
        [0, 4, 7], [0, 7, 3],  # -x
        [1, 2, 6], [1, 6, 5],  # +x
    ],
    dtype=np.int64,
)


def box(extents, center=(0.0, 0.0, 0.0)) -> TriMesh:
    """Axis-aligned box with the given full extents."""
    e = _vec3(extents) * 0.5
    c = _vec3(center)
    signs = np.array(
        [
            [-1, -1, -1], [1, -1, -1], [1, 1, -1], [-1, 1, -1],
            [-1, -1, 1], [1, -1, 1], [1, 1, 1], [-1, 1, 1],
        ],
        dtype=np.float64,
    )
    return TriMesh(c + signs * e, _BOX_FACES)


def cylinder(radius: float, height: float, segments: int = 32, center=(0.0, 0.0, 0.0)) -> TriMesh:
    """Closed cylinder along z with fan-triangulated caps."""
    c = _vec3(center)
    ang = 2.0 * np.pi * np.arange(segments) / segments
    ring = np.stack([radius * np.cos(ang), radius * np.sin(ang)], axis=1)
    bottom = np.column_stack([ring, np.full(segments, -height / 2)])
    top = np.column_stack([ring, np.full(segments, height / 2)])
    verts = np.vstack([bottom, top, [[0, 0, -height / 2]], [[0, 0, height / 2]]]) + c
    cb, ct = 2 * segments, 2 * segments + 1
    faces = []
    for i in range(segments):
        j = (i + 1) % segments
        faces.append([i, j, segments + j])
        faces.append([i, segments + j, segments + i])
        faces.append([cb, j, i])                       # bottom cap, normal -z
        faces.append([ct, segments + i, segments + j])  # top cap, normal +z
    return TriMesh(verts, np.array(faces, dtype=np.int64))


def icosphere(radius: float, subdivisions: int = 2, center=(0.0, 0.0, 0.0)) -> TriMesh:
    """Geodesic sphere from a subdivided icosahedron."""
    t = (1.0 + np.sqrt(5.0)) / 2.0
    verts = np.array(
        [
            [-1, t, 0], [1, t, 0], [-1, -t, 0], [1, -t, 0],
            [0, -1, t], [0, 1, t], [0, -1, -t], [0, 1, -t],
            [t, 0, -1], [t, 0, 1], [-t, 0, -1], [-t, 0, 1],
        ],
        dtype=np.float64,
    )
    faces = [
        (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
        (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
        (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
        (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
    ]
    verts = [v / np.linalg.norm(v) for v in verts]
    for _ in range(subdivisions):
        cache = {}
        new_faces = []

        def midpoint(i, j):
            key = (min(i, j), max(i, j))
            if key not in cache:
                m = verts[i] + verts[j]
                verts.append(m / np.linalg.norm(m))
                cache[key] = len(verts) - 1
            return cache[key]

        for a, b, c in faces:
            ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            new_faces += [(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)]
        faces = new_faces
    v = np.array(verts) * radius + _vec3(center)
    return TriMesh(v, np.array(faces, dtype=np.int64))


def wedge(extents, center=(0.0, 0.0, 0.0)) -> TriMesh:
    """Right triangular prism: box cut along the x-z diagonal of its cross-section."""
    ex, ey, ez = _vec3(extents) * 0.5
    c = _vec3(center)
    verts = np.array(
        [
            [-ex, -ey, -ez], [ex, -ey, -ez], [-ex, -ey, ez],
            [-ex, ey, -ez], [ex, ey, -ez], [-ex, ey, ez],
        ]
    ) + c
    faces = np.array(
        [
            [0, 1, 2], [3, 5, 4],            # triangular caps (-y, +y)
            [0, 3, 4], [0, 4, 1],            # bottom (-z)
            [0, 2, 5], [0, 5, 3],            # back (-x)
            [1, 4, 5], [1, 5, 2],            # slanted face
        ],
        dtype=np.int64,
    )
    return TriMesh(verts, faces)


def ellipsoid(semi_axes, subdivisions: int = 1, center=(0.0, 0.0, 0.0)) -> TriMesh:
    """Anisotropically scaled icosphere."""
    sph = icosphere(1.0, subdivisions)
    return TriMesh(sph.vertices * _vec3(semi_axes) + _vec3(center), sph.faces)


def merge(meshes) -> TriMesh:
    """Concatenate meshes into one, without any boolean union. Parity
    containment (`geom.points_in_mesh`) is exact only where the components do
    not overlap: a point inside two of them crosses two surfaces and counts as
    outside."""
    verts, faces, offset = [], [], 0
    for m in meshes:
        verts.append(m.vertices)
        faces.append(m.faces + offset)
        offset += len(m.vertices)
    return TriMesh(np.vstack(verts), np.vstack(faces))


def two_finger_gripper() -> TriMesh:
    """Closed parallel-jaw gripper envelope: rounded palm plus two finger blocks.

    Proportions loosely follow a table-top robot hand in its closed
    configuration. The components are not disjoint: the palm (bottom at
    z = 0.02) overlaps both fingers (top at z = 0.0375), so parity containment
    calls a point inside the palm and a finger outside, for example
    `points_in_mesh([[0, 0.028, 0.03]], two_finger_gripper())` is `[False]`.
    ROADMAP item 1 plans the nonzero winding rule that counts it inside.
    """
    palm = ellipsoid((0.05, 0.09, 0.055), subdivisions=1, center=(0.0, 0.0, 0.075))
    left = box((0.05, 0.025, 0.075), center=(0.0, -0.028, 0.0))
    right = box((0.05, 0.025, 0.075), center=(0.0, 0.028, 0.0))
    return merge([palm, left, right])


def primitive_set() -> list[TriMesh]:
    """Five desk-scale primitives with largest diameters near the low end of
    the 0.1 to 0.3 m training range."""
    return [
        box((0.062, 0.062, 0.062)),
        box((0.12, 0.05, 0.035)),
        cylinder(0.04, 0.09, segments=24),
        icosphere(0.05, subdivisions=2),
        wedge((0.09, 0.07, 0.055)),
    ]
