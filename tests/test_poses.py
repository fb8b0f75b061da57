import numpy as np
import pytest

from corn import shapes
from corn.errors import DegenerateInput, NonPositiveVolume, NotWatertight, WorkspaceTooSmall
from corn.geom import Aabb, Rotation, TriMesh
from corn.poses import (
    YAW_DEDUP_TOL,
    _polygon_margin,
    com_and_volume,
    sample_episode,
    stable_orientations,
)


def _yaw_distance(a: Rotation, b: Rotation) -> float:
    """Distance of a b^-1 from the pure-yaw family.

    a = Rz(t) b for some t exactly when the relative rotation fixes the world
    z-axis, so the deviation of (a b^-1) z from z measures class distance
    without any yaw extraction (which is ambiguous at gimbal lock).
    """
    v = a.compose(b.inverse()).apply([0.0, 0.0, 1.0])
    return float(np.linalg.norm(v - [0.0, 0.0, 1.0]))


# ------------------------------------------------------------ mass properties


def test_com_and_volume_unit_cube():
    com, vol = com_and_volume(shapes.box((1, 1, 1)))
    assert np.allclose(com, 0.0, atol=1e-12)
    assert abs(vol - 1.0) < 1e-12


def test_com_translation_equivariance():
    com, vol = com_and_volume(shapes.box((1, 1, 1), center=(1, 2, 3)))
    assert np.allclose(com, [1, 2, 3], atol=1e-12)
    assert abs(vol - 1.0) < 1e-12


def test_com_l_prism_vs_monte_carlo():
    base = shapes.box((0.1, 0.1, 0.02), center=(0.0, 0.0, 0.01))
    upright = shapes.box((0.02, 0.1, 0.08), center=(-0.04, 0.0, 0.06))
    lshape = shapes.merge([base, upright])
    com, vol = com_and_volume(lshape)

    rng = np.random.default_rng(0)
    samples = rng.uniform([-0.05, -0.05, 0.0], [0.05, 0.05, 0.1], size=(1_000_000, 3))
    in_base = np.all(np.abs(samples - [0, 0, 0.01]) <= [0.05, 0.05, 0.01], axis=1)
    in_up = np.all(np.abs(samples - [-0.04, 0, 0.06]) <= [0.01, 0.05, 0.04], axis=1)
    inside = in_base | in_up
    mc_vol = inside.mean() * 0.1 * 0.1 * 0.1
    mc_com = samples[inside].mean(axis=0)
    assert abs(vol - mc_vol) / mc_vol < 0.01
    assert np.all(np.abs(com - mc_com) < 0.001)


def test_com_requires_watertight():
    open_mesh = TriMesh([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 2]])
    with pytest.raises(NotWatertight):
        com_and_volume(open_mesh)


def test_com_rejects_zero_volume():
    flat = TriMesh([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 2], [0, 2, 1]])
    assert flat.watertight  # degenerate but edge-manifold
    with pytest.raises(NonPositiveVolume):
        com_and_volume(flat)


# --------------------------------------------------------- stable orientations


def test_cube_has_exactly_six_classes():
    found = stable_orientations(shapes.box((1, 1, 1)), margin_min=0.002)
    assert len(found) == 6
    for p in found:
        assert abs(p.rest_height - 0.5) < 1e-9
        assert abs(p.margin - 0.5) < 1e-9


def test_cube_classes_match_face_down_enumeration():
    # brute-force oracle: each face normal mapped down gives one class; the
    # two triangles per face and any yaw must not add classes
    found = stable_orientations(shapes.box((1, 1, 1)), margin_min=0.002)
    downs = set()
    for p in found:
        # which body axis points down after the rotation
        m = p.orientation.as_matrix()
        body_down = np.argmax(np.abs(m.T @ [0, 0, -1]))
        sign = np.sign((m.T @ [0, 0, -1])[body_down])
        downs.add((int(body_down), int(sign)))
    assert len(downs) == 6


def test_stable_poses_replay_support_test():
    for mesh in (shapes.box((0.08, 0.05, 0.03)), shapes.wedge((0.1, 0.08, 0.05))):
        com, _ = com_and_volume(mesh)
        for p in stable_orientations(mesh, margin_min=0.002):
            rotated = p.orientation.apply(mesh.vertices)
            assert abs(-rotated[:, 2].min() - p.rest_height) < 1e-9
            margin = _polygon_margin(p.support_polygon, p.orientation.apply(com)[:2])
            assert abs(margin - p.margin) < 1e-9
            assert margin > 0


def test_margin_threshold_excludes_narrow_supports():
    thin = shapes.box((0.02, 0.02, 0.3))
    # every face of this box has a 10 mm margin; the threshold brackets it
    assert len(stable_orientations(thin, margin_min=0.009)) == 6
    assert len(stable_orientations(thin, margin_min=0.012)) == 0


@pytest.mark.parametrize("margin", [np.nan, np.inf, -np.inf])
def test_margin_must_be_finite(margin):
    # margin < nan is always false, so a NaN margin would keep every facet
    with pytest.raises(DegenerateInput):
        stable_orientations(shapes.ellipsoid((0.08, 0.03, 0.02)), margin_min=margin)


def test_unstable_overhang_excluded():
    # L-shaped prism: resting on the small top face puts the COM projection
    # outside the support polygon, so that orientation must not appear
    base = shapes.box((0.1, 0.1, 0.02), center=(0.0, 0.0, 0.01))
    upright = shapes.box((0.02, 0.1, 0.08), center=(-0.04, 0.0, 0.06))
    lshape = shapes.merge([base, upright])
    com, _ = com_and_volume(lshape)
    found = stable_orientations(lshape, margin_min=0.0005)
    for p in found:
        rotated = p.orientation.apply(lshape.vertices)
        min_z = rotated[:, 2].min()
        support = rotated[rotated[:, 2] <= min_z + 1e-6]
        # the small face is 0.02 x 0.1; standing on it would need the COM
        # (x approx -0.031) inside x in [-0.05, -0.03]
        assert p.margin >= 0.0005


def test_yaw_invariance_of_class_count():
    rng = np.random.default_rng(1)
    mesh = shapes.wedge((0.1, 0.08, 0.05))
    base_count = len(stable_orientations(mesh, margin_min=0.002))
    for _ in range(3):
        yaw = Rotation.from_axis_angle([0, 0, rng.uniform(0, 2 * np.pi)])
        spun = TriMesh(yaw.apply(mesh.vertices), mesh.faces)
        assert len(stable_orientations(spun, margin_min=0.002)) == base_count


@pytest.mark.parametrize("mesh, count", [(shapes.icosphere(0.05, 2), 320),
                                         (shapes.cylinder(0.03, 0.08), 34)])
def test_kept_classes_are_yaw_distinct(mesh, count):
    found = stable_orientations(mesh, margin_min=0.002)
    assert len(found) == count
    for i, a in enumerate(found):
        for b in found[:i]:
            assert _yaw_distance(a.orientation, b.orientation) >= YAW_DEDUP_TOL


def test_stable_orientations_requires_watertight():
    open_mesh = TriMesh([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 2]])
    with pytest.raises(NotWatertight):
        stable_orientations(open_mesh)


# ------------------------------------------------------------------ episodes


WORKSPACE = Aabb((-0.25, -0.25, 0.0), (0.25, 0.25, 0.5))


def test_episode_separation_always_met():
    stable = stable_orientations(shapes.box((0.06, 0.05, 0.04)), margin_min=0.002)
    rng = np.random.default_rng(2)
    for _ in range(1000):
        ep = sample_episode(stable, WORKSPACE, rng)
        d = np.hypot(ep.goal.translation[0] - ep.initial.translation[0],
                     ep.goal.translation[1] - ep.initial.translation[1])
        assert d >= 0.1


def test_episode_poses_rest_on_table():
    mesh = shapes.box((0.06, 0.05, 0.04))
    stable = stable_orientations(mesh, margin_min=0.002)
    rng = np.random.default_rng(3)
    for _ in range(50):
        ep = sample_episode(stable, WORKSPACE, rng)
        for pose in (ep.initial, ep.goal):
            z = pose.apply(mesh.vertices)[:, 2]
            assert abs(z.min()) < 1e-9


def test_small_workspace_raises():
    stable = stable_orientations(shapes.box((0.06, 0.05, 0.04)), margin_min=0.002)
    tiny = Aabb((0.0, 0.0, 0.0), (0.05, 0.05, 0.5))
    rng = np.random.default_rng(4)
    with pytest.raises(WorkspaceTooSmall):
        sample_episode(stable, tiny, rng)


def test_stable_class_frequencies_uniform():
    stable = stable_orientations(shapes.box((0.06, 0.05, 0.04)), margin_min=0.002)
    rng = np.random.default_rng(5)
    counts = np.zeros(len(stable))
    n = 10_000
    for _ in range(n):
        ep = sample_episode(stable, WORKSPACE, rng)
        dists = [_yaw_distance(ep.initial.rotation, p.orientation) for p in stable]
        k = int(np.argmin(dists))
        assert dists[k] < 1e-9
        counts[k] += 1
    expected = n / len(stable)
    sigma = np.sqrt(n * (1 / len(stable)) * (1 - 1 / len(stable)))
    assert np.all(np.abs(counts - expected) <= 3 * sigma)
