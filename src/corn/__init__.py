"""Desk-scale toolkit for contact-based object representation pipelines.

Submodules
----------
geom        SE(3) poses, meshes, clouds, geometric queries
shapes      procedural watertight primitives
patches     FPS/kNN patch decomposition of point clouds
contactgen  contact-label dataset generation and its file I/O
formats     .corn/.ckpt/.pcseq byte layouts and the bounded reader
autodiff    minimal reverse-mode automatic differentiation on numpy arrays
encoder     patch-transformer encoder, contact decoder, training loop
policyhead  forward-only policy/value network with cross-attention
control     serial-chain kinematics, damped-least-squares IK, impedance torques
reward      success test, potential shaping, energy penalty
percept     segmentation filters, DBSCAN, ICP registration and tracking
poses       stable resting orientations and episode pose sampling
cli         `corn` command-line entry point
"""

from .errors import CornError
from .formats import CHECKPOINT_FORMAT_VERSION, DATASET_FORMAT_VERSION, PCSEQ_FORMAT_VERSION
from .geom import (
    Aabb,
    PointCloud,
    Pose,
    Rotation,
    TriMesh,
    compose,
    load_obj,
    nearest_displacement,
    nearest_point_on_mesh,
    point_in_mesh,
    points_in_mesh,
    rot_from_6d,
    rot_to_6d,
    sample_surface_points,
    save_obj,
)
from .patches import PatchConfig, PatchSet, farthest_point_sample, knn, make_patches

__version__ = "0.1.0"

__all__ = [
    "Aabb",
    "CornError",
    "PatchConfig",
    "PatchSet",
    "PointCloud",
    "Pose",
    "Rotation",
    "TriMesh",
    "compose",
    "farthest_point_sample",
    "knn",
    "load_obj",
    "make_patches",
    "nearest_displacement",
    "nearest_point_on_mesh",
    "point_in_mesh",
    "points_in_mesh",
    "rot_from_6d",
    "rot_to_6d",
    "sample_surface_points",
    "save_obj",
    "DATASET_FORMAT_VERSION",
    "CHECKPOINT_FORMAT_VERSION",
    "PCSEQ_FORMAT_VERSION",
    "__version__",
]
