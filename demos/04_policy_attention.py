"""Policy head forward pass: cross-attention, action/value heads, and the
per-patch attention map used for visualization.

Run:  python3 demos/04_policy_attention.py
"""
import numpy as np

from corn import encoder, policyhead, shapes
from corn.geom import Pose, Rotation, rot_to_6d, sample_surface_points
from corn.patches import PatchConfig, make_patches

rng = np.random.default_rng(0)

# encode a cup-sized box with the hand hovering near one corner
mesh = shapes.box((0.08, 0.06, 0.1))
pts = sample_surface_points(mesh, 512, rng).points
centroid = pts.mean(axis=0)
ps = make_patches((pts - centroid) * encoder.FEATURE_SCALE, PatchConfig())

hand_pose = Pose([0.06, 0.05, 0.08], Rotation.from_axis_angle([0.0, np.pi, 0.0]))
hand = encoder.HandState((hand_pose.translation - centroid) * encoder.FEATURE_SCALE,
                         rot_to_6d(hand_pose.rotation))

enc_params = encoder.init_encoder_params(seed=0)
emb, hand_emb = encoder.encode(enc_params, ps, hand)
print(f"patch embeddings {emb.shape}, hand embedding {hand_emb.shape}")

task = policyhead.TaskInputs(
    joint_position=np.zeros(7),
    joint_velocity=np.zeros(7),
    previous_action=policyhead.ActionCommand.zeros(),
    relative_goal_pose=Pose([0.15, 0.0, 0.0], Rotation.identity()),
    mass=0.25, friction=0.9, restitution=0.3,
)
params = policyhead.init_policy_params(seed=0)
out = policyhead.policy_forward(params, emb, task)

cmd = out.command()  # softplus was applied once, inside policy_forward
print(f"value estimate: {out.value:+.4f}")
print(f"subgoal translation: {np.round(cmd.delta_translation, 4)}")
print(f"subgoal rotation (axis-angle): {np.round(cmd.delta_rotation, 4)}")
print(f"stiffness range: [{cmd.kp.min():.3f}, {cmd.kp.max():.3f}] (always > 0)")

amap = policyhead.attention_map(out.attention)
order = np.argsort(amap)[::-1]
print("most-attended patches (normalized weight, world center):")
for i in order[:4]:
    center = ps.centers[i] / encoder.FEATURE_SCALE + centroid
    print(f"  patch {i:2d}: {amap[i]:.2f} at {np.round(center, 3)}")
