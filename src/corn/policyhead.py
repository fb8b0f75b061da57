"""Forward-only policy/value network over patch embeddings.

Task inputs (joint state, previous action, relative goal pose, physics) are
tokenized into query tokens for 16-head cross-attention against the patch
embeddings; attended features are concatenated with the task features and fed
through the shared MLP into the actor (20 action values) and critic (1 value)
heads. Commanded gains go through softplus so they are strictly positive.
There is no training here, only evaluation and attention extraction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import forward as F
from .errors import NonFiniteInput, NonPositiveGains, ShapeMismatch
from .geom import Pose, rot_to_6d

# physics normalization spans: mass and friction follow the domain
# randomization ranges; restitution has no published range, so its natural
# [0, 1] span is used.
MASS_RANGE = (0.1, 0.5)
FRICTION_RANGE = (0.7, 1.0)
RESTITUTION_RANGE = (0.0, 1.0)

ACTION_DIM = 20  # 3 translation + 3 rotation + 7 kp + 7 damping


softplus = F.softplus


@dataclass(frozen=True)
class ActionCommand:
    delta_translation: np.ndarray  # (3,) m
    delta_rotation: np.ndarray     # (3,) axis-angle, rad
    kp: np.ndarray                 # (7,) > 0
    damping: np.ndarray            # (7,) > 0

    def __post_init__(self):
        for name, n in (("delta_translation", 3), ("delta_rotation", 3), ("kp", 7), ("damping", 7)):
            v = np.asarray(getattr(self, name), dtype=np.float64).reshape(n)
            if not np.all(np.isfinite(v)):
                raise NonFiniteInput(f"{name} is not finite")
            object.__setattr__(self, name, v)
        if np.any(self.kp <= 0) or np.any(self.damping <= 0):
            raise NonPositiveGains("kp and damping must be strictly positive")

    @classmethod
    def zeros(cls) -> "ActionCommand":
        return cls(np.zeros(3), np.zeros(3), np.ones(7), np.ones(7))

    def vector(self) -> np.ndarray:
        return np.concatenate([self.delta_translation, self.delta_rotation, self.kp, self.damping])


def action_command(raw: np.ndarray) -> ActionCommand:
    """Map the raw 20-vector actor output, before softplus, to a valid command
    (softplus gains). `PolicyOutput.action` already has softplus applied: use
    `PolicyOutput.command()` for it."""
    raw = np.asarray(raw, dtype=np.float64).reshape(ACTION_DIM)
    return ActionCommand(raw[0:3], raw[3:6], softplus(raw[6:13]), softplus(raw[13:20]))


@dataclass(frozen=True)
class TaskInputs:
    joint_position: np.ndarray   # (7,) rad
    joint_velocity: np.ndarray   # (7,) rad/s
    previous_action: ActionCommand
    relative_goal_pose: Pose
    mass: float
    friction: float
    restitution: float

    def vector(self) -> np.ndarray:
        def span(x, rng):
            return (x - rng[0]) / (rng[1] - rng[0])

        v = np.concatenate([
            np.asarray(self.joint_position, dtype=np.float64).reshape(7),
            np.asarray(self.joint_velocity, dtype=np.float64).reshape(7),
            self.previous_action.vector(),
            self.relative_goal_pose.translation,
            rot_to_6d(self.relative_goal_pose.rotation),
            [span(self.mass, MASS_RANGE),
             span(self.friction, FRICTION_RANGE),
             span(self.restitution, RESTITUTION_RANGE)],
        ])
        if not np.all(np.isfinite(v)):
            raise NonFiniteInput("non-finite task inputs")
        return v


TASK_DIM = 7 + 7 + ACTION_DIM + 9 + 3


@dataclass(frozen=True)
class PolicyConfig:
    d_model: int = 128
    n_heads: int = 16
    n_queries: int = 4
    shared_dims: tuple = (512, 256, 128)
    n_patches: int = 16

    def __post_init__(self):
        if self.d_model % self.n_heads != 0:
            raise ShapeMismatch("d_model must be divisible by n_heads")


def init_policy_params(cfg: PolicyConfig = PolicyConfig(), seed: int = 0) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(seed)
    d = cfg.d_model

    def w(*shape):
        return rng.normal(0.0, 0.02, size=shape)

    params = {
        "query.w1": w(TASK_DIM, d), "query.b1": np.zeros(d),
        "query.w2": w(d, cfg.n_queries * d), "query.b2": np.zeros(cfg.n_queries * d),
        "attn.wq": w(d, d), "attn.bq": np.zeros(d),
        "attn.wk": w(d, d), "attn.bk": np.zeros(d),
        "attn.wv": w(d, d), "attn.bv": np.zeros(d),
        "attn.wo": w(d, d), "attn.bo": np.zeros(d),
    }
    in_dim = cfg.n_queries * d + TASK_DIM
    for i, out_dim in enumerate(cfg.shared_dims):
        params[f"shared.w{i}"] = w(in_dim, out_dim)
        params[f"shared.b{i}"] = np.zeros(out_dim)
        in_dim = out_dim
    params["actor.w"] = w(in_dim, ACTION_DIM)
    params["actor.b"] = np.zeros(ACTION_DIM)
    params["critic.w"] = w(in_dim, 1)
    params["critic.b"] = np.zeros(1)
    return params


@dataclass(frozen=True)
class PolicyOutput:
    action: np.ndarray     # (20,) with strictly positive gain entries
    value: float
    attention: np.ndarray  # (n_heads, n_queries, n_patches); rows sum to 1

    def command(self) -> ActionCommand:
        """The command of this output; softplus was applied once, in
        policy_forward, and is not applied again."""
        a = self.action
        return ActionCommand(a[0:3], a[3:6], a[6:13], a[13:20])


_softmax_rows = F.softmax


def policy_forward(params, patch_embeddings, task: TaskInputs,
                   cfg: PolicyConfig = PolicyConfig()) -> PolicyOutput:
    emb = np.asarray(patch_embeddings, dtype=np.float64)
    if emb.shape != (cfg.n_patches, cfg.d_model):
        raise ShapeMismatch(f"expected ({cfg.n_patches}, {cfg.d_model}) embeddings, got {emb.shape}")
    if not np.all(np.isfinite(emb)):
        raise NonFiniteInput("non-finite patch embeddings")
    feats = task.vector()

    queries = F.gelu(F.linear(feats, params["query.w1"], params["query.b1"]))
    queries = F.linear(queries, params["query.w2"], params["query.b2"]).reshape(cfg.n_queries, -1)

    q = F.linear(queries, params["attn.wq"], params["attn.bq"])
    k = F.linear(emb, params["attn.wk"], params["attn.bk"])
    v = F.linear(emb, params["attn.wv"], params["attn.bv"])
    attended, attention = F.attention(q, k, v, cfg.n_heads)  # attention (heads, queries, patches)
    attended = F.linear(attended, params["attn.wo"], params["attn.bo"])

    x = np.concatenate([attended.reshape(-1), feats])
    for i in range(len(cfg.shared_dims)):
        x = F.gelu(F.linear(x, params[f"shared.w{i}"], params[f"shared.b{i}"]))
    raw_action = F.linear(x, params["actor.w"], params["actor.b"])
    value = float(F.linear(x, params["critic.w"], params["critic.b"])[0])
    action = raw_action.copy()
    action[6:] = softplus(raw_action[6:])
    return PolicyOutput(action=action, value=value, attention=attention)


def attention_map(attention) -> np.ndarray:
    """Per-patch attention mass summed over heads and queries, min-max
    normalized to [0, 1]; a constant map degenerates to all 0.5."""
    a = np.asarray(attention, dtype=np.float64)
    total = a.sum(axis=(0, 1))
    lo, hi = total.min(), total.max()
    if hi - lo < 1e-12:
        return np.full_like(total, 0.5)
    return (total - lo) / (hi - lo)
