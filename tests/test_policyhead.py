import numpy as np
import pytest

from corn.control import torque
from corn.errors import NonPositiveGains, ShapeMismatch
from corn.geom import Pose, Rotation
from corn.policyhead import (
    ActionCommand,
    PolicyConfig,
    TaskInputs,
    _softmax_rows,
    action_command,
    attention_map,
    init_policy_params,
    policy_forward,
    softplus,
)

CFG = PolicyConfig()


def make_task(rng):
    return TaskInputs(
        joint_position=rng.normal(size=7) * 0.5,
        joint_velocity=rng.normal(size=7) * 0.1,
        previous_action=ActionCommand(rng.normal(size=3) * 0.01, rng.normal(size=3) * 0.1,
                                      softplus(rng.normal(size=7)) + 1e-6,
                                      softplus(rng.normal(size=7)) + 1e-6),
        relative_goal_pose=Pose(rng.normal(size=3) * 0.1,
                                Rotation.from_axis_angle(rng.normal(size=3) * 0.2)),
        mass=0.3,
        friction=0.85,
        restitution=0.4,
    )


def test_output_dimensions():
    rng = np.random.default_rng(0)
    params = init_policy_params(CFG, seed=0)
    out = policy_forward(params, rng.normal(size=(16, 128)), make_task(rng), CFG)
    assert out.action.shape == (20,)
    assert isinstance(out.value, float)
    assert out.attention.shape == (16, 4, 16)


def test_attention_rows_are_distributions():
    rng = np.random.default_rng(1)
    params = init_policy_params(CFG, seed=0)
    out = policy_forward(params, rng.normal(size=(16, 128)), make_task(rng), CFG)
    sums = out.attention.sum(axis=-1)
    assert np.allclose(sums, 1.0, atol=1e-9)
    assert np.all(out.attention >= 0)


def test_duplicate_patch_gets_equal_attention():
    rng = np.random.default_rng(2)
    params = init_policy_params(CFG, seed=0)
    emb = rng.normal(size=(16, 128))
    emb[9] = emb[3]
    out = policy_forward(params, emb, make_task(rng), CFG)
    assert np.allclose(out.attention[:, :, 3], out.attention[:, :, 9], atol=1e-12)


def test_gain_outputs_strictly_positive():
    rng = np.random.default_rng(3)
    params = init_policy_params(CFG, seed=0)
    for _ in range(5):
        out = policy_forward(params, rng.normal(size=(16, 128)) * 3, make_task(rng), CFG)
        assert np.all(out.action[6:] > 0)
        cmd = ActionCommand(out.action[0:3], out.action[3:6], out.action[6:13], out.action[13:20])
        assert np.all(cmd.kp > 0)


def test_forward_deterministic():
    rng = np.random.default_rng(4)
    params = init_policy_params(CFG, seed=0)
    emb = rng.normal(size=(16, 128))
    task = make_task(rng)
    a = policy_forward(params, emb, task, CFG)
    b = policy_forward(params, emb, task, CFG)
    assert np.array_equal(a.action, b.action)
    assert a.value == b.value
    assert np.array_equal(a.attention, b.attention)


def test_softmax_shift_invariance():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(16, 4, 16)) * 5
    assert np.allclose(_softmax_rows(x), _softmax_rows(x + 123.456), atol=1e-9)


def test_embedding_shape_checked():
    params = init_policy_params(CFG, seed=0)
    with pytest.raises(ShapeMismatch):
        policy_forward(params, np.zeros((4, 128)), make_task(np.random.default_rng(6)), CFG)


# -------------------------------------------------------------- action space


def test_action_command_softplus_mapping():
    rng = np.random.default_rng(7)
    raw = rng.normal(size=20) * 5
    cmd = action_command(raw)
    assert np.array_equal(cmd.delta_translation, raw[0:3])
    assert np.array_equal(cmd.delta_rotation, raw[3:6])
    assert np.all(cmd.kp > 0) and np.all(cmd.damping > 0)
    assert np.allclose(cmd.kp, softplus(raw[6:13]))


def test_command_applies_softplus_once():
    rng = np.random.default_rng(9)
    out = policy_forward(init_policy_params(CFG, seed=0), rng.normal(size=(16, 128)) * 3,
                         make_task(rng), CFG)
    cmd = out.command()
    assert np.array_equal(cmd.kp, out.action[6:13])
    assert np.array_equal(cmd.damping, out.action[13:20])
    q, qdot, q_target = rng.normal(size=7), rng.normal(size=7), rng.normal(size=7)
    tau = torque(cmd.kp, cmd.damping, q_target, q, qdot)
    kp = out.action[6:13]
    assert np.array_equal(tau, kp * (q_target - q) - out.action[13:20] * np.sqrt(kp) * qdot)


def test_action_command_rejects_zero_gains():
    with pytest.raises(NonPositiveGains):
        ActionCommand(np.zeros(3), np.zeros(3), np.zeros(7), np.ones(7))


def test_softplus_behaviour():
    assert abs(softplus(0.0) - np.log(2)) < 1e-15
    assert softplus(50.0) == 50.0  # saturates to identity
    assert softplus(-50.0) > 0


# ------------------------------------------------------------- attention map


def test_attention_map_one_hot():
    attn = np.zeros((16, 4, 16))
    attn[:, :, 5] = 1.0
    out = attention_map(attn)
    assert out[5] == 1.0
    assert np.all(np.delete(out, 5) == 0.0)


def test_attention_map_uniform_degenerates_to_half():
    attn = np.full((16, 4, 16), 1.0 / 16)
    assert np.array_equal(attention_map(attn), np.full(16, 0.5))


def test_attention_map_matches_brute_force():
    rng = np.random.default_rng(8)
    attn = rng.random((16, 4, 16))
    out = attention_map(attn)
    total = np.array([attn[:, :, p].sum() for p in range(16)])
    want = (total - total.min()) / (total.max() - total.min())
    assert np.allclose(out, want, atol=1e-12)
    assert out.min() == 0.0 and out.max() == 1.0
