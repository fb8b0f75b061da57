import numpy as np
import pytest

from corn import control
from corn.control import (
    IkConfig,
    IkResult,
    SerialChain,
    chain_from_dict,
    chain_to_dict,
    dls_step,
    fk,
    franka_like_chain,
    ik,
    jacobian,
    load_chain,
    save_chain,
    torque,
)
from corn.errors import NonPositiveGains, ShapeMismatch, DegenerateInput
from corn.geom import Pose, Rotation, compose

Z = [0.0, 0.0, 1.0]


def planar_two_link():
    return SerialChain(
        origins=(Pose.identity(), Pose([1.0, 0, 0], Rotation.identity())),
        axes=np.array([Z, Z]),
        ee_offset=Pose([1.0, 0, 0], Rotation.identity()),
    )


def single_z_joint(ee=(0.5, 0.0, 0.0)):
    return SerialChain(origins=(Pose.identity(),), axes=np.array([Z]),
                       ee_offset=Pose(ee, Rotation.identity()))


# ----------------------------------------------------------------------- fk


def test_fk_zero_config_is_product_of_fixed_transforms():
    chain = franka_like_chain()
    expected = Pose.identity()
    for origin in chain.origins:
        expected = compose(expected, origin)
    expected = compose(expected, chain.ee_offset)
    got = fk(chain, np.zeros(7))
    assert np.allclose(got.translation, expected.translation, atol=1e-12)
    assert np.allclose(got.rotation.quat, expected.rotation.quat, atol=1e-12)


def test_fk_single_joint_rotation():
    chain = single_z_joint()
    got = fk(chain, [np.pi / 2])
    assert np.allclose(got.translation, [0, 0.5, 0], atol=1e-9)


def test_fk_planar_two_link():
    chain = planar_two_link()
    got = fk(chain, [np.pi / 2, 0.0])
    assert np.allclose(got.translation, [0.0, 2.0, 0.0], atol=1e-9)
    got = fk(chain, [np.pi / 2, np.pi / 2])
    assert np.allclose(got.translation, [-1.0, 1.0, 0.0], atol=1e-9)


# ----------------------------------------------------------------- jacobian


def finite_difference_jacobian(chain, q, h=1e-6):
    jac = np.zeros((6, chain.n_joints))
    for i in range(chain.n_joints):
        qp, qm = np.array(q, dtype=float), np.array(q, dtype=float)
        qp[i] += h
        qm[i] -= h
        fp, fm = fk(chain, qp), fk(chain, qm)
        jac[:3, i] = (fp.translation - fm.translation) / (2 * h)
        rel = fp.rotation.compose(fm.rotation.inverse())
        jac[3:, i] = rel.as_axis_angle() / (2 * h)
    return jac


def test_jacobian_matches_finite_differences():
    chain = franka_like_chain()
    rng = np.random.default_rng(0)
    for _ in range(10):
        q = rng.uniform(-1.5, 1.5, size=7)
        assert np.allclose(jacobian(chain, q), finite_difference_jacobian(chain, q), atol=1e-5)


def test_jacobian_zero_linear_when_axis_through_ee():
    chain = single_z_joint(ee=(0.0, 0.0, 0.5))  # EE on the joint axis
    jac = jacobian(chain, [0.3])
    assert np.allclose(jac[:3, 0], 0.0, atol=1e-12)
    assert np.allclose(jac[3:, 0], Z, atol=1e-12)


def test_jacobian_planar_analytic():
    chain = planar_two_link()
    jac = jacobian(chain, [0.0, 0.0])
    want = np.zeros((6, 2))
    want[:3, 0] = np.cross(Z, [2.0, 0, 0])
    want[:3, 1] = np.cross(Z, [1.0, 0, 0])
    want[3:, 0] = want[3:, 1] = Z
    assert np.allclose(jac, want, atol=1e-12)


# ---------------------------------------------------------------------- dls


def test_dls_zero_error_zero_step():
    rng = np.random.default_rng(1)
    jac = rng.normal(size=(6, 7))
    assert np.array_equal(dls_step(jac, np.zeros(6), 0.05), np.zeros(7))


def test_dls_tiny_damping_matches_pseudoinverse():
    rng = np.random.default_rng(2)
    jac = rng.normal(size=(6, 7))
    e = rng.normal(size=6)
    got = dls_step(jac, e, 1e-9)
    want = np.linalg.pinv(jac) @ e
    assert np.allclose(got, want, atol=1e-6)


def test_dls_damping_monotonically_shrinks_step():
    rng = np.random.default_rng(3)
    for _ in range(20):
        jac = rng.normal(size=(6, 7))
        e = rng.normal(size=6)
        lambdas = [1e-3, 1e-2, 1e-1, 1.0, 10.0, 1e3]
        norms = [np.linalg.norm(dls_step(jac, e, lam)) for lam in lambdas]
        assert all(a >= b - 1e-12 for a, b in zip(norms, norms[1:]))
    big = np.linalg.norm(dls_step(jac, e, 1e6))
    assert big < 1e-6


def test_dls_rejects_bad_damping():
    with pytest.raises(DegenerateInput):
        dls_step(np.eye(6, 7), np.zeros(6), 0.0)


# ----------------------------------------------------------------------- ik


def test_ik_identity_residual_returns_same_q():
    chain = franka_like_chain()
    q = np.full(7, 0.4)
    res = ik(chain, q, Pose.identity())
    assert np.array_equal(res.q, q)
    assert res.converged and res.iterations == 0


READY = np.array([0.0, -np.pi / 4, 0.0, -2.356, 0.0, 1.571, np.pi / 4])


def test_ik_small_residual_converges():
    # generic (well-conditioned) configurations around the ready pose; fully
    # random joint vectors frequently sit at wrist singularities where damped
    # least squares deliberately trades accuracy for stability
    chain = franka_like_chain()
    rng = np.random.default_rng(4)
    for _ in range(10):
        q = READY + rng.uniform(-0.3, 0.3, size=7)
        residual = Pose(rng.normal(size=3) * 0.01 / 3,
                        Rotation.from_axis_angle(rng.normal(size=3) * 0.02))
        res = ik(chain, q, residual)
        assert res.converged
        assert res.iterations <= 32
        assert res.pos_error < 1e-4


def test_ik_converges_on_one_cm_translation():
    chain = franka_like_chain()
    res = ik(chain, READY, Pose([0.01, 0, 0], Rotation.identity()))
    assert res.converged and res.pos_error < 1e-4


def test_ik_never_worsens_error():
    chain = franka_like_chain()
    q = np.full(7, 0.3)
    residual = Pose([0.05, -0.03, 0.04], Rotation.from_axis_angle([0.2, 0, 0.1]))
    start = fk(chain, q)
    target_t = start.translation + residual.translation
    res = ik(chain, q, residual)
    end = fk(chain, res.q)
    assert np.linalg.norm(end.translation - target_t) <= np.linalg.norm(residual.translation) + 1e-12


def test_ik_unreachable_flags_no_progress():
    chain = franka_like_chain()
    res = ik(chain, np.full(7, 0.2), Pose([10.0, 0, 0], Rotation.identity()))
    assert res.no_progress and not res.converged
    assert np.all(np.isfinite(res.q))


def reference_ik(chain, q, target_residual, cfg=IkConfig()):
    """The loop as first written, with fk of the same q up to three times."""
    q = np.asarray(q, dtype=np.float64).reshape(chain.n_joints).copy()
    start = fk(chain, q)
    target = Pose(start.translation + target_residual.translation,
                  target_residual.rotation.compose(start.rotation))
    weight = cfg.pos_tolerance / cfg.rot_tolerance

    def error_of(qv):
        e_t, e_r = control._twist_error(target, fk(chain, qv))
        return float(np.linalg.norm(e_t)), float(np.linalg.norm(e_r))

    pos_err, rot_err = error_of(q)
    combined = pos_err + weight * rot_err
    iterations = 0
    no_progress = False
    for iterations in range(1, cfg.max_iters + 1):
        if pos_err <= cfg.pos_tolerance and rot_err <= cfg.rot_tolerance:
            iterations -= 1
            break
        e_t, e_r = control._twist_error(target, fk(chain, q))
        step = dls_step(jacobian(chain, q), np.concatenate([e_t, e_r]), cfg.damping)
        step = np.clip(step, -cfg.step_clamp, cfg.step_clamp)
        improved = False
        for _ in range(9):
            candidate = q + step
            p, r = error_of(candidate)
            if p + weight * r < combined:
                q, pos_err, rot_err, combined = candidate, p, r, p + weight * r
                improved = True
                break
            step = step * 0.5
        if not improved:
            no_progress = True
            break
    converged = pos_err <= cfg.pos_tolerance and rot_err <= cfg.rot_tolerance
    return IkResult(q=q, pos_error=pos_err, rot_error=rot_err,
                    iterations=iterations, converged=converged, no_progress=no_progress)


def test_ik_bit_identical_to_reference_loop():
    chain = franka_like_chain()
    rng = np.random.default_rng(12)
    for i in range(20):
        q = READY + rng.uniform(-0.3, 0.3, size=7)
        size = (0.003, 0.03, 0.3, 3.0)[i % 4]
        residual = Pose(rng.normal(size=3) * size / 3,
                        Rotation.from_axis_angle(rng.normal(size=3) * size))
        got, want = ik(chain, q, residual), reference_ik(chain, q, residual)
        assert np.array_equal(got.q, want.q)
        assert (got.pos_error, got.rot_error, got.iterations, got.converged, got.no_progress) == \
            (want.pos_error, want.rot_error, want.iterations, want.converged, want.no_progress)


def test_ik_one_iteration_evaluates_frames_twice(monkeypatch):
    calls = []
    frames = control._frames
    monkeypatch.setattr(control, "_frames", lambda chain, q: calls.append(1) or frames(chain, q))
    res = ik(franka_like_chain(), READY, Pose([0.0005, 0.0, 0.0], Rotation.identity()))
    assert res.converged and res.iterations == 1
    assert len(calls) == 2


# ------------------------------------------------------------------- torque


def test_torque_unit_gains_position_error():
    tau = torque(np.ones(7), np.ones(7), np.full(7, 0.3), np.full(7, 0.1), np.zeros(7))
    assert np.allclose(tau, 0.2, atol=1e-15)


def test_torque_damping_coefficient_value():
    # kp=4, rho=0.5 -> kd = 0.5 * sqrt(4) = 1 exactly
    tau = torque(np.full(7, 4.0), np.full(7, 0.5), np.zeros(7), np.zeros(7), np.ones(7))
    assert np.array_equal(tau, -np.ones(7))


def test_torque_pure_damping():
    v = np.linspace(-1, 1, 7)
    q = np.full(7, 0.2)
    tau = torque(np.full(7, 9.0), np.full(7, 2.0), q, q, v)
    assert np.allclose(tau, -2.0 * 3.0 * v, atol=1e-15)


def test_torque_linear_in_position_error():
    rng = np.random.default_rng(5)
    kp, rho = softplus_pos(rng, 7), softplus_pos(rng, 7)
    q = rng.normal(size=7)
    qdot = rng.normal(size=7)
    e1, e2 = rng.normal(size=7), rng.normal(size=7)
    t1 = torque(kp, rho, q + e1, q, qdot)
    t2 = torque(kp, rho, q + e2, q, qdot)
    t12 = torque(kp, rho, q + e1 + e2, q, qdot)
    base = torque(kp, rho, q, q, qdot)
    assert np.allclose(t12 - base, (t1 - base) + (t2 - base), atol=1e-12)


def softplus_pos(rng, n):
    return np.log1p(np.exp(rng.normal(size=n))) + 0.1


def test_torque_rejects_non_positive_gains():
    with pytest.raises(NonPositiveGains):
        torque(np.zeros(7), np.ones(7), np.zeros(7), np.zeros(7), np.zeros(7))
    with pytest.raises(ShapeMismatch):
        torque(np.ones(6), np.ones(7), np.zeros(7), np.zeros(7), np.zeros(7))


# -------------------------------------------------------------- chain format


def test_chain_json_round_trip(tmp_path):
    chain = franka_like_chain()
    path = tmp_path / "chain.json"
    save_chain(chain, path)
    back = load_chain(path)
    assert back.n_joints == 7
    q = np.random.default_rng(6).uniform(-1, 1, 7)
    a, b = fk(chain, q), fk(back, q)
    assert np.allclose(a.translation, b.translation, atol=1e-12)
    assert np.allclose(a.rotation.quat, b.rotation.quat, atol=1e-12)
    assert chain_to_dict(chain_from_dict(chain_to_dict(chain))) == chain_to_dict(chain)
