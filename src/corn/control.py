"""7-DoF serial-chain kinematics and the action-to-torque pipeline.

A chain is pure data: per joint a fixed parent transform and a unit rotation
axis, plus an end-effector offset. Inverse kinematics iterates damped
least-squares steps on the 6D twist error (translation difference and the
axis-angle of the relative rotation, both in the world frame); joint torques
follow the variable impedance law tau = kp * (q_target - q) - kd * qdot with
kd = rho * sqrt(kp).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateInput,
    NonFiniteInput,
    NonPositiveGains,
    ShapeMismatch,
    SingularSolve,
)
from .geom import Pose, Rotation, compose


@dataclass(frozen=True)
class SerialChain:
    origins: tuple          # per-joint fixed parent transform (Pose)
    axes: np.ndarray        # (n, 3) unit rotation axes in the joint frame
    ee_offset: Pose

    def __post_init__(self):
        axes = np.asarray(self.axes, dtype=np.float64).reshape(-1, 3)
        if len(self.origins) != len(axes):
            raise ShapeMismatch("origins and axes length differ")
        norms = np.linalg.norm(axes, axis=1)
        if np.any(np.abs(norms - 1.0) > 1e-9):
            raise DegenerateInput("joint axes must be unit length")
        object.__setattr__(self, "origins", tuple(self.origins))
        object.__setattr__(self, "axes", axes)

    @property
    def n_joints(self) -> int:
        return len(self.origins)


@dataclass(frozen=True)
class JointState:
    q: np.ndarray
    qdot: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.q, dtype=np.float64).reshape(-1)
        qd = np.asarray(self.qdot, dtype=np.float64).reshape(-1)
        if not (np.all(np.isfinite(q)) and np.all(np.isfinite(qd))):
            raise NonFiniteInput("joint state is not finite")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "qdot", qd)


@dataclass(frozen=True)
class IkConfig:
    damping: float = 0.05
    max_iters: int = 32
    pos_tolerance: float = 1e-4   # m
    rot_tolerance: float = 1e-3   # rad
    step_clamp: float = 0.2      # rad per joint per iteration

    def __post_init__(self):
        if self.damping <= 0:
            raise DegenerateInput("damping must be > 0")


def _frames(chain: SerialChain, q):
    """World pose before each joint rotation, per-joint world axis, EE pose."""
    q = np.asarray(q, dtype=np.float64).reshape(chain.n_joints)
    current = Pose.identity()
    positions = np.empty((chain.n_joints, 3))
    axes_world = np.empty((chain.n_joints, 3))
    for i in range(chain.n_joints):
        current = compose(current, chain.origins[i])
        positions[i] = current.translation
        axes_world[i] = current.rotation.apply(chain.axes[i])
        current = compose(current, Pose(np.zeros(3), Rotation.from_axis_angle(chain.axes[i] * q[i])))
    return positions, axes_world, compose(current, chain.ee_offset)


def fk(chain: SerialChain, q) -> Pose:
    """End-effector pose for joint angles q."""
    return _frames(chain, q)[2]


def jacobian(chain: SerialChain, q) -> np.ndarray:
    """World-frame geometric Jacobian, rows [linear; angular], shape (6, n)."""
    return _jacobian_of(*_frames(chain, q))


def _jacobian_of(positions, axes_world, ee: Pose) -> np.ndarray:
    jac = np.empty((6, len(positions)))
    for i in range(len(positions)):
        jac[:3, i] = np.cross(axes_world[i], ee.translation - positions[i])
        jac[3:, i] = axes_world[i]
    return jac


def dls_step(jac: np.ndarray, twist_error, damping: float) -> np.ndarray:
    """Damped least-squares step J^T (J J^T + damping^2 I)^-1 e."""
    if damping <= 0:
        raise DegenerateInput("damping must be > 0")
    jac = np.asarray(jac, dtype=np.float64)
    e = np.asarray(twist_error, dtype=np.float64).reshape(6)
    system = jac @ jac.T + (damping * damping) * np.eye(6)
    try:
        y = np.linalg.solve(system, e)
    except np.linalg.LinAlgError as exc:
        raise SingularSolve("damped normal equations are singular") from exc
    if not np.all(np.isfinite(y)):
        raise SingularSolve("damped solve produced non-finite values")
    return jac.T @ y


def _twist_error(target: Pose, current: Pose):
    e_t = target.translation - current.translation
    e_r = target.rotation.compose(current.rotation.inverse()).as_axis_angle()
    return e_t, e_r


@dataclass
class IkResult:
    q: np.ndarray
    pos_error: float
    rot_error: float
    iterations: int
    converged: bool
    no_progress: bool


def ik(chain: SerialChain, q, target_residual: Pose, cfg: IkConfig = IkConfig()) -> IkResult:
    """Iterate DLS steps toward current-pose * residual; never worsens the error.

    The residual is applied in the world frame: the target position is the
    current position plus the residual translation, the target orientation is
    the residual rotation composed onto the current orientation. If a step
    (after up to 8 halvings) cannot reduce the error, the best result so far
    is returned with no_progress set.
    """
    q = np.asarray(q, dtype=np.float64).reshape(chain.n_joints).copy()
    frames = _frames(chain, q)  # of the accepted q, kept from the line search
    start = frames[2]
    target = Pose(start.translation + target_residual.translation,
                  target_residual.rotation.compose(start.rotation))
    weight = cfg.pos_tolerance / cfg.rot_tolerance

    def error_of(pose):
        e_t, e_r = _twist_error(target, pose)
        return float(np.linalg.norm(e_t)), float(np.linalg.norm(e_r))

    pos_err, rot_err = error_of(start)
    combined = pos_err + weight * rot_err
    iterations = 0
    no_progress = False
    for iterations in range(1, cfg.max_iters + 1):
        if pos_err <= cfg.pos_tolerance and rot_err <= cfg.rot_tolerance:
            iterations -= 1
            break
        e_t, e_r = _twist_error(target, frames[2])
        step = dls_step(_jacobian_of(*frames), np.concatenate([e_t, e_r]), cfg.damping)
        step = np.clip(step, -cfg.step_clamp, cfg.step_clamp)
        for _ in range(9):
            candidate = q + step
            candidate_frames = _frames(chain, candidate)
            p, r = error_of(candidate_frames[2])
            if p + weight * r < combined:
                q, frames = candidate, candidate_frames
                pos_err, rot_err, combined = p, r, p + weight * r
                break
            step = step * 0.5
        else:
            no_progress = True
            break
    converged = pos_err <= cfg.pos_tolerance and rot_err <= cfg.rot_tolerance
    return IkResult(q=q, pos_error=pos_err, rot_error=rot_err,
                    iterations=iterations, converged=converged, no_progress=no_progress)


def torque(kp, rho, q_target, q, qdot) -> np.ndarray:
    """Variable impedance law: kp * (q_target - q) - rho * sqrt(kp) * qdot."""
    kp = np.asarray(kp, dtype=np.float64).reshape(-1)
    rho = np.asarray(rho, dtype=np.float64).reshape(-1)
    q_target = np.asarray(q_target, dtype=np.float64).reshape(-1)
    q = np.asarray(q, dtype=np.float64).reshape(-1)
    qdot = np.asarray(qdot, dtype=np.float64).reshape(-1)
    if not (kp.shape == rho.shape == q_target.shape == q.shape == qdot.shape):
        raise ShapeMismatch("gain and state vectors must share one length")
    if np.any(kp <= 0) or np.any(rho <= 0):
        raise NonPositiveGains("kp and rho must be strictly positive")
    kd = rho * np.sqrt(kp)
    return kp * (q_target - q) - kd * qdot


# ---------------------------------------------------------------- chain data


def chain_from_dict(data: dict) -> SerialChain:
    origins = [Pose.from_seven(j["origin"]) for j in data["joints"]]
    axes = np.array([j["axis"] for j in data["joints"]], dtype=np.float64)
    return SerialChain(origins=tuple(origins), axes=axes,
                       ee_offset=Pose.from_seven(data["ee_offset"]))


def chain_to_dict(chain: SerialChain) -> dict:
    return {
        "joints": [
            {"origin": o.to_seven().tolist(), "axis": a.tolist()}
            for o, a in zip(chain.origins, chain.axes)
        ],
        "ee_offset": chain.ee_offset.to_seven().tolist(),
    }


def load_chain(path) -> SerialChain:
    with open(path, "r", encoding="utf-8") as fh:
        return chain_from_dict(json.load(fh))


def save_chain(chain: SerialChain, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(chain_to_dict(chain), fh, indent=2)


def _rx(angle: float) -> Rotation:
    return Rotation.from_axis_angle([angle, 0.0, 0.0])


def franka_like_chain() -> SerialChain:
    """A 7-DoF arm with the joint layout of a familiar tabletop manipulator."""
    z = [0.0, 0.0, 1.0]
    origins = (
        Pose([0.0, 0.0, 0.333], Rotation.identity()),
        Pose([0.0, 0.0, 0.0], _rx(-np.pi / 2)),
        Pose([0.0, -0.316, 0.0], _rx(np.pi / 2)),
        Pose([0.0825, 0.0, 0.0], _rx(np.pi / 2)),
        Pose([-0.0825, 0.384, 0.0], _rx(-np.pi / 2)),
        Pose([0.0, 0.0, 0.0], _rx(np.pi / 2)),
        Pose([0.088, 0.0, 0.0], _rx(np.pi / 2)),
    )
    axes = np.array([z] * 7)
    return SerialChain(origins=origins, axes=axes,
                       ee_offset=Pose([0.0, 0.0, 0.107], Rotation.identity()))
