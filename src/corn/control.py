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

from .errors import DegenerateInput, NonPositiveGains, ShapeMismatch, SingularSolve
from .geom import Pose, Rotation


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
        # _frames reads the chain as arrays: per joint the origin rotation R,
        # its translation, the axis in the parent frame R a, and R K, R K^2
        # for the axis's skew matrix K, so that by Rodrigues' formula the
        # joint's local rotation R exp(q K) is R + sin q R K + (1 - cos q) R K^2
        rot = np.array([o.rotation.as_matrix() for o in self.origins]).reshape(-1, 3, 3)
        skew = np.zeros((len(axes), 3, 3))
        skew[:, [2, 0, 1], [1, 2, 0]] = axes
        skew[:, [1, 2, 0], [2, 0, 1]] = -axes
        object.__setattr__(self, "_arrays", (
            rot, np.array([o.translation for o in self.origins]).reshape(-1, 3),
            np.einsum("nij,nj->ni", rot, axes), rot @ skew, rot @ skew @ skew,
            self.ee_offset.rotation.as_matrix(), self.ee_offset.translation))

    @property
    def n_joints(self) -> int:
        return len(self.origins)


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
    rot0, trans, axes_parent, rot_k, rot_k2, ee_rot, ee_trans = chain._arrays
    local = rot0 + np.sin(q)[:, None, None] * rot_k + (1.0 - np.cos(q))[:, None, None] * rot_k2
    rot, pos = np.eye(3), np.zeros(3)
    positions = np.empty((chain.n_joints, 3))
    axes_world = np.empty((chain.n_joints, 3))
    for i in range(chain.n_joints):
        positions[i] = pos = rot @ trans[i] + pos
        axes_world[i] = rot @ axes_parent[i]
        rot = rot @ local[i]
    return positions, axes_world, Pose(rot @ ee_trans + pos, Rotation.from_matrix(rot @ ee_rot))


def fk(chain: SerialChain, q) -> Pose:
    """End-effector pose for joint angles q."""
    return _frames(chain, q)[2]


def jacobian(chain: SerialChain, q) -> np.ndarray:
    """World-frame geometric Jacobian, rows [linear; angular], shape (6, n)."""
    return _jacobian_of(*_frames(chain, q))


def _jacobian_of(positions, axes_world, ee: Pose) -> np.ndarray:
    return np.vstack([np.cross(axes_world, ee.translation - positions).T, axes_world.T])


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
