"""`corn` command-line entry point.

One subcommand per pipeline stage: gen-data, train, eval, track,
stable-poses, reward-trace, attn, stats. Machine-readable output (JSON/CSV)
goes to stdout, diagnostics to stderr. Exit codes: 0 success, 1 domain
error, 2 usage error. A JSON config file with flat dotted keys
("subcommand.option") supplies defaults; explicit flags override it, and
unknown keys are rejected.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import (
    CHECKPOINT_FORMAT_VERSION,
    DATASET_FORMAT_VERSION,
    PCSEQ_FORMAT_VERSION,
    __version__,
)
from . import contactgen, encoder, percept, policyhead, poses, reward
from .errors import ConfigError, CornError, MeshLoadError, TooFewPoints
from .geom import Pose, load_obj, rot_to_6d, sample_surface_points
from .patches import PatchConfig, farthest_point_sample, make_patches

# option tables: subcommand -> option -> (type, default, help); default None = required
_OPTIONS = {
    "gen-data": {
        "objects": (str, None, "directory of .obj meshes"),
        "gripper": (str, None, "gripper .obj mesh"),
        "out": (str, None, "output dataset file"),
        "count": (int, 1000, "number of records"),
        "sigma": (float, 0.01, "approach noise, meters"),
        "seed": (int, 0, "master seed"),
        "jobs": (int, 1, "worker processes"),
        "displacement-samples": (int, 1024, "surface samples for the approach direction"),
    },
    "train": {
        "data": (str, None, "dataset file"),
        "out": (str, None, "checkpoint file"),
        "epochs": (int, 10, "training epochs"),
        "lr": (float, 1e-3, "learning rate"),
        "batch": (int, 32, "minibatch size"),
        "seed": (int, 0, "init and shuffle seed"),
    },
    "eval": {
        "data": (str, None, "dataset file"),
        "ckpt": (str, None, "checkpoint file"),
    },
    "track": {
        "seq": (str, None, ".pcseq cloud sequence"),
        "init-pose": (str, None, "seven reals tx,ty,tz,qx,qy,qz,qw"),
        "mode": (str, "point_to_plane", "point_to_plane or point_to_point"),
        "corr-dist": (float, 0.01, "icp correspondence distance, m"),
        "fitness-threshold": (float, 0.6, "re-registration gate"),
        "n-track": (int, 2048, "tracking subsample size"),
        "seed": (int, 0, "subsample seed"),
    },
    "stable-poses": {
        "mesh": (str, None, ".obj mesh"),
        "margin": (float, 0.002, "minimum stability margin, m"),
    },
    "reward-trace": {
        "traj": (str, None, "JSON trajectory file"),
    },
    "attn": {
        "ckpt": (str, None, "checkpoint file"),
        "cloud": (str, None, ".obj mesh or ascii .pcd/.xyz cloud"),
        "pose": (str, None, "hand pose, seven reals"),
        "seed": (int, 0, "surface sampling seed for mesh input"),
    },
    "stats": {
        "data": (str, None, "dataset file"),
    },
}


# the JSON values a config file may give an option of each type (bool excluded)
_JSON_TYPES = {str: str, int: int, float: (int, float)}

# lower bounds of the options of these names, in every subcommand that has one
_MINIMUM = {"seed": 0, "count": 1, "jobs": 1}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="corn",
        description="contact-representation toolkit: dataset generation, "
                    "contact-prediction training, tracking, and controller math",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=(
            f"corn {__version__} (dataset format {DATASET_FORMAT_VERSION}, "
            f"checkpoint format {CHECKPOINT_FORMAT_VERSION}, "
            f"pcseq format {PCSEQ_FORMAT_VERSION})"
        ),
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, options in _OPTIONS.items():
        sp = subs.add_parser(name)
        sp.add_argument("--config", type=str, default=None, help="JSON config file")
        for opt, (typ, _default, help_text) in options.items():
            sp.add_argument(f"--{opt}", type=typ, default=None, help=help_text)
    return parser


def _merge_config(command: str, args: argparse.Namespace) -> dict:
    """defaults < config file < explicit flags; unknown config keys rejected."""
    merged = {opt: default for opt, (_t, default, _h) in _OPTIONS[command].items()}
    if args.config is not None:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read config file {args.config}: {exc}") from None
        if not isinstance(raw, dict):
            raise ConfigError("config file must hold a JSON object")
        for key, value in raw.items():
            sub, _, opt = key.partition(".")
            if sub not in _OPTIONS or opt not in _OPTIONS[sub]:
                raise ConfigError(f"unknown config key {key!r}")
            typ = _OPTIONS[sub][opt][0]
            if isinstance(value, bool) or not isinstance(value, _JSON_TYPES[typ]):
                raise ConfigError(f"config key {key!r} must be {typ.__name__}, got {value!r}")
            if sub == command:
                merged[opt] = typ(value)
    for opt in _OPTIONS[command]:
        flag_value = getattr(args, opt.replace("-", "_"))
        if flag_value is not None:
            merged[opt] = flag_value
    missing = [o for o, value in merged.items() if value is None]
    if missing:
        raise ConfigError(f"missing required option(s): {', '.join('--' + m for m in missing)}")
    for opt, low in _MINIMUM.items():
        if merged.get(opt, low) < low:
            raise ConfigError(f"--{opt} must be at least {low}, got {merged[opt]}")
    return merged


def _parse_seven(text: str) -> np.ndarray:
    try:
        vals = [float(x) for x in text.replace(",", " ").split()]
    except ValueError:
        vals = []
    if len(vals) != 7:
        raise ConfigError(f"pose needs exactly 7 reals tx ty tz qx qy qz qw, got {text!r}")
    return np.array(vals)


def _json_out(obj) -> None:
    print(json.dumps(obj, sort_keys=True))


def _print_stats(records) -> None:
    _json_out(asdict(contactgen.dataset_stats(records)))


# ------------------------------------------------------------- subcommands


def _cmd_gen_data(opt) -> int:
    cfg = contactgen.DataGenConfig(
        sigma=opt["sigma"], seed=opt["seed"],
        samples_for_displacement=opt["displacement-samples"],
    )
    obj_dir = Path(opt["objects"])
    paths = sorted(obj_dir.glob("*.obj"))
    if not paths:
        raise MeshLoadError(f"no .obj files in {obj_dir}")
    objects = [load_obj(p) for p in paths]
    gripper = load_obj(opt["gripper"])
    records = contactgen.generate_dataset(objects, gripper, cfg, opt["count"], jobs=opt["jobs"])
    contactgen.write_dataset(records, opt["out"])
    print(f"wrote {opt['count']} records to {opt['out']}", file=sys.stderr)
    _print_stats(records)
    return 0


def _cmd_train(opt) -> int:
    records = contactgen.read_dataset(opt["data"])
    ecfg = encoder.EncoderConfig()
    params = encoder.init_encoder_params(ecfg, seed=opt["seed"])
    tcfg = encoder.TrainConfig(epochs=opt["epochs"], lr=opt["lr"],
                               batch_size=opt["batch"], seed=opt["seed"])
    report = encoder.train(params, records, tcfg, ecfg)
    encoder.save_checkpoint(opt["out"], params)
    _json_out(asdict(report))
    return 0


def _cmd_eval(opt) -> int:
    records = contactgen.read_dataset(opt["data"])
    ecfg = encoder.EncoderConfig()
    params = encoder.params_from_arrays(encoder.load_checkpoint(opt["ckpt"]), ecfg)
    feats = encoder.record_features(records, ecfg.patch)
    _json_out(encoder.evaluate(params, feats, ecfg))
    return 0


def _cmd_track(opt) -> int:
    frames = percept.read_pcseq(opt["seq"])
    if not frames:
        raise ConfigError("sequence holds no frames")
    cfg = percept.SegmentationConfig(n_track=opt["n-track"])
    state = percept.init_tracker(
        frames[0], Pose.from_seven(_parse_seven(opt["init-pose"])), cfg,
        mode=opt["mode"], corr_dist=opt["corr-dist"],
        fitness_threshold=opt["fitness-threshold"], seed=opt["seed"],
    )
    print("frame,tx,ty,tz,qx,qy,qz,qw,fitness,lost")
    seven = state.pose.to_seven()
    print("0," + ",".join(repr(float(x)) for x in seven) + f",{state.last_fitness!r},0")
    for i, frame in enumerate(frames[1:], start=1):
        state = percept.track_step(state, frame)
        seven = state.pose.to_seven()
        print(
            f"{i},"
            + ",".join(repr(float(x)) for x in seven)
            + f",{float(state.last_fitness)!r},{int(state.lost)}"
        )
    return 0


def _cmd_stable_poses(opt) -> int:
    mesh = load_obj(opt["mesh"])
    found = poses.stable_orientations(mesh, margin_min=opt["margin"])
    _json_out([
        {
            "quaternion": p.orientation.quat.tolist(),
            "rest_height": p.rest_height,
            "margin": p.margin,
        }
        for p in found
    ])
    return 0


def _cmd_reward_trace(opt) -> int:
    params = reward.RewardParams()

    def state_of(step) -> reward.ObjectState:
        return reward.ObjectState(
            pose=Pose.from_seven(step["pose"]),
            goal=Pose.from_seven(step["goal"]),
            half_extents=half_extents,
            com=com,
            gripper_tip=np.asarray(step["gripper_tip"], dtype=np.float64),
            tau=np.asarray(step["tau"], dtype=np.float64),
            qdot=np.asarray(step["qdot"], dtype=np.float64),
        )

    with open(opt["traj"], "r", encoding="utf-8") as fh:
        try:
            traj = json.load(fh)
            half_extents = np.asarray(traj["half_extents"], dtype=np.float64)
            com = np.asarray(traj.get("com", [0.0, 0.0, 0.0]), dtype=np.float64)
            states = [state_of(s) for s in traj["steps"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad trajectory file {opt['traj']}: {exc!r}") from None
    print("step,success,r_success,r_reach,r_contact,energy,total")
    for t in range(1, len(states)):
        nxt = states[t]
        flag = reward.success(nxt, params)
        terms = reward.reward_terms(states[t - 1], nxt, flag, params)
        print(
            f"{t},{int(flag)},{terms['r_success']!r},{terms['r_reach']!r},"
            f"{terms['r_contact']!r},{terms['energy']!r},{terms['total']!r}"
        )
    return 0


def _load_cloud_512(path: str, seed: int) -> np.ndarray:
    path = Path(path)
    if path.suffix.lower() == ".obj":
        mesh = load_obj(path)
        return sample_surface_points(mesh, 512, np.random.default_rng(seed)).points
    pts = _read_ascii_cloud(path)
    if len(pts) < 512:
        raise TooFewPoints(f"cloud has {len(pts)} points; need at least 512")
    if len(pts) > 512:
        pts = pts[farthest_point_sample(pts, 512)]
    return pts


def _read_ascii_cloud(path: Path) -> np.ndarray:
    """Minimal ascii .pcd (x y z leading fields) or plain .xyz reader."""
    rows = []
    try:
        lines = path.read_text(encoding="utf-8").split("\n")
    except UnicodeDecodeError as exc:
        raise MeshLoadError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    in_header = path.suffix.lower() == ".pcd"
    for line in lines:
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if in_header:
            if stripped.upper().startswith("DATA"):
                if "ascii" not in stripped.lower():
                    raise MeshLoadError("only ascii pcd files are supported")
                in_header = False
            continue
        try:  # fewer than three fields also raises ValueError
            x, y, z = map(float, stripped.split()[:3])
        except ValueError:
            raise MeshLoadError(f"bad cloud row: {stripped!r}") from None
        rows.append([x, y, z])
    return np.asarray(rows, dtype=np.float64).reshape(-1, 3)


def _cmd_attn(opt) -> int:
    arrays = encoder.load_checkpoint(opt["ckpt"])
    ecfg = encoder.EncoderConfig()
    enc_params = encoder.params_from_arrays(
        {k: v for k, v in arrays.items() if not k.startswith("policy.")}, ecfg
    )
    policy_arrays = {k[len("policy."):]: v for k, v in arrays.items() if k.startswith("policy.")}
    pcfg = policyhead.PolicyConfig()
    policy_params = policyhead.init_policy_params(pcfg, seed=0)
    if policy_arrays:
        policy_params = encoder.checked_arrays(policy_arrays, policy_params)

    pts = _load_cloud_512(opt["cloud"], opt["seed"])
    centroid = pts.mean(axis=0)
    scale = encoder.FEATURE_SCALE
    ps = make_patches((pts - centroid) * scale, PatchConfig())
    pose = Pose.from_seven(_parse_seven(opt["pose"]))
    hand = encoder.HandState((pose.translation - centroid) * scale, rot_to_6d(pose.rotation))
    emb, _ = encoder.encode(enc_params, ps, hand, ecfg)
    task = policyhead.TaskInputs(
        joint_position=np.zeros(7), joint_velocity=np.zeros(7),
        previous_action=policyhead.ActionCommand.zeros(),
        relative_goal_pose=Pose.identity(),
        mass=0.3, friction=0.85, restitution=0.5,
    )
    out = policyhead.policy_forward(policy_params, emb, task, pcfg)
    _json_out({
        "attention": policyhead.attention_map(out.attention).tolist(),
        "centers": (ps.centers / scale + centroid).tolist(),
    })
    return 0


def _cmd_stats(opt) -> int:
    _print_stats(contactgen.read_dataset(opt["data"]))
    return 0


_HANDLERS = {
    "gen-data": _cmd_gen_data,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "track": _cmd_track,
    "stable-poses": _cmd_stable_poses,
    "reward-trace": _cmd_reward_trace,
    "attn": _cmd_attn,
    "stats": _cmd_stats,
}


def dispatch(argv) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        options = _merge_config(args.command, args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return _HANDLERS[args.command](options)
    except CornError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
