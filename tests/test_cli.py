import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from corn import shapes
from corn.cli import dispatch
from corn.geom import Pose, Rotation, save_obj, sample_surface_points
from corn.percept import write_pcseq


@pytest.fixture(scope="module")
def assets(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_assets")
    obj_dir = root / "objects"
    obj_dir.mkdir()
    save_obj(shapes.box((0.062, 0.062, 0.062)), obj_dir / "cube.obj")
    save_obj(shapes.icosphere(0.05, 1), obj_dir / "sphere.obj")
    gripper = root / "gripper.obj"
    save_obj(shapes.two_finger_gripper(), gripper)

    rng = np.random.default_rng(0)
    base = sample_surface_points(shapes.box((0.1, 0.08, 0.06)), 2500, rng)
    frames = []
    shift = np.zeros(3)
    for _ in range(4):
        frames.append((base.points + shift).astype(np.float32))
        shift = shift + [0.004, 0.0, 0.0]
    seq = root / "motion.pcseq"
    write_pcseq(frames, seq)

    traj = root / "traj.json"
    steps = []
    goal = Pose([0.2, 0.0, 0.02], Rotation.identity()).to_seven().tolist()
    for t in range(5):
        pose = Pose([0.05 * t, 0.0, 0.02], Rotation.identity())
        steps.append({
            "pose": pose.to_seven().tolist(),
            "goal": goal,
            "gripper_tip": [0.05 * t, 0.0, 0.1],
            "tau": [0.1] * 7,
            "qdot": [0.05] * 7,
        })
    traj.write_text(json.dumps({"half_extents": [0.05, 0.04, 0.03], "steps": steps}))
    return root


def run(capsys, *argv):
    code = dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def gen_small(capsys, assets, out, seed="3"):
    return run(
        capsys, "gen-data",
        "--objects", str(assets / "objects"),
        "--gripper", str(assets / "gripper.obj"),
        "--out", str(out),
        "--count", "12", "--sigma", "0.01", "--seed", seed,
        "--displacement-samples", "128",
    )


def test_gen_data_and_stats(capsys, assets, tmp_path):
    out = tmp_path / "d.corn"
    code, stdout, _ = gen_small(capsys, assets, out)
    assert code == 0
    payload = json.loads(stdout)
    assert payload["n_records"] == 12
    code, stdout, _ = run(capsys, "stats", "--data", str(out))
    assert code == 0
    stats = json.loads(stdout)
    assert set(stats) == {
        "n_records", "fraction_records_any_contact",
        "fraction_points_positive", "fraction_patches_positive",
    }


def test_gen_data_deterministic(capsys, assets, tmp_path):
    a, b = tmp_path / "a.corn", tmp_path / "b.corn"
    code_a, out_a, _ = gen_small(capsys, assets, a)
    code_b, out_b, _ = gen_small(capsys, assets, b)
    assert code_a == code_b == 0
    assert a.read_bytes() == b.read_bytes()
    assert out_a == out_b


def test_train_eval_attn_round_trip(capsys, assets, tmp_path):
    data = tmp_path / "train.corn"
    assert gen_small(capsys, assets, data, seed="7")[0] == 0

    ckpt1, ckpt2 = tmp_path / "m1.ckpt", tmp_path / "m2.ckpt"
    code, out1, _ = run(capsys, "train", "--data", str(data), "--out", str(ckpt1),
                        "--epochs", "2", "--seed", "1")
    assert code == 0
    report = json.loads(out1)
    assert len(report["train_losses"]) == 2
    code, out2, _ = run(capsys, "train", "--data", str(data), "--out", str(ckpt2),
                        "--epochs", "2", "--seed", "1")
    assert code == 0
    assert ckpt1.read_bytes() == ckpt2.read_bytes()
    assert out1 == out2

    code, out, _ = run(capsys, "eval", "--data", str(data), "--ckpt", str(ckpt1))
    assert code == 0
    metrics = json.loads(out)
    assert set(metrics) == {"accuracy", "precision", "recall"}
    assert 0.0 <= metrics["accuracy"] <= 1.0

    code, out, _ = run(capsys, "attn", "--ckpt", str(ckpt1),
                       "--cloud", str(assets / "objects" / "cube.obj"),
                       "--pose", "0.05 0 0.08 0 0 0 1")
    assert code == 0
    attn = json.loads(out)
    assert len(attn["attention"]) == 16
    assert len(attn["centers"]) == 16
    assert all(0.0 <= a <= 1.0 for a in attn["attention"])


def test_track_csv_and_determinism(capsys, assets):
    argv = ("track", "--seq", str(assets / "motion.pcseq"),
            "--init-pose", "0 0 0 0 0 0 1", "--seed", "5")
    code, out1, _ = run(capsys, *argv)
    assert code == 0
    lines = out1.strip().splitlines()
    assert lines[0] == "frame,tx,ty,tz,qx,qy,qz,qw,fitness,lost"
    assert len(lines) == 5
    final = lines[-1].split(",")
    assert abs(float(final[1]) - 0.012) < 2e-3  # tracked 3 x 4 mm steps
    code, out2, _ = run(capsys, *argv)
    assert out1 == out2


def test_stable_poses_json(capsys, assets):
    code, out, _ = run(capsys, "stable-poses", "--mesh", str(assets / "objects" / "cube.obj"))
    assert code == 0
    entries = json.loads(out)
    assert len(entries) == 6
    for e in entries:
        assert set(e) == {"quaternion", "rest_height", "margin"}
        assert abs(e["rest_height"] - 0.031) < 1e-9


def test_reward_trace_csv(capsys, assets):
    code, out, _ = run(capsys, "reward-trace", "--traj", str(assets / "traj.json"))
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "step,success,r_success,r_reach,r_contact,energy,total"
    assert len(lines) == 5
    row = lines[1].split(",")
    # moving toward the goal: positive reach shaping, fixed energy cost
    assert float(row[3]) > 0
    assert abs(float(row[5]) - 1e-4 * 7 * 0.1 * 0.05) < 1e-12


def test_usage_errors(capsys, assets, tmp_path):
    with pytest.raises(SystemExit) as exc:
        dispatch(["no-such-command"])
    assert exc.value.code == 2
    capsys.readouterr()

    code, _, err = run(capsys, "gen-data", "--objects", str(assets / "objects"))
    assert code == 2
    assert "missing required" in err

    bad_cfg = tmp_path / "bad.json"
    bad_cfg.write_text(json.dumps({"gen-data.bogus": 1}))
    code, _, err = run(capsys, "stats", "--data", "x.corn", "--config", str(bad_cfg))
    assert code == 2
    assert "unknown config key" in err


def test_config_file_supplies_defaults(capsys, assets, tmp_path):
    out = tmp_path / "cfg.corn"
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "gen-data.objects": str(assets / "objects"),
        "gen-data.gripper": str(assets / "gripper.obj"),
        "gen-data.count": 3,
        "gen-data.displacement-samples": 64,
        "track.seed": 9,
    }))
    code, stdout, _ = run(capsys, "gen-data", "--config", str(cfg), "--out", str(out))
    assert code == 0
    assert json.loads(stdout)["n_records"] == 3


def test_domain_error_exit_code(capsys):
    code, _, err = run(capsys, "stats", "--data", "/nonexistent/file.corn")
    assert code == 1
    assert err


@pytest.mark.parametrize("name, dims", [(b"tok.w1", (2**32 - 1,) * 4), (b"\xff", (1,))])
def test_attn_on_malformed_checkpoint_exits_one(assets, tmp_path, name, dims):
    ckpt = tmp_path / "bad.ckpt"
    ckpt.write_bytes(struct.pack("<4sIH", b"CKPT", 1, len(name)) + name
                     + struct.pack(f"<B{len(dims)}I", len(dims), *dims) + bytes(64))
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-m", "corn.cli", "attn", "--ckpt", str(ckpt),
                           "--cloud", str(assets / "objects" / "cube.obj"),
                           "--pose", "0 0 0.1 0 0 0 1"], capture_output=True, text=True, env=env)
    assert done.returncode == 1
    assert done.stderr.startswith("error: ") and "Traceback" not in done.stderr
    assert done.stdout == ""


def test_version_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        dispatch(["--version"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "corn 0.1.0" in out and "dataset format 1" in out
