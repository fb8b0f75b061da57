"""Golden digests of the corn CLI on fixed seeds.

    python3 bench/golden.py

Runs `corn gen-data` (200 records), `corn train` (2 epochs) and `corn track`
(20 frames) as subprocesses with their output captured, and prints the
SHA-256 of the dataset, the checkpoint and the track CSV as one JSON line.
bench/README.md records the digests of the current code; a change that
alters one says why. The digests are a reference, not a gate.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def corn(args, env) -> bytes:
    """Run one CLI command; its stdout comes back here, never to ours."""
    done = subprocess.run([sys.executable, "-m", "corn.cli", *args], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, check=False)
    if done.returncode != 0:
        sys.stderr.write(done.stderr.decode(errors="replace"))
        raise SystemExit(f"corn {args[0]} exited with {done.returncode}")
    return done.stdout


def main() -> int:
    if not (ROOT / "src" / "corn" / "__init__.py").is_file():
        print(f"error: no corn sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    from corn import shapes
    from corn.geom import save_obj, sample_surface_points
    from corn.percept import write_pcseq

    work = BENCH / "work" / "golden"
    shutil.rmtree(work, ignore_errors=True)
    (work / "objects").mkdir(parents=True)
    for i, mesh in enumerate(shapes.primitive_set()):
        save_obj(mesh, work / "objects" / f"{i}.obj")
    save_obj(shapes.two_finger_gripper(), work / "gripper.obj")
    rng = np.random.default_rng(7)
    base = sample_surface_points(shapes.box((0.12, 0.08, 0.05)), 3000, rng).points
    write_pcseq([base + [0.004 * t, 0.001 * t, 0.0] + rng.normal(scale=0.001, size=base.shape)
                 for t in range(20)], work / "seq.pcseq")

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    data, ckpt, csv = work / "golden.corn", work / "golden.ckpt", work / "track.csv"
    corn(["gen-data", "--objects", str(work / "objects"), "--gripper", str(work / "gripper.obj"),
          "--out", str(data), "--count", "200", "--seed", "7", "--jobs", "1"], env)
    corn(["train", "--data", str(data), "--out", str(ckpt), "--epochs", "2", "--seed", "0"], env)
    csv.write_bytes(corn(["track", "--seq", str(work / "seq.pcseq"),
                          "--init-pose", "0 0 0 0 0 0 1", "--seed", "0"], env))
    print(json.dumps({name: hashlib.sha256(path.read_bytes()).hexdigest()
                      for name, path in (("dataset", data), ("checkpoint", ckpt),
                                         ("track_csv", csv))}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
