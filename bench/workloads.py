"""The four benchmark workloads.

Each workload builds its inputs from the seed in its constructor (the
set-up). `work` is a generator over whole rounds of the same operations: it
yields after each unit of work (a generate_dataset call, a tracked frame, an
environment step), True at the end of a round, so that run.py can interleave
stages; `units` is the number of yields per round. Every output is checked
against bench/oracles.py or against properties the method must have. corn
is called through the same library entry points its CLI handlers use.
"""

from __future__ import annotations

import itertools
import math
import sys
import time
import zlib
from contextlib import contextmanager
from pathlib import Path

import numpy as np

import oracles
from corn import contactgen, control, encoder, percept, policyhead, poses, reward, shapes
from corn import patches
from corn.geom import Aabb, PointCloud, Pose, Rotation, rot_to_6d, sample_surface_points


def sub_seed(seed: int, tag: str, index: int = 0) -> int:
    """A 32-bit seed per (run seed, input, round); equal arguments, equal inputs."""
    return int(np.random.SeedSequence([seed, zlib.crc32(tag.encode()), index]).generate_state(1)[0])


class Run:
    """What every workload shares: seed, scratch directory, the tracer (or
    None), the count of attempted operations, and the check verdicts."""

    def __init__(self, seed: int, workdir: Path, tracer):
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer
        self.attempted = 0
        self.check_s = 0.0
        self.failures: list[str] = []
        self.reference_s: list[float] = []
        self._reference_matrix = np.random.default_rng(0).random((64, 64))

    def check(self, ok, what: str) -> None:
        if not ok:
            self.failures.append(what)
            print(f"check failed: {what}", file=sys.stderr)

    @contextmanager
    def checking(self):
        """Context for the benchmark's own checks: never traced, and timed
        apart so that the tracing overhead leaves them out."""
        start = time.perf_counter()
        try:
            if self.tracer is None:
                yield
            else:
                with self.tracer.paused():
                    yield
        finally:
            self.check_s += time.perf_counter() - start

    def reference(self) -> None:
        """Time one reference unit: a fixed mix of interpreter work and small
        BLAS calls that never touches corn, so its time follows only how
        fast the host runs at this moment."""
        start = time.perf_counter()
        total = 0
        for k in range(20000):
            total += k * k
        m = self._reference_matrix
        for _ in range(20):
            m = np.tanh(m @ self._reference_matrix * 0.01)
        self.reference_s.append(time.perf_counter() - start)

    def host_scale(self, q: float = 10) -> float:
        """REFERENCE_S over the q-th percentile of this run's reference
        times: below 1 when the host ran slow."""
        if not self.reference_s:
            return 1.0
        return REFERENCE_S / float(np.percentile(self.reference_s, q))

    def quick(self, seconds) -> float:
        """A timing figure of one run, scaled to the reference host.

        On a shared host the same call runs up to 3x slower in busy phases
        about a second long, and whole runs 20-30 % slower. A call shorter
        than a phase lands in one, so its figure is the 10th percentile of
        its times against the 10th percentile of the reference; a longer
        call averages over phases, so it takes medians of both. See
        bench/README.md for the spreads this removes."""
        q = 50 if np.median(seconds) > PHASE_S else 10
        return float(np.percentile(seconds, q)) * self.host_scale(q)

    def timed(self, fn, *args, **kwargs):
        """Call one operation; return (result, seconds)."""
        self.attempted += 1
        start = time.perf_counter()
        out = fn(*args, **kwargs)
        return out, time.perf_counter() - start


# The reference unit's time on the host of bench/README.md.
REFERENCE_S = 1.5e-3
# Slow and fast phases of that host last about this long.
PHASE_S = 1.0


# ------------------------------------------------------------------ datagen


class Datagen:
    """Contact-label generation on the primitive set with the two-finger
    gripper (jobs=1), then a write and a read of the dataset file. Geom's
    containment and nearest-displacement kernels do the work."""

    CHUNK = 5               # one record per primitive per generate_dataset call
    IO_REPEATS = 5
    NEAR_SURFACE_M = 1e-7   # labels within this distance of the gripper may differ

    def __init__(self, run: Run, chunks_per_round: int):
        self.run = run
        self.chunks = chunks_per_round
        self.objects = shapes.primitive_set()
        self.gripper = shapes.two_finger_gripper()
        self.path = run.workdir / "datagen.corn"
        self.gen_s, self.io_s = [], []        # seconds per record, per MB
        self.near_surface = self.overlap = 0

    @property
    def units(self) -> int:
        return self.chunks + self.IO_REPEATS

    def work(self):
        run = self.run
        for index in itertools.count():
            records = []
            for chunk in range(self.chunks):
                cfg = contactgen.DataGenConfig(
                    sigma=0.01, seed=sub_seed(run.seed, "datagen", index * self.chunks + chunk))
                part, dt = run.timed(contactgen.generate_dataset, self.objects, self.gripper, cfg,
                                     self.CHUNK, jobs=1)
                records += part
                self.gen_s.append(dt / self.CHUNK)
                yield False
            for repeat in range(self.IO_REPEATS):
                _, t_write = run.timed(contactgen.write_dataset, records, self.path)
                back, t_read = run.timed(contactgen.read_dataset, self.path)
                self.io_s.append((t_write + t_read) / (self.path.stat().st_size / 1e6))
                if repeat < self.IO_REPEATS - 1:
                    yield False
            with run.checking():
                self.check(records, back, self.path.stat().st_size)
            yield True

    def check(self, records, back, size) -> None:
        run = self.run
        run.check(size == 16 + sum(42 + 13 * len(r.points) for r in records),
                  "dataset file size differs from the documented layout")
        run.check(len(back) == len(records) and all(_same_record(a, b) for a, b in zip(records, back)),
                  "read_dataset does not return the records written")
        tris = self.gripper.vertices[self.gripper.faces]
        for rec in records:
            pose = rec.pose7.astype(np.float64)
            posed = tris @ oracles.quat_matrix(pose[3:]).T + pose[:3]
            pts = rec.points.astype(np.float64)
            winding = oracles.winding_number(pts, posed)
            # Inside two overlapping gripper components (palm and a finger),
            # parity casting reports "outside"; see FOUND in CHANGES.md.
            overlap = winding > 1.5
            differ = np.flatnonzero(((winding > 0.5) != rec.labels) & ~overlap)
            near = oracles.point_triangle_distance(pts[differ], posed) <= self.NEAR_SURFACE_M
            self.near_surface += int(near.sum())
            self.overlap += int(overlap.sum())
            run.check(near.all(),
                      f"record seed {rec.seed}: stored labels differ from the winding-number test")

    def final_checks(self) -> None:
        """A small subset made with jobs=2 is byte-identical to jobs=1."""
        run = self.run
        cfg = contactgen.DataGenConfig(sigma=0.01, seed=sub_seed(run.seed, "datagen-jobs"))
        files = []
        for jobs in (1, 2):
            recs, _ = run.timed(contactgen.generate_dataset, self.objects, self.gripper, cfg, 8,
                                jobs=jobs)
            path = run.workdir / f"jobs{jobs}.corn"
            contactgen.write_dataset(recs, path)
            files.append(path.read_bytes())
        run.check(files[0] == files[1], "jobs=2 dataset bytes differ from jobs=1")
        print(f"datagen: {self.near_surface} labels differ from the winding number within "
              f"{self.NEAR_SURFACE_M} m of the gripper surface; {self.overlap} points inside both "
              "the palm and a finger were left out of the comparison", file=sys.stderr)

    def metrics(self) -> dict:
        return {"gen_records_per_s": 1.0 / self.run.quick(self.gen_s),
                "dataset_io_mb_per_s": 1.0 / self.run.quick(self.io_s)}


def _same_record(a, b) -> bool:
    return (a.object_id == b.object_id and a.seed == b.seed
            and a.pose7.tobytes() == b.pose7.tobytes()
            and a.points.tobytes() == b.points.tobytes()
            and np.array_equal(a.labels, b.labels))


# ----------------------------------------------------------------- pretrain


class Pretrain:
    """Read a generated dataset, extract features, train at B=32 for a few
    epochs and for a fixed number of B=16 steps, save and reload a
    checkpoint, evaluate. Autodiff and the encoder do the work; geom runs
    only in the set-up, which generates and writes the dataset."""

    EPOCHS = 3
    VAL_FRACTION = 0.2
    EVAL_REPEATS = 2

    def __init__(self, run: Run, n_records: int, b16_steps: int):
        self.run = run
        self.b16_steps = b16_steps
        self.path = run.workdir / "pretrain.corn"
        self.ckpt = run.workdir / "pretrain.ckpt"
        self.init_seed = sub_seed(run.seed, "pretrain-init")
        cfg = contactgen.DataGenConfig(sigma=0.01, seed=sub_seed(run.seed, "pretrain-data"))
        records = contactgen.generate_dataset(shapes.primitive_set(), shapes.two_finger_gripper(),
                                              cfg, n_records, jobs=1)
        contactgen.write_dataset(records, self.path)
        self.n = n_records
        # seconds per record, per training sample, per B=16 step, per record
        self.feature_s, self.train_s, self.b16_s, self.eval_s = [], [], [], []
        self.first_losses = None
        self.features = None

    units = 4

    def work(self):
        run = self.run
        while True:
            records, _ = run.timed(contactgen.read_dataset, self.path)
            feats, dt = run.timed(encoder.record_features, records)
            self.feature_s.append(dt / self.n)
            yield False
            params = encoder.init_encoder_params(seed=self.init_seed)
            tcfg = encoder.TrainConfig(epochs=self.EPOCHS, batch_size=32, seed=self.init_seed,
                                       val_fraction=self.VAL_FRACTION)
            report, dt = run.timed(encoder.train, params, records, tcfg, features=feats)
            self.train_s.append(dt / (report.n_train * self.EPOCHS))
            yield False
            b16 = encoder.init_encoder_params(seed=self.init_seed)
            subset = {k: v[:16 * self.b16_steps] for k, v in feats.items()}
            b16_cfg = encoder.TrainConfig(epochs=1, batch_size=16, seed=self.init_seed,
                                          val_fraction=0.0)
            _, dt = run.timed(encoder.train, b16, records, b16_cfg, features=subset)
            self.b16_s.append(dt / self.b16_steps)
            yield False
            run.timed(encoder.save_checkpoint, self.ckpt, params)
            loaded, _ = run.timed(
                lambda: encoder.params_from_arrays(encoder.load_checkpoint(self.ckpt)))
            for _ in range(self.EVAL_REPEATS):
                scores, dt = run.timed(encoder.evaluate, loaded, feats)
                self.eval_s.append(dt / self.n)
            with run.checking():
                run.check(report.train_losses[-1] < report.train_losses[0],
                          f"last epoch loss {report.train_losses[-1]} not below the first "
                          f"{report.train_losses[0]}")
                run.check(encoder.evaluate(params, feats) == scores,
                          "the reloaded checkpoint does not reproduce the evaluate metrics")
                if self.first_losses is None:
                    self.first_losses, self.features = report.train_losses, feats
                run.check(report.train_losses == self.first_losses,
                          "a repeated training round gave other losses")
            yield True

    def final_checks(self) -> None:
        """Initial BCE near ln 2; sampled gradients against central differences."""
        run = self.run
        cfg = encoder.EncoderConfig()
        params = encoder.init_encoder_params(cfg, seed=self.init_seed)
        f = self.features
        batch = {k: v[:32] for k, v in f.items()}
        (loss0, _), _ = run.timed(encoder.backward, params, batch, cfg)
        run.check(abs(loss0 - math.log(2.0)) < 0.01,
                  f"initial mean BCE {loss0} is not within 0.01 of ln 2")
        small = {k: v[:2] for k, v in f.items()}
        (_, grads), _ = run.timed(encoder.backward, params, small, cfg)

        def loss():
            return float(encoder.batch_loss_graph(params, cfg, small["patch_flat"], small["centers"],
                                                  small["hand"], small["labels"]).values)

        rng = np.random.default_rng(sub_seed(run.seed, "gradcheck"))
        h, worst = 1e-5, 0.0
        for name in sorted(params):
            flat = params[name].values.reshape(-1)
            for i in rng.choice(flat.size, size=min(2, flat.size), replace=False):
                old = flat[i]
                flat[i] = old + h
                up = loss()
                flat[i] = old - h
                down = loss()
                flat[i] = old
                fd, an = (up - down) / (2 * h), grads[name].reshape(-1)[i]
                worst = max(worst, abs(fd - an) / max(abs(fd), abs(an), 1e-6))
        run.check(worst < 1e-4, f"gradient relative error {worst} exceeds 1e-4")

    def metrics(self) -> dict:
        quick = self.run.quick
        return {"features_records_per_s": 1.0 / quick(self.feature_s),
                "train_samples_per_s": 1.0 / quick(self.train_s),
                "train_step_b16_ms": 1e3 * quick(self.b16_s),
                "eval_records_per_s": 1.0 / quick(self.eval_s)}


# --------------------------------------------------------------- perception


class Perception:
    """Segment a synthetic tabletop scene, track a box through a .pcseq
    sequence under a known rigid motion, and enumerate stable poses. Percept
    and poses do the work: KD-trees, DBSCAN loops and ICP."""

    OBJECT_EXTENTS = (0.10, 0.08, 0.06)
    TRACK_EXTENTS = (0.12, 0.08, 0.05)
    STABLE_BOX = (0.10, 0.07, 0.04)
    MIN_OBJECT_KEPT = 0.95     # of the object points outside the table band
    MAX_OTHER_KEPT = 0.001     # of every other scene point
    MAX_DRIFT_M = 5e-3
    SEGMENT_REPEATS = 3

    def __init__(self, run: Run, n_frames: int):
        self.run = run
        self.cfg = percept.SegmentationConfig()
        rng = np.random.default_rng(sub_seed(run.seed, "scene"))
        self.scene, self.is_object, self.hull = self._scene(rng)
        self.path = run.workdir / "track.pcseq"
        base = sample_surface_points(shapes.box(self.TRACK_EXTENTS), 3000, rng).points
        step = rng.uniform([0.002, -0.003, 0.0, 0.005], [0.005, 0.003, 0.0, 0.02])
        self.truth = [(step[:3] * t, oracles.axis_angle_matrix([0.0, 0.0, step[3] * t]))
                      for t in range(n_frames)]
        frames = [base @ r.T + t + rng.normal(scale=0.001, size=base.shape) for t, r in self.truth]
        percept.write_pcseq(frames, self.path)
        self.track_seed = sub_seed(run.seed, "track")
        self.icosphere = shapes.icosphere(0.05, 2)
        self.box = shapes.box(self.STABLE_BOX)
        self.segment_s, self.track_s, self.stable_s = [], [], []

    def _scene(self, rng):
        """Table plane, an object box resting on it, a robot-link box, scattered
        outliers and far points; returns the cloud, the object mask and the
        robot hull."""
        ex = np.array(self.OBJECT_EXTENTS)
        centre = np.r_[rng.uniform(-0.15, 0.1, 2), ex[2] / 2]
        obj = sample_surface_points(shapes.box(ex, centre), 6000, rng).points
        obj = obj + rng.normal(scale=0.0005, size=obj.shape)
        table = np.column_stack([rng.uniform(-0.45, 0.45, (12000, 2)),
                                 rng.normal(scale=0.002, size=12000)])
        link = shapes.box((0.06, 0.06, 0.2), center=(0.25, 0.15, 0.15))
        robot = sample_surface_points(link, 4000, rng).points
        outliers = rng.uniform([-0.5, -0.5, 0.0], [0.5, 0.5, 0.6], (2000, 3))
        far = rng.uniform([-1.0, -1.0, 0.7], [1.0, 1.0, 1.0], (1000, 3))
        pts = np.vstack([obj, table, robot, outliers, far])
        is_object = np.zeros(len(pts), dtype=bool)
        is_object[:len(obj)] = True
        hull = percept.halfspaces_of_box(Aabb(link.vertices.min(axis=0) - 0.005,
                                              link.vertices.max(axis=0) + 0.005))
        return PointCloud(pts), is_object, hull

    @property
    def units(self) -> int:
        return self.SEGMENT_REPEATS + len(self.truth)

    def work(self):
        run = self.run
        while True:
            for _ in range(self.SEGMENT_REPEATS):
                seg, dt = run.timed(percept.segment_object, self.scene, self.cfg, [self.hull])
                self.segment_s.append(dt)
                yield False
            frames, _ = run.timed(percept.read_pcseq, self.path)
            state = percept.init_tracker(frames[0], Pose.identity(), self.cfg, seed=self.track_seed)
            drift, lost = 0.0, 0
            for (true_t, _), frame in zip(self.truth[1:], frames[1:]):
                state, dt = run.timed(percept.track_step, state, frame)
                self.track_s.append(dt)
                lost += int(state.lost)
                drift = max(drift, float(np.linalg.norm(state.pose.translation - true_t)))
                yield False
            found, dt = run.timed(poses.stable_orientations, self.icosphere)
            self.stable_s.append(dt)
            found_box, _ = run.timed(poses.stable_orientations, self.box)
            with run.checking():
                self.check_segment(seg)
                run.check(lost == 0, f"{lost} tracked frames lost")
                run.check(drift < self.MAX_DRIFT_M, f"tracking drift {drift} m exceeds 5 mm")
                run.check(len(found_box) == 6, f"box yields {len(found_box)} stable poses, not 6")
                for mesh, found_poses in ((self.icosphere, found), (self.box, found_box)):
                    self.check_poses(mesh, found_poses)
            yield True

    def check_segment(self, seg) -> None:
        index = {p.tobytes(): i for i, p in enumerate(self.scene.points)}
        kept = np.zeros(len(self.scene), dtype=bool)
        kept[[index[p.tobytes()] for p in seg.points]] = True
        above = self.is_object & (self.scene.points[:, 2] >= self.cfg.table_eps)
        share = kept[above].mean()
        other = kept[~self.is_object].mean()
        self.run.check(share >= self.MIN_OBJECT_KEPT,
                       f"segmentation kept {share:.3f} of the object points above the table")
        self.run.check(other <= self.MAX_OTHER_KEPT,
                       f"segmentation kept {other:.4f} of the non-object points")

    def check_poses(self, mesh, found) -> None:
        com = oracles.mesh_com(mesh.vertices, mesh.faces)
        worst = 0.0
        for p in found:
            r = oracles.quat_matrix(p.orientation.quat)
            v = mesh.vertices @ r.T
            low = v[:, 2].min()
            support = v[v[:, 2] <= low + 1e-6, :2]
            margin = oracles.polygon_margin(oracles.convex_hull_2d(support), (r @ com)[:2])
            worst = max(worst, abs(-low - p.rest_height), abs(margin - p.margin))
            self.run.check(margin >= 0.002, f"stable pose with margin {margin} below 2 mm")
        self.run.check(worst < 1e-9, f"stable pose rest height or margin off by {worst}")

    def final_checks(self) -> None:
        """dbscan inside segment_object against the brute-force reference."""
        cfg = self.cfg
        cloud = percept.crop_workspace(self.scene, cfg.workspace)
        cloud = percept.remove_table(cloud, cfg.table_point, cfg.table_normal, cfg.table_eps)
        cloud = percept.remove_robot(cloud, [self.hull])
        cloud = percept.radius_outlier_removal(cloud, cfg.outlier_radius, cfg.outlier_n_min)
        labels, _ = self.run.timed(percept.dbscan, cloud, cfg.dbscan_eps, cfg.dbscan_min_pts)
        reference = oracles.dbscan(cloud.points, cfg.dbscan_eps, cfg.dbscan_min_pts)
        self.run.check(np.array_equal(labels, reference), "dbscan labels differ from brute force")

    def metrics(self) -> dict:
        quick = self.run.quick
        return {"track_ms_per_frame": 1e3 * quick(self.track_s),
                "segment_ms": 1e3 * quick(self.segment_s),
                "stable_poses_ms": 1e3 * quick(self.stable_s)}


# -------------------------------------------------------------- policy-step


class PolicyStep:
    """The per-environment-step loop of RL: move a pre-sampled 512-point
    cloud by the object pose, patch it, encode one sample, run the policy
    head, then IK toward the subgoal residual, the impedance torque and the
    reward terms."""

    DT = 0.05
    HALF = np.array([0.031, 0.031, 0.031])

    def __init__(self, run: Run, steps: int):
        self.run = run
        self.steps = steps
        rng = np.random.default_rng(sub_seed(run.seed, "policy"))
        self.cloud = sample_surface_points(shapes.box(2 * self.HALF), 512, rng).points
        self.enc = encoder.init_encoder_params(seed=sub_seed(run.seed, "policy-enc"))
        self.pol = policyhead.init_policy_params(seed=sub_seed(run.seed, "policy-head"))
        self.chain = control.franka_like_chain()
        self.q0 = np.array([0.0, -np.pi / 4, 0.0, -2.356, 0.0, 1.571, np.pi / 4])
        self.q0 = self.q0 + rng.uniform(-0.2, 0.2, 7)
        start = np.r_[rng.uniform(0.3, 0.5), rng.uniform(-0.2, 0.2), self.HALF[2]]
        velocity = np.r_[rng.uniform(-0.004, 0.004, 2), 0.0]
        spin = rng.uniform(-0.03, 0.03)
        self.object_poses = [Pose(start + velocity * t, Rotation.from_axis_angle([0, 0, spin * t]))
                             for t in range(steps + 1)]
        self.goal = Pose(start + np.r_[rng.uniform(-0.1, 0.1, 2), 0.0],
                         Rotation.from_axis_angle([0, 0, rng.uniform(-np.pi, np.pi)]))
        self.physics = (rng.uniform(0.1, 0.5), rng.uniform(0.7, 1.0), rng.uniform(0.0, 1.0))
        self.step_s = []

    def _state(self, pose, tip, tau, qdot):
        return reward.ObjectState(pose=pose, goal=self.goal, half_extents=self.HALF,
                                  com=np.zeros(3), gripper_tip=tip, tau=tau, qdot=qdot)

    def step(self, t, q, qdot, ee, prev_cmd, prev_state):
        """One environment step; returns everything the checks look at."""
        pose = self.object_poses[t]
        pts = pose.apply(self.cloud)
        centroid = pts.mean(axis=0)
        ps = patches.make_patches((pts - centroid) * encoder.FEATURE_SCALE)
        hand = encoder.HandState((ee.translation - centroid) * encoder.FEATURE_SCALE,
                                 rot_to_6d(ee.rotation))
        emb, _ = encoder.encode(self.enc, ps, hand)
        mass, friction, restitution = self.physics
        task = policyhead.TaskInputs(q, qdot, prev_cmd, self.goal.compose(pose.inverse()),
                                     mass, friction, restitution)
        out = policyhead.policy_forward(self.pol, emb, task)
        policyhead.attention_map(out.attention)
        # policy_forward already applies softplus to the gains, so the
        # command is built from its action, not through action_command
        a = out.action
        cmd = policyhead.ActionCommand(a[0:3], a[3:6], a[6:13], a[13:20])
        residual = Pose(cmd.delta_translation, Rotation.from_axis_angle(cmd.delta_rotation))
        result = control.ik(self.chain, q, residual)
        tau = control.torque(cmd.kp, cmd.damping, result.q, q, qdot)
        qdot_next = (result.q - q) / self.DT
        ee_next = control.fk(self.chain, result.q)
        nxt = self._state(self.object_poses[t + 1], ee_next.translation, tau, qdot_next)
        terms = reward.reward_terms(prev_state, nxt, reward.success(nxt))
        return dict(ps=ps, hand=hand, emb=emb, out=out, cmd=cmd, residual=residual,
                    result=result, tau=tau, q=q, qdot=qdot, ee_next=ee_next, state=nxt,
                    terms=terms)

    @property
    def units(self) -> int:
        return self.steps

    def work(self):
        run = self.run
        while True:
            q, qdot = self.q0.copy(), np.zeros(7)
            ee = control.fk(self.chain, q)
            cmd = policyhead.ActionCommand.zeros()
            state = self._state(self.object_poses[0], ee.translation, np.zeros(7), np.zeros(7))
            steps = []
            for t in range(self.steps):
                s, dt = run.timed(self.step, t, q, qdot, ee, cmd, state)
                self.step_s.append(dt)
                steps.append(s)
                with run.checking():
                    self.check_step(s, first=t == 0)
                    if t == self.steps - 1:
                        self.check_telescoping(steps)
                q, qdot, ee, cmd, state = (s["result"].q, s["state"].qdot, s["ee_next"], s["cmd"],
                                           s["state"])
                yield t == self.steps - 1

    def check_step(self, s, first: bool) -> None:
        run, out, cmd = self.run, s["out"], s["cmd"]
        run.check(np.all(np.abs(out.attention.sum(axis=-1) - 1.0) < 1e-12),
                  "attention rows do not sum to 1")
        gains = np.r_[cmd.kp, cmd.damping]
        run.check(np.all(np.isfinite(gains)) and np.all(gains > 0), "action gains not positive")
        own_tau = cmd.kp * (s["result"].q - s["q"]) - cmd.damping * np.sqrt(cmd.kp) * s["qdot"]
        run.check(np.all(np.abs(s["tau"] - own_tau) <= 1e-12 * (1.0 + np.abs(own_tau))),
                  "torque differs from kp(q*-q) - rho sqrt(kp) qdot")
        before = self._ik_error(s["q"], s["q"], s["residual"])
        after = self._ik_error(s["result"].q, s["q"], s["residual"])
        run.check(after <= before + 1e-12, f"ik raised the weighted error {before} -> {after}")
        if first:
            cfg = encoder.EncoderConfig()
            direct = encoder.decode_contact(self.enc, s["emb"], cfg)
            ps, hand = s["ps"], s["hand"]
            batched = encoder.batch_logits(self.enc, cfg, ps.patches.reshape(1, 16, -1),
                                           ps.centers.reshape(1, 16, 3), hand.vector()[None])[0]
            run.check(np.max(np.abs(direct - batched)) <= 1e-9,
                      "decode_contact(encode(x)) differs from batch_logits")

    def _ik_error(self, q, q_start, residual) -> float:
        """Weighted twist error of `q` toward the IK target, by own FK."""
        chain = self.chain
        fk = lambda qv: oracles.chain_fk(
            [(o.translation, o.rotation.quat) for o in chain.origins], chain.axes,
            (chain.ee_offset.translation, chain.ee_offset.rotation.quat), qv)
        start, now = fk(q_start), fk(q)
        target_t = start[:3, 3] + residual.translation
        target_r = oracles.quat_matrix(residual.rotation.quat) @ start[:3, :3]
        cfg = control.IkConfig()
        weight = cfg.pos_tolerance / cfg.rot_tolerance
        return float(np.linalg.norm(target_t - now[:3, 3])
                     + weight * oracles.rotation_angle(target_r @ now[:3, :3].T))

    def check_telescoping(self, steps) -> None:
        """sum_t gamma^t r_t == gamma^T phi_T - phi_0 for both shaped terms,
        with the potentials recomputed from own distances."""
        p = reward.RewardParams()
        g = p.gamma
        goal_r, goal_t = oracles.quat_matrix(self.goal.rotation.quat), self.goal.translation

        def d_goal(pose):
            return oracles.bbox_distance(oracles.quat_matrix(pose.rotation.quat), pose.translation,
                                         goal_r, goal_t, self.HALF)

        def d_hand(pose, tip):
            return float(np.linalg.norm(tip - pose.translation))

        tips = [control.fk(self.chain, self.q0).translation] + [s["ee_next"].translation for s in steps]
        poses_t = self.object_poses[: len(steps) + 1]
        worst = 0.0
        for key, k, dist in (("r_reach", p.k_goal, [d_goal(x) for x in poses_t]),
                             ("r_contact", p.k_contact,
                              [d_hand(x, tip) for x, tip in zip(poses_t, tips)])):
            phi = [k * g ** (p.k_decay * d) for d in dist]
            total = sum(g ** t * s["terms"][key] for t, s in enumerate(steps))
            closed = g ** len(steps) * phi[-1] - phi[0]
            worst = max(worst, abs(total - closed))
        for s in steps:
            t = s["terms"]
            energy = p.k_energy * float(np.dot(s["tau"], s["state"].qdot))
            worst = max(worst, abs(t["energy"] - energy),
                        abs(t["total"] - (t["r_success"] + t["r_reach"] + t["r_contact"] - energy)))
        self.run.check(worst < 1e-12, f"reward telescoping identity off by {worst}")

    def final_checks(self) -> None:
        pass

    def metrics(self) -> dict:
        return {"policy_steps_per_s": 1.0 / self.run.quick(self.step_s)}
