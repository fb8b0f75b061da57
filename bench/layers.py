"""Which corn functions the traced run wraps, and the per-layer metrics
derived from their spans.

Rows name the module whose globals the caller reads: contactgen imports the
geom kernels by name, encoder imports make_patches by name, and percept calls
its filters, icp and cKDTree through its own globals.
"""

from __future__ import annotations

import os

import numpy as np

from tracer import SpanStats, Tracer

_AUTODIFF_OPS = ("matmul", "linear", "add", "mul", "scale", "reshape", "transpose", "concat",
                 "narrow", "gelu", "softmax", "layer_norm", "bce_with_logits_mean")
_FILTERS = ("crop_workspace", "remove_table", "remove_robot", "radius_outlier_removal")


def _size(args, out):
    return len(out)


def _displacement(args, out):
    _a, b, m, _rng = args
    return m * len(b), float(np.linalg.norm(out)) < 1e-6


def _reregistered(args, state):
    return (not state.lost) and state.last_fitness > state.fitness_threshold


TRACE_TABLE = [
    ("corn.contactgen", "nearest_displacement", "geom.nearest_displacement", _displacement),
    ("corn.contactgen", "points_in_mesh", "geom.points_in_mesh", None),
    ("corn.contactgen", "sample_surface_points", "geom.sample_surface_points", None),
    ("corn.geom", "sample_surface_points", "geom.sample_surface_points", None),
    ("corn.geom:TriMesh", "transformed", "geom.TriMesh.transformed", None),
    ("corn.contactgen", "generate_record", "contactgen.generate_record",
     lambda args, rec: rec.any_contact),
    ("corn.contactgen", "write_dataset", "contactgen.write_dataset",
     lambda args, out: os.path.getsize(args[1])),
    ("corn.contactgen", "read_dataset", "contactgen.read_dataset", None),
    ("corn.patches", "make_patches", "patches.make_patches", None),
    ("corn.encoder", "make_patches", "patches.make_patches", None),
    ("corn.patches", "farthest_point_sample", "patches.farthest_point_sample", None),
    *[("corn.autodiff", op, "autodiff." + op, None) for op in _AUTODIFF_OPS],
    ("corn.autodiff", "backward", "autodiff.backward", None),
    *[("corn.encoder", fn, "encoder." + fn, None)
      for fn in ("record_features", "batch_loss_graph", "backward", "evaluate", "batch_logits",
                 "save_checkpoint", "load_checkpoint", "encode", "train")],
    ("corn.percept", "track_step", "percept.track_step", _reregistered),
    ("corn.percept", "icp", "percept.icp", None),
    ("corn.percept", "estimate_normals", "percept.estimate_normals", None),
    ("corn.percept", "read_pcseq", "percept.read_pcseq", None),
    ("corn.percept", "cKDTree", "percept.cKDTree", None),
    *[("corn.percept", fn, "percept." + fn, _size) for fn in _FILTERS],
    ("corn.percept", "dbscan", "percept.dbscan", None),
    ("corn.percept", "segment_object", "percept.segment_object", _size),
    ("corn.poses", "stable_orientations", "poses.stable_orientations", _size),
    ("corn.poses", "com_and_volume", "poses.com_and_volume", None),
    ("corn.policyhead", "policy_forward", "policyhead.policy_forward", None),
    ("corn.policyhead", "attention_map", "policyhead.attention_map", None),
    ("corn.control", "ik", "control.ik", lambda args, res: res.iterations),
    ("corn.control", "fk", "control.fk", None),
    ("corn.control", "jacobian", "control.jacobian", None),
    ("corn.control", "torque", "control.torque", None),
    ("corn.reward", "reward_terms", "reward.reward_terms", None),
]


def per_layer(tracer: Tracer) -> dict[str, float]:
    """Per-layer figures of one traced run. `.ms` is the mean wall time per
    call (self time for autodiff ops); counts are per call of the parent
    operation named in the README."""
    s = SpanStats(tracer)
    out: dict[str, float] = {}
    for fn in ("nearest_displacement", "points_in_mesh", "sample_surface_points",
               "TriMesh.transformed"):
        name = "geom." + fn
        out[name + ".ms"] = s.ms_per_call(name)
        out[name + ".calls"] = s.per_call([name], "contactgen.generate_record")
    draws = s.values["geom.nearest_displacement"]
    out["geom.nearest_displacement.pair_tests"] = float(np.mean([d[0] for d in draws])) if draws else 0.0
    out["contactgen.intersecting_draws"] = float(np.mean([d[1] for d in draws])) if draws else 0.0
    for fn in ("generate_record", "write_dataset", "read_dataset"):
        out[f"contactgen.{fn}.ms"] = s.ms_per_call("contactgen." + fn)
    out["contactgen.bytes"] = s.mean_value("contactgen.write_dataset")
    out["contactgen.records_any_contact"] = s.mean_value("contactgen.generate_record")

    out["patches.make_patches.ms"] = s.ms_per_call("patches.make_patches")
    out["patches.farthest_point_sample.ms"] = s.ms_per_call("patches.farthest_point_sample")
    # make_patches groups by kNN inline; its self time is that grouping
    out["patches.knn.ms"] = s.ms_per_call("patches.make_patches", own=True)

    for op in ("matmul", "linear", "layer_norm", "gelu", "softmax", "concat", "backward"):
        out[f"autodiff.{op}.ms"] = s.ms_per_call("autodiff." + op, own=True)
    moves = s.calls["autodiff.reshape"] + s.calls["autodiff.transpose"]
    out["autodiff.reshape_transpose.ms"] = (
        1e3 * (s.own["autodiff.reshape"] + s.own["autodiff.transpose"]) / moves if moves else 0.0)
    # graph nodes: every op call but linear, which only calls matmul and add
    nodes = [op for op in _AUTODIFF_OPS if op != "linear"]
    out["autodiff.nodes_per_step"] = s.per_call(["autodiff." + op for op in nodes], "encoder.backward")

    for fn in ("record_features", "batch_loss_graph", "backward", "evaluate", "batch_logits",
               "save_checkpoint", "load_checkpoint", "encode"):
        out[f"encoder.{fn}.ms"] = s.ms_per_call("encoder." + fn)
    steps = s.spans_under(["encoder.backward"], "encoder.train")
    evals = s.spans_under(["encoder.evaluate"], "encoder.train")
    out["encoder.optimizer.ms"] = (
        1e3 * (s.total["encoder.train"] - sum(x[4] for x in steps) - sum(x[4] for x in evals))
        / len(steps) if steps else 0.0)

    for fn in ("track_step", "icp", "estimate_normals", "read_pcseq", "dbscan", *_FILTERS):
        out[f"percept.{fn}.ms"] = s.ms_per_call("percept." + fn)
    out["percept.icp.calls"] = s.per_call(["percept.icp"], "percept.track_step")
    out["percept.kdtree_builds_per_frame"] = s.per_call(["percept.cKDTree"], "percept.track_step")
    out["percept.frames_reregistered"] = s.mean_value("percept.track_step")
    for fn in (*_FILTERS, "segment_object"):
        out[f"percept.{fn}.points"] = s.mean_value("percept." + fn)

    out["poses.stable_orientations.ms"] = s.ms_per_call("poses.stable_orientations")
    out["poses.com_and_volume.ms"] = s.ms_per_call("poses.com_and_volume")
    out["poses.found"] = s.mean_value("poses.stable_orientations")

    for name in ("policyhead.policy_forward", "policyhead.attention_map", "control.ik",
                 "control.torque", "reward.reward_terms"):
        out[name + ".ms"] = s.ms_per_call(name)
    out["control.ik.iterations"] = s.mean_value("control.ik")
    out["control.fk.calls"] = s.per_call(["control.fk"], "control.ik")
    out["control.jacobian.calls"] = s.per_call(["control.jacobian"], "control.ik")
    return out
