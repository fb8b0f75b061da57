"""Patch-transformer encoder with contact-prediction decoder and training loop.

Architecture: flattened distance-sorted patches are tokenized by a two-layer
MLP, learned positional embeddings of the patch centers are added, and a hand
token (position + 6D orientation) is appended. Two pre-normalization
transformer blocks (4-head self-attention, GELU feed-forward) mix the 17
tokens; a shared MLP decodes each patch token into one contact logit.

Inputs are expressed in an object-centered frame: the cloud is shifted so its
centroid is at the origin and the hand position is shifted the same way.

Checkpoint layout (little-endian): magic "CKPT", u32 version, then per tensor
u16 name length, name bytes, u8 rank, u32 dims, f64 values.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .contactgen import patch_labels
from .errors import (
    BadMagic,
    DatasetIoError,
    Divergence,
    EmptyDataset,
    NonFiniteGradient,
    NonFiniteInput,
    ShapeMismatch,
    TruncatedRecord,
    UnsupportedVersion,
)
from .geom import rot_to_6d
from .patches import PatchConfig, PatchSet, make_patches

CHECKPOINT_MAGIC = b"CKPT"
CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class EncoderConfig:
    d_model: int = 128
    n_layers: int = 2
    n_heads: int = 4
    ffn_dim: int = 256
    patch: PatchConfig = field(default_factory=PatchConfig)
    hand_dim: int = 9

    def __post_init__(self):
        if self.d_model % self.n_heads != 0:
            raise ShapeMismatch("d_model must be divisible by n_heads")

    @property
    def patch_dim(self) -> int:
        return 3 * self.patch.patch_size


@dataclass(frozen=True)
class HandState:
    position: np.ndarray     # (3,)
    orientation: np.ndarray  # (6,) first two rotation-matrix columns

    def vector(self) -> np.ndarray:
        v = np.concatenate(
            [np.asarray(self.position, dtype=np.float64).reshape(3),
             np.asarray(self.orientation, dtype=np.float64).reshape(6)]
        )
        if not np.all(np.isfinite(v)):
            raise NonFiniteInput("non-finite hand state")
        return v


_ATTENTION = ("wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo")


def init_encoder_params(cfg: EncoderConfig = EncoderConfig(), seed: int = 0) -> dict[str, Tensor]:
    rng = np.random.default_rng(seed)
    d, f = cfg.d_model, cfg.ffn_dim

    def w(*shape):
        return Tensor(rng.normal(0.0, 0.02, size=shape))

    def b(n):
        return Tensor(np.zeros(n))

    params = {
        "tok.w1": w(cfg.patch_dim, d), "tok.b1": b(d),
        "tok.w2": w(d, d), "tok.b2": b(d),
        "pos.w": w(3, d), "pos.b": b(d),
        "hand.w": w(cfg.hand_dim, d), "hand.b": b(d),
    }
    for i in range(cfg.n_layers):
        p = f"blk{i}."
        params.update({
            p + "ln1.g": Tensor(np.ones(d)), p + "ln1.b": b(d),
            **{p + n: w(d, d) if n[0] == "w" else b(d) for n in _ATTENTION},
            p + "ln2.g": Tensor(np.ones(d)), p + "ln2.b": b(d),
            p + "ffn.w1": w(d, f), p + "ffn.b1": b(f),
            p + "ffn.w2": w(f, d), p + "ffn.b2": b(d),
        })
    params.update({
        "dec.w1": w(d, d // 2), "dec.b1": b(d // 2),
        "dec.w2": w(d // 2, 1), "dec.b2": b(1),
    })
    return params


def _encode(ops, p, cfg: EncoderConfig, patch_flat, centers, hand):
    """Token mixing over a batch: the (B, 17, d) tokens. `ops` is the autodiff
    module with Tensor parameters `p` and inputs, or `autodiff.forward` with
    arrays; both run the same numpy forward functions."""
    tok = ops.linear(ops.gelu(ops.linear(patch_flat, p["tok.w1"], p["tok.b1"])),
                     p["tok.w2"], p["tok.b2"])
    patch_tokens = ops.add(tok, ops.linear(centers, p["pos.w"], p["pos.b"]))
    hand_tok = ops.reshape(ops.linear(hand, p["hand.w"], p["hand.b"]),
                           (hand.shape[0], 1, cfg.d_model))
    x = ops.concat([patch_tokens, hand_tok], axis=1)
    for i in range(cfg.n_layers):
        b = f"blk{i}."
        h = ops.layer_norm(x, p[b + "ln1.g"], p[b + "ln1.b"])
        x = ops.add(x, ops.self_attention(h, [p[b + n] for n in _ATTENTION], cfg.n_heads))
        h = ops.layer_norm(x, p[b + "ln2.g"], p[b + "ln2.b"])
        ff = ops.linear(ops.gelu(ops.linear(h, p[b + "ffn.w1"], p[b + "ffn.b1"])),
                        p[b + "ffn.w2"], p[b + "ffn.b2"])
        x = ops.add(x, ff)
    return x


def _decode(ops, p, patch_tokens):
    """Shared per-patch MLP down to one logit per patch: (B, P, d) -> (B, P)."""
    h = ops.gelu(ops.linear(patch_tokens, p["dec.w1"], p["dec.b1"]))
    logits = ops.linear(h, p["dec.w2"], p["dec.b2"])
    return ops.reshape(logits, logits.shape[:-1])


def _arrays(params) -> dict[str, np.ndarray]:
    return {name: p.values for name, p in params.items()}


def _check_batch_shapes(cfg, patch_flat, centers, hand):
    n_p = cfg.patch.n_patches
    if patch_flat.shape[1:] != (n_p, cfg.patch_dim):
        raise ShapeMismatch(f"patch batch shaped {patch_flat.shape}")
    if centers.shape[1:] != (n_p, 3) or hand.shape[1:] != (cfg.hand_dim,):
        raise ShapeMismatch("centers or hand state shaped incorrectly")
    for arr in (patch_flat, centers, hand):
        if not np.all(np.isfinite(arr)):
            raise NonFiniteInput("non-finite encoder input")


def encode(params, patches: PatchSet, hand: HandState, cfg: EncoderConfig = EncoderConfig()):
    """Single-sample forward pass.

    Returns (patch_embeddings (n_patches, d_model), hand_embedding (d_model,)).
    """
    patch_flat = patches.patches.reshape(1, patches.n_patches, -1)
    centers = patches.centers.reshape(1, patches.n_patches, 3)
    hand_vec = hand.vector().reshape(1, -1)
    _check_batch_shapes(cfg, patch_flat, centers, hand_vec)
    values = _encode(ad.forward, _arrays(params), cfg, patch_flat, centers, hand_vec)[0]
    return values[: cfg.patch.n_patches].copy(), values[cfg.patch.n_patches].copy()


def decode_contact(params, patch_embeddings, cfg: EncoderConfig = EncoderConfig()) -> np.ndarray:
    emb = np.asarray(patch_embeddings, dtype=np.float64)
    if emb.shape != (cfg.patch.n_patches, cfg.d_model):
        raise ShapeMismatch(f"expected ({cfg.patch.n_patches}, {cfg.d_model}), got {emb.shape}")
    return _decode(ad.forward, _arrays(params), emb[None])[0]


bce_loss = ad.forward.bce_with_logits_mean


def batch_loss_graph(params, cfg, patch_flat, centers, hand, labels) -> Tensor:
    _check_batch_shapes(cfg, patch_flat, centers, hand)
    inputs = (ad.constant(a) for a in (patch_flat, centers, hand))
    x = _encode(ad, params, cfg, *inputs)
    logits = _decode(ad, params, ad.narrow(x, 1, 0, cfg.patch.n_patches))
    return ad.bce_with_logits_mean(logits, labels)


def backward(params, batch, cfg: EncoderConfig = EncoderConfig()):
    """Mean-BCE loss and its gradient for every parameter on one batch.

    batch holds patch_flat (B,P,3k), centers (B,P,3), hand (B,9), labels (B,P).
    """
    loss = batch_loss_graph(params, cfg, batch["patch_flat"], batch["centers"],
                            batch["hand"], batch["labels"])
    ad.backward(loss)
    grads = {}
    for name, p in params.items():
        g = p.grad if p.grad is not None else np.zeros_like(p.values)
        if not np.all(np.isfinite(g)):
            raise NonFiniteGradient(f"gradient of {name} is not finite")
        grads[name] = g
    return float(loss.values), grads


def batch_logits(params, cfg, patch_flat, centers, hand) -> np.ndarray:
    """(B, P) contact logits with no graph; bit-equal to the graph's logits."""
    arrays = _arrays(params)
    inputs = (np.asarray(a, dtype=np.float64) for a in (patch_flat, centers, hand))
    x = _encode(ad.forward, arrays, cfg, *inputs)
    return _decode(ad.forward, arrays, x[:, : cfg.patch.n_patches])


# ----------------------------------------------------------------- training


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 10
    lr: float = 1e-3
    batch_size: int = 32
    weight_decay: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    seed: int = 0
    val_fraction: float = 0.1
    warmup_steps: int = 0
    cosine_decay: bool = False


@dataclass
class TrainReport:
    train_losses: list
    val_accuracy: list
    val_precision: list
    val_recall: list
    majority_baseline: float
    n_train: int
    n_val: int


# Coordinates are fed to the network in decimeters: desk-scale offsets in
# meters are two orders of magnitude below unit scale, which stalls
# optimization of the geometric decision boundary.
FEATURE_SCALE = 10.0


def record_features(records, patch_cfg: PatchConfig = PatchConfig()):
    """Object-centered features for every record.

    The cloud is shifted so its centroid sits at the origin and the hand
    position is expressed in the same shifted frame; all coordinates are then
    multiplied by FEATURE_SCALE.
    """
    n = len(records)
    n_p, k = patch_cfg.n_patches, patch_cfg.patch_size
    patch_flat = np.empty((n, n_p, 3 * k))
    centers = np.empty((n, n_p, 3))
    hand = np.empty((n, 9))
    labels = np.empty((n, n_p), dtype=bool)
    for i, rec in enumerate(records):
        pts = rec.points.astype(np.float64)
        centroid = pts.mean(axis=0)
        ps = make_patches(pts - centroid, patch_cfg)
        patch_flat[i] = ps.patches.reshape(n_p, 3 * k) * FEATURE_SCALE
        centers[i] = ps.centers * FEATURE_SCALE
        pose = rec.gripper_pose
        hand[i] = np.concatenate([(pose.translation - centroid) * FEATURE_SCALE,
                                  rot_to_6d(pose.rotation)])
        labels[i] = patch_labels(rec, ps)
    return {"patch_flat": patch_flat, "centers": centers, "hand": hand, "labels": labels}


def _metrics(logits: np.ndarray, labels: np.ndarray) -> dict:
    pred = logits > 0.0
    tp = int(np.sum(pred & labels))
    fp = int(np.sum(pred & ~labels))
    fn = int(np.sum(~pred & labels))
    correct = int(np.sum(pred == labels))
    return {
        "accuracy": correct / labels.size,
        "precision": tp / (tp + fp) if tp + fp else 0.0,
        "recall": tp / (tp + fn) if tp + fn else 0.0,
    }


def evaluate(params, features, cfg: EncoderConfig = EncoderConfig(),
             batch_size: int = 256) -> dict:
    logits = []
    n = len(features["labels"])
    for s in range(0, n, batch_size):
        sl = slice(s, s + batch_size)
        logits.append(batch_logits(params, cfg, features["patch_flat"][sl],
                                   features["centers"][sl], features["hand"][sl]))
    return _metrics(np.concatenate(logits), features["labels"])


def _take(features, idx):
    return {k: v[idx] for k, v in features.items()}


def train(params, records, train_cfg: TrainConfig = TrainConfig(),
          cfg: EncoderConfig = EncoderConfig(), features=None) -> TrainReport:
    """Minibatch AdamW on the joint encoder + decoder, updating the arrays
    of `params` in place.

    Split is 90/10 by record index (validation is the trailing slice). Raises
    Divergence if the loss goes non-finite.
    """
    if features is None:
        if not records:
            raise EmptyDataset("no records to train on")
        features = record_features(records, cfg.patch)
    n = len(features["labels"])
    if n == 0:
        raise EmptyDataset("no records to train on")
    n_val = int(n * train_cfg.val_fraction)
    train_idx = np.arange(n - n_val)
    val = _take(features, np.arange(n - n_val, n)) if n_val else None

    rng = np.random.default_rng(train_cfg.seed)
    m_state = {k: np.zeros_like(p.values) for k, p in params.items()}
    v_state = {k: np.zeros_like(p.values) for k, p in params.items()}
    step = 0
    batches_per_epoch = max(1, int(np.ceil(len(train_idx) / train_cfg.batch_size)))
    total_steps = train_cfg.epochs * batches_per_epoch
    report = TrainReport([], [], [], [],
                         majority_baseline=_majority_baseline(features["labels"]),
                         n_train=len(train_idx), n_val=n_val)
    for _ in range(train_cfg.epochs):
        order = rng.permutation(train_idx)
        losses = []
        for s in range(0, len(order), train_cfg.batch_size):
            idx = order[s : s + train_cfg.batch_size]
            batch = _take(features, idx)
            loss, grads = backward(params, batch, cfg)
            if not np.isfinite(loss):
                raise Divergence(f"training loss became {loss}")
            losses.append(loss)
            step += 1
            lr = train_cfg.lr
            if train_cfg.warmup_steps and step < train_cfg.warmup_steps:
                lr *= step / train_cfg.warmup_steps
            elif train_cfg.cosine_decay:
                done = (step - train_cfg.warmup_steps) / max(1, total_steps - train_cfg.warmup_steps)
                lr *= 0.5 * (1.0 + np.cos(np.pi * min(done, 1.0)))
            bc1 = 1.0 - train_cfg.beta1**step
            bc2 = 1.0 - train_cfg.beta2**step
            # in place, in the order of (m / bc1) / (sqrt(v / bc2) + eps): fresh
            # arrays for every operation cost page faults on large tensors
            for name, p in params.items():
                g, m, v = grads[name], m_state[name], v_state[name]
                m *= train_cfg.beta1
                m += (1 - train_cfg.beta1) * g
                v *= train_cfg.beta2
                v += (1 - train_cfg.beta2) * g * g
                denom = np.sqrt(v / bc2)
                denom += train_cfg.adam_eps
                update = m / bc1
                update /= denom
                if name.rsplit(".", 1)[-1].startswith("w"):
                    update += train_cfg.weight_decay * p.values
                update *= lr
                p.values -= update
        report.train_losses.append(float(np.mean(losses)))
        if val is not None:
            m = evaluate(params, val, cfg)
            report.val_accuracy.append(m["accuracy"])
            report.val_precision.append(m["precision"])
            report.val_recall.append(m["recall"])
    return report


def _majority_baseline(labels: np.ndarray) -> float:
    p = float(np.mean(labels))
    return max(p, 1.0 - p)


# --------------------------------------------------------------- checkpoints


def save_checkpoint(path, named_arrays: dict) -> None:
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sI", CHECKPOINT_MAGIC, CHECKPOINT_VERSION))
        for name in sorted(named_arrays):
            arr = np.asarray(
                named_arrays[name].values if isinstance(named_arrays[name], Tensor)
                else named_arrays[name],
                dtype=np.float64,
            )
            raw = name.encode("utf-8")
            fh.write(struct.pack("<H", len(raw)))
            fh.write(raw)
            fh.write(struct.pack("<B", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            fh.write(arr.astype("<f8").tobytes())


def _read_exact(fh, size, what):
    buf = fh.read(size)
    if len(buf) != size:
        raise TruncatedRecord(f"checkpoint ends inside {what}")
    return buf


def load_checkpoint(path) -> dict[str, np.ndarray]:
    out = {}
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        magic, version = struct.unpack("<4sI", _read_exact(fh, 8, "header"))
        if magic != CHECKPOINT_MAGIC:
            raise BadMagic(f"expected {CHECKPOINT_MAGIC!r}, found {magic!r}")
        if version != CHECKPOINT_VERSION:
            raise UnsupportedVersion(f"checkpoint version {version} not supported")
        while fh.tell() < size:
            (name_len,) = struct.unpack("<H", _read_exact(fh, 2, "name length"))
            try:
                name = _read_exact(fh, name_len, "name").decode("utf-8")
            except UnicodeDecodeError as exc:
                raise DatasetIoError(f"checkpoint tensor name is not UTF-8: {exc}") from None
            (rank,) = struct.unpack("<B", _read_exact(fh, 1, "rank"))
            dims = struct.unpack(f"<{rank}I", _read_exact(fh, 4 * rank, "dims"))
            nbytes = 8 * math.prod(dims)
            if nbytes > size - fh.tell():
                raise TruncatedRecord(f"checkpoint ends inside the {dims} values of {name}")
            values = np.frombuffer(_read_exact(fh, nbytes, "values"), dtype="<f8")
            out[name] = values.reshape(dims).copy()
    return out


def params_from_arrays(arrays: dict, cfg: EncoderConfig = EncoderConfig()) -> dict[str, Tensor]:
    reference = init_encoder_params(cfg, seed=0)
    params = {}
    for name, ref in reference.items():
        if name not in arrays:
            raise ShapeMismatch(f"checkpoint is missing tensor {name}")
        arr = np.asarray(arrays[name], dtype=np.float64)
        if arr.shape != ref.values.shape:
            raise ShapeMismatch(
                f"{name}: checkpoint shape {arr.shape} != expected {ref.values.shape}"
            )
        params[name] = Tensor(arr)
    return params
