import struct

import numpy as np
import pytest

from corn import encoder as enc
from corn.autodiff import Tensor
from corn.contactgen import ContactRecord
from corn.encoder import (
    EncoderConfig,
    HandState,
    TrainConfig,
    bce_loss,
    decode_contact,
    encode,
    init_encoder_params,
    load_checkpoint,
    params_from_arrays,
    save_checkpoint,
)
from corn.errors import BadMagic, DatasetIoError, EmptyDataset, ShapeMismatch, TruncatedRecord
from corn.patches import PatchConfig, PatchSet, make_patches

CFG = EncoderConfig()


def random_patchset(rng, scale=0.05):
    return make_patches(rng.normal(size=(512, 3)) * scale, PatchConfig())


def random_hand(rng):
    return HandState(rng.normal(size=3) * 0.2, np.array([1.0, 0, 0, 0, 1, 0]))


def random_batch(rng, n=2):
    return {
        "patch_flat": rng.normal(size=(n, 16, 96)) * 0.1,
        "centers": rng.normal(size=(n, 16, 3)) * 0.3,
        "hand": rng.normal(size=(n, 9)) * 0.5,
        "labels": rng.random((n, 16)) < 0.4,
    }


def random_records(rng, n):
    records = []
    for _ in range(n):
        quat = rng.normal(size=4)
        quat /= np.linalg.norm(quat)
        records.append(
            ContactRecord(
                object_id=0,
                seed=int(rng.integers(1 << 32)),
                pose7=np.concatenate([rng.normal(size=3) * 0.2, quat]).astype(np.float32),
                points=(rng.normal(size=(512, 3)) * 0.05).astype(np.float32),
                labels=rng.random(512) < 0.1,
            )
        )
    return records


# ------------------------------------------------------------------ forward


def test_encode_output_shapes():
    rng = np.random.default_rng(0)
    params = init_encoder_params(CFG, seed=0)
    pe, he = encode(params, random_patchset(rng), random_hand(rng), CFG)
    assert pe.shape == (16, 128) and he.shape == (128,)
    assert np.all(np.isfinite(pe)) and np.all(np.isfinite(he))


def test_zeroed_positional_embedding_gives_translation_invariance():
    rng = np.random.default_rng(1)
    params = init_encoder_params(CFG, seed=0)
    params["pos.w"] = Tensor(np.zeros_like(params["pos.w"].values))
    params["pos.b"] = Tensor(np.zeros_like(params["pos.b"].values))
    ps = random_patchset(rng)
    hand = random_hand(rng)
    shifted = PatchSet(centers=ps.centers + np.array([5.0, -2.0, 1.0]),
                       patches=ps.patches, member_indices=ps.member_indices)
    a = encode(params, ps, hand, CFG)
    b = encode(params, shifted, hand, CFG)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


def test_patch_permutation_equivariance():
    rng = np.random.default_rng(2)
    params = init_encoder_params(CFG, seed=0)
    ps = random_patchset(rng)
    hand = random_hand(rng)
    perm = rng.permutation(16)
    permuted = PatchSet(centers=ps.centers[perm], patches=ps.patches[perm],
                        member_indices=ps.member_indices[perm])
    base, base_hand = encode(params, ps, hand, CFG)
    moved, moved_hand = encode(params, permuted, hand, CFG)
    assert np.allclose(base[perm], moved, atol=1e-12)
    assert np.allclose(base_hand, moved_hand, atol=1e-12)
    # logits of the composition permute the same way
    l_base = decode_contact(params, base, CFG)
    l_moved = decode_contact(params, moved, CFG)
    assert np.allclose(l_base[perm], l_moved, atol=1e-12)


def test_decode_zero_weights_gives_zero_logits():
    params = init_encoder_params(CFG, seed=0)
    for name in ("dec.w1", "dec.b1", "dec.w2", "dec.b2"):
        params[name] = Tensor(np.zeros_like(params[name].values))
    logits = decode_contact(params, np.random.default_rng(3).normal(size=(16, 128)), CFG)
    assert logits.shape == (16,)
    assert np.array_equal(logits, np.zeros(16))


def test_decode_is_patchwise_shared():
    rng = np.random.default_rng(4)
    params = init_encoder_params(CFG, seed=0)
    emb = rng.normal(size=(16, 128))
    perm = rng.permutation(16)
    assert np.allclose(decode_contact(params, emb, CFG)[perm],
                       decode_contact(params, emb[perm], CFG), atol=1e-12)


def test_decode_shape_mismatch():
    params = init_encoder_params(CFG, seed=0)
    with pytest.raises(ShapeMismatch):
        decode_contact(params, np.zeros((8, 128)), CFG)


# --------------------------------------------------------------------- loss


def test_bce_zero_logits_is_ln2():
    assert abs(bce_loss(np.zeros(16), np.zeros(16)) - np.log(2)) < 1e-15
    assert abs(bce_loss(np.zeros(16), np.ones(16)) - np.log(2)) < 1e-15


def test_bce_saturated_correct_is_tiny():
    assert bce_loss(np.full(16, 20.0), np.ones(16)) < 1e-8


def test_bce_matches_naive_formula():
    rng = np.random.default_rng(5)
    z = rng.normal(size=16) * 3.0
    y = (rng.random(16) < 0.5).astype(float)
    naive = -np.mean(y * np.log(1 / (1 + np.exp(-z))) + (1 - y) * np.log(1 - 1 / (1 + np.exp(-z))))
    assert abs(bce_loss(z, y) - naive) < 1e-12


def test_bce_stable_at_extreme_logits():
    for z in (1e4, -1e4):
        assert np.isfinite(bce_loss(np.full(16, z), np.zeros(16)))


# ---------------------------------------------------------------- gradients


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(6)
    params = init_encoder_params(CFG, seed=1)
    batch = random_batch(rng, n=2)
    _, grads = enc.backward(params, batch, CFG)

    def loss_only():
        return float(
            enc.batch_loss_graph(params, CFG, batch["patch_flat"], batch["centers"],
                                 batch["hand"], batch["labels"]).values
        )

    h = 1e-5
    pick = np.random.default_rng(7)
    for name, p in params.items():
        flat = p.values.reshape(-1)
        for i in pick.choice(flat.size, size=min(3, flat.size), replace=False):
            old = flat[i]
            flat[i] = old + h
            lp = loss_only()
            flat[i] = old - h
            lm = loss_only()
            flat[i] = old
            fd = (lp - lm) / (2 * h)
            an = grads[name].reshape(-1)[i]
            assert abs(fd - an) / max(abs(fd), abs(an), 1e-6) < 1e-4, name


def test_saturated_correct_logits_give_near_zero_grads():
    rng = np.random.default_rng(8)
    params = init_encoder_params(CFG, seed=2)
    params["dec.b2"] = Tensor(np.array([50.0]))
    batch = random_batch(rng, n=2)
    batch["labels"] = np.ones((2, 16), dtype=bool)
    loss, grads = enc.backward(params, batch, CFG)
    assert loss < 1e-8
    assert max(np.abs(g).max() for g in grads.values()) < 1e-6


def test_duplicated_batch_keeps_mean_gradient():
    rng = np.random.default_rng(9)
    params = init_encoder_params(CFG, seed=3)
    batch = random_batch(rng, n=3)
    doubled = {k: np.concatenate([v, v]) for k, v in batch.items()}
    _, g1 = enc.backward(params, batch, CFG)
    _, g2 = enc.backward(params, doubled, CFG)
    for name in g1:
        assert np.allclose(g1[name], g2[name], atol=1e-12)


# ----------------------------------------------------------------- training


def test_train_deterministic_loss_curve():
    rng = np.random.default_rng(10)
    records = random_records(rng, 30)
    reports = []
    for _ in range(2):
        params = init_encoder_params(CFG, seed=0)
        reports.append(enc.train(params, records, TrainConfig(epochs=2, seed=0), CFG))
    assert reports[0].train_losses == reports[1].train_losses
    assert reports[0].val_accuracy == reports[1].val_accuracy


def test_train_empty_dataset():
    params = init_encoder_params(CFG, seed=0)
    with pytest.raises(EmptyDataset):
        enc.train(params, [], TrainConfig(epochs=1), CFG)


def test_best_so_far_loss_decreases_when_overfitting():
    rng = np.random.default_rng(11)
    records = random_records(rng, 12)
    params = init_encoder_params(CFG, seed=0)
    report = enc.train(params, records, TrainConfig(epochs=30, val_fraction=0.0, seed=0), CFG)
    best = np.minimum.accumulate(report.train_losses)
    assert np.all(np.diff(best) <= 0)
    assert report.train_losses[-1] < report.train_losses[0]


# -------------------------------------------------------------- checkpoints


def test_checkpoint_round_trip(tmp_path):
    params = init_encoder_params(CFG, seed=4)
    path = tmp_path / "p.ckpt"
    save_checkpoint(path, params)
    back = load_checkpoint(path)
    assert set(back) == set(params)
    for name, p in params.items():
        assert np.array_equal(back[name], p.values)
    rebuilt = params_from_arrays(back, CFG)
    assert np.array_equal(rebuilt["tok.w1"].values, params["tok.w1"].values)


def test_checkpoint_bytes_deterministic(tmp_path):
    params = init_encoder_params(CFG, seed=5)
    a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(a, params)
    save_checkpoint(b, params)
    assert a.read_bytes() == b.read_bytes()


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "bad.ckpt"
    save_checkpoint(path, init_encoder_params(CFG, seed=0))
    raw = bytearray(path.read_bytes())
    raw[:4] = b"XXXX"
    path.write_bytes(bytes(raw))
    with pytest.raises(BadMagic):
        load_checkpoint(path)


def write_raw_checkpoint(path, name: bytes, dims, payload=b""):
    """One tensor record written by hand, so its header can lie."""
    path.write_bytes(struct.pack("<4sI", b"CKPT", 1) + struct.pack("<H", len(name)) + name
                     + struct.pack("<B", len(dims)) + struct.pack(f"<{len(dims)}I", *dims) + payload)


def test_checkpoint_dims_beyond_file_size(tmp_path):
    path = tmp_path / "huge.ckpt"
    write_raw_checkpoint(path, b"tok.w1", (2**32 - 1,) * 4, bytes(64))
    with pytest.raises(TruncatedRecord):
        load_checkpoint(path)


def test_checkpoint_name_not_utf8(tmp_path):
    path = tmp_path / "name.ckpt"
    write_raw_checkpoint(path, b"\xff", (1,), bytes(8))
    with pytest.raises(DatasetIoError):
        load_checkpoint(path)


def test_params_from_arrays_rejects_bad_shape(tmp_path):
    params = init_encoder_params(CFG, seed=0)
    arrays = {k: v.values for k, v in params.items()}
    arrays["tok.w1"] = np.zeros((2, 2))
    with pytest.raises(ShapeMismatch):
        params_from_arrays(arrays, CFG)
