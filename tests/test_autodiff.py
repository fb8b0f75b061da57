import numpy as np
import pytest

from corn import autodiff as ad
from corn import encoder as enc
from corn.encoder import EncoderConfig, HandState, init_encoder_params
from corn.patches import PatchConfig, make_patches

CFG = EncoderConfig()


def close(got, want, tol=1e-12):
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= tol * (1.0 + np.max(np.abs(want)))


def grads_of(build, leaves, seed):
    """Value of build(*leaves) and every leaf gradient of <out, R> for a
    fixed random R."""
    for t in leaves:
        t.grad = None
    out = build(*leaves)
    weights = np.random.default_rng(seed).normal(size=out.shape)
    ad.backward(ad.mul(out, ad.constant(weights)))
    return out.values, [t.grad for t in leaves]


def check_against_reference(fused, reference, arrays, seed):
    value, grads = grads_of(fused, [ad.Tensor(a) for a in arrays], seed)
    ref_value, ref_grads = grads_of(reference, [ad.Tensor(a) for a in arrays], seed)
    close(value, ref_value)
    for g, ref in zip(grads, ref_grads):
        close(g, ref)


@pytest.mark.parametrize("lead", [(5, 7), (2, 3, 4)])
def test_linear_matches_matmul_add(lead):
    rng = np.random.default_rng(0)
    arrays = [rng.normal(size=(*lead, 6)), rng.normal(size=(6, 9)), rng.normal(size=9)]
    check_against_reference(ad.linear, lambda x, w, b: ad.add(ad.matmul(x, w), b), arrays, 1)


def reference_attention(x, wq, bq, wk, bk, wv, bv, wo, bo, n_heads):
    """Self-attention from matmul, add, scale, softmax, reshape and transpose."""
    lead, (tokens, d) = x.shape[:-2], x.shape[-2:]
    n = len(lead)
    to_heads = (*range(n), n + 1, n, n + 2)  # (..., T, h, dh) <-> (..., h, T, dh)
    flip = (*range(n + 1), n + 2, n + 1)

    def split(t):
        return ad.transpose(ad.reshape(t, (*lead, tokens, n_heads, d // n_heads)), to_heads)

    q, k, v = (split(ad.add(ad.matmul(x, w), b)) for w, b in ((wq, bq), (wk, bk), (wv, bv)))
    attn = ad.softmax(ad.scale(ad.matmul(q, ad.transpose(k, flip)), 1.0 / np.sqrt(d // n_heads)))
    out = ad.reshape(ad.transpose(ad.matmul(attn, v), to_heads), (*lead, tokens, d))
    return ad.add(ad.matmul(out, wo), bo)


@pytest.mark.parametrize("lead", [(3,), (2, 3)])
def test_self_attention_matches_reference_graph(lead):
    rng = np.random.default_rng(2)
    d, heads = 8, 2
    arrays = [rng.normal(size=(*lead, 5, d))]
    for _ in range(4):
        arrays += [rng.normal(size=(d, d)) * 0.5, rng.normal(size=d)]
    check_against_reference(lambda x, *params: ad.self_attention(x, params, heads),
                            lambda *t: reference_attention(*t, heads), arrays, 3)


def test_constant_leaves_get_no_gradient():
    rng = np.random.default_rng(4)
    x = ad.constant(rng.normal(size=(2, 3, 4)))
    w, b = ad.Tensor(rng.normal(size=(4, 5))), ad.Tensor(rng.normal(size=5))
    ad.backward(ad.gelu(ad.linear(x, w, b)))
    assert x.grad is None
    assert w.grad.shape == (4, 5) and b.grad.shape == (5,)


def random_inputs(rng, n):
    """n (PatchSet, HandState) samples and the same samples as one batch."""
    samples = [(make_patches(rng.normal(size=(512, 3)) * 0.5, PatchConfig()),
                HandState(rng.normal(size=3), np.array([1.0, 0, 0, 0, 1, 0]))) for _ in range(n)]
    batch = (np.array([ps.patches.reshape(16, -1) for ps, _ in samples]),
             np.array([ps.centers for ps, _ in samples]),
             np.array([hs.vector() for _, hs in samples]))
    return samples, batch


def graph_logits(params, patch_flat, centers, hand):
    labels = np.zeros(patch_flat.shape[:2], dtype=bool)
    loss = enc.batch_loss_graph(params, CFG, patch_flat, centers, hand, labels)
    return loss._parents[0].values


def test_inference_is_bit_equal_to_graph_logits():
    rng = np.random.default_rng(5)
    params = init_encoder_params(CFG, seed=3)
    samples, batch = random_inputs(rng, 3)
    assert np.array_equal(enc.batch_logits(params, CFG, *batch), graph_logits(params, *batch))
    for i, (ps, hs) in enumerate(samples):
        one = tuple(a[i : i + 1] for a in batch)
        emb, _ = enc.encode(params, ps, hs, CFG)
        direct = enc.decode_contact(params, emb, CFG)
        assert np.array_equal(direct, enc.batch_logits(params, CFG, *one)[0])
        assert np.array_equal(direct, graph_logits(params, *one)[0])
