"""Minimal reverse-mode automatic differentiation over float64 numpy arrays.

Leaf tensors hold parameters; `constant` leaves hold model inputs, which
backward() neither visits nor differentiates. Each op records one VJP that
returns the gradient of every parent, and backward() walks the graph in
reverse topological order. Everything stays in 64-bit so finite-difference
checks at h=1e-5 are meaningful. Every op takes its value from one plain
numpy function; `forward` collects them under the op names, so a model
written against "ops" runs as a graph with this module and as graph-free
inference with `forward`, and both give bit-identical values. `linear` runs
forward and VJPs as 2-D GEMMs over the flattened leading dims;
`self_attention` is one node with one QKV GEMM and a hand-written VJP,
dS = P * (dP - rowsum(dP * P)) (FlashAttention's, without tiling).
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
from scipy.special import erf

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT2PI = 1.0 / np.sqrt(2.0 * np.pi)


class Tensor:
    __slots__ = ("values", "grad", "constant", "_parents", "_vjp")

    def __init__(self, values, parents=(), vjp=None, constant=False):
        self.values = np.asarray(values, dtype=np.float64)
        self.grad = None
        self.constant = constant
        self._parents = tuple(parents)
        self._vjp = vjp

    @property
    def shape(self):
        return self.values.shape

    def __repr__(self):
        return f"Tensor(shape={self.values.shape}, leaf={not self._parents})"


def constant(values) -> Tensor:
    """A leaf that backward() treats as data: no gradient, no VJP."""
    return Tensor(values, constant=True)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient back down to the original operand shape."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


# ------------------------------------------------------ numpy forward functions


def _linear(x, w, b):
    """x @ w + b over the last axis, as one 2-D GEMM over the leading dims."""
    out = x.reshape(-1, x.shape[-1]) @ w
    out += b  # in place: a fresh array per large op costs page faults
    return out.reshape(*x.shape[:-1], w.shape[1])


def _gelu(x):
    """GELU and the normal CDF it scales x by."""
    cdf = erf(x * _INV_SQRT2)
    cdf += 1.0
    cdf *= 0.5
    return x * cdf, cdf


def _softmax(x):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _layer_norm(x, gamma, beta, eps=1e-5):
    """Normalized output, the standardized input and 1 / std."""
    xhat = x - x.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(np.mean(xhat * xhat, axis=-1, keepdims=True) + eps)
    xhat *= inv
    out = xhat * gamma
    out += beta
    return out, xhat, inv


def _softplus(x):
    x = np.asarray(x, dtype=np.float64)
    return np.log1p(np.exp(-np.abs(x))) + np.maximum(x, 0.0)


def _bce_with_logits_mean(z, y) -> float:
    """Mean binary cross-entropy in the stable form softplus(z) - z*y."""
    z, y = np.asarray(z, dtype=np.float64), np.asarray(y, dtype=np.float64)
    return float(np.mean(_softplus(z) - z * y))


def _heads(t, n_heads):  # (..., T, d) -> (..., heads, T, d / heads)
    return np.swapaxes(t.reshape(*t.shape[:-1], n_heads, -1), -2, -3)


def _merge(t):  # (..., heads, T, dh) -> (..., T, heads * dh)
    return np.swapaxes(t, -2, -3).reshape(*t.shape[:-3], t.shape[-2], -1)


def _attend(q, k, v, n_heads):
    """Attention of (..., Tq, d) queries over (..., Tk, d) keys and values: the
    (..., Tq, d) output with heads merged and the (..., heads, Tq, Tk) weights."""
    q, k, v = _heads(q, n_heads), _heads(k, n_heads), _heads(v, n_heads)
    p = _softmax((q @ np.swapaxes(k, -1, -2)) * (1.0 / np.sqrt(q.shape[-1])))
    return _merge(p @ v), p


def _self_attention(x, params, n_heads):
    """Self-attention over the tokens of x (..., T, d), and for the VJP
    [wq|wk|wv], the QKV projection, the weights and the merged heads."""
    wq, bq, wk, bk, wv, bv, wo, bo = params
    w_qkv = np.concatenate([wq, wk, wv], axis=1)
    qkv = _linear(x, w_qkv, np.concatenate([bq, bk, bv]))
    heads, p = _attend(*np.split(qkv, 3, axis=-1), n_heads)
    return _linear(heads, wo, bo), w_qkv, qkv, p, heads


forward = SimpleNamespace(
    add=np.add, reshape=np.reshape, concat=np.concatenate, linear=_linear, softmax=_softmax,
    softplus=_softplus,
    gelu=lambda x: _gelu(x)[0],
    layer_norm=lambda x, gamma, beta, eps=1e-5: _layer_norm(x, gamma, beta, eps)[0],
    attention=_attend,
    self_attention=lambda x, params, n_heads: _self_attention(x, params, n_heads)[0],
    bce_with_logits_mean=_bce_with_logits_mean,
)


# ------------------------------------------------------------------ graph ops


def add(a: Tensor, b: Tensor) -> Tensor:
    return Tensor(a.values + b.values, (a, b),
                  lambda g: (_unbroadcast(g, a.values.shape), _unbroadcast(g, b.values.shape)))


def mul(a: Tensor, b: Tensor) -> Tensor:
    return Tensor(a.values * b.values, (a, b),
                  lambda g: (_unbroadcast(g * b.values, a.values.shape),
                             _unbroadcast(g * a.values, b.values.shape)))


def scale(a: Tensor, c: float) -> Tensor:
    return Tensor(a.values * c, (a,), lambda g: (g * c,))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    return Tensor(a.values @ b.values, (a, b), lambda g: (
        _unbroadcast(g @ np.swapaxes(b.values, -1, -2), a.values.shape),
        _unbroadcast(np.swapaxes(a.values, -1, -2) @ g, b.values.shape),
    ))


def _linear_vjp(x, w, g, need_x=True):
    """Gradients of x @ w + b for x, w and b, as 2-D GEMMs."""
    g2 = g.reshape(-1, g.shape[-1])
    gx = (g2 @ w.T).reshape(x.shape) if need_x else None
    return gx, x.reshape(-1, x.shape[-1]).T @ g2, g2.sum(axis=0)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b for x of any rank >= 1, w (d_in, d_out) and b (d_out,)."""
    return Tensor(_linear(x.values, w.values, b.values), (x, w, b),
                  lambda g: _linear_vjp(x.values, w.values, g, not x.constant))


def reshape(a: Tensor, shape) -> Tensor:
    return Tensor(a.values.reshape(shape), (a,), lambda g: (g.reshape(a.values.shape),))


def transpose(a: Tensor, axes) -> Tensor:
    inverse = np.argsort(axes)
    return Tensor(a.values.transpose(axes), (a,), lambda g: (g.transpose(inverse),))


def concat(tensors, axis: int) -> Tensor:
    offsets = np.cumsum([0] + [t.values.shape[axis] for t in tensors])
    return Tensor(np.concatenate([t.values for t in tensors], axis=axis), tensors,
                  lambda g: tuple(np.split(g, offsets[1:-1], axis=axis)))


def narrow(a: Tensor, axis: int, start: int, length: int) -> Tensor:
    sl = (slice(None),) * (axis % a.values.ndim) + (slice(start, start + length),)

    def vjp(g):
        out = np.zeros_like(a.values)
        out[sl] = g
        return (out,)

    return Tensor(a.values[sl], (a,), vjp)


def gelu(a: Tensor) -> Tensor:
    x = a.values
    out, cdf = _gelu(x)
    return Tensor(out, (a,), lambda g: (g * (cdf + x * (np.exp(-0.5 * x * x) * _INV_SQRT2PI)),))


def softmax(a: Tensor) -> Tensor:
    y = _softmax(a.values)
    return Tensor(y, (a,), lambda g: (y * (g - np.sum(g * y, axis=-1, keepdims=True)),))


def layer_norm(a: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    out, xhat, inv = _layer_norm(a.values, gamma.values, beta.values, eps)

    def vjp(g):
        dxhat = g * gamma.values
        m1 = dxhat.mean(axis=-1, keepdims=True)
        gx = dxhat * xhat
        m2 = gx.mean(axis=-1, keepdims=True)
        dgamma = _unbroadcast(np.multiply(g, xhat, out=gx), gamma.values.shape)
        dxhat -= m1
        dxhat -= xhat * m2
        dxhat *= inv
        return dxhat, dgamma, _unbroadcast(g, beta.values.shape)

    return Tensor(out, (a, gamma, beta), vjp)


def self_attention(x: Tensor, params, n_heads: int) -> Tensor:
    """Self-attention over x (..., T, d) as one node; params are the (d, d)
    weights and (d,) biases wq, bq, wk, bk, wv, bv, wo, bo."""
    out, w_qkv, qkv, p, heads = _self_attention(x.values, [t.values for t in params], n_heads)

    def vjp(g):
        dheads, dwo, dbo = _linear_vjp(heads, params[6].values, g)
        dh = _heads(dheads, n_heads)
        q, k, v = (_heads(t, n_heads) for t in np.split(qkv, 3, axis=-1))
        dp = dh @ np.swapaxes(v, -1, -2)
        ds = p * (dp - np.sum(dp * p, axis=-1, keepdims=True)) * (1.0 / np.sqrt(q.shape[-1]))
        dqkv = np.concatenate([_merge(ds @ k), _merge(np.swapaxes(ds, -1, -2) @ q),
                               _merge(np.swapaxes(p, -1, -2) @ dh)], axis=-1)
        dx, dw, db = _linear_vjp(x.values, w_qkv, dqkv)
        dq, dk, dv = zip(np.split(dw, 3, axis=1), np.split(db, 3))
        return (dx, *dq, *dk, *dv, dwo, dbo)

    return Tensor(out, (x, *params), vjp)


def bce_with_logits_mean(logits: Tensor, labels: np.ndarray) -> Tensor:
    z = logits.values
    y = np.asarray(labels, dtype=np.float64)
    return Tensor(_bce_with_logits_mean(z, y), (logits,),
                  lambda g: (g * (1.0 / (1.0 + np.exp(-z)) - y) / z.size,))


def backward(root: Tensor) -> None:
    """Accumulate gradients of `root` (any shape; seeded with ones) into
    every reachable non-constant tensor's .grad."""
    order: list[Tensor] = []
    seen: set[int] = set()
    stack = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen and not p.constant:
                stack.append((p, False))
    for node in order:
        node.grad = None
    root.grad = np.ones_like(root.values)
    for node in reversed(order):
        if node.grad is None or not node._parents:
            continue
        for parent, g in zip(node._parents, node._vjp(node.grad)):
            if parent.constant:
                continue
            parent.grad = g if parent.grad is None else parent.grad + g
