"""Dense float64 tensor ops with hand-written backward passes.

The network topology used here is static, so there is no autodiff graph:
each differentiable op is a forward function returning ``(output, cache)``
and a matching backward function consuming the cache. Everything is 64-bit
and deterministic; outputs are checked finite before they leave an op.

Tensors are plain 2-D ``numpy.ndarray`` values in row-major layout.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateInputError, ShapeError

Tensor2 = np.ndarray

# Row norms below this are treated as degenerate rather than clamped;
# clamping would silently corrupt normalized-embedding geometry.
NORM_EPS = 1e-12


def as_matrix(a, name: str = "tensor") -> Tensor2:
    """Coerce to a 2-D float64 array, rejecting other ranks."""
    out = np.asarray(a, dtype=np.float64)
    if out.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got shape {out.shape}")
    return out


def as_vector(a, name: str = "vector") -> np.ndarray:
    out = np.asarray(a, dtype=np.float64)
    if out.ndim != 1:
        raise ShapeError(f"{name} must be 1-D, got shape {out.shape}")
    return out


def check_finite(a: np.ndarray, name: str) -> np.ndarray:
    if not np.isfinite(a).all():
        raise DegenerateInputError(f"{name} contains non-finite values")
    return a


def affine_forward(x: Tensor2, w: Tensor2, bias: np.ndarray):
    """out[i, j] = sum_k x[i, k] * w[k, j] + bias[j]; returns (out, cache)."""
    x = as_matrix(x, "x")
    w = as_matrix(w, "w")
    bias = as_vector(bias, "bias")
    if x.shape[1] != w.shape[0]:
        raise ShapeError(f"cannot multiply x{x.shape} by w{w.shape}")
    if bias.shape[0] != w.shape[1]:
        raise ShapeError(f"bias{bias.shape} does not match w{w.shape}")
    out = x @ w + bias
    return check_finite(out, "affine output"), (x, w)


def affine_backward(upstream: Tensor2, cache):
    """Gradients of the affine map: (grad_x, grad_w, grad_bias)."""
    x, w = cache
    upstream = as_matrix(upstream, "upstream")
    if upstream.shape != (x.shape[0], w.shape[1]):
        raise ShapeError(
            f"upstream{upstream.shape} does not match output "
            f"({x.shape[0]}, {w.shape[1]})"
        )
    grad_x = upstream @ w.T
    grad_w = x.T @ upstream
    grad_bias = upstream.sum(axis=0)
    return grad_x, grad_w, grad_bias


def relu_forward(x: Tensor2):
    """max(x, 0); the cache is the output itself, since ``out > 0``
    exactly where ``x > 0`` (NaN and -0.0 included) and the next layer
    holds ``out`` anyway, so no copy of the input is kept."""
    x = as_matrix(x, "x")
    out = np.maximum(x, 0.0)
    return out, out


def relu_backward(upstream: Tensor2, cache) -> Tensor2:
    out = cache
    upstream = as_matrix(upstream, "upstream")
    if upstream.shape != out.shape:
        raise ShapeError(f"upstream{upstream.shape} does not match output{out.shape}")
    return upstream * (out > 0.0)


def softmax_forward(logits: Tensor2) -> Tensor2:
    """Row-wise softmax, shift-invariant via per-row max subtraction."""
    logits = as_matrix(logits, "logits")
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=1, keepdims=True)
    return check_finite(out, "softmax output")


def l2_normalize_rows(x: Tensor2):
    """Scale each row to unit Euclidean norm; returns (out, cache).

    Zero-norm rows raise instead of being clamped.
    """
    x = as_matrix(x, "x")
    norms = np.sqrt((x * x).sum(axis=1))
    bad = np.flatnonzero(norms <= NORM_EPS)
    if bad.size:
        raise DegenerateInputError(f"row {bad[0]} has norm <= {NORM_EPS}, cannot normalize")
    out = x / norms[:, None]
    return check_finite(out, "normalized rows"), (out, norms)


def l2_normalize_backward(upstream: Tensor2, cache) -> Tensor2:
    """Backward of row normalization: (g - (g.y) y) / ||x|| per row."""
    y, norms = cache
    upstream = as_matrix(upstream, "upstream")
    if upstream.shape != y.shape:
        raise ShapeError(f"upstream{upstream.shape} does not match output{y.shape}")
    dot = (upstream * y).sum(axis=1, keepdims=True)
    return (upstream - dot * y) / norms[:, None]
