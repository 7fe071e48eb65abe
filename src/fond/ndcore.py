"""Dense float64 tensor ops with hand-written backward passes.

The network topology used here is static, so there is no autodiff graph:
each differentiable op is a forward function returning arrays and a
matching backward function taking the forward's arrays that it reads,
which the caller keeps. Everything is 64-bit and deterministic.

The ops are plain kernels: they take 2-D float64 ``numpy.ndarray`` values
(1-D for a bias) of matching shapes, and they check neither their inputs
nor whether their outputs are finite. Inputs are checked once, where they
enter a module:
``networks.forward_pass`` checks the batch it is given (``as_matrix``),
``networks.backward_pass`` the upstream gradients, and the losses their
labels; only ``networks`` calls the affine, ReLU and normalization-backward
kernels, and only ``losses`` calls ``softmax_forward``. The one check left
here is on the data: ``l2_normalize_rows`` rejects a zero or non-finite norm.

The kernels write in place where the caller hands them the storage: the
affine backward kernels write the parameter gradients into the buffers
they are given (views into ``networks``' flat gradient vector), and
``relu_backward`` overwrites its upstream gradient, which the backward
pass made and reads no more.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateInputError, ShapeError

# Row norms below this are treated as degenerate rather than clamped;
# clamping would silently corrupt normalized-embedding geometry.
NORM_EPS = 1e-12


def as_matrix(a, name: str = "tensor") -> np.ndarray:
    """Coerce to a 2-D float64 array, rejecting other ranks."""
    out = np.asarray(a, dtype=np.float64)
    if out.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got shape {out.shape}")
    return out


def check_finite(a: np.ndarray, name: str) -> None:
    if not np.isfinite(a).all():
        raise DegenerateInputError(f"{name} contains non-finite values")


def affine_forward(x: np.ndarray, w: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """out[i, j] = sum_k x[i, k] * w[k, j] + bias[j]; the bias is added
    into the product's own storage."""
    out = x @ w
    out += bias
    return out


def affine_backward(upstream: np.ndarray, x: np.ndarray, w: np.ndarray,
                    grad_w: np.ndarray, grad_bias: np.ndarray) -> np.ndarray:
    """Gradients of the affine map of ``x`` by ``w``: writes the parameter
    gradients into ``grad_w`` and ``grad_bias`` (C-contiguous, of the
    weight's and the bias's shapes) and returns grad_x."""
    affine_param_backward(upstream, x, grad_w, grad_bias)
    return upstream @ w.T


def affine_param_backward(upstream: np.ndarray, x: np.ndarray, grad_w: np.ndarray,
                          grad_bias: np.ndarray) -> None:
    """The parameter half of ``affine_backward``, for a layer whose input
    needs no gradient: x.T @ upstream into ``grad_w`` and the column sums
    of ``upstream`` into ``grad_bias``."""
    np.matmul(x.T, upstream, out=grad_w)
    np.add.reduce(upstream, axis=0, out=grad_bias)


def relu_forward(x: np.ndarray) -> np.ndarray:
    """max(x, 0)."""
    return np.maximum(x, 0.0)


def relu_backward(upstream: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Zeroes ``upstream`` where the unit was off, in place; returns it.
    ``out`` is the forward's output: ``out > 0`` exactly where ``x > 0``
    (NaN and -0.0 included), and the next layer holds it anyway."""
    upstream *= out > 0.0
    return upstream


def softmax_forward(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax, shift-invariant via per-row max subtraction; the
    exponent and the division run in the shifted array's storage."""
    e = logits - logits.max(axis=1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=1, keepdims=True)
    return e


def l2_normalize_rows(x: np.ndarray):
    """Scale each row to unit Euclidean norm; returns (out, norms).

    A row whose norm is at most ``NORM_EPS``, or infinite or NaN (an
    overflowed row), raises instead of being clamped.
    """
    norms = np.sqrt((x * x).sum(axis=1))
    bad = np.flatnonzero(~((norms > NORM_EPS) & (norms < np.inf)))   # NaN fails both
    if bad.size:
        raise DegenerateInputError(f"row {bad[0]} has norm {norms[bad[0]]}, cannot normalize")
    return x / norms[:, None], norms


def l2_normalize_backward(upstream: np.ndarray, out: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """Backward of row normalization: (g - (g.out) out) / norms per row."""
    dot = (upstream * out).sum(axis=1, keepdims=True)
    return (upstream - dot * out) / norms[:, None]
