"""MLP model: one feature trunk with a classifier head and a projection head.

The model factors as

    features F : inputs -> h        (MLP, ReLU hidden layers)
    projection P : h -> z           (MLP, final layer linear, rows l2-normalized)
    classifier G : h -> logits      (single affine layer)

The classification path is G(F(x)) and never consumes z; the contrastive
path is P(F(x)) and never consumes logits. Dropout, when enabled, is
applied to h once and both heads read the dropped h.

``forward_pass`` is the only forward. Training runs it with dropout and,
when the objective has a contrastive term, with P; prediction and
embedding dumps run it with ``project=False`` and no dropout, reading
``logits`` or ``h``. ``backward_pass`` consumes its caches.

Parameters live in one flat float64 vector with named views into it
(``f.w0``, ``p.b1``, ``g.w``, ...), so the optimizer updates the whole
model in one pass and the checkpoint format stores the named tensors.
"""

from __future__ import annotations

import io
import json
import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from . import ndcore
from .errors import ConfigError, ContractError, ShapeError

CHECKPOINT_VERSION = 1

# key for the JSON metadata record inside a checkpoint archive
_META_KEY = "__meta__"


@dataclass(frozen=True)
class NetworkConfig:
    """Widths of the three networks.

    ``f_hidden`` / ``p_hidden`` list the hidden ReLU widths; the output
    affine layers (to ``feature_dim`` / ``projection_dim``) are implicit.
    ``identity_features`` replaces F with the identity map (requires
    ``feature_dim == input_dim``); ``identity_projection`` reduces P to
    row normalization alone (requires ``projection_dim == feature_dim``).
    """

    input_dim: int
    num_classes: int
    feature_dim: int = 64
    projection_dim: int = 32
    f_hidden: tuple[int, ...] = (64, 64)
    p_hidden: tuple[int, ...] = (64,)
    identity_features: bool = False
    identity_projection: bool = False

    def __post_init__(self):
        object.__setattr__(self, "f_hidden", tuple(int(w) for w in self.f_hidden))
        object.__setattr__(self, "p_hidden", tuple(int(w) for w in self.p_hidden))
        dims = (self.input_dim, self.num_classes, self.feature_dim,
                self.projection_dim, *self.f_hidden, *self.p_hidden)
        if any(d < 1 for d in dims):
            raise ConfigError(f"all network dims must be >= 1, got {dims}")
        if self.projection_dim > self.feature_dim:
            raise ConfigError(
                f"projection_dim {self.projection_dim} must not exceed "
                f"feature_dim {self.feature_dim}"
            )
        if self.identity_features and self.feature_dim != self.input_dim:
            raise ConfigError("identity features require feature_dim == input_dim")
        if self.identity_projection and self.projection_dim != self.feature_dim:
            raise ConfigError("identity projection requires projection_dim == feature_dim")

    def f_layer_dims(self) -> list[tuple[int, int]]:
        """(fan_in, fan_out) per affine layer of F; empty for identity F."""
        if self.identity_features:
            return []
        widths = [self.input_dim, *self.f_hidden, self.feature_dim]
        return list(zip(widths[:-1], widths[1:]))

    def p_layer_dims(self) -> list[tuple[int, int]]:
        if self.identity_projection:
            return []
        widths = [self.feature_dim, *self.p_hidden, self.projection_dim]
        return list(zip(widths[:-1], widths[1:]))


def param_layout(config: NetworkConfig) -> list[tuple[str, tuple[int, ...]]]:
    """(name, shape) of every parameter tensor in storage order: the
    layers of F, then of P, each weight before its bias, then G."""
    layout = []
    for prefix, dims in (("f", config.f_layer_dims()), ("p", config.p_layer_dims())):
        for i, (fan_in, fan_out) in enumerate(dims):
            layout += [(f"{prefix}.w{i}", (fan_in, fan_out)), (f"{prefix}.b{i}", (fan_out,))]
    layout += [("g.w", (config.feature_dim, config.num_classes)), ("g.b", (config.num_classes,))]
    return layout


@dataclass(eq=False)
class ModelParams:
    """All parameters of one model in one contiguous float64 vector.

    ``flat`` owns the storage (zeros when not given). ``tensors()`` maps
    names like ``f.w0``, ``f.b0``, ``g.w`` to reshaped views of it in
    ``param_layout`` order, so writing through a view writes ``flat``,
    and the optimizer updates the whole model in one elementwise pass.
    ``segments`` maps each name to its slice of ``flat``.
    """

    config: NetworkConfig
    seed: int
    flat: np.ndarray | None = None
    segments: dict[str, slice] = field(init=False, repr=False)
    _views: MappingProxyType = field(init=False, repr=False)
    _heads: dict[str, list] = field(init=False, repr=False)

    def __post_init__(self):
        layout = param_layout(self.config)
        size = sum(math.prod(shape) for _, shape in layout)
        if self.flat is None:
            self.flat = np.zeros(size)
        if (self.flat.dtype != np.float64 or self.flat.shape != (size,)
                or not self.flat.flags.c_contiguous):
            raise ShapeError(f"flat parameters must be a contiguous float64 vector of "
                             f"{size} values, got {self.flat.dtype} {self.flat.shape}")
        self.segments, views, start = {}, {}, 0
        for name, shape in layout:
            stop = start + math.prod(shape)
            self.segments[name] = slice(start, stop)
            views[name] = self.flat[start:stop].reshape(shape)
            start = stop
        self._views = MappingProxyType(views)
        self._heads = {prefix: [(views[f"{prefix}.w{i}"], views[f"{prefix}.b{i}"])
                                for i in range(len(dims))]
                       for prefix, dims in (("f", self.config.f_layer_dims()),
                                            ("p", self.config.p_layer_dims()))}

    def tensors(self) -> Mapping[str, np.ndarray]:
        """Read-only name -> view mapping; write values in place."""
        return self._views

    def clone(self) -> "ModelParams":
        return ModelParams(config=self.config, seed=self.seed, flat=self.flat.copy())


def glorot_limit(fan_in: int, fan_out: int) -> float:
    return float(np.sqrt(6.0 / (fan_in + fan_out)))


def init_params(config: NetworkConfig, seed: int) -> ModelParams:
    """Uniform Glorot-bounded weights, zero biases, deterministic in seed."""
    rng = np.random.default_rng(seed)
    params = ModelParams(config=config, seed=int(seed))
    for w in params.tensors().values():
        if w.ndim == 2:
            lim = glorot_limit(*w.shape)
            w[...] = rng.uniform(-lim, lim, size=w.shape)
    return params


def _mlp_forward(x, layers):
    """Affine stack with ReLU between layers; returns (out, caches)."""
    caches = []
    out = x
    for i, (w, b) in enumerate(layers):
        out, aff_cache = ndcore.affine_forward(out, w, b)
        if i < len(layers) - 1:
            out, relu_cache = ndcore.relu_forward(out)
        else:
            relu_cache = None
        caches.append((aff_cache, relu_cache))
    return out, caches


def _mlp_backward(upstream, caches):
    """Returns (grad_input, [(grad_w, grad_b), ...] per layer)."""
    grads = [None] * len(caches)
    g = upstream
    for i in range(len(caches) - 1, -1, -1):
        aff_cache, relu_cache = caches[i]
        if relu_cache is not None:
            g = ndcore.relu_backward(g, relu_cache)
        g, gw, gb = ndcore.affine_backward(g, aff_cache)
        grads[i] = (gw, gb)
    return g, grads


@dataclass
class ForwardPass:
    """Activations and caches of one forward evaluation."""

    h: np.ndarray            # post-dropout features fed to both heads
    z: np.ndarray | None     # unit-norm projections; None when P was skipped
    logits: np.ndarray
    probs: np.ndarray
    _f_caches: list
    _p_caches: list | None
    _norm_cache: tuple | None
    _g_cache: tuple
    _dropout_mask: np.ndarray | None
    _params: ModelParams


def forward_pass(params: ModelParams, x_batch, dropout_rate: float = 0.0,
                 dropout_rng: np.random.Generator | None = None,
                 project: bool = True) -> ForwardPass:
    """Full forward through F, dropout on h, then both heads.

    Inverted dropout: kept units are scaled by 1/(1-rate) so evaluation
    needs no rescaling. rate 0.0 draws nothing from the rng.
    ``project=False`` skips the projection head P (``z`` is None), for
    objectives without a contrastive term; the mask is drawn before P,
    so every other output is unchanged.
    """
    if not 0.0 <= dropout_rate < 1.0:
        raise ConfigError(f"dropout_rate must be in [0, 1), got {dropout_rate}")
    x = ndcore.as_matrix(x_batch, "x_batch")
    if x.shape[1] != params.config.input_dim:
        raise ShapeError(
            f"x_batch has {x.shape[1]} columns, config expects {params.config.input_dim}"
        )
    h, f_caches = _mlp_forward(x, params._heads["f"])

    mask = None
    if dropout_rate > 0.0:
        if dropout_rng is None:
            raise ContractError("dropout_rate > 0 requires a dropout_rng")
        mask = (dropout_rng.random(h.shape) >= dropout_rate) / (1.0 - dropout_rate)
        h = h * mask

    z = p_caches = norm_cache = None
    if project:
        pre, p_caches = _mlp_forward(h, params._heads["p"])
        z, norm_cache = ndcore.l2_normalize_rows(pre)

    w, b = params.tensors()["g.w"], params.tensors()["g.b"]
    logits, g_cache = ndcore.affine_forward(h, w, b)
    probs = ndcore.softmax_forward(logits)
    return ForwardPass(h=h, z=z, logits=logits, probs=probs,
                       _f_caches=f_caches, _p_caches=p_caches,
                       _norm_cache=norm_cache, _g_cache=g_cache,
                       _dropout_mask=mask, _params=params)


def backward_pass(fp: ForwardPass, grad_logits, grad_z) -> dict[str, np.ndarray]:
    """Parameter gradients given upstream grads at the two heads.

    ``grad_logits`` is required, since every objective has the task term.
    ``grad_z`` may be None: P then contributes nothing, its parameters
    get explicit zero grads so the key set is stable, and the feature
    gradient is exactly G's. Keys come in the order P, G, F, which is
    the order ``trainer.grad_norm`` sums in.
    """
    params = fp._params
    grads: dict[str, np.ndarray] = {}
    grad_h_from_p = None
    if grad_z is not None:
        if fp.z is None:
            raise ContractError("grad_z given, but the forward pass skipped the projection head")
        grad_z = ndcore.as_matrix(grad_z, "grad_z")
        if grad_z.shape != fp.z.shape:
            raise ShapeError(f"grad_z{grad_z.shape} vs z{fp.z.shape}")
        grad_pre = ndcore.l2_normalize_backward(grad_z, fp._norm_cache)
        grad_h_from_p, p_layer_grads = _mlp_backward(grad_pre, fp._p_caches)
        for i, (gw, gb) in enumerate(p_layer_grads):
            grads[f"p.w{i}"] = gw
            grads[f"p.b{i}"] = gb
    else:
        for i in range(len(params.config.p_layer_dims())):
            grads[f"p.w{i}"] = np.zeros_like(params.tensors()[f"p.w{i}"])
            grads[f"p.b{i}"] = np.zeros_like(params.tensors()[f"p.b{i}"])

    grad_logits = ndcore.as_matrix(grad_logits, "grad_logits")
    if grad_logits.shape != fp.logits.shape:
        raise ShapeError(f"grad_logits{grad_logits.shape} vs logits{fp.logits.shape}")
    grad_h, grads["g.w"], grads["g.b"] = ndcore.affine_backward(grad_logits, fp._g_cache)
    if grad_h_from_p is not None:
        grad_h = grad_h_from_p + grad_h
    if fp._dropout_mask is not None:
        grad_h = grad_h * fp._dropout_mask
    _, f_layer_grads = _mlp_backward(grad_h, fp._f_caches)
    for i, (gw_f, gb_f) in enumerate(f_layer_grads):
        grads[f"f.w{i}"] = gw_f
        grads[f"f.b{i}"] = gb_f
    return grads


def save_checkpoint(params: ModelParams, path) -> None:
    """Single-file archive of all tensors plus a JSON config header.

    Round trip is bit-exact: arrays are stored in their native binary
    layout, never through a decimal representation.
    """
    cfg = params.config
    meta = {
        "version": CHECKPOINT_VERSION,
        "seed": params.seed,
        "config": {
            "input_dim": cfg.input_dim,
            "num_classes": cfg.num_classes,
            "feature_dim": cfg.feature_dim,
            "projection_dim": cfg.projection_dim,
            "f_hidden": list(cfg.f_hidden),
            "p_hidden": list(cfg.p_hidden),
            "identity_features": cfg.identity_features,
            "identity_projection": cfg.identity_projection,
        },
    }
    arrays = dict(params.tensors())
    arrays[_META_KEY] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
    buf = io.BytesIO()
    np.savez(buf, **arrays)
    with open(path, "wb") as fh:
        fh.write(buf.getvalue())


def load_checkpoint(path) -> ModelParams:
    """Inverse of ``save_checkpoint``. The archive must hold exactly the
    tensors that its stored config lays out, each with its layout shape."""
    with np.load(path) as archive:
        raw = {k: archive[k] for k in archive.files}
    if _META_KEY not in raw:
        raise ContractError(f"{path} is not a model checkpoint (missing metadata)")
    meta = json.loads(raw.pop(_META_KEY).tobytes().decode("utf-8"))
    if meta.get("version") != CHECKPOINT_VERSION:
        raise ContractError(f"unsupported checkpoint version {meta.get('version')}")
    cfg_d = dict(meta["config"])
    cfg_d["f_hidden"] = tuple(cfg_d["f_hidden"])
    cfg_d["p_hidden"] = tuple(cfg_d["p_hidden"])
    params = ModelParams(config=NetworkConfig(**cfg_d), seed=int(meta["seed"]))
    views = params.tensors()
    for name, view in views.items():
        if name not in raw:
            raise ContractError(f"{path} lacks tensor {name!r} of its config")
        if raw[name].shape != view.shape:
            raise ContractError(f"{path} tensor {name!r} has shape {raw[name].shape}, "
                                f"its config gives {view.shape}")
        view[...] = raw[name]
    extra = [name for name in raw if name not in views]
    if extra:
        raise ContractError(f"{path} has tensor {extra[0]!r}, which its config lacks")
    return params
