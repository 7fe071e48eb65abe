"""Three-headed MLP model: feature extractor, projection head, classifier.

The model factors as

    features F : inputs -> h        (MLP, ReLU hidden layers)
    projection P : h -> z           (MLP, final layer linear, rows l2-normalized)
    classifier G : h -> logits      (single affine layer)

The classification path is G(F(x)) and never consumes z; the contrastive
path is P(F(x)) and never consumes logits. Dropout, when enabled, is
applied to h once and both heads read the dropped h.

Parameters live in a flat name -> array dict so the optimizer and the
checkpoint format can treat them uniformly.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass, field

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


@dataclass
class ModelParams:
    """Flat parameter store; keys look like ``f.w0``, ``f.b0``, ``g.w``."""

    config: NetworkConfig
    seed: int
    _tensors: dict[str, np.ndarray] = field(default_factory=dict)

    def tensors(self) -> dict[str, np.ndarray]:
        return self._tensors

    def clone(self) -> "ModelParams":
        copies = {k: v.copy() for k, v in self._tensors.items()}
        return ModelParams(config=self.config, seed=self.seed, _tensors=copies)

    def _layers(self, prefix: str) -> list[tuple[np.ndarray, np.ndarray]]:
        out = []
        i = 0
        while f"{prefix}.w{i}" in self._tensors:
            out.append((self._tensors[f"{prefix}.w{i}"], self._tensors[f"{prefix}.b{i}"]))
            i += 1
        return out


def glorot_limit(fan_in: int, fan_out: int) -> float:
    return float(np.sqrt(6.0 / (fan_in + fan_out)))


def init_params(config: NetworkConfig, seed: int) -> ModelParams:
    """Uniform Glorot-bounded weights, zero biases, deterministic in seed."""
    rng = np.random.default_rng(seed)
    tensors: dict[str, np.ndarray] = {}
    for prefix, dims in (("f", config.f_layer_dims()), ("p", config.p_layer_dims())):
        for i, (fan_in, fan_out) in enumerate(dims):
            lim = glorot_limit(fan_in, fan_out)
            tensors[f"{prefix}.w{i}"] = rng.uniform(-lim, lim, size=(fan_in, fan_out))
            tensors[f"{prefix}.b{i}"] = np.zeros(fan_out)
    lim = glorot_limit(config.feature_dim, config.num_classes)
    tensors["g.w"] = rng.uniform(-lim, lim, size=(config.feature_dim, config.num_classes))
    tensors["g.b"] = np.zeros(config.num_classes)
    return ModelParams(config=config, seed=int(seed), _tensors=tensors)


def _mlp_forward(x, layers, final_relu: bool = False):
    """Affine stack with ReLU between layers; returns (out, caches)."""
    caches = []
    out = x
    for i, (w, b) in enumerate(layers):
        out, aff_cache = ndcore.affine_forward(out, w, b)
        if final_relu or i < len(layers) - 1:
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


def forward_features(params: ModelParams, x_batch) -> np.ndarray:
    x = ndcore.as_matrix(x_batch, "x_batch")
    if x.shape[1] != params.config.input_dim:
        raise ShapeError(
            f"x_batch has {x.shape[1]} columns, config expects {params.config.input_dim}"
        )
    h, _ = _mlp_forward(x, params._layers("f"))
    return h


def forward_projection(params: ModelParams, h_batch) -> np.ndarray:
    h = ndcore.as_matrix(h_batch, "h_batch")
    if h.shape[1] != params.config.feature_dim:
        raise ShapeError(
            f"h_batch has {h.shape[1]} columns, config expects {params.config.feature_dim}"
        )
    pre, _ = _mlp_forward(h, params._layers("p"))
    z, _ = ndcore.l2_normalize_rows(pre)
    return z


def forward_classifier(params: ModelParams, h_batch):
    """Returns (logits, probabilities)."""
    h = ndcore.as_matrix(h_batch, "h_batch")
    if h.shape[1] != params.config.feature_dim:
        raise ShapeError(
            f"h_batch has {h.shape[1]} columns, config expects {params.config.feature_dim}"
        )
    w, b = params.tensors()["g.w"], params.tensors()["g.b"]
    logits, _ = ndcore.affine_forward(h, w, b)
    return logits, ndcore.softmax_forward(logits)


@dataclass
class ForwardPass:
    """Activations and caches of one training-mode forward evaluation."""

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
    h, f_caches = _mlp_forward(x, params._layers("f"))

    mask = None
    if dropout_rate > 0.0:
        if dropout_rng is None:
            raise ContractError("dropout_rate > 0 requires a dropout_rng")
        mask = (dropout_rng.random(h.shape) >= dropout_rate) / (1.0 - dropout_rate)
        h = h * mask

    z = p_caches = norm_cache = None
    if project:
        pre, p_caches = _mlp_forward(h, params._layers("p"))
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

    Either upstream may be None: that head contributes nothing (its own
    parameters get explicit zero grads so the key set is stable, and the
    feature gradient is exactly the other head's contribution, with no
    zero-tensor additions).
    """
    params = fp._params
    grads: dict[str, np.ndarray] = {}
    contributions = []

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
        contributions.append(grad_h_from_p)
    else:
        for i in range(len(params.config.p_layer_dims())):
            grads[f"p.w{i}"] = np.zeros_like(params.tensors()[f"p.w{i}"])
            grads[f"p.b{i}"] = np.zeros_like(params.tensors()[f"p.b{i}"])

    if grad_logits is not None:
        grad_logits = ndcore.as_matrix(grad_logits, "grad_logits")
        if grad_logits.shape != fp.logits.shape:
            raise ShapeError(f"grad_logits{grad_logits.shape} vs logits{fp.logits.shape}")
        grad_h_from_g, gw, gb = ndcore.affine_backward(grad_logits, fp._g_cache)
        grads["g.w"] = gw
        grads["g.b"] = gb
        contributions.append(grad_h_from_g)
    else:
        grads["g.w"] = np.zeros_like(params.tensors()["g.w"])
        grads["g.b"] = np.zeros_like(params.tensors()["g.b"])

    if contributions:
        grad_h = contributions[0]
        for extra in contributions[1:]:
            grad_h = grad_h + extra
    else:
        grad_h = np.zeros_like(fp.h)
    if fp._dropout_mask is not None:
        grad_h = grad_h * fp._dropout_mask
    _, f_layer_grads = _mlp_backward(grad_h, fp._f_caches)
    for i, (gw_f, gb_f) in enumerate(f_layer_grads):
        grads[f"f.w{i}"] = gw_f
        grads[f"f.b{i}"] = gb_f

    for name, g in grads.items():
        want = params.tensors()[name].shape
        if g.shape != want:
            raise ShapeError(f"gradient {name} has shape {g.shape}, parameter has {want}")
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
    config = NetworkConfig(**cfg_d)
    return ModelParams(config=config, seed=int(meta["seed"]), _tensors=raw)
