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
embedding dumps run it with ``project=False`` and no dropout on one row
block at a time (``evalsel``), reading ``logits`` or ``h``. It computes
no softmax: the training loss (``losses.fond_loss``) takes the logits.
It records each layer's input, which ``backward_pass`` reads.

Parameters live in one flat float64 vector with named views into it
(``f.w0``, ``p.b1``, ``g.w``, ...), so the optimizer updates the whole
model in one pass and the checkpoint format stores the named tensors.
Gradients use the same layout: ``backward_pass`` writes each layer's
gradient into a ``ModelParams`` buffer and returns its flat vector.
"""

from __future__ import annotations

import io
import json
import math
import zipfile
from collections.abc import Mapping
from dataclasses import asdict, dataclass, field
from types import MappingProxyType

import numpy as np

from . import ndcore
from .errors import ConfigError, ContractError, ShapeError, strict_json, write_output

CHECKPOINT_VERSION = 1

# key for the JSON metadata record inside a checkpoint archive
_META_KEY = "__meta__"

# parameters one model may have: the trainer holds seven model-sized
# float64 vectors (parameters, gradient, three Adam slots, two
# snapshots), 896 MiB at this cap
MAX_PARAMS = 2**24


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
        # checked before ModelParams allocates, so an oversized network
        # exits as a config error, never as numpy's allocation failure
        size = sum(math.prod(shape) for _, shape in param_layout(self))
        if size > MAX_PARAMS:
            raise ConfigError(
                f"input_dim={self.input_dim}, num_classes={self.num_classes}, "
                f"feature_dim={self.feature_dim}, projection_dim={self.projection_dim}, "
                f"f_hidden={list(self.f_hidden)} and p_hidden={list(self.p_hidden)} "
                f"lay out {size} parameters, over the cap of 2**24")

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
    ``_heads`` maps each head ("f", "p", "g") to its layers' ``(w, b)``
    views, input layer first. The storage itself holds F and G first and
    P last: F and G fill ``flat[:fg_size]``, so a step that does not train
    P (the ``p.*`` tensors) updates one contiguous prefix.
    """

    config: NetworkConfig
    seed: int
    flat: np.ndarray | None = None
    fg_size: int = field(init=False, repr=False)
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
        self.fg_size = size - sum(math.prod(shape) for name, shape in layout
                                  if name.startswith("p."))
        views, start = {}, 0      # in storage order: F, G, then P
        for name, shape in sorted(layout, key=lambda item: item[0].startswith("p.")):
            views[name] = self.flat[start:start + math.prod(shape)].reshape(shape)
            start += math.prod(shape)
        self._views = MappingProxyType({name: views[name] for name, _ in layout})
        self._heads = {head: [] for head in "fpg"}
        tensors = iter(views.items())
        for (name, w), (_, b) in zip(tensors, tensors):    # each weight, then its bias
            self._heads[name[0]].append((w, b))

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


def _mlp_forward(x, layers, inputs: list):
    """Affine stack with ReLU between layers; appends each layer's input
    (``x``, then each ReLU's output) to ``inputs`` and returns the output."""
    for i, (w, b) in enumerate(layers):
        inputs.append(x)
        x = ndcore.affine_forward(x, w, b)
        if i < len(layers) - 1:
            x = ndcore.relu_forward(x)
    return x


def _mlp_backward(upstream, fp, head: str, out, input_grad: bool = True):
    """Writes the gradients of ``head``'s layers, as ``fp`` ran them, into
    their ``(grad_w, grad_b)`` views in ``out``; returns the gradient at the
    head's input, or None with ``input_grad=False``, which leaves it
    uncomputed. ``upstream`` is only read: the last layer has no ReLU, and
    every gradient the ReLU backward overwrites is one this loop made."""
    g, inputs, layers = upstream, fp._inputs[head], fp._params._heads[head]
    for i in reversed(range(len(layers))):      # layer 0 reads the input
        gw, gb = out._heads[head][i]
        if i > 0 or input_grad:
            g = ndcore.affine_backward(g, inputs[i], layers[i][0], gw, gb)
        else:
            ndcore.affine_param_backward(g, inputs[0], gw, gb)
        if i > 0:    # layer i's input is the output of layer i - 1's ReLU
            g = ndcore.relu_backward(g, inputs[i])
    return g if input_grad else None


@dataclass
class ForwardPass:
    """Activations of one forward evaluation, and what its backward reads."""

    h: np.ndarray            # post-dropout features fed to both heads
    z: np.ndarray | None     # unit-norm projections; None when P was skipped
    logits: np.ndarray
    _params: ModelParams
    _inputs: dict[str, list]     # head -> its layers' inputs, none for a skipped P
    _z_norms: np.ndarray | None
    _dropout_mask: np.ndarray | None


def forward_pass(params: ModelParams, x_batch, dropout_rate: float = 0.0,
                 dropout_rng: np.random.Generator | None = None,
                 project: bool = True) -> ForwardPass:
    """Full forward through F, dropout on h, then both heads.

    Inverted dropout: kept units are scaled by 1/(1-rate) so evaluation
    needs no rescaling. rate 0.0 draws nothing from the rng, and
    ``TrainerConfig`` keeps the rate in [0, 1). ``project=False`` skips the
    projection head P (``z`` is None), for objectives without a
    contrastive term; the mask is drawn before P, so every other output
    is unchanged. ``x_batch`` is the input checked here, for the ``ndcore``
    kernels: 2-D with ``input_dim`` columns (``ShapeError``), made float64.
    """
    x = ndcore.as_matrix(x_batch, "x_batch")
    if x.shape[1] != params.config.input_dim:
        raise ShapeError(
            f"x_batch has {x.shape[1]} columns, config expects {params.config.input_dim}"
        )
    inputs = {head: [] for head in "fpg"}
    h = _mlp_forward(x, params._heads["f"], inputs["f"])

    mask = None
    if dropout_rate > 0.0:
        if dropout_rng is None:
            raise ContractError("dropout_rate > 0 requires a dropout_rng")
        mask = (dropout_rng.random(h.shape) >= dropout_rate) / (1.0 - dropout_rate)
        h = h * mask if h is x else np.multiply(h, mask, out=h)   # identity F: h is x

    z = norms = None
    if project:
        z, norms = ndcore.l2_normalize_rows(_mlp_forward(h, params._heads["p"], inputs["p"]))

    logits = _mlp_forward(h, params._heads["g"], inputs["g"])
    return ForwardPass(h=h, z=z, logits=logits, _params=params, _inputs=inputs,
                       _z_norms=norms, _dropout_mask=mask)


def _check_upstream(name: str, grad: np.ndarray, output: np.ndarray) -> None:
    if grad.shape != output.shape:
        raise ShapeError(f"{name}{grad.shape} does not match the forward output{output.shape}")


def backward_pass(fp: ForwardPass, grad_logits, grad_z, out: ModelParams) -> np.ndarray:
    """Parameter gradients given upstream grads at the two heads, written
    into ``out`` (a gradient buffer: a ``ModelParams`` for the same config);
    returns ``out.flat``.

    ``grad_logits`` is required, since every objective has the task term.
    ``grad_z`` may be None: P then contributes nothing, its part of ``out``
    is left as it was, the result is the F and G prefix
    ``out.flat[:out.fg_size]`` (which ``trainer.optimizer_step`` takes to
    leave P alone), and the feature gradient is exactly G's.
    The gradient at F's input is not computed.
    Checked here, for the whole pass: each upstream gradient (a float64
    array from the losses) has the shape of its output (``ShapeError``).
    """
    _check_upstream("grad_logits", grad_logits, fp.logits)
    grad_h_from_p = None
    if grad_z is not None:
        if fp.z is None:
            raise ContractError("grad_z given, but the forward pass skipped the projection head")
        _check_upstream("grad_z", grad_z, fp.z)
        grad_pre = ndcore.l2_normalize_backward(grad_z, fp.z, fp._z_norms)
        grad_h_from_p = _mlp_backward(grad_pre, fp, "p", out)

    # G is one affine layer, so grad_h is a new array that this pass owns
    grad_h = _mlp_backward(grad_logits, fp, "g", out)
    if grad_h_from_p is not None:
        grad_h += grad_h_from_p
        del grad_h_from_p
    if fp._dropout_mask is not None:
        grad_h *= fp._dropout_mask
    _mlp_backward(grad_h, fp, "f", out, input_grad=False)
    return out.flat if grad_z is not None else out.flat[:out.fg_size]


def save_checkpoint(params: ModelParams, path) -> None:
    """Single-file archive of all tensors plus a JSON config header.

    Round trip is bit-exact: arrays are stored in their native binary
    layout, never through a decimal representation.
    """
    meta = {"version": CHECKPOINT_VERSION, "seed": params.seed,
            "config": asdict(params.config)}
    arrays = dict(params.tensors())
    arrays[_META_KEY] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
    buf = io.BytesIO()
    np.savez(buf, **arrays)
    write_output(path, [buf.getvalue()])


def load_checkpoint(path) -> ModelParams:
    """Inverse of ``save_checkpoint``. The archive must hold exactly the
    tensors that its stored config lays out, each with its layout shape,
    and only finite values (``DegenerateInputError`` otherwise)."""
    try:
        archive = np.load(path)   # an .npy file gives a bare array
        if not isinstance(archive, np.lib.npyio.NpzFile):
            raise ValueError("not an .npz archive")
        with archive:
            raw = {k: archive[k] for k in archive.files}
    except (ValueError, EOFError, zipfile.BadZipFile) as exc:
        raise ContractError(f"{path} is not a model checkpoint: {exc}") from None
    if _META_KEY not in raw:
        raise ContractError(f"{path} is not a model checkpoint (missing metadata)")
    try:
        meta = strict_json(raw.pop(_META_KEY).tobytes().decode("utf-8"), ContractError)
        version = meta.get("version")
    except (ValueError, AttributeError, RecursionError) as exc:
        raise ContractError(f"{path} metadata is not a JSON object: {exc}") from None
    if version != CHECKPOINT_VERSION:
        raise ContractError(f"unsupported checkpoint version {version}")
    try:
        params = ModelParams(config=NetworkConfig(**meta["config"]), seed=int(meta["seed"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ContractError(f"{path} has malformed metadata: {type(exc).__name__}: "
                            f"{exc}") from None
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
    ndcore.check_finite(params.flat, f"checkpoint {path}")
    return params
