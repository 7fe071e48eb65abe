"""Mini-batch training loop with deterministic logging and snapshots.

One step: sample batch -> features h = F(x) -> projections z = P(h) and
logits = G(h) -> combined loss on (logits, z) -> backprop -> optimizer
update. Periodic evaluation on a validation split selects the snapshot
with the best validation accuracy over linked classes.

Optimizer recurrences (eta = learning rate, g = gradient):

  sgd        theta <- theta - eta * g
  momentum   v <- mu * v + g;  theta <- theta - eta * v          (v0 = 0)
  adam       m <- b1*m + (1-b1)*g;  v <- b2*v + (1-b2)*g^2;
             mhat = m/(1-b1^t);  vhat = v/(1-b2^t);
             theta <- theta - eta * mhat / (sqrt(vhat) + eps)    (t from 1)

Each recurrence runs once per step over the model's whole flat parameter
vector (``ModelParams.flat``), not tensor by tensor.

All randomness (batch order, dropout masks, validation split) derives
from the trainer seed through tagged subseeds, so identical configs give
bit-identical runs.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field, fields

import numpy as np

from . import datagen, losses, ndcore, networks
from .errors import ConfigError, ContractError, NonFiniteLossError, ShapeError, require_finite
from .seeding import rng_for, subseed

OPTIMIZERS = ("sgd", "momentum", "adam")

SEED_TAG_BATCHES = "batches"
SEED_TAG_DROPOUT = "dropout"
SEED_TAG_VAL_SPLIT = "val-split-draw"


@dataclass(frozen=True)
class TrainerConfig:
    learning_rate: float = 1e-3
    batch_size: int = 64
    optimizer: str = "adam"
    max_steps: int = 500
    eval_every: int = 50
    seed: int = 0
    dropout: float = 0.0
    stratified_batches: bool = False
    selection_metric: str = "y_l"   # snapshot criterion: "y_l" or "overall"
    momentum: float = 0.9
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8

    def __post_init__(self):
        require_finite(learning_rate=self.learning_rate, momentum=self.momentum,
                       adam_beta1=self.adam_beta1, adam_beta2=self.adam_beta2,
                       adam_eps=self.adam_eps)
        if self.learning_rate <= 0:
            raise ConfigError(f"learning_rate must be > 0, got {self.learning_rate}")
        if not self.max_steps >= self.eval_every >= 1:
            raise ConfigError(
                f"need max_steps >= eval_every >= 1, got {self.max_steps} / {self.eval_every}")
        if self.batch_size < 2:
            raise ConfigError(f"batch_size must be >= 2, got {self.batch_size}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.optimizer not in OPTIMIZERS:
            raise ConfigError(f"optimizer must be one of {OPTIMIZERS}, got {self.optimizer!r}")
        if self.selection_metric not in ("y_l", "overall"):
            raise ConfigError(f"selection_metric must be 'y_l' or 'overall'")


@dataclass
class OptState:
    """Optimizer state over the flat parameter vector.

    ``grad`` holds the packed gradient of the latest step and ``grad_sq``
    its squares. ``m``/``v`` are the slot vectors (momentum keeps its
    velocity in ``v``; sgd has none). Every vector is allocated on the
    first step, sized to the model, and reused after.
    """

    step: int = 0
    m: np.ndarray | None = None
    v: np.ndarray | None = None
    grad: np.ndarray | None = None
    grad_sq: np.ndarray | None = None
    scratch: tuple[np.ndarray, np.ndarray] | None = None


def optimizer_step(params: networks.ModelParams, grads: dict, state: OptState,
                   cfg: TrainerConfig) -> OptState:
    """In-place update of ``params.flat``; returns the advanced state.

    ``grads`` names every parameter tensor, or every one but the
    projection head's (``params.p_names``), as ``networks.backward_pass``
    gives when P was skipped. It is packed into one flat gradient and the
    update runs once over the whole vector, or over the F and G prefix
    ``flat[:params.fg_size]`` when P's gradients are absent: P and its
    slots are then left as they are. Each updated element sees the same
    float operations, in the same order, as the recurrences in the module
    docstring applied tensor by tensor. Where P's gradients are zero from
    the first step on, as under ERM, leaving P alone gives the same bits
    as updating it with those zeros: its slots stay 0 and its update is
    +0.0.
    """
    segments = params.segments
    if state.grad is None:
        state.grad, state.grad_sq = np.empty_like(params.flat), np.empty_like(params.flat)
        state.scratch = (np.empty_like(params.flat), np.empty_like(params.flat))
    views = params.tensors()
    for name, grad in grads.items():
        if name not in segments:
            raise ContractError(f"gradient {name!r} names no parameter")
        if grad.shape != views[name].shape:
            raise ShapeError(f"gradient {name} shape {grad.shape} != parameter "
                             f"{views[name].shape}")
        state.grad[segments[name]] = grad.reshape(-1)
    size = params.flat.size
    if len(grads) != len(segments):
        missing = tuple(name for name in segments if name not in grads)
        if missing != params.p_names:
            raise ContractError(f"no gradient for parameter {missing[0]!r}")
        size = params.fg_size
    theta, g, grad_sq = params.flat[:size], state.grad[:size], state.grad_sq[:size]
    tmp, delta = (buf[:size] for buf in state.scratch)
    np.multiply(g, g, out=grad_sq)

    state.step += 1
    t = state.step
    lr = cfg.learning_rate
    if cfg.optimizer == "sgd":
        np.multiply(g, lr, out=delta)
    elif cfg.optimizer == "momentum":
        if state.v is None:
            state.v = np.zeros_like(params.flat)
        v = state.v[:size]
        v *= cfg.momentum
        v += g
        np.multiply(v, lr, out=delta)
    else:
        if state.m is None:
            state.m, state.v = np.zeros_like(params.flat), np.zeros_like(params.flat)
        m, v = state.m[:size], state.v[:size]
        m *= cfg.adam_beta1
        m += np.multiply(g, 1.0 - cfg.adam_beta1, out=tmp)
        v *= cfg.adam_beta2
        v += np.multiply(grad_sq, 1.0 - cfg.adam_beta2, out=tmp)
        np.divide(v, 1.0 - cfg.adam_beta2 ** t, out=tmp)          # vhat
        np.sqrt(tmp, out=tmp)
        tmp += cfg.adam_eps
        np.divide(m, 1.0 - cfg.adam_beta1 ** t, out=delta)      # mhat
        delta *= lr
        delta /= tmp
    theta -= delta
    return state


def grad_norm(params: networks.ModelParams, grads: dict, state: OptState) -> float:
    """Euclidean norm of the gradient the latest ``optimizer_step`` applied.

    Each tensor's segment of ``state.grad_sq`` is summed on its own and
    the sums are added in ``grads`` order, which gives the same bits as
    ``sqrt(sum((g * g).sum() for g in grads.values()))``.
    """
    sq, segments = state.grad_sq, params.segments
    return math.sqrt(sum(float(sq[segments[name]].sum()) for name in grads))


@dataclass
class StepRecord:
    step: int
    task: float
    xdom: float
    fair: float
    total: float
    grad_norm: float
    linked_ce: float | None
    shared_ce: float | None


@dataclass
class EvalRecord:
    step: int
    y_l_accuracy: float | None
    y_s_accuracy: float | None
    overall_accuracy: float
    selected: bool


@dataclass
class TrainLog:
    steps: list[StepRecord] = field(default_factory=list)
    evals: list[EvalRecord] = field(default_factory=list)
    best_step: int | None = None

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.steps:
                fh.write(json.dumps({"kind": "step", **rec.__dict__}) + "\n")
            for rec in self.evals:
                fh.write(json.dumps({"kind": "eval", **rec.__dict__}) + "\n")

    def write_summary_csv(self, path) -> None:
        evals_by_step = {e.step: e for e in self.evals}
        step_cols = [f.name for f in fields(StepRecord)]
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(step_cols + ["val_y_l", "val_y_s", "val_overall"])
            for rec in self.steps:
                ev = evals_by_step.get(rec.step)
                row = [getattr(rec, name) for name in step_cols]
                row += ([None] * 3 if ev is None else
                        [ev.y_l_accuracy, ev.y_s_accuracy, ev.overall_accuracy])
                writer.writerow(map(datagen.csv_cell, row))


def _group_ce(ce: np.ndarray, mask: np.ndarray) -> float | None:
    """Mean of the per-sample cross-entropies ``ce`` over ``mask``."""
    if not mask.any():
        return None
    return float(ce[mask].mean())


def train_val_split(pool: datagen.Dataset, trainer_cfg: TrainerConfig):
    """(train set, validation set): the 80/20 per-domain split that ``train``
    draws from ``pool`` when it is given no ``val_set``. A caller that splits
    first can free the pool before the loop."""
    return datagen.split_train_val(pool, subseed(trainer_cfg.seed, SEED_TAG_VAL_SPLIT))


def train(params: networks.ModelParams, source_pool: datagen.Dataset,
          plan: datagen.SplitPlan, loss_cfg: losses.LossConfig,
          trainer_cfg: TrainerConfig, val_set: datagen.Dataset | None = None):
    """Run the loop; returns (final params, best-validation params, log).

    When ``val_set`` is None the pool is split by ``train_val_split``;
    otherwise the pool is used for training as given. The best snapshot maximizes validation
    accuracy over linked classes (strict improvement, earliest wins),
    falling back to overall accuracy when the validation split contains
    no linked-class samples.
    """
    from . import evalsel  # deferred: evalsel imports this module

    loss_cfg = loss_cfg.resolved()
    if val_set is None:
        train_set, val_set = train_val_split(source_pool, trainer_cfg)
    else:
        train_set = source_pool

    linked_lookup = np.isin(train_set.labels, sorted(plan.linked_classes))
    project = loss_cfg.lambda_xdom > 0   # z feeds nothing but the contrastive term
    sampler = datagen.BatchSampler(train_set, trainer_cfg.batch_size,
                                   subseed(trainer_cfg.seed, SEED_TAG_BATCHES),
                                   stratified=trainer_cfg.stratified_batches)
    state = OptState()
    log = TrainLog()
    best_params = params.clone()
    best_score = -math.inf
    best_step = None

    def run_eval(step: int) -> None:
        nonlocal best_score, best_step, best_params
        if len(val_set) == 0:
            return
        report = evalsel.evaluate(params, val_set, plan)
        score = report.y_l_accuracy
        if trainer_cfg.selection_metric == "overall" or score is None:
            score = report.overall_accuracy
        selected = score > best_score
        if selected:
            best_score = score
            best_step = step
            best_params = params.clone()
        log.evals.append(EvalRecord(step=step, y_l_accuracy=report.y_l_accuracy,
                                    y_s_accuracy=report.y_s_accuracy,
                                    overall_accuracy=report.overall_accuracy,
                                    selected=selected))

    step = 0
    epoch = 0
    done = False
    while not done:
        for batch_idx in sampler.epoch_batches(epoch):
            step += 1
            x = train_set.features[batch_idx]
            ann = losses.BatchAnnotations(labels=train_set.labels[batch_idx],
                                          domains=train_set.domains[batch_idx],
                                          linked_mask=linked_lookup[batch_idx])
            drng = (rng_for(trainer_cfg.seed, SEED_TAG_DROPOUT, step)
                    if trainer_cfg.dropout > 0.0 else None)
            fp = networks.forward_pass(params, x, dropout_rate=trainer_cfg.dropout,
                                       dropout_rng=drng, project=project)
            fl = losses.fond_loss(fp.logits, fp.z, ann, loss_cfg)
            if not math.isfinite(fl.total):
                raise NonFiniteLossError(step, {"task": fl.task, "xdom": fl.xdom,
                                                "fair": fl.fair, "total": fl.total})
            grads = networks.backward_pass(fp, fl.grad_logits, fl.grad_z)
            optimizer_step(params, grads, state, trainer_cfg)
            ndcore.check_finite(params.flat, f"parameters after step {step}")
            log.steps.append(StepRecord(
                step=step, task=fl.task, xdom=fl.xdom, fair=fl.fair, total=fl.total,
                grad_norm=grad_norm(params, grads, state),
                linked_ce=_group_ce(fl.ce, ann.linked_mask),
                shared_ce=_group_ce(fl.ce, ~ann.linked_mask)))
            if step % trainer_cfg.eval_every == 0:
                run_eval(step)
            if step >= trainer_cfg.max_steps:
                done = True
                break
        epoch += 1

    if trainer_cfg.max_steps % trainer_cfg.eval_every != 0:
        run_eval(trainer_cfg.max_steps)
    if best_step is None:
        best_params = params.clone()
        best_step = step
    log.best_step = best_step
    return params, best_params, log
