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

All randomness (batch order, dropout masks, validation split) derives
from the trainer seed through tagged subseeds, so identical configs give
bit-identical runs.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import datagen, losses, networks
from .errors import ConfigError, NonFiniteLossError, ShapeError
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
    """Slot variables for the optimizer; keys mirror the parameter dict."""

    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def optimizer_step(params: networks.ModelParams, grads: dict, state: OptState,
                   cfg: TrainerConfig) -> OptState:
    """In-place parameter update; returns the advanced state."""
    tensors = params.tensors()
    state.step += 1
    t = state.step
    for name in sorted(grads):
        g = grads[name]
        theta = tensors[name]
        if g.shape != theta.shape:
            raise ShapeError(f"gradient {name} shape {g.shape} != parameter {theta.shape}")
        if cfg.optimizer == "sgd":
            theta -= cfg.learning_rate * g
        elif cfg.optimizer == "momentum":
            v = state.v.setdefault(name, np.zeros_like(theta))
            v *= cfg.momentum
            v += g
            theta -= cfg.learning_rate * v
        else:
            m = state.m.setdefault(name, np.zeros_like(theta))
            v = state.v.setdefault(name, np.zeros_like(theta))
            m *= cfg.adam_beta1
            m += (1.0 - cfg.adam_beta1) * g
            v *= cfg.adam_beta2
            v += (1.0 - cfg.adam_beta2) * (g * g)
            mhat = m / (1.0 - cfg.adam_beta1 ** t)
            vhat = v / (1.0 - cfg.adam_beta2 ** t)
            theta -= cfg.learning_rate * mhat / (np.sqrt(vhat) + cfg.adam_eps)
    return state


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
        cols = ["step", "task", "xdom", "fair", "total", "grad_norm",
                "linked_ce", "shared_ce", "val_y_l", "val_y_s", "val_overall"]
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(cols)
            for rec in self.steps:
                ev = evals_by_step.get(rec.step)
                row = [rec.step, repr(rec.task), repr(rec.xdom), repr(rec.fair),
                       repr(rec.total), repr(rec.grad_norm),
                       "" if rec.linked_ce is None else repr(rec.linked_ce),
                       "" if rec.shared_ce is None else repr(rec.shared_ce)]
                if ev is None:
                    row += ["", "", ""]
                else:
                    row += ["" if ev.y_l_accuracy is None else repr(ev.y_l_accuracy),
                            "" if ev.y_s_accuracy is None else repr(ev.y_s_accuracy),
                            repr(ev.overall_accuracy)]
                writer.writerow(row)


def _group_ce(probs: np.ndarray, labels: np.ndarray, mask: np.ndarray) -> float | None:
    if not mask.any():
        return None
    picked = probs[np.flatnonzero(mask), labels[mask]]
    return float(-np.log(picked).mean())


def train(params: networks.ModelParams, source_pool: datagen.Dataset,
          plan: datagen.SplitPlan, loss_cfg: losses.LossConfig,
          trainer_cfg: TrainerConfig, val_set: datagen.Dataset | None = None):
    """Run the loop; returns (final params, best-validation params, log).

    When ``val_set`` is None the pool is split 80/20 per source domain
    with a seed derived from the trainer seed; otherwise the pool is
    used for training as given. The best snapshot maximizes validation
    accuracy over linked classes (strict improvement, earliest wins),
    falling back to overall accuracy when the validation split contains
    no linked-class samples.
    """
    from . import evalsel  # deferred: evalsel imports this module

    loss_cfg = loss_cfg.resolved()
    if val_set is None:
        train_set, val_set = datagen.split_train_val(
            source_pool, subseed(trainer_cfg.seed, SEED_TAG_VAL_SPLIT))
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
            grad_norm = math.sqrt(sum(float((g * g).sum()) for g in grads.values()))
            log.steps.append(StepRecord(
                step=step, task=fl.task, xdom=fl.xdom, fair=fl.fair, total=fl.total,
                grad_norm=grad_norm,
                linked_ce=_group_ce(fp.probs, ann.labels, ann.linked_mask),
                shared_ce=_group_ce(fp.probs, ann.labels, ~ann.linked_mask)))
            optimizer_step(params, grads, state, trainer_cfg)
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
