"""Mini-batch training loop with deterministic logging and snapshots.

One step: sample batch -> features h = F(x) -> projections z = P(h) and
logits = G(h) -> combined loss on (logits, z) -> backprop -> optimizer
update. ``train`` runs the steps as one loop, which evaluates a validation
split after every ``eval_every``-th step and the last, and keeps the
snapshot with the best validation accuracy over linked classes.

Optimizer recurrences (eta = learning rate, g = gradient):

  sgd        theta <- theta - eta * g
  momentum   v <- mu * v + g;  theta <- theta - eta * v          (v0 = 0)
  adam       m <- b1*m + (1-b1)*g;  v <- b2*v + (1-b2)*g^2;
             mhat = m/(1-b1^t);  vhat = v/(1-b2^t);
             theta <- theta - eta * mhat / (sqrt(vhat) + eps)    (t from 1)

Each recurrence runs once per step over the model's whole flat parameter
vector (``ModelParams.flat``) and the flat gradient ``backward_pass`` returns,
which it overwrites as scratch (the next backward pass rewrites it).

All randomness (batch order, dropout masks, validation split) derives
from the trainer seed through tagged subseeds, so identical configs give
bit-identical runs. Step k's dropout masks come from the stream
``rng_for(seed, "dropout", k)``. ``dropout_streams`` builds step 1's
generator with ``rng_for`` and derives every later step's starting state
in one pass (``seeding.rng_states``); each step reseeds the same
generator with its state, so it draws the bits ``rng_for`` would give.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field, fields

import numpy as np

from . import datagen, evalsel, losses, ndcore, networks
from .errors import ConfigError, ContractError, NonFiniteLossError, require_finite
from .seeding import rng_for, rng_states, subseed

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
    stratified_batches: bool = False   # must stay False; the provenance names it
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
            raise ConfigError(f"selection_metric must be 'y_l' or 'overall', "
                              f"got {self.selection_metric!r}")
        if self.stratified_batches:
            raise ConfigError("stratified_batches must stay false: batches are always "
                              "drawn from the shuffled pool")


@dataclass
class OptState:
    """Optimizer state over the flat parameter vector.

    ``m``/``v`` are the slot vectors (momentum keeps its velocity in ``v``;
    sgd has none) and ``scratch`` is Adam's one work vector. Every vector
    is allocated on the first step that needs it, sized to the model, and
    reused after.
    """

    step: int = 0
    m: np.ndarray | None = None
    v: np.ndarray | None = None
    scratch: np.ndarray | None = None


def optimizer_step(params: networks.ModelParams, grad: np.ndarray, state: OptState,
                   cfg: TrainerConfig) -> OptState:
    """In-place update of ``params.flat``; returns the advanced state.

    ``grad`` is what ``networks.backward_pass`` returns: the whole flat
    gradient, or its F and G prefix (``params.fg_size`` values) when P was
    skipped. The update runs once over ``flat[:len(grad)]``, so a prefix
    leaves P and its slots as they are. Each updated element sees the same
    float operations, in the same order, as the recurrences in the module
    docstring applied tensor by tensor. Where P's gradients are zero from
    the first step on, as under ERM, leaving P alone gives the same bits
    as updating it with those zeros: its slots stay 0 and its update is
    +0.0.

    ``grad`` is scratch: it ends holding the step's update, so whatever
    reads the gradient (``grad_norm``) runs first. Adam touches five
    vectors (parameters, gradient, ``m``, ``v`` and one work vector): the
    gradient holds g * g, then the update.
    """
    if grad.shape not in ((params.fg_size,), (params.flat.size,)):
        raise ContractError(f"gradient has shape {grad.shape}; the model takes "
                            f"{params.flat.size} values, or {params.fg_size} without P")
    size = len(grad)
    theta = params.flat[:size]

    state.step += 1
    t = state.step
    lr = cfg.learning_rate
    if cfg.optimizer == "sgd":
        grad *= lr
    elif cfg.optimizer == "momentum":
        if state.v is None:
            state.v = np.zeros_like(params.flat)
        v = state.v[:size]
        v *= cfg.momentum
        v += grad
        np.multiply(v, lr, out=grad)
    else:
        if state.m is None:
            state.m, state.v = np.zeros_like(params.flat), np.zeros_like(params.flat)
            state.scratch = np.empty_like(params.flat)
        m, v, tmp = state.m[:size], state.v[:size], state.scratch[:size]
        m *= cfg.adam_beta1
        m += np.multiply(grad, 1.0 - cfg.adam_beta1, out=tmp)
        v *= cfg.adam_beta2
        np.multiply(grad, grad, out=grad)                       # g * g
        v += np.multiply(grad, 1.0 - cfg.adam_beta2, out=grad)
        np.divide(v, 1.0 - cfg.adam_beta2 ** t, out=tmp)          # vhat
        np.sqrt(tmp, out=tmp)
        tmp += cfg.adam_eps
        np.divide(m, 1.0 - cfg.adam_beta1 ** t, out=grad)       # mhat
        grad *= lr
        grad /= tmp
    theta -= grad
    return state


def grad_norm(params: networks.ModelParams, grad: np.ndarray) -> float:
    """Euclidean norm of ``grad``, read before ``optimizer_step`` overwrites it.

    Each tensor's segment of g * g is summed on its own, and the sums are
    added P (when ``grad`` covers it), G, F, in layout order within each
    head (``params.head_segments``, worked out once per model). That
    order, kept for the logged bits, is the only thing left of the
    name-keyed gradient dict ``backward_pass`` once returned. One reduction
    over g * g would change only the logged ``grad_norm`` bits.
    """
    sq, segments = grad * grad, params.head_segments
    order = segments["g"] + segments["f"]
    if len(grad) == params.flat.size:
        order = segments["p"] + order
    return math.sqrt(sum(float(sq[segment].sum()) for segment in order))


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
        evals = {e.step: [e.y_l_accuracy, e.y_s_accuracy, e.overall_accuracy]
                 for e in self.evals}
        step_cols = [f.name for f in fields(StepRecord)]
        datagen.write_table(path, step_cols + ["val_y_l", "val_y_s", "val_overall"],
                            ([getattr(rec, name) for name in step_cols]
                             + evals.get(rec.step, [None] * 3) for rec in self.steps))


def dropout_streams(seed: int, steps: int):
    """Yield step k's dropout generator for k = 1..``steps``: one
    generator, reseeded each step, whose draws equal those of
    ``rng_for(seed, "dropout", k)`` bit for bit."""
    gen = rng_for(seed, SEED_TAG_DROPOUT, 1)
    yield gen
    for state in rng_states(seed, SEED_TAG_DROPOUT, range(2, steps + 1)):
        gen.bit_generator.state = state
        yield gen


def train_val_split(pool: datagen.Dataset, trainer_cfg: TrainerConfig):
    """(train set, validation set): the 80/20 per-domain split that ``train``
    draws from ``pool`` when it is given no ``val_set``. A caller that splits
    first can free the pool before the loop."""
    return datagen.split_train_val(pool, subseed(trainer_cfg.seed, SEED_TAG_VAL_SPLIT))


def train(params: networks.ModelParams, source_pool: datagen.Dataset,
          plan: datagen.SplitPlan, loss_cfg: losses.LossConfig,
          trainer_cfg: TrainerConfig, val_set: datagen.Dataset | None = None,
          *, log_steps: bool = True):
    """Run the loop; returns (final params, best-validation params, log).

    When ``val_set`` is None the pool is split by ``train_val_split``;
    otherwise the pool is used for training as given. One loop runs steps
    1..max_steps over lazily drawn epochs and evaluates a non-empty
    ``val_set`` after every ``eval_every``-th step and after the last, once
    each. The best snapshot maximizes validation accuracy over linked
    classes (strict improvement, earliest wins), falling back to overall
    accuracy when the validation split contains no linked-class samples;
    with an empty ``val_set`` it is the final parameters. The loop ignores
    numpy's divide warning: an underflowed true-label probability gives a
    cross-entropy of +inf, which raises ``NonFiniteLossError``.

    With ``log_steps`` False the log keeps no step or eval rows (no
    ``grad_norm`` is summed), only ``best_step``; the parameters are the
    same bit for bit. Callers that discard the log pass False.

    The per-step inputs are checked here, once: the loss config is
    resolved, and the training set's annotation columns are validated
    (``ContractError`` before step 1). G is trained on dense class codes:
    each label's rank in ``sorted(plan.classes)`` (a label the plan lacks
    raises), checked against G's ``num_classes``. Each step's annotations
    are rows of those columns.

    A step's activations and loss gradients do not outlive its backward
    pass and its step record: the loop drops them before the optimizer
    update, so the next step and each evaluation reuse their memory.
    """
    loss_cfg = loss_cfg.resolved()
    if val_set is None:
        train_set, val_set = train_val_split(source_pool, trainer_cfg)
    else:
        train_set = source_pool

    project = loss_cfg.lambda_xdom > 0   # z feeds nothing but the contrastive term
    sampler = datagen.BatchSampler(train_set, trainer_cfg.batch_size,
                                   subseed(trainer_cfg.seed, SEED_TAG_BATCHES))
    annotations = losses.BatchAnnotations(
        labels=plan.class_codes(train_set.labels), domains=train_set.domains,
        linked_mask=np.isin(train_set.labels, sorted(plan.linked_classes)),
        num_classes=params.config.num_classes)
    max_steps, eval_every = trainer_cfg.max_steps, trainer_cfg.eval_every
    batches = itertools.chain.from_iterable(map(sampler.epoch_batches, itertools.count()))
    streams = (dropout_streams(trainer_cfg.seed, max_steps)
               if trainer_cfg.dropout > 0.0 else itertools.repeat(None))
    state = OptState()
    grad_buffer = networks.ModelParams(config=params.config, seed=params.seed)
    gram_buffer = losses.GramBuffer() if project else None
    log = TrainLog()
    best_params, best_score = None, -math.inf

    with np.errstate(divide="ignore"):
        for step, batch_idx, drng in zip(range(1, max_steps + 1), batches, streams):
            fp = networks.forward_pass(params, train_set.features[batch_idx],
                                       dropout_rate=trainer_cfg.dropout,
                                       dropout_rng=drng, project=project)
            fl = losses.fond_loss(fp.logits, fp.z, annotations.take(batch_idx), loss_cfg,
                                  gram_buffer=gram_buffer)
            if not math.isfinite(fl.total):
                raise NonFiniteLossError(step, {"task": fl.task, "xdom": fl.xdom,
                                                "fair": fl.fair, "total": fl.total})
            grad = networks.backward_pass(fp, fl.grad_logits, fl.grad_z, grad_buffer)
            if log_steps:
                log.steps.append(StepRecord(
                    step=step, task=fl.task, xdom=fl.xdom, fair=fl.fair, total=fl.total,
                    grad_norm=grad_norm(params, grad),
                    linked_ce=fl.linked_ce, shared_ce=fl.shared_ce))
            # nothing reads the step's forward pass or loss after this: free
            # them now. Left bound, they stay alive through the evaluation
            # below and the next step's forward pass and loss, so two steps'
            # arrays share the heap and the peak RSS grows
            del fp, fl
            optimizer_step(params, grad, state, trainer_cfg)
            ndcore.check_finite(params.flat, f"parameters after step {step}")
            if len(val_set) and (step % eval_every == 0 or step == max_steps):
                report = evalsel.evaluate(params, val_set, plan)
                score = report.y_l_accuracy
                if trainer_cfg.selection_metric == "overall" or score is None:
                    score = report.overall_accuracy
                selected = score > best_score
                if selected:
                    best_params, best_score, log.best_step = params.clone(), score, step
                if log_steps:
                    log.evals.append(EvalRecord(
                        step=step, y_l_accuracy=report.y_l_accuracy,
                        y_s_accuracy=report.y_s_accuracy,
                        overall_accuracy=report.overall_accuracy, selected=selected))

    if best_params is None:
        best_params, log.best_step = params.clone(), max_steps
    return params, best_params, log
