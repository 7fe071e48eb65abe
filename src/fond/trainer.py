"""Mini-batch training loop with deterministic logging and snapshots.

One step: sample batch -> features h = F(x) -> projections z = P(h) and
logits = G(h) -> combined loss on (logits, z) -> backprop -> optimizer
update. ``train`` runs the steps as one loop, which evaluates a validation
split after every ``eval_every``-th step and the last, and keeps each
selection rule's best snapshot: by linked-class or by overall accuracy.

Optimizer recurrences (eta = learning rate, g = gradient):

  sgd        theta <- theta - eta * g
  adam       m <- b1*m + (1-b1)*g;  v <- b2*v + (1-b2)*g^2;
             mhat = m/(1-b1^t);  vhat = v/(1-b2^t);
             theta <- theta - eta * mhat / (sqrt(vhat) + eps)    (t from 1)

Each recurrence runs once per step over the model's whole flat parameter
vector (``ModelParams.flat``) and the flat gradient ``backward_pass`` returns,
which it overwrites as scratch (the next backward pass rewrites it).

All randomness (batch order, dropout masks, validation split) derives
from the trainer seed through tagged subseeds, so identical configs give
bit-identical runs. Step k's dropout masks come from the stream
``rng_for(seed, "dropout", k)``, which ``dropout_streams`` builds as
step k is drawn.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import datagen, evalsel, losses, ndcore, networks
from .errors import (ConfigError, ContractError, DegenerateInputError, NonFiniteLossError,
                     ShapeError, require_finite, write_output)
from .seeding import rng_for, subseed

OPTIMIZERS = ("sgd", "adam")
SELECTION_METRICS = ("y_l", "overall")   # snapshot rules, each kept by every training

# Fields no training reads, kept only because the "# provenance:" line of
# every output table names them: each must hold its value here.
PROVENANCE_ONLY = {"stratified_batches": False, "momentum": 0.9}

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
    stratified_batches: bool = False   # PROVENANCE_ONLY
    selection_metric: str = "y_l"   # snapshot criterion: "y_l" or "overall"
    momentum: float = 0.9   # PROVENANCE_ONLY
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8

    def __post_init__(self):
        require_finite(learning_rate=self.learning_rate, adam_beta1=self.adam_beta1,
                       adam_beta2=self.adam_beta2, adam_eps=self.adam_eps)
        if self.learning_rate <= 0:
            raise ConfigError(f"learning_rate must be > 0, got {self.learning_rate}")
        # beta = 1 divides a bias correction by 0, eps = 0 divides by sqrt(vhat) = 0
        for name in ("adam_beta1", "adam_beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ConfigError(f"{name} must be in [0, 1), got {getattr(self, name)}")
        if self.adam_eps <= 0:
            raise ConfigError(f"adam_eps must be > 0, got {self.adam_eps}")
        if not self.max_steps >= self.eval_every >= 1:
            raise ConfigError(
                f"need max_steps >= eval_every >= 1, got {self.max_steps} / {self.eval_every}")
        if self.batch_size < 2:
            raise ConfigError(f"batch_size must be >= 2, got {self.batch_size}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.optimizer not in OPTIMIZERS:
            raise ConfigError(f"optimizer must be one of {OPTIMIZERS}, got {self.optimizer!r}")
        if self.selection_metric not in SELECTION_METRICS:
            raise ConfigError(f"selection_metric must be one of {SELECTION_METRICS}, "
                              f"got {self.selection_metric!r}")
        for name, required in PROVENANCE_ONLY.items():
            if getattr(self, name) != required:
                raise ConfigError(f"{name} must stay {json.dumps(required)}: no training "
                                  f"reads it, got {getattr(self, name)!r}")


@dataclass
class OptState:
    """Optimizer state over the flat parameter vector.

    ``m``/``v`` are Adam's slot vectors and ``scratch`` its one work
    vector; sgd has none. Each is allocated on Adam's first step, sized to
    the model, and reused after.
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
        # Once beta1's bias correction rounds to 1.0 (from step 356 at
        # beta1 = 0.9), dividing by it is skipped: x / 1.0 == x, so the bits
        # are the same.
        correction = 1.0 - cfg.adam_beta1 ** t
        if correction == 1.0:
            np.multiply(m, lr, out=grad)
        else:
            np.divide(m, correction, out=grad)                     # mhat
            grad *= lr
        grad /= tmp
    theta -= grad
    return state


def grad_norm(grads: networks.ModelParams, with_p: bool) -> float:
    """Euclidean norm of the gradient ``backward_pass`` wrote into ``grads``
    (P's part only ``with_p``), read before ``optimizer_step`` overwrites it.
    Each tensor's g * g is summed on its own, and the sums are added P, G, F,
    in layout order within each head (``grads._heads``): the logged bits
    depend on that order."""
    return math.sqrt(sum(float((v * v).sum()) for head in ("pgf" if with_p else "gf")
                         for layer in grads._heads[head] for v in layer))


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
    snapshots: dict[str, tuple] = field(default_factory=dict)   # rule -> (step, params)

    def write_jsonl(self, path) -> None:
        write_output(path, (json.dumps({"kind": kind, **rec.__dict__}).encode("utf-8") + b"\n"
                            for kind, recs in (("step", self.steps), ("eval", self.evals))
                            for rec in recs))

    def write_summary_csv(self, path) -> None:
        evals = {e.step: [e.y_l_accuracy, e.y_s_accuracy, e.overall_accuracy]
                 for e in self.evals}
        step_cols = [f.name for f in fields(StepRecord)]
        datagen.write_table(path, step_cols + ["val_y_l", "val_y_s", "val_overall"],
                            ([getattr(rec, name) for name in step_cols]
                             + evals.get(rec.step, [None] * 3) for rec in self.steps))


def dropout_streams(seed: int, steps: int):
    """Yield step k's dropout generator, ``rng_for(seed, "dropout", k)``,
    for k = 1..``steps``, each built as it is drawn."""
    return (rng_for(seed, SEED_TAG_DROPOUT, k) for k in range(1, steps + 1))


def start(net_cfg: networks.NetworkConfig, trainer_cfg: TrainerConfig, seed_root, tag=""):
    """(params drawn from ``subseed(seed_root, tag + "init")``, ``trainer_cfg``
    seeded with ``subseed(seed_root, tag + "train")``): every training's start."""
    return (networks.init_params(net_cfg, subseed(seed_root, tag + "init")),
            replace(trainer_cfg, seed=subseed(seed_root, tag + "train")))


def step_inputs(params: networks.ModelParams, train_set: datagen.Dataset,
                plan: datagen.SplitPlan, trainer_cfg: TrainerConfig):
    """Yield the (batch features, annotations, dropout generator or None) of
    steps 1..``max_steps``, as ``train`` feeds them. The annotation columns
    are checked once, before step 1 (``ContractError``): G is trained on
    dense class codes, each label's rank in ``sorted(plan.classes)`` (a label
    the plan lacks raises), checked against G's ``num_classes``; each step's
    annotations are rows of those columns."""
    sampler = datagen.BatchSampler(train_set, trainer_cfg.batch_size,
                                   subseed(trainer_cfg.seed, SEED_TAG_BATCHES))
    annotations = losses.BatchAnnotations(
        labels=plan.class_codes(train_set.labels), domains=train_set.domains,
        linked_mask=np.isin(train_set.labels, sorted(plan.linked_classes)),
        num_classes=params.config.num_classes)
    batches = itertools.chain.from_iterable(map(sampler.epoch_batches, itertools.count()))
    streams = (dropout_streams(trainer_cfg.seed, trainer_cfg.max_steps)
               if trainer_cfg.dropout > 0.0 else itertools.repeat(None))
    for _, batch, drng in zip(range(trainer_cfg.max_steps), batches, streams):
        yield train_set.features[batch], annotations.take(batch), drng


def train_val_split(pool: datagen.Dataset, trainer_cfg: TrainerConfig):
    """(train set, validation set): the 80/20 per-domain split of ``pool``
    under ``trainer_cfg``'s seed, the one every command trains on."""
    return datagen.split_train_val(pool, subseed(trainer_cfg.seed, SEED_TAG_VAL_SPLIT))


def train(params: networks.ModelParams, train_set: datagen.Dataset,
          plan: datagen.SplitPlan, loss_cfg: losses.LossConfig,
          trainer_cfg: TrainerConfig, val_set: datagen.Dataset | None = None,
          *, log_steps: bool = True):
    """Run the loop; returns (final params, best-validation params, log).

    One loop runs steps 1..max_steps over lazily drawn epochs of
    ``train_set`` and evaluates a non-empty ``val_set`` after every
    ``eval_every``-th step and after the last, once each; its labels and
    width are checked before step 1. ``log.snapshots`` maps each rule of
    ``SELECTION_METRICS`` to the (step, snapshot) that maximizes its
    validation score (strict improvement, earliest wins; rules that improve
    at one evaluation share one snapshot): "overall" accuracy, or "y_l", the
    accuracy over linked classes, falling back to overall when the split
    holds none. With no ``val_set`` (None or empty) every rule maps to
    (max_steps, the final parameters). The returned best snapshot and
    ``log.best_step`` are ``selection_metric``'s. The loop ignores numpy's divide
    warning: an underflowed true-label probability gives a cross-entropy of
    +inf, which raises ``NonFiniteLossError``; an overflowed projection row
    raises ``DegenerateInputError``. Both name their step.

    With ``log_steps`` False the log keeps no step or eval rows (no
    ``grad_norm`` is summed), only ``best_step`` and ``snapshots``; the
    parameters are the same bit for bit. Callers that discard the log pass False.

    The loss config is resolved once; each step's inputs come from
    ``step_inputs``, which checks the annotation columns before step 1.

    A step's activations and loss gradients do not outlive its backward
    pass and its step record: the loop drops them before the optimizer
    update, so the next step and each evaluation reuse their memory.
    """
    loss_cfg = loss_cfg.resolved()
    project = loss_cfg.contrastive
    max_steps, eval_every = trainer_cfg.max_steps, trainer_cfg.eval_every
    state = OptState()
    grad_buffer = networks.ModelParams(config=params.config, seed=params.seed)
    gram_buffer = losses.GramBuffer() if project else None
    log = TrainLog()
    best_scores = dict.fromkeys(SELECTION_METRICS, -math.inf)
    if val_set:   # first scored after eval_every steps: check its labels and width now
        plan.class_codes(val_set.labels)
        if val_set.input_dim != params.config.input_dim:
            raise ShapeError(f"val_set has {val_set.input_dim} columns, "
                             f"config expects {params.config.input_dim}")

    with np.errstate(divide="ignore"):
        for step, (x, ann, drng) in enumerate(step_inputs(params, train_set, plan, trainer_cfg), 1):
            try:
                fp = networks.forward_pass(params, x, dropout_rate=trainer_cfg.dropout,
                                           dropout_rng=drng, project=project)
            except DegenerateInputError as exc:   # a projection row it cannot normalize
                raise DegenerateInputError(f"step {step}: {exc}") from exc
            fl = losses.fond_loss(fp.logits, fp.z, ann, loss_cfg, gram_buffer=gram_buffer)
            if not math.isfinite(fl.total):
                raise NonFiniteLossError(step, {"task": fl.task, "xdom": fl.xdom,
                                                "fair": fl.fair, "total": fl.total})
            grad = networks.backward_pass(fp, fl.grad_logits, fl.grad_z, grad_buffer)
            if log_steps:
                log.steps.append(StepRecord(
                    step=step, task=fl.task, xdom=fl.xdom, fair=fl.fair, total=fl.total,
                    grad_norm=grad_norm(grad_buffer, project),
                    linked_ce=fl.linked_ce, shared_ce=fl.shared_ce))
            # nothing reads the step's inputs, forward pass or loss after
            # this: free them now. Left bound, they stay alive through the
            # evaluation below and the next step's forward pass and loss, so
            # two steps' arrays share the heap and the peak RSS grows
            del x, ann, fp, fl
            optimizer_step(params, grad, state, trainer_cfg)
            ndcore.check_finite(params.flat, f"parameters after step {step}")
            if val_set and (step % eval_every == 0 or step == max_steps):
                report = evalsel.evaluate(params, val_set, plan)
                overall = report.overall_accuracy
                scores = {"y_l": overall if report.y_l_accuracy is None else report.y_l_accuracy,
                          "overall": overall}
                improved = [rule for rule in SELECTION_METRICS if scores[rule] > best_scores[rule]]
                if improved:   # one clone; a replaced snapshot no rule holds is dropped
                    best_scores.update((rule, scores[rule]) for rule in improved)
                    log.snapshots.update(dict.fromkeys(improved, (step, params.clone())))
                if log_steps:
                    log.evals.append(EvalRecord(
                        step=step, y_l_accuracy=report.y_l_accuracy,
                        y_s_accuracy=report.y_s_accuracy, overall_accuracy=overall,
                        selected=trainer_cfg.selection_metric in improved))

    log.snapshots = log.snapshots or dict.fromkeys(SELECTION_METRICS, (max_steps, params.clone()))
    log.best_step, best = log.snapshots[trainer_cfg.selection_metric]
    return params, best, log
