"""Evaluation metrics, model selection, hyperparameter search, and
cross-repetition aggregation.

Accuracies are class-averaged: each class contributes its own accuracy,
and a group score (linked vs shared classes) is the unweighted mean over
its member classes, so class-count imbalance cannot mask a weak group.

Model selection follows the source-domains-only protocol: K models are
trained, each with one source domain held out and an 80/20 train/val
split of the rest; each model's best snapshot is evaluated on its
held-out domain, and a hyperparameter setting is scored by the mean
linked-class accuracy over contributing folds. Random search draws
i.i.d. settings and keeps the earliest argmax.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import datagen, losses, networks, trainer
from .errors import ConfigError, ContractError, DegenerateInputError
from .seeding import rng_for, subseed


@dataclass
class MetricsReport:
    """Per-class and group accuracies on one evaluation set."""

    per_class_accuracy: dict[int, float]
    counts: dict[int, int]
    y_l_accuracy: float | None
    y_s_accuracy: float | None
    overall_accuracy: float
    excluded_classes: tuple[int, ...]   # planned classes absent from the set


def predict(params: networks.ModelParams, features) -> np.ndarray:
    """Class predictions; argmax ties resolve to the lowest class id."""
    return np.argmax(networks.forward_pass(params, features, project=False).logits, axis=1)


def evaluate(params: networks.ModelParams, test_set: datagen.Dataset,
             plan: datagen.SplitPlan) -> MetricsReport:
    if len(test_set) == 0:
        raise DegenerateInputError("cannot evaluate on an empty set")
    extra = test_set.class_set() - set(plan.classes)
    if extra:
        raise ContractError(f"evaluation labels {sorted(extra)} are not in the plan")
    preds = predict(params, test_set.features)
    correct = preds == test_set.labels

    per_class: dict[int, float] = {}
    counts: dict[int, int] = {}
    excluded: list[int] = []
    for c in sorted(plan.classes):
        mask = test_set.labels == c
        n = int(mask.sum())
        if n == 0:
            excluded.append(c)
            continue
        counts[c] = n
        per_class[c] = float(correct[mask].mean())

    def group_mean(group) -> float | None:
        members = [per_class[c] for c in sorted(group) if c in per_class]
        return float(np.mean(members)) if members else None

    return MetricsReport(per_class_accuracy=per_class, counts=counts,
                         y_l_accuracy=group_mean(plan.linked_classes),
                         y_s_accuracy=group_mean(plan.shared_classes),
                         overall_accuracy=float(correct.mean()),
                         excluded_classes=tuple(excluded))


@dataclass(frozen=True)
class HyperSpace:
    """Sampling ranges for the searched hyperparameters.

    learning_rate and temperature are drawn log-uniformly, the rest
    uniformly. Draw order is fixed so a seed pins the whole trial
    sequence.
    """

    learning_rate: tuple[float, float] = (1e-5, 1e-2)
    lambda_xdom: tuple[float, float] = (0.1, 2.0)
    lambda_fair: tuple[float, float] = (0.1, 2.0)
    temperature: tuple[float, float] = (0.05, 0.5)
    a: tuple[float, float] = (1.0, 4.0)
    b: tuple[float, float] = (1.0, 4.0)
    dropout: tuple[float, float] = (0.0, 0.5)

    _LOG_FIELDS = ("learning_rate", "temperature")
    _ORDER = ("learning_rate", "lambda_xdom", "lambda_fair", "temperature",
              "a", "b", "dropout")

    def __post_init__(self):
        for name in self._ORDER:
            lo, hi = getattr(self, name)
            if not lo <= hi:
                raise ConfigError(f"{name} range ({lo}, {hi}) is inverted")
            if name in self._LOG_FIELDS and lo <= 0:
                raise ConfigError(f"{name} is drawn log-uniformly and needs lo > 0")

    def sample(self, rng: np.random.Generator) -> dict[str, float]:
        out = {}
        for name in self._ORDER:
            lo, hi = getattr(self, name)
            if name in self._LOG_FIELDS:
                out[name] = float(np.exp(rng.uniform(np.log(lo), np.log(hi))))
            else:
                out[name] = float(rng.uniform(lo, hi))
        return out


def apply_hyper(loss_cfg: losses.LossConfig, trainer_cfg: trainer.TrainerConfig,
                hyper: dict):
    """Route sampled values into the two configs they parameterize."""
    loss_keys = {"lambda_xdom", "lambda_fair", "temperature", "a", "b"}
    trainer_keys = {"learning_rate", "dropout"}
    unknown = set(hyper) - loss_keys - trainer_keys
    if unknown:
        raise ConfigError(f"unknown hyperparameters {sorted(unknown)}")
    loss_cfg = replace(loss_cfg, **{k: hyper[k] for k in loss_keys & set(hyper)})
    trainer_cfg = replace(trainer_cfg, **{k: hyper[k] for k in trainer_keys & set(hyper)})
    return loss_cfg, trainer_cfg


@dataclass
class FoldRecord:
    held_out_domain: int
    score: float | None
    included: bool
    report: MetricsReport | None = None


@dataclass
class ValidationResult:
    score: float | None
    folds: list[FoldRecord]


def default_fold_runner(held_out_domain: int, train_set: datagen.Dataset,
                        val_set: datagen.Dataset, eval_set: datagen.Dataset,
                        plan: datagen.SplitPlan, net_cfg: networks.NetworkConfig,
                        loss_cfg: losses.LossConfig, trainer_cfg: trainer.TrainerConfig,
                        fold_seed: int) -> MetricsReport:
    """Train one fold model and evaluate it on its held-out domain."""
    params = networks.init_params(net_cfg, subseed(fold_seed, "init"))
    fold_trainer_cfg = replace(trainer_cfg, seed=subseed(fold_seed, "train"))
    _, best, _ = trainer.train(params, train_set, plan, loss_cfg, fold_trainer_cfg,
                               val_set=val_set)
    return evaluate(best, eval_set, plan)


def training_domain_validation(dataset: datagen.Dataset, plan: datagen.SplitPlan,
                               net_cfg: networks.NetworkConfig,
                               loss_cfg: losses.LossConfig,
                               trainer_cfg: trainer.TrainerConfig,
                               seed, fold_runner=None) -> ValidationResult:
    """Leave-one-source-domain-out score for one hyperparameter setting.

    Each fold holds out one source domain entirely, splits the remaining
    source data 80/20 per domain (split fixed by ``seed``, not by the
    hyperparameters, so competing settings see identical data), trains,
    and evaluates the selected snapshot on every sample of the held-out
    domain. A fold whose held-out domain has no linked-class samples is
    flagged and excluded from the returned mean.
    """
    if len(plan.source_domains) < 2:
        raise ConfigError("need at least 2 source domains to hold one out")
    if fold_runner is None:
        fold_runner = default_fold_runner
    source_pool, _ = datagen.apply_split(dataset, plan)

    folds: list[FoldRecord] = []
    for s_star in sorted(plan.source_domains):
        keep = source_pool.domains != s_star
        fold_pool = source_pool.subset(np.flatnonzero(keep))
        # held-out domain keeps its full class coverage: availability
        # restrictions shape training data only
        eval_set = dataset.subset(np.flatnonzero(dataset.domains == s_star))
        fold_seed = subseed(seed, "fold", s_star)
        tr_set, va_set = datagen.split_train_val(fold_pool, subseed(fold_seed, "val"))
        report = fold_runner(s_star, tr_set, va_set, eval_set, plan, net_cfg,
                             loss_cfg, trainer_cfg, fold_seed)
        score = report.y_l_accuracy
        folds.append(FoldRecord(held_out_domain=s_star, score=score,
                                included=score is not None, report=report))

    included = [f.score for f in folds if f.included]
    score = float(np.mean(included)) if included else None
    return ValidationResult(score=score, folds=folds)


@dataclass
class TrialRecord:
    index: int
    hyper: dict[str, float]
    score: float | None


@dataclass
class SearchResult:
    best_index: int
    best_hyper: dict[str, float]
    best_score: float | None
    trials: list[TrialRecord]


def random_search(space: HyperSpace, n_trials: int, seed, score_fn) -> SearchResult:
    """Draw ``n_trials`` i.i.d. settings, score each, keep the earliest
    argmax. ``score_fn(hyper) -> float | None``; None never wins unless
    every trial is None (then trial 0 is returned)."""
    if n_trials < 1:
        raise ConfigError(f"n_trials must be >= 1, got {n_trials}")
    rng = rng_for(seed, "hyper-draw")
    trials: list[TrialRecord] = []
    best_index = 0
    best_score = -math.inf
    for i in range(n_trials):
        hyper = space.sample(rng)
        score = score_fn(hyper)
        trials.append(TrialRecord(index=i, hyper=hyper, score=score))
        if score is not None and score > best_score:
            best_score = score
            best_index = i
    return SearchResult(best_index=best_index, best_hyper=trials[best_index].hyper,
                        best_score=trials[best_index].score, trials=trials)


@dataclass(frozen=True)
class ResultRow:
    """One repetition's outcome for one benchmark cell."""

    dataset: str
    setting: str
    variant: str
    rep: int
    y_l_accuracy: float | None
    y_s_accuracy: float | None
    per_class: dict[int, float] = field(default_factory=dict, hash=False, compare=False)


@dataclass(frozen=True)
class AggregateRow:
    dataset: str
    setting: str
    variant: str
    reps: int
    y_l_mean: float | None
    y_l_se: float | None
    y_s_mean: float | None
    y_s_se: float | None


def mean_and_se(values: list[float]):
    """(mean, standard error); SE is None for a single value."""
    if not values:
        return None, None
    mean = float(np.mean(values))
    if len(values) < 2:
        return mean, None
    return mean, float(np.std(values, ddof=1) / math.sqrt(len(values)))


def aggregate(rows: list[ResultRow]) -> list[AggregateRow]:
    """Mean and standard error per (dataset, setting, variant) cell,
    sorted by that key."""
    cells: dict[tuple, list[ResultRow]] = {}
    for row in rows:
        cells.setdefault((row.dataset, row.setting, row.variant), []).append(row)
    out = []
    for key in sorted(cells):
        members = cells[key]
        y_l = [r.y_l_accuracy for r in members if r.y_l_accuracy is not None]
        y_s = [r.y_s_accuracy for r in members if r.y_s_accuracy is not None]
        l_mean, l_se = mean_and_se(y_l)
        s_mean, s_se = mean_and_se(y_s)
        out.append(AggregateRow(dataset=key[0], setting=key[1], variant=key[2],
                                reps=len(members), y_l_mean=l_mean, y_l_se=l_se,
                                y_s_mean=s_mean, y_s_se=s_se))
    return out


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_results_csv(rows: list[ResultRow], path, provenance: dict | None = None) -> None:
    classes = sorted({c for row in rows for c in row.per_class})
    header = ["dataset", "setting", "variant", "rep", "y_l_acc", "y_s_acc"]
    header += [f"acc_class_{c}" for c in classes]
    ordered = sorted(rows, key=lambda r: (r.dataset, r.setting, r.variant, r.rep))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if provenance is not None:
            fh.write("# provenance: " + json.dumps(provenance, sort_keys=True) + "\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in ordered:
            record = [row.dataset, row.setting, row.variant, row.rep,
                      _fmt(row.y_l_accuracy), _fmt(row.y_s_accuracy)]
            record += [_fmt(row.per_class.get(c)) for c in classes]
            writer.writerow(record)


def write_aggregate_csv(rows: list[AggregateRow], path,
                        provenance: dict | None = None) -> None:
    header = ["dataset", "setting", "variant", "reps",
              "y_l_mean", "y_l_se", "y_s_mean", "y_s_se"]
    ordered = sorted(rows, key=lambda r: (r.dataset, r.setting, r.variant))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if provenance is not None:
            fh.write("# provenance: " + json.dumps(provenance, sort_keys=True) + "\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in ordered:
            writer.writerow([row.dataset, row.setting, row.variant, row.reps,
                             _fmt(row.y_l_mean), _fmt(row.y_l_se),
                             _fmt(row.y_s_mean), _fmt(row.y_s_se)])


def dump_embeddings(params: networks.ModelParams, dataset: datagen.Dataset,
                    plan: datagen.SplitPlan, path) -> None:
    """CSV of feature vectors: id, domain, label, group, h_0..h_{d-1}."""
    h = networks.forward_pass(params, dataset.features, project=False).h
    linked = set(plan.linked_classes)
    with open(path, "w", encoding="utf-8") as fh:
        cols = ",".join(f"h_{j}" for j in range(h.shape[1]))
        fh.write(f"id,domain,label,group,{cols}\n")
        for i in range(len(dataset)):
            group = "linked" if int(dataset.labels[i]) in linked else "shared"
            feats = ",".join(map(repr, h[i].tolist()))
            fh.write(f"{int(dataset.ids[i])},{int(dataset.domains[i])},"
                     f"{int(dataset.labels[i])},{group},{feats}\n")
