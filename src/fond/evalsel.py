"""Evaluation metrics, model selection, hyperparameter search,
cross-repetition aggregation, and each variant paired with ERM rep by rep.

Prediction and the embedding dump run ``networks.forward_pass`` without
the projection head on blocks of ``INFER_ROWS`` rows, so they hold one
block of activations whatever the row count, and they never compute a
softmax. Their outputs are bit-identical to one pass over every row.

Accuracies are class-averaged: each class contributes its own accuracy,
and a group score (linked vs shared classes) is the unweighted mean over
its member classes, so class-count imbalance cannot mask a weak group.

Model selection follows the source-domains-only protocol: K folds each
hold one source domain out and split the rest 80/20 into train/val; a
caller-supplied runner trains each fold's model and evaluates its best
snapshot on the held-out domain, and a hyperparameter setting is scored
by the mean linked-class accuracy over contributing folds. This module
never trains. Random search draws i.i.d. settings and keeps the earliest
argmax.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, field, fields, replace

import numpy as np

from . import datagen, losses, ndcore, networks
from .errors import ConfigError, ContractError, DegenerateInputError, require_finite, write_output
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


# Rows per inference forward pass (``predict``, ``dump_embeddings``), so
# their memory holds one block of activations whatever the row count.
# Blocks of 2 to 4096 rows gave the same bytes as one whole-matrix forward
# (tests/test_evalsel.py compares them). On 14,000 rows at the widths of
# the wide CSV benchmark (2-vCPU Xeon, single-threaded OpenBLAS), 256 to
# 2048 rows ran predict in 14-19 ms and the embedding dump, then written by
# a per-value repr join, in 0.71-0.77 s; 64 rows was slower (24 ms, 1.24 s),
# and whole-matrix predict took 28 ms with a 29 MB peak against 3.9 MB at
# 1024 rows.
INFER_ROWS = 1024


def _row_blocks(params: networks.ModelParams, features, output: str):
    """``(rows, out)`` per block of at most ``INFER_ROWS`` rows
    (``INFER_ROWS + 1`` for the last one), in row order, where ``out`` is
    the ``output`` field ("h" or "logits") of
    ``forward_pass(params, features[rows], project=False)``. Only that
    array outlives its block's forward pass. An empty input is one empty
    block. ``out`` is checked finite: finite parameters can still
    overflow, and no loss checks an inference pass."""
    x = ndcore.as_matrix(features, "x_batch")
    n = len(x)
    starts = list(range(0, max(n, 1), INFER_ROWS))
    # A 1-row matmul takes BLAS's matrix-vector path, whose sums can round
    # differently from the matrix-matrix path that every other block (and
    # the whole-matrix forward) takes; so a 1-row tail joins the block
    # before it, and only N == 1 runs a 1-row block.
    if n > 1 and n % INFER_ROWS == 1:
        starts.pop()
    for r0, r1 in zip(starts, starts[1:] + [n]):
        out = getattr(networks.forward_pass(params, x[r0:r1], project=False), output)
        ndcore.check_finite(out, f"inference {output}")
        yield slice(r0, r1), out


def logits(params: networks.ModelParams, features) -> np.ndarray:
    """G's logits for every row of ``features``, joined from ``_row_blocks``."""
    return np.concatenate([out for _, out in _row_blocks(params, features, "logits")])


def predict(params: networks.ModelParams, features) -> np.ndarray:
    """Predicted output units (class codes, ``SplitPlan.class_codes``);
    argmax ties resolve to the lowest unit."""
    return np.argmax(logits(params, features), axis=1)


def score(pred_codes, test_set: datagen.Dataset, plan: datagen.SplitPlan) -> MetricsReport:
    """Accuracies keyed by class id of ``pred_codes``, any read-out's output unit per row
    of ``test_set``: right where it is the label's class code (``SplitPlan.class_codes``)."""
    if len(test_set) == 0:
        raise DegenerateInputError("cannot evaluate on an empty set")
    if len(pred_codes) != len(test_set):
        raise ContractError(f"{len(pred_codes)} predictions for {len(test_set)} rows")
    codes = plan.class_codes(test_set.labels)
    correct = np.asarray(pred_codes) == codes
    # rows and hits per class code; each accuracy, the rounded quotient of
    # two exact counts, has the bits of the class's masked mean
    classes = sorted(plan.classes)
    rows = np.bincount(codes, minlength=len(classes)).tolist()
    hits = np.bincount(codes, weights=correct, minlength=len(classes)).tolist()
    counts = {c: n for c, n in zip(classes, rows) if n}
    per_class = {c: h / n for c, n, h in zip(classes, rows, hits) if n}

    y_l, y_s = (_mean([per_class[c] for c in sorted(group) if c in per_class])
                for group in (plan.linked_classes, plan.shared_classes))
    return MetricsReport(per_class_accuracy=per_class, counts=counts,
                         y_l_accuracy=y_l, y_s_accuracy=y_s,
                         overall_accuracy=float(correct.mean()),
                         excluded_classes=tuple(c for c, n in zip(classes, rows) if not n))


def evaluate(params: networks.ModelParams, test_set: datagen.Dataset,
             plan: datagen.SplitPlan) -> MetricsReport:
    """``score`` of the model's predictions (``predict``) on ``test_set``."""
    return score(predict(params, test_set.features), test_set, plan)


@dataclass(frozen=True)
class HyperSpace:
    """Sampling ranges for the searched hyperparameters.

    learning_rate and temperature are drawn log-uniformly, the rest
    uniformly. Draws follow the field order, so a seed pins the whole
    trial sequence. Every range must lie where its target config accepts
    each value, so no draw can fail that config's checks.
    """

    learning_rate: tuple[float, float] = (1e-5, 1e-2)
    lambda_xdom: tuple[float, float] = (0.1, 2.0)
    lambda_fair: tuple[float, float] = (0.1, 2.0)
    temperature: tuple[float, float] = (0.05, 0.5)
    a: tuple[float, float] = (1.0, 4.0)
    b: tuple[float, float] = (1.0, 4.0)
    dropout: tuple[float, float] = (0.0, 0.5)

    _LOG_FIELDS = ("learning_rate", "temperature")
    # the lowest value LossConfig/TrainerConfig accept; dropout also stays below 1
    _MIN_LO = {"lambda_xdom": 0.0, "lambda_fair": 0.0, "a": 1.0, "b": 1.0, "dropout": 0.0}

    def __post_init__(self):
        for name in [f.name for f in fields(self)]:
            lo, hi = getattr(self, name)
            require_finite(**{f"{name}[0]": lo, f"{name}[1]": hi})
            if not lo <= hi:
                raise ConfigError(f"{name} range ({lo}, {hi}) is inverted")
            if name in self._LOG_FIELDS and lo <= 0:
                raise ConfigError(f"{name} is drawn log-uniformly and needs lo > 0")
            if lo < self._MIN_LO.get(name, -math.inf):
                raise ConfigError(f"{name} range ({lo}, {hi}) starts below {self._MIN_LO[name]}")
        if self.dropout[1] >= 1.0:
            raise ConfigError(f"dropout range {self.dropout} must stay below 1")

    def sample(self, rng: np.random.Generator) -> dict[str, float]:
        out = {}
        for name in [f.name for f in fields(self)]:
            lo, hi = getattr(self, name)
            if name in self._LOG_FIELDS:
                # clamped, as exp(log(x)) can miss x by an ulp
                out[name] = float(np.clip(np.exp(rng.uniform(np.log(lo), np.log(hi))), lo, hi))
            else:
                out[name] = float(rng.uniform(lo, hi))
        return out


def apply_hyper(loss_cfg: losses.LossConfig, trainer_cfg, hyper: dict):
    """Route each sampled value, named by a ``HyperSpace`` field, into the
    config that has a field of that name."""
    unknown = set(hyper) - {f.name for f in fields(HyperSpace)}
    if unknown:
        raise ConfigError(f"unknown hyperparameters {sorted(unknown)}")
    return tuple(replace(cfg, **{f.name: hyper[f.name] for f in fields(cfg) if f.name in hyper})
                 for cfg in (loss_cfg, trainer_cfg))


@dataclass
class ValidationResult:
    score: float | None


def training_domain_validation(dataset: datagen.Dataset, plan: datagen.SplitPlan,
                               net_cfg: networks.NetworkConfig,
                               loss_cfg: losses.LossConfig, trainer_cfg,
                               seed, fold_runner) -> ValidationResult:
    """Leave-one-source-domain-out score for one hyperparameter setting.

    Each fold holds out one source domain entirely, splits the remaining
    source data 80/20 per domain (split fixed by ``seed``, not by the
    hyperparameters, so competing settings see identical data), trains,
    and evaluates the selected snapshot on every sample of the held-out
    domain. A fold whose held-out domain has no linked-class samples is
    excluded from the returned mean.

    ``fold_runner(held_out_domain, train_set, val_set, eval_set, plan,
    net_cfg, loss_cfg, trainer_cfg, fold_seed) -> MetricsReport`` does the
    training and the evaluation of one fold.
    """
    source_pool, _ = datagen.apply_split(dataset, plan)

    scores = []
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
        if report.y_l_accuracy is not None:
            scores.append(report.y_l_accuracy)
    return ValidationResult(score=_mean(scores))


@dataclass
class TrialRecord:
    index: int
    hyper: dict[str, float]
    score: float | None


@dataclass
class SearchResult:
    best_index: int
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
    for i in range(n_trials):
        hyper = space.sample(rng)
        trials.append(TrialRecord(index=i, hyper=hyper, score=score_fn(hyper)))
    best = max((t for t in trials if t.score is not None), key=lambda t: t.score,
               default=trials[0])   # max keeps the first of equal scores
    return SearchResult(best_index=best.index, best_score=best.score, trials=trials)


@dataclass(frozen=True)
class ResultRow:
    """One repetition's outcome for one benchmark cell; ``winner`` is the
    search's winning trial, None when the cell ran no search."""

    dataset: str
    setting: str
    variant: str
    rep: int
    y_l_accuracy: float | None
    y_s_accuracy: float | None
    per_class: dict[int, float] = field(default_factory=dict, hash=False, compare=False)
    winner: TrialRecord | None = field(default=None, hash=False, compare=False)


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


def _mean(values: list[float]) -> float | None:
    """The mean of ``values``; None when there are none."""
    return float(np.mean(values)) if values else None


def mean_and_se(values: list[float]):
    """(mean, standard error); SE is None for fewer than two values."""
    if len(values) < 2:
        return _mean(values), None
    return _mean(values), float(np.std(values, ddof=1) / math.sqrt(len(values)))


def _grouped(scored):
    """``(key, tuple count, present y_l values, present y_s values)`` per
    (dataset, setting, variant) key of the ``(dataset, setting, variant,
    y_l, y_s)`` tuples ``scored``, sorted by key; values keep input order."""
    cells: dict[tuple, list[tuple]] = {}
    for *key, y_l, y_s in scored:
        cells.setdefault(tuple(key), []).append((y_l, y_s))
    for key in sorted(cells):
        y_l, y_s = ([v for v in score if v is not None] for score in zip(*cells[key]))
        yield key, len(cells[key]), y_l, y_s


def aggregate(rows: list[ResultRow]) -> list[AggregateRow]:
    """Mean and standard error per (dataset, setting, variant) cell,
    sorted by that key."""
    scored = ((r.dataset, r.setting, r.variant, r.y_l_accuracy, r.y_s_accuracy) for r in rows)
    return [AggregateRow(*key, reps, *mean_and_se(y_l), *mean_and_se(y_s))
            for key, reps, y_l, y_s in _grouped(scored)]


# The variant every other one is paired with, rep by rep.
BASELINE = "erm"


@dataclass(frozen=True)
class PairedRow:
    """A variant against ``BASELINE`` on one (dataset, setting): over the
    ``reps`` repetitions both ran, the mean and SE of each score's
    differences (variant - baseline), and the repetitions where the
    variant scored strictly higher."""

    dataset: str
    setting: str
    variant: str
    reps: int
    y_l_diff_mean: float | None
    y_l_diff_se: float | None
    y_l_wins: int
    y_s_diff_mean: float | None
    y_s_diff_se: float | None
    y_s_wins: int


def pair_with_erm(rows: list[ResultRow]) -> list[PairedRow]:
    """Each non-baseline row paired with the baseline's row of the same
    (dataset, setting, rep), summarized per (dataset, setting, variant)
    and sorted by that key; empty when no row is the baseline's. A rep
    whose score is None on either side is left out of that score's
    differences and wins."""
    baseline = {(r.dataset, r.setting, r.rep): r for r in rows if r.variant == BASELINE}
    diffs = []
    for row in rows:
        base = baseline.get((row.dataset, row.setting, row.rep))
        if row.variant != BASELINE and base is not None:
            both = ((row.y_l_accuracy, base.y_l_accuracy),
                    (row.y_s_accuracy, base.y_s_accuracy))
            diffs.append((row.dataset, row.setting, row.variant,
                          *(None if v is None or b is None else v - b for v, b in both)))
    # v - b > 0 exactly when v > b, as floats subtract with gradual underflow
    return [PairedRow(*key, reps, *mean_and_se(y_l), sum(d > 0 for d in y_l),
                      *mean_and_se(y_s), sum(d > 0 for d in y_s))
            for key, reps, y_l, y_s in _grouped(diffs)]


def write_results_csv(rows: list[ResultRow], path, provenance: dict | None = None) -> None:
    classes = sorted({c for row in rows for c in row.per_class})
    header = ["dataset", "setting", "variant", "rep", "y_l_acc", "y_s_acc"]
    header += [f"acc_class_{c}" for c in classes]
    ordered = sorted(rows, key=lambda r: (r.dataset, r.setting, r.variant, r.rep))
    datagen.write_table(path, header, ([r.dataset, r.setting, r.variant, r.rep,
                                        r.y_l_accuracy, r.y_s_accuracy]
                                       + [r.per_class.get(c) for c in classes]
                                       for r in ordered), provenance)


def write_variant_table(row_type, rows, path, provenance: dict | None = None) -> None:
    """A per-variant table (``AggregateRow`` or ``PairedRow``): one line per
    row of ``row_type``'s fields, sorted by (dataset, setting, variant); the
    header alone when there are no rows."""
    ordered = sorted(rows, key=lambda r: (r.dataset, r.setting, r.variant))
    datagen.write_table(path, [f.name for f in fields(row_type)],
                        map(astuple, ordered), provenance)


def dump_embeddings(params: networks.ModelParams, dataset: datagen.Dataset,
                    plan: datagen.SplitPlan, path) -> None:
    """CSV of feature vectors: id, domain, label, group, h_0..h_{d-1}.

    Each block of rows is written before the next is computed; a dump
    that fails removes its partly written file."""
    from .floatrows import float_rows   # only the float-row writers load it
    if params.config.num_classes != len(plan.classes):
        raise ContractError(f"the model has {params.config.num_classes} classes, "
                            f"the plan {len(plan.classes)}")
    if params.config.input_dim != dataset.input_dim:
        raise ContractError(f"the model takes {params.config.input_dim} input features, "
                            f"the data {dataset.input_dim}")
    plan.class_codes(dataset.labels)   # ContractError for a label the plan lacks
    linked = set(plan.linked_classes)
    ids, domains, labels = (a.tolist() for a in (dataset.ids, dataset.domains,
                                                 dataset.labels))

    def chunks():
        cols = ",".join(f"h_{j}" for j in range(params.config.feature_dim))
        yield f"id,domain,label,group,{cols}\n".encode("utf-8")
        for rows, block in _row_blocks(params, dataset.features, "h"):
            prefixes = [f"{ids[i]},{domains[i]},{labels[i]},"
                        f"{'linked' if labels[i] in linked else 'shared'},"
                        for i in range(rows.start, rows.stop)]
            yield from float_rows(prefixes, block)

    write_output(path, chunks())
