"""Command-line entry point.

Subcommands: generate, split, train, search, benchmark, dump-embeddings.
Every command takes --config PATH plus optional --set overrides, --out
(default runs/out) and --seed; benchmark also takes --jobs, and
dump-embeddings --checkpoint. Failures print one machine-parsable
JSON line to stderr and exit with 2 (config), 3 (numerical), or 4 (I/O).
numpy's floating-point warnings are off: the checks at the module
boundaries report every non-finite value as exit 3 instead.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import datagen, evalsel, networks, trainer
from .config import RunConfig, load_config, to_provenance
from .errors import (
    BatchTooSmallError,
    ConfigError,
    ContractError,
    CsvFormatError,
    DegenerateInputError,
    NonFiniteLossError,
    PlanMismatchError,
    ShapeError,
)
from .seeding import subseed

EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4

_CONFIG_ERRORS = (ConfigError, CsvFormatError, PlanMismatchError, ContractError)
_NUMERIC_ERRORS = (NonFiniteLossError, DegenerateInputError, BatchTooSmallError, ShapeError)


def build_dataset(cfg: RunConfig) -> datagen.Dataset:
    if cfg.dataset.csv_path is not None:
        return datagen.ingest_csv(cfg.dataset.csv_path)
    return datagen.generate_synthetic(cfg.dataset.synthetic, subseed(cfg.seed, "dataset"))


def build_plan(cfg: RunConfig, dataset: datagen.Dataset, setting) -> datagen.SplitPlan:
    if cfg.split.plan_path is not None:
        return datagen.SplitPlan.load(cfg.split.plan_path)
    return datagen.make_split_plan(dataset.class_set(), dataset.domain_set(),
                                   cfg.split.target_domain, setting,
                                   subseed(cfg.seed, "plan", setting))


def _network_config(cfg: RunConfig, dataset: datagen.Dataset,
                    plan: datagen.SplitPlan) -> networks.NetworkConfig:
    """G has one output per planned class, in class-code order
    (``SplitPlan.class_codes``), whatever the class ids."""
    return networks.NetworkConfig(input_dim=dataset.input_dim, num_classes=len(plan.classes),
                                  **asdict(cfg.network))


def _metrics_payload(report: evalsel.MetricsReport) -> dict:
    return {
        "y_l_accuracy": report.y_l_accuracy,
        "y_s_accuracy": report.y_s_accuracy,
        "overall_accuracy": report.overall_accuracy,
        "per_class_accuracy": {str(k): v for k, v in sorted(report.per_class_accuracy.items())},
        "counts": {str(k): v for k, v in sorted(report.counts.items())},
        "excluded_classes": list(report.excluded_classes),
    }


def _write_json(path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_generate(cfg: RunConfig, out: Path) -> int:
    if cfg.dataset.synthetic is None:
        raise ConfigError("generate needs a dataset.synthetic section")
    dataset = build_dataset(cfg)
    datagen.export_csv(dataset, out / "dataset.csv",
                       provenance={"config": to_provenance(cfg)})
    print(f"wrote {out / 'dataset.csv'} ({len(dataset)} samples)")
    return 0


def cmd_split(cfg: RunConfig, out: Path) -> int:
    dataset = build_dataset(cfg)
    plan = build_plan(cfg, dataset, cfg.split.setting)
    plan.save(out / "plan.json")
    _write_json(out / "plan_provenance.json", {"config": to_provenance(cfg)})
    print(f"wrote {out / 'plan.json'} "
          f"(shared {len(plan.shared_classes)}, linked {len(plan.linked_classes)})")
    return 0


def cmd_train(cfg: RunConfig, out: Path) -> int:
    dataset = build_dataset(cfg)
    plan = build_plan(cfg, dataset, cfg.split.setting)
    net_cfg = _network_config(cfg, dataset, plan)
    pool, target = datagen.apply_split(dataset, plan)
    del dataset                  # the loop holds only its split and the target
    params = networks.init_params(net_cfg, subseed(cfg.seed, "init"))
    trainer_cfg = replace(cfg.trainer, seed=subseed(cfg.seed, "train"))
    train_set, val_set = trainer.train_val_split(pool, trainer_cfg)
    del pool
    final, best, log = trainer.train(params, train_set, plan, cfg.loss, trainer_cfg,
                                     val_set=val_set)
    report = evalsel.evaluate(best, target, plan)

    networks.save_checkpoint(best, out / "checkpoint_best.npz")
    networks.save_checkpoint(final, out / "checkpoint_final.npz")
    log.write_jsonl(out / "trainlog.jsonl")
    log.write_summary_csv(out / "trainlog.csv")
    _write_json(out / "metrics.json",
                {"metrics": _metrics_payload(report), "best_step": log.best_step})
    _write_json(out / "run.json", {"config": to_provenance(cfg),
                                   "plan": json.loads(plan.to_json())})
    print(f"target y_l={report.y_l_accuracy} y_s={report.y_s_accuracy} "
          f"overall={report.overall_accuracy}")
    return 0


def train_fold(held_out_domain: int, train_set: datagen.Dataset,
               val_set: datagen.Dataset, eval_set: datagen.Dataset,
               plan: datagen.SplitPlan, net_cfg: networks.NetworkConfig,
               loss_cfg, trainer_cfg: trainer.TrainerConfig,
               fold_seed: int) -> evalsel.MetricsReport:
    """The search's fold runner: train one fold model and evaluate its
    best snapshot on the held-out domain."""
    params = networks.init_params(net_cfg, subseed(fold_seed, "init"))
    fold_trainer_cfg = replace(trainer_cfg, seed=subseed(fold_seed, "train"))
    _, best, _ = trainer.train(params, train_set, plan, loss_cfg, fold_trainer_cfg,
                               val_set=val_set, log_steps=False)
    return evalsel.evaluate(best, eval_set, plan)


def _search_one(cfg: RunConfig, dataset, plan, net_cfg, seed_root):
    """Random search scored by leave-one-source-domain-out validation."""
    val_seed = subseed(seed_root, "validation")

    def score_fn(hyper):
        loss_cfg, trainer_cfg = evalsel.apply_hyper(cfg.loss, cfg.trainer, hyper)
        result = evalsel.training_domain_validation(
            dataset, plan, net_cfg, loss_cfg, trainer_cfg, val_seed, train_fold)
        return result.score

    return evalsel.random_search(cfg.search.space, cfg.search.n_trials,
                                 subseed(seed_root, "hyper"), score_fn)


def cmd_search(cfg: RunConfig, out: Path) -> int:
    if cfg.search.n_trials < 1:
        raise ConfigError("search needs search.n_trials >= 1")
    dataset = build_dataset(cfg)
    plan = build_plan(cfg, dataset, cfg.split.setting)
    net_cfg = _network_config(cfg, dataset, plan)
    result = _search_one(cfg, dataset, plan, net_cfg, cfg.seed)
    _write_json(out / "search.json", {
        "config": to_provenance(cfg),
        "trials": [asdict(t) for t in result.trials],
        "winner": asdict(result.trials[result.best_index]),
    })
    print(f"winner trial {result.best_index} score {result.best_score}")
    return 0


def run_benchmark_cell(cfg: RunConfig, setting, variant: str,
                       rep: int) -> evalsel.ResultRow:
    """One (setting, variant, repetition) cell; pure function of its
    arguments so cells can run in any process in any order.

    The cell seed deliberately excludes the variant: within a repetition
    every variant trains from the same initialization on the same batch
    sequence, so per-repetition comparisons isolate the objective.
    """
    dataset = build_dataset(cfg)
    plan = build_plan(cfg, dataset, setting)
    net_cfg = _network_config(cfg, dataset, plan)
    cell_seed = subseed(cfg.seed, "cell", setting, rep)

    loss_cfg = replace(cfg.loss, variant=variant)
    trainer_cfg = cfg.trainer
    cell_cfg = replace(cfg, loss=loss_cfg)
    winner = None
    if cfg.search.n_trials >= 1:
        result = _search_one(cell_cfg, dataset, plan, net_cfg, cell_seed)
        winner = result.trials[result.best_index]
        loss_cfg, trainer_cfg = evalsel.apply_hyper(loss_cfg, trainer_cfg, winner.hyper)

    pool, target = datagen.apply_split(dataset, plan)
    del dataset                  # the loop holds only its split and the target
    params = networks.init_params(net_cfg, subseed(cell_seed, "final-init"))
    final_cfg = replace(trainer_cfg, seed=subseed(cell_seed, "final-train"))
    train_set, val_set = trainer.train_val_split(pool, final_cfg)
    del pool
    _, best, _ = trainer.train(params, train_set, plan, loss_cfg, final_cfg,
                               val_set=val_set, log_steps=False)
    report = evalsel.evaluate(best, target, plan)
    return evalsel.ResultRow(dataset=cfg.dataset.name, setting=str(setting),
                             variant=variant, rep=rep, y_l_accuracy=report.y_l_accuracy,
                             y_s_accuracy=report.y_s_accuracy,
                             per_class=report.per_class_accuracy, winner=winner)


def worker_count(jobs: int, cells: int, cpus: int | None) -> int:
    """Processes for the benchmark cells: ``--jobs`` capped by the number
    of cells and of CPUs (one when the CPU count is unknown)."""
    return max(1, min(jobs, cells, cpus or 1))


def cmd_benchmark(cfg: RunConfig, out: Path, jobs: int) -> int:
    # every setting's shared-class count, before the first cell trains; a
    # plan file fixes the split of every cell, so each setting must name it
    plan = None if cfg.split.plan_path is None else datagen.SplitPlan.load(cfg.split.plan_path)
    num_classes = len(build_dataset(cfg).class_set() if plan is None else plan.classes)
    for setting in cfg.benchmark.settings:
        shared = datagen.shared_class_count(num_classes, setting)
        if plan is not None and shared != len(plan.shared_classes):
            raise ConfigError(f"setting {setting!r} shares {shared} of {num_classes} classes, "
                              f"but the plan file shares {len(plan.shared_classes)}")
    cells = [(setting, variant, rep)
             for setting in cfg.benchmark.settings
             for variant in cfg.benchmark.variants
             for rep in range(cfg.benchmark.reps)]

    workers = worker_count(jobs, len(cells), os.cpu_count())
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor   # only a pool needs it

        # warnings off in each worker too: a forked one inherits main's
        # floating-point state, a spawned one does not
        with ProcessPoolExecutor(max_workers=workers, initializer=np.seterr,
                                 initargs=("ignore",)) as pool:
            futures = [pool.submit(run_benchmark_cell, cfg, *cell) for cell in cells]
            try:
                rows = [f.result() for f in futures]   # submission order, not completion
            except BaseException:
                pool.shutdown(cancel_futures=True)   # the run has failed: start no more cells
                raise
    else:
        rows = [run_benchmark_cell(cfg, *cell) for cell in cells]

    agg = evalsel.aggregate(rows)
    provenance = {"config": to_provenance(cfg)}
    evalsel.write_results_csv(rows, out / "results.csv", provenance)
    evalsel.write_aggregate_csv(agg, out / "aggregate.csv", provenance)
    _write_json(out / "benchmark.json", {
        "config": to_provenance(cfg),
        "cells": [{"setting": r.setting, "variant": r.variant, "rep": r.rep,
                   "y_l": r.y_l_accuracy, "y_s": r.y_s_accuracy,
                   "winner": None if r.winner is None else asdict(r.winner)}
                  for r in rows],
    })
    for row in agg:
        se_l = "" if row.y_l_se is None else f" +- {row.y_l_se:.4f}"
        se_s = "" if row.y_s_se is None else f" +- {row.y_s_se:.4f}"
        y_l = "n/a" if row.y_l_mean is None else f"{row.y_l_mean:.4f}{se_l}"
        y_s = "n/a" if row.y_s_mean is None else f"{row.y_s_mean:.4f}{se_s}"
        print(f"{row.dataset} {row.setting:>5} {row.variant:<9} "
              f"y_l {y_l:<20} y_s {y_s}")
    return 0


def cmd_dump_embeddings(cfg: RunConfig, out: Path, checkpoint: str | None) -> int:
    if checkpoint is None:
        raise ConfigError("dump-embeddings needs --checkpoint")
    params = networks.load_checkpoint(checkpoint)
    dataset = build_dataset(cfg)
    plan = build_plan(cfg, dataset, cfg.split.setting)
    evalsel.dump_embeddings(params, dataset, plan, out / "embeddings.csv")
    print(f"wrote {out / 'embeddings.csv'} ({len(dataset)} rows)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fond",
        description="Contrastive multi-domain training and evaluation harness")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="JSON run config")
        p.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="KEY=VALUE", help="dotted-path config override")
        p.add_argument("--out", default="runs/out", help="output directory")
        p.add_argument("--seed", type=int, default=None, help="master seed override")
        return p

    for name in ("generate", "split", "train", "search"):
        common(sub.add_parser(name))
    common(sub.add_parser("benchmark")).add_argument(
        "--jobs", type=int, default=1, help="parallel worker count")
    common(sub.add_parser("dump-embeddings")).add_argument(
        "--checkpoint", default=None, help="model checkpoint file")
    return parser


_COMMANDS = {
    "generate": cmd_generate,
    "split": cmd_split,
    "train": cmd_train,
    "search": cmd_search,
}


def _fail(kind: str, exc: BaseException, code: int) -> int:
    sys.stderr.write(json.dumps(
        {"error": kind, "type": type(exc).__name__, "message": str(exc)}) + "\n")
    return code


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, args.overrides)
        if args.seed is not None:
            cfg = replace(cfg, seed=args.seed)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        with np.errstate(all="ignore"):   # see the module docstring
            if args.command == "benchmark":
                return cmd_benchmark(cfg, out, args.jobs)
            if args.command == "dump-embeddings":
                return cmd_dump_embeddings(cfg, out, args.checkpoint)
            return _COMMANDS[args.command](cfg, out)
    except _NUMERIC_ERRORS as exc:
        return _fail("numerical", exc, EXIT_NUMERIC)
    except _CONFIG_ERRORS as exc:
        return _fail("config", exc, EXIT_CONFIG)
    except OSError as exc:
        return _fail("io", exc, EXIT_IO)


if __name__ == "__main__":
    sys.exit(main())
