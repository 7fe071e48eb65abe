"""Command-line entry point.

Subcommands (``COMMANDS``): generate, split, train, search, benchmark,
dump-embeddings.
Every command takes --config PATH plus optional --set overrides, --out
(default runs/out) and --seed; benchmark also takes --jobs, and
dump-embeddings --checkpoint. Failures print one machine-parsable
JSON line to stderr and exit with 2 (config), 3 (numerical), or 4 (I/O).
numpy's floating-point warnings are off: the checks at the module
boundaries report every non-finite value as exit 3 instead.
"""

from __future__ import annotations

import argparse
import contextlib
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
    write_output,
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


def cell_config(cfg: RunConfig, setting, variant: str) -> RunConfig:
    """``cfg`` with a benchmark cell's ``setting`` as ``split.setting`` and its
    ``variant`` as ``loss.variant``: the whole config that the cell runs."""
    return replace(cfg, split=replace(cfg.split, setting=setting),
                   loss=replace(cfg.loss, variant=variant))


def build_plan(cfg: RunConfig, dataset: datagen.Dataset) -> datagen.SplitPlan:
    """The plan of ``cfg.split``: the plan file if one is named, checked against
    the config, else a seeded draw; either way checked against ``dataset``
    (``SplitPlan.check_data``)."""
    setting = cfg.split.setting
    if cfg.split.plan_path is not None:
        plan = datagen.SplitPlan.load(cfg.split.plan_path)
        return plan.check_split(setting, cfg.split.target_domain).check_data(dataset)
    return datagen.make_split_plan(dataset.class_set(), dataset.domain_set(),
                                   cfg.split.target_domain, setting,
                                   subseed(cfg.seed, "plan", setting)).check_data(dataset)


def network_config(cfg: RunConfig, dataset: datagen.Dataset,
                   plan: datagen.SplitPlan) -> networks.NetworkConfig:
    """G has one output per planned class, in class-code order
    (``SplitPlan.class_codes``), whatever the class ids."""
    return networks.NetworkConfig(input_dim=dataset.input_dim, num_classes=len(plan.classes),
                                  **asdict(cfg.network))


def _metrics_payload(report: evalsel.MetricsReport) -> dict:
    """``report``'s fields, each dict's class keys as text, so ``_write_json``
    sorts them as text ("10" before "2")."""
    return {name: {str(k): v for k, v in value.items()} if isinstance(value, dict) else value
            for name, value in asdict(report).items()}


def _write_json(path, payload: dict) -> None:
    write_output(path, [(json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("utf-8")])


def _write_outputs(out: Path, writers: dict) -> None:
    """Call ``write(out / name)`` for each ``name: write`` in order, once every
    named file an earlier run left in ``out`` is removed: a write that fails
    then leaves only this run's files, never two runs' files side by side."""
    for name in writers:
        (out / name).unlink(missing_ok=True)
    for name, write in writers.items():
        write(out / name)


def cmd_generate(cfg: RunConfig, out: Path, args: argparse.Namespace) -> int:
    if cfg.dataset.synthetic is None:
        raise ConfigError("generate needs a dataset.synthetic section")
    dataset = build_dataset(cfg)
    datagen.export_csv(dataset, out / "dataset.csv",
                       provenance={"config": to_provenance(cfg)})
    print(f"wrote {out / 'dataset.csv'} ({len(dataset)} samples)")
    return 0


def cmd_split(cfg: RunConfig, out: Path, args: argparse.Namespace) -> int:
    dataset = build_dataset(cfg)
    plan = build_plan(cfg, dataset)
    _write_outputs(out, {
        "plan.json": lambda path: _write_json(path, plan.to_doc()),
        "plan_provenance.json": lambda path: _write_json(path, {"config": to_provenance(cfg)}),
    })
    print(f"wrote {out / 'plan.json'} "
          f"(shared {len(plan.shared_classes)}, linked {len(plan.linked_classes)})")
    return 0


def cmd_train(cfg: RunConfig, out: Path, args: argparse.Namespace) -> int:
    plan, final, best, log, report, _ = train_on_split(cfg, cfg.seed)
    _write_outputs(out, {
        "checkpoint_best.npz": lambda path: networks.save_checkpoint(best, path),
        "checkpoint_final.npz": lambda path: networks.save_checkpoint(final, path),
        "trainlog.jsonl": log.write_jsonl,
        "trainlog.csv": log.write_summary_csv,
        "metrics.json": lambda path: _write_json(
            path, {"metrics": _metrics_payload(report), "best_step": log.best_step}),
        "run.json": lambda path: _write_json(
            path, {"config": to_provenance(cfg), "plan": plan.to_doc()}),
    })
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
    params, trainer_cfg = trainer.start(net_cfg, trainer_cfg, fold_seed)
    _, best, _ = trainer.train(params, train_set, plan, loss_cfg, trainer_cfg,
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


def cmd_search(cfg: RunConfig, out: Path, args: argparse.Namespace) -> int:
    dataset = build_dataset(cfg)
    plan = build_plan(cfg, dataset)
    result = _search_one(cfg, dataset, plan, network_config(cfg, dataset, plan), cfg.seed)
    _write_json(out / "search.json", {
        "config": to_provenance(cfg),
        "trials": [asdict(t) for t in result.trials],
        "winner": asdict(result.trials[result.best_index]),
    })
    print(f"winner trial {result.best_index} score {result.best_score}")
    return 0


def train_on_split(cfg: RunConfig, seed_root: int, tag: str = "", *,
                   search: bool = False, log_steps: bool = True):
    """The recipe of ``fond train`` and each benchmark cell, seeded by ``trainer.start``
    with ``tag`` under ``seed_root``, with the search's winning hypers if ``search``.
    Returns (plan, final, best, log, best's target report, winning trial or None)."""
    dataset = build_dataset(cfg)
    plan = build_plan(cfg, dataset)
    net_cfg = network_config(cfg, dataset, plan)
    loss_cfg, trainer_cfg, winner = cfg.loss, cfg.trainer, None
    if search:
        result = _search_one(cfg, dataset, plan, net_cfg, seed_root)
        winner = result.trials[result.best_index]
        loss_cfg, trainer_cfg = evalsel.apply_hyper(loss_cfg, trainer_cfg, winner.hyper)
    pool, target = datagen.apply_split(dataset, plan)
    del dataset                  # the loop holds only its split and the target
    params, trainer_cfg = trainer.start(net_cfg, trainer_cfg, seed_root, tag)
    train_set, val_set = trainer.train_val_split(pool, trainer_cfg)
    del pool
    final, best, log = trainer.train(params, train_set, plan, loss_cfg, trainer_cfg,
                                     val_set=val_set, log_steps=log_steps)
    return plan, final, best, log, evalsel.evaluate(best, target, plan), winner


def run_benchmark_cell(cfg: RunConfig, setting, variant: str,
                       rep: int) -> evalsel.ResultRow:
    """One (setting, variant, repetition) cell, which trains
    ``cell_config(cfg, setting, variant)``; pure function of its arguments
    so cells can run in any process in any order.

    The cell seed deliberately excludes the variant: within a repetition
    every variant trains from the same initialization on the same batch
    sequence, so per-repetition comparisons isolate the objective.
    """
    cell_seed = subseed(cfg.seed, "cell", setting, rep)
    *_, report, winner = train_on_split(cell_config(cfg, setting, variant), cell_seed, "final-",
                                        search=cfg.search.n_trials >= 1, log_steps=False)
    return evalsel.ResultRow(dataset=cfg.dataset.name, setting=str(setting),
                             variant=variant, rep=rep, y_l_accuracy=report.y_l_accuracy,
                             y_s_accuracy=report.y_s_accuracy,
                             per_class=report.per_class_accuracy, winner=winner)


def worker_count(jobs: int, cells: int, cpus: int | None) -> int:
    """Processes for the benchmark cells: ``--jobs`` capped by the number
    of cells and of CPUs (one when the CPU count is unknown)."""
    return max(1, min(jobs, cells, cpus or 1))


def run_cells(cells, jobs: int) -> list[evalsel.ResultRow]:
    """``run_benchmark_cell(cfg, setting, variant, rep)`` of each cell, a tuple
    of those four, so each cell carries its own config; in the order given, in
    this process or in ``worker_count`` worker processes. A cell that raises
    cancels the cells not yet started and propagates."""
    workers = worker_count(jobs, len(cells), os.cpu_count())
    if workers == 1:
        return [run_benchmark_cell(*cell) for cell in cells]
    from concurrent.futures import ProcessPoolExecutor   # only a pool needs it

    # warnings off in each worker too: a forked one inherits main's
    # floating-point state, a spawned one does not
    with ProcessPoolExecutor(max_workers=workers, initializer=np.seterr,
                             initargs=("ignore",)) as pool:
        return list(pool.map(run_benchmark_cell, *zip(*cells)))


def _mean_se(mean: float | None, se: float | None) -> str:
    if mean is None:
        return "n/a"
    return f"{mean:.4f}" if se is None else f"{mean:.4f} +- {se:.4f}"


def cmd_benchmark(cfg: RunConfig, out: Path, args: argparse.Namespace) -> int:
    # every setting's plan, built from the config its cells run and checked
    # against the config and the data before the first cell
    dataset = build_dataset(cfg)
    for setting in cfg.benchmark.settings:
        build_plan(cell_config(cfg, setting, cfg.loss.variant), dataset)
    del dataset
    rows = run_cells([(cfg, setting, variant, rep)
                      for setting in cfg.benchmark.settings
                      for variant in cfg.benchmark.variants
                      for rep in range(cfg.benchmark.reps)], args.jobs)

    agg = evalsel.aggregate(rows)
    paired = evalsel.pair_with_erm(rows)
    provenance = {"config": to_provenance(cfg)}
    table = evalsel.write_variant_table
    _write_outputs(out, {
        "results.csv": lambda path: evalsel.write_results_csv(rows, path, provenance),
        "aggregate.csv": lambda path: table(evalsel.AggregateRow, agg, path, provenance),
        "paired.csv": lambda path: table(evalsel.PairedRow, paired, path, provenance),
        "benchmark.json": lambda path: _write_json(path, {
            **provenance,
            "cells": [{"setting": r.setting, "variant": r.variant, "rep": r.rep,
                       "y_l": r.y_l_accuracy, "y_s": r.y_s_accuracy,
                       "winner": None if r.winner is None else asdict(r.winner)}
                      for r in rows],
        }),
    })
    for row in agg:
        print(f"{row.dataset} {row.setting:>5} {row.variant:<9} "
              f"y_l {_mean_se(row.y_l_mean, row.y_l_se):<20} "
              f"y_s {_mean_se(row.y_s_mean, row.y_s_se)}")
    for row in paired:
        print(f"{row.dataset} {row.setting:>5} {row.variant:<9} beats {evalsel.BASELINE} on "
              f"y_l in {row.y_l_wins}/{row.reps} reps, on y_s in {row.y_s_wins}/{row.reps}")
    return 0


def cmd_dump_embeddings(cfg: RunConfig, out: Path, args: argparse.Namespace) -> int:
    if args.checkpoint is None:
        raise ConfigError("dump-embeddings needs --checkpoint")
    params = networks.load_checkpoint(args.checkpoint)
    dataset = build_dataset(cfg)
    plan = build_plan(cfg, dataset)
    evalsel.dump_embeddings(params, dataset, plan, out / "embeddings.csv")
    print(f"wrote {out / 'embeddings.csv'} ({len(dataset)} rows)")
    return 0


# each subcommand's name and function; the parser and main both read it
COMMANDS = {
    "generate": cmd_generate,
    "split": cmd_split,
    "train": cmd_train,
    "search": cmd_search,
    "benchmark": cmd_benchmark,
    "dump-embeddings": cmd_dump_embeddings,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fond",
        description="Contrastive multi-domain training and evaluation harness")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON run config")
        p.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="KEY=VALUE", help="dotted-path config override")
        p.add_argument("--out", default="runs/out", help="output directory")
        p.add_argument("--seed", type=int, default=None, help="master seed override")
        if command is cmd_benchmark:
            p.add_argument("--jobs", type=int, default=1, help="parallel worker count")
        if command is cmd_dump_embeddings:
            p.add_argument("--checkpoint", default=None, help="model checkpoint file")
    return parser


def _fail(kind: str, exc: BaseException, code: int) -> int:
    sys.stderr.write(json.dumps(
        {"error": kind, "type": type(exc).__name__, "message": str(exc)}) + "\n")
    return code


def _run(args: argparse.Namespace, out: Path) -> int:
    try:
        cfg = load_config(args.config, args.overrides)
        if args.seed is not None:
            cfg = replace(cfg, seed=args.seed)
        out.mkdir(parents=True, exist_ok=True)
        with np.errstate(all="ignore"):   # see the module docstring
            return COMMANDS[args.command](cfg, out, args)
    except _NUMERIC_ERRORS as exc:
        return _fail("numerical", exc, EXIT_NUMERIC)
    except _CONFIG_ERRORS as exc:
        return _fail("config", exc, EXIT_CONFIG)
    except OSError as exc:
        return _fail("io", exc, EXIT_IO)


def main(argv=None) -> int:
    """Run one command; a failed run removes each directory of its --out
    path that the run made and that is still empty. A directory that was
    there before the run stays."""
    args = build_parser().parse_args(argv)
    out = Path(args.out)
    made = [path for path in (out, *out.parents) if not path.exists()]
    code = _run(args, out)
    if code:
        for path in made:
            with contextlib.suppress(OSError):   # absent, or no longer empty
                path.rmdir()
    return code


if __name__ == "__main__":
    sys.exit(main())
