#!/usr/bin/env python3
"""Time the pieces of one training step, layer by layer.

    python3 scripts/bench_step.py                      # desk shape
    python3 scripts/bench_step.py --config configs/tiny_benchmark.json \
        --set trainer.dropout=0.1 --repeat 1 --number 2

For an ERM and a FOND step at the config's shape (batch size, network,
loss weights, dropout), prints one JSON object with the best-of-``--repeat``
microseconds per call of each piece: the dropout stream (a step's share
of building every step's dropout generator), ``forward_pass``,
``fond_loss``, ``xdom_loss`` (FOND only), ``backward_pass``,
``optimizer_step`` and ``grad_norm``, plus ``step``, a whole
``trainer.train`` run divided by its steps (evaluations included). All
inputs come from the config's seed, so two runs time the same work.
Pin BLAS to one thread (``OPENBLAS_NUM_THREADS=1``) for comparable numbers.
"""

import argparse
import json
import platform
import sys
import timeit
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np

from fond import cli, datagen, losses, networks, trainer
from fond.config import load_config
from fond.seeding import subseed


def best_us(fn, repeat: int, number: int) -> float:
    """Best-of-``repeat`` mean microseconds of ``number`` calls of ``fn``."""
    return min(timeit.repeat(fn, repeat=repeat, number=number)) / number * 1e6


def dropout_stream_us(seed: int, steps: int, repeat: int) -> float:
    """A step's share of building all ``steps`` dropout generators."""
    def run():
        for _ in trainer.dropout_streams(seed, steps):
            pass
    return best_us(run, repeat, 1) / steps


def time_variant(variant, cfg, train_set, val_set, plan, net_cfg, repeat, number):
    loss_cfg = replace(cfg.loss, variant=variant).resolved()
    tcfg = replace(cfg.trainer, seed=subseed(cfg.seed, "train"))
    project = loss_cfg.lambda_xdom > 0
    linked = np.isin(train_set.labels, sorted(plan.linked_classes))
    sampler = datagen.BatchSampler(train_set, tcfg.batch_size,
                                   subseed(tcfg.seed, trainer.SEED_TAG_BATCHES))
    batch = sampler.epoch_batches(0)[0]     # the training's first batch
    ann = losses.BatchAnnotations(labels=train_set.labels[batch],
                                  domains=train_set.domains[batch],
                                  linked_mask=linked[batch])
    x = train_set.features[batch]
    params = networks.init_params(net_cfg, subseed(cfg.seed, "init"))
    drng = trainer.rng_for(tcfg.seed, trainer.SEED_TAG_DROPOUT, 1)
    fp = networks.forward_pass(params, x, dropout_rate=tcfg.dropout, dropout_rng=drng,
                               project=project)
    fl = losses.fond_loss(fp.logits, fp.z, ann, loss_cfg)
    buffer = networks.ModelParams(config=net_cfg, seed=0)
    grad = networks.backward_pass(fp, fl.grad_logits, fl.grad_z, buffer)
    state = trainer.optimizer_step(params, grad, trainer.OptState(), tcfg)

    out = {}
    if tcfg.dropout > 0.0:
        out["dropout_stream"] = dropout_stream_us(tcfg.seed, tcfg.max_steps, repeat)
    out["forward_pass"] = best_us(lambda: networks.forward_pass(
        params, x, dropout_rate=tcfg.dropout, dropout_rng=drng, project=project),
        repeat, number)
    out["fond_loss"] = best_us(lambda: losses.fond_loss(fp.logits, fp.z, ann, loss_cfg),
                               repeat, number)
    if project:
        out["xdom_loss"] = best_us(lambda: losses.xdom_loss(fp.z, ann, loss_cfg),
                                   repeat, number)
    out["backward_pass"] = best_us(lambda: networks.backward_pass(
        fp, fl.grad_logits, fl.grad_z, buffer), repeat, number)
    out["optimizer_step"] = best_us(lambda: trainer.optimizer_step(params, grad, state, tcfg),
                                    repeat, number)
    out["grad_norm"] = best_us(lambda: trainer.grad_norm(params, grad, state), repeat, number)
    out["step"] = best_us(lambda: trainer.train(
        networks.init_params(net_cfg, subseed(cfg.seed, "init")), train_set, plan,
        loss_cfg, tcfg, val_set=val_set), repeat, 1) / tcfg.max_steps
    return {name: round(us, 2) for name, us in out.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--config", default=str(ROOT / "configs" / "desk_high.json"))
    parser.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="KEY=VALUE", help="dotted-path config override")
    parser.add_argument("--repeat", type=int, default=7, help="timing rounds; the best counts")
    parser.add_argument("--number", type=int, default=200, help="calls per round")
    args = parser.parse_args()

    cfg = load_config(args.config, args.overrides)
    setting = cfg.benchmark.settings[0]
    dataset = cli.build_dataset(cfg)
    plan = cli.build_plan(cfg, dataset, setting)
    net_cfg = cfg.network.to_network_config(dataset.input_dim, max(plan.classes) + 1)
    pool, _ = datagen.apply_split(dataset, plan)
    train_set, val_set = trainer.train_val_split(pool, cfg.trainer)
    result = {
        "config": Path(args.config).name,
        "batch_size": cfg.trainer.batch_size,
        "repeat": args.repeat, "number": args.number,
        "numpy": np.__version__, "machine": platform.machine(),
        **{variant: time_variant(variant, cfg, train_set, val_set, plan, net_cfg,
                                 args.repeat, args.number)
           for variant in ("erm", "fond")},
    }
    print(json.dumps(result, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
