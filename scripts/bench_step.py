#!/usr/bin/env python3
"""Time the pieces of one training step, layer by layer.

    python3 scripts/bench_step.py                      # desk shape
    python3 scripts/bench_step.py --batch-sizes 64 256 1024 \
        --set dataset.synthetic.samples_per_cell=400 --set trainer.max_steps=50
    python3 scripts/bench_step.py --config configs/tiny_benchmark.json \
        --set trainer.dropout=0.1 --repeat 1 --number 2

For each batch size (``--batch-sizes``, default the config's), and for an
ERM and a FOND step at the config's shape (network, loss weights,
dropout), prints the best-of-``--repeat`` microseconds per call of each
piece: the dropout stream (a step's share of building every step's
dropout generator), ``forward_pass``, ``fond_loss``, ``xdom_loss`` (FOND
only), ``backward_pass`` and ``grad_norm``, plus ``step``, a whole
``trainer.train`` run divided by its steps (evaluations included), and
``step_unlogged``, the same run without its step log, as a benchmark
cell's or a search fold's training runs. Once
for all sizes it times ``optimizer_step`` under each optimizer (each call
on a fresh copy of the gradient, which the step overwrites; the copy is
timed too), ``evalsel.evaluate`` on one block of ``evalsel.INFER_ROWS``
source rows, with its two parts on that block next to it: ``predict``
(the forward passes and argmax) and ``score`` (the counting, on
``predict``'s output), the float-row writer (``floatrows.float_rows``, one call per
round) on that block's features h as ``dump_embeddings`` writes them, next
to the per-value ``repr`` join it reproduces, and ``datagen.ingest_csv``
(one call per round) on the config's dataset, written by
``datagen.export_csv`` to a temporary file, next to the line parser it
falls back to (``line_us``) on the same file.
Each variant runs the config of a benchmark cell of the config's first
``benchmark.settings`` entry (``cli.cell_config``), on that setting's plan.
The trainings use the train/validation split ``fond train`` draws, and
the pieces run on the trainer's own step inputs (``trainer.start`` and
``trainer.step_inputs``), into one ``losses.GramBuffer``. At each size one
untimed step of each variant runs before any timing, so the variant
timed first does not pay for the first use of that size's arrays.
The output is one JSON object, stamped with the host (Python, numpy,
BLAS, the BLAS thread count from the environment, None when unpinned).
All inputs come from the config's seed, so two runs time the same work.
Pin BLAS to one thread (``OPENBLAS_NUM_THREADS=1``) for comparable numbers.
"""

import argparse
import json
import os
import platform
import sys
import tempfile
import timeit
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np

from fond import cli, datagen, evalsel, floatrows, losses, networks, trainer
from fond.config import load_config

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
TIMED_VARIANTS = ("erm", "fond")


def best_us(fn, repeat: int, number: int) -> float:
    """Best-of-``repeat`` mean microseconds of ``number`` calls of ``fn``."""
    return min(timeit.repeat(fn, repeat=repeat, number=number)) / number * 1e6


def dropout_stream_us(seed: int, steps: int, repeat: int) -> float:
    """A step's share of building all ``steps`` dropout generators."""
    def run():
        for _ in trainer.dropout_streams(seed, steps):
            pass
    return best_us(run, repeat, 1) / steps


def host() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = next((os.environ[v] for v in BLAS_THREAD_VARS if v in os.environ), None)
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": None if threads is None else int(threads),
            "machine": platform.machine(), "cpu_count": os.cpu_count()}


def first_step(variant, cfg, train_set, plan, net_cfg):
    """The inputs and results of ``fond train``'s first step under ``variant``:
    (loss config, trainer config, batch features, annotations, dropout
    generator or None, params, forward pass, loss, gradient buffer, Gram
    buffer). As in ``trainer.train``, the contrastive term writes into one
    ``GramBuffer`` (None when P does not run)."""
    loss_cfg = cli.cell_config(cfg, cfg.split.setting, variant).loss.resolved()
    params, tcfg = trainer.start(net_cfg, cfg.trainer, cfg.seed)
    x, ann, drng = next(trainer.step_inputs(params, train_set, plan, tcfg))
    project = loss_cfg.contrastive
    fp = networks.forward_pass(params, x, dropout_rate=tcfg.dropout, dropout_rng=drng,
                               project=project)
    gram = losses.GramBuffer() if project else None
    fl = losses.fond_loss(fp.logits, fp.z, ann, loss_cfg, gram_buffer=gram)
    grads = networks.ModelParams(config=net_cfg, seed=0)
    networks.backward_pass(fp, fl.grad_logits, fl.grad_z, grads)
    return loss_cfg, tcfg, x, ann, drng, params, fp, fl, grads, gram


def time_variant(variant, cfg, train_set, val_set, plan, net_cfg, repeat, number):
    loss_cfg, tcfg, x, ann, drng, params, fp, fl, grads, gram = first_step(
        variant, cfg, train_set, plan, net_cfg)
    project = loss_cfg.contrastive
    buffer = networks.ModelParams(config=net_cfg, seed=0)

    out = {}
    if tcfg.dropout > 0.0:
        out["dropout_stream"] = dropout_stream_us(tcfg.seed, tcfg.max_steps, repeat)
    out["forward_pass"] = best_us(lambda: networks.forward_pass(
        params, x, dropout_rate=tcfg.dropout, dropout_rng=drng, project=project),
        repeat, number)
    out["fond_loss"] = best_us(lambda: losses.fond_loss(fp.logits, fp.z, ann, loss_cfg,
                                                        gram_buffer=gram), repeat, number)
    if project:
        out["xdom_loss"] = best_us(lambda: losses.xdom_loss(fp.z, ann, loss_cfg,
                                                            gram_buffer=gram), repeat, number)
    out["backward_pass"] = best_us(lambda: networks.backward_pass(
        fp, fl.grad_logits, fl.grad_z, buffer), repeat, number)
    out["grad_norm"] = best_us(lambda: trainer.grad_norm(grads, project), repeat, number)
    for key, logged in (("step", True), ("step_unlogged", False)):
        out[key] = best_us(lambda: trainer.train(
            trainer.start(net_cfg, cfg.trainer, cfg.seed)[0], train_set, plan,
            loss_cfg, tcfg, val_set=val_set, log_steps=logged), repeat, 1) / tcfg.max_steps
    return {name: round(us, 2) for name, us in out.items()}


def time_optimizers(cfg, train_set, plan, net_cfg, repeat, number):
    """optimizer_step under each optimizer, on a copy of a FOND step's whole
    gradient, made in the timed call since the step overwrites it."""
    _, tcfg, _, _, _, params, _, _, grads, _ = first_step("fond", cfg, train_set, plan, net_cfg)
    grad = grads.flat
    work = np.empty_like(grad)

    def step(state, ocfg):
        np.copyto(work, grad)
        trainer.optimizer_step(params, work, state, ocfg)

    out = {}
    for name in trainer.OPTIMIZERS:
        ocfg = replace(tcfg, optimizer=name)
        state = trainer.OptState()
        step(state, ocfg)
        out[name] = round(best_us(lambda: step(state, ocfg), repeat, number), 2)
    return out


def time_ingest(dataset, repeat):
    """``datagen.ingest_csv`` on ``dataset`` as ``export_csv`` writes it, and
    the line parser alone (``_read_csv(path, _parse_rows)``) on that file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "dataset.csv"
        datagen.export_csv(dataset, path)
        timed = {"us": lambda: datagen.ingest_csv(path),
                 "line_us": lambda: datagen._read_csv(path, datagen._parse_rows)}
        return {"rows": len(dataset),
                **{key: round(best_us(fn, repeat, 1), 2) for key, fn in timed.items()}}


def time_evaluate(params, block, plan, repeat, number):
    """``evalsel.evaluate`` on ``block``, and its parts: ``predict`` and ``score``."""
    predicted = evalsel.predict(params, block.features)
    timed = {"us": lambda: evalsel.evaluate(params, block, plan),
             "predict_us": lambda: evalsel.predict(params, block.features),
             "score_us": lambda: evalsel.score(predicted, block, plan)}
    return {"rows": len(block),
            **{key: round(best_us(fn, repeat, number), 2) for key, fn in timed.items()}}


def time_float_rows(params, block, repeat):
    """``floatrows.float_rows`` on ``block``'s features h (one call per
    round), with the row prefixes ``dump_embeddings`` writes, and the
    ``repr`` join it equals."""
    h = networks.forward_pass(params, block.features, project=False).h
    prefixes = [f"{i},{d},{y},shared," for i, d, y in zip(
        block.ids.tolist(), block.domains.tolist(), block.labels.tolist())]

    def joined():
        return "".join(p + ",".join(map(repr, row)) + "\n"
                       for p, row in zip(prefixes, h.tolist())).encode()

    return {"rows": h.shape[0], "cols": h.shape[1],
            "us": round(best_us(lambda: b"".join(floatrows.float_rows(prefixes, h)),
                                repeat, 1), 2),
            "repr_us": round(best_us(joined, repeat, 1), 2)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--config", default=str(ROOT / "configs" / "desk_high.json"))
    parser.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="KEY=VALUE", help="dotted-path config override")
    parser.add_argument("--batch-sizes", type=int, nargs="+", metavar="B",
                        help="batch sizes to time (default: the config's)")
    parser.add_argument("--repeat", type=int, default=7, help="timing rounds; the best counts")
    parser.add_argument("--number", type=int, default=200, help="calls per round")
    args = parser.parse_args()

    cfg = load_config(args.config, args.overrides)
    cfg = cli.cell_config(cfg, cfg.benchmark.settings[0], cfg.loss.variant)
    sizes = args.batch_sizes or [cfg.trainer.batch_size]
    dataset = cli.build_dataset(cfg)
    plan = cli.build_plan(cfg, dataset)
    net_cfg = cli.network_config(cfg, dataset, plan)
    pool, _ = datagen.apply_split(dataset, plan)
    params, tcfg = trainer.start(net_cfg, cfg.trainer, cfg.seed)
    train_set, val_set = trainer.train_val_split(pool, tcfg)
    too_big = [b for b in sizes if b > len(train_set)]
    if too_big:
        parser.error(f"batch sizes {too_big} exceed the {len(train_set)} training rows")

    per_size = {}
    for b in sizes:
        sized = replace(cfg, trainer=replace(cfg.trainer, batch_size=b))
        for variant in TIMED_VARIANTS:   # untimed: the first to run at a size pays its set-up
            first_step(variant, sized, train_set, plan, net_cfg)
        per_size[str(b)] = {variant: time_variant(variant, sized, train_set, val_set, plan,
                                                  net_cfg, args.repeat, args.number)
                            for variant in TIMED_VARIANTS}
    block = pool.subset(np.arange(min(evalsel.INFER_ROWS, len(pool))))
    result = {
        "config": Path(args.config).name,
        "host": host(),
        "repeat": args.repeat, "number": args.number,
        "batch_sizes": per_size,
        "optimizer_step": time_optimizers(cfg, train_set, plan, net_cfg,
                                          args.repeat, args.number),
        "evaluate": time_evaluate(params, block, plan, args.repeat, args.number),
        "float_rows": time_float_rows(params, block, args.repeat),
        "ingest_csv": time_ingest(dataset, args.repeat),
    }
    print(json.dumps(result, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
