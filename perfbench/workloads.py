"""The benchmark's workloads: what each runs, what it checks, and why.

Each workload is a list of ``fond`` CLI commands run in one fresh process.
Every command counts as one or more operations (a benchmark cell, or the
command itself); an operation fails on a nonzero exit, on an artifact that
breaks a check that holds for every seed, or on a digest mismatch.

The workload seed reaches the program only as input: as ``--seed`` for the
two benchmark workloads, and as the synthetic CSV that ``wide_batch_csv``
trains on.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Command:
    name: str
    argv: list[str]              # arguments to ``fond.cli.main``
    out: Path                    # the command's output directory
    artifacts: tuple[str, ...]   # files byte-compared at the recorded seed
    operations: int              # operations the command counts for


def _accuracy_ok(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value) and 0.0 <= value <= 1.0


def _data_rows(path: Path) -> list[list[str]]:
    """CSV rows after the optional ``# provenance:`` line, header included."""
    with open(path, encoding="utf-8", newline="") as fh:
        return [row for row in csv.reader(line for line in fh if not line.startswith("#"))]


@dataclass(frozen=True)
class BenchmarkWorkload:
    """``fond benchmark`` on a bundled config, serial (``--jobs 1``)."""

    name: str
    config: str                  # relative to the repository root
    nominal_s: float             # one run's length, a fixed planning figure
    overrides: tuple[str, ...] = ()
    digested: tuple[str, ...] = ("results.csv", "aggregate.csv")

    def prepare(self, inputs: Path, seed: int) -> None:
        """Nothing to generate: the seed goes to the program as ``--seed``."""

    def config_args(self, root: Path, inputs: Path) -> tuple[Path, list[str]]:
        return root / self.config, list(self.overrides)

    def commands(self, root: Path, inputs: Path, out: Path, seed: int,
                 cfg) -> list[Command]:
        path, overrides = self.config_args(root, inputs)
        argv = ["benchmark", "--config", str(path), "--seed", str(seed),
                "--out", str(out / "benchmark"), "--jobs", "1"]
        for item in overrides:
            argv += ["--set", item]
        return [Command("benchmark", argv, out / "benchmark", self.digested,
                        len(_cells(cfg)))]

    def logical_steps(self, cfg) -> int:
        """Optimizer steps the config asks for, search folds included."""
        folds = cfg.dataset.synthetic.num_domains - 1
        per_cell = cfg.trainer.max_steps * (1 + cfg.search.n_trials * folds)
        return len(_cells(cfg)) * per_cell

    def check(self, command: Command, cfg) -> int:
        """Failed cells under the checks that hold for every seed."""
        expected = _cells(cfg)
        try:
            doc = json.loads((command.out / "benchmark.json").read_text(encoding="utf-8"))
            rows = _data_rows(command.out / "results.csv")
            agg = _data_rows(command.out / "aggregate.csv")
        except (OSError, ValueError):
            return len(expected)
        if len(rows) != len(expected) + 1 or len(agg) < 2:
            return len(expected)
        good = {(c["setting"], c["variant"], c["rep"]) for c in doc.get("cells", [])
                if _accuracy_ok(c.get("y_l")) and _accuracy_ok(c.get("y_s"))}
        return sum(1 for cell in expected if cell not in good)

    def linked_acc(self, command: Command) -> float | None:
        """Mean target linked-class accuracy over the ``fond`` cells."""
        doc = json.loads((command.out / "benchmark.json").read_text(encoding="utf-8"))
        values = [c["y_l"] for c in doc["cells"] if c["variant"] == "fond"]
        return sum(values) / len(values) if values else None


def _cells(cfg) -> list[tuple[str, str, int]]:
    b = cfg.benchmark
    return [(str(s), v, r) for s in b.settings for v in b.variants for r in range(b.reps)]


@dataclass(frozen=True)
class WideCsvWorkload:
    """``fond train`` on a generated CSV at a large batch, then
    ``fond dump-embeddings`` from the best checkpoint."""

    name: str
    config: str
    nominal_s: float
    classes: int = 7
    domains: int = 4
    per_cell: int = 500
    input_dim: int = 16

    def csv_path(self, inputs: Path) -> Path:
        return inputs / "wide_input.csv"

    def prepare(self, inputs: Path, seed: int) -> None:
        write_mixture_csv(self.csv_path(inputs), seed, self.classes, self.domains,
                          self.per_cell, self.input_dim)

    def config_args(self, root: Path, inputs: Path) -> tuple[Path, list[str]]:
        return root / self.config, [f"dataset.csv_path={self.csv_path(inputs)}"]

    def commands(self, root: Path, inputs: Path, out: Path, seed: int,
                 cfg) -> list[Command]:
        path, overrides = self.config_args(root, inputs)
        common = ["--config", str(path), "--set", overrides[0]]
        train_out, dump_out = out / "train", out / "embeddings"
        return [
            Command("train", ["train", *common, "--out", str(train_out)], train_out,
                    ("trainlog.jsonl", "trainlog.csv", "metrics.json",
                     "checkpoint_best.npz", "checkpoint_final.npz"), 1),
            Command("dump-embeddings",
                    ["dump-embeddings", *common, "--out", str(dump_out),
                     "--checkpoint", str(train_out / "checkpoint_best.npz")],
                    dump_out, ("embeddings.csv",), 1),
        ]

    def logical_steps(self, cfg) -> int:
        return cfg.trainer.max_steps

    def check(self, command: Command, cfg) -> int:
        try:
            if command.name == "train":
                return 0 if self._train_ok(command.out, cfg) else 1
            return 0 if self._embeddings_ok(command.out, cfg) else 1
        except (OSError, ValueError, KeyError):
            return 1

    def _train_ok(self, out: Path, cfg) -> bool:
        metrics = json.loads((out / "metrics.json").read_text(encoding="utf-8"))["metrics"]
        if not all(_accuracy_ok(metrics[k])
                   for k in ("y_l_accuracy", "y_s_accuracy", "overall_accuracy")):
            return False
        with open(out / "trainlog.jsonl", encoding="utf-8") as fh:
            records = [json.loads(line) for line in fh]
        steps = [r for r in records if r["kind"] == "step"]
        if len(steps) != cfg.trainer.max_steps or not all(
                math.isfinite(r["total"]) for r in steps):
            return False
        if len(_data_rows(out / "trainlog.csv")) != cfg.trainer.max_steps + 1:
            return False
        for name in ("checkpoint_best.npz", "checkpoint_final.npz"):
            with np.load(out / name) as archive:
                if not all(np.isfinite(archive[k]).all() for k in archive.files
                           if archive[k].dtype.kind == "f"):
                    return False
        return True

    def _embeddings_ok(self, out: Path, cfg) -> bool:
        rows = _data_rows(out / "embeddings.csv")
        width = 4 + cfg.network.feature_dim
        if len(rows) != 1 + self.classes * self.domains * self.per_cell:
            return False
        return all(len(r) == width and all(math.isfinite(float(v)) for v in r[4:])
                   for r in rows[1:])

    def linked_acc(self, command: Command) -> float | None:
        if command.name != "train":
            return None
        metrics = json.loads((command.out / "metrics.json").read_text(encoding="utf-8"))
        return metrics["metrics"]["y_l_accuracy"]


def write_mixture_csv(path: Path, seed: int, classes: int, domains: int,
                      per_cell: int, dim: int) -> None:
    """Seeded Gaussian mixture in fond's CSV format: every domain applies
    its own affine map to shared class prototypes, plus isotropic noise."""
    rng = np.random.default_rng([seed & 0xFFFFFFFF, 0x57494445])
    prototypes = 2.0 * rng.normal(size=(classes, dim))
    lines = ["id,domain,label," + ",".join(f"f{j}" for j in range(dim))]
    row = 0
    for d in range(domains):
        mix = np.eye(dim) + (0.8 / np.sqrt(dim)) * rng.normal(size=(dim, dim))
        offset = (0.8 / np.sqrt(dim)) * rng.normal(size=dim)
        for c in range(classes):
            x = mix @ prototypes[c] + offset + rng.normal(size=(per_cell, dim))
            for features in x:
                lines.append(f"{row},{d},{c}," + ",".join(repr(float(v)) for v in features))
                row += 1
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


# BENCHMARK.json lists desk_high and wide_batch_csv. lodo_search is kept for
# traced runs and manual comparisons but left out of the gated set: some seeds
# (0 and 15) make ``fond benchmark`` exit 3, and its many tiny Python-bound
# steps slowed up to 1.9x when the host was busy (desk 1.4x, wide 1.2x), so its
# timings spread past every allowed bound across seeds.
WORKLOADS = {w.name: w for w in (
    BenchmarkWorkload(
        name="desk_high",
        config="configs/desk_high.json",
        nominal_s=13.0),
    BenchmarkWorkload(
        name="lodo_search",
        config="configs/tiny_benchmark.json",
        nominal_s=11.0,
        overrides=("benchmark.reps=3", "search.n_trials=2"),
        digested=("results.csv", "aggregate.csv", "benchmark.json")),
    WideCsvWorkload(
        name="wide_batch_csv",
        config="perfbench/wide_batch_csv.json",
        nominal_s=11.0),
)}
