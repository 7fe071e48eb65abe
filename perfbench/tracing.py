"""In-process tracing of the fond layers, installed from outside the package.

The tracer replaces module-level bindings of selected public functions with
thin wrappers and puts every original back on exit. Wrapped functions either
open a span (name, parent span, start, end) or only bump a call counter; the
counter-only form keeps the cost low on primitives called ~10^5 times a run.
Spans stay in memory until the run ends. A span's self time is its duration
minus the part of it that its child spans cover.

A binding is patched in the module that owns the function and in every other
``fond`` module that imported that same function object by name (for example
``cli.load_config``), so calls made through either name are seen. A function
the owner only re-exports (``trainer.rng_for`` comes from ``seeding``) is
patched in that one module, so ``trainer.rng_for`` counts only the trainer's
per-step dropout generators.
"""

from __future__ import annotations

import hashlib
import importlib
import sys
import time
from collections import defaultdict

import stats

# (module, attribute): True for a timed span, False for a call counter only.
TARGETS = {
    ("ndcore", "as_matrix"): False,
    ("ndcore", "check_finite"): False,
    ("ndcore", "affine_forward"): True,
    ("ndcore", "affine_backward"): True,
    ("ndcore", "softmax_forward"): False,
    ("ndcore", "l2_normalize_rows"): False,
    ("networks", "forward_pass"): True,
    ("networks", "backward_pass"): True,
    ("networks", "save_checkpoint"): True,
    ("networks", "load_checkpoint"): True,
    ("losses", "fond_loss"): True,
    ("losses", "task_loss"): True,
    ("losses", "xdom_loss"): True,
    ("losses", "fair_loss"): True,
    ("datagen", "generate_synthetic"): True,
    ("datagen", "ingest_csv"): True,
    ("datagen", "apply_split"): True,
    ("datagen", "BatchSampler.epoch_batches"): True,
    ("trainer", "train"): True,
    ("trainer", "optimizer_step"): True,
    ("trainer", "rng_for"): False,
    ("trainer", "TrainLog.write_jsonl"): True,
    ("trainer", "TrainLog.write_summary_csv"): True,
    ("evalsel", "evaluate"): True,
    ("evalsel", "training_domain_validation"): True,
    ("evalsel", "dump_embeddings"): True,
    ("cli", "build_dataset"): True,
    ("cli", "run_benchmark_cell"): True,
    ("config", "load_config"): True,
}

PACKAGE = "fond"


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    covered = 0.0
    end = lo
    for start, stop in sorted(intervals):
        start = max(start, end)
        stop = min(stop, hi)
        if stop > start:
            covered += stop - start
            end = stop
    return covered


def self_times(spans) -> list[float]:
    """Self time of each ``(name, parent, start, end)`` span, in order.

    ``parent`` is the index of the enclosing span, or -1 for a root.
    """
    children = defaultdict(list)
    for _, parent, start, end in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [end - start - union_length(children.get(i, ()), start, end)
            for i, (_, _, start, end) in enumerate(spans)]


def params_digest(params) -> str:
    """Digest of a parameter set's tensors, names and shapes included."""
    h = hashlib.sha256()
    for name, tensor in sorted(params.tensors().items()):
        h.update(f"{name}{tensor.dtype}{tensor.shape}".encode())
        h.update(tensor.tobytes())
    return h.hexdigest()


class Tracer:
    """Wraps the fond layers while installed; use as a context manager."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.variant: str | None = None      # variant of the cell being run
        self._stack: list[int] = []
        self._seen_params: set[str] = set()
        self._patches: list[tuple] = []

    # -- installation -----------------------------------------------------

    def __enter__(self):
        for module, _ in TARGETS:      # aliases are found in sys.modules
            importlib.import_module(f"{PACKAGE}.{module}")
        try:
            for (module, attr), timed in TARGETS.items():
                self._install(module, attr, timed)
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _install(self, module: str, attr: str, timed: bool) -> None:
        mod = importlib.import_module(f"{PACKAGE}.{module}")
        name = f"{module}.{attr}"
        if "." in attr:                     # a method: patch it on its class
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            original = cls.__dict__[meth]
            self._patch(cls, meth, original, self._wrap(name, original, timed))
            return
        original = getattr(mod, attr)
        wrapper = self._wrap(name, original, timed)
        owners = [mod]
        if original.__module__ == mod.__name__:
            owners += [m for key, m in sorted(sys.modules.items())
                       if key.startswith(PACKAGE + ".") and m is not mod
                       and getattr(m, attr, None) is original]
        for owner in owners:
            self._patch(owner, attr, original, wrapper)

    def _patch(self, owner, attr, original, wrapper) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, name: str, fn, timed: bool):
        probe = getattr(self, "_probe_" + name.replace(".", "_"), None)
        counts = self.counts
        if not timed:
            def counted(*args, **kwargs):
                counts[name] += 1
                if probe is not None:
                    probe(args, kwargs)
                return fn(*args, **kwargs)
            return counted

        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        done = getattr(self, "_done_" + name.replace(".", "_"), None)

        def spanned(*args, **kwargs):
            counts[name] += 1
            if probe is not None:
                probe(args, kwargs)
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, parent, start, end)
            if done is not None:
                done(out)
            return out
        return spanned

    # Probes see a call's arguments before it runs; ``_done_`` hooks see its
    # result. Each one feeds a ratio or work count named in the benchmark.

    def _probe_cli_run_benchmark_cell(self, args, kwargs):
        self.variant = _arg(args, kwargs, 2, "variant")

    def _probe_ndcore_l2_normalize_rows(self, args, kwargs):
        if self.variant == "erm":
            self.counts["ndcore.l2_normalize_rows.erm"] += 1

    def _probe_losses_xdom_loss(self, args, kwargs):
        self.counts["losses.xdom_loss.pairs"] += len(_arg(args, kwargs, 0, "z")) ** 2

    def _probe_losses_fair_loss(self, args, kwargs):
        mask = _arg(args, kwargs, 2, "linked_mask")
        if mask.any() and not mask.all():
            self.counts["losses.fair_loss.active"] += 1

    def _done_trainer_train(self, out):
        final, best, _ = out
        key = params_digest(final) + params_digest(best)
        if key in self._seen_params:
            self.counts["trainer.train.repeats"] += 1
        self._seen_params.add(key)

    # -- results ----------------------------------------------------------

    def summary(self) -> dict[str, float]:
        """Flat per-layer metrics: ``<name>.calls``, ``.s``, ``.self_s`` per
        traced function, plus the ratios and work counts the probes feed."""
        out: dict[str, float] = {}
        for (module, attr) in TARGETS:
            out[f"{module}.{attr}.calls"] = self.counts.get(f"{module}.{attr}", 0)
        durations = defaultdict(list)
        selfs = defaultdict(float)
        for (name, _, start, end), own in zip(self.spans, self_times(self.spans)):
            durations[name].append(end - start)
            selfs[name] += own
        for (module, attr), timed in TARGETS.items():
            name = f"{module}.{attr}"
            if timed:
                out[name + ".s"] = float(sum(durations[name]))
                out[name + ".self_s"] = selfs[name]
        cells = durations["cli.run_benchmark_cell"]
        out["cli.run_benchmark_cell.s_median"] = stats.median(cells) if cells else 0.0
        out["cli.run_benchmark_cell.s_max"] = max(cells, default=0.0)
        out["ndcore.l2_normalize_rows.erm_calls"] = self.counts.get(
            "ndcore.l2_normalize_rows.erm", 0)
        out["losses.xdom_loss.pairs"] = self.counts.get("losses.xdom_loss.pairs", 0)
        out["losses.fair_loss.active_share"] = _share(
            self.counts.get("losses.fair_loss.active", 0), out["losses.fair_loss.calls"])
        out["trainer.train.repeat_share"] = _share(
            self.counts.get("trainer.train.repeats", 0), out["trainer.train.calls"])
        return out

    def span_table(self) -> dict[str, dict]:
        """Per span name: count, median duration and the tail percentile
        that has at least ten samples beyond it."""
        durations = defaultdict(list)
        for name, _, start, end in self.spans:
            durations[name].append(end - start)
        return {name: stats.describe(values) for name, values in sorted(durations.items())}


def _arg(args, kwargs, position: int, name: str):
    return args[position] if len(args) > position else kwargs[name]


def _share(part: int, whole: int) -> float:
    return part / whole if whole else 0.0
