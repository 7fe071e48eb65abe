"""Tests of the benchmark's own logic: span arithmetic, the percentile
rule, tracer installation and removal, repeat detection, and the
accounting of failed operations."""

import importlib
import math

import pytest

import run
import stats
import tracing
from fond import datagen, losses, networks, trainer


class TestSelfTime:
    def test_hand_built_tree(self):
        spans = [
            ("root", -1, 0.0, 10.0),
            ("a", 0, 1.0, 4.0),        # children 2 and 3 overlap inside it
            ("a1", 1, 1.5, 2.5),
            ("a2", 1, 2.0, 3.0),
            ("b", 0, 5.0, 9.0),
            ("b1", 4, 8.0, 9.5),       # runs past its parent's end
        ]
        assert tracing.self_times(spans) == pytest.approx(
            [10.0 - 3.0 - 4.0, 3.0 - 1.5, 1.0, 1.0, 4.0 - 1.0, 1.5])

    def test_union_length_merges_and_clips(self):
        assert tracing.union_length([(3, 4), (0, 2), (1, 3)], 0.5, 3.5) == pytest.approx(3.0)
        assert tracing.union_length([], 0.0, 1.0) == 0.0
        assert tracing.union_length([(2.0, 3.0)], 0.0, 1.0) == 0.0


class TestTailPercentile:
    @pytest.mark.parametrize("n, expected", [
        (0, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0),
        (999, 90.0), (1000, 99.0), (9999, 99.0), (10000, 99.9)])
    def test_highest_percentile_with_ten_beyond(self, n, expected):
        assert stats.tail_percentile(n) == expected

    def test_describe_reports_the_supported_percentile(self):
        values = list(range(1, 101))
        assert stats.describe(values) == {"n": 100, "median": 50.5, "p90": 90.0}
        assert stats.describe([3.0, 1.0, 2.0]) == {"n": 3, "median": 2.0}

    def test_relative_iqr(self):
        assert stats.relative_iqr([1.0] * 10) == 0.0
        assert stats.relative_iqr([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]) == pytest.approx(
            (8.25 - 2.75) / 5.5)


def _bindings():
    """Every function bound at module level in the fond package, plus the
    methods the tracer wraps."""
    out = {}
    for module in sorted({m for m, _ in tracing.TARGETS}):
        mod = importlib.import_module(f"fond.{module}")
        for name, value in vars(mod).items():
            if callable(value):
                out[(mod.__name__, name)] = value
    out[("BatchSampler", "epoch_batches")] = datagen.BatchSampler.__dict__["epoch_batches"]
    for name in ("write_jsonl", "write_summary_csv"):
        out[("TrainLog", name)] = trainer.TrainLog.__dict__[name]
    return out


def _current(key):
    owner, name = key
    if owner == "BatchSampler":
        return datagen.BatchSampler.__dict__[name]
    if owner == "TrainLog":
        return trainer.TrainLog.__dict__[name]
    return getattr(importlib.import_module(owner), name)


class TestInstallation:
    def test_every_wrapped_function_is_restored(self):
        before = _bindings()
        with tracing.Tracer() as tracer:
            changed = {k for k, v in before.items() if _current(k) is not v}
            assert len(tracer._patches) == len(changed)
        assert ("fond.cli", "load_config") in changed        # alias of config's
        assert ("fond.trainer", "rng_for") in changed
        assert ("fond.datagen", "rng_for") not in changed    # seeding's, not the trainer's
        assert all(_current(k) is v for k, v in before.items())

    def test_restored_after_an_error(self):
        before = _bindings()
        with pytest.raises(RuntimeError):
            with tracing.Tracer():
                raise RuntimeError("boom")
        assert all(_current(k) is v for k, v in before.items())

    def test_calls_through_an_alias_are_counted(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{}")
        from fond import cli
        with tracing.Tracer() as tracer:
            cli.load_config(path)
        summary = tracer.summary()
        assert summary["config.load_config.calls"] == 1
        assert summary["config.load_config.s"] > 0.0


def _train_once(tracer, seed):
    spec = datagen.SyntheticSpec(num_classes=3, input_dim=4, num_domains=3,
                                 samples_per_cell=6, noise_std=0.1)
    ds = datagen.generate_synthetic(spec, 1)
    plan = datagen.make_split_plan(range(3), 3, 0, "low", 2)
    pool, _ = datagen.apply_split(ds, plan)
    net = networks.NetworkConfig(input_dim=4, num_classes=3, feature_dim=4,
                                 projection_dim=3, f_hidden=(), p_hidden=())
    params = networks.init_params(net, seed)
    cfg = trainer.TrainerConfig(max_steps=4, eval_every=2, batch_size=4, seed=seed)
    trainer.train(params, pool, plan, losses.LossConfig(variant="fond"), cfg)


class TestRepeatShare:
    def test_identical_pair_then_a_different_one(self):
        with tracing.Tracer() as tracer:
            _train_once(tracer, 5)
            _train_once(tracer, 5)
            assert tracer.summary()["trainer.train.repeat_share"] == 0.5
            _train_once(tracer, 6)
        summary = tracer.summary()
        assert summary["trainer.train.calls"] == 3
        assert summary["trainer.train.repeat_share"] == pytest.approx(1 / 3)
        assert summary["trainer.optimizer_step.calls"] == 12

    def test_no_calls_gives_zero(self):
        assert tracing.Tracer().summary()["trainer.train.repeat_share"] == 0.0


def _child(digests, exit_code=0, failed=0, operations=3):
    return {"commands": [{"name": "benchmark", "exit_code": exit_code,
                          "operations": operations, "failed": failed,
                          "digests": digests}]}


class TestAccount:
    def test_all_good(self):
        children = [_child({"r.csv": "x"}), _child({"r.csv": "x"})]
        assert run.account(children, None) == (6, 0, [])

    def test_check_failures_and_exit_codes_count(self):
        children = [_child({"r.csv": "x"}, failed=1), _child({"r.csv": None}, exit_code=2)]
        attempted, failed, problems = run.account(children, None)
        assert (attempted, failed) == (6, 4)
        assert len(problems) == 3      # check failure, exit code, digest differs

    def test_recorded_digest_mismatch_fails_every_operation(self):
        children = [_child({"r.csv": "x"})]
        attempted, failed, problems = run.account(children, {"benchmark": {"r.csv": "y"}})
        assert (attempted, failed) == (3, 3)
        assert "digests.json" in problems[0]


def test_git_commit_outside_a_repository(tmp_path):
    assert run.git_commit(tmp_path) is None
    git = tmp_path / ".git"
    (git / "refs" / "heads").mkdir(parents=True)
    (git / "HEAD").write_text("ref: refs/heads/main\n")
    (git / "packed-refs").write_text("# pack-refs\nabc123 refs/heads/main\n")
    assert run.git_commit(tmp_path) == "abc123"
    (git / "refs" / "heads" / "main").write_text("def456\n")
    assert run.git_commit(tmp_path) == "def456"
    assert math.isfinite(len(run.environment()["python"]))
