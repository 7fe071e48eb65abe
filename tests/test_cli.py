import argparse
import functools
import gc
import hashlib
import json
import os
import pickle
import re
import subprocess
import sys
import time
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fond import cli, config, datagen, evalsel, networks, trainer
from fond.errors import ConfigError, NonFiniteLossError


def base_doc(**extra):
    doc = {
        "seed": 5,
        "dataset": {"synthetic": {"num_classes": 4, "input_dim": 6,
                                  "num_domains": 4, "samples_per_cell": 6,
                                  "shift": 0.3, "noise_std": 0.05}},
        "split": {"setting": "low", "target_domain": 0},
        "network": {"feature_dim": 8, "projection_dim": 4,
                    "f_hidden": [12], "p_hidden": [16]},
        "loss": {"lambda_xdom": 0.2, "lambda_fair": 0.1, "temperature": 0.2},
        "trainer": {"max_steps": 12, "eval_every": 6, "batch_size": 8,
                    "learning_rate": 0.01},
        "search": {"n_trials": 1},
        "benchmark": {"variants": ["erm", "fond"], "settings": ["low"], "reps": 2},
    }
    doc.update(extra)
    return doc


@pytest.fixture
def cfg_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(base_doc()))
    return path


def run_cli(*argv):
    return cli.main(list(argv))


TINY = Path(__file__).resolve().parents[1] / "configs" / "tiny_benchmark.json"


def run_python(*args):
    """A fresh interpreter that imports this checkout's ``fond``; its stderr
    is captured whole, worker processes included."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=300)


class TestConfig:
    def test_empty_document_gives_defaults(self):
        cfg = config.config_from_dict({})
        assert cfg.seed == 0
        assert cfg.trainer.optimizer == "adam"
        assert cfg.dataset.synthetic is not None

    def test_unknown_key_named_with_dotted_path(self):
        with pytest.raises(ConfigError, match=r"trainer\.'lr'"):
            config.config_from_dict({"trainer": {"lr": 0.1}})
        with pytest.raises(ConfigError, match=r"'stepz'"):
            config.config_from_dict({"stepz": 1})
        with pytest.raises(ConfigError, match=r"search\.space\.'zz'"):
            config.config_from_dict({"search": {"space": {"zz": [1.0, 2.0]}}})

    def test_null_section_rejected_unless_optional(self):
        for doc, where in (({"trainer": None}, "trainer"), ({"network": None}, "network"),
                           ({"search": {"space": None}}, "search.space")):
            with pytest.raises(ConfigError, match=rf"{where}\. must be an object"):
                config.config_from_dict(doc)
        cfg = config.config_from_dict({"dataset": {"csv_path": "d.csv", "synthetic": None}})
        assert cfg.dataset.synthetic is None

    def test_dataset_needs_exactly_one_source(self):
        with pytest.raises(ConfigError, match="exactly one"):
            config.config_from_dict({"dataset": {"name": "x"}})
        with pytest.raises(ConfigError, match="exactly one"):
            config.config_from_dict({"dataset": {
                "csv_path": "d.csv",
                "synthetic": {"num_classes": 4, "input_dim": 3}}})

    def test_list_fields_become_tuples(self):
        space = {name: [0.1, 0.2] for name in evalsel.HyperSpace._ORDER}
        space.update(a=[1.1, 1.2], b=[1.1, 1.2])   # a and b start at 1
        cfg = config.config_from_dict({"network": {"f_hidden": [8, 4]},
                                       "benchmark": {"settings": ["low", 2]},
                                       "search": {"space": space}})
        assert cfg.network.f_hidden == (8, 4)
        assert cfg.benchmark.settings == ("low", 2)
        for name in evalsel.HyperSpace._ORDER:
            assert getattr(cfg.search.space, name) == tuple(space[name]), name

    def test_float_field_takes_int_as_given(self):
        # nothing is coerced, so the provenance records the value as written
        cfg = config.config_from_dict({"loss": {"a": 2}})
        assert type(cfg.loss.a) is int and cfg.loss.a == 2
        assert config.to_provenance(cfg)["loss"]["a"] == 2
        with pytest.raises(ConfigError, match=r"loss\.a must be float"):
            config.config_from_dict({"loss": {"a": True}})
        with pytest.raises(ConfigError, match=r"search\.space\.a must be"):
            config.config_from_dict({"search": {"space": {"a": [1.0, 2.0, 3.0]}}})

    def test_overrides_parse_json_values(self):
        doc = config.apply_overrides(base_doc(), [
            "trainer.learning_rate=0.05",
            "network.f_hidden=[8,4]",
            "loss.variant=erm",
            "dataset.synthetic.label_noise=0.1",
        ])
        cfg = config.config_from_dict(doc)
        assert cfg.trainer.learning_rate == 0.05
        assert cfg.network.f_hidden == (8, 4)
        assert cfg.loss.variant == "erm"
        assert cfg.dataset.synthetic.label_noise == 0.1

    def test_override_syntax_errors(self):
        with pytest.raises(ConfigError):
            config.parse_override("no_equals_sign")
        with pytest.raises(ConfigError):
            config.parse_override("=5")
        with pytest.raises(ConfigError):
            config.apply_overrides({"seed": 1}, ["seed.inner=2"])

    def test_provenance_round_trips(self):
        cfg = config.config_from_dict(base_doc())
        again = config.config_from_dict(config.to_provenance(cfg))
        assert again == cfg

    def test_benchmark_validation(self):
        with pytest.raises(ConfigError, match="unknown variants"):
            config.config_from_dict({"benchmark": {"variants": ["dro"]}})
        with pytest.raises(ConfigError):
            config.config_from_dict({"benchmark": {"reps": 0}})

    def test_benchmark_reps_rejects_bool(self):
        # bool is an int subclass, so `true` passed the `reps >= 1` check
        with pytest.raises(ConfigError, match="reps"):
            config.config_from_dict({"benchmark": {"reps": True}})

    @pytest.mark.parametrize("key, entries", [
        ("settings", ["high", "high"]), ("settings", [2, 2]), ("variants", ["erm", "erm"])])
    def test_benchmark_grid_repeats_rejected(self, key, entries):
        # a repeated entry ran its cells twice and aggregated them as extra reps
        with pytest.raises(ConfigError, match=rf"benchmark\.{key} repeats"):
            config.config_from_dict({"benchmark": {key: entries}})

    def test_setting_names_are_exact(self):
        # "HIGH" passed the checks but seeded another plan than "high"
        with pytest.raises(ConfigError, match="'HIGH'"):
            config.config_from_dict({"benchmark": {"settings": ["high", "HIGH"]}})
        with pytest.raises(ConfigError, match="'Low'"):
            datagen.shared_class_count(6, "Low")

    @pytest.mark.parametrize("seed", [-1, 2**32, 2**32 + 7])
    def test_seed_outside_32_bits_rejected(self, seed):
        # seeding keeps the low 32 bits, so 2**32 + 7 trained seed 7's models
        with pytest.raises(ConfigError, match=r"seed must be in \[0, 2\*\*32\)"):
            config.config_from_dict({"seed": seed})
        assert config.config_from_dict({"seed": 2**32 - 1}).seed == 2**32 - 1


    def test_readme_json_examples_load(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        blocks = re.findall(r"```json\n(.*?)```", readme, re.S)
        assert blocks
        for block in blocks:
            config.config_from_dict(json.loads(block))


class TestGenerateSplit:
    def test_generate_writes_deterministic_csv(self, cfg_path, tmp_path, capsys):
        out = tmp_path / "g1"
        assert run_cli("generate", "--config", str(cfg_path), "--out", str(out)) == 0
        data = (out / "dataset.csv").read_bytes()
        assert data.startswith(b"# provenance: ")
        ds = datagen.ingest_csv(out / "dataset.csv")
        assert len(ds) == 4 * 4 * 6 and ds.input_dim == 6
        out2 = tmp_path / "g2"
        run_cli("generate", "--config", str(cfg_path), "--out", str(out2))
        assert (out2 / "dataset.csv").read_bytes() == data

    def test_generated_csv_takes_the_c_reader(self, cfg_path, tmp_path, monkeypatch):
        # `fond generate` output, provenance line included, never falls
        # back to the line parser, so its reads keep numpy's C speed
        out = tmp_path / "g"
        assert run_cli("generate", "--config", str(cfg_path), "--out", str(out)) == 0
        want = datagen.ingest_csv(out / "dataset.csv")

        def no_fallback(*args):
            raise AssertionError("fell back to the line parser")

        monkeypatch.setattr(datagen, "_parse_rows", no_fallback)
        got = datagen.ingest_csv(out / "dataset.csv")
        for name in ("ids", "domains", "labels", "features"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()

    def test_generate_seed_flag_changes_data(self, cfg_path, tmp_path):
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        run_cli("generate", "--config", str(cfg_path), "--out", str(out1))
        run_cli("generate", "--config", str(cfg_path), "--out", str(out2),
                "--seed", "9")
        a = datagen.ingest_csv(out1 / "dataset.csv")
        b = datagen.ingest_csv(out2 / "dataset.csv")
        assert not np.array_equal(a.features, b.features)

    def test_split_writes_plan_with_expected_sizes(self, cfg_path, tmp_path):
        out = tmp_path / "sp"
        code = run_cli("split", "--config", str(cfg_path), "--out", str(out),
                       "--set", "dataset.synthetic.num_classes=7",
                       "--set", "split.setting=high",
                       "--set", "split.target_domain=2")
        assert code == 0
        plan = datagen.SplitPlan.load(out / "plan.json")
        assert len(plan.shared_classes) == 5 and len(plan.linked_classes) == 2
        assert plan.target_domain == 2
        assert (out / "plan_provenance.json").exists()
        plan.validate()

    def test_split_uses_the_dataset_domain_ids(self, tmp_path):
        # ids {0, 3, 7, 9} once gave source domains 1..9, and a linked
        # class placed on a missing domain got no training samples
        ds = datagen.generate_synthetic(datagen.SyntheticSpec(
            num_classes=6, input_dim=3, num_domains=4, samples_per_cell=3), 1)
        ds.domains = np.array([0, 3, 7, 9])[ds.domains]
        datagen.export_csv(ds, tmp_path / "data.csv")
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(base_doc(
            dataset={"csv_path": str(tmp_path / "data.csv")},
            split={"setting": "low", "target_domain": 0})))
        for seed in range(5):
            out = tmp_path / f"sp{seed}"
            assert run_cli("split", "--config", str(cfg), "--out", str(out),
                           "--seed", str(seed)) == 0
            plan = datagen.SplitPlan.load(out / "plan.json")
            assert plan.source_domains == (3, 7, 9)
            pool, _ = datagen.apply_split(datagen.ingest_csv(tmp_path / "data.csv"), plan)
            assert pool.class_set() == set(range(6))
        assert run_cli("split", "--config", str(cfg), "--out", str(tmp_path / "bad"),
                       "--set", "split.target_domain=5") == 2

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(0, 40), min_size=3, max_size=6, unique=True),
           st.integers(0, 5), st.sampled_from(["low", "high"]), st.integers(0, 2**20))
    def test_order_preserving_domain_relabel_keeps_the_plan(self, ids, t, setting, seed):
        ids = sorted(ids)
        t %= len(ids)
        k, n_classes = len(ids), 5

        def plan_for(domain_ids, target):
            ds = datagen.Dataset(features=np.zeros((k * n_classes, 2)),
                                 labels=np.tile(np.arange(n_classes), k),
                                 domains=np.repeat(domain_ids, n_classes),
                                 ids=np.arange(k * n_classes))
            doc = base_doc(seed=seed, split={"setting": setting, "target_domain": target})
            return cli.build_plan(config.config_from_dict(doc), ds, setting)

        plan = plan_for(np.arange(k), t)
        moved = plan_for(ids, ids[t])
        assert moved.target_domain == ids[t]
        assert moved.source_domains == tuple(ids[s] for s in plan.source_domains)
        assert moved.shared_classes == plan.shared_classes
        assert moved.linked_classes == plan.linked_classes
        assert moved.assignment == {c: frozenset(ids[s] for s in doms)
                                    for c, doms in plan.assignment.items()}


class TestTrain:
    def test_train_writes_all_outputs(self, cfg_path, tmp_path):
        out = tmp_path / "tr"
        assert run_cli("train", "--config", str(cfg_path), "--out", str(out)) == 0
        for name in ("checkpoint_best.npz", "checkpoint_final.npz",
                     "trainlog.jsonl", "trainlog.csv", "metrics.json", "run.json"):
            assert (out / name).exists(), name
        metrics = json.loads((out / "metrics.json").read_text())
        assert set(metrics) == {"metrics", "best_step"}
        report = metrics["metrics"]
        assert 0.0 <= report["overall_accuracy"] <= 1.0
        run_doc = json.loads((out / "run.json").read_text())
        assert run_doc["config"]["seed"] == 5
        datagen.SplitPlan.from_json(json.dumps(run_doc["plan"]))
        lines = (out / "trainlog.jsonl").read_text().splitlines()
        assert sum(json.loads(l)["kind"] == "step" for l in lines) == 12

    def test_disabled_contrastive_terms_reproduce_plain_training(self, cfg_path,
                                                                 tmp_path):
        erm_out = tmp_path / "erm"
        off_out = tmp_path / "off"
        run_cli("train", "--config", str(cfg_path), "--out", str(erm_out),
                "--set", "loss.variant=erm")
        run_cli("train", "--config", str(cfg_path), "--out", str(off_out),
                "--set", "loss.variant=fond",
                "--set", "loss.lambda_xdom=0.0",
                "--set", "loss.lambda_fair=0.0")
        for name in ("trainlog.jsonl", "trainlog.csv", "checkpoint_best.npz",
                     "checkpoint_final.npz", "metrics.json"):
            assert (erm_out / name).read_bytes() == (off_out / name).read_bytes(), name
        # the config sidecar is the one file allowed to differ
        assert (erm_out / "run.json").read_bytes() != (off_out / "run.json").read_bytes()

    # sha256 of every deterministic output of `fond train` on the tiny
    # config, for an objective that trains P ("fond") and one that skips it
    # ("erm"). Any drift in a loss, gradient, optimizer or log byte shows
    # here. Recorded with numpy 2.4.6 and OpenBLAS 0.3.31 on x86-64, like
    # perfbench/digests.json; another BLAS build may round differently.
    GOLDEN = {
        "fond": {
            "trainlog.jsonl": "328d8d6e27aaac9bdb9f6bc3b5de350d2530b97b46b8ec513ff481f018cc43f8",
            "trainlog.csv": "5f613165353af126b7761d734af62f568d1a5f6d66ac96280b371aed5cc634a0",
            "checkpoint_best.npz":
                "4bb3d348d6d357b5cd5ad3d54b2d5572a8f255fba27254c05fbcda16a19d1a07",
            "checkpoint_final.npz":
                "a3c452a485ad2176c747b0f76ee6fd21247764fa423876a825d00133557d39d0",
            "metrics.json": "0ac57a0ba8c0de6267735ba62b709ae66a3607b0ec4d2233aaf0c898e1191982",
        },
        "erm": {
            "trainlog.jsonl": "e837fffa1dff3800f950790613ceb6d53bbeb34512d07765a2bf32e5929e3a07",
            "trainlog.csv": "a44a034d6b2a16d14f891bea081ba88b32b219c79d3fb7d44ba9b511e57ba582",
            "checkpoint_best.npz":
                "22fc77ae21f5293c0cd8134f8a2efd5973f8b6d73ec27a12cfdeaf01f431a617",
            "checkpoint_final.npz":
                "8e0380640a82c4aeb0d111ba40a0b4edc1a8959027e74d86d6f0a8c0b52a5779",
            "metrics.json": "3389234abd115fd4515f8e2e66620aab78c51963496e762e41c318b1c7fd40cb",
        },
    }

    @pytest.mark.parametrize("variant", sorted(GOLDEN))
    def test_tiny_train_outputs_match_recorded_digests(self, tmp_path, variant):
        out = tmp_path / variant
        assert run_cli("train", "--config", str(TINY), "--out", str(out),
                       "--set", f"loss.variant={variant}") == 0
        digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                   for name in self.GOLDEN[variant]}
        assert digests == self.GOLDEN[variant]

    # The same outputs with dropout on h, so each step's mask and its
    # stream (``rng_for(seed, "dropout", step)``) are covered as well.
    GOLDEN_DROPOUT = {
        "fond": {
            "trainlog.jsonl": "42747402a6a7dae85622fab031fad80b802a0f72b4dd1b6f23472389e181e559",
            "trainlog.csv": "3d18616396456a1840c8aef77ca72cbb3c660fc7983bd39edde000b9e90f6297",
            "checkpoint_best.npz":
                "e48e26b9742aef00cee1f100528cc9a3c6fe21b7e8505ef86b3ead50e8032df0",
            "checkpoint_final.npz":
                "6a29df91c768c0a85791ca53b30e841a92c509597530973426a13c7dc82ce392",
            "metrics.json": "0804ee3ecb06cf027de0a35728b572fe2cd538e6cd295451e9ebc1f55d96aa29",
        },
        "erm": {
            "trainlog.jsonl": "839b3d82cbf24cbe963acaf7604d8bb69ae85b4fd2e5037c1a97bd5ac24763c9",
            "trainlog.csv": "9aa09419de1c3bfd36f47d4e332584afe3e4fa4e010ff498068ed93d9c7e5e92",
            "checkpoint_best.npz":
                "de6cf5bcffaf09f7ef2f81633763108849de08f8a70a2baaeb5365c3126fd97b",
            "checkpoint_final.npz":
                "db619a5860430ba1b6c4bb4d5d64d1cdd6043df2c33f5d7ec4d3317fb337025e",
            "metrics.json": "237a737abb9caf26b9d85277a3d0700654f3ad49b57837ed9869d6d007d174c3",
        },
    }

    @pytest.mark.parametrize("variant", sorted(GOLDEN_DROPOUT))
    def test_tiny_dropout_train_outputs_match_recorded_digests(self, tmp_path, variant):
        out = tmp_path / variant
        assert run_cli("train", "--config", str(TINY), "--out", str(out),
                       "--set", f"loss.variant={variant}",
                       "--set", "trainer.dropout=0.1") == 0
        digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                   for name in self.GOLDEN_DROPOUT[variant]}
        assert digests == self.GOLDEN_DROPOUT[variant]

    # The search and benchmark records on the tiny config: the trials and
    # winner of `fond search`, and the per-cell rows, aggregates and cell
    # records (winners included) of a one-trial `fond benchmark`.
    GOLDEN_RECORDS = {
        "search": {
            "search.json": "b1bea8558402969e9fd01ff3c29d7bb5be71277575d7e90a1a001537cdee6489",
        },
        "benchmark": {
            "results.csv": "9cc6c4fea6eebce735d3776266f9196705e5f5574beba7b5e406c678ae1b4488",
            "aggregate.csv": "64cb6466911ea81bec469bcca3169e30557aeac08a1855e476a0dc5b4af7e3b4",
            "benchmark.json":
                "195ce7e0dec3fe78cb542f1003320ac0c45cff6a2b2bd6b3182c8ee450737e57",
        },
    }

    @pytest.mark.parametrize("command", sorted(GOLDEN_RECORDS))
    def test_tiny_search_and_benchmark_outputs_match_recorded_digests(self, tmp_path,
                                                                      command):
        out = tmp_path / command
        assert run_cli(command, "--config", str(TINY), "--out", str(out),
                       "--set", "search.n_trials=1") == 0
        digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                   for name in self.GOLDEN_RECORDS[command]}
        assert digests == self.GOLDEN_RECORDS[command]

    def test_train_from_ingested_csv(self, cfg_path, tmp_path):
        gen_out = tmp_path / "gen"
        run_cli("generate", "--config", str(cfg_path), "--out", str(gen_out))
        out = tmp_path / "tr"
        code = run_cli("train", "--config", str(cfg_path), "--out", str(out),
                       "--set", "dataset.synthetic=null",
                       "--set", f"dataset.csv_path={gen_out / 'dataset.csv'}")
        assert code == 0
        assert (out / "metrics.json").exists()


class TestErrorExits:
    def read_error(self, capsys):
        err = capsys.readouterr().err.strip().splitlines()[-1]
        return json.loads(err)

    def test_bad_later_setting_exits_before_any_training(self, tmp_path, capsys,
                                                         monkeypatch):
        def no_training(*args, **kwargs):
            raise AssertionError("trainer.train ran")

        monkeypatch.setattr(trainer, "train", no_training)
        code = run_cli("benchmark", "--config", str(TINY), "--out", str(tmp_path),
                       "--set", "search.n_trials=1",
                       "--set", 'benchmark.settings=["low", 99]')
        assert code == cli.EXIT_CONFIG
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["message"].startswith("shared class count 99 invalid")

    def benchmark_on_low_plan(self, tmp_path, *overrides):
        """`fond split` on the tiny config (setting low: 2 of 5 classes
        shared), then a one-variant benchmark without search on that plan."""
        assert run_cli("split", "--config", str(TINY), "--out", str(tmp_path / "sp")) == 0
        plan = json.dumps(str(tmp_path / "sp" / "plan.json"))
        return run_cli("benchmark", "--config", str(TINY), "--out", str(tmp_path / "bench"),
                       "--set", f"split.plan_path={plan}", "--set", 'benchmark.variants=["erm"]',
                       "--set", "search.n_trials=0", *overrides)

    def test_plan_file_of_another_setting_exits_before_any_training(
            self, tmp_path, capsys, monkeypatch):
        # every cell trained on the plan file's split while its rows carried
        # the setting "high"
        def no_training(*args, **kwargs):
            raise AssertionError("trainer.train ran")

        monkeypatch.setattr(trainer, "train", no_training)
        code = self.benchmark_on_low_plan(tmp_path)
        assert code == cli.EXIT_CONFIG
        payload = self.only_error_line(capsys)
        assert payload["type"] == "ConfigError"
        assert payload["message"] == ("setting 'high' shares 4 of 5 classes, "
                                      "but the plan file shares 2")
        assert not (tmp_path / "bench" / "results.csv").exists()

    def test_plan_file_of_the_named_setting_runs(self, tmp_path):
        assert self.benchmark_on_low_plan(tmp_path, "--set", 'benchmark.settings=["low"]') == 0
        rows = (tmp_path / "bench" / "results.csv").read_text().splitlines()[2:]
        assert [row.split(",")[:4] for row in rows] == [["synthetic", "low", "erm", "0"]]

    def test_config_error_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"trainer": {"lr": 1}}))
        assert run_cli("train", "--config", str(path)) == cli.EXIT_CONFIG
        payload = self.read_error(capsys)
        assert payload["error"] == "config" and "lr" in payload["message"]
        # a list for a scalar field is a config error too, not a crash
        path.write_text(json.dumps({"loss": {"a": [1.0, 2.0]}}))
        assert run_cli("train", "--config", str(path)) == cli.EXIT_CONFIG
        payload = self.read_error(capsys)
        assert payload["error"] == "config" and "loss" in payload["message"]
        # a value of the wrong type is named by its dotted path; an int
        # field or tuple item takes neither a float nor a bool
        path.write_text(json.dumps(base_doc()))
        for override, where in (("network.feature_dim=abc", "network.feature_dim"),
                                ("dataset.synthetic.num_classes=5.5",
                                 "dataset.synthetic.num_classes"),
                                ("trainer.batch_size=2.5", "trainer.batch_size"),
                                ("seed=abc", "seed"),
                                ("trainer.max_steps=true", "trainer.max_steps"),
                                ("network.f_hidden=[2.5]", "network.f_hidden")):
            code = run_cli("train", "--config", str(path), "--out",
                           str(tmp_path / "run"), "--set", override)
            assert code == cli.EXIT_CONFIG, override
            payload = self.read_error(capsys)
            assert payload["error"] == "config", override
            assert payload["message"].startswith(f"{where} must be"), override

    def test_trainer_seed_exit_2(self, tmp_path, capsys):
        # every command derives the trainer seed from `seed`; a set value
        # would be recorded in run.json but never used
        path = tmp_path / "config.json"
        path.write_text(json.dumps(base_doc()))
        code = run_cli("train", "--config", str(path), "--out", str(tmp_path / "run"),
                       "--set", "trainer.seed=5")
        assert code == cli.EXIT_CONFIG
        payload = self.read_error(capsys)
        assert payload["type"] == "ConfigError"
        assert "trainer.seed" in payload["message"] and "'seed'" in payload["message"]

    def test_stratified_batches_exit_2(self, tmp_path, capsys):
        # batches are always pooled; the key stays false in the provenance
        path = tmp_path / "config.json"
        path.write_text(json.dumps(base_doc()))
        code = run_cli("train", "--config", str(path), "--out", str(tmp_path / "run"),
                       "--set", "trainer.stratified_batches=true")
        assert code == cli.EXIT_CONFIG
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        payload = json.loads(lines[0])
        assert payload["type"] == "ConfigError"
        assert "stratified_batches" in payload["message"]

    def test_overflow_after_last_step_exit_3(self, tmp_path, capsys):
        # one finite but enormous update: no later loss sees the new
        # parameters, so the final evaluation must report the overflow (and
        # numpy must not warn about it: the suite turns warnings into errors)
        code = run_cli("train", "--config", str(TINY), "--out", str(tmp_path / "run"),
                       "--set", "trainer.optimizer=sgd",
                       "--set", "trainer.learning_rate=1e200",
                       "--set", "trainer.max_steps=1", "--set", "trainer.eval_every=1")
        assert code == cli.EXIT_NUMERIC
        assert self.read_error(capsys)["type"] == "DegenerateInputError"

    def test_invalid_json_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        assert run_cli("train", "--config", str(path)) == cli.EXIT_CONFIG
        assert self.read_error(capsys)["error"] == "config"

    def only_error_line(self, capsys):
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1, lines
        return json.loads(lines[0])

    def test_non_utf8_config_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_bytes(b'{"seed": 1, "dataset": {"name": "\xff\xfe"}}')
        assert run_cli("train", "--config", str(path)) == cli.EXIT_CONFIG
        payload = self.only_error_line(capsys)
        assert payload["type"] == "ConfigError" and "utf-8" in payload["message"]

    @pytest.mark.parametrize("body, where", [
        (b"a,b\n\xff\xfe,1\n", "line 1: "),
        (b"id,domain,label,f0\n0,0,0,1.0\n\xff\xfe,0,1,2.0\n", "line 3: not UTF-8"),
        (b"id,domain,label,f0\n# caf\xe9\n0,0,0,1.0\n", "line 2: not UTF-8")])
    def test_non_utf8_csv_exit_2(self, tmp_path, capsys, body, where):
        csv = tmp_path / "bad.csv"
        csv.write_bytes(body)
        code = run_cli("train", "--config", str(TINY), "--out", str(tmp_path / "run"),
                       "--set", "dataset.synthetic=null",
                       "--set", f"dataset.csv_path={json.dumps(str(csv))}")
        assert code == cli.EXIT_CONFIG
        payload = self.only_error_line(capsys)
        assert payload["type"] == "CsvFormatError"
        assert payload["message"].startswith(where)

    @pytest.mark.parametrize("override", ["benchmark.variants=[]", "benchmark.settings=[]"])
    def test_empty_benchmark_grid_exit_2(self, cfg_path, tmp_path, capsys, override):
        out = tmp_path / "bench"
        code = run_cli("benchmark", "--config", str(cfg_path), "--out", str(out),
                       "--set", override)
        assert code == cli.EXIT_CONFIG
        payload = self.only_error_line(capsys)
        assert payload["type"] == "ConfigError"
        assert override.split("=")[0] in payload["message"]
        assert not (out / "results.csv").exists()

    @pytest.mark.parametrize("override", [
        'benchmark.settings=["low","low"]', 'benchmark.variants=["erm","erm"]',
        'benchmark.settings=["low","LOW"]'])
    def test_repeated_or_misspelled_grid_entry_exit_2(self, cfg_path, tmp_path, capsys,
                                                      override):
        # each ran at exit 0: a repeat doubled its rows and its reps in
        # aggregate.csv, and "LOW" trained a plan of its own
        out = tmp_path / "bench"
        code = run_cli("benchmark", "--config", str(cfg_path), "--out", str(out),
                       "--set", "search.n_trials=0", "--set", override)
        assert code == cli.EXIT_CONFIG
        assert self.only_error_line(capsys)["type"] == "ConfigError"
        assert not (out / "results.csv").exists()

    @pytest.mark.parametrize("seed", ["4294967303", "-1"])
    def test_seed_outside_32_bits_exit_2(self, cfg_path, tmp_path, capsys, seed):
        # 4294967303 wrote seed 7's checkpoints; -1 trained as 4294967295
        out = tmp_path / "run"
        code = run_cli("train", "--config", str(cfg_path), "--out", str(out),
                       "--seed", seed)
        assert code == cli.EXIT_CONFIG
        assert "seed must be in" in self.only_error_line(capsys)["message"]
        assert not (out / "checkpoint_best.npz").exists()

    def test_search_range_outside_its_config_exit_2(self, tmp_path, capsys):
        # a draw of a < 1 failed only on some seeds, after the earlier trials trained
        out = tmp_path / "search"
        code = run_cli("search", "--config", str(TINY), "--out", str(out), "--seed", "1",
                       "--set", "search.n_trials=3", "--set", "search.space.a=[0.8, 1.6]")
        assert code == cli.EXIT_CONFIG
        assert "a range (0.8, 1.6)" in self.only_error_line(capsys)["message"]
        assert not (out / "search.json").exists()

    def test_dump_with_classes_the_plan_lacks_exit_2(self, cfg_path, tmp_path, capsys):
        # the dump wrote the plan-less class's rows with group "shared"
        assert run_cli("split", "--config", str(cfg_path), "--out", str(tmp_path / "sp")) == 0
        plan = tmp_path / "sp" / "plan.json"
        ckpt = tmp_path / "model.npz"
        networks.save_checkpoint(networks.init_params(
            networks.NetworkConfig(input_dim=6, num_classes=4), 0), ckpt)
        capsys.readouterr()
        out = tmp_path / "emb"
        code = run_cli("dump-embeddings", "--config", str(cfg_path), "--out", str(out),
                       "--checkpoint", str(ckpt),
                       "--set", "dataset.synthetic.num_classes=6",
                       "--set", f"split.plan_path={json.dumps(str(plan))}")
        assert code == cli.EXIT_CONFIG
        payload = self.only_error_line(capsys)
        assert payload["type"] == "ContractError"
        assert "labels [4, 5] are not in the plan" in payload["message"]
        assert not (out / "embeddings.csv").exists()

    def test_missing_config_exit_4(self, tmp_path, capsys):
        missing = tmp_path / "absent.json"
        assert run_cli("train", "--config", str(missing)) == cli.EXIT_IO
        assert self.read_error(capsys)["error"] == "io"

    def test_shape_mismatch_exit_3(self, cfg_path, tmp_path, capsys):
        # checkpoint trained for a different input width
        other = networks.NetworkConfig(input_dim=5, num_classes=4, feature_dim=8,
                                       projection_dim=4, f_hidden=(12,),
                                       p_hidden=(16,))
        ckpt = tmp_path / "mismatched.npz"
        networks.save_checkpoint(networks.init_params(other, 0), ckpt)
        out = tmp_path / "emb"
        code = run_cli("dump-embeddings", "--config", str(cfg_path),
                       "--out", str(out), "--checkpoint", str(ckpt))
        assert code == cli.EXIT_NUMERIC
        assert self.read_error(capsys)["error"] == "numerical"

    def test_divergence_exit_3_names_step(self, tmp_path, capsys):
        code = run_cli("train", "--config", str(TINY), "--out", str(tmp_path / "div"),
                       "--set", "trainer.optimizer=sgd",
                       "--set", "trainer.learning_rate=1e6")
        assert code == cli.EXIT_NUMERIC
        payload = self.read_error(capsys)
        assert payload["type"] == "NonFiniteLossError"
        assert "non-finite loss at step" in payload["message"]

    @pytest.mark.parametrize("override", [
        "loss.lambda_xdom=NaN", "loss.lambda_fair=NaN", "loss.a=NaN",
        "loss.b=Infinity", "loss.temperature=Infinity",
        "trainer.learning_rate=NaN", "trainer.momentum=-Infinity",
        "trainer.adam_beta1=NaN", "trainer.adam_beta2=Infinity",
        "trainer.adam_eps=NaN"])
    def test_non_finite_config_value_exit_2(self, tmp_path, capsys, override):
        # NaN slips past `x < 0`-style range checks; it must fail as config
        code = run_cli("train", "--config", str(TINY), "--out", str(tmp_path / "nan"),
                       "--set", override)
        assert code == cli.EXIT_CONFIG
        payload = self.read_error(capsys)
        assert payload["type"] == "ConfigError"
        assert override.split("=")[0].split(".")[1] in payload["message"]

    def test_nonfinite_loss_error_pickles(self):
        # a --jobs worker's exception reaches the parent through pickle
        err = NonFiniteLossError(7, {"task": float("inf"), "total": float("inf")})
        back = pickle.loads(pickle.dumps(err))
        assert type(back) is NonFiniteLossError
        assert (str(back), back.step, back.components) == (str(err), 7, err.components)

    def test_diverging_parallel_benchmark_exit_3(self, tmp_path):
        proc = run_python("-m", "fond.cli", "benchmark", "--config", str(TINY),
                          "--out", str(tmp_path / "div"),
                          "--set", "trainer.optimizer=sgd",
                          "--set", "trainer.learning_rate=1e6",
                          "--set", "search.n_trials=0", "--set", "benchmark.reps=1",
                          "--jobs", "2")
        assert proc.returncode == cli.EXIT_NUMERIC, proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1, proc.stderr
        assert json.loads(lines[0])["type"] == "NonFiniteLossError"

    def test_numeric_failure_prints_only_its_json_line(self, cfg_path, tmp_path):
        # finite parameters that overflow in the forward pass: numpy's
        # warnings must not precede the inference check's error line
        train_out = tmp_path / "tr"
        assert run_cli("train", "--config", str(cfg_path), "--out", str(train_out)) == 0
        params = networks.load_checkpoint(train_out / "checkpoint_best.npz")
        params.flat *= 1e200
        huge = tmp_path / "huge.npz"
        networks.save_checkpoint(params, huge)
        proc = run_python("-m", "fond.cli", "dump-embeddings", "--config", str(cfg_path),
                          "--out", str(tmp_path / "emb"), "--checkpoint", str(huge))
        assert proc.returncode == cli.EXIT_NUMERIC, proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1, proc.stderr
        assert json.loads(lines[0])["error"] == "numerical"

    def test_missing_checkpoint_flag_exit_2(self, cfg_path, tmp_path, capsys):
        out = tmp_path / "emb"
        code = run_cli("dump-embeddings", "--config", str(cfg_path), "--out", str(out))
        assert code == cli.EXIT_CONFIG

    @pytest.mark.parametrize("text", ["not json", '{"target_domain": 0}', "[0, 1]"])
    @pytest.mark.parametrize("command", ["train", "dump-embeddings"])
    def test_malformed_plan_file_exit_2(self, cfg_path, tmp_path, capsys, text, command):
        plan = tmp_path / "plan.json"
        plan.write_text(text)
        argv = ["--config", str(cfg_path), "--out", str(tmp_path / "run")]
        if command == "dump-embeddings":
            ckpt = tmp_path / "model.npz"
            net_cfg = networks.NetworkConfig(input_dim=6, num_classes=4)
            networks.save_checkpoint(networks.init_params(net_cfg, 0), ckpt)
            argv += ["--checkpoint", str(ckpt)]
        argv += ["--set", f"split.plan_path={json.dumps(str(plan))}"]
        assert run_cli(command, *argv) == cli.EXIT_CONFIG
        payload = self.read_error(capsys)
        assert payload["type"] == "ContractError"
        assert f"{plan} is not a valid split plan" in payload["message"]


def _fail_first_cell(marker_dir, cfg, setting, variant, rep):
    """Stand-in benchmark cell: the first raises, every other leaves a
    marker file in ``marker_dir`` and takes a moment, as a real training
    would."""
    if (variant, rep) == (cfg.benchmark.variants[0], 0):
        raise ConfigError("first cell fails")
    (Path(marker_dir) / f"started-{setting}-{variant}-{rep}").touch()
    time.sleep(0.1)
    return {}


class TestBenchmark:
    def test_cells_complete_and_rerun_identical(self, cfg_path, tmp_path):
        out = tmp_path / "b1"
        assert run_cli("benchmark", "--config", str(cfg_path), "--out", str(out)) == 0
        results = (out / "results.csv").read_bytes()
        agg = (out / "aggregate.csv").read_bytes()
        lines = results.decode().splitlines()
        assert lines[0].startswith("# provenance: ")
        assert len(lines) == 2 + 4  # comment, header, 2 variants x 2 reps
        doc = json.loads((out / "benchmark.json").read_text())
        assert len(doc["cells"]) == 4
        assert all(c["winner"] is not None for c in doc["cells"])
        agg_lines = (out / "aggregate.csv").read_text().splitlines()
        assert len(agg_lines) == 2 + 2

        out2 = tmp_path / "b2"
        run_cli("benchmark", "--config", str(cfg_path), "--out", str(out2))
        assert (out2 / "results.csv").read_bytes() == results
        assert (out2 / "aggregate.csv").read_bytes() == agg

    def test_parallel_jobs_match_serial_bytes(self, cfg_path, tmp_path):
        serial = tmp_path / "serial"
        parallel = tmp_path / "parallel"
        run_cli("benchmark", "--config", str(cfg_path), "--out", str(serial),
                "--set", "search.n_trials=0")
        run_cli("benchmark", "--config", str(cfg_path), "--out", str(parallel),
                "--set", "search.n_trials=0", "--jobs", "2")
        assert (serial / "results.csv").read_bytes() == (parallel / "results.csv").read_bytes()
        assert (serial / "aggregate.csv").read_bytes() == (parallel / "aggregate.csv").read_bytes()

    def test_failed_cell_cancels_pending_cells(self, cfg_path, tmp_path, monkeypatch):
        # forked workers inherit the fake cell
        markers = tmp_path / "markers"
        markers.mkdir()
        monkeypatch.setattr(cli, "run_benchmark_cell",
                            functools.partial(_fail_first_cell, markers))
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        code = run_cli("benchmark", "--config", str(cfg_path), "--out", str(tmp_path / "b"),
                       "--set", "search.n_trials=0", "--set", "benchmark.reps=8",
                       "--jobs", "2")
        assert code == cli.EXIT_CONFIG
        pending = 2 * 8 - 1
        # cells already handed to a worker still run, so some markers appear
        assert 0 < len(list(markers.glob("started-*"))) < pending

    def test_import_leaves_out_the_process_pool(self):
        proc = run_python("-c", "import json, sys, fond.cli; print(json.dumps(list(sys.modules)))")
        assert proc.returncode == 0, proc.stderr
        loaded = set(json.loads(proc.stdout))
        assert "fond.cli" in loaded
        assert not loaded & {"concurrent.futures", "multiprocessing"}

    def test_commands_never_import_masked_arrays(self, tmp_path):
        # a plain np.unique imports numpy.ma (10 ms, +1.2 MB RSS) that no
        # command reads; pytest's own process may hold it already
        doc = json.loads(TINY.read_text())
        doc["dataset"] = {"csv_path": str(tmp_path / "gen" / "dataset.csv")}
        csv_cfg = tmp_path / "csv.json"
        csv_cfg.write_text(json.dumps(doc))
        script = f"""
import json, sys
from fond import cli
runs = [["generate", "--config", {str(TINY)!r}, "--out", {str(tmp_path / "gen")!r}],
        ["train", "--config", {str(csv_cfg)!r}, "--out", {str(tmp_path / "tr")!r}],
        ["dump-embeddings", "--config", {str(csv_cfg)!r}, "--out", {str(tmp_path / "emb")!r},
         "--checkpoint", {str(tmp_path / "tr" / "checkpoint_best.npz")!r}],
        ["benchmark", "--config", {str(TINY)!r}, "--out", {str(tmp_path / "bench")!r},
         "--set", "search.n_trials=1"]]
codes = [cli.main(argv) for argv in runs]
print(json.dumps({{"codes": codes, "masked": "numpy.ma" in sys.modules}}))
"""
        proc = run_python("-c", script)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result == {"codes": [0, 0, 0, 0], "masked": False}

    def test_cell_returns_its_row_with_the_winning_trial(self, cfg_path):
        cfg = config.load_config(cfg_path)
        row = cli.run_benchmark_cell(cfg, "low", "fond", 1)
        assert isinstance(row, evalsel.ResultRow)
        assert (row.dataset, row.setting, row.variant, row.rep) == ("synthetic", "low",
                                                                    "fond", 1)
        assert isinstance(row.winner, evalsel.TrialRecord) and row.winner.index == 0
        assert cli.run_benchmark_cell(replace(cfg, search=config.SearchConfig(n_trials=0)),
                                      "low", "fond", 1).winner is None

    def test_skipping_search_leaves_winner_empty(self, cfg_path, tmp_path):
        out = tmp_path / "nosearch"
        run_cli("benchmark", "--config", str(cfg_path), "--out", str(out),
                "--set", "search.n_trials=0")
        doc = json.loads((out / "benchmark.json").read_text())
        assert all(c["winner"] is None for c in doc["cells"])


class TestReleasedData:
    """Training commands free the dataset and the source pool before the loop."""

    @pytest.fixture
    def reachable_at_train(self, monkeypatch):
        """Per ``trainer.train`` call, whether each dataset and source pool
        built so far is still reachable."""
        refs, seen = [], []
        build, split, train = cli.build_dataset, datagen.apply_split, trainer.train

        def watched_build(cfg):
            dataset = build(cfg)
            refs.append(weakref.ref(dataset))
            return dataset

        def watched_split(dataset, plan):
            pool, target = split(dataset, plan)
            refs.append(weakref.ref(pool))
            return pool, target

        def watched_train(*args, **kwargs):
            gc.collect()
            seen.append([ref() is not None for ref in refs])
            return train(*args, **kwargs)

        monkeypatch.setattr(cli, "build_dataset", watched_build)
        monkeypatch.setattr(datagen, "apply_split", watched_split)
        monkeypatch.setattr(trainer, "train", watched_train)
        return seen

    def test_train(self, cfg_path, tmp_path, reachable_at_train):
        assert run_cli("train", "--config", str(cfg_path), "--out", str(tmp_path / "t")) == 0
        assert reachable_at_train == [[False, False]]

    def test_benchmark_cell(self, cfg_path, tmp_path, reachable_at_train):
        code = run_cli("benchmark", "--config", str(cfg_path), "--out", str(tmp_path / "b"),
                       "--set", 'benchmark.variants=["fond"]', "--set", "benchmark.reps=1")
        assert code == 0
        # the settings check builds and frees one dataset before any cell;
        # 3 search folds train from the cell's dataset and the search's own
        # pool, then the final training runs after both and the cell's pool
        # are freed
        assert len(reachable_at_train) == 4
        assert reachable_at_train[0] == [False, True, True]
        assert reachable_at_train[-1] == [False, False, False, False]


class TestClassIds:
    """G is trained on dense class codes, so an order-preserving relabelling
    of a dataset's classes only relabels the outputs."""

    @staticmethod
    def relabelled_csv(src: Path, dst: Path, relabel) -> None:
        lines = src.read_text().splitlines(keepends=True)
        with open(dst, "w", encoding="utf-8") as fh:
            for line in lines:
                if line[0].isdigit():
                    ident, domain, label, feats = line.split(",", 3)
                    line = f"{ident},{domain},{relabel(int(label))},{feats}"
                fh.write(line)

    @staticmethod
    def train_and_dump(csv: Path, out: Path) -> None:
        data = ["--set", "dataset.synthetic=null",
                "--set", f"dataset.csv_path={json.dumps(str(csv))}"]
        assert run_cli("train", "--config", str(TINY), "--out", str(out), *data) == 0
        assert run_cli("dump-embeddings", "--config", str(TINY), "--out", str(out),
                       "--checkpoint", str(out / "checkpoint_best.npz"), *data) == 0

    @pytest.mark.parametrize("relabel", [lambda c: 2 * c, lambda c: c + 3],
                             ids=["2c", "c+3"])
    def test_order_preserving_relabel_only_relabels_outputs(self, tmp_path, relabel):
        assert run_cli("generate", "--config", str(TINY), "--out", str(tmp_path / "gen")) == 0
        original = tmp_path / "gen" / "dataset.csv"
        moved = tmp_path / "relabelled.csv"
        self.relabelled_csv(original, moved, relabel)
        a, b = tmp_path / "a", tmp_path / "b"
        self.train_and_dump(original, a)
        self.train_and_dump(moved, b)

        for name in ("trainlog.jsonl", "trainlog.csv", "checkpoint_best.npz",
                     "checkpoint_final.npz"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

        want = json.loads((a / "metrics.json").read_text())
        metrics = want["metrics"]
        for key in ("per_class_accuracy", "counts"):
            metrics[key] = {str(relabel(int(c))): v for c, v in metrics[key].items()}
        metrics["excluded_classes"] = [relabel(c) for c in metrics["excluded_classes"]]
        assert json.loads((b / "metrics.json").read_text()) == want

        rows_a = (a / "embeddings.csv").read_text().splitlines()
        rows_b = (b / "embeddings.csv").read_text().splitlines()
        assert rows_b[0] == rows_a[0] and len(rows_b) == len(rows_a) > 1
        for row_a, row_b in zip(rows_a[1:], rows_b[1:]):
            ident, domain, label, rest = row_a.split(",", 3)
            assert row_b == f"{ident},{domain},{relabel(int(label))},{rest}"


@pytest.mark.parametrize("jobs, cells, cpus, want", [
    (1, 10, 4, 1), (8, 10, 4, 4), (8, 3, 4, 3), (3, 10, None, 1),
    (0, 10, 4, 1), (-2, 5, 4, 1), (10**6, 2, 64, 2), (5, 0, 4, 1)])
def test_worker_count_clamps_jobs(jobs, cells, cpus, want):
    assert cli.worker_count(jobs, cells, cpus) == want


class TestParser:
    """One way to give each input: every command takes the same four
    options, and only the command that reads a fifth one takes it."""

    COMMON = {"config", "overrides", "out", "seed"}
    EXTRA = {"benchmark": {"jobs"}, "dump-embeddings": {"checkpoint"}}

    def test_option_sets(self):
        action = next(a for a in cli.build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
        assert set(action.choices) == {"generate", "split", "train", "search",
                                       "benchmark", "dump-embeddings"}
        for name, sub in action.choices.items():
            dests = {a.dest for a in sub._actions if a.dest != "help"}
            assert dests == self.COMMON | self.EXTRA.get(name, set()), name

    def test_out_defaults_to_runs_out(self):
        assert cli.build_parser().parse_args(["train", "--config", "c.json"]).out == "runs/out"

    @pytest.mark.parametrize("argv", [
        *[[name, "--jobs", "2"] for name in ("generate", "split", "train", "search",
                                             "dump-embeddings")],
        ["dump-embeddings", "--plan", "p"]])
    def test_removed_flags_exit_2(self, cfg_path, argv):
        with pytest.raises(SystemExit) as exc:
            run_cli(argv[0], "--config", str(cfg_path), *argv[1:])
        assert exc.value.code == cli.EXIT_CONFIG

    def test_out_dir_config_key_exit_2(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(base_doc(out_dir=str(tmp_path / "elsewhere"))))
        assert run_cli("train", "--config", str(path), "--out", str(tmp_path / "run")) \
            == cli.EXIT_CONFIG
        assert "unknown key 'out_dir'" in json.loads(capsys.readouterr().err)["message"]
        assert not (tmp_path / "elsewhere").exists()


class TestDumpEmbeddings:
    def test_smoke(self, cfg_path, tmp_path):
        train_out = tmp_path / "tr"
        run_cli("train", "--config", str(cfg_path), "--out", str(train_out))
        out = tmp_path / "emb"
        code = run_cli("dump-embeddings", "--config", str(cfg_path),
                       "--out", str(out),
                       "--checkpoint", str(train_out / "checkpoint_best.npz"))
        assert code == 0
        lines = (out / "embeddings.csv").read_text().splitlines()
        assert len(lines) == 1 + 4 * 4 * 6
        assert lines[0].split(",")[:4] == ["id", "domain", "label", "group"]
