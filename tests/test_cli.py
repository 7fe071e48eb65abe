import argparse
import dataclasses
import errno
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
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fond import cli, config, datagen, evalsel, networks, trainer
from fond.errors import ConfigError, DegenerateInputError, NonFiniteLossError


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


def csv_records(path):
    """The data rows of a ``datagen.write_table`` file, as dicts of strings."""
    lines = Path(path).read_text().splitlines()[1:]   # past the provenance line
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


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
        space = {f.name: [0.1, 0.2] for f in fields(evalsel.HyperSpace)}
        space.update(a=[1.1, 1.2], b=[1.1, 1.2])   # a and b start at 1
        cfg = config.config_from_dict({"network": {"f_hidden": [8, 4]},
                                       "benchmark": {"settings": ["low", 2]},
                                       "search": {"space": space}})
        assert cfg.network.f_hidden == (8, 4)
        assert cfg.benchmark.settings == ("low", 2)
        for name in space:
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

    def test_readme_commands_run(self, tmp_path):
        # the "Command line" block, in order, on the tiny config with the
        # optional --jobs left out
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = re.search(r"## Command line\n.*?```\n(.*?)```", readme, re.S).group(1)
        lines = [line.split("#")[0].replace("[--jobs N]", "") for line in block.splitlines()]
        assert len(lines) == 6
        for line in lines:
            argv = line.replace("cfg.json", str(TINY)).replace("runs/", f"{tmp_path}/").split()
            assert argv[0] == "fond"
            assert run_cli(*argv[1:]) == 0, line
        for name in ("g/dataset.csv", "s/plan.json", "t/checkpoint_best.npz", "h/search.json",
                     "b/results.csv", "e/embeddings.csv"):
            assert (tmp_path / name).is_file(), name


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
            return cli.build_plan(config.config_from_dict(doc), ds)

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
        datagen.SplitPlan(**run_doc["plan"])
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
    # winner of `fond search`, and the per-cell rows, aggregates, pairings
    # with erm and cell records (winners included) of a one-trial
    # `fond benchmark`.
    GOLDEN_RECORDS = {
        "search": {
            "search.json": "b1bea8558402969e9fd01ff3c29d7bb5be71277575d7e90a1a001537cdee6489",
        },
        "benchmark": {
            "results.csv": "9cc6c4fea6eebce735d3776266f9196705e5f5574beba7b5e406c678ae1b4488",
            "aggregate.csv": "64cb6466911ea81bec469bcca3169e30557aeac08a1855e476a0dc5b4af7e3b4",
            "paired.csv": "1154e5e0a4f135e7f5adecb445ecb1363ab0389a9dd67fa3bb79dbbe364f6a5e",
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

    # The plan records on the tiny config: `fond split`'s plan.json at
    # each named setting, and the `run.json` sidecar of `fond train`
    # (resolved config and plan)
    GOLDEN_PLAN_RECORDS = {
        ("split", "low", "plan.json"):
            "32c1e60448a9768e82ff692a2d833d95b43ccd9c9e67779edafc974727ab4c1c",
        ("split", "high", "plan.json"):
            "fe3f4e8a3ea1ba9b73caa76ad2520df17e051e613ce25fcadb22402071551544",
        ("train", "low", "run.json"):
            "25d86b06561bdadf19589d9489663fe9ebdee28f1360289c26a9b5502e418952",
    }

    @pytest.mark.parametrize("command,setting,name", sorted(GOLDEN_PLAN_RECORDS))
    def test_tiny_plan_records_match_recorded_digests(self, tmp_path, command, setting,
                                                      name):
        assert run_cli(command, "--config", str(TINY), "--out", str(tmp_path),
                       "--set", f"split.setting={setting}") == 0
        digest = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        assert digest == self.GOLDEN_PLAN_RECORDS[command, setting, name]

    # The float-row files on the tiny config: `fond generate`'s dataset.csv
    # and the `fond dump-embeddings` embeddings.csv of its trained model,
    # recorded while both were still written by a per-value repr join
    GOLDEN_FLOAT_ROWS = {
        "dataset.csv": "962af90537f4bd146f9755299a86edd023dd2d2120527436f7becb34e8c2525b",
        "embeddings.csv": "5fc8c860c82b0d35ddf87fe11c605de6c6e6b4a14ded3c0bd21b0b4fd6203fbb",
    }

    def test_tiny_float_row_files_match_recorded_digests(self, tmp_path):
        assert run_cli("generate", "--config", str(TINY), "--out", str(tmp_path)) == 0
        assert run_cli("train", "--config", str(TINY), "--out", str(tmp_path / "tr")) == 0
        assert run_cli("dump-embeddings", "--config", str(TINY), "--out", str(tmp_path),
                       "--checkpoint", str(tmp_path / "tr" / "checkpoint_best.npz")) == 0
        digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                   for name in self.GOLDEN_FLOAT_ROWS}
        assert digests == self.GOLDEN_FLOAT_ROWS

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

    @pytest.mark.parametrize("override,field", [
        ("dataset.synthetic.num_domains=2147483648", "num_domains"),
        ("dataset.synthetic.samples_per_cell=9007199254740993", "samples_per_cell"),
    ], ids=["num-domains", "samples-per-cell"])
    def test_oversized_synthetic_spec_exits_2(self, tmp_path, capsys, override, field):
        # numpy refused the arrays up front (1 TiB of domain transforms, and
        # "array is too big"), and the traceback exited 1
        code = run_cli("train", "--config", str(TINY), "--out", str(tmp_path / "run"),
                       "--set", override)
        assert code == cli.EXIT_CONFIG
        payload = self.only_error_line(capsys)
        assert payload["type"] == "ConfigError"
        value = override.rsplit("=", 1)[1]
        assert f"{field}={value}" in payload["message"]
        assert payload["message"].endswith("over the cap of 2**27")
        assert not (tmp_path / "run").exists()

    def run_on_low_plan(self, tmp_path, command, *overrides, edit=None):
        """`fond split` on the tiny config (setting low: 2 of 5 classes
        shared; target domain 0), then ``command`` on that plan file, with
        its output in ``tmp_path / "run"``; ``edit`` updates the plan's
        document in between."""
        assert run_cli("split", "--config", str(TINY), "--out", str(tmp_path / "sp")) == 0
        if edit is not None:
            path = tmp_path / "sp" / "plan.json"
            path.write_text(json.dumps({**json.loads(path.read_text()), **edit}))
        plan = json.dumps(str(tmp_path / "sp" / "plan.json"))
        argv = [command, "--config", str(TINY), "--out", str(tmp_path / "run"),
                "--set", f"split.plan_path={plan}", *overrides]
        if command == "dump-embeddings":
            ckpt = tmp_path / "model.npz"
            networks.save_checkpoint(networks.init_params(
                networks.NetworkConfig(input_dim=8, num_classes=5), 0), ckpt)
            argv += ["--checkpoint", str(ckpt)]
        return run_cli(*argv)

    def benchmark_on_low_plan(self, tmp_path, *overrides):
        """A one-variant benchmark without search on the low plan."""
        return self.run_on_low_plan(tmp_path, "benchmark", "--set", 'benchmark.variants=["erm"]',
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
        assert not (tmp_path / "run" / "results.csv").exists()

    def test_plan_file_of_the_named_setting_runs(self, tmp_path):
        assert self.benchmark_on_low_plan(tmp_path, "--set", 'benchmark.settings=["low"]') == 0
        rows = (tmp_path / "run" / "results.csv").read_text().splitlines()[2:]
        assert [row.split(",")[:4] for row in rows] == [["synthetic", "low", "erm", "0"]]

    @pytest.mark.parametrize("command", ["train", "benchmark"])
    def test_plan_file_of_another_target_exits_2(self, tmp_path, capsys, monkeypatch,
                                                 command):
        # the run evaluated on the plan file's target, domain 0, while its
        # provenance recorded target_domain 2
        def no_training(*args, **kwargs):
            raise AssertionError("trainer.train ran")

        monkeypatch.setattr(trainer, "train", no_training)
        code = self.run_on_low_plan(tmp_path, command, "--set", "split.target_domain=2")
        assert code == cli.EXIT_CONFIG
        payload = self.only_error_line(capsys)
        assert payload["type"] == "ConfigError"
        assert payload["message"] == ("split.target_domain is 2, "
                                      "but the plan file holds out domain 0")
        assert sorted(p.name for p in (tmp_path / "run").iterdir()) == []

    @pytest.mark.parametrize("command", ["train", "search", "dump-embeddings"])
    def test_plan_file_of_another_setting_exits_2(self, tmp_path, capsys, monkeypatch,
                                                  command):
        # `train` wrote run.json with setting "high" for a model trained on
        # the plan file's low split
        def no_training(*args, **kwargs):
            raise AssertionError("trainer.train ran")

        monkeypatch.setattr(trainer, "train", no_training)
        code = self.run_on_low_plan(tmp_path, command, "--set", "split.setting=high")
        assert code == cli.EXIT_CONFIG
        payload = self.only_error_line(capsys)
        assert payload["type"] == "ConfigError"
        assert payload["message"] == ("setting 'high' shares 4 of 5 classes, "
                                      "but the plan file shares 2")
        assert sorted(p.name for p in (tmp_path / "run").iterdir()) == []

    def test_plan_file_with_an_unknown_key_exits_2(self, tmp_path, capsys, monkeypatch):
        # the key was ignored, and the run trained and exited 0
        def no_training(*args, **kwargs):
            raise AssertionError("trainer.train ran")

        monkeypatch.setattr(trainer, "train", no_training)
        assert run_cli("split", "--config", str(TINY), "--out", str(tmp_path / "sp")) == 0
        plan = tmp_path / "sp" / "plan.json"
        plan.write_text(json.dumps({**json.loads(plan.read_text()), "note": "low"}))
        code = run_cli("train", "--config", str(TINY), "--out", str(tmp_path / "run"),
                       "--set", f"split.plan_path={json.dumps(str(plan))}")
        assert code == cli.EXIT_CONFIG
        payload = self.only_error_line(capsys)
        assert payload["type"] == "ContractError"
        assert payload["message"].startswith(f"{plan} is not a valid split plan: TypeError")
        assert "'note'" in payload["message"]
        assert sorted(p.name for p in (tmp_path / "run").iterdir()) == []

    # five classes on domains 0 (target) and 1, the only source: no source
    # domain is left to express the shared classes
    ONE_SOURCE_PLAN = {"target_domain": 0, "source_domains": [1], "shared_classes": [0, 1],
                       "linked_classes": [2, 3, 4],
                       "assignment": {"0": [], "1": [], "2": [1], "3": [1], "4": [1]}}

    @pytest.mark.parametrize("command", ["split", "train", "search", "benchmark",
                                         "dump-embeddings"])
    def test_plan_file_with_one_source_domain_exits_2(self, tmp_path, capsys, monkeypatch,
                                                      command):
        # only `search` refused it; `train` and the benchmark's erm cells
        # trained without the shared classes, exited 0 and read y_s=0.0
        def no_training(*args, **kwargs):
            raise AssertionError("trainer.train ran")

        monkeypatch.setattr(trainer, "train", no_training)
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps(self.ONE_SOURCE_PLAN))
        argv = [command, "--config", str(TINY), "--out", str(tmp_path / "run"),
                "--set", "dataset.synthetic.num_domains=2", "--set", "split.setting=2",
                "--set", f"split.plan_path={json.dumps(str(plan))}"]
        if command == "benchmark":
            argv += ["--set", "benchmark.settings=[2]", "--set", "search.n_trials=0"]
        if command == "dump-embeddings":
            ckpt = tmp_path / "model.npz"
            networks.save_checkpoint(networks.init_params(
                networks.NetworkConfig(input_dim=8, num_classes=5), 0), ckpt)
            argv += ["--checkpoint", str(ckpt)]
        assert run_cli(*argv) == cli.EXIT_CONFIG
        payload = self.only_error_line(capsys)
        assert payload["type"] == "ContractError"
        assert payload["message"] == (f"{plan} is not a valid split plan: ContractError: "
                                      f"need at least 2 source domains, got 1")
        assert sorted(p.name for p in (tmp_path / "run").iterdir()) == []

    @pytest.mark.parametrize("field,edit,named", [
        ("linked_classes", lambda ids: [ids[0] + 0.9, *ids[1:]], "linked_classes"),
        ("source_domains", lambda ids: [ids[0] + 0.5, *ids[1:]], "source_domains"),
        ("target_domain", lambda target: float(target), "target_domain"),
        ("target_domain", lambda target: bool(target), "target_domain"),
    ], ids=["float-class", "float-domain", "float-target", "bool-target"])
    def test_plan_file_with_a_non_integer_id_exits_2(self, tmp_path, capsys, monkeypatch,
                                                     field, edit, named):
        # int() truncated each float id to the plan's own id (and kept
        # target_domain as given), so the run trained, exited 0 and wrote
        # the float or boolean into run.json
        def no_training(*args, **kwargs):
            raise AssertionError("trainer.train ran")

        monkeypatch.setattr(trainer, "train", no_training)
        assert run_cli("split", "--config", str(TINY), "--out", str(tmp_path / "sp")) == 0
        plan = tmp_path / "sp" / "plan.json"
        doc = json.loads(plan.read_text())
        bad = edit(doc[field])
        plan.write_text(json.dumps({**doc, field: bad}))
        code = run_cli("train", "--config", str(TINY), "--out", str(tmp_path / "run"),
                       "--set", f"split.plan_path={json.dumps(str(plan))}")
        assert code == cli.EXIT_CONFIG
        payload = self.only_error_line(capsys)
        assert payload["type"] == "ContractError"
        value = bad if field == "target_domain" else bad[0]
        assert payload["message"] == (f"{plan} is not a valid split plan: ContractError: "
                                      f"{named} holds {value!r}, not an integer id")
        assert sorted(p.name for p in (tmp_path / "run").iterdir()) == []

    # edits of the tiny config's low plan (linked classes 0-2 on sources
    # 1-3; shared classes 3 on [2, 3] and 4 on [1, 2]) that repeat one id;
    # the repeated source domain also puts both shared classes on every
    # source, which passed the "k - 1 domains" rule because k counted it
    REPEATED_IDS = {
        "source_domains": ({"source_domains": [1, 2, 2, 3],
                            "assignment": {"0": [2], "1": [3], "2": [1],
                                           "3": [1, 2, 3], "4": [1, 2, 3]}},
                           "source_domains repeats id 2"),
        "shared_classes": ({"shared_classes": [3, 4, 3]}, "shared_classes repeats id 3"),
        "linked_classes": ({"linked_classes": [0, 1, 1, 2]}, "linked_classes repeats id 1"),
        "assignment": ({"assignment": {"0": [2], "1": [3], "2": [1], "3": [2, 3],
                                       "4": [1, 2, 1]}},
                       "assignment[4] repeats id 1"),
    }

    @pytest.mark.parametrize("command,field", [
        *[(command, "source_domains") for command in ("split", "train", "search", "benchmark",
                                                      "dump-embeddings")],
        ("train", "shared_classes"), ("train", "linked_classes"), ("train", "assignment")])
    def test_plan_file_with_a_repeated_id_exits_2(self, tmp_path, capsys, monkeypatch,
                                                  command, field):
        # every command exited 0 on the repeated source domain (`train` read
        # y_s=0.9375 and recorded [1, 2, 2, 3] in run.json), and a frozenset
        # merged a repeated class or assigned domain without a word
        def no_training(*args, **kwargs):
            raise AssertionError("trainer.train ran")

        monkeypatch.setattr(trainer, "train", no_training)
        edit, message = self.REPEATED_IDS[field]
        overrides = []
        if command == "benchmark":
            overrides = ["--set", 'benchmark.settings=["low"]',
                         "--set", 'benchmark.variants=["erm"]', "--set", "search.n_trials=0"]
        assert self.run_on_low_plan(tmp_path, command, *overrides, edit=edit) == cli.EXIT_CONFIG
        payload = self.only_error_line(capsys)
        assert payload["type"] == "ContractError"
        assert payload["message"] == (f"{tmp_path / 'sp' / 'plan.json'} is not a valid split "
                                      f"plan: ContractError: {message}")
        assert sorted(p.name for p in (tmp_path / "run").iterdir()) == []

    def run_without_domain(self, tmp_path, monkeypatch, domain, command, *overrides):
        """``command`` on the tiny config with a `fond split` plan (target 0,
        sources 1-3) and its `fond generate` data minus the rows of
        ``domain``; any training fails the test."""
        def no_training(*args, **kwargs):
            raise AssertionError("trainer.train ran")

        assert run_cli("generate", "--config", str(TINY), "--out", str(tmp_path / "g")) == 0
        assert run_cli("split", "--config", str(TINY), "--out", str(tmp_path / "sp")) == 0
        lines = (tmp_path / "g" / "dataset.csv").read_text().splitlines(keepends=True)
        csv = tmp_path / "partial.csv"
        csv.write_text("".join(line for line in lines
                               if not line[0].isdigit() or line.split(",")[1] != str(domain)))
        monkeypatch.setattr(trainer, "train", no_training)
        plan = json.dumps(str(tmp_path / "sp" / "plan.json"))
        return run_cli(command, "--config", str(TINY), "--out", str(tmp_path / "run"),
                       "--set", "dataset.synthetic=null",
                       "--set", f"dataset.csv_path={json.dumps(str(csv))}",
                       "--set", f"split.plan_path={plan}", *overrides)

    def assert_domain_mismatch(self, capsys, domain):
        payload = self.only_error_line(capsys)
        assert payload["type"] == "PlanMismatchError"
        kept = sorted({0, 1, 2, 3} - {domain})
        assert payload["message"] == (f"dataset domains {kept} are not the plan's "
                                      f"[0, 1, 2, 3] (target 0)")

    @pytest.mark.parametrize("domain", [0, 2], ids=["target", "source"])
    @pytest.mark.parametrize("command", ["split", "train", "search"])
    def test_data_without_a_plan_domain_exits_2_before_training(
            self, tmp_path, capsys, monkeypatch, command, domain):
        # without the target, `train` trained and exited 3 (cannot evaluate
        # on an empty set) and `search` exited 0; without source 2, `train`
        # exited 0 and `search` exited 3 after its folds trained; `split`
        # wrote the plan file back and exited 0 either way
        code = self.run_without_domain(tmp_path, monkeypatch, domain, command)
        assert code == cli.EXIT_CONFIG
        self.assert_domain_mismatch(capsys, domain)
        assert sorted(p.name for p in (tmp_path / "run").iterdir()) == []

    @pytest.mark.parametrize("domain", [0, 2], ids=["target", "source"])
    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_benchmark_on_data_without_a_plan_domain_starts_no_cell(
            self, tmp_path, capsys, monkeypatch, jobs, domain):
        # the pre-check read no data for a plan file, so the cells started
        # and, without the target, exited 3 at their first evaluation
        markers = tmp_path / "markers"
        markers.mkdir()
        monkeypatch.setattr(cli, "run_benchmark_cell", functools.partial(_mark_cell, markers))
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        code = self.run_without_domain(tmp_path, monkeypatch, domain, "benchmark",
                                       "--jobs", jobs, "--set", "search.n_trials=0",
                                       "--set", 'benchmark.settings=["low"]',
                                       "--set", 'benchmark.variants=["erm"]',
                                       "--set", "benchmark.reps=2")
        assert code == cli.EXIT_CONFIG
        self.assert_domain_mismatch(capsys, domain)
        assert list(markers.iterdir()) == []
        assert sorted(p.name for p in (tmp_path / "run").iterdir()) == []

    @pytest.mark.parametrize("override", ["dataset.synthetic.shift=NaN",
                                          "dataset.synthetic.noise_std=Infinity",
                                          "dataset.synthetic.label_noise=NaN"])
    def test_non_finite_synthetic_value_names_its_field(self, tmp_path, capsys, override):
        # shift=NaN failed after generation with "features contain
        # non-finite values", which names no field
        code = run_cli("generate", "--config", str(TINY), "--out", str(tmp_path / "g"),
                       "--set", override)
        assert code == cli.EXIT_CONFIG
        payload = self.only_error_line(capsys)
        assert payload["type"] == "ConfigError"
        field, value = override.split(".")[-1].split("=")
        assert payload["message"] == f"{field} must be finite, got {float(value)!r}"
        assert not (tmp_path / "g" / "dataset.csv").exists()

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

    @pytest.mark.parametrize("body", ['{"seed": 1' + "0" * 5000 + "}",
                                      "[" * 50_000 + "]" * 50_000],
                             ids=["long-integer", "deep-nesting"])
    def test_config_json_the_decoder_cannot_convert_exit_2(self, tmp_path, capsys, body):
        # a ValueError or RecursionError traceback, exit 1
        path = tmp_path / "config.json"
        path.write_text(body)
        code = run_cli("train", "--config", str(path), "--out", str(tmp_path / "run"))
        assert code == cli.EXIT_CONFIG
        payload = self.only_error_line(capsys)
        assert payload["type"] == "ConfigError"
        assert payload["message"].startswith(f"{path} is not valid JSON")

    @pytest.mark.parametrize("value", ["1" + "0" * 5000, "[" * 3000 + "]" * 3000],
                             ids=["long-integer", "deep-nesting"])
    def test_override_json_the_decoder_cannot_convert_exit_2(self, tmp_path, capsys, value):
        # a ValueError or RecursionError traceback, exit 1; the value now stays
        # the raw string, as any other non-JSON value does, and loss.a rejects it
        assert config.parse_override(f"loss.a={value}") == (["loss", "a"], value)
        code = run_cli("train", "--config", str(TINY), "--out", str(tmp_path / "run"),
                       "--set", f"loss.a={value}")
        assert code == cli.EXIT_CONFIG
        payload = self.only_error_line(capsys)
        assert payload["type"] == "ConfigError"
        assert payload["message"].startswith("loss.a must be float")

    def repeated_key_argv(self, tmp_path, source):
        """argv of a command whose JSON input from ``source`` repeats an
        object key, and that key."""
        argv = ["--config", str(TINY), "--out", str(tmp_path / "run")]
        if source == "config":
            doc = json.loads(TINY.read_text())
            del doc["seed"]
            path = tmp_path / "config.json"
            path.write_text('{"seed": 7, "seed": 8, ' + json.dumps(doc)[1:])
            return ["train", "--config", str(path), "--out", str(tmp_path / "run")], "seed"
        if source == "override":
            return ["train", *argv, "--set",
                    'trainer={"max_steps":1,"max_steps":2,"eval_every":1}'], "max_steps"
        if source == "plan":
            assert run_cli("split", *argv[:2], "--out", str(tmp_path / "sp")) == 0
            path = tmp_path / "sp" / "plan.json"
            doc = json.loads(path.read_text())
            assignment = json.dumps(doc.pop("assignment"))
            key = next(iter(json.loads(assignment)))
            path.write_text(json.dumps(doc)[:-1] + f', "assignment": {{"{key}": [1], '
                            + assignment[1:] + "}")
            return ["train", *argv, "--set", f"split.plan_path={json.dumps(str(path))}"], key
        params = networks.init_params(networks.NetworkConfig(
            input_dim=8, num_classes=5, feature_dim=16, projection_dim=8,
            f_hidden=(16,), p_hidden=(32,)), 0)
        meta = json.dumps({"version": 1, "seed": 0, "seed": 1,
                           "config": dataclasses.asdict(params.config)})
        assert meta.count('"seed"') == 1   # json.dumps cannot write a repeat
        meta = meta.replace('"seed": 1', '"seed": 0, "seed": 1')
        path = tmp_path / "model.npz"
        np.savez(path, **params.tensors(),
                 __meta__=np.frombuffer(meta.encode("utf-8"), dtype=np.uint8))
        return ["dump-embeddings", *argv, "--checkpoint", str(path)], "seed"

    @pytest.mark.parametrize("source, error", [("config", "ConfigError"),
                                               ("override", "ConfigError"),
                                               ("plan", "ContractError"),
                                               ("checkpoint", "ContractError")])
    def test_json_input_with_a_repeated_key_exits_2(self, tmp_path, capsys, monkeypatch,
                                                    source, error):
        # the decoder kept the last copy of the key, and each command exited
        # 0: the config trained with seed 8, the override trained 2 steps,
        # the plan trained on its second list and the checkpoint was dumped
        def no_training(*args, **kwargs):
            raise AssertionError("trainer.train ran")

        monkeypatch.setattr(trainer, "train", no_training)
        argv, key = self.repeated_key_argv(tmp_path, source)
        capsys.readouterr()
        assert run_cli(*argv) == cli.EXIT_CONFIG
        payload = self.only_error_line(capsys)
        assert payload["type"] == error
        assert f"repeats key {key!r}" in payload["message"]
        assert list((tmp_path / "run").glob("*")) == []

    def test_override_with_a_repeated_key_stays_an_error(self):
        # any other ValueError of the decoder leaves the value a string
        with pytest.raises(ConfigError, match="repeats key 'max_steps'"):
            config.parse_override('trainer={"max_steps": 1, "max_steps": 2}')

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

    def test_search_without_trials_exit_2(self, tmp_path, capsys, monkeypatch):
        # evalsel.random_search's check, run before any trial trains
        def no_training(*args, **kwargs):
            raise AssertionError("trainer.train ran")

        monkeypatch.setattr(trainer, "train", no_training)
        code = run_cli("search", "--config", str(TINY), "--out", str(tmp_path / "run"),
                       "--set", "search.n_trials=0")
        assert code == cli.EXIT_CONFIG
        payload = self.only_error_line(capsys)
        assert payload["type"] == "ConfigError" and "n_trials" in payload["message"]
        assert not (tmp_path / "run" / "search.json").exists()

    def test_search_range_outside_its_config_exit_2(self, tmp_path, capsys):
        # a draw of a < 1 failed only on some seeds, after the earlier trials trained
        out = tmp_path / "search"
        code = run_cli("search", "--config", str(TINY), "--out", str(out), "--seed", "1",
                       "--set", "search.n_trials=3", "--set", "search.space.a=[0.8, 1.6]")
        assert code == cli.EXIT_CONFIG
        assert "a range (0.8, 1.6)" in self.only_error_line(capsys)["message"]
        assert not (out / "search.json").exists()

    def test_dump_with_classes_the_plan_lacks_exit_2(self, cfg_path, tmp_path, capsys):
        # the dump wrote the plan-less class's rows with group "shared";
        # build_plan now checks the plan against the data, before the dump
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
        assert payload["type"] == "PlanMismatchError"
        assert payload["message"] == "dataset classes [4, 5] are not in the plan"
        assert not (out / "embeddings.csv").exists()

    def test_dump_with_checkpoint_of_another_class_count_exit_2(self, tmp_path, capsys):
        # a 5-class model dumped rows of 7 classes, with groups from a plan
        # it was not trained on
        assert run_cli("train", "--config", str(TINY), "--out", str(tmp_path / "t1"),
                       "--set", "trainer.max_steps=5", "--set", "trainer.eval_every=5") == 0
        capsys.readouterr()
        out = tmp_path / "d2"
        code = run_cli("dump-embeddings", "--config", str(TINY), "--out", str(out),
                       "--checkpoint", str(tmp_path / "t1" / "checkpoint_best.npz"),
                       "--set", "dataset.synthetic.num_classes=7")
        assert code == cli.EXIT_CONFIG
        payload = self.only_error_line(capsys)
        assert payload["type"] == "ContractError"
        assert payload["message"] == "the model has 5 classes, the plan 7"
        assert not (out / "embeddings.csv").exists()

    def dump_tiny(self, tmp_path, params, *overrides):
        """`dump-embeddings` on the tiny config with ``params`` as the
        checkpoint, its output in ``tmp_path / "emb"``."""
        ckpt = tmp_path / "model.npz"
        networks.save_checkpoint(params, ckpt)
        return run_cli("dump-embeddings", "--config", str(TINY), "--out", str(tmp_path / "emb"),
                       "--checkpoint", str(ckpt), *overrides)

    def test_dump_with_checkpoint_of_another_width_exit_2(self, tmp_path, capsys):
        # the dump wrote its header, then the forward pass exited 3 with a ShapeError
        params = networks.init_params(networks.NetworkConfig(input_dim=8, num_classes=5), 0)
        code = self.dump_tiny(tmp_path, params, "--set", "dataset.synthetic.input_dim=6")
        assert code == cli.EXIT_CONFIG
        payload = self.only_error_line(capsys)
        assert payload["type"] == "ContractError"
        assert payload["message"] == "the model takes 8 input features, the data 6"
        assert not (tmp_path / "emb" / "embeddings.csv").exists()

    def test_dump_on_data_the_plan_does_not_fit_exits_2(self, tmp_path, capsys):
        # the dump wrote all 160 rows, grouped by a plan of domains 0-2, and
        # exited 0, while `fond split` on the same plan file exited 2
        assert run_cli("split", "--config", str(TINY), "--out", str(tmp_path / "sp"),
                       "--set", "dataset.synthetic.num_domains=3") == 0
        capsys.readouterr()
        params = networks.init_params(networks.NetworkConfig(input_dim=8, num_classes=5), 0)
        plan = json.dumps(str(tmp_path / "sp" / "plan.json"))
        code = self.dump_tiny(tmp_path, params, "--set", f"split.plan_path={plan}")
        assert code == cli.EXIT_CONFIG
        payload = self.only_error_line(capsys)
        assert payload["type"] == "PlanMismatchError"
        assert payload["message"] == ("dataset domains [0, 1, 2, 3] are not the plan's "
                                      "[0, 1, 2] (target 0)")
        assert not (tmp_path / "emb" / "embeddings.csv").exists()

    def test_failed_dump_leaves_no_embeddings_file(self, tmp_path, capsys):
        # finite parameters that overflow in the first block: the dump
        # exited 3 and left a file holding only the header
        params = networks.init_params(networks.NetworkConfig(input_dim=8, num_classes=5), 0)
        params.flat *= 1e200
        assert self.dump_tiny(tmp_path, params) == cli.EXIT_NUMERIC
        assert self.only_error_line(capsys)["error"] == "numerical"
        assert not (tmp_path / "emb" / "embeddings.csv").exists()

    def test_missing_config_exit_4(self, tmp_path, capsys):
        missing = tmp_path / "absent.json"
        assert run_cli("train", "--config", str(missing)) == cli.EXIT_IO
        assert self.read_error(capsys)["error"] == "io"

    def test_divergence_exit_3_names_step(self, tmp_path, capsys):
        code = run_cli("train", "--config", str(TINY), "--out", str(tmp_path / "div"),
                       "--set", "trainer.optimizer=sgd",
                       "--set", "trainer.learning_rate=1e6")
        assert code == cli.EXIT_NUMERIC
        payload = self.read_error(capsys)
        assert payload["type"] == "NonFiniteLossError"
        assert "non-finite loss at step" in payload["message"]

    @pytest.mark.parametrize("overrides", [
        ["trainer.learning_rate=1e300"],
        ["trainer.optimizer=sgd", "trainer.learning_rate=1e150"]])
    def test_overflowing_projection_exit_3_names_step(self, tmp_path, capsys, overrides):
        # the activations overflow after step 1: the projection's non-finite
        # row norm reached xdom_loss's unit-norm check and exited 2 as a
        # contract error
        sets = [arg for o in overrides for arg in ("--set", o)]
        code = run_cli("train", "--config", str(TINY), "--out", str(tmp_path / "div"), *sets)
        assert code == cli.EXIT_NUMERIC
        payload = self.read_error(capsys)
        assert payload["type"] == "DegenerateInputError"
        assert payload["message"].startswith("step 2: ")
        assert "np.float64" not in payload["message"]

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

    @pytest.mark.parametrize("key", ["loss.a", "dataset.synthetic.shift",
                                     "trainer.learning_rate", "search.space.a"])
    def test_integer_too_large_for_a_float_exit_2(self, tmp_path, capsys, key):
        # math.isfinite raised OverflowError on such a JSON integer: exit 1
        # with a traceback
        huge = "1" + "0" * 400
        value = f"[1, {huge}]" if key == "search.space.a" else huge
        code = run_cli("train", "--config", str(TINY), "--out", str(tmp_path / "big"),
                       "--set", f"{key}={value}")
        assert code == cli.EXIT_CONFIG
        payload = self.only_error_line(capsys)
        assert payload["type"] == "ConfigError"
        assert payload["message"].startswith(key.split(".")[-1])
        assert "too large for a float" in payload["message"]

    @pytest.mark.parametrize("override", [
        "trainer.adam_beta1=1.0", "trainer.adam_beta2=1.0", "trainer.adam_eps=0",
        "trainer.adam_beta1=1.5", "trainer.adam_beta2=2", "trainer.adam_eps=-1e-8"])
    def test_adam_value_outside_adam_domain_exit_2(self, tmp_path, capsys, override):
        # the first three exited 3 after step 1, the last three trained and
        # exited 0
        code = run_cli("train", "--config", str(TINY), "--out", str(tmp_path / "adam"),
                       "--set", override)
        assert code == cli.EXIT_CONFIG
        payload = self.only_error_line(capsys)
        assert payload["type"] == "ConfigError"
        assert payload["message"].startswith(override.split("=")[0].split(".")[1])
        assert not (tmp_path / "adam" / "trainlog.jsonl").exists()

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

    @pytest.mark.parametrize("text", [
        "not json", '{"target_domain": 0}', "[0, 1]",
        # a RecursionError traceback, exit 1
        pytest.param("[" * 50_000 + "]" * 50_000, id="deep-nesting")])
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


def _mark_cell(marker_dir, cfg, setting, variant, rep):
    """Stand-in benchmark cell that leaves a marker file in ``marker_dir``
    and fails: no test that uses it may start a cell."""
    (Path(marker_dir) / f"started-{setting}-{variant}-{rep}").touch()
    raise AssertionError("a benchmark cell started")


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

    def test_only_float_row_writers_load_the_float_row_module(self, tmp_path):
        # a benchmark writes only write_table tables; the module is compiled
        # on each run where bytecode is not cached. Imported at module level
        # instead, it raised desk_high's setup_s from 0.161 to 0.178 s and its
        # peak_rss_mb from 39.55 to 40.33 MB (medians of 10 alternating pairs
        # of perfbench/run.py --seconds 52 --trace 0, 2-vCPU Xeon; worse in 7/10
        # and 10/10 pairs)
        script = f"""
import json, sys
from fond import cli
codes = [cli.main(["benchmark", "--config", {str(TINY)!r}, "--out", {str(tmp_path / "b")!r},
                   "--set", "search.n_trials=0", "--set", "benchmark.reps=1"])]
loaded = ["fond.floatrows" in sys.modules]
codes.append(cli.main(["generate", "--config", {str(TINY)!r}, "--out", {str(tmp_path / "g")!r}]))
loaded.append("fond.floatrows" in sys.modules)
print(json.dumps({{"codes": codes, "loaded": loaded}}))
"""
        proc = run_python("-c", script)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result == {"codes": [0, 0], "loaded": [False, True]}

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

    def test_cells_of_two_master_seeds_in_one_call(self, tmp_path, monkeypatch):
        # each cell carries its own config, so one run_cells call can mix
        # master seeds and give each seed's cells the rows of its own benchmark
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        overrides = ["search.n_trials=0", "benchmark.reps=1"]
        base = config.load_config(TINY, overrides)
        cfgs = [replace(base, seed=seed) for seed in (3, 4)]
        cells = [(cfg, setting, variant, rep) for cfg in cfgs
                 for setting in base.benchmark.settings
                 for variant in base.benchmark.variants
                 for rep in range(base.benchmark.reps)]
        rows = cli.run_cells(cells, 1)
        assert cli.run_cells(cells, 2) == rows
        per_seed = len(cells) // len(cfgs)
        for i, cfg in enumerate(cfgs):
            out = tmp_path / str(cfg.seed)
            assert run_cli("benchmark", "--config", str(TINY), "--out", str(out),
                           "--seed", str(cfg.seed),
                           *(arg for text in overrides for arg in ("--set", text))) == 0
            mine = tmp_path / f"cells-{cfg.seed}.csv"
            evalsel.write_results_csv(rows[i * per_seed:(i + 1) * per_seed], mine,
                                      {"config": config.to_provenance(cfg)})
            assert mine.read_bytes() == (out / "results.csv").read_bytes()

    def test_every_plan_comes_from_a_config_of_its_setting(self, tmp_path, monkeypatch):
        # the cells and the pre-check handed build_plan each setting apart
        # from a config whose split.setting stayed the benchmark's "high"
        built = []
        build_plan = cli.build_plan

        def recording(cfg, *args):
            plan = build_plan(cfg, *args)
            built.append((cfg.split.setting, len(plan.shared_classes)))
            return plan

        monkeypatch.setattr(cli, "build_plan", recording)
        assert run_cli("benchmark", "--config", str(TINY), "--out", str(tmp_path),
                       "--set", 'benchmark.settings=["low", "high"]',
                       "--set", "split.setting=high", "--set", "search.n_trials=0",
                       "--set", 'benchmark.variants=["erm", "fond"]') == 0
        # the tiny config shares 2 of its 5 classes in low and 4 in high;
        # the pre-check's plans, then the cells' in order
        assert built == [("low", 2), ("high", 4)] + [("low", 2)] * 2 + [("high", 4)] * 2

    def test_cell_returns_its_row_with_the_winning_trial(self, cfg_path):
        cfg = config.load_config(cfg_path)
        row = cli.run_benchmark_cell(cfg, "low", "fond", 1)
        assert isinstance(row, evalsel.ResultRow)
        assert (row.dataset, row.setting, row.variant, row.rep) == ("synthetic", "low",
                                                                    "fond", 1)
        assert isinstance(row.winner, evalsel.TrialRecord) and row.winner.index == 0
        assert cli.run_benchmark_cell(replace(cfg, search=config.SearchConfig(n_trials=0)),
                                      "low", "fond", 1).winner is None

    def test_paired_table_matches_results_across_jobs_and_reruns(self, tmp_path, capsys):
        runs = [tmp_path / "serial", tmp_path / "parallel", tmp_path / "rerun"]
        for out, jobs in zip(runs, ("1", "2", "1")):
            assert run_cli("benchmark", "--config", str(TINY), "--out", str(out),
                           "--jobs", jobs) == 0
        paired = (runs[0] / "paired.csv").read_bytes()
        assert all((out / "paired.csv").read_bytes() == paired for out in runs[1:])
        scores = {(r["setting"], r["variant"], r["rep"]): r["y_l_acc"]
                  for r in csv_records(runs[0] / "results.csv")}
        table = csv_records(runs[0] / "paired.csv")
        assert len(table) == 5 * 2                     # non-erm variants x settings
        for row in table:                              # one rep: the mean is its difference
            key = (row["setting"], row["variant"], "0")
            assert row["reps"] == "1" and row["y_l_diff_se"] == ""
            assert float(row["y_l_diff_mean"]) \
                == float(scores[key]) - float(scores[(row["setting"], "erm", "0")])
        printed = re.findall(r"^synthetic +(\w+) (\w+) +beats erm on y_l in [01]/1 reps, "
                             r"on y_s in [01]/1$", capsys.readouterr().out, re.MULTILINE)
        assert printed == [(r["setting"], r["variant"]) for r in table] * 3

    def test_paired_table_without_erm_is_its_header(self, cfg_path, tmp_path):
        out = tmp_path / "b"
        assert run_cli("benchmark", "--config", str(cfg_path), "--out", str(out),
                       "--set", "search.n_trials=0", "--set", 'benchmark.variants=["fond"]') == 0
        lines = (out / "paired.csv").read_text().splitlines()
        assert lines[0].startswith("# provenance: ")
        assert lines[1:] == [",".join(f.name for f in fields(evalsel.PairedRow))]

    def test_skipping_search_leaves_winner_empty(self, cfg_path, tmp_path):
        out = tmp_path / "nosearch"
        run_cli("benchmark", "--config", str(cfg_path), "--out", str(out),
                "--set", "search.n_trials=0")
        doc = json.loads((out / "benchmark.json").read_text())
        assert all(c["winner"] is None for c in doc["cells"])


class TestFailedWrites:
    """A write that fails removes its file: the lines written so far would
    read as a valid but shorter document or table."""

    def test_json_document_that_fails_leaves_no_file(self, tmp_path, full_disk):
        path = tmp_path / "doc.json"
        full_disk(10)
        with pytest.raises(OSError, match="No space left"):
            cli._write_json(path, {"a": list(range(20))})
        assert not path.exists()

    @pytest.mark.parametrize("command, overrides", [
        ("generate", []),
        ("split", []),
        ("train", []),
        ("search", []),
        ("benchmark", ["--set", "search.n_trials=0", "--set", "benchmark.reps=1"]),
    ])
    def test_command_whose_write_fails_exits_4(self, cfg_path, tmp_path, capsys, full_disk,
                                               command, overrides):
        out = tmp_path / "out"
        full_disk(10)
        code = run_cli(command, "--config", str(cfg_path), "--out", str(out), *overrides)
        assert code == cli.EXIT_IO
        err = capsys.readouterr().err.strip().splitlines()
        assert json.loads(err[-1])["error"] == "io"
        assert list(out.iterdir()) == []

    TRAIN_OUTPUTS = ["checkpoint_best.npz", "checkpoint_final.npz", "metrics.json", "run.json",
                     "trainlog.csv", "trainlog.jsonl"]

    def train_twice(self, cfg_path, tmp_path):
        """`fond train --seed 1` into ``tmp_path / "out"``, and `--seed 2`
        into ``tmp_path / "fresh"``; returns the two directories."""
        out, fresh = tmp_path / "out", tmp_path / "fresh"
        for seed, where in (("1", out), ("2", fresh)):
            assert run_cli("train", "--config", str(cfg_path), "--out", str(where),
                           "--seed", seed) == 0
        assert sorted(p.name for p in out.iterdir()) == self.TRAIN_OUTPUTS
        return out, fresh

    def test_failed_rerun_leaves_no_file_of_the_earlier_run(self, cfg_path, tmp_path, capsys,
                                                            monkeypatch):
        # the checkpoints held seed 2's model while run.json, metrics.json,
        # trainlog.jsonl and trainlog.csv still described seed 1's run
        out, fresh = self.train_twice(cfg_path, tmp_path)

        def full_disk(log, path):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(trainer.TrainLog, "write_jsonl", full_disk)
        capsys.readouterr()
        code = run_cli("train", "--config", str(cfg_path), "--out", str(out), "--seed", "2")
        assert code == cli.EXIT_IO
        assert json.loads(capsys.readouterr().err.splitlines()[-1])["error"] == "io"
        assert sorted(p.name for p in out.iterdir()) == self.TRAIN_OUTPUTS[:2]
        for name in self.TRAIN_OUTPUTS[:2]:
            assert networks.load_checkpoint(out / name).flat.tobytes() \
                == networks.load_checkpoint(fresh / name).flat.tobytes()

    def test_rerun_that_fails_before_writing_leaves_the_earlier_run(self, cfg_path, tmp_path,
                                                                   monkeypatch):
        out, _ = self.train_twice(cfg_path, tmp_path)
        before = {p.name: p.read_bytes() for p in out.iterdir()}

        def fail(*args, **kwargs):
            raise DegenerateInputError("cannot evaluate")

        monkeypatch.setattr(evalsel, "evaluate", fail)
        code = run_cli("train", "--config", str(cfg_path), "--out", str(out), "--seed", "2")
        assert code == cli.EXIT_NUMERIC
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before


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
