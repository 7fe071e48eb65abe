import gc
import json
import os
import pickle
import re
import subprocess
import sys
import weakref
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
        cfg = config.config_from_dict({"network": {"f_hidden": [8, 4]},
                                       "benchmark": {"settings": ["low", 2]},
                                       "search": {"space": space}})
        assert cfg.network.f_hidden == (8, 4)
        assert cfg.benchmark.settings == ("low", 2)
        for name in evalsel.HyperSpace._ORDER:
            assert getattr(cfg.search.space, name) == (0.1, 0.2), name

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

    def test_import_leaves_out_the_process_pool(self):
        proc = run_python("-c", "import json, sys, fond.cli; print(json.dumps(list(sys.modules)))")
        assert proc.returncode == 0, proc.stderr
        loaded = set(json.loads(proc.stdout))
        assert "fond.cli" in loaded
        assert not loaded & {"concurrent.futures", "multiprocessing"}

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
        # 3 search folds train from the dataset and the search's own pool,
        # then the final training runs after both and the cell's pool are freed
        assert len(reachable_at_train) == 4
        assert reachable_at_train[0] == [True, True]
        assert reachable_at_train[-1] == [False, False, False]


@pytest.mark.parametrize("jobs, cells, cpus, want", [
    (1, 10, 4, 1), (8, 10, 4, 4), (8, 3, 4, 3), (3, 10, None, 1),
    (0, 10, 4, 1), (-2, 5, 4, 1), (10**6, 2, 64, 2), (5, 0, 4, 1)])
def test_worker_count_clamps_jobs(jobs, cells, cpus, want):
    assert cli.worker_count(jobs, cells, cpus) == want


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
