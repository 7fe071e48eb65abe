import ast
import math
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fond import cli, datagen, evalsel, losses, ndcore, networks, trainer
from fond.errors import ConfigError, ContractError, DegenerateInputError
from fond.seeding import rng_for
from summary_frozen import ref_aggregate, ref_pair_with_erm


def argmax_model(num_classes):
    """Identity features + identity readout: prediction = argmax of x."""
    cfg = networks.NetworkConfig(input_dim=num_classes, num_classes=num_classes,
                                 feature_dim=num_classes, projection_dim=2,
                                 identity_features=True, p_hidden=(8,))
    params = networks.init_params(cfg, 0)
    params.tensors()["g.w"][:] = np.eye(num_classes)
    params.tensors()["g.b"][:] = 0.0
    return params


def onehot_dataset(labels, correct_flags, num_classes, domains=None):
    labels = np.asarray(labels, dtype=np.int64)
    feats = np.zeros((len(labels), num_classes))
    for i, (c, ok) in enumerate(zip(labels, correct_flags)):
        feats[i, c if ok else (c + 1) % num_classes] = 1.0
    if domains is None:
        domains = np.zeros(len(labels), dtype=np.int64)
    return datagen.Dataset(features=feats, labels=labels,
                           domains=np.asarray(domains, dtype=np.int64),
                           ids=np.arange(len(labels)))


class TestEvaluate:
    def setup_method(self):
        self.plan = datagen.make_split_plan(range(4), 4, 0, "low", 3)
        self.params = argmax_model(4)

    def test_hand_oracle(self):
        labels = [0, 0, 1, 1, 1, 1, 2, 3, 3, 3]
        flags = [1, 0, 1, 1, 1, 0, 1, 0, 0, 0]
        report = evalsel.evaluate(self.params, onehot_dataset(labels, flags, 4),
                                  self.plan)
        per_class = {0: 0.5, 1: 0.75, 2: 1.0, 3: 0.0}
        assert report.per_class_accuracy == per_class
        assert report.counts == {0: 2, 1: 4, 2: 1, 3: 3}
        assert report.overall_accuracy == 0.5
        expected_l = np.mean([per_class[c] for c in sorted(self.plan.linked_classes)])
        expected_s = np.mean([per_class[c] for c in sorted(self.plan.shared_classes)])
        assert report.y_l_accuracy == expected_l
        assert report.y_s_accuracy == expected_s
        assert report.excluded_classes == ()

    def test_per_class_bits_match_masked_mean(self):
        # quotients such as 1/3 and 2/7 round, so these pin the bits of each
        # class accuracy, not just its value to a tolerance; class 3 of 6 is
        # absent from every draw
        plan = datagen.make_split_plan(range(6), 4, 0, "low", 3)
        params = argmax_model(6)
        rng = np.random.default_rng(25)
        for draw in range(20):
            if draw == 0:   # 1/3, 2/7, 3/5, 4/9, 5/11
                sizes, hits = np.array([3, 7, 5, 0, 9, 11]), np.array([1, 2, 3, 0, 4, 5])
            else:
                sizes = rng.integers(1, 16, size=6)
                sizes[3] = 0
                hits = rng.integers(0, sizes + 1)
            labels = np.repeat(np.arange(6), sizes)
            flags = np.concatenate([np.arange(n) < h for n, h in zip(sizes, hits)])
            perm = rng.permutation(len(labels))
            labels, flags = labels[perm], flags[perm]
            report = evalsel.evaluate(params, onehot_dataset(labels, flags, 6), plan)
            present = [c for c in range(6) if (labels == c).any()]
            assert {c: v.hex() for c, v in report.per_class_accuracy.items()} == {
                c: float(flags[labels == c].mean()).hex() for c in present}
            assert report.counts == {c: int((labels == c).sum()) for c in present}
            assert report.excluded_classes == (3,)
            if draw == 0:
                assert report.per_class_accuracy[0] == 1 / 3
                assert report.per_class_accuracy[1] == 2 / 7

    def test_group_mean_is_class_averaged_not_sample_averaged(self):
        # class 0: 1/1 correct, class 1: 0/9 correct; sample mean is 0.1
        # but each class contributes equally to its group mean
        labels = [0] + [1] * 9
        flags = [1] + [0] * 9
        report = evalsel.evaluate(self.params, onehot_dataset(labels, flags, 4),
                                  self.plan)
        assert abs(report.overall_accuracy - 0.1) < 1e-15
        per = {0: 1.0, 1: 0.0}
        for group, value in ((self.plan.linked_classes, report.y_l_accuracy),
                             (self.plan.shared_classes, report.y_s_accuracy)):
            members = [per[c] for c in sorted(group) if c in per]
            if members:
                assert value == np.mean(members)
            else:
                assert value is None

    def test_argmax_ties_pick_lowest_class(self):
        ds = datagen.Dataset(features=np.zeros((2, 4)),
                             labels=np.array([0, 2]), domains=np.zeros(2, dtype=np.int64),
                             ids=np.arange(2))
        preds = evalsel.predict(self.params, ds.features)
        assert preds.tolist() == [0, 0]

    def test_missing_class_is_excluded_from_group_mean(self):
        linked = sorted(self.plan.linked_classes)
        keep = linked[0]
        labels = [keep, keep] + sorted(self.plan.shared_classes)
        flags = [1, 0] + [1] * len(self.plan.shared_classes)
        report = evalsel.evaluate(self.params, onehot_dataset(labels, flags, 4),
                                  self.plan)
        assert set(report.excluded_classes) == set(linked[1:])
        assert report.y_l_accuracy == 0.5

    def test_no_linked_samples_gives_none(self):
        labels = sorted(self.plan.shared_classes)
        report = evalsel.evaluate(self.params,
                                  onehot_dataset(labels, [1] * len(labels), 4),
                                  self.plan)
        assert report.y_l_accuracy is None
        assert report.y_s_accuracy == 1.0

    def test_row_order_invariance(self):
        labels = [0, 1, 2, 3, 1, 0]
        flags = [1, 0, 1, 1, 1, 0]
        ds = onehot_dataset(labels, flags, 4)
        perm = np.random.default_rng(5).permutation(len(labels))
        shuffled = ds.subset(perm)
        a = evalsel.evaluate(self.params, ds, self.plan)
        b = evalsel.evaluate(self.params, shuffled, self.plan)
        assert a.per_class_accuracy == b.per_class_accuracy
        assert a.overall_accuracy == b.overall_accuracy

    def test_empty_set_rejected(self):
        ds = onehot_dataset([0], [1], 4).subset(np.array([], dtype=np.int64))
        with pytest.raises(DegenerateInputError):
            evalsel.evaluate(self.params, ds, self.plan)

    def test_score_takes_one_prediction_per_row(self):
        ds = onehot_dataset([0, 1, 2, 3, 1, 0], [1] * 6, 4)
        predicted = evalsel.predict(self.params, ds.features)
        assert evalsel.score(predicted, ds, self.plan).overall_accuracy == 1.0
        for wrong in (predicted[:5], np.append(predicted, 0)):
            with pytest.raises(ContractError, match=f"{len(wrong)} predictions for 6 rows"):
                evalsel.score(wrong, ds, self.plan)
        with pytest.raises(DegenerateInputError, match="empty set"):
            evalsel.score(predicted[:0], ds.subset(np.array([], dtype=np.int64)), self.plan)

    def test_label_outside_plan_rejected(self):
        ds = datagen.Dataset(features=np.zeros((1, 4)), labels=np.array([7]),
                             domains=np.zeros(1, dtype=np.int64), ids=np.arange(1))
        with pytest.raises(ContractError):
            evalsel.evaluate(self.params, ds, self.plan)

    def test_dump_rejects_label_outside_plan(self, tmp_path):
        # a class the plan lacks was written with group "shared"
        ds = datagen.Dataset(features=np.zeros((2, 4)), labels=np.array([0, 7]),
                             domains=np.zeros(2, dtype=np.int64), ids=np.arange(2))
        path = tmp_path / "emb.csv"
        with pytest.raises(ContractError, match=r"labels \[7\] are not in the plan"):
            evalsel.dump_embeddings(self.params, ds, self.plan, path)
        assert not path.exists()


class TestHyperSpace:
    def test_samples_respect_bounds(self):
        space = evalsel.HyperSpace()
        rng = rng_for(0)
        for _ in range(200):
            draw = space.sample(rng)
            names = [f.name for f in fields(space)]
            assert list(draw) == names
            for name in names:
                lo, hi = getattr(space, name)
                assert lo <= draw[name] <= hi, name

    def test_deterministic_sequence(self):
        space = evalsel.HyperSpace()
        seq1 = [space.sample(rng_for(9)) for _ in range(1)]
        rng = rng_for(9)
        seq2 = [space.sample(rng)]
        assert seq1 == seq2

    def test_log_uniform_fields_spread_over_decades(self):
        space = evalsel.HyperSpace(learning_rate=(1e-5, 1e-1))
        rng = rng_for(1)
        draws = [space.sample(rng)["learning_rate"] for _ in range(400)]
        logs = np.log10(draws)
        assert logs.min() < -4 and logs.max() > -2

    def test_invalid_ranges_rejected(self):
        with pytest.raises(ConfigError):
            evalsel.HyperSpace(a=(3.0, 1.0))
        with pytest.raises(ConfigError):
            evalsel.HyperSpace(temperature=(0.0, 0.5))

    @pytest.mark.parametrize("name, bad", [
        ("lambda_xdom", (-0.1, 1.0)), ("lambda_fair", (-1.0, -0.5)),
        ("a", (0.8, 1.6)), ("b", (0.0, 2.0)),
        ("dropout", (-0.1, 0.2)), ("dropout", (0.2, 1.0)),
        ("lambda_xdom", (0.0, float("inf"))), ("a", (float("nan"), 2.0))])
    def test_range_its_config_rejects_fails_at_load(self, name, bad):
        # such a range failed only when a draw landed outside the config's
        # bounds, so whether a search ran depended on its seed
        with pytest.raises(ConfigError, match=name):
            evalsel.HyperSpace(**{name: bad})

    def test_edge_ranges_draw_values_their_configs_accept(self):
        space = evalsel.HyperSpace(lambda_xdom=(0.0, 0.0), lambda_fair=(0.0, 1.0),
                                   a=(1.0, 1.0), b=(1.0, 1.5), dropout=(0.0, 0.99))
        rng = rng_for(3)
        for _ in range(50):
            evalsel.apply_hyper(losses.LossConfig(), trainer.TrainerConfig(),
                                space.sample(rng))

    def test_point_range_is_constant(self):
        space = evalsel.HyperSpace(b=(2.5, 2.5))
        assert space.sample(rng_for(2))["b"] == 2.5
        # log-uniform fields too: exp(log(x)) is not always x
        space = evalsel.HyperSpace(learning_rate=(1e-3, 1e-3), temperature=(0.1, 0.1))
        draw = space.sample(rng_for(2))
        assert (draw["learning_rate"], draw["temperature"]) == (1e-3, 0.1)


class TestApplyHyper:
    def test_routing(self):
        loss_cfg = losses.LossConfig()
        trainer_cfg = trainer.TrainerConfig()
        hyper = {"learning_rate": 0.005, "lambda_xdom": 0.7, "lambda_fair": 0.2,
                 "temperature": 0.3, "a": 2.0, "b": 3.0, "dropout": 0.25}
        new_loss, new_trainer = evalsel.apply_hyper(loss_cfg, trainer_cfg, hyper)
        assert new_loss.lambda_xdom == 0.7 and new_loss.temperature == 0.3
        assert new_loss.a == 2.0 and new_loss.b == 3.0 and new_loss.lambda_fair == 0.2
        assert new_trainer.learning_rate == 0.005 and new_trainer.dropout == 0.25
        assert loss_cfg.lambda_xdom == 0.0 and trainer_cfg.dropout == 0.0

    def test_partial_dict_leaves_rest_alone(self):
        new_loss, new_trainer = evalsel.apply_hyper(
            losses.LossConfig(), trainer.TrainerConfig(), {"a": 1.5})
        assert new_loss.a == 1.5
        assert new_trainer == trainer.TrainerConfig()

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="weight_decay"):
            evalsel.apply_hyper(losses.LossConfig(), trainer.TrainerConfig(),
                                {"weight_decay": 0.1})


def tiny_problem(seed=0):
    spec = datagen.SyntheticSpec(num_classes=4, input_dim=6, num_domains=4,
                                 transform_family="affine", shift=0.3,
                                 noise_std=0.05, samples_per_cell=6)
    ds = datagen.generate_synthetic(spec, seed)
    plan = datagen.make_split_plan(range(4), 4, 0, "low", seed + 1)
    net_cfg = networks.NetworkConfig(input_dim=6, num_classes=4, feature_dim=8,
                                     projection_dim=4, f_hidden=(12,), p_hidden=(16,))
    return ds, plan, net_cfg


class TestTrainingDomainValidation:
    def scripted_runner(self, scores, trace=None):
        def runner(held_out_domain, train_set, val_set, eval_set, plan, net_cfg,
                   loss_cfg, trainer_cfg, fold_seed):
            if trace is not None:
                trace.append(dict(domain=held_out_domain, fold_seed=fold_seed,
                                  train_ids=train_set.ids.tolist(),
                                  val_ids=val_set.ids.tolist(),
                                  train_domains=set(train_set.domains.tolist()),
                                  eval_domains=set(eval_set.domains.tolist()),
                                  eval_classes=eval_set.class_set()))
            score = scores[held_out_domain]
            return evalsel.MetricsReport(per_class_accuracy={}, counts={},
                                         y_l_accuracy=score, y_s_accuracy=None,
                                         overall_accuracy=0.0, excluded_classes=())
        return runner

    def test_mean_over_fold_scores(self):
        ds, plan, net_cfg = tiny_problem()
        sources = sorted(plan.source_domains)
        scores = dict(zip(sources, [0.2, 0.4, 0.6]))
        trace = []
        result = evalsel.training_domain_validation(
            ds, plan, net_cfg, losses.LossConfig(), trainer.TrainerConfig(),
            seed=0, fold_runner=self.scripted_runner(scores, trace))
        assert result.score == pytest.approx(0.4, abs=1e-15)
        assert [rec["domain"] for rec in trace] == sources

    def test_none_folds_are_excluded(self):
        ds, plan, net_cfg = tiny_problem()
        sources = sorted(plan.source_domains)
        scores = dict(zip(sources, [None, 0.4, 0.8]))
        trace = []
        result = evalsel.training_domain_validation(
            ds, plan, net_cfg, losses.LossConfig(), trainer.TrainerConfig(),
            seed=0, fold_runner=self.scripted_runner(scores, trace))
        # the None fold still trains, but its score is left out of the mean
        assert [rec["domain"] for rec in trace] == sources
        assert result.score == pytest.approx(0.6, abs=1e-15)

    def test_all_folds_excluded_gives_none(self):
        ds, plan, net_cfg = tiny_problem()
        scores = {s: None for s in plan.source_domains}
        result = evalsel.training_domain_validation(
            ds, plan, net_cfg, losses.LossConfig(), trainer.TrainerConfig(),
            seed=0, fold_runner=self.scripted_runner(scores))
        assert result.score is None

    def test_fold_data_discipline(self):
        ds, plan, net_cfg = tiny_problem()
        trace = []
        scores = {s: 0.5 for s in plan.source_domains}
        evalsel.training_domain_validation(
            ds, plan, net_cfg, losses.LossConfig(), trainer.TrainerConfig(),
            seed=3, fold_runner=self.scripted_runner(scores, trace))
        for rec in trace:
            s_star = rec["domain"]
            assert s_star not in rec["train_domains"]
            assert rec["eval_domains"] == {s_star}
            # held-out evaluation keeps the domain's full class coverage
            assert rec["eval_classes"] == set(plan.classes)
            assert not set(rec["train_ids"]) & set(rec["val_ids"])

    def test_split_fixed_by_seed_not_hyperparameters(self):
        ds, plan, net_cfg = tiny_problem()
        traces = []
        for lam in (0.0, 1.5):
            trace = []
            scores = {s: 0.5 for s in plan.source_domains}
            evalsel.training_domain_validation(
                ds, plan, net_cfg, losses.LossConfig(lambda_xdom=lam),
                trainer.TrainerConfig(), seed=4,
                fold_runner=self.scripted_runner(scores, trace))
            traces.append(trace)
        for rec_a, rec_b in zip(*traces):
            assert rec_a["train_ids"] == rec_b["train_ids"]
            assert rec_a["val_ids"] == rec_b["val_ids"]
            assert rec_a["fold_seed"] == rec_b["fold_seed"]

    def test_seed_changes_folds(self):
        ds, plan, net_cfg = tiny_problem()
        seeds = []
        for seed in (0, 1):
            trace = []
            scores = {s: 0.5 for s in plan.source_domains}
            evalsel.training_domain_validation(
                ds, plan, net_cfg, losses.LossConfig(), trainer.TrainerConfig(),
                seed=seed, fold_runner=self.scripted_runner(scores, trace))
            seeds.append([rec["fold_seed"] for rec in trace])
        assert seeds[0] != seeds[1]

    def test_real_folds_run_end_to_end(self):
        ds, plan, net_cfg = tiny_problem()
        cfg = trainer.TrainerConfig(max_steps=6, eval_every=3, batch_size=8,
                                    seed=0, learning_rate=0.01)
        held_out = []

        def runner(held_out_domain, *args):
            held_out.append(held_out_domain)
            return cli.train_fold(held_out_domain, *args)

        result = evalsel.training_domain_validation(
            ds, plan, net_cfg, losses.LossConfig(lambda_xdom=0.1), cfg, seed=0,
            fold_runner=runner)
        assert held_out == sorted(plan.source_domains)
        if result.score is not None:
            assert 0.0 <= result.score <= 1.0


class TestModuleLayers:
    """evalsel scores models but never trains them, so the package imports
    run one way: evalsel below trainer, and trainer below cli."""

    SRC = Path(evalsel.__file__).resolve().parent

    def imports(self, node):
        return [n for n in ast.walk(node) if isinstance(n, (ast.Import, ast.ImportFrom))]

    def test_evalsel_imports_nothing_from_trainer(self):
        tree = ast.parse((self.SRC / "evalsel.py").read_text())
        for node in self.imports(tree):
            names = [a.name for a in node.names]
            if isinstance(node, ast.ImportFrom):
                names.append(node.module or "")
            assert not any(name.split(".")[-1] == "trainer" for name in names), \
                ast.unparse(node)

    def test_trainer_imports_only_at_module_level(self):
        tree = ast.parse((self.SRC / "trainer.py").read_text())
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                assert not self.imports(fn), fn.name

    # ndcore's kernels check nothing: each may be named only in ndcore and
    # in the one module that checks its inputs where they enter
    KERNEL_USERS = {"affine_forward": "networks", "affine_backward": "networks",
                    "relu_forward": "networks", "relu_backward": "networks",
                    "l2_normalize_backward": "networks", "softmax_forward": "losses"}

    def test_unchecked_kernels_stay_behind_their_boundary(self):
        for path in sorted(self.SRC.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                name = (node.attr if isinstance(node, ast.Attribute)
                        else node.id if isinstance(node, ast.Name)
                        else node.name.split(".")[-1] if isinstance(node, ast.alias)
                        else None)
                if name in self.KERNEL_USERS:
                    assert path.stem in ("ndcore", self.KERNEL_USERS[name]), \
                        f"{path.name} names ndcore.{name}"


class TestRandomSearch:
    def test_scripted_argmax_earliest_tie(self):
        scores = iter([0.1, 0.5, 0.3, 0.5, 0.2])
        result = evalsel.random_search(evalsel.HyperSpace(), 5, 0,
                                       lambda h: next(scores))
        assert result.best_index == 1
        assert result.best_score == 0.5
        assert [t.score for t in result.trials] == [0.1, 0.5, 0.3, 0.5, 0.2]

    def test_none_never_wins(self):
        scores = iter([None, 0.3, None])
        result = evalsel.random_search(evalsel.HyperSpace(), 3, 0,
                                       lambda h: next(scores))
        assert result.best_index == 1 and result.best_score == 0.3

    def test_all_none_returns_first_trial(self):
        result = evalsel.random_search(evalsel.HyperSpace(), 3, 0, lambda h: None)
        assert result.best_index == 0 and result.best_score is None

    def test_single_trial(self):
        result = evalsel.random_search(evalsel.HyperSpace(), 1, 7, lambda h: 0.4)
        assert result.best_index == 0 and len(result.trials) == 1

    def test_deterministic_draws(self):
        seen = []
        evalsel.random_search(evalsel.HyperSpace(), 4, 11,
                              lambda h: seen.append(dict(h)) or 0.0)
        seen2 = []
        evalsel.random_search(evalsel.HyperSpace(), 4, 11,
                              lambda h: seen2.append(dict(h)) or 0.0)
        assert seen == seen2
        assert seen[0] != seen[1]

    def test_invalid_trial_count(self):
        with pytest.raises(ConfigError):
            evalsel.random_search(evalsel.HyperSpace(), 0, 0, lambda h: 0.0)


class TestAggregation:
    def rows(self, y_l_values, variant="fond"):
        return [evalsel.ResultRow(dataset="synthetic", setting="high",
                                  variant=variant, rep=i, y_l_accuracy=v,
                                  y_s_accuracy=0.5)
                for i, v in enumerate(y_l_values)]

    def test_mean_and_se_identities(self):
        assert evalsel.mean_and_se([0.5, 0.5, 0.5]) == (0.5, 0.0)
        mean, se = evalsel.mean_and_se([0.4, 0.5, 0.6])
        assert abs(mean - 0.5) < 1e-15
        assert abs(se - 0.1 / math.sqrt(3)) < 1e-12
        assert evalsel.mean_and_se([0.7]) == (0.7, None)
        assert evalsel.mean_and_se([]) == (None, None)

    def test_aggregate_groups_and_sorts(self):
        rows = self.rows([0.4, 0.5, 0.6], "fond") + self.rows([0.2, 0.2], "erm")
        agg = evalsel.aggregate(rows)
        assert [a.variant for a in agg] == ["erm", "fond"]
        fond = agg[1]
        assert fond.reps == 3
        assert abs(fond.y_l_mean - 0.5) < 1e-15
        assert abs(fond.y_l_se - 0.1 / math.sqrt(3)) < 1e-12
        assert agg[0].y_l_se == 0.0

    def test_aggregate_skips_none_scores(self):
        rows = self.rows([0.4, None, 0.6])
        agg = evalsel.aggregate(rows)
        assert agg[0].reps == 3
        assert abs(agg[0].y_l_mean - 0.5) < 1e-15

    def test_single_rep_has_no_se(self):
        agg = evalsel.aggregate(self.rows([0.9]))
        assert agg[0].y_l_mean == 0.9 and agg[0].y_l_se is None

    def test_pairing_with_erm_per_rep(self):
        rows = (self.rows([0.5, 0.75, None, 0.25], "fond")
                + self.rows([0.25, 0.75, 0.5], "erm")          # no rep 3: fond's goes unpaired
                + self.rows([0.5], "supcon")
                + [replace(r, setting="low") for r in self.rows([0.5], "fond")])
        assert [(p.setting, p.variant) for p in evalsel.pair_with_erm(rows)] \
            == [("high", "fond"), ("high", "supcon")]        # low has no erm row
        fond, supcon = evalsel.pair_with_erm(rows)
        assert fond.reps == 3
        # y_l: rep 2's None is skipped; rep 1's tie is not a win
        assert (fond.y_l_diff_mean, fond.y_l_wins) == (0.125, 1)
        assert fond.y_l_diff_se == pytest.approx(0.125)
        # y_s ties in every rep
        assert (fond.y_s_diff_mean, fond.y_s_diff_se, fond.y_s_wins) == (0.0, 0.0, 0)
        assert (supcon.reps, supcon.y_l_diff_mean, supcon.y_l_diff_se, supcon.y_l_wins) \
            == (1, 0.25, None, 1)
        assert evalsel.pair_with_erm([r for r in rows if r.variant != "erm"]) == []

    # scores with ties (the sampled values) and Nones on either side of a pair
    SCORE = st.one_of(st.none(), st.sampled_from([0.0, 0.25, 0.5, 1.0]), st.floats(0.0, 1.0))

    @settings(max_examples=300, deadline=None)
    @given(cells=st.lists(st.tuples(st.sampled_from(["desk", "synthetic"]),
                                    st.sampled_from(["high", "low"]),
                                    st.sampled_from(["erm", "fond", "supcon"]),
                                    st.integers(0, 4), SCORE, SCORE),
                          unique_by=lambda cell: cell[:4], max_size=40),
           no_erm=st.sets(st.sampled_from(["high", "low"])))
    def test_tables_match_the_frozen_reference(self, cells, no_erm):
        # two datasets and two settings, in any input order, erm dropped from
        # the settings in ``no_erm`` and reps missing at random; rows compare
        # field by field, so floats by ==
        rows = [evalsel.ResultRow(*cell) for cell in cells
                if not (cell[2] == "erm" and cell[1] in no_erm)]
        assert evalsel.aggregate(rows) == ref_aggregate(rows)
        assert evalsel.pair_with_erm(rows) == ref_pair_with_erm(rows)


class TestCsvWriters:
    def test_results_csv_layout_and_determinism(self, tmp_path):
        rows = [evalsel.ResultRow(dataset="synthetic", setting="low", variant="erm",
                                  rep=1, y_l_accuracy=0.25, y_s_accuracy=0.75,
                                  per_class={0: 1.0, 2: 0.5}),
                evalsel.ResultRow(dataset="synthetic", setting="low", variant="erm",
                                  rep=0, y_l_accuracy=None, y_s_accuracy=0.5,
                                  per_class={1: 0.25})]
        path = tmp_path / "results.csv"
        evalsel.write_results_csv(rows, path, provenance={"seed": 3})
        text = path.read_text()
        lines = text.splitlines()
        assert lines[0] == '# provenance: {"seed": 3}'
        assert lines[1].split(",") == ["dataset", "setting", "variant", "rep",
                                       "y_l_acc", "y_s_acc", "acc_class_0",
                                       "acc_class_1", "acc_class_2"]
        assert lines[2].split(",")[3] == "0"  # sorted by rep
        assert lines[2].split(",")[4] == ""   # None renders empty
        evalsel.write_results_csv(rows, path, provenance={"seed": 3})
        assert path.read_text() == text

    def test_aggregate_csv_layout(self, tmp_path):
        rows = [evalsel.AggregateRow(dataset="synthetic", setting="high",
                                     variant="fond", reps=3, y_l_mean=0.5,
                                     y_l_se=0.05, y_s_mean=0.8, y_s_se=None)]
        path = tmp_path / "aggregate.csv"
        evalsel.write_variant_table(evalsel.AggregateRow, rows, path)
        lines = path.read_text().splitlines()
        assert lines[0].split(",") == ["dataset", "setting", "variant", "reps",
                                       "y_l_mean", "y_l_se", "y_s_mean", "y_s_se"]
        assert lines[1] == "synthetic,high,fond,3,0.5,0.05,0.8,"


class TestDumpEmbeddings:
    def test_rows_match_recomputed_features(self, tmp_path):
        ds, plan, net_cfg = tiny_problem()
        params = networks.init_params(net_cfg, 2)
        path = tmp_path / "emb.csv"
        evalsel.dump_embeddings(params, ds, plan, path)
        lines = path.read_text().splitlines()
        assert len(lines) == len(ds) + 1
        assert lines[0].startswith("id,domain,label,group,h_0")
        t = params.tensors()
        h = ds.features
        for i in range(len(net_cfg.f_layer_dims())):
            h = (np.maximum(h, 0.0) if i else h) @ t[f"f.w{i}"] + t[f"f.b{i}"]
        linked = plan.linked_classes
        for i in (0, len(ds) // 2, len(ds) - 1):
            cells = lines[i + 1].split(",")
            assert int(cells[0]) == ds.ids[i]
            assert cells[3] == ("linked" if ds.labels[i] in linked else "shared")
            assert np.array_equal(np.array([float(v) for v in cells[4:]]), h[i])

    def test_rerun_is_byte_identical(self, tmp_path):
        ds, plan, net_cfg = tiny_problem()
        params = networks.init_params(net_cfg, 2)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        evalsel.dump_embeddings(params, ds, plan, a)
        evalsel.dump_embeddings(params, ds, plan, b)
        assert a.read_bytes() == b.read_bytes()


def block_problem(n, seed=0):
    """n random rows, five classes, and a model with a hidden F layer."""
    rng = np.random.default_rng(seed)
    ds = datagen.Dataset(features=rng.normal(size=(n, 12)), labels=rng.integers(0, 5, n),
                         domains=rng.integers(0, 4, n), ids=np.arange(n) * 3 + 1)
    plan = datagen.make_split_plan(range(5), 4, 0, "low", seed)
    net_cfg = networks.NetworkConfig(input_dim=12, num_classes=5, feature_dim=16,
                                     projection_dim=4, f_hidden=(32,), p_hidden=(8,))
    return networks.init_params(net_cfg, seed + 1), ds, plan


def whole_matrix_embeddings(params, ds, plan) -> bytes:
    """embeddings.csv as written from one forward pass over every row."""
    h = networks.forward_pass(params, ds.features, project=False).h
    lines = ["id,domain,label,group," + ",".join(f"h_{j}" for j in range(h.shape[1]))]
    for i in range(len(ds)):
        group = "linked" if ds.labels[i] in plan.linked_classes else "shared"
        lines.append(f"{ds.ids[i]},{ds.domains[i]},{ds.labels[i]},{group},"
                     + ",".join(repr(float(v)) for v in h[i]))
    return ("\n".join(lines) + "\n").encode()


class TestRowBlocks:
    @pytest.mark.parametrize("n", [1, 2, evalsel.INFER_ROWS - 1, evalsel.INFER_ROWS,
                                   evalsel.INFER_ROWS + 1, 2 * evalsel.INFER_ROWS + 1])
    def test_blocked_inference_matches_whole_matrix_bytes(self, n, tmp_path):
        # a 1-row block would take BLAS's matrix-vector path and change
        # the bits of h and logits, so the INFER_ROWS + 1 cases catch a
        # 1-row tail that is not folded into the block before it
        params, ds, plan = block_problem(n)
        whole = networks.forward_pass(params, ds.features, project=False)
        blocks = list(evalsel._row_blocks(params, ds.features, "logits"))
        sizes = [rows.stop - rows.start for rows, _ in blocks]
        assert sum(sizes) == n and max(sizes) <= evalsel.INFER_ROWS + 1
        assert n == 1 or min(sizes) > 1
        logits = np.concatenate([block for _, block in blocks])
        assert logits.tobytes() == whole.logits.tobytes()
        assert np.array_equal(evalsel.predict(params, ds.features),
                              np.argmax(whole.logits, axis=1))
        path = tmp_path / "emb.csv"
        evalsel.dump_embeddings(params, ds, plan, path)
        assert path.read_bytes() == whole_matrix_embeddings(params, ds, plan)

    def test_score_of_predictions_is_evaluate(self):
        # 2 * INFER_ROWS + 1 rows end in a block that holds the joined 1-row tail
        params, ds, plan = block_problem(2 * evalsel.INFER_ROWS + 1)
        logits = evalsel.logits(params, ds.features)
        predicted = evalsel.predict(params, ds.features)
        assert logits.shape == (len(ds), 5)
        assert predicted.tobytes() == np.argmax(logits, axis=1).tobytes()
        scored = evalsel.score(predicted, ds, plan)
        evaluated = evalsel.evaluate(params, ds, plan)
        for f in fields(evalsel.MetricsReport):
            assert repr(getattr(scored, f.name)) == repr(getattr(evaluated, f.name)), f.name
        # any read-out's predictions are scored, here a constant one
        assert evalsel.score([0] * len(ds), ds, plan).per_class_accuracy[0] == 1.0

    def test_dump_peak_memory_does_not_grow_with_rows(self, tmp_path):
        peaks = []
        for n in (evalsel.INFER_ROWS, 8 * evalsel.INFER_ROWS):
            params, ds, plan = block_problem(n)
            tracemalloc.start()
            try:
                evalsel.dump_embeddings(params, ds, plan, tmp_path / f"{n}.csv")
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.5 * peaks[0], peaks

    def test_overflowing_activations_raise(self, tmp_path):
        # every parameter is finite, but h and the logits overflow; no
        # loss sees an inference pass, so it must not report a class
        params, ds, plan = block_problem(5)
        params.flat *= 1e200
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DegenerateInputError, match="inference logits"):
                evalsel.predict(params, ds.features)
            with pytest.raises(DegenerateInputError, match="inference h"):
                evalsel.dump_embeddings(params, ds, plan, tmp_path / "emb.csv")

    def test_inference_runs_no_softmax(self, monkeypatch, tmp_path):
        params, ds, plan = block_problem(50)

        def no_softmax(logits):
            raise AssertionError("inference computed a softmax")

        monkeypatch.setattr(ndcore, "softmax_forward", no_softmax)
        report = evalsel.evaluate(params, ds, plan)
        assert 0.0 <= report.overall_accuracy <= 1.0
        evalsel.dump_embeddings(params, ds, plan, tmp_path / "emb.csv")
