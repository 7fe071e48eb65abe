import json
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fond import datagen, losses, networks, trainer
from fond.errors import (ConfigError, ContractError, DegenerateInputError, NonFiniteLossError,
                         ShapeError)
from fond.seeding import subseed

from optim_frozen import RefOptState, ref_grad_norm, ref_optimizer_step


def make_setup(seed=0, num_classes=4, num_domains=4, input_dim=8,
               samples_per_cell=8, setting="low"):
    spec = datagen.SyntheticSpec(num_classes=num_classes, input_dim=input_dim,
                                 num_domains=num_domains, transform_family="affine",
                                 shift=0.3, noise_std=0.05,
                                 samples_per_cell=samples_per_cell)
    ds = datagen.generate_synthetic(spec, subseed(seed, "data"))
    plan = datagen.make_split_plan(range(num_classes), num_domains, 0, setting,
                                   subseed(seed, "plan"))
    pool, target = datagen.apply_split(ds, plan)
    net_cfg = networks.NetworkConfig(input_dim=input_dim, num_classes=num_classes,
                                     feature_dim=12, projection_dim=6,
                                     f_hidden=(16,), p_hidden=(16,))
    return pool, target, plan, net_cfg


def default_loss():
    return losses.LossConfig(temperature=0.2, a=2.0, b=2.0, lambda_xdom=0.5,
                             lambda_fair=0.3, variant="fond")


class TestTrainerConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            trainer.TrainerConfig(learning_rate=0.0)
        with pytest.raises(ConfigError):
            trainer.TrainerConfig(batch_size=1)
        with pytest.raises(ConfigError):
            trainer.TrainerConfig(max_steps=5, eval_every=10)
        with pytest.raises(ConfigError):
            trainer.TrainerConfig(dropout=1.0)
        with pytest.raises(ConfigError):
            trainer.TrainerConfig(optimizer="rmsprop")
        with pytest.raises(ConfigError):
            trainer.TrainerConfig(selection_metric="loss")

    def test_nonfinite_hyperparameters_rejected(self):
        for field_name in ("learning_rate", "momentum", "adam_beta1", "adam_beta2",
                           "adam_eps"):
            for bad in (float("nan"), float("inf"), -float("inf")):
                with pytest.raises(ConfigError, match=field_name):
                    trainer.TrainerConfig(**{field_name: bad})


class TestOptimizerStep:
    def params(self):
        cfg = networks.NetworkConfig(input_dim=2, num_classes=3, feature_dim=2,
                                     projection_dim=2, f_hidden=(), p_hidden=())
        return networks.init_params(cfg, 0)

    def test_zero_gradient_is_noop(self):
        for opt in trainer.OPTIMIZERS:
            params = self.params()
            before = {k: v.copy() for k, v in params.tensors().items()}
            grads = {k: np.zeros_like(v) for k, v in params.tensors().items()}
            trainer.optimizer_step(params, grads, trainer.OptState(),
                                   trainer.TrainerConfig(optimizer=opt))
            for k, v in params.tensors().items():
                assert np.array_equal(v, before[k]), (opt, k)

    def test_sgd_unit_rate_with_self_gradient_zeroes(self):
        params = self.params()
        grads = {k: v.copy() for k, v in params.tensors().items()}
        cfg = trainer.TrainerConfig(optimizer="sgd", learning_rate=1.0)
        trainer.optimizer_step(params, grads, trainer.OptState(), cfg)
        for v in params.tensors().values():
            assert not v.any()

    def test_adam_first_step_closed_form(self):
        # after one step: mhat = g, vhat = g^2, so delta = -lr*g/(|g|+eps)
        params = self.params()
        rng = np.random.default_rng(3)
        before = {k: v.copy() for k, v in params.tensors().items()}
        grads = {k: rng.normal(size=v.shape) for k, v in params.tensors().items()}
        cfg = trainer.TrainerConfig(optimizer="adam", learning_rate=0.01)
        trainer.optimizer_step(params, grads, trainer.OptState(), cfg)
        for k, v in params.tensors().items():
            g = grads[k]
            expected = before[k] - 0.01 * g / (np.abs(g) + cfg.adam_eps)
            assert np.abs(v - expected).max() < 1e-12, k

    def test_momentum_two_steps_hand_computed(self):
        params = self.params()
        before = {k: v.copy() for k, v in params.tensors().items()}
        rng = np.random.default_rng(4)
        g1 = {k: rng.normal(size=v.shape) for k, v in params.tensors().items()}
        g2 = {k: rng.normal(size=v.shape) for k, v in params.tensors().items()}
        cfg = trainer.TrainerConfig(optimizer="momentum", learning_rate=0.1,
                                    momentum=0.5)
        state = trainer.OptState()
        trainer.optimizer_step(params, g1, state, cfg)
        trainer.optimizer_step(params, g2, state, cfg)
        assert state.step == 2
        for k, v in params.tensors().items():
            expected = before[k] - 0.1 * g1[k] - 0.1 * (0.5 * g1[k] + g2[k])
            assert np.abs(v - expected).max() < 1e-12, k

    def test_shape_mismatch_raises(self):
        params = self.params()
        grads = {"g.b": np.zeros(5)}
        with pytest.raises(ShapeError):
            trainer.optimizer_step(params, grads, trainer.OptState(),
                                   trainer.TrainerConfig())

    def test_gradient_key_set_must_match_parameters(self):
        params = self.params()
        grads = {k: np.zeros_like(v) for k, v in params.tensors().items()}
        del grads["p.b0"]
        with pytest.raises(ContractError, match="p.b0"):
            trainer.optimizer_step(params, grads, trainer.OptState(),
                                   trainer.TrainerConfig())
        grads["p.b0"] = np.zeros(2)
        grads["q.w"] = np.zeros(1)
        with pytest.raises(ContractError, match="q.w"):
            trainer.optimizer_step(params, grads, trainer.OptState(),
                                   trainer.TrainerConfig())
        # all of P's gradients may be absent together, and nothing else
        grads = {k: np.ones_like(v) for k, v in params.tensors().items()
                 if not k.startswith("p.")}
        del grads["f.b0"]
        with pytest.raises(ContractError, match="f.b0"):
            trainer.optimizer_step(params, grads, trainer.OptState(),
                                   trainer.TrainerConfig())
        grads["f.b0"] = np.ones(2)
        before = params.flat.copy()
        state = trainer.optimizer_step(params, grads, trainer.OptState(),
                                       trainer.TrainerConfig())
        p_part = slice(params.fg_size, None)
        assert params.flat[p_part].tobytes() == before[p_part].tobytes()
        assert not state.m[p_part].any() and not state.v[p_part].any()
        assert (params.flat[:params.fg_size] != before[:params.fg_size]).all()


@settings(max_examples=80, deadline=None)
@given(optimizer=st.sampled_from(trainer.OPTIMIZERS), steps=st.integers(1, 5),
       projection_dim=st.integers(1, 9), extra_feature=st.integers(0, 30),
       f_hidden=st.lists(st.integers(1, 40), max_size=3),
       p_hidden=st.lists(st.integers(1, 40), max_size=2),
       input_dim=st.integers(1, 20), num_classes=st.integers(2, 9),
       p_head=st.sampled_from(("given", "zero", "absent")), seed=st.integers(0, 2**31))
def test_optimizer_step_bit_identical_to_frozen_per_tensor(
        optimizer, steps, projection_dim, extra_feature, f_hidden, p_hidden,
        input_dim, num_classes, p_head, seed):
    # random widths shift every segment boundary of the flat vector;
    # gradients span many magnitudes and arrive in backward_pass's
    # dict order (P, G, F), which is not the storage order
    net_cfg = networks.NetworkConfig(
        input_dim=input_dim, num_classes=num_classes,
        feature_dim=projection_dim + extra_feature, projection_dim=projection_dim,
        f_hidden=tuple(f_hidden), p_hidden=tuple(p_hidden))
    params = networks.init_params(net_cfg, seed)
    ref = {k: v.copy() for k, v in params.tensors().items()}
    tcfg = trainer.TrainerConfig(optimizer=optimizer, learning_rate=0.003,
                                 momentum=0.8, adam_beta1=0.85, adam_beta2=0.995)
    state, ref_state = trainer.OptState(), RefOptState()
    names = sorted(ref, key=lambda k: ("pgf".index(k[0]), k))
    rng = np.random.default_rng(seed)
    for _ in range(steps):
        grads = {k: rng.normal(size=ref[k].shape) * 10.0 ** rng.uniform(-6, 3)
                 for k in names}
        if p_head != "given":   # zero: the reference's view of an ERM step
            grads.update({k: np.zeros_like(g) for k, g in grads.items() if k[0] == "p"})
        # absent: what backward_pass gives without grad_z, i.e. on ERM steps
        step_grads = ({k: g for k, g in grads.items() if k[0] != "p"}
                      if p_head == "absent" else grads)
        trainer.optimizer_step(params, step_grads, state, tcfg)
        ref_optimizer_step(ref, grads, ref_state, tcfg)
        assert trainer.grad_norm(params, step_grads, state) == ref_grad_norm(grads)
    assert state.step == ref_state.step == steps
    for k, v in params.tensors().items():
        assert v.tobytes() == ref[k].tobytes(), k
    for flat, slots in ((state.m, ref_state.m), (state.v, ref_state.v)):
        assert (flat is None) == (not slots)
        for k, slot in slots.items():
            assert flat[params.segments[k]].tobytes() == slot.tobytes(), k


class TestTrainLoop:
    def test_logged_total_decomposes(self):
        pool, _, plan, net_cfg = make_setup()
        params = networks.init_params(net_cfg, 1)
        cfg = trainer.TrainerConfig(max_steps=20, eval_every=10, batch_size=16,
                                    seed=2, learning_rate=0.01)
        _, _, log = trainer.train(params, pool, plan, default_loss(), cfg)
        assert len(log.steps) == 20
        for rec in log.steps:
            combined = rec.task + 0.5 * rec.xdom + 0.3 * rec.fair
            assert abs(rec.total - combined) < 1e-12

    def test_identical_seeds_bit_identical(self):
        pool, _, plan, net_cfg = make_setup()
        cfg = trainer.TrainerConfig(max_steps=15, eval_every=5, batch_size=16,
                                    seed=3, learning_rate=0.01, dropout=0.2)
        runs = []
        for _ in range(2):
            params = networks.init_params(net_cfg, 7)
            runs.append(trainer.train(params, pool, plan, default_loss(), cfg))
        (fa, ba, la), (fb, bb, lb) = runs
        for k in fa.tensors():
            assert np.array_equal(fa.tensors()[k], fb.tensors()[k])
            assert np.array_equal(ba.tensors()[k], bb.tensors()[k])
        assert [r.__dict__ for r in la.steps] == [r.__dict__ for r in lb.steps]
        assert [r.__dict__ for r in la.evals] == [r.__dict__ for r in lb.evals]
        assert la.best_step == lb.best_step

    def test_dropout_changes_trajectory(self):
        pool, _, plan, net_cfg = make_setup()
        logs = []
        for rate in (0.0, 0.3):
            params = networks.init_params(net_cfg, 7)
            cfg = trainer.TrainerConfig(max_steps=5, eval_every=5, batch_size=16,
                                        seed=3, learning_rate=0.01, dropout=rate)
            logs.append(trainer.train(params, pool, plan, default_loss(), cfg)[2])
        assert logs[0].steps[0].task != logs[1].steps[0].task

    def test_single_sgd_step_matches_manual_gradient(self):
        pool, target, plan, net_cfg = make_setup()
        params = networks.init_params(net_cfg, 11)
        manual = params.clone()
        cfg = trainer.TrainerConfig(optimizer="sgd", learning_rate=0.1,
                                    max_steps=1, eval_every=1, batch_size=8, seed=5)
        loss_cfg = default_loss()
        trainer.train(params, pool, plan, loss_cfg, cfg, val_set=target)

        sampler = datagen.BatchSampler(pool, 8, subseed(5, trainer.SEED_TAG_BATCHES))
        batch = sampler.epoch_batches(0)[0]
        linked = np.isin(pool.labels, sorted(plan.linked_classes))
        ann = losses.BatchAnnotations(labels=pool.labels[batch],
                                      domains=pool.domains[batch],
                                      linked_mask=linked[batch])
        fp = networks.forward_pass(manual, pool.features[batch])
        fl = losses.fond_loss(fp.logits, fp.z, ann, loss_cfg)
        grads = networks.backward_pass(fp, fl.grad_logits, fl.grad_z)
        for k, g in grads.items():
            expected = manual.tensors()[k] - 0.1 * g
            assert np.array_equal(params.tensors()[k], expected), k

    def test_erm_fits_separable_data(self):
        pool, _, plan, net_cfg = make_setup(seed=8, samples_per_cell=10)
        params = networks.init_params(net_cfg, 9)
        cfg = trainer.TrainerConfig(max_steps=400, eval_every=100, batch_size=32,
                                    seed=10, learning_rate=0.01, optimizer="adam")
        loss_cfg = losses.LossConfig(variant="erm", lambda_xdom=1.0, lambda_fair=1.0)
        final, _, log = trainer.train(params, pool, plan, loss_cfg, cfg)
        from fond import evalsel
        report = evalsel.evaluate(final, pool, plan)
        assert report.overall_accuracy == 1.0
        assert all(rec.xdom == 0.0 and rec.fair == 0.0 for rec in log.steps)

    def test_nonfinite_loss_raises(self, monkeypatch):
        pool, _, plan, net_cfg = make_setup()
        params = networks.init_params(net_cfg, 1)

        def bad_loss(logits, z, ann, cfg):
            n, c = logits.shape
            return losses.FondLoss(total=float("nan"), task=float("nan"), xdom=0.0,
                                   fair=0.0, grad_logits=np.zeros((n, c)),
                                   grad_z=None, ce=np.full(n, np.nan))

        monkeypatch.setattr(losses, "fond_loss", bad_loss)
        cfg = trainer.TrainerConfig(max_steps=5, eval_every=5, batch_size=8, seed=0)
        with pytest.raises(NonFiniteLossError) as err:
            trainer.train(params, pool, plan, default_loss(), cfg)
        assert err.value.step == 1

    def test_nonfinite_update_names_step(self, monkeypatch):
        # parameters are checked where an update writes them, so the error
        # names the step whose update went wrong, not a later forward pass
        pool, _, plan, net_cfg = make_setup()
        params = networks.init_params(net_cfg, 1)
        real_step = trainer.optimizer_step

        def bad_step(params, grads, state, cfg):
            state = real_step(params, grads, state, cfg)
            if state.step == 3:
                params.flat[0] = np.nan
            return state

        monkeypatch.setattr(trainer, "optimizer_step", bad_step)
        cfg = trainer.TrainerConfig(max_steps=6, eval_every=6, batch_size=8, seed=0)
        with pytest.raises(DegenerateInputError, match=r"parameters after step 3\b"):
            trainer.train(params, pool, plan, default_loss(), cfg)

    def test_divergence_raises_nonfinite_with_step(self):
        # at this rate the logits blow up until a true-label probability
        # underflows to 0; that cross-entropy is +inf, a numeric failure
        pool, _, plan, net_cfg = make_setup()
        params = networks.init_params(net_cfg, 1)
        cfg = trainer.TrainerConfig(optimizer="sgd", learning_rate=1e6, max_steps=20,
                                    eval_every=20, batch_size=16, seed=0)
        with pytest.raises(NonFiniteLossError) as err:
            trainer.train(params, pool, plan, default_loss(), cfg)
        assert err.value.step > 1
        assert not math.isfinite(err.value.components["total"])

    def test_erm_never_runs_the_projection_head(self, tmp_path):
        # all-zero P maps every sample to a zero-norm projection, which
        # cannot be normalized; ERM must not care and must log the same bytes
        pool, _, plan, net_cfg = make_setup()
        loss_cfg = losses.LossConfig(variant="erm", lambda_xdom=1.0, lambda_fair=1.0)
        cfg = trainer.TrainerConfig(max_steps=10, eval_every=5, batch_size=16,
                                    seed=2, learning_rate=0.01, dropout=0.2)
        logs = []
        for zero_p in (False, True):
            params = networks.init_params(net_cfg, 4)
            if zero_p:
                for name, tensor in params.tensors().items():
                    if name.startswith("p."):
                        tensor[...] = 0.0
            _, _, log = trainer.train(params, pool, plan, loss_cfg, cfg)
            path = tmp_path / f"trainlog_{zero_p}.jsonl"
            log.write_jsonl(path)
            logs.append(path.read_bytes())
        assert logs[0] == logs[1]

    def test_given_split_matches_the_default_split(self, tmp_path):
        # callers that free the pool before the loop pass train_val_split's
        # halves; the run must be the one train draws from the pool itself
        pool, _, plan, net_cfg = make_setup()
        cfg = trainer.TrainerConfig(max_steps=12, eval_every=5, batch_size=16,
                                    seed=4, learning_rate=0.01, dropout=0.2)
        train_set, val_set = trainer.train_val_split(pool, cfg)
        runs = [trainer.train(networks.init_params(net_cfg, 3), pool, plan,
                              default_loss(), cfg),
                trainer.train(networks.init_params(net_cfg, 3), train_set, plan,
                              default_loss(), cfg, val_set=val_set)]
        outputs = []
        for i, (final, best, log) in enumerate(runs):
            log.write_jsonl(tmp_path / f"log{i}.jsonl")
            log.write_summary_csv(tmp_path / f"log{i}.csv")
            outputs.append((final.flat.tobytes(), best.flat.tobytes(), log.best_step,
                            (tmp_path / f"log{i}.jsonl").read_bytes(),
                            (tmp_path / f"log{i}.csv").read_bytes()))
        assert outputs[0] == outputs[1]

    def test_eval_schedule_with_forced_final(self):
        pool, target, plan, net_cfg = make_setup()
        params = networks.init_params(net_cfg, 1)
        cfg = trainer.TrainerConfig(max_steps=25, eval_every=10, batch_size=16,
                                    seed=1, learning_rate=0.01)
        _, _, log = trainer.train(params, pool, plan, default_loss(), cfg,
                                  val_set=target)
        assert [e.step for e in log.evals] == [10, 20, 25]

    def test_empty_validation_set_returns_final_as_best(self):
        pool, _, plan, net_cfg = make_setup()
        params = networks.init_params(net_cfg, 1)
        empty = pool.subset(np.array([], dtype=np.int64))
        cfg = trainer.TrainerConfig(max_steps=10, eval_every=5, batch_size=16,
                                    seed=1, learning_rate=0.01)
        final, best, log = trainer.train(params, pool, plan, default_loss(), cfg,
                                         val_set=empty)
        assert log.evals == [] and log.best_step == 10
        for k in final.tensors():
            assert np.array_equal(final.tensors()[k], best.tensors()[k])


class TestSnapshotSelection:
    def run_with_scores(self, monkeypatch, y_l_scores, overall_scores,
                        selection_metric="y_l"):
        from fond import evalsel
        pool, target, plan, net_cfg = make_setup()
        params = networks.init_params(net_cfg, 1)
        calls = iter(list(zip(y_l_scores, overall_scores)))

        def scripted(params_, dataset, plan_):
            y_l, overall = next(calls)
            return SimpleNamespace(y_l_accuracy=y_l, y_s_accuracy=0.0,
                                   overall_accuracy=overall)

        monkeypatch.setattr(evalsel, "evaluate", scripted)
        cfg = trainer.TrainerConfig(max_steps=40, eval_every=10, batch_size=16,
                                    seed=1, learning_rate=0.01,
                                    selection_metric=selection_metric)
        return trainer.train(params, pool, plan, default_loss(), cfg,
                             val_set=target)[2]

    def test_earliest_strict_maximum_wins(self, monkeypatch):
        log = self.run_with_scores(monkeypatch, [0.2, 0.5, 0.5, 0.4],
                                   [0.9, 0.9, 0.9, 0.9])
        assert log.best_step == 20
        assert [e.selected for e in log.evals] == [True, True, False, False]

    def test_missing_linked_score_falls_back_to_overall(self, monkeypatch):
        log = self.run_with_scores(monkeypatch, [None, None, None, None],
                                   [0.3, 0.6, 0.1, 0.2])
        assert log.best_step == 20

    def test_overall_metric_ignores_linked(self, monkeypatch):
        log = self.run_with_scores(monkeypatch, [0.9, 0.1, 0.1, 0.1],
                                   [0.1, 0.2, 0.8, 0.3],
                                   selection_metric="overall")
        assert log.best_step == 30


class TestTrainLogOutput:
    def build_log(self):
        pool, target, plan, net_cfg = make_setup()
        params = networks.init_params(net_cfg, 1)
        cfg = trainer.TrainerConfig(max_steps=10, eval_every=5, batch_size=16,
                                    seed=1, learning_rate=0.01)
        return trainer.train(params, pool, plan, default_loss(), cfg,
                             val_set=target)[2]

    def test_jsonl_lines_typed_and_parseable(self, tmp_path):
        log = self.build_log()
        path = tmp_path / "trainlog.jsonl"
        log.write_jsonl(path)
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        kinds = [line["kind"] for line in lines]
        assert kinds.count("step") == 10 and kinds.count("eval") == 2
        step_line = lines[0]
        assert step_line["step"] == 1
        assert math.isfinite(step_line["total"])
        eval_line = lines[-1]
        assert {"y_l_accuracy", "y_s_accuracy", "overall_accuracy",
                "selected"} <= set(eval_line)

    def test_summary_csv_columns_and_eval_rows(self, tmp_path):
        log = self.build_log()
        path = tmp_path / "trainlog.csv"
        log.write_summary_csv(path)
        lines = path.read_text().splitlines()
        header = lines[0].split(",")
        assert header[:5] == ["step", "task", "xdom", "fair", "total"]
        assert len(lines) == 11
        row5 = lines[5].split(",")
        assert row5[-1] != ""  # eval step carries validation columns
        row1 = lines[1].split(",")
        assert row1[-3:] == ["", "", ""]
        assert float(row1[1]) == log.steps[0].task  # repr round-trips
