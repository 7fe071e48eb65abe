import gc
import json
import math
import tracemalloc
import weakref
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fond import cli, datagen, evalsel, losses, ndcore, networks, trainer
from fond.config import load_config
from fond.errors import (ConfigError, ContractError, DegenerateInputError, NonFiniteLossError,
                         ShapeError)
from fond.seeding import rng_for, subseed

from optim_frozen import RefOptState, ref_grad_norm, ref_optimizer_step

TINY = Path(__file__).resolve().parents[1] / "configs" / "tiny_benchmark.json"


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


def train_on_split(params, pool, plan, loss_cfg, cfg, **kwargs):
    """``trainer.train`` on the halves of ``trainer.train_val_split(pool, cfg)``,
    as every command trains."""
    train_set, val_set = trainer.train_val_split(pool, cfg)
    return trainer.train(params, train_set, plan, loss_cfg, cfg, val_set=val_set, **kwargs)


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
        with pytest.raises(ConfigError, match="got 'loss'"):
            trainer.TrainerConfig(selection_metric="loss")

    def test_stratified_batches_rejected(self):
        # batches are always pooled; the key stays only for the provenance line
        with pytest.raises(ConfigError, match="stratified_batches"):
            trainer.TrainerConfig(stratified_batches=True)

    @pytest.mark.parametrize("value", [0.5, 0.0, float("nan"), -float("inf")])
    def test_momentum_must_stay_as_the_provenance_names_it(self, value):
        # no optimizer reads it; the key stays only for the provenance line
        with pytest.raises(ConfigError, match="momentum must stay 0.9"):
            trainer.TrainerConfig(momentum=value)
        trainer.TrainerConfig(momentum=0.9)

    def test_nonfinite_hyperparameters_rejected(self):
        for field_name in ("learning_rate", "adam_beta1", "adam_beta2", "adam_eps"):
            for bad in (float("nan"), float("inf"), -float("inf")):
                with pytest.raises(ConfigError, match=field_name):
                    trainer.TrainerConfig(**{field_name: bad})

    @pytest.mark.parametrize("field_name, bad", [
        ("adam_beta1", 1.0), ("adam_beta1", 1.5), ("adam_beta1", -0.1),
        ("adam_beta2", 1.0), ("adam_beta2", 2), ("adam_beta2", -1e-9),
        ("adam_eps", 0), ("adam_eps", -1e-8)])
    def test_adam_values_outside_adam_domain_rejected(self, field_name, bad):
        # beta = 1 or eps = 0 made step 1 non-finite; beta > 1 or eps < 0
        # trained without complaint
        with pytest.raises(ConfigError, match=field_name):
            trainer.TrainerConfig(**{field_name: bad})

    def test_adam_domain_edges_accepted(self):
        for kwargs in ({"adam_beta1": 0.0, "adam_beta2": 0.0}, {"adam_beta1": 1e-6},
                       {"adam_beta2": 0.995}, {"adam_eps": 5e-324}):
            trainer.TrainerConfig(**kwargs)


def flat_grad(params, grads):
    """The gradient buffer that ``networks.backward_pass`` writes for the
    name -> array dict ``grads``, and the flat gradient it returns: the
    whole vector, or only its F and G prefix when ``grads`` has no P
    tensors."""
    buffer = networks.ModelParams(config=params.config, seed=0)
    for name, grad in grads.items():
        buffer.tensors()[name][...] = grad
    if any(name.startswith("p.") for name in grads):
        return buffer, buffer.flat
    return buffer, buffer.flat[:buffer.fg_size]


class TestOptimizerStep:
    def params(self):
        cfg = networks.NetworkConfig(input_dim=2, num_classes=3, feature_dim=2,
                                     projection_dim=2, f_hidden=(), p_hidden=())
        return networks.init_params(cfg, 0)

    def test_zero_gradient_is_noop(self):
        for opt in trainer.OPTIMIZERS:
            params = self.params()
            before = params.flat.copy()
            trainer.optimizer_step(params, np.zeros_like(params.flat), trainer.OptState(),
                                   trainer.TrainerConfig(optimizer=opt))
            assert np.array_equal(params.flat, before), opt

    def test_sgd_unit_rate_with_self_gradient_zeroes(self):
        params = self.params()
        cfg = trainer.TrainerConfig(optimizer="sgd", learning_rate=1.0)
        trainer.optimizer_step(params, params.flat.copy(), trainer.OptState(), cfg)
        assert not params.flat.any()

    def test_adam_first_step_closed_form(self):
        # after one step: mhat = g, vhat = g^2, so delta = -lr*g/(|g|+eps)
        params = self.params()
        before = params.flat.copy()
        grad = np.random.default_rng(3).normal(size=params.flat.size)
        cfg = trainer.TrainerConfig(optimizer="adam", learning_rate=0.01)
        trainer.optimizer_step(params, grad.copy(), trainer.OptState(), cfg)
        expected = before - 0.01 * grad / (np.abs(grad) + cfg.adam_eps)
        assert np.abs(params.flat - expected).max() < 1e-12

    def test_wrong_length_gradient_raises(self):
        # a flat gradient spans the whole model or its F and G prefix
        params = self.params()
        before = params.flat.copy()
        n, fg = params.flat.size, params.fg_size
        for grad in (np.zeros(fg - 1), np.zeros(fg + 1), np.zeros(n + 1),
                     np.zeros((1, n)), np.zeros((n, 1))):
            state = trainer.OptState()
            with pytest.raises(ContractError, match="gradient has shape"):
                trainer.optimizer_step(params, grad, state, trainer.TrainerConfig())
            assert state.step == 0
        assert params.flat.tobytes() == before.tobytes()

    def test_prefix_gradient_leaves_projection_alone(self):
        params = self.params()
        before = params.flat.copy()
        state = trainer.optimizer_step(params, np.ones(params.fg_size), trainer.OptState(),
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
       p_head=st.sampled_from(("given", "zero", "absent")), seed=st.integers(0, 2**31),
       beta1=st.sampled_from((0.85, 1e-6)))
@example(optimizer="adam", steps=5, projection_dim=3, extra_feature=2, f_hidden=[4],
         p_hidden=[3], input_dim=5, num_classes=3, p_head="given", seed=7, beta1=1e-6)
def test_optimizer_step_bit_identical_to_frozen_per_tensor(
        optimizer, steps, projection_dim, extra_feature, f_hidden, p_hidden,
        input_dim, num_classes, p_head, seed, beta1):
    # random widths shift every segment boundary of the flat vector;
    # gradients span many magnitudes. The reference's dict lists them in
    # the order P, G, F (layout order within each head), the order
    # trainer.grad_norm adds the per-tensor sums in. At beta1 = 1e-6 Adam's
    # first bias correction rounds to 1.0 from step 3 on, where the step
    # skips its division
    net_cfg = networks.NetworkConfig(
        input_dim=input_dim, num_classes=num_classes,
        feature_dim=projection_dim + extra_feature, projection_dim=projection_dim,
        f_hidden=tuple(f_hidden), p_hidden=tuple(p_hidden))
    params = networks.init_params(net_cfg, seed)
    ref = {k: v.copy() for k, v in params.tensors().items()}
    tcfg = trainer.TrainerConfig(optimizer=optimizer, learning_rate=0.003,
                                 adam_beta1=beta1, adam_beta2=0.995)
    state, ref_state = trainer.OptState(), RefOptState()
    names = sorted(ref, key=lambda k: "pgf".index(k[0]))
    rng = np.random.default_rng(seed)
    for _ in range(steps):
        grads = {k: rng.normal(size=ref[k].shape) * 10.0 ** rng.uniform(-6, 3)
                 for k in names}
        if p_head != "given":   # zero: the reference's view of an ERM step
            grads.update({k: np.zeros_like(g) for k, g in grads.items() if k[0] == "p"})
        # absent: the F and G prefix backward_pass gives without grad_z, as on ERM steps
        buffer, grad = flat_grad(params, {k: g for k, g in grads.items()
                                          if p_head != "absent" or k[0] != "p"})
        # grad_norm reads the gradient before the step overwrites it
        assert trainer.grad_norm(buffer, p_head != "absent") == ref_grad_norm(grads)
        trainer.optimizer_step(params, grad, state, tcfg)
        ref_optimizer_step(ref, grads, ref_state, tcfg)
    assert state.step == ref_state.step == steps
    for k, v in params.tensors().items():
        assert v.tobytes() == ref[k].tobytes(), k
    for flat, slots in ((state.m, ref_state.m), (state.v, ref_state.v)):
        assert (flat is None) == (not slots)
        for k, slot in slots.items():   # read through views laid out as the parameters
            view = networks.ModelParams(config=params.config, seed=0, flat=flat).tensors()[k]
            assert view.tobytes() == slot.tobytes(), k


class TestTrainLoop:
    def test_logged_total_decomposes(self):
        pool, _, plan, net_cfg = make_setup()
        params = networks.init_params(net_cfg, 1)
        cfg = trainer.TrainerConfig(max_steps=20, eval_every=10, batch_size=16,
                                    seed=2, learning_rate=0.01)
        _, _, log = train_on_split(params, pool, plan, default_loss(), cfg)
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
            runs.append(train_on_split(params, pool, plan, default_loss(), cfg))
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
            logs.append(train_on_split(params, pool, plan, default_loss(), cfg)[2])
        assert logs[0].steps[0].task != logs[1].steps[0].task

    def test_dropout_training_calls_rng_for_each_step(self, monkeypatch):
        calls = []

        def counted(*parts):
            calls.append(parts)
            return rng_for(*parts)

        monkeypatch.setattr(trainer, "rng_for", counted)
        pool, _, plan, net_cfg = make_setup()
        cfg = trainer.TrainerConfig(max_steps=12, eval_every=6, batch_size=16,
                                    seed=3, learning_rate=0.01, dropout=0.2)
        train_on_split(networks.init_params(net_cfg, 7), pool, plan, default_loss(), cfg)
        assert calls == [(3, trainer.SEED_TAG_DROPOUT, k) for k in range(1, 13)]

    def test_dropout_streams_draw_what_rng_for_draws(self):
        draws = [gen.random((4, 4)) for gen in trainer.dropout_streams(5, 9)]
        assert len(draws) == 9
        for step, drawn in enumerate(draws, start=1):
            expected = rng_for(5, trainer.SEED_TAG_DROPOUT, step).random((4, 4))
            assert drawn.tobytes() == expected.tobytes()

    def test_dropout_streams_build_each_step_as_it_is_drawn(self):
        # drawing three of a million steps builds three generators, not a
        # million steps' worth of seeding
        tracemalloc.start()
        try:
            streams = trainer.dropout_streams(7, 10**6)
            for _ in range(3):
                next(streams)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
        checked = {1, 2, 4097, 4098, 12293}
        for step, gen in enumerate(trainer.dropout_streams(7, max(checked)), start=1):
            if step in checked:
                expected = rng_for(7, trainer.SEED_TAG_DROPOUT, step).random(3)
                assert gen.random(3).tobytes() == expected.tobytes(), step

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
        grad = networks.backward_pass(fp, fl.grad_logits, fl.grad_z,
                                      networks.ModelParams(config=net_cfg, seed=0))
        assert np.array_equal(params.flat, manual.flat - 0.1 * grad)

    def test_erm_fits_separable_data(self):
        pool, _, plan, net_cfg = make_setup(seed=8, samples_per_cell=10)
        params = networks.init_params(net_cfg, 9)
        cfg = trainer.TrainerConfig(max_steps=400, eval_every=100, batch_size=32,
                                    seed=10, learning_rate=0.01, optimizer="adam")
        loss_cfg = losses.LossConfig(variant="erm", lambda_xdom=1.0, lambda_fair=1.0)
        final, _, log = train_on_split(params, pool, plan, loss_cfg, cfg)
        from fond import evalsel
        report = evalsel.evaluate(final, pool, plan)
        assert report.overall_accuracy == 1.0
        assert all(rec.xdom == 0.0 and rec.fair == 0.0 for rec in log.steps)

    def test_nonfinite_loss_raises(self, monkeypatch):
        pool, _, plan, net_cfg = make_setup()
        params = networks.init_params(net_cfg, 1)

        def bad_loss(logits, z, ann, cfg, **kwargs):
            n, c = logits.shape
            return losses.FondLoss(total=float("nan"), task=float("nan"), xdom=0.0,
                                   fair=0.0, grad_logits=np.zeros((n, c)),
                                   grad_z=None, linked_ce=float("nan"), shared_ce=float("nan"))

        monkeypatch.setattr(losses, "fond_loss", bad_loss)
        cfg = trainer.TrainerConfig(max_steps=5, eval_every=5, batch_size=8, seed=0)
        with pytest.raises(NonFiniteLossError) as err:
            train_on_split(params, pool, plan, default_loss(), cfg)
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
            train_on_split(params, pool, plan, default_loss(), cfg)

    def test_divergence_raises_nonfinite_with_step(self):
        # at this rate the logits blow up until a true-label probability
        # underflows to 0; that cross-entropy is +inf, a numeric failure
        pool, _, plan, net_cfg = make_setup()
        params = networks.init_params(net_cfg, 1)
        cfg = trainer.TrainerConfig(optimizer="sgd", learning_rate=1e6, max_steps=20,
                                    eval_every=20, batch_size=16, seed=0)
        with pytest.raises(NonFiniteLossError) as err:
            train_on_split(params, pool, plan, default_loss(), cfg)
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
            _, _, log = train_on_split(params, pool, plan, loss_cfg, cfg)
            path = tmp_path / f"trainlog_{zero_p}.jsonl"
            log.write_jsonl(path)
            logs.append(path.read_bytes())
        assert logs[0] == logs[1]

    @pytest.mark.parametrize("variant", ["erm", "fond"])
    def test_unlogged_run_matches_logged_run(self, variant):
        # benchmark cells and search folds discard the log; skipping it
        # must leave the parameters and the selected step as they were
        pool, _, plan, net_cfg = make_setup()
        loss_cfg = losses.LossConfig(temperature=0.2, a=2.0, b=2.0, lambda_xdom=0.5,
                                     lambda_fair=0.3, variant=variant)
        cfg = trainer.TrainerConfig(max_steps=23, eval_every=4, batch_size=16,
                                    seed=4, learning_rate=0.05, dropout=0.2)
        logged, unlogged = (train_on_split(networks.init_params(net_cfg, 3), pool, plan,
                                          loss_cfg, cfg, log_steps=flag)
                            for flag in (True, False))
        for a, b in zip(logged[:2], unlogged[:2]):
            assert a.flat.tobytes() == b.flat.tobytes()
        assert logged[2].steps and logged[2].evals
        assert unlogged[2].best_step == logged[2].best_step
        assert unlogged[2].steps == [] and unlogged[2].evals == []

    # a last step on the schedule is evaluated once, not twice
    @pytest.mark.parametrize("max_steps, expected", [(25, [10, 20, 25]), (20, [10, 20])],
                             ids=["final_off_schedule", "final_on_schedule"])
    def test_eval_schedule_with_forced_final(self, max_steps, expected):
        pool, target, plan, net_cfg = make_setup()
        params = networks.init_params(net_cfg, 1)
        cfg = trainer.TrainerConfig(max_steps=max_steps, eval_every=10, batch_size=16,
                                    seed=1, learning_rate=0.01)
        _, _, log = trainer.train(params, pool, plan, default_loss(), cfg,
                                  val_set=target)
        assert [e.step for e in log.evals] == expected

    def test_empty_validation_set_returns_final_as_best(self, monkeypatch):
        # None trains the same way: on exactly the rows given, evaluating nothing
        pool, _, plan, net_cfg = make_setup()
        empty = pool.subset(np.array([], dtype=np.int64))
        cfg = trainer.TrainerConfig(max_steps=10, eval_every=5, batch_size=16,
                                    seed=1, learning_rate=0.01)
        monkeypatch.setattr(datagen, "split_train_val", None)   # nothing splits the pool
        runs = [trainer.train(networks.init_params(net_cfg, 1), pool, plan, default_loss(),
                              cfg, val_set=val_set) for val_set in (empty, None)]
        for final, best, log in runs:
            assert log.evals == [] and log.best_step == 10
            assert final.flat.tobytes() == best.flat.tobytes() == runs[0][0].flat.tobytes()


class TestTrainingBoundary:
    def test_label_beyond_the_classifier_raises_before_step_one(self, monkeypatch):
        # the network has 3 output units; the pool holds label 3
        pool, _, plan, net_cfg = make_setup()
        small = networks.NetworkConfig(**{**net_cfg.__dict__, "num_classes": 3})
        assert pool.labels.max() == 3
        forwards = []
        monkeypatch.setattr(networks, "forward_pass",
                            lambda *a, **k: forwards.append(1))
        cfg = trainer.TrainerConfig(max_steps=4, eval_every=2, batch_size=16, seed=1)
        with pytest.raises(ContractError, match=r"labels must lie in \[0, 3\)"):
            train_on_split(networks.init_params(small, 1), pool, plan, default_loss(), cfg)
        assert forwards == []

    def test_label_the_plan_lacks_raises_before_step_one(self, monkeypatch):
        pool, _, plan, net_cfg = make_setup()
        labels = pool.labels.copy()
        labels[0] = 7
        pool = datagen.Dataset(features=pool.features, labels=labels,
                               domains=pool.domains, ids=pool.ids)
        forwards = []
        monkeypatch.setattr(networks, "forward_pass",
                            lambda *a, **k: forwards.append(1))
        cfg = trainer.TrainerConfig(max_steps=4, eval_every=2, batch_size=16, seed=1)
        with pytest.raises(ContractError, match=r"labels \[7\] are not in the plan"):
            trainer.train(networks.init_params(net_cfg, 1), pool, plan, default_loss(), cfg,
                          val_set=pool)
        assert forwards == []

    @pytest.mark.parametrize("fault", ["label", "width"])
    def test_unscoreable_validation_set_raises_before_step_one(self, monkeypatch, fault):
        # a validation label the plan lacks, or too few columns, raised only
        # at the first evaluation, after eval_every optimizer steps
        pool, target, plan, net_cfg = make_setup()
        features, labels = target.features, target.labels.copy()
        if fault == "label":
            labels[0] = 7
            error, match = ContractError, r"labels \[7\] are not in the plan"
        else:
            features = features[:, :3]
            error, match = ShapeError, "val_set has 3 columns, config expects 8"
        val_set = datagen.Dataset(features=features, labels=labels, domains=target.domains,
                                  ids=target.ids)
        steps = []
        optimizer_step = trainer.optimizer_step
        monkeypatch.setattr(trainer, "optimizer_step",
                            lambda *args: (steps.append(1), optimizer_step(*args))[1])
        cfg = trainer.TrainerConfig(max_steps=40, eval_every=20, batch_size=16, seed=1)
        with pytest.raises(error, match=match):
            trainer.train(networks.init_params(net_cfg, 1), pool, plan, default_loss(), cfg,
                          val_set=val_set)
        assert steps == []

    def test_steps_take_rows_of_the_checked_columns(self, monkeypatch):
        # each step's annotations are rows of the training set's columns,
        # checked once against G, so fond_loss skips the range check; every
        # step's contrastive term reuses one Gram buffer
        pool, _, plan, net_cfg = make_setup()
        seen, range_checks, buffers = [], [], set()
        fond_loss = losses.fond_loss
        check = losses._check_label_range

        def spy(logits, z, ann, cfg, **kwargs):
            seen.append(ann)
            buffers.add(id(kwargs["gram_buffer"]))
            return fond_loss(logits, z, ann, cfg, **kwargs)

        monkeypatch.setattr(losses, "fond_loss", spy)
        monkeypatch.setattr(losses, "_check_label_range",
                            lambda labels, g: (range_checks.append(g), check(labels, g)))
        cfg = trainer.TrainerConfig(max_steps=3, eval_every=3, batch_size=16, seed=1)
        train_on_split(networks.init_params(net_cfg, 1), pool, plan, default_loss(), cfg)
        assert len(seen) == 3 and range_checks == [net_cfg.num_classes]
        assert len(buffers) == 1             # one Gram buffer for the training
        assert all(ann.num_classes == net_cfg.num_classes and len(ann) == 16
                   and ann.labels.dtype == np.int64 for ann in seen)


class TestStepInputs:
    def test_inputs_are_what_training_feeds_each_step(self, monkeypatch):
        # the batch features, the annotation rows and the dropout generator
        # (its state, so the masks it draws) that train passes to each step,
        # bit for bit; 5 steps of 16 rows run past the first epoch
        pool, _, plan, net_cfg = make_setup()
        cfg = trainer.TrainerConfig(max_steps=5, eval_every=5, batch_size=16, seed=3,
                                    learning_rate=0.01, dropout=0.1)
        train_set, val_set = trainer.train_val_split(pool, cfg)
        assert len(train_set) < 5 * 16
        forwards, anns = [], []
        forward_pass, fond_loss = networks.forward_pass, losses.fond_loss

        def watched_forward(params, x, **kwargs):
            if "dropout_rng" in kwargs:              # a training step, not an evaluation
                forwards.append((x.tobytes(), kwargs["dropout_rng"].bit_generator.state))
            return forward_pass(params, x, **kwargs)

        def watched_loss(logits, z, ann, loss_cfg, **kwargs):
            anns.append(ann)
            return fond_loss(logits, z, ann, loss_cfg, **kwargs)

        monkeypatch.setattr(networks, "forward_pass", watched_forward)
        monkeypatch.setattr(losses, "fond_loss", watched_loss)
        trainer.train(networks.init_params(net_cfg, 7), train_set, plan, default_loss(), cfg,
                      val_set=val_set)

        fed = [(x.tobytes(), drng.bit_generator.state, ann) for x, ann, drng
               in trainer.step_inputs(networks.init_params(net_cfg, 7), train_set, plan, cfg)]
        assert len(fed) == len(forwards) == len(anns) == 5
        for (x, state, ann), (x_fed, state_fed), ann_fed in zip(fed, forwards, anns):
            assert x == x_fed and state == state_fed
            assert ann.num_classes == ann_fed.num_classes == net_cfg.num_classes
            for name in ("labels", "domains", "linked_mask"):
                got, want = getattr(ann, name), getattr(ann_fed, name)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        # step 1 against its own draws: the first batch of epoch 0 under the
        # "batches" subseed, and the dropout stream rng_for gives step 1
        x, ann, drng = next(trainer.step_inputs(networks.init_params(net_cfg, 7), train_set,
                                                plan, cfg))
        batch = datagen.BatchSampler(train_set, 16, subseed(3, trainer.SEED_TAG_BATCHES)) \
            .epoch_batches(0)[0]
        assert x.tobytes() == train_set.features[batch].tobytes()
        assert ann.labels.tobytes() == plan.class_codes(train_set.labels)[batch].tobytes()
        assert ann.domains.tobytes() == train_set.domains[batch].tobytes()
        assert drng.random(64).tobytes() \
            == rng_for(3, trainer.SEED_TAG_DROPOUT, 1).random(64).tobytes()

    def test_no_dropout_feeds_no_generator(self):
        pool, _, plan, net_cfg = make_setup()
        cfg = trainer.TrainerConfig(max_steps=3, eval_every=3, batch_size=16, seed=3)
        fed = list(trainer.step_inputs(networks.init_params(net_cfg, 7), pool, plan, cfg))
        assert len(fed) == 3 and all(drng is None for _, _, drng in fed)


class TestStart:
    def test_start_draws_the_tagged_seeds(self):
        _, _, _, net_cfg = make_setup()
        cfg = trainer.TrainerConfig(seed=99, learning_rate=0.01)
        params, seeded = trainer.start(net_cfg, cfg, 11, "final-")
        assert params.flat.tobytes() \
            == networks.init_params(net_cfg, subseed(11, "final-init")).flat.tobytes()
        assert seeded == replace(cfg, seed=subseed(11, "final-train"))
        assert trainer.start(net_cfg, cfg, 11)[1].seed == subseed(11, "train")


class TestStepArraysReleased:
    """A step's forward pass and loss are unreachable once its backward pass
    and step record have read them: the next step's forward pass and every
    evaluation run without them."""

    @pytest.mark.parametrize("variant, log_steps", [("fond", True), ("fond", False),
                                                    ("erm", True)])
    def test_no_step_result_reachable_at_a_forward_pass_or_evaluation(
            self, monkeypatch, variant, log_steps):
        refs, seen = [], {"forward_pass": [], "evaluate": []}
        forward_pass, fond_loss, evaluate = (networks.forward_pass, losses.fond_loss,
                                             evalsel.evaluate)

        def reachable():
            gc.collect()
            return [type(ref()).__name__ for ref in refs if ref() is not None]

        def watched(fn):
            def call(*args, **kwargs):
                if fn.__name__ in seen:
                    seen[fn.__name__].append(reachable())
                out = fn(*args, **kwargs)
                if fn is not evaluate:
                    refs.append(weakref.ref(out))
                return out
            return call

        monkeypatch.setattr(networks, "forward_pass", watched(forward_pass))
        monkeypatch.setattr(losses, "fond_loss", watched(fond_loss))
        monkeypatch.setattr(evalsel, "evaluate", watched(evaluate))
        pool, _, plan, net_cfg = make_setup()
        loss_cfg = replace(default_loss(), variant=variant)
        cfg = trainer.TrainerConfig(max_steps=7, eval_every=2, batch_size=16, seed=1)
        train_on_split(networks.init_params(net_cfg, 1), pool, plan, loss_cfg, cfg,
                      log_steps=log_steps)
        assert seen["evaluate"] == [[]] * 4      # after steps 2, 4, 6 and 7
        assert len(seen["forward_pass"]) == 7 + 4 and not any(seen["forward_pass"])


class TestKernelInputs:
    """The ndcore kernels check nothing: every array the package hands them
    must already be float64 with the rank the kernel documents."""

    RANKS = {"affine_forward": (2, 2, 1), "affine_backward": (2, 2, 2, 2, 1),
             "affine_param_backward": (2, 2, 2, 1),
             "relu_forward": (2,), "relu_backward": (2, 2),
             "softmax_forward": (2,), "l2_normalize_rows": (2,),
             "l2_normalize_backward": (2, 2, 1)}

    def check(self, values, ranks, where):
        assert len(values) == len(ranks), where
        for value, rank in zip(values, ranks):
            assert type(value) is np.ndarray, (where, type(value))
            assert (value.dtype, value.ndim) == (np.float64, rank), (where, value.dtype,
                                                                     value.shape)

    def test_training_and_predict_pass_float64_arrays(self, monkeypatch):
        calls = dict.fromkeys(self.RANKS, 0)
        for name, ranks in self.RANKS.items():
            def checked(*args, _kernel=getattr(ndcore, name), _name=name, _ranks=ranks):
                self.check(args, _ranks, _name)
                calls[_name] += 1
                return _kernel(*args)
            monkeypatch.setattr(ndcore, name, checked)

        pool, target, plan, net_cfg = make_setup()
        cfg = trainer.TrainerConfig(max_steps=6, eval_every=3, batch_size=16, seed=4,
                                    learning_rate=0.01, dropout=0.2)
        _, best, log = train_on_split(networks.init_params(net_cfg, 1), pool, plan,
                                     default_loss(), cfg)
        assert all(rec.xdom > 0 for rec in log.steps)     # P ran at every step
        assert all(calls.values()), calls
        before = dict(calls)
        # a list enters predict; forward_pass makes it float64 before any kernel
        evalsel.predict(best, target.features.tolist())
        assert calls["affine_forward"] > before["affine_forward"]


class TestSnapshotSelection:
    def run_with_scores(self, monkeypatch, y_l_scores, overall_scores,
                        selection_metric="y_l", whole=False):
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
        out = trainer.train(params, pool, plan, default_loss(), cfg, val_set=target)
        return out if whole else out[2]

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

    @pytest.mark.parametrize("selection_metric", trainer.SELECTION_METRICS)
    def test_one_run_keeps_every_rules_snapshot(self, monkeypatch, selection_metric):
        _, best, log = self.run_with_scores(monkeypatch, [0.2, 0.5, 0.5, 0.4],
                                            [0.1, 0.2, 0.8, 0.3], selection_metric, whole=True)
        assert {rule: step for rule, (step, _) in log.snapshots.items()} \
            == {"y_l": 20, "overall": 30}
        step, snapshot = log.snapshots[selection_metric]
        assert log.best_step == step and best is snapshot
        assert [e.selected for e in log.evals] == (
            [True, True, False, False] if selection_metric == "y_l" else [True] * 3 + [False])

    def test_rules_improving_together_share_one_snapshot(self, monkeypatch):
        # both rules last improve at step 20, so they hold one clone
        final, _, log = self.run_with_scores(monkeypatch, [0.2, 0.5, 0.5, 0.4],
                                             [0.1, 0.2, 0.2, 0.2], whole=True)
        (y_l_step, y_l_params), (overall_step, overall_params) = (
            log.snapshots[rule] for rule in trainer.SELECTION_METRICS)
        assert y_l_step == overall_step == 20
        assert y_l_params is overall_params and y_l_params is not final

    def test_no_validation_maps_every_rule_to_the_final_parameters(self):
        pool, _, plan, net_cfg = make_setup()
        cfg = trainer.TrainerConfig(max_steps=10, eval_every=5, batch_size=16,
                                    seed=1, learning_rate=0.01)
        final, best, log = trainer.train(networks.init_params(net_cfg, 1), pool, plan,
                                         default_loss(), cfg, val_set=None)
        assert set(log.snapshots) == set(trainer.SELECTION_METRICS)
        for step, snapshot in log.snapshots.values():
            assert step == 10 and snapshot is best and snapshot is not final
            assert snapshot.flat.tobytes() == final.flat.tobytes()

    def test_overall_snapshot_is_an_overall_configured_runs_best(self):
        # one y_l-configured training holds the snapshot that a second
        # training under selection_metric="overall" returns, bit for bit
        base = load_config(TINY, ["seed=1", "trainer.max_steps=120"])   # steps 20 and 40
        runs = {rule: cli.train_on_split(
                    replace(base, trainer=replace(base.trainer, selection_metric=rule)), base.seed)
                for rule in trainer.SELECTION_METRICS}
        plan, _, _, log, _, _ = runs["y_l"]
        _, _, overall_best, overall_log, overall_report, _ = runs["overall"]
        step, snapshot = log.snapshots["overall"]
        assert step == overall_log.best_step != log.best_step
        assert snapshot.flat.tobytes() == overall_best.flat.tobytes()
        target = datagen.apply_split(cli.build_dataset(base), plan)[1]
        assert evalsel.evaluate(snapshot, target, plan) == overall_report
        assert log.snapshots["y_l"][1].flat.tobytes() \
            == overall_log.snapshots["y_l"][1].flat.tobytes()


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

    @pytest.mark.parametrize("writer", ["write_jsonl", "write_summary_csv"])
    def test_log_that_fails_leaves_no_file(self, tmp_path, full_disk, writer):
        # a full disk mid-log left the lines written so far
        log = self.build_log()
        path = tmp_path / "trainlog"
        full_disk(100)
        with pytest.raises(OSError, match="No space left"):
            getattr(log, writer)(path)
        assert not path.exists()
