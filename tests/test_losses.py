from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fond import losses, ndcore, networks
from fond.errors import BatchTooSmallError, ConfigError, ContractError

from oracles import (
    central_difference,
    cross_entropy_reference,
    fair_reference,
    random_unit_rows,
    rel_error,
    supcon_reference,
    xdom_reference,
)
from xdom_frozen import ref_xdom_loss


def random_batch(seed, n=None, d=None, n_classes=3, n_domains=3):
    rng = np.random.default_rng(seed)
    n = n or int(rng.integers(2, 9))
    d = d or int(rng.integers(2, 5))
    z = random_unit_rows(rng, n, d)
    ann = losses.BatchAnnotations(
        labels=rng.integers(0, n_classes, size=n),
        domains=rng.integers(0, n_domains, size=n),
        linked_mask=rng.random(n) < 0.5)
    return z, ann


class TestLossConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            losses.LossConfig(temperature=0.0)
        with pytest.raises(ConfigError):
            losses.LossConfig(a=0.5)
        with pytest.raises(ConfigError):
            losses.LossConfig(b=0.0)
        with pytest.raises(ConfigError):
            losses.LossConfig(lambda_xdom=-0.1)
        with pytest.raises(ConfigError):
            losses.LossConfig(alpha_mode="inside")
        with pytest.raises(ConfigError):
            losses.LossConfig(variant="mystery")

    def test_nonfinite_values_rejected(self):
        # NaN fails no `<` range check, so each needs its own finite check
        for name in ("temperature", "a", "b", "lambda_xdom", "lambda_fair"):
            for bad in (float("nan"), float("inf"), -float("inf")):
                with pytest.raises(ConfigError, match=name):
                    losses.LossConfig(**{name: bad})

    def test_variant_forcing(self):
        base = dict(a=3.0, b=2.0, lambda_xdom=1.0, lambda_fair=1.0)
        erm = losses.LossConfig(variant="erm", **base).resolved()
        assert erm.lambda_xdom == 0.0 and erm.lambda_fair == 0.0
        supcon = losses.LossConfig(variant="supcon", **base).resolved()
        assert supcon.a == 1.0 and supcon.b == 1.0 and supcon.lambda_fair == 0.0
        fba = losses.LossConfig(variant="fond_fba", **base).resolved()
        assert fba.a == 1.0 and fba.b == 1.0 and fba.lambda_fair == 0.0
        fb = losses.LossConfig(variant="fond_fb", **base).resolved()
        assert fb.a == 3.0 and fb.b == 1.0 and fb.lambda_fair == 0.0
        f = losses.LossConfig(variant="fond_f", **base).resolved()
        assert f.a == 3.0 and f.b == 2.0 and f.lambda_fair == 0.0
        fond = losses.LossConfig(variant="fond", **base).resolved()
        assert fond == losses.LossConfig(variant="fond", **base)

    def test_each_rung_adds_one_forcing_and_supcon_is_fond_fba(self):
        assert losses.VARIANTS == tuple(losses._FORCED) == (
            "fond", "fond_f", "fond_fb", "fond_fba", "erm", "supcon")
        assert losses._FORCED["fond"] == {}
        for upper, lower, added in (("fond", "fond_f", {"lambda_fair": 0.0}),
                                    ("fond_f", "fond_fb", {"b": 1.0}),
                                    ("fond_fb", "fond_fba", {"a": 1.0})):
            assert losses._FORCED[lower] == {**losses._FORCED[upper], **added}
        assert losses._FORCED["supcon"] is losses._FORCED["fond_fba"]

    @settings(max_examples=40, deadline=None)
    @given(a=st.floats(1.0, 8.0), b=st.floats(1.0, 8.0), lambda_xdom=st.floats(0.0, 4.0),
           lambda_fair=st.floats(0.0, 4.0), alpha_mode=st.sampled_from(losses.ALPHA_MODES))
    def test_supcon_resolves_to_fond_fba(self, **values):
        supcon = losses.LossConfig(variant="supcon", **values).resolved()
        fba = losses.LossConfig(variant="fond_fba", **values).resolved()
        assert replace(supcon, variant="fond_fba") == fba

    @pytest.mark.parametrize("variant", losses.VARIANTS)
    def test_contrastive_exactly_when_the_effective_objective_has_the_term(self, variant):
        assert not losses.LossConfig(variant=variant, lambda_xdom=0.0).contrastive
        assert losses.LossConfig(variant=variant, lambda_xdom=0.5).contrastive \
            == (variant != "erm")

    def test_resolved_idempotent(self):
        cfg = losses.LossConfig(variant="supcon", a=2.0, lambda_fair=0.7).resolved()
        assert cfg.resolved() == cfg
        # a resolved config is returned as is, so per-step calls build nothing
        for variant in losses.VARIANTS:
            raw = losses.LossConfig(variant=variant, a=2.0, b=3.0, lambda_xdom=0.5,
                                    lambda_fair=0.7)
            cfg = raw.resolved()
            assert cfg.resolved() is cfg
            assert (cfg is raw) == (variant == "fond")


class TestAnnotations:
    def test_length_mismatch(self):
        with pytest.raises(ContractError):
            losses.BatchAnnotations(labels=[0, 1], domains=[0], linked_mask=[True, False])
        with pytest.raises(ContractError, match="must be 1-D"):
            losses.BatchAnnotations(labels=[[0, 1]], domains=[0, 1], linked_mask=[True, False])

    def test_class_count_checks_labels_once(self):
        with pytest.raises(ContractError, match=r"labels must lie in \[0, 3\)"):
            losses.BatchAnnotations([0, 3], [0, 0], [True, False], num_classes=3)
        ann = losses.BatchAnnotations([0, 2, 1], [1, 0, 1], [True, False, True],
                                      num_classes=3)
        rows = ann.take(np.array([2, 0]))
        assert rows.labels.tolist() == [1, 0] and rows.domains.tolist() == [1, 1]
        assert rows.linked_mask.tolist() == [True, True] and rows.num_classes == 3
        # logits with another class count are range-checked as before
        with pytest.raises(ContractError, match=r"labels must lie in \[0, 2\)"):
            losses.fond_loss(np.zeros((3, 2)), None, ann, losses.LossConfig())
        with pytest.raises(ContractError, match="does not match probabilities"):
            losses.fond_loss(np.zeros((2, 3)), None, ann, losses.LossConfig())


class TestTaskLoss:
    def test_one_hot_correct_is_zero(self):
        probs = np.eye(3)
        loss, grad = losses.task_loss(probs, [0, 1, 2])
        assert loss == 0.0
        assert np.allclose(grad, 0.0)

    def test_uniform_is_log_num_classes(self):
        probs = np.full((4, 5), 0.2)
        loss, _ = losses.task_loss(probs, [0, 3, 2, 4])
        assert abs(loss - np.log(5)) < 1e-12

    def test_three_sample_oracle(self):
        probs = np.array([[0.7, 0.2, 0.1],
                          [0.1, 0.8, 0.1],
                          [0.25, 0.25, 0.5]])
        labels = [0, 2, 2]
        loss, _ = losses.task_loss(probs, labels)
        assert abs(loss - cross_entropy_reference(probs, labels)) < 1e-12

    def test_gradient_is_softmax_residual(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(5, 4))
        labels = rng.integers(0, 4, size=5)
        probs = ndcore.softmax_forward(logits)
        _, grad = losses.task_loss(probs, labels)

        def scalar(lg):
            return losses.task_loss(ndcore.softmax_forward(lg), labels)[0]

        assert rel_error(central_difference(scalar, logits.copy()), grad) < 1e-6


class TestXdomLoss:
    def test_two_identical_samples_zero(self):
        z = np.array([[1.0, 0.0], [1.0, 0.0]])
        ann = losses.BatchAnnotations([1, 1], [0, 0], [False, False])
        loss, _ = losses.xdom_loss(z, ann, losses.LossConfig(temperature=0.3))
        assert abs(loss) < 1e-12

    def test_frozen_four_sample_example(self):
        # two classes along the two axes, domains interleaved; with
        # tau=0.5 and a=b=2 every anchor contributes -log(2e^2/(e^2+3))
        z = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
        ann = losses.BatchAnnotations([0, 0, 1, 1], [0, 1, 0, 1], [False] * 4)
        cfg = losses.LossConfig(temperature=0.5, a=2.0, b=2.0,
                                alpha_mode="numerator_scale")
        loss, _ = losses.xdom_loss(z, ann, cfg)
        closed_form = -4.0 * np.log(2.0 * np.e**2 / (np.e**2 + 3.0))
        assert abs(loss - closed_form) < 1e-12
        assert abs(loss - (-1.4095769065872576)) < 1e-12
        oracle = xdom_reference(z, ann.labels, ann.domains, 0.5, 2.0, 2.0)
        assert abs(loss - oracle) < 1e-12

    @pytest.mark.parametrize("mode", ["numerator_scale", "similarity_scale"])
    def test_matches_brute_force_oracle(self, mode):
        for seed in range(40):
            z, ann = random_batch(seed)
            cfg = losses.LossConfig(temperature=0.23, a=2.7, b=1.9, alpha_mode=mode)
            loss, _ = losses.xdom_loss(z, ann, cfg)
            ref = xdom_reference(z, ann.labels, ann.domains, 0.23, 2.7, 1.9, mode)
            assert abs(loss - ref) < 1e-10

    def test_supcon_reduction(self):
        for seed in range(40):
            z, ann = random_batch(seed + 1000)
            cfg = losses.LossConfig(temperature=0.4, a=1.0, b=1.0)
            loss, _ = losses.xdom_loss(z, ann, cfg)
            assert abs(loss - supcon_reference(z, ann.labels, 0.4)) < 1e-10

    @pytest.mark.parametrize("mode", ["numerator_scale", "similarity_scale"])
    def test_gradient_finite_differences(self, mode):
        for seed in range(10):
            z, ann = random_batch(seed + 50)
            cfg = losses.LossConfig(temperature=0.31, a=2.2, b=1.6, alpha_mode=mode)
            _, grad = losses.xdom_loss(z, ann, cfg)
            fd = central_difference(lambda v: losses.xdom_loss(v, ann, cfg)[0], z.copy())
            assert rel_error(grad, fd) < 1e-4

    def test_alpha_constancy_in_numerator_mode(self):
        z, ann = random_batch(7, n=6)
        lo = losses.LossConfig(temperature=0.1, a=1.0, b=1.5)
        hi = losses.LossConfig(temperature=0.1, a=3.0, b=1.5)
        loss_lo, grad_lo = losses.xdom_loss(z, ann, lo)
        loss_hi, grad_hi = losses.xdom_loss(z, ann, hi)
        assert np.array_equal(grad_lo, grad_hi)

        same = ann.labels[:, None] == ann.labels[None, :]
        off = ~np.eye(len(ann), dtype=bool)
        cross = same & off & (ann.domains[:, None] != ann.domains[None, :])
        n_pos = (same & off).sum(axis=1)
        shift = sum(-np.log(3.0) * cross[i].sum() / n_pos[i]
                    for i in range(len(ann)) if n_pos[i] > 0)
        assert abs((loss_hi - loss_lo) - shift) < 1e-10

    def test_beta_strictly_increases_loss_with_intra_domain_negatives(self):
        z = random_unit_rows(np.random.default_rng(3), 4, 3)
        ann = losses.BatchAnnotations([0, 0, 1, 1], [0, 0, 0, 1], [False] * 4)
        base, _ = losses.xdom_loss(z, ann, losses.LossConfig(temperature=0.2, b=1.0))
        boosted, _ = losses.xdom_loss(z, ann, losses.LossConfig(temperature=0.2, b=2.5))
        assert boosted > base

    def test_beta_inert_without_intra_domain_negatives(self):
        # each domain expresses a single class: no same-domain negative pairs
        z = random_unit_rows(np.random.default_rng(4), 4, 3)
        ann = losses.BatchAnnotations([0, 0, 1, 1], [0, 0, 1, 1], [False] * 4)
        base, gb = losses.xdom_loss(z, ann, losses.LossConfig(temperature=0.2, b=1.0))
        boosted, gb2 = losses.xdom_loss(z, ann, losses.LossConfig(temperature=0.2, b=4.0))
        assert abs(boosted - base) < 1e-12
        assert np.array_equal(gb, gb2)

    def test_no_positive_anchors_scores_zero(self):
        z = random_unit_rows(np.random.default_rng(5), 3, 3)
        ann = losses.BatchAnnotations([0, 1, 2], [0, 1, 0], [False] * 3)
        loss, grad = losses.xdom_loss(z, ann, losses.LossConfig())
        assert loss == 0.0 and not grad.any()

    def test_too_small_batch(self):
        with pytest.raises(BatchTooSmallError):
            losses.xdom_loss(np.ones((1, 2)), losses.BatchAnnotations([0], [0], [False]),
                             losses.LossConfig())
        z = random_unit_rows(np.random.default_rng(3), 3, 2)
        with pytest.raises(ContractError, match="annotations cover 2 samples, z has 3"):
            losses.xdom_loss(z, losses.BatchAnnotations([0, 1], [0, 0], [False] * 2),
                             losses.LossConfig())

    def test_non_unit_rows_rejected(self):
        z = np.array([[2.0, 0.0], [1.0, 0.0]])
        with pytest.raises(ContractError):
            losses.xdom_loss(z, losses.BatchAnnotations([0, 0], [0, 1], [False] * 2),
                             losses.LossConfig())

    def test_nan_row_rejected(self):
        # a NaN norm fails every comparison, so "deviation > tol" let it through
        z = np.array([[1.0, 0.0], [np.nan, 0.0], [0.0, 1.0]])
        with pytest.raises(ContractError, match="row 1"):
            losses.xdom_loss(z, losses.BatchAnnotations([0, 0, 1], [0, 1, 0], [False] * 3),
                             losses.LossConfig())

    def test_permutation_invariance(self):
        z, ann = random_batch(11, n=7)
        cfg = losses.LossConfig(temperature=0.15, a=1.8, b=2.1)
        loss, grad = losses.xdom_loss(z, ann, cfg)
        perm = np.random.default_rng(1).permutation(7)
        ann_p = losses.BatchAnnotations(ann.labels[perm], ann.domains[perm],
                                        ann.linked_mask[perm])
        loss_p, grad_p = losses.xdom_loss(z[perm], ann_p, cfg)
        assert abs(loss - loss_p) < 1e-12
        assert np.abs(grad[perm] - grad_p).max() < 1e-12

    def test_gram_buffer_gives_the_same_bytes(self):
        # one buffer across calls of several sizes, as a training's short
        # last batch and the block and by-row paths use it
        cfg = losses.LossConfig(temperature=0.3, a=1.5, b=1.2)
        buffer = losses.GramBuffer()
        for seed, n in ((1, 100), (2, 37), (3, 130), (4, 100)):
            z, ann = random_batch(seed, n=n)
            loss, grad = losses.xdom_loss(z, ann, cfg, gram_buffer=buffer)
            ref_loss, ref_grad = losses.xdom_loss(z, ann, cfg)
            assert loss == ref_loss and grad.tobytes() == ref_grad.tobytes(), n
        assert buffer._flat.size == 130 * 136

    def test_buffer_size_restored_after_blocked_call(self, monkeypatch):
        # past one block the loop runs with numpy's buffer one row long
        # (rounded up to 16); the old size comes back, on error too
        z, ann = random_batch(5, n=100)
        cfg = losses.LossConfig(temperature=0.3, a=1.5, b=1.2)
        before = np.getbufsize()
        losses.xdom_loss(z, ann, cfg)
        assert np.getbufsize() == before
        inside = []

        def failing_exp(*args, **kwargs):
            inside.append(np.getbufsize())
            raise FloatingPointError("injected")

        monkeypatch.setattr(np, "exp", failing_exp)
        with pytest.raises(FloatingPointError, match="injected"):
            losses.xdom_loss(z, ann, cfg)
        assert inside == [112] and np.getbufsize() == before

    def test_log_alpha_row_sums_keep_their_order(self):
        # one class, every sample in its own domain: each row sums 127
        # log(a) terms, and that row sum often differs from 127 * log(a)
        labels, domains = np.zeros(128, dtype=np.int64), np.arange(128)
        ann = losses.BatchAnnotations(labels, domains, np.zeros(128, dtype=bool))
        cfg = losses.LossConfig(temperature=3.7, a=2.7)
        for seed in range(20):
            z = random_unit_rows(np.random.default_rng(seed), 128, 8)
            assert losses.xdom_loss(z, ann, cfg)[0] == ref_xdom_loss(z, ann, cfg)[0]


class TestFairLoss:
    def test_symmetric_batch_zero(self):
        probs = np.array([[0.6, 0.4], [0.6, 0.4], [0.6, 0.4], [0.6, 0.4]])
        labels = [0, 1, 0, 1]
        linked = [True, True, False, False]
        loss, grad = losses.fair_loss(probs, labels, linked)
        assert loss == 0.0 and not grad.any()

    def test_single_group_zero(self):
        probs = np.full((3, 2), 0.5)
        loss, grad = losses.fair_loss(probs, [0, 1, 0], [False, False, False])
        assert loss == 0.0 and not grad.any()
        loss, grad = losses.fair_loss(probs, [0, 1, 0], [True, True, True])
        assert loss == 0.0 and not grad.any()

    def test_four_sample_oracle(self):
        probs = np.array([[0.7, 0.2, 0.1],
                          [0.2, 0.5, 0.3],
                          [0.1, 0.1, 0.8],
                          [0.3, 0.4, 0.3]])
        labels = [0, 1, 2, 1]
        linked = [True, True, False, False]
        loss, _ = losses.fair_loss(probs, labels, linked)
        assert abs(loss - fair_reference(probs, labels, linked)) < 1e-12

    def test_oracle_on_random_batches(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            n, c = int(rng.integers(2, 9)), int(rng.integers(2, 5))
            probs = ndcore.softmax_forward(rng.normal(size=(n, c)))
            labels = rng.integers(0, c, size=n)
            linked = rng.random(n) < 0.5
            loss, _ = losses.fair_loss(probs, labels, linked)
            assert abs(loss - fair_reference(probs, labels, linked)) < 1e-12

    def test_gradient_finite_differences(self):
        rng = np.random.default_rng(23)
        logits = rng.normal(size=(6, 4))
        labels = rng.integers(0, 4, size=6)
        linked = np.array([1, 0, 1, 0, 0, 1], bool)
        probs = ndcore.softmax_forward(logits)
        _, grad = losses.fair_loss(probs, labels, linked)

        def scalar(lg):
            return losses.fair_loss(ndcore.softmax_forward(lg), labels, linked)[0]

        assert rel_error(central_difference(scalar, logits.copy()), grad) < 1e-4

    def test_tie_uses_zero_subgradient(self):
        probs = np.array([[0.5, 0.5], [0.5, 0.5]])
        loss, grad = losses.fair_loss(probs, [0, 1], [True, False])
        assert loss == 0.0 and not grad.any()


class TestFondLoss:
    @pytest.mark.parametrize("variant", losses.VARIANTS)
    def test_forward_probs_match_logits_path_bytes(self, variant):
        # fond_loss computes one softmax and shares it between the task and
        # fairness terms; the result must equal the composition of the
        # three public terms, each on its own softmax, byte for byte
        net = networks.NetworkConfig(input_dim=5, num_classes=4, feature_dim=6,
                                     projection_dim=3, f_hidden=(7,), p_hidden=(8,))
        rng = np.random.default_rng(35)
        fp = networks.forward_pass(networks.init_params(net, 3), rng.normal(size=(16, 5)),
                                   dropout_rate=0.2, dropout_rng=rng)
        ann = losses.BatchAnnotations(rng.integers(0, 4, size=16),
                                      rng.integers(0, 3, size=16), rng.random(16) < 0.5)
        cfg = losses.LossConfig(temperature=0.2, a=2.0, b=1.5, lambda_xdom=0.4,
                                lambda_fair=0.7, variant=variant)
        out = losses.fond_loss(fp.logits, fp.z, ann, cfg)

        r = cfg.resolved()
        probs = ndcore.softmax_forward(fp.logits)
        task, grad_logits = losses.task_loss(probs, ann.labels)
        total, xdom, fair, grad_z = task, 0.0, 0.0, None
        if r.lambda_xdom > 0:
            xdom, g_z = losses.xdom_loss(fp.z, ann, r)
            grad_z = r.lambda_xdom * g_z
            total = total + r.lambda_xdom * xdom
        if r.lambda_fair > 0:
            fair, g_fair = losses.fair_loss(probs, ann.labels, ann.linked_mask)
            grad_logits = grad_logits + r.lambda_fair * g_fair
            total = total + r.lambda_fair * fair

        ce = -np.log(probs[np.arange(16), ann.labels])
        assert (out.total, out.task, out.xdom, out.fair) == (total, task, xdom, fair)
        linked = ann.linked_mask
        assert out.linked_ce == float(ce[linked].sum()) / linked.sum()
        assert out.shared_ce == float(ce[~linked].sum()) / (~linked).sum()
        assert out.grad_logits.tobytes() == grad_logits.tobytes()
        assert (out.grad_z is None) == (grad_z is None)
        if grad_z is not None:
            assert out.grad_z.tobytes() == grad_z.tobytes()

    def test_erm_reduction_exact(self):
        z, ann = random_batch(31, n=6)
        logits = np.random.default_rng(1).normal(size=(6, 3))
        cfg = losses.LossConfig(variant="erm", lambda_xdom=1.0, lambda_fair=1.0)
        out = losses.fond_loss(logits, z, ann, cfg)
        task, grad = losses.task_loss(ndcore.softmax_forward(logits), ann.labels)
        assert out.total == task
        assert np.array_equal(out.grad_logits, grad)
        assert out.grad_z is None
        assert out.xdom == 0.0 and out.fair == 0.0

    def test_supcon_regularized_erm(self):
        z, ann = random_batch(32, n=6)
        logits = np.random.default_rng(2).normal(size=(6, 3))
        cfg = losses.LossConfig(variant="fond_fba", a=3.0, b=2.0,
                                lambda_xdom=0.6, lambda_fair=0.9, temperature=0.2)
        out = losses.fond_loss(logits, z, ann, cfg)
        expected = (losses.task_loss(ndcore.softmax_forward(logits), ann.labels)[0]
                    + 0.6 * supcon_reference(z, ann.labels, 0.2))
        assert abs(out.total - expected) < 1e-10
        assert out.fair == 0.0

    def test_component_sum(self):
        z, ann = random_batch(33, n=7)
        logits = np.random.default_rng(3).normal(size=(7, 3))
        cfg = losses.LossConfig(temperature=0.3, a=2.0, b=1.5,
                                lambda_xdom=0.8, lambda_fair=0.7)
        out = losses.fond_loss(logits, z, ann, cfg)
        assert abs(out.total - (out.task + 0.8 * out.xdom + 0.7 * out.fair)) < 1e-12

    def test_full_gradient_finite_differences(self):
        z, ann = random_batch(34, n=6, d=3)
        rng = np.random.default_rng(4)
        logits = rng.normal(size=(6, 3))
        cfg = losses.LossConfig(temperature=0.25, a=2.0, b=1.8,
                                lambda_xdom=0.5, lambda_fair=0.6)
        out = losses.fond_loss(logits, z, ann, cfg)
        fd_logits = central_difference(
            lambda lg: losses.fond_loss(lg, z, ann, cfg).total, logits.copy())
        fd_z = central_difference(
            lambda v: losses.fond_loss(logits, v, ann, cfg).total, z.copy())
        assert rel_error(out.grad_logits, fd_logits) < 1e-4
        assert rel_error(out.grad_z, fd_z) < 1e-4

    def test_lambda_fair_zero_matches_variant_bitwise(self):
        z, ann = random_batch(35, n=6)
        logits = np.random.default_rng(5).normal(size=(6, 3))
        full = losses.LossConfig(variant="fond", temperature=0.2, a=2.0, b=1.5,
                                 lambda_xdom=0.4, lambda_fair=0.0)
        ablated = losses.LossConfig(variant="fond_f", temperature=0.2, a=2.0, b=1.5,
                                    lambda_xdom=0.4, lambda_fair=0.9)
        out_full = losses.fond_loss(logits, z, ann, full)
        out_ablated = losses.fond_loss(logits, z, ann, ablated)
        assert out_full.total == out_ablated.total
        assert np.array_equal(out_full.grad_logits, out_ablated.grad_logits)
        assert np.array_equal(out_full.grad_z, out_ablated.grad_z)

    def test_single_sample_batch_has_zero_contrastive_term(self):
        ann = losses.BatchAnnotations([1], [0], [True])
        logits = np.array([[0.3, -0.2, 0.1]])
        z = np.array([[1.0, 0.0]])
        cfg = losses.LossConfig(lambda_xdom=0.5)
        out = losses.fond_loss(logits, z, ann, cfg)
        assert out.xdom == 0.0
        assert out.grad_z is not None and not out.grad_z.any()

    def test_label_out_of_range(self):
        ann = losses.BatchAnnotations([0, 3], [0, 0], [True, False])
        with pytest.raises(ContractError):
            losses.fond_loss(np.zeros((2, 3)), None, ann, losses.LossConfig())
        with pytest.raises(ContractError, match="empty batch"):
            losses.fond_loss(np.zeros((0, 3)), None, losses.BatchAnnotations([], [], []),
                             losses.LossConfig())


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 100_000))
def test_supcon_equivalence_property(seed):
    z, ann = random_batch(seed)
    cfg = losses.LossConfig(temperature=0.35, a=1.0, b=1.0)
    loss, _ = losses.xdom_loss(z, ann, cfg)
    assert abs(loss - supcon_reference(z, ann.labels, 0.35)) < 1e-10


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 100_000))
def test_scalar_losses_permutation_invariant_property(seed):
    rng = np.random.default_rng(seed)
    z, ann = random_batch(seed)
    n = len(ann)
    logits = rng.normal(size=(n, 4))
    labels = rng.integers(0, 4, size=n)
    ann = losses.BatchAnnotations(labels, ann.domains, ann.linked_mask)
    cfg = losses.LossConfig(temperature=0.3, a=1.7, b=1.3,
                            lambda_xdom=0.5, lambda_fair=0.5)
    perm = rng.permutation(n)
    out = losses.fond_loss(logits, z, ann, cfg)
    out_p = losses.fond_loss(
        logits[perm], z[perm],
        losses.BatchAnnotations(labels[perm], ann.domains[perm], ann.linked_mask[perm]),
        cfg)
    assert abs(out.total - out_p.total) < 1e-12
    assert np.abs(out.grad_logits[perm] - out_p.grad_logits).max() < 1e-12


@settings(max_examples=150, deadline=None)
@given(n=st.one_of(st.integers(2, 300), st.sampled_from([63, 64, 65, 129, 1000, 1024])),
       d=st.integers(2, 33), seed=st.integers(0, 2**31),
       n_classes=st.integers(1, 40), n_domains=st.integers(1, 6),
       all_skipped=st.booleans(),
       domain_mode=st.sampled_from(["drawn", "single", "one_per_row"]),
       lonely=st.integers(0, 5),
       far_ids=st.booleans(),
       block_rows=st.sampled_from([16, 64, 128]),
       temperature=st.sampled_from([0.05, 0.1, 0.23, 1.0, 3.7]),
       a=st.sampled_from([1.0, 1.5, 2.7]), b=st.sampled_from([1.0, 1.9, 4.0]),
       mode=st.sampled_from(losses.ALPHA_MODES))
def test_xdom_loss_bit_identical_to_frozen_full_matrix(n, d, seed, n_classes, n_domains,
                                                      all_skipped, domain_mode, lonely,
                                                      far_ids, block_rows, temperature,
                                                      a, b, mode):
    # batches up to 1024 span several row blocks, often with a partial
    # last block; many classes leave anchors without positives, and
    # `lonely` rows get a class of their own inside otherwise full blocks.
    # Masks are keyed by (class, domain) pair, so the ids go far from
    # 0..C, and every row may be its own pair, or every row in one domain.
    rng = np.random.default_rng(seed)
    z = random_unit_rows(rng, n, d)
    labels = rng.permutation(n) if all_skipped else rng.integers(0, n_classes, size=n)
    labels[rng.choice(n, size=min(lonely, n), replace=False)] = n + np.arange(min(lonely, n))
    domains = {"drawn": rng.integers(0, n_domains, size=n),
               "single": np.zeros(n, dtype=np.int64),
               "one_per_row": rng.permutation(n)}[domain_mode]
    if far_ids:
        labels, domains = labels * 10**9 - 2**62, domains * 3**30 + 2**50
    ann = losses.BatchAnnotations(labels, domains, np.zeros(n, dtype=bool))
    cfg = losses.LossConfig(temperature=temperature, a=a, b=b, alpha_mode=mode)
    with mock.patch.object(losses, "XDOM_BLOCK_ROWS", block_rows):
        loss, grad = losses.xdom_loss(z, ann, cfg)
    ref_loss, ref_grad = ref_xdom_loss(z, ann, cfg)
    assert np.float64(loss).tobytes() == np.float64(ref_loss).tobytes()
    assert grad.tobytes() == ref_grad.tobytes()


@settings(max_examples=40, deadline=None)
@given(calls=st.lists(st.tuples(st.integers(2, 64), st.integers(65, 300), st.integers(2, 33),
                                st.integers(0, 2**31), st.integers(1, 12), st.integers(1, 4),
                                st.sampled_from([0.1, 0.23, 3.7]),
                                st.sampled_from([1.0, 1.5, 2.7]),
                                st.sampled_from([1.0, 1.9, 4.0])),
                      min_size=4, max_size=8),
       first_mode=st.integers(0, 1))
def test_one_gram_buffer_across_calls_bit_identical_to_frozen(calls, first_mode):
    # a training passes one GramBuffer to every step; here the calls switch
    # alpha mode each time and batch size every second call, between the
    # by-row path (at most 64 rows) and the keyed, padded one, so the buffer
    # grows, shrinks and changes row length under both modes
    buffer = losses.GramBuffer()
    for k, (small, large, d, seed, n_classes, n_domains, temperature, a, b) \
            in enumerate(calls):
        n = small if k // 2 % 2 == 0 else large
        rng = np.random.default_rng(seed)
        z = random_unit_rows(rng, n, d)
        ann = losses.BatchAnnotations(rng.integers(0, n_classes, size=n),
                                      rng.integers(0, n_domains, size=n),
                                      np.zeros(n, dtype=bool))
        cfg = losses.LossConfig(temperature=temperature, a=a, b=b,
                                alpha_mode=losses.ALPHA_MODES[(k + first_mode) % 2])
        loss, grad = losses.xdom_loss(z, ann, cfg, gram_buffer=buffer)
        ref_loss, ref_grad = ref_xdom_loss(z, ann, cfg)
        assert np.float64(loss).tobytes() == np.float64(ref_loss).tobytes(), k
        assert grad.tobytes() == ref_grad.tobytes(), k
