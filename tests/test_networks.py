import numpy as np
import pytest

from fond import losses, ndcore, networks
from fond.errors import ConfigError, ContractError, DegenerateInputError, ShapeError

from oracles import central_difference, rel_error

SMALL = networks.NetworkConfig(input_dim=5, num_classes=4, feature_dim=6,
                               projection_dim=3, f_hidden=(7,), p_hidden=(16,))


class TestConfig:
    def test_rejects_nonpositive_dims(self):
        with pytest.raises(ConfigError):
            networks.NetworkConfig(input_dim=0, num_classes=3)
        with pytest.raises(ConfigError):
            networks.NetworkConfig(input_dim=4, num_classes=3, f_hidden=(0,))

    def test_projection_not_wider_than_features(self):
        with pytest.raises(ConfigError):
            networks.NetworkConfig(input_dim=4, num_classes=3,
                                   feature_dim=8, projection_dim=9)

    def test_identity_configs_constrain_dims(self):
        with pytest.raises(ConfigError):
            networks.NetworkConfig(input_dim=4, num_classes=3, feature_dim=5,
                                   identity_features=True)
        with pytest.raises(ConfigError):
            networks.NetworkConfig(input_dim=4, num_classes=3, feature_dim=4,
                                   projection_dim=3, identity_projection=True)

    def test_layer_dims(self):
        assert SMALL.f_layer_dims() == [(5, 7), (7, 6)]
        assert SMALL.p_layer_dims() == [(6, 16), (16, 3)]


class TestInit:
    def test_same_seed_bit_identical(self):
        a = networks.init_params(SMALL, 13)
        b = networks.init_params(SMALL, 13)
        assert a.tensors().keys() == b.tensors().keys()
        for k in a.tensors():
            assert np.array_equal(a.tensors()[k], b.tensors()[k])

    def test_different_seeds_differ(self):
        a = networks.init_params(SMALL, 1)
        b = networks.init_params(SMALL, 2)
        assert any(not np.array_equal(a.tensors()[k], b.tensors()[k])
                   for k in a.tensors() if ".w" in k)

    def test_weights_within_glorot_bound(self):
        params = networks.init_params(SMALL, 7)
        for (fan_in, fan_out), i in zip(SMALL.f_layer_dims(), range(10)):
            lim = np.sqrt(6.0 / (fan_in + fan_out))
            w = params.tensors()[f"f.w{i}"]
            assert np.abs(w).max() <= lim
        lim = np.sqrt(6.0 / (SMALL.feature_dim + SMALL.num_classes))
        assert np.abs(params.tensors()["g.w"]).max() <= lim

    def test_biases_zero(self):
        params = networks.init_params(SMALL, 7)
        for k, v in params.tensors().items():
            if ".b" in k:
                assert not v.any()

    def test_clone_is_independent(self):
        params = networks.init_params(SMALL, 7)
        other = params.clone()
        other.tensors()["g.w"][0, 0] += 1.0
        assert params.tensors()["g.w"][0, 0] != other.tensors()["g.w"][0, 0]


class TestForward:
    def test_identity_features_pass_input_through(self):
        cfg = networks.NetworkConfig(input_dim=4, num_classes=3, feature_dim=4,
                                     projection_dim=3, identity_features=True)
        params = networks.init_params(cfg, 0)
        x = np.random.default_rng(0).normal(size=(5, 4))
        assert np.array_equal(networks.forward_features(params, x), x)

    def test_identity_projection_is_pure_normalization(self):
        cfg = networks.NetworkConfig(input_dim=4, num_classes=3, feature_dim=4,
                                     projection_dim=4, identity_projection=True)
        params = networks.init_params(cfg, 0)
        h = np.random.default_rng(1).normal(size=(5, 4))
        unit, _ = ndcore.l2_normalize_rows(h)
        assert np.abs(networks.forward_projection(params, unit) - unit).max() <= 1e-15

    def test_projection_rows_unit_norm(self):
        params = networks.init_params(SMALL, 3)
        h = networks.forward_features(params, np.random.default_rng(2).normal(size=(6, 5)))
        z = networks.forward_projection(params, h)
        assert z.shape == (6, SMALL.projection_dim)
        assert np.abs(np.sqrt((z * z).sum(axis=1)) - 1.0).max() <= 1e-12

    def test_zero_projection_row_raises(self):
        cfg = networks.NetworkConfig(input_dim=3, num_classes=3, feature_dim=3,
                                     projection_dim=3, identity_projection=True)
        params = networks.init_params(cfg, 0)
        with pytest.raises(DegenerateInputError):
            networks.forward_projection(params, np.zeros((2, 3)))

    def test_classifier_uniform_at_zero_weights(self):
        params = networks.init_params(SMALL, 5)
        params.tensors()["g.w"][:] = 0.0
        logits, probs = networks.forward_classifier(params, np.ones((3, 6)))
        assert np.allclose(probs, 1.0 / SMALL.num_classes, atol=1e-15)
        assert np.abs(probs.sum(axis=1) - 1.0).max() <= 1e-12
        assert logits.shape == (3, SMALL.num_classes)

    def test_argmax_agrees_between_logits_and_probs(self):
        params = networks.init_params(SMALL, 6)
        rng = np.random.default_rng(3)
        h = rng.normal(size=(10, 6))
        logits, probs = networks.forward_classifier(params, h)
        assert np.array_equal(np.argmax(logits, axis=1), np.argmax(probs, axis=1))

    def test_input_width_checked(self):
        params = networks.init_params(SMALL, 6)
        with pytest.raises(ShapeError):
            networks.forward_features(params, np.ones((2, 9)))
        with pytest.raises(ShapeError):
            networks.forward_projection(params, np.ones((2, 9)))
        with pytest.raises(ShapeError):
            networks.forward_classifier(params, np.ones((2, 9)))

    def test_fixed_seed_twice_bit_identical(self):
        x = np.random.default_rng(4).normal(size=(4, 5))
        h1 = networks.forward_features(networks.init_params(SMALL, 11), x)
        h2 = networks.forward_features(networks.init_params(SMALL, 11), x)
        assert np.array_equal(h1, h2)


class TestGradients:
    def test_feature_entry_grad_wrt_f_parameter(self):
        # probe d<h, u>/d theta for a fixed linear functional u of the features
        params = networks.init_params(SMALL, 8)
        x = np.random.default_rng(5).normal(size=(3, 5))
        upstream_h = np.random.default_rng(6).normal(size=(3, SMALL.feature_dim))

        def scalar(theta, name):
            saved = params.tensors()[name].copy()
            params.tensors()[name][:] = theta
            h = networks.forward_features(params, x)
            params.tensors()[name][:] = saved
            return float((h * upstream_h).sum())

        fp = networks.forward_pass(params, x)
        from fond.networks import _mlp_backward
        _, f_grads = _mlp_backward(upstream_h, fp._f_caches)
        for i, name in enumerate(["f.w0", "f.w1"]):
            fd = central_difference(
                lambda th, nm=name: scalar(th, nm), params.tensors()[name].copy())
            assert rel_error(f_grads[i][0], fd) < 1e-4

    def test_end_to_end_task_gradient_every_parameter(self):
        params = networks.init_params(SMALL, 9)
        rng = np.random.default_rng(7)
        x = rng.normal(size=(6, 5))
        labels = rng.integers(0, 4, size=6)

        def loss_value():
            fp = networks.forward_pass(params, x)
            return losses.task_loss(fp.probs, labels)[0]

        fp = networks.forward_pass(params, x)
        _, grad_logits = losses.task_loss(fp.probs, labels)
        grads = networks.backward_pass(fp, grad_logits, None)

        for name, theta in params.tensors().items():
            def scalar(v, nm=name):
                saved = params.tensors()[nm].copy()
                params.tensors()[nm][:] = v
                out = loss_value()
                params.tensors()[nm][:] = saved
                return out

            fd = central_difference(scalar, theta.copy())
            assert rel_error(grads[name], fd, floor=1e-7) < 1e-4, name

    def test_projection_gradient_through_normalization(self):
        params = networks.init_params(SMALL, 10)
        rng = np.random.default_rng(8)
        x = rng.normal(size=(5, 5))
        w = rng.normal(size=(5, SMALL.projection_dim))

        def scalar_for(name):
            def scalar(v):
                saved = params.tensors()[name].copy()
                params.tensors()[name][:] = v
                fp = networks.forward_pass(params, x)
                params.tensors()[name][:] = saved
                return float((fp.z * w).sum())
            return scalar

        fp = networks.forward_pass(params, x)
        grads = networks.backward_pass(fp, None, w)
        for name in ("p.w0", "p.w1", "p.b0", "f.w0"):
            fd = central_difference(scalar_for(name), params.tensors()[name].copy())
            assert rel_error(grads[name], fd, floor=1e-7) < 1e-4, name

    def test_none_upstreams_give_zero_grads_with_stable_keys(self):
        params = networks.init_params(SMALL, 11)
        fp = networks.forward_pass(params, np.random.default_rng(9).normal(size=(3, 5)))
        grads = networks.backward_pass(fp, None, None)
        assert set(grads) == set(params.tensors())
        assert all(not g.any() for g in grads.values())

    def test_skipped_projection_leaves_classifier_path_unchanged(self):
        params = networks.init_params(SMALL, 11)
        x = np.random.default_rng(9).normal(size=(3, 5))
        full = networks.forward_pass(params, x, 0.5, np.random.default_rng(4))
        bare = networks.forward_pass(params, x, 0.5, np.random.default_rng(4),
                                     project=False)
        assert bare.z is None
        assert np.array_equal(bare.h, full.h) and np.array_equal(bare.probs, full.probs)
        grad_logits = np.ones_like(bare.logits)
        for name, g in networks.backward_pass(bare, grad_logits, None).items():
            assert np.array_equal(g, networks.backward_pass(full, grad_logits, None)[name])
        with pytest.raises(ContractError):
            networks.backward_pass(bare, grad_logits, np.ones_like(full.z))


class TestDropout:
    def test_rate_zero_needs_no_rng_and_changes_nothing(self):
        params = networks.init_params(SMALL, 12)
        x = np.random.default_rng(10).normal(size=(4, 5))
        fp = networks.forward_pass(params, x, dropout_rate=0.0, dropout_rng=None)
        assert np.array_equal(fp.h, networks.forward_features(params, x))

    def test_rate_positive_requires_rng(self):
        params = networks.init_params(SMALL, 12)
        with pytest.raises(ContractError):
            networks.forward_pass(params, np.ones((2, 5)), dropout_rate=0.3)

    def test_mask_is_seed_deterministic_and_inverted(self):
        params = networks.init_params(SMALL, 12)
        x = np.random.default_rng(11).normal(size=(8, 5))
        a = networks.forward_pass(params, x, 0.5, np.random.default_rng(77))
        b = networks.forward_pass(params, x, 0.5, np.random.default_rng(77))
        assert np.array_equal(a.h, b.h)
        h_clean = networks.forward_features(params, x)
        kept = a.h != 0.0
        assert np.allclose(a.h[kept], h_clean[kept] / 0.5, atol=1e-12)

    def test_both_heads_consume_dropped_features(self):
        params = networks.init_params(SMALL, 12)
        x = np.random.default_rng(12).normal(size=(4, 5))
        fp = networks.forward_pass(params, x, 0.5, np.random.default_rng(3))
        logits, _ = networks.forward_classifier(params, fp.h)
        assert np.array_equal(logits, fp.logits)

    def test_invalid_rate_rejected(self):
        params = networks.init_params(SMALL, 12)
        with pytest.raises(ConfigError):
            networks.forward_pass(params, np.ones((2, 5)), dropout_rate=1.0)


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        params = networks.init_params(SMALL, 21)
        # make values less regular than raw init
        for v in params.tensors().values():
            v += np.random.default_rng(0).normal(size=v.shape) * 0.1
        path = tmp_path / "model.npz"
        networks.save_checkpoint(params, path)
        loaded = networks.load_checkpoint(path)
        assert loaded.config == params.config
        assert loaded.seed == params.seed
        assert set(loaded.tensors()) == set(params.tensors())
        for k in params.tensors():
            assert np.array_equal(loaded.tensors()[k], params.tensors()[k])

    def test_same_params_same_bytes(self, tmp_path):
        params = networks.init_params(SMALL, 22)
        p1, p2 = tmp_path / "a.npz", tmp_path / "b.npz"
        networks.save_checkpoint(params, p1)
        networks.save_checkpoint(params, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_rejects_non_checkpoint(self, tmp_path):
        path = tmp_path / "junk.npz"
        np.savez(path, a=np.ones(3))
        with pytest.raises(ContractError):
            networks.load_checkpoint(path)
