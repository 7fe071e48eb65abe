import numpy as np
import pytest

from fond import cli, losses, ndcore, networks
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
        assert np.array_equal(networks.forward_pass(params, x, project=False).h, x)

    def test_identity_projection_is_pure_normalization(self):
        cfg = networks.NetworkConfig(input_dim=4, num_classes=3, feature_dim=4,
                                     projection_dim=4, identity_features=True,
                                     identity_projection=True)
        params = networks.init_params(cfg, 0)
        h = np.random.default_rng(1).normal(size=(5, 4))
        unit, _ = ndcore.l2_normalize_rows(h)
        assert np.abs(networks.forward_pass(params, unit).z - unit).max() <= 1e-15

    def test_projection_rows_unit_norm(self):
        params = networks.init_params(SMALL, 3)
        z = networks.forward_pass(params, np.random.default_rng(2).normal(size=(6, 5))).z
        assert z.shape == (6, SMALL.projection_dim)
        assert np.abs(np.sqrt((z * z).sum(axis=1)) - 1.0).max() <= 1e-12

    def test_zero_projection_row_raises(self):
        cfg = networks.NetworkConfig(input_dim=3, num_classes=3, feature_dim=3,
                                     projection_dim=3, identity_features=True,
                                     identity_projection=True)
        params = networks.init_params(cfg, 0)
        with pytest.raises(DegenerateInputError):
            networks.forward_pass(params, np.zeros((2, 3)))

    def test_classifier_uniform_at_zero_weights(self):
        params = networks.init_params(SMALL, 5)
        params.tensors()["g.w"][:] = 0.0
        fp = networks.forward_pass(params, np.ones((3, 5)), project=False)
        assert np.allclose(fp.probs, 1.0 / SMALL.num_classes, atol=1e-15)
        assert np.abs(fp.probs.sum(axis=1) - 1.0).max() <= 1e-12
        assert fp.logits.shape == (3, SMALL.num_classes)

    def test_argmax_agrees_between_logits_and_probs(self):
        params = networks.init_params(SMALL, 6)
        fp = networks.forward_pass(params, np.random.default_rng(3).normal(size=(10, 5)))
        assert np.array_equal(np.argmax(fp.logits, axis=1), np.argmax(fp.probs, axis=1))

    def test_input_width_checked(self):
        params = networks.init_params(SMALL, 6)
        for project in (True, False):
            with pytest.raises(ShapeError):
                networks.forward_pass(params, np.ones((2, 9)), project=project)

    def test_fixed_seed_twice_bit_identical(self):
        x = np.random.default_rng(4).normal(size=(4, 5))
        a = networks.forward_pass(networks.init_params(SMALL, 11), x)
        b = networks.forward_pass(networks.init_params(SMALL, 11), x)
        for name in ("h", "z", "logits", "probs"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name

    def test_relu_cache_is_next_layer_input(self):
        # the ReLU output is the next affine layer's input; caching it
        # instead of the pre-activation keeps no extra copy per layer
        cfg = networks.NetworkConfig(input_dim=5, num_classes=4, feature_dim=6,
                                     projection_dim=3, f_hidden=(7, 8), p_hidden=(9,))
        fp = networks.forward_pass(networks.init_params(cfg, 1),
                                   np.random.default_rng(5).normal(size=(4, 5)))
        assert fp._f_caches[0][1] is fp._f_caches[1][0][0]
        assert fp._f_caches[1][1] is fp._f_caches[2][0][0]
        assert fp._p_caches[0][1] is fp._p_caches[1][0][0]


class TestGradients:
    def test_feature_entry_grad_wrt_f_parameter(self):
        # probe d<h, u>/d theta for a fixed linear functional u of the features
        params = networks.init_params(SMALL, 8)
        x = np.random.default_rng(5).normal(size=(3, 5))
        upstream_h = np.random.default_rng(6).normal(size=(3, SMALL.feature_dim))

        def scalar(theta, name):
            saved = params.tensors()[name].copy()
            params.tensors()[name][:] = theta
            h = networks.forward_pass(params, x, project=False).h
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
        # stable key set, in the P, G, F order that trainer.grad_norm sums in
        assert list(grads) == ["p.w0", "p.b0", "p.w1", "p.b1", "g.w", "g.b",
                               "f.w0", "f.b0", "f.w1", "f.b1"]
        assert not any(grads[name].any() for name in grads if name.startswith("p."))

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
        grads = networks.backward_pass(fp, np.zeros_like(fp.logits), w)
        for name in ("p.w0", "p.w1", "p.b0", "f.w0"):
            fd = central_difference(scalar_for(name), params.tensors()[name].copy())
            assert rel_error(grads[name], fd, floor=1e-7) < 1e-4, name

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
        rng = np.random.default_rng(5)
        with_rng = networks.forward_pass(params, x, dropout_rate=0.0, dropout_rng=rng)
        assert fp._dropout_mask is None
        assert np.array_equal(fp.h, with_rng.h)
        assert rng.random() == np.random.default_rng(5).random()

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
        h_clean = networks.forward_pass(params, x).h
        kept = a.h != 0.0
        assert np.allclose(a.h[kept], h_clean[kept] / 0.5, atol=1e-12)

    def test_both_heads_consume_dropped_features(self):
        params = networks.init_params(SMALL, 12)
        x = np.random.default_rng(12).normal(size=(4, 5))
        fp = networks.forward_pass(params, x, 0.5, np.random.default_rng(3))
        logits, _ = ndcore.affine_forward(fp.h, params.tensors()["g.w"],
                                          params.tensors()["g.b"])
        assert np.array_equal(logits, fp.logits)

    def test_invalid_rate_rejected(self):
        params = networks.init_params(SMALL, 12)
        with pytest.raises(ConfigError):
            networks.forward_pass(params, np.ones((2, 5)), dropout_rate=1.0)


class TestFlatStorage:
    def test_views_share_one_vector_in_layout_order(self):
        params = networks.init_params(SMALL, 30)
        layout = networks.param_layout(SMALL)
        assert [(k, v.shape) for k, v in params.tensors().items()] == layout
        assert params.flat.size == sum(v.size for v in params.tensors().values())
        for name, view in params.tensors().items():
            assert np.shares_memory(view, params.flat)
            assert np.array_equal(view.ravel(), params.flat[params.segments[name]])

    def test_tensors_cannot_be_rebound(self):
        params = networks.init_params(SMALL, 31)
        with pytest.raises(TypeError):
            params.tensors()["g.w"] = np.zeros((6, 4))

    def test_clone_has_independent_storage(self):
        params = networks.init_params(SMALL, 32)
        before = params.flat.copy()
        other = params.clone()
        assert not np.shares_memory(other.flat, params.flat)
        other.tensors()["f.w0"][...] = 7.0
        assert np.array_equal(params.flat, before)
        assert np.all(other.flat[other.segments["f.w0"]] == 7.0)

    def test_loaded_checkpoints_have_independent_storage(self, tmp_path):
        path = tmp_path / "model.npz"
        networks.save_checkpoint(networks.init_params(SMALL, 33), path)
        a, b = networks.load_checkpoint(path), networks.load_checkpoint(path)
        assert not np.shares_memory(a.flat, b.flat)
        a.tensors()["g.b"][...] = 3.0
        assert np.all(a.flat[a.segments["g.b"]] == 3.0)
        assert not b.tensors()["g.b"].any()

    def test_rejects_wrong_flat_vector(self):
        with pytest.raises(ShapeError):
            networks.ModelParams(config=SMALL, seed=0, flat=np.zeros(3))


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

    def edited_checkpoint(self, tmp_path, edit):
        path = tmp_path / "model.npz"
        networks.save_checkpoint(networks.init_params(SMALL, 23), path)
        with np.load(path) as archive:
            arrays = {k: archive[k] for k in archive.files}
        edit(arrays)
        edited = tmp_path / "edited.npz"
        np.savez(edited, **arrays)
        return edited

    def test_rejects_missing_tensor(self, tmp_path):
        path = self.edited_checkpoint(tmp_path, lambda a: a.pop("p.b0"))
        with pytest.raises(ContractError, match=r"lacks tensor 'p\.b0'"):
            networks.load_checkpoint(path)

    def test_rejects_extra_tensor(self, tmp_path):
        path = self.edited_checkpoint(tmp_path, lambda a: a.update({"p.w9": np.ones((2, 2))}))
        with pytest.raises(ContractError, match=r"has tensor 'p\.w9'"):
            networks.load_checkpoint(path)

    def test_rejects_wrong_shape(self, tmp_path):
        path = self.edited_checkpoint(tmp_path, lambda a: a.update({"g.w": a["g.w"].T}))
        with pytest.raises(ContractError, match=r"'g\.w' has shape \(4, 6\)"):
            networks.load_checkpoint(path)

    def test_missing_tensor_exits_2(self, tmp_path, capsys):
        ckpt = self.edited_checkpoint(tmp_path, lambda a: a.pop("f.w0"))
        cfg = tmp_path / "config.json"
        cfg.write_text('{"dataset": {"synthetic": {"num_classes": 4, "input_dim": 5}}}')
        code = cli.main(["dump-embeddings", "--config", str(cfg), "--out",
                         str(tmp_path / "emb"), "--checkpoint", str(ckpt)])
        assert code == cli.EXIT_CONFIG
        assert "f.w0" in capsys.readouterr().err

    def test_rejects_non_checkpoint(self, tmp_path):
        path = tmp_path / "junk.npz"
        np.savez(path, a=np.ones(3))
        with pytest.raises(ContractError):
            networks.load_checkpoint(path)
