import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fond import ndcore
from fond.errors import DegenerateInputError, ShapeError

from oracles import central_difference, rel_error


def arrays(rng, *shape):
    return rng.uniform(-1.0, 1.0, size=shape)


class TestAffine:
    def test_identity_weights(self):
        out, _ = ndcore.affine_forward([[1.0, 2.0]], np.eye(2), [0.0, 0.0])
        assert np.array_equal(out, [[1.0, 2.0]])

    def test_zero_input_passes_bias(self):
        out, _ = ndcore.affine_forward([[0.0, 0.0]], [[5.0, -1.0], [2.0, 7.0]], [3.0, 4.0])
        assert np.array_equal(out, [[3.0, 4.0]])

    def test_hand_multiply(self):
        out, _ = ndcore.affine_forward([[1.0, 1.0]], [[2.0, 3.0], [4.0, 5.0]], [1.0, 1.0])
        assert np.array_equal(out, [[7.0, 9.0]])

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(1, 3\).*\(2, 2\)"):
            ndcore.affine_forward(np.ones((1, 3)), np.ones((2, 2)), np.ones(2))
        with pytest.raises(ShapeError):
            ndcore.affine_forward(np.ones((1, 2)), np.ones((2, 2)), np.ones(3))

    def test_backward_zero_upstream(self):
        rng = np.random.default_rng(0)
        out, cache = ndcore.affine_forward(arrays(rng, 3, 4), arrays(rng, 4, 2), arrays(rng, 2))
        gx, gw, gb = ndcore.affine_backward(np.zeros_like(out), cache)
        assert not gx.any() and not gw.any() and not gb.any()

    def test_backward_scalar_chain(self):
        out, cache = ndcore.affine_forward([[2.0]], [[3.0]], [0.0])
        gx, gw, gb = ndcore.affine_backward([[1.0]], cache)
        assert gw[0, 0] == 2.0 and gx[0, 0] == 3.0 and gb[0] == 1.0

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        x, w, b = arrays(rng, 3, 4), arrays(rng, 4, 2), arrays(rng, 2)
        upstream = arrays(rng, 3, 2)

        def scalar(xx, ww, bb):
            out, _ = ndcore.affine_forward(xx, ww, bb)
            return float((out * upstream).sum())

        _, cache = ndcore.affine_forward(x, w, b)
        gx, gw, gb = ndcore.affine_backward(upstream, cache)
        assert rel_error(central_difference(lambda v: scalar(v, w, b), x.copy()), gx) < 1e-6
        assert rel_error(central_difference(lambda v: scalar(x, v, b), w.copy()), gw) < 1e-6
        assert rel_error(central_difference(lambda v: scalar(x, w, v), b.copy()), gb) < 1e-6

    def test_backward_upstream_shape_checked(self):
        _, cache = ndcore.affine_forward(np.ones((2, 2)), np.ones((2, 3)), np.ones(3))
        with pytest.raises(ShapeError):
            ndcore.affine_backward(np.ones((2, 2)), cache)


class TestReluSoftmax:
    def test_relu_clips_negatives(self):
        out, _ = ndcore.relu_forward([[-1.0, 0.0, 2.0]])
        assert np.array_equal(out, [[0.0, 0.0, 2.0]])

    def test_relu_backward_finite_differences(self):
        rng = np.random.default_rng(2)
        x = arrays(rng, 4, 3)
        x[np.abs(x) < 1e-3] = 0.5  # keep probes away from the kink
        upstream = arrays(rng, 4, 3)
        _, cache = ndcore.relu_forward(x)
        grad = ndcore.relu_backward(upstream, cache)

        def scalar(v):
            out, _ = ndcore.relu_forward(v)
            return float((out * upstream).sum())

        assert rel_error(central_difference(scalar, x.copy()), grad) < 1e-6

        # at the kink: exact zeros, -0.0 and NaN pass no gradient, bit for bit
        x = np.array([[0.0, -0.0, np.nan, 5e-324, -5e-324, 2.0]])
        upstream = np.array([[1.5, -2.0, 3.0, -4.0, 5.0, -6.0]])
        _, cache = ndcore.relu_forward(x)
        want = upstream * (x > 0.0)
        assert ndcore.relu_backward(upstream, cache).tobytes() == want.tobytes()

    def test_softmax_symmetry(self):
        out = ndcore.softmax_forward([[0.0, 0.0, 0.0]])
        assert np.allclose(out, 1.0 / 3.0, atol=1e-15)

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(3)
        out = ndcore.softmax_forward(rng.normal(size=(5, 7)) * 10)
        assert np.abs(out.sum(axis=1) - 1.0).max() <= 1e-12

    def test_softmax_shift_invariance(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(4, 5))
        a = ndcore.softmax_forward(x)
        b = ndcore.softmax_forward(x + 123.456)
        assert np.abs(a - b).max() <= 1e-12


class TestNormalize:
    def test_three_four_five(self):
        out, _ = ndcore.l2_normalize_rows([[3.0, 4.0]])
        assert np.allclose(out, [[0.6, 0.8]], atol=1e-15)

    def test_idempotent_on_unit_rows(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(6, 3))
        once, _ = ndcore.l2_normalize_rows(x)
        twice, _ = ndcore.l2_normalize_rows(once)
        assert np.abs(once - twice).max() <= 1e-15

    def test_zero_row_rejected(self):
        with pytest.raises(DegenerateInputError, match="row 1"):
            ndcore.l2_normalize_rows([[1.0, 0.0], [0.0, 0.0]])

    def test_unit_norm_within_tolerance(self):
        rng = np.random.default_rng(6)
        out, _ = ndcore.l2_normalize_rows(rng.normal(size=(8, 5)))
        norms = np.sqrt((out * out).sum(axis=1))
        assert np.abs(norms - 1.0).max() <= 1e-12

    def test_backward_finite_differences(self):
        rng = np.random.default_rng(7)
        x = arrays(rng, 4, 3) + 0.5
        upstream = arrays(rng, 4, 3)
        _, cache = ndcore.l2_normalize_rows(x)
        grad = ndcore.l2_normalize_backward(upstream, cache)

        def scalar(v):
            out, _ = ndcore.l2_normalize_rows(v)
            return float((out * upstream).sum())

        assert rel_error(central_difference(scalar, x.copy()), grad) < 1e-4


class TestDeterminismAndValidation:
    def test_forward_ops_bit_identical(self):
        rng = np.random.default_rng(8)
        x, w, b = arrays(rng, 3, 3), arrays(rng, 3, 2), arrays(rng, 2)
        a1, _ = ndcore.affine_forward(x, w, b)
        a2, _ = ndcore.affine_forward(x.copy(), w.copy(), b.copy())
        assert np.array_equal(a1, a2)
        s1 = ndcore.softmax_forward(x)
        s2 = ndcore.softmax_forward(x.copy())
        assert np.array_equal(s1, s2)

    def test_rank_validation(self):
        with pytest.raises(ShapeError):
            ndcore.as_matrix(np.ones(3), "x")
        with pytest.raises(ShapeError):
            ndcore.as_vector(np.ones((2, 2)), "b")

    def test_non_finite_rejected(self):
        with np.errstate(over="ignore"), pytest.raises(DegenerateInputError):
            ndcore.affine_forward([[1e308, 1e308]], [[2.0], [2.0]], [0.0])


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.integers(1, 4), st.integers(0, 10_000))
def test_affine_backward_property(rows, inner, cols, seed):
    rng = np.random.default_rng(seed)
    x, w, b = arrays(rng, rows, inner), arrays(rng, inner, cols), arrays(rng, cols)
    upstream = arrays(rng, rows, cols)
    _, cache = ndcore.affine_forward(x, w, b)
    gx, gw, gb = ndcore.affine_backward(upstream, cache)

    def scalar(xx, ww, bb):
        out, _ = ndcore.affine_forward(xx, ww, bb)
        return float((out * upstream).sum())

    assert rel_error(central_difference(lambda v: scalar(v, w, b), x.copy()), gx) < 1e-4
    assert rel_error(central_difference(lambda v: scalar(x, v, b), w.copy()), gw) < 1e-4
    assert rel_error(central_difference(lambda v: scalar(x, w, v), b.copy()), gb) < 1e-4


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 5), st.integers(2, 4), st.integers(0, 10_000))
def test_normalize_backward_property(rows, cols, seed):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, size=(rows, cols))
    x[np.abs(x).sum(axis=1) < 0.5] += 1.0  # keep rows well away from zero norm
    upstream = rng.uniform(-1.0, 1.0, size=(rows, cols))
    _, cache = ndcore.l2_normalize_rows(x)
    grad = ndcore.l2_normalize_backward(upstream, cache)

    def scalar(v):
        out, _ = ndcore.l2_normalize_rows(v)
        return float((out * upstream).sum())

    assert rel_error(central_difference(scalar, x.copy()), grad) < 1e-4
