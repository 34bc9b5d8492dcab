"""Tests for the numeric core: relu, stable softmax, init, finite differences."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from relcnn.numeric import (
    ShapeError,
    glorot_init,
    log_sum_exp,
    relu,
    softmax,
)

from conftest import finite_diff_grad, log_sum_exp_reference


def make_rng(seed: int) -> np.random.Generator:
    """Seeded PCG64 generator: identical seed, identical draw sequence."""
    return np.random.Generator(np.random.PCG64(seed))


class TestRelu:
    def test_known_values(self):
        np.testing.assert_array_equal(
            relu(np.array([-2.0, -0.0, 0.0, 3.5])), [0.0, 0.0, 0.0, 3.5]
        )

    @given(st.integers(0, 2 ** 31 - 1))
    def test_nonnegative_and_idempotent(self, seed):
        x = np.random.default_rng(seed).normal(size=(4, 5))
        y = relu(x)
        assert (y >= 0).all()
        np.testing.assert_array_equal(relu(y), y)
        np.testing.assert_array_equal(y[x > 0], x[x > 0])

    def test_does_not_mutate_input(self):
        x = np.array([-1.0, 2.0])
        relu(x)
        np.testing.assert_array_equal(x, [-1.0, 2.0])


class TestSoftmax:
    def test_uniform_on_equal_scores(self):
        np.testing.assert_allclose(softmax(np.zeros(4)), np.full(4, 0.25), atol=1e-15)

    def test_matches_direct_formula_on_small_inputs(self):
        s = np.array([0.5, -1.25, 2.0])
        direct = np.array([math.exp(v) for v in s])
        direct /= direct.sum()
        np.testing.assert_allclose(softmax(s), direct, rtol=1e-14)

    @given(st.integers(0, 2 ** 31 - 1), st.floats(-50.0, 50.0))
    def test_shift_invariant_and_normalized(self, seed, shift):
        s = np.random.default_rng(seed).normal(size=7) * 3.0
        p = softmax(s)
        assert p.sum() == pytest.approx(1.0, abs=1e-12)
        assert (p > 0).all()
        np.testing.assert_allclose(softmax(s + shift), p, rtol=1e-10, atol=1e-15)

    def test_stable_for_huge_scores(self):
        p = softmax(np.array([1000.0, 1000.0, -1000.0]))
        assert np.isfinite(p).all()
        np.testing.assert_allclose(p[:2], [0.5, 0.5], atol=1e-12)
        assert p[2] == 0.0

    def test_matrix_rows_are_the_softmax_of_each_row(self):
        s = np.random.default_rng(0).normal(size=(4, 11)) * 3.0
        p = softmax(s)
        assert p.shape == s.shape
        for row, scores in zip(p, s):
            assert row.tobytes() == softmax(scores).tobytes()
        assert softmax(np.zeros((0, 11))).shape == (0, 11)

    @pytest.mark.parametrize("shape", [(0,), (3, 0), (), (2, 3, 4)])
    def test_rejects_an_empty_last_axis_and_other_ranks(self, shape):
        with pytest.raises(ShapeError):
            softmax(np.zeros(shape))


class TestLogSumExp:
    def test_matches_direct_formula(self):
        s = np.array([0.1, 0.2, -0.3])
        assert log_sum_exp(s) == pytest.approx(math.log(sum(math.exp(v) for v in s)), rel=1e-14)

    def test_stable_for_huge_scores(self):
        assert log_sum_exp(np.array([1000.0, 999.0])) == pytest.approx(
            1000.0 + math.log(1.0 + math.exp(-1.0)), rel=1e-12
        )

    @given(st.integers(0, 2 ** 31 - 1))
    def test_bounds(self, seed):
        s = np.random.default_rng(seed).normal(size=5) * 10
        lse = log_sum_exp(s)
        assert s.max() <= lse <= s.max() + math.log(len(s)) + 1e-12


    @given(st.lists(st.floats(-700.0, 700.0), min_size=1, max_size=12))
    def test_equals_the_function_form_bitwise(self, values):
        s = np.array(values)
        assert log_sum_exp(s) == log_sum_exp_reference(s)


class TestGlorotInit:
    def test_bound_and_shape(self):
        rng = make_rng(5)
        w = glorot_init(30, 20, rng)
        limit = math.sqrt(6.0 / (30 + 20))
        assert w.shape == (30, 20)
        assert np.abs(w).max() <= limit
        assert np.abs(w).max() > 0.5 * limit  # actually spreads over the range

    def test_deterministic_per_seed(self):
        a = glorot_init(4, 4, make_rng(9))
        b = glorot_init(4, 4, make_rng(9))
        np.testing.assert_array_equal(a, b)
        c = glorot_init(4, 4, make_rng(10))
        assert not np.array_equal(a, c)


class TestMakeRng:
    def test_streams_reproducible(self):
        assert make_rng(123).random(3).tolist() == make_rng(123).random(3).tolist()


class TestFiniteDiffGrad:
    def test_quadratic_gradient_matches_closed_form(self):
        a = np.array([[2.0, -1.0], [0.5, 3.0]])
        params = {"x": np.array([0.3, -0.7, 1.1])}

        def f(p):
            x = p["x"]
            return float(x @ x * 2.0 + x.sum() + x[0] * x[1])

        grads = finite_diff_grad(f, params, epsilon=1e-5)
        x = params["x"]
        expected = 4.0 * x + 1.0 + np.array([x[1], x[0], 0.0])
        np.testing.assert_allclose(grads["x"], expected, atol=1e-8)
        # the probe restores parameters exactly
        np.testing.assert_array_equal(params["x"], [0.3, -0.7, 1.1])
        assert a is not None

    def test_accepts_object_with_arrays_method(self):
        class Bag:
            def __init__(self):
                self.v = np.array([1.0, 2.0])

            def arrays(self):
                return {"v": self.v}

        bag = Bag()
        grads = finite_diff_grad(lambda b: float((b.arrays()["v"] ** 2).sum()), bag, epsilon=1e-5)
        np.testing.assert_allclose(grads["v"], [2.0, 4.0], atol=1e-8)

    def test_non_finite_objective_rejected(self):
        params = {"x": np.array([0.0])}
        with pytest.raises(ValueError):
            finite_diff_grad(lambda p: float("nan"), params, epsilon=1e-5)

    def test_bad_epsilon_rejected(self):
        with pytest.raises(ValueError):
            finite_diff_grad(lambda p: 0.0, {"x": np.zeros(1)}, epsilon=0.0)
