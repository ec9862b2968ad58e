"""Logistic regression: softmax inference and the exact conversion to and
from the discriminative Naive Bayes form."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dualbayes.core import (
    EQUALITY_TOL,
    DimensionMismatch,
    LabelSpace,
    ProbabilityVector,
    ZeroPrior,
)
from dualbayes.logreg import (
    LogisticRegressionModel,
    lr_log_posterior_batch,
    lr_posterior,
    lr_to_nb,
    nb_to_lr,
)
from dualbayes.naive_bayes import DiscriminativeNBModel, disc_nb_posterior
from dualbayes.verify import (
    random_discriminative_nb,
    random_logreg,
    random_probability_vector,
)

from helpers import NON_NUMERIC_ROWS


def _naive_softmax(weights, biases, y):
    scores = np.exp(weights @ y + biases)
    return scores / scores.sum()


class TestPosterior:
    def test_zero_parameters_give_uniform(self):
        model = LogisticRegressionModel(
            LabelSpace(("a", "b", "c")), np.zeros((3, 2)), np.zeros(3)
        )
        out = lr_posterior(model, [4.0, -7.0])
        np.testing.assert_allclose(out.entries, np.full(3, 1.0 / 3.0), atol=1e-15)

    def test_symmetric_logits(self):
        model = LogisticRegressionModel(
            LabelSpace(("a", "b")), np.array([[1.0], [-1.0]]), np.zeros(2)
        )
        out = lr_posterior(model, [0.0])
        np.testing.assert_allclose(out.entries, [0.5, 0.5], atol=1e-15)

    def test_matches_naive_evaluation(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            model = random_logreg(rng, n_labels=3, t_len=2)
            y = rng.normal(0.0, 2.0, size=2)
            np.testing.assert_allclose(
                lr_posterior(model, y).entries,
                _naive_softmax(model.weights, model.biases, y),
                atol=1e-12,
            )

    def test_entries_strictly_positive(self):
        model = LogisticRegressionModel(
            LabelSpace(("a", "b", "c")),
            np.array([[25.0, 0.0], [0.0, -25.0], [-25.0, 25.0]]),
            np.array([10.0, -10.0, 0.0]),
        )
        rng = np.random.default_rng(37)
        for _ in range(50):
            out = lr_posterior(model, rng.normal(0.0, 3.0, size=2))
            assert np.all(out.entries > 0.0)

    def test_dimension_mismatch(self):
        model = LogisticRegressionModel(LabelSpace(("a", "b")), np.ones((2, 3)), np.zeros(2))
        with pytest.raises(DimensionMismatch):
            lr_posterior(model, [1.0])

    def test_ragged_batch_names_the_bad_row(self):
        model = LogisticRegressionModel(LabelSpace(("a", "b")), np.ones((2, 2)), np.zeros(2))
        with pytest.raises(DimensionMismatch, match=r"got shape \(1,\)$"):
            lr_log_posterior_batch(model, [[1.0, 2.0], [1.0]])

    @pytest.mark.parametrize("row", NON_NUMERIC_ROWS.values(), ids=NON_NUMERIC_ROWS.keys())
    @pytest.mark.parametrize("call", [
        lambda model, row: lr_posterior(model, row),
        lambda model, row: lr_log_posterior_batch(model, [row]),
    ], ids=["lr_posterior", "lr_log_posterior_batch"])
    def test_strings_and_booleans_are_not_numbers(self, call, row):
        model = LogisticRegressionModel(LabelSpace(("a", "b")), np.ones((2, 2)), np.zeros(2))
        with pytest.raises(ValueError, match="^observation coordinates must be numbers"):
            call(model, row)

    def test_batch_matches_single_calls(self):
        # numpy sums fewer than 8 labels in order and 8 or more pairwise
        rng = np.random.default_rng(41)
        for n_labels in (4, 8, 32):
            model = random_logreg(rng, n_labels=n_labels, t_len=3)
            batch = rng.normal(size=(20, 3))
            rows = np.exp(lr_log_posterior_batch(model, batch))
            for row, y in zip(rows, batch):
                np.testing.assert_array_equal(row, lr_posterior(model, y).entries)

    def test_matches_plain_math_reference_near_overflow(self):
        # the definition in plain floats: math.fsum over the bias and the
        # position terms, then a max-shifted softmax
        def reference(weights, biases, y):
            logits = [math.fsum([bias] + [w * v for w, v in zip(row, y)])
                      for row, bias in zip(weights, biases)]
            peak = max(logits)
            norm = peak + math.log(math.fsum(math.exp(z - peak) for z in logits))
            return [math.exp(z - norm) for z in logits]

        rng = np.random.default_rng(43)
        for t_len in (1, 2, 7, 20, 50):
            n = int(rng.integers(2, 33))
            # logits spread up to about +-700, next to exp's overflow limit
            weights = rng.uniform(-1.0, 1.0, size=(n, t_len)) * 700.0 / (3.0 * t_len)
            biases = rng.uniform(-350.0, 350.0, n)
            model = LogisticRegressionModel(
                LabelSpace(tuple(f"l{i}" for i in range(n))), weights, biases)
            batch = rng.normal(size=(8, t_len))
            got = np.exp(lr_log_posterior_batch(model, batch))
            for row, y in zip(got, batch.tolist()):
                want = reference(weights.tolist(), biases.tolist(), y)
                np.testing.assert_allclose(row, want, rtol=0.0, atol=EQUALITY_TOL)

    @given(st.floats(min_value=-50.0, max_value=50.0))
    def test_bias_shift_invariance(self, kappa):
        weights = np.array([[0.5, -1.0], [2.0, 0.3], [-0.7, 1.1]])
        biases = np.array([0.2, -0.4, 1.0])
        labels = LabelSpace(("a", "b", "c"))
        y = np.array([0.8, -0.6])
        base = lr_posterior(LogisticRegressionModel(labels, weights, biases), y)
        shifted = lr_posterior(LogisticRegressionModel(labels, weights, biases + kappa), y)
        np.testing.assert_allclose(shifted.entries, base.entries, atol=1e-12)


class TestCollapse:
    def test_single_position_zero_parameters(self):
        model = DiscriminativeNBModel(
            LabelSpace(("a", "b")),
            ProbabilityVector.uniform(2),
            np.zeros((2, 1)),
            np.zeros((2, 1)),
        )
        collapsed = nb_to_lr(model)
        np.testing.assert_array_equal(collapsed.weights, np.zeros((2, 1)))
        np.testing.assert_array_equal(collapsed.biases, np.zeros(2))

    def test_hand_computed_two_position_example(self):
        # slopes 1 and 2 per label, no intercepts, uniform prior over two
        # labels: weights copy the slopes and each bias collapses to
        # (1 - T) * log(1/2) = log(2)
        labels = LabelSpace(("a", "b"))
        model = DiscriminativeNBModel(
            labels,
            ProbabilityVector([0.5, 0.5]),
            np.array([[1.0, 1.0], [2.0, 2.0]]),
            np.zeros((2, 2)),
        )
        collapsed = nb_to_lr(model)
        np.testing.assert_array_equal(collapsed.weights, [[1.0, 1.0], [2.0, 2.0]])
        np.testing.assert_allclose(collapsed.biases, [math.log(2.0)] * 2, atol=0)
        y = np.array([0.3, -1.2])
        np.testing.assert_allclose(
            lr_posterior(collapsed, y).entries,
            disc_nb_posterior(model, y).entries,
            atol=1e-12,
        )

    def test_posterior_agreement_sweep(self):
        rng = np.random.default_rng(43)
        for _ in range(50):
            model = random_discriminative_nb(rng)
            collapsed = nb_to_lr(model)
            for _ in range(20):
                y = rng.normal(0.0, 2.0, size=model.n_positions)
                np.testing.assert_allclose(
                    lr_posterior(collapsed, y).entries,
                    disc_nb_posterior(model, y).entries,
                    atol=1e-10,
                )


class TestExpand:
    def test_zero_model_uniform_prior(self):
        labels = LabelSpace(("a", "b", "c"))
        t_len = 4
        model = LogisticRegressionModel(labels, np.zeros((3, t_len)), np.zeros(3))
        expanded = lr_to_nb(model)
        np.testing.assert_array_equal(expanded.slopes, np.zeros((3, t_len)))
        # even split of the cancelled prior exponent:
        # (0 - (1 - T) * log(1/N)) / T = (1 - T) * log(N) / T
        expected = (1.0 - t_len) * math.log(3.0) / t_len
        np.testing.assert_allclose(expanded.intercepts, np.full((3, t_len), expected), atol=1e-15)
        out = disc_nb_posterior(expanded, [0.4, -2.0, 0.0, 1.0])
        np.testing.assert_allclose(out.entries, np.full(3, 1.0 / 3.0), atol=1e-12)

    def test_round_trip_preserves_posteriors(self):
        rng = np.random.default_rng(47)
        for _ in range(50):
            model = random_logreg(rng)
            back = nb_to_lr(lr_to_nb(model))
            for _ in range(20):
                y = rng.normal(0.0, 2.0, size=model.n_positions)
                np.testing.assert_allclose(
                    lr_posterior(back, y).entries,
                    lr_posterior(model, y).entries,
                    atol=1e-10,
                )

    def test_prior_choice_does_not_matter(self):
        rng = np.random.default_rng(53)
        model = random_logreg(rng, n_labels=3, t_len=3)
        first = lr_to_nb(model, random_probability_vector(rng, 3))
        second = lr_to_nb(model, random_probability_vector(rng, 3))
        for _ in range(50):
            y = rng.normal(0.0, 2.0, size=3)
            reference = lr_posterior(model, y).entries
            np.testing.assert_allclose(disc_nb_posterior(first, y).entries, reference, atol=1e-10)
            np.testing.assert_allclose(disc_nb_posterior(second, y).entries, reference, atol=1e-10)

    def test_zero_prior_rejected(self):
        model = LogisticRegressionModel(LabelSpace(("a", "b")), np.ones((2, 2)), np.zeros(2))
        with pytest.raises(ZeroPrior, match="strictly positive"):
            lr_to_nb(model, ProbabilityVector([1.0, 0.0]))

    def test_prior_of_the_wrong_length_rejected(self):
        model = LogisticRegressionModel(LabelSpace(("a", "b", "c")), np.ones((3, 2)), np.zeros(3))
        with pytest.raises(ValueError, match=r"^prior has 2 entries, expected 3 \(one per label\)$"):
            lr_to_nb(model, [0.5, 0.5])


class TestModelValidation:
    def test_shape_and_finiteness(self):
        labels = LabelSpace(("a", "b"))
        with pytest.raises(ValueError):
            LogisticRegressionModel(labels, np.ones((3, 2)), np.zeros(2))
        with pytest.raises(ValueError):
            LogisticRegressionModel(labels, np.ones((2, 2)), np.zeros(3))
        with pytest.raises(ValueError):
            LogisticRegressionModel(labels, np.array([[np.inf, 0.0], [0.0, 0.0]]), np.zeros(2))
