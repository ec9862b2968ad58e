"""Training the discriminative model: loss, closed-form gradients vs
finite differences, and gradient-descent behaviour."""

import math

import numpy as np
import pytest

from dualbayes.core import (
    EQUALITY_TOL,
    DimensionMismatch,
    DivergedLoss,
    EmptyDataset,
    LabelSpace,
    ProbabilityVector,
)
from dualbayes.logreg import lr_posterior, nb_to_lr
from dualbayes.naive_bayes import (
    DiscriminativeNBModel,
    disc_nb_log_posterior_batch,
    disc_nb_posterior,
)
from dualbayes.train import (
    FD_STEP,
    TrainConfig,
    TrainReport,
    _log_posterior,
    fit_discriminative,
    gradient,
    loss_cross_entropy,
    parameter_loss,
)
from dualbayes.verify import random_discriminative_nb


def _flat_model(n_labels=3, t_len=2):
    labels = LabelSpace(tuple(f"l{k}" for k in range(n_labels)))
    return DiscriminativeNBModel(
        labels,
        ProbabilityVector.uniform(n_labels),
        np.zeros((n_labels, t_len)),
        np.zeros((n_labels, t_len)),
    )


from helpers import finite_difference_max_rel_error


def _random_dataset(rng, labels, t_len, size):
    return [
        (labels.names[int(rng.integers(0, labels.n))], rng.normal(0.0, 1.5, size=t_len))
        for _ in range(size)
    ]


class TestLoss:
    def test_flat_model_loss_is_log_n(self):
        model = _flat_model(n_labels=4, t_len=3)
        dataset = [("l0", [0.5, -1.0, 2.0]), ("l2", [1.0, 1.0, 1.0])]
        assert loss_cross_entropy(model, dataset) == pytest.approx(math.log(4.0), abs=1e-12)

    def test_single_sample_is_neg_log_posterior(self):
        labels = LabelSpace(("a", "b"))
        model = DiscriminativeNBModel(
            labels, ProbabilityVector([0.5, 0.5]), np.zeros((2, 1)), np.array([[5.0], [0.0]])
        )
        dataset = [("a", [0.0])]
        posterior = disc_nb_posterior(model, [0.0]).entries
        assert loss_cross_entropy(model, dataset) == pytest.approx(
            -math.log(posterior[0]), abs=1e-14
        )

    def test_matches_direct_recomputation(self):
        rng = np.random.default_rng(61)
        for _ in range(20):
            model = random_discriminative_nb(rng, n_labels=3, t_len=3)
            dataset = _random_dataset(rng, model.labels, 3, 12)
            direct = -np.mean([
                math.log(disc_nb_posterior(model, obs).entries[model.labels.index(label)])
                for label, obs in dataset
            ])
            assert loss_cross_entropy(model, dataset) == pytest.approx(direct, abs=1e-12)

    def test_empty_dataset(self):
        with pytest.raises(EmptyDataset):
            loss_cross_entropy(_flat_model(), [])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            loss_cross_entropy(_flat_model(t_len=2), [("l0", [1.0])])

    def test_ragged_rows_name_the_bad_row(self):
        dataset = [("l0", [1.0, 2.0]), ("l1", [1.0]), ("l0", [3.0, 4.0])]
        with pytest.raises(DimensionMismatch, match=r"got shape \(1,\)"):
            loss_cross_entropy(_flat_model(t_len=2), dataset)

    def test_non_finite_coordinates(self):
        dataset = [("l0", [1.0, 2.0]), ("l1", [np.nan, 0.0])]
        with pytest.raises(ValueError, match="must be finite"):
            loss_cross_entropy(_flat_model(t_len=2), dataset)


class TestGradient:
    def test_symmetric_stationary_point(self):
        # flat parameters, balanced labels, observations mirrored per label:
        # every gradient block vanishes
        model = _flat_model(n_labels=2, t_len=2)
        dataset = [
            ("l0", [0.5, -1.0]), ("l0", [-0.5, 1.0]),
            ("l1", [2.0, 0.3]), ("l1", [-2.0, -0.3]),
        ]
        grads = gradient(model, dataset)
        np.testing.assert_allclose(grads.intercepts, 0.0, atol=1e-15)
        np.testing.assert_allclose(grads.log_prior, 0.0, atol=1e-15)
        np.testing.assert_allclose(grads.slopes, 0.0, atol=1e-15)

    def test_single_coordinate_against_central_difference(self):
        labels = LabelSpace(("a", "b"))
        model = DiscriminativeNBModel(
            labels, ProbabilityVector([0.3, 0.7]), [[0.5], [-0.2]], [[0.1], [0.4]]
        )
        dataset = [("a", [0.3])]
        grads = gradient(model, dataset)
        slopes_plus = np.array([[0.5 + FD_STEP], [-0.2]])
        slopes_minus = np.array([[0.5 - FD_STEP], [-0.2]])
        log_prior = np.log(model.prior.entries)
        numeric = (
            parameter_loss(slopes_plus, model.intercepts, log_prior, dataset, labels)
            - parameter_loss(slopes_minus, model.intercepts, log_prior, dataset, labels)
        ) / (2.0 * FD_STEP)
        assert grads.slopes[0, 0] == pytest.approx(numeric, rel=1e-5)

    def test_every_coordinate_on_random_configs(self):
        rng = np.random.default_rng(67)
        for _ in range(10):
            n = int(rng.integers(2, 5))
            t_len = int(rng.integers(1, 5))
            model = random_discriminative_nb(rng, n_labels=n, t_len=t_len)
            dataset = _random_dataset(rng, model.labels, t_len, int(rng.integers(1, 7)))
            worst = finite_difference_max_rel_error(model, dataset)
            assert worst <= 1e-5, f"max relative gradient error {worst:.3e}"


class TestCollapsedPosterior:
    def test_trainer_log_posterior_equals_the_per_column_batch(self):
        # the trainer evaluates the logistic-regression collapse; it must be
        # the same function as the per-column softmax combination
        rng = np.random.default_rng(83)
        for _ in range(50):
            model = random_discriminative_nb(rng)
            obs = rng.normal(0.0, 2.0, size=(25, model.n_positions))
            trainer = _log_posterior(
                model.slopes, model.intercepts, np.log(model.prior.entries), obs.T
            )
            np.testing.assert_allclose(
                trainer, disc_nb_log_posterior_batch(model, obs), rtol=0.0, atol=EQUALITY_TOL
            )


class TestFit:
    def _separable_dataset(self, seed=42, per_class=100):
        rng = np.random.default_rng(seed)
        data = [("neg", [v]) for v in rng.normal(-2.0, 1.0, per_class)]
        data += [("pos", [v]) for v in rng.normal(2.0, 1.0, per_class)]
        return data, LabelSpace(("neg", "pos"))

    def test_separable_data_reaches_high_accuracy(self):
        data, labels = self._separable_dataset()
        config = TrainConfig(learning_rate=0.1, epochs=500, batch_size="full", seed=7)
        model, report = fit_discriminative(data, 1, labels, config)
        assert report.final_accuracy >= 0.95
        curve = np.array(report.loss_curve)
        assert curve.size == 500
        assert np.all(np.diff(curve) <= 1e-9)
        assert loss_cross_entropy(model, data) <= curve[-1]

    def test_single_present_label_concentrates(self):
        labels = LabelSpace(("a", "b"))
        rng = np.random.default_rng(1)
        data = [("b", [v]) for v in rng.normal(0.0, 1.0, 30)]
        config = TrainConfig(learning_rate=0.5, epochs=300, batch_size="full", seed=0)
        model, report = fit_discriminative(data, 1, labels, config)
        assert report.final_accuracy == 1.0
        posteriors = [disc_nb_posterior(model, obs).entries[1] for _, obs in data]
        assert min(posteriors) > 0.9

    def test_same_seed_is_bitwise_identical(self):
        data, labels = self._separable_dataset(seed=3, per_class=40)
        for batch in ("full", 16):
            config = TrainConfig(learning_rate=0.05, epochs=40, batch_size=batch, seed=11)
            _, first = fit_discriminative(data, 1, labels, config)
            _, second = fit_discriminative(data, 1, labels, config)
            assert first.loss_curve == second.loss_curve
            assert first.final_accuracy == second.final_accuracy

    def test_one_chunk_records_its_own_loss(self):
        # a batch at least as large as the dataset is the full batch: one
        # chunk, no shuffle, and its loss recorded as is, not as loss * n / n
        data, labels = self._separable_dataset(seed=5, per_class=37)
        curves = [
            fit_discriminative(data, 1, labels, TrainConfig(0.1, 20, batch, seed=9))[1].loss_curve
            for batch in ("full", len(data), 10 * len(data))
        ]
        assert curves[0] == curves[1] == curves[2]
        assert curves[0][0] == pytest.approx(math.log(2))  # the zero start scores labels alike
        mini = fit_discriminative(data, 1, labels, TrainConfig(0.1, 20, 16, seed=9))[1]
        assert mini.loss_curve != curves[0]

    def test_small_learning_rate_never_increases_loss(self):
        rng = np.random.default_rng(71)
        labels = LabelSpace(("a", "b", "c"))
        data = _random_dataset(rng, labels, 2, 30)
        config = TrainConfig(learning_rate=1e-3, epochs=60, batch_size="full", seed=0)
        _, report = fit_discriminative(data, 2, labels, config)
        assert np.all(np.diff(np.array(report.loss_curve)) <= 1e-9)

    def test_diverging_run_raises(self):
        labels = LabelSpace(("a", "b"))
        data = [("a", [1e200]), ("b", [-1e200]), ("a", [5e199]), ("b", [-5e199])]
        config = TrainConfig(learning_rate=0.1, epochs=10, batch_size="full", seed=0)
        with pytest.raises(DivergedLoss):
            fit_discriminative(data, 1, labels, config)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0, epochs=10)
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.1, epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.1, epochs=1, batch_size=0)
        report = TrainReport((1.0, 0.5), 0.75)
        assert report.final_accuracy == 0.75


class TestInvariances:
    def test_training_loss_survives_collapse_to_linear_form(self):
        data_rng = np.random.default_rng(73)
        labels = LabelSpace(("a", "b", "c"))
        data = _random_dataset(data_rng, labels, 2, 40)
        config = TrainConfig(learning_rate=0.2, epochs=50, batch_size="full", seed=5)
        model, _ = fit_discriminative(data, 2, labels, config)
        collapsed = nb_to_lr(model)
        linear_loss = -np.mean([
            math.log(lr_posterior(collapsed, obs).entries[labels.index(label)])
            for label, obs in data
        ])
        assert linear_loss == pytest.approx(loss_cross_entropy(model, data), abs=1e-12)

    def test_intercept_gauge_freedom(self):
        rng = np.random.default_rng(79)
        model = random_discriminative_nb(rng, n_labels=3, t_len=3)
        data = _random_dataset(rng, model.labels, 3, 15)
        shifted_intercepts = model.intercepts.copy()
        shifted_intercepts[:, 1] += 4.25
        shifted = DiscriminativeNBModel(
            model.labels, model.prior, model.slopes, shifted_intercepts
        )
        for _, obs in data:
            np.testing.assert_allclose(
                disc_nb_posterior(shifted, obs).entries,
                disc_nb_posterior(model, obs).entries,
                atol=1e-12,
            )
        assert loss_cross_entropy(shifted, data) == pytest.approx(
            loss_cross_entropy(model, data), abs=1e-12
        )
