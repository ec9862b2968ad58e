"""Training the discriminative model: loss, the trainer's closed-form
gradient in the (W, b) coordinates it steps on vs finite differences of
the inference fold, and gradient-descent behaviour."""

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
from dualbayes.logreg import (
    LogisticRegressionModel,
    lr_log_posterior_batch,
    lr_posterior,
    nb_to_lr,
)
from dualbayes.naive_bayes import (
    DiscriminativeNBModel,
    disc_nb_log_posterior_batch,
    disc_nb_posterior,
)
from dualbayes.train import (
    TrainConfig,
    TrainReport,
    _log_posterior,
    _loss_and_gradients,
    fit_discriminative,
    loss_cross_entropy,
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


from helpers import FD_STEP, GRAD_REL_TOL, NON_NUMERIC_ROWS, finite_difference_max_rel_error


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

    @pytest.mark.parametrize("row", NON_NUMERIC_ROWS.values(), ids=NON_NUMERIC_ROWS.keys())
    @pytest.mark.parametrize("call", [
        loss_cross_entropy,
        lambda model, dataset: fit_discriminative(dataset, 2, model.labels, TrainConfig(0.1, 1)),
    ], ids=["loss_cross_entropy", "fit_discriminative"])
    def test_strings_and_booleans_are_not_numbers(self, call, row):
        dataset = [("l0", [1.0, 2.0]), ("l1", row)]
        with pytest.raises(ValueError, match="^observation coordinates must be numbers"):
            call(_flat_model(t_len=2), dataset)


class TestGradient:
    # the trainer's gradient, _loss_and_gradients, in the (W, b) coordinates
    # it steps on
    def test_symmetric_stationary_point(self):
        # flat parameters, balanced labels, observations mirrored per label:
        # both gradient blocks vanish
        model = nb_to_lr(_flat_model(n_labels=2, t_len=2))
        obs = np.array([[0.5, -1.0], [-0.5, 1.0], [2.0, 0.3], [-2.0, -0.3]])
        _, grad_weights, grad_biases = _loss_and_gradients(
            model.weights, model.biases, obs, np.array([0, 0, 1, 1])
        )
        np.testing.assert_allclose(grad_weights, 0.0, atol=1e-15)
        np.testing.assert_allclose(grad_biases, 0.0, atol=1e-15)

    def test_single_coordinate_against_central_difference(self):
        labels = LabelSpace(("a", "b"))
        model = nb_to_lr(DiscriminativeNBModel(
            labels, ProbabilityVector([0.3, 0.7]), [[0.5], [-0.2]], [[0.1], [0.4]]
        ))
        obs = np.array([[0.3]])
        _, grad_weights, _ = _loss_and_gradients(model.weights, model.biases, obs, np.array([0]))

        def loss(weight):
            bumped = LogisticRegressionModel(labels, [[weight], [-0.2]], model.biases)
            return -lr_log_posterior_batch(bumped, obs)[0, 0]

        numeric = (loss(0.5 + FD_STEP) - loss(0.5 - FD_STEP)) / (2.0 * FD_STEP)
        assert grad_weights[0, 0] == pytest.approx(numeric, rel=1e-5)

    # five of the [600] case's ten draws pass 256 rows, where the weight
    # gradient adds whole 256-row blocks in order
    @pytest.mark.parametrize("max_rows", [7, 600])
    def test_every_coordinate_on_random_configs(self, max_rows):
        rng = np.random.default_rng(67)
        for _ in range(10):
            n = int(rng.integers(2, 5))
            t_len = int(rng.integers(1, 5))
            model = random_discriminative_nb(rng, n_labels=n, t_len=t_len)
            dataset = _random_dataset(rng, model.labels, t_len, int(rng.integers(1, max_rows)))
            obs = np.array([row for _, row in dataset])
            idx = np.array([model.labels.index(label) for label, _ in dataset])
            worst = finite_difference_max_rel_error(nb_to_lr(model), obs, idx)
            assert worst <= GRAD_REL_TOL, f"max relative gradient error {worst:.3e}"


class TestCollapsedPosterior:
    # S=1 is a one-row product (BLAS gemv), which only a one-row dataset reaches
    @pytest.mark.parametrize("n_rows", [1, 2, 25, 1100])
    def test_trainer_log_posterior_equals_the_per_column_batch(self, n_rows):
        # the trainer evaluates the logistic-regression collapse; it must be
        # the same function as the per-column softmax combination
        rng = np.random.default_rng(83)
        for _ in range(50):
            model = random_discriminative_nb(rng)
            obs = rng.normal(0.0, 2.0, size=(n_rows, model.n_positions))
            collapsed = nb_to_lr(model)
            trainer = _log_posterior(collapsed.weights, collapsed.biases, obs)
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
        config = TrainConfig(learning_rate=0.1, epochs=500)
        model, report = fit_discriminative(data, 1, labels, config)
        assert report.final_accuracy >= 0.95
        curve = np.array(report.loss_curve)
        assert curve.size == 500
        assert curve[0] == pytest.approx(math.log(2))  # the zero start scores labels alike
        assert np.all(np.diff(curve) <= 1e-9)
        assert loss_cross_entropy(model, data) <= curve[-1]

    def test_single_present_label_concentrates(self):
        labels = LabelSpace(("a", "b"))
        rng = np.random.default_rng(1)
        data = [("b", [v]) for v in rng.normal(0.0, 1.0, 30)]
        config = TrainConfig(learning_rate=0.5, epochs=300)
        model, report = fit_discriminative(data, 1, labels, config)
        assert report.final_accuracy == 1.0
        posteriors = [disc_nb_posterior(model, obs).entries[1] for _, obs in data]
        assert min(posteriors) > 0.9

    def test_same_config_is_bitwise_identical(self):
        data, labels = self._separable_dataset(seed=3, per_class=40)
        config = TrainConfig(learning_rate=0.05, epochs=40)
        _, first = fit_discriminative(data, 1, labels, config)
        _, second = fit_discriminative(data, 1, labels, config)
        assert first.loss_curve == second.loss_curve
        assert first.final_accuracy == second.final_accuracy

    def test_the_curve_holds_the_loss_entering_each_epoch(self):
        # a longer fit repeats a shorter one's epochs bit for bit, and its
        # curve goes on with the loss of the shorter fit's final parameters
        data, labels = self._separable_dataset(seed=5, per_class=37)
        short_model, short = fit_discriminative(data, 1, labels, TrainConfig(0.1, 20))
        _, long = fit_discriminative(data, 1, labels, TrainConfig(0.1, 30))
        assert long.loss_curve[:20] == short.loss_curve
        assert long.loss_curve[20] == pytest.approx(loss_cross_entropy(short_model, data),
                                                    rel=1e-12)

    @pytest.mark.parametrize("field, value", [("batch_size", 8), ("seed", 3)])
    def test_config_has_no_mini_batch_settings(self, field, value):
        # training is full batch: nothing is shuffled, so there is no seed either
        with pytest.raises(TypeError, match=field):
            TrainConfig(learning_rate=0.1, epochs=1, **{field: value})

    def test_small_learning_rate_never_increases_loss(self):
        rng = np.random.default_rng(71)
        labels = LabelSpace(("a", "b", "c"))
        data = _random_dataset(rng, labels, 2, 30)
        config = TrainConfig(learning_rate=1e-3, epochs=60)
        _, report = fit_discriminative(data, 2, labels, config)
        assert np.all(np.diff(np.array(report.loss_curve)) <= 1e-9)

    def test_diverging_run_raises(self):
        labels = LabelSpace(("a", "b"))
        data = [("a", [1e200]), ("b", [-1e200]), ("a", [5e199]), ("b", [-5e199])]
        config = TrainConfig(learning_rate=0.1, epochs=10)
        with pytest.raises(DivergedLoss):
            fit_discriminative(data, 1, labels, config)

    def test_config_validation(self):
        for rate in (0.0, -0.1, np.inf, np.nan, "0.1", None, True):
            with pytest.raises(ValueError, match="^learning_rate must be positive and finite$"):
                TrainConfig(learning_rate=rate, epochs=10)
        with pytest.raises(ValueError, match="^epochs must be at least 1$"):
            TrainConfig(learning_rate=0.1, epochs=0)
        for epochs in (2.5, "3", None, True):
            with pytest.raises(ValueError, match="^epochs must be an integer$"):
                TrainConfig(learning_rate=0.1, epochs=epochs)
        config = TrainConfig(learning_rate=np.float32(0.1), epochs=np.int64(2))
        assert config.epochs == 2
        report = TrainReport((1.0, 0.5), 0.75)
        assert report.final_accuracy == 0.75


def _plain_log_softmax(logits):
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def _plain_softmax_regression(obs, codes, n_labels, lr, epochs):
    """Full-batch gradient descent on softmax regression ``(W, b)`` written
    out in plain numpy: zero start, and the bias stepping by ``lr * (T**2 -
    T + 1)``.  Returns ``W``, ``b`` and the loss curve the trainer records."""
    n_samples, t_len = obs.shape
    weights, biases = np.zeros((n_labels, t_len)), np.zeros(n_labels)
    onehot = np.eye(n_labels)[codes]
    curve = []
    for _ in range(epochs):
        log_post = _plain_log_softmax(obs @ weights.T + biases)
        curve.append(-(log_post * onehot).sum() / n_samples)
        residual = (np.exp(log_post) - onehot) / n_samples
        weights -= lr * (residual.T @ obs)
        biases -= lr * (t_len * t_len - t_len + 1) * residual.sum(axis=0)
    return weights, biases, curve


class TestAgainstPlainSoftmaxRegression:
    # the trainer is logistic regression on (W, b) with the bias step
    # lr * (T^2 - T + 1), stored through lr_to_nb with a uniform prior
    @pytest.mark.parametrize("n_labels, t_len, n_rows, lr, epochs", [
        (3, 5, 2000, 0.5, 200),
        (4, 6, 500, 0.01, 30),
    ])
    def test_trainer_is_plain_softmax_regression(self, n_labels, t_len, n_rows, lr, epochs):
        rng = np.random.default_rng(89)
        labels = LabelSpace(tuple(f"l{k}" for k in range(n_labels)))
        means = rng.normal(0.0, 1.0, size=(n_labels, t_len))
        codes = rng.integers(0, n_labels, size=n_rows)
        obs = means[codes] + rng.normal(0.0, 1.0, size=(n_rows, t_len))
        dataset = [(labels.names[c], row) for c, row in zip(codes, obs)]
        config = TrainConfig(learning_rate=lr, epochs=epochs)
        model, report = fit_discriminative(dataset, t_len, labels, config)

        weights, biases, curve = _plain_softmax_regression(obs, codes, n_labels, lr, epochs)
        np.testing.assert_allclose(report.loss_curve, curve, rtol=0.0, atol=1e-12)
        held_out = means[codes[:50]] + rng.normal(0.0, 1.0, size=(50, t_len))
        expected = _plain_log_softmax(held_out @ weights.T + biases)
        collapsed = nb_to_lr(model)
        trained = _plain_log_softmax(held_out @ collapsed.weights.T + collapsed.biases)
        np.testing.assert_allclose(trained, expected, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(disc_nb_log_posterior_batch(model, held_out), expected,
                                   rtol=0.0, atol=EQUALITY_TOL)
        np.testing.assert_array_equal(model.prior.entries, np.full(n_labels, 1.0 / n_labels))


class TestInvariances:
    def test_training_loss_survives_collapse_to_linear_form(self):
        data_rng = np.random.default_rng(73)
        labels = LabelSpace(("a", "b", "c"))
        data = _random_dataset(data_rng, labels, 2, 40)
        config = TrainConfig(learning_rate=0.2, epochs=50)
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
