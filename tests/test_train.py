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
    # S=1 is a one-row product (BLAS gemv), which a mini-batch of one reaches
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
        for batch_size in (0, True, 2.0, "4"):
            with pytest.raises(ValueError, match='^batch_size must be a positive integer or "full"$'):
                TrainConfig(learning_rate=0.1, epochs=1, batch_size=batch_size)
        assert TrainConfig(learning_rate=0.1, epochs=1, batch_size=np.int64(4)).batch_size == 4
        for seed in (-1, np.int64(-1), 1.5, "3", None, False, True):
            with pytest.raises(ValueError, match="^seed must be a nonnegative integer$"):
                TrainConfig(learning_rate=0.1, epochs=1, seed=seed)
        assert TrainConfig(learning_rate=0.1, epochs=1, seed=np.uint32(7)).seed == 7
        report = TrainReport((1.0, 0.5), 0.75)
        assert report.final_accuracy == 0.75


def _plain_log_softmax(logits):
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def _plain_softmax_regression(obs, codes, n_labels, lr, epochs, batch, seed):
    """Gradient descent on softmax regression ``(W, b)`` written out in plain
    numpy: zero start, rows shuffled by ``default_rng(seed).permutation``
    when there are mini-batches, and the bias stepping by ``lr * (T**2 -
    T + 1)``.  Returns ``W``, ``b`` and the loss curve the trainer records."""
    n_samples, t_len = obs.shape
    weights, biases = np.zeros((n_labels, t_len)), np.zeros(n_labels)
    onehot = np.eye(n_labels)[codes]
    rng = np.random.default_rng(seed)
    curve = []
    for _ in range(epochs):
        order = np.arange(n_samples) if batch >= n_samples else rng.permutation(n_samples)
        total = 0.0
        for start in range(0, n_samples, batch):
            rows = order[start:start + batch]
            log_post = _plain_log_softmax(obs[rows] @ weights.T + biases)
            total -= (log_post * onehot[rows]).sum()
            residual = (np.exp(log_post) - onehot[rows]) / rows.size
            weights -= lr * (residual.T @ obs[rows])
            biases -= lr * (t_len * t_len - t_len + 1) * residual.sum(axis=0)
        curve.append(total / n_samples)
    return weights, biases, curve


class TestAgainstPlainSoftmaxRegression:
    # the trainer is logistic regression on (W, b) with the bias step
    # lr * (T^2 - T + 1), stored through lr_to_nb with a uniform prior
    @pytest.mark.parametrize("n_labels, t_len, n_rows, lr, epochs, batch", [
        (3, 5, 2000, 0.5, 200, "full"),
        (4, 6, 500, 0.01, 30, 64),
    ])
    def test_trainer_is_plain_softmax_regression(self, n_labels, t_len, n_rows, lr, epochs,
                                                 batch):
        rng = np.random.default_rng(89)
        labels = LabelSpace(tuple(f"l{k}" for k in range(n_labels)))
        means = rng.normal(0.0, 1.0, size=(n_labels, t_len))
        codes = rng.integers(0, n_labels, size=n_rows)
        obs = means[codes] + rng.normal(0.0, 1.0, size=(n_rows, t_len))
        dataset = [(labels.names[c], row) for c, row in zip(codes, obs)]
        config = TrainConfig(learning_rate=lr, epochs=epochs, batch_size=batch, seed=13)
        model, report = fit_discriminative(dataset, t_len, labels, config)

        weights, biases, curve = _plain_softmax_regression(
            obs, codes, n_labels, lr, epochs, n_rows if batch == "full" else batch, seed=13
        )
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
