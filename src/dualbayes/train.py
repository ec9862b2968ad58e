"""Gradient-descent training of the discriminative Naive Bayes.

The trainable coordinates are the per-position slopes and intercepts plus
unconstrained prior logits; the prior itself is their softmax, which keeps
plain gradient descent off the simplex boundary without projections.
Gradients are closed form rather than autodiff, and the test suite checks
every coordinate against central finite differences.

Training evaluates the posterior through the model's exact collapse to a
multinomial logistic regression (one softmax per sample instead of one per
position).  The loss functions keep the per-column definition, so the
finite-difference checks compare the collapsed gradients with the model's
defining formula.

Training is deterministic for a fixed config: mini-batch order comes only
from the seeded generator, and all per-sample contributions are reduced by
fixed-order array sums.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    DivergedLoss,
    EmptyDataset,
    LabelSpace,
    normalize_log,
    real_observation,
)
from .logreg import _collapsed_biases, _log_softmax_linear
from .naive_bayes import DiscriminativeNBModel, _log_posterior_matrix

#: Central finite-difference step used by the gradient checks.
FD_STEP = 1e-5


@dataclass(frozen=True)
class TrainConfig:
    """Plain gradient-descent settings; ``batch_size="full"`` disables mini-batching."""

    learning_rate: float
    epochs: int
    batch_size: int | str = "full"
    seed: int = 0

    def __post_init__(self):
        if not self.learning_rate > 0:
            raise ValueError("learning_rate must be positive")
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")
        if self.batch_size != "full":
            if not isinstance(self.batch_size, int) or self.batch_size < 1:
                raise ValueError('batch_size must be a positive integer or "full"')


@dataclass(frozen=True)
class TrainReport:
    """Per-epoch mean cross-entropy and final training accuracy."""

    loss_curve: tuple[float, ...]
    final_accuracy: float


@dataclass(frozen=True, eq=False)
class Gradients:
    """Mean-loss gradients for every trainable coordinate."""

    slopes: np.ndarray
    intercepts: np.ndarray
    log_prior: np.ndarray


def _prepare(dataset, labels: LabelSpace, t_len: int):
    if len(dataset) == 0:
        raise EmptyDataset("empty dataset")
    indices = np.array([labels.index(label) for label, _ in dataset], dtype=np.intp)
    try:
        obs = np.array([observation for _, observation in dataset], dtype=float)
    except ValueError:  # ragged rows, or a field that is not a number
        obs = None
    if obs is None or obs.ndim != 2 or obs.shape[1] != t_len:
        for _, observation in dataset:
            real_observation(observation, t_len)  # raises for the first bad row
    if not np.all(np.isfinite(obs)):
        raise ValueError("observation coordinates must be finite")
    return obs, indices


def _log_posterior(slopes, intercepts, log_prior, columns) -> np.ndarray:
    """The model's log posterior through its exact logistic-regression collapse.

    ``columns`` is the ``(T, S)`` transpose of the observations, so that a
    caller looping over epochs transposes once, not once per evaluation.

    ``sum_t log softmax(z_t)`` differs from ``sum_t z_t`` by a term that is
    the same for every label, so the per-column normalizers cancel and the
    posterior is the log softmax of ``obs @ slopes.T + biases`` with
    :func:`~dualbayes.logreg.nb_to_lr`'s biases.  Extreme parameters can
    overflow the logits; the resulting non-finite loss raises
    :class:`DivergedLoss`.
    """
    return _log_softmax_linear(columns, slopes, _collapsed_biases(log_prior, intercepts))


def parameter_loss(slopes, intercepts, log_prior, dataset, labels: LabelSpace) -> float:
    """Mean cross-entropy at raw parameter values.

    ``log_prior`` is used verbatim, without renormalization; the posterior
    is invariant to adding a constant to it, so single coordinates can be
    perturbed freely.  This is the function the finite-difference gradient
    checks probe, and :func:`loss_cross_entropy` is this function evaluated
    at a model's own parameters.
    """
    slopes = np.asarray(slopes, dtype=float)
    intercepts = np.asarray(intercepts, dtype=float)
    log_prior = np.asarray(log_prior, dtype=float)
    obs, idx = _prepare(dataset, labels, slopes.shape[1])
    log_post = _log_posterior_matrix(slopes, intercepts, log_prior, obs)
    return float(-log_post[np.arange(idx.size), idx].mean())


def loss_cross_entropy(model: DiscriminativeNBModel, dataset) -> float:
    """Mean negative log posterior probability of the true labels.

    Finite for any finite parameters and observations, because softmax
    posterior columns are strictly positive.
    """
    return parameter_loss(
        model.slopes, model.intercepts, np.log(model.prior.entries),
        dataset, model.labels,
    )


def _loss_and_gradients(slopes, intercepts, log_prior, columns, idx):
    log_post = _log_posterior(slopes, intercepts, log_prior, columns)
    n_samples = idx.size
    loss = float(-log_post[np.arange(n_samples), idx].mean())
    # residual g = posterior - onehot sums to zero over labels, which
    # collapses the softmax chain rule to the three expressions below
    residual = np.exp(log_post)
    residual[np.arange(n_samples), idx] -= 1.0
    residual /= n_samples
    t_len = slopes.shape[1]
    grad_slopes = residual.T @ columns.T
    mean_residual = residual.sum(axis=0)
    grad_intercepts = np.repeat(mean_residual[:, None], t_len, axis=1)
    grad_log_prior = (1.0 - t_len) * mean_residual
    return loss, Gradients(grad_slopes, grad_intercepts, grad_log_prior)


def gradient(model: DiscriminativeNBModel, dataset) -> Gradients:
    """Closed-form gradient of :func:`loss_cross_entropy`.

    With ``p`` the posterior matrix, ``e`` the one-hot labels, and
    ``g = p - e``: the slope gradient is ``mean(g[i] * y[t])``, the
    intercept gradient ``mean(g[i])``, and the prior-logit gradient
    ``(1 - T) * mean(g[i])``.
    """
    obs, idx = _prepare(dataset, model.labels, model.n_positions)
    _, grads = _loss_and_gradients(
        model.slopes, model.intercepts, np.log(model.prior.entries), obs.T, idx
    )
    return grads


def fit_discriminative(dataset, n_positions: int, labels: LabelSpace,
                       config: TrainConfig) -> tuple[DiscriminativeNBModel, TrainReport]:
    """Plain gradient descent from the symmetric zero initialization.

    Full-batch mode records the loss at the parameters entering each
    epoch; mini-batch mode records the sample-weighted mean of the batch
    losses seen during the epoch.  Raises :class:`DivergedLoss` the moment
    any recorded loss stops being finite.
    """
    obs, idx = _prepare(dataset, labels, n_positions)
    columns = np.ascontiguousarray(obs.T)
    n_samples = idx.size
    slopes = np.zeros((labels.n, n_positions))
    intercepts = np.zeros((labels.n, n_positions))
    prior_logits = np.zeros(labels.n)
    rng = np.random.default_rng(config.seed)
    batch = n_samples if config.batch_size == "full" else min(config.batch_size, n_samples)
    lr = config.learning_rate

    curve = []
    for _ in range(config.epochs):
        if batch >= n_samples:
            chunks = [slice(None)]  # the whole dataset as views: nothing is copied
        else:
            order = rng.permutation(n_samples)
            chunks = [order[start:start + batch] for start in range(0, n_samples, batch)]
        epoch_total = 0.0
        for chosen in chunks:
            chunk_idx = idx[chosen]
            loss, grads = _loss_and_gradients(
                slopes, intercepts, prior_logits, columns[:, chosen], chunk_idx
            )
            if not np.isfinite(loss):
                raise DivergedLoss(f"loss became non-finite ({loss!r})")
            epoch_total += loss * chunk_idx.size
            slopes -= lr * grads.slopes
            intercepts -= lr * grads.intercepts
            prior_logits -= lr * grads.log_prior
        # one chunk records its own loss, which is not always loss * n / n
        curve.append(loss if len(chunks) == 1 else epoch_total / n_samples)

    if not (np.all(np.isfinite(slopes)) and np.all(np.isfinite(intercepts))
            and np.all(np.isfinite(prior_logits))):
        raise DivergedLoss("parameters became non-finite")
    prior = normalize_log(prior_logits)
    model = DiscriminativeNBModel(labels, prior, slopes, intercepts)
    log_post = _log_posterior(slopes, intercepts, np.log(prior.entries), columns)
    accuracy = float((log_post.argmax(axis=1) == idx).mean())
    return model, TrainReport(tuple(curve), accuracy)
