"""Gradient-descent training of the discriminative Naive Bayes.

The trainable coordinates are the per-position slopes and intercepts plus
unconstrained prior logits; the prior itself is their softmax, which keeps
plain gradient descent off the simplex boundary without projections.
Gradients are closed form rather than autodiff, and the test suite checks
every coordinate against central finite differences.

Training evaluates the posterior through the model's exact collapse to a
multinomial logistic regression (one softmax per sample instead of one per
position).  The loss functions evaluate the per-column definition,
:func:`~dualbayes.naive_bayes.disc_nb_log_posterior_batch`, so the
finite-difference checks compare the collapsed gradients with the model's
defining formula.

Training is deterministic for a fixed config: mini-batch order comes only
from the seeded generator, and all per-sample contributions are reduced by
fixed-order array sums, whatever the number of BLAS threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    DivergedLoss,
    EmptyDataset,
    LabelSpace,
    is_integer,
    is_real,
    log_softmax_last,
    normalize_log,
    real_observations,
)
from .logreg import _collapsed_biases
from .naive_bayes import DiscriminativeNBModel, disc_nb_log_posterior_batch

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
        rate = self.learning_rate
        if not is_real(rate) or not 0 < rate < np.inf:
            raise ValueError("learning_rate must be positive and finite")
        if not is_integer(self.epochs):
            raise ValueError("epochs must be an integer")
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")
        if self.batch_size != "full":
            if not is_integer(self.batch_size) or self.batch_size < 1:
                raise ValueError('batch_size must be a positive integer or "full"')
        # checked here because a full-batch fit never hands the seed to numpy
        if not is_integer(self.seed) or self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")


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


def _prepare(row_labels, observations, labels: LabelSpace, t_len: int):
    """The trainer's checked ``(S, t_len)`` rows (a float array is not copied) and label codes."""
    if len(row_labels) == 0:
        raise EmptyDataset("empty dataset")
    codes = np.array([labels.index(label) for label in row_labels], dtype=np.intp)
    return real_observations(observations, t_len), codes


def _columns(dataset):
    return [label for label, _ in dataset], [observation for _, observation in dataset]


def _log_posterior(slopes, intercepts, log_prior, obs, out=None) -> np.ndarray:
    """The model's log posterior through its exact logistic-regression collapse.

    ``sum_t log softmax(z_t)`` differs from ``sum_t z_t`` by a term that is
    the same for every label, so the per-column normalizers cancel and the
    posterior is the log softmax of ``obs @ slopes.T + biases`` with
    :func:`~dualbayes.logreg.nb_to_lr`'s biases.  The label-major logits
    are one BLAS product, ``slopes @ obs.T``, normalized in place by
    :func:`~dualbayes.core.log_softmax_last` through their ``(S, N)``
    transposed view.  Unlike inference, which adds positions one at a time
    so that a row does not depend on its batch, the trainer only needs its
    output not to depend on the BLAS thread count: a logit sums the ``T``
    positions of one row, and the gradient sums rows in fixed-size chunks.
    Extreme parameters can overflow the logits; the resulting non-finite
    loss raises :class:`DivergedLoss`.  ``out``, if given, is an ``(N, S)``
    buffer that receives the logits and then the result.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        logits = np.matmul(slopes, obs.T, out=out)
        logits += _collapsed_biases(log_prior, intercepts)[:, None]
        return log_softmax_last(logits.T)


def parameter_loss(slopes, intercepts, log_prior, dataset, labels: LabelSpace) -> float:
    """Mean cross-entropy at raw parameter values.

    ``log_prior`` is renormalized into the model's prior (an entry that
    underflows to zero raises :class:`~dualbayes.core.ZeroPrior`); the
    posterior is invariant to adding a constant to it, so single coordinates
    can be perturbed freely.  This is the function the finite-difference
    gradient checks probe, and :func:`loss_cross_entropy` is its value at a
    model's own parameters.
    """
    model = DiscriminativeNBModel(labels, normalize_log(log_prior), slopes, intercepts)
    return loss_cross_entropy(model, dataset)


def loss_cross_entropy(model: DiscriminativeNBModel, dataset) -> float:
    """Mean negative log posterior probability of the true labels.

    Finite unless the logits overflow (slopes near 1e308 give NaN), because
    softmax posterior columns are strictly positive.
    """
    obs, idx = _prepare(*_columns(dataset), model.labels, model.n_positions)
    log_post = disc_nb_log_posterior_batch(model, obs)
    return float(-log_post[np.arange(idx.size), idx].mean())


def _loss_and_gradients(slopes, intercepts, log_prior, obs, idx, out=None):
    log_post = _log_posterior(slopes, intercepts, log_prior, obs, out)
    n_samples = idx.size
    loss = float(-log_post[np.arange(n_samples), idx].mean())
    # residual g = posterior - onehot sums to zero over labels, which
    # collapses the softmax chain rule to the three expressions below
    residual = np.exp(log_post, out=log_post)
    residual[np.arange(n_samples), idx] -= 1.0
    residual /= n_samples
    t_len = slopes.shape[1]
    # a BLAS product over many rows may split its sums differently with a
    # different number of threads (OpenBLAS 0.3.31 did beyond 256 rows), so
    # products over 256 rows at most are added in a fixed order: one stacked
    # product per whole 256-row block, summed in block order, plus the rest
    whole = n_samples - n_samples % 256
    grad_slopes = residual[whole:].T @ obs[whole:]
    if whole:
        blocks = residual[:whole].T.reshape(-1, whole // 256, 256).transpose(1, 0, 2)
        grad_slopes += (blocks @ obs[:whole].reshape(-1, 256, t_len)).sum(axis=0)
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
    obs, idx = _prepare(*_columns(dataset), model.labels, model.n_positions)
    _, grads = _loss_and_gradients(
        model.slopes, model.intercepts, np.log(model.prior.entries), obs, idx
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
    obs, idx = _prepare(*_columns(dataset), labels, n_positions)
    return _gradient_descent(obs, idx, labels, config)


def _gradient_descent(obs, idx, labels: LabelSpace,
                      config: TrainConfig) -> tuple[DiscriminativeNBModel, TrainReport]:
    # The loop of fit_discriminative on checked arrays: finite (S, T)
    # observations and their label codes.  The loop reads the caller's
    # array as it is, so the data is held once.  A full batch computes every
    # epoch's logits and residuals in one (N, S) buffer: with fresh arrays,
    # glibc's malloc handed their memory back to the system after every
    # epoch and faulted it in again (about 300 page faults an epoch at
    # S = 10^4, N = 8).  The shuffling generator, whose first use imports
    # numpy.random, is built only when there are mini-batches.
    n_samples, n_positions = obs.shape
    slopes = np.zeros((labels.n, n_positions))
    intercepts = np.zeros((labels.n, n_positions))
    prior_logits = np.zeros(labels.n)
    batch = n_samples if config.batch_size == "full" else min(config.batch_size, n_samples)
    rng = np.random.default_rng(config.seed) if batch < n_samples else None
    logits = np.empty((labels.n, n_samples)) if rng is None else None
    lr = config.learning_rate

    curve = []
    for _ in range(config.epochs):
        if rng is None:
            chunks = [slice(None)]  # the whole dataset as views: nothing is copied
        else:
            order = rng.permutation(n_samples)
            chunks = [order[start:start + batch] for start in range(0, n_samples, batch)]
        epoch_total = 0.0
        for chosen in chunks:
            chunk_idx = idx[chosen]
            loss, grads = _loss_and_gradients(
                slopes, intercepts, prior_logits, obs[chosen], chunk_idx, logits
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
    log_post = _log_posterior(slopes, intercepts, np.log(prior.entries), obs, logits)
    accuracy = float((log_post.argmax(axis=1) == idx).mean())
    return model, TrainReport(tuple(curve), accuracy)
