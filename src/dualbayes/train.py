"""Gradient-descent training of the discriminative Naive Bayes.

The trainer is multinomial logistic regression.  It descends from zero on
one ``(N, T)`` weight array and one ``(N,)`` bias, and stores the result
through the exact expansion :func:`~dualbayes.logreg.lr_to_nb` with its
uniform prior, as ``convert`` does.  The weights step by ``lr`` times their
gradient, the bias by ``lr * (T**2 - T + 1)`` times its gradient.  That is
the step of the collapsed bias ``(1 - T) * log prior + sum_t intercepts``
when slopes, intercepts and unnormalized log prior each step by ``lr``, so
training gives that three-coordinate descent's posteriors up to rounding.
The bias step is 381 times the weight step at T = 20.  At the disc-real
benchmark's defaults (N = 8, T = 20, lr 0.1, 100 full-batch epochs; seeds
0-4) the loss climbs from log N = 2.08 to 4.5-8.3 within 8 epochs, rises
in 19-53 of its 99 steps, and ends at 0.11-0.23.

The gradient is closed form, not autodiff, and only in the ``(W, b)``
coordinates the trainer steps on.  The test suite checks every weight and
bias against central finite differences of the mean cross-entropy of
:func:`~dualbayes.logreg.lr_log_posterior_batch`, the inference fold, which
shares no product with the trainer's BLAS logits.

Training is full batch and deterministic for a fixed config: every epoch
reduces all per-sample contributions by fixed-order array sums, whatever
the number of BLAS threads.
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
    real_observations,
)
from .logreg import LogisticRegressionModel, lr_to_nb
from .naive_bayes import DiscriminativeNBModel, disc_nb_log_posterior_batch


@dataclass(frozen=True)
class TrainConfig:
    """Plain full-batch gradient-descent settings."""

    learning_rate: float
    epochs: int

    def __post_init__(self):
        rate = self.learning_rate
        if not is_real(rate) or not 0 < rate < np.inf:
            raise ValueError("learning_rate must be positive and finite")
        if not is_integer(self.epochs):
            raise ValueError("epochs must be an integer")
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")


@dataclass(frozen=True)
class TrainReport:
    """Per-epoch mean cross-entropy and final training accuracy."""

    loss_curve: tuple[float, ...]
    final_accuracy: float


def _prepare(row_labels, observations, labels: LabelSpace, t_len: int):
    """The trainer's checked ``(S, t_len)`` rows (a float array is not copied) and label codes."""
    if len(row_labels) == 0:
        raise EmptyDataset("empty dataset")
    codes = np.array([labels.index(label) for label in row_labels], dtype=np.intp)
    return real_observations(observations, t_len), codes


def _columns(dataset):
    return [label for label, _ in dataset], [observation for _, observation in dataset]


def _log_posterior(weights, biases, obs, out=None) -> np.ndarray:
    """Log posterior of the logistic regression ``(weights, biases)``.

    The label-major logits are one BLAS product, ``weights @ obs.T``,
    normalized in place by :func:`~dualbayes.core.log_softmax_last` through
    their ``(S, N)`` transposed view.  Unlike inference, which adds
    positions one at a time so that a row does not depend on its batch, the
    trainer only needs its output not to depend on the BLAS thread count: a
    logit sums the ``T`` positions of one row, and the gradient sums rows in
    fixed-size chunks.  Extreme parameters can overflow the logits; the
    resulting non-finite loss raises :class:`DivergedLoss`.  ``out``, if
    given, is an ``(N, S)`` buffer that receives the logits and then the
    result.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        logits = np.matmul(weights, obs.T, out=out)
        logits += biases[:, None]
        return log_softmax_last(logits.T)


def loss_cross_entropy(model: DiscriminativeNBModel, dataset) -> float:
    """Mean negative log posterior probability of the true labels.

    Finite unless the logits overflow (slopes near 1e308 give NaN), because
    softmax posterior columns are strictly positive.
    """
    obs, idx = _prepare(*_columns(dataset), model.labels, model.n_positions)
    log_post = disc_nb_log_posterior_batch(model, obs)
    return float(-log_post[np.arange(idx.size), idx].mean())


def _loss_and_gradients(weights, biases, obs, idx, out=None):
    log_post = _log_posterior(weights, biases, obs, out)
    n_samples = idx.size
    loss = float(-log_post[np.arange(n_samples), idx].mean())
    # residual g = posterior - onehot: the weight gradient is g.T @ obs and
    # the bias gradient g summed over rows
    residual = np.exp(log_post, out=log_post)
    residual[np.arange(n_samples), idx] -= 1.0
    residual /= n_samples
    t_len = weights.shape[1]
    # a BLAS product over many rows may split its sums differently with a
    # different number of threads (OpenBLAS 0.3.31 did beyond 256 rows), so
    # products over 256 rows at most are added in a fixed order: one stacked
    # product per whole 256-row block, summed in block order, plus the rest
    whole = n_samples - n_samples % 256
    grad_weights = residual[whole:].T @ obs[whole:]
    if whole:
        blocks = residual[:whole].T.reshape(-1, whole // 256, 256).transpose(1, 0, 2)
        grad_weights += (blocks @ obs[:whole].reshape(-1, 256, t_len)).sum(axis=0)
    return loss, grad_weights, residual.sum(axis=0)


def fit_discriminative(dataset, n_positions: int, labels: LabelSpace,
                       config: TrainConfig) -> tuple[DiscriminativeNBModel, TrainReport]:
    """Plain full-batch gradient descent from the symmetric zero initialization.

    The loss curve holds the loss at the parameters entering each epoch.
    Raises :class:`DivergedLoss` the moment a loss stops being finite.
    """
    obs, idx = _prepare(*_columns(dataset), labels, n_positions)
    return _gradient_descent(obs, idx, labels, config)


def _gradient_descent(obs, idx, labels: LabelSpace,
                      config: TrainConfig) -> tuple[DiscriminativeNBModel, TrainReport]:
    # The loop of fit_discriminative on checked arrays: finite (S, T)
    # observations and their label codes.  The loop reads the caller's
    # array as it is, so the data is held once.  Every epoch computes its
    # logits and residuals in one (N, S) buffer: with fresh arrays, glibc's
    # malloc handed their memory back to the system after every epoch and
    # faulted it in again (about 300 page faults an epoch at S = 10^4, N = 8).
    n_samples, n_positions = obs.shape
    weights = np.zeros((labels.n, n_positions))
    biases = np.zeros(labels.n)
    logits = np.empty((labels.n, n_samples))
    lr = config.learning_rate
    bias_lr = lr * (n_positions * n_positions - n_positions + 1)  # see the module docstring

    curve = []
    for _ in range(config.epochs):
        loss, grad_weights, grad_biases = _loss_and_gradients(weights, biases, obs, idx, logits)
        if not np.isfinite(loss):
            raise DivergedLoss(f"loss became non-finite ({loss!r})")
        curve.append(loss)
        weights -= lr * grad_weights
        biases -= bias_lr * grad_biases

    if not (np.all(np.isfinite(weights)) and np.all(np.isfinite(biases))):
        raise DivergedLoss("parameters became non-finite")
    model = lr_to_nb(LogisticRegressionModel(labels, weights, biases))
    log_post = _log_posterior(weights, biases, obs, logits)
    accuracy = float((log_post.argmax(axis=1) == idx).mean())
    return model, TrainReport(tuple(curve), accuracy)
