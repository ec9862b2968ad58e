"""Multinomial logistic regression and its exact conversion to and from
the discriminative Naive Bayes parameterization.

Converting in either direction preserves posteriors pointwise.  Collapsing
a discriminative model is canonical: the weights are the per-position
slopes and each bias absorbs the prior exponent plus the summed
intercepts.  The expansion is under-determined, so :func:`lr_to_nb` fixes
the free choices explicitly: the caller picks the prior (uniform by
default) and the leftover bias is split evenly across positions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    LabelSpace,
    ProbabilityVector,
    ZeroPrior,
    real_observation,
    real_observations,
)
from .naive_bayes import DiscriminativeNBModel


@dataclass(frozen=True, eq=False)
class LogisticRegressionModel:
    """Softmax-linear classifier: posterior = softmax(weights @ y + biases)."""

    labels: LabelSpace
    weights: np.ndarray
    biases: np.ndarray

    def __post_init__(self):
        weights = np.array(self.weights, dtype=float)
        biases = np.array(self.biases, dtype=float)
        if weights.ndim != 2 or weights.shape[0] != self.labels.n or weights.shape[1] < 1:
            raise ValueError(f"weights must have shape (n_labels, T), got {weights.shape}")
        if biases.shape != (self.labels.n,):
            raise ValueError(f"biases must have shape ({self.labels.n},), got {biases.shape}")
        if not (np.all(np.isfinite(weights)) and np.all(np.isfinite(biases))):
            raise ValueError("parameters must be finite")
        weights.flags.writeable = False
        biases.flags.writeable = False
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "biases", biases)

    @property
    def n_positions(self) -> int:
        return self.weights.shape[1]


def lr_posterior(model: LogisticRegressionModel, observation) -> ProbabilityVector:
    """Softmax posterior at one observation; a batch of one through
    :func:`lr_log_posterior_batch`'s kernel.

    Every entry is strictly positive as long as the logit spread stays
    within double-precision exponent range.
    """
    y = real_observation(observation, model.n_positions)
    log_post = _log_softmax_linear(y[:, None], model.weights, model.biases)
    return ProbabilityVector(np.exp(log_post[0]))


def lr_log_posterior_batch(model: LogisticRegressionModel, observations) -> np.ndarray:
    """Log posterior matrix for a batch of observations, shape ``(S, N)``."""
    obs = real_observations(observations, model.n_positions)
    return _log_softmax_linear(np.ascontiguousarray(obs.T), model.weights, model.biases)


def _log_softmax_linear(columns, weights, biases) -> np.ndarray:
    # Row-wise log softmax of columns.T @ weights.T + biases, where columns
    # is the (T, S) position-major transpose of the observations.  This is
    # the inference kernel, whose rows must not depend on the batch they sit
    # in (predict evaluates blocks, lr_posterior a batch of one), so
    # positions are added one at a time in a fixed order, never by a matrix
    # product: BLAS takes a different kernel and summation order for one
    # row (gemv) than for many (gemm), and the results differ in the last
    # bits.  Each step is one elementwise operation over all rows.
    with np.errstate(over="ignore", invalid="ignore"):
        logits = weights[:, 0, None] * columns[0]
        logits += biases[:, None]
        term = np.empty_like(logits)
        for t in range(1, len(columns)):
            logits += np.multiply(weights[:, t, None], columns[t], out=term)
        del term  # the softmax allocates its own buffer
        return _log_softmax_label_major(logits)


def _log_softmax_label_major(logits) -> np.ndarray:
    # Log softmax over the labels of a label-major (N, S) logit array,
    # computed in place and returned as an (S, N) view.  Labels are summed
    # one at a time in a fixed order, so a row's value depends only on its
    # own logits.  Overflowing logits give non-finite rows, which every
    # caller detects (DivergedLoss, a failed probe or simplex check), so
    # callers run this under np.errstate(over="ignore", invalid="ignore")
    # and no warning is raised.
    logits -= logits.max(axis=0)
    exp_logits = np.exp(logits)
    total = exp_logits[0].copy()
    for row in exp_logits[1:]:
        total += row
    logits -= np.log(total)
    return logits.T


def _collapsed_biases(log_prior, intercepts) -> np.ndarray:
    # bias of the logistic regression that a discriminative model collapses to
    return (1.0 - intercepts.shape[1]) * log_prior + intercepts.sum(axis=1)


def nb_to_lr(model: DiscriminativeNBModel) -> LogisticRegressionModel:
    """Collapse a discriminative Naive Bayes into one softmax-linear layer.

    ``weights[i] = slopes[i]`` and
    ``biases[i] = (1 - T) * log(prior[i]) + sum_t intercepts[i, t]``;
    posteriors are preserved pointwise.
    """
    biases = _collapsed_biases(np.log(model.prior.entries), model.intercepts)
    return LogisticRegressionModel(model.labels, model.slopes, biases)


def lr_to_nb(model: LogisticRegressionModel, prior=None) -> DiscriminativeNBModel:
    """Expand a logistic regression into a discriminative Naive Bayes.

    Any strictly positive prior yields the same posteriors; the default is
    uniform.  Slopes copy the weights, and each position receives an even
    share of the residual bias:
    ``intercepts[i, t] = (biases[i] - (1 - T) * log(prior[i])) / T``.
    Raises ``ValueError`` for a prior without one entry per label and
    :class:`ZeroPrior` for a zero entry.
    """
    if prior is None:
        prior = ProbabilityVector.uniform(model.labels.n)
    elif not isinstance(prior, ProbabilityVector):
        prior = ProbabilityVector(prior)
    if len(prior) != model.labels.n:
        raise ValueError(
            f"prior has {len(prior)} entries, expected {model.labels.n} (one per label)"
        )
    if np.any(prior.entries == 0.0):
        raise ZeroPrior("prior must be strictly positive")
    t_len = model.n_positions
    residual = model.biases - (1.0 - t_len) * np.log(prior.entries)
    intercepts = np.repeat((residual / t_len)[:, None], t_len, axis=1)
    return DiscriminativeNBModel(model.labels, prior, model.weights, intercepts)
