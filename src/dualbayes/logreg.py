"""Multinomial logistic regression and its exact conversion to and from
the discriminative Naive Bayes parameterization.

Logistic regression is Naive Bayes used discriminatively: its inference is
the Naive Bayes fold of :mod:`~dualbayes.naive_bayes` with prior term
``biases`` and one column ``y_t * weights[:, t]`` per position, normalized
once.  :func:`lr_log_posterior_batch` only builds those inputs.

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
    as_probability_vector,
    parameter_array,
    real_observations,
)
from .naive_bayes import DiscriminativeNBModel, _nb_log_posterior


@dataclass(frozen=True, eq=False)
class LogisticRegressionModel:
    """Softmax-linear classifier: posterior = softmax(weights @ y + biases)."""

    labels: LabelSpace
    weights: np.ndarray
    biases: np.ndarray

    def __post_init__(self):
        n = self.labels.n
        object.__setattr__(self, "weights", parameter_array(self.weights, "weights", (n, None)))
        object.__setattr__(self, "biases", parameter_array(self.biases, "biases", (n,)))

    @property
    def n_positions(self) -> int:
        return self.weights.shape[1]


def lr_posterior(model: LogisticRegressionModel, observation) -> ProbabilityVector:
    """Softmax posterior at one observation; a batch of one through
    :func:`lr_log_posterior_batch`.

    Every entry is strictly positive as long as the logit spread stays
    within double-precision exponent range.
    """
    return ProbabilityVector(np.exp(lr_log_posterior_batch(model, [observation])[0]))


def lr_log_posterior_batch(model: LogisticRegressionModel, observations) -> np.ndarray:
    """Log posterior matrix for a batch of observations, shape ``(S, N)``."""
    obs = real_observations(observations, model.n_positions)
    # one column per position, built when the fold reaches it, never a matrix
    # product: BLAS sums one row and many rows in different orders, and a row
    # must not depend on its batch.  Overflowing logits give NaN rows, which
    # the callers detect (a failed probe or simplex check).
    with np.errstate(over="ignore", invalid="ignore"):
        return _nb_log_posterior(model.biases, map(np.multiply.outer, obs.T, model.weights.T))


def nb_to_lr(model: DiscriminativeNBModel) -> LogisticRegressionModel:
    """Collapse a discriminative Naive Bayes into one softmax-linear layer.

    ``weights[i] = slopes[i]`` and
    ``biases[i] = (1 - T) * log(prior[i]) + sum_t intercepts[i, t]``;
    posteriors are preserved pointwise.
    """
    biases = (1.0 - model.n_positions) * np.log(model.prior.entries) + model.intercepts.sum(axis=1)
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
    prior = as_probability_vector(prior, model.labels.n)
    if np.any(prior.entries == 0.0):
        raise ZeroPrior("prior must be strictly positive")
    t_len = model.n_positions
    residual = model.biases - (1.0 - t_len) * np.log(prior.entries)
    intercepts = np.repeat((residual / t_len)[:, None], t_len, axis=1)
    return DiscriminativeNBModel(model.labels, prior, model.weights, intercepts)
