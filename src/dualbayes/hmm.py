"""Posterior marginals of a homogeneous hidden Markov chain, two ways.

Both algorithms compute ``p(label at t | whole observation sequence)`` for
every position with one forward-backward kernel that differs only in the
per-step factor applied for the observed symbol ``y``:

* :func:`forward_backward` is the classic recursion on joint weights; its
  factor is the emission column ``B[:, y]``.
* :func:`entropic_forward_backward` reaches the same marginals without the
  emission law.  It consumes only the prior, the transitions, and the
  per-symbol posterior columns ``L[y][i] = p(label i | symbol y)``; its
  factor is the ratio ``L[:, y] / prior``.

When the posterior columns are derived from the same prior and emissions
(:func:`derive_hmm_posteriors` does exactly that), the ratio equals
``B[:, y] / p(y)``.  The symbol marginal ``p(y)`` is a per-step constant
that normalization cancels, so the two algorithms agree.  For an arbitrary
``(prior, transitions, L)`` triple there is no such guarantee; both
algorithms still run and return what their recursions define.

The kernel divides every forward and backward vector by its total (Rabiner,
"A tutorial on hidden Markov models", Proc. IEEE 1989, section V.A), so
long sequences neither underflow nor accumulate rounding; the totals are
taken as ``v.dot(ones)`` and any total that is not > 0 is zero evidence.
Factors come from a label-by-symbol log table shifted by each column's
maximum, which keeps them in ``[0, 1]`` with at least one entry equal to
one.  The forward vectors are stored as the rows of ``gamma``, the backward
pass multiplies its vector into each row, and the rows are normalized once,
together, at the end.

The forward totals ``c_t`` also give the log-evidence for free:
``log_evidence = sum_t log c_t + sum_t peak[y_t]``, where ``peak[y]`` is the
shift applied to symbol ``y``'s factors.  For :func:`forward_backward` it is
``log p(y_1..y_T)``.  The entropic factors carry an extra ``1 / p(y)`` per
step, so on derived columns the two routes' log-evidences differ by exactly
``sum_t log p(y_t)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    EQUALITY_TOL,
    LabelSpace,
    MissingPosteriors,
    ObservationAlphabet,
    ProbabilityVector,
    ZeroEvidence,
    ZeroPrior,
    bayes_invert,
    check_simplex_rows,
    safe_log,
    stochastic_matrix,
)


@dataclass(frozen=True, eq=False)
class HmmModel:
    """Homogeneous HMM over a single observation alphabet.

    ``transitions[i, j]`` is the probability of moving from label ``i`` to
    label ``j``.  At least one of ``emissions`` (rows are per-label symbol
    distributions) and ``posteriors`` (columns are per-symbol label
    distributions) must be present; when both are, they must describe the
    same joint law together with the prior.
    """

    labels: LabelSpace
    alphabet: ObservationAlphabet
    prior: ProbabilityVector
    transitions: np.ndarray
    emissions: np.ndarray | None = None
    posteriors: np.ndarray | None = None

    def __post_init__(self):
        n = self.labels.n
        if len(self.prior) != n:
            raise ValueError("prior length does not match the label count")
        transitions = stochastic_matrix(self.transitions, what="transition matrix")
        if transitions.shape != (n, n):
            raise ValueError(f"transition matrix must be ({n}, {n}), got {transitions.shape}")
        object.__setattr__(self, "transitions", transitions)

        emissions = self.emissions
        if emissions is not None:
            emissions = stochastic_matrix(emissions, what="emission matrix")
            if emissions.shape != (n, self.alphabet.m):
                raise ValueError(
                    f"emission matrix must be ({n}, {self.alphabet.m}), got {emissions.shape}"
                )
            object.__setattr__(self, "emissions", emissions)

        posteriors = self.posteriors
        if posteriors is not None:
            columns = stochastic_matrix(np.asarray(posteriors, dtype=float).T,
                                        what="posterior columns (transposed)")
            posteriors = columns.T
            if posteriors.shape != (n, self.alphabet.m):
                raise ValueError(
                    f"posterior matrix must be ({n}, {self.alphabet.m}), got {posteriors.shape}"
                )
            posteriors.flags.writeable = False
            object.__setattr__(self, "posteriors", posteriors)

        if emissions is None and posteriors is None:
            raise ValueError("model needs emissions, posteriors, or both")
        if emissions is not None and posteriors is not None:
            self._check_consistency(emissions, posteriors)

    def _check_consistency(self, emissions, posteriors):
        joint = self.prior.entries[:, None] * emissions
        marginal = joint.sum(axis=0)
        reachable = marginal > 0.0
        if not np.any(reachable):
            return
        expected = joint[:, reachable] / marginal[reachable]
        gap = float(np.abs(posteriors[:, reachable] - expected).max())
        if gap > EQUALITY_TOL:
            raise ValueError(
                f"posterior columns disagree with prior and emissions by {gap:.3e}"
            )


@dataclass(frozen=True, eq=False)
class PosteriorMarginals:
    """Per-position posterior over labels, conditioned on the whole sequence.

    ``log_evidence`` is the log of the sequence's total weight under the
    law whose factors produced ``gamma``, when the producer knows it.
    """

    gamma: np.ndarray
    log_evidence: float | None = None

    def __post_init__(self):
        gamma = stochastic_matrix(self.gamma, what="posterior marginals")
        object.__setattr__(self, "gamma", gamma)

    @classmethod
    def _adopt(cls, gamma: np.ndarray, log_evidence: float) -> "PosteriorMarginals":
        # For a gamma that only the kernel holds: validated and frozen in
        # place, where the constructor would copy a caller's array first.
        check_simplex_rows(gamma, what="posterior marginals row")
        gamma.flags.writeable = False
        marginals = cls.__new__(cls)
        object.__setattr__(marginals, "gamma", gamma)
        object.__setattr__(marginals, "log_evidence", log_evidence)
        return marginals

    @property
    def n_steps(self) -> int:
        return self.gamma.shape[0]


def _observation_indices(model: HmmModel, observations) -> list[int]:
    indices = [model.alphabet.index(symbol) for symbol in observations]
    if not indices:
        raise ValueError("need at least one observation")
    return indices


_ZERO_EVIDENCE = "zero evidence: the observation sequence has probability zero under the model"


def _smooth(model: HmmModel, log_table: np.ndarray, observations) -> PosteriorMarginals:
    """Scaled forward-backward with per-symbol factors ``exp(log_table[:, y])``.

    Each factor column is shifted by its own maximum ``peak[y]``, a
    per-symbol constant that normalization cancels.  Forward step ``t``
    divides ``alpha`` by its total ``c_t = alpha.dot(ones)`` and stores it as
    ``gamma[t]``; the backward pass divides its single vector ``beta`` by its
    total and multiplies it into ``gamma[t]`` without renormalizing.  The
    rows are normalized once, vectorized, at the end.  Every total, the
    rows' included, must be > 0, or :class:`ZeroEvidence` is raised.

    The result carries ``log_evidence = sum_t log c_t + sum_t peak[y_t]``,
    the log of the sequence's total weight under the unshifted factors,
    from the forward totals kept in one length-T array that then holds the
    row totals.
    """
    obs = _observation_indices(model, observations)
    peak = log_table.max(axis=0)
    peak[~np.isfinite(peak)] = 0.0  # a symbol no label allows keeps all-zero factors
    factors = list(np.exp(log_table - peak).T)  # factors[y] is the column for symbol y
    transitions = model.transitions
    ones = np.ones(model.labels.n)

    gamma = np.empty((len(obs), model.labels.n))
    scales = np.empty(len(obs))
    alpha = model.prior.entries * factors[obs[0]]
    for t, y in enumerate(obs):
        if t:
            alpha = alpha.dot(transitions) * factors[y]
        total = alpha.dot(ones)
        if not total > 0.0:
            raise ZeroEvidence(_ZERO_EVIDENCE)
        alpha /= total
        gamma[t] = alpha
        scales[t] = total

    beta = ones
    for t in range(len(obs) - 2, -1, -1):
        beta = transitions.dot(factors[obs[t + 1]] * beta)
        total = beta.dot(ones)
        if not total > 0.0:
            raise ZeroEvidence(_ZERO_EVIDENCE)
        beta /= total
        row = gamma[t]  # a view: multiplying it in place skips the write-back
        row *= beta

    log_evidence = float(np.log(scales).sum() + peak[obs].sum())
    totals = gamma.dot(ones, out=scales)  # the scales are spent; reuse their buffer
    if not np.all(totals > 0.0):
        raise ZeroEvidence(_ZERO_EVIDENCE)
    gamma /= totals[:, None]
    return PosteriorMarginals._adopt(gamma, log_evidence)


def forward_backward(model: HmmModel, observations) -> PosteriorMarginals:
    """Classic posterior marginals from prior, transitions and emissions.

    The per-step factor of symbol ``y`` is the emission column ``B[:, y]``,
    and ``log_evidence`` is ``log p(y_1..y_T)``.  Raises
    :class:`ZeroEvidence` when the sequence has probability zero.
    """
    if model.emissions is None:
        raise ValueError("forward_backward needs the emission matrix")
    return _smooth(model, safe_log(model.emissions), observations)


def entropic_forward_backward(model: HmmModel, observations) -> PosteriorMarginals:
    """Posterior marginals from posterior columns alone.

    Uses only the prior, the transitions, and the stored per-symbol
    posterior columns: the per-step factor of symbol ``y`` is the ratio
    ``L[:, y] / prior``.  Neither the emission matrix nor any symbol
    marginal enters the recursion.  ``log_evidence`` is the log of the
    total path weight under these ratios; on derived columns it is
    ``log p(y_1..y_T) - sum_t log p(y_t)``.
    """
    if model.posteriors is None:
        raise MissingPosteriors("model has no posterior columns; derive or supply them")
    if np.any(model.prior.entries == 0.0):
        raise ZeroPrior("the entropic recursion needs a strictly positive prior")
    log_ratio = safe_log(model.posteriors) - np.log(model.prior.entries)[:, None]
    return _smooth(model, log_ratio, observations)


def derive_hmm_posteriors(model: HmmModel) -> HmmModel:
    """Fill the posterior columns by Bayes-inverting prior and emissions.

    ``L[y][i] = prior[i] * emissions[i, y] / marginal(y)`` with the symbol
    marginal taken under the model.  The result carries both
    parameterizations and satisfies the consistency invariant by
    construction.
    """
    if model.emissions is None:
        raise ValueError("deriving posteriors needs the emission matrix")
    return HmmModel(
        labels=model.labels,
        alphabet=model.alphabet,
        prior=model.prior,
        transitions=model.transitions,
        emissions=model.emissions,
        posteriors=bayes_invert(model.prior.entries, model.emissions, model.alphabet.symbols),
    )
