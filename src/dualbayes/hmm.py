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

Each route gathers: it builds a ``(K, N)`` table of log factors, one row
per symbol, and maps step ``t`` to the row of ``y_t``.  The kernel sees
only initial weights, transitions, that table and that row index.  It
divides every forward and backward vector by its total (Rabiner, "A
tutorial on hidden Markov models", Proc. IEEE 1989, section V.A), so long
sequences neither underflow nor accumulate rounding; the totals are taken
as ``v.dot(ones)`` and any total that is not > 0 is zero evidence.  Each
factor row is shifted by its own maximum, which keeps it in ``[0, 1]``
with at least one entry equal to one.  The forward vectors are stored as
the rows of ``gamma``, the backward pass multiplies its vector into each
row, and the rows are normalized once, together, at the end.

The forward totals ``c_t`` also give the log-evidence for free:
``log_evidence = sum_t log c_t + sum_t peak[k_t]``, where ``k_t`` is the
row used at step ``t`` and ``peak[k]`` is the shift applied to row ``k``.
For :func:`forward_backward` it is ``log p(y_1..y_T)``.  The entropic
factors carry an extra ``1 / p(y)`` per step, so on derived columns the two
routes' log-evidences differ by exactly ``sum_t log p(y_t)``.
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
    parameter_array,
    safe_log,
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
        n, m = self.labels.n, self.alphabet.m
        if len(self.prior) != n:
            raise ValueError("prior length does not match the label count")
        object.__setattr__(self, "transitions", parameter_array(
            self.transitions, "transition matrix", (n, n), simplex_rows=True))

        emissions = self.emissions
        if emissions is not None:
            emissions = parameter_array(emissions, "emission matrix", (n, m), simplex_rows=True)
            object.__setattr__(self, "emissions", emissions)

        posteriors = self.posteriors
        if posteriors is not None:
            posteriors = parameter_array(posteriors, "posterior matrix", (n, m))
            check_simplex_rows(posteriors.T, what="posterior column")
            object.__setattr__(self, "posteriors", posteriors)

        if emissions is None and posteriors is None:
            raise ValueError("model needs emissions, posteriors, or both")
        if emissions is not None and posteriors is not None:
            self._check_consistency(emissions, posteriors)

    def _check_consistency(self, emissions, posteriors):
        # only symbols of nonzero marginal constrain their posterior column, and
        # bayes_invert cannot fail on those
        reachable = self.prior.entries.dot(emissions) > 0.0
        if not np.any(reachable):
            return
        expected = bayes_invert(self.prior.entries, emissions[:, reachable], self.alphabet.symbols)
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
        object.__setattr__(self, "gamma", parameter_array(
            self.gamma, "posterior marginals", (None, None), simplex_rows=True))

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


_ZERO_EVIDENCE = "zero evidence: the observation sequence has probability zero under the model"


def _smooth(init, transitions, log_factors, rows) -> PosteriorMarginals:
    """Scaled forward-backward with per-step factors ``exp(log_factors[rows[t]])``.

    ``init`` (N,) and ``transitions`` (N, N) are nonnegative weights,
    ``log_factors`` is (K, N) with entries in ``[-inf, inf)`` and ``rows``
    holds T >= 1 indices into it.  Each factor row is shifted by its own
    maximum ``peak[k]``, a constant that normalization cancels.  Forward
    step ``t`` divides ``alpha`` by its total ``c_t = alpha.dot(ones)`` and
    stores it as ``gamma[t]``; the backward pass divides its single vector
    ``beta`` by its total and multiplies it into ``gamma[t]`` without
    renormalizing.  The rows are normalized once, vectorized, at the end.
    Every total, the rows' included, must be > 0, or :class:`ZeroEvidence`
    is raised.

    ``log_evidence = sum_t log c_t + sum_t peak[rows[t]]`` is the log of the
    sequence's total weight under the unshifted factors; the forward totals
    share one length-T buffer with the row totals.
    """
    if len(rows) == 0:
        raise ValueError("need at least one observation")
    peak = log_factors.max(axis=1)
    peak[~np.isfinite(peak)] = 0.0  # a row of all -inf keeps all-zero factors
    factors = list(np.exp(log_factors - peak[:, None]))  # factors[k] is row k
    ones = np.ones(len(init))

    gamma = np.empty((len(rows), len(init)))
    scales = np.empty(len(rows))
    alpha = init * factors[rows[0]]
    for t, k in enumerate(rows):
        if t:
            alpha = alpha.dot(transitions) * factors[k]
        total = alpha.dot(ones)
        if not total > 0.0:
            raise ZeroEvidence(_ZERO_EVIDENCE)
        alpha /= total
        gamma[t] = alpha
        scales[t] = total

    beta = ones
    for t in range(len(rows) - 2, -1, -1):
        beta = transitions.dot(factors[rows[t + 1]] * beta)
        total = beta.dot(ones)
        if not total > 0.0:
            raise ZeroEvidence(_ZERO_EVIDENCE)
        beta /= total
        row = gamma[t]  # a view: multiplying it in place skips the write-back
        row *= beta

    log_evidence = float(np.log(scales).sum() + peak[rows].sum())
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
    rows = [model.alphabet.index(y) for y in observations]
    return _smooth(model.prior.entries, model.transitions, safe_log(model.emissions.T), rows)


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
    rows = [model.alphabet.index(y) for y in observations]
    log_ratio = safe_log(model.posteriors.T) - np.log(model.prior.entries)
    return _smooth(model.prior.entries, model.transitions, log_ratio, rows)


def derive_hmm_posteriors(model: HmmModel) -> HmmModel:
    """Fill the posterior columns by Bayes-inverting prior and emissions.

    ``L[y][i] = prior[i] * emissions[i, y] / marginal(y)`` with the symbol
    marginal taken under the model.  The result carries both
    parameterizations and satisfies the consistency invariant by
    construction.
    """
    if model.emissions is None:
        raise ValueError("deriving posteriors needs the emission matrix")
    if np.any(model.prior.entries == 0.0):
        raise ZeroPrior("Bayes inversion needs a strictly positive prior")
    return HmmModel(
        labels=model.labels,
        alphabet=model.alphabet,
        prior=model.prior,
        transitions=model.transitions,
        emissions=model.emissions,
        posteriors=bayes_invert(model.prior.entries, model.emissions, model.alphabet.symbols),
    )
