"""Naive Bayes in its two parameterizations.

The classifier assumes the observation positions are independent given the
label.  The same model then supports two inference routes:

* the *generative* route multiplies the prior by the per-position emission
  probabilities of the observed symbols and renormalizes;
* the *discriminative* route never touches the emission law: it consumes
  one posterior column per position, ``L[t][i] = p(label i | symbol at t)``,
  and combines them with the prior as ``prior^(1-T) * prod_t L[t]`` before
  renormalizing.

Every route normalizes ``c * log prior + sum_t log column_t`` in one
private fold: ``c = 1`` with columns gathered from the emission tables by
symbol code (:func:`nb_encode`), ``c = 1 - T`` with columns gathered from
posterior-column tables or, on real values, per-position log softmax
columns; logistic regression is the fold with prior term ``biases``.  The
per-row functions are a batch of one through it, bit for bit.

The two routes agree exactly whenever the posterior columns are the Bayes
inversion of the same prior and emissions, which :func:`nb_to_discriminative`
produces.  :class:`DiscriminativeNBModel` extends the discriminative route
to real-valued observations by modelling every column as a softmax of an
affine score per label, which is what makes gradient training and the
logistic-regression conversion possible.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .core import (
    AllZeroWeights,
    EmptyDataset,
    LabelSpace,
    LengthMismatch,
    ObservationAlphabet,
    ProbabilityVector,
    UnknownSymbol,
    ZeroEvidence,
    ZeroPrior,
    _float_array,
    as_probability_vector,
    bayes_invert,
    is_real,
    log_softmax_last,
    parameter_array,
    real_observations,
    safe_log,
)


@dataclass(frozen=True, eq=False)
class NaiveBayesModel:
    """Generative parameterization: prior plus per-position emission tables.

    ``emissions[t]`` has shape ``(N, M_t)``; row ``i`` is the distribution
    of the symbol at position ``t`` given label ``i``.  A zero prior entry
    is allowed here (the generative route just assigns that label weight
    zero); the discriminative conversions reject it.
    """

    labels: LabelSpace
    alphabets: tuple[ObservationAlphabet, ...]
    prior: ProbabilityVector
    emissions: tuple[np.ndarray, ...]

    def __post_init__(self):
        alphabets = tuple(self.alphabets)
        if not alphabets:
            raise ValueError("need at least one observation position")
        prior = as_probability_vector(self.prior, self.labels.n)
        if len(self.emissions) != len(alphabets):
            raise ValueError("need one emission table per observation position")
        tables = tuple(
            parameter_array(table, f"emission table {t}", (self.labels.n, alphabet.m),
                            simplex_rows=True)
            for t, (table, alphabet) in enumerate(zip(self.emissions, alphabets))
        )
        object.__setattr__(self, "alphabets", alphabets)
        object.__setattr__(self, "prior", prior)
        object.__setattr__(self, "emissions", tables)

    @property
    def n_positions(self) -> int:
        return len(self.alphabets)


@dataclass(frozen=True, eq=False)
class DiscriminativeNBModel:
    """Discriminative parameterization on real-valued observations.

    Position ``t`` scores label ``i`` as ``slopes[i, t] * y_t +
    intercepts[i, t]``; the posterior column for that position is the
    softmax of the scores over labels.  The prior must be strictly
    positive because it enters the combination raised to ``1 - T``.
    """

    labels: LabelSpace
    prior: ProbabilityVector
    slopes: np.ndarray
    intercepts: np.ndarray

    def __post_init__(self):
        prior = as_probability_vector(self.prior, self.labels.n)
        if np.any(prior.entries == 0.0):
            raise ZeroPrior("prior must be strictly positive")
        slopes = parameter_array(self.slopes, "slopes", (self.labels.n, None))
        object.__setattr__(self, "prior", prior)
        object.__setattr__(self, "slopes", slopes)
        object.__setattr__(self, "intercepts",
                           parameter_array(self.intercepts, "intercepts", slopes.shape))

    @property
    def n_positions(self) -> int:
        return self.slopes.shape[1]


@dataclass(frozen=True, eq=False)
class SufficientStatistics:
    """Raw pattern counts behind the maximum-likelihood fit."""

    sample_count: int
    label_counts: np.ndarray
    emission_counts: tuple[np.ndarray, ...]

    def __post_init__(self):
        label_counts = np.array(self.label_counts, dtype=np.int64)
        if self.sample_count < 1:
            raise ValueError("sample_count must be positive")
        if int(label_counts.sum()) != self.sample_count:
            raise ValueError("label counts do not add up to the sample count")
        tables = []
        for t, table in enumerate(self.emission_counts):
            arr = np.array(table, dtype=np.int64)
            if np.any(arr.sum(axis=1) != label_counts):
                raise ValueError(f"emission counts at position {t} do not add up to the label counts")
            arr.flags.writeable = False
            tables.append(arr)
        label_counts.flags.writeable = False
        object.__setattr__(self, "label_counts", label_counts)
        object.__setattr__(self, "emission_counts", tuple(tables))


def nb_sufficient_statistics(dataset, labels: LabelSpace, alphabets) -> SufficientStatistics:
    """Count labels and per-position symbol patterns in a dataset.

    ``dataset`` is a sequence of ``(label, observation)`` pairs where each
    observation is a sequence of symbols, one per declared alphabet.
    """
    if len(dataset) == 0:
        raise EmptyDataset("empty dataset")
    alphabets = tuple(alphabets)
    label_codes = []

    def observations():
        # one sample at a time, so the first bad sample raises first
        for label, observation in dataset:
            label_codes.append(labels.index(label))
            yield observation

    codes = _encode([alphabet.code_of for alphabet in alphabets], observations())
    label_codes = np.array(label_codes, dtype=np.intp)
    emission_counts = tuple(
        np.bincount(label_codes * alphabet.m + codes[:, t], minlength=labels.n * alphabet.m)
        .reshape(labels.n, alphabet.m)
        for t, alphabet in enumerate(alphabets)
    )
    label_counts = np.bincount(label_codes, minlength=labels.n)
    return SufficientStatistics(len(dataset), label_counts, emission_counts)


def _infer_spaces(dataset):
    labels = LabelSpace(tuple(sorted({label for label, _ in dataset})))
    t_len = len(dataset[0][1])
    for k, (_, observation) in enumerate(dataset):
        if len(observation) != t_len:
            raise LengthMismatch(
                f"sample {k} has {len(observation)} positions, expected {t_len}"
            )
    if t_len == 0:
        raise LengthMismatch("observations must have at least one position")
    alphabets = tuple(
        ObservationAlphabet(tuple(sorted({obs[t] for _, obs in dataset})))
        for t in range(t_len)
    )
    return labels, alphabets


def nb_fit_mle(dataset, smoothing_alpha: float = 0.0, *, labels=None, alphabets=None) -> NaiveBayesModel:
    """Fit by counting patterns, with optional additive smoothing.

    With ``smoothing_alpha == 0`` every parameter is the exact count
    ratio: the prior is ``count(label) / n_samples`` and emission row
    entries are ``count(label, symbol) / count(label)``.  A declared label
    that never occurs then gets prior zero and a uniform emission row
    (any row maximizes the likelihood there).  With ``smoothing_alpha > 0``
    the constant is added to every count, prior and emissions alike.

    Label and symbol spaces default to the sorted values observed in the
    dataset; pass ``labels``/``alphabets`` to widen them.
    """
    if len(dataset) == 0:
        raise EmptyDataset("empty dataset")
    if labels is None or alphabets is None:
        inferred_labels, inferred_alphabets = _infer_spaces(dataset)
        labels = labels if labels is not None else inferred_labels
        alphabets = alphabets if alphabets is not None else inferred_alphabets
    alphabets = tuple(alphabets)
    stats = nb_sufficient_statistics(dataset, labels, alphabets)
    return _model_from_statistics(stats, labels, alphabets, _smoothing_alpha(smoothing_alpha))


def _smoothing_alpha(value) -> float:
    # one check for nb_fit_mle and for fit --generative, which runs it before
    # it reads the dataset
    if not is_real(value) or not 0.0 <= value < np.inf:  # NaN fails too
        raise ValueError("smoothing_alpha must be finite and nonnegative")
    return float(value)


def _model_from_statistics(stats: SufficientStatistics, labels: LabelSpace, alphabets,
                           alpha: float) -> NaiveBayesModel:
    """The (smoothed) count-ratio model of :func:`nb_fit_mle` from its counts,
    with ``alpha`` checked by :func:`_smoothing_alpha`.

    Raises ``ValueError`` for an ``alpha`` so large that a total the counts
    are divided by overflows, which would zero every entry it divides.
    """
    counts = stats.label_counts.astype(float)
    largest = max(stats.sample_count + alpha * labels.n,
                  *(float(counts.max()) + alpha * alphabet.m for alphabet in alphabets))
    if largest == np.inf:
        raise ValueError("smoothing_alpha is too large: the smoothed totals overflow")
    prior = ProbabilityVector((counts + alpha) / (stats.sample_count + alpha * labels.n))

    emissions = []
    for alphabet, table in zip(alphabets, stats.emission_counts):
        denom = (counts + alpha * alphabet.m)[:, None]
        # a label with no samples and no smoothing divides 0 by 0 and gets a uniform row
        with np.errstate(invalid="ignore"):
            emissions.append(np.where(denom > 0.0, (table + alpha) / denom, 1.0 / alphabet.m))
    return NaiveBayesModel(labels, alphabets, prior, tuple(emissions))


def _symbol_codes(lookups, observation) -> list[int]:
    if len(observation) != len(lookups):
        raise LengthMismatch(
            f"observation has {len(observation)} positions, expected {len(lookups)}"
        )
    codes = []
    for lookup, symbol in zip(lookups, observation):
        try:
            codes.append(lookup[symbol])
        except (KeyError, TypeError):  # TypeError: an unhashable symbol
            raise UnknownSymbol(f"unknown symbol {symbol!r}") from None
    return codes


def _encode(lookups, observations) -> np.ndarray:
    # streamed into one array, without a Python list per observation
    codes = chain.from_iterable(_symbol_codes(lookups, observation) for observation in observations)
    return np.fromiter(codes, dtype=np.intp).reshape(-1, len(lookups))


def nb_encode(model: NaiveBayesModel, observations) -> np.ndarray:
    """Symbol codes of a batch of observations, shape ``(S, T)``.

    Row ``s`` holds the index of each observed symbol in its position's
    alphabet; raises :class:`LengthMismatch` or :class:`UnknownSymbol` at
    the first bad observation.  This is the input of the batch kernels
    :func:`nb_generative_log_posterior_batch` and
    :func:`nb_discriminative_log_posterior_batch`.
    """
    return _encode([alphabet.code_of for alphabet in model.alphabets], observations)


def _gathered_log_columns(tables, codes):
    # the (S, N) log columns log tables[t][codes[:, t]] for checked codes of
    # shape (S, T) and tables of shape (M_t, N), each gathered when folded
    codes = np.asarray(codes)
    if codes.ndim != 2 or codes.shape[1] != len(tables):
        raise LengthMismatch(f"codes must have shape (S, {len(tables)}), got {codes.shape}")
    if not np.issubdtype(codes.dtype, np.integer):
        raise UnknownSymbol(f"symbol codes must be integers, got dtype {codes.dtype}")
    sizes = np.array([table.shape[0] for table in tables])
    if ((codes < 0) | (codes >= sizes)).any():
        raise UnknownSymbol(f"symbol codes must lie in [0, M_t) for M_t = {sizes.tolist()}")
    with np.errstate(divide="ignore"):
        log_tables = [np.log(table) for table in tables]
    return (log_table.take(column, axis=0) for log_table, column in zip(log_tables, codes.T))


def _nb_log_posterior(log_prior_term, log_columns, error=None) -> np.ndarray:
    # normalized log_prior_term + sum_t log_columns[t] for (S, N) columns, the
    # one fold of every NB route and of LR; columns are added one at a time in
    # a fixed order, so a row does not depend on its batch.  ``error`` is raised
    # when some row gives every label weight zero; without it that row is NaN.
    log_weights = log_prior_term
    for column in log_columns:
        log_weights = log_weights + column
    if error is not None and not np.isfinite(log_weights).any(axis=1).all():
        raise error
    return log_softmax_last(log_weights)


def nb_generative_log_posterior_batch(model: NaiveBayesModel, codes) -> np.ndarray:
    """Log posterior matrix of the generative route, shape ``(S, N)``.

    ``codes`` comes from :func:`nb_encode`.  Each row is the normalized
    ``log prior + sum_t log emissions[t][:, y_t]``; an impossible label
    gets ``-inf``.  Raises :class:`ZeroEvidence` if some row is impossible
    under every label and :class:`UnknownSymbol` for a non-integer code or
    one outside its position's alphabet.
    """
    log_columns = _gathered_log_columns([table.T for table in model.emissions], codes)
    return _nb_log_posterior(
        safe_log(model.prior.entries), log_columns,
        ZeroEvidence("zero evidence: the observation has probability zero under every label"),
    )


def nb_generative_posterior(model: NaiveBayesModel, observation) -> ProbabilityVector:
    """Posterior over labels from the joint law.

    Weighs each label by prior times the product of its emission
    probabilities for the observed symbols, in log space, then normalizes;
    a batch of one through :func:`nb_generative_log_posterior_batch`.
    """
    codes = nb_encode(model, [observation])
    return ProbabilityVector(np.exp(nb_generative_log_posterior_batch(model, codes)[0]))


def nb_to_discriminative(model: NaiveBayesModel) -> tuple[np.ndarray, ...]:
    """Bayes-invert prior and emissions into per-position posterior tables.

    Returns one table per position with shape ``(M_t, N)``; row ``y`` is
    the posterior over labels given symbol ``y`` at that position alone,
    under the model-implied symbol law ``sum_j prior[j] * emissions[t][j, y]``,
    so every row lies on the simplex.  Raises :class:`ZeroPrior` or
    :class:`ZeroMarginal`.
    """
    if np.any(model.prior.entries == 0.0):
        raise ZeroPrior("Bayes inversion needs a strictly positive prior")
    tables = tuple(
        bayes_invert(model.prior.entries, table, alphabet.symbols, f" at position {t}").T
        for t, (table, alphabet) in enumerate(zip(model.emissions, model.alphabets))
    )
    for table in tables:  # fresh arrays: frozen in place, not copied
        table.flags.writeable = False
    return tables


def nb_discriminative_log_posterior_batch(prior, tables, codes) -> np.ndarray:
    """Log posterior matrix of the posterior-column route, shape ``(S, N)``.

    ``tables`` hold nonnegative label weights, shape ``(M_t, N)``, normally
    from :func:`nb_to_discriminative`; ``codes`` comes from :func:`nb_encode`.
    Each row is the normalized ``(1 - T) * log prior + sum_t log
    tables[t][y_t]``, so rescaling a table row changes nothing.  Raises
    :class:`AllZeroWeights` if every label of some row scores zero and
    :class:`UnknownSymbol` for a non-integer code or one outside its table.
    """
    prior = as_probability_vector(prior)
    if np.any(prior.entries == 0.0):
        raise ZeroPrior("the discriminative combination needs a strictly positive prior")
    tables = [_float_array(table) for table in tables]
    if any(table is None for table in tables):
        raise ValueError("posterior tables must be arrays of numbers")
    if not tables:
        raise ValueError("need at least one posterior table")
    if any(table.ndim != 2 or table.shape[1] != len(prior) for table in tables):
        raise ValueError(f"posterior tables must have shape (M_t, {len(prior)})")
    weights = np.concatenate(tables)
    if not (np.isfinite(weights).all() and (weights >= 0.0).all()):
        raise ValueError("posterior table entries must be finite and nonnegative")
    return _nb_log_posterior(
        (1.0 - len(tables)) * np.log(prior.entries), _gathered_log_columns(tables, codes),
        AllZeroWeights("every weight is zero"),
    )


def nb_discriminative_posterior(prior, l_columns) -> ProbabilityVector:
    """Combine the prior with one posterior column per position.

    Normalizes the label scores ``prior^(1-T) * prod_t L[t]``; a batch of
    one through :func:`nb_discriminative_log_posterior_batch`, with each
    column as a one-row table.  Raises :class:`AllZeroWeights` when every
    label gets score zero.
    """
    tables = [[c.entries if isinstance(c, ProbabilityVector) else c] for c in l_columns]
    codes = np.zeros((1, len(tables)), dtype=np.intp)
    return ProbabilityVector(np.exp(nb_discriminative_log_posterior_batch(prior, tables, codes)[0]))


def disc_nb_posterior(model: DiscriminativeNBModel, observation) -> ProbabilityVector:
    """Posterior of a softmax-parameterized model at one real observation;
    a batch of one through :func:`disc_nb_log_posterior_batch`."""
    return ProbabilityVector(np.exp(disc_nb_log_posterior_batch(model, [observation])[0]))


def disc_nb_log_posterior_batch(model: DiscriminativeNBModel, observations) -> np.ndarray:
    """Log posterior matrix for a batch of observations.

    ``observations`` has shape ``(S, T)``; the result has shape ``(S, N)``
    and each row is the log of :func:`disc_nb_posterior` for that
    observation.  The log softmax columns of ``y_t * slopes[:, t] +
    intercepts[:, t]`` go through the symbolic routes' fold with prior term
    ``(1 - T) * log prior``; the logistic-regression collapse feeds it other
    columns, which is what lets the conversion checks compare the two.
    """
    obs = real_observations(observations, model.n_positions)
    # extreme parameters overflow the logits into NaN rows, which the callers
    # detect (a failed simplex check or probe), so the warnings are silenced
    with np.errstate(over="ignore", invalid="ignore"):
        # logits[s, t, i] = slopes[i, t] * obs[s, t] + intercepts[i, t]
        logits = obs[:, :, None] * model.slopes.T + model.intercepts.T
        return _nb_log_posterior((1.0 - model.n_positions) * np.log(model.prior.entries),
                                 log_softmax_last(logits).transpose(1, 0, 2))
