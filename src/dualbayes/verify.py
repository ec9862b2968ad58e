"""Randomized cross-verification sweeps.

Each suite draws models from safe parameter ranges (probabilities bounded
away from zero, short sequences), computes the same posterior along two or
more independent routes, and records the worst absolute discrepancy.  Each
Naive Bayes case runs its observations as one batch through the two kernels
``predict`` uses, against the brute-force oracle of :mod:`.oracle`, which
scores each observation on its own.  The worst is kept with ``np.maximum``,
so one NaN gap fails the suite, where the builtin ``max`` would drop it
(``max(0.0, nan) == 0.0``).  The CLI
``verify`` command formats the results; the test suite reuses both the
suites and the model generators.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import EQUALITY_TOL, LabelSpace, ObservationAlphabet, ProbabilityVector
from .hmm import HmmModel, derive_hmm_posteriors, entropic_forward_backward, forward_backward
from .logreg import (
    LogisticRegressionModel,
    lr_log_posterior_batch,
    lr_to_nb,
    nb_to_lr,
)
from .naive_bayes import (
    DiscriminativeNBModel,
    NaiveBayesModel,
    disc_nb_log_posterior_batch,
    nb_discriminative_log_posterior_batch,
    nb_encode,
    nb_generative_log_posterior_batch,
    nb_to_discriminative,
)
from .oracle import joint_enumeration_hmm, joint_enumeration_nb

# Draw settings: probabilities come from uniform weights on [PROBABILITY_FLOOR, 1],
# real parameters from [-PARAMETER_SCALE, PARAMETER_SCALE]; the rest are counts.
PROBABILITY_FLOOR = 0.05
PARAMETER_SCALE = 1.5
MAX_SYMBOLS = 6
OBSERVATIONS_PER_MODEL = 2
PROBES_PER_CONVERSION = 100
FB_EFB_MAX_STEPS = 8


@dataclass(frozen=True)
class SuiteResult:
    name: str
    cases: int
    max_discrepancy: float
    tolerance: float = EQUALITY_TOL

    @property
    def passed(self) -> bool:
        return self.max_discrepancy <= self.tolerance


def random_probability_vector(rng, n) -> ProbabilityVector:
    weights = rng.uniform(PROBABILITY_FLOOR, 1.0, size=n)
    return ProbabilityVector(weights / weights.sum())


def random_stochastic_matrix(rng, n_rows, n_cols) -> np.ndarray:
    weights = rng.uniform(PROBABILITY_FLOOR, 1.0, size=(n_rows, n_cols))
    return weights / weights.sum(axis=1, keepdims=True)


# Both are frozen values, so every model of a size shares one.
@lru_cache(maxsize=None)
def _label_space(n: int) -> LabelSpace:
    return LabelSpace(tuple(f"l{k}" for k in range(n)))


@lru_cache(maxsize=None)
def _alphabet(m: int) -> ObservationAlphabet:
    return ObservationAlphabet(tuple(f"s{k}" for k in range(m)))


def _size(rng, value, low, high) -> int:
    """``value``, or a draw from ``[low, high)`` when it is None."""
    return int(rng.integers(low, high)) if value is None else value


def random_naive_bayes(rng, n_labels=None, t_len=None) -> NaiveBayesModel:
    n_labels = _size(rng, n_labels, 2, 6)
    t_len = _size(rng, t_len, 1, 7)
    alphabets = tuple(
        _alphabet(int(rng.integers(1, MAX_SYMBOLS + 1))) for _ in range(t_len)
    )
    return NaiveBayesModel(
        labels=_label_space(n_labels),
        alphabets=alphabets,
        prior=random_probability_vector(rng, n_labels),
        emissions=tuple(random_stochastic_matrix(rng, n_labels, ab.m) for ab in alphabets),
    )


def random_nb_observation(rng, model: NaiveBayesModel) -> list[str]:
    return [ab.symbols[int(rng.integers(0, ab.m))] for ab in model.alphabets]


def random_discriminative_nb(rng, n_labels=None, t_len=None) -> DiscriminativeNBModel:
    n_labels = _size(rng, n_labels, 2, 6)
    t_len = _size(rng, t_len, 1, 7)
    return DiscriminativeNBModel(
        labels=_label_space(n_labels),
        prior=random_probability_vector(rng, n_labels),
        slopes=rng.uniform(-PARAMETER_SCALE, PARAMETER_SCALE, size=(n_labels, t_len)),
        intercepts=rng.uniform(-PARAMETER_SCALE, PARAMETER_SCALE, size=(n_labels, t_len)),
    )


def random_logreg(rng, n_labels=None, t_len=None) -> LogisticRegressionModel:
    n_labels = _size(rng, n_labels, 2, 6)
    t_len = _size(rng, t_len, 1, 7)
    return LogisticRegressionModel(
        labels=_label_space(n_labels),
        weights=rng.uniform(-PARAMETER_SCALE, PARAMETER_SCALE, size=(n_labels, t_len)),
        biases=rng.uniform(-PARAMETER_SCALE, PARAMETER_SCALE, size=n_labels),
    )


def random_hmm(rng, n_labels=None, m_symbols=None, derive=False) -> HmmModel:
    n_labels = _size(rng, n_labels, 2, 5)
    m_symbols = _size(rng, m_symbols, 1, 6)
    model = HmmModel(
        labels=_label_space(n_labels),
        alphabet=_alphabet(m_symbols),
        prior=random_probability_vector(rng, n_labels),
        transitions=random_stochastic_matrix(rng, n_labels, n_labels),
        emissions=random_stochastic_matrix(rng, n_labels, m_symbols),
    )
    return derive_hmm_posteriors(model) if derive else model


def random_hmm_observation(rng, model: HmmModel, t_len: int) -> list[str]:
    return [model.alphabet.symbols[int(rng.integers(0, model.alphabet.m))]
            for _ in range(t_len)]


def nb_agreement_suite(rng, cases: int = 1000) -> SuiteResult:
    """Generative route vs posterior-column route vs direct enumeration.

    Each case draws one model and ``OBSERVATIONS_PER_MODEL`` observations,
    encodes them once, and runs them as one batch through the two kernels
    ``predict`` uses, :func:`nb_generative_log_posterior_batch` and
    :func:`nb_discriminative_log_posterior_batch`; the oracle
    :func:`joint_enumeration_nb` scores each observation on its own.
    """
    worst = 0.0
    for _ in range(cases):
        model = random_naive_bayes(rng)
        tables = nb_to_discriminative(model)
        observations = [random_nb_observation(rng, model) for _ in range(OBSERVATIONS_PER_MODEL)]
        codes = nb_encode(model, observations)
        generative = np.exp(nb_generative_log_posterior_batch(model, codes))
        discriminative = np.exp(nb_discriminative_log_posterior_batch(model.prior, tables, codes))
        reference = np.array([joint_enumeration_nb(model, o).entries for o in observations])
        gap = np.maximum(np.abs(generative - discriminative), np.abs(generative - reference))
        worst = np.maximum(worst, gap.max())
    return SuiteResult("nb-generative-vs-discriminative", cases, float(worst))


def logreg_equivalence_suite(rng, cases: int = 500) -> SuiteResult:
    """Conversion between softmax-linear and discriminative form, both ways.

    Per case: collapse a random discriminative model, expand a random
    softmax-linear model under a random positive prior, and collapse that
    expansion back; compare posteriors at random observations each time.
    """
    worst = 0.0
    for _ in range(cases):
        disc = random_discriminative_nb(rng)
        collapsed = nb_to_lr(disc)
        probes = rng.normal(0.0, 2.0, size=(PROBES_PER_CONVERSION, disc.n_positions))
        gap = np.abs(
            np.exp(disc_nb_log_posterior_batch(disc, probes))
            - np.exp(lr_log_posterior_batch(collapsed, probes))
        )
        worst = np.maximum(worst, gap.max())

        linear = random_logreg(rng)
        prior = random_probability_vector(rng, linear.labels.n)
        expanded = lr_to_nb(linear, prior)
        probes = rng.normal(0.0, 2.0, size=(PROBES_PER_CONVERSION, linear.n_positions))
        reference = np.exp(lr_log_posterior_batch(linear, probes))
        gap = np.abs(np.exp(disc_nb_log_posterior_batch(expanded, probes)) - reference)
        worst = np.maximum(worst, gap.max())
        round_trip = nb_to_lr(expanded)
        gap = np.abs(np.exp(lr_log_posterior_batch(round_trip, probes)) - reference)
        worst = np.maximum(worst, gap.max())
    return SuiteResult("logreg-equivalence", cases, float(worst))


def fb_efb_suite(rng, cases: int = 500) -> SuiteResult:
    """Classic vs entropic forward-backward on consistently derived posteriors."""
    worst = 0.0
    for _ in range(cases):
        model = random_hmm(rng, derive=True)
        t_len = int(rng.integers(1, FB_EFB_MAX_STEPS + 1))
        observation = random_hmm_observation(rng, model, t_len)
        classic = forward_backward(model, observation).gamma
        entropic = entropic_forward_backward(model, observation).gamma
        worst = np.maximum(worst, np.abs(classic - entropic).max())
    return SuiteResult("fb-vs-efb", cases, float(worst))


def fb_enumeration_suite(rng, cases: int = 60) -> SuiteResult:
    """Fast forward-backward vs whole-path enumeration."""
    worst = 0.0
    max_steps = {2: 8, 3: 7, 4: 6}
    for _ in range(cases):
        n_labels = int(rng.integers(2, 5))
        model = random_hmm(rng, n_labels=n_labels)
        t_len = int(rng.integers(1, max_steps[n_labels] + 1))
        observation = random_hmm_observation(rng, model, t_len)
        fast = forward_backward(model, observation).gamma
        reference = joint_enumeration_hmm(model, observation).gamma
        worst = np.maximum(worst, np.abs(fast - reference).max())
    return SuiteResult("fb-vs-enumeration", cases, float(worst))


def run_all_suites(seed: int = 0, cases: int | None = None) -> list[SuiteResult]:
    """Run the four suites on deterministic per-suite substreams.

    ``cases=None`` uses each suite's full default; a number of at least 1
    overrides all of them (handy for smoke runs).
    """
    if cases is not None and cases < 1:
        raise ValueError(f"cases must be at least 1, got {cases}")
    suites = (nb_agreement_suite, logreg_equivalence_suite, fb_efb_suite, fb_enumeration_suite)
    results = []
    for stream, suite in enumerate(suites):
        rng = np.random.default_rng([seed, stream])
        results.append(suite(rng) if cases is None else suite(rng, cases=cases))
    return results
