"""Randomized cross-verification sweeps.

Each suite draws models from safe parameter ranges (probabilities bounded
away from zero, short sequences), computes the same posterior along two or
more independent routes, and records the worst absolute discrepancy.  A
suite is a name, a default case count and a function that draws one case's
gaps; one loop, :func:`_sweep`, runs every suite.  Naive Bayes cases run
through the two batch kernels ``predict`` uses; the brute-force oracles of
:mod:`.oracle` score each observation on its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .core import (
    EQUALITY_TOL,
    LabelSpace,
    ObservationAlphabet,
    ProbabilityVector,
    is_integer,
    usable_cpus,
)
from .hmm import HmmModel, derive_hmm_posteriors, entropic_forward_backward, forward_backward
from .logreg import LogisticRegressionModel, lr_log_posterior_batch, lr_to_nb, nb_to_lr
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
    tolerance = EQUALITY_TOL  # a class constant, not a field

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


def _nb_agreement_gaps(rng):
    """Generative route vs posterior-column route vs direct enumeration.

    Each case draws one model and ``OBSERVATIONS_PER_MODEL`` observations,
    encodes them once, and runs them as one batch through the two kernels
    ``predict`` uses, :func:`nb_generative_log_posterior_batch` and
    :func:`nb_discriminative_log_posterior_batch`; the oracle
    :func:`joint_enumeration_nb` scores each observation on its own.
    """
    model = random_naive_bayes(rng)
    tables = nb_to_discriminative(model)
    observations = [random_nb_observation(rng, model) for _ in range(OBSERVATIONS_PER_MODEL)]
    codes = nb_encode(model, observations)
    generative = np.exp(nb_generative_log_posterior_batch(model, codes))
    discriminative = np.exp(nb_discriminative_log_posterior_batch(model.prior, tables, codes))
    reference = np.array([joint_enumeration_nb(model, o).entries for o in observations])
    return np.abs(generative - discriminative), np.abs(generative - reference)


def _logreg_equivalence_gaps(rng):
    """Conversion between softmax-linear and discriminative form, both ways.

    Per case: collapse a random discriminative model, expand a random
    softmax-linear model under a random positive prior, and collapse that
    expansion back; compare posteriors at random observations each time.
    """
    disc = random_discriminative_nb(rng)
    collapsed = nb_to_lr(disc)
    probes = rng.normal(0.0, 2.0, size=(PROBES_PER_CONVERSION, disc.n_positions))
    collapse_gap = np.abs(np.exp(disc_nb_log_posterior_batch(disc, probes))
                          - np.exp(lr_log_posterior_batch(collapsed, probes)))
    linear = random_logreg(rng)
    prior = random_probability_vector(rng, linear.labels.n)
    expanded = lr_to_nb(linear, prior)
    probes = rng.normal(0.0, 2.0, size=(PROBES_PER_CONVERSION, linear.n_positions))
    reference = np.exp(lr_log_posterior_batch(linear, probes))
    expand_gap = np.abs(np.exp(disc_nb_log_posterior_batch(expanded, probes)) - reference)
    round_trip = nb_to_lr(expanded)
    round_trip_gap = np.abs(np.exp(lr_log_posterior_batch(round_trip, probes)) - reference)
    return collapse_gap, expand_gap, round_trip_gap


def _fb_efb_gaps(rng):
    """Classic vs entropic forward-backward on consistently derived posteriors."""
    model = random_hmm(rng, derive=True)
    observation = random_hmm_observation(rng, model, int(rng.integers(1, FB_EFB_MAX_STEPS + 1)))
    classic = forward_backward(model, observation).gamma
    return (np.abs(classic - entropic_forward_backward(model, observation).gamma),)


def _fb_enumeration_gaps(rng):
    """Fast forward-backward vs whole-path enumeration."""
    n_labels = int(rng.integers(2, 5))
    model = random_hmm(rng, n_labels=n_labels)
    max_steps = {2: 8, 3: 7, 4: 6}[n_labels]  # the oracle walks N**T paths
    observation = random_hmm_observation(rng, model, int(rng.integers(1, max_steps + 1)))
    fast = forward_backward(model, observation).gamma
    return (np.abs(fast - joint_enumeration_hmm(model, observation).gamma),)


def _check_cases(cases) -> None:
    if not is_integer(cases):
        raise ValueError(f"cases must be an integer of at least 1, got {cases!r}")
    if cases < 1:
        raise ValueError(f"cases must be at least 1, got {cases}")


def _sweep(name: str, default_cases: int, draw, rng, cases: int | None = None) -> SuiteResult:
    """Run ``cases`` draws (``default_cases`` when None) and keep the worst gap.

    ``draw(rng)`` returns one case's gap arrays.  ``np.maximum`` keeps a NaN
    gap, so it fails the suite, where the builtin ``max(0.0, nan)`` is 0.0.
    """
    cases = default_cases if cases is None else cases
    _check_cases(cases)
    worst = 0.0
    for _ in range(cases):
        for gap in draw(rng):
            worst = np.maximum(worst, gap.max())
    return SuiteResult(name, cases, float(worst))


# One record per suite: its name, default case count and draw; SUITES lists
# them longest first, so the shortest suites fill in behind the longest.
nb_agreement_suite = partial(_sweep, "nb-generative-vs-discriminative", 1000, _nb_agreement_gaps)
logreg_equivalence_suite = partial(_sweep, "logreg-equivalence", 500, _logreg_equivalence_gaps)
fb_efb_suite = partial(_sweep, "fb-vs-efb", 500, _fb_efb_gaps)
fb_enumeration_suite = partial(_sweep, "fb-vs-enumeration", 60, _fb_enumeration_gaps)
SUITES = (nb_agreement_suite, logreg_equivalence_suite, fb_efb_suite, fb_enumeration_suite)


def _run_suite(seed: int, cases: int | None, stream: int) -> SuiteResult:
    return SUITES[stream](np.random.default_rng([seed, stream]), cases=cases)


def run_all_suites(seed: int = 0, cases: int | None = None) -> list[SuiteResult]:
    """Run every suite of ``SUITES`` on deterministic per-suite substreams.

    ``cases=None`` uses each suite's full default; a number of at least 1
    overrides all of them (handy for smoke runs).

    The suites draw from independent substreams, so they run at the same
    time in forked workers, at most one per suite and capped at the usable
    CPUs; the results equal a serial run's and come back in suite order.
    With one CPU, or no fork start method, they run in this process, and so
    they do when a worker cannot be started or dies: the workers this call
    started are stopped and reaped first.
    """
    # checked here, so a bad value never reaches a worker
    if not is_integer(seed) or seed < 0:
        raise ValueError("seed must be a nonnegative integer")
    if cases is not None:
        _check_cases(cases)
    # imported here: every command imports this module, and only verify forks
    import multiprocessing
    from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor

    run = partial(_run_suite, seed, cases)
    streams = range(len(SUITES))
    workers = min(len(SUITES), usable_cpus())
    if workers > 1 and "fork" in multiprocessing.get_all_start_methods():
        before = multiprocessing.active_children()
        try:
            # fork, not spawn: a worker starts with numpy and this module already imported
            with ProcessPoolExecutor(workers,
                                     mp_context=multiprocessing.get_context("fork")) as pool:
                return list(pool.map(run, streams))
        except (OSError, BrokenProcessPool):
            # a pool whose later fork failed never started the thread that
            # would stop its earlier workers, and they would block this
            # interpreter's exit
            for worker in multiprocessing.active_children():
                if worker not in before:
                    worker.terminate()
                    worker.join()
    return list(map(run, streams))
