"""HMM posterior marginals: classic and entropic recursions, their
agreement on consistent and long sequences, zero evidence, log-evidence,
the enumeration cross-check, the kernel's contract on factor rows, and
the kernel against a plain per-step loop on adversarial models."""

import errno
import math
import os
import tracemalloc
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest

from dualbayes.core import (
    EQUALITY_TOL,
    SIMPLEX_TOL,
    LabelSpace,
    MissingPosteriors,
    ObservationAlphabet,
    ProbabilityVector,
    ZeroEvidence,
    ZeroMarginal,
    ZeroPrior,
    safe_log,
)
from dualbayes import hmm
from dualbayes.hmm import (
    HmmModel,
    PosteriorMarginals,
    _smooth,
    derive_hmm_posteriors,
    entropic_forward_backward,
    forward_backward,
)
from dualbayes.oracle import joint_enumeration_hmm
from dualbayes.verify import random_hmm, random_hmm_observation

from helpers import assert_no_child_left

# Zero evidence is decided by one check on the rows of gamma, which the
# recursions reach through zero vectors; none of that may warn, whatever
# warning filters the run is given.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def _doubly_stochastic(rng, n):
    # convex combination of permutation matrices
    weights = rng.uniform(0.1, 1.0, size=4)
    weights /= weights.sum()
    out = np.zeros((n, n))
    for w in weights:
        perm = rng.permutation(n)
        out[np.arange(n), perm] += w
    return out


def _plain_smooth(model, log_table, observations):
    """Reference: the per-step ``.sum()`` Rabiner loop, every forward and
    backward vector and every gamma row normalized on its own.

    Returns ``(gamma, log_evidence)``.
    """
    obs = [model.alphabet.index(symbol) for symbol in observations]
    peak = log_table.max(axis=0)
    peak[~np.isfinite(peak)] = 0.0
    factors = np.exp(log_table - peak).T
    transitions = model.transitions
    log_totals = []

    def normalize(weights):
        total = weights.sum()
        if not total > 0.0:
            raise ZeroEvidence("zero evidence")
        weights /= total
        return total

    gamma = np.empty((len(obs), model.labels.n))
    alpha = model.prior.entries * factors[obs[0]]
    for t, y in enumerate(obs):
        if t:
            alpha = alpha.dot(transitions) * factors[y]
        log_totals.append(math.log(normalize(alpha)) + peak[y])
        gamma[t] = alpha

    beta = np.ones(model.labels.n)
    for t in range(len(obs) - 2, -1, -1):
        beta = transitions.dot(factors[obs[t + 1]] * beta)
        normalize(beta)
        gamma[t] *= beta
        normalize(gamma[t])
    return gamma, math.fsum(log_totals)


def _decimal_gamma(model, obs):
    """γ from an unscaled forward-backward in 50-digit ``decimal`` arithmetic,
    whose exponent range holds products far below the smallest float."""
    with localcontext() as context:
        context.prec = 50
        prior = [Decimal(p) for p in model.prior.entries.tolist()]
        moves = [[Decimal(a) for a in row] for row in model.transitions.tolist()]
        emits = [[Decimal(b) for b in row] for row in model.emissions.tolist()]
        labels, ys = range(model.labels.n), [model.alphabet.index(y) for y in obs]
        alphas = [[prior[i] * emits[i][ys[0]] for i in labels]]
        for y in ys[1:]:
            alphas.append([sum(alphas[-1][i] * moves[i][j] for i in labels) * emits[j][y]
                           for j in labels])
        betas = [[Decimal(1)] * len(labels)]
        for y in reversed(ys[1:]):
            betas.insert(0, [sum(moves[i][j] * emits[j][y] * betas[0][j] for j in labels)
                             for i in labels])
        rows = [[a * b for a, b in zip(alpha, beta)] for alpha, beta in zip(alphas, betas)]
        return np.array([[float(g / sum(row)) for g in row] for row in rows])


def _log_tables(model):
    """Each route with the per-symbol log factors it hands the kernel."""
    routes = [(forward_backward, safe_log(model.emissions))]
    if model.posteriors is not None:
        log_ratio = safe_log(model.posteriors) - np.log(model.prior.entries)[:, None]
        routes.append((entropic_forward_backward, log_ratio))
    return routes


def _adversarial_rows(rng, rows, cols, zeros=True):
    # a third each of ordinary entries, entries down to 1e-300 and exact
    # zeros; one ordinary entry per row keeps the rows normalizable
    kind = rng.integers(0, 3 if zeros else 2, size=(rows, cols))
    out = np.where(kind == 0, rng.uniform(0.0, 1.0, (rows, cols)),
                   10.0 ** -rng.uniform(0.0, 300.0, (rows, cols)))
    out[kind == 2] = 0.0
    out[np.arange(rows), rng.integers(0, cols, size=rows)] = rng.uniform(0.1, 1.0, size=rows)
    return out / out.sum(axis=1, keepdims=True)


def _adversarial_hmm(rng, n, m):
    emissions = _adversarial_rows(rng, n, m)
    # every symbol reachable, so the posterior columns can be derived
    emissions[rng.integers(0, n, size=m), np.arange(m)] += 0.5
    emissions /= emissions.sum(axis=1, keepdims=True)
    return derive_hmm_posteriors(HmmModel(
        LabelSpace(tuple(f"l{i}" for i in range(n))),
        ObservationAlphabet(tuple(f"s{k}" for k in range(m))),
        ProbabilityVector(_adversarial_rows(rng, 1, n, zeros=False)[0]),
        _adversarial_rows(rng, n, n),
        emissions=emissions,
    ))


def _sample(rng, model, t_len):
    """A label path drawn from the chain and one symbol per step drawn from it."""
    def draw(weights):
        cdf = np.cumsum(weights)
        return int(np.searchsorted(cdf, rng.uniform() * cdf[-1], side="right"))

    state = draw(model.prior.entries)
    out = []
    for _ in range(t_len):
        out.append(model.alphabet.symbols[draw(model.emissions[state])])
        state = draw(model.transitions[state])
    return out


def _outcome(run):
    try:
        return run()
    except ZeroEvidence:
        return None


def _compare_with_plain_loop(model, obs):
    """Assert that each route raises ``ZeroEvidence`` exactly when
    :func:`_plain_smooth` does and agrees with it otherwise.  Returns, per
    route, whether they raised."""
    raised = []
    for route, log_table in _log_tables(model):
        fast = _outcome(lambda: route(model, obs))
        reference = _outcome(lambda: _plain_smooth(model, log_table, obs))
        assert (fast is None) == (reference is None), route.__name__
        raised.append(fast is None)
        if fast is not None:
            gamma, log_evidence = reference
            assert float(np.abs(fast.gamma - gamma).max()) <= EQUALITY_TOL, route.__name__
            assert math.isclose(fast.log_evidence, log_evidence,
                                rel_tol=EQUALITY_TOL, abs_tol=EQUALITY_TOL), route.__name__
    return raised


class TestModelValidation:
    def test_needs_emissions_or_posteriors(self):
        labels = LabelSpace(("a", "b"))
        alphabet = ObservationAlphabet(("x", "y"))
        with pytest.raises(ValueError, match="emissions, posteriors"):
            HmmModel(labels, alphabet, ProbabilityVector([0.5, 0.5]), np.eye(2))

    def test_a_model_without_emissions_has_no_classic_route(self):
        model = random_hmm(np.random.default_rng(2), n_labels=2, m_symbols=3, derive=True)
        columns_only = HmmModel(model.labels, model.alphabet, model.prior, model.transitions,
                                posteriors=model.posteriors)
        with pytest.raises(ValueError, match="^forward_backward needs the emission matrix$"):
            forward_backward(columns_only, model.alphabet.symbols[:1])
        with pytest.raises(ValueError, match="^deriving posteriors needs the emission matrix$"):
            derive_hmm_posteriors(columns_only)
        entropic_forward_backward(columns_only, model.alphabet.symbols[:1])  # needs none

    def test_rows_must_be_distributions(self):
        labels = LabelSpace(("a", "b"))
        alphabet = ObservationAlphabet(("x", "y"))
        with pytest.raises(ValueError):
            HmmModel(
                labels, alphabet, ProbabilityVector([0.5, 0.5]),
                np.array([[0.6, 0.6], [0.5, 0.5]]),
                emissions=np.full((2, 2), 0.5),
            )

    def test_consistent_pair_accepted_inconsistent_rejected(self):
        rng = np.random.default_rng(3)
        model = random_hmm(rng, n_labels=3, m_symbols=4, derive=True)
        # rebuilding with the derived columns passes the consistency check
        HmmModel(
            model.labels, model.alphabet, model.prior, model.transitions,
            emissions=model.emissions, posteriors=model.posteriors,
        )
        wrong = model.posteriors.copy()
        wrong[:, 0] = wrong[::-1, 0]
        if np.abs(wrong - model.posteriors).max() > 1e-6:
            with pytest.raises(ValueError, match="disagree"):
                HmmModel(
                    model.labels, model.alphabet, model.prior, model.transitions,
                    emissions=model.emissions, posteriors=wrong,
                )

    def test_consistency_checks_reachable_columns_only(self):
        labels = LabelSpace(("a", "b"))
        alphabet = ObservationAlphabet(("x", "y"))
        transitions = np.full((2, 2), 0.5)
        # a zero prior entry leaves 'y' unreachable; its column is free
        emissions = np.array([[1.0, 0.0], [0.5, 0.5]])
        zero_prior = HmmModel(
            labels, alphabet, ProbabilityVector([1.0, 0.0]), transitions,
            emissions=emissions, posteriors=np.array([[1.0, 0.3], [0.0, 0.7]]),
        )
        assert zero_prior.posteriors[1, 1] == 0.7
        # no label emits 'y': any column is accepted there
        prior = ProbabilityVector([0.25, 0.75])
        unreachable = np.array([[1.0, 0.0], [1.0, 0.0]])
        HmmModel(labels, alphabet, prior, transitions,
                 emissions=unreachable, posteriors=np.array([[0.25, 0.9], [0.75, 0.1]]))
        # a reachable column off by 1e-6 is still rejected
        with pytest.raises(ValueError, match="disagree"):
            HmmModel(labels, alphabet, prior, transitions, emissions=unreachable,
                     posteriors=np.array([[0.25 + 1e-6, 0.9], [0.75 - 1e-6, 0.1]]))

    def test_zero_prior_allowed_without_posterior_use(self):
        labels = LabelSpace(("a", "b"))
        alphabet = ObservationAlphabet(("x",))
        model = HmmModel(
            labels, alphabet, ProbabilityVector([1.0, 0.0]),
            np.eye(2), emissions=np.ones((2, 1)),
        )
        out = forward_backward(model, ["x", "x"])
        np.testing.assert_allclose(out.gamma, [[1.0, 0.0], [1.0, 0.0]], atol=0)


class TestForwardBackward:
    def test_single_step_is_bayes_rule(self):
        labels = LabelSpace(("a", "b"))
        alphabet = ObservationAlphabet(("x", "y"))
        prior = ProbabilityVector([0.3, 0.7])
        emissions = np.array([[0.9, 0.1], [0.2, 0.8]])
        model = HmmModel(labels, alphabet, prior, np.full((2, 2), 0.5), emissions=emissions)
        out = forward_backward(model, ["x"])
        weights = prior.entries * emissions[:, 0]
        np.testing.assert_allclose(out.gamma[0], weights / weights.sum(), atol=1e-14)

    def test_fully_symmetric_model_is_uniform(self):
        labels = LabelSpace(("a", "b", "c"))
        alphabet = ObservationAlphabet(("x", "y"))
        emissions = np.tile([0.4, 0.6], (3, 1))
        model = HmmModel(
            labels, alphabet, ProbabilityVector.uniform(3), np.eye(3), emissions=emissions
        )
        out = forward_backward(model, ["x", "y", "y", "x"])
        np.testing.assert_allclose(out.gamma, np.full((4, 3), 1.0 / 3.0), atol=1e-14)

    def test_matches_enumeration(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            model = random_hmm(rng, n_labels=3, m_symbols=4)
            obs = random_hmm_observation(rng, model, 6)
            fast = forward_backward(model, obs).gamma
            reference = joint_enumeration_hmm(model, obs).gamma
            np.testing.assert_allclose(fast, reference, atol=1e-10)

    def test_zero_evidence(self):
        labels = LabelSpace(("a", "b"))
        alphabet = ObservationAlphabet(("x", "y"))
        emissions = np.array([[1.0, 0.0], [1.0, 0.0]])
        model = HmmModel(
            labels, alphabet, ProbabilityVector([0.5, 0.5]),
            np.full((2, 2), 0.5), emissions=emissions,
        )
        with pytest.raises(ZeroEvidence):
            forward_backward(model, ["x", "y"])


class TestEntropicForwardBackward:
    def test_single_step_returns_posterior_column(self):
        rng = np.random.default_rng(11)
        model = random_hmm(rng, n_labels=3, m_symbols=4, derive=True)
        symbol = model.alphabet.symbols[2]
        out = entropic_forward_backward(model, [symbol])
        np.testing.assert_allclose(out.gamma[0], model.posteriors[:, 2], atol=1e-14)

    def test_uniform_columns_and_doubly_stochastic_transitions(self):
        rng = np.random.default_rng(13)
        n = 3
        labels = LabelSpace(tuple(f"l{k}" for k in range(n)))
        alphabet = ObservationAlphabet(("x", "y"))
        model = HmmModel(
            labels, alphabet, ProbabilityVector.uniform(n),
            _doubly_stochastic(rng, n),
            posteriors=np.full((n, 2), 1.0 / n),
        )
        out = entropic_forward_backward(model, ["x", "y", "x", "x"])
        np.testing.assert_allclose(out.gamma, np.full((4, n), 1.0 / n), atol=1e-12)

    def test_agrees_with_classic_on_derived_columns(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            model = random_hmm(rng, derive=True)
            obs = random_hmm_observation(rng, model, int(rng.integers(1, 9)))
            classic = forward_backward(model, obs).gamma
            entropic = entropic_forward_backward(model, obs).gamma
            np.testing.assert_allclose(classic, entropic, atol=1e-10)

    def test_requires_posteriors_and_positive_prior(self):
        rng = np.random.default_rng(19)
        emission_only = random_hmm(rng, n_labels=2, m_symbols=2)
        with pytest.raises(MissingPosteriors):
            entropic_forward_backward(emission_only, [emission_only.alphabet.symbols[0]])

        labels = LabelSpace(("a", "b"))
        alphabet = ObservationAlphabet(("x",))
        zero_prior = HmmModel(
            labels, alphabet, ProbabilityVector([1.0, 0.0]),
            np.full((2, 2), 0.5), posteriors=np.array([[0.7], [0.3]]),
        )
        with pytest.raises(ZeroPrior):
            entropic_forward_backward(zero_prior, ["x"])


class TestBothRoutes:
    @pytest.mark.parametrize("smooth", [forward_backward, entropic_forward_backward])
    def test_zero_evidence_through_the_transitions(self, smooth):
        # each label emits only its own symbol and never leaves, so "x" then
        # "y" is impossible although both symbols are reachable
        labels = LabelSpace(("a", "b"))
        alphabet = ObservationAlphabet(("x", "y"))
        model = derive_hmm_posteriors(HmmModel(
            labels, alphabet, ProbabilityVector([0.5, 0.5]), np.eye(2), emissions=np.eye(2),
        ))
        with pytest.raises(ZeroEvidence):
            smooth(model, ["x", "y"])

    def test_long_sequence_agrees_and_stays_on_the_simplex(self):
        rng = np.random.default_rng(31)
        model = random_hmm(rng, n_labels=8, m_symbols=20, derive=True)
        obs = random_hmm_observation(rng, model, 100_000)
        classic = forward_backward(model, obs).gamma
        entropic = entropic_forward_backward(model, obs).gamma
        assert classic.shape == (100_000, 8)
        assert float(np.abs(classic - entropic).max()) <= EQUALITY_TOL
        for gamma in (classic, entropic):
            assert gamma.min() >= 0.0
            assert float(np.abs(gamma.sum(axis=1) - 1.0).max()) <= SIMPLEX_TOL


class TestSmoothKernel:
    """``_smooth(init, transitions, log_factors, rows)`` on inputs no model
    could hold: unnormalized weights and a factor table of any height."""

    @staticmethod
    def _inputs(rng, n=3, k=4, t_len=50):
        log_factors = rng.normal(0.0, 3.0, size=(k, n))
        log_factors[0, 0] = -np.inf
        return (rng.uniform(0.1, 2.0, size=n), rng.uniform(0.1, 2.0, size=(n, n)),
                log_factors, list(rng.integers(0, k, size=t_len)))

    # the plain loop's size, and one the blocked recursion runs
    SIZES = ({}, {"n": 8, "k": 5, "t_len": 2000})

    @pytest.mark.parametrize("c", [1e-3, 3.0])
    def test_scaled_transitions_shift_only_the_evidence(self, c):
        for size in self.SIZES:
            init, transitions, log_factors, rows = self._inputs(np.random.default_rng(43), **size)
            base = _smooth(init, transitions, log_factors, rows)
            scaled = _smooth(init, c * transitions, log_factors, rows)
            assert float(np.abs(scaled.gamma - base.gamma).max()) <= EQUALITY_TOL
            assert math.isclose(scaled.log_evidence - base.log_evidence,
                                (len(rows) - 1) * math.log(c), rel_tol=EQUALITY_TOL,
                                abs_tol=EQUALITY_TOL)

    def test_shifted_row_shifts_the_evidence_once_per_use(self):
        for size in self.SIZES:
            init, transitions, log_factors, rows = self._inputs(np.random.default_rng(47), **size)
            k, shift = rows[3], 2.5
            shifted = log_factors.copy()
            shifted[k] += shift
            base = _smooth(init, transitions, log_factors, rows)
            out = _smooth(init, transitions, shifted, rows)
            assert float(np.abs(out.gamma - base.gamma).max()) <= EQUALITY_TOL
            assert math.isclose(out.log_evidence - base.log_evidence, shift * rows.count(k),
                                rel_tol=EQUALITY_TOL, abs_tol=EQUALITY_TOL)

    @pytest.mark.parametrize("t_len, step", [(50, 20), (10_000, 4951), (10_000, 5000),
                                             (10_000, 9901), (10_000, 9999)])
    def test_a_break_that_only_the_forward_pass_sees(self, t_len, step):
        # labels 0 and 1 alternate, emitting symbols 0 and 1; label 2, which
        # nothing enters, emits both and stays, so every stretch of symbols
        # is possible from it, and only alpha can see symbol 0 or 1 repeat at
        # ``step``.  At T = 10^4 step 9901 opens the last block and 9999 ends it.
        init = np.array([1.0, 0.0, 0.0])
        transitions = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        log_factors = safe_log(np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]]))
        rows = [(t - (t >= step)) % 2 for t in range(t_len)]
        _smooth(init, transitions, log_factors, rows[:step])
        with pytest.raises(ZeroEvidence):
            _smooth(init, transitions, log_factors, rows)

    def test_any_table_that_holds_the_route_rows_gives_the_route(self):
        # seven rows for three symbols, each symbol's row repeated, and each
        # step reading one of its symbol's copies at random
        rng = np.random.default_rng(53)
        model = random_hmm(rng, n_labels=4, m_symbols=3, derive=True)
        obs = random_hmm_observation(rng, model, 40)
        order = np.array([2, 0, 2, 1, 0, 1, 1])
        copies = [np.flatnonzero(order == y) for y in range(3)]
        rows = [int(rng.choice(copies[model.alphabet.index(y)])) for y in obs]
        for route, log_table in _log_tables(model):
            out = _smooth(model.prior.entries, model.transitions, log_table.T[order], rows)
            expected = route(model, obs)
            np.testing.assert_array_equal(out.gamma, expected.gamma)
            assert out.log_evidence == expected.log_evidence

    @pytest.mark.parametrize("size", SIZES, ids=["plain", "blocked"])
    def test_rows_as_an_index_array_give_the_list_result(self, size):
        init, transitions, log_factors, rows = self._inputs(np.random.default_rng(61), **size)
        listed = _smooth(init, transitions, log_factors, [int(k) for k in rows])
        indexed = _smooth(init, transitions, log_factors, np.array(rows, dtype=np.intp))
        np.testing.assert_array_equal(indexed.gamma, listed.gamma)
        assert indexed.log_evidence == listed.log_evidence

    @pytest.mark.parametrize("rows", [[], np.array([], dtype=int)], ids=["list", "array"])
    def test_no_rows_is_an_error(self, rows):
        init, transitions, log_factors, _ = self._inputs(np.random.default_rng(59))
        with pytest.raises(ValueError, match="^need at least one observation$"):
            _smooth(init, transitions, log_factors, rows)


class TestPosteriorMarginals:
    # the plain loop at N=32, and the blocked recursion at N=8, T=10^4 with its
    # index array, operator stack and per-block states beside gamma
    @pytest.mark.parametrize("smooth, n, t_len, bound", [
        (forward_backward, 32, 2000, 1.6), (entropic_forward_backward, 32, 2000, 1.6),
        (forward_backward, 8, 10_000, 2.0), (entropic_forward_backward, 8, 10_000, 2.0),
    ], ids=["forward_backward", "entropic_forward_backward",
            "forward_backward-blocked", "entropic_forward_backward-blocked"])
    def test_kernel_gamma_is_frozen_in_place(self, smooth, n, t_len, bound):
        rng = np.random.default_rng(37)
        model = random_hmm(rng, n_labels=n, m_symbols=20, derive=True)
        obs = random_hmm_observation(rng, model, t_len)
        tracemalloc.start()
        try:
            gamma = smooth(model, obs).gamma
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert not gamma.flags.writeable
        with pytest.raises(ValueError):
            gamma[0, 0] = 0.5
        # a second copy of gamma would double the peak
        assert peak < bound * gamma.nbytes

    def test_caller_array_is_copied_and_validated(self):
        caller = np.array([[0.25, 0.75], [1.0, 0.0]])
        gamma = PosteriorMarginals(caller).gamma
        assert caller.flags.writeable
        assert not gamma.flags.writeable
        assert not np.shares_memory(caller, gamma)
        np.testing.assert_array_equal(gamma, caller)
        with pytest.raises(ValueError, match="posterior marginals row 1"):
            PosteriorMarginals(np.array([[0.5, 0.5], [0.6, 0.6]]))


class TestLogEvidence:
    def test_classic_matches_enumeration(self):
        rng = np.random.default_rng(37)
        for _ in range(60):
            model = random_hmm(rng)
            obs = random_hmm_observation(rng, model, int(rng.integers(1, 7)))
            fast = forward_backward(model, obs).log_evidence
            reference = joint_enumeration_hmm(model, obs).log_evidence
            assert abs(fast - reference) <= EQUALITY_TOL

    @pytest.mark.parametrize("t_len", [8, 10_000])
    def test_routes_differ_by_the_symbol_marginals(self, t_len):
        # the entropic factor is B[:, y] / p(y), so its evidence drops one
        # log p(y_t) per step
        rng = np.random.default_rng(41)
        model = random_hmm(rng, n_labels=8, m_symbols=20, derive=True)
        obs = random_hmm_observation(rng, model, t_len)
        marginal = (model.prior.entries[:, None] * model.emissions).sum(axis=0)
        expected = math.fsum(math.log(marginal[model.alphabet.index(y)]) for y in obs)
        gap = (forward_backward(model, obs).log_evidence
               - entropic_forward_backward(model, obs).log_evidence)
        assert math.isclose(gap, expected, rel_tol=EQUALITY_TOL, abs_tol=EQUALITY_TOL)

    @pytest.mark.parametrize("t_len", [600, 2000])
    def test_a_subnormal_total_at_the_end_of_a_block(self, t_len, monkeypatch):
        # label 1 stays put and emits symbol 0 with probability 1e-320, so a
        # sequence with one symbol 0 has that subnormal weight.  T = 600 and
        # 2000 run in blocks of isqrt(T - 1) steps, and the symbol 0 lies on
        # the last step of a block, whose successor restarts from a boundary
        init, transitions = np.array([0.0, 1.0]), np.eye(2)
        log_factors = safe_log(np.array([[0.5, 1e-320], [0.5, 1.0]]))
        span = math.isqrt(t_len - 1)
        for step in (span, 2 * span, t_len - 1):
            rows = [int(t != step) for t in range(t_len)]
            blocked = _smooth(init, transitions, log_factors, rows)
            with monkeypatch.context() as patch:
                patch.setattr(hmm, "_BLOCKED_MIN_STEPS", t_len + 1)
                plain = _smooth(init, transitions, log_factors, rows)
            np.testing.assert_array_equal(blocked.gamma, plain.gamma)
            assert math.isclose(blocked.log_evidence, plain.log_evidence, rel_tol=1e-12)
            assert abs(blocked.log_evidence - math.log(1e-320)) <= 1e-3


class TestAdversarialKernel:
    """Both routes against the plain per-step loop, on models with exact
    zeros and entries down to 1e-300 in the transitions and emissions."""

    @pytest.mark.parametrize("t_len", [1, 2, 8, 10_000])
    @pytest.mark.parametrize("n", [2, 8, 16, 32])
    def test_matches_the_plain_loop(self, n, t_len):
        rng = np.random.default_rng(1000 * n + t_len)
        alphabet_sizes = (1, 5) if t_len == 10_000 else (1, 2, 5) * 6
        for k, m in enumerate(alphabet_sizes):
            model = _adversarial_hmm(rng, n, m)
            if k % 2:
                obs = [model.alphabet.symbols[i] for i in rng.integers(0, m, size=t_len)]
            else:
                obs = _sample(rng, model, t_len)
            _compare_with_plain_loop(model, obs)

    # Each case below is built twice: with exact zeros the sequence is
    # impossible, and with 1e-300 in their place it is possible, with a
    # forward total near 1e-300 at the step named.

    @staticmethod
    def _cycle(n, eps):
        # label i moves to i + 1 and emits symbol i, so each symbol must be
        # followed by the next one; every other move and emission has eps
        cycle = np.roll(np.eye(n), 1, axis=1)
        return derive_hmm_posteriors(HmmModel(
            LabelSpace(tuple(f"l{i}" for i in range(n))),
            ObservationAlphabet(tuple(f"s{i}" for i in range(n))),
            ProbabilityVector.uniform(n),
            np.where(cycle == 1.0, 1.0, eps),
            emissions=np.where(np.eye(n) == 1.0, 1.0, eps),
        ))

    @pytest.mark.parametrize("eps", [0.0, 1e-300])
    def test_zero_evidence_at_the_first_step(self, eps):
        # the label that emits "s1" has prior eps; with eps = 0 only the
        # classic route applies, as the entropic one needs a positive prior
        model = HmmModel(
            LabelSpace(("l0", "l1")), ObservationAlphabet(("s0", "s1")),
            ProbabilityVector([1.0, eps]), np.full((2, 2), 0.5),
            emissions=np.where(np.eye(2) == 1.0, 1.0, eps),
        )
        if eps:
            model = derive_hmm_posteriors(model)
        for obs in (["s1"], ["s1"] + ["s0"] * 9):
            assert _compare_with_plain_loop(model, obs) == [eps == 0.0] * (2 if eps else 1)

    # T = 1 and 2 run the plain loop, 600 and 10^4 the blocked recursion,
    # which starts every block from the zero alpha of step 0
    @pytest.mark.parametrize("t_len", [1, 2, 600, 10_000])
    def test_a_first_symbol_that_init_cannot_emit(self, t_len):
        # only label l1 emits "s1", and it has prior 0.  The entropic route
        # cannot meet this: its first alpha, prior * L[:, y] / prior, is a
        # posterior column, which sums to one
        model = HmmModel(
            LabelSpace(("l0", "l1")), ObservationAlphabet(("s0", "s1")),
            ProbabilityVector([1.0, 0.0]), np.full((2, 2), 0.5), emissions=np.eye(2),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ZeroEvidence, match="^zero evidence: the observation "
                               "sequence has probability zero under the model$"):
                forward_backward(model, ["s1"] + ["s0"] * (t_len - 1))

    @pytest.mark.parametrize("eps", [0.0, 1e-300])
    @pytest.mark.parametrize("t_len", [2, 8, 10_000])
    def test_zero_evidence_at_the_last_step(self, t_len, eps):
        obs = [f"s{t % 3}" for t in range(t_len - 1)] + [f"s{(t_len - 2) % 3}"]
        assert _compare_with_plain_loop(self._cycle(3, eps), obs) == [eps == 0.0] * 2

    # T = 10^4 runs in 101 blocks of 99 steps: step 4951 opens block 50,
    # step 5000 lies inside it, and step 9901 opens the last block
    @pytest.mark.parametrize("eps", [0.0, 1e-300])
    @pytest.mark.parametrize("n, t_len, step", [
        (2, 50, 20), (8, 50, 20), (32, 50, 20),
        (2, 10_000, 4951), (2, 10_000, 5000), (8, 10_000, 4951), (8, 10_000, 5000),
        (8, 10_000, 9901),
    ], ids=["2", "8", "32", "2-block-start", "2-mid-block", "8-block-start", "8-mid-block",
            "8-last-block-start"])
    def test_zero_evidence_through_the_transitions(self, n, t_len, step, eps):
        # the symbols skip a label at ``step``, which no move allows; every
        # stretch before or after it is a path of the cycle
        obs = [f"s{(t + (t >= step)) % n}" for t in range(t_len)]
        assert _compare_with_plain_loop(self._cycle(n, eps), obs) == [eps == 0.0] * 2

    @pytest.mark.parametrize("t_len", [511, 512, 528, 529, 530])
    def test_lengths_around_the_blocked_threshold(self, t_len, monkeypatch):
        # T = 511 runs the plain loop.  Above it, T - 1 = 511 and 527 end in a
        # ragged block (5 and 21 of 22 steps), and 528 = 24 * 22 and 529 = 23^2
        # in a full one
        blocked = []
        run = hmm._blocked_recursion
        monkeypatch.setattr(hmm, "_blocked_recursion",
                            lambda *args: blocked.append(len(args[3])) or run(*args))
        rng = np.random.default_rng(t_len)
        for n in (2, 16):
            model = _adversarial_hmm(rng, n, 5)
            assert _compare_with_plain_loop(model, _sample(rng, model, t_len)) == [False, False]
        assert blocked == ([] if t_len < 512 else [t_len] * 4)

    @staticmethod
    def _near_underflow_case():
        # the draws a sweep over _adversarial_hmm made before it reached this
        # model: transitions [[4.2e-250, 1], [1, 1.9e-181]], prior [8.8e-30, 1]
        rng = np.random.default_rng(445)
        rng.choice([2, 3, 5, 8, 16]), rng.choice([1, 2, 5, 20])
        rng.choice([2, 3, 5, 17, 100, 600, 3000])
        model = _adversarial_hmm(rng, 2, 5)
        return model, [model.alphabet.symbols[k] for k in rng.integers(0, 5, size=17)]

    def test_the_decimal_reference(self):
        # it agrees with the kernel on ordinary models, and on the case below
        # it gives the even split that the symmetric middle of the path implies
        rng = np.random.default_rng(61)
        for _ in range(20):
            model = random_hmm(rng)
            obs = random_hmm_observation(rng, model, int(rng.integers(1, 9)))
            gap = np.abs(_decimal_gamma(model, obs) - forward_backward(model, obs).gamma)
            assert gap.max() <= EQUALITY_TOL
        model, obs = self._near_underflow_case()
        assert np.allclose(_decimal_gamma(model, obs)[2:5], 0.5, rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("n", [2, 8, 16])
    def test_blocked_gamma_matches_the_decimal_reference(self, n):
        # T = 600 takes the blocked path.  The route-against-loop tests compare
        # at EQUALITY_TOL, which would pass an operator scaled along the wrong
        # axis; here every entry must be within a few ulps of 50 digits
        rng = np.random.default_rng(600 + n)
        for _ in range(3):
            model = random_hmm(rng, n, 20, derive=True)
            obs = random_hmm_observation(rng, model, 600)
            reference = _decimal_gamma(model, obs)
            for route in (forward_backward, entropic_forward_backward):
                assert np.abs(route(model, obs).gamma - reference).max() <= 1e-15

    @pytest.mark.xfail(strict=True, reason="per-step normalization drops entries more than "
                                           "1e-308 below the largest one")
    def test_gamma_near_underflow_matches_a_50_digit_recursion(self):
        model, obs = self._near_underflow_case()
        gamma = forward_backward(model, obs).gamma
        assert np.allclose(gamma[2:5], _decimal_gamma(model, obs)[2:5], rtol=0.0, atol=1e-10)


class TestForkedBackwardPass:
    """Above ``_BLOCKED_MAX_LABELS`` labels, from ``_FORKED_MIN_STEPS`` steps on
    and with two usable CPUs, a forked child runs the plain loop's backward
    pass.  Each case gives the serial loop's bytes on both routes, or raises
    what it raises, and leaves no child behind."""

    ROUTES = (forward_backward, entropic_forward_backward)

    @staticmethod
    def _case(n, t_len):
        rng = np.random.default_rng(n * t_len)
        model = random_hmm(rng, n_labels=n, m_symbols=20, derive=True)
        return model, random_hmm_observation(rng, model, t_len)

    @staticmethod
    def _bytes(monkeypatch, cpus, route, model, obs):
        monkeypatch.setattr(hmm, "usable_cpus", lambda: cpus)
        marginals = route(model, obs)
        assert_no_child_left()
        return marginals.gamma.tobytes(), marginals.log_evidence

    @pytest.mark.parametrize("t_len", [hmm._FORKED_MIN_STEPS, 10_000])
    @pytest.mark.parametrize("n", [17, 32])
    def test_the_forked_pass_gives_the_serial_bytes(self, monkeypatch, forks, n, t_len):
        model, obs = self._case(n, t_len)
        for route in self.ROUTES:
            serial = self._bytes(monkeypatch, 1, route, model, obs)
            assert forks == []
            assert self._bytes(monkeypatch, 2, route, model, obs) == serial
            assert len(forks) == 1
            forks.clear()

    @pytest.mark.parametrize("fault", ["fork", "child", "spool"])
    def test_a_failed_part_falls_back_to_the_serial_pass(self, monkeypatch, fault):
        model, obs = self._case(17, hmm._FORKED_MIN_STEPS)
        serial = [self._bytes(monkeypatch, 1, route, model, obs) for route in self.ROUTES]
        spooled, multiply, multiplied = hmm._spool_betas, hmm._multiply_spooled, []

        def failing_fork():
            raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

        def failing_child(*args):  # the child exits 1
            raise RuntimeError("the child fails before it writes")

        def short_spool(*args):
            spooled(*args)
            args[-1].buffer.flush()
            args[-1].buffer.truncate(args[-1].buffer.tell() - 8)

        if fault == "fork":
            monkeypatch.setattr(os, "fork", failing_fork)
        else:
            monkeypatch.setattr(hmm, "_spool_betas",
                                failing_child if fault == "child" else short_spool)
        monkeypatch.setattr(hmm, "_multiply_spooled",
                            lambda *args: multiplied.append(multiply(*args)) or multiplied[-1])
        assert [self._bytes(monkeypatch, 2, route, model, obs) for route in self.ROUTES] == serial
        # a spool reaches the parent only from a child that exited 0
        assert multiplied == ([False, False] if fault == "spool" else [])

    def test_zero_evidence_with_a_forked_pass(self, monkeypatch, forks):
        # the symbols skip a label halfway, which no move of the cycle allows
        n, t_len = 17, hmm._FORKED_MIN_STEPS
        model = TestAdversarialKernel._cycle(n, 0.0)
        obs = [f"s{(t + (t >= t_len // 2)) % n}" for t in range(t_len)]
        monkeypatch.setattr(hmm, "usable_cpus", lambda: 2)
        for route in self.ROUTES:
            with pytest.raises(ZeroEvidence):
                route(model, obs)
            assert_no_child_left()
        assert len(forks) == 2

    @pytest.mark.parametrize("n, cpus, t_len", [
        (17, 1, 10_000), (32, 2, hmm._FORKED_MIN_STEPS - 1), (16, 2, 10_000),
    ], ids=["one-cpu", "short", "blocked"])
    def test_no_fork_below_two_cpus_or_the_threshold(self, monkeypatch, forks, n, cpus, t_len):
        model, obs = self._case(n, t_len)
        for route in self.ROUTES:
            self._bytes(monkeypatch, cpus, route, model, obs)
        assert forks == []


class TestDerivePosteriors:
    def test_symmetric_model_gives_uniform_columns(self):
        labels = LabelSpace(("a", "b", "c"))
        alphabet = ObservationAlphabet(("x", "y"))
        model = HmmModel(
            labels, alphabet, ProbabilityVector.uniform(3),
            np.full((3, 3), 1.0 / 3.0), emissions=np.tile([0.4, 0.6], (3, 1)),
        )
        derived = derive_hmm_posteriors(model)
        np.testing.assert_allclose(derived.posteriors, np.full((3, 2), 1.0 / 3.0), atol=1e-15)

    def test_single_symbol_bayes_inversion(self):
        labels = LabelSpace(("a", "b"))
        alphabet = ObservationAlphabet(("x", "y"))
        model = HmmModel(
            labels, alphabet, ProbabilityVector([0.5, 0.5]),
            np.full((2, 2), 0.5), emissions=np.array([[0.8, 0.2], [0.2, 0.8]]),
        )
        derived = derive_hmm_posteriors(model)
        np.testing.assert_allclose(derived.posteriors[:, 0], [0.8, 0.2], atol=1e-14)

    def test_rejects_zero_prior_and_unreachable_symbol(self):
        labels = LabelSpace(("a", "b"))
        alphabet = ObservationAlphabet(("x", "y"))
        zero_prior = HmmModel(
            labels, alphabet, ProbabilityVector([1.0, 0.0]),
            np.full((2, 2), 0.5), emissions=np.full((2, 2), 0.5),
        )
        with pytest.raises(ZeroPrior):
            derive_hmm_posteriors(zero_prior)
        unreachable = HmmModel(
            labels, alphabet, ProbabilityVector([0.5, 0.5]),
            np.full((2, 2), 0.5), emissions=np.array([[1.0, 0.0], [1.0, 0.0]]),
        )
        with pytest.raises(ZeroMarginal, match="'y'"):
            derive_hmm_posteriors(unreachable)

    def test_uniform_transitions_make_marginals_local(self):
        # with uniform transitions and a uniform prior, the marginal at t
        # reduces to the single-symbol posterior of the symbol observed there
        rng = np.random.default_rng(29)
        n, m = 3, 4
        labels = LabelSpace(tuple(f"l{k}" for k in range(n)))
        alphabet = ObservationAlphabet(tuple(f"s{k}" for k in range(m)))
        emissions = rng.uniform(0.05, 1.0, size=(n, m))
        emissions /= emissions.sum(axis=1, keepdims=True)
        model = HmmModel(
            labels, alphabet, ProbabilityVector.uniform(n),
            np.full((n, n), 1.0 / n), emissions=emissions,
        )
        derived = derive_hmm_posteriors(model)
        obs = [alphabet.symbols[int(rng.integers(0, m))] for _ in range(6)]
        gamma = forward_backward(model, obs).gamma
        for t, symbol in enumerate(obs):
            column = derived.posteriors[:, alphabet.index(symbol)]
            np.testing.assert_allclose(gamma[t], column, atol=1e-10)
