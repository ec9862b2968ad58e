"""HMM posterior marginals: classic and entropic recursions, their
agreement on consistent and long sequences, zero evidence, and the
enumeration cross-check."""

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
)
from dualbayes.hmm import (
    HmmModel,
    derive_hmm_posteriors,
    entropic_forward_backward,
    forward_backward,
)
from dualbayes.oracle import joint_enumeration_hmm
from dualbayes.verify import random_hmm, random_hmm_observation


def _doubly_stochastic(rng, n):
    # convex combination of permutation matrices
    weights = rng.uniform(0.1, 1.0, size=4)
    weights /= weights.sum()
    out = np.zeros((n, n))
    for w in weights:
        perm = rng.permutation(n)
        out[np.arange(n), perm] += w
    return out


class TestModelValidation:
    def test_needs_emissions_or_posteriors(self):
        labels = LabelSpace(("a", "b"))
        alphabet = ObservationAlphabet(("x", "y"))
        with pytest.raises(ValueError, match="emissions, posteriors"):
            HmmModel(labels, alphabet, ProbabilityVector([0.5, 0.5]), np.eye(2))

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
