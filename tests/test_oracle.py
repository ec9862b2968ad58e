"""Sanity checks on the brute-force reference implementations themselves."""

import numpy as np
import pytest

from dualbayes.core import (
    LabelSpace,
    LengthMismatch,
    ObservationAlphabet,
    ProbabilityVector,
    StateSpaceTooLarge,
    ZeroEvidence,
)
from dualbayes.hmm import HmmModel
from dualbayes.naive_bayes import NaiveBayesModel
from dualbayes.oracle import joint_enumeration_hmm, joint_enumeration_nb
from dualbayes.verify import random_hmm, random_hmm_observation, random_naive_bayes


class TestNbEnumeration:
    def test_observation_of_the_wrong_length(self):
        model = random_naive_bayes(np.random.default_rng(7), n_labels=2, t_len=2)
        with pytest.raises(LengthMismatch, match="^observation has 1 positions, expected 2$"):
            joint_enumeration_nb(model, model.alphabets[0].symbols[:1])

    def test_single_position_is_bayes_rule(self):
        labels = LabelSpace(("a", "b"))
        alphabet = ObservationAlphabet(("x", "y"))
        prior = ProbabilityVector([0.3, 0.7])
        emissions = (np.array([[0.9, 0.1], [0.2, 0.8]]),)
        model = NaiveBayesModel(labels, (alphabet,), prior, emissions)
        out = joint_enumeration_nb(model, ["y"])
        weights = prior.entries * emissions[0][:, 1]
        np.testing.assert_allclose(out.entries, weights / weights.sum(), atol=1e-15)

    def test_uniform_everything(self):
        rng = np.random.default_rng(2)
        labels = LabelSpace(("a", "b", "c"))
        alphabets = (ObservationAlphabet(("x", "y")),) * 3
        emissions = (np.full((3, 2), 0.5),) * 3
        model = NaiveBayesModel(labels, alphabets, ProbabilityVector.uniform(3), emissions)
        obs = [a.symbols[rng.integers(0, 2)] for a in alphabets]
        np.testing.assert_allclose(
            joint_enumeration_nb(model, obs).entries, np.full(3, 1.0 / 3.0), atol=1e-15
        )

    def test_rows_are_distributions(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            model = random_naive_bayes(rng)
            obs = [a.symbols[rng.integers(0, a.m)] for a in model.alphabets]
            out = joint_enumeration_nb(model, obs)
            assert abs(out.entries.sum() - 1.0) <= 1e-12

    def test_zero_evidence(self):
        labels = LabelSpace(("a", "b"))
        alphabet = ObservationAlphabet(("x", "y"))
        emissions = (np.array([[1.0, 0.0], [1.0, 0.0]]),)
        model = NaiveBayesModel(labels, (alphabet,), ProbabilityVector([0.5, 0.5]), emissions)
        with pytest.raises(ZeroEvidence):
            joint_enumeration_nb(model, ["y"])

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            model = random_naive_bayes(rng, n_labels=4, t_len=3)
            obs = [a.symbols[rng.integers(0, a.m)] for a in model.alphabets]
            perm = rng.permutation(4)
            permuted = NaiveBayesModel(
                labels=LabelSpace(tuple(model.labels.names[i] for i in perm)),
                alphabets=model.alphabets,
                prior=ProbabilityVector(model.prior.entries[perm]),
                emissions=tuple(table[perm] for table in model.emissions),
            )
            base = joint_enumeration_nb(model, obs).entries
            relabeled = joint_enumeration_nb(permuted, obs).entries
            np.testing.assert_allclose(relabeled, base[perm], atol=1e-13)


class TestHmmEnumeration:
    def test_needs_the_emissions_and_a_step(self):
        model = random_hmm(np.random.default_rng(8), n_labels=2, m_symbols=2, derive=True)
        with pytest.raises(ValueError, match="^need at least one observation$"):
            joint_enumeration_hmm(model, [])
        columns_only = HmmModel(model.labels, model.alphabet, model.prior, model.transitions,
                                posteriors=model.posteriors)
        with pytest.raises(ValueError, match="^enumeration needs the emission matrix$"):
            joint_enumeration_hmm(columns_only, model.alphabet.symbols[:1])

    def test_single_step(self):
        labels = LabelSpace(("a", "b"))
        alphabet = ObservationAlphabet(("x", "y"))
        prior = ProbabilityVector([0.6, 0.4])
        emissions = np.array([[0.9, 0.1], [0.3, 0.7]])
        model = HmmModel(labels, alphabet, prior, np.full((2, 2), 0.5), emissions=emissions)
        out = joint_enumeration_hmm(model, ["x"])
        weights = prior.entries * emissions[:, 0]
        np.testing.assert_allclose(out.gamma[0], weights / weights.sum(), atol=1e-15)
        assert out.log_evidence == pytest.approx(np.log(weights.sum()), abs=1e-15)

    def test_degenerate_point_mass(self):
        # all prior mass on one label with an absorbing transition row:
        # every position is certain
        labels = LabelSpace(("stay", "never"))
        alphabet = ObservationAlphabet(("x", "y"))
        model = HmmModel(
            labels, alphabet, ProbabilityVector([1.0, 0.0]),
            np.eye(2), emissions=np.full((2, 2), 0.5),
        )
        out = joint_enumeration_hmm(model, ["x", "y", "x"])
        np.testing.assert_allclose(out.gamma, [[1.0, 0.0]] * 3, atol=0)
        assert out.log_evidence == pytest.approx(3.0 * np.log(0.5), abs=1e-15)

    def test_marginal_rows_each_sum_to_one(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            model = random_hmm(rng, n_labels=3)
            obs = random_hmm_observation(rng, model, 5)
            gamma = joint_enumeration_hmm(model, obs).gamma
            np.testing.assert_allclose(gamma.sum(axis=1), np.ones(5), atol=1e-12)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = 3
            model = random_hmm(rng, n_labels=n, m_symbols=4)
            obs = random_hmm_observation(rng, model, 5)
            perm = rng.permutation(n)
            permuted = HmmModel(
                labels=LabelSpace(tuple(model.labels.names[i] for i in perm)),
                alphabet=model.alphabet,
                prior=ProbabilityVector(model.prior.entries[perm]),
                transitions=model.transitions[np.ix_(perm, perm)],
                emissions=model.emissions[perm],
            )
            base = joint_enumeration_hmm(model, obs).gamma
            relabeled = joint_enumeration_hmm(permuted, obs).gamma
            np.testing.assert_allclose(relabeled, base[:, perm], atol=1e-12)

    def test_state_space_cap(self):
        rng = np.random.default_rng(9)
        model = random_hmm(rng, n_labels=2, m_symbols=2)
        obs = random_hmm_observation(rng, model, 21)
        with pytest.raises(StateSpaceTooLarge):
            joint_enumeration_hmm(model, obs)

    def test_zero_evidence(self):
        labels = LabelSpace(("a", "b"))
        alphabet = ObservationAlphabet(("x", "y"))
        emissions = np.array([[1.0, 0.0], [1.0, 0.0]])
        model = HmmModel(
            labels, alphabet, ProbabilityVector([0.5, 0.5]),
            np.full((2, 2), 0.5), emissions=emissions,
        )
        with pytest.raises(ZeroEvidence):
            joint_enumeration_hmm(model, ["x", "y"])
