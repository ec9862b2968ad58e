"""Naive Bayes: counting fit, both inference routes, and their agreement."""

import math
from pathlib import Path

import numpy as np
import pytest

from dualbayes.cli import PREDICT_BLOCK
from dualbayes.core import (
    EQUALITY_TOL,
    AllZeroWeights,
    EmptyDataset,
    LabelSpace,
    LengthMismatch,
    ObservationAlphabet,
    ProbabilityVector,
    UnknownSymbol,
    ZeroEvidence,
    ZeroMarginal,
    ZeroPrior,
    safe_log,
)
from dualbayes.naive_bayes import (
    DiscriminativeNBModel,
    NaiveBayesModel,
    SufficientStatistics,
    disc_nb_log_posterior_batch,
    disc_nb_posterior,
    nb_discriminative_log_posterior_batch,
    nb_discriminative_posterior,
    nb_encode,
    nb_fit_mle,
    nb_generative_log_posterior_batch,
    nb_generative_posterior,
    nb_sufficient_statistics,
    nb_to_discriminative,
)
from dualbayes.logreg import lr_log_posterior_batch, lr_posterior, nb_to_lr
from dualbayes.oracle import joint_enumeration_nb
from dualbayes.verify import (
    random_discriminative_nb,
    random_naive_bayes,
    random_nb_observation,
)

from helpers import NON_NUMERIC_ROWS


def _two_label_model(p_first=0.9):
    labels = LabelSpace(("a", "b"))
    alphabet = ObservationAlphabet(("x", "y"))
    emissions = (np.array([[p_first, 1.0 - p_first], [1.0 - p_first, p_first]]),)
    return NaiveBayesModel(labels, (alphabet,), ProbabilityVector([0.5, 0.5]), emissions)


class TestFitMle:
    def test_two_samples_forced_counts(self):
        dataset = [("a", ["x"]), ("b", ["y"])]
        model = nb_fit_mle(dataset)
        assert model.prior.entries.tolist() == [0.5, 0.5]
        assert model.emissions[0][0].tolist() == [1.0, 0.0]
        assert model.emissions[0][1].tolist() == [0.0, 1.0]

    def test_prior_is_label_frequency(self):
        dataset = [("a", ["x"])] * 4 + [("b", ["x"])] * 6
        model = nb_fit_mle(dataset)
        assert model.prior[0] == 0.4
        assert model.prior[1] == 0.6

    def test_additive_smoothing_single_sample(self):
        labels = LabelSpace(("seen", "unseen"))
        alphabets = (ObservationAlphabet(("x", "y")),)
        model = nb_fit_mle(
            [("seen", ["x"])], smoothing_alpha=1.0, labels=labels, alphabets=alphabets
        )
        np.testing.assert_array_equal(model.prior.entries, [2.0 / 3.0, 1.0 / 3.0])
        np.testing.assert_array_equal(model.emissions[0][0], [2.0 / 3.0, 1.0 / 3.0])
        np.testing.assert_array_equal(model.emissions[0][1], [0.5, 0.5])

    def test_unseen_label_without_smoothing_gets_zero_prior_uniform_row(self):
        labels = LabelSpace(("seen", "unseen"))
        alphabets = (ObservationAlphabet(("x", "y")),)
        model = nb_fit_mle([("seen", ["x"])], labels=labels, alphabets=alphabets)
        assert model.prior[1] == 0.0
        np.testing.assert_array_equal(model.emissions[0][1], [0.5, 0.5])

    def test_errors(self):
        with pytest.raises(EmptyDataset):
            nb_fit_mle([])
        with pytest.raises(LengthMismatch):
            nb_fit_mle([("a", ["x"]), ("b", ["x", "y"])])
        labels = LabelSpace(("a", "b"))
        alphabets = (ObservationAlphabet(("x",)),)
        with pytest.raises(UnknownSymbol):
            nb_fit_mle([("a", ["q"]), ("b", ["x"])], labels=labels, alphabets=alphabets)
        with pytest.raises(UnknownSymbol):
            nb_fit_mle([("c", ["x"])], labels=labels, alphabets=alphabets)
        message = "^observations must have at least one position$"
        with pytest.raises(LengthMismatch, match=message):
            nb_fit_mle([("a", []), ("b", [])])
        with pytest.raises(EmptyDataset):
            nb_sufficient_statistics([], labels, alphabets)

    def test_a_model_needs_one_emission_table_per_position(self):
        model = random_naive_bayes(np.random.default_rng(4), n_labels=2, t_len=2)
        with pytest.raises(ValueError, match="^need at least one observation position$"):
            NaiveBayesModel(model.labels, (), model.prior, ())
        message = "^need one emission table per observation position$"
        with pytest.raises(ValueError, match=message):
            NaiveBayesModel(model.labels, model.alphabets, model.prior, model.emissions[:1])

    @pytest.mark.parametrize("alpha", [-1.0, np.inf, np.nan, True, np.True_, "1", None])
    def test_smoothing_must_be_finite_and_nonnegative(self, alpha):
        with pytest.raises(ValueError, match="^smoothing_alpha must be finite and nonnegative$"):
            nb_fit_mle([("a", ["x"]), ("b", ["y"])], smoothing_alpha=alpha)

    def test_smoothing_whose_totals_overflow_is_refused(self):
        # 30 symbols at one position: the emission total count + 30 * alpha
        # overflows at alpha = 1e307, and would zero every emission entry;
        # at 5e306 every total stays finite and the fit is near uniform
        data = [(label, [f"s{k}"]) for label in "ab" for k in range(30)]
        with pytest.raises(ValueError,
                           match="^smoothing_alpha is too large: the smoothed totals overflow$"):
            nb_fit_mle(data, 1e307)
        with pytest.raises(ValueError, match="^smoothing_alpha is too large"):
            nb_fit_mle([("a", ["x"]), ("b", ["y"])], 1e308)  # the prior total, 2 * alpha
        model = nb_fit_mle(data, 5e306)
        assert model.prior.entries.tolist() == [0.5, 0.5]
        np.testing.assert_allclose(model.emissions[0], 1.0 / 30, rtol=1e-12)

    def test_sufficient_statistics_invariants(self):
        rng = np.random.default_rng(11)
        labels = LabelSpace(("a", "b", "c"))
        alphabets = (ObservationAlphabet(("x", "y")), ObservationAlphabet(("u", "v", "w")))
        dataset = [
            (
                labels.names[rng.integers(0, 3)],
                [ab.symbols[rng.integers(0, ab.m)] for ab in alphabets],
            )
            for _ in range(100)
        ]
        stats = nb_sufficient_statistics(dataset, labels, alphabets)
        assert stats.sample_count == 100
        assert int(stats.label_counts.sum()) == 100
        for table in stats.emission_counts:
            np.testing.assert_array_equal(table.sum(axis=1), stats.label_counts)
        # the vectorized counts equal a plain per-sample tally
        for t, alphabet in enumerate(alphabets):
            tally = np.zeros((labels.n, alphabet.m), dtype=np.int64)
            for label, observation in dataset:
                tally[labels.index(label), alphabet.index(observation[t])] += 1
            np.testing.assert_array_equal(stats.emission_counts[t], tally)

    def test_sufficient_statistics_need_a_sample(self):
        with pytest.raises(ValueError, match="^sample_count must be positive$"):
            SufficientStatistics(0, [0, 0], ([[0, 0], [0, 0]],))

    def test_label_counts_must_add_up_to_the_sample_count(self):
        with pytest.raises(ValueError,
                           match="^label counts do not add up to the sample count$"):
            SufficientStatistics(3, [1, 1], ([[1, 0], [0, 1]],))

    def test_emission_counts_must_add_up_to_the_label_counts(self):
        # position 0 is consistent, position 1 counts one sample of label b twice
        with pytest.raises(ValueError, match="^emission counts at position 1 do not add up "
                                             "to the label counts$"):
            SufficientStatistics(2, [1, 1], ([[1, 0], [0, 1]], [[1, 0], [1, 1]]))

    def test_zero_alpha_is_a_likelihood_maximum(self):
        # moving any fitted parameter along the simplex must not improve
        # the training joint log-likelihood
        rng = np.random.default_rng(5)
        labels = LabelSpace(("a", "b", "c"))
        alphabets = (ObservationAlphabet(("x", "y")), ObservationAlphabet(("u", "v", "w")))
        dataset = [
            (
                labels.names[rng.integers(0, 3)],
                [ab.symbols[rng.integers(0, ab.m)] for ab in alphabets],
            )
            for _ in range(60)
        ]
        model = nb_fit_mle(dataset, labels=labels, alphabets=alphabets)

        def joint_ll(prior, emissions):
            total = 0.0
            for label, obs in dataset:
                i = labels.index(label)
                term = safe_log(np.array([prior[i]]))[0]
                for t, symbol in enumerate(obs):
                    term += safe_log(np.array([emissions[t][i, alphabets[t].index(symbol)]]))[0]
                total += term
            return total

        base = joint_ll(model.prior.entries, model.emissions)
        step = 1e-3
        for i in range(labels.n):
            for j in range(labels.n):
                if i == j or model.prior[i] < step:
                    continue
                perturbed = model.prior.entries.copy()
                perturbed[i] -= step
                perturbed[j] += step
                assert joint_ll(perturbed, model.emissions) <= base + 1e-12
        for t, table in enumerate(model.emissions):
            for i in range(labels.n):
                for a in range(table.shape[1]):
                    for b in range(table.shape[1]):
                        if a == b or table[i, a] < step:
                            continue
                        tables = [tab.copy() for tab in model.emissions]
                        tables[t][i, a] -= step
                        tables[t][i, b] += step
                        assert joint_ll(model.prior.entries, tables) <= base + 1e-12


class TestGenerativePosterior:
    def test_symmetric_model_gives_uniform(self):
        labels = LabelSpace(("a", "b", "c"))
        alphabet = ObservationAlphabet(("x", "y"))
        emissions = (np.tile([0.3, 0.7], (3, 1)),)
        model = NaiveBayesModel(labels, (alphabet,), ProbabilityVector.uniform(3), emissions)
        out = nb_generative_posterior(model, ["y"])
        np.testing.assert_allclose(out.entries, np.full(3, 1.0 / 3.0), atol=1e-15)

    def test_single_position_bayes_rule(self):
        out = nb_generative_posterior(_two_label_model(0.9), ["x"])
        np.testing.assert_allclose(out.entries, [0.9, 0.1], atol=1e-12)

    def test_matches_enumeration_on_random_models(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            model = random_naive_bayes(rng, n_labels=3, t_len=4)
            obs = random_nb_observation(rng, model)
            fast = nb_generative_posterior(model, obs).entries
            reference = joint_enumeration_nb(model, obs).entries
            np.testing.assert_allclose(fast, reference, atol=1e-10)

    def test_zero_evidence(self):
        labels = LabelSpace(("a", "b"))
        alphabet = ObservationAlphabet(("x", "y"))
        emissions = (np.array([[1.0, 0.0], [1.0, 0.0]]),)
        model = NaiveBayesModel(labels, (alphabet,), ProbabilityVector([0.5, 0.5]), emissions)
        with pytest.raises(ZeroEvidence):
            nb_generative_posterior(model, ["y"])

    def test_length_and_symbol_errors(self):
        model = _two_label_model()
        with pytest.raises(LengthMismatch):
            nb_generative_posterior(model, ["x", "x"])
        with pytest.raises(UnknownSymbol):
            nb_generative_posterior(model, ["q"])

    def test_unhashable_symbol_is_unknown(self):
        model = _two_label_model()
        message = r"unknown symbol \['x'\]"
        with pytest.raises(UnknownSymbol, match=message):
            nb_encode(model, [[["x"]]])
        with pytest.raises(UnknownSymbol, match=message):
            nb_generative_posterior(model, [["x"]])
        with pytest.raises(UnknownSymbol, match=message):
            nb_sufficient_statistics([("a", [["x"]])], model.labels, model.alphabets)


class TestDiscriminativeRoute:
    def test_symmetric_model_gives_uniform_tables(self):
        labels = LabelSpace(("a", "b", "c"))
        alphabet = ObservationAlphabet(("x", "y"))
        emissions = (np.tile([0.3, 0.7], (3, 1)),)
        model = NaiveBayesModel(labels, (alphabet,), ProbabilityVector.uniform(3), emissions)
        tables = nb_to_discriminative(model)
        np.testing.assert_allclose(tables[0], np.full((2, 3), 1.0 / 3.0), atol=1e-15)

    def test_single_position_bayes_inversion(self):
        tables = nb_to_discriminative(_two_label_model(0.9))
        np.testing.assert_allclose(tables[0][0], [0.9, 0.1], atol=1e-12)

    def test_tables_reproduce_generative_posterior(self):
        rng = np.random.default_rng(13)
        other_rng = np.random.default_rng(14)
        for _ in range(100):
            model = random_naive_bayes(rng, n_labels=4, t_len=5)
            tables = nb_to_discriminative(model)
            obs = random_nb_observation(rng, model)
            columns = [tables[t][model.alphabets[t].index(s)] for t, s in enumerate(obs)]
            discriminative = nb_discriminative_posterior(model.prior, columns).entries
            generative = nb_generative_posterior(model, obs).entries
            np.testing.assert_allclose(discriminative, generative, atol=1e-10)
            # the per-row route is a batch of one: the same bits as its row
            # of a batch, whatever the other rows are
            others = [random_nb_observation(other_rng, model) for _ in range(2)]
            batch = nb_discriminative_log_posterior_batch(
                model.prior, tables, nb_encode(model, [others[0], obs, others[1]])
            )
            np.testing.assert_array_equal(discriminative, np.exp(batch[1]))

    def test_zero_prior_rejected(self):
        labels = LabelSpace(("a", "b"))
        alphabet = ObservationAlphabet(("x",))
        model = NaiveBayesModel(
            labels, (alphabet,), ProbabilityVector([1.0, 0.0]), (np.array([[1.0], [1.0]]),)
        )
        with pytest.raises(ZeroPrior):
            nb_to_discriminative(model)

    def test_unreachable_symbol_rejected(self):
        labels = LabelSpace(("a", "b"))
        alphabet = ObservationAlphabet(("x", "y"))
        emissions = (np.array([[1.0, 0.0], [1.0, 0.0]]),)
        model = NaiveBayesModel(labels, (alphabet,), ProbabilityVector([0.5, 0.5]), emissions)
        with pytest.raises(ZeroMarginal, match="'y'"):
            nb_to_discriminative(model)

    def test_single_position_returns_column_unchanged(self):
        column = ProbabilityVector([0.2, 0.5, 0.3])
        out = nb_discriminative_posterior(ProbabilityVector([0.6, 0.3, 0.1]), [column])
        np.testing.assert_allclose(out.entries, column.entries, atol=1e-14)

    def test_uniform_inputs_give_uniform_posterior(self):
        uniform = ProbabilityVector.uniform(4)
        out = nb_discriminative_posterior(uniform, [uniform, uniform, uniform])
        np.testing.assert_allclose(out.entries, np.full(4, 0.25), atol=1e-14)

    def test_column_scaling_invariance(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            n = int(rng.integers(2, 6))
            t_len = int(rng.integers(1, 5))
            prior = rng.uniform(0.05, 1.0, n)
            prior = ProbabilityVector(prior / prior.sum())
            columns = [rng.uniform(0.01, 1.0, n) for _ in range(t_len)]
            base = nb_discriminative_posterior(prior, columns).entries
            scales = rng.uniform(0.1, 10.0, t_len)
            scaled = [col * s for col, s in zip(columns, scales)]
            np.testing.assert_allclose(
                nb_discriminative_posterior(prior, scaled).entries, base, atol=1e-12
            )

    def test_zero_prior_and_all_zero_scores(self):
        with pytest.raises(ZeroPrior):
            nb_discriminative_posterior(ProbabilityVector([1.0, 0.0]), [[0.5, 0.5]])
        with pytest.raises(AllZeroWeights):
            nb_discriminative_posterior(
                ProbabilityVector([0.5, 0.5]), [[1.0, 0.0], [0.0, 1.0]]
            )

    def test_rejects_negative_columns(self):
        with pytest.raises(ValueError):
            nb_discriminative_posterior(ProbabilityVector([0.5, 0.5]), [[-0.1, 1.1]])


class TestBatchFunctions:
    def test_posterior_column_batch_rejects_bad_tables(self):
        prior = ProbabilityVector([0.5, 0.5])
        for bad in ([[-0.1, 1.1]], [[np.nan, 1.0]]):
            with pytest.raises(ValueError):
                nb_discriminative_log_posterior_batch(prior, [np.array(bad)], [[0]])
        with pytest.raises(ValueError, match="^posterior tables must be arrays of numbers$"):
            nb_discriminative_log_posterior_batch(prior, [[[0.5], [0.5, 0.5]]], [[0]])  # ragged
        with pytest.raises(ValueError, match="^need at least one posterior table$"):
            nb_discriminative_log_posterior_batch(prior, [], np.zeros((1, 0), dtype=np.intp))
        with pytest.raises(ValueError, match=r"^posterior tables must have shape \(M_t, 2\)$"):
            nb_discriminative_log_posterior_batch(prior, [[[0.2, 0.3, 0.5]]], [[0]])

    def test_codes_must_have_one_column_per_position(self):
        model = random_naive_bayes(np.random.default_rng(5), n_labels=2, t_len=2)
        message = r"^codes must have shape \(S, 2\), got \(1, 3\)$"
        with pytest.raises(LengthMismatch, match=message):
            nb_generative_log_posterior_batch(model, np.zeros((1, 3), dtype=np.intp))

    @pytest.mark.parametrize("table", [
        [["0.5", "0.5"]], np.array([["0.5", "0.5"]]), [[True, False]], np.array([[True, False]]),
    ])
    def test_posterior_tables_must_be_numbers(self, table):
        # strings and booleans are not weights, as in every parameter array
        prior = ProbabilityVector([0.5, 0.5])
        codes = np.zeros((1, 1), dtype=np.intp)
        message = "^posterior tables must be arrays of numbers$"
        with pytest.raises(ValueError, match=message):
            nb_discriminative_log_posterior_batch(prior, [table], codes)
        with pytest.raises(ValueError, match=message):
            nb_discriminative_posterior(prior, table)

    @pytest.mark.parametrize("route", ["generative", "columns"])
    @pytest.mark.parametrize("code", [-1, 2, 3, 1.0])
    def test_out_of_range_codes_are_unknown_symbols(self, route, code):
        # position 1 has two symbols; position 0 has three, so 2 is valid there;
        # 1.0 is in range but makes the codes a float array
        labels = LabelSpace(("a", "b"))
        alphabets = (ObservationAlphabet(("x", "y", "z")), ObservationAlphabet(("u", "v")))
        emissions = (np.full((2, 3), 1.0 / 3.0), np.full((2, 2), 0.5))
        model = NaiveBayesModel(labels, alphabets, ProbabilityVector([0.5, 0.5]), emissions)
        codes = np.array([[0, 1], [2, code]])
        with pytest.raises(UnknownSymbol):
            if route == "generative":
                nb_generative_log_posterior_batch(model, codes)
            else:
                nb_discriminative_log_posterior_batch(
                    model.prior, nb_to_discriminative(model), codes
                )


class TestSoftmaxParameterization:
    def test_flat_parameters_give_uniform(self):
        labels = LabelSpace(("a", "b", "c"))
        model = DiscriminativeNBModel(
            labels, ProbabilityVector.uniform(3), np.zeros((3, 2)), np.zeros((3, 2))
        )
        out = disc_nb_posterior(model, [0.7, -1.3])
        np.testing.assert_allclose(out.entries, np.full(3, 1.0 / 3.0), atol=1e-14)

    def test_single_position_equals_softmax_column(self):
        labels = LabelSpace(("a", "b"))
        model = DiscriminativeNBModel(
            labels, ProbabilityVector([0.9, 0.1]), [[1.0], [-1.0]], [[0.3], [0.0]]
        )
        y = [0.4]
        logits = model.slopes[:, 0] * y[0] + model.intercepts[:, 0]
        column = np.exp(logits) / np.exp(logits).sum()
        out = disc_nb_posterior(model, y)
        np.testing.assert_allclose(out.entries, column, atol=1e-14)

    def test_agrees_with_collapsed_linear_form(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            model = random_discriminative_nb(rng, n_labels=3, t_len=4)
            collapsed = nb_to_lr(model)
            y = rng.normal(0.0, 2.0, size=4)
            np.testing.assert_allclose(
                disc_nb_posterior(model, y).entries,
                lr_posterior(collapsed, y).entries,
                atol=1e-10,
            )

    def test_batch_matches_single_observation_calls(self):
        rng = np.random.default_rng(19)
        model = random_discriminative_nb(rng, n_labels=4, t_len=3)
        batch = rng.normal(size=(20, 3))
        from_batch = np.exp(disc_nb_log_posterior_batch(model, batch))
        for row, obs in zip(from_batch, batch):
            np.testing.assert_array_equal(row, disc_nb_posterior(model, obs).entries)

    def test_rows_do_not_depend_on_their_batch(self):
        # predict evaluates blocks of PREDICT_BLOCK rows: a row's bits must
        # not change with the block it lands in or its place there, on the
        # model and on its logistic-regression collapse
        rng = np.random.default_rng(20)
        model = random_discriminative_nb(rng, n_labels=8, t_len=20)
        batch = rng.normal(0.0, 2.0, size=(PREDICT_BLOCK + 3, 20))
        for kernel, kernel_model in ((disc_nb_log_posterior_batch, model),
                                     (lr_log_posterior_batch, nb_to_lr(model))):
            whole = kernel(kernel_model, batch)
            for split in (1, 2, 500, PREDICT_BLOCK, PREDICT_BLOCK + 2):
                parts = [kernel(kernel_model, batch[:split]),
                         kernel(kernel_model, batch[split:])]
                np.testing.assert_array_equal(np.concatenate(parts), whole)

    def test_matches_plain_math_reference_near_overflow(self):
        # the definition in plain floats: a max-shifted log softmax per
        # position, and math.fsum over the prior term and the columns
        def reference(prior, slopes, intercepts, y):
            terms = [[(1 - len(y)) * math.log(p)] for p in prior]
            for t, value in enumerate(y):
                logits = [row[t] * value + bias[t] for row, bias in zip(slopes, intercepts)]
                peak = max(logits)
                norm = peak + math.log(math.fsum(math.exp(z - peak) for z in logits))
                for label_terms, z in zip(terms, logits):
                    label_terms.append(z - norm)
            weights = [math.fsum(label_terms) for label_terms in terms]
            peak = max(weights)
            norm = peak + math.log(math.fsum(math.exp(w - peak) for w in weights))
            return [math.exp(w - norm) for w in weights]

        rng = np.random.default_rng(21)
        for t_len in (1, 2, 7, 20, 50):
            n = int(rng.integers(2, 9))
            # logits spread up to about +-700, next to exp's overflow limit
            scale = rng.uniform(0.0, 700.0, size=(n, t_len))
            slopes = rng.uniform(-1.0, 1.0, size=(n, t_len)) * scale / 3.0
            intercepts = rng.uniform(-1.0, 1.0, size=(n, t_len)) * scale
            prior = rng.uniform(0.05, 1.0, n)
            model = DiscriminativeNBModel(
                LabelSpace(tuple(f"l{i}" for i in range(n))),
                ProbabilityVector(prior / prior.sum()), slopes, intercepts,
            )
            batch = rng.normal(size=(8, t_len))
            got = np.exp(disc_nb_log_posterior_batch(model, batch))
            for row, y in zip(got, batch.tolist()):
                want = reference(model.prior.entries.tolist(), slopes.tolist(),
                                 intercepts.tolist(), y)
                np.testing.assert_allclose(row, want, rtol=0.0, atol=EQUALITY_TOL)

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(23)
        model = random_discriminative_nb(rng, n_labels=2, t_len=3)
        from dualbayes.core import DimensionMismatch

        with pytest.raises(DimensionMismatch):
            disc_nb_posterior(model, [1.0, 2.0])

    def test_ragged_batch_names_the_bad_row(self):
        from dualbayes.core import DimensionMismatch

        model = random_discriminative_nb(np.random.default_rng(23), n_labels=2, t_len=2)
        with pytest.raises(DimensionMismatch, match=r"got shape \(1,\)$"):
            disc_nb_log_posterior_batch(model, [[1.0, 2.0], [1.0]])

    @pytest.mark.parametrize("row", NON_NUMERIC_ROWS.values(), ids=NON_NUMERIC_ROWS.keys())
    @pytest.mark.parametrize("call", [
        lambda model, row: disc_nb_posterior(model, row),
        lambda model, row: disc_nb_log_posterior_batch(model, [row]),
    ], ids=["disc_nb_posterior", "disc_nb_log_posterior_batch"])
    def test_strings_and_booleans_are_not_numbers(self, call, row):
        model = random_discriminative_nb(np.random.default_rng(23), n_labels=2, t_len=2)
        with pytest.raises(ValueError, match="^observation coordinates must be numbers"):
            call(model, row)

    def test_zero_prior_rejected_at_construction(self):
        with pytest.raises(ZeroPrior):
            DiscriminativeNBModel(
                LabelSpace(("a", "b")),
                ProbabilityVector([1.0, 0.0]),
                np.zeros((2, 1)),
                np.zeros((2, 1)),
            )


def test_the_readme_library_quickstart_runs(capsys):
    # its per-row routes (nb_generative_posterior, nb_discriminative_posterior,
    # lr_posterior) run in no CLI command, so no other check would see it drift
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    assert len(capsys.readouterr().out.splitlines()) == 3
