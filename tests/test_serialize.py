"""Model JSON round-trips: documented schemas and bitwise posterior
preservation."""

import json
from functools import partial

import numpy as np
import pytest

from dualbayes.hmm import entropic_forward_backward, forward_backward
from dualbayes.logreg import lr_posterior
from dualbayes.model_io import (
    dumps_model,
    load_model,
    loads_model,
    model_from_dict,
    model_to_dict,
)
from dualbayes.naive_bayes import disc_nb_posterior, nb_generative_posterior
from dualbayes.verify import (
    random_discriminative_nb,
    random_hmm,
    random_hmm_observation,
    random_logreg,
    random_naive_bayes,
    random_nb_observation,
)


class TestSchemas:
    def test_naive_bayes_keys(self):
        rng = np.random.default_rng(1)
        data = model_to_dict(random_naive_bayes(rng, n_labels=2, t_len=2))
        assert set(data) == {"type", "labels", "T", "alphabets", "prior", "emissions"}
        assert data["type"] == "naive_bayes"
        assert data["T"] == 2

    def test_disc_nb_keys(self):
        rng = np.random.default_rng(2)
        data = model_to_dict(random_discriminative_nb(rng, n_labels=2, t_len=3))
        assert set(data) == {"type", "labels", "T", "prior", "params"}
        assert set(data["params"]) == {"a", "c"}
        assert data["type"] == "disc_nb"

    def test_logreg_keys(self):
        rng = np.random.default_rng(3)
        data = model_to_dict(random_logreg(rng, n_labels=3, t_len=2))
        assert set(data) == {"type", "labels", "T", "weights", "biases"}
        assert data["type"] == "logreg"

    def test_hmm_keys_with_and_without_posteriors(self):
        rng = np.random.default_rng(4)
        plain = model_to_dict(random_hmm(rng))
        assert set(plain) == {"type", "labels", "alphabet", "prior", "transitions", "emissions"}
        derived = model_to_dict(random_hmm(rng, derive=True))
        assert "posteriors" in derived

    def test_json_is_plain_floats(self):
        rng = np.random.default_rng(5)
        text = dumps_model(random_logreg(rng))
        parsed = json.loads(text)
        assert all(isinstance(v, float) for row in parsed["weights"] for v in row)


class TestRoundTrip:
    def test_naive_bayes_posteriors_bitwise(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            model = random_naive_bayes(rng)
            clone = loads_model(dumps_model(model))
            for _ in range(5):
                obs = random_nb_observation(rng, model)
                before = nb_generative_posterior(model, obs).entries
                after = nb_generative_posterior(clone, obs).entries
                assert np.array_equal(before, after)

    def test_disc_nb_posteriors_bitwise(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            model = random_discriminative_nb(rng)
            clone = loads_model(dumps_model(model))
            for _ in range(5):
                y = rng.normal(0.0, 2.0, size=model.n_positions)
                assert np.array_equal(
                    disc_nb_posterior(model, y).entries,
                    disc_nb_posterior(clone, y).entries,
                )

    def test_logreg_posteriors_bitwise(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            model = random_logreg(rng)
            clone = loads_model(dumps_model(model))
            for _ in range(5):
                y = rng.normal(0.0, 2.0, size=model.n_positions)
                assert np.array_equal(
                    lr_posterior(model, y).entries, lr_posterior(clone, y).entries
                )

    def test_hmm_marginals_bitwise(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            model = random_hmm(rng, derive=True)
            clone = loads_model(dumps_model(model))
            obs = random_hmm_observation(rng, model, 5)
            assert np.array_equal(
                forward_backward(model, obs).gamma, forward_backward(clone, obs).gamma
            )
            assert np.array_equal(
                entropic_forward_backward(model, obs).gamma,
                entropic_forward_backward(clone, obs).gamma,
            )

    def test_parameters_identical_after_file_round_trip(self, tmp_path):
        from dualbayes.model_io import save_model

        rng = np.random.default_rng(23)
        model = random_naive_bayes(rng, n_labels=3, t_len=2)
        path = tmp_path / "model.json"
        save_model(model, path)
        clone = load_model(path)
        assert np.array_equal(model.prior.entries, clone.prior.entries)
        for mine, theirs in zip(model.emissions, clone.emissions):
            assert np.array_equal(mine, theirs)
        assert model.labels == clone.labels
        assert model.alphabets == clone.alphabets


class TestMalformedInput:
    def test_unknown_type(self):
        with pytest.raises(ValueError, match="unknown model type"):
            model_from_dict({"type": "mystery", "T": 1})

    def test_missing_key(self):
        rng = np.random.default_rng(29)
        data = model_to_dict(random_logreg(rng))
        del data["biases"]
        with pytest.raises(ValueError, match="missing key"):
            model_from_dict(data)

    def test_missing_t(self):
        rng = np.random.default_rng(30)
        data = model_to_dict(random_logreg(rng))
        del data["T"]
        with pytest.raises(ValueError, match="missing key"):
            model_from_dict(data)

    def test_contradictory_t(self):
        rng = np.random.default_rng(31)
        data = model_to_dict(random_logreg(rng, t_len=2))
        data["T"] = 5
        with pytest.raises(ValueError, match="contradicts"):
            model_from_dict(data)

    @pytest.mark.parametrize("make, key, value, message", [
        (random_discriminative_nb, "params", [1], "model JSON 'params' must be an object"),
        (random_logreg, "labels", 5, "model JSON 'labels' must be a list of strings"),
        (random_logreg, "labels", [["a"], ["b"]], "model JSON 'labels' must be a list of strings"),
        (random_logreg, "labels", "ab", "model JSON 'labels' must be a list of strings"),
        (random_hmm, "alphabet", [["x"]], "model JSON 'alphabet' must be a list of strings"),
        (random_naive_bayes, "alphabets", ["xy"],
         "model JSON 'alphabets' entry must be a list of strings"),
        (random_naive_bayes, "alphabets", 5,
         "model JSON 'alphabets' must be a list of lists of strings"),
        (random_naive_bayes, "emissions", 5, "model JSON 'emissions' must be a list of tables"),
        (random_logreg, "T", "2", "model JSON 'T' must be an integer"),
        (partial(random_logreg, t_len=1), "T", True, "model JSON 'T' must be an integer"),
        # numbers written as strings, and booleans, which float conversion accepts
        (partial(random_logreg, t_len=1), "weights", [["1.5"], [True]],
         "weights must be an array of numbers"),
        (random_logreg, "biases", ["0.1", False], "biases must be an array of numbers"),
        (random_hmm, "prior", ["0.5", "0.5"], "prior: entries must be an array of numbers"),
        (random_discriminative_nb, "prior", [True, 0.5],
         "prior: entries must be an array of numbers"),
        (random_hmm, "transitions", [[True, False], [0.5, "0.5"]],
         "transition matrix must be an array of numbers"),
    ], ids=["params-list", "labels-number", "labels-nested", "labels-string",
            "alphabet-nested", "alphabets-string", "alphabets-number", "emissions-number",
            "T-string", "T-bool", "weights-string-and-bool", "biases-string-and-bool",
            "prior-strings", "prior-bool", "transitions-string-and-bool"])
    def test_names_and_params_must_have_their_json_types(self, make, key, value, message):
        data = model_to_dict(make(np.random.default_rng(41)))
        data[key] = value
        with pytest.raises(ValueError, match=f"^{message}$"):
            model_from_dict(data)

    def test_non_object_json(self):
        with pytest.raises(ValueError):
            loads_model("[1, 2, 3]")

    @pytest.mark.parametrize("make", [random_naive_bayes, random_discriminative_nb, random_hmm],
                             ids=["naive_bayes", "disc_nb", "hmm"])
    def test_a_prior_of_the_wrong_length_names_both_lengths(self, make):
        # every model type checks it in core.as_probability_vector, as lr_to_nb does
        data = model_to_dict(make(np.random.default_rng(43), n_labels=2))
        data["prior"] = [0.25, 0.25, 0.5]
        with pytest.raises(ValueError,
                           match=r"^prior has 3 entries, expected 2 \(one per label\)$"):
            model_from_dict(data)

    def test_invariants_still_enforced_on_load(self):
        rng = np.random.default_rng(37)
        data = model_to_dict(random_naive_bayes(rng, n_labels=2, t_len=1))
        data["prior"] = [0.5, 0.6]
        with pytest.raises(ValueError):
            model_from_dict(data)
