"""Acceptance suite.

One test per acceptance criterion, each printing a single PASS/FAIL line
(run with ``pytest tests/test_acceptance.py -v -s`` to see them live).
Every tolerance is pinned here; nothing is deferred to calibration.
"""

from fractions import Fraction

import numpy as np
import pytest

from dualbayes.cli import main
from dualbayes.core import EQUALITY_TOL, LabelSpace, ObservationAlphabet
from dualbayes.hmm import entropic_forward_backward, forward_backward
from dualbayes.logreg import lr_log_posterior_batch, lr_posterior, lr_to_nb, nb_to_lr
from dualbayes.model_io import dumps_model, loads_model, save_model
from dualbayes.naive_bayes import (
    disc_nb_log_posterior_batch,
    disc_nb_posterior,
    nb_discriminative_posterior,
    nb_fit_mle,
    nb_generative_posterior,
    nb_to_discriminative,
)
from dualbayes.oracle import joint_enumeration_hmm, joint_enumeration_nb
from dualbayes.train import TrainConfig, fit_discriminative
from dualbayes.verify import (
    random_discriminative_nb,
    random_hmm,
    random_hmm_observation,
    random_logreg,
    random_naive_bayes,
    random_nb_observation,
    random_probability_vector,
)
from helpers import GRAD_REL_TOL, finite_difference_max_rel_error


def _report(number, name, passed, detail):
    print(f"ACCEPTANCE {number} {name}: {'PASS' if passed else 'FAIL'} ({detail})")


def test_criterion_1_generative_discriminative_equivalence():
    rng = np.random.default_rng(1001)
    worst = 0.0
    for _ in range(1000):
        model = random_naive_bayes(rng)  # N <= 5, T <= 6, M <= 6, positive prior
        tables = nb_to_discriminative(model)
        observation = random_nb_observation(rng, model)
        generative = nb_generative_posterior(model, observation).entries
        columns = [
            tables[t][model.alphabets[t].index(symbol)]
            for t, symbol in enumerate(observation)
        ]
        discriminative = nb_discriminative_posterior(model.prior, columns).entries
        worst = max(worst, float(np.abs(generative - discriminative).max()))
    passed = worst <= EQUALITY_TOL
    _report(1, "generative == discriminative posterior over 1000 models", passed,
            f"max |diff| = {worst:.3e}, tol {EQUALITY_TOL:.1e}")
    assert passed


def test_criterion_2_logreg_equivalence_both_directions():
    rng = np.random.default_rng(1002)
    worst = 0.0
    for _ in range(500):
        disc = random_discriminative_nb(rng)
        probes = rng.normal(0.0, 2.0, size=(100, disc.n_positions))
        collapsed = nb_to_lr(disc)
        gap = np.abs(
            np.exp(disc_nb_log_posterior_batch(disc, probes))
            - np.exp(lr_log_posterior_batch(collapsed, probes))
        )
        worst = max(worst, float(gap.max()))

        linear = random_logreg(rng)
        probes = rng.normal(0.0, 2.0, size=(100, linear.n_positions))
        reference = np.exp(lr_log_posterior_batch(linear, probes))
        expanded = lr_to_nb(linear, random_probability_vector(rng, linear.labels.n))
        gap = np.abs(np.exp(disc_nb_log_posterior_batch(expanded, probes)) - reference)
        worst = max(worst, float(gap.max()))
        back = nb_to_lr(expanded)
        gap = np.abs(np.exp(lr_log_posterior_batch(back, probes)) - reference)
        worst = max(worst, float(gap.max()))
    passed = worst <= EQUALITY_TOL
    _report(2, "logreg conversion (both directions, round-trip), 500 models x 100 obs",
            passed, f"max |diff| = {worst:.3e}, tol {EQUALITY_TOL:.1e}")
    assert passed


def test_criterion_3_fb_equals_efb():
    rng = np.random.default_rng(1003)
    worst = 0.0
    for _ in range(500):
        model = random_hmm(rng, derive=True)
        observation = random_hmm_observation(rng, model, int(rng.integers(1, 9)))
        classic = forward_backward(model, observation).gamma
        entropic = entropic_forward_backward(model, observation).gamma
        worst = max(worst, float(np.abs(classic - entropic).max()))
    passed = worst <= EQUALITY_TOL
    _report(3, "forward-backward == entropic variant over 500 derived models (T <= 8)",
            passed, f"max row |diff| = {worst:.3e}, tol {EQUALITY_TOL:.1e}")
    assert passed


def test_criterion_4_fast_paths_match_enumeration():
    rng = np.random.default_rng(1004)
    worst_hmm = 0.0
    max_steps = {2: 8, 3: 7, 4: 6}  # keeps N^T <= 4096
    for _ in range(60):
        n = int(rng.integers(2, 5))
        model = random_hmm(rng, n_labels=n)
        observation = random_hmm_observation(rng, model, int(rng.integers(1, max_steps[n] + 1)))
        fast = forward_backward(model, observation).gamma
        reference = joint_enumeration_hmm(model, observation).gamma
        worst_hmm = max(worst_hmm, float(np.abs(fast - reference).max()))

    worst_nb = 0.0
    for _ in range(200):
        model = random_naive_bayes(rng)
        observation = random_nb_observation(rng, model)
        fast = nb_generative_posterior(model, observation).entries
        reference = joint_enumeration_nb(model, observation).entries
        worst_nb = max(worst_nb, float(np.abs(fast - reference).max()))
    passed = worst_hmm <= EQUALITY_TOL and worst_nb <= EQUALITY_TOL
    _report(4, "fast paths match brute-force enumeration", passed,
            f"hmm max = {worst_hmm:.3e}, nb max = {worst_nb:.3e}, tol {EQUALITY_TOL:.1e}")
    assert passed


def test_criterion_5_gradients_match_finite_differences():
    rng = np.random.default_rng(1005)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 5))
        t_len = int(rng.integers(1, 5))
        model = random_discriminative_nb(rng, n_labels=n, t_len=t_len)
        draws = [(int(rng.integers(0, n)), rng.normal(0.0, 1.5, size=t_len))
                 for _ in range(int(rng.integers(1, 7)))]
        idx = np.array([code for code, _ in draws])
        obs = np.array([row for _, row in draws])
        worst = max(worst, finite_difference_max_rel_error(nb_to_lr(model), obs, idx))
    passed = worst <= GRAD_REL_TOL
    _report(5, "trainer (W, b) gradient vs central differences over 50 configs", passed,
            f"max rel err = {worst:.3e}, tol {GRAD_REL_TOL:.1e}")
    assert passed


def test_criterion_6_training_sanity():
    rng = np.random.default_rng(1006)
    data = [("neg", [v]) for v in rng.normal(-2.0, 1.0, 100)]
    data += [("pos", [v]) for v in rng.normal(2.0, 1.0, 100)]
    labels = LabelSpace(("neg", "pos"))
    config = TrainConfig(learning_rate=0.1, epochs=500)
    _, report = fit_discriminative(data, 1, labels, config)
    curve = np.array(report.loss_curve)
    monotone = bool(np.all(np.diff(curve) <= 1e-9))
    passed = report.final_accuracy >= 0.95 and monotone and curve.size <= 500
    _report(6, "two-class training sanity (200 samples, lr 0.1, <= 500 epochs)", passed,
            f"accuracy = {report.final_accuracy:.3f}, monotone(1e-9) = {monotone}")
    assert passed


def test_criterion_7_counting_fit_is_exact():
    rng = np.random.default_rng(1007)
    passed = True
    detail = "all ratios bit-equal to rational arithmetic"

    # hand-checkable dataset: 4 of one label out of 10
    model = nb_fit_mle([("a", ["x"])] * 4 + [("b", ["x"])] * 6)
    passed &= model.prior[0] == float(Fraction(4, 10))
    passed &= model.prior[1] == float(Fraction(6, 10))

    for _ in range(25):
        n = int(rng.integers(2, 5))
        labels = LabelSpace(tuple(f"l{k}" for k in range(n)))
        alphabets = (
            ObservationAlphabet(tuple(f"s{k}" for k in range(int(rng.integers(1, 5))))),
            ObservationAlphabet(tuple(f"s{k}" for k in range(int(rng.integers(1, 5))))),
        )
        size = int(rng.integers(n, 1001))
        dataset = [
            (
                labels.names[k % n if k < n else int(rng.integers(0, n))],
                [ab.symbols[int(rng.integers(0, ab.m))] for ab in alphabets],
            )
            for k in range(size)
        ]
        fitted = nb_fit_mle(dataset, labels=labels, alphabets=alphabets)
        label_counts = [sum(1 for lab, _ in dataset if lab == name) for name in labels.names]
        for i, count in enumerate(label_counts):
            if fitted.prior[i] != float(Fraction(count, size)):
                passed = False
                detail = f"prior[{i}] mismatch on size {size}"
        for t, alphabet in enumerate(alphabets):
            for i, name in enumerate(labels.names):
                for y, symbol in enumerate(alphabet.symbols):
                    pattern = sum(
                        1 for lab, obs in dataset if lab == name and obs[t] == symbol
                    )
                    expected = float(Fraction(pattern, label_counts[i]))
                    if fitted.emissions[t][i, y] != expected:
                        passed = False
                        detail = f"emission ({t},{i},{y}) mismatch"
    _report(7, "counting fit reproduces exact count ratios (counts <= 1000)", passed, detail)
    assert passed


def test_criterion_8_serialization_round_trips_bitwise():
    rng = np.random.default_rng(1008)
    passed = True

    for _ in range(10):
        nb = random_naive_bayes(rng)
        clone = loads_model(dumps_model(nb))
        obs = random_nb_observation(rng, nb)
        passed &= np.array_equal(
            nb_generative_posterior(nb, obs).entries,
            nb_generative_posterior(clone, obs).entries,
        )

        disc = random_discriminative_nb(rng)
        clone = loads_model(dumps_model(disc))
        y = rng.normal(0.0, 2.0, size=disc.n_positions)
        passed &= np.array_equal(
            disc_nb_posterior(disc, y).entries, disc_nb_posterior(clone, y).entries
        )

        linear = random_logreg(rng)
        clone = loads_model(dumps_model(linear))
        y = rng.normal(0.0, 2.0, size=linear.n_positions)
        passed &= np.array_equal(
            lr_posterior(linear, y).entries, lr_posterior(clone, y).entries
        )

        chain = random_hmm(rng, derive=True)
        clone = loads_model(dumps_model(chain))
        seq = random_hmm_observation(rng, chain, 5)
        passed &= np.array_equal(
            forward_backward(chain, seq).gamma, forward_backward(clone, seq).gamma
        )
        passed &= np.array_equal(
            entropic_forward_backward(chain, seq).gamma,
            entropic_forward_backward(clone, seq).gamma,
        )
    _report(8, "JSON round-trips preserve posteriors bitwise for all model types",
            passed, "10 random models per type")
    assert passed


def test_criterion_9_cli_determinism_and_exit_codes(tmp_path, capsys, monkeypatch):
    assert main(["verify", "--seed", "11", "--cases", "2"]) == 0
    first = capsys.readouterr().out
    assert main(["verify", "--seed", "11", "--cases", "2"]) == 0
    second = capsys.readouterr().out
    identical = first == second

    empty = tmp_path / "empty.csv"
    empty.write_text("", encoding="utf-8")
    code_empty = main(["fit", "--generative", str(empty), "-o", str(tmp_path / "m.json")])

    source = tmp_path / "lr.json"
    save_model(random_logreg(np.random.default_rng(0), n_labels=2, t_len=2), source)
    code_prior = main([
        "convert", str(source), "-o", str(tmp_path / "o.json"), "--prior", "1.0,0.0",
    ])

    huge = tmp_path / "huge.csv"
    huge.write_text("label,f0\na,1e200\nb,-1e200\n", encoding="utf-8")
    code_diverge = main([
        "fit", "--discriminative", "--epochs", "10", str(huge),
        "-o", str(tmp_path / "d.json"),
    ])

    import dualbayes.cli as cli_module
    from dualbayes.verify import SuiteResult

    with monkeypatch.context() as patched:
        patched.setattr(cli_module, "run_all_suites",
                        lambda seed=0, cases=None: [SuiteResult("fb-vs-efb", 1, 0.5)])
        code_suite_failure = main(["verify"])
    capsys.readouterr()

    passed = (identical and code_empty == 2 and code_prior == 2
              and code_diverge == 3 and code_suite_failure == 1)
    _report(9, "CLI determinism and exit-code contract", passed,
            f"byte-identical = {identical}, empty -> {code_empty}, "
            f"zero prior -> {code_prior}, diverged -> {code_diverge}, "
            f"suite failure -> {code_suite_failure}")
    assert passed


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v", "-s"]))
