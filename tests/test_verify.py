"""The verification suites themselves: determinism, scaling, and the
ability to fail when an algorithm is deliberately broken."""

from types import SimpleNamespace

import numpy as np
import pytest

import dualbayes.verify
from dualbayes.cli import main
from dualbayes.hmm import PosteriorMarginals, entropic_forward_backward
from dualbayes.verify import (
    SuiteResult,
    fb_efb_suite,
    fb_enumeration_suite,
    logreg_equivalence_suite,
    nb_agreement_suite,
    run_all_suites,
    random_naive_bayes,
)


def _nan_nb_batch(prior, tables, codes):
    return np.full((len(codes), len(prior)), np.nan)


def _nan_batch(model, probes):
    return np.full((len(probes), model.labels.n), np.nan)


def _nan_gamma(model, observations):
    return SimpleNamespace(gamma=np.full((len(observations), model.labels.n), np.nan))


# one route of each suite, by suite name, and an all-NaN stand-in for it
_NAN_ROUTES = {
    "nb-generative-vs-discriminative":
        (nb_agreement_suite, "nb_discriminative_log_posterior_batch", _nan_nb_batch),
    "logreg-equivalence": (logreg_equivalence_suite, "lr_log_posterior_batch", _nan_batch),
    "fb-vs-efb": (fb_efb_suite, "entropic_forward_backward", _nan_gamma),
    "fb-vs-enumeration": (fb_enumeration_suite, "joint_enumeration_hmm", _nan_gamma),
}


class TestSuites:
    def test_all_pass_at_smoke_scale(self):
        results = run_all_suites(seed=0, cases=5)
        assert len(results) == 4
        assert all(r.passed for r in results)
        assert [r.cases for r in results] == [5, 5, 5, 5]

    def test_deterministic_for_a_seed(self):
        first = run_all_suites(seed=123, cases=8)
        second = run_all_suites(seed=123, cases=8)
        assert [r.max_discrepancy for r in first] == [r.max_discrepancy for r in second]

    def test_different_seeds_draw_different_models(self):
        one = random_naive_bayes(np.random.default_rng(1))
        other = random_naive_bayes(np.random.default_rng(2))
        assert (
            one.labels.n != other.labels.n
            or one.n_positions != other.n_positions
            or not np.array_equal(one.prior.entries, other.prior.entries)
        )

    def test_sign_fault_breaks_the_entropic_comparison(self, monkeypatch):
        # a faulty entropic route: the true marginals under reversed labels
        def broken(model, observations):
            gamma = entropic_forward_backward(model, observations).gamma
            return PosteriorMarginals(gamma[:, ::-1])

        monkeypatch.setattr(dualbayes.verify, "entropic_forward_backward", broken)
        rng = np.random.default_rng(0)
        broken_suite = fb_efb_suite(rng, cases=30)
        assert not broken_suite.passed
        results = run_all_suites(seed=0, cases=10)
        by_name = {r.name: r for r in results}
        assert not by_name["fb-vs-efb"].passed
        assert by_name["nb-generative-vs-discriminative"].passed
        assert by_name["logreg-equivalence"].passed
        assert by_name["fb-vs-enumeration"].passed

    @pytest.mark.parametrize("cases", [0, -3])
    def test_case_count_below_one_rejected(self, cases):
        with pytest.raises(ValueError, match="at least 1"):
            run_all_suites(seed=0, cases=cases)

    def test_result_threshold(self):
        assert SuiteResult("x", 1, 1e-11).passed
        assert not SuiteResult("x", 1, 2e-10).passed

    @pytest.mark.parametrize("name", sorted(_NAN_ROUTES))
    def test_nan_gap_fails_the_suite(self, monkeypatch, name):
        # max(0.0, nan) == 0.0, so a running builtin max would pass this route
        suite, route, nan_route = _NAN_ROUTES[name]
        monkeypatch.setattr(dualbayes.verify, route, nan_route)
        result = suite(np.random.default_rng(0), cases=5)
        assert result.name == name
        assert np.isnan(result.max_discrepancy)
        assert not result.passed

    def test_default_verify_output_is_pinned(self, capsys):
        assert main(["verify", "--seed", "0"]) == 0
        assert capsys.readouterr().out == (
            "suite=nb-generative-vs-discriminative cases=1000 max_discrepancy=1.110e-15"
            " tolerance=1.0e-10 PASS\n"
            "suite=logreg-equivalence cases=500 max_discrepancy=1.998e-15 tolerance=1.0e-10 PASS\n"
            "suite=fb-vs-efb cases=500 max_discrepancy=3.331e-16 tolerance=1.0e-10 PASS\n"
            "suite=fb-vs-enumeration cases=60 max_discrepancy=6.661e-16 tolerance=1.0e-10 PASS\n"
            "4/4 suites passed\n"
        )

    def test_nan_entropic_route_fails_verify(self, monkeypatch, capsys):
        _, route, nan_route = _NAN_ROUTES["fb-vs-efb"]
        monkeypatch.setattr(dualbayes.verify, route, nan_route)
        assert main(["verify", "--cases", "5"]) == 1
        out = capsys.readouterr().out
        assert "suite=fb-vs-efb cases=5 max_discrepancy=nan tolerance=1.0e-10 FAIL\n" in out
        assert "3/4 suites passed" in out
