"""The verification suites themselves: determinism, scaling, and the
ability to fail when an algorithm is deliberately broken."""

import errno
import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import dualbayes.verify
from dualbayes.cli import main
from dualbayes.core import EQUALITY_TOL, ZeroEvidence
from dualbayes.hmm import PosteriorMarginals, entropic_forward_backward
from dualbayes.oracle import joint_enumeration_hmm
from dualbayes.verify import (
    SuiteResult,
    _sweep,
    fb_efb_suite,
    fb_enumeration_suite,
    logreg_equivalence_suite,
    nb_agreement_suite,
    run_all_suites,
    random_naive_bayes,
)

from helpers import assert_no_child_left


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

    @pytest.mark.parametrize("cases", [0, -3, 2.5, "3", True])
    def test_case_count_below_one_rejected(self, cases):
        with pytest.raises(ValueError, match="at least 1"):
            run_all_suites(seed=0, cases=cases)
        with pytest.raises(ValueError, match="at least 1"):
            fb_efb_suite(np.random.default_rng(0), cases=cases)

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
            "suite=nb-generative-vs-discriminative cases=1000 max_discrepancy=8.327e-16"
            " tolerance=1.0e-10 PASS\n"
            "suite=logreg-equivalence cases=500 max_discrepancy=2.331e-15 tolerance=1.0e-10 PASS\n"
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


def _scripted(per_case):
    """A draw function that returns the given gap arrays, one case per call."""
    calls = iter(per_case)
    return lambda rng: [np.array(gap) for gap in next(calls)]


_SMALL, _BIG = 1e-16, 2e-10


class TestSweep:
    """The one loop behind every suite, driven by a synthetic draw function."""

    @pytest.mark.parametrize("per_case, worst", [
        ([[[_SMALL], [_SMALL, np.nan]]], np.nan),
        ([[[_SMALL]], [[_SMALL]], [[np.nan]], [[_SMALL]]], np.nan),
        ([[[_SMALL], [_SMALL], [_BIG]]], _BIG),
        ([[[_SMALL], [_SMALL]], [[_SMALL], [_BIG, _SMALL]], [[_SMALL], [_SMALL]]], _BIG),
    ], ids=["nan-in-a-later-array", "nan-in-a-later-case",
            "worst-in-the-third-array", "worst-in-a-later-case"])
    def test_worst_gap_of_any_array_of_any_case(self, per_case, worst):
        result = _sweep("synthetic", len(per_case), _scripted(per_case), None)
        assert result.cases == len(per_case)
        np.testing.assert_equal(result.max_discrepancy, worst)
        assert not result.passed

    def test_draws_each_case_from_the_given_generator(self):
        rng = np.random.default_rng(0)
        seen = []

        def draw(generator):
            seen.append(generator)
            return [np.zeros(2)]

        assert _sweep("s", 3, draw, rng) == SuiteResult("s", 3, 0.0)
        assert _sweep("s", 3, draw, rng, cases=5) == SuiteResult("s", 5, 0.0)
        assert len(seen) == 8 and all(generator is rng for generator in seen)

    def test_tolerance_is_a_constant_not_a_field(self):
        assert SuiteResult("x", 1, 0.0).tolerance == EQUALITY_TOL
        with pytest.raises(TypeError):
            SuiteResult("x", 1, 0.0, 1.0)


class TestRunner:
    SUITES = (nb_agreement_suite, logreg_equivalence_suite, fb_efb_suite, fb_enumeration_suite)

    @pytest.mark.parametrize("seed", [3, 2024])
    def test_each_suite_runs_on_its_own_substream(self, seed):
        direct = [suite(np.random.default_rng([seed, stream]), cases=6)
                  for stream, suite in enumerate(self.SUITES)]
        assert run_all_suites(seed=seed, cases=6) == direct

    @pytest.mark.parametrize("cpus, calls_here", [(1, 4), (2, 0)])
    def test_both_paths_give_the_same_results(self, monkeypatch, cpus, calls_here):
        # the oracle calls this process sees tell an in-process run from a forked one
        expected = [suite(np.random.default_rng([7, stream]), cases=4)
                    for stream, suite in enumerate(self.SUITES)]
        calls = []

        def counted(model, observations):
            calls.append(len(observations))
            return joint_enumeration_hmm(model, observations)

        monkeypatch.setattr(dualbayes.verify, "joint_enumeration_hmm", counted)
        monkeypatch.setattr(dualbayes.verify, "usable_cpus", lambda: cpus)
        assert run_all_suites(seed=7, cases=4) == expected
        assert len(calls) == calls_here

    def test_no_worker_outlives_the_runner(self, monkeypatch, capsys):
        run_all_suites(seed=0, cases=2)
        assert multiprocessing.active_children() == []

        def raising(model, observations):
            raise ZeroEvidence("x")

        monkeypatch.setattr(dualbayes.verify, "entropic_forward_backward", raising)
        with pytest.raises(ZeroEvidence, match="^x$") as failure:
            run_all_suites(seed=0, cases=2)
        assert failure.type is ZeroEvidence
        assert multiprocessing.active_children() == []
        assert main(["verify", "--cases", "2"]) == 2
        assert capsys.readouterr() == ("", "error: x\n")
        assert multiprocessing.active_children() == []

    @staticmethod
    def _verify(monkeypatch, capsys, cpus):
        """What ``verify --cases 3`` prints with ``cpus`` usable CPUs."""
        monkeypatch.setattr(dualbayes.verify, "usable_cpus", lambda: cpus)
        assert main(["verify", "--cases", "3"]) == 0
        return capsys.readouterr()

    def test_no_worker_can_be_started(self, monkeypatch, capsys):
        def failing_fork():
            raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

        serial = self._verify(monkeypatch, capsys, 1)
        monkeypatch.setattr(os, "fork", failing_fork)
        assert self._verify(monkeypatch, capsys, 4) == serial
        assert_no_child_left()

    def test_a_worker_dies_mid_suite(self, monkeypatch, capsys):
        # a worker is killed in the enumeration suite; this process runs it
        parent = os.getpid()

        def killed_in_a_worker(model, observations):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return joint_enumeration_hmm(model, observations)

        serial = self._verify(monkeypatch, capsys, 1)
        monkeypatch.setattr(dualbayes.verify, "joint_enumeration_hmm", killed_in_a_worker)
        assert self._verify(monkeypatch, capsys, 4) == serial
        assert_no_child_left()

    def test_the_second_worker_cannot_be_started(self, monkeypatch, capsys):
        # the first worker is up when the second fork fails; left running, it
        # would keep a fresh interpreter from exiting
        script = textwrap.dedent("""
            import errno, os, sys
            import dualbayes.verify
            from dualbayes.cli import main
            dualbayes.verify.usable_cpus = lambda: 4
            forks, fork = [], os.fork
            def second_fails():
                forks.append(None)
                if len(forks) == 2:
                    raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")
                return fork()
            os.fork = second_fails
            code = main(["verify", "--cases", "3"])
            try:
                os.waitpid(-1, os.WNOHANG)
                left = "a child left"
            except ChildProcessError:
                left = "no child left"
            print(code, len(forks), left, file=sys.stderr)
        """)
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        done = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, env=env, timeout=60)
        assert (done.stdout, done.stderr) == (self._verify(monkeypatch, capsys, 1).out,
                                              "0 2 no child left\n")
        assert done.returncode == 0

    @pytest.mark.parametrize("seed", [-1, np.int64(-1), 1.5, "3", None, True, False])
    def test_bad_seed_rejected_before_any_suite_runs(self, seed):
        with pytest.raises(ValueError, match="^seed must be a nonnegative integer$"):
            run_all_suites(seed=seed, cases=1)

    def test_importing_the_cli_does_not_import_the_pool(self):
        # every command imports verify; only verify itself needs the pool modules
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        script = ("import sys, dualbayes.cli; "
                  "print('concurrent.futures' in sys.modules, 'multiprocessing' in sys.modules)")
        done = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, env=env, timeout=120)
        assert done.stdout == "False False\n"
