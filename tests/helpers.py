"""Shared test utilities."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dualbayes.train import FD_STEP, gradient, parameter_loss


def run_python(*args, **env):
    """``python *args`` in a fresh interpreter that imports this checkout,
    with ``env`` added to the environment; a value of None removes the
    variable."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"), **env)
    env = {name: value for name, value in env.items() if value is not None}
    return subprocess.run([sys.executable, *args],
                          capture_output=True, text=True, env=env, timeout=120)


def assert_no_child_left():
    """Every child this process forked has been reaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def finite_difference_max_rel_error(model, dataset) -> float:
    """Worst relative deviation between the analytic gradient and central
    finite differences, over every trainable coordinate.

    Relative error uses the conventional unit floor,
    ``|a - b| / max(1, |a|, |b|)``, so coordinates whose true gradient is
    zero are compared absolutely.
    """
    grads = gradient(model, dataset)
    log_prior = np.log(model.prior.entries)
    worst = 0.0

    def probe(analytic, build):
        nonlocal worst
        plus = parameter_loss(*build(FD_STEP), dataset, model.labels)
        minus = parameter_loss(*build(-FD_STEP), dataset, model.labels)
        numeric = (plus - minus) / (2.0 * FD_STEP)
        worst = max(worst, abs(numeric - analytic) / max(1.0, abs(numeric), abs(analytic)))

    for i in range(model.labels.n):
        for t in range(model.n_positions):
            def bump_slope(h, i=i, t=t):
                slopes = model.slopes.copy()
                slopes[i, t] += h
                return slopes, model.intercepts, log_prior

            def bump_intercept(h, i=i, t=t):
                intercepts = model.intercepts.copy()
                intercepts[i, t] += h
                return model.slopes, intercepts, log_prior

            probe(grads.slopes[i, t], bump_slope)
            probe(grads.intercepts[i, t], bump_intercept)
    for i in range(model.labels.n):
        def bump_prior(h, i=i):
            bumped = log_prior.copy()
            bumped[i] += h
            return model.slopes, model.intercepts, bumped

        probe(grads.log_prior[i], bump_prior)
    return worst


#: Two-coordinate rows that ``np.asarray(row, dtype=float)`` accepts as numbers
#: although they hold strings or booleans; every real-valued entry point
#: refuses them.
NON_NUMERIC_ROWS = {
    "str": ["1.5", 2.0],
    "bool": [True, 2.0],
    "str-array": np.array(["0", "1e0"]),
    "bool-array": np.array([True, False]),
}
