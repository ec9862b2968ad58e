"""Shared test utilities."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dualbayes.logreg import LogisticRegressionModel, lr_log_posterior_batch
from dualbayes.train import _loss_and_gradients

#: Central finite-difference step of the gradient checks.
FD_STEP = 1e-5

#: Largest relative gap the gradient checks allow (see finite_difference_max_rel_error).
GRAD_REL_TOL = 1e-5


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


def finite_difference_max_rel_error(model, obs, idx) -> float:
    """Worst relative deviation between the trainer's gradient,
    ``_loss_and_gradients``, at the logistic regression ``model`` and
    central finite differences, over every weight and bias.

    ``obs`` holds the rows and ``idx`` their label codes.  The differences
    are of the mean cross-entropy of :func:`lr_log_posterior_batch`, the
    inference fold, which shares no product with the trainer's logits.
    Relative error uses the conventional unit floor,
    ``|a - b| / max(1, |a|, |b|)``, so coordinates whose true gradient is
    zero are compared absolutely.
    """
    _, *analytic = _loss_and_gradients(model.weights, model.biases, obs, idx)
    rows = np.arange(idx.size)

    def loss(k, coord, step):
        params = [model.weights.copy(), model.biases.copy()]
        params[k][coord] += step
        bumped = LogisticRegressionModel(model.labels, *params)
        return -lr_log_posterior_batch(bumped, obs)[rows, idx].mean()

    worst = 0.0
    for k, grad in enumerate(analytic):
        for coord in np.ndindex(grad.shape):
            numeric = (loss(k, coord, FD_STEP) - loss(k, coord, -FD_STEP)) / (2.0 * FD_STEP)
            worst = max(worst, abs(numeric - grad[coord]) / max(1.0, abs(numeric), abs(grad[coord])))
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
