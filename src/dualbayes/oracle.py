"""Brute-force reference posteriors.

Both functions evaluate joint probabilities directly, in plain (non-log)
arithmetic, and share no code with the fast inference paths.  That is
deliberate: the fast paths are tested against these, and a shared numerics
bug could otherwise mask itself.  They are only trustworthy while the
joint weights stay comfortably inside double-precision range, which the
test generators guarantee (short sequences, probabilities bounded away
from zero).
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .core import (
    LengthMismatch,
    ProbabilityVector,
    StateSpaceTooLarge,
    ZeroEvidence,
)
from .hmm import HmmModel, PosteriorMarginals
from .naive_bayes import NaiveBayesModel

# Path cap for the HMM enumeration; keeps a full verification run fast.
MAX_PATHS = 2 ** 20


def joint_enumeration_nb(model: NaiveBayesModel, observation) -> ProbabilityVector:
    """Posterior by direct evaluation of prior times emission products."""
    if len(observation) != model.n_positions:
        raise LengthMismatch(
            f"observation has {len(observation)} positions, expected {model.n_positions}"
        )
    indices = [model.alphabets[t].index(symbol) for t, symbol in enumerate(observation)]
    prior = model.prior.entries.tolist()
    tables = [table.tolist() for table in model.emissions]
    weights = []
    for i in range(model.labels.n):
        w = prior[i]
        for t, y in enumerate(indices):
            w *= tables[t][i][y]
        weights.append(w)
    total = sum(weights)
    if total == 0.0:
        raise ZeroEvidence("zero evidence: every label weight is zero")
    return ProbabilityVector([w / total for w in weights])


def joint_enumeration_hmm(model: HmmModel, observations) -> PosteriorMarginals:
    """Posterior marginals by summing the joint weight of every label path.

    ``log_evidence`` is the log of the summed weight of all paths, the
    probability of the observation sequence.
    """
    if model.emissions is None:
        raise ValueError("enumeration needs the emission matrix")
    indices = [model.alphabet.index(symbol) for symbol in observations]
    t_len = len(indices)
    if t_len == 0:
        raise ValueError("need at least one observation")
    n = model.labels.n
    if n ** t_len > MAX_PATHS:
        raise StateSpaceTooLarge(f"{n}^{t_len} paths exceed the enumeration cap of {MAX_PATHS}")

    prior = model.prior.entries.tolist()
    trans = model.transitions.tolist()
    emis = model.emissions.tolist()
    marginals = [[0.0] * n for _ in range(t_len)]
    for path in itertools.product(range(n), repeat=t_len):
        w = prior[path[0]] * emis[path[0]][indices[0]]
        for t in range(1, t_len):
            w *= trans[path[t - 1]][path[t]] * emis[path[t]][indices[t]]
        if w == 0.0:
            continue
        for t, i in enumerate(path):
            marginals[t][i] += w

    rows = []
    for t in range(t_len):
        total = sum(marginals[t])
        if total == 0.0:
            raise ZeroEvidence("zero evidence: every label path has weight zero")
        rows.append([v / total for v in marginals[t]])
    return PosteriorMarginals(np.array(rows), math.log(sum(marginals[0])))
