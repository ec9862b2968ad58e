"""Posterior marginals of a homogeneous hidden Markov chain, two ways.

Both algorithms compute ``p(label at t | whole observation sequence)`` for
every position with one forward-backward kernel that differs only in the
per-step factor applied for the observed symbol ``y``:

* :func:`forward_backward` is the classic recursion on joint weights; its
  factor is the emission column ``B[:, y]``.
* :func:`entropic_forward_backward` reaches the same marginals without the
  emission law.  It consumes only the prior, the transitions, and the
  per-symbol posterior columns ``L[y][i] = p(label i | symbol y)``; its
  factor is the ratio ``L[:, y] / prior``.

When the posterior columns are derived from the same prior and emissions
(:func:`derive_hmm_posteriors` does exactly that), the ratio equals
``B[:, y] / p(y)``.  The symbol marginal ``p(y)`` is a per-step constant
that normalization cancels, so the two algorithms agree.  For an arbitrary
``(prior, transitions, L)`` triple there is no such guarantee; both
algorithms still run and return what their recursions define.

Each route gathers: it builds a ``(K, N)`` table of log factors, one row
per symbol, and maps step ``t`` to the row of ``y_t``.  The kernel sees
only initial weights, transitions, that table and that row index.  It
divides every forward and backward vector by its total (Rabiner, "A
tutorial on hidden Markov models", Proc. IEEE 1989, section V.A), so long
sequences neither underflow nor accumulate rounding; the totals are taken
as ``v.dot(ones)``.  A step divides its vector by its total, and only a
zero total is replaced, so a zero vector stays zero.  Each factor row is
shifted by its own maximum, which keeps it in ``[0, 1]`` with at least one
entry equal to one.  The forward vectors are stored as the rows of
``gamma``, the backward pass multiplies its vector into each row, and the
rows are normalized once, together, at the end.

A long sequence over few labels is evaluated in time blocks, in the manner
of temporal parallelization of Bayesian smoothers (Särkkä & García-Fernández,
IEEE TAC 2021).  The T - 1 transition steps are cut into about sqrt(T)
blocks, and one block step advances every block at once with one matrix
product: on a ``(blocks, N, N)`` stack it builds each block's transfer
operator, the product of its steps, once; a short sequential pass carries
``alpha`` forward and ``beta`` backward across the block boundaries through
those same operators; and on a ``(blocks, N)`` state the same step then
runs one forward and one backward sweep of every block from its boundary.
That is about 5 sqrt(T) Python-level steps instead of 2T, for N times the
arithmetic, so the kernel takes this route only with at most 16 labels and
at least 512 steps, and the step-by-step loop otherwise.  The two agree to
rounding, and the blocked route keeps that rule at every step and block
boundary.  Either recursion thus leaves a zero row of ``gamma`` wherever
the sequence has probability zero, and the one check on those rows, after
the recursion, raises :class:`ZeroEvidence`.

The step-by-step loop's forward and backward passes do not depend on each
other until their product is formed (Rabiner, section III), so on a long
sequence, with two CPUs to run on, a child forked by
:func:`.core.forked_parts` runs the backward pass while this process runs
the forward one.  The child writes each normalized backward vector, as raw
float64, into a temporary file, and this process multiplies them into
``gamma`` in chunks of at most 64 KB.  The child takes the serial loop's
steps on the same inputs, and an elementwise product does not depend on
how many rows it spans, so ``gamma`` and the log-evidence keep the serial
loop's bytes; when the child cannot be made, fails or leaves a short file,
the backward pass runs here.

The forward totals ``c_t`` also give the log-evidence for free:
``log_evidence = sum_t log c_t + sum_t peak[k_t]``, where ``k_t`` is the
row used at step ``t`` and ``peak[k]`` is the shift applied to row ``k``.
For :func:`forward_backward` it is ``log p(y_1..y_T)``.  The entropic
factors carry an extra ``1 / p(y)`` per step, so on derived columns the two
routes' log-evidences differ by exactly ``sum_t log p(y_t)``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import partial
from math import isfinite, isqrt

import numpy as np

from .core import (
    EQUALITY_TOL,
    LabelSpace,
    MissingPosteriors,
    ObservationAlphabet,
    ProbabilityVector,
    ZeroEvidence,
    ZeroPrior,
    as_probability_vector,
    bayes_invert,
    check_simplex_rows,
    forked_parts,
    parameter_array,
    safe_log,
    usable_cpus,
)


@dataclass(frozen=True, eq=False)
class HmmModel:
    """Homogeneous HMM over a single observation alphabet.

    ``transitions[i, j]`` is the probability of moving from label ``i`` to
    label ``j``.  At least one of ``emissions`` (rows are per-label symbol
    distributions) and ``posteriors`` (columns are per-symbol label
    distributions) must be present; when both are, they must describe the
    same joint law together with the prior.
    """

    labels: LabelSpace
    alphabet: ObservationAlphabet
    prior: ProbabilityVector
    transitions: np.ndarray
    emissions: np.ndarray | None = None
    posteriors: np.ndarray | None = None

    def __post_init__(self):
        n, m = self.labels.n, self.alphabet.m
        prior = as_probability_vector(self.prior, n)
        object.__setattr__(self, "prior", prior)
        object.__setattr__(self, "transitions", parameter_array(
            self.transitions, "transition matrix", (n, n), simplex_rows=True))

        emissions = self.emissions
        if emissions is not None:
            emissions = parameter_array(emissions, "emission matrix", (n, m), simplex_rows=True)
            object.__setattr__(self, "emissions", emissions)

        posteriors = self.posteriors
        if posteriors is not None:
            posteriors = parameter_array(posteriors, "posterior matrix", (n, m))
            check_simplex_rows(posteriors.T, what="posterior column")
            object.__setattr__(self, "posteriors", posteriors)

        if emissions is None and posteriors is None:
            raise ValueError("model needs emissions, posteriors, or both")
        if emissions is not None and posteriors is not None:
            self._check_consistency(emissions, posteriors)

    def _check_consistency(self, emissions, posteriors):
        # only symbols of nonzero marginal constrain their posterior column, and
        # bayes_invert cannot fail on those; the prior and every emission row lie
        # on the simplex, so at least one symbol has a nonzero marginal
        reachable = self.prior.entries.dot(emissions) > 0.0
        expected = bayes_invert(self.prior.entries, emissions[:, reachable], self.alphabet.symbols)
        gap = float(np.abs(posteriors[:, reachable] - expected).max())
        if gap > EQUALITY_TOL:
            raise ValueError(
                f"posterior columns disagree with prior and emissions by {gap:.3e}"
            )


@dataclass(frozen=True, eq=False)
class PosteriorMarginals:
    """Per-position posterior over labels, conditioned on the whole sequence.

    ``log_evidence`` is the log of the sequence's total weight under the
    law whose factors produced ``gamma``, when the producer knows it.
    """

    gamma: np.ndarray
    log_evidence: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "gamma", parameter_array(
            self.gamma, "posterior marginals", (None, None), simplex_rows=True))

    @classmethod
    def _adopt(cls, gamma: np.ndarray, log_evidence: float) -> "PosteriorMarginals":
        # For a gamma that only the kernel holds: validated and frozen in
        # place, where the constructor would copy a caller's array first.
        check_simplex_rows(gamma, what="posterior marginals row")
        gamma.flags.writeable = False
        marginals = cls.__new__(cls)
        object.__setattr__(marginals, "gamma", gamma)
        object.__setattr__(marginals, "log_evidence", log_evidence)
        return marginals


# The blocked recursion replaces about 2T Python-level steps by about
# 5 sqrt(T) batched ones at N times the arithmetic, so it wins only where
# the per-step overhead outweighs the N^3 products.  Measured in process on
# a shared 2-vCPU x86-64 host (OpenBLAS, M=20), best of 15 alternating runs:
# at T=10^4 it took 13/20/32 ms against 118/100/118 ms for the plain loop
# at N=2/8/16, and 68/110 ms against 125/118 ms at N=24/32; at T=1024 and
# T=512 it won at every N up to 24 and roughly tied at N=32; at T=256 the
# gain was at most 1.4 ms.  Against the plain loop with its backward pass
# forked (best of 15 per run, four runs, in process, same host), at T=10^4
# it took 19.3-19.8 against 28.4-36.2 ms at N=17, 33.1-36.7 against
# 30.6-42.9 ms at N=24 and 52.7-73.5 against 32.1-53.0 ms at N=32 (the
# serial loop: 44-51 ms).  Moving the threshold would change the printed
# bytes at those N.
_BLOCKED_MAX_LABELS = 16
_BLOCKED_MIN_STEPS = 512

# A fork, its temporary file and the pages both processes then copy cost a
# few ms, so the plain loop forks its backward pass only on long inputs.
# Measured in fresh processes (one warm-up call, then one timed call; 12
# alternating processes per case, same host), serial against forked,
# minimum ms: at N=17, 4.5/6.2 at T=1024, 9.0/8.2 at 2048, 17.3/13.0 at
# 4096 and 45.1/28.8 at 10^4; at N=32, 4.9/6.4, 9.7/9.1, 20.8/15.3 and
# 51.3/32.5.  At 2048 the N=32 medians tied (10.9 against 11.2 ms), so
# 4096 is the shortest of those lengths that won at both N.
_FORKED_MIN_STEPS = 4096
_SPOOL_CHUNK_BYTES = 1 << 16  # read back at most this much of the child's file at once


def _smooth(init, transitions, log_factors, rows) -> PosteriorMarginals:
    """Scaled forward-backward with per-step factors ``exp(log_factors[rows[t]])``.

    ``init`` (N,) and ``transitions`` (N, N) are nonnegative weights,
    ``log_factors`` is (K, N) with entries in ``[-inf, inf)`` and ``rows``
    holds T >= 1 indices into it.  Each factor row is shifted by its own
    maximum ``peak[k]``, a constant that normalization cancels.  Forward
    step ``t`` stores ``alpha`` in ``gamma[t]`` and its total ``c_t =
    alpha.dot(ones)`` in ``scales``; each backward ``beta`` is multiplied into
    ``gamma[t]``, and the rows are normalized once, vectorized, at the end.
    A step divides its vector by its total, and only a zero total is
    replaced, so a zero vector stays zero, as does every later ``alpha`` or
    earlier ``beta``, and the rows of ``gamma`` it reaches are zero; every
    row total must be > 0, or :class:`ZeroEvidence` is raised.  That check is
    the kernel's only raise.

    Step 0, ``alpha = init * f_0``, is taken here for both recursions.  The
    rest is chosen from the input's size alone.  With at most
    ``_BLOCKED_MAX_LABELS`` labels and at least ``_BLOCKED_MIN_STEPS`` steps,
    :func:`_blocked_recursion` runs the steps in about ``sqrt(T)`` time
    blocks at once; otherwise :func:`_plain_recursion` runs them one by one,
    its backward pass in a forked child from ``_FORKED_MIN_STEPS`` steps on
    when the process may use two CPUs.  Where the backward pass runs does
    not change a byte of the result, and the child has exited before this
    function returns or raises.  Both store the same normalized ``alpha`` in
    ``gamma`` and the same ``c_t`` in ``scales``, up to rounding.

    ``log_evidence = sum_t log c_t + sum_t peak[rows[t]]`` is the log of the
    sequence's total weight under the unshifted factors; the forward totals
    share one length-T buffer with the row totals.
    """
    if len(rows) == 0:
        raise ValueError("need at least one observation")
    peak = log_factors.max(axis=1)
    peak[~np.isfinite(peak)] = 0.0  # a row of all -inf keeps all-zero factors
    factors = np.exp(log_factors - peak[:, None])  # factors[k] is row k

    gamma = np.empty((len(rows), len(init)))
    scales = np.empty(len(rows))
    ones = np.ones(len(init))
    alpha = init * factors[rows[0]]
    total = alpha.dot(ones) or 1.0
    gamma[0] = alpha / total
    scales[0] = total
    if len(init) <= _BLOCKED_MAX_LABELS and len(rows) >= _BLOCKED_MIN_STEPS:
        _blocked_recursion(transitions, factors, rows, gamma, scales)
    else:
        _plain_recursion(transitions, list(factors), rows, gamma, scales)

    log_evidence = float(np.log(scales).sum() + peak[rows].sum())
    totals = gamma.dot(ones, out=scales)  # the scales are spent; reuse their buffer
    if not np.all(totals > 0.0):
        raise ZeroEvidence(
            "zero evidence: the observation sequence has probability zero under the model")
    gamma /= totals[:, None]
    return PosteriorMarginals._adopt(gamma, log_evidence)


def _plain_recursion(transitions, factors, rows, gamma, scales):
    """One forward and one backward step per position after the first, on (N,) vectors.

    With at least ``_FORKED_MIN_STEPS`` steps and two usable CPUs the two
    passes run at once: a child forked by :func:`.core.forked_parts` runs the
    backward pass (:func:`_spool_betas`) while this process runs the forward
    one, and :func:`_multiply_spooled` then multiplies the child's betas into
    ``gamma``.  The child takes the same steps on the same inputs, and a
    product of whole chunks of rows is the same elementwise product as one
    row at a time, so ``gamma`` holds the serial loop's bytes.  With no
    child, a failed one or a short spool, the backward pass runs here.
    """
    if len(rows) >= _FORKED_MIN_STEPS and usable_cpus() >= 2:
        with forked_parts(partial(_spool_betas, transitions, factors), [rows]) as spools:
            _forward(transitions, factors, rows, gamma, scales)
            spool = next(spools)
            if spool is not None and _multiply_spooled(spool.buffer, gamma):
                return
    else:
        _forward(transitions, factors, rows, gamma, scales)
    for row, beta in zip(gamma[-2::-1], _betas(transitions, factors, rows)):
        row *= beta  # a view: multiplying it in place skips the write-back


def _forward(transitions, factors, rows, gamma, scales):
    """The forward pass: each normalized ``alpha`` into ``gamma``, its total into ``scales``."""
    ones = np.ones(len(transitions))
    alpha = gamma[0]
    for t in range(1, len(rows)):
        alpha = alpha.dot(transitions) * factors[rows[t]]
        total = alpha.dot(ones) or 1.0
        alpha /= total
        gamma[t] = alpha
        scales[t] = total


def _betas(transitions, factors, rows):
    """The backward pass: each normalized ``beta``, from position T - 2 down to 0."""
    ones = np.ones(len(transitions))
    beta = ones
    for t in range(len(rows) - 2, -1, -1):
        beta = transitions.dot(factors[rows[t + 1]] * beta)
        beta /= beta.dot(ones) or 1.0
        yield beta


def _spool_betas(transitions, factors, rows, spool):
    """A forked child's backward pass: each ``beta`` of :func:`_betas`, in its
    order, as raw float64 into the binary layer of the text file ``spool``."""
    write = spool.buffer.write
    for beta in _betas(transitions, factors, rows):
        write(beta)


def _multiply_spooled(spool, gamma) -> bool:
    """Multiply the T - 1 betas that :func:`_spool_betas` wrote into the
    binary file ``spool`` into the rows of ``gamma`` they belong to, reading
    at most ``_SPOOL_CHUNK_BYTES`` at a time, so that no second ``(T, N)``
    array exists.  Returns False, and touches nothing, when the file does not
    hold exactly T - 1 rows."""
    left, n = len(gamma) - 1, gamma.shape[1]
    if os.fstat(spool.fileno()).st_size != left * gamma[0].nbytes:
        return False
    chunk = np.empty((max(1, _SPOOL_CHUNK_BYTES // gamma[0].nbytes), n))
    while left:
        part = chunk[:min(len(chunk), left)]
        spool.readinto(part)
        gamma[left - len(part):left] *= part[::-1]  # the betas run from the last row back
        left -= len(part)
    return True


def _blocked_recursion(transitions, factors, rows, gamma, scales):
    """The steps ``1..T-1`` cut into B blocks of ``L = isqrt(T - 1)`` (the last
    one ragged), every block advanced at once by :func:`_sweep`.

    1. Transfer operators: each block's product ``M_b`` of ``A diag(f)``
       steps, swept for all blocks together from the identity on one
       ``(B, N, N)`` stack, with the log of every row's total kept.
    2. Boundaries: B sequential steps push the normalized ``alpha`` forward
       through the operators, ``alpha @ M_b``, to each block's start, and
       ``beta`` backward through the same ones, ``M_b @ beta``, to each
       block's end; both in log space, so that the row scales cannot
       underflow.  A step divides its vector by its total, and only a zero
       total is replaced, so a zero vector stays zero, and so do the rows of
       ``gamma`` that the sweeps run from it.
    3. One forward and one backward sweep of L steps run every block from
       its boundary on a ``(B, N)`` state, as :func:`_plain_recursion` runs
       the whole sequence: ``alpha`` and its totals are written into
       ``gamma`` and ``scales``, and ``beta`` is multiplied into ``gamma``,
       through strided row views.
    """
    n, span = len(transitions), isqrt(len(rows) - 1)
    blocks = -(-(len(rows) - 1) // span)
    ragged = len(rows) - 1 - (blocks - 1) * span  # steps in the last block
    steps = np.zeros((blocks, span), dtype=np.intp)  # steps[b, j] is position 1 + b*L + j
    steps.reshape(-1)[:len(rows) - 1] = rows[1:]
    active = np.full(span, blocks)  # active[j] blocks have a step j
    active[ragged:] -= 1

    # block b's operator maps the alpha at position b*L to the one at its
    # last position, and the beta there back to the one at b*L; the true
    # operator is exp(log_scale[b])[:, None] * ops[b].  Each block takes one
    # factor row per step, broadcast over its operator's rows
    ops = np.broadcast_to(np.eye(n), (blocks, n, n)).copy()
    log_scale = np.zeros((blocks, n))
    for _, part, totals in _sweep(ops, transitions, factors[:, None, :], steps.T, active):
        log_scale[:len(part)] += np.log(totals)
    starts = np.tile(gamma[0], (blocks, 1))  # starts[b] is the alpha at position b*L
    ends = np.ones((blocks, n))  # ends[b] is the beta at block b's last position
    for b in range(blocks - 1):
        out = _exp_shifted(safe_log(starts[b]) + log_scale[b]).dot(ops[b])
        starts[b + 1] = out / (out.sum() or 1.0)
    for b in range(blocks - 1, 0, -1):
        out = _exp_shifted(safe_log(ops[b].dot(ends[b])) + log_scale[b])
        ends[b - 1] = out / (out.sum() or 1.0)

    backward = np.ascontiguousarray(transitions.T)  # a product with a transposed view is slower
    for j, part, totals in _sweep(starts, transitions, factors, steps.T, active):
        gamma[1 + j::span] = part
        scales[1 + j::span] = totals
    for j, part, _ in _sweep(ends, backward, factors, steps.T[::-1], active[::-1], factor_first=True):
        rows_j = gamma[span - 1 - j::span][:len(part)]
        rows_j *= part


def _exp_shifted(weights):
    """``exp(weights - max(weights))``, or zeros where every weight is ``-inf``."""
    peak = weights.max()
    return np.exp(weights - peak) if isfinite(peak) else np.zeros_like(weights)


def _sweep(state, matrix, factors, steps, active, factor_first=False):
    """Advance the first ``active[j]`` blocks of ``state`` by one step for
    each row ``j`` of ``steps``, in place, yielding ``(j, part, totals)``.

    ``state`` is a ``(blocks, N)`` state or a ``(blocks, N, N)`` operator
    stack, and row ``j`` of ``steps`` holds each block's factor row at that
    step: ``factors[k]`` must broadcast against one block, so an operator
    stack takes ``factors[:, None, :]``.  Each step is ``(X @ M) * f``, or
    ``(X * f) @ M`` with ``factor_first``, one product on the flattened
    ``part = state[:active[j]]``.  A step divides its vector by its total,
    and only a zero total is replaced (by the smallest subnormal float, which
    no positive total is below), so a zero row (its start cannot reach the
    step) stays zero; ``totals`` holds the divisors.
    """
    n, floor = len(matrix), np.finfo(float).smallest_subnormal
    ones = np.ones(n)
    for j, (row, count) in enumerate(zip(steps, active)):
        part = state[:count]
        f = factors[row[:count]]
        flat = part.reshape(-1, n)
        if factor_first:
            np.dot((part * f).reshape(-1, n), matrix, out=flat)
        else:
            np.multiply(flat.dot(matrix).reshape(part.shape), f, out=part)
        totals = np.maximum(part.dot(ones), floor)
        part /= totals[..., None]
        yield j, part, totals


def forward_backward(model: HmmModel, observations) -> PosteriorMarginals:
    """Classic posterior marginals from prior, transitions and emissions.

    The per-step factor of symbol ``y`` is the emission column ``B[:, y]``,
    and ``log_evidence`` is ``log p(y_1..y_T)``.  Raises
    :class:`ZeroEvidence` when the sequence has probability zero.
    """
    if model.emissions is None:
        raise ValueError("forward_backward needs the emission matrix")
    rows = [model.alphabet.index(y) for y in observations]
    return _smooth(model.prior.entries, model.transitions, safe_log(model.emissions.T), rows)


def entropic_forward_backward(model: HmmModel, observations) -> PosteriorMarginals:
    """Posterior marginals from posterior columns alone.

    Uses only the prior, the transitions, and the stored per-symbol
    posterior columns: the per-step factor of symbol ``y`` is the ratio
    ``L[:, y] / prior``.  Neither the emission matrix nor any symbol
    marginal enters the recursion.  ``log_evidence`` is the log of the
    total path weight under these ratios; on derived columns it is
    ``log p(y_1..y_T) - sum_t log p(y_t)``.
    """
    if model.posteriors is None:
        raise MissingPosteriors("model has no posterior columns; derive or supply them")
    if np.any(model.prior.entries == 0.0):
        raise ZeroPrior("the entropic recursion needs a strictly positive prior")
    rows = [model.alphabet.index(y) for y in observations]
    log_ratio = safe_log(model.posteriors.T) - np.log(model.prior.entries)
    return _smooth(model.prior.entries, model.transitions, log_ratio, rows)


def derive_hmm_posteriors(model: HmmModel) -> HmmModel:
    """Fill the posterior columns by Bayes-inverting prior and emissions.

    ``L[y][i] = prior[i] * emissions[i, y] / marginal(y)`` with the symbol
    marginal taken under the model.  The result carries both
    parameterizations and satisfies the consistency invariant by
    construction.
    """
    if model.emissions is None:
        raise ValueError("deriving posteriors needs the emission matrix")
    if np.any(model.prior.entries == 0.0):
        raise ZeroPrior("Bayes inversion needs a strictly positive prior")
    return HmmModel(
        labels=model.labels,
        alphabet=model.alphabet,
        prior=model.prior,
        transitions=model.transitions,
        emissions=model.emissions,
        posteriors=bayes_invert(model.prior.entries, model.emissions, model.alphabet.symbols),
    )
