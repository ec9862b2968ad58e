"""Numeric foundations shared by every inference module.

Everything downstream computes posteriors as "accumulate weights, then
normalize".  This module owns the two conventions that make that safe:

* weight accumulation happens in log space, with ``-inf`` as the canonical
  log of a zero weight (never NaN, never a signed zero sentinel);
  :func:`log_softmax_last` normalizes such rows in every batch kernel,
  and :func:`normalize_log` turns one vector into probabilities through
  it, raising :class:`AllZeroWeights` when every weight is zero;
* probabilities only appear at API boundaries, as validated
  :class:`ProbabilityVector` values.

The tolerance constants used throughout the package are declared here once
and imported everywhere else.
"""

from __future__ import annotations

import os
import tempfile
import warnings
from contextlib import ExitStack, contextmanager, suppress
from dataclasses import dataclass
from functools import cache

import numpy as np

#: Maximum deviation of a probability vector's sum from 1.
SIMPLEX_TOL = 1e-12

# No entry of a nonnegative vector that passes the sum test exceeds this.
_ENTRY_MAX = 1.0 + SIMPLEX_TOL

# The simplex checks run thousands of times per `verify`; calling the ufunc
# reductions directly skips the Python wrapper behind ndarray.min/max/sum.
_min, _max, _sum = np.minimum.reduce, np.maximum.reduce, np.add.reduce

#: Tolerance for agreement between two algorithms computing the same posterior.
EQUALITY_TOL = 1e-10


class DualBayesError(Exception):
    """Base class for all errors raised by this package."""


class AllZeroWeights(DualBayesError):
    """Every weight is zero, so there is nothing to normalize."""


class ZeroEvidence(DualBayesError):
    """The observed data has probability zero under the model."""


class ZeroPrior(DualBayesError):
    """An operation requiring a strictly positive prior got a zero entry."""


class ZeroMarginal(DualBayesError):
    """A symbol has zero probability under every label."""


class EmptyDataset(DualBayesError):
    """A fit or loss was requested on an empty dataset."""


class LengthMismatch(DualBayesError):
    """An observation sequence has the wrong number of positions."""


class UnknownSymbol(DualBayesError):
    """A label or observation symbol is not part of the declared space."""


class DimensionMismatch(DualBayesError):
    """A real-valued observation vector has the wrong dimension."""


class MissingPosteriors(DualBayesError):
    """The model carries no per-observation posterior columns."""


class DivergedLoss(DualBayesError):
    """Training produced a non-finite loss."""


class StateSpaceTooLarge(DualBayesError):
    """Brute-force enumeration over all label paths was refused."""


def safe_log(values) -> np.ndarray:
    """Elementwise log with 0 mapped to ``-inf`` and no runtime warning."""
    with np.errstate(divide="ignore"):
        return np.log(values)


def is_integer(value) -> bool:
    """Whether ``value`` is a Python or numpy integer; a bool is not a count."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def is_real(value) -> bool:
    """Whether ``value`` is a Python or numpy integer or float; a bool is not a number."""
    return (isinstance(value, (int, float, np.integer, np.floating))
            and not isinstance(value, bool))


def _holds_str_or_bool(values) -> bool:
    """Whether ``values`` or any entry of its nested lists is a string or a
    boolean, which ``np.array(values, dtype=float)`` would turn into a number."""
    if isinstance(values, np.ndarray):
        return values.dtype.kind in "bSU" or (
            values.dtype.kind == "O" and _holds_str_or_bool(values.tolist()))
    if isinstance(values, (list, tuple)):
        # a list of plain numbers, every row of a list batch, takes no call per entry
        return not set(map(type, values)) <= {float, int} and any(map(_holds_str_or_bool, values))
    return isinstance(values, (str, bytes, bool, np.bool_))


def _float_array(values) -> np.ndarray | None:
    """``values`` copied into a float array, or ``None`` when it is not an
    array of numbers: a dict, a ragged list, a string or a boolean."""
    if _holds_str_or_bool(values):
        return None
    try:
        return np.array(values, dtype=float)
    except (TypeError, ValueError):
        return None


def parameter_array(values, what: str, shape: tuple, simplex_rows: bool = False) -> np.ndarray:
    """Copy ``values`` into a checked float array of exactly ``shape`` that rejects writes.

    ``None`` in ``shape`` allows any size of at least 1 (shown as ``T`` in
    the error).  The entries must be finite, or with ``simplex_rows`` every
    row must pass :func:`check_simplex_rows`.  Every error is a
    ``ValueError`` that starts with ``what``.
    """
    arr = _float_array(values)
    if arr is None:
        raise ValueError(f"{what} must be an array of numbers")
    # the tuple comparison settles a matching shape without the per-axis loop
    if arr.shape != shape and (arr.ndim != len(shape) or any(
            size < 1 if want is None else size != want for size, want in zip(arr.shape, shape))):
        sizes = ["T" if want is None else str(want) for want in shape]
        expected = f"({', '.join(sizes)}{',' if len(sizes) == 1 else ''})"
        raise ValueError(f"{what} must have shape {expected}, got {arr.shape}")
    if simplex_rows:
        check_simplex_rows(arr, what=f"{what} row")
    elif not np.isfinite(arr).all():
        raise ValueError(f"{what} must be finite")
    arr.flags.writeable = False
    return arr


def bayes_invert(prior: np.ndarray, emissions: np.ndarray, symbols, where: str = "") -> np.ndarray:
    """Bayes inversion: columns ``prior * emissions[:, y] / p(y)`` on the simplex, shape ``(N, M)``.

    Raises :class:`ZeroMarginal` naming ``symbols[y]`` and ``where``.
    """
    joint = prior[:, None] * emissions
    marginal = joint.sum(axis=0)
    bad = np.flatnonzero(marginal <= 0.0)
    if bad.size:
        raise ZeroMarginal(
            f"symbol {symbols[int(bad[0])]!r}{where} has zero probability under every label"
        )
    return joint / marginal


def check_simplex_rows(rows: np.ndarray, what: str = "row") -> None:
    """Check with a min and a max over the whole array, and the largest
    deviation of a row sum from 1, that every row of a 2-D array is a
    probability vector: finite, nonnegative, summing to 1 within
    ``SIMPLEX_TOL``.

    The error names the first failing row (``"{what} {index}: ..."``) with
    the reason :class:`ProbabilityVector` gives for it; no vector is built
    for a valid row.
    """
    # the test of ProbabilityVector, by the same direct ufunc reductions;
    # ``initial`` keeps empty shapes reducible
    if not (_min(rows, axis=None, initial=np.inf) >= 0.0
            and _max(rows, axis=None, initial=-np.inf) <= _ENTRY_MAX
            and _max(np.abs(_sum(rows, axis=1) - 1.0), initial=0.0) <= SIMPLEX_TOL):
        # rows outside [0, _ENTRY_MAX] are zeroed before the sum, which cannot warn
        bounded = ((rows.min(axis=1, initial=np.inf) >= 0.0)
                   & (rows.max(axis=1, initial=-np.inf) <= _ENTRY_MAX))
        sums = np.where(bounded[:, None], rows, 0.0).sum(axis=1)
        row = int((bounded & (np.abs(sums - 1.0) <= SIMPLEX_TOL)).argmin())
        try:
            ProbabilityVector(rows[row])
        except ValueError as exc:
            raise ValueError(f"{what} {row}: {exc}") from None


def real_observations(observations, t_len: int) -> np.ndarray:
    """A batch of real-valued observations as a finite ``(S, t_len)`` float array.

    A float array is returned without a copy; strings and booleans raise
    ``ValueError``.  A batch that does not form one array is checked row by
    row, so that the error names the first row that is not ``t_len`` numbers.
    """
    if _holds_str_or_bool(observations):
        raise ValueError("observation coordinates must be numbers, not strings or booleans")
    try:
        obs = np.asarray(observations, dtype=float)
    except ValueError:  # ragged rows
        obs = None
    if obs is None or obs.ndim != 2 or obs.shape[1] != t_len:
        for observation in observations if obs is None else np.atleast_1d(obs):
            if np.shape(observation) != (t_len,):
                raise DimensionMismatch(f"observation must have {t_len} coordinates, "
                                        f"got shape {np.shape(observation)}")
        raise DimensionMismatch(
            f"observations must have shape (S, {t_len}), got {obs.shape}"
        )
    if not np.all(np.isfinite(obs)):
        raise ValueError("observation coordinates must be finite")
    return obs


@dataclass(frozen=True)
class LabelSpace:
    """Ordered, finite set of at least two distinct label names."""

    names: tuple[str, ...]

    def __post_init__(self):
        names = tuple(self.names)
        if len(names) < 2:
            raise ValueError("a label space needs at least two labels")
        if len(set(names)) != len(names):
            raise ValueError("label names must be distinct")
        object.__setattr__(self, "names", names)

    @property
    def n(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise UnknownSymbol(f"unknown label {name!r}") from None


@dataclass(frozen=True)
class ObservationAlphabet:
    """Ordered, finite set of observation symbols for one position.

    ``code_of`` maps each symbol to its index; it is built once here, so
    encoding a symbol is one dict lookup rather than a scan.
    """

    symbols: tuple[str, ...]

    def __post_init__(self):
        symbols = tuple(self.symbols)
        if not symbols:
            raise ValueError("an alphabet needs at least one symbol")
        code_of = {symbol: k for k, symbol in enumerate(symbols)}
        if len(code_of) != len(symbols):
            raise ValueError("alphabet symbols must be distinct")
        object.__setattr__(self, "symbols", symbols)
        object.__setattr__(self, "code_of", code_of)

    @property
    def m(self) -> int:
        return len(self.symbols)

    def index(self, symbol: str) -> int:
        try:
            return self.code_of[symbol]
        except (KeyError, TypeError):
            raise UnknownSymbol(f"unknown symbol {symbol!r}") from None


@dataclass(frozen=True, eq=False)
class ProbabilityVector:
    """A point on the probability simplex.

    Construction validates rather than repairs: entries must already be
    nonnegative and sum to 1 within ``SIMPLEX_TOL``.
    """

    entries: np.ndarray

    def __post_init__(self):
        arr = _float_array(self.entries)
        if arr is None:
            raise ValueError("entries must be an array of numbers")
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("entries must form a nonempty vector")
        # Three reductions accept exactly the finite, nonnegative vectors that
        # sum to 1: NaN and -inf fail the min test, +inf and any entry too
        # large for such a vector fail the max test, so the sum runs only on
        # entries in [0, _ENTRY_MAX] and can neither overflow nor meet
        # inf - inf.  Only a rejected vector is itemised.
        if not (_min(arr) >= 0.0 and _max(arr) <= _ENTRY_MAX
                and abs(_sum(arr) - 1.0) <= SIMPLEX_TOL):
            if not np.all(np.isfinite(arr)):
                raise ValueError("entries must be finite")
            if np.any(arr < 0.0):
                raise ValueError("entries must be nonnegative")
            with np.errstate(over="ignore"):  # finite entries can sum to inf
                total = float(arr.sum())
            raise ValueError(f"entries sum to {total!r}, not 1")
        arr.flags.writeable = False
        object.__setattr__(self, "entries", arr)

    @classmethod
    def uniform(cls, n: int) -> "ProbabilityVector":
        return cls(np.full(n, 1.0 / n))

    def __len__(self) -> int:
        return self.entries.size

    def __getitem__(self, index):
        return self.entries[index]


def as_probability_vector(values, n: int | None = None) -> ProbabilityVector:
    """A model's prior ``values`` as a :class:`ProbabilityVector` of ``n``
    entries (of any length when ``n`` is None).  Off the simplex, it raises a
    ``ValueError`` that starts with ``prior: ``; of another length, one that
    names both lengths."""
    if not isinstance(values, ProbabilityVector):
        try:
            values = ProbabilityVector(values)
        except ValueError as error:
            raise ValueError(f"prior: {error}") from None
    if n is not None and len(values) != n:
        raise ValueError(f"prior has {len(values)} entries, expected {n} (one per label)")
    return values


def log_softmax_last(arr: np.ndarray) -> np.ndarray:
    """Shift each slice of ``arr`` along the last axis by its maximum, then
    by the log of its summed exponentials, in place, and return ``arr``.

    ``arr`` is a float array the caller owns, each slice with a finite entry.
    """
    arr -= arr.max(axis=-1, keepdims=True)
    arr -= np.log(np.exp(arr).sum(axis=-1, keepdims=True))
    return arr


def normalize_log(weights) -> ProbabilityVector:
    """Normalize log-domain weights into a probability vector.

    ``weights`` is a nonempty vector of numbers in ``[-inf, +inf)``, where
    ``-inf`` marks a zero weight; strings, booleans, NaN or ``+inf`` raise
    ``ValueError`` and an all-``-inf`` vector raises :class:`AllZeroWeights`.
    The output is ``exp(log_softmax_last(weights))`` on a copy, which is
    invariant under adding a constant to every entry.
    """
    arr = _float_array(weights)
    if arr is None:
        raise ValueError("log weights must be an array of numbers")
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("log weights must form a nonempty vector")
    if np.any(np.isnan(arr)) or np.any(arr == np.inf):
        raise ValueError("log weights must lie in [-inf, +inf)")
    if not np.any(np.isfinite(arr)):
        raise AllZeroWeights("every weight is zero")
    return ProbabilityVector(np.exp(log_softmax_last(arr)))


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where there is one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@contextmanager
def forked_parts(write, parts):
    """Run ``write(part, file)`` for every part of the sequence ``parts`` at
    once, each in a forked child of its own that writes into a temporary
    file of its own.

    The file is a text file (UTF-8, ``newline=""``); a child that writes
    raw bytes writes them to its binary layer, ``file.buffer``, which the
    caller reads back the same way.  Child ``k`` is moved to the
    ``k + 1``-th usable CPU after the one this process runs on (cyclically,
    see :func:`_placements`), because a forked child starts on its parent's
    CPU and a kernel that does not balance load across its CPUs leaves it
    there.

    Yields an iterator over the parts' files, in order: each file is read
    from its start once its child has exited 0; ``None`` stands for a part
    whose file or child could not be made, or whose child failed, and which
    the caller then does itself.  Every file is closed and every child
    reaped on every way out.
    """
    with ExitStack() as stack:
        reap = cache(lambda pid: os.waitpid(pid, 0)[1])  # the wait status, once per child
        children = ([_fork(stack, reap, write, part, cpu)
                     for part, cpu in zip(parts, _placements(len(parts)))]
                    if hasattr(os, "fork") else [(None, None)] * len(parts))

        def finished(pid, spool):
            if pid is not None and reap(pid) == 0:
                spool.seek(0)
                return spool
            return None

        yield (finished(pid, spool) for pid, spool in children)


def _placements(count: int) -> list:
    """The CPU of each of ``count`` children: the usable CPUs in order,
    cyclically, from the one after the CPU this process last ran on; all
    None where the CPU or the affinity cannot be read."""
    if count == 0:
        return []
    try:
        cpus = sorted(os.sched_getaffinity(0))
        with open("/proc/self/stat", "rb") as stat:  # field 39 is the CPU
            here = cpus.index(int(stat.read().rsplit(b")", 1)[1].split()[36]))
    except (AttributeError, OSError, ValueError, IndexError):
        return [None] * count
    return [cpus[(here + 1 + k) % len(cpus)] for k in range(count)]


def _fork(stack: ExitStack, reap, write, part, cpu):
    """``(pid, file)`` of a forked child that runs ``write(part, file)`` on
    ``cpu`` (anywhere when None), or ``(None, None)`` when no file or no
    child could be made."""
    try:
        spool = stack.enter_context(tempfile.TemporaryFile("w+", encoding="utf-8", newline=""))
        with warnings.catch_warnings():
            # Python 3.12+ warns when a process with threads forks.  The only
            # threads this package runs are those of the OpenBLAS that numpy
            # bundles, which registers a pthread_atfork handler that shuts
            # them down before each fork: no lock is held across the fork, and
            # a child may call BLAS, as verify's children do (the table
            # formatters' do not).  The child leaves by os._exit, so it never
            # runs this interpreter's shutdown.
            warnings.filterwarnings("ignore", r".*use of fork\(\) may lead to deadlocks",
                                    DeprecationWarning)
            pid = os.fork()
    except OSError:
        return None, None
    if pid == 0:
        code = 1
        try:
            write(part, spool)
            spool.flush()
            code = 0
        finally:
            os._exit(code)
    stack.callback(reap, pid)
    if cpu is not None:
        # moved from here, before it first runs: on its parent's CPU it would
        # wait for this process to be preempted, a few ms, to move itself
        with suppress(OSError):  # it then runs wherever the kernel puts it
            os.sched_setaffinity(pid, {cpu})
    return pid, spool
