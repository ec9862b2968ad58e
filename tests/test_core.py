"""Foundational numerics: log-sum-exp, log-domain normalization, and the
validated simplex / label-space types."""

import ast
import decimal
import math
import os
import re
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import dualbayes
from dualbayes.core import (
    AllZeroWeights,
    DimensionMismatch,
    LabelSpace,
    ObservationAlphabet,
    ProbabilityVector,
    SIMPLEX_TOL,
    UnknownSymbol,
    _placements,
    check_simplex_rows,
    forked_parts,
    log_softmax_last,
    normalize_log,
    parameter_array,
    real_observations,
    usable_cpus,
)
from dualbayes.hmm import HmmModel, PosteriorMarginals, forward_backward
from dualbayes.logreg import LogisticRegressionModel
from dualbayes.naive_bayes import (
    DiscriminativeNBModel,
    NaiveBayesModel,
    disc_nb_posterior,
    nb_generative_posterior,
)
from dualbayes.verify import run_all_suites

from helpers import NON_NUMERIC_ROWS, assert_no_child_left

finite_vectors = st.lists(
    st.floats(min_value=-100.0, max_value=100.0), min_size=1, max_size=8
)


class TestLogSumExp:
    """``log_softmax_last``, which subtracts each row's log-sum-exp in place:
    the one row normalizer under every batch kernel."""

    def test_two_equal_entries(self):
        out = log_softmax_last(np.array([0.0, 0.0]))
        np.testing.assert_array_equal(out, [-math.log(2.0), -math.log(2.0)])

    def test_minus_inf_is_absorbing(self):
        np.testing.assert_array_equal(log_softmax_last(np.array([-np.inf, 0.0])), [-np.inf, 0.0])

    def test_matches_direct_sum_at_moderate_magnitudes(self):
        values = [3.0, 4.0, 5.0]
        direct = math.log(sum(math.exp(v) for v in values))
        np.testing.assert_allclose(log_softmax_last(np.array(values)),
                                   [v - direct for v in values], rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("peak", [0.0, -5.0, 100.0, -250.0])
    def test_dominant_entry_wins_beyond_forty_nats(self, peak):
        np.testing.assert_array_equal(log_softmax_last(np.array([peak, peak - 41.0])), [0.0, -41.0])

    @given(finite_vectors, st.floats(min_value=-100.0, max_value=100.0))
    def test_shift_invariance(self, values, shift):
        arr = np.array(values)
        lhs = log_softmax_last(arr + shift)
        rhs = log_softmax_last(arr.copy())
        assert abs(lhs - rhs).max() <= 1e-12

    def test_rows_are_reduced_independently_keeping_dims(self):
        rows = np.array([[0.0, 0.0], [-np.inf, 3.0], [100.0, 59.0]])
        out = log_softmax_last(rows.copy())
        assert out.shape == (3, 2)
        for row, values in zip(rows, out):
            np.testing.assert_array_equal(values, log_softmax_last(row.copy()))

    def test_normalizes_in_place_and_returns_its_argument(self):
        rows = np.array([[1.0, 2.0, 3.0], [0.0, -np.inf, 5.0]])
        expected = log_softmax_last(rows.copy())
        assert log_softmax_last(rows) is rows
        np.testing.assert_array_equal(rows, expected)
        # the trainer normalizes the (S, N) transposed view of label-major logits
        label_major = np.array([[1.0, 0.0], [2.0, -np.inf], [3.0, 5.0]])
        log_softmax_last(label_major.T)
        np.testing.assert_array_equal(label_major.T, expected)

    @pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 32])
    def test_matches_fifty_digit_reference_far_from_zero(self, n):
        # rows offset by up to +-700, next to exp's overflow limit; numpy sums
        # fewer than 8 entries in order and 8 or more pairwise
        rng = np.random.default_rng(700 + n)
        offsets = rng.uniform(-700.0, 700.0, size=(16, 1))
        rows = offsets + rng.uniform(-30.0, 30.0, size=(16, n))
        got = np.exp(log_softmax_last(rows.copy()))
        with decimal.localcontext() as context:
            context.prec = 50
            for row, values in zip(got, rows.tolist()):
                exps = [decimal.Decimal(v).exp() for v in values]
                total = sum(exps)
                np.testing.assert_allclose(row, [float(e / total) for e in exps],
                                           rtol=0.0, atol=1e-15)


class TestNormalizeLog:
    def test_leaves_its_input_array_unchanged(self):
        # the normalizer works in place, so normalize_log must copy
        weights = np.array([1.0, 2.0, -np.inf])
        normalize_log(weights)
        np.testing.assert_array_equal(weights, [1.0, 2.0, -np.inf])

    def test_equal_weights(self):
        out = normalize_log([0.0, 0.0])
        np.testing.assert_allclose(out.entries, [0.5, 0.5], atol=1e-15)

    def test_one_to_three_ratio(self):
        out = normalize_log([math.log(1.0), math.log(3.0)])
        np.testing.assert_allclose(out.entries, [0.25, 0.75], atol=1e-14)

    def test_large_negative_inputs_match_shifted_direct_normalization(self):
        # the same weights shifted into plain-arithmetic range
        direct = np.exp([0.0, -1.0, -2.0])
        direct = direct / direct.sum()
        out = normalize_log([-1000.0, -1001.0, -1002.0])
        np.testing.assert_allclose(out.entries, direct, rtol=1e-12)

    def test_zero_weights_drop_out(self):
        out = normalize_log([0.0, -np.inf])
        np.testing.assert_allclose(out.entries, [1.0, 0.0], atol=0)

    def test_all_zero_weights_raise(self):
        with pytest.raises(AllZeroWeights):
            normalize_log([-np.inf, -np.inf, -np.inf])

    @pytest.mark.parametrize("weights", [[[0.0, 1.0]], []], ids=["2-D", "empty"])
    def test_weights_must_form_a_nonempty_vector(self, weights):
        with pytest.raises(ValueError, match="^log weights must form a nonempty vector$"):
            normalize_log(weights)

    def test_output_is_probability_vector(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            out = normalize_log(rng.uniform(-50, 50, size=rng.integers(1, 9)))
            assert abs(out.entries.sum() - 1.0) <= SIMPLEX_TOL
            assert np.all(out.entries >= 0.0)

    @given(finite_vectors, st.floats(min_value=-100.0, max_value=100.0))
    def test_shift_invariance(self, values, shift):
        arr = np.array(values)
        np.testing.assert_allclose(
            normalize_log(arr + shift).entries,
            normalize_log(arr).entries,
            atol=1e-12,
        )


class TestProbabilityVector:
    def test_accepts_valid(self):
        vec = ProbabilityVector([0.25, 0.75])
        assert len(vec) == 2
        assert vec[1] == 0.75

    def test_uniform(self):
        for n in range(2, 11):
            vec = ProbabilityVector.uniform(n)
            assert abs(vec.entries.sum() - 1.0) <= SIMPLEX_TOL

    def test_rejects_bad_sum_and_does_not_renormalize(self):
        with pytest.raises(ValueError, match="sum"):
            ProbabilityVector([0.5, 0.5 + 5e-12])
        with pytest.raises(ValueError):
            ProbabilityVector([0.3, 0.3])

    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError, match="nonnegative"):
            ProbabilityVector([1.0 + 1e-15, -1e-15])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            ProbabilityVector([np.nan, 1.0])
        with pytest.raises(ValueError):
            ProbabilityVector([np.inf, -np.inf])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ProbabilityVector([])

    def test_entries_are_read_only(self):
        vec = ProbabilityVector([0.5, 0.5])
        with pytest.raises(ValueError):
            vec.entries[0] = 1.0


class TestCheckSimplexRows:
    def test_accepts_valid_rows(self):
        check_simplex_rows(np.array([[0.25, 0.75], [1.0, 0.0], [0.5, 0.5]]))

    def test_names_the_first_bad_row_and_the_reason(self):
        rows = np.array([[0.5, 0.5], [0.5, 0.5 + 5e-12], [np.nan, 1.0]])
        with pytest.raises(ValueError, match=r"^row 1: entries sum to"):
            check_simplex_rows(rows)
        with pytest.raises(ValueError, match=r"^row 2: entries must be finite"):
            check_simplex_rows(rows[[0, 2]].repeat([2, 1], axis=0))
        with pytest.raises(ValueError, match=r"^row 0: entries must be nonnegative"):
            check_simplex_rows(np.array([[1.0 + 1e-15, -1e-15]]))


# bad rows and the reason both ProbabilityVector and check_simplex_rows give
_BAD_ROWS = [
    pytest.param([np.nan, 1.0], "entries must be finite", id="nan"),
    pytest.param([np.inf, 0.0], "entries must be finite", id="plus-inf"),
    pytest.param([-np.inf, 1.0], "entries must be finite", id="minus-inf"),
    pytest.param([np.inf, -np.inf], "entries must be finite", id="plus-and-minus-inf"),
    pytest.param([1.0 + 1e-15, -1e-15], "entries must be nonnegative", id="tiny-negative"),
    pytest.param([0.5, 0.5 + 5e-12], "entries sum to 1.000000000005, not 1", id="sum-off"),
    pytest.param([0.0, 0.5], "entries sum to 0.5, not 1", id="half"),
    pytest.param([1e308, 1e308], "entries sum to inf, not 1", id="sum-overflows"),
]


class TestSimplexAcceptance:
    """The min-and-sum test accepts exactly what the itemised checks accept."""

    # runs under the suite's error::RuntimeWarning filter: no row may warn
    @pytest.mark.parametrize("row, reason", _BAD_ROWS)
    def test_vector_and_rows_give_the_same_reason(self, row, reason):
        with pytest.raises(ValueError, match=f"^{re.escape(reason)}$"):
            ProbabilityVector(row)
        rows = np.array([[0.5, 0.5], [1.0, 0.0], row, [np.nan, np.nan]])
        with pytest.raises(ValueError, match=f"^row 2: {re.escape(reason)}$"):
            check_simplex_rows(rows)

    def test_exact_zeros_and_empty_batches_are_accepted(self):
        assert ProbabilityVector([0.0, 1.0, 0.0])[1] == 1.0
        check_simplex_rows(np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.5, 0.0, 0.5]]))
        check_simplex_rows(np.zeros((0, 3)))

    def test_rows_without_entries_are_rejected(self):
        with pytest.raises(ValueError, match="^row 0: entries must form a nonempty vector$"):
            check_simplex_rows(np.zeros((2, 0)))


_LABELS = LabelSpace(("a", "b"))
_ALPHABETS = (ObservationAlphabet(("x", "y")), ObservationAlphabet(("u", "v", "w")))
_PRIOR = ProbabilityVector([0.4, 0.6])
_TABLES = ([[0.5, 0.5], [0.2, 0.8]], [[0.2, 0.3, 0.5], [0.1, 0.1, 0.8]])
_REAL = [[1.0, 2.0], [0.5, -1.0]]
_STEP = [[0.9, 0.1], [0.2, 0.8]]

# every parameter_array call of a constructor: the field as errors name it, a
# constructor of that field's value, a valid value, and whether rows are distributions
_CALL_SITES = [
    ("emission table 0", lambda v: NaiveBayesModel(_LABELS, _ALPHABETS, _PRIOR, (v, _TABLES[1])),
     _TABLES[0], True),
    ("emission table 1", lambda v: NaiveBayesModel(_LABELS, _ALPHABETS, _PRIOR, (_TABLES[0], v)),
     _TABLES[1], True),
    ("slopes", lambda v: DiscriminativeNBModel(_LABELS, _PRIOR, v, _REAL), _REAL, False),
    ("intercepts", lambda v: DiscriminativeNBModel(_LABELS, _PRIOR, _REAL, v), _REAL, False),
    ("weights", lambda v: LogisticRegressionModel(_LABELS, v, [0.1, 0.2]), _REAL, False),
    ("biases", lambda v: LogisticRegressionModel(_LABELS, _REAL, v), [0.1, 0.2], False),
    ("transition matrix", lambda v: HmmModel(_LABELS, _ALPHABETS[0], _PRIOR, v, emissions=_STEP),
     _STEP, True),
    ("emission matrix", lambda v: HmmModel(_LABELS, _ALPHABETS[0], _PRIOR, _STEP, emissions=v),
     _STEP, True),
    ("posterior matrix", lambda v: HmmModel(_LABELS, _ALPHABETS[0], _PRIOR, _STEP, posteriors=v),
     [[0.5, 0.4], [0.5, 0.6]], False),
    ("posterior marginals", PosteriorMarginals, _STEP, True),
]


def _with_nan(valid):
    arr = np.array(valid, dtype=float)
    arr.flat[0] = np.nan
    return arr


def _with_first_entry(valid, entry):
    # nested lists with the first number replaced by ``entry(number)``
    out = np.array(valid, dtype=float).tolist()
    row = out
    while isinstance(row[0], list):
        row = row[0]
    row[0] = entry(row[0])
    return out


class TestParameterArray:
    """One check for every parameter table: numbers, exact shape, then finite or simplex rows."""

    @pytest.mark.parametrize("bad", ["dict", "ragged", "shape", "nan", "string", "bool"])
    @pytest.mark.parametrize("what, build, valid, simplex", _CALL_SITES,
                             ids=[site[0].replace(" ", "-") for site in _CALL_SITES])
    def test_every_call_site_names_its_field(self, what, build, valid, simplex, bad):
        build(valid)
        value, message = {
            "dict": ({"a": 1}, f"{what} must be an array of numbers$"),
            "ragged": ([[0.5, 0.5], [1.0]], f"{what} must be an array of numbers$"),
            # no entries along the last axis, which even a free size rejects
            "shape": (np.asarray(valid)[..., :0], f"{what} must have shape \\(.*\\), got "),
            "nan": (_with_nan(valid),
                    f"{what} row 0: entries must be finite$" if simplex else f"{what} must be finite$"),
            # each of which np.array(..., dtype=float) would convert
            "string": (_with_first_entry(valid, repr), f"{what} must be an array of numbers$"),
            "bool": (_with_first_entry(valid, lambda _: True), f"{what} must be an array of numbers$"),
        }[bad]
        with pytest.raises(ValueError, match=f"^{message}"):
            build(value)

    def test_returns_a_frozen_float_copy(self):
        caller = [[1, 2], [3, 4]]
        arr = parameter_array(caller, "weights", (2, None))
        assert arr.dtype == float and not arr.flags.writeable
        np.testing.assert_array_equal(arr, caller)

    def test_free_size_is_shown_as_t_and_needs_one_entry(self):
        assert parameter_array([[1.0] * 5] * 3, "weights", (3, None)).shape == (3, 5)
        with pytest.raises(ValueError, match=r"^weights must have shape \(3, T\), got \(1, 3\)$"):
            parameter_array([[1.0, 2.0, 3.0]], "weights", (3, None))
        with pytest.raises(ValueError, match=r"^biases must have shape \(2,\), got \(\)$"):
            parameter_array(5, "biases", (2,))
        with pytest.raises(ValueError, match=r"^weights must have shape \(3, T\), got \(3, 0\)$"):
            parameter_array(np.zeros((3, 0)), "weights", (3, None))

    def test_posterior_matrix_columns_are_distributions(self):
        with pytest.raises(ValueError, match=r"^posterior column 1: entries sum to 1.1, not 1$"):
            HmmModel(_LABELS, _ALPHABETS[0], _PRIOR, _STEP, posteriors=[[0.5, 0.6], [0.5, 0.5]])

    def test_probability_vector_names_a_non_numeric_value(self):
        for value in ({"a": 1}, [[0.5], [0.25, 0.25]], "abc", ["0.5", "0.5"], [0.5, "0.5"],
                      [True, False], [True, 0.0], np.array([True, False]), "1.0"):
            with pytest.raises(ValueError, match="^entries must be an array of numbers$"):
                ProbabilityVector(value)


# every model with a prior: a constructor from the prior, and its posteriors
_PRIOR_MODELS = {
    "naive_bayes": (lambda prior: NaiveBayesModel(_LABELS, _ALPHABETS, prior, _TABLES),
                    lambda model: nb_generative_posterior(model, ["y", "w"]).entries),
    "disc_nb": (lambda prior: DiscriminativeNBModel(_LABELS, prior, _REAL, _REAL),
                lambda model: disc_nb_posterior(model, [0.3, -1.2]).entries),
    "hmm": (lambda prior: HmmModel(_LABELS, _ALPHABETS[0], prior, _STEP, emissions=_STEP),
            lambda model: forward_backward(model, ["x", "y", "y"]).gamma),
}


class TestModelPrior:
    """A model converts a prior given as a plain list when it is built."""

    @pytest.mark.parametrize("kind", sorted(_PRIOR_MODELS))
    def test_list_prior_gives_the_same_posteriors(self, kind):
        build, posteriors = _PRIOR_MODELS[kind]
        model = build([0.4, 0.6])
        assert isinstance(model.prior, ProbabilityVector)
        np.testing.assert_array_equal(posteriors(model), posteriors(build(_PRIOR)))

    @pytest.mark.parametrize("kind", sorted(_PRIOR_MODELS))
    def test_prior_off_the_simplex_is_rejected_when_built(self, kind):
        build, _ = _PRIOR_MODELS[kind]
        with pytest.raises(ValueError, match="^prior: entries sum to 1.8, not 1$"):
            build([0.9, 0.9])


class TestLogWeightVector:
    """The checks :func:`normalize_log` makes on a vector of log weights."""

    def test_accepts_partial_minus_inf(self):
        out = normalize_log([-np.inf, 0.0, -3.0])
        assert len(out) == 3

    def test_rejects_plus_inf_and_nan(self):
        with pytest.raises(ValueError):
            normalize_log([np.inf, 0.0])
        with pytest.raises(ValueError):
            normalize_log([np.nan])

    def test_all_minus_inf_raises_all_zero_weights(self):
        with pytest.raises(AllZeroWeights):
            normalize_log([-np.inf, -np.inf])

    @pytest.mark.parametrize("weights", [["0", "1"], [True, False], np.array([True, False])],
                             ids=["strings", "booleans", "boolean-array"])
    def test_rejects_strings_and_booleans(self, weights):
        # float conversion would read them as numbers
        with pytest.raises(ValueError, match="^log weights must be an array of numbers$"):
            normalize_log(weights)


class TestRealObservations:
    # the one check of real-valued rows behind the loss, the trainer and
    # every real-valued posterior
    def test_a_float_array_is_returned_without_a_copy(self):
        obs = np.arange(6.0).reshape(3, 2)
        assert real_observations(obs, 2) is obs
        lists = real_observations([[1, 2], [3, 4]], 2)
        assert lists.dtype == np.float64 and lists.shape == (2, 2)

    @pytest.mark.parametrize("row", NON_NUMERIC_ROWS.values(), ids=NON_NUMERIC_ROWS.keys())
    def test_strings_and_booleans_are_not_numbers(self, row):
        with pytest.raises(ValueError, match="^observation coordinates must be numbers"):
            real_observations([[1.0, 2.0], row], 2)

    def test_ragged_rows_name_the_first_bad_row(self):
        with pytest.raises(DimensionMismatch, match=r"got shape \(3,\)$"):
            real_observations([[1.0, 2.0], [1.0, 2.0, 3.0], [1.0]], 2)

    def test_an_empty_batch_is_refused(self):
        with pytest.raises(DimensionMismatch, match=r"^observations must have shape \(S, 3\), "
                                                    r"got \(0,\)$"):
            real_observations([], 3)


class TestSpaces:
    def test_label_space_needs_two_distinct_names(self):
        with pytest.raises(ValueError):
            LabelSpace(("only",))
        with pytest.raises(ValueError):
            LabelSpace(("a", "a"))
        space = LabelSpace(("a", "b", "c"))
        assert space.n == 3
        assert space.index("c") == 2
        assert space.code_of == {"a": 0, "b": 1, "c": 2}
        with pytest.raises(UnknownSymbol):
            space.index("d")
        with pytest.raises(UnknownSymbol, match=r"^unknown label \['c'\]$"):
            space.index(["c"])  # unhashable

    def test_alphabet_allows_single_symbol(self):
        alphabet = ObservationAlphabet(("only",))
        assert alphabet.m == 1
        with pytest.raises(ValueError):
            ObservationAlphabet(())
        with pytest.raises(ValueError):
            ObservationAlphabet(("x", "x"))
        with pytest.raises(UnknownSymbol):
            alphabet.index("other")

    def test_alphabet_codes_follow_symbol_order(self):
        alphabet = ObservationAlphabet(("z", "a", "m"))
        assert alphabet.code_of == {"z": 0, "a": 1, "m": 2}
        assert [alphabet.index(s) for s in ("m", "z")] == [2, 0]


@pytest.mark.skipif(usable_cpus() < 2 or not hasattr(os, "fork"),
                    reason="one usable CPU, or no os.fork: every part stays where it is")
def test_forked_children_move_to_the_usable_cpus_after_this_one():
    # a kernel that does not balance load leaves each forked child on its
    # parent's CPU, where it only takes turns with the parent; a part per
    # usable CPU and one more
    cpus = sorted(os.sched_getaffinity(0))

    def write(part, spool):
        # this process moves the child after the fork, which a child that the
        # kernel ran at once on another CPU can beat
        deadline = time.monotonic() + 5.0
        while len(os.sched_getaffinity(0)) > 1 and time.monotonic() < deadline:
            time.sleep(0.001)
        spool.write(repr(sorted(os.sched_getaffinity(0))))

    with forked_parts(write, range(len(cpus) + 1)) as files:
        moved = [spool.read() for spool in files]
    assert_no_child_left()
    # one CPU each, cyclically, from the one after this process's
    first = cpus.index(int(moved[0][1:-1]))
    assert moved == [repr([cpus[(first + k) % len(cpus)]]) for k in range(len(cpus) + 1)]
    assert sorted(os.sched_getaffinity(0)) == cpus


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork: every part runs here")
def test_without_an_affinity_mask_the_children_run_anywhere(monkeypatch):
    # where os has no sched_getaffinity, usable_cpus counts the machine's
    # CPUs and no child is placed; verify's forked children still give a
    # serial run's result
    with monkeypatch.context() as serial:
        serial.setattr(dualbayes.verify, "usable_cpus", lambda: 1)
        expected = run_all_suites(seed=3, cases=2)
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(None) or fork())
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert usable_cpus() == 2
    assert _placements(3) == [None] * 3
    assert run_all_suites(seed=3, cases=2) == expected
    assert len(forks) == 2
    assert_no_child_left()


def test_public_names_resolve():
    # a stale or repeated __all__ entry breaks "from dualbayes import *"
    # without any import of a single name noticing
    assert [name for name in dualbayes.__all__ if not hasattr(dualbayes, name)] == []
    assert len(set(dualbayes.__all__)) == len(dualbayes.__all__)
    exec("from dualbayes import *", {})


def _top_level_names(tree):
    """The names a module's top-level statements define."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            yield from (target.id for target in ast.walk(node)
                        if isinstance(target, ast.Name) and isinstance(target.ctx, ast.Store))


def test_no_unused_import_or_private_name():
    # no linter runs in CI: an import its module never uses, or a top-level
    # _name that nothing in the package references, is dead code
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(Path(dualbayes.__file__).parent.glob("*.py"))}
    referenced, dead = set(), []
    for module, tree in trees.items():
        nodes = list(ast.walk(tree))
        loaded = {node.id for node in nodes
                  if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        imports = [alias for node in nodes if isinstance(node, (ast.Import, ast.ImportFrom))
                   for alias in node.names]
        referenced |= loaded | {alias.name for alias in imports}
        referenced |= {node.attr for node in nodes if isinstance(node, ast.Attribute)}
        if module != "__init__.py":
            bound = {(alias.asname or alias.name).split(".")[0] for alias in imports}
            dead += [f"{module}: import {name}" for name in bound - loaded - {"annotations"}]
    dead += [f"{module}: {name}" for module, tree in trees.items()
             for name in _top_level_names(tree)
             if name.startswith("_") and not name.startswith("__") and name not in referenced]
    assert sorted(dead) == []
