"""``format17`` prints exactly what ``'%.17g' % value`` prints.

Python's ``%`` is the oracle for every value set: uniform and Dirichlet
probabilities, log-uniform magnitudes of both signs across the whole
integer-arithmetic range ``[1e-10, 10)`` and past it, the powers of ten and
their neighbours, exact ties at the 17th digit, the largest entries a
checked simplex row holds, and the values ``%`` alone formats: negatives,
and magnitudes below 1e-10 or of 10 or more.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from dualbayes import format17
from dualbayes.core import SIMPLEX_TOL

NEWLINE = format17.pieces(["\n"])
NO_HEAD = format17.pieces([""])


def _expected(values, sep=" "):
    return "".join(sep.join("%.17g" % value for value in row) + "\n" for row in values.tolist())


def _assert_prints_as_percent(values, width=8):
    """``values``, padded to whole rows of ``width``, print as ``%`` prints them."""
    values = np.asarray(values, dtype=float).ravel()
    values = np.concatenate([values, np.full(-len(values) % width, 0.5)]).reshape(-1, width)
    for start in range(0, len(values), 256):
        block = values[start:start + 256]
        text = format17.rows(block, " ", NO_HEAD, NEWLINE)
        if text != _expected(block):
            wrong = [(x, y) for x, y in zip(text.splitlines(), _expected(block).splitlines())
                     if x != y]
            pytest.fail(f"{len(wrong)} rows differ from %.17g, first {wrong[0]}")


def _powers_of_ten():
    powers = np.array([float(f"1e{n}") for n in range(-12, 18)])
    return np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)])


def test_a_million_uniform_values():
    _assert_prints_as_percent(np.random.default_rng(0).random(10**6))


@pytest.mark.parametrize("alpha", [0.05, 1.0])
@pytest.mark.parametrize("n", [2, 8, 32])
def test_dirichlet_rows(n, alpha):
    # at alpha = 0.05 most entries of a row are tiny and many are exactly 0
    rows = np.random.default_rng(n).dirichlet([alpha] * n, size=20_000)
    _assert_prints_as_percent(rows, width=n)


def test_log_uniform_values_of_both_signs():
    # fixed and exponent forms in [1e-10, 10), and the negatives and the
    # magnitudes below 1e-10 or of 10 or more that go through `%`
    rng = np.random.default_rng(1)
    magnitudes = 10.0 ** rng.uniform(-12, 17, 300_000)
    _assert_prints_as_percent(magnitudes * rng.choice([-1.0, 1.0], magnitudes.size))


def test_the_exponent_form_below_1e_4():
    _assert_prints_as_percent(10.0 ** np.random.default_rng(2).uniform(-10, -4, 100_000))


def test_powers_of_ten_and_their_neighbours():
    values = _powers_of_ten()
    _assert_prints_as_percent(np.concatenate([values, -values]))


def test_no_value_in_range_rounds_up_to_a_power_of_ten():
    # so format17 never carries its 17 digits into an 18th: that would take a
    # float64 within 5e-18 (relative) below one of 1e-9 ... 1e16
    for k in range(-9, 17):
        power = Fraction(10) ** k
        below = float(power) if Fraction(float(power)) < power else math.nextafter(
            float(power), 0.0)
        assert (power - Fraction(below)) / power > Fraction(5, 10**18), k


def test_exact_ties_at_the_17th_digit_round_to_even():
    rng = np.random.default_rng(3)
    quarters = rng.integers(10**15, 2**51, 2000) + rng.choice([0.25, 0.75], 2000)
    ties = [2.0**-25, (4 * 10**15 + 1) / 4, *quarters, *(np.arange(1, 2000, 2) * 2.0**-25)]
    assert "%.17g" % 2.0**-25 == "2.9802322387695312e-08"  # ...3125 rounds down to even
    _assert_prints_as_percent(ties)


def test_values_that_only_percent_formats():
    _assert_prints_as_percent([0.0, -0.0, 1.0, 5e-324, 1e308, np.inf, -np.inf, np.nan, -1.0,
                               9.9999999999999995e-11, 1e16, -2.5e-300], width=4)


def test_integers_and_binary_fractions():
    # trailing zeros, points after up to 15 digits, and the top of [1e-10, 10),
    # where a checked simplex row's largest entry lies
    _assert_prints_as_percent(np.arange(1, 20_001, dtype=float))
    _assert_prints_as_percent(np.arange(1, 20_001) / 1024.0)
    _assert_prints_as_percent([9.99999999999999999e15, 99999999999999.99, 0.99999999999999999,
                               1 + SIMPLEX_TOL, np.nextafter(1.0, 2.0), np.nextafter(10.0, 0.0)])


def test_heads_tails_and_separator_frame_each_row():
    values = np.array([[0.25, 1e-7], [1.0, 0.0]])
    tails = format17.pieces([",été,0\r\n", ',"a,b",1\r\n'])
    text = format17.rows(values, ",", format17.counters("x t=", 9, 11, ": "), tails)
    assert text == 'x t=9: 0.25,9.9999999999999995e-08,été,0\r\n' \
                   'x t=10: 1,0,"a,b",1\r\n'


@pytest.mark.parametrize("start, stop", [(0, 1), (0, 12), (5, 105), (995, 1010), (9998, 10003),
                                         (99_999_990, 100_000_010)])
def test_counters_have_no_leading_zeros(start, stop):
    pieces = format17.counters("fb t=", start, stop, " ")
    assert pieces.shape[1] % 8 == 0
    text = format17.rows(np.zeros((stop - start, 1)), " ", pieces, NO_HEAD)
    assert text == "".join(f"fb t={t} 0" for t in range(start, stop))


def test_a_row_prints_the_same_in_any_block():
    rows = np.random.default_rng(4).dirichlet([0.3] * 5, size=300)
    whole = format17.rows(rows, ",", NO_HEAD, NEWLINE)
    assert whole == "".join(format17.rows(rows[k:k + 1], ",", NO_HEAD, NEWLINE)
                            for k in range(len(rows)))
    assert whole == _expected(rows, ",")
