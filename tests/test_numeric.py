"""Numeric modes: coercion, parsing, and report formatting."""

import random
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from qfmarket.market import Buyer, Good, Market
from qfmarket.numeric import (
    DEFAULT_FLOAT_TOL,
    EXACT,
    NumericMode,
    float_mode,
    format_number,
    number_to_json,
    parse_number,
)


def test_mode_constants():
    assert EXACT.is_exact and EXACT.tol == 0
    assert not float_mode().is_exact
    assert float_mode().tol == DEFAULT_FLOAT_TOL


def test_mode_validation():
    with pytest.raises(ValueError):
        NumericMode("decimal")


def test_exact_coercion_reads_floats_by_decimal_repr():
    assert EXACT.coerce(0.1) == Fraction(1, 10)
    assert EXACT.coerce(3) == Fraction(3)
    assert EXACT.coerce(Fraction(2, 7)) == Fraction(2, 7)
    with pytest.raises(TypeError):
        EXACT.coerce("3/5")


def _fifteen_digits(x: float) -> bool:
    """Whether x's exact binary value n / 2**k has at most 15 significant
    digits, n * 5**k < 10**15: the floats that coerce reads straight from
    as_integer_ratio()."""
    num, den = x.as_integer_ratio()
    return abs(num) * 5 ** (den.bit_length() - 1) < 10**15


def test_exact_coercion_of_sampled_floats_is_their_decimal_reading():
    """Seeded dyadic floats (n / 2**k, most inside coerce's 15-digit guard)
    and decimal ones (most outside it), both signs, with either side of the
    guard met by each sample."""
    rng = random.Random(0)
    dyadic = [rng.randint(-(2**50), 2**50) / 2 ** rng.randint(0, 40) for _ in range(2000)]
    decimal = [float(f"{rng.uniform(-1e9, 1e9):.{rng.randint(1, 17)}g}") for _ in range(2000)]
    for sample in (dyadic, decimal):
        assert {_fifteen_digits(x) for x in sample} == {True, False}
        for x in sample:
            assert EXACT.coerce(x) == Fraction(Decimal(repr(x))), x


def test_exact_coercion_reads_a_float_subclass_by_float_repr():
    """numpy's float64 is a float whose repr is 'np.float64(0.1)' under
    numpy 2; a float market built from such numbers validates, and its
    rational twin reads each as the float it is."""
    assert EXACT.coerce(np.float64(0.1)) == Fraction(1, 10)
    assert EXACT.coerce(np.float64(2.25)) == Fraction(9, 4)
    buyer = Buyer("b", (np.float64(0.3),), np.float64(0.1))
    market = Market((Good("A", np.float64(1.0)),), (buyer,), float_mode())
    assert market.rational_twin().buyers[0].values == (Fraction(3, 10),)


def test_float_coercion():
    assert float_mode().coerce(Fraction(1, 4)) == 0.25
    assert isinstance(float_mode().coerce(2), float)


def test_parse_number_accepts_rationals_decimals_and_numbers():
    assert parse_number("3/5", EXACT) == Fraction(3, 5)
    assert parse_number("3/5", float_mode()) == 0.6
    assert parse_number("0.25", EXACT) == Fraction(1, 4)
    assert parse_number(" 7 / 2 ", EXACT) == Fraction(7, 2)
    assert parse_number(4, EXACT) == Fraction(4)
    assert parse_number(0.5, float_mode()) == 0.5


@pytest.mark.parametrize("token", ["1/0", "abc", "1/2/3", True, None, [1]])
def test_parse_number_rejects_junk(token):
    with pytest.raises(ValueError):
        parse_number(token, EXACT)


def test_format_number():
    assert format_number(Fraction(3, 5)) == "3/5"
    assert format_number(Fraction(4)) == "4"
    assert format_number(Fraction(3, 5), float_mode()) == "0.6"
    assert format_number(0.1) == "0.1"
    # beyond the float range: 12 significant digits without float()
    assert format_number(Fraction(10**400), float_mode()) == "1e+400"
    assert format_number(-Fraction(2 * 10**400, 3), float_mode()) == "-6.66666666667e+399"
    assert format_number(10**400) == "1e+400"


def test_number_to_json():
    assert number_to_json(Fraction(3, 5)) == "3/5"
    assert number_to_json(Fraction(2)) == 2
    assert number_to_json(0.25) == 0.25


def test_exact_parse_format_round_trip():
    rng = random.Random(5)
    for _ in range(200):
        x = Fraction(rng.randint(-500, 500), rng.randint(1, 500))
        assert parse_number(format_number(x), EXACT) == x


@pytest.mark.parametrize(
    "value",
    [0.1, 1e-300, 5e-324, 1.7976931348623157e308, -0.1, -2.5, 3.0, 0.0, -0.0, 1e22, 2.0**60,
     # around coerce's 15-digit guard: of these, 2.25 and 999999999999999.0
     # are read straight from as_integer_ratio(), the others by their decimal
     2.25, 1e-7, 1e15, 999999999999999.0, 999999999999999.9, 2.0**53 + 2, 1e16],
)
def test_exact_coercion_reads_a_float_through_its_shortest_decimal(value):
    got = EXACT.coerce(value)
    assert type(got) is Fraction
    assert got == Fraction(repr(value))


@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
def test_exact_coercion_refuses_non_finite_floats_with_value_error(value):
    with pytest.raises(ValueError):
        EXACT.coerce(value)


def test_the_rational_twin_reads_each_number_through_its_shortest_decimal():
    """A seeded float market whose numbers fall on both sides of coerce's
    15-digit guard, some of them numpy float64s: the twin holds, number by
    number, the Fraction of each float's own shortest decimal."""
    rng = random.Random(3)

    def draw():
        x = rng.choice([
            rng.randint(0, 2**40) / 2 ** rng.randint(0, 30),  # dyadic, mostly inside the guard
            float(f"{rng.uniform(0, 1e6):.{rng.randint(1, 17)}g}"),  # mostly outside it
        ])
        return np.float64(x) if rng.random() < 0.3 else x

    goods = tuple(Good(f"g{j}", draw()) for j in range(4))
    buyers = tuple(Buyer(f"b{i}", tuple(draw() for _ in goods), draw()) for i in range(60))
    market = Market(goods, buyers, float_mode())
    twin = market.rational_twin()
    numbers = [g.supply for g in goods] + [x for b in buyers for x in (*b.values, b.budget)]
    read = [g.supply for g in twin.goods] + [x for b in twin.buyers for x in (*b.values, b.budget)]
    assert {_fifteen_digits(x) for x in numbers} == {True, False}
    assert {type(x) for x in numbers} == {float, np.float64}
    assert [type(x) for x in read] == [Fraction] * len(numbers)
    assert read == [Fraction(Decimal(float.__repr__(x))) for x in numbers]
