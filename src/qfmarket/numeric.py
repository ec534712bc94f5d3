"""Numeric modes: exact rational arithmetic or floats with a relative tolerance.

Every quantity in a market (values, budgets, supplies, prices, bundles) is
either a `fractions.Fraction` (exact mode) or a `float` (float mode). Exact
mode uses a zero tolerance everywhere; float mode uses the fixed relative
tolerance DEFAULT_FLOAT_TOL for argmax ties, budget checks, and flow
saturation tests.

Exact arithmetic that runs on integers instead of Fractions (the max flows,
exact demand) brings its rationals onto one integer scale with
`scale_to_integers`, a helper of the package, not of its public surface.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal
from fractions import Fraction
from typing import Union

__all__ = [
    "DEFAULT_FLOAT_TOL",
    "EXACT",
    "Number",
    "NumericMode",
    "float_mode",
    "format_number",
    "parse_number",
]

Number = Union[Fraction, float, int]

DEFAULT_FLOAT_TOL = 1e-9

EXACT_KIND = "exact"
FLOAT_KIND = "float"

# coerce's fast read of a float n / 2**k: 5**k for each 2**k with k <= 21,
# and the bound n * 5**k stays under (at most 15 significant digits).
_FIVE_POWERS = {1 << k: 5**k for k in range(22)}
_FIFTEEN_DIGITS = 10**15


@dataclass(frozen=True)
class NumericMode:
    kind: str

    def __post_init__(self):
        if self.kind not in (EXACT_KIND, FLOAT_KIND):
            raise ValueError(f"unknown numeric mode {self.kind!r}")

    @property
    def is_exact(self) -> bool:
        return self.kind == EXACT_KIND

    @property
    def tol(self) -> Number:
        """Relative tolerance: 0 in exact mode, DEFAULT_FLOAT_TOL in float mode."""
        return 0 if self.is_exact else DEFAULT_FLOAT_TOL

    def coerce(self, value: Number) -> Number:
        """Bring a number into this mode's representation.

        In exact mode a float is the rational its shortest decimal repr
        names, so a literal 0.1 becomes 1/10 rather than its binary
        expansion. A float whose exact binary value n / 2**k has at most 15
        significant digits, n * 5**k < 10**15 (so k <= 21), is read straight
        from as_integer_ratio(): every decimal of at most 15 significant
        digits rounds to a float of its own, so the shortest repr names that
        exact value too. Every other float is read through Decimal(repr(x)),
        at about 1.7 times the cost. A non-finite float is refused with
        ValueError. A plain float, the common case of a twin, meets no
        isinstance test on its way.
        """
        if not self.is_exact:
            return float(value)
        if type(value) is not float:
            if isinstance(value, Fraction):
                return value
            if not isinstance(value, float):
                if isinstance(value, int):
                    return Fraction(value)
                raise TypeError(f"cannot coerce {type(value).__name__} to rational")
        if not math.isfinite(value):
            raise ValueError(f"cannot coerce non-finite {value!r} to rational")
        num, den = value.as_integer_ratio()
        five = _FIVE_POWERS.get(den)
        if five is not None and abs(num) * five < _FIFTEEN_DIGITS:
            return Fraction(num, den)
        # Fraction(Decimal(...)) reads a repr about 3x faster than
        # Fraction(repr(value)). float's own repr, since a subclass such as
        # numpy's float64 may print itself otherwise.
        return Fraction(Decimal(float.__repr__(value)))


EXACT = NumericMode(EXACT_KIND)
_FLOAT = NumericMode(FLOAT_KIND)


def float_mode() -> NumericMode:
    """The float mode, one shared object."""
    return _FLOAT


def scale_to_integers(amounts):
    """(unit, integers): the least common denominator of the rational
    `amounts` and each amount times it."""
    unit = math.lcm(*(a.denominator for a in amounts))
    return unit, [a.numerator * (unit // a.denominator) for a in amounts]


def parse_number(token, mode: NumericMode) -> Number:
    """Parse a JSON-ish numeric token.

    Accepts ints, floats, and strings of the form "p/q" or a plain decimal
    string. In exact mode everything becomes a Fraction; in float mode
    everything becomes a float (rationals are divided out). Infinities, NaN
    and numbers beyond the float range in float mode raise ValueError.
    """
    if isinstance(token, str):
        text = token.strip()
        try:
            if "/" in text:
                num, den = text.split("/", 1)
                value = Fraction(int(num.strip()), int(den.strip()))
            else:
                value = Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"bad numeric literal {token!r}") from exc
    elif isinstance(token, bool) or not isinstance(token, (int, float, Fraction)):
        raise ValueError(f"bad numeric literal {token!r}")
    elif isinstance(token, float) and not math.isfinite(token):
        raise ValueError(f"non-finite number {token!r}")
    else:
        value = token
    try:
        return mode.coerce(value)
    except OverflowError:
        raise ValueError(f"number {token!r} is beyond the float range") from None


# format_number's rounding of a rational beyond the float range.
_TWELVE_DIGITS = Context(prec=12, Emax=MAX_EMAX, Emin=MIN_EMIN)


def format_number(value: Number, mode: NumericMode = None) -> str:
    """Render a number for reports: 'p/q' in exact mode, 12 significant
    digits otherwise, as format(float(value), ".12g") prints them. A
    rational beyond the float range has no float, so it is rounded to 12
    digits in Decimal instead ("1e+400" for 10**400)."""
    if isinstance(value, Fraction) and (mode is None or mode.is_exact):
        if value.denominator == 1:
            return str(value.numerator)
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, float) or abs(value) <= sys.float_info.max:
        return format(float(value), ".12g")
    value = Fraction(value)
    digits = _TWELVE_DIGITS.divide(Decimal(value.numerator), Decimal(value.denominator))
    return format(digits.normalize(_TWELVE_DIGITS), ".12g")


def number_to_json(value: Number) -> object:
    """JSON-friendly form: Fractions as 'p/q' strings (ints plain), floats as floats."""
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return int(value)
        return f"{value.numerator}/{value.denominator}"
    return float(value)
