"""Exact number rendering: ``fmt`` and its integer conversion."""

import random
from decimal import Decimal
from fractions import Fraction as F

from robustmech.numeric import _DECIMAL_CUT, _decimal, fmt


def _cases():
    rng = random.Random(0)
    yield 0
    for bits in (1, 64, _DECIMAL_CUT - 1, _DECIMAL_CUT, _DECIMAL_CUT + 1,
                 2 * _DECIMAL_CUT + 1, 3 * _DECIMAL_CUT, 20_000):
        yield rng.getrandbits(bits) | 1 << (bits - 1)  # exactly ``bits`` bits
        yield 2**bits
        yield 2**bits - 1
        yield 10**bits
        yield 10**bits - 1


def test_decimal_conversion_matches_decimal_of_int():
    """Divide and conquer gives ``Decimal(n)`` exactly, sign included,
    on both sides of the cut and on powers of 2 and 10."""
    for n in _cases():
        for signed in {n, -n}:
            got = _decimal(signed)
            assert got == Decimal(signed)
            assert str(got) == str(Decimal(signed))


def test_fmt_renders_fractions_through_the_conversion():
    big = 3**5000
    assert fmt(F(-7, 10)) == "-7/10"
    assert fmt(F(0)) == "0"
    assert fmt(F(-big, big + 1)) == f"-{Decimal(big)}/{Decimal(big + 1)}"
