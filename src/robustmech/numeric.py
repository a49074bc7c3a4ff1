"""Exact-rational number helpers shared by every module.

All incentive comparisons use :class:`fractions.Fraction`, so strict
inequalities are decided exactly.
"""

from __future__ import annotations

from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Decimal, Inexact, localcontext
from fractions import Fraction

Number = Fraction | int

ONE = Fraction(1)  # a pure play's weight: plays sharing it compare by identity


def rat(value) -> Fraction:
    """Parse a number or a string like ``"7/10"`` into an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value.strip())
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def fmt(value: Number) -> str:
    """Render a number for reports: ``7/10``, as ``str`` would, but through
    ``Decimal``, which converts an integer of any size exactly, so deep
    ladder masses need no lift of Python's int-to-str digit limit; large
    integers go through ``_decimal``, whose time is subquadratic."""
    text = str(_decimal(value.numerator))
    return text if value.denominator == 1 else f"{text}/{_decimal(value.denominator)}"


_DECIMAL_CUT = 1024  # bits: below it, Decimal(int)'s quadratic conversion is fast


def _decimal(n: int) -> Decimal:
    """``Decimal(n)``, exactly.  Above ``_DECIMAL_CUT`` bits, it splits
    ``|n| = hi * 2**k + lo`` and recombines the halves' conversions in one
    exact ``decimal`` context, whose large multiplications are
    subquadratic, with each ``2**k`` made once per call; ``Decimal(int)``
    converts only parts below the cut.  This is the method of CPython
    3.12's ``_pylong.int_to_decimal_string``."""
    if n.bit_length() <= _DECIMAL_CUT:
        return Decimal(n)
    powers: dict[int, Decimal] = {}

    def power(k):
        if k not in powers:
            half = k >> 1
            powers[k] = Decimal(1 << k) if k <= _DECIMAL_CUT else power(half) * power(k - half)
        return powers[k]

    def convert(n, bits):
        if bits <= _DECIMAL_CUT:
            return Decimal(n)
        half = bits >> 1
        hi = n >> half
        return convert(hi, bits - half) * power(half) + convert(n - (hi << half), half)

    with localcontext() as ctx:
        ctx.prec, ctx.Emax, ctx.Emin = MAX_PREC, MAX_EMAX, MIN_EMIN
        ctx.traps[Inexact] = True
        digits = convert(abs(n), n.bit_length())
        return -digits if n < 0 else digits


def frac_key(value: Number) -> tuple[int, int]:
    """``(numerator, denominator)``: equal exactly when the values are, and
    hashed as ints, where hashing a ``Fraction`` runs a Python-level
    modular inverse.  Memo keys built once per type and round use it."""
    return value.numerator, value.denominator


def weights_key(weights: dict) -> tuple:
    """Every entry of ``{key: weight}``, zero weights included, as sorted
    ``(key, numerator, denominator)`` triples (``frac_key``): equal
    exactly when the dicts are."""
    return tuple(sorted((k, *frac_key(w)) for k, w in weights.items()))
