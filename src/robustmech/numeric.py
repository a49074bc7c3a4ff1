"""Exact-rational number helpers shared by every module.

All incentive comparisons use :class:`fractions.Fraction`, so strict
inequalities are decided exactly.
"""

from __future__ import annotations

from decimal import Decimal
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
    ladder masses need no lift of Python's int-to-str digit limit."""
    text = str(Decimal(value.numerator))
    return text if value.denominator == 1 else f"{text}/{Decimal(value.denominator)}"


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
