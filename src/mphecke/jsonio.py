"""Exact JSON values and typed record fields.

Rationals travel as JSON integers or "p/q" strings, never as floats; the
records read from JSON check their field types when they are constructed.
A leaf of the package (standard library only), so that a module which reads
or writes JSON need not import the algebra modules to get these helpers.
"""

from __future__ import annotations

from fractions import Fraction


def frac_to_json(x: Fraction):
    x = Fraction(x)
    return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def frac_from_json(v) -> Fraction:
    if isinstance(v, bool) or isinstance(v, float):
        raise ValueError("floats are rejected; use int or 'p/q'")
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, str):
        return Fraction(v)
    raise ValueError(f"cannot parse rational from {v!r}")


_KINDS = {int: "an integer", bool: "a bool", str: "a string"}


def check_field_types(record, types, error: type) -> None:
    """Raise ``error`` unless, for each ``(name, kind)`` of ``types``, the attribute
    ``name`` of ``record`` has exactly the type ``kind`` (int, bool or str).
    Nothing is coerced: ``"1"``, ``1.0`` and ``True`` are not the integer 1.

    It reads with ``getattr``: asking a record for its ``__dict__`` would turn
    off CPython's fast path for every later attribute read on it."""
    for name, kind in types:
        value = getattr(record, name)
        if type(value) is not kind:
            raise error(f"{name!r} must be {_KINDS[kind]}, got {value!r}")
