"""Numeric modes shared by every computation in the toolkit.

All probability mass is held either as exact rationals (fractions.Fraction
inside object-dtype numpy arrays) or as float64.  The mode travels with the
array dtype; NumericMode bundles the dtype choice with the tolerance used
whenever a computed quantity is compared against a bound or an invariant.
Exact mode compares with tolerance zero.

Exact computations run on integer numerators over a common denominator.
Such an array is int64 when a bound on every value and partial sum it
can reach is below 2^63 (int_dtype), else an object array of Python ints;
the same numpy expressions run on both.  The bounds come from scalars
(a denominator, a scale, a table's largest entry), never from a scan of
the values: nonnegative numerators that sum to den are each at most den.
An object array holds Python ints, never numpy ones, so that a Fraction
built from one of its values holds Python ints too.  Every division of
such integers into floats goes through int_quotients, which rounds each
quotient once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any

import numpy as np


@dataclass(frozen=True)
class NumericMode:
    name: str
    exact: bool
    tolerance: Any  # 0 for exact mode, a small float otherwise

    @property
    def dtype(self):
        return object if self.exact else np.float64


EXACT = NumericMode(name="exact-rational", exact=True, tolerance=0)
FLOAT64 = NumericMode(name="float64", exact=False, tolerance=1e-12)


def mode_of(weights: np.ndarray) -> NumericMode:
    """Infer the numeric mode an array of weights was built in."""
    return EXACT if weights.dtype == object else FLOAT64


def coerce_number(x, mode: NumericMode):
    """Bring one scalar into the given mode.

    Exact mode accepts ints, Fractions, decimal strings, and floats (every
    float is a finite binary rational, so Fraction(x) is lossless).  Float
    mode converts anything float() accepts.
    """
    if mode.exact:
        if isinstance(x, Fraction):
            return x
        if isinstance(x, bool):
            raise TypeError("booleans are not probability weights")
        if isinstance(x, int):
            return Fraction(x)
        if isinstance(x, str):
            return Fraction(x)  # decimal string, parsed exactly
        if isinstance(x, float):
            return Fraction(x)
        raise TypeError(f"cannot represent {type(x).__name__} exactly")
    return float(Fraction(x)) if isinstance(x, str) else float(x)


def zeros(shape, mode: NumericMode) -> np.ndarray:
    """Zero-initialized accumulator array in the given mode.

    Object-dtype zeros start as python ints, which absorb Fraction addition
    without losing exactness.
    """
    return np.zeros(shape, dtype=mode.dtype)


def int_dtype(bound: int):
    """int64 when bound, a bound on the absolute value of every value and
    partial sum an integer array will hold, is below 2^63; else object."""
    return np.int64 if bound < 2**63 else object


def as_ints(values, bound: int) -> np.ndarray:
    """Integer values (an array, or a list of Python ints) as an array of
    int_dtype(bound); an object array holds Python ints.  An array of that
    dtype already is returned as it is."""
    if not isinstance(values, np.ndarray):
        values = np.array(values, dtype=object)  # np.array would pick uint64 or float64 past int64
    return values.astype(int_dtype(bound), copy=False)


def int_quotients(nums: np.ndarray, den: int, bound: int | None = None) -> np.ndarray:
    """nums / den in float64 for integers nums, each rounded once as
    int / int rounds: in float64 while den and bound, a bound on |nums|
    (den when None), are below 2^53, where both are exact; else in Python
    ints."""
    if nums.dtype != object and max(den, den if bound is None else bound) < 2**53:
        return nums / den
    return np.asarray(nums.astype(object) / den, dtype=np.float64)  # a 0-d array divides into a float
