from fractions import Fraction

import numpy as np
import pytest

from stabaudit.numeric import EXACT, FLOAT64, coerce_number, mode_of, zeros


def test_modes_carry_dtype_and_tolerance():
    assert EXACT.dtype is object
    assert EXACT.tolerance == 0
    assert FLOAT64.dtype is np.float64
    assert FLOAT64.tolerance == 1e-12


def test_mode_of_round_trips():
    assert mode_of(zeros(3, EXACT)) is EXACT
    assert mode_of(zeros(3, FLOAT64)) is FLOAT64


def test_coerce_exact_from_int_fraction_string_float():
    assert coerce_number(2, EXACT) == Fraction(2)
    assert coerce_number(Fraction(1, 3), EXACT) == Fraction(1, 3)
    assert coerce_number("0.3", EXACT) == Fraction(3, 10)
    # floats rationalize to their exact binary value
    assert coerce_number(0.5, EXACT) == Fraction(1, 2)
    assert coerce_number(0.3, EXACT) == Fraction(0.3)
    assert coerce_number(0.3, EXACT) != Fraction(3, 10)


def test_coerce_rejects_bool_and_junk():
    with pytest.raises(TypeError):
        coerce_number(True, EXACT)
    with pytest.raises(TypeError):
        coerce_number(object(), EXACT)


def test_coerce_float_mode_parses_strings():
    assert coerce_number("0.3", FLOAT64) == 0.3
    assert coerce_number(Fraction(1, 4), FLOAT64) == 0.25


def test_zeros_accumulate_exactly():
    acc = zeros((2, 2), EXACT)
    acc[0, 0] += Fraction(1, 3)
    acc[0, 0] += Fraction(2, 3)
    assert acc[0, 0] == 1
    assert isinstance(acc[0, 0], Fraction)
