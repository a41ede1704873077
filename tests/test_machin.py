import math
from fractions import Fraction

import pytest

from zeta_recur.machin import decimal_str, pi_digits, pi_scaled, truncated

PI_30 = "3.141592653589793238462643383279"


def test_first_digits():
    assert pi_digits(5) == "3.14159"
    assert pi_digits(1) == "3.1"


def test_matches_ieee_double_constant():
    # repr(math.pi) carries 15 digits after the point
    assert pi_digits(50)[:17] == repr(math.pi)[:17]


def test_thirty_digit_literal():
    assert pi_digits(30) == PI_30


def test_truncation_prefix_consistency():
    long = pi_digits(50)
    for d in (7, 20, 40):
        assert pi_digits(d) == long[: d + 2]


def test_scaled_error_bound_is_honest():
    # compare a short scaled value against a much longer computation
    v, err = pi_scaled(25)
    v_ref, _ = pi_scaled(60)
    ref_units = v_ref // 10**35
    assert abs(v - ref_units) <= err + 1


def test_deterministic():
    assert pi_digits(200) == pi_digits(200)


@pytest.mark.parametrize("d", [0, -3, 100_001])
def test_rejects_out_of_range(d):
    with pytest.raises(ValueError):
        pi_digits(d)


def test_rejects_non_integer():
    with pytest.raises(ValueError):
        pi_digits(2.5)


def test_decimal_str_beyond_interpreter_conversion_limit():
    # 9001-digit value crosses several 4000-digit chunks
    n = 10**9000 + 12345
    assert decimal_str(n) == "1" + "0" * (9000 - 5) + "12345"
    assert decimal_str(7) == "7"


def test_pi_digits_large_request():
    text = pi_digits(6000)
    assert len(text) == 6002
    assert text.startswith(PI_30)


@pytest.mark.parametrize("x,offset,expected", [
    # x * 10**p sits 10**(p-40) above an integer: the furthest value the
    # 3-unit bound allows lies 2 below it, so a short guard block reads as a borrow
    (1 + Fraction(1, 10**40), -2, "1.0000000000"),
    # x * 10**p sits 10**(p-40) below an integer: 3 above its floor wraps to a carry
    (2 - Fraction(1, 10**40), 3, "1.9999999999"),
])
def test_truncated_guard_clears_both_boundaries(x, offset, expected):
    requested = []

    def scaled(p):
        requested.append(p)
        return math.floor(x * 10**p) + offset, 3

    assert truncated(scaled, 10) == expected
    assert requested == [22, 34, 58]  # guard 12, doubled until 10**(p-40) clears the bound
