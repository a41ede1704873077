import math
import random
import sys
import threading
from fractions import Fraction

import mpmath
import pytest

from zeta_recur import exact
from zeta_recur.exact import (
    AlphaCoeff,
    ZetaEvenValue,
    alpha_coeff,
    bernoulli,
    gamma_int,
    render_decimal,
    zeta_even_euler,
    zeta_even_recursive,
)
from zeta_recur.identities import zeta_series


# ---------------------------------------------------------------------------
# gamma

def test_gamma_int_values():
    assert gamma_int(1) == 1
    assert gamma_int(2) == 1
    assert gamma_int(5) == 1 * 2 * 3 * 4


@pytest.mark.parametrize("m", [0, -1, -10])
def test_gamma_int_rejects_nonpositive(m):
    with pytest.raises(ValueError):
        gamma_int(m)


# ---------------------------------------------------------------------------
# Bernoulli numbers

def test_bernoulli_base_values():
    # solved by hand from sum_{k<=m} C(m+1,k) B_k = 0
    assert bernoulli(0) == 1
    assert bernoulli(1) == Fraction(-1, 2)
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(3) == 0
    assert bernoulli(4) == Fraction(-1, 30)


def test_bernoulli_b12():
    assert bernoulli(12) == Fraction(-691, 2730)


def test_odd_bernoulli_vanish_through_101():
    assert all(bernoulli(m) == 0 for m in range(3, 102, 2))


def test_even_bernoulli_sign_pattern():
    # forced by positivity of zeta(2n)
    for n in range(1, 51):
        assert (-1) ** (n + 1) * bernoulli(2 * n) > 0


def test_bernoulli_defining_recurrence_through_200():
    # sum_{k=0}^{m} C(m+1, k) B_k = 0, the definition the tangent-number route must meet
    for m in range(1, 201):
        assert sum(math.comb(m + 1, k) * bernoulli(k) for k in range(m + 1)) == 0


def test_bernoulli_table_grows_only_as_far_as_asked(monkeypatch):
    # each request past the table adds just the tangent numbers it needs
    monkeypatch.setattr(exact, "_bernoulli_cache", [Fraction(1), Fraction(-1, 2)])
    monkeypatch.setattr(exact, "_tangent_column", [])
    for m in range(301):
        bernoulli(m)
    assert len(exact._bernoulli_cache) == 302  # B_0 .. B_301
    assert len(exact._tangent_column) == 150  # T_1 .. T_150
    assert bernoulli(300) == Fraction(*mpmath.bernfrac(300))


def test_bernoulli_table_consistent_under_concurrent_growth(monkeypatch):
    # more threads than cores grow the shared table together, each in many
    # small steps; a lost update would leave the column and the table out of step
    monkeypatch.setattr(exact, "_bernoulli_cache", [Fraction(1), Fraction(-1, 2)])
    monkeypatch.setattr(exact, "_tangent_column", [])
    requests = [range(offset, 201, 2) for offset in range(8)]
    start = threading.Barrier(len(requests))
    seen: list[list[Fraction] | None] = [None] * len(requests)

    def worker(i):
        start.wait()
        seen[i] = [bernoulli(m) for m in requests[i]]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(requests))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(exact._tangent_column) == 100
    assert len(exact._bernoulli_cache) == 202
    for ms, values in zip(requests, seen):
        assert values == [Fraction(*mpmath.bernfrac(m)) for m in ms]


def test_bernoulli_rejects_negative():
    with pytest.raises(ValueError):
        bernoulli(-1)


# ---------------------------------------------------------------------------
# even zeta, both routes

def test_euler_route_small_coefficients():
    assert zeta_even_euler(1).coeff == Fraction(1, 6)
    assert zeta_even_euler(2).coeff == Fraction(1, 90)
    assert zeta_even_euler(3).coeff == Fraction(1, 945)


def test_alpha_coefficients_by_hand():
    assert alpha_coeff(1, 0).coeff == Fraction(1, 2)
    assert alpha_coeff(2, 1).coeff == Fraction(-3, 2)
    assert alpha_coeff(2, 0).coeff == Fraction(21, 4)  # (7/8) * 6


def test_alpha_matches_definition_on_grid():
    for n in range(1, 9):
        for k in range(n):
            expected = (
                (1 - Fraction(1, 2 ** (2 * n - 2 * k - 1)))
                * (-1) ** k
                * math.comb(2 * n - 1, 2 * k)
                * gamma_int(2 * n - 2 * k)
            )
            assert alpha_coeff(n, k).coeff == expected


def test_alpha_rejects_out_of_range_k():
    with pytest.raises(ValueError):
        alpha_coeff(2, 2)
    with pytest.raises(ValueError):
        alpha_coeff(2, -1)
    with pytest.raises(ValueError):
        alpha_coeff(0, 0)


def test_recursion_first_steps_by_hand():
    # n=1: (Gamma(2) + 1/2) q_1 = 1/4
    assert (1 + Fraction(1, 2)) * zeta_even_recursive(1).coeff == Fraction(1, 4)
    # n=2: (6 + 21/4) q_2 = -1/8 + (3/2)(1/6)
    lhs = (6 + Fraction(21, 4)) * zeta_even_recursive(2).coeff
    assert lhs == Fraction(-1, 8) + Fraction(3, 2) * Fraction(1, 6)
    assert zeta_even_recursive(2).coeff == Fraction(1, 90)


def test_recursion_equals_euler_through_50():
    for n in range(1, 51):
        assert zeta_even_recursive(n).coeff == zeta_even_euler(n).coeff


def test_recursion_equals_euler_through_200():
    for n in range(1, 201):
        assert zeta_even_recursive(n).coeff == zeta_even_euler(n).coeff


def _reference_b(count: int) -> list[Fraction]:
    """b_1 .. b_count term by term from (11'), the integer-coefficient recursion:
    (4^n - 1) b_n = (-1)^(n-1)/2 - sum_{k=1}^{n-1} (-1)^k C(2n,2k) (2^(2(n-k)-1) - 1) b_(n-k)."""
    b: list[Fraction] = []
    for n in range(1, count + 1):
        rhs = Fraction((-1) ** (n - 1), 2) - sum(
            (-1) ** k * math.comb(2 * n, 2 * k) * ((1 << (2 * (n - k) - 1)) - 1) * b[n - k - 1]
            for k in range(1, n))
        b.append(rhs / ((1 << (2 * n)) - 1))
    return b


def _fresh_recursion_state(monkeypatch):
    monkeypatch.setattr(exact, "_b_cache", [])
    monkeypatch.setattr(exact, "_diagonal", [0])
    monkeypatch.setattr(exact, "_scale", 1)


def test_triangle_equals_the_term_by_term_recursion_through_200(monkeypatch):
    _fresh_recursion_state(monkeypatch)
    zeta_even_recursive(200)
    assert exact._b_cache == _reference_b(200)


def test_triangle_consistent_under_concurrent_growth(monkeypatch):
    # more threads than cores grow the shared triangle in small interleaved
    # steps; a lost update would leave a b_m or the diagonal out of step
    _fresh_recursion_state(monkeypatch)
    requests = [range(offset, 121, 8) for offset in range(1, 9)]
    start = threading.Barrier(len(requests))
    seen: list[list[Fraction] | None] = [None] * len(requests)

    def worker(i):
        start.wait()
        seen[i] = [zeta_even_recursive(n).coeff for n in requests[i]]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(requests))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert exact._b_cache == _reference_b(len(exact._b_cache))
    assert len(exact._diagonal) == 2 * len(exact._b_cache) + 1
    for ns, values in zip(requests, seen):
        assert values == [zeta_even_euler(n).coeff for n in ns]


def test_recursion_touches_no_bernoulli_or_tangent_numbers(monkeypatch):
    def forbidden(*args):
        raise AssertionError("the contour recursion must stay independent of Euler's route")

    _fresh_recursion_state(monkeypatch)
    monkeypatch.setattr(exact, "bernoulli", forbidden)
    monkeypatch.setattr(exact, "_tangent_numbers", forbidden)
    coeffs = [zeta_even_recursive(n).coeff for n in range(1, 31)]
    monkeypatch.undo()
    # checked against the unpatched Euler values
    assert coeffs == [zeta_even_euler(n).coeff for n in range(1, 31)]


def test_coefficients_positive_and_strictly_decreasing():
    values = [zeta_even_recursive(n).coeff for n in range(1, 51)]
    assert all(q > 0 for q in values)
    assert all(values[i + 1] < values[i] for i in range(len(values) - 1))


def test_approx_is_finite_for_every_n():
    def value(n):
        # q_n = 4^n |B_2n| / (2 (2n)!) from mpmath's Bernoulli numbers
        num, den = mpmath.bernfrac(2 * n)
        return ZetaEvenValue(n, Fraction(abs(num) << (2 * n), 2 * den * math.factorial(2 * n)))

    with mpmath.workdps(40):
        for n in range(1, 401):
            # within one ulp of zeta(2n), where float(q_n) * math.pi ** (2n) drifts by 2n
            got = value(n).approx()
            assert abs(mpmath.mpf(got) - mpmath.zeta(2 * n)) <= math.ulp(got), n
    for n in (311, 1000):
        # pi^(2n) overflows a double here; zeta(2n) - 1 < 4^-n rounds to exactly 1
        with pytest.raises(OverflowError):
            math.pi ** (2 * n)
        assert value(n).approx() == 1.0


def test_zeta_even_value_validation():
    with pytest.raises(ValueError):
        ZetaEvenValue(0, Fraction(1, 6))
    with pytest.raises(ValueError):
        ZetaEvenValue(1, Fraction(-1, 6))
    with pytest.raises(ValueError):
        zeta_even_recursive(0)
    with pytest.raises(ValueError):
        zeta_even_euler(-3)


def test_memo_tables_are_thread_safe_and_deterministic():
    results = []

    def worker():
        results.append(zeta_even_recursive(40).coeff)

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(set(results)) == 1
    assert results[0] == zeta_even_euler(40).coeff


# ---------------------------------------------------------------------------
# decimal rendering

def test_render_decimal_values():
    # oracle: direct series summation
    assert render_decimal(zeta_even_recursive(1), 10) == "1.6449340668"
    assert abs(float(render_decimal(zeta_even_recursive(1), 18)) - zeta_series(2, 1e-13)) < 1e-10
    assert render_decimal(zeta_even_recursive(2), 6) == "1.082323"
    assert abs(float(render_decimal(zeta_even_recursive(2), 18)) - zeta_series(4, 1e-13)) < 1e-10
    assert render_decimal(zeta_even_recursive(1), 1) == "1.6"


def test_render_decimal_is_truncation_not_rounding():
    # zeta(2) = 1.64493406684822643647...; rounding at 14 digits would end ...64
    assert render_decimal(zeta_even_recursive(1), 14) == "1.64493406684822"


def test_render_matches_series_to_1e15_for_first_five():
    for n in range(1, 6):
        rendered = float(render_decimal(zeta_even_recursive(n), 20))
        assert abs(rendered - zeta_series(2 * n, 1e-15)) < 1e-15


def test_render_decimal_handles_near_one_values():
    # zeta(100) = 1 + 7.9e-31: a long zero run after the point
    assert render_decimal(zeta_even_recursive(50), 10) == "1.0000000000"


@pytest.mark.parametrize("d", [10, 200])
def test_render_decimal_matches_mpmath_floor_through_80(d):
    # zeta(2n) - 1 ~ 4^-n, so past n ~ 20 at d = 10 the first guard block is
    # (nearly) all zeros and render_decimal has to widen its guard.
    retried = 0
    for n in range(1, 81):
        with mpmath.workdps(d + n + 40):
            scaled = mpmath.zeta(2 * n) * mpmath.mpf(10) ** d
            expected = int(mpmath.floor(scaled))
            guard_block = int(mpmath.floor(scaled * 10**12)) % 10**12
        text = render_decimal(zeta_even_recursive(n), d)
        assert text == f"{str(expected)[0]}.{str(expected)[1:]}", n
        retried += guard_block < 3 or guard_block > 10**12 - 3
    if d == 10:
        assert retried > 40


def test_fixed_point_product_error_bound_randomized():
    rng = random.Random(20120217)

    def operand(scale):
        """(x, a, e): an exact x >= 0, a perturbed fixed-point a >= 0, and e >= |a - x*scale|."""
        x = Fraction(rng.randint(0, 10 ** rng.randint(1, 30)), rng.randint(1, 10 ** rng.randint(1, 30)))
        spread = 10 ** rng.randint(0, 6)
        a = max(0, math.floor(x * scale) + rng.randint(-spread, spread))
        return x, a, math.ceil(abs(a - x * scale)) + rng.choice([0, 0, 1, 5])

    for _ in range(2000):
        scale = 10 ** rng.randint(1, 40)
        (x, a, a_err), (y, b, b_err) = operand(scale), operand(scale)
        c, c_err = exact._fixed_mul(a, a_err, b, b_err, scale)
        assert abs(c - x * y * scale) <= c_err


@pytest.mark.parametrize("n,precision", [(1, 5), (2, 30), (7, 25), (64, 60), (300, 40)])
def test_pi_power_error_bound_holds(n, precision):
    y, y_err = exact._pi_power_scaled(n, precision)
    with mpmath.workdps(precision + 2 * n + 40):
        truth = mpmath.pi ** (2 * n) * mpmath.mpf(10) ** precision
        assert abs(y - truth) <= y_err
    assert y_err * 10 ** (precision // 2) < y  # and the bound is not vacuous


def test_render_decimal_validation():
    v = zeta_even_recursive(1)
    with pytest.raises(ValueError):
        render_decimal(v, 0)
    with pytest.raises(ValueError):
        render_decimal(v, 100_001)


def test_alpha_value_type_is_plain_record():
    a = alpha_coeff(3, 1)
    assert isinstance(a, AlphaCoeff)
    assert (a.n, a.k) == (3, 1)
