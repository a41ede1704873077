import gc
import math
import random
from fractions import Fraction

import mpmath
import pytest

from zeta_recur import exact
from zeta_recur.exact import (
    Table,
    ZetaEvenValue,
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
    table = Table()
    for m in range(1, 201):
        assert sum(math.comb(m + 1, k) * bernoulli(k, table=table) for k in range(m + 1)) == 0


def test_bernoulli_table_grows_only_as_far_as_asked():
    # each request past the table adds just the tangent numbers it needs
    table = Table()
    top = 0
    for m in (*range(301), 7, 120):
        bernoulli(m, table=table)
        top = max(top, m)
        assert len(table.tangent) == top // 2  # T_1 .. T_(top // 2)
        assert len(table.bernoulli) == 2 * (top // 2) + 2  # B_0 .. B_(2 (top // 2) + 1)
    assert bernoulli(300, table=table) == bernoulli(300) == Fraction(*mpmath.bernfrac(300))


def test_bernoulli_table_consistent_under_concurrent_growth(in_threads):
    # more threads than cores each grow their own table in many small steps,
    # interleaved; a table that took another's step would fall out of step
    requests = [range(offset, 201, 2) for offset in range(8)]
    tables = [Table() for _ in requests]
    seen = in_threads(lambda i: [bernoulli(m, table=tables[i]) for m in requests[i]], len(requests))
    for ms, table, values in zip(requests, tables, seen):
        assert len(table.tangent) == ms[-1] // 2
        assert len(table.bernoulli) == 2 * (ms[-1] // 2) + 2
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


def _alpha(n: int, k: int) -> Fraction:
    """Rational part of alpha(n,k) = (1 - 2^(1-2n+2k)) (-pi^2)^k C(2n-1,2k) Gamma(2n-2k),
    the coefficient of q_(n-k) in the contour recursion (docs/derivation.md, eq. 11)."""
    return ((1 - Fraction(1, 2 ** (2 * n - 2 * k - 1))) * (-1) ** k
            * math.comb(2 * n - 1, 2 * k) * gamma_int(2 * n - 2 * k))


def test_alpha_coefficients_by_hand():
    assert _alpha(1, 0) == Fraction(1, 2)
    assert _alpha(2, 1) == Fraction(-3, 2)
    assert _alpha(2, 0) == Fraction(21, 4)  # (7/8) * 6


def test_alpha_matches_definition_on_grid():
    # C(2n-1,2k) Gamma(2n-2k) = (2n-1)!/(2k)!, the step that leaves the rescaled
    # recursion integer coefficients
    for n in range(1, 9):
        for k in range(n):
            rescaled = Fraction(math.factorial(2 * n - 1), math.factorial(2 * k))
            assert _alpha(n, k) == (1 - Fraction(2, 4 ** (n - k))) * (-1) ** k * rescaled


def test_recursion_satisfies_the_contour_identity():
    # Gamma(2n) q_n + sum_{k=0}^{n-1} alpha(n,k) q_(n-k) = (-1)^(n-1) / (4n), exactly
    q = [None] + [zeta_even_recursive(m).coeff for m in range(1, 41)]
    for n in range(1, 41):
        lhs = gamma_int(2 * n) * q[n] + sum(_alpha(n, k) * q[n - k] for k in range(n))
        assert lhs == Fraction((-1) ** (n - 1), 4 * n)


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
    table = Table()
    for n in range(1, 201):
        assert zeta_even_recursive(n, table=table).coeff == zeta_even_euler(n, table=table).coeff


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


def test_triangle_equals_the_term_by_term_recursion_through_200():
    # grown in one step, and row by row as a table is walked
    jumped, walked = Table(), Table()
    zeta_even_recursive(200, table=jumped)
    for n in range(1, 201):
        zeta_even_recursive(n, table=walked)
    assert jumped.b == walked.b == _reference_b(200)
    assert jumped.diagonal == walked.diagonal and jumped.scale == walked.scale


def test_triangle_consistent_under_concurrent_growth(in_threads):
    # more threads than cores each grow their own triangle in small interleaved
    # steps; a table that took another's step would leave a b_m or the diagonal out of step
    requests = [range(offset, 121, 8) for offset in range(1, 9)]
    tables = [Table() for _ in requests]
    seen = in_threads(lambda i: [zeta_even_recursive(n, table=tables[i]).coeff for n in requests[i]],
                      len(requests))
    reference = _reference_b(120)
    euler = Table()
    for ns, table, values in zip(requests, tables, seen):
        assert table.b == reference[:ns[-1]]
        assert len(table.diagonal) == 2 * len(table.b) + 1
        assert values == [zeta_even_euler(n, table=euler).coeff for n in ns]


def test_imaginary_part_at_odd_s_gives_the_same_coefficients_through_200():
    # a third exact route, sharing no arithmetic with the triangle or the tangent
    # numbers: Im (9) at s = 2n+1 (docs/derivation.md), where K(s) drops out,
    #   sum_{k=0}^{n-1} (-1)^k C(2n,2k+1) (1 - 2^(1-2(n-k))) Gamma(2(n-k)) q_(n-k)
    #       = (-1)^(n+1) / (2(2n+1)),
    # solved for its k = 0 term, whose weight 2n (1 - 2^(1-2n)) (2n-1)! is positive
    q = [None]
    table = Table()
    for n in range(1, 201):
        rest = sum((-1) ** k * math.comb(2 * n, 2 * k + 1) * (1 - Fraction(2, 4 ** (n - k)))
                   * math.factorial(2 * (n - k) - 1) * q[n - k] for k in range(1, n))
        weight = 2 * n * (1 - Fraction(2, 4 ** n)) * math.factorial(2 * n - 1)
        q.append((Fraction((-1) ** (n + 1), 2 * (2 * n + 1)) - rest) / weight)
        assert q[n] == zeta_even_recursive(n, table=table).coeff, n


def test_b_is_the_signed_bernoulli_number_through_300():
    # b_n = 2^(1-2n) (2n)! q_n = (-1)^(n+1) B_2n: what `even` compares for recursion == Euler
    walked, euler = Table(), Table()
    for n in range(1, 301):
        zeta_even_recursive(n, table=walked)
        assert walked.b[n - 1] == (-1) ** (n + 1) * bernoulli(2 * n, table=euler), n


def test_recursion_touches_no_bernoulli_or_tangent_numbers(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the contour recursion must stay independent of Euler's route")

    monkeypatch.setattr(exact, "bernoulli", forbidden)
    monkeypatch.setattr(exact, "_tangent_numbers", forbidden)
    table = Table()
    coeffs = [zeta_even_recursive(n, table=table).coeff for n in range(1, 31)]
    one_shot = zeta_even_recursive(30).coeff
    monkeypatch.undo()
    assert table.tangent == [] and table.bernoulli == [1, Fraction(-1, 2)]
    # checked against the unpatched Euler values
    assert coeffs == [zeta_even_euler(n).coeff for n in range(1, 31)]
    assert one_shot == coeffs[-1]


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


def test_approx_along_one_table_is_the_one_shot_value():
    table = Table()
    for n in range(1, 201):
        value = zeta_even_recursive(n, table=table)
        assert value.approx(table=table) == value.approx(), n


def test_zeta_even_value_contract():
    # a value is an immutable, hashable record compared field by field
    v = ZetaEvenValue(2, Fraction(1, 90))
    assert repr(v) == "ZetaEvenValue(n=2, coeff=Fraction(1, 90))"
    twin = ZetaEvenValue(2, Fraction(2, 180))
    assert v == twin and hash(v) == hash(twin)
    assert len({v, twin, zeta_even_recursive(2), zeta_even_euler(2)}) == 1
    assert v != ZetaEvenValue(3, Fraction(1, 90))
    assert v != ZetaEvenValue(2, Fraction(1, 91))
    assert (v.n, v.coeff) == (2, Fraction(1, 90))
    for name in ("n", "coeff", "other"):
        with pytest.raises(AttributeError):
            setattr(v, name, 1)
    assert v == ZetaEvenValue(2, Fraction(1, 90))


def test_zeta_even_value_validation():
    with pytest.raises(ValueError, match="n must be >= 1"):
        ZetaEvenValue(0, Fraction(1, 6))
    with pytest.raises(ValueError, match="coefficient must be positive"):
        ZetaEvenValue(1, Fraction(-1, 6))
    with pytest.raises(ValueError, match="coefficient must be positive"):
        ZetaEvenValue(1, Fraction(0))
    with pytest.raises(ValueError):
        zeta_even_recursive(0)
    with pytest.raises(ValueError):
        zeta_even_euler(-3)


def _walk(d: int, table: Table, n: int) -> tuple[Fraction, str]:
    """Row n of an ``even`` table at d digits, walked through ``table``."""
    value = zeta_even_recursive(n, table=table)
    return zeta_even_euler(n, table=table).coeff, render_decimal(value, d, table=table)


def test_memo_tables_are_thread_safe_and_deterministic(in_threads):
    # tables at mixed digits, walked in interleaved steps by one thread and by
    # threads that each own one, must print what one-shot calls print
    digits = (10, 30, 10, 200, 12, 30, 10, 200)
    one_shot = {d: [(zeta_even_euler(n).coeff, render_decimal(zeta_even_recursive(n), d))
                    for n in range(1, 41)] for d in set(digits)}
    interleaved = [Table() for _ in digits]
    lockstep = [[_walk(d, table, n) for d, table in zip(digits, interleaved)] for n in range(1, 41)]
    owned = [Table() for _ in digits]
    threaded = in_threads(lambda i: [_walk(digits[i], owned[i], n) for n in range(1, 41)],
                          len(digits))
    for i, d in enumerate(digits):
        assert [row[i] for row in lockstep] == threaded[i] == one_shot[d]


def test_commands_leave_the_modules_as_they_were(capsys):
    # each command walks a table of its own, so a run rebinds and grows nothing
    # at module level, no module binds a mutable container a run could grow,
    # and no table outlives the call that built it
    from zeta_recur import cli, machin

    before = [dict(vars(module)) for module in (exact, machin)]
    assert cli.main(["even", "--n", "200", "--digits", "30"]) == 0
    assert cli.main(["bernoulli", "--n", "300"]) == 0
    capsys.readouterr()
    for module, names in zip((exact, machin), before):
        assert vars(module).keys() == names.keys()
        assert [name for name, value in names.items() if vars(module)[name] is not value] == []
        assert [name for name, value in names.items() if name != "__builtins__"
                and isinstance(value, (list, dict, set, bytearray))] == []
    # a table changes no value: one-shot calls give the same, and keep nothing
    table = Table()
    for n in range(1, 61):
        walked = zeta_even_recursive(n, table=table)
        assert walked == zeta_even_recursive(n)
        assert zeta_even_euler(n, table=table) == zeta_even_euler(n) == walked
        assert bernoulli(2 * n, table=table) == bernoulli(2 * n)
        assert render_decimal(walked, 30, table=table) == render_decimal(walked, 30)
    gc.collect()
    assert [obj for obj in gc.get_objects() if isinstance(obj, Table)] == [table]


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
    table = Table()
    for n in range(1, 81):
        with mpmath.workdps(d + n + 40):
            scaled = mpmath.zeta(2 * n) * mpmath.mpf(10) ** d
            expected = int(mpmath.floor(scaled))
            guard_block = int(mpmath.floor(scaled * 10**12)) % 10**12
        text = render_decimal(zeta_even_recursive(n, table=table), d, table=table)
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
    y, y_err = exact._pi_power_scaled(n, precision, Table())
    with mpmath.workdps(precision + 2 * n + 40):
        truth = mpmath.pi ** (2 * n) * mpmath.mpf(10) ** precision
        assert abs(y - truth) <= y_err
    assert y_err * 10 ** (precision // 2) < y  # and the bound is not vacuous


def _pi_power_requests(rng: random.Random) -> list[tuple[int, int]]:
    """Seeded (n, precision) runs: steps up, repeats, steps down and gaps, at
    interleaved precisions."""
    precisions = [5, 23, 42, 54, 78, 126, 222, 301, 412, 1032]
    requests = []
    for _ in range(60):
        p = rng.choice(precisions)
        n = rng.randint(1, 120)
        for _ in range(rng.randint(1, 6)):
            requests.append((n, p))
            n = max(1, n + rng.choice((1, 1, 1, 0, -1, -7, 2, 5, 40)))
    return requests


def test_pi_power_memo_keeps_the_bound_on_every_path():
    table = Table()
    for n, precision in _pi_power_requests(random.Random(20120217)):
        y, y_err = exact._pi_power_scaled(n, precision, table)
        with mpmath.workdps(precision + 2 * n + 40):
            assert abs(y - mpmath.pi ** (2 * n) * mpmath.mpf(10) ** precision) <= y_err, (n, precision)
        # the table holds pi and the power of the last request, at its precision
        _, v, v_err = table.pi[:3]
        assert table.pi[:3] == (precision, *exact.pi_scaled(precision))
        assert table.pi[3:6] == (n, y, y_err)
        # and the bound is not vacuous: either path leaves pi^(2n) with about 2n
        # times the relative error of the pi it was built from, never more than 3n
        assert y_err * v <= 3 * n * v_err * y, (n, precision)


def test_render_decimal_matches_mpmath_floor_along_memo_paths():
    # guard retries at d = 10 reach a table's wider precisions out of row order
    table = Table()
    rng = random.Random(2012)
    for n, p in _pi_power_requests(rng)[:150]:
        d = rng.choice((10, 10, p))
        with mpmath.workdps(d + n + 40):
            expected = int(mpmath.floor(mpmath.zeta(2 * n) * mpmath.mpf(10) ** d))
        value = zeta_even_recursive(n, table=table)
        assert render_decimal(value, d, table=table) == f"{str(expected)[0]}.{str(expected)[1:]}"


def test_render_guard_carries_along_a_table(monkeypatch):
    # past n ~ 20 at d = 10 every row needs a guard above 12; a table starts
    # each row from the last guard that settled, so the retries are paid once
    asked: list[int] = []
    pi = exact.pi_scaled
    monkeypatch.setattr(exact, "pi_scaled", lambda p, held=None: asked.append(p) or pi(p, held))
    table = Table()
    guards = []
    for n in range(1, 151):
        render_decimal(zeta_even_recursive(n, table=table), 10, table=table)
        assert len(asked) <= n + 8, n  # a cold start on every row makes 414 calls by n = 150
        guards.append(table.guard)
    assert guards == sorted(guards) and guards[0] == 12 and guards[-1] > 48


def test_render_guard_carried_down_the_rows_keeps_the_digits():
    # eq10 walks one table from its largest n down, so every row after the
    # first starts from a guard wider than it needs
    table = Table()
    for n in range(85, 0, -1):
        with mpmath.workdps(17 + n + 40):
            expected = int(mpmath.floor(mpmath.zeta(2 * n) * mpmath.mpf(10) ** 17))
        assert zeta_even_recursive(n, table=table).approx(table=table) == expected / 10**17, n
    assert table.guard > 12


def test_render_decimal_validation():
    v = zeta_even_recursive(1)
    with pytest.raises(ValueError):
        render_decimal(v, 0)
    with pytest.raises(ValueError):
        render_decimal(v, 100_001)
