import math
import random
from fractions import Fraction

import mpmath
import pytest

from zeta_recur import cli, exact, machin
from zeta_recur.machin import decimal_str, pi_scaled, truncated

PI_30 = "3.141592653589793238462643383279"


def test_first_digits():
    assert truncated(pi_scaled, 5) == "3.14159"
    assert truncated(pi_scaled, 1) == "3.1"


def test_matches_ieee_double_constant():
    # repr(math.pi) carries 15 digits after the point
    assert truncated(pi_scaled, 50)[:17] == repr(math.pi)[:17]


def test_thirty_digit_literal():
    assert truncated(pi_scaled, 30) == PI_30


def test_truncation_prefix_consistency():
    long = truncated(pi_scaled, 50)
    for d in (7, 20, 40):
        assert truncated(pi_scaled, d) == long[: d + 2]


def test_scaled_error_bound_is_honest():
    # compare a short scaled value against a much longer computation
    v, err = pi_scaled(25)
    v_ref, _ = pi_scaled(60)
    ref_units = v_ref // 10**35
    assert abs(v - ref_units) <= err + 1


def _count_series(monkeypatch) -> list[int]:
    """The scales of the arctangent series run from now on."""
    scales: list[int] = []
    arctan = machin._arctan_recip_scaled

    def counted(x, scale):
        scales.append(scale)
        return arctan(x, scale)

    monkeypatch.setattr(machin, "_arctan_recip_scaled", counted)
    return scales


def _within_bound(p: int, v: int, err: int) -> bool:
    """Whether |v - pi 10^p| <= err, proven from a fresh value twice as wide:
    |ref - pi 10^(2p)| <= ref_err, and ref_err < 10^p from p = 5 on."""
    ref, ref_err = pi_scaled(2 * p)
    return abs(v * 10**p - ref) + ref_err <= err * 10**p


@pytest.mark.parametrize("precisions,runs", [
    ([5, 8, 8, 12, 30, 31, 31, 57, 100, 250, 250], 8),  # each new precision runs it, each repeat does not
    ([57, 57, 57, 57], 1),  # one precision: only the first request runs it
    ([100, 100, 30, 30, 30, 100], 3),  # a narrower request and a return to a dropped one both run it
])
def test_memo_serves_every_precision_within_its_bound(monkeypatch, precisions, runs):
    scales = _count_series(monkeypatch)
    served = []

    def recorded(p, held=None):
        served.append((p, *pi_scaled(p, held)))
        return served[-1][1:]

    monkeypatch.setattr(exact, "pi_scaled", recorded)
    table = exact.Table()
    for p in precisions:
        exact._pi_power_scaled(1, p, table)
        assert table.pi[:3] == served[-1]  # the table holds the pi it was last served
    assert len(scales) == 2 * runs  # one arctan(1/5) and one arctan(1/239) per run
    assert [p for p, *_ in served] == precisions
    for p, v, err in served:
        assert _within_bound(p, v, err), p


def test_each_thread_table_holds_the_precision_it_last_asked(in_threads):
    # more threads than cores each walk their own table through seeded
    # precisions at once; a table that kept another precision, or took
    # another thread's pi, shows here
    requests = [random.Random(i).sample(range(40 + i, 400, 8), 30) for i in range(8)]
    tables = [exact.Table() for _ in requests]

    def walk(i):
        held = []
        for p in requests[i]:
            exact._pi_power_scaled(1, p, tables[i])
            held.append(tables[i].pi[:3])
        return held

    for ps, held in zip(requests, in_threads(walk, len(requests))):
        assert [p for p, *_ in held] == ps
        assert all(_within_bound(*pi) for pi in set(held))


def test_pi_scaled_serves_a_held_pi_only_at_its_own_precision(monkeypatch):
    # a held (P, V, E) answers p = P with no series run, and any other p runs
    # the series, so the digits cannot depend on what a caller holds
    with mpmath.workdps(1100):
        truth = mpmath.nstr(mpmath.pi, 1080, strip_zeros=False)
    held = (1012, *pi_scaled(1012))
    scales = _count_series(monkeypatch)
    for p in (1012, 1011, 1013, 5):
        scales.clear()
        got = pi_scaled(p, held)
        assert len(scales) == (0 if p == 1012 else 2), p
        assert got == pi_scaled(p)
    for d in (1, 30, 999, 1000):  # d = 1000 settles at guard 12, from the held pi
        assert truncated(lambda p: pi_scaled(p, held), d) == truth[: d + 2]


def test_even_table_runs_the_series_only_when_the_memo_widens(monkeypatch, capsys):
    scales = _count_series(monkeypatch)
    asked: list[int] = []
    pi = exact.pi_scaled
    monkeypatch.setattr(exact, "pi_scaled", lambda p, held=None: asked.append(p) or pi(p, held))
    assert cli.main(["even", "--n", "60", "--digits", "1000", "--format", "csv"]) == 0
    capsys.readouterr()
    assert len(asked) >= 60  # render_decimal still asks once per row and retry
    widenings = [p for i, p in enumerate(asked) if p > max(asked[:i], default=-1)]
    assert scales == [10**p for p in widenings for _ in range(2)]
    assert len(scales) < 6


@pytest.mark.parametrize("n,digits,products,series", [(150, 10, 174, 4), (60, 1000, 60, 1)])
def test_even_table_work_is_pinned(monkeypatch, capsys, n, digits, products, series):
    # the fixed-point products and Machin series runs of the benchmark's two
    # `even` tables: each guard runs the series once, and each row after a
    # guard's first multiplies the power it holds by pi^2 once
    scales = _count_series(monkeypatch)
    products_run = []
    fixed_mul = exact._fixed_mul
    monkeypatch.setattr(exact, "_fixed_mul", lambda *args: products_run.append(1) or fixed_mul(*args))
    assert cli.main(["even", "--n", str(n), "--digits", str(digits), "--format", "csv"]) == 0
    capsys.readouterr()
    assert (len(products_run), len(scales) // 2) == (products, series)


def test_deterministic():
    assert truncated(pi_scaled, 200) == truncated(pi_scaled, 200)


@pytest.mark.parametrize("d", [0, -3, 100_001])
def test_rejects_out_of_range(d):
    with pytest.raises(ValueError):
        truncated(pi_scaled, d)


def test_rejects_non_integer():
    with pytest.raises(ValueError):
        truncated(pi_scaled, 2.5)


def test_decimal_str_beyond_interpreter_conversion_limit():
    # 9001-digit value crosses several 4000-digit chunks
    n = 10**9000 + 12345
    assert decimal_str(n) == "1" + "0" * (9000 - 5) + "12345"
    assert decimal_str(7) == "7"


def test_pi_digits_large_request():
    text = truncated(pi_scaled, 6000)
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


def test_truncated_starts_from_the_given_guard():
    # a caller that knows the guard the value needs skips the narrower attempts
    requested = []

    def scaled(p):
        requested.append(p)
        return pi_scaled(p)

    assert truncated(scaled, 10, 48) == truncated(pi_scaled, 10)
    assert requested == [58]  # d + 48, settled at once
