import math
import sys
import threading
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


def _forget_pi(monkeypatch):
    monkeypatch.setattr(machin, "_pi_widest", (-1, 0, 0))


def _count_series(monkeypatch) -> list[int]:
    """The scales of the arctangent series run from now on."""
    scales: list[int] = []
    arctan = machin._arctan_recip_scaled

    def counted(x, scale):
        scales.append(scale)
        return arctan(x, scale)

    monkeypatch.setattr(machin, "_arctan_recip_scaled", counted)
    return scales


@pytest.mark.parametrize("precisions,runs", [
    ([5, 8, 12, 30, 31, 57, 100, 250], 8),  # every request widens the memo
    ([250, 100, 57, 31, 30, 12, 8, 5], 1),  # every request after the first is cut from it
    ([30, 5, 100, 57, 250, 8, 31, 12], 3),
])
def test_memo_serves_every_precision_within_its_bound(monkeypatch, precisions, runs):
    _forget_pi(monkeypatch)
    scales = _count_series(monkeypatch)
    served = [(p, *pi_scaled(p)) for p in precisions]
    assert len(scales) == 2 * runs  # one arctan(1/5) and one arctan(1/239) per run
    for p, v, err in served:
        # a fresh value twice as wide: |ref - pi 10^(2p)| <= ref_err, so this
        # inequality proves |v - pi 10^p| <= err (ref_err < 10^p from p = 5 on)
        _forget_pi(monkeypatch)
        ref, ref_err = pi_scaled(2 * p)
        assert abs(v * 10**p - ref) + ref_err <= err * 10**p, p


def test_memo_never_narrows_under_concurrent_widening(monkeypatch):
    # more threads than cores widen the memo at once; a lost check-then-set
    # would leave a narrower tuple than the widest computed
    _forget_pi(monkeypatch)
    requests = [range(40 + offset, 400, 8) for offset in range(8)]
    start = threading.Barrier(len(requests))
    served: list[list[tuple[int, int]] | None] = [None] * len(requests)

    def worker(i):
        start.wait()
        served[i] = [pi_scaled(p) for p in requests[i]]

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
    assert machin._pi_widest[0] == max(max(ps) for ps in requests)
    _forget_pi(monkeypatch)
    ref, ref_err = pi_scaled(800)
    for ps, values in zip(requests, served):
        for p, (v, err) in zip(ps, values):
            assert abs(v * 10 ** (800 - p) - ref) + ref_err <= err * 10 ** (800 - p), p


def test_pi_digits_unchanged_by_a_wider_memo(monkeypatch):
    with mpmath.workdps(1100):
        truth = mpmath.nstr(mpmath.pi, 1080, strip_zeros=False)
    for d in (1, 30, 999, 1000):
        _forget_pi(monkeypatch)
        fresh = truncated(pi_scaled, d)
        pi_scaled(3000)
        assert truncated(pi_scaled, d) == fresh == truth[: d + 2]


def test_even_table_runs_the_series_only_when_the_memo_widens(monkeypatch, capsys):
    _forget_pi(monkeypatch)
    scales = _count_series(monkeypatch)
    asked: list[int] = []
    pi = exact.pi_scaled
    monkeypatch.setattr(exact, "pi_scaled", lambda p: asked.append(p) or pi(p))
    assert cli.main(["even", "--n", "60", "--digits", "1000", "--format", "csv"]) == 0
    capsys.readouterr()
    assert len(asked) >= 60  # render_decimal still asks once per row and retry
    widenings = [p for i, p in enumerate(asked) if p > max(asked[:i], default=-1)]
    assert scales == [10**p for p in widenings for _ in range(2)]
    assert len(scales) < 6


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
