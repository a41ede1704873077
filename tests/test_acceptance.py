"""Acceptance suite: each test prints one PASS/FAIL line for its criterion.

Run with `pytest tests/test_acceptance.py -v -s`.
"""

import io
import math
import time
from contextlib import redirect_stdout
from fractions import Fraction

from zeta_recur import cli
from zeta_recur.exact import bernoulli, render_decimal, zeta_even_euler, zeta_even_recursive
from zeta_recur.identities import (
    contour_closure,
    cot_power_integral,
    expanded_real_identity,
    verify_bose_integral,
    verify_eq5,
    verify_fermi_integral,
    verify_log2_identity,
    verify_odd_zeta,
    verify_zeta2,
    zeta_series,
)
from zeta_recur.quadrature import Segment, integrate_segment


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{criterion}] {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"{criterion}: {detail}"


def test_a01_exact_equivalence_through_50():
    start = time.perf_counter()
    mismatches = [
        n for n in range(1, 51)
        if zeta_even_recursive(n).coeff != zeta_even_euler(n).coeff
    ]
    elapsed = time.perf_counter() - start
    _report(
        "A01",
        not mismatches and elapsed < 5.0,
        f"recursion == Euler exactly for n in 1..50 ({elapsed:.2f}s, mismatches={mismatches})",
    )


def test_a02_basel_three_ways():
    exact_ok = zeta_even_recursive(1).coeff == Fraction(1, 6)
    quad = verify_bose_integral(2, 1e-10)
    contour = verify_zeta2(1e-9).lhs
    contour_res = abs(contour - zeta_series(2, 1e-12))
    ok = exact_ok and quad.passed and quad.residual < 1e-10 and contour_res < 1e-9
    _report(
        "A02",
        ok,
        f"zeta(2)=pi^2/6: exact q_1=1/6 {exact_ok}, integral residual {quad.residual:.2e}, "
        f"contour extraction residual {contour_res:.2e}",
    )


def test_a03_zeta4_zeta6():
    coeff_ok = (
        zeta_even_recursive(2).coeff == Fraction(1, 90)
        and zeta_even_euler(2).coeff == Fraction(1, 90)
        and zeta_even_recursive(3).coeff == Fraction(1, 945)
        and zeta_even_euler(3).coeff == Fraction(1, 945)
    )
    d4 = abs(float(render_decimal(zeta_even_recursive(2), 16)) - zeta_series(4, 1e-13))
    d6 = abs(float(render_decimal(zeta_even_recursive(3), 16)) - zeta_series(6, 1e-13))
    ok = coeff_ok and d4 < 1e-12 and d6 < 1e-12
    _report(
        "A03",
        ok,
        f"zeta(4)=pi^4/90 and zeta(6)=pi^6/945 both paths; decimal residuals {d4:.2e}, {d6:.2e}",
    )


def test_a04_fermi_weight_integral():
    reports = [verify_fermi_integral(s, 1e-9) for s in range(2, 11)]
    s2 = verify_fermi_integral(2, 1e-10)
    s2_res = abs(s2.lhs - math.pi**2 / 12.0)
    ok = all(r.passed for r in reports) and s2_res < 1e-10
    worst = max(r.residual for r in reports)
    _report(
        "A04",
        ok,
        f"alternating-weight integral for s in 2..10 (worst residual {worst:.2e}); "
        f"s=2 value vs pi^2/12: {s2_res:.2e}",
    )


def test_a05_cauchy_closure_and_right_side():
    start = time.perf_counter()
    closures = {s: abs(contour_closure(s, 30.0, 1e-9).closure) for s in range(2, 9)}
    closure_ok = all(c < 1e-9 for c in closures.values())

    radii = (10.0, 20.0, 30.0, 40.0)
    decreasing_ok = True
    for s in range(2, 9):
        mags = [
            abs(integrate_segment(s, Segment(complex(r), complex(r, math.pi)), 1e-11).value)
            for r in radii
        ]
        decreasing_ok = decreasing_ok and all(mags[i] > mags[i + 1] for i in range(3))

    # the flat 1e-10 bound at R=40 is a true statement only for s <= 5
    # (at s=6 the integral is ~9.8e-10); asserted where it holds, with the
    # s=2 case at the stricter 1e-12
    r40 = {
        s: abs(integrate_segment(s, Segment(complex(40.0), complex(40.0, math.pi)), 1e-12).value)
        for s in (2, 3, 4, 5)
    }
    small_ok = all(m < 1e-10 for m in r40.values()) and r40[2] < 1e-12
    elapsed = time.perf_counter() - start
    ok = closure_ok and decreasing_ok and small_ok and elapsed < 30.0
    _report(
        "A05",
        ok,
        f"closure < 1e-9 for s in 2..8 at R=30 (worst {max(closures.values()):.2e}); "
        f"right side strictly decreasing over R in 10..40; "
        f"< 1e-10 at R=40 for s in 2..5 (s=2: {r40[2]:.2e}); {elapsed:.1f}s",
    )


def test_a06_imaginary_part_log2():
    report = verify_log2_identity(1e-9)
    _report(
        "A06",
        report.passed and report.residual < 1e-9,
        f"pi ln 2 = (1/2) int_0^pi y sin y/(1-cos y) dy: residual {report.residual:.2e}",
    )


def test_a07_odd_zeta_extraction():
    residuals = {
        s: abs(verify_odd_zeta(s, 1e-8).lhs - zeta_series(s, 1e-13))
        for s in (3, 5, 7, 9)
    }
    k3 = cot_power_integral(3, 1e-11).value
    reduction = (2.0 * math.pi**2 * math.log(2.0) - k3) / 7.0
    reduction_res = abs(verify_odd_zeta(3, 1e-9).lhs - reduction)
    ok = all(r < 1e-7 for r in residuals.values()) and reduction_res < 1e-12
    _report(
        "A07",
        ok,
        f"odd zeta vs series (worst {max(residuals.values()):.2e} over s=3,5,7,9); "
        f"zeta(3)=(2 pi^2 ln2 - K(3))/7 residual {reduction_res:.2e}",
    )


def test_a08_recursion_numeric_shadow():
    residuals = {n: expanded_real_identity(2 * n, 1e-9).residual for n in range(1, 5)}
    ok = all(r < 1e-9 for r in residuals.values())
    _report(
        "A08",
        ok,
        f"expanded real part with exact q_m: residual < 1e-9 for n in 1..4 "
        f"(worst {max(residuals.values()):.2e})",
    )


def test_a09_partial_fraction_pointwise():
    report = verify_eq5(1e-14)
    _report(
        "A09",
        report.passed and report.lhs < 1e-14,
        f"partial fraction max residual over 1000 random points: {report.lhs:.2e}",
    )


def test_a10_property_suite():
    odd_ok = all(bernoulli(m) == 0 for m in range(3, 102, 2))
    b12_ok = bernoulli(12) == Fraction(-691, 2730)

    import random

    rng = random.Random(99)
    value = Fraction(1, 3)
    canon_ok = True
    for _ in range(10_000):
        other = Fraction(rng.randint(-30, 30), rng.randint(1, 30))
        op = rng.randrange(4)
        if op == 0:
            value = value + other
        elif op == 1:
            value = value - other
        elif op == 2:
            value = value * other
        elif other != 0:
            value = value / other
        canon_ok = canon_ok and value.denominator > 0 and math.gcd(abs(value.numerator), value.denominator) == 1
        if abs(value.numerator) > 10**40:
            value = Fraction(value.numerator % 1009, 1 + value.denominator % 1009)

    outputs = []
    for _ in range(2):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli.main(["even", "--n", "8", "--digits", "12"])
        outputs.append((code, buf.getvalue()))
    cli_ok = outputs[0] == outputs[1] and outputs[0][0] == 0

    ok = odd_ok and b12_ok and canon_ok and cli_ok
    _report(
        "A10",
        ok,
        f"odd Bernoulli vanish through 101: {odd_ok}; B_12=-691/2730: {b12_ok}; "
        f"canonical form over 1e4 ops: {canon_ok}; byte-deterministic CLI: {cli_ok}",
    )
