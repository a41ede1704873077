import cmath
import math
import random
from decimal import Context, Decimal, localcontext
from fractions import Fraction

import pytest

from zeta_recur.exact import zeta_even_recursive
from zeta_recur.identities import (
    IdentityId,
    IdentityReport,
    contour_closure,
    cot_power_integral,
    eq9_components,
    expanded_real_identity,
    odd_zeta_from_contour,
    verify_bose_integral,
    verify_eq5,
    verify_eq9,
    verify_fermi_integral,
    verify_log2_identity,
    verify_odd_zeta,
    verify_zeta2,
    zeta_series,
)
from zeta_recur import identities
from zeta_recur.quadrature import (
    BUDGET_EXHAUSTED,
    ROUNDOFF_FLOOR,
    QuadratureResult,
    Segment,
    integrate_finite,
)


# ---------------------------------------------------------------------------
# series oracle

def test_series_values():
    assert abs(zeta_series(2, 1e-12) - 1.6449340668482264) < 1e-12
    assert abs(zeta_series(4, 1e-12) - 1.0823232337111382) < 1e-12
    assert abs(zeta_series(3, 1e-12) - 1.2020569031595943) < 1e-12


def test_series_self_consistency_doubling():
    # the tighter tolerance takes at least twice the terms at each of these s
    for s in (2, 3, 5):
        base = zeta_series(s, 1e-12)
        tighter = zeta_series(s, 1e-15)
        assert abs(base - tighter) < 1e-12


def test_series_matches_exact_decimal_route():
    from zeta_recur.exact import render_decimal

    assert abs(zeta_series(4, 1e-12) - float(render_decimal(zeta_even_recursive(2), 16))) < 1e-12


def test_series_rejects_bad_arguments():
    with pytest.raises(ValueError):
        zeta_series(1, 1e-9)
    with pytest.raises(ValueError):
        zeta_series(2, 0.0)


# ---------------------------------------------------------------------------
# weighted-series integrals

@pytest.mark.parametrize("s", range(2, 11))
def test_bose_integral_identity(s):
    report = verify_bose_integral(s, 1e-9)
    assert report.passed, report


@pytest.mark.parametrize("s", range(2, 11))
def test_fermi_integral_identity(s):
    report = verify_fermi_integral(s, 1e-9)
    assert report.passed, report


def test_bose_s2_is_basel():
    report = verify_bose_integral(2, 1e-10)
    assert report.passed
    assert abs(report.rhs - math.pi**2 / 6.0) < 1e-12


def test_fermi_s2_is_half_basel():
    report = verify_fermi_integral(2, 1e-10)
    assert report.passed
    assert abs(report.rhs - math.pi**2 / 12.0) < 1e-12


def test_partial_fraction_pointwise_at_40_digits():
    report = verify_eq5(1e-14)
    assert report.passed
    assert report.lhs < 1e-30  # max residual over the sample set; out of reach of doubles
    assert report.residual == report.lhs


def test_partial_fraction_residual_is_pinned():
    # fixed seed, correctly rounded decimal exp: the same maximum on every Python
    assert verify_eq5(1e-14).lhs == 4.669613e-38


def test_failing_partial_fraction_note_names_the_residual():
    assert verify_eq5(1e-40).note == ("max pointwise residual over 1000 samples; "
                                      "residual 4.67e-38 above tolerance 1e-40")


def _assert_exp60_is_decimal_exp(points):
    # the same sign, digits and exponent as decimal's correctly rounded exp
    wide = Context(prec=60)
    for t in points:
        assert identities._exp60(t, wide).as_tuple() == Decimal(t).exp(wide).as_tuple(), t


def _ulps_around(x, count=4):
    """The doubles within count ulps of x, x's nearest double included."""
    below = above = x
    out = [x]
    for _ in range(count):
        below, above = math.nextafter(below, 0.0), math.nextafter(above, math.inf)
        out += [below, above]
    return out


def test_exp60_on_the_partial_fraction_samples():
    _assert_exp60_is_decimal_exp(identities._eq5_points())


def test_exp60_on_seeded_draws():
    rng = random.Random(20240517)
    log_lo, log_hi = math.log(1e-6), math.log(30.0)
    draws = [rng.uniform(1e-6, 30.0) for _ in range(10_000)]
    draws += [math.exp(rng.uniform(log_lo, log_hi)) for _ in range(10_000)]
    _assert_exp60_is_decimal_exp(t for t in draws if 1e-6 < t <= 30.0)


def test_exp60_where_e_to_the_t_gains_a_digit():
    # near t = k ln 10, e^t crosses 10^k and the result's exponent steps
    with localcontext(Context(prec=40)):
        edges = [float(k * Decimal(10).ln()) for k in range(1, 14)]
    _assert_exp60_is_decimal_exp(t for x in edges for t in _ulps_around(x))


def test_exp60_around_multiples_of_ln2():
    with localcontext(Context(prec=40)):
        ln2 = Decimal(2).ln()
        points = [float(k * ln2) for k in range(1, 44)]
    _assert_exp60_is_decimal_exp(t for x in points for t in _ulps_around(x))


def test_exp60_around_powers_of_two():
    # at t = 2^j the number of squarings steps by one
    points = [2.0 ** j for j in range(-19, 5)]
    _assert_exp60_is_decimal_exp(t for x in points for t in _ulps_around(x) if 1e-6 < t <= 30.0)


def test_exp60_at_the_ends_of_its_domain():
    _assert_exp60_is_decimal_exp([1e-6, math.ulp(1e-6) + 1e-6, 30.0, math.nextafter(30.0, 0.0)])


@pytest.mark.parametrize("bits", [64, 128])
def test_exp60_retries_until_the_rounding_settles(monkeypatch, bits):
    # at 64 or 128 working bits N has at most 35 digits, too few to round to
    # 60, so every call doubles its bits until 256 settle it
    monkeypatch.setattr(identities, "_EXP_BITS", bits)
    rng = random.Random(bits)
    _assert_exp60_is_decimal_exp([1e-6, 30.0] + [rng.uniform(1e-6, 30.0) for _ in range(500)])
    assert verify_eq5(1e-14).lhs == 4.669613e-38


def test_floor_stopped_eq2_and_eq7_values_lie_within_their_estimates():
    # the floor-sum stop ends these integrals early: the value each reports must
    # still lie within its error estimate of the closed form
    import mpmath as mp

    from zeta_recur.quadrature import ROUNDOFF_FLOOR, bose, fermi, integrate_semi_infinite

    stopped = 0
    with mp.workdps(30):
        for s in range(2, 109):
            bose_exact = mp.gamma(s) * mp.zeta(s)
            for f, exact in ((bose(s), bose_exact),
                             (fermi(s), (1 - mp.mpf(2) ** (1 - s)) * bose_exact)):
                for tol in (5e-324, 1e-300, 1e-16, 1e-12, 1e-10, 1e-8):
                    # the request verify_bose_integral and verify_fermi_integral make
                    quad = integrate_semi_infinite(f, s, identities._share(0.5, tol))
                    if quad.reason == ROUNDOFF_FLOOR:
                        stopped += 1
                        assert abs(quad.value - exact) <= quad.error_estimate, (f, s, tol)
    assert stopped > 800


# ---------------------------------------------------------------------------
# contour closure

@pytest.mark.parametrize("s", range(2, 9))
@pytest.mark.parametrize("radius", [10.0, 20.0, 30.0])
def test_closure_vanishes(s, radius):
    report = contour_closure(s, radius, 1e-9)
    assert report.converged
    assert abs(report.closure) < 1e-9
    assert report.closure == sum(report.side_values)  # exactly as computed
    assert report.right_side_magnitude == abs(report.side_values[1])


def test_right_side_small_at_s2():
    report = contour_closure(2, 30.0, 1e-9)
    assert report.right_side_magnitude < 1e-10


@pytest.mark.parametrize("s", range(2, 9))
def test_right_side_decreasing_and_bounded(s):
    mags = [contour_closure(s, radius, 1e-9).right_side_magnitude for radius in (10.0, 20.0, 30.0)]
    assert mags[0] > mags[1] > mags[2]
    for radius, mag in zip((10.0, 20.0, 30.0), mags):
        # pi |R + i pi|^(s-1) / (e^R - 1): the side's length times the integrand's bound
        assert mag < math.pi * (radius**2 + math.pi**2) ** (0.5 * (s - 1)) / math.expm1(radius)


@pytest.mark.parametrize("budget", [100, 1_000_000])
def test_contour_verdict_is_the_reports(budget):
    report = contour_closure(3, 30.0, 1e-9, budget)
    assert report.tolerance == 1e-9
    assert report.passed == (report.converged and abs(report.closure) <= 1e-9)
    assert report.passed is (budget > 100)


def test_contour_note_names_why_it_failed(monkeypatch):
    assert contour_closure(3, 30.0, 1e-9).note == ""
    starved = contour_closure(3, 30.0, 1e-9, budget=100)
    assert starved.note == "quadrature did not converge; evaluation budget exhausted"

    def offset_side(s, seg, tol, budget):
        return QuadratureResult(1.0, 0.0, 15)

    monkeypatch.setattr(identities, "integrate_segment", offset_side)
    report = contour_closure(3, 30.0, 1e-9)
    assert (report.converged, report.passed) == (True, False)
    assert report.note == "closure magnitude 4 above tolerance 1e-09"


def test_contour_verdict_and_note_follow_from_the_stored_fields():
    report = contour_closure(3, 30.0, 1e-9)
    assert report._fields == ("s", "R", "side_values", "error_estimate", "evaluations",
                              "reason", "tolerance")
    tight = report._replace(tolerance=1e-30)
    assert not tight.passed
    assert tight.note == f"closure magnitude {abs(report.closure):.3g} above tolerance 1e-30"
    starved = report._replace(reason="evaluation budget exhausted")
    assert not starved.passed
    assert starved.note == "quadrature did not converge; evaluation budget exhausted"


def test_contour_rejects_bad_arguments():
    with pytest.raises(ValueError):
        contour_closure(1, 30.0, 1e-9)
    with pytest.raises(ValueError):
        contour_closure(2, -1.0, 1e-9)


# ---------------------------------------------------------------------------
# the limit identity A - B = C

@pytest.mark.parametrize("s", range(2, 9))
def test_limit_identity_residual(s):
    comp = eq9_components(s, 1e-9)
    assert not comp.reason
    assert abs(comp.a - comp.b - comp.c) < 1e-8


def test_limit_identity_report():
    report = verify_eq9(3, 1e-8)
    assert report.passed
    assert report.identity_id is IdentityId.EQ9


def test_s2_component_values():
    comp = eq9_components(2, 1e-10)
    z2 = zeta_series(2, 1e-13)
    assert abs((comp.a - comp.b).real - 1.5 * z2) < 1e-9
    assert abs(comp.c.real - math.pi**2 / 4.0) < 1e-10
    assert abs((comp.a - comp.b).imag - math.pi * math.log(2.0)) < 1e-9
    # Im C = (1/2) K(2)
    assert abs(comp.c.imag - 0.5 * cot_power_integral(2, 1e-11).value) < 1e-9


@pytest.mark.parametrize("s", range(2, 7))
def test_shifted_integral_two_evaluation_paths(s):
    # expansion route vs direct complex quadrature of (x+i pi)^(s-1)/(e^(x+i pi)-1)
    comp = eq9_components(s, 1e-9)
    direct = integrate_finite(
        lambda x: complex(x, math.pi) ** (s - 1) / (cmath.exp(complex(x, math.pi)) - 1.0),
        0.0,
        40.0,
        1e-10,
    )
    assert direct.converged
    assert abs(comp.b - direct.value) < 1e-8


# ---------------------------------------------------------------------------
# s = 2 extractions

def test_zeta2_extraction():
    extracted = verify_zeta2(1e-10).lhs
    assert abs(extracted - zeta_series(2, 1e-13)) < 1e-9
    assert abs(extracted * 6.0 / math.pi**2 - 1.0) < 1e-9


def test_zeta2_extraction_matches_exact_decimal():
    from zeta_recur.exact import render_decimal

    extracted = verify_zeta2(1e-10).lhs
    assert abs(extracted - float(render_decimal(zeta_even_recursive(1), 9))) < 1e-9


def test_zeta2_report():
    assert verify_zeta2(1e-9).passed


def test_zeta2_report_fails_when_quadrature_does_not_converge():
    assert eq9_components(2, 1e-9, 100).reason
    # s2 runs only C, which meets 1e-9 in one panel: a tighter tol needs more
    report = verify_zeta2(1e-12, budget=15)
    assert not report.passed
    assert report.note == "quadrature did not converge; evaluation budget exhausted"


def test_log2_identity():
    report = verify_log2_identity(1e-9)
    assert report.passed
    target = math.pi * math.log(2.0)
    assert abs(report.lhs - target) < 1e-9
    assert abs(report.rhs - target) < 1e-9
    assert abs(report.rhs / (0.5 * math.pi) / 2.0 - math.log(2.0)) < 1e-9


# ---------------------------------------------------------------------------
# expanded real part

def test_expanded_identity_s2_reduces_to_the_display():
    # at s=2 the left side must be (3/2) zeta(2) and the right side pi^2/4
    report = expanded_real_identity(2, 1e-10)
    assert report.passed
    assert abs(report.lhs - 1.5 * zeta_series(2, 1e-13)) < 1e-12
    assert abs(report.rhs - math.pi**2 / 4.0) < 1e-15


@pytest.mark.parametrize("s", [3, 4, 5, 6, 7, 8])
def test_expanded_identity_residual(s):
    report = expanded_real_identity(s, 1e-9)
    assert report.passed, report
    assert report.residual < 1e-9


def test_expanded_identity_s4_consistent_with_exact_value():
    # Gamma(4) zeta(4) enters the left side with zeta(4) = pi^4/90 exactly
    report = expanded_real_identity(4, 1e-9)
    assert report.passed
    assert abs(zeta_even_recursive(2).approx() - math.pi**4 / 90.0) < 1e-12


def test_expanded_terms_match_recursion_coefficients():
    # the even-j row eq10 and odd run: its coefficient of zeta(2n-2k) at j = 2k is
    # alpha(n,k) = (1 - 2^(1-2n+2k)) (-pi^2)^k C(2n-1,2k) Gamma(2n-2k)
    for n in range(1, 9):
        row = identities._real_part_row(2 * n)
        assert [j for j, _, _ in row] == list(range(0, 2 * n, 2))
        for j, ci, weight in row:
            k = j // 2
            alpha = ((1 - Fraction(1, 2 ** (2 * n - j - 1))) * (-1) ** k
                     * math.comb(2 * n - 1, j) * math.factorial(2 * n - j - 1))
            exact = float(alpha) * math.pi**j
            assert abs(ci * weight - exact) <= 8 * math.ulp(abs(exact))


def test_expanded_identity_failure_always_carries_a_reason():
    # from s ~ 5 on eq10 fails at these tolerances, some below the roundoff
    # floor of its summed terms; every failure must say why, never leave note empty
    seen = set()
    for s in range(2, 25):
        for tol in (1e-8, 1e-12):
            report = expanded_real_identity(s, tol)
            if report.passed:
                assert report.note == ""
                continue
            assert report.note, report
            assert f"residual {report.residual:.3g}, roundoff floor " in report.note
            seen.add("tolerance below roundoff floor" in report.note)
    starved = expanded_real_identity(5, 1e-12, budget=30)
    assert not starved.passed
    assert starved.note.startswith("quadrature did not converge; ")
    seen.add("tolerance below roundoff floor" in starved.note)
    assert seen == {True, False}


def test_expanded_identity_below_its_floor_never_passes():
    # a verify-sweep op whose residual lands within tol although the left side
    # is 3.57e-10 from the closed form: its floor, 1e-9, is above tol
    import mpmath as mp

    tol = 3.547471682440628e-10
    report = expanded_real_identity(10, tol)
    assert report.residual <= tol
    with mp.workdps(30):
        assert abs(report.lhs - mp.pi**10 / 20) > tol
    assert not report.passed
    assert report.note.startswith("tolerance below roundoff floor; ")


@pytest.mark.parametrize("s,tol", [(5, 1e-13), (7, 2e-12), (9, 1.2e-10)])
def test_expanded_identity_odd_inputs_add_no_residual(s, tol):
    # tol just above the floor of the summed terms (5.1e-14, 1.8e-12, 1.1e-10):
    # odd zeta inputs taken to 1e-13 left residuals of 1.6e-12, 3.8e-11 and 2.9e-10
    report = expanded_real_identity(s, tol)
    assert report.passed, report


def test_expanded_identity_rejects_small_s():
    with pytest.raises(ValueError):
        expanded_real_identity(1, 1e-9)


# ---------------------------------------------------------------------------
# odd zeta extraction

@pytest.mark.parametrize("s", [3, 5, 7])
def test_odd_zeta_extraction(s):
    extracted = odd_zeta_from_contour(s, 1e-8)
    assert abs(extracted - zeta_series(s, 1e-13)) < 1e-8


def test_zeta3_reduction_formula():
    # the solved s=3 form: zeta(3) = (2 pi^2 ln 2 - K(3)) / 7
    k3 = cot_power_integral(3, 1e-11).value
    closed = (2.0 * math.pi**2 * math.log(2.0) - k3) / 7.0
    assert abs(odd_zeta_from_contour(3, 1e-9) - closed) < 1e-12
    assert abs(closed - zeta_series(3, 1e-13)) < 1e-9


def test_odd_zeta_report():
    assert verify_odd_zeta(3, 1e-8).passed


def test_odd_zeta_rejects_bad_s():
    with pytest.raises(ValueError):
        odd_zeta_from_contour(4, 1e-8)
    with pytest.raises(ValueError):
        odd_zeta_from_contour(1, 1e-8)


def test_fraction_free_weights_match_the_fraction_forms():
    # 1 - 2^(1-m) and 2 - 2^(1-m) round once in doubles, so both are correctly
    # rounded, as float() of the exact Fraction is
    from fractions import Fraction

    from zeta_recur.exact import gamma_int

    for m in range(1, 172):
        half = Fraction(1, 2 ** (m - 1))
        assert repr(identities._fermi_weight(m)) == repr(float(1 - half) * gamma_int(m)), m
        assert repr(identities._odd_divisor(m)) == repr(gamma_int(m) * float(2 - half)), m


def test_budget_starved_odd_extraction_names_its_reason():
    report = verify_odd_zeta(21, 1e-8, budget=15)
    assert not report.passed
    assert report.note.startswith("quadrature did not converge; evaluation budget exhausted")


ODD_TOLS = (1e-8, 1e-9, 1e-10, 1e-11, 1e-12)


def _odd_zeta_uniform_reference(s, tol):
    """The extraction asking every K(m) for min(tol/2, 1e-10), with the Fraction
    weights: the reference the sensitivity-weighted requests must match."""
    from fractions import Fraction

    from zeta_recur.exact import gamma_int

    def fermi_weight(m):
        return float(1 - Fraction(1, 2 ** (m - 1))) * gamma_int(m)

    extracted = {}
    for m in range(3, s + 1, 2):
        divisor = gamma_int(m) * float(2 - Fraction(1, 2 ** (m - 1)))
        terms = []
        for j in range(2, m, 2):
            coef = math.comb(m - 1, j) * math.pi**j
            i_pow = (1, 1j, -1, -1j)[j % 4]
            f_j = math.log(2.0) if j == m - 1 else fermi_weight(m - j) * extracted[m - j]
            terms.append(coef * i_pow * f_j)
        known = math.fsum(terms)
        k_val = cot_power_integral(m, min(0.5 * tol, 1e-10)).value
        extracted[m] = (identities._k_coef(m) * k_val - known) / divisor
    return extracted[s]


def test_odd_extraction_bit_for_bit_against_uniform_requests():
    for s in range(3, 42, 2):
        for tol in ODD_TOLS:
            value = odd_zeta_from_contour(s, tol)
            assert repr(value) == repr(_odd_zeta_uniform_reference(s, tol)), (s, tol)


def test_odd_extraction_estimate_covers_the_error_within_tol():
    import mpmath as mp

    with mp.workdps(30):
        for s in range(3, 42, 2):
            exact = mp.zeta(s)
            for tol in ODD_TOLS:
                value, estimate, reason = identities._odd_extraction(s, tol, 1_000_000)
                assert reason == "", (s, tol)
                assert abs(mp.mpf(value) - exact) <= estimate <= tol, (s, tol)


def test_odd_extraction_asks_each_k_only_for_what_zeta_s_needs(monkeypatch):
    evaluations = []
    original = identities.cot_power_integral

    def counted(*args):
        result = original(*args)
        evaluations.append(result.evaluations)
        return result

    monkeypatch.setattr(identities, "cot_power_integral", counted)
    odd_zeta_from_contour(41, 1e-10)
    assert len(evaluations) == 20
    assert sum(evaluations) <= 600


# ---------------------------------------------------------------------------
# report invariants

def _quadrature_case(monkeypatch):
    record = QuadratureResult(0.5, 1e-3, 45, ROUNDOFF_FLOOR)
    fields = {"value": 0.5, "error_estimate": 1e-3, "evaluations": 45, "reason": ROUNDOFF_FLOOR}
    invalid = [lambda: QuadratureResult(0.5, 1e-3, 0),
               lambda: QuadratureResult(0.5, 1e-3, -1, ROUNDOFF_FLOOR),
               lambda: QuadratureResult(0.5, -1e-3, 45)]
    return (record, QuadratureResult(0.5, 1e-3, 45, ROUNDOFF_FLOOR),
            QuadratureResult(0.5, 1e-3, 46, ROUNDOFF_FLOOR), fields,
            {"converged": not record.reason}, invalid)


def _segment_case(monkeypatch):
    return (Segment(1 + 2j, 3j), Segment(1 + 2j, 3j), Segment(1 + 2j, 4j),
            {"start": 1 + 2j, "end": 3j}, {}, [lambda: Segment(3j, 3j)])


def _identity_case(monkeypatch):
    record = IdentityReport.from_sides(IdentityId.EQ9, 3, 1 + 2j, 1.5 + 2j, 1e-9)
    fields = {"identity_id": IdentityId.EQ9, "s": 3, "lhs": 1 + 2j, "rhs": 1.5 + 2j,
              "tolerance": 1e-9, "passed": False, "note": "residual 0.5 above tolerance 1e-09"}
    return (record, IdentityReport.from_sides(IdentityId.EQ9, 3, 1 + 2j, 1.5 + 2j, 1e-9),
            IdentityReport.from_sides(IdentityId.EQ9, 4, 1 + 2j, 1.5 + 2j, 1e-9), fields,
            {"residual": abs(record.lhs - record.rhs)}, [])


def _contour_case(monkeypatch):
    # each side integrates 1 to its displacement, so the sides sum to exactly 0,
    # and stops at its roundoff floor
    monkeypatch.setattr(identities, "integrate_segment", lambda s, seg, tol, budget:
                        QuadratureResult(seg.end - seg.start, 1e-12, 15, ROUNDOFF_FLOOR))
    record = contour_closure(2, 30.0, 1e-9)
    sides = (30 + 0j, math.pi * 1j, -30 + 0j, -math.pi * 1j)
    fields = {"s": 2, "R": 30.0, "side_values": sides, "error_estimate": 4e-12,
              "evaluations": 60, "tolerance": 1e-9, "passed": False,
              "note": "quadrature did not converge; roundoff floor"}
    bottom, right, top, left = record.side_values
    derived = {"closure": bottom + right + top + left, "right_side_magnitude": abs(right),
               "converged": False}
    return (record, contour_closure(2, 30.0, 1e-9), contour_closure(2, 30.0, 1e-8), fields,
            derived, [])


def _limit_case(monkeypatch):
    record = identities.LimitComponents(1 + 1j, 0.5j, 1 + 0.5j, 1e-10, BUDGET_EXHAUSTED)
    fields = {"a": 1 + 1j, "b": 0.5j, "c": 1 + 0.5j, "error_estimate": 1e-10,
              "reason": BUDGET_EXHAUSTED}
    return (record, identities.LimitComponents(1 + 1j, 0.5j, 1 + 0.5j, 1e-10, BUDGET_EXHAUSTED),
            identities.LimitComponents(1 + 1j, 0.5j, 1 + 0.5j, 2e-10, BUDGET_EXHAUSTED), fields,
            {}, [])


@pytest.mark.parametrize("case", [_quadrature_case, _segment_case, _identity_case, _contour_case,
                                  _limit_case])
def test_record_contract(case, monkeypatch):
    # a record is an immutable, hashable value compared field by field; each
    # derived property agrees with the fields it is computed from, and a
    # record's own checks refuse what it must never hold
    record, twin, other, fields, derived, invalid = case(monkeypatch)
    assert {name: getattr(record, name) for name in fields} == fields
    assert record == twin and hash(record) == hash(twin)
    assert record != other
    for name in (*fields, *derived, "other"):
        with pytest.raises(AttributeError):
            setattr(record, name, 1)
    assert {name: getattr(record, name) for name in derived} == derived
    for make in invalid:
        with pytest.raises(ValueError):
            make()


def test_report_invariants_hold_on_random_sides():
    rng = random.Random(1357)
    for _ in range(200):
        lhs = rng.uniform(-5.0, 5.0)
        rhs = rng.uniform(-5.0, 5.0)
        tol = 10.0 ** rng.uniform(-12, 0)
        report = IdentityReport.from_sides(IdentityId.EQ2, 2, lhs, rhs, tol)
        assert report.residual == abs(lhs - rhs)
        assert report.passed == (report.residual <= report.tolerance)


def test_report_floor_writes_both_reasons():
    report = IdentityReport.from_sides(IdentityId.EQ10_NUMERIC, 3, 1.0, 1.5, 1e-9, floor=1.5e-9)
    assert not report.passed
    assert report.note == "tolerance below roundoff floor; residual 0.5, roundoff floor 1.5e-09"
    report = IdentityReport.from_sides(IdentityId.EQ10_NUMERIC, 3, 1.0, 1.5, 1e-9, floor=1e-10,
                                       reason=BUDGET_EXHAUSTED)
    assert report.note == ("quadrature did not converge; evaluation budget exhausted; "
                           "residual 0.5, roundoff floor 1e-10")
    assert IdentityReport.from_sides(IdentityId.EQ10_NUMERIC, 3, 1.0, 1.0, 1e-9, floor=1e-10).note == ""
    # a residual within a tolerance below the floor is luck, not a pass
    report = IdentityReport.from_sides(IdentityId.EQ10_NUMERIC, 3, 1.0, 1.0, 1e-9, floor=1.0)
    assert not report.passed
    assert report.note == "tolerance below roundoff floor; residual 0, roundoff floor 1"


def test_converged_failure_names_its_residual():
    report = IdentityReport.from_sides(IdentityId.EQ9, 3, 1.0, 1.5, 1e-9)
    assert report.note == "residual 0.5 above tolerance 1e-09"
    # eq9's F(j) requests are clamped above their floor, so converged pieces
    # can still leave a residual above tol
    report = verify_eq9(14, 3.3e-5)
    assert not report.passed and report.note.startswith("residual ")


def test_oracle_tolerance_scales_with_the_weight():
    import mpmath as mp

    report = verify_fermi_integral(8, 1.41e-11)
    assert report.passed, report
    with mp.workdps(30):
        exact = (1 - mp.mpf(2) ** -7) * mp.gamma(8) * mp.zeta(8)
        assert abs(report.rhs - exact) < 1.41e-12


def test_report_unconverged_never_passes():
    report = IdentityReport.from_sides(IdentityId.EQ7, 2, 1.0, 1.0, 1e-9,
                                       reason=BUDGET_EXHAUSTED)
    assert not report.passed
    assert report.note
