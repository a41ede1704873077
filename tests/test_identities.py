import cmath
import functools
import itertools
import math
import random
from fractions import Fraction

import pytest

from zeta_recur.exact import zeta_even_recursive
from zeta_recur.identities import (
    ContourReport,
    IdentityId,
    IdentityReport,
    Refused,
    contour_closure,
    cot_power_integral,
    eq9_components,
    expanded_real_identity,
    verify_bose_integral,
    verify_eq5,
    verify_eq9,
    verify_fermi_integral,
    verify_log2_identity,
    verify_odd_zeta,
    verify_zeta2,
    zeta_series,
)
from zeta_recur import identities, quadrature
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


@pytest.mark.parametrize("tol", [1e-40, 1e-300, 5e-324])
def test_series_clamps_its_tol_at_1e17(monkeypatch, tol):
    # below 1e-17 more terms no longer move a double zeta(2): the value is the
    # one at 1e-17, and N stops where it does there instead of doubling on
    head = identities._series_head

    def head_at_most_2048(s, n):
        assert n <= 2048, n
        return head(s, n)

    monkeypatch.setattr(identities, "_series_head", head_at_most_2048)
    assert repr(zeta_series(2, tol)) == repr(zeta_series(2, 1e-17))


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
    # fixed seed, both sides as exact integer fractions of the double e^t: they agree
    assert verify_eq5(1e-14).lhs == 0.0


def test_partial_fraction_passes_at_the_least_positive_tolerance():
    report = verify_eq5(5e-324)
    assert report.passed
    assert report.note == "max pointwise residual over 1000 samples, in exact rational arithmetic"


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


def starve(monkeypatch, name, budget):
    """Cap the integrals identities runs through quadrature's `name` at budget evaluations."""
    monkeypatch.setattr(identities, name,
                        functools.partial(getattr(quadrature, name), budget=budget))


@pytest.mark.parametrize("budget", [100, 1_000_000])
def test_contour_verdict_is_the_reports(monkeypatch, budget):
    starve(monkeypatch, "integrate_segment", budget)
    report = contour_closure(3, 30.0, 1e-9)
    assert report.tolerance == 1e-9
    assert report.passed == (report.converged and abs(report.closure) <= 1e-9)
    assert report.passed is (budget > 100)


def test_contour_note_names_why_it_failed(monkeypatch):
    assert contour_closure(3, 30.0, 1e-9).note == ""
    starve(monkeypatch, "integrate_segment", 100)
    starved = contour_closure(3, 30.0, 1e-9)
    assert starved.note == "quadrature did not converge; evaluation budget exhausted"

    def offset_side(s, seg, tol):
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


def test_eq9_scans_its_truncation_point_once(monkeypatch):
    # the refusal and A share one X = truncation_point(10, tol/8)
    scans = []
    for module in (quadrature, identities):
        monkeypatch.setattr(module, "truncation_point",
                            lambda s, tail_tol, scan=module.truncation_point:
                            scans.append((s, tail_tol)) or scan(s, tail_tol))
    assert verify_eq9(10, 1e-8).passed
    assert scans.count((10, 1.25e-09)) == 1, scans


def _record_requests(monkeypatch):
    """(name, its arguments but the integrand) of each quadrature identities asks for;
    tol is the last argument."""
    asked = []
    for name in ("integrate_finite", "integrate_semi_infinite", "integrate_segment",
                 "cot_power_integral"):
        def recorded(*args, name=name, run=getattr(identities, name)):
            asked.append((name, *(arg for arg in args if not callable(arg))))
            return run(*args)

        monkeypatch.setattr(identities, name, recorded)
    return asked


def test_each_check_asks_for_its_declared_split(monkeypatch):
    asked = _record_requests(monkeypatch)
    # eq2 and eq7 ask for their one integral at tol/2, and the least double for a subnormal tol
    for check in (verify_bose_integral, verify_fermi_integral):
        for tol, share in ((1e-9, 5e-10), (5e-324, 5e-324)):
            asked.clear()
            check(3, tol)
            assert asked == [("integrate_semi_infinite", 3, share)], check
    asked.clear()
    contour_closure(5, 20.0, 1e-9)
    assert [(name, tol) for name, *_, tol in asked] == [("integrate_segment", 2.5e-10)] * 4
    asked.clear()
    verify_zeta2(1e-9)
    assert [(name, tol) for name, *_, tol in asked] == [("integrate_segment", 2.5e-10)]
    for tol, share in ((1e-9, (1.25e-10, 2.5e-10)), (5e-324, (5e-324, 5e-324))):
        asked.clear()
        verify_log2_identity(tol)
        # cot_power_integral runs its K(2) through integrate_finite at the same tol
        assert asked == [("integrate_semi_infinite", 1, share[0]),
                         ("cot_power_integral", 2, share[1]),
                         ("integrate_finite", 0.0, math.pi, share[1])]
    # eq10 asks for K(s) at tol itself at odd s only, and a refused call for nothing
    for s, k_asked in ((5, [("cot_power_integral", 5, 1e-9)]), (4, [])):
        asked.clear()
        expanded_real_identity(s, 1e-9)
        assert asked == k_asked + [("integrate_finite", 0.0, math.pi, 1e-9)] * len(k_asked)
    asked.clear()
    with pytest.raises(Refused):
        expanded_real_identity(5, 1e-16)
    assert asked == []


_TOL_CHECKS = {  # each check's name in its refusals, and its arguments before tol
    "verify_bose_integral": ("verify_bose_integral", 3),
    "verify_fermi_integral": ("verify_fermi_integral", 3),
    "verify_eq5": ("verify_eq5",),
    "contour_closure": ("contour_closure", 3, 30.0),
    "eq9_components": ("eq9_components", 3),
    "verify_eq9": ("verify_eq9", 3),
    "verify_zeta2": ("verify_zeta2",),
    "verify_log2_identity": ("verify_log2_identity",),
    "expanded_real_identity": ("expanded_real_identity", 3),
    "verify_odd_zeta": ("verify_odd_zeta", 3),
}


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("check", _TOL_CHECKS)
def test_each_check_refuses_a_tol_not_finite_and_positive(monkeypatch, check, tol):
    # one rule for every check cli runs and eq9_components: Refused, naming the
    # check, before any quadrature, truncation scan, eq5 sample or cached term
    from zeta_recur import cli

    assert {name for name, _ in cli._CHECKS.values()} | {"eq9_components"} == set(_TOL_CHECKS)
    asked = _record_requests(monkeypatch)
    for name in ("truncation_point", "_eq5_points", "_eq10_sides"):
        monkeypatch.setattr(identities, name, lambda *args, name=name: asked.append(name))
    monkeypatch.setattr(quadrature, "_kept_run", lambda *args: asked.append("_kept_run"))
    name, *args = _TOL_CHECKS[check]
    with pytest.raises(Refused) as exc:
        getattr(identities, check)(*args, tol)
    assert str(exc.value) == f"{name} requires a finite tol > 0, got tol = {tol!r}"
    assert asked == []


@pytest.mark.parametrize("s,tol", [(2, 1e-9), (10, 1e-9), (30, 1e25)])
def test_eq9_asks_for_its_declared_split(monkeypatch, s, tol):
    # A on [0, X] at tol/8, each F(m) at tol / (4 s max(1, C(s-1, s-m) pi^(s-m))),
    # clamped at 5e-15 Gamma(m), to within one rounding, then C at tol/4
    asked = _record_requests(monkeypatch)
    eq9_components(s, tol)
    assert asked[0] == ("integrate_finite", 0.0, quadrature.truncation_point(s, tol / 8)[0],
                        tol / 8)
    for (name, m, f_tol), m_want in zip(asked[1:-1], range(s, 1, -1), strict=True):
        coef = math.comb(s - 1, s - m) * math.pi ** (s - m)
        want = max(tol / (4 * s * max(1.0, coef)), 5e-15 * math.factorial(m - 1))
        assert (name, m) == ("integrate_semi_infinite", m_want)
        assert abs(f_tol - want) <= math.ulp(want), (m, f_tol, want)
    assert (asked[-1][0], asked[-1][-1]) == ("integrate_segment", tol / 4)


@pytest.mark.parametrize("s,tol", [(2, 1e-9), (5, 1e-8), (10, 1e-6), (17, 1e7)])
def test_eq9_error_estimate_sums_its_integrals_and_tail(monkeypatch, s, tol):
    # A's estimate, each C(s-1,j) pi^j F(j)'s and C's, summed, plus A's tail bound
    ran = []
    for name in ("integrate_finite", "integrate_semi_infinite", "integrate_segment"):
        def recorded(*args, run=getattr(identities, name)):
            ran.append(run(*args))
            return ran[-1]

        monkeypatch.setattr(identities, name, recorded)
    comp = eq9_components(s, tol)
    a, *f, c = ran
    assert len(f) == s - 1
    f_errors = [math.comb(s - 1, j) * math.pi**j * q.error_estimate for j, q in enumerate(f)]
    want = math.fsum([a.error_estimate, *f_errors, c.error_estimate])
    assert comp.error_estimate == want + quadrature.truncation_point(s, tol / 8)[1]


@pytest.mark.parametrize("s,unclamped", [(8, [8]), (10, [])])
def test_eq9_warm_equals_cold(monkeypatch, s, unclamped):
    # A, every F(m) and C are kept in quadrature's store: the second call asks
    # for the same integrals, the F(m) above their floor only for the unclamped
    # m, evaluates no panel and returns the same components
    asked = _record_requests(monkeypatch)
    cold = eq9_components(s, 1e-9)
    cold_asked = asked.copy()
    asked.clear()
    panels = []
    monkeypatch.setattr(quadrature, "_gk21", lambda *args: panels.append(args[1:]))
    warm = eq9_components(s, 1e-9)
    assert warm == cold  # every field, error_estimate included
    assert asked == cold_asked and panels == []
    assert [m for name, m, *_, f_tol in asked if name == "integrate_semi_infinite"
            and f_tol != 5e-15 * math.factorial(m - 1)] == unclamped


def test_eq9_store_holds_only_its_bounded_runs(monkeypatch):
    # across every s eq9 accepts, at a tol just above its refusal floor, the
    # store keeps one run per integral: bose(s) and fermi(m) on [0, X] for X a
    # scan point, with m in 2..108, and C on 0 -> i pi, each filled once, and
    # holds at most 1,024 of them
    # (the search for an accepted tol ends when tol overflows, so an s that eq9
    # refuses at every tol fails here instead of hanging)
    filled = []

    def recorded(f, a, b, keep, run=quadrature._Refinement):
        filled.append((getattr(f, "family", None), a, b, keep))
        return run(f, a, b, keep)

    monkeypatch.setattr(quadrature, "_Refinement", recorded)
    accepted = []
    for s in range(2, 109):
        tol = 1e-9
        while tol < math.inf:
            try:
                eq9_components(s, tol)
                accepted.append(s)
                break
            except Refused:
                tol *= 10.0
    assert accepted == list(range(2, 109))
    scan = {float(x) for x in range(10, 755, 5)}
    info = quadrature._kept_run.cache_info()
    assert len(filled) == len(set(filled)) == info.misses
    assert info.currsize == min(info.misses, 1024) and info.hits > 0
    for (builder, s, *ends), a, b, keep in filled:
        assert keep, (builder, s)
        if builder is quadrature._segment_integrand:
            assert (*ends, a, b) == (0j, math.pi * 1j, 0.0, 1.0)
        else:
            assert (builder in (quadrature.bose, quadrature.fermi), a, b in scan) == (True, 0.0, True)
            assert 2 <= s <= 108


def test_eq9_from_threads_equals_serial(in_threads):
    # eight threads fill the store at once, from cold, each walking s in its
    # own order, and report what one thread does
    orders = [[2 + (i + 2 * k) % 9 for k in range(9)] for i in range(8)]
    serial = [[verify_eq9(s, 1e-9) for s in order] for order in orders]
    quadrature._kept_run.cache_clear()
    threaded = in_threads(lambda i: [verify_eq9(s, 1e-9) for s in orders[i]], len(orders))
    assert threaded == serial


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


def test_zeta2_report_fails_when_quadrature_does_not_converge(monkeypatch):
    starve(monkeypatch, "integrate_finite", 100)
    assert eq9_components(2, 1e-9).reason
    # s2 runs only C, which meets every tol s2 accepts in one panel: only a
    # budget below one panel starves it
    starve(monkeypatch, "integrate_segment", 20)
    report = verify_zeta2(1e-12)
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


def test_expanded_identity_failure_always_carries_a_reason(monkeypatch):
    # from s ~ 5 on these tolerances fall below the floor of eq10's summed terms
    # and are refused; a report that runs has an empty note exactly when it passes
    outcomes = set()
    for s in range(2, 25):
        for tol in (1e-8, 1e-12):
            try:
                report = expanded_real_identity(s, tol)
            except Refused:
                outcomes.add("refused")
                continue
            outcomes.add(report.passed)
            assert (report.note == "") == report.passed, report
    assert outcomes == {"refused", True}
    with monkeypatch.context() as patch:
        starve(patch, "integrate_finite", 20)  # K(5) needs one panel
        starved = expanded_real_identity(5, 1e-12)
    assert not starved.passed
    assert starved.note == "quadrature did not converge; evaluation budget exhausted"
    # a converged K(s) that is wrong leaves a residual, which the note names
    monkeypatch.setattr(identities, "cot_power_integral",
                        lambda s, tol: QuadratureResult(0.0, 0.0, 21))
    wrong = expanded_real_identity(5, 1e-12)
    assert not wrong.passed
    assert wrong.note == f"residual {wrong.residual:.3g} above tolerance 1e-12"


def test_expanded_identity_below_its_floor_never_passes():
    # a verify-sweep op whose residual lands within tol although the left side
    # is 3.57e-10 from the closed form: its floor, 9.98e-10, is above tol, so
    # it is refused before its terms are compared
    with pytest.raises(Refused) as exc:
        expanded_real_identity(10, 3.547471682440628e-10)
    assert str(exc.value) == (
        "expanded_real_identity requires tol >= 9.98e-10 at s = 10 (eps times the summed "
        "magnitudes of its terms: an estimate of their rounding, not a proven bound), "
        "got tol = 3.547471682440628e-10")


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
# K(s) against its closed form

@functools.cache
def _k_closed_form(s_max=41, terms=60):
    """{s: K(s)} for s = 2..s_max at 40 digits, K(s) = int_0^pi y^(s-1) cot(y/2) dy.

    pi cot(pi x) = 1/x - 2 sum_{k>=1} zeta(2k) x^(2k-1) on (0, 1/2], with y = 2 pi x,
    gives K(s) = pi^(s-1) [2/(s-1) - sum_{k>=1} 4^(1-k) zeta(2k)/(s+2k-1)], where
    zeta(2k) = q_k pi^(2k) and each q_k comes from one Table walk.  The k-th
    term is below 4^(1-k), so 60 terms leave about 1e-35 of K(s): no quadrature."""
    import mpmath as mp

    from zeta_recur.exact import Table

    table = Table()
    with mp.workdps(40):
        zeta = []
        for k in range(1, terms + 1):
            q = zeta_even_recursive(k, table=table).coeff
            zeta.append(mp.mpf(q.numerator) / q.denominator * mp.pi ** (2 * k))
        return {s: mp.pi ** (s - 1) * (mp.mpf(2) / (s - 1) - mp.fsum(
                    mp.mpf(4) ** -k * z / (s + 2 * k + 1) for k, z in enumerate(zeta)))
                for s in range(2, s_max + 1)}


def test_k_closed_form_against_mpmath_quadrature():
    import mpmath as mp

    k = _k_closed_form()
    with mp.workdps(40):
        assert abs(k[2] / (2 * mp.pi * mp.log(2)) - 1) < 1e-35  # K(2) = 2 pi ln 2
        for s in (3, 7, 20, 41):
            quad = mp.quad(lambda y: y ** (s - 1) * mp.cot(y / 2), [0, mp.pi])
            assert abs(quad / k[s] - 1) < 1e-30, s


@pytest.mark.parametrize("rel", [1e-4, 1e-8, 1e-12, 1e-15])
def test_cot_power_integral_within_tol_of_its_closed_form(rel):
    import mpmath as mp

    # K(m) >= 0 is the integral of |f|, so every panel's floor sums to about
    # 2 eps K(m): each tol down to 1e-15 K(m) must converge and be met
    for m, exact in _k_closed_form().items():
        tol = rel * float(exact)
        result = cot_power_integral(m, tol)
        assert result.converged, (m, result)
        assert abs(mp.mpf(result.value) - exact) <= tol, (m, result)


def test_cot_power_integral_below_its_floor_says_so():
    for m, exact in _k_closed_form().items():
        result = cot_power_integral(m, 1e-16 * float(exact))
        assert result.reason == ROUNDOFF_FLOOR, (m, result)


# ---------------------------------------------------------------------------
# odd zeta extraction

@pytest.mark.parametrize("s", [3, 5, 7])
def test_odd_zeta_extraction(s):
    extracted = verify_odd_zeta(s, 1e-8).lhs
    assert abs(extracted - zeta_series(s, 1e-13)) < 1e-8


def test_zeta3_reduction_formula():
    # the solved s=3 form: zeta(3) = (2 pi^2 ln 2 - K(3)) / 7
    k3 = cot_power_integral(3, 1e-11).value
    closed = (2.0 * math.pi**2 * math.log(2.0) - k3) / 7.0
    assert abs(verify_odd_zeta(3, 1e-9).lhs - closed) < 1e-12
    assert abs(closed - zeta_series(3, 1e-13)) < 1e-9


def test_odd_zeta_report():
    assert verify_odd_zeta(3, 1e-8).passed


def test_odd_zeta_rejects_bad_s():
    with pytest.raises(ValueError, match="verify_odd_zeta requires an odd s"):
        verify_odd_zeta(4, 1e-8)
    with pytest.raises(ValueError):
        verify_odd_zeta(1, 1e-8)


def test_fraction_free_weights_match_the_fraction_forms():
    # 1 - 2^(1-m) and 2 - 2^(1-m) round once in doubles, so both are correctly
    # rounded, as float() of the exact Fraction is
    from fractions import Fraction

    from zeta_recur.exact import gamma_int

    for m in range(1, 172):
        half = Fraction(1, 2 ** (m - 1))
        assert repr(identities._fermi_weight(m)) == repr(float(1 - half) * gamma_int(m)), m
        assert repr(identities._odd_divisor(m)) == repr(gamma_int(m) * float(2 - half)), m


def test_budget_starved_odd_extraction_names_its_reason(monkeypatch):
    # each K(m) meets its share in one panel: a budget below one panel ends the
    # chain with nothing extracted
    starve(monkeypatch, "integrate_finite", 20)
    report = verify_odd_zeta(21, 1e-8)
    assert not report.passed and math.isnan(report.lhs)
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
            value = verify_odd_zeta(s, tol).lhs
            assert repr(value) == repr(_odd_zeta_uniform_reference(s, tol)), (s, tol)


def test_odd_extraction_estimate_covers_the_error_within_tol():
    import mpmath as mp

    with mp.workdps(30):
        for s in range(3, 42, 2):
            exact = mp.zeta(s)
            for tol in ODD_TOLS:
                report = verify_odd_zeta(s, tol)
                assert report.reason == "", (s, tol)
                assert abs(mp.mpf(report.lhs) - exact) <= report.estimate <= tol, (s, tol)


def test_odd_extraction_asks_each_k_only_for_what_zeta_s_needs(monkeypatch):
    evaluations = []
    original = identities.cot_power_integral

    def counted(*args):
        result = original(*args)
        evaluations.append(result.evaluations)
        return result

    monkeypatch.setattr(identities, "cot_power_integral", counted)
    verify_odd_zeta(41, 1e-10)
    assert len(evaluations) == 20
    assert sum(evaluations) <= 600


# ---------------------------------------------------------------------------
# what s alone fixes, kept per process: the series head and the odd chain

def _series_n(s, tol):
    """zeta_series' N at (s, tol), by its doubling rule written out."""
    n = 8
    while s * (s + 1) * (s + 2) / (720.0 * float(n) ** (s + 3)) > 0.25 * tol:
        n *= 2
    return n


@pytest.mark.parametrize("s", [2, 3, 7, 41, 171])
def test_series_head_warm_equals_cold(s):
    # tight -> loose -> tight: every value is the fsum and tail written out here,
    # whether its head was summed by this call or stored by an earlier one
    for tol in (1e-17, 1e-6, 1e-17, 1e-12, 1e-6, 1e-12):
        n = _series_n(s, tol)
        nf = float(n)
        written_out = (math.fsum(k ** (-s) for k in range(1, n))
                       + (nf ** (1 - s) / (s - 1) + nf ** (-s) / 2.0 + s * nf ** (-s - 1) / 12.0))
        assert repr(zeta_series(s, tol)) == repr(written_out), (s, tol)


def test_series_heads_the_checks_reach_stay_under_the_bound(monkeypatch):
    # the checks ask for s in 2..171 at a series tol of at least 1e-17, so the
    # (s, N) they can reach are these, and they fit the store with room to spare
    reachable = {(s, n) for s in range(2, 172)
                 for n in itertools.takewhile(lambda n: n <= _series_n(s, 1e-17),
                                              (8 << i for i in itertools.count()))}
    assert max(n for s, n in reachable if s == 2) == 2048
    assert len(reachable) < identities._series_head.cache_info().maxsize
    asked = set()
    head = identities._series_head
    monkeypatch.setattr(identities, "_series_head", lambda s, n: asked.add((s, n)) or head(s, n))
    monkeypatch.setattr(identities, "_eq10_sides",
                        functools.cache(identities._eq10_sides.__wrapped__))
    for tol in (5e-324, 1e-300, 1e-12, 1e-2, 1e300):
        for s in (2, 3, 108):
            verify_bose_integral(s, tol)
            verify_fermi_integral(s, tol)
        for s in (3, 41, 171):
            verify_odd_zeta(s, tol)
    for s in (3, 171):
        expanded_real_identity(s, 1e300)
    verify_zeta2(1e-14)
    verify_zeta2(1e-2)
    assert asked and asked <= reachable, sorted(asked - reachable)


def test_eq10_sides_warm_equals_cold():
    # every field of an accepted eq10 report read off stored sides is the one
    # cold sides give, at each s the check accepts and a tol above its floor
    for s in range(2, 172):
        tol = max(1e-9, 4.0 * math.ulp(identities._eq10_sides(s)[2]))
        warm = expanded_real_identity(s, tol)
        identities._eq10_sides.cache_clear()
        cold = expanded_real_identity(s, tol)
        assert [repr(f) for f in cold] == [repr(f) for f in warm], (s, tol)
        assert (cold.passed, cold.note) == (warm.passed, warm.note), (s, tol)


def test_identities_keeps_exactly_its_three_s_only_caches():
    # each table that s alone fixes belongs to the one check that reads it:
    # eq10's sides, the odd chain with its rows, and the oracle's series heads
    cached = {name for name, obj in vars(identities).items() if hasattr(obj, "cache_info")}
    assert cached == {"_eq10_sides", "_odd_chain", "_series_head"}


def test_odd_chain_warm_equals_cold():
    # every field of a report built on a stored chain is the one a cold chain gives
    rng = random.Random("odd-chain")
    walk = [(rng.randrange(3, 172, 2), 10.0 ** rng.uniform(-13.0, -2.0)) for _ in range(40)]
    walk += [(s, tol) for s, tol in walk[:5]]
    warm = [verify_odd_zeta(s, tol) for s, tol in walk]
    for (s, tol), report in zip(walk, warm):
        identities._odd_chain.cache_clear()
        cold = verify_odd_zeta(s, tol)
        assert [repr(f) for f in cold] == [repr(f) for f in report], (s, tol)
        assert (cold.passed, cold.note) == (report.passed, report.note), (s, tol)


def test_odd_chain_holds_only_the_odd_s_the_check_accepts():
    for s in (1, 2, 4, 172, 173):
        with pytest.raises(Refused):
            verify_odd_zeta(s, 1e-8)
    assert identities._odd_chain.cache_info().currsize == 0
    for s in range(3, 172, 2):
        verify_odd_zeta(s, 1e-2)
    assert identities._odd_chain.cache_info().currsize == 85


def test_stored_oracle_and_chain_from_threads_equal_serial(in_threads):
    cases = [(s, 10.0 ** -(8 + i % 5)) for i, s in enumerate((3, 5, 21, 41, 41, 99, 171, 171))]

    def work(i):
        s, tol = cases[i]
        return [repr(tuple(r)) for r in (verify_odd_zeta(s, tol),
                                         verify_bose_integral(min(s, 108), tol))]

    serial = [work(i) for i in range(len(cases))]
    identities._odd_chain.cache_clear()
    identities._series_head.cache_clear()
    assert in_threads(work, len(cases)) == serial


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
    record = IdentityReport(IdentityId.EQ9, 3, 1 + 2j, 1.5 + 2j, 1e-9)
    fields = {"identity_id": IdentityId.EQ9, "s": 3, "lhs": 1 + 2j, "rhs": 1.5 + 2j,
              "tolerance": 1e-9, "reason": "", "estimate": 0.0, "remark": ""}
    return (record, IdentityReport(IdentityId.EQ9, 3, 1 + 2j, 1.5 + 2j, 1e-9),
            IdentityReport(IdentityId.EQ9, 4, 1 + 2j, 1.5 + 2j, 1e-9), fields,
            {"residual": abs(record.lhs - record.rhs), "passed": False,
             "note": "residual 0.5 above tolerance 1e-09"}, [])


def _contour_case(monkeypatch):
    # each side integrates 1 to its displacement, so the sides sum to exactly 0,
    # and stops at its roundoff floor
    monkeypatch.setattr(identities, "integrate_segment", lambda s, seg, tol:
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
    # both records derive passed and note from their fields by one rule; a
    # contour judges |closure| and neither its error estimate nor a remark
    rng = random.Random(1357)
    reasons = ["", "", ROUNDOFF_FLOOR, BUDGET_EXHAUSTED, f"{ROUNDOFF_FLOOR}; {BUDGET_EXHAUSTED}"]
    for _ in range(400):
        tol = 10.0 ** rng.uniform(-12, 0)
        lhs = rng.uniform(-5.0, 5.0)
        rhs = lhs + rng.choice((-1.0, 1.0)) * tol * 10.0 ** rng.uniform(-2, 2)
        reason = rng.choice(reasons)
        if rng.random() < 0.5:
            estimate, remark = 0.0, ""
            turn = cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
            sides = ((lhs - rhs) * turn, complex(0.0, rhs), complex(0.0, -rhs), 0j)
            report = ContourReport(2, 30.0, sides, 10.0 ** rng.uniform(-15, 2), 60, reason, tol)
            assert report.residual == abs(sum(sides))
        else:
            estimate = rng.choice([0.0, tol * 10.0 ** rng.uniform(-2, 2), math.inf])
            remark = rng.choice(["", "max pointwise residual over 1000 samples"])
            report = IdentityReport(IdentityId.EQ2, 2, lhs, rhs, tol, reason, estimate, remark)
            assert report.residual == abs(lhs - rhs)
        residual, note = report.residual, report.note
        assert report.passed == (not reason and residual <= tol and estimate <= tol)
        assert note.startswith("quadrature did not converge") == bool(reason and not remark)
        assert note.startswith(remark)
        # a failure names what exceeded tol, unless a stop reason already says why
        assert note.endswith(f"above tolerance {tol:.3g}") == (
            estimate > tol or not reason and residual > tol)
        assert bool(note) == bool(remark or not report.passed)


def test_converged_failure_names_its_residual():
    report = IdentityReport(IdentityId.EQ9, 3, 1.0, 1.5, 1e-9)
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
    report = IdentityReport(IdentityId.EQ7, 2, 1.0, 1.0, 1e-9, reason=BUDGET_EXHAUSTED)
    assert not report.passed
    assert report.note
