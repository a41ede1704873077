import cmath
import contextlib
import heapq
import math
import random
import time
from fractions import Fraction

import mpmath as mp
import pytest

from zeta_recur import quadrature
from zeta_recur.quadrature import (
    QuadratureResult,
    Segment,
    bose,
    cot_power,
    fermi,
    integrate_finite,
    integrate_segment,
    integrate_semi_infinite,
    tail_bound,
    truncation_point,
)

# frozen dev-time oracle: trapezoid rule at 1e7 points for
# int_0^pi y sin y / (1 - cos y) dy; its own discretization error is ~7e-10
TRAPEZOID_ORACLE_1E7 = 4.3551721813170365


# ---------------------------------------------------------------------------
# integrand stability

def test_bose_limit_and_point_values():
    assert abs(bose(2)(1e-12) - 1.0) < 1e-9  # x/(e^x-1) -> 1
    assert abs(bose(2)(1.0) - 1.0 / (math.e - 1.0)) < 5e-16
    # series: x^2/(e^x-1) = x (1 - x/2 + ...); naive e^x-1 would lose ~8 digits
    assert abs(bose(3)(1e-8) - 1e-8 * (1.0 - 5e-9)) < 1e-23


def test_bose_rejects_bad_arguments():
    with pytest.raises(ValueError):
        bose(2)(0.0)
    with pytest.raises(ValueError):
        bose(2)(-1.0)
    with pytest.raises(ValueError):
        bose(1)


def test_fermi_point_values():
    assert fermi(1)(0.0) == 0.5
    assert fermi(2)(0.0) == 0.0
    assert abs(fermi(2)(1.0) - 1.0 / (math.e + 1.0)) < 5e-16


def test_fermi_no_overflow_far_out():
    assert fermi(3)(800.0) == 0.0
    assert math.isfinite(fermi(10)(700.0))


def test_fermi_rejects_bad_arguments():
    with pytest.raises(ValueError):
        fermi(2)(-0.5)
    with pytest.raises(ValueError):
        fermi(0)


STABILITY_GRID = [1e-12, 1e-8, 1e-4, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 50.0, 100.0, 350.0, 700.0]


def test_bose_within_4_ulps_of_double_working_precision():
    with mp.workprec(120):
        for s in range(2, 11):
            for x in STABILITY_GRID:
                lo = bose(s)(x)
                hi = float(mp.mpf(x) ** (s - 1) / mp.expm1(mp.mpf(x)))
                assert abs(lo - hi) <= 4 * math.ulp(abs(lo)), (s, x)


def test_fermi_within_4_ulps_of_double_working_precision():
    with mp.workprec(120):
        for s in range(1, 11):
            for x in STABILITY_GRID:
                lo = fermi(s)(x)
                hi = float(mp.mpf(x) ** (s - 1) / (mp.exp(mp.mpf(x)) + 1))
                assert abs(lo - hi) <= 4 * math.ulp(abs(lo)), (s, x)


def test_cot_kernel_limits_and_midrange():
    assert cot_power(2)(0.0) == 2.0
    assert cot_power(3)(0.0) == 0.0
    for y in (0.3, 1.0, 2.0, 3.0):
        naive = y * math.sin(y) / (1.0 - math.cos(y))
        assert abs(cot_power(2)(y) - naive) < 1e-13


def test_cot_kernel_series_fallback_matches_reference():
    with mp.workprec(120):
        for s in (2, 3, 5):
            for y in (1e-6, 5e-5, 9.9e-5):
                ref = float(mp.mpf(y) ** (s - 1) * mp.cot(mp.mpf(y) / 2))
                assert abs(cot_power(s)(y) - ref) <= 4 * math.ulp(abs(ref))


def test_partial_fraction_identity_in_doubles_moderate_range():
    # away from small t the two sides agree at machine precision without
    # any extended arithmetic (the small-t regime is checked at 40 digits
    # in test_identities)
    rng = random.Random(7)
    for _ in range(300):
        t = rng.uniform(0.7, 30.0)
        lhs = 2.0 / math.expm1(2.0 * t)
        rhs = 1.0 / math.expm1(t) - 1.0 / (math.exp(t) + 1.0)
        assert abs(lhs - rhs) < 1e-14


# ---------------------------------------------------------------------------
# per-node closures, bit for bit against the formulas written out point by point

def _bose_ref(x, s):
    if x <= 1.0:
        return x ** (s - 1) / math.expm1(x)
    t = math.exp(-x)
    return x ** (s - 1) * t / (1.0 - t)


def _fermi_ref(x, s):
    t = math.exp(-x)
    return x ** (s - 1) * t / (1.0 + t)


def _cot_ref(y, s):
    if y == 0.0:
        return 2.0 if s == 2 else 0.0
    if y < 1e-4:
        return 2.0 * y ** (s - 2) - y**s / 6.0 - y ** (s + 2) / 360.0
    return y ** (s - 1) * math.cos(0.5 * y) / math.sin(0.5 * y)


def _cexpm1_ref(z):
    if abs(z) >= 0.5:
        return cmath.exp(z) - 1.0
    x, y = z.real, z.imag
    return complex(math.expm1(x) * math.cos(y) - 2.0 * math.sin(0.5 * y) ** 2,
                   math.exp(x) * math.sin(y))


def _pole_ratio_ref(z, s):
    if z == 0:
        return complex(1.0) if s == 2 else complex(0.0)
    return z ** (s - 1) / _cexpm1_ref(z)


def test_real_axis_closures_bit_for_bit():
    rng = random.Random(1515)
    grid = [*STABILITY_GRID, 745.0, 750.0]
    for _ in range(400):
        s = rng.randint(2, 108)
        bose_s, fermi_s, cot_s = bose(s), fermi(s), cot_power(s)
        fermi_1 = fermi(1)
        for x in (*grid, 10.0 ** rng.uniform(-12.0, math.log10(750.0)), rng.uniform(0.0, 1.0)):
            assert repr(bose_s(x)) == repr(_bose_ref(x, s)), (s, x)
            assert repr(fermi_s(x)) == repr(_fermi_ref(x, s)), (s, x)
            assert repr(fermi_1(x)) == repr(_fermi_ref(x, 1)), x
        assert repr(fermi_s(0.0)) == repr(_fermi_ref(0.0, s))
        for y in (0.0, math.pi, 1e-4, 10.0 ** rng.uniform(-8.0, -4.0), rng.uniform(0.0, math.pi)):
            assert repr(cot_s(y)) == repr(_cot_ref(y, s)), (s, y)
    assert cot_power(2)(0.0) == 2.0 and fermi(1)(0.0) == 0.5


def _segment_ref(s, start, delta, t):
    """The segment integrand at t, point by point: bose's real formulas on the
    non-negative real axis, the complex ratio anywhere else."""
    if start.imag == delta.imag == 0.0 and start.real >= 0.0 and start.real + delta.real >= 0.0:
        x = start.real + t * delta.real
        return (_bose_ref(x, s) if x else float(s == 2)) * delta.real
    return _pole_ratio_ref(start + t * delta, s) * delta


def test_segment_closure_bit_for_bit(monkeypatch):
    # the integrand integrate_segment hands to integrate_finite, at random nodes,
    # at nodes within 0.5 of z = 0 (the closed form) and at the corner z = 0 itself
    captured = []
    monkeypatch.setattr(quadrature, "integrate_finite",
                        lambda f, a, b, tol, budget: captured.append(f))
    rng = random.Random(1516)
    corners = 0
    for _ in range(200):
        s = rng.randint(2, 40)
        R = rng.uniform(0.1, 60.0)
        top = complex(R, math.pi)
        for start, end in ((0j, complex(R)), (complex(R), top), (top, math.pi * 1j),
                           (math.pi * 1j, 0j), (complex(rng.uniform(-1.0, 1.0), 0.3), 0j)):
            delta = end - start
            integrate_segment(s, Segment(start, end), 1e-10)
            f = captured.pop()
            near = 0.5 / abs(delta)
            for t in (0.0, 1.0, rng.uniform(0.0, 1.0), 10.0 ** rng.uniform(-12.0, 0.0) * near,
                      1.0 - 10.0 ** rng.uniform(-12.0, 0.0) * near):
                corners += start + t * delta == 0
                assert repr(f(t)) == repr(_segment_ref(s, start, delta, t)), (s, start, end, t)
    assert corners >= 200


def test_segment_on_the_real_axis_is_real():
    # both ends real and >= 0, in either direction: floats, bose's own values
    # times dx, down to a segment whose nodes underflow to the corner x = 0
    rng = random.Random(1519)
    for _ in range(200):
        s = rng.randint(2, 108)
        R = 10.0 ** rng.uniform(-12.0, math.log10(700.0))
        for start, end in ((0.0, R), (R, 0.0), (R, 2.0 * R), (0.0, 5e-324)):
            start, end = complex(start), complex(end)
            f = quadrature._segment_integrand(s, start, end - start)
            for t in (0.0, 1.0, rng.uniform(0.0, 1.0), 10.0 ** rng.uniform(-12.0, 0.0)):
                value = f(t)
                assert type(value) is float, (s, start, end, t)
                assert repr(value) == repr(_segment_ref(s, start, end - start, t)), (s, start, end, t)
    # 0.3 * 5e-324 rounds to 0: the removable value, dx at s = 2 and 0 above
    for s, at_zero in ((2, 5e-324), (3, 0.0)):
        assert repr(quadrature._segment_integrand(s, 0j, complex(5e-324))(0.3)) == repr(at_zero)


def test_segment_off_the_nonnegative_real_axis_stays_complex():
    for start, end in ((-0.5, 3.0), (2.0, -0.5), (-2.0, -1.0), (0.0, math.pi * 1j),
                       (1.0, 1.0 + 1e-300j), (30.0, 30.0 + math.pi * 1j), (1e-300j, 2.0)):
        start, end = complex(start), complex(end)
        for s in (2, 3, 9):
            f = quadrature._segment_integrand(s, start, end - start)
            for t in (0.0, 0.25, 0.5, 1.0):
                value = f(t)
                assert type(value) is complex, (s, start, end, t)
                assert repr(value) == repr(_segment_ref(s, start, end - start, t)), (s, start, end, t)


def test_closed_form_expm1_against_mpmath():
    # within 4e-16 |e^z - 1| for |z| < 0.5: on both axes, down to 1e-300, and in
    # random directions, where expm1(x) cos y and 2 sin^2(y/2) can nearly cancel
    rng = random.Random(1520)
    points = []
    for _ in range(1500):
        r = 10.0 ** rng.uniform(-300.0, -1.0) if rng.random() < 0.3 else rng.uniform(0.0, 0.5)
        sign = rng.choice((-1.0, 1.0))
        points += [complex(sign * r, 0.0), complex(0.0, sign * r),
                   cmath.rect(r, rng.uniform(-math.pi, math.pi))]
    with mp.workprec(120):
        for z in points:
            if not 0.0 < abs(z) < 0.5:
                continue
            ref = mp.expm1(mp.mpc(z.real, z.imag))
            got = quadrature._cexpm1(z)
            assert abs(mp.mpc(got.real, got.imag) - ref) <= 4e-16 * abs(ref), z


def _scan_truncation_point(s, tail_tol):
    """The scan with tail_bound at every point."""
    x = 10.0
    while tail_bound(s, x) > tail_tol and x < 750.0:
        x += 5.0
    return x


def test_truncation_point_is_the_full_scans():
    rng = random.Random(1517)
    for s in range(1, 172):
        scan_point = 10.0 + 5.0 * rng.randrange(148)
        at_point = tail_bound(s, scan_point)
        tols = [5e-324, 1e-12, 1e5, at_point, math.nextafter(at_point, 0.0),
                *(10.0 ** rng.uniform(-320.0, 5.0) for _ in range(3))]
        for tol in tols:
            x = _scan_truncation_point(s, tol)
            assert truncation_point(s, tol) == (x, tail_bound(s, x)), (s, tol)


# ---------------------------------------------------------------------------
# finite adaptive rule

def test_linear_integrand():
    r = integrate_finite(lambda y: y / 2.0, 0.0, math.pi, 1e-12)
    assert r.converged
    assert abs(r.value - math.pi**2 / 4.0) <= max(r.error_estimate, 1e-12)


def test_constant_integrand():
    r = integrate_finite(lambda y: 1.0, 0.0, 1.0, 1e-12)
    assert r.converged and abs(r.value - 1.0) < 1e-14


def test_cot_weighted_integral_against_trapezoid_oracle():
    cot_2 = cot_power(2)
    r = integrate_finite(cot_2, 0.0, math.pi, 1e-10)
    assert r.converged
    assert abs(r.value - TRAPEZOID_ORACLE_1E7) < 2e-9  # oracle resolution
    assert abs(r.value - 2.0 * math.pi * math.log(2.0)) < 1e-10
    # light in-test trapezoid for live consistency
    n = 100_000
    h = math.pi / n
    light = (cot_2(0.0) + cot_2(math.pi)) / 2.0
    light += math.fsum(cot_2(i * h) for i in range(1, n))
    assert abs(light * h - r.value) < 1e-7


def test_polynomial_exact_within_estimate():
    # degree 7 is inside both rules' exactness range
    def poly(x):
        return x**7 - 3.0 * x**4 + 2.0 * x**3 - 5.0

    a, b = -1.0, 2.5
    exact = (b**8 - a**8) / 8.0 - 3.0 * (b**5 - a**5) / 5.0 + (b**4 - a**4) / 2.0 - 5.0 * (b - a)
    r = integrate_finite(poly, a, b, 1e-9)
    assert abs(r.value - exact) <= r.error_estimate + 1e-13


def test_deterministic_results():
    runs = [integrate_finite(lambda x: math.sin(x) / (1.0 + x), 0.0, 8.0, 1e-11) for _ in range(2)]
    assert runs[0] == runs[1]


def test_budget_exhaustion_is_reported_not_raised():
    r = integrate_finite(lambda x: math.sin(50.0 * x), 0.0, 20.0, 1e-12, budget=600)
    assert not r.converged
    assert r.evaluations <= 600
    assert r.error_estimate > 1e-12


@pytest.mark.parametrize("f,a,b,tol,budget,reason", [
    (lambda x: math.sin(50.0 * x), 0.0, 20.0, 1e-12, 600, quadrature.BUDGET_EXHAUSTED),
    (lambda x: math.sin(50.0 * x), 0.0, 20.0, 1e-300, 600, quadrature.ROUNDOFF_FLOOR),
    (lambda x: math.exp(-x) * x, 0.0, 10.0, 1e-300, 10**6, quadrature.ROUNDOFF_FLOOR),
    # one ulp has no interior double, so no panel fits and nothing is evaluated
    (lambda x: float(x >= 1.0), 1.0, 1.0 + math.ulp(1.0), 1e-40, 10**6,
     quadrature.FLOAT_EXHAUSTION),
])
def test_each_stop_short_of_tol_names_its_reason(f, a, b, tol, budget, reason):
    r = integrate_finite(f, a, b, tol, budget)
    assert (r.converged, r.reason) == (False, reason)


@pytest.mark.parametrize("ulps", [1, 2, 64, 2**10, 2**40])
def test_only_interior_points_are_evaluated(ulps):
    # the step keeps its panel's estimate up until panels can no longer be made
    a = 1.0
    b = a + ulps * math.ulp(a)
    cut = a + 0.3 * (b - a)
    seen = []

    def step(x):
        seen.append(x)
        return float(x >= cut)

    # 1e-18 lies above the panels' floor sum (2 eps times about 0.7 (b - a)),
    # so only the step's panel, narrowing to a few ulps, can stop the loop
    r = integrate_finite(step, a, b, 1e-18)
    assert (r.converged, r.reason) == (False, quadrature.FLOAT_EXHAUSTION)
    assert all(a < x < b for x in seen), [x for x in seen if not a < x < b]
    assert r.evaluations == len(seen)
    if ulps == 1:
        assert (seen, r.evaluations, r.error_estimate) == ([], 0, math.inf)


def test_converged_result_names_no_reason():
    assert integrate_finite(math.exp, 0.0, 1.0, 1e-10).reason == ""
    assert QuadratureResult(1.0, 0.1, 15).converged
    assert not QuadratureResult(1.0, 0.1, 15, quadrature.ROUNDOFF_FLOOR).converged


def test_budget_below_one_panel_evaluates_nothing():
    # stopping short is reported: a budget is never overspent, and 21 buys one panel
    for budget in range(101):
        seen = []
        r = integrate_finite(lambda x: seen.append(x) or math.sin(50.0 * x), 0.0, 20.0, 1e-12, budget)
        assert r.evaluations == len(seen) <= budget, budget
        assert r.reason == quadrature.BUDGET_EXHAUSTED, budget
    assert integrate_finite(math.exp, 0.0, 1.0, 1e-9, 20) == \
        QuadratureResult(0.0, math.inf, 0, quadrature.BUDGET_EXHAUSTED)
    one = integrate_finite(math.exp, 0.0, 1.0, 1e-9, 21)
    assert (one.converged, one.evaluations) == (True, 21)
    assert integrate_finite(lambda x: math.sin(50.0 * x), 0.0, 20.0, 1e-12, 62).evaluations == 21


def test_first_panel_within_tol_is_returned_as_it_stands():
    # at tol = the panel's estimate or above: _gk21's value and estimate, 21
    # evaluations; one ulp below it the loop takes over
    rng = random.Random(1521)
    for _ in range(100):
        s = rng.randint(2, 30)
        b = rng.uniform(0.5, 40.0)
        for f, lo, hi in ((fermi(s), 0.0, b), (bose(s), 1e-3, b), (cot_power(s), 0.0, math.pi),
                          (lambda x: complex(math.cos(x), x * x), 0.0, b),
                          (quadrature._segment_integrand(s, complex(b), complex(0.0, math.pi)),
                           0.0, 1.0)):
            value, err, *_ = quadrature._gk21(f, lo, hi)
            for tol in (err, math.nextafter(err, math.inf), 2.0 * err + 1e-300):
                r = integrate_finite(f, lo, hi, tol)
                assert repr(r) == repr(QuadratureResult(value, err, 21)), (s, tol)
            r = integrate_finite(f, lo, hi, math.nextafter(err, 0.0))
            assert r.evaluations > 21 or r.reason, (s, r)


def test_converged_implies_estimate_below_tolerance():
    r = integrate_finite(lambda x: math.exp(-x) * x, 0.0, 10.0, 1e-10)
    assert r.converged and r.error_estimate <= 1e-10
    assert r.evaluations > 0


def test_invalid_inputs_rejected():
    with pytest.raises(ValueError):
        integrate_finite(lambda x: x, 1.0, 1.0, 1e-9)
    with pytest.raises(ValueError):
        integrate_finite(lambda x: x, 2.0, 1.0, 1e-9)
    with pytest.raises(ValueError):
        integrate_finite(lambda x: x, 0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        QuadratureResult(1.0, 0.1, 0)


# ---------------------------------------------------------------------------
# the written-out panel against the loop it replaced

# (node, gauss weight, kronrod weight), the QK21 table in the kernel's node order
_GK21_TABLE = (
    (+0.995657163025808080735527280689003, 0.0, 0.011694638867371874278064396062192),
    (-0.995657163025808080735527280689003, 0.0, 0.011694638867371874278064396062192),
    (+0.973906528517171720077964012084452, 0.066671344308688137593568809893332, 0.032558162307964727478818972459390),
    (-0.973906528517171720077964012084452, 0.066671344308688137593568809893332, 0.032558162307964727478818972459390),
    (+0.930157491355708226001207180059508, 0.0, 0.054755896574351996031381300244580),
    (-0.930157491355708226001207180059508, 0.0, 0.054755896574351996031381300244580),
    (+0.865063366688984510732096688423493, 0.149451349150580593145776339657697, 0.075039674810919952767043140916190),
    (-0.865063366688984510732096688423493, 0.149451349150580593145776339657697, 0.075039674810919952767043140916190),
    (+0.780817726586416897063717578345042, 0.0, 0.093125454583697605535065465083366),
    (-0.780817726586416897063717578345042, 0.0, 0.093125454583697605535065465083366),
    (+0.679409568299024406234327365114874, 0.219086362515982043995534934228163, 0.109387158802297641899210590325805),
    (-0.679409568299024406234327365114874, 0.219086362515982043995534934228163, 0.109387158802297641899210590325805),
    (+0.562757134668604683339000099272694, 0.0, 0.123491976262065851077958109831074),
    (-0.562757134668604683339000099272694, 0.0, 0.123491976262065851077958109831074),
    (+0.433395394129247190799265943165784, 0.269266719309996355091226921569469, 0.134709217311473325928054001771707),
    (-0.433395394129247190799265943165784, 0.269266719309996355091226921569469, 0.134709217311473325928054001771707),
    (+0.294392862701460198131126603103866, 0.0, 0.142775938577060080797094273138717),
    (-0.294392862701460198131126603103866, 0.0, 0.142775938577060080797094273138717),
    (+0.148874338981631210884826001129720, 0.295524224714752870173892994651338, 0.147739104901338491374841515972068),
    (-0.148874338981631210884826001129720, 0.295524224714752870173892994651338, 0.147739104901338491374841515972068),
    (0.0, 0.0, 0.149445554002916905664936468389821),
)


def _moment_error_in_ulps(weights, center_weight, k):
    """|sum of w x^k over the panel's nodes - integral of x^k over [-1, 1]| in ulps
    of 2/(k+1), summed exactly over the module's float constants: weights[j - 1]
    at +-_Xj, center_weight at 0."""
    nodes = [getattr(quadrature, f"_X{j}") for j in range(1, 11)]
    total = sum(Fraction(w) * (Fraction(x) ** k + Fraction(-x) ** k) for x, w in zip(nodes, weights))
    if k == 0:
        total += Fraction(center_weight)
    exact = Fraction(1 + (-1) ** k, k + 1)
    return float(abs(total - exact)) / math.ulp(2.0 / (k + 1))


def test_panel_constants_integrate_their_degrees():
    # K21 integrates x^k over [-1, 1] exactly through k = 31 and G10 through
    # k = 19; in doubles each moment sits within a few ulps of 2/(k+1), so a
    # mistyped digit shows, and the first degree past each rule is far off
    kronrod = [getattr(quadrature, f"_WK{j}") for j in range(1, 11)]
    gauss = [getattr(quadrature, f"_WG{j}", 0.0) for j in range(1, 11)]
    assert [j for j in range(1, 11) if hasattr(quadrature, f"_WG{j}")] == [2, 4, 6, 8, 10]
    for k in range(32):
        assert _moment_error_in_ulps(kronrod, quadrature._WK0, k) <= 4.0, k
    for k in range(20):
        assert _moment_error_in_ulps(gauss, 0.0, k) <= 4.0, k
    assert _moment_error_in_ulps(kronrod, quadrature._WK0, 32) > 1e5
    assert _moment_error_in_ulps(gauss, 0.0, 20) > 1e5


def _gk21_loop(f, a, b):
    """The reference panel: one loop over the node table."""
    center = 0.5 * (a + b)
    half = 0.5 * (b - a)
    resg = 0.0
    resk = 0.0
    resabs = 0.0
    values = []
    for node, wg, wk in _GK21_TABLE:
        fx = f(center + half * node)
        values.append((fx, wk))
        if wg:
            resg += wg * fx
        resk += wk * fx
        resabs += wk * abs(fx)
    mean = resk / 2.0
    resasc = 0.0
    for fx, wk in values:
        resasc += wk * abs(fx - mean)
    value = resk * half
    err = abs(resk - resg) * half
    resasc *= half
    resabs *= half
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    floor = 2.0 * quadrature._EPS * resabs
    if err < floor:
        return value, floor, True, floor
    return value, err, False, floor


def _same_panel(f, a, b):
    kernel = quadrature._gk21(f, a, b)
    assert repr(kernel) == repr(_gk21_loop(f, a, b)), (a, b)
    return kernel


def test_panel_bit_for_bit_on_random_float_panels():
    rng = random.Random(2024)
    for _ in range(300):
        s = rng.randint(1, 24)
        c = rng.uniform(-3.0, 3.0)
        a = rng.uniform(0.0, 50.0)
        b = a + 10.0 ** rng.uniform(-12.0, 2.0)
        _same_panel(fermi(s), a, b)
        _same_panel(lambda x: math.sin(c * x) * math.exp(-x) - c, a, b)
        _same_panel(cot_power(max(s, 2)), 0.0, rng.uniform(1e-9, math.pi))


def test_panel_bit_for_bit_on_segment_integrands(monkeypatch):
    # capture the integrand integrate_segment hands to integrate_finite
    captured = []
    monkeypatch.setattr(quadrature, "integrate_finite",
                        lambda f, a, b, tol, budget: captured.append(f))
    rng = random.Random(99)
    for _ in range(60):
        s = rng.randint(2, 24)
        R = rng.uniform(1.0, 60.0)
        for start, end in ((0.0, R), (R, R + math.pi * 1j), (R + math.pi * 1j, math.pi * 1j),
                           (math.pi * 1j, 0.0), (rng.uniform(-R, R), rng.uniform(-R, R) + 3j)):
            integrate_segment(s, Segment(complex(start), complex(end)), 1e-10)
            f = captured.pop()
            lo = rng.uniform(0.0, 0.9)
            for a, b in ((0.0, 1.0), (lo, lo + 10.0 ** rng.uniform(-10.0, -1.0))):
                value, *_ = _same_panel(f, a, b)
                # the bottom side (0, R) lies on the real axis, where the integrand is real
                assert isinstance(value, float if (start, end) == (0.0, R) else complex)


def test_panel_bit_for_bit_on_zero_integrands():
    # repr tells 0.0 from -0.0, so the sign of every zero part must match too
    for zero in (0.0, -0.0, complex(0.0, 0.0), complex(-0.0, -0.0), complex(0.0, -0.0)):
        value, err, *_ = _same_panel(lambda x: zero, -1.0, 2.0)
        assert value == 0 and err == 0.0


def test_panel_bit_for_bit_at_extreme_bounds():
    # the centre node is center + half * 0.0, as in the loop: -0.0 there becomes
    # 0.0, and an infinite half makes it nan
    _same_panel(lambda x: math.copysign(1.0, x), -5e-324, 0.0)
    _same_panel(lambda x: x, -1.5e308, 1.5e308)


def test_panel_bit_for_bit_at_the_roundoff_floor():
    floors = 0
    for f, a, b in ((lambda x: 1.0, 0.0, 1.0),
                    (lambda x: 3.0 * x - 2.0, -4.0, 7.0),
                    (lambda x: x**7 - x, 0.5, 2.0),
                    (lambda x: 1e300, 1e-3, 2e-3),
                    (lambda x: complex(x, -x), 0.0, 1.0),
                    (lambda x: math.exp(-x), 10.0, 10.0 + 1e-9)):
        floors += _same_panel(f, a, b)[2]
    assert floors == 6


# ---------------------------------------------------------------------------
# the heap loop with its floor-sum stop against the linear-scan loop it replaced

def _scan_loop(f, a, b, tol, budget):
    """The reference loop: bisect the worst panel, found by a linear scan, until
    the estimates meet tol, the budget runs out, the worst panel sits at its
    floor or its halves would leave the doubles; no floor-sum stop."""
    if not quadrature._nodes_interior(a, b):
        return QuadratureResult(0.0, math.inf, 0, quadrature.FLOAT_EXHAUSTION)
    if budget < 21:
        return QuadratureResult(0.0, math.inf, 0, quadrature.BUDGET_EXHAUSTED)
    value, err, at_floor, _ = _gk21_loop(f, a, b)
    intervals = [(a, b, value, err, at_floor)]
    evaluations = 21
    reason = ""
    while True:
        total_err = math.fsum(item[3] for item in intervals)
        if total_err <= tol:
            break
        if evaluations + 42 > budget:
            reason = quadrature.BUDGET_EXHAUSTED
            break
        worst = 0
        for i in range(1, len(intervals)):
            wa, werr = intervals[worst][0], intervals[worst][3]
            ia, ierr = intervals[i][0], intervals[i][3]
            if ierr > werr or (ierr == werr and ia < wa):
                worst = i
        wa, wb = intervals[worst][0], intervals[worst][1]
        if intervals[worst][4]:
            reason = quadrature.ROUNDOFF_FLOOR
            break
        mid = 0.5 * (wa + wb)
        if not (quadrature._nodes_interior(wa, mid) and quadrature._nodes_interior(mid, wb)):
            reason = quadrature.FLOAT_EXHAUSTION
            break
        intervals[worst] = (wa, mid, *_gk21_loop(f, wa, mid)[:3])
        intervals.append((mid, wb, *_gk21_loop(f, mid, wb)[:3]))
        evaluations += 42

    intervals.sort(key=lambda item: item[0])
    if any(isinstance(item[2], complex) for item in intervals):
        total = complex(
            math.fsum(item[2].real for item in intervals),
            math.fsum(item[2].imag for item in intervals),
        )
    else:
        total = math.fsum(item[2] for item in intervals)
    return QuadratureResult(total, total_err, evaluations, reason)


def _drawn_integrand(kind, s, x_max, side):
    """(f, a, b) of one integrand family the identities integrate."""
    if kind == "bose":
        return bose(s), 0.0, x_max
    if kind == "fermi":
        return fermi(s), 0.0, x_max
    if kind == "cot":
        return cot_power(s), 0.0, math.pi
    top = complex(x_max, math.pi)
    start, end = ((0j, complex(x_max)), (complex(x_max), top), (top, math.pi * 1j),
                  (math.pi * 1j, 0j))[side]
    return quadrature._segment_integrand(s, start, end - start), 0.0, 1.0


def test_heap_loop_against_the_scan_loop():
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    # where the scan converges the result is the same; elsewhere the new loop
    # stops for the same reason or at the floor sum, never later.  Half the
    # draws of tol lie where doubles can meet it, half anywhere down to 1e-300
    @hyp.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @hyp.given(kind=st.sampled_from(("bose", "fermi", "cot", "segment")),
               s=st.integers(2, 24), x_max=st.floats(1.0, 60.0), side=st.integers(0, 3),
               decades=st.one_of(st.floats(-300.0, -6.0), st.floats(-16.0, -6.0)),
               budget=st.sampled_from((15, 45, 105, 600, quadrature.DEFAULT_EVAL_BUDGET)))
    def prop(kind, s, x_max, side, decades, budget):
        f, a, b = _drawn_integrand(kind, s, x_max, side)
        tol = 10.0 ** decades
        new = integrate_finite(f, a, b, tol, budget)
        ref = _scan_loop(f, a, b, tol, budget)
        if ref.converged:
            assert repr(new) == repr(ref)
        else:
            assert new.reason in (ref.reason, quadrature.ROUNDOFF_FLOOR), (new, ref)
            assert new.evaluations <= ref.evaluations, (new, ref)

    prop()


def test_floor_sum_stops_before_any_bisection():
    # the panel's integral of 2 + sin(50x) is about three times its error
    # estimate (at most its integral of |f - mean|), so 2 eps times their
    # difference is far above 1e-300: the scan loop bisects to its budget, the
    # floor sum stops after the first panel
    f = lambda x: 2.0 + math.sin(50.0 * x)  # noqa: E731
    r = integrate_finite(f, 0.0, 20.0, 1e-300, 600)
    assert (r.converged, r.reason, r.evaluations) == (False, quadrature.ROUNDOFF_FLOOR, 21)
    assert _scan_loop(f, 0.0, 20.0, 1e-300, 600).reason == quadrature.BUDGET_EXHAUSTED


def _fsum_loop(f, a, b, tol, budget):
    """The heap loop with both stop tests on sums fsum recomputes at every step."""
    if not quadrature._nodes_interior(a, b):
        return QuadratureResult(0.0, math.inf, 0, quadrature.FLOAT_EXHAUSTION)
    if budget < 21:
        return QuadratureResult(0.0, math.inf, 0, quadrature.BUDGET_EXHAUSTED)
    value, err, at_floor, floor = quadrature._gk21(f, a, b)
    values, errs, floors = [value], [err], [floor]
    heap = [(-err, a, b, 0, at_floor)]
    evaluations = 21
    reason = ""
    while True:
        total_err = math.fsum(errs)
        if total_err <= tol:
            break
        if math.fsum(floors) - 2.0 * quadrature._EPS * total_err > tol:
            reason = quadrature.ROUNDOFF_FLOOR
            break
        if evaluations + 42 > budget:
            reason = quadrature.BUDGET_EXHAUSTED
            break
        _, wa, wb, slot, at_floor = heap[0]
        if at_floor:
            reason = quadrature.ROUNDOFF_FLOOR
            break
        mid = 0.5 * (wa + wb)
        if not (quadrature._nodes_interior(wa, mid) and quadrature._nodes_interior(mid, wb)):
            reason = quadrature.FLOAT_EXHAUSTION
            break
        values[slot], errs[slot], at_floor, floors[slot] = quadrature._gk21(f, wa, mid)
        heapq.heapreplace(heap, (-errs[slot], wa, mid, slot, at_floor))
        value, err, at_floor, floor = quadrature._gk21(f, mid, wb)
        heapq.heappush(heap, (-err, mid, wb, len(values), at_floor))
        values.append(value)
        errs.append(err)
        floors.append(floor)
        evaluations += 42
    if any(isinstance(v, complex) for v in values):
        total = complex(math.fsum(v.real for v in values), math.fsum(v.imag for v in values))
    else:
        total = math.fsum(values)
    return QuadratureResult(total, total_err, evaluations, reason)


def test_heap_loop_is_the_fsum_loop_bit_for_bit():
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    # every result is the reference fsum loop's, bit for bit, also at a tol
    # equal to or one ulp from a reachable error sum, where only the exact
    # sums can tell the two sides apart
    @hyp.settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @hyp.given(kind=st.sampled_from(("bose", "fermi", "cot", "segment", "wave")),
               s=st.integers(2, 60), x_max=st.floats(1.0, 200.0), side=st.integers(0, 3),
               decades=st.one_of(st.floats(-320.0, 300.0), st.floats(-16.0, -6.0)),
               budget=st.sampled_from((15, 105, 600, 6000)))
    def prop(kind, s, x_max, side, decades, budget):
        if kind == "wave":
            f, a, b = (lambda x: math.sin(s * x) * x ** 3), 0.0, x_max
        else:
            f, a, b = _drawn_integrand(kind, s, x_max, side)
        ref = _fsum_loop(f, a, b, 10.0 ** decades, budget)
        edge = ref.error_estimate
        for tol in (10.0 ** decades, edge, math.nextafter(edge, 0.0), math.nextafter(edge, math.inf)):
            if 0.0 < tol < math.inf:
                assert repr(integrate_finite(f, a, b, tol, budget)) == \
                    repr(_fsum_loop(f, a, b, tol, budget)), tol

    prop()


def test_long_integral_is_the_fsum_loop_bit_for_bit():
    # 4,025 bisections, far past any the CLI makes
    f = lambda x: math.sin(300.0 * x)  # noqa: E731
    r = integrate_finite(f, 0.0, 100.0, 1e-9, 480_000)
    assert (r.converged, r.evaluations) == (True, 169_071)
    assert repr(r) == repr(_fsum_loop(f, 0.0, 100.0, 1e-9, 480_000))


# ---------------------------------------------------------------------------
# semi-infinite integrals

def test_bose_integral_basel():
    r = integrate_semi_infinite(bose(2), 2, 1e-10)
    assert r.converged
    assert abs(r.value - math.pi**2 / 6.0) < 1e-10


def test_fermi_integral_log2():
    # closed-form antiderivative: -ln(1 + e^-x), so the integral is ln 2
    r = integrate_semi_infinite(fermi(1), 1, 1e-10)
    assert r.converged
    assert abs(r.value - math.log(2.0)) < 1e-10


def test_fermi_integral_s2():
    r = integrate_semi_infinite(fermi(2), 2, 1e-10)
    assert abs(r.value - math.pi**2 / 12.0) < 1e-10


def test_truncation_point_satisfies_bound():
    for s in range(1, 11):
        x = truncation_point(s, 5e-11)[0]
        assert tail_bound(s, x) <= 5e-11


def test_truncation_always_meets_the_tail_tolerance():
    # e^-x underflows to 0 by the scan's cap x = 750, so no tolerance is too
    # small: the semi-infinite result converges exactly when [0, X] does
    for s in [*range(1, 172, 10), 171]:
        x = truncation_point(s, 5e-324)[0]
        assert tail_bound(s, x) <= 5e-324, s


def test_tail_bound_honesty():
    for s in range(2, 9):
        base = integrate_semi_infinite(bose(s), s, 1e-9)
        x = truncation_point(s, 5e-10)[0]
        wider = integrate_finite(bose(s), 0.0, x + 5.0, 5e-10)
        assert abs(wider.value - base.value) < base.error_estimate


def test_semi_infinite_estimate_includes_tail():
    # the semi-infinite result is the finite integral up to the truncation
    # point, with the tail bound added to its error estimate
    f = bose(2)
    x = truncation_point(2, 5e-9)[0]
    r = integrate_semi_infinite(f, 2, 1e-8)
    base = integrate_finite(f, 0.0, x, 5e-9)
    assert r.value == base.value
    assert r.error_estimate == base.error_estimate + tail_bound(2, x)
    assert r.error_estimate >= tail_bound(2, x)


def test_semi_infinite_takes_its_tail_from_the_scan(monkeypatch):
    # the bound the scan proved at X is the reported tail: no point's bound is
    # evaluated twice, also where the scan stops at its cap x = 750
    bounds = []
    monkeypatch.setattr(quadrature, "tail_bound",
                        lambda s, x, bound=tail_bound: bounds.append((s, x)) or bound(s, x))
    for s, tol in ((2, 1e-8), (10, 1e-12), (60, 1e-3), (108, 1e-320)):
        bounds.clear()
        integrate_semi_infinite(fermi(s), s, tol, budget=21)
        assert bounds and len(set(bounds)) == len(bounds), (s, bounds)


# ---------------------------------------------------------------------------
# segment integrals

def test_bottom_side_reproduces_gamma_zeta():
    r = integrate_segment(2, Segment(complex(0.0), complex(30.0)), 1e-10)
    assert r.converged
    assert abs(r.value - math.pi**2 / 6.0) < 1e-10  # [30, inf) tail is ~3e-12


def test_orientation_antisymmetry():
    seg = Segment(0.5 + 0.1j, 2.0 + 3.0j)
    fwd = integrate_segment(3, seg, 1e-13)
    rev = integrate_segment(3, Segment(seg.end, seg.start), 1e-13)
    assert abs(fwd.value + rev.value) < 1e-13


def test_right_side_decays_like_the_analytic_bound():
    # true magnitude at s=3, R=30 is ~1.8e-10, just above the round 1e-10;
    # assert the analytic envelope pi |R + i pi|^(s-1) / (e^R - 1) and the next-10
    # decade instead
    r30 = integrate_segment(3, Segment(complex(30.0), complex(30.0, math.pi)), 1e-11)
    assert abs(r30.value) < 1e-9
    assert abs(r30.value) < math.pi * (30.0**2 + math.pi**2) / math.expm1(30.0)
    r40 = integrate_segment(3, Segment(complex(40.0), complex(40.0, math.pi)), 1e-12)
    assert abs(r40.value) < 1e-10


def test_segment_through_pole_rejected():
    with pytest.raises(ValueError):
        integrate_segment(2, Segment(6.0j, 7.0j), 1e-9)  # crosses 2*pi*i
    with pytest.raises(ValueError):
        integrate_segment(3, Segment(complex(-1.0, 4 * math.pi), complex(1.0, 4 * math.pi)), 1e-9)


def test_segment_shorter_than_the_root_of_the_least_double():
    # |end - start|^2 underflows to 0 here, and the pole distance must not divide by it
    length = 1e-200
    r = integrate_segment(2, Segment(complex(1.0), complex(1.0, length)), 1e-10)
    assert r.converged
    assert abs(r.value - 1j * length / math.expm1(1.0)) <= 1e-15 * length
    with pytest.raises(ValueError):
        integrate_segment(2, Segment(2j * math.pi, complex(length, 2 * math.pi)), 1e-10)


def _scan_pole_distance(seg):
    """The distance to every pole 2*pi*i*k, k != 0, up to the segment's height."""
    k_max = int(max(abs(seg.start.imag), abs(seg.end.imag)) / (2.0 * math.pi)) + 2
    delta = seg.end - seg.start
    best = math.inf
    for k in range(-k_max, k_max + 1):
        if k:
            pole = complex(0.0, 2.0 * math.pi * k)
            t = min(1.0, max(0.0, ((pole - seg.start) / delta).real))
            best = min(best, abs(seg.start + t * delta - pole))
    return best


def _random_segment(rng):
    height = 10.0 ** rng.uniform(-1.0, 3.0)

    def point():
        kind = rng.randrange(4)
        if kind == 0:  # on the imaginary axis
            return complex(rng.choice((0.0, -0.0)), rng.uniform(-height, height))
        if kind == 1:  # at or beside a pole
            k = rng.randint(-int(height / 6.0) - 1, int(height / 6.0) + 1)
            return complex(rng.choice((0.0, 1e-10, -1e-10, 10.0 ** rng.uniform(-300.0, -8.0))),
                           2.0 * math.pi * k + rng.choice((0.0, 1e-10, rng.uniform(-1e-8, 1e-8))))
        return complex(rng.uniform(-height, height), rng.uniform(-height, height))

    start = point()
    kind = rng.randrange(4)
    if kind == 0:  # vertical
        end = complex(start.real, start.imag + rng.uniform(-height, height))
    elif kind == 1:  # horizontal
        end = complex(rng.uniform(-height, height), start.imag)
    elif kind == 2:  # shorter than the root of the least double
        end = start + complex(rng.uniform(-1e-200, 1e-200), rng.uniform(-1e-200, 1e-200))
    else:
        end = point()
    return Segment(start, end)


def test_pole_distance_gives_the_full_scans_verdict():
    # only the poles beside the segment's point nearest the axis are measured,
    # each as the scan measures it: never nearer than the scan's distance, and
    # on the same side of the clearance
    rng = random.Random(1616)
    segments = []
    while len(segments) < 5000:
        with contextlib.suppress(ValueError):  # equal endpoints
            segments.append(_random_segment(rng))
    for R in (5e-324, 1e-300, 1e-162, 0.01, 1.0, 10.0, 30.0, 60.0, 1e3):
        top, corner = complex(R, math.pi), complex(0.0, math.pi)
        segments += [Segment(0j, complex(R)), Segment(complex(R), top), Segment(top, corner),
                     Segment(corner, 0j)]
    clearance = quadrature._POLE_CLEARANCE
    rejected = 0
    for seg in segments:
        new, ref = quadrature._segment_pole_distance(seg), _scan_pole_distance(seg)
        height = max(abs(seg.start.imag), abs(seg.end.imag))
        assert ref <= new <= ref + 1e-13 * (1.0 + height), seg
        assert (new < clearance) == (ref < clearance), seg
        rejected += new < clearance
    assert rejected > 500


def test_pole_check_far_up_the_axis():
    # a segment 6e11 up the axis gets its verdict without visiting the poles below it
    y = 2.0 * math.pi * 10**11
    began = time.perf_counter()
    with pytest.raises(ValueError):
        integrate_segment(2, Segment(complex(-1.0, y), complex(1.0, y)), 1e-9)
    assert quadrature._segment_pole_distance(Segment(complex(1.0, y), complex(2.0, y))) == 1.0
    assert integrate_segment(2, Segment(complex(1.0, y), complex(2.0, y)), 1e-3).converged
    assert time.perf_counter() - began < 1.0


def test_segment_validation():
    with pytest.raises(ValueError):
        Segment(1.0 + 1.0j, 1.0 + 1.0j)
    with pytest.raises(ValueError):
        integrate_segment(1, Segment(complex(0.0), complex(1.0)), 1e-9)


def test_segment_is_one_complex_pass():
    # the segment integral is exactly one complex integrate_finite of the
    # parameterized integrand: same value, evaluations and convergence
    start, end = complex(0.0), complex(0.0, math.pi)
    r = integrate_segment(2, Segment(start, end), 1e-10)
    direct = integrate_finite(
        lambda t: _pole_ratio_ref(start + t * (end - start), 2) * (end - start),
        0.0, 1.0, 1e-10)
    assert r == direct
    assert isinstance(r.value, complex)
    assert r.converged and r.error_estimate <= 1e-10


# ---------------------------------------------------------------------------
# the store: each kept integral is refined once per process

def _kept_requests():
    """name -> request(tol, budget), one integral of each kept family."""
    x7 = truncation_point(7, 1e-12)[0]
    x1 = truncation_point(1, 1e-12)[0]
    left, c = Segment(math.pi * 1j, 0j), Segment(0j, math.pi * 1j)
    return {
        "bose": lambda tol, budget: integrate_finite(bose(7), 0.0, x7, tol, budget),
        "fermi": lambda tol, budget: integrate_finite(fermi(7), 0.0, x7, tol, budget),
        "fermi(1)": lambda tol, budget: integrate_finite(fermi(1), 0.0, x1, tol, budget),
        "cot_power": lambda tol, budget: integrate_finite(cot_power(9), 0.0, math.pi, tol, budget),
        "C": lambda tol, budget: integrate_segment(5, c, tol, budget),
        "left side": lambda tol, budget: integrate_segment(5, left, tol, budget),
    }


# tight, loose, tighter, below every floor, then starved budgets after the warm-up
_WALK = [(1e-12, 10**6), (1e-6, 10**6), (1e-14, 10**6), (1e-300, 10**6),
         (1e-14, 21), (1e-14, 63), (1e-9, 63), (1e-3, 21)]


def _cold(request, tol, budget):
    """The request's result in a fresh process: with the store empty."""
    quadrature._kept_run.cache_clear()
    return repr(request(tol, budget))


@pytest.mark.parametrize("name", ["bose", "fermi", "fermi(1)", "cot_power", "C", "left side"])
def test_kept_run_warm_equals_cold(name):
    # every field of every request, the signs of zero parts included, is a
    # cold call's, while the store holds the one run
    request_ = _kept_requests()[name]
    cold = [_cold(request_, tol, budget) for tol, budget in _WALK]
    quadrature._kept_run.cache_clear()
    warm = [repr(request_(tol, budget)) for tol, budget in _WALK]
    assert warm == cold
    info = quadrature._kept_run.cache_info()
    assert (info.currsize, info.misses, info.hits) == (1, 1, len(_WALK) - 1)


def _seeded_interval(rng, zero, mid, hi):
    """[a, b] with a in [0, mid] and b in [mid, hi], each end drawn as an integer,
    a float or the end itself: a zero start as spelled by zero, b = hi."""
    return (rng.choice((zero, rng.randint(0, math.floor(mid)), rng.uniform(0.0, mid))),
            rng.choice((hi, rng.randint(math.floor(mid) + 1, math.floor(hi)), rng.uniform(mid, hi))))


def _twin(end):
    """An end equal to this one under ==, spelled in the other type where one
    exists: 0 for -0.0 and 0.0, 3.0 for 3, and 3 for 3.0."""
    return float(end) if isinstance(end, int) else int(end) if end.is_integer() else end


def test_kept_runs_warm_equal_cold_on_seeded_walks():
    # random walks of tol and budget over package integrands on seeded
    # intervals (zero starts spelled -0.0, 0.0 or 0, integer and float ends,
    # cot_power's inside [0, pi]) and the two kept segments, sharing one store;
    # each interval is also asked for with its twin ends, which share its run
    rng = random.Random(3701)
    requests = []
    for _ in range(40):
        s = rng.randint(2, 40)
        x_max = truncation_point(s, 10.0 ** rng.uniform(-16.0, -4.0))[0]
        zero = rng.choice((-0.0, 0.0, 0))
        for f, (a, b) in ((bose(s), _seeded_interval(rng, zero, 5.5, x_max)),
                          (fermi(s), _seeded_interval(rng, zero, 5.5, x_max)),
                          (cot_power(s), _seeded_interval(rng, zero, 1.5, math.pi))):
            for a, b in ((a, b), (_twin(a), _twin(b))):
                requests.append(((f.family, a, b), lambda tol, budget, f=f, a=a, b=b:
                                 integrate_finite(f, a, b, tol, budget)))
        for seg in (Segment(0j, math.pi * 1j), Segment(math.pi * 1j, 0j)):
            requests.append(((s, seg), lambda tol, budget, s=s, seg=seg:
                             integrate_segment(s, seg, tol, budget)))
    walk = [(rng.choice(requests), 10.0 ** rng.uniform(-17.0, -1.0),
             rng.choice((21, 63, 105, 600, 10**6))) for _ in range(600)]
    cold = [_cold(request, tol, budget) for (_, request), tol, budget in walk]
    quadrature._kept_run.cache_clear()
    assert [repr(request(tol, budget)) for (_, request), tol, budget in walk] == cold
    # one run per key under ==, so twin ends shared theirs
    spellings = {repr(key): key for (key, _), _, _ in walk}
    assert quadrature._kept_run.cache_info().currsize == len(set(spellings.values())) < len(spellings)


def test_eviction_at_the_bound_keeps_warm_equal_to_cold():
    # a bose run, then 1,043 fermi runs: the store evicts the least recently
    # used runs, the bose one first, and rebuilds it with the same steps
    request = _kept_requests()["bose"]
    cold = _cold(request, 1e-13, 10**6)
    quadrature._kept_run.cache_clear()
    request(1e-10, 10**6)
    for s in range(2, 9):
        for x in range(10, 755, 5):
            integrate_finite(fermi(s), 0.0, float(x), 1e300)
    info = quadrature._kept_run.cache_info()
    assert (info.currsize, info.misses) == (1024, 1 + 7 * 149)
    assert repr(request(1e-13, 10**6)) == cold
    assert quadrature._kept_run.cache_info().misses == info.misses + 1


def test_dropped_integrals_leave_the_store_as_it_was():
    # a caller's lambda, the R-dependent contour sides and a kept segment with a
    # -0.0 part, which == cannot tell from the kept one, are run and dropped
    _kept_requests()["C"](1e-10, 10**6)
    before = quadrature._kept_run.cache_info()
    R = 12.5
    integrate_finite(lambda x: x * x, 0.0, 1.0, 1e-12)
    for side in (Segment(0j, complex(R)), Segment(complex(R), complex(R, math.pi)),
                 Segment(complex(R, math.pi), math.pi * 1j),
                 Segment(complex(-0.0, 0.0), math.pi * 1j)):
        integrate_segment(5, side, 1e-10)
    assert quadrature._kept_run.cache_info() == before


def test_package_integrands_are_kept_on_any_interval():
    # bose, fermi and cot_power carry a family, so the store keeps their runs
    # on intervals no check asks for too, and a warm request equals a cold one
    requests = [lambda tol, budget: integrate_finite(bose(5), 0.0, 7.5, tol, budget),
                lambda tol, budget: integrate_finite(fermi(5), 1.0, 30.0, tol, budget),
                lambda tol, budget: integrate_finite(cot_power(5), 0.0, 3.0, tol, budget)]
    cold = [_cold(request, 1e-12, 10**6) for request in requests]
    quadrature._kept_run.cache_clear()
    for request in requests:
        request(1e-6, 10**6)
    assert [repr(request(1e-12, 10**6)) for request in requests] == cold
    info = quadrature._kept_run.cache_info()
    assert (info.currsize, info.misses, info.hits) == (3, 3, 3)


def test_dropped_run_records_no_values(monkeypatch):
    # a dropped run keeps no per-step value fsums, which would cost a long
    # integral O(n) more per bisection; a kept run keeps one per step
    runs = []

    def recorded(f, a, b, keep, run=quadrature._Refinement):
        runs.append(run(f, a, b, keep))
        return runs[-1]

    monkeypatch.setattr(quadrature, "_Refinement", recorded)
    integrate_finite(lambda x: math.sin(30.0 * x), 0.0, 10.0, 1e-9)
    integrate_finite(cot_power(9), 0.0, math.pi, 1e-12)
    dropped, kept = runs
    assert (dropped.keep, kept.keep) == (False, True)
    assert len(dropped.steps) > 10 and len(kept.steps) > 1
    assert all(value is None for *_, value in dropped.steps)
    assert all(value is not None for *_, value in kept.steps)


def test_kept_runs_from_threads_equal_serial(in_threads):
    # eight threads start cold on the same keys, each walking its own order of
    # tols and budgets, and see what one thread sees
    requests = list(_kept_requests().values())
    orders = [[(requests[(i + k) % len(requests)], *_WALK[(3 * i + k) % len(_WALK)])
               for k in range(12)] for i in range(8)]
    serial = [[_cold(*step) for step in order] for order in orders]
    quadrature._kept_run.cache_clear()
    threaded = in_threads(lambda i: [repr(request(tol, budget)) for request, tol, budget in orders[i]],
                          len(orders))
    assert threaded == serial
    assert quadrature._kept_run.cache_info().currsize == len(requests)
