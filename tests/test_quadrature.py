import heapq
import math
import random

import mpmath as mp
import pytest

from zeta_recur import quadrature
from zeta_recur.quadrature import (
    QuadratureResult,
    Segment,
    bose_integrand,
    cot_kernel,
    fermi_integrand,
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
    assert abs(bose_integrand(1e-12, 2) - 1.0) < 1e-9  # x/(e^x-1) -> 1
    assert abs(bose_integrand(1.0, 2) - 1.0 / (math.e - 1.0)) < 5e-16
    # series: x^2/(e^x-1) = x (1 - x/2 + ...); naive e^x-1 would lose ~8 digits
    assert abs(bose_integrand(1e-8, 3) - 1e-8 * (1.0 - 5e-9)) < 1e-23


def test_bose_rejects_bad_arguments():
    with pytest.raises(ValueError):
        bose_integrand(0.0, 2)
    with pytest.raises(ValueError):
        bose_integrand(-1.0, 2)
    with pytest.raises(ValueError):
        bose_integrand(1.0, 1)


def test_fermi_point_values():
    assert fermi_integrand(0.0, 1) == 0.5
    assert fermi_integrand(0.0, 2) == 0.0
    assert abs(fermi_integrand(1.0, 2) - 1.0 / (math.e + 1.0)) < 5e-16


def test_fermi_no_overflow_far_out():
    assert fermi_integrand(800.0, 3) == 0.0
    assert math.isfinite(fermi_integrand(700.0, 10))


def test_fermi_rejects_bad_arguments():
    with pytest.raises(ValueError):
        fermi_integrand(-0.5, 2)
    with pytest.raises(ValueError):
        fermi_integrand(1.0, 0)


STABILITY_GRID = [1e-12, 1e-8, 1e-4, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 50.0, 100.0, 350.0, 700.0]


def test_bose_within_4_ulps_of_double_working_precision():
    with mp.workprec(120):
        for s in range(2, 11):
            for x in STABILITY_GRID:
                lo = bose_integrand(x, s)
                hi = float(mp.mpf(x) ** (s - 1) / mp.expm1(mp.mpf(x)))
                assert abs(lo - hi) <= 4 * math.ulp(abs(lo)), (s, x)


def test_fermi_within_4_ulps_of_double_working_precision():
    with mp.workprec(120):
        for s in range(1, 11):
            for x in STABILITY_GRID:
                lo = fermi_integrand(x, s)
                hi = float(mp.mpf(x) ** (s - 1) / (mp.exp(mp.mpf(x)) + 1))
                assert abs(lo - hi) <= 4 * math.ulp(abs(lo)), (s, x)


def test_cot_kernel_limits_and_midrange():
    assert cot_kernel(0.0, 2) == 2.0
    assert cot_kernel(0.0, 3) == 0.0
    for y in (0.3, 1.0, 2.0, 3.0):
        naive = y * math.sin(y) / (1.0 - math.cos(y))
        assert abs(cot_kernel(y, 2) - naive) < 1e-13


def test_cot_kernel_series_fallback_matches_reference():
    with mp.workprec(120):
        for s in (2, 3, 5):
            for y in (1e-6, 5e-5, 9.9e-5):
                ref = float(mp.mpf(y) ** (s - 1) * mp.cot(mp.mpf(y) / 2))
                assert abs(cot_kernel(y, s) - ref) <= 4 * math.ulp(abs(ref))


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
# finite adaptive rule

def test_linear_integrand():
    r = integrate_finite(lambda y: y / 2.0, 0.0, math.pi, 1e-12)
    assert r.converged
    assert abs(r.value - math.pi**2 / 4.0) <= max(r.error_estimate, 1e-12)


def test_constant_integrand():
    r = integrate_finite(lambda y: 1.0, 0.0, 1.0, 1e-12)
    assert r.converged and abs(r.value - 1.0) < 1e-14


def test_cot_weighted_integral_against_trapezoid_oracle():
    r = integrate_finite(lambda y: cot_kernel(y, 2), 0.0, math.pi, 1e-10)
    assert r.converged
    assert abs(r.value - TRAPEZOID_ORACLE_1E7) < 2e-9  # oracle resolution
    assert abs(r.value - 2.0 * math.pi * math.log(2.0)) < 1e-10
    # light in-test trapezoid for live consistency
    n = 100_000
    h = math.pi / n
    light = (cot_kernel(0.0, 2) + cot_kernel(math.pi, 2)) / 2.0
    light += math.fsum(cot_kernel(i * h, 2) for i in range(1, n))
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

# (node, gauss weight, kronrod weight), the QK15 table in the kernel's node order
_GK15_TABLE = (
    (+0.991455371120812639206854697526329, 0.0, 0.022935322010529224963732008058970),
    (-0.991455371120812639206854697526329, 0.0, 0.022935322010529224963732008058970),
    (+0.949107912342758524526189684047851, 0.129484966168869693270611432679082, 0.063092092629978553290700663189204),
    (-0.949107912342758524526189684047851, 0.129484966168869693270611432679082, 0.063092092629978553290700663189204),
    (+0.864864423359769072789712788640926, 0.0, 0.104790010322250183839876322541518),
    (-0.864864423359769072789712788640926, 0.0, 0.104790010322250183839876322541518),
    (+0.741531185599394439863864773280788, 0.279705391489276667901467771423780, 0.140653259715525918745189590510238),
    (-0.741531185599394439863864773280788, 0.279705391489276667901467771423780, 0.140653259715525918745189590510238),
    (+0.586087235467691130294144838258730, 0.0, 0.169004726639267902826583426598550),
    (-0.586087235467691130294144838258730, 0.0, 0.169004726639267902826583426598550),
    (+0.405845151377397166906606412076961, 0.381830050505118944950369775488975, 0.190350578064785409913256402421014),
    (-0.405845151377397166906606412076961, 0.381830050505118944950369775488975, 0.190350578064785409913256402421014),
    (+0.207784955007898467600689403773245, 0.0, 0.204432940075298892414161999234649),
    (-0.207784955007898467600689403773245, 0.0, 0.204432940075298892414161999234649),
    (0.0, 0.417959183673469387755102040816327, 0.209482141084727828012999174891714),
)


def _gk15_loop(f, a, b):
    """The reference panel: one loop over the node table."""
    center = 0.5 * (a + b)
    half = 0.5 * (b - a)
    resg = 0.0
    resk = 0.0
    resabs = 0.0
    values = []
    for node, wg, wk in _GK15_TABLE:
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
    kernel = quadrature._gk15(f, a, b)
    assert repr(kernel) == repr(_gk15_loop(f, a, b)), (a, b)
    return kernel


def test_panel_bit_for_bit_on_random_float_panels():
    rng = random.Random(2024)
    for _ in range(300):
        s = rng.randint(1, 24)
        c = rng.uniform(-3.0, 3.0)
        a = rng.uniform(0.0, 50.0)
        b = a + 10.0 ** rng.uniform(-12.0, 2.0)
        _same_panel(lambda x: fermi_integrand(x, s), a, b)
        _same_panel(lambda x: math.sin(c * x) * math.exp(-x) - c, a, b)
        _same_panel(lambda x: cot_kernel(x, max(s, 2)), 0.0, rng.uniform(1e-9, math.pi))


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
                assert isinstance(value, complex)


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
    value, err, at_floor, _ = _gk15_loop(f, a, b)
    intervals = [(a, b, value, err, at_floor)]
    evaluations = 15
    reason = ""
    while True:
        total_err = math.fsum(item[3] for item in intervals)
        if total_err <= tol:
            break
        if evaluations + 30 > budget:
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
        intervals[worst] = (wa, mid, *_gk15_loop(f, wa, mid)[:3])
        intervals.append((mid, wb, *_gk15_loop(f, mid, wb)[:3]))
        evaluations += 30

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
        return (lambda x: bose_integrand(x, s)), 0.0, x_max
    if kind == "fermi":
        return (lambda x: fermi_integrand(x, s)), 0.0, x_max
    if kind == "cot":
        return (lambda y: cot_kernel(y, s)), 0.0, math.pi
    from zeta_recur.quadrature import _pole_ratio_integrand

    top = complex(x_max, math.pi)
    start, end = ((0j, complex(x_max)), (complex(x_max), top), (top, math.pi * 1j),
                  (math.pi * 1j, 0j))[side]
    delta = end - start
    return (lambda t: _pole_ratio_integrand(start + t * delta, s) * delta), 0.0, 1.0


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
    # 2 eps times the panel's integral of |sin(50x)| is far above 1e-300: the
    # scan loop bisects to its budget, the floor sum stops after the first panel
    f = lambda x: math.sin(50.0 * x)  # noqa: E731
    r = integrate_finite(f, 0.0, 20.0, 1e-300, 600)
    assert (r.converged, r.reason, r.evaluations) == (False, quadrature.ROUNDOFF_FLOOR, 15)
    assert _scan_loop(f, 0.0, 20.0, 1e-300, 600).reason == quadrature.BUDGET_EXHAUSTED


def _fsum_loop(f, a, b, tol, budget):
    """The heap loop with both stop tests on sums fsum recomputes at every step."""
    if not quadrature._nodes_interior(a, b):
        return QuadratureResult(0.0, math.inf, 0, quadrature.FLOAT_EXHAUSTION)
    value, err, at_floor, floor = quadrature._gk15(f, a, b)
    values, errs, floors = [value], [err], [floor]
    heap = [(-err, a, b, 0, at_floor)]
    evaluations = 15
    reason = ""
    while True:
        total_err = math.fsum(errs)
        if total_err <= tol:
            break
        if math.fsum(floors) - 2.0 * quadrature._EPS * total_err > tol:
            reason = quadrature.ROUNDOFF_FLOOR
            break
        if evaluations + 30 > budget:
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
        values[slot], errs[slot], at_floor, floors[slot] = quadrature._gk15(f, wa, mid)
        heapq.heapreplace(heap, (-errs[slot], wa, mid, slot, at_floor))
        value, err, at_floor, floor = quadrature._gk15(f, mid, wb)
        heapq.heappush(heap, (-err, mid, wb, len(values), at_floor))
        values.append(value)
        errs.append(err)
        floors.append(floor)
        evaluations += 30
    if any(isinstance(v, complex) for v in values):
        total = complex(math.fsum(v.real for v in values), math.fsum(v.imag for v in values))
    else:
        total = math.fsum(values)
    return QuadratureResult(total, total_err, evaluations, reason)


def test_running_sums_against_the_fsum_loop():
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    # the running sums decide nothing themselves: every result is the fsum
    # loop's, bit for bit, also at a tol equal to or one ulp from a reachable
    # error sum, where only the exact sums can tell the two sides apart
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


def test_running_sums_keep_a_long_integral_linear(monkeypatch):
    # 8,058 bisections: the fsum loop re-sums both lists before each of them
    f = lambda x: math.sin(300.0 * x)  # noqa: E731
    ref = _fsum_loop(f, 0.0, 100.0, 1e-9, 480_000)
    fsum, calls = math.fsum, []
    monkeypatch.setattr(math, "fsum", lambda xs: calls.append(1) or fsum(xs))
    r = integrate_finite(f, 0.0, 100.0, 1e-9, 480_000)
    monkeypatch.undo()
    assert (r.converged, r.evaluations) == (True, 241_755)
    assert repr(r) == repr(ref)
    assert len(calls) < 20, len(calls)  # a handful near tol, not two per bisection


# ---------------------------------------------------------------------------
# semi-infinite integrals

def test_bose_integral_basel():
    r = integrate_semi_infinite(lambda x: bose_integrand(x, 2), 2, 1e-10)
    assert r.converged
    assert abs(r.value - math.pi**2 / 6.0) < 1e-10


def test_fermi_integral_log2():
    # closed-form antiderivative: -ln(1 + e^-x), so the integral is ln 2
    r = integrate_semi_infinite(lambda x: fermi_integrand(x, 1), 1, 1e-10)
    assert r.converged
    assert abs(r.value - math.log(2.0)) < 1e-10


def test_fermi_integral_s2():
    r = integrate_semi_infinite(lambda x: fermi_integrand(x, 2), 2, 1e-10)
    assert abs(r.value - math.pi**2 / 12.0) < 1e-10


def test_truncation_point_satisfies_bound():
    for s in range(1, 11):
        x = truncation_point(s, 5e-11)
        assert tail_bound(s, x) <= 5e-11


def test_truncation_always_meets_the_tail_tolerance():
    # e^-x underflows to 0 by the scan's cap x = 750, so no tolerance is too
    # small: the semi-infinite result converges exactly when [0, X] does
    for s in [*range(1, 172, 10), 171]:
        x = truncation_point(s, 5e-324)
        assert tail_bound(s, x) <= 5e-324, s


def test_tail_bound_honesty():
    for s in range(2, 9):
        base = integrate_semi_infinite(lambda x, s=s: bose_integrand(x, s), s, 1e-9)
        x = truncation_point(s, 5e-10)
        wider = integrate_finite(lambda x, s=s: bose_integrand(x, s), 0.0, x + 5.0, 5e-10)
        assert abs(wider.value - base.value) < base.error_estimate


def test_semi_infinite_estimate_includes_tail():
    # the semi-infinite result is the finite integral up to the truncation
    # point, with the tail bound added to its error estimate
    def f(x):
        return bose_integrand(x, 2)

    x = truncation_point(2, 5e-9)
    r = integrate_semi_infinite(f, 2, 1e-8)
    base = integrate_finite(f, 0.0, x, 5e-9)
    assert r.value == base.value
    assert r.error_estimate == base.error_estimate + tail_bound(2, x)
    assert r.error_estimate >= tail_bound(2, x)


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


def test_segment_validation():
    with pytest.raises(ValueError):
        Segment(1.0 + 1.0j, 1.0 + 1.0j)
    with pytest.raises(ValueError):
        integrate_segment(1, Segment(complex(0.0), complex(1.0)), 1e-9)


def test_segment_is_one_complex_pass():
    # the segment integral is exactly one complex integrate_finite of the
    # parameterized integrand: same value, evaluations and convergence
    from zeta_recur.quadrature import _pole_ratio_integrand

    start, end = complex(0.0), complex(0.0, math.pi)
    r = integrate_segment(2, Segment(start, end), 1e-10)
    direct = integrate_finite(
        lambda t: _pole_ratio_integrand(start + t * (end - start), 2) * (end - start),
        0.0, 1.0, 1e-10)
    assert r == direct
    assert isinstance(r.value, complex)
    assert r.converged and r.error_estimate <= 1e-10
