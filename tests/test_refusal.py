"""Refusal of tolerances below the double-precision floor of a check's quadratures.

A check refuses tol when some integral it runs at share * tol has a proven lower
bound L on the integral of |f| with share * tol < eps * L: every K21 panel
reports at least 2 eps times its own integral of |f|, so such a request can
only end at the roundoff floor.
"""

import functools
import math

import mpmath as mp
import pytest

from zeta_recur import identities, quadrature
from zeta_recur.identities import (
    Refused,
    contour_closure,
    expanded_real_identity,
    verify_bose_integral,
    verify_eq9,
    verify_fermi_integral,
    verify_log2_identity,
    verify_odd_zeta,
    verify_zeta2,
)
from zeta_recur.quadrature import (
    ROUNDOFF_FLOOR,
    Segment,
    bose,
    integrate_segment,
    integrate_semi_infinite,
    truncation_point,
)

EPS = 2.220446049250313e-16
RADII = (0.01, 10.0, 30.0, 60.0)
PI2 = mp.pi**2


# ---------------------------------------------------------------------------
# the lower bounds against mpmath quadrature of |f| over the same range

def _quad(f, a, b):
    return mp.quad(f, [a, b], method="gauss-legendre")


@pytest.mark.parametrize("radius", RADII)
def test_real_axis_bounds_below_the_integrals_of_abs_f(radius):
    # A on [0, X] and the bottom side on [0, R] share the integrand
    # x^(s-1)/(e^x-1); the top side's |f| is |x + i pi|^(s-1)/(e^x+1)
    for s in range(2, 109):
        bound = identities._lower_gamma(s, radius)
        bottom = _quad(lambda x: x ** (s - 1) / mp.expm1(x), 0, radius)
        top = _quad(lambda x: (x * x + PI2) ** (mp.mpf(s - 1) / 2) / (mp.exp(x) + 1), 0, radius)
        assert 0 < bound < bottom, (s, radius)
        assert 0.5 * bound < top, (s, radius)


def test_left_side_bound_below_the_integral_of_abs_f():
    # C and the left side both run from 0 to i pi: |f| = y^(s-1) / (2 sin(y/2))
    for s in range(2, 109):
        exact = _quad(lambda y: y ** (s - 1) / (2 * mp.sin(y / 2)), 0, mp.pi)
        assert 0 < identities._pi_side_bound(s) < exact, s


@pytest.mark.parametrize("s,x", [(2, 750.0), (108, 750.0), (20, 19.999), (20, 20.0), (174, 60.0),
                                 (143, 142.9), (209, 30.0)])
def test_lower_gamma_at_its_branch_point_and_extremes(s, x):
    exact = mp.gammainc(s, 0, x)
    bound = identities._lower_gamma(s, x)
    assert (1 - 1e-9) * exact < bound < exact, (s, x)


def test_lower_gamma_underflows_to_zero():
    assert identities._lower_gamma(620, 0.01) == 0.0  # gamma(620, 0.01) ~ 1.6e-1243


# ---------------------------------------------------------------------------
# where the floor sits

def test_overflow_refusal_comes_first():
    with pytest.raises(Refused, match="got s = 109"):
        verify_eq9(109, 1e-300)
    with pytest.raises(Refused, match="R <= 709.78"):
        contour_closure(2, 800.0, 1e-300)


def test_floor_is_the_boundary():
    with pytest.raises(Refused) as exc:
        verify_eq9(12, 1e-12)
    floor = float(str(exc.value).split("tol >= ")[1].split()[0])
    assert verify_eq9(12, 2 * floor).identity_id == identities.IdentityId.EQ9
    with pytest.raises(Refused):
        verify_eq9(12, 0.5 * floor)


# ---------------------------------------------------------------------------
# property: a refused input's sub-floor quadrature cannot converge, and
# every input that is not refused passes or says why it failed

def _requests(identity, s, tol, radius):
    """(share, lower bound, the quadrature the check runs at share * tol)."""
    i_pi = complex(0.0, math.pi)
    left = identities._pi_side_bound(s)
    if identity == "s2":
        return [(1 / 4, left, lambda: integrate_segment(s, Segment(0j, i_pi), tol / 4))]
    if identity == "eq9":
        a_bound = identities._lower_gamma(s, truncation_point(s, tol / 8)[0])
        return [
            (1 / 8, a_bound,
             lambda: integrate_semi_infinite(bose(s), s, tol / 4)),
            (1 / 4, left, lambda: integrate_segment(s, Segment(0j, i_pi), tol / 4)),
        ]
    bottom = identities._lower_gamma(s, radius)
    top = complex(radius, math.pi)
    return [
        (1 / 4, bottom, lambda: integrate_segment(s, Segment(0j, complex(radius)), tol / 4)),
        (1 / 4, 0.5 * bottom, lambda: integrate_segment(s, Segment(top, i_pi), tol / 4)),
        (1 / 4, left, lambda: integrate_segment(s, Segment(i_pi, 0j), tol / 4)),
    ]


def _check(identity, s, tol, radius):
    if identity == "eq9":
        return verify_eq9(s, tol)
    if identity == "s2":
        return verify_zeta2(tol)
    return contour_closure(s, radius, tol)


def test_refusal_property():
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    # tol is drawn around eps * Gamma(s), the size of the floors being tested
    @hyp.settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @hyp.given(identity=st.sampled_from(("eq9", "s2", "closure")),
               s=st.integers(2, 174),
               decades=st.floats(-4.0, 6.0),
               radius=st.floats(0.01, 60.0))
    def prop(identity, s, decades, radius):
        s = 2 if identity == "s2" else min(s, 108) if identity == "eq9" else s
        tol = 10.0 ** (decades + (math.lgamma(s) + math.log(EPS)) / math.log(10.0))
        sub_floor = [run for share, bound, run in _requests(identity, s, tol, radius)
                     if share * tol < EPS * bound]
        try:
            report = _check(identity, s, tol, radius)
        except Refused:
            assert sub_floor
            for run in sub_floor:
                result = run()
                assert (result.converged, result.reason) == (False, ROUNDOFF_FLOOR)
            return
        assert not sub_floor
        assert report.passed or report.note

    prop()


def test_odd_reports_pass_or_say_why(monkeypatch):
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    # odd refuses no tol: below its floor, or on a starved budget, the report
    # must fail with a note
    @hyp.settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @hyp.given(half=st.integers(1, 85), decades=st.floats(-17.0, -3.0),
               budget=st.sampled_from((15, 100, 1_000_000)))
    def prop(half, decades, budget):
        with monkeypatch.context() as patch:
            patch.setattr(identities, "integrate_finite",
                          functools.partial(quadrature.integrate_finite, budget=budget))
            report = identities.verify_odd_zeta(2 * half + 1, 10.0 ** decades)
        assert report.passed or report.note

    prop()


@functools.cache
def _eq10_oracle(s):
    """(EQ10's left side at s, eq10's floor) from mpmath at 40 digits.

    The floor is eps times the summed magnitudes of the left side's terms, the
    pi^s term and the left side less the pi^s term.  Both are exact to about
    1e-40 of the summed magnitudes, far inside the eps they are compared at.
    """
    with mp.workdps(40):
        terms = [mp.gamma(s) * mp.zeta(s)]
        for j in range(0, s, 2):
            m = s - j
            f = mp.log(2) if m == 1 else (1 - mp.mpf(2) ** (1 - m)) * mp.gamma(m) * mp.zeta(m)
            terms.append(mp.binomial(s - 1, j) * (-1) ** (j // 2) * mp.pi**j * f)
        left = mp.fsum(terms)
        pi_term = -(-1) ** (s // 2) * mp.pi**s / (2 * s) if s % 2 == 0 else 0
        floor = EPS * (mp.fsum(abs(t) for t in terms) + abs(pi_term) + abs(left - pi_term))
        return left, float(floor)


def test_real_axis_and_eq10_reports_pass_or_say_why():
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    # eq2, eq7 and log2 refuse no tol, down to the least positive double: below
    # their floor the report must fail with a note, never raise.  eq10 refuses
    # only below the floor of its summed terms, and otherwise reports the same way
    @hyp.settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @hyp.given(identity=st.sampled_from(("eq2", "eq7", "eq10", "log2")),
               s=st.integers(2, 171),
               tol=st.one_of(st.just(5e-324), st.floats(-323.0, -3.0).map(lambda d: 10.0 ** d)))
    def prop(identity, s, tol):
        if identity == "eq2":
            report = verify_bose_integral(min(s, 108), tol)
        elif identity == "eq7":
            report = verify_fermi_integral(min(s, 108), tol)
        elif identity == "eq10":
            floor = _eq10_oracle(s)[1]
            try:
                report = expanded_real_identity(s, tol)
            except Refused:
                assert tol < (1 + 1e-9) * floor
                return
            assert tol >= (1 - 1e-9) * floor
        else:
            report = verify_log2_identity(tol)
        assert report.passed or report.note

    prop()


def test_eq10_passes_agree_with_mpmath():
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    # eq10 refuses exactly the tol below its floor, and a pass is never a wrong
    # answer: both its sides are within tol of mpmath's value of the left side
    passes = []

    @hyp.settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @hyp.given(s=st.integers(2, 171), decades=st.floats(-1.0, 4.0))
    def prop(s, decades):
        left, floor = _eq10_oracle(s)
        tol = floor * 10.0 ** decades
        try:
            report = expanded_real_identity(s, tol)
        except Refused:
            assert tol < (1 + 1e-9) * floor
            return
        assert tol >= (1 - 1e-9) * floor
        if report.passed:
            passes.append(s)
            assert abs(report.lhs - left) <= tol, (s, tol)
            assert abs(report.rhs - left) <= tol, (s, tol)

    prop()
    assert len(passes) > 100


@functools.cache
def _mp_value(identity, s):
    """mpmath's value, at 30 digits, of both sides of a check at s: Gamma(s) zeta(s)
    for eq2, (1 - 2^(1-s)) Gamma(s) zeta(s) for eq7, zeta(s) for odd and s2,
    pi ln 2 for log2, and eq9's C from its closed form at 40 digits."""
    if identity == "eq9":
        return _eq9_c_closed_form(s)
    with mp.workdps(30):
        if identity == "log2":
            return mp.pi * mp.log(2)
        value = mp.zeta(s)
        if identity in ("eq2", "eq7"):
            value *= mp.gamma(s)
        if identity == "eq7":
            value *= 1 - mp.mpf(2) ** (1 - s)
        return value


def _eq9_c_closed_form(s, terms=60):
    """EQ9's C = -(i^s/2) pi^s/s - (i^(s+1)/2) K(s) at 40 digits, without quadrature.

    K(s) = int_0^pi y^(s-1) cot(y/2) dy = pi^(s-1) [2/(s-1) - sum_{k>=1} 4^(1-k)
    zeta(2k)/(s+2k-1)], from pi cot(pi x) = 1/x - 2 sum_k zeta(2k) x^(2k-1) with
    y = 2 pi x.  zeta(2k) is mpmath's own, so nothing here comes from the package;
    the k-th term is below 4^(1-k), so 60 terms leave about 1e-35 of K(s)."""
    with mp.workdps(40):
        k_s = mp.pi ** (s - 1) * (mp.mpf(2) / (s - 1) - mp.fsum(
            mp.mpf(4) ** (1 - k) * mp.zeta(2 * k) / (s + 2 * k - 1) for k in range(1, terms + 1)))
        i_pow = (1, 1j, -1, -1j)
        return -i_pow[s % 4] / 2 * mp.pi ** s / s - i_pow[(s + 1) % 4] / 2 * k_s


# identity -> (its check at (s, tol), draws, the least number of them that pass)
_CHECKS = {
    "eq2": (verify_bose_integral, 400, 300),
    "eq7": (verify_fermi_integral, 400, 300),
    "odd": (verify_odd_zeta, 150, 90),
    "s2": (lambda s, tol: verify_zeta2(tol), 100, 60),
    "log2": (lambda s, tol: verify_log2_identity(tol), 100, 60),
    "eq9": (verify_eq9, 300, 200),
}


@pytest.mark.parametrize("identity", _CHECKS)
def test_passes_agree_with_mpmath(identity):
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    # a pass is never a wrong answer: both sides lie within tol of mpmath's
    # value.  eq2 and eq7 draw tol from 1e-16 to 1e2 times that value, eq9
    # from 1e-16 to 1 times Gamma(s), the others from 1e-17 to 1e-2; the pass
    # count shows the property is exercised
    check, draws, least = _CHECKS[identity]
    if identity in ("eq2", "eq7"):
        s_draw, decades = st.integers(2, 108), st.floats(-16.0, 2.0)
    elif identity == "eq9":
        s_draw, decades = st.integers(2, 108), st.floats(-16.0, 0.0)
    elif identity == "odd":
        s_draw, decades = st.integers(1, 85).map(lambda h: 2 * h + 1), st.floats(-17.0, -2.0)
    else:
        s_draw, decades = st.just(2), st.floats(-17.0, -2.0)
    passes = []

    @hyp.settings(max_examples=draws, deadline=None, derandomize=True, database=None)
    @hyp.given(s=s_draw, decades=decades)
    def prop(s, decades):
        value = _mp_value(identity, s)
        scale = (float(value) if identity in ("eq2", "eq7")
                 else math.gamma(s) if identity == "eq9" else 1.0)
        tol = 10.0 ** decades * scale
        try:
            report = check(s, tol)
        except Refused as exc:
            if identity == "eq9":  # the floor is printed to 3 digits
                floor = float(str(exc).split("requires tol >= ")[1].split()[0])
                assert tol < floor * (1 + 5e-3), (s, tol, str(exc))
                return
            # s2, below the floor of its one integral
            assert identity == "s2" and tol < 4 * EPS * math.pi
            return
        if report.passed:
            passes.append(s)
            with mp.workdps(30):
                assert abs(report.lhs - value) <= tol, (s, tol)
                assert abs(report.rhs - value) <= tol, (s, tol)

    prop()
    assert len(passes) >= least


def _closure_sides(s, radius):
    """The four side integrals of the rectangle 0, R, R + i pi, i pi from mpmath alone,
    at 50 digits, for R >= 1.

    With G_k(m) = Gamma(m, kR), expanded as 1/(e^x -+ 1) = sum_k (+-1)^(k+1) e^-kx:
      bottom = Gamma(s) zeta(s) - sum_k k^-s G_k(s);
      top    = sum_j C(s-1,j) (i pi)^j [F_m - sum_k (-1)^(k+1) k^-m G_k(m)], m = s - j,
               with F_m = (1 - 2^(1-m)) Gamma(m) zeta(m) and F_1 = ln 2;
      left   = -C, from _eq9_c_closed_form; right = -(bottom + top + left).
    G_k(m) comes up from G_k(1) = e^-kR by G_k(m+1) = m G_k(m) + (kR)^m e^-kR, all
    terms positive.  The k-sums stop once kR > s and their terms fall below
    1e-60 Gamma(s), far inside the tol >= 1e-17 (s-1)! they are compared at."""
    with mp.workdps(50):
        negligible = 1e-60 * mp.gamma(s)
        bottom_tail = mp.mpf(0)
        top_tails = [mp.mpf(0)] * (s + 1)
        k = 0
        while True:
            k += 1
            x = k * mp.mpf(radius)
            power = g = mp.exp(-x)
            upper = [None, g]
            for m in range(1, s):
                power *= x
                upper.append(m * upper[m] + power)
            terms = [upper[m] / mp.mpf(k) ** m for m in range(1, s + 1)]
            bottom_tail += terms[-1]
            for m in range(1, s + 1):
                top_tails[m] += terms[m - 1] if k % 2 else -terms[m - 1]
            if x > s and max(terms) < negligible:
                break
        bottom = mp.gamma(s) * mp.zeta(s) - bottom_tail
        top = mp.fsum(
            mp.binomial(s - 1, j) * mp.mpc(0, mp.pi) ** j
            * ((mp.log(2) if m == 1 else (1 - mp.mpf(2) ** (1 - m)) * mp.gamma(m) * mp.zeta(m))
               - top_tails[m])
            for j, m in ((j, s - j) for j in range(s)))
        left = -_eq9_c_closed_form(s)
        return bottom, -(bottom + top + left), top, left


def _bernoulli_sides(s, radius):
    """The four side integrals of the rectangle 0, R, R + i fl(pi), i fl(pi) from mpmath
    alone, at 50 digits, for R <= 1: the rectangle closure integrates, whose corners
    are doubles, so its top lies at the double fl(pi), 1.2e-16 below pi.

    The rectangle lies inside |z| < 2 pi, where z^(s-1)/(e^z - 1) = sum_k B_k z^(k+s-2)/k!,
    so each side is a difference of the antiderivative
    G(z) = sum_k B_k z^(k+s-1)/(k! (k+s-1)), with mpmath's own B_k.  On the rectangle
    |z| <= |1 + i pi| < 3.3, and |B_k|/k! < 4/(2 pi)^k, so the terms from k = 200 on
    sum to below 1e-55 of z^(s-1)."""
    with mp.workdps(50):
        top = mp.mpf(math.pi)
        coefs = [mp.bernoulli(k) / (mp.factorial(k) * (k + s - 1)) for k in range(200)]
        corners = [mp.mpc(0), mp.mpc(radius), mp.mpc(radius, top), mp.mpc(0, top), mp.mpc(0)]
        g = [z ** (s - 1) * mp.polyval(coefs[::-1], z) for z in corners]
        return tuple(b - a for a, b in zip(g, g[1:]))


def _check_closure_sides(s, radius, tol, sides, passes):
    """closure at (s, R, tol): a refusal states a floor above tol, and on a pass each of
    the four sides lies within tol of its value from sides(s, R)."""
    try:
        report = contour_closure(s, radius, tol)
    except Refused as exc:  # the floor is printed to 3 digits
        floor = float(str(exc).split("requires tol >= ")[1].split()[0])
        assert tol < floor * (1 + 5e-3), (s, radius, tol, str(exc))
        return
    if report.passed:
        passes.append(s)
        for side, value in zip(sides(s, radius), report.side_values):
            assert abs(value - side) <= tol, (s, radius, tol)


def test_closure_sides_agree_with_mpmath():
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    # a pass is never a wrong answer: each of the four sides lies within tol of
    # its value from mpmath alone, and a refusal states a floor above tol.  R is
    # drawn from 1 to 700 (below 1 see the next test), tol from 1e-17 to 1e-2
    # times (s-1)!
    passes = []

    @hyp.settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @hyp.given(s=st.integers(2, 40), log_radius=st.floats(0.0, math.log10(700.0)),
               decades=st.floats(-17.0, -2.0))
    def prop(s, log_radius, decades):
        _check_closure_sides(s, 10.0 ** log_radius, 10.0 ** decades * math.gamma(s),
                             _closure_sides, passes)

    prop()
    assert len(passes) >= 100


def test_closure_sides_below_radius_one_agree_with_mpmath():
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    # the same property below R = 1, against the Bernoulli series.  R is drawn
    # from 10^U(-3, 0), every fourth draw from 10^U(-300, 0), and tol from 1e-17
    # to 1e-2 times pi^(s-1)/(s-1), the left side's bound, which sets the floor
    passes, draws = [], []

    @hyp.settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @hyp.given(s=st.integers(2, 40), log_radius=st.floats(-3.0, 0.0),
               decades=st.floats(-17.0, -2.0))
    def prop(s, log_radius, decades):
        draws.append(s)
        radius = 10.0 ** (log_radius * (100 if len(draws) % 4 == 0 else 1))
        tol = 10.0 ** decades * math.pi ** (s - 1) / (s - 1)
        _check_closure_sides(s, radius, tol, _bernoulli_sides, passes)

    prop()
    assert len(passes) >= 20
