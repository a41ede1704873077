"""Numerical verification of the identity chain behind the even-zeta recursion.

Identity tags name the numbered equations of docs/derivation.md:

    EQ2          Gamma-weighted series integral: int x^(s-1)/(e^x-1) = Gamma(s) zeta(s)
    EQ5          partial fraction 2/(e^(2t)-1) = 1/(e^t-1) - 1/(e^t+1), pointwise
    EQ7          alternating-weight integral: int x^(s-1)/(e^x+1) = (1-2^(1-s)) Gamma(s) zeta(s)
    EQ9          the R -> inf limit A - B = C of the closure
    S2_REAL      real part of EQ9 at s = 2 (recovers zeta(2) = pi^2/6)
    S2_IMAG      imaginary part of EQ9 at s = 2 (recovers pi ln 2)
    EQ10_NUMERIC expanded real part of EQ9 for general s (the recursion's shadow)
    ODD_ZETA     zeta at odd s solved out of EQ10_NUMERIC

EQ8, the vanishing of the rectangle contour integral of z^(s-1)/(e^z-1), has
no tag: ``contour_closure`` reports it as a ``ContourReport``.

``zeta_series`` is the independent oracle: direct summation with an
Euler-Maclaurin tail, touching none of the quadrature or exact-arithmetic
paths it is used to check.

This module alone decides what each check accepts (``Refused``, raised
before any quadrature, names the bound), whether it passed and why not.
"""

from __future__ import annotations

import enum
import functools
import math
import random
import sys
from collections import namedtuple
from decimal import Context, Decimal, localcontext

from .exact import Table, gamma_int, zeta_even_recursive
from .quadrature import (
    DEFAULT_EVAL_BUDGET,
    QuadratureResult,
    Segment,
    bose,
    cot_power,
    fermi,
    integrate_finite,
    integrate_segment,
    integrate_semi_infinite,
    truncation_point,
)

__all__ = [
    "Refused",
    "IdentityId",
    "IdentityReport",
    "ContourReport",
    "LimitComponents",
    "zeta_series",
    "verify_bose_integral",
    "verify_fermi_integral",
    "verify_eq5",
    "contour_closure",
    "eq9_components",
    "verify_eq9",
    "verify_zeta2",
    "verify_log2_identity",
    "cot_power_integral",
    "expanded_real_identity",
    "odd_zeta_from_contour",
    "verify_odd_zeta",
]

LN2 = math.log(2.0)
_EPS = sys.float_info.epsilon

# the powers of i, indexed by exponent mod 4
_I_POW = (1, 1j, -1, -1j)

_LN_MAX = math.log(sys.float_info.max)
# (largest s, why) of the checks whose float terms overflow past it: the
# semi-infinite integrands take x^(s-1) up to truncation_point's cap x = 750,
# where it overflows from s = 109; Gamma(s) = (s-1)! overflows from s = 172
_REAL_AXIS_S = (108, "x^(s-1) must fit a double for x <= 750")
_GAMMA_S = (171, "Gamma(s) must fit a double")


class Refused(ValueError):
    """An input a check cannot evaluate in doubles, refused before any quadrature."""


def _require_s(name: str, s: int, s_max: int, why: str, odd: bool = False) -> None:
    """Refuse s outside 2..s_max (odd s in 3..s_max with odd=True)."""
    if not (3 if odd else 2) <= s <= s_max or (odd and s % 2 == 0):
        kind = "an odd s in 3" if odd else "s in 2"
        raise Refused(f"{name} requires {kind}..{s_max} ({why}), got s = {s}")


# relative shave that keeps a bound computed in doubles below the true value:
# far more than the rounding of the few hundred operations behind it
_SHAVE = 1.0 - 1e-10


def _lower_gamma(s: int, x: float) -> float:
    """A lower bound on gamma(s, x) = int_0^x t^(s-1) e^-t dt, for x > 0.

    Below x = s: x^(s-1) e^-x times x sum_k x^k / (s (s+1) ... (s+k)), positive
    terms summed until they stop moving the sum, so the cut sum is short of the
    series.  From x = s on: (s-1)! (1 - e^-x sum_{k<s} x^k/k!), where the
    subtracted Poisson probability is below 1/2, so nothing cancels.
    """
    if x < s:
        term = total = 1.0 / s
        k = s
        while term > 1e-17 * total:
            k += 1
            term *= x / k
            total += term
        return _SHAVE * math.exp((s - 1) * math.log(x) - x) * (x * total)
    term = partial = math.exp(-x)
    for k in range(1, s):
        term *= x / k
        partial += term
    return _SHAVE * float(gamma_int(s)) * (1.0 - partial)


def _pi_side_bound(s: int) -> float:
    """A lower bound on int_0^pi y^(s-1) / |e^(iy) - 1| dy, the |f| of the side from 0
    to i*pi: |e^(iy) - 1| = 2 sin(y/2) <= y, so the integrand is at least y^(s-2)."""
    return _SHAVE * math.pi ** (s - 1) / (s - 1)


def _refuse_below_floor(name: str, s: int, tol: float, requests) -> None:
    """Refuse tol when a quadrature a check runs cannot converge in doubles.

    Each request (share, bound) is one integral the check runs at share * tol,
    with bound a proven lower bound on the integral of |f| over its range.
    Every K21 panel reports at least 2 eps times its integral of |f|, so the
    estimates of all panels sum to about 2 eps * bound: share * tol below
    eps * bound can never be met, and the quadrature would run into its
    roundoff floor.  The floor named is the smallest tol every request meets.
    """
    floor = max(_EPS * bound / share for share, bound in requests)
    if tol < floor:
        raise Refused(f"{name} requires tol >= {floor:.3g} at s = {s} (eps times a lower "
                      f"bound on the integral of |f| it must resolve), got tol = {tol!r}")


def _share(k: float, tol: float) -> float:
    """The share k * tol of a check's tolerance that one quadrature is asked for,
    at least the least positive double: a subnormal tol must reach the
    quadrature, stop at its roundoff floor and say so, not underflow to 0."""
    return max(k * tol, math.ulp(0.0))


def _unconverged_note(reason: str) -> str:
    """The failure note of a check whose quadratures stopped short, for that reason."""
    return "; ".join(filter(None, ("quadrature did not converge", reason)))


class IdentityId(str, enum.Enum):
    EQ2 = "EQ2"
    EQ5 = "EQ5"
    EQ7 = "EQ7"
    EQ9 = "EQ9"
    S2_REAL = "S2_REAL"
    S2_IMAG = "S2_IMAG"
    EQ10_NUMERIC = "EQ10_NUMERIC"
    ODD_ZETA = "ODD_ZETA"


class IdentityReport(namedtuple("IdentityReport", "identity_id s lhs rhs tolerance passed note",
                                defaults=("",))):
    """One identity's two sides at s, the tolerance, the verdict and why it failed."""

    __slots__ = ()

    @property
    def residual(self) -> float:
        return abs(self.lhs - self.rhs)

    @classmethod
    def from_sides(cls, identity_id, s, lhs, rhs, tolerance, note="", reason="", estimate=0.0):
        """The verdict and failure note of lhs against rhs.  ``reason``, why a
        quadrature stopped short of its tolerance, makes the report unconverged,
        and the note names it.  An error estimate of lhs above the tolerance fails,
        and the note names it after any stop reason.  Any other failure names its
        residual against the tolerance, after the caller's ``note``.  A tolerance
        the compared values cannot resolve in doubles is the caller's to refuse
        before it computes them."""
        residual = abs(lhs - rhs)
        passed = not reason and residual <= tolerance and estimate <= tolerance
        if reason and not note:
            note = _unconverged_note(reason)
        if not estimate <= tolerance:
            note = "; ".join(filter(None, (
                note, f"error estimate {estimate:.3g} above tolerance {tolerance:.3g}")))
        elif not passed and not reason:
            note = "; ".join(filter(None, (
                note, f"residual {residual:.3g} above tolerance {tolerance:.3g}")))
        return cls(identity_id, s, lhs, rhs, tolerance, passed, note)


class ContourReport(namedtuple("ContourReport", "s R side_values error_estimate evaluations "
                                                "reason tolerance")):
    """Side integrals of z^(s-1)/(e^z-1) around the rectangle 0, R, R+i*pi, i*pi:
    bottom, right, top and left, and why any stopped short of its tolerance
    (reason).  The verdict (converged and |closure| <= tolerance) and why it
    failed (note: the sides' stop reasons, or |closure| against the tolerance)
    follow from these."""

    __slots__ = ()

    @property
    def closure(self) -> complex:
        bottom, right, top, left = self.side_values
        return bottom + right + top + left

    @property
    def right_side_magnitude(self) -> float:
        return abs(self.side_values[1])

    @property
    def converged(self) -> bool:
        return not self.reason

    @property
    def passed(self) -> bool:
        return not self.reason and abs(self.closure) <= self.tolerance

    @property
    def note(self) -> str:
        if self.reason:
            return _unconverged_note(self.reason)
        if not self.passed:
            return f"closure magnitude {abs(self.closure):.3g} above tolerance {self.tolerance:.3g}"
        return ""


def zeta_series(s: int, tol: float) -> float:
    """zeta(s) by direct summation with an Euler-Maclaurin tail.

    Sums k^-s for k < N and adds N^(1-s)/(s-1) + N^-s/2 + s N^(-s-1)/12.
    The first omitted correction bounds the truncation error, and N doubles
    until that bound is below tol/4.
    """
    if s < 2:
        raise ValueError("zeta_series requires s >= 2")
    if not tol > 0.0:
        raise ValueError("tolerance must be positive")
    n = 8
    while s * (s + 1) * (s + 2) / (720.0 * float(n) ** (s + 3)) > 0.25 * tol:
        n *= 2
    head = math.fsum(k ** (-s) for k in range(1, n))
    nf = float(n)
    tail = nf ** (1 - s) / (s - 1) + nf ** (-s) / 2.0 + s * nf ** (-s - 1) / 12.0
    return head + tail


def _oracle(s: int, tol: float, factor: float = 1) -> float:
    """factor * zeta(s) from the series oracle, to a tenth of tol and at most 1e-12;
    the series tolerance is that over factor, clamped at 1e-17, below which more
    terms no longer change a double zeta(s) near 1."""
    return factor * zeta_series(s, max(min(0.1 * tol, 1e-12) / factor, 1e-17))


def _stop_reason(quads) -> str:
    """The distinct reasons, in order, why any of these quadratures stopped short."""
    return "; ".join(dict.fromkeys(q.reason for q in quads if q.reason))


def _fermi_weight(m: int) -> float:
    """(1 - 2^(1-m)) Gamma(m): int_0^inf x^(m-1)/(e^x+1) dx = _fermi_weight(m) zeta(m).

    1.0 - 2.0^(1-m) is the correctly rounded 1 - 2^(1-m), so no Fraction is needed."""
    return (1.0 - 2.0 ** (1 - m)) * gamma_int(m)


def _odd_divisor(m: int) -> float:
    """Gamma(m) (2 - 2^(1-m)), the weight of zeta(m) on EQ10's left side at odd m,
    correctly rounded like _fermi_weight."""
    return (2.0 - 2.0 ** (1 - m)) * gamma_int(m)


def verify_bose_integral(s: int, tol: float = 1e-9,
                         budget: int = DEFAULT_EVAL_BUDGET) -> IdentityReport:
    """EQ2: quadrature of x^(s-1)/(e^x-1) against Gamma(s) * zeta_series(s)."""
    _require_s("verify_bose_integral", s, *_REAL_AXIS_S)
    quad = integrate_semi_infinite(bose(s), s, _share(0.5, tol), budget=budget)
    rhs = _oracle(s, tol, gamma_int(s))
    return IdentityReport.from_sides(IdentityId.EQ2, s, quad.value, rhs, tol, reason=quad.reason)


def verify_fermi_integral(s: int, tol: float = 1e-9,
                          budget: int = DEFAULT_EVAL_BUDGET) -> IdentityReport:
    """EQ7: quadrature of x^(s-1)/(e^x+1) against (1-2^(1-s)) Gamma(s) zeta_series(s)."""
    _require_s("verify_fermi_integral", s, *_REAL_AXIS_S)
    quad = integrate_semi_infinite(fermi(s), s, _share(0.5, tol), budget=budget)
    rhs = _oracle(s, tol, _fermi_weight(s))
    return IdentityReport.from_sides(IdentityId.EQ7, s, quad.value, rhs, tol, reason=quad.reason)


_EQ5_SAMPLES = 1000
_EQ5_SEED = 53171

_LN10 = math.log(10.0)
# working bits of _exp60's first attempt, enough to settle the 60-digit
# rounding of every eq5 sample; a near tie doubles them.  At least 64, so
# that _exp60's decimal scale q is positive up to t = 30
_EXP_BITS = 256


def _exp60(t: float, wide: Context) -> Decimal:
    """e^t correctly rounded to 60 digits: exactly ``Decimal(t).exp(wide)``, digits
    and exponent alike, for a double 0 < t <= 30 and ``wide`` = Context(prec=60).

    In binary fixed point at B bits, S = 2^B, with t = num / 2^m exact:
    - x = t / 2^k < 2^-10, and E = S e^x from the Taylor series, each term the
      exact floor of the previous one times x/j, up to the first zero term, the
      n-th.  Each term is short by below 1.001 units, and the true terms from
      the n-th on sum to below 1.002, so S e^x - n - 1 < E <= S e^x;
    - E is squared k times, each square floored.  With E_i = S e^(x 2^i) (1 - d_i),
      d_(i+1) < 2 d_i + 1/S, so the result falls short of S e^t by a relative
      d_k < c/S, c = (n + 2) 2^k;
    - lo = floor(E 10^q / S) then lies below X = e^t 10^q, and X (1 - c/S) < lo + 1,
      so lo < X < hi = floor((lo + 1) S / (S - c)) + 1.  q gives lo
      floor(0.3 B) - 3 digits: 73 at B = 256, where hi - lo is below 70.

    Rounding is monotone, so when lo and hi round half-even to the same 60
    digits, X rounds to them too: the correctly rounded e^t that
    ``Decimal.exp`` returns.  Otherwise B doubles (Ziv's strategy): e^t is
    irrational, so it lies on no rounding boundary, and q grows with B while
    hi - lo stays below about 100, which settles the rounding at some B.
    """
    num, den = t.as_integer_ratio()
    k = max(0, math.frexp(t)[1] + 10)
    shift = den.bit_length() - 1 + k
    exponent = int(t / _LN10)
    bits = _EXP_BITS
    while True:
        one = 1 << bits
        term = e = one
        n = 0
        while term:
            n += 1
            term = (term * num >> shift) // n
            e += term
        for _ in range(k):
            e = e * e >> bits
        c = (n + 2) << k
        if c < one:
            q = bits * 3 // 10 - 4 - exponent
            lo = e * 10**q >> bits
            hi = (lo + 1) * one // (one - c) + 1
            rounded = Decimal(lo).scaleb(-q, wide)
            if rounded == Decimal(hi).scaleb(-q, wide):
                return rounded
        bits *= 2


def _eq5_points():
    """The seeded t of verify_eq5, alternately log-uniform and uniform on (1e-6, 30)."""
    rng = random.Random(_EQ5_SEED)
    log_hi = math.log10(30.0)
    for i in range(_EQ5_SAMPLES):
        yield rng.uniform(1e-6, 30.0) if i % 2 else 10.0 ** rng.uniform(-6.0, log_hi)


def verify_eq5(tol: float = 1e-9) -> IdentityReport:
    """EQ5 pointwise: max |2/(e^(2t)-1) - (1/(e^t-1) - 1/(e^t+1))| over seeded random t.

    Both sides are evaluated in a thread-local ``decimal`` context at 50 digits,
    so the residual reflects the identity, not double-precision cancellation
    (near t = 1e-6 each side is ~1e6).  No expm1 series is needed: the correctly
    rounded e^t leaves 1/(e^t - 1) an absolute error near 1e-50/t^2 <= 1e-38.
    Half the draws are uniform on (1e-6, 30), half log-uniform (small t).

    Each sample takes one e^t at 60 digits, e_wide, from ``_exp60``.  Its
    256-bit integer fixed point brackets e^t 10^q between 73-digit integers
    lo < hi, hi - lo below 70 by a proven bound, and doubles the bits until lo
    and hi round to the same 60 digits.  Rounding is monotone, so those are
    the correctly rounded digits of e^t, exactly what ``Decimal(t).exp``
    returns at 60 digits.  Rounded to 50 digits it is e^t, which is
    the correctly rounded 50-digit e^t unless digits 51..60 of the 60-digit
    value sit at a rounding tie (they do on none of the samples).  Its square,
    rounded once to 50 digits, is e^(2t) within half an ulp plus a relative
    1e-59 (twice the 60-digit rounding): tighter than exp of 2t rounded to 50
    digits, whose argument error 2t 5e-50 moves e^(2t) by up to 3e-48
    relative at t = 30.
    """
    worst = 0.0
    with localcontext() as ctx:
        ctx.prec = 50
        wide = Context(prec=60)
        for t in _eq5_points():
            e_wide = _exp60(t, wide)
            e = +e_wide
            lhs = 2 / (e_wide * e_wide - 1)
            rhs = 1 / (e - 1) - 1 / (e + 1)
            worst = max(worst, abs(float(lhs - rhs)))
    return IdentityReport.from_sides(
        IdentityId.EQ5, 0, worst, 0.0, tol,
        note=f"max pointwise residual over {_EQ5_SAMPLES} samples",
    )


def contour_closure(s: int, R: float = 30.0, tol: float = 1e-9,
                    budget: int = DEFAULT_EVAL_BUDGET) -> ContourReport:
    """EQ8: the four side integrals, counterclockwise, their sum and its verdict.

    pi |R + i pi|^(s-1), the size of the integrand times a side's length, must fit
    a double.  Each side runs at tol/4, and tol is refused below the floor of
    these lower bounds on a side's integral of |f|:
      bottom  gamma(s, R), since 1/(e^x - 1) >= e^-x;
      top     gamma(s, R)/2, since |e^(x + i pi) - 1| = e^x + 1 <= 2 e^x, so
              its floor never exceeds the bottom's and it is left out;
      left    pi^(s-1)/(s-1), since |e^(iy) - 1| = 2 sin(y/2) <= y;
      right   none needed.
    """
    if not 0.0 < R <= _LN_MAX:
        raise Refused(f"contour_closure requires 0 < R <= {_LN_MAX:.2f} "
                      f"(e^R must fit a double), got R = {R!r}")
    s_max = 1 + int((_LN_MAX - math.log(math.pi)) / math.log(abs(complex(R, math.pi))))
    _require_s("contour_closure", s, s_max, f"pi |R + i pi|^(s-1) must fit a double at R = {R!r}")
    _refuse_below_floor("contour_closure", s, tol,
                        ((0.25, _lower_gamma(s, R)), (0.25, _pi_side_bound(s))))
    top = complex(R, math.pi)
    corner = complex(0.0, math.pi)
    sides = (
        Segment(complex(0.0), complex(R)),
        Segment(complex(R), top),
        Segment(top, corner),
        Segment(corner, complex(0.0)),
    )
    results = [integrate_segment(s, seg, 0.25 * tol, budget) for seg in sides]
    # the bottom side's integral is a float; every side value is reported complex
    values = tuple(complex(r.value) for r in results)
    error_estimate = math.fsum(r.error_estimate for r in results)
    evaluations = sum(r.evaluations for r in results)
    return ContourReport(s, R, values, error_estimate, evaluations, _stop_reason(results), tol)


class LimitComponents(namedtuple("LimitComponents", "a b c error_estimate reason",
                                 defaults=("",))):
    """The three pieces of the R -> inf limit A - B = C, their summed error
    estimate and why the quadratures that fell short stopped."""

    __slots__ = ()


def eq9_components(s: int, tol: float = 1e-9, budget: int = DEFAULT_EVAL_BUDGET) -> LimitComponents:
    """EQ9: A = int_0^inf x^(s-1)/(e^x-1); B = int_0^inf (x+i pi)^(s-1)/(e^(x+i pi)-1);
    C = i int_0^pi (iy)^(s-1)/(e^(iy)-1).

    B is expanded binomially: e^(x+i pi) = -e^x turns it into
    -sum_j C(s-1,j) (i pi)^j F(j) with F(j) = int_0^inf x^(s-1-j)/(e^x+1) dx,
    each F from quadrature except the closed form F(s-1) = ln 2.
    C reuses the segment integral from 0 to i*pi (same parameterization).

    tol is refused below the floor of these lower bounds on an integral of |f|:
      A on [0, X] at tol/8, with X and A's tail bound beyond it from one
        truncation_point(s, tol/8) scan: gamma(s, X), since 1/(e^x - 1) >= e^-x;
      C at tol/4: pi^(s-1)/(s-1), since |e^(iy) - 1| = 2 sin(y/2) <= y.
    The F(j) requests are clamped above their own floor and need no bound.
    """
    _require_s("eq9_components", s, *_REAL_AXIS_S)
    part = 0.25 * tol
    x_max, tail = truncation_point(s, 0.125 * tol)
    _refuse_below_floor("eq9_components", s, tol,
                        ((0.125, _lower_gamma(s, x_max)), (0.25, _pi_side_bound(s))))

    a_quad = integrate_finite(bose(s), 0.0, x_max, 0.125 * tol, budget)
    a = complex(a_quad.value)
    err = a_quad.error_estimate + tail
    quads = [a_quad]

    terms = []
    for j, coef, i_pow in _binomial_terms(s):
        if j == s - 1:
            f_j = LN2
        else:
            m = s - j
            # allocation below the roundoff floor of an integral of size
            # Gamma(m) is infeasible in doubles; clamp the request there and
            # let the reported error estimate carry the truth
            f_tol = max(part / (s * max(1.0, coef)), 5e-15 * gamma_int(m))
            f_quad = integrate_semi_infinite(fermi(m), m, f_tol, budget=budget)
            f_j = f_quad.value
            err += coef * f_quad.error_estimate
            quads.append(f_quad)
        terms.append(i_pow * (coef * f_j))
    b = -complex(
        math.fsum(t.real for t in terms),
        math.fsum(t.imag for t in terms),
    )

    c_quad = _eq9_c(s, tol, budget)
    quads.append(c_quad)
    reason = _stop_reason(quads)
    return LimitComponents(a, b, c_quad.value, err + c_quad.error_estimate, reason)


def _eq9_c(s: int, tol: float, budget: int) -> QuadratureResult:
    """EQ9's C at tol/4: the segment integral of z^(s-1)/(e^z-1) from 0 to i pi,
    which is C, as z = iy gives dz = i dy."""
    return integrate_segment(s, Segment(complex(0.0), complex(0.0, math.pi)), 0.25 * tol, budget)


def verify_eq9(s: int, tol: float = 1e-8, budget: int = DEFAULT_EVAL_BUDGET) -> IdentityReport:
    comp = eq9_components(s, tol, budget)
    return IdentityReport.from_sides(IdentityId.EQ9, s, comp.a - comp.b, comp.c,
                                     tol, reason=comp.reason)


def verify_log2_identity(tol: float = 1e-9, budget: int = DEFAULT_EVAL_BUDGET) -> IdentityReport:
    """S2_IMAG: pi * int_0^inf dx/(e^x+1) against (1/2) int_0^pi y sin y/(1-cos y) dy.

    The right-hand integrand equals y * cot(y/2) (removable limit 2 at 0)
    and both sides equal pi ln 2.
    """
    lhs_quad = integrate_semi_infinite(fermi(1), 1, _share(0.125, tol), budget=budget)
    rhs_quad = cot_power_integral(2, _share(0.25, tol), budget)
    return IdentityReport.from_sides(
        IdentityId.S2_IMAG, 2,
        math.pi * lhs_quad.value,
        0.5 * rhs_quad.value,
        tol,
        reason=_stop_reason((lhs_quad, rhs_quad)),
    )


def cot_power_integral(s: int, tol: float = 1e-10,
                       budget: int = DEFAULT_EVAL_BUDGET) -> QuadratureResult:
    """K(s) = int_0^pi y^(s-1) cot(y/2) dy, the transcendental piece of EQ10."""
    return integrate_finite(cot_power(s), 0.0, math.pi, tol, budget)


def _binomial_terms(s: int):
    """(j, C(s-1,j) pi^j, i^j) for j = 0..s-1: the expansion of (x + i pi)^(s-1).

    The one place EQ9's bottom side is expanded.  For even j, i^j is the
    integer +-1, so coef * i^j is the real part with an exact sign.
    """
    for j in range(s):
        yield j, math.comb(s - 1, j) * math.pi**j, _I_POW[j % 4]


@functools.cache
def _real_part_row(s: int) -> tuple[tuple[int, float, float], ...]:
    """(j, C(s-1,j) Re((i pi)^j), weight) for the even j = 0..s-1 of EQ10's left side,
    where F(j) = weight zeta(s-j), weight = _fermi_weight(s-j), except weight = F(s-1)
    = ln 2 itself.  Memoized per s; its callers refuse s above 171, which bounds it."""
    return tuple((j, coef * i_pow, LN2 if j == s - 1 else _fermi_weight(s - j))
                 for j, coef, i_pow in _binomial_terms(s) if j % 2 == 0)


def _real_part_terms(s: int, zeta, first_j: int = 0):
    """The even-j terms C(s-1,j) Re((i pi)^j) F(j), j >= first_j, of EQ10's left side,
    with F(s-1) = ln 2 and F(j) = _fermi_weight(s-j) zeta(s-j) from the callable zeta."""
    for j, ci, weight in _real_part_row(s):
        if j >= first_j:
            yield ci * (weight if j == s - 1 else weight * zeta(s - j))


@functools.cache
def _lhs_terms(s: int) -> tuple[float, ...]:
    """EQ10's left-side terms at s: Gamma(s) zeta(s), then ``_real_part_terms``.

    zeta(m) comes from the exact coefficients at even m, walked down one
    table, and from the series oracle at its tightest tolerance, 1e-17, at
    odd m, so that neither adds an error the residual would count.  Memoized
    per s: eq10 refuses s above 171, so at most 170 tuples are ever kept."""
    table = Table()

    def zeta(m: int) -> float:
        if m % 2 == 0:
            return zeta_even_recursive(m // 2, table=table).approx()
        return zeta_series(m, 1e-17)

    return (gamma_int(s) * zeta(s), *_real_part_terms(s, zeta))


def _k_coef(s: int) -> float:
    """Re(-i^(s+1)/2), the coefficient of K(s) in EQ10: 0 for even s, +-1/2 for odd s."""
    return -0.5 * _I_POW[(s + 1) % 4].real


def expanded_real_identity(s: int, tol: float = 1e-9,
                           budget: int = DEFAULT_EVAL_BUDGET) -> IdentityReport:
    """EQ10_NUMERIC: the real part of EQ9 expanded into zeta values and K(s).

        Gamma(s) zeta(s) + sum_{j even} C(s-1,j) Re((i pi)^j) F(j)
            = Re(-i^s) pi^s / (2s) + Re(-i^(s+1)/2) K(s)

    Even arguments of zeta come from the exact coefficients, odd ones from
    the series oracle.  For even s the K(s) coefficient vanishes and the
    identity is the numeric shadow of the exact recursion; for odd s it
    carries zeta(s) information (see odd_zeta_from_contour).

    tol is refused, before K(s) runs, below eps times the summed magnitudes of
    the terms: the left side's, the pi^s term's, and |lhs - pi^s term| in place
    of |K(s) term|, which the identity makes equal.  That floor estimates the
    rounding of the summed terms; it is not a proof that no smaller tol is met.
    K(s), whose coefficient is +-1/2, is asked for tol itself.
    """
    _require_s("expanded_real_identity", s, *_GAMMA_S)
    lhs_terms = _lhs_terms(s)
    lhs = math.fsum(lhs_terms)
    rhs = -_I_POW[s % 4].real * math.pi**s / (2 * s)
    floor = _EPS * (math.fsum(map(abs, lhs_terms)) + abs(rhs) + abs(lhs - rhs))
    if tol < floor:
        raise Refused(f"expanded_real_identity requires tol >= {floor:.3g} at s = {s} (eps "
                      f"times the summed magnitudes of its terms: an estimate of their "
                      f"rounding, not a proven bound), got tol = {tol!r}")
    k_coef = _k_coef(s)
    if not k_coef:
        return IdentityReport.from_sides(IdentityId.EQ10_NUMERIC, s, lhs, rhs, tol)
    k_quad = cot_power_integral(s, tol, budget)
    return IdentityReport.from_sides(IdentityId.EQ10_NUMERIC, s, lhs, rhs + k_coef * k_quad.value,
                                     tol, reason=k_quad.reason)


def _odd_extraction(s: int, tol: float, budget: int) -> tuple[float, float, str]:
    """(zeta(s), error estimate, stop reason) of the odd extraction; see
    odd_zeta_from_contour.

    zeta(m) = (k_m K(m) - known_m) / D_m for odd m = 3..s, with k_m = _k_coef(m),
    D_m = Gamma(m) (2 - 2^(1-m)) and known_m built from the lower zeta(m - j).
    One backward pass over the same rows gives adj[m] = d zeta(s) / d zeta(m):
    adj[s] = 1, and each m hands -adj[m] C(m-1,j) Re((i pi)^j) _fermi_weight(m-j)
    / D_m down to adj[m-j].  K(m) then moves zeta(s) by w_m = |adj[m] k_m / D_m|
    per unit, so each of the n = (s-1)/2 integrals is asked for (tol/2) / (n w_m),
    and one panel (tolerance inf) when w_m underflows to 0.  The estimate sums
    w_m err_m and, for each numerator k_m K(m) - known_m, eps times the sum of
    its terms' magnitudes, weighted by |adj[m] / D_m|.  A K(m) that evaluates
    nothing, on a budget below one panel, ends the chain: zeta(s) is nan and
    the estimate infinite.
    """
    _require_s("odd_zeta_from_contour", s, *_GAMMA_S, odd=True)
    odd = range(3, s + 1, 2)
    divisor = {m: _odd_divisor(m) for m in odd}
    adj = dict.fromkeys(odd, 0.0)
    adj[s] = 1.0
    for m in reversed(odd):
        scale = adj[m] / divisor[m]
        for j, ci, weight in _real_part_row(m):
            if 2 <= j < m - 1:
                adj[m - j] -= scale * ci * weight
    extracted: dict[int, float] = {}
    estimate = 0.0
    quads = []
    for m in odd:
        gain = abs(adj[m] / divisor[m])
        k_coef = _k_coef(m)
        w = abs(k_coef) * gain
        k_tol = _share(0.5 / len(odd) / w, tol) if w else math.inf
        k_quad = cot_power_integral(m, k_tol, budget)
        quads.append(k_quad)
        if not k_quad.evaluations:
            # a budget below one panel: K(m) has no estimate at all, and each
            # later row would amplify the gap, up to overflow
            return math.nan, math.inf, _stop_reason(quads)
        known_terms = list(_real_part_terms(m, extracted.__getitem__, first_j=2))
        k_term = k_coef * k_quad.value
        extracted[m] = (k_term - math.fsum(known_terms)) / divisor[m]
        estimate += (w * k_quad.error_estimate
                     + gain * _EPS * (math.fsum(map(abs, known_terms)) + abs(k_term)))
    return extracted[s], estimate, _stop_reason(quads)


def odd_zeta_from_contour(s: int, tol: float = 1e-8,
                          budget: int = DEFAULT_EVAL_BUDGET) -> float:
    """zeta(s) for odd s: EQ10 solved for its j = 0 term.

    For odd s the pi^s term of EQ10 vanishes, and the Gamma(s) zeta(s) and
    j = 0 terms carry zeta(s) with total weight Gamma(s) (2 - 2^(1-s)), so

        zeta(s) = (Re(-i^(s+1)/2) K(s) - known) / (Gamma(s) (2 - 2^(1-s)))

    where `known` sums EQ10's terms from j = 2 on: the lower odd zetas (extracted
    recursively, keeping the chain independent of the series oracle) and the
    (i pi)^(s-1) ln 2 term.  At s = 3, zeta(3) = (2 pi^2 ln 2 - K(3)) / 7.

    Each K(m) of the chain is asked only for the accuracy zeta(s) needs from
    it: tol/2 split evenly over the K's and divided by the sensitivity of
    zeta(s) to K(m), from one backward pass over the chain.  The propagated
    error estimate, which verify_odd_zeta judges, stays within about tol/2
    when every K converges.
    """
    return _odd_extraction(s, tol, budget)[0]


def verify_odd_zeta(s: int, tol: float = 1e-8,
                    budget: int = DEFAULT_EVAL_BUDGET) -> IdentityReport:
    """ODD_ZETA: extracted zeta(s) against the series oracle.

    Passes only when the residual is within tol, every K(m) of the chain
    converged, and the error estimate propagated through the chain is at most
    tol.  A failure names the K stop reasons, then the estimate if it is above
    tol; failing neither way, it names the residual.
    """
    lhs, estimate, reason = _odd_extraction(s, tol, budget)
    rhs = _oracle(s, tol)
    return IdentityReport.from_sides(IdentityId.ODD_ZETA, s, lhs, rhs, tol,
                                     reason=reason, estimate=estimate)


def verify_zeta2(tol: float = 1e-9, budget: int = DEFAULT_EVAL_BUDGET) -> IdentityReport:
    """S2_REAL: zeta(2) extracted from the contour against the series oracle.

    Re C = (3/2) zeta(2) at s = 2, so of eq9_components only C runs, at tol/4,
    and tol is refused below the floor of C's lower bound pi on the integral
    of |f|.  That bound also dominates A's in eq9_components at s = 2.
    """
    _refuse_below_floor("verify_zeta2", 2, tol, ((0.25, _pi_side_bound(2)),))
    c_quad = _eq9_c(2, tol, budget)
    lhs = c_quad.value.real * 2.0 / 3.0
    rhs = _oracle(2, tol)
    return IdentityReport.from_sides(IdentityId.S2_REAL, 2, lhs, rhs, tol, reason=c_quad.reason)
