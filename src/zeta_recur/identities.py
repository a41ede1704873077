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

This module alone decides what each check accepts (``Refused``, raised before
the check builds any integral, names the bound), whether it passed and why not.
Every check has one shape.  It refuses a tol that is not finite and > 0, then
an s out of its range, naming itself; closure, eq9, s2 and eq10 then refuse a
tol below their floor (``_refuse_below_floor``); only then does it call its
integrators, reading each value, estimate and stop reason off their results.
"""

from __future__ import annotations

import enum
import functools
import math
import sys
from collections import namedtuple

from .exact import Table, gamma_int, zeta_even_recursive
from .quadrature import (
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
    """An input a check cannot evaluate in doubles, refused before it builds any integral."""


def _require_tol(name: str, tol: float) -> None:
    """Refuse a tol that is not finite and > 0: every check's first test."""
    if not 0.0 < tol < math.inf:
        raise Refused(f"{name} requires a finite tol > 0, got tol = {tol!r}")


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


def _share(k: float, tol: float) -> float:
    """The share k * tol of a check's tolerance that one quadrature is asked for,
    at least the least positive double: a subnormal tol must reach the
    quadrature, stop at its roundoff floor and say so, not underflow to 0."""
    return max(k * tol, math.ulp(0.0))


def _refuse_below_floor(name: str, s: int, tol: float, floors, why: str = (
        "eps times a lower bound on the integral of |f| it must resolve")) -> None:
    """Refuse tol below the floor of ``floors``, before the check runs any integral.

    Each floor (share, bound) is one integral run at share * tol, with bound a lower
    bound on the integral of |f| over its range.  Every K21 panel reports at least
    2 eps times its integral of |f|, so the estimates of all panels sum to about
    2 eps * bound: share * tol below eps * bound can never be met, and the quadrature
    would run into its roundoff floor.  The floor named is the smallest tol every
    request meets, and why says what the bounds are: eq10's is an estimate of the
    rounding of its summed terms.
    """
    floor = max(_EPS * bound / share for share, bound in floors)
    if tol < floor:
        raise Refused(f"{name} requires tol >= {floor:.3g} at s = {s} ({why}), "
                      f"got tol = {tol!r}")


class _Verdict:
    """``passed`` and ``note`` of a report, by the one rule every check follows.

    A report passes when no quadrature stopped short (``reason``) and both its
    ``residual`` and the error ``estimate`` it is judged by are within its
    ``tolerance``.  The note is the caller's ``remark`` or else the stop reason,
    then an estimate above the tolerance or else the residual (``_what``) of a
    failure with no stop reason."""

    __slots__ = ()
    _what = "residual"

    @property
    def passed(self) -> bool:
        tol = self.tolerance
        return not self.reason and self.residual <= tol and self.estimate <= tol

    @property
    def note(self) -> str:
        note = self.remark or self.reason and f"quadrature did not converge; {self.reason}"
        if not self.estimate <= self.tolerance:
            excess = f"error estimate {self.estimate:.3g}"
        elif not (self.reason or self.residual <= self.tolerance):
            excess = f"{self._what} {self.residual:.3g}"
        else:
            return note
        return "; ".join(filter(None, (note, f"{excess} above tolerance {self.tolerance:.3g}")))


class IdentityId(str, enum.Enum):
    EQ2 = "EQ2"
    EQ5 = "EQ5"
    EQ7 = "EQ7"
    EQ9 = "EQ9"
    S2_REAL = "S2_REAL"
    S2_IMAG = "S2_IMAG"
    EQ10_NUMERIC = "EQ10_NUMERIC"
    ODD_ZETA = "ODD_ZETA"


class IdentityReport(_Verdict, namedtuple("IdentityReport", "identity_id s lhs rhs tolerance "
                                          "reason estimate remark", defaults=("", 0.0, ""))):
    """One identity's two sides at s and the tolerance, with why a quadrature
    stopped short of it (reason), the error estimate the verdict judges
    (estimate; only ODD_ZETA sets one) and the caller's remark.  The residual,
    the verdict (passed) and why it failed (note) follow from these."""

    __slots__ = ()

    @property
    def residual(self) -> float:
        return abs(self.lhs - self.rhs)


class ContourReport(_Verdict, namedtuple("ContourReport", "s R side_values error_estimate "
                                                          "evaluations reason tolerance")):
    """Side integrals of z^(s-1)/(e^z-1) around the rectangle 0, R, R+i*pi, i*pi:
    bottom, right, top and left, and why any stopped short of its tolerance
    (reason).  The verdict follows from these, with |closure| as the residual
    and no error estimate or remark."""

    __slots__ = ()
    _what = "closure magnitude"
    estimate = 0.0
    remark = ""

    @property
    def closure(self) -> complex:
        bottom, right, top, left = self.side_values
        return bottom + right + top + left

    @property
    def residual(self) -> float:
        return abs(self.closure)

    @property
    def right_side_magnitude(self) -> float:
        return abs(self.side_values[1])

    @property
    def converged(self) -> bool:
        return not self.reason


def zeta_series(s: int, tol: float) -> float:
    """zeta(s) by direct summation with an Euler-Maclaurin tail.

    Sums k^-s for k < N and adds N^(1-s)/(s-1) + N^-s/2 + s N^(-s-1)/12.
    The first omitted correction bounds the truncation error, and N doubles
    until that bound is below tol/4.  tol is clamped at 1e-17, below which more
    terms no longer change a double zeta(s) near 1: a smaller tol would only
    double N, past 1e59 terms at tol 1e-300.  The head sum is stored per (s, N),
    so a warm process sums it once and returns the value a fresh one does.
    """
    if s < 2:
        raise ValueError("zeta_series requires s >= 2")
    if not tol > 0.0:
        raise ValueError("tolerance must be positive")
    tol = max(tol, 1e-17)
    n = 8
    while s * (s + 1) * (s + 2) / (720.0 * float(n) ** (s + 3)) > 0.25 * tol:
        n *= 2
    nf = float(n)
    tail = nf ** (1 - s) / (s - 1) + nf ** (-s) / 2.0 + s * nf ** (-s - 1) / 12.0
    return _series_head(s, n) + tail


@functools.lru_cache(maxsize=4096)
def _series_head(s: int, n: int) -> float:
    """The head of zeta_series, sum_{k<n} k^-s by fsum, stored per (s, n).  Every
    check clamps its series tol at 1e-17 and refuses s above 171, so the checks
    reach only 218 keys (n up to 2,048, at s = 2), far fewer than the bound."""
    return math.fsum(k ** (-s) for k in range(1, n))


def _oracle(s: int, tol: float, factor: float = 1) -> float:
    """factor * zeta(s) from the series oracle, to a tenth of tol and at most 1e-12;
    the series tolerance is that over factor, clamped at 1e-17 as zeta_series
    clamps it, so that a tenth of a subnormal tol never reaches it as 0."""
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


def verify_bose_integral(s: int, tol: float = 1e-9) -> IdentityReport:
    """EQ2: quadrature of x^(s-1)/(e^x-1) against Gamma(s) * zeta_series(s), one
    integral at tol/2 with no floor."""
    _require_tol("verify_bose_integral", tol)
    _require_s("verify_bose_integral", s, *_REAL_AXIS_S)
    quad = integrate_semi_infinite(bose(s), s, _share(0.5, tol))
    rhs = _oracle(s, tol, gamma_int(s))
    return IdentityReport(IdentityId.EQ2, s, quad.value, rhs, tol, quad.reason)


def verify_fermi_integral(s: int, tol: float = 1e-9) -> IdentityReport:
    """EQ7: quadrature of x^(s-1)/(e^x+1) against (1-2^(1-s)) Gamma(s) zeta_series(s),
    one integral at tol/2 with no floor."""
    _require_tol("verify_fermi_integral", tol)
    _require_s("verify_fermi_integral", s, *_REAL_AXIS_S)
    quad = integrate_semi_infinite(fermi(s), s, _share(0.5, tol))
    rhs = _oracle(s, tol, _fermi_weight(s))
    return IdentityReport(IdentityId.EQ7, s, quad.value, rhs, tol, quad.reason)


_EQ5_SAMPLES = 1000
_EQ5_SEED = 53171


def _eq5_points():
    """The seeded t of verify_eq5, alternately log-uniform and uniform on (1e-6, 30)."""
    import random

    rng = random.Random(_EQ5_SEED)
    log_hi = math.log10(30.0)
    for i in range(_EQ5_SAMPLES):
        yield rng.uniform(1e-6, 30.0) if i % 2 else 10.0 ** rng.uniform(-6.0, log_hi)


def verify_eq5(tol: float = 1e-9) -> IdentityReport:
    """EQ5 pointwise: max |2/(e^(2t)-1) - (1/(e^t-1) - 1/(e^t+1))| over seeded t, exactly.
    u = math.exp(t) is a double, an exact rational p/q, and (5) is an identity of rational
    functions of u, so it holds at that u: the check does not test libm's exp, which (5) does
    not involve.  Each side is an integer fraction from its formula; they are cross-multiplied."""
    _require_tol("verify_eq5", tol)
    worst = 0.0
    for t in _eq5_points():
        p, q = math.exp(t).as_integer_ratio()
        lhs, lhs_den = 2 * q * q, p * p - q * q
        rhs, rhs_den = q * (p + q) - q * (p - q), (p - q) * (p + q)
        worst = max(worst, abs(lhs * rhs_den - rhs * lhs_den) / (lhs_den * rhs_den))
    return IdentityReport(IdentityId.EQ5, 0, worst, 0.0, tol, remark=(
        f"max pointwise residual over {_EQ5_SAMPLES} samples, in exact rational arithmetic"))


def contour_closure(s: int, R: float = 30.0, tol: float = 1e-9) -> ContourReport:
    """EQ8: the four side integrals, counterclockwise, their sum and its verdict.

    pi |R + i pi|^(s-1), the size of the integrand times a side's length, must fit
    a double.  Each side runs at tol/4, and the estimate and evaluations are
    the sides' sums.  tol is refused below the floor of these lower bounds on a
    side's integral of |f|:
      bottom  gamma(s, R), since 1/(e^x - 1) >= e^-x;
      top     gamma(s, R)/2, since |e^(x + i pi) - 1| = e^x + 1 <= 2 e^x, so
              its floor never exceeds the bottom's and it declares none;
      left    pi^(s-1)/(s-1), since |e^(iy) - 1| = 2 sin(y/2) <= y;
      right   none needed.
    """
    _require_tol("contour_closure", tol)
    if not 0.0 < R <= _LN_MAX:
        raise Refused(f"contour_closure requires 0 < R <= {_LN_MAX:.2f} "
                      f"(e^R must fit a double), got R = {R!r}")
    s_max = 1 + int((_LN_MAX - math.log(math.pi)) / math.log(abs(complex(R, math.pi))))
    _require_s("contour_closure", s, s_max, f"pi |R + i pi|^(s-1) must fit a double at R = {R!r}")
    share = 0.25
    _refuse_below_floor("contour_closure", s, tol, [
        (share, _lower_gamma(s, R)), (share, _pi_side_bound(s))])
    corners = (0j, complex(R), complex(R, math.pi), complex(0.0, math.pi), 0j)
    quads = [integrate_segment(s, side, _share(share, tol))
             for side in map(Segment, corners, corners[1:])]
    # the bottom side's integral is a float; every side value is reported complex
    return ContourReport(s, R, tuple(complex(q.value) for q in quads),
                         math.fsum([q.error_estimate for q in quads]),
                         sum([q.evaluations for q in quads]), _stop_reason(quads), tol)


# the segment from 0 to i pi, along which EQ9's C is integrated
_EQ9_C = Segment(complex(0.0), complex(0.0, math.pi))


class LimitComponents(namedtuple("LimitComponents", "a b c error_estimate reason",
                                 defaults=("",))):
    """The three pieces of the R -> inf limit A - B = C, their error estimate (the
    fsum of A's, each C(s-1,j) pi^j F(j)'s and C's estimates, plus A's tail bound)
    and why the quadratures that fell short stopped.
    verify_eq9 reads the residual and the stop reasons, not error_estimate, which
    exceeds tol on 74 of the 485 eq9 passes of the first 8 seeded verify-sweep
    rounds of seeds 1-3."""

    __slots__ = ()


def eq9_components(s: int, tol: float = 1e-9) -> LimitComponents:
    """EQ9: A = int_0^inf x^(s-1)/(e^x-1); B = int_0^inf (x+i pi)^(s-1)/(e^(x+i pi)-1);
    C = i int_0^pi (iy)^(s-1)/(e^(iy)-1).

    B is expanded binomially: e^(x+i pi) = -e^x turns it into
    -sum_j C(s-1,j) (i pi)^j F(j) with F(j) = int_0^inf x^(s-1-j)/(e^x+1) dx,
    each F from quadrature except the closed form F(s-1) = ln 2.
    C is the segment integral of z^(s-1)/(e^z-1) along _EQ9_C, as z = iy gives dz = i dy.

    tol is refused below the floor of these lower bounds on an integral of |f|:
      A on [0, X] at tol/8, with X and A's tail bound beyond it from one
        truncation_point(s, tol/8) scan: gamma(s, X), since 1/(e^x - 1) >= e^-x;
      C at tol/4: pi^(s-1)/(s-1), since |e^(iy) - 1| = 2 sin(y/2) <= y.
    Each F(j), of weight c = C(s-1,j) pi^j, runs at tol/(4 s max(1, c)),
    clamped by _eq9_f above its own floor, so it needs no bound.  A, each F(j)
    and C are refined once per process in quadrature's store, whatever tol
    asks for them, and each result is the one a fresh process returns.
    """
    return _eq9_components("eq9_components", s, tol)


def _eq9_components(name: str, s: int, tol: float) -> LimitComponents:
    """`eq9_components`, its refusals naming `name`, the public function called."""
    _require_tol(name, tol)
    _require_s(name, s, *_REAL_AXIS_S)
    a_share, c_share = 0.125, 0.25
    x_max, tail = truncation_point(s, a_share * tol)
    _refuse_below_floor(name, s, tol, [
        (a_share, _lower_gamma(s, x_max)), (c_share, _pi_side_bound(s))])
    a = integrate_finite(bose(s), 0.0, x_max, _share(a_share, tol))
    rows = list(_binomial_terms(s))
    f = [_eq9_f(s - j, _share(0.25 / (s * max(1.0, coef)), tol)) for j, coef, _ in rows[:-1]]
    c = integrate_segment(s, _EQ9_C, _share(c_share, tol))
    f_values = [q.value for q in f] + [LN2]
    terms = [i_pow * (coef * f_j) for (_, coef, i_pow), f_j in zip(rows, f_values)]
    b = -complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))
    f_errors = [coef * q.error_estimate for (_, coef, _), q in zip(rows, f)]
    estimate = math.fsum([a.error_estimate, *f_errors, c.error_estimate]) + tail
    return LimitComponents(complex(a.value), b, c.value, estimate, _stop_reason([a, *f, c]))


def _eq9_f(m: int, tol: float) -> QuadratureResult:
    """EQ9's F(s - m) = int_0^inf x^(m-1)/(e^x+1) dx at tol, clamped at 5e-15 Gamma(m),
    the roundoff floor of an integral of size Gamma(m): its estimate carries the truth."""
    return integrate_semi_infinite(fermi(m), m, max(tol, 5e-15 * gamma_int(m)))


def verify_eq9(s: int, tol: float = 1e-8) -> IdentityReport:
    """EQ9: A - B against C.  The verdict reads the residual and the stop reasons,
    not LimitComponents.error_estimate (see there)."""
    comp = _eq9_components("verify_eq9", s, tol)
    return IdentityReport(IdentityId.EQ9, s, comp.a - comp.b, comp.c, tol, comp.reason)


def verify_log2_identity(tol: float = 1e-9) -> IdentityReport:
    """S2_IMAG: pi * int_0^inf dx/(e^x+1) against (1/2) int_0^pi y sin y/(1-cos y) dy.

    The right-hand integrand equals y * cot(y/2) (removable limit 2 at 0)
    and both sides equal pi ln 2.  The left runs at tol/8, the right at tol/4,
    and neither has a bound, so no finite tol > 0 is refused.
    """
    _require_tol("verify_log2_identity", tol)
    lhs = integrate_semi_infinite(fermi(1), 1, _share(0.125, tol))
    rhs = cot_power_integral(2, _share(0.25, tol))
    return IdentityReport(IdentityId.S2_IMAG, 2, math.pi * lhs.value, 0.5 * rhs.value, tol,
                          _stop_reason([lhs, rhs]))


def cot_power_integral(s: int, tol: float = 1e-10) -> QuadratureResult:
    """K(s) = int_0^pi y^(s-1) cot(y/2) dy, the transcendental piece of EQ10."""
    return integrate_finite(cot_power(s), 0.0, math.pi, tol)


def _binomial_terms(s: int):
    """(j, C(s-1,j) pi^j, i^j) for j = 0..s-1: the expansion of (x + i pi)^(s-1).

    The one place EQ9's bottom side is expanded.  For even j, i^j is the
    integer +-1, so coef * i^j is the real part with an exact sign.
    """
    for j in range(s):
        yield j, math.comb(s - 1, j) * math.pi**j, _I_POW[j % 4]


def _real_part_row(s: int) -> tuple[tuple[int, float, float], ...]:
    """(j, C(s-1,j) Re((i pi)^j), weight) for the even j = 0..s-1 of EQ10's left side,
    where F(j) = weight zeta(s-j), weight = _fermi_weight(s-j), except weight = F(s-1)
    = ln 2 itself.  Not stored: its callers _eq10_sides and _odd_chain keep what they read."""
    return tuple((j, coef * i_pow, LN2 if j == s - 1 else _fermi_weight(s - j))
                 for j, coef, i_pow in _binomial_terms(s) if j % 2 == 0)


def _real_part_terms(s: int, row, zeta):
    """The terms C(s-1,j) Re((i pi)^j) F(j) of row, entries of _real_part_row(s), with
    F(s-1) = ln 2 and F(j) = _fermi_weight(s-j) zeta(s-j) from the callable zeta."""
    for j, ci, weight in row:
        yield ci * (weight if j == s - 1 else weight * zeta(s - j))


@functools.cache
def _eq10_sides(s: int) -> tuple[float, float, float]:
    """EQ10's (lhs, pi^s term, summed magnitudes) at s: the fsums of Gamma(s) zeta(s) and
    ``_real_part_terms`` of s's row, and of their magnitudes, plus the pi^s term's and
    |lhs - pi^s term|, the bound its floor scales.

    zeta(m) comes from the exact coefficients at even m, walked down one
    table that also serves their renders' pi, and from the series oracle at
    its tightest tolerance, 1e-17, at odd m, so that neither adds an error
    the residual would count.  Memoized
    per s: eq10 refuses s above 171, so at most 170 tuples are ever kept."""
    table = Table()

    def zeta(m: int) -> float:
        if m % 2 == 0:
            return zeta_even_recursive(m // 2, table=table).approx(table=table)
        return zeta_series(m, 1e-17)

    terms = (gamma_int(s) * zeta(s), *_real_part_terms(s, _real_part_row(s), zeta))
    lhs = math.fsum(terms)
    rhs = -_I_POW[s % 4].real * math.pi**s / (2 * s)
    return lhs, rhs, math.fsum(map(abs, terms)) + abs(rhs) + abs(lhs - rhs)


def _k_coef(s: int) -> float:
    """Re(-i^(s+1)/2), the coefficient of K(s) in EQ10: 0 for even s, +-1/2 for odd s."""
    return -0.5 * _I_POW[(s + 1) % 4].real


def expanded_real_identity(s: int, tol: float = 1e-9) -> IdentityReport:
    """EQ10_NUMERIC: the real part of EQ9 expanded into zeta values and K(s).

        Gamma(s) zeta(s) + sum_{j even} C(s-1,j) Re((i pi)^j) F(j)
            = Re(-i^s) pi^s / (2s) + Re(-i^(s+1)/2) K(s)

    Even arguments of zeta come from the exact coefficients, odd ones from
    the series oracle.  For even s the K(s) coefficient vanishes and the
    identity is the numeric shadow of the exact recursion; for odd s it
    carries zeta(s) information (see verify_odd_zeta).

    tol is refused, before K(s) runs, below eps times the summed magnitudes of
    the terms: the left side's, the pi^s term's, and |lhs - pi^s term| in place
    of |K(s) term|, which the identity makes equal.  That floor estimates the
    rounding of the summed terms; it is not a proof that no smaller tol is met.
    K(s), whose coefficient is +-1/2, runs only for odd s and is asked for tol itself.
    """
    _require_tol("expanded_real_identity", tol)
    _require_s("expanded_real_identity", s, *_GAMMA_S)
    lhs, rhs, magnitude = _eq10_sides(s)
    _refuse_below_floor(
        "expanded_real_identity", s, tol, [(1.0, magnitude)],
        "eps times the summed magnitudes of its terms: an estimate of their rounding, "
        "not a proven bound")
    k_coef = _k_coef(s)
    if not k_coef:
        return IdentityReport(IdentityId.EQ10_NUMERIC, s, lhs, rhs, tol)
    k = cot_power_integral(s, tol)
    return IdentityReport(IdentityId.EQ10_NUMERIC, s, lhs, rhs + k_coef * k.value, tol, k.reason)


def verify_odd_zeta(s: int, tol: float = 1e-8) -> IdentityReport:
    """ODD_ZETA: zeta(s) for odd s, EQ10 solved for its j = 0 term, against the
    series oracle.

    For odd s the pi^s term of EQ10 vanishes, and the Gamma(s) zeta(s) and
    j = 0 terms carry zeta(s) with total weight Gamma(s) (2 - 2^(1-s)), so

        zeta(s) = (Re(-i^(s+1)/2) K(s) - known) / (Gamma(s) (2 - 2^(1-s)))

    where `known` sums EQ10's terms from j = 2 on: the lower odd zetas (extracted
    recursively, keeping the chain independent of the series oracle) and the
    (i pi)^(s-1) ln 2 term.  At s = 3, zeta(3) = (2 pi^2 ln 2 - K(3)) / 7.

    Each K(m) of the chain is asked only for the accuracy zeta(s) needs from
    it.  zeta(m) = (k_m K(m) - known_m) / D_m for odd m = 3..s, with
    k_m = _k_coef(m) and D_m = Gamma(m) (2 - 2^(1-m)).  One backward pass over
    the same rows gives adj[m] = d zeta(s) / d zeta(m): adj[s] = 1, and each m
    hands -adj[m] C(m-1,j) Re((i pi)^j) _fermi_weight(m-j) / D_m down to
    adj[m-j].  K(m) then moves zeta(s) by w_m = |adj[m] k_m / D_m| per unit, so
    each of the n = (s-1)/2 integrals is asked for (tol/2) / (n w_m), and one
    panel (tolerance inf) when w_m underflows to 0.  The estimate sums w_m err_m
    and, for each numerator k_m K(m) - known_m, eps times the sum of its terms'
    magnitudes, weighted by |adj[m] / D_m|; it stays within about tol/2 when
    every K converges.  A K(m) that evaluated nothing ends the chain: zeta(s)
    is nan and the estimate infinite.  Each D_m, gain |adj[m] / D_m|, k_m, w_m
    and row of known terms depends on s alone, so _odd_chain builds them once per s.

    The report's lhs is the extracted zeta(s), and it passes only when the
    residual is within tol, every K(m) of the chain converged, and the
    propagated error estimate is at most tol.  A failure names the K stop
    reasons, then the estimate if it is above tol; failing neither way, it
    names the residual.
    """
    _require_tol("verify_odd_zeta", tol)
    _require_s("verify_odd_zeta", s, *_GAMMA_S, odd=True)
    chain = _odd_chain(s)
    extracted: dict[int, float] = {}
    estimate = 0.0
    quads = []
    for m, divisor, gain, k_coef, w, row in chain:
        k_tol = _share(0.5 / len(chain) / w, tol) if w else math.inf
        k_quad = cot_power_integral(m, k_tol)
        quads.append(k_quad)
        if not k_quad.evaluations:
            # K(m) evaluated nothing, so it has no estimate at all, and each
            # later row would amplify the gap, up to overflow
            extracted[s], estimate = math.nan, math.inf
            break
        known_terms = list(_real_part_terms(m, row, extracted.__getitem__))
        k_term = k_coef * k_quad.value
        extracted[m] = (k_term - math.fsum(known_terms)) / divisor
        estimate += (w * k_quad.error_estimate
                     + gain * _EPS * (math.fsum(map(abs, known_terms)) + abs(k_term)))
    return IdentityReport(IdentityId.ODD_ZETA, s, extracted[s], _oracle(s, tol), tol,
                          _stop_reason(quads), estimate)


@functools.cache
def _odd_chain(s: int) -> tuple[tuple[int, float, float, float, float, tuple], ...]:
    """(m, D_m, |adj[m] / D_m|, k_m, w_m, row_m) for the odd m = 3..s of verify_odd_zeta's
    chain: everything of it that s alone fixes, with row_m the j >= 2 part of
    _real_part_row(m), whose last entry is the ln 2 term the adjoint pass skips.  Memoized
    per s: verify_odd_zeta refuses every s but the odd 3..171, so at most 85 are kept."""
    odd = range(3, s + 1, 2)
    divisor = {m: _odd_divisor(m) for m in odd}
    rows = {m: _real_part_row(m)[1:] for m in odd}
    adj = dict.fromkeys(odd, 0.0)
    adj[s] = 1.0
    for m in reversed(odd):
        scale = adj[m] / divisor[m]
        for j, ci, weight in rows[m][:-1]:
            adj[m - j] -= scale * ci * weight
    gain = {m: abs(adj[m] / divisor[m]) for m in odd}
    return tuple((m, divisor[m], gain[m], _k_coef(m), abs(_k_coef(m)) * gain[m], rows[m])
                 for m in odd)


def verify_zeta2(tol: float = 1e-9) -> IdentityReport:
    """S2_REAL: zeta(2) extracted from the contour against the series oracle.

    Re C = (3/2) zeta(2) at s = 2, so of eq9_components only C runs, at tol/4,
    and tol is refused below the floor of C's lower bound pi on the integral of
    |f|, which also dominates A's in eq9_components at s = 2.
    """
    _require_tol("verify_zeta2", tol)
    share = 0.25
    _refuse_below_floor("verify_zeta2", 2, tol, [(share, _pi_side_bound(2))])
    c = integrate_segment(2, _EQ9_C, _share(share, tol))
    return IdentityReport(IdentityId.S2_REAL, 2, c.value.real * 2.0 / 3.0, _oracle(2, tol), tol,
                          c.reason)
