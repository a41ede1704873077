"""Adaptive Gauss-Kronrod quadrature plus the integrands it serves.

The scheme is the nested (G7, K15) pair on each subinterval, with
deterministic refinement: always bisect the subinterval with the largest
error estimate, ties broken by the leftmost, taken from a heap keyed
(-error, left end).  Per-interval errors use the standard Kronrod estimator
((200 |K-G| / resasc)^1.5 scaling) with a two-epsilon-of-resabs floor so the
reported estimate never claims better than roundoff.  Each panel sums its
15 terms in one fixed order: the nodes +x1, -x1, ..., +x7, -x7, 0, left to
right from 0.0.  Convergence means the summed estimates fell below the
requested tolerance.  Stopping short of it is reported, never raised, with
the reason: the evaluation budget ran out; the roundoff floor, either
because the panels' floors alone already exceed the tolerance (as QUADPACK's
QAGS stops with ier = 2) or because the worst subinterval sits at its own
floor; or its halves would be too narrow in doubles for every node to fall
strictly inside.

Semi-infinite integrals of the Bose/Fermi-weight integrands are truncated
at a point X chosen from the analytic tail bound

    integral_X^inf x^(s-1) e^-x / (1 - e^-X) dx
        = GammaUpper(s, X) / (1 - e^-X),

which majorizes both integrand families; the bound is added to the
reported error estimate.

All functions are pure and the module holds no mutable state: every
integrator takes its evaluation budget as an argument.
"""

from __future__ import annotations

import cmath
import heapq
import math
from dataclasses import dataclass

__all__ = [
    "QuadratureResult",
    "Segment",
    "DEFAULT_EVAL_BUDGET",
    "BUDGET_EXHAUSTED",
    "ROUNDOFF_FLOOR",
    "FLOAT_EXHAUSTION",
    "bose_integrand",
    "fermi_integrand",
    "cot_kernel",
    "integrate_finite",
    "truncation_point",
    "tail_bound",
    "integrate_semi_infinite",
    "integrate_segment",
]

DEFAULT_EVAL_BUDGET = 1_000_000

_EPS = 2.220446049250313e-16
# integrate_finite's running sums: the relative margin that covers the
# rounding of fsum and of its stop tests, and the least positive double
_SUM_MARGIN = 1e-12
_TINY = 5e-324

# why an integral stopped short of its tolerance (QuadratureResult.reason)
BUDGET_EXHAUSTED = "evaluation budget exhausted"
ROUNDOFF_FLOOR = "roundoff floor"
FLOAT_EXHAUSTION = "float exhaustion"


@dataclass(frozen=True)
class QuadratureResult:
    """An integral, its error estimate and, when it did not converge, why not."""

    value: float | complex
    error_estimate: float
    evaluations: int
    reason: str = ""

    def __post_init__(self) -> None:
        if self.evaluations < 0 or (self.converged and not self.evaluations):
            raise ValueError("evaluations must be nonnegative, and positive when converged")
        if self.error_estimate < 0:
            raise ValueError("error estimate must be nonnegative")

    @property
    def converged(self) -> bool:
        """Whether the estimate met the tolerance: exactly when no reason is named."""
        return not self.reason


@dataclass(frozen=True)
class Segment:
    """Directed straight segment in the complex plane."""

    start: complex
    end: complex

    def __post_init__(self) -> None:
        if self.start == self.end:
            raise ValueError("segment endpoints must differ")


# ---------------------------------------------------------------------------
# integrands

def bose_integrand(x: float, s: int) -> float:
    """x^(s-1) / (e^x - 1), stable over the whole positive axis.

    Below x = 1 the denominator comes from expm1 (no cancellation); above,
    the equivalent form x^(s-1) e^-x / (1 - e^-x) avoids overflow for any x.
    """
    if s < 2:
        raise ValueError("bose_integrand requires s >= 2")
    if x <= 0.0:
        raise ValueError("bose_integrand requires x > 0")
    if x <= 1.0:
        return x ** (s - 1) / math.expm1(x)
    t = math.exp(-x)
    return x ** (s - 1) * t / (1.0 - t)


def fermi_integrand(x: float, s: int) -> float:
    """x^(s-1) / (e^x + 1); at x = 0 this is 1/2 for s = 1 and 0 for s >= 2."""
    if s < 1:
        raise ValueError("fermi_integrand requires s >= 1")
    if x < 0.0:
        raise ValueError("fermi_integrand requires x >= 0")
    t = math.exp(-x)
    return x ** (s - 1) * t / (1.0 + t)


def cot_kernel(y: float, s: int) -> float:
    """y^(s-1) * cot(y/2) on [0, pi], with the removable limit at y = 0.

    Near zero the product is evaluated from the Laurent series of cot to
    sidestep the 0 * inf form: y^(s-1) cot(y/2) = 2 y^(s-2) - y^s/6 - y^(s+2)/360 - ...
    """
    if s < 2:
        raise ValueError("cot_kernel requires s >= 2")
    if not 0.0 <= y <= math.pi:
        raise ValueError("cot_kernel domain is [0, pi]")
    if y == 0.0:
        return 2.0 if s == 2 else 0.0
    if y < 1e-4:
        return 2.0 * y ** (s - 2) - y**s / 6.0 - y ** (s + 2) / 360.0
    return y ** (s - 1) * math.cos(0.5 * y) / math.sin(0.5 * y)


def _cexpm1(z: complex) -> complex:
    """exp(z) - 1 without cancellation near z = 0."""
    if abs(z) >= 0.5:
        return cmath.exp(z) - 1.0
    term = z
    total = z
    k = 2
    while abs(term) > 1e-20 * abs(total):
        term *= z / k
        total += term
        k += 1
    return total


def _pole_ratio_integrand(z: complex, s: int) -> complex:
    """z^(s-1) / (e^z - 1) with the removable value at z = 0 (s >= 2)."""
    if z == 0:
        return complex(1.0) if s == 2 else complex(0.0)
    return z ** (s - 1) / _cexpm1(z)


# ---------------------------------------------------------------------------
# (G7, K15) pair; standard node/weight table (QUADPACK's QK15).  The Kronrod
# nodes are +-_X1 .. +-_X7 and 0; the Gauss nodes among them are +-_X2, +-_X4,
# +-_X6 and 0.  _WKj and _WGj are the Kronrod and Gauss weights at +-_Xj,
# _WK0 and _WG0 those at 0.

_X1 = 0.991455371120812639206854697526329
_X2 = 0.949107912342758524526189684047851
_X3 = 0.864864423359769072789712788640926
_X4 = 0.741531185599394439863864773280788
_X5 = 0.586087235467691130294144838258730
_X6 = 0.405845151377397166906606412076961
_X7 = 0.207784955007898467600689403773245

_WG2 = 0.129484966168869693270611432679082
_WG4 = 0.279705391489276667901467771423780
_WG6 = 0.381830050505118944950369775488975
_WG0 = 0.417959183673469387755102040816327

_WK1 = 0.022935322010529224963732008058970
_WK2 = 0.063092092629978553290700663189204
_WK3 = 0.104790010322250183839876322541518
_WK4 = 0.140653259715525918745189590510238
_WK5 = 0.169004726639267902826583426598550
_WK6 = 0.190350578064785409913256402421014
_WK7 = 0.204432940075298892414161999234649
_WK0 = 0.209482141084727828012999174891714


def _gk15(f, a: float, b: float):
    """One (G7, K15) application on [a, b]: (value, error_estimate, at_floor, floor).

    floor = 2 eps resabs is the panel's roundoff floor, resabs its K15 estimate
    of the integral of |f|; the error estimate is never below it, and at_floor
    says it was raised to it.

    f is called at center+-half*_X1, ..., center+-half*_X7 (plus before
    minus) and then at the center.  Each of the four sums (Gauss, Kronrod,
    sum of |f| and sum of |f - mean|) starts from 0.0 and adds its terms
    left to right in that node order, so the result is bit for bit that of a
    loop over the node table; the terms are written out because a loop costs
    more interpreter time than the 15 additions.
    """
    center = 0.5 * (a + b)
    half = 0.5 * (b - a)
    d1 = half * _X1
    d2 = half * _X2
    d3 = half * _X3
    d4 = half * _X4
    d5 = half * _X5
    d6 = half * _X6
    d7 = half * _X7
    f1p = f(center + d1)
    f1m = f(center - d1)
    f2p = f(center + d2)
    f2m = f(center - d2)
    f3p = f(center + d3)
    f3m = f(center - d3)
    f4p = f(center + d4)
    f4m = f(center - d4)
    f5p = f(center + d5)
    f5m = f(center - d5)
    f6p = f(center + d6)
    f6m = f(center - d6)
    f7p = f(center + d7)
    f7m = f(center - d7)
    f0 = f(center + half * 0.0)  # the node 0.0 as a loop takes it: -0.0 + 0.0 is 0.0, inf * 0.0 is nan
    resg = (0.0 + _WG2 * f2p + _WG2 * f2m + _WG4 * f4p + _WG4 * f4m
            + _WG6 * f6p + _WG6 * f6m + _WG0 * f0)
    resk = (0.0 + _WK1 * f1p + _WK1 * f1m + _WK2 * f2p + _WK2 * f2m
            + _WK3 * f3p + _WK3 * f3m + _WK4 * f4p + _WK4 * f4m
            + _WK5 * f5p + _WK5 * f5m + _WK6 * f6p + _WK6 * f6m
            + _WK7 * f7p + _WK7 * f7m + _WK0 * f0)
    resabs = (0.0 + _WK1 * abs(f1p) + _WK1 * abs(f1m) + _WK2 * abs(f2p) + _WK2 * abs(f2m)
              + _WK3 * abs(f3p) + _WK3 * abs(f3m) + _WK4 * abs(f4p) + _WK4 * abs(f4m)
              + _WK5 * abs(f5p) + _WK5 * abs(f5m) + _WK6 * abs(f6p) + _WK6 * abs(f6m)
              + _WK7 * abs(f7p) + _WK7 * abs(f7m) + _WK0 * abs(f0))
    mean = resk / 2.0
    resasc = (0.0 + _WK1 * abs(f1p - mean) + _WK1 * abs(f1m - mean)
              + _WK2 * abs(f2p - mean) + _WK2 * abs(f2m - mean)
              + _WK3 * abs(f3p - mean) + _WK3 * abs(f3m - mean)
              + _WK4 * abs(f4p - mean) + _WK4 * abs(f4m - mean)
              + _WK5 * abs(f5p - mean) + _WK5 * abs(f5m - mean)
              + _WK6 * abs(f6p - mean) + _WK6 * abs(f6m - mean)
              + _WK7 * abs(f7p - mean) + _WK7 * abs(f7m - mean)
              + _WK0 * abs(f0 - mean))
    value = resk * half
    err = abs(resk - resg) * half
    resasc *= half
    resabs *= half
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    floor = 2.0 * _EPS * resabs
    if err < floor:
        return value, floor, True, floor
    return value, err, False, floor


def _nodes_interior(a: float, b: float) -> bool:
    """Whether _gk15's outermost nodes on [a, b], rounded as it rounds them, lie
    strictly inside; every other node, the center included, lies between them."""
    center = 0.5 * (a + b)
    d1 = 0.5 * (b - a) * _X1
    return a < center - d1 and center + d1 < b


def integrate_finite(f, a: float, b: float, tol: float,
                     budget: int = DEFAULT_EVAL_BUDGET) -> QuadratureResult:
    """Adaptive integral of f over [a, b] to absolute tolerance tol.

    f may return float or complex; only interior points are ever evaluated.
    Stopping short of tol returns the estimate reached with the reason:
    BUDGET_EXHAUSTED, ROUNDOFF_FLOOR or FLOAT_EXHAUSTION.  A panel
    whose nodes would round onto or past its ends is never made; when [a, b]
    itself is that narrow, nothing is evaluated and the estimate is infinite.

    The roundoff floor stops the loop in two ways.  Either the worst panel
    already sits at its own floor, or the floors of all panels alone exceed
    tol: sum floor - 2 eps sum err = 2 eps (R - E) > tol, with R the panels'
    K15 estimate of the integral of |f| and E their summed error estimate.
    Any mesh reports about 2 eps times the integral of |f| at least, and for
    a positive f that integral is at least R - E, so refining further cannot
    reach tol; for a sign-changing or complex f, R - E is an estimate, like
    each panel's own floor.  The worst panel comes from a heap keyed
    (-err, a), and the errors and floors sit in per-panel lists for fsum.
    Both stop tests read running sums of those lists, at O(1) per bisection,
    with a proven bound on how far rounding has moved them; a test that the
    running sums cannot settle by that bound is decided on fsum of the lists,
    so every decision and the returned estimate are the exact sums' own.
    """
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise ValueError("integration bounds must be finite with a < b")
    if not tol > 0.0:
        raise ValueError("tolerance must be positive")
    if not _nodes_interior(a, b):
        return QuadratureResult(0.0, math.inf, 0, FLOAT_EXHAUSTION)

    value, err, at_floor, floor = _gk15(f, a, b)
    # slot i holds one panel's values[i], errs[i] and floors[i]; its heap
    # entry (-err, a, b, i, at_floor) says where it lies and when to bisect it
    values = [value]
    errs = [err]
    floors = [floor]
    heap = [(-err, a, b, 0, at_floor)]
    # running sums of errs and floors, within drift of the exact sums
    err_sum, floor_sum, drift = err, floor, 0.0
    evaluations = 15
    reason = ""
    while True:
        slack = drift + _SUM_MARGIN * (err_sum + abs(floor_sum) + tol) + _TINY
        if not (err_sum - slack > tol and floor_sum + slack - 2.0 * _EPS * (err_sum - slack) <= tol):
            # near a stop test, or a sum is not finite: decide on the exact sums
            err_sum, floor_sum, drift = math.fsum(errs), math.fsum(floors), 0.0
            if err_sum <= tol:
                break
            if floor_sum - 2.0 * _EPS * err_sum > tol:
                reason = ROUNDOFF_FLOOR
                break
        if evaluations + 30 > budget:
            reason = BUDGET_EXHAUSTED
            break
        _, wa, wb, slot, at_floor = heap[0]
        if at_floor:
            # worst interval already reports its roundoff floor; bisection
            # conserves the floor sum, so no further progress is possible
            reason = ROUNDOFF_FLOOR
            break
        mid = 0.5 * (wa + wb)
        if not (_nodes_interior(wa, mid) and _nodes_interior(mid, wb)):
            reason = FLOAT_EXHAUSTION  # cannot refine further
            break
        old_err, old_floor = errs[slot], floors[slot]
        values[slot], errs[slot], at_floor, floors[slot] = _gk15(f, wa, mid)
        heapq.heapreplace(heap, (-errs[slot], wa, mid, slot, at_floor))
        value, err, at_floor, floor = _gk15(f, mid, wb)
        heapq.heappush(heap, (-err, mid, wb, len(values), at_floor))
        values.append(value)
        errs.append(err)
        floors.append(floor)
        evaluations += 30
        err_sum += errs[slot] + err - old_err
        floor_sum += floors[slot] + floor - old_floor
        drift += 2.0 * _EPS * (abs(err_sum) + abs(floor_sum) + errs[slot] + err + old_err
                               + floors[slot] + floor + old_floor) + _TINY

    if any(isinstance(v, complex) for v in values):
        total = complex(math.fsum(v.real for v in values), math.fsum(v.imag for v in values))
    else:
        total = math.fsum(values)
    return QuadratureResult(total, math.fsum(errs), evaluations, reason)


# ---------------------------------------------------------------------------
# semi-infinite integrals with analytic tail bound

def tail_bound(s: int, x: float) -> float:
    """Upper bound for the discarded tail of either integrand family beyond x.

    GammaUpper(s, x) = (s-1)! e^-x sum_{k<s} x^k/k! for integer s; dividing by
    (1 - e^-x) majorizes 1/(e^t - 1) for t >= x, and a fortiori 1/(e^t + 1).
    """
    if s < 1:
        raise ValueError("tail_bound requires s >= 1")
    if x <= 0.0:
        raise ValueError("tail_bound requires x > 0")
    expmx = math.exp(-x)
    partial = 0.0
    term = 1.0
    for k in range(s):
        if k:
            term *= x / k
        partial += term
    return math.factorial(s - 1) * expmx * partial / (1.0 - expmx)


def truncation_point(s: int, tail_tol: float) -> float:
    """Smallest scanned truncation point whose tail bound is below tail_tol."""
    x = 10.0
    while tail_bound(s, x) > tail_tol and x < 750.0:
        x += 5.0
    return x


def integrate_semi_infinite(f, s: int, tol: float,
                            budget: int = DEFAULT_EVAL_BUDGET) -> QuadratureResult:
    """Integral of f over [0, inf) for integrands decaying like x^(s-1) e^-x.

    Truncates at a point X with tail bound <= tol/2, integrates [0, X] to
    tol/2, and reports quadrature estimate plus tail bound as the error.  The
    scan always finds such an X, since e^-x underflows to 0 by x = 750 (for
    any s whose tail_bound fits a double), so the result converges within tol
    exactly when [0, X] does, and stops for the same reason otherwise.  A
    subnormal tol whose half underflows asks for the least positive double.
    """
    if s < 1:
        raise ValueError("integrate_semi_infinite requires s >= 1")
    if not tol > 0.0:
        raise ValueError("tolerance must be positive")
    half = max(0.5 * tol, math.ulp(0.0))  # a subnormal tol halves to 0
    x_max = truncation_point(s, half)
    tail = tail_bound(s, x_max)
    base = integrate_finite(f, 0.0, x_max, half, budget)
    err = base.error_estimate + tail
    return QuadratureResult(base.value, err, base.evaluations, base.reason)


# ---------------------------------------------------------------------------
# complex line integrals

_POLE_SPACING = 2.0 * math.pi
_POLE_CLEARANCE = 1e-9


def _segment_pole_distance(seg: Segment) -> float:
    """Distance from the segment to the nearest nonzero pole 2*pi*i*k."""
    top = max(abs(seg.start.imag), abs(seg.end.imag))
    k_max = int(top / _POLE_SPACING) + 2
    delta = seg.end - seg.start
    norm2 = abs(delta) ** 2
    best = math.inf
    for k in range(-k_max, k_max + 1):
        if k == 0:
            continue
        pole = complex(0.0, _POLE_SPACING * k)
        t = ((pole - seg.start).real * delta.real + (pole - seg.start).imag * delta.imag) / norm2
        t = min(1.0, max(0.0, t))
        best = min(best, abs(seg.start + t * delta - pole))
    return best


def integrate_segment(s: int, seg: Segment, tol: float,
                      budget: int = DEFAULT_EVAL_BUDGET) -> QuadratureResult:
    """Line integral of z^(s-1)/(e^z - 1) along a straight segment.

    The parameterized integrand f(z(t)) * (end - start) is integrated over
    t in [0, 1] in one complex pass, so the error estimate bounds the modulus.
    Segments passing within 1e-9 of a pole 2*pi*i*k (k != 0) are rejected;
    z = 0 is removable for s >= 2 and handled by the integrand's analytic limit.
    """
    if s < 2:
        raise ValueError("integrate_segment requires s >= 2")
    if _segment_pole_distance(seg) < _POLE_CLEARANCE:
        raise ValueError("segment passes through a pole of the integrand")
    delta = seg.end - seg.start

    def directed(t: float) -> complex:
        return _pole_ratio_integrand(seg.start + t * delta, s) * delta

    return integrate_finite(directed, 0.0, 1.0, tol, budget)
