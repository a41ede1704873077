"""Adaptive Gauss-Kronrod quadrature plus the integrands it serves.

The scheme is the nested (G10, K21) pair on each subinterval, QUADPACK's
QK21, the rule its QAGS routine uses on a finite interval, with
deterministic refinement: always bisect the subinterval with the largest
error estimate, ties broken by the leftmost, taken from a heap keyed
(-error, left end) whose entries are the only record of the subintervals.
Per-interval errors use the standard Kronrod estimator ((200 |K-G| /
resasc)^1.5 scaling) with a two-epsilon-of-resabs floor so the reported
estimate never claims better than roundoff.  Each panel sums its
21 terms in one fixed order: the nodes +x1, -x1, ..., +x10, -x10, 0, left to
right from 0.0.  Convergence means the summed estimates fell below the
requested tolerance.  Stopping short of it is reported, never raised, with
the reason: the evaluation budget ran out; the roundoff floor, either
because the panels' floors alone already exceed the tolerance (as QUADPACK's
QAGS stops with ier = 2) or because the worst subinterval sits at its own
floor; or its halves would be too narrow in doubles for every node to fall
strictly inside.  The value is the fsum of the panels' values, so a part that
sums to zero, even one panel's -0.0, comes back as 0.0.

Semi-infinite integrals of the Bose/Fermi-weight integrands are truncated
at a point X chosen from the analytic tail bound

    integral_X^inf x^(s-1) e^-x / (1 - e^-X) dx
        = GammaUpper(s, X) / (1 - e^-X),

which majorizes both integrand families.  The scan that picks X proves the
bound there, and that bound is added to the reported error estimate.

Line integrals of z^(s-1)/(e^z - 1) are taken over the segment's parameter
t in [0, 1].  A segment on the non-negative real axis, such as the bottom
side 0 -> R of the paper's rectangle, is integrated in real arithmetic with
the Bose integrand; any other segment in complex arithmetic, with e^z - 1 in
closed form near z = 0.

The order of the bisections does not depend on the tolerance or the
budget, so every request on an integral stops at one step of the same
refinement.  The module's one piece of state is the store, _kept_run, a
function-held LRU cache of at most 1,024 refinements.  It keeps the run of
every integrand that carries a family, on any interval: bose(s), fermi(s),
cot_power(s), and the segment integrand on the imaginary axis, such as
0 -> i pi and i pi -> 0.  A request walks the steps a run has taken and
bisects only past the last of them, so a warm request returns every field a
fresh process does, as does a run rebuilt after its eviction.  Every other
integral, a caller's own f included, is refined for its one request.  Every
integrator takes its evaluation budget as an argument.
"""

from __future__ import annotations

import cmath
import functools
import heapq
import math
import sys
from _thread import allocate_lock
from collections import namedtuple

__all__ = [
    "QuadratureResult",
    "Segment",
    "DEFAULT_EVAL_BUDGET",
    "BUDGET_EXHAUSTED",
    "ROUNDOFF_FLOOR",
    "FLOAT_EXHAUSTION",
    "bose",
    "fermi",
    "cot_power",
    "integrate_finite",
    "truncation_point",
    "tail_bound",
    "integrate_semi_infinite",
    "integrate_segment",
]

DEFAULT_EVAL_BUDGET = 1_000_000

_EPS = sys.float_info.epsilon
# the least positive double
_TINY = 5e-324

# why an integral stopped short of its tolerance (QuadratureResult.reason)
BUDGET_EXHAUSTED = "evaluation budget exhausted"
ROUNDOFF_FLOOR = "roundoff floor"
FLOAT_EXHAUSTION = "float exhaustion"


class QuadratureResult(namedtuple("QuadratureResult", "value error_estimate evaluations reason")):
    """An integral, its error estimate and, when it did not converge, why not."""

    __slots__ = ()

    def __new__(cls, value: float | complex, error_estimate: float, evaluations: int,
                reason: str = "") -> QuadratureResult:
        if evaluations < 0 or (not reason and not evaluations):
            raise ValueError("evaluations must be nonnegative, and positive when converged")
        if error_estimate < 0:
            raise ValueError("error estimate must be nonnegative")
        return super().__new__(cls, value, error_estimate, evaluations, reason)

    @property
    def converged(self) -> bool:
        """Whether the estimate met the tolerance: exactly when no reason is named."""
        return not self.reason


class Segment(namedtuple("Segment", "start end")):
    """Directed straight segment in the complex plane."""

    __slots__ = ()

    def __new__(cls, start: complex, end: complex) -> Segment:
        if start == end:
            raise ValueError("segment endpoints must differ")
        return super().__new__(cls, start, end)


# ---------------------------------------------------------------------------
# integrands
#
# Each integrand is built once per integral, as a closure of s: bose(s),
# fermi(s) and cot_power(s) on the real axis, _segment_integrand(s, start,
# delta) along a segment.  The builder checks s, and each call of the closure
# is the one Python frame a quadrature node costs (a segment node on the real
# axis adds bose's, and a complex one within 0.5 of z = 0 that of _cexpm1).
# The closure is the one home of its formula.  Its attribute family =
# (builder, *args) rebuilds it, and the store keeps the refinement of every
# closure that carries one, keyed by value.  A segment closure carries one only
# on the imaginary axis, so the contour sides that move with R are dropped.

def bose(s: int):
    """x -> x^(s-1) / (e^x - 1), stable over the whole positive axis.

    Below x = 1 the denominator comes from expm1 (no cancellation); above,
    the equivalent form x^(s-1) e^-x / (1 - e^-x) avoids overflow for any x.
    """
    if s < 2:
        raise ValueError("bose requires s >= 2")
    p = s - 1

    def f(x: float) -> float:
        if x <= 0.0:
            raise ValueError("bose requires x > 0")
        if x <= 1.0:
            return x ** p / math.expm1(x)
        t = math.exp(-x)
        return x ** p * t / (1.0 - t)

    f.family = (bose, s)
    return f


def fermi(s: int):
    """x -> x^(s-1) / (e^x + 1); at x = 0 this is 1/2 for s = 1 and 0 for s >= 2."""
    if s < 1:
        raise ValueError("fermi requires s >= 1")
    p = s - 1

    def f(x: float) -> float:
        if x < 0.0:
            raise ValueError("fermi requires x >= 0")
        t = math.exp(-x)
        return x ** p * t / (1.0 + t)

    f.family = (fermi, s)
    return f


def cot_power(s: int):
    """y -> y^(s-1) * cot(y/2) on [0, pi], with the removable limit at y = 0.

    Near zero the product is evaluated from the Laurent series of cot to
    sidestep the 0 * inf form: y^(s-1) cot(y/2) = 2 y^(s-2) - y^s/6 - y^(s+2)/360 - ...
    """
    if s < 2:
        raise ValueError("cot_power requires s >= 2")
    p = s - 1
    at_zero = 2.0 if s == 2 else 0.0

    def f(y: float) -> float:
        if not 0.0 <= y <= math.pi:
            raise ValueError("cot_power domain is [0, pi]")
        if y == 0.0:
            return at_zero
        if y < 1e-4:
            return 2.0 * y ** (s - 2) - y**s / 6.0 - y ** (s + 2) / 360.0
        return y ** p * math.cos(0.5 * y) / math.sin(0.5 * y)

    f.family = (cot_power, s)
    return f


def _cexpm1(z: complex) -> complex:
    """exp(z) - 1 for abs(z) < 0.5 in closed form, without the cancellation of
    cmath.exp(z) - 1.0 near z = 0: with z = x + iy, the real part
    e^x cos y - 1 = expm1(x) cos y - 2 sin^2(y/2) and the imaginary part e^x sin y."""
    x, y = z.real, z.imag
    return complex(math.expm1(x) * math.cos(y) - 2.0 * math.sin(0.5 * y) ** 2,
                   math.exp(x) * math.sin(y))


def _segment_integrand(s: int, start: complex, delta: complex):
    """t -> f(start + t delta) delta for f(z) = z^(s-1) / (e^z - 1) (s >= 2), with
    the removable value at z = 0.

    On the non-negative real axis (both ends real and >= 0) f is bose(s) at
    x = start + t delta, in real arithmetic, and the closure returns floats.
    Any other segment is evaluated in complex arithmetic, with e^z - 1 from
    _cexpm1 below abs(z) = 0.5; it carries a family only when both real
    parts are +0.0, as z^(s-1) may tell a -0.0 part apart and the store's
    key, compared by ==, cannot.  Either way the parameter is t in [0, 1], so
    a segment too short for 21 distinct doubles between its ends (a radius
    down to 5e-324) still has room for the panel's nodes.
    """
    p = s - 1
    limit = 1.0 if s == 2 else 0.0  # f(0)
    x0, dx = start.real, delta.real
    if not (start.imag or delta.imag) and x0 >= 0.0 and x0 + dx >= 0.0:
        real_at_zero = limit * dx
        bose_s = bose(s)

        def real(t: float) -> float:
            x = x0 + t * dx
            if x == 0.0:
                return real_at_zero
            return bose_s(x) * dx

        return real

    at_zero = complex(limit) * delta

    def directed(t: float) -> complex:
        z = start + t * delta
        if z == 0:
            return at_zero
        if abs(z) >= 0.5:
            return z ** p / (cmath.exp(z) - 1.0) * delta
        return z ** p / _cexpm1(z) * delta

    if not (x0 or dx) and math.copysign(1.0, x0) == math.copysign(1.0, dx) == 1.0:
        directed.family = (_segment_integrand, s, start, delta)
    return directed


# ---------------------------------------------------------------------------
# (G10, K21) pair, QUADPACK's QK21 table, to 33 decimals as re-derived in
# mpmath (the Kronrod extension of G10's nodes).  The Kronrod nodes are
# +-_X1 .. +-_X10 and 0; the Gauss nodes among them are +-_X2, +-_X4, ...,
# +-_X10, and G10 has no node at 0.  _WKj and _WGj are the Kronrod and Gauss
# weights at +-_Xj, _WK0 the Kronrod weight at 0.

_X1 = 0.995657163025808080735527280689003
_X2 = 0.973906528517171720077964012084452
_X3 = 0.930157491355708226001207180059508
_X4 = 0.865063366688984510732096688423493
_X5 = 0.780817726586416897063717578345042
_X6 = 0.679409568299024406234327365114874
_X7 = 0.562757134668604683339000099272694
_X8 = 0.433395394129247190799265943165784
_X9 = 0.294392862701460198131126603103866
_X10 = 0.148874338981631210884826001129720

_WG2 = 0.066671344308688137593568809893332
_WG4 = 0.149451349150580593145776339657697
_WG6 = 0.219086362515982043995534934228163
_WG8 = 0.269266719309996355091226921569469
_WG10 = 0.295524224714752870173892994651338

_WK1 = 0.011694638867371874278064396062192
_WK2 = 0.032558162307964727478818972459390
_WK3 = 0.054755896574351996031381300244580
_WK4 = 0.075039674810919952767043140916190
_WK5 = 0.093125454583697605535065465083366
_WK6 = 0.109387158802297641899210590325805
_WK7 = 0.123491976262065851077958109831074
_WK8 = 0.134709217311473325928054001771707
_WK9 = 0.142775938577060080797094273138717
_WK10 = 0.147739104901338491374841515972068
_WK0 = 0.149445554002916905664936468389821


def _gk21(f, a: float, b: float):
    """One (G10, K21) application on [a, b]: (value, error_estimate, at_floor, floor).

    The 21-point Kronrod rule is QUADPACK's QK21, the panel of its
    general-purpose finite-interval routine QAGS: it integrates polynomials
    through degree 31 exactly, and on this package's integrands it needs about
    half the panels and two thirds of the evaluations of the 15-point rule.

    floor = 2 eps resabs is the panel's roundoff floor, resabs its K21 estimate
    of the integral of |f|; the error estimate is never below it, and at_floor
    says it was raised to it.

    f is called at center+-half*_X1, ..., center+-half*_X10 (plus before
    minus) and then at the center.  Each of the four sums (Gauss, Kronrod,
    sum of |f| and sum of |f - mean|) starts from 0.0 and adds its terms
    left to right in that node order, so the result is bit for bit that of a
    loop over the node table; the terms are written out because a loop costs
    more interpreter time than the 21 additions.
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
    d8 = half * _X8
    d9 = half * _X9
    d10 = half * _X10
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
    f8p = f(center + d8)
    f8m = f(center - d8)
    f9p = f(center + d9)
    f9m = f(center - d9)
    f10p = f(center + d10)
    f10m = f(center - d10)
    f0 = f(center + half * 0.0)  # the node 0.0 as a loop takes it: -0.0 + 0.0 is 0.0, inf * 0.0 is nan
    resg = (0.0 + _WG2 * f2p + _WG2 * f2m + _WG4 * f4p + _WG4 * f4m
            + _WG6 * f6p + _WG6 * f6m + _WG8 * f8p + _WG8 * f8m
            + _WG10 * f10p + _WG10 * f10m)
    resk = (0.0 + _WK1 * f1p + _WK1 * f1m + _WK2 * f2p + _WK2 * f2m
            + _WK3 * f3p + _WK3 * f3m + _WK4 * f4p + _WK4 * f4m
            + _WK5 * f5p + _WK5 * f5m + _WK6 * f6p + _WK6 * f6m
            + _WK7 * f7p + _WK7 * f7m + _WK8 * f8p + _WK8 * f8m
            + _WK9 * f9p + _WK9 * f9m + _WK10 * f10p + _WK10 * f10m
            + _WK0 * f0)
    resabs = (0.0 + _WK1 * abs(f1p) + _WK1 * abs(f1m) + _WK2 * abs(f2p) + _WK2 * abs(f2m)
              + _WK3 * abs(f3p) + _WK3 * abs(f3m) + _WK4 * abs(f4p) + _WK4 * abs(f4m)
              + _WK5 * abs(f5p) + _WK5 * abs(f5m) + _WK6 * abs(f6p) + _WK6 * abs(f6m)
              + _WK7 * abs(f7p) + _WK7 * abs(f7m) + _WK8 * abs(f8p) + _WK8 * abs(f8m)
              + _WK9 * abs(f9p) + _WK9 * abs(f9m) + _WK10 * abs(f10p) + _WK10 * abs(f10m)
              + _WK0 * abs(f0))
    mean = resk / 2.0
    resasc = (0.0 + _WK1 * abs(f1p - mean) + _WK1 * abs(f1m - mean)
              + _WK2 * abs(f2p - mean) + _WK2 * abs(f2m - mean)
              + _WK3 * abs(f3p - mean) + _WK3 * abs(f3m - mean)
              + _WK4 * abs(f4p - mean) + _WK4 * abs(f4m - mean)
              + _WK5 * abs(f5p - mean) + _WK5 * abs(f5m - mean)
              + _WK6 * abs(f6p - mean) + _WK6 * abs(f6m - mean)
              + _WK7 * abs(f7p - mean) + _WK7 * abs(f7m - mean)
              + _WK8 * abs(f8p - mean) + _WK8 * abs(f8m - mean)
              + _WK9 * abs(f9p - mean) + _WK9 * abs(f9m - mean)
              + _WK10 * abs(f10p - mean) + _WK10 * abs(f10m - mean)
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
    """Whether _gk21's outermost nodes on [a, b], rounded as it rounds them, lie
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
    itself is that narrow, or budget is below the one panel's 21 evaluations,
    nothing is evaluated and the estimate is infinite.  Otherwise the result
    is one step of the integral's refinement (_Refinement): the value is the
    fsum of that mesh's panel values (a zero part comes back as 0.0, never
    -0.0), and the estimate the fsum of their errors.

    The roundoff floor stops the walk in two ways.  Either the worst panel
    already sits at its own floor, or the floors of all panels alone exceed
    tol: sum floor - 2 eps sum err = 2 eps (R - E) > tol, with R the panels'
    K21 estimate of the integral of |f| and E their summed error estimate.
    Any mesh reports about 2 eps times the integral of |f| at least, and for
    a positive f that integral is at least R - E, so refining further cannot
    reach tol; for a sign-changing or complex f, R - E is an estimate, like
    each panel's own floor.  Both sums are fsums over the mesh's panels,
    taken once per step, so that is O(n) per bisection and O(n^2) over n of
    them.  The deepest integral found over about 17,000 inputs the CLI
    accepts bisects 12 times (a CLI test fails past 64), while a long library
    integral pays for it: sin(300x) over [0, 100] to 1e-9, 4,025 bisections,
    takes 0.8-0.9 s.

    An integrand that carries a family (any package integrand but a segment's
    off the imaginary axis) is refined once per process, in the store
    (_kept_run): a request reads its stop off the steps already taken and
    bisects only past the last of them, so every field is what a fresh run
    returns.  Any other integral is refined for this request alone.
    """
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise ValueError("integration bounds must be finite with a < b")
    if not tol > 0.0:
        raise ValueError("tolerance must be positive")
    if not _nodes_interior(a, b):
        return QuadratureResult(0.0, math.inf, 0, FLOAT_EXHAUSTION)
    if budget < 21:
        return QuadratureResult(0.0, math.inf, 0, BUDGET_EXHAUSTED)
    family = getattr(f, "family", None)
    if family is not None:
        return _kept_run(family, a, b).stop(tol, budget)
    return _Refinement(f, a, b, False).stop(tol, budget)


class _Refinement:
    """The refinement of one integral: step k is the mesh after k bisections.

    Each bisection splits the worst panel, the top of a heap keyed (-error,
    left end) whose entries (-err, a, b, value, floor, at_floor) are the only
    record of the panels.  That order does not depend on tol or budget, so
    every request stops at one step of the same sequence.  Step k holds the
    fsum of its panels' errors, its floor excess (the fsum of their floors
    less 2 eps times that error sum), the stop it forces (ROUNDOFF_FLOOR when
    the worst panel sits at its floor, FLOAT_EXHAUSTION when that panel's
    halves would not hold their nodes strictly inside, else "") and, in a
    kept run, the fsum of its panels' values; its evaluations are 21 + 42 k.
    A dropped run serves one request, which stops at its last step, so it
    records no values: its one value is summed from the mesh at the end.

    A request walks the steps with the tests of the adaptive loop, in its
    order: converged, roundoff floor, budget, forced stop.  It bisects only
    past the last step, under the run's lock, and a bisection builds the next
    mesh and step aside and commits them together, so an interrupted one
    leaves the run as it was.
    """

    __slots__ = ("f", "heap", "steps", "keep", "lock")

    def __init__(self, f, a: float, b: float, keep: bool):
        self.f = f
        self.keep = keep
        self.lock = allocate_lock()
        value, err, at_floor, floor = _gk21(f, a, b)
        # the panels are disjoint, so (-err, a) decides every comparison of two
        # entries and a value, which may be complex, is never compared
        self.heap = [(-err, a, b, value, floor, at_floor)]
        self.steps = [self._step(self.heap)]

    def _step(self, heap):
        """(error fsum, floor excess, forced stop, value fsum or None) of the mesh heap."""
        err_sum = math.fsum(-entry[0] for entry in heap)
        excess = math.fsum(entry[4] for entry in heap) - 2.0 * _EPS * err_sum
        _, wa, wb, _, _, at_floor = heap[0]
        mid = 0.5 * (wa + wb)
        if at_floor:
            # worst interval already reports its roundoff floor; bisection
            # conserves the floor sum, so no further progress is possible
            forced = ROUNDOFF_FLOOR
        elif not (_nodes_interior(wa, mid) and _nodes_interior(mid, wb)):
            forced = FLOAT_EXHAUSTION  # cannot refine further
        else:
            forced = ""
        return err_sum, excess, forced, _value(heap) if self.keep else None

    def _bisect(self) -> None:
        """Split the worst panel of the last step's mesh and record the next step.

        A kept run builds the next mesh on a copy and commits it with its step
        at the end; a dropped run, read by no later request, splits in place."""
        f = self.f
        heap = self.heap.copy() if self.keep else self.heap
        _, wa, wb, *_ = heap[0]
        mid = 0.5 * (wa + wb)
        value, err, at_floor, floor = _gk21(f, wa, mid)
        heapq.heapreplace(heap, (-err, wa, mid, value, floor, at_floor))
        value, err, at_floor, floor = _gk21(f, mid, wb)
        heapq.heappush(heap, (-err, mid, wb, value, floor, at_floor))
        step = self._step(heap)
        self.heap = heap
        self.steps.append(step)

    def stop(self, tol: float, budget: int) -> QuadratureResult:
        """The result of a request at tol and budget: its stop's step and reason."""
        with self.lock:
            steps = self.steps
            k = 0
            while True:
                if k == len(steps):
                    self._bisect()
                err_sum, excess, forced, value = steps[k]
                evaluations = 21 + 42 * k
                if err_sum <= tol:
                    reason = ""
                elif excess > tol:
                    reason = ROUNDOFF_FLOOR
                elif evaluations + 42 > budget:
                    reason = BUDGET_EXHAUSTED
                elif forced:
                    reason = forced
                else:
                    k += 1
                    continue
                break
            if value is None:
                value = _value(self.heap)
        return QuadratureResult(value, err_sum, evaluations, reason)


def _value(heap) -> float | complex:
    """The fsum of the mesh's panel values, part by part when any is complex."""
    values = [entry[3] for entry in heap]
    if any(isinstance(v, complex) for v in values):
        return complex(math.fsum(v.real for v in values), math.fsum(v.imag for v in values))
    return math.fsum(values)


@functools.lru_cache(maxsize=1024)
def _kept_run(family, a: float, b: float) -> _Refinement:
    """The store: the one kept run per process of family = (builder, *args) on
    [a, b], its integrand rebuilt as builder(*args).  At most 1,024 runs are
    held, the least recently used evicted first; a run rebuilt after eviction
    takes the same steps, so every result stays what a fresh process returns.
    Ends that compare equal, such as -0.0 and 0.0 or 3 and 3.0, share a run:
    _gk21 places every node alike on them."""
    builder, *args = family
    return _Refinement(builder(*args), a, b, True)


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


def truncation_point(s: int, tail_tol: float) -> tuple[float, float]:
    """(X, tail_bound(s, X)) for the smallest scanned X whose tail bound is below
    tail_tol, from one scan: the bound its last step proved, or at the cap the
    bound there.

    The scan runs x = 10, 15, ..., 750.  tail_bound(s, x) is at least its
    k = s-1 term, x^(s-1) e^-x, divided by 1 - e^-x < 1, so a point where
    exp((s-1) log x - x) exceeds 2 tail_tol is passed over at O(1) cost
    without the O(s) bound.  The factor 2 covers the rounding of both sides:
    about 1e-13 relative in the normal range, and half a unit of the least
    double where a result is subnormal (e^-x itself is subnormal at the
    scan points 740 and 745, and rounds up there).  So the first point whose
    bound is at most tail_tol is never passed over, and X is the full
    scan's.  For s <= 171, where tail_bound fits a double, the exponent is
    at most about 703, so exp cannot overflow either.
    """
    x = 10.0
    while x < 750.0:
        if not math.exp((s - 1) * math.log(x) - x) > 2.0 * tail_tol:
            tail = tail_bound(s, x)
            if not tail > tail_tol:
                return x, tail
        x += 5.0
    return x, tail_bound(s, x)


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
    half = max(0.5 * tol, _TINY)  # a subnormal tol halves to 0
    x_max, tail = truncation_point(s, half)
    base = integrate_finite(f, 0.0, x_max, half, budget)
    err = base.error_estimate + tail
    return QuadratureResult(base.value, err, base.evaluations, base.reason)


# ---------------------------------------------------------------------------
# complex line integrals

_POLE_SPACING = 2.0 * math.pi
_POLE_CLEARANCE = 1e-9


def _segment_pole_distance(seg: Segment) -> float:
    """Distance from the segment to the nearest nonzero pole 2*pi*i*k.

    The distance from the point iy to the segment is convex in y, and least
    at y = Im z for the point z of the segment nearest the imaginary axis: at
    t0, the root of Re(start + t delta) clamped to [0, 1].  So over the
    integers k it is least beside k0 = Im z / (2 pi), and over k != 0 at
    k = +-1 when k0 rounds to 0; k0 - 1 .. k0 + 1 covers the rounding of k0.
    """
    delta = seg.end - seg.start
    t0 = min(1.0, max(0.0, -seg.start.real / delta.real)) if delta.real else 0.0
    k0 = round((seg.start.imag + t0 * delta.imag) / _POLE_SPACING)
    best = math.inf
    for k in {k0 - 1, k0, k0 + 1, -1, 1} - {0}:
        pole = complex(0.0, _POLE_SPACING * k)
        # complex division scales its operands, so no |delta|^2 underflows
        t = min(1.0, max(0.0, ((pole - seg.start) / delta).real))
        best = min(best, abs(seg.start + t * delta - pole))
    return best


def integrate_segment(s: int, seg: Segment, tol: float,
                      budget: int = DEFAULT_EVAL_BUDGET) -> QuadratureResult:
    """Line integral of z^(s-1)/(e^z - 1) along a straight segment.

    The parameterized integrand f(z(t)) * (end - start), built once as the
    closure _segment_integrand(s, start, end - start), is integrated over t
    in [0, 1] in one pass: in real arithmetic, with a float result, when the
    segment lies on the non-negative real axis, and otherwise in complex
    arithmetic, where the error estimate bounds the modulus.
    Segments passing within 1e-9 of a pole 2*pi*i*k (k != 0) are rejected;
    z = 0 is removable for s >= 2 and handled by the integrand's analytic limit.
    """
    if s < 2:
        raise ValueError("integrate_segment requires s >= 2")
    if _segment_pole_distance(seg) < _POLE_CLEARANCE:
        raise ValueError("segment passes through a pole of the integrand")
    return integrate_finite(_segment_integrand(s, seg.start, seg.end - seg.start),
                            0.0, 1.0, tol, budget)
