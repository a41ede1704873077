"""Exact values of zeta at even integers, computed two independent ways.

Both routes produce the rational coefficient q_n with zeta(2n) = q_n * pi^(2n):

* ``zeta_even_euler``     -- the Bernoulli closed form
                             q_n = 2^(2n) (-1)^(n+1) B_(2n) / (2 (2n)!).
                             ``bernoulli`` takes B_(2k) from the integer
                             tangent numbers T_k (Brent & Harvey, "Fast
                             computation of Bernoulli, Tangent and Secant
                             numbers", 2011):

                                 B_(2k) = (-1)^(k-1) 2k T_k / (4^k (4^k - 1)).

* ``zeta_even_recursive`` -- the recursion derived from the rectangle-contour
                             identity (docs/derivation.md, eqs. 10-11):

                                 Gamma(2n) q_n + sum_{k=0}^{n-1} a(n,k) q_{n-k}
                                     = (-1)^(n-1) / (4n)

                             where a(n,k) is the rational part of the
                             coefficient alpha(n,k) = a(n,k) * pi^(2k).
                             Since C(2n-1,2k) Gamma(2n-2k) = (2n-1)!/(2k)!,
                             dividing by (2n-1)! and solving for the rescaled
                             unknowns b_m = 2^(1-2m) (2m)! q_m leaves only
                             integer coefficients:

                                 (4^n - 1) b_n = (-1)^(n-1)/2
                                     - sum_{k=1}^{n-1} (-1)^k C(2n,2k)
                                           (2^(2(n-k)-1) - 1) b_{n-k}.

                             The k = 0 term, which carries q_n itself, became
                             the factor 4^n - 1, which never vanishes.

                             The sum comes out of a Pascal-type triangle
                             (docs/derivation.md, "Exact computation").  With
                             y_(2m) = (2^(2m-1) - 1) b_m, y_0 = 0, and c_N[j]
                             the sum over t = N, N-2, ... of
                             C(j,t) (-1)^((N-t)/2) y_(N-t), each anti-diagonal
                             is the prefix sum of the one before,

                                 c_N[j+1] = c_N[j] + c_(N-1)[j],

                             and row n's sum is (-1)^n c_(2n)[2n] taken with
                             y_(2n) = 0.  One more b costs additions only.

The two routes share no arithmetic: tangent numbers never enter the
recursion.  All arithmetic is exact.

Concurrency: every returned value is immutable.  The Bernoulli table, the
tangent-number column it grows from, the b_m memo and the triangle's last
diagonal with its common denominator are guarded by a module lock (single
shared writer), so concurrent callers are safe and results are
deterministic regardless of interleaving.  The pi that ``render_decimal``
powers comes from ``machin.pi_scaled``, which keeps its own lock-free memo.
"""

from __future__ import annotations

import math
import threading
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

from .machin import pi_scaled, truncated

__all__ = [
    "ZetaEvenValue",
    "AlphaCoeff",
    "gamma_int",
    "bernoulli",
    "zeta_even_euler",
    "alpha_coeff",
    "zeta_even_recursive",
    "render_decimal",
]


def gamma_int(m: int) -> int:
    """Gamma at a positive integer argument: Gamma(m) = (m-1)!."""
    if m < 1:
        raise ValueError(f"gamma_int requires m >= 1, got {m}")
    return math.factorial(m - 1)


_lock = threading.Lock()
# B_0 .. B_(2K+1) for the K tangent numbers computed so far
_bernoulli_cache: list[Fraction] = [Fraction(1), Fraction(-1, 2)]
# column K of Brent & Harvey's triangle: entry k-1 is T_K after passes 1..k
_tangent_column: list[int] = []


def _tangent_numbers(column: list[int], count: int) -> Iterator[int]:
    """T_(K+1) .. T_count for K = len(column), where tan x = sum_k T_k x^(2k-1) / (2k-1)!.

    Brent & Harvey's triangle, grown one column at a time: column K+1 has
    c[1] = K! and c[k] = (K+1-k) c_K[k] + (K+3-k) c[k-1] for k = 2..K+1
    (1-based, so ``column[k-1]`` is c_K[k]), and its last entry is T_(K+1).
    ``column`` is replaced by each new column before its T is yielded.  A
    column costs O(K) products of a small integer by a big one, no division.
    """
    for size in range(len(column), count):
        prev = column + [0]  # c_K[K+1] does not exist; its factor K+1-k is 0 there
        nxt = [math.factorial(size)]
        for k in range(1, size + 1):
            nxt.append((size - k) * prev[k] + (size + 2 - k) * nxt[-1])
        column[:] = nxt
        yield nxt[-1]


def bernoulli(m: int) -> Fraction:
    """Bernoulli number B_m (convention B_1 = -1/2), memoized.

    B_(2k) = (-1)^(k-1) 2k T_k / (4^k (4^k - 1)) from the tangent numbers;
    odd indices above 1 vanish.  A request beyond the table grows the
    tangent column just far enough for it, so the table never holds more
    than B_(2K+1) for K = m // 2 of the largest m asked for.
    """
    if m < 0:
        raise ValueError("Bernoulli index must be nonnegative")
    with _lock:
        start = len(_tangent_column) + 1
        for k, t in enumerate(_tangent_numbers(_tangent_column, m // 2), start=start):
            four_k = 1 << (2 * k)
            b = Fraction(2 * k * t, four_k * (four_k - 1))
            _bernoulli_cache.extend((b if k % 2 else -b, Fraction(0)))
        return _bernoulli_cache[m]


@dataclass(frozen=True)
class ZetaEvenValue:
    """zeta(2n) as the exact rational coefficient of pi^(2n)."""

    n: int
    coeff: Fraction

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.coeff <= 0:
            raise ValueError("zeta(2n) coefficient must be positive")

    def approx(self) -> float:
        """Double-precision value of q_n * pi^(2n), within one unit in the last place.

        Read from the exact expansion truncated to 17 decimals, less than 0.05 ulp
        below zeta(2n) >= 1; float(q_n) * math.pi ** (2n) would scale math.pi's
        relative error by 2n, and overflows from n = 311 on.
        """
        return float(render_decimal(self, 17))


@dataclass(frozen=True)
class AlphaCoeff:
    """Rational part of alpha(n,k) = coeff * pi^(2k) in the recursion."""

    n: int
    k: int
    coeff: Fraction


def zeta_even_euler(n: int) -> ZetaEvenValue:
    """zeta(2n) coefficient from the Bernoulli closed form."""
    if n < 1:
        raise ValueError("n must be >= 1")
    sign = 1 if n % 2 == 1 else -1
    coeff = Fraction(sign * 2 ** (2 * n)) * bernoulli(2 * n) / (2 * math.factorial(2 * n))
    return ZetaEvenValue(n, coeff)


def alpha_coeff(n: int, k: int) -> AlphaCoeff:
    """Rational part of alpha(n,k) = (1 - 2^(1-2n+2k)) (-pi^2)^k C(2n-1, 2k) Gamma(2n-2k).

    The power of two always has a negative exponent for valid (n, k) and is
    kept exact as 1 / 2^(2n-2k-1).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0 <= k <= n - 1:
        raise ValueError(f"k must be in 0..{n - 1}, got {k}")
    two_pow = Fraction(1, 1 << (2 * n - 2 * k - 1))
    sign = -1 if k % 2 else 1
    coeff = (1 - two_pow) * sign * math.comb(2 * n - 1, 2 * k) * math.factorial(2 * n - 2 * k - 1)
    return AlphaCoeff(n, k, coeff)


# b_1, b_2, ... with b_m = 2^(1-2m) (2m)! q_m
_b_cache: list[Fraction] = []
# the triangle's anti-diagonal 2m for m = len(_b_cache), scaled by _scale
_diagonal: list[int] = [0]
# common denominator L of the diagonal, a multiple of every b_m's denominator
_scale = 1


def _grow_b(n: int) -> None:
    """Extend ``_b_cache`` to b_1 .. b_n along the triangle; the caller holds ``_lock``.

    Row m takes two prefix sums of the stored diagonal (additions only) and one
    ``Fraction``: the odd diagonal c_(2m-1) from c_(2m-2), then (11') solved for
    b_m with y_(2m) = 0, then c_(2m) with L (-1)^m y_(2m) added to every entry.
    L widens, and the odd diagonal with it, only when b_m's denominator needs it.
    """
    global _scale
    for m in range(len(_b_cache) + 1, n + 1):
        odd = list(accumulate(_diagonal, initial=0))
        num = _scale + 2 * sum(odd)  # L (1 + 2 c_(2m)[2m]) with y_(2m) = 0
        b = Fraction(num if m % 2 else -num, 2 * _scale * ((1 << (2 * m)) - 1))
        widen = b.denominator // math.gcd(_scale, b.denominator)
        if widen > 1:
            _scale *= widen
            odd = [widen * c for c in odd]
        y = b.numerator * (_scale // b.denominator) * ((1 << (2 * m - 1)) - 1)
        _diagonal[:] = accumulate(odd, initial=-y if m % 2 else y)
        _b_cache.append(b)


def zeta_even_recursive(n: int) -> ZetaEvenValue:
    """zeta(2n) coefficient from the contour recursion, memoized."""
    if n < 1:
        raise ValueError("n must be >= 1")
    with _lock:
        _grow_b(n)
        b = _b_cache[n - 1]
    return ZetaEvenValue(n, Fraction(b.numerator << (2 * n - 1),
                                     b.denominator * math.factorial(2 * n)))


def _fixed_mul(a: int, a_err: int, b: int, b_err: int, scale: int) -> tuple[int, int]:
    """Product of two nonnegative fixed-point values, with its error bound.

    If |a - x * scale| <= a_err and |b - y * scale| <= b_err, the returned
    (c, c_err) satisfies |c - x * y * scale| <= c_err: the operand errors
    propagate as a*b_err + b*a_err + a_err*b_err, divided by the scale and
    rounded up, and the floor adds less than one unit.
    """
    return a * b // scale, -(-(a * b_err + b * a_err + a_err * b_err) // scale) + 1


def _pi_power_scaled(n: int, precision: int) -> tuple[int, int]:
    """(y, err) with |y - pi^(2n) * 10**precision| <= err, by binary powering of pi^2."""
    scale = 10**precision
    v, v_err = pi_scaled(precision)
    base = _fixed_mul(v, v_err, v, v_err, scale)
    power = None
    while True:
        if n & 1:
            power = base if power is None else _fixed_mul(*power, *base, scale)
        n >>= 1
        if not n:
            return power
        base = _fixed_mul(*base, *base, scale)


def render_decimal(value: ZetaEvenValue, d: int) -> str:
    """Decimal expansion of q_n * pi^(2n), truncated to d correct digits.

    ``machin.truncated`` owns the guard policy; this supplies zeta(2n) at
    precision d + guard.  pi^(2n) is built in fixed point at the wider
    precision P = d + guard + 20 by binary powering of pi^2, and every
    product floor(A*B / 10^P) carries the proven bound

        |floor(A*B / 10^P) - a*b * 10^P| <= ceil((A*eB + B*eA + eA*eB) / 10^P) + 1

    for operands |A - a*10^P| <= eA and |B - b*10^P| <= eB, starting from
    pi's own bound.  With q_n = p/q and the power Y +- eY, the value
    S = floor(p*Y / (q * 10^20)) is within ceil(p*eY / (q * 10^20)) + 1
    last-place units of zeta(2n) * 10^(d+guard).  zeta(2n) * 10^d is
    irrational, so the guard retries terminate.
    """
    p, den = value.coeff.numerator, value.coeff.denominator * 10**20

    def scaled(precision: int) -> tuple[int, int]:
        y, y_err = _pi_power_scaled(value.n, precision + 20)
        return p * y // den, -(-p * y_err // den) + 1

    return truncated(scaled, d)
