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

The two routes share no arithmetic: tangent numbers never enter the
recursion.  All arithmetic is exact.  ``Rational`` is the standard-library
Fraction, which keeps canonical form (positive denominator, gcd 1) after
every operation and supports integer powers with negative exponents.

Concurrency: every returned value is immutable.  The Bernoulli and b_m memo
tables are guarded by a module lock (single shared writer), so concurrent
callers are safe and results are deterministic regardless of interleaving.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from fractions import Fraction

from .machin import MAX_DIGITS, decimal_str, pi_scaled

Rational = Fraction

__all__ = [
    "Rational",
    "ZetaEvenValue",
    "AlphaCoeff",
    "binomial",
    "gamma_int",
    "bernoulli",
    "zeta_even_euler",
    "alpha_coeff",
    "zeta_even_recursive",
    "recursion_divisor",
    "render_decimal",
]


def binomial(n: int, k: int) -> int:
    """Binomial coefficient C(n, k); zero when k > n."""
    if n < 0 or k < 0:
        raise ValueError("binomial requires nonnegative arguments")
    return math.comb(n, k)


def gamma_int(m: int) -> int:
    """Gamma at a positive integer argument: Gamma(m) = (m-1)!."""
    if m < 1:
        raise ValueError(f"gamma_int requires m >= 1, got {m}")
    return math.factorial(m - 1)


_lock = threading.Lock()
# B_0 .. B_(2K+1) for the K tangent numbers last computed
_bernoulli_cache: list[Fraction] = [Fraction(1), Fraction(-1, 2)]


def _tangent_numbers(count: int) -> list[int]:
    """T_1 .. T_count, where tan x = sum_k T_k x^(2k-1) / (2k-1)!.

    Brent & Harvey's in-place recurrence: O(count^2) products of a small
    integer by a big one, no division.
    """
    t = [0, 1] + [0] * (count - 1)
    for k in range(2, count + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, count + 1):
        for j in range(k, count + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return t[1:count + 1]


def bernoulli(m: int) -> Fraction:
    """Bernoulli number B_m (convention B_1 = -1/2), memoized.

    B_(2k) = (-1)^(k-1) 2k T_k / (4^k (4^k - 1)) from the tangent numbers;
    odd indices above 1 vanish.  A request beyond the table recomputes it to
    at least twice its size, so a growing sequence of requests costs a
    bounded multiple of one computation at the final size.
    """
    if m < 0:
        raise ValueError("Bernoulli index must be nonnegative")
    with _lock:
        if m >= len(_bernoulli_cache):
            count = max(m // 2, len(_bernoulli_cache) - 2)
            table = [Fraction(1), Fraction(-1, 2)]
            for k, t in enumerate(_tangent_numbers(count), start=1):
                four_k = 1 << (2 * k)
                b = Fraction(2 * k * t, four_k * (four_k - 1))
                table += [b if k % 2 else -b, Fraction(0)]
            _bernoulli_cache[:] = table
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
        """Double-precision value of q_n * pi^(2n)."""
        return float(self.coeff) * math.pi ** (2 * self.n)


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


def recursion_divisor(n: int) -> Fraction:
    """Gamma(2n) + a(n,0): the factor multiplying q_n once the k=0 term moves left."""
    return gamma_int(2 * n) + alpha_coeff(n, 0).coeff


# b_1, b_2, ... with b_m = 2^(1-2m) (2m)! q_m
_b_cache: list[Fraction] = []


def _next_b(b: list[Fraction]) -> Fraction:
    """b_n for n = len(b) + 1 from the integer-coefficient recursion.

    The right side is summed as one integer numerator over ``den``, a common
    multiple of the denominators seen so far, so the only gcd between two
    big numbers is the single reduction of b_n itself.
    """
    n = len(b) + 1
    num, den = (1 if n % 2 else -1), 2
    binom = 1  # C(2n, 2k), stepped from C(2n, 2k-2); math.comb per term costs more than the sum
    for k in range(1, n):
        m = n - k
        binom = binom * (2 * m + 2) * (2 * m + 1) // ((2 * k - 1) * (2 * k))
        bm = b[m - 1]
        d = bm.denominator
        widen = d // math.gcd(den, d)
        if widen > 1:
            num *= widen
            den *= widen
        x = binom * (bm.numerator * (den // d))
        term = (x << (2 * m - 1)) - x  # times 2^(2m-1) - 1, by shift instead of a product
        num = num + term if k % 2 else num - term
    return Fraction(num, den * ((1 << (2 * n)) - 1))


def zeta_even_recursive(n: int) -> ZetaEvenValue:
    """zeta(2n) coefficient from the contour recursion, memoized."""
    if n < 1:
        raise ValueError("n must be >= 1")
    with _lock:
        while len(_b_cache) < n:
            _b_cache.append(_next_b(_b_cache))
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

    Same guard policy as pi_digits.  pi^(2n) is built in fixed point at
    precision P = d + guard + 20 by binary powering of pi^2, and every
    product floor(A*B / 10^P) carries the proven bound

        |floor(A*B / 10^P) - a*b * 10^P| <= ceil((A*eB + B*eA + eA*eB) / 10^P) + 1

    for operands |A - a*10^P| <= eA and |B - b*10^P| <= eB, starting from
    pi's own bound.  With q_n = p/q and the power Y +- eY, the result
    S = floor(p*Y / (q * 10^(P-d-guard))) is within ceil(p*eY / (q * 10^(P-d-guard))) + 1
    last-place units of zeta(2n) * 10^(d+guard), and the truncation is
    accepted only when the discarded guard block clears that bound on both
    sides.  zeta(2n) * 10^d is irrational, so the widening retry terminates.
    """
    if not isinstance(d, int) or isinstance(d, bool):
        raise ValueError("digit count must be an integer")
    if not 1 <= d <= MAX_DIGITS:
        raise ValueError(f"digit count must be in 1..{MAX_DIGITS}, got {d}")

    n = value.n
    p, q = value.coeff.numerator, value.coeff.denominator
    guard = 12
    power_margin = 20
    while True:
        precision = d + guard + power_margin
        y, y_err = _pi_power_scaled(n, precision)
        den = q * 10 ** (precision - d - guard)
        s_int = p * y // den
        err = -(-p * y_err // den) + 1
        block = 10**guard
        rem = s_int % block
        if 2 * err < block and err <= rem <= block - err:
            text = decimal_str(s_int // block)  # 1 < zeta(2n) < 2, so d+1 characters
            return text[0] + "." + text[1:]
        guard += 16
