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

State: the module keeps none.  A ``Table`` holds one caller's tables: the
tangent-number column and the Bernoulli numbers grown from it, the b_m with
the triangle's last diagonal and its common denominator, pi and the last
pi^(2n) at the last precision asked, and the last render guard that
settled.  ``bernoulli``, ``zeta_even_euler``, ``zeta_even_recursive`` and
``render_decimal`` take one as ``table``;
walking the rows n = 1, 2, ... through one table costs each row only its own
step, and each render starts from the guard the render before it settled
at.  Without a table a call builds what it needs, starts at machin's default
guard and keeps nothing.  The value returned is the same either way.  A
table is not locked: it belongs to the one caller (or thread) that walks it.

``fractions`` is imported by the first function that builds a rational, not
at import: ``cli`` imports this module for every command, and only ``even``,
``bernoulli`` and eq10 need a ``Fraction``.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Iterator
from itertools import accumulate

from .machin import _GUARD_START, pi_scaled, truncated

__all__ = (
    "Table",
    "ZetaEvenValue",
    "gamma_int",
    "bernoulli",
    "zeta_even_euler",
    "zeta_even_recursive",
    "render_decimal",
)


def gamma_int(m: int) -> int:
    """Gamma at a positive integer argument: Gamma(m) = (m-1)!."""
    if m < 1:
        raise ValueError(f"gamma_int requires m >= 1, got {m}")
    return math.factorial(m - 1)


class Table:
    """One caller's tables, grown only as far as its calls ask.

    ``tangent``    column K of Brent & Harvey's triangle: entry k-1 is T_K after passes 1..k
    ``bernoulli``  B_0 .. B_(2K+1) for the K tangent numbers computed so far
    ``b``          b_1 .. b_m with b_m = 2^(1-2m) (2m)! q_m
    ``diagonal``   the triangle's anti-diagonal 2m for m = len(b), scaled by ``scale``
    ``scale``      common denominator L of the diagonal, a multiple of every b_m's denominator
    ``pi``         (P, V, E, n, y, err, pi^2, pi^2 err) at the last precision P asked, or None:
                   pi as ``machin.pi_scaled`` takes it, then the last pi^(2n) built
    ``guard``      the guard digits of the last ``render_decimal`` that settled, 12 at first
    """

    __slots__ = ("tangent", "bernoulli", "b", "diagonal", "scale", "pi", "guard")

    def __init__(self) -> None:
        import fractions

        self.tangent = []
        self.bernoulli = [fractions.Fraction(1), fractions.Fraction(-1, 2)]
        self.b = []
        self.diagonal = [0]
        self.scale = 1
        self.pi = None
        self.guard = _GUARD_START


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


def bernoulli(m: int, *, table: Table | None = None):
    """Bernoulli number B_m (convention B_1 = -1/2), a ``fractions.Fraction``.

    B_(2k) = (-1)^(k-1) 2k T_k / (4^k (4^k - 1)) from the tangent numbers;
    odd indices above 1 vanish.  A request beyond ``table`` grows its
    tangent column just far enough for it, so the table never holds more
    than B_(2K+1) for K = m // 2 of the largest m asked of it.
    """
    import fractions

    if m < 0:
        raise ValueError("Bernoulli index must be nonnegative")
    if table is None:
        table = Table()
    start = len(table.tangent) + 1
    for k, t in enumerate(_tangent_numbers(table.tangent, m // 2), start=start):
        four_k = 1 << (2 * k)
        b = fractions.Fraction(2 * k * t, four_k * (four_k - 1))
        table.bernoulli.extend((b if k % 2 else -b, fractions.Fraction(0)))
    return table.bernoulli[m]


class ZetaEvenValue(namedtuple("ZetaEvenValue", "n coeff")):
    """zeta(2n) as the exact rational coefficient of pi^(2n), a ``fractions.Fraction``."""

    __slots__ = ()

    def __new__(cls, n: int, coeff) -> ZetaEvenValue:
        if n < 1:
            raise ValueError("n must be >= 1")
        if coeff <= 0:
            raise ValueError("zeta(2n) coefficient must be positive")
        return super().__new__(cls, n, coeff)

    def approx(self, *, table: Table | None = None) -> float:
        """Double-precision value of q_n * pi^(2n), within one unit in the last place.

        Read from the exact expansion truncated to 17 decimals, less than 0.05 ulp
        below zeta(2n) >= 1; float(q_n) * math.pi ** (2n) would scale math.pi's
        relative error by 2n, and overflows from n = 311 on.  ``table`` goes to
        ``render_decimal``: a caller walking rows keeps one pi for every guard
        retry and every row, and starts each row from the guard the last one
        settled at; the value is the same either way.
        """
        return float(render_decimal(self, 17, table=table))


def zeta_even_euler(n: int, *, table: Table | None = None) -> ZetaEvenValue:
    """zeta(2n) coefficient from the Bernoulli closed form."""
    import fractions

    if n < 1:
        raise ValueError("n must be >= 1")
    sign = 1 if n % 2 == 1 else -1
    b = bernoulli(2 * n, table=table)
    coeff = fractions.Fraction(sign * 2 ** (2 * n)) * b / (2 * math.factorial(2 * n))
    return ZetaEvenValue(n, coeff)


def _grow_b(table: Table, n: int) -> None:
    """Extend ``table.b`` to b_1 .. b_n along the triangle.

    Row m takes two prefix sums of the stored diagonal (additions only) and one
    ``Fraction``: the odd diagonal c_(2m-1) from c_(2m-2), then (11') solved for
    b_m with y_(2m) = 0, then c_(2m) with L (-1)^m y_(2m) added to every entry.
    L widens, and the odd diagonal with it, only when b_m's denominator needs it.
    """
    import fractions

    for m in range(len(table.b) + 1, n + 1):
        scale = table.scale
        odd = list(accumulate(table.diagonal, initial=0))
        num = scale + 2 * sum(odd)  # L (1 + 2 c_(2m)[2m]) with y_(2m) = 0
        b = fractions.Fraction(num if m % 2 else -num, 2 * scale * ((1 << (2 * m)) - 1))
        widen = b.denominator // math.gcd(scale, b.denominator)
        if widen > 1:
            scale *= widen
            odd = [widen * c for c in odd]
        y = b.numerator * (scale // b.denominator) * ((1 << (2 * m - 1)) - 1)
        table.diagonal = list(accumulate(odd, initial=-y if m % 2 else y))
        table.scale = scale
        table.b.append(b)


def zeta_even_recursive(n: int, *, table: Table | None = None) -> ZetaEvenValue:
    """zeta(2n) coefficient from the contour recursion."""
    import fractions

    if n < 1:
        raise ValueError("n must be >= 1")
    if table is None:
        table = Table()
    _grow_b(table, n)
    b = table.b[n - 1]
    return ZetaEvenValue(n, fractions.Fraction(b.numerator << (2 * n - 1),
                                               b.denominator * math.factorial(2 * n)))


def _fixed_mul(a: int, a_err: int, b: int, b_err: int, scale: int) -> tuple[int, int]:
    """Product of two nonnegative fixed-point values, with its error bound.

    If |a - x * scale| <= a_err and |b - y * scale| <= b_err, the returned
    (c, c_err) satisfies |c - x * y * scale| <= c_err: the operand errors
    propagate as a*b_err + b*a_err + a_err*b_err, divided by the scale and
    rounded up, and the floor adds less than one unit.
    """
    return a * b // scale, -(-(a * b_err + b * a_err + a_err * b_err) // scale) + 1


def _binary_power(base: tuple[int, int], k: int, scale: int) -> tuple[int, int]:
    """The fixed-point (value, err) pair ``base`` to the power k >= 1, by binary powering."""
    power = None
    while True:
        if k & 1:
            power = base if power is None else _fixed_mul(*power, *base, scale)
        k >>= 1
        if not k:
            return power
        base = _fixed_mul(*base, *base, scale)


def _pi_power_scaled(n: int, precision: int, table: Table) -> tuple[int, int]:
    """(y, err) with |y - pi^(2n) * 10**precision| <= err, walked along the table's rows.

    If ``table`` holds pi^(2m) at this precision with m < n, it is multiplied
    by (pi^2)^(n-m), a single product when n = m + 1; any other request powers
    pi^2 from scratch.  ``pi_scaled`` is asked on every call, with the table's
    pi to serve this precision, so each precision attempt of ``render_decimal``
    makes exactly one call to it (the one perfbench times).  The table then
    holds this precision's pi and power in place of whatever it held.
    """
    scale = 10**precision
    held = table.pi
    v, v_err = pi_scaled(precision, held)
    if held is not None and held[0] == precision and held[3] < n:
        m, y, y_err, *square = held[3:]
        y, y_err = _fixed_mul(y, y_err, *_binary_power(square, n - m, scale), scale)
    else:
        square = _fixed_mul(v, v_err, v, v_err, scale)
        y, y_err = _binary_power(square, n, scale)
    table.pi = (precision, v, v_err, n, y, y_err, *square)
    return y, y_err


def render_decimal(value: ZetaEvenValue, d: int, *, table: Table | None = None) -> str:
    """Decimal expansion of q_n * pi^(2n), truncated to d correct digits.

    ``machin.truncated`` owns the guard policy; this supplies zeta(2n) at
    precision d + guard, starting from ``table.guard`` and storing there the
    guard that settles.  zeta(2n) - 1 ~ 4^-n leaves about 0.6n zeros after
    the point, so the guard a row needs grows with n; carried along a table's
    rows, each guard is reached once instead of through 12, 24, 48, ... on
    every row.  pi^(2n) is built in fixed point at the wider
    precision P = d + guard + 20, from the power ``table`` holds at P times
    (pi^2)^(n-m) when that is pi^(2m) with m < n (one product along a
    table's rows), else by binary powering of pi^2.  Every product
    floor(A*B / 10^P) carries the proven bound

        |floor(A*B / 10^P) - a*b * 10^P| <= ceil((A*eB + B*eA + eA*eB) / 10^P) + 1

    for operands |A - a*10^P| <= eA and |B - b*10^P| <= eB, starting from
    pi's own bound.  A chain of such products adds the operands' relative
    errors, plus one unit of the result each, so either path leaves
    pi^(2n) about n times the relative error of pi^2, which the 20 extra
    digits hide.  With q_n = p/q and the power Y +- eY, the value
    S = floor(p*Y / (q * 10^20)) is within ceil(p*eY / (q * 10^20)) + 1
    last-place units of zeta(2n) * 10^(d+guard).  zeta(2n) * 10^d is
    irrational, so the guard retries terminate, and the digits are the same
    whichever path, whichever table and whichever start guard served them.
    """
    if table is None:
        table = Table()
    p, den = value.coeff.numerator, value.coeff.denominator * 10**20

    def scaled(precision: int) -> tuple[int, int]:
        table.guard = precision - d  # the last guard asked is the one that settled
        y, y_err = _pi_power_scaled(value.n, precision + 20, table)
        return p * y // den, -(-p * y_err // den) + 1

    return truncated(scaled, d, table.guard)
