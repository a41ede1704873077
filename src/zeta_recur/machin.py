"""Digits of pi in arbitrary-precision integer fixed point.

Everything here works on integers: a value ``v`` at precision ``p``
represents ``v / 10**p``.  Pi comes from the Machin combination

    pi = 16*arctan(1/5) - 4*arctan(1/239)

with each arctangent summed by its alternating series in floored integer
arithmetic, so the total error is provable: every floored term is short by
less than one unit, truncating the alternating series costs less than one
more unit, and the Machin coefficients scale those counts.

Guard-digit policy for truncated decimal output, owned by ``truncated``
(pi to d digits is ``truncated(pi_scaled, d)``) and used by
``exact.render_decimal``: compute with ``guard`` digits beyond the request
and keep the proven error bound ``err`` in last-place units.  Accept the
truncation only when the discarded guard block sits at least ``err`` units
away from both the borrow and the carry boundary; otherwise retry with the
guard doubled, starting from the caller's guard (12 digits by default).  Any
guard that passes the test settles the same digits, so where the loop starts
changes its cost, never its result.  The retry loop terminates for an
irrational value, which never lands exactly on a boundary.

``pi_scaled`` keeps nothing: a caller that holds pi at some precision (as
``exact.Table`` does) passes it, and it serves a request at that precision;
any other request runs the series.
"""

from __future__ import annotations

from collections.abc import Callable

MAX_DIGITS = 100_000

_GUARD_START = 12

_CHUNK_DIGITS = 4000
_CHUNK = 10**_CHUNK_DIGITS


def decimal_str(n: int) -> str:
    """str() for nonnegative ints of any size.

    CPython caps direct int-to-str conversion (default 4300 digits); convert
    in 4000-digit chunks instead of touching the interpreter-wide limit.
    """
    if n < _CHUNK:
        return str(n)
    parts = []
    while n >= _CHUNK:
        n, rem = divmod(n, _CHUNK)
        parts.append(str(rem).zfill(_CHUNK_DIGITS))
    parts.append(str(n))
    return "".join(reversed(parts))


def _arctan_recip_scaled(x: int, scale: int) -> tuple[int, int]:
    """Floored fixed-point sum of arctan(1/x), with its error bound in units.

    Nested floor divisions by integers compose exactly, so ``power`` is
    floor(scale / x**(2k+1)) at step k and each emitted term is the exact
    floor of the true series term.
    """
    power = scale // x
    xx = x * x
    total = 0
    k = 0
    while power > 0:
        term = power // (2 * k + 1)
        if term == 0:
            break
        total += -term if (k & 1) else term
        power //= xx
        k += 1
    # one unit of slack per floored term, one for series truncation
    return total, k + 1


def pi_scaled(precision: int, held: tuple[int, ...] | None = None) -> tuple[int, int]:
    """Return (v, err) with |v - pi * 10**precision| <= err.

    ``held`` starts with the caller's own (P, V, E) with |V - pi * 10**P| <= E.
    It serves p = P as it stands; any other precision runs the Machin series.
    """
    if held is not None and held[0] == precision:
        return held[1], held[2]
    scale = 10**precision
    a5, e5 = _arctan_recip_scaled(5, scale)
    a239, e239 = _arctan_recip_scaled(239, scale)
    return 16 * a5 - 4 * a239, 16 * e5 + 4 * e239


def truncated(scaled: Callable[[int], tuple[int, int]], d: int, guard: int = _GUARD_START) -> str:
    """x truncated (not rounded) to d digits after the point, for irrational 1 < x < 10.

    ``scaled(p)`` returns (v, err) with |v - x * 10**p| <= err.  It is asked
    for p = d + guard with guard = g, 2g, 4g, ... from the given start g
    until the guard block settles floor(x * 10**d).
    """
    if not isinstance(d, int) or isinstance(d, bool):
        raise ValueError("digit count must be an integer")
    if not 1 <= d <= MAX_DIGITS:
        raise ValueError(f"digit count must be in 1..{MAX_DIGITS}, got {d}")

    while True:
        v, err = scaled(d + guard)
        block = 10**guard
        rem = v % block
        if 2 * err < block and err <= rem <= block - err:
            text = decimal_str(v // block)  # == floor(x * 10**d), d+1 characters
            return text[0] + "." + text[1:]
        guard *= 2
