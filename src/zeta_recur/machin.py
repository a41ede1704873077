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
guard doubled, starting from 12 digits.  The retry loop terminates for an
irrational value, which never lands exactly on a boundary.

Pi is computed once per process at each new widest precision: ``pi_scaled``
keeps the widest ``(precision, v, err)`` it has computed as one immutable
tuple and cuts every narrower request from it.  Readers take the tuple
without a lock, since it is replaced whole and every tuple holds its bound;
only the replacement, a check-then-set that must never narrow the memo,
takes ``_pi_lock``.  Two callers widening it at once may both run the series.
"""

from __future__ import annotations

import threading
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
    terms = 0
    while power > 0:
        term = power // (2 * k + 1)
        if term == 0:
            break
        total += -term if (k & 1) else term
        power //= xx
        k += 1
        terms += 1
    # one unit of slack per floored term, one for series truncation
    return total, terms + 1


# (precision, v, err) of the widest pi computed so far
_pi_widest = (-1, 0, 0)
_pi_lock = threading.Lock()


def pi_scaled(precision: int) -> tuple[int, int]:
    """Return (v, err) with |v - pi * 10**precision| <= err.

    The Machin series runs only for a precision wider than any before; a
    narrower p is cut from the widest (W, V, E) with k = W - p as
    (V // 10**k, ceil(E / 10**k) + 1), since |V / 10**k - pi * 10**p| <= E / 10**k
    and the floor moves it by less than one unit.
    """
    global _pi_widest
    widest, v, err = _pi_widest
    if precision == widest:
        return v, err
    if precision < widest:
        block = 10 ** (widest - precision)
        return v // block, -(-err // block) + 1
    scale = 10**precision
    a5, e5 = _arctan_recip_scaled(5, scale)
    a239, e239 = _arctan_recip_scaled(239, scale)
    v, err = 16 * a5 - 4 * a239, 16 * e5 + 4 * e239
    with _pi_lock:
        if precision > _pi_widest[0]:
            _pi_widest = (precision, v, err)
    return v, err


def truncated(scaled: Callable[[int], tuple[int, int]], d: int) -> str:
    """x truncated (not rounded) to d digits after the point, for irrational 1 < x < 10.

    ``scaled(p)`` returns (v, err) with |v - x * 10**p| <= err.  It is asked
    for p = d + guard with guard = 12, 24, 48, ... until the guard block
    settles floor(x * 10**d).
    """
    if not isinstance(d, int) or isinstance(d, bool):
        raise ValueError("digit count must be an integer")
    if not 1 <= d <= MAX_DIGITS:
        raise ValueError(f"digit count must be in 1..{MAX_DIGITS}, got {d}")

    guard = _GUARD_START
    while True:
        v, err = scaled(d + guard)
        block = 10**guard
        rem = v % block
        if 2 * err < block and err <= rem <= block - err:
            text = decimal_str(v // block)  # == floor(x * 10**d), d+1 characters
            return text[0] + "." + text[1:]
        guard *= 2
