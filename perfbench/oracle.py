"""Independent oracle for the benchmark: mpmath and the standard library only.

Nothing here imports zeta_recur, so a defect in the package cannot hide
behind the check that is meant to catch it.  Every check returns a list of
problems; an empty list means the output agrees with the oracle.
"""

from __future__ import annotations

import math
from fractions import Fraction

from mpmath import mp, mpc, mpf

# decimal digits the oracle carries beyond the ones the CLI prints, at first
ORACLE_GUARD = 30
# zeta(2n) - 1 ~ 4^-n needs about 0.6n guard digits; this covers n past 3000
MAX_ORACLE_GUARD = 3840
# digits d+1..d+GUARD_BLOCK are the ones render_decimal starts with as guard
GUARD_BLOCK = 12
# precision of the closed forms behind the verify checks
VERIFY_DPS = 30


def q_coeff(n: int) -> Fraction:
    """q_n with zeta(2n) = q_n pi^(2n), from mpmath's Bernoulli numbers."""
    b = Fraction(*mp.bernfrac(2 * n))
    sign = 1 if n % 2 else -1
    return sign * b * 2 ** (2 * n - 1) / math.factorial(2 * n)


def truncation(n: int, digits: int) -> tuple[int, mpf]:
    """floor(x) and x - floor(x) for x = zeta(2n) * 10^digits, from mp.zeta.

    x ~ 10^digits is computed at digits + guard places, so it is off by about
    10^-guard in absolute terms; the floor is taken as settled once x +- 10^-(guard-5)
    have the same floor, which every digit of the truncation must agree with.
    Near 10^digits the first ~0.6n - digits places of the fraction are zero
    (zeta(2n) - 1 ~ 4^-n), so the guard doubles until the fraction is resolved.
    """
    guard = ORACLE_GUARD
    while guard <= MAX_ORACLE_GUARD:
        with mp.workdps(digits + guard):
            x = mp.zeta(2 * n) * mpf(10) ** digits
            slack = mpf(10) ** -(guard - 5)
            floor = int(mp.floor(x - slack))
            if floor == int(mp.floor(x + slack)):
                return floor, x - floor
        guard *= 2
    raise ArithmeticError(f"floor(zeta({2 * n}) * 10^{digits}) not settled at {guard} guard digits")


class EvenOracle:
    """Expected rows of `zeta-recur even --n n_max --digits digits`.

    For each n it keeps q_n exactly and the one integer that may be printed as
    zeta(2n) truncated to `digits` places, floor(zeta(2n) * 10^digits); see
    `truncation`.
    """

    def __init__(self, n_max: int, digits: int):
        self.n_max = n_max
        self.digits = digits
        self.q = [q_coeff(n) for n in range(1, n_max + 1)]
        self.truncations: list[int] = []
        zero_rows = 0
        for n in range(1, n_max + 1):
            floor, fraction = truncation(n, digits)
            self.truncations.append(floor)
            if fraction < mpf(10) ** -GUARD_BLOCK:
                zero_rows += 1
        # share of rows whose digits d+1..d+12 are all zero, where
        # render_decimal's first guard block cannot settle the truncation
        self.guard_zero_share = zero_rows / n_max

    def check(self, doc) -> tuple[list[str], int]:
        """Problems in one parsed `even --format json` document, and its equal rows."""
        try:
            rows = doc["rows"]
        except (TypeError, KeyError):
            return ["no rows"], 0
        if [row.get("n") for row in rows] != list(range(1, self.n_max + 1)):
            return [f"rows are not n = 1..{self.n_max}"], 0
        problems = []
        equal_rows = 0
        for row, q, floor in zip(rows, self.q, self.truncations):
            n = row["n"]
            if row.get("equal") is True:
                equal_rows += 1
            elif row.get("equal") is not False:
                problems.append(f"n={n}: equal is {row.get('equal')!r}")
            try:
                coeff = Fraction(row["coeff"])
            except (KeyError, TypeError, ValueError, ZeroDivisionError):
                problems.append(f"n={n}: coeff does not parse")
            else:
                if coeff != q:
                    problems.append(f"n={n}: coeff differs from the Bernoulli closed form")
            text = row.get("zeta")
            head, dot, tail = text.partition(".") if isinstance(text, str) else ("", "", "")
            if not (dot and head.isdigit() and tail.isdigit() and len(tail) == self.digits):
                problems.append(f"n={n}: zeta {text!r} is not a {self.digits}-place decimal")
            elif int(head + tail) != floor:
                problems.append(f"n={n}: zeta {text} is not the truncation of mp.zeta")
        return problems, equal_rows


def _flag(argv: list[str], name: str, default: float) -> float:
    return float(argv[argv.index(name) + 1]) if name in argv else default


def _number(field):
    """A JSON number or the {"re", "im"} object the CLI writes for complex values."""
    if isinstance(field, dict):
        return mpc(field["re"], field["im"])
    return mpf(field)


class VerifyOracle:
    """mpmath closed forms for the values a passing `verify`/`contour` reports.

    A passing report claims its values are right to within its tolerance, so
    each value it prints is checked against the closed form with that bound.
    Closed forms depend only on s (and R for the contour's bottom side), so
    the ones that need quadrature are cached per s.
    """

    def __init__(self):
        self._by_s: dict[tuple[str, int], mpf | mpc] = {}

    def _cached(self, key: str, s: int, compute):
        if (key, s) not in self._by_s:
            with mp.workdps(VERIFY_DPS):
                self._by_s[key, s] = compute(s)
        return self._by_s[key, s]

    @staticmethod
    def _gamma_zeta(s: int):
        return mp.gamma(s) * mp.zeta(s)

    @staticmethod
    def _fermi(s: int):
        return (1 - mpf(2) ** (1 - s)) * mp.gamma(s) * mp.zeta(s)

    def _eq10(self, s: int):
        """Gamma(s)zeta(s) + sum_{j even} C(s-1,j) (-1)^(j/2) pi^j F(j), F from closed forms."""
        total = self._gamma_zeta(s)
        for j in range(0, s, 2):
            f_j = mp.log(2) if j == s - 1 else self._fermi(s - j)
            total += math.comb(s - 1, j) * (-1) ** (j // 2) * mp.pi**j * f_j
        return total

    @staticmethod
    def _eq9_c(s: int):
        """C = i int_0^pi (iy)^(s-1)/(e^(iy)-1) dy."""
        return 1j * mp.quad(lambda y: (1j * y) ** (s - 1) / mp.expm1(1j * y), [0, mp.pi])

    @staticmethod
    def _bottom(s: int, radius: float):
        """int_0^R x^(s-1)/(e^x-1) dx = Gamma(s)zeta(s) - sum_k Gamma(s, kR)/k^s."""
        with mp.workdps(VERIFY_DPS):
            tail = mpf(0)
            k = 1
            while True:
                term = mp.gammainc(s, k * mpf(radius)) / mpf(k) ** s
                tail += term
                if term <= mpf(10) ** -VERIFY_DPS * tail:
                    return mp.gamma(s) * mp.zeta(s) - tail
                k += 1

    def check(self, argv: list[str], doc) -> list[str]:
        """Problems in the parsed JSON report of a `verify` or `contour` op that passed."""
        tol = _flag(argv, "--tol", 1e-9)
        s = int(_flag(argv, "--s", 2))
        ident = "contour" if argv[0] == "contour" else argv[1]
        if ident in ("contour", "closure"):
            radius = _flag(argv, "--radius", 30.0)
            expect = {"closure": 0, "bottom": self._bottom(s, radius)}
        elif ident == "eq5":
            expect = {"lhs": 0}
        elif ident == "eq2":
            expect = {"lhs": self._cached("gz", s, self._gamma_zeta)}
        elif ident == "eq7":
            expect = {"lhs": self._cached("fermi", s, self._fermi)}
        elif ident == "odd":
            expect = {"lhs": self._cached("zeta", s, mp.zeta)}
        elif ident == "s2":
            expect = {"lhs": self._cached("pi2/6", 2, lambda _: mp.pi**2 / 6)}
        elif ident == "log2":
            value = self._cached("pi ln2", 2, lambda _: mp.pi * mp.log(2))
            expect = {"lhs": value, "rhs": value}
        elif ident == "eq10":
            value = self._cached("eq10", s, self._eq10)
            expect = {"lhs": value, "rhs": value}
        elif ident == "eq9":
            value = self._cached("eq9", s, self._eq9_c)
            expect = {"lhs": value, "rhs": value}
        else:
            return [f"no oracle for {ident!r}"]
        problems = []
        with mp.workdps(VERIFY_DPS):
            for field, want in expect.items():
                try:
                    got = _number(doc[field])
                except (KeyError, TypeError, ValueError):
                    problems.append(f"{field} missing or not a number")
                    continue
                if not abs(got - want) <= tol:
                    problems.append(f"{field} = {got} is {mp.nstr(abs(got - want), 3)} "
                                    f"from the closed form, beyond tol {tol:g}")
        return problems
