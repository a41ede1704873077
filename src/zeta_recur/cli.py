"""Command-line front end.

    zeta-recur even      --n 10 --digits 10            exact table of zeta(2n)
    zeta-recur bernoulli --n 12                        Bernoulli numbers
    zeta-recur verify <identity> --s 3 --tol 1e-9      one identity check
    zeta-recur contour   --s 2 --radius 30             rectangle side integrals

Defaults: --s 2, --tol 1e-9, --radius 30, --format plain.  `verify` takes
--s only for the identities with an exponent (not eq5, s2 or log2) and
--radius only for closure; a flag the identity does not take is a usage
error.  Exit codes: 0 success, 1 verification failure, 2 usage error or an
input `identities` refuses.
The argument parser is built once, at import, and shared by every `main`
call in the process; parsing leaves no state in it.  `identities` and
`quadrature` are imported by the first verify or contour call, so even and
bernoulli load only the exact core.

`json` is imported only to print --format json.

Output is deterministic: identical argv yields byte-identical stdout.
"""

from __future__ import annotations

import argparse
import math
import sys
from fractions import Fraction

from . import exact
# `even` compares b_n with B_2n instead of calling zeta_even_euler; the name stays
# bound here only because perfbench's tracer wraps it on this module
from .exact import Table, bernoulli, render_decimal, zeta_even_euler, zeta_even_recursive
from .machin import decimal_str

MAX_N = 1000
MAX_DIGITS = 1000
MAX_BERNOULLI = 2000
DEFAULT_S = 2
DEFAULT_RADIUS = 30.0


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (float, complex)):
        return repr(x)
    return str(x)


def _coeff_str(q: Fraction) -> str:
    """str(q) for a q_n in (0, 1), without CPython's cap on int-to-str digits.

    The denominator of q_858 already has more than the default 4300 digits.
    """
    return f"{decimal_str(q.numerator)}/{decimal_str(q.denominator)}"


def _jsonable(x):
    if isinstance(x, complex):
        return {"re": x.real, "im": x.imag}
    return x


def _emit_table(header: list[str], rows: list[list], fmt: str, command: str) -> None:
    if fmt == "json":
        import json

        doc = {"command": command,
               "rows": [dict(zip(header, (_jsonable(v) for v in row))) for row in rows]}
        print(json.dumps(doc, sort_keys=True))
    elif fmt == "csv":
        print(",".join(header))
        for row in rows:
            print(",".join(_fmt(v) for v in row))
    else:
        cells = [header] + [[_fmt(v) for v in row] for row in rows]
        widths = [max(len(line[i]) for line in cells) for i in range(len(header))]
        for line in cells:
            print("  ".join(cell.ljust(w) for cell, w in zip(line, widths)).rstrip())


def _emit_record(fields: list[tuple[str, object]], fmt: str, command: str) -> None:
    if fmt == "json":
        import json

        doc = {"command": command}
        doc.update({k: _jsonable(v) for k, v in fields})
        print(json.dumps(doc, sort_keys=True))
    elif fmt == "csv":
        print(",".join(k for k, _ in fields))
        print(",".join(_fmt(v) for _, v in fields))
    else:
        width = max(len(k) for k, _ in fields)
        for k, v in fields:
            print(f"{k.ljust(width)}  {_fmt(v)}".rstrip())


def cmd_zeta_even(n_max: int, digits: int, fmt: str) -> int:
    """The `even` table: q_n from the recursion, checked against Euler's closed form.

    The recursion stores b_n = 2^(1-2n) (2n)! q_n, and Euler's q_n rescaled
    the same way is (-1)^(n+1) B_(2n), so the two q_n are equal exactly when
    those two numbers are, sign included.  B_(2n) comes from the tangent
    numbers, which never enter the recursion.  It is looked up on `exact` at
    call time, so rebinding it there (as a tracer does) takes effect.
    """
    table = Table()
    rows = []
    for n in range(1, n_max + 1):
        recursive = zeta_even_recursive(n, table=table)
        euler = exact.bernoulli(2 * n, table=table)
        equal = table.b[n - 1] == (euler if n % 2 else -euler)
        zeta = render_decimal(recursive, digits, table=table)
        rows.append([n, _coeff_str(recursive.coeff), equal, zeta])
    _emit_table(["n", "coeff", "equal", "zeta"], rows, fmt, "even")
    return 0 if all(r[2] for r in rows) else 1


def cmd_bernoulli(m_max: int, fmt: str) -> int:
    table = Table()
    rows = [[m, str(bernoulli(m, table=table))] for m in range(m_max + 1)]
    _emit_table(["m", "B_m"], rows, fmt, "bernoulli")
    return 0


def _report_fields(report) -> list[tuple[str, object]]:
    """The record of an ``identities.IdentityReport``."""
    return [
        ("identity", report.identity_id.value),
        ("s", report.s),
        ("lhs", report.lhs),
        ("rhs", report.rhs),
        ("residual", report.residual),
        ("tolerance", report.tolerance),
        ("passed", report.passed),
        ("note", report.note),
    ]


def _contour_fields(report) -> list[tuple[str, object]]:
    """The record of an ``identities.ContourReport``."""
    names = ("bottom", "right", "top", "left")
    fields: list[tuple[str, object]] = [("s", report.s), ("radius", report.R)]
    fields += list(zip(names, report.side_values))
    fields += [
        ("closure", report.closure),
        ("closure_magnitude", report.residual),
        ("right_side_magnitude", report.right_side_magnitude),
        ("error_estimate", report.error_estimate),
        ("evaluations", report.evaluations),
        ("converged", report.converged),
        ("tolerance", report.tolerance),
        ("note", report.note),
        ("passed", report.passed),  # the verdict stays the record's last line
    ]
    return fields


# `verify` identity -> (its check in `identities`, the flags the check takes
# before --tol); `contour` runs closure.  The check is looked up on the module
# at call time, so rebinding it there (as a tracer does) takes effect
_CHECKS = {
    "eq2": ("verify_bose_integral", ("s",)),
    "eq5": ("verify_eq5", ()),
    "eq7": ("verify_fermi_integral", ("s",)),
    "closure": ("contour_closure", ("s", "radius")),
    "eq9": ("verify_eq9", ("s",)),
    "s2": ("verify_zeta2", ()),
    "log2": ("verify_log2_identity", ()),
    "eq10": ("expanded_real_identity", ("s",)),
    "odd": ("verify_odd_zeta", ("s",)),
}
_FLAG_DEFAULTS = {"s": DEFAULT_S, "radius": DEFAULT_RADIUS}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zeta-recur",
        description="Exact zeta(2n) tables and numerical verification of the "
                    "contour identities behind them.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("plain", "json", "csv"), default="plain",
                        help="output format (default: plain)")

    sub = parser.add_subparsers(dest="command", required=True)

    even = sub.add_parser("even", parents=[common],
                          help="table of zeta(2n): exact coefficient, recursion==Euler, decimal")
    even.add_argument("--n", type=int, default=10, help=f"largest n, 1..{MAX_N} (default: 10)")
    even.add_argument("--digits", type=int, default=10,
                      help=f"decimal digits, 1..{MAX_DIGITS} (default: 10)")

    bern = sub.add_parser("bernoulli", parents=[common], help="table of Bernoulli numbers")
    bern.add_argument("--n", type=int, default=10,
                      help=f"largest index, 0..{MAX_BERNOULLI} (default: 10)")

    verify = sub.add_parser("verify", parents=[common], help="check one identity")
    # --s and --radius are absent from the parsed args unless given
    without_s = ", ".join(i for i, (_, flags) in _CHECKS.items() if "s" not in flags)
    verify.add_argument("identity", choices=_CHECKS)
    verify.add_argument("--s", type=int, default=argparse.SUPPRESS,
                        help=f"integer exponent, not for {without_s} (default: {DEFAULT_S})")
    verify.add_argument("--tol", type=float, default=1e-9, help="tolerance (default: 1e-9)")
    verify.add_argument("--radius", type=float, default=argparse.SUPPRESS,
                        help=f"rectangle extent R, closure only (default: {DEFAULT_RADIUS:g})")

    contour = sub.add_parser("contour", parents=[common],
                             help="rectangle contour study: four sides and their sum")
    contour.add_argument("--s", type=int, default=DEFAULT_S,
                         help=f"integer exponent (default: {DEFAULT_S})")
    contour.add_argument("--radius", type=float, default=DEFAULT_RADIUS,
                         help=f"rectangle extent R (default: {DEFAULT_RADIUS:g})")
    contour.add_argument("--tol", type=float, default=1e-9, help="closure tolerance (default: 1e-9)")

    return parser


_PARSER = _build_parser()


def main(argv: list[str] | None = None) -> int:
    parser = _PARSER
    args = parser.parse_args(argv)

    if args.command == "even":
        if not 1 <= args.n <= MAX_N:
            parser.error(f"--n must be in 1..{MAX_N}")
        if not 1 <= args.digits <= MAX_DIGITS:
            parser.error(f"--digits must be in 1..{MAX_DIGITS}")
        return cmd_zeta_even(args.n, args.digits, args.format)

    if args.command == "bernoulli":
        if not 0 <= args.n <= MAX_BERNOULLI:
            parser.error(f"--n must be in 0..{MAX_BERNOULLI}")
        return cmd_bernoulli(args.n, args.format)

    # verify and contour (the closure check); `identities` decides what it accepts
    identity = "closure" if args.command == "contour" else args.identity
    name, flags = _CHECKS[identity]
    for flag in _FLAG_DEFAULTS:
        if flag in vars(args) and flag not in flags:
            parser.error(f"verify {identity} takes no --{flag}")
    values = {flag: getattr(args, flag, _FLAG_DEFAULTS[flag]) for flag in flags}
    values["tol"] = args.tol
    if not 0.0 < args.tol < math.inf:
        parser.error(f"--tol must be finite and > 0, got {args.tol!r}")
    from . import identities

    try:
        report = getattr(identities, name)(*values.values())
    except identities.Refused as exc:
        parser.error(str(exc))
    fields = _contour_fields(report) if identity == "closure" else _report_fields(report)
    _emit_record(fields, args.format, args.command)
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
