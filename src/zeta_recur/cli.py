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
call in the process; parsing leaves no state in it.  `main` first reads a
plain argv itself: an exact command, its positional, then exact `--flag
value` pairs, each flag once and no value starting with "-", converted and
checked by the parser's own actions.  Anything else (help, abbreviations,
--flag=value, a repeat, a missing value, a failed conversion or choice) goes
to argparse, which parses it and writes its usage error or help.  A usage
error found after parsing (a range, a flag the identity does not take, a
refusal) writes the bytes `parser.error` would, with the usage line formatted
once per terminal width.  `identities` and
`quadrature` are imported by the first verify or contour call, so even and
bernoulli load only the exact core.

`json` is imported only to print --format json, `fractions` by the exact
core's first rational (even, bernoulli and eq10), and `random` only by eq5,
so --help, contour and every other verify load none of them.

Output is deterministic: identical argv yields byte-identical stdout.
"""

from __future__ import annotations

import argparse
import math
import sys

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


def _coeff_str(q) -> str:
    """str(q) for a q_n in (0, 1), a `fractions.Fraction`, without CPython's cap
    on int-to-str digits.

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


def _build_parser():
    """The parser, and per command what `_plain_args` reads from its actions.

    Each command maps to its positional action (or None), its options by flag
    and the namespace argparse starts from: the command and each default that
    is not SUPPRESS.  The actions are the ones `add_argument` returned;
    `--format` is `common`'s, which every subparser shares.
    """
    parser = argparse.ArgumentParser(
        prog="zeta-recur",
        description="Exact zeta(2n) tables and numerical verification of the "
                    "contour identities behind them.",
    )
    common = argparse.ArgumentParser(add_help=False)
    fmt = common.add_argument("--format", choices=("plain", "json", "csv"), default="plain",
                              help="output format (default: plain)")

    sub = parser.add_subparsers(dest="command", required=True)
    actions: dict[str, list[argparse.Action]] = {}

    even = sub.add_parser("even", parents=[common],
                          help="table of zeta(2n): exact coefficient, recursion==Euler, decimal")
    actions["even"] = [
        even.add_argument("--n", type=int, default=10, help=f"largest n, 1..{MAX_N} (default: 10)"),
        even.add_argument("--digits", type=int, default=10,
                          help=f"decimal digits, 1..{MAX_DIGITS} (default: 10)"),
    ]

    bern = sub.add_parser("bernoulli", parents=[common], help="table of Bernoulli numbers")
    actions["bernoulli"] = [
        bern.add_argument("--n", type=int, default=10,
                          help=f"largest index, 0..{MAX_BERNOULLI} (default: 10)"),
    ]

    verify = sub.add_parser("verify", parents=[common], help="check one identity")
    # --s and --radius are absent from the parsed args unless given
    without_s = ", ".join(i for i, (_, flags) in _CHECKS.items() if "s" not in flags)
    actions["verify"] = [
        verify.add_argument("identity", choices=_CHECKS),
        verify.add_argument("--s", type=int, default=argparse.SUPPRESS,
                            help=f"integer exponent, not for {without_s} (default: {DEFAULT_S})"),
        verify.add_argument("--tol", type=float, default=1e-9, help="tolerance (default: 1e-9)"),
        verify.add_argument("--radius", type=float, default=argparse.SUPPRESS,
                            help=f"rectangle extent R, closure only (default: {DEFAULT_RADIUS:g})"),
    ]

    contour = sub.add_parser("contour", parents=[common],
                             help="rectangle contour study: four sides and their sum")
    actions["contour"] = [
        contour.add_argument("--s", type=int, default=DEFAULT_S,
                             help=f"integer exponent (default: {DEFAULT_S})"),
        contour.add_argument("--radius", type=float, default=DEFAULT_RADIUS,
                             help=f"rectangle extent R (default: {DEFAULT_RADIUS:g})"),
        contour.add_argument("--tol", type=float, default=1e-9,
                             help="closure tolerance (default: 1e-9)"),
    ]

    commands = {}
    for command, taken in actions.items():
        taken.append(fmt)
        positional = [action for action in taken if not action.option_strings]
        options = {flag: action for action in taken for flag in action.option_strings}
        defaults = {action.dest: action.default for action in taken
                    if action.default is not argparse.SUPPRESS}
        commands[command] = (positional[0] if positional else None, options,
                             {sub.dest: command, **defaults})
    return parser, commands


_PARSER, _COMMANDS = _build_parser()
# _PARSER.format_usage() per terminal width, filled by the first usage error at each
_USAGE: dict[int, str] = {}


def _plain_args(argv: list[str]) -> argparse.Namespace | None:
    """What `_PARSER.parse_args(argv)` returns for an argv in plain form, else None.

    The plain form is an exact command name, then its positional if it takes
    one, then exact `--flag value` pairs, each flag at most once and no value
    starting with "-".  Each value goes through its action's `type` and
    `choices`, and every action not given takes its default.  For any other
    argv, or a value its action rejects, this returns None: argparse then
    parses the argv and writes any usage error or help.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    positional, options, defaults = _COMMANDS[argv[0]]
    rest = argv[1:]
    given = []
    if positional is not None:
        if not rest:
            return None
        given.append((positional, rest[0]))
        rest = rest[1:]
    flags = rest[::2]
    if len(rest) % 2 or len(set(flags)) < len(flags):  # a flag without a value, or repeated
        return None
    given += [(options.get(flag), value) for flag, value in zip(flags, rest[1::2])]
    args = dict(defaults)
    for action, value in given:
        if action is None or value.startswith("-"):  # not an exact flag, or a value like one
            return None
        if action.type is not None:
            try:
                value = action.type(value)
            except (TypeError, ValueError):
                return None
        if action.choices is not None and value not in action.choices:
            return None
        args[action.dest] = value
    return argparse.Namespace(**args)


def _usage_error(message: str):
    """Exit 2 after writing to stderr what `_PARSER.error(message)` writes.

    argparse formats the usage line on every error.  For a fixed parser it
    depends on the terminal width its HelpFormatter reads, so it is formatted
    once per width; the catalogue that translates its "usage: " is taken as
    fixed for the process.
    """
    import shutil
    from gettext import gettext

    columns = shutil.get_terminal_size().columns
    usage = _USAGE.get(columns)
    if usage is None:
        usage = _USAGE[columns] = _PARSER.format_usage()
    text = gettext("%(prog)s: error: %(message)s\n") % {"prog": _PARSER.prog, "message": message}
    try:
        sys.stderr.write(usage + text)
    except (AttributeError, OSError):  # as argparse: no stderr, or a closed one
        pass
    sys.exit(2)


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _plain_args(argv) or _PARSER.parse_args(argv)

    if args.command == "even":
        if not 1 <= args.n <= MAX_N:
            _usage_error(f"--n must be in 1..{MAX_N}")
        if not 1 <= args.digits <= MAX_DIGITS:
            _usage_error(f"--digits must be in 1..{MAX_DIGITS}")
        return cmd_zeta_even(args.n, args.digits, args.format)

    if args.command == "bernoulli":
        if not 0 <= args.n <= MAX_BERNOULLI:
            _usage_error(f"--n must be in 0..{MAX_BERNOULLI}")
        return cmd_bernoulli(args.n, args.format)

    # verify and contour (the closure check); `identities` decides what it accepts
    identity = "closure" if args.command == "contour" else args.identity
    name, flags = _CHECKS[identity]
    for flag in _FLAG_DEFAULTS:
        if flag in vars(args) and flag not in flags:
            _usage_error(f"verify {identity} takes no --{flag}")
    values = {flag: getattr(args, flag, _FLAG_DEFAULTS[flag]) for flag in flags}
    values["tol"] = args.tol
    if not 0.0 < args.tol < math.inf:
        _usage_error(f"--tol must be finite and > 0, got {args.tol!r}")
    from . import identities

    try:
        report = getattr(identities, name)(*values.values())
    except identities.Refused as exc:
        _usage_error(str(exc))
    fields = _contour_fields(report) if identity == "closure" else _report_fields(report)
    _emit_record(fields, args.format, args.command)
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
