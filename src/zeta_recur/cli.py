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
Each command's flags are written once, in `_COMMANDS`.  `main` first reads
a plain argv from that table: an exact command, its positional, then exact
`--flag value` pairs, each flag once and no value starting with "-",
converted and checked by each flag's type and choices.  Anything else (help,
abbreviations, --flag=value, a repeat, a missing value, a failed conversion
or choice) goes to argparse, which parses it and writes its usage error or
help.  The parser is built from the same table on first need, and shared by
every later call; parsing leaves no state in it.  So argparse (with gettext
and locale) is imported only by such an argv or by a usage error found after
parsing (a range, a flag the identity does not take, a refusal), which
writes the bytes `parser.error` would, with the usage line formatted once per
terminal width.  `identities` and
`quadrature` are imported by the first verify or contour call, so even and
bernoulli load only the exact core.

`json` is imported only to print --format json, `fractions` by the exact
core's first rational (even, bernoulli and eq10), and `random` only by eq5,
so --help, contour and every other verify load none of them.

Output is deterministic: identical argv yields byte-identical stdout.
"""

from __future__ import annotations

import functools
import sys
from types import SimpleNamespace

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


@functools.cache
def _json_encode():
    """What `json.dumps(doc, sort_keys=True)` does, with one encoder for the
    process, built by the first json print: the output is the same, as a
    record holds no container that could refer to itself."""
    import json

    return json.JSONEncoder(sort_keys=True, check_circular=False).encode


def _emit_table(header: list[str], rows: list[list], fmt: str, command: str) -> None:
    if fmt == "json":
        doc = {"command": command,
               "rows": [dict(zip(header, (_jsonable(v) for v in row))) for row in rows]}
        print(_json_encode()(doc))
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
        doc = {"command": command}
        for k, v in fields:
            doc[k] = {"re": v.real, "im": v.imag} if isinstance(v, complex) else v
        print(_json_encode()(doc))
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


def _report_fields(report, passed: bool) -> list[tuple[str, object]]:
    """The record of an ``identities.IdentityReport`` whose verdict is ``passed``."""
    return [
        ("identity", report.identity_id.value),
        ("s", report.s),
        ("lhs", report.lhs),
        ("rhs", report.rhs),
        ("residual", report.residual),
        ("tolerance", report.tolerance),
        ("passed", passed),
        ("note", report.note),
    ]


def _contour_fields(report, passed: bool) -> list[tuple[str, object]]:
    """The record of an ``identities.ContourReport`` whose verdict is ``passed``."""
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
        ("passed", passed),  # the verdict stays the record's last line
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
_WITHOUT_S = ", ".join(i for i, (_, flags) in _CHECKS.items() if "s" not in flags)
_FORMAT = {"format": (None, ("plain", "json", "csv"), "plain", "output format (default: plain)")}

# Each command's flag facts, which `_plain_args` and `_parser` both read: its
# help, its positional (name, choices) or None, and per flag, by dest, its
# type, choices, default and help.  A default of None leaves the flag out of
# the parsed args unless given.
_COMMANDS = {
    "even": ("table of zeta(2n): exact coefficient, recursion==Euler, decimal", None, {
        **_FORMAT,
        "n": (int, None, 10, f"largest n, 1..{MAX_N} (default: 10)"),
        "digits": (int, None, 10, f"decimal digits, 1..{MAX_DIGITS} (default: 10)")}),
    "bernoulli": ("table of Bernoulli numbers", None, {
        **_FORMAT,
        "n": (int, None, 10, f"largest index, 0..{MAX_BERNOULLI} (default: 10)")}),
    "verify": ("check one identity", ("identity", _CHECKS), {
        **_FORMAT,
        "s": (int, None, None, f"integer exponent, not for {_WITHOUT_S} (default: {DEFAULT_S})"),
        "tol": (float, None, 1e-9, "tolerance (default: 1e-9)"),
        "radius": (float, None, None,
                   f"rectangle extent R, closure only (default: {DEFAULT_RADIUS:g})")}),
    "contour": ("rectangle contour study: four sides and their sum", None, {
        **_FORMAT,
        "s": (int, None, DEFAULT_S, f"integer exponent (default: {DEFAULT_S})"),
        "radius": (float, None, DEFAULT_RADIUS,
                   f"rectangle extent R (default: {DEFAULT_RADIUS:g})"),
        "tol": (float, None, 1e-9, "closure tolerance (default: 1e-9)")}),
}


@functools.cache
def _parser():
    """The argument parser, built from `_COMMANDS` by the first argv that needs it."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="zeta-recur",
        description="Exact zeta(2n) tables and numerical verification of the "
                    "contour identities behind them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (summary, positional, flags) in _COMMANDS.items():
        subparser = sub.add_parser(command, help=summary)
        if positional is not None:
            subparser.add_argument(positional[0], choices=positional[1])
        for dest, (kind, choices, default, text) in flags.items():
            subparser.add_argument(f"--{dest}", type=kind, choices=choices, help=text,
                                   default=argparse.SUPPRESS if default is None else default)
    return parser


def _plain_args(argv: list[str]) -> SimpleNamespace | None:
    """What `_parser().parse_args(argv)` returns for an argv in plain form, else None.

    The plain form is an exact command name, then its positional if it takes
    one, then exact `--flag value` pairs, each flag at most once and no value
    starting with "-".  Each value goes through its flag's type and choices,
    and every flag not given takes its default.  For any other argv, or a
    value its flag rejects, this returns None: argparse then parses the argv
    and writes any usage error or help.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, positional, flags = _COMMANDS[argv[0]]
    rest = argv[1:]
    given = []
    if positional is not None:
        if not rest:
            return None
        given.append((positional[0], None, positional[1], rest[0]))
        rest = rest[1:]
    keys = rest[::2]
    if len(rest) % 2 or len(set(keys)) < len(keys):  # a flag without a value, or repeated
        return None
    for key, value in zip(keys, rest[1::2]):
        if key[:2] != "--" or key[2:] not in flags:  # not an exact flag
            return None
        given.append((key[2:], *flags[key[2:]][:2], value))
    args = {dest: facts[2] for dest, facts in flags.items() if facts[2] is not None}
    args["command"] = argv[0]
    for dest, kind, choices, value in given:
        if value.startswith("-"):  # a value like a flag
            return None
        if kind is not None:
            try:
                value = kind(value)
            except (TypeError, ValueError):
                return None
        if choices is not None and value not in choices:
            return None
        args[dest] = value
    return SimpleNamespace(**args)


@functools.cache
def _usage_lines(columns: int) -> tuple[str, str]:
    """The usage line `_parser()` formats at this terminal width, and the
    template argparse's `error` writes, translated by the process's catalogue."""
    from gettext import gettext

    return _parser().format_usage(), gettext("%(prog)s: error: %(message)s\n")


def _usage_error(message: str):
    """Exit 2 after writing to stderr what `_parser().error(message)` writes.

    argparse formats the usage line on every error.  For a fixed parser it
    depends on the terminal width its HelpFormatter reads, so it is formatted
    once per width; the catalogue that translates its "usage: " and the error
    template is taken as fixed for the process.
    """
    import shutil

    usage, template = _usage_lines(shutil.get_terminal_size().columns)
    text = template % {"prog": _parser().prog, "message": message}
    try:
        sys.stderr.write(usage + text)
    except (AttributeError, OSError):  # as argparse: no stderr, or a closed one
        pass
    sys.exit(2)


@functools.cache
def _identities():
    """The `identities` module, imported by the first verify or contour call."""
    from . import identities

    return identities


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _plain_args(argv) or _parser().parse_args(argv)

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
    identities = _identities()
    try:
        report = getattr(identities, name)(*values.values())
    except identities.Refused as exc:
        _usage_error(str(exc))
    passed = report.passed
    fields = (_contour_fields if identity == "closure" else _report_fields)(report, passed)
    _emit_record(fields, args.format, args.command)
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
