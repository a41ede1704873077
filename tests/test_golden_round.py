"""A golden seeded round: 500 verify and contour calls through ``cli.main``, each
pinned by the sha256 of its argv, exit code and stdout.

The round is drawn here from its own seed, over every identity and across
each one's accepted s, tol from 1e-17 to 1e-2, radii from 1e-3 to 700 and all
three output formats, so that it reaches refusals, failures and passes alike.
The tol of every check with an s but odd is scaled by (s-1)!, about the size
of its sides, so that large s is not all refusals or failures.
A change meant to leave the CLI's output byte-identical must leave every
digest as it is.  Stderr is not pinned: a refusal's message may be reworded.

``golden_round.txt`` holds one line per op, "<exit code> <sha256>", written by

    PYTHONPATH=src python tests/test_golden_round.py > tests/golden_round.txt

and equal under Python 3.10, 3.11, 3.12 and 3.13.  This module imports only
the standard library and the package, so it runs without pytest.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from pathlib import Path

from zeta_recur import cli

GOLDEN = Path(__file__).with_name("golden_round.txt")

# ops per identity in the round; eq5 ignores its arguments, so it appears once
_COUNTS = (("eq2", 70), ("eq7", 70), ("closure", 60), ("eq9", 60), ("eq10", 70),
           ("odd", 60), ("contour", 70), ("s2", 20), ("log2", 19), ("eq5", 1))
# the s each identity is drawn from: its accepted range, or for the contour
# checks 2..40, where pi |R + i pi|^(s-1) fits a double at every drawn radius
_S = {"eq2": (2, 108), "eq7": (2, 108), "eq9": (2, 108), "eq10": (2, 171),
      "odd": (3, 171), "closure": (2, 40), "contour": (2, 40)}


def round_argv(seed: str = "golden-round") -> list[list[str]]:
    """The argv of the round's 500 ops, in order."""
    rng = random.Random(seed)
    idents = [ident for ident, count in _COUNTS for _ in range(count)]
    rng.shuffle(idents)
    ops = []
    for ident in idents:
        argv = ["contour"] if ident == "contour" else ["verify", ident]
        scale = 1.0
        if ident in _S:
            lo, hi = _S[ident]
            s = rng.randrange(lo, hi + 1, 2) if ident == "odd" else rng.randint(lo, hi)
            argv += ["--s", str(s)]
            if ident != "odd":
                scale = float(math.factorial(s - 1))
        if ident in ("closure", "contour"):
            argv += ["--radius", repr(float(f"{10.0 ** rng.uniform(-3.0, 2.845):.4g}"))]
        argv += ["--tol", repr(10.0 ** rng.uniform(-17.0, -2.0) * scale),
                 "--format", rng.choice(("json", "json", "plain", "csv"))]
        ops.append(argv)
    return ops


def run_op(argv: list[str]) -> tuple[int, str]:
    """(exit code, sha256 of argv, exit code and stdout) of one cli.main call."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    except SystemExit as exc:  # a usage error or a refusal
        code = exc.code
    record = json.dumps([argv, code, out.getvalue()])
    return code, hashlib.sha256(record.encode()).hexdigest()


def test_golden_round_is_byte_identical():
    golden = GOLDEN.read_text().splitlines()
    ops = round_argv()
    assert len(golden) == len(ops) == 500
    moved = []
    for index, (argv, line) in enumerate(zip(ops, golden)):
        code, digest = run_op(argv)
        if f"{code} {digest}" != line:
            moved.append(f"op {index}: {' '.join(argv)} -> exit {code}, {digest[:12]}; "
                         f"pinned {line[:15]}")
    assert not moved, f"{len(moved)} of 500 ops moved:\n" + "\n".join(moved[:20])


def test_golden_round_reaches_every_outcome():
    codes = [int(line.split()[0]) for line in GOLDEN.read_text().splitlines()]
    assert min(codes.count(code) for code in (0, 1, 2)) >= 20


if __name__ == "__main__":
    for argv in round_argv():
        print(*run_op(argv))
