import ast
import contextlib
import functools
import hashlib
import importlib
import io
import json
import math
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from zeta_recur import cli, exact, identities, quadrature


def run(capsys, argv):
    code = cli.main(argv)
    return code, capsys.readouterr().out


def starve(monkeypatch, budget):
    """Cap every integral the checks run at budget evaluations."""
    for name in ("integrate_finite", "integrate_semi_infinite", "integrate_segment"):
        monkeypatch.setattr(identities, name,
                            functools.partial(getattr(quadrature, name), budget=budget))


# ---------------------------------------------------------------------------
# even

def test_even_table_plain(capsys):
    code, out = run(capsys, ["even", "--n", "2", "--digits", "10"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["n", "coeff", "equal", "zeta"]
    assert lines[1].split() == ["1", "1/6", "true", "1.6449340668"]
    assert lines[2].split() == ["2", "1/90", "true", "1.0823232337"]


def test_even_smallest_csv(capsys):
    code, out = run(capsys, ["even", "--n", "1", "--digits", "1", "--format", "csv"])
    assert code == 0
    assert out == "n,coeff,equal,zeta\n1,1/6,true,1.6\n"


def test_even_full_cross_check(capsys):
    code, out = run(capsys, ["even", "--n", "50", "--digits", "6"])
    assert code == 0
    assert out.count("true") == 50
    assert "false" not in out


@pytest.mark.parametrize("wrong", [3, 4])
def test_even_equal_column_checks_the_sign(capsys, monkeypatch, wrong):
    # B_2n with its sign flipped at one n has the right magnitude; only that row
    # may read false, and the table must then exit 1
    bernoulli = exact.bernoulli

    def flipped(m, **kwargs):
        b = bernoulli(m, **kwargs)
        return -b if m == 2 * wrong else b

    monkeypatch.setattr(exact, "bernoulli", flipped)
    code, out = run(capsys, ["even", "--n", "6", "--digits", "5", "--format", "csv"])
    assert code == 1
    equal = [line.split(",")[2] for line in out.splitlines()[1:]]
    assert equal == ["false" if n == wrong else "true" for n in range(1, 7)]


def test_even_json_round_trip(capsys):
    code, out = run(capsys, ["even", "--n", "3", "--digits", "8", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert [row["coeff"] for row in doc["rows"]] == ["1/6", "1/90", "1/945"]
    assert json.dumps(doc, sort_keys=True) + "\n" == out


def test_coeff_str_past_int_digit_limit():
    # q_858 and up have denominators past CPython's 4300-digit int-to-str cap
    big = Fraction(3, 7 * 10**4400 + 1)
    assert cli._coeff_str(big) == "3/7" + "0" * 4399 + "1"
    assert cli._coeff_str(Fraction(1, 945)) == str(Fraction(1, 945))


@pytest.mark.parametrize("argv", [
    ["even", "--n", "0"],
    ["even", "--n", "1001"],
    ["even", "--n", "2", "--digits", "0"],
    ["even", "--n", "2", "--digits", "1001"],
    ["even", "--jobs", "0"],
])
def test_even_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# bernoulli

def test_bernoulli_table(capsys):
    code, out = run(capsys, ["bernoulli", "--n", "4", "--format", "csv"])
    assert code == 0
    assert out == "m,B_m\n0,1\n1,-1/2\n2,1/6\n3,0\n4,-1/30\n"


def test_bernoulli_single_row(capsys):
    code, out = run(capsys, ["bernoulli", "--n", "0", "--format", "csv"])
    assert code == 0
    assert out == "m,B_m\n0,1\n"


def test_bernoulli_famous_numerator(capsys):
    code, out = run(capsys, ["bernoulli", "--n", "12", "--format", "csv"])
    assert code == 0
    assert out.splitlines()[-1] == "12,-691/2730"


def test_bernoulli_range_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["bernoulli", "--n", "2001"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# verify

PASSING_VERIFY_ARGV = [
    ["verify", "eq2", "--s", "2"],
    ["verify", "eq5"],
    ["verify", "eq7", "--s", "3"],
    ["verify", "closure", "--s", "3"],
    ["verify", "eq9", "--s", "3", "--tol", "1e-8"],
    ["verify", "s2"],
    ["verify", "log2"],
    ["verify", "eq10", "--s", "4"],
    ["verify", "odd", "--s", "3", "--tol", "1e-8"],
]


@pytest.mark.parametrize("argv", PASSING_VERIFY_ARGV)
def test_verify_passes(capsys, argv):
    code, out = run(capsys, argv)
    assert code == 0, out
    assert "passed" in out


def test_every_command_runs_without_mpmath():
    # the package needs only the standard library: mpmath is the tests' oracle
    argvs = [*PASSING_VERIFY_ARGV, ["contour", "--s", "2"], ["even", "--n", "5"],
             ["bernoulli", "--n", "5"]]
    script = (
        "import json, sys\n"
        "sys.modules['mpmath'] = None\n"
        "from zeta_recur import cli\n"
        "codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]\n"
        "print(json.dumps(codes), file=sys.stderr)\n"
    )
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", script, json.dumps(argvs)],
                          capture_output=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr.decode()
    assert json.loads(done.stderr.splitlines()[-1]) == [0] * len(argvs)


def test_even_and_bernoulli_load_only_the_exact_core():
    # -S keeps the environment's site hooks from importing stdlib modules first;
    # `cmath` is imported only by `quadrature`, `random` only by eq5, `json`
    # only by --format json, and no command loads `dataclasses`, `inspect` or
    # `typing`
    script = (
        "import contextlib, io, sys\n"
        "from zeta_recur import cli\n"
        "loaded = lambda: sorted(m for m in sys.modules if m.startswith('zeta_recur'))\n"
        "unused = lambda: [m for m in ('dataclasses', 'inspect', 'typing') if m in sys.modules]\n"
        "assert loaded() == ['zeta_recur', 'zeta_recur.cli', 'zeta_recur.exact',\n"
        "                    'zeta_recur.machin'], loaded()\n"
        "assert 'json' not in sys.modules\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [cli.main(['even', '--n', '5']), cli.main(['bernoulli', '--n', '5'])]\n"
        "assert codes == [0, 0], codes\n"
        "numeric = ('zeta_recur.identities', 'zeta_recur.quadrature', 'random', 'cmath', 'json')\n"
        "assert not [m for m in numeric if m in sys.modules], loaded()\n"
        "assert not unused(), unused()\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['verify', 'eq2']) == 0\n"
        "assert 'json' not in sys.modules\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['contour', '--s', '2']) == 0\n"
        "    assert cli.main(['verify', 'eq5']) == 0\n"
        "assert 'zeta_recur.identities' in sys.modules\n"
        "assert not unused(), unused()\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['verify', 'eq5', '--format', 'json']) == 0\n"
        "assert 'json' in sys.modules\n"
    )
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True, env=env,
                          timeout=120)
    assert done.returncode == 0, done.stderr.decode()


def test_plain_argv_never_imports_argparse():
    # a plain argv is read from the flag table alone: argparse, with the gettext
    # and locale it imports, loads only with the parser, and a fresh process's
    # first usage error, which builds it, writes what its `error` writes
    script = (
        "import contextlib, io, sys\n"
        "from zeta_recur import cli\n"
        "parser_modules = lambda: [m for m in ('argparse', 'gettext', 'locale') if m in sys.modules]\n"
        "for argv in (['even', '--n', '5', '--format', 'json'], ['bernoulli', '--n', '5'],\n"
        "             ['verify', 'eq2', '--s', '3'], ['contour', '--s', '2', '--format', 'csv']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main(argv) == 0, argv\n"
        "    assert not parser_modules(), (argv, parser_modules())\n"
        "def error(call, *args):\n"
        "    with contextlib.redirect_stderr(io.StringIO()) as err:\n"
        "        try:\n"
        "            call(*args)\n"
        "        except SystemExit as exc:\n"
        "            return exc.code, err.getvalue()\n"
        "first = error(cli.main, ['even', '--n', '0'])\n"
        "assert parser_modules() == ['argparse', 'gettext', 'locale'], parser_modules()\n"
        "assert first == error(cli._parser().error, '--n must be in 1..1000'), first\n"
        "assert first[1].endswith(' error: --n must be in 1..1000\\n'), first\n"
    )
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True, env=env,
                          timeout=120)
    assert done.returncode == 0, done.stderr.decode()


LAZY_STDLIB = ["fractions", "decimal", "numbers", "random"]


@pytest.mark.parametrize("argvs,needed,unloaded", [
    ([["--help"], ["verify", "eq2"], ["contour", "--s", "2"]], [], LAZY_STDLIB),
    ([["verify", "eq5"]], ["random"], ["decimal", "fractions", "numbers"]),
    ([["even", "--n", "5"]], ["fractions"], ["random"]),
    ([["bernoulli", "--n", "5"]], ["fractions"], ["random"]),
    ([["verify", "eq10", "--s", "12", "--tol", "1e-6"]], ["fractions"], ["random"]),
], ids=["help-verify-contour", "eq5", "even", "bernoulli", "eq10"])
def test_each_command_loads_only_the_stdlib_it_uses(argvs, needed, unloaded):
    # one fresh -S process per group, so each assertion sees only its own
    # commands' imports: import itself loads none of LAZY_STDLIB, `fractions`
    # comes with the exact core's first rational, `random` with eq5, and the
    # package never imports `decimal` itself (`fractions` does)
    script = (
        "import contextlib, io, sys\n"
        "from zeta_recur import cli\n"
        f"assert not [m for m in {LAZY_STDLIB!r} if m in sys.modules]\n"
        f"for argv in {argvs!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        try:\n"
        "            code = cli.main(argv)\n"
        "        except SystemExit as exc:\n"
        "            code = exc.code\n"
        "    assert code == 0, (argv, code)\n"
        f"    assert not [m for m in {unloaded!r} if m in sys.modules], argv\n"
        f"assert all(m in sys.modules for m in {needed!r})\n"
    )
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True, env=env,
                          timeout=120)
    assert done.returncode == 0, done.stderr.decode()


def _json_doc(fields, **head):
    """head, then fields with each complex value as {"re", "im"}."""
    return {**head, **{k: {"re": v.real, "im": v.imag} if isinstance(v, complex) else v
                       for k, v in fields}}


def test_json_records_and_tables_print_what_json_dumps_does(capsys, monkeypatch):
    # the one kept encoder writes the bytes json.dumps(doc, sort_keys=True) does
    fields = [("nan", math.nan), ("inf", math.inf), ("minus_inf", -math.inf),
              ("minus_zero", -0.0), ("side", complex(-0.0, math.inf)), ("count", 7),
              ("passed", False), ("note", 'a "quoted" note \\ ζ(3) ≈ 1.202, naïve\n')]
    for command in ("verify", "contour"):
        cli._emit_record(fields, "json", command)
        assert capsys.readouterr().out == json.dumps(_json_doc(fields, command=command),
                                                     sort_keys=True) + "\n"
    header = [k for k, _ in fields]
    rows = [[v for _, v in fields], [v for _, v in reversed(fields)]]
    cli._emit_table(header, rows, "json", "even")
    doc = {"command": "even", "rows": [_json_doc(zip(header, row)) for row in rows]}
    assert capsys.readouterr().out == json.dumps(doc, sort_keys=True) + "\n"
    # reports as main prints them: the contour's complex sides, and odd's nan
    # extraction when no K(m) gets a panel
    contour = identities.contour_closure(3, 30.0, 1e-9)
    assert run(capsys, ["contour", "--s", "3", "--format", "json"]) == (0, json.dumps(
        _json_doc(cli._contour_fields(contour, True), command="contour"), sort_keys=True) + "\n")
    starve(monkeypatch, 20)
    odd = identities.verify_odd_zeta(21, 1e-8)
    assert math.isnan(odd.lhs)
    doc = _json_doc(cli._report_fields(odd, False), command="verify")
    assert run(capsys, ["verify", "odd", "--s", "21", "--tol", "1e-8", "--format", "json"]) == (
        1, json.dumps(doc, sort_keys=True) + "\n")


@pytest.mark.parametrize("name", ["exact", "quadrature", "identities"])
def test_all_lists_exactly_the_public_definitions(name):
    # every __all__ entry exists, so `import *` works, and every public
    # top-level def or class of the module is listed
    module = importlib.import_module(f"zeta_recur.{name}")
    with open(module.__file__, encoding="utf-8") as source:
        tree = ast.parse(source.read())
    defined = {node.name for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")}
    assert [entry for entry in module.__all__ if not hasattr(module, entry)] == []
    assert sorted(defined - set(module.__all__)) == []


def test_verify_eq2_report_content(capsys):
    code, out = run(capsys, ["verify", "eq2", "--s", "2", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["identity"] == "EQ2"
    assert abs(doc["lhs"] - 1.644934067) < 1e-8
    assert doc["passed"] is True


def test_verify_closure_report(capsys):
    code, out = run(capsys, ["verify", "closure", "--s", "3", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["closure_magnitude"] < 1e-9
    assert set(doc["closure"]) == {"re", "im"}


def test_verify_odd_extraction_value(capsys):
    code, out = run(capsys, ["verify", "odd", "--s", "3", "--tol", "1e-8", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["lhs"] - 1.20205690) < 1e-7


@pytest.mark.parametrize("argv", [
    ["verify", "nonsense"],
    ["verify", "odd", "--s", "4"],
    ["verify", "odd", "--s", "1"],
    ["verify", "eq2", "--s", "1"],
    ["verify", "eq2", "--tol", "0"],
    ["verify", "closure", "--radius", "-5"],
    ["verify", "eq2", "--s", "3", "--tol", "inf"],
    ["contour", "--s", "2", "--radius", "inf"],
])
def test_verify_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize("argv,name", [(["verify", "eq2"], "verify_bose_integral"),
                                       (["contour"], "contour_closure")])
@pytest.mark.parametrize("tol", ["0", "inf", "nan"])
def test_tol_not_finite_and_positive_is_refused_by_its_check(capsys, argv, name, tol):
    # the command line has no tol rule of its own: the check refuses, naming itself
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "--tol", tol])
    got = capsys.readouterr()
    assert (exc.value.code, got.out) == (2, "")
    assert got.err.endswith(
        f"zeta-recur: error: {name} requires a finite tol > 0, got tol = {float(tol)!r}\n")


@pytest.mark.parametrize("argv,flag", [
    (["verify", "eq5", "--s", "3"], "--s"),
    (["verify", "s2", "--s", "2"], "--s"),
    (["verify", "log2", "--s", "2", "--tol", "1e-8"], "--s"),
    *[(["verify", ident, "--radius", "30"], "--radius")
      for ident in ("eq2", "eq5", "eq7", "eq9", "s2", "log2", "eq10", "odd")],
])
def test_verify_rejects_a_flag_its_identity_ignores(capsys, argv, flag):
    # an ignored flag is never silently dropped: the usage error names it
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert f"verify {argv[1]} takes no {flag}" in capsys.readouterr().err


# (identity, its --s, the s its report names): the identities with an exponent
# take --s; eq5 is pointwise and reports s = 0, s2 and log2 hold at s = 2
@pytest.mark.parametrize("identity,flags,s", [
    *[(ident, ["--s", "5"], 5) for ident in ("eq2", "eq7", "closure", "eq9", "eq10", "odd")],
    ("eq5", [], 0),
    ("s2", [], 2),
    ("log2", [], 2),
])
def test_verify_hands_each_identity_the_flags_it_takes(capsys, identity, flags, s):
    code, out = run(capsys, ["verify", identity, *flags, "--tol", "1e-7", "--format", "json"])
    doc = json.loads(out)
    assert (code, doc["s"], doc["tolerance"]) == (0, s, 1e-7)


def test_radius_reaches_closure_and_contour(capsys):
    for argv in (["verify", "closure", "--s", "3", "--radius", "20"],
                 ["contour", "--s", "3", "--radius", "20"]):
        code, out = run(capsys, argv + ["--format", "json"])
        assert (code, json.loads(out)["radius"]) == (0, 20.0)
    code, out = run(capsys, ["verify", "closure", "--format", "json"])
    doc = json.loads(out)
    assert (code, doc["s"], doc["radius"]) == (0, 2, 30.0)


# (argv, largest accepted s, smallest refused s) where the float terms overflow;
# eq9, eq10 and the contour get a --tol above their roundoff floor at the largest s
OVERFLOW_BOUNDS = [
    (["verify", "eq2"], 108, 109),
    (["verify", "eq7"], 108, 109),
    (["verify", "eq9", "--tol", "1e300"], 108, 109),
    (["verify", "eq10", "--tol", "1e300"], 171, 172),
    (["verify", "odd"], 171, 173),
    (["verify", "closure", "--radius", "30", "--tol", "1e300"], 209, 210),
    (["contour", "--radius", "30", "--tol", "1e300"], 209, 210),
    (["verify", "closure", "--radius", "60", "--tol", "1e300"], 174, 175),
    (["contour", "--radius", "60", "--tol", "1e300"], 174, 175),
    # near R = 0 the left side's integrand times its length, up to pi^s / 2, overflows first
    (["contour", "--radius", "0.01", "--tol", "1e300"], 620, 621),
]


@pytest.mark.parametrize("argv,s_ok,s_refused", OVERFLOW_BOUNDS)
def test_overflow_bound_from_both_sides(capsys, argv, s_ok, s_refused):
    code, out = run(capsys, argv + ["--s", str(s_ok)])
    assert code in (0, 1)
    assert "passed" in out
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--s", str(s_refused)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"..{s_ok} (" in err and f"got s = {s_refused}" in err


def test_radius_overflow_bound_from_both_sides(capsys):
    code, _ = run(capsys, ["contour", "--s", "2", "--radius", "709"])
    assert code in (0, 1)
    with pytest.raises(SystemExit) as exc:
        cli.main(["contour", "--s", "2", "--radius", "711"])
    assert exc.value.code == 2
    assert "R <= 709.78" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["verify", "eq2", "--s", "1"],
    ["verify", "eq2", "--s", "109"],
    ["verify", "eq7", "--s", "1"],
    ["verify", "eq7", "--s", "109"],
    ["verify", "eq9", "--s", "1"],
    ["verify", "eq9", "--s", "109"],
    ["verify", "eq10", "--s", "1"],
    ["verify", "eq10", "--s", "172"],
    ["verify", "odd", "--s", "1"],
    ["verify", "odd", "--s", "4"],
    ["verify", "odd", "--s", "173"],
    ["verify", "closure", "--s", "1"],
    ["verify", "closure", "--s", "210"],
    ["contour", "--s", "1"],
    ["contour", "--s", "210"],
    ["contour", "--s", "2", "--radius", "800"],
    # tolerances below the roundoff floor of a quadrature the check runs
    ["verify", "eq9", "--s", "20", "--tol", "1e-10"],
    ["verify", "s2", "--tol", "1e-16"],
    ["verify", "closure", "--s", "20", "--tol", "1e-10"],
    ["contour", "--s", "20", "--radius", "30", "--tol", "1e-10"],
    ["contour", "--s", "2", "--radius", "0.01", "--tol", "1e-17"],  # the left side's floor
    ["verify", "eq10", "--s", "20", "--tol", "1e-10"],
    ["verify", "eq10", "--s", "21", "--tol", "1e-10"],  # odd s: K(21) would run
])
def test_refusal_runs_before_any_quadrature(capsys, monkeypatch, argv):
    # a refusal builds no integral either: no integrand and no segment
    def no_quadrature(*args, **kwargs):
        raise AssertionError("quadrature ran or an integral was built")

    for name in ("integrate_finite", "integrate_semi_infinite", "integrate_segment",
                 "Segment", "bose", "fermi"):
        monkeypatch.setattr(identities, name, no_quadrature)
    with pytest.raises(AssertionError):  # the patch is on the path the checks take
        cli.main(["verify", "odd" if "odd" in argv else "eq9", "--s", "3"])
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2


def test_eq9_refusal_leaves_the_store_as_it_was(capsys):
    # a warm store holds A, F(2)..F(8) and C of s = 8; the refusal at s = 20
    # neither reads nor fills it
    assert cli.main(["verify", "eq9", "--s", "8", "--tol", "1e-9"]) == 0
    warm = quadrature._kept_run.cache_info()
    assert warm.currsize == 9
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "eq9", "--s", "20", "--tol", "1e-10"])
    assert exc.value.code == 2
    assert quadrature._kept_run.cache_info() == warm


# the floor each sub-floor refusal below names, byte for byte; where a check has
# two bounds, one case lets each of them win
_FLOORS = {
    "verify eq9 --s 20 --tol 1e-10": "216",  # A's gamma(s, X)
    "verify eq9 --s 2 --tol 1e-16": "2.79e-15",  # C's pi^(s-1)/(s-1)
    "contour --s 20 --radius 30 --tol 1e-10": "106",  # the bottom side's
    "verify closure --s 20 --tol 1e-10": "106",
    "contour --s 2 --radius 0.01 --tol 1e-17": "2.79e-15",  # the left side's
    "verify s2 --tol 1e-16": "2.79e-15",
    "verify eq10 --s 20 --tol 1e-10": "340",
}


@pytest.mark.parametrize("argv,name", [
    (["verify", "eq9", "--s", "20", "--tol", "1e-10"], "verify_eq9"),
    (["contour", "--s", "20", "--radius", "30", "--tol", "1e-10"], "contour_closure"),
    (["verify", "eq10", "--s", "20", "--tol", "1e-10"], "expanded_real_identity"),
    (["verify", "eq9", "--s", "2", "--tol", "1e-16"], "verify_eq9"),
    (["verify", "closure", "--s", "20", "--tol", "1e-10"], "contour_closure"),
    (["contour", "--s", "2", "--radius", "0.01", "--tol", "1e-17"], "contour_closure"),
    (["verify", "s2", "--tol", "1e-16"], "verify_zeta2"),
])
def test_sub_floor_refusal_names_check_s_tol_and_floor(capsys, argv, name):
    why = ("eps times the summed magnitudes of its terms: an estimate of their rounding, "
           "not a proven bound" if "eq10" in argv
           else "eps times a lower bound on the integral of |f| it must resolve")
    s = argv[argv.index("--s") + 1] if "--s" in argv else "2"
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == (
        f"zeta-recur: error: {name} requires tol >= {_FLOORS[' '.join(argv)]} at s = {s} "
        f"({why}), got tol = {argv[-1]}")


def test_s2_refusal_names_its_own_check_and_bound(capsys):
    # s2 runs only EQ9's C, whose floor, 4 pi eps, is the one it refuses below
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "s2", "--tol", "1e-16"])
    assert exc.value.code == 2
    assert "verify_zeta2 requires tol >= 2.79e-15 at s = 2 " in capsys.readouterr().err
    assert run(capsys, ["verify", "s2", "--tol", "2.8e-15"])[0] in (0, 1)  # runs


def test_tolerance_past_the_double_floor_finishes():
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-m", "zeta_recur.cli", "verify", "eq2",
                           "--s", "2", "--tol", "1e-300"], capture_output=True, env=env,
                          timeout=30)
    assert done.returncode == 1
    assert b"did not converge" in done.stdout


def test_verify_failure_exit_code_on_starved_budget(capsys, monkeypatch):
    starve(monkeypatch, 100)
    code, out = run(capsys, ["verify", "eq2", "--s", "2"])
    assert code == 1
    assert "did not converge" in out


def _ids(rows):
    """The ids pytest gave these rows while their second column was named env,
    so that each test keeps its name now that the column holds a budget."""
    return [f"argv{i}-env{i}-" + "-".join(map(str, rest)) for i, (_, _, *rest) in enumerate(rows)]


# (argv, evaluation budget of every integral or None, the stop reason its note names)
STOP_NOTES = [
    # the panels' floors exceed tol after 165 evaluations, long before the default budget
    (["verify", "eq2", "--s", "2", "--tol", "1e-300"], None, "roundoff floor"),
    (["verify", "eq2", "--s", "2"], 100, "evaluation budget exhausted"),
    (["verify", "eq9", "--s", "5"], 100, "evaluation budget exhausted"),
]


@pytest.mark.parametrize("argv,budget,reason", STOP_NOTES, ids=_ids(STOP_NOTES))
def test_failure_note_says_why_quadrature_stopped(capsys, monkeypatch, argv, budget, reason):
    if budget:
        starve(monkeypatch, budget)
    code, out = run(capsys, argv + ["--format", "json"])
    assert code == 1
    assert json.loads(out)["note"] == f"quadrature did not converge; {reason}"


@pytest.mark.parametrize("value", ["100", "banana"])
def test_eval_budget_variable_is_ignored(capsys, monkeypatch, value):
    # no environment variable caps the evaluations of a check's integrals
    argvs = (["verify", "eq2", "--s", "2"], ["contour", "--s", "3", "--format", "json"])
    monkeypatch.delenv("ZETA_RECUR_EVAL_BUDGET", raising=False)
    expected = [run(capsys, argv) for argv in argvs]
    monkeypatch.setenv("ZETA_RECUR_EVAL_BUDGET", value)
    assert [run(capsys, argv) for argv in argvs] == expected
    assert [code for code, _ in expected] == [0, 0]


def test_nonfinite_bound_is_named(capsys):
    with pytest.raises(SystemExit):
        cli.main(["contour", "--s", "2", "--radius", "nan"])
    assert "got R = nan" in capsys.readouterr().err


def test_parser_reuse_leaks_nothing_between_calls(capsys):
    # the parser is built once per process, so a first call is one in a fresh process
    argv = ["verify", "eq2"]
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    fresh = subprocess.run([sys.executable, "-m", "zeta_recur.cli", *argv],
                           capture_output=True, env=env, timeout=120)
    assert fresh.returncode == 0

    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "eq2", "--tol", "banana"])
    assert exc.value.code == 2
    code, _ = run(capsys, ["verify", "eq2", "--s", "5", "--tol", "1e-6"])
    assert code == 0
    code, out = run(capsys, argv)
    assert (code, out) == (0, fresh.stdout.decode())


# ---------------------------------------------------------------------------
# the plain reader and the usage line

# each command's positional values and flags, and values each flag's type
# converts: argparse reads "-5" as a value but "-1e-9" and "-inf" as flags
_COMMAND_TOKENS = {"even": ((), ("--n", "--digits", "--format")),
                   "bernoulli": ((), ("--n", "--format")),
                   "verify": (tuple(cli._CHECKS), ("--s", "--tol", "--radius", "--format")),
                   "contour": ((), ("--s", "--radius", "--tol", "--format"))}
_INTS = ("0", "2", "3", "20", "1001", " 7", "1_0", "-5")
_FLOATS = ("1e-9", "30.0", "2", "nan", "inf", "1e400", "5e-324", "-1e-9", "-inf")
_GOOD = {"--format": ("plain", "json", "csv"), "--n": _INTS, "--digits": _INTS, "--s": _INTS,
         "--tol": _FLOATS, "--radius": _FLOATS}
_JUNK = ("", "banana", "eq", "VERIFY", "1.5", "-h", "--", "--s")
_TOKENS = (*_COMMAND_TOKENS, *cli._CHECKS, *_GOOD, *_INTS, *_FLOATS, *_JUNK, "--help",
           "--rad", "--to", "--dig", "--form", "--s=3", "--tol=1e-9", "plain", "json")


def _argparse_reads(argv):
    """(exit code, None) if `_parser().parse_args(argv)` exits, else (None, its items)."""
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            args = cli._parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code, None
    return None, sorted(vars(args).items())


def test_plain_reader_agrees_with_argparse():
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    # any token string, and argvs shaped like the plain form: a command, at
    # most one positional, then flag-value pairs; the reader may decline any
    # argv, but what it reads must be argparse's namespace (repr tells 3 from
    # 3.0 and matches nan), and it must decline every argv argparse exits on
    def plain_shaped(command):  # values the flag converts, twice as often as junk
        positionals, flags = _COMMAND_TOKENS[command]
        pair = st.sampled_from(flags).flatmap(lambda flag: st.tuples(st.just(flag), st.one_of(
            st.sampled_from(_GOOD[flag]), st.sampled_from(_GOOD[flag]), st.sampled_from(_JUNK))))
        return st.tuples(
            st.lists(st.sampled_from(positionals or _JUNK), min_size=bool(positionals), max_size=1),
            st.one_of(st.lists(pair, max_size=4, unique_by=lambda p: p[0]),
                      st.lists(pair, max_size=4)),
        ).map(lambda drawn: [command, *drawn[0], *[token for p in drawn[1] for token in p]])

    shaped = st.sampled_from(tuple(_COMMAND_TOKENS)).flatmap(plain_shaped)
    read = []

    @hyp.settings(max_examples=1000, deadline=None, derandomize=True, database=None)
    @hyp.given(argv=st.one_of(st.lists(st.sampled_from(_TOKENS), max_size=8), shaped, shaped))
    def prop(argv):
        code, expected = _argparse_reads(argv)
        plain = cli._plain_args(argv)
        if code is not None:
            assert plain is None, (argv, code)
        elif plain is not None:
            assert repr(sorted(vars(plain).items())) == repr(expected), argv
            read.append(argv)

    prop()
    assert len(read) >= 100, len(read)


def test_plain_reader_reads_every_golden_round_argv():
    # every op of the golden round and of the CLI's documented calls takes the
    # fast path; a reader that silently declined them would still pass the rest
    from test_golden_round import round_argv

    argvs = [*round_argv(), *PASSING_VERIFY_ARGV, ["contour", "--s", "2"], ["even"],
             ["bernoulli", "--n", "5", "--format", "csv"]]
    declined = [argv for argv in argvs if cli._plain_args(argv) is None]
    assert declined == []
    for argv in argvs[:50]:
        assert repr(sorted(vars(cli._plain_args(argv)).items())) == repr(_argparse_reads(argv)[1])


def test_usage_error_writes_what_parser_error_writes_at_every_width(capsys, monkeypatch):
    # the usage line is formatted once per terminal width; each width's error
    # must still be argparse's own, byte for byte, also after another width
    argv = ["verify", "eq10", "--s", "20", "--tol", "1e-10"]
    with pytest.raises(identities.Refused) as refused:
        identities.expanded_real_identity(20, 1e-10)
    errors = []
    for columns in ("20", "40", None, "20"):
        if columns is None:
            monkeypatch.delenv("COLUMNS", raising=False)
        else:
            monkeypatch.setenv("COLUMNS", columns)
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        got = capsys.readouterr()
        with pytest.raises(SystemExit) as expected_exc:
            cli._parser().error(str(refused.value))
        expected = capsys.readouterr()
        assert (exc.value.code, got.out, got.err) == (expected_exc.value.code, "", expected.err)
        errors.append(got.err)
    assert errors[0] == errors[3] != errors[1]  # 20 columns wrap before [-h], 40 do not


def test_usage_errors_leave_the_module_as_it_was(capsys, monkeypatch):
    # usage errors at two terminal widths rebind nothing in `cli` and grow no
    # container it binds: what they cache lives in functions, not module state
    import copy

    before = {name: (value, copy.deepcopy(value) if isinstance(value, (dict, list, set)) else None)
              for name, value in vars(cli).items() if name != "__builtins__"}
    for columns in ("20", "40"):
        monkeypatch.setenv("COLUMNS", columns)
        for argv in (["even", "--n", "0"], ["verify", "eq2", "--tol", "0"]):
            with pytest.raises(SystemExit):
                cli.main(argv)
    assert capsys.readouterr().err.count("usage: ") == 4
    assert vars(cli).keys() - {"__builtins__"} == before.keys()
    for name, (value, contents) in before.items():
        assert vars(cli)[name] is value, name
        assert contents is None or value == contents, name


def test_usage_error_without_stderr_still_exits_2(monkeypatch):
    # as argparse's error: nothing to write to is not a second error
    monkeypatch.setattr(sys, "stderr", None)
    with pytest.raises(SystemExit) as exc:
        cli.main(["even", "--n", "0"])
    assert exc.value.code == 2


def _defined_functions(module):
    """The functions a module defines, with the methods and property getters of its classes."""
    functions = []
    for value in vars(module).values():
        if getattr(value, "__module__", None) != module.__name__:
            continue
        members = vars(value).values() if isinstance(value, type) else [value]
        functions += [member for member in (getattr(m, "fget", getattr(m, "__func__", m))
                                            for m in members) if callable(member)]
    return functions


def test_type_hints_of_cli_resolve():
    # every annotation names something its module binds, though no module
    # imports `fractions`, `decimal` or `typing` at import (the lazy-import
    # tests above hold that)
    import typing

    from zeta_recur import machin

    functions = [f for module in (cli, exact, identities, quadrature, machin)
                 for f in _defined_functions(module)]
    assert cli._coeff_str in functions and cli.main in functions
    assert exact.bernoulli in functions and exact.ZetaEvenValue.__new__ in functions
    for function in functions:
        typing.get_type_hints(function)


# ---------------------------------------------------------------------------
# contour

def test_contour_command(capsys):
    code, out = run(capsys, ["contour", "--s", "2", "--radius", "30"])
    assert code == 0
    assert "right_side_magnitude" in out
    assert out.splitlines()[-1].split() == ["passed", "true"]


def test_contour_json_sides(capsys):
    code, out = run(capsys, ["contour", "--s", "2", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    for side in ("bottom", "right", "top", "left"):
        assert set(doc[side]) == {"re", "im"}
    assert doc["note"] == ""


@pytest.mark.parametrize("radius", ["1e-162", "1e-300", "5e-324"])
def test_contour_at_a_tiny_radius(capsys, radius):
    # the bottom and top sides are shorter than the square root of the least double
    code, out = run(capsys, ["contour", "--s", "2", "--radius", radius, "--format", "json"])
    assert (code, json.loads(out)["note"]) == (0, "")


@pytest.mark.parametrize("argv", [["contour", "--s", "3"], ["verify", "closure", "--s", "3"]])
def test_contour_failure_note_says_why(capsys, monkeypatch, argv):
    starve(monkeypatch, 100)
    code, out = run(capsys, argv + ["--format", "json"])
    assert code == 1
    assert json.loads(out)["note"] == "quadrature did not converge; evaluation budget exhausted"


# ---------------------------------------------------------------------------
# quadrature traffic
#
# integrate_finite decides its stops on fsum over every panel, O(n) per
# bisection, which is cheap only while the integrals the CLI asks for stay
# short; a change that breaks this bound must revisit that design

def _traffic_grid():
    for tol in ("1e-3", "1e-9", "1e-12", "1e-16", "5e-324"):
        for identity, ss in (("eq2", (2, 30, 108)), ("eq7", (2, 30, 108)),
                             ("eq9", (2, 30, 108)), ("eq10", (2, 60, 171)),
                             ("odd", (3, 41, 171))):
            for s in ss:
                yield ["verify", identity, "--s", str(s), "--tol", tol]
        yield ["verify", "s2", "--tol", tol]
        yield ["verify", "log2", "--tol", tol]
        for radius in ("1e-300", "30", "700"):
            for s in ("2", "8", "100"):
                yield ["verify", "closure", "--s", s, "--radius", radius, "--tol", tol]
                yield ["contour", "--s", s, "--radius", radius, "--tol", tol]
    # the deepest integrals found on a wider grid: 10 and 12 bisections
    yield ["contour", "--s", "8", "--radius", "700", "--tol", "1e-10"]
    yield ["contour", "--s", "12", "--radius", "700", "--tol", "2e-7"]


def test_no_cli_integral_bisects_more_than_64_times(capsys, monkeypatch):
    deepest = []  # (bisections, argv) of every integral
    for name in ("integrate_finite", "integrate_semi_infinite", "integrate_segment"):
        def counted(*args, integrate=getattr(identities, name), **kwargs):
            result = integrate(*args, **kwargs)
            deepest.append(((result.evaluations - 21) // 42, argv))
            return result
        monkeypatch.setattr(identities, name, counted)
    for argv in _traffic_grid():
        try:
            cli.main(argv)
        except SystemExit as exc:  # a refusal integrates nothing
            assert exc.code == 2
    capsys.readouterr()
    assert len(deepest) > 100
    worst = max(deepest, key=lambda item: item[0])
    assert worst[0] <= 64, worst


# ---------------------------------------------------------------------------
# determinism

@pytest.mark.parametrize("argv", [
    ["even", "--n", "6", "--digits", "14"],
    ["bernoulli", "--n", "8", "--format", "json"],
    ["verify", "eq7", "--s", "4", "--format", "csv"],
    ["verify", "eq9", "--s", "8", "--tol", "1e-9", "--format", "json"],
    ["contour", "--s", "2", "--format", "json"],
])
def test_byte_identical_output(capsys, argv):
    outputs = []
    for _ in range(2):
        code = cli.main(argv)
        outputs.append(capsys.readouterr().out)
        assert code == 0
    assert outputs[0] == outputs[1]


# sha256 of the stdout of the exact-core commands; any change to the digits,
# the coefficients or the layout of these tables changes these
GOLDEN_STDOUT = [
    (["even", "--n", "150", "--digits", "10", "--format", "json"],
     "4115e4407ca7390a9e52f91565bec0bb80c50f7c08b253f512af72d631db32da"),
    (["even", "--n", "60", "--digits", "1000"],
     "272417b01070ac5d53b09284a9cb512629e8f533b8d3c7653289747df53e4b8d"),
    (["even", "--n", "300", "--digits", "50", "--format", "csv"],
     "970fc2ced17e3b391d6af5c191b5b8f2d99a67bd57f17ac38e91b7e6e2ca1fc0"),
    (["bernoulli", "--n", "300"],
     "c31e5d7a1bf6fa4ee958084788d6058f144994ef0770f5feb3cbae57e4375918"),
]


# sha256 of the json stdout of verify and contour at inputs above their roundoff
# floors: the numeric core's values, estimates, notes and verdicts, to the bit
GOLDEN_NUMERIC_STDOUT = [
    (["verify", "eq2", "--s", "3", "--tol", "1e-10", "--format", "json"],
     "72ebab524660001ffd2910eddb00377c019bf53761126d596bb6170cd4973e7b"),
    (["verify", "eq7", "--s", "5", "--tol", "1e-10", "--format", "json"],
     "c9a620c3de7c956a0ada94675fd4bddbc2d2845b64763fea082879481ea63f53"),
    (["verify", "eq9", "--s", "5", "--tol", "1e-8", "--format", "json"],
     "4360c7684ca78172700fd83effda374c1fb5cb3df1dcf1552c3c623cb7aace34"),
    (["verify", "odd", "--s", "41", "--tol", "1e-10", "--format", "json"],
     "7dc22705396a735c0c245cd5e8e2b8cd6fe90ac92c2a4c0703455fb11904109f"),
    (["verify", "eq10", "--s", "13", "--tol", "1e-5", "--format", "json"],
     "a9008f4415071cbb1937376d30eaf89dbe54b411be1659bd832ff4947200bdd7"),
    (["verify", "s2", "--tol", "1e-12", "--format", "json"],
     "c36a7d60c534a93856715e0df7633675696699b93cce81f78dbae30c5dbc35e8"),
    (["verify", "log2", "--tol", "1e-10", "--format", "json"],
     "0f72ecec52dab4fd609c5c977beb19cfbe97d834b617e0628778c158684a4ef2"),
    (["verify", "closure", "--s", "4", "--radius", "25", "--tol", "1e-8", "--format", "json"],
     "9bbb3767a84130e7510f90b427cb51bf0dbf7913f8698f76424d30ca6b81e933"),
    (["contour", "--s", "7", "--radius", "40", "--tol", "1e-9", "--format", "json"],
     "9a841e61b2db667aedcb7c280496c3cd16f9670c5f76e499b57c9d054fcb812d"),
    (["contour", "--s", "2", "--radius", "5e-324", "--format", "json"],
     "2c54364826746714cc40bd0e53f786dae3717dede67bfad29a0255e20051f2ad"),
]


@pytest.mark.parametrize("argv,digest", GOLDEN_STDOUT + GOLDEN_NUMERIC_STDOUT)
def test_golden_stdout(capsys, argv, digest):
    code, out = run(capsys, argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# (argv, evaluation budget of every integral or None, exit code, sha256 of stdout) of one report per branch of the
# verdict's note: a stop reason (eq2, log2, contour), a stop reason and an error
# estimate (odd), a residual (eq9) and a caller's remark on a pass (eq5)
GOLDEN_NOTES = [
    (["verify", "eq2", "--s", "3", "--tol", "5e-324", "--format", "json"], None, 1,
     "759ab342f81b095f972df8c0a5908bcffb66429afea95fc597aa627fee569f87"),
    (["verify", "log2", "--tol", "5e-324", "--format", "json"], None, 1,
     "f83fe4629a6bb8ae704fdee8815da49d273ad8883f4270fa6e40a76c2de060cf"),
    (["verify", "odd", "--s", "171", "--tol", "1e-13", "--format", "json"], None, 1,
     "6ad2a6dedc3844e86c30924727fe944c477f248f4f0a8a111f4e97f3391b735d"),
    (["verify", "eq9", "--s", "14", "--tol", "3.3e-5", "--format", "json"], None, 1,
     "b49223841ca2759860ee39d190aea49f3f6666848e2bdf3cf2f3732f77a0e13b"),
    (["verify", "eq5"], None, 0,
     "bf0584be1ccef47652d9e6cf575a4215c252a400aa0999c231224175414fbdb4"),
    (["contour", "--s", "3", "--format", "json"], 100, 1,
     "7e742fa3da1b19edb4ac8cb04007c238064477b0998b59630b95e9644d77e01b"),
]


@pytest.mark.parametrize("argv,budget,exit_code,digest", GOLDEN_NOTES, ids=_ids(GOLDEN_NOTES))
def test_golden_notes(capsys, monkeypatch, argv, budget, exit_code, digest):
    if budget:
        starve(monkeypatch, budget)
    code, out = run(capsys, argv)
    assert code == exit_code
    assert hashlib.sha256(out.encode()).hexdigest() == digest
