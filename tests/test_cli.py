import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from zeta_recur import cli, identities


def run(capsys, argv, env=None, monkeypatch=None):
    if env:
        for key, value in env.items():
            monkeypatch.setenv(key, value)
    code = cli.main(argv)
    return code, capsys.readouterr().out


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
    env = {k: v for k, v in os.environ.items() if k != "ZETA_RECUR_EVAL_BUDGET"}
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", script, json.dumps(argvs)],
                          capture_output=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr.decode()
    assert json.loads(done.stderr.splitlines()[-1]) == [0] * len(argvs)


def test_even_and_bernoulli_load_only_the_exact_core():
    # -S keeps the environment's site hooks from importing stdlib modules first;
    # `random` and `cmath` are imported only by `identities` and `quadrature`,
    # and `dataclasses` (with `inspect`) only by those two and never by `exact`
    script = (
        "import contextlib, io, sys\n"
        "from zeta_recur import cli\n"
        "loaded = lambda: sorted(m for m in sys.modules if m.startswith('zeta_recur'))\n"
        "assert loaded() == ['zeta_recur', 'zeta_recur.cli', 'zeta_recur.exact',\n"
        "                    'zeta_recur.machin'], loaded()\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [cli.main(['even', '--n', '5']), cli.main(['bernoulli', '--n', '5'])]\n"
        "assert codes == [0, 0], codes\n"
        "numeric = ('zeta_recur.identities', 'zeta_recur.quadrature', 'random', 'cmath')\n"
        "assert not [m for m in numeric if m in sys.modules], loaded()\n"
        "assert not [m for m in ('dataclasses', 'inspect') if m in sys.modules]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['verify', 'eq2']) == 0\n"
        "assert 'zeta_recur.identities' in sys.modules\n"
    )
    env = {k: v for k, v in os.environ.items() if k != "ZETA_RECUR_EVAL_BUDGET"}
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True, env=env,
                          timeout=120)
    assert done.returncode == 0, done.stderr.decode()


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


# (argv, largest accepted s, smallest refused s) where the float terms overflow;
# eq9 and the contour get a --tol above their roundoff floor at the largest s
OVERFLOW_BOUNDS = [
    (["verify", "eq2"], 108, 109),
    (["verify", "eq7"], 108, 109),
    (["verify", "eq9", "--tol", "1e300"], 108, 109),
    (["verify", "eq10"], 171, 172),
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
])
def test_refusal_runs_before_any_quadrature(capsys, monkeypatch, argv):
    def no_quadrature(*args, **kwargs):
        raise AssertionError("quadrature ran")

    for name in ("integrate_finite", "integrate_semi_infinite", "integrate_segment"):
        monkeypatch.setattr(identities, name, no_quadrature)
    with pytest.raises(AssertionError):  # the patch is on the path the checks take
        cli.main(["verify", "odd" if "odd" in argv else "eq9", "--s", "3"])
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize("argv,name", [
    (["verify", "eq9", "--s", "20", "--tol", "1e-10"], "eq9_components"),
    (["contour", "--s", "20", "--radius", "30", "--tol", "1e-10"], "contour_closure"),
])
def test_sub_floor_refusal_names_check_s_tol_and_floor(capsys, argv, name):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{name} requires tol >= " in captured.err
    assert "at s = 20 " in captured.err and captured.err.rstrip().endswith("got tol = 1e-10")


def test_s2_refusal_names_its_own_check_and_bound(capsys):
    # s2 runs only EQ9's C, whose floor, 4 pi eps, is the one it refuses below
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "s2", "--tol", "1e-16"])
    assert exc.value.code == 2
    assert "verify_zeta2 requires tol >= 2.79e-15 at s = 2 " in capsys.readouterr().err
    assert run(capsys, ["verify", "s2", "--tol", "2.8e-15"])[0] in (0, 1)  # runs


def test_tolerance_past_the_double_floor_finishes():
    env = {k: v for k, v in os.environ.items() if k != "ZETA_RECUR_EVAL_BUDGET"}
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-m", "zeta_recur.cli", "verify", "eq2",
                           "--s", "2", "--tol", "1e-300"], capture_output=True, env=env,
                          timeout=30)
    assert done.returncode == 1
    assert b"did not converge" in done.stdout


def test_verify_failure_exit_code_on_starved_budget(capsys, monkeypatch):
    code, out = run(capsys, ["verify", "eq2", "--s", "2"], env={"ZETA_RECUR_EVAL_BUDGET": "100"},
                    monkeypatch=monkeypatch)
    assert code == 1
    assert "did not converge" in out


@pytest.mark.parametrize("argv,env,reason", [
    # the panels' floors exceed tol after 165 evaluations, long before the default budget
    (["verify", "eq2", "--s", "2", "--tol", "1e-300"], {}, "roundoff floor"),
    (["verify", "eq2", "--s", "2"], {"ZETA_RECUR_EVAL_BUDGET": "100"},
     "evaluation budget exhausted"),
    (["verify", "eq9", "--s", "5"], {"ZETA_RECUR_EVAL_BUDGET": "100"},
     "evaluation budget exhausted"),
])
def test_failure_note_says_why_quadrature_stopped(capsys, monkeypatch, argv, env, reason):
    monkeypatch.delenv("ZETA_RECUR_EVAL_BUDGET", raising=False)
    code, out = run(capsys, argv + ["--format", "json"], env=env, monkeypatch=monkeypatch)
    assert code == 1
    assert json.loads(out)["note"] == f"quadrature did not converge; {reason}"


def test_budget_env_applies_to_one_invocation_only(capsys, monkeypatch):
    code, _ = run(capsys, ["verify", "eq2", "--s", "2"], env={"ZETA_RECUR_EVAL_BUDGET": "100"},
                  monkeypatch=monkeypatch)
    assert code == 1
    monkeypatch.delenv("ZETA_RECUR_EVAL_BUDGET")
    code, out = run(capsys, ["verify", "eq2", "--s", "2"])
    assert code == 0, out
    assert "did not converge" not in out


def test_nonfinite_bound_is_named(capsys):
    with pytest.raises(SystemExit):
        cli.main(["contour", "--s", "2", "--radius", "nan"])
    assert "--radius must be finite and > 0, got nan" in capsys.readouterr().err


def test_parser_reuse_leaks_nothing_between_calls(capsys, monkeypatch):
    # the parser is built once per process, so a first call is one in a fresh process
    argv = ["verify", "eq2"]
    env = {k: v for k, v in os.environ.items() if k != "ZETA_RECUR_EVAL_BUDGET"}
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    fresh = subprocess.run([sys.executable, "-m", "zeta_recur.cli", *argv],
                           capture_output=True, env=env, timeout=120)
    assert fresh.returncode == 0

    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "eq2", "--tol", "banana"])
    assert exc.value.code == 2
    monkeypatch.setenv("ZETA_RECUR_EVAL_BUDGET", "banana")
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    monkeypatch.delenv("ZETA_RECUR_EVAL_BUDGET")
    code, _ = run(capsys, ["verify", "eq2", "--s", "5", "--tol", "1e-6"])
    assert code == 0
    code, out = run(capsys, argv)
    assert (code, out) == (0, fresh.stdout.decode())


def test_invalid_budget_env(capsys, monkeypatch):
    monkeypatch.setenv("ZETA_RECUR_EVAL_BUDGET", "banana")
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "eq2"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [["even", "--n", "3"], ["bernoulli", "--n", "3"]])
def test_budget_env_ignored_without_quadrature(capsys, monkeypatch, argv):
    # the budget caps quadrature only, so a bad value cannot fail a table
    monkeypatch.delenv("ZETA_RECUR_EVAL_BUDGET", raising=False)
    expected = run(capsys, argv)
    assert expected[0] == 0
    assert run(capsys, argv, env={"ZETA_RECUR_EVAL_BUDGET": "banana"},
               monkeypatch=monkeypatch) == expected


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


@pytest.mark.parametrize("argv", [["contour", "--s", "3"], ["verify", "closure", "--s", "3"]])
def test_contour_failure_note_says_why(capsys, monkeypatch, argv):
    monkeypatch.delenv("ZETA_RECUR_EVAL_BUDGET", raising=False)
    code, out = run(capsys, argv + ["--format", "json"], env={"ZETA_RECUR_EVAL_BUDGET": "100"},
                    monkeypatch=monkeypatch)
    assert code == 1
    assert json.loads(out)["note"] == "quadrature did not converge; evaluation budget exhausted"


# ---------------------------------------------------------------------------
# determinism

@pytest.mark.parametrize("argv", [
    ["even", "--n", "6", "--digits", "14"],
    ["bernoulli", "--n", "8", "--format", "json"],
    ["verify", "eq7", "--s", "4", "--format", "csv"],
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


@pytest.mark.parametrize("argv,digest", GOLDEN_STDOUT)
def test_golden_stdout(capsys, argv, digest):
    code, out = run(capsys, argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
