"""Smoke test of the benchmark at tiny sizes, including its failure detection.

Run from the repository root, either way:

    python3 perfbench/test_smoke.py
    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
from zeta_recur import cli  # noqa: E402


def _bench() -> run.Bench:
    run.RESULTS.mkdir(exist_ok=True)
    return run.Bench(ROOT, "verify-sweep", seed=7, seconds=0.0)


def _report(*argv: str) -> dict:
    """A sweep op record for one in-process cli.main call."""
    argv = [*argv, "--format", "json"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return {"argv": argv, "code": code, "error": None, "out": out.getvalue()}


def _edited(rec: dict, code=None, **fields) -> dict:
    doc = json.loads(rec["out"])
    doc.update(fields)
    return dict(rec, out=json.dumps(doc), code=rec["code"] if code is None else code)


def test_even_table_passes_and_corruptions_fail():
    bench = _bench()
    child, equal_rows = bench.even_op(5, 12)
    assert (bench.attempted, bench.failed, equal_rows) == (1, 0, 5), bench.reasons
    doc = json.loads(child.out)

    wrong_coeff = json.loads(child.out)
    wrong_coeff["rows"][2]["coeff"] = "1/946"  # q_3 = 1/945
    wrong_digit = json.loads(child.out)
    text = wrong_digit["rows"][3]["zeta"]
    wrong_digit["rows"][3]["zeta"] = text[:-1] + str((int(text[-1]) + 1) % 10)
    for bad in (wrong_coeff, wrong_digit):
        bench.check_even(5, 12, 0, json.dumps(bad))
    bench.check_even(5, 12, 1, child.out)  # exit code contradicts equal=true rows
    bench.check_even(5, 12, 0, child.out[:-5])  # truncated output
    assert (bench.attempted, bench.failed) == (5, 4), bench.reasons
    assert doc["rows"][0]["zeta"] == "1.644934066848"


def test_any_wrong_digit_fails():
    bench = _bench()
    deep, equal_rows = bench.even_op(3, 100)
    assert (bench.attempted, bench.failed, equal_rows) == (1, 0, 3), bench.reasons
    for n, place in ((1, 50), (3, 99), (2, 26)):  # a middle digit of a 100-place row
        bad = json.loads(deep.out)
        text = bad["rows"][n - 1]["zeta"]
        at = text.index(".") + place
        bad["rows"][n - 1]["zeta"] = text[:at] + str((int(text[at]) + 1) % 10) + text[at + 1:]
        bench.check_even(3, 100, 0, json.dumps(bad))
    assert (bench.attempted, bench.failed) == (4, 3), bench.reasons

    # zeta(120) = 1 + 7.5e-37..., so the truncation is 1.0000000000, never 0.9999999999
    wide, equal_rows = bench.even_op(60, 10)
    assert (bench.failed, equal_rows) == (3, 60), bench.reasons
    bad = json.loads(wide.out)
    assert bad["rows"][59]["zeta"] == "1.0000000000"
    bad["rows"][59]["zeta"] = "0.9999999999"
    bench.check_even(60, 10, 0, json.dumps(bad))
    assert (bench.attempted, bench.failed) == (6, 4), bench.reasons


def test_verify_reports_and_wrong_passes():
    bench = _bench()
    eq2 = _report("verify", "eq2", "--s", "3", "--tol", "1e-9")
    contour = _report("contour", "--s", "2", "--radius", "30", "--tol", "1e-9")
    honest_fail = _report("verify", "eq2", "--s", "18", "--tol", "1e-12")
    good = [eq2, contour, honest_fail, dict(eq2, code=2, out="")]
    assert [bench.check_op(rec) for rec in good] == [True, True, False, False]
    assert bench.failed == 0, bench.reasons

    lhs = json.loads(eq2["out"])["lhs"]
    bottom = json.loads(contour["out"])["bottom"]
    bad = [
        _edited(eq2, lhs=lhs + 1e-6),                                    # wrong value
        _edited(eq2, code=1),                                            # exit contradicts passed
        _edited(honest_fail, code=0, passed=True),                       # wrong passed value
        _edited(contour, bottom={"re": bottom["re"] + 1e-6, "im": 0.0}),  # wrong side
        dict(eq2, error="timeout after 30.0 s", out=""),
        dict(eq2, out="not json"),
    ]
    for rec in bad:
        bench.check_op(rec)
    assert bench.failed == len(bad), bench.reasons


def test_sweep_worker_runs_a_few_ops():
    bench = _bench()
    for trace in (False, True):
        child, ops, rounds = bench.sweep(0.0, trace=trace, limit=6)
        assert len(ops) == 6 and rounds[0]["ops"] == 6 and child.rss_mb > 0
        assert all(rec["error"] is None for rec in ops)
        assert all(("spans" in rec) == trace for rec in ops)
    assert bench.failed == 0, bench.reasons


def test_traced_even_spans_partition_main():
    bench = _bench()
    _, rec = bench.even_traced(5, 12)
    spans = rec["spans"]
    assert bench.failed == 0, bench.reasons
    assert spans["exact.render_decimal"][0] == 5 and spans["exact.bernoulli"][0] == 5
    main_total = spans["cli.main"][1]
    self_sum = sum(entry[2] for entry in spans.values())
    assert abs(self_sum - main_total) < 1e-6 * max(1.0, main_total)
    assert len(rec["first_pi_s"]) == 5


if __name__ == "__main__":
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            test()
            print("ok", name)
