"""Child process of the benchmark: hosts zeta_recur and drives it.

    python perfbench/worker.py '<json spec>'

The spec's "mode" is "sweep" (seeded `cli.main` verify/contour calls in one
warm process) or "even" (one cold `even` table through `cli.main`, always
traced).  With tracing on, spans are recorded around the calls into each
layer by rebinding the module attributes the caller looks them up through;
the package itself is not changed.  Results go to stdout as JSON lines; the
program's own stdout is captured per call.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import signal
import sys
import time

# One sweep round: ops per identity.  The counts are fixed so that every
# round does comparable work; eq5 costs ~67 ms regardless of its arguments,
# so it appears once.  The order and arguments are seeded draws.
ROUND = (("eq2", 80), ("eq7", 80), ("closure", 60), ("eq9", 60), ("eq10", 80),
         ("odd", 60), ("contour", 60), ("s2", 10), ("log2", 9), ("eq5", 1))
ROUND_OPS = sum(count for _, count in ROUND)
S_RANGE = (2, 24)          # accepted s for eq2 eq7 closure eq9 eq10 contour
ODD_RANGE = (3, 41)        # odd s for odd
RADIUS_RANGE = (10.0, 60.0)
LOG10_TOL_RANGE = (-12.0, -8.0)
OP_TIMEOUT_S = 30.0


def draw_argv(rng: random.Random, ident: str) -> list[str]:
    """CLI arguments of one sweep op."""
    tol = repr(10.0 ** rng.uniform(*LOG10_TOL_RANGE))
    if ident in ("eq5", "s2", "log2"):
        return ["verify", ident, "--tol", tol, "--format", "json"]
    if ident == "odd":
        s = str(rng.randrange(ODD_RANGE[0], ODD_RANGE[1] + 1, 2))
        return ["verify", "odd", "--s", s, "--tol", tol, "--format", "json"]
    s = str(rng.randint(*S_RANGE))
    if ident in ("closure", "contour"):
        radius = repr(round(rng.uniform(*RADIUS_RANGE), 3))
        head = ["contour"] if ident == "contour" else ["verify", "closure"]
        return head + ["--s", s, "--radius", radius, "--tol", tol, "--format", "json"]
    return ["verify", ident, "--s", s, "--tol", tol, "--format", "json"]


def sweep_round(seed: int, index: int) -> list[list[str]]:
    """The ops of round `index` of the sweep for `seed`."""
    rng = random.Random(f"verify-sweep:{seed}:{index}")
    idents = [ident for ident, count in ROUND for _ in range(count)]
    rng.shuffle(idents)
    return [draw_argv(rng, ident) for ident in idents]


def op_ident(argv: list[str]) -> str:
    return "contour" if argv[0] == "contour" else argv[1]


# a sweep round takes one calibration unit before every CALIBRATE_EVERY ops
CALIBRATE_EVERY = 50


def calibration_s() -> float:
    """Seconds this process takes for one fixed unit (~5 ms) of pure-Python work.

    The work mixes what the package spends its time on (big-integer products,
    a float loop, dict updates) but calls nothing of it, so it gauges how fast
    the host runs Python at this moment and never changes with the program.
    """
    start = time.perf_counter()
    big = 3 ** 20000
    for i in range(1, 10):
        (big * (big + i)) >> 20000
    total = 0.0
    for i in range(1, 1500):
        total += 1.0 / (i * i + 0.5)
    counts: dict[int, int] = {}
    for i in range(1000):
        counts[i % 977] = counts.get(i % 977, 0) + i
    return time.perf_counter() - start


class OpTimeout(BaseException):
    """Raised by the alarm; a BaseException so that no handler in the program swallows it."""


def _alarm(signum, frame):
    raise OpTimeout


class Tracer:
    """Spans kept in memory: [name, start, end, parent index, result note]."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def call(self, name: str, fn, *args, note=None, **kwargs):
        index = len(self.spans)
        span = [name, 0.0, 0.0, self._open[-1] if self._open else None, None]
        self.spans.append(span)
        self._open.append(index)
        span[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._open.pop()
        if note is not None:
            span[4] = note(result)
        return result

    def wrap(self, owner, attr: str, name: str, note=None) -> None:
        fn = getattr(owner, attr)

        def traced(*args, **kwargs):
            return self.call(name, fn, *args, note=note, **kwargs)

        setattr(owner, attr, traced)

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def totals(self) -> dict[str, list[float]]:
        """name -> [count, inclusive seconds, self seconds, longest seconds]."""
        out: dict[str, list[float]] = {}
        for span, own in zip(self.spans, self.self_times()):
            entry = out.setdefault(span[0], [0, 0.0, 0.0, 0.0])
            duration = span[2] - span[1]
            entry[0] += 1
            entry[1] += duration
            entry[2] += own
            entry[3] = max(entry[3], duration)
        return out


def _quad_note(result):
    return [result.evaluations, bool(result.converged)]


def instrument_sweep(tracer: Tracer, identities) -> None:
    """Spans on the identities entry points cli calls and on what they call below."""
    for attr in ("verify_bose_integral", "verify_fermi_integral", "verify_eq5", "verify_eq9",
                 "verify_zeta2", "verify_log2_identity", "expanded_real_identity",
                 "verify_odd_zeta", "contour_closure"):
        tracer.wrap(identities, attr, "identities")
    for attr in ("integrate_finite", "integrate_semi_infinite", "integrate_segment"):
        tracer.wrap(identities, attr, "quadrature", note=_quad_note)
    tracer.wrap(identities, "zeta_even_recursive", "exact.zeta_even_recursive")


def instrument_even(tracer: Tracer, cli, exact) -> None:
    """Spans on the exact-core calls of `even` and on render_decimal's calls into machin."""
    tracer.wrap(cli, "zeta_even_recursive", "exact.zeta_even_recursive")
    tracer.wrap(cli, "zeta_even_euler", "exact.zeta_even_euler")
    tracer.wrap(exact, "bernoulli", "exact.bernoulli")
    tracer.wrap(cli, "render_decimal", "exact.render_decimal")
    tracer.wrap(exact, "pi_scaled", "machin.pi_scaled")


def run_main(cli, argv: list[str], tracer: Tracer | None) -> dict:
    """One cli.main call with its stdout captured; never raises."""
    out = io.StringIO()
    code = error = None
    signal.setitimer(signal.ITIMER_REAL, OP_TIMEOUT_S)
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            if tracer is None:
                code = cli.main(argv)
            else:
                code = tracer.call("cli.main", cli.main, argv)
    except SystemExit as exc:  # argparse rejects usage with exit code 2
        code = exc.code
    except OpTimeout:
        error = f"timeout after {OP_TIMEOUT_S} s"
    except Exception as exc:  # a crash is a result to report, not a reason to stop
        error = f"{type(exc).__name__}: {exc}"
    finally:
        elapsed = time.perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, 0)
    return {"argv": argv, "code": code, "error": error, "out": out.getvalue(),
            "ms": elapsed * 1e3}


def _emit(record: dict) -> None:
    # flushed line by line, so the records of a worker that is killed survive it
    sys.stdout.write(json.dumps(record) + "\n")
    sys.stdout.flush()


def _import_package():
    from zeta_recur import cli, exact, identities
    expected = os.path.join(os.environ["PERFBENCH_ROOT"], "src", "zeta_recur")
    if os.path.dirname(os.path.realpath(cli.__file__)) != os.path.realpath(expected):
        raise SystemExit(f"zeta_recur imported from {cli.__file__}, not from {expected}")
    return cli, exact, identities


def sweep(spec: dict) -> None:
    """Rounds of seeded ops until spec["seconds"] have passed (at least one round).

    Emits one line per op and one per round; spec["limit"] caps the ops.  No op
    starts after spec["stop_s"]: a round cut there is emitted with the ops it
    ran, so a sharp slowdown still ends in time with what it measured."""
    cli, _, identities = _import_package()
    tracer = Tracer() if spec["trace"] else None
    if tracer is not None:
        instrument_sweep(tracer, identities)
    limit = spec.get("limit")
    done = 0
    start = time.perf_counter()
    index = 0
    while True:
        ops = sweep_round(spec["seed"], index)[: None if limit is None else limit - done]
        units: list[float] = []
        round_wall = round_cpu = 0.0
        for ran, argv in enumerate(ops):
            if time.perf_counter() - start >= spec["stop_s"]:
                ops = ops[:ran]
                break
            if ran % CALIBRATE_EVERY == 0:
                units.append(calibration_s())
            op_wall, op_cpu = time.perf_counter(), time.process_time()
            record = run_main(cli, argv, tracer)
            round_wall += time.perf_counter() - op_wall
            round_cpu += time.process_time() - op_cpu
            record["round"] = index
            if tracer is not None:
                record["spans"] = tracer.totals()
                record["quad"] = [note for name, *_, note in tracer.spans if name == "quadrature"]
                tracer.spans.clear()
            _emit(record)
        done += len(ops)
        _emit({"round": index, "ops": len(ops), "wall_s": round_wall, "cpu_s": round_cpu,
               "calibration_s": sum(units) / max(1, len(units))})
        index += 1
        if (time.perf_counter() - start >= spec["seconds"] or len(ops) < ROUND_OPS
                or (limit is not None and done >= limit)):
            break


def even(spec: dict) -> None:
    """One traced `even` table in this fresh process, so the memo tables start cold."""
    cli, exact, _ = _import_package()
    tracer = Tracer()
    instrument_even(tracer, cli, exact)
    record = run_main(cli, spec["argv"], tracer)
    record["spans"] = tracer.totals()
    # render_decimal's first pi_scaled call per row, at its first precision d+32
    first_pi = [
        span[2] - span[1]
        for index, span in enumerate(tracer.spans)
        if span[0] == "machin.pi_scaled"
        and tracer.spans[index - 1][0] == "exact.render_decimal"
        and span[3] == index - 1
    ]
    record["first_pi_s"] = first_pi
    _emit(record)


if __name__ == "__main__":
    signal.signal(signal.SIGALRM, _alarm)
    task = json.loads(sys.argv[1])
    {"sweep": sweep, "even": even}[task["mode"]](task)
