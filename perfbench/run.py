"""The zeta-recur benchmark.

    python3 perfbench/run.py --workload even-wide --seed 1 --seconds 20 --trace 0

Run it from the repository root; it runs the package from ./src.  The last
line of stdout is one JSON object with the keys correct, attempted, failed
and metrics: the end-to-end metrics with --trace 0, the per-layer metrics
with --trace 1.  The line before it holds the details of the run (machine
and tool facts, sample counts, failure reasons), and both lines are appended
to perfbench/results/<workload>.jsonl.  perfbench/README.md describes the
workloads, the metrics and what each layer is predicted to move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from importlib import metadata
from pathlib import Path

from oracle import EvenOracle, VerifyOracle
from worker import OP_TIMEOUT_S, ROUND, ROUND_OPS, calibration_s, op_ident

HERE = Path(__file__).resolve().parent
RESULTS = HERE / "results"
# (n, digits) of the two fixed tables, sized so that a run holds dozens of
# tables: the host's speed wanders by tens of percent from one table to the next
EVEN = {"even-wide": (150, 10), "even-deep": (60, 1000)}
WORKLOADS = (*EVEN, "verify-sweep")
# traced `even` table that gives the exact-core layers on verify-sweep
EVEN_PROBE = (40, 100)
SETUP_SAMPLES = 25
# Near the time of worker.calibration_s() on the 2-vCPU host the benchmark was
# sized on (5-7 ms).  End-to-end times are reported at that host speed: each
# measured time is scaled by CALIBRATION_REF_S over the calibration unit's
# time next to it.  The shared host's speed drifts by 10-60% over minutes,
# and the calibration drifts with it.
CALIBRATION_REF_S = 0.005
# calibration units taken between two tables or two set-up samples
CALIBRATION_UNITS = 10
P99_WINDOW = 1000
FLOOR_SAMPLES = 5
# Time limits, set so that a run ends within 180 s even when ops hang: an
# `even` table (~1 s) is killed after EVEN_TIMEOUT_S; a sweep op (~2 ms) raises
# a timeout after OP_TIMEOUT_S, and a sweep starts no op later than STOP_GRACE_S
# after its measuring time.  A sweep worker still alive KILL_GRACE_S after its
# last op could have timed out is killed.
EVEN_TIMEOUT_S = 40.0
STOP_GRACE_S = 10.0
KILL_GRACE_S = 10.0
LAUNCH_GRACE_S = 30.0


@dataclass
class Child:
    """A finished child process, with the resources it used."""

    code: int | None
    out: str
    err: str
    wall_s: float
    cpu_s: float
    rss_mb: float
    timed_out: bool


def run_child(argv: list[str], env: dict, cwd: Path, timeout: float) -> Child:
    """Run argv to completion through spawn.py and collect what it used.

    Wall time runs from the spawn to the reaping of the process; CPU time and
    peak RSS are the child's own, from wait4.  A child that outlives the
    timeout is killed and reported as timed out.
    """
    out_path, err_path = RESULTS / "child.out", RESULTS / "child.err"
    launcher = subprocess.run(
        [sys.executable, "-S", str(HERE / "spawn.py"), repr(timeout), str(out_path),
         str(err_path), *argv],
        env=env, cwd=cwd, stdin=subprocess.DEVNULL, capture_output=True, text=True,
        timeout=timeout + LAUNCH_GRACE_S, check=True)
    wall, cpu, rss_kib, code, timed_out = launcher.stdout.split()
    out, err = (path.read_text(errors="replace") for path in (out_path, err_path))
    return Child(None if timed_out == "1" else int(code), out, err, float(wall),
                 float(cpu), int(rss_kib) / 1024, timed_out == "1")


class Bench:
    """One run: the checkout it measures, its inputs and its tallies."""

    def __init__(self, root: Path, workload: str, seed: int, seconds: float):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.env = dict(os.environ, PERFBENCH_ROOT=str(root), PYTHONPATH=os.pathsep.join(
            p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p))
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []
        self.verify_oracle = VerifyOracle()
        self._even_oracles: dict[tuple[int, int], EvenOracle] = {}

    # -- processes --------------------------------------------------------

    def python(self, *args: str, timeout: float = EVEN_TIMEOUT_S) -> Child:
        return run_child([sys.executable, *args], self.env, self.root, timeout)

    def median_wall(self, samples: int, *args: str) -> float:
        walls = []
        for _ in range(samples):
            child = self.python(*args)
            if child.code != 0:
                raise SystemExit(f"`python {' '.join(args)}` failed:\n{child.err}")
            walls.append(child.wall_s)
        return statistics.median(walls)

    def setup_s(self) -> tuple[list[float], list[float]]:
        """Wall times of fresh `python -m zeta_recur.cli --help` runs, and the
        calibration units before and after each."""
        self.median_wall(1, "-m", "zeta_recur.cli", "--help")  # compile bytecode, warm caches
        walls, units = [], [calibration_unit_s()]
        for _ in range(SETUP_SAMPLES):
            walls.append(self.median_wall(1, "-m", "zeta_recur.cli", "--help"))
            units.append(calibration_unit_s())
        return walls, units

    def worker(self, spec: dict, timeout: float) -> tuple[Child, list[dict], str | None]:
        """Run worker.py; returns it, the records it wrote in full, and why it
        ended early (None when it exited cleanly)."""
        child = self.python(str(HERE / "worker.py"), json.dumps(spec), timeout=timeout)
        written = child.out[: child.out.rfind("\n") + 1]
        records = [json.loads(line) for line in written.splitlines()]
        if child.timed_out:
            return child, records, f"worker killed after {timeout:g} s"
        if child.code != 0:
            return child, records, f"worker exited with code {child.code}: {child.err[-300:]}"
        return child, records, None

    # -- correctness ------------------------------------------------------

    def record(self, failure: str | None) -> None:
        self.attempted += 1
        if failure is not None:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(failure)

    def even_oracle(self, n: int, digits: int) -> EvenOracle:
        if (n, digits) not in self._even_oracles:
            self._even_oracles[n, digits] = EvenOracle(n, digits)
        return self._even_oracles[n, digits]

    def check_even(self, n: int, digits: int, code, out: str, error: str | None = None) -> int:
        """Record one `even` table op; returns its rows with equal=true."""
        if error is not None:
            self.record(f"even n={n} d={digits}: {error}")
            return 0
        try:
            doc = json.loads(out)
        except ValueError:
            self.record(f"even n={n} d={digits}: output does not parse (exit {code})")
            return 0
        problems, equal_rows = self.even_oracle(n, digits).check(doc)
        if code != (0 if equal_rows == n else 1):
            problems.append(f"exit code {code} with {equal_rows}/{n} rows equal")
        self.record(f"even n={n} d={digits}: {'; '.join(problems[:3])}" if problems else None)
        return equal_rows

    def check_op(self, rec: dict) -> bool:
        """Record one sweep op; returns whether it reported passed.

        A usage rejection (exit 2) is not passed and not failed.  A passed
        report must also agree with the mpmath closed forms."""
        where = " ".join(rec["argv"][:-2])
        if rec["error"] is not None:
            self.record(f"{where}: {rec['error']}")
            return False
        if rec["code"] == 2:
            self.record(None)
            return False
        try:
            doc = json.loads(rec["out"])
        except ValueError:
            self.record(f"{where}: output does not parse (exit {rec['code']})")
            return False
        passed = doc.get("passed")
        if not isinstance(passed, bool) or rec["code"] != (0 if passed else 1):
            self.record(f"{where}: exit {rec['code']} with passed={passed!r}")
            return passed is True
        problems = self.verify_oracle.check(rec["argv"], doc) if passed else []
        self.record(f"{where}: {'; '.join(problems)}" if problems else None)
        return passed

    # -- workloads --------------------------------------------------------

    def even_argv(self, n: int, digits: int) -> list[str]:
        return ["-m", "zeta_recur.cli", "even", "--n", str(n), "--digits", str(digits),
                "--format", "json"]

    def even_op(self, n: int, digits: int) -> tuple[Child, int]:
        child = self.python(*self.even_argv(n, digits))
        error = f"timeout after {EVEN_TIMEOUT_S} s" if child.timed_out else None
        return child, self.check_even(n, digits, child.code, child.out, error)

    def even_traced(self, n: int, digits: int) -> tuple[Child, dict | None]:
        """One traced table; its record is None when the worker did not end cleanly."""
        spec = {"mode": "even", "argv": self.even_argv(n, digits)[2:]}
        child, records, stopped = self.worker(spec, EVEN_TIMEOUT_S)
        if stopped is not None:
            self.check_even(n, digits, child.code, "", stopped)
            return child, None
        (rec,) = records
        self.check_even(n, digits, rec["code"], rec["out"], rec["error"])
        return child, rec

    def sweep(self, seconds: float, trace: bool, limit: int | None = None):
        """Run the sweep worker; returns (child, op records, round records)."""
        spec = {"mode": "sweep", "seed": self.seed, "seconds": seconds,
                "stop_s": seconds + STOP_GRACE_S, "trace": trace, "limit": limit}
        child, lines, stopped = self.worker(
            spec, seconds + STOP_GRACE_S + OP_TIMEOUT_S + KILL_GRACE_S)
        ops = [line for line in lines if "argv" in line]
        rounds = [line for line in lines if "argv" not in line]
        for rec in ops:
            rec["passed"] = self.check_op(rec)
        if stopped is not None:  # the op in flight is failed; the ops it wrote still count
            self.record(f"sweep op {len(ops) + 1}: {stopped}")
        return child, ops, rounds

    def end_to_end(self) -> tuple[dict, dict]:
        """Metrics with tracing off, and details of the run.

        Each time is taken raw and at the reference host speed, scaled by the
        calibration next to it: the units before and after a table or set-up
        sample, or those interleaved with a sweep round's ops."""
        setup_walls, setup_units = self.setup_s()
        raw: dict[str, list[float]] = {"setup_s": setup_walls}
        ref: dict[str, list[float]] = {"setup_s": at_ref(setup_walls, setup_units)}
        if self.workload in EVEN:
            n, digits = EVEN[self.workload]
            oracle = self.even_oracle(n, digits)  # built before the clock starts
            ops: list[Child] = []
            units = [calibration_unit_s()]
            equal_rows = 0
            start = time.perf_counter()
            while not ops or time.perf_counter() - start < self.seconds:
                child, equal = self.even_op(n, digits)
                units.append(calibration_unit_s())
                ops.append(child)
                equal_rows += equal
            raw["wall_s"] = [c.wall_s for c in ops]
            raw["cpu_s"] = [c.cpu_s for c in ops]
            raw["op_ms"] = [c.wall_s * 1e3 for c in ops]
            for name in ("wall_s", "cpu_s", "op_ms"):
                ref[name] = at_ref(raw[name], units)
            rss = [c.rss_mb for c in ops]
            pass_ratio = equal_rows / (n * len(ops))
            # a run holds far fewer than the thousand tables a p99 with ten
            # samples beyond it needs, so the tail is read on verify-sweep
            tail = statistics.median
            details = {"n": n, "digits": digits, "tables": len(ops),
                       "guard_zero_share": oracle.guard_zero_share}
        else:
            child, ops, rounds = self.sweep(self.seconds, trace=False)
            unit = {r["round"]: r["calibration_s"] for r in rounds if r["ops"]}
            fallback = statistics.median(unit.values()) if unit else calibration_unit_s()
            units = [unit.get(rec["round"], fallback) for rec in ops]
            full = [r for r in rounds if r["ops"] == ROUND_OPS]
            if full:
                raw["wall_s"], raw["cpu_s"] = [r["wall_s"] for r in full], [r["cpu_s"] for r in full]
                full_units = [r["calibration_s"] for r in full]
            else:  # cut short before one round ended: the worker's time per round of ops
                scale = ROUND_OPS / max(1, len(ops))
                raw["wall_s"], raw["cpu_s"] = [child.wall_s * scale], [child.cpu_s * scale]
                full_units = [fallback]
            for name in ("wall_s", "cpu_s"):
                ref[name] = [t * CALIBRATION_REF_S / u for t, u in zip(raw[name], full_units)]
            # an op that never ended took at least the worker's whole time
            raw["op_ms"] = [rec["ms"] for rec in ops] or [child.wall_s * 1e3]
            ref["op_ms"] = [t * CALIBRATION_REF_S / u
                            for t, u in zip(raw["op_ms"], units or [fallback])]
            rss = [child.rss_mb]
            pass_ratio = sum(rec["passed"] for rec in ops) / max(1, len(ops))

            def tail(latencies: list[float]) -> float:
                """p99 of each window of P99_WINDOW consecutive ops (ten beyond it),
                then the median over windows: one slow stretch moves one window."""
                windows = [latencies[i:i + P99_WINDOW]
                           for i in range(0, len(latencies) - P99_WINDOW + 1, P99_WINDOW)]
                return statistics.median(percentile(w, 99) for w in windows or [latencies])

            details = {"round_ops": ROUND_OPS, "rounds": len(full), "ops": len(ops),
                       "p99_windows": len(ops) // P99_WINDOW}
        details["latency_samples"] = len(raw["op_ms"])
        details["wall_quartiles_s"] = (statistics.quantiles(ref["wall_s"], n=4)
                                       if len(ref["wall_s"]) > 1 else ref["wall_s"])

        def figures(times: dict[str, list[float]]) -> dict[str, float]:
            return {"setup_s": statistics.median(times["setup_s"]),
                    "wall_s": statistics.median(times["wall_s"]),
                    "cpu_s": statistics.median(times["cpu_s"]),
                    "op_ms.p50": statistics.median(times["op_ms"]),
                    "op_ms.p99": tail(times["op_ms"])}

        details["raw"] = figures(raw)
        metrics = {name: (value, "ms" if name.startswith("op_ms") else "s")
                   for name, value in figures(ref).items()}
        metrics["peak_rss_mb"] = (statistics.median(rss), "MB")
        metrics["pass_ratio"] = (pass_ratio, "ratio")
        return metrics, details

    def per_layer(self) -> tuple[dict, dict]:
        """Metrics of single layers from traced runs, and details of the run.

        A workload's own traced pass gives the layers it reaches; the layers
        it does not reach come from a probe (one traced sweep round on the
        even-* workloads, one small traced table on verify-sweep), so every
        metric is defined on every workload.  Read each where the README's
        predictions place it."""
        interpreter = self.median_wall(FLOOR_SAMPLES, "-c", "pass")
        imported = self.median_wall(FLOOR_SAMPLES, "-c", "import zeta_recur.cli") - interpreter
        if self.workload in EVEN:
            n, digits = EVEN[self.workload]
            oracle = self.even_oracle(n, digits)  # built before the clock starts
            untraced, traced, recs = [], [], []
            start = time.perf_counter()
            while not untraced or time.perf_counter() - start < self.seconds:
                untraced.append(self.even_op(n, digits)[0].wall_s)
                child, rec = self.even_traced(n, digits)
                if rec is not None:
                    traced.append(child.wall_s)
                    recs.append(rec)
            if not recs:
                raise SystemExit(f"no traced table ended cleanly: {self.reasons}")
            overhead = statistics.median(traced) / statistics.median(untraced)
            _, sweep_ops, _ = self.sweep(0.0, trace=True)
            main_ms = statistics.median(_self(rec, "cli.main") * 1e3 for rec in recs)
            accounted = {name: statistics.median(_self(rec, name) for rec in recs)
                         for name in recs[0]["spans"]}
            accounted["cli.interpreter"] = interpreter
            accounted["cli.import"] = imported
            details = {"n": n, "digits": digits,
                       "guard_zero_share": oracle.guard_zero_share,
                       "traced_tables": len(recs), "untraced_wall_s": statistics.median(untraced),
                       "self_s": accounted, "self_sum_s": sum(accounted.values())}
            details["accounted_share"] = details["self_sum_s"] / details["untraced_wall_s"]
        else:
            half = self.seconds / 2
            _, plain_ops, _ = self.sweep(half, trace=False)
            _, sweep_ops, _ = self.sweep(half, trace=True)
            # both halves run the same seeded ops in the same order
            paired = min(len(plain_ops), len(sweep_ops))
            if not paired:
                raise SystemExit(f"no sweep op ended in the traced run: {self.reasons}")
            overhead = (sum(rec["ms"] for rec in sweep_ops[:paired])
                        / sum(rec["ms"] for rec in plain_ops[:paired]))
            main_ms = statistics.median(_self(rec, "cli.main") * 1e3 for rec in sweep_ops)
            n, digits = EVEN_PROBE
            recs = [self.even_traced(n, digits)[1]]
            if recs[0] is None:
                raise SystemExit(f"the traced probe table did not end cleanly: {self.reasons}")
            details = {"traced_ops": len(sweep_ops), "paired_ops": paired,
                       "even_probe": {"n": n, "digits": digits}}

        def exact(name: str) -> float:
            return statistics.median(_self(rec, name) for rec in recs)

        metrics = {
            "cli.interpreter_s": (interpreter, "s"),
            "cli.import_s": (imported, "s"),
            "cli.main_overhead_ms": (main_ms, "ms"),
            "exact.zeta_even_recursive_s": (exact("exact.zeta_even_recursive"), "s"),
            "exact.bernoulli_s": (exact("exact.bernoulli"), "s"),
            "exact.zeta_even_euler_s": (exact("exact.zeta_even_euler"), "s"),
            "exact.render_decimal_s": (exact("exact.render_decimal"), "s"),
            "exact.render_decimal_max_ms": (
                statistics.median(rec["spans"]["exact.render_decimal"][3] for rec in recs) * 1e3,
                "ms"),
            "exact.render_guard_retries": (
                recs[0]["spans"]["machin.pi_scaled"][0] - recs[0]["spans"]["exact.render_decimal"][0],
                "count"),
            "exact.coeff_bits": (coeff_bits(recs[0]["out"]), "count"),
            "machin.pi_scaled_s": (exact("machin.pi_scaled"), "s"),
            "machin.pi_scaled_ms": (
                statistics.median(t for rec in recs for t in rec["first_pi_s"]) * 1e3, "ms"),
        }
        metrics.update(quadrature_metrics(sweep_ops))
        for ident, _ in ROUND:
            samples = [rec["spans"]["identities"][1] * 1e3 for rec in sweep_ops
                       if op_ident(rec["argv"]) == ident and "identities" in rec["spans"]]
            if not samples:
                raise SystemExit(f"no traced {ident} op ended: {self.reasons}")
            metrics[f"identities.{ident}.ms_p50"] = (statistics.median(samples), "ms")
        metrics["trace_overhead"] = (overhead, "ratio")
        return metrics, details


def calibration_unit_s() -> float:
    """Mean time of CALIBRATION_UNITS calibration units, taken now."""
    return sum(calibration_s() for _ in range(CALIBRATION_UNITS)) / CALIBRATION_UNITS


def at_ref(times: list[float], units: list[float]) -> list[float]:
    """times[i] at the reference host speed, from the calibration units taken
    just before it (units[i]) and just after it (units[i + 1])."""
    return [t * 2 * CALIBRATION_REF_S / (before + after)
            for t, before, after in zip(times, units, units[1:])]


def _self(rec: dict, name: str) -> float:
    """Self seconds of the spans called `name` in one traced record (0 if none)."""
    return rec["spans"][name][2] if name in rec["spans"] else 0.0


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def coeff_bits(out: str) -> int:
    """Bits of the numerator plus the denominator of the last q_n in an `even` table."""
    last = Fraction(json.loads(out)["rows"][-1]["coeff"])
    return last.numerator.bit_length() + last.denominator.bit_length()


def quadrature_metrics(ops: list[dict]) -> dict:
    """Evaluations per sweep round, their rate, and the share of integrals that converged."""
    per_round: dict[int, int] = {}
    calls = converged = 0
    for rec in ops:
        per_round[rec["round"]] = per_round.get(rec["round"], 0) + sum(e for e, _ in rec["quad"])
        calls += len(rec["quad"])
        converged += sum(c for _, c in rec["quad"])
    evals = sum(per_round.values())
    busy = sum(rec["spans"]["quadrature"][1] for rec in ops if "quadrature" in rec["spans"])
    return {
        "quadrature.evals": (statistics.median(per_round.values()), "count"),
        "quadrature.evals_per_s": (evals / busy, "1/s"),
        "quadrature.converged_ratio": (converged / calls, "ratio"),
    }


def machine_facts(root: Path) -> dict:
    """Facts that decide whether two results may be compared."""
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (root / ".git").exists():
        probe = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                               capture_output=True, text=True)
        commit = probe.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "zeta_recur").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "pinned_cpu": min(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "mpmath": metadata.version("mpmath"),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="zeta-recur benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    root = Path.cwd()
    if not (root / "src" / "zeta_recur" / "cli.py").is_file():
        print(f"no zeta_recur package under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2

    RESULTS.mkdir(exist_ok=True)
    # every process of the run shares one CPU, so the calibration taken
    # between ops runs at the speed the measured processes see
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    bench = Bench(root, args.workload, args.seed, args.seconds)
    metrics, details = bench.per_layer() if args.trace else bench.end_to_end()
    details = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, "machine": machine_facts(root), **details,
               "failed_ratio": bench.failed / bench.attempted, "failures": bench.reasons}
    result = {"correct": bench.failed == 0, "attempted": bench.attempted,
              "failed": bench.failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    with open(RESULTS / f"{args.workload}.jsonl", "a") as log:
        log.write(json.dumps({"details": details, "result": result}) + "\n")
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
