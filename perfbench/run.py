"""Layered benchmark for crackedbeam.

Run from the repository root:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 27 --trace 0

One process, one thread, one client in a closed loop: each op starts when
the previous one returns.  A run is a whole number of passes over the
workload's op list, at least ``--seconds`` of op time and MIN_OPS ops.
Timings are taken at reference speed (see calibrate.py); the wall-clock
figures are printed too.  Every op's output is checked outside the timed
region: the first output of each op by the correctness oracle, later ones
for being byte-identical to the first.

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json;
``--trace 1`` runs an untraced and a traced phase and reports the per-layer
metrics.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import os

# Pin BLAS and OpenMP pools before numpy is first imported, here and in the
# set-up subprocesses, which inherit the environment.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import json
import math
import re
import resource
import statistics
import subprocess
import sys
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import calibrate
import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-out"
WORKLOADS = ("sweep", "dense_cracks", "cli")

SETUP_REPEATS = 7
IMPORTTIME_REPEATS = 3
# op_tail_ms is the highest of these percentiles with at least MIN_BEYOND
# samples above it; a measured run has at least MIN_OPS ops, so p75 or
# higher always qualifies.  p95 is left out: cli reaches the 200 ops it
# needs only in some runs, and switching percentiles between runs would
# read as a change in latency.
TAIL_PERCENTILES = (90, 75, 50)
MIN_BEYOND = 10
MIN_OPS = 40


def _parse(argv):
    parser = argparse.ArgumentParser(description="crackedbeam benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


# -- set-up time ------------------------------------------------------------

def _import_cmd(*flags: str) -> list[str]:
    return [sys.executable, "-s", *flags, "-c", "import crackedbeam.cli"]


def _import_env() -> dict[str, str]:
    return {**os.environ, "PYTHONPATH": str(SRC)}


def setup_seconds(repeats: int) -> list[float]:
    """Wall time of fresh interpreters importing crackedbeam.cli, at reference speed.

    One unmeasured import first, so bytecode caches are written.
    """
    env = _import_env()
    subprocess.run(_import_cmd(), env=env, check=True)
    times, refs = [], []
    for _ in range(repeats):
        refs.append(calibrate.sample_ns())
        t0 = time.perf_counter_ns()
        subprocess.run(_import_cmd(), env=env, check=True)
        times.append(time.perf_counter_ns() - t0)
    refs.append(calibrate.sample_ns())
    return [t / 1e9 for t in calibrate.rescale(times, refs)]


_IMPORTTIME = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \|\s*(\S+)")


def import_breakdown(repeats: int) -> tuple[float, float]:
    """Median ms importing numpy (cumulative) and crackedbeam's own modules (self)."""
    numpy_ms, own_ms = [], []
    for _ in range(repeats):
        proc = subprocess.run(
            _import_cmd("-X", "importtime"), env=_import_env(), check=True,
            capture_output=True, text=True,
        )
        numpy_us = own_us = 0
        for match in _IMPORTTIME.finditer(proc.stderr):
            self_us, cumulative_us, module = match.groups()
            if module == "numpy":
                numpy_us = int(cumulative_us)
            elif module.split(".")[0] == "crackedbeam":
                own_us += int(self_us)
        numpy_ms.append(numpy_us / 1e3)
        own_ms.append(own_us / 1e3)
    return statistics.median(numpy_ms), statistics.median(own_ms)


# -- the closed loop -----------------------------------------------------------

@dataclass
class Sample:
    """Raw step durations (ns) of one phase, with the reference-kernel samples.

    ``refs[k]`` is taken just before step k, plus one after the last step;
    ``steps_per_op`` groups the steps back into ops.
    """

    steps: list[int] = field(default_factory=list)
    refs: list[int] = field(default_factory=list)
    steps_per_op: list[int] = field(default_factory=list)
    passes: int = 0

    def _per_op(self, durations) -> list:
        out, k = [], 0
        for n in self.steps_per_op:
            out.append(sum(durations[k : k + n]))
            k += n
        return out

    @property
    def latencies(self) -> list[int]:
        return self._per_op(self.steps)

    def calibrated(self) -> list[float]:
        return self._per_op(calibrate.rescale(self.steps, self.refs))


class Session:
    """Runs passes over the ops and keeps every op's first output and verdict."""

    def __init__(self, ops, tracer=None):
        self.ops = ops
        self.tracer = tracer
        self.first: dict[int, tuple[bytes, object]] = {}
        self.attempted = 0
        self.failed = 0
        self.unexpected: list[str] = []

    def measure(self, budget_s: float, min_ops: int = 0, traced: bool = False) -> Sample:
        """Whole passes until at least ``budget_s`` of op time and ``min_ops`` ops.

        Op time is counted at reference speed, so the amount of work in a run
        does not depend on how fast the machine happens to be.
        """
        sample = Sample()
        while True:
            for i, op in enumerate(self.ops):
                self._one(i, op, sample, traced)
            sample.passes += 1
            spent = sum(d * calibrate.REFERENCE_NS / r for d, r in zip(sample.steps, sample.refs))
            if spent >= budget_s * 1e9 and len(sample.steps_per_op) >= min_ops:
                sample.refs.append(calibrate.sample_ns())
                return sample

    def _one(self, i: int, op, sample: Sample, traced: bool) -> None:
        """Run one op, timing each step after a reference-kernel sample."""
        tracer = self.tracer if traced else None
        record = warnings.catch_warnings(record=True) if tracer else contextlib.nullcontext()
        results = []
        error = None
        with record as caught:
            if tracer is not None:
                warnings.simplefilter("always")
                tracer.op_id = self.attempted
            for step in op.steps:
                sample.refs.append(calibrate.sample_ns())
                t0 = time.perf_counter_ns()
                try:
                    results.append(step())
                except Exception as exc:  # an op failure is counted; the run goes on
                    error = exc
                sample.steps.append(time.perf_counter_ns() - t0)
                if error is not None:
                    break
        sample.steps_per_op.append(len(results) + (error is not None))
        self.attempted += 1
        if tracer is not None:
            tracer.op_id = -1
            tracer.counts["shifrin.warnings"] += sum(
                1 for w in caught
                if issubclass(w.category, RuntimeWarning) and w.filename.endswith("shifrin.py")
            )
        if error is not None:
            self._fail(f"{op.label}: raised {type(error).__name__}: {error}")
            return
        result = op.combine(results)
        data = op.digest(result)
        if i not in self.first:
            self.first[i] = (data, self._check(op, result, data))
        reference, verdict = self.first[i]
        if data != reference:
            self._fail(f"{op.label}: output differs from its first run")
        elif verdict.known_defect:
            self.failed += 1
        elif not verdict.ok:
            self._fail(f"{op.label}: failed its check")

    def _check(self, op, result, data):
        try:
            return op.check(result, data)
        except Exception as exc:  # the oracle itself failed on this output
            from workloads import Verdict

            print(f"perfbench: {op.label}: check raised {type(exc).__name__}: {exc}", file=sys.stderr)
            return Verdict(ok=False)

    def _fail(self, message: str) -> None:
        """Count an unexpected failure; each distinct message is printed once."""
        self.failed += 1
        if message not in self.unexpected:
            self.unexpected.append(message)
            print(f"perfbench: {message}", file=sys.stderr)

    def per_pass(self, name: str) -> int:
        """Sum of one Verdict field over the ops of a pass."""
        return sum(getattr(verdict, name) for _, verdict in self.first.values())


# -- statistics ----------------------------------------------------------------

def tail(latencies_ns: list[int]) -> tuple[int, float]:
    """(percentile, ms) at the highest TAIL_PERCENTILES entry with enough samples beyond."""
    ordered = sorted(latencies_ns)
    n = len(ordered)
    for pct in TAIL_PERCENTILES:
        rank = math.ceil(pct / 100 * n)
        if n - rank >= MIN_BEYOND:
            return pct, ordered[rank - 1] / 1e6
    return 50, statistics.median(ordered) / 1e6


def end_to_end(ops, seconds: float) -> tuple[dict, Session]:
    setup = statistics.median(setup_seconds(SETUP_REPEATS))
    session = Session(ops)
    sample = session.measure(seconds, min_ops=MIN_OPS)
    latencies = sample.calibrated()
    pct, tail_ms = tail(latencies)
    n = len(latencies)
    raw = sample.latencies
    print(f"samples: {n} ops in {sample.passes} passes; op_tail_ms is p{pct}")
    print(
        f"wall clock: op_p50_ms = {statistics.median(raw) / 1e6:.6g}, "
        f"op_tail_ms = {tail(raw)[1]:.6g}, ops_per_s = {n / (sum(raw) / 1e9):.6g}"
    )
    values = {
        "setup_s": setup,
        "op_p50_ms": statistics.median(latencies) / 1e6,
        "op_tail_ms": tail_ms,
        "ops_per_s": n / (sum(latencies) / 1e9),
        "ok_frac": 1.0 - session.failed / session.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return values, session


def per_layer(ops, seconds: float, workload: str, seed: int) -> tuple[dict, Session]:
    numpy_ms, own_ms = import_breakdown(IMPORTTIME_REPEATS)
    tracer = spans.Tracer()
    session = Session(ops, tracer)
    plain = session.measure(seconds / 2)
    tracer.install()
    try:
        traced = session.measure(seconds / 2, traced=True)
    finally:
        tracer.remove()
    tracer.save(WORK / f"spans-{workload}-seed{seed}.npz")

    # Spans are rescaled to reference speed with the factor of their op.
    n_plain, n_ops = len(plain.latencies), len(traced.latencies)
    traced_cal = traced.calibrated()
    op_scale = [1.0] * n_plain + [c / r for c, r in zip(traced_cal, traced.latencies)]
    layers = tracer.layer_totals(op_scale)
    counts = tracer.counts
    passes = traced.passes

    def calls(name):
        return layers.get(name, {}).get("calls", 0)

    def us_per_call(name):
        entry = layers.get(name)
        return entry["total_ns"] / entry["calls"] / 1e3 if entry and entry["calls"] else 0.0

    roots = counts["rootfind.roots"]
    values = {
        "import.numpy_ms": numpy_ms,
        "import.crackedbeam_ms": own_ms,
        "rootfind.det_evals": counts["rootfind.det_evals"] / passes,
        "rootfind.bisect_evals": counts["rootfind.bisect_evals"] / passes,
        "rootfind.evals_per_root": counts["rootfind.det_evals"] / roots if roots else 0.0,
        "rootfind.diagnostics": counts["rootfind.diagnostics"] / passes,
        "shifrin.char_det.calls": calls("shifrin.char_det") / passes,
        "shifrin.char_det.us_per_call": us_per_call("shifrin.char_det"),
        "shifrin.warnings": counts["shifrin.warnings"] / passes,
        "transition.boundary_det.calls": calls("transition.boundary_det") / passes,
        "transition.boundary_det.us_per_call": us_per_call("transition.boundary_det"),
        "quadrature.for_problem.calls": calls("quadrature.for_problem") / passes,
        "quadrature.nodes": counts["quadrature.nodes"] / passes,
        "cli.bytes_out": session.per_pass("bytes_out"),
        "verify.modes_checked": session.per_pass("modes_checked"),
        "verify.modes_failed": session.per_pass("modes_failed"),
        "fail_frac": session.failed / session.attempted,
    }
    for name in spans.Tracer.span_names():
        values[f"{name}.self_ms"] = layers.get(name, {}).get("self_ns", 0.0) / n_ops / 1e6

    plain_cal = plain.calibrated()
    op_spans = tracer.op_span_ns(op_scale)[n_plain:]
    det_calls = calls("shifrin.char_det") + calls("transition.boundary_det")
    counted = counts["rootfind.det_evals"] + 2 * session.per_pass("det_scan_rows") * passes
    values.update({
        "trace.overhead_frac": 1.0 - (sum(plain_cal) / n_plain) / (sum(traced_cal) / n_ops),
        "trace.op_p50_ms": statistics.median(op_spans) / 1e6,
        "trace.p50_gap_frac": 1.0 - statistics.median(plain_cal) / statistics.median(op_spans),
        "trace.span_cover_frac": sum(op_spans) / sum(traced_cal),
        "trace.det_calls_unaccounted": (det_calls - counted) / passes,
    })
    print(f"traced: {n_ops} ops in {passes} passes; untraced: {len(plain.latencies)} ops")
    return values, session


# -- entry point ----------------------------------------------------------------

def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "crackedbeam" / "__init__.py").is_file():
        print(f"perfbench: no crackedbeam sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(SRC))
    import crackedbeam

    if Path(crackedbeam.__file__).resolve().parent != SRC / "crackedbeam":
        print(f"perfbench: imported crackedbeam from {crackedbeam.__file__}", file=sys.stderr)
        return 2
    import checks
    import workloads

    os.chdir(ROOT)
    WORK.mkdir(exist_ok=True)
    ops = workloads.build(args.workload, args.seed, WORK)
    ops[0].digest(ops[0].run())  # lazy set-up inside numpy and the package, untimed
    reference_ok = checks.uniform_beam_ok(workloads.MODES)
    if not reference_ok:
        print("perfbench: uncracked beam does not give lambda_k = k", file=sys.stderr)

    if args.trace:
        values, session = per_layer(ops, args.seconds, args.workload, args.seed)
        wanted = spec["per_layer"]
    else:
        values, session = end_to_end(ops, args.seconds)
        wanted = spec["end_to_end"]
    metrics = {}
    for entry in wanted:
        name, unit = entry["name"], entry["unit"]
        metrics[name] = {"value": values[name], "unit": unit}
        print(f"{name} = {values[name]:.6g} {unit}")
    result = {
        "correct": reference_ok and not session.unexpected,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
