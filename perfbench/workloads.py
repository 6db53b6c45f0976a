"""The benchmark's three workloads, generated from a seed.

Each workload is a fixed list of ops run in passes.  An op's ``steps`` are
the only thing timed; ``digest`` (the op's output as bytes) and ``check``
(the correctness oracle) run outside the timed region.  The library only ever
sees the generated :class:`~crackedbeam.BeamProblem` objects or, for ``cli``,
the argv and the repository's fixture files.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from crackedbeam import BeamProblem, cli, shifrin, transition
from crackedbeam.beam_model import load_problem_file

import checks

MODES = 5
THETA_RANGE = (0.01, 2.0)

# sweep: the crack-detection use of scripts/crack_sweep.py, one to three
# cracks; ten problems of each crack count per pass.
SWEEP_CRACKS = (1, 2, 3) * 10
SWEEP_GAP = 0.1

# dense_cracks: per-call cost instead of call count.  Two thirds of the ops
# have 10 cracks and one third 30, so op_p50_ms sits inside the 10-crack
# group and op_tail_ms inside the 30-crack group instead of between them.
DENSE_CRACKS = (10, 10, 30) * 14
DENSE_GAP = 0.04

CLI_FIXTURES = ("uniform", "one_crack", "two_crack", "node_crack", "steel_beam", "fault_injected")
# validate at 20 modes is expected to pass by the exit-code contract; today
# it exits 4 (the high-mode breakdown).  Such a failure is counted in
# ``failed`` but does not make the run incorrect.
KNOWN_DEFECTS = {
    ("validate", "fixtures/one_crack.json", "--modes", "20"),
    ("validate", "fixtures/two_crack.json", "--modes", "20"),
}


@dataclass(frozen=True)
class Verdict:
    """Outcome of checking one op's first output."""

    ok: bool
    known_defect: bool = False
    modes_checked: int = 0
    modes_failed: int = 0
    bytes_out: int = 0
    det_scan_rows: int = 0


@dataclass(frozen=True)
class Op:
    """One op: calls made back to back, timed one by one.

    The result is the return value of a single step, or the tuple of all
    return values when there are several steps.
    """

    label: str
    steps: tuple[Callable[[], object], ...]
    digest: Callable[[object], bytes]
    check: Callable[[object, bytes], Verdict]

    def run(self):
        return self.combine([step() for step in self.steps])

    @staticmethod
    def combine(results: list):
        return tuple(results) if len(results) > 1 else results[0]


def build(name: str, seed: int, work_dir: Path) -> list[Op]:
    if name == "sweep":
        return [_spectrum_op(p) for p in layouts(random.Random(seed), SWEEP_CRACKS, SWEEP_GAP)]
    if name == "dense_cracks":
        return [_both_op(p) for p in layouts(random.Random(seed), DENSE_CRACKS, DENSE_GAP)]
    if name == "cli":
        return _cli_ops(random.Random(seed), work_dir)
    raise ValueError(f"unknown workload {name}")


def _latin_hypercube(rng: random.Random, n: int, dims: int) -> list[list[float]]:
    """``n`` points in [0, 1)^dims; each coordinate hits each of n strata once."""
    columns = []
    for _ in range(dims):
        strata = list(range(n))
        rng.shuffle(strata)
        columns.append([(s + rng.random()) / n for s in strata])
    return [list(row) for row in zip(*columns)]


def layouts(rng: random.Random, crack_counts, gap: float) -> list[BeamProblem]:
    """One problem per entry of ``crack_counts``.

    Flexibilities are log-uniform in THETA_RANGE and positions uniform with
    at least ``gap`` between neighbouring cracks and supports.  Problems with
    the same crack count share one Latin hypercube, so every seed covers the
    flexibility range evenly and op costs vary little from seed to seed.
    """
    lo, hi = THETA_RANGE
    samples = {
        m: iter(_latin_hypercube(rng, crack_counts.count(m), 2 * m))
        for m in sorted(set(crack_counts))
    }
    out = []
    for m in crack_counts:
        u = next(samples[m])
        thetas = tuple(lo * (hi / lo) ** v for v in u[:m])
        free = math.pi - (m + 1) * gap
        cuts = sorted(free * v for v in u[m:])
        positions = tuple(c + (j + 1) * gap for j, c in enumerate(cuts))
        out.append(BeamProblem(positions=positions, flexibilities=thetas))
    return out


def _spectra_digest(result) -> bytes:
    spectra = result if isinstance(result, tuple) else (result,)
    return b"".join(
        s.lambdas.tobytes() + b"".join(p.piecewise.coefficients.tobytes() for p in s.pairs)
        for s in spectra
    )


def _verdict(failures: list[list[str]]) -> Verdict:
    failed = sum(1 for names in failures if names)
    return Verdict(ok=failed == 0, modes_checked=len(failures), modes_failed=failed)


def _spectrum_op(problem: BeamProblem) -> Op:
    def run():
        return shifrin.compute_spectrum(problem, MODES)

    def check(spectrum, _digest) -> Verdict:
        reference = transition.oracle_eigenpairs(problem, MODES)
        return _verdict(checks.failed_checks(problem, spectrum, reference))

    return Op(f"sweep m={problem.m}", (run,), _spectra_digest, check)


def _both_op(problem: BeamProblem) -> Op:
    def jump():
        return shifrin.compute_spectrum(problem, MODES)

    def oracle():
        return transition.oracle_eigenpairs(problem, MODES)

    def check(result, _digest) -> Verdict:
        jump, oracle = result
        return _verdict(
            checks.failed_checks(problem, jump, oracle)
            + checks.failed_checks(problem, oracle, jump)
        )

    return Op(f"dense m={problem.m}", (jump, oracle), _spectra_digest, check)


def _cli_argvs() -> list[tuple[tuple[str, ...], int]]:
    """Every subcommand over the fixtures it accepts, with the expected exit."""
    path = "fixtures/{}.json".format
    argvs = [(("validate", path(f), "--modes", "5"), cli.EXIT_OK) for f in CLI_FIXTURES[:-1]]
    argvs.append((("validate", path("fault_injected"), "--modes", "5"), cli.EXIT_VERIFY))
    argvs.extend((argv, cli.EXIT_OK) for argv in sorted(KNOWN_DEFECTS))
    for f in CLI_FIXTURES:
        argvs.append((("spectrum", path(f), "--solver", "both"), cli.EXIT_OK))
        argvs.append((("modes", path(f), "--solver", "both"), cli.EXIT_OK))
        argvs.append((("det-scan", path(f)), cli.EXIT_OK))
    argvs.append((("frequencies", path("steel_beam")), cli.EXIT_OK))
    return argvs


def _cli_ops(rng: random.Random, work_dir: Path) -> list[Op]:
    argvs = _cli_argvs()
    rng.shuffle(argvs)
    return [_cli_op(argv, expected, work_dir / f"cli-{i}.out") for i, (argv, expected) in enumerate(argvs)]


def _cli_op(argv: tuple[str, ...], expected: int, out: Path) -> Op:
    def run():
        return cli.main([*argv, "--output", str(out)])

    def digest(code) -> bytes:
        try:
            data = out.read_bytes()
            out.unlink()
        except FileNotFoundError:
            data = b""
        return f"exit {code}\n".encode() + data

    def check(code, data: bytes) -> Verdict:
        body = data.split(b"\n", 1)[1]
        checked = failed = 0
        if argv[0] == "validate":
            problem, _, _ = load_problem_file(argv[1])
            count = int(argv[3])
            spectrum = shifrin.compute_spectrum(problem, count)
            reference = transition.oracle_eigenpairs(problem, count)
            modes = _verdict(checks.failed_checks(problem, spectrum, reference))
            checked, failed = modes.modes_checked, modes.modes_failed
        return Verdict(
            ok=code == expected,
            known_defect=argv in KNOWN_DEFECTS and code == cli.EXIT_VERIFY,
            modes_checked=checked,
            modes_failed=failed,
            bytes_out=len(body),
            det_scan_rows=body.count(b"\n") - 1 if argv[0] == "det-scan" else 0,
        )

    return Op(" ".join(argv), (run,), digest, check)
