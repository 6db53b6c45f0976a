"""Command-line front end: spectra, mode shapes, frequencies, verification.

Exit codes are a stable contract: 0 success, 2 input validation failure,
3 root-count shortfall, 4 verification failure.  Numeric output carries 15
significant digits, which round-trips exactly through a double, so emitted
files can be parsed and re-emitted byte-identically for diff-based testing.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace

import numpy as np

from . import shifrin, spectral, transition
from .beam_model import BeamProblem, ValidationError, finite_real, load_problem_file
from .modes import normalize_eigenpair
from .quadrature import QuadratureRule
from .rootfind import DEFAULT_STEP, MIN_WAVENUMBER, RootCountError

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NO_ROOTS = 3
EXIT_VERIFY = 4

#: Verification thresholds; residual families are relative to the report's
#: curvature scale and the ODE residual is relative to lambda**4.
THRESHOLDS = {
    "bc_left": 1e-8,
    "bc_right": 1e-8,
    "moment_left": 1e-8,
    "moment_right": 1e-8,
    "jump_disp": 1e-8,
    "jump_moment": 1e-8,
    "jump_shear": 1e-8,
    "crack_law": 1e-8,
    "ode_residual": 1e-7,
    "h_normalization": 1e-10,
    "gram_identity": 1e-6,
    "rayleigh": 1e-5,
    "cross_solver_lambda": 1e-8,
    "cross_solver_modes": 1e-7,
}

# Kept here because the benchmark's checks import it from this module.
CROSS_GRID_POINTS = spectral.CROSS_GRID_POINTS


class VerificationFailure(RuntimeError):
    """Cross-solver or residual check failed outside cmd_validate."""

    def __init__(self, name: str, detail: str):
        self.name = name
        super().__init__(f"verification check {name} failed: {detail}")


def _check(name: str, worst: float) -> None:
    """Raise VerificationFailure unless ``worst`` is within THRESHOLDS[name]."""
    if not worst <= THRESHOLDS[name]:
        raise VerificationFailure(name, f"worst {worst:.3e} above threshold {THRESHOLDS[name]:g}")


def _fmt_float(x: float) -> str:
    return f"{x:.15g}"


def _round15(x: float) -> float:
    return float(_fmt_float(x))


def _cell(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, float):
        return _fmt_float(value)
    return str(value)


def _emit_table(args: argparse.Namespace, columns: list[str], rows: list[list]) -> str:
    if args.format == "csv":
        lines = [",".join(columns)]
        lines.extend(",".join(_cell(v) for v in row) for row in rows)
        return "\n".join(lines) + "\n"
    body = {
        "columns": columns,
        "rows": [[_round15(v) if isinstance(v, float) else v for v in row] for row in rows],
    }
    return json.dumps(body, indent=2) + "\n"


def _scan_steps(lo: float, hi: float, step: float) -> float:
    """Grid steps from ``lo`` to ``hi``; ValidationError if too many for a double."""
    steps = (hi - lo) / step
    if math.isinf(steps):
        raise ValidationError("--lambda-max spans too many scan steps")
    return steps


def _write(args: argparse.Namespace, text: str) -> None:
    if args.output is None:
        sys.stdout.write(text)
    else:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)


def _solve_lambdas(problem: BeamProblem, args: argparse.Namespace):
    """Wavenumbers by the configured solver; 'both' returns the checked pair."""
    if args.solver in ("shifrin", "both"):
        lam_s = shifrin.find_eigenvalues(problem, args.modes, lam_max=args.lambda_max)
    if args.solver in ("transition", "both"):
        lam_t = transition.find_eigenvalues(problem, args.modes, lam_max=args.lambda_max)
    if args.solver == "shifrin":
        return lam_s, None
    if args.solver == "transition":
        return lam_t, None
    _check("cross_solver_lambda", max(abs(a - b) for a, b in zip(lam_s, lam_t)))
    return lam_s, lam_t


def _spectrum_for_output(problem: BeamProblem, args: argparse.Namespace):
    """Mode shapes by the configured solver, cross-checked for 'both'."""
    if args.solver == "transition":
        return transition.oracle_eigenpairs(problem, args.modes, lam_max=args.lambda_max)
    spectrum = shifrin.compute_spectrum(problem, args.modes, lam_max=args.lambda_max)
    if args.solver == "both":
        oracle = transition.oracle_eigenpairs(problem, args.modes, lam_max=args.lambda_max)
        for name, worst in spectral.cross_solver_gaps(spectrum, oracle).items():
            _check(name, worst)
    return spectrum


def cmd_spectrum(args: argparse.Namespace) -> int:
    problem, _, _ = load_problem_file(args.input)
    lams, oracle = _solve_lambdas(problem, args)
    columns = ["k", "lambda", "lambda4"]
    if args.solver == "both":
        columns.append("agreement")
    rows = []
    for k, lam in enumerate(lams, start=1):
        row = [k, lam, lam**4]
        if args.solver == "both":
            row.append(abs(lam - oracle[k - 1]))
        rows.append(row)
    _write(args, _emit_table(args, columns, rows))
    return EXIT_OK


def _mode_rows(problem: BeamProblem, pair, k: int, samples: int) -> list[list]:
    crack_set = set(problem.positions)
    grid = [x for x in np.linspace(0.0, math.pi, samples) if x not in crack_set]
    points = [(x, "") for x in grid]
    points.extend((x, "L") for x in problem.positions)
    points.extend((x, "R") for x in problem.positions)
    points.sort(key=lambda p: (p[0], {"L": 0, "": 1, "R": 2}[p[1]]))
    xs = np.array([x for x, _ in points])
    left = np.array([side == "L" for _, side in points])
    values = [
        np.where(left, pair.eval(xs, order, "L"), pair.eval(xs, order, "R")).tolist()
        for order in range(3)
    ]
    return [[k, float(x), side, *v] for (x, side), *v in zip(points, *values)]


def cmd_modes(args: argparse.Namespace) -> int:
    problem, _, _ = load_problem_file(args.input)
    spectrum = _spectrum_for_output(problem, args)
    rows = []
    for k, pair in enumerate(spectrum.pairs, start=1):
        rows.extend(_mode_rows(problem, pair, k, args.samples))
    _write(args, _emit_table(args, ["k", "x", "side", "phi", "dphi", "d2phi"], rows))
    return EXIT_OK


def cmd_frequencies(args: argparse.Namespace) -> int:
    problem, beam, _ = load_problem_file(args.input)
    if beam is None:
        raise ValidationError("frequencies need a physical beam block in the input")
    lams, _ = _solve_lambdas(problem, args)
    rows = []
    for k, lam in enumerate(lams, start=1):
        omega = lam**2 * beam.frequency_scale
        rows.append([k, lam, omega, omega / (2.0 * math.pi)])
    _write(args, _emit_table(args, ["k", "lambda", "omega", "f_hz"], rows))
    return EXIT_OK


def cmd_det_scan(args: argparse.Namespace) -> int:
    problem, _, _ = load_problem_file(args.input)
    if args.lambda_min <= 0.0:
        raise ValidationError("scan must start at a positive wavenumber")
    if args.lambda_min < MIN_WAVENUMBER:
        raise ValidationError(f"scan must start at a wavenumber of at least {MIN_WAVENUMBER:g}")
    if args.lambda_max < args.lambda_min:
        raise ValidationError("scan range is reversed")
    if args.step <= 0.0:
        raise ValidationError("scan step must be positive")
    n_steps = int(round(_scan_steps(args.lambda_min, args.lambda_max, args.step)))
    grid = [args.lambda_min + k * args.step for k in range(n_steps + 1)]
    dets_s = shifrin.char_det(problem, np.array(grid)).tolist()
    dets_t = transition.boundary_det(problem, np.array(grid)).tolist()
    rows = []
    prev_sign = 0.0
    for lam, det_s, det_t in zip(grid, dets_s, dets_t):
        sign = math.copysign(1.0, det_s) if det_s != 0.0 else 0.0
        changed = int(prev_sign != 0.0 and sign != 0.0 and sign != prev_sign)
        rows.append([lam, det_s, det_t, changed])
        prev_sign = sign if sign != 0.0 else prev_sign
    columns = ["lambda", "det_shifrin", "det_transition", "sign_change"]
    _write(args, _emit_table(args, columns, rows))
    return EXIT_OK


def _perturbed_mode(problem: BeamProblem, doc: dict, spectrum):
    """Apply the debug fault injection: offset jump amplitudes of one mode, renormalized."""
    debug = doc.get("debug_perturb_delta")
    if debug is None:
        return spectrum
    if not isinstance(debug, dict) or set(debug) - {"mode", "offsets"}:
        raise ValidationError("debug_perturb_delta needs exactly {mode, offsets}")
    mode = finite_real(debug.get("mode", 1), "debug_perturb_delta mode")
    if mode not in range(1, len(spectrum.pairs) + 1):
        raise ValidationError(f"debug_perturb_delta mode {mode:g} out of range")
    offsets = debug.get("offsets", [])
    if not isinstance(offsets, list) or len(offsets) != problem.m:
        raise ValidationError("debug_perturb_delta offsets must list one value per crack")
    offsets = [finite_real(v, "debug_perturb_delta offset") for v in offsets]
    form = spectrum.pairs[int(mode) - 1].shifrin
    pair = shifrin.build_eigenfunction(problem, replace(form, deltas=form.deltas + offsets))
    pairs = list(spectrum.pairs)
    rule = QuadratureRule.for_problem(problem, lam=form.lam)
    pairs[int(mode) - 1] = normalize_eigenpair(pair, rule)
    return replace(spectrum, pairs=tuple(pairs))


def cmd_validate(args: argparse.Namespace) -> int:
    problem, _, doc = load_problem_file(args.input)
    spectrum = shifrin.compute_spectrum(problem, args.modes, lam_max=args.lambda_max)
    oracle = transition.oracle_eigenpairs(problem, args.modes, lam_max=args.lambda_max)
    spectrum = _perturbed_mode(problem, doc, spectrum)

    worst = spectral.verify(problem, spectrum, oracle)
    checks = [
        {
            "name": name,
            "worst": _round15(worst[name]),
            "threshold": threshold,
            "passed": worst[name] <= threshold,
        }
        for name, threshold in THRESHOLDS.items()
    ]
    passed = all(c["passed"] for c in checks)
    body = {
        "problem": args.input,
        "n_modes": args.modes,
        "passed": passed,
        "failed_checks": [c["name"] for c in checks if not c["passed"]],
        "checks": checks,
    }
    _write(args, json.dumps(body, indent=2) + "\n")
    return EXIT_OK if passed else EXIT_VERIFY


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crackedbeam",
        description="Eigenvalues and mode shapes of hinged beams with spring-modeled cracks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, solver: bool = True, fmt: bool = True) -> None:
        p.add_argument("input", help="JSON problem file")
        p.add_argument("--modes", type=int, default=5, help="number of modes (default 5)")
        p.add_argument("--lambda-max", type=float, default=None, help="scan ceiling")
        if solver:
            p.add_argument(
                "--solver",
                choices=("shifrin", "transition", "both"),
                default="shifrin",
                help="which solver to run (both adds agreement checking)",
            )
        if fmt:
            p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--output", default=None, help="write here instead of stdout")

    common(sub.add_parser("spectrum", help="wavenumbers and eigenvalues"))
    p_modes = sub.add_parser("modes", help="sampled mode shapes")
    common(p_modes)
    p_modes.add_argument("--samples", type=int, default=201, help="grid points (default 201)")
    common(sub.add_parser("frequencies", help="dimensional natural frequencies"))
    p_val = sub.add_parser("validate", help="run the verification suite (JSON report)")
    common(p_val, solver=False, fmt=False)
    p_scan = sub.add_parser("det-scan", help="characteristic determinants on a grid")
    p_scan.add_argument("input", help="JSON problem file")
    p_scan.add_argument("--lambda-min", type=float, default=0.5)
    p_scan.add_argument("--lambda-max", type=float, default=5.5)
    p_scan.add_argument("--step", type=float, default=0.01)
    p_scan.add_argument("--format", choices=("csv", "json"), default="csv")
    p_scan.add_argument("--output", default=None)
    return parser


_COMMANDS = {
    "spectrum": cmd_spectrum,
    "modes": cmd_modes,
    "frequencies": cmd_frequencies,
    "validate": cmd_validate,
    "det-scan": cmd_det_scan,
}


def _error_body(kind: str, message: str, **extra) -> str:
    body = {"error": {"type": kind, "message": message, **extra}}
    return json.dumps(body, indent=2) + "\n"


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        for name in ("lambda_min", "lambda_max", "step"):
            value = getattr(args, name, None)
            if value is not None:
                setattr(args, name, finite_real(value, "--" + name.replace("_", "-")))
        if args.command != "det-scan" and args.lambda_max is not None:
            _scan_steps(DEFAULT_STEP, args.lambda_max, DEFAULT_STEP)
        if getattr(args, "modes", 1) < 1:
            raise ValidationError("need at least one mode")
        if getattr(args, "samples", 2) < 2:
            raise ValidationError("need at least two sample points")
        return _COMMANDS[args.command](args)
    except (ValidationError, OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(_error_body("validation", str(exc)))
        return EXIT_VALIDATION
    except RootCountError as exc:
        sys.stderr.write(
            _error_body("root_shortfall", str(exc), found=len(exc.found), requested=exc.requested)
        )
        return EXIT_NO_ROOTS
    except VerificationFailure as exc:
        sys.stderr.write(_error_body("verification", str(exc), check=exc.name))
        return EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
