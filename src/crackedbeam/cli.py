"""Command-line front end: spectra, mode shapes, frequencies, verification.

Exit codes are a stable contract: 0 success, 2 input validation failure,
3 root-count shortfall, 4 verification failure.  Numeric output carries 15
significant digits, which round-trips exactly through a double, so emitted
files can be parsed and re-emitted byte-identically for diff-based testing.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import replace

import numpy as np

from . import beam_model, shifrin, spectral, transition
from .beam_model import BeamProblem, ValidationError, finite_real, load_problem_file
from .modes import Eigenpair, normalize_eigenpair
from .quadrature import QuadratureRule
from .rootfind import MAX_WAVENUMBER, MIN_WAVENUMBER, RootCountError, wavenumbers

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NO_ROOTS = 3
EXIT_VERIFY = 4

# Most grid points one det-scan evaluates, and most samples per mode; both hold
# every row in memory until they write them, a modes row about 600 bytes, so a
# modes run is also capped at _MAX_MODE_ROWS rows in all.
_MAX_SCAN_POINTS = 100_000
_MAX_MODE_ROWS = 1_000_000

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


def _round15(x: float) -> float:
    return float(f"{x:.15g}")


def _emit_table(args: argparse.Namespace, columns: list[str], rows: list[list]) -> str:
    if args.format == "csv":
        # One %-string for all rows, from the first row's types; floats carry 15 digits.
        row_format = ",".join("%.15g" if isinstance(v, float) else "%s" for v in rows[:1][0])
        return "\n".join([",".join(columns), *(row_format % tuple(row) for row in rows)]) + "\n"
    rows = [[_round15(v) if isinstance(v, float) else v for v in row] for row in rows]
    return json.dumps({"columns": columns, "rows": rows}, indent=2) + "\n"


def _write(args: argparse.Namespace, text: str) -> None:
    if args.output is None:
        sys.stdout.write(text)
    else:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)


def _solve(problem: BeamProblem, args: argparse.Namespace, modes: bool = False):
    """The configured solver's wavenumbers, or its spectrum with ``modes``, and the oracle's.

    The oracle's result comes second under 'both', which runs the jump-amplitude
    solver first and checks the two through :mod:`spectral`; otherwise it is None.
    """
    if modes:
        jump, oracle = shifrin.compute_spectrum, transition.oracle_eigenpairs
    else:
        jump, oracle = shifrin.find_eigenvalues, transition.find_eigenvalues
    solvers = {"shifrin": [jump], "transition": [oracle], "both": [jump, oracle]}[args.solver]
    results = [solve(problem, args.modes, lam_max=args.lambda_max) for solve in solvers]
    if len(results) == 1:
        return results[0], None
    if modes:
        gaps = spectral.cross_solver_gaps(*results)
    else:
        gaps = {"cross_solver_lambda": max(spectral.wavenumber_gaps(*results))}
    for name, worst in gaps.items():
        _check(name, worst)
    return tuple(results)


def cmd_spectrum(args: argparse.Namespace) -> int:
    problem, _, _ = load_problem_file(args.input)
    lams, oracle = _solve(problem, args)
    columns = ["k", "lambda", "lambda4"]
    rows = [[k, lam, lam**4] for k, lam in enumerate(lams, start=1)]
    if oracle is not None:
        columns.append("agreement")
        for row, gap in zip(rows, spectral.wavenumber_gaps(lams, oracle).tolist()):
            row.append(gap)
    _write(args, _emit_table(args, columns, rows))
    return EXIT_OK


def _mode_rows(problem: BeamProblem, spectrum, samples: int) -> list[list]:
    """Rows (k, x, side, phi, dphi, d2phi) of every mode at one sorted table of points."""
    crack_set = set(problem.positions)
    grid = [float(x) for x in np.linspace(0.0, math.pi, samples) if x not in crack_set]
    points = [(x, "") for x in grid]
    points.extend((x, "L") for x in problem.positions)
    points.extend((x, "R") for x in problem.positions)
    points.sort(key=lambda p: (p[0], {"L": 0, "": 1, "R": 2}[p[1]]))
    xs = np.array([x for x, _ in points])
    left = np.array([side == "L" for _, side in points])
    vals = [np.where(left, spectrum.eval(xs, o, "L"), spectrum.eval(xs, o, "R")) for o in range(3)]
    rows = []
    for k, mode in enumerate(np.stack(vals, axis=1), start=1):  # (orders, points) per mode
        rows.extend([k, x, side, *v] for (x, side), *v in zip(points, *mode.tolist()))
    return rows


def cmd_modes(args: argparse.Namespace) -> int:
    problem, _, _ = load_problem_file(args.input)
    spectrum, _ = _solve(problem, args, modes=True)
    rows = _mode_rows(problem, spectrum, args.samples)
    _write(args, _emit_table(args, ["k", "x", "side", "phi", "dphi", "d2phi"], rows))
    return EXIT_OK


def cmd_frequencies(args: argparse.Namespace) -> int:
    problem, beam, _ = load_problem_file(args.input)
    if beam is None:
        raise ValidationError("frequencies need a physical beam block in the input")
    lams, _ = _solve(problem, args)
    omegas = beam_model.natural_frequencies(beam, lams).tolist()
    rows = [[k, lam, w, w / (2.0 * math.pi)] for k, (lam, w) in enumerate(zip(lams, omegas), 1)]
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
    steps = (args.lambda_max - args.lambda_min) / args.step
    if math.isinf(steps) or round(steps) + 1 > _MAX_SCAN_POINTS:
        raise ValidationError("--lambda-max spans too many scan steps")
    n_points = int(round(steps)) + 1
    last = args.lambda_min + (n_points - 1) * args.step  # up to half a step past --lambda-max
    if max(args.lambda_max, last) > MAX_WAVENUMBER:
        raise ValidationError(f"scan must end at a wavenumber of at most {MAX_WAVENUMBER:g}")
    grid = args.lambda_min + np.arange(n_points) * args.step
    dets_s = shifrin.char_det(problem, grid).tolist()
    dets_t = transition.boundary_det(problem, grid).tolist()
    rows = []
    prev_sign = 0.0
    for lam, det_s, det_t in zip(grid.tolist(), dets_s, dets_t):
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
    k, pairs, lams = int(mode) - 1, list(spectrum.pairs), spectrum.lambdas
    # A mode is linear in its jump amplitudes: add the mode of the offsets alone.
    change = shifrin._eigenpairs(problem, lams[k : k + 1], np.array([[*offsets, 0, 0, 0, 0]]))[0]
    form = pairs[k].piecewise
    perturbed = Eigenpair(pairs[k].lam, replace(form, coefficients=form.coefficients + change))
    rule = QuadratureRule.for_problem(problem, lams.max())  # the spectrum's one rule
    pairs[k] = normalize_eigenpair(perturbed, rule)
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


@functools.cache  # built once per process; parsing leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crackedbeam",
        description="Eigenvalues and mode shapes of hinged beams with spring-modeled cracks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, solver: bool = True, fmt: bool = True) -> None:
        p.add_argument("input", help="JSON problem file")
        p.add_argument("--modes", type=int, default=5, help="number of modes (default 5)")
        p.add_argument("--lambda-max", type=float, default=None, help="ceiling on the roots")
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
            try:
                wavenumbers(args.lambda_max)
            except ValueError as exc:
                raise ValidationError(f"--lambda-max: {exc}") from None
        if getattr(args, "modes", 1) < 1:
            raise ValidationError("need at least one mode")
        if getattr(args, "samples", 2) < 2:
            raise ValidationError("need at least two sample points")
        if getattr(args, "samples", 2) > _MAX_SCAN_POINTS:
            raise ValidationError(f"--samples must be at most {_MAX_SCAN_POINTS}")
        if args.command == "modes" and args.modes * args.samples > _MAX_MODE_ROWS:
            raise ValidationError(f"--modes times --samples must be at most {_MAX_MODE_ROWS}")
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
