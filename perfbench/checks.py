"""Per-mode correctness oracle, run outside the timed region.

Every mode is held to the thresholds of ``crackedbeam.cli.THRESHOLDS``,
imported rather than copied, so loosening a threshold shows up as a change
under ``src/`` and not as a benchmark edit.  Residual families are scaled as
``crackedbeam validate`` scales them.
"""

from __future__ import annotations

import math

import numpy as np

from crackedbeam import BeamProblem, shifrin, spectral, transition
from crackedbeam.cli import CROSS_GRID_POINTS, THRESHOLDS
from crackedbeam.quadrature import QuadratureRule

FAMILIES = (
    "bc_left",
    "bc_right",
    "moment_left",
    "moment_right",
    "jump_disp",
    "jump_moment",
    "jump_shear",
    "crack_law",
)


def failed_checks(problem: BeamProblem, spectrum, reference) -> list[list[str]]:
    """Names of the checks each mode of ``spectrum`` fails.

    ``reference`` is the other solver's spectrum of the same problem and
    length; wavenumbers and sampled mode shapes are compared against it.
    """
    pairs = spectrum.pairs
    lam_top = max(float(spectrum.lambdas.max()), 1.0)
    rule = QuadratureRule.for_problem(problem, lam=lam_top)
    gram = np.abs(spectral.gram_matrix(pairs, rule) - np.eye(len(pairs)))
    grid = np.linspace(0.0, math.pi, CROSS_GRID_POINTS)
    out = []
    for k, (pair, other) in enumerate(zip(pairs, reference.pairs)):
        report = spectral.residual_report(pair, problem)
        worst = report.worst()
        h_norm = spectral.h_inner(pair, pair, rule)
        values = {family: worst[family] / report.scale for family in FAMILIES}
        values["ode_residual"] = report.ode_residual / report.lam**4
        values["h_normalization"] = abs(h_norm - 1.0)
        # An off-diagonal Gram entry is charged to the higher mode of the pair.
        values["gram_identity"] = float(gram[k, : k + 1].max())
        values["rayleigh"] = (
            abs(spectral.a_form(pair, pair, problem, rule) / h_norm - pair.lam**4) / pair.lam**4
        )
        values["cross_solver_lambda"] = abs(pair.lam - other.lam)
        values["cross_solver_modes"] = float(np.max(np.abs(pair.eval(grid) - other.eval(grid))))
        out.append([name for name, value in values.items() if not value <= THRESHOLDS[name]])
    return out


def uniform_beam_ok(count: int) -> bool:
    """Both solvers give lambda_k = k on the uncracked beam."""
    expected = np.arange(1.0, count + 1.0)
    tol = THRESHOLDS["cross_solver_lambda"]
    lams = (
        shifrin.compute_spectrum(BeamProblem(), count).lambdas,
        transition.oracle_eigenpairs(BeamProblem(), count).lambdas,
    )
    return all(np.max(np.abs(lam - expected)) <= tol for lam in lams)
