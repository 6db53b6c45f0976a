"""Independent eigen-solver that propagates local coefficients across cracks.

On each subinterval the mode is A sin + B cos + C sinh + D cosh of the local
coordinate.  A 4x4 transition matrix carries the coefficient vector across a
crack by evaluating the end state, adding the spring's slope jump, and
re-anchoring the local origin.  Hinged supports kill two of the four
starting coefficients, so the two end conditions close a 2x2 system whose
determinant vanishes exactly at the eigenvalues.

This solver shares no assembly code with the jump-amplitude solver; the two
agreeing is a genuine cross-check.
"""

from __future__ import annotations

import numpy as np

from . import modes, rootfind
from .beam_model import BeamProblem
from .modes import Eigenpair, PiecewiseForm, Spectrum, coefficients_from_state, local_state_matrix
from .modes import normalize_eigenpair  # unused; the benchmark's spans wrap it here


def _interval_maps(problem: BeamProblem, lams: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Transition matrices and end rows for every wavenumber of ``lams``.

    Returns the (n, m, 4, 4) stack of transition matrices across cracks
    1..m and the (n, 2, 4) rows mapping final-interval coefficients to
    (w(pi), w''(pi)).
    """
    states = local_state_matrix(lams[:, None], np.diff(problem.breakpoints))
    jumps = np.tile(np.eye(4), (problem.m, 1, 1))
    jumps[:, 1, 2] = problem.flexibilities
    # Column k of the inverse state map at 0 holds the coefficients of unit state k;
    # C order, as in a one-wavenumber chain, keeps the products on the same code path.
    inverse = np.swapaxes(coefficients_from_state(lams[:, None], np.eye(4)), -1, -2)
    factors = np.ascontiguousarray(inverse)[:, None] @ jumps @ states[:, :-1]
    return factors, states[:, -1, [0, 2]]


def transition_matrix(problem: BeamProblem, i: int, lam: float) -> np.ndarray:
    """Map coefficients on interval i to coefficients on interval i+1.

    Built as (state-to-coefficients at 0) o (slope jump) o (state at the
    interval length): continuity of value, moment and shear is the identity
    part, and the spring adds theta_i times the moment to the slope.
    """
    if not 1 <= i <= problem.m:
        raise IndexError(f"crack index {i} out of range 1..{problem.m}")
    if lam <= 0.0:
        raise ValueError("wavenumber must be positive")
    return _interval_maps(problem, np.array([lam], dtype=float))[0][0, i - 1]


def _max_abs(stack: np.ndarray) -> np.ndarray:
    """Max-abs entry of each matrix in a stack, shaped to divide it."""
    return np.max(np.abs(stack), axis=(-2, -1), keepdims=True)


def _reduced_system(factors: np.ndarray, end_rows: np.ndarray) -> np.ndarray:
    """Row-equilibrated 2x2 end-condition systems from ``_interval_maps``.

    A hinged start forces the local coefficient vector to (A1, 0, C1, 0), so
    only two columns of the end rows, propagated back to the first interval,
    matter.  Every chain factor is divided by its max-abs entry (a positive
    scalar, so zeros and signs survive) to keep growth like cosh in check.
    """
    factors = factors / _max_abs(factors)
    chain = end_rows / _max_abs(end_rows)
    for i in range(factors.shape[1] - 1, -1, -1):
        chain = chain @ factors[:, i]
    reduced = chain[:, :, [0, 2]]
    scale = np.max(np.abs(reduced), axis=2, keepdims=True)
    return reduced / np.where(scale > 0.0, scale, 1.0)


def boundary_det(problem: BeamProblem, lams):
    """Determinant of the reduced 2x2 end-condition system.

    ``lams`` is one wavenumber (the result is a float) or an array of them
    (the result has its shape); the transfer chains of all wavenumbers are
    propagated together.
    """
    return rootfind.blockwise(
        lambda block: np.linalg.det(_reduced_system(*_interval_maps(problem, block))),
        lams,
        16 * (problem.m + 1),
    )


def find_eigenvalues(
    problem: BeamProblem,
    count: int,
    lam_max: float | None = None,
    step: float = rootfind.DEFAULT_STEP,
) -> list[float]:
    """First ``count`` eigenvalue wavenumbers by scanning boundary_det."""
    return rootfind.first_roots(boundary_det, problem, count, lam_max, step)


def _mode_from_root(problem: BeamProblem, lam: float) -> Eigenpair:
    """Per-interval coefficients of the mode at one located root, unnormalized."""
    factors, end_rows = _interval_maps(problem, np.array([lam]))
    _, _, vt = np.linalg.svd(_reduced_system(factors, end_rows)[0])
    a1, c1 = vt[-1]

    coeffs = [np.array([a1, 0.0, c1, 0.0])]
    for factor in factors[0]:
        coeffs.append(factor @ coeffs[-1])
    pw = PiecewiseForm(
        lam=lam,
        breakpoints=np.asarray(problem.breakpoints),
        coefficients=np.vstack(coeffs),
    )
    return Eigenpair(lam=lam, piecewise=pw)


def oracle_eigenpairs(
    problem: BeamProblem,
    count: int,
    lam_max: float | None = None,
    step: float = rootfind.DEFAULT_STEP,
) -> Spectrum:
    """Spectrum computed wholly by the transition-matrix route."""
    return modes.solve(problem, boundary_det, _mode_from_root, count, lam_max, step)
