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
from .modes import Eigenpair, PiecewiseForm, Spectrum
from .modes import normalize_eigenpair  # unused; the benchmark's spans wrap it here


def _interval_maps(problem: BeamProblem, lams: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Transition matrices and end rows for every wavenumber of ``lams``.

    Returns the (n, m, 4, 4) stack of transition matrices across cracks
    1..m and the (n, 2, 4) rows mapping final-interval coefficients to
    (w(pi), w''(pi)).
    """
    powers = modes._powers(lams[:, None])
    states = modes._state_matrix(powers, np.diff(problem.breakpoints))
    jumps = np.tile(np.eye(4), (problem.m, 1, 1))
    jumps[:, 1, 2] = problem.flexibilities
    # Column k of the inverse state map at 0 holds the coefficients of unit state k;
    # C order, as in a one-wavenumber chain, keeps the products on the same code path.
    inverse = np.swapaxes(modes._from_state(powers, np.eye(4)), -1, -2)
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


def _max_abs(stack: np.ndarray, axes) -> np.ndarray:
    """``np.max(np.abs(stack), axis=axes, keepdims=True)`` by halving: the same bits, as a max
    is exact, without numpy's row-by-row reduction of short axes (up to 4x slower here)."""
    out = np.abs(stack)
    for axis in axes:
        lead = (slice(None),) * (axis % out.ndim)
        while (size := out.shape[axis]) > 1:
            half = (size + 1) // 2  # the halves overlap on odd lengths
            out = np.maximum(out[lead + (slice(half),)], out[lead + (slice(size - half, size),)])
    return out


def _reduced_system(factors: np.ndarray, end_rows: np.ndarray) -> np.ndarray:
    """Row-equilibrated 2x2 end-condition systems from ``_interval_maps``.

    A hinged start forces the local coefficient vector to (A1, 0, C1, 0), so
    only two columns of the end rows, propagated back to the first interval,
    matter.  Every chain factor is divided by its max-abs entry (a positive
    scalar, so zeros and signs survive) to keep growth like cosh in check.
    """
    factors = factors / _max_abs(factors, (-2, -1))
    chain = end_rows / _max_abs(end_rows, (-2, -1))
    for i in range(factors.shape[1] - 1, -1, -1):
        chain = chain @ factors[:, i]
    reduced = chain[:, :, [0, 2]]
    scale = _max_abs(reduced, (-1,))
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


def find_eigenvalues(problem: BeamProblem, count: int, lam_max: float | None = None) -> list[float]:
    """First ``count`` eigenvalue wavenumbers by scanning boundary_det."""
    return rootfind.first_roots(boundary_det, problem, count, lam_max)


def _mode_from_root(problem: BeamProblem, lam: float) -> Eigenpair:
    """Unnormalized mode at one located root: the one-root slice of :func:`_modes_from_roots`."""
    return _modes_from_roots(problem, np.array([lam], dtype=float))[0]


def _modes_from_roots(problem: BeamProblem, lams: np.ndarray) -> list[Eigenpair]:
    """Unnormalized modes at the 1-D roots ``lams``: one stacked SVD, then all chains at once."""
    factors, end_rows = _interval_maps(problem, lams)
    _, _, vt = np.linalg.svd(_reduced_system(factors, end_rows))
    coeffs = [np.insert(vt[:, -1], [1, 2], 0.0, axis=1)]  # hinged start (A1, 0, C1, 0)
    for i in range(problem.m):
        coeffs.append((factors[:, i] @ coeffs[-1][:, :, None])[:, :, 0])
    rows = zip(lams.tolist(), np.stack(coeffs, axis=1))
    return [Eigenpair(lam, PiecewiseForm(lam, problem.breakpoints, co)) for lam, co in rows]


def oracle_eigenpairs(problem: BeamProblem, count: int, lam_max: float | None = None) -> Spectrum:
    """Spectrum computed wholly by the transition-matrix route."""
    return modes.solve(problem, boundary_det, _modes_from_roots, count, lam_max)
