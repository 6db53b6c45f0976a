"""Eigen-solver that carries one slope-jump unknown per crack.

The mode is written as

    phi = A cos(lam x) + B sin(lam x) + P e**(-lam x) + Q e**(-lam (pi - x))
          + sum_i Delta_i z_i(x),
    z_i(x) = H(x - x_i) (sin + sinh)(lam (x - x_i)) / (2 lam),

where z_i has exactly a unit slope jump at x_i and continuous value, moment
and shear, so Delta_i = J[phi'](x_i).  The crack laws and the hinged
supports then form an (m+4) x (m+4) linear system in (Delta_1..Delta_m) and
(A, B, P, Q), the paper's Modified Shifrin system, whose determinant
vanishes exactly at the eigenvalues.  Boundary rows use the combinations
(lam^2 phi +- phi'')/(2 lam^2), which separate the decaying and oscillatory
parts, so the four smooth-part columns stay bounded.  The jump responses
still grow: the ladder entry of crack row j holds sinh(lam (x_j - x_i)) for
every earlier crack i, and the right-support row holds sinh(lam (pi - x_i)),
so entries grow with the distance from a crack to any later crack or to the
right support, not with the spacing of adjacent cracks.  Row equilibration
keeps the determinant representable all the same.  The paper's classical
parametrization of the same mode lives in :mod:`crackedbeam.paper`.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import modes, rootfind
from .beam_model import BeamProblem
from .modes import Eigenpair, PiecewiseForm, Spectrum, _basis, _basis_rows, is_right_side
from .modes import normalize_eigenpair  # unused; the benchmark's spans wrap it here

# Second-smallest singular value below this fraction of the largest flags a
# numerically multiple eigenvalue.
DEGENERACY_RATIO = 1e-8


def _jump_response(lam: float, xi: np.ndarray, order: int) -> np.ndarray:
    """Order-th derivative of (sin + sinh)(lam u)/(2 lam) at u = xi >= 0.

    This is the homogeneous solution whose state at 0 is (0, 1, 0, 0): the
    pure unit slope jump.
    """
    sin_part, _, sinh_part, _ = _basis_rows(_basis(lam * xi), order)
    return lam ** (order - 1) * 0.5 * (sin_part + sinh_part)


@dataclass(frozen=True)
class ShifrinForm:
    """Solution vector of the assembled system.

    ``deltas`` are the slope-jump amplitudes J[phi'](x_i).  ``coefficients``
    holds (A, B, P, Q) multiplying cos(lam x), sin(lam x), e**(-lam x) and
    e**(-lam (pi - x)); the classical cosh/sinh pair is available through
    :func:`crackedbeam.paper.classical_coefficients`.
    """

    lam: float
    deltas: np.ndarray
    coefficients: np.ndarray
    positions: tuple[float, ...]

    def __post_init__(self) -> None:
        de = np.asarray(self.deltas, dtype=float)
        co = np.asarray(self.coefficients, dtype=float)
        if co.shape != (4,):
            raise ValueError("coefficients must be the four values (A, B, P, Q)")
        if de.shape != (len(self.positions),):
            raise ValueError(f"{len(self.positions)} cracks need as many jump amplitudes")
        object.__setattr__(self, "deltas", de)
        object.__setattr__(self, "coefficients", co)

    def _smooth(self, x: np.ndarray, order: int) -> np.ndarray:
        lam = self.lam
        a, b, p, q = self.coefficients
        t = lam * np.asarray(x, dtype=float)
        d_sin, d_cos, _, _ = _basis_rows(_basis(t), order)
        trig = a * d_cos + b * d_sin
        left = p * np.exp(-t)
        right = q * np.exp(-lam * math.pi + t)
        sign = -1.0 if order % 2 else 1.0
        return lam**order * (trig + sign * left + right)

    def eval(self, x, order: int = 0, side: str = "R"):
        """Derivative of phi at ``x``; orders 0..4, one-sided at cracks."""
        if order not in (0, 1, 2, 3, 4):
            raise ValueError(f"order {order} not in 0..4")
        xa = np.asarray(x, dtype=float)
        scalar = xa.ndim == 0
        xf = np.atleast_1d(xa).astype(float)
        from_right = is_right_side(side)
        x_i = np.asarray(self.positions, dtype=float)[:, None]
        active = xf >= x_i if from_right else xf > x_i
        response = _jump_response(self.lam, np.where(active, xf - x_i, 0.0), order)
        out = self._smooth(xf, order)
        # Cracks are added one at a time, in order: every point then sees the
        # same sums whether it is evaluated alone or in an array.
        for term in np.where(active, self.deltas[:, None] * response, 0.0):
            out = out + term
        return float(out[0]) if scalar else out

    def scaled(self, factor: float) -> "ShifrinForm":
        return replace(
            self, deltas=self.deltas * factor, coefficients=self.coefficients * factor
        )


@functools.lru_cache(maxsize=64)
def _ladder(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Indices (j, i), i < j, of the jump-response ladder in the Delta block.

    Cached because building them costs about as much as the rest of a small
    assembly; the arrays are read-only since every caller shares them.
    """
    rows, cols = np.tril_indices(m, -1)
    rows.flags.writeable = cols.flags.writeable = False
    return rows, cols


def _system_stack(problem: BeamProblem, lams: np.ndarray) -> np.ndarray:
    """U(lam) for every wavenumber of the 1-D array ``lams``: shape (n, m+4, m+4).

    Crack row j states ``Delta_j = theta_j * phi''(x_j)`` with phi'' expanded
    into the unknowns; the jump-response ladder is lower triangular in the
    Delta block with an exact unit diagonal since z_j''(x_j+) = 0.  Hinged
    supports demand phi = phi'' = 0 at both ends, imposed as the +- index
    combinations so that no row carries the full-span hyperbolic growth.

    Scalars per wavenumber go through ``math`` and Python powers, so every
    entry is bit-identical to the one a single-wavenumber assembly makes.
    """
    m = problem.m
    mat = np.zeros((lams.size, m + 4, m + 4))
    xs = np.asarray(problem.positions)
    theta = np.asarray(problem.flexibilities)
    decay, lam2, cos_pi, sin_pi = np.array(
        [
            (math.exp(-lam * math.pi), lam**2, math.cos(lam * math.pi), math.sin(lam * math.pi))
            for lam in lams.tolist()
        ]
    ).reshape(-1, 4).T
    lam = lams[:, None]

    # Unit diagonal in the Delta block, and theta_j z_i''(x_j) below it.
    mat[:, :m, :m] = np.eye(m)
    rows, cols = _ladder(m)
    td = lam * (xs[rows] - xs[cols])
    mat[:, rows, cols] = -theta[rows] * (lam * 0.5 * (np.sinh(td) - np.sin(td)))
    t = lam * xs
    theta_lam2 = theta * lam2[:, None]
    mat[:, :m, m + 0] = theta_lam2 * np.cos(t)
    mat[:, :m, m + 1] = theta_lam2 * np.sin(t)
    mat[:, :m, m + 2] = -theta_lam2 * np.exp(-t)  # e**(-lam x_j)
    mat[:, :m, m + 3] = -theta_lam2 * np.exp(-lam * math.pi + t)  # e**(-lam (pi - x_j))

    # Left support: (lam^2 phi + phi'')/(2 lam^2) kills the oscillatory part,
    # (lam^2 phi - phi'')/(2 lam^2) kills the decaying part; jump responses
    # are inactive at x = 0.
    mat[:, m, m + 2] = 1.0
    mat[:, m, m + 3] = decay
    mat[:, m + 1, m + 0] = 1.0

    # Right support, same combinations; z_i contributes its sinh (resp. sin)
    # component only.
    tg = lam * (math.pi - xs)
    mat[:, m + 2, :m] = np.sinh(tg) / (2.0 * lam)
    mat[:, m + 2, m + 2] = decay
    mat[:, m + 2, m + 3] = 1.0
    mat[:, m + 3, :m] = np.sin(tg) / (2.0 * lam)
    mat[:, m + 3, m + 0] = cos_pi
    mat[:, m + 3, m + 1] = sin_pi
    return mat


def assemble_system(problem: BeamProblem, lam: float) -> np.ndarray:
    """Build U(lam): m crack law rows, then four hinged boundary rows.

    Columns are (Delta_1..Delta_m, A, B, P, Q) matching ShifrinForm.  The
    boundary block holds, in order, the left and right support combinations
    (lam^2 phi + phi'')/(2 lam^2) and (lam^2 phi - phi'')/(2 lam^2).
    """
    if lam <= 0.0:
        raise ValueError("wavenumber must be positive")
    return _system_stack(problem, np.array([lam], dtype=float))[0]


def _equilibrated(mat: np.ndarray) -> np.ndarray:
    """Rows divided by their max-abs entry, for one matrix or a stack of them.

    No row can vanish: every row of U(lam) holds an exact 1.0 except the
    last, whose largest entry is at least max(|cos lam pi|, |sin lam pi|).
    """
    return mat / np.max(np.abs(mat), axis=-1)[..., None]


def char_det(problem: BeamProblem, lams):
    """Row-equilibrated determinant of U(lam); zero exactly at eigenvalues.

    ``lams`` is one wavenumber (the result is a float) or an array of them
    (the result has its shape).  Equilibration keeps the magnitude
    representable despite hyperbolic growth and preserves the sign, which is
    all bracketing needs.
    """
    return rootfind.blockwise(
        lambda block: np.linalg.det(_equilibrated(_system_stack(problem, block))),
        lams,
        (problem.m + 4) ** 2,
    )


def find_eigenvalues(
    problem: BeamProblem,
    count: int,
    lam_max: float | None = None,
    step: float = rootfind.DEFAULT_STEP,
) -> list[float]:
    """First ``count`` eigenvalue wavenumbers, by scan plus bisection."""
    return rootfind.first_roots(char_det, problem, count, lam_max, step)


def solve_nullspace(problem: BeamProblem, lam: float) -> ShifrinForm:
    """Unit-norm solution of U(lam) x = 0, of either sign.

    Rows and columns are equilibrated first (neither changes the nullspace
    direction once the column scaling is undone); this keeps every component
    of the nullvector resolvable even when the exact solution spans many
    orders of magnitude.  A second near-zero singular value is reported as a
    degenerate eigenvalue, not an error.  The sign is fixed, with the final
    scale, by :func:`crackedbeam.modes.normalize_eigenpair`.
    """
    mat = _equilibrated(assemble_system(problem, lam))
    col_scale = np.max(np.abs(mat), axis=0)
    col_scale = np.where(col_scale > 0.0, col_scale, 1.0)
    _, sing, vt = np.linalg.svd(mat / col_scale)
    vec = vt[-1] / col_scale
    if len(sing) >= 2 and sing[-2] <= DEGENERACY_RATIO * sing[0]:
        warnings.warn(
            f"nullspace dimension exceeds 1 at lambda = {lam}: degenerate eigenvalue",
            RuntimeWarning,
            stacklevel=2,
        )
    vec = vec / np.linalg.norm(vec)
    m = problem.m
    return ShifrinForm(lam=lam, deltas=vec[:m], coefficients=vec[m:], positions=problem.positions)


def build_eigenfunction(problem: BeamProblem, form: ShifrinForm) -> Eigenpair:
    """Convert a solved form into a piecewise-coefficient mode of the same scale.

    The state (phi, phi', phi'', phi''') is taken at the right limit of each
    interval's left endpoint, one array evaluation of the form per derivative
    order, and inverted into local coefficients, so all later derivative
    evaluations stay exact per subinterval.
    """
    bp = problem.breakpoints
    left = np.array(bp[:-1])
    states = np.stack([form.eval(left, order, "R") for order in range(4)], axis=-1)
    pw = PiecewiseForm(form.lam, bp, modes.coefficients_from_state(form.lam, states))
    return Eigenpair(lam=form.lam, piecewise=pw, shifrin=form)


def _nullspace_mode(problem: BeamProblem, lam: float) -> Eigenpair:
    return build_eigenfunction(problem, solve_nullspace(problem, lam))


def compute_spectrum(
    problem: BeamProblem,
    count: int,
    lam_max: float | None = None,
    step: float = rootfind.DEFAULT_STEP,
) -> Spectrum:
    """First ``count`` normalized modes: roots of char_det, then their nullspaces."""
    return modes.solve(problem, char_det, _nullspace_mode, count, lam_max, step)
