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
keeps the determinant representable all the same.  A stack of systems over n
wavenumbers is filled entry-major, (m+4, m+4, n), and read as (n, m+4, m+4).
The paper's classical parametrization of the mode lives in :mod:`crackedbeam.paper`.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, replace
from itertools import repeat

import numpy as np

from . import modes, rootfind
from .beam_model import BeamProblem
from .modes import Eigenpair, PiecewiseForm, Spectrum, _basis, _basis_rows, is_right_side
from .modes import normalize_eigenpair  # unused; the benchmark's spans wrap it here

# Second-smallest singular value below this fraction of the largest flags a
# numerically multiple eigenvalue.
DEGENERACY_RATIO = 1e-8


def _stack_values(forms: list["ShifrinForm"], x: np.ndarray, orders, side: str) -> list[np.ndarray]:
    """Derivatives at the 1-D points ``x`` of forms sharing their cracks, (n, len(x)) per order."""
    lams = [form.lam for form in forms]
    lam = np.array(lams)[:, None]
    a, b, p, q = np.array([form.coefficients for form in forms]).T[:, :, None]
    t = lam * x
    smooth, decaying, growing = _basis(t), p * np.exp(-t), q * np.exp(-lam * math.pi + t)
    x_i = np.asarray(forms[0].positions, dtype=float)[:, None]
    active = x >= x_i if is_right_side(side) else x > x_i
    jumps = _basis(lam[:, :, None] * np.where(active, x - x_i, 0.0))
    deltas = np.array([form.deltas for form in forms])[:, :, None]
    out = []
    for order in orders:
        d_sin, d_cos, _, _ = _basis_rows(smooth, order)
        sign = -1.0 if order % 2 else 1.0
        # Python powers: a form in a stack gets the bits it gets alone.
        scale, z_scale = (np.array([v**k for v in lams])[:, None] for k in (order, order - 1))
        values = scale * (a * d_cos + b * d_sin + sign * decaying + growing)
        # Jump response (sin + sinh)(lam u)/(2 lam): state (0, 1, 0, 0) at u = 0, a unit slope jump.
        z_sin, _, z_sinh, _ = _basis_rows(jumps, order)
        response = z_scale[:, :, None] * 0.5 * (z_sin + z_sinh)
        # Cracks are added one at a time, in order: every point then sees the
        # same sums whether it is evaluated alone or in an array.
        for term in np.moveaxis(np.where(active, deltas * response, 0.0), 1, 0):
            values = values + term
        out.append(values)
    return out


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

    def eval(self, x, order: int = 0, side: str = "R"):
        """Derivative of phi at ``x``; orders 0..4, one-sided at cracks."""
        if order not in (0, 1, 2, 3, 4):
            raise ValueError(f"order {order} not in 0..4")
        xa = np.asarray(x, dtype=float)
        out = _stack_values([self], np.atleast_1d(xa).astype(float), (order,), side)[0][0]
        return float(out[0]) if xa.ndim == 0 else out

    def scaled(self, factor: float) -> "ShifrinForm":
        return replace(
            self, deltas=self.deltas * factor, coefficients=self.coefficients * factor
        )


@functools.lru_cache(maxsize=64)
def _layout(m: int) -> tuple[np.ndarray, ...]:
    """(ends, starts, rows, ladder, ones): index arrays of U for m cracks.

    The phases are lam times ``ext[ends] - ext[starts]``, ``ext = (x_1..x_m, pi, 0)``: the
    ladder x_j - x_i (i < j, j in ``rows``), pi - x_j, x_j, then pi.  ``ladder`` and ``ones``
    are flat entry indices.  Cached, as building them costs about as much as the rest of a
    small assembly; read-only, since callers share them."""
    size = m + 4
    rows, cols = np.tril_indices(m, -1)
    cracks = np.arange(m)
    ends = np.concatenate((rows, np.full(m, m), cracks, [m]))
    starts = np.concatenate((cols, cracks, np.full(m, m + 1), [m + 1]))
    unit = ([*cracks, m, m + 1, m + 2], [*cracks, m + 2, m, m + 3])  # (rows, cols) of the ones
    ones = np.ravel_multi_index(unit, (size, size))
    out = (ends, starts, rows, rows * size + cols, ones)
    for arr in out:
        arr.flags.writeable = False
    return out


def _system_stack(problem: BeamProblem, lams: np.ndarray) -> np.ndarray:
    """U(lam) for every wavenumber of the 1-D array ``lams``: shape (n, m+4, m+4).

    Crack row j states ``Delta_j = theta_j * phi''(x_j)`` with phi'' expanded
    into the unknowns; the jump-response ladder is lower triangular in the
    Delta block with an exact unit diagonal since z_j''(x_j+) = 0.  Hinged
    supports demand phi = phi'' = 0 at both ends, imposed as the +- index
    combinations so that no row carries the full-span hyperbolic growth.

    One ``sin``, ``sinh`` and ``cos`` pass covers all phases; lam**2 and e**(-lam pi) use
    Python pow and ``math.exp`` (numpy's round differently), so entries match n = 1 bitwise.
    """
    m, n, size = problem.m, lams.size, problem.m + 4
    ends, starts, rows, ladder, ones = _layout(m)
    nl = len(rows)
    ext, theta = np.array((*problem.positions, math.pi, 0.0)), np.array(problem.flexibilities)
    phase = np.multiply.outer(ext[ends] - ext[starts], lams)
    sin, sinh, cos = np.sin(phase), np.sinh(phase[: nl + m]), np.cos(phase[nl + m :])
    t, pi_lam = phase[nl + m : -1], phase[-1]
    theta_lam2 = np.multiply.outer(theta, np.fromiter(map(pow, lams.tolist(), repeat(2)), float, n))
    decay = np.fromiter(map(math.exp, (-pi_lam).tolist()), float, n)
    mat = np.zeros((size, size, n))
    flat = mat.reshape(size * size, n)
    flat[ones] = 1.0

    # theta_j z_i''(x_j) below the unit diagonal of the Delta block.
    flat[ladder] = -theta[rows][:, None] * (lams * 0.5 * (sinh[:nl] - sin[:nl]))
    np.multiply(theta_lam2, cos[:m], out=mat[:m, m + 0])
    np.multiply(theta_lam2, sin[nl + m : -1], out=mat[:m, m + 1])
    np.multiply(-theta_lam2, np.exp(-t), out=mat[:m, m + 2])  # e**(-lam x_j)
    np.multiply(-theta_lam2, np.exp(t - pi_lam), out=mat[:m, m + 3])  # e**(-lam (pi - x_j))

    # Supports: (lam^2 phi + phi'')/(2 lam^2) kills the oscillatory part and
    # (lam^2 phi - phi'')/(2 lam^2) the decaying part.  Jump responses are
    # inactive at x = 0; at x = pi, z_i contributes its sinh (resp. sin) part.
    mat[m, m + 3] = mat[m + 2, m + 2] = decay
    two_lam = 2.0 * lams
    np.divide(sinh[nl:], two_lam, out=mat[m + 2, :m])
    np.divide(sin[nl : nl + m], two_lam, out=mat[m + 3, :m])
    mat[m + 3, m + 0] = cos[-1]
    mat[m + 3, m + 1] = sin[-1]
    return mat.transpose(2, 0, 1)


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
    On :func:`_system_stack`'s entry-major layout numpy reduces rows of wavenumbers.
    """
    return mat / np.max(np.abs(mat), axis=-1, keepdims=True)


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


def find_eigenvalues(problem: BeamProblem, count: int, lam_max: float | None = None) -> list[float]:
    """First ``count`` eigenvalue wavenumbers, by scan plus bisection."""
    return rootfind.first_roots(char_det, problem, count, lam_max)


def solve_nullspace(problem: BeamProblem, lam: float) -> ShifrinForm:
    """Unit-norm solution of U(lam) x = 0, of either sign: one-root slice of :func:`_nullspaces`."""
    if lam <= 0.0:
        raise ValueError("wavenumber must be positive")
    return _nullspaces(problem, np.array([lam], dtype=float))[0]


def _nullspaces(problem: BeamProblem, lams: np.ndarray) -> list[ShifrinForm]:
    """Unit-norm nullvectors of U(lam), of either sign, at the 1-D ``lams``, by one stacked SVD.

    Rows and columns are equilibrated first (neither changes the nullspace direction once
    the column scaling is undone); this keeps every component of the nullvector resolvable
    even when the exact solution spans many orders of magnitude.  A second near-zero
    singular value is reported as a degenerate eigenvalue at that root, not an error.
    """
    mats = _equilibrated(_system_stack(problem, lams))
    col_scale = np.max(np.abs(mats), axis=-2, keepdims=True)
    col_scale = np.where(col_scale > 0.0, col_scale, 1.0)
    _, sing, vt = np.linalg.svd(mats / col_scale)
    forms, m, positions = [], problem.m, problem.positions
    for lam, s, vec in zip(lams.tolist(), sing, vt[:, -1] / col_scale[:, 0]):
        if s[-2] <= DEGENERACY_RATIO * s[0]:
            msg = f"nullspace dimension exceeds 1 at lambda = {lam}: degenerate eigenvalue"
            warnings.warn(msg, RuntimeWarning, stacklevel=3)
        vec = vec / np.linalg.norm(vec)  # per vector: a norm along a stack axis rounds differently
        forms.append(ShifrinForm(lam, deltas=vec[:m], coefficients=vec[m:], positions=positions))
    return forms


def build_eigenfunction(problem: BeamProblem, form: ShifrinForm) -> Eigenpair:
    """Piecewise-coefficient mode of a solved form, same scale; one-form :func:`_eigenpairs`."""
    return _eigenpairs(problem, [form])[0]


def _eigenpairs(problem: BeamProblem, forms: list[ShifrinForm]) -> list[Eigenpair]:
    """Piecewise-coefficient modes of all ``forms``, each at its own scale.

    The states (phi, phi', phi'', phi''') at the right limit of each interval's left end are
    inverted into local coefficients, so later derivative evaluations stay exact per interval.
    """
    bp = problem.breakpoints
    states = np.stack(_stack_values(forms, np.array(bp[:-1]), range(4), "R"), axis=-1)
    rows = modes.coefficients_from_state(np.array([[form.lam] for form in forms]), states)
    return [Eigenpair(f.lam, PiecewiseForm(f.lam, bp, co), f) for f, co in zip(forms, rows)]


def _nullspace_modes(problem: BeamProblem, lams: np.ndarray) -> list[Eigenpair]:
    return _eigenpairs(problem, _nullspaces(problem, lams))


def compute_spectrum(problem: BeamProblem, count: int, lam_max: float | None = None) -> Spectrum:
    """First ``count`` normalized modes: roots of char_det, then their nullspaces."""
    return modes.solve(problem, char_det, _nullspace_modes, count, lam_max)
