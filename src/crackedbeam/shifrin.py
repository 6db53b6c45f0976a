"""Eigen-solver that carries one slope-jump unknown per crack.

The mode is split as ``phi = phi_s + sum_i Delta_i w_i`` where w_i is a fixed
piecewise-linear function with a unit slope jump at crack i (zero at both
supports) and phi_s is smooth, so the whole eigenvalue problem collapses to
an (m+4) x (m+4) linear system in (Delta_1..Delta_m) plus four smooth-part
coefficients.  Its determinant vanishes exactly at the eigenvalues.

Conditioning note.  The textbook smooth-part basis (cos, sin, cosh, sinh)
and the growing convolution kernel M_i both acquire entries like e**(lam*pi)
whose leading parts are mutually parallel, which destroys the nullspace for
wavenumbers beyond roughly 6.  Internally the solver therefore carries the
equivalent representation

    phi = A cos(lam x) + B sin(lam x) + P e**(-lam x) + Q e**(-lam (pi - x))
          + sum_i Delta_i z_i(x),
    z_i(x) = H(x - x_i) (sin + sinh)(lam (x - x_i)) / (2 lam),

where z_i has exactly a unit slope jump at x_i and continuous value, moment
and shear, so Delta_i keeps its meaning J[phi'](x_i).  Boundary rows use the
combinations (lam^2 phi +- phi'')/(2 lam^2), which separate the decaying and
oscillatory parts, so the four smooth-part columns stay bounded.  The jump
responses still grow: the ladder entry of crack row j holds
sinh(lam (x_j - x_i)) for every earlier crack i, and the right-support row
holds sinh(lam (pi - x_i)), so entries grow with the distance from a crack
to any later crack or to the right support, not with the spacing of
adjacent cracks.  Row equilibration keeps the determinant representable
all the same.  The classical (A, B, C, D)
coefficients of cos, sin, cosh, sinh and the convolution kernel remain
available (`classical_coefficients`, `kernel_M`); the two parametrizations
differ by an explicit homogeneous recombination and describe the same mode.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import modes, rootfind
from .beam_model import BeamProblem
from .modes import Eigenpair, PiecewiseForm, Spectrum, is_right_side
from .modes import normalize_eigenpair  # unused; the benchmark's spans wrap it here

# Second-smallest singular value below this fraction of the largest flags a
# numerically multiple eigenvalue.
DEGENERACY_RATIO = 1e-8


@dataclass(frozen=True)
class JumpBasis:
    """Piecewise-linear w_i: zero at both supports, unit slope jump at x_i."""

    index: int
    breakpoint: float

    @property
    def left_slope(self) -> float:
        return (self.breakpoint - math.pi) / math.pi

    @property
    def right_slope(self) -> float:
        return self.breakpoint / math.pi

    def eval(self, x, order: int = 0, side: str = "R"):
        """Derivative of order 0 or 1 at ``x``; higher orders vanish."""
        from_right = is_right_side(side)
        xa = np.asarray(x, dtype=float)
        scalar = xa.ndim == 0
        xf = np.atleast_1d(xa)
        if order == 0:
            left = self.left_slope * xf
            right = self.right_slope * (xf - math.pi)
            out = np.where(xf <= self.breakpoint, left, right)
        elif order == 1:
            on_left = xf < self.breakpoint if from_right else xf <= self.breakpoint
            out = np.where(on_left, self.left_slope, self.right_slope)
        else:
            out = np.zeros_like(xf)
        return float(out[0]) if scalar else out

    def eval_one_sided(self, x: float, order: int, side: str) -> float:
        return float(self.eval(x, order=order, side=side))


def jump_basis(problem: BeamProblem, i: int) -> JumpBasis:
    """The i-th (1-based) jump basis function of a problem."""
    if not 1 <= i <= problem.m:
        raise IndexError(f"crack index {i} out of range 1..{problem.m}")
    return JumpBasis(index=i, breakpoint=problem.positions[i - 1])


def basis_eval(problem: BeamProblem, i: int, x, order: int = 0, side: str = "R"):
    """Evaluate w_i or its one-sided slope at ``x``."""
    return jump_basis(problem, i).eval(x, order=order, side=side)


def _antiderivatives(lam: float, u: np.ndarray) -> dict[str, np.ndarray]:
    """Antiderivatives in u of f(lam*u) and u*f(lam*u) for the four kernels."""
    t = lam * u
    sh, ch = np.sinh(t), np.cosh(t)
    sn, cs = np.sin(t), np.cos(t)
    inv, inv2 = 1.0 / lam, 1.0 / lam**2
    return {
        "sinh0": ch * inv,
        "cosh0": sh * inv,
        "sin0": -cs * inv,
        "cos0": sn * inv,
        "sinh1": u * ch * inv - sh * inv2,
        "cosh1": u * sh * inv - ch * inv2,
        "sin1": -u * cs * inv + sn * inv2,
        "cos1": u * sn * inv + cs * inv2,
    }


_KERNEL_NAMES = ("sinh", "cosh", "sin", "cos")


def _affine_convolutions(lam, x, a, b, alpha, beta, live):
    """Integrals over u in [a, b] of f(lam*u) * (alpha*(x-u) + beta) du.

    Returned per kernel name; entries where ``live`` is false are zero (used
    for the piece of w_i beyond the integration limit).
    """
    fa = _antiderivatives(lam, a)
    fb = _antiderivatives(lam, b)
    c0 = alpha * x + beta
    out = {}
    for name in _KERNEL_NAMES:
        val = c0 * (fb[name + "0"] - fa[name + "0"]) - alpha * (fb[name + "1"] - fa[name + "1"])
        out[name] = np.where(live, val, 0.0)
    return out


def kernel_M(problem: BeamProblem, i: int, x, lam: float, order: int = 0):
    """Convolution of sinh - sin against w_i, or one of its derivatives.

    ``M_i(x) = integral_0^x (sinh(lam (x-s)) - sin(lam (x-s))) w_i(s) ds``.
    The kernel and its first derivative vanish at 0, so differentiation in x
    passes under the integral; order r swaps the integrand factor to
    cosh - cos (r=1), sinh + sin (r=2), cosh + cos (r=3), times lam**r.

    Closed forms throughout: each piece of w_i is affine, so only
    antiderivatives of f(lam*u) and u*f(lam*u) appear.
    """
    if order not in (0, 1, 2, 3):
        raise ValueError(f"order {order} not in 0..3")
    if lam <= 0.0:
        raise ValueError("wavenumber must be positive")
    basis = jump_basis(problem, i)
    xi = basis.breakpoint
    xa = np.asarray(x, dtype=float)
    scalar = xa.ndim == 0
    xf = np.atleast_1d(xa).astype(float)

    # Piece of w_i below the crack: weight alpha*s with alpha = left slope,
    # substituted u = x - s so the weight becomes alpha*(x - u).
    hi = np.minimum(xf, xi)
    p1 = _affine_convolutions(
        lam, xf, a=xf - hi, b=xf, alpha=basis.left_slope, beta=0.0, live=hi > 0.0
    )
    # Piece above the crack: weight alpha*s + beta = alpha*(s - pi).
    beyond = xf > xi
    b2 = np.where(beyond, xf - xi, 0.0)
    p2 = _affine_convolutions(
        lam,
        xf,
        a=np.zeros_like(xf),
        b=b2,
        alpha=basis.right_slope,
        beta=-basis.breakpoint,
        live=beyond,
    )
    conv = {name: p1[name] + p2[name] for name in _KERNEL_NAMES}

    if order == 0:
        out = conv["sinh"] - conv["sin"]
    elif order == 1:
        out = lam * (conv["cosh"] - conv["cos"])
    elif order == 2:
        out = lam**2 * (conv["sinh"] + conv["sin"])
    else:
        out = lam**3 * (conv["cosh"] + conv["cos"])
    return float(out[0]) if scalar else out


def _jump_response(lam: float, xi: np.ndarray, order: int) -> np.ndarray:
    """Order-th derivative of (sin + sinh)(lam u)/(2 lam) at u = xi >= 0.

    This is the homogeneous solution whose state at 0 is (0, 1, 0, 0): the
    pure unit slope jump.
    """
    t = lam * xi
    r = order % 4
    if r == 0:
        trig = np.sin(t)
    elif r == 1:
        trig = np.cos(t)
    elif r == 2:
        trig = -np.sin(t)
    else:
        trig = -np.cos(t)
    hyp = np.sinh(t) if order % 2 == 0 else np.cosh(t)
    return lam ** (order - 1) * 0.5 * (trig + hyp)


@dataclass(frozen=True)
class ShifrinForm:
    """Solution vector of the assembled system.

    ``deltas`` are the slope-jump amplitudes J[phi'](x_i).  ``coefficients``
    holds (A, B, P, Q) multiplying cos(lam x), sin(lam x), e**(-lam x) and
    e**(-lam (pi - x)); the classical cosh/sinh pair is available through
    :attr:`classical_coefficients`.
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

    @property
    def classical_coefficients(self) -> np.ndarray:
        """Equivalent (A, B, C, D) of cos, sin, cosh, sinh in the split
        phi = (classical four-term part) + (lam/2) sum Delta_i M_i + sum Delta_i w_i.

        The jump response z_i differs from w_i + (lam/2) M_i by the global
        homogeneous term -w_i'(0) (sin + sinh)(lam x)/(2 lam), which is what
        the conversion folds back in.
        """
        a, b, p, q = self.coefficients
        decay = math.exp(-self.lam * math.pi)
        spill = sum(
            delta * (x_i - math.pi) / math.pi for delta, x_i in zip(self.deltas, self.positions)
        ) / (2.0 * self.lam)
        return np.array([a, b - spill, p + q * decay, -p + q * decay - spill])

    def _smooth(self, x: np.ndarray, order: int) -> np.ndarray:
        lam = self.lam
        a, b, p, q = self.coefficients
        t = lam * np.asarray(x, dtype=float)
        r = order % 4
        if r == 0:
            trig = a * np.cos(t) + b * np.sin(t)
        elif r == 1:
            trig = -a * np.sin(t) + b * np.cos(t)
        elif r == 2:
            trig = -a * np.cos(t) - b * np.sin(t)
        else:
            trig = a * np.sin(t) - b * np.cos(t)
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
        out = self._smooth(xf, order)
        # One crack at a time, in order: every point then sees the same sums
        # whether it is evaluated alone or in an array.
        for delta, x_i in zip(self.deltas, self.positions):
            active = xf >= x_i if from_right else xf > x_i
            xi_local = np.where(active, xf - x_i, 0.0)
            out = out + np.where(active, delta * _jump_response(self.lam, xi_local, order), 0.0)
        return float(out[0]) if scalar else out

    def eval_one_sided(self, x: float, order: int, side: str) -> float:
        return float(self.eval(x, order=order, side=side))

    def scaled(self, factor: float) -> "ShifrinForm":
        return replace(
            self, deltas=self.deltas * factor, coefficients=self.coefficients * factor
        )


@dataclass(frozen=True)
class SystemMatrix:
    """Dense system U(lam): m crack rows then 4 boundary rows.

    Columns are (Delta_1..Delta_m, A, B, P, Q) matching ShifrinForm.  The
    boundary block holds, in order, the left and right support combinations
    (lam^2 phi + phi'')/(2 lam^2) and (lam^2 phi - phi'')/(2 lam^2).
    """

    lam: float
    matrix: np.ndarray

    @property
    def m(self) -> int:
        return self.matrix.shape[0] - 4


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


def assemble_system(problem: BeamProblem, lam: float) -> SystemMatrix:
    """Build U(lam): crack law rows plus four hinged boundary rows."""
    if lam <= 0.0:
        raise ValueError("wavenumber must be positive")
    return SystemMatrix(lam=lam, matrix=_system_stack(problem, np.array([lam], dtype=float))[0])


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
    return rootfind.first_roots(char_det, problem, count, lam_max, step)[0]


def solve_nullspace(problem: BeamProblem, lam: float) -> ShifrinForm:
    """Unit-norm solution of U(lam) x = 0, of either sign.

    Rows and columns are equilibrated first (neither changes the nullspace
    direction once the column scaling is undone); this keeps every component
    of the nullvector resolvable even when the exact solution spans many
    orders of magnitude.  A second near-zero singular value is reported as a
    degenerate eigenvalue, not an error.  The sign is fixed, with the final
    scale, by :func:`crackedbeam.modes.normalize_eigenpair`.
    """
    mat = _equilibrated(assemble_system(problem, lam).matrix)
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
    pw = PiecewiseForm.from_left_states(form.lam, bp, states)
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
