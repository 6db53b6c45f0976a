"""Eigen-solver that carries one slope-jump unknown per crack.

The mode is written as

    phi = A cos(lam x) + B sin(lam x) + P e**(-lam x) + Q e**(-lam (pi - x))
          + sum_i Delta_i g(x - x_i),
    g(u) = (sin(lam |u|) - e**(-lam |u|)) / (4 lam),

where g has exactly a unit slope jump at 0 and continuous value, moment and
shear, so Delta_i = J[phi'](x_i).  The crack laws and the hinged supports then
form an (m+4) x (m+4) linear system in (Delta_1..Delta_m) and (A, B, P, Q), the
paper's Modified Shifrin system, whose determinant vanishes exactly at the
eigenvalues.  Boundary rows use the combinations (lam^2 phi +- phi'')/(2 lam^2),
which separate the decaying and oscillatory parts.  Every term is a sine, a
cosine or a decaying exponential of a distance, so no entry, mode coefficient
or value grows with the distance between cracks.  A stack of systems over n
wavenumbers is filled entry-major, (m+4, m+4, n), and read as (n, m+4, m+4).  The (n, m+4)
nullvectors at the roots become (n, m+1, 4) per-interval bounded-basis coefficients term by
term (addition formulas); :class:`ShifrinForm` holds one of them for the one-root API and
the paper's classical parametrization of the mode (:mod:`crackedbeam.paper`).
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from . import modes, rootfind
from .beam_model import BeamProblem
from .modes import Eigenpair, PiecewiseForm, Spectrum, _local_values, _trig_rows, is_right_side
from .modes import normalize_eigenpair  # unused; the benchmark's spans wrap it here

# Second-smallest singular value below this fraction of the largest flags a
# numerically multiple eigenvalue.
DEGENERACY_RATIO = 1e-8


@dataclass(frozen=True, eq=False)
class ShifrinForm:
    """Solution vector of the assembled system.

    ``deltas`` are the slope-jump amplitudes J[phi'](x_i).  ``coefficients``
    holds (A, B, P, Q) multiplying cos(lam x), sin(lam x), e**(-lam x) and
    e**(-lam (pi - x)); the paper's classical four coefficients are available through
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
        right = is_right_side(side)
        xa = np.asarray(x, dtype=float)
        xf = np.atleast_1d(xa)
        lam = self.lam
        values = _local_values(lam, lam**order, xf, math.pi, self.coefficients[None], order)
        x_i = np.asarray(self.positions, dtype=float)[:, None]
        # g is even in u = x - x_i, so order r carries sign(u)**r; ``side`` picks it at u = 0.
        t = lam * np.abs(xf - x_i)
        response = lam ** (order - 1) / 4 * (_trig_rows(t, order)[1] - (-1) ** order * np.exp(-t))
        if order % 2:
            response = np.where(xf >= x_i if right else xf > x_i, response, -response)
        for term in self.deltas[:, None] * response:
            values = values + term
        return float(values[0]) if xa.ndim == 0 else values


@functools.lru_cache(maxsize=64)
def _layout(problem: BeamProblem) -> tuple[np.ndarray, ...]:
    """(distances, theta, pairs, ones): the wavenumber-free parts of U for one problem.

    The phases are lam times ``distances``: each crack pair x_j - x_i once (i <= j, so the
    diagonal is distance 0), then pi - x_j, x_j and pi.  ``theta`` is a column,
    ``pairs[j, i]`` the pair of Delta-block entry (j, i), and ``ones`` the flat indices of
    the unit entries.  Cached, and read-only since callers share them."""
    m, size = problem.m, problem.m + 4
    (rows, cols), cracks = np.tril_indices(m), np.arange(m)
    ext = np.array((*problem.positions, math.pi, 0.0))
    ends = np.concatenate((rows, np.full(m, m), cracks, [m]))
    starts = np.concatenate((cols, cracks, np.full(m, m + 1), [m + 1]))
    pairs = np.zeros((m, m), dtype=np.intp)
    pairs[rows, cols] = pairs[cols, rows] = np.arange(len(rows))
    ones = np.ravel_multi_index(([m, m + 1, m + 2], [m + 2, m, m + 3]), (size, size))
    out = (ext[ends] - ext[starts], np.array(problem.flexibilities)[:, None], pairs, ones)
    for arr in out:
        arr.flags.writeable = False
    return out


def _system_stack(problem: BeamProblem, lams: np.ndarray) -> np.ndarray:
    """U(lam) for every wavenumber of the 1-D array ``lams``: shape (n, m+4, m+4).

    Crack row j states ``Delta_j = theta_j * phi''(x_j)`` with phi'' expanded into the
    unknowns: g''(u) = -(lam / 4) (sin + exp(-.))(lam |u|) fills the dense Delta block, whose
    diagonal is 1 + theta_j lam / 4.  Hinged supports demand phi = phi'' = 0 at both ends,
    imposed as the +- combinations.  One ``sin`` and one ``exp`` pass cover all phases and
    one ``cos`` pass x_j and pi; lam**2 and e**(-lam pi) use Python pow and ``math.exp``
    (numpy's round differently), so entries match n = 1 bitwise.
    """
    m, n, size = problem.m, lams.size, problem.m + 4
    distances, theta, pairs, ones = _layout(problem)
    k = len(distances) - 2 * m - 1  # crack pairs
    phase = np.multiply.outer(distances, lams)
    sin, cos, neg_exp = np.sin(phase), np.cos(phase[k + m :]), np.negative(phase[:-1])
    np.negative(np.exp(neg_exp, out=neg_exp), out=neg_exp)  # -e**(-lam d)
    theta_lam2 = theta * np.fromiter(map(pow, lams.tolist(), repeat(2)), float, n)
    decay_pi = np.fromiter(map(math.exp, (-phase[-1]).tolist()), float, n)
    mat = np.zeros((size, size, n))
    flat = mat.reshape(size * size, n)
    flat[ones] = 1.0

    # -theta_j g''(x_j - x_i) for every crack pair, each evaluated once, and the unit diagonal.
    weight = (sin[:k] - neg_exp[:k]) * (0.25 * lams)
    np.multiply(weight.take(pairs, axis=0), theta[:, None], out=mat[:m, :m])
    diagonal = flat[: m * (size + 1) : size + 1]
    np.add(diagonal, 1.0, out=diagonal)
    np.multiply(theta_lam2, cos[:m], out=mat[:m, m + 0])
    np.multiply(theta_lam2, sin[k + m : -1], out=mat[:m, m + 1])
    to_supports = neg_exp[k:].reshape(2, m, n)  # -e**(-lam d) for d = pi - x_j, then x_j
    np.multiply(theta_lam2, to_supports, out=mat[:m, m + 2 :][:, ::-1].transpose(1, 0, 2))

    # Supports: (lam^2 phi + phi'')/(2 lam^2) kills the oscillatory part and (lam^2 phi -
    # phi'')/(2 lam^2) the decaying part.  Crack i adds -e**(-lam d) / (4 lam) to the first
    # and sin(lam d) / (4 lam) to the second, d = x_i (rows m, m+1) or pi - x_i (m+2, m+3).
    four_lam = 4.0 * lams
    np.divide(to_supports, four_lam, out=mat[m::2][::-1, :m])
    np.divide(sin[k:-1].reshape(2, m, n), four_lam, out=mat[m + 1 :: 2][::-1, :m])
    mat[m, m + 3] = mat[m + 2, m + 2] = decay_pi
    mat[m + 3, m + 0] = cos[-1]
    mat[m + 3, m + 1] = sin[-1]
    return mat.transpose(2, 0, 1)


def assemble_system(problem: BeamProblem, lam: float) -> np.ndarray:
    """Build U(lam): m crack law rows, then four hinged boundary rows.

    Columns are (Delta_1..Delta_m, A, B, P, Q) matching ShifrinForm.  The
    boundary block holds, in order, the left and right support combinations
    (lam^2 phi + phi'')/(2 lam^2) and (lam^2 phi - phi'')/(2 lam^2).
    """
    return _system_stack(problem, rootfind.wavenumbers([lam]))[0]


def _equilibrated(mat: np.ndarray) -> np.ndarray:
    """Rows divided by their max-abs entry, for one matrix or a stack of them.

    No row can vanish: a crack row's diagonal is 1 + theta_j lam / 4, the next three rows
    hold an exact 1.0, and the last row's largest entry is at least max(|cos lam pi|,
    |sin lam pi|).  On :func:`_system_stack`'s entry-major layout numpy reduces rows of wavenumbers.
    """
    return mat / np.max(np.abs(mat), axis=-1, keepdims=True)


def char_det(problem: BeamProblem, lams):
    """Row-equilibrated determinant of U(lam); zero exactly at eigenvalues.

    ``lams`` is one wavenumber (the result is a float) or an array of them
    (the result has its shape).  Equilibration evens out the crack rows, whose
    entries scale like theta_j lam^2, and preserves the sign, which is all
    bracketing needs.
    """
    return rootfind.blockwise(
        lambda block: np.linalg.det(_equilibrated(_system_stack(problem, block))),
        lams,
        (problem.m + 4) ** 2,
    )


def root_count(problem: BeamProblem, lams):
    """N(lam), the number of eigenvalues below each wavenumber, in the shape of ``lams``.

    Wittrick and Williams (Q. J. Mech. Appl. Math. 24(3), 1971): floor(lam) roots of the uncracked
    beam, plus the negative eigenvalues of the symmetric Schur complement of U on its crack rows,
    each divided by theta_j: S = Theta^-1 (U_DD - U_Ds U_ss^-1 U_sD).  The support block U_ss is
    singular at the integers, where callers do not count, and where e**(-lam pi) rounds to 1
    (lam below about 1.8e-17), where N is NaN, as it is where theta lam**2 overflows.
    """
    m = problem.m

    def count(block: np.ndarray) -> np.ndarray:
        mats = _system_stack(problem, block)
        singular = mats[:, m, m + 3] == 1.0  # e**(-lam pi): the P and Q support rows coincide
        mats[singular, m:, m:] = np.eye(4)
        rows = mats[:, :m] / _layout(problem)[1]
        schur = rows[:, :, :m] - rows[:, :, m:] @ np.linalg.solve(mats[:, m:, m:], mats[:, m:, :m])
        unknown = singular | ~np.isfinite(schur).all(axis=(1, 2))  # or theta lam**2 overflowed
        schur[unknown] = 0.0
        negative = (np.linalg.eigvalsh(schur) < 0.0).sum(axis=-1)
        return np.where(unknown, np.nan, np.floor(block) + negative)

    return rootfind.blockwise(count, lams, (m + 4) ** 2)


def first_roots(det, problem: BeamProblem, count: int, lam_max: float | None = None) -> list[float]:
    """First ``count`` roots of ``det(problem, lams)``, isolated by :func:`root_count`, below
    ``lam_max``; :func:`rootfind.find_roots` checks ``count`` and reads None as its default
    ceiling, count + 1 (interlacing puts the count-th root at or below count)."""
    counter = functools.partial(root_count, problem)
    return rootfind.find_roots(lambda lams: det(problem, lams), count, lam_max, counter)[0]


def find_eigenvalues(problem: BeamProblem, count: int, lam_max: float | None = None) -> list[float]:
    """First ``count`` eigenvalue wavenumbers: roots of char_det."""
    return first_roots(char_det, problem, count, lam_max)


def solve_nullspace(problem: BeamProblem, lam: float) -> ShifrinForm:
    """Unit-norm solution of U(lam) x = 0, of either sign: one-root slice of :func:`_nullspaces`."""
    lams, m = rootfind.wavenumbers([lam]), problem.m
    vec = _nullspaces(problem, lams)[0]
    return ShifrinForm(lams.item(), vec[:m], vec[m:], problem.positions)


def _nullspaces(problem: BeamProblem, lams: np.ndarray) -> np.ndarray:
    """(n, m+4) unit-norm nullvectors (Delta_1..Delta_m, A, B, P, Q) of U(lam), of either sign,
    at the 1-D ``lams``, by one stacked SVD.

    Rows and columns are equilibrated first (neither changes the nullspace direction once
    the column scaling is undone); this keeps every component of the nullvector resolvable
    even when the exact solution spans many orders of magnitude.  A second near-zero
    singular value is reported as a degenerate eigenvalue at that root, not an error.
    """
    mats = _equilibrated(_system_stack(problem, lams))
    col_scale = np.max(np.abs(mats), axis=-2, keepdims=True)
    col_scale = np.where(col_scale > 0.0, col_scale, 1.0)
    _, sing, vt = np.linalg.svd(mats / col_scale)
    vecs = vt[:, -1] / col_scale[:, 0]
    for lam, s, vec in zip(lams.tolist(), sing, vecs):
        if s[-2] <= DEGENERACY_RATIO * s[0]:
            msg = f"nullspace dimension exceeds 1 at lambda = {lam}: degenerate eigenvalue"
            warnings.warn(msg, RuntimeWarning)  # names shifrin.py whichever path solved
        vec /= np.linalg.norm(vec)  # per vector: a norm along a stack axis rounds differently
    return vecs


def build_eigenfunction(problem: BeamProblem, form: ShifrinForm) -> Eigenpair:
    """Piecewise-coefficient mode of a solved form, same scale; one-form :func:`_eigenpairs`."""
    vec = np.concatenate((form.deltas, form.coefficients))
    rows = _eigenpairs(problem, np.array([form.lam]), vec[None])
    return Eigenpair(form.lam, PiecewiseForm(form.lam, problem.breakpoints, rows[0]))


def _eigenpairs(problem: BeamProblem, lams: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """(n, m+1, 4) piecewise coefficients of the modes whose jump-amplitude solutions at
    ``lams`` are the rows (Delta_1..Delta_m, A, B, P, Q) of ``vecs``, each at its own scale.

    Interval k, [a, b], takes its coefficients of cos, sin, e**(-lam u) and e**(-lam (b - a - u)),
    u = x - a, term by term from the addition formulas: A cos + B sin gives
    (A cos lam a + B sin lam a, B cos lam a - A sin lam a), P and Q give P e**(-lam a) and
    Q e**(-lam (pi - b)).  With d = lam (a - x_i), a crack x_i <= a gives
    Delta_i / (4 lam) (sin d, cos d, -e**(-d), 0) and a crack x_i >= b gives
    Delta_i / (4 lam) (-sin d, -cos d, 0, -e**(-lam (x_i - b))).  Every crack reaches every
    interval, with no factor above 1, and the cracks are added in order.
    """
    m, bp = problem.m, problem.breakpoints
    left, right = np.array(bp[:-1]), np.array(bp[1:])
    lams = lams[:, None]
    a, b, p, q = vecs[:, m:].T[:, :, None]
    t = lams * left
    sin_a, cos_a = np.sin(t), np.cos(t)
    decaying, rising = p * np.exp(-t), q * np.exp(-lams * (math.pi - right))
    rows = np.stack((a * cos_a + b * sin_a, b * cos_a - a * sin_a, decaying, rising), axis=-1)
    x_i, lams = np.array(problem.positions)[:, None], lams[:, :, None]
    after, d = left >= x_i, lams * (left - x_i)  # (mode, crack, interval)
    sign = np.where(after, 1.0, -1.0)
    reach = -np.exp(lams * np.where(after, x_i - left, right - x_i))
    sin_d, cos_d = sign * np.sin(d), sign * np.cos(d)
    terms = np.stack((sin_d, cos_d, np.where(after, reach, 0), np.where(after, 0, reach)), axis=-1)
    quarters = vecs[:, :m] / (4.0 * lams[:, :, 0])
    for i, term in enumerate(terms.swapaxes(0, 1)):
        rows += quarters[:, i, None, None] * term
    return rows


def _nullspace_modes(problem: BeamProblem, lams: np.ndarray) -> np.ndarray:
    return _eigenpairs(problem, lams, _nullspaces(problem, lams))


def compute_spectrum(problem: BeamProblem, count: int, lam_max: float | None = None) -> Spectrum:
    """First ``count`` normalized modes: roots of char_det, then their nullspaces."""
    return modes.solve(problem, _nullspace_modes, first_roots(char_det, problem, count, lam_max))
