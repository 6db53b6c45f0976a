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
import threading
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

    The phases are lam times the column ``distances``: each crack pair x_j - x_i once (i <= j,
    so the diagonal is distance 0), then pi - x_j, x_j and pi.  ``theta`` is a column,
    ``pairs[j, i]`` the pair of entry (j, i) of crack row j, the pair (j, j) in the four
    support columns, and ``ones`` the flat indices of the unit entries.  Cached, and read-only
    since callers share them."""
    m, size = problem.m, problem.m + 4
    (rows, cols), cracks = np.tril_indices(m), np.arange(m)
    ext = np.array((*problem.positions, math.pi, 0.0))
    ends = np.concatenate((rows, np.full(m, m), cracks, [m]))
    starts = np.concatenate((cols, cracks, np.full(m, m + 1), [m + 1]))
    pairs = np.zeros((m, size), dtype=np.intp)
    pairs[rows, cols] = pairs[cols, rows] = np.arange(len(rows))
    pairs[:, m:] = pairs[cracks, cracks, None]
    ones = np.ravel_multi_index(([m, m + 1, m + 2], [m + 2, m, m + 3]), (size, size))
    distances = (ext[ends] - ext[starts])[:, None]
    out = (distances, np.array(problem.flexibilities)[:, None], pairs, ones)
    for arr in out:
        arr.flags.writeable = False
    return out


class _Workspace(threading.local):
    """The calling thread's scratch buffer: see :func:`_scratch`."""

    buffer = np.empty(0)


_WORKSPACE = _Workspace()


def _scratch(entries: int) -> np.ndarray:
    """``entries`` doubles of the calling thread's workspace, which grows on demand and is never
    returned, so later calls reuse its pages.  :func:`_system_stack` keeps its tables there and
    :func:`_max_abs` the |entries| of a stack, one after the other, so it grows to the largest
    stack the thread builds: at most ``rootfind._STACK_ENTRIES`` doubles, or one wavenumber's
    (m+4)**2 where that is more, on the :func:`rootfind._blocks` every solve stage keeps to."""
    work = _WORKSPACE.buffer
    if work.size < entries:
        work = _WORKSPACE.buffer = np.empty(entries)
    return work[:entries]


def _system_stack(problem: BeamProblem, lams: np.ndarray) -> np.ndarray:
    """U(lam) for every wavenumber of the 1-D array ``lams``: a fresh array of shape (n, m+4, m+4).

    Crack row j states ``Delta_j = theta_j * phi''(x_j)`` with phi'' expanded into the
    unknowns: g''(u) = -(lam / 4) (sin + exp(-.))(lam |u|) fills the dense Delta block, whose
    diagonal is 1 + theta_j lam / 4.  Hinged supports demand phi = phi'' = 0 at both ends,
    imposed as the +- combinations.  One ``sin`` and one ``exp`` pass cover all phases and
    one ``cos`` pass x_j and pi; lam**2 and e**(-lam pi) use Python pow and ``math.exp``
    (numpy's round differently), so entries match n = 1 bitwise.  The phase table, overwritten
    by its sines and then by the pair weights, and the exp table live in the calling thread's
    workspace, (m**2 + 5 m + 2) n doubles, about one stack; the crack rows are gathered and
    scaled in place in the returned stack, the one array allocated at full size per call.
    """
    m, n, size = problem.m, lams.size, problem.m + 4
    distances, theta, pairs, ones = _layout(problem)
    phases = len(distances)
    k = phases - 2 * m - 1  # crack pairs
    tables = _scratch(2 * phases * n).reshape(2 * phases, n)
    sin, neg_exp = tables[:phases], tables[phases:]
    # ``out`` is positional throughout: numpy parses it faster than the keyword, and at a few
    # cracks this call is mostly such overhead.
    np.multiply(distances, lams, sin)  # the phases, until the sin pass
    cos = np.cos(sin[k + m :])
    decay_pi = np.fromiter(map(math.exp, np.negative(sin, neg_exp)[-1].tolist()), float, n)
    np.negative(np.exp(neg_exp, neg_exp), neg_exp)  # -e**(-lam d)
    np.sin(sin, sin)
    theta_lam2 = theta * np.fromiter(map(pow, lams.tolist(), repeat(2)), float, n)
    mat = np.zeros((size, size, n))
    flat = mat.reshape(size * size, n)
    flat[ones] = 1.0

    # -theta_j g''(x_j - x_i) for every crack pair, each evaluated once, and the unit diagonal.
    weight = sin[:k]
    np.multiply(np.subtract(weight, neg_exp[:k], weight), 0.25 * lams, weight)
    crack_rows = weight.take(pairs, 0, mat[:m], "clip")  # "raise" would copy the rows first
    np.multiply(crack_rows, theta[:, None], crack_rows)
    diagonal = flat[: m * (size + 1) : size + 1]
    np.add(diagonal, 1.0, diagonal)
    np.multiply(theta_lam2, cos[:m], mat[:m, m + 0])
    np.multiply(theta_lam2, sin[k + m : -1], mat[:m, m + 1])
    to_supports = neg_exp[k:-1].reshape(2, m, n)  # -e**(-lam d) for d = pi - x_j, then x_j
    np.multiply(theta_lam2, to_supports, mat[:m, m + 2 :][:, ::-1].transpose(1, 0, 2))

    # Supports: (lam^2 phi + phi'')/(2 lam^2) kills the oscillatory part and (lam^2 phi -
    # phi'')/(2 lam^2) the decaying part.  Crack i adds -e**(-lam d) / (4 lam) to the first
    # and sin(lam d) / (4 lam) to the second, d = x_i (rows m, m+1) or pi - x_i (m+2, m+3).
    four_lam = 4.0 * lams
    np.divide(to_supports, four_lam, mat[m::2][::-1, :m])
    np.divide(sin[k:-1].reshape(2, m, n), four_lam, mat[m + 1 :: 2][::-1, :m])
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


def _max_abs(entries: np.ndarray, axis: int) -> np.ndarray:
    """The largest |entry| along ``axis`` of a stack's C-ordered (m+4, m+4, n) ``entries``, kept
    as a length-1 axis; the |entries| go to the thread's workspace."""
    return np.abs(entries, _scratch(entries.size).reshape(entries.shape)).max(axis, keepdims=True)


def _equilibrated(stack: np.ndarray) -> np.ndarray:
    """The fresh :func:`_system_stack` result ``stack``, its rows divided in place by their
    max-abs entry; the caller gives the stack up and keeps the result.

    No row can vanish: a crack row's diagonal is 1 + theta_j lam / 4, the next three rows
    hold an exact 1.0, and the last row's largest entry is at least max(|cos lam pi|,
    |sin lam pi|).  On the stack's entry-major layout numpy reduces rows of wavenumbers.
    """
    entries = stack.transpose(1, 2, 0)
    np.divide(entries, _max_abs(entries, 1), entries)
    return stack


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


@functools.lru_cache(maxsize=1)
def _isolated(problem: BeamProblem, count: int, lam_max: float | None) -> tuple:
    """The :func:`rootfind.isolate` windows by :func:`root_count`, kept for the last problem."""
    return rootfind.isolate(count, lam_max, functools.partial(root_count, problem))


def first_roots(det, problem: BeamProblem, count: int, lam_max: float | None = None) -> list[float]:
    """First ``count`` roots of ``det(problem, lams)`` below ``lam_max`` (None: count + 1), in
    the windows of :func:`_isolated`: a second solver of the problem counts nothing."""
    windows = _isolated(problem, count, lam_max if lam_max is None else float(lam_max))
    return rootfind.find_roots(lambda lams: det(problem, lams), windows)[0]


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
    at the 1-D ``lams``, by stacked SVDs in :func:`rootfind._blocks` of (m+4)**2 entries per root.

    Rows and columns are equilibrated first, in place (neither changes the nullspace direction
    once the column scaling is undone); this keeps every component of the nullvector resolvable
    even when the exact solution spans many orders of magnitude.  A second near-zero
    singular value is reported as a degenerate eigenvalue at that root, not an error.
    """

    def nullvectors(block: np.ndarray) -> np.ndarray:
        mats = _equilibrated(_system_stack(problem, block))
        entries = mats.transpose(1, 2, 0)
        col_scale = _max_abs(entries, 0)
        col_scale = np.where(col_scale > 0.0, col_scale, 1.0)
        np.divide(entries, col_scale, entries)
        _, sing, vt = np.linalg.svd(mats)
        for lam in block[sing[:, -2] <= DEGENERACY_RATIO * sing[:, 0]].tolist():
            msg = f"nullspace dimension exceeds 1 at lambda = {lam}: degenerate eigenvalue"
            warnings.warn(msg, RuntimeWarning)  # names shifrin.py whichever path solved
        vecs = vt[:, -1] / col_scale[0].T
        return vecs / np.linalg.norm(vecs, axis=1, keepdims=True)

    return rootfind.blockwise(nullvectors, lams, (problem.m + 4) ** 2)


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
    interval, with no factor above 1, and the cracks are added in order.  Their (mode, crack,
    interval, 4) terms are built in :func:`rootfind._blocks` of 4 m (m+1) entries per mode.
    """
    m, bp = problem.m, problem.breakpoints
    left, right = np.array(bp[:-1]), np.array(bp[1:])
    lams = lams[:, None]
    a, b, p, q = vecs[:, m:].T[:, :, None]
    t = lams * left
    sin_a, cos_a = np.sin(t), np.cos(t)
    decaying, rising = p * np.exp(-t), q * np.exp(-lams * (math.pi - right))
    rows = np.stack((a * cos_a + b * sin_a, b * cos_a - a * sin_a, decaying, rising), axis=-1)
    x_i = np.array(problem.positions)[:, None]
    after = left >= x_i  # (crack, interval)
    sign, span = np.where(after, 1.0, -1.0), np.where(after, x_i - left, right - x_i)
    quarters = vecs[:, :m] / (4.0 * lams)

    def add_cracks(block: slice) -> None:
        lam, out = lams[block, :, None], rows[block]
        d = lam * (left - x_i)  # (mode, crack, interval)
        terms = np.zeros((*d.shape, 4))
        np.multiply(sign, np.sin(d), out=terms[..., 0])
        np.multiply(sign, np.cos(d, out=d), out=terms[..., 1])
        reach = np.negative(np.exp(np.multiply(lam, span, out=d), out=d), out=d)
        np.copyto(terms[..., 2], reach, where=after)
        np.copyto(terms[..., 3], reach, where=~after)
        for i, term in enumerate(terms.swapaxes(0, 1)):
            out += quarters[block, i, None, None] * term

    for block in rootfind._blocks(len(lams), 4 * m * (m + 1)):
        add_cracks(block)
    return rows


def _nullspace_modes(problem: BeamProblem, lams: np.ndarray) -> np.ndarray:
    return _eigenpairs(problem, lams, _nullspaces(problem, lams))


def compute_spectrum(problem: BeamProblem, count: int, lam_max: float | None = None) -> Spectrum:
    """First ``count`` normalized modes: roots of char_det, then their nullspaces."""
    return modes.solve(problem, _nullspace_modes, first_roots(char_det, problem, count, lam_max))
