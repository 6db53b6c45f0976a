"""Mode-shape containers and the solve pipeline shared by both solvers.

On each interval [a, b] between consecutive cracks, with u = x - a and h = b - a, a mode
is ``A cos(lam u) + B sin(lam u) + P e**(-lam u) + Q e**(-lam (h - u))``: the jump-amplitude
solver's bounded basis applied to one interval.  No basis function exceeds 1 on its interval,
so a value sums no large terms that cancel, and derivatives are exact: the trigonometric pair
reads the one (cos, sin) table :func:`_trig_rows`, and the exponentials only change sign.
Each solver writes its own coefficients from the addition formulas; nothing evaluates a
state (w, w', w'', w''') and inverts it.  A mode is read through ``eval(x, order, side)``
alone, at a point or an array of points, or every mode at once through :meth:`Spectrum.eval`.

The solvers differ only in their characteristic determinant and in how they recover the
modes at its roots.  A solver's ``recover(problem, lams)`` returns the raw (n, m+1, 4) stack
of these coefficients, one mode per root at any scale and sign; :func:`solve` normalizes the
stack once, one (mode, interval) cell at a time in O(modes x intervals) with no quadrature rule
over the beam, and the :class:`Spectrum` keeps it, building its :class:`Eigenpair` views only if
asked.  :func:`normalize_eigenpair`, ``solve_nullspace`` and ``build_eigenfunction`` are the
one-root slices of that stacked code.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import quadrature, rootfind
from .beam_model import BeamProblem


def is_right_side(side: str) -> bool:
    """True for the right limit "R", False for the left limit "L"; other labels raise."""
    if side not in ("L", "R"):
        raise ValueError(f"side must be 'L' or 'R', not {side!r}")
    return side == "R"


def _trig_rows(t, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Order-th derivative of (cos, sin) at phase ``t``, taken in the phase (the caller applies
    lam**order): the one trig table, read by the modes, the jump-amplitude form and kernel M_i."""
    cos_t, sin_t = np.cos(t), np.sin(t)
    if order % 2:
        cos_t, sin_t = -sin_t, cos_t  # a quarter turn: (cos, sin)' = (-sin, cos)
    return (-cos_t, -sin_t) if order % 4 >= 2 else (cos_t, sin_t)


def _local_values(lam, scale, u, h, co: np.ndarray, order: int) -> np.ndarray:
    """Order-th derivative of the (A, B, P, Q) rows ``co`` at local coordinate ``u`` on intervals
    of length ``h``; ``scale`` is lam**order."""
    t = lam * u
    d_cos, d_sin = _trig_rows(t, order)
    decaying = -np.exp(-t) if order % 2 else np.exp(-t)
    rising = np.exp(lam * (u - h))
    terms = co[..., 0] * d_cos + co[..., 1] * d_sin + co[..., 2] * decaying + co[..., 3] * rising
    return scale * terms


def _values(lams, rows, breakpoints, x, order: int, side: str, reduce=None) -> np.ndarray:
    """(modes, points) table of the order-th derivatives at the points ``x`` of the modes with
    wavenumbers ``lams`` and (n, m+1, 4) coefficient stack ``rows`` on ``breakpoints``: the one
    evaluation of every mode, filled in :func:`rootfind._blocks` at one entry per point of a
    mode.  Each mode is scaled by its own lam**order.  With ``reduce``, the (modes,) values of
    ``reduce`` on each mode's row, so no table is kept."""
    bp = np.asarray(breakpoints, dtype=float)
    # Counting crack positions alone puts points beyond either support in an end interval.
    idx = np.searchsorted(bp[1:-1], x, side="right" if is_right_side(side) else "left")
    u, h = x - bp[idx], (bp[1:] - bp[:-1])[idx]
    scales = np.array([lam**order for lam in lams.tolist()])
    out = np.empty((len(lams), len(x)) if reduce is None else len(lams))
    for b in rootfind._blocks(len(lams), len(x)):
        co = np.take(rows[b], idx, axis=1)  # far faster than rows[b][:, idx]
        block = _local_values(lams[b, None], scales[b, None], u, h, co, order)
        del co  # freed before the block's own temporaries, or the heap fragments around it
        out[b] = block if reduce is None else [reduce(v) for v in block]
    return out


@dataclass(frozen=True, eq=False)
class PiecewiseForm:
    """Closed-form mode shape: ``breakpoints`` has length m+2 (supports plus crack positions)
    and ``coefficients`` is (m+1, 4), row i the (A, B, P, Q) of the bounded basis on interval i.
    """

    lam: float
    breakpoints: np.ndarray
    coefficients: np.ndarray

    def __post_init__(self) -> None:
        bp = np.asarray(self.breakpoints, dtype=float)
        co = np.asarray(self.coefficients, dtype=float)
        if co.shape != (len(bp) - 1, 4):
            raise ValueError(f"{len(bp)} breakpoints need {len(bp) - 1}x4 coefficients")
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "coefficients", co)

    def eval(self, x, order: int = 0, side: str = "R"):
        """Derivative of the mode at ``x``; right-continuous at cracks.

        ``side`` only matters at breakpoints, where slope and higher
        derivatives may jump.  The one-mode slice of :meth:`Spectrum.eval`.
        """
        xa = np.asarray(x, dtype=float)
        lam, co = np.array([self.lam]), self.coefficients[None]
        out = _values(lam, co, self.breakpoints, xa.ravel(), order, side)[0]
        return float(out[0]) if xa.ndim == 0 else out.reshape(xa.shape)


@dataclass(frozen=True, eq=False)
class Eigenpair:
    """One wavenumber with its mode shape, whichever solver computed it."""

    lam: float
    piecewise: PiecewiseForm

    def eval(self, x, order: int = 0, side: str = "R"):
        return self.piecewise.eval(x, order=order, side=side)


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Modes of one problem: read-only ``lambdas`` (n,) and (n, m+1, 4) ``coefficients``, each
    mode of unit displacement norm; ``pairs`` splits them into eigenpairs."""

    problem: BeamProblem
    lambdas: np.ndarray
    coefficients: np.ndarray

    def __post_init__(self) -> None:
        self.lambdas.setflags(write=False)
        self.coefficients.setflags(write=False)

    @functools.cached_property
    def pairs(self) -> tuple[Eigenpair, ...]:
        bp, rows = self.problem.breakpoints, zip(self.lambdas.tolist(), self.coefficients)
        return tuple(Eigenpair(lam, PiecewiseForm(lam, bp, co)) for lam, co in rows)

    def eval(self, x, order: int = 0, side: str = "R", reduce=None) -> np.ndarray:
        """(modes, points) table of every mode's ``eval`` at ``x``, or ``reduce`` of each row."""
        x, bp = np.asarray(x, dtype=float).ravel(), self.problem.breakpoints
        return _values(self.lambdas, self.coefficients, bp, x, order, side, reduce)


def normalize_eigenpair(pair: Eigenpair) -> Eigenpair:
    """One-mode :func:`_normalized`: unit displacement norm, positive left slope."""
    form = pair.piecewise
    rows = _normalized(np.array([pair.lam]), form.coefficients[None], form.breakpoints)
    return Eigenpair(pair.lam, PiecewiseForm(pair.lam, form.breakpoints, rows[0]))


# The ten products of (A, B, P, Q) in phi**2, in the order of _cells' integrals, with weights.
_LEFT, _RIGHT = np.array([0, 1, 2, 3, 0, 0, 0, 1, 1, 2]), np.array([0, 1, 2, 3, 1, 2, 3, 2, 3, 3])
_WEIGHTS = np.array([0.5, 0.5, 0.5, 0.5, 1.0, 1.0, 1.0, 1.0, 1.0, 2.0])[:, None, None]


def _cells(lam: np.ndarray, h: np.ndarray, co: np.ndarray) -> np.ndarray:
    """Integral of phi**2 over each (mode, interval) cell: wavenumber ``lam`` (a column), length
    ``h``, (A, B, P, Q) on the last axis of ``co``.  In closed form, ``pair`` holds 2 lam times the
    integrals of the basis products C C, S S, E E, F F, C S, C E, C F, S E and S F, and lam times
    that of E F, for (C, S, E, F) = (cos lam u, sin lam u, e**(-lam u), e**(-lam (h - u))).  A cell
    of phase lam h at most ``quadrature.MAX_PHASE_PER_PANEL`` takes one 16-point Gauss panel: at
    mechanism roots (lam pi << 1) coefficients of 40-100 cancel in the closed form, 1e-11 off."""
    t = lam * h
    cos, sin, decay = np.cos(t), np.sin(t), np.exp(-t)
    sc, e_sin, e_cos, e2 = sin * cos, decay * sin, decay * cos, -np.expm1(-2.0 * t)
    pair = np.array([t + sc, t - sc, e2, e2, sin * sin, 1.0 + (e_sin - e_cos), sin + cos - decay,
                     1.0 - (e_sin + e_cos), sin - cos + decay, t * decay])
    pair *= _WEIGHTS
    ends = np.moveaxis(co, -1, 0)
    pair *= ends[_LEFT]
    pair *= ends[_RIGHT]
    scaled = pair.sum(axis=0)  # lam times each cell's integral
    short = np.nonzero(t <= quadrature.MAX_PHASE_PER_PANEL)
    if short[0].size:
        # The cell mapped onto [0, 1], u = h x: lam times its integral is t times that over x.
        (nodes, weights), phase = quadrature._gauss_nodes(), t[short]
        v = _local_values(phase[:, None], 1.0, 0.5 * nodes + 0.5, 1.0, co[short][:, None], 0)
        scaled[short] = phase * (v * v * (0.5 * weights)).sum(axis=1)  # BLAS would round by count
    return scaled / lam


def _normalized(lams: np.ndarray, rows: np.ndarray, breakpoints) -> np.ndarray:
    """The (n, m+1, 4) coefficient stack ``rows`` of modes at ``lams`` on ``breakpoints``, each
    mode rescaled to unit norm, the sum of its :func:`_cells` (in :func:`rootfind._blocks` of
    modes), and to a positive slope at the left end, or third derivative where that vanishes."""
    h, squares = np.diff(np.asarray(breakpoints, dtype=float)), np.empty(len(lams))
    for b in rootfind._blocks(len(lams), quadrature.ORDER * len(h)):
        squares[b] = _cells(lams[b, None], h, rows[b]).sum(axis=1)
    if not squares.all():
        raise ValueError("cannot normalize the zero function")
    # phi'(0+) / lam, or phi'''(0+) / lam**3 where that vanishes (both zero: up), on the first
    # interval, whose left end is x = 0: B - P + Q e**(-lam h) and -B - P + Q e**(-lam h).
    _, b, p, q = rows[:, 0].T
    rising = q * np.exp(-lams * h[0])
    slope, third = b - p + rising, -b - p + rising
    up = np.where(slope != 0.0, slope, third) >= 0.0
    return rows * (np.where(up, 1.0, -1.0) / np.sqrt(squares))[:, None, None]


def solve(problem, recover, roots) -> Spectrum:
    """Spectrum of ``problem`` at its ``roots``: :func:`_normalized` of the raw (n, m+1, 4) stack,
    at any scale and sign, that one call of a solver's ``recover(problem, lams)`` gives."""
    lams = np.array(roots)
    return Spectrum(problem, lams, _normalized(lams, recover(problem, lams), problem.breakpoints))
