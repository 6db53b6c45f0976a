"""Mode-shape containers and the solve pipeline shared by both solvers.

On each interval [a, b] between consecutive cracks, with u = x - a and h = b - a, a mode
is ``A cos(lam u) + B sin(lam u) + P e**(-lam u) + Q e**(-lam (h - u))``: the jump-amplitude
solver's bounded basis applied to one interval.  No basis function exceeds 1 on its interval,
so a value sums no large terms that cancel, and derivatives are exact: the trigonometric pair
reads the one (cos, sin) table :func:`_trig_rows`, and the exponentials only change sign.
Each solver writes its own coefficients from the addition formulas; nothing evaluates a
state (w, w', w'', w''') and inverts it.  A mode is read through ``eval(x, order, side)``
alone, at a point or an array of points.

The solvers differ only in their characteristic determinant and in how they recover the
modes at its roots.  A solver's ``recover(problem, lams)`` returns the raw (n, m+1, 4) stack
of these coefficients, one mode per root at any scale and sign; :func:`solve` normalizes the
stack once, on the one quadrature rule of the highest root, and only then builds the
:class:`Eigenpair` objects.  :func:`normalize_eigenpair`, ``solve_nullspace`` and
``build_eigenfunction`` are the one-root slices of that stacked code.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .quadrature import QuadratureRule


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
    """Order-th derivative of the rows ``co`` at local coordinate ``u`` on intervals of length
    ``h``; ``scale`` is lam**order.  Each row holds (A, B, P, Q) of cos(lam u), sin(lam u),
    e**(-lam u) and e**(-lam (h - u))."""
    t = lam * u
    d_cos, d_sin = _trig_rows(t, order)
    decaying = -np.exp(-t) if order % 2 else np.exp(-t)
    rising = np.exp(lam * (u - h))
    return scale * (co[:, 0] * d_cos + co[:, 1] * d_sin + co[:, 2] * decaying + co[:, 3] * rising)


def _intervals(breakpoints: np.ndarray, x: np.ndarray, side: str) -> np.ndarray:
    """Interval of ``breakpoints`` holding each ``x``; ``side`` picks one at a crack."""
    mode = "right" if is_right_side(side) else "left"
    # Counting crack positions alone puts points beyond either support in an end interval.
    return np.searchsorted(breakpoints[1:-1], x, side=mode)


@dataclass(frozen=True)
class PiecewiseForm:
    """Closed-form mode shape: four bounded-basis coefficients per subinterval.

    ``breakpoints`` has length m+2 (supports plus crack positions) and
    ``coefficients`` is (m+1, 4).  Row i holds (A, B, P, Q) of cos(lam u),
    sin(lam u), e**(-lam u) and e**(-lam (h - u)) on interval i, where
    ``u = x - breakpoints[i]`` and h is the interval's length.
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

    @functools.cached_property
    def _lengths(self) -> np.ndarray:
        return np.diff(self.breakpoints)

    def eval(self, x, order: int = 0, side: str = "R"):
        """Derivative of the mode at ``x``; right-continuous at cracks.

        ``side`` only matters at breakpoints, where slope and higher
        derivatives may jump.
        """
        xa = np.asarray(x, dtype=float)
        xf = np.atleast_1d(xa)
        idx = _intervals(self.breakpoints, xf, side)
        u, h = xf - self.breakpoints[idx], self._lengths[idx]
        out = _local_values(self.lam, self.lam**order, u, h, self.coefficients[idx], order)
        return float(out[0]) if xa.ndim == 0 else out


@dataclass(frozen=True)
class Eigenpair:
    """One wavenumber with its mode shape, whichever solver computed it."""

    lam: float
    piecewise: PiecewiseForm

    def eval(self, x, order: int = 0, side: str = "R"):
        return self.piecewise.eval(x, order=order, side=side)


@dataclass(frozen=True)
class Spectrum:
    """Ordered eigenpairs of one problem."""

    pairs: tuple[Eigenpair, ...]

    @property
    def lambdas(self) -> np.ndarray:
        return np.array([p.lam for p in self.pairs])


def normalize_eigenpair(pair: Eigenpair, rule) -> Eigenpair:
    """Rescale to unit displacement norm with a positive slope at the left end.

    When the left slope vanishes (possible only in degenerate constructions)
    the sign falls back to the third derivative there (one-mode :func:`_normalized`).
    """
    form = pair.piecewise
    rows = _normalized(np.array([pair.lam]), form.coefficients[None], form.breakpoints, rule)
    return Eigenpair(pair.lam, PiecewiseForm(pair.lam, form.breakpoints, rows[0]))


def _normalized(lams: np.ndarray, rows: np.ndarray, breakpoints, rule) -> np.ndarray:
    """The (n, m+1, 4) coefficient stack ``rows`` of modes at ``lams`` on ``breakpoints``, each
    mode scaled by :func:`normalize_eigenpair`'s rule, its norm taken on the nodes of ``rule``."""
    bp = np.asarray(breakpoints, dtype=float)
    lengths = np.diff(bp)
    idx = _intervals(bp, rule.nodes, "R")
    u, h = rule.nodes - bp[idx], lengths[idx]
    # One mode at a time, as a single mode takes it; a stack of all modes holds modes x nodes.
    values = (_local_values(lam, 1.0, u, h, co[idx], 0) for lam, co in zip(lams.tolist(), rows))
    norms = np.array([np.sqrt(rule.integrate(v * v)) for v in values])
    if (norms == 0.0).any():
        raise ValueError("cannot normalize the zero function")
    # phi'(0+), or phi'''(0+) where it vanishes, on each first interval (x = 0 is its left end),
    # without the scale lam**k: a positive factor never changes a sign.
    slope, third = (_local_values(lams, 1.0, 0.0, lengths[0], rows[:, 0], k) for k in (1, 3))
    up = np.where(slope != 0.0, slope, np.where(third != 0.0, third, 1.0)) > 0.0
    return rows * (np.where(up, 1.0, -1.0) / norms)[:, None, None]


def solve(problem, recover, roots) -> Spectrum:
    """Eigenpairs of ``problem`` at its ``roots``.  One call of a solver's ``recover(problem,
    lams)`` gives the raw modes' (n, m+1, 4) coefficient stack, at any scale and sign, which is
    normalized on the one quadrature rule of the top root before any pair is built."""
    lams, bp = np.array(roots), problem.breakpoints
    rule = QuadratureRule.for_problem(problem, lams.max())
    rows = _normalized(lams, recover(problem, lams), bp, rule)
    pairs = (Eigenpair(lam, PiecewiseForm(lam, bp, co)) for lam, co in zip(lams.tolist(), rows))
    return Spectrum(tuple(pairs))
