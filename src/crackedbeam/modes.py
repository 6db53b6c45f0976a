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
    terms = co[..., 0] * d_cos + co[..., 1] * d_sin + co[..., 2] * decaying + co[..., 3] * rising
    return scale * terms


#: Most values in one (modes, points) table of a block of modes; see :func:`_blocks`.
BLOCK_VALUES = 1 << 14


def _blocks(count: int, points: int) -> list[slice]:
    """Slices covering ``count`` modes in blocks of at most BLOCK_VALUES values at ``points``
    points each, so a table of many modes at many points is never taken whole."""
    step = max(1, BLOCK_VALUES // max(1, points))
    return [slice(a, a + step) for a in range(0, count, step)]


def _values(lams, rows, breakpoints, x, order: int, side: str, reduce=None) -> np.ndarray:
    """(modes, points) table of the order-th derivatives at the points ``x`` of the modes with
    wavenumbers ``lams`` and (n, m+1, 4) coefficient stack ``rows`` on ``breakpoints``: the one
    evaluation of every mode, filled block by block.  Each mode is scaled by its own lam**order.
    With ``reduce``, the (modes,) values of ``reduce`` on each mode's row, so no table is kept."""
    bp = np.asarray(breakpoints, dtype=float)
    # Counting crack positions alone puts points beyond either support in an end interval.
    idx = np.searchsorted(bp[1:-1], x, side="right" if is_right_side(side) else "left")
    u, h = x - bp[idx], (bp[1:] - bp[:-1])[idx]
    scales = np.array([lam**order for lam in lams.tolist()])
    out = np.empty((len(lams), len(x)) if reduce is None else len(lams))
    for b in _blocks(len(lams), len(x)):
        co = np.take(rows[b], idx, axis=1)  # far faster than rows[b][:, idx]
        block = _local_values(lams[b, None], scales[b, None], u, h, co, order)
        del co  # freed before the block's own temporaries, or the heap fragments around it
        out[b] = block if reduce is None else [reduce(v) for v in block]
    return out


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

    def eval(self, x, order: int = 0, side: str = "R"):
        """Derivative of the mode at ``x``; right-continuous at cracks.

        ``side`` only matters at breakpoints, where slope and higher
        derivatives may jump.  The one-mode slice of :meth:`Spectrum.eval`.
        """
        xa = np.asarray(x, dtype=float)
        lam, co = np.array([self.lam]), self.coefficients[None]
        out = _values(lam, co, self.breakpoints, xa.ravel(), order, side)[0]
        return float(out[0]) if xa.ndim == 0 else out.reshape(xa.shape)


@dataclass(frozen=True)
class Eigenpair:
    """One wavenumber with its mode shape, whichever solver computed it."""

    lam: float
    piecewise: PiecewiseForm

    def eval(self, x, order: int = 0, side: str = "R"):
        return self.piecewise.eval(x, order=order, side=side)


@dataclass(frozen=True)
class Spectrum:
    """Ordered eigenpairs of one problem, so all on one partition."""

    pairs: tuple[Eigenpair, ...]

    @property
    def lambdas(self) -> np.ndarray:
        return np.array([p.lam for p in self.pairs])

    @functools.cached_property
    def _stack(self) -> tuple[np.ndarray, np.ndarray]:
        return self.lambdas, np.array([p.piecewise.coefficients for p in self.pairs])

    def eval(self, x, order: int = 0, side: str = "R", reduce=None) -> np.ndarray:
        """(modes, points) table of every mode's ``eval`` at ``x``, or ``reduce`` of each row."""
        x, bp = np.asarray(x, dtype=float).ravel(), self.pairs[0].piecewise.breakpoints
        return _values(*self._stack, bp, x, order, side, reduce)


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
    squares = _values(lams, rows, breakpoints, rule.nodes, 0, "R", lambda v: rule.integrate(v * v))
    norms = np.sqrt(squares)  # one np.dot per mode, as one mode takes it
    if (norms == 0.0).any():
        raise ValueError("cannot normalize the zero function")
    # phi'(0+), or phi'''(0+) where it vanishes, on each first interval (x = 0 is its left end),
    # without the scale lam**k: a positive factor never changes a sign.
    h = breakpoints[1] - breakpoints[0]
    slope, third = (_local_values(lams, 1.0, 0.0, h, rows[:, 0], k) for k in (1, 3))
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
