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
modes at its roots; :func:`solve` does everything else once, for all roots together, and
normalizes them on the one quadrature rule of the highest root.  :func:`normalize_eigenpair`,
``solve_nullspace`` and ``build_eigenfunction`` are the one-root slices of that batched code.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from .quadrature import QuadratureRule

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from .shifrin import ShifrinForm


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

    def _intervals(self, x: np.ndarray, side: str) -> np.ndarray:
        mode = "right" if is_right_side(side) else "left"
        # Counting crack positions alone puts points beyond either support in an end interval.
        return np.searchsorted(self.breakpoints[1:-1], x, side=mode)

    def eval(self, x, order: int = 0, side: str = "R"):
        """Derivative of the mode at ``x``; right-continuous at cracks.

        ``side`` only matters at breakpoints, where slope and higher
        derivatives may jump.
        """
        xa = np.asarray(x, dtype=float)
        xf = np.atleast_1d(xa)
        idx = self._intervals(xf, side)
        u, h = xf - self.breakpoints[idx], self._lengths[idx]
        out = _local_values(self.lam, self.lam**order, u, h, self.coefficients[idx], order)
        return float(out[0]) if xa.ndim == 0 else out

    def scaled(self, factor: float) -> "PiecewiseForm":
        return replace(self, coefficients=self.coefficients * factor)


@dataclass(frozen=True)
class Eigenpair:
    """One wavenumber with its mode shape (and the jump-amplitude solver's form)."""

    lam: float
    piecewise: PiecewiseForm
    shifrin: "ShifrinForm | None" = None

    def eval(self, x, order: int = 0, side: str = "R"):
        return self.piecewise.eval(x, order=order, side=side)

    def scaled(self, factor: float) -> "Eigenpair":
        sh = None if self.shifrin is None else self.shifrin.scaled(factor)
        return replace(self, piecewise=self.piecewise.scaled(factor), shifrin=sh)


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
    the sign falls back to the third derivative there (one-pair :func:`_normalized`).
    """
    return _normalized([pair], rule)[0]


def _normalized(pairs: list[Eigenpair], rule: QuadratureRule) -> list[Eigenpair]:
    """:func:`normalize_eigenpair` of pairs on one partition, all on the nodes of ``rule``."""
    first = pairs[0].piecewise
    bp, lengths = first.breakpoints, first._lengths
    idx = first._intervals(rule.nodes, "R")
    u, h = rule.nodes - bp[idx], lengths[idx]
    # One mode at a time, as a single pair takes it; a stack of all modes holds modes x nodes.
    values = (_local_values(p.lam, 1.0, u, h, p.piecewise.coefficients[idx], 0) for p in pairs)
    norms = [float(np.sqrt(rule.integrate(v * v))) for v in values]
    if 0.0 in norms:
        raise ValueError("cannot normalize the zero function")
    # phi'(0+), or phi'''(0+) where it vanishes, on each first interval (x = 0 is its left end),
    # without the scale lam**k: a positive factor never changes a sign.
    lams = np.array([pair.lam for pair in pairs])
    rows = np.array([pair.piecewise.coefficients[0] for pair in pairs])
    slope, third = (_local_values(lams, 1.0, 0.0 - bp[0], lengths[0], rows, k) for k in (1, 3))
    up = (np.where(slope != 0.0, slope, np.where(third != 0.0, third, 1.0)) > 0.0).tolist()
    return [pair.scaled((1.0 if u else -1.0) / norm) for pair, u, norm in zip(pairs, up, norms)]


def normalize_modes(problem, pairs: list[Eigenpair]) -> list[Eigenpair]:
    """Every mode of ``problem`` normalized on the one quadrature rule of its top wavenumber."""
    return _normalized(pairs, QuadratureRule.for_problem(problem, max(pair.lam for pair in pairs)))


def solve(problem, recover, roots) -> Spectrum:
    """Eigenpairs of ``problem`` at its ``roots``, recovered by one call of a solver's
    ``recover(problem, lams)`` (at any scale and sign) and normalized together."""
    return Spectrum(tuple(normalize_modes(problem, recover(problem, np.array(roots)))))
