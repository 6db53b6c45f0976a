"""Mode-shape containers and the solve pipeline shared by both solvers.

Between consecutive cracks every mode is an exact combination
``A sin + B cos + C sinh + D cosh`` of the local coordinate scaled by the
wavenumber.  Storing those four coefficients per subinterval keeps all
derivative evaluations exact and free of cancellation, which matters for
residual checks at the fourth derivative.  The derivatives of those four
functions come from one table, :func:`_basis_rows`, and the state map
(w, w', w'', w''') <-> (A, B, C, D) and its explicit inverse at the left end
are stated once here for both solvers.  A mode is read through
``eval(x, order, side)`` alone, at a point or an array of points.

The solvers differ only in their characteristic determinant and in how they
recover a mode at a root; :func:`solve` does everything else once: it finds
the roots, then normalizes each mode in the displacement space.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from . import rootfind
from .quadrature import QuadratureRule

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from .shifrin import ShifrinForm


def is_right_side(side: str) -> bool:
    """True for the right limit "R", False for the left limit "L"; other labels raise."""
    if side not in ("L", "R"):
        raise ValueError(f"side must be 'L' or 'R', not {side!r}")
    return side == "R"


def _basis(t: np.ndarray) -> tuple[np.ndarray, ...]:
    """(sin, cos, sinh, cosh) at phase ``t = lam*xi``."""
    return np.sin(t), np.cos(t), np.sinh(t), np.cosh(t)


def _basis_rows(basis: tuple[np.ndarray, ...], order: int) -> tuple[np.ndarray, ...]:
    """Order-th derivative of (sin, cos, sinh, cosh), given their values ``basis``.

    The derivative is taken in the phase: the caller applies the lam**order
    scale.  This is the one such table; the state map, the piecewise mode,
    the jump response and the smooth part of the jump-amplitude form read it.
    """
    sin_t, cos_t, sinh_t, cosh_t = basis
    r = order % 4
    if r == 0:
        trig = (sin_t, cos_t)
    elif r == 1:
        trig = (cos_t, -sin_t)
    elif r == 2:
        trig = (-sin_t, -cos_t)
    else:
        trig = (-cos_t, sin_t)
    hyp = (sinh_t, cosh_t) if order % 2 == 0 else (cosh_t, sinh_t)
    return trig[0], trig[1], hyp[0], hyp[1]


def _powers(lam: np.ndarray) -> np.ndarray:
    """lam**0 .. lam**3 for every entry, as Python floats compute them; shape (..., 4)."""
    # x**0 and x**1 are exactly 1.0 and x; only the squares and cubes need pow.
    flat = [[1.0, x, x**2, x**3] for x in lam.ravel().tolist()]
    return np.array(flat).reshape(lam.shape + (4,))


def local_state_matrix(lam, xi: float) -> np.ndarray:
    """Matrix sending local coefficients (A,B,C,D) to (w, w', w'', w''') at xi.

    ``lam`` may also be an array of wavenumbers; the result then holds one
    4x4 matrix per entry along its leading axes.
    """
    lam = np.asarray(lam, dtype=float)
    basis = _basis(lam * xi)
    rows = np.moveaxis(np.array([_basis_rows(basis, k) for k in range(4)]), (0, 1), (-2, -1))
    return _powers(lam)[..., :, None] * np.ascontiguousarray(rows)


def coefficients_from_state(lam, state) -> np.ndarray:
    """Invert the local state map at xi = 0, for one state or a stack (..., 4).

    ``lam`` is one wavenumber or an array broadcasting against the stack's
    leading axes.  The value fixes B + D, the slope A + C, and the second
    and third derivatives split the pairs, so the inverse is explicit.
    """
    powers = _powers(np.asarray(lam, dtype=float))
    lam1, lam2, lam3 = powers[..., 1], powers[..., 2], powers[..., 3]
    state = np.asarray(state, dtype=float)
    s0, s1, s2, s3 = state[..., 0], state[..., 1], state[..., 2], state[..., 3]
    a = 0.5 * s1 / lam1 - 0.5 * s3 / lam3
    b = 0.5 * s0 - 0.5 * s2 / lam2
    c = 0.5 * s1 / lam1 + 0.5 * s3 / lam3
    d = 0.5 * s0 + 0.5 * s2 / lam2
    return np.stack([a, b, c, d], axis=-1)


@dataclass(frozen=True)
class PiecewiseForm:
    """Closed-form mode shape: four local coefficients per subinterval.

    ``breakpoints`` has length m+2 (supports plus crack positions) and
    ``coefficients`` is (m+1, 4) with rows (A, B, C, D) for interval i in the
    local coordinate ``x - breakpoints[i]``.
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

    def _intervals(self, x: np.ndarray, side: str) -> np.ndarray:
        mode = "right" if is_right_side(side) else "left"
        idx = np.searchsorted(self.breakpoints, x, side=mode) - 1
        return np.clip(idx, 0, len(self.coefficients) - 1)

    def eval(self, x, order: int = 0, side: str = "R"):
        """Derivative of the mode at ``x``; right-continuous at cracks.

        ``side`` only matters at breakpoints, where slope and higher
        derivatives may jump.
        """
        xa = np.asarray(x, dtype=float)
        scalar = xa.ndim == 0
        xf = np.atleast_1d(xa)
        idx = self._intervals(xf, side)
        xi = xf - self.breakpoints[idx]
        fa, fb, fc, fd = _basis_rows(_basis(self.lam * xi), order)
        co = self.coefficients[idx]
        out = self.lam**order * (co[:, 0] * fa + co[:, 1] * fb + co[:, 2] * fc + co[:, 3] * fd)
        return float(out[0]) if scalar else out

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
    the sign falls back to the third derivative there.
    """
    values = pair.eval(rule.nodes)
    norm = float(np.sqrt(rule.integrate(values**2)))
    if norm == 0.0:
        raise ValueError("cannot normalize the zero function")
    sign = 1.0
    for order in (1, 3):
        probe = float(pair.eval(0.0, order, "R"))
        if probe != 0.0:
            sign = 1.0 if probe > 0.0 else -1.0
            break
    return pair.scaled(sign / norm)


def solve(problem, det, mode, count: int, lam_max: float | None = None) -> Spectrum:
    """First ``count`` normalized eigenpairs of ``problem``.

    ``det(problem, lams)`` is a solver's characteristic determinant and
    ``mode(problem, lam)`` its eigenpair at a root, at any scale and sign.
    Each mode is normalized here to h(phi, phi) = 1 with phi'(0+) > 0.
    """
    roots = rootfind.first_roots(det, problem, count, lam_max)
    pairs = [mode(problem, lam) for lam in roots]
    rules = [QuadratureRule.for_problem(problem, lam) for lam in roots]
    return Spectrum(tuple(map(normalize_eigenpair, pairs, rules)))
