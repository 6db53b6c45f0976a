"""The paper's classical parametrization of a jump-amplitude mode.

The paper splits a mode as ``phi = phi_s + sum_i Delta_i w_i``, where w_i is
piecewise linear with a unit slope jump at crack i and zero at both supports,
and writes the smooth part with cos, sin, cosh, sinh plus the convolutions
``(lam/2) Delta_i M_i`` of w_i against sinh - sin.  These are elementary:
``M_i(x) = w_i'(0) K(x) + H(x - x_i) K(x - x_i)``, where ``(lam/2) K(u)`` is
the classical response ``(sin + sinh)(lam u) / (2 lam)`` minus its linear part u.
The classical terms grow like e**(lam*pi), so :mod:`crackedbeam.shifrin` solves
with the bounded response g instead.
This module keeps the classical pieces; they check the two parametrizations
against each other and against the paper.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .beam_model import BeamProblem
from .modes import _trig_rows, is_right_side
from .rootfind import wavenumbers


@dataclass(frozen=True)
class JumpBasis:
    """Piecewise-linear w_i: zero at both supports, unit slope jump at x_i."""

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


def jump_basis(problem: BeamProblem, i: int) -> JumpBasis:
    """The i-th (1-based) jump basis function of a problem."""
    if not 1 <= i <= problem.m:
        raise IndexError(f"crack index {i} out of range 1..{problem.m}")
    return JumpBasis(breakpoint=problem.positions[i - 1])


def basis_eval(problem: BeamProblem, i: int, x, order: int = 0, side: str = "R"):
    """Evaluate w_i or its one-sided slope at ``x``."""
    return jump_basis(problem, i).eval(x, order=order, side=side)


def kernel_M(problem: BeamProblem, i: int, x, lam: float, order: int = 0):
    """Convolution of sinh - sin against w_i, or one of its derivatives.

    ``M_i(x) = integral_0^x (sinh(lam (x-s)) - sin(lam (x-s))) w_i(s) ds``.
    Since w_i(0) = 0 and w_i'' is a unit point mass at x_i, two integrations
    by parts give ``M_i(x) = w_i'(0) K(x) + H(x - x_i) K(x - x_i)`` with
    ``K(u) = (sin(lam u) + sinh(lam u) - 2 lam u) / lam**2``.  Every order r of K
    is exactly 0 at u = 0, so the step H is applied by clamping x - x_i at 0.
    From |lam u| = 1 up, K is the (cos, sin) table's row plus sinh or cosh, by
    the parity of r.  Below, that difference cancels (the value loses about
    4 log10(1/|lam u|) digits), so K is summed from its Taylor series
    ``2 sum_{k>=1} t**(4k+1-r) / (4k+1-r)!`` at t = lam u, whose terms share one sign.
    """
    if order not in (0, 1, 2, 3):
        raise ValueError(f"order {order} not in 0..3")
    lam = float(wavenumbers(lam))
    basis = jump_basis(problem, i)
    xa = np.asarray(x, dtype=float)

    def kernel(u):
        t = lam * u
        d_sinh = (np.sinh if order % 2 == 0 else np.cosh)(t)
        closed = _trig_rows(t, order)[1] + d_sinh - (2.0 * t, 2.0, 0.0, 0.0)[order]
        small = np.abs(t) < 1.0
        ts = np.where(small, t, 0.0)
        # Five terms: the first one dropped is below 1e-20 of the first one kept.
        powers = [4 * k + 1 - order for k in range(1, 6)]
        series = sum(2.0 * ts**n / math.factorial(n) for n in powers)
        return lam ** (order - 2) * np.where(small, series, closed)

    out = basis.left_slope * kernel(xa) + kernel(np.maximum(xa - basis.breakpoint, 0.0))
    return float(out) if xa.ndim == 0 else out


def classical_coefficients(form) -> np.ndarray:
    """Equivalent (A, B, C, D) of cos, sin, cosh, sinh of a ``ShifrinForm``.

    They belong to the split
    phi = (classical four-term part) + (lam/2) sum Delta_i M_i + sum Delta_i w_i.
    The solver's response g(x - x_i) differs from w_i + (lam/2) M_i by two global
    homogeneous terms, which the conversion folds back in:
    -w_i'(0) (sin + sinh)(lam x) / (2 lam) and -(sin + exp)(lam (x - x_i)) / (4 lam).
    """
    lam, (a, b, p, q) = form.lam, form.coefficients
    x, quarter = np.asarray(form.positions, dtype=float), form.deltas / (4.0 * lam)
    decay, spill = math.exp(-lam * math.pi), form.deltas @ (x - math.pi) / (2.0 * lam * math.pi)
    sin, cos, exp = quarter @ np.sin(lam * x), quarter @ np.cos(lam * x), quarter @ np.exp(-lam * x)
    return np.array([a + sin, b - spill - cos, p + q * decay - exp, -p + q * decay - spill - exp])
