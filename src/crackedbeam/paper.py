"""The paper's classical parametrization of a jump-amplitude mode.

The paper splits a mode as ``phi = phi_s + sum_i Delta_i w_i``, where w_i is
piecewise linear with a unit slope jump at crack i and zero at both supports,
and writes the smooth part with cos, sin, cosh, sinh plus the convolutions
``(lam/2) Delta_i M_i`` of w_i against sinh - sin.  Those terms grow like
e**(lam*pi), so :mod:`crackedbeam.shifrin` solves in a bounded equivalent
basis instead.  This module keeps the classical pieces; they check the two
parametrizations against each other and against the paper.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .beam_model import BeamProblem
from .modes import is_right_side


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


def classical_coefficients(form) -> np.ndarray:
    """Equivalent (A, B, C, D) of cos, sin, cosh, sinh of a ``ShifrinForm``.

    They belong to the split
    phi = (classical four-term part) + (lam/2) sum Delta_i M_i + sum Delta_i w_i.
    The jump response z_i differs from w_i + (lam/2) M_i by the global
    homogeneous term -w_i'(0) (sin + sinh)(lam x)/(2 lam), which is what
    the conversion folds back in.
    """
    a, b, p, q = form.coefficients
    decay = math.exp(-form.lam * math.pi)
    spill = sum(
        delta * (x_i - math.pi) / math.pi for delta, x_i in zip(form.deltas, form.positions)
    ) / (2.0 * form.lam)
    return np.array([a, b - spill, p + q * decay, -p + q * decay - spill])
