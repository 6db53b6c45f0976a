"""Inner products, energy forms, and the residual suite for computed modes.

The displacement space pairs functions subinterval by subinterval; the
energy space adds slope-jump terms at the cracks.  The operator form weights
each slope jump by the inverse flexibility, which is what ties the spring
model to the spectrum: Rayleigh quotients of true modes equal lambda**4.

Everything here consumes objects exposing ``eval(x, order, side)``, which
takes a point or an array of points; a one-sided value at a point is
``float(f.eval(x, order, side))``.  Both solver outputs and the light
adapters below qualify.  :func:`verify` gathers every check into one report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .beam_model import BeamProblem, ValidationError
from .quadrature import QuadratureRule

#: Count of interior sample points per subinterval in the residual report.
ODE_SAMPLES_PER_INTERVAL = 20

#: Points of the uniform grid on [0, pi] where two solvers' modes are compared.
CROSS_GRID_POINTS = 200


class FunctionOnPartition:
    """Adapter giving a closed-form smooth function the evaluation protocol.

    Supply callables for the derivative orders you intend to use; vectorized
    over x.  One-sided evaluation just evaluates (no jumps in a smooth
    function).
    """

    def __init__(self, *derivatives):
        if not derivatives:
            raise ValueError("need at least the order-0 callable")
        self._derivatives = derivatives

    def eval(self, x, order: int = 0, side: str = "R"):
        if order >= len(self._derivatives):
            raise ValueError(f"no callable supplied for derivative order {order}")
        return self._derivatives[order](np.asarray(x, dtype=float))


class Superposition:
    """Linear combination of evaluation-protocol objects."""

    def __init__(self, terms):
        self._terms = [(float(c), f) for c, f in terms]

    def eval(self, x, order: int = 0, side: str = "R"):
        out = None
        for c, f in self._terms:
            val = c * np.asarray(f.eval(x, order=order, side=side), dtype=float)
            out = val if out is None else out + val
        return out


def h_inner(u, v, rule: QuadratureRule) -> float:
    """Displacement-space inner product: sum of L2 pairings per subinterval."""
    return rule.integrate(np.asarray(u.eval(rule.nodes)) * np.asarray(v.eval(rule.nodes)))


def _jump(f, x: float, order: int) -> float:
    return float(f.eval(x, order, "R")) - float(f.eval(x, order, "L"))


def v_inner(u, v, problem: BeamProblem, rule: QuadratureRule) -> float:
    """Energy-space inner product: curvature pairing plus slope-jump products."""
    acc = rule.integrate(
        np.asarray(u.eval(rule.nodes, order=2)) * np.asarray(v.eval(rule.nodes, order=2))
    )
    for x in problem.positions:
        acc += _jump(u, x, 1) * _jump(v, x, 1)
    return float(acc)


def a_form(u, v, problem: BeamProblem, rule: QuadratureRule) -> float:
    """Operator bilinear form: curvature pairing plus jumps weighted by 1/theta."""
    for i, theta in enumerate(problem.flexibilities):
        if theta <= 0.0:
            raise ValidationError(f"theta_{i + 1} = {theta} must be positive in the energy form")
    acc = rule.integrate(
        np.asarray(u.eval(rule.nodes, order=2)) * np.asarray(v.eval(rule.nodes, order=2))
    )
    for x, theta in zip(problem.positions, problem.flexibilities):
        acc += _jump(u, x, 1) * _jump(v, x, 1) / theta
    return float(acc)


def coercivity_probe(u, problem: BeamProblem, rule: QuadratureRule) -> float:
    """Ratio a(u,u) / ||u||_V^2; bounded below by min(1, min_i 1/theta_i)."""
    denom = v_inner(u, u, problem, rule)
    if denom <= 0.0:
        raise ValueError("coercivity probe needs a nonzero test function")
    return a_form(u, u, problem, rule) / denom


def gram_matrix(pairs, rule: QuadratureRule) -> np.ndarray:
    """Matrix of pairwise displacement inner products; identity for true modes."""
    if len(pairs) < 1:
        raise ValueError("need at least one mode")
    values = [np.asarray(p.eval(rule.nodes)) for p in pairs]
    out = np.empty((len(pairs), len(pairs)))
    for k, vk in enumerate(values):
        for j in range(k, len(pairs)):
            out[k, j] = out[j, k] = rule.integrate(vk * values[j])
    return out


@dataclass(frozen=True)
class ResidualReport:
    """Max absolute residual of each boundary and junction condition family.

    ``scale`` is max(1, sup|phi''|): curvature-level residuals grow like
    lambda**2, so thresholds should be read relative to it.
    """

    bc_left: float
    bc_right: float
    moment_left: float
    moment_right: float
    jump_disp: tuple[float, ...]
    jump_moment: tuple[float, ...]
    jump_shear: tuple[float, ...]
    crack_law: tuple[float, ...]
    ode_residual: float
    scale: float = 1.0
    lam: float = field(default=0.0)

    def to_json_dict(self) -> dict:
        return {
            "bc_left": self.bc_left,
            "bc_right": self.bc_right,
            "moment_left": self.moment_left,
            "moment_right": self.moment_right,
            "jump_disp": list(self.jump_disp),
            "jump_moment": list(self.jump_moment),
            "jump_shear": list(self.jump_shear),
            "crack_law": list(self.crack_law),
            "ode_residual": self.ode_residual,
        }

    def worst(self) -> dict[str, float]:
        """Scalar per family, maxing over cracks where applicable."""
        def top(values):
            return max(values) if values else 0.0

        return {
            "bc_left": self.bc_left,
            "bc_right": self.bc_right,
            "moment_left": self.moment_left,
            "moment_right": self.moment_right,
            "jump_disp": top(self.jump_disp),
            "jump_moment": top(self.jump_moment),
            "jump_shear": top(self.jump_shear),
            "crack_law": top(self.crack_law),
            "ode_residual": self.ode_residual,
        }


def residual_report(pair, problem: BeamProblem, samples: int = ODE_SAMPLES_PER_INTERVAL) -> ResidualReport:
    """Check one mode against every defining condition.

    Families: displacement and moment at both supports; jumps of
    displacement, moment and shear across each crack; the crack law
    J[phi'] = theta * phi''; and the interior equation phi'''' = lambda**4 phi
    sampled on ``samples`` interior points per subinterval.
    """
    lam = pair.lam
    jump_disp, jump_moment, jump_shear, crack_law = [], [], [], []
    for x, theta in zip(problem.positions, problem.flexibilities):
        jump_disp.append(abs(_jump(pair, x, 0)))
        jump_moment.append(abs(_jump(pair, x, 2)))
        jump_shear.append(abs(_jump(pair, x, 3)))
        crack_law.append(abs(_jump(pair, x, 1) - theta * float(pair.eval(x, 2, "R"))))

    bp = problem.breakpoints
    ode = 0.0
    sup_d2 = 0.0
    for left, right in zip(bp, bp[1:]):
        inner = np.linspace(left, right, samples + 2)[1:-1]
        phi = np.asarray(pair.eval(inner))
        phi4 = np.asarray(pair.eval(inner, order=4))
        ode = max(ode, float(np.max(np.abs(phi4 - lam**4 * phi))))
        sup_d2 = max(sup_d2, float(np.max(np.abs(pair.eval(inner, order=2)))))
    for x in bp:
        for side in ("R", "L"):
            sup_d2 = max(sup_d2, abs(float(pair.eval(x, 2, side))))

    return ResidualReport(
        bc_left=abs(float(pair.eval(0.0, 0, "R"))),
        bc_right=abs(float(pair.eval(bp[-1], 0, "L"))),
        moment_left=abs(float(pair.eval(0.0, 2, "R"))),
        moment_right=abs(float(pair.eval(bp[-1], 2, "L"))),
        jump_disp=tuple(jump_disp),
        jump_moment=tuple(jump_moment),
        jump_shear=tuple(jump_shear),
        crack_law=tuple(crack_law),
        ode_residual=ode,
        scale=max(1.0, sup_d2),
        lam=lam,
    )


def cross_solver_gaps(spectrum, oracle) -> dict[str, float]:
    """Largest wavenumber gap and largest sampled mode difference of two spectra."""
    grid = np.linspace(0.0, math.pi, CROSS_GRID_POINTS)
    return {
        "cross_solver_lambda": float(np.max(np.abs(spectrum.lambdas - oracle.lambdas))),
        "cross_solver_modes": max(
            float(np.max(np.abs(ps.eval(grid) - pt.eval(grid))))
            for ps, pt in zip(spectrum.pairs, oracle.pairs)
        ),
    }


def verify(problem: BeamProblem, spectrum, oracle) -> dict[str, float]:
    """Worst value over the modes of every check, keyed by check name.

    Residual families are relative to each mode's curvature scale and the
    ODE residual to lambda**4; then come the deviation of h(phi, phi) from 1,
    of the Gram matrix from the identity and of the Rayleigh quotient
    a(phi, phi) / h(phi, phi) from lambda**4 (relative), and the gaps to
    ``oracle``, another solver's spectrum of the same length.
    """
    pairs = spectrum.pairs
    rule = QuadratureRule.for_problem(problem, lam=max(spectrum.lambdas.max(), 1.0))
    reports = [residual_report(p, problem) for p in pairs]
    worst = {
        family: max(r.worst()[family] / r.scale for r in reports)
        for family in ("bc_left", "bc_right", "moment_left", "moment_right",
                       "jump_disp", "jump_moment", "jump_shear", "crack_law")
    }
    worst["ode_residual"] = max(r.ode_residual / r.lam**4 for r in reports)
    norms = [h_inner(p, p, rule) for p in pairs]
    worst["h_normalization"] = max(abs(h - 1.0) for h in norms)
    gram = gram_matrix(pairs, rule)
    worst["gram_identity"] = float(np.max(np.abs(gram - np.eye(len(pairs)))))
    worst["rayleigh"] = max(
        abs(a_form(p, p, problem, rule) / h - p.lam**4) / p.lam**4 for p, h in zip(pairs, norms)
    )
    return {**worst, **cross_solver_gaps(spectrum, oracle)}
