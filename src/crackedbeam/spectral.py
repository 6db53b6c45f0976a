"""Inner products, energy forms, and the residual suite for computed modes.

The displacement space pairs functions subinterval by subinterval; the
energy space adds slope-jump terms at the cracks.  The operator form weights
each slope jump by the inverse flexibility, which is what ties the spring
model to the spectrum: Rayleigh quotients of true modes equal lambda**4.

Everything here consumes objects exposing ``eval(x, order, side)``, which
takes a point or an array of points; every check reads its one-sided values
in arrays, one evaluation per derivative order and side.  Both solver
outputs and the light adapters below qualify.  :func:`verify` gathers every
check into one report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .beam_model import BeamProblem, ValidationError
from .quadrature import QuadratureRule

#: Count of interior sample points per subinterval in the residual report.
ODE_SAMPLES_PER_INTERVAL = 20

#: Points of the uniform grid on [0, pi] where two solvers' modes are compared.
CROSS_GRID_POINTS = 200

#: Boundary and junction residual families, in report order; the last four
#: hold one value per crack.
FAMILIES = ("bc_left", "bc_right", "moment_left", "moment_right",
            "jump_disp", "jump_moment", "jump_shear", "crack_law")


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


def _jumps(f, xs, order: int) -> np.ndarray:
    """Right minus left limit of the order-th derivative at each point of ``xs``."""
    xs = np.asarray(xs, dtype=float)
    return np.asarray(f.eval(xs, order, "R")) - np.asarray(f.eval(xs, order, "L"))


def _energy(u, v, problem: BeamProblem, rule: QuadratureRule, weights) -> float:
    """Curvature pairing plus each crack's slope-jump product divided by its weight."""
    values = [(np.asarray(f.eval(rule.nodes, order=2)), _jumps(f, problem.positions, 1))
              for f in ((u,) if v is u else (u, v))]  # a(u, u) evaluates u once
    (curv_u, jumps_u), (curv_v, jumps_v) = values[0], values[-1]
    acc = rule.integrate(curv_u * curv_v)
    products = jumps_u * jumps_v
    # One crack at a time, in order: a pairwise sum would round differently.
    for term in (products / np.asarray(weights, dtype=float)).tolist():
        acc += term
    return float(acc)


def v_inner(u, v, problem: BeamProblem, rule: QuadratureRule) -> float:
    """Energy-space inner product: curvature pairing plus slope-jump products."""
    return _energy(u, v, problem, rule, 1.0)


def a_form(u, v, problem: BeamProblem, rule: QuadratureRule) -> float:
    """Operator bilinear form: curvature pairing plus jumps weighted by 1/theta."""
    for i, theta in enumerate(problem.flexibilities):
        if theta <= 0.0:
            raise ValidationError(f"theta_{i + 1} = {theta} must be positive in the energy form")
    return _energy(u, v, problem, rule, problem.flexibilities)


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
    # One (modes, nodes) table, scaled by sqrt(w) in place: no second table of that size.
    table, norms = np.empty((len(pairs), len(rule.nodes))), np.empty(len(pairs))
    for k, (row, p) in enumerate(zip(table, pairs)):
        row[:] = p.eval(rule.nodes)
        norms[k] = rule.integrate(row * row)  # each norm as normalization sums it
    table *= np.sqrt(rule.weights)
    out = table @ table.T
    np.fill_diagonal(out, norms)
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
    scale: float
    lam: float

    def _by_family(self, per_crack) -> dict:
        out = {}
        for name in FAMILIES:
            value = getattr(self, name)
            out[name] = per_crack(value) if isinstance(value, tuple) else value
        out["ode_residual"] = self.ode_residual
        return out

    def to_json_dict(self) -> dict:
        return self._by_family(list)

    def worst(self) -> dict[str, float]:
        """Scalar per family, maxing over cracks where applicable."""
        return self._by_family(lambda values: max(values, default=0.0))


def residual_report(pair, problem: BeamProblem) -> ResidualReport:
    """Check one mode against every defining condition.

    Families: displacement and moment at both supports; jumps of
    displacement, moment and shear across each crack; the crack law
    J[phi'] = theta * phi''; and the interior equation phi'''' = lambda**4 phi
    sampled on ``ODE_SAMPLES_PER_INTERVAL`` interior points per subinterval.
    Support and crack values come from one table of left and right limits at
    the breakpoints, so the mode is evaluated eleven times whatever the
    number of cracks.
    """
    lam = pair.lam
    bp = np.asarray(problem.breakpoints)
    left, right = ([np.asarray(pair.eval(bp, order, side)) for order in range(4)] for side in "LR")
    jumps = [r[1:-1] - l[1:-1] for l, r in zip(left, right)]
    crack_law = jumps[1] - np.asarray(problem.flexibilities, dtype=float) * right[2][1:-1]
    inner = np.linspace(bp[:-1], bp[1:], ODE_SAMPLES_PER_INTERVAL + 2, axis=1)[:, 1:-1].ravel()
    phi, d2, phi4 = (np.asarray(pair.eval(inner, order)) for order in (0, 2, 4))
    curvature = np.abs(np.concatenate([d2, left[2], right[2]]))
    supports = np.abs([right[0][0], left[0][-1], right[2][0], left[2][-1]]).tolist()
    cracks = [tuple(np.abs(j).tolist()) for j in (jumps[0], jumps[2], jumps[3], crack_law)]
    return ResidualReport(
        **dict(zip(FAMILIES, supports + cracks)),
        ode_residual=float(np.max(np.abs(phi4 - lam**4 * phi))),
        scale=max(1.0, float(np.max(curvature))),
        lam=lam,
    )


def wavenumber_gaps(lams, other) -> np.ndarray:
    """Per-mode gap between two solvers' wavenumbers, |lams[k] - other[k]|."""
    return np.abs(np.subtract(lams, other))


def cross_solver_gaps(spectrum, oracle) -> dict[str, float]:
    """Largest wavenumber gap and largest sampled mode difference of two spectra."""
    grid = np.linspace(0.0, math.pi, CROSS_GRID_POINTS)
    return {
        "cross_solver_lambda": float(np.max(wavenumber_gaps(spectrum.lambdas, oracle.lambdas))),
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
    rule = QuadratureRule.for_problem(problem, lam=spectrum.lambdas.max())
    reports = [residual_report(p, problem) for p in pairs]
    worst = {family: max(r.worst()[family] / r.scale for r in reports) for family in FAMILIES}
    worst["ode_residual"] = max(r.ode_residual / r.lam**4 for r in reports)
    gram = gram_matrix(pairs, rule)
    norms = np.diag(gram).tolist()  # h(phi, phi) for every mode
    worst["h_normalization"] = max(abs(h - 1.0) for h in norms)
    worst["gram_identity"] = float(np.max(np.abs(gram - np.eye(len(pairs)))))
    worst["rayleigh"] = max(
        abs(a_form(p, p, problem, rule) / h - p.lam**4) / p.lam**4 for p, h in zip(pairs, norms)
    )
    return {**worst, **cross_solver_gaps(spectrum, oracle)}
