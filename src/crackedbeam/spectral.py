"""Inner products, energy forms, and the residual suite for computed modes.

The displacement space pairs functions subinterval by subinterval; the
energy space adds slope-jump terms at the cracks.  The operator form weights
each slope jump by the inverse flexibility, which is what ties the spring
model to the spectrum: Rayleigh quotients of true modes equal lambda**4.

Everything here consumes objects exposing ``eval(x, order, side)``, which
takes a point or an array of points; both solver outputs and the light
adapters below qualify.  :func:`mode_checks` reads every mode of a spectrum
in (modes, points) tables, one :meth:`Spectrum.eval` per point set, order and
side; :func:`verify` is its worst value, and the one-mode forms its slices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .beam_model import BeamProblem, ValidationError
from .modes import Spectrum
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
        return sum(c * np.asarray(f.eval(x, order, side), dtype=float) for c, f in self._terms)


class _Rows:
    """Evaluation-protocol objects read as one stack of modes, as :meth:`Spectrum.eval` reads."""

    def __init__(self, *pairs):
        self.pairs = pairs

    def eval(self, x, order: int = 0, side: str = "R") -> np.ndarray:
        table = np.empty((len(self.pairs), np.size(x)))  # filled in place: no second table
        for row, f in zip(table, self.pairs):
            row[:] = f.eval(x, order, side)
        return table


def _pairings(u, v, rule: QuadratureRule, order: int) -> np.ndarray:
    """Per mode k of the stacks ``u`` and ``v``: rule.integrate(u_k * v_k), order-th derivatives."""
    if v is u:  # one Spectrum: no table of every mode at every node is formed
        return u.eval(rule.nodes, order, reduce=lambda f: rule.integrate(f * f))
    pairs = zip(u.eval(rule.nodes, order), v.eval(rule.nodes, order))
    return np.array([rule.integrate(a * c) for a, c in pairs])


def h_inner(u, v, rule: QuadratureRule) -> float:
    """Displacement-space inner product: sum of L2 pairings per subinterval."""
    return float(_pairings(_Rows(u), _Rows(v), rule, 0)[0])


def _energies(u, v, problem: BeamProblem, rule: QuadratureRule, operator: bool) -> np.ndarray:
    """Per mode of the stacks ``u`` and ``v``: curvature pairing plus each crack's slope-jump
    product, divided by the crack's theta in the operator form, where theta must be positive."""
    for i, theta in enumerate(problem.flexibilities if operator else ()):
        if theta <= 0.0:
            raise ValidationError(f"theta_{i + 1} = {theta} must be positive in the energy form")
    weights = np.asarray(problem.flexibilities if operator else 1.0, dtype=float)
    xs = np.asarray(problem.positions, dtype=float)
    jumps = [f.eval(xs, 1, "R") - f.eval(xs, 1, "L") for f in ((u,) if v is u else (u, v))]
    acc = _pairings(u, v, rule, 2)
    for term in (jumps[0] * jumps[-1] / weights).T:  # one crack at a time: a sum rounds apart
        acc += term
    return acc


def v_inner(u, v, problem: BeamProblem, rule: QuadratureRule) -> float:
    """Energy-space inner product: curvature pairing plus slope-jump products."""
    return float(_energies(_Rows(u), _Rows(v), problem, rule, operator=False)[0])


def a_form(u, v, problem: BeamProblem, rule: QuadratureRule) -> float:
    """Operator bilinear form: curvature pairing plus jumps weighted by 1/theta."""
    return float(_energies(_Rows(u), _Rows(v), problem, rule, operator=True)[0])


def coercivity_probe(u, problem: BeamProblem, rule: QuadratureRule) -> float:
    """Ratio a(u,u) / ||u||_V^2; bounded below by min(1, min_i 1/theta_i)."""
    denom = v_inner(u, u, problem, rule)
    if denom <= 0.0:
        raise ValueError("coercivity probe needs a nonzero test function")
    return a_form(u, u, problem, rule) / denom


def gram_matrix(pairs, rule: QuadratureRule) -> np.ndarray:
    """Matrix of pairwise displacement inner products; identity for true modes.  ``pairs`` may
    be a whole :class:`Spectrum`, whose modes are then evaluated together."""
    stack = pairs if isinstance(pairs, Spectrum) else _Rows(*pairs)
    # One (modes, nodes) table, scaled by sqrt(w) in place: no second table of that size.
    table = stack.eval(rule.nodes)
    if len(table) < 1:
        raise ValueError("need at least one mode")
    norms = [rule.integrate(row * row) for row in table]  # each norm as h_inner takes it
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
        out = {name: getattr(self, name) for name in (*FAMILIES, "ode_residual")}
        return {k: per_crack(v) if isinstance(v, tuple) else v for k, v in out.items()}

    def to_json_dict(self) -> dict:
        return self._by_family(list)

    def worst(self) -> dict[str, float]:
        """Scalar per family, maxing over cracks where applicable."""
        return self._by_family(lambda values: max(values, default=0.0))


def _residuals(stack, problem: BeamProblem, lam4: np.ndarray) -> dict[str, np.ndarray]:
    """:class:`ResidualReport`'s fields but ``lam`` for every mode of ``stack``, whose lambda**4
    are ``lam4``: (modes, cracks) for the crack families, (modes,) for the others."""
    bp = np.asarray(problem.breakpoints)
    left, right = ([stack.eval(bp, order, side) for order in range(4)] for side in "LR")
    jumps = [r[:, 1:-1] - l[:, 1:-1] for l, r in zip(left, right)]
    crack_law = jumps[1] - np.asarray(problem.flexibilities, dtype=float) * right[2][:, 1:-1]
    inner = np.linspace(bp[:-1], bp[1:], ODE_SAMPLES_PER_INTERVAL + 2, axis=1)[:, 1:-1].ravel()
    phi, d2, phi4 = (stack.eval(inner, order) for order in (0, 2, 4))
    supports = [right[0][:, 0], left[0][:, -1], right[2][:, 0], left[2][:, -1]]
    values = map(np.abs, supports + [jumps[0], jumps[2], jumps[3], crack_law])
    ode = np.max(np.abs(phi4 - lam4[:, None] * phi), axis=1)
    scale = np.maximum(1.0, np.max(np.abs(np.concatenate([d2, left[2], right[2]], axis=1)), axis=1))
    return {**dict(zip(FAMILIES, values)), "ode_residual": ode, "scale": scale}


def residual_report(pair, problem: BeamProblem) -> ResidualReport:
    """Check one mode against every defining condition.

    Families: displacement and moment at both supports; jumps of
    displacement, moment and shear across each crack; the crack law
    J[phi'] = theta * phi''; and the interior equation phi'''' = lambda**4 phi
    sampled on ``ODE_SAMPLES_PER_INTERVAL`` interior points per subinterval.
    The one-mode slice of the residuals :func:`mode_checks` takes of all modes at once.
    """
    rows = _residuals(_Rows(pair), problem, np.array([pair.lam**4]))
    one = {k: tuple(v[0].tolist()) if v.ndim == 2 else float(v[0]) for k, v in rows.items()}
    return ResidualReport(**one, lam=pair.lam)


def wavenumber_gaps(lams, other) -> np.ndarray:
    """Per-mode gap between two solvers' wavenumbers, |lams[k] - other[k]|."""
    return np.abs(np.subtract(lams, other))


def _cross_gaps(spectrum, oracle) -> dict[str, np.ndarray]:
    """Per-mode wavenumber gap and largest sampled mode difference of two spectra."""
    grid = np.linspace(0.0, math.pi, CROSS_GRID_POINTS)
    return {
        "cross_solver_lambda": wavenumber_gaps(spectrum.lambdas, oracle.lambdas),
        "cross_solver_modes": np.max(np.abs(spectrum.eval(grid) - oracle.eval(grid)), axis=1),
    }


def cross_solver_gaps(spectrum, oracle) -> dict[str, float]:
    """Largest wavenumber gap and largest sampled mode difference of two spectra."""
    return {name: float(np.max(v)) for name, v in _cross_gaps(spectrum, oracle).items()}


def mode_checks(spectrum, oracle) -> dict[str, np.ndarray]:
    """Every check's value for each mode, all modes evaluated together, keyed by check name.

    Residual families are relative to each mode's curvature scale and the ODE residual to
    lambda**4; then come the deviation of h(phi, phi) from 1, of the Gram matrix from the
    identity (each entry charged to the higher of its two modes) and of the Rayleigh quotient
    a(phi, phi) / h(phi, phi) from lambda**4 (relative), on the one quadrature rule built here,
    the top wavenumber's, and the gaps to ``oracle``, another solver's spectrum of the same length.
    """
    lam4 = np.array([lam**4 for lam in spectrum.lambdas.tolist()])
    rule = QuadratureRule.for_problem(spectrum.problem, spectrum.lambdas.max())
    # The Gram table first, the largest: no smaller table before it has grown the heap.
    gram = gram_matrix(spectrum, rule)
    norms = np.diag(gram)  # h(phi, phi) for every mode
    res = _residuals(spectrum, spectrum.problem, lam4)
    out = {f: res[f].reshape(lam4.size, -1).max(1, initial=0.0) / res["scale"] for f in FAMILIES}
    out["ode_residual"] = res["ode_residual"] / lam4
    out["h_normalization"] = np.abs(norms - 1.0)
    off = np.abs(gram - np.eye(lam4.size))
    out["gram_identity"] = np.maximum(np.tril(off).max(axis=1), np.triu(off).max(axis=0))
    rayleigh = _energies(spectrum, spectrum, spectrum.problem, rule, operator=True) / norms
    out["rayleigh"] = np.abs(rayleigh - lam4) / lam4
    return {**out, **_cross_gaps(spectrum, oracle)}


def verify(spectrum, oracle) -> dict[str, float]:
    """Worst value over the modes of every check of :func:`mode_checks`, keyed by check name."""
    return {name: float(np.max(v)) for name, v in mode_checks(spectrum, oracle).items()}
