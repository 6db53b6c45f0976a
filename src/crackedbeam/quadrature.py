"""Composite Gauss-Legendre quadrature aligned with the crack partition.

Mode shapes are analytic between cracks but kinked at them, so every
integral is taken subinterval by subinterval.  Panels are split further when
the wavenumber is large: a 16-point rule stays at machine accuracy roughly
while lambda times the panel length is below 4.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import ceil

import numpy as np

ORDER = 16
MAX_PHASE_PER_PANEL = 4.0


@lru_cache(maxsize=None)
def _gauss_nodes() -> tuple[np.ndarray, np.ndarray]:
    nodes, weights = np.polynomial.legendre.leggauss(ORDER)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights of a composite rule on a partitioned interval."""

    nodes: np.ndarray
    weights: np.ndarray

    @classmethod
    def for_problem(cls, problem, lam: float) -> "QuadratureRule":
        """Composite rule over the panels between consecutive breakpoints of ``problem``.

        ``lam`` sets the oscillation scale: each subinterval is split so no
        panel sees more than MAX_PHASE_PER_PANEL radians of phase.
        """
        bp = tuple(float(b) for b in problem.breakpoints)
        if len(bp) < 2 or any(b1 <= b0 for b0, b1 in zip(bp, bp[1:])):
            raise ValueError("breakpoints must be strictly increasing with length >= 2")
        ref_x, ref_w = _gauss_nodes()
        xs, ws = [], []
        for left, right in zip(bp, bp[1:]):
            length = right - left
            n_panels = max(1, ceil(abs(lam) * length / MAX_PHASE_PER_PANEL))
            edges = np.linspace(left, right, n_panels + 1)
            for a, b in zip(edges, edges[1:]):
                half = 0.5 * (b - a)
                xs.append(half * ref_x + 0.5 * (a + b))
                ws.append(half * ref_w)
        nodes = np.concatenate(xs)
        weights = np.concatenate(ws)
        nodes.setflags(write=False)
        weights.setflags(write=False)
        return cls(nodes=nodes, weights=weights)

    def integrate(self, values: np.ndarray) -> float:
        """Weighted sum of function values sampled at ``self.nodes``."""
        return float(np.dot(self.weights, values))
