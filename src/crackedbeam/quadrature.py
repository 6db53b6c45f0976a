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


@dataclass(frozen=True, eq=False)
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
        bp = problem.breakpoints
        ref_x, ref_w = _gauss_nodes()
        lengths = np.diff(bp)
        counts = [max(1, ceil(abs(lam) * h / MAX_PHASE_PER_PANEL)) for h in lengths.tolist()]
        sub = np.repeat(np.arange(len(counts)), counts)
        j = np.arange(len(sub)) - np.repeat(np.cumsum(counts) - counts, counts)
        # The edges np.linspace(left, right, count + 1) puts in each subinterval:
        # left + j * (length / count), and right, which is the next one's left.
        edges = np.append(j * (lengths / counts)[sub] + np.array(bp[:-1])[sub], bp[-1])
        half, mid = 0.5 * (edges[1:] - edges[:-1]), 0.5 * (edges[:-1] + edges[1:])
        nodes = (half[:, None] * ref_x + mid[:, None]).ravel()
        weights = (half[:, None] * ref_w).ravel()
        nodes.setflags(write=False)
        weights.setflags(write=False)
        return cls(nodes=nodes, weights=weights)

    def integrate(self, values: np.ndarray) -> float:
        """Weighted sum of function values sampled at ``self.nodes``."""
        return float(np.dot(self.weights, values))
