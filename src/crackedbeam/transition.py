"""Independent eigen-solver that carries the hinged-start plane across the cracks.

With the scaled state s = (w, w'/lam, w''/lam**2, w'''/lam**3), s' = lam P s between cracks (P the
cyclic shift) and a crack adds t s_2 to s_1, t = theta lam.  The determinant is the (w, w'') minor at
pi of the plane e_1 ^ e_3 left free by the hinged start, whose six 2x2 minors the chain carries (the
compound-matrix method, Ng & Reid, J. Comput. Phys. 30, 1979) in a basis where no factor grows, so
no growing columns cancel.  Modes are the nullvectors of the collocation system in the PiecewiseForm
coefficients.  The two solvers share the count that isolates their roots (shifrin.root_count), but
not their determinants or their modes: their agreeing is a real check.
"""

from __future__ import annotations

import itertools

import numpy as np

from . import modes, rootfind, shifrin
from .beam_model import BeamProblem
from .modes import Spectrum
from .modes import normalize_eigenpair  # unused; the benchmark's spans wrap it here

_PAIRS = list(itertools.combinations(range(4), 2))  # rows (i, j), i < j, of each minor


def _compound(mat: np.ndarray) -> np.ndarray:
    """The 2x2 minors of the 4x4 ``mat``, rows and columns in _PAIRS order."""
    return np.array([[mat[i, a] * mat[j, b] - mat[j, a] * mat[i, b] for a, b in _PAIRS] for i, j in _PAIRS])


# P's eigenvectors are (1, w, w**2, w**3), w = 1, i, -1, -i.  The minors of the pairs (1, i), (1, -1),
# (i, -i) and (i, -1) grow like e**((1 + i) mu), 1, 1 and e**((i - 1) mu): in the basis of their real
# and imaginary parts, an interval's map over e**mu turns one plane by mu, shrinks two lines by e**-mu,
# and the last plane by e**-2mu while turning it.
_EIGEN = _compound(np.array([1, 1j, -1, -1j]) ** np.arange(4)[:, None])
_BASIS = np.column_stack([f(_EIGEN[:, k]) for f, k in ((np.real, 0), (np.imag, 0), (np.real, 1),
                                                        (np.imag, 4), (np.real, 3), (np.imag, 3))])
# The columns are orthogonal: the inverse is the transpose over their squared norms (8 or 16), and all
# constants are exact, in eighths.  A crack's state map I + t e_1 e_2^T has the compound I + t K (a
# rank-one shift leaves no t**2 term); K adds p_02 to p_01 and p_23 to p_13.
_TO_BASIS = _BASIS.T / (_BASIS**2).sum(axis=0)[:, None]
_CRACK = _TO_BASIS @ (_compound(np.eye(4) + np.outer((0, 1, 0, 0), (0, 0, 1, 0))) - np.eye(6)) @ _BASIS
_START, _END = _TO_BASIS[:, _PAIRS.index((1, 3))], _BASIS[_PAIRS.index((0, 2))]


def _steps(problem: BeamProblem, lams: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(m + 1, n) t = theta lam, the hinged start a crack of t = 0, and (m + 1, n, 3) steps across the
    interval after each on the minors' complex pairs: (e**-i mu, e**-mu, e**-(2 + i) mu) / (1 + t)."""
    mu = np.multiply.outer(np.diff(problem.breakpoints), lams)
    t = np.multiply.outer((0.0, *problem.flexibilities), lams)
    turn, shrink = np.exp(-1j * mu), np.exp(-mu)
    return t, np.stack((turn, shrink, shrink * shrink * turn), axis=-1) / (1.0 + t)[..., None]


def _cross(q: np.ndarray, t: np.ndarray, step: np.ndarray) -> np.ndarray:
    """Minors ``q`` (n, 6) across a crack and the interval after it.  einsum, not a matmul:
    BLAS picks its kernel by n, and a batch would not reproduce its rows bit for bit."""
    q = q + np.einsum("n,ij,nj->ni", t, _CRACK, q)
    planes = q.view(complex)  # (q_0, q_1), (q_2, q_3) and (q_4, q_5) as complex numbers
    planes *= step
    return q


def _carried_det(problem: BeamProblem, lams: np.ndarray) -> np.ndarray:
    t, steps = _steps(problem, lams)
    q = np.tile(_START, (len(lams), 1))
    for j in range(problem.m + 1):
        q = _cross(q, t[j], steps[j])
    return np.einsum("nj,j->n", q, _END)


def transition_matrix(problem: BeamProblem, i: int, lam: float) -> np.ndarray:
    """The chain's 6x6 map of the minors across crack i and the interval after it."""
    if not 1 <= i <= problem.m:
        raise IndexError(f"crack index {i} out of range 1..{problem.m}")
    t, steps = _steps(problem, rootfind.wavenumbers([lam]))
    return _cross(np.eye(6), np.repeat(t[i], 6), steps[i]).T


def boundary_det(problem: BeamProblem, lams):
    """(w, w'') minor at pi of the hinged-start plane, at one wavenumber (a float) or an array of them
    (its shape): lam**2 e**(-lam pi) prod_j (1 + theta_j lam)**-1 times that of the unscaled starts
    w' = 1 and w''' = 1 (``transfer_det`` of scripts/reference_roots.py)."""
    return rootfind.blockwise(lambda block: _carried_det(problem, block), lams, 6 * (problem.m + 1))


def find_eigenvalues(problem: BeamProblem, count: int, lam_max: float | None = None) -> list[float]:
    """First ``count`` eigenvalue wavenumbers: roots of boundary_det."""
    return shifrin.first_roots(boundary_det, problem, count, lam_max)


def _collocation(problem: BeamProblem, lams: np.ndarray) -> np.ndarray:
    """(n, 4(m+1), 4(m+1)) systems in the PiecewiseForm coefficients: w = w'' = 0 at both ends, and
    each crack's state jump less t s_2 on the w' row, whose 1 / (1 + t) keeps every entry within 1."""
    m, mu = problem.m, np.multiply.outer(lams, np.diff(problem.breakpoints))
    one, decay = np.ones_like(mu), np.exp(-mu)
    # Scaled states (rows) of cos, sin, e**(-lam u) and e**(-lam (h - u)) (columns) at u = 0 and h.
    left, right = (
        np.stack([np.stack((*modes._trig_rows(phase, k), (-1) ** k * fall, rise), -1) for k in range(4)], -2)
        for phase, fall, rise in ((np.zeros_like(mu), one, decay), (mu, decay, one))
    )
    t = np.multiply.outer(lams, problem.flexibilities)[..., None]
    left[:, 1:, 1] = (left[:, 1:, 1] - t * left[:, 1:, 2]) / (1.0 + t)
    right[:, :-1, 1] /= 1.0 + t
    system = np.zeros((len(lams), m + 1, 4, m + 1, 4))
    j = np.arange(1, m + 1)  # the rows of crack j, on intervals j - 1 and j
    system[:, j, :, j] = np.moveaxis(left[:, 1:], 1, 0)
    system[:, j, :, j - 1] = -np.moveaxis(right[:, :-1], 1, 0)
    system[:, 0, :2, 0], system[:, 0, 2:, m] = left[:, 0, ::2], right[:, m, ::2]
    return system.reshape(len(lams), 4 * (m + 1), 4 * (m + 1))


def _modes_from_roots(problem: BeamProblem, lams: np.ndarray) -> np.ndarray:
    """(n, m+1, 4) unnormalized mode coefficients at the 1-D roots ``lams``: with a fixed u,
    (M + u u^T) x = u gives the nullvector of M, also where M is singular to the last bit."""
    size = 4 * (problem.m + 1)
    border = np.sin(np.arange(1.0, size + 1.0))  # fixed, and free of any layout's symmetry
    bordered, rhs = np.outer(border, border), border[:, None]

    def nullvectors(block: np.ndarray) -> np.ndarray:
        system = _collocation(problem, block)
        system += bordered  # in place: the collocation stack is fresh
        return np.linalg.solve(system, rhs)

    return rootfind.blockwise(nullvectors, lams, size**2).reshape(len(lams), -1, 4)


def oracle_eigenpairs(problem: BeamProblem, count: int, lam_max: float | None = None) -> Spectrum:
    """Spectrum computed wholly by the transition-matrix route."""
    roots = shifrin.first_roots(boundary_det, problem, count, lam_max)
    return modes.solve(problem, _modes_from_roots, roots)
