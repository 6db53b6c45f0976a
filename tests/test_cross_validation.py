"""Agreement between the two independent solvers on shared problems."""

from __future__ import annotations

import math

import numpy as np
import pytest

from crackedbeam import BeamProblem, compute_spectrum, oracle_eigenpairs, shifrin

PROBLEMS = [
    BeamProblem(positions=(1.0,), flexibilities=(0.3,)),
    BeamProblem(positions=(2.4,), flexibilities=(1.5,)),
    BeamProblem(positions=(1.0, 2.2), flexibilities=(0.3, 0.7)),
    BeamProblem(positions=(0.8, 1.7), flexibilities=(1.0, 0.1)),
]


@pytest.mark.parametrize("problem", PROBLEMS, ids=["m1a", "m1b", "m2a", "m2b"])
def test_eigenvalues_agree(problem):
    ours = compute_spectrum(problem, 5).lambdas
    oracle = oracle_eigenpairs(problem, 5).lambdas
    assert np.max(np.abs(ours - oracle)) <= 1e-8


@pytest.mark.parametrize("problem", PROBLEMS, ids=["m1a", "m1b", "m2a", "m2b"])
def test_mode_shapes_agree(problem):
    ours = compute_spectrum(problem, 5)
    oracle = oracle_eigenpairs(problem, 5)
    xs = np.linspace(0.0, math.pi, 200)
    for a, b in zip(ours.pairs, oracle.pairs):
        assert np.max(np.abs(a.eval(xs) - b.eval(xs))) <= 1e-7


def test_derivatives_agree_for_first_modes(one_crack_problem):
    ours = compute_spectrum(one_crack_problem, 3)
    oracle = oracle_eigenpairs(one_crack_problem, 3)
    xs = np.linspace(0.0, math.pi, 150)
    for a, b in zip(ours.pairs, oracle.pairs):
        for order in (1, 2):
            gap = np.max(np.abs(a.eval(xs, order) - b.eval(xs, order)))
            assert gap <= 1e-6 * max(1.0, a.lam**order)


def _near_hinge_layout(seed: int) -> BeamProblem:
    """2-5 cracks in [0.1, pi - 0.1], theta log-uniform in [1e7, 1e9]."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 6))
    positions = np.sort(rng.uniform(0.1, math.pi - 0.1, m))
    assert np.all(np.diff(positions) > 1e-3)
    return BeamProblem(tuple(positions.tolist()), tuple((10.0 ** rng.uniform(7, 9, m)).tolist()))


@pytest.mark.parametrize("seed", range(8))
def test_near_hinge_roots_agree_with_the_count(seed):
    # Near-hinge cracks put several mechanism roots below 0.5, often closer together than
    # 0.01; a fixed grid of that step missed roots on 3 of these layouts and stopped short on
    # 3 more.  Half-way below each solver's k-th root, the count must read k - 1.
    problem = _near_hinge_layout(seed)
    count = problem.m + 3
    for spectrum in (compute_spectrum(problem, count), oracle_eigenpairs(problem, count)):
        roots = spectrum.lambdas
        below = np.concatenate(([0.5 * roots[0]], 0.5 * (roots[:-1] + roots[1:])))
        assert shifrin.root_count(problem, below).tolist() == list(range(count))
