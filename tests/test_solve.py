"""The solve pipeline both solvers share: a raw mode's scale and sign do not matter."""

from __future__ import annotations

import math

import numpy as np
import pytest

from crackedbeam import QuadratureRule, h_inner, modes, normalize_eigenpair, shifrin, transition

# Per solver: its spectrum entry point, determinant and raw (unnormalized)
# modes at an array of roots.
SOLVERS = {
    "shifrin": (
        shifrin.compute_spectrum,
        shifrin.char_det,
        shifrin._nullspace_modes,
    ),
    "transition": (
        transition.oracle_eigenpairs,
        transition.boundary_det,
        transition._modes_from_roots,
    ),
}
# Per solver: its roots and its raw mode at one root, through the per-root API.
PER_ROOT = {
    "shifrin": (
        shifrin.find_eigenvalues,
        lambda p, lam: shifrin.build_eigenfunction(p, shifrin.solve_nullspace(p, lam)),
    ),
    "transition": (
        transition.find_eigenvalues,
        lambda p, lam: transition._modes_from_roots(p, np.array([lam]))[0],
    ),
}
PROBLEMS = ["uniform_problem", "one_crack_problem", "two_crack_problem", "thirty_crack_problem"]
COUNT = 6


def _spectra(request, name, solver, factor):
    """The solver's spectrum, and the one solved from its raw modes times ``factor``."""
    problem = request.getfixturevalue(name)
    spectrum, det, recover = SOLVERS[solver]
    rescaled = modes.solve(
        problem, det, lambda p, lams: [pair.scaled(factor) for pair in recover(p, lams)], COUNT
    )
    return problem, spectrum(problem, COUNT), rescaled


def _bytes(pair) -> bytes:
    """Every stored float of a pair: wavenumber, piecewise and jump-amplitude coefficients."""
    out = np.float64(pair.lam).tobytes() + pair.piecewise.coefficients.tobytes()
    if pair.shifrin is not None:
        out += pair.shifrin.deltas.tobytes() + pair.shifrin.coefficients.tobytes()
    return out


@pytest.mark.parametrize("count", [1, COUNT])
@pytest.mark.parametrize("solver", SOLVERS)
@pytest.mark.parametrize("name", PROBLEMS)
def test_batched_modes_equal_the_per_root_path_bit_for_bit(request, name, solver, count):
    problem = request.getfixturevalue(name)
    find, mode = PER_ROOT[solver]
    per_root = [
        normalize_eigenpair(mode(problem, lam), QuadratureRule.for_problem(problem, lam))
        for lam in find(problem, count)
    ]
    batched = SOLVERS[solver][0](problem, count).pairs
    assert [_bytes(p) for p in batched] == [_bytes(p) for p in per_root]


@pytest.mark.parametrize("solver", SOLVERS)
@pytest.mark.parametrize("name", PROBLEMS)
def test_sign_flip_of_raw_modes_is_undone_exactly(request, name, solver):
    _, plain, flipped = _spectra(request, name, solver, -1.0)
    assert np.array_equal(plain.lambdas, flipped.lambdas)
    for a, b in zip(plain.pairs, flipped.pairs):
        assert np.array_equal(a.piecewise.coefficients, b.piecewise.coefficients)


@pytest.mark.parametrize("solver", SOLVERS)
@pytest.mark.parametrize("name", PROBLEMS)
def test_rescaled_raw_modes_normalize_to_the_same_mode(request, name, solver):
    # The norm is a quadrature of mode values, and a value on an interval of
    # length h sums sinh and cosh terms of size cosh(lam h) that cancel, so
    # rescaling by 3 moves the normalized coefficients by a few ulp times that.
    problem, plain, tripled = _spectra(request, name, solver, 3.0)
    for a, b in zip(plain.pairs, tripled.pairs):
        top = np.max(np.abs(a.piecewise.coefficients))
        growth = math.cosh(a.lam * max(problem.interval_lengths))
        gap = np.max(np.abs(a.piecewise.coefficients - b.piecewise.coefficients))
        assert gap <= 4 * np.finfo(float).eps * growth * top


@pytest.mark.parametrize("solver", SOLVERS)
def test_modes_have_unit_norm_and_positive_left_slope(solver, two_crack_problem):
    spectrum = SOLVERS[solver][0](two_crack_problem, COUNT)
    for pair in spectrum.pairs:
        rule = QuadratureRule.for_problem(two_crack_problem, lam=pair.lam)
        assert h_inner(pair, pair, rule) == pytest.approx(1.0, abs=1e-12)
        assert float(pair.eval(0.0, 1, "R")) > 0.0
