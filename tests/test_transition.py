"""Transfer-matrix propagation, boundary determinant, and oracle modes."""

from __future__ import annotations

import math

import numpy as np
import pytest

from crackedbeam import (
    BeamProblem,
    boundary_det,
    char_det,
    oracle_eigenpairs,
    transition,
    transition_matrix,
)


def _chain_value(coeffs, lam: float, u: float, order: int) -> float:
    """Order-th derivative of A sin + B cos + C sinh + D cosh at phase lam u."""
    a, b, c, d = coeffs
    t, shift = lam * u, order * math.pi / 2
    hyp = (c, d) if order % 2 == 0 else (d, c)
    smooth = a * math.sin(t + shift) + b * math.cos(t + shift)
    return lam**order * (smooth + hyp[0] * math.sinh(t) + hyp[1] * math.cosh(t))


class TestTransitionMatrix:
    def test_vanishing_flexibility_is_pure_reanchoring(self):
        # Propagating sin(lam x) across a negligible joint must re-express it
        # in the shifted local coordinate: sin(lam (xi + x1)).
        x1, lam = 1.1, 1.9
        problem = BeamProblem(positions=(x1,), flexibilities=(1e-15,))
        t = transition_matrix(problem, 1, lam)
        out = t @ np.array([1.0, 0.0, 0.0, 0.0])
        expected = np.array([math.cos(lam * x1), math.sin(lam * x1), 0.0, 0.0])
        assert np.allclose(out, expected, atol=1e-12)

    @pytest.mark.parametrize("theta", [0.1, 1.0, 10.0])
    def test_node_crack_passes_sine_through(self, theta):
        # sin(2x) has zero moment at pi/2, so the joint is invisible to it.
        lam, x1 = 2.0, math.pi / 2
        problem = BeamProblem(positions=(x1,), flexibilities=(theta,))
        t = transition_matrix(problem, 1, lam)
        out = t @ np.array([1.0, 0.0, 0.0, 0.0])
        expected = np.array([math.cos(lam * x1), math.sin(lam * x1), 0.0, 0.0])
        assert np.allclose(out, expected, atol=1e-12)

    def test_jump_condition_encoded(self):
        # Across the joint: w, w'', w''' continuous, w' gains theta * w''.  The map acts on
        # the chain's (sin, cos, sinh, cosh) coefficients, which are evaluated directly.
        problem = BeamProblem(positions=(1.3,), flexibilities=(0.7,))
        lam = 2.4
        t = transition_matrix(problem, 1, lam)
        rng = np.random.default_rng(7)
        coeffs = rng.standard_normal(4)
        left = [_chain_value(coeffs, lam, 1.3, k) for k in range(4)]
        right = [_chain_value(t @ coeffs, lam, 0.0, k) for k in range(4)]
        assert right[0] == pytest.approx(left[0], rel=1e-12, abs=1e-12)
        assert right[2] == pytest.approx(left[2], rel=1e-12, abs=1e-12)
        assert right[3] == pytest.approx(left[3], rel=1e-12, abs=1e-12)
        assert right[1] - left[1] == pytest.approx(0.7 * left[2], rel=1e-12, abs=1e-12)

    def test_rejects_crack_index_and_wavenumber_out_of_range(self, two_crack_problem):
        for i in (0, two_crack_problem.m + 1):
            with pytest.raises(IndexError, match="out of range 1..2"):
                transition_matrix(two_crack_problem, i, 1.5)
        for lam in (0.0, -1.0):
            with pytest.raises(ValueError, match="positive"):
                transition_matrix(two_crack_problem, 1, lam)


def _looped_boundary_det(problem: BeamProblem, lam: float) -> float:
    """The transfer chain for one wavenumber, each 4x4 factor written entry by entry in
    closed form: the reference for the batched chain, which must reproduce it bit for bit."""

    def basis(h):
        return (float(f(lam * h)) for f in (np.sin, np.cos, np.sinh, np.cosh))

    bp = problem.breakpoints
    s, c, sh, ch = basis(bp[-1] - bp[-2])
    lam2 = lam * lam
    chain = np.array([[s, c, sh, ch], [lam2 * -s, lam2 * -c, lam2 * sh, lam2 * ch]])
    chain = chain / np.max(np.abs(chain))
    for i in range(problem.m, 0, -1):
        # Origin shift by the addition formulas, plus the spring's kick
        # (theta lam / 2) (1, 0, 1, 0)^T (-s, -c, sh, ch).
        s, c, sh, ch = basis(bp[i] - bp[i - 1])
        kick = 0.5 * lam * problem.flexibilities[i - 1]
        factor = np.array(
            [
                [c - kick * s, -s - kick * c, kick * sh, kick * ch],
                [s, c, 0.0, 0.0],
                [-kick * s, -kick * c, ch + kick * sh, sh + kick * ch],
                [0.0, 0.0, sh, ch],
            ]
        )
        chain = chain @ (factor / np.max(np.abs(factor)))
    reduced = chain[:, [0, 2]]
    scale = np.max(np.abs(reduced), axis=1)
    scale = np.where(scale > 0.0, scale, 1.0)
    return float(np.linalg.det(reduced / scale[:, None]))


class TestMaxAbs:
    @pytest.mark.parametrize(
        "shape, axes",
        [
            ((5, 3, 4, 4), (-2, -1)),
            ((5, 0, 4, 4), (-2, -1)),
            ((0, 2, 4), (-2, -1)),
            ((7, 2, 2), (-1,)),
            ((7, 34, 34), (-1,)),
            ((3, 9, 5), (-2,)),
            ((4, 2, 1), (-1,)),
        ],
    )
    def test_any_shape_and_layout_equals_numpy_max(self, shape, axes):
        rng = np.random.default_rng(len(shape) + sum(shape))
        stack = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
        transposed = np.moveaxis(np.ascontiguousarray(np.moveaxis(stack, 0, -1)), -1, 0)
        for view in (stack, transposed):
            expected = np.max(np.abs(view), axis=axes, keepdims=True)
            assert transition._max_abs(view, axes).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("m", [0, 1, 2, 3, 30])
    def test_equals_numpy_max_bit_for_bit(self, m):
        # m = 0 has an empty stack of factors.
        positions = tuple(math.pi * j / (m + 1) for j in range(1, m + 1))
        problem = BeamProblem(positions=positions, flexibilities=(0.4,) * m)
        factors, end_rows = transition._interval_maps(problem, np.linspace(0.3, 23.4, 7))
        assert factors.shape == (7, m, 4, 4)
        for stack in (factors, end_rows):
            expected = np.max(np.abs(stack), axis=(-2, -1), keepdims=True)
            assert transition._max_abs(stack, (-2, -1)).tobytes() == expected.tobytes()


class TestBoundaryDet:
    @pytest.mark.parametrize(
        "name", ["uniform_problem", "one_crack_problem", "two_crack_problem", "thirty_crack_problem"]
    )
    def test_batched_chain_matches_factor_loop(self, name, request):
        problem = request.getfixturevalue(name)
        lams = np.array([0.3, 1.7, 5.2, 11.9, 23.4])
        looped = [_looped_boundary_det(problem, lam) for lam in lams.tolist()]
        assert boundary_det(problem, lams).tolist() == looped

    def test_uniform_roots_are_integers(self):
        from crackedbeam.transition import find_eigenvalues

        roots = find_eigenvalues(BeamProblem(), 5)
        assert np.allclose(roots, [1, 2, 3, 4, 5], atol=1e-10)

    @pytest.mark.parametrize("theta", [0.1, 1.0, 10.0])
    def test_node_crack_determinant_vanishes(self, theta):
        problem = BeamProblem(positions=(math.pi / 2,), flexibilities=(theta,))
        assert abs(boundary_det(problem, 2.0)) < 1e-12

    def test_sign_changes_colocated_with_jump_solver(self, one_crack_problem):
        grid = np.arange(0.5, 5.5, 0.01)
        det_a = np.array([char_det(one_crack_problem, lam) for lam in grid])
        det_b = np.array([boundary_det(one_crack_problem, lam) for lam in grid])
        assert np.array_equal(np.sign(det_a[1:] * det_a[:-1]), np.sign(det_b[1:] * det_b[:-1]))

    def test_requires_positive_wavenumber(self, one_crack_problem):
        with pytest.raises(ValueError):
            boundary_det(one_crack_problem, 0.0)
        with pytest.raises(ValueError):
            boundary_det(one_crack_problem, np.array([2.0, -1.0]))
        with pytest.raises(ValueError, match="at least 1e-100"):
            boundary_det(one_crack_problem, 1e-300)
        with pytest.raises(ValueError, match="at least 1e-100"):
            boundary_det(one_crack_problem, np.array([2.0, 9.9e-101]))

    def test_rejects_wavenumber_above_ceiling(self, one_crack_problem):
        with pytest.raises(ValueError, match="at most 1e\\+100"):
            boundary_det(one_crack_problem, 1e101)
        with pytest.raises(ValueError, match="at most 1e\\+100"):
            boundary_det(one_crack_problem, np.array([2.0, 1e101]))

    @pytest.mark.parametrize(
        "name", ["uniform_problem", "one_crack_problem", "two_crack_problem", "thirty_crack_problem"]
    )
    def test_array_equals_scalar_values(self, name, request):
        # 150 wavenumbers exceed one stack at 30 cracks, so blocking is covered.
        problem = request.getfixturevalue(name)
        lams = np.linspace(0.05, 24.0, 150)
        batched = boundary_det(problem, lams)
        scalar = np.array([boundary_det(problem, lam) for lam in lams.tolist()])
        assert np.array_equal(batched, scalar)
        assert boundary_det(problem, lams.reshape(10, 15)).shape == (10, 15)
        assert isinstance(boundary_det(problem, 1.3), float)


class TestOracleEigenpairs:
    def test_uniform_modes_are_normalized_sines(self):
        spectrum = oracle_eigenpairs(BeamProblem(), 3)
        xs = np.linspace(0.0, math.pi, 101)
        amp = math.sqrt(2.0 / math.pi)
        for k, pair in enumerate(spectrum.pairs, start=1):
            assert pair.lam == pytest.approx(float(k), abs=1e-10)
            assert np.max(np.abs(pair.eval(xs) - amp * np.sin(k * xs))) < 1e-9

    def test_node_crack_contains_exact_second_mode(self, node_crack_problem):
        spectrum = oracle_eigenpairs(node_crack_problem, 2)
        assert spectrum.lambdas[1] == pytest.approx(2.0, abs=1e-10)

    def test_junction_conditions_preserved(self, two_crack_problem):
        spectrum = oracle_eigenpairs(two_crack_problem, 5)
        for pair in spectrum.pairs:
            scale = max(1.0, np.max(np.abs(pair.eval(np.linspace(0, math.pi, 200), 2))))
            for x_i, theta in zip(two_crack_problem.positions, two_crack_problem.flexibilities):
                right = [float(pair.eval(x_i, o, "R")) for o in range(4)]
                left = [float(pair.eval(x_i, o, "L")) for o in range(4)]
                assert abs(right[0] - left[0]) <= 1e-10 * scale
                assert abs(right[2] - left[2]) <= 1e-10 * scale
                assert abs(right[3] - left[3]) <= 1e-10 * scale
                assert abs((right[1] - left[1]) - theta * right[2]) <= 1e-10 * scale
