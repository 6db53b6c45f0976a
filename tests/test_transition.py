"""Transfer-matrix propagation, boundary determinant, and oracle modes."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from crackedbeam import (
    BeamProblem,
    boundary_det,
    char_det,
    oracle_eigenpairs,
    transition,
    transition_matrix,
)
from crackedbeam.modes import coefficients_from_state, local_state_matrix


class TestStateMap:
    @given(
        coeffs=st.tuples(*[st.floats(-5.0, 5.0) for _ in range(4)]),
        lam=st.floats(0.2, 8.0),
    )
    def test_roundtrip_is_identity(self, coeffs, lam):
        vec = np.asarray(coeffs)
        state = local_state_matrix(lam, 0.0) @ vec
        back = coefficients_from_state(lam, state)
        assert np.allclose(back, vec, atol=1e-12 * max(1.0, np.max(np.abs(vec))))

    def test_roundtrip_over_a_stack_of_wavenumbers(self):
        # Column k of local_state_matrix is the state of unit coefficient k,
        # so inverting every column of every matrix gives the identity.
        lams = np.linspace(0.2, 40.0, 25)
        states = np.swapaxes(local_state_matrix(lams, 0.0), -1, -2)
        back = coefficients_from_state(lams[:, None], states)
        assert np.allclose(back, np.eye(4), rtol=0.0, atol=1e-14)
        # The stack gives exactly what one wavenumber at a time gives.
        for lam, stacked, state in zip(lams, back, states):
            assert np.array_equal(stacked, coefficients_from_state(lam, state))

    def test_state_matrix_structure_at_origin(self):
        lam = 1.7
        mat = local_state_matrix(lam, 0.0)
        # [w, w', w'', w'''] of (sin, cos, sinh, cosh)(lam xi) at xi = 0
        expected = np.array(
            [
                [0.0, 1.0, 0.0, 1.0],
                [lam, 0.0, lam, 0.0],
                [0.0, -lam**2, 0.0, lam**2],
                [-(lam**3), 0.0, lam**3, 0.0],
            ]
        )
        assert np.allclose(mat, expected, atol=1e-15)


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
        # Across the joint: w, w'', w''' continuous, w' gains theta * w''.
        problem = BeamProblem(positions=(1.3,), flexibilities=(0.7,))
        lam = 2.4
        t = transition_matrix(problem, 1, lam)
        rng = np.random.default_rng(7)
        coeffs = rng.standard_normal(4)
        state_left = local_state_matrix(lam, 1.3) @ coeffs
        state_right = local_state_matrix(lam, 0.0) @ (t @ coeffs)
        assert state_right[0] == pytest.approx(state_left[0], rel=1e-12, abs=1e-12)
        assert state_right[2] == pytest.approx(state_left[2], rel=1e-12, abs=1e-12)
        assert state_right[3] == pytest.approx(state_left[3], rel=1e-12, abs=1e-12)
        assert state_right[1] - state_left[1] == pytest.approx(
            0.7 * state_left[2], rel=1e-12, abs=1e-12
        )


def _looped_boundary_det(problem: BeamProblem, lam: float) -> float:
    """The transfer chain for one wavenumber, one 4x4 factor at a time: the
    reference for the batched chain, which must reproduce it bit for bit."""

    def state(xi):
        t = np.asarray(lam * xi)
        s, c, sh, ch = (float(f(t)) for f in (np.sin, np.cos, np.sinh, np.cosh))
        rows = [(s, c, sh, ch), (c, -s, ch, sh), (-s, -c, sh, ch), (-c, s, ch, sh)]
        return np.array([[lam**k * v for v in row] for k, row in enumerate(rows)])

    il, il2, il3 = 0.5 / lam, 0.5 / lam**2, 0.5 / lam**3
    inverse = np.array(
        [[0.0, il, 0.0, -il3], [0.5, 0.0, -il2, 0.0], [0.0, il, 0.0, il3], [0.5, 0.0, il2, 0.0]]
    )
    bp = problem.breakpoints
    chain = state(bp[-1] - bp[-2])[[0, 2]]
    chain = chain / np.max(np.abs(chain))
    for i in range(problem.m, 0, -1):
        jump = np.eye(4)
        jump[1, 2] = problem.flexibilities[i - 1]
        factor = inverse @ jump @ state(bp[i] - bp[i - 1])
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
