"""Transfer-matrix propagation, boundary determinant, and oracle modes."""

from __future__ import annotations

import itertools
import math

import mpmath as mp
import numpy as np
import pytest
from scipy.linalg import expm

from crackedbeam import (
    BeamProblem,
    boundary_det,
    char_det,
    compute_spectrum,
    oracle_eigenpairs,
    spectral,
    transition,
    transition_matrix,
)
from crackedbeam.cli import THRESHOLDS


def _minors(a, b) -> np.ndarray:
    """The six 2x2 minors of the states ``a`` and ``b``, rows (i, j) with i < j."""
    return np.array([a[i] * b[j] - a[j] * b[i] for i, j in itertools.combinations(range(4), 2)])


def _state_map(lam: float, h: float, theta: float) -> np.ndarray:
    """Scaled-state map across a crack of flexibility theta and then an interval of length h."""
    crack = np.eye(4)
    crack[1, 2] = theta * lam
    return expm(lam * h * np.roll(np.eye(4), 1, axis=1)) @ crack


class TestTransitionMatrix:
    @pytest.mark.parametrize("theta", [1e-15, 0.7, 50.0])
    def test_map_carries_the_minors_of_any_two_states(self, theta):
        # On the minors of two states, the map equals the minors of the mapped states, divided by
        # e**(lam h) (1 + theta lam) and written in the chain's basis.
        problem = BeamProblem(positions=(1.3, 2.0), flexibilities=(theta, 0.2))
        lam = 2.4
        rng = np.random.default_rng(7)
        a, b = rng.standard_normal((2, 4))
        state = _state_map(lam, 0.7, theta)
        expected = _minors(state @ a, state @ b) / (math.exp(lam * 0.7) * (1.0 + theta * lam))
        carried = transition._BASIS @ transition_matrix(problem, 1, lam) @ transition._TO_BASIS @ _minors(a, b)
        assert np.allclose(carried, expected, rtol=1e-12, atol=1e-12 * np.max(np.abs(expected)))

    @pytest.mark.parametrize("theta", [0.1, 1.0, 10.0])
    def test_crack_is_invisible_to_a_plane_without_moment(self, theta):
        # A plane whose states have w'' = 0 at the crack (p_02 = p_12 = p_23 = 0) crosses it as
        # it crosses the interval alone, up to the scale 1 / (1 + t).
        lam, h = 2.0, math.pi / 2
        cracked = BeamProblem(positions=(h,), flexibilities=(theta,))
        plain = BeamProblem(positions=(h,), flexibilities=(1e-300,))
        plane = transition._TO_BASIS @ _minors(np.array([1.0, 0.3, 0.0, -0.4]), np.array([0.2, 1.0, 0.0, 0.5]))
        carried = transition_matrix(cracked, 1, lam) @ plane
        assert np.allclose(carried * (1.0 + theta * lam), transition_matrix(plain, 1, lam) @ plane, atol=1e-14)

    @pytest.mark.parametrize("lam", [1e-100, 0.3, 40.0, 400.0, 1e100])
    @pytest.mark.parametrize("theta", [1e-10, 1.0, 1e6])
    def test_every_entry_is_bounded(self, lam, theta):
        # A rotation of a convex blend of I and K (entries at most 1/2): no entry exceeds sqrt(2).
        problem = BeamProblem(positions=(1e-6, 1.0), flexibilities=(theta, theta))
        for i in (1, 2):
            assert np.max(np.abs(transition_matrix(problem, i, lam))) <= math.sqrt(2.0)

    def test_rejects_crack_index_and_wavenumber_out_of_range(self, two_crack_problem):
        for i in (0, two_crack_problem.m + 1):
            with pytest.raises(IndexError, match="out of range 1..2"):
                transition_matrix(two_crack_problem, i, 1.5)
        for lam in (0.0, -1.0):
            with pytest.raises(ValueError, match="positive"):
                transition_matrix(two_crack_problem, 1, lam)


class TestBoundaryDet:
    @pytest.mark.parametrize(
        "name", ["uniform_problem", "one_crack_problem", "two_crack_problem", "thirty_crack_problem"]
    )
    def test_is_the_scaled_transfer_minor(self, name, request, reference_script):
        # boundary_det = lam**2 e**(-lam pi) prod_j (1 + theta_j lam)**-1 transfer_det, where
        # transfer_det cancels about lam pi / ln 10 digits: mpmath carries 30 more than that.
        problem = request.getfixturevalue(name)
        transfer_det = reference_script.transfer_det
        lams = [0.3, 1.7, 5.2, 11.9, 23.4, 39.5, 150.25]
        for lam, value in zip(lams, boundary_det(problem, np.array(lams)).tolist()):
            with mp.workdps(int(lam * math.pi / math.log(10)) + 30):
                scale = mp.mpf(lam) ** 2 * mp.exp(-mp.mpf(lam) * mp.pi)
                for theta in problem.flexibilities:
                    scale /= 1 + mp.mpf(theta) * mp.mpf(lam)
                expected = float(scale * transfer_det(problem.positions, problem.flexibilities, lam))
            assert value == pytest.approx(expected, rel=1e-12), lam

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
        # 200 wavenumbers exceed one stack at 30 cracks (176), so blocking is covered.
        problem = request.getfixturevalue(name)
        lams = np.linspace(0.05, 24.0, 200)
        batched = boundary_det(problem, lams)
        scalar = np.array([boundary_det(problem, lam) for lam in lams.tolist()])
        assert np.array_equal(batched, scalar)
        assert boundary_det(problem, lams.reshape(10, 20)).shape == (10, 20)
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

    @pytest.mark.parametrize(
        "problem",
        [
            BeamProblem(positions=(2.902640469141445,), flexibilities=(1.1952254594942762,)),
            BeamProblem(
                positions=(0.5904444815764028, 2.2052540841903934),
                flexibilities=(0.0329389040764974, 0.3329975810627204),
            ),
        ],
        ids=["one_crack", "two_cracks"],
    )
    def test_modes_at_roots_where_collocation_can_be_exactly_singular(self, problem):
        # At the 4th and 2nd roots of these layouts a collocation matrix can be singular to the
        # last bit, and a plain solve then raises LinAlgError; the bordered solve gives the mode.
        worst = spectral.verify(problem, compute_spectrum(problem, 5), oracle_eigenpairs(problem, 5))
        for check, threshold in THRESHOLDS.items():
            assert worst[check] <= threshold, check
