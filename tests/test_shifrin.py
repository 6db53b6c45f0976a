"""Jump basis, convolution kernels, system assembly, and eigenpairs."""

from __future__ import annotations

import math
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from crackedbeam import (
    BeamProblem,
    PiecewiseForm,
    ValidationError,
    assemble_system,
    basis_eval,
    build_eigenfunction,
    char_det,
    compute_spectrum,
    find_eigenvalues,
    jump_basis,
    kernel_M,
    oracle_eigenpairs,
    solve_nullspace,
)
from crackedbeam import shifrin, spectral, transition
from crackedbeam.beam_model import load_problem_file
from crackedbeam.cli import THRESHOLDS
from crackedbeam.paper import classical_coefficients
from crackedbeam.rootfind import RootCountError
from crackedbeam.transition import find_eigenvalues as transition_eigenvalues


EPS = np.finfo(float).eps
FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"


@pytest.fixture(scope="module")
def mid_crack() -> BeamProblem:
    return BeamProblem(positions=(math.pi / 2,), flexibilities=(0.5,))


@pytest.fixture(scope="module")
def three_cracks() -> BeamProblem:
    return BeamProblem(positions=(0.4, 1.9, 2.8), flexibilities=(2.0, 0.05, 0.7))


def _scaled_form(problem: BeamProblem, pair):
    """The jump-amplitude form of a computed mode at the mode's scale and sign: the nullvector
    at its root times the factor that turns the mode built from it into ``pair``."""
    form = solve_nullspace(problem, pair.lam)
    built = build_eigenfunction(problem, form).piecewise.coefficients
    k = np.argmax(np.abs(built))
    factor = pair.piecewise.coefficients.flat[k] / built.flat[k]
    return replace(form, deltas=form.deltas * factor, coefficients=form.coefficients * factor)


class TestJumpBasis:
    def test_midpoint_value(self, mid_crack):
        # ((pi/2 - pi)/pi) * (pi/2) = -pi/4
        assert basis_eval(mid_crack, 1, math.pi / 2) == pytest.approx(-math.pi / 4, abs=1e-15)

    def test_vanishes_at_supports(self, mid_crack):
        assert basis_eval(mid_crack, 1, 0.0) == 0.0
        assert basis_eval(mid_crack, 1, math.pi) == pytest.approx(0.0, abs=1e-15)

    def test_unit_slope_jump(self, mid_crack):
        w = jump_basis(mid_crack, 1)
        jump = w.eval(w.breakpoint, 1, side="R") - w.eval(w.breakpoint, 1, side="L")
        assert jump == pytest.approx(1.0, abs=1e-15)

    @given(x=st.floats(1e-6, math.pi - 1e-6), xi=st.floats(0.2, math.pi - 0.2))
    def test_negative_on_interior(self, x, xi):
        problem = BeamProblem(positions=(xi,), flexibilities=(1.0,))
        assert basis_eval(problem, 1, x) < 0.0

    def test_continuous_across_other_cracks(self):
        problem = BeamProblem(positions=(1.0, 2.0), flexibilities=(0.3, 0.3))
        w1 = jump_basis(problem, 1)
        # w_1 is globally continuous and its slope only jumps at x_1
        assert w1.eval(2.0, 1, side="L") == w1.eval(2.0, 1, side="R")

    def test_index_out_of_range(self, mid_crack):
        with pytest.raises(IndexError):
            jump_basis(mid_crack, 2)
        with pytest.raises(IndexError):
            jump_basis(mid_crack, 0)


class TestSideLabels:
    """Every evaluator takes "L" or "R" and rejects any other side label."""

    @pytest.mark.parametrize("side", ["right", "+"])
    @pytest.mark.parametrize("evaluator", ["jump_basis", "shifrin", "piecewise"])
    def test_other_labels_raise(self, evaluator, side, one_crack_problem, one_crack_spectrum):
        pair = one_crack_spectrum.pairs[0]
        f = {
            "jump_basis": jump_basis(one_crack_problem, 1),
            "shifrin": solve_nullspace(one_crack_problem, pair.lam),
            "piecewise": pair.piecewise,
        }[evaluator]
        with pytest.raises(ValueError, match="side"):
            f.eval(1.0, 1, side)


# Five crack layouts; the kernel of crack i only sees positions, not thetas.
KERNEL_CONFIGS = [
    (BeamProblem(positions=(math.pi / 2,), flexibilities=(0.5,)), 1),
    (BeamProblem(positions=(1.0,), flexibilities=(0.3,)), 1),
    (BeamProblem(positions=(0.7, 2.0), flexibilities=(0.3, 0.7)), 1),
    (BeamProblem(positions=(0.7, 2.0), flexibilities=(0.3, 0.7)), 2),
    (BeamProblem(positions=(2.6,), flexibilities=(1.0,)), 1),
]
KERNEL_XS = [0.4, 1.1, 2.0, 2.7, math.pi]
KERNEL_LAMS = [0.6, 0.9, 1.3, 1.7, 2.1]


class TestKernel:
    def test_vanishes_at_origin(self, mid_crack):
        for lam in KERNEL_LAMS:
            for order in (0, 1, 2, 3):
                assert kernel_M(mid_crack, 1, 0.0, lam, order=order) == 0.0

    @pytest.mark.parametrize("problem, i", KERNEL_CONFIGS)
    @pytest.mark.parametrize("lam", KERNEL_LAMS)
    def test_matches_adaptive_quadrature(self, problem, i, lam):
        from scipy.integrate import quad

        xi = problem.positions[i - 1]
        for x in KERNEL_XS:
            for order, kern in ((0, lambda u: np.sinh(u) - np.sin(u)),
                                (1, lambda u: lam * (np.cosh(u) - np.cos(u))),
                                (2, lambda u: lam**2 * (np.sinh(u) + np.sin(u))),
                                (3, lambda u: lam**3 * (np.cosh(u) + np.cos(u)))):
                expected, _ = quad(
                    lambda s: kern(lam * (x - s)) * basis_eval(problem, i, s),
                    0.0,
                    x,
                    points=[xi] if xi < x else None,
                    epsabs=1e-13,
                    epsrel=1e-13,
                    limit=200,
                )
                got = kernel_M(problem, i, x, lam, order=order)
                assert got == pytest.approx(expected, abs=1e-10)

    def test_first_and_third_derivatives_against_quadrature(self, mid_crack):
        from scipy.integrate import quad

        lam, x = 1.3, 2.0
        xi = mid_crack.positions[0]
        kernels = {
            1: lambda u: lam * (np.cosh(u) - np.cos(u)),
            3: lambda u: lam**3 * (np.cosh(u) + np.cos(u)),
        }
        for order, kern in kernels.items():
            expected, _ = quad(
                lambda s: kern(lam * (x - s)) * basis_eval(mid_crack, 1, s),
                0.0,
                x,
                points=[xi],
                epsabs=1e-13,
                epsrel=1e-13,
                limit=200,
            )
            assert kernel_M(mid_crack, 1, x, lam, order=order) == pytest.approx(expected, abs=1e-10)

    def test_rejects_bad_order_and_wavenumber(self, mid_crack):
        with pytest.raises(ValueError):
            kernel_M(mid_crack, 1, 1.0, 1.3, order=4)
        with pytest.raises(ValueError):
            kernel_M(mid_crack, 1, 1.0, 0.0)

    @pytest.mark.parametrize("position", [0.7, math.pi / 2, 2.6])
    @pytest.mark.parametrize("lam", [0.1, 0.6, 2.0])
    def test_relative_accuracy_before_the_crack(self, position, lam):
        # On (0, x_i), M_i = w_i'(0) K has no zero, so every value is held to a relative
        # bound, down to lam x = 1e-4 where the closed form of K cancels completely.
        import mpmath as mp

        problem = BeamProblem(positions=(position,), flexibilities=(0.3,))
        xs = np.concatenate((np.geomspace(1e-3, position, 12, endpoint=False), [0.01]))
        with mp.workdps(50):
            slope = (mp.mpf(position) - mp.pi) / mp.pi
            for order in range(4):
                got = kernel_M(problem, 1, xs, lam, order=order)
                for x, value in zip(xs.tolist(), got.tolist()):
                    t = mp.mpf(lam) * mp.mpf(x)
                    sin, cos, sinh, cosh = mp.sin(t), mp.cos(t), mp.sinh(t), mp.cosh(t)
                    k = (sin + sinh - 2 * t, cos + cosh - 2, sinh - sin, cosh - cos)[order]
                    expected = slope * mp.mpf(lam) ** (order - 2) * k
                    assert abs(value - expected) <= 1e-13 * abs(expected)


def _looped_system(problem: BeamProblem, lam: float) -> np.ndarray:
    """U(lam) filled entry by entry from the rows of the bounded system, one wavenumber at a
    time: the reference for the batched assembly, which must reproduce it bit for bit."""
    m = problem.m
    mat = np.zeros((m + 4, m + 4))
    xs = np.asarray(problem.positions)
    decay = math.exp(-lam * math.pi)
    for j in range(m):
        theta = problem.flexibilities[j]
        for i in range(m):
            u = abs(xs[j] - xs[i]) * lam
            mat[j, i] = theta * ((np.sin(u) + np.exp(-u)) * (0.25 * lam))
        mat[j, j] += 1.0
        t, s = xs[j] * lam, (math.pi - xs[j]) * lam
        mat[j, m + 0] = theta * lam**2 * np.cos(t)
        mat[j, m + 1] = theta * lam**2 * np.sin(t)
        mat[j, m + 2] = -(theta * lam**2) * np.exp(-t)
        mat[j, m + 3] = -(theta * lam**2) * np.exp(-s)
        # Supports: x_j and pi - x_j are crack j's distances to x = 0 and x = pi.
        mat[m + 0, j] = -np.exp(-t) / (4.0 * lam)
        mat[m + 1, j] = np.sin(t) / (4.0 * lam)
        mat[m + 2, j] = -np.exp(-s) / (4.0 * lam)
        mat[m + 3, j] = np.sin(s) / (4.0 * lam)
    mat[m, m + 2] = 1.0
    mat[m, m + 3] = decay
    mat[m + 1, m + 0] = 1.0
    mat[m + 2, m + 2] = decay
    mat[m + 2, m + 3] = 1.0
    mat[m + 3, m + 0] = np.cos(math.pi * lam)
    mat[m + 3, m + 1] = np.sin(math.pi * lam)
    return mat


class TestSystemMatrix:
    @pytest.mark.parametrize(
        "name", ["uniform_problem", "one_crack_problem", "two_crack_problem", "thirty_crack_problem"]
    )
    def test_batched_assembly_matches_entrywise_loop(self, name, request):
        problem = request.getfixturevalue(name)
        for lam in (0.3, 1.7, 5.2, 11.9, 23.4):
            assert np.array_equal(assemble_system(problem, lam), _looped_system(problem, lam))

    def test_batched_assembly_keeps_python_rounding_of_squares_and_decay(self, two_crack_problem):
        # numpy's square and exp round some wavenumbers differently from lam**2 and
        # math.exp; the stack must take Python's, as the one-wavenumber loop does.
        grid = np.linspace(0.05, 40.0, 20001)
        phases = grid * math.pi
        squares = np.array([lam**2 for lam in grid.tolist()]) != grid * grid
        decays = np.array([math.exp(-x) for x in phases.tolist()]) != np.exp(-phases)
        lams = np.concatenate((grid[squares][:40], grid[decays][:40], [0.3, 1.7]))
        stack = shifrin._system_stack(two_crack_problem, lams)
        for row, lam in zip(stack, lams.tolist()):
            assert np.array_equal(row, _looped_system(two_crack_problem, lam))

    def test_dense_delta_block_scales_with_theta_and_stays_bounded(self, thirty_crack_problem):
        # The Delta block holds theta_j (lam / 4)(sin + exp(-.))(lam |x_j - x_i|) plus the unit
        # diagonal: 1 + theta_j lam / 4 there, and entry (j, i) / theta_j is symmetric.  No
        # entry grows with a distance: past the unit diagonal, none exceeds max(1, theta_j lam^2)
        # from lam = 0.5 up to 330.
        problem = BeamProblem(positions=(0.9, 2.0, 2.05), flexibilities=(0.4, 0.8, 30.0))
        for lam in (1.7, 12.3, 98.6, 330.0):
            system = assemble_system(problem, lam)
            assert system.shape == (7, 7)
            block = (system[:3, :3] - np.eye(3)) / np.array(problem.flexibilities)[:, None]
            assert np.allclose(np.diag(block), lam / 4.0, rtol=1e-15, atol=0.0)
            assert np.array_equal(block, block.T)
        for p in (problem, thirty_crack_problem):
            theta = np.concatenate((p.flexibilities, np.zeros(4)))[:, None]
            for lam in np.linspace(0.5, 330.0, 60).tolist():
                system = assemble_system(p, lam) - np.eye(p.m + 4) * (np.arange(p.m + 4) < p.m)
                assert np.all(np.abs(system) <= np.maximum(1.0, theta * lam**2) * (1 + 1e-15))

    def test_solved_form_annihilates_every_row(self, mid_crack):
        lam = find_eigenvalues(mid_crack, 1)[0]
        form = solve_nullspace(mid_crack, lam)
        vec = np.concatenate([form.deltas, form.coefficients])
        mat = assemble_system(mid_crack, lam)
        assert np.linalg.norm(mat @ vec) <= 1e-8 * np.linalg.norm(mat)

    def test_uniform_determinant_closed_form(self):
        # For m=0 the equilibrated determinant is -sin(lam pi)(1 - e^{-2 lam pi})
        # divided by the max-abs entry of the oscillatory row.
        uniform = BeamProblem()
        for lam in (0.5, 1.3, 2.7, 4.4, 9.2):
            row_scale = max(abs(math.cos(lam * math.pi)), abs(math.sin(lam * math.pi)))
            expected = -math.sin(lam * math.pi) * (1.0 - math.exp(-2.0 * lam * math.pi))
            assert char_det(uniform, lam) * row_scale == pytest.approx(expected, abs=1e-12)

    def test_uniform_determinant_symbolic(self):
        # Symbolic expansion of the 4x4 boundary block, and its equivalence
        # to the classical sin * sinh characteristic function up to the
        # positive factor 2 e^{-lam pi}.
        import sympy as sp

        lam = sp.symbols("lam", positive=True)
        e = sp.exp(-lam * sp.pi)
        mat = sp.Matrix(
            [
                [0, 0, 1, e],
                [1, 0, 0, 0],
                [0, 0, e, 1],
                [sp.cos(lam * sp.pi), sp.sin(lam * sp.pi), 0, 0],
            ]
        )
        det = sp.simplify(mat.det())
        target = -sp.sin(lam * sp.pi) * (1 - sp.exp(-2 * lam * sp.pi))
        assert sp.simplify(det - target) == 0
        classical = -2 * sp.exp(-lam * sp.pi) * sp.sin(lam * sp.pi) * sp.sinh(lam * sp.pi)
        assert sp.expand((target - classical).rewrite(sp.exp)) == 0


class TestCharDet:
    def test_uniform_roots_are_integers(self):
        roots = find_eigenvalues(BeamProblem(), 5)
        assert np.allclose(roots, [1, 2, 3, 4, 5], atol=1e-10)

    @pytest.mark.parametrize("theta", [0.1, 1.0, 10.0])
    def test_node_crack_even_modes_survive(self, theta):
        problem = BeamProblem(positions=(math.pi / 2,), flexibilities=(theta,))
        assert abs(char_det(problem, 2.0)) < 1e-12

    def test_sign_change_brackets_transition_root(self):
        problem = BeamProblem(positions=(1.0,), flexibilities=(0.3,))
        root = transition_eigenvalues(problem, 1)[0]
        assert char_det(problem, root - 0.01) * char_det(problem, root + 0.01) < 0.0

    def test_requires_positive_wavenumber(self, mid_crack):
        with pytest.raises(ValueError):
            char_det(mid_crack, -1.0)
        with pytest.raises(ValueError):
            char_det(mid_crack, np.array([1.0, 0.0]))
        with pytest.raises(ValueError, match="at least 1e-100"):
            char_det(mid_crack, 1e-300)
        with pytest.raises(ValueError, match="at least 1e-100"):
            char_det(mid_crack, np.array([1.0, 9.9e-101]))

    def test_rejects_wavenumber_above_ceiling(self, mid_crack):
        with pytest.raises(ValueError, match="at most 1e\\+100"):
            char_det(mid_crack, 1e101)
        with pytest.raises(ValueError, match="at most 1e\\+100"):
            char_det(mid_crack, np.array([1.0, 1e101]))

    @pytest.mark.parametrize(
        "name", ["uniform_problem", "one_crack_problem", "two_crack_problem", "thirty_crack_problem"]
    )
    def test_array_equals_scalar_values(self, name, request):
        # 150 wavenumbers exceed one stack at 30 cracks, so blocking is covered.
        problem = request.getfixturevalue(name)
        lams = np.linspace(0.05, 24.0, 150)
        batched = char_det(problem, lams)
        scalar = np.array([char_det(problem, lam) for lam in lams.tolist()])
        assert np.array_equal(batched, scalar)
        assert char_det(problem, lams.reshape(10, 15)).shape == (10, 15)
        assert isinstance(char_det(problem, 1.3), float)

    def test_assembled_matrix_is_the_determinant_input(self, two_crack_problem):
        lam = 2.37
        mat = assemble_system(two_crack_problem, lam)
        scaled = mat / np.max(np.abs(mat), axis=1)[:, None]
        assert char_det(two_crack_problem, lam) == float(np.linalg.det(scaled))


class TestEquilibration:
    @pytest.mark.parametrize(
        "name",
        [
            "uniform_problem",
            "one_crack_problem",
            "two_crack_problem",
            "three_cracks",
            "thirty_crack_problem",
        ],
    )
    @pytest.mark.parametrize("size", [1, 5, 128])
    def test_entry_major_stack_equilibrates_and_factors_as_c_ordered(self, name, size, request):
        # The row maxima, the equilibrated entries and their determinants on the
        # stack's entry-major layout equal, bit for bit, those of a C-ordered copy.
        problem = request.getfixturevalue(name)
        stack = shifrin._system_stack(problem, np.linspace(0.3, 23.4, size))
        ordered = np.ascontiguousarray(stack)
        expected = ordered / np.max(np.abs(ordered), axis=-1, keepdims=True)
        scaled = shifrin._equilibrated(stack)
        assert scaled.tobytes() == expected.tobytes()
        assert np.linalg.det(scaled).tobytes() == np.linalg.det(expected).tobytes()


class TestFindEigenvalues:
    def test_node_crack_second_root_exact(self, mid_crack):
        roots = find_eigenvalues(mid_crack, 2)
        assert roots[1] == pytest.approx(2.0, abs=1e-10)
        assert roots[0] < 1.0

    def test_roots_strictly_increasing(self, one_crack_spectrum):
        lams = one_crack_spectrum.lambdas
        assert np.all(np.diff(lams) > 0.0)

    @settings(max_examples=15, deadline=None)
    @given(
        position=st.floats(0.4, math.pi - 0.4),
        theta=st.floats(0.01, 5.0),
    )
    def test_single_crack_first_root_never_exceeds_uniform(self, position, theta):
        # A crack only removes stiffness, so the fundamental drops.
        problem = BeamProblem(positions=(position,), flexibilities=(theta,))
        root = find_eigenvalues(problem, 1)[0]
        assert 0.0 < root <= 1.0 + 1e-12

    def test_theta_continuity_to_uniform(self):
        problem = BeamProblem(positions=(1.3,), flexibilities=(1e-8,))
        roots = find_eigenvalues(problem, 3)
        assert np.allclose(roots, [1.0, 2.0, 3.0], atol=1e-4)

    def test_fundamental_nonincreasing_in_theta(self):
        thetas = [0.01, 0.1, 0.5, 1.0, 5.0]
        roots = [
            find_eigenvalues(BeamProblem(positions=(1.3,), flexibilities=(t,)), 1)[0]
            for t in thetas
        ]
        assert all(b <= a + 1e-12 for a, b in zip(roots, roots[1:]))


class TestRootCount:
    def test_one_crack_counts_every_unit_window(self, one_crack_problem):
        k = np.arange(1000.0)
        assert shifrin.root_count(one_crack_problem, k + 0.5).tolist() == k.tolist()

    def test_shape_follows_the_wavenumbers(self, three_cracks):
        assert isinstance(shifrin.root_count(three_cracks, 2.5), float)
        assert shifrin.root_count(three_cracks, np.full((2, 3), 2.5)).shape == (2, 3)

    def test_uncracked_beam_counts_the_integers_below(self):
        lams = np.array([0.5, 0.999, 1.001, 7.3])
        assert shifrin.root_count(BeamProblem(), lams).tolist() == [0.0, 0.0, 1.0, 7.0]

    def test_singular_support_block_is_not_counted(self, one_crack_problem):
        # Below lam ~ 1.8e-17, e**(-lam pi) rounds to 1 and the support block has rank 3.
        counts = shifrin.root_count(one_crack_problem, np.array([1e-18, 1e-17, 1e-16, 0.5]))
        assert np.isnan(counts[:2]).all()
        assert counts[2:].tolist() == [0.0, 0.0]
        for solver in (shifrin, transition):
            with pytest.raises(RootCountError, match="lost roots") as info:
                solver.find_eigenvalues(one_crack_problem, 1, lam_max=1e-18)
            assert info.value.found == []

    def test_count_is_nan_where_theta_lam2_overflows(self):
        problem = BeamProblem(positions=(1.0,), flexibilities=(1e300,))
        with np.errstate(over="ignore", invalid="ignore"):
            counts = shifrin.root_count(problem, np.array([0.5, 1e6 + 0.5]))
        assert counts[0] == 1.0  # one mechanism root far below 0.5
        assert np.isnan(counts[1])

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(
        positions=st.lists(st.floats(0.1, math.pi - 0.1), min_size=1, max_size=5),
        exponents=st.lists(st.floats(-3.0, 7.0), min_size=5, max_size=5),
    )
    def test_count_steps_by_one_at_every_root(self, positions, exponents):
        # Half-way between roots k and k + 1 the count reads k, and 0 below the first, on
        # 1-5 cracks at least 1e-3 apart with theta log-uniform in [1e-3, 1e7].  The count
        # is singular at the integers, so points within 1e-9 of one are skipped.
        kept = []
        for x in sorted(positions):
            if not kept or x - kept[-1] >= 1e-3:
                kept.append(x)
        problem = BeamProblem(tuple(kept), tuple(10.0**e for e in exponents[: len(kept)]))
        roots = np.array([0.0, *find_eigenvalues(problem, problem.m + 3)])
        mids = 0.5 * (roots[:-1] + roots[1:])
        keep = np.abs(mids - np.round(mids)) > 1e-9
        expected = np.flatnonzero(keep).astype(float)
        assert shifrin.root_count(problem, mids[keep]).tolist() == expected.tolist()

    def test_near_hinge_roots_in_one_grid_step(self):
        # Three near-hinge cracks put three mechanism roots below 0.03, two of them within
        # one step of 0.01; the count isolates all three.  The values are mpmath's.
        problem = BeamProblem(positions=(0.5, 1.6, 2.9), flexibilities=(1e8,) * 3)
        expected = np.array([0.010496430865, 0.021812264600, 0.028719775826])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            jump = compute_spectrum(problem, 3).lambdas
            oracle = oracle_eigenpairs(problem, 3).lambdas
        assert np.abs(jump - expected) / expected == pytest.approx(0.0, abs=1e-9)
        assert len(oracle) == 3
        assert np.all(oracle < 0.03)


class TestNullspace:
    def test_uniform_mode_is_pure_sine(self):
        form = solve_nullspace(BeamProblem(), 1.0)
        a, b, c, d = classical_coefficients(form)
        assert abs(b) > 0.1
        assert abs(a) < 1e-12 and abs(c) < 1e-12 and abs(d) < 1e-12

    def test_node_crack_mode_has_no_jump(self, mid_crack):
        form = solve_nullspace(mid_crack, 2.0)
        assert abs(form.deltas[0]) < 1e-10
        xs = np.linspace(0.1, 3.0, 7)
        reference = form.eval(math.pi / 4) / math.sin(2.0 * math.pi / 4)
        assert np.allclose(form.eval(xs), reference * np.sin(2.0 * xs), atol=1e-10)

    def test_hinged_reduction_kills_cos_and_cosh(self, one_crack_problem, one_crack_spectrum):
        for pair in one_crack_spectrum.pairs:
            form = solve_nullspace(one_crack_problem, pair.lam)
            norm = float(
                np.linalg.norm(np.concatenate([form.deltas, form.coefficients]))
            )
            a, _, c, _ = classical_coefficients(form)
            assert abs(a) <= 1e-12 * norm
            assert abs(c) <= 1e-12 * norm

    def test_left_slope_sign_convention(self, one_crack_spectrum, two_crack_spectrum):
        for spectrum in (one_crack_spectrum, two_crack_spectrum):
            for pair in spectrum.pairs:
                assert float(pair.eval(0.0, 1, "R")) > 0.0

    def test_degeneracy_warning_names_every_flagged_root(self, two_crack_problem, monkeypatch):
        # A ratio of 1 flags every root, so the stacked SVD must warn once per root.
        monkeypatch.setattr(shifrin, "DEGENERACY_RATIO", 1.0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            spectrum = compute_spectrum(two_crack_problem, 3)
        messages = [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]
        assert messages == [
            f"nullspace dimension exceeds 1 at lambda = {lam}: degenerate eigenvalue"
            for lam in spectrum.lambdas.tolist()
        ]

    def test_degeneracy_warning_names_the_solver_module(self, one_crack_problem, monkeypatch):
        # Warnings are told apart by the file they name, on the spectrum and one-root paths alike.
        monkeypatch.setattr(shifrin, "DEGENERACY_RATIO", 1.0)
        for solve in (
            lambda: compute_spectrum(one_crack_problem, 2),
            lambda: solve_nullspace(one_crack_problem, 1.5),
        ):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                solve()
            assert caught
            assert all(Path(w.filename).name == "shifrin.py" for w in caught)


class TestShifrinForm:
    def test_fourth_derivative_identity(self, one_crack_problem, one_crack_spectrum):
        # Every term of the representation solves u'''' = lam^4 u piecewise.
        form = _scaled_form(one_crack_problem, one_crack_spectrum.pairs[2])
        xs = np.linspace(0.05, math.pi - 0.05, 41)
        assert np.allclose(form.eval(xs, 4), form.lam**4 * form.eval(xs, 0), rtol=1e-12, atol=1e-12)

    def test_slope_jump_equals_delta(self, two_crack_problem, two_crack_spectrum):
        for pair in two_crack_spectrum.pairs[:4]:
            form = _scaled_form(two_crack_problem, pair)
            for delta, x_i in zip(form.deltas, form.positions):
                jump = float(form.eval(x_i, 1, "R")) - float(form.eval(x_i, 1, "L"))
                assert jump == pytest.approx(delta, abs=1e-12 * max(1.0, abs(delta)))

    def test_classical_split_reproduces_evaluation(self, one_crack_problem):
        # Reassemble phi from the classical coefficients, the convolution
        # kernels, and the piecewise-linear jump functions; this ties the
        # internal representation to the public kernel formula.
        lam = find_eigenvalues(one_crack_problem, 2)[1]
        form = solve_nullspace(one_crack_problem, lam)
        ap, bp, cp, dp = classical_coefficients(form)
        xs = np.linspace(0.0, math.pi, 29)
        t = lam * xs
        rebuilt = ap * np.cos(t) + bp * np.sin(t) + cp * np.cosh(t) + dp * np.sinh(t)
        for i in range(1, one_crack_problem.m + 1):
            rebuilt += form.deltas[i - 1] * (
                (lam / 2.0) * kernel_M(one_crack_problem, i, xs, lam)
                + basis_eval(one_crack_problem, i, xs)
            )
        assert np.max(np.abs(rebuilt - form.eval(xs))) < 1e-10


class TestEigenpairs:
    def test_junction_conditions(self, two_crack_spectrum, two_crack_problem):
        for pair in two_crack_spectrum.pairs:
            xs = two_crack_problem.positions
            thetas = two_crack_problem.flexibilities
            scale = max(
                1.0, np.max(np.abs(pair.eval(np.linspace(0.0, math.pi, 200), 2)))
            )
            for x_i, theta in zip(xs, thetas):
                right = [float(pair.eval(x_i, o, "R")) for o in range(4)]
                left = [float(pair.eval(x_i, o, "L")) for o in range(4)]
                assert abs(right[0] - left[0]) <= 1e-9
                assert abs(right[2] - left[2]) <= 1e-9 * scale
                assert abs(right[3] - left[3]) <= 1e-9 * scale
                assert abs((right[1] - left[1]) - theta * right[2]) <= 1e-9 * scale

    def test_representations_agree_pointwise(self, one_crack_spectrum, one_crack_problem):
        # The coefficient form and the per-interval form describe one
        # function; check values on every subinterval.
        for pair in one_crack_spectrum.pairs[:5]:
            form = _scaled_form(one_crack_problem, pair)
            bp = one_crack_problem.breakpoints
            for lo, hi in zip(bp[:-1], bp[1:]):
                xs = np.linspace(lo + 1e-9, hi - 1e-9, 23)
                assert np.max(np.abs(form.eval(xs) - pair.eval(xs))) <= 1e-9

    def test_boundary_values(self, two_crack_spectrum):
        for pair in two_crack_spectrum.pairs:
            scale = max(1.0, np.max(np.abs(pair.eval(np.linspace(0.0, math.pi, 200), 2))))
            assert abs(pair.eval(0.0)) <= 1e-12
            assert abs(pair.eval(math.pi)) <= 1e-9 * scale

    def test_no_degeneracy_warnings_from_clean_spectra(self, one_crack_problem):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            compute_spectrum(one_crack_problem, 6)

    def test_build_from_perturbed_form_keeps_jump(self, one_crack_problem):
        # build_eigenfunction must honor whatever jump amplitudes the form
        # carries; the fault-injection path in the CLI depends on this.
        lam = find_eigenvalues(one_crack_problem, 1)[0]
        form = solve_nullspace(one_crack_problem, lam)
        bumped = replace(form, deltas=form.deltas + 0.01)
        pair = build_eigenfunction(one_crack_problem, bumped)
        x1 = one_crack_problem.positions[0]
        jump = float(pair.eval(x1, 1, "R")) - float(pair.eval(x1, 1, "L"))
        law = jump - one_crack_problem.flexibilities[0] * float(pair.eval(x1, 2, "R"))
        assert abs(law) > 1e-4


def _looped_eigenfunction(problem, form):
    """Unnormalized coefficients written interval by interval from the addition formulas,
    every crack's term added in order: the array build's reference, bit for bit."""
    lam = form.lam
    a, b, p, q = form.coefficients.tolist()
    bp = problem.breakpoints
    rows = []
    for left, right in zip(bp[:-1], bp[1:]):
        sin_a, cos_a = float(np.sin(lam * left)), float(np.cos(lam * left))
        decaying = p * float(np.exp(-(lam * left)))
        rising = q * float(np.exp(-lam * (math.pi - right)))
        row = [a * cos_a + b * sin_a, b * cos_a - a * sin_a, decaying, rising]
        for delta, x_i in zip(form.deltas.tolist(), problem.positions):
            # g(x - x_i) = (sin - exp(-.))(lam |x - x_i|) / (4 lam), from either side.
            d = lam * (left - x_i)
            if x_i <= left:
                reach = float(np.exp(lam * (x_i - left)))
                terms = (float(np.sin(d)), float(np.cos(d)), -reach, 0.0)
            else:
                reach = float(np.exp(lam * (right - x_i)))
                terms = (-float(np.sin(d)), -float(np.cos(d)), 0.0, -reach)
            row = [r + delta / (4.0 * lam) * v for r, v in zip(row, terms)]
        rows.append(row)
    return PiecewiseForm(lam=lam, breakpoints=problem.breakpoints, coefficients=rows).coefficients


class TestBuildEigenfunction:
    @pytest.mark.parametrize(
        "name", ["uniform_problem", "one_crack_problem", "two_crack_problem", "thirty_crack_problem"]
    )
    def test_array_build_matches_interval_loop(self, name, request):
        problem = request.getfixturevalue(name)
        for lam in find_eigenvalues(problem, 4):
            form = solve_nullspace(problem, lam)
            built = build_eigenfunction(problem, form).piecewise.coefficients
            looped = _looped_eigenfunction(problem, form)
            assert built.shape == (problem.m + 1, 4)
            assert np.array_equal(built, looped)

    @settings(max_examples=30, deadline=None)
    @given(
        positions=st.lists(
            st.floats(0.0, math.pi, exclude_min=True, exclude_max=True), max_size=6, unique=True
        ),
        exponents=st.lists(st.floats(-3.0, 3.0), min_size=6, max_size=6),
    )
    def test_piecewise_form_matches_jump_amplitude_form(self, positions, exponents):
        # The coefficients are written from the addition formulas, not read off the
        # form, so agreeing at every interval's left end checks the two independently.
        # Both sum the same bounded terms: the smooth part's, at most its coefficients,
        # and each crack's, at most |Delta_i| / (2 lam), times lam**order.  Each sum
        # rounds to a few ulps of its terms, so 16 eps of their sum is allowed.
        thetas = tuple(10.0**e for e in exponents[: len(positions)])
        try:
            problem = BeamProblem(positions=tuple(sorted(positions)), flexibilities=thetas)
        except ValidationError:
            assume(False)
        bp = np.array(problem.breakpoints)
        left = bp[:-1]
        for lam in find_eigenvalues(problem, 5):
            form = solve_nullspace(problem, lam)
            pair = build_eigenfunction(problem, form)
            a, b, p, q = np.abs(form.coefficients)
            smooth = a + b + p * np.exp(-lam * left) + q * np.exp(-lam * (math.pi - left))
            terms = smooth + np.sum(np.abs(form.deltas)) / (2.0 * lam)
            for order in range(4):
                expected = form.eval(bp, order, "R")
                bound = 16 * EPS * lam**order * terms
                assert np.all(np.abs(pair.eval(left, order, "R") - expected[:-1]) <= bound)


def _random_layout(seed: int, m: int, gap: float = 0.04) -> BeamProblem:
    """m cracks at least ``gap`` apart and from the supports, flexibilities log-uniform in
    [0.01, 2]."""
    rng = np.random.default_rng(seed)
    cuts = np.sort(rng.uniform(0.0, math.pi - (m + 1) * gap, m))
    positions = cuts + gap * np.arange(1, m + 1)
    thetas = 0.01 * 200.0 ** rng.uniform(0.0, 1.0, m)
    return BeamProblem(positions=tuple(positions.tolist()), flexibilities=tuple(thetas.tolist()))


class TestHighModes:
    """The bounded response keeps high modes and many cracks inside every residual check."""

    @pytest.mark.parametrize("name", ["one_crack", "two_crack", "node_crack", "steel_beam", "uniform"])
    def test_every_check_passes_at_forty_modes(self, name):
        problem, _, _ = load_problem_file(str(FIXTURES / f"{name}.json"))
        worst = spectral.verify(problem, compute_spectrum(problem, 40), oracle_eigenpairs(problem, 40))
        for check, threshold in THRESHOLDS.items():
            assert worst[check] <= threshold, check

    @pytest.mark.parametrize(
        "problem",
        [
            BeamProblem(positions=tuple(math.pi * j / 31 for j in range(1, 31)), flexibilities=(0.2,) * 30),
            *(_random_layout(seed, m) for seed, m in enumerate((10, 30) * 3)),
        ],
        ids=["thirty_equal", *(f"seed{seed}_{m}" for seed, m in enumerate((10, 30) * 3))],
    )
    def test_many_cracks_warn_at_no_root(self, problem):
        # Every root is simple, so no nullspace is flagged as degenerate.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            compute_spectrum(problem, 20)

    def test_built_mode_matches_the_form_near_a_support(self):
        # A crack 1/64 from the left support: the mode must equal the form on both sides of
        # every breakpoint, to 1e-12 of each order's largest value.
        problem = BeamProblem(positions=(0.015625, 3.0), flexibilities=(10.0, 1.0))
        xs = np.concatenate((np.linspace(0.0, math.pi, 401), problem.positions))
        for pair in compute_spectrum(problem, 5).pairs:
            form = _scaled_form(problem, pair)
            for order in range(4):
                for side in ("L", "R"):
                    expected = form.eval(xs, order, side)
                    gap = np.abs(pair.eval(xs, order, side) - expected)
                    assert np.max(gap) <= 1e-12 * np.max(np.abs(expected))
