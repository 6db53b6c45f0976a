"""Jump basis, convolution kernels, system assembly, and eigenpairs."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crackedbeam import (
    BeamProblem,
    PiecewiseForm,
    assemble_system,
    basis_eval,
    build_eigenfunction,
    char_det,
    compute_spectrum,
    find_eigenvalues,
    jump_basis,
    kernel_M,
    solve_nullspace,
)
from crackedbeam import shifrin
from crackedbeam.paper import classical_coefficients
from crackedbeam.transition import find_eigenvalues as transition_eigenvalues


@pytest.fixture(scope="module")
def mid_crack() -> BeamProblem:
    return BeamProblem(positions=(math.pi / 2,), flexibilities=(0.5,))


@pytest.fixture(scope="module")
def three_cracks() -> BeamProblem:
    return BeamProblem(positions=(0.4, 1.9, 2.8), flexibilities=(2.0, 0.05, 0.7))


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
            "shifrin": pair.shifrin,
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
        for order in (0, 1, 2, 3):
            assert kernel_M(mid_crack, 1, 0.0, 1.3, order=order) == 0.0

    @pytest.mark.parametrize("problem, i", KERNEL_CONFIGS)
    @pytest.mark.parametrize("lam", KERNEL_LAMS)
    def test_matches_adaptive_quadrature(self, problem, i, lam):
        from scipy.integrate import quad

        xi = problem.positions[i - 1]
        for x in KERNEL_XS:
            for order, kern in ((0, lambda u: np.sinh(u) - np.sin(u)),
                                (2, lambda u: lam**2 * (np.sinh(u) + np.sin(u)))):
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


def _looped_system(problem: BeamProblem, lam: float) -> np.ndarray:
    """U(lam) filled entry by entry, one wavenumber at a time: the reference
    for the batched assembly, which must reproduce it bit for bit."""
    m = problem.m
    mat = np.zeros((m + 4, m + 4))
    xs = np.asarray(problem.positions)
    decay = math.exp(-lam * math.pi)
    t = lam * xs
    for j in range(m):
        theta = problem.flexibilities[j]
        for i in range(j):
            u = lam * np.asarray(xs[j] - xs[i])
            mat[j, i] = -theta * (lam**1 * 0.5 * (-np.sin(u) + np.sinh(u)))
        mat[j, j] = 1.0
        mat[j, m + 0] = theta * lam**2 * np.cos(t)[j]
        mat[j, m + 1] = theta * lam**2 * np.sin(t)[j]
        mat[j, m + 2] = -theta * lam**2 * np.exp(-t)[j]
        mat[j, m + 3] = -theta * lam**2 * np.exp(-lam * math.pi + t)[j]
    mat[m, m + 2] = 1.0
    mat[m, m + 3] = decay
    mat[m + 1, m + 0] = 1.0
    tg = lam * (math.pi - xs)
    mat[m + 2, :m] = np.sinh(tg) / (2.0 * lam)
    mat[m + 2, m + 2] = decay
    mat[m + 2, m + 3] = 1.0
    mat[m + 3, :m] = np.sin(tg) / (2.0 * lam)
    mat[m + 3, m + 0] = math.cos(lam * math.pi)
    mat[m + 3, m + 1] = math.sin(lam * math.pi)
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

    def test_size_and_unit_delta_diagonal(self):
        problem = BeamProblem(positions=(0.9, 2.0), flexibilities=(0.4, 0.8))
        system = assemble_system(problem, 1.7)
        assert system.shape == (6, 6)
        assert len(system) - 4 == 2
        assert system[0, 0] == 1.0
        assert system[1, 1] == 1.0
        # later cracks never influence earlier crack rows
        assert system[0, 1] == 0.0

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

    def test_hinged_reduction_kills_cos_and_cosh(self, one_crack_spectrum):
        for pair in one_crack_spectrum.pairs:
            form = pair.shifrin
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


class TestShifrinForm:
    def test_fourth_derivative_identity(self, one_crack_spectrum):
        # Every term of the representation solves u'''' = lam^4 u piecewise.
        pair = one_crack_spectrum.pairs[2]
        form = pair.shifrin
        xs = np.linspace(0.05, math.pi - 0.05, 41)
        assert np.allclose(form.eval(xs, 4), form.lam**4 * form.eval(xs, 0), rtol=1e-12, atol=1e-12)

    def test_slope_jump_equals_delta(self, two_crack_spectrum):
        for pair in two_crack_spectrum.pairs[:4]:
            form = pair.shifrin
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
            bp = one_crack_problem.breakpoints
            for lo, hi in zip(bp[:-1], bp[1:]):
                xs = np.linspace(lo + 1e-9, hi - 1e-9, 23)
                assert np.max(np.abs(pair.shifrin.eval(xs) - pair.eval(xs))) <= 1e-9

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
        from dataclasses import replace

        bumped = replace(form, deltas=form.deltas + 0.01)
        pair = build_eigenfunction(one_crack_problem, bumped)
        x1 = one_crack_problem.positions[0]
        jump = float(pair.eval(x1, 1, "R")) - float(pair.eval(x1, 1, "L"))
        law = jump - one_crack_problem.flexibilities[0] * float(pair.eval(x1, 2, "R"))
        assert abs(law) > 1e-4


def _looped_eigenfunction(problem, form):
    """Unnormalized coefficients from per-point one-sided states, the array build's reference."""
    lam = form.lam
    rows = []
    for left in problem.breakpoints[:-1]:
        s0, s1, s2, s3 = (float(form.eval(left, order, "R")) for order in range(4))
        rows.append(
            [
                0.5 * s1 / lam - 0.5 * s3 / lam**3,
                0.5 * s0 - 0.5 * s2 / lam**2,
                0.5 * s1 / lam + 0.5 * s3 / lam**3,
                0.5 * s0 + 0.5 * s2 / lam**2,
            ]
        )
    return PiecewiseForm(lam=lam, breakpoints=problem.breakpoints, coefficients=rows).coefficients


class TestBuildEigenfunction:
    @pytest.mark.parametrize(
        "name", ["uniform_problem", "one_crack_problem", "two_crack_problem", "thirty_crack_problem"]
    )
    def test_array_build_matches_pointwise_states(self, name, request):
        problem = request.getfixturevalue(name)
        for lam in find_eigenvalues(problem, 4):
            form = solve_nullspace(problem, lam)
            built = build_eigenfunction(problem, form).piecewise.coefficients
            looped = _looped_eigenfunction(problem, form)
            assert built.shape == (problem.m + 1, 4)
            assert np.array_equal(built, looped)
