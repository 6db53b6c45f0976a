"""Inner products, bilinear forms, residual suite, and basis diagnostics."""

from __future__ import annotations

import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from crackedbeam import (
    BeamProblem,
    FunctionOnPartition,
    QuadratureRule,
    Superposition,
    ValidationError,
    a_form,
    coercivity_probe,
    compute_spectrum,
    gram_matrix,
    h_inner,
    jump_basis,
    load_problem_file,
    residual_report,
    solve_nullspace,
    v_inner,
)
from crackedbeam import cli, spectral, transition
from crackedbeam.quadrature import MAX_PHASE_PER_PANEL, ORDER


def sine(k: int) -> FunctionOnPartition:
    return FunctionOnPartition(
        lambda x, k=k: np.sin(k * x),
        lambda x, k=k: k * np.cos(k * x),
        lambda x, k=k: -(k**2) * np.sin(k * x),
    )


@pytest.fixture(scope="module")
def uniform_rule() -> QuadratureRule:
    return QuadratureRule.for_problem(BeamProblem(), lam=6.0)


class TestInnerProducts:
    def test_sine_norm(self, uniform_rule):
        assert h_inner(sine(1), sine(1), uniform_rule) == pytest.approx(math.pi / 2, abs=1e-12)

    def test_sine_orthogonality(self, uniform_rule):
        assert h_inner(sine(1), sine(2), uniform_rule) == pytest.approx(0.0, abs=1e-12)

    def test_normalized_modes_have_unit_norm(self, one_crack_problem, one_crack_spectrum):
        rule = QuadratureRule.for_problem(
            one_crack_problem, lam=one_crack_spectrum.lambdas[-1]
        )
        for pair in one_crack_spectrum.pairs:
            assert h_inner(pair, pair, rule) == pytest.approx(1.0, abs=1e-10)

    def test_v_inner_of_sine(self, uniform_rule):
        assert v_inner(sine(1), sine(1), BeamProblem(), uniform_rule) == pytest.approx(
            math.pi / 2, abs=1e-12
        )

    def test_v_inner_counts_unit_jumps(self, two_crack_problem):
        rule = QuadratureRule.for_problem(two_crack_problem, lam=1.0)
        u = Superposition(
            [(1.0, jump_basis(two_crack_problem, 1)), (1.0, jump_basis(two_crack_problem, 2))]
        )
        # Second derivatives vanish, so only the two unit slope jumps count.
        assert v_inner(u, u, two_crack_problem, rule) == pytest.approx(2.0, abs=1e-12)

    def test_nonzero_hat_has_positive_v_norm(self, one_crack_problem):
        rule = QuadratureRule.for_problem(one_crack_problem, lam=1.0)
        u = jump_basis(one_crack_problem, 1)
        assert v_inner(u, u, one_crack_problem, rule) > 0.5


class TestBilinearForm:
    def test_uniform_sine_energy(self, uniform_rule):
        for k in (1, 2, 3):
            got = a_form(sine(k), sine(k), BeamProblem(), uniform_rule)
            assert got == pytest.approx(k**4 * math.pi / 2, rel=1e-12)

    def test_rejects_nonpositive_theta(self, uniform_rule):
        broken = BeamProblem.__new__(BeamProblem)
        object.__setattr__(broken, "positions", (1.0,))
        object.__setattr__(broken, "flexibilities", (0.0,))
        with pytest.raises(ValidationError):
            a_form(sine(1), sine(1), broken, uniform_rule)

    def test_symmetry_on_random_pairs(self, one_crack_problem):
        rule = QuadratureRule.for_problem(one_crack_problem, lam=4.0)
        rng = np.random.default_rng(42)
        family = [sine(k) for k in range(1, 5)] + [jump_basis(one_crack_problem, 1)]
        for _ in range(10):
            cu = rng.standard_normal(len(family))
            cv = rng.standard_normal(len(family))
            u = Superposition(list(zip(cu, family)))
            v = Superposition(list(zip(cv, family)))
            left = a_form(u, v, one_crack_problem, rule)
            right = a_form(v, u, one_crack_problem, rule)
            assert left == pytest.approx(right, rel=1e-13, abs=1e-13)

    def test_eigen_identity_and_orthogonality(self, two_crack_problem, two_crack_spectrum):
        rule = QuadratureRule.for_problem(two_crack_problem, lam=two_crack_spectrum.lambdas[-1])
        pairs = two_crack_spectrum.pairs[:4]
        for k, pk in enumerate(pairs):
            diag = a_form(pk, pk, two_crack_problem, rule)
            assert diag == pytest.approx(pk.lam**4, rel=1e-5)
            for pj in pairs[k + 1 :]:
                off = a_form(pk, pj, two_crack_problem, rule)
                assert abs(off) <= 1e-6 * max(pk.lam**4, pj.lam**4)

    def test_rayleigh_quotient(self, one_crack_problem, one_crack_spectrum):
        rule = QuadratureRule.for_problem(one_crack_problem, lam=one_crack_spectrum.lambdas[-1])
        for pair in one_crack_spectrum.pairs:
            quotient = a_form(pair, pair, one_crack_problem, rule) / h_inner(pair, pair, rule)
            assert quotient == pytest.approx(pair.lam**4, rel=1e-5)


class TestCoercivity:
    def test_unit_flexibility_forms_coincide(self):
        problem = BeamProblem(positions=(1.2,), flexibilities=(1.0,))
        rule = QuadratureRule.for_problem(problem, lam=3.0)
        u = Superposition([(1.0, sine(1)), (0.7, jump_basis(problem, 1))])
        assert coercivity_probe(u, problem, rule) == pytest.approx(1.0, abs=1e-12)

    def test_jump_dominated_function_hits_weighted_bound(self):
        problem = BeamProblem(positions=(1.2,), flexibilities=(2.0,))
        rule = QuadratureRule.for_problem(problem, lam=3.0)
        pure_jump = jump_basis(problem, 1)
        ratio = coercivity_probe(pure_jump, problem, rule)
        assert 0.5 - 1e-12 <= ratio <= 1.0 + 1e-12
        assert ratio == pytest.approx(0.5, abs=1e-12)

    def test_bound_holds_on_function_family(self, two_crack_problem):
        rule = QuadratureRule.for_problem(two_crack_problem, lam=5.0)
        rng = np.random.default_rng(2024)
        family = [sine(k) for k in range(1, 6)] + [
            jump_basis(two_crack_problem, 1),
            jump_basis(two_crack_problem, 2),
        ]
        bound = min(1.0, 1.0 / max(two_crack_problem.flexibilities))
        for _ in range(10):
            coeffs = rng.standard_normal(len(family))
            u = Superposition(list(zip(coeffs, family)))
            assert coercivity_probe(u, two_crack_problem, rule) >= bound - 1e-9


def worst_condition(report) -> float:
    """Largest residual across all boundary and junction families."""
    return max(v for key, v in report.worst().items() if key != "ode_residual")


class TestResidualReport:
    def test_uniform_mode_is_clean(self, uniform_spectrum, uniform_problem):
        report = residual_report(uniform_spectrum.pairs[2], uniform_problem)
        assert worst_condition(report) <= 1e-12
        assert report.ode_residual <= 1e-12 * report.lam**4

    def test_node_crack_mode_is_clean(self, node_crack_problem):
        spectrum = compute_spectrum(node_crack_problem, 2)
        report = residual_report(spectrum.pairs[1], node_crack_problem)
        assert worst_condition(report) <= 1e-10

    def test_generic_modes_within_scaled_tolerance(self, two_crack_spectrum, two_crack_problem):
        for pair in two_crack_spectrum.pairs:
            report = residual_report(pair, two_crack_problem)
            assert worst_condition(report) <= 1e-8 * report.scale
            assert report.ode_residual <= 1e-7 * pair.lam**4

    def test_json_field_names_stable(self, one_crack_spectrum, one_crack_problem):
        report = residual_report(one_crack_spectrum.pairs[0], one_crack_problem)
        doc = report.to_json_dict()
        assert set(doc) == {
            "bc_left",
            "bc_right",
            "moment_left",
            "moment_right",
            "jump_disp",
            "jump_moment",
            "jump_shear",
            "crack_law",
            "ode_residual",
        }
        assert len(doc["crack_law"]) == one_crack_problem.m

    def test_fourth_derivative_against_finite_differences(self, one_crack_spectrum):
        # Independent check of the analytic evaluation chain: a 5-point
        # stencil for phi'''' must reproduce lam^4 phi away from the crack.
        pair = one_crack_spectrum.pairs[1]
        h = 0.01
        for x in (0.5, 2.0, 2.6):
            stencil = (
                pair.eval(x - 2 * h)
                - 4.0 * pair.eval(x - h)
                + 6.0 * pair.eval(x)
                - 4.0 * pair.eval(x + h)
                + pair.eval(x + 2 * h)
            ) / h**4
            assert abs(stencil - pair.lam**4 * pair.eval(x)) <= 1e-4 * pair.lam**4


class TestGramMatrix:
    def test_uniform_first_five(self, uniform_spectrum):
        rule = QuadratureRule.for_problem(BeamProblem(), lam=uniform_spectrum.lambdas[-1])
        gram = gram_matrix(uniform_spectrum.pairs, rule)
        assert np.max(np.abs(gram - np.eye(5))) <= 1e-12

    def test_one_crack_first_eight(self, one_crack_problem, one_crack_spectrum):
        rule = QuadratureRule.for_problem(one_crack_problem, lam=one_crack_spectrum.lambdas[-1])
        gram = gram_matrix(one_crack_spectrum.pairs, rule)
        assert np.max(np.abs(gram - np.eye(8))) <= 1e-6

    def test_single_mode(self, uniform_spectrum):
        rule = QuadratureRule.for_problem(BeamProblem(), lam=2.0)
        gram = gram_matrix(uniform_spectrum.pairs[:1], rule)
        assert gram.shape == (1, 1)
        assert gram[0, 0] == pytest.approx(1.0, abs=1e-10)


class TestNormEquivalence:
    def test_probe_family_ratios_bounded(self, two_crack_problem):
        # The three norms |u''| + jumps (V), |u|+|u'|+|u''| (N1) and
        # |u'|+|u''| (N2) stay within a common constant on a test family.
        rule = QuadratureRule.for_problem(two_crack_problem, lam=5.0)
        nodes = rule.nodes
        family = [sine(k) for k in range(1, 6)] + [
            jump_basis(two_crack_problem, 1),
            jump_basis(two_crack_problem, 2),
        ]
        rng = np.random.default_rng(11)
        for k in range(3):
            family.append(Superposition(list(zip(rng.standard_normal(7), family[:7]))))
        worst = 1.0
        for u in family:
            sq = [
                float(rule.integrate(np.asarray(u.eval(nodes, order=o)) ** 2)) for o in range(3)
            ]
            norm_v = math.sqrt(v_inner(u, u, two_crack_problem, rule))
            n1 = math.sqrt(sq[0] + sq[1] + sq[2])
            n2 = math.sqrt(sq[1] + sq[2])
            for a, b in ((norm_v, n1), (norm_v, n2), (n1, n2)):
                worst = max(worst, a / b, b / a)
        print(f"norm-equivalence probe: observed constant C = {worst:.3f}")
        assert worst < 50.0

    def test_slope_embedding_bound(self, one_crack_problem, one_crack_spectrum):
        rule = QuadratureRule.for_problem(one_crack_problem, lam=one_crack_spectrum.lambdas[-1])
        xs = np.linspace(0.0, math.pi, 400)
        for pair in one_crack_spectrum.pairs:
            slope_max = np.max(np.abs(pair.eval(xs, 1)))
            norm_v = math.sqrt(v_inner(pair, pair, one_crack_problem, rule))
            assert slope_max <= norm_v


class TestCompleteness:
    @pytest.mark.parametrize("m", [0, 1, 2], ids=["uniform", "one_crack", "two_crack"])
    def test_projection_residual_shrinks(self, m, uniform_problem, one_crack_problem, two_crack_problem):
        problem = {0: uniform_problem, 1: one_crack_problem, 2: two_crack_problem}[m]
        spectrum = compute_spectrum(problem, 12)
        rule = QuadratureRule.for_problem(problem, lam=spectrum.lambdas[-1])
        f = FunctionOnPartition(lambda x: x * (math.pi - x))
        f_norm_sq = h_inner(f, f, rule)
        residual_sq = f_norm_sq
        history = []
        for pair in spectrum.pairs:
            residual_sq -= h_inner(f, pair, rule) ** 2
            history.append(residual_sq)
        assert all(b <= a + 1e-12 for a, b in zip(history, history[1:]))
        assert math.sqrt(max(history[-1], 0.0) / f_norm_sq) < 0.02


class TestVerify:
    def test_keys_are_the_cli_checks_in_order(self, one_crack_problem, one_crack_spectrum):
        oracle = transition.oracle_eigenpairs(one_crack_problem, 8)
        worst = spectral.verify(one_crack_spectrum, oracle)
        assert list(worst) == list(cli.THRESHOLDS)

    def test_own_oracle_has_no_gap(self, one_crack_spectrum):
        worst = spectral.verify(one_crack_spectrum, one_crack_spectrum)
        assert worst["cross_solver_lambda"] == 0.0
        assert worst["cross_solver_modes"] == 0.0

    def test_sign_flipped_oracle_doubles_the_mode(self, one_crack_spectrum):
        flipped = replace(one_crack_spectrum, coefficients=-one_crack_spectrum.coefficients)
        gaps = spectral.cross_solver_gaps(one_crack_spectrum, flipped)
        grid = np.linspace(0.0, math.pi, spectral.CROSS_GRID_POINTS)
        peak = max(float(np.max(np.abs(p.eval(grid)))) for p in one_crack_spectrum.pairs)
        assert gaps == {"cross_solver_lambda": 0.0, "cross_solver_modes": 2.0 * peak}


# Loop references: the scalar certificate these array versions replaced,
# kept to hold them to the same bits.
FIXTURE_FILES = sorted((Path(__file__).resolve().parents[1] / "fixtures").glob("*.json"))


def _jump(f, x: float, order: int) -> float:
    return float(f.eval(x, order, "R")) - float(f.eval(x, order, "L"))


def _looped_v_inner(u, v, problem, rule) -> float:
    acc = rule.integrate(
        np.asarray(u.eval(rule.nodes, order=2)) * np.asarray(v.eval(rule.nodes, order=2))
    )
    for x in problem.positions:
        acc += _jump(u, x, 1) * _jump(v, x, 1)
    return float(acc)


def _looped_a_form(u, v, problem, rule) -> float:
    acc = rule.integrate(
        np.asarray(u.eval(rule.nodes, order=2)) * np.asarray(v.eval(rule.nodes, order=2))
    )
    for x, theta in zip(problem.positions, problem.flexibilities):
        acc += _jump(u, x, 1) * _jump(v, x, 1) / theta
    return float(acc)


def _looped_report(pair, problem, samples=spectral.ODE_SAMPLES_PER_INTERVAL):
    lam = pair.lam
    jump_disp, jump_moment, jump_shear, crack_law = [], [], [], []
    for x, theta in zip(problem.positions, problem.flexibilities):
        jump_disp.append(abs(_jump(pair, x, 0)))
        jump_moment.append(abs(_jump(pair, x, 2)))
        jump_shear.append(abs(_jump(pair, x, 3)))
        crack_law.append(abs(_jump(pair, x, 1) - theta * float(pair.eval(x, 2, "R"))))

    bp = problem.breakpoints
    ode = 0.0
    sup_d2 = 0.0
    for left, right in zip(bp, bp[1:]):
        inner = np.linspace(left, right, samples + 2)[1:-1]
        phi = np.asarray(pair.eval(inner))
        phi4 = np.asarray(pair.eval(inner, order=4))
        ode = max(ode, float(np.max(np.abs(phi4 - lam**4 * phi))))
        sup_d2 = max(sup_d2, float(np.max(np.abs(pair.eval(inner, order=2)))))
    for x in bp:
        for side in ("R", "L"):
            sup_d2 = max(sup_d2, abs(float(pair.eval(x, 2, side))))

    return spectral.ResidualReport(
        bc_left=abs(float(pair.eval(0.0, 0, "R"))),
        bc_right=abs(float(pair.eval(bp[-1], 0, "L"))),
        moment_left=abs(float(pair.eval(0.0, 2, "R"))),
        moment_right=abs(float(pair.eval(bp[-1], 2, "L"))),
        jump_disp=tuple(jump_disp),
        jump_moment=tuple(jump_moment),
        jump_shear=tuple(jump_shear),
        crack_law=tuple(crack_law),
        ode_residual=ode,
        scale=max(1.0, sup_d2),
        lam=lam,
    )


def _assert_reports_match_loop(problem, spectrum, jump_forms=False):
    # Both mode forms: the piecewise form every solver returns and, with ``jump_forms``, the
    # jump-amplitude solver's own form at each root.
    forms = list(spectrum.pairs)
    if jump_forms:
        forms += [solve_nullspace(problem, pair.lam) for pair in spectrum.pairs]
    for form in forms:
        got, want = residual_report(form, problem), _looped_report(form, problem)
        assert got.to_json_dict() == want.to_json_dict()
        assert (got.scale, got.lam) == (want.scale, want.lam)
        assert all(type(v) is float for v in got.worst().values())


class _CountingMode:
    """A mode that counts its evaluations."""

    def __init__(self, pair):
        self.pair, self.lam, self.calls = pair, pair.lam, 0

    def eval(self, x, order=0, side="R"):
        self.calls += 1
        return self.pair.eval(x, order, side)


def _looped_rule(problem, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights panel by panel, the array rule's reference."""
    ref_x, ref_w = np.polynomial.legendre.leggauss(ORDER)
    xs, ws = [], []
    bp = problem.breakpoints
    for left, right in zip(bp, bp[1:]):
        n_panels = max(1, math.ceil(abs(lam) * (right - left) / MAX_PHASE_PER_PANEL))
        edges = np.linspace(left, right, n_panels + 1)
        for a, b in zip(edges, edges[1:]):
            half = 0.5 * (b - a)
            xs.append(half * ref_x + 0.5 * (a + b))
            ws.append(half * ref_w)
    return np.concatenate(xs), np.concatenate(ws)


class TestQuadratureRule:
    @pytest.mark.parametrize("lam", [0.5, 5.0, 40.0])
    @pytest.mark.parametrize("name", ["uniform_problem", "thirty_crack_problem"])
    def test_nodes_and_weights_equal_the_panel_loop(self, name, lam, request):
        problem = request.getfixturevalue(name)
        rule = QuadratureRule.for_problem(problem, lam)
        nodes, weights = _looped_rule(problem, lam)
        assert rule.nodes.tobytes() == nodes.tobytes()
        assert rule.weights.tobytes() == weights.tobytes()


class TestLoopReference:
    @pytest.mark.parametrize("count", [5, 20])
    @pytest.mark.parametrize("path", FIXTURE_FILES, ids=lambda p: p.stem)
    def test_fixture_reports_equal_the_loop(self, path, count):
        problem, _, _ = load_problem_file(str(path))
        _assert_reports_match_loop(problem, compute_spectrum(problem, count), jump_forms=True)
        _assert_reports_match_loop(problem, transition.oracle_eigenpairs(problem, count))

    def test_thirty_crack_reports_equal_the_loop(self, thirty_crack_problem):
        problem = thirty_crack_problem
        _assert_reports_match_loop(problem, compute_spectrum(problem, 5), jump_forms=True)
        _assert_reports_match_loop(problem, transition.oracle_eigenpairs(problem, 5))

    @pytest.mark.parametrize("name", ["two_crack_problem", "thirty_crack_problem"])
    def test_energy_forms_equal_the_loop(self, name, request):
        problem = request.getfixturevalue(name)
        rule = QuadratureRule.for_problem(problem, lam=5.0)
        family = [sine(k) for k in range(1, 6)]
        family += [jump_basis(problem, i) for i in range(1, problem.m + 1)]
        rng = np.random.default_rng(7)
        for _ in range(5):
            u = Superposition(list(zip(rng.standard_normal(len(family)), family)))
            v = Superposition(list(zip(rng.standard_normal(len(family)), family)))
            for w in (u, v, family[0], family[-1]):
                assert v_inner(u, w, problem, rule) == _looped_v_inner(u, w, problem, rule)
                assert a_form(u, w, problem, rule) == _looped_a_form(u, w, problem, rule)

    @pytest.mark.parametrize("name", ["one_crack_problem", "thirty_crack_problem"])
    def test_eleven_evaluations_whatever_the_crack_count(self, name, request):
        problem = request.getfixturevalue(name)
        mode = _CountingMode(compute_spectrum(problem, 1).pairs[0])
        residual_report(mode, problem)
        assert mode.calls == 11
