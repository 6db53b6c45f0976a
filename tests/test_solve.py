"""The solve pipeline both solvers share: a raw mode's scale and sign do not matter."""

from __future__ import annotations

import math
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from crackedbeam import (
    BeamProblem,
    Eigenpair,
    FunctionOnPartition,
    PiecewiseForm,
    QuadratureRule,
    ShifrinForm,
    cli,
    coercivity_probe,
    gram_matrix,
    h_inner,
    modes,
    normalize_eigenpair,
    rootfind,
    shifrin,
    spectral,
    transition,
)
from crackedbeam.beam_model import load_problem_file
from test_rootfind import _near_hinge_layouts

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"

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


def _oracle_mode(problem, lam):
    rows = transition._modes_from_roots(problem, np.array([lam]))
    return Eigenpair(lam, PiecewiseForm(lam, problem.breakpoints, rows[0]))


# Per solver: its roots and its raw mode at one root, through the per-root API.
PER_ROOT = {
    "shifrin": (
        shifrin.find_eigenvalues,
        lambda p, lam: shifrin.build_eigenfunction(p, shifrin.solve_nullspace(p, lam)),
    ),
    "transition": (transition.find_eigenvalues, _oracle_mode),
}
PROBLEMS = ["uniform_problem", "one_crack_problem", "two_crack_problem", "thirty_crack_problem"]
COUNT = 6
# Modes of these decay away from a crack by mode 10, where sinh/cosh storage lost the norm.
TEN_MODE_PROBLEMS = ["one_crack_problem", "stiff_end_crack_problem"]


def _spectra(problem, solver, factor, count=COUNT):
    """The solver's spectrum, and the one solved from its raw modes times ``factor``."""
    spectrum, det, recover = SOLVERS[solver]
    roots = shifrin.first_roots(det, problem, count)
    rescaled = modes.solve(problem, lambda p, lams: recover(p, lams) * factor, roots)
    return spectrum(problem, count), rescaled


def _bytes(pair) -> bytes:
    """Every stored float of a pair: its wavenumber and piecewise coefficients."""
    return np.float64(pair.lam).tobytes() + pair.piecewise.coefficients.tobytes()


@pytest.mark.parametrize("solver", SOLVERS)
@pytest.mark.parametrize("name", PROBLEMS)
def test_recover_returns_one_coefficient_stack(request, name, solver):
    problem = request.getfixturevalue(name)
    _, det, recover = SOLVERS[solver]
    roots = np.array(shifrin.first_roots(det, problem, COUNT))
    assert recover(problem, roots).shape == (COUNT, problem.m + 1, 4)


@pytest.mark.parametrize("count", [1, COUNT])
@pytest.mark.parametrize("solver", SOLVERS)
@pytest.mark.parametrize("name", PROBLEMS)
def test_batched_modes_equal_the_per_root_path_bit_for_bit(request, name, solver, count):
    problem = request.getfixturevalue(name)
    find, mode = PER_ROOT[solver]
    roots = find(problem, count)
    per_root = [normalize_eigenpair(mode(problem, lam)) for lam in roots]
    batched = SOLVERS[solver][0](problem, count).pairs
    assert [_bytes(p) for p in batched] == [_bytes(p) for p in per_root]


@pytest.fixture
def rule_lams(monkeypatch) -> list:
    """The wavenumber of every quadrature rule built while the test runs."""
    original, lams = QuadratureRule.for_problem.__func__, []

    def counted(cls, problem, lam):
        lams.append(lam)
        return original(cls, problem, lam)

    monkeypatch.setattr(QuadratureRule, "for_problem", classmethod(counted))
    return lams


@pytest.mark.parametrize("solver", SOLVERS)
@pytest.mark.parametrize(
    "name, count", [*((name, COUNT) for name in PROBLEMS), ("one_crack_problem", 340)]
)
def test_a_solve_builds_no_quadrature_rule(request, rule_lams, name, solver, count):
    # Normalization integrates each (mode, interval) cell on its own: no rule over the beam.
    spectrum = SOLVERS[solver][0](request.getfixturevalue(name), count)
    assert len(spectrum.lambdas) == count
    assert rule_lams == []


@pytest.mark.parametrize("name", PROBLEMS)
def test_verify_builds_one_rule_at_the_top_root(request, rule_lams, name):
    problem = request.getfixturevalue(name)
    jump, oracle = (SOLVERS[solver][0](problem, COUNT) for solver in SOLVERS)
    spectral.verify(jump, oracle)
    assert rule_lams == [jump.lambdas.max()]


@pytest.mark.parametrize("name, code", [("two_crack", 0), ("fault_injected", 4)])
def test_validate_builds_one_quadrature_rule(rule_lams, capsys, name, code):
    # The fault injection renormalizes its mode without a rule; the checks build the one.
    assert cli.main(["validate", str(FIXTURES / f"{name}.json"), "--modes", "5"]) == code
    capsys.readouterr()
    assert len(rule_lams) == 1


@pytest.mark.parametrize("solver", SOLVERS)
@pytest.mark.parametrize("name", PROBLEMS)
def test_sign_flip_of_raw_modes_is_undone_exactly(request, name, solver):
    plain, flipped = _spectra(request.getfixturevalue(name), solver, -1.0)
    assert np.array_equal(plain.lambdas, flipped.lambdas)
    for a, b in zip(plain.pairs, flipped.pairs):
        assert np.array_equal(a.piecewise.coefficients, b.piecewise.coefficients)


@pytest.fixture(scope="module")
def stiff_end_crack_problem() -> BeamProblem:
    # Its modes decay away from the stiff crack next to the left support.
    return BeamProblem(positions=(0.015625, 3.0), flexibilities=(10.0, 1.0))


@pytest.mark.parametrize("solver", SOLVERS)
@pytest.mark.parametrize(
    "name, count",
    [*((name, COUNT) for name in PROBLEMS), *((name, 10) for name in TEN_MODE_PROBLEMS)],
)
def test_rescaled_raw_modes_normalize_to_the_same_mode(request, name, count, solver):
    # Every stored basis function is at most 1 on its interval, so the norm
    # sums no values that cancel.  Sinh/cosh storage did, and at 10 modes a raw mode
    # scaled by 3 moved the normalized one by up to 7e-7 of its largest coefficient.
    plain, tripled = _spectra(request.getfixturevalue(name), solver, 3.0, count)
    for a, b in zip(plain.pairs, tripled.pairs):
        top = np.max(np.abs(a.piecewise.coefficients))
        assert np.max(np.abs(a.piecewise.coefficients - b.piecewise.coefficients)) <= 1e-14 * top


@pytest.mark.parametrize("count", [5, 10, 20, 40])
@pytest.mark.parametrize("name", ["one_crack", "two_crack", "node_crack", "steel_beam", "uniform"])
def test_stored_modes_keep_unit_norm_at_high_modes(name, count):
    # The quadrature norm of a stored mode is good to rounding at any wavenumber; with
    # sinh/cosh storage it was off by 4e-10 at 10 modes and 1e8 at 40 on one_crack.
    problem = load_problem_file(FIXTURES / f"{name}.json")[0]
    spectrum = shifrin.compute_spectrum(problem, count)
    oracle = transition.oracle_eigenpairs(problem, count)
    for pairs, other in ((spectrum, oracle), (oracle, spectrum)):
        assert spectral.verify(pairs, other)["h_normalization"] <= 1e-12


@pytest.mark.parametrize("solver", SOLVERS)
def test_modes_have_unit_norm_and_positive_left_slope(solver, two_crack_problem):
    spectrum = SOLVERS[solver][0](two_crack_problem, COUNT)
    for pair in spectrum.pairs:
        rule = QuadratureRule.for_problem(two_crack_problem, lam=pair.lam)
        assert h_inner(pair, pair, rule) == pytest.approx(1.0, abs=1e-12)
        assert float(pair.eval(0.0, 1, "R")) > 0.0


def _mp_square(lam: float, breakpoints, rows) -> float:
    """Integral over [0, pi] of phi**2 for the stored (m+1, 4) coefficients ``rows``, in mpmath:
    on each interval phi is a sum of four complex exponentials, whose pairwise products
    integrate exactly, at 40 digits."""
    with mp.workdps(40):
        lam, total = mp.mpf(lam), mp.mpf(0)
        for a, b, co in zip(breakpoints[:-1], breakpoints[1:], rows.tolist()):
            h = mp.mpf(b) - mp.mpf(a)
            A, B, P, Q = map(mp.mpf, co)
            terms = [((A - 1j * B) / 2, 1j * lam), ((A + 1j * B) / 2, -1j * lam),
                     (P, -lam), (Q * mp.exp(-lam * h), lam)]
            for c1, k1 in terms:
                for c2, k2 in terms:
                    k = k1 + k2
                    total += c1 * c2 * (h if k == 0 else mp.expm1(k * h) / k)
        return float(mp.re(total))


# Three cracks next to hinges, with three mechanism roots below 0.03 (the CI layout).
_HINGE = BeamProblem((0.5, 1.6, 2.9), (1e8,) * 3)


class TestCellNorms:
    """The cell-by-cell norm against mpmath integrals of the same stored coefficients.  At the
    mechanism roots of near-hinge layouts the basis degenerates: the closed form on every cell
    reads 4.7e-11 there, and one Gauss panel on the short cells keeps the norm to rounding."""

    @pytest.mark.parametrize("solver", SOLVERS)
    def test_near_hinge_modes_have_unit_norm_in_mpmath(self, solver):
        problems = [_HINGE, *(problem for _, problem in _near_hinge_layouts(10))]
        for problem in problems:
            spectrum = SOLVERS[solver][0](problem, problem.m + 3)
            for lam, rows in zip(spectrum.lambdas.tolist(), spectrum.coefficients):
                assert abs(_mp_square(lam, problem.breakpoints, rows) - 1.0) <= 1e-13, problem

    def test_closed_form_alone_misses_the_bound_at_mechanism_roots(self, monkeypatch):
        # What the panel is for: with no short cells the near-hinge layout leaves rounding.
        monkeypatch.setattr(modes.quadrature, "MAX_PHASE_PER_PANEL", 0.0)
        spectrum = shifrin.compute_spectrum(_HINGE, 3)
        errors = [abs(_mp_square(lam, _HINGE.breakpoints, rows) - 1.0)
                  for lam, rows in zip(spectrum.lambdas.tolist(), spectrum.coefficients)]
        assert max(errors) > 1e-12

    def test_random_cells_match_mpmath(self):
        rng = np.random.default_rng(11)
        lams, hs = 10.0 ** rng.uniform(-3.0, 3.0, 300), 10.0 ** rng.uniform(-6.0, math.log10(math.pi), 300)
        rows = rng.standard_normal((300, 1, 4))
        cells = modes._cells(lams[:, None], hs[:, None], rows)[:, 0]
        for lam, h, co, got in zip(lams.tolist(), hs.tolist(), rows, cells.tolist()):
            want = _mp_square(lam, (0.0, h), co)
            assert abs(got - want) <= 1e-13 * want, (lam, h)


_UNIFORM = BeamProblem()
_RULE = QuadratureRule.for_problem(_UNIFORM, 1.0)
_ZERO = FunctionOnPartition(np.zeros_like, np.zeros_like, np.zeros_like)
_INPUT_CHECKS = {
    "piecewise_shape": (lambda: PiecewiseForm(1.0, (0.0, math.pi), [[1.0, 2.0, 3.0]]), "1x4"),
    "shifrin_coefficients": (
        lambda: ShifrinForm(1.0, deltas=[], coefficients=[1.0, 2.0, 3.0], positions=()),
        "four values",
    ),
    "shifrin_deltas": (
        lambda: ShifrinForm(1.0, deltas=[1.0], coefficients=[0.0] * 4, positions=()),
        "0 cracks need as many jump amplitudes",
    ),
    "shifrin_order": (
        lambda: ShifrinForm(1.0, deltas=[], coefficients=[1.0] * 4, positions=()).eval(1.0, 5),
        "order 5 not in 0..4",
    ),
    "negative_count": (
        lambda: rootfind.find_roots(np.sin, rootfind.isolate(-1, 5.0, np.floor)),
        "count must be at least 1",
    ),
    "zero_count": (
        lambda: rootfind.find_roots(np.sin, rootfind.isolate(0, 5.0, np.floor)),
        "count must be at least 1",
    ),
    "no_modes": (
        lambda: shifrin.first_roots(shifrin.char_det, _UNIFORM, 0), "count must be at least 1"
    ),
    "zero_mode": (
        lambda: normalize_eigenpair(Eigenpair(1.0, PiecewiseForm(1.0, (0.0, math.pi), [[0.0] * 4]))),
        "cannot normalize the zero function",
    ),
    "no_callables": (lambda: FunctionOnPartition(), "order-0 callable"),
    "missing_order": (lambda: FunctionOnPartition(np.sin).eval(1.0, 1), "derivative order 1"),
    "zero_probe": (lambda: coercivity_probe(_ZERO, _UNIFORM, _RULE), "nonzero test function"),
    "empty_gram": (lambda: gram_matrix([], _RULE), "at least one mode"),
}


@pytest.mark.parametrize("case", _INPUT_CHECKS)
def test_input_check_raises_value_error_naming_its_fault(case):
    call, message = _INPUT_CHECKS[case]
    with pytest.raises(ValueError, match=message):
        call()


_ONE_CRACK = BeamProblem((1.0,), (0.3,))
# Each frozen type that holds arrays, built by the public call a user makes.
_ARRAY_HOLDERS = {
    "Spectrum": lambda: shifrin.compute_spectrum(_ONE_CRACK, 3),
    "Eigenpair": lambda: shifrin.compute_spectrum(_ONE_CRACK, 3).pairs[0],
    "PiecewiseForm": lambda: shifrin.compute_spectrum(_ONE_CRACK, 3).pairs[0].piecewise,
    "QuadratureRule": lambda: QuadratureRule.for_problem(_ONE_CRACK, 3.0),
    "ShifrinForm": lambda: shifrin.solve_nullspace(_ONE_CRACK, 1.5),
}


@pytest.mark.parametrize("kind", _ARRAY_HOLDERS)
def test_array_holders_compare_by_identity_and_hash(kind):
    # Field-wise equality would compare arrays, whose truth value numpy refuses to give.
    a, b = _ARRAY_HOLDERS[kind](), _ARRAY_HOLDERS[kind]()
    assert type(a).__name__ == kind
    assert a == a and a != b
    assert len({a, b}) == 2 and a in {a}


def test_readme_quick_start_runs(capsys):
    # The README's library example, run as written, so a changed signature cannot leave it stale.
    readme = FIXTURES.parent / "README.md"
    section = readme.read_text(encoding="utf-8").split("## Library quick start", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, str(readme), "exec"), {})
    assert "h_normalization" in capsys.readouterr().out
