"""Root isolation by the count, and lockstep refinement of the isolating brackets."""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from crackedbeam import (
    BeamProblem,
    ValidationError,
    assemble_system,
    boundary_det,
    char_det,
    compute_spectrum,
    find_eigenvalues,
    kernel_M,
    load_problem_file,
    oracle_eigenpairs,
    rootfind,
    shifrin,
    solve_nullspace,
    transition,
    transition_matrix,
)
from crackedbeam.rootfind import RootCountError, bisect, find_roots, isolate

ROOT = Path(__file__).resolve().parents[1]
# float.hex of every root of each fixture, by solver and mode count.
FIXTURE_ROOTS = json.loads(
    (ROOT / "tests" / "data" / "fixture_roots.json").read_text(encoding="utf-8")
)

# Every function that takes wavenumbers, at one wavenumber of a problem with a crack.
WAVENUMBER_ENTRY_POINTS = {
    "char_det": char_det,
    "boundary_det": boundary_det,
    "assemble_system": assemble_system,
    "solve_nullspace": solve_nullspace,
    "transition_matrix": lambda p, lam: transition_matrix(p, 1, lam),
    "kernel_M": lambda p, lam: kernel_M(p, 1, 0.5, lam),
    "root_count": shifrin.root_count,
}


class Counted:
    """Array function that records every batch of wavenumbers it is given."""

    def __init__(self, f):
        self.f = f
        self.batches: list[np.ndarray] = []

    def __call__(self, lams):
        self.batches.append(np.array(lams, dtype=float))
        return self.f(np.asarray(lams, dtype=float))


def _scalar_bisect(f, a, b, fa, fb):
    """Plain one-bracket bisection to adjacent doubles, the reference for the refinement: a
    zero counts with the non-positive side, and ends not of strictly opposite signs give NaN."""
    if not (fa < 0.0 < fb or fb < 0.0 < fa):
        return math.nan
    while True:
        mid = 0.5 * (a + b)
        if mid <= a or mid >= b:
            break
        fm = f(mid)
        if (fm > 0.0) == (fa > 0.0):
            a, fa = mid, fm
        else:
            b = mid
    return 0.5 * (a + b)


def _pointwise(h):
    """Array function applying the scalar function ``h`` point by point."""
    return lambda lams: np.array([h(x) for x in np.asarray(lams).tolist()])


def _assert_matches_scalar(h, a, b):
    """The lockstep refinement of ``h`` on the brackets [a_k, b_k] ends where bisection does.

    Both see the very same value at every point, so they can differ only where ``h`` changes
    sign more than once in a bracket.
    """
    lockstep = bisect(_pointwise(h), np.array(a), np.array(b))
    assert lockstep.tolist() == [_scalar_bisect(h, p, q, h(p), h(q)) for p, q in zip(a, b)]


def _polynomial(roots, double=()):
    """(f, counter): a polynomial with simple ``roots`` and ``double`` roots, and the exact
    number of its roots, double ones once, below each wavenumber."""
    every = np.array([*roots, *double])

    def f(lams):
        return np.prod(np.subtract.outer(lams, roots), axis=1) * np.prod(
            np.subtract.outer(lams, double) ** 2, axis=1
        )

    def counter(lams):
        return (np.asarray(lams)[:, None] > every).sum(axis=1).astype(float)

    return f, counter


class TestFindRoots:
    def test_count_at_half_integers_then_halving_isolates_close_roots(self):
        # Two roots share the unit window (0.5, 1.5] and lie 1e-9 apart; a third is alone.
        f, counter = _polynomial([0.8, 0.8 + 1e-9, 2.2])
        counted, det = Counted(counter), Counted(f)
        roots, diagnostics = find_roots(det, isolate(3, 4.0, counted))
        assert diagnostics == []
        assert roots == pytest.approx([0.8, 0.8 + 1e-9, 2.2], abs=1e-15)
        assert counted.batches[0].tolist() == [0.5, 1.5, 2.5, 3.5]
        # The shared window is halved, all its halves in one call each, about 30 times.
        assert all(batch.size == 1 for batch in counted.batches[1:])
        assert 25 <= len(counted.batches) <= 35
        # The determinant never sees 0 or a window end the count did not certify.
        assert min(batch.min() for batch in det.batches) > 0.5

    def test_window_at_zero_is_halved_until_its_root_has_a_positive_left_end(self):
        f, counter = _polynomial([1e-5, 0.3, 1.7])
        det = Counted(f)
        roots, _ = find_roots(det, isolate(3, 4.0, counter))
        assert roots == pytest.approx([1e-5, 0.3, 1.7], abs=1e-15)
        assert min(batch.min() for batch in det.batches) > 0.0

    def test_windows_are_halved_in_lockstep(self):
        f, counter = _polynomial([0.6, 0.7, 2.6, 2.7, 4.6, 4.7])
        counted = Counted(counter)
        roots, _ = find_roots(f, isolate(6, 7.0, counted))
        assert roots == pytest.approx([0.6, 0.7, 2.6, 2.7, 4.6, 4.7], abs=1e-15)
        # Each halving call splits the three shared windows together.
        assert [batch.size for batch in counted.batches[1:]] == [3] * (len(counted.batches) - 1)

    def test_halving_point_on_an_integer_is_nudged_off_it(self):
        # The window (1.5, 2.5] holds two roots and halves at 2; so does the ceiling 3.
        f, counter = _polynomial([2.0 - 1e-3, 2.0 + 1e-3, 2.9])
        counted = Counted(counter)
        roots, _ = find_roots(f, isolate(3, 3.0, counted))
        assert roots == pytest.approx([2.0 - 1e-3, 2.0 + 1e-3, 2.9], abs=1e-15)
        points = np.concatenate(counted.batches)
        assert not np.any(points == np.round(points))
        assert counted.batches[0].tolist()[-1] == pytest.approx(3.0, rel=1e-9)

    def test_stops_at_count(self):
        f, counter = _polynomial([0.505, 0.5051, 1.105])
        det, counted = Counted(f), Counted(counter)
        roots, _ = find_roots(det, isolate(1, 10.0, counted))
        assert roots == pytest.approx([0.505], abs=1e-15)
        # Counted to 1.5 only; the window past the first root is never halved or bisected.
        assert counted.batches[0].tolist() == [0.5, 1.5]
        assert max(batch.max() for batch in det.batches) < 0.5051

    def test_root_count_error_carries_found_roots(self):
        def counter(lams):
            return np.ceil(lams) - 1.0  # the roots 1, 2, 3, ... of sin(pi x) below lams

        with pytest.raises(RootCountError) as info:
            find_roots(lambda x: np.sin(math.pi * x), isolate(5, 3.2, counter))
        err = info.value
        assert err.requested == 5
        assert err.lam_max == 3.2
        assert np.allclose(err.found, [1.0, 2.0, 3.0], atol=1e-12)
        assert str(err).endswith("raise the scan ceiling")

    def test_default_ceiling_is_count_plus_one(self):
        def counter(lams, gap):
            return np.ceil(lams / gap) - 1.0  # the roots gap, 2 gap, ... of sin(pi x / gap)

        windows = isolate(3, None, lambda x: counter(x, 1.0))
        roots, _ = find_roots(lambda x: np.sin(math.pi * x), windows)
        assert np.allclose(roots, [1.0, 2.0, 3.0], atol=1e-12)
        # Roots 1.5 apart: the 5th lies past 5.5, where interlacing puts it, below the ceiling 6.
        with pytest.raises(RootCountError, match="lost roots") as info:
            windows = isolate(5, None, lambda x: counter(x, 1.5))
            find_roots(lambda x: np.sin(math.pi * x / 1.5), windows)
        assert info.value.lam_max == 6.0
        assert info.value.found == pytest.approx([1.5, 3.0, 4.5], abs=1e-12)

    def test_counted_root_without_a_sign_change_is_lost(self):
        # The double root at 1.2 is counted once, but the determinant keeps its sign about it.
        f, _ = _polynomial([0.3], double=[1.2])
        _, counter = _polynomial([0.3, 1.2])
        with pytest.raises(RootCountError) as info:
            find_roots(f, isolate(2, 3.0, counter))
        assert info.value.found == pytest.approx([0.3], abs=1e-15)
        assert "lost roots below the ceiling" in str(info.value)

    def test_determinant_that_underflows_to_zero_loses_the_roots_above(self):
        # f is exactly 0 from 2.8 upward, as a determinant that underflows: the window end 3.5
        # reads 0, so neither window past 2.5 holds a sign change, and no end is a root.
        f, counter = _polynomial([1.2, 2.3, 3.1, 4.4])

        def underflowing(lams):
            return np.where(lams < 2.8, f(lams), 0.0)

        with pytest.raises(RootCountError, match="lost roots") as info:
            find_roots(underflowing, isolate(4, None, counter))
        assert info.value.found == pytest.approx([1.2, 2.3], abs=1e-15)

    def test_roots_one_ulp_apart_give_roots_or_a_root_count_error(self):
        # Sign changes between r1 and the double after it, r2, and between r2 and the next:
        # halving on the exact count leaves windows with an end at r2, and where a halving point
        # lands on r1, a one-root window of two adjacent doubles, which closes at its midpoint.
        # Roots above count + 0.5 = 2.5, where interlacing puts none, are a count shortfall.
        rng, closed = np.random.default_rng(29), 0
        for r1 in rng.uniform(0.6, 4.4, 100).tolist():
            r2 = math.nextafter(r1, math.inf)

            def f(lams, r1=r1, r2=r2):
                return np.where(lams <= r1, 1.0, np.where(lams <= r2, -1.0, 1.0))

            def counter(lams, r1=r1, r2=r2):
                return (lams > r1).astype(float) + (lams > r2)

            try:
                roots, _ = find_roots(f, isolate(2, None, counter))
            except RootCountError as exc:
                assert "lost roots" in str(exc)
                continue
            assert roots == [0.5 * (r1 + r2), 0.5 * (r2 + math.nextafter(r2, math.inf))]
            closed += 1
        assert closed > 0

    def test_roots_one_double_apart_are_lost(self):
        # The count rises by 2 at one point: no window can part the two roots.
        f, counter = _polynomial([0.3, 1.2, 1.2])
        with pytest.raises(RootCountError, match="lost roots") as info:
            find_roots(f, isolate(3, 3.0, counter))
        assert info.value.found == pytest.approx([0.3], abs=1e-15)

    @pytest.mark.parametrize("fault", [math.nan, -1.0], ids=["nan", "falls"])
    def test_a_count_that_fails_is_lost(self, fault):
        f, exact = _polynomial([0.3, 1.2, 2.7])

        def counter(lams):
            return np.where(lams == 2.5, fault, exact(lams))

        with pytest.raises(RootCountError, match="lost roots") as info:
            find_roots(f, isolate(3, 4.0, counter))
        # Roots below the window that failed are kept; those above it are not sought.
        assert info.value.found == pytest.approx([0.3, 1.2], abs=1e-15)

    def test_shortfall_of_the_count_below_interlacing_is_lost(self):
        f, counter = _polynomial([0.3])
        with pytest.raises(RootCountError, match="lost roots"):
            find_roots(f, isolate(2, 5.0, counter))

    def test_bisection_calls_per_solve(self, monkeypatch):
        # Five brackets need about 53 halvings each; one call of their ends and a coarse grid,
        # then secant steps that close in on each root quadratically, take a handful of
        # determinant calls for all five.
        problem = BeamProblem(positions=(1.0,), flexibilities=(0.3,))
        seen = []

        def counted_bisect(f, *args):
            seen.append(Counted(f))
            return bisect(seen[-1], *args)

        monkeypatch.setattr(rootfind, "bisect", counted_bisect)
        roots = shifrin.first_roots(char_det, problem, 5)
        assert len(roots) == 5
        assert len(seen) == 1
        assert len(seen[0].batches) <= 6

    @pytest.mark.parametrize("solver", [shifrin, transition])
    @pytest.mark.parametrize(
        "problem, count",
        [
            (BeamProblem(positions=(1.0,), flexibilities=(0.3,)), 5),
            (BeamProblem(tuple(math.pi * j / 31 for j in range(1, 31)), (0.2,) * 30), 20),
        ],
        ids=["one_crack", "thirty_equal_cracks"],
    )
    def test_refinement_evaluations_per_root(self, monkeypatch, solver, problem, count):
        # Wavenumbers, not calls: bisection spent 60-75 per root.  The window ends are
        # evaluated in the refinement's first call, so it makes every determinant call.
        solves, refinements = [], []

        def counted_find_roots(f, *args):
            solves.append(Counted(f))
            return find_roots(solves[-1], *args)

        def counted_bisect(f, *args):
            refinements.append(Counted(f))
            return bisect(refinements[-1], *args)

        monkeypatch.setattr(rootfind, "find_roots", counted_find_roots)
        monkeypatch.setattr(rootfind, "bisect", counted_bisect)
        roots = solver.find_eigenvalues(problem, count)
        assert len(roots) == count
        assert len(solves) == len(refinements) == 1
        assert len(solves[0].batches) == len(refinements[0].batches)
        assert sum(batch.size for batch in refinements[0].batches) <= 32 * count

    def test_callable_receives_arrays(self):
        f = Counted(lambda x: np.cos(2.0 * x))
        windows = isolate(2, 8.0, lambda lams: np.floor(2.0 * lams / math.pi + 0.5))
        roots, _ = find_roots(f, windows)
        assert np.allclose(roots, [math.pi / 4, 3 * math.pi / 4], atol=1e-14)
        assert all(batch.ndim == 1 for batch in f.batches)

    @pytest.mark.parametrize("lam_max", [math.inf, math.nan, 1e308, 0.0, -1.0])
    def test_ceiling_outside_the_wavenumber_range_raises_value_error(self, one_crack_problem, lam_max):
        with pytest.raises(ValueError, match="wavenumber"):
            find_roots(np.cos, isolate(1, lam_max, np.floor))
        for solve in (compute_spectrum, oracle_eigenpairs):
            with pytest.raises(ValueError, match="wavenumber"):
                solve(one_crack_problem, 5, lam_max=lam_max)


def _counted_root_count(monkeypatch) -> list[int]:
    """The number of wavenumbers of every ``shifrin.root_count`` call from here on."""
    calls, count = [], shifrin.root_count

    def counted(problem, lams):
        calls.append(np.size(lams))
        return count(problem, lams)

    monkeypatch.setattr(shifrin, "root_count", counted)
    return calls


def _roots_cold(solve, problem, count):
    shifrin._isolated.cache_clear()
    return solve(problem, count)


def _jump_roots(problem, count):
    return compute_spectrum(problem, count).lambdas.tolist()


def _oracle_roots(problem, count):
    return oracle_eigenpairs(problem, count).lambdas.tolist()


class TestSharedIsolation:
    """The count's windows depend on the problem, not on the solver: the solve that comes second
    refines the windows the first one isolated, and counts nothing."""

    @pytest.mark.parametrize(
        "first, second",
        [
            (_jump_roots, (_oracle_roots, transition.find_eigenvalues)),
            (_oracle_roots, (_jump_roots, shifrin.find_eigenvalues)),
        ],
        ids=["oracle_second", "jump_amplitude_second"],
    )
    @pytest.mark.parametrize("cracks", [2, 30])
    def test_second_solve_counts_nothing_and_keeps_every_bit(
        self, monkeypatch, first, second, cracks
    ):
        positions = [math.pi * j / (cracks + 1) for j in range(1, cracks + 1)]
        thetas = [0.01 * 200.0 ** (j / max(1, cracks - 1)) for j in range(cracks)]
        cold = [_roots_cold(solve, BeamProblem(positions, thetas), 12) for solve in second]
        first(BeamProblem(tuple(positions), tuple(thetas)), 12)
        calls = _counted_root_count(monkeypatch)
        equal = BeamProblem(list(positions), list(thetas))  # built apart, equal by value
        warm = [solve(equal, 12) for solve in second]
        assert calls == []
        assert [[x.hex() for x in roots] for roots in warm] == [
            [x.hex() for x in roots] for roots in cold
        ]

    def test_another_problem_count_or_ceiling_counts_again(self, monkeypatch, one_crack_problem):
        compute_spectrum(one_crack_problem, 5)
        calls = _counted_root_count(monkeypatch)
        for problem, count, lam_max in [
            (BeamProblem((1.0,), (0.31,)), 5, None),
            (one_crack_problem, 6, None),
            (one_crack_problem, 5, 6.0),
        ]:
            before = len(calls)
            oracle_eigenpairs(problem, count, lam_max)
            assert len(calls) > before, (problem, count, lam_max)
            assert shifrin._isolated.cache_info().currsize == 1
        assert shifrin._isolated.cache_info().maxsize == 1

    def test_a_ceiling_is_keyed_by_its_value(self, monkeypatch, one_crack_problem):
        # An array or numpy scalar ceiling neither fails to hash nor misses a float's windows.
        compute_spectrum(one_crack_problem, 5, lam_max=np.array(6.0))
        calls = _counted_root_count(monkeypatch)
        oracle_eigenpairs(one_crack_problem, 5, lam_max=np.float64(6.0))
        transition.find_eigenvalues(one_crack_problem, 5, 6)
        assert calls == []

    def test_a_lost_window_stays_with_the_solver_that_lost_it(self):
        # The jump-amplitude determinant underflows to exactly 0 from about lambda = 8.5 on 300
        # equal cracks, so it loses the windows of roots 19 and 20; the oracle's does not, and
        # refines all 20.  Neither outcome depends on which solver isolated the windows.
        problem = BeamProblem(tuple(math.pi * j / 301 for j in range(1, 301)), (0.2,) * 300)

        def jump_lost():
            with pytest.raises(RootCountError, match="lost roots") as info:
                shifrin.find_eigenvalues(problem, 20)
            return info.value.found

        jump_cold = jump_lost()  # no windows kept yet: see tests/conftest.py
        oracle_warm = transition.find_eigenvalues(problem, 20)
        oracle_cold = _roots_cold(transition.find_eigenvalues, problem, 20)
        jump_warm = jump_lost()
        assert len(jump_cold) == 18 and jump_warm == jump_cold
        assert len(oracle_cold) == 20 and oracle_warm == oracle_cold


class TestFreshIsolation:
    """Every test starts with no windows kept (tests/conftest.py), so one that patches the count
    or the stack bound sees an isolation of its own."""

    def test_a_solve_keeps_its_windows(self, one_crack_problem):
        compute_spectrum(one_crack_problem, 5)
        assert shifrin._isolated.cache_info().currsize == 1

    def test_a_patched_count_is_called(self, monkeypatch, one_crack_problem):
        calls = _counted_root_count(monkeypatch)
        monkeypatch.setattr(rootfind, "_STACK_ENTRIES", 64)
        compute_spectrum(one_crack_problem, 5)
        assert calls == [6]  # one call at 0.5 ... 4.5 and 5.5: one crack parts no roots


def _near_hinge_layouts(count_per_band: int):
    """(band, problem) layouts: per band of log10 theta, 2-5 cracks in [0.1, pi - 0.1] at least
    1e-3 apart, theta_j log-uniform in the band, from one generator seeded 3."""
    rng, out = np.random.default_rng(3), []
    for band in ((1.0, 6.0), (6.0, 7.0), (7.0, 8.0)):
        drawn = 0
        while drawn < count_per_band:
            m = int(rng.integers(2, 6))
            positions = np.sort(rng.uniform(0.1, math.pi - 0.1, m))
            thetas = 10.0 ** rng.uniform(*band, m)
            if np.all(np.diff(positions) >= 1e-3):
                problem = BeamProblem(tuple(positions.tolist()), tuple(thetas.tolist()))
                out.append((band, problem))
                drawn += 1
    return out


class TestRefinedRoots:
    @pytest.mark.parametrize("solver", [shifrin, transition], ids=["shifrin", "transition"])
    @pytest.mark.parametrize("name", sorted(FIXTURE_ROOTS))
    def test_fixture_roots_keep_every_bit(self, name, solver):
        # spectrum and frequencies print these roots: any changed bit changes their bytes.
        problem = load_problem_file(ROOT / "fixtures" / f"{name}.json")[0]
        recorded = FIXTURE_ROOTS[name][solver.__name__.rsplit(".", 1)[1]]
        for count, roots in recorded.items():
            assert [x.hex() for x in solver.find_eigenvalues(problem, int(count))] == roots

    def test_near_hinge_roots_lie_where_the_count_says(self):
        # Near the mechanism roots of near-hinge cracks the sign of char_det is partly rounding
        # noise, and the windows the refinement starts from are wide: each jump-amplitude root
        # must still be certified, the count reading k - 1 just below the k-th and k just above.
        for band, problem in _near_hinge_layouts(20):
            roots = np.array(find_eigenvalues(problem, problem.m + 3))
            k = np.arange(roots.size)
            below = shifrin.root_count(problem, roots * (1.0 - 1e-7))
            above = shifrin.root_count(problem, roots * (1.0 + 1e-7))
            assert below.tolist() == k.tolist(), (band, problem)
            assert above.tolist() == (k + 1).tolist(), (band, problem)


class TestWavenumberRange:
    @pytest.mark.parametrize(
        "lam, message",
        [(math.nan, "must not be NaN"), (1e-200, "at least 1e-100"), (1e200, "at most 1e\\+100")],
    )
    @pytest.mark.parametrize("name", WAVENUMBER_ENTRY_POINTS)
    def test_every_entry_point_rejects_alike(self, one_crack_problem, name, lam, message):
        with pytest.raises(ValueError, match=message):
            WAVENUMBER_ENTRY_POINTS[name](one_crack_problem, lam)

    def test_nan_is_named_before_any_other_fault(self):
        with pytest.raises(ValueError, match="must not be NaN"):
            rootfind.wavenumbers([-1.0, 1e-300, math.nan, 1e300])

    def test_range_ends_pass_unchanged(self):
        ends = [rootfind.MIN_WAVENUMBER, 1, rootfind.MAX_WAVENUMBER]
        out = rootfind.wavenumbers(ends)
        assert out.dtype == float
        assert out.tolist() == ends


class TestInterlacing:
    @settings(max_examples=40, deadline=None)
    @given(
        positions=st.lists(
            st.floats(0.0, math.pi, exclude_min=True, exclude_max=True), max_size=6, unique=True
        ),
        exponents=st.lists(st.floats(-3.0, 3.0), min_size=6, max_size=6),
    )
    def test_interlacing_bounds_every_root(self, positions, exponents):
        # k - m <= lambda_k <= k, which follows from 0 <= neg S <= m in the count;
        # equality holds for modes with a node at every crack.
        thetas = tuple(10.0**e for e in exponents[: len(positions)])
        try:
            problem = BeamProblem(positions=tuple(sorted(positions)), flexibilities=thetas)
        except ValidationError:
            assume(False)
        k = np.arange(1.0, 11.0)
        roots = np.array(find_eigenvalues(problem, 10))
        assert np.all(k - problem.m <= roots * (1.0 + 1e-12))
        assert np.all(roots <= k * (1.0 + 1e-12))


class TestBisect:
    @staticmethod
    def _f(x):
        return np.sin(3.0 * x)

    @settings(max_examples=100, deadline=None)
    @given(
        family=st.sampled_from(["noisy-cubic", "steep-tanh", "sign-noise"]),
        zeros=st.lists(st.floats(0.0, 4.0), min_size=3, max_size=3),
        noise=st.sampled_from([1e-14, 1e-9]),
        steepness=st.floats(3.0, 12.0),
        ends=st.lists(
            st.tuples(st.floats(-1.0, 5.0), st.floats(-1.0, 5.0)), min_size=1, max_size=6
        ),
    )
    def test_every_root_closes_on_a_sign_change(self, family, zeros, noise, steepness, ends):
        # Where the sign of f is noise, the secant steps go wrong; the result must still be
        # one end of a sign change between adjacent doubles.
        r1, r2, r3 = zeros
        h = {
            "noisy-cubic": lambda x: (x - r1) * (x - r2) * (x - r3) + noise * math.sin(1e13 * x),
            "steep-tanh": lambda x: math.tanh(10.0**steepness * (x - r1)),
            "sign-noise": lambda x: (x - r1) + 1e-13 * math.sin(1e15 * x),
        }[family]
        brackets = [(min(p, q), max(p, q)) for p, q in ends if h(p) * h(q) < 0.0]
        assume(brackets)
        a, b = (np.array(side) for side in zip(*brackets))
        roots = bisect(_pointwise(h), a, b)
        for lo, hi, x in zip(a.tolist(), b.tolist(), roots.tolist()):
            assert lo <= x <= hi
            neighbours = (math.nextafter(x, -math.inf), math.nextafter(x, math.inf))
            assert any(lo <= y <= hi and (h(y) > 0.0) != (h(x) > 0.0) for y in neighbours)

    @settings(max_examples=60, deadline=None)
    @given(
        zeros=st.lists(st.floats(0.1, 4.0), min_size=3, max_size=3, unique=True),
        slope=st.floats(1e-3, 1e3),
        ends=st.lists(
            st.tuples(st.floats(-1.0, 5.0), st.floats(-1.0, 5.0)), min_size=1, max_size=6
        ),
    )
    def test_noise_free_sign_gives_the_bisection_root(self, zeros, slope, ends):
        # A product of exact differences has the exact sign (zeros from 0.1 up keep it from
        # underflowing), so a bracket around one simple zero holds one sign change, and both
        # refinements end on it.
        r1, r2, r3 = zeros

        def cubic(x):
            return (x - r1) * (x - r2) * (x - r3)

        def line(x):
            return slope * (r2 - x)

        for h, roots in ((cubic, zeros), (line, [r2])):
            brackets = [
                (min(p, q), max(p, q))
                for p, q in ends
                if h(p) * h(q) < 0.0 and sum(min(p, q) < r < max(p, q) for r in roots) == 1
            ]
            if brackets:
                a, b = (list(side) for side in zip(*brackets))
                _assert_matches_scalar(h, a, b)

    @pytest.mark.parametrize("step", [0.1, 1.0, 1.5, 2.0, 2.71, math.nextafter(1.0, 0.0)])
    def test_step_closes_through_the_grid_fallback(self, step):
        # A secant step (at most three points) across a jump halves the bracket at best, so
        # the next call is the grid of _GRID points, which takes four bits, or evaluates the
        # last doubles: five bits per two calls.  From a width of 3 to the ulp of a double
        # above 0.1 is under 58 bits, the last four or so of them one call over the last
        # _ENUMERATE doubles: at most 24 calls.
        def h(x):
            return 1.0 if x > step else -1.0

        f = Counted(_pointwise(h))
        root = bisect(f, np.array([0.0]), np.array([3.0]))
        assert root.tolist() == [_scalar_bisect(h, 0.0, 3.0, -1.0, 1.0)]
        sizes = [batch.size for batch in f.batches]
        assert len(sizes) <= 24
        for before, after in zip(sizes, sizes[1:-1]):
            assert before > 3 or after > 3

    @pytest.mark.parametrize(
        "a, b",
        [
            (math.pi, 4.0),
            (math.pi, 3.2),
            (3.0, math.nextafter(math.pi, 4.0)),
            (2.0, math.nextafter(math.pi, 4.0)),
        ],
    )
    def test_root_on_a_bracket_end_closes_quickly(self, a, b):
        # pi lies between math.pi and the next double up, so the sign of sin changes at an end
        # of the bracket: the secant guess rounds onto that end and moves to its neighbour.
        f = Counted(np.sin)
        root = bisect(f, np.array([a]), np.array([b]))
        assert root.tolist() == [math.pi]
        assert _scalar_bisect(math.sin, a, b, math.sin(a), math.sin(b)) == math.pi
        assert len(f.batches) <= 6

    @pytest.mark.parametrize(
        "h, a, b",
        [
            # End values of +-1 put the secant guess far from the step.
            (
                lambda x: math.tanh(1e8 * (x - 1.1)),
                [0.0, 1.0, 1.09],
                [3.0, 5.0, 1.1000001],
            ),
            # An infinite end value makes the guess NaN.  The grid of [1, 2] meets 1.25 and
            # 1.5 too, where the infinities keep the sign of x - 1.3.
            (
                lambda x: {1.0: -math.inf, 1.25: -math.inf, 1.5: math.inf}.get(x, x - 1.3),
                [1.0, 0.5, 1.25],
                [2.0, 1.5, 1.5],
            ),
        ],
        ids=["step", "infinite-end"],
    )
    def test_mispredicted_paths_match_scalar(self, h, a, b):
        _assert_matches_scalar(h, a, b)

    def test_zero_end_gives_nan_after_the_first_call(self):
        # The first call reads every end: a bracket with a zero end holds no sign change, so
        # it gives NaN and is never evaluated again, while the one beside them refines, to
        # within one ulp of the exact zero at 4.
        f = Counted(lambda x: (x - 1.0) * (x - 3.0) * (x - 4.0))
        out = bisect(f, np.array([1.0, 2.0, 3.3]), np.array([2.0, 3.0, 4.6]))
        assert math.isnan(out[0]) and math.isnan(out[1])
        assert out[2] in (4.0, math.nextafter(4.0, 5.0))
        assert f.batches[0].size == 5 + 3 * 7
        assert all(batch.min() > 3.3 for batch in f.batches[1:])

    @pytest.mark.parametrize("slope", [1.0, -1.0])
    @pytest.mark.parametrize("zero", [1.0, 1.3, math.pi, 2.75])
    def test_exact_zero_inside_a_bracket_comes_back_within_one_ulp(self, zero, slope):
        # A zero counts with the non-positive side, so the sign change closes next to it.
        def h(x):
            return slope * (x - zero)

        root = bisect(_pointwise(h), np.array([0.5]), np.array([3.5]))[0]
        assert math.nextafter(zero, 0.0) <= root <= math.nextafter(zero, 4.0)
        assert root == _scalar_bisect(h, 0.5, 3.5, h(0.5), h(3.5))

    def test_first_call_takes_the_ends_and_a_coarse_grid(self):
        # Three windows sharing ends: 4 ends, each once, and 7 points inside each window.
        f = Counted(self._f)
        roots = bisect(f, np.array([0.5, 1.5, 2.5]), np.array([1.5, 2.5, 3.5]))
        assert roots.tolist() == pytest.approx([math.pi / 3, 2 * math.pi / 3, math.pi], abs=1e-15)
        first = f.batches[0].tolist()
        assert len(first) == 4 + 3 * 7 == len(set(first))
        assert {0.5, 1.5, 2.5, 3.5} <= set(first)
        # Then secant steps of at most three points per bracket.
        assert all(batch.size <= 9 for batch in f.batches[1:])

    def test_same_sign_bracket_gives_nan(self):
        # Ends of one sign close their bracket at NaN after the first call; the other refines.
        a, b = np.array([0.5, 0.1]), np.array([1.5, 0.2])
        f = Counted(self._f)
        out = bisect(f, a, b)
        assert out[0] == pytest.approx(math.pi / 3, abs=1e-15)
        assert math.isnan(out[1])
        # The first call reads both brackets' ends; later calls never return to (0.1, 0.2).
        assert {0.1, 0.2} <= set(f.batches[0].tolist())
        assert all(batch.min() > 0.5 for batch in f.batches[1:])

    def test_one_ulp_bracket_closes_at_its_midpoint(self):
        # Ends one double apart leave no point inside and none outside for a secant estimate:
        # the first call reads them, and the bracket closes at 0.5 (a + b), or NaN on one sign.
        # The wide bracket refines to the same two doubles.
        one = math.nextafter(1.0, 2.0)
        f = Counted(lambda x: np.where(x < one, -1.0, 1.0))
        a, b = np.array([1.0, 3.0, 0.5]), np.array([one, math.nextafter(3.0, 4.0), 2.0])
        out = bisect(f, a, b)
        assert out[0] == out[2] == 0.5 * (1.0 + one)
        assert math.isnan(out[1])
        assert f.batches[0].size == 6 + 7
        assert all(batch.max() < 2.0 for batch in f.batches[1:])
