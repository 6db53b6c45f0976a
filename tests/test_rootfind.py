"""Chunked grid scan and lockstep bisection."""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from crackedbeam import (
    BeamProblem,
    ValidationError,
    boundary_det,
    char_det,
    find_eigenvalues,
    load_problem_file,
    rootfind,
)
from crackedbeam.rootfind import (
    _PATH_LEVELS,
    DEFAULT_STEP,
    RootCountError,
    bisect,
    find_roots,
    first_roots,
)

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"
FIXTURE_NAMES = ("uniform", "one_crack", "two_crack", "node_crack", "steel_beam", "fault_injected")


class Counted:
    """Array function that records every batch of wavenumbers it is given."""

    def __init__(self, f):
        self.f = f
        self.batches: list[np.ndarray] = []

    def __call__(self, lams):
        self.batches.append(np.array(lams, dtype=float))
        return self.f(np.asarray(lams, dtype=float))


def _scalar_bisect(f, a, b, fa, fb, tol=0.0):
    """Plain one-bracket bisection, the reference for the lockstep version."""
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    while b - a > tol:
        mid = 0.5 * (a + b)
        if mid <= a or mid >= b:
            break
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm > 0.0) == (fa > 0.0):
            a, fa = mid, fm
        else:
            b = mid
    return 0.5 * (a + b)


def _pointwise_roots(f, count, lam_max, step=DEFAULT_STEP):
    """Point-by-point scan with immediate bisection, one wavenumber per call."""
    roots = []
    n_steps = max(0, int(round((lam_max - step) / step)))
    prev_lam, prev_val = step, f(step)
    if prev_val == 0.0:
        roots.append(prev_lam)
    for k in range(1, n_steps + 1):
        if len(roots) >= count:
            break
        lam = step + k * step
        val = f(lam)
        if val == 0.0:
            roots.append(lam)
        elif prev_val != 0.0 and (val > 0.0) != (prev_val > 0.0):
            roots.append(_scalar_bisect(f, prev_lam, lam, prev_val, val))
        prev_lam, prev_val = lam, val
    return roots[:count]


def _assert_matches_scalar(h, a, b, fa=None, fb=None, tol=0.0):
    """Lockstep bisection of ``h`` on the brackets [a_k, b_k] equals the scalar one.

    The array function applies ``h`` point by point, so both bisections see
    the very same value at every point and can differ only in the points
    they visit.
    """
    fa = [h(x) for x in a] if fa is None else fa
    fb = [h(x) for x in b] if fb is None else fb

    def f(lams):
        return np.array([h(x) for x in lams.tolist()])

    lockstep = bisect(f, np.array(a), np.array(b), np.array(fa), np.array(fb), tol)
    assert lockstep.tolist() == [_scalar_bisect(h, *args, tol=tol) for args in zip(a, b, fa, fb)]


class TestFindRoots:
    def test_exact_zero_on_grid_point_is_returned_as_is(self):
        f = Counted(lambda x: (x - 0.75) * (x - 2.0))
        roots, _ = find_roots(f, 2, 5.0, step=0.25)
        assert roots == [0.75, 2.0]
        # Neither root needed bisection: the scan is the only call.
        assert len(f.batches) == 1

    def test_exact_zero_at_scan_start(self):
        roots, _ = find_roots(lambda x: x - 0.5, 1, 3.0, step=0.5)
        assert roots == [0.5]

    def test_stops_at_count(self):
        # The root at 1.105 lies inside the first chunk but after the first
        # root: a scan that stops at the requested count does not refine its
        # bracket.
        f = Counted(lambda x: (x - 0.505) * ((x - 1.0) ** 2 + 1e-12) * (x - 1.105))
        roots, _ = find_roots(f, 1, 10.0)
        assert len(roots) == 1
        assert roots[0] == pytest.approx(0.505, abs=1e-15)
        assert len(f.batches) > 1
        # Every later call holds the one bracket's path, all of it below 1.
        assert all(batch.size <= _PATH_LEVELS and batch.max() < 1.0 for batch in f.batches[1:])

    def test_root_count_error_carries_found_roots(self):
        with pytest.raises(RootCountError) as info:
            find_roots(lambda x: np.sin(math.pi * x), 5, 3.2)
        err = info.value
        assert err.requested == 5
        assert err.lam_max == 3.2
        assert np.allclose(err.found, [1.0, 2.0, 3.0], atol=1e-12)
        assert str(err).endswith("raise the scan ceiling")

    def test_shortfall_past_the_upper_bound_reports_lost_roots(self):
        # A double root at 1.505 shows no sign change, though the ceiling is high enough.
        def f(x):
            return (x - 0.5) * (x - 1.505) ** 2

        with pytest.raises(RootCountError) as info:
            find_roots(f, 2, 3.0, bounds=(0.0, 2.0))
        assert info.value.found == [0.5]
        assert "lost roots below the ceiling" in str(info.value)
        # A grid that stops below the bound may have missed the root above its end.
        with pytest.raises(RootCountError, match="raise the scan ceiling"):
            find_roots(f, 2, 1.9, bounds=(0.0, 2.0))

    def test_count_reached_on_a_chunks_last_point_scans_one_chunk(self):
        # Grid indices 126 and 127 are 1.27 and 1.28; 127 ends the first chunk.
        f = Counted(lambda x: x - 1.2731)
        roots, _ = find_roots(f, 1, 10.0)
        assert roots[0] == pytest.approx(1.2731, abs=1e-15)
        assert f.batches[0].size == 128
        assert all(batch.size <= _PATH_LEVELS for batch in f.batches[1:])

    @settings(max_examples=300, deadline=None)
    @given(
        zeros=st.lists(
            st.tuples(
                st.sampled_from([0, 1, 126, 127, 128, 129, 254, 255, 256, 257, 300]),
                st.sampled_from([0.0, 1e-9, 0.5, 1.0 - 1e-9]),
            ),
            max_size=5,
        ),
        nan_at=st.sampled_from([None, 127, 128, 256]),
        count=st.integers(1, 5),
        lam_max=st.sampled_from([1.28, 1.29, 2.56, 2.57, 3.5]),
    )
    # Exact zeros at the last point of a chunk and the first of the next.
    @example(zeros=[(127, 0.0), (128, 0.0)], nan_at=None, count=2, lam_max=3.5)
    # The count is reached on a chunk's last point.
    @example(zeros=[(126, 0.5)], nan_at=None, count=1, lam_max=3.5)
    @example(zeros=[(3, 0.5), (254, 0.5)], nan_at=None, count=2, lam_max=3.5)
    def test_chunk_boundaries_match_pointwise_scan(self, zeros, nan_at, count, lam_max):
        # Zeros lie on grid point j (offset 0) or inside the cell after it.
        step = DEFAULT_STEP
        roots = [step + j * step + frac * step for j, frac in zeros]
        nan_lam = None if nan_at is None else step + nan_at * step

        def h(x):
            if x == nan_lam:
                return math.nan
            return math.prod(x - r for r in roots)

        def f(lams):
            return np.array([h(x) for x in lams.tolist()])

        reference = _pointwise_roots(h, count, lam_max)
        if len(reference) < count:
            with pytest.raises(RootCountError) as info:
                find_roots(f, count, lam_max)
            assert info.value.found == reference
        else:
            assert find_roots(f, count, lam_max)[0] == reference

    @pytest.mark.parametrize(
        "problem",
        [
            BeamProblem(),
            BeamProblem(positions=(1.0,), flexibilities=(0.3,)),
            BeamProblem(positions=(0.4, 1.9, 2.8), flexibilities=(2.0, 0.05, 0.7)),
        ],
    )
    def test_matches_pointwise_scan_bit_for_bit(self, problem):
        count = 6
        lam_max = count + problem.m + 5
        batched, _ = find_roots(lambda lams: char_det(problem, lams), count, lam_max)
        pointwise = _pointwise_roots(lambda lam: char_det(problem, lam), count, lam_max)
        assert batched == pointwise

    def test_bisection_calls_per_solve(self, monkeypatch):
        # Five brackets need about 46 halvings each; one path per call brings
        # that to a handful of determinant calls instead of one per halving.
        problem = BeamProblem(positions=(1.0,), flexibilities=(0.3,))
        seen = []

        def counted_bisect(f, *args):
            seen.append(Counted(f))
            return bisect(seen[-1], *args)

        monkeypatch.setattr(rootfind, "bisect", counted_bisect)
        roots = first_roots(char_det, problem, 5)
        assert len(roots) == 5
        assert len(seen) == 1
        assert len(seen[0].batches) <= 8

    def test_callable_receives_arrays(self):
        f = Counted(lambda x: np.cos(x))
        roots, _ = find_roots(f, 2, 8.0)
        assert np.allclose(roots, [math.pi / 2, 3 * math.pi / 2], atol=1e-14)
        assert all(batch.ndim == 1 for batch in f.batches)


class TestMergedScan:
    """first_roots evaluates the chunks below count - m in its first call."""

    @staticmethod
    def _both_scans(det, problem, count):
        """(roots, batches) of first_roots, then of a chunk-by-chunk scan to the same ceiling."""
        merged = Counted(lambda lams: det(problem, lams))
        roots = first_roots(lambda _, lams: merged(lams), problem, count)
        chunked = Counted(lambda lams: det(problem, lams))
        reference, _ = find_roots(chunked, count, count + problem.m + 5)
        return roots, merged.batches, reference, chunked.batches

    @pytest.mark.parametrize("det", [char_det, boundary_det], ids=["char_det", "boundary_det"])
    @pytest.mark.parametrize("count", [5, 20])
    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_fixtures_scan_the_same_points_in_fewer_calls(self, name, count, det):
        problem, _, _ = load_problem_file(FIXTURES / f"{name}.json")
        roots, merged, reference, chunked = self._both_scans(det, problem, count)
        assert roots == reference
        assert len(merged) < len(chunked)
        # The transfer determinant invents roots at high modes on one and two
        # cracks (a known defect).  Where they end the chunk-by-chunk scan below
        # count - m, the merged call has evaluated chunks that scan never
        # reached; everywhere else the scan and bisection points are the same,
        # in the same order.
        obeys_bound = reference[-1] >= count - problem.m
        assert obeys_bound or det is boundary_det
        if obeys_bound:
            assert np.concatenate(merged).tobytes() == np.concatenate(chunked).tobytes()

    @pytest.mark.parametrize("count, merges", [(5, False), (35, True)])
    def test_thirty_equal_cracks(self, count, merges):
        # Below count = m + 2 the lower bound count - m lies in the first chunk.
        positions = tuple(math.pi * j / 31 for j in range(1, 31))
        problem = BeamProblem(positions=positions, flexibilities=(0.2,) * 30)
        roots, merged, reference, chunked = self._both_scans(char_det, problem, count)
        assert roots == reference
        assert np.concatenate(merged).tobytes() == np.concatenate(chunked).tobytes()
        if merges:
            assert merged[0].size == 512
            assert len(merged) < len(chunked)
        else:
            assert [b.size for b in merged] == [b.size for b in chunked]

    @pytest.mark.parametrize(
        "low, size",
        # Grid point 1.28 (index 127) ends chunk 0 and 1.29 starts chunk 1; 32.0
        # (index 3199) ends chunk 24.  The cap holds the first call at 256 chunks.
        [(1.28, 128), (1.2800001, 256), (-3.0, 128), (32.0, 3200), (32.000001, 3328), (1e6, 32768)],
    )
    def test_first_call_ends_at_the_chunk_holding_the_lower_bound(self, low, size):
        f = Counted(lambda x: x - 400.0)
        find_roots(f, 1, 401.0, bounds=(low, math.inf))
        assert f.batches[0].size == size

    @settings(max_examples=40, deadline=None)
    @given(
        positions=st.lists(
            st.floats(0.0, math.pi, exclude_min=True, exclude_max=True), max_size=6, unique=True
        ),
        exponents=st.lists(st.floats(-3.0, 3.0), min_size=6, max_size=6),
    )
    def test_interlacing_bounds_every_root(self, positions, exponents):
        # k - m <= lambda_k <= k, which the merged scan and the shortfall message rely on;
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

    def test_lockstep_equals_scalar_bisection(self):
        # Brackets of different widths around different roots k*pi/3.
        a = np.array([0.9, 2.0, 3.0, 4.0, 5.0, 1.0, 1.04])
        b = np.array([1.1, 2.5, 3.3, 4.3, 5.5, 1.05, 1.0472])
        fa, fb = self._f(a), self._f(b)
        f = Counted(self._f)
        lockstep = bisect(f, a, b, fa, fb)
        scalar = [
            _scalar_bisect(lambda x: float(self._f(x)), *args)
            for args in zip(a.tolist(), b.tolist(), fa.tolist(), fb.tolist())
        ]
        assert lockstep.tolist() == scalar
        # Every bracket is far wider than _PATH_LEVELS halvings at tol = 0, so
        # the first call holds a full path for each, starting at its midpoint.
        sizes = [batch.size for batch in f.batches]
        assert sizes == sorted(sizes, reverse=True)
        assert sizes[0] == _PATH_LEVELS * len(a)
        assert f.batches[0][::_PATH_LEVELS].tolist() == (0.5 * (a + b)).tolist()

    @pytest.mark.parametrize("depth", [5, 6, 7, 8])
    def test_two_levels_per_call_at_odd_and_even_depths(self, depth):
        # Unit brackets close after exactly `depth` halvings at this tol, so
        # each path ends at `depth` points whatever its parity.
        a = np.array([0.5, 1.75, 3.0])
        b = a + 1.0
        fa, fb = self._f(a), self._f(b)
        tol = 2.0**-depth
        f = Counted(self._f)
        lockstep = bisect(f, a, b, fa, fb, tol)
        scalar = [
            _scalar_bisect(lambda x: float(self._f(x)), *args, tol=tol)
            for args in zip(a.tolist(), b.tolist(), fa.tolist(), fb.tolist())
        ]
        assert lockstep.tolist() == scalar
        # The first call holds every bracket's whole path down to tol; a
        # bracket whose secant mispredicts a side finishes in later calls.
        assert f.batches[0].size == depth * len(a)
        assert f.batches[0][::depth].tolist() == (0.5 * (a + b)).tolist()
        assert len(f.batches) <= depth

    @pytest.mark.parametrize("root", [1.5, 1.25, 1.75, 1.375])
    def test_exact_zero_on_first_or_second_level_midpoint(self, root):
        def g(x):
            return (x - root) * (x - 3.3)

        f = Counted(g)
        # The bracket around 3.3 keeps bisecting after the first hits its zero.
        a, b = np.array([1.0, 3.0]), np.array([2.0, 3.5])
        lockstep = bisect(f, a, b, g(a), g(b))
        scalar = [_scalar_bisect(g, *args) for args in zip(a, b, g(a), g(b))]
        assert lockstep.tolist() == scalar
        assert lockstep[0] == root
        # The path starts at the midpoint; the zero is evaluated once and
        # closes its bracket, so no later call holds a point of [1, 2].
        assert f.batches[0][0] == 1.5
        calls = [n for n, batch in enumerate(f.batches) if root in batch]
        assert len(calls) == 1
        assert all(batch.min() > 2.0 for batch in f.batches[calls[0] + 1 :])

    @pytest.mark.parametrize("depth", [5, _PATH_LEVELS, _PATH_LEVELS + 1, 3 * _PATH_LEVELS])
    def test_linear_f_closes_in_one_call_per_path_length(self, depth):
        # The secant of a line is exact, so every predicted side holds and
        # each call advances every bracket by a whole path.
        def line(x):
            return x - 0.9

        a = np.array([0.1, 0.2, 0.3])
        b = a + 1.0
        f = Counted(line)
        tol = 2.0**-depth
        lockstep = bisect(f, a, b, line(a), line(b), tol)
        scalar = [_scalar_bisect(line, *args, tol=tol) for args in zip(a, b, line(a), line(b))]
        assert lockstep.tolist() == scalar
        assert len(f.batches) == math.ceil(depth / _PATH_LEVELS)

    @pytest.mark.parametrize(
        "h, a, b, fa, fb",
        [
            # Below |x - r| ~ 1e-13 the sign is noise, which the secant cannot
            # follow.
            (
                lambda x: (x - 1.3) + 1e-13 * math.sin(1e15 * x),
                [1.0, 1.2, 0.3, 1.299999],
                [1.5, 1.4, 2.9, 1.300001],
                None,
                None,
            ),
            # End values of +-1 put the secant guess far from the step.
            (
                lambda x: math.tanh(1e8 * (x - 1.1)),
                [0.0, 1.0, 1.09],
                [3.0, 5.0, 1.1000001],
                None,
                None,
            ),
            # An infinite end value makes the guess NaN.
            (
                lambda x: x - 1.3,
                [1.0, 0.5, 1.25],
                [2.0, 1.5, 1.5],
                [-math.inf, -0.8, -math.inf],
                [0.7, math.inf, math.inf],
            ),
        ],
        ids=["sign-noise", "step", "infinite-end"],
    )
    def test_mispredicted_paths_match_scalar(self, h, a, b, fa, fb):
        _assert_matches_scalar(h, a, b, fa, fb)

    @settings(max_examples=60, deadline=None)
    @given(
        zeros=st.lists(st.floats(0.0, 4.0), min_size=3, max_size=3),
        noise=st.sampled_from([0.0, 1e-14, 1e-9]),
        ends=st.lists(
            st.tuples(st.floats(-1.0, 5.0), st.floats(-1.0, 5.0)), min_size=1, max_size=6
        ),
        tol=st.sampled_from([0.0, 1e-9]),
    )
    def test_noisy_cubic_brackets_match_scalar(self, zeros, noise, ends, tol):
        r1, r2, r3 = zeros

        def h(x):
            return (x - r1) * (x - r2) * (x - r3) + noise * math.sin(1e13 * x)

        brackets = [(min(p, q), max(p, q)) for p, q in ends if h(p) * h(q) < 0.0]
        assume(brackets)
        a, b = (list(side) for side in zip(*brackets))
        _assert_matches_scalar(h, a, b, tol=tol)

    def test_scalar_call_returns_float(self):
        root = bisect(self._f, 0.9, 1.1, float(self._f(0.9)), float(self._f(1.1)))
        assert isinstance(root, float)
        assert root == pytest.approx(math.pi / 3, abs=1e-15)

    def test_zero_endpoints_returned_without_evaluation(self):
        f = Counted(self._f)
        a, b = np.array([1.0, 2.0]), np.array([2.0, 3.0])
        out = bisect(f, a, b, np.array([0.0, 1.0]), np.array([-1.0, 0.0]))
        assert out.tolist() == [1.0, 3.0]
        assert f.batches == []

    def test_same_sign_bracket_rejected(self):
        with pytest.raises(ValueError, match="no sign change"):
            a, b = np.array([0.5, 0.1]), np.array([1.5, 0.2])
            bisect(self._f, a, b, np.array([1.0, 1.0]), np.array([-1.0, 2.0]))
