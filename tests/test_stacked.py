"""Every mode of a spectrum read in one stacked call, held to the per-mode path bit for bit.

``Spectrum.eval`` evaluates all modes in (modes, points) tables, and ``spectral.mode_checks``
takes every check per mode from those tables.  The references here are the per-mode loops
they replaced: one ``PiecewiseForm.eval`` per mode, and ``verify`` as a loop over
``residual_report``, ``gram_matrix`` and ``a_form``.  The jump-amplitude stacks are built in
a per-thread workspace: calls that share it, or run in two threads, give the bits of calls
made alone, and tracemalloc bounds what the stacked stages allocate.
"""

from __future__ import annotations

import argparse
import math
import sys
import threading
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from crackedbeam import (
    BeamProblem,
    Eigenpair,
    PiecewiseForm,
    QuadratureRule,
    Spectrum,
    a_form,
    cli,
    gram_matrix,
    load_problem_file,
    modes,
    normalize_eigenpair,
    residual_report,
    rootfind,
    shifrin,
    spectral,
    transition,
)

FIXTURES = sorted((Path(__file__).resolve().parents[1] / "fixtures").glob("*.json"))


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


def _random_problem(rng, cracks: int) -> BeamProblem:
    positions = np.sort(rng.uniform(0.05, math.pi - 0.05, cracks))
    return BeamProblem(tuple(positions.tolist()), (1.0,) * cracks)


def _equal_cracks(cracks: int) -> BeamProblem:
    """``cracks`` equal cracks, x_j = pi j / (cracks + 1) and theta = 0.2."""
    positions = tuple(math.pi * j / (cracks + 1) for j in range(1, cracks + 1))
    return BeamProblem(positions, (0.2,) * cracks)


def _random_spectrum(rng, cracks: int, count: int) -> Spectrum:
    problem = _random_problem(rng, cracks)
    lams = np.sort(rng.uniform(0.5, 80.0, count))
    rows = rng.standard_normal((count, cracks + 1, 4))
    return Spectrum(problem, lams, rows, QuadratureRule.for_problem(problem, lams.max()))


@pytest.fixture(params=[rootfind._STACK_ENTRIES, 64, 1])
def stack_entries(request, monkeypatch) -> None:
    """The one stack bound at its default, at a few wavenumbers or modes, and at one."""
    monkeypatch.setattr(rootfind, "_STACK_ENTRIES", request.param)


@pytest.mark.usefixtures("stack_entries")
class TestStackedEvaluation:
    @pytest.mark.parametrize("cracks", [1, 2, 7, 30])
    def test_rows_equal_each_mode_bit_for_bit(self, cracks):
        # Blocks of every mode, of a few and of one: the blocking never changes a bit.
        rng = np.random.default_rng(cracks)
        spectrum = _random_spectrum(rng, cracks, 9)
        bp = np.array(spectrum.problem.breakpoints)
        xs = np.concatenate([bp, rng.uniform(0.0, math.pi, 50), [-0.5, 4.0]])
        for order in range(5):
            for side in "LR":
                table = spectrum.eval(xs, order, side)
                assert table.shape == (9, len(xs))
                for row, pair in zip(table, spectrum.pairs):
                    assert _bits(row) == _bits(pair.eval(xs, order, side))

    @pytest.mark.parametrize("cracks", [1, 2, 30])
    def test_reduce_equals_reducing_each_mode(self, cracks):
        spectrum = _random_spectrum(np.random.default_rng(3), cracks, 12)
        rule = QuadratureRule.for_problem(BeamProblem(), 80.0)

        def square(v):
            return rule.integrate(v * v)

        got = spectrum.eval(rule.nodes, 2, reduce=square)
        want = [square(pair.eval(rule.nodes, 2)) for pair in spectrum.pairs]
        assert _bits(got) == _bits(want)

    @pytest.mark.parametrize("cracks", [1, 2, 30])
    def test_wavenumber_stacks_equal_one_wavenumber_at_a_time(self, cracks):
        # Slices of every wavenumber, of a few and of one: the slicing never changes a bit.
        rng = np.random.default_rng(cracks)
        problem, lams = _random_problem(rng, cracks), rng.uniform(0.3, 60.0, 40)
        for det in (shifrin.char_det, shifrin.root_count, transition.boundary_det):
            assert _bits(det(problem, lams)) == _bits([det(problem, lam) for lam in lams.tolist()])
        one_by_one = [transition._modes_from_roots(problem, lams[k : k + 1]) for k in range(40)]
        assert _bits(transition._modes_from_roots(problem, lams)) == _bits(one_by_one)

    @pytest.mark.parametrize("cracks", [1, 2, 30])
    def test_mode_recovery_blocks_equal_one_unblocked_stack(self, cracks, monkeypatch):
        # Nullspaces and jump-amplitude modes in blocks of every root, a few and one.
        problem = _random_problem(np.random.default_rng(cracks), cracks)
        roots = np.array(shifrin.find_eigenvalues(problem, 12))
        vecs = shifrin._nullspaces(problem, roots)
        rows = shifrin._eigenpairs(problem, roots, vecs)
        with monkeypatch.context() as unbounded:
            unbounded.setattr(rootfind, "_STACK_ENTRIES", 2**62)
            assert _bits(vecs) == _bits(shifrin._nullspaces(problem, roots))
            assert _bits(rows) == _bits(shifrin._eigenpairs(problem, roots, vecs))

    def test_one_mode_at_a_point_is_a_float(self):
        pair = _random_spectrum(np.random.default_rng(5), 2, 1).pairs[0]
        assert type(pair.eval(1.0)) is float
        grid = np.linspace(0.0, math.pi, 12).reshape(3, 4)
        assert pair.eval(grid, 2).shape == (3, 4)
        assert _bits(pair.eval(grid, 2).ravel()) == _bits(pair.eval(grid.ravel(), 2))


def _in_fresh_thread(fn):
    """``fn()`` run in a thread of its own, so on a workspace no other call has used."""
    out = []
    worker = threading.Thread(target=lambda: out.append(fn()))
    worker.start()
    worker.join(timeout=60.0)
    assert not worker.is_alive() and len(out) == 1
    return out[0]


def _stack_calls(problem: BeamProblem, lams: np.ndarray) -> dict[str, bytes]:
    return {
        "char_det": _bits(shifrin.char_det(problem, lams)),
        "root_count": _bits(shifrin.root_count(problem, lams)),
        "nullspaces": _bits(shifrin._nullspaces(problem, lams)),
    }


class TestWorkspace:
    """The tables of ``shifrin._system_stack`` and the |entries| that ``_equilibrated`` scales by
    live in one buffer per thread, reused from call to call."""

    # Two problems of different sizes: the 30-crack calls leave the buffer larger and full of
    # their own tables, which the 2-crack calls then read only a prefix of.
    CASES = ((2, np.linspace(0.7, 9.3, 5)), (30, np.linspace(1.05, 9.95, 28)))

    def test_interleaved_calls_equal_calls_made_alone(self):
        cases = [(_random_problem(np.random.default_rng(m), m), lams) for m, lams in self.CASES]
        alone = [_in_fresh_thread(lambda c=case: _stack_calls(*c)) for case in cases]
        for _ in range(3):
            for case, want in zip(cases, alone):
                assert _stack_calls(*case) == want

    def test_a_held_stack_never_changes(self):
        lams = np.linspace(0.5, 6.5, 7)
        held = shifrin._system_stack(_random_problem(np.random.default_rng(4), 30), lams)
        before = held.tobytes()
        for m, other_lams in (*self.CASES, (30, lams[::-1])):
            other = _random_problem(np.random.default_rng(m), m)
            _stack_calls(other, other_lams)
            assert not np.shares_memory(held, shifrin._system_stack(other, other_lams))
        assert held.tobytes() == before

    def test_two_threads_at_once_give_the_serial_results(self):
        # Two 30-crack layouts of one full block each: tables of the same size, which a shared
        # buffer would let the threads overwrite under each other.
        lams = self.CASES[1][1]
        cases = [(_random_problem(np.random.default_rng(seed), 30), lams) for seed in (1, 2)]
        serial = [_bits(shifrin.char_det(*case)) for case in cases]
        start, results = threading.Barrier(2, timeout=60.0), [[], []]

        def run(k: int) -> None:
            start.wait()
            for _ in range(20):
                results[k].append(_bits(shifrin.char_det(*cases[k])))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=run, args=(k,)) for k in range(2)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert results == [[want] * 20 for want in serial]


def _peak_bytes(fn) -> int:
    """Peak bytes tracemalloc sees ``fn()`` allocate beyond what was live, after one warm-up call
    (which grows the calling thread's workspace)."""
    fn()
    tracemalloc.start()
    try:
        live = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - live
    finally:
        tracemalloc.stop()


class TestAllocation:
    """Peak allocations of the stacked stages: deterministic for one numpy, unlike page faults."""

    def test_a_full_determinant_block_allocates_about_one_stack(self):
        # 28 wavenumbers of 30 cracks fill one block: its 253 KiB stack, equilibrated in place.
        problem, lams = _equal_cracks(30), np.linspace(1.05, 9.95, 28)
        assert _peak_bytes(lambda: shifrin.char_det(problem, lams)) <= 384 * 1024

    def test_oracle_modes_add_the_border_in_place(self):
        problem = _equal_cracks(30)
        roots = np.array(transition.find_eigenvalues(problem, 5))
        assert _peak_bytes(lambda: transition._modes_from_roots(problem, roots)) < 607 * 1024

    def test_jump_amplitude_modes_are_built_a_block_at_a_time(self):
        # One (mode, crack, interval, 4) table of all 20 modes would take 6.2 MiB.
        problem, lams = _equal_cracks(100), np.linspace(1.1, 19.9, 20)
        vecs = np.random.default_rng(0).standard_normal((20, 104))
        assert _peak_bytes(lambda: shifrin._eigenpairs(problem, lams, vecs)) <= 1.5 * 2**20

    def test_a_thousand_modes_normalize_within_a_few_tables(self, one_crack_problem):
        lams = np.sort(np.random.default_rng(1).uniform(0.5, 1000.0, 1000))
        rows = np.random.default_rng(2).standard_normal((1000, 2, 4))
        rule = QuadratureRule.for_problem(one_crack_problem, lams.max())
        bp = one_crack_problem.breakpoints
        assert _peak_bytes(lambda: modes._normalized(lams, rows, bp, rule)) <= 4 * 2**20


def _looped_normalized(lams, rows, breakpoints, rule) -> np.ndarray:
    """Each mode's norm taken alone, then the sign rule of ``modes._normalized``."""
    out = []
    for lam, co in zip(lams.tolist(), rows):
        form = PiecewiseForm(lam, breakpoints, co)
        values = form.eval(rule.nodes)
        norm = np.sqrt(rule.integrate(values * values))
        slope, third = form.eval(0.0, 1, "R"), form.eval(0.0, 3, "R")
        up = (slope if slope != 0.0 else third if third != 0.0 else 1.0) > 0.0
        out.append(co * ((1.0 if up else -1.0) / norm))
    return np.array(out)


class TestStackedNormalization:
    @pytest.mark.parametrize("count", [5, 40, 340])
    @pytest.mark.parametrize("path", FIXTURES[:3], ids=lambda p: p.stem)
    def test_stacked_norms_equal_one_mode_normalization(self, path, count):
        problem = load_problem_file(path)[0]
        roots = np.array(shifrin.find_eigenvalues(problem, count))
        raw = transition._modes_from_roots(problem, roots)
        rule = QuadratureRule.for_problem(problem, roots.max())
        bp = problem.breakpoints
        stacked = modes._normalized(roots, raw, bp, rule)
        one_by_one = [
            normalize_eigenpair(Eigenpair(lam, PiecewiseForm(lam, bp, co)), rule)
            for lam, co in zip(roots.tolist(), raw)
        ]
        assert _bits(stacked) == _bits([p.piecewise.coefficients for p in one_by_one])
        # The loop reads the sign off phi'(0+) times lam, a positive factor: the same signs.
        assert _bits(stacked) == _bits(_looped_normalized(roots, raw, bp, rule))


def _looped_checks(problem, spectrum, oracle) -> dict[str, list[float]]:
    """Every check per mode, one mode at a time: the loop ``verify`` was before it took the
    stacked tables, with each Gram entry charged to the higher of its two modes."""
    pairs = spectrum.pairs
    rule = QuadratureRule.for_problem(problem, lam=spectrum.lambdas.max())
    gram = np.abs(gram_matrix(pairs, rule) - np.eye(len(pairs)))
    norms = np.diag(gram_matrix(pairs, rule)).tolist()
    grid = np.linspace(0.0, math.pi, spectral.CROSS_GRID_POINTS)
    out = {name: [] for name in cli.THRESHOLDS}
    for k, (pair, other, h) in enumerate(zip(pairs, oracle.pairs, norms)):
        report = residual_report(pair, problem)
        for family in spectral.FAMILIES:
            out[family].append(report.worst()[family] / report.scale)
        out["ode_residual"].append(report.ode_residual / report.lam**4)
        out["h_normalization"].append(abs(h - 1.0))
        out["gram_identity"].append(max(gram[k, : k + 1].max(), gram[: k + 1, k].max()))
        rayleigh = a_form(pair, pair, problem, rule) / h
        out["rayleigh"].append(abs(rayleigh - pair.lam**4) / pair.lam**4)
        out["cross_solver_lambda"].append(abs(pair.lam - other.lam))
        out["cross_solver_modes"].append(float(np.max(np.abs(pair.eval(grid) - other.eval(grid)))))
    return out


def _looped_verify(problem, spectrum, oracle) -> dict[str, float]:
    """``verify`` as a loop over residual_report, gram_matrix and a_form, maxing as it did."""
    pairs = spectrum.pairs
    rule = QuadratureRule.for_problem(problem, lam=spectrum.lambdas.max())
    reports = [residual_report(p, problem) for p in pairs]
    worst = {f: max(r.worst()[f] / r.scale for r in reports) for f in spectral.FAMILIES}
    worst["ode_residual"] = max(r.ode_residual / r.lam**4 for r in reports)
    gram = gram_matrix(pairs, rule)
    norms = np.diag(gram).tolist()
    worst["h_normalization"] = max(abs(h - 1.0) for h in norms)
    worst["gram_identity"] = float(np.max(np.abs(gram - np.eye(len(pairs)))))
    worst["rayleigh"] = max(
        abs(a_form(p, p, problem, rule) / h - p.lam**4) / p.lam**4 for p, h in zip(pairs, norms)
    )
    grid = np.linspace(0.0, math.pi, spectral.CROSS_GRID_POINTS)
    worst["cross_solver_lambda"] = float(np.max(np.abs(spectrum.lambdas - oracle.lambdas)))
    worst["cross_solver_modes"] = max(
        float(np.max(np.abs(ps.eval(grid) - pt.eval(grid))))
        for ps, pt in zip(spectrum.pairs, oracle.pairs)
    )
    return worst


def _hex(values: dict) -> dict:
    return {name: [float(v).hex() for v in np.atleast_1d(value)] for name, value in values.items()}


class TestModeChecks:
    @pytest.mark.parametrize("count", [5, 20, 40])
    @pytest.mark.parametrize("path", FIXTURES, ids=lambda p: p.stem)
    def test_verify_equals_the_per_mode_loop_bit_for_bit(self, path, count):
        problem = load_problem_file(path)[0]
        jump = shifrin.compute_spectrum(problem, count)
        oracle = transition.oracle_eigenpairs(problem, count)
        for spectrum, other in ((jump, oracle), (oracle, jump)):
            got = spectral.verify(spectrum, other)
            assert list(got) == list(cli.THRESHOLDS)
            assert _hex(got) == _hex(_looped_verify(problem, spectrum, other))

    @pytest.mark.parametrize("path", FIXTURES, ids=lambda p: p.stem)
    def test_per_mode_values_equal_the_loop_and_max_to_verify(self, path):
        problem = load_problem_file(path)[0]
        jump = shifrin.compute_spectrum(problem, 20)
        oracle = transition.oracle_eigenpairs(problem, 20)
        checks = spectral.mode_checks(jump, oracle)
        assert list(checks) == list(cli.THRESHOLDS)
        assert all(values.shape == (20,) for values in checks.values())
        assert _hex(checks) == _hex(_looped_checks(problem, jump, oracle))
        worst = {name: float(np.max(values)) for name, values in checks.items()}
        assert worst == spectral.verify(jump, oracle)

    def test_gram_entries_charge_the_higher_mode_both_ways(self, two_crack_problem):
        spectrum = shifrin.compute_spectrum(two_crack_problem, 6)
        # Mode 6 repeats mode 2: the entries (2, 6) and (6, 2) read 1, charged to mode 6 alone.
        rows = [0, 1, 2, 3, 4, 1]
        repeated = replace(
            spectrum, lambdas=spectrum.lambdas[rows], coefficients=spectrum.coefficients[rows]
        )
        checks = spectral.mode_checks(repeated, spectrum)
        gram = checks["gram_identity"]
        assert abs(gram[5] - 1.0) < 1e-12 and np.all(gram[:5] < 1e-10)


class TestRowFormatting:
    @staticmethod
    def _cell(value) -> str:
        """The per-cell formatting the row format replaced."""
        return f"{value:.15g}" if isinstance(value, float) else str(value)

    def test_rows_format_as_each_cell_did(self):
        specials = [-0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, 1e300, -1e-300, 0.1 + 0.2]
        rows = [[k, x, side, x * 3.0] for k, x in enumerate(specials) for side in ("", "L")]
        rows.append([10**20, -7.0, "R", 1.0])
        args = argparse.Namespace(format="csv")
        text = cli._emit_table(args, ["k", "x", "side", "y"], rows)
        want = "\n".join(["k,x,side,y", *(",".join(map(self._cell, row)) for row in rows)]) + "\n"
        assert text == want
