"""Sign-change scanning and bisection for characteristic determinants.

Eigenvalues are simple zeros of a smooth real function of the wavenumber, so
a fixed-step scan followed by bisection is reliable as long as the step is
well below the eigenvalue spacing (which is near 1 for hinged beams).

The function being scanned takes a 1-D array of wavenumbers and returns the
array of its values, so that a determinant can be assembled for many
wavenumbers in one pass.  The scan evaluates the grid in chunks and finds
each chunk's zeros and sign changes at once, taking them in grid order.
A known lower bound on the last requested root lets the first call take every
chunk up to it, and later chunks follow one per call: the points stay the same.
Bisection refines every bracket in lockstep: each call evaluates, per
bracket, the run of midpoints bisection would visit if the root lay where
the bracket's secant puts it, and the bracket halves through those values
for as long as the prediction holds.  Both give exactly the roots a
point-by-point scan would, since each bracket sees the same midpoints and
the same values; the secant only decides which points are evaluated ahead
of time.
"""

from __future__ import annotations

import math

import numpy as np

DEFAULT_STEP = 0.01
# Bisect until the bracket collapses at floating-point resolution; residuals
# of reconstructed modes inherit the wavenumber error amplified by hyperbolic
# growth, so the root should be as tight as doubles allow (well inside the
# 1e-12 contract).
BISECT_TOL = 0.0

# Grid points evaluated per call during the scan.  Larger chunks cost little
# per point but waste more evaluations past the last requested root.
_SCAN_CHUNK = 128

# Most midpoints of each bracket's secant-predicted path per bisection call.
# A call costs a fixed overhead plus a little per wavenumber, and the
# prediction mostly holds, so a long path saves calls; a path longer than the
# prediction holds only wastes wavenumbers.  Between 8 and 16, the length
# barely moves 1-3 crack solves, while at 30 cracks paths of 14 and 16 were
# slower than 10 or 12 (the perfbench sweep and dense_cracks workloads).
_PATH_LEVELS = 10

# Smallest wavenumber a determinant accepts.  Its cube must be a normal
# double: below about 1e-103 the cube underflows and the transfer matrix
# divides by zero.
MIN_WAVENUMBER = 1e-100

# Largest wavenumber a determinant accepts.  Its cube must be finite: from
# about 5.6e102 the cube overflows in the state map.
MAX_WAVENUMBER = 1e100

# Matrix entries one batched determinant call may hold in a stack (256 KiB of
# doubles); with many cracks this caps the wavenumbers per stack, and with it
# the peak memory of a solve.  It also caps the points of one scan call.
_STACK_ENTRIES = 2**15


class RootCountError(RuntimeError):
    """Scan ran out of range short of ``requested`` roots; ``lost``: it passed their bound."""

    def __init__(self, requested: int, found: list[float], lam_max: float, lost: bool = False):
        self.requested = requested
        self.found = found
        self.lam_max = lam_max
        hint = "the determinant lost roots below the ceiling" if lost else "raise the scan ceiling"
        super().__init__(
            f"found {len(found)} of {requested} requested roots below lambda = {lam_max}; {hint}"
        )


def _secant_path(a: float, b: float, fa: float, fb: float, tol: float) -> list[float]:
    """Midpoints that bisecting [a, b] visits if the root lies where the secant says.

    From each midpoint the path moves to the half holding the regula-falsi
    guess; it ends after ``_PATH_LEVELS`` points or where bisection would
    close.  The guess only chooses points: a NaN guess gives a valid
    (leftward) path.
    """
    guess = a - fa * (b - a) / (fb - fa)
    lo, hi, path = a, b, []
    while len(path) < _PATH_LEVELS:
        mid = 0.5 * (lo + hi)
        if not (hi - lo > tol and lo < mid < hi):
            break
        path.append(mid)
        if mid < guess:
            lo = mid
        else:
            hi = mid
    return path


def bisect(f, a, b, fa, fb, tol: float = BISECT_TOL):
    """Bisect every bracket [a_k, b_k] in lockstep; returns the midpoints at tolerance.

    ``a``, ``b``, ``fa`` and ``fb`` are scalars or equal-length 1-D arrays.
    A bracket closes when it reaches ``tol``, when its midpoint no longer lies
    strictly inside, or when ``f`` vanishes there.  Each call of ``f``
    evaluates the secant-predicted path (:func:`_secant_path`) of every
    bracket still open, and each bracket halves through those values while
    its own midpoint is the next point of its path; at the first that is not,
    it carries over to the next call.  So every bracket visits the same
    midpoints, and sees the same values there, as it would alone: the secant
    only decides how many halvings one call covers.
    """
    scalar = np.ndim(a) == 0
    a, b, fa, fb = (np.atleast_1d(np.asarray(v, dtype=float)).tolist() for v in (a, b, fa, fb))
    out = [0.0] * len(a)
    live = []
    for k in range(len(a)):
        if fa[k] == 0.0:
            out[k] = a[k]
        elif fb[k] == 0.0:
            out[k] = b[k]
        elif (fa[k] > 0.0) == (fb[k] > 0.0):
            raise ValueError(f"no sign change on [{a[k]}, {b[k]}]")
        else:
            live.append(k)
    while live:
        todo, paths = [], []
        for k in live:
            path = _secant_path(a[k], b[k], fa[k], fb[k], tol)
            if path:
                todo.append(k)
                paths.append(path)
            else:
                out[k] = 0.5 * (a[k] + b[k])
        if not todo:
            break
        points = [x for path in paths for x in path]
        values = np.asarray(f(np.array(points)), dtype=float).tolist()
        live, start = [], 0
        for k, path in zip(todo, paths):
            fms = values[start : start + len(path)]
            start += len(path)
            for point, fm in zip(path, fms):
                # Past a wrong side the bracket's midpoints leave the path;
                # where bisection would close, the next path is empty.
                if 0.5 * (a[k] + b[k]) != point:
                    live.append(k)
                    break
                if fm == 0.0:
                    out[k] = point
                    break
                if (fm > 0.0) == (fa[k] > 0.0):
                    a[k], fa[k] = point, fm
                else:
                    b[k], fb[k] = point, fm
            else:
                live.append(k)
    return out[0] if scalar else np.array(out)


def blockwise(fn, lams, entries_per_lam: int):
    """Evaluate ``fn`` on the wavenumbers ``lams``, a bounded slice at a time.

    ``fn`` maps a 1-D array of wavenumbers to the 1-D array of its values and
    builds ``entries_per_lam`` stack entries for each; slices are sized to
    keep that within ``_STACK_ENTRIES``.  A scalar ``lams`` gives a float,
    an array gives an array of its shape; a nonpositive wavenumber, or one
    below ``MIN_WAVENUMBER`` or above ``MAX_WAVENUMBER``, raises ValueError.
    """
    arr = np.asarray(lams, dtype=float)
    if (arr < MIN_WAVENUMBER).any():
        if (arr <= 0.0).any():
            raise ValueError("wavenumber must be positive")
        raise ValueError(f"wavenumber must be at least {MIN_WAVENUMBER:g}")
    if (arr > MAX_WAVENUMBER).any():
        raise ValueError(f"wavenumber must be at most {MAX_WAVENUMBER:g}")
    flat = arr.reshape(-1)
    block = max(1, _STACK_ENTRIES // entries_per_lam)
    parts = [fn(flat[i : i + block]) for i in range(0, flat.size, block)] or [np.empty(0)]
    out = parts[0] if len(parts) == 1 else np.concatenate(parts)  # one block: no copy
    return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)


def find_roots(f, count: int, lam_max: float, step: float = DEFAULT_STEP, bounds=(0.0, math.inf)):
    """First ``count`` positive roots of ``f`` below ``lam_max``.

    ``f`` maps a 1-D array of wavenumbers to the array of its values.  Scans
    a uniform grid from one step and bisects every bracket.  ``bounds`` holds
    the count-th root: the first call scans up to its lower end.  Raises
    :class:`RootCountError` when the range runs out first; the exception
    carries the roots that were found.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    if step <= 0.0:
        raise ValueError("step must be positive")

    # Exact zeros go straight into ``roots``; a bracket holds the place of
    # its root until the lockstep bisection below fills it in.
    roots: list[float] = []
    brackets: list[tuple[int, float, float, float, float]] = []
    n_points = max(0, int(round((lam_max - step) / step))) + 1
    # The first call ends with the chunk holding the lowest grid point >= bounds[0].
    low = max(0, math.ceil((bounds[0] - step) / step))
    start, stop = 0, min(n_points, _STACK_ENTRIES, _SCAN_CHUNK * (low // _SCAN_CHUNK + 1))
    # Each chunk is scanned behind the last point of the one before; ahead of
    # the grid that point is a zero, so the first grid point is a root only
    # where f vanishes.
    lams, vals = np.zeros(1), np.zeros(1)
    while start < n_points and len(roots) < count:
        chunk = step + np.arange(start, stop) * step
        lams = np.concatenate((lams[-1:], chunk))
        vals = np.concatenate((vals[-1:], np.asarray(f(chunk), dtype=float)))
        prev, val = vals[:-1], vals[1:]
        hits = (val == 0.0) | ((prev != 0.0) & ((val > 0.0) != (prev > 0.0)))
        for k in np.flatnonzero(hits)[: count - len(roots)].tolist():
            if val[k] != 0.0:
                brackets.append((len(roots), lams[k], lams[k + 1], prev[k], val[k]))
            roots.append(float(lams[k + 1]))
        start, stop = stop, min(n_points, stop + _SCAN_CHUNK)

    if brackets:
        slots, *ends = zip(*brackets)
        for slot, root in zip(slots, bisect(f, *ends).tolist()):
            roots[slot] = root
    if len(roots) < count:
        raise RootCountError(count, roots, lam_max, lost=lams[-1] > bounds[1])
    # The empty list keeps the (roots, diagnostics) shape the benchmark's span hooks unpack.
    return roots, []


def first_roots(det, problem, count: int, lam_max: float | None = None):
    """First ``count`` roots of ``det(problem, lams)``.

    The scan ceiling defaults to ``count + m + 5`` for a problem with m
    cracks.  Interlacing with the uncracked beam's integer roots puts the
    count-th root in [count - m, count].
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    if lam_max is None:
        lam_max = count + problem.m + 5
    bounds = (count - problem.m, count)
    return find_roots(lambda lams: det(problem, lams), count, lam_max, bounds=bounds)[0]
