"""Sign-change scanning and bisection for characteristic determinants.

Eigenvalues are simple zeros of a smooth real function of the wavenumber, so
a fixed-step scan followed by bisection is reliable as long as the step is
well below the eigenvalue spacing (which is near 1 for hinged beams).  A
near-zero local minimum of |f| without a sign change is flagged instead of
silently skipped, since it hints at a double root straddled by the grid.

The function being scanned takes a 1-D array of wavenumbers and returns the
array of its values, so that a determinant can be assembled for many
wavenumbers in one pass.  The scan evaluates the grid in chunks and then
walks the values in grid order; bisection refines every bracket in lockstep,
two halvings per call.  Both give exactly the roots a point-by-point scan
would, since each bracket sees the same midpoints and the same values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_STEP = 0.01
# Bisect until the bracket collapses at floating-point resolution; residuals
# of reconstructed modes inherit the wavenumber error amplified by hyperbolic
# growth, so the root should be as tight as doubles allow (well inside the
# 1e-12 contract).
BISECT_TOL = 0.0

# A gridpoint counts as a double-root suspect when |f| dips below this
# fraction of the largest |f| seen so far without changing sign.
SUSPECT_RATIO = 1e-8

# Grid points evaluated per call during the scan.  Larger chunks cost little
# per point but waste more evaluations past the last requested root.
_SCAN_CHUNK = 128

# Halvings of each bracket per bisection call.  A call costs a fixed overhead
# plus a little per wavenumber, so evaluating 2**levels - 1 points to advance
# each bracket by `levels` halvings pays off while brackets are few; deeper
# trees waste more points than the calls they save.
_BISECT_LEVELS = 2

# Matrix entries one batched determinant call may hold in a stack (256 KiB of
# doubles); with many cracks this caps the wavenumbers per stack, and with it
# the peak memory of a solve.
_STACK_ENTRIES = 2**15


class RootCountError(RuntimeError):
    """Scan exhausted its range before finding the requested number of roots."""

    def __init__(self, requested: int, found: list[float], lam_max: float):
        self.requested = requested
        self.found = found
        self.lam_max = lam_max
        super().__init__(
            f"found {len(found)} of {requested} requested roots below lambda = {lam_max}; "
            "raise the scan ceiling"
        )


@dataclass(frozen=True)
class ScanDiagnostic:
    """Note about a suspicious point seen during the scan."""

    kind: str
    lam: float
    value: float


def _subtree(a: float, b: float) -> list[float]:
    """Midpoints of the next ``_BISECT_LEVELS`` halvings of [a, b], in heap order.

    Node j splits its interval at its midpoint; its halves are nodes 2j+1
    (left) and 2j+2 (right).
    """
    spans, mids = [(a, b)], []
    for node in range(2**_BISECT_LEVELS - 1):
        lo, hi = spans[node]
        mid = 0.5 * (lo + hi)
        mids.append(mid)
        spans += [(lo, mid), (mid, hi)]
    return mids


def bisect(f, a, b, fa, fb, tol: float = BISECT_TOL):
    """Bisect every bracket [a_k, b_k] in lockstep; returns the midpoints at tolerance.

    ``a``, ``b``, ``fa`` and ``fb`` are scalars or equal-length 1-D arrays.
    Each call of ``f`` evaluates the next two halvings of every bracket still
    open (its midpoint and both quarter points), and each bracket then takes
    the one or two steps its signs select; a bracket closes when it reaches
    ``tol``, when its midpoint no longer lies strictly inside, or when ``f``
    vanishes there.  Every bracket follows the same midpoint sequence as it
    would alone, one point per halving; the quarter point it does not step
    to is wasted.
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
    width = 2**_BISECT_LEVELS - 1
    while live:
        todo, points = [], []
        for k in live:
            mid = 0.5 * (a[k] + b[k])
            if b[k] - a[k] > tol and a[k] < mid < b[k]:
                todo.append(k)
                points += _subtree(a[k], b[k])
            else:
                out[k] = mid
        if not todo:
            break
        values = np.asarray(f(np.array(points)), dtype=float).tolist()
        live = []
        for n, k in enumerate(todo):
            node = 0
            for _ in range(_BISECT_LEVELS):
                mid = 0.5 * (a[k] + b[k])
                if not (b[k] - a[k] > tol and a[k] < mid < b[k]):
                    out[k] = mid
                    break
                fm = values[n * width + node]
                if fm == 0.0:
                    out[k] = mid
                    break
                if (fm > 0.0) == (fa[k] > 0.0):
                    a[k], fa[k] = mid, fm
                    node = 2 * node + 2
                else:
                    b[k] = mid
                    node = 2 * node + 1
            else:
                live.append(k)
    return out[0] if scalar else np.array(out)


def blockwise(fn, lams, entries_per_lam: int):
    """Evaluate ``fn`` on the wavenumbers ``lams``, a bounded slice at a time.

    ``fn`` maps a 1-D array of wavenumbers to the 1-D array of its values and
    builds ``entries_per_lam`` stack entries for each; slices are sized to
    keep that within ``_STACK_ENTRIES``.  A scalar ``lams`` gives a float,
    an array gives an array of its shape; a nonpositive wavenumber raises
    ValueError.
    """
    arr = np.asarray(lams, dtype=float)
    if (arr <= 0.0).any():
        raise ValueError("wavenumber must be positive")
    flat = arr.reshape(-1)
    out = np.empty(flat.size)
    block = max(1, _STACK_ENTRIES // entries_per_lam)
    for start in range(0, flat.size, block):
        out[start : start + block] = fn(flat[start : start + block])
    return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)


def _grid_values(f, lo: float, step: float, n_points: int):
    """Yield ``(lo + k*step, f(lo + k*step))`` for k < n_points, evaluated in chunks."""
    for start in range(0, n_points, _SCAN_CHUNK):
        lams = lo + np.arange(start, min(start + _SCAN_CHUNK, n_points)) * step
        yield from zip(lams.tolist(), np.asarray(f(lams), dtype=float).tolist())


def find_roots(
    f,
    count: int,
    lam_max: float,
    step: float = DEFAULT_STEP,
    lam_min: float | None = None,
) -> tuple[list[float], list[ScanDiagnostic]]:
    """First ``count`` positive roots of ``f`` below ``lam_max``.

    ``f`` maps a 1-D array of wavenumbers to the array of its values.  Scans
    a uniform grid from ``lam_min`` (default: one step) and bisects every
    bracket.  Raises :class:`RootCountError` when the range runs out first;
    the exception carries the roots that were found.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    if step <= 0.0:
        raise ValueError("step must be positive")
    lo = step if lam_min is None else lam_min
    if lo <= 0.0:
        raise ValueError("scan must start at a positive wavenumber")

    # Exact zeros go straight into ``roots``; a bracket holds the place of
    # its root until the lockstep bisection below fills it in.
    roots: list[float] = []
    brackets: list[tuple[int, float, float, float, float]] = []
    diagnostics: list[ScanDiagnostic] = []
    n_steps = max(0, int(round((lam_max - lo) / step)))
    grid = _grid_values(f, lo, step, n_steps + 1)
    prev_lam, prev_val = next(grid)
    # Track the two previous |f| values to spot dips without a sign change.
    hist = [abs(prev_val)]
    scale = abs(prev_val)

    if prev_val == 0.0:
        roots.append(prev_lam)

    for lam, val in grid:
        if len(roots) >= count:
            break
        scale = max(scale, abs(val))
        if val == 0.0:
            roots.append(lam)
        elif prev_val != 0.0 and (val > 0.0) != (prev_val > 0.0):
            brackets.append((len(roots), prev_lam, lam, prev_val, val))
            roots.append(lam)
        elif (
            len(hist) >= 2
            and hist[-1] < hist[-2]
            and abs(val) > hist[-1]
            and hist[-1] < SUSPECT_RATIO * scale
            and prev_val != 0.0
        ):
            diagnostics.append(ScanDiagnostic("possible_double_root", prev_lam, prev_val))
        hist.append(abs(val))
        if len(hist) > 2:
            hist.pop(0)
        prev_lam, prev_val = lam, val

    if brackets:
        slots, *ends = zip(*brackets)
        for slot, root in zip(slots, bisect(f, *ends).tolist()):
            roots[slot] = root
    if len(roots) < count:
        raise RootCountError(count, roots, lam_max)
    return roots[:count], diagnostics


def first_roots(det, problem, count: int, lam_max: float | None = None, step: float = DEFAULT_STEP):
    """First ``count`` roots of ``det(problem, lams)`` with their scan diagnostics.

    The scan ceiling defaults to ``count + m + 5`` for a problem with m
    cracks.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    if lam_max is None:
        lam_max = count + problem.m + 5
    return find_roots(lambda lams: det(problem, lams), count, lam_max, step=step)
