"""Root isolation by an exact count of roots, and lockstep bisection.

A count N(lam) of the roots below lam puts them in unit windows, and halving a window on the
count parts roots however close they lie.  Each one-root window is then a bracket that
bisection refines to floating-point resolution, all brackets in lockstep: each call evaluates,
per bracket, the midpoints bisection would visit if the root lay where the bracket's secant
puts it, and the bracket halves through them while that prediction holds.  So the roots are
those of bracket-by-bracket bisection; the secant only decides which points are evaluated
ahead of time.  Every function here takes a 1-D array of wavenumbers to the array of values.
"""

from __future__ import annotations

import numpy as np

# Bisect until the bracket collapses at floating-point resolution: residuals of
# recovered modes inherit the wavenumber error, so the root should be as tight
# as doubles allow (well inside the 1e-12 contract).
BISECT_TOL = 0.0

# Most midpoints of each bracket's secant-predicted path per bisection call.
# A call costs a fixed overhead plus a little per wavenumber, and the
# prediction mostly holds, so a long path saves calls; a path longer than the
# prediction holds only wastes wavenumbers.  Between 8 and 16, the length
# barely moves 1-3 crack solves, while at 30 cracks paths of 14 and 16 were
# slower than 10 or 12 (the perfbench sweep and dense_cracks workloads).
_PATH_LEVELS = 10

# Smallest wavenumber a determinant accepts: below about 1e-154 its square is no
# normal double, and the paper's kernel M_i and the jump-amplitude nullspace overflow.
MIN_WAVENUMBER = 1e-100

# Largest wavenumber a determinant accepts: the jump-amplitude system holds lam**2 (as
# theta lam**2 and lam * lam), which overflows from about 1.3e154.
MAX_WAVENUMBER = 1e100

# Matrix entries one batched determinant call may hold in a stack (256 KiB of
# doubles); with many cracks this caps the wavenumbers per stack, and with it
# the peak memory of a solve.
_STACK_ENTRIES = 2**15


class RootCountError(RuntimeError):
    """Fewer than ``requested`` roots below ``lam_max``; ``found`` holds the first of them.
    ``lost``: the count places more below it, but they could not be isolated or bracketed."""

    def __init__(self, requested: int, found: list[float], lam_max: float, lost: bool = False):
        self.requested = requested
        self.found = found
        self.lam_max = lam_max
        hint = "the solve lost roots below the ceiling" if lost else "raise the scan ceiling"
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


def wavenumbers(lams) -> np.ndarray:
    """``lams`` as a float array: the one check of the range every determinant, system and kernel
    accepts.  NaN or an entry outside [MIN_WAVENUMBER, MAX_WAVENUMBER] raises ValueError."""
    arr = np.asarray(lams, dtype=float)
    if not ((arr >= MIN_WAVENUMBER) & (arr <= MAX_WAVENUMBER)).all():
        if np.isnan(arr).any():
            raise ValueError("wavenumber must not be NaN")
        if (arr <= 0.0).any():
            raise ValueError("wavenumber must be positive")
        if (arr < MIN_WAVENUMBER).any():
            raise ValueError(f"wavenumber must be at least {MIN_WAVENUMBER:g}")
        raise ValueError(f"wavenumber must be at most {MAX_WAVENUMBER:g}")
    return arr


def blockwise(fn, lams, entries_per_lam: int):
    """Evaluate ``fn`` on the :func:`wavenumbers` ``lams``, a bounded slice at a time.

    ``fn`` maps a 1-D array of wavenumbers to its values, stacked on the first
    axis, and builds ``entries_per_lam`` stack entries for each; slices keep
    that within ``_STACK_ENTRIES``.  A scalar ``lams`` gives a float, an array
    the array of its shape followed by the shape of one value.
    """
    arr = wavenumbers(lams)
    flat = arr.reshape(-1)
    block = max(1, _STACK_ENTRIES // entries_per_lam)
    parts = [fn(flat[i : i + block]) for i in range(0, flat.size, block)] or [np.empty(0)]
    out = parts[0] if len(parts) == 1 else np.concatenate(parts)  # one block: no copy
    return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape + out.shape[1:])


def _off_integers(lams: np.ndarray) -> np.ndarray:
    """``lams``, each moved just below where it is an integer: the count is singular there."""
    return np.where(lams == np.round(lams), lams * (1.0 - 2.0**-30), lams)


def find_roots(f, count: int, lam_max: float, counter):
    """First ``count`` positive roots of ``f`` below ``lam_max``, isolated by ``counter``.

    ``counter`` gives the number of roots below each wavenumber, NaN where it cannot tell, and
    the count-th root must lie below count + 0.5, as interlacing puts a hinged beam's.  One
    call counts at 0.5, 1.5 ... count + 0.5, cut at ``lam_max``; windows holding several
    roots, or starting at 0, where no determinant can be evaluated, are halved on the count in
    lockstep, and each one-root window is bisected on ``f``.  :class:`RootCountError` carries
    the roots below the first window that failed: a count that is NaN or falls, roots one
    double apart, or ``f`` of one sign across a one-root window.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    lam_max = float(wavenumbers(lam_max))
    top = min(count + 0.5, lam_max)
    pts = _off_integers(np.array([0.0, *(k + 0.5 for k in range(count) if k + 0.5 < top), top]))
    below = np.concatenate(([0.0], counter(pts[1:])))  # roots below each point
    lost = False
    while True:
        rises = np.diff(below)
        failed = ~(rises >= 0.0)  # no root above a count that is NaN or falls can be placed
        if failed.any():
            keep = int(np.argmax(failed)) + 1
            pts, below, rises, lost = pts[:keep], below[:keep], rises[: keep - 1], True
        split = (rises > 1.0) | ((pts[:-1] == 0.0) & (rises > 0.0))
        split = np.flatnonzero(split & (below[:-1] < count))
        if not split.size:
            break
        lo, hi = pts[split], pts[split + 1]
        mids = _off_integers(0.5 * (lo + hi))
        counts = np.asarray(counter(mids), dtype=float)
        counts[~((lo < mids) & (mids < hi))] = np.nan  # roots one double apart
        pts, below = np.insert(pts, split + 1, mids), np.insert(below, split + 1, counts)

    one = np.flatnonzero((rises == 1.0) & (below[:-1] < count))
    ends = np.union1d(one, one + 1)
    values = np.asarray(f(pts[ends]), dtype=float)
    fa, fb = (values[np.searchsorted(ends, k)] for k in (one, one + 1))
    good = int(np.argmin(np.append(np.sign(fa) * np.sign(fb) <= 0.0, False)))
    roots = bisect(f, pts[one[:good]], pts[one[:good] + 1], fa[:good], fb[:good]).tolist()
    if len(roots) < count:
        # Interlacing puts the count-th root below count + 0.5: a count short of it failed.
        raise RootCountError(count, roots, lam_max, lost=lost or good < one.size or top < lam_max)
    # The empty list keeps the (roots, diagnostics) shape the benchmark's span hooks unpack.
    return roots, []
