"""Root isolation by an exact count of roots, and lockstep refinement of each root's bracket.

A count N(lam) of the roots below lam puts them in unit windows, and halving a window on the
count parts roots however close they lie.  Each one-root window is then a bracket that
safeguarded two-sided secant steps refine to adjacent doubles, all brackets in lockstep: one
call of the determinant evaluates a few points of every open bracket, the first call every
window's ends and a coarse grid inside it.  Wherever the sign of the determinant changes
exactly once, the root is the one bisection finds.  Every function here takes a 1-D array of
wavenumbers to the array of values.
"""

from __future__ import annotations

import math

import numpy as np

# A bracket's first call takes its ends and _FIRST_GRID evenly spaced points inside it.  A
# secant step that left more than a quarter of its bracket was mispredicted: the next call
# takes _GRID evenly spaced points instead.
_FIRST_GRID = 7
_GRID = 15

# A bracket with at most this many doubles inside has every one of them evaluated.
_ENUMERATE = 24

# Smallest wavenumber a determinant accepts: below about 1e-154 its square is no
# normal double, and the paper's kernel M_i and the jump-amplitude nullspace overflow.
MIN_WAVENUMBER = 1e-100

# Largest wavenumber a determinant accepts: the jump-amplitude system holds lam**2 (as
# theta lam**2 and lam * lam), which overflows from about 1.3e154.
MAX_WAVENUMBER = 1e100

# Entries one stacked call may hold (256 KiB of doubles): a batch's matrix entries, the
# terms of a block of recovered modes, or the values of a (modes, points) table.  With many
# cracks or points this caps the wavenumbers or modes per stack, and with it the peak memory
# of a solve.
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


def _grid(a: float, b: float, n: int) -> list[float]:
    """``n`` evenly spaced points inside [a, b]: distinct while every gap spans over 1.5 doubles."""
    step = (b - a) / (n + 1)
    return [a + k * step for k in range(1, n + 1)]


def _points(a: float, b: float, fa: float, fb: float, c, fc: float, shrunk: bool) -> list[float]:
    """Points to evaluate inside the bracket [a, b] in one call, in order; none once a and b
    are adjacent doubles.  ``(c, fc)`` is the point evaluated nearest outside the bracket, None
    before the first call, and ``shrunk`` whether the last call left at most a quarter of it."""
    if b - a <= (_ENUMERATE + 1) * math.ulp(max(abs(a), abs(b))):  # no gap exceeds that ulp
        x, every = math.nextafter(a, b), []
        while x < b and len(every) < _ENUMERATE:
            every.append(x)
            x = math.nextafter(x, b)
        return every
    if c is None:  # the first call: no outside point to estimate a secant step's error
        return _grid(a, b, _FIRST_GRID)
    # The root lies about f[c, a, b] (guess - a)(guess - b) / f[a, b] from the secant guess.
    guess = a + fa / (fa - fb) * (b - a)
    ratio = (fa - fc) / (fb - fa) * (b - a) / (a - c)  # f[c, a] / f[a, b]
    err = abs((1.0 - ratio) * (guess - a) * (guess - b) / (b - c))
    if shrunk and math.isfinite(err):
        guess = min(max(guess, math.nextafter(a, b)), math.nextafter(b, a))
        spread = max(4.0 * err, math.ulp(guess))
        return [x for x in (guess - spread, guess, guess + spread) if a < x < b]
    return _grid(a, b, _GRID)


def bisect(f, a, b):
    """Refine every sign-change bracket [a_k, b_k] in lockstep to adjacent doubles.

    ``a`` and ``b`` are equal-length 1-D arrays of bracket ends.  Each call of ``f`` evaluates
    a few points of every bracket still open.  The first call evaluates each bracket's ends
    and a grid of ``_FIRST_GRID`` points inside it; an end that a bracket shares with the one
    before it is evaluated once.  Every later call is a safeguarded two-sided secant step: the
    regula-falsi guess, moved to the adjacent double if it rounds onto an end, and the guess
    plus and minus four times its error estimated from the divided difference through the
    nearest point outside the bracket.  A bracket whose last step left more than a quarter of
    it gets a grid of ``_GRID`` points instead, and one with at most ``_ENUMERATE`` doubles
    left has all of them evaluated.  The bracket becomes the first pair of consecutive points
    across which ``f > 0`` flips: a zero counts with the non-positive side.  It closes only
    at 0.5 (a + b) once a and b are adjacent doubles, after the first call at the latest:
    wherever the sign of ``f`` changes exactly once, that is the root plain bisection finds,
    and an exact zero inside the bracket comes back within one ulp.  A bracket whose ends are
    not of strictly opposite signs (one sign, a zero or NaN) gives NaN.
    """
    a, b = (np.asarray(v, dtype=float).tolist() for v in (a, b))
    fa, fb, out = [0.0] * len(a), [0.0] * len(a), [None] * len(a)
    c, fc, shrunk = [None] * len(a), [0.0] * len(a), [False] * len(a)
    live = list(range(len(a)))
    while live:
        todo, flat = [], []  # (bracket, its points, where they start in flat)
        for k in live:
            xs = _points(a[k], b[k], fa[k], fb[k], c[k], fc[k], shrunk[k])
            if c[k] is None:
                xs = [a[k], *xs, b[k]]
            shared = int(bool(flat) and flat[-1] == xs[0])  # an end the last bracket shares
            todo.append((k, xs, len(flat) - shared))
            flat.extend(xs[shared:])
        values = np.asarray(f(np.array(flat)), dtype=float).tolist()
        live = []
        for k, xs, start in todo:
            fxs = values[start : start + len(xs)]
            if c[k] is None:
                fa[k], fb[k] = fxs[0], fxs[-1]
                if not (fa[k] < 0.0 < fb[k] or fb[k] < 0.0 < fa[k]):
                    out[k] = math.nan
                    continue
            else:
                xs, fxs = [a[k], *xs, b[k]], [fa[k], *fxs, fb[k]]
            i, positive = 1, fa[k] > 0.0
            while (fxs[i] > 0.0) == positive:
                i += 1
            lo, hi = xs[i - 1], xs[i]
            if math.nextafter(lo, hi) == hi:  # adjacent doubles: no point left inside
                out[k] = 0.5 * (lo + hi)
                continue
            shrunk[k] = hi - lo <= 0.25 * (b[k] - a[k])
            # The outside point nearest the new bracket, for the next secant error estimate.
            left = i > 1 and (i + 1 == len(xs) or lo - xs[i - 2] <= xs[i + 1] - hi)
            j = i - 2 if left else i + 1
            a[k], b[k], fa[k], fb[k], c[k], fc[k] = lo, hi, fxs[i - 1], fxs[i], xs[j], fxs[j]
            live.append(k)
    return np.array(out)


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


def _blocks(count: int, entries_each: int) -> list[slice]:
    """Slices covering ``count`` items of ``entries_each`` stack entries each, at most
    ``_STACK_ENTRIES`` entries and at least one item per slice: the one bound of a stack."""
    step = max(1, _STACK_ENTRIES // max(1, entries_each))
    return [slice(a, a + step) for a in range(0, count, step)]


def blockwise(fn, lams, entries_per_lam: int):
    """Evaluate ``fn`` on the :func:`wavenumbers` ``lams``, a bounded slice at a time.

    ``fn`` maps a 1-D array of wavenumbers to its values, stacked on the first
    axis, and builds ``entries_per_lam`` stack entries for each; :func:`_blocks`
    slices keep that within ``_STACK_ENTRIES``.  A scalar ``lams`` gives a float,
    an array the array of its shape followed by the shape of one value.
    """
    arr = wavenumbers(lams)
    flat = arr.reshape(-1)
    parts = [fn(flat[b]) for b in _blocks(flat.size, entries_per_lam)] or [np.empty(0)]
    out = parts[0] if len(parts) == 1 else np.concatenate(parts)  # one block: no copy
    return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape + out.shape[1:])


def _off_integers(lams: np.ndarray) -> np.ndarray:
    """``lams``, each moved just below where it is an integer: the count is singular there."""
    return np.where(lams == np.round(lams), lams * (1.0 - 2.0**-30), lams)


def find_roots(f, count: int, lam_max: float | None, counter):
    """First ``count`` positive roots of ``f`` below ``lam_max``, isolated by ``counter``.

    The one rule of a solve's limits: ``count`` must be at least 1, and ``lam_max`` is a
    :func:`wavenumbers` value, or None for the default ceiling count + 1.  ``counter`` gives
    the number of roots below each wavenumber, NaN where it cannot tell, and the count-th root
    must lie below count + 0.5, as interlacing puts a hinged beam's.  One call counts at 0.5,
    1.5 ... count + 0.5, cut at ``lam_max``; windows holding several roots, or starting at 0,
    where no determinant can be evaluated, are halved on the count in lockstep, and every
    one-root window is refined on ``f`` by :func:`bisect`, whose first call evaluates the
    windows' ends, and which closes only on a sign change of ``f``, at the midpoint of two
    adjacent doubles: ``f`` is called nowhere else.  :class:`RootCountError` carries the roots
    below the first window that failed: a count that is NaN or falls, roots that no halving
    point between doubles can part, or ends of a one-root window where ``f`` is not of
    strictly opposite signs, such as an end where it underflows to exactly 0.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    lam_max = float(wavenumbers(count + 1 if lam_max is None else lam_max))
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
    roots = bisect(f, pts[one], pts[one + 1])
    good = int(np.argmax(np.append(np.isnan(roots), True)))  # below the first window lost
    roots = roots[:good].tolist()
    if len(roots) < count:
        # Interlacing puts the count-th root below count + 0.5: a count short of it failed.
        raise RootCountError(count, roots, lam_max, lost=lost or good < one.size or top < lam_max)
    # The empty list keeps the (roots, diagnostics) shape the benchmark's span hooks unpack.
    return roots, []
