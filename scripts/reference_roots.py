"""Reference eigenvalue wavenumbers in mpmath, from two independent formulations.

For each layout the first 40 roots are found from the transfer determinant of
the state (w, w', w'', w''') at TRANSFER_DIGITS digits: a sign-change scan on
a grid of step 0.01 (offset by half a step, so no integer is a grid point),
then Illinois steps inside each bracket.  The bounded jump-amplitude system,
assembled from its own rows at BOUNDED_DIGITS digits, must then change sign
across every root widened by AGREEMENT relative on each side, and the k-th
root must lie in [k - m, k] (interlacing with the uncracked beam).  Each root
goes to the table with 17 significant digits.  Run from the repository root:

    PYTHONPATH=src python3 scripts/reference_roots.py [--out tests/data/reference_roots.json]

The transfer determinant cancels about lam * pi / ln(10) digits, so 40 digits
are noise past lam of about 30 on 30 cracks; 120 keep over 60 digits at 40.
"""

from __future__ import annotations

import argparse
import json
import math
from pathlib import Path

import mpmath as mp

ROOT = Path(__file__).resolve().parents[1]
COUNT = 40
STEP = mp.mpf("0.01")
TRANSFER_DIGITS = 120
BOUNDED_DIGITS = 60
# Each root is refined to this relative bracket width, and the bounded system must change
# sign across the root widened by AGREEMENT on each side.
WIDTH = mp.mpf("1e-40")
AGREEMENT = mp.mpf("1e-25")

_EQUAL = tuple(math.pi * (j + 1) / 31 for j in range(30))


def layouts() -> dict[str, tuple[tuple[float, ...], tuple[float, ...]]]:
    """(positions, flexibilities) of every reference layout, as the doubles the solvers see."""
    from crackedbeam import load_problem_file

    out = {}
    for name in ("uniform", "one_crack", "two_crack", "node_crack", "steel_beam"):
        problem, _, _ = load_problem_file(str(ROOT / "fixtures" / f"{name}.json"))
        out[name] = (problem.positions, problem.flexibilities)
    out["thirty_equal"] = (_EQUAL, (0.2,) * 30)
    out["stiff_close"] = ((0.5, 0.52, 2.9), (50.0, 1e3, 0.01))
    out["thirty_theta_1e-3"] = (_EQUAL, (1e-3,) * 30)
    out["theta_1e6"] = ((1.0, 2.2), (1e6, 1e6))
    out["theta_1e-10"] = ((1.0, 2.2), (1e-10, 1e-10))
    out["cracks_1e-6_apart"] = ((1.0, 1.0 + 1e-6, 2.2), (0.3, 0.3, 0.7))
    out["cracks_1e-6_from_supports"] = ((1e-6, 1.0, math.pi - 1e-6), (0.3, 0.3, 0.3))
    return out


def transfer_det(positions, thetas, lam):
    """w(pi) w''(pi) minor of the two hinged starts (0, 1, 0, 0) and (0, 0, 0, 1), carried
    through each interval by the Krylov functions and across each crack by w' += theta w''."""
    lam = mp.mpf(lam)
    ends = [mp.mpf(x) for x in positions] + [mp.pi]
    starts = [mp.mpf(0)] + ends[:-1]
    states = [[mp.mpf(0), mp.mpf(1), mp.mpf(0), mp.mpf(0)], [mp.mpf(0)] * 3 + [mp.mpf(1)]]
    for k, (a, b) in enumerate(zip(starts, ends)):
        t = lam * (b - a)
        ch, sh, c, s = mp.cosh(t), mp.sinh(t), mp.cos(t), mp.sin(t)
        krylov = ((ch + c) / 2, (sh + s) / 2, (ch - c) / 2, (sh - s) / 2)  # S, T, U, V
        # Row r, column q of the interval's map: lam**(r - q) times the Krylov function
        # (S, T, U, V) shifted by q - r places, so that S sits on the diagonal.
        fmap = [[lam ** (r - q) * krylov[(q - r) % 4] for q in range(4)] for r in range(4)]
        states = [[mp.fsum(f * y for f, y in zip(row, state)) for row in fmap] for state in states]
        if k < len(thetas):
            for state in states:
                state[1] += mp.mpf(thetas[k]) * state[2]
    (wa, _, ma, _), (wb, _, mb, _) = states
    return wa * mb - ma * wb


def bounded_det(positions, thetas, lam):
    """Determinant of the jump-amplitude system in (Delta_1..Delta_m, A, B, P, Q), whose
    response g(u) = (sin - exp(-.))(lam |u|) / (4 lam) keeps every entry bounded."""
    lam = mp.mpf(lam)
    xs, m = [mp.mpf(x) for x in positions], len(positions)
    mat = mp.zeros(m + 4, m + 4)
    for j, (x_j, theta) in enumerate(zip(xs, thetas)):
        theta = mp.mpf(theta)
        for i, x_i in enumerate(xs):
            d = lam * abs(x_j - x_i)
            mat[j, i] = theta * lam / 4 * (mp.sin(d) + mp.exp(-d))
        mat[j, j] += 1
        scale = theta * lam**2
        mat[j, m + 0] = scale * mp.cos(lam * x_j)
        mat[j, m + 1] = scale * mp.sin(lam * x_j)
        mat[j, m + 2] = -scale * mp.exp(-lam * x_j)
        mat[j, m + 3] = -scale * mp.exp(-lam * (mp.pi - x_j))
        mat[m + 0, j] = -mp.exp(-lam * x_j) / (4 * lam)
        mat[m + 1, j] = mp.sin(lam * x_j) / (4 * lam)
        mat[m + 2, j] = -mp.exp(-lam * (mp.pi - x_j)) / (4 * lam)
        mat[m + 3, j] = mp.sin(lam * (mp.pi - x_j)) / (4 * lam)
    decay = mp.exp(-lam * mp.pi)
    mat[m, m + 2], mat[m, m + 3] = 1, decay
    mat[m + 1, m + 0] = 1
    mat[m + 2, m + 2], mat[m + 2, m + 3] = decay, 1
    mat[m + 3, m + 0], mat[m + 3, m + 1] = mp.cos(lam * mp.pi), mp.sin(lam * mp.pi)
    return mp.det(mat)


def refine(f, a, b, fa, fb):
    """Root of ``f`` in the bracket [a, b] by the Illinois method, to relative width WIDTH."""
    side = 0
    while b - a > WIDTH * abs(b):
        c = b - fb * (b - a) / (fb - fa)
        if not a < c < b:
            c = (a + b) / 2
        fc = f(c)
        if fc == 0:
            return c
        if (fc > 0) == (fb > 0):
            b, fb = c, fc
            fa = fa / 2 if side == -1 else fa
            side = -1
        else:
            a, fa = c, fc
            fb = fb / 2 if side == 1 else fb
            side = 1
    return (a + b) / 2


def confirm(positions, thetas, root):
    """Raise unless the bounded system changes sign across ``root`` widened by AGREEMENT."""
    with mp.workdps(BOUNDED_DIGITS):
        lo, hi = (bounded_det(positions, thetas, root * (1 + s * AGREEMENT)) for s in (-1, 1))
    if lo == 0 or hi == 0 or (lo > 0) == (hi > 0):
        raise AssertionError(f"bounded system has no root within {AGREEMENT} of {root}")


def root_near(positions, thetas, a, b):
    """The one root of both formulations in [a, b], at TRANSFER_DIGITS digits."""
    with mp.workdps(TRANSFER_DIGITS):
        a, b = mp.mpf(a), mp.mpf(b)

        def f(lam):
            return transfer_det(positions, thetas, lam)

        root = refine(f, a, b, f(a), f(b))
    confirm(positions, thetas, root)
    return root


def first_roots(positions, thetas, count: int = COUNT):
    """First ``count`` roots: transfer-determinant scan and refinement, bounded-system check."""
    roots = []
    with mp.workdps(TRANSFER_DIGITS):
        k, a, fa = 0, None, None
        while len(roots) < count:
            b = STEP * (k + mp.mpf("0.5"))
            fb = transfer_det(positions, thetas, b)
            if fa is not None and (fa > 0) != (fb > 0):
                roots.append(refine(lambda lam: transfer_det(positions, thetas, lam), a, b, fa, fb))
            k, a, fa = k + 1, b, fb
        m = len(positions)
        for k, root in enumerate(roots, start=1):
            if not k - m - AGREEMENT <= root <= k + AGREEMENT:
                raise AssertionError(f"root {k} = {root} breaks interlacing with {m} cracks")
    for root in roots:
        confirm(positions, thetas, root)
    return roots


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(ROOT / "tests" / "data" / "reference_roots.json"))
    args = parser.parse_args()
    table = {}
    for name, (positions, thetas) in layouts().items():
        roots = first_roots(positions, thetas)
        table[name] = {
            "positions": list(positions),
            "flexibilities": list(thetas),
            "roots": [mp.nstr(r, 17, strip_zeros=False) for r in roots],
        }
        print(name, table[name]["roots"][-1], flush=True)
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
