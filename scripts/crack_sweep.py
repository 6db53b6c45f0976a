"""Sweep crack severity at a fixed position and tabulate frequency drops.

The classic detection signature: each natural frequency falls as the crack
deepens, fastest for modes with high curvature at the crack.  Run with

    python3 scripts/crack_sweep.py --position 1.0 --modes 4
"""

from __future__ import annotations

import argparse

import numpy as np

from crackedbeam import BeamProblem, compute_spectrum

# Crack flexibilities swept, from the uncracked beam up.
THETAS = (0.0, 0.01, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0)


def run(position: float, modes: int) -> None:
    baseline = np.array([float(k) for k in range(1, modes + 1)])
    header = "theta    " + "  ".join(f"lam_{k}/k" for k in range(1, modes + 1))
    print(header)
    print("-" * len(header))
    for theta in THETAS:
        if theta == 0.0:
            lams = baseline
        else:
            problem = BeamProblem(positions=(position,), flexibilities=(theta,))
            lams = compute_spectrum(problem, modes).lambdas
        ratios = "  ".join(f"{lam / k:.6f}" for k, lam in zip(baseline, lams))
        print(f"{theta:<7.2f}  {ratios}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--position", type=float, default=1.0, help="crack location in (0, pi)")
    parser.add_argument("--modes", type=int, default=4)
    args = parser.parse_args()
    run(args.position, args.modes)


if __name__ == "__main__":
    main()
