"""
Normalized flow: convergence to the round structures
====================================================

The normalized flow contracts onto a single equilibrium per orientation.
This script integrates a handful of starts for both orientations, prints
where each run stopped and why, and shows the scale-invariant picture in
the reduced plane (X, Y) = (a^2/c^2, ab/c^2), where the equilibria sit at
(1/5, 1/5) and (1, 1).
"""

import os
import tempfile

import numpy as np

from coflow import (
    NORMALIZED,
    FlowConfig,
    FlowState,
    find_critical_points,
    integrate,
    reduced_xy_rhs,
)

KAPPA = 4.0

for eps in (-1, +1):
    point = find_critical_points(NORMALIZED, KAPPA, None, eps)[0]
    target = np.array(point.state)
    print(f"eps = {eps:+d}: equilibrium at (a, b, c) = "
          f"({target[0]:.6f}, {target[1]:.6f}, {target[2]:.6f}), "
          f"tau0 = {point.tau0:.6f}")

    config = FlowConfig(flavor=NORMALIZED, kappa=KAPPA, eps=eps, t_max=40.0)
    rng = np.random.default_rng(5)
    for run in range(4):
        y0 = target * rng.uniform(0.5, 2.0, size=3)
        traj = integrate(config, FlowState(0.0, *y0))
        fin = traj.final_state
        dist = np.linalg.norm([fin.a, fin.b, fin.c] - target)
        print(f"  start ({y0[0]:.3f}, {y0[1]:.3f}, {y0[2]:.3f})"
              f" -> {traj.reason} at t = {fin.t:.3f}"
              f" after {traj.steps} steps, |state - target| = {dist:.2e}")

    # the reduced coordinates are stationary exactly at the equilibrium
    X, Y = traj.X[-1], traj.Y[-1]
    dX, dY = reduced_xy_rhs(X, Y, eps)
    print(f"  reduced plane: (X, Y) = ({X:.9f}, {Y:.9f}), "
          f"rhs = ({dX:.2e}, {dY:.2e})")
    print()

# the derived columns travel with every trajectory; a CSV dump has
# columns t, a, b, c, tau0, V, X, Y (written to a directory removed afterwards)
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "normalized_run.csv")
    traj.write_csv(path)
    with open(path) as fh:
        lines = fh.read().splitlines()
print("CSV sample:")
print(" ", lines[0])
print(" ", lines[1])
print(" ", lines[-1])
