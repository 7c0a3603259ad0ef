"""
Modified flow: spectral reports and the escape experiment
=========================================================

At its tau0 = kappa equilibria the modified flow has exactly one unstable
direction for every coupling gamma > 2, and that direction is a traceless
(27-type) deformation.  The script prints the spectral report for both
orientations, then runs the experiment the report predicts: a small push
along the unstable eigenvector escapes, a push along a stable eigenvector
falls back before roundoff reseeds the unstable mode.
"""

import os
import tempfile

import numpy as np

from coflow import (
    MODIFIED,
    FlowConfig,
    FlowState,
    LABEL_PRINCIPAL,
    classify,
    find_critical_points,
    integrate,
    state_direction,
    window_mu,
)

KAPPA, GAMMA, DELTA = 4.0, 3.0, 1e-3

for eps in (+1, -1):
    points = find_critical_points(MODIFIED, KAPPA, GAMMA, eps)
    point = next(p for p in points if p.label == LABEL_PRINCIPAL)
    report = classify(MODIFIED, point, KAPPA, GAMMA, eps)

    print(f"eps = {eps:+d}, point (a, b, c) = "
          f"({point.state[0]:.4f}, {point.state[1]:.4f}, {point.state[2]:.4f})")
    for pair in report.eigenpairs:
        vec = ", ".join(f"{x:+.4f}" for x in pair.vector)
        print(f"  eigenvalue {pair.value:+9.3f}   eigenvector ({vec})")
    print(f"  index = {report.index}")
    print(f"  unstable deformation 4-form: {report.unstable_form}")
    mu = window_mu(point)
    print(f"  d*-ratio mu = {mu}, verdict: {report.window.verdict}")

    config = FlowConfig(
        flavor=MODIFIED, kappa=KAPPA, gamma=GAMMA, eps=eps,
        t_max=1.5, reference=point.state, escape_radius=1e-1,
        dtype=np.longdouble,
    )
    ref = np.array(point.state)

    push = state_direction(point, report.eigenpairs[0].vector)
    traj = integrate(config, FlowState(0.0, *(ref + DELTA * push)))
    print(f"  unstable push: {traj.reason} at t = {traj.final_state.t:.4f}")

    push = state_direction(point, report.eigenpairs[-1].vector)
    traj = integrate(config, FlowState(0.0, *(ref + DELTA * push)))
    dists = [np.linalg.norm([s.a, s.b, s.c] - ref) for s in traj.states]
    print(f"  stable push:   closest approach {min(dists):.2e} "
          f"at t = {traj.states[int(np.argmin(dists))].t:.4f}, "
          f"then {traj.reason}")
    print()

# the same experiment is available from the command line; the sidecar
# JSON carries the stop reason (both files go to a directory removed afterwards)
print("CLI equivalent:")
print("  coflow flow --flavor modified --eps -1 --kappa 4 --gamma 3 \\")
print("      --perturb unstable --delta 1e-3 --out escape.csv")
from coflow.cli import main  # noqa: E402

with tempfile.TemporaryDirectory() as tmp:
    main(["flow", "--flavor", "modified", "--eps", "-1", "--kappa", "4",
          "--gamma", "3", "--perturb", "unstable", "--delta", "1e-3",
          "--out", os.path.join(tmp, "escape.csv")])
