"""Acceptance gate: one test per advertised capability, stated tolerances.

Each test is self-contained and enforces its own time budget where the
capability advertises one, so a verbose run reads as a pass/fail line per
capability.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np

from coflow.coflow_dynamics import (
    MODIFIED,
    NORMALIZED,
    FlowConfig,
    FlowState,
    hitchin_rate,
    hitchin_rate_check,
    integrate,
    monomial_rates,
    rhs_modified,
    rhs_normalized,
    state_rates,
    symbolic_rhs_crosscheck,
    tau0_state,
)
from coflow.g2_ansatz import identity_suite
from coflow.invariant_forms import algebra_checks, random_params
from coflow.sphere_spectrum import (
    dim_lower,
    index_lower_bound,
    multiplicity_d,
    multiplicity_d0,
    multiplicity_d1,
)
from coflow.stability import (
    LABEL_PRINCIPAL,
    LABEL_RESCALED,
    PSI_MINUS,
    PSI_PLUS,
    classify,
    find_critical_points,
    state_direction,
    variation_to_form,
    verify_psi_identities,
    window_verdict,
)

from _linearization import analytic_jacobian, jacobian

SQ5 = math.sqrt(5)


def point_with_label(flavor, kappa, gamma, eps, label):
    pts = find_critical_points(flavor, kappa, gamma, eps)
    return next(p for p in pts if p.label == label)


def angular_gap(u, v):
    u = np.array([complex(x).real for x in u], dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    u, v = u / np.linalg.norm(u), v / np.linalg.norm(v)
    return float(min(np.linalg.norm(u - v), np.linalg.norm(u + v)))


def test_criterion_01_exact_identity_suites_at_random_points():
    start = time.perf_counter()
    rng = random.Random(101)
    for _ in range(20):
        for eps in (+1, -1):
            params = random_params(rng, eps)
            for check_id, ok in algebra_checks(params) + identity_suite(params):
                assert ok, f"{check_id} failed at {params}"
    assert time.perf_counter() - start < 5.0


def test_criterion_02_rhs_crosscheck_exact_and_float():
    start = time.perf_counter()
    rng = random.Random(202)
    exact_constants = [(2, 3), (Fraction(5, 2), Fraction(13, 4))]
    for trial in range(20):
        for eps in (+1, -1):
            params = random_params(rng, eps)
            kap, gam = exact_constants[trial % 2]
            assert symbolic_rhs_crosscheck(params, kap, None, NORMALIZED)
            assert symbolic_rhs_crosscheck(params, kap, gam, MODIFIED)

            # float evaluation agrees with exact rational evaluation to 1e-12
            af, bf, cf = (rng.uniform(0.3, 2.0) for _ in range(3))
            fa, fb, fc = Fraction(af), Fraction(bf), Fraction(cf)
            for flavor, floats in (
                (NORMALIZED, rhs_normalized((af, bf, cf), float(kap), eps)),
                (MODIFIED, rhs_modified((af, bf, cf), float(kap), float(gam), eps)),
            ):
                g = None if flavor == NORMALIZED else gam
                u = monomial_rates(flavor, fa, fb, fc * fc, kap, g, eps)
                exact = state_rates(fa, fb, fc, u)
                for got, want in zip(floats, exact):
                    assert abs(float(got) - float(want)) <= 1e-12 * max(1.0, abs(float(want)))
    assert time.perf_counter() - start < 5.0


def test_criterion_03_critical_points_are_exact_zeros():
    for kappa in (1.0, 4.0):
        for eps in (+1, -1):
            pt = point_with_label(NORMALIZED, kappa, None, eps, LABEL_PRINCIPAL)
            res = rhs_normalized(pt.state, kappa, eps)
            assert math.hypot(*res) < 1e-12
            assert abs(pt.tau0 - kappa) < 1e-12 * max(1.0, kappa)

            for label, t0_want in ((LABEL_PRINCIPAL, kappa), (LABEL_RESCALED, 2 * kappa)):
                pt = point_with_label(MODIFIED, kappa, 3.0, eps, label)
                res = rhs_modified(pt.state, kappa, 3.0, eps)
                assert math.hypot(*res) < 1e-12
                assert abs(pt.tau0 - t0_want) < 1e-12 * max(1.0, t0_want)


def test_criterion_04_linearization_spectrum_and_eigenvectors():
    targets = {
        +1: ((-1, 2, 0), (-4, -4, 3)),
        -1: ((0, -4, 1), (-5, 2, 2)),
    }
    for gamma in (2.5, 3.0, 4.0):
        for kappa in (1.0, 4.0):
            for eps in (+1, -1):
                pt = point_with_label(MODIFIED, kappa, gamma, eps, LABEL_PRINCIPAL)
                num, ana = jacobian(MODIFIED, pt, kappa, gamma, eps)
                printed = analytic_jacobian(eps, kappa, gamma)
                rel = np.max(np.abs(num - printed)) / np.max(np.abs(printed))
                assert rel < 1e-6

                report = classify(MODIFIED, pt, kappa, gamma, eps)
                assert report.index == 1

                unstable_target, third_target = targets[eps]
                assert angular_gap(report.eigenpairs[0].vector, unstable_target) < 1e-8

                negatives = report.eigenpairs[1:]
                sym_gaps = [angular_gap(p.vector, (1, 1, 1)) for p in negatives]
                sym = negatives[int(np.argmin(sym_gaps))]
                other = negatives[1 - int(np.argmin(sym_gaps))]
                assert angular_gap(sym.vector, (1, 1, 1)) < 1e-8
                assert angular_gap(other.vector, third_target) < 1e-8

                lam = 5 * kappa ** 2 * (2 - gamma) / 8
                assert abs(sym.value.real - lam) < 1e-10 * max(1.0, abs(lam))


def test_criterion_05_psi_identities_and_exact_variations():
    for eps in (+1, -1):
        for kappa in (1, 4):
            report = verify_psi_identities(eps, kappa)
            assert report.all_pass, report.details

    plus = point_with_label(MODIFIED, 4.0, 3.0, +1, LABEL_PRINCIPAL)
    delta = variation_to_form(plus, (-1, 2, 0))
    key = next(iter(PSI_PLUS.coeffs))
    scale = delta.coefficient(key) / PSI_PLUS.coefficient(key)
    assert scale != 0 and delta == scale * PSI_PLUS

    minus = point_with_label(MODIFIED, 4.0, 3.0, -1, LABEL_PRINCIPAL)
    delta = variation_to_form(minus, (0, -4, 1))
    key = next(iter(PSI_MINUS.coeffs))
    scale = delta.coefficient(key) / PSI_MINUS.coefficient(key)
    assert scale != 0 and delta == scale * PSI_MINUS


def test_criterion_06_window_verdicts():
    gammas = (Fraction(9, 4), Fraction(5, 2), 3, 4)
    for gamma in gammas:
        for mu in (Fraction(-5, 3), Fraction(-3, 2)):
            assert window_verdict(mu, gamma, MODIFIED).verdict == "destabilizing"
        assert window_verdict(Fraction(-1), gamma, MODIFIED).verdict == "kernel"
    for k in range(-16, 9):
        mu = Fraction(k, 4)
        v = window_verdict(mu, None, NORMALIZED)
        assert v.form_value >= 0
        assert v.verdict != "destabilizing"


def test_criterion_07_sphere_multiplicities_and_index_bound():
    start = time.perf_counter()
    for l in range(101):
        assert isinstance(multiplicity_d(l), int)
        assert isinstance(multiplicity_d0(l), int)
        assert isinstance(multiplicity_d1(l), int)
    assert [dim_lower(l) for l in (3, 4, 5, 6)] == [160, 693, 1904, 4290]
    assert index_lower_bound(3, 6, 3)[0] == 7047
    assert index_lower_bound(0, 100, Fraction(21, 10))[0] == 7047
    assert time.perf_counter() - start < 1.0


def test_criterion_08_normalized_flow_converges_from_random_starts():
    start = time.perf_counter()
    rng = random.Random(808)
    targets = {-1: np.array([1.0, 1.0, 1.0]), +1: np.array([0.6, 0.6, 0.6 * SQ5])}
    for eps, target in targets.items():
        config = FlowConfig(flavor=NORMALIZED, kappa=4.0, eps=eps, t_max=50.0)
        for _ in range(10):
            y0 = target * np.array([rng.uniform(0.5, 2.0) for _ in range(3)])
            traj = integrate(config, FlowState(0.0, *y0))
            assert traj.reason == "converged", (eps, y0, traj.reason)
            fin = traj.final_state
            dist = np.linalg.norm(np.array([fin.a, fin.b, fin.c]) - target)
            assert dist < 1e-6
    assert time.perf_counter() - start < 30.0


def test_criterion_09_modified_flow_instability_experiment():
    start = time.perf_counter()
    delta = 1e-3
    for eps in (+1, -1):
        pt = point_with_label(MODIFIED, 4.0, 3.0, eps, LABEL_PRINCIPAL)
        report = classify(MODIFIED, pt, 4.0, 3.0, eps)
        assert report.index == 1
        config = FlowConfig(
            flavor=MODIFIED, kappa=4.0, gamma=3.0, eps=eps,
            t_max=1.5, rtol=1e-10, atol=1e-12,
            reference=pt.state, escape_radius=1e-1, dtype=np.longdouble,
        )
        ref = np.array(pt.state)

        # the unstable mode leaves the 1e-1 ball
        direction = state_direction(pt, report.eigenpairs[0].vector)
        traj = integrate(config, FlowState(0.0, *(ref + delta * direction)))
        assert traj.reason == "diverged-from-critical", traj.reason

        # both stable modes fall back within 1e-6 before roundoff reseeds
        # the unstable one
        for pair in report.eigenpairs[1:]:
            direction = state_direction(pt, pair.vector)
            traj = integrate(config, FlowState(0.0, *(ref + delta * direction)))
            dists = [np.linalg.norm(np.array([s.a, s.b, s.c]) - ref)
                     for s in traj.states]
            assert min(dists) < 1e-6, (eps, pair.value, min(dists))
    assert time.perf_counter() - start < 30.0


def test_criterion_10_volume_rate_formula():
    kappa, gamma = 4.0, 4.0
    config = FlowConfig(flavor=MODIFIED, kappa=kappa, gamma=gamma, eps=-1,
                        t_max=0.4)
    traj = integrate(config, FlowState(0.0, 0.7, 0.55, 0.8))
    assert len(traj.states) >= 3
    assert hitchin_rate_check(traj, kappa, gamma) < 1e-4

    # the volume grows strictly whenever tau0 sits inside (kappa, (gamma-1) kappa)
    grid = (0.35, 0.5, 0.7, 1.0, 1.4)
    for eps in (+1, -1):
        hits = 0
        for a in grid:
            for b in grid:
                for c in grid:
                    t0 = tau0_state(a, b, c, eps)
                    if kappa < t0 < (gamma - 1) * kappa:
                        hits += 1
                        assert hitchin_rate((a, b, c), kappa, gamma, eps) > 0
        assert hits > 0
