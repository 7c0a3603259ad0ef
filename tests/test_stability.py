import dataclasses
import importlib.util
import math
import random
import sys
import warnings
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import sympy

from coflow.coflow_dynamics import (
    MODIFIED,
    NORMALIZED,
    _guarded_flow,
    hitchin_rate,
    monomial_rates,
    rhs_modified,
    scaling_ode_rhs,
    state_rates,
)
from coflow.g2_ansatz import ansatz_4form, build, laplacian_psi, tau0 as ansatz_tau0, tau0_terms, torsion
from coflow.invariant_forms import (GeometryParams, InvariantForm, _exactly, dstar_on_4forms, inner_product,
                                    random_params)
from coflow.stability import (
    _CLOSED_FORM,
    _EIGENBASIS,
    _SPECTRA,
    CriticalPoint,
    LABEL_PRINCIPAL,
    LABEL_RESCALED,
    PSI_MINUS,
    PSI_PLUS,
    _variation,
    classify,
    find_critical_points,
    state_direction,
    variation_to_form,
    verify_psi_identities,
    window_mu,
    window_verdict,
)
from coflow.sphere_spectrum import in_window, index_lower_bound, level_mu

from _linearization import _rhs_jacobian, analytic_jacobian, jacobian

SQ5 = math.sqrt(5)


def principal(flavor, kappa, gamma, eps):
    pts = find_critical_points(flavor, kappa, gamma, eps)
    return next(p for p in pts if p.label == LABEL_PRINCIPAL)


def rescaled(kappa, gamma, eps):
    pts = find_critical_points(MODIFIED, kappa, gamma, eps)
    return next(p for p in pts if p.label == LABEL_RESCALED)


def angular_gap(u, v):
    u = np.array([complex(x).real for x in u], dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    u, v = u / np.linalg.norm(u), v / np.linalg.norm(v)
    return min(np.linalg.norm(u - v), np.linalg.norm(u + v))


def test_critical_point_coordinates():
    for kap in (1.0, 4.0):
        pt = principal(NORMALIZED, kap, None, +1)
        a = 12.0 / (5 * kap)
        assert np.allclose(pt.state, (a, a, SQ5 * a), rtol=0, atol=1e-12)
        assert abs(pt.tau0 - kap) < 1e-12

        pt = principal(NORMALIZED, kap, None, -1)
        assert np.allclose(pt.state, (4 / kap, 4 / kap, 4 / kap), rtol=0, atol=1e-12)
        assert abs(pt.tau0 - kap) < 1e-12


def test_rescaled_points_exist_for_the_modified_flavor():
    for eps, state in ((+1, (0.3, 0.3, 0.3 * SQ5)), (-1, (0.5, 0.5, 0.5))):
        pt = rescaled(4.0, 3.0, eps)
        assert np.allclose(pt.state, state, rtol=0, atol=1e-12)
        assert abs(pt.tau0 - 8.0) < 1e-11
        assert pt.kappa_eff == 8

    pts = find_critical_points(NORMALIZED, 4.0, None, -1)
    assert [p.label for p in pts] == [LABEL_PRINCIPAL]


def test_find_critical_points_validation():
    with pytest.raises(ValueError):
        find_critical_points(MODIFIED, 4.0, 2.0, -1)
    with pytest.raises(ValueError):
        find_critical_points("nonsense", 4.0, 3.0, -1)
    with pytest.raises(ValueError):
        find_critical_points(NORMALIZED, -4.0, None, -1)


def test_analytic_jacobian_printed_matrices_at_gamma_3():
    kap = 4.0
    plus = analytic_jacobian(+1, kap, 3.0)
    assert np.allclose(plus, (5 * kap ** 2 / 72) * np.array(
        [[-14, -23, 28], [-46, 9, 28], [14, 7, -30]]), rtol=0, atol=1e-12)
    minus = analytic_jacobian(-1, kap, 3.0)
    assert np.allclose(minus, (kap ** 2 / 8) * np.array(
        [[-70, 13, 52], [26, 5, -36], [26, -9, -22]]), rtol=0, atol=1e-12)


def test_finite_difference_jacobian_matches_analytic_on_a_grid():
    for gamma in (2.5, 3.0, 4.0):
        for kappa in (1.0, 4.0):
            for eps in (+1, -1):
                pt = principal(MODIFIED, kappa, gamma, eps)
                num, ana = jacobian(MODIFIED, pt, kappa, gamma, eps)
                assert ana is not None
                rel = np.max(np.abs(num - ana)) / np.max(np.abs(ana))
                assert rel < 1e-6


def test_jacobian_rejects_non_critical_points():
    # a point derives its state from its constants, so a shifted one cannot be made
    pt = principal(MODIFIED, 4.0, 3.0, -1)
    with pytest.raises(ValueError, match="state is declared with init=False"):
        dataclasses.replace(pt, state=(1.2, 1.0, 1.0))
    with pytest.raises(TypeError):
        CriticalPoint(MODIFIED, -1, pt.kappa, pt.gamma, LABEL_PRINCIPAL, state=(1.2, 1.0, 1.0))
    assert jacobian(MODIFIED, pt, 4.0, 3.0, -1)[0].shape == (3, 3)


# The general float 3x3 eigen-solver and the float Newton iteration, kept
# as test helpers: no library path calls them since classify decides each
# spectrum from the exact table, and the tests below still check them.
def _oriented(v: list) -> list:
    """v turned so that its largest-magnitude component is real and positive.

    Among components within 1e-9 of the largest magnitude the first one
    decides, so near-ties do not flip with roundoff.
    """
    mags = [abs(x) for x in v]
    top = max(mags)
    k = next(i for i, m in enumerate(mags) if m >= (1 - 1e-9) * top)
    unit = v[k].conjugate() / mags[k]
    return [x * unit for x in v]


def _clusters(values: list, anorm: float) -> list[tuple[complex, list[int]]]:
    """(mean, member indices) of each cluster of values, in decreasing order.

    Values sort by decreasing real part, then decreasing |imag|, then
    decreasing imag, so a conjugate pair lists +imag first; sorting is
    stable, so equal keys keep their input order.  A value within 2e-7 anorm
    of its cluster's first value joins it, and the cluster reports its mean.
    """
    order = sorted(range(len(values)), key=lambda i: (-values[i].real, -abs(values[i].imag),
                                                      -values[i].imag))
    clusters: list[list[int]] = []
    for i in order:
        if clusters and abs(values[i] - values[clusters[-1][0]]) <= 2e-7 * anorm:
            clusters[-1].append(i)
        else:
            clusters.append([i])
    out = []
    for cluster in clusters:
        lam = 0  # a loop, not sum(), which adds Python floats with compensation since 3.12
        for i in cluster:
            lam += values[i]
        out.append((lam / len(cluster), cluster))
    return out


@dataclasses.dataclass(frozen=True)
class FloatEigenpair:
    """One pair of the float eigen-solvers below, with the flag of a defective cluster."""

    value: complex
    vector: tuple[complex, complex, complex]
    residual: float
    generalized: bool


def eigen3(matrix) -> list[FloatEigenpair]:
    """Eigenpairs of a 3x3 real matrix; values and vectors from LAPACK via `numpy.linalg.eig`.

    Values within 2e-7 ||A|| of each other form one cluster (`_clusters`),
    and every member reports the cluster's mean value, with its residual
    |A v - lambda v| against that mean.  A member whose eig vector is
    numerically dependent on the cluster's earlier vectors (the smallest
    singular value of their unit-column block is at most 1e-6) is flagged
    generalized=True: the eigenspace is smaller than the cluster, as for a
    Jordan block.  Convention: vectors have unit norm with their
    largest-magnitude component real and positive; pairs are sorted by
    decreasing real part, then decreasing |imag|, so a conjugate pair lists
    +imag first.

    Only the eig call, and for a cluster of two or more values the singular
    values of its block, run in LAPACK.  Sorting, clustering, orientation
    and residuals work on Python scalars: for three 3-vectors numpy's array
    wrapping costs several times the arithmetic.  The tests keep a numpy
    array version as the oracle: on a real spectrum the two agree bit for
    bit, and on a complex one numpy may round the vectors and residuals
    differently (with fused multiply-adds on some hosts).
    """
    A = np.asarray(matrix, dtype=np.float64)
    if A.shape != (3, 3):
        raise ValueError("eigen3 expects a 3x3 matrix")
    values, vectors = np.linalg.eig(A)
    rows = A.tolist()
    anorm = math.hypot(*rows[0], *rows[1], *rows[2])
    columns = vectors.T.tolist()

    pairs: list[FloatEigenpair] = []
    for lam, cluster in _clusters(values.tolist(), anorm):
        kept: list[list] = []
        for i in cluster:
            v = _oriented(columns[i])
            generalized = bool(kept) and np.linalg.svd(np.column_stack(kept + [v]),
                                                       compute_uv=False)[-1] <= 1e-6
            if not generalized:
                kept.append(v)
            res = [r[0] * v[0] + r[1] * v[1] + r[2] * v[2] - lam * x for r, x in zip(rows, v)]
            pairs.append(FloatEigenpair(
                value=complex(lam),
                vector=tuple(complex(x) for x in v),
                residual=math.hypot(*(abs(x) for x in res)),
                generalized=bool(generalized),
            ))
    return pairs


def newton_refine(flavor, y0, kappa, gamma, eps, tol: float = 1e-13, max_iter: int = 40):
    """Newton iteration on the floating right-hand side; None on divergence."""
    rhs = _guarded_flow(flavor, kappa, gamma, eps)
    y = np.array([float(v) for v in y0], dtype=np.float64)
    for _ in range(max_iter):
        fy = rhs(y.tolist())
        if fy is None:
            return None
        fy = np.array(fy)
        if float(np.sqrt(np.sum(fy * fy))) < tol:
            return y
        jac = _rhs_jacobian(flavor, y.tolist(), kappa, gamma, eps)
        if jac is None:
            return None
        try:
            delta = np.linalg.solve(jac, fy)
        except np.linalg.LinAlgError:
            return None
        if not np.all(np.isfinite(delta)):
            return None
        y = y - delta
        if min(y) <= 0:
            return None
    fy = rhs(y.tolist())
    if fy is not None and float(np.sqrt(np.sum(np.array(fy) ** 2))) < tol:
        return y
    return None


def test_eigen3_identity_and_simple_matrices():
    pairs = eigen3(np.eye(3))
    assert all(abs(p.value - 1) < 1e-12 for p in pairs)
    assert not any(p.generalized for p in pairs)

    pairs = eigen3(np.diag([3.0, 2.0, 1.0]))
    assert [round(p.value.real) for p in pairs] == [3, 2, 1]
    for p, axis in zip(pairs, np.eye(3)):
        assert angular_gap(p.vector, axis) < 1e-10
        assert p.residual < 1e-10


def test_eigen3_flags_defective_matrices():
    # Jordan block: eigenvalue 1 doubled, one-dimensional eigenspace
    pairs = eigen3(np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 2.0]]))
    ones = [p for p in pairs if abs(p.value - 1) < 1e-6]
    assert len(ones) == 2
    assert sum(p.generalized for p in ones) == 1


def test_eigen3_complex_pair():
    # rotation block has a conjugate pair; values must come out conjugate
    pairs = eigen3(np.array([[0.0, -2.0, 0.0], [2.0, 0.0, 0.0], [0.0, 0.0, 1.0]]))
    ims = sorted(p.value.imag for p in pairs)
    assert ims == pytest.approx([-2.0, 0.0, 2.0], abs=1e-10)


def test_principal_point_spectrum_plus():
    kap = 4.0
    report = classify(MODIFIED, principal(MODIFIED, kap, 3.0, +1), kap, 3.0, +1)
    assert report.index == 1
    values = [p.value.real for p in report.eigenpairs]
    assert values == pytest.approx([20 * kap ** 2 / 9, -5 * kap ** 2 / 8,
                                    -145 * kap ** 2 / 36], rel=1e-10)
    assert angular_gap(report.eigenpairs[0].vector, (-1, 2, 0)) < 1e-8
    gaps = sorted(angular_gap(p.vector, t) for p, t in
                  zip(report.eigenpairs[1:], ((1, 1, 1), (-4, -4, 3))))
    assert gaps[-1] < 1e-8


def test_principal_point_spectrum_minus():
    kap = 4.0
    report = classify(MODIFIED, principal(MODIFIED, kap, 3.0, -1), kap, 3.0, -1)
    assert report.index == 1
    values = [p.value.real for p in report.eigenpairs]
    assert values == pytest.approx([7 * kap ** 2 / 4, -5 * kap ** 2 / 8,
                                    -12 * kap ** 2], rel=1e-10)
    assert angular_gap(report.eigenpairs[0].vector, (0, -4, 1)) < 1e-8
    gaps = sorted(angular_gap(p.vector, t) for p, t in
                  zip(report.eigenpairs[1:], ((1, 1, 1), (-5, 2, 2))))
    assert gaps[-1] < 1e-8


def test_symmetric_direction_eigenvalue_formula():
    # (1,1,1) is an eigenvector of the analytic matrix with value (5/8)k^2(2-g)
    for gamma in (2.5, 3.0, 4.0):
        for kappa in (1.0, 4.0):
            for eps in (+1, -1):
                J = analytic_jacobian(eps, kappa, gamma)
                image = J @ np.ones(3)
                lam = 5 * kappa ** 2 * (2 - gamma) / 8
                assert np.allclose(image, lam * np.ones(3), rtol=0, atol=1e-10)
                pairs = eigen3(J)
                best = min(abs(p.value.real - lam) for p in pairs)
                assert best < 1e-10 * max(1.0, abs(lam))


def test_normalized_flow_is_stable_at_both_points():
    for eps, eigs in ((+1, (-100 / 9, -8.0, -64 / 9)), (-1, (-64.0, -8.0, -4.0))):
        pt = principal(NORMALIZED, 4.0, None, eps)
        report = classify(NORMALIZED, pt, 4.0, None, eps)
        assert report.index == 0
        got = sorted(p.value.real for p in report.eigenpairs)
        assert got == pytest.approx(sorted(eigs), rel=1e-6)


def test_rescaled_point_index_depends_on_gamma():
    # eps=-1 exact eigenvalues: -(2g+3)(g-1)k^2, (8-3g)(g-1)k^2/4, (5/8)(g-1)(g-2)k^2
    kap = 4.0
    report = classify(MODIFIED, rescaled(kap, 2.5, -1), kap, 2.5, -1)
    assert report.index == 2
    got = sorted(p.value.real for p in report.eigenpairs)
    assert got == pytest.approx([-192.0, 3.0, 7.5], rel=1e-5)

    report = classify(MODIFIED, rescaled(kap, 3.0, -1), kap, 3.0, -1)
    assert report.index == 1
    got = sorted(p.value.real for p in report.eigenpairs)
    assert got == pytest.approx([-288.0, -8.0, 20.0], rel=1e-5)


def test_rescaled_point_plus_family():
    kap = 4.0
    report = classify(MODIFIED, rescaled(kap, 2.1, +1), kap, 2.1, +1)
    assert report.index == 2

    # at gamma = 5/2 one eigenvalue crosses zero; it must be flagged marginal
    report = classify(MODIFIED, rescaled(kap, 2.5, +1), kap, 2.5, +1)
    assert any(report.marginal)
    smallest = min(abs(p.value.real) for p in report.eigenpairs)
    assert smallest < 1e-6


def test_variation_to_form_gives_the_27_type_forms():
    kap = 4.0
    pt = principal(MODIFIED, kap, 3.0, +1)
    delta = variation_to_form(pt, (-1, 2, 0))
    ratio = delta.coefficient(next(iter(PSI_PLUS.coeffs)))
    scale = ratio / PSI_PLUS.coefficient(next(iter(PSI_PLUS.coeffs)))
    assert scale != 0
    assert delta == scale * PSI_PLUS

    pt = principal(MODIFIED, kap, 3.0, -1)
    assert variation_to_form(pt, (0, -4, 1)) == 2 * PSI_MINUS

    # the symmetric direction moves along psi itself
    ans = build(pt.params)
    delta = variation_to_form(pt, (1, 1, 1))
    top = next(iter(ans.psi.coeffs))
    scale = delta.coefficient(top) / ans.psi.coefficient(top)
    assert scale != 0
    assert delta == scale * ans.psi

    with pytest.raises(ValueError):
        variation_to_form(pt, (0, 0, 0))


def test_window_mu_values():
    kap = 4.0
    assert window_mu(principal(MODIFIED, kap, 3.0, +1)) == Fraction(-5, 3)
    assert window_mu(principal(MODIFIED, kap, 3.0, -1)) == Fraction(-3, 2)
    # rescaled points live at kappa_eff = (gamma-1) kappa, so mu scales
    assert window_mu(rescaled(kap, 3.0, +1)) == Fraction(-10, 3)
    assert window_mu(rescaled(kap, 3.0, -1)) == Fraction(-3)


def test_window_verdicts():
    for gamma in (Fraction(9, 4), Fraction(5, 2), 3, 4):
        for mu in (Fraction(-5, 3), Fraction(-3, 2)):
            v = window_verdict(mu, gamma, MODIFIED)
            assert v.verdict == "destabilizing"
            assert v.form_value < 0
    assert window_verdict(Fraction(-1), 3, MODIFIED).verdict == "kernel"
    # outside the window on both sides
    assert window_verdict(Fraction(-1, 2), 3, MODIFIED).verdict == "stable-direction"
    assert window_verdict(Fraction(-6), 3, MODIFIED).verdict == "stable-direction"

    for mu in (Fraction(-5, 3), Fraction(-3, 2), Fraction(-1, 2), Fraction(-6)):
        v = window_verdict(mu, None, NORMALIZED)
        assert v.form_value >= 0
        assert v.verdict != "destabilizing"
    assert window_verdict(Fraction(-1), None, NORMALIZED).verdict == "kernel"


def test_window_mu_at_the_exact_constants_of_the_point():
    kap, gam = Fraction(1, 10), Fraction(7, 3)
    # rescaled points sit at kappa_eff = (gamma - 1) kappa = (4/3) kappa
    assert window_mu(principal(MODIFIED, kap, gam, +1)) == Fraction(-5, 3)
    assert window_mu(rescaled(kap, gam, +1)) == Fraction(-20, 9)
    assert window_mu(principal(MODIFIED, kap, gam, -1)) == Fraction(-3, 2)
    assert window_mu(rescaled(kap, gam, -1)) == Fraction(-2)


@pytest.mark.parametrize("kappa, gamma, exact_kappa, exact_gamma", [
    (Fraction(1, 10), Fraction(7, 3), Fraction(1, 10), Fraction(7, 3)),
    (4, 3, Fraction(4), Fraction(3)),
    (0.1, 2.1, Fraction(0.1), Fraction(2.1)),
])
def test_critical_points_carry_the_exact_constants_they_read(kappa, gamma, exact_kappa,
                                                              exact_gamma):
    for eps in (+1, -1):
        for point in find_critical_points(MODIFIED, kappa, gamma, eps):
            assert type(point.kappa) is Fraction and point.kappa == exact_kappa
            assert type(point.gamma) is Fraction and point.gamma == exact_gamma
        point = principal(NORMALIZED, kappa, gamma, eps)
        assert point.kappa == exact_kappa and point.gamma is None


def test_classify_decides_the_window_at_the_point_gamma():
    # gamma = 2.1 as a float is its binary value; the form is evaluated over Fraction there
    pt = rescaled(0.1, 2.1, -1)
    rep = classify(MODIFIED, pt, 0.1, 2.1, -1)
    mu = window_mu(pt)
    assert rep.window.form_value == float((mu + 1) * (mu + Fraction(5, 2) * (Fraction(2.1) - 1)))


@pytest.mark.parametrize("flavor, kappa, gamma, eps, name", [
    (MODIFIED, 4.0, 5.0, -1, "gamma"),  # a gamma = 5 Jacobian beside a gamma = 3 window verdict
    (MODIFIED, 2.0, 3.0, -1, "kappa"),  # also the kappa = 2, gamma = 3 rescaled point
    (MODIFIED, 4.0, 3.0, +1, "eps"),
    (NORMALIZED, 4.0, 3.0, -1, "flavor"),
    (MODIFIED, 4.0, None, -1, "gamma"),
    (MODIFIED, Fraction(4), Fraction(3, 1) + Fraction(1, 10 ** 30), -1, "gamma"),
])
def test_classify_refuses_constants_that_are_not_the_points_own(flavor, kappa, gamma, eps, name):
    point = principal(MODIFIED, 4.0, 3.0, -1)
    with pytest.raises(ValueError, match=rf"^{name} .* differs from the point's {name} "):
        classify(flavor, point, kappa, gamma, eps)


def test_classify_takes_the_point_constants_in_any_exact_spelling():
    point = principal(MODIFIED, 4.0, 3.0, -1)
    reports = [classify(MODIFIED, point, k, g, -1)
               for k, g in ((4.0, 3.0), (4, 3), (Fraction(4), Fraction(3)), (np.float64(4), 3.0))]
    assert all(r == reports[0] for r in reports)
    # the normalized flavor ignores gamma (flow --perturb passes its default --gamma)
    point = principal(NORMALIZED, 4.0, None, -1)
    assert classify(NORMALIZED, point, 4.0, 3.0, -1).index == 0


def test_find_critical_points_evaluates_no_rates(monkeypatch):
    # each point is its closed form, proved an equilibrium once for every kappa
    # and gamma by test_each_closed_form_zeroes_the_rates_for_every_kappa_and_gamma,
    # so a gamma no earlier call has seen needs no rate evaluation either
    from coflow import coflow_dynamics

    def refuse(*_):
        raise AssertionError("find_critical_points evaluated the rates")

    monkeypatch.setattr(coflow_dynamics, "_rates", refuse)
    for eps in (+1, -1):
        points = find_critical_points(MODIFIED, 4, 3.123456789, eps)
        assert [p.label for p in points] == [LABEL_PRINCIPAL, LABEL_RESCALED]
        assert [p.kappa_eff for p in points] == [4, 4 * (Fraction(3.123456789) - 1)]
        assert [p.label for p in find_critical_points(NORMALIZED, 4.123456789, None, eps)] == [LABEL_PRINCIPAL]


def test_a_point_without_gamma_or_with_an_inexact_or_out_of_range_constant_is_refused():
    for label in (LABEL_RESCALED, LABEL_PRINCIPAL):
        with pytest.raises(ValueError, match="^the modified flow's point needs gamma, got None$"):
            CriticalPoint(MODIFIED, -1, Fraction(4), None, label)
    for kappa, gamma, name in ((4.0, Fraction(3), "kappa"), (Fraction(4), 3.0, "gamma"),
                               (Decimal(4), 3, "kappa"), (np.float64(4), 3, "kappa")):
        with pytest.raises(TypeError, match=rf"^{name} must be an int or a Fraction, got "):
            CriticalPoint(MODIFIED, -1, kappa, gamma, LABEL_PRINCIPAL)
    with pytest.raises(TypeError, match="^kappa must be an int or a Fraction, got float$"):
        CriticalPoint(NORMALIZED, +1, 4.0, None, LABEL_PRINCIPAL)
    # the constants find_critical_points refuses are refused by the constructor too
    for kappa in (0, Fraction(-4)):
        with pytest.raises(ValueError, match=f"^kappa must be positive, got {kappa}$"):
            CriticalPoint(NORMALIZED, +1, kappa, None, LABEL_PRINCIPAL)
    for gamma, label in ((1, LABEL_RESCALED), (Fraction(2), LABEL_PRINCIPAL)):
        with pytest.raises(ValueError, match=f"^modified flavor requires gamma > 2, got {gamma}$"):
            CriticalPoint(MODIFIED, -1, 4, gamma, label)
    # a point of an unknown flavor was built, and classify then raised KeyError
    with pytest.raises(ValueError, match="^unknown flavor 'sideways'"):
        CriticalPoint("sideways", -1, Fraction(4), None, LABEL_PRINCIPAL)
    point = principal(MODIFIED, 4, 3, -1)
    with pytest.raises(TypeError, match="^kappa must be"):
        dataclasses.replace(point, kappa=4.0)
    assert CriticalPoint(MODIFIED, -1, 4, 3, LABEL_PRINCIPAL).params == point.params


@pytest.mark.parametrize("gamma", (None, 2, Fraction(2), 1.5))
def test_modified_window_verdict_requires_gamma_above_2(gamma):
    with pytest.raises(ValueError, match="gamma > 2"):
        window_verdict(Fraction(-3, 2), gamma, MODIFIED)


def test_classify_reports_destabilizing_window_only_for_modified():
    kap = 4.0
    rep = classify(MODIFIED, principal(MODIFIED, kap, 3.0, -1), kap, 3.0, -1)
    assert rep.window.verdict == "destabilizing"
    assert rep.unstable_form is not None

    rep = classify(NORMALIZED, principal(NORMALIZED, kap, None, -1), kap, None, -1)
    assert rep.window.verdict == "stable-direction"
    assert rep.unstable_form is None


def test_psi_identities():
    for eps in (+1, -1):
        for kap in (1, 4, Fraction(5, 2)):
            report = verify_psi_identities(eps, kap)
            assert report.all_pass, report.details


@pytest.mark.parametrize("eps", (+1, -1))
@pytest.mark.parametrize("kap", (4.0, 0.1))
def test_psi_identities_at_a_float_kappa(eps, kap):
    # read as the exact binary value, as find_critical_points reads it
    report = verify_psi_identities(eps, kap)
    assert report.all_pass, report.details


@pytest.mark.parametrize("eps", (+1, -1))
@pytest.mark.parametrize("kap", (4, Fraction(7, 3), Fraction(0.1), Fraction(1, 10 ** 6)))
def test_the_psi_family_is_r_dp_and_its_star_is_mu0_r_kappa_p(eps, kap):
    from coflow import stability
    from coflow.invariant_forms import exterior_derivative, form

    psi, mu0, r, primitive = stability._PSI_MU0[eps]
    assert psi == (PSI_PLUS if eps == +1 else PSI_MINUS)
    assert r * exterior_derivative(primitive) == psi
    # star(Psi) written out term by term, independent of P
    literal = {
        +1: (Fraction(5, 12) * kap) * form([("e1^w1", 1), ("e2^w2", 1), ("e3^w3", -2)]),
        -1: (Fraction(1, 4) * kap) * form([("e1^w1", 1), ("e2^w2", 1), ("e3^w3", 1), ("e123", -2)]),
    }[eps]
    assert (mu0 * r * kap) * primitive == literal
    assert verify_psi_identities(eps, kap).all_pass


def test_spectral_report_json_schema():
    kap = 4.0
    rep = classify(MODIFIED, principal(MODIFIED, kap, 3.0, +1), kap, 3.0, +1)
    payload = rep.to_json_dict()
    assert set(payload) == {
        "flavor", "epsilon", "kappa", "gamma", "point", "tau0", "jacobian",
        "eigenvalues", "eigenvectors", "index", "unstable_form", "window",
    }
    assert set(payload["point"]) == {"a", "b", "c"}
    assert set(payload["window"]) == {"mu", "verdict"}
    assert all(set(e) == {"re", "im", "residual"} for e in payload["eigenvalues"])
    assert payload["index"] == 1
    assert isinstance(payload["unstable_form"], dict)


def test_state_direction_unit_norm_and_scaling():
    pt = principal(MODIFIED, 4.0, 3.0, +1)
    v = state_direction(pt, (0, 0, 1))
    assert np.allclose(v, (0, 0, 1))
    v = state_direction(pt, (1, 1, 1))
    assert np.linalg.norm(v) == pytest.approx(1.0)
    # the third slot carries the sqrt(5) weight of the plus family
    assert v[2] / v[0] == pytest.approx(SQ5)
    with pytest.raises(ValueError):
        state_direction(pt, (0, 0, 0))


def test_state_direction_is_a_unit_vector_at_every_finite_scale():
    pt = principal(MODIFIED, 4.0, 3.0, +1)
    unit = state_direction(pt, (1, 1, 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for scale in (1e200, 1e-200, 1e308, 5e-324):
            v = state_direction(pt, (scale, scale, scale))
            assert np.allclose(v, unit, rtol=1e-15, atol=0)
            assert np.linalg.norm(v) == pytest.approx(1.0, rel=1e-15)
        # the plus family's c is sqrt(5) a
        assert tuple(state_direction(pt, (1e308, 0, -1e308))) == pytest.approx((6 ** -0.5, 0, -(5 / 6) ** 0.5))
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="^the direction must be finite"):
                state_direction(pt, (1.0, bad, 1.0))
        for zero in ((0, 0, 0), (0.0, -0.0, 0.0)):
            with pytest.raises(ValueError, match="^zero direction$"):
                state_direction(pt, zero)


def test_state_direction_scales_exact_components_beyond_the_float_range():
    # float(10**400) overflows; the exact components are divided by their
    # largest magnitude first, which leaves the unit direction as it is
    pt = principal(MODIFIED, 4, 3, +1)
    huge = 10 ** 400
    for direction, same in (((huge, 1, 1), (1, 0, 0)), ((huge, huge, -huge), (1, 1, -1)),
                            ((Fraction(huge, 3), Fraction(-huge, 6), 0), (1, -0.5, 0)),
                            ((1, -huge, Fraction(huge, 4)), (0, -1, 0.25))):
        assert state_direction(pt, direction).tobytes() == state_direction(pt, same).tobytes()
    with pytest.raises(ValueError):
        state_direction(pt, (huge, math.nan, 1))


@pytest.mark.parametrize("kappa", [1e-160, 1e160, 1e200, 1e300])
def test_state_c_is_within_one_ulp_of_the_root_of_q_at_any_scale(kappa):
    # float(q) overflows at kappa 1e-160 and underflows at the others
    for eps in (+1, -1):
        for pt in find_critical_points(NORMALIZED, kappa, None, eps) + find_critical_points(MODIFIED, kappa, 3, eps):
            c, q = pt.state[2], pt.params.q
            ulp = math.ulp(c)
            assert 0 < c < math.inf
            assert Fraction(c - ulp) ** 2 <= q <= Fraction(c + ulp) ** 2


def test_state_keeps_the_bits_of_every_ordinary_q():
    rng = random.Random(29)
    params = [random_params(rng, eps) for eps in (+1, -1) for _ in range(500)]
    params += [pt.params for eps in (+1, -1) for kappa in (0.5, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 16.0, 32.0)
               for gamma in (2.5, 3.0, 4.0, 5.0, 6.0) for pt in find_critical_points(MODIFIED, kappa, gamma, eps)]
    for p in params:
        want = (float(p.a), float(p.b), float(p.q) ** 0.5)
        assert [x.hex() for x in p.state()] == [x.hex() for x in want]


def test_state_direction_keeps_the_bits_of_every_ordinary_direction():
    # the --perturb and ensemble pins read these bits: the rescaling is taken
    # only where the sum of squares over- or underflows
    rng = random.Random(3)
    points = [p for eps in (+1, -1) for p in find_critical_points(MODIFIED, rng.uniform(0.1, 10), 3, eps)]
    for pt in points:
        for _ in range(50):
            d = [rng.uniform(-1, 1) * 10.0 ** rng.randint(-100, 100) for _ in range(3)]
            v = np.array(pt.state) * np.array(d)
            want = v / float(np.sqrt((v * v).sum()))
            assert state_direction(pt, d).tobytes() == want.tobytes()


KNOWN_ROOTS = {
    +1: [
        (0.6, 0.6, 0.6 * SQ5),
        (0.3, 0.3, 0.3 * SQ5),
        (0.350196579905, 0.183571550431, 0.648854244094),
        (0.494370498097, 0.494370498097, 0.520363213124),
    ],
    -1: [
        (1.0, 1.0, 1.0),
        (0.5, 0.5, 0.5),
        (0.488217966607, 0.312301990963, 0.538557367847),
    ],
}


def tau3_norm_sq_at(state, eps):
    fa, fb, fc = (Fraction(float(v)) for v in state)
    return float(torsion(build(GeometryParams(fa, fb, fc * fc, eps))).tau3_norm_sq)


def test_normalized_root_survey_finds_only_the_attractor():
    # the extended field has rest points on the degenerate b -> 0 boundary;
    # those are not geometric states, so near-boundary roots are skipped
    rng = random.Random(7)
    for eps in (+1, -1):
        target = np.array(KNOWN_ROOTS[eps][0])
        for _ in range(60):
            y0 = np.array([rng.uniform(0.2, 2.0) for _ in range(3)])
            root = newton_refine(NORMALIZED, y0, 4.0, None, eps)
            if root is None or root.min() < 1e-6:
                continue
            assert np.linalg.norm(root - target) < 1e-8


def test_modified_root_survey_extras_are_not_nearly_parallel():
    rng = random.Random(8)
    for eps in (+1, -1):
        known = [np.array(r) for r in KNOWN_ROOTS[eps]]
        found = set()
        for _ in range(120):
            y0 = np.array([rng.uniform(0.15, 1.8) for _ in range(3)])
            root = newton_refine(MODIFIED, y0, 4.0, 3.0, eps)
            if root is None or root.min() < 1e-6:
                continue
            dists = [np.linalg.norm(root - k) for k in known]
            idx = int(np.argmin(dists))
            assert dists[idx] < 1e-8, f"unexpected equilibrium {root}"
            found.add(idx)
        # the survey reaches the catalogued non-nearly-parallel equilibria
        assert any(i >= 2 for i in found)
        for i in found:
            n2 = tau3_norm_sq_at(known[i], eps)
            if i < 2:
                assert n2 < 1e-18
            else:
                assert n2 > 1.0


# grid cases where a float Newton check of the exact equilibrium once failed
# ("Newton refinement diverged": a float residual of about 1.1e-13 against an
# absolute 1e-13 tolerance)
@pytest.mark.parametrize("eps, kappa, gamma, label, kappa_eff", [
    (-1, 6.0, 5.0, LABEL_PRINCIPAL, 6),
    (+1, 32.0, 5.0, LABEL_PRINCIPAL, 32),
    (-1, 16.0, 4.0, LABEL_RESCALED, 48),
    (-1, 32.0, 4.0, LABEL_RESCALED, 96),
    (-1, 32.0, 6.0, LABEL_RESCALED, 160),
])
def test_critical_points_are_the_closed_form(eps, kappa, gamma, label, kappa_eff):
    pt = next(p for p in find_critical_points(MODIFIED, kappa, gamma, eps) if p.label == label)
    assert pt.kappa_eff == kappa_eff
    if eps == -1:
        a = Fraction(4, kappa_eff)
        assert pt.params == GeometryParams(a=a, b=a, q=a * a, eps=eps)
        want = (4 / kappa_eff, 4 / kappa_eff, 4 / kappa_eff)
    else:
        a = Fraction(12, 5 * kappa_eff)
        assert pt.params == GeometryParams(a=a, b=a, q=5 * a * a, eps=eps)
        want = (12 / (5 * kappa_eff), 12 / (5 * kappa_eff), 12 * SQ5 / (5 * kappa_eff))
    assert pt.state == pt.params.state()
    assert np.allclose(pt.state, want, rtol=4e-16, atol=0)
    assert abs(pt.tau0 - kappa_eff) < 1e-12 * kappa_eff


def test_eigen3_sign_convention_and_conjugate_order():
    # each vector's largest-magnitude component (the first among ties to
    # 1e-9) is real and positive, and a conjugate pair lists +imag first
    pairs = eigen3(np.array([[0.0, -2.0, 0.0], [2.0, 0.0, 0.0], [0.0, 0.0, 1.0]]))
    assert [p.value.imag for p in pairs] == pytest.approx([0.0, 2.0, -2.0], abs=1e-12)
    rng = np.random.default_rng(5)
    for m in [pairs] + [eigen3(rng.standard_normal((3, 3))) for _ in range(40)]:
        keys = [(-p.value.real, -abs(p.value.imag), -p.value.imag) for p in m]
        assert keys == sorted(keys)
        for p in m:
            v = np.array(p.vector)
            k = int(np.argmax(np.abs(v) >= (1 - 1e-9) * np.abs(v).max()))
            assert v[k].imag == 0 and v[k].real > 0
            assert np.linalg.norm(v) == pytest.approx(1.0)
            assert p.residual < 1e-12


GRID_KAPPAS = (0.5, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 16.0, 32.0)
GRID_GAMMAS = (2.5, 3.0, 4.0, 5.0, 6.0)
GRID = [(eps, kappa, gamma) for eps in (+1, -1) for kappa in GRID_KAPPAS for gamma in GRID_GAMMAS]


@pytest.mark.parametrize("kappa", GRID_KAPPAS)
def test_double_eigenvalue_at_the_plus_rescaled_point_gamma_4(kappa):
    # exact spectrum {15k^2/4, -5k^2, -5k^2} with a two-dimensional eigenspace
    report = classify(MODIFIED, rescaled(kappa, 4.0, +1), kappa, 4.0, +1)
    jnorm = float(np.linalg.norm(np.array(report.jacobian)))
    values = [p.value for p in report.eigenpairs]
    assert [v.real for v in values] == pytest.approx(
        [15 * kappa ** 2 / 4, -5 * kappa ** 2, -5 * kappa ** 2], rel=1e-6)
    assert all(v.imag == 0 for v in values)
    assert all(p.residual <= 1e-7 * jnorm for p in report.eigenpairs)
    assert report.index == 1


@pytest.mark.parametrize("eps, kappa, gamma", GRID)
def test_principal_unstable_vector_and_exact_form_on_the_grid(eps, kappa, gamma):
    report = classify(MODIFIED, principal(MODIFIED, kappa, gamma, eps), kappa, gamma, eps)
    target = np.array((-1, 2, 0) if eps == +1 else (0, 4, -1), dtype=np.float64)
    got = np.array([complex(x).real for x in report.eigenpairs[0].vector])
    assert np.max(np.abs(got - target / np.linalg.norm(target))) < 1e-8

    psi_27 = PSI_PLUS if eps == +1 else PSI_MINUS
    key = next(iter(psi_27.coeffs))
    scale = report.unstable_form.coefficient(key) / psi_27.coefficient(key)
    assert isinstance(scale, Fraction) and scale != 0
    assert report.unstable_form == scale * psi_27


# scales far from kappa ~ 1: the linearization must not depend on a step that
# grows like kappa while the point shrinks like 1/kappa, and eigenvalues
# cluster relative to ||J||, so the three stay distinct
@pytest.mark.parametrize("kappa", (1e-60, 1e-30, 1e-6, 1e-4, 1e-3, 1e-2, 0.1,
                                   200.0, 1e3, 1e4, 1e5, 1e6, 1e30, 1e70, 1e75, 1e76))
@pytest.mark.parametrize("eps", (+1, -1))
def test_index_is_scale_free(eps, kappa):
    for gamma in (3.0, 16.0):
        report = classify(MODIFIED, principal(MODIFIED, kappa, gamma, eps), kappa, gamma, eps)
        assert report.index == 1 and not any(report.marginal)
    report = classify(NORMALIZED, principal(NORMALIZED, kappa, None, eps), kappa, None, eps)
    assert report.index == 0 and not any(report.marginal)


@pytest.mark.parametrize("kappa", GRID_KAPPAS)
def test_plus_rescaled_kernel_at_gamma_five_halves(kappa):
    # exact spectrum 5(g-1)(g-2)k^2/8, 5(g-1)(g-16)k^2/36, -5(g-1)(2g-5)k^2/9:
    # the last eigenvalue vanishes at g = 5/2
    report = classify(MODIFIED, rescaled(kappa, 2.5, +1), kappa, 2.5, +1)
    assert report.index == 1
    assert sum(report.marginal) == 1


def test_plus_rescaled_kernel_at_gamma_16_and_its_exact_form():
    report = classify(MODIFIED, rescaled(4.0, 16.0, +1), 4.0, 16.0, +1)
    assert report.index == 1
    assert sum(report.marginal) == 1
    assert report.unstable_form.to_json_dict() == {
        "vol": "4/125", "e23^w1": "-4/625", "e13^w2": "4/625", "e12^w3": "-4/625"}


@pytest.mark.parametrize("eps, kappa, gamma", GRID)
def test_rescaled_unstable_form_is_exact_on_the_grid(eps, kappa, gamma):
    report = classify(MODIFIED, rescaled(kappa, gamma, eps), kappa, gamma, eps)
    assert report.unstable_form is not None
    coeffs = report.unstable_form.coeffs.values()
    assert coeffs and all(c.denominator < 2 ** 40 for c in coeffs)


@pytest.mark.parametrize("eps, kappa, gamma", GRID)
def test_linearization_matches_its_analytic_twin_to_rounding(eps, kappa, gamma):
    num, ana = jacobian(MODIFIED, principal(MODIFIED, kappa, gamma, eps), kappa, gamma, eps)
    assert np.max(np.abs(num - ana)) / np.max(np.abs(ana)) <= 1e-12


def _variation_to_form_by_eps(point, direction):
    # the per-family (A, B, C) scales that variation_to_form once wrote out
    A_, B_, C_ = (Fraction(x) for x in direction)
    p = point.params
    ke = point.kappa_eff
    if point.eps == +1:
        da = ke / 12 * A_
        db = ke / 12 * B_
        dq = Fraction(5, 6) * p.a * ke * C_   # 2c * (sqrt(5) ke / 12) with c = sqrt(5) a
    else:
        da = ke / 4 * A_
        db = ke / 4 * B_
        dq = p.a * ke / 2 * C_                # 2c * (ke / 4) with c = a
    a, b, q = p.a, p.b, p.q
    return ansatz_4form((2 * q * dq,
                         b * q * da + a * q * db + a * b * dq,
                         2 * a * q * da + a * a * dq), p.eps)


def _scaled_by_family(jac, point):
    # the per-family scales kappa_eff (1, 1, sqrt 5) / 12 and kappa_eff / 4
    ke = float(point.kappa_eff)
    if point.eps == +1:
        scales = np.array([ke / 12, ke / 12, math.sqrt(5) * ke / 12])
    else:
        scales = np.array([ke / 4, ke / 4, ke / 4])
    return jac * scales / scales[:, None]


@pytest.mark.parametrize("eps, kappa, gamma", GRID)
def test_abc_coordinates_are_the_family_scales(eps, kappa, gamma):
    # (A, B, C) = q (da/a, db/b, dc/c) gives the family formulas exactly on
    # 4-forms and to rounding on the linearization
    for point in find_critical_points(MODIFIED, kappa, gamma, eps):
        for direction in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
            want = _variation_to_form_by_eps(point, direction)
            assert variation_to_form(point, direction) == want
        want = _scaled_by_family(_rhs_jacobian(MODIFIED, point.state, kappa, gamma, eps), point)
        got = jacobian(MODIFIED, point, kappa, gamma, eps)[0]
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def _exact_rhs_jacobian(flavor, kappa, gamma, eps):
    a, b, c = sympy.symbols("a b c", positive=True)
    gam = None if gamma is None else sympy.Rational(gamma)
    rates = state_rates(a, b, c, monomial_rates(flavor, a, b, c * c, sympy.Rational(kappa), gam, eps))
    return (a, b, c), sympy.Matrix(rates).jacobian([a, b, c])


@pytest.mark.parametrize("flavor, gamma", [(NORMALIZED, None), (MODIFIED, 3.0)])
@pytest.mark.parametrize("eps", (+1, -1))
def test_complex_step_jacobian_matches_the_exact_derivative(flavor, gamma, eps):
    syms, exact = _exact_rhs_jacobian(flavor, 4.0, gamma, eps)
    rng = random.Random(11 + eps)
    for _ in range(5):
        y = [rng.uniform(0.2, 3.0) for _ in range(3)]
        at = {s: sympy.Rational(Fraction(v)) for s, v in zip(syms, y)}
        want = np.array(exact.xreplace(at).tolist(), dtype=np.float64)
        got = _rhs_jacobian(flavor, y, 4.0, gamma, eps)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_complex_step_jacobian_is_none_off_the_domain():
    assert _rhs_jacobian(NORMALIZED, (0.0, 1.0, 1.0), 4.0, None, -1) is None
    assert _rhs_jacobian(MODIFIED, (1e200, 1.0, 1e200), 4.0, 3.0, +1) is None
    assert _rhs_jacobian(MODIFIED, (1.0, 1.0, 1.0), 4.0, 3.0, -1) is not None



@pytest.mark.parametrize("kappa, gamma, name", [(4.0, 5.0, "gamma 5.0"), (2.0, 3.0, "kappa 2.0")])
def test_jacobian_refuses_constants_that_are_not_the_points_own(kappa, gamma, name):
    # once the gamma = 5 matrix and an AssertionError (the point is also the
    # kappa = 2, gamma = 3 rescaled point); now classify's own ValueError
    point = principal(MODIFIED, 4.0, 3.0, -1)
    with pytest.raises(ValueError) as from_jacobian:
        jacobian(MODIFIED, point, kappa, gamma, -1)
    with pytest.raises(ValueError) as from_classify:
        classify(MODIFIED, point, kappa, gamma, -1)
    assert str(from_jacobian.value).startswith(f"{name} differs from the point's ")
    assert str(from_jacobian.value) == str(from_classify.value)


def _jacobian_at_the_callers_constants(flavor, point, kappa, gamma, eps):
    """jacobian's matrices computed with the caller's kappa and gamma, unchecked."""
    kap, gam = float(kappa), None if gamma is None else float(gamma)
    ys = np.array(point.state)
    num = _rhs_jacobian(flavor, point.state, kap, gam, eps) * ys / ys[:, None]
    principal_twin = flavor == MODIFIED and point.label == LABEL_PRINCIPAL
    return num, analytic_jacobian(eps, kap, gam) if principal_twin else None


@pytest.mark.parametrize("flavor, gamma", [(NORMALIZED, None), (MODIFIED, 2.5), (MODIFIED, 3.0)])
@pytest.mark.parametrize("eps", (+1, -1))
@pytest.mark.parametrize("kappa", (0.1, 4.0, 1000.0))
def test_jacobian_at_the_points_own_constants_is_unchanged(flavor, gamma, eps, kappa):
    spellings = [(kappa, gamma), (Fraction(kappa), None if gamma is None else Fraction(gamma)),
                 (np.float64(kappa), gamma)]
    if flavor == NORMALIZED:
        spellings.append((kappa, 3.0))  # ignored, as flow --perturb passes its default
    for point in find_critical_points(flavor, kappa, gamma, eps):
        for k, g in spellings:
            want_num, want_ana = _jacobian_at_the_callers_constants(flavor, point, k, g, eps)
            num, ana = jacobian(flavor, point, k, g, eps)
            assert num.tobytes() == want_num.tobytes()
            assert (ana is None and want_ana is None) or ana.tobytes() == want_ana.tobytes()


def test_the_report_carries_the_points_constants():
    point = principal(NORMALIZED, 4.0, None, -1)
    for gamma in (None, 3.0, 7):
        report = classify(NORMALIZED, point, 4.0, gamma, -1)
        assert (report.flavor, report.epsilon, report.kappa) == (NORMALIZED, -1, 4.0)
        assert report.gamma is None
        assert report.to_json_dict()["gamma"] is None
    point = rescaled(0.1, 2.1, -1)
    for k, g in ((0.1, 2.1), (Fraction(0.1), Fraction(2.1)), (np.float64(0.1), np.float64(2.1))):
        report = classify(MODIFIED, point, k, g, -1)
        assert (report.flavor, report.epsilon, report.kappa, report.gamma) == (MODIFIED, -1, 0.1, 2.1)
        assert type(report.kappa) is float and type(report.gamma) is float


def test_every_reported_eigenpair_is_real_and_its_json_im_is_zero():
    for point in _point_set():
        report = classify(point.flavor, point, point.kappa, point.gamma, point.eps)
        for p in report.eigenpairs:
            assert type(p.value) is float
            assert type(p.vector) is tuple and all(type(x) is float for x in p.vector)
        eigenvalues = report.to_json_dict()["eigenvalues"]
        assert [(e["im"], type(e["im"])) for e in eigenvalues] == [(0.0, float)] * 3
        assert [e["re"] for e in eigenvalues] == [p.value for p in report.eigenpairs]


PSI_FLAGS = ("wedge_certificates", "exact_primitive", "dstar_eigenvalue", "star_formula")


@pytest.mark.parametrize("eps", (+1, -1))
@pytest.mark.parametrize("name, flag, label", [
    ("wedge", "wedge_certificates", "wedge certificate residue"),
    ("exterior_derivative", "exact_primitive", "primitive mismatch"),
    ("dstar_on_4forms", "dstar_eigenvalue", "dstar eigenvalue mismatch"),
    ("hodge_star", "star_formula", "star closed form mismatch"),
])
def test_each_broken_psi_identity_reports_its_own_flag_and_detail(monkeypatch, eps, name, flag, label):
    from coflow import stability
    from coflow.invariant_forms import VOL

    params = stability._exact_point_params(eps, Fraction(4))
    ans = build(params)
    psi_27 = PSI_PLUS if eps == +1 else PSI_MINUS
    real = getattr(stability, name)
    if name == "wedge":
        # each certificate returns its right factor, phi (degree 3) and psi (degree 4)
        def broken(x, y):
            return y
        keys = list(ans.phi.coeffs) + list(ans.psi.coeffs)
    elif name == "hodge_star":
        # doubled: 2 star(Psi) keeps its wedge certificates zero, so only its
        # own identity breaks, by star(Psi) itself
        def broken(*args):
            return 2 * real(*args)
        keys = real(psi_27, params).coeffs
    else:
        # one extra vol term on the left side, so the mismatch is on vol alone
        def broken(*args):
            return real(*args) + VOL
        keys = VOL.coeffs
    monkeypatch.setattr(stability, name, broken)

    report = verify_psi_identities(eps, 4)
    assert {f: getattr(report, f) for f in PSI_FLAGS} == {f: f != flag for f in PSI_FLAGS}
    assert not report.all_pass
    assert report.details == (f"{label} on {sorted(m.key for m in keys)}",)


def _benchmark_grid():
    """FULL_GRID of benchmarks/workloads.py: every (eps, kappa, gamma) of the spectral audit."""
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_coflow_benchmark_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module.FULL_GRID


BENCHMARK_GRID = _benchmark_grid()


def _oriented_numpy(v):
    mags = np.abs(v)
    k = int(np.argmax(mags >= (1 - 1e-9) * mags.max()))
    return v * (np.conj(v[k]) / mags[k])


def _eigen3_numpy(matrix):
    """eigen3 as it was written on numpy arrays throughout: the oracle of the scalar version."""
    A = np.asarray(matrix, dtype=np.float64)
    anorm = float(np.sqrt(np.sum(A * A)))
    values, vectors = np.linalg.eig(A)
    order = sorted(range(3), key=lambda i: (-values[i].real, -abs(values[i].imag), -values[i].imag))
    clusters = []
    for i in order:
        if clusters and abs(values[i] - values[clusters[-1][0]]) <= 2e-7 * anorm:
            clusters[-1].append(i)
        else:
            clusters.append([i])
    pairs = []
    for cluster in clusters:
        lam = sum(values[i] for i in cluster) / len(cluster)
        kept = []
        for i in cluster:
            v = _oriented_numpy(vectors[:, i])
            block = np.column_stack(kept + [v])
            generalized = bool(kept) and np.linalg.svd(block, compute_uv=False)[-1] <= 1e-6
            if not generalized:
                kept.append(v)
            res = A @ v - lam * v
            pairs.append(FloatEigenpair(
                value=complex(lam),
                vector=tuple(complex(x) for x in v),
                residual=float(np.sqrt(np.abs(res @ np.conj(res)))),
                generalized=bool(generalized),
            ))
    return pairs


def _grid_jacobians():
    for eps, kappa, gamma in BENCHMARK_GRID:
        for point in find_critical_points(MODIFIED, kappa, gamma, eps):
            yield jacobian(MODIFIED, point, kappa, gamma, eps)[0]
        yield jacobian(NORMALIZED, principal(NORMALIZED, kappa, None, eps), kappa, None, eps)[0]


def _seeded_matrices():
    rng = np.random.default_rng(2026)
    return [rng.standard_normal((3, 3)) for _ in range(300)]


def test_eigen3_matches_its_numpy_oracle():
    # a real spectrum gives the oracle's bits in every field but the residual;
    # a complex one may move a vector by rounding only (numpy's complex array
    # arithmetic can round differently from Python's, with fused
    # multiply-adds on some hosts)
    special = [
        np.array([[0.0, -2.0, 0.0], [2.0, 0.0, 0.0], [0.0, 0.0, 1.0]]),  # a conjugate pair
        np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 2.0]]),  # a Jordan block
        np.zeros((3, 3)),
        np.eye(3),
    ]
    matrices = _seeded_matrices() + special + list(_grid_jacobians())
    assert len(matrices) == 300 + 4 + 3 * len(BENCHMARK_GRID)
    complex_spectra = 0
    for m in matrices:
        got, want = eigen3(m), _eigen3_numpy(m)
        anorm = float(np.linalg.norm(m))
        assert [(p.value, p.generalized) for p in got] == [(p.value, p.generalized) for p in want]
        if all(p.value.imag == 0 for p in want):
            assert [p.vector for p in got] == [p.vector for p in want]
        else:
            complex_spectra += 1
            for p, q in zip(got, want):
                assert max(abs(x - y) for x, y in zip(p.vector, q.vector)) <= 4 * 2.0 ** -52
        for p, q in zip(got, want):
            assert abs(p.residual - q.residual) <= 1e-15 * anorm
    assert complex_spectra > 50


def _window_mu_by_inner_products(point):
    psi_27 = PSI_PLUS if point.eps == +1 else PSI_MINUS
    image = dstar_on_4forms(psi_27, point.params)
    return inner_product(image, psi_27, point.params) / (
        point.kappa * inner_product(psi_27, psi_27, point.params))


def test_window_mu_equals_the_inner_product_ratio_on_the_benchmark_grid():
    points = [p for eps, kappa, gamma in BENCHMARK_GRID
              for p in find_critical_points(MODIFIED, kappa, gamma, eps)]
    points += [principal(NORMALIZED, kappa, None, eps)
               for eps, kappa in {(eps, kappa) for eps, kappa, _ in BENCHMARK_GRID}]
    assert len(points) == 2 * len(BENCHMARK_GRID) + 18
    for point in points:
        mu = window_mu(point)
        assert type(mu) is Fraction
        assert mu == _window_mu_by_inner_products(point)


def test_the_modified_flow_has_an_equilibrium_that_is_not_nearly_parallel():
    a, b, q = Fraction(3, 5), Fraction(3, 5), Fraction(9, 25)
    kappa, gamma = Fraction(4), Fraction(8, 3)
    assert monomial_rates(MODIFIED, a, b, q, kappa, gamma, +1) == (0, 0, 0)
    num, den = tau0_terms(a, b, q, +1)
    tau0 = num / den
    assert tau0 == Fraction(60, 7)
    assert tau0 not in (kappa, (gamma - 1) * kappa)


def test_the_witness_zeroes_the_algebras_rate_form():
    # the rate form built by the exterior algebra, independently of the
    # hand-coded monomial rates
    params = GeometryParams(Fraction(3, 5), Fraction(3, 5), Fraction(9, 25), +1)
    kappa, gamma = Fraction(4), Fraction(8, 3)
    ans = build(params)
    t0 = ansatz_tau0(ans)
    assert t0 == Fraction(60, 7)
    rate = (laplacian_psi(ans) + (Fraction(1, 2) * (5 * gamma * kappa - 7 * t0)) * ans.dphi
            + (Fraction(5, 2) * (1 - gamma) * kappa ** 2) * ans.psi)
    assert rate == InvariantForm.zero()
    assert ans.dphi != t0 * ans.psi  # not nearly parallel


@pytest.mark.parametrize("label, kappa_eff", [(LABEL_PRINCIPAL, Fraction(4)),
                                              (LABEL_RESCALED, Fraction(20, 3))])
def test_jacobian_and_classify_refuse_the_witness_under_either_label(label, kappa_eff):
    # a witness point once gave an AssertionError from the twin check
    # (principal) and an index-2 report (rescaled); the eigenbasis holds only
    # at the closed-form points, and a point under either label is the closed
    # form at its kappa_eff, never the witness
    witness = GeometryParams(Fraction(3, 5), Fraction(3, 5), Fraction(9, 25), +1)
    point = CriticalPoint(MODIFIED, +1, Fraction(4), Fraction(8, 3), label)
    a = Fraction(12, 5) / kappa_eff
    assert point.kappa_eff == kappa_eff
    assert point.params == GeometryParams(a, a, 5 * a * a, +1) != witness
    assert point.state == point.params.state() != witness.state()
    assert point in find_critical_points(MODIFIED, 4, Fraction(8, 3), +1)
    with pytest.raises(TypeError):
        CriticalPoint(MODIFIED, +1, Fraction(4), Fraction(8, 3), label, params=witness)
    with pytest.raises(ValueError, match="params is declared with init=False"):
        dataclasses.replace(point, params=witness)


@pytest.mark.parametrize("change, message", [
    (dict(kappa_eff=Fraction(8)), "kappa_eff is declared with init=False"),
    (dict(label="tau0_eq_something"), "has no 'tau0_eq_something' point"),
    (dict(state=(1.0, 1.0, 1.0 + 2 ** -52)), "state is declared with init=False"),
])
def test_jacobian_refuses_a_point_that_is_not_its_labels_closed_form(change, message):
    # such a point can no longer be made, so jacobian is never handed one
    with pytest.raises(ValueError, match=message):
        dataclasses.replace(principal(MODIFIED, 4, 3, -1), **change)
    with pytest.raises(ValueError, match="normalized_coflow flow has no"):
        dataclasses.replace(principal(NORMALIZED, 4, None, -1), label=LABEL_RESCALED)
    with pytest.raises(ValueError, match="normalized_coflow flow has no"):
        CriticalPoint(NORMALIZED, -1, Fraction(4), None, LABEL_RESCALED)


# the spectrum along (1, 1, 1), the Psi direction and the third table
# vector, k = kappa and g = gamma: the oracle of the table, never in src/
_K, _G = sympy.symbols("kappa gamma", positive=True)
TABLE_SPECTRA = [
    (NORMALIZED, +1, LABEL_PRINCIPAL, (-_K ** 2 / 2, -4 * _K ** 2 / 9, -25 * _K ** 2 / 36)),
    (NORMALIZED, -1, LABEL_PRINCIPAL, (-_K ** 2 / 2, -_K ** 2 / 4, -4 * _K ** 2)),
    (MODIFIED, +1, LABEL_PRINCIPAL, (-5 * _K ** 2 * (_G - 2) / 8, 5 * _K ** 2 * (3 * _G - 5) / 9,
                                     -5 * _K ** 2 * (15 * _G - 16) / 36)),
    (MODIFIED, -1, LABEL_PRINCIPAL, (-5 * _K ** 2 * (_G - 2) / 8, _K ** 2 * (5 * _G - 8) / 4,
                                     -_K ** 2 * (5 * _G - 3))),
    (MODIFIED, +1, LABEL_RESCALED, (5 * _K ** 2 * (_G - 1) * (_G - 2) / 8,
                                    -5 * _K ** 2 * (_G - 1) * (2 * _G - 5) / 9,
                                    5 * _K ** 2 * (_G - 1) * (_G - 16) / 36)),
    (MODIFIED, -1, LABEL_RESCALED, (5 * _K ** 2 * (_G - 1) * (_G - 2) / 8,
                                    -_K ** 2 * (_G - 1) * (3 * _G - 8) / 4,
                                    -_K ** 2 * (_G - 1) * (2 * _G + 3))),
]


def _exact_abc_jacobian(flavor, eps, label):
    # J in (A, B, C) = (q/a da, q/b db, dq/2) from the repo's own rates in
    # (a, b, q), at the closed-form point for symbolic kappa and gamma
    a, b, q = sympy.symbols("a b q", positive=True)
    gamma = _G if flavor == MODIFIED else None
    c = sympy.sqrt(q)
    da, db, dc = state_rates(a, b, c, monomial_rates(flavor, a, b, q, _K, gamma, eps))
    J = sympy.Matrix([da, db, 2 * c * dc]).jacobian([a, b, q])
    kappa_eff = _K if label == LABEL_PRINCIPAL else (_G - 1) * _K
    pa = (sympy.Rational(12, 5) if eps == +1 else 4) / kappa_eff
    pq = (5 if eps == +1 else 1) * pa * pa
    scales = sympy.diag(pq / pa, pq / pa, sympy.Rational(1, 2))
    return scales * J.subs({a: pa, b: pa, q: pq}) * scales.inv()


@pytest.mark.parametrize("eps", (+1, -1))
@pytest.mark.parametrize("flavor", (NORMALIZED, MODIFIED))
def test_every_rate_scales_by_lambda_squared_under_the_covariance(flavor, eps):
    # (a, b, q, kappa) -> (l a, l b, l^2 q, kappa / l) multiplies each rate by
    # l^2, so a point is an equilibrium at kappa exactly when its kappa = 1 copy is
    a, b, q, lam = sympy.symbols("a b q lambda", positive=True)
    gamma = sympy.Symbol("gamma")
    moved = monomial_rates(flavor, lam * a, lam * b, lam ** 2 * q, _K / lam, gamma, eps)
    rates = monomial_rates(flavor, a, b, q, _K, gamma, eps)
    assert all(sympy.cancel(u - lam ** 2 * v) == 0 for u, v in zip(moved, rates))


@pytest.mark.parametrize("eps", (+1, -1))
@pytest.mark.parametrize("flavor, label", [(NORMALIZED, LABEL_PRINCIPAL), (MODIFIED, LABEL_PRINCIPAL),
                                           (MODIFIED, LABEL_RESCALED)])
def test_each_closed_form_zeroes_the_rates_for_every_kappa_and_gamma(flavor, label, eps):
    # (r / kappa_eff, r / kappa_eff, s r^2 / kappa_eff^2) with the library's own (r, s):
    # each rate is 0 as a rational function of kappa and gamma, so at every kappa > 0 and
    # gamma > 2; this is the certificate find_critical_points relies on and does not repeat
    gamma = _G if flavor == MODIFIED else None
    kappa_eff = _K if label == LABEL_PRINCIPAL else (_G - 1) * _K
    r, s = (sympy.Rational(*Fraction(x).as_integer_ratio()) for x in _CLOSED_FORM[eps])
    a = r / kappa_eff
    rates = monomial_rates(flavor, a, a, s * a * a, _K, gamma, eps)
    assert all(sympy.cancel(u) == 0 for u in rates)


@pytest.mark.parametrize("flavor, eps, label, spectrum", TABLE_SPECTRA)
def test_the_eigenbasis_table_holds_for_every_kappa_and_gamma(flavor, eps, label, spectrum):
    J = _exact_abc_jacobian(flavor, eps, label)
    basis = _EIGENBASIS[eps]
    assert [max(v) for v in basis] == [1, 1, 1]
    for v, lam in zip(basis, spectrum):
        v = sympy.Matrix([sympy.Rational(x) for x in v])
        assert all(sympy.cancel(x) == 0 for x in J * v - lam * v)


@pytest.mark.parametrize("kappa", GRID_KAPPAS)
@pytest.mark.parametrize("eps, gamma", [(+1, Fraction(58, 25)), (-1, Fraction(26, 11))])
def test_a_repeated_top_value_reports_the_tables_first_direction(eps, gamma, kappa):
    # the scaling mode's value equals the Psi direction's here; the cluster
    # keeps the table's order, so the unstable form is the (1, 1, 1) one
    point = rescaled(kappa, gamma, eps)
    report = classify(MODIFIED, point, kappa, gamma, eps)
    top, second, third = report.eigenpairs
    assert top.value == second.value and top.value.real > 0 > third.value.real
    assert report.index == 2
    assert report.unstable_form == variation_to_form(point, (1, 1, 1))


def test_the_reported_vectors_are_the_table_vectors_at_the_double_value():
    # eps = +1, gamma = 4 rescaled: -5 kappa^2 twice, along the Psi direction
    # and the third vector, in the table's order
    units = [np.array([float(x) for x in v]) / math.hypot(*map(float, v))
             for v in _EIGENBASIS[+1]]
    for kappa in GRID_KAPPAS:
        report = classify(MODIFIED, rescaled(kappa, 4.0, +1), kappa, 4.0, +1)
        for p, u in zip(report.eigenpairs, units):
            assert np.max(np.abs(np.array(p.vector) - u)) <= 1e-15


# the 648 critical points of both flavors, both eps, these kappas and gammas
POINT_SET_KAPPAS = (0.1, 0.5, 1, 2, 3, 4, 6, 8, 16, 32, 1000, Fraction(7, 3))
POINT_SET_GAMMAS = (2.1, 2.2, 2.5, 8 / 3, Fraction(8, 3), 3, 4, 5, 6, 16, 20,
                    Fraction(58, 25), Fraction(26, 11))


def _point_set():
    points = []
    for eps in (+1, -1):
        for kappa in POINT_SET_KAPPAS:
            points += find_critical_points(NORMALIZED, kappa, None, eps)
            for gamma in POINT_SET_GAMMAS:
                points += find_critical_points(MODIFIED, kappa, gamma, eps)
    assert len(points) == 648
    return points


def _window_mu_by_dstar(point):
    """window_mu as d(star(Psi)) at the point's params, read from one coefficient: the oracle."""
    psi_27 = PSI_PLUS if point.eps == +1 else PSI_MINUS
    image = dstar_on_4forms(psi_27, point.params)
    m, c = next(iter(psi_27.coeffs.items()))
    mu = image.coefficient(m) / (point.kappa * c)
    assert image == (point.kappa * mu) * psi_27
    return mu


def test_window_mu_equals_the_dstar_ratio_on_the_point_set():
    for point in _point_set():
        mu = window_mu(point)
        assert type(mu) is Fraction
        assert mu == _window_mu_by_dstar(point)


def test_a_points_tau0_is_its_kappa_eff_rounded_once():
    # once tau0 of the float state: 999.9999999999998 at kappa = 1000, and
    # 0.0 at kappa = 1e-77, where the float closed form overflows
    for point in _point_set():
        assert point.tau0 == float(point.kappa_eff)
    assert principal(MODIFIED, 1e-77, 3, +1).tau0 == 1e-77
    assert principal(NORMALIZED, 1000, None, +1).tau0 == 1000.0


@pytest.mark.parametrize("abq", [(Fraction(3, 5), Fraction(3, 5), Fraction(9, 25)), (1, 1, 5)])
def test_window_mu_refuses_a_point_that_is_not_its_labels_closed_form(abq):
    # d(star(Psi)) is proportional to Psi at both, so the d(star(.)) route
    # once returned -5/3 at the witness and -1 at (1, 1, 5); a point carrying
    # either can no longer be made
    params = GeometryParams(*abq, eps=+1)
    point = principal(MODIFIED, 4, 3, +1)
    with pytest.raises(ValueError, match="params is declared with init=False"):
        dataclasses.replace(point, params=params)
    with pytest.raises(TypeError):
        CriticalPoint(MODIFIED, +1, Fraction(4), Fraction(3), LABEL_PRINCIPAL, params=params)
    assert point.params != params
    assert window_mu(point) == Fraction(-5, 3) == _window_mu_by_dstar(point)


@pytest.mark.parametrize("change", [dict(kappa_eff=Fraction(8)), dict(label="tau0_eq_something"),
                                    dict(state=(1.0, 1.0, 1.0 + 2 ** -52))])
def test_window_mu_and_jacobian_share_the_closed_form_check(change):
    # window_mu and jacobian read the one point, and the point that is not its
    # label's closed form is refused where it would be made: by replace with
    # ValueError, and by the constructor, which takes only the five constants
    point = principal(MODIFIED, 4, 3, -1)
    constants = {f.name: getattr(point, f.name) for f in dataclasses.fields(point) if f.init}
    assert list(constants) == ["flavor", "eps", "kappa", "gamma", "label"]
    with pytest.raises(ValueError):
        dataclasses.replace(point, **change)
    with pytest.raises(ValueError if set(change) <= set(constants) else TypeError):
        CriticalPoint(**{**constants, **change})
    assert window_mu(point) == Fraction(-3, 2)
    assert jacobian(MODIFIED, point, 4, 3, -1)[1] is not None


def test_the_modified_flows_symmetric_equilibria_at_kappa_4():
    # a = b = s, q = s^2 / X at eps = +1 and kappa = 4: the lex Groebner basis
    # of the rates' numerators ends in s^2 (5X - 1) times a quadratic in X;
    # 5X = 1 is the nearly parallel family
    s, X, g = sympy.symbols("s X gamma", positive=True)
    rates = monomial_rates(MODIFIED, s, s, s ** 2 / X, 4, g, +1)
    numerators = [sympy.numer(sympy.together(r)) for r in rates]
    basis = sympy.groebner(numerators, s, X, order="lex", domain=sympy.QQ.frac_field(g))
    quadratic = (15 * g ** 2 - 36 * g + 36) * X ** 2 - 24 * (g - 1) * X - 4 * (g - 1)
    ratio = sympy.cancel(basis.exprs[-1] / (s ** 2 * (5 * X - 1) * quadratic))
    assert ratio != 0 and not ratio.free_symbols & {s, X}

    # gamma = 8/3: the root X = 1 is the witness (3/5, 3/5, 9/25)
    assert sympy.expand(quadratic.subs(g, sympy.Rational(8, 3))
                        - sympy.Rational(20, 3) * (X - 1) * (7 * X + 1)) == 0
    third = Fraction(3, 5)
    assert monomial_rates(MODIFIED, third, third, third ** 2, 4, Fraction(8, 3), +1) == (0, 0, 0)

    # gamma = 16: a double root at X = 1/5, the rescaled point's, where its
    # spectrum has its kernel (test_plus_rescaled_kernel_at_gamma_16_and_its_exact_form)
    assert sympy.expand(quadratic.subs(g, 16) - 60 * (5 * X - 1) * (11 * X + 1)) == 0
    for point in find_critical_points(MODIFIED, 4, 16, +1):
        assert point.params.a ** 2 / point.params.q == Fraction(1, 5)


def _table_spectrum(point):
    """The point's three table values at its exact kappa and gamma."""
    spectrum = next(values for flavor, eps, label, values in TABLE_SPECTRA
                    if (flavor, eps, label) == (point.flavor, point.eps, point.label))
    at = {_K: sympy.Rational(point.kappa)}
    if point.gamma is not None:
        at[_G] = sympy.Rational(point.gamma)
    return [value.subs(at) for value in spectrum]


@pytest.mark.parametrize("float_eight_thirds", [False, True])
def test_classify_reports_the_index_and_kernels_of_the_exact_spectrum(float_eight_thirds):
    points = [p for p in _point_set() if float_eight_thirds == (
        p.gamma == Fraction(8 / 3) and p.eps == -1 and p.label == LABEL_RESCALED)]
    assert len(points) == (12 if float_eight_thirds else 636)
    for point in points:
        report = classify(point.flavor, point, point.kappa, point.gamma, point.eps)
        values = sorted(_table_spectrum(point), reverse=True)
        assert report.index == sum(1 for value in values if value > 0)
        assert report.marginal == tuple(value == 0 for value in values)


@pytest.mark.parametrize("eps", [+1, -1])
def test_analytic_jacobian_is_the_exact_jacobian_of_the_rates(eps):
    J = _exact_abc_jacobian(MODIFIED, eps, LABEL_PRINCIPAL)
    assert all(sympy.cancel(x) == 0 for x in sympy.Matrix(analytic_jacobian(eps, _K, _G)) - J)


@pytest.mark.parametrize("eps, gamma, multiplicity", [
    (+1, Fraction(5, 2), 2), (+1, 16, 2), (-1, Fraction(8, 3), 2), (+1, 3, 1), (-1, 3, 1)])
def test_the_rescaled_points_kernels_are_double_roots_of_the_eliminant(eps, gamma, multiplicity):
    # (a, b, q) = (s, s Y / X, s^2 / X) at kappa = 4: the last element of the
    # lex Groebner basis of the rates' numerators is in s and X alone, and the
    # rescaled point's X = a^2 / q is a double root of it exactly where that
    # point's spectrum has a kernel, so a branch of other equilibria crosses it there
    s, X, Y = sympy.symbols("s X Y", positive=True)
    rates = monomial_rates(MODIFIED, s, s * Y / X, s ** 2 / X, 4, sympy.Rational(gamma), eps)
    numerators = [sympy.numer(sympy.together(r)) for r in rates]
    eliminant = sympy.groebner(numerators, s, Y, X, order="lex").exprs[-1]
    assert eliminant.free_symbols == {s, X}
    point = rescaled(4, gamma, eps)
    x0 = sympy.Rational(point.params.a ** 2 / point.params.q)
    assert x0 == (sympy.Rational(1, 5) if eps == +1 else 1)
    order = 0
    while sympy.expand(eliminant.subs(X, x0)) == 0:
        eliminant = sympy.diff(eliminant, X)
        order += 1
    assert order == multiplicity
    assert (0 in _table_spectrum(point)) == (multiplicity == 2)


@pytest.mark.parametrize("flavor, eps, label, spectrum", TABLE_SPECTRA)
def test_the_packages_spectra_are_the_proved_table(flavor, eps, label, spectrum):
    # classify's table is TABLE_SPECTRA, which the eigenbasis test proves
    # against the exact Jacobian of the rates
    assert len(_SPECTRA) == len(TABLE_SPECTRA)
    row = _SPECTRA[flavor, eps, label]
    assert len(row) == len(spectrum) == 3
    for (c0, c1, c2), value in zip(row, spectrum):
        assert sympy.expand(_K ** 2 * (c0 + c1 * _G + c2 * _G ** 2) / 72 - value) == 0


# (breakpoints, index) for each nearly parallel point over gamma > 2: the
# index on (2, b1), at b1, on (b1, b2), ..., on (bn, oo); each breakpoint
# has exactly one kernel
INDEX_AGAINST_GAMMA = {
    (NORMALIZED, +1, LABEL_PRINCIPAL): ((), (0,)),
    (NORMALIZED, -1, LABEL_PRINCIPAL): ((), (0,)),
    (MODIFIED, +1, LABEL_PRINCIPAL): ((), (1,)),
    (MODIFIED, -1, LABEL_PRINCIPAL): ((), (1,)),
    (MODIFIED, +1, LABEL_RESCALED): ((Fraction(5, 2), Fraction(16)), (2, 1, 1, 1, 2)),
    (MODIFIED, -1, LABEL_RESCALED): ((Fraction(8, 3),), (2, 1, 1)),
}


def _index_and_kernels(flavor, eps, label, gamma):
    breakpoints, indices = INDEX_AGAINST_GAMMA[flavor, eps, label]
    k = 2 * sum(1 for b in breakpoints if b < gamma) + (gamma in breakpoints)
    return indices[k], k % 2


@pytest.mark.parametrize("flavor, eps, label", list(INDEX_AGAINST_GAMMA))
def test_the_index_against_gamma_holds_on_every_interval(flavor, eps, label):
    # each value is kappa^2 > 0 times a polynomial in gamma whose roots above
    # 2 are exactly the breakpoints, so it keeps one sign on each open
    # interval between them, the sign it has at one rational inside
    polys = [c0 + c1 * _G + c2 * _G ** 2 for c0, c1, c2 in _SPECTRA[flavor, eps, label]]
    roots = {r for p in polys for r in sympy.real_roots(sympy.Poly(p, _G)) if r > 2}
    breakpoints, indices = INDEX_AGAINST_GAMMA[flavor, eps, label]
    assert roots == {sympy.Rational(b) for b in breakpoints}
    samples = []
    for lo, hi in zip((2, *breakpoints), (*breakpoints, None)):
        samples += [lo + 1] if hi is None else [(lo + hi) / 2, hi]
    assert len(samples) == len(indices)
    for k, (gamma, index) in enumerate(zip(samples, indices)):
        values = [p.subs(_G, sympy.Rational(gamma)) for p in polys]
        assert sum(1 for v in values if v > 0) == index
        assert sum(1 for v in values if v == 0) == k % 2
        assert _index_and_kernels(flavor, eps, label, gamma) == (index, k % 2)


@pytest.mark.parametrize("gamma", [Fraction(21, 10), Fraction(12, 5), Fraction(5, 2), Fraction(13, 5),
                                   Fraction(8, 3), 3, 10, 16, 20])
@pytest.mark.parametrize("eps", (+1, -1))
def test_classify_reports_the_index_against_gamma(eps, gamma):
    for point in find_critical_points(MODIFIED, 4, gamma, eps):
        report = classify(MODIFIED, point, 4, gamma, eps)
        index, kernels = _index_and_kernels(MODIFIED, eps, point.label, gamma)
        assert (report.index, sum(report.marginal)) == (index, kernels)


@pytest.mark.parametrize("kappa", (Fraction(1, 10 ** 6), 0.1, 1, Fraction(7, 3), 4, 1000, 1e30, 1e75))
def test_each_reported_value_is_kappa_squared_times_its_value_at_kappa_one(kappa):
    for eps in (+1, -1):
        points = find_critical_points(NORMALIZED, kappa, None, eps)
        for gamma in (Fraction(21, 10), 8 / 3, Fraction(8, 3), 3, 16):
            points += find_critical_points(MODIFIED, kappa, gamma, eps)
        for point in points:
            at_one = [Fraction(int(v.p), int(v.q))
                      for v in _table_spectrum(dataclasses.replace(point, kappa=Fraction(1)))]
            report = classify(point.flavor, point, kappa, point.gamma, point.eps)
            want = [float(point.kappa ** 2 * lam) for lam in sorted(at_one, reverse=True)]
            assert [p.value for p in report.eigenpairs] == [complex(x) for x in want]
            assert all(p.value.imag == 0 for p in report.eigenpairs)


# kappa and gamma are read by one rule wherever they enter: an int, Fraction
# or numpy integer as itself, anything with as_integer_ratio() (every float type, a
# Decimal) as that exact ratio.  Each value below is spelled in every type
# that can spell it, and 2.1 is read as 21/10 only where it is spelled so.

def _spellings(text):
    out = [float(text), np.float64(text), np.float32(text), np.longdouble(text),
           Decimal(text), Fraction(text)]
    if Fraction(text).denominator == 1:
        out += [int(text), np.int64(text)]
    return out


def _exact_reading(x):
    return Fraction(int(x)) if isinstance(x, (int, np.integer)) else Fraction(*x.as_integer_ratio())


_SPELLED = [x for text in ("2.1", "2.5", "3") for x in _spellings(text)]
_SPELLED_IDS = [f"{type(x).__name__}-{x}" for x in _SPELLED]


@pytest.mark.parametrize("gamma", _SPELLED, ids=_SPELLED_IDS)
def test_every_entry_point_decides_at_the_gamma_the_point_carries(gamma):
    want = _exact_reading(gamma)
    for eps in (+1, -1):
        for point in find_critical_points(MODIFIED, 4, gamma, eps):
            assert point.gamma == want
            assert type(point.gamma.numerator) is int and type(point.gamma.denominator) is int
            assert classify(MODIFIED, point, 4, gamma, eps).window == window_verdict(
                window_mu(point), want, MODIFIED)
    # a kernel exactly at the floor -(5/2)(gamma - 1) of the rational read
    floor = Fraction(-5, 2) * (want - 1)
    assert window_verdict(floor, gamma, MODIFIED).verdict == "kernel"
    assert [in_window(l, gamma) for l in range(40)] == [in_window(l, want) for l in range(40)]
    assert index_lower_bound(1, 30, gamma) == index_lower_bound(1, 30, want)
    # level 7 is in the window exactly when gamma > 21/10: the float nearest 2.1
    # lies above it and is in, the decimal 2.1 is the kernel and is out
    if want < Fraction(22, 10):
        assert in_window(7, gamma) == (want > Fraction(21, 10))


@pytest.mark.parametrize("kappa", _SPELLED, ids=_SPELLED_IDS)
def test_verify_psi_identities_reads_kappa_as_the_point_does(kappa, monkeypatch):
    from coflow import stability

    want = _exact_reading(kappa)
    exact = stability._exact_point_params
    seen = []

    def recorded(eps, kappa_eff):
        seen.append(kappa_eff)
        return exact(eps, kappa_eff)

    monkeypatch.setattr(stability, "_exact_point_params", recorded)
    for eps in (+1, -1):
        assert principal(NORMALIZED, kappa, None, eps).kappa == want
        seen.clear()
        assert verify_psi_identities(eps, kappa).all_pass
        assert seen == [want]


def _sympy_variation(params, direction):
    # d/dt of the monomials (q^2, a b q, a^2 q) along (a A / q, b B / q, 2 C), at t = 0
    a, b, q, t = sympy.symbols("a b q t")
    A_, B_, C_ = (sympy.Rational(x.numerator, x.denominator) for x in map(Fraction, direction))
    along = {a: a + t * a * A_ / q, b: b + t * b * B_ / q, q: q + 2 * t * C_}
    at = {a: sympy.Rational(params.a.numerator, params.a.denominator),
          b: sympy.Rational(params.b.numerator, params.b.denominator),
          q: sympy.Rational(params.q.numerator, params.q.denominator)}
    out = []
    for mono in (q ** 2, a * b * q, a * a * q):
        value = sympy.diff(mono.subs(along, simultaneous=True), t).subs(t, 0).subs(at)
        out.append(Fraction(int(value.p), int(value.q)))
    return ansatz_4form(out, params.eps)


def test_variation_to_form_is_the_derivative_of_the_monomials():
    rng = random.Random(2424)

    def small():
        return Fraction(rng.randint(1, 97), rng.randint(1, 97))

    def direction():
        while True:
            v = [Fraction(rng.randint(-20, 20), rng.randint(1, 20)) for _ in range(3)]
            if any(v):
                return v

    for eps in (+1, -1):
        for point in find_critical_points(MODIFIED, 0.7, 3, eps):
            sites = [point.params,
                     GeometryParams(small(), small(), small(), eps),
                     GeometryParams(*(Fraction(rng.uniform(0.05, 20.0)) for _ in range(3)), eps)]
            for params in sites:
                for _ in range(2):
                    v = direction()
                    # a point carries only its closed-form params, so at the other
                    # sites the test evaluates variation_to_form's own expression
                    got = (variation_to_form(point, v) if params == point.params else
                           ansatz_4form(_exactly(_variation, params.a, params.b, params.q, *v), eps))
                    assert got == _sympy_variation(params, v)


# the exact linearization classify reports: sum_k lambda_k P_k from the tables
EXACT_J_KAPPAS = (1e-6, 0.5, Fraction(7, 3), 4, 1e10, 1e40)
EXACT_J_CASES = [(NORMALIZED, None)] + [(MODIFIED, g) for g in (2.2, 2.5, 8 / 3, 3, 16)]


def _every_point(flavor, kappa, gamma):
    return [p for eps in (+1, -1) for p in find_critical_points(flavor, kappa, gamma, eps)]


def _table_jacobian_in_fractions(point):
    # lambda_k = kappa^2 (c0 + c1 gamma + c2 gamma^2) / 72 and P_k = v_k w_k^T, with
    # w_k the rows of V^-1 and V the table's vectors as columns, all in Fractions
    kap = point.kappa
    gam = Fraction(0) if point.gamma is None else point.gamma
    lam = [kap * kap * (c0 + c1 * gam + c2 * gam * gam) / 72
           for c0, c1, c2 in _SPECTRA[point.flavor, point.eps, point.label]]
    basis = _EIGENBASIS[point.eps]
    V = sympy.Matrix(3, 3, lambda i, k: sympy.Rational(str(Fraction(basis[k][i]))))
    W = [[Fraction(int(x.p), int(x.q)) for x in V.inv().row(k)] for k in range(3)]
    return [[sum(lam[k] * Fraction(basis[k][i]) * W[k][j] for k in range(3)) for j in range(3)]
            for i in range(3)]


@pytest.mark.parametrize("flavor, gamma", EXACT_J_CASES)
@pytest.mark.parametrize("kappa", EXACT_J_KAPPAS)
def test_classify_reports_the_tables_linearization_rounded_once(flavor, gamma, kappa):
    for point in _every_point(flavor, kappa, gamma):
        report = classify(flavor, point, kappa, gamma, point.eps)
        exact = _table_jacobian_in_fractions(point)
        assert report.jacobian == tuple(tuple(float(x) for x in row) for row in exact)
        jnorm = math.hypot(*(x for row in report.jacobian for x in row))
        assert all(p.residual <= 1e-15 * jnorm for p in report.eigenpairs)


@pytest.mark.parametrize("flavor, gamma", EXACT_J_CASES)
@pytest.mark.parametrize("kappa", EXACT_J_KAPPAS)
def test_the_tables_linearization_agrees_with_the_complex_step(flavor, gamma, kappa):
    for point in _every_point(flavor, kappa, gamma):
        reported = np.array(classify(flavor, point, kappa, gamma, point.eps).jacobian)
        stepped, _ = jacobian(flavor, point, kappa, gamma, point.eps)
        sup = np.max(np.abs(reported))
        assert np.max(np.abs(stepped - reported)) <= 1e-14 * sup


def test_classify_evaluates_no_float_rates_and_builds_no_second_point(monkeypatch):
    from coflow import coflow_dynamics, stability

    points = [p for eps, kappa, gamma in GRID for p in find_critical_points(MODIFIED, kappa, gamma, eps)]
    points += _every_point(NORMALIZED, 4, None)

    def fields(report):
        return (report.index, [p.value for p in report.eigenpairs],
                [p.vector for p in report.eigenpairs], report.marginal, report.unstable_form)

    want = [fields(classify(p.flavor, p, p.kappa, p.gamma, p.eps)) for p in points]

    def refuse(*args, **kwargs):
        raise AssertionError("classify called the float rates or rebuilt its point")

    for module, name in ((coflow_dynamics, "monomial_rates"), (stability, "_exact_point_params"),
                         (coflow_dynamics, "_rates"), (coflow_dynamics, "state_rates")):
        monkeypatch.setattr(module, name, refuse)
    got = [fields(stability.classify(p.flavor, p, p.kappa, p.gamma, p.eps)) for p in points]
    assert got == want


def test_the_library_exports_no_complex_step_linearization():
    # classify decides from the exact tables; the complex-step check and the
    # tables' analytic twin are the tests' own copies, in _linearization, and
    # no package code keeps a field or a memo that only the tests read
    import coflow
    from coflow import invariant_forms, stability

    assert "jacobian" not in coflow.__all__
    assert not hasattr(stability, "jacobian")
    assert not hasattr(stability, "_rhs_jacobian")
    assert "analytic_jacobian" not in coflow.__all__
    assert not hasattr(stability, "analytic_jacobian")
    assert [f.name for f in dataclasses.fields(stability.Eigenpair)] == ["value", "vector", "residual"]
    assert not hasattr(invariant_forms.wedge_monomials, "cache_info")
    assert not hasattr(invariant_forms._d_monomial, "cache_info")


# A value with no integer ratio, an infinity or a NaN, is refused with
# ValueError by the one reader or, for -inf and a NaN (a Decimal one too), by
# an entry point's own range check before it; never with OverflowError or
# decimal.InvalidOperation.
_FINITE = "the value must be finite"
_POSITIVE = "kappa must be positive"
_GAMMA_MODIFIED = "modified flavor requires gamma > 2"
_GAMMA_WINDOW = "the window requires gamma > 2"
_NON_FINITE_CASES = [
    # (call, message at +inf, message at -inf and at nan)
    (lambda x: find_critical_points(MODIFIED, x, 3, 1), _FINITE, _POSITIVE),
    (lambda x: find_critical_points(NORMALIZED, x, None, -1), _FINITE, _POSITIVE),
    (lambda x: find_critical_points(MODIFIED, 4, x, 1), _FINITE, _GAMMA_MODIFIED),
    (lambda x: verify_psi_identities(1, x), _FINITE, _FINITE),
    (lambda x: verify_psi_identities(-1, x), _FINITE, _FINITE),
    (lambda x: index_lower_bound(1, 3, x), _FINITE, _GAMMA_WINDOW),
    (lambda x: window_verdict(x, 3, MODIFIED), _FINITE, _FINITE),
    (lambda x: window_verdict(x, None, NORMALIZED), _FINITE, _FINITE),
    (lambda x: window_verdict(Fraction(-3, 2), x, MODIFIED), _FINITE, _GAMMA_WINDOW),
    # the float entry points: hitchin_rate returned nan at a nan kappa, and
    # scaling_ode_rhs -inf at an infinite one
    (lambda x: rhs_modified((1.0, 1.0, 1.0), x, 3.0, 1), _FINITE, _POSITIVE),
    (lambda x: rhs_modified((1.0, 1.0, 1.0), 4.0, x, 1), _FINITE, _FINITE),
    (lambda x: hitchin_rate((1.0, 1.0, 1.0), x, 3.0, 1), _FINITE, _POSITIVE),
    (lambda x: hitchin_rate((1.0, 1.0, 1.0), 4.0, x, 1), _FINITE, _FINITE),
    (lambda x: scaling_ode_rhs(1.5, x, 3, NORMALIZED), _FINITE, _POSITIVE),
    (lambda x: scaling_ode_rhs(1.5, 4, x, MODIFIED), _FINITE, _FINITE),
]


@pytest.mark.parametrize("case", range(len(_NON_FINITE_CASES)))
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, Decimal("NaN"), Decimal("sNaN")],
                         ids=["inf", "-inf", "nan", "Decimal-NaN", "Decimal-sNaN"])
def test_a_non_finite_kappa_gamma_or_mu_raises_value_error(case, value):
    # a Decimal NaN signals when ordered, and a signaling one even under ==
    call, at_inf, otherwise = _NON_FINITE_CASES[case]
    with pytest.raises(ValueError, match=at_inf if value is math.inf else otherwise):
        call(value)


@pytest.mark.parametrize("eps", (+1, -1))
def test_classify_keeps_the_range_cut_on_the_exact_linearization(eps):
    message = "the linearization does not evaluate in floating point at the point"
    for flavor, gamma in ((NORMALIZED, None), (MODIFIED, 3.0), (MODIFIED, 16.0)):
        point = principal(flavor, 1e80, gamma, eps)
        with pytest.raises(ValueError, match=message):
            classify(flavor, point, 1e80, gamma, eps)
    point = rescaled(1e76, 16.0, eps)
    with pytest.raises(ValueError, match=message):
        classify(MODIFIED, point, 1e76, 16.0, eps)
    # an entry beyond the float range is refused the same way, not by OverflowError
    point = principal(MODIFIED, 1e160, 3.0, eps)
    with pytest.raises(ValueError, match=message):
        classify(MODIFIED, point, 1e160, 3.0, eps)
    # so is a linearization whose norm falls below the normal floats, at a
    # kappa whose point is a float state
    for kappa in (1e-160, 1e-300):
        for flavor, gamma in ((NORMALIZED, None), (MODIFIED, 3.0)):
            point = principal(flavor, kappa, gamma, eps)
            with pytest.raises(ValueError, match=message):
                classify(flavor, point, kappa, gamma, eps)


@pytest.mark.parametrize("eps", (+1, -1))
def test_the_closed_form_check_compares_every_ratio_and_the_sign(eps):
    # a point whose b is not its a cannot be made, and a point moved to the
    # other sign derives that family's params anew
    point = principal(MODIFIED, 4, 3, eps)
    p = point.params
    with pytest.raises(ValueError, match="params is declared with init=False"):
        dataclasses.replace(point, params=GeometryParams(p.a, 2 * p.b, p.q, eps))
    assert dataclasses.replace(principal(MODIFIED, 4, 3, -eps), eps=eps) == point
    # a kappa_eff = r, b = a and q = s a^2, with (r, s) = (12/5, 5) or (4, 1)
    r, s = (Fraction(12, 5), 5) if eps == +1 else (Fraction(4), 1)
    assert (p.a * point.kappa_eff, p.b, p.q, p.eps) == (r, p.a, s * p.a * p.a, eps)


# The window rule has one encoding, sphere_spectrum's, and a point's mu one
# copy, window_mu: the sphere levels and the Psi verdicts decide alike.
_RULE_GAMMAS = [Fraction(21, 10), 2.1, Decimal("2.1"), Fraction(5, 2), Fraction(8, 3), 8 / 3, 3, 16]
_RULE_IDS = [f"{type(g).__name__}-{g}" for g in _RULE_GAMMAS]


@pytest.mark.parametrize("gamma", _RULE_GAMMAS, ids=_RULE_IDS)
def test_in_window_and_window_verdict_decide_by_the_one_rule(gamma):
    verdicts = [window_verdict(level_mu(l), gamma, MODIFIED).verdict for l in range(301)]
    assert [in_window(l, gamma) for l in range(301)] == [v == "destabilizing" for v in verdicts]
    floor = Fraction(-5, 2) * (Fraction(gamma) - 1)
    assert [l for l, v in enumerate(verdicts) if v == "kernel"] == [
        l for l in range(301) if level_mu(l) in (-1, floor)]
    # mu = -1 at level 0; level 7's -11/4 is the floor at the decimal 2.1 alone
    assert verdicts[0] == "kernel"
    assert (verdicts[7] == "kernel") == (Fraction(gamma) == Fraction(21, 10))
    # a Decimal or float mu is read at the exact value it spells, as gamma is
    assert window_verdict(Decimal("-1.5"), gamma, MODIFIED) == window_verdict(Fraction(-3, 2), gamma,
                                                                               MODIFIED)


def test_form_value_is_the_inline_forms_rounded_once():
    points = [p for eps, kappa, gamma in BENCHMARK_GRID
              for p in find_critical_points(MODIFIED, kappa, gamma, eps)]
    mus = [level_mu(l) for l in range(301)] + [window_mu(p) for p in points]
    for gamma in _RULE_GAMMAS:
        floor = Fraction(-5, 2) * (Fraction(gamma) - 1)
        assert [window_verdict(mu, gamma, MODIFIED).form_value.hex() for mu in mus] == [
            float((mu + 1) * (mu - floor)).hex() for mu in mus]
    assert [window_verdict(mu, None, NORMALIZED).form_value.hex() for mu in mus] == [
        float((mu + 1) ** 2).hex() for mu in mus]


@pytest.mark.parametrize("eps, kappa", [(+1, 0), (-1, -4)])
def test_verify_psi_identities_needs_a_positive_kappa(eps, kappa):
    with pytest.raises(ValueError, match="kappa must be positive"):
        verify_psi_identities(eps, kappa)


@pytest.mark.parametrize("eps", [1.0, Fraction(1), -1.0, Fraction(-1)], ids=repr)
@pytest.mark.parametrize("flavor, gamma", [(NORMALIZED, None), (MODIFIED, 3)])
def test_find_critical_points_reads_a_float_or_fraction_eps_as_the_int(flavor, gamma, eps):
    # a float eps was accepted, and then the equilibrium proof raised TypeError
    points = find_critical_points(flavor, 4, gamma, eps)
    assert points == find_critical_points(flavor, 4, gamma, int(eps))
    assert all(type(p.eps) is int and type(p.params.eps) is int for p in points)
    assert verify_psi_identities(eps, 4) == verify_psi_identities(int(eps), 4)
    assert verify_psi_identities(eps, 4).all_pass


def test_window_verdict_rejects_an_unknown_flavor():
    with pytest.raises(ValueError, match="unknown flavor"):
        window_verdict(Fraction(-3, 2), 3, "sideways")
