import ast
import csv
import dataclasses
import hashlib
import inspect
import json
import math
import random
import sys
import textwrap
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

from coflow.coflow_dynamics import (
    FLAVORS,
    MODIFIED,
    NORMALIZED,
    FlowConfig,
    FlowState,
    hitchin_rate,
    hitchin_rate_check,
    hitchin_volume,
    integrate,
    monomial_rates,
    reduced_xy_rhs,
    rhs_modified,
    rhs_normalized,
    scaling_ode_rhs,
    state_rates,
    symbolic_rhs_crosscheck,
    tau0_state,
)
from coflow import coflow_dynamics, stability
from coflow.invariant_forms import (
    GeometryParams,
    InvariantForm,
    random_params,
    total_integral,
    wedge,
)
from coflow.g2_ansatz import (
    ansatz_4form,
    build,
    laplacian_closed_form,
    tau0 as ansatz_tau0,
    tau0_terms,
    tau3_norm_sq_terms,
    torsion,
)
from coflow.stability import LABEL_PRINCIPAL, LABEL_RESCALED, classify, find_critical_points, state_direction

from _linearization import analytic_jacobian


def frac_state(a, b, q):
    """Exact (a, b, c^2 = q) triple for the rational paths."""
    return Fraction(a), Fraction(b), Fraction(q)


def test_rhs_example_round_minus_point():
    # at (1,1,1), eps=-1, kappa=2 the monomial rates are all 12
    u = monomial_rates(NORMALIZED, *frac_state(1, 1, 1), Fraction(2), None, -1)
    assert u == (12, 12, 12)
    da, db, dc = rhs_normalized((1.0, 1.0, 1.0), 2.0, -1)
    assert 4 * dc == pytest.approx(12.0, abs=1e-14)


def test_monomial_rates_vanish_at_critical_points():
    # normalized flow, both eps, exact zeros
    for kap in (Fraction(1), Fraction(4)):
        a = Fraction(12, 5) / kap
        assert monomial_rates(NORMALIZED, a, a, 5 * a * a, kap, None, +1) == (0, 0, 0)
        a = 4 / kap
        assert monomial_rates(NORMALIZED, a, a, a * a, kap, None, -1) == (0, 0, 0)
    # modified flow: tau0 = kappa point and the (gamma-1)-rescaled point
    kap, gam = Fraction(4), Fraction(3)
    for keff in (kap, (gam - 1) * kap):
        a = Fraction(12, 5) / keff
        assert monomial_rates(MODIFIED, a, a, 5 * a * a, kap, gam, +1) == (0, 0, 0)
        a = 4 / keff
        assert monomial_rates(MODIFIED, a, a, a * a, kap, gam, -1) == (0, 0, 0)


def test_symbolic_crosscheck_at_random_points():
    rng = random.Random(314159)
    for _ in range(20):
        for eps in (+1, -1):
            p = random_params(rng, eps)
            assert symbolic_rhs_crosscheck(p, Fraction(4), Fraction(3), NORMALIZED)
            assert symbolic_rhs_crosscheck(p, Fraction(4), Fraction(3), MODIFIED)
            assert symbolic_rhs_crosscheck(p, Fraction(5, 2), Fraction(7, 3), MODIFIED)


def test_symbolic_crosscheck_names_the_mismatched_monomials(monkeypatch):
    rates = coflow_dynamics.monomial_rates
    monkeypatch.setattr(coflow_dynamics, "monomial_rates",
                        lambda *args: (lambda u: (u[0], u[1] + 1, u[2]))(rates(*args)))
    p = random_params(random.Random(5), +1)
    with pytest.raises(ValueError, match=r"disagree at \['e13\^w2', 'e23\^w1'\]"):
        symbolic_rhs_crosscheck(p, Fraction(4), Fraction(3), MODIFIED)


def test_symbolic_crosscheck_derives_dphi_once(monkeypatch):
    from coflow import g2_ansatz

    p = random_params(random.Random(6), -1)
    phi = build(p).phi
    calls = []
    derive = g2_ansatz.exterior_derivative
    monkeypatch.setattr(g2_ansatz, "exterior_derivative",
                        lambda alpha: calls.append(alpha == phi) or derive(alpha))
    for flavor in (NORMALIZED, MODIFIED):
        calls.clear()
        assert symbolic_rhs_crosscheck(p, Fraction(4), Fraction(3), flavor)
        assert sum(calls) == 1


def _routed_and_direct(monkeypatch):
    """Record (routed, direct Fraction evaluation) for every call of coflow_dynamics._exactly."""
    exactly = coflow_dynamics._exactly
    pairs = []

    def record(fn, *args):
        routed = exactly(fn, *args)
        pairs.append((routed, fn(*args)))
        return routed

    monkeypatch.setattr(coflow_dynamics, "_exactly", record)
    return pairs


@pytest.mark.parametrize("flavor", FLAVORS)
@pytest.mark.parametrize("kappa, gamma", [(4, 3), (Fraction(5, 2), Fraction(7, 3)), (3, Fraction(9, 4))],
                         ids=["int", "Fraction", "mixed"])
def test_exact_rates_are_their_direct_fraction_evaluation(monkeypatch, flavor, kappa, gamma):
    stability._rates_at_kappa_one.cache_clear()
    # small rationals and Fraction(float) points with ~2^50 denominators, both eps
    pairs = _routed_and_direct(monkeypatch)
    rng = random.Random(419)
    points = []
    for eps in (+1, -1):
        for _ in range(4):
            p = random_params(rng, eps)
            points += [p, GeometryParams(*(Fraction(float(x)) for x in (p.a, p.b, p.q)), eps)]
    gam = gamma if flavor == MODIFIED else None
    for p in points:
        rates = monomial_rates(flavor, p.a, p.b, p.q, kappa, gam, p.eps)
        assert all(type(u) is Fraction for u in rates)
        assert symbolic_rhs_crosscheck(p, kappa, gamma, flavor)
    critical = find_critical_points(flavor, kappa, gamma, +1) + find_critical_points(flavor, kappa, gamma, -1)
    assert len(pairs) == 2 * len(points) + len(critical)
    for routed, direct in pairs:
        assert routed == direct
        assert len(routed) == 3 and all(type(u) is Fraction for u in routed)


def test_inexact_rates_make_the_direct_call(monkeypatch):
    def refuse(*_):
        raise AssertionError("an inexact evaluation went through _exactly")

    monkeypatch.setattr(coflow_dynamics, "_exactly", refuse)
    third = Fraction(1, 3)
    cases = [
        (NORMALIZED, 1.3, 0.8, 1.2, 4.0, None),
        (MODIFIED, np.longdouble(1.3), np.longdouble(0.8), np.longdouble(1.2), 4.0, 3.0),
        (MODIFIED, complex(1.3, 1e-20), 0.8, 1.2, 4.0, 3.0),
        (MODIFIED, sympy.Rational(13, 10), sympy.Rational(4, 5), sympy.Rational(6, 5), 4, 3),
        (NORMALIZED, third, third, third, 4.0, None),
        (MODIFIED, third, third, third, 4, 3.0),
        (NORMALIZED, third, third, third, 4, 3.0),  # gamma given, so it must be exact too
    ]
    for flavor, a, b, q, kappa, gamma in cases:
        direct = coflow_dynamics._rates(flavor, kappa, gamma, -1)(a, b, q)
        assert monomial_rates(flavor, a, b, q, kappa, gamma, -1) == direct


@pytest.mark.parametrize("flavor", FLAVORS)
@pytest.mark.parametrize("eps", (+1, -1))
def test_exact_rates_at_a_zero_scale_raise_zero_division(flavor, eps):
    # a = 0 divides by zero in both flavors, as the Fraction evaluation does
    with pytest.raises(ZeroDivisionError):
        monomial_rates(flavor, Fraction(0), Fraction(1), Fraction(1), Fraction(4), Fraction(3), eps)
    with pytest.raises(ZeroDivisionError):
        coflow_dynamics._rates(flavor, Fraction(4), Fraction(3), eps)(Fraction(0), Fraction(1), Fraction(1))


def test_float_path_matches_exact_path():
    rng = random.Random(2718)
    for _ in range(20):
        for eps in (+1, -1):
            p = random_params(rng, eps)
            a, b, q = p.a, p.b, p.q
            c = math.sqrt(float(q))
            # c is irrational, so compare through q to stay exact on one side
            exact_u = monomial_rates(MODIFIED, a, b, q, Fraction(4), Fraction(3), eps)
            float_u = monomial_rates(MODIFIED, float(a), float(b), float(q), 4.0, 3.0, eps)
            for eu, fu in zip(exact_u, float_u):
                assert fu == pytest.approx(float(eu), rel=1e-12, abs=1e-12)
            rates = rhs_modified((float(a), float(b), c), 4.0, 3.0, eps)
            assert all(np.isfinite(rates))


def test_state_rates_inverts_the_monomial_jacobian():
    # d/dt of (c^4, a b c^2, a^2 c^2) recovered from (da, db, dc) exactly
    a, b, c = Fraction(3, 2), Fraction(5, 7), Fraction(2, 3)
    u = (Fraction(11, 3), Fraction(-4, 5), Fraction(7, 2))
    da, db, dc = state_rates(a, b, c, u)
    assert 4 * c ** 3 * dc == u[0]
    assert (da * b + a * db) * c * c + 2 * a * b * c * dc == u[1]
    assert 2 * a * da * c * c + 2 * a * a * c * dc == u[2]


def test_tau0_state_matches_ansatz():
    # rational c keeps both routes exact (q = c^2)
    rng = random.Random(99)
    for eps in (+1, -1):
        for _ in range(5):
            a = Fraction(rng.randint(1, 30), rng.randint(1, 30))
            b = Fraction(rng.randint(1, 30), rng.randint(1, 30))
            c = Fraction(rng.randint(1, 30), rng.randint(1, 30))
            p = GeometryParams(a=a, b=b, q=c * c, eps=eps)
            assert tau0_state(a, b, c, eps) == ansatz_tau0(build(p))


def test_reduced_fixed_points():
    assert reduced_xy_rhs(Fraction(1, 5), Fraction(1, 5), +1) == (0, 0)
    assert reduced_xy_rhs(Fraction(1), Fraction(1), -1) == (0, 0)
    with pytest.raises(ValueError):
        reduced_xy_rhs(0, 1, +1)


def test_reduction_consistency_exact_chain_rule():
    # q dX/dt == reduced rhs, independent of kappa (the kappa terms cancel)
    for eps in (+1, -1):
        for kap in (Fraction(2), Fraction(4)):
            a, b, c = Fraction(7, 5), Fraction(4, 5), Fraction(6, 5)
            q = c * c
            da, db, dc = rhs_normalized((a, b, c), kap, eps)
            X, Y = a * a / q, a * b / q
            dX = (2 * a * da * q - a * a * 2 * c * dc) / (q * q)
            dY = ((da * b + a * db) * q - a * b * 2 * c * dc) / (q * q)
            assert reduced_xy_rhs(X, Y, eps) == (q * dX, q * dY)


def test_reduction_consistency_finite_difference():
    # advance the full flow by h = 1e-4 and compare X against the reduced step
    h = 1e-4
    for eps in (+1, -1):
        a, b, c = 1.2, 0.9, 1.1
        q = c * c
        da, db, dc = rhs_normalized((a, b, c), 4.0, eps)
        a2, b2, c2 = a + h * da, b + h * db, c + h * dc
        X1, Y1 = a * a / q, a * b / q
        X2 = a2 * a2 / (c2 * c2)
        Y2 = a2 * b2 / (c2 * c2)
        dX, dY = reduced_xy_rhs(X1, Y1, eps)
        assert (X2 - X1) / h == pytest.approx(dX / q, rel=1e-3)
        assert (Y2 - Y1) / h == pytest.approx(dY / q, rel=1e-3)


@pytest.mark.parametrize("X, Y", [
    (math.inf, 1.0),
    (1.0, math.inf),
    (math.inf, math.inf),
    (math.nan, 1.0),
    (Decimal("NaN"), 1),
    (1, Decimal("NaN")),
    (Decimal("sNaN"), 1),
    (1, Decimal("sNaN")),
])
def test_reduced_xy_rhs_refuses_non_finite_coordinates(X, Y):
    # an infinite coordinate passed the positivity test and gave (nan, nan)
    with pytest.raises(ValueError, match="positive and finite"):
        reduced_xy_rhs(X, Y, +1)


@pytest.mark.parametrize("X, Y", [
    (np.longdouble("inf"), np.longdouble(1)),
    (np.longdouble(1), np.longdouble("inf")),
    (np.longdouble("nan"), np.longdouble(1)),
    (np.longdouble(1), np.longdouble("nan")),
])
def test_reduced_xy_rhs_refuses_non_finite_longdouble_without_a_warning(X, Y):
    # inf - inf in numpy scalars warns; the finiteness test must not compute it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="positive and finite"):
            reduced_xy_rhs(X, Y, +1)


def _hand_written_reduced_xy_rhs(X, Y, eps):
    # the reduced flow as it was hand-written before being derived from the Laplacian's rates
    dX = (4 / (X * X)) * ((X + 1) * Y * Y + 2 * eps * (2 * X * X - 2 * X - 1) * X * Y
                          - 2 * X * X * (2 * X - 1) * (X + 1))
    dY = (4 * Y / (X * X)) * (2 * (1 - X) * Y * Y + eps * (2 * X * X - 3 * X - 1) * Y
                              + 2 * X * (1 - 2 * X))
    return (dX, dY)


@pytest.mark.parametrize("eps", (+1, -1))
def test_reduced_xy_rhs_equals_the_hand_written_form_for_all_x_and_y(eps):
    X, Y = sympy.symbols("X Y", positive=True)
    derived = reduced_xy_rhs(X, Y, eps)
    for got, expected in zip(derived, _hand_written_reduced_xy_rhs(X, Y, eps)):
        assert sympy.cancel(got - expected) == 0


def test_the_normalized_flows_only_equilibria_are_nearly_parallel():
    # every positive fixed point of the reduced flow is a common root of the
    # numerators; their resultant in Y leaves X in {1/5, 1/2, 1} (the cubic's
    # coefficients are positive), and the gcd at each X gives Y
    X, Y = sympy.symbols("X Y", positive=True)
    eliminant = (-4096 * X ** 4 * (X - 1) * (X + 1) * (2 * X - 1) ** 3 * (5 * X - 1)
                 * (6 * X ** 3 + X ** 2 + 1))
    for eps, attractor in ((+1, (sympy.Rational(1, 5), sympy.Rational(1, 5))),
                           (-1, (sympy.Integer(1), sympy.Integer(1)))):
        nums = []
        for rate in reduced_xy_rhs(X, Y, eps):
            num, den = sympy.fraction(sympy.cancel(rate))
            assert den.is_positive
            nums.append(num)
        num_x, num_y = nums
        assert sympy.expand(sympy.resultant(num_x, num_y, Y) - eliminant) == 0
        fixed = set()
        for x0 in (sympy.Rational(1, 5), sympy.Rational(1, 2), sympy.Integer(1)):
            common = sympy.gcd(num_x.subs(X, x0), num_y.subs(X, x0))
            fixed |= {(x0, y0) for y0 in sympy.roots(common, Y) if y0 > 0}
        assert fixed == {attractor}


def test_scaling_ode_fixed_points_and_slopes():
    mu = sympy.Symbol("mu", positive=True)
    kap, gam = sympy.Integer(4), sympy.Integer(3)

    f_norm = scaling_ode_rhs(mu, kap, gam, NORMALIZED)
    assert sympy.simplify(f_norm.subs(mu, 1)) == 0
    assert sympy.simplify(sympy.diff(f_norm, mu).subs(mu, 1)) == -kap ** 2 / 2

    f_mod = scaling_ode_rhs(mu, kap, gam, MODIFIED)
    for root in (sympy.Integer(1), sympy.Rational(1, 1) / (gam - 1)):
        assert sympy.simplify(f_mod.subs(mu, root)) == 0
    slope_at_1 = sympy.diff(f_mod, mu).subs(mu, 1)
    assert sympy.simplify(slope_at_1 - sympy.Rational(5, 8) * kap ** 2 * (2 - gam)) == 0
    slope_at_rescaled = sympy.diff(f_mod, mu).subs(mu, 1 / (gam - 1))
    expected = sympy.Rational(5, 8) * kap ** 2 * (1 - gam) * (2 - gam)
    assert sympy.simplify(slope_at_rescaled - expected) == 0


@pytest.mark.parametrize("flavor", FLAVORS)
@pytest.mark.parametrize("eps", (+1, -1))
def test_scaling_ode_is_the_flow_along_the_ray_through_the_principal_point(flavor, eps):
    # on (a, b, c) = mu y*, y* the tau0 = kappa point, each of (da/dt)/a*,
    # (db/dt)/b* and (dc/dt)/c* is scaling_ode_rhs(mu), for symbolic kappa and gamma
    mu, kappa, gamma = sympy.symbols("mu kappa gamma", positive=True)
    gamma = gamma if flavor == MODIFIED else None
    a_star = (sympy.Rational(12, 5) if eps == +1 else 4) / kappa
    star = (a_star, a_star, (sympy.sqrt(5) if eps == +1 else 1) * a_star)
    a, b, c = (mu * v for v in star)
    rates = state_rates(a, b, c, monomial_rates(flavor, a, b, c * c, kappa, gamma, eps))
    expected = scaling_ode_rhs(mu, kappa, gamma, flavor)
    assert all(sympy.simplify(rate / v - expected) == 0 for rate, v in zip(rates, star))


@pytest.mark.parametrize("eps", (+1, -1))
def test_the_volume_rate_identity_holds_for_all_a_b_and_q(eps):
    # hitchin_rate's formula
    #     (1/4)(|tau3|^2 - (35/2)(tau0 - kappa)(tau0 - (gamma - 1) kappa)) V
    # is V (2 a'/a + b'/b + 4 c'/c) along the modified flow, V = a^2 b c^4
    a, b, q, kappa, gamma = sympy.symbols("a b q kappa gamma", positive=True)
    c = sympy.sqrt(q)
    n0, d0 = tau0_terms(a, b, q, eps)
    n3, d3 = tau3_norm_sq_terms(a, b, q, eps)
    t0, volume = n0 / d0, a * a * b * q * q
    bracket = n3 / d3 - sympy.Rational(35, 2) * (t0 - kappa) * (t0 - (gamma - 1) * kappa)
    formula = bracket * volume / 4
    da, db, dc = state_rates(a, b, c, monomial_rates(MODIFIED, a, b, q, kappa, gamma, eps))
    assert sympy.cancel(formula - volume * (2 * da / a + db / b + 4 * dc / c)) == 0


@pytest.mark.parametrize("eps", (+1, -1))
def test_b_zero_is_invariant_and_carries_the_boundary_quadratic(eps):
    # u2 = 0 at b = 0, so the modified flow keeps b = 0; there eps drops out,
    # and at q = 2 a^2 with x = kappa a both u1 and u3 carry
    # 5 (gamma - 1) x^2 - 20 gamma x + 72, whose positive roots are the
    # boundary equilibria that unstable runs collapse onto
    a, q, kappa, gamma = sympy.symbols("a q kappa gamma", positive=True)
    u1, u2, u3 = monomial_rates(MODIFIED, a, 0, q, kappa, gamma, eps)
    assert u2 == 0
    x = kappa * a
    quadratic = 5 * (gamma - 1) * x ** 2 - 20 * gamma * x + 72
    on_slice = {q: 2 * a * a}
    assert sympy.expand(u1.subs(on_slice) + 2 * x ** 2 / kappa ** 2 * quadratic) == 0
    assert sympy.expand(u3.subs(on_slice) + x ** 2 / kappa ** 2 * quadratic) == 0


@pytest.mark.parametrize("eps, label, sign", [
    (+1, LABEL_PRINCIPAL, -1), (+1, LABEL_RESCALED, +1),
    (-1, LABEL_PRINCIPAL, -1), (-1, LABEL_RESCALED, +1),
])
def test_gamma_3_escapes_collapse_onto_the_boundary_root(eps, label, sign):
    # The boundary algebra is our derivation, not the paper's: on b = 0 with
    # q = 2 a^2 the rates carry 5 (gamma - 1) x^2 - 20 gamma x + 72, x = kappa a
    # (test above), whose larger root at kappa = 4, gamma = 3 is
    # a = (3 + sqrt(1.8)) / 4.  These four escapes along +-1e-3 of the unstable
    # vector end there; of the other four, one runs out its 100 000 steps.
    point = next(p for p in find_critical_points(MODIFIED, 4, 3, eps) if p.label == label)
    vector = classify(MODIFIED, point, 4, 3, eps).eigenpairs[0].vector
    start = np.array(point.state) + sign * 1e-3 * state_direction(point, vector)
    config = FlowConfig(flavor=MODIFIED, kappa=4.0, gamma=3.0, eps=eps, t_max=20.0)
    traj = integrate(config, FlowState(0.0, *start))
    end = traj.final_state
    assert traj.reason == "degeneracy" and end.b < 1e-8
    assert abs(end.a - (3 + math.sqrt(1.8)) / 4) < 2e-6
    assert abs(end.c ** 2 - 2 * end.a ** 2) < 1e-7


@pytest.mark.parametrize("dtype", (np.float64, np.longdouble))
@pytest.mark.parametrize("eps", (+1, -1))
def test_normalized_flow_follows_the_closed_form_scaling_ray(eps, dtype):
    # from mu0 y* the state stays on the ray mu(t) y*, and the normalized flow's
    # scaling ODE gives mu(t)^2 = 1 + (mu0^2 - 1) exp(-kappa^2 t / 2)
    kappa, mu0 = 4.0, 1.5
    star = find_critical_points(NORMALIZED, kappa, None, eps)[0].state
    config = FlowConfig(flavor=NORMALIZED, kappa=kappa, eps=eps, t_max=0.5, tol_conv=0,
                        dtype=dtype)
    traj = integrate(config, FlowState(0.0, *(mu0 * v for v in star)))
    assert traj.reason == "horizon" and traj.steps > 10
    worst = 0.0
    for s in traj.states:
        mu = math.sqrt(1 + (mu0 * mu0 - 1) * math.exp(-kappa * kappa * s.t / 2))
        worst = max(worst, *(abs(v - mu * v0) / (mu * v0) for v, v0 in zip((s.a, s.b, s.c), star)))
        for ratio, start in ((s.b / s.a, star[1] / star[0]), (s.c / s.a, star[2] / star[0])):
            assert abs(ratio - start) <= 1e-13 * start
    assert worst <= 100 * config.rtol


def test_flow_config_validation():
    with pytest.raises(ValueError):
        FlowConfig(flavor="nonsense")
    with pytest.raises(ValueError):
        FlowConfig(eps=0)
    with pytest.raises(ValueError):
        FlowConfig(kappa=-1.0)
    with pytest.raises(ValueError):
        FlowConfig(t_max=0.0)
    with pytest.raises(ValueError):
        FlowConfig(tol_conv=-1e-3)
    with pytest.raises(ValueError):
        FlowConfig(max_steps=0)


def test_the_modified_flow_config_needs_gamma():
    # integrate raised TypeError from inside the rates when gamma was None
    with pytest.raises(ValueError, match="needs gamma"):
        FlowConfig(flavor=MODIFIED, gamma=None)
    assert FlowConfig(flavor=NORMALIZED, gamma=None).gamma is None
    # each of these raised TypeError from inside its arithmetic
    with pytest.raises(ValueError, match="needs gamma"):
        rhs_modified((1.0, 1.0, 1.0), 4.0, None, 1)
    with pytest.raises(ValueError, match="needs gamma"):
        hitchin_rate((1.0, 1.0, 1.0), 4.0, None, 1)
    with pytest.raises(ValueError, match="needs gamma"):
        scaling_ode_rhs(1.5, 4, None, MODIFIED)


@pytest.mark.parametrize("eps", [1.0, Fraction(1), np.int64(1), -1.0, Fraction(-1)], ids=repr)
def test_flow_config_keeps_eps_as_the_int(eps):
    cfg = FlowConfig(flavor=MODIFIED, eps=eps)
    assert type(cfg.eps) is int
    assert cfg == FlowConfig(flavor=MODIFIED, eps=int(eps))


@pytest.mark.parametrize("eps", [Decimal("sNaN"), Decimal("NaN"), math.nan, 0, 1.5, "1"], ids=repr)
def test_a_bad_eps_is_refused_with_value_error_at_every_boundary(eps):
    # a Decimal sNaN escaped as decimal.InvalidOperation
    with pytest.raises(ValueError, match="eps must be"):
        GeometryParams(1, 1, 5, eps)
    with pytest.raises(ValueError, match="eps must be"):
        FlowConfig(eps=eps)
    with pytest.raises(ValueError, match="eps must be"):
        hitchin_rate((1.0, 1.0, 1.0), 4.0, 3.0, eps)
    # these returned numbers at any eps, and analytic_jacobian raised KeyError
    with pytest.raises(ValueError, match="eps must be"):
        rhs_normalized((1.0, 1.0, 1.0), 4.0, eps)
    with pytest.raises(ValueError, match="eps must be"):
        rhs_modified((1.0, 1.0, 1.0), 4.0, 3.0, eps)
    with pytest.raises(ValueError, match="eps must be"):
        tau0_state(1.0, 1.0, 1.0, eps)
    with pytest.raises(ValueError, match="eps must be"):
        reduced_xy_rhs(0.5, 0.2, eps)
    with pytest.raises(ValueError, match="eps must be"):
        analytic_jacobian(eps, 4.0, 3.0)


def test_the_flows_need_a_positive_kappa():
    # rhs_normalized returned (3.75, 3.75, 11.75) here, though FlowConfig refuses kappa <= 0
    with pytest.raises(ValueError, match="^kappa must be positive, got -1.0$"):
        rhs_normalized((1.0, 1.0, 1.0), -1.0, 1)
    with pytest.raises(ValueError, match="^kappa must be positive, got -1$"):
        scaling_ode_rhs(1.5, -1, 3, NORMALIZED)
    with pytest.raises(ValueError, match="^kappa must be positive, got 0$"):
        rhs_modified((1.0, 1.0, 1.0), 0, 3.0, -1)


@pytest.mark.parametrize("flavor, gamma", [(NORMALIZED, None), (MODIFIED, 3)])
@pytest.mark.parametrize("eps", [1.0, Fraction(1), np.float64(-1), -1.0], ids=repr)
def test_monomial_rates_reads_a_float_eps_as_the_int(flavor, gamma, eps):
    # a float eps reached the exact evaluation, where _Ratio raised TypeError
    rates = monomial_rates(flavor, 1, 1, 1, 4, gamma, eps)
    assert rates == monomial_rates(flavor, 1, 1, 1, 4, gamma, int(eps))
    assert all(type(u) is Fraction for u in rates)


def test_hitchin_rate_reads_a_float_eps_as_the_int():
    # a float eps turned the exact integer evaluation into float arithmetic
    state = (15.483194375402102, 19.204535649339117, 3.358836025778464)
    assert hitchin_rate(state, 4.0, 3.0, 1).hex() == "0x1.10f4c4de37c62p+25"
    for eps in (1.0, Fraction(1), np.float64(1)):
        assert hitchin_rate(state, 4.0, 3.0, eps).hex() == "0x1.10f4c4de37c62p+25"
    rng = random.Random(5)
    for _ in range(2000):
        s = tuple(rng.uniform(0.05, 20) for _ in range(3))
        for eps in (1, -1):
            assert hitchin_rate(s, 4.0, 3.0, float(eps)) == hitchin_rate(s, 4.0, 3.0, eps), s


@pytest.mark.parametrize("dtype", (np.int64, bool, np.float16, np.float32, "foo"))
def test_flow_config_refuses_dtypes_other_than_float64_and_longdouble(dtype):
    # int64 would truncate the start (1.5, 0.7, 1.2) to (1, 0, 1), bool would start
    # at (1, 1, 1), float16 would spend millions of right-hand-side calls on no step
    with pytest.raises(ValueError, match="dtype must be float64 or longdouble"):
        FlowConfig(dtype=dtype)


@pytest.mark.parametrize("dtype", (np.float64, np.longdouble, float, "float64", "longdouble"))
def test_flow_config_accepts_float64_and_longdouble(dtype):
    assert FlowConfig(dtype=dtype).dtype is dtype


def test_rhs_positivity_guard():
    with pytest.raises(ValueError):
        rhs_normalized((1.0, -1.0, 1.0), 4.0, -1)
    with pytest.raises(ValueError):
        integrate(FlowConfig(), FlowState(0.0, 1.0, 0.0, 1.0))


def test_integration_converges_to_the_minus_attractor():
    cfg = FlowConfig(flavor=NORMALIZED, kappa=4.0, eps=-1)
    traj = integrate(cfg, FlowState(0.0, 1.3, 0.8, 1.1))
    assert traj.reason == "converged"
    fin = traj.final_state
    assert max(abs(fin.a - 1), abs(fin.b - 1), abs(fin.c - 1)) < 1e-6
    # derived columns stay consistent with the states
    assert traj.X[-1] == pytest.approx(fin.a ** 2 / fin.c ** 2)
    assert traj.tau0[-1] == pytest.approx(4.0, abs=1e-6)


def test_integration_converges_to_the_plus_attractor():
    cfg = FlowConfig(flavor=NORMALIZED, kappa=4.0, eps=+1)
    traj = integrate(cfg, FlowState(0.0, 0.5, 0.7, 1.2))
    assert traj.reason == "converged"
    fin = traj.final_state
    target = (0.6, 0.6, 0.6 * math.sqrt(5))
    assert max(abs(fin.a - target[0]), abs(fin.b - target[1]), abs(fin.c - target[2])) < 1e-6


def test_equilibrium_run_stays_put_over_the_horizon():
    cfg = FlowConfig(flavor=NORMALIZED, kappa=4.0, eps=-1, t_max=1.0, tol_conv=0.0)
    traj = integrate(cfg, FlowState(0.0, 1.0, 1.0, 1.0))
    assert traj.reason == "horizon"
    assert traj.final_state.t == 1.0
    for st in traj.states:
        assert max(abs(st.a - 1), abs(st.b - 1), abs(st.c - 1)) < 1e-9


def test_stop_reasons():
    # blow-up and degeneracy fire on the initial state when it is already above
    # the 1e8 ceiling or below the 1e-8 floor
    cfg = FlowConfig(flavor=NORMALIZED, eps=-1)
    traj = integrate(cfg, FlowState(0.0, 1.3, 0.8, 2e8))
    assert (traj.reason, traj.steps) == ("blow-up", 0)

    traj = integrate(cfg, FlowState(0.0, 1.3, 5e-9, 1.1))
    assert (traj.reason, traj.steps) == ("degeneracy", 0)

    cfg = FlowConfig(flavor=NORMALIZED, eps=-1, max_steps=3, tol_conv=0.0)
    traj = integrate(cfg, FlowState(0.0, 1.3, 0.8, 1.1))
    assert traj.reason == "max-steps"
    assert traj.steps <= 3

    cfg = FlowConfig(flavor=NORMALIZED, eps=-1, reference=(1.0, 1.0, 1.0),
                     escape_radius=0.05, tol_conv=0.0)
    traj = integrate(cfg, FlowState(0.0, 1.3, 0.8, 1.1))
    assert traj.reason == "diverged-from-critical"


def test_trajectory_files(tmp_path):
    cfg = FlowConfig(flavor=NORMALIZED, kappa=4.0, eps=-1, t_max=0.5, tol_conv=0.0)
    traj = integrate(cfg, FlowState(0.0, 1.3, 0.8, 1.1))
    csv_path = tmp_path / "run.csv"
    sidecar = tmp_path / "run.json"
    traj.write_csv(csv_path)
    traj.write_sidecar(sidecar)

    with open(csv_path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "a", "b", "c", "tau0", "V", "X", "Y"]
    assert len(rows) == len(traj.states) + 1
    first = rows[1]
    assert float(first[1]) == 1.3
    # 17 significant digits survive the round trip
    last = rows[-1]
    assert float(last[1]) == traj.final_state.a

    side = json.loads(sidecar.read_text(encoding="utf-8"))
    assert side["reason"] == "horizon"
    assert side["steps"] == traj.steps
    assert side["final_state"]["t"] == 0.5


def test_longdouble_integration_matches_double():
    cfg64 = FlowConfig(flavor=NORMALIZED, kappa=4.0, eps=-1, t_max=1.0, tol_conv=0.0)
    cfg80 = FlowConfig(flavor=NORMALIZED, kappa=4.0, eps=-1, t_max=1.0, tol_conv=0.0,
                       dtype=np.longdouble)
    t64 = integrate(cfg64, FlowState(0.0, 1.3, 0.8, 1.1))
    t80 = integrate(cfg80, FlowState(0.0, 1.3, 0.8, 1.1))
    assert t80.reason == "horizon"
    f64, f80 = t64.final_state, t80.final_state
    assert abs(f64.a - f80.a) < 1e-9
    assert abs(f64.b - f80.b) < 1e-9
    assert abs(f64.c - f80.c) < 1e-9


def test_hitchin_volume_and_pairing():
    assert hitchin_volume((1.0, 1.0, 1.0)) == 1.0
    assert hitchin_volume(FlowState(0.0, 1.0, 1.0, 2 ** -0.5)) == pytest.approx(0.25)
    # a^2 b q^2 equals eps/7 times the total pairing integral, exactly
    rng = random.Random(123)
    for eps in (+1, -1):
        p = random_params(rng, eps)
        ans = build(p)
        pairing = total_integral(wedge(ans.phi, ans.psi), p)
        assert p.a ** 2 * p.b * p.q ** 2 == p.eps * pairing / 7


def test_hitchin_rate_positive_inside_the_bracket():
    # gamma=4: tau0 strictly between kappa and (gamma-1) kappa forces growth
    kappa, gamma, eps = 4.0, 4.0, -1
    state = (0.5, 0.5, 0.5)  # tau0 = 8, between 4 and 12
    t0 = tau0_state(*state, eps)
    assert kappa < t0 < (gamma - 1) * kappa
    assert hitchin_rate(state, kappa, gamma, eps) > 0


def test_hitchin_rate_matches_finite_difference():
    cfg = FlowConfig(flavor=MODIFIED, kappa=4.0, gamma=3.0, eps=-1,
                     t_max=0.4, tol_conv=0.0)
    traj = integrate(cfg, FlowState(0.0, 1.25, 0.85, 1.05))
    worst = hitchin_rate_check(traj, 4.0, 3.0)
    assert worst < 1e-4

    with pytest.raises(ValueError):
        hitchin_rate_check(integrate(FlowConfig(flavor=NORMALIZED, eps=-1, t_max=0.1,
                                                tol_conv=0.0),
                                     FlowState(0.0, 1.2, 0.9, 1.0)), 4.0, 3.0)


@pytest.mark.parametrize("name", ["kappa", "gamma", "t_max", "rtol", "atol", "escape_radius"])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_flow_config_rejects_non_finite_values(name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        FlowConfig(**{name: value})


def test_the_first_step_floor_and_ceiling_are_not_settings():
    # every run starts with the same step and stops at the same floor and ceiling
    for name in ("first_step", "floor", "ceiling"):
        with pytest.raises(TypeError):
            FlowConfig(**{name: 1.0})
    assert [f.name for f in dataclasses.fields(FlowConfig)] == [
        "flavor", "kappa", "gamma", "eps", "t_max", "rtol", "atol", "max_steps", "tol_conv",
        "reference", "escape_radius", "dtype"]
    assert (coflow_dynamics._FIRST_STEP, coflow_dynamics._FLOOR,
            coflow_dynamics._CEILING) == (1e-4, 1e-8, 1e8)


def test_guarded_rhs_returns_none_off_the_domain():
    # the closure factory with int constants returns None off the domain (the per-run
    # closures, with constants in the run's scalar type, are checked further down)
    def rhs(flavor, y):
        return coflow_dynamics._guarded_flow(flavor, 4.0, 3.0, -1)(y)

    assert rhs(NORMALIZED, (1.0, -1.0, 1.0)) is None
    assert rhs(MODIFIED, (1.0, 1.0, 0.0)) is None
    # q * q overflows the longdouble range although the state itself does not
    big = np.longdouble(10) ** 1500
    if big - big == 0:
        with np.errstate(over="ignore", invalid="ignore"):
            assert rhs(NORMALIZED, (big, big, big)) is None
    # Python floats raise on overflow and division by zero; both read as off the domain
    assert rhs(NORMALIZED, (1e200, 1.0, 1.0)) is None
    assert rhs(NORMALIZED, (1.0, 1.0, 1e-200)) is None
    # inside the domain it agrees with the unguarded rates, in the scalar type of the state
    assert rhs(NORMALIZED, (1.3, 0.8, 1.1)) == rhs_normalized((1.3, 0.8, 1.1), 4.0, -1)
    ld = tuple(np.longdouble(v) for v in (1.3, 0.8, 1.1))
    assert all(type(r) is np.longdouble for r in rhs(MODIFIED, ld))


def _bits(values):
    # repr round-trips every scalar type here, so equal reprs of equal types are equal bits
    return [(type(v), repr(v)) for v in values]


@pytest.mark.parametrize("flavor", FLAVORS)
@pytest.mark.parametrize("eps", (+1, -1))
@pytest.mark.parametrize("scalar, kappa, gamma", [
    (float, 4.0, 3.0),
    (np.longdouble, 4.0, 3.0),
    (Fraction, Fraction(4), Fraction(7, 3)),
    # the complex-step linearization _linearization._rhs_jacobian evaluates
    (lambda v: complex(v, 1e-20 * v), 4.0, 3.0),
], ids=["float64", "longdouble", "Fraction", "complex"])
def test_every_rates_entry_point_is_the_one_copy(flavor, eps, scalar, kappa, gamma):
    rates = coflow_dynamics._rates(flavor, kappa, gamma, eps)
    flow = coflow_dynamics._guarded_flow(flavor, kappa, gamma, eps)
    for point in ((1.3, 0.8, 1.1), (0.37, 2.9, 0.6)):
        a, b, c = y = tuple(scalar(v) for v in point)
        u = rates(a, b, c * c)
        assert _bits(monomial_rates(flavor, a, b, c * c, kappa, gamma, eps)) == _bits(u)
        if isinstance(a, complex):
            continue  # the positivity guard orders scalars, which complex ones are not
        expected = _bits(state_rates(a, b, c, u))
        rhs = (rhs_normalized(y, kappa, eps) if flavor == NORMALIZED
               else rhs_modified(y, kappa, gamma, eps))
        for got in (rhs, flow(y)):
            assert _bits(got) == expected


def _per_run_closures(monkeypatch, flavor, kappa, gamma, eps, dtype):
    """The guarded closures integrate and hitchin_rate_check build, paired with their scalar types."""
    built = []
    real = coflow_dynamics._guarded_flow

    def recording(*args):
        built.append(real(*args))
        return built[-1]

    monkeypatch.setattr(coflow_dynamics, "_guarded_flow", recording)
    config = FlowConfig(flavor=flavor, kappa=kappa, gamma=gamma, eps=eps, t_max=1.0,
                        max_steps=3, tol_conv=0.0, dtype=dtype)
    traj = integrate(config, FlowState(0.0, 1.3, 0.8, 1.1))
    closures = [(built[0], coflow_dynamics._scalar_type(np.dtype(dtype)))]
    if flavor == MODIFIED:
        hitchin_rate_check(traj, kappa, gamma)  # the volume-rate probe works in floats
        closures.append((built[1], float))
    assert len(built) == len(closures)
    return closures


@pytest.mark.parametrize("flavor", FLAVORS)
@pytest.mark.parametrize("eps", (+1, -1))
@pytest.mark.parametrize("dtype", (np.float64, np.longdouble), ids=["float64", "longdouble"])
@pytest.mark.parametrize("kappa, gamma", [(4.0, 3.0), (0.3, 8 / 3)], ids=["bench", "non-dyadic"])
def test_per_run_closures_are_the_public_rates_bit_for_bit(monkeypatch, flavor, eps, dtype,
                                                           kappa, gamma):
    # a run's closures hold their constants in the run's scalar type; the public
    # entry points keep int constants, and the two give the same bits
    rng = random.Random(29)
    grid = [tuple(10.0 ** rng.uniform(-6, 6) for _ in range(3)) for _ in range(200)]
    for flow, scalar in _per_run_closures(monkeypatch, flavor, kappa, gamma, eps, dtype):
        for point in grid:
            a, b, c = y = tuple(scalar(v) for v in point)
            expected = state_rates(a, b, c, monomial_rates(flavor, a, b, c * c, kappa, gamma, eps))
            assert all(type(v) is scalar for v in expected)
            assert _bits(flow(y)) == _bits(expected)
        # off the domain: a non-positive scale, an overflow, a division by zero
        for point in ((0.0, 1.0, 1.0), (1.0, -1.0, 1.0), (1.0, 1.0, -0.0)):
            assert flow(tuple(scalar(v) for v in point)) is None
        if scalar is float:
            assert flow((1e200, 1.0, 1.0)) is None
            assert flow((1.0, 1.0, 1e-200)) is None
        else:
            big = scalar(10) ** 1500
            if big - big == 0:  # the longdouble range reaches past 1e1500
                with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
                    assert flow((big, big, big)) is None
                    # c^3 underflows to zero
                    assert flow((scalar(1), scalar(1), scalar(10) ** -2000)) is None


def _hand_written_normalized_rates(kappa, eps):
    # the normalized rates closure as it was written out before being derived from g2_ansatz
    kk = kappa * kappa
    eps2, eps4 = 2 * eps, 4 * eps

    def rates(a, b, q):
        u1 = 8 * (2 * a * a + b * b + 2 * q + eps2 * b * q / a - b * b * q / (a * a)) \
            - kk * q * q
        u2 = 4 * (eps * b * b + 4 * a ** 3 * b / q + eps2 * a * a * b * b / q
                  + 2 * b * q / a - eps * b * b * q / (a * a)) - kk * a * b * q
        u3 = 4 * (2 * a * a - b * b + 2 * q + eps4 * a ** 3 * b / q + 2 * a * a * b * b / q
                  - eps2 * b * q / a + b * b * q / (a * a)) - kk * a * a * q
        return (u1, u2, u3)
    return rates


@pytest.mark.parametrize("eps", (+1, -1))
@pytest.mark.parametrize("scalar, kappa", [
    (float, 2.7),
    (np.longdouble, 2.7),
    (Fraction, Fraction(27, 10)),
    (lambda v: complex(v, 1e-20 * v), 2.7),
], ids=["float64", "longdouble", "Fraction", "complex"])
def test_normalized_rates_are_the_hand_written_rates_bit_for_bit(eps, scalar, kappa):
    reference = _hand_written_normalized_rates(kappa, eps)
    flow = coflow_dynamics._guarded_flow(NORMALIZED, kappa, None, eps)
    rng = random.Random(17)
    for _ in range(25):
        a, b, c = y = tuple(scalar(rng.uniform(0.05, 5.0)) for _ in range(3))
        u = reference(a, b, c * c)
        assert _bits(monomial_rates(NORMALIZED, a, b, c * c, kappa, None, eps)) == _bits(u)
        if isinstance(a, complex):
            continue  # the positivity guard orders scalars, which complex ones are not
        expected = _bits(state_rates(a, b, c, u))
        assert _bits(rhs_normalized(y, kappa, eps)) == expected
        assert _bits(flow(y)) == expected


@pytest.mark.parametrize("eps", (+1, -1))
def test_laplacian_closed_form_is_the_normalized_rates_at_kappa_zero(eps):
    rng = random.Random(23)
    for _ in range(10):
        p = random_params(rng, eps)
        rates = monomial_rates(NORMALIZED, p.a, p.b, p.q, 0, None, p.eps)
        assert laplacian_closed_form(p) == ansatz_4form(rates, p.eps)


# 0.013 (1.3, 0.8, 1.1): the first step, 1e-4, leaves the positive octant from here
_SMALL_START = (0.013 * 1.3, 0.013 * 0.8, 0.013 * 1.1)


def test_run_counters():
    # no stage leaves the domain: one initial call, then six per attempted step
    cfg = FlowConfig(flavor=NORMALIZED, kappa=4.0, eps=-1)
    traj = integrate(cfg, FlowState(0.0, 1.3, 0.8, 1.1))
    assert (traj.steps, traj.rejected, traj.nonfinite_retries) == (239, 0, 0)
    assert traj.rhs_evals == 1 + 6 * 239

    traj = integrate(FlowConfig(flavor=MODIFIED, kappa=4.0, gamma=3.0, eps=-1),
                     FlowState(0.0, 1.3, 0.8, 1.1))
    assert (traj.steps, traj.rejected, traj.nonfinite_retries) == (289, 1, 0)
    assert traj.rhs_evals == 1 + 6 * (289 + 1)

    # at 0.013 times that start the rates are large enough that the first step
    # leaves the positive octant; a retry stops at the failing stage
    traj = integrate(cfg, FlowState(0.0, *_SMALL_START))
    assert traj.nonfinite_retries > 0
    full = 1 + 6 * (traj.steps + traj.rejected)
    assert full < traj.rhs_evals <= full + 6 * traj.nonfinite_retries
    assert "rhs_evals" not in traj.sidecar_dict()


def _final_hex(traj):
    fin = traj.final_state
    return tuple(float(v).hex() for v in (fin.t, fin.a, fin.b, fin.c))


def test_integrate_is_bitwise_pinned():
    # values recorded from the numpy-array step loop this integrator replaced
    traj = integrate(FlowConfig(flavor=NORMALIZED, kappa=4.0, eps=-1),
                     FlowState(0.0, 1.3, 0.8, 1.1))
    assert _final_hex(traj) == ("0x1.37cee95562199p+2", "0x1.ffffffff483c9p-1",
                                "0x1.ffffffee241a6p-1", "0x1.00000002696d9p+0")
    assert (traj.steps, traj.reason) == (239, "converged")

    # longdouble escape along the unstable direction of the eps = -1 principal point
    # (acceptance criterion 09 with delta 1e-3)
    config = FlowConfig(flavor=MODIFIED, kappa=4.0, gamma=3.0, eps=-1, t_max=1.5,
                        reference=(1.0, 1.0, 1.0), escape_radius=1e-1, dtype=np.longdouble)
    start = (float.fromhex("0x1.0000000000000p+0"), float.fromhex("0x1.003f944a4f827p+0"),
             float.fromhex("0x1.ffe035dad83edp-1"))
    traj = integrate(config, FlowState(0.0, *start))
    if np.finfo(np.longdouble).nmant >= 63:
        assert _final_hex(traj) == ("0x1.4b656bcf8dda1p-3", "0x1.000a724b3a43fp+0",
                                    "0x1.19fbb70888c34p+0", "0x1.f38f7ebbc79a0p-1")
        assert traj.steps == 49
    assert traj.reason == "diverged-from-critical"


@pytest.mark.skipif(np.finfo(np.longdouble).nmant < 63, reason="pinned on 64-bit-mantissa longdouble")
def test_longdouble_escape_columns_are_bitwise_pinned():
    # (tau0, V, X, Y) at the first and last rows of the longdouble escape of
    # test_integrate_is_bitwise_pinned, recorded while the step loop still built them
    config = FlowConfig(flavor=MODIFIED, kappa=4.0, gamma=3.0, eps=-1, t_max=1.5,
                        reference=(1.0, 1.0, 1.0), escape_radius=1e-1, dtype=np.longdouble)
    start = (float.fromhex("0x1.0000000000000p+0"), float.fromhex("0x1.003f944a4f827p+0"),
             float.fromhex("0x1.ffe035dad83edp-1"))
    traj = integrate(config, FlowState(0.0, *start))
    assert len(traj.states) == 50
    rows = {i: tuple(v.hex() for v in (traj.tau0[i], traj.volume[i], traj.X[i], traj.Y[i]))
            for i in (0, -1)}
    assert rows == {
        0: ("0x1.fffffd2de0657p+1", "0x1.ffffec458c416p-1", "0x1.001fcd1b55fbcp+0",
            "0x1.005f694b8b075p+0"),
        -1: ("0x1.ff2e2362941e2p+1", "0x1.ff495cb496b6fp-1", "0x1.0cfe62b596f2cp+0",
             "0x1.283fa15739a04p+0"),
    }


@pytest.mark.parametrize("dtype", (np.float64, np.longdouble))
def test_derived_columns_are_computed_on_first_read_only(monkeypatch, dtype):
    calls = []

    def counting_tau0_state(*args):
        calls.append(args)
        return tau0_state(*args)

    monkeypatch.setattr(coflow_dynamics, "tau0_state", counting_tau0_state)
    config = FlowConfig(flavor=NORMALIZED, kappa=4.0, eps=-1, t_max=0.5, tol_conv=0.0,
                        dtype=dtype)
    traj = integrate(config, FlowState(0.0, 1.3, 0.8, 1.1))
    assert calls == []
    # the end alone is read without building every state
    fin = traj.final_state
    assert "states" not in vars(traj)
    assert fin == traj.states[-1]
    assert all(type(v) is float for v in (fin.t, fin.a, fin.b, fin.c))
    first = traj.tau0
    assert len(calls) == len(traj.states) > 2
    assert traj.tau0 is first
    assert len(calls) == len(traj.states)
    assert len(traj.volume) == len(traj.X) == len(traj.Y) == len(first)


def test_hitchin_rate_check_refuses_constants_that_are_not_the_runs_own():
    cfg = FlowConfig(flavor=MODIFIED, kappa=4.0, gamma=3.0, eps=-1, t_max=0.4, tol_conv=0.0)
    traj = integrate(cfg, FlowState(0.0, 1.25, 0.85, 1.05))
    with pytest.raises(ValueError, match="gamma 5.0 differs from the trajectory's gamma 3.0"):
        hitchin_rate_check(traj, 4.0, 5.0)
    with pytest.raises(ValueError, match="kappa 2.0 differs from the trajectory's kappa 4.0"):
        hitchin_rate_check(traj, 2.0, 3.0)
    # equal values of any numeric type are the run's own constants
    worst = hitchin_rate_check(traj, 4.0, 3.0)
    assert hitchin_rate_check(traj, 4, Fraction(3)) == worst
    assert hitchin_rate_check(traj, np.float64(4.0), 3) == worst


def _hex_state(*values):
    return tuple(float.fromhex(v) for v in values)


@pytest.mark.parametrize("config, start, final, steps, reason", [
    # float64 escape along the unstable direction of the eps = +1 principal point, delta 1e-3
    (FlowConfig(flavor=MODIFIED, kappa=4.0, gamma=3.0, eps=1, t_max=1.5, escape_radius=1e-1,
                reference=_hex_state("0x1.3333333333333p-1", "0x1.3333333333333p-1",
                                     "0x1.5775c544ff263p+0")),
     ("0x1.32f89533aa7f2p-1", "0x1.33a86f32449b6p-1", "0x1.5775c544ff263p+0"),
     ("0x1.00ff486469025p-3", "0x1.1c9c96c0a5f7ap-1", "0x1.637d96423a854p-1",
      "0x1.57b8577bdfabep+0"), 52, "diverged-from-critical"),
    # normalized run converging to the eps = +1 attractor
    (FlowConfig(flavor=NORMALIZED, kappa=4.0, eps=1), ("0x1.0p-1", "0x1.6666666666666p-1",
                                                        "0x1.3333333333333p+0"),
     ("0x1.4e34a8456a38fp+1", "0x1.3333333096361p-1", "0x1.333333372b707p-1",
      "0x1.5775c54487361p+0"), 110, "converged"),
])
def test_float64_runs_are_bitwise_pinned(config, start, final, steps, reason):
    # values recorded from the zip-loop stage sums the written-out step replaced
    traj = integrate(config, FlowState(0.0, *_hex_state(*start)))
    assert _final_hex(traj) == final
    assert (traj.steps, traj.reason) == (steps, reason)


def test_float64_ensemble_is_bitwise_pinned():
    # sha256 over every state of eight seeded runs of both flavors (long blow-ups with
    # rejected steps among them), recorded from the zip-loop step; final-state pins of
    # a few runs can miss a regrouped stage sum that moves the bits of other runs
    rng = random.Random(11)
    digest = hashlib.sha256()
    for i in range(8):
        eps = rng.choice((1, -1))
        start = tuple(rng.uniform(0.5, 2.0) for _ in range(3))
        config = FlowConfig(flavor=MODIFIED if i % 2 else NORMALIZED, kappa=4.0, gamma=3.0,
                            eps=eps, t_max=2.0)
        for st in integrate(config, FlowState(0.0, *start)).states:
            digest.update(" ".join(v.hex() for v in (st.t, st.a, st.b, st.c)).encode())
    assert digest.hexdigest() == \
        "09256a9279ec7ad3535a2590578404a615a0e1e39e7b59ec2d0e87e9193ef7cd"


@pytest.mark.skipif(np.finfo(np.longdouble).nmant < 63, reason="pinned on 64-bit-mantissa longdouble")
def test_longdouble_ensemble_is_bitwise_pinned():
    # the float64 ensemble above in longdouble: sha256 over every raw record (t, a, b, c)
    # as exact integer ratios, so no bit below float64 precision escapes the pin; three
    # of the runs reject a step, so the error norm and both step-size rules are pinned
    rng = random.Random(11)
    digest = hashlib.sha256()
    rejected = 0
    for i in range(8):
        eps = rng.choice((1, -1))
        start = tuple(rng.uniform(0.5, 2.0) for _ in range(3))
        config = FlowConfig(flavor=MODIFIED if i % 2 else NORMALIZED, kappa=4.0, gamma=3.0,
                            eps=eps, t_max=2.0, dtype=np.longdouble)
        traj = integrate(config, FlowState(0.0, *start))
        rejected += traj.rejected
        for t, y in traj._records:
            digest.update(" ".join(repr(v.as_integer_ratio()) for v in (t, *y)).encode())
    assert rejected == 3
    assert digest.hexdigest() == \
        "36b40ee28bd94d691681f804854ea8f3d64f517d8850bc46e9e24c02ccd79c7c"


@pytest.mark.parametrize("start, overrides, counters", [
    # the first step leaves the positive octant; each retry stops at its failing stage
    (_SMALL_START, {}, (301, 1837, 4, 2, "converged")),
    ((1.3, 0.8, 1.1), {"max_steps": 3, "tol_conv": 0.0}, (3, 19, 0, 0, "max-steps")),
    (_SMALL_START, {"max_steps": 3, "tol_conv": 0.0}, (3, 37, 2, 2, "max-steps")),
])
def test_run_counters_are_pinned(start, overrides, counters):
    # (steps, rhs_evals, rejected, nonfinite_retries) recorded from the zip-loop step
    traj = integrate(FlowConfig(flavor=NORMALIZED, kappa=4.0, eps=-1, **overrides),
                     FlowState(0.0, *start))
    assert (traj.steps, traj.rhs_evals, traj.rejected, traj.nonfinite_retries,
            traj.reason) == counters


def test_the_step_loop_calls_no_min_max_or_abs():
    # the error norm's scale and the live step-size clamps are conditionals, not builtin
    # calls paid on every attempt; the stop test compares each scale with the floor and
    # the ceiling, and the nested attempt() is walked too
    for fn in (coflow_dynamics.integrate, coflow_dynamics._stop_reason):
        tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
        called = {node.func.id for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
        assert not called & {"min", "max", "abs"}, fn.__name__


@settings(max_examples=300, deadline=None)
@given(accepted=st.floats(min_value=math.ulp(0.0), max_value=1.0),
       rejected=st.floats(min_value=1.0, max_value=sys.float_info.max, exclude_min=True))
@example(accepted=math.ulp(0.0), rejected=math.nextafter(1.0, 2.0))
@example(accepted=1.0, rejected=sys.float_info.max)
def test_the_step_loop_drops_only_clamps_that_cannot_bind(accepted, rejected):
    # an accepted step has 0 < enorm <= 1, so its factor 0.9 enorm^-0.2 is at least 0.9
    # and a 0.2 floor never binds; a rejected step has 1 < enorm < inf, so its factor
    # is at most 0.9 (0.9 itself just above 1, where enorm^-0.2 rounds to 1.0) and a
    # 1.0 cap never binds; the loop keeps the 5.0 cap and the 0.2 floor
    grow = 0.9 * accepted ** -0.2
    assert 0.9 <= grow < math.inf
    shrink = 0.9 * rejected ** -0.2
    assert shrink <= 0.9 < 1.0


@pytest.mark.parametrize("state, kappa, gamma, eps, rate", [
    # README escape start
    (("0x1.028f5c28f5c29p+0", "0x1.0000000000000p+0", "0x1.0000000000000p+0"),
     4.0, 3.0, -1, "-0x1.8b115b56df6dfp-3"),
    # principal points of the modified flow at (eps, kappa, gamma) = (1, 6, 5) and (-1, 32, 6)
    (("0x1.999999999999ap-2", "0x1.999999999999ap-2", "0x1.c9f25c5bfedd9p-1"),
     6.0, 5.0, 1, "0x1.e328de966edc0p-108"),
    (("0x1.0000000000000p-3", "0x1.0000000000000p-3", "0x1.0000000000000p-3"),
     32.0, 6.0, -1, "0x0.0p+0"),
])
def test_hitchin_rate_is_bitwise_pinned(state, kappa, gamma, eps, rate):
    # values recorded before the algebra's structure tables were memoised;
    # tau0 and |tau3|^2 are exact, so the rate must not move by one bit
    y = tuple(float.fromhex(v) for v in state)
    assert hitchin_rate(y, kappa, gamma, eps).hex() == rate


def test_degenerate_start_stops_with_a_reason():
    # a^2 c^2 underflows to zero: tau0 cannot be evaluated and neither can the rates
    traj = integrate(FlowConfig(), FlowState(0.0, 1e-300, 1.0, 1.0))
    assert (traj.reason, traj.steps) == ("degeneracy", 0)
    assert math.isnan(traj.tau0[0])
    assert (traj.X[0], traj.Y[0]) == (0.0, 1e-300)
    # c^2 underflows as well: every quotient column is nan
    traj = integrate(FlowConfig(), FlowState(0.0, 1.0, 1.0, 1e-300))
    assert traj.reason == "degeneracy"
    assert all(math.isnan(v) for v in (traj.tau0[0], traj.X[0], traj.Y[0]))
    # inside the floor and the ceiling an unevaluable start is still an error: kappa^2 overflows
    with pytest.raises(ValueError, match="not finite at the initial state"):
        integrate(FlowConfig(kappa=1e200), FlowState(0.0, 1.0, 1.0, 1.0))


def _algebra_rate(y, kappa, gamma, eps):
    """The volume rate with tau0 and |tau3|^2 from the exact algebra at Fraction(float)."""
    a, b, c = (Fraction(v) for v in y)
    td = torsion(build(GeometryParams(a, b, c * c, eps)))
    t0, n2 = float(td.tau0), float(td.tau3_norm_sq)
    return 0.25 * (n2 - 17.5 * (t0 - kappa) * (t0 - (gamma - 1) * kappa)) * hitchin_volume(y)


def test_hitchin_rate_equals_the_algebra_route_bit_for_bit():
    cases = []
    # both critical points of every spectral-audit grid case
    for eps in (+1, -1):
        for kappa in (0.5, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 16.0, 32.0):
            for gamma in (2.5, 3.0, 4.0, 5.0, 6.0):
                points = {p.label: p.state
                          for p in find_critical_points(MODIFIED, kappa, gamma, eps)}
                for label in (LABEL_PRINCIPAL, LABEL_RESCALED):
                    cases.append((points[label], kappa, gamma, eps))
    # seeded states over twelve orders of magnitude, both orientations
    rng = random.Random(406)
    for _ in range(60):
        y = tuple(10 ** rng.uniform(-6, 6) for _ in range(3))
        cases.append((y, rng.choice((0.5, 4.0, 32.0)), rng.choice((2.5, 3.0, 6.0)),
                      rng.choice((+1, -1))))
    assert len(cases) == 240
    for y, kappa, gamma, eps in cases:
        assert hitchin_rate(y, kappa, gamma, eps).hex() == _algebra_rate(y, kappa, gamma, eps).hex()


def test_hitchin_rate_builds_no_exact_forms(monkeypatch):
    def refuse(self):
        raise AssertionError("hitchin_rate reached the exact algebra")

    monkeypatch.setattr(InvariantForm, "__post_init__", refuse)
    monkeypatch.setattr(GeometryParams, "__post_init__", refuse)
    assert hitchin_rate((1.01, 1.0, 1.0), 4.0, 3.0, -1) < 0


def test_hitchin_rate_builds_no_exact_forms_through_either_constructor(monkeypatch):
    # the kernels and the form arithmetic build their results through the
    # unchecked InvariantForm._of, which skips __post_init__
    def refuse(*args, **kwargs):
        raise AssertionError("hitchin_rate reached the exact algebra")

    from coflow.invariant_forms import E1 as e1

    monkeypatch.setattr(InvariantForm, "__post_init__", refuse)
    monkeypatch.setattr(InvariantForm, "_of", refuse)
    monkeypatch.setattr(GeometryParams, "__post_init__", refuse)
    for exact_call in (lambda: wedge(e1, e1), lambda: -e1, lambda: e1 + e1):
        with pytest.raises(AssertionError, match="reached the exact algebra"):
            exact_call()
    assert hitchin_rate((1.01, 1.0, 1.0), 4.0, 3.0, -1) < 0


def test_hitchin_rate_rejects_states_off_the_family():
    # an infinite scale raised OverflowError from as_integer_ratio, before the range check
    for y in ((0.0, 1.0, 1.0), (1.0, -1.0, 1.0), (1.0, 1.0, 0.0), (math.nan, 1.0, 1.0),
              (math.inf, 1.0, 1.0), (1.0, math.inf, 1.0), (1.0, 1.0, -math.inf)):
        with pytest.raises(ValueError, match="scales must be positive and finite"):
            hitchin_rate(y, 4.0, 3.0, -1)
    with pytest.raises(ValueError):
        hitchin_rate((1.0, 1.0, 1.0), 4.0, 3.0, 0)


def test_hitchin_rate_keeps_overflow_error_for_finite_states_beyond_the_float_range():
    # the finite-scale check must not swallow a finite state whose exact
    # closed forms round past the largest float
    for y in ((1e-300, 1.0, 1.0), (5e-324, 1.0, 1.0), (1e-300, 1e300, 1.0)):
        with pytest.raises(OverflowError):
            hitchin_rate(y, 4.0, 3.0, -1)


@pytest.mark.parametrize("state, eps, value", [
    ((1.3, 0.8, 1.1), -1, "0x1.dd4b3cb27dd9ep+1"),
    ((1.3, 0.8, 1.1), 1, "0x1.2cbdae1289ed3p+2"),
    ((0.1, 7.25, 3.0), 1, "-0x1.867b87b87b87bp+8"),
    ((1e-3, 2.0, 500.0), -1, "0x1.17936db6d1d9fp+20"),
])
def test_tau0_state_is_bitwise_pinned(state, eps, value):
    # values recorded from the inline expression tau0_state had before the closed
    # form moved to g2_ansatz; the Trajectory tau0 column must not move by one bit
    assert tau0_state(*state, eps).hex() == value


_STOP_REASONS = {"converged", "degeneracy", "blow-up", "diverged-from-critical", "horizon",
                 "max-steps"}


@settings(max_examples=60, deadline=None)
@given(start=st.tuples(*[st.floats(min_value=1e-8, max_value=1e8)] * 3),
       flavor=st.sampled_from(FLAVORS), eps=st.sampled_from((+1, -1)))
def test_integrate_never_raises_inside_the_floor_and_ceiling(start, flavor, eps):
    config = FlowConfig(flavor=flavor, eps=eps, max_steps=20)
    traj = integrate(config, FlowState(0.0, *start))
    assert traj.reason in _STOP_REASONS
    assert traj.steps <= config.max_steps


# float.hex of hitchin_rate_check at max_samples 8 and 40 on one short run off
# the principal point of each (eps, kappa, gamma) of the spectral-audit
# benchmark grid; the run and the probe step are those of that benchmark, with
# a fixed push along a fixed direction
VOLUME_RATE_PINS = {
    (1, 0.5, 2.5): ("0x1.e962bbde36fb2p-30", "0x1.e962bbde36fb2p-30"),
    (1, 0.5, 3.0): ("0x1.5c19673b7ac29p-28", "0x1.80e618438bd78p-28"),
    (1, 0.5, 4.0): ("0x1.de12197ed1699p-27", "0x1.07abcf9789f06p-26"),
    (1, 0.5, 5.0): ("0x1.a40ee5275e265p-26", "0x1.a40ee5275e265p-26"),
    (1, 0.5, 6.0): ("0x1.020944d250c28p-25", "0x1.1bb48c86576f4p-25"),
    (1, 1.0, 2.5): ("0x1.ea2d94c9cfbffp-30", "0x1.ea2d94c9cfbffp-30"),
    (1, 1.0, 3.0): ("0x1.7517af1827bf2p-28", "0x1.7517af1827bf2p-28"),
    (1, 1.0, 4.0): ("0x1.01e333b4cd8f0p-26", "0x1.01e333b4cd8f0p-26"),
    (1, 1.0, 5.0): ("0x1.774f19f85b357p-26", "0x1.9d675fb9746ebp-26"),
    (1, 1.0, 6.0): ("0x1.19b359e1aefc1p-25", "0x1.19b359e1aefc1p-25"),
    (1, 2.0, 2.5): ("0x1.f1a44f5553e74p-30", "0x1.f1a44f5553e74p-30"),
    (1, 2.0, 3.0): ("0x1.9afbd8f105342p-28", "0x1.9afbd8f105342p-28"),
    (1, 2.0, 4.0): ("0x1.ccee96ff15847p-27", "0x1.fb940275e9f75p-27"),
    (1, 2.0, 5.0): ("0x1.94ef771deedc0p-26", "0x1.94ef771deedc0p-26"),
    (1, 2.0, 6.0): ("0x1.f81abfa8e5217p-26", "0x1.159973613355ep-25"),
    (1, 3.0, 2.5): ("0x1.f97447d6ab614p-30", "0x1.f97447d6ab614p-30"),
    (1, 3.0, 3.0): ("0x1.8c0e40a363976p-28", "0x1.8c0e40a363976p-28"),
    (1, 3.0, 4.0): ("0x1.e99f1768e751ap-27", "0x1.0e661e89cbd93p-26"),
    (1, 3.0, 5.0): ("0x1.aa50002aba473p-26", "0x1.aa50002aba473p-26"),
    (1, 3.0, 6.0): ("0x1.05bb56de1456cp-25", "0x1.05bb56de1456cp-25"),
    (1, 4.0, 2.5): ("0x1.ebf3b5c25037ep-30", "0x1.ebf3b5c25037ep-30"),
    (1, 4.0, 3.0): ("0x1.97e62bb5f882cp-28", "0x1.97e62bb5f882cp-28"),
    (1, 4.0, 4.0): ("0x1.f5ce72c453ffbp-27", "0x1.f5ce72c453ffbp-27"),
    (1, 4.0, 5.0): ("0x1.6894c026a38e6p-26", "0x1.8dd705214c187p-26"),
    (1, 4.0, 6.0): ("0x1.0faa7685dbb81p-25", "0x1.0faa7685dbb81p-25"),
    (1, 6.0, 2.5): ("0x1.f42c20bc614a9p-30", "0x1.f42c20bc614a9p-30"),
    (1, 6.0, 3.0): ("0x1.83e598e8d133ap-28", "0x1.83e598e8d133ap-28"),
    (1, 6.0, 4.0): ("0x1.0bc6690df6fe3p-26", "0x1.0bc6690df6fe3p-26"),
    (1, 6.0, 5.0): ("0x1.7e9d303b2c5efp-26", "0x1.a67671fbebd77p-26"),
    (1, 6.0, 6.0): ("0x1.1ca3f03859af2p-25", "0x1.1ca3f03859af2p-25"),
    (1, 8.0, 2.5): ("0x1.0685d35da98f5p-29", "0x1.0685d35da98f5p-29"),
    (1, 8.0, 3.0): ("0x1.9884ef93c0c5bp-28", "0x1.9884ef93c0c5bp-28"),
    (1, 8.0, 4.0): ("0x1.ef92c93d708f6p-27", "0x1.ef92c93d708f6p-27"),
    (1, 8.0, 5.0): ("0x1.86a8bef3c94fcp-26", "0x1.aea55a79e24e7p-26"),
    (1, 8.0, 6.0): ("0x1.e1aeab5240cc0p-26", "0x1.09ad75e69299bp-25"),
    (1, 16.0, 2.5): ("0x1.04d52a39550c6p-29", "0x1.04d52a39550c6p-29"),
    (1, 16.0, 3.0): ("0x1.8b77df9727a55p-28", "0x1.8b77df9727a55p-28"),
    (1, 16.0, 4.0): ("0x1.09bc6c6628d9bp-26", "0x1.09bc6c6628d9bp-26"),
    (1, 16.0, 5.0): ("0x1.9f4f9f032a21cp-26", "0x1.9f4f9f032a21cp-26"),
    (1, 16.0, 6.0): ("0x1.f96bcb1e31891p-26", "0x1.16e7c3c7cac6fp-25"),
    (1, 32.0, 2.5): ("0x1.0a170c0c7e8e9p-29", "0x1.0a170c0c7e8e9p-29"),
    (1, 32.0, 3.0): ("0x1.9291cbf819f2dp-28", "0x1.9291cbf819f2dp-28"),
    (1, 32.0, 4.0): ("0x1.0f9062be7d6f7p-26", "0x1.0f9062be7d6f7p-26"),
    (1, 32.0, 5.0): ("0x1.a63f145375909p-26", "0x1.a63f145375909p-26"),
    (1, 32.0, 6.0): ("0x1.00d10e0d80e04p-25", "0x1.1b149fdd98fd9p-25"),
    (-1, 0.5, 2.5): ("0x1.8ad210df30d50p-23", "0x1.8ad210df30d50p-23"),
    (-1, 0.5, 3.0): ("0x1.291cb53ff0866p-23", "0x1.291cb53ff0866p-23"),
    (-1, 0.5, 4.0): ("0x1.fe479673a21aap-24", "0x1.fe479673a21aap-24"),
    (-1, 0.5, 5.0): ("0x1.e6dadc7de2f76p-24", "0x1.e6dadc7de2f76p-24"),
    (-1, 0.5, 6.0): ("0x1.dc4ad2ab962bap-24", "0x1.dc4ad2ab962bap-24"),
    (-1, 1.0, 2.5): ("0x1.8aa6ae0ebeeffp-23", "0x1.8aa6ae0ebeeffp-23"),
    (-1, 1.0, 3.0): ("0x1.285c6371b91d9p-23", "0x1.285c6371b91d9p-23"),
    (-1, 1.0, 4.0): ("0x1.fc8beeb264f61p-24", "0x1.fc8beeb264f61p-24"),
    (-1, 1.0, 5.0): ("0x1.e523165d872fbp-24", "0x1.e523165d872fbp-24"),
    (-1, 1.0, 6.0): ("0x1.da49cf23d5748p-24", "0x1.da49cf23d5748p-24"),
    (-1, 2.0, 2.5): ("0x1.87f67d745f125p-23", "0x1.87f67d745f125p-23"),
    (-1, 2.0, 3.0): ("0x1.2629d7cb0f585p-23", "0x1.2629d7cb0f585p-23"),
    (-1, 2.0, 4.0): ("0x1.f7a53d50fcd9ap-24", "0x1.f7a53d50fcd9ap-24"),
    (-1, 2.0, 5.0): ("0x1.de867400548b5p-24", "0x1.de867400548b5p-24"),
    (-1, 2.0, 6.0): ("0x1.d286618f08415p-24", "0x1.d286618f08415p-24"),
    (-1, 3.0, 2.5): ("0x1.842393afc9723p-23", "0x1.842393afc9723p-23"),
    (-1, 3.0, 3.0): ("0x1.22837497b096cp-23", "0x1.22837497b096cp-23"),
    (-1, 3.0, 4.0): ("0x1.eed47607ab743p-24", "0x1.eed47607ab743p-24"),
    (-1, 3.0, 5.0): ("0x1.d3846d4340cc7p-24", "0x1.d3846d4340cc7p-24"),
    (-1, 3.0, 6.0): ("0x1.c5390b06a3e40p-24", "0x1.c5390b06a3e40p-24"),
    (-1, 4.0, 2.5): ("0x1.7e50203bca477p-23", "0x1.7e50203bca477p-23"),
    (-1, 4.0, 3.0): ("0x1.1d7cd6ca0b27cp-23", "0x1.1d7cd6ca0b27cp-23"),
    (-1, 4.0, 4.0): ("0x1.e29467af3ff60p-24", "0x1.e29467af3ff60p-24"),
    (-1, 4.0, 5.0): ("0x1.c4ca3dd666b33p-24", "0x1.c4ca3dd666b33p-24"),
    (-1, 4.0, 6.0): ("0x1.b361ef380855bp-24", "0x1.b361ef380855bp-24"),
    (-1, 6.0, 2.5): ("0x1.6fea175816ac7p-23", "0x1.6fea175816ac7p-23"),
    (-1, 6.0, 3.0): ("0x1.0fc6fb1d3de5ep-23", "0x1.0fc6fb1d3de5ep-23"),
    (-1, 6.0, 4.0): ("0x1.c1bd94615db5ap-24", "0x1.c1bd94615db5ap-24"),
    (-1, 6.0, 5.0): ("0x1.9cab2649b1b7ap-24", "0x1.9cab2649b1b7ap-24"),
    (-1, 6.0, 6.0): ("0x1.845933384e2d0p-24", "0x1.845933384e2d0p-24"),
    (-1, 8.0, 2.5): ("0x1.5b237c9e62c10p-23", "0x1.5b237c9e62c10p-23"),
    (-1, 8.0, 3.0): ("0x1.fac94669c38d4p-24", "0x1.fac94669c38d4p-24"),
    (-1, 8.0, 4.0): ("0x1.9751fb183875ep-24", "0x1.9751fb183875ep-24"),
    (-1, 8.0, 5.0): ("0x1.89121d12d6e58p-24", "0x1.89121d12d6e58p-24"),
    (-1, 8.0, 6.0): ("0x1.802e537c3b71bp-24", "0x1.802e537c3b71bp-24"),
    (-1, 16.0, 2.5): ("0x1.3ec918695fb7bp-23", "0x1.3ec918695fb7bp-23"),
    (-1, 16.0, 3.0): ("0x1.e22a493427647p-24", "0x1.e22a493427647p-24"),
    (-1, 16.0, 4.0): ("0x1.9e7dd39b229ffp-24", "0x1.9e7dd39b229ffp-24"),
    (-1, 16.0, 5.0): ("0x1.809d2388cbfd1p-24", "0x1.809d2388cbfd1p-24"),
    (-1, 16.0, 6.0): ("0x1.7f9335d338d6dp-24", "0x1.7f9335d338d6dp-24"),
    (-1, 32.0, 2.5): ("0x1.3e01b383b9137p-23", "0x1.3e01b383b9137p-23"),
    (-1, 32.0, 3.0): ("0x1.e0b3536a9c472p-24", "0x1.e0b3536a9c472p-24"),
    (-1, 32.0, 4.0): ("0x1.9d03a62cdd2f2p-24", "0x1.9d03a62cdd2f2p-24"),
    (-1, 32.0, 5.0): ("0x1.8a09a5c20921ep-24", "0x1.8a09a5c20921ep-24"),
    (-1, 32.0, 6.0): ("0x1.792aa5eb3f3e7p-24", "0x1.792aa5eb3f3e7p-24"),
}


def test_volume_rate_probe_is_bitwise_pinned_on_the_benchmark_grid():
    assert len(VOLUME_RATE_PINS) == 90
    for (eps, kappa, gamma), pinned in VOLUME_RATE_PINS.items():
        point = find_critical_points(MODIFIED, kappa, gamma, eps)[0]
        assert point.label == LABEL_PRINCIPAL
        start = np.array(point.state)
        start = start + 0.01 * float(np.linalg.norm(start)) * state_direction(point, (1.0, -0.5, 0.25))
        t_max = 1 / (kappa * kappa * gamma)
        config = FlowConfig(flavor=MODIFIED, kappa=kappa, gamma=gamma, eps=eps, t_max=t_max, tol_conv=0)
        traj = integrate(config, FlowState(0.0, *start))
        assert traj.reason == "horizon"
        assert tuple(hitchin_rate_check(traj, kappa, gamma, probe_step=5e-4 * t_max, max_samples=n).hex()
                     for n in (8, 40)) == pinned


def test_integrate_refuses_a_non_finite_start():
    with pytest.raises(ValueError, match="initial state must be finite"):
        integrate(FlowConfig(), FlowState(0.0, math.inf, 1.0, 1.0))


def test_a_start_past_the_horizon_stops_there_after_no_step():
    traj = integrate(FlowConfig(t_max=1.0), FlowState(2.0, 1.3, 0.8, 1.1))
    assert (traj.reason, traj.steps) == ("horizon", 0)
    assert traj.final_state == FlowState(2.0, 1.3, 0.8, 1.1)


def test_the_volume_rate_check_needs_an_interior_sample():
    traj = integrate(FlowConfig(flavor=MODIFIED, max_steps=1), FlowState(0.0, 1.3, 0.8, 1.1))
    assert traj.steps == 1
    with pytest.raises(ValueError, match="trajectory too short"):
        hitchin_rate_check(traj, 4.0, 3.0)


@pytest.mark.parametrize("mu, flavor, message", [
    (0, MODIFIED, "mu must be positive"),
    (Decimal("NaN"), MODIFIED, "mu must be positive"),
    (Decimal("sNaN"), NORMALIZED, "mu must be positive"),
    (math.inf, NORMALIZED, "mu must be positive"),
    (math.inf, MODIFIED, "mu must be positive"),
    (Decimal("Infinity"), MODIFIED, "mu must be positive"),
    (1.0, "sideways", "unknown flavor"),
])
def test_scaling_ode_rhs_rejects_bad_inputs(mu, flavor, message):
    with pytest.raises(ValueError, match=message):
        scaling_ode_rhs(mu, 4, 3, flavor)


def test_the_two_float_volumes_agree_within_4_ulp():
    # Trajectory.volume and hitchin_volume are two float copies of a^2 b c^4 that
    # round in different orders; each is bit-pinned, so only their gap is checked
    traj = integrate(FlowConfig(flavor=NORMALIZED, kappa=4.0, eps=-1), FlowState(0.0, 1.3, 0.8, 1.1))
    assert (traj.steps, traj.reason) == (239, "converged")
    for state, vol in zip(traj.states, traj.volume):
        other = hitchin_volume(state)
        assert abs(vol - other) <= 4 * math.ulp(max(vol, other)), state
