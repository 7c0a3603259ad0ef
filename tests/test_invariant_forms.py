import copy
import dataclasses
import json
import math
import os
import pickle
import random
import re
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coflow.invariant_forms import (
    E1,
    E2,
    E3,
    TOP,
    UNIT,
    VOL,
    W1,
    W2,
    W3,
    GeometryParams,
    InvariantForm,
    Monomial,
    algebra_checks,
    all_monomials,
    exterior_derivative,
    form,
    hodge_star,
    inner_product,
    random_params,
    total_integral,
    volume_form,
    wedge,
    wedge_monomials,
)
from coflow import invariant_forms
from coflow.invariant_forms import _d_monomial, _metric_law, _star_partner, _structure_checks, _top_coeff
from coflow.g2_ansatz import build

BASIS = all_monomials()

rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=20
)
monomial_indices = st.integers(min_value=0, max_value=len(BASIS) - 1)
small_forms = st.dictionaries(monomial_indices, rationals, max_size=4).map(
    lambda d: InvariantForm({BASIS[i]: c for i, c in d.items()})
)


def params(a, b, q, eps):
    return GeometryParams(a=Fraction(a), b=Fraction(b), q=Fraction(q), eps=eps)


P_PLUS = params(1, 1, 5, +1)
P_MINUS = params(1, 1, 1, -1)
P_ODD = params(Fraction(3, 7), Fraction(5, 11), Fraction(2, 3), -1)


def test_basis_size_and_degree_profile():
    assert len(BASIS) == 40
    profile = {}
    for m in BASIS:
        profile[m.degree] = profile.get(m.degree, 0) + 1
    assert profile == {0: 1, 1: 3, 2: 6, 3: 10, 4: 10, 5: 6, 6: 3, 7: 1}


def test_monomial_key_round_trip():
    for m in BASIS:
        assert Monomial.from_key(m.key) == m


def test_monomial_validation():
    with pytest.raises(ValueError):
        Monomial((2, 1), "1")
    with pytest.raises(ValueError):
        Monomial((1, 1), "1")
    with pytest.raises(ValueError):
        Monomial((), "w4")


def test_structure_equations():
    assert exterior_derivative(E1) == form([("e23", -2), ("w1", -2)])
    assert exterior_derivative(E2) == form([("e13", 2), ("w2", -2)])
    assert exterior_derivative(E3) == form([("e12", -2), ("w3", -2)])
    assert exterior_derivative(VOL).is_zero()


def test_dw_is_forced_by_nilpotency():
    # dw_i is not independent data: 0 = d(d e_i) = d(-2 e_j^e_k) - 2 dw_i,
    # and the right side only uses the differentials of vertical generators.
    pairs = [(W1, wedge(E2, E3)), (W2, wedge(E3, E1)), (W3, wedge(E1, E2))]
    for w, ejk in pairs:
        assert exterior_derivative(w) == -exterior_derivative(ejk)


def test_d_squared_vanishes_on_every_monomial():
    for m in BASIS:
        dm = exterior_derivative(InvariantForm.monomial(m))
        assert exterior_derivative(dm).is_zero()


def test_horizontal_products():
    for i, wi in enumerate((W1, W2, W3)):
        for j, wj in enumerate((W1, W2, W3)):
            expected = 2 * VOL if i == j else InvariantForm.zero()
            assert wedge(wi, wj) == expected
        assert wedge(wi, VOL).is_zero()
    assert wedge(VOL, VOL).is_zero()


@given(monomial_indices, monomial_indices)
def test_wedge_graded_commutativity(i, j):
    m1, m2 = BASIS[i], BASIS[j]
    f1, f2 = InvariantForm.monomial(m1), InvariantForm.monomial(m2)
    sign = (-1) ** (m1.degree * m2.degree)
    assert wedge(f1, f2) == sign * wedge(f2, f1)


@given(monomial_indices, monomial_indices, monomial_indices)
def test_wedge_associativity(i, j, k):
    f1 = InvariantForm.monomial(BASIS[i])
    f2 = InvariantForm.monomial(BASIS[j])
    f3 = InvariantForm.monomial(BASIS[k])
    assert wedge(wedge(f1, f2), f3) == wedge(f1, wedge(f2, f3))


@given(monomial_indices, monomial_indices)
def test_leibniz_rule(i, j):
    f1 = InvariantForm.monomial(BASIS[i])
    f2 = InvariantForm.monomial(BASIS[j])
    lhs = exterior_derivative(wedge(f1, f2))
    sign = (-1) ** BASIS[i].degree
    rhs = wedge(exterior_derivative(f1), f2) + sign * wedge(f1, exterior_derivative(f2))
    assert lhs == rhs


@given(small_forms, small_forms)
def test_derivative_is_linear(f1, f2):
    assert exterior_derivative(f1 + f2) == exterior_derivative(f1) + exterior_derivative(f2)


@given(small_forms, rationals)
def test_derivative_commutes_with_scaling(f, c):
    assert exterior_derivative(c * f) == c * exterior_derivative(f)


def test_star_is_an_involution():
    for p in (P_PLUS, P_MINUS, P_ODD):
        for m in BASIS:
            f = InvariantForm.monomial(m)
            assert hodge_star(hodge_star(f, p), p) == f


@settings(max_examples=60)
@given(small_forms, small_forms)
def test_star_pairing_identity(f1, f2):
    # gamma ^ star(beta) = <gamma, beta> vol_eps needs homogeneous inputs
    for p in (P_PLUS, P_MINUS):
        for deg in range(8):
            g1 = InvariantForm({m: c for m, c in f1.coeffs.items() if m.degree == deg})
            g2 = InvariantForm({m: c for m, c in f2.coeffs.items() if m.degree == deg})
            assert wedge(g1, hodge_star(g2, p)) == inner_product(g1, g2, p) * volume_form(p)


def test_star_of_unit_and_top():
    for p in (P_PLUS, P_MINUS, P_ODD):
        top_coeff = p.eps * p.a * p.a * p.b * p.q * p.q
        assert hodge_star(form([("1", 1)]), p) == volume_form(p)
        assert hodge_star(InvariantForm.monomial(TOP), p) == form([("1", Fraction(1, top_coeff))])


def _weight(m, p):
    """<m, m>, the inner product of the one-term form m with itself."""
    f = InvariantForm.monomial(m)
    return inner_product(f, f, p)


def test_inner_product_weights():
    p = P_ODD
    assert _weight(Monomial((1,), "1"), p) == 1 / (p.a * p.a)
    assert _weight(Monomial((3,), "1"), p) == 1 / (p.b * p.b)
    assert _weight(Monomial((), "w2"), p) == 2 / (p.q * p.q)
    assert _weight(Monomial((), "vol"), p) == 1 / p.q ** 4
    assert _weight(TOP, p) == 1 / (p.a ** 4 * p.b ** 2 * p.q ** 4)


def test_inner_product_rejects_degree_mismatch():
    with pytest.raises(ValueError):
        inner_product(E1, W1, P_MINUS)


def test_mixed_degree_form_has_no_degree():
    with pytest.raises(ValueError):
        (E1 + W1).degree()


def test_coefficients_must_be_exact():
    with pytest.raises(TypeError):
        form([("e1", 0.5)])


def test_geometry_params_validation():
    with pytest.raises(ValueError):
        params(0, 1, 1, +1)
    with pytest.raises(ValueError):
        params(1, -2, 1, +1)
    with pytest.raises(ValueError):
        GeometryParams(a=Fraction(1), b=Fraction(1), q=Fraction(1), eps=2)


def test_total_integral_normalization():
    for p in (P_PLUS, P_MINUS):
        assert total_integral(volume_form(p), p) == p.eps * p.a ** 2 * p.b * p.q ** 2
    with pytest.raises(ValueError):
        total_integral(E1, P_PLUS)


@given(small_forms)
def test_json_round_trip(f):
    payload = json.dumps(f.to_json_dict())
    assert InvariantForm.from_json_dict(json.loads(payload)) == f


def test_algebra_checks_pass_at_random_points():
    rng = random.Random(20260816)
    for eps in (+1, -1):
        for _ in range(3):
            p = random_params(rng, eps)
            assert all(ok for _, ok in algebra_checks(p))


@pytest.mark.parametrize("eps", [1.0, Fraction(1), -1.0, Fraction(-1)], ids=repr)
def test_algebra_checks_read_a_float_or_fraction_eps_as_the_int(eps):
    # a float eps was accepted, and then algebra_checks raised TypeError
    scales = (Fraction(3, 7), Fraction(5, 2), Fraction(11, 3))
    p, want = GeometryParams(*scales, eps), GeometryParams(*scales, int(eps))
    assert type(p.eps) is int and p == want
    results = algebra_checks(p)
    assert results == algebra_checks(want)
    assert all(ok for _, ok in results)


def test_random_params_are_deterministic():
    p1 = random_params(random.Random(5), +1)
    p2 = random_params(random.Random(5), +1)
    assert (p1.a, p1.b, p1.q) == (p2.a, p2.b, p2.q)


# The structure tables are built at import from wedge_monomials and
# _d_monomial; these tests check the algebra laws on the product of each pair
# of monomials and on the stars, over the whole basis.

def _times(x, y):
    """Product of two (coefficient, monomial) pairs via the table; None is zero."""
    if x is None or y is None:
        return None
    prod = wedge_monomials(x[1], y[1])
    return None if prod is None else (x[0] * y[0] * prod[0], prod[1])


def test_cached_products_are_graded_commutative_and_associative():
    for m1 in BASIS:
        x1 = (Fraction(1), m1)
        for m2 in BASIS:
            x2 = (Fraction(1), m2)
            p12, p21 = _times(x1, x2), _times(x2, x1)
            sign = (-1) ** (m1.degree * m2.degree)
            assert p21 == (None if p12 is None else (sign * p12[0], p12[1]))
            for m3 in BASIS:
                x3 = (Fraction(1), m3)
                assert _times(p12, x3) == _times(x1, _times(x2, x3))


def test_cached_star_signs_agree_with_the_wedge_onto_top():
    for m in BASIS:
        comp, sign = _star_partner(m)
        assert comp.degree == 7 - m.degree
        assert wedge_monomials(m, comp) == (sign, TOP)
        assert _star_partner(comp)[0] == m


def test_constructor_keeps_rejecting_floats_and_dropping_zeros():
    m = BASIS[5]
    with pytest.raises(TypeError):
        InvariantForm({m: 0.5})
    f = InvariantForm({m: Fraction(0), BASIS[6]: 0, BASIS[7]: 3})
    assert f.coeffs == {BASIS[7]: Fraction(3)}
    assert type(f.coeffs[BASIS[7]]) is Fraction


def _reference_sum(x, y, sign):
    # oracle: x + sign * y by Fraction arithmetic, one term of y at a time
    out = dict(x.coeffs)
    for m, c in y.coeffs.items():
        c = sign * c
        s = out.get(m)
        if s is None:
            out[m] = c
        else:
            s += c
            if s:
                out[m] = s
            else:
                del out[m]
    return out


def _overlapping_forms(rng, degree):
    mons = [m for m in BASIS if m.degree == degree]
    shared_den = rng.randint(1, 30)

    def coeff():
        kind = rng.randrange(4)
        if kind == 0:
            return Fraction(rng.randint(-40, 40), shared_den)
        if kind == 1:
            return Fraction(rng.randint(-40, 40), rng.randint(1, 30))
        if kind == 2:
            return Fraction(rng.uniform(-1e3, 1e3))  # denominators near 2^50
        return rng.randint(-5, 5)

    def draw():
        return {m: coeff() for m in rng.sample(mons, rng.randint(0, len(mons)))}

    x, y = draw(), draw()
    # y repeats some of x's terms up to sign, so the sum or the difference cancels there
    for m in list(x)[: rng.randint(0, len(x))]:
        y[m] = rng.choice((1, -1)) * x[m]
    return InvariantForm(x), InvariantForm(y)


def test_sum_and_difference_match_the_fraction_loop():
    rng = random.Random(2510)
    for degree in range(8):
        for _ in range(40):
            x, y = _overlapping_forms(rng, degree)
            for got, sign in ((x + y, 1), (x - y, -1)):
                assert got.coeffs == _reference_sum(x, y, sign)
                assert all(c and type(c) is Fraction for c in got.coeffs.values())
            assert (x - x).coeffs == {} and (x + (-x)).coeffs == {}
            assert (x - InvariantForm.zero()).coeffs == x.coeffs
            assert (InvariantForm.zero() - x).coeffs == (-x).coeffs


# algebra_checks runs its parameter-free parts once (_structure_checks) and
# the rest per point; the reference below is the former all-per-point loop,
# kept verbatim, with all 292 same-degree pairings.

def _reference_algebra_checks(p: GeometryParams) -> list[tuple[str, bool]]:
    basis = all_monomials()
    vol_eps = volume_form(p)

    dd_ok = all(exterior_derivative(_d_monomial(m)).is_zero() for m in basis)

    forms = {m: InvariantForm.monomial(m) for m in basis}
    stars = {m: hodge_star(forms[m], p) for m in basis}

    invol_ok = True
    for m in basis:
        if hodge_star(stars[m], p) != forms[m]:
            invol_ok = False

    # gamma ^ star(beta) = <gamma, beta> vol_eps over every same-degree pair
    pairing_ok = True
    by_degree: dict[int, list[Monomial]] = {}
    for m in basis:
        by_degree.setdefault(m.degree, []).append(m)
    for mons in by_degree.values():
        for m1 in mons:
            for m2 in mons:
                lhs = wedge(forms[m1], stars[m2])
                if lhs != inner_product(forms[m1], forms[m2], p) * vol_eps:
                    pairing_ok = False

    horiz_ok = (
        wedge(W1, W1) == 2 * VOL and wedge(W2, W2) == 2 * VOL
        and wedge(W3, W3) == 2 * VOL
        and wedge(W1, W2).is_zero() and wedge(W2, W3).is_zero()
        and wedge(W3, W1).is_zero() and wedge(W1, VOL).is_zero()
    )

    unit_ok = hodge_star(form([("1", 1)]), p) == vol_eps

    return [
        ("nilpotent-differential", dd_ok),
        ("star-involution", invol_ok),
        ("star-pairing", pairing_ok),
        ("horizontal-products", horiz_ok),
        ("unit-star", unit_ok),
    ]


def test_algebra_checks_match_the_full_per_point_reference():
    rng = random.Random(20261018)
    for eps in (+1, -1):
        for _ in range(50):
            p = random_params(rng, eps)
            assert algebra_checks(p) == _reference_algebra_checks(p)


def test_structure_checks_are_cached_and_match_a_fresh_run():
    assert _structure_checks() == _structure_checks.__wrapped__() == (True, True, True)


def _extra_monomial(star):
    # star(e1) gains a term on the complement of e2: e1 ^ it is zero, so only
    # an off-diagonal pairing, here (e2, e1), can see it
    return star + InvariantForm.monomial(_star_partner(Monomial((2,), "1"))[0])


def _wrong_monomial(star):
    # star(e1) lands on the complement of e2 instead of that of e1
    (c,) = star.coeffs.values()
    return InvariantForm.monomial(_star_partner(Monomial((2,), "1"))[0], c)


@pytest.mark.parametrize("fault", [_extra_monomial, _wrong_monomial])
def test_star_pairing_catches_a_star_on_the_wrong_monomial(monkeypatch, fault):
    true_star = invariant_forms.hodge_star

    def faulty_star(alpha, p):
        star = true_star(alpha, p)
        return fault(star) if alpha == E1 else star

    monkeypatch.setattr(invariant_forms, "hodge_star", faulty_star)
    monkeypatch.setattr(sys.modules[__name__], "hodge_star", faulty_star)
    for p in (P_PLUS, P_MINUS, P_ODD):
        results = dict(algebra_checks(p))
        assert results["star-pairing"] is False
        assert results["unit-star"] is True
        assert algebra_checks(p) == _reference_algebra_checks(p)


# Faults in a star's coefficient rather than its support.  algebra_checks
# stars one-term forms made at import and compares each diagonal pairing as
# the single TOP coefficient of the wedge; both must still see these.

def _doubled_e1(alpha, star):
    return 2 * star if alpha == E1 else star


def _flipped_extremes(alpha, star):
    # the star of the unit (and of the top monomial, so the involution still
    # holds) takes the opposite orientation; the unit's own diagonal pairing
    # 1 ^ star(1) = <1, 1> vol_eps is the unit-star identity, so star-pairing
    # reads False with it
    return -star if alpha.degree() in (0, 7) else star


@pytest.mark.parametrize("fault, failing", [
    (_doubled_e1, {"star-involution", "star-pairing"}),
    (_flipped_extremes, {"star-pairing", "unit-star"}),
])
def test_algebra_checks_catch_a_wrong_star_coefficient(monkeypatch, fault, failing):
    true_star = invariant_forms.hodge_star

    def faulty_star(alpha, p):
        return fault(alpha, true_star(alpha, p))

    monkeypatch.setattr(invariant_forms, "hodge_star", faulty_star)
    monkeypatch.setattr(sys.modules[__name__], "hodge_star", faulty_star)
    for p in (P_PLUS, P_MINUS, P_ODD):
        results = algebra_checks(p)
        assert {cid for cid, ok in results if not ok} == failing
        assert results == _reference_algebra_checks(p)


# Faults in the kernels that the diagonal pairings call.  algebra_checks
# compares each pairing by one integer cross-multiplication; it must still
# see a doubled weight, a relative error of 10^-12 on one TOP coefficient
# and a term off TOP.

def _doubled_e1_weight(true_inner):
    def faulty_inner(alpha, beta, p):
        value = true_inner(alpha, beta, p)
        return 2 * value if alpha == E1 and beta == E1 else value
    return faulty_inner


def _nudged_top(true_wedge):
    def faulty_wedge(alpha, beta):
        out = true_wedge(alpha, beta)
        if alpha == E1 and TOP in out.coeffs:
            return InvariantForm({**out.coeffs, TOP: out.coeffs[TOP] * (1 + Fraction(1, 10 ** 12))})
        return out
    return faulty_wedge


def _extra_term(true_wedge):
    # the right TOP coefficient, beside a term that vol_eps does not have
    def faulty_wedge(alpha, beta):
        out = true_wedge(alpha, beta)
        if alpha == E1 and TOP in out.coeffs:
            return out + InvariantForm.monomial(UNIT, Fraction(1, 3))
        return out
    return faulty_wedge


@pytest.mark.parametrize("name, fault", [("inner_product", _doubled_e1_weight),
                                         ("wedge", _nudged_top),
                                         ("wedge", _extra_term)])
def test_diagonal_pairings_catch_a_faulty_kernel(monkeypatch, name, fault):
    for p in (P_PLUS, P_MINUS, P_ODD):
        algebra_checks(p)  # the once-per-process tables are built with the true kernels
    faulty = fault(getattr(invariant_forms, name))
    monkeypatch.setattr(invariant_forms, name, faulty)
    monkeypatch.setattr(sys.modules[__name__], name, faulty)
    for p in (P_PLUS, P_MINUS, P_ODD):
        results = algebra_checks(p)
        assert {cid for cid, ok in results if not ok} == {"star-pairing"}
        assert results == _reference_algebra_checks(p)


def test_algebra_checks_match_the_reference_on_fraction_float_points():
    # _weight_points holds Fraction(float) scales with ~2^50 denominators
    for p in _weight_points():
        assert algebra_checks(p) == _reference_algebra_checks(p)


def _weight_points():
    # small heights, and Fraction(float) scales with ~2^50 denominators
    rng = random.Random(4040)
    points = [P_PLUS, P_MINUS, P_ODD]
    for eps in (+1, -1):
        points += [random_params(rng, eps) for _ in range(10)]
        for _ in range(10):
            a, b, c = (Fraction(rng.uniform(0.05, 20.0)) for _ in range(3))
            points.append(GeometryParams(a, b, c * c, eps))
    return points


def test_metric_coefficients_equal_the_fraction_chains():
    horiz_weight = {"1": (1, 0), "w1": (2, 2), "w2": (2, 2), "w3": (2, 2), "vol": (1, 4)}
    for p in _weight_points():
        top = _top_coeff(p)
        assert type(top) is Fraction
        assert top == p.eps * p.a * p.a * p.b * p.q * p.q
        for m in BASIS:
            k, e = horiz_weight[m.horiz]
            nb = int(3 in m.verts)
            na = len(m.verts) - nb
            weight = _weight(m, p)
            assert type(weight) is Fraction
            assert weight == k / (p.a ** (2 * na) * p.b ** (2 * nb) * p.q ** e)


# from_key is a lookup over the 40 keys that Monomial.key produces; any other
# key is refused rather than parsed to some other monomial.

@pytest.mark.parametrize("key", ["1^w1", "e", "e12^1", "e1^", "e21", "e4", "w4", "", "^vol", "e1^w1^w2"])
def test_from_key_rejects_non_canonical_keys(key):
    with pytest.raises(ValueError, match=re.escape(f"unknown monomial key {key!r}")):
        Monomial.from_key(key)


def test_from_key_returns_the_basis_monomial_itself():
    for m in BASIS:
        assert Monomial.from_key(m.key) is m


def test_json_with_a_non_canonical_key_is_refused_not_merged():
    # read leniently, "e" is the unit too, and the result 2*1 loses an entry
    with pytest.raises(ValueError, match="'e'"):
        InvariantForm.from_json_dict({"e": "1", "1": "2"})
    with pytest.raises(ValueError, match=re.escape("'e12^1'")):
        form([("e12^1", 1)])


# hodge_star and inner_product build each term as one
# Fraction from the per-monomial metric law; the references below are the
# former Fraction chains, kept verbatim.

def _reference_weight(m, p):
    k, e = {"1": (1, 0), "w1": (2, 2), "w2": (2, 2), "w3": (2, 2), "vol": (1, 4)}[m.horiz]
    nb = int(3 in m.verts)
    na = len(m.verts) - nb
    a, b, q = p.a, p.b, p.q
    return Fraction(k * a.denominator ** (2 * na) * b.denominator ** (2 * nb) * q.denominator ** e,
                    a.numerator ** (2 * na) * b.numerator ** (2 * nb) * q.numerator ** e)


def _reference_hodge_star(alpha, p):
    if alpha.is_zero():
        return alpha
    alpha.degree()  # homogeneity check
    top_coeff = _top_coeff(p)
    out = {}
    for m, c in alpha.coeffs.items():
        comp, pairing = _star_partner(m)
        out[comp] = c * (_reference_weight(m, p) * top_coeff / pairing)
    return InvariantForm(out)


def _reference_inner_product(alpha, beta, p):
    da, db = alpha.degree(), beta.degree()
    if da is not None and db is not None and da != db:
        raise ValueError(f"degree mismatch: {da} vs {db}")
    total = Fraction(0)
    for m, c in alpha.coeffs.items():
        cb = beta.coeffs.get(m)
        if cb is not None:
            weight = _reference_weight(m, p)
            total += c * cb * weight
    return total


def _reference_forms():
    """Every monomial alone and times -7/3, and seeded multi-term forms of each degree."""
    rng = random.Random(1010)
    forms = [InvariantForm.monomial(m, c) for m in BASIS for c in (1, Fraction(-7, 3))]
    for deg in range(8):
        mons = [m for m in BASIS if m.degree == deg]
        for _ in range(4):
            chosen = rng.sample(mons, rng.randint(1, len(mons)))
            forms.append(InvariantForm({m: Fraction(rng.choice((-1, 1)) * rng.randint(1, 10 ** 6),
                                                    rng.randint(2, 10 ** 6)) for m in chosen}))
    return forms


def test_star_and_inner_product_equal_the_fraction_chains():
    forms = _reference_forms()
    # each form with itself, and every pair of multi-term forms of one degree
    pairs = [(f, f) for f in forms]
    multi = [f for f in forms if len(f.coeffs) > 1]
    pairs += [(f, g) for f in multi for g in multi if f.degree() == g.degree()]
    for p in _weight_points():
        for m in BASIS:
            assert _weight(m, p) == _reference_weight(m, p)
        for f in forms:
            star = hodge_star(f, p)
            assert star == _reference_hodge_star(f, p)
            assert all(type(c) is Fraction for c in star.coeffs.values())
        for f, g in pairs:
            value = inner_product(f, g, p)
            assert type(value) is Fraction
            assert value == _reference_inner_product(f, g, p)


def test_params_keep_their_ratios_without_changing_equality_hash_or_repr():
    # GeometryParams reads (an, ad, bn, bd, qn, qd) once and keeps it beside its
    # fields; copies, unpickled and replaced params must still give the kernels
    # of the Fraction chains, a replaced scale its own ratios
    forms = _reference_forms()
    for p in _weight_points():
        fresh = GeometryParams(p.a, p.b, p.q, p.eps)
        hodge_star(E1, p)
        assert "_ratios" in vars(p) and "_ratios" not in vars(fresh)
        assert p == fresh and hash(p) == hash(fresh) and repr(p) == repr(fresh)
        assert p._ratios == (*p.a.as_integer_ratio(), *p.b.as_integer_ratio(), *p.q.as_integer_ratio())
        twins = [copy.copy(p), pickle.loads(pickle.dumps(p)), dataclasses.replace(p),
                 dataclasses.replace(p, a=p.a * 3, eps=-p.eps)]
        assert twins[:3] == [p] * 3
        for twin in twins:
            assert twin._ratios == (*twin.a.as_integer_ratio(), *twin.b.as_integer_ratio(),
                                    *twin.q.as_integer_ratio())
            for f in forms[::7]:
                assert hodge_star(f, twin) == _reference_hodge_star(f, twin)
                assert inner_product(f, f, twin) == _reference_inner_product(f, f, twin)


def test_every_law_exponent_indexes_the_star_factor_tables():
    # hodge_star looks a^(2-ja), b^(1-jb) and q^(2-jq) up in tables of 3, 2 and 3
    # entries at ja // 2, jb // 2 and jq // 2
    laws = invariant_forms._LAW
    assert {invariant_forms._INDEX[i] for i in range(len(laws))} == set(BASIS)
    for _, _, _, ja, jb, jq in laws:
        assert ja in (0, 2, 4) and jb in (0, 2) and jq in (0, 2, 4)


def test_the_metric_law_makes_the_star_an_involution_for_every_a_b_q():
    # star(m) is k eps a^(2-ja) b^(1-jb) q^(2-jq) / pairing times the complement,
    # so star(star(m)) = m for every (a, b, q) exactly when the complement's
    # complement is m, the exponents of the two rows cancel and the constants
    # multiply to 1 (eps^2 = 1): integers only, no parameter point.  Row i
    # is the law of the monomial whose hash is i, its complement an index
    laws = invariant_forms._LAW
    assert len(laws) == 40
    for m, (comp, pairing, k, ja, jb, jq) in enumerate(laws):
        comp2, pairing2, k2, ja2, jb2, jq2 = laws[comp]
        assert comp2 == m
        assert (ja + ja2, jb + jb2, jq + jq2) == (4, 2, 4)
        assert k * k2 == pairing * pairing2


def test_the_metric_law_makes_the_stars_pair_and_the_unit_star_for_every_a_b_q():
    # the rest of algebra_checks' per-point checks, on integers alone. star(m) is
    # k eps a^(2-ja) b^(1-jb) q^(2-jq) / pairing times the complement, so:
    # - m ^ star(m) is (w / pairing) k eps a^(2-ja) b^(1-jb) q^(2-jq) TOP when
    #   m ^ complement = w TOP, and <m, m> vol_eps is k a^-ja b^-jb q^-jq times
    #   eps a^2 b q^2 TOP: the same Laurent monomial, so the diagonal pairing
    #   holds for every (a, b, q) exactly when w = pairing != 0;
    # - each star's support is its complement alone, a monomial of the
    #   complementary degree, and the complements are a bijection of the basis;
    # - the unit star is eps a^2 b q^2 TOP, the volume form, when its row is
    #   (TOP, 1, 1, 0, 0, 0)
    # Row i is the law of the monomial whose hash is i, its complement an index
    laws, index = invariant_forms._LAW, invariant_forms._INDEX
    assert len(laws) == 40 and {index[i] for i in range(len(laws))} == set(BASIS)
    for i, (comp, pairing, k, ja, jb, jq) in enumerate(laws):
        m, comp = index[i], index[comp]
        assert pairing != 0
        assert wedge_monomials(m, comp) == (pairing, TOP)
        assert comp.degree == 7 - m.degree
    assert sorted(index[law[0]].key for law in laws) == sorted(m.key for m in BASIS)
    assert laws[hash(UNIT)] == (hash(TOP), 1, 1, 0, 0, 0)


def test_star_and_inner_product_reject_mixed_degrees():
    mixed = form([("e1", Fraction(-3, 2)), ("w1", 5)])
    for p in (P_PLUS, P_ODD):
        with pytest.raises(ValueError):
            hodge_star(mixed, p)
        with pytest.raises(ValueError):
            _reference_hodge_star(mixed, p)
        with pytest.raises(ValueError):
            inner_product(mixed, E1, p)
        with pytest.raises(ValueError):
            inner_product(E1, mixed, p)


# A monomial's hash is fixed on construction from its vertical bitmask and
# horizontal part, so it does not depend on the process.

def test_monomials_from_every_route_are_equal_and_hash_equal():
    assert len({hash(m) for m in BASIS}) == len(BASIS)
    for m in BASIS:
        routes = [Monomial(m.verts, m.horiz), Monomial.from_key(m.key),
                  wedge_monomials(UNIT, m)[1], _star_partner(_star_partner(m)[0])[0]]
        for r in routes:
            assert r == m and hash(r) == hash(m) and r.degree == m.degree
    for m1 in BASIS:
        for m2 in BASIS:
            prod = wedge_monomials(m1, m2)
            if prod is not None:
                built = Monomial(tuple(sorted(m1.verts + m2.verts)), prod[1].horiz)
                assert built == prod[1] and hash(built) == hash(prod[1])


def test_copied_and_unpickled_monomials_find_their_dict_entries():
    table = {m: i for i, m in enumerate(BASIS)}
    for i, m in enumerate(BASIS):
        for twin in (copy.copy(m), copy.deepcopy(m), pickle.loads(pickle.dumps(m))):
            assert twin == m and hash(twin) == hash(m) and twin.degree == m.degree
            assert table[twin] == i


def test_kernels_on_copied_and_rebuilt_monomials_equal_those_on_the_basis():
    # the structure tables are indexed by a monomial's hash, so an equal
    # monomial that is not one of the 40 basis objects must read the same entry
    c = Fraction(-7, 3)
    basis_units = [InvariantForm.monomial(m2) for m2 in BASIS]
    for m in BASIS:
        base = InvariantForm.monomial(m, c)
        for twin in (Monomial(m.verts, m.horiz), copy.copy(m), pickle.loads(pickle.dumps(m))):
            assert twin is not m
            f = InvariantForm({twin: c})
            assert next(iter(f.coeffs)) is twin
            assert exterior_derivative(f) == exterior_derivative(base)
            for g in basis_units:
                assert wedge(f, g) == wedge(base, g) and wedge(g, f) == wedge(g, base)
            for p in (P_PLUS, P_MINUS, P_ODD):
                assert _weight(twin, p) == _weight(m, p)
                assert hodge_star(f, p) == hodge_star(base, p)
                assert inner_product(f, f, p) == inner_product(base, base, p)
                assert inner_product(f, base, p) == inner_product(base, f, p) == inner_product(base, base, p)


def test_monomial_hash_does_not_depend_on_the_hash_seed():
    src = str(Path(invariant_forms.__file__).resolve().parents[1])
    code = "from coflow.invariant_forms import Monomial; print(hash(Monomial((1, 3), 'w2')))"
    printed = []
    for seed in ("0", "12345"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=120, check=True)
        printed.append(proc.stdout.strip())
    assert printed == [str(hash(Monomial((1, 3), "w2")))] * 2


# The public constructor checks each coefficient's type before it drops the
# zeros, so a float zero is refused like any other float.

@pytest.mark.parametrize("value", [0.0, -0.0, np.float64(0), 0.5, np.int64(3)])
def test_constructor_refuses_inexact_coefficients_zero_or_not(value):
    with pytest.raises(TypeError, match="exact coefficient required"):
        InvariantForm({BASIS[5]: value})
    with pytest.raises(TypeError, match="exact coefficient required"):
        InvariantForm({BASIS[5]: Fraction(1), BASIS[6]: value})
    with pytest.raises(TypeError, match="exact coefficient required"):
        form([("e1", value)])


# wedge and exterior_derivative sum each output coefficient as one integer
# numerator and denominator, and the kernels and the arithmetic hand their
# new maps to the unchecked private constructor.  The references below are
# the former Fraction chains through the public constructor, kept verbatim.

def _reference_add_term(out, m, c):
    if m in out:
        out[m] += c
    else:
        out[m] = c


def _reference_wedge(alpha, beta):
    out = {}
    for m1, c1 in alpha.coeffs.items():
        for m2, c2 in beta.coeffs.items():
            prod = wedge_monomials(m1, m2)
            if prod is not None:
                c, m = prod
                _reference_add_term(out, m, c1 * c2 * c)
    return InvariantForm(out)


def _reference_exterior_derivative(alpha):
    out = {}
    for m, c in alpha.coeffs.items():
        for dm, dc in _d_monomial(m).coeffs.items():
            _reference_add_term(out, dm, c * dc)
    return InvariantForm(out)


def _reference_add(self, other):
    out = dict(self.coeffs)
    for m, c in other.coeffs.items():
        _reference_add_term(out, m, c)
    return InvariantForm(out)


def _reference_neg(self):
    return InvariantForm({m: -c for m, c in self.coeffs.items()})


def _reference_sub(self, other):
    return _reference_add(self, _reference_neg(other))


def _reference_rmul(self, scalar):
    s = invariant_forms._as_scalar(scalar)
    return InvariantForm({m: s * c for m, c in self.coeffs.items()})


def _assert_exact(f):
    assert all(type(c) is Fraction and c != 0 for c in f.coeffs.values())


def _arithmetic_forms():
    """Seeded multi-term forms, Fraction(float) ones, their stars at both eps, and 0."""
    rng = random.Random(3131)
    forms = [InvariantForm.zero()] + [f for f in _reference_forms() if len(f.coeffs) > 1]
    for deg in range(8):
        mons = [m for m in BASIS if m.degree == deg]
        chosen = rng.sample(mons, min(3, len(mons)))
        forms.append(InvariantForm({m: Fraction(rng.uniform(-20.0, 20.0)) for m in chosen}))
    return forms + [hodge_star(f, p) for f in forms[1:] for p in (P_PLUS, P_ODD)]


SCALARS = (0, 1, -1, 7, Fraction(-5, 3))


def test_kernels_and_arithmetic_equal_the_fraction_chains():
    forms = _arithmetic_forms()
    assert any(c.denominator > 2 ** 40 for f in forms for c in f.coeffs.values())
    for f in forms:
        for new, old in ((exterior_derivative(f), _reference_exterior_derivative(f)),
                         (-f, _reference_neg(f)),
                         (f + (-f), InvariantForm.zero()),
                         (f - f, InvariantForm.zero())):
            assert new == old
            _assert_exact(new)
        for s in SCALARS:
            for new in (s * f, f * s):
                assert new == _reference_rmul(f, s)
                _assert_exact(new)
    for f in forms[::3]:
        for g in forms[::2]:
            for new, old in ((wedge(f, g), _reference_wedge(f, g)),
                             (f + g, _reference_add(f, g)),
                             (f - g, _reference_sub(f, g))):
                assert new == old
                _assert_exact(new)


def test_kernels_and_arithmetic_cancel_to_exact_zero():
    odd = form([("e1", Fraction(3, 7)), ("e2", -2), ("e3", Fraction(1, 2 ** 52))])
    assert wedge(odd, odd).coeffs == {}
    assert (odd + (-odd)).coeffs == {} and (odd - odd).coeffs == {}
    for f in _arithmetic_forms():
        assert exterior_derivative(exterior_derivative(f)).coeffs == {}
        assert (0 * f).coeffs == {} and (f * Fraction(0)).coeffs == {}
    # a partial cancellation leaves only the surviving entry
    partial = form([("e1", Fraction(1, 3)), ("w1", 2)]) + form([("e1", Fraction(-1, 3)), ("w2", 1)])
    assert partial == form([("w1", 2), ("w2", 1)])
    _assert_exact(partial)


def test_results_own_their_coefficient_maps():
    # the private constructor takes a map over without copying it, so each
    # result must hold a map no operand or later call shares
    zero = InvariantForm.zero()
    unit = InvariantForm.monomial(UNIT)
    f = form([("e1", Fraction(3, 7)), ("e12", -2), ("w1", 5)])
    g = form([("e3", Fraction(-1, 4)), ("w2", 1), ("e23", 3)])
    f1 = form([("e1", Fraction(3, 7)), ("e2", -2)])
    operands = (zero, unit, f, g, f1, E1, W1)
    calls = [
        lambda: wedge(f, g), lambda: wedge(f, zero), lambda: wedge(E1, unit),
        lambda: wedge(unit, W1),
        lambda: exterior_derivative(f), lambda: exterior_derivative(zero),
        lambda: exterior_derivative(E1), lambda: exterior_derivative(W1),
        lambda: hodge_star(f1, P_ODD), lambda: hodge_star(zero, P_PLUS),
        lambda: f + g, lambda: f + zero, lambda: zero + f, lambda: f - g, lambda: f - zero,
        lambda: -f, lambda: -zero,
        lambda: 1 * f, lambda: f * 1, lambda: 0 * f, lambda: Fraction(2, 3) * zero,
    ]
    snapshot = [dict(x.coeffs) for x in operands]
    for call in calls:
        expected = call()
        result = call()
        result.coeffs.clear()
        result.coeffs[TOP] = Fraction(12345)
        assert [dict(x.coeffs) for x in operands] == snapshot
        assert call() == expected


def test_structure_tables_hold_integers():
    # exterior_derivative's table keeps the numerators of each d(m) alone
    for m in BASIS:
        assert all(type(c) is Fraction and c.denominator == 1 for c in _d_monomial(m).coeffs.values())
        assert type(_star_partner(m)[1]) is int
        for m2 in BASIS:
            prod = wedge_monomials(m, m2)
            assert prod is None or type(prod[0]) is int


# The kernels read three tuples made at import, indexed by a monomial's hash:
# the product table, d of each monomial and the metric law.  Each names its
# output monomial by index, so a kernel hashes a monomial only to write its
# result map, or, in inner_product, to find a term in the other operand.

def test_each_structure_table_equals_its_derivation():
    index = invariant_forms._INDEX
    assert [hash(m) for m in index] == list(range(40))
    assert len(index) == 40 and {id(m) for m in index} == {id(m) for m in invariant_forms._BASIS}
    product, d_table, laws = invariant_forms._PRODUCT, invariant_forms._D, invariant_forms._LAW
    assert len(product) == len(d_table) == len(laws) == 40
    for i, m in enumerate(index):
        assert len(product[i]) == 40
        for j, m2 in enumerate(index):
            w = wedge_monomials(m, m2)
            assert product[i][j] == (None if w is None else (w[0], hash(w[1])))
        d = _d_monomial(m)
        assert d_table[i] == tuple((hash(dm), dc) for dm, dc in d.coeffs.items())
        assert all(type(k) is int for _, k in d_table[i])
        comp, *rest = _metric_law(m)
        assert laws[i] == (hash(comp), *rest)


def test_each_derivation_returns_a_form_no_table_or_later_call_shares():
    # nothing is kept between calls, so writing into one call's result must
    # reach neither the structure table built from it nor the next call
    d_table = invariant_forms._D
    for i, m in enumerate(invariant_forms._INDEX):
        d = _d_monomial(m)
        expected = dict(d.coeffs)
        d.coeffs[TOP] = Fraction(12345)
        again = _d_monomial(m)
        assert again is not d and again.coeffs is not d.coeffs
        assert again.coeffs == expected
        assert d_table[i] == tuple((hash(dm), dc) for dm, dc in expected.items())
        assert exterior_derivative(InvariantForm.monomial(m)).coeffs == expected


def test_each_kernel_hashes_a_monomial_only_for_its_result_or_the_other_operand(monkeypatch):
    ans = build(P_PLUS)
    phi, psi = ans.phi, ans.psi
    kernels = ((wedge, (phi, psi)), (exterior_derivative, (phi,)), (hodge_star, (phi, P_PLUS)))
    expected = [fn(*args) for fn, args in kernels]
    assert not any(f.is_zero() for f in expected)
    calls = 0
    unwrapped = Monomial.__hash__

    def counted(m):
        nonlocal calls
        calls += 1
        return unwrapped(m)

    monkeypatch.setattr(Monomial, "__hash__", counted)

    def hashes(fn, *args):
        nonlocal calls
        calls = 0
        return fn(*args), calls

    for (fn, args), want in zip(kernels, expected):
        out, n = hashes(fn, *args)
        assert out == want and n == len(out.coeffs), fn.__name__
    value, n = hashes(inner_product, phi, phi, P_PLUS)
    assert n == len(phi.coeffs)
    monkeypatch.undo()
    assert value == inner_product(phi, phi, P_PLUS)


# ------------------------------------------------------- unreduced exact ratios

@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, np.float64("inf"), np.float32("-inf"),
                                   np.longdouble("nan"), Decimal("Infinity"), Decimal("-Infinity"),
                                   Decimal("NaN"), Decimal("sNaN")], ids=repr)
def test_the_exact_reader_refuses_a_value_with_no_integer_ratio(value):
    with pytest.raises(ValueError, match="the value must be finite"):
        invariant_forms._exact(value)


def _ratio_expressions(x, y):
    # every operation of the ratio, each sum and difference both over one
    # denominator (x with x) and over two (x with y), and with ints on either side
    return (x + y, x + x, x + 3, 3 + x, x - y, x - x * 2, y - x, x - 3, 3 - x,
            x * y, x * 4, 4 * x, x / y, x / 5, 5 / x, -x, x ** 0, x ** 3,
            2 * x * x - y * y / x + 7)


@settings(max_examples=200, deadline=None)
@given(x=rationals.filter(bool), y=rationals.filter(bool))
def test_exactly_is_the_fraction_arithmetic(x, y):
    results = invariant_forms._exactly(_ratio_expressions, x, y)
    assert results == _ratio_expressions(x, y)
    assert all(type(r) is Fraction for r in results)


def test_exactly_reads_ints_and_passes_other_arguments_through():
    seen = []
    assert invariant_forms._exactly(lambda x, y, z: seen.append(z) or (x * y,),
                                    3, Fraction(1, 6), None) == (Fraction(1, 2),)
    assert seen == [None]
    out = invariant_forms._exactly(lambda x: x - 1, 1)
    assert type(out) is Fraction and out == 0


def test_a_sum_over_one_denominator_keeps_it():
    x, y = invariant_forms._Ratio(1, 6), invariant_forms._Ratio(5, 6)
    for r, n in ((x + y, 6), (x - y, -4), (x + 1, 7), (1 - x, 5), (-x, -1)):
        assert (r.n, r.d) == (n, 6)
    r = x + invariant_forms._Ratio(1, 4)
    assert (r.n, r.d) == (10, 24)  # no gcd is taken before the one reduction


@pytest.mark.parametrize("misuse", [
    lambda x: x + 0.5, lambda x: 0.5 + x, lambda x: x - Fraction(1, 2), lambda x: Fraction(1, 2) * x,
    lambda x: x * np.float64(2), lambda x: x / 2.0, lambda x: 2.0 / x, lambda x: x - "1",
    lambda x: 1.5 - x, lambda x: x + True,
    lambda x: x < 1, lambda x: x >= x, lambda x: x == 1, lambda x: x != x, lambda x: bool(x),
    lambda x: 1 if x else 0, lambda x: hash(x),
    lambda x: x ** -1, lambda x: x ** Fraction(1), lambda x: x ** 0.5, lambda x: 2 ** x,
    lambda x: float(x), lambda x: +x,
])
def test_exactly_refuses_what_a_ratio_is_not(misuse):
    with pytest.raises(TypeError):
        invariant_forms._exactly(misuse, Fraction(3, 7))


@pytest.mark.parametrize("division", [
    lambda x, z: x / z, lambda x, z: 1 / z, lambda x, z: x / 0, lambda x, z: x / (x - x),
])
def test_exactly_divides_by_zero_as_fraction_does(division):
    with pytest.raises(ZeroDivisionError):
        division(Fraction(3, 7), Fraction(0))
    with pytest.raises(ZeroDivisionError):
        invariant_forms._exactly(division, Fraction(3, 7), Fraction(0))


def test_form_sums_repeated_keys_and_drops_zeros():
    f = form([("e1", 1), ("w1", Fraction(1, 2)), ("e1", -1), ("w1", Fraction(1, 3)), ("e2", 0), ("w2", 3)])
    assert f.coeffs == {Monomial.from_key("w1"): Fraction(5, 6), Monomial.from_key("w2"): Fraction(3)}
    assert all(type(c) is Fraction for c in f.coeffs.values())
    assert f == InvariantForm({Monomial.from_key("w1"): Fraction(5, 6), Monomial.from_key("w2"): 3})
    assert form([("e1", 2), ("e1", -2)]).is_zero()
    with pytest.raises(TypeError, match="exact coefficient required"):
        form([("e1", 1), ("e1", 0.5)])


def test_dstar_on_4forms_refuses_a_3_form():
    from coflow.invariant_forms import dstar_on_4forms

    with pytest.raises(ValueError, match="expects a degree-4 form"):
        dstar_on_4forms(wedge(E1, W1), params(1, 1, 1, +1))


# ------------------------------------------------------ reduced integer pairs
# A form holds each coefficient as its reduced pair (numerator, positive
# denominator).  A rational has one such pair, so comparing two pair maps is
# comparing the Fraction maps, and a Fraction is made only where the public
# contract returns one: `coeffs`, `coefficient`, `inner_product`, ...

fraction_maps = st.dictionaries(monomial_indices, st.one_of(rationals, st.integers(-9, 9)), max_size=6).map(
    lambda d: {BASIS[i]: c for i, c in d.items()}
)


def _fraction_map_sum(x, y, sign):
    # oracle: x + sign * y on plain maps of ints and Fractions, zeros dropped
    out = {m: Fraction(c) for m, c in x.items() if c}
    for m, c in y.items():
        s = out.get(m, 0) + sign * Fraction(c)
        if s:
            out[m] = s
        else:
            out.pop(m, None)
    return out


@settings(max_examples=300, deadline=None)
@given(x=fraction_maps, y=fraction_maps, s=st.one_of(rationals, st.integers(-9, 9)), same=st.booleans())
def test_pair_storage_agrees_with_fraction_maps(x, y, s, same):
    if same:  # y equals x in value, each whole coefficient given as an int or a Fraction
        y = {m: int(c) if Fraction(c).denominator == 1 and c % 2 else Fraction(c) for m, c in x.items()}
    f, g = InvariantForm(x), InvariantForm(y)
    fx, gy = _fraction_map_sum({}, x, 1), _fraction_map_sum({}, y, 1)
    assert f.coeffs == fx and all(type(c) is Fraction for c in f.coeffs.values())
    assert InvariantForm(f.coeffs) == f
    assert (f == g) == (fx == gy) and (f != g) == (fx != gy)
    assert (f + g).coeffs == _fraction_map_sum(x, y, 1)
    assert (f - g).coeffs == _fraction_map_sum(x, y, -1)
    assert (-f).coeffs == _fraction_map_sum({}, x, -1)
    scaled = {m: s * c for m, c in fx.items() if s * c}
    assert (s * f).coeffs == scaled and (f * s).coeffs == scaled
    assert f.to_json_dict() == {m.key: str(c) for m, c in sorted(fx.items(), key=lambda t: (t[0].degree, t[0].key))}
    view = f.coeffs
    view.clear()
    view[TOP] = Fraction(12345)
    assert f.coeffs == fx and f == InvariantForm(x)


def test_every_pair_is_reduced_with_a_positive_denominator():
    forms = _arithmetic_forms()
    forms += [wedge(f, g) for f in forms[:12] for g in forms[:12]]
    forms += [hodge_star(f, p) for f in forms if f.degrees() == {3} or f.degrees() == {4}
              for p in (P_PLUS, P_ODD)]
    forms += [exterior_derivative(f) for f in forms] + [Fraction(-6, 4) * f for f in forms]
    forms += [build(P_ODD).phi, build(P_ODD).psi]
    assert any(len(f._terms) > 1 for f in forms)
    for f in forms:
        for n, d in f._terms.values():
            assert type(n) is int and type(d) is int
            assert n != 0 and d > 0 and math.gcd(n, d) == 1


def _fractions_built(monkeypatch, call):
    """call() and the number of Fractions constructed while it runs."""
    built = 0
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        nonlocal built
        built += 1
        return new(cls, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(Fraction, "__new__", counted)
        out = call()
    return out, built


def test_the_kernels_and_the_form_arithmetic_construct_no_fraction(monkeypatch):
    ans = build(P_ODD)
    phi, psi = ans.phi, ans.psi
    f = form([("e1", Fraction(3, 7)), ("e12", -2), ("w1", 5)])
    g = form([("e1", Fraction(-3, 7)), ("w2", 1), ("e23", 3)])
    s, t = Fraction(-7, 3), Fraction(2, 9)
    calls = [
        lambda: wedge(phi, psi), lambda: wedge(f, g), lambda: wedge(E1, InvariantForm.zero()),
        lambda: exterior_derivative(phi), lambda: exterior_derivative(f),
        lambda: hodge_star(phi, P_ODD), lambda: hodge_star(psi, P_PLUS),
        lambda: f + g, lambda: f - g, lambda: f - f, lambda: phi + psi, lambda: -f,
        lambda: 3 * f, lambda: f * 3, lambda: s * phi, lambda: phi * t,
        lambda: 0 * f,
    ]
    for call in calls:
        want = call()
        got, built = _fractions_built(monkeypatch, call)
        assert built == 0 and got == want


def test_inner_product_constructs_one_fraction(monkeypatch):
    ans = build(P_ODD)
    for alpha, beta in ((ans.phi, ans.phi), (ans.psi, ans.psi), (ans.phi, InvariantForm.zero()),
                        (wedge(E1, ans.phi), ans.psi)):
        want = inner_product(alpha, beta, P_ODD)
        got, built = _fractions_built(monkeypatch, lambda: inner_product(alpha, beta, P_ODD))
        assert built == 1 and got == want and type(got) is Fraction


def test_algebra_checks_construct_one_fraction_per_diagonal_pairing_and_the_top(monkeypatch):
    # the 40 diagonal pairings call inner_product, and the top coefficient
    # eps a^2 b q^2 is one more; the once-per-process checks are run first
    _structure_checks()
    for p in (P_PLUS, P_MINUS, P_ODD):
        want = algebra_checks(p)
        got, built = _fractions_built(monkeypatch, lambda: algebra_checks(p))
        assert built == 41 and got == want and all(ok for _, ok in got)
