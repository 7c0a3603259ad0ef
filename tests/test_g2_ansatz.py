import random
from fractions import Fraction

import pytest

from coflow.g2_ansatz import (
    _dtau3_lemma,
    ansatz_4form,
    build,
    curl_invariant,
    dphi_closed_form,
    identity_suite,
    laplacian_closed_form,
    laplacian_psi,
    tau0,
    tau0_terms,
    tau3_norm_sq_terms,
    torsion,
    type_project_4form,
)
from coflow.invariant_forms import (
    E1,
    E2,
    E3,
    GeometryParams,
    InvariantForm,
    exterior_derivative,
    form,
    hodge_star,
    inner_product,
    random_params,
    volume_form,
    wedge,
)
from coflow.stability import PSI_MINUS, PSI_PLUS


def params(a, b, q, eps):
    return GeometryParams(a=Fraction(a), b=Fraction(b), q=Fraction(q), eps=eps)


# nearly parallel points: tau0 = 12/5 for the plus family, 4 for the minus
NG2_PLUS = params(1, 1, 5, +1)
NG2_MINUS = params(1, 1, 1, -1)


def random_points(n, seed=987):
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        for eps in (+1, -1):
            out.append(random_params(rng, eps))
    return out


def test_dual_four_form_printed_coefficients():
    for p in random_points(5):
        psi = build(p).psi
        expected = form([
            ("vol", p.q * p.q),
            ("e23^w1", -p.eps * p.a * p.b * p.q),
            ("e13^w2", p.eps * p.a * p.b * p.q),
            ("e12^w3", -p.a * p.a * p.q),
        ])
        assert psi == expected


def test_normalization_constants():
    for p in random_points(5):
        ans = build(p)
        assert inner_product(ans.phi, ans.phi, p) == 7
        assert inner_product(ans.psi, ans.psi, p) == 7
        assert wedge(ans.phi, ans.psi) == 7 * volume_form(p)


def test_dual_is_coclosed_and_star_dual():
    for p in random_points(5):
        ans = build(p)
        assert exterior_derivative(ans.psi).is_zero()
        assert hodge_star(ans.psi, p) == ans.phi


def test_tau0_values():
    assert tau0(build(NG2_PLUS)) == Fraction(12, 5)
    assert tau0(build(NG2_MINUS)) == 4
    # minus family point for kappa = 3: a = b = 4/kappa, q = a^2
    kap = Fraction(3)
    p = params(4 / kap, 4 / kap, 16 / kap ** 2, -1)
    assert tau0(build(p)) == kap


def test_dphi_closed_form_matches_algebra():
    for p in random_points(8):
        assert exterior_derivative(build(p).phi) == dphi_closed_form(p)


def test_laplacian_closed_form_matches_algebra():
    for p in random_points(8):
        assert laplacian_psi(build(p)) == laplacian_closed_form(p)


def test_torsion_split_and_certificates():
    for p in random_points(6):
        ans = build(p)
        td = torsion(ans)
        dphi = exterior_derivative(ans.phi)
        assert dphi == td.tau0 * ans.psi + hodge_star(td.tau3, p)
        # 27-type certificates for the 3-form component
        assert wedge(td.tau3, ans.phi).is_zero()
        assert wedge(td.tau3, ans.psi).is_zero()
        assert td.tau3_norm_sq == inner_product(td.tau3, td.tau3, p)
        assert td.tau3_norm_sq >= 0


def test_torsion_vanishes_exactly_at_nearly_parallel_points():
    for p, t0 in ((NG2_PLUS, Fraction(12, 5)), (NG2_MINUS, Fraction(4))):
        td = torsion(build(p))
        assert td.tau0 == t0
        assert td.tau3.is_zero()
        assert td.tau3_norm_sq == 0


def test_nearly_parallel_certificate_fails_off_the_critical_set():
    # dphi - tau0 psi must be nonzero at generic parameters
    hits = 0
    for p in random_points(50, seed=333):
        ans = build(p)
        if (exterior_derivative(ans.phi) - tau0(ans) * ans.psi).is_zero():
            hits += 1
    assert hits == 0


def test_dtau3_lemma():
    for p in random_points(6):
        ans = build(p)
        assert _dtau3_lemma(ans, torsion(ans))


def test_type_projection_completeness_and_orthogonality():
    rng = random.Random(44)
    keys = ("vol", "e23^w1", "e13^w2", "e12^w3", "e12^w1", "e13^w3", "e23^w2")
    for p in random_points(3, seed=55):
        ans = build(p)
        rho = form([(k, Fraction(rng.randint(-9, 9))) for k in keys])
        pi1, pi7, pi27 = type_project_4form(rho, ans)
        assert pi1 + pi7 + pi27 == rho
        assert inner_product(pi1, pi7, p) == 0
        assert inner_product(pi1, pi27, p) == 0
        assert inner_product(pi7, pi27, p) == 0
        star27 = hodge_star(pi27, p)
        assert wedge(star27, ans.phi).is_zero()
        assert wedge(star27, ans.psi).is_zero()


def test_type_projection_reproduces_pure_types():
    p = NG2_PLUS
    ans = build(p)
    pi1, pi7, pi27 = type_project_4form(ans.psi, ans)
    assert (pi1, pi7, pi27) == (ans.psi, InvariantForm.zero(), InvariantForm.zero())

    seven = wedge(E1, ans.phi)
    pi1, pi7, pi27 = type_project_4form(seven, ans)
    assert (pi1, pi7, pi27) == (InvariantForm.zero(), seven, InvariantForm.zero())

    pi1, pi7, pi27 = type_project_4form(PSI_PLUS, ans)
    assert (pi1, pi7, pi27) == (InvariantForm.zero(), InvariantForm.zero(), PSI_PLUS)

    ans_minus = build(NG2_MINUS)
    pi1, pi7, pi27 = type_project_4form(PSI_MINUS, ans_minus)
    assert (pi1, pi7, pi27) == (InvariantForm.zero(), InvariantForm.zero(), PSI_MINUS)


def test_type_projection_rejects_wrong_degree():
    ans = build(NG2_MINUS)
    with pytest.raises(ValueError):
        type_project_4form(ans.phi, ans)


def test_the_seven_type_generators_have_disjoint_supports():
    # type_project_4form's three one-dimensional projections rest on this:
    # e1^phi, e2^phi and e3^phi are pairwise orthogonal because no monomial
    # carries two of them, at every point of either orientation
    supports = [{"e12^w2", "e13^w3"}, {"e12^w1", "e23^w3"}, {"e13^w1", "e23^w2"}]
    for p in random_points(6, seed=2001):
        ans = build(p)
        generators = [wedge(e, ans.phi) for e in (E1, E2, E3)]
        assert [{m.key for m in b.coeffs} for b in generators] == supports
        for i, b in enumerate(generators):
            assert inner_product(b, b, p) > 0
            assert all(inner_product(b, other, p) == 0 for other in generators[i + 1:])


def _seven_part_by_gram_solve(rho, ans):
    """The 7-part as the Gram projection onto span{e_i ^ phi}, by Cramer's rule: the oracle."""
    def det3(m):
        return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
                - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
                + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))

    p = ans.params
    basis = [wedge(e, ans.phi) for e in (E1, E2, E3)]
    gram = [[inner_product(bi, bj, p) for bj in basis] for bi in basis]
    rhs = [inner_product(rho, bi, p) for bi in basis]
    pi7 = InvariantForm.zero()
    for col in range(3):
        numer = [[rhs[i] if j == col else gram[i][j] for j in range(3)] for i in range(3)]
        pi7 = pi7 + (det3(numer) / det3(gram)) * basis[col]
    return pi7


def test_the_seven_part_is_the_gram_projection():
    rng = random.Random(2002)
    keys = ("vol", "e23^w1", "e13^w2", "e12^w3", "e12^w1", "e13^w3", "e23^w2", "e12^w2",
            "e13^w1", "e23^w3")
    for p in random_points(100, seed=2003):
        ans = build(p)
        rho = form([(k, Fraction(rng.randint(-50, 50), rng.randint(1, 30))) for k in keys])
        pi1, pi7, pi27 = type_project_4form(rho, ans)
        assert pi7 == _seven_part_by_gram_solve(rho, ans)
        assert pi1 + pi7 + pi27 == rho


def test_curl_spectrum_at_the_round_minus_point():
    ans = build(NG2_MINUS)
    assert tau0(ans) == 4
    values = []
    for e in (E1, E2, E3):
        image = curl_invariant(e, ans)
        # each coframe leg is an eigenvector at this point
        ratio = None
        for m, c in image.coeffs.items():
            assert e.coeffs.get(m) is not None
            ratio = c / e.coeffs[m]
        values.append(ratio)
    assert sorted(values) == [-2, 6, 6]


def test_curl_rejects_wrong_degree():
    ans = build(NG2_MINUS)
    with pytest.raises(ValueError):
        curl_invariant(wedge(E1, E2), ans)


def test_identity_suite_all_pass():
    for p in random_points(3, seed=77):
        results = identity_suite(p)
        ids = [name for name, _ in results]
        assert len(ids) == len(set(ids))
        assert all(ok for _, ok in results)


def test_identity_suite_derives_dphi_once(monkeypatch):
    from coflow import g2_ansatz

    p = random_points(1, seed=78)[0]
    ans = build(p)
    calls = []
    derive = g2_ansatz.exterior_derivative
    monkeypatch.setattr(g2_ansatz, "exterior_derivative",
                        lambda alpha: calls.append(alpha) or derive(alpha))
    assert all(ok for _, ok in identity_suite(p))
    assert sum(alpha == ans.phi for alpha in calls) == 1
    # d(psi) too: the dual-coclosed check is the only one, build's assertion is not run
    assert sum(alpha == ans.psi for alpha in calls) == 1


def test_an_ansatz_derives_dphi_once(monkeypatch):
    from coflow import g2_ansatz

    ans = build(random_points(1, seed=79)[0])
    calls = []
    derive = g2_ansatz.exterior_derivative
    monkeypatch.setattr(g2_ansatz, "exterior_derivative",
                        lambda alpha: calls.append(alpha) or derive(alpha))
    tau0(ans)
    torsion(ans)
    laplacian_psi(ans)
    assert _dtau3_lemma(ans, torsion(ans))
    assert sum(alpha == ans.phi for alpha in calls) == 1


def test_ansatz_dphi_is_the_closed_form():
    rng = random.Random(406)
    for eps in (+1, -1):
        for _ in range(5):
            p = random_params(rng, eps)
            assert build(p).dphi == dphi_closed_form(p)


def test_tau3_norm_closed_form_matches_algebra():
    # small rationals and Fraction(float) points with ~2^50 denominators, both orientations
    rng = random.Random(404)
    for eps in (+1, -1):
        points = [random_params(rng, eps) for _ in range(10)]
        for _ in range(10):
            a, b, c = (Fraction(rng.uniform(0.05, 20.0)) for _ in range(3))
            points.append(GeometryParams(a, b, c * c, eps))
        for p in points:
            td = torsion(build(p))
            assert td.tau3_norm_sq == Fraction(*tau3_norm_sq_terms(p.a, p.b, p.q, eps))
            assert td.tau0 == Fraction(*tau0_terms(p.a, p.b, p.q, eps))


def test_closed_forms_are_homogeneous():
    # tau0 has degree -1 and |tau3|^2 degree -2 in (a, b, c), which the integer
    # evaluation of the volume rate relies on
    rng = random.Random(405)
    for eps in (+1, -1):
        for _ in range(10):
            a, b, q, s = (Fraction(rng.randint(1, 97), rng.randint(1, 97)) for _ in range(4))
            assert (Fraction(*tau0_terms(s * a, s * b, s * s * q, eps))
                    == Fraction(*tau0_terms(a, b, q, eps)) / s)
            assert (Fraction(*tau3_norm_sq_terms(s * a, s * b, s * s * q, eps))
                    == Fraction(*tau3_norm_sq_terms(a, b, q, eps)) / (s * s))


def test_psi_is_the_ansatz_image_of_its_monomials():
    for p in random_points(5):
        assert build(p).psi == ansatz_4form((p.q * p.q, p.a * p.b * p.q, p.a * p.a * p.q), p.eps)


def test_ansatz_4form_is_not_exported():
    import coflow

    assert "ansatz_4form" not in coflow.__all__


@pytest.mark.parametrize("module, name", [("g2_ansatz", "verify_dtau3_lemma"),
                                          ("invariant_forms", "monomial_weight")])
def test_second_routes_to_a_result_are_not_exported(module, name):
    # _dtau3_lemma(ans, torsion(ans)) and inner_product of a one-term form with itself stay
    import importlib

    import coflow

    assert name not in coflow.__all__
    assert not hasattr(coflow, name)
    assert not hasattr(importlib.import_module(f"coflow.{module}"), name)


@pytest.mark.parametrize("eps", [1.0, Fraction(1), -1.0, Fraction(-1)], ids=repr)
def test_identity_suite_reads_a_float_or_fraction_eps_as_the_int(eps):
    # a float eps was accepted, and then build and identity_suite raised TypeError
    scales = (Fraction(3, 7), Fraction(5, 2), Fraction(11, 3))
    p, want = GeometryParams(*scales, eps), GeometryParams(*scales, int(eps))
    assert type(p.eps) is int and p == want
    assert build(p) == build(want)
    results = identity_suite(p)
    assert results == identity_suite(want)
    assert all(ok for _, ok in results)


def exact_and_float_points(seed):
    """Seeded small-rational points and their Fraction(float) roundings (~2^50 denominators)."""
    out = []
    for p in random_points(4, seed):
        out.append(p)
        out.append(GeometryParams(*(Fraction(float(x)) for x in (p.a, p.b, p.q)), p.eps))
    return out


def test_routed_closed_forms_are_their_direct_fraction_evaluation(monkeypatch):
    # identity_suite evaluates the Laplacian's and dphi's closed forms and the
    # tau0 and |tau3|^2 quotients through _exactly; each must be the Fraction
    # evaluation of the same closure, and every value it hands out a Fraction
    from coflow import g2_ansatz

    exactly = g2_ansatz._exactly
    pairs = []

    def routed_and_direct(fn, *args):
        routed = exactly(fn, *args)
        pairs.append((routed, fn(*args)))
        return routed

    monkeypatch.setattr(g2_ansatz, "_exactly", routed_and_direct)
    points = exact_and_float_points(411)
    for p in points:
        assert all(ok for _, ok in identity_suite(p))
    assert len(pairs) == 4 * len(points)
    for routed, direct in pairs:
        assert routed == direct
        values = routed if isinstance(routed, tuple) else (routed,)
        assert values and all(type(v) is Fraction for v in values)


def test_dtau3_lemma_compares_the_scalar_parts():
    import dataclasses

    from coflow.g2_ansatz import _dtau3_lemma

    for p in random_points(3):
        ans = build(p)
        td = torsion(ans)
        scalar = inner_product(exterior_derivative(td.tau3), ans.psi, p)
        assert (scalar / 7) * ans.psi == (td.tau3_norm_sq / 7) * ans.psi
        assert _dtau3_lemma(ans, td)
        off = dataclasses.replace(td, tau3_norm_sq=td.tau3_norm_sq + Fraction(1, 10 ** 20))
        assert not _dtau3_lemma(ans, off)


def _form_spelled_4form(u, eps):
    # the form() spelling that ansatz_4form builds directly
    u1, u2, u3 = u
    return form([("vol", u1), ("e23^w1", -eps * u2), ("e13^w2", eps * u2), ("e12^w3", -u3)])


def test_ansatz_4form_equals_its_form_spelling():
    rng = random.Random(412)
    values = [0, 1, -3, Fraction(0), Fraction(5, 7), Fraction(-2, 9), Fraction(0.1), Fraction(-1e-7)]
    for eps in (+1, -1):
        for _ in range(60):
            u = tuple(rng.choice(values) for _ in range(3))
            built = ansatz_4form(u, eps)
            assert built == _form_spelled_4form(u, eps)
            assert all(c and type(c) is Fraction for c in built.coeffs.values())
        assert ansatz_4form((0, 0, 0), eps).is_zero()
        assert set(ansatz_4form((0, 1, 0), eps).coeffs) == set(form([("e23^w1", 1), ("e13^w2", 1)]).coeffs)
        for bad in ((0.5, 1, 1), (1, 0.0, 1), (1, 1, 1.0)):
            with pytest.raises(TypeError):
                ansatz_4form(bad, eps)


def test_assembled_phi_equals_its_form_spelling():
    from coflow.g2_ansatz import _assemble

    for p in exact_and_float_points(413):
        phi = _assemble(p).phi
        assert phi == form([
            ("e123", p.eps * p.a * p.a * p.b),
            ("e1^w1", -p.a * p.q),
            ("e2^w2", -p.a * p.q),
            ("e3^w3", -p.eps * p.b * p.q),
        ])
        assert all(type(c) is Fraction for c in phi.coeffs.values())
