"""Co-closed G2-structures built from the invariant ansatz.

For scales (a, b, q, eps) the ansatz 3-form is

    phi = eps a^2 b e123 - a q (e1^w1 + e2^w2) - eps b q e3^w3

and psi = star(phi) is closed for every admissible parameter choice, so each
point of the family is a co-closed G2-structure.  On such structures the
torsion reduces to a scalar part tau0 and a pure 27-type part tau3 with

    dphi = tau0 psi + star(tau3),

and the Hodge Laplacian of psi is d(star(dphi)).  An ansatz derives its
dphi once, on first use, and tau0, torsion and laplacian_psi all read that
one copy.  Everything here is exact rational arithmetic; there are no
tolerances in this module.  Each of phi's four coefficients, and each
coefficient of an ansatz_4form, is one Fraction, built from the integer
ratios of (a, b, q) or from the given values; no chain of Fraction
products is formed.

The Laplacian's closed form has one hand-coded copy, `_laplacian_rates`,
which gives its coefficients on the monomials (q^2, a b q, a^2 q) of psi.
laplacian_closed_form maps them to a 4-form, so identity_suite checks that
copy against d(star(dphi)); coflow_dynamics builds the normalized co-flow's
rates and the reduced (X, Y) flow from the same closure.  The copy lives
here because coflow_dynamics imports this module, not the other way round.
laplacian_closed_form, dphi_closed_form and identity_suite's tau0 and
|tau3|^2 quotients evaluate their closed forms through
`invariant_forms._exactly`, over unreduced integer ratios reduced once.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass
from fractions import Fraction
from operator import truediv
from typing import Callable

from .invariant_forms import (
    E1,
    E2,
    E3,
    UNIT,
    GeometryParams,
    InvariantForm,
    Monomial,
    _as_scalar,
    _exactly,
    dstar_on_4forms,
    exterior_derivative,
    hodge_star,
    inner_product,
    total_integral,
    volume_form,
    wedge,
)


@dataclass(frozen=True)
class G2Ansatz:
    params: GeometryParams
    phi: InvariantForm
    psi: InvariantForm

    @functools.cached_property
    def dphi(self) -> InvariantForm:
        """d(phi), derived on first use and kept; a build that never reads it pays nothing."""
        return exterior_derivative(self.phi)


@dataclass(frozen=True)
class TorsionData:
    tau0: Fraction
    tau3: InvariantForm
    tau3_norm_sq: Fraction


# the monomials of phi and of psi, looked up once
_E123, _E1W1, _E2W2, _E3W3 = (Monomial.from_key(k) for k in ("e123", "e1^w1", "e2^w2", "e3^w3"))
_VOL, _E23W1, _E13W2, _E12W3 = (Monomial.from_key(k) for k in ("vol", "e23^w1", "e13^w2", "e12^w3"))


def _assemble(p: GeometryParams) -> G2Ansatz:
    """phi and psi = star(phi), with no check of psi's co-closure.

    Each of phi's coefficients is one Fraction of the integer ratios of
    (a, b, q); e1^w1 and e2^w2 share the one -a q.
    """
    an, ad, bn, bd, qn, qd = p._ratios
    eps = p.eps
    aq = Fraction(-an * qn, ad * qd)
    phi = InvariantForm._of({
        _E123: Fraction(eps * an * an * bn, ad * ad * bd),
        _E1W1: aq,
        _E2W2: aq,
        _E3W3: Fraction(-eps * bn * qn, bd * qd),
    })
    return G2Ansatz(params=p, phi=phi, psi=hodge_star(phi, p))


def build(params: GeometryParams) -> G2Ansatz:
    """Assemble the ansatz 3-form and its dual 4-form.

    The dual is computed as star(phi), never written out by hand, and its
    co-closure is re-checked on every build.
    """
    ans = _assemble(params)
    if not exterior_derivative(ans.psi).is_zero():
        raise AssertionError("dual 4-form is not closed; geometry data is inconsistent")
    return ans


def tau0_terms(a, b, q, eps) -> tuple:
    """Numerator and denominator of the closed-form scalar torsion, tau0 = n / d.

    Here tau0 = 4 (4a(a^2+q) + eps b(2a^2-q)) / (7 a^2 q).  The pair is a
    plain arithmetic expression, so it serves exact and float scalars alike;
    on Python ints it is exact.  With q given weight 2, tau0 is homogeneous
    of degree -1.
    """
    return 4 * (4 * a * (a * a + q) + eps * b * (2 * a * a - q)), 7 * a * a * q


def tau3_norm_sq_terms(a, b, q, eps) -> tuple:
    """Numerator and denominator of the closed-form |tau3|^2 = n / d.

    dphi = tau0 psi + star(tau3) with the two parts orthogonal and
    |psi|^2 = 7, so |tau3|^2 = |dphi|^2 - 7 tau0^2; written out from
    dphi_closed_form and the metric weights this is the quotient below,
    homogeneous of degree -2 when q has weight 2.  identity_suite compares
    it with the algebra route.
    """
    num = 8 * (38 * a ** 6 + 24 * eps * a ** 5 * b + 13 * a ** 4 * b ** 2 - 36 * a ** 4 * q
               + 12 * eps * a ** 3 * b * q - 6 * a ** 2 * b ** 2 * q + 10 * a ** 2 * q ** 2
               - 12 * eps * a * b * q ** 2 + 5 * b ** 2 * q ** 2)
    return num, 7 * a ** 4 * q ** 2


def tau0(ans: G2Ansatz) -> Fraction:
    """Scalar torsion, evaluated as (1/7) star(dphi ^ phi).

    The one algebra route.  identity_suite's `tau0-closed-form` check
    compares it with the closed form `tau0_terms` and with <dphi, psi>/7, so
    a disagreement is reported as a failed check instead of raised here.
    """
    return Fraction(1, 7) * hodge_star(wedge(ans.dphi, ans.phi), ans.params).coefficient(UNIT)


def torsion(ans: G2Ansatz) -> TorsionData:
    """Split dphi = tau0 psi + star(tau3) and report |tau3|^2.

    Since star is an involution here, tau3 = star(dphi) - tau0 phi.
    """
    t0 = tau0(ans)
    t3 = hodge_star(ans.dphi, ans.params) - t0 * ans.phi
    return TorsionData(tau0=t0, tau3=t3, tau3_norm_sq=inner_product(t3, t3, ans.params))


def _dtau3_lemma(ans: G2Ansatz, td: TorsionData) -> bool:
    """The pure-scalar part of d(tau3) is (1/7)|tau3|^2 psi: <d(tau3), psi> = |tau3|^2."""
    return inner_product(exterior_derivative(td.tau3), ans.psi, ans.params) == td.tau3_norm_sq


def laplacian_psi(ans: G2Ansatz) -> InvariantForm:
    """Hodge Laplacian of the dual 4-form; on co-closed structures d(star(dphi))."""
    return dstar_on_4forms(ans.dphi, ans.params)


def type_project_4form(rho: InvariantForm, ans: G2Ansatz) -> tuple[InvariantForm, InvariantForm, InvariantForm]:
    """Orthogonal splitting of a 4-form into its 1, 7 and 27 type components.

    The scalar part is the projection onto psi; the 7-part is the projection
    onto span{e_i ^ phi}, which exhausts the invariant 7-type subspace.  The
    three generators have pairwise disjoint monomial supports at every
    point, {e12^w2, e13^w3}, {e12^w1, e23^w3} and {e13^w1, e23^w2}, so they
    are mutually orthogonal and the 7-part is the sum of their three
    one-dimensional projections, with no Gram solve.  The 27-part is
    certified independently by its wedge conditions, so no correctness
    burden rests on the span assumption; a certificate failure is surfaced
    as a warning instead of being trusted silently.
    """
    if not rho.is_zero() and rho.degree() != 4:
        raise ValueError("type projection expects a degree-4 form")
    p = ans.params
    pi1 = (inner_product(rho, ans.psi, p) / 7) * ans.psi
    pi7 = InvariantForm.zero()
    for e in (E1, E2, E3):
        b = wedge(e, ans.phi)
        pi7 = pi7 + (inner_product(rho, b, p) / inner_product(b, b, p)) * b
    pi27 = rho - pi1 - pi7
    star27 = hodge_star(pi27, p)
    if not (wedge(star27, ans.phi).is_zero() and wedge(star27, ans.psi).is_zero()):
        warnings.warn("27-type residual failed its wedge certificate", RuntimeWarning)
    return pi1, pi7, pi27


def curl_invariant(x: InvariantForm, ans: G2Ansatz) -> InvariantForm:
    """First-order operator X -> star(dX ^ psi) on invariant 1-forms."""
    if not x.is_zero() and x.degree() != 1:
        raise ValueError("curl expects a 1-form")
    return hodge_star(wedge(exterior_derivative(x), ans.psi), ans.params)


def ansatz_4form(u, eps) -> InvariantForm:
    """The invariant 4-form u1 vol - eps u2 (e23^w1 - e13^w2) - u3 e12^w3.

    psi is the image of its monomials (q^2, a b q, a^2 q), so the map also
    carries their rates and variations to 4-forms.  Each u must be an int
    or a Fraction and eps is +1 or -1; a zero u leaves its monomials out.
    """
    u1, u2, u3 = (_as_scalar(x) for x in u)
    out: dict = {}
    if u1:
        out[_VOL] = u1
    if u2:
        out[_E23W1], out[_E13W2] = (-u2, u2) if eps == 1 else (u2, -u2)
    if u3:
        out[_E12W3] = -u3
    return InvariantForm._of(out)


def dphi_closed_form(p: GeometryParams) -> InvariantForm:
    """Hand-coded closed form of dphi, kept separate from the algebra route."""
    eps = p.eps

    def coefficients(a, b, q):
        return (8 * a * q + 4 * eps * b * q,
                2 * a * a * b + 2 * b * q,
                2 * eps * a * a * b + 4 * a * q - 2 * eps * b * q)
    return ansatz_4form(_exactly(coefficients, p.a, p.b, p.q), eps)


def _laplacian_rates(eps, kk, one=1) -> Callable:
    """rates(a, b, q): coefficients of Lap(psi) - kk psi on the monomials (q^2, a b q, a^2 q).

    This is the one hand-coded copy of the Laplacian's closed form.  The
    normalized co-flow's rates are this closure with kk = kappa^2, and
    laplacian_closed_form and the reduced (X, Y) flow use it with kk = 0.
    The prefixes 2 eps and 4 eps are multiplied out once; Python evaluates
    `eps2 * b * q / a` left to right, so the rates are the same to the bit
    as with the prefixes written inline.  Each subexpression that repeats
    is computed once and named, and only where it is the same expression
    tree as in the inline text parsed left to right (`2 * a * a * b * b / q`
    reuses `2 * a * a`, while `eps2 * a * a * b * b / q` shares nothing), so
    nothing is re-associated and the rates stay the same to the bit in
    every scalar type.  The expressions are dtype-generic.

    Every constant, kk included, is held as that value times `one`: with
    the default int 1 the constants stay ints (and exact inputs see ints),
    while a run passes one of its own scalar type (float 1.0 or
    numpy.longdouble 1), so no operation mixes an int with the run's
    scalars.  The bits do not move: each constant is an int or an already
    rounded value, which the conversion holds exactly, and IEEE `*` and `/`
    round the same exact result whichever operand was converted.
    """
    two, four, eight = 2 * one, 4 * one, 8 * one
    e, eps2, eps4, kk = eps * one, 2 * eps * one, 4 * eps * one, kk * one

    def rates(a, b, q):
        aa = a * a
        bb = b * b
        a3 = a ** 3
        two_aa = two * a * a
        two_q = two * q
        ebb = e * b * b
        e2bq_a = eps2 * b * q / a
        bbq_aa = bb * q / aa
        u1 = eight * (two_aa + bb + two_q + e2bq_a - bbq_aa) - kk * q * q
        u2 = four * (ebb + four * a3 * b / q + eps2 * a * a * b * b / q
                     + two * b * q / a - ebb * q / aa) - kk * a * b * q
        u3 = four * (two_aa - bb + two_q + eps4 * a3 * b / q + two_aa * b * b / q
                     - e2bq_a + bbq_aa) - kk * a * a * q
        return (u1, u2, u3)
    return rates


def laplacian_closed_form(p: GeometryParams) -> InvariantForm:
    """Hand-coded closed form of the Laplacian of psi, for cross-checking."""
    return ansatz_4form(_exactly(_laplacian_rates(p.eps, 0), p.a, p.b, p.q), p.eps)


def identity_suite(params: GeometryParams) -> list[tuple[str, bool]]:
    """Named exact identity checks at one parameter point.

    Every entry compares two independent computations of the same object
    (closed form vs algebra, or both sides of a structural identity) in
    exact rational arithmetic.  Returns (check id, passed) pairs.  The
    ansatz is assembled without build's assertion, so a dual 4-form that is
    not closed reports `dual-coclosed` as failed instead of raising.
    """
    p = params
    ans = _assemble(p)
    td = torsion(ans)
    checks: list[tuple[str, bool]] = []

    def quotient(terms) -> Fraction:
        """terms(a, b, q, eps) = (n, d) at p, as the one Fraction n / d."""
        return _exactly(lambda a, b, q: truediv(*terms(a, b, q, p.eps)), p.a, p.b, p.q)

    checks.append(("dual-coclosed", exterior_derivative(ans.psi).is_zero()))
    checks.append(("star-duality", hodge_star(ans.psi, p) == ans.phi))
    phi_psi = wedge(ans.phi, ans.psi)
    checks.append(("normalization-constants",
                   phi_psi == 7 * volume_form(p)
                   and inner_product(ans.phi, ans.phi, p) == 7
                   and inner_product(ans.psi, ans.psi, p) == 7))
    checks.append(("dphi-coefficients", ans.dphi == dphi_closed_form(p)))
    checks.append(("tau0-closed-form",
                   td.tau0 == quotient(tau0_terms)
                   and td.tau0 == inner_product(ans.dphi, ans.psi, p) / 7))
    checks.append(("torsion-split",
                   ans.dphi == td.tau0 * ans.psi + hodge_star(td.tau3, p)
                   and wedge(td.tau3, ans.phi).is_zero()
                   and wedge(td.tau3, ans.psi).is_zero()
                   and td.tau3_norm_sq == quotient(tau3_norm_sq_terms)))
    checks.append(("laplacian-coefficients", laplacian_psi(ans) == laplacian_closed_form(p)))
    checks.append(("dtau3-projection", _dtau3_lemma(ans, td)))
    checks.append(("volume-pairing",
                   p.eps * total_integral(phi_psi, p)
                   == 7 * p.a * p.a * p.b * p.q * p.q))
    return checks
