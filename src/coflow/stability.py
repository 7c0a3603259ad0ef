"""Critical points of the flows and their spectral classification.

This module finds the nearly parallel equilibria of both flows: scalar
torsion tau0 equal to kappa, and for the modified flavor also the points
with tau0 equal to (gamma - 1) kappa.  They are not the only equilibria of
the modified flow: at eps = +1, kappa = 4 and gamma = 8/3 its rates vanish
exactly at (a, b, q) = (3/5, 3/5, 9/25), where tau0 = 60/7.  At the nearly
parallel points the module reads the linearization in the scaled
perturbation coordinates (A, B, C) from exact tables: the family's one
eigenbasis (`_EIGENBASIS`, the same three vectors at every nearly parallel
point) and each point's eigenvalues, kappa^2 times a polynomial in gamma
(`_SPECTRA`), so J = sum_k lambda_k P_k with the projectors of
`_PROJECTORS`.  It counts the instability index exactly and maps the
unstable direction's exact vector to an invariant 4-form.  This is the
library's one linearization: the tests prove the tables in sympy and keep
the complex-step derivative of the float rates as their outside check, with
the tables' analytic twin beside it (`tests/_linearization.py`).

find_critical_points is where kappa and gamma become exact rationals, by
the one reader `invariant_forms._exact` that `sphere_spectrum` uses too.
It builds each point from its closed form (`_CLOSED_FORM`) and proves
nothing per call: the tests prove once, in sympy, that every closed form of
that table zeroes its flow's exact rates for every kappa and gamma, and
that the rates of both flows are covariant under
(a, b, q, kappa) -> (l a, l b, l^2 q, kappa / l), which multiplies every
rate by l^2.  This reading of "critical points up to scale" is our
derivation from the repo's rates, not the paper's.
A CriticalPoint is five constants (flavor, eps, kappa, gamma and its label)
and derives kappa_eff, params, state and tau0 from them when it is built,
so every point is its label's closed form and every decision is made at
the one rational the point was built at: its tau0 is kappa_eff rounded,
and window_mu, the one copy of mu, is mu0 of `_PSI_MU0` times
kappa_eff / kappa.  classify refuses constants other than the point's
own.  The window rule is `sphere_spectrum`'s.

At a point (a, b, c) with q = c^2 the coordinates are
(A, B, C) = q (delta a / a, delta b / b, delta c / c), so delta q = 2 C, and
classify reports its linearization in these coordinates.

The two distinguished 27-type 4-forms

    Psi_plus  = e23^w1 - e13^w2 - 2 e12^w3
    Psi_minus = 2 vol - e23^w1 + e13^w2 - e12^w3

span the destabilizing directions; verify_psi_identities checks their
exactness, type membership, star images and d(star(.)) eigenvalues with no
tolerances at all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .coflow_dynamics import MODIFIED, NORMALIZED
from .g2_ansatz import ansatz_4form, build
from .invariant_forms import (
    GeometryParams,
    InvariantForm,
    _above,
    _constants,
    _exact,
    _exactly,
    dstar_on_4forms,
    form,
    hodge_star,
    wedge,
    exterior_derivative,
)
from .sphere_spectrum import _window_floor, _window_form

PSI_PLUS = form([("e23^w1", 1), ("e13^w2", -1), ("e12^w3", -2)])
PSI_MINUS = form([("vol", 2), ("e23^w1", -1), ("e13^w2", 1), ("e12^w3", -1)])
# each eps family's (Psi, mu0, r, P): d(star(Psi)) = mu0 tau0 Psi, Psi = r dP and
# star(Psi) = mu0 r tau0 P; verify_psi_identities proves all three at the tau0 = kappa point
_PSI_MU0 = {
    +1: (PSI_PLUS, Fraction(-5, 3), Fraction(1, 4), form([("e3^w3", 2), ("e1^w1", -1), ("e2^w2", -1)])),
    -1: (PSI_MINUS, Fraction(-3, 2), Fraction(1, 6),
         form([("e123", 2), ("e1^w1", -1), ("e2^w2", -1), ("e3^w3", -1)])),
}

LABEL_PRINCIPAL = "tau0_eq_kappa"
LABEL_RESCALED = "tau0_eq_gamma_minus_1_kappa"

# The linearization's eigenvectors in (A, B, C) coordinates at every nearly
# parallel point, the same for both flavors, both labels and every kappa and
# gamma: the scaling mode (1, 1, 1), the Psi direction and a third vector,
# each scaled so that its largest component is +1.  The tests prove
# J v = lambda v for each, lambda from `_SPECTRA`, at symbolic kappa and gamma.
_EIGENBASIS = {
    +1: ((1, 1, 1), (Fraction(-1, 2), 1, 0), (1, 1, Fraction(-3, 4))),
    -1: ((1, 1, 1), (0, 1, Fraction(-1, 4)), (1, Fraction(-2, 5), Fraction(-2, 5))),
}
# the same vectors as floats of unit norm, the ones classify reports
_UNIT_EIGENBASIS = {
    eps: tuple(tuple(float(x) / math.hypot(*map(float, vec)) for x in vec) for vec in basis)
    for eps, basis in _EIGENBASIS.items()
}
# each vector's eigenvalue, kappa^2 (c0 + c1 gamma + c2 gamma^2) / 72, per (flavor, eps, label)
_SPECTRA = {
    (NORMALIZED, +1, LABEL_PRINCIPAL): ((-36, 0, 0), (-32, 0, 0), (-50, 0, 0)),
    (NORMALIZED, -1, LABEL_PRINCIPAL): ((-36, 0, 0), (-18, 0, 0), (-288, 0, 0)),
    (MODIFIED, +1, LABEL_PRINCIPAL): ((90, -45, 0), (-200, 120, 0), (160, -150, 0)),
    (MODIFIED, -1, LABEL_PRINCIPAL): ((90, -45, 0), (-144, 90, 0), (216, -360, 0)),
    (MODIFIED, +1, LABEL_RESCALED): ((90, -135, 45), (-200, 280, -80), (160, -170, 10)),
    (MODIFIED, -1, LABEL_RESCALED): ((90, -135, 45), (-144, 198, -54), (216, -72, -144)),
}


def _projectors(basis) -> tuple[tuple, int]:
    """Each entry's (P_0, P_1, P_2) of V's projectors v_k w_k^T, as integers over one denominator."""
    u, v, w = ([Fraction(x) for x in vec] for vec in basis)
    adjugate = [(a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])
                for a, b in ((v, w), (w, u), (u, v))]
    det = u[0] * adjugate[0][0] + u[1] * adjugate[0][1] + u[2] * adjugate[0][2]  # V^-1 = adj(V) / det
    exact = [[[x * y / det for y in row] for x in vec] for vec, row in zip((u, v, w), adjugate)]
    den = math.lcm(*(x.denominator for p in exact for r in p for x in r))
    return tuple(tuple(tuple(int(p[i][j] * den) for p in exact) for j in range(3)) for i in range(3)), den


_PROJECTORS = {eps: _projectors(basis) for eps, basis in _EIGENBASIS.items()}


@dataclass(frozen=True)
class CriticalPoint:
    """A nearly parallel equilibrium at the exact kappa and gamma it was found for.

    A point is its five constants: flavor, eps (kept as the int `_eps` reads
    it as), kappa and gamma (the rationals `find_critical_points` read its
    inputs as, gamma None for the normalized flavor) and the label of the
    nearly parallel point it is.  It derives the rest when it is built:
    kappa_eff, kappa or (gamma - 1) kappa as the label says, the closed-form
    params at kappa_eff, the state those params rounded to floats, and tau0,
    kappa_eff rounded.  So every point is its label's closed form; a label
    the flavor does not have, constants `_constants` refuses, or a modified
    flow's point without a gamma above 2, is refused with ValueError, a
    kappa or gamma that is not an int or a Fraction with TypeError, and
    `dataclasses.replace` derives the four anew and refuses any of them.
    """

    flavor: str
    eps: int
    kappa: Fraction
    gamma: Fraction | None
    label: str
    kappa_eff: Fraction = field(init=False)
    params: GeometryParams = field(init=False)
    state: tuple[float, float, float] = field(init=False)
    tau0: float = field(init=False)

    def __post_init__(self):
        if self.flavor == MODIFIED and self.gamma is None:
            raise ValueError("the modified flow's point needs gamma, got None")
        for name in ("kappa", "gamma"):
            value = getattr(self, name)
            if value is not None and not isinstance(value, (int, Fraction)):
                raise TypeError(f"{name} must be an int or a Fraction, got {type(value).__name__}")
        object.__setattr__(self, "eps", _constants(self.flavor, self.kappa, self.gamma, self.eps))
        if self.flavor == MODIFIED and not self.gamma > 2:
            raise ValueError(f"modified flavor requires gamma > 2, got {self.gamma}")
        keff = _label_kappa_eff(self.flavor, self.label, self.kappa, self.gamma)
        params = _exact_point_params(self.eps, keff)
        for name, value in (("kappa_eff", keff), ("params", params),
                            ("state", params.state()), ("tau0", float(keff))):
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class Eigenpair:
    value: float
    vector: tuple[float, float, float]
    residual: float


@dataclass(frozen=True)
class WindowVerdict:
    """Sign analysis of the linearization's quadratic form at ratio mu.

    form_value excludes the overall -kappa^2 |eta|^2 factor, so the flow
    contribution of the direction is negative-definite exactly when
    form_value is positive; destabilizing means form_value < 0.
    """

    mu: float
    gamma: float | None
    flavor: str
    verdict: str
    form_value: float


@dataclass(frozen=True)
class SpectralReport:
    flavor: str
    epsilon: int
    kappa: float
    gamma: float | None
    point: tuple[float, float, float]
    tau0: float
    jacobian: tuple[tuple[float, ...], ...]
    eigenpairs: tuple[Eigenpair, ...]
    index: int
    marginal: tuple[bool, ...]
    unstable_form: InvariantForm | None
    window: WindowVerdict

    def to_json_dict(self) -> dict:
        return {
            "flavor": self.flavor,
            "epsilon": self.epsilon,
            "kappa": self.kappa,
            "gamma": self.gamma,
            "point": {"a": self.point[0], "b": self.point[1], "c": self.point[2]},
            "tau0": self.tau0,
            "jacobian": [list(row) for row in self.jacobian],
            "eigenvalues": [
                {"re": p.value, "im": 0.0, "residual": p.residual} for p in self.eigenpairs
            ],
            "eigenvectors": [list(p.vector) for p in self.eigenpairs],
            "index": self.index,
            "unstable_form": None if self.unstable_form is None else self.unstable_form.to_json_dict(),
            "window": {"mu": self.window.mu, "verdict": self.window.verdict},
        }


# the closed-form nearly parallel point at tau0 = kappa_eff, per eps: (r, s) with
# a = b = r / kappa_eff and q = s a^2
_CLOSED_FORM = {+1: (Fraction(12, 5), 5), -1: (Fraction(4), 1)}


def _exact_point_params(eps: int, kappa_eff: Fraction) -> GeometryParams:
    """The closed form at kappa_eff = kn / kd: a = b = rn kd / (rd kn), q = s an^2 / ad^2."""
    r, s = _CLOSED_FORM[eps]
    kn, kd = kappa_eff.as_integer_ratio()
    a = Fraction(r.numerator * kd, r.denominator * kn)
    an, ad = a.as_integer_ratio()
    return GeometryParams(a=a, b=a, q=Fraction(s * an * an, ad * ad), eps=eps)


def find_critical_points(flavor: str, kappa, gamma, eps: int) -> list[CriticalPoint]:
    """The nearly parallel equilibria for the given flavor, each its closed form.

    Normalized flavor has the single tau0 = kappa point per eps; the
    modified flavor adds the (gamma - 1)^-1-rescaled copy.  Once gamma > 2
    and `invariant_forms._constants` accept them, kappa and gamma are read
    as exact rationals here, by `invariant_forms._exact`: a float as the
    exact value of the binary float, a Decimal as the decimal it spells.
    Each point derives its kappa_eff, closed-form params, state and tau0
    from those values and its label.  Each is an equilibrium by proof, not
    by a float residual and not per call: the tests prove in sympy that
    every closed form of `_CLOSED_FORM` zeroes its flow's monomial rates as
    a rational function of kappa and gamma.  The state is the params
    rounded to floats, and tau0 is kappa_eff rounded, not the rounded
    state's torsion.
    """
    if flavor == MODIFIED and (gamma is None or not _above(gamma, 2)):
        raise ValueError("modified flavor requires gamma > 2")
    eps = _constants(flavor, kappa, gamma, eps)
    kap, gam = _exact(kappa), _exact(gamma) if flavor == MODIFIED else None
    labels = [LABEL_PRINCIPAL, LABEL_RESCALED] if flavor == MODIFIED else [LABEL_PRINCIPAL]
    return [CriticalPoint(flavor, eps, kap, gam, label) for label in labels]


_TINY = float(np.finfo(float).tiny)  # the least normal float


def state_direction(point: CriticalPoint, direction) -> np.ndarray:
    """Unit (a, b, c)-space displacement along (a A, b B, c C) for an (A, B, C) direction.

    A component that is not finite is refused with ValueError, as in
    `variation_to_form`.  Only where a component is too large for a float
    are the exact components first divided by their largest magnitude, and
    only where the sum of squares leaves the normal float range are the
    state and the direction first scaled to a largest entry of 1, so the
    result is a unit vector at any finite scale, and a zero displacement
    raises ValueError.
    """
    try:
        d = np.array([float(x) for x in direction])
    except OverflowError:
        exact = [_exact(x) for x in direction]
        top = max(map(abs, exact))
        d = np.array([float(x / top) for x in exact])
    if not np.isfinite(d).all():
        raise ValueError(f"the direction must be finite, got {tuple(direction)}")
    state = np.array(point.state)
    with np.errstate(over="ignore"):  # an overflow is an infinite sum, rescaled below
        v = state * d
        squares = float((v * v).sum())
    if not _TINY <= squares < math.inf:
        v = state / state.max() * (d / (float(np.abs(d).max()) or 1.0))
        squares = float((v * v).sum())
        if squares == 0.0:
            raise ValueError("zero direction")
    return v / math.sqrt(squares)


def _table_linearization(lam, eps: int, den: int) -> list[list]:
    """sum_k lam_k P_k / den entry by entry, with the projectors P_k of `_PROJECTORS[eps]`.

    Each entry is one numerator over den times the projectors' denominator,
    so integer lam and den give it by one int / int division, rounded once.
    """
    rows, pden = _PROJECTORS[eps]
    den *= pden
    return [[(lam[0] * x + lam[1] * y + lam[2] * z) / den for x, y, z in row] for row in rows]


def _label_kappa_eff(flavor: str, label: str, kappa: Fraction, gamma: Fraction | None) -> Fraction:
    """kappa_eff of the nearly parallel point a label names; ValueError if the flavor has none."""
    if label == LABEL_PRINCIPAL:
        return kappa
    if label == LABEL_RESCALED and flavor == MODIFIED:
        return (gamma - 1) * kappa
    raise ValueError(f"the {flavor} flow has no {label!r} point")


def _check_point(flavor: str, point: CriticalPoint, kappa, gamma, eps: int) -> None:
    """Refuse a flavor, eps, kappa or (modified flavor) gamma other than the point's own.

    kappa and gamma are read as find_critical_points reads them; ValueError
    names the constant that differs.  classify runs this first.
    """
    checks = [("flavor", flavor, flavor == point.flavor), ("eps", eps, eps == point.eps),
              ("kappa", kappa, _exact(kappa) == point.kappa)]
    if flavor == MODIFIED:
        checks.append(("gamma", gamma, gamma is not None and _exact(gamma) == point.gamma))
    for name, value, same in checks:
        if not same:
            raise ValueError(f"{name} {value} differs from the point's {name} {getattr(point, name)}")


def _range_cut(jac) -> None:
    """ValueError unless jac is a 3x3 matrix whose Frobenius norm is a normal float with a finite square."""
    jnorm = math.inf if jac is None else math.hypot(*(x for row in jac for x in row))
    if not (jnorm >= _TINY and math.isfinite(jnorm * jnorm)):
        raise ValueError("the linearization does not evaluate in floating point at the point")


def _variation(a, b, q, A, B, C) -> tuple:
    """(delta a, delta b, delta q) = (a A / q, b B / q, 2 C) varies the monomials
    (q^2, a b q, a^2 q) by (4 q C, a b (A + B + 2 C), 2 a^2 (A + C))."""
    return 4 * q * C, a * b * (A + B + 2 * C), 2 * a * a * (A + C)


def variation_to_form(point: CriticalPoint, direction) -> InvariantForm:
    """Directional derivative of the dual 4-form along an (A, B, C) perturbation.

    Exact whenever the direction is exact: the q-parametrization keeps the
    c-variation rational, delta q = 2 c delta c = 2 C, even where c itself
    is irrational.
    """
    comps = [_exact(x) for x in direction]
    if all(x == 0 for x in comps):
        raise ValueError("direction must be nonzero")
    p = point.params
    return ansatz_4form(_exactly(_variation, p.a, p.b, p.q, *comps), p.eps)


def window_mu(point: CriticalPoint) -> Fraction:
    """Exact ratio mu with d(star(Psi)) = kappa mu Psi at the point: mu0 kappa_eff / kappa.

    mu is measured against the flow constant kappa, not against the point's
    effective torsion, so rescaled points report a gamma-dependent ratio.
    kappa_eff is the one the point derived from its label when it was built.
    """
    return point.kappa_eff * _PSI_MU0[point.eps][1] / point.kappa


def window_verdict(mu, gamma, flavor: str) -> WindowVerdict:
    """Classify a d*-eigenvalue ratio against the flavor's quadratic form.

    mu and gamma are read by `invariant_forms._exact`.  Modified flavor: the
    window form `sphere_spectrum._window_form`, gamma > 2.  Normalized flavor:
    the square of mu + 1.  A negative form is destabilizing and a zero one a
    kernel; form_value is its integer ratio, rounded once.
    """
    mn, md = _exact(mu).as_integer_ratio()
    if flavor == MODIFIED:
        num, den = _window_form(mn, md, _window_floor(gamma))
    elif flavor == NORMALIZED:
        num, den = (mn + md) ** 2, md * md
    else:
        raise ValueError(f"unknown flavor {flavor!r}")
    verdict = "destabilizing" if num < 0 else "kernel" if num == 0 else "stable-direction"
    return WindowVerdict(mu=float(mu), gamma=None if gamma is None else float(gamma),
                         flavor=flavor, verdict=verdict, form_value=num / den)


def classify(flavor: str, point: CriticalPoint, kappa, gamma, eps: int) -> SpectralReport:
    """Full spectral report: linearization, eigenpairs, index, window verdict.

    The eigenpairs are the point's exact table vectors (`_EIGENBASIS`) and
    values (`_SPECTRA`); constants other than the point's own are refused by
    `_check_point`.  At kappa = kn/kd and gamma = gn/gd (0/1
    for the normalized flavor) the values share the denominator
    72 kd^2 gd^2 > 0, so every decision is on integer numerators:
    index counts the positive values, marginal flags the zeros, and pairs
    sort by decreasing value, ties in table order.  The reported J is the
    table's too, sum_k lambda_k P_k, each entry one integer numerator rounded
    once, under `_range_cut` on ||J||^2; the float rates are never
    evaluated here.  Each value is rounded once to a float, with its residual
    |J u - lambda u| against that J.  unstable_form is the exact variation
    along the first pair's table vector.  The window verdict is
    `window_verdict` at `window_mu`.  The tables apply because every point
    is its label's closed form by construction.  The report carries the
    point's constants (gamma None for the normalized flavor).
    """
    _check_point(flavor, point, kappa, gamma, eps)
    mu = window_mu(point)
    kn, kd = point.kappa.as_integer_ratio()
    gn, gd = (0, 1) if point.gamma is None else point.gamma.as_integer_ratio()
    nums = [kn * kn * (c0 * gd * gd + c1 * gn * gd + c2 * gn * gn)
            for c0, c1, c2 in _SPECTRA[point.flavor, point.eps, point.label]]
    den = 72 * kd * kd * gd * gd
    try:
        rows = _table_linearization(nums, point.eps, den)
    except OverflowError:  # an entry beyond the float range
        rows = None
    _range_cut(rows)
    order = sorted(range(3), key=lambda i: -nums[i])

    pairs = []
    for i in order:
        lam, u = nums[i] / den, _UNIT_EIGENBASIS[point.eps][i]
        res = [r[0] * u[0] + r[1] * u[1] + r[2] * u[2] - lam * x for r, x in zip(rows, u)]
        pairs.append(Eigenpair(value=lam, vector=u, residual=math.hypot(*res)))
    index = sum(1 for n in nums if n > 0)
    marginal = tuple(nums[i] == 0 for i in order)
    unstable_form = variation_to_form(point, _EIGENBASIS[point.eps][order[0]]) if index > 0 else None
    window = window_verdict(mu, point.gamma, flavor)

    return SpectralReport(
        flavor=point.flavor, epsilon=point.eps, kappa=float(point.kappa),
        gamma=None if point.gamma is None else float(point.gamma),
        point=point.state, tau0=point.tau0,
        jacobian=tuple(map(tuple, rows)),
        eigenpairs=tuple(pairs), index=index, marginal=marginal,
        unstable_form=unstable_form, window=window,
    )


@dataclass(frozen=True)
class PsiIdentityReport:
    wedge_certificates: bool
    exact_primitive: bool
    dstar_eigenvalue: bool
    star_formula: bool
    details: tuple[str, ...] = ()

    @property
    def all_pass(self) -> bool:
        return (self.wedge_certificates and self.exact_primitive
                and self.dstar_eigenvalue and self.star_formula)


def verify_psi_identities(eps: int, kappa) -> PsiIdentityReport:
    """Exact checks on the destabilizing 4-form at the tau0 = kappa point.

    (i) 27-type wedge certificates; (ii) the family's printed primitive P
    reproduces the form as Psi = r dP, r = 1/4 for the plus family and 1/6
    for the minus family (a structure-equation identity, parameter-free);
    (iii) d(star(Psi)) returns the form scaled by mu0 kappa, -(5/3) kappa
    for the plus family and -(3/2) kappa for the minus family; (iv)
    star(Psi) = mu0 r kappa P, read off the same P (our derivation from the
    algebra, not the paper's).  Every comparison is exact; kappa is read as
    find_critical_points reads it, a float as its exact binary value.
    """
    kap = _exact(kappa)
    # the tau0 = kappa point is both flavors'; the normalized one needs no gamma
    params = _exact_point_params(_constants(NORMALIZED, kap, None, eps), kap)
    ans = build(params)
    psi_27, mu0, r, primitive = _PSI_MU0[params.eps]
    star_psi = hodge_star(psi_27, params)

    # (detail label, left side, right side) in the report's field order; the
    # two wedge certificates have degrees 6 and 7, so their sum is zero
    # exactly when both are
    rows = (
        ("wedge certificate residue", wedge(star_psi, ans.phi) + wedge(star_psi, ans.psi),
         InvariantForm.zero()),
        ("primitive mismatch", r * exterior_derivative(primitive), psi_27),
        ("dstar eigenvalue mismatch", dstar_on_4forms(psi_27, params), (mu0 * kap) * psi_27),
        ("star closed form mismatch", star_psi, (mu0 * r * kap) * primitive),
    )
    flags, details = [], []
    for label, lhs, rhs in rows:
        flags.append(lhs == rhs)
        if not flags[-1]:
            details.append(f"{label} on {sorted(m.key for m in (lhs - rhs).coeffs)}")
    return PsiIdentityReport(*flags, details=tuple(details))
