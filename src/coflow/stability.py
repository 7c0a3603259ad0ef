"""Critical points of the flows and their spectral classification.

Both flows have equilibria exactly where the structure is nearly parallel:
scalar torsion tau0 equal to kappa, and for the modified flavor additionally
tau0 equal to (gamma - 1) kappa.  This module locates those points, builds
the flow linearization in the scaled perturbation coordinates (A, B, C),
extracts eigenpairs with a closed-form 3x3 solver, counts the instability
index, and maps unstable directions back to invariant 4-forms.

The two distinguished 27-type 4-forms

    Psi_plus  = e23^w1 - e13^w2 - 2 e12^w3
    Psi_minus = 2 vol - e23^w1 + e13^w2 - e12^w3

span the destabilizing directions; verify_psi_identities checks their
exactness, type membership, star images and d(star(.)) eigenvalues with no
tolerances at all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .coflow_dynamics import (
    FLAVORS,
    MODIFIED,
    NORMALIZED,
    guarded_rhs,
    monomial_rates,
    tau0_state,
)
from .g2_ansatz import build
from .invariant_forms import (
    GeometryParams,
    InvariantForm,
    _as_scalar,
    dstar_on_4forms,
    form,
    hodge_star,
    inner_product,
    wedge,
    exterior_derivative,
)

PSI_PLUS = form([("e23^w1", 1), ("e13^w2", -1), ("e12^w3", -2)])
PSI_MINUS = form([("vol", 2), ("e23^w1", -1), ("e13^w2", 1), ("e12^w3", -1)])

LABEL_PRINCIPAL = "tau0_eq_kappa"
LABEL_RESCALED = "tau0_eq_gamma_minus_1_kappa"


@dataclass(frozen=True)
class CriticalPoint:
    flavor: str
    eps: int
    kappa: float
    gamma: float | None
    label: str
    kappa_eff: Fraction
    params: GeometryParams
    state: tuple[float, float, float]
    tau0: float


@dataclass(frozen=True)
class Eigenpair:
    value: complex
    vector: tuple[complex, complex, complex]
    residual: float
    generalized: bool = False


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
        def vec_json(v):
            if all(abs(complex(x).imag) < 1e-12 for x in v):
                return [complex(x).real for x in v]
            return [[complex(x).real, complex(x).imag] for x in v]

        return {
            "flavor": self.flavor,
            "epsilon": self.epsilon,
            "kappa": self.kappa,
            "gamma": self.gamma,
            "point": {"a": self.point[0], "b": self.point[1], "c": self.point[2]},
            "tau0": self.tau0,
            "jacobian": [list(row) for row in self.jacobian],
            "eigenvalues": [
                {"re": complex(p.value).real, "im": complex(p.value).imag, "residual": p.residual}
                for p in self.eigenpairs
            ],
            "eigenvectors": [vec_json(p.vector) for p in self.eigenpairs],
            "index": self.index,
            "unstable_form": None if self.unstable_form is None else self.unstable_form.to_json_dict(),
            "window": {"mu": self.window.mu, "verdict": self.window.verdict},
        }


def _solve3(m: np.ndarray, rhs: np.ndarray) -> np.ndarray | None:
    """Gaussian elimination with partial pivoting; None when singular."""
    a = np.array(m, dtype=np.result_type(m, rhs, np.float64))
    v = np.array(rhs, dtype=a.dtype)
    n = 3
    perm = list(range(n))
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(a[r, col]))
        if abs(a[piv, col]) < 1e-300:
            return None
        if piv != col:
            a[[col, piv]] = a[[piv, col]]
            v[[col, piv]] = v[[piv, col]]
        for r in range(col + 1, n):
            fac = a[r, col] / a[col, col]
            a[r, col:] -= fac * a[col, col:]
            v[r] -= fac * v[col]
    x = np.zeros(n, dtype=a.dtype)
    for r in range(n - 1, -1, -1):
        x[r] = (v[r] - a[r, r + 1:] @ x[r + 1:]) / a[r, r]
    return x


def newton_refine(flavor, y0, kappa, gamma, eps, tol: float = 1e-13, max_iter: int = 40):
    """Newton iteration on the floating right-hand side; None on divergence."""
    y = np.array([float(v) for v in y0], dtype=np.float64)
    for _ in range(max_iter):
        fy = guarded_rhs(flavor, y.tolist(), kappa, gamma, eps)
        if fy is None:
            return None
        fy = np.array(fy)
        if float(np.sqrt(np.sum(fy * fy))) < tol:
            return y
        jac = np.zeros((3, 3))
        for j in range(3):
            h = 1e-7 * max(1.0, abs(y[j]))
            yp, ym = y.copy(), y.copy()
            yp[j] += h
            ym[j] -= h
            fp = guarded_rhs(flavor, yp.tolist(), kappa, gamma, eps)
            fm = guarded_rhs(flavor, ym.tolist(), kappa, gamma, eps)
            if fp is None or fm is None:
                return None
            jac[:, j] = (np.array(fp) - np.array(fm)) / (2 * h)
        delta = _solve3(jac, fy)
        if delta is None or not np.all(np.isfinite(delta)):
            return None
        y = y - delta
        if min(y) <= 0:
            return None
    fy = guarded_rhs(flavor, y.tolist(), kappa, gamma, eps)
    if fy is not None and float(np.sqrt(np.sum(np.array(fy) ** 2))) < tol:
        return y
    return None


def _exact_point_params(eps: int, kappa_eff: Fraction) -> GeometryParams:
    if eps == +1:
        a = Fraction(12, 5) / kappa_eff
        return GeometryParams(a=a, b=a, q=5 * a * a, eps=eps)
    a = 4 / kappa_eff
    return GeometryParams(a=a, b=a, q=a * a, eps=eps)


def find_critical_points(flavor: str, kappa, gamma, eps: int) -> list[CriticalPoint]:
    """The nearly parallel equilibria for the given flavor, certified exactly.

    Normalized flavor has the single tau0 = kappa point per eps; the
    modified flavor adds the (gamma - 1)^-1-rescaled copy.  Each closed-form
    point is an equilibrium by proof, not by a float residual: its monomial
    rates, evaluated over Fraction at the exact kappa and gamma the floats
    stand for, are all exactly zero.  The returned state is that exact point
    rounded to floats.
    """
    if flavor not in FLAVORS:
        raise ValueError(f"unknown flavor {flavor!r}")
    if not kappa > 0:
        raise ValueError("kappa must be positive")
    kap = _as_scalar(kappa) if isinstance(kappa, (int, Fraction)) else Fraction(float(kappa))
    gam = None
    labels = [(kap, LABEL_PRINCIPAL)]
    if flavor == MODIFIED:
        if gamma is None or not gamma > 2:
            raise ValueError("modified flavor requires gamma > 2")
        gam = _as_scalar(gamma) if isinstance(gamma, (int, Fraction)) else Fraction(float(gamma))
        labels.append(((gam - 1) * kap, LABEL_RESCALED))

    points: list[CriticalPoint] = []
    for keff, label in labels:
        params = _exact_point_params(eps, keff)
        rates = monomial_rates(flavor, params.a, params.b, params.q, kap, gam, eps)
        if rates != (0, 0, 0):
            raise RuntimeError(f"the closed-form {label} point is not an equilibrium: rates {rates}")
        state = params.state()
        points.append(CriticalPoint(
            flavor=flavor, eps=eps, kappa=float(kappa),
            gamma=None if gamma is None else float(gamma),
            label=label, kappa_eff=keff, params=params,
            state=state, tau0=tau0_state(*state, eps),
        ))
    return points


def _abc_scales(eps: int, kappa_eff: float) -> np.ndarray:
    if eps == +1:
        return np.array([kappa_eff / 12, kappa_eff / 12, math.sqrt(5) * kappa_eff / 12])
    return np.array([kappa_eff / 4, kappa_eff / 4, kappa_eff / 4])


def state_direction(point: CriticalPoint, direction) -> np.ndarray:
    """Unit (a, b, c)-space displacement for a scaled-coordinate direction."""
    scales = _abc_scales(point.eps, float(point.kappa_eff))
    v = scales * np.array([complex(x).real for x in direction], dtype=np.float64)
    norm = float(np.sqrt((v * v).sum()))
    if norm == 0.0:
        raise ValueError("zero direction")
    return v / norm


def analytic_jacobian(eps: int, kappa: float, gamma: float) -> np.ndarray:
    """Closed-form linearization of the modified flow at its tau0 = kappa point."""
    g = gamma
    if eps == +1:
        return (5 * kappa ** 2 / 72) * np.array([
            [2 * (2 - 3 * g), 22 - 15 * g, 4 * (3 * g - 2)],
            [2 * (22 - 15 * g), 9 * (g - 2), 4 * (3 * g - 2)],
            [2 * (3 * g - 2), 3 * g - 2, 6 * (4 - 3 * g)],
        ])
    return (kappa ** 2 / 8) * np.array([
        [10 * (2 - 3 * g), 5 * g - 2, 4 * (5 * g - 2)],
        [2 * (5 * g - 2), 5 * (g - 2), 4 * (6 - 5 * g)],
        [2 * (5 * g - 2), 6 - 5 * g, 2 * (4 - 5 * g)],
    ])


def jacobian(flavor: str, point: CriticalPoint, kappa, gamma, eps: int):
    """(finite-difference matrix, analytic twin or None) in (A, B, C) coordinates.

    The perturbation coordinates carry the scale of the critical point
    (a sqrt(5) weight on the third slot for eps = +1), so the analytic
    matrices apply literally.  When the twin exists the two must agree to
    1e-6 in relative sup norm.
    """
    kap, gam = float(kappa), None if gamma is None else float(gamma)
    y = np.array(point.state, dtype=np.float64)
    fy = guarded_rhs(flavor, y.tolist(), kap, gam, eps)
    if fy is None or math.hypot(*fy) > 1e-10:
        raise ValueError("jacobian requires a critical point (residual above 1e-10)")

    scales = _abc_scales(eps, float(point.kappa_eff))
    h = 1e-6
    num = np.zeros((3, 3))
    for j in range(3):
        dy = np.zeros(3)
        dy[j] = h * scales[j]
        fp = guarded_rhs(flavor, (y + dy).tolist(), kap, gam, eps)
        fm = guarded_rhs(flavor, (y - dy).tolist(), kap, gam, eps)
        if fp is None or fm is None:
            raise ValueError("finite-difference stencil left the positive octant")
        num[:, j] = (np.array(fp) - np.array(fm)) / (2 * h)
    num = num / scales[:, None]

    ana = None
    if flavor == MODIFIED and point.label == LABEL_PRINCIPAL:
        ana = analytic_jacobian(eps, float(kappa), float(gamma))
        rel = float(np.max(np.abs(num - ana)) / np.max(np.abs(ana)))
        if rel > 1e-6:
            raise AssertionError(f"finite-difference and analytic linearizations disagree: {rel:.2e}")
    return num, ana


def _cubic_roots(t1: float, t2: float, det: float) -> list[complex]:
    # charpoly lambda^3 - t1 lambda^2 + t2 lambda - det
    a, b, c = -t1, t2, -det
    shift = -a / 3
    p = b - a * a / 3
    q = 2 * a ** 3 / 27 - a * b / 3 + c
    scale = max(abs(p) ** 1.5, abs(q), 1e-300)
    disc = -4 * p ** 3 - 27 * q * q
    if abs(p) < 1e-14 * scale ** (2 / 3) and abs(q) < 1e-14 * scale:
        return [complex(shift)] * 3
    if disc >= -1e-12 * scale * scale:
        # three real roots (possibly nearly repeated): trigonometric branch
        m = 2 * math.sqrt(max(-p, 0.0) / 3)
        arg = 3 * q / (p * m) if p * m != 0 else 0.0
        theta = math.acos(min(1.0, max(-1.0, arg)))
        return [complex(shift + m * math.cos((theta - 2 * math.pi * k) / 3)) for k in range(3)]
    # one real root and a conjugate pair: Cardano branch
    rad = math.sqrt(q * q / 4 + p ** 3 / 27)
    u = math.copysign(abs(-q / 2 + rad) ** (1 / 3), -q / 2 + rad)
    v = math.copysign(abs(-q / 2 - rad) ** (1 / 3), -q / 2 - rad)
    real = shift + u + v
    re = shift - (u + v) / 2
    im = math.sqrt(3) / 2 * (u - v)
    return [complex(real), complex(re, im), complex(re, -im)]


def _polish_root(lam: complex, a: float, b: float, c: float) -> complex:
    for _ in range(3):
        p = ((lam + a) * lam + b) * lam + c
        dp = (3 * lam + 2 * a) * lam + b
        if abs(dp) < 1e-300:
            break
        step = p / dp
        if not (abs(step) < math.inf):
            break
        lam = lam - step
    return lam


def _nullspace_vectors(B: np.ndarray, tol: float) -> list[np.ndarray]:
    """Null vectors of a 3x3 matrix via row cross products (bilinear kernel)."""
    rows = [B[i, :] for i in range(3)]
    crosses = [np.cross(rows[i], rows[j]) for i, j in ((0, 1), (0, 2), (1, 2))]
    best = max(crosses, key=lambda v: float(np.sqrt(np.abs(v @ np.conj(v)))))
    if float(np.sqrt(np.abs(best @ np.conj(best)))) > tol * tol:
        return [best / np.sqrt(np.abs(best @ np.conj(best)))]
    # rank <= 1: every pair of rows is parallel
    row = max(rows, key=lambda r: float(np.sqrt(np.abs(r @ np.conj(r)))))
    if float(np.sqrt(np.abs(row @ np.conj(row)))) <= tol:
        return [np.eye(3, dtype=B.dtype)[k] for k in range(3)]
    r1, r2, r3 = row
    candidates = [np.array([-r2, r1, 0], dtype=B.dtype),
                  np.array([-r3, 0, r1], dtype=B.dtype),
                  np.array([0, -r3, r2], dtype=B.dtype)]
    candidates.sort(key=lambda v: -float(np.sqrt(np.abs(v @ np.conj(v)))))
    first = candidates[0] / np.sqrt(np.abs(candidates[0] @ np.conj(candidates[0])))
    second = candidates[1] - (np.conj(first) @ candidates[1]) * first
    second = second / np.sqrt(np.abs(second @ np.conj(second)))
    return [first, second]


def eigen3(matrix) -> list[Eigenpair]:
    """Eigenpairs of a 3x3 real matrix by closed-form cubic plus refinement.

    Roots come from the discriminant-split cubic formula, polished by Newton
    steps on the characteristic polynomial; eigenvectors come from the rank
    structure of (A - lambda I) with one pass of shifted inverse iteration.
    A repeated eigenvalue with too small a geometric eigenspace is padded
    with best-effort vectors flagged generalized=True.
    """
    A = np.asarray(matrix, dtype=np.float64)
    if A.shape != (3, 3):
        raise ValueError("eigen3 expects a 3x3 matrix")
    anorm = float(np.sqrt(np.sum(A * A)))
    t1 = float(np.trace(A))
    t2 = float(A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]
               + A[0, 0] * A[2, 2] - A[0, 2] * A[2, 0]
               + A[1, 1] * A[2, 2] - A[1, 2] * A[2, 1])
    det = float(np.linalg.det(A))
    ca, cb, cc = -t1, t2, -det
    roots = [_polish_root(r, ca, cb, cc) for r in _cubic_roots(t1, t2, det)]
    roots.sort(key=lambda z: (-z.real, -abs(z.imag)))

    # cluster nearly equal roots so repeated eigenvalues share a nullspace;
    # a double root of the cubic splits by ~sqrt(eps) under roundoff, so the
    # threshold must sit above 1.5e-8 * scale
    clusters: list[list[complex]] = []
    for r in roots:
        if clusters and abs(r - clusters[-1][0]) <= 2e-7 * max(1.0, anorm):
            clusters[-1].append(r)
        else:
            clusters.append([r])

    pairs: list[Eigenpair] = []
    tol = 1e-12 * max(1.0, anorm)
    for cluster in clusters:
        lam = sum(cluster) / len(cluster)
        use_complex = abs(lam.imag) > 1e-14 * max(1.0, anorm)
        dt = np.complex128 if use_complex else np.float64
        lam_cast = lam if use_complex else lam.real
        B = A.astype(dt) - lam_cast * np.eye(3, dtype=dt)
        vecs = _nullspace_vectors(B, tol)
        for pos in range(len(cluster)):
            generalized = pos >= len(vecs)
            v = vecs[pos % len(vecs)]
            # one shifted inverse-iteration pass tightens the residual
            refined = _solve3(A.astype(dt) - (lam_cast + tol) * np.eye(3, dtype=dt), v)
            if refined is not None and np.all(np.isfinite(refined)):
                nrm = float(np.sqrt(np.abs(refined @ np.conj(refined))))
                if nrm > 0:
                    v = refined / nrm
            res = A.astype(dt) @ v - lam_cast * v
            residual = float(np.sqrt(np.abs(res @ np.conj(res))))
            pairs.append(Eigenpair(
                value=complex(lam_cast),
                vector=tuple(complex(x) for x in v),
                residual=residual,
                generalized=generalized,
            ))
    pairs.sort(key=lambda p: (-p.value.real, -abs(p.value.imag)))
    return pairs


def variation_to_form(point: CriticalPoint, direction) -> InvariantForm:
    """Directional derivative of the dual 4-form along an (A, B, C) perturbation.

    Exact whenever the direction is exact: the q-parametrization keeps the
    c-variation rational (delta q = 2 c delta c is rational at both critical
    families even though c itself may be irrational).
    """
    comps = []
    for x in direction:
        comps.append(_as_scalar(x) if isinstance(x, (int, Fraction)) else Fraction(float(x)))
    if all(x == 0 for x in comps):
        raise ValueError("direction must be nonzero")
    A_, B_, C_ = comps
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
    a, b, q, eps = p.a, p.b, p.q, p.eps
    return form([
        ("vol", 2 * q * dq),
        ("e23^w1", -eps * (b * q * da + a * q * db + a * b * dq)),
        ("e13^w2", eps * (b * q * da + a * q * db + a * b * dq)),
        ("e12^w3", -(2 * a * q * da + a * a * dq)),
    ])


def window_mu(point: CriticalPoint) -> Fraction:
    """Exact ratio mu with d(star(Psi)) = kappa mu Psi at the point.

    mu is measured against the flow constant kappa, not against the point's
    effective torsion, so rescaled points report a gamma-dependent ratio.
    """
    psi_27 = PSI_PLUS if point.eps == +1 else PSI_MINUS
    image = dstar_on_4forms(psi_27, point.params)
    kap = Fraction(point.kappa)
    mu = inner_product(image, psi_27, point.params) / (kap * inner_product(psi_27, psi_27, point.params))
    if image != (kap * mu) * psi_27:
        raise AssertionError("d(star(Psi)) is not proportional to Psi at this point")
    return mu


def window_verdict(mu, gamma, flavor: str) -> WindowVerdict:
    """Classify a d*-eigenvalue ratio against the flavor's quadratic form.

    Modified flavor: form (mu + 1)(mu + (5/2)(gamma - 1)), destabilizing
    exactly on -1 > mu > -(5/2)(gamma - 1).  Normalized flavor: form
    (mu + 1)^2, never destabilizing.  Kernel when the form vanishes.
    """
    if flavor == MODIFIED:
        if gamma is None or not gamma > 2:
            raise ValueError("modified flavor requires gamma > 2")
        value = (mu + 1) * (mu + 5 * (gamma - 1) / 2)
    elif flavor == NORMALIZED:
        value = (mu + 1) ** 2
    else:
        raise ValueError(f"unknown flavor {flavor!r}")
    if value < 0:
        verdict = "destabilizing"
    elif value == 0:
        verdict = "kernel"
    else:
        verdict = "stable-direction"
    return WindowVerdict(mu=float(mu), gamma=None if gamma is None else float(gamma),
                         flavor=flavor, verdict=verdict, form_value=float(value))


def classify(flavor: str, point: CriticalPoint, kappa, gamma, eps: int) -> SpectralReport:
    """Full spectral report: linearization, eigenpairs, index, window verdict.

    The analytic linearization is used when it exists (modified flavor at
    tau0 = kappa); otherwise the finite-difference matrix stands alone.
    Index counts strictly positive real parts; eigenvalues within
    1e-9 ||J|| of the imaginary axis are flagged marginal and not counted.
    """
    num, ana = jacobian(flavor, point, kappa, gamma, eps)
    J = num if ana is None else ana
    pairs = eigen3(J)
    anorm = float(np.sqrt(np.sum(np.asarray(J) ** 2)))
    marginal = tuple(abs(p.value.real) < 1e-9 * anorm for p in pairs)
    index = sum(1 for p, m in zip(pairs, marginal) if p.value.real > 0 and not m)

    unstable_form = None
    if index > 0:
        top = pairs[0]
        direction = [complex(x).real for x in top.vector]
        # normalize by the largest component and drop noise-level entries,
        # so rational ratios between components survive the float round trip
        amax = max(abs(x) for x in direction)
        direction = [0.0 if abs(x) < 1e-12 * amax else x / amax for x in direction]
        unstable_form = variation_to_form(point, direction)

    mu = window_mu(point)
    window = window_verdict(mu, gamma if flavor == MODIFIED else None, flavor)

    return SpectralReport(
        flavor=flavor, epsilon=eps, kappa=float(kappa),
        gamma=None if gamma is None else float(gamma),
        point=point.state, tau0=point.tau0,
        jacobian=tuple(tuple(float(x) for x in row) for row in np.asarray(J)),
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

    (i) 27-type wedge certificates; (ii) the printed primitive reproduces
    the form under d (a structure-equation identity, parameter-free);
    (iii) d(star(Psi)) returns the form scaled by -(5/3) kappa for the plus
    family and -(3/2) kappa for the minus family; (iv) star(Psi) matches its
    closed form.  Every comparison is exact.
    """
    kap = _as_scalar(kappa)
    if kap <= 0:
        raise ValueError("kappa must be positive")
    params = _exact_point_params(eps, kap)
    ans = build(params)
    details: list[str] = []

    psi_27 = PSI_PLUS if eps == +1 else PSI_MINUS
    star_psi = hodge_star(psi_27, params)

    cert_phi = wedge(star_psi, ans.phi)
    cert_psi = wedge(star_psi, ans.psi)
    wedge_ok = cert_phi.is_zero() and cert_psi.is_zero()
    if not wedge_ok:
        bad = list(cert_phi.coeffs) + list(cert_psi.coeffs)
        details.append(f"wedge certificate residue on {sorted(m.key for m in bad)}")

    if eps == +1:
        primitive = form([("e3^w3", 2), ("e1^w1", -1), ("e2^w2", -1)])
        reproduced = Fraction(1, 4) * exterior_derivative(primitive)
        mu_expect = Fraction(-5, 3)
        star_closed = (Fraction(5, 12) * kap) * form([("e1^w1", 1), ("e2^w2", 1), ("e3^w3", -2)])
    else:
        primitive = form([("e123", 2), ("e1^w1", -1), ("e2^w2", -1), ("e3^w3", -1)])
        reproduced = Fraction(1, 6) * exterior_derivative(primitive)
        mu_expect = Fraction(-3, 2)
        star_closed = (Fraction(1, 4) * kap) * form([("e1^w1", 1), ("e2^w2", 1), ("e3^w3", 1), ("e123", -2)])

    primitive_ok = reproduced == psi_27
    if not primitive_ok:
        diff = reproduced - psi_27
        details.append(f"primitive mismatch on {sorted(m.key for m in diff.coeffs)}")

    target = (mu_expect * kap) * psi_27
    dstar_ok = dstar_on_4forms(psi_27, params) == target
    if not dstar_ok:
        diff = dstar_on_4forms(psi_27, params) - target
        details.append(f"dstar eigenvalue mismatch on {sorted(m.key for m in diff.coeffs)}")

    star_ok = star_psi == star_closed
    if not star_ok:
        diff = star_psi - star_closed
        details.append(f"star closed form mismatch on {sorted(m.key for m in diff.coeffs)}")

    return PsiIdentityReport(
        wedge_certificates=wedge_ok,
        exact_primitive=primitive_ok,
        dstar_eigenvalue=dstar_ok,
        star_formula=star_ok,
        details=tuple(details),
    )
