"""The tests' two linearizations of the modified flow at its nearly parallel points.

The library decides every spectrum from its exact tables (`_EIGENBASIS`,
`_SPECTRA`, `_PROJECTORS` in `coflow.stability`), and the sympy tests prove
those tables.  This module keeps the linearizations the tables are checked
against.  `jacobian` is the complex-step derivative of the one float
right-hand side, refused at the same constants and cut at the same range as
`classify`.  `analytic_jacobian` is the tables' sum V diag(lambda) V^-1 at
float or symbolic kappa and gamma, through the same `_table_linearization`
that `classify` runs.  Import them as
`from _linearization import analytic_jacobian, jacobian`.
"""

from __future__ import annotations

import numpy as np

from coflow.coflow_dynamics import MODIFIED, monomial_rates, state_rates
from coflow.invariant_forms import _constants
from coflow.stability import (
    LABEL_PRINCIPAL,
    _SPECTRA,
    CriticalPoint,
    _check_point,
    _range_cut,
    _table_linearization,
)


def analytic_jacobian(eps: int, kappa: float, gamma: float) -> np.ndarray:
    """The modified flow's linearization at its tau0 = kappa point, V diag(lambda) V^-1.

    V has the eigenbasis as columns and lambda is the point's `_SPECTRA` row;
    kappa and gamma, floats or positive sympy symbols, pass `_constants`.
    """
    eps = _constants(MODIFIED, kappa, gamma, eps)
    lam = [kappa ** 2 * (c0 + c1 * gamma + c2 * gamma ** 2) / 72
           for c0, c1, c2 in _SPECTRA[MODIFIED, eps, LABEL_PRINCIPAL]]
    return np.array(_table_linearization(lam, eps, 1))


def _rhs_jacobian(flavor, y, kappa, gamma, eps) -> np.ndarray | None:
    """d(da/dt, db/dt, dc/dt)/d(a, b, c) at y by complex-step differentiation.

    Column j is Im f(y + i h e_j) / h with h = 1e-20 |y_j| (Squire and
    Trapp, SIAM Review 40, 1998), no difference of nearby values, but at tiny
    states, from kappa ~ 1e75 up, the imaginary parts go subnormal and lose
    bits.  None when the rates raise ArithmeticError or an entry is not finite.
    """
    jac = np.empty((3, 3))
    for j in range(3):
        h = 1e-20 * abs(y[j])
        a, b, c = (v + (h * 1j if i == j else 0j) for i, v in enumerate(y))
        try:
            rates = state_rates(a, b, c, monomial_rates(flavor, a, b, c * c, kappa, gamma, eps))
            jac[:, j] = [r.imag / h for r in rates]
        except ArithmeticError:
            return None
    return jac if np.isfinite(jac).all() else None


def jacobian(flavor: str, point: CriticalPoint, kappa, gamma, eps: int):
    """(complex-step matrix, analytic twin or None) in (A, B, C) coordinates.

    Computed at the point's own constants: flavor, eps and kappa (read as
    find_critical_points reads it), and gamma for the modified flavor, must
    be the point's own, or ValueError names the one that differs; the
    normalized flavor ignores gamma.  The point is its label's closed form
    by construction, at the state it derived.  Since (A, B, C) is
    q (delta a / a, delta b / b, delta c / c), the (a, b, c) matrix J becomes
    J_ij y_j / y_i at the point y, so the analytic matrices apply literally.
    When the twin exists the two must agree to 1e-12 in relative sup norm.
    """
    _check_point(flavor, point, kappa, gamma, eps)
    flavor, eps = point.flavor, point.eps

    kap, gam = float(point.kappa), None if point.gamma is None else float(point.gamma)
    y = point.state
    jac = _rhs_jacobian(flavor, y, kap, gam, eps)
    _range_cut(jac)  # from kappa ~ 1e77 up the complex-step J is wrong

    ys = np.array(y)
    num = jac * ys / ys[:, None]

    ana = None
    if flavor == MODIFIED and point.label == LABEL_PRINCIPAL:
        ana = analytic_jacobian(eps, kap, gam)
        rel = float(np.max(np.abs(num - ana)) / np.max(np.abs(ana)))
        if rel > 1e-12:
            raise AssertionError(f"complex-step and analytic linearizations disagree: {rel:.2e}")
    return num, ana
