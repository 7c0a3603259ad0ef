"""The two co-flows as ODE systems on the scale parameters (a, b, c).

Evolving the dual 4-form within the invariant family is equivalent to an ODE
system for the monomials (c^4, a b c^2, a^2 c^2), which carry the four
independent coefficients of the 4-form.  The right-hand sides below are
hand-coded polynomial rates for those monomials; the state rates
(da/dt, db/dt, dc/dt) are recovered by inverting the Jacobian of
(a, b, c) -> (c^4, a b c^2, a^2 c^2) by back substitution.  Both layers are
dtype-generic: they accept exact rationals as well as float64 or extended
precision scalars.

Flavors:

 * normalized_coflow:  d(psi)/dt = Lap(psi) - kappa^2 psi
 * modified_coflow:    d(psi)/dt = Lap(psi)
        + (1/2) d((5 gamma kappa - 7 tau0) phi) + (5/2)(1 - gamma) kappa^2 psi

The hand-coded rates never stand alone: symbolic_rhs_crosscheck recomputes
the right-hand side inside the exact exterior-algebra modules and compares
coefficient by coefficient.

Every float caller but the complex-step linearization (the integrator,
the residual checks, the volume-rate probe) evaluates the flow through one
guarded helper, guarded_rhs, which returns None off the domain.  The
adaptive integrator works on 3-tuples of scalars rather than numpy arrays:
for 3-vectors the array wrapping cost several times the arithmetic.  A
float64 run computes in Python floats, which are the same IEEE doubles; a
longdouble run computes in numpy.longdouble scalars throughout, including
the tableau, the stage sums and the error norm, so no stage is rounded to
double.  Stage sums add their terms in tableau order, per component; the
tests pin trajectories bit for bit, so that order is part of the contract.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable, Sequence

import numpy as np

from .g2_ansatz import _laplacian_psi, _tau0, ansatz_4form, build, tau0_terms, tau3_norm_sq_terms
from .invariant_forms import (
    GeometryParams,
    _as_scalar,
    exterior_derivative,
)

NORMALIZED = "normalized_coflow"
MODIFIED = "modified_coflow"
FLAVORS = (NORMALIZED, MODIFIED)


@dataclass(frozen=True)
class FlowConfig:
    """Flavor, constants and step control for one integration run.

    `reference` plus `escape_radius` arm the diverged-from-critical stop:
    once the state leaves the ball of that radius around the reference
    point, integration ends with that reason.  `tol_conv = 0` disables the
    convergence stop (useful for running out the full horizon).
    """

    flavor: str = NORMALIZED
    kappa: float = 4.0
    gamma: float = 3.0
    eps: int = -1
    t_max: float = 10.0
    first_step: float = 1e-4
    rtol: float = 1e-10
    atol: float = 1e-12
    max_steps: int = 100_000
    floor: float = 1e-8
    ceiling: float = 1e8
    tol_conv: float = 1e-8
    reference: tuple[float, float, float] | None = None
    escape_radius: float = 1e-1
    dtype: Any = np.float64

    def __post_init__(self) -> None:
        if self.flavor not in FLAVORS:
            raise ValueError(f"unknown flavor {self.flavor!r}, expected one of {FLAVORS}")
        if self.eps not in (+1, -1):
            raise ValueError(f"eps must be +1 or -1, got {self.eps}")
        for name in ("kappa", "gamma", "t_max", "first_step", "rtol", "atol", "floor",
                     "ceiling", "tol_conv", "escape_radius"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if not self.kappa > 0:
            raise ValueError("kappa must be positive")
        for name in ("t_max", "first_step", "rtol", "atol", "floor", "ceiling", "escape_radius"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        if self.tol_conv < 0:
            raise ValueError("tol_conv must be non-negative")
        if self.max_steps < 1:
            raise ValueError("max_steps must be at least 1")


@dataclass(frozen=True)
class FlowState:
    t: float
    a: float
    b: float
    c: float


def _coords(state) -> tuple:
    if isinstance(state, FlowState):
        return (state.a, state.b, state.c)
    a, b, c = state
    return (a, b, c)


def tau0_state(a, b, c, eps):
    """Scalar torsion of the state, from the closed form `tau0_terms` with q = c^2."""
    num, den = tau0_terms(a, b, c * c, eps)
    return num / den


def monomial_rates(flavor: str, a, b, q, kappa, gamma, eps) -> tuple:
    """Time derivatives of (c^4, a b c^2, a^2 c^2) with q = c^2.

    Only even powers of c appear, so the rates are rational in (a, b, q)
    and stay exact on exact inputs.  gamma is ignored by the normalized
    flavor.
    """
    if flavor == NORMALIZED:
        u1 = 8 * (2 * a * a + b * b + 2 * q + 2 * eps * b * q / a - b * b * q / (a * a)) \
            - kappa * kappa * q * q
        u2 = 4 * (eps * b * b + 4 * a ** 3 * b / q + 2 * eps * a * a * b * b / q
                  + 2 * b * q / a - eps * b * b * q / (a * a)) - kappa * kappa * a * b * q
        u3 = 4 * (2 * a * a - b * b + 2 * q + 4 * eps * a ** 3 * b / q + 2 * a * a * b * b / q
                  - 2 * eps * b * q / a + b * b * q / (a * a)) - kappa * kappa * a * a * q
        return (u1, u2, u3)
    if flavor == MODIFIED:
        u1 = (-48 * a * a - 8 * b * b - 48 * q + 10 * eps * gamma * kappa * b * q
              + 20 * gamma * kappa * a * q - 64 * eps * a * b
              + 5 * (1 - gamma) * kappa * kappa * q * q / 2)
        u2 = (-8 * b * q / a + 5 * gamma * kappa * a * a * b + 5 * gamma * kappa * b * q
              - 32 * a * b + 5 * (1 - gamma) * kappa * kappa * a * b * q / 2)
        u3 = (-24 * a * a + 8 * b * b - 24 * q + 16 * eps * b * q / a
              + 5 * eps * gamma * kappa * a * a * b + 10 * gamma * kappa * a * q
              - 5 * eps * gamma * kappa * b * q - 16 * eps * a * b
              + 5 * (1 - gamma) * kappa * kappa * a * a * q / 2)
        return (u1, u2, u3)
    raise ValueError(f"unknown flavor {flavor!r}")


def state_rates(a, b, c, u: tuple) -> tuple:
    """Invert the monomial Jacobian by back substitution.

    The Jacobian of (a, b, c) -> (c^4, a b c^2, a^2 c^2) is triangular
    enough to solve by hand, which keeps the solve dtype-generic (a library
    solve would pin the dtype).
    """
    u1, u2, u3 = u
    dc = u1 / (4 * c ** 3)
    da = (u3 - 2 * a * a * c * dc) / (2 * a * c * c)
    db = (u2 - b * c * c * da - 2 * a * b * c * dc) / (a * c * c)
    return (da, db, dc)


def _require_positive(a, b, c) -> None:
    if not (a > 0 and b > 0 and c > 0):
        raise ValueError(f"state must be positive, got ({a}, {b}, {c})")


def rhs_normalized(state, kappa, eps) -> tuple:
    """(da/dt, db/dt, dc/dt) of the normalized flow."""
    a, b, c = _coords(state)
    _require_positive(a, b, c)
    return state_rates(a, b, c, monomial_rates(NORMALIZED, a, b, c * c, kappa, None, eps))


def rhs_modified(state, kappa, gamma, eps) -> tuple:
    """(da/dt, db/dt, dc/dt) of the modified flow."""
    a, b, c = _coords(state)
    _require_positive(a, b, c)
    return state_rates(a, b, c, monomial_rates(MODIFIED, a, b, c * c, kappa, gamma, eps))


def guarded_rhs(flavor: str, y, kappa, gamma, eps) -> tuple | None:
    """(da/dt, db/dt, dc/dt) at y = (a, b, c), or None off the flow's domain.

    None when a scale is not positive or a rate is not finite, including
    an overflow or a division by zero that Python floats raise on.  The
    rates come back in the scalar type of y; the finiteness test is
    `x - x == 0`, which keeps longdouble scalars out of float conversion.
    """
    a, b, c = y
    if not (a > 0 and b > 0 and c > 0):
        return None
    try:
        da, db, dc = state_rates(a, b, c, monomial_rates(flavor, a, b, c * c, kappa, gamma, eps))
    except ArithmeticError:
        return None
    if da - da == 0 and db - db == 0 and dc - dc == 0:
        return (da, db, dc)
    return None


def symbolic_rhs_crosscheck(params: GeometryParams, kappa, gamma, flavor: str) -> bool:
    """Validate the hand-coded monomial rates against the exact algebra.

    The right-hand side 4-form is rebuilt from the Laplacian, torsion and
    scaling terms using only the exterior-algebra modules, then compared
    coefficient by coefficient with the hand-coded rates mapped through
    `ansatz_4form`.  kappa and gamma must be exact (int or Fraction).
    Returns True; raises ValueError naming the mismatched monomials.
    """
    kap = _as_scalar(kappa)
    ans = build(params)
    dphi = exterior_derivative(ans.phi)
    if flavor == NORMALIZED:
        rate_form = _laplacian_psi(ans, dphi) - kap * kap * ans.psi
        gam = None
    elif flavor == MODIFIED:
        gam = _as_scalar(gamma)
        t0 = _tau0(ans, dphi)
        rate_form = (_laplacian_psi(ans, dphi)
                     + Fraction(1, 2) * ((5 * gam * kap - 7 * t0) * dphi)
                     + (Fraction(5, 2) * (1 - gam) * kap * kap) * ans.psi)
    else:
        raise ValueError(f"unknown flavor {flavor!r}")

    rates = monomial_rates(flavor, params.a, params.b, params.q, kap, gam, params.eps)
    diff = rate_form - ansatz_4form(rates, params.eps)
    if not diff.is_zero():
        raise ValueError(f"right-hand sides disagree at {sorted(m.key for m in diff.coeffs)}: "
                         f"algebra minus hand-coded rates is {diff.to_json_dict()}")
    return True


def reduced_xy_rhs(X, Y, eps) -> tuple:
    """Scale-invariant reduction in X = a^2/c^2, Y = ab/c^2, per unit s with ds = dt/c^2."""
    if not (X > 0 and Y > 0):
        raise ValueError(f"reduced coordinates must be positive, got ({X}, {Y})")
    dX = (4 / (X * X)) * ((X + 1) * Y * Y + 2 * eps * (2 * X * X - 2 * X - 1) * X * Y
                          - 2 * X * X * (2 * X - 1) * (X + 1))
    dY = (4 * Y / (X * X)) * (2 * (1 - X) * Y * Y + eps * (2 * X * X - 3 * X - 1) * Y
                              + 2 * X * (1 - 2 * X))
    return (dX, dY)


def scaling_ode_rhs(mu, kappa, gamma, flavor: str):
    """Rate of the relative scale mu of a trajectory against its attractor."""
    if not mu > 0:
        raise ValueError(f"mu must be positive, got {mu}")
    if flavor == NORMALIZED:
        return kappa * kappa * (1 - mu * mu) / (4 * mu)
    if flavor == MODIFIED:
        return 5 * kappa * kappa * (mu * (1 - gamma) + 1) * (mu - 1) / (8 * mu)
    raise ValueError(f"unknown flavor {flavor!r}")


# Dormand-Prince 5(4) tableau, kept as exact rationals and materialized per
# dtype so extended-precision runs do not inherit float64 rounding.
_DP_A = (
    (),
    (Fraction(1, 5),),
    (Fraction(3, 40), Fraction(9, 40)),
    (Fraction(44, 45), Fraction(-56, 15), Fraction(32, 9)),
    (Fraction(19372, 6561), Fraction(-25360, 2187), Fraction(64448, 6561), Fraction(-212, 729)),
    (Fraction(9017, 3168), Fraction(-355, 33), Fraction(46732, 5247), Fraction(49, 176),
     Fraction(-5103, 18656)),
    (Fraction(35, 384), Fraction(0), Fraction(500, 1113), Fraction(125, 192),
     Fraction(-2187, 6784), Fraction(11, 84)),
)
_DP_E = (Fraction(71, 57600), Fraction(0), Fraction(-71, 16695), Fraction(71, 1920),
         Fraction(-17253, 339200), Fraction(22, 525), Fraction(-1, 40))

_TABLEAU_CACHE: dict = {}


def _scalar_type(dt: np.dtype):
    """Scalar type the step loop computes in for a dtype.

    Python float for float64: the same IEEE double arithmetic as
    numpy.float64 scalars at a fraction of the cost per operation.  Every
    other dtype (longdouble) keeps its numpy scalar type, so each stage sum,
    right-hand side and error norm stays in that precision.
    """
    return float if dt == np.float64 else dt.type


def _tableau(dt: np.dtype):
    """(stage rows, error weights) as tuples of the dtype's loop scalars."""
    if dt not in _TABLEAU_CACHE:
        scalar = _scalar_type(dt)

        def conv(row):
            return tuple(scalar(dt.type(f.numerator) / dt.type(f.denominator)) for f in row)

        _TABLEAU_CACHE[dt] = (tuple(conv(row) for row in _DP_A), conv(_DP_E))
    return _TABLEAU_CACHE[dt]


@dataclass
class Trajectory:
    """Accepted integration samples plus scalars derived from each state.

    The derived columns are always recomputed from (a, b, c); nothing is
    integrated twice.  A quotient column whose denominator underflowed to
    zero (a start far below the floor) is recorded as nan.  The run
    counters are `rhs_evals` (right-hand-side calls), `rejected` (steps the
    error control refused) and `nonfinite_retries` (steps retried because a
    stage left the domain of the flow or the error norm was not finite);
    they are not written to the sidecar.
    """

    config: FlowConfig
    states: list[FlowState] = field(default_factory=list)
    tau0: list[float] = field(default_factory=list)
    volume: list[float] = field(default_factory=list)
    X: list[float] = field(default_factory=list)
    Y: list[float] = field(default_factory=list)
    reason: str = "max-steps"
    steps: int = 0
    rhs_evals: int = 0
    rejected: int = 0
    nonfinite_retries: int = 0

    def _append(self, t, y) -> None:
        a, b, c = float(y[0]), float(y[1]), float(y[2])
        q = c * c
        self.states.append(FlowState(float(t), a, b, c))
        try:
            t0, x, yy = tau0_state(a, b, c, self.config.eps), a * a / q, a * b / q
        except ZeroDivisionError:
            # a^2 c^2 or c^2 underflowed to zero: a state far below the floor
            t0 = math.nan
            x, yy = (a * a / q, a * b / q) if q else (math.nan, math.nan)
        self.tau0.append(t0)
        self.volume.append(a * a * b * q * q)
        self.X.append(x)
        self.Y.append(yy)

    @property
    def final_state(self) -> FlowState:
        return self.states[-1]

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "a", "b", "c", "tau0", "V", "X", "Y"])
            rows = zip(self.states, self.tau0, self.volume, self.X, self.Y)
            for st, t0, vol, x, yy in rows:
                writer.writerow([format(v, ".17g") for v in (st.t, st.a, st.b, st.c, t0, vol, x, yy)])

    def sidecar_dict(self) -> dict:
        fin = self.final_state
        return {
            "reason": self.reason,
            "steps": self.steps,
            "final_state": {"t": fin.t, "a": fin.a, "b": fin.b, "c": fin.c},
        }

    def write_sidecar(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.sidecar_dict(), fh, indent=2)
            fh.write("\n")


def _stop_reason(config: FlowConfig, y: tuple, k: tuple, ref: tuple | None, sqrt) -> str | None:
    a, b, c = y
    if min(a, b, c) < config.floor:
        return "degeneracy"
    if max(a, b, c) > config.ceiling:
        return "blow-up"
    if ref is not None:
        d0, d1, d2 = a - ref[0], b - ref[1], c - ref[2]
        if float(sqrt(d0 * d0 + d1 * d1 + d2 * d2)) > config.escape_radius:
            return "diverged-from-critical"
    k0, k1, k2 = k
    if float(sqrt(k0 * k0 + k1 * k1 + k2 * k2)) < config.tol_conv:
        return "converged"
    return None


def integrate(config: FlowConfig, initial: FlowState) -> Trajectory:
    """Adaptive embedded Runge-Kutta 5(4) run with first-same-as-last reuse.

    Stops with one of: "converged" (|rhs| below tol_conv), "degeneracy"
    (a scale under the floor, also at a start whose right-hand side does
    not evaluate), "blow-up" (a scale over the ceiling, likewise),
    "diverged-from-critical" (left the reference ball), "horizon" (reached
    t_max), "max-steps".  The error control is an RMS norm of the embedded
    difference against atol + rtol * |y|.

    The state, the stage slopes and the tableau are 3-tuples of the run's
    scalar type (see `_scalar_type`) and every stage sum is written out per
    component, adding terms in tableau order.  The seventh stage is
    evaluated at the new point itself, so its slope is the first slope of
    the next step: an attempt costs six right-hand-side calls.
    """
    a0, b0, c0 = _coords(initial)
    _require_positive(a0, b0, c0)
    if not all(np.isfinite(v) for v in (a0, b0, c0, initial.t)):
        raise ValueError("initial state must be finite")

    dt = np.dtype(config.dtype)
    scalar = _scalar_type(dt)
    sqrt = math.sqrt if scalar is float else np.sqrt
    A, E = _tableau(dt)
    flavor, kap, gam, eps = config.flavor, config.kappa, config.gamma, config.eps
    atol, rtol = config.atol, config.rtol

    y = tuple(scalar(v) for v in np.array([a0, b0, c0], dtype=dt))
    t = scalar(dt.type(initial.t))
    t_max = scalar(dt.type(config.t_max))
    ref = None
    if config.reference is not None:
        ref = tuple(scalar(v) for v in np.asarray(config.reference, dtype=dt))
    shrink = scalar(0.2)

    traj = Trajectory(config=config)
    traj._append(t, y)
    k1 = guarded_rhs(flavor, y, kap, gam, eps)
    if k1 is None and config.floor <= min(y) and max(y) <= config.ceiling:
        raise ValueError("right-hand side is not finite at the initial state")

    # a start beyond the floor or the ceiling stops at once, whatever its slope
    reason = _stop_reason(config, y, k1, ref, sqrt)
    h = scalar(dt.type(config.first_step))
    steps = attempts = rejected = retries = 0
    rhs_evals = 1

    while reason is None:
        if steps >= config.max_steps or attempts >= 10 * config.max_steps:
            reason = "max-steps"
            break
        if t >= t_max:
            reason = "horizon"
            break

        final_step = h >= t_max - t
        if final_step:
            h = t_max - t
        attempts += 1

        ks = [k1]
        for row in A[1:]:
            s0 = s1 = s2 = 0
            for w, k in zip(row, ks):
                s0 += w * k[0]
                s1 += w * k[1]
                s2 += w * k[2]
            y_new = (y[0] + h * s0, y[1] + h * s1, y[2] + h * s2)
            ki = guarded_rhs(flavor, y_new, kap, gam, eps)
            rhs_evals += 1
            if ki is None:
                break
            ks.append(ki)
        if len(ks) < 7:
            retries += 1
            h = h * shrink
            continue

        # the last stage point is the new point; the error weights include its slope
        e0 = e1 = e2 = 0
        for w, k in zip(E, ks):
            e0 += w * k[0]
            e1 += w * k[1]
            e2 += w * k[2]
        r0 = h * e0 / (atol + rtol * max(abs(y[0]), abs(y_new[0])))
        r1 = h * e1 / (atol + rtol * max(abs(y[1]), abs(y_new[1])))
        r2 = h * e2 / (atol + rtol * max(abs(y[2]), abs(y_new[2])))
        enorm = float(sqrt((r0 * r0 + r1 * r1 + r2 * r2) / 3))
        if not math.isfinite(enorm):
            retries += 1
            h = h * shrink
            continue

        if enorm <= 1.0:
            t = t_max if final_step else t + h
            y = y_new
            k1 = ks[6]
            steps += 1
            traj._append(t, y)
            reason = _stop_reason(config, y, k1, ref, sqrt)
            if reason is None and t >= t_max:
                reason = "horizon"
            grow = 5.0 if enorm == 0.0 else min(5.0, max(0.2, 0.9 * enorm ** -0.2))
            h = h * scalar(grow)
        else:
            rejected += 1
            h = h * scalar(max(0.2, min(1.0, 0.9 * enorm ** -0.2)))

    traj.reason = reason
    traj.steps = steps
    traj.rhs_evals = rhs_evals
    traj.rejected = rejected
    traj.nonfinite_retries = retries
    return traj


def _rk4_step(f: Callable, y: tuple, h: float) -> tuple:
    k1 = f(y)
    k2 = f(tuple(v + (h / 2) * k for v, k in zip(y, k1)))
    k3 = f(tuple(v + (h / 2) * k for v, k in zip(y, k2)))
    k4 = f(tuple(v + h * k for v, k in zip(y, k3)))
    return tuple(v + (h / 6) * (s1 + 2 * s2 + 2 * s3 + s4)
                 for v, s1, s2, s3, s4 in zip(y, k1, k2, k3, k4))


def hitchin_volume(state) -> float:
    """Total volume a^2 b c^4 of the structure, per unit base volume."""
    a, b, c = _coords(state)
    return float(a) ** 2 * float(b) * float(c) ** 4


def hitchin_rate(state, kappa, gamma, eps) -> float:
    """Instantaneous volume rate dV/dt along the modified flow.

    The first variation of the volume functional along a 4-form velocity is
    (1/4) of its pairing with the structure 4-form, integrated; on this
    family that evaluates to

        (1/4) (|tau3|^2 - (35/2)(tau0 - kappa)(tau0 - (gamma-1) kappa)) V.

    tau0 and |tau3|^2 come from the closed forms `tau0_terms` and
    `tau3_norm_sq_terms`, which identity_suite checks against the exact
    algebra.  They are evaluated exactly at the floats (a, b, c) and rounded
    once, then the prefactor is applied in floating point.  The floats are
    written as integers over one power of two D, and the closed forms are
    homogeneous (degree -1 and -2, q of weight 2), so all the exact work is
    in Python ints.  a and b must be positive and c non-zero.
    """
    a, b, c = (float(v) for v in _coords(state))
    (na, da), (nb, db), (nc, dc) = (v.as_integer_ratio() for v in (a, b, c))
    if not (a > 0 and b > 0 and c != 0):
        raise ValueError(f"scales must be positive, got ({a}, {b}, {c})")
    if eps not in (+1, -1):
        raise ValueError(f"eps must be +1 or -1, got {eps}")
    d = max(da, db, dc)
    ia, ib, ic = na * (d // da), nb * (d // db), nc * (d // dc)
    num0, den0 = tau0_terms(ia, ib, ic * ic, eps)
    num3, den3 = tau3_norm_sq_terms(ia, ib, ic * ic, eps)
    # int / int rounds the exact quotient once, as float(Fraction) does
    t0 = num0 * d / den0
    n2 = num3 * d * d / den3
    vol = hitchin_volume((a, b, c))
    return 0.25 * (n2 - 17.5 * (t0 - kappa) * (t0 - (gamma - 1) * kappa)) * vol


def hitchin_rate_check(trajectory: Trajectory, kappa, gamma,
                       probe_step: float = 1e-5, max_samples: int = 40) -> float:
    """Worst relative error between finite-difference dV/dt and the rate formula.

    Each interior sample is probed with two fixed-step fourth-order micro
    steps of the exact flow through that point and a centered difference of
    V; probing keeps the difference-quotient truncation error far below the
    comparison tolerance, which spacing of the accepted steps would not.
    """
    cfg = trajectory.config
    if cfg.flavor != MODIFIED:
        raise ValueError("volume-rate check applies to modified-flow trajectories")
    states = trajectory.states
    if len(states) < 3:
        raise ValueError("trajectory too short for interior finite differences")

    eps = cfg.eps

    def f(y):
        rates = guarded_rhs(MODIFIED, y, kappa, gamma, eps)
        if rates is None:
            raise ValueError("volume-rate probe left the domain of the flow")
        return rates

    interior = range(1, len(states) - 1)
    stride = max(1, len(states) // max_samples)
    worst = 0.0
    for i in list(interior)[::stride]:
        st = states[i]
        y = (st.a, st.b, st.c)
        y_fwd = _rk4_step(f, y, probe_step)
        y_bwd = _rk4_step(f, y, -probe_step)
        fd = (hitchin_volume(y_fwd) - hitchin_volume(y_bwd)) / (2 * probe_step)
        rate = hitchin_rate(y, kappa, gamma, eps)
        # scale floor keeps the ratio meaningful on stationary trajectories
        scale = max(abs(rate), abs(fd), 1e-9 * kappa ** 3 * hitchin_volume(y))
        worst = max(worst, abs(fd - rate) / scale)
    return worst
