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

The rates have one source, the `_rates` factory, which multiplies out the
constant prefixes of a flavor once; monomial_rates, and through it the
rhs_* functions, calls it.  The normalized rates are Lap(psi) - kappa^2 psi,
so `_rates` returns the closure of `g2_ansatz._laplacian_rates`, the one
hand-coded copy of the Laplacian, with kk = kappa^2; reduced_xy_rhs is
derived from the same closure.  The modified flavor keeps its own expanded
polynomial: building it from Lap(psi) + (1/2)(5 gamma kappa - 7 tau0) dphi
would reorder its floating-point operations, which the trajectory pins fix
bit for bit.  On exact inputs (a, b, q, kappa and gamma all int or
Fraction) monomial_rates evaluates the same closure through
`invariant_forms._exactly`, over unreduced integer ratios reduced once per
rate, so symbolic_rhs_crosscheck and the equilibrium proof of
`stability.find_critical_points` pay no gcd per operation; every other
scalar type calls the closure directly.  Every float caller in the
package (the integrator, the residual checks, the volume-rate probe)
evaluates the flow through a guarded closure from
`_guarded_flow`, which returns None off the domain: integrate and
hitchin_rate_check build one per run.  The adaptive integrator works on
3-tuples of scalars rather than numpy arrays: for 3-vectors the array
wrapping cost several times the arithmetic.  A float64 run computes in
Python floats, which are the same IEEE doubles; a longdouble run computes
in numpy.longdouble scalars throughout, including the tableau, the stage
sums and the error norm, so no stage is rounded to double.  The
Dormand-Prince step is written out: each stage sum and the error sum add
their terms in tableau order, per component, with plain `+` (never `sum`,
which compensates on Python 3.12).  The tests pin trajectories bit for bit,
so that written-out order is part of the contract.  The error norm scales
each component by the larger of the old and the new state, picked by one
comparison: the guard keeps both positive, so no absolute value is taken.
An accepted step grows h by a factor in [0.9, 5] and a rejected step
shrinks it by a factor in [0.2, 0.9] (0.9 itself only where enorm^-0.2
rounds to 1), so each keeps only the clamp that can bind, and the loop
calls no min, max or abs.  The loop keeps no
bookkeeping beyond its counters: each accepted step is recorded raw, as
(t, y) in the run's scalar type, and the Trajectory derives its float
states and its tau0, volume, X and Y columns from those records on first
read.

A run's closure holds every constant of the rates, the back substitution
and the guard in the run's scalar type (the `one` argument of
`_guarded_flow`, `_rates`, `_back_substitution` and
`g2_ansatz._laplacian_rates`), so no operation mixes an int with a float or
longdouble scalar; such a mixed operation costs CPython a failed int method
call first, and numpy a conversion of the int.  The public entry points
keep int constants, so exact and complex inputs see ints, and the run's
closure gives the same bits: each constant is an int or an already rounded
value that the conversion holds exactly, IEEE `*` and `/` round the same
exact result whichever operand was converted, and Python still evaluates
each expression left to right.
"""

from __future__ import annotations

import csv
import functools
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from operator import truediv
from typing import Any, Callable

import numpy as np

from .g2_ansatz import (_laplacian_rates, ansatz_4form, build, laplacian_psi, tau0, tau0_terms,
                        tau3_norm_sq_terms)
from .invariant_forms import (FLAVORS, MODIFIED, NORMALIZED, GeometryParams, _above, _as_scalar,
                              _constants, _eps, _exactly)

# the argument types monomial_rates evaluates through _exactly (None is the
# normalized flavor's gamma); tested as a set of types, because isinstance
# against Fraction, an abstract base class, added about 1 us to each float call
_EXACT_TYPES = frozenset((int, Fraction, type(None)))

# the dtypes a run computes in (see _scalar_type)
_DTYPES = (np.dtype(np.float64), np.dtype(np.longdouble))

# every run's first step size, and the floor and ceiling on its scales (see _stop_reason)
_FIRST_STEP, _FLOOR, _CEILING = 1e-4, 1e-8, 1e8


@dataclass(frozen=True)
class FlowConfig:
    """Flavor, constants (read by `invariant_forms._constants`) and step control for one run.

    `reference` plus `escape_radius` arm the diverged-from-critical stop:
    once the state leaves the ball of that radius around the reference
    point, integration ends with that reason.  `tol_conv = 0` disables the
    convergence stop (useful for running out the full horizon).  `dtype`
    is float64 or longdouble, the two a run computes in; any other is
    refused, since the run would round its start and its steps to it.
    The first step size and the floor and ceiling on the scales are the
    same for every run: the module constants `_FIRST_STEP` (1e-4),
    `_FLOOR` (1e-8) and `_CEILING` (1e8).
    """

    flavor: str = NORMALIZED
    kappa: float = 4.0
    gamma: float = 3.0
    eps: int = -1
    t_max: float = 10.0
    rtol: float = 1e-10
    atol: float = 1e-12
    max_steps: int = 100_000
    tol_conv: float = 1e-8
    reference: tuple[float, float, float] | None = None
    escape_radius: float = 1e-1
    dtype: Any = np.float64

    def __post_init__(self) -> None:
        for name in ("kappa", "gamma", "t_max", "rtol", "atol", "tol_conv", "escape_radius"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        object.__setattr__(self, "eps", _constants(self.flavor, self.kappa, self.gamma, self.eps))
        for name in ("t_max", "rtol", "atol", "escape_radius"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        if self.tol_conv < 0:
            raise ValueError("tol_conv must be non-negative")
        if self.max_steps < 1:
            raise ValueError("max_steps must be at least 1")
        try:
            known = np.dtype(self.dtype) in _DTYPES
        except TypeError:  # not a dtype at all, such as 'foo'
            known = False
        if not known:
            raise ValueError(f"dtype must be float64 or longdouble, got {self.dtype!r}")


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
    num, den = tau0_terms(a, b, c * c, _eps(eps))
    return num / den


def _rates(flavor: str, kappa, gamma, eps, one=1) -> Callable:
    """rates(a, b, q): time derivatives of (c^4, a b c^2, a^2 c^2) with q = c^2.

    The normalized rates are `_laplacian_rates` with kk = kappa^2.  The
    modified rates are hand-coded here; their constant left prefixes are
    multiplied out once, and Python evaluates
    `10 * eps * gamma * kappa * b * q` left to right, so the rates are the
    same to the bit as with the prefixes written inline.  gamma is ignored
    by the normalized flavor.  Every constant is held as that value times
    `one`, as in `_laplacian_rates`: a prefix is formed from kappa and gamma
    first and converted after, so it keeps the bits it had.
    """
    if flavor == NORMALIZED:
        return _laplacian_rates(eps, kappa * kappa, one)
    if flavor == MODIFIED:
        gk5, gk10, gk20 = (5 * gamma * kappa * one, 10 * gamma * kappa * one,
                           20 * gamma * kappa * one)
        egk5, egk10 = 5 * eps * gamma * kappa * one, 10 * eps * gamma * kappa * one
        eps16, eps64 = 16 * eps * one, 64 * eps * one
        scale = 5 * (1 - gamma) * kappa * kappa * one
        # p and m: plus and minus
        two, eight, p24, p32, p48 = 2 * one, 8 * one, 24 * one, 32 * one, 48 * one
        m8, m24, m48 = -8 * one, -24 * one, -48 * one

        def rates(a, b, q):
            u1 = (m48 * a * a - eight * b * b - p48 * q + egk10 * b * q + gk20 * a * q
                  - eps64 * a * b + scale * q * q / two)
            u2 = (m8 * b * q / a + gk5 * a * a * b + gk5 * b * q - p32 * a * b
                  + scale * a * b * q / two)
            u3 = (m24 * a * a + eight * b * b - p24 * q + eps16 * b * q / a + egk5 * a * a * b
                  + gk10 * a * q - egk5 * b * q - eps16 * a * b + scale * a * a * q / two)
            return (u1, u2, u3)
        return rates
    raise ValueError(f"unknown flavor {flavor!r}")


def monomial_rates(flavor: str, a, b, q, kappa, gamma, eps) -> tuple:
    """Time derivatives of (c^4, a b c^2, a^2 c^2) with q = c^2.

    Only even powers of c appear, so the rates are rational in (a, b, q)
    and stay exact on exact inputs.  They are the rate polynomial at any
    kappa, so only eps is read, by `invariant_forms._eps`; gamma is ignored
    by the normalized flavor.  When a, b, q, kappa and gamma (unless None)
    are all int or Fraction, the rates are evaluated over unreduced integer
    ratios (`invariant_forms._exactly`) and come back as Fractions; any
    other scalars go through the closure as they are.
    """
    eps = _eps(eps)
    if {type(a), type(b), type(q), type(kappa), type(gamma)} <= _EXACT_TYPES:
        return _exactly(lambda a, b, q, kappa, gamma: _rates(flavor, kappa, gamma, eps)(a, b, q),
                        a, b, q, kappa, gamma)
    return _rates(flavor, kappa, gamma, eps)(a, b, q)


def _back_substitution(one) -> Callable:
    """state_rates with its constants held as values times `one`, as in `_rates`."""
    two, four = 2 * one, 4 * one

    def state_rates(a, b, c, u: tuple) -> tuple:
        """Invert the monomial Jacobian by back substitution.

        The Jacobian of (a, b, c) -> (c^4, a b c^2, a^2 c^2) is triangular
        enough to solve by hand, which keeps the solve dtype-generic (a
        library solve would pin the dtype).
        """
        u1, u2, u3 = u
        dc = u1 / (four * c ** 3)
        da = (u3 - two * a * a * c * dc) / (two * a * c * c)
        db = (u2 - b * c * c * da - two * a * b * c * dc) / (a * c * c)
        return (da, db, dc)
    return state_rates


# the public solve keeps int constants, so exact and complex inputs see ints
state_rates = _back_substitution(1)


def _require_positive(a, b, c) -> None:
    if not (a > 0 and b > 0 and c > 0):
        raise ValueError(f"state must be positive, got ({a}, {b}, {c})")


def _rhs(flavor: str, state, kappa, gamma, eps) -> tuple:
    eps = _constants(flavor, kappa, gamma, eps)
    a, b, c = _coords(state)
    _require_positive(a, b, c)
    return state_rates(a, b, c, monomial_rates(flavor, a, b, c * c, kappa, gamma, eps))


def rhs_normalized(state, kappa, eps) -> tuple:
    """(da/dt, db/dt, dc/dt) of the normalized flow."""
    return _rhs(NORMALIZED, state, kappa, None, eps)


def rhs_modified(state, kappa, gamma, eps) -> tuple:
    """(da/dt, db/dt, dc/dt) of the modified flow."""
    return _rhs(MODIFIED, state, kappa, gamma, eps)


def _guarded_flow(flavor: str, kappa, gamma, eps, one=1) -> Callable:
    """f(y): (da/dt, db/dt, dc/dt) at y = (a, b, c), or None off the flow's domain.

    None when a scale is not positive or a rate is not finite, including
    an overflow or a division by zero that Python floats raise on.  The
    rates come back in the scalar type of y; the finiteness test is
    `x - x == 0`, which keeps longdouble scalars out of float conversion.
    Build it once per run, with `one` of the run's scalar type: the
    constants are folded into the rates, the back substitution and the
    guard's zero then, already converted to that type.
    """
    rates = _rates(flavor, kappa, gamma, eps, one)
    solve = _back_substitution(one)
    zero = 0 * one

    def f(y):
        a, b, c = y
        if not (a > zero and b > zero and c > zero):
            return None
        try:
            d = solve(a, b, c, rates(a, b, c * c))
        except ArithmeticError:
            return None
        da, db, dc = d
        if da - da == zero and db - db == zero and dc - dc == zero:
            return d
        return None
    return f


def symbolic_rhs_crosscheck(params: GeometryParams, kappa, gamma, flavor: str) -> bool:
    """Validate the hand-coded monomial rates against the exact algebra.

    The right-hand side 4-form is rebuilt from the Laplacian, torsion and
    scaling terms using only the exterior-algebra modules, then compared
    coefficient by coefficient with the hand-coded rates mapped through
    `ansatz_4form`.  kappa and gamma must be exact (int or Fraction).
    Returns True; raises ValueError naming the mismatched monomials.
    """
    _constants(flavor, kappa, gamma, params.eps)
    kap = _as_scalar(kappa)
    ans = build(params)
    if flavor == NORMALIZED:
        gam, along_dphi, along_psi = None, 0, -kap * kap
    else:
        gam = _as_scalar(gamma)
        along_dphi = Fraction(1, 2) * (5 * gam * kap - 7 * tau0(ans))
        along_psi = Fraction(5, 2) * (1 - gam) * kap * kap
    rate_form = laplacian_psi(ans) + along_dphi * ans.dphi + along_psi * ans.psi

    rates = monomial_rates(flavor, params.a, params.b, params.q, kap, gam, params.eps)
    diff = rate_form - ansatz_4form(rates, params.eps)
    if not diff.is_zero():
        raise ValueError(f"right-hand sides disagree at {sorted(m.key for m in diff.coeffs)}: "
                         f"algebra minus hand-coded rates is {diff.to_json_dict()}")
    return True


def reduced_xy_rhs(X, Y, eps) -> tuple:
    """Scale-invariant reduction in X = a^2/c^2, Y = ab/c^2, per unit s with ds = dt/c^2.

    With q = c^2 and the monomials m = (q^2, a b q, a^2 q), X = m3/m1 and
    Y = m2/m1, so the quotient rule gives, for the monomial rates u,

        dX/dt = (u3 - X u1) / m1,    dY/dt = (u2 - Y u1) / m1,

    and per unit s, with m1 = q^2, dX/ds = (u3 - X u1) / q and likewise for
    Y.  Both are invariant under (a, b, q) -> (l a, l b, l^2 q), so they are
    evaluated at the representative (a, b, q) = (1, Y/X, 1/X), where 1/q = X:

        (dX, dY) = (X (u3 - X u1), X (u2 - Y u1)).

    The normalized flow's -kappa^2 psi term adds -kappa^2 m to u, which
    cancels in both differences since m3 = X m1 and m2 = Y m1; so u is the
    Laplacian's rates alone (kk = 0) and kappa does not enter.  X and Y must
    be positive and finite.
    """
    # nan fails _above, which goes first: a Decimal sNaN signals even on X != inf
    if not (_above(X, 0) and _above(Y, 0) and X != math.inf and Y != math.inf):
        raise ValueError(f"reduced coordinates must be positive and finite, got ({X}, {Y})")
    u1, u2, u3 = _laplacian_rates(_eps(eps), 0)(1, Y / X, 1 / X)
    return (X * (u3 - X * u1), X * (u2 - Y * u1))


def scaling_ode_rhs(mu, kappa, gamma, flavor: str):
    """Rate of the relative scale mu of a trajectory against its attractor."""
    # nan fails _above, which goes first: a Decimal sNaN signals even on mu != inf
    if not (_above(mu, 0) and mu != math.inf):
        raise ValueError(f"mu must be positive and finite, got {mu}")
    _constants(flavor, kappa, gamma, 1)  # the scaling ODE is the same at both eps
    if flavor == NORMALIZED:
        return kappa * kappa * (1 - mu * mu) / (4 * mu)
    return 5 * kappa * kappa * (mu * (1 - gamma) + 1) * (mu - 1) / (8 * mu)


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


def _scalar_type(dt: np.dtype):
    """Scalar type the step loop computes in for a dtype.

    Python float for float64: the same IEEE double arithmetic as
    numpy.float64 scalars at a fraction of the cost per operation.  Every
    other dtype (longdouble) keeps its numpy scalar type, so each stage sum,
    right-hand side and error norm stays in that precision.
    """
    return float if dt == np.float64 else dt.type


@functools.cache
def _tableau(dt: np.dtype):
    """(stage rows, error weights) as tuples of the dtype's loop scalars."""
    scalar = _scalar_type(dt)

    def conv(row):
        return tuple(scalar(f.numerator) / scalar(f.denominator) for f in row)

    return tuple(conv(row) for row in _DP_A), conv(_DP_E)


def _flow_state(record) -> FlowState:
    t, (a, b, c) = record
    return FlowState(float(t), float(a), float(b), float(c))


def _or_nan(f, *args) -> float:
    """f(*args), or nan where a denominator underflowed to zero (a state far below the floor)."""
    try:
        return f(*args)
    except ZeroDivisionError:
        return math.nan


@dataclass
class Trajectory:
    """Accepted integration samples plus scalars derived from each state.

    integrate keeps each accepted step raw, as the pair (t, (a, b, c)) in
    the run's scalar type; the columns `states`, `tau0`, `volume`, `X` and
    `Y` are derived from those records in floats on first read and kept, so
    a run pays for them only if a caller reads them, and `final_state`
    builds the last state alone.  Nothing is integrated twice.  A quotient
    column whose denominator underflowed to zero (a start far below the
    floor) is recorded as nan.  The run counters are `rhs_evals`
    (right-hand-side calls), `rejected` (steps the error control refused)
    and `nonfinite_retries` (steps retried because a stage left the domain
    of the flow or the error norm was not finite); they are not written to
    the sidecar.
    """

    config: FlowConfig
    reason: str = "max-steps"
    steps: int = 0
    rhs_evals: int = 0
    rejected: int = 0
    nonfinite_retries: int = 0
    _records: list[tuple] = field(default_factory=list, init=False, repr=False)

    @functools.cached_property
    def states(self) -> list[FlowState]:
        return [_flow_state(r) for r in self._records]

    @functools.cached_property
    def tau0(self) -> list[float]:
        eps = self.config.eps
        return [_or_nan(tau0_state, s.a, s.b, s.c, eps) for s in self.states]

    @functools.cached_property
    def volume(self) -> list[float]:
        return [s.a * s.a * s.b * (s.c * s.c) * (s.c * s.c) for s in self.states]

    @functools.cached_property
    def X(self) -> list[float]:
        return [_or_nan(truediv, s.a * s.a, s.c * s.c) for s in self.states]

    @functools.cached_property
    def Y(self) -> list[float]:
        return [_or_nan(truediv, s.a * s.b, s.c * s.c) for s in self.states]

    @property
    def final_state(self) -> FlowState:
        return _flow_state(self._records[-1])

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


def _stop_reason(t, t_max, y: tuple, k: tuple, ref: tuple | None, escape_radius, tol_conv,
                 sqrt) -> str | None:
    """The reason a run stops at time t in state y with slope k, or None; "horizon" is decided last."""
    a, b, c = y
    if a < _FLOOR or b < _FLOOR or c < _FLOOR:
        return "degeneracy"
    if a > _CEILING or b > _CEILING or c > _CEILING:
        return "blow-up"
    if ref is not None:
        d0, d1, d2 = a - ref[0], b - ref[1], c - ref[2]
        if float(sqrt(d0 * d0 + d1 * d1 + d2 * d2)) > escape_radius:
            return "diverged-from-critical"
    k0, k1, k2 = k
    if float(sqrt(k0 * k0 + k1 * k1 + k2 * k2)) < tol_conv:
        return "converged"
    if t >= t_max:
        return "horizon"
    return None


def integrate(config: FlowConfig, initial: FlowState) -> Trajectory:
    """Adaptive embedded Runge-Kutta 5(4) run with first-same-as-last reuse.

    Stops with one of: "converged" (|rhs| below tol_conv), "degeneracy"
    (a scale under the floor `_FLOOR`, 1e-8, also at a start whose
    right-hand side does not evaluate), "blow-up" (a scale over the
    ceiling `_CEILING`, 1e8, likewise),
    "diverged-from-critical" (left the reference ball), "horizon" (reached
    t_max), "max-steps".  The first step is `_FIRST_STEP`, 1e-4.  The
    error control is an RMS norm of the embedded difference against
    atol + rtol * s per component, where s is the larger of the old and the
    new state; the guard keeps both positive, so s is the larger |y|
    without an absolute value.  An accepted step (0 < enorm <= 1) grows h
    by 0.9 enorm^-0.2 capped at 5, or by 5 at enorm 0: a factor in [0.9, 5].
    A rejected step (1 < enorm < inf) shrinks h by the same expression
    floored at 0.2: a factor in [0.2, 0.9], below 0.9 in exact arithmetic
    and 0.9 itself where enorm^-0.2 rounds to 1 (enorm just above 1).

    The state and the stage slopes are 3-tuples of the run's scalar type
    (see `_scalar_type`), the tableau is unpacked into scalars of that type
    once per run, and so is the guarded right-hand side.  Every stage sum
    is written out per component, adding terms in tableau order.  The
    seventh stage is evaluated at the new point itself, so its slope is the
    first slope of the next step: an attempt costs six right-hand-side
    calls.  The right-hand side holds its constants in the run's scalar
    type (see the module docstring), and so do atol, rtol and the error
    norm's 3.

    A run whose state runs away need not report "blow-up": the error
    control shrinks the steps as the state grows, so the step budget can
    end the run before a scale reaches the ceiling.
    The modified flow at kappa 4, gamma 3 from +1e-3 along the unstable
    vector of the eps = +1 principal point (t_max 20, default tolerances)
    ends "max-steps" after 100 000 accepted steps at t = 0.7765, with b
    and c still growing (b about 1.5e4).
    """
    a0, b0, c0 = _coords(initial)
    _require_positive(a0, b0, c0)
    if not all(np.isfinite(v) for v in (a0, b0, c0, initial.t)):
        raise ValueError("initial state must be finite")

    dt = np.dtype(config.dtype)
    scalar = _scalar_type(dt)
    sqrt = math.sqrt if scalar is float else np.sqrt
    A, E = _tableau(dt)
    # a72 and e2 are zero; every slope is finite, so leaving their terms out moves no bit
    (a21,), (a31, a32), (a41, a42, a43), (a51, a52, a53, a54), \
        (a61, a62, a63, a64, a65), (a71, _, a73, a74, a75, a76) = A[1:]
    e1, _, e3, e4, e5, e6, e7 = E
    f = _guarded_flow(config.flavor, config.kappa, config.gamma, config.eps, scalar(1))
    atol, rtol, three = scalar(config.atol), scalar(config.rtol), scalar(3)

    def attempt(y, k1, h):
        """Stages 2 to 7 of one step of size h from y, whose slope is k1.

        Returns (right-hand-side calls, new point, its slope, embedded
        error sums); the last three are None when a stage leaves the
        domain, which ends the attempt at that stage.
        """
        y0, y1, y2 = y
        k10, k11, k12 = k1
        k2 = f((y0 + h * (a21 * k10), y1 + h * (a21 * k11), y2 + h * (a21 * k12)))
        if k2 is None:
            return 1, None, None, None
        k20, k21, k22 = k2
        k3 = f((y0 + h * (a31 * k10 + a32 * k20),
                y1 + h * (a31 * k11 + a32 * k21),
                y2 + h * (a31 * k12 + a32 * k22)))
        if k3 is None:
            return 2, None, None, None
        k30, k31, k32 = k3
        k4 = f((y0 + h * (a41 * k10 + a42 * k20 + a43 * k30),
                y1 + h * (a41 * k11 + a42 * k21 + a43 * k31),
                y2 + h * (a41 * k12 + a42 * k22 + a43 * k32)))
        if k4 is None:
            return 3, None, None, None
        k40, k41, k42 = k4
        k5 = f((y0 + h * (a51 * k10 + a52 * k20 + a53 * k30 + a54 * k40),
                y1 + h * (a51 * k11 + a52 * k21 + a53 * k31 + a54 * k41),
                y2 + h * (a51 * k12 + a52 * k22 + a53 * k32 + a54 * k42)))
        if k5 is None:
            return 4, None, None, None
        k50, k51, k52 = k5
        k6 = f((y0 + h * (a61 * k10 + a62 * k20 + a63 * k30 + a64 * k40 + a65 * k50),
                y1 + h * (a61 * k11 + a62 * k21 + a63 * k31 + a64 * k41 + a65 * k51),
                y2 + h * (a61 * k12 + a62 * k22 + a63 * k32 + a64 * k42 + a65 * k52)))
        if k6 is None:
            return 5, None, None, None
        k60, k61, k62 = k6
        y_new = (y0 + h * (a71 * k10 + a73 * k30 + a74 * k40 + a75 * k50 + a76 * k60),
                 y1 + h * (a71 * k11 + a73 * k31 + a74 * k41 + a75 * k51 + a76 * k61),
                 y2 + h * (a71 * k12 + a73 * k32 + a74 * k42 + a75 * k52 + a76 * k62))
        k7 = f(y_new)
        if k7 is None:
            return 6, None, None, None
        k70, k71, k72 = k7
        return 6, y_new, k7, (
            e1 * k10 + e3 * k30 + e4 * k40 + e5 * k50 + e6 * k60 + e7 * k70,
            e1 * k11 + e3 * k31 + e4 * k41 + e5 * k51 + e6 * k61 + e7 * k71,
            e1 * k12 + e3 * k32 + e4 * k42 + e5 * k52 + e6 * k62 + e7 * k72)

    y = (scalar(a0), scalar(b0), scalar(c0))
    t = scalar(initial.t)
    t_max = scalar(config.t_max)
    ref = None
    if config.reference is not None:
        ref = tuple(scalar(v) for v in config.reference)
    escape_radius, tol_conv = config.escape_radius, config.tol_conv
    max_steps = config.max_steps
    max_attempts = 10 * max_steps
    shrink = scalar(0.2)

    traj = Trajectory(config=config)
    records = traj._records
    records.append((t, y))
    k1 = f(y)
    if k1 is None and (_FLOOR <= y[0] <= _CEILING and _FLOOR <= y[1] <= _CEILING
                       and _FLOOR <= y[2] <= _CEILING):
        raise ValueError("right-hand side is not finite at the initial state")

    # a start beyond the floor, the ceiling or the horizon stops at once, whatever its slope
    reason = _stop_reason(t, t_max, y, k1, ref, escape_radius, tol_conv, sqrt)
    h = scalar(_FIRST_STEP)
    steps = attempts = rejected = retries = 0
    rhs_evals = 1

    while reason is None:
        if steps >= max_steps or attempts >= max_attempts:
            reason = "max-steps"
            break

        final_step = h >= t_max - t
        if final_step:
            h = t_max - t
        attempts += 1

        calls, y_new, k7, err = attempt(y, k1, h)
        rhs_evals += calls
        if k7 is None:
            retries += 1
            h = h * shrink
            continue

        # the last stage point is the new point; the error weights include its slope.  Both
        # points are positive (y_new passed the guard), so each scale is the larger of the
        # two as max(y_i, n_i) picks it: y_i unless n_i is greater
        err0, err1, err2 = err
        y0, y1, y2 = y
        n0, n1, n2 = y_new
        r0 = h * err0 / (atol + rtol * (n0 if n0 > y0 else y0))
        r1 = h * err1 / (atol + rtol * (n1 if n1 > y1 else y1))
        r2 = h * err2 / (atol + rtol * (n2 if n2 > y2 else y2))
        enorm = float(sqrt((r0 * r0 + r1 * r1 + r2 * r2) / three))
        if not math.isfinite(enorm):
            retries += 1
            h = h * shrink
            continue

        if enorm <= 1.0:
            t = t_max if final_step else t + h
            y = y_new
            k1 = k7
            steps += 1
            records.append((t, y))
            reason = _stop_reason(t, t_max, y, k1, ref, escape_radius, tol_conv, sqrt)
            # 0 < enorm <= 1 makes the factor at least 0.9, so only the 5.0 cap is live
            grow = 5.0 if enorm == 0.0 else 0.9 * enorm ** -0.2
            h = h * scalar(grow if grow < 5.0 else 5.0)
        else:
            # 1 < enorm < inf makes the factor at most 0.9, so only the 0.2 floor is live
            rejected += 1
            shrunk = 0.9 * enorm ** -0.2
            h = h * scalar(shrunk if shrunk > 0.2 else 0.2)

    traj.reason = reason
    traj.steps = steps
    traj.rhs_evals = rhs_evals
    traj.rejected = rejected
    traj.nonfinite_retries = retries
    return traj


def _rk4_step(f: Callable, y: tuple, h: float, slope: tuple) -> tuple:
    """One classical fourth-order step of y' = f(y) from y, given slope = f(y)."""
    y1, y2, y3 = y
    half, sixth = h / 2.0, h / 6.0
    p1, p2, p3 = slope
    q1, q2, q3 = f((y1 + half * p1, y2 + half * p2, y3 + half * p3))
    r1, r2, r3 = f((y1 + half * q1, y2 + half * q2, y3 + half * q3))
    s1, s2, s3 = f((y1 + h * r1, y2 + h * r2, y3 + h * r3))
    return (y1 + sixth * (p1 + 2.0 * q1 + 2.0 * r1 + s1),
            y2 + sixth * (p2 + 2.0 * q2 + 2.0 * r2 + s2),
            y3 + sixth * (p3 + 2.0 * q3 + 2.0 * r3 + s3))


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
    in Python ints.  a and b must be positive and c non-zero, all three
    finite, or ValueError; a finite state whose closed forms leave the float
    range raises OverflowError.
    """
    a, b, c = (float(v) for v in _coords(state))
    if not (0 < a < math.inf and 0 < b < math.inf and 0 < abs(c) < math.inf):
        raise ValueError(f"scales must be positive and finite, got ({a}, {b}, {c})")
    (na, da), (nb, db), (nc, dc) = (v.as_integer_ratio() for v in (a, b, c))
    eps = _constants(MODIFIED, kappa, gamma, eps)
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
    kappa and gamma must equal the run's own (`trajectory.config`'s), or
    ValueError names the one that differs: a check at other constants
    would test a flow that was never integrated.
    """
    cfg = trajectory.config
    if cfg.flavor != MODIFIED:
        raise ValueError("volume-rate check applies to modified-flow trajectories")
    for name, value in (("kappa", kappa), ("gamma", gamma)):
        own = getattr(cfg, name)
        if value != own:
            raise ValueError(f"{name} {value} differs from the trajectory's {name} {own}")
    records = trajectory._records
    if len(records) < 3:
        raise ValueError("trajectory too short for interior finite differences")

    eps = cfg.eps
    flow = _guarded_flow(MODIFIED, kappa, gamma, eps, 1.0)  # the probe's states are floats

    def f(y):
        rates = flow(y)
        if rates is None:
            raise ValueError("volume-rate probe left the domain of the flow")
        return rates

    stride = max(1, len(records) // max_samples)
    worst = 0.0
    for i in range(1, len(records) - 1, stride):
        st = _flow_state(records[i])  # only the sampled states are built
        y = (st.a, st.b, st.c)
        slope = f(y)  # shared by the forward and the backward probe
        y_fwd = _rk4_step(f, y, probe_step, slope)
        y_bwd = _rk4_step(f, y, -probe_step, slope)
        fd = (hitchin_volume(y_fwd) - hitchin_volume(y_bwd)) / (2 * probe_step)
        rate = hitchin_rate(y, kappa, gamma, eps)
        # scale floor keeps the ratio meaningful on stationary trajectories
        scale = max(abs(rate), abs(fd), 1e-9 * kappa ** 3 * hitchin_volume(y))
        worst = max(worst, abs(fd - rate) / scale)
    return worst
