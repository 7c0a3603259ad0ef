"""Exact spectral multiplicities on the round 7-sphere and the index bound.

On the unit-curvature sphere (kappa = 4) the relevant first-order operator
on exact 27-type 4-forms has eigenvalues -(4 + l) indexed by an integer
level l >= 0, paired symmetrically with +(4 + l).  Three representation
dimensions enter per level:

    d(l)  = (l+7)! / (36 (l+4) l!)              total multiplicity
    d0(l) = 2 (l+7)! (l+5) / (6! (l+2)!)        harmonic-polynomial block
    d1(l) = 2 (l+7)! (l+4) / (5! l! (l+2)(l+6)) co-closed 1-form block

and max(0, d - d0 - d1) bounds the eigenvalue's multiplicity on the exact
27-type part from below.  The factorials cancel, so each dimension is a
degree-6 integer polynomial in l over a constant, and that is how it is
computed:

    d(l)  = (l+1)(l+2)(l+3)(l+5)(l+6)(l+7) / 36
    d0(l) = (l+3)(l+4)(l+5)^2(l+6)(l+7) / 360
    d1(l) = (l+1)(l+3)(l+4)^2(l+5)(l+7) / 60

Every division must be exact; a nonzero remainder raises instead of
rounding.  Levels whose ratio mu = -(4+l)/4 falls in the
destabilizing window -1 > mu > -(5/2)(gamma-1) contribute to the index
bound of the modified flow.

The window rule is written once here, on integers: `_window_floor` owns
the floor and its gamma > 2 check, read by `invariant_forms._exact`, and
`_window_form` the inequality, by whose sign `_in_window` and
`stability.window_verdict` decide.  index_lower_bound checks the level
range; the command line leaves that check, like gamma's, to this module.
"""

from __future__ import annotations

import csv
import functools
from dataclasses import dataclass
from fractions import Fraction

from .invariant_forms import _above, _exact

KAPPA = 4  # unit-curvature normalization; fixed throughout this module
# levels whose records are kept once built; gamma = 6 uses 45, gamma = 16 uses 145
_RECORD_CACHE_LEVELS = 512


def _exact_div(num: int, den: int) -> int:
    q, r = divmod(num, den)
    if r:
        raise ArithmeticError(f"{num} is not divisible by {den}")
    return q


def _check_level(l: int) -> int:
    if not isinstance(l, int) or l < 0:
        raise ValueError(f"level must be a non-negative integer, got {l!r}")
    return l


def multiplicity_d(l: int) -> int:
    """Total multiplicity at level l."""
    _check_level(l)
    return _exact_div((l + 1) * (l + 2) * (l + 3) * (l + 5) * (l + 6) * (l + 7), 36)


def multiplicity_d0(l: int) -> int:
    """Dimension of the harmonic-polynomial eigenspace at level l."""
    _check_level(l)
    return _exact_div((l + 3) * (l + 4) * (l + 5) ** 2 * (l + 6) * (l + 7), 360)


def multiplicity_d1(l: int) -> int:
    """Dimension of the co-closed one-form block at level l."""
    _check_level(l)
    return _exact_div((l + 1) * (l + 3) * (l + 4) ** 2 * (l + 5) * (l + 7), 60)


def dim_lower(l: int) -> int:
    """Lower bound max(0, d - d0 - d1) for the exact 27-type multiplicity at level l."""
    return MultiplicityRecord.at(l).lower_bound


def sphere_eigenvalue(l: int) -> int:
    """Eigenvalue -(4 + l); the spectrum pairs it with +(4 + l)."""
    _check_level(l)
    return -(4 + l)


def level_mu(l: int) -> Fraction:
    """Window ratio mu = eigenvalue / kappa at unit curvature."""
    return Fraction(sphere_eigenvalue(l), KAPPA)


def _window_floor(gamma) -> Fraction:
    """Lower end -(5/2)(gamma - 1) of the destabilizing window, exactly; gamma > 2.

    gamma is read by `invariant_forms._exact`, as in `find_critical_points`;
    None is refused like any gamma <= 2.
    """
    if gamma is None or not _above(gamma, 2):
        raise ValueError("the window requires gamma > 2")
    return Fraction(-5, 2) * (_exact(gamma) - 1)


def _window_form(mn: int, md: int, floor: Fraction) -> tuple[int, int]:
    """(mu + 1)(mu - floor) at mu = mn / md, md > 0, as (numerator, positive denominator).

    The one copy of the window rule: negative exactly on -1 > mu > floor.
    """
    fn, fd = floor.as_integer_ratio()
    return (mn + md) * (mn * fd - fn * md), md * md * fd


def _in_window(l: int, floor: Fraction) -> bool:
    """Whether level_mu(l) = -(4 + l)/4 lies in the window above floor, by `_window_form`."""
    return _window_form(-(4 + l), 4, floor)[0] < 0


def in_window(l: int, gamma) -> bool:
    """Whether level l's ratio lies in the destabilizing window for gamma."""
    return _in_window(l, _window_floor(gamma))


@dataclass(frozen=True)
class MultiplicityRecord:
    l: int
    eigenvalue: int
    d: int
    d0: int
    d1: int
    lower_bound: int

    @staticmethod
    def at(l: int) -> "MultiplicityRecord":
        """The record of level l; lower_bound is max(0, d - d0 - d1), the one copy dim_lower reads.

        A record is frozen and a pure function of its level, so each is
        built once and kept; the level is checked before the lookup, so a
        value equal to a kept level but not an int (3.0) is still refused.
        """
        return _record(_check_level(l))


@functools.lru_cache(maxsize=_RECORD_CACHE_LEVELS, typed=True)
def _record(l: int) -> MultiplicityRecord:
    d, d0, d1 = multiplicity_d(l), multiplicity_d0(l), multiplicity_d1(l)
    return MultiplicityRecord(l=l, eigenvalue=sphere_eigenvalue(l), d=d, d0=d0, d1=d1,
                              lower_bound=max(0, d - d0 - d1))


def index_lower_bound(l_min: int, l_max: int, gamma) -> tuple[int, list[MultiplicityRecord]]:
    """Sum the windowed multiplicity bounds over l_min <= l <= l_max.

    Returns the total and the per-level records (all levels in range, not
    just the windowed ones; filtering happened in the sum).
    """
    _check_level(l_min)
    _check_level(l_max)
    if l_min > l_max:
        raise ValueError(f"empty level range [{l_min}, {l_max}]")
    records = [MultiplicityRecord.at(l) for l in range(l_min, l_max + 1)]
    floor = _window_floor(gamma)
    total = sum(r.lower_bound for r in records if _in_window(r.l, floor))
    return total, records


def table_rows(records: list[MultiplicityRecord], gamma) -> list[tuple]:
    """Header and per-level rows of the report, with one window floor for all of them."""
    floor = _window_floor(gamma)
    header = ("l", "eigenvalue", "d", "d0", "d1", "lower_bound", "in_window(gamma)")
    return [header] + [(r.l, r.eigenvalue, r.d, r.d0, r.d1, r.lower_bound,
                        str(_in_window(r.l, floor)).lower()) for r in records]


def write_csv(path, records: list[MultiplicityRecord], gamma) -> None:
    """Emit the per-level report; big integers as decimal strings."""
    rows = table_rows(records, gamma)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows(rows)
