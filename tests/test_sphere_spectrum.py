import csv
from fractions import Fraction
from math import factorial

import pytest

from coflow.sphere_spectrum import (
    MultiplicityRecord,
    _in_window,
    _window_floor,
    dim_lower,
    in_window,
    index_lower_bound,
    level_mu,
    multiplicity_d,
    multiplicity_d0,
    multiplicity_d1,
    sphere_eigenvalue,
    write_csv,
)


def test_every_division_is_exact_up_to_level_100():
    for l in range(101):
        assert isinstance(multiplicity_d(l), int)
        assert isinstance(multiplicity_d0(l), int)
        assert isinstance(multiplicity_d1(l), int)


def test_level_3_block_dimensions():
    assert multiplicity_d(3) == 2400
    assert multiplicity_d0(3) == 672
    assert multiplicity_d1(3) == 1568
    assert dim_lower(3) == 2400 - 672 - 1568 == 160


def test_level_0_blocks_cancel():
    assert multiplicity_d(0) == 35
    assert multiplicity_d0(0) == 35
    assert multiplicity_d1(0) == 28
    assert dim_lower(0) == 0


def test_low_levels_clamp_to_zero():
    # raw differences are negative at l = 1, 2; the bound floors at zero
    for l in (1, 2):
        raw = multiplicity_d(l) - multiplicity_d0(l) - multiplicity_d1(l)
        assert raw < 0
        assert dim_lower(l) == 0


def test_quoted_lower_bounds():
    assert [dim_lower(l) for l in (3, 4, 5, 6)] == [160, 693, 1904, 4290]
    assert sum(dim_lower(l) for l in (3, 4, 5, 6)) == 7047


def test_index_bound_totals():
    total, records = index_lower_bound(3, 6, 3)
    assert total == 7047
    assert [r.l for r in records] == [3, 4, 5, 6]

    # at gamma = 21/10 the window is exactly 0 < l < 7, and l = 1, 2 clamp,
    # so widening the range does not change the total
    total, records = index_lower_bound(0, 100, Fraction(21, 10))
    assert total == 7047
    assert len(records) == 101

    # at gamma = 3 the window runs out to l = 15
    total, _ = index_lower_bound(0, 100, 3)
    assert total == sum(dim_lower(l) for l in range(1, 16))


def test_window_membership():
    assert not in_window(0, 3)
    assert in_window(1, 3)
    assert in_window(15, 3)
    assert not in_window(16, 3)
    assert in_window(6, Fraction(21, 10))
    assert not in_window(7, Fraction(21, 10))  # boundary is strict
    with pytest.raises(ValueError):
        in_window(3, 2)


def test_eigenvalue_and_ratio():
    assert sphere_eigenvalue(0) == -4
    assert sphere_eigenvalue(3) == -7
    assert level_mu(3) == Fraction(-7, 4)
    assert level_mu(6) == Fraction(-5, 2)


def _displayed_closed_form(l):
    """The displayed closed form (l^2 + 5l - 16)(l + 7)! / (120 (l + 4)(l + 6)), exactly."""
    return Fraction((l * l + 5 * l - 16) * factorial(l + 7), 120 * (l + 4) * (l + 6))


def _difference(l):
    """d - d0 - d1 at level l, without the clamp at 0."""
    return multiplicity_d(l) - multiplicity_d0(l) - multiplicity_d1(l)


def test_displayed_closed_form_disagrees_with_the_difference():
    # the pretty closed form overshoots: 3840 against the direct 160
    assert _displayed_closed_form(3) == 3840
    assert _displayed_closed_form(3) != dim_lower(3)
    # by exactly (l + 1)!, at every level, the clamped ones l <= 2 too
    for l in range(201):
        assert _displayed_closed_form(l) == factorial(l + 1) * _difference(l)


def test_the_bound_factors_and_is_clamped_exactly_where_its_quadratic_is_negative():
    for l in range(301):
        quadratic = l * l + 5 * l - 16
        assert 120 * _difference(l) == (l + 2) * (l + 3) * (l + 5) * (l + 7) * quadratic
        assert (dim_lower(l) == 0) == (quadratic < 0) == (l <= 2)


def test_bound_grows_monotonically_past_the_clamp():
    values = [dim_lower(l) for l in range(3, 31)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_level_validation():
    for bad in (-1, 1.5, "3"):
        with pytest.raises(ValueError):
            multiplicity_d(bad)
    with pytest.raises(ValueError):
        index_lower_bound(5, 3, 3)


def test_record_and_csv_round_trip(tmp_path):
    _, records = index_lower_bound(2, 4, 3)
    assert records[1] == MultiplicityRecord(l=3, eigenvalue=-7, d=2400,
                                            d0=672, d1=1568, lower_bound=160)
    path = tmp_path / "levels.csv"
    write_csv(path, records, 3)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["l", "eigenvalue", "d", "d0", "d1", "lower_bound",
                       "in_window(gamma)"]
    assert rows[2] == ["3", "-7", "2400", "672", "1568", "160", "true"]
    assert all(row[6] in ("true", "false") for row in rows[1:])


def test_level_on_the_window_floor_is_excluded(tmp_path):
    # at gamma = 21/10, level 7 has mu = -11/4 = -(5/2)(gamma - 1) exactly
    gamma = Fraction(21, 10)
    assert level_mu(7) == Fraction(-5, 2) * (gamma - 1)
    assert dim_lower(7) > 0
    assert not in_window(7, gamma)
    assert index_lower_bound(7, 7, gamma)[0] == 0
    total, records = index_lower_bound(6, 7, gamma)
    assert total == dim_lower(6)
    path = tmp_path / "levels.csv"
    write_csv(path, records, gamma)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert [row[6] for row in rows[1:]] == ["true", "false"]


def test_records_agree_with_the_level_functions():
    for l in range(61):
        assert MultiplicityRecord.at(l) == MultiplicityRecord(
            l=l, eigenvalue=sphere_eigenvalue(l), d=multiplicity_d(l), d0=multiplicity_d0(l),
            d1=multiplicity_d1(l), lower_bound=dim_lower(l))


def test_kept_records_equal_records_built_from_the_level_functions():
    from coflow import sphere_spectrum

    top = 3 * sphere_spectrum._RECORD_CACHE_LEVELS // 2
    for _ in range(2):  # once building, once reading what is kept (or rebuilt past the bound)
        for l in range(top + 1):
            d, d0, d1 = multiplicity_d(l), multiplicity_d0(l), multiplicity_d1(l)
            record = MultiplicityRecord.at(l)
            assert record == MultiplicityRecord(l=l, eigenvalue=-(4 + l), d=d, d0=d0, d1=d1,
                                                lower_bound=max(0, d - d0 - d1))
            assert type(record.l) is int


def test_a_kept_level_does_not_admit_what_equals_it():
    MultiplicityRecord.at(3)
    dim_lower(3)
    for bad in (3.0, -1, [3], Fraction(3)):
        with pytest.raises(ValueError):
            MultiplicityRecord.at(bad)
    for bad in (3.0, Fraction(3)):
        with pytest.raises(ValueError):
            dim_lower(bad)
    # a bool is an int and is accepted as before, but kept apart from its level
    assert MultiplicityRecord.at(True).l is True
    assert type(MultiplicityRecord.at(1).l) is int


def test_product_forms_equal_the_factorial_definitions():
    # the factorial quotients the dimensions are defined by, as the oracle
    for l in range(1001):
        assert multiplicity_d(l) * 36 * (l + 4) * factorial(l) == factorial(l + 7)
        assert multiplicity_d0(l) * factorial(6) * factorial(l + 2) == 2 * factorial(l + 7) * (l + 5)
        assert (multiplicity_d1(l) * factorial(5) * factorial(l) * (l + 2) * (l + 6)
                == 2 * factorial(l + 7) * (l + 4))


@pytest.mark.parametrize("gamma", [2.1, Fraction(21, 10), 8 / 3, Fraction(8, 3), 3, 16, 20,
                                   2 + 2 ** -40])
def test_integer_window_rule_equals_the_rational_one(gamma):
    floor = _window_floor(gamma)
    for l in range(201):
        assert _in_window(l, floor) == (-1 > level_mu(l) > floor)


def test_whole_window_totals():
    # gamma = 21/10 holds levels 1..6 and gamma = 3 levels 1..15; levels past
    # the window add nothing
    assert index_lower_bound(0, 60, Fraction(21, 10))[0] == 7047
    assert index_lower_bound(0, 60, 3)[0] == 980733


def _spin8_dimension(highest_weight) -> int:
    """Weyl dimension formula for Spin(8) in the orthogonal basis, rho = (3, 2, 1, 0).

    dim V(lam) = prod over i < j of (l_i^2 - l_j^2) / (rho_i^2 - rho_j^2),
    l = lam + rho: one factor per positive root e_i - e_j and e_i + e_j.
    """
    rho = (3, 2, 1, 0)
    l = [x + r for x, r in zip(highest_weight, rho)]
    dim = Fraction(1)
    for i in range(4):
        for j in range(i + 1, 4):
            dim *= Fraction(l[i] ** 2 - l[j] ** 2, rho[i] ** 2 - rho[j] ** 2)
    assert dim.denominator == 1
    return int(dim)


def test_multiplicities_are_spin8_representation_dimensions():
    # every side is a polynomial of degree 6 in l (six roots involve the
    # first coordinate), so agreement at seven levels proves it for all l
    for l in range(9):
        for sign in (+1, -1):
            assert multiplicity_d(l) == _spin8_dimension((l + 1, 1, 1, sign))
        assert multiplicity_d0(l) == _spin8_dimension((l + 2, 0, 0, 0))
        assert multiplicity_d1(l) == _spin8_dimension((l + 1, 1, 0, 0))
    assert _spin8_dimension((1, 0, 0, 0)) == 8 and _spin8_dimension((1, 1, 0, 0)) == 28
