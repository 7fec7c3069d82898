import math

import pytest
from hypothesis import given, strategies as st

from maserkit import units
from maserkit.errors import InvalidInputError


def test_constants_are_exact_si_values():
    assert units.CONSTANTS.h == 6.62607015e-34
    assert units.CONSTANTS.k_B == 1.380649e-23


def test_constants_are_immutable():
    with pytest.raises(AttributeError):
        units.CONSTANTS.h = 1.0


def test_dbm_reference_points():
    assert units.dbm_to_watts(0.0) == pytest.approx(1e-3, rel=1e-15)
    assert units.dbm_to_watts(30.0) == pytest.approx(1.0, rel=1e-15)
    assert units.dbm_to_watts(-10.0) == pytest.approx(1e-4, rel=1e-15)
    assert units.watts_to_dbm(1e-3) == pytest.approx(0.0, abs=1e-12)


@given(st.floats(min_value=-120.0, max_value=30.0))
def test_dbm_round_trip(p_dbm):
    back = units.watts_to_dbm(units.dbm_to_watts(p_dbm))
    assert back == pytest.approx(p_dbm, abs=1e-10)


def test_dbm_rejects_non_finite():
    with pytest.raises(InvalidInputError):
        units.dbm_to_watts(float("nan"))
    with pytest.raises(InvalidInputError):
        units.watts_to_dbm(0.0)
    with pytest.raises(InvalidInputError):
        units.watts_to_dbm(-1e-3)


def test_angular_conversion():
    assert units.ordinary_to_angular(1.0) == pytest.approx(2.0 * math.pi, rel=1e-15)
    assert units.angular_to_ordinary(units.ordinary_to_angular(2.3e6)) == pytest.approx(
        2.3e6, rel=1e-15)
    with pytest.raises(InvalidInputError):
        units.ordinary_to_angular(-1.0)
