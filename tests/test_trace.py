import numpy as np
import pytest

from maserkit.errors import InvalidInputError, UnitMismatchError
from maserkit.spectro import SpectrumMatrix, write_matrix_csv
from maserkit.trace import (
    CSV_FLOAT_FMT,
    WRITE_BLOCK_VALUES,
    TimeTrace,
    read_trace_csv,
    write_columns,
    write_trace_csv,
)


def make_trace(n=20, unit="photons"):
    t = np.linspace(0.0, 1e-5, n)
    y = np.exp(-t / 3e-6) * 1e12
    return TimeTrace(t, y, unit)


def test_rejects_non_increasing_time():
    with pytest.raises(InvalidInputError):
        TimeTrace(np.array([0.0, 1.0, 1.0]), np.zeros(3), "watts")
    with pytest.raises(InvalidInputError):
        TimeTrace(np.array([0.0, 2.0, 1.0]), np.zeros(3), "watts")


def test_rejects_length_mismatch():
    with pytest.raises(InvalidInputError):
        TimeTrace(np.arange(3.0), np.zeros(4), "watts")


def test_rejects_unknown_unit():
    with pytest.raises(InvalidInputError):
        TimeTrace(np.arange(3.0), np.zeros(3), "furlongs")


def test_arrays_are_read_only_and_decoupled():
    t = np.arange(5.0)
    y = np.ones(5)
    tr = TimeTrace(t, y, "volts")
    t[0] = 99.0
    assert tr.t[0] == 0.0
    with pytest.raises(ValueError):
        tr.y[0] = 2.0


def test_require_unit():
    tr = make_trace(unit="photons")
    tr.require_unit("photons")
    with pytest.raises(UnitMismatchError):
        tr.require_unit("watts")


def test_with_values_keeps_grid_and_unit():
    tr = make_trace()
    tr2 = tr.with_values(tr.y * 2.0)
    assert np.array_equal(tr2.t, tr.t)
    assert tr2.unit == tr.unit
    assert np.array_equal(tr2.y, tr.y * 2.0)


def test_csv_round_trip_is_exact(tmp_path):
    tr = make_trace(n=137)
    path = tmp_path / "trace.csv"
    write_trace_csv(path, tr)
    back = read_trace_csv(path, "photons")
    # %.17g prints doubles losslessly: values are bit exact, the time
    # column only picks up the two roundings of the us conversion
    assert np.array_equal(back.y, tr.y)
    assert np.allclose(back.t, tr.t, rtol=1e-15, atol=0)
    assert back.unit == "photons"


def test_csv_round_trip_moves_times_by_at_most_one_ulp(tmp_path):
    # the burst grid: writing microseconds and reading back times 1e-6
    # rounds twice, so a time may move by one ulp; values are exact
    tr = TimeTrace(np.linspace(0.0, 15e-6, 600), np.geomspace(4097.0, 2e14, 600), "photons")
    path = tmp_path / "burst.csv"
    write_trace_csv(path, tr)
    back = read_trace_csv(path, "photons")
    assert np.array_equal(back.y, tr.y)
    assert np.all(np.abs(back.t - tr.t) <= np.spacing(tr.t))


def test_csv_header_is_checked(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("time,signal\n0,1\n1,2\n")
    with pytest.raises(InvalidInputError):
        read_trace_csv(path, "photons")


def test_csv_time_column_is_microseconds(tmp_path):
    tr = TimeTrace(np.array([0.0, 1e-6, 2e-6]), np.array([1.0, 2.0, 3.0]), "volts")
    path = tmp_path / "us.csv"
    write_trace_csv(path, tr)
    lines = path.read_text().splitlines()
    assert lines[0] == "t_us,value"
    assert float(lines[2].split(",")[0]) == pytest.approx(1.0, rel=1e-15)


def test_trace_csv_text_is_pinned(tmp_path):
    # one header line, no comment character, %.17g, "\n" line ends
    tr = TimeTrace(np.array([0.0, 1e-6, 2.5e-6]), np.array([0.1, -2.0, 3e20]), "volts")
    path = tmp_path / "pinned.csv"
    write_trace_csv(path, tr)
    assert path.read_bytes() == (
        b"t_us,value\n"
        b"0,0.10000000000000001\n"
        b"1,-2\n"
        b"2.5,3e+20\n")


def test_matrix_csv_text_is_pinned(tmp_path):
    # rows are delays, columns wavelengths, delay_ps in the corner cell
    matrix = SpectrumMatrix(wavelengths=[400.0, 410.5, 420.0], delays=[-1.0, 0.1],
                            delta_a=[[1.0, 2.0], [0.25, -3e-5], [0.0, 7.0]])
    path = tmp_path / "pinned_matrix.csv"
    write_matrix_csv(path, matrix)
    assert path.read_bytes() == (
        b"delay_ps,400,410.5,420\n"
        b"-1,1,0.25,0\n"
        b"0.10000000000000001,2,-3.0000000000000001e-05,7\n")


_SPECIALS = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1.7976931348623157e308, 0.1]


@pytest.mark.parametrize("columns", [
    [np.linspace(0.0, 15.0, 2048), np.random.default_rng(0).lognormal(20.0, 9.0, 2048)],
    [np.array(_SPECIALS), np.array(_SPECIALS[::-1])],
    [np.arange(-3, 4), np.arange(7) * 2**60],
    [np.array([True, False, True]), np.array([False, False, True])],
    [np.arange(5), np.array([True, False, True, False, True]), np.full(5, -2.5)],
    [np.empty(0), np.empty(0)],
    [np.random.default_rng(1).standard_normal(200) for _ in range(51)],
    [np.random.default_rng(2).standard_normal(1001) for _ in range(3)],
    [np.random.default_rng(3).standard_normal(3) for _ in range(WRITE_BLOCK_VALUES + 1)],
], ids=["floats", "nan-inf-signed-zero", "ints", "bools", "mixed", "no-rows", "matrix",
        "uneven-blocks", "row-wider-than-a-block"])
def test_write_columns_matches_savetxt(tmp_path, columns):
    reference = tmp_path / "savetxt.csv"
    np.savetxt(reference, np.column_stack(columns), fmt=CSV_FLOAT_FMT, delimiter=",",
               header="a,b", comments="")
    write_columns(tmp_path / "table.csv", "a,b", columns)
    assert (tmp_path / "table.csv").read_bytes() == reference.read_bytes()
