"""Unit-tagged time series container and the package's CSV table format.

Every CSV file the package writes or reads is one comma-separated table:
a single header line, no comment character, and rows of values printed
to 17 significant digits, so every value a table holds reads back
exactly.  write_columns and read_columns are the one writer and the one
reader of that format.

A TimeTrace is stored as two columns with header ``t_us,value``; times
are written in microseconds (the natural plotting unit for these
experiments) and converted back to seconds on read.  The two unit
conversions each round, so a time may come back one ulp away from the
one written (on a 600-point burst grid, 178 times move); the values are
exact.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, UnitMismatchError

VALID_UNITS = ("dBm", "watts", "photons", "volts", "dimensionless")

CSV_HEADER = "t_us,value"
CSV_FLOAT_FMT = "%.17g"


@dataclass(frozen=True)
class TimeTrace:
    """A sampled signal y(t) with t in seconds, strictly increasing.

    Parameters
    ----------
    t : array_like
        Sample times in seconds, strictly increasing.
    y : array_like
        Sample values, same length as t. Real.
    unit : str
        One of dBm, watts, photons, volts, dimensionless.
    """

    t: np.ndarray
    y: np.ndarray
    unit: str = "dimensionless"

    def __post_init__(self):
        t = np.array(self.t, dtype=float, copy=True)
        y = np.array(self.y, dtype=float, copy=True)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "y", y)
        t.setflags(write=False)
        y.setflags(write=False)
        if self.unit not in VALID_UNITS:
            raise InvalidInputError(
                f"unknown unit tag {self.unit!r}; expected one of {VALID_UNITS}")
        if t.ndim != 1 or y.ndim != 1:
            raise InvalidInputError("t and y must be one-dimensional")
        if len(t) != len(y):
            raise InvalidInputError(f"length mismatch: len(t)={len(t)}, len(y)={len(y)}")
        if len(t) == 0:
            raise InvalidInputError("empty trace")
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(y))):
            raise InvalidInputError("trace contains non-finite values")
        if len(t) > 1 and not np.all(np.diff(t) > 0):
            raise InvalidInputError("sample times must be strictly increasing")

    def __len__(self):
        return len(self.t)

    def require_unit(self, expected):
        """Assert the trace carries the expected unit tag and return self."""
        if self.unit != expected:
            raise UnitMismatchError(
                f"expected a trace in {expected!r}, got {self.unit!r}")
        return self

    def with_values(self, y, unit=None):
        """New trace on the same time grid with replaced values."""
        return TimeTrace(self.t, y, self.unit if unit is None else unit)


def write_columns(path, header, columns):
    """Write equal-length 1-D columns as a CSV table under one header line."""
    np.savetxt(path, np.column_stack(columns), fmt=CSV_FLOAT_FMT, delimiter=",",
               header=header, comments="")


def read_columns(path):
    """(header line, 2-D float array) of a CSV table written by write_columns.

    Non-numeric cells and unreadable text raise InvalidInputError.
    """
    with open(path) as fh:
        try:
            header = fh.readline().strip()
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise InvalidInputError(f"{path}: malformed CSV ({exc})") from exc
    return header, data


def write_trace_csv(path, trace):
    """Write a TimeTrace to CSV (t in microseconds, 17 significant digits)."""
    write_columns(path, CSV_HEADER, [trace.t * 1e6, trace.y])


def read_trace_csv(path, unit="dimensionless"):
    """Read a two-column ``t_us,value`` CSV into a TimeTrace.

    The unit tag cannot be stored in the CSV itself, so the caller
    declares it (CLI does this with a flag).
    """
    header, data = read_columns(path)
    if header.replace(" ", "") != CSV_HEADER:
        raise InvalidInputError(
            f"{path}: expected header {CSV_HEADER!r}, got {header!r}")
    if data.shape[1] != 2:
        raise InvalidInputError(f"{path}: expected 2 columns, got {data.shape[1]}")
    return TimeTrace(data[:, 0] * 1e-6, data[:, 1], unit)
