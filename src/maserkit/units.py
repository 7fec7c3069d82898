"""Physical constants and unit conversions shared by every module.

Internal conventions, applied everywhere without exception:

* all rates are stored in s^-1 using the angular convention, so a rate
  quoted as "2 pi x 0.29 MHz" enters as 2*pi*0.29e6; the conversion
  happens exactly once, at ingestion
* time is stored in seconds; the CLI accepts microseconds and converts
  at the boundary
"""

import math

from .errors import InvalidInputError

TWO_PI = 2.0 * math.pi


class PhysConstants:
    """CODATA-fixed constants used in photon-energy arithmetic.

    Instances are immutable; the two values are exact by the 2019 SI
    redefinition.
    """

    __slots__ = ()

    h = 6.62607015e-34    # Planck constant, J s
    k_B = 1.380649e-23    # Boltzmann constant, J/K

    def __setattr__(self, name, value):
        raise AttributeError("PhysConstants is immutable")


CONSTANTS = PhysConstants()


def dbm_to_watts(p_dbm):
    """Convert a power level in dBm to watts: 10^((p - 30)/10)."""
    if not math.isfinite(p_dbm):
        raise InvalidInputError(f"power in dBm must be finite, got {p_dbm!r}")
    return 10.0 ** ((p_dbm - 30.0) / 10.0)


def watts_to_dbm(p_watts):
    """Convert watts to dBm. Requires p > 0 (log of zero power undefined)."""
    if not math.isfinite(p_watts) or p_watts <= 0.0:
        raise InvalidInputError(f"power in watts must be finite and > 0, got {p_watts!r}")
    return 10.0 * math.log10(p_watts) + 30.0


def ordinary_to_angular(f_hz):
    """Convert an ordinary frequency in Hz to an angular rate in rad/s."""
    if f_hz < 0:
        raise InvalidInputError(f"frequency must be >= 0, got {f_hz!r}")
    return TWO_PI * f_hz


def angular_to_ordinary(omega):
    """Inverse of ordinary_to_angular."""
    return omega / TWO_PI
