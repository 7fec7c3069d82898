"""Closed-form relations evaluated on Python floats.

The scalar formulas behind the calculator commands of the CLI: the
Q-circle port coupling, loaded and unloaded Q, the cavity decay rate
kappa_c = 2 pi f / Q_L, the Bose-Einstein thermal occupancy, the
cooperativity C = 4 g_e^2 / (kappa_c kappa_s), the predicted Rabi
frequency 2 g_e, and the singlet decay-rate bookkeeping behind the
triplet quantum yield.

This module imports no numpy, so a command that needs only these
relations starts without loading it.  cavity, cqed and spectro
re-export each name from here.
"""

import math
from dataclasses import dataclass
from typing import Optional

from .errors import InvalidGeometryError, InvalidInputError
from .units import CONSTANTS, TWO_PI


# ---------------------------------------------------------------------------
# cavity


@dataclass(frozen=True)
class QCircleGeometry:
    """Q-circle diameters read off a polar reflection plot.

    d is the resonance circle diameter (0..2 in reflection-coefficient
    units).  d2 is the diameter of the auxiliary circle through the
    off-resonance point; it is present only when cable/connector loss
    is being corrected for, and must exceed 1.
    """

    d: float
    d2: Optional[float] = None

    def __post_init__(self):
        if not 0.0 <= self.d <= 2.0:
            raise InvalidGeometryError(f"d must be in [0, 2], got {self.d!r}")
        if self.d2 is not None:
            if not 1.0 < self.d2 <= 2.0:
                raise InvalidGeometryError(
                    f"d2 must be in (1, 2], got {self.d2!r}")
            if self.d > self.d2:
                raise InvalidGeometryError("require d <= d2")


def coupling_from_qcircle(geom):
    """Port coupling coefficient K from circle diameters.

    Lossy case (d2 given): K = d / (d2 - 1).
    Lossless case:         K = d / (2 - d).
    """
    if geom.d2 is not None:
        return geom.d / (geom.d2 - 1.0)
    if geom.d == 2.0:
        raise InvalidGeometryError("d = 2 gives infinite coupling in the lossless formula")
    return geom.d / (2.0 - geom.d)


def loaded_q(f0, f_low, f_high):
    """Loaded quality factor from the -3 dB (bandwidth) points, f0/(f_high - f_low)."""
    if not f_low < f0 < f_high:
        raise InvalidInputError(
            f"require f_low < f0 < f_high, got ({f_low!r}, {f0!r}, {f_high!r})")
    return f0 / (f_high - f_low)


def unloaded_q(q_loaded, k1, k2=0.0):
    """Unloaded Q from loaded Q and the two port couplings: Q_u = Q_L (1 + K1 + K2)."""
    if q_loaded <= 0:
        raise InvalidInputError(f"q_loaded must be > 0, got {q_loaded!r}")
    if k1 < 0 or k2 < 0:
        raise InvalidInputError("couplings must be >= 0")
    return q_loaded * (1.0 + k1 + k2)


def cavity_decay_rate(f_mode, q_loaded):
    """Angular field-energy decay rate kappa_c = 2 pi f_mode / Q_L in s^-1."""
    if f_mode <= 0 or q_loaded <= 0:
        raise InvalidInputError("f_mode and q_loaded must be > 0")
    return TWO_PI * f_mode / q_loaded


def thermal_photons(f, temperature):
    """Bose-Einstein occupancy (exp(h f / k_B T) - 1)^-1 of a mode at f, T."""
    if f <= 0:
        raise InvalidInputError(f"frequency must be > 0, got {f!r}")
    if temperature <= 0:
        raise InvalidInputError(f"temperature must be > 0, got {temperature!r}")
    x = CONSTANTS.h * f / (CONSTANTS.k_B * temperature)
    return 1.0 / math.expm1(x)


# ---------------------------------------------------------------------------
# cavity QED


def cooperativity(g_e, kappa_c, kappa_s):
    """Cooperativity C = 4 g_e^2 / (kappa_c kappa_s)."""
    # on floats, an overflowing product is inf (C = 0) without numpy's warning
    g_e, kappa_c, kappa_s = float(g_e), float(kappa_c), float(kappa_s)
    if kappa_c <= 0 or kappa_s <= 0:
        raise InvalidInputError("kappa_c and kappa_s must be > 0")
    return 4.0 * g_e * g_e / (kappa_c * kappa_s)


def predicted_rabi(g_e):
    """Predicted Rabi angular frequency Omega = 2 g_e."""
    if g_e < 0:
        raise InvalidInputError(f"g_e must be >= 0, got {g_e!r}")
    return 2.0 * g_e


# ---------------------------------------------------------------------------
# quantum yield arithmetic


@dataclass(frozen=True)
class PhotophysicsRates:
    """Decay-rate bookkeeping of the emitting singlet state.

    kappa_f is the total fluorescence decay rate 1/tau_f, kappa_isc the
    intersystem crossing rate 1/tau_isc, and their difference is the
    lumped internal-conversion plus radiative rate.  theta_t is the
    triplet quantum yield kappa_isc/kappa_f.  All rates in ns^-1.
    """

    kappa_f: float
    kappa_isc: float
    kappa_ic_plus_rad: float
    theta_t: float

    def __post_init__(self):
        if self.kappa_isc > self.kappa_f * (1 + 1e-12):
            raise InvalidInputError("kappa_isc cannot exceed kappa_f")
        if not 0.0 <= self.theta_t <= 1.0:
            raise InvalidInputError(f"theta_t must be in [0, 1], got {self.theta_t!r}")
        if abs(self.theta_t * self.kappa_f - self.kappa_isc) > 1e-9 * self.kappa_f:
            raise InvalidInputError("theta_t inconsistent with kappa_isc/kappa_f")
        if abs(self.kappa_ic_plus_rad - (self.kappa_f - self.kappa_isc)) > 1e-9 * self.kappa_f:
            raise InvalidInputError("kappa_ic_plus_rad inconsistent with kappa_f - kappa_isc")


def rates_from_lifetimes(tau_f_ns, tau_isc_ns):
    """PhotophysicsRates from the fluorescence and ISC lifetimes (ns).

    Requires tau_isc >= tau_f, otherwise the implied triplet yield
    would exceed one.
    """
    if tau_f_ns <= 0 or tau_isc_ns <= 0:
        raise InvalidInputError("lifetimes must be positive")
    if tau_isc_ns < tau_f_ns:
        raise InvalidInputError(
            f"tau_isc ({tau_isc_ns!r} ns) < tau_f ({tau_f_ns!r} ns) implies a "
            "triplet yield above 1")
    kappa_f = 1.0 / tau_f_ns
    kappa_isc = 1.0 / tau_isc_ns
    return PhotophysicsRates(
        kappa_f=kappa_f,
        kappa_isc=kappa_isc,
        kappa_ic_plus_rad=kappa_f - kappa_isc,
        theta_t=kappa_isc / kappa_f)
