"""Microwave cavity characterization and power/photon conversions.

Covers the reflection Q-circle arithmetic (port coupling from circle
diameters), loaded and unloaded quality factors, the cavity field decay
rate kappa_c = 2 pi f / Q_L, Bose-Einstein thermal occupancy of the
mode, and the conversion between emitted power and intracavity photon
number

    <a+a> = P (1 + K) / (h f kappa_c K).

kappa_c is an angular rate (s^-1) throughout.  The scalar relations
(Q-circle coupling, Q factors, kappa_c, thermal occupancy) are defined
in relations and re-exported here.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .relations import (  # noqa: F401  (re-exported)
    QCircleGeometry,
    cavity_decay_rate,
    coupling_from_qcircle,
    loaded_q,
    thermal_photons,
    unloaded_q,
)
from .trace import TimeTrace
from .units import CONSTANTS

# Onset of a burst is flagged where the signal first exceeds the
# baseline mean by this many baseline standard deviations.
ONSET_SIGMA = 5.0
MIN_BASELINE_SAMPLES = 10


@dataclass(frozen=True)
class CavityCharacterization:
    """Derived description of one cavity mode.

    kappa_c and n_bar are stored alongside the primary quantities; the
    constructor enforces their defining relations so a characterization
    can never carry inconsistent numbers.
    """

    f_mode: float
    q_loaded: float
    k1: float
    k2: float
    kappa_c: float
    temperature: float
    n_bar: float

    def __post_init__(self):
        if self.q_loaded <= 0:
            raise InvalidInputError("q_loaded must be > 0")
        if self.k1 < 0 or self.k2 < 0:
            raise InvalidInputError("couplings must be >= 0")
        kc = cavity_decay_rate(self.f_mode, self.q_loaded)
        if abs(self.kappa_c - kc) > 1e-9 * kc:
            raise InvalidInputError(
                f"kappa_c inconsistent with 2 pi f/Q_L: {self.kappa_c!r} vs {kc!r}")
        nb = thermal_photons(self.f_mode, self.temperature)
        if abs(self.n_bar - nb) > 1e-9 * nb:
            raise InvalidInputError(
                f"n_bar inconsistent with Bose-Einstein value: {self.n_bar!r} vs {nb!r}")

    @classmethod
    def from_measurements(cls, f_mode, q_loaded, k1, k2, temperature):
        """Build a characterization, deriving kappa_c and n_bar."""
        return cls(f_mode=f_mode, q_loaded=q_loaded, k1=k1, k2=k2,
                   kappa_c=cavity_decay_rate(f_mode, q_loaded),
                   temperature=temperature,
                   n_bar=thermal_photons(f_mode, temperature))

    @property
    def q_unloaded(self):
        return unloaded_q(self.q_loaded, self.k1, self.k2)


def power_to_photons(p_watts, coupling, kappa_c, f):
    """Intracavity photon number from emitted power, P (1+K)/(h f kappa_c K).

    Accepts a scalar or an array of powers.
    """
    if coupling <= 0:
        raise InvalidInputError(f"coupling must be > 0, got {coupling!r}")
    if kappa_c <= 0:
        raise InvalidInputError(f"kappa_c must be > 0, got {kappa_c!r}")
    if f <= 0:
        raise InvalidInputError(f"frequency must be > 0, got {f!r}")
    p = np.asarray(p_watts, dtype=float)
    if np.any(p < 0):
        raise InvalidInputError("power must be >= 0")
    result = p * (1.0 + coupling) / (CONSTANTS.h * f * kappa_c * coupling)
    return float(result) if np.isscalar(p_watts) else result


def power_trace_to_photons(trace, coupling, kappa_c, f):
    """Map a watts TimeTrace to a photons TimeTrace pointwise."""
    trace.require_unit("watts")
    return trace.with_values(
        power_to_photons(trace.y, coupling, kappa_c, f), unit="photons")


@dataclass(frozen=True)
class BaselineResult:
    trace: TimeTrace
    shift: float
    window_samples: int


def detect_burst_onset(y):
    """Index of the first sample above baseline mean + 5 sigma.

    The baseline statistics are estimated from the first
    MIN_BASELINE_SAMPLES points.  Returns len(y) if nothing sticks out
    (flat trace).
    """
    y = np.asarray(y, dtype=float)
    nb = min(MIN_BASELINE_SAMPLES, len(y))
    mu = float(np.mean(y[:nb]))
    sigma = float(np.std(y[:nb]))
    # with sigma = 0 any rise above the flat baseline trips the
    # threshold, which is the right behavior for noiseless synthetics
    above = np.nonzero(y > mu + ONSET_SIGMA * sigma)[0]
    return int(above[0]) if len(above) else len(y)


def baseline_correct(trace, n_bar, pre_window=None):
    """Shift a photons trace so its pre-burst mean equals n_bar.

    Parameters
    ----------
    trace : TimeTrace
        Photon-number trace.
    n_bar : float
        Thermal occupancy the pre-burst level must match.
    pre_window : float, optional
        Duration in seconds of the pre-burst window, measured from the
        first sample.  When omitted, the window extends to the detected
        burst onset (first sample above baseline mean + 5 sigma).

    Returns
    -------
    BaselineResult
        Corrected trace, the additive shift applied, and the number of
        samples the baseline was averaged over.
    """
    trace.require_unit("photons")
    if pre_window is None:
        n_win = detect_burst_onset(trace.y)
    else:
        n_win = int(np.searchsorted(trace.t, trace.t[0] + pre_window, side="right"))
    if n_win < 1:
        raise InvalidInputError("baseline window contains no samples")
    if n_win < MIN_BASELINE_SAMPLES:
        raise InvalidInputError(
            f"baseline window has {n_win} samples; need >= {MIN_BASELINE_SAMPLES}")
    shift = n_bar - float(np.mean(trace.y[:n_win]))
    return BaselineResult(trace.with_values(trace.y + shift), shift, n_win)


def fit_reflection_circle(re_s11, im_s11):
    """Least-squares circle through complex reflection samples.

    Algebraic (Kasa) fit: minimizes the residual of
    x^2 + y^2 + a x + b y + c = 0 in the linear parameters (a, b, c).
    Good enough for well-sampled Q-circles; not robust to arcs covering
    only a few degrees.

    Returns
    -------
    (xc, yc), radius, diameter
    """
    x = np.asarray(re_s11, dtype=float)
    y = np.asarray(im_s11, dtype=float)
    if x.shape != y.shape or x.ndim != 1 or len(x) < 3:
        raise InvalidInputError("need at least 3 (re, im) samples")
    A = np.column_stack([x, y, np.ones_like(x)])
    b = -(x * x + y * y)
    coef, *_ = np.linalg.lstsq(A, b, rcond=None)
    xc, yc = -0.5 * coef[0], -0.5 * coef[1]
    r2 = xc * xc + yc * yc - coef[2]
    if r2 <= 0:
        raise InvalidInputError("degenerate circle fit")
    radius = math.sqrt(r2)
    return (xc, yc), radius, 2.0 * radius
