"""Time-resolved spectroscopy analysis.

Three independent pieces:

* SVD global analysis of transient-absorption matrices DeltaA(lambda, t),
  with mono-exponential lifetime fits of the significant time profiles
* TCSPC multi-exponential tail fits (after the counts peak; no IRF
  reconvolution, justified for IRF much shorter than the fast lifetime)
* triplet quantum yield arithmetic from fluorescence and ISC lifetimes

Both lifetime fits are fitting._fit_exponentials, the package's one
sum-of-exponentials fitter.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError, NumericalError
from .trace import CSV_FLOAT_FMT, read_columns, write_columns
from . import fitting

DEFAULT_SIGNIFICANCE = 0.10


@dataclass(frozen=True)
class SpectrumMatrix:
    """Transient absorption matrix DeltaA indexed by (wavelength, delay).

    wavelengths in nm, strictly increasing; delays in ps, strictly
    increasing (non-uniform stage positions are accepted as-is).
    delta_a has shape (len(wavelengths), len(delays)).
    """

    wavelengths: np.ndarray
    delays: np.ndarray
    delta_a: np.ndarray

    def __post_init__(self):
        wl = np.array(self.wavelengths, dtype=float, copy=True)
        dl = np.array(self.delays, dtype=float, copy=True)
        da = np.array(self.delta_a, dtype=float, copy=True)
        for arr in (wl, dl, da):
            arr.setflags(write=False)
        object.__setattr__(self, "wavelengths", wl)
        object.__setattr__(self, "delays", dl)
        object.__setattr__(self, "delta_a", da)
        if wl.ndim != 1 or dl.ndim != 1:
            raise InvalidInputError("axes must be one-dimensional")
        if np.any(np.diff(wl) <= 0) or np.any(np.diff(dl) <= 0):
            raise InvalidInputError("axes must be strictly increasing")
        if da.shape != (len(wl), len(dl)):
            raise InvalidInputError(
                f"delta_a shape {da.shape} does not match axes "
                f"({len(wl)}, {len(dl)})")
        if not np.all(np.isfinite(da)):
            raise InvalidInputError("delta_a contains non-finite values")


@dataclass
class GlobalAnalysisResult:
    """SVD decomposition with per-component lifetimes.

    singular_values is the full descending list; spectral_components
    and time_profiles hold only the significant ones (rows).  Lifetimes
    are in the unit of the delay axis (ps).
    """

    singular_values: np.ndarray
    spectral_components: np.ndarray
    time_profiles: np.ndarray
    significant_count: int
    component_lifetimes: list = field(default_factory=list)


def svd_global_analysis(matrix, significance_threshold=DEFAULT_SIGNIFICANCE,
                        fit_lifetimes=True):
    """Full SVD of a transient-absorption matrix plus lifetime fits.

    Components whose singular value is at least
    significance_threshold times the largest are significant; each
    significant time profile is fitted mono-exponentially for its
    decay-associated lifetime.  Pass fit_lifetimes=False to get the
    decomposition alone, e.g. for rank surveys where the profiles are
    not kinetic.

    An all-zero matrix gives zero significant components and no
    lifetimes (not an error).
    """
    if matrix.delta_a.shape[0] < 2 or matrix.delta_a.shape[1] < 2:
        raise InvalidInputError("matrix must be at least 2x2")
    u, s, vt = np.linalg.svd(matrix.delta_a, full_matrices=False)
    if s[0] == 0.0:
        return GlobalAnalysisResult(
            singular_values=s, spectral_components=np.empty((0, len(matrix.wavelengths))),
            time_profiles=np.empty((0, len(matrix.delays))),
            significant_count=0, component_lifetimes=[])
    significant = s >= significance_threshold * s[0]
    n_sig = int(np.count_nonzero(significant))
    lifetimes = []
    if fit_lifetimes:
        t = matrix.delays - matrix.delays[0]
        for i in range(n_sig):
            # c exp(-t / tau) + offset, the sign of c free for in-growing profiles
            res = fitting._fit_exponentials(t, vt[i], 1, offset=True)
            with np.errstate(over="ignore"):
                tau = float(np.exp(-res.params[2]))
            if not math.isfinite(tau):
                raise NumericalError("mono-exponential profile fit failed")
            lifetimes.append(tau)
    return GlobalAnalysisResult(
        singular_values=s,
        spectral_components=u.T[:n_sig],
        time_profiles=vt[:n_sig],
        significant_count=n_sig,
        component_lifetimes=lifetimes)


# ---------------------------------------------------------------------------
# TCSPC


@dataclass(frozen=True)
class TcspcFit:
    """Multi-exponential tail fit: lifetimes in ns, amplitudes normalized to 1."""

    lifetimes_ns: tuple
    amplitudes: tuple
    residual_norm: float
    converged: bool


def fit_tcspc(trace, n_components):
    """Tail fit of a photon-counting decay with 1 to 3 exponentials.

    Only samples after the counts maximum enter the fit (tail fitting;
    the instrument response is assumed short against the fastest
    lifetime).  Lifetimes are in ascending order; amplitudes are
    unconstrained and normalized to sum to one.

    Returns a TcspcFit with converged=False instead of raising when the
    data cannot support the requested component count: when the
    optimizer stops without converging, an amplitude is not positive or
    a lifetime is not finite.
    """
    if n_components not in (1, 2, 3):
        raise InvalidInputError(f"n_components must be 1, 2, or 3, got {n_components!r}")
    y = trace.y
    i_peak = int(np.argmax(y))
    t_tail = trace.t[i_peak:] - trace.t[i_peak]
    y_tail = y[i_peak:]
    if len(t_tail) < 50:
        raise InvalidInputError("need at least 50 samples past the counts peak")

    if float(np.max(y_tail)) <= 0:
        raise InvalidInputError("tail contains no positive counts")
    res = fitting._fit_exponentials(t_tail, y_tail, n_components)
    amps = res.params[:n_components]
    with np.errstate(over="ignore"):
        taus = np.exp(-res.params[n_components:])
    total = float(np.sum(amps))
    if total <= 0:
        return TcspcFit((), (), res.residual_norm, False)
    return TcspcFit(
        lifetimes_ns=tuple(tau * 1e9 for tau in taus),
        amplitudes=tuple(a / total for a in amps),
        residual_norm=res.residual_norm,
        converged=bool(res.converged and np.all(amps > 0) and np.all(np.isfinite(taus))))


# ---------------------------------------------------------------------------
# matrix CSV format: first row wavelengths (nm), first column delays (ps)


MATRIX_CORNER = "delay_ps"


def write_matrix_csv(path, matrix):
    """Write a SpectrumMatrix; rows are delays, columns wavelengths."""
    header = ",".join([MATRIX_CORNER, *(CSV_FLOAT_FMT % w for w in matrix.wavelengths)])
    write_columns(path, header, [matrix.delays, *matrix.delta_a])


def read_matrix_csv(path):
    """Read the matrix CSV format written by write_matrix_csv."""
    header, body = read_columns(path)
    parts = header.split(",")
    if len(parts) < 3:
        raise InvalidInputError(f"{path}: matrix header needs >= 2 wavelengths")
    try:
        wavelengths = np.array([float(v) for v in parts[1:]])
    except ValueError as exc:
        raise InvalidInputError(f"{path}: malformed wavelength header ({exc})") from exc
    if body.shape[1] != len(wavelengths) + 1:
        raise InvalidInputError(
            f"{path}: row length {body.shape[1]} does not match header")
    delays = body[:, 0]
    delta_a = body[:, 1:].T
    return SpectrumMatrix(wavelengths, delays, delta_a)


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
