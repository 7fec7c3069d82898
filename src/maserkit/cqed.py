"""Mean-field cavity QED engine for the triplet maser burst.

N spins couple to a single cavity mode with ensemble coupling g_e.  The
mean-field (first-order cumulant) closure evolves four expectation
values: the cavity photon number <a+a>, the spin-photon coherence
<S+a>, the scaled inversion <Sz> in [-1, 1], and the spin-spin
correlation <S+S->.  With the coherence split into real and imaginary
parts the equations of motion read

    d<a+a>/dt = -kappa_c <a+a> + kappa_c nbar - 2 g_e Im<S+a>
    d<S+a>/dt = -[ (kappa_c + gamma + kappa_s)/2 + i delta ] <S+a>
                - i g_e [ (<Sz>+1)/2 + (1 - 1/N) <S+S-> + <a+a><Sz> ]
    d<Sz>/dt  = -gamma <Sz> + (4 g_e / N) Im<S+a>
    d<S+S->/dt = -(gamma + kappa_s) <S+S-> - 2 g_e <Sz> Im<S+a>

so the photon number, inversion, and correlation stay manifestly real.
When all loss rates and nbar vanish the total excitation
<a+a> + (N/2) <Sz> is conserved exactly.

There are two integrations of these equations, and both work on the
state nondimensionalized by N, because the photon number spans eleven
orders of magnitude over a burst and adaptive error control misbehaves
on such a spread.

simulate_maser integrates one parameter set with scipy's adaptive
embedded Runge-Kutta 5(4) (Dormand-Prince), sampled on a uniform grid.
It stays on RK45 because the maser fit's success depends on this
integrator's truncation error: with DOP853 in its place, fits started
from (kappa_s, N) = 0.7 x truth end 2-4% off while reporting
convergence.

simulate_photon_stack integrates K parameter sets together as one
5K-state system with the 8th-order Dormand-Prince method DOP853, which
costs fewer right-hand-side evaluations than RK45 at equal accuracy.
The members share one step sequence, so the differences between nearby
members that a finite-difference Jacobian takes carry no step-size
noise (internal numerical differentiation).  Both integrations evaluate
the same right-hand side.
"""

from dataclasses import dataclass, fields
from types import SimpleNamespace

import numpy as np
from scipy.integrate import solve_ivp

from .errors import IntegrationFailureError, InvalidInputError, NoOscillationError
from .trace import TimeTrace
from .units import angular_to_ordinary

# Default tolerances on the N-scaled state.  The absolute floor sits
# well below the scaled thermal occupancy nbar/N ~ 4e-12 so the
# pre-burst plateau and the g_e = 0 fixed point are resolved, not
# rounded away.
DEFAULT_RTOL = 1e-8
DEFAULT_ATOL = 1e-18
DEFAULT_NPOINTS = 2000

# Spectral peaks are searched from this FFT bin upward.  The extractor
# requires at least four oscillation periods in the analysis window, so
# a real Rabi peak sits at bin >= 4 and bins 1-2 carry only envelope
# leakage.
MIN_SEARCH_BIN = 3
RIPPLE_FLOOR_DECADES = 6.0
PEAK_OVER_FLOOR = 3.0


@dataclass(frozen=True)
class MaserSystemParams:
    """Rates and sizes defining one maser simulation.

    All rates are angular s^-1 except gamma, which the experiment
    determines directly as a plain decay rate.  n_spins is the number
    of participating spins, n_bar the thermal photon occupancy that
    seeds and floors the photon number.
    """

    g_e: float
    kappa_c: float
    kappa_s: float
    gamma: float
    delta: float
    n_spins: float
    n_bar: float

    def __post_init__(self):
        for name in ("g_e", "kappa_c", "kappa_s", "gamma", "n_bar"):
            if getattr(self, name) < 0:
                raise InvalidInputError(f"{name} must be >= 0")
        if self.n_spins < 1:
            raise InvalidInputError(f"n_spins must be >= 1, got {self.n_spins!r}")


@dataclass(frozen=True)
class MaserState:
    """Instantaneous expectation values (photon number, coherence, inversion, correlation)."""

    photon_number: float
    coherence: complex
    inversion: float
    spin_correlation: float

    def validate(self, scale=1.0):
        eps = 1e-6 * max(scale, 1.0)
        if self.photon_number < -eps:
            raise InvalidInputError(f"photon_number must be >= 0, got {self.photon_number!r}")
        if abs(self.inversion) > 1.0 + 1e-6:
            raise InvalidInputError(f"|inversion| must be <= 1, got {self.inversion!r}")
        return self


def _scaled_rhs(t, y, p):
    # State scaled by N: y = (n/N, Re c/N, Im c/N, sz, ss/N).
    n, cr, ci, sz, ss = y
    half_width = 0.5 * (p.kappa_c + p.gamma + p.kappa_s)
    bracket = 0.5 * (sz + 1.0) / p.n_spins + (1.0 - 1.0 / p.n_spins) * ss + n * sz
    return (
        -p.kappa_c * n + p.kappa_c * p.n_bar / p.n_spins - 2.0 * p.g_e * ci,
        -half_width * cr + p.delta * ci,
        -half_width * ci - p.delta * cr - p.g_e * bracket,
        -p.gamma * sz + 4.0 * p.g_e * ci,
        -(p.gamma + p.kappa_s) * ss - 2.0 * p.g_e * sz * ci,
    )


def _stacked_rhs(t, y, p):
    # K members stored row-major as (5, K); p holds one (K,) array per rate.
    return np.concatenate(_scaled_rhs(t, y.reshape(5, -1), p))


@dataclass(frozen=True)
class MaserTrajectory:
    """Simulated expectation values on a uniform output grid (physical units)."""

    t: np.ndarray
    photon_number: np.ndarray
    coherence: np.ndarray
    inversion: np.ndarray
    spin_correlation: np.ndarray
    params: MaserSystemParams

    def photon_trace(self):
        return TimeTrace(self.t, self.photon_number, "photons")

    def total_excitation(self):
        """<a+a> + (N/2) <Sz>, conserved when all losses vanish."""
        return self.photon_number + 0.5 * self.params.n_spins * self.inversion


def simulate_maser(params, init, t_span, rtol=DEFAULT_RTOL, atol=DEFAULT_ATOL,
                   n_points=DEFAULT_NPOINTS, t_eval=None):
    """Integrate the mean-field equations over t_span.

    Parameters
    ----------
    params : MaserSystemParams
    init : MaserState
        Initial expectation values (physical units, not N-scaled).
    t_span : (float, float)
        Start and end time in seconds.
    rtol, atol : float
        Tolerances applied to the N-scaled state.
    n_points : int
        Number of uniform output samples when t_eval is not given.
    t_eval : array_like, optional
        Explicit output grid (seconds) overriding n_points.

    Returns
    -------
    MaserTrajectory

    Raises
    ------
    IntegrationFailureError
        If the integrator cannot advance; carries the last good time.
    """
    t0, t1 = float(t_span[0]), float(t_span[1])
    if not t0 < t1:
        raise InvalidInputError(f"require t_span[0] < t_span[1], got {t_span!r}")
    if rtol <= 0 or atol <= 0:
        raise InvalidInputError("tolerances must be positive")
    init.validate(scale=max(params.n_bar, 1.0))
    if t_eval is None:
        t_eval = np.linspace(t0, t1, int(n_points))
    else:
        t_eval = np.asarray(t_eval, dtype=float)

    N = params.n_spins
    c0 = complex(init.coherence)
    y0 = (init.photon_number / N, c0.real / N, c0.imag / N,
          init.inversion, init.spin_correlation / N)
    sol = solve_ivp(_scaled_rhs, (t0, t1), y0, method="RK45", t_eval=t_eval,
                    rtol=rtol, atol=atol, args=(params,), dense_output=False)
    if not sol.success:
        last = float(sol.t[-1]) if len(sol.t) else t0
        raise IntegrationFailureError(
            f"integration stalled at t = {last:.6e} s: {sol.message}", last_time=last)
    return MaserTrajectory(
        t=sol.t,
        photon_number=sol.y[0] * N,
        coherence=(sol.y[1] + 1j * sol.y[2]) * N,
        inversion=sol.y[3],
        spin_correlation=sol.y[4] * N,
        params=params,
    )


def simulate_photon_stack(params_list, init, t_eval):
    """Photon numbers of K parameter sets from one stacked integration.

    The members share the initial state and are integrated together as
    one 5K-state system with DOP853 at DEFAULT_RTOL and DEFAULT_ATOL, so
    they share one step sequence.  Each member agrees with simulate_maser
    to within the tolerance-level difference between the two methods.

    Parameters
    ----------
    params_list : sequence of MaserSystemParams
    init : MaserState
        Initial expectation values (physical units), shared by all members.
    t_eval : array_like
        Increasing output grid in seconds; the integration spans its ends.

    Returns
    -------
    np.ndarray
        Photon number, shape (K, len(t_eval)).

    Raises
    ------
    IntegrationFailureError
        If the stacked system cannot advance; one failing member stops
        all of them.
    """
    if len(params_list) == 0:
        raise InvalidInputError("need at least one parameter set")
    t_eval = np.asarray(t_eval, dtype=float)
    if len(t_eval) < 2 or not t_eval[0] < t_eval[-1]:
        raise InvalidInputError("t_eval must increase over at least two samples")
    p = SimpleNamespace(**{
        f.name: np.array([getattr(q, f.name) for q in params_list], dtype=float)
        for f in fields(MaserSystemParams)})
    init.validate(scale=max(float(np.max(p.n_bar)), 1.0))

    N = p.n_spins
    c0 = complex(init.coherence)
    y0 = np.concatenate([init.photon_number / N, c0.real / N, c0.imag / N,
                         np.full(len(N), float(init.inversion)),
                         init.spin_correlation / N])
    sol = solve_ivp(_stacked_rhs, (t_eval[0], t_eval[-1]), y0, method="DOP853",
                    t_eval=t_eval, rtol=DEFAULT_RTOL, atol=DEFAULT_ATOL, args=(p,))
    if not sol.success:
        last = float(sol.t[-1]) if len(sol.t) else float(t_eval[0])
        raise IntegrationFailureError(
            f"stacked integration stalled at t = {last:.6e} s: {sol.message}",
            last_time=last)
    return sol.y[:len(N)] * N[:, None]


def cooperativity(g_e, kappa_c, kappa_s):
    """Cooperativity C = 4 g_e^2 / (kappa_c kappa_s)."""
    if kappa_c <= 0 or kappa_s <= 0:
        raise InvalidInputError("kappa_c and kappa_s must be > 0")
    return 4.0 * g_e * g_e / (kappa_c * kappa_s)


def predicted_rabi(g_e):
    """Predicted Rabi angular frequency Omega = 2 g_e."""
    if g_e < 0:
        raise InvalidInputError(f"g_e must be >= 0, got {g_e!r}")
    return 2.0 * g_e


def _ripple_train_end(seg):
    """Index just past the last resolvable ripple maximum in a burst tail.

    Ripple maxima more than RIPPLE_FLOOR_DECADES below the burst peak are
    treated as lost in the noise floor; the window closes half a ripple
    spacing after the last one that survives.  With no interior maxima at
    all the whole segment is returned, so monotone tails fall through to
    the no-oscillation check downstream.
    """
    if len(seg) < 3:
        return len(seg)
    floor = np.max(seg) * 10.0 ** (-RIPPLE_FLOOR_DECADES)
    is_max = (seg[1:-1] > seg[:-2]) & (seg[1:-1] >= seg[2:])
    idx = np.nonzero(is_max)[0] + 1
    idx = idx[seg[idx] >= floor]
    if len(idx) == 0:
        return len(seg)
    if len(idx) >= 2:
        spacing = idx[-1] - idx[-2]
    else:
        spacing = max(len(seg) // 10, 1)
    return min(idx[-1] + spacing // 2 + 1, len(seg))


def extract_rabi_frequency(trace, burst_window=None):
    """Oscillation frequency of a photon burst, in ordinary Hz.

    The analysis segment is mean-detrended, Hann-windowed, and Fourier
    transformed.  The dominant peak at bin >= MIN_SEARCH_BIN is refined
    by quadratic interpolation of the log-magnitude across the peak bin.
    Without an explicit burst_window = (t_lo, t_hi) the segment runs from
    the trace maximum to the end of the ripple train; leaving the long
    featureless decay tail out keeps the frequency resolution matched to
    where the oscillation actually lives.

    Raises NoOscillationError when no peak reaches PEAK_OVER_FLOOR
    times the median spectral floor.
    """
    trace.require_unit("photons")
    t, y = trace.t, trace.y
    if burst_window is not None:
        lo, hi = burst_window
        seg = y[(t >= lo) & (t <= hi)]
        ts = t[(t >= lo) & (t <= hi)]
    else:
        i0 = int(np.argmax(y))
        i1 = i0 + _ripple_train_end(y[i0:])
        seg = y[i0:i1]
        ts = t[i0:i1]
    if len(seg) < 4 * (MIN_SEARCH_BIN + 1):
        raise InvalidInputError("analysis window has too few samples")
    dt = np.diff(ts)
    if not np.allclose(dt, dt[0], rtol=1e-6):
        raise InvalidInputError("Rabi extraction requires a uniform sample grid")

    seg = seg - np.mean(seg)
    win = np.hanning(len(seg))
    spectrum = np.abs(np.fft.rfft(seg * win))
    power = spectrum[MIN_SEARCH_BIN:]
    if len(power) < 3:
        raise InvalidInputError("analysis window has too few samples")
    floor = np.median(power)
    k_rel = int(np.argmax(power))
    peak = power[k_rel]
    if peak <= 0 or (floor > 0 and peak < PEAK_OVER_FLOOR * floor):
        raise NoOscillationError(
            f"strongest spectral peak is {peak:.3g}, floor {floor:.3g}")
    k = k_rel + MIN_SEARCH_BIN
    df = 1.0 / (dt[0] * len(seg))
    # quadratic refinement on log magnitude; guarded against flat tops
    if 1 <= k < len(spectrum) - 1 and spectrum[k - 1] > 0 and spectrum[k + 1] > 0:
        la, lb, lc = np.log(spectrum[k - 1:k + 2])
        denom = la - 2.0 * lb + lc
        shift = 0.5 * (la - lc) / denom if denom != 0 else 0.0
        shift = float(np.clip(shift, -0.5, 0.5))
    else:
        shift = 0.0
    return (k + shift) * df


def rabi_discrepancy(trace, g_e, burst_window=None):
    """Ratio of predicted to extracted Rabi frequency (> 1 means slower than predicted)."""
    measured = extract_rabi_frequency(trace, burst_window)
    return angular_to_ordinary(predicted_rabi(g_e)) / measured


def count_oscillations(trace, burst_window=None, prominence=0.01):
    """Number of resolvable local maxima in a photon burst.

    A maximum is resolved when it exceeds the adjacent local minima on
    both sides by the given fractional prominence (1% by default).
    Includes the main burst peak.
    """
    trace.require_unit("photons")
    y = trace.y
    if burst_window is not None:
        sel = (trace.t >= burst_window[0]) & (trace.t <= burst_window[1])
        y = y[sel]
    if len(y) < 3:
        return 0
    is_max = (y[1:-1] > y[:-2]) & (y[1:-1] >= y[2:])
    is_min = (y[1:-1] < y[:-2]) & (y[1:-1] <= y[2:])
    max_idx = np.nonzero(is_max)[0] + 1
    min_idx = np.nonzero(is_min)[0] + 1
    count = 0
    for i in max_idx:
        left_mins = min_idx[min_idx < i]
        right_mins = min_idx[min_idx > i]
        v_left = y[left_mins[-1]] if len(left_mins) else y[0]
        v_right = y[right_mins[0]] if len(right_mins) else y[-1]
        if y[i] > (1.0 + prominence) * v_left and y[i] > (1.0 + prominence) * v_right:
            count += 1
    return count
