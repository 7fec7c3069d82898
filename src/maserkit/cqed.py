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

The equations are integrated on the state nondimensionalized by N,
because the photon number spans eleven orders of magnitude over a burst
and adaptive error control misbehaves on such a spread.

There is one integrator, _integrate_rk45: the adaptive embedded
Runge-Kutta 5(4) pair of Dormand and Prince with Shampine's quartic
dense output.  It runs scipy RK45's method in-house on Python floats:
the same tableau, initial-step rule, error norm, step-size controller
and minimum step, so it takes the steps and right-hand-side calls that
solve_ivp(method="RK45") takes, without scipy's per-step array overhead,
which outweighed the five-state right-hand side.  The method must stay
because the maser fit's success depends on its truncation error: with
DOP853 in its place, fits started from (kappa_s, N) = 0.7 x truth end
2-4% off while reporting convergence.

The integrator keeps every accepted step.  simulate_maser samples one
solve on an output grid.  The maser fit solves with _solve_burst (its
photon numbers are bit-identical to simulate_maser's) and takes the
derivatives of log10 n with respect to log10 (g_e, kappa_s, N) from
that record with _log_photon_sensitivity: a vectorised numpy pass that
differentiates the Runge-Kutta steps themselves with the step sizes
held fixed (forward sensitivities with error control on the state only,
as in CVODES with errconS off; Hindmarsh et al., ACM TOMS 31, 363
(2005)).  So the Jacobian is exact for the discretization the residual
uses, and it costs no second integration.
"""

import math
from array import array
from bisect import bisect_right
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

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
# Step attempts (accepted and rejected) one solve may take.  The canonical
# 15 us burst takes about 1,400; rates so large that the step size
# collapses would otherwise step without end near t = 0.
MAX_STEPS = 50_000

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


_RhsCoefficients = namedtuple("_RhsCoefficients", (
    "kappa_c", "feed", "half_width", "delta", "g_e", "two_g", "four_g",
    "gamma", "n_spins", "pair_weight", "pair_decay"))


def _rhs_coefficients(p):
    """Per-solve constants of _scaled_rhs for the parameters p."""
    return _RhsCoefficients(
        kappa_c=p.kappa_c,
        feed=p.kappa_c * p.n_bar / p.n_spins,
        half_width=0.5 * (p.kappa_c + p.gamma + p.kappa_s),
        delta=p.delta,
        g_e=p.g_e,
        two_g=2.0 * p.g_e,
        four_g=4.0 * p.g_e,
        gamma=p.gamma,
        n_spins=p.n_spins,
        pair_weight=1.0 - 1.0 / p.n_spins,
        pair_decay=p.gamma + p.kappa_s,
    )


def _scaled_rhs(t, y, c):
    # State scaled by N: y = (n/N, Re c/N, Im c/N, sz, ss/N); c from _rhs_coefficients.
    n, cr, ci, sz, ss = y
    kappa_c, feed, half_width, delta, g_e, two_g, four_g, gamma, n_spins, pair_weight, \
        pair_decay = c
    bracket = 0.5 * (sz + 1.0) / n_spins + pair_weight * ss + n * sz
    return (
        -kappa_c * n + feed - two_g * ci,
        -half_width * cr + delta * ci,
        -half_width * ci - delta * cr - g_e * bracket,
        -gamma * sz + four_g * ci,
        -pair_decay * ss - two_g * sz * ci,
    )


# Dormand-Prince 5(4) pair (J. Comput. Appl. Math. 6, 19 (1980)) with
# Shampine's quartic dense output (Math. Comp. 46, 135 (1986)), the
# coefficients of scipy's RK45.  Zero entries are left out.
_C2, _C3, _C4, _C5 = 1 / 5, 3 / 10, 4 / 5, 8 / 9
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176,
                                -5103 / 18656)
_B1, _B3, _B4, _B5, _B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
_E1, _E3, _E4, _E5, _E6, _E7 = (-71 / 57600, 71 / 16695, -71 / 1920, 17253 / 339200,
                                -22 / 525, 1 / 40)
_DENSE_P = np.array([
    [1, -8048581381 / 2820520608, 8663915743 / 2820520608,
     -12715105075 / 11282082432],
    [0, 0, 0, 0],
    [0, 131558114200 / 32700410799, -68118460800 / 10900136933,
     87487479700 / 32700410799],
    [0, -1754552775 / 470086768, 14199869525 / 1410260304,
     -10690763975 / 1880347072],
    [0, 127303824393 / 49829197408, -318862633887 / 49829197408,
     701980252875 / 199316789632],
    [0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
    [0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423]])
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_ERROR_EXPONENT = -1 / 5
# One step record: t_old, t_new, y_old (5) and the stages k1..k7 (35).
_RECORD = 42


def _rms(x):
    # Squares by multiplication: an overflow gives inf, as in numpy, not an exception.
    return math.sqrt(sum([v * v for v in x])) / math.sqrt(len(x))


def _stalled(t_out, done, t0, message):
    last = t_out[done - 1] if done else t0
    return IntegrationFailureError(
        f"integration stalled at t = {last:.6e} s: {message}", last_time=last)


def _initial_step(rhs, c, t0, t1, y0, f0, rtol, atol):
    """First step size by the rule of Hairer, Norsett & Wanner, Sec. II.4."""
    interval = t1 - t0
    scale = [atol + abs(a) * rtol for a in y0]
    d0 = _rms([a / b for a, b in zip(y0, scale)])
    d1 = _rms([a / b for a, b in zip(f0, scale)])
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval)
    f1 = rhs(t0 + h0, [a + h0 * b for a, b in zip(y0, f0)], c)
    d2 = _rms([(a - b) / s for a, b, s in zip(f1, f0, scale)]) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 5)
    return min(100 * h0, h1, interval)


def _dense_output(record, t_eval):
    """States at t_eval from the quartic interpolants of the recorded steps."""
    rec = np.frombuffer(record, dtype=float).reshape(-1, _RECORD)
    t_old, t_new = rec[:, 0], rec[:, 1]
    step = np.searchsorted(t_new, t_eval)
    h = (t_new - t_old)[step]
    q = np.einsum("msi,sj->mij", rec[step, 7:].reshape(-1, 7, 5), _DENSE_P)
    x = (t_eval - t_old[step]) / h
    powers = np.cumprod(np.repeat(x[:, None], 4, axis=1), axis=1)
    return (rec[step, 2:7] + h[:, None] * np.einsum("pij,pj->pi", q, powers)).T


def _integrate_rk45(rhs, c, t0, t1, y0, t_eval, rtol, atol):
    """Integrate y' = rhs(t, y, c) from t0 to t1 on Python floats.

    The method, error norm, step-size controller, minimum step and dense
    output are those of scipy's solve_ivp(method="RK45") with max_step
    unbounded, so the two take the same steps.  Returns the record of
    every accepted step, one flat float array of _RECORD floats per step,
    which _dense_output turns into the states at t_eval and
    _log_photon_sensitivity into their derivatives.

    Raises IntegrationFailureError, carrying the last output time reached,
    when the step size falls below ten float spacings of t, the arithmetic
    fails (overflow, division by zero) or MAX_STEPS step attempts do not
    reach t1.
    """
    t_out = t_eval.tolist()
    record = array("d")
    done = 0
    attempts = 0
    t, y = t0, y0
    try:
        f = rhs(t, y, c)
        h_abs = _initial_step(rhs, c, t0, t1, y0, f, rtol, atol)
        while t < t1:
            min_step = 10.0 * (math.nextafter(t, math.inf) - t)
            h_abs = max(h_abs, min_step)
            rejected = False
            while True:
                if not h_abs >= min_step:
                    raise _stalled(t_out, done, t0, "Required step size is less than "
                                   "spacing between numbers.")
                attempts += 1
                if attempts > MAX_STEPS:
                    raise _stalled(t_out, done, t0, f"{MAX_STEPS} step attempts did not reach the "
                                   "end of the span")
                t_new = min(t + h_abs, t1)
                h = t_new - t
                k1 = f
                k2 = rhs(t + _C2 * h, [a + (_A21 * p) * h for a, p in zip(y, k1)], c)
                k3 = rhs(t + _C3 * h, [a + (_A31 * p + _A32 * q) * h
                                       for a, p, q in zip(y, k1, k2)], c)
                k4 = rhs(t + _C4 * h, [a + (_A41 * p + _A42 * q + _A43 * r) * h
                                       for a, p, q, r in zip(y, k1, k2, k3)], c)
                k5 = rhs(t + _C5 * h, [a + (_A51 * p + _A52 * q + _A53 * r + _A54 * s) * h
                                       for a, p, q, r, s in zip(y, k1, k2, k3, k4)], c)
                k6 = rhs(t + h, [a + (_A61 * p + _A62 * q + _A63 * r + _A64 * s + _A65 * u) * h
                                 for a, p, q, r, s, u in zip(y, k1, k2, k3, k4, k5)], c)
                y_new = [a + h * (_B1 * p + _B3 * r + _B4 * s + _B5 * u + _B6 * v)
                         for a, p, r, s, u, v in zip(y, k1, k3, k4, k5, k6)]
                k7 = rhs(t + h, y_new, c)
                error_norm = _rms([
                    (_E1 * p + _E3 * r + _E4 * s + _E5 * u + _E6 * v + _E7 * w) * h
                    / (atol + max(abs(a), abs(b)) * rtol)
                    for a, b, p, r, s, u, v, w in zip(y, y_new, k1, k3, k4, k5, k6, k7)])
                if error_norm < 1:
                    if error_norm == 0:
                        factor = _MAX_FACTOR
                    else:
                        factor = min(_MAX_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
                    if rejected:
                        factor = min(1, factor)
                    h_abs = h * factor
                    break
                h_abs = h * max(_MIN_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
                rejected = True
            record.extend((t, t_new, *y, *k1, *k2, *k3, *k4, *k5, *k6, *k7))
            done = bisect_right(t_out, t_new, done)
            t, y, f = t_new, y_new, k7
    except ArithmeticError as exc:
        raise _stalled(t_out, done, t0, f"arithmetic failure ({exc})") from None
    return record


# The stage tableau as one table: row i builds the state of stage i + 1
# from k1..k6, and the last row (the 5th-order weights) builds y_new,
# where k7 is evaluated.
_STAGES = np.array([
    [0, 0, 0, 0, 0, 0],
    [_A21, 0, 0, 0, 0, 0],
    [_A31, _A32, 0, 0, 0, 0],
    [_A41, _A42, _A43, 0, 0, 0],
    [_A51, _A52, _A53, _A54, 0, 0],
    [_A61, _A62, _A63, _A64, _A65, 0],
    [_B1, 0, _B3, _B4, _B5, _B6]])
_LN10 = math.log(10.0)
# Steps per block of the sensitivity pass; bounds its scratch memory.
_SENSITIVITY_BLOCK = 128


def _rhs_derivatives(y, c, kappa_s):
    """Derivatives of _scaled_rhs at the states y, shape (m, 5).

    Returns d f / d y, shape (m, 5, 5), and d f / d log10 (g_e, kappa_s,
    n_spins), shape (m, 5, 3), with c the float coefficients of
    _rhs_coefficients.
    """
    n, cr, ci, sz, ss = y.T
    dy = np.zeros((len(y), 5, 5))
    dy[:, 0, 0] = -c.kappa_c
    dy[:, 0, 2] = -c.two_g
    dy[:, 1, 1] = -c.half_width
    dy[:, 1, 2] = c.delta
    dy[:, 2, 0] = -c.g_e * sz
    dy[:, 2, 1] = -c.delta
    dy[:, 2, 2] = -c.half_width
    dy[:, 2, 3] = -c.g_e * (0.5 / c.n_spins + n)
    dy[:, 2, 4] = -c.g_e * c.pair_weight
    dy[:, 3, 2] = c.four_g
    dy[:, 3, 3] = -c.gamma
    dy[:, 4, 2] = -c.two_g * sz
    dy[:, 4, 3] = -c.two_g * ci
    dy[:, 4, 4] = -c.pair_decay
    # p d f / d p for p = g_e, kappa_s, n_spins, then times ln 10
    dp = np.zeros((len(y), 5, 3))
    dp[:, 0, 0] = -c.two_g * ci
    dp[:, 2, 0] = -c.g_e * (0.5 * (sz + 1.0) / c.n_spins + c.pair_weight * ss + n * sz)
    dp[:, 3, 0] = c.four_g * ci
    dp[:, 4, 0] = -c.two_g * sz * ci
    dp[:, 1, 1] = -0.5 * kappa_s * cr
    dp[:, 2, 1] = -0.5 * kappa_s * ci
    dp[:, 4, 1] = -kappa_s * ss
    dp[:, 0, 2] = -c.feed
    dp[:, 2, 2] = c.g_e * (0.5 * (sz + 1.0) - ss) / c.n_spins
    return dy, dp * _LN10


def _scaled_start(params, init):
    """(y0, float RHS coefficients, N) of the N-scaled system."""
    N = float(params.n_spins)
    c0 = complex(init.coherence)
    y0 = (float(init.photon_number) / N, c0.real / N, c0.imag / N,
          float(init.inversion), float(init.spin_correlation) / N)
    return y0, _RhsCoefficients._make(float(v) for v in _rhs_coefficients(params)), N


_BurstSolve = namedtuple("_BurstSolve", (
    "params", "y0", "coeffs", "t_eval", "record", "photon_number"))


def _solve_burst(params, init, t_eval):
    """Photon numbers on the increasing grid t_eval and the solve's step record.

    It is simulate_maser's solve over (t_eval[0], t_eval[-1]) at the
    default tolerances, so photon_number is bit-identical to
    simulate_maser(params, init, (t_eval[0], t_eval[-1]), t_eval=t_eval);
    the record feeds _log_photon_sensitivity.  Raises
    IntegrationFailureError as simulate_maser does.
    """
    y0, coeffs, N = _scaled_start(params, init)
    record = _integrate_rk45(_scaled_rhs, coeffs, float(t_eval[0]), float(t_eval[-1]), y0,
                             t_eval, DEFAULT_RTOL, DEFAULT_ATOL)
    return _BurstSolve(params, y0, coeffs, t_eval, record,
                       _dense_output(record, t_eval)[0] * N)


def _log_photon_sensitivity(solve):
    """d log10 n / d log10 (g_e, kappa_s, n_spins) on solve.t_eval, shape (len, 3).

    The exact derivative of the recorded Runge-Kutta solution with its
    step sizes frozen.  A step maps the sensitivity S = dy/dp (5 x 3)
    affinely, S_next = M S + v, with M and v built from the stage
    Jacobians of _scaled_rhs; as 8 x 8 matrices [[M, v], [0, I]] acting
    on [S; I] the maps combine by a log-depth prefix product, in blocks
    of _SENSITIVITY_BLOCK steps.  The stage sensitivities of the steps
    that host output points are then rebuilt from S and weighted by the
    quartic dense output.  The initial state and n = N y[0] add the
    dependence on N through the scaling.
    """
    rec = np.frombuffer(solve.record, dtype=float).reshape(-1, _RECORD)
    t_eval = solve.t_eval
    kappa_s = float(solve.params.kappa_s)
    host = np.searchsorted(rec[:, 1], t_eval)
    frame = np.eye(5, 8)
    # [S; I] at the current step; y0 scales as 1/N except the inversion
    state = np.eye(8, 3, -5)
    state[:5, 2] = -_LN10 * np.array(solve.y0)
    state[3, 2] = 0.0
    sens = np.empty((len(t_eval), 5, 3))
    for lo in range(0, len(rec), _SENSITIVITY_BLOCK):
        block = rec[lo:lo + _SENSITIVITY_BLOCK]
        m = len(block)
        h = (block[:, 1] - block[:, 0])[:, None, None]
        k = block[:, 7:].reshape(m, 7, 5)
        stage_y = block[:, None, 2:7] + h * np.einsum("ij,mjd->mid", _STAGES, k[:, :6])
        dy, dp = _rhs_derivatives(stage_y.reshape(-1, 5), solve.coeffs, kappa_s)
        dy, dp = dy.reshape(m, 7, 5, 5), dp.reshape(m, 7, 5, 3)
        # maps[:, i] = d k_(i+1) / d [S; p], with z the derivative of the
        # stage's state; the last z, that of y_new, is the step's [M | v]
        maps = np.empty((m, 7, 5, 8))
        for i in range(7):
            z = frame + h * np.einsum("j,mjdc->mdc", _STAGES[i, :i], maps[:, :i])
            maps[:, i] = dy[:, i] @ z
            maps[:, i, :, 5:] += dp[:, i]
        prefix = np.zeros((m, 8, 8))
        prefix[:, :5] = z
        prefix[:, 5:, 5:] = np.eye(3)
        span = 1
        while span < m:
            prefix[span:] = prefix[span:] @ prefix[:-span]
            span *= 2
        states = np.concatenate([state[None], prefix @ state])
        state = states[-1]
        first, stop = np.searchsorted(host, (lo, lo + m))
        steps, where = np.unique(host[first:stop] - lo, return_inverse=True)
        stages = (maps[steps] @ states[steps][:, None])[where]
        hh = h[steps, 0, 0][where]
        x = (t_eval[first:stop] - block[steps, 0][where]) / hh
        weights = np.cumprod(np.repeat(x[:, None], 4, axis=1), axis=1) @ _DENSE_P.T
        sens[first:stop] = (states[steps, :5][where]
                            + hh[:, None, None] * np.einsum("qi,qids->qds", weights, stages))
    n_scaled = solve.photon_number / solve.coeffs.n_spins
    out = sens[:, 0, :] / (_LN10 * n_scaled[:, None])
    out[:, 2] += 1.0
    return out


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
        t_eval = np.array(t_eval, dtype=float)
        if t_eval.ndim != 1:
            raise ValueError("`t_eval` must be 1-dimensional.")
        if np.any(t_eval < t0) or np.any(t_eval > t1):
            raise ValueError("Values in `t_eval` are not within `t_span`.")
        if np.any(np.diff(t_eval) <= 0):
            raise ValueError("Values in `t_eval` are not properly sorted.")

    y0, coeffs, N = _scaled_start(params, init)
    y = _dense_output(_integrate_rk45(_scaled_rhs, coeffs, t0, t1, y0, t_eval,
                                      float(rtol), float(atol)), t_eval)
    return MaserTrajectory(
        t=t_eval,
        photon_number=y[0] * N,
        coherence=(y[1] + 1j * y[2]) * N,
        inversion=y[3],
        spin_correlation=y[4] * N,
        params=params,
    )


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
