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
dense output.  It runs scipy RK45's method in-house: the same tableau,
initial-step rule, error norm, step-size controller and minimum step, so
it takes the steps and right-hand-side evaluations that
solve_ivp(method="RK45") takes, without scipy's per-step array overhead,
which outweighed the five-state right-hand side.  The first stage and
the initial step are computed in Python by _scaled_rhs and
_initial_step; the step loop and the sensitivity pass below run in one
small C kernel, _rk45.c, loaded with ctypes.  Its step loop makes the
float operations of a Python loop over the components that calls
_scaled_rhs at every stage, in the same order, and is compiled without
contraction into fused multiply-adds, so its steps are bit-identical to
that loop's.  It is built with the interpreter's C compiler on the
first solve and cached beside the package's bytecode (_KERNEL_CACHE),
under a name that hashes the source and the compile command.  The
method must stay because the maser fit's success depends on its
truncation error: with DOP853 in its place, fits started from
(kappa_s, N) = 0.7 x truth end 2-4% off while reporting convergence.

The integrator keeps every accepted step as native doubles in a
bytearray that numpy reads in place.  simulate_maser is the one way a
burst is solved: it samples the solve on an output grid and returns the
record with the trajectory.  The maser fit solves through it and takes
the derivatives of log10 n with respect to log10 (g_e, kappa_s, N) from
a trajectory's record with _log_photon_sensitivity, whose pass in the
kernel differentiates the Runge-Kutta steps themselves with their sizes
frozen (forward sensitivities with error control on the state only, as
in CVODES with errconS off; Hindmarsh et al., ACM TOMS 31, 363 (2005);
Bock's internal numerical differentiation, 1981).  So the Jacobian is
exact for the discretization the residual uses, with no second solve.
"""

import ctypes
import functools
import importlib.util
import math
import os
import shlex
import sysconfig
import tempfile
from collections import namedtuple
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .errors import (
    IntegrationFailureError, InvalidInputError, KernelBuildError, NoOscillationError)
from .relations import cooperativity, predicted_rabi  # noqa: F401  (re-exported)
from .trace import TimeTrace
from .units import is_finite_real

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
        for f in fields(self):
            value = getattr(self, f.name)
            if not is_finite_real(value):
                raise InvalidInputError(f"{f.name} must be a finite real number, got {value!r}")
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
    """Per-solve constants of _scaled_rhs for the parameters p, as floats."""
    c = _RhsCoefficients(
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
    return c._make(float(v) for v in c)


# The reference right-hand side; the kernel in _rk45.c evaluates it term by term.
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


# Shampine's quartic dense output (Math. Comp. 46, 135 (1986)) of the
# Dormand-Prince 5(4) pair, as scipy's RK45 has it: stage j weighs in with
# _DENSE_P[j] . (x, x^2, x^3, x^4) at x = (t - t_old) / h.
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
# One step record: t_old, t_new, y_old (5) and the stages k1..k7 (35).
_RECORD = 42
_RECORD_BYTES = 8 * _RECORD
# Rows the record grows by when the kernel fills it, or an eighth if that is more.
_GROW_ROWS = 256

# The step-loop kernel: its C source, the compile flags (no contraction of
# a * b + c into a fused multiply-add, which would change the last bit, and
# no -ffast-math or -march=native), and the directory of built kernels.
_KERNEL_SOURCE = Path(__file__).with_name("_rk45.c")
_KERNEL_FLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")
_KERNEL_CACHE = Path(__file__).with_name("__pycache__")
# rk45_run's return codes other than 0, t1 reached
_FULL, _STEP_TOO_SMALL, _OUT_OF_BUDGET = 1, 2, 3


def _compile_command():
    """The interpreter's C compiler with the kernel's flags, as an argument list."""
    return [*shlex.split(sysconfig.get_config_var("CC") or "cc"), *_KERNEL_FLAGS]


def _build_kernel(command, path):
    """Compile _KERNEL_SOURCE with command into path, atomically."""
    import subprocess    # only a cold cache compiles

    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=path.stem, suffix=".tmp", dir=path.parent)
    os.close(fd)
    try:
        done = subprocess.run([*command, "-o", tmp, str(_KERNEL_SOURCE), "-lm"],
                              capture_output=True, text=True)
        if done.returncode != 0:
            raise KernelBuildError(
                f"compiling the RK45 kernel failed ({shlex.join(command)}): "
                f"{done.stderr.strip()[-500:]}")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


@functools.cache
def _rk45_kernel():
    """rk45_run and rk45_sensitivity of _rk45.c, built into _KERNEL_CACHE on first use.

    A built kernel is named after a hash of the source, the compile
    command and the platform, so any process that compiles the same way
    loads it without calling the compiler.  Raises KernelBuildError when
    the compiler is missing or fails, or the kernel cannot be written or
    loaded.
    """
    command = _compile_command()
    key = importlib.util.source_hash(b"\0".join(
        [_KERNEL_SOURCE.read_bytes(), *map(str.encode, command),
         sysconfig.get_platform().encode()])).hex()
    path = _KERNEL_CACHE / f"_rk45-{key}.so"
    try:
        if not path.exists():
            _build_kernel(command, path)
        lib = ctypes.CDLL(str(path))
    except OSError as exc:
        raise KernelBuildError(f"cannot build or load the RK45 kernel {path}: {exc}") from None
    double_p, long_p = ctypes.POINTER(ctypes.c_double), ctypes.POINTER(ctypes.c_long)
    lib.rk45_run.argtypes = (double_p, ctypes.c_double, ctypes.c_double, ctypes.c_double,
                             ctypes.c_long, double_p, long_p, double_p, ctypes.c_long, long_p)
    lib.rk45_run.restype = ctypes.c_int
    array = np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS")
    lib.rk45_sensitivity.argtypes = (array, ctypes.c_double, array, ctypes.c_long, array,
                                     ctypes.c_long, array, array, array)
    lib.rk45_sensitivity.restype = ctypes.c_long
    return lib


def _rms(x):
    # Summed left to right, as the kernel's error norm is; sum() of
    # floats is compensated from Python 3.12.  Squares by multiplication: an
    # overflow gives inf, as in numpy, not an exception.
    total = 0.0
    for v in x:
        total += v * v
    return math.sqrt(total) / math.sqrt(len(x))


def _stalled(t_eval, record, t0, message):
    # the last output time at or before the time the solve reached: the
    # end of the last recorded step, or t0
    t = np.frombuffer(record)[1 - _RECORD] if record else t0
    done = int(np.searchsorted(t_eval, t, side="right"))
    last = float(t_eval[done - 1]) if done else t0
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


def _integrate_rk45(c, t0, t1, y0, t_eval, rtol, atol):
    """Integrate y' = _scaled_rhs(t, y, c) from t0 to t1.

    The method, error norm, step-size controller, minimum step and dense
    output are those of scipy's solve_ivp(method="RK45") with max_step
    unbounded, so the two take the same steps.  The first stage and
    _initial_step run in Python; the steps run in the C kernel of
    _rk45_kernel, which makes the float operations of a generic loop over
    the components calling _scaled_rhs, in the same order, so its record
    is bit-identical to that loop's.  Returns the record of every
    accepted step, a bytearray of _RECORD native doubles per step (the
    bytes of a float64 array), which _dense_output turns into the states
    at t_eval and _log_photon_sensitivity into their derivatives, and the
    number of right-hand-side evaluations, 2 + 6 per step attempt, as
    scipy counts them.  Whenever the kernel fills the record, the record
    grows by _GROW_ROWS rows or an eighth, and the kernel resumes.

    Raises IntegrationFailureError, carrying the last output time reached,
    when the step size falls below ten float spacings of t, the first
    stage or the initial step fails arithmetically (overflow, division by
    zero) or MAX_STEPS step attempts do not reach t1; KernelBuildError
    when the kernel cannot be built.
    """
    record = bytearray()
    try:
        f = _scaled_rhs(t0, y0, c)
        h_abs = _initial_step(_scaled_rhs, c, t0, t1, y0, f, rtol, atol)
    except ArithmeticError as exc:
        raise _stalled(t_eval, record, t0, f"arithmetic failure ({exc})") from None
    run = _rk45_kernel().rk45_run
    budget = MAX_STEPS
    coeffs = (ctypes.c_double * len(c))(*c)
    state = (ctypes.c_double * 12)(t0, *y0, *f, h_abs)    # as rk45_run reads and writes it
    attempts, written = ctypes.c_long(0), ctypes.c_long(0)
    rows = 0
    status = _FULL
    while status == _FULL:
        room = max(_GROW_ROWS, rows // 8)
        record += bytes(room * _RECORD_BYTES)
        free = (ctypes.c_double * (room * _RECORD)).from_buffer(record, rows * _RECORD_BYTES)
        status = run(coeffs, t1, rtol, atol, budget, state, ctypes.byref(attempts), free, room,
                     ctypes.byref(written))
        del free    # releases the bytearray for the next resize
        rows += written.value
    del record[rows * _RECORD_BYTES:]
    if status == _STEP_TOO_SMALL:
        raise _stalled(t_eval, record, t0,
                       "Required step size is less than spacing between numbers.")
    if status == _OUT_OF_BUDGET:
        raise _stalled(t_eval, record, t0,
                       f"{budget} step attempts did not reach the end of the span")
    return record, 2 + 6 * attempts.value


def _scaled_start(params, init):
    """(y0, RHS coefficients, N) of the N-scaled system."""
    N = float(params.n_spins)
    c0 = complex(init.coherence)
    y0 = (float(init.photon_number) / N, c0.real / N, c0.imag / N,
          float(init.inversion), float(init.spin_correlation) / N)
    return y0, _rhs_coefficients(params), N


_LN10 = math.log(10.0)


def _log_photon_sensitivity(traj):
    """d log10 n / d log10 (g_e, kappa_s, n_spins) on traj.t, shape (len, 3).

    The exact derivative of the Runge-Kutta solution in the step record
    of the trajectory traj, with its step sizes frozen, from the kernel's
    rk45_sensitivity; the initial state is the record's first row and the
    coefficients are those of traj.params.  The initial state and
    n = N y[0] add the dependence on N through the scaling.  Raises
    ValueError when the record ends before traj.t does.
    """
    rec = np.frombuffer(traj._record, dtype=float)
    t_eval = np.ascontiguousarray(traj.t, dtype=float)
    coeffs = _rhs_coefficients(traj.params)
    # dy0/dp, a row per parameter: y0 scales as 1/N, except the inversion
    sens0 = np.zeros((3, 5))
    sens0[2] = -_LN10 * rec[2:7]
    sens0[2, 3] = 0.0
    out = np.empty((len(t_eval), 3))
    done = _rk45_kernel().rk45_sensitivity(
        np.array(coeffs), float(traj.params.kappa_s), rec, len(rec) // _RECORD, t_eval,
        len(t_eval), _DENSE_P, sens0, out)
    if done < len(t_eval):
        raise ValueError(f"the step record covers {done} of the {len(t_eval)} output times")
    n_scaled = traj.photon_number / coeffs.n_spins
    out /= _LN10 * n_scaled[:, None]
    out[:, 2] += 1.0
    return out


@dataclass(frozen=True)
class MaserTrajectory:
    """Simulated expectation values on an output grid (physical units).

    _record, left out of repr and comparison, is the solve's record of
    every accepted step as the C kernel wrote it, _RECORD doubles per
    step, which _log_photon_sensitivity passes to the kernel to give the
    maser fit its Jacobian without a second solve.  It outweighs the arrays:
    433 KB for the 1,288 steps of the canonical 15 us burst
    (synthetic.BURST_DEFAULTS), against 96 KB of arrays at 2,000 points.
    The bytearray keeps the allocation the kernel filled, at most
    _GROW_ROWS rows or an eighth more than the steps it holds.
    """

    t: np.ndarray
    photon_number: np.ndarray
    coherence: np.ndarray
    inversion: np.ndarray
    spin_correlation: np.ndarray
    params: MaserSystemParams
    _record: bytearray = field(repr=False, compare=False)

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
        Start and end time in seconds, finite.
    rtol, atol : float
        Tolerances applied to the N-scaled state, positive and finite.
    n_points : int
        Number (whole, >= 1) of uniform output samples without t_eval.
    t_eval : array_like, optional
        Explicit output grid (seconds) overriding n_points: non-empty,
        finite, increasing and within t_span.

    Returns
    -------
    MaserTrajectory

    Raises
    ------
    InvalidInputError
        On any input outside the ranges above, before the first step.
    IntegrationFailureError
        If the integrator cannot advance; carries the last good time.
    """
    t0, t1 = float(t_span[0]), float(t_span[1])
    if not (math.isfinite(t0) and math.isfinite(t1) and t0 < t1):
        raise InvalidInputError(f"require finite t_span[0] < t_span[1], got {t_span!r}")
    if not (is_finite_real(rtol) and rtol > 0 and is_finite_real(atol) and atol > 0):
        raise InvalidInputError(
            f"tolerances must be positive and finite, got rtol={rtol!r}, atol={atol!r}")
    init.validate(scale=max(params.n_bar, 1.0))
    if t_eval is None:
        if not (is_finite_real(n_points) and n_points == int(n_points) and n_points >= 1):
            raise InvalidInputError(f"n_points must be a whole number >= 1, got {n_points!r}")
        t_eval = np.linspace(t0, t1, int(n_points))
    else:
        t_eval = np.array(t_eval, dtype=float)
        if t_eval.ndim != 1:
            raise InvalidInputError("t_eval must be one-dimensional")
        if len(t_eval) == 0 or not np.all(np.isfinite(t_eval)):
            raise InvalidInputError("t_eval must be a non-empty grid of finite times")
        if np.any(t_eval < t0) or np.any(t_eval > t1):
            raise InvalidInputError("t_eval must lie within t_span")
        if np.any(np.diff(t_eval) <= 0):
            raise InvalidInputError("t_eval must be strictly increasing")

    y0, coeffs, N = _scaled_start(params, init)
    record, _ = _integrate_rk45(coeffs, t0, t1, y0, t_eval, float(rtol), float(atol))
    y = _dense_output(record, t_eval)
    return MaserTrajectory(
        t=t_eval,
        photon_number=y[0] * N,
        coherence=(y[1] + 1j * y[2]) * N,
        inversion=y[3],
        spin_correlation=y[4] * N,
        params=params,
        _record=record,
    )


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
