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
which outweighed the five-state right-hand side.  The whole solve runs
in one call of a small C kernel, _rk45.c, loaded with ctypes: the first
stage, the initial step, the steps and the states at the output times.
The kernel makes the float operations of a Python loop over the
components that evaluates the right-hand side at every stage, in the
same order (the oracles of tests/test_cqed.py), and is compiled without
contraction into fused multiply-adds, so its steps are bit-identical to
that loop's.  It is built with the interpreter's C compiler on the
first solve and cached beside the package's bytecode (_KERNEL_CACHE),
under a name that hashes the source and the compile command.  The
method must stay because the maser fit's success depends on its
truncation error: with DOP853 in its place, fits started from
(kappa_s, N) = 0.7 x truth end 2-4% off while reporting convergence.

The kernel records every accepted step in a float64 array that cqed
allocates.  simulate_maser is the one way a burst is solved: it returns
the states the kernel sampled on the output grid, and the record, with
the trajectory.  The maser fit solves through it and takes the
derivatives of log10 n with respect to log10 (g_e, kappa_s, N) from a
trajectory's record with _log_photon_sensitivity, whose pass, the
kernel's second entry, differentiates the Runge-Kutta steps themselves
with their sizes frozen (forward sensitivities with error control on the
state only, as in CVODES with errconS off; Hindmarsh et al., ACM TOMS
31, 363 (2005); Bock's internal numerical differentiation, 1981).  So
the Jacobian is exact for the discretization the residual uses, with no
second solve.
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
from dataclasses import dataclass, field
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
        for name, value in vars(self).items():
            if not is_finite_real(value):
                raise InvalidInputError(f"{name} must be a finite real number, got {value!r}")
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


# The constants of the right-hand side, in the order the kernel reads them.
_RhsCoefficients = namedtuple("_RhsCoefficients", (
    "kappa_c", "feed", "half_width", "delta", "g_e", "two_g", "four_g",
    "gamma", "n_spins", "pair_weight", "pair_decay"))


def _rhs_coefficients(p):
    """The constants of the right-hand side for the parameters p, as floats."""
    return _RhsCoefficients._make(map(float, (
        p.kappa_c, p.kappa_c * p.n_bar / p.n_spins, 0.5 * (p.kappa_c + p.gamma + p.kappa_s),
        p.delta, p.g_e, 2.0 * p.g_e, 4.0 * p.g_e, p.gamma, p.n_spins, 1.0 - 1.0 / p.n_spins,
        p.gamma + p.kappa_s)))


# One step record: t_old, t_new, y_old (5) and the stages k1..k7 (35).
_RECORD = 42
# Rows of a new record: room for the 1,288 steps of the canonical 15 us
# burst, so that its solve is one kernel call.  A longer solve doubles the
# record and resumes.
_RECORD_ROWS = 2048

# The kernel: its C source, the compile flags (no contraction of a * b + c
# into a fused multiply-add, which would change the last bit, and no
# -ffast-math or -march=native; -O3 vectorizes without reordering any
# sum), and the directory of built kernels.
_KERNEL_SOURCE = Path(__file__).with_name("_rk45.c")
_KERNEL_FLAGS = ("-O3", "-ffp-contract=off", "-shared", "-fPIC")
_KERNEL_CACHE = Path(__file__).with_name("__pycache__")
# rk45_solve's return codes other than 0, t1 reached
_FULL, _STEP_TOO_SMALL, _OUT_OF_BUDGET, _NO_FIRST_STEP = 1, 2, 3, 4


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
    """rk45_solve and rk45_sensitivity of _rk45.c, built into _KERNEL_CACHE on first use.

    A built kernel is named after a hash of the source, the compile
    command and the platform, so any process that compiles the same way
    loads it without calling the compiler.  Raises KernelBuildError when
    the compiler is missing or fails, or the kernel cannot be written or
    loaded.  The arrays go in as plain addresses (c_void_p), so the
    callers pass only C-contiguous float64 arrays of the sizes they state.
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
    double, long, address = ctypes.c_double, ctypes.c_long, ctypes.c_void_p
    lib.rk45_solve.argtypes = (ctypes.POINTER(double), double, double, double, long, address,
                               long, address, address, long, ctypes.POINTER(double),
                               ctypes.POINTER(long))
    lib.rk45_solve.restype = ctypes.c_int
    lib.rk45_sensitivity.argtypes = (ctypes.POINTER(double), double, address, long, address,
                                     address, long, double, address)
    lib.rk45_sensitivity.restype = long
    return lib


def _stalled(t_eval, record, t0, message):
    # the last output time at or before the time the solve reached: the
    # end of the last recorded step, or t0
    t = record[-1, 1] if len(record) else t0
    done = int(np.searchsorted(t_eval, t, side="right"))
    last = float(t_eval[done - 1]) if done else t0
    return IntegrationFailureError(
        f"integration stalled at t = {last:.6e} s: {message}", last_time=last)


def _integrate_rk45(c, t0, t1, y0, t_eval, rtol, atol):
    """Integrate the N-scaled system with coefficients c from t0 to t1.

    One call of the kernel's rk45_solve makes the whole solve: the first
    stage, the initial step, the steps and the states at t_eval.  The
    method, initial-step rule, error norm, step-size controller, minimum
    step and dense output are those of scipy's solve_ivp(method="RK45")
    with max_step unbounded, so the two take the same steps; the kernel
    makes the float operations of a generic Python loop over the
    components, in the same order, so its record is bit-identical to that
    loop's.  c is the coefficient array of _scaled_start, y0 the N-scaled
    initial state and t_eval a C-contiguous float64 grid in [t0, t1].

    Returns the record of every accepted step, a (steps, _RECORD) float64
    array that _log_photon_sensitivity turns into derivatives, the states
    at t_eval, shape (5, len(t_eval)), and the number of right-hand-side
    evaluations, 2 + 6 per step attempt, as scipy counts them.  The
    record is a view of the first rows of an allocation of _RECORD_ROWS
    rows; when the kernel fills it, the allocation doubles and the
    kernel resumes.

    Raises IntegrationFailureError, carrying the last output time reached,
    when the initial step is zero or not a number (the arithmetic of
    extreme rates), the step size falls below ten float spacings of t or
    MAX_STEPS step attempts do not reach t1; KernelBuildError when the
    kernel cannot be built.
    """
    solve = _rk45_kernel().rk45_solve
    states = np.empty((5, len(t_eval)))
    record = np.empty((_RECORD_ROWS, _RECORD))
    state = (ctypes.c_double * 12)(t0, *y0)    # t, y, k1, h_abs, as rk45_solve reads it
    counts = (ctypes.c_long * 3)()    # step attempts, rows and points written
    args = (c, t1, rtol, atol, MAX_STEPS, t_eval.ctypes.data, len(t_eval), states.ctypes.data)
    status = solve(*args, record.ctypes.data, len(record), state, counts)
    while status == _FULL:
        grown = np.empty((2 * len(record), _RECORD))
        grown[:len(record)] = record
        record = grown
        status = solve(*args, record.ctypes.data, len(record), state, counts)
    attempts, rows, _ = counts
    record = record[:rows]
    if status == _NO_FIRST_STEP:
        raise _stalled(t_eval, record, t0, "the initial step size is zero or not a number")
    if status == _STEP_TOO_SMALL:
        raise _stalled(t_eval, record, t0,
                       "Required step size is less than spacing between numbers.")
    if status == _OUT_OF_BUDGET:
        raise _stalled(t_eval, record, t0,
                       f"{MAX_STEPS} step attempts did not reach the end of the span")
    return record, states, 2 + 6 * attempts


def _scaled_start(params, init):
    """(y0, the kernel's coefficient array, N) of the N-scaled system."""
    N = float(params.n_spins)
    c0 = complex(init.coherence)
    y0 = (float(init.photon_number) / N, c0.real / N, c0.imag / N,
          float(init.inversion), float(init.spin_correlation) / N)
    return y0, (ctypes.c_double * len(_RhsCoefficients._fields))(*_rhs_coefficients(params)), N


def _log_photon_sensitivity(traj, floor):
    """d log10 n / d log10 (g_e, kappa_s, n_spins) on traj.t, shape (len, 3).

    The exact derivative of the Runge-Kutta solution in the step record
    of the trajectory traj (made by simulate_maser), with its step sizes
    frozen, from the kernel's rk45_sensitivity, which also divides by
    ln 10 n / N and adds the dependence of n = N y[0] on N; the initial
    state is the record's first row and the coefficients are those the
    solve used.  Rows where the photon number is not above floor (the
    maser fit passes its LOG_FLOOR) are zero, as the derivative of
    log10 max(n, floor) is there.  Raises
    ValueError when the record ends before traj.t does, or the record or
    the photon numbers do not have the shapes of a solve's.
    """
    record = np.ascontiguousarray(traj._record, dtype=float)
    t_eval = np.ascontiguousarray(traj.t, dtype=float)
    photons = np.ascontiguousarray(traj.photon_number, dtype=float)
    if record.shape[1:] != (_RECORD,) or t_eval.ndim != 1 or photons.shape != t_eval.shape:
        raise ValueError("the trajectory's record or photon numbers are not a solve's")
    out = np.empty((len(t_eval), 3))
    done = _rk45_kernel().rk45_sensitivity(
        traj._coefficients, float(traj.params.kappa_s), record.ctypes.data, len(record),
        t_eval.ctypes.data, photons.ctypes.data, len(t_eval), floor, out.ctypes.data)
    if done < len(t_eval):
        raise ValueError(f"the step record covers {done} of the {len(t_eval)} output times")
    return out


@dataclass(frozen=True)
class MaserTrajectory:
    """Simulated expectation values on an output grid (physical units).

    _record, left out of repr and comparison, is the solve's record of
    every accepted step as the C kernel wrote it, a (steps, _RECORD)
    float64 array, which _log_photon_sensitivity passes to the kernel,
    with the solve's coefficient array _coefficients, to give the maser
    fit its Jacobian without a second solve.  It outweighs the arrays: 433
    KB for the 1,288 steps of the canonical 15 us burst
    (synthetic.BURST_DEFAULTS), against 96 KB of arrays at 2,000 points.
    It is a view of the first rows of the allocation the kernel filled,
    _RECORD_ROWS rows (688 KB) or a power of two times that; the rows
    past the steps are never written, so their pages need not be
    resident.
    """

    t: np.ndarray
    photon_number: np.ndarray
    coherence: np.ndarray
    inversion: np.ndarray
    spin_correlation: np.ndarray
    params: MaserSystemParams
    _record: np.ndarray = field(repr=False, compare=False)
    _coefficients: ctypes.Array = field(repr=False, compare=False)

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
        # A grid that starts at or after t0, rises at every sample and ends
        # at or before t1 is finite too: a NaN fails every comparison.
        if not (t_eval.ndim == 1 and len(t_eval) and t0 <= t_eval[0] and t_eval[-1] <= t1
                and np.count_nonzero(t_eval[1:] > t_eval[:-1]) == len(t_eval) - 1):
            raise InvalidInputError("t_eval must be a non-empty one-dimensional grid of "
                                    "strictly increasing finite times within t_span")

    y0, coeffs, N = _scaled_start(params, init)
    record, y, _ = _integrate_rk45(coeffs, t0, t1, y0, t_eval, float(rtol), float(atol))
    return MaserTrajectory(
        t=t_eval,
        photon_number=y[0] * N,
        coherence=(y[1] + 1j * y[2]) * N,
        inversion=y[3],
        spin_correlation=y[4] * N,
        params=params,
        _record=record,
        _coefficients=coeffs,
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
