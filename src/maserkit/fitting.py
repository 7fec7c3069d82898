"""Nonlinear least-squares machinery and the fitting drivers.

The core is a conventional Levenberg-Marquardt loop with a numerically
differenced Jacobian (central differences, step max(1e-6 |p|, 1e-10)),
Marquardt damping that grows tenfold on a rejected step and shrinks
tenfold on acceptance, and a Nelder-Mead simplex fallback when the
damping underflows the trust region entirely.  Analytic Jacobians are
supplied for the exponential models, where they are cheap.

The maser fit deserves a note.  Its objective (log10 photon number of a
simulated burst against data) is smooth in the spin count N but razor
thin in g_e and kappa_s: a fraction of a percent of mismatch in either
dephases the Rabi ripples and the log-space residual saturates, so no
local optimizer started 30% away can find the valley.  The driver
therefore pins the starting point with deterministic physics features
first (exponential growth rate of the rise for g_e, peak height for N,
post-peak envelope decay for kappa_s), sharpens kappa_s with a small
deterministic scan, and only then polishes with Levenberg-Marquardt.
Each central-difference Jacobian of the polish, and each half of the
kappa_s scan, integrates its bursts together as one stacked system
(cqed.simulate_photon_stack); line-search trials and the feature stage
use the single-burst simulate_maser.  All stages are plain function
evaluations; nothing is stochastic.
"""

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import cqed
from .errors import InvalidInputError, ModelEvaluationError, NumericalError
from .trace import TimeTrace
from .triplet import BiexpFit

MAX_ITERATIONS = 200
REL_PARAM_TOL = 1e-8
REL_RESID_TOL = 1e-10
LAMBDA_INIT_FACTOR = 1e-3
LAMBDA_GROW = 10.0
LAMBDA_SHRINK = 10.0
LAMBDA_MAX_GROWTH = 1e12   # damping beyond lambda0 * this counts as a stall
LOG_FLOOR = 1e-300


@dataclass
class FitProblem:
    """A least-squares problem: model(params) vs data on the data's grid.

    model maps a parameter vector to predicted y values (same length as
    data.y).  loss_space selects whether residuals are formed on the
    values directly or on their log10 (for data spanning decades).
    jacobian, if given, maps params to the (n_data, n_params) matrix of
    d(model)/d(param) in linear space; it is only used for linear loss.
    model_batch, if given, maps an (m, n_params) array of parameter
    points to the (m, n_data) array whose row i is model(points[i]); the
    numeric Jacobian then evaluates all its perturbed points in one call.
    """

    model: Callable
    data: TimeTrace
    init: np.ndarray
    bounds: Optional[list] = None
    loss_space: str = "linear"
    jacobian: Optional[Callable] = None
    model_batch: Optional[Callable] = None

    def __post_init__(self):
        self.init = np.asarray(self.init, dtype=float)
        if self.loss_space not in ("linear", "log10"):
            raise InvalidInputError(f"loss_space must be linear or log10, got {self.loss_space!r}")
        if not np.all(np.isfinite(self.data.y)):
            raise InvalidInputError("data contains non-finite values")
        if self.bounds is not None:
            lo = np.array([b[0] for b in self.bounds], dtype=float)
            hi = np.array([b[1] for b in self.bounds], dtype=float)
            if np.any(self.init < lo) or np.any(self.init > hi):
                raise InvalidInputError("initial parameters violate bounds")


@dataclass
class FitResult:
    """Outcome of a least-squares minimization."""

    params: np.ndarray
    residual_norm: float
    jacobian_condition: float
    iterations: int
    converged: bool
    param_uncertainties: np.ndarray = field(default_factory=lambda: np.array([]))


def _residual_fn(problem):
    """(resid, resid_batch) of a problem; resid_batch is None without model_batch.

    resid_batch maps an (m, n_params) array of points to the (m, n_data)
    residual rows, each formed exactly as resid forms one.
    """
    y = problem.data.y
    if problem.loss_space == "log10":
        target = np.log10(np.maximum(np.abs(y), LOG_FLOOR))

        def from_model(m):
            return np.log10(np.maximum(np.abs(m), LOG_FLOOR)) - target
    else:
        def from_model(m):
            return m - y

    def checked(m):
        m = np.asarray(m, dtype=float)
        if np.any(np.isnan(m)):
            raise ModelEvaluationError("model returned NaN")
        return from_model(m)

    def resid(p):
        return checked(problem.model(p))

    if problem.model_batch is None:
        return resid, None
    return resid, lambda points: checked(problem.model_batch(points))


def _numeric_jacobian(resid, p, resid_batch=None):
    """Central-difference Jacobian, step max(1e-6 |p_j|, 1e-10).

    The 2n perturbed points are evaluated one by one with resid, or
    together in one resid_batch call when it is given.
    """
    n = len(p)
    steps = [max(1e-6 * abs(p[j]), 1e-10) for j in range(n)]
    points = np.tile(p, (2 * n, 1))
    for j, h in enumerate(steps):
        points[j, j] += h
        points[n + j, j] -= h
    if resid_batch is None:
        rows = [resid(q) for q in points]
    else:
        rows = resid_batch(points)
    J = np.empty((len(rows[0]), n))
    for j, h in enumerate(steps):
        J[:, j] = (rows[j] - rows[n + j]) / (2.0 * h)
    return J


def _clip_to_bounds(p, bounds):
    if bounds is None:
        return p
    lo = np.array([b[0] for b in bounds])
    hi = np.array([b[1] for b in bounds])
    return np.clip(p, lo, hi)


def nlls_minimize(problem, max_iterations=MAX_ITERATIONS, max_step=None):
    """Levenberg-Marquardt minimization with a Nelder-Mead stall fallback.

    max_step optionally caps the infinity norm of each accepted step;
    the maser driver uses this to keep the polish inside its narrow
    valley.  Deterministic: identical inputs give identical iterates.
    """
    resid, resid_batch = _residual_fn(problem)
    use_analytic = problem.jacobian is not None and problem.loss_space == "linear"

    def jacobian_at(q):
        if use_analytic:
            return np.asarray(problem.jacobian(q), dtype=float)
        return _numeric_jacobian(resid, q, resid_batch)

    p = _clip_to_bounds(problem.init.copy(), problem.bounds)
    r = resid(p)
    cost = float(r @ r)
    # absolute floor: at this cost the data is reproduced to rounding
    # and the relative-change tests would never fire (each accepted
    # step still changes the parameters at machine scale)
    cost_floor = 1e-24 * max(cost, 1.0)
    lam = None
    lam0 = None
    cond = np.inf
    iterations = 0
    converged = False
    stalled = False

    def accept(step):
        """Move to p + step if that lowers the cost; True when the step is taken."""
        nonlocal p, r, cost, converged
        p_trial = _clip_to_bounds(p + step, problem.bounds)
        r_trial = resid(p_trial)
        cost_trial = float(r_trial @ r_trial)
        if not cost_trial < cost:
            return False
        rel_param = float(np.max(np.abs(p_trial - p) / np.maximum(np.abs(p), 1e-30)))
        rel_resid = abs(cost - cost_trial) / max(cost, 1e-300)
        p, r, cost = p_trial, r_trial, cost_trial
        converged = (rel_param < REL_PARAM_TOL or rel_resid < REL_RESID_TOL
                     or cost <= cost_floor)
        return True

    for _ in range(max_iterations):
        iterations += 1
        J = jacobian_at(p)
        JtJ = J.T @ J
        grad = J.T @ r
        svals = np.linalg.svd(J, compute_uv=False)
        cond = float(svals[0] / svals[-1]) if svals[-1] > 0 else np.inf
        if lam is None:
            lam0 = LAMBDA_INIT_FACTOR * float(np.max(np.diag(JtJ)))
            lam = lam0 if lam0 > 0 else 1e-12
            lam0 = lam
        accepted = False
        # undamped Gauss-Newton attempt first: lands exactly on the
        # minimum of a (nearly) quadratic objective, and costs one
        # rejected trial otherwise
        try:
            gn_step = np.linalg.solve(JtJ, -grad)
        except np.linalg.LinAlgError:
            gn_step = None
        if gn_step is not None and (max_step is None
                                    or np.max(np.abs(gn_step)) <= max_step):
            accepted = accept(gn_step)
        while not accepted and lam <= lam0 * LAMBDA_MAX_GROWTH:
            try:
                step = np.linalg.solve(JtJ + lam * np.eye(len(p)), -grad)
            except np.linalg.LinAlgError:
                lam *= LAMBDA_GROW
                continue
            if max_step is not None and np.max(np.abs(step)) > max_step:
                lam *= LAMBDA_GROW
                continue
            accepted = accept(step)
            lam = max(lam / LAMBDA_SHRINK, 1e-14) if accepted else lam * LAMBDA_GROW
        if not accepted:
            stalled = True
            break
        if converged:
            break

    if stalled and not converged and cost > 0:
        # LM damping underflowed the trust region; try a simplex walk
        # from the current point (deterministic)
        from scipy.optimize import minimize

        def scalar_cost(q):
            try:
                rv = resid(_clip_to_bounds(q, problem.bounds))
            except ModelEvaluationError:
                return 1e300
            return float(rv @ rv)

        nm = minimize(scalar_cost, p, method="Nelder-Mead",
                      options={"maxiter": 200 * len(p), "xatol": 1e-10, "fatol": 1e-12})
        if nm.fun < cost:
            p = _clip_to_bounds(nm.x, problem.bounds)
            r = resid(p)
            cost = float(r @ r)
            iterations += int(nm.nit)
            converged = bool(nm.success)

    uncertainties = _linearized_uncertainties(jacobian_at, p, r)
    return FitResult(params=p, residual_norm=math.sqrt(cost),
                     jacobian_condition=cond, iterations=iterations,
                     converged=converged, param_uncertainties=uncertainties)


def _linearized_uncertainties(jacobian_at, p, r):
    """One-sigma parameter errors from the linearized covariance at the optimum."""
    try:
        J = jacobian_at(p)
        dof = max(len(r) - len(p), 1)
        s2 = float(r @ r) / dof
        cov = s2 * np.linalg.inv(J.T @ J)
        var = np.diag(cov)
        return np.sqrt(np.maximum(var, 0.0))
    except (np.linalg.LinAlgError, ModelEvaluationError):
        return np.full(len(p), np.nan)


# ---------------------------------------------------------------------------
# biexponential driver


def _biexp_model_internal(p, t):
    # p = (A, B, L1, L2) with rates alpha = -exp(L), guaranteeing decay
    a1 = -np.exp(p[2])
    a2 = -np.exp(p[3])
    return p[0] * np.exp(a1 * t) + p[1] * np.exp(a2 * t)


def _biexp_jacobian_internal(p, t):
    a1 = -np.exp(p[2])
    a2 = -np.exp(p[3])
    e1 = np.exp(a1 * t)
    e2 = np.exp(a2 * t)
    # d/dL = d/da * da/dL with da/dL = a
    return np.column_stack([e1, e2, p[0] * t * e1 * a1, p[1] * t * e2 * a2])


def _peel_initial_guess(t, y):
    """Initial biexponential guess by exponential peeling.

    Fits the slow component to the last third of the record on
    log|y|, subtracts it, then fits the fast component to the early
    remainder.  Falls back to crude span-based rates when the signal
    is too degenerate for peeling.
    """
    span = t[-1] - t[0]
    n = len(t)
    tail = slice(2 * n // 3, n)
    yt = y[tail]
    sign_slow = 1.0 if np.sum(yt) >= 0 else -1.0
    mag = np.abs(yt)
    good = mag > 1e-12 * np.max(np.abs(y))
    if np.count_nonzero(good) >= 4:
        coef = np.polyfit(t[tail][good], np.log(mag[good]), 1)
        a_slow = -abs(coef[0])
        b_slow = sign_slow * math.exp(coef[1])
    else:
        a_slow = -1.0 / span
        b_slow = yt[-1] if len(yt) else 0.0
    a_slow = min(a_slow, -1e-3 / span)

    rem = y - b_slow * np.exp(a_slow * t)
    head = slice(0, max(4, n // 4))
    yh = rem[head]
    sign_fast = 1.0 if np.sum(yh) >= 0 else -1.0
    mag = np.abs(yh)
    good = mag > 1e-12 * max(np.max(np.abs(rem)), 1e-300)
    if np.count_nonzero(good) >= 4:
        coef = np.polyfit(t[head][good], np.log(mag[good]), 1)
        a_fast = -abs(coef[0])
        b_fast = sign_fast * math.exp(coef[1])
    else:
        a_fast = 10.0 * a_slow
        b_fast = y[0] - b_slow
    if a_fast >= a_slow:
        a_fast = 10.0 * a_slow
    return b_fast, b_slow, a_fast, a_slow


def fit_biexponential(trace, init=None):
    """Fit A e^(a- t) + B e^(a+ t) to a trace, rates constrained negative.

    Parameters
    ----------
    trace : TimeTrace
        Signal to fit (any unit; values used as-is).
    init : tuple, optional
        (A, B, alpha_minus, alpha_plus) starting guess; both rates
        negative.  When omitted a peeling heuristic builds one.

    Returns
    -------
    BiexpFit
        With components ordered alpha_minus <= alpha_plus and
        linearized one-sigma uncertainties.
    """
    t, y = trace.t, trace.y
    if len(t) < 8:
        raise InvalidInputError("need at least 8 samples for a biexponential fit")
    if np.allclose(y, y[0]):
        raise NumericalError("constant data: biexponential fit cannot converge")
    if init is None:
        A0, B0, am0, ap0 = _peel_initial_guess(t, y)
    else:
        A0, B0, am0, ap0 = init
        if am0 >= 0 or ap0 >= 0:
            raise InvalidInputError("initial rates must be negative")

    p0 = np.array([A0, B0, math.log(-am0), math.log(-ap0)])
    problem = FitProblem(
        model=lambda p: _biexp_model_internal(p, t),
        data=trace,
        init=p0,
        jacobian=lambda p: _biexp_jacobian_internal(p, t),
        loss_space="linear",
    )
    res = nlls_minimize(problem)
    if not res.converged:
        raise NumericalError("biexponential fit did not converge")

    A, B = res.params[0], res.params[1]
    a1 = -math.exp(res.params[2])
    a2 = -math.exp(res.params[3])
    sA, sB = res.param_uncertainties[0], res.param_uncertainties[1]
    # sigma_alpha = |alpha| * sigma_L through the exponential transform
    s1 = abs(a1) * res.param_uncertainties[2]
    s2 = abs(a2) * res.param_uncertainties[3]
    if a1 > a2:   # order components: alpha_minus is the more negative rate
        A, B, a1, a2 = B, A, a2, a1
        sA, sB, s1, s2 = sB, sA, s2, s1
    return BiexpFit(A=A, B=B, alpha_minus=a1, alpha_plus=a2,
                    A_err=sA, B_err=sB, alpha_minus_err=s1, alpha_plus_err=s2)


# ---------------------------------------------------------------------------
# maser burst fit


# Envelope smoothing window and feature windows, in seconds.  These are
# burst-scale constants: the ripple period is below a microsecond and
# the burst lives for roughly ten microseconds.
ENVELOPE_SMOOTH_SPAN = 0.625e-6
ENVELOPE_FIT_START = 2e-6     # after the burst peak
ENVELOPE_FIT_STOP = 7e-6
GROWTH_LOWER_FACTOR = 100.0   # fit growth between 100 nbar and 1% of peak
GROWTH_UPPER_FRACTION = 0.01
KS_SCAN_FACTORS = (0.98, 0.99, 1.0, 1.01, 1.02)
POLISH_STEP_CAP = 0.002       # max log10 step during the final polish
SMOOTH_STEP_CAP = 0.01


def _linear_growth_rate(g_e, kappa_c, kappa_s, gamma, inversion0):
    """Largest eigenvalue of the linearized early-time gain matrix.

    Linearizing the mean-field equations about the inverted, photon-poor
    initial state couples (photon number, Im coherence, correlation)
    through a 3x3 matrix whose leading eigenvalue is the exponential
    growth rate of the burst rise.
    """
    a = np.array([
        [-kappa_c, -2.0 * g_e, 0.0],
        [-g_e * inversion0, -0.5 * (kappa_c + gamma + kappa_s), -g_e],
        [0.0, -2.0 * g_e * inversion0, -(gamma + kappa_s)],
    ])
    return float(np.max(np.linalg.eigvals(a).real))


def _measure_growth_rate(t, n, n_bar):
    """Log-slope of the burst rise between 100 nbar and 1% of the peak."""
    n_peak = float(np.max(n))
    i_peak = int(np.argmax(n))
    lo = GROWTH_LOWER_FACTOR * n_bar
    hi = GROWTH_UPPER_FRACTION * n_peak
    sel = (n > lo) & (n < hi) & (np.arange(len(n)) < i_peak)
    if np.count_nonzero(sel) < 4:
        return None
    coef = np.polyfit(t[sel], np.log(n[sel]), 1)
    return float(coef[0])


def _moving_average(x, width):
    """Centred moving average, reflect-padded at both ends.

    An even width is widened by one so the window stays centred.
    """
    w = width if width % 2 == 1 else width + 1
    half = w // 2
    pad = np.r_[x[half:0:-1], x, x[-2:-half - 2:-1]]
    return np.convolve(pad, np.ones(w) / w, mode="valid")


def _envelope_width(t):
    """Smoothing width in samples spanning ENVELOPE_SMOOTH_SPAN, at least 3."""
    return max(3, int(round(ENVELOPE_SMOOTH_SPAN / (t[1] - t[0]))))


def _measure_envelope_slope(t, n):
    """Decay slope of the smoothed log photon number after the peak."""
    ln = np.log(np.maximum(n, LOG_FLOOR))
    i_peak = int(np.argmax(ln))
    smooth = _moving_average(ln, _envelope_width(t))
    t_lo = t[i_peak] + ENVELOPE_FIT_START
    t_hi = min(t[i_peak] + ENVELOPE_FIT_STOP, t[-1])
    sel = (t > t_lo) & (t < t_hi)
    if np.count_nonzero(sel) < 4:
        sel = np.arange(len(t)) > i_peak
        if np.count_nonzero(sel) < 4:
            return None
    coef = np.polyfit(t[sel], smooth[sel], 1)
    return float(coef[0])


def _smooth_log10(y, width):
    return _moving_average(np.log10(np.maximum(y, LOG_FLOOR)), width)


def _burst_params(g_e, kappa_s, n_spins, fixed):
    return cqed.MaserSystemParams(
        g_e=g_e, kappa_c=fixed["kappa_c"], kappa_s=kappa_s,
        gamma=fixed["gamma"], delta=fixed.get("delta", 0.0),
        n_spins=n_spins, n_bar=fixed["n_bar"])


def _burst_init(fixed):
    return cqed.MaserState(
        photon_number=fixed["n_bar"], coherence=0.0,
        inversion=fixed["inversion0"], spin_correlation=0.0)


def _simulate_on_grid(g_e, kappa_s, n_spins, fixed, t_grid):
    traj = cqed.simulate_maser(_burst_params(g_e, kappa_s, n_spins, fixed),
                               _burst_init(fixed), (t_grid[0], t_grid[-1]),
                               t_eval=t_grid)
    return traj.photon_number


def _simulate_or_none(g_e, kappa_s, n_spins, fixed, t_grid):
    try:
        return _simulate_on_grid(g_e, kappa_s, n_spins, fixed, t_grid)
    except NumericalError:
        return None


def _simulate_each(points, fixed, t_grid):
    """Photon numbers of (g_e, kappa_s, n_spins) rows, None where a member fails.

    One stacked solve; when it fails, each member is simulated alone so
    that one bad member does not take the others with it.
    """
    if not points:
        return []
    try:
        return list(cqed.simulate_photon_stack(
            [_burst_params(*q, fixed) for q in points], _burst_init(fixed), t_grid))
    except NumericalError:
        return [_simulate_or_none(*q, fixed, t_grid) for q in points]


def _log_param_models(fixed, t_grid, row_map=None):
    """(model, model_batch) over log10 (g_e, kappa_s, n_spins).

    model simulates one burst with simulate_maser; model_batch simulates
    all its points with _simulate_each.  row_map, if given, transforms
    each simulated photon trace.  A failed simulation gives a photon
    trace of 1e300, penalized rather than fatal, to push the optimizer
    away; row_map sees it as it sees a real trace, so a log10 row_map
    turns it into 300 and the cost stays finite.
    """
    def physical(p):
        return 10.0 ** p[0], 10.0 ** p[1], 10.0 ** p[2]

    def finish(y):
        if y is None:
            y = np.full(len(t_grid), 1e300)
        return y if row_map is None else row_map(y)

    def model(p):
        return finish(_simulate_or_none(*physical(p), fixed, t_grid))

    def model_batch(points):
        ys = _simulate_each([physical(q) for q in points], fixed, t_grid)
        return np.array([finish(y) for y in ys])

    return model, model_batch


def _feature_initialize(t, y_data, init, fixed, simulate):
    """Deterministic starting point from burst features.

    Matches, in order: the exponential growth rate of the rise (pins
    g_e through the linearized eigenvalue, with the measurement bias
    cancelled by applying the same estimator to simulated traces), the
    peak height (pins the spin count N), and the post-peak envelope
    decay slope (pins kappa_s through a secant iteration).
    """
    g_e, kappa_s, n_spins = init
    n_bar = fixed["n_bar"]
    inv0 = fixed["inversion0"]
    kc = fixed["kappa_c"]
    gamma = fixed["gamma"]

    lam_data = _measure_growth_rate(t, y_data, n_bar)
    slope_data = _measure_envelope_slope(t, y_data)
    peak_data = float(np.max(y_data))
    if lam_data is None or slope_data is None or lam_data <= 0:
        return g_e, kappa_s, n_spins    # features unusable; keep caller's guess

    from scipy.optimize import brentq

    def eig(g):
        return _linear_growth_rate(g, kc, kappa_s, gamma, inv0)

    # first pass: invert the eigenvalue directly (systematically biased
    # a few percent low because the rise is not purely single-mode; the
    # loop below removes the bias)
    try:
        g_e = brentq(lambda g: eig(g) - lam_data, lam_data / 6.0, 6.0 * lam_data,
                     xtol=1e-8 * lam_data)
    except ValueError:
        return g_e, kappa_s, n_spins

    previous = None
    for _ in range(10):
        try:
            y_sim = simulate(g_e, kappa_s, n_spins)
        except NumericalError:
            break
        n_spins *= peak_data / float(np.max(y_sim))
        lam_sim = _measure_growth_rate(t, y_sim, n_bar)
        slope_sim = _measure_envelope_slope(t, y_sim)
        if lam_sim is None or slope_sim is None:
            break
        target = _linear_growth_rate(g_e, kc, kappa_s, gamma, inv0) + (lam_data - lam_sim)
        try:
            g_new = brentq(
                lambda g: _linear_growth_rate(g, kc, kappa_s, gamma, inv0) - target,
                target / 6.0, 6.0 * target, xtol=1e-8 * target)
        except ValueError:
            break
        if previous is None:
            ks_new = kappa_s * 1.12    # bootstrap the secant with a second point
        else:
            ks_prev, slope_prev = previous
            denom = slope_sim - slope_prev
            if abs(denom) > 1e-12 * abs(slope_sim):
                ks_new = kappa_s - (slope_sim - slope_data) * (kappa_s - ks_prev) / denom
            else:
                ks_new = kappa_s
            ks_new = float(np.clip(ks_new, 0.3 * init[1], 3.0 * init[1]))
        previous = (kappa_s, slope_sim)
        settled = (abs(g_new / g_e - 1.0) < 5e-4 and abs(ks_new / kappa_s - 1.0) < 5e-4)
        g_e, kappa_s = g_new, ks_new
        if settled:
            break
    return g_e, kappa_s, n_spins


def fit_maser_parameters(photon_trace, fixed, init, loss_space="log10"):
    """Fit (g_e, kappa_s, n_spins) of the mean-field model to a burst.

    Parameters
    ----------
    photon_trace : TimeTrace
        Baseline-corrected photon-number trace on a uniform grid.
    fixed : dict
        Held-fixed quantities: kappa_c, gamma, n_bar, inversion0, delta.
    init : sequence
        Starting (g_e, kappa_s, n_spins); signs and rough magnitudes
        only, the driver relocates the start from burst features.
    loss_space : str
        "log10" (default; the burst spans ~11 decades) or "linear".

    Returns
    -------
    FitResult
        params holds (g_e, kappa_s, n_spins) in physical units;
        uncertainties are one-sigma in the same units, mapped from the
        internal log10 parametrization.

    Notes
    -----
    Integration failures during trial evaluations yield a large
    penalty residual instead of aborting the fit.
    """
    photon_trace.require_unit("photons")
    t = photon_trace.t
    y_data = photon_trace.y
    if len(t) < 32:
        raise InvalidInputError("need at least 32 samples to fit a burst")
    for key in ("kappa_c", "gamma", "n_bar", "inversion0"):
        if key not in fixed:
            raise InvalidInputError(f"fixed parameters must include {key!r}")
    g0, ks0, N0 = (float(v) for v in init)
    if min(g0, ks0, N0) <= 0:
        raise InvalidInputError("initial (g_e, kappa_s, n_spins) must be positive")

    def simulate(g_e, kappa_s, n_spins):
        return _simulate_on_grid(g_e, kappa_s, n_spins, fixed, t)

    # stage 1: feature-based relocation of the starting point
    g_e, kappa_s, n_spins = _feature_initialize(
        t, y_data, (g0, ks0, N0), fixed, simulate)

    # stage 2: deterministic micro-scan over kappa_s with the spin
    # count re-pinned by the peak at every step; the envelope secant
    # can stall a percent away, just outside the polish basin
    peak_data = float(np.max(y_data))
    log_target = np.log10(np.maximum(y_data, LOG_FLOOR))
    scan = [(g_e, factor * kappa_s, n_spins) for factor in KS_SCAN_FACTORS]
    pinned = [(g, ks, N * peak_data / float(np.max(y)))
              for (g, ks, N), y in zip(scan, _simulate_each(scan, fixed, t))
              if y is not None]
    best = None
    for (_, ks_try, n_try), y in zip(pinned, _simulate_each(pinned, fixed, t)):
        if y is None:
            c_try = np.inf
        else:
            r = np.log10(np.maximum(y, LOG_FLOOR)) - log_target
            c_try = float(r @ r)
        if best is None or c_try < best[0]:
            best = (c_try, ks_try, n_try)
    if best is not None:
        _, kappa_s, n_spins = best

    p_start = np.log10([g_e, kappa_s, n_spins])
    model_raw, batch_raw = _log_param_models(fixed, t)

    # stage 3: capped Levenberg-Marquardt polish on the requested loss
    problem_raw = FitProblem(model=model_raw, model_batch=batch_raw, data=photon_trace,
                             init=p_start, loss_space=loss_space)
    result = nlls_minimize(problem_raw, max_step=POLISH_STEP_CAP)

    # stage 4 (fallback): if the polish is still far off, smooth the
    # log-envelope to erase ripple phase structure, descend on that,
    # then re-polish; keep whichever end point fits the raw data better
    if result.residual_norm ** 2 > 1e-6 and loss_space == "log10":
        width = _envelope_width(t)
        smooth_trace = TimeTrace(t, _smooth_log10(y_data, width), "dimensionless")
        model_smooth, batch_smooth = _log_param_models(
            fixed, t, row_map=lambda y: _smooth_log10(y, width))
        problem_smooth = FitProblem(model=model_smooth, model_batch=batch_smooth,
                                    data=smooth_trace, init=p_start, loss_space="linear")
        res_smooth = nlls_minimize(problem_smooth, max_step=SMOOTH_STEP_CAP)
        problem_raw2 = FitProblem(model=model_raw, model_batch=batch_raw, data=photon_trace,
                                  init=res_smooth.params, loss_space=loss_space)
        result2 = nlls_minimize(problem_raw2, max_step=POLISH_STEP_CAP)
        if result2.residual_norm < result.residual_norm:
            result2.iterations += result.iterations + res_smooth.iterations
            result = result2

    params_phys = 10.0 ** result.params
    # d(param)/d(log10 param) = param ln 10
    unc_phys = result.param_uncertainties * params_phys * math.log(10.0)
    return FitResult(params=params_phys,
                     residual_norm=result.residual_norm,
                     jacobian_condition=result.jacobian_condition,
                     iterations=result.iterations,
                     converged=result.converged,
                     param_uncertainties=unc_phys)
