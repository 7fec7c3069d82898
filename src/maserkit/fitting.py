"""Nonlinear least-squares machinery and the fitting drivers.

The core is a conventional Levenberg-Marquardt loop with Marquardt
damping that grows tenfold on a rejected step and shrinks tenfold on
acceptance.  When the damping underflows the trust region entirely, the
point is converged if a linearized step would lower the cost by less
than REL_RESID_TOL of it (one Gauss-Newton step reached the optimum and
rounding rejects every later trial); otherwise a Nelder-Mead simplex
walk, the only use of scipy in the package, takes over.  A problem may
supply its Jacobian; otherwise it is numerically differenced (central
differences, step max(1e-6 |p|, 1e-10)).  Both fits of the package
supply exact Jacobians: the maser fit that of its solver, the
exponential fits that of their projected residual.

Every sum-of-exponentials fit (the biexponential trEPR fit here, the
TCSPC tail and the SVD time profiles in spectro) goes through one
variable-projection fitter: LM runs over the log-rates only, the
amplitudes are the linear least-squares solution for each trial, and the
rates start from a matrix pencil.  One thin SVD of the exponential basis
per trial gives both the amplitudes and the closed-form Golub-Pereyra
Jacobian of the projected residual.

The maser fit deserves a note.  Its objective (log10 photon number of a
simulated burst against data) is smooth in the spin count N but razor
thin in g_e and kappa_s: a fraction of a percent of mismatch in either
dephases the Rabi ripples and the log-space residual saturates, so no
local optimizer started 30% away can find the valley.  The driver
therefore pins the starting point with deterministic physics features
first (exponential growth rate of the rise for g_e, through the
closed-form inverse of the linearized gain eigenvalue; peak height for
N; post-peak envelope decay for kappa_s), sharpens kappa_s with a small
deterministic scan, and only then polishes with Levenberg-Marquardt.
The feature stage and the scan simulate single bursts with
simulate_maser.  The polish keeps the step record of each solve, and
its Jacobian d log10 n / d log10 (g_e, kappa_s, N) comes from that
record by the sensitivity pass of cqed: exact for the discretization
the residual uses, at a fraction of a solve's cost, and with no solve
at all when the point was just evaluated.  All stages are plain
function evaluations; nothing is stochastic.
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
    d(residual)/d(param) in the loss space: d(model)/d(param) for linear
    loss, d log10|model| / d(param) for log10 loss.  Without it the
    residual is differenced numerically.
    """

    model: Callable
    data: TimeTrace
    init: np.ndarray
    bounds: Optional[list] = None
    loss_space: str = "linear"
    jacobian: Optional[Callable] = None

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
    """The residual function of a problem, in its loss space."""
    y = problem.data.y
    if problem.loss_space == "log10":
        target = np.log10(np.maximum(np.abs(y), LOG_FLOOR))

        def from_model(m):
            return np.log10(np.maximum(np.abs(m), LOG_FLOOR)) - target
    else:
        def from_model(m):
            return m - y

    def resid(p):
        m = np.asarray(problem.model(p), dtype=float)
        if np.any(np.isnan(m)):
            raise ModelEvaluationError("model returned NaN")
        return from_model(m)

    return resid


def _numeric_jacobian(resid, p):
    """Central-difference Jacobian, step max(1e-6 |p_j|, 1e-10)."""
    columns = []
    for j in range(len(p)):
        h = max(1e-6 * abs(p[j]), 1e-10)
        step = np.zeros(len(p))
        step[j] = h
        columns.append((resid(p + step) - resid(p - step)) / (2.0 * h))
    return np.column_stack(columns)


def _clip_to_bounds(p, bounds):
    if bounds is None:
        return p
    lo = np.array([b[0] for b in bounds])
    hi = np.array([b[1] for b in bounds])
    return np.clip(p, lo, hi)


def nlls_minimize(problem, max_iterations=MAX_ITERATIONS, max_step=None):
    """Levenberg-Marquardt minimization with a Nelder-Mead stall fallback.

    A stall at a point where a linearized step would lower the cost by
    less than REL_RESID_TOL of it is convergence, and the fallback does
    not run.

    max_step optionally caps the infinity norm of each accepted step;
    the maser driver uses this to keep the polish inside its narrow
    valley.  Deterministic: identical inputs give identical iterates.
    """
    resid = _residual_fn(problem)

    def jacobian_at(q):
        if problem.jacobian is not None:
            return np.asarray(problem.jacobian(q), dtype=float)
        return _numeric_jacobian(resid, q)

    p = _clip_to_bounds(problem.init.copy(), problem.bounds)
    r = resid(p)
    cost = float(r @ r)
    # absolute floor: at this cost the data is reproduced to rounding
    # and the relative-change tests would never fire (each accepted
    # step still changes the parameters at machine scale)
    cost_floor = 1e-24 * max(cost, 1.0)
    lam = None
    lam0 = None
    J = None
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

    if J is not None:    # the condition of the last iteration's Jacobian
        svals = np.linalg.svd(J, compute_uv=False)
        cond = float(svals[0] / svals[-1]) if svals[-1] > 0 else np.inf
    if stalled and math.isfinite(cost):
        # Every trial from p was rejected.  When one Gauss-Newton step
        # landed on the optimum that is rounding, not a stall: p is
        # converged when a linearized step would lower the cost by less
        # than REL_RESID_TOL of it.
        promised = np.linalg.qr(J)[0].T @ r
        converged = float(promised @ promised) <= REL_RESID_TOL * cost
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
# sums of exponentials


MAX_LOG_RATE = 700.0   # exp(700) ~ 1e304: such a component is gone after t = 0
PENCIL_WIDTH = 32
# Every fit of a component the data support took at most 8 iterations
# (biexp, TCSPC k = 1, 2 on 300 noise seeds); a fit still moving after
# EXP_MAX_ITERATIONS trades an unsupported component against the noise.
EXP_MAX_ITERATIONS = 50


def _exp_basis(t, log_rates, offset):
    """Columns exp(-r_j t), ln r_j clamped at MAX_LOG_RATE, and ones for an offset."""
    rates = np.exp(np.minimum(log_rates, MAX_LOG_RATE))
    with np.errstate(over="ignore"):
        basis = np.exp(-np.outer(t, rates))
    return np.column_stack([basis, np.ones(len(t))]) if offset else basis


def _pencil_rates(t, y, k, offset):
    """k distinct positive decay rates of y by the matrix pencil method.

    y is resampled on a uniform grid (differenced once to remove an
    offset) and laid out as a Hankel matrix of width PENCIL_WIDTH + 1;
    the eigenvalues z of pinv(V[:-1]) V[1:], with V its k leading right
    singular vectors, are the poles and r = -ln|z| / dt (Hua & Sarkar,
    IEEE Trans. ASSP 38, 814 (1990)).  Rates are clipped to
    [0.1 / span, 10 / dt], so a pole that does not decay becomes a slow
    component.
    """
    grid = np.linspace(t[0], t[-1], len(t))
    dt = grid[1] - grid[0]
    samples = np.interp(grid, t, y)
    if offset:
        samples = np.diff(samples)
    width = min(PENCIL_WIDTH, (len(samples) - 1) // 2)
    poles = np.ones(k)    # too few samples for a pencil: start all slow
    if width >= k:
        hankel = np.lib.stride_tricks.sliding_window_view(samples, width + 1)
        # the Hankel matrix and its triangular factor R share their right
        # singular vectors; R is (width + 1) square
        v = np.linalg.svd(np.linalg.qr(hankel, mode="r"))[2][:k].T
        poles = np.linalg.eigvals(np.linalg.pinv(v[:-1]) @ v[1:])
    with np.errstate(divide="ignore"):
        rates = -np.log(np.abs(poles)) / dt
    return np.clip(rates, 0.1 / (t[-1] - t[0]), 10.0 / dt)


def _spread_rates(rates, ratio):
    """Start rates fastest first; one within a factor ratio of the rate
    before it is set to half that rate.

    On the equal-rate diagonal the basis loses rank and the projected
    Jacobian has equal columns, so LM steps keep equal rates equal: a
    conjugate pencil pair or an equal explicit start would leave the fit
    on that saddle.  Rates a relative sqrt(eps) apart are equal to
    rounding there: their columns differ by that much, and J^T J, which
    LM solves, by its square.
    """
    rates = -np.sort(-np.asarray(rates, dtype=float))
    for j in range(1, len(rates)):
        if rates[j] * ratio >= rates[j - 1]:
            rates[j] = rates[j - 1] / 2.0
    return rates


def _rate_derivatives(t, basis, log_rates):
    """Columns d exp(-r_j t) / d ln r_j = -r_j t exp(-r_j t) of the basis.

    basis * t comes first: exp(-r t) underflows to 0 before r t can
    overflow, so a rate at the MAX_LOG_RATE clamp gets the zero column
    the flat clamp has (exp(-r t) is 0 for every t > 0 there).
    """
    rates = np.exp(np.minimum(log_rates, MAX_LOG_RATE))
    return -(basis[:, :len(log_rates)] * t[:, None]) * rates


class _ExpProjection:
    """y projected on the exponential basis Phi(a) of _exp_basis, a = log-rates.

    fitted(a) is Phi Phi^+ y and jacobian(a) the exact derivative of the
    projected residual Phi Phi^+ y - y (Golub & Pereyra; in the form of
    O'Leary & Rust, Comput. Optim. Appl. 54, 579 (2013)): column j is
    c_j P_perp d_j - (Phi^+)^T e_j (d_j^T r), with c = Phi^+ y, P_perp the
    projector on the orthogonal complement of the basis and d_j the
    derivative of basis column j.  The offset column has no derivative.

    Both come from one thin SVD of the basis.  Singular values at or below
    eps max(n, p) s_max are dropped, the cutoff of lstsq(rcond=None), so
    equal or clamped rates get the minimum-norm amplitudes.  The
    projection keeps the factors of its last point, as _BurstModel keeps
    its last solve, so the Jacobian at the point LM just accepted builds
    no basis.
    """

    def __init__(self, t, y, offset):
        self.t = t
        self.y = y
        self.offset = offset
        self._factors = (None, None)     # (key, (basis, u, s, vt, amplitudes, fitted))

    def factors(self, log_rates):
        key = log_rates.tobytes()
        if self._factors[0] != key:
            basis = _exp_basis(self.t, log_rates, self.offset)
            u, s, vt = np.linalg.svd(basis, full_matrices=False)
            keep = s > np.finfo(float).eps * max(basis.shape) * s[0]
            u, s, vt = u[:, keep], s[keep], vt[keep]
            coef = u.T @ self.y
            self._factors = (key, (basis, u, s, vt, vt.T @ (coef / s), u @ coef))
        return self._factors[1]

    def fitted(self, log_rates):
        return self.factors(log_rates)[5]

    def jacobian(self, log_rates):
        basis, u, s, vt, c, fitted = self.factors(log_rates)
        k = len(log_rates)
        d = _rate_derivatives(self.t, basis, log_rates)
        pinv_t = u @ (vt[:, :k] / s[:, None])    # columns (Phi^+)^T e_j
        return (d - u @ (u.T @ d)) * c[:k] - pinv_t * (d.T @ (fitted - self.y))


def _fit_exponentials(t, y, k, offset=False, rates0=None):
    """Least-squares fit of y = sum_j c_j exp(-r_j t) (+ c_0) by variable projection.

    Levenberg-Marquardt runs over the k log-rates only; for each trial the
    amplitudes are the linear least-squares solution, so the model is the
    projection of y on the basis (Golub & Pereyra, SIAM J. Numer. Anal. 10,
    413 (1973)), and LM gets the exact Jacobian of that projected residual
    from _ExpProjection: one basis and one thin SVD per trial point, none
    for the Jacobian at an accepted point.  The start is the matrix pencil
    with rates spread to ratios of at least 2, or rates0 when given, with
    only rates equal to rounding separated (see _spread_rates).

    Returns a FitResult with params (c_1..c_k[, c_0], ln r_1..ln r_k),
    components ordered fastest first, and one-sigma errors from the
    Jacobian in all of them at the optimum.
    """
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    if rates0 is None:
        rates0 = _spread_rates(_pencil_rates(t, y, k, offset), 2.0)
    else:
        rates0 = _spread_rates(rates0, 1.0 + math.sqrt(np.finfo(float).eps))
    projection = _ExpProjection(t, y, offset)
    res = nlls_minimize(FitProblem(model=projection.fitted, jacobian=projection.jacobian,
                                   data=TimeTrace(t, y), init=np.log(rates0)),
                        max_iterations=EXP_MAX_ITERATIONS)
    log_rates = np.sort(res.params)[::-1]
    basis, _, _, _, c, fitted = projection.factors(log_rates)
    q = np.concatenate([c, log_rates])
    r = fitted - y
    # d/d ln r_j of c_j exp(-r_j t) is c_j d_j
    jac = np.column_stack([basis, _rate_derivatives(t, basis, log_rates) * c[:k]])
    # nlls_minimize applies this test where LM stalls; it is repeated here
    # for a fit that reached the optimum and ran on to EXP_MAX_ITERATIONS:
    # the end point is converged when a linearized step would lower the
    # cost by less than REL_RESID_TOL of it.
    promised = np.linalg.qr(jac)[0].T @ r
    converged = res.converged or float(promised @ promised) <= REL_RESID_TOL * float(r @ r)
    return FitResult(params=q, residual_norm=res.residual_norm,
                     jacobian_condition=res.jacobian_condition,
                     iterations=res.iterations, converged=converged,
                     param_uncertainties=_linearized_uncertainties(lambda _: jac, q, r))


def fit_biexponential(trace, init=None):
    """Fit A e^(a- t) + B e^(a+ t) to a trace, rates constrained negative.

    Parameters
    ----------
    trace : TimeTrace
        Signal to fit (any unit; values used as-is).
    init : tuple, optional
        (A, B, alpha_minus, alpha_plus) starting guess; both rates
        negative.  Only the rates are used: the amplitudes are solved
        for exactly at every step.  Two rates equal to rounding would
        stay equal, so the slower is halved.  When omitted the matrix
        pencil supplies the rates.

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
    rates0 = None
    if init is not None:
        if init[2] >= 0 or init[3] >= 0:
            raise InvalidInputError("initial rates must be negative")
        rates0 = (-init[2], -init[3])
    res = _fit_exponentials(t, y, 2, rates0=rates0)
    if not res.converged:
        raise NumericalError("biexponential fit did not converge")
    A, B = res.params[:2]
    a1, a2 = (-float(r) for r in np.exp(res.params[2:]))
    sA, sB, sL1, sL2 = res.param_uncertainties
    # sigma_alpha = |alpha| * sigma_ln r; the faster component comes first
    return BiexpFit(A=A, B=B, alpha_minus=a1, alpha_plus=a2, A_err=sA, B_err=sB,
                    alpha_minus_err=abs(a1) * sL1, alpha_plus_err=abs(a2) * sL2)


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


def _coupling_for_growth_rate(rate, kappa_c, kappa_s, gamma, inversion0):
    """The g_e whose _linear_growth_rate is rate, or None.

    det(A(g) - rate I) = 0 for the gain matrix A gives
    g^2 = (kappa_c + rate)(h + rate)(G + rate) / (2 inversion0 (kappa_c + G + 2 rate))
    with h = (kappa_c + gamma + kappa_s)/2 and G = gamma + kappa_s.  For
    rate >= 0 the right-hand side strictly increases with rate, so the
    root is unique and it is the largest eigenvalue.  None when rate <= 0,
    inversion0 <= 0, or g_e lies outside [rate/6, 6 rate], the range the
    feature stage accepts.
    """
    if not (rate > 0 and inversion0 > 0):
        return None
    half_width = 0.5 * (kappa_c + gamma + kappa_s)
    pair_decay = gamma + kappa_s
    g_e = math.sqrt((kappa_c + rate) * (half_width + rate) * (pair_decay + rate)
                    / (2.0 * inversion0 * (kappa_c + pair_decay + 2.0 * rate)))
    return g_e if rate / 6.0 <= g_e <= 6.0 * rate else None


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


class _BurstModel:
    """The burst over p = log10 (g_e, kappa_s, n_spins) on the data grid.

    photons(p) solves with cqed._solve_burst; log_jacobian(p) gives
    d log10 n / dp from that solve's step record by
    cqed._log_photon_sensitivity.  The model keeps its last solve and its
    last Jacobian, so a Jacobian at the point just evaluated costs only
    the sensitivity pass, and one asked for again costs nothing.  A
    failed simulation gives a photon trace of 1e300, penalized rather
    than fatal, to push the optimizer away (its log10, 300, keeps the
    cost finite), and a zero Jacobian.
    """

    def __init__(self, fixed, t_grid):
        self.fixed = fixed
        self.t = t_grid
        self._solved = (None, None)      # (key, cqed._BurstSolve or None)
        self._jacobian = (None, None)    # (key, d log10 n / dp)

    def _solve(self, p):
        key = p.tobytes()
        if self._solved[0] != key:
            g_e, kappa_s, n_spins = 10.0 ** p[0], 10.0 ** p[1], 10.0 ** p[2]
            try:
                solve = cqed._solve_burst(_burst_params(g_e, kappa_s, n_spins, self.fixed),
                                          _burst_init(self.fixed), self.t)
            except NumericalError:
                solve = None
            self._solved = (key, solve)
        return self._solved[1]

    def photons(self, p):
        solve = self._solve(p)
        return np.full(len(self.t), 1e300) if solve is None else solve.photon_number

    def log_jacobian(self, p):
        key = p.tobytes()
        if self._jacobian[0] != key:
            solve = self._solve(p)
            if solve is None:
                jac = np.zeros((len(self.t), 3))
            else:
                jac = cqed._log_photon_sensitivity(solve)
                jac[~(solve.photon_number > LOG_FLOOR)] = 0.0   # log10 floor is flat
            self._jacobian = (key, jac)
        return self._jacobian[1]

    def smoothed(self, width):
        """(model, jacobian) of the log10 photon trace under _smooth_log10.

        The smoothing is linear in log10 n, so the Jacobian is the moving
        average of the raw columns.
        """
        def model(p):
            return _smooth_log10(self.photons(p), width)

        def jacobian(p):
            return np.column_stack([_moving_average(col, width)
                                    for col in self.log_jacobian(p).T])

        return model, jacobian


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

    # first pass: invert the eigenvalue directly (systematically biased
    # a few percent low because the rise is not purely single-mode; the
    # loop below removes the bias)
    g_e = _coupling_for_growth_rate(lam_data, kc, kappa_s, gamma, inv0)
    if g_e is None:
        return init

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
        g_new = _coupling_for_growth_rate(target, kc, kappa_s, gamma, inv0)
        if g_new is None:
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
    pinned = []
    for factor in KS_SCAN_FACTORS:
        y = _simulate_or_none(g_e, factor * kappa_s, n_spins, fixed, t)
        if y is not None:
            pinned.append((factor * kappa_s, n_spins * peak_data / float(np.max(y))))
    best = None
    for ks_try, n_try in pinned:
        y = _simulate_or_none(g_e, ks_try, n_try, fixed, t)
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
    burst = _BurstModel(fixed, t)
    if loss_space == "log10":
        jacobian_raw = burst.log_jacobian
    else:
        def jacobian_raw(p):    # dn/dp = n ln 10 d log10 n / dp
            return burst.log_jacobian(p) * (math.log(10.0) * burst.photons(p))[:, None]

    # stage 3: capped Levenberg-Marquardt polish on the requested loss
    problem_raw = FitProblem(model=burst.photons, jacobian=jacobian_raw, data=photon_trace,
                             init=p_start, loss_space=loss_space)
    result = nlls_minimize(problem_raw, max_step=POLISH_STEP_CAP)

    # stage 4 (fallback): if the polish is still far off, smooth the
    # log-envelope to erase ripple phase structure, descend on that,
    # then re-polish; keep whichever end point fits the raw data better
    if result.residual_norm ** 2 > 1e-6 and loss_space == "log10":
        width = _envelope_width(t)
        smooth_trace = TimeTrace(t, _smooth_log10(y_data, width), "dimensionless")
        model_smooth, jacobian_smooth = burst.smoothed(width)
        problem_smooth = FitProblem(model=model_smooth, jacobian=jacobian_smooth,
                                    data=smooth_trace, init=p_start, loss_space="linear")
        res_smooth = nlls_minimize(problem_smooth, max_step=SMOOTH_STEP_CAP)
        problem_raw2 = FitProblem(model=burst.photons, jacobian=jacobian_raw, data=photon_trace,
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
