"""Nonlinear least-squares machinery and the fitting drivers.

The core, nlls_minimize, is a conventional Levenberg-Marquardt loop
(More, LNM 630 (1978)) over a model, its Jacobian d model / dp, the data
and a start.  Each iteration's one trial loop starts undamped
(Gauss-Newton), then damps with a Marquardt lambda that grows tenfold on
a rejected trial and shrinks tenfold on acceptance.  A run is converged
when an accepted step changes the parameters or the cost by a tiny
relative amount, or brings the cost to rounding.  At any other exit
(every trial rejected, or the iteration cap) it is converged when a
linearized step would lower the cost by less than REL_RESID_TOL of it,
or when the Gauss-Newton step is below REL_PARAM_TOL (relative): the
optimum was reached and rounding rejects or wastes every later
trial.  Every caller brings its own Jacobian: the maser fit that of its
solver, the exponential fits that of their projected residual.

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
dephases the Rabi ripples after the peak, so the residual of the whole
burst has many local minima.  The rise before the peak has one basin.
The fit is therefore a time-window continuation, a cheap relative of
multiple shooting (Bock 1981; Peifer & Timmer, IET Syst. Biol. 1, 78
(2007)): it fits the samples up to 0.6 times the data's peak time, then
widens the window in steps to the whole burst, each window starting at
the end point of the one before.  Each window solves its bursts with
cqed.simulate_maser, up to its own end only, through one model over
log10 (g_e, kappa_s, N) that keeps one entry, its last trajectory and
that trajectory's Jacobian.  The fit takes the floored log10 of model
and data itself (_log10), and the Jacobian d log10 n / d log10 (g_e,
kappa_s, N) comes from the trajectory's step record by the sensitivity
pass of cqed's compiled kernel: exact for the discretization the
residual uses, at less than a solve's cost, and with no solve at all
when the point was just evaluated.  Every window is plain function
evaluations; nothing is stochastic.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError, ModelEvaluationError, NumericalError
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
class FitResult:
    """Outcome of a least-squares minimization."""

    params: np.ndarray
    residual_norm: float
    jacobian_condition: float
    iterations: int
    converged: bool
    param_uncertainties: np.ndarray = field(default_factory=lambda: np.array([]))


def _residual_fn(model, y):
    """The residual function p -> model(p) - y; a NaN in the model is an error."""
    def resid(p):
        m = np.asarray(model(p), dtype=float)
        if np.any(np.isnan(m)):
            raise ModelEvaluationError("model returned NaN")
        return m - y

    return resid


def nlls_minimize(model, jacobian, y, init, max_iterations=MAX_ITERATIONS, max_step=None):
    """Levenberg-Marquardt minimization of |model(p) - y|^2 from p = init.

    model maps a parameter vector to predicted values (same length as y)
    and jacobian maps it to the (len(y), len(p)) matrix d model / dp; a
    fit in a transformed space (the maser fit's log10 photon numbers)
    passes the transformed model, data and Jacobian.  Each iteration's
    trials start at damping 0, the Gauss-Newton step, which lands on the
    minimum of a (nearly) quadratic objective.  A run is converged when
    an accepted step changes the parameters by less than REL_PARAM_TOL or
    the cost by less than REL_RESID_TOL (relative), or brings the cost to
    rounding.  At any other exit (every trial rejected, or max_iterations
    reached) it is converged when a linearized step from the returned
    point would lower the cost by less than REL_RESID_TOL of it, or when
    the Gauss-Newton step from it is below REL_PARAM_TOL (relative).
    Both tests use the Jacobian at the returned point, which also gives
    the uncertainties.

    max_step optionally caps the infinity norm of each accepted step;
    the maser fit uses this to keep each window's descent inside its
    valley.  Deterministic: identical inputs give identical iterates.
    """
    y = np.asarray(y, dtype=float)
    if not np.all(np.isfinite(y)):
        raise InvalidInputError("data contains non-finite values")
    resid = _residual_fn(model, y)
    p = np.array(init, dtype=float)
    r = resid(p)
    cost = float(r @ r)
    # absolute floor: at this cost the data is reproduced to rounding
    # and the relative-change tests would never fire (each accepted
    # step still changes the parameters at machine scale)
    cost_floor = 1e-24 * max(cost, 1.0)
    lam = None
    J = None
    cond = np.inf
    iterations = 0
    converged = False

    def accept(step):
        """Move to p + step if that lowers the cost; True when the step is taken."""
        nonlocal p, r, cost, converged
        p_trial = p + step
        if p_trial.tobytes() == p.tobytes():
            return False    # the step is below the float spacing of p: the cost cannot fall
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
        J = np.asarray(jacobian(p), dtype=float)
        JtJ = J.T @ J
        grad = J.T @ r
        if lam is None:
            lam0 = LAMBDA_INIT_FACTOR * float(np.max(np.diag(JtJ)))
            lam = lam0 if lam0 > 0 else 1e-12
            lam0 = lam
        damping = 0.0    # the Gauss-Newton trial; lambda moves only after damped ones
        while True:
            try:
                step = np.linalg.solve(JtJ + damping * np.eye(len(p)), -grad)
            except np.linalg.LinAlgError:
                step = None
            accepted = (step is not None
                        and (max_step is None or np.max(np.abs(step)) <= max_step)
                        and accept(step))
            if damping:
                lam = max(lam / LAMBDA_SHRINK, 1e-14) if accepted else lam * LAMBDA_GROW
            if accepted or lam > lam0 * LAMBDA_MAX_GROWTH:
                break
            damping = lam
        if not accepted or converged:
            break

    if J is not None:    # the condition of the last iteration's Jacobian
        svals = np.linalg.svd(J, compute_uv=False)
        cond = float(svals[0] / svals[-1]) if svals[-1] > 0 else np.inf
    if J is None or accepted:    # else every trial was rejected and J is at p
        J = np.asarray(jacobian(p), dtype=float)
    if not converged and math.isfinite(cost):
        # Every trial was rejected, or the cap was reached.  When an
        # earlier step reached the optimum, rounding rejects or wastes
        # every later trial: p is converged when a linearized step would
        # lower the cost by less than REL_RESID_TOL of it, or when the
        # Gauss-Newton step from p is below REL_PARAM_TOL (relative): at a
        # cost near rounding the promised decrease is rounding too.  A NaN
        # or singular Jacobian leaves p unconverged.
        q, rmat = np.linalg.qr(J)
        promised = q.T @ r
        converged = float(promised @ promised) <= REL_RESID_TOL * cost
        if not converged:
            try:
                step = np.linalg.solve(rmat, -promised)
                converged = bool(np.max(np.abs(step) / np.maximum(np.abs(p), 1e-30))
                                 < REL_PARAM_TOL)
            except np.linalg.LinAlgError:
                pass
    return FitResult(params=p, residual_norm=math.sqrt(cost),
                     jacobian_condition=cond, iterations=iterations,
                     converged=converged, param_uncertainties=_linearized_uncertainties(J, r))


def _linearized_uncertainties(J, r):
    """One-sigma parameter errors from the linearized covariance at the optimum."""
    try:
        dof = max(len(r) - J.shape[1], 1)
        cov = float(r @ r) / dof * np.linalg.inv(J.T @ J)
        return np.sqrt(np.maximum(np.diag(cov), 0.0))
    except np.linalg.LinAlgError:
        return np.full(J.shape[1], np.nan)


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
    res = nlls_minimize(projection.fitted, projection.jacobian, y, np.log(rates0),
                        max_iterations=EXP_MAX_ITERATIONS)
    log_rates = np.sort(res.params)[::-1]
    basis, _, _, _, c, fitted = projection.factors(log_rates)
    q = np.concatenate([c, log_rates])
    # d/d ln r_j of c_j exp(-r_j t) is c_j d_j
    jac = np.column_stack([basis, _rate_derivatives(t, basis, log_rates) * c[:k]])
    return FitResult(params=q, residual_norm=res.residual_norm,
                     jacobian_condition=res.jacobian_condition,
                     iterations=res.iterations, converged=res.converged,
                     param_uncertainties=_linearized_uncertainties(jac, fitted - y))


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


# Time-window continuation: window k holds the samples up to t[0] +
# WINDOWS[k] (t_peak - t[0]), t_peak the time of the data's maximum; the
# last window is the whole burst.  A window of fewer than 8 samples, or
# with no sample more than the window before, is skipped.
WINDOWS = (0.6, 0.8, 1.0, 1.3, 1.7, 2.2, 3.0, math.inf)
WINDOW_MAX_ITERATIONS = 50
WINDOW_STEP_CAP = 0.05        # max log10 step in every window


def _log10(x):
    """log10 |x| floored at LOG_FLOOR: the maser fit's loss space for model and data."""
    return np.log10(np.maximum(np.abs(x), LOG_FLOOR))


class _BurstModel:
    """The burst over p = log10 (g_e, kappa_s, n_spins) on a time grid.

    Every solve of the maser fit goes through solve(p):
    cqed.simulate_maser with the held quantities of fixed on t_grid (the
    rows of one fit window), or None when the integration fails.
    log_photons(p) is the _log10 of its photon trace, the fit's one
    model, and log_jacobian(p) gives its derivative d log10 n / dp, zero
    where n is not above LOG_FLOOR, from the trajectory's step record by
    cqed._log_photon_sensitivity.  The model keeps one
    entry, [key, trajectory, Jacobian], with the Jacobian filled in once
    asked for: a Jacobian at the point just evaluated costs only the
    sensitivity pass, and one asked for again costs nothing.  A failed
    simulation gives a log10 photon trace of 300 (n = 1e300),
    penalized rather than fatal, to push the optimizer away while the
    cost stays finite, and a zero Jacobian.  cqed is imported here, so
    the exponential fits never load it.
    """

    def __init__(self, fixed, t_grid):
        from . import cqed

        self.fixed = fixed
        self.t = t_grid
        self.init = cqed.MaserState(photon_number=fixed["n_bar"], coherence=0.0,
                                    inversion=fixed["inversion0"], spin_correlation=0.0)
        self.entry = [None, None, None]

    def solve(self, p):
        from . import cqed

        key = p.tobytes()
        if self.entry[0] != key:
            fixed = self.fixed
            g_e, kappa_s, n_spins = (float(10.0 ** v) for v in p)
            params = cqed.MaserSystemParams(
                g_e=g_e, kappa_c=fixed["kappa_c"], kappa_s=kappa_s, gamma=fixed["gamma"],
                delta=fixed.get("delta", 0.0), n_spins=n_spins, n_bar=fixed["n_bar"])
            try:
                traj = cqed.simulate_maser(params, self.init, (self.t[0], self.t[-1]),
                                           t_eval=self.t)
            except NumericalError:
                traj = None
            self.entry = [key, traj, None]
        return self.entry[1]

    def log_photons(self, p):
        traj = self.solve(p)
        return np.full(len(self.t), 300.0) if traj is None else _log10(traj.photon_number)

    def log_jacobian(self, p):
        from . import cqed

        traj = self.solve(p)
        if self.entry[2] is None:
            self.entry[2] = (np.zeros((len(self.t), 3)) if traj is None
                             else cqed._log_photon_sensitivity(traj, LOG_FLOOR))
        return self.entry[2]


def fit_maser_parameters(photon_trace, fixed, init):
    """Fit (g_e, kappa_s, n_spins) of the mean-field model to a burst.

    Parameters
    ----------
    photon_trace : TimeTrace
        Baseline-corrected photon-number trace on a uniform grid.
    fixed : dict
        Held-fixed quantities: kappa_c, gamma, n_bar, inversion0, delta.
    init : sequence
        Starting (g_e, kappa_s, n_spins), all positive.  The first
        window descends from it, so the start matters.  From
        synthetic.BURST_DEFAULTS, on 30 devices with g_e, kappa_s, N and
        kappa_c each 0.71-1.41 times those values, all 30 noiseless fits
        reached the truth; with factors of 0.5-2 (numpy seed 11), 25 of
        30 did, and none of the 5 misses reported converged=True.

    Returns
    -------
    FitResult
        params holds (g_e, kappa_s, n_spins) in physical units;
        uncertainties are one-sigma in the same units, mapped from the
        internal log10 parametrization.

    Notes
    -----
    The residuals are log10 |n| - log10 |y|, floored at LOG_FLOOR: the
    matched loss for multiplicative noise (synthetic.maser_burst scales y
    by 10^(sigma N(0, 1))), which gives every sample of the ~11-decade
    burst the same log10 error, so the rise weighs as much as the peak.
    A failed solve gives a large penalty residual instead of aborting.
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

    # The rise before the first ripple has one basin, and each wider
    # window moves the optimum only a little.
    log_data = _log10(y_data)
    t_peak = t[int(np.argmax(y_data))]
    p = np.log10([g0, ks0, N0])
    fitted_rows = iterations = 0
    for factor in WINDOWS:
        end = t[-1] if factor == math.inf else t[0] + factor * (t_peak - t[0])
        rows = int(np.count_nonzero(t <= end))
        if rows < 8 or rows == fitted_rows:
            continue
        burst = _BurstModel(fixed, t[:rows])
        result = nlls_minimize(burst.log_photons, burst.log_jacobian, log_data[:rows], p,
                               max_iterations=WINDOW_MAX_ITERATIONS, max_step=WINDOW_STEP_CAP)
        p, fitted_rows = result.params, rows
        iterations += result.iterations

    params_phys = 10.0 ** result.params
    # d(param)/d(log10 param) = param ln 10
    unc_phys = result.param_uncertainties * params_phys * math.log(10.0)
    return FitResult(params=params_phys,
                     residual_norm=result.residual_norm,
                     jacobian_condition=result.jacobian_condition,
                     iterations=iterations,
                     converged=result.converged,
                     param_uncertainties=unc_phys)
