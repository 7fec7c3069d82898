import collections
import itertools
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from maserkit import cqed, fitting
from maserkit.errors import IntegrationFailureError, InvalidInputError, NumericalError
from maserkit.fitting import fit_biexponential, fit_maser_parameters, nlls_minimize
from maserkit.cqed import MaserState, MaserSystemParams, simulate_maser
from maserkit.synthetic import BURST_DEFAULTS, biexp_trepr, maser_burst, rank2_tas, tcspc_decay
from maserkit.trace import TimeTrace


def test_linear_model_converges_immediately():
    t = np.linspace(0.0, 1.0, 30)
    truth = (-1.0, 2.0)

    def model(p):
        return p[0] + p[1] * t

    def jacobian(p):
        return np.column_stack([np.ones_like(t), t])

    res = nlls_minimize(model, jacobian, truth[0] + truth[1] * t, np.zeros(2))
    assert res.converged
    assert res.iterations <= 2
    assert res.params[0] == pytest.approx(truth[0], abs=1e-10)
    assert res.params[1] == pytest.approx(truth[1], abs=1e-10)
    assert res.residual_norm < 1e-10
    assert res.jacobian_condition > 0
    assert len(res.param_uncertainties) == 2


def test_fit_is_deterministic():
    t = np.linspace(0.0, 1e-5, 200)
    y = 0.5 * np.exp(-3e5 * t) + 0.02

    def model(p):
        return p[0] * np.exp(-p[1] * t) + p[2]

    def jacobian(p):
        decay = np.exp(-p[1] * t)
        return np.column_stack([decay, -p[0] * t * decay, np.ones_like(t)])

    init = np.array([0.3, 2e5, 0.0])
    res1 = nlls_minimize(model, jacobian, y, init)
    res2 = nlls_minimize(model, jacobian, y, init)
    assert np.array_equal(res1.params, res2.params)
    assert res1.iterations == res2.iterations


def test_fit_scale_equivariance():
    """Scaling the data scales the recovered amplitude, nothing else."""
    t = np.linspace(0.0, 1e-5, 120)
    y = 0.7 * np.exp(-2.5e5 * t)

    def run(scale):
        def model(p):
            return p[0] * np.exp(-p[1] * t)

        def jacobian(p):
            decay = np.exp(-p[1] * t)
            return np.column_stack([decay, -p[0] * t * decay])

        return nlls_minimize(model, jacobian, scale * y, np.array([0.4 * scale, 1.5e5]))

    a = run(1.0)
    b = run(1e6)
    assert b.params[0] / a.params[0] == pytest.approx(1e6, rel=1e-8)
    assert b.params[1] == pytest.approx(a.params[1], rel=1e-8)


def test_iteration_cap_at_the_optimum_is_converged():
    # One Gauss-Newton step lands on the optimum of a linear model; the
    # cap then ends the run before a second step can find no change.  The
    # linearized-decrease test at the returned point still reports it.
    t = np.linspace(0.0, 1.0, 30)
    y = -1.0 + 2.0 * t + 0.01 * np.random.default_rng(0).standard_normal(30)

    def model(p):
        return p[0] + p[1] * t

    def jacobian(p):
        return np.column_stack([np.ones_like(t), t])

    res = nlls_minimize(model, jacobian, y, np.zeros(2), max_iterations=1)
    assert res.iterations == 1
    assert res.converged
    np.testing.assert_allclose(res.params, np.polyfit(t, y, 1)[::-1], rtol=1e-6)


def test_a_trial_below_the_float_spacing_of_p_is_not_evaluated():
    # The Jacobian points uphill, so every trial raises the cost and the
    # damping grows until the trial step, 1e-8 / (1 + lambda / J^T J),
    # falls below the float spacing of p = 1; such a trial p + step == p
    # is rejected without solving p again.
    x = np.linspace(1.0, 2.0, 20)
    evaluated = []

    def model(p):
        evaluated.append(p.tobytes())
        return p[0] * x

    res = nlls_minimize(model, lambda p: -x[:, None], (1.0 - 1e-8) * x, np.array([1.0]))
    assert res.iterations == 1 and not res.converged
    assert res.params.tolist() == [1.0]
    assert len(evaluated) == len(set(evaluated)) == 13


# ---------------------------------------------------------------------------
# biexponential


def test_biexp_round_trip_noiseless():
    trace, meta = biexp_trepr()
    fit = fit_biexponential(trace)
    assert fit.A == pytest.approx(meta["A"], rel=1e-6)
    assert fit.B == pytest.approx(meta["B"], rel=1e-6)
    assert fit.alpha_minus == pytest.approx(meta["alpha_minus"], rel=1e-6)
    assert fit.alpha_plus == pytest.approx(meta["alpha_plus"], rel=1e-6)


def test_biexp_round_trip_with_noise():
    trace, meta = biexp_trepr(noise_rms=0.005, seed=4)
    fit = fit_biexponential(trace)
    assert fit.A == pytest.approx(meta["A"], rel=0.05)
    assert fit.B == pytest.approx(meta["B"], rel=0.05)
    assert fit.alpha_minus == pytest.approx(meta["alpha_minus"], rel=0.05)
    assert fit.alpha_plus == pytest.approx(meta["alpha_plus"], rel=0.05)
    # one-sigma uncertainties are reported and have sane magnitude
    assert 0 < fit.alpha_minus_err < 0.2 * abs(fit.alpha_minus)


def test_biexp_explicit_init_and_component_order():
    trace, meta = biexp_trepr()
    # swapped starting components must converge to the same ordered answer
    fit = fit_biexponential(trace, init=(-0.1, 0.6, -0.5e5, -4.5e5))
    assert fit.alpha_minus <= fit.alpha_plus < 0
    assert fit.alpha_minus == pytest.approx(meta["alpha_minus"], rel=1e-5)
    assert fit.A == pytest.approx(meta["A"], rel=1e-5)


def test_biexp_handles_single_component_data():
    t = np.linspace(0.0, 2e-5, 500)
    y = 0.5 * np.exp(-3.0e5 * t)
    fit = fit_biexponential(TimeTrace(t, y, "dimensionless"))
    dominant = max(abs(fit.A), abs(fit.B))
    recessive = min(abs(fit.A), abs(fit.B))
    assert dominant == pytest.approx(0.5, rel=1e-3)
    assert recessive < 1e-3 * dominant


def test_biexp_restarted_at_its_optimum_converges():
    # from the optimum every Levenberg-Marquardt trial step is a rounding
    # coin flip; a fit that cannot improve on its start is still converged
    clean, _ = biexp_trepr()
    noise = 0.01 * float(np.max(np.abs(clean.y)))
    for seed in range(48):
        trace, _ = biexp_trepr(noise_rms=noise, seed=seed)
        fit = fit_biexponential(trace)
        again = fit_biexponential(trace, init=(fit.A, fit.B, fit.alpha_minus, fit.alpha_plus))
        assert again.alpha_minus == pytest.approx(fit.alpha_minus, rel=1e-6), seed
        assert again.alpha_plus == pytest.approx(fit.alpha_plus, rel=1e-6), seed


def test_lm_stalled_at_the_optimum_is_converged():
    # From the optimum of a biexponential every trial step is rejected by
    # rounding; the linearized-decrease test must report convergence.
    # The variable-projection optimum and the optimum of this 4-parameter
    # model agree only to rounding, so the start is the fixed point of LM
    # on the model itself, reached by rerunning it from its own result
    # until a run leaves its start as is.
    clean, _ = biexp_trepr()
    trace, _ = biexp_trepr(noise_rms=0.01 * float(np.max(np.abs(clean.y))), seed=3)
    t = trace.t

    def model(p):
        return p[0] * np.exp(-np.exp(p[2]) * t) + p[1] * np.exp(-np.exp(p[3]) * t)

    jacobians = []

    def jacobian(p):
        jacobians.append(p)
        e1, e2 = np.exp(-np.exp(p[2]) * t), np.exp(-np.exp(p[3]) * t)
        return np.column_stack([e1, e2, -p[0] * np.exp(p[2]) * t * e1,
                                -p[1] * np.exp(p[3]) * t * e2])

    start = fitting._fit_exponentials(t, trace.y, 2).params
    for _ in range(5):
        jacobians.clear()
        res = nlls_minimize(model, jacobian, trace.y, start)
        if np.array_equal(res.params, start):    # no trial step was accepted
            break
        start = res.params
    else:
        pytest.fail("LM still moved its start after 5 reruns")
    assert res.converged
    # the Jacobian at the start also serves the final test and uncertainties
    assert len(jacobians) == 1


def test_biexp_error_cases():
    t = np.linspace(0.0, 1e-5, 100)
    with pytest.raises(NumericalError):
        fit_biexponential(TimeTrace(t, np.full(100, 3.3), "dimensionless"))
    with pytest.raises(InvalidInputError):
        fit_biexponential(TimeTrace(t[:5], np.exp(-t[:5]), "dimensionless"))


# ---------------------------------------------------------------------------
# variable projection of the exponential fits


def exponential_case(name):
    """(t, y, k, offset) of one lifetime fit the package makes."""
    if name.startswith("tcspc"):
        decay, _ = tcspc_decay(seed=3)
        i_peak = int(np.argmax(decay.y))
        return decay.t[i_peak:] - decay.t[i_peak], decay.y[i_peak:], int(name[-1]), False
    if name == "biexp":
        trace, _ = biexp_trepr(noise_rms=0.005, seed=4)
        return trace.t, trace.y, 2, False
    matrix, _ = rank2_tas(noise_frac=0.01, seed=0)
    profile = np.linalg.svd(matrix.delta_a, full_matrices=False)[2][0]
    return matrix.delays - matrix.delays[0], profile, 1, True


def column_loop_jacobian(resid, p):
    """Reference: central differences one parameter at a time."""
    J = np.empty((len(resid(p)), len(p)))
    for j in range(len(p)):
        h = max(1e-6 * abs(p[j]), 1e-10)
        pp = p.copy()
        pm = p.copy()
        pp[j] += h
        pm[j] -= h
        J[:, j] = (resid(pp) - resid(pm)) / (2.0 * h)
    return J


@pytest.mark.parametrize("name", ["tcspc1", "tcspc2", "tcspc3", "biexp", "tas"])
def test_projection_jacobian_matches_central_differences(name):
    t, y, k, offset = exponential_case(name)
    start = np.log(fitting._spread_rates(fitting._pencil_rates(t, y, k, offset), 2.0))
    optimum = fitting._fit_exponentials(t, y, k, offset).params[-k:]
    projection = fitting._ExpProjection(t, y, offset)
    resid = fitting._residual_fn(projection.fitted, y)
    for log_rates in (start, optimum):
        exact = projection.jacobian(log_rates)
        numeric = column_loop_jacobian(resid, log_rates)
        assert exact.shape == (len(t), k)
        # a component faster than a channel (TCSPC k = 3 at its optimum)
        # has a column of zeros, which the floor covers
        floor = 1e-12 * np.linalg.norm(numeric)
        for j in range(k):
            assert (np.linalg.norm(exact[:, j] - numeric[:, j])
                    <= 1e-6 * max(np.linalg.norm(numeric[:, j]), floor)), (name, j)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_degenerate_exponential_basis_is_handled():
    t, y, k, _ = exponential_case("biexp")
    reference = fitting._fit_exponentials(t, y, k)
    for log_rates in (np.array([12.9, 12.9]),                          # equal rates
                      np.array([fitting.MAX_LOG_RATE + 5.0, 12.9])):   # clamped rate
        projection = fitting._ExpProjection(t, y, False)
        fitted = projection.fitted(log_rates)
        jac = projection.jacobian(log_rates)
        assert np.all(np.isfinite(fitted)) and np.all(np.isfinite(jac))
        # the minimum-norm least-squares fit, as lstsq gives it
        basis = fitting._exp_basis(t, log_rates, False)
        assert np.allclose(fitted, basis @ np.linalg.lstsq(basis, y, rcond=None)[0],
                           rtol=0, atol=1e-12)
    # an equal-rate start is spread off the saddle and reaches the optimum
    res = fitting._fit_exponentials(t, y, k, rates0=(3e5, 3e5))
    assert res.converged
    assert np.allclose(res.params, reference.params, rtol=1e-6)
    # a clamped component stays at its clamp (its column has no derivative)
    # and absorbs the first sample; the other is the fit of the rest
    res = fitting._fit_exponentials(t, y, k, rates0=(np.exp(fitting.MAX_LOG_RATE + 5.0), 3e5))
    rest = fitting._fit_exponentials(t[1:], y[1:], 1)
    assert res.params[2] == fitting.MAX_LOG_RATE + 5.0
    assert res.params[3] == pytest.approx(rest.params[1], rel=1e-6)
    assert res.residual_norm == pytest.approx(rest.residual_norm, rel=1e-9)


def reference_projection(t, y, offset, log_rates):
    """Oracle: fitted values and projected-residual Jacobian from column-major
    arrays, U kept rather than U^T, as _ExpProjection first computed them."""
    rates = np.exp(np.minimum(log_rates, fitting.MAX_LOG_RATE))
    with np.errstate(over="ignore"):
        basis = np.exp(-np.outer(t, rates))
    if offset:
        basis = np.column_stack([basis, np.ones(len(t))])
    u, s, vt = np.linalg.svd(basis, full_matrices=False)
    keep = s > np.finfo(float).eps * max(basis.shape) * s[0]
    u, s, vt = u[:, keep], s[keep], vt[keep]
    coef = u.T @ y
    c, fitted = vt.T @ (coef / s), u @ coef
    k = len(log_rates)
    d = -(basis[:, :k] * t[:, None]) * rates
    pinv_t = u @ (vt[:, :k] / s[:, None])    # columns (Phi^+)^T e_j
    return fitted, (d - u @ (u.T @ d)) * c[:k] - pinv_t * (d.T @ (fitted - y))


def reference_pencil_rates(t, y, k, offset):
    """Oracle: the matrix pencil from the SVD of the Hankel matrix's
    triangular factor R, which shares the Hankel's right singular vectors."""
    grid = np.linspace(t[0], t[-1], len(t))
    dt = grid[1] - grid[0]
    samples = np.interp(grid, t, y)
    if offset:
        samples = np.diff(samples)
    width = min(fitting.PENCIL_WIDTH, (len(samples) - 1) // 2)
    hankel = np.lib.stride_tricks.sliding_window_view(samples, width + 1)
    v = np.linalg.svd(np.linalg.qr(hankel, mode="r"))[2][:k].T
    poles = np.linalg.eigvals(np.linalg.pinv(v[:-1]) @ v[1:])
    rates = -np.log(np.abs(poles)) / dt
    return np.clip(rates, 0.1 / (t[-1] - t[0]), 10.0 / dt)


def relative_frobenius(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


@pytest.mark.parametrize("name", ["tcspc1", "tcspc2", "tcspc3", "biexp", "tas"])
def test_component_major_fit_matches_the_column_major_oracle(name):
    t, y, k, offset = exponential_case(name)
    pencil = fitting._pencil_rates(t, y, k, offset)
    assert np.allclose(np.sort(pencil), np.sort(reference_pencil_rates(t, y, k, offset)),
                       rtol=1e-9, atol=0.0)
    start = np.log(fitting._spread_rates(pencil, 2.0))
    optimum = fitting._fit_exponentials(t, y, k, offset).params[-k:]
    points = [start, optimum]
    if name == "biexp":    # the degenerate points of test_degenerate_exponential_basis_is_handled
        points += [np.array([12.9, 12.9]), np.array([fitting.MAX_LOG_RATE + 5.0, 12.9])]
    for log_rates in points:
        projection = fitting._ExpProjection(t, y, offset)
        fitted, jac = reference_projection(t, y, offset, log_rates)
        assert relative_frobenius(projection.fitted(log_rates), fitted) <= 1e-13, (name, log_rates)
        assert relative_frobenius(projection.jacobian(log_rates), jac) <= 1e-13, (name, log_rates)


@pytest.mark.parametrize("offset", [0.0, 0.3])
@pytest.mark.parametrize("amplitudes", [(1.0, 1.0, 1.0), (1.0, 1e-2, 1e-3), (1.0, 1e-3, 1e-4)])
def test_pencil_recovers_weak_components(amplitudes, offset):
    # The pencil's subspace comes from the Gram matrix H^T H, which squares
    # the condition number of the Hankel matrix H: taken alone, its
    # eigenvectors put these rates up to 770% off.  One subspace-iteration
    # step through H brings them to within 5e-8, as a QR of H does (1.1e-7).
    truth = np.array([2.2e9, 2.7e8, 3e7])
    t = np.linspace(0.0, 25e-9, 2048)
    y = np.exp(-np.outer(t, truth)) @ np.array(amplitudes) + offset
    rates = fitting._pencil_rates(t, y, 3, offset != 0.0)
    assert np.all(np.abs(np.sort(rates)[::-1] / truth - 1.0) <= 1e-6), rates


def test_explicit_start_is_kept_unless_rates_coincide(monkeypatch):
    t, y, k, _ = exponential_case("biexp")
    starts = []
    minimize = fitting.nlls_minimize

    def recorded(model, jacobian, y, init, **kwargs):
        starts.append(np.exp(init))
        return minimize(model, jacobian, y, init, **kwargs)

    monkeypatch.setattr(fitting, "nlls_minimize", recorded)
    for rates0, expected in (((2e5, 3e5), (3e5, 2e5)),                # as given
                             ((3e5, 3e5 * (1 - 1e-12)), (3e5, 1.5e5)),  # equal to rounding
                             ((3e5, 3e5), (3e5, 1.5e5))):
        fitting._fit_exponentials(t, y, k, rates0=rates0)
        assert np.allclose(starts[-1], expected, rtol=1e-12), rates0


def test_exponential_fit_builds_one_basis_per_residual(monkeypatch):
    builds = [0]
    exp_basis = fitting._exp_basis
    minimize = fitting.nlls_minimize
    counts = {"model": [], "jacobian": []}

    def counted_basis(*args):
        builds[0] += 1
        return exp_basis(*args)

    def counted(fn, kind):
        def wrapper(p):
            before = builds[0]
            try:
                return fn(p)
            finally:
                counts[kind].append(builds[0] - before)
        return wrapper

    def traced_minimize(model, jacobian, y, init, **kwargs):
        return minimize(counted(model, "model"), counted(jacobian, "jacobian"), y, init, **kwargs)

    monkeypatch.setattr(fitting, "_exp_basis", counted_basis)
    monkeypatch.setattr(fitting, "nlls_minimize", traced_minimize)
    for name in ("tcspc1", "tcspc2", "tcspc3", "biexp", "tas"):
        t, y, k, offset = exponential_case(name)
        fitting._fit_exponentials(t, y, k, offset)
    assert len(counts["model"]) > len(counts["jacobian"]) > 0
    assert set(counts["model"]) == {1}
    assert set(counts["jacobian"]) == {0}


# ---------------------------------------------------------------------------
# maser burst


def noiseless_burst():
    trace, meta = maser_burst()
    fixed = {k: meta[k] for k in ("kappa_c", "gamma", "n_bar", "inversion0", "delta")}
    truth = np.array([meta["g_e"], meta["kappa_s"], meta["n_spins"]])
    return trace, fixed, truth


def test_maser_fit_recovers_parameters_from_perturbed_start():
    trace, fixed, truth = noiseless_burst()
    init = truth * np.array([1.3, 0.7, 1.3])
    res = fit_maser_parameters(trace, fixed, init)
    assert res.converged
    rel = np.abs(res.params / truth - 1.0)
    assert np.all(rel < 0.02), f"relative errors {rel}"


@pytest.mark.parametrize("index", [3, 184])    # in the rise; 3 us after the peak
def test_maser_fit_reads_a_negative_sample_by_its_magnitude(index):
    # Every window's log10 residual floors |y|: a sample of the wrong sign
    # is no -300 spike there, in the first window (index 3) or only in the
    # later ones (index 184).  The start (0.7, 0.7, 0.7) reaches the truth
    # as on the clean burst.
    trace, fixed, truth = noiseless_burst()
    y = trace.y.copy()
    y[index] = -y[index]
    res = fit_maser_parameters(TimeTrace(trace.t, y, "photons"), fixed, truth * 0.7)
    assert res.converged
    rel = np.abs(res.params / truth - 1.0)
    assert np.all(rel < 1e-9), f"relative errors {rel}"


def test_noisy_fit_matrix_does_not_fall_below_its_recorded_state():
    # Multiplicative noise sigma in {0.005, 0.02}, seeds 1-3, three starts:
    # 18 fits.  The noise floor of the residual is sqrt(600) sigma.  The
    # bounds are the state this matrix was recorded in (15 fits at the
    # floor, 3 off it that still report convergence: sigma 0.02 seed 3 at
    # 1.49 x floor from every start, where the truth start ends too); the
    # fit is not yet noise-aware, so they are a ratchet to tighten, not a
    # goal.
    _, fixed, truth = noiseless_burst()
    at_floor = falsely_converged = 0
    for sigma, seed in itertools.product((0.005, 0.02), (1, 2, 3)):
        trace, _ = maser_burst(noise_rms_log10=sigma, seed=seed)
        for start in ((1.0, 1.0, 1.0), (1.3, 0.7, 1.3), (0.7, 0.7, 0.7)):
            res = fit_maser_parameters(trace, fixed, truth * np.array(start))
            if res.residual_norm < 1.05 * np.sqrt(600) * sigma:
                at_floor += 1
            elif res.converged:
                falsely_converged += 1
    assert at_floor >= 15
    assert falsely_converged <= 3


def test_device_matrix_does_not_fall_below_its_recorded_state():
    # 30 devices near the canonical one: g_e, kappa_s, N and kappa_c each
    # scaled by 10^U(-0.15, 0.15), drawn once in that order; kappa_c is
    # held at its true value and every fit starts from BURST_DEFAULTS, the
    # CLI's default start.  Noiseless, a fit is right within 1e-6 of the
    # truth; at log10 noise 0.005 (device i takes seed i + 1) it is right
    # at the noise floor, 1.05 sqrt(600) sigma.  The bounds are the state
    # this matrix was recorded in (30 and 27 right, no wrong fit that
    # reports convergence), a ratchet to tighten.
    rng = np.random.default_rng(7)
    factors = [10.0 ** rng.uniform(-0.15, 0.15, 4) for _ in range(30)]
    start = np.array([BURST_DEFAULTS[k] for k in ("g_e", "kappa_s", "n_spins")])
    right = {0.0: 0, 0.005: 0}
    falsely_converged = 0
    for sigma, (i, scale) in itertools.product(right, enumerate(factors)):
        device = {k: BURST_DEFAULTS[k] * s
                  for k, s in zip(("g_e", "kappa_s", "n_spins", "kappa_c"), scale)}
        trace, meta = maser_burst(params=device, noise_rms_log10=sigma, seed=i + 1)
        fixed = {k: meta[k] for k in ("kappa_c", "gamma", "n_bar", "inversion0", "delta")}
        truth = np.array([meta["g_e"], meta["kappa_s"], meta["n_spins"]])
        res = fit_maser_parameters(trace, fixed, start)
        if sigma == 0.0:
            ok = np.all(np.abs(res.params / truth - 1.0) < 1e-6)
        else:
            ok = res.residual_norm < 1.05 * np.sqrt(len(trace.t)) * sigma
        right[sigma] += bool(ok)
        falsely_converged += bool(not ok and res.converged)
    assert right[0.0] >= 30
    assert right[0.005] >= 27
    assert falsely_converged == 0


def test_zero_coupling_cannot_track_a_burst():
    """With g_e = 0 the photon equation decouples from the spins, so one
    trajectory (exponential relaxation to n_bar) is the best any choice
    of kappa_s and n_spins can do.  Its log-space residual against a
    real burst must dwarf the converged fit's."""
    trace, meta = maser_burst(noise_rms_log10=0.02, seed=1)
    fixed = {k: meta[k] for k in ("kappa_c", "gamma", "n_bar", "inversion0", "delta")}
    truth = np.array([meta["g_e"], meta["kappa_s"], meta["n_spins"]])
    res = fit_maser_parameters(trace, fixed, truth)
    assert res.converged

    params = MaserSystemParams(
        g_e=0.0, kappa_c=fixed["kappa_c"], kappa_s=meta["kappa_s"],
        gamma=fixed["gamma"], delta=fixed["delta"],
        n_spins=meta["n_spins"], n_bar=fixed["n_bar"])
    init = MaserState(photon_number=fixed["n_bar"], coherence=0.0,
                      inversion=fixed["inversion0"], spin_correlation=0.0)
    flat = simulate_maser(params, init, (trace.t[0], trace.t[-1]), t_eval=trace.t)
    log_resid = (np.log10(np.maximum(flat.photon_number, 1e-300))
                 - np.log10(np.maximum(trace.y, 1e-300)))
    assert float(np.linalg.norm(log_resid)) >= 10.0 * res.residual_norm


def fail_integration(*args, **kwargs):
    raise IntegrationFailureError("forced", last_time=0.0)


def test_failed_solve_gives_penalty_row_and_zero_jacobian(monkeypatch):
    trace, fixed, truth = noiseless_burst()
    monkeypatch.setattr(cqed, "simulate_maser", fail_integration)
    burst = fitting._BurstModel(fixed, trace.t)
    p = np.log10(truth)
    assert np.array_equal(burst.log_photons(p), np.full(len(trace.t), 300.0))
    assert np.array_equal(burst.log_jacobian(p), np.zeros((len(trace.t), 3)))


def test_lm_started_at_the_noiseless_maser_truth_is_converged():
    # From the truth every trial is rejected by rounding, and at a cost of
    # rounding size the linearized decrease is no small fraction of it;
    # the Gauss-Newton step from the start is below REL_PARAM_TOL.
    trace, fixed, truth = noiseless_burst()
    burst = fitting._BurstModel(fixed, trace.t)
    res = nlls_minimize(burst.log_photons, burst.log_jacobian, fitting._log10(trace.y),
                        np.log10(truth))
    assert res.converged
    assert res.residual_norm < 1e-9
    np.testing.assert_allclose(res.params, np.log10(truth), rtol=1e-12)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_maser_fit_survives_when_every_simulation_fails(monkeypatch):
    # every window sees only penalty rows and a zero Jacobian, so it
    # stalls unconverged at its start, and its cost stays finite (no
    # overflow warning)
    trace, fixed, truth = noiseless_burst()
    monkeypatch.setattr(cqed, "simulate_maser", fail_integration)
    res = fit_maser_parameters(trace, fixed, truth)
    assert not res.converged
    assert np.all(np.isfinite(res.params))


def test_maser_fit_jacobians_reuse_the_evaluated_solve(monkeypatch):
    # every Jacobian LM asks for is at a point it has just evaluated, so
    # no Jacobian makes a solve of its own
    trace, fixed, truth = noiseless_burst()
    counts = {"depth": 0, "jacobians": 0, "solves": 0, "solves_inside": 0}
    evaluated = set()
    log_jacobian = fitting._BurstModel.log_jacobian
    log_photons = fitting._BurstModel.log_photons
    simulate = cqed.simulate_maser

    def traced_jacobian(self, p):
        counts["jacobians"] += 1
        assert p.tobytes() in evaluated
        counts["depth"] += 1
        try:
            return log_jacobian(self, p)
        finally:
            counts["depth"] -= 1

    def traced_log_photons(self, p):
        evaluated.add(p.tobytes())
        return log_photons(self, p)

    def traced_solve(*args, **kwargs):
        counts["solves"] += 1
        counts["solves_inside"] += counts["depth"] > 0
        return simulate(*args, **kwargs)

    monkeypatch.setattr(fitting._BurstModel, "log_jacobian", traced_jacobian)
    monkeypatch.setattr(fitting._BurstModel, "log_photons", traced_log_photons)
    monkeypatch.setattr(cqed, "simulate_maser", traced_solve)
    res = fit_maser_parameters(trace, fixed, truth * np.array([1.3, 0.7, 1.3]))
    assert np.all(np.abs(res.params / truth - 1.0) < 0.02)
    assert counts["jacobians"] >= 2
    assert counts["solves"] >= 2
    assert counts["solves_inside"] == 0


def test_maser_fit_solves_every_burst_through_the_burst_model(monkeypatch):
    # one path: every integration of a fit is a simulate_maser call that
    # _BurstModel.solve makes
    trace, fixed, truth = noiseless_burst()
    inside = {"solve": 0, "simulate": 0}
    calls = {"simulate": 0, "integrate": 0}
    solve = fitting._BurstModel.solve
    simulate = cqed.simulate_maser
    integrate = cqed._integrate_rk45

    def traced_solve(self, p):
        inside["solve"] += 1
        try:
            return solve(self, p)
        finally:
            inside["solve"] -= 1

    def traced_simulate(*args, **kwargs):
        assert inside["solve"] == 1
        calls["simulate"] += 1
        inside["simulate"] += 1
        try:
            return simulate(*args, **kwargs)
        finally:
            inside["simulate"] -= 1

    def traced_integrate(*args):
        assert inside["simulate"] == 1
        calls["integrate"] += 1
        return integrate(*args)

    monkeypatch.setattr(fitting._BurstModel, "solve", traced_solve)
    monkeypatch.setattr(cqed, "simulate_maser", traced_simulate)
    monkeypatch.setattr(cqed, "_integrate_rk45", traced_integrate)
    res = fit_maser_parameters(trace, fixed, truth * np.array([0.7, 1.3, 0.7]))
    assert res.converged
    assert np.all(np.abs(res.params / truth - 1.0) < 0.02)
    assert calls["integrate"] == calls["simulate"] > 0


@pytest.mark.parametrize("start", [(0.7, 0.7), (0.7, 1.3), (1.3, 0.7), (1.3, 1.3)],
                         ids=lambda s: "ks{}-n{}".format(*s))
def test_no_parameter_point_is_solved_twice_in_a_fit(monkeypatch, start):
    # The four (kappa_s, N) start classes of acceptance 08.  Each window
    # solves its start point again on its own, longer grid, so a solve is
    # keyed on its point and the end of its span.  Nor is a sensitivity
    # pass made twice.
    trace, fixed, truth = noiseless_burst()
    solved, passes = [], []
    simulate = cqed.simulate_maser
    sensitivity = cqed._log_photon_sensitivity

    def point(params, t_end):
        return params.g_e, params.kappa_s, params.n_spins, t_end

    def counted_solve(params, init, t_span, **kwargs):
        solved.append(point(params, t_span[1]))
        return simulate(params, init, t_span, **kwargs)

    def counted_sensitivity(traj, *args):
        passes.append(point(traj.params, traj.t[-1]))
        return sensitivity(traj, *args)

    monkeypatch.setattr(cqed, "simulate_maser", counted_solve)
    monkeypatch.setattr(cqed, "_log_photon_sensitivity", counted_sensitivity)
    fit_maser_parameters(trace, fixed, truth * np.array([0.7, *start]))
    for name, made in (("solves", solved), ("sensitivity passes", passes)):
        repeated = {p: n for p, n in collections.Counter(made).items() if n > 1}
        assert not repeated, f"{len(made)} {name}, repeated: {repeated}"


def test_fit_leaves_scipy_integrate_unloaded(tmp_path):
    package = Path(fitting.__file__).resolve().parent
    scipy_import = re.compile(r"^\s*(?:from|import)\s+scipy(?:\.|\s|$)", re.MULTILINE)
    for path in package.glob("*.py"):
        assert not scipy_import.search(path.read_text()), path
    script = (
        "import sys\n"
        "import numpy as np\n"
        "from maserkit.fitting import fit_maser_parameters\n"
        "from maserkit.synthetic import maser_burst\n"
        "trace, meta = maser_burst()\n"
        "fixed = {k: meta[k] for k in ('kappa_c', 'gamma', 'n_bar', 'inversion0', 'delta')}\n"
        "truth = np.array([meta['g_e'], meta['kappa_s'], meta['n_spins']])\n"
        "fit_maser_parameters(trace, fixed, truth)\n"
        "loaded = [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
        "assert not loaded, loaded\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(package.parent), *filter(None, [os.environ.get("PYTHONPATH")])]))
    done = subprocess.run([sys.executable, "-c", script], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr


def test_maser_fit_validates_inputs():
    trace, fixed, _ = noiseless_burst()
    with pytest.raises(InvalidInputError):
        fit_maser_parameters(trace, {"kappa_c": 1.0}, (1e7, 1e6, 1e14))
    with pytest.raises(InvalidInputError):
        fit_maser_parameters(trace, fixed, (-1e7, 1e6, 1e14))
    with pytest.raises(InvalidInputError):    # the held start state |inversion| > 1
        fit_maser_parameters(trace, dict(fixed, inversion0=1.5), (1e7, 1e6, 1e14))
