import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from maserkit import cqed, fitting
from maserkit.errors import IntegrationFailureError, InvalidInputError, NumericalError
from maserkit.fitting import (
    FitProblem,
    fit_biexponential,
    fit_maser_parameters,
    nlls_minimize,
)
from maserkit.cqed import MaserState, MaserSystemParams, simulate_maser
from maserkit.synthetic import BURST_DEFAULTS, biexp_trepr, maser_burst, rank2_tas, tcspc_decay
from maserkit.trace import TimeTrace


def linear_problem(slope=2.0, intercept=-1.0, init=(0.0, 0.0)):
    t = np.linspace(0.0, 1.0, 30)
    y = intercept + slope * t
    trace = TimeTrace(t, y, "dimensionless")

    def model(p):
        return p[0] + p[1] * t

    return FitProblem(model=model, data=trace, init=np.asarray(init, dtype=float),
                      loss_space="linear"), (intercept, slope)


def test_linear_model_converges_immediately():
    problem, truth = linear_problem()
    res = nlls_minimize(problem)
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
    trace = TimeTrace(t, y, "dimensionless")

    def model(p):
        return p[0] * np.exp(-p[1] * t) + p[2]

    init = np.array([0.3, 2e5, 0.0])
    res1 = nlls_minimize(FitProblem(model=model, data=trace, init=init,
                                    loss_space="linear"))
    res2 = nlls_minimize(FitProblem(model=model, data=trace, init=init,
                                    loss_space="linear"))
    assert np.array_equal(res1.params, res2.params)
    assert res1.iterations == res2.iterations


def test_fit_scale_equivariance():
    """Scaling the data scales the recovered amplitude, nothing else."""
    t = np.linspace(0.0, 1e-5, 120)
    y = 0.7 * np.exp(-2.5e5 * t)

    def run(scale):
        trace = TimeTrace(t, scale * y, "dimensionless")

        def model(p):
            return p[0] * np.exp(-p[1] * t)

        return nlls_minimize(FitProblem(
            model=model, data=trace,
            init=np.array([0.4 * scale, 1.5e5]), loss_space="linear"))

    a = run(1.0)
    b = run(1e6)
    assert b.params[0] / a.params[0] == pytest.approx(1e6, rel=1e-8)
    assert b.params[1] == pytest.approx(a.params[1], rel=1e-8)


def test_bounds_are_respected():
    problem, _ = linear_problem()
    bounded = FitProblem(model=problem.model, data=problem.data,
                         init=problem.init, loss_space="linear",
                         bounds=((-0.5, 0.5), (-10.0, 10.0)))
    res = nlls_minimize(bounded)
    assert -0.5 <= res.params[0] <= 0.5


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


def test_lm_stalled_at_the_optimum_is_converged(monkeypatch):
    # From the optimum of a biexponential every trial step is rejected by
    # rounding; the linearized-decrease test must report convergence
    # without the Nelder-Mead walk.  The variable-projection optimum and
    # the optimum of this 4-parameter model agree only to rounding, so the
    # start is the fixed point of LM on the model itself, reached by
    # rerunning it from its own result until a run leaves its start as is.
    import scipy.optimize

    def no_simplex(*args, **kwargs):
        raise AssertionError("Nelder-Mead ran")

    monkeypatch.setattr(scipy.optimize, "minimize", no_simplex)
    clean, _ = biexp_trepr()
    trace, _ = biexp_trepr(noise_rms=0.01 * float(np.max(np.abs(clean.y))), seed=3)
    t = trace.t

    def model(p):
        return p[0] * np.exp(-np.exp(p[2]) * t) + p[1] * np.exp(-np.exp(p[3]) * t)

    start = fitting._fit_exponentials(t, trace.y, 2).params
    for _ in range(5):
        res = nlls_minimize(FitProblem(model=model, data=trace, init=start))
        if np.array_equal(res.params, start):    # no trial step was accepted
            break
        start = res.params
    else:
        pytest.fail("LM still moved its start after 5 reruns")
    assert res.converged


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


@pytest.mark.parametrize("name", ["tcspc1", "tcspc2", "tcspc3", "biexp", "tas"])
def test_projection_jacobian_matches_central_differences(name):
    t, y, k, offset = exponential_case(name)
    start = np.log(fitting._spread_rates(fitting._pencil_rates(t, y, k, offset), 2.0))
    optimum = fitting._fit_exponentials(t, y, k, offset).params[-k:]
    projection = fitting._ExpProjection(t, y, offset)
    resid = fitting._residual_fn(FitProblem(model=projection.fitted, init=start,
                                            data=TimeTrace(t, y, "dimensionless")))
    for log_rates in (start, optimum):
        exact = projection.jacobian(log_rates)
        numeric = fitting._numeric_jacobian(resid, log_rates)
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


def test_explicit_start_is_kept_unless_rates_coincide(monkeypatch):
    t, y, k, _ = exponential_case("biexp")
    starts = []
    minimize = fitting.nlls_minimize

    def recorded(problem, **kwargs):
        starts.append(np.exp(problem.init))
        return minimize(problem, **kwargs)

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

    def traced_minimize(problem, **kwargs):
        problem.model = counted(problem.model, "model")
        problem.jacobian = counted(problem.jacobian, "jacobian")
        return minimize(problem, **kwargs)

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


def test_growth_rate_inverse_round_trips():
    base = BURST_DEFAULTS
    worst = 0.0
    for fg, fk, fi in itertools.product((0.7, 1.0, 1.3), repeat=3):
        g_e, kappa_s, inv0 = fg * base["g_e"], fk * base["kappa_s"], fi * base["inversion0"]
        rate = fitting._linear_growth_rate(g_e, base["kappa_c"], kappa_s, base["gamma"], inv0)
        back = fitting._coupling_for_growth_rate(rate, base["kappa_c"], kappa_s,
                                                 base["gamma"], inv0)
        worst = max(worst, abs(back / g_e - 1.0))
    assert worst < 1e-12


def test_growth_rate_inverse_outside_its_range_is_none():
    kc, ks, gamma = BURST_DEFAULTS["kappa_c"], BURST_DEFAULTS["kappa_s"], BURST_DEFAULTS["gamma"]
    inverse = fitting._coupling_for_growth_rate
    assert inverse(0.0, kc, ks, gamma, 0.52) is None
    assert inverse(-1e6, kc, ks, gamma, 0.52) is None
    assert inverse(1e7, kc, ks, gamma, 0.0) is None
    assert inverse(1e3, kc, ks, gamma, 0.52) is None      # root above 6 x rate
    assert inverse(1e12, kc, ks, gamma, 10.0) is None     # root below rate / 6
    assert inverse(1e9, kc, ks, gamma, 0.52) is not None


def test_maser_fit_recovers_parameters_from_perturbed_start():
    trace, meta = maser_burst()
    truth = np.array([meta["g_e"], meta["kappa_s"], meta["n_spins"]])
    fixed = {k: meta[k] for k in ("kappa_c", "gamma", "n_bar", "inversion0", "delta")}
    init = truth * np.array([1.3, 0.7, 1.3])
    res = fit_maser_parameters(trace, fixed, init)
    assert res.converged
    rel = np.abs(res.params / truth - 1.0)
    assert np.all(rel < 0.02), f"relative errors {rel}"


def test_maser_fit_in_linear_loss_recovers_the_truth():
    # the acceptance-08 start (0.7, 0.7, 0.7) on the loss_space="linear"
    # path, which skips the smoothed stage-4 fallback
    trace, meta = maser_burst()
    truth = np.array([meta["g_e"], meta["kappa_s"], meta["n_spins"]])
    fixed = {k: meta[k] for k in ("kappa_c", "gamma", "n_bar", "inversion0", "delta")}
    res = fit_maser_parameters(trace, fixed, truth * 0.7, loss_space="linear")
    assert res.converged
    rel = np.abs(res.params / truth - 1.0)
    assert np.all(rel < 1e-6), f"relative errors {rel}"


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


def test_numeric_jacobian_equals_column_loop():
    t = np.linspace(0.0, 2.0, 40)
    basis = np.vstack([np.ones_like(t), t, t * t])
    problem = FitProblem(
        model=lambda p: p[0] * basis[0] + p[1] * basis[1] + p[2] * basis[2],
        data=TimeTrace(t, 1.0 - 0.5 * t + 0.25 * t * t, "dimensionless"),
        init=np.zeros(3), loss_space="linear")
    resid = fitting._residual_fn(problem)
    p = np.array([0.7, -3e-12, 2.5])    # one step on the 1e-10 floor
    assert np.array_equal(fitting._numeric_jacobian(resid, p), column_loop_jacobian(resid, p))


def noiseless_burst():
    trace, meta = maser_burst()
    fixed = {k: meta[k] for k in ("kappa_c", "gamma", "n_bar", "inversion0", "delta")}
    truth = np.array([meta["g_e"], meta["kappa_s"], meta["n_spins"]])
    return trace, fixed, truth


def fail_integration(*args, **kwargs):
    raise IntegrationFailureError("forced", last_time=0.0)


def test_failed_solve_gives_penalty_row_and_zero_jacobian(monkeypatch):
    trace, fixed, truth = noiseless_burst()
    monkeypatch.setattr(cqed, "_solve_burst", fail_integration)
    burst = fitting._BurstModel(fixed, trace.t)
    p = np.log10(truth)
    assert np.array_equal(burst.photons(p), np.full(len(trace.t), 1e300))
    assert np.array_equal(burst.log_jacobian(p), np.zeros((len(trace.t), 3)))
    resid = fitting._residual_fn(FitProblem(model=burst.photons, data=trace, init=p,
                                            loss_space="log10"))
    assert np.array_equal(resid(p), 300.0 - np.log10(trace.y))


def test_smoothed_jacobian_is_the_moving_average_of_the_raw_columns():
    trace, fixed, truth = noiseless_burst()
    burst = fitting._BurstModel(fixed, trace.t)
    width = fitting._envelope_width(trace.t)
    model, jacobian = burst.smoothed(width)
    p = np.log10(truth * np.array([1.001, 0.998, 1.002]))
    raw = burst.log_jacobian(p)
    smooth = jacobian(p)
    for j in range(3):
        assert np.array_equal(smooth[:, j], fitting._moving_average(raw[:, j], width))
    # and it is the derivative of the smoothed model
    for j in range(3):
        d = 1e-8 * abs(p[j]) * np.eye(3)[j]
        reference = (model(p + d) - model(p - d)) / (2 * d[j])
        assert np.linalg.norm(smooth[:, j] - reference) < 1e-4 * np.linalg.norm(reference)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_maser_fit_survives_when_every_simulation_fails(monkeypatch):
    # the kappa_s scan then has no member to re-pin and must skip its
    # second solve; the polish sees only penalty rows and stalls, and
    # the smoothed stage's cost stays finite (no overflow warning)
    trace, fixed, truth = noiseless_burst()
    monkeypatch.setattr(cqed, "simulate_maser", fail_integration)
    monkeypatch.setattr(cqed, "_solve_burst", fail_integration)
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
    photons = fitting._BurstModel.photons
    solve_burst = cqed._solve_burst
    single = cqed.simulate_maser

    def traced_jacobian(self, p):
        counts["jacobians"] += 1
        assert p.tobytes() in evaluated
        counts["depth"] += 1
        try:
            return log_jacobian(self, p)
        finally:
            counts["depth"] -= 1

    def traced_photons(self, p):
        evaluated.add(p.tobytes())
        return photons(self, p)

    def traced_solve(*args, **kwargs):
        counts["solves"] += 1
        counts["solves_inside"] += counts["depth"] > 0
        return solve_burst(*args, **kwargs)

    def traced_single(*args, **kwargs):
        counts["solves_inside"] += counts["depth"] > 0
        return single(*args, **kwargs)

    monkeypatch.setattr(fitting._BurstModel, "log_jacobian", traced_jacobian)
    monkeypatch.setattr(fitting._BurstModel, "photons", traced_photons)
    monkeypatch.setattr(cqed, "_solve_burst", traced_solve)
    monkeypatch.setattr(cqed, "simulate_maser", traced_single)
    res = fit_maser_parameters(trace, fixed, truth * np.array([1.3, 0.7, 1.3]))
    assert np.all(np.abs(res.params / truth - 1.0) < 0.02)
    assert counts["jacobians"] >= 2
    assert counts["solves"] >= 2
    assert counts["solves_inside"] == 0


def test_fit_leaves_scipy_integrate_unloaded(tmp_path):
    package = Path(fitting.__file__).resolve().parent
    for path in package.glob("*.py"):
        text = path.read_text()
        assert "scipy.integrate" not in text and "import integrate" not in text, path
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


def reflect_moving_average(x, w):
    """Reference: reflect-padded moving average over an odd width w."""
    half = w // 2
    pad = np.r_[x[half:0:-1], x, x[-2:-half - 2:-1]]
    return np.convolve(pad, np.ones(w) / w, mode="valid")


@pytest.mark.parametrize("t_max", [15e-6, 12.5e-6])    # odd and even raw widths
def test_smoothing_helper_is_bit_identical_for_both_callers(t_max):
    trace, _ = maser_burst(t_max=t_max, noise_rms_log10=0.02, seed=3)
    t, y = trace.t, trace.y
    raw = max(3, int(round(fitting.ENVELOPE_SMOOTH_SPAN / (t[1] - t[0]))))
    w = raw if raw % 2 == 1 else raw + 1

    expected = reflect_moving_average(np.log10(np.maximum(y, 1e-300)), w)
    assert np.array_equal(fitting._smooth_log10(y, raw), expected)

    ln = np.log(np.maximum(y, 1e-300))
    smooth = reflect_moving_average(ln, w)
    i_peak = int(np.argmax(ln))
    sel = (t > t[i_peak] + fitting.ENVELOPE_FIT_START) & (
        t < min(t[i_peak] + fitting.ENVELOPE_FIT_STOP, t[-1]))
    slope = float(np.polyfit(t[sel], smooth[sel], 1)[0])
    assert fitting._measure_envelope_slope(t, y) == slope


def test_maser_fit_validates_inputs():
    trace, meta = maser_burst()
    fixed = {k: meta[k] for k in ("kappa_c", "gamma", "n_bar", "inversion0", "delta")}
    with pytest.raises(InvalidInputError):
        fit_maser_parameters(trace, {"kappa_c": 1.0}, (1e7, 1e6, 1e14))
    with pytest.raises(InvalidInputError):
        fit_maser_parameters(trace, fixed, (-1e7, 1e6, 1e14))
