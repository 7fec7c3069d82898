import dataclasses
import itertools
import json
import math
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from scipy.integrate import solve_ivp

import maserkit
from maserkit import cli, cqed, fitting
from maserkit.cqed import (
    _rhs_coefficients,
    MaserState,
    MaserSystemParams,
    cooperativity,
    count_oscillations,
    extract_rabi_frequency,
    predicted_rabi,
    simulate_maser,
)
from maserkit.errors import (
    IntegrationFailureError,
    InvalidInputError,
    KernelBuildError,
    MaserkitError,
    NoOscillationError,
    NumericalError,
    UnitMismatchError,
)
from maserkit.spectro import write_matrix_csv
from maserkit.synthetic import biexp_trepr, damped_cosine_burst, rank2_tas, tcspc_decay
from maserkit.trace import TimeTrace, write_trace_csv
from maserkit.units import TWO_PI, angular_to_ordinary

REF_PARAMS = MaserSystemParams(
    g_e=TWO_PI * 2.3e6,
    kappa_c=2.517e6,
    kappa_s=TWO_PI * 0.29e6,
    gamma=0.2e6,
    delta=0.0,
    n_spins=9.7e14,
    n_bar=4097.0,
)
REF_INIT = MaserState(photon_number=4097.0, coherence=0.0,
                      inversion=0.52, spin_correlation=0.0)


def lossless_params(**overrides):
    kw = dict(g_e=TWO_PI * 2.3e6, kappa_c=0.0, kappa_s=0.0, gamma=0.0,
              delta=0.0, n_spins=9.7e14, n_bar=0.0)
    kw.update(overrides)
    return MaserSystemParams(**kw)


def scaled_state(photon_number, coherence, inversion, spin_correlation, n_spins):
    """The N-scaled state vector that both integrators evolve."""
    return np.array([photon_number / n_spins, coherence.real / n_spins,
                     coherence.imag / n_spins, inversion, spin_correlation / n_spins])


def test_rhs_conserves_excitation_without_losses():
    params = lossless_params()
    y = scaled_state(3e13, 1e12 + 4e11j, 0.3, 2e13, params.n_spins)
    dn, _, _, dsz, _ = _scaled_rhs(0.0, y, _rhs_coefficients(params))
    # d/dt (n/N + sz/2) = 0: <a+a> + (N/2) <Sz> is conserved
    assert abs(dn + 0.5 * dsz) < 1e-12 * (abs(dn) + 1.0 / params.n_spins)


def test_rhs_decouples_at_zero_coupling():
    params = MaserSystemParams(g_e=0.0, kappa_c=2.5e6, kappa_s=1.8e6,
                               gamma=2e5, delta=0.0, n_spins=1e14, n_bar=4097.0)
    y = scaled_state(1e4, 3e3 + 2e3j, 0.4, 5e3, params.n_spins)
    n, cr, ci, sz, ss = y
    dn, dcr, dci, dsz, dss = _scaled_rhs(0.0, y, _rhs_coefficients(params))
    assert dn == pytest.approx(
        -params.kappa_c * n + params.kappa_c * params.n_bar / params.n_spins, rel=1e-12)
    assert dsz == pytest.approx(-params.gamma * sz, rel=1e-12)
    assert dss == pytest.approx(-(params.gamma + params.kappa_s) * ss, rel=1e-12)
    half = 0.5 * (params.kappa_c + params.gamma + params.kappa_s)
    assert dcr == pytest.approx(-half * cr, rel=1e-12)
    assert dci == pytest.approx(-half * ci, rel=1e-12)


def test_rhs_thermal_state_is_fixed_point_at_zero_coupling():
    params = MaserSystemParams(g_e=0.0, kappa_c=2.5e6, kappa_s=1.8e6,
                               gamma=2e5, delta=0.0, n_spins=1e14, n_bar=4097.0)
    y = scaled_state(4097.0, 0j, 0.0, 0.0, params.n_spins)
    dn, dcr, dci, dsz, dss = _scaled_rhs(0.0, y, _rhs_coefficients(params))
    # the decay and the thermal feed cancel to rounding
    assert abs(dn) < 1e-14 * params.kappa_c * y[0]
    assert dcr == 0.0
    assert dci == 0.0
    assert dsz == 0.0
    assert dss == 0.0


def test_simulation_conserves_total_excitation_when_lossless():
    traj = simulate_maser(lossless_params(), REF_INIT, (0.0, 1e-5))
    total = traj.total_excitation()
    drift = np.max(np.abs(total - total[0])) / abs(total[0])
    assert drift < 1e-6


def test_zero_coupling_relaxes_to_thermal_state():
    params = MaserSystemParams(g_e=0.0, kappa_c=2.517e6, kappa_s=TWO_PI * 0.29e6,
                               gamma=0.2e6, delta=0.0, n_spins=9.7e14, n_bar=4097.0)
    slowest = min(params.kappa_c, params.gamma)
    t_end = 20.0 / slowest
    traj = simulate_maser(params, REF_INIT, (0.0, t_end), n_points=400)
    assert traj.photon_number[-1] == pytest.approx(4097.0, rel=1e-6)
    assert abs(traj.inversion[-1]) < 1e-6
    assert abs(traj.coherence[-1]) < 1e-6
    assert abs(traj.spin_correlation[-1]) < 1e-6


def test_zero_coupling_photon_relaxation_is_exponential():
    params = MaserSystemParams(g_e=0.0, kappa_c=2.0e6, kappa_s=0.0,
                               gamma=0.0, delta=0.0, n_spins=1e12, n_bar=1000.0)
    init = MaserState(photon_number=5000.0, coherence=0.0,
                      inversion=0.0, spin_correlation=0.0)
    traj = simulate_maser(params, init, (0.0, 3e-6), n_points=100)
    expected = 1000.0 + 4000.0 * np.exp(-params.kappa_c * traj.t)
    assert np.allclose(traj.photon_number, expected, rtol=1e-6)


def test_default_burst_shape():
    traj = simulate_maser(REF_PARAMS, REF_INIT, (0.0, 1.5e-5))
    i_pk = int(np.argmax(traj.photon_number))
    assert traj.photon_number[i_pk] == pytest.approx(2.6244e14, rel=1e-3)
    assert traj.t[i_pk] == pytest.approx(1.606e-6, abs=5e-8)
    # burst relaxes back toward the thermal level at late times
    assert traj.photon_number[-1] < 1e-3 * traj.photon_number[i_pk]


def test_burst_insensitive_to_tolerance_tightening():
    t_eval = np.linspace(0.0, 1.5e-5, 500)
    a = simulate_maser(REF_PARAMS, REF_INIT, (0.0, 1.5e-5), t_eval=t_eval)
    b = simulate_maser(REF_PARAMS, REF_INIT, (0.0, 1.5e-5), t_eval=t_eval, rtol=1e-9)
    pk_a, pk_b = np.max(a.photon_number), np.max(b.photon_number)
    assert pk_a == pytest.approx(pk_b, rel=1e-4)


def scipy_rk45(params, init, t_span, t_eval):
    """Reference: scipy's RK45 on the same RHS and tolerances; (photon number, nfev)."""
    N = params.n_spins
    y0 = scaled_state(init.photon_number, complex(init.coherence), init.inversion,
                      init.spin_correlation, N)
    sol = solve_ivp(_scaled_rhs, t_span, y0, method="RK45", t_eval=t_eval,
                    rtol=cqed.DEFAULT_RTOL, atol=cqed.DEFAULT_ATOL,
                    args=(_rhs_coefficients(params),))
    assert sol.success
    return sol.y[0] * N, sol.nfev


def test_simulation_takes_scipy_rk45_steps(monkeypatch):
    # Same method, controller and step sequence: exactly scipy's number of
    # RHS calls, as the integrator counts them.  The values agree to rounding
    # amplified by the burst: on the (1.3, 1, 0.7) corner a one-ulp change of
    # the initial inversion alone moves log10 n by 1e-8, so the bound sits
    # ten times above that and far below the method's own truncation error,
    # 8e-4 dex.
    calls = []
    integrate = cqed._integrate_rk45

    def counted(*args):
        record, states, rhs_calls = integrate(*args)
        calls.append(rhs_calls)
        return record, states, rhs_calls

    monkeypatch.setattr(cqed, "_integrate_rk45", counted)
    worst = 0.0
    for fg, fk, fn in itertools.product((0.7, 1.0, 1.3), repeat=3):
        params = dataclasses.replace(REF_PARAMS, g_e=fg * REF_PARAMS.g_e,
                                     kappa_s=fk * REF_PARAMS.kappa_s,
                                     n_spins=fn * REF_PARAMS.n_spins)
        calls.clear()
        traj = simulate_maser(params, REF_INIT, (0.0, 1.5e-5))
        ref, nfev = scipy_rk45(params, REF_INIT, (0.0, 1.5e-5), traj.t)
        assert calls == [nfev], (fg, fk, fn)
        worst = max(worst, np.max(np.abs(np.log10(traj.photon_number) - np.log10(ref))))
    assert worst < 1e-7


def test_interior_output_grid_integrates_from_span_start():
    t_eval = np.linspace(4e-6, 9e-6, 50)
    traj = simulate_maser(REF_PARAMS, REF_INIT, (0.0, 1.2e-5), t_eval=t_eval)
    ref, _ = scipy_rk45(REF_PARAMS, REF_INIT, (0.0, 1.2e-5), t_eval)
    assert np.array_equal(traj.t, t_eval)
    assert np.max(np.abs(np.log10(traj.photon_number) - np.log10(ref))) < 1e-7
    # outside the span, unsorted, not 1-D, empty, and a NaN that passes
    # the span and order checks
    for bad in ([1e-6, 2e-5], [2e-6, 1e-6], [[1e-6, 2e-6]], [], [math.nan, 1e-6]):
        with pytest.raises(InvalidInputError):
            simulate_maser(REF_PARAMS, REF_INIT, (0.0, 1.2e-5), t_eval=bad)


def never_integrate(*args):
    raise AssertionError("the integrator ran on refused input")


@pytest.mark.parametrize("kwargs", [
    {"rtol": math.nan}, {"atol": math.nan}, {"rtol": math.inf}, {"atol": math.inf},
    {"t_span": (0.0, math.inf)}, {"n_points": 1.5}, {"n_points": math.nan},
], ids=["rtol-nan", "atol-nan", "rtol-inf", "atol-inf", "span-end-inf", "n-points-fraction",
        "n-points-nan"])
def test_non_finite_tolerances_span_and_point_counts_are_refused(monkeypatch, kwargs):
    # rtol = nan or inf failed as an integration at t = 0, atol = inf returned
    # a negative photon number, an infinite span ran the whole step budget and
    # a fractional n_points was truncated
    monkeypatch.setattr(cqed, "_integrate_rk45", never_integrate)
    kwargs = {"t_span": (0.0, 1.5e-5), **kwargs}
    with pytest.raises(InvalidInputError):
        simulate_maser(REF_PARAMS, REF_INIT, **kwargs)


@pytest.mark.parametrize("overrides", [{"kappa_c": 1e308}, {"n_bar": 1e300}, {"g_e": 1e200}],
                         ids=["kappa_c", "n_bar", "g_e"])
def test_arithmetic_failure_is_an_integration_failure(overrides):
    # Each case overflows the first stage, so the initial step rule divides
    # by a zero step; the kernel refuses to start, before any step.
    params = dataclasses.replace(REF_PARAMS, **overrides)
    with pytest.raises(IntegrationFailureError, match="initial step size") as info:
        simulate_maser(params, REF_INIT, (0.0, 1.5e-5))
    assert info.value.last_time == 0.0


def test_stop_in_mid_span_carries_the_last_output_time_reached(monkeypatch):
    # The step budget runs out partway through the canonical burst; the
    # failure names the last output point at or before the time the solve
    # reached, which is the end of the last step the kernel recorded.
    records = []
    stalled = cqed._stalled

    def traced_stalled(t_eval, record, t0, message):
        records.append(bytes(record))
        return stalled(t_eval, record, t0, message)

    monkeypatch.setattr(cqed, "_stalled", traced_stalled)
    monkeypatch.setattr(cqed, "MAX_STEPS", 300)
    t_eval = np.linspace(0.0, 1.5e-5, 600)
    with pytest.raises(IntegrationFailureError, match="300 step attempts") as info:
        simulate_maser(REF_PARAMS, REF_INIT, (0.0, 1.5e-5), t_eval=t_eval)
    reached = np.frombuffer(records[-1]).reshape(-1, cqed._RECORD)[:, 1]
    assert 0.0 < reached[-1] < t_eval[-1]
    assert info.value.last_time > 0.0
    assert info.value.last_time == t_eval[t_eval <= reached[-1]][-1]


@pytest.fixture
def empty_kernel_cache(monkeypatch, tmp_path):
    """An empty kernel cache under tmp_path, with no kernel loaded before or after."""
    cache = tmp_path / "kernels"
    monkeypatch.setattr(cqed, "_KERNEL_CACHE", cache)
    cqed._rk45_kernel.cache_clear()
    yield cache
    cqed._rk45_kernel.cache_clear()


def test_an_empty_kernel_cache_builds_the_kernel_once(monkeypatch, empty_kernel_cache):
    builds = []
    build = cqed._build_kernel

    def counted(command, path):
        builds.append(path)
        build(command, path)

    monkeypatch.setattr(cqed, "_build_kernel", counted)
    # a solve and a sensitivity pass share one build
    first = simulate_maser(REF_PARAMS, REF_INIT, (0.0, 2e-6), n_points=50)
    first_sensitivity = cqed._log_photon_sensitivity(first, fitting.LOG_FLOOR)
    assert len(builds) == 1
    cqed._rk45_kernel.cache_clear()    # as a new process would: load from the cache
    again = simulate_maser(REF_PARAMS, REF_INIT, (0.0, 2e-6), n_points=50)
    again_sensitivity = cqed._log_photon_sensitivity(again, fitting.LOG_FLOOR)
    assert len(builds) == 1
    assert [p.name for p in empty_kernel_cache.iterdir()] == [builds[0].name]
    assert bytes(first._record) == bytes(again._record)
    assert np.array_equal(first_sensitivity, again_sensitivity)


def test_a_second_process_loads_the_kernel_without_the_compiler(empty_kernel_cache):
    script = (
        "import sys\n"
        "from pathlib import Path\n"
        "from maserkit import cqed\n"
        "cqed._KERNEL_CACHE = Path(sys.argv[1])\n"
        "def no_compiler(command, path):\n"
        "    raise AssertionError('the compiler was called')\n"
        "cqed._build_kernel = no_compiler\n"
        "p = cqed.MaserSystemParams(g_e=1.4e7, kappa_c=2.5e6, kappa_s=1.8e6, gamma=2e5,\n"
        "                           delta=0.0, n_spins=9.7e14, n_bar=4097.0)\n"
        "s = cqed.MaserState(photon_number=4097.0, coherence=0.0, inversion=0.52,\n"
        "                    spin_correlation=0.0)\n"
        "print(len(cqed.simulate_maser(p, s, (0.0, 2e-6), n_points=50).t))\n")
    src = str(Path(maserkit.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    cqed._rk45_kernel()    # builds into the empty cache
    done = subprocess.run([sys.executable, "-c", script, str(empty_kernel_cache)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["50"]


@pytest.mark.parametrize("command, message", [
    ([sys.executable, "-c", "import sys; sys.exit('cc: cannot compile')"], "cannot compile"),
    (["/nonexistent/cc"], "No such file"),
], ids=["compiler-fails", "no-compiler"])
def test_a_failed_kernel_build_is_an_error_not_a_numerical_failure(
        monkeypatch, empty_kernel_cache, tmp_path, capsys, command, message):
    monkeypatch.setattr(cqed, "_compile_command", lambda: command)
    with pytest.raises(KernelBuildError, match=message) as info:
        simulate_maser(REF_PARAMS, REF_INIT, (0.0, 2e-6), n_points=50)
    assert isinstance(info.value, MaserkitError)
    assert not isinstance(info.value, NumericalError)
    assert list(empty_kernel_cache.iterdir()) == []    # no kernel and no temp file left
    # the maser fit does not take it for a failed solve, and the CLI says error:
    model = fitting._BurstModel({"kappa_c": 2.517e6, "gamma": 0.2e6, "n_bar": 4097.0,
                                 "inversion0": 0.52}, np.linspace(0.0, 2e-6, 50))
    with pytest.raises(KernelBuildError):
        model.log_photons(np.log10([REF_PARAMS.g_e, REF_PARAMS.kappa_s, REF_PARAMS.n_spins]))
    out = tmp_path / "out"
    assert cli.main(["simulate-maser", "--t-max-us", "2", "--points", "50",
                     "--output-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def test_cli_runs_without_scipy(tmp_path):
    clean, _ = biexp_trepr()
    trepr, _ = biexp_trepr(noise_rms=0.01 * float(np.max(np.abs(clean.y))), seed=4)
    write_trace_csv(tmp_path / "trepr.csv", trepr)
    write_trace_csv(tmp_path / "tcspc.csv", tcspc_decay(seed=2)[0])
    write_matrix_csv(tmp_path / "tas.csv", rank2_tas(seed=3)[0])
    script = (
        "import sys\n"
        "import maserkit.cli\n"
        "out = sys.argv[1]\n"
        "commands = [['simulate-maser', '--t-max-us', '2', '--points', '100'],\n"
        "            ['fit-trepr', out + '/trepr.csv'],\n"
        "            ['fit-tcspc', out + '/tcspc.csv', '--components', '3'],\n"
        "            ['svd-tas', out + '/tas.csv'],\n"
        "            ['svd-tas', out + '/tas.csv', '--threshold', '0.001']]\n"
        "def loaded():\n"
        "    return [m for m in sys.modules if m.split('.')[0] in ('scipy', 'jsonschema')]\n"
        "assert not loaded(), loaded()\n"
        "for argv in commands:\n"
        "    assert maserkit.cli.main([*argv, '--output-dir', out]) == 0, argv\n"
        "    assert not loaded(), (argv, loaded())\n")
    src = str(Path(maserkit.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    done = subprocess.run([sys.executable, "-c", script, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    schema = json.loads((Path(maserkit.__file__).parent / "schemas"
                         / "result.schema.json").read_text())
    for name in ("simulate-maser", "fit-trepr", "fit-tcspc", "svd-tas"):
        jsonschema.validate(json.loads((tmp_path / f"{name}.json").read_text()), schema)


@pytest.mark.parametrize("overrides", [{"kappa_s": 1e308}, {"delta": 1e308}],
                         ids=["kappa_s", "delta"])
def test_runaway_solve_stops_at_the_step_budget(overrides):
    # the step size collapses near t = 0 and would step without end
    params = dataclasses.replace(REF_PARAMS, **overrides)
    start = time.perf_counter()
    with pytest.raises(IntegrationFailureError, match="step attempts"):
        simulate_maser(params, REF_INIT, (0.0, 1.5e-5))
    assert time.perf_counter() - start < 10.0


def test_kept_steps_solve_is_bit_identical_to_simulate_maser():
    t_eval = np.linspace(0.0, 1.5e-5, 600)
    traj = simulate_maser(REF_PARAMS, REF_INIT, (0.0, 1.5e-5), t_eval=t_eval)
    kept = kernel_order_dense_output(traj._record, t_eval)[0] * REF_PARAMS.n_spins
    assert np.array_equal(kept, traj.photon_number)
    # every accepted step is kept, not only the 600 that host output points
    assert len(np.frombuffer(traj._record)) // cqed._RECORD > 1000
    # the record and the solve's coefficients are not part of the trajectory's value
    assert "_record" not in repr(traj) and "_coefficients" not in repr(traj)
    assert not any(f.compare for f in dataclasses.fields(traj) if f.name.startswith("_"))


# The Dormand-Prince 5(4) pair (J. Comput. Appl. Math. 6, 19 (1980)) and the
# step-size controller of scipy's RK45, as the kernel in _rk45.c has them.
# Zero entries are left out.
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
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_ERROR_EXPONENT = -1 / 5


# The oracles of the kernel in _rk45.c, in Python floats and numpy.


def _scaled_rhs(t, y, c):
    """The right-hand side on the N-scaled state y = (n/N, Re c/N, Im c/N, sz, ss/N);
    c holds the coefficients of cqed._rhs_coefficients, in order."""
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


def _rms(x):
    # Summed left to right, as the kernel's error norms are; sum() of
    # floats is compensated from Python 3.12.  Squares by multiplication: an
    # overflow gives inf, as in numpy, not an exception.
    total = 0.0
    for v in x:
        total += v * v
    return math.sqrt(total) / math.sqrt(len(x))


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


def _dense_output(record, t_eval):
    """States at t_eval, shape (5, len), from the quartic interpolants of the
    recorded steps, by numpy's einsum."""
    rec = np.asarray(record, dtype=float).reshape(-1, cqed._RECORD)
    t_old, t_new = rec[:, 0], rec[:, 1]
    step = np.searchsorted(t_new, t_eval)
    h = (t_new - t_old)[step]
    q = np.einsum("msi,sj->mij", rec[step, 7:].reshape(-1, 7, 5), _DENSE_P)
    x = (t_eval - t_old[step]) / h
    powers = np.cumprod(np.repeat(x[:, None], 4, axis=1), axis=1)
    return (rec[step, 2:7] + h[:, None] * np.einsum("pij,pj->pi", q, powers)).T


def kernel_order_dense_output(record, t_eval):
    """_dense_output in Python floats, in the kernel's order of operations:
    each q = sum over the stages s = 0..6 of k_s _DENSE_P[s], from 0, then
    y_old + h ((q0 x + q2 x^3) + (q1 x^2 + q3 x^4))."""
    rec = np.asarray(record, dtype=float).reshape(-1, cqed._RECORD)
    weights = _DENSE_P.tolist()
    out = np.empty((5, len(t_eval)))
    for p, (t, r) in enumerate(zip(t_eval.tolist(), np.searchsorted(rec[:, 1], t_eval))):
        t_old, t_new, *row = rec[r].tolist()
        h = t_new - t_old
        x = (t - t_old) / h
        x2 = x * x
        x3 = x2 * x
        x4 = x3 * x
        for i in range(5):
            q = []
            for j in range(4):
                total = 0.0
                for s in range(7):
                    total += row[5 + 5 * s + i] * weights[s][j]
                q.append(total)
            out[i, p] = row[i] + h * ((q[0] * x + q[2] * x3) + (q[1] * x2 + q[3] * x4))
    return out


def reference_rk45(rhs, c, t0, t1, y0, rtol, atol):
    """Reference: the Dormand-Prince 5(4) loop written generically over the
    state components, with the integrator's tableau, controller and record."""
    record = []
    t, y = t0, y0
    f = rhs(t, y, c)
    h_abs = _initial_step(rhs, c, t0, t1, y0, f, rtol, atol)
    while t < t1:
        h_abs = max(h_abs, 10.0 * (math.nextafter(t, math.inf) - t))
        rejected = False
        while True:
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
        t, y, f = t_new, y_new, k7
    return np.array(record)


def unrolled_cases():
    """(params, init, t1, t_eval, rtol, atol) of 31 solves from 0 to t1.

    The corners start with no coherence and delta = 0, where Re <S+a>
    stays zero; the last cases give every term of the right-hand side
    weight: detuning, an initial coherence and spin correlation, and an
    ensemble of 1e3 spins, where (sz + 1) / 2N and 1 - 1/N differ visibly
    from 0 and 1.
    """
    grid = np.linspace(0.0, 1.5e-5, 600)
    cases = [(dataclasses.replace(REF_PARAMS, g_e=fg * REF_PARAMS.g_e,
                                  kappa_s=fk * REF_PARAMS.kappa_s,
                                  n_spins=fn * REF_PARAMS.n_spins),
              REF_INIT, 1.5e-5, grid, cqed.DEFAULT_RTOL, cqed.DEFAULT_ATOL)
             for fg, fk, fn in itertools.product((0.7, 1.0, 1.3), repeat=3)]
    cases.append((dataclasses.replace(REF_PARAMS, delta=3e5), REF_INIT, 1.2e-5,
                  np.linspace(4e-6, 9e-6, 50), 1e-6, 1e-16))
    cases.append((dataclasses.replace(REF_PARAMS, delta=2e6), REF_INIT, 1.5e-5, grid,
                  cqed.DEFAULT_RTOL, cqed.DEFAULT_ATOL))
    cases.append((REF_PARAMS, MaserState(photon_number=4097.0, coherence=1e9 - 2e9j,
                                         inversion=0.52, spin_correlation=1e12),
                  1.5e-5, grid, cqed.DEFAULT_RTOL, cqed.DEFAULT_ATOL))
    cases.append((dataclasses.replace(REF_PARAMS, n_spins=1e3, n_bar=2.0),
                  MaserState(photon_number=2.0, coherence=3.0 + 4.0j, inversion=0.8,
                             spin_correlation=50.0),
                  1.5e-5, grid, cqed.DEFAULT_RTOL, cqed.DEFAULT_ATOL))
    return cases


# The default record holds every solve of unrolled_cases in one kernel
# call; 300 rows make each solve fill it and resume two or three times.
RECORD_ROWS = (cqed._RECORD_ROWS, 300)


def test_unrolled_steps_are_bit_identical_to_the_generic_loop(monkeypatch):
    # The reference calls _scaled_rhs at every stage, from the first stage
    # and the initial step on, so this also pins the kernel's inlined
    # right-hand side and initial step rule to it bit for bit.
    calls = []

    def rhs(t, y, c):
        calls.append(t)
        return _scaled_rhs(t, y, c)

    for params, init, t1, t_eval, rtol, atol in unrolled_cases():
        y0, c, _ = cqed._scaled_start(params, init)
        calls.clear()
        reference = reference_rk45(rhs, c, 0.0, t1, y0, rtol, atol)
        reference_calls = len(calls)
        for rows in RECORD_ROWS:
            monkeypatch.setattr(cqed, "_RECORD_ROWS", rows)
            record, _, rhs_calls = cqed._integrate_rk45(c, 0.0, t1, y0, t_eval, rtol, atol)
            assert bytes(record) == reference.tobytes(), (params, init, rows)
            assert rhs_calls == reference_calls, (params, init, rows)


@pytest.mark.parametrize("record_rows", RECORD_ROWS, ids=["one-call", "resumed"])
def test_kernel_states_are_the_dense_output_of_its_record(monkeypatch, record_rows):
    # The kernel samples each step as it takes it.  Its states are bit-equal
    # to the dense output in its own order of operations, and within 4 ulp
    # of the numpy einsum oracle (bit-equal with numpy 2.4 on x86-64;
    # another build may sum in another order).  On the 31 cases and on the
    # grids of the maser fit's first windows: the 39-, 52-, 65- and 193-row
    # prefixes of the 600-point grid.
    monkeypatch.setattr(cqed, "_RECORD_ROWS", record_rows)
    grid = np.linspace(0.0, 1.5e-5, 600)
    cases = unrolled_cases() + [
        (REF_PARAMS, REF_INIT, grid[rows - 1], grid[:rows], cqed.DEFAULT_RTOL, cqed.DEFAULT_ATOL)
        for rows in (39, 52, 65, 193)]
    for params, init, t1, t_eval, rtol, atol in cases:
        y0, c, _ = cqed._scaled_start(params, init)
        record, states, _ = cqed._integrate_rk45(c, 0.0, t1, y0, t_eval, rtol, atol)
        assert states.tobytes() == kernel_order_dense_output(record, t_eval).tobytes(), params
        einsum = _dense_output(record, t_eval)
        assert np.all(np.abs(states - einsum) <= 4 * np.spacing(np.abs(einsum))), params


def test_kernel_flags_keep_the_float_operations():
    # The bit-identity of the record and the states rests on the compiler
    # keeping every float operation as written: no fused multiply-adds, no
    # reassociation, no instructions beyond the platform's baseline.
    assert "-ffp-contract=off" in cqed._KERNEL_FLAGS
    for flag in ("-ffast-math", "-Ofast", "-funsafe-math-optimizations", "-march=native"):
        assert flag not in cqed._KERNEL_FLAGS
    assert cqed._compile_command()[-len(cqed._KERNEL_FLAGS):] == list(cqed._KERNEL_FLAGS)


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
# Steps per block of the reference pass; bounds its scratch memory.
_SENSITIVITY_BLOCK = 128


def reference_rhs_derivatives(y, c, kappa_s):
    """Derivatives of _scaled_rhs at the states y, shape (m, 5).

    Returns d f / d y, shape (m, 5, 5), and ln 10 p d f / d p for
    p = g_e, kappa_s, n_spins, shape (m, 5, 3), with c the float
    coefficients of _rhs_coefficients.
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
    return dy, dp * math.log(10.0)


def reference_log_photon_sensitivity(traj):
    """Reference: cqed._log_photon_sensitivity as a vectorised numpy pass.

    A step maps the sensitivity S = dy/dp (5 x 3) affinely, S_next = M S
    + v, with M and v built from the stage Jacobians of _scaled_rhs; as
    8 x 8 matrices [[M, v], [0, I]] acting on [S; I] the maps combine by
    a log-depth prefix product, in blocks of _SENSITIVITY_BLOCK steps.
    The stage sensitivities of the steps that host output points are then
    rebuilt from S and weighted by the quartic dense output.  Its stage
    states come from _STAGES, not the kernel's expressions, so it agrees
    with the kernel to rounding, not bit for bit.
    """
    ln10 = math.log(10.0)
    rec = np.frombuffer(traj._record, dtype=float).reshape(-1, cqed._RECORD)
    t_eval = traj.t
    coeffs = _rhs_coefficients(traj.params)
    kappa_s = float(traj.params.kappa_s)
    host = np.searchsorted(rec[:, 1], t_eval)
    frame = np.eye(5, 8)
    # [S; I] at the current step; y0 scales as 1/N except the inversion
    state = np.eye(8, 3, -5)
    state[:5, 2] = -ln10 * rec[0, 2:7]
    state[3, 2] = 0.0
    sens = np.empty((len(t_eval), 5, 3))
    for lo in range(0, len(rec), _SENSITIVITY_BLOCK):
        block = rec[lo:lo + _SENSITIVITY_BLOCK]
        m = len(block)
        h = (block[:, 1] - block[:, 0])[:, None, None]
        k = block[:, 7:].reshape(m, 7, 5)
        stage_y = block[:, None, 2:7] + h * np.einsum("ij,mjd->mid", _STAGES, k[:, :6])
        dy, dp = reference_rhs_derivatives(stage_y.reshape(-1, 5), coeffs, kappa_s)
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
    n_scaled = traj.photon_number / coeffs.n_spins
    out = sens[:, 0, :] / (ln10 * n_scaled[:, None])
    out[:, 2] += 1.0
    return out


def scaled_params(p):
    """REF_PARAMS at p = log10 (g_e, kappa_s, n_spins)."""
    return dataclasses.replace(REF_PARAMS, g_e=10.0 ** p[0], kappa_s=10.0 ** p[1],
                               n_spins=10.0 ** p[2])


def log_photons(p, t_eval):
    """log10 n of one solve at p and the step sizes it took."""
    traj = simulate_maser(scaled_params(p), REF_INIT, (0.0, t_eval[-1]), t_eval=t_eval)
    record = np.frombuffer(traj._record).reshape(-1, cqed._RECORD)
    return np.log10(traj.photon_number), record[:, 1] - record[:, 0]


def test_exact_jacobian_matches_central_differences():
    # Central differences of single solves on the fit's 600-point grid.
    # They also see the step sizes move with the parameters, which the
    # pass leaves out; that moves them by far less than 1e-4, except
    # across a controller decision: where one member rejects a step the
    # other accepts, the later step sizes differ by several percent and
    # the stencil measures that jump, not a derivative.  There the
    # difference step is halved until both members step alike.
    t_eval = np.linspace(0.0, 1.5e-5, 600)
    worst = 0.0
    for fg, fk, fn in itertools.product((0.7, 1.0, 1.3), repeat=3):
        p = np.log10([fg * REF_PARAMS.g_e, fk * REF_PARAMS.kappa_s, fn * REF_PARAMS.n_spins])
        exact = cqed._log_photon_sensitivity(
            simulate_maser(scaled_params(p), REF_INIT, (0.0, t_eval[-1]), t_eval=t_eval),
            fitting.LOG_FLOOR)
        for j in range(3):
            d = 1e-8 * abs(p[j])
            while True:
                plus, h_plus = log_photons(p + d * np.eye(3)[j], t_eval)
                minus, h_minus = log_photons(p - d * np.eye(3)[j], t_eval)
                if (len(h_plus) == len(h_minus)
                        and np.max(np.abs(h_plus[:-1] / h_minus[:-1] - 1)) < 1e-3):
                    break
                d /= 2
            reference = (plus - minus) / (2 * d)
            worst = max(worst, np.linalg.norm(exact[:, j] - reference)
                        / np.linalg.norm(reference))
    assert worst < 1e-4


def frozen_step_log_photons(p, steps, t_eval):
    """log10 n at p from Dormand-Prince steps of the given sizes, no error control."""
    y, c, N = cqed._scaled_start(scaled_params(p), REF_INIT)
    y = np.array(y)
    record = []
    t = 0.0
    for h in steps:
        k = [np.array(_scaled_rhs(t, y, c))]
        for row in _STAGES[1:]:
            k.append(np.array(_scaled_rhs(t, y + h * (row[:len(k)] @ np.array(k)), c)))
        record += [t, t + h, *y, *np.concatenate(k)]
        y = y + h * (_STAGES[-1] @ np.array(k[:6]))
        t += h
    return np.log10(_dense_output(np.array(record), t_eval)[0] * N)


def test_exact_jacobian_is_the_frozen_step_derivative():
    # With the steps held at those of the solve, the photon number is a
    # smooth function of the parameters and the pass its exact
    # derivative: central differences agree to their own rounding.
    t_eval = np.linspace(0.0, 1.5e-5, 600)
    p = np.log10([1.3 * REF_PARAMS.g_e, REF_PARAMS.kappa_s, 0.7 * REF_PARAMS.n_spins])
    traj = simulate_maser(scaled_params(p), REF_INIT, (0.0, t_eval[-1]), t_eval=t_eval)
    exact = cqed._log_photon_sensitivity(traj, fitting.LOG_FLOOR)
    record = np.frombuffer(traj._record).reshape(-1, cqed._RECORD)
    steps = record[:, 1] - record[:, 0]
    for j in range(3):
        d = 1e-8 * abs(p[j]) * np.eye(3)[j]
        reference = (frozen_step_log_photons(p + d, steps, t_eval)
                     - frozen_step_log_photons(p - d, steps, t_eval)) / (2 * d[j])
        assert np.linalg.norm(exact[:, j] - reference) < 1e-5 * np.linalg.norm(reference)


@pytest.mark.parametrize("case", ["corners", "detuned", "coherent", "rtol-1e-6", "rtol-1e-10"])
def test_kernel_sensitivity_matches_the_numpy_reference(case):
    # The two passes differentiate the same steps; they differ only in the
    # order of their float operations, by about 2e-11 of each column.
    grid = np.linspace(0.0, 1.5e-5, 600)
    runs = {
        "corners": [(dataclasses.replace(REF_PARAMS, g_e=fg * REF_PARAMS.g_e,
                                         kappa_s=fk * REF_PARAMS.kappa_s,
                                         n_spins=fn * REF_PARAMS.n_spins), REF_INIT, grid, {})
                    for fg, fk, fn in itertools.product((0.7, 1.0, 1.3), repeat=3)],
        "detuned": [(dataclasses.replace(REF_PARAMS, delta=2e6), REF_INIT, grid, {}),
                    (dataclasses.replace(REF_PARAMS, delta=3e5), REF_INIT,
                     np.linspace(4e-6, 9e-6, 50), {"rtol": 1e-6, "atol": 1e-16})],
        "coherent": [(dataclasses.replace(REF_PARAMS, n_spins=1e3, n_bar=2.0),
                      MaserState(photon_number=2.0, coherence=3.0 + 4.0j, inversion=0.8,
                                 spin_correlation=50.0), grid, {})],
        "rtol-1e-6": [(REF_PARAMS, REF_INIT, grid, {"rtol": 1e-6})],
        "rtol-1e-10": [(REF_PARAMS, REF_INIT, grid, {"rtol": 1e-10})],
    }
    for params, init, t_eval, tolerances in runs[case]:
        traj = simulate_maser(params, init, (0.0, 1.5e-5), t_eval=t_eval, **tolerances)
        kernel = cqed._log_photon_sensitivity(traj, fitting.LOG_FLOOR)
        reference = reference_log_photon_sensitivity(traj)
        scale = np.max(np.abs(reference), axis=0)
        assert np.all(np.max(np.abs(kernel - reference), axis=0) <= 1e-10 * scale), params


def test_sensitivity_rows_not_above_the_floor_are_zero():
    # The fit's log10 is floored, so its Jacobian is zero where the photon
    # number is not above the floor; the kernel zeroes those rows and leaves
    # the others as they are.
    traj = simulate_maser(REF_PARAMS, REF_INIT, (0.0, 1.5e-5), n_points=600)
    full = cqed._log_photon_sensitivity(traj, 0.0)
    floor = float(np.median(traj.photon_number))
    masked = cqed._log_photon_sensitivity(traj, floor)
    low = ~(traj.photon_number > floor)
    assert 0 < np.count_nonzero(low) < len(low)
    assert np.all(masked[low] == 0.0)
    assert np.array_equal(masked[~low], full[~low])


def test_a_record_that_ends_before_the_output_grid_raises():
    traj = simulate_maser(REF_PARAMS, REF_INIT, (0.0, 1.5e-5), n_points=600)
    short = dataclasses.replace(traj, _record=traj._record[:len(traj._record) // 2])
    with pytest.raises(ValueError, match="covers [0-9]+ of the 600 output times"):
        cqed._log_photon_sensitivity(short, fitting.LOG_FLOOR)


def test_cooperativity_reference_value():
    kappa_c = TWO_PI * 1.478e9 / 3690.0
    c = cooperativity(TWO_PI * 2.3e6, kappa_c, TWO_PI * 0.29e6)
    assert c == pytest.approx(182.16, abs=0.05)
    with pytest.raises(InvalidInputError):
        cooperativity(1e6, 0.0, 1e6)


def test_cooperativity_of_numpy_scalars_overflows_to_zero_without_a_warning():
    # fit-maser passes np.float64 values; an overflowing kappa_c * kappa_s
    # gives C = 0, as it does for floats, with no RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cooperativity(*map(np.float64, (1e6, 1e308, 1e308))) == 0.0
    args = (TWO_PI * 2.3e6, TWO_PI * 1.478e9 / 3690.0, TWO_PI * 0.29e6)
    assert cooperativity(*map(np.float64, args)) == cooperativity(*args)


def test_predicted_rabi():
    assert predicted_rabi(TWO_PI * 2.3e6) == pytest.approx(TWO_PI * 4.6e6, rel=1e-12)
    with pytest.raises(InvalidInputError):
        predicted_rabi(-1.0)


def test_extract_rabi_on_damped_cosine():
    trace, meta = damped_cosine_burst()
    f = extract_rabi_frequency(trace)
    assert f == pytest.approx(meta["f_rabi"], rel=0.02)


def test_extract_rabi_with_explicit_window():
    trace, meta = damped_cosine_burst()
    f = extract_rabi_frequency(trace, burst_window=(0.0, 6e-6))
    assert f == pytest.approx(meta["f_rabi"], rel=0.02)


def test_extract_rabi_on_simulated_burst():
    traj = simulate_maser(REF_PARAMS, REF_INIT, (0.0, 1.5e-5))
    f = extract_rabi_frequency(traj.photon_trace())
    assert 1.4e6 < f < 1.9e6
    # the measured ripple frequency runs a factor ~3 below 2 g_e
    ratio = angular_to_ordinary(predicted_rabi(REF_PARAMS.g_e)) / f
    assert 2.0 < ratio < 3.5


def test_extract_rabi_error_cases():
    t = np.linspace(0.0, 1e-5, 600)
    flat = TimeTrace(t, np.full(600, 5.0), "photons")
    with pytest.raises(NoOscillationError):
        extract_rabi_frequency(flat)
    with pytest.raises(UnitMismatchError):
        extract_rabi_frequency(TimeTrace(t, np.ones(600), "watts"))
    t_bad = np.concatenate([t[:300], t[300:] * 1.3])
    bad = TimeTrace(t_bad, np.ones(600), "photons")
    with pytest.raises(InvalidInputError):
        extract_rabi_frequency(bad)


def test_count_oscillations_on_cosine():
    trace, meta = damped_cosine_burst()
    n = count_oscillations(trace)
    periods = meta["t_max"] * meta["f_rabi"]
    assert n >= 3
    assert abs(n - periods) <= 2


def test_count_oscillations_on_simulated_burst():
    traj = simulate_maser(REF_PARAMS, REF_INIT, (0.0, 1.5e-5))
    assert count_oscillations(traj.photon_trace()) >= 3


def test_params_validation():
    with pytest.raises(InvalidInputError):
        MaserSystemParams(g_e=-1.0, kappa_c=1.0, kappa_s=1.0, gamma=1.0,
                          delta=0.0, n_spins=1e14, n_bar=0.0)
    with pytest.raises(InvalidInputError):
        MaserSystemParams(g_e=1.0, kappa_c=1.0, kappa_s=1.0, gamma=1.0,
                          delta=0.0, n_spins=0.5, n_bar=0.0)


@pytest.mark.parametrize("field, value", [
    ("g_e", "abc"), ("g_e", math.nan), ("n_spins", math.inf), ("delta", math.nan),
    ("kappa_s", None), ("gamma", True), ("n_bar", np.array([1.0, 2.0])), ("kappa_c", 10 ** 400),
], ids=["string", "nan", "inf", "nan-delta", "none", "bool", "array", "int-beyond-float"])
def test_params_must_be_finite_real_numbers(field, value):
    with pytest.raises(InvalidInputError, match=field):
        dataclasses.replace(REF_PARAMS, **{field: value})


def test_trajectory_carries_unit_and_grid():
    traj = simulate_maser(REF_PARAMS, REF_INIT, (0.0, 1e-6), n_points=50)
    tr = traj.photon_trace()
    assert tr.unit == "photons"
    assert len(tr.t) == 50
    assert tr.t[0] == 0.0 and tr.t[-1] == pytest.approx(1e-6, rel=1e-12)
