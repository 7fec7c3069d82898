import dataclasses
import math

import numpy as np
import pytest

from maserkit.cqed import (
    _scaled_rhs,
    MaserState,
    MaserSystemParams,
    cooperativity,
    count_oscillations,
    extract_rabi_frequency,
    predicted_rabi,
    rabi_discrepancy,
    simulate_maser,
    simulate_photon_stack,
)
from maserkit.errors import (
    InvalidInputError,
    NoOscillationError,
    UnitMismatchError,
)
from maserkit.synthetic import damped_cosine_burst
from maserkit.trace import TimeTrace
from maserkit.units import TWO_PI

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
    dn, _, _, dsz, _ = _scaled_rhs(0.0, y, params)
    # d/dt (n/N + sz/2) = 0: <a+a> + (N/2) <Sz> is conserved
    assert abs(dn + 0.5 * dsz) < 1e-12 * (abs(dn) + 1.0 / params.n_spins)


def test_rhs_decouples_at_zero_coupling():
    params = MaserSystemParams(g_e=0.0, kappa_c=2.5e6, kappa_s=1.8e6,
                               gamma=2e5, delta=0.0, n_spins=1e14, n_bar=4097.0)
    y = scaled_state(1e4, 3e3 + 2e3j, 0.4, 5e3, params.n_spins)
    n, cr, ci, sz, ss = y
    dn, dcr, dci, dsz, dss = _scaled_rhs(0.0, y, params)
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
    dn, dcr, dci, dsz, dss = _scaled_rhs(0.0, y, params)
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


def test_stacked_members_match_separate_simulations():
    # each method sits ~8e-4 dex from an rtol-1e-12 reference, so two
    # independent integrations agree to within a few times that
    t_eval = np.linspace(0.0, 1.5e-5, 600)
    members = [REF_PARAMS,
               dataclasses.replace(REF_PARAMS, g_e=1.01 * REF_PARAMS.g_e),
               dataclasses.replace(REF_PARAMS, kappa_s=0.98 * REF_PARAMS.kappa_s,
                                   n_spins=1.3 * REF_PARAMS.n_spins)]
    stacked = simulate_photon_stack(members, REF_INIT, t_eval)
    assert stacked.shape == (3, len(t_eval))
    for params, row in zip(members, stacked):
        alone = simulate_maser(params, REF_INIT, (0.0, 1.5e-5), t_eval=t_eval)
        assert np.max(np.abs(np.log10(row) - np.log10(alone.photon_number))) < 2e-3


def test_stacked_solve_rejects_bad_input():
    with pytest.raises(InvalidInputError):
        simulate_photon_stack([REF_PARAMS], REF_INIT, [1e-6, 0.0])
    with pytest.raises(InvalidInputError):
        simulate_photon_stack([], REF_INIT, [0.0, 1e-6])


def test_cooperativity_reference_value():
    kappa_c = TWO_PI * 1.478e9 / 3690.0
    c = cooperativity(TWO_PI * 2.3e6, kappa_c, TWO_PI * 0.29e6)
    assert c == pytest.approx(182.16, abs=0.05)
    with pytest.raises(InvalidInputError):
        cooperativity(1e6, 0.0, 1e6)


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
    ratio = rabi_discrepancy(traj.photon_trace(), REF_PARAMS.g_e)
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


def test_trajectory_carries_unit_and_grid():
    traj = simulate_maser(REF_PARAMS, REF_INIT, (0.0, 1e-6), n_points=50)
    tr = traj.photon_trace()
    assert tr.unit == "photons"
    assert len(tr.t) == 50
    assert tr.t[0] == 0.0 and tr.t[-1] == pytest.approx(1e-6, rel=1e-12)
