import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from maserkit.errors import InvalidInputError
from maserkit.spectro import (
    SpectrumMatrix,
    fit_tcspc,
    rates_from_lifetimes,
    read_matrix_csv,
    svd_global_analysis,
    write_matrix_csv,
)
from maserkit.synthetic import rank2_tas, tcspc_decay
from maserkit.trace import TimeTrace


def test_matrix_validation():
    wl = np.linspace(450.0, 750.0, 5)
    dl = np.linspace(0.0, 100.0, 7)
    with pytest.raises(InvalidInputError):
        SpectrumMatrix(wl, dl, np.zeros((7, 5)))       # transposed shape
    with pytest.raises(InvalidInputError):
        SpectrumMatrix(wl[::-1], dl, np.zeros((5, 7)))  # decreasing axis
    bad = np.zeros((5, 7))
    bad[2, 3] = np.nan
    with pytest.raises(InvalidInputError):
        SpectrumMatrix(wl, dl, bad)


def test_rank1_matrix_gives_single_component():
    wl = np.linspace(450.0, 750.0, 40)
    dl = np.linspace(0.0, 3000.0, 150)
    spectrum = np.exp(-0.5 * ((wl - 550.0) / 25.0) ** 2)
    profile = np.exp(-dl / 500.0)
    mat = SpectrumMatrix(wl, dl, np.outer(spectrum, profile))
    res = svd_global_analysis(mat)
    assert res.significant_count == 1
    assert res.component_lifetimes[0] == pytest.approx(500.0, rel=5e-3)


def test_rank1_matrix_on_geometric_delays():
    # SpectrumMatrix accepts non-uniform delays; the lifetime fit must too
    wl = np.linspace(450.0, 750.0, 40)
    dl = np.geomspace(10.0, 3010.0, 150) - 10.0
    spectrum = np.exp(-0.5 * ((wl - 550.0) / 25.0) ** 2)
    mat = SpectrumMatrix(wl, dl, np.outer(spectrum, np.exp(-dl / 500.0)))
    res = svd_global_analysis(mat)
    assert res.significant_count == 1
    assert res.component_lifetimes[0] == pytest.approx(500.0, rel=5e-3)


def test_rank2_recovery_noiseless():
    mat, meta = rank2_tas(noise_frac=0.0)
    res = svd_global_analysis(mat)
    assert res.significant_count == 2
    taus = sorted(res.component_lifetimes)
    assert taus[0] == pytest.approx(meta["tau1_ps"], rel=1e-6)
    assert taus[1] == pytest.approx(meta["tau2_ps"], rel=1e-6)
    # beyond rank 2 the singular values vanish
    assert res.singular_values[2] < 1e-10 * res.singular_values[0]


@pytest.mark.parametrize("seed", [3, 11, 42])
def test_rank2_recovery_with_noise(seed):
    mat, meta = rank2_tas(noise_frac=0.01, seed=seed)
    res = svd_global_analysis(mat)
    assert res.significant_count == 2
    taus = sorted(res.component_lifetimes)
    assert taus[0] == pytest.approx(meta["tau1_ps"], rel=0.05)
    assert taus[1] == pytest.approx(meta["tau2_ps"], rel=0.05)


def test_truncation_error_identity_on_random_matrix():
    rng = np.random.default_rng(17)
    m = rng.standard_normal((50, 200))
    mat = SpectrumMatrix(np.arange(50.0), np.arange(200.0), m)
    res = svd_global_analysis(mat, significance_threshold=0.0, fit_lifetimes=False)
    s = res.singular_values
    for k in (1, 5, 20):
        mk = (res.spectral_components[:k].T * s[:k]) @ res.time_profiles[:k]
        err = np.linalg.norm(m - mk, "fro") ** 2
        expected = float(np.sum(s[k:] ** 2))
        assert err == pytest.approx(expected, rel=1e-10)


def test_zero_matrix_yields_no_components():
    mat = SpectrumMatrix(np.arange(4.0), np.arange(6.0), np.zeros((4, 6)))
    res = svd_global_analysis(mat)
    assert res.significant_count == 0
    assert res.component_lifetimes == []


def test_significance_threshold_is_relative():
    wl = np.arange(10.0)
    dl = np.arange(20.0)
    u1, u2 = np.eye(10)[0], np.eye(10)[1]
    v1, v2 = np.eye(20)[0], np.eye(20)[1]
    m = 1.0 * np.outer(u1, v1) + 0.05 * np.outer(u2, v2)
    mat = SpectrumMatrix(wl, dl, m)
    assert svd_global_analysis(mat, significance_threshold=0.10,
                               fit_lifetimes=False).significant_count == 1
    assert svd_global_analysis(mat, significance_threshold=0.04,
                               fit_lifetimes=False).significant_count == 2


def test_matrix_csv_round_trip(tmp_path):
    mat, _ = rank2_tas(noise_frac=0.01, seed=9, n_wavelengths=12, n_delays=30)
    path = tmp_path / "tas.csv"
    write_matrix_csv(path, mat)
    back = read_matrix_csv(path)
    assert np.array_equal(back.wavelengths, mat.wavelengths)
    assert np.array_equal(back.delays, mat.delays)
    assert np.array_equal(back.delta_a, mat.delta_a)


def test_matrix_csv_rejects_malformed_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("delay_ps,450\n0,1\n")
    with pytest.raises(InvalidInputError):
        read_matrix_csv(path)


# ---------------------------------------------------------------------------
# TCSPC


def test_tcspc_biexponential_recovery():
    trace, meta = tcspc_decay(seed=2)
    fit = fit_tcspc(trace, n_components=2)
    assert fit.converged
    assert fit.lifetimes_ns[0] == pytest.approx(meta["tau1_ns"], rel=0.05)
    assert fit.lifetimes_ns[1] == pytest.approx(meta["tau2_ns"], rel=0.05)
    assert sum(fit.amplitudes) == pytest.approx(1.0, rel=1e-12)
    assert fit.amplitudes[0] > fit.amplitudes[1]


def test_tcspc_single_component():
    trace, meta = tcspc_decay(params={"a2": 0.0}, seed=6)
    fit = fit_tcspc(trace, n_components=1)
    assert fit.lifetimes_ns[0] == pytest.approx(meta["tau1_ns"], rel=0.05)
    assert fit.amplitudes == (1.0,)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_tcspc_three_components_fit_without_overflow_warnings():
    # LM tries log-lifetimes past the float range on this decay; the
    # model takes them as flat components without a warning per trial
    trace, _ = tcspc_decay(seed=2)
    fit = fit_tcspc(trace, n_components=3)
    assert len(fit.lifetimes_ns) == 3


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_tcspc_three_components_keep_the_converged_promise():
    # the decays hold two components; a third must end finite and
    # positive or be reported with converged=False, and never raise
    for seed in range(48):
        trace, _ = tcspc_decay(seed=seed)
        fit = fit_tcspc(trace, n_components=3)
        if fit.converged:
            assert all(np.isfinite(fit.lifetimes_ns)), seed
            assert all(a > 0 for a in fit.amplitudes), seed


def test_tcspc_validation():
    trace, _ = tcspc_decay()
    with pytest.raises(InvalidInputError):
        fit_tcspc(trace, n_components=4)
    short = TimeTrace(trace.t[:30], trace.y[:30], "photons")
    with pytest.raises(InvalidInputError):
        fit_tcspc(short, n_components=1)


# ---------------------------------------------------------------------------
# quantum yield


def test_rates_reference_values():
    rates = rates_from_lifetimes(0.46, 0.685)
    assert rates.theta_t == pytest.approx(0.6715, abs=1e-3)
    assert rates.kappa_ic_plus_rad == pytest.approx(0.714, abs=1e-3)
    assert rates.kappa_f == pytest.approx(1.0 / 0.46, rel=1e-12)
    assert rates.kappa_isc == pytest.approx(1.0 / 0.685, rel=1e-12)


def test_rates_reject_yield_above_one():
    with pytest.raises(InvalidInputError):
        rates_from_lifetimes(0.685, 0.46)
    with pytest.raises(InvalidInputError):
        rates_from_lifetimes(-0.5, 1.0)


@settings(max_examples=30, deadline=None)
@given(tau_f=st.floats(0.05, 10.0), ratio=st.floats(1.0, 50.0))
def test_rates_identities(tau_f, ratio):
    rates = rates_from_lifetimes(tau_f, tau_f * ratio)
    assert 0.0 <= rates.theta_t <= 1.0
    assert rates.kappa_ic_plus_rad == pytest.approx(
        rates.kappa_f * (1.0 - rates.theta_t), rel=1e-9)
