"""Deterministic synthetic datasets for round-trip testing.

Each generator returns (data, params) where params is a plain dict of
the generating values, suitable for a JSON sidecar.  All randomness
goes through numpy's Generator seeded explicitly, so the same seed
reproduces byte-identical files.
"""

import numpy as np

from . import cqed
from .errors import InvalidInputError
from .trace import TimeTrace
from .units import TWO_PI

# Canonical burst parameters for the self-consistency round trip.
BURST_DEFAULTS = dict(
    g_e=TWO_PI * 2.3e6,
    kappa_s=TWO_PI * 0.29e6,
    n_spins=9.7e14,
    kappa_c=2.517e6,
    gamma=0.2e6,
    delta=0.0,
    n_bar=4097.0,
    inversion0=0.52,
)

TREPR_DEFAULTS = dict(
    A=0.547, B=-0.066, alpha_minus=-3.93e5, alpha_plus=-0.459e5)

TCSPC_DEFAULTS = dict(
    tau1_ns=0.46, a1=0.96, tau2_ns=3.7, a2=0.04)

TAS_DEFAULTS = dict(tau1_ps=450.0, tau2_ps=650.0, amp1=1.0, amp2=0.35)


def biexp_trepr(params=None, t_max=20e-6, n_points=800, noise_rms=0.0, seed=0):
    """Biexponential EPR difference signal, optionally with Gaussian noise."""
    p = dict(TREPR_DEFAULTS)
    if params:
        p.update(params)
    t = np.linspace(0.0, t_max, n_points)
    y = p["A"] * np.exp(p["alpha_minus"] * t) + p["B"] * np.exp(p["alpha_plus"] * t)
    if noise_rms > 0:
        rng = np.random.default_rng(seed)
        y = y + noise_rms * rng.standard_normal(len(t))
    meta = dict(p, t_max=t_max, n_points=n_points, noise_rms=noise_rms, seed=seed)
    return TimeTrace(t, y, "dimensionless"), meta


def maser_burst(params=None, t_max=15e-6, n_points=600, noise_rms_log10=0.0, seed=0):
    """Simulated photon-number burst on a uniform grid.

    Noise, when requested, is applied in log10 space (multiplicative),
    matching how such traces are compared.
    """
    p = dict(BURST_DEFAULTS)
    if params:
        p.update(params)
    traj = cqed.simulate_maser(*cqed.burst_system(p), (0.0, t_max), n_points=n_points)
    y = traj.photon_number
    if noise_rms_log10 > 0:
        rng = np.random.default_rng(seed)
        y = y * 10.0 ** (noise_rms_log10 * rng.standard_normal(len(y)))
    meta = dict(p, t_max=t_max, n_points=n_points,
                noise_rms_log10=noise_rms_log10, seed=seed)
    return TimeTrace(traj.t, y, "photons"), meta


def damped_cosine_burst(f_rabi=1.6e6, tau=3e-6, t_max=8e-6, sample_rate=50e6,
                        depth=0.5, amplitude=1e12):
    """Analytic stand-in for a rippled burst: e^(-t/tau) (1 + depth cos(2 pi f t))."""
    n = int(round(t_max * sample_rate))
    t = np.arange(n) / sample_rate
    y = amplitude * np.exp(-t / tau) * (1.0 + depth * np.cos(TWO_PI * f_rabi * t))
    meta = dict(f_rabi=f_rabi, tau=tau, t_max=t_max, sample_rate=sample_rate,
                depth=depth, amplitude=amplitude)
    return TimeTrace(t, y, "photons"), meta


def rank2_tas(params=None, noise_frac=0.01, seed=0,
              n_wavelengths=50, n_delays=200, t_max_ps=3250.0):
    """Rank-2 transient-absorption matrix with known lifetimes.

    The two planted time profiles are exp(-t/tau1) and
    exp(-t/tau2) + b, with the constant b chosen so the pair is
    orthogonal on the delay grid; each profile stays an exact
    mono-exponential-plus-offset, so the lifetime fits on the singular
    vectors see single-component decays.  The spectral bands (an
    excited-state absorption and a ground-state bleach) are
    Gram-Schmidt orthogonalized, which is harmless there because the
    spectra carry no kinetic information.  With both factor pairs
    orthogonal the SVD returns the planted profiles up to scale and
    sign instead of mixing them.

    noise_frac scales i.i.d. Gaussian noise relative to the matrix
    absolute maximum.
    """
    from .spectro import SpectrumMatrix

    p = dict(TAS_DEFAULTS)
    if params:
        p.update(params)
    delays = np.linspace(0.0, t_max_ps, n_delays)
    wavelengths = np.linspace(450.0, 750.0, n_wavelengths)

    f1 = np.exp(-delays / p["tau1_ps"])
    e2 = np.exp(-delays / p["tau2_ps"])
    offset2 = -float(f1 @ e2) / float(np.sum(f1))
    f2 = e2 + offset2

    center1, center2 = 520.0, 680.0
    s1 = np.exp(-0.5 * ((wavelengths - center1) / 18.0) ** 2)
    s2 = -np.exp(-0.5 * ((wavelengths - center2) / 22.0) ** 2)
    s2 = s2 - (float(s1 @ s2) / float(s1 @ s1)) * s1

    m = p["amp1"] * np.outer(s1, f1) + p["amp2"] * np.outer(s2, f2)
    if noise_frac > 0:
        rng = np.random.default_rng(seed)
        m = m + noise_frac * np.max(np.abs(m)) * rng.standard_normal(m.shape)
    meta = dict(p, noise_frac=noise_frac, seed=seed,
                n_wavelengths=n_wavelengths, n_delays=n_delays,
                t_max_ps=t_max_ps, profile2_offset=offset2)
    return SpectrumMatrix(wavelengths, delays, m), meta


def tcspc_decay(params=None, t_max_ns=25.0, n_channels=2048, peak_counts=1e4,
                poisson=True, seed=0):
    """Photon-counting decay histogram: sum of exponentials, Poisson noise.

    The curve starts at its maximum (no rise modeled; tail fitting
    ignores the rise anyway).
    """
    p = dict(TCSPC_DEFAULTS)
    if params:
        p.update(params)
    t_ns = np.linspace(0.0, t_max_ns, n_channels)
    comps = [(p["a1"], p["tau1_ns"]), (p["a2"], p["tau2_ns"])]
    if p.get("a3") and p.get("tau3_ns"):
        comps.append((p["a3"], p["tau3_ns"]))
    shape = np.zeros_like(t_ns)
    for a, tau in comps:
        if a > 0:
            shape += a * np.exp(-t_ns / tau)
    if shape[0] <= 0:
        raise InvalidInputError("decay must start positive")
    y = peak_counts * shape / shape[0]
    if poisson:
        rng = np.random.default_rng(seed)
        y = rng.poisson(y).astype(float)
    meta = dict(p, t_max_ns=t_max_ns, n_channels=n_channels,
                peak_counts=peak_counts, poisson=poisson, seed=seed)
    return TimeTrace(t_ns * 1e-9, y, "photons"), meta
