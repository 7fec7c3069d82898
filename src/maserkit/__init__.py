"""Toolkit for zero-field triplet maser analysis.

Simulation and fitting of triplet sublevel kinetics, microwave cavity
characterization, mean-field cavity QED maser bursts, and time-resolved
optical spectroscopy.
"""

__version__ = "0.1.0"

from .cavity import (
    CavityCharacterization,
    QCircleGeometry,
    baseline_correct,
    cavity_decay_rate,
    coupling_from_qcircle,
    fit_reflection_circle,
    loaded_q,
    power_to_photons,
    power_trace_to_photons,
    thermal_photons,
    unloaded_q,
)
from .cqed import (
    MaserState,
    MaserSystemParams,
    MaserTrajectory,
    cooperativity,
    count_oscillations,
    extract_rabi_frequency,
    predicted_rabi,
    simulate_maser,
)
from .fitting import (
    FitProblem,
    FitResult,
    fit_biexponential,
    fit_maser_parameters,
    nlls_minimize,
)
from .spectro import (
    GlobalAnalysisResult,
    PhotophysicsRates,
    SpectrumMatrix,
    TcspcFit,
    fit_tcspc,
    rates_from_lifetimes,
    svd_global_analysis,
)
from .trace import TimeTrace, read_trace_csv, write_trace_csv
from .triplet import (
    BiexpFit,
    TripletRateModel,
    combined_rate_from_eigen,
    difference_coefficients,
    eigenrates,
    equivalent_model,
    evolve_populations,
    predicted_trepr_signal,
    zero_crossing_time,
)
from .units import (
    CONSTANTS,
    PhysConstants,
    angular_to_ordinary,
    dbm_to_watts,
    ordinary_to_angular,
    watts_to_dbm,
)

__all__ = [name for name in dir() if not name.startswith("_")]
