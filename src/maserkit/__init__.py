"""Toolkit for zero-field triplet maser analysis.

Simulation and fitting of triplet sublevel kinetics, microwave cavity
characterization, mean-field cavity QED maser bursts, and time-resolved
optical spectroscopy.

Importing the package loads no submodule and no numpy: each public name
is imported from its submodule on first access (PEP 562), so a caller
that needs only the closed-form relations never loads numpy.
"""

from importlib import import_module

__version__ = "0.1.0"

# public name -> the submodule that defines it; None marks a submodule itself
_SOURCE = {
    **dict.fromkeys(("cavity", "cqed", "errors", "fitting", "spectro", "trace", "triplet",
                     "units"), None),
    **dict.fromkeys(("QCircleGeometry", "cavity_decay_rate", "cooperativity",
                     "coupling_from_qcircle", "loaded_q", "PhotophysicsRates",
                     "predicted_rabi", "rates_from_lifetimes", "thermal_photons",
                     "unloaded_q"), "relations"),
    **dict.fromkeys(("CavityCharacterization", "baseline_correct", "fit_reflection_circle",
                     "power_to_photons", "power_trace_to_photons"), "cavity"),
    **dict.fromkeys(("MaserState", "MaserSystemParams", "MaserTrajectory",
                     "count_oscillations", "extract_rabi_frequency", "simulate_maser"),
                    "cqed"),
    **dict.fromkeys(("FitResult", "fit_biexponential", "fit_maser_parameters",
                     "nlls_minimize"), "fitting"),
    **dict.fromkeys(("GlobalAnalysisResult", "SpectrumMatrix", "TcspcFit", "fit_tcspc",
                     "svd_global_analysis"), "spectro"),
    **dict.fromkeys(("TimeTrace", "read_trace_csv", "write_trace_csv"), "trace"),
    **dict.fromkeys(("BiexpFit", "TripletRateModel", "combined_rate_from_eigen",
                     "difference_coefficients", "eigenrates", "equivalent_model",
                     "evolve_populations", "predicted_trepr_signal", "zero_crossing_time"),
                    "triplet"),
    **dict.fromkeys(("CONSTANTS", "PhysConstants", "angular_to_ordinary", "dbm_to_watts",
                     "ordinary_to_angular", "watts_to_dbm"), "units"),
}

__all__ = sorted(_SOURCE)


def __getattr__(name):
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    source = _SOURCE[name]
    value = (import_module(f".{name}", __name__) if source is None
             else getattr(import_module(f".{source}", __name__), name))
    globals()[name] = value
    return value


def __dir__():
    hidden = {"import_module", "_SOURCE", "__getattr__", "__dir__"}
    return sorted(set(globals()) - hidden | set(__all__))
