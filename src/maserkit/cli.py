"""Command-line front end.

One subcommand per analysis or simulation operation.  Every run writes
a JSON result document (strict JSON: a non-finite number is null)
embedding a RunManifest, which main alone builds from the parsed
arguments; trace outputs are plot-ready CSV.  Exit codes: 0 on success,
1 on user error (arguments, files, units), 2 on numerical failure
(integration, non-convergence, missing oscillation).

numpy and the array modules are imported inside the handlers that use
them, so the calculator commands (thermal-photons, cooperativity,
quantum-yield, rabi --ge-hz, qcircle --d) and --help start without
numpy.
"""

import argparse
import json
import math
import os
import re
import sys
from dataclasses import asdict, dataclass

from . import __version__, relations, units
from .errors import MaserkitError, NumericalError, UserInputError

OUTPUT_DIR_ENV = "MASERKIT_OUTPUT_DIR"
# the quantities fit-maser holds, from synthetic.BURST_DEFAULTS unless --fixed sets them
HELD_BURST_KEYS = ("kappa_c", "gamma", "n_bar", "inversion0", "delta")


@dataclass
class RunManifest:
    subcommand: str
    inputs: list
    parameter_file: str | None
    output_dir: str
    seed: int | None
    version: str


class _CliParser(argparse.ArgumentParser):
    """argparse parser that reports usage problems as exit code 1.

    A negative number is a value, not an option, also in exponent form
    (-4e5), which argparse's own pattern does not match.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    def error(self, message):
        raise UserInputError(message)


def _finite_or_null(value):
    """value with every non-finite float in it, at any depth, as None."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _finite_or_null(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(item) for item in value]
    return value


def write_result_json(path, manifest, results):
    """Emit {manifest, results} as strict JSON: NaN and +-inf are written as null."""
    document = {"manifest": asdict(manifest), "results": _finite_or_null(results)}
    with open(path, "w") as fh:
        json.dump(document, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
    return path


def _write_plot_script(csv_path, columns, logscale=False):
    """Emit a minimal gnuplot script next to a CSV file."""
    gp_path = os.path.splitext(csv_path)[0] + ".gp"
    lines = [
        "set datafile separator ','",
        "set key autotitle columnhead",
        "set xlabel 'time (us)'",
    ]
    if logscale:
        lines.append("set logscale y")
    plot_parts = ", ".join(
        f"'{os.path.basename(csv_path)}' using 1:{i + 2} with lines"
        for i in range(columns))
    lines.append("plot " + plot_parts)
    with open(gp_path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return gp_path


def _angular_rate(value, is_angular_quoted):
    """Internal rate from a CLI number; the flag marks 2 pi x quoting."""
    return units.ordinary_to_angular(value) if is_angular_quoted else value


def _load_json_file(path, allowed=None):
    """The JSON object of numbers in a parameter file.

    Any other top level, any value that is not a finite number, and any
    key outside allowed (when given) is refused.
    """
    try:
        with open(path) as fh:
            document = json.load(fh)
    except FileNotFoundError as exc:
        raise UserInputError(f"parameter file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise UserInputError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(document, dict):
        raise UserInputError(
            f"{path}: expected a JSON object, got {type(document).__name__}")
    not_finite = sorted(k for k, v in document.items() if not units.is_finite_real(v))
    if not_finite:
        raise UserInputError(f"{path}: {not_finite} must be finite numbers")
    unknown = sorted(set(document) - set(allowed)) if allowed is not None else []
    if unknown:
        raise UserInputError(f"{path}: unknown keys {unknown}")
    return document


def _require_keys(params, keys, where):
    missing = [k for k in keys if k not in params]
    if missing:
        raise UserInputError(f"{where}: missing keys {missing}")


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (results dict, headline string or None)


def _cmd_simulate_triplet(args):
    import numpy as np
    from . import triplet
    from .trace import write_columns

    params = _load_json_file(args.params)
    _require_keys(params, ("k_x", "k_z", "w_xz", "n_x0", "n_y0", "n_z0"),
                  args.params)
    model = triplet.TripletRateModel(
        n_x0=params["n_x0"], n_y0=params["n_y0"], n_z0=params["n_z0"],
        k_x=params["k_x"], k_z=params["k_z"], w_xz=params["w_xz"])
    if args.points < 1:
        raise UserInputError(f"--points must be >= 1, got {args.points}")
    t = np.linspace(0.0, args.t_max_us * 1e-6, args.points)
    n_x, n_z = triplet.evolve_populations(model, t)
    am, ap = triplet.eigenrates(model)

    csv_path = os.path.join(args.output_dir, "triplet_trajectory.csv")
    write_columns(csv_path, "t_us,n_x,n_z,difference", [t * 1e6, n_x, n_z, n_x - n_z])
    if args.plot_script:
        _write_plot_script(csv_path, 3)

    rate, tau = triplet.combined_rate_from_eigen(am, ap)
    results = {
        "alpha_minus": am,
        "alpha_plus": ap,
        "combined_rate_per_s": rate,
        "combined_decay_time_s": tau,
        "trajectory_csv": csv_path,
    }
    return results, f"wrote {csv_path}"


def _cmd_fit_trepr(args):
    from . import fitting, triplet
    from .trace import read_trace_csv

    trace = read_trace_csv(args.trace, unit=args.unit)
    init = tuple(args.init) if args.init else None
    fit = fitting.fit_biexponential(trace, init=init)
    crossing = triplet.zero_crossing_time(fit)
    results = {
        "A": fit.A, "B": fit.B,
        "alpha_minus": fit.alpha_minus, "alpha_plus": fit.alpha_plus,
        "A_err": fit.A_err, "B_err": fit.B_err,
        "alpha_minus_err": fit.alpha_minus_err,
        "alpha_plus_err": fit.alpha_plus_err,
        "zero_crossing_us": None if crossing is None else crossing * 1e6,
        "combined_rate_per_s": -(fit.alpha_minus + fit.alpha_plus) / 2.0,
    }
    head = (f"A={fit.A:.6g}  B={fit.B:.6g}  "
            f"alpha-={fit.alpha_minus:.6g}  alpha+={fit.alpha_plus:.6g}")
    return results, head


def _cmd_qcircle(args):
    results = {}
    if args.s11:
        from .cavity import fit_reflection_circle
        from .trace import read_columns

        _, raw = read_columns(args.s11)
        if raw.shape[1] != 3:
            raise UserInputError(f"{args.s11}: expected columns f_Hz,re_S11,im_S11")
        center, radius, diameter = fit_reflection_circle(raw[:, 1], raw[:, 2])
        d = diameter
        results["circle_center"] = list(center)
        results["circle_radius"] = radius
    elif args.d is not None:
        d = args.d
    else:
        raise UserInputError("provide --d or --s11")
    geom = relations.QCircleGeometry(d=d, d2=args.d2)
    k1 = relations.coupling_from_qcircle(geom)
    results.update({"d": d, "d2": args.d2, "coupling_k1": k1})
    headline = f"K = {k1:.6g}"
    if args.f0 is not None:
        if args.f_low is None or args.f_high is None:
            raise UserInputError("--f0 requires --f-low and --f-high")
        q_l = relations.loaded_q(args.f0, args.f_low, args.f_high)
        q_u = relations.unloaded_q(q_l, k1, args.k2)
        kappa_c = relations.cavity_decay_rate(args.f0, q_l)
        results.update({
            "q_loaded": q_l, "q_unloaded": q_u,
            "kappa_c_per_s": kappa_c, "k2": args.k2,
        })
        headline += f"  Q_L = {q_l:.6g}  Q_u = {q_u:.6g}  kappa_c = {kappa_c:.6g} 1/s"
    return results, headline


def _cmd_thermal_photons(args):
    n_bar = relations.thermal_photons(args.f, args.temp)
    return {"f_hz": args.f, "temperature_k": args.temp, "n_bar": n_bar}, f"{n_bar:.6g}"


def _cmd_convert_power(args):
    import numpy as np
    from . import cavity
    from .trace import read_trace_csv, write_trace_csv

    kappa_c = _angular_rate(args.kappa_c, args.kappa_c_angular)
    results = {"coupling": args.coupling, "kappa_c_per_s": kappa_c, "f_hz": args.f}
    headline = None
    if args.trace:
        trace = read_trace_csv(args.trace, unit=args.unit)
        if args.unit == "dBm":
            watts = np.array([units.dbm_to_watts(v) for v in trace.y])
            trace = trace.with_values(watts, unit="watts")
        trace.require_unit("watts")
        photons = cavity.power_trace_to_photons(trace, args.coupling, kappa_c, args.f)
        csv_path = os.path.join(args.output_dir, "photon_trace.csv")
        write_trace_csv(csv_path, photons)
        if args.plot_script:
            _write_plot_script(csv_path, 1, logscale=True)
        results["photon_trace_csv"] = csv_path
        results["peak_photons"] = float(np.max(photons.y))
        headline = f"wrote {csv_path}"
    else:
        if args.dbm is not None:
            p_watts = units.dbm_to_watts(args.dbm)
        elif args.watts is not None:
            p_watts = args.watts
        else:
            raise UserInputError("provide --dbm, --watts, or --trace")
        photons = cavity.power_to_photons(p_watts, args.coupling, kappa_c, args.f)
        results.update({"power_watts": p_watts, "photons": photons})
        headline = f"{photons:.6g}"
    return results, headline


def _maser_params_from_args(args):
    from .synthetic import BURST_DEFAULTS

    values = dict(BURST_DEFAULTS)
    if args.params:
        values.update(_load_json_file(args.params, {*values, "t_max_us", "n_points", "photon0"}))
    # (parameter, value flag, flag marking 2 pi x quoting or None)
    for key, flag, angular in (("g_e", "ge_hz", "ge_angular"),
                               ("kappa_s", "kappa_s_hz", "kappa_s_angular"),
                               ("kappa_c", "kappa_c", "kappa_c_angular"),
                               ("gamma", "gamma", None), ("n_spins", "n_spins", None),
                               ("n_bar", "n_bar", None), ("inversion0", "inversion0", None),
                               ("delta", "delta", None)):
        value = getattr(args, flag)
        if value is not None:
            values[key] = _angular_rate(value, angular is not None and getattr(args, angular))
    return values


def _cmd_simulate_maser(args):
    import numpy as np
    from . import cqed
    from .trace import write_columns

    values = _maser_params_from_args(args)
    params, init = cqed.burst_system(values)
    # explicit flags take precedence over the parameter file
    t_max_us = args.t_max_us if args.t_max_us is not None else values.get("t_max_us", 15.0)
    t_max = t_max_us * 1e-6
    n_points = (args.points if args.points is not None
                else values.get("n_points", cqed.DEFAULT_NPOINTS))
    rtol = cqed.DEFAULT_RTOL if args.rtol is None else args.rtol
    atol = cqed.DEFAULT_ATOL if args.atol is None else args.atol
    traj = cqed.simulate_maser(params, init, (0.0, t_max),
                               rtol=rtol, atol=atol, n_points=n_points)

    csv_path = os.path.join(args.output_dir, "maser_trajectory.csv")
    write_columns(csv_path, "t_us,photon_number,re_coherence,im_coherence,"
                            "inversion,spin_correlation_per_N",
                  [traj.t * 1e6, traj.photon_number,
                   traj.coherence.real, traj.coherence.imag,
                   traj.inversion, traj.spin_correlation / params.n_spins])
    if args.plot_script:
        _write_plot_script(csv_path, 1, logscale=True)

    i_peak = int(np.argmax(traj.photon_number))
    results = {
        "trajectory_csv": csv_path,
        "peak_photon_number": float(traj.photon_number[i_peak]),
        "peak_time_us": float(traj.t[i_peak] * 1e6),
        "oscillation_count": cqed.count_oscillations(traj.photon_trace()),
        "predicted_rabi_hz": units.angular_to_ordinary(relations.predicted_rabi(params.g_e)),
        "parameters": values,
    }
    try:
        results["extracted_rabi_hz"] = cqed.extract_rabi_frequency(traj.photon_trace())
    except MaserkitError:
        results["extracted_rabi_hz"] = None
    return results, f"wrote {csv_path}"


def _cmd_fit_maser(args):
    from . import cavity, fitting, synthetic
    from .trace import read_trace_csv

    trace = read_trace_csv(args.trace, unit="photons")
    fixed = {k: synthetic.BURST_DEFAULTS[k] for k in HELD_BURST_KEYS}
    if args.fixed:
        fixed.update(_load_json_file(args.fixed, HELD_BURST_KEYS))
    if args.baseline_correct:
        corrected = cavity.baseline_correct(trace, fixed["n_bar"])
        trace = corrected.trace
    init = args.init if args.init else [
        synthetic.BURST_DEFAULTS["g_e"],
        synthetic.BURST_DEFAULTS["kappa_s"],
        synthetic.BURST_DEFAULTS["n_spins"],
    ]
    result = fitting.fit_maser_parameters(trace, fixed, init)
    g_e, kappa_s, n_spins = result.params
    c = relations.cooperativity(g_e, fixed["kappa_c"], kappa_s)
    results = {
        "g_e_per_s": g_e,
        "kappa_s_per_s": kappa_s,
        "n_spins": n_spins,
        "uncertainties": {
            "g_e_per_s": result.param_uncertainties[0],
            "kappa_s_per_s": result.param_uncertainties[1],
            "n_spins": result.param_uncertainties[2],
        },
        "residual_norm": result.residual_norm,
        "jacobian_condition": result.jacobian_condition,
        "iterations": result.iterations,
        "converged": result.converged,
        "cooperativity": c,
        "fixed": fixed,
    }
    head = (f"g_e = {g_e:.6g} 1/s  kappa_s = {kappa_s:.6g} 1/s  "
            f"N = {n_spins:.6g}  C = {c:.6g}")
    return results, head


def _cmd_cooperativity(args):
    if args.ge_hz is None or args.kappa_s_hz is None:
        raise UserInputError("cooperativity needs --ge-hz and --kappa-s-hz")
    g_e = _angular_rate(args.ge_hz, args.ge_angular)
    kappa_c = _angular_rate(args.kappa_c, args.kappa_c_angular)
    kappa_s = _angular_rate(args.kappa_s_hz, args.kappa_s_angular)
    c = relations.cooperativity(g_e, kappa_c, kappa_s)
    results = {
        "g_e_per_s": g_e, "kappa_c_per_s": kappa_c, "kappa_s_per_s": kappa_s,
        "cooperativity": c,
    }
    return results, f"{c:.6g}"


def _cmd_rabi(args):
    results = {}
    if args.trace:
        from . import cqed
        from .trace import read_trace_csv

        trace = read_trace_csv(args.trace, unit="photons")
        if (args.window_lo_us is None) != (args.window_hi_us is None):
            raise UserInputError("--window-lo-us and --window-hi-us go together")
        window = None
        if args.window_lo_us is not None:
            window = (args.window_lo_us * 1e-6, args.window_hi_us * 1e-6)
        f = cqed.extract_rabi_frequency(trace, burst_window=window)
        results["extracted_rabi_hz"] = f
        headline = f"{f:.6g}"
    elif args.ge_hz is not None:
        g_e = _angular_rate(args.ge_hz, args.ge_angular)
        omega = relations.predicted_rabi(g_e)
        results.update({
            "g_e_per_s": g_e,
            "predicted_rabi_per_s": omega,
            "predicted_rabi_hz": units.angular_to_ordinary(omega),
        })
        headline = f"{units.angular_to_ordinary(omega):.6g}"
    else:
        raise UserInputError("provide --trace or --ge-hz")
    return results, headline


def _cmd_svd_tas(args):
    from . import spectro
    from .trace import write_columns

    threshold = spectro.DEFAULT_SIGNIFICANCE if args.threshold is None else args.threshold
    matrix = spectro.read_matrix_csv(args.matrix)
    result = spectro.svd_global_analysis(matrix, threshold)
    component_files = []
    for i in range(result.significant_count):
        spec_path = os.path.join(args.output_dir, f"component_{i + 1}_spectrum.csv")
        write_columns(spec_path, "lambda_nm,value",
                      [matrix.wavelengths, result.spectral_components[i]])
        time_path = os.path.join(args.output_dir, f"component_{i + 1}_time.csv")
        write_columns(time_path, "delay_ps,value", [matrix.delays, result.time_profiles[i]])
        component_files.extend([spec_path, time_path])
    results = {
        "singular_values": [float(s) for s in result.singular_values],
        "significant_count": result.significant_count,
        "component_lifetimes_ps": [float(v) for v in result.component_lifetimes],
        "component_files": component_files,
    }
    head = (f"{result.significant_count} significant components; lifetimes (ps): "
            + ", ".join(f"{v:.4g}" for v in result.component_lifetimes))
    return results, head


def _cmd_fit_tcspc(args):
    from . import spectro
    from .trace import read_trace_csv

    trace = read_trace_csv(args.trace, unit=args.unit)
    fit = spectro.fit_tcspc(trace, args.components)
    results = {
        "lifetimes_ns": list(fit.lifetimes_ns),
        "amplitudes": list(fit.amplitudes),
        "residual_norm": fit.residual_norm,
        "converged": fit.converged,
    }
    pairs = ", ".join(f"tau={tau:.4g} ns (A={a:.3g})"
                      for tau, a in zip(fit.lifetimes_ns, fit.amplitudes))
    return results, pairs


def _cmd_quantum_yield(args):
    rates = relations.rates_from_lifetimes(args.tau_f_ns, args.tau_isc_ns)
    results = {
        "kappa_f_per_ns": rates.kappa_f,
        "kappa_isc_per_ns": rates.kappa_isc,
        "kappa_ic_plus_rad_per_ns": rates.kappa_ic_plus_rad,
        "theta_t": rates.theta_t,
    }
    return results, f"theta_T = {rates.theta_t:.4g}"


def _cmd_gen_synthetic(args):
    from . import synthetic
    from .trace import write_trace_csv

    overrides = _load_json_file(args.params) if args.params else None
    prefix = args.prefix or args.kind.replace("-", "_")
    noise = args.noise
    write = write_trace_csv
    if args.kind == "biexp-trepr":
        data, meta = synthetic.biexp_trepr(
            overrides, noise_rms=0.0 if noise is None else noise, seed=args.seed)
    elif args.kind == "maser-burst":
        data, meta = synthetic.maser_burst(
            overrides, noise_rms_log10=0.0 if noise is None else noise, seed=args.seed)
    elif args.kind == "rank2-tas":
        data, meta = synthetic.rank2_tas(
            overrides, noise_frac=0.01 if noise is None else noise, seed=args.seed)
        from .spectro import write_matrix_csv as write
    else:   # tcspc: argparse choices admit no other kind
        data, meta = synthetic.tcspc_decay(
            overrides, poisson=noise is None or noise > 0, seed=args.seed)
    data_path = os.path.join(args.output_dir, f"{prefix}.csv")
    write(data_path, data)
    if args.plot_script:
        _write_plot_script(data_path, 1, logscale=(args.kind == "maser-burst"))
    results = {"kind": args.kind, "files": [data_path], "generating_parameters": meta}
    return results, f"wrote {data_path}"


# ---------------------------------------------------------------------------
# parser construction


def _finite_float(text):
    """argparse type of every float option: nan and +-inf are refused."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _add_angular_pair(parser, stem, help_base):
    parser.add_argument(f"--{stem}-hz", type=_finite_float, default=None, help=help_base)
    parser.add_argument(f"--{stem}-angular", action="store_true",
                        help=f"the {stem} value is quoted as 2 pi x that number")


def build_parser():
    parser = _CliParser(prog="maserkit",
                        description="Triplet maser analysis toolkit")
    parser.add_argument("--version", action="version",
                        version=f"maserkit {__version__}")
    sub = parser.add_subparsers(dest="subcommand")

    common = _CliParser(add_help=False)
    common.add_argument("--output-dir", default=None,
                        help=f"output directory (default: ${OUTPUT_DIR_ENV} or '.')")
    common.add_argument("--out", default=None,
                        help="result JSON filename (default: <subcommand>.json)")
    common.add_argument("--plot-script", action="store_true",
                        help="also write a gnuplot script for CSV outputs")

    def add(name, help_text, handler):
        p = sub.add_parser(name, parents=[common], help=help_text)
        p.add_argument("--version", action="version",
                       version=f"maserkit {__version__}")
        p.set_defaults(handler=handler)
        return p

    p = add("simulate-triplet", "closed-form triplet sublevel trajectory",
            _cmd_simulate_triplet)
    p.add_argument("--params", required=True, help="JSON with rates and populations")
    p.add_argument("--t-max-us", type=_finite_float, default=20.0)
    p.add_argument("--points", type=int, default=800)

    p = add("fit-trepr", "biexponential fit of an EPR difference trace", _cmd_fit_trepr)
    p.add_argument("trace", help="two-column CSV (t_us,value)")
    p.add_argument("--unit", default="dimensionless")
    p.add_argument("--init", type=_finite_float, nargs=4, default=None,
                   metavar=("A", "B", "ALPHA_MINUS", "ALPHA_PLUS"),
                   help="starting guess; only the rates are used, and of two "
                        "equal rates the slower is halved")

    p = add("qcircle", "coupling and Q factors from Q-circle geometry", _cmd_qcircle)
    p.add_argument("--d", type=_finite_float, default=None, help="Q-circle diameter")
    p.add_argument("--d2", type=_finite_float, default=None,
                   help="auxiliary circle diameter (lossy case)")
    p.add_argument("--s11", default=None,
                   help="CSV of f_Hz,re_S11,im_S11 to circle-fit for d")
    p.add_argument("--f0", type=_finite_float, default=None, help="mode frequency Hz")
    p.add_argument("--f-low", type=_finite_float, default=None)
    p.add_argument("--f-high", type=_finite_float, default=None)
    p.add_argument("--k2", type=_finite_float, default=0.0, help="second port coupling")

    p = add("thermal-photons", "Bose-Einstein occupancy of a mode", _cmd_thermal_photons)
    p.add_argument("--f", type=_finite_float, required=True, help="frequency Hz")
    p.add_argument("--temp", type=_finite_float, required=True, help="temperature K")

    p = add("convert-power", "emitted power to intracavity photon number",
            _cmd_convert_power)
    p.add_argument("--dbm", type=_finite_float, default=None)
    p.add_argument("--watts", type=_finite_float, default=None)
    p.add_argument("--trace", default=None, help="CSV trace to convert")
    p.add_argument("--unit", default="watts", choices=("watts", "dBm"),
                   help="unit of the trace values")
    p.add_argument("--coupling", type=_finite_float, required=True)
    p.add_argument("--kappa-c", type=_finite_float, required=True)
    p.add_argument("--kappa-c-angular", action="store_true")
    p.add_argument("--f", type=_finite_float, required=True)

    p = add("simulate-maser", "mean-field maser burst simulation", _cmd_simulate_maser)
    p.add_argument("--params", default=None, help="JSON parameter file")
    _add_angular_pair(p, "ge", "spin-photon coupling")
    _add_angular_pair(p, "kappa-s", "spin dephasing rate")
    p.add_argument("--kappa-c", type=_finite_float, default=None)
    p.add_argument("--kappa-c-angular", action="store_true")
    p.add_argument("--gamma", type=_finite_float, default=None)
    p.add_argument("--n-spins", type=_finite_float, default=None)
    p.add_argument("--n-bar", type=_finite_float, default=None)
    p.add_argument("--inversion0", type=_finite_float, default=None)
    p.add_argument("--delta", type=_finite_float, default=None)
    p.add_argument("--t-max-us", type=_finite_float, default=None)
    p.add_argument("--points", type=int, default=None)
    p.add_argument("--rtol", type=_finite_float, default=None)
    p.add_argument("--atol", type=_finite_float, default=None)

    p = add("fit-maser", "fit (g_e, kappa_s, N) to a photon burst", _cmd_fit_maser)
    p.add_argument("trace", help="photon-number CSV")
    p.add_argument("--fixed", default=None,
                   help=f"JSON with any of {', '.join(HELD_BURST_KEYS)}")
    p.add_argument("--init", type=_finite_float, nargs=3, default=None,
                   metavar=("GE", "KAPPA_S", "N_SPINS"),
                   help="starting point, internal angular units")
    p.add_argument("--baseline-correct", action="store_true",
                   help="shift the pre-burst level to n_bar before fitting")

    p = add("cooperativity", "C = 4 g_e^2/(kappa_c kappa_s)", _cmd_cooperativity)
    _add_angular_pair(p, "ge", "spin-photon coupling")
    p.add_argument("--kappa-c", type=_finite_float, required=True)
    p.add_argument("--kappa-c-angular", action="store_true")
    _add_angular_pair(p, "kappa-s", "spin dephasing rate")

    p = add("rabi", "predict (from g_e) or extract (from a trace) the Rabi frequency",
            _cmd_rabi)
    _add_angular_pair(p, "ge", "spin-photon coupling")
    p.add_argument("--trace", default=None, help="photon-number CSV")
    p.add_argument("--window-lo-us", type=_finite_float, default=None)
    p.add_argument("--window-hi-us", type=_finite_float, default=None)

    p = add("svd-tas", "SVD global analysis of a transient-absorption matrix",
            _cmd_svd_tas)
    p.add_argument("matrix", help="CSV: first row wavelengths, first column delays")
    p.add_argument("--threshold", type=_finite_float, default=None)

    p = add("fit-tcspc", "multi-exponential tail fit of a counting decay", _cmd_fit_tcspc)
    p.add_argument("trace", help="two-column CSV (t_us,value)")
    p.add_argument("--components", type=int, default=2, choices=(1, 2, 3))
    p.add_argument("--unit", default="photons")

    p = add("quantum-yield", "triplet yield from fluorescence and ISC lifetimes",
            _cmd_quantum_yield)
    p.add_argument("--tau-f-ns", type=_finite_float, required=True)
    p.add_argument("--tau-isc-ns", type=_finite_float, required=True)

    p = add("gen-synthetic", "deterministic synthetic datasets", _cmd_gen_synthetic)
    p.add_argument("--kind", required=True,
                   choices=("biexp-trepr", "maser-burst", "rank2-tas", "tcspc"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--noise", type=_finite_float, default=None,
                   help="noise level; meaning depends on kind")
    p.add_argument("--params", default=None, help="JSON overriding generator defaults")
    p.add_argument("--prefix", default=None, help="output filename stem")

    return parser


def main(argv=None):
    """Run one subcommand; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UserInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:   # --help / --version
        return 0 if exc.code in (0, None) else 1

    if args.subcommand is None:
        parser.print_usage(sys.stderr)
        return 1

    if args.output_dir is None:
        args.output_dir = os.environ.get(OUTPUT_DIR_ENV, ".")

    manifest = RunManifest(
        subcommand=args.subcommand,
        inputs=[getattr(args, attr) for attr in ("trace", "matrix", "s11")
                if getattr(args, attr, None)],
        parameter_file=getattr(args, "params", None) or getattr(args, "fixed", None),
        output_dir=args.output_dir,
        seed=getattr(args, "seed", None),
        version=__version__,
    )

    try:
        os.makedirs(args.output_dir, exist_ok=True)
        results, headline = args.handler(args)
        json_path = os.path.join(args.output_dir, args.out or f"{args.subcommand}.json")
        write_result_json(json_path, manifest, results)
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (MaserkitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if headline:
        print(headline)
    return 0


def entry_point():
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
