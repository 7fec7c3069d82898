"""Per-layer metrics from the traced run, named after maserkit's modules.

Counts and times are totals over the traced pass(es), which run exactly
the ops of the timed pass(es).  A layer a workload does not reach reads 0.
"""

import subprocess
import sys

import numpy as np

from .stats import best_times, fact_max, fact_sum, median
from .workloads import canonical_burst_system

# name, unit, which direction is better
PER_LAYER = [
    ("cqed.calls", "count", "lower"),
    ("cqed.busy_s", "s", "lower"),
    ("cqed.call_s_p50", "s", "lower"),
    ("cqed.share", "fraction", "lower"),
    ("cqed.failed", "count", "lower"),
    ("cqed.logerr_max", "dex", "lower"),
    ("cqed.rabi_busy_s", "s", "lower"),
    ("fitting.fits", "count", "lower"),
    ("fitting.nlls_calls", "count", "lower"),
    ("fitting.nlls_busy_s", "s", "lower"),
    ("fitting.nlls_self_s", "s", "lower"),
    ("fitting.iterations", "count", "lower"),
    ("fitting.presolve_sims", "count", "lower"),
    ("fitting.polish_sims", "count", "lower"),
    ("fitting.fallback_sims", "count", "lower"),
    ("fitting.fallback_runs", "count", "lower"),
    ("fitting.param_err_max", "fraction", "lower"),
    ("fitting.resid_over_floor", "ratio", "lower"),
    ("fitting.z_max", "sigma", "lower"),
    ("fitting.false_converged", "count", "lower"),
    ("spectro.svd_busy_s", "s", "lower"),
    ("spectro.tcspc_busy_s", "s", "lower"),
    ("spectro.nlls_calls", "count", "lower"),
    ("spectro.tau_err_max", "fraction", "lower"),
    ("triplet.busy_s", "s", "lower"),
    ("cavity.busy_s", "s", "lower"),
    ("trace.read_busy_s", "s", "lower"),
    ("synthetic.busy_s", "s", "lower"),
    ("cli.interp_s", "s", "lower"),
    ("cli.import_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.exit_nonzero", "count", "lower"),
    ("tracing.overhead_frac", "fraction", "lower"),
]

SIM = "cqed.simulate_maser"
NLLS = "fitting.nlls_minimize"
FIT = "fitting.fit_maser_parameters"
SPECTRO_FITS = ("spectro.svd_global_analysis", "spectro.fit_tcspc")
CSV_READS = ("trace.read_trace_csv", "spectro.read_matrix_csv")
LOGERR_REF_RTOL = 1e-12


def layer_busy(tracer, layer):
    """Seconds inside spans of `layer`, counting nested same-layer spans once."""
    names = {s.name for s in tracer.spans if s.name.startswith(layer + ".")}
    return sum(s.seconds for i, s in enumerate(tracer.spans)
               if s.name in names and not tracer.has_ancestor(i, names))


def _sum_named(tracer, *names):
    return sum(s.seconds for s in tracer.named(*names))


def fit_stages(tracer):
    """Simulation counts per maser-fit stage, summed over fits.

    Stages 1-2 are the simulations a fit makes before its first
    nlls_minimize; stage 3 is the first nlls_minimize (the polish); a fit
    with three nlls_minimize calls ran the stage-4 fallback, whose
    simulations are those of the later calls.
    """
    kids = tracer.children()
    out = {"fits": 0, "presolve": 0, "polish": 0, "fallback": 0, "fallback_runs": 0}

    def sims_inside(i):
        return sum(1 for d in tracer.descendants(i, kids) if tracer.spans[d].name == SIM)

    for f, span in enumerate(tracer.spans):
        if span.name != FIT:
            continue
        out["fits"] += 1
        nlls = [k for k in kids[f] if tracer.spans[k].name == NLLS]
        first = nlls[0] if nlls else None
        out["presolve"] += sum(1 for k in kids[f] if tracer.spans[k].name == SIM
                               and (first is None or k < first))
        if first is not None:
            out["polish"] += sims_inside(first)
        out["fallback"] += sum(sims_inside(k) for k in nlls[1:])
        out["fallback_runs"] += int(len(nlls) >= 3)
    return out


def compute(tracer, gen_tracer, records, untraced_wall, traced_wall, probes, cli_ops):
    """Every PER_LAYER metric, by name."""
    sims = tracer.named(SIM)
    sim_s = [s.seconds for s in sims]
    self_s = tracer.self_seconds()
    nlls = [i for i, s in enumerate(tracer.spans) if s.name == NLLS]
    stages = fit_stages(tracer)
    m = {
        "cqed.calls": len(sims),
        "cqed.busy_s": sum(sim_s),
        "cqed.call_s_p50": median(sim_s),
        "cqed.share": sum(sim_s) / traced_wall,
        "cqed.failed": sum(1 for s in sims if s.error == "IntegrationFailureError"),
        "cqed.logerr_max": probes["logerr_max"],
        "cqed.rabi_busy_s": _sum_named(tracer, "cqed.extract_rabi_frequency",
                                       "cqed.count_oscillations"),
        "fitting.fits": stages["fits"],
        "fitting.nlls_calls": len(nlls),
        "fitting.nlls_busy_s": sum(tracer.spans[i].seconds for i in nlls),
        "fitting.nlls_self_s": sum(self_s[i] for i in nlls),
        "fitting.iterations": sum(tracer.spans[i].note or 0 for i in nlls),
        "fitting.presolve_sims": stages["presolve"],
        "fitting.polish_sims": stages["polish"],
        "fitting.fallback_sims": stages["fallback"],
        "fitting.fallback_runs": stages["fallback_runs"],
        "fitting.param_err_max": fact_max(records, "param_err"),
        "fitting.resid_over_floor": fact_max(records, "resid_over_floor"),
        "fitting.z_max": fact_max(records, "z"),
        "fitting.false_converged": fact_sum(records, "false_converged"),
        "spectro.svd_busy_s": _sum_named(tracer, "spectro.svd_global_analysis"),
        "spectro.tcspc_busy_s": _sum_named(tracer, "spectro.fit_tcspc"),
        "spectro.nlls_calls": sum(1 for i in nlls if tracer.has_ancestor(i, SPECTRO_FITS)),
        "spectro.tau_err_max": fact_max(records, "tau_err"),
        "triplet.busy_s": layer_busy(tracer, "triplet"),
        "cavity.busy_s": layer_busy(tracer, "cavity"),
        "trace.read_busy_s": _sum_named(tracer, *CSV_READS),
        "synthetic.busy_s": layer_busy(gen_tracer, "synthetic"),
        "cli.interp_s": probes["interp_s"],
        "cli.import_s": probes["import_s"],
        "cli.self_s": 0.0,
        "cli.exit_nonzero": 0,
        "tracing.overhead_frac": traced_wall / untraced_wall - 1.0,
    }
    if cli_ops:
        m["cli.self_s"] = (median(best_times(records))
                           - probes["interp_s"] - probes["import_s"])
        m["cli.exit_nonzero"] = sum(1 for r in records if r.error is not None)
    return m


# ---------------------------------------------------------------------------
# untimed probes


def logerr_max(mk):
    """Max |dlog10 n| of simulate_maser at default tolerances on the canonical
    burst grid, against an rtol 1e-12 simulate_maser reference."""
    params, init = canonical_burst_system(mk)
    span = (0.0, 15e-6)
    fast = mk.cqed.simulate_maser(params, init, span, n_points=600)
    ref = mk.cqed.simulate_maser(params, init, span, n_points=600, rtol=LOGERR_REF_RTOL)
    return float(np.max(np.abs(np.log10(fast.photon_number) - np.log10(ref.photon_number))))


def _start_seconds(code, env, repeats, clock):
    times = []
    for _ in range(repeats):
        t0 = clock()
        subprocess.run([sys.executable, "-c", code], env=env, check=True,
                       stdout=subprocess.DEVNULL)
        times.append(clock() - t0)
    return min(times)


def cli_start_probes(env, repeats, clock):
    """Bare interpreter start, and a fresh `import maserkit.cli` beyond it.

    Best of `repeats` fresh processes each, like the op times they are
    subtracted from in cli.self_s.
    """
    interp = _start_seconds("pass", env, repeats, clock)
    return {"interp_s": interp,
            "import_s": _start_seconds("import maserkit.cli", env, repeats, clock) - interp}
