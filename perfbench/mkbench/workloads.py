"""The benchmark's workloads.

Each workload turns a seed into input files (`generate`, timed as
set-up), then into a list of ops (`ops`, which also computes untimed
correctness references).  maserkit receives only the generated files and
scalars.  Every call into maserkit goes through its submodule attributes
(`mk.fitting.fit_maser_parameters`, ...) so the traced run sees it.

A pass runs every op once.  The number of passes is ceil(seconds /
nominal_pass_s), with nominal_pass_s a fixed constant per workload, so a
given --seconds always means the same amount of work and wall_s compares
across commits.
"""

import importlib
import itertools
import json
import math
import operator
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import oracle
from .stats import Op

MODULES = ("cavity", "cqed", "errors", "fitting", "spectro", "synthetic", "trace", "triplet")


def load_maserkit(src):
    """Import maserkit from `src` and return its submodules by short name."""
    mk = SimpleNamespace(**{m: importlib.import_module(f"maserkit.{m}") for m in MODULES})
    where = Path(mk.cqed.__file__).resolve()
    if Path(src).resolve() not in where.parents:
        raise RuntimeError(f"maserkit was imported from {where}, not from {src}")
    return mk


def trace_targets(mk):
    """(module, attribute, note) for every public function the traced run wraps."""
    iterations = operator.attrgetter("iterations")
    return [
        (mk.cqed, "simulate_maser", None),
        (mk.cqed, "extract_rabi_frequency", None),
        (mk.cqed, "count_oscillations", None),
        (mk.fitting, "nlls_minimize", iterations),
        (mk.fitting, "fit_maser_parameters", None),
        (mk.fitting, "fit_biexponential", None),
        (mk.spectro, "svd_global_analysis", None),
        (mk.spectro, "fit_tcspc", None),
        (mk.spectro, "rates_from_lifetimes", None),
        (mk.spectro, "read_matrix_csv", None),
        (mk.triplet, "combined_rate_from_eigen", None),
        (mk.triplet, "zero_crossing_time", None),
        (mk.triplet, "predicted_trepr_signal", None),
        (mk.cavity, "fit_reflection_circle", None),
        (mk.cavity, "coupling_from_qcircle", None),
        (mk.cavity, "loaded_q", None),
        (mk.cavity, "unloaded_q", None),
        (mk.cavity, "cavity_decay_rate", None),
        (mk.cavity, "thermal_photons", None),
        (mk.trace, "read_trace_csv", None),
        (mk.synthetic, "maser_burst", None),
        (mk.synthetic, "biexp_trepr", None),
        (mk.synthetic, "tcspc_decay", None),
        (mk.synthetic, "rank2_tas", None),
        (mk.synthetic, "damped_cosine_burst", None),
    ]


def _burst_truth_and_fixed(mk):
    p = mk.synthetic.BURST_DEFAULTS
    truth = np.array([p["g_e"], p["kappa_s"], p["n_spins"]])
    fixed = {k: p[k] for k in ("kappa_c", "gamma", "n_bar", "inversion0", "delta")}
    return truth, fixed


# ---------------------------------------------------------------------------
# maser fits


class MaserFitClean:
    """fit_maser_parameters on the noiseless canonical burst.

    The starts are the acceptance-08 starts, truth x {0.7, 1.3}^3.  Stage 1
    of the fit relocates g_e from the rise's growth rate, so the work of a
    fit depends on the kappa_s and N factors only.  The (0.7, 0.7) class
    ends stage 3 above the residual threshold, runs the stage-4 fallback
    and costs about twice the simulations of the other three classes.  A
    pass fits the (0.7, 0.7) class and two of the other three, so that
    every pass holds one fallback fit and two direct ones; the seed picks
    the two classes, the g_e factor of each start and the order.
    """

    name = "maser_fit_clean"
    measures_children = False
    nominal_pass_s = 50.0
    fallback_class = (0.7, 0.7)
    direct_classes = ((0.7, 1.3), (1.3, 0.7), (1.3, 1.3))

    def generate(self, mk, seed, workdir):
        trace, meta = mk.synthetic.maser_burst()
        path = workdir / "burst.csv"
        mk.trace.write_trace_csv(path, trace)
        rng = np.random.default_rng(seed)
        picked = rng.choice(len(self.direct_classes), size=2, replace=False)
        classes = [self.fallback_class] + [self.direct_classes[i] for i in picked]
        starts = [(float(rng.choice((0.7, 1.3))),) + classes[i] for i in rng.permutation(3)]
        return {"path": path, "starts": starts}

    def ops(self, mk, inputs):
        truth, fixed = _burst_truth_and_fixed(mk)
        path = inputs["path"]

        def make(factors):
            def run():
                data = mk.trace.read_trace_csv(path, unit="photons")
                return mk.fitting.fit_maser_parameters(data, fixed, truth * np.array(factors))
            return Op(f"fit start x{factors}", run, lambda res: oracle.maser_fit(res, truth))

        return [make(f) for f in inputs["starts"]]


class MaserFitNoisy:
    """fit_maser_parameters on the canonical burst with log10 noise.

    Two ops, noise 0.005 and 0.02, from the CLI default start
    (BURST_DEFAULTS); the seed is the noise seed of synthetic.maser_burst.
    Stage 4 runs on every noisy trace.  One fit takes 20-509 s on the
    seed code, so this workload is not in BENCHMARK.json: a run can
    exceed the per-run time limit.  Run it by hand for the noisy layers.
    """

    name = "maser_fit_noisy"
    measures_children = False
    nominal_pass_s = 300.0
    noise_levels = (0.005, 0.02)

    def generate(self, mk, seed, workdir):
        traces = []
        for noise in self.noise_levels:
            trace, _ = mk.synthetic.maser_burst(noise_rms_log10=noise, seed=seed)
            path = workdir / f"burst_noise{noise}.csv"
            mk.trace.write_trace_csv(path, trace)
            traces.append((noise, path, len(trace)))
        return {"traces": traces}

    def ops(self, mk, inputs):
        truth, fixed = _burst_truth_and_fixed(mk)

        def make(noise, path, n_samples):
            def run():
                data = mk.trace.read_trace_csv(path, unit="photons")
                return mk.fitting.fit_maser_parameters(data, fixed, truth.copy())
            return Op(f"fit noise {noise}", run,
                      lambda res: oracle.maser_fit(res, truth, noise, n_samples))

        return [make(*t) for t in inputs["traces"]]


# ---------------------------------------------------------------------------
# analysis chain


S11_POINTS = 75          # test_cavity's circle
S11_NOISE = 1e-4
THERMAL_TEMPERATURE = 290.0


def _write_s11(path, rng):
    """A noisy reflection circle plus the Q-circle scalars; returns the truth."""
    cx, cy = rng.uniform(0.45, 0.75), rng.uniform(-0.1, 0.1)
    radius = rng.uniform(0.2, 0.45)
    f0 = rng.uniform(1.474e9, 1.478e9)
    q_loaded = rng.uniform(3000.0, 4500.0)
    theta = np.linspace(0.0, 2.0 * np.pi, S11_POINTS, endpoint=False)
    re = cx + radius * np.cos(theta) + S11_NOISE * rng.standard_normal(S11_POINTS)
    im = cy + radius * np.sin(theta) + S11_NOISE * rng.standard_normal(S11_POINTS)
    f = np.linspace(f0 * (1 - 3 / q_loaded), f0 * (1 + 3 / q_loaded), S11_POINTS)
    np.savetxt(path, np.column_stack([f, re, im]), fmt="%.17g", delimiter=",",
               header="f_Hz,re_S11,im_S11", comments="")
    half_bw = 0.5 * f0 / q_loaded
    return {"radius": radius, "d2": rng.uniform(1.7, 1.95), "f0": f0,
            "f_low": f0 - half_bw, "f_high": f0 + half_bw,
            "temperature": THERMAL_TEMPERATURE}


def qcircle_chain(mk, path, cav):
    """Circle fit of an S11 file, then coupling, Q factors, kappa_c and n_bar.

    Keys follow the `qcircle` CLI result where the CLI reports the value.
    """
    raw = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    center, radius, d = mk.cavity.fit_reflection_circle(raw[:, 1], raw[:, 2])
    k1 = mk.cavity.coupling_from_qcircle(mk.cavity.QCircleGeometry(d=d, d2=cav["d2"]))
    q_l = mk.cavity.loaded_q(cav["f0"], cav["f_low"], cav["f_high"])
    return {"d": d, "coupling_k1": k1, "q_loaded": q_l,
            "q_unloaded": mk.cavity.unloaded_q(q_l, k1, 0.0),
            "kappa_c_per_s": mk.cavity.cavity_decay_rate(cav["f0"], q_l),
            "n_bar": mk.cavity.thermal_photons(cav["f0"], cav["temperature"])}


class AnalysisChain:
    """Every seed-derived input set read from CSV and analysed in full.

    One op is one set: biexponential trEPR fit plus the triplet rate
    identities; TCSPC fits with 1, 2 and 3 components plus the quantum
    yield; SVD global analysis of a rank-2 TAS matrix; the reflection
    circle and the Q-circle / thermal-photon chain; Rabi frequency and
    ripple count of a damped-cosine burst.  simulate_maser never runs.

    The noisy traces (trEPR, TCSPC, TAS) use the generator seeds
    0..n_sets-1, a fixed sample of noise realizations; the run seed
    permutes them over the sets and draws the noiseless inputs (circle geometry, mode
    frequency and Q, Rabi frequency).  Whether a noisy fit passes its 5%
    tolerance, and how long it takes, depends on its noise realization;
    with seed-drawn realizations ok_frac alone would spread by about
    1/sqrt(n_sets) from seed to seed, far beyond the benchmark's bounds.
    The slowest set is timed at a few instants only, and on a shared host
    the CPU speed can drift by tens of percent within seconds, so a run
    makes several short passes over few sets rather than one long pass:
    op_s_max is then a best of three.
    """

    name = "analysis_chain"
    measures_children = False
    n_sets = 48
    nominal_pass_s = 8.4

    def generate(self, mk, seed, workdir):
        rng = np.random.default_rng(seed)
        clean, _ = mk.synthetic.biexp_trepr()
        biexp_noise = 0.01 * float(np.max(np.abs(clean.y)))
        sets = []
        for i, noise_seed in enumerate(rng.permutation(self.n_sets).tolist()):
            stem = workdir / f"set{i:03d}"
            trepr, biexp_meta = mk.synthetic.biexp_trepr(noise_rms=biexp_noise, seed=noise_seed)
            mk.trace.write_trace_csv(f"{stem}_trepr.csv", trepr)
            decay, tcspc_meta = mk.synthetic.tcspc_decay(seed=noise_seed)
            mk.trace.write_trace_csv(f"{stem}_tcspc.csv", decay)
            matrix, tas_meta = mk.synthetic.rank2_tas(noise_frac=0.01, seed=noise_seed)
            mk.spectro.write_matrix_csv(f"{stem}_tas.csv", matrix)
            cavity_truth = _write_s11(f"{stem}_s11.csv", rng)
            burst, rabi_meta = mk.synthetic.damped_cosine_burst(
                f_rabi=rng.uniform(1.5e6, 1.7e6))
            mk.trace.write_trace_csv(f"{stem}_rabi.csv", burst)
            sets.append({"stem": str(stem), "truth": {
                "biexp": biexp_meta, "tcspc": tcspc_meta, "tas": tas_meta,
                "cavity": cavity_truth, "rabi": rabi_meta}})
        return {"sets": sets}

    @staticmethod
    def analyse(mk, stem, cav):
        """The timed chain for one input set; returns everything the oracle checks.

        A fit that ends in maserkit's documented NumericalError is an
        output like any other: the exception is kept in place of the
        result for the oracle to judge, and the steps that need that
        result are skipped.  Any other exception fails the op.
        """
        def attempt(fn, *args):
            try:
                return fn(*args)
            except mk.errors.NumericalError as exc:
                return exc

        out = {}
        fit = attempt(mk.fitting.fit_biexponential, mk.trace.read_trace_csv(f"{stem}_trepr.csv"))
        out["biexp"] = fit
        if not isinstance(fit, Exception):
            out["combined_rate"] = mk.triplet.combined_rate_from_eigen(
                fit.alpha_minus, fit.alpha_plus)
            crossing = mk.triplet.zero_crossing_time(fit)
            out["zero_crossing"] = crossing
            if crossing is not None:
                out["signal_at_crossing"] = float(
                    mk.triplet.predicted_trepr_signal(fit, [crossing]).y[0])

        decay = mk.trace.read_trace_csv(f"{stem}_tcspc.csv", unit="photons")
        out["tcspc"] = [attempt(mk.spectro.fit_tcspc, decay, k) for k in (1, 2, 3)]
        if not isinstance(out["tcspc"][1], Exception):
            out["rates"] = mk.spectro.rates_from_lifetimes(*out["tcspc"][1].lifetimes_ns)

        out["svd"] = attempt(mk.spectro.svd_global_analysis,
                             mk.spectro.read_matrix_csv(f"{stem}_tas.csv"))

        out["qcircle"] = qcircle_chain(mk, f"{stem}_s11.csv", cav)

        burst = mk.trace.read_trace_csv(f"{stem}_rabi.csv", unit="photons")
        out["rabi_hz"] = attempt(mk.cqed.extract_rabi_frequency, burst)
        out["ripples"] = mk.cqed.count_oscillations(burst)
        return out

    def ops(self, mk, inputs):
        def make(entry):
            stem, truth = entry["stem"], entry["truth"]
            return Op(Path(stem).name, lambda: self.analyse(mk, stem, truth["cavity"]),
                      lambda out: oracle.analysis_set(out, truth))
        return [make(e) for e in inputs["sets"]]


# ---------------------------------------------------------------------------
# cold CLI


@dataclass
class CliRun:
    exit_code: int
    stdout: str
    stderr: str
    doc: dict | None
    rss_mb: float
    outdir: Path


def cli_env(src):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    return env


def run_cli(argv, env, workdir, outdir):
    """Run `python -m maserkit.cli argv` to completion; return a CliRun.

    The child is reaped with os.wait4 so its own peak RSS is known.
    """
    Path(outdir).mkdir(parents=True)
    out_path, err_path = Path(outdir) / "stdout.txt", Path(outdir) / "stderr.txt"
    with open(out_path, "w") as fo, open(err_path, "w") as fe:
        proc = subprocess.Popen([sys.executable, "-m", "maserkit.cli", *argv,
                                 "--output-dir", str(outdir)],
                                stdout=fo, stderr=fe, env=env, cwd=workdir)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    doc = None
    json_path = Path(outdir) / f"{argv[0]}.json"
    if proc.returncode == 0 and json_path.is_file():
        doc = json.loads(json_path.read_text())
    return CliRun(proc.returncode, out_path.read_text(), err_path.read_text(), doc,
                  usage.ru_maxrss / 1024.0, Path(outdir))


class CliFailed(Exception):
    pass


class CliCold:
    """A fixed script of fresh `python -m maserkit.cli` processes.

    Each command imports maserkit and scipy from cold, so start-up costs
    more than the work; this is the only workload that runs the `cli`
    layer (argparse, the manifest, schema validation, the CSV writers).
    The seed generates the data files and the scalar arguments.
    """

    name = "cli_cold"
    nominal_pass_s = 12.5
    measures_children = True

    def generate(self, mk, seed, workdir):
        rng = np.random.default_rng(seed)
        clean, _ = mk.synthetic.biexp_trepr()
        trepr, _ = mk.synthetic.biexp_trepr(
            noise_rms=0.01 * float(np.max(np.abs(clean.y))), seed=int(rng.integers(2**31)))
        mk.trace.write_trace_csv(workdir / "trepr.csv", trepr)
        matrix, _ = mk.synthetic.rank2_tas(noise_frac=0.01, seed=int(rng.integers(2**31)))
        mk.spectro.write_matrix_csv(workdir / "tas.csv", matrix)
        decay, _ = mk.synthetic.tcspc_decay(seed=int(rng.integers(2**31)))
        mk.trace.write_trace_csv(workdir / "tcspc.csv", decay)
        cavity = _write_s11(workdir / "s11.csv", rng)
        (workdir / "burst.json").write_text(json.dumps(mk.synthetic.BURST_DEFAULTS))
        scale = rng.uniform(0.9, 1.1, size=4).tolist()
        return {
            "workdir": workdir, "cavity": cavity,
            "ge": 2.0 * math.pi * 2.3e6 * scale[0], "kappa_c": 2.517e6,
            "kappa_s": 2.0 * math.pi * 0.29e6 * scale[1],
            "tau_f": 0.46 * scale[2], "tau_isc": 0.685 * scale[3],
        }

    def ops(self, mk, inputs):
        wd = inputs["workdir"]
        cav = inputs["cavity"]
        cav_chain = qcircle_chain(mk, wd / "s11.csv", cav)
        n_bar = cav_chain.pop("n_bar")
        trepr = mk.fitting.fit_biexponential(mk.trace.read_trace_csv(wd / "trepr.csv"))
        svd = mk.spectro.svd_global_analysis(mk.spectro.read_matrix_csv(wd / "tas.csv"))
        tcspc = mk.spectro.fit_tcspc(mk.trace.read_trace_csv(wd / "tcspc.csv", unit="photons"), 2)
        coop = mk.cqed.cooperativity(inputs["ge"], inputs["kappa_c"], inputs["kappa_s"])
        qy = mk.spectro.rates_from_lifetimes(inputs["tau_f"], inputs["tau_isc"])
        burst = _burst_reference(mk)
        script = [
            (["thermal-photons", "--f", repr(cav["f0"]), "--temp", repr(cav["temperature"])],
             {"headline_values": [n_bar], "results": {"n_bar": n_bar}}),
            (["qcircle", "--s11", str(wd / "s11.csv"), "--d2", repr(cav["d2"]),
              "--f0", repr(cav["f0"]), "--f-low", repr(cav["f_low"]),
              "--f-high", repr(cav["f_high"])],
             {"headline_values": [cav_chain["coupling_k1"], cav_chain["q_loaded"],
                                  cav_chain["q_unloaded"], cav_chain["kappa_c_per_s"]],
              "results": cav_chain}),
            (["cooperativity", "--ge-hz", repr(inputs["ge"]), "--kappa-c", repr(inputs["kappa_c"]),
              "--kappa-s-hz", repr(inputs["kappa_s"])],
             {"headline_values": [coop], "results": {"cooperativity": coop}}),
            (["quantum-yield", "--tau-f-ns", repr(inputs["tau_f"]),
              "--tau-isc-ns", repr(inputs["tau_isc"])],
             {"headline_values": [qy.theta_t], "results": {"theta_t": qy.theta_t}}),
            (["fit-trepr", str(wd / "trepr.csv")],
             {"headline_values": [trepr.A, trepr.B, trepr.alpha_minus, trepr.alpha_plus],
              "results": {"A": trepr.A, "B": trepr.B, "alpha_minus": trepr.alpha_minus,
                          "alpha_plus": trepr.alpha_plus}}),
            (["svd-tas", str(wd / "tas.csv")],
             {"headline_values": [svd.significant_count, *svd.component_lifetimes],
              "results": {"significant_count": svd.significant_count,
                          "component_lifetimes_ps": list(svd.component_lifetimes)}}),
            (["fit-tcspc", str(wd / "tcspc.csv")],
             {"headline_values": [v for pair in zip(tcspc.lifetimes_ns, tcspc.amplitudes)
                                  for v in pair],
              "results": {"lifetimes_ns": list(tcspc.lifetimes_ns)}}),
            (["simulate-maser", "--params", str(wd / "burst.json")],
             {"results": burst}),
        ]
        schema = json.loads((Path(mk.cqed.__file__).parent / "schemas"
                             / "result.schema.json").read_text())
        env = cli_env(Path(mk.cqed.__file__).parent.parent)
        counter = itertools.count()

        def make(argv, expected):
            def run():
                outdir = wd / "cli" / f"{next(counter):04d}-{argv[0]}"
                res = run_cli(argv, env, wd, outdir)
                if res.exit_code != 0:
                    raise CliFailed(f"exit {res.exit_code}: {res.stderr.strip()[-200:]}")
                return res

            def check(res):
                want = dict(expected)
                if argv[0] == "simulate-maser":
                    want["headline"] = f"wrote {res.outdir / 'maser_trajectory.csv'}"
                verdict = oracle.cli_command(res, want, schema)
                verdict.facts["rss_mb"] = res.rss_mb
                return verdict
            return Op(argv[0], run, check)

        return [make(argv, expected) for argv, expected in script]


def canonical_burst_system(mk):
    """(MaserSystemParams, MaserState) of the canonical burst, BURST_DEFAULTS."""
    p = mk.synthetic.BURST_DEFAULTS
    params = mk.cqed.MaserSystemParams(
        g_e=p["g_e"], kappa_c=p["kappa_c"], kappa_s=p["kappa_s"], gamma=p["gamma"],
        delta=p["delta"], n_spins=p["n_spins"], n_bar=p["n_bar"])
    init = mk.cqed.MaserState(photon_number=p["n_bar"], coherence=0.0,
                              inversion=p["inversion0"], spin_correlation=0.0)
    return params, init


def _burst_reference(mk):
    """In-process simulate-maser on the canonical parameters, as the CLI runs it."""
    traj = mk.cqed.simulate_maser(*canonical_burst_system(mk), (0.0, 15e-6))
    return {"peak_photon_number": float(np.max(traj.photon_number)),
            "oscillation_count": mk.cqed.count_oscillations(traj.photon_trace())}


WORKLOADS = {w.name: w for w in (MaserFitClean(), MaserFitNoisy(), AnalysisChain(), CliCold())}
