"""maserkit benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload maser_fit_clean --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout; the package under test is always
`<checkout>/src/maserkit`.  Every input is generated from --seed.  The
timed passes trace nothing and report the end-to-end metrics; --trace 1
adds an identical traced pass (the functions in workloads.trace_targets
rebound to span-recording wrappers, then restored) and reports the
per-layer metrics instead.  Human-readable lines, the environment and the
oracle verdicts come first; the last line of stdout is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Exit code 2 without a result line when the checkout has no maserkit
source or the run cannot be set up.
"""

import argparse
import json
import math
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from importlib.metadata import version
from pathlib import Path

# BLAS and OpenMP pools are fixed before numpy loads, here and in every
# subprocess, so runs compare on one thread per process.
BLAS_THREADS = "1"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 3
PROBE_REPEATS = 3
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import maserkit; "
                "print(time.perf_counter() - t)")

# name, unit, better
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("op_s_p50", "s", "lower"),
    ("op_s_max", "s", "lower"),
    ("ok_frac", "fraction", "higher"),
    ("peak_rss_mb", "MB", "lower"),
]

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

os.environ.update({v: BLAS_THREADS for v in THREAD_VARS})
sys.path[:0] = [str(SRC), str(HERE)]
import numpy  # noqa: E402  (after the thread pins)
import scipy  # noqa: E402
from mkbench import layers, oracle, stats, workloads  # noqa: E402
from mkbench.envinfo import git_commit, tree_sha256  # noqa: E402
from mkbench.tracing import Tracer  # noqa: E402

clock = time.perf_counter


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="sets the passes per run: ceil(seconds / the workload's nominal pass)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_seconds(src):
    """`import maserkit` timed inside a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(src)],
                         capture_output=True, text=True, check=True)
    return float(out.stdout)


def set_up(workload, src, seed, workdir):
    """Generate the inputs SETUP_REPEATS times; return (inputs, mk, setup_s).

    One set-up is a fresh `import maserkit` plus generating and writing
    the inputs; setup_s is the median over the repeats.
    """
    imports = [import_seconds(src) for _ in range(SETUP_REPEATS)]
    mk = workloads.load_maserkit(src)
    gens = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(workdir / "inputs", ignore_errors=True)
        (workdir / "inputs").mkdir(parents=True)
        t0 = clock()
        inputs = workload.generate(mk, seed, workdir / "inputs")
        gens.append(clock() - t0)
    return inputs, mk, stats.median([a + b for a, b in zip(imports, gens)])


def peak_rss_mb(workload, records):
    if workload.measures_children:
        return max((r.verdict.facts.get("rss_mb", 0.0) for r in records), default=0.0)
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def traced_run(workload, mk, seed, ops, passes, untraced_wall, workdir, src):
    """Traced pass over the same ops plus the untimed probes; per-layer metrics."""
    (workdir / "traced_inputs").mkdir()
    with Tracer().install(workloads.trace_targets(mk)) as gen_tracer:
        workload.generate(mk, seed, workdir / "traced_inputs")
    with Tracer().install(workloads.trace_targets(mk)) as tracer:
        records, wall = stats.run_ops(ops, passes)
    probes = {"logerr_max": layers.logerr_max(mk)}
    probes.update(layers.cli_start_probes(workloads.cli_env(src), PROBE_REPEATS, clock))
    metrics = layers.compute(tracer, gen_tracer, records, untraced_wall, wall, probes,
                             cli_ops=workload.measures_children)
    return records, metrics


def environment(root, src, args, passes):
    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "jsonschema": version("jsonschema"),
        "platform": platform.platform(), "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "git_commit": git_commit(root), "src_sha256": tree_sha256(src / "maserkit"),
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "passes": passes, "trace": args.trace,
    }


def report(records, label):
    for i, r in enumerate(records):
        state = "ERROR " + r.error if r.error else (
            "ok" if r.verdict.ok else "MISS" if r.verdict.sound else "FAIL")
        print(f"{label} op {i:3d} {r.name:<28} {r.seconds:9.4f} s  {state}  {r.verdict.detail}")


def main(argv=None):
    args = parse_args(argv)
    root, src = ROOT, SRC
    if not (src / "maserkit" / "__init__.py").is_file():
        print(f"perfbench: no maserkit source under {src}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    passes = max(1, math.ceil(args.seconds / workload.nominal_pass_s))
    workdir = root / ".perfbench_work" / f"{workload.name}-s{args.seed}-p{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        try:
            inputs, mk, setup_s = set_up(workload, src, args.seed, workdir)
            ops = workload.ops(mk, inputs)
        except (ImportError, OSError, RuntimeError, subprocess.CalledProcessError) as exc:
            print(f"perfbench: set-up failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            return 2

        print(f"perfbench {workload.name} seed={args.seed} trace={args.trace} "
              f"passes={passes} ops/pass={len(ops)}")
        print("env " + json.dumps(environment(root, src, args, passes), sort_keys=True))
        records, wall = stats.run_ops(ops, passes)
        report(records, "timed")
        all_records = list(records)
        if args.trace:
            traced, per_layer = traced_run(workload, mk, args.seed, ops, passes, wall,
                                           workdir, src)
            report(traced, "traced")
            all_records += traced
            units = {name: unit for name, unit, _ in layers.PER_LAYER}
            metrics = {k: {"value": v, "unit": units[k]} for k, v in per_layer.items()}
        else:
            summary = stats.summarize(records)
            values = {"setup_s": setup_s, "wall_s": wall, "op_s_p50": summary["op_s_p50"],
                      "op_s_max": summary["op_s_max"], "ok_frac": summary["ok_frac"],
                      "peak_rss_mb": peak_rss_mb(workload, records)}
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit, _ in END_TO_END}
            print(f"ops {summary['ops']}  error_frac {summary['error_frac']:.4f}")
        for name, m in metrics.items():
            print(f"metric {name:<26} {m['value']:.6g} {m['unit']}")
        counts = stats.miss_counts(all_records)
        print("oracle misses: " + (json.dumps(counts, sort_keys=True) if counts else "none"))
        for cls in sorted(oracle.KNOWN_FAILURES):
            if any(f"[{cls}]" in label for label in counts):
                print(f"known failure {cls}: {oracle.KNOWN_FAILURES[cls]}")
        failed = sum(1 for r in all_records if r.error is not None)
        print(json.dumps({"correct": stats.all_sound(all_records),
                          "attempted": len(all_records), "failed": failed,
                          "metrics": metrics}, allow_nan=False))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
