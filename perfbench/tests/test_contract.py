"""BENCHMARK.json names exactly the workloads and metrics the harness reports."""

import importlib.util
import json
from pathlib import Path

from mkbench import layers, workloads

BENCH = Path(__file__).resolve().parent.parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def harness_end_to_end():
    spec = importlib.util.spec_from_file_location("perfbench_run", BENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run.END_TO_END


def test_workloads_exist():
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.WORKLOADS)


def test_metric_names_units_and_directions_match():
    for key, table in (("end_to_end", harness_end_to_end()), ("per_layer", layers.PER_LAYER)):
        declared = [(m["name"], m["unit"], m["better"]) for m in SPEC[key]]
        assert declared == list(table)
