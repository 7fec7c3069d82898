"""What importing maserkit and starting its CLI loads.

`import maserkit` loads no submodule and no numpy; the CLI loads numpy
only in the subcommands that compute on arrays, and the maser model
(cqed) only in those that simulate or fit a burst.  The subprocess tests
check sys.modules in a fresh interpreter; the static test reads the
top-level imports with ast, so no timing is involved.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import maserkit
from maserkit import cli

PACKAGE = Path(maserkit.__file__).resolve().parent
SRC = str(PACKAGE.parent)

# the public names of the package, by the submodule they were first
# defined in; each must stay importable from there and from maserkit
PUBLIC = {
    "cavity": ["CavityCharacterization", "QCircleGeometry", "baseline_correct",
               "cavity_decay_rate", "coupling_from_qcircle", "fit_reflection_circle",
               "loaded_q", "power_to_photons", "power_trace_to_photons", "thermal_photons",
               "unloaded_q"],
    "cqed": ["MaserState", "MaserSystemParams", "MaserTrajectory", "cooperativity",
             "count_oscillations", "extract_rabi_frequency", "predicted_rabi",
             "simulate_maser"],
    "fitting": ["FitResult", "fit_biexponential", "fit_maser_parameters", "nlls_minimize"],
    "spectro": ["GlobalAnalysisResult", "PhotophysicsRates", "SpectrumMatrix", "TcspcFit",
                "fit_tcspc", "rates_from_lifetimes", "svd_global_analysis"],
    "trace": ["TimeTrace", "read_trace_csv", "write_trace_csv"],
    "triplet": ["BiexpFit", "TripletRateModel", "combined_rate_from_eigen",
                "difference_coefficients", "eigenrates", "equivalent_model",
                "evolve_populations", "predicted_trepr_signal", "zero_crossing_time"],
    "units": ["CONSTANTS", "PhysConstants", "angular_to_ordinary", "dbm_to_watts",
              "ordinary_to_angular", "watts_to_dbm"],
}
SUBMODULES = ["cavity", "cqed", "errors", "fitting", "spectro", "trace", "triplet", "units"]

CALCULATOR_COMMANDS = [
    ["--version"],
    ["--help"],
    ["thermal-photons", "--f", "1.4761e9", "--temp", "290"],
    ["cooperativity", "--ge-hz", "2.3e6", "--ge-angular", "--kappa-s-hz", "0.29e6",
     "--kappa-s-angular", "--kappa-c", "2.517e6"],
    ["quantum-yield", "--tau-f-ns", "0.46", "--tau-isc-ns", "0.685"],
    ["rabi", "--ge-hz", "2.3e6", "--ge-angular"],
    ["qcircle", "--d", "0.16", "--d2", "1.81", "--f0", "1.476e9", "--f-low", "1.4758e9",
     "--f-high", "1.4762e9"],
]

# modules that must load without numpy, as the CLI's calculator commands need
NUMPY_FREE = ["__init__", "cli", "errors", "units", "relations"]


def _run_fresh(script, *args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC, *filter(None, [os.environ.get("PYTHONPATH")])]))
    done = subprocess.run([sys.executable, "-c", script, *map(str, args)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_import_loads_no_submodule_and_no_numpy():
    out = _run_fresh(
        "import sys\n"
        "import maserkit\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.startswith('maserkit.') or m.split('.')[0] == 'numpy'))\n")
    assert out == "[]\n"


def test_calculator_commands_run_without_numpy(tmp_path):
    script = (
        "import contextlib, io, sys\n"
        "from maserkit import cli\n"
        f"commands = {CALCULATOR_COMMANDS!r}\n"
        "for argv in commands:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = cli.main([*argv, '--output-dir', sys.argv[1]])\n"
        "    assert code == 0, argv\n"
        "    loaded = [m for m in sys.modules if m.split('.')[0] == 'numpy']\n"
        "    assert not loaded, (argv, loaded[:3])\n")
    _run_fresh(script, tmp_path)
    assert (tmp_path / "cooperativity.json").is_file()


def test_exponential_fit_commands_leave_cqed_unloaded(tmp_path):
    for kind in ("biexp-trepr", "tcspc", "rank2-tas"):
        assert cli.main(["gen-synthetic", "--kind", kind, "--seed", "1",
                         "--output-dir", str(tmp_path)]) == 0
    commands = [["fit-trepr", str(tmp_path / "biexp_trepr.csv")],
                ["fit-tcspc", str(tmp_path / "tcspc.csv")],
                ["svd-tas", str(tmp_path / "rank2_tas.csv")]]
    script = (
        "import contextlib, io, sys\n"
        "from maserkit import cli\n"
        f"commands = {commands!r}\n"
        "for argv in commands:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = cli.main([*argv, '--output-dir', sys.argv[1]])\n"
        "    assert code == 0, argv\n"
        "    assert 'maserkit.cqed' not in sys.modules, argv\n"
        "print(sorted(m for m in sys.modules if m.startswith('maserkit.')))\n")
    out = _run_fresh(script, tmp_path / "out")
    assert "'maserkit.fitting'" in out and "'maserkit.spectro'" in out


def test_public_names_resolve_to_the_objects_their_modules_define():
    names = [name for names in PUBLIC.values() for name in names]
    assert maserkit.__all__ == sorted(names + SUBMODULES)
    assert set(maserkit.__all__) <= set(dir(maserkit))
    for module, names in PUBLIC.items():
        defined = importlib.import_module(f"maserkit.{module}")
        for name in names:
            assert getattr(maserkit, name) is getattr(defined, name), name
    for module in SUBMODULES:
        assert getattr(maserkit, module) is importlib.import_module(f"maserkit.{module}")


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from maserkit import *", namespace)
    for name in maserkit.__all__:
        assert namespace[name] is getattr(maserkit, name)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        maserkit.no_such_name


def _top_level_imports(path):
    """(numpy imported, sibling modules imported) by the statements that
    run when the module is imported: everything outside def bodies."""
    numpy_imported, siblings = False, set()
    pending = list(ast.parse(path.read_text()).body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            for alias in node.names:
                top = alias.name.split(".")[0]
                numpy_imported |= top == "numpy"
                if top == "maserkit":
                    siblings.add(alias.name.split(".")[1] if "." in alias.name else "__init__")
        elif isinstance(node, ast.ImportFrom):
            numpy_imported |= (node.module or "").split(".")[0] == "numpy"
            if node.level == 1 and node.module:
                siblings.add(node.module.split(".")[0])
            elif node.level == 1:
                siblings.update(a.name if (PACKAGE / f"{a.name}.py").is_file() else "__init__"
                                for a in node.names)
        pending.extend(ast.iter_child_nodes(node))
    return numpy_imported, siblings


def test_cold_start_modules_import_no_numpy_at_top_level():
    modules = {path.stem: _top_level_imports(path) for path in PACKAGE.glob("*.py")}

    def loads_numpy(name, seen=()):
        numpy_imported, siblings = modules[name]
        return numpy_imported or any(loads_numpy(s, (*seen, name))
                                     for s in siblings if s not in seen and s != name)

    assert set(NUMPY_FREE) <= set(modules)
    offenders = {}
    for name in NUMPY_FREE:
        numpy_imported, siblings = modules[name]
        culprits = ["numpy"] * numpy_imported + sorted(s for s in siblings if loads_numpy(s))
        if culprits:
            offenders[name] = culprits
    assert not offenders, offenders
