import json
import warnings
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from maserkit import cli, cqed, fitting, spectro, synthetic
from maserkit.spectro import write_matrix_csv
from maserkit.trace import TimeTrace, read_columns, write_columns, write_trace_csv

SCHEMA = json.loads((Path(cli.__file__).parent / "schemas" / "result.schema.json").read_text())


def _refuse_constant(name):
    raise ValueError(f"not strict JSON: {name}")


@pytest.fixture(autouse=True)
def _documents_pass_jsonschema(monkeypatch):
    """Every result document written here is strict JSON and passes jsonschema."""
    write = cli.write_result_json

    def checked(path, manifest, results):
        write(path, manifest, results)
        with open(path) as fh:
            jsonschema.validate(json.load(fh, parse_constant=_refuse_constant), SCHEMA)
        return path

    monkeypatch.setattr(cli, "write_result_json", checked)


def run(tmp_path, *argv, out="result.json"):
    """Invoke one subcommand into tmp_path; return (exit code, results dict)."""
    code = cli.main([argv[0], "--output-dir", str(tmp_path), "--out", out,
                     *argv[1:]])
    doc = None
    out_file = tmp_path / out
    if out_file.exists():
        doc = json.loads(out_file.read_text())
    return code, doc


def test_version_and_usage_exit_codes(capsys):
    assert cli.main(["--version"]) == 0
    assert cli.main([]) == 1
    assert cli.main(["frobnicate"]) == 1
    capsys.readouterr()


def test_result_document_matches_schema(tmp_path):
    code, doc = run(tmp_path, "thermal-photons", "--f", "1.476e9", "--temp", "290")
    assert code == 0
    jsonschema.validate(doc, SCHEMA)
    assert doc["manifest"]["subcommand"] == "thermal-photons"
    assert doc["manifest"]["output_dir"] == str(tmp_path)
    assert doc["manifest"]["version"]
    assert doc["results"]["n_bar"] == pytest.approx(4097.0, rel=5e-3)


def test_cooperativity_command(tmp_path, capsys):
    code, doc = run(tmp_path, "cooperativity",
                    "--ge-hz", "2.3e6", "--ge-angular",
                    "--kappa-c", "2.517e6",
                    "--kappa-s-hz", "0.29e6", "--kappa-s-angular")
    assert code == 0
    assert doc["results"]["cooperativity"] == pytest.approx(182.1, abs=0.5)
    assert "182" in capsys.readouterr().out


def test_cooperativity_requires_rates(tmp_path, capsys):
    code = cli.main(["cooperativity", "--output-dir", str(tmp_path),
                     "--kappa-c", "2.5e6"])
    assert code == 1
    capsys.readouterr()


def test_qcircle_full_chain(tmp_path):
    code, doc = run(tmp_path, "qcircle", "--d", "0.16", "--d2", "1.81",
                    "--f0", "1.476e9", "--f-low", "1.4758e9", "--f-high", "1.4762e9")
    assert code == 0
    r = doc["results"]
    assert r["coupling_k1"] == pytest.approx(0.1975, abs=1e-3)
    assert r["q_loaded"] == pytest.approx(3690.0, rel=1e-9)
    assert r["q_unloaded"] == pytest.approx(3690.0 * (1.0 + 0.16 / 0.81), rel=1e-9)
    assert r["kappa_c_per_s"] == pytest.approx(2.513e6, rel=1e-3)


def test_qcircle_records_the_s11_file_as_its_input(tmp_path):
    theta = np.linspace(0.0, 2.0 * np.pi, 60, endpoint=False)
    s11 = tmp_path / "s11.csv"
    write_columns(s11, "f_Hz,re_S11,im_S11",
                  [1.476e9 + theta, 0.92 + 0.08 * np.cos(theta), 0.08 * np.sin(theta)])
    code, doc = run(tmp_path, "qcircle", "--s11", str(s11))
    assert code == 0
    assert doc["results"]["d"] == pytest.approx(0.16, rel=1e-9)
    assert doc["manifest"]["inputs"] == [str(s11)]
    assert doc["manifest"]["seed"] is None


def test_quantum_yield_command(tmp_path):
    code, doc = run(tmp_path, "quantum-yield", "--tau-f-ns", "0.46",
                    "--tau-isc-ns", "0.685")
    assert code == 0
    assert doc["results"]["theta_t"] == pytest.approx(0.6715, abs=1e-3)
    assert doc["results"]["kappa_ic_plus_rad_per_ns"] == pytest.approx(0.714, abs=1e-3)


def test_quantum_yield_rejects_fast_isc(tmp_path, capsys):
    code = cli.main(["quantum-yield", "--output-dir", str(tmp_path),
                     "--tau-f-ns", "0.685", "--tau-isc-ns", "0.46"])
    assert code == 1
    capsys.readouterr()


def test_convert_power_scalar(tmp_path):
    code, doc = run(tmp_path, "convert-power", "--dbm", "-10",
                    "--coupling", "0.2", "--kappa-c", "2.517e6", "--f", "1.4761e9")
    assert code == 0
    assert doc["results"]["photons"] == pytest.approx(2.44e14, rel=5e-3)


def test_rabi_prediction(tmp_path):
    code, doc = run(tmp_path, "rabi", "--ge-hz", "2.3e6", "--ge-angular")
    assert code == 0
    assert doc["results"]["predicted_rabi_hz"] == pytest.approx(4.6e6, rel=1e-9)


def test_rabi_requires_trace_or_rate(tmp_path, capsys):
    assert cli.main(["rabi", "--output-dir", str(tmp_path)]) == 1
    capsys.readouterr()


def test_rabi_flat_trace_is_numerical_failure(tmp_path, capsys):
    t = np.linspace(0.0, 1e-5, 500)
    path = tmp_path / "flat.csv"
    write_trace_csv(path, TimeTrace(t, np.full(500, 7.0), "photons"))
    code = cli.main(["rabi", "--output-dir", str(tmp_path), "--trace", str(path)])
    assert code == 2
    capsys.readouterr()


def test_missing_input_file_is_user_error(tmp_path, capsys):
    code = cli.main(["fit-trepr", "--output-dir", str(tmp_path),
                     str(tmp_path / "nope.csv")])
    assert code == 1
    capsys.readouterr()


def test_simulate_triplet_writes_trajectory(tmp_path):
    params = tmp_path / "params.json"
    params.write_text(json.dumps({
        "n_x0": 0.6, "n_y0": 0.21, "n_z0": 0.19,
        "k_x": 3.0e5, "k_z": 0.5e5, "w_xz": 0.9e5}))
    code, doc = run(tmp_path, "simulate-triplet", "--params", str(params),
                    "--plot-script")
    assert code == 0
    r = doc["results"]
    assert r["alpha_minus"] < r["alpha_plus"] < 0
    csv = tmp_path / "triplet_trajectory.csv"
    assert csv.read_text().splitlines()[0] == "t_us,n_x,n_z,difference"
    assert (tmp_path / "triplet_trajectory.gp").exists()
    assert doc["manifest"]["parameter_file"] == str(params)


def test_gen_synthetic_then_fit_trepr(tmp_path):
    code, gen = run(tmp_path, "gen-synthetic", "--kind", "biexp-trepr",
                    "--noise", "0.004", "--seed", "4", out="gen.json")
    assert code == 0
    data = gen["results"]["files"][0]
    assert gen["manifest"]["seed"] == 4
    code, doc = run(tmp_path, "fit-trepr", data, out="fit.json")
    assert code == 0
    r = doc["results"]
    assert r["A"] == pytest.approx(0.547, rel=0.05)
    assert r["alpha_minus"] == pytest.approx(-3.93e5, rel=0.05)
    assert r["zero_crossing_us"] == pytest.approx(6.09, rel=0.1)
    assert doc["manifest"]["inputs"] == [data]


def test_negative_numbers_in_exponent_form_are_values(tmp_path, capsys):
    code, _ = run(tmp_path, "simulate-maser", "--delta", "-1e5", out="sim.json")
    assert code == 0
    code, gen = run(tmp_path, "gen-synthetic", "--kind", "biexp-trepr",
                    "--noise", "0.004", "--seed", "4", out="gen.json")
    data = gen["results"]["files"][0]
    code, exponent = run(tmp_path, "fit-trepr", data, "--init", "0.5", "-0.3", "-4e5", "-1e5",
                         out="exponent.json")
    assert code == 0
    code, plain = run(tmp_path, "fit-trepr", data,
                      "--init", "0.5", "-0.3", "-400000", "-100000", out="plain.json")
    assert code == 0
    assert exponent["results"] == plain["results"]
    code, _ = run(tmp_path, "fit-trepr", data, "--init", "0.5", "-0.3", "-4e5", out="short.json")
    assert code == 1
    capsys.readouterr()


def test_gen_synthetic_is_deterministic(tmp_path):
    for kind in ("biexp-trepr", "maser-burst", "rank2-tas", "tcspc"):
        d1, d2 = tmp_path / kind / "a", tmp_path / kind / "b"
        for d in (d1, d2):
            code, _ = run(d, "gen-synthetic", "--kind", kind, "--seed", "12",
                          "--noise", "0.01")
            assert code == 0
        name = kind.replace("-", "_") + ".csv"
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_svd_tas_pipeline(tmp_path):
    code, gen = run(tmp_path, "gen-synthetic", "--kind", "rank2-tas",
                    "--seed", "3", out="gen.json")
    assert code == 0
    code, doc = run(tmp_path, "svd-tas", gen["results"]["files"][0], out="svd.json")
    assert code == 0
    r = doc["results"]
    assert r["significant_count"] == 2
    taus = sorted(r["component_lifetimes_ps"])
    assert taus[0] == pytest.approx(450.0, rel=0.05)
    assert taus[1] == pytest.approx(650.0, rel=0.05)
    assert len(r["component_files"]) == 4
    spectrum_csv = tmp_path / "component_1_spectrum.csv"
    assert spectrum_csv.read_text().splitlines()[0] == "lambda_nm,value"


def test_fit_tcspc_pipeline(tmp_path):
    code, gen = run(tmp_path, "gen-synthetic", "--kind", "tcspc",
                    "--seed", "2", out="gen.json")
    assert code == 0
    code, doc = run(tmp_path, "fit-tcspc", gen["results"]["files"][0],
                    "--components", "2", out="fit.json")
    assert code == 0
    taus = doc["results"]["lifetimes_ns"]
    assert taus[0] == pytest.approx(0.46, rel=0.05)
    assert taus[1] == pytest.approx(3.7, rel=0.05)


def test_simulate_maser_outputs(tmp_path):
    code, doc = run(tmp_path, "simulate-maser", "--points", "600")
    assert code == 0
    r = doc["results"]
    assert r["peak_photon_number"] == pytest.approx(2.62e14, rel=0.01)
    assert r["oscillation_count"] >= 3
    assert 1.4e6 < r["extracted_rabi_hz"] < 1.9e6
    assert (tmp_path / "maser_trajectory.csv").exists()


def test_output_dir_env_variable(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path))
    code = cli.main(["thermal-photons", "--f", "1.476e9", "--temp", "290"])
    assert code == 0
    assert (tmp_path / "thermal-photons.json").exists()


@pytest.mark.parametrize("argv, document", [
    (["fit-maser", "{trace}", "--fixed", "{doc}"], '["kappa_c", "gamma"]'),
    (["gen-synthetic", "--kind", "biexp-trepr", "--params", "{doc}"], '["A"]'),
    (["simulate-triplet", "--params", "{doc}"],
     '["k_x", "k_z", "w_xz", "n_x0", "n_y0", "n_z0"]'),
    (["simulate-maser", "--params", "{doc}"], '["g_e"]'),
    (["simulate-maser", "--params", "{doc}"], '{"g_e": "abc"}'),
    (["simulate-maser", "--params", "{doc}"], '{"g_e": NaN}'),
    (["simulate-maser", "--params", "{doc}"], '{"inversion0": null, "t_max_us": "5"}'),
    (["simulate-triplet", "--params", "{doc}"],
     '{"k_x": "3e5", "k_z": 5e4, "w_xz": 9e4, "n_x0": 0.6, "n_y0": 0.21, "n_z0": 0.19}'),
    (["gen-synthetic", "--kind", "biexp-trepr", "--params", "{doc}"], '{"A": "x"}'),
    (["fit-maser", "{trace}", "--fixed", "{doc}"], '{"kappa_c": [2.5e6]}'),
    (["qcircle", "--s11", "{doc}"], "f_Hz,re_S11,im_S11\n1,0.5,0.1\n2,oops,0.2\n"),
], ids=["fit-maser-fixed", "gen-synthetic-params", "simulate-triplet-params",
        "simulate-maser-params", "simulate-maser-string-value", "simulate-maser-nan-value",
        "simulate-maser-null-and-string-values", "simulate-triplet-string-value",
        "gen-synthetic-string-value", "fit-maser-list-value", "qcircle-s11"])
def test_malformed_input_files_fail_cleanly(tmp_path, capsys, argv, document):
    doc = tmp_path / "input"
    doc.write_text(document)
    trace = tmp_path / "burst.csv"
    write_trace_csv(trace, TimeTrace(np.linspace(0.0, 1e-5, 40), np.ones(40), "photons"))
    argv = [a.format(trace=trace, doc=doc) for a in argv]
    code = cli.main([argv[0], "--output-dir", str(tmp_path), *argv[1:]])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, named", [
    (["--fixed", "{fixed}"], "['g_e', 'kappa_C']"),
    (["--loss", "linear"], "--loss"),
], ids=["unknown-fixed-key", "loss-flag"])
def test_fit_maser_input_is_refused_before_any_solve(tmp_path, capsys, monkeypatch,
                                                      argv, named):
    # a misspelt held quantity would otherwise be fitted with the default
    trace = tmp_path / "burst.csv"
    write_trace_csv(trace, synthetic.maser_burst()[0])
    fixed = tmp_path / "fixed.json"
    fixed.write_text('{"kappa_C": 9e9, "g_e": 1}')
    solves = [0]
    simulate = cqed.simulate_maser

    def counted_solve(*args, **kwargs):
        solves[0] += 1
        return simulate(*args, **kwargs)

    monkeypatch.setattr(cqed, "simulate_maser", counted_solve)
    code = cli.main(["fit-maser", str(trace), "--output-dir", str(tmp_path),
                     *(a.format(fixed=fixed) for a in argv)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert named in err
    assert solves[0] == 0


def test_fit_maser_records_the_held_values(tmp_path, monkeypatch):
    trace = tmp_path / "burst.csv"
    write_trace_csv(trace, TimeTrace(np.linspace(0.0, 1e-5, 40), np.ones(40), "photons"))
    fixed = tmp_path / "fixed.json"
    fixed.write_text('{"kappa_c": 2.6e6}')
    passed = []

    def fake_fit(trace, fixed, init):
        passed.append(dict(fixed))
        return fitting.FitResult(params=np.array([1e7, 1e6, 1e14]), residual_norm=0.0,
                                 jacobian_condition=1.0, iterations=0, converged=True,
                                 param_uncertainties=np.zeros(3))

    monkeypatch.setattr(fitting, "fit_maser_parameters", fake_fit)
    code, doc = run(tmp_path, "fit-maser", str(trace), "--fixed", str(fixed))
    assert code == 0
    held = {k: synthetic.BURST_DEFAULTS[k] for k in cli.HELD_BURST_KEYS}
    assert passed == [dict(held, kappa_c=2.6e6)]
    assert doc["results"]["fixed"] == passed[0]


def test_fit_maser_writes_non_finite_values_as_null(tmp_path):
    # with kappa_c = 1e308 every solve fails: the Jacobian's condition
    # number is infinite and the three uncertainties are NaN
    trace = tmp_path / "burst.csv"
    write_trace_csv(trace, synthetic.maser_burst()[0])
    fixed = tmp_path / "fixed.json"
    fixed.write_text('{"kappa_c": 1e308}')
    code, doc = run(tmp_path, "fit-maser", str(trace), "--fixed", str(fixed))
    assert code == 0
    r = doc["results"]
    assert r["jacobian_condition"] is None
    assert r["uncertainties"] == {"g_e_per_s": None, "kappa_s_per_s": None, "n_spins": None}
    assert r["converged"] is False


@pytest.mark.parametrize("output_dir, out", [("taken", "result.json"), (".", "sub")],
                         ids=["output-dir-is-a-file", "out-is-a-directory"])
def test_unwritable_output_fails_cleanly(tmp_path, monkeypatch, capsys, output_dir, out):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "taken").write_text("")
    (tmp_path / "sub").mkdir()
    code = cli.main(["thermal-photons", "--f", "1.4e9", "--temp", "290",
                     "--output-dir", output_dir, "--out", out])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1


def test_svd_tas_on_noise_components_fails_cleanly(tmp_path, capsys):
    # at this threshold the noise components are fitted too; one of them
    # runs off to a lifetime past the float range
    assert cli.main(["gen-synthetic", "--kind", "rank2-tas", "--seed", "3",
                     "--output-dir", str(tmp_path)]) == 0
    code = cli.main(["svd-tas", str(tmp_path / "rank2_tas.csv"), "--threshold", "0.001",
                     "--output-dir", str(tmp_path)])
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if code != 0:
        assert (code, err.split(":")[0]) in ((1, "error"), (2, "numerical failure"))
        assert err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["cooperativity", "--ge-hz", "nan", "--kappa-c", "2.5e6", "--kappa-s-hz", "1e5"],
    ["thermal-photons", "--f", "1e9", "--temp", "inf"],
], ids=["cooperativity-nan", "thermal-photons-inf"])
def test_non_finite_flags_fail_cleanly(tmp_path, capsys, argv):
    code = cli.main([argv[0], "--output-dir", str(tmp_path), *argv[1:]])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv, header", [
    (["fit-trepr"], "t_us,value"),
    (["svd-tas"], "delay_ps,500,510,520"),
    (["qcircle", "--s11"], "f_Hz,re_S11,im_S11"),
], ids=["fit-trepr", "svd-tas", "qcircle-s11"])
def test_header_only_csv_fails_with_one_error_line(tmp_path, capfd, argv, header):
    path = tmp_path / "empty.csv"
    path.write_text(header + "\n")
    with warnings.catch_warnings():
        # pytest records warnings instead of printing them; as errors they show
        warnings.simplefilter("error")
        code = cli.main([*argv, str(path), "--output-dir", str(tmp_path)])
    err = capfd.readouterr().err
    assert code == 1
    assert err == f"error: {path}: no data rows\n"


@pytest.mark.parametrize("argv, params", [
    (["simulate-maser", "--points", "0"], None),
    (["simulate-maser", "--points", "-3"], None),
    (["simulate-maser"], {"n_points": 0}),
    (["simulate-maser"], {"n_points": 1.5}),
    (["simulate-triplet", "--points", "-3"],
     {"k_x": 3e5, "k_z": 5e4, "w_xz": 9e4, "n_x0": 0.6, "n_y0": 0.21, "n_z0": 0.19}),
], ids=["maser-points-0", "maser-points-negative", "maser-params-n-points-0",
        "maser-params-n-points-fraction", "triplet-points-negative"])
def test_no_output_points_fails_cleanly(tmp_path, capsys, argv, params):
    if params is not None:
        (tmp_path / "params.json").write_text(json.dumps(params))
        argv = [*argv, "--params", str(tmp_path / "params.json")]
    code = cli.main([*argv, "--output-dir", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1


def test_simulate_maser_default_tolerances_are_the_library_defaults(tmp_path):
    code, doc = run(tmp_path, "simulate-maser", "--points", "300", "--t-max-us", "8")
    assert code == 0
    p = synthetic.BURST_DEFAULTS
    params = cqed.MaserSystemParams(
        g_e=p["g_e"], kappa_c=p["kappa_c"], kappa_s=p["kappa_s"], gamma=p["gamma"],
        delta=p["delta"], n_spins=p["n_spins"], n_bar=p["n_bar"])
    init = cqed.MaserState(photon_number=p["n_bar"], coherence=0.0,
                           inversion=p["inversion0"], spin_correlation=0.0)
    traj = cqed.simulate_maser(params, init, (0.0, 8e-6), rtol=cqed.DEFAULT_RTOL,
                               atol=cqed.DEFAULT_ATOL, n_points=300)
    assert doc["results"]["peak_photon_number"] == float(np.max(traj.photon_number))
    _, table = read_columns(tmp_path / "maser_trajectory.csv")
    np.testing.assert_array_equal(table[:, 1], traj.photon_number)


def test_svd_tas_default_threshold_is_the_library_default(tmp_path):
    matrix, _ = synthetic.rank2_tas(noise_frac=0.05, seed=5)
    write_matrix_csv(tmp_path / "tas.csv", matrix)
    code, doc = run(tmp_path, "svd-tas", str(tmp_path / "tas.csv"))
    assert code == 0
    result = spectro.svd_global_analysis(spectro.read_matrix_csv(tmp_path / "tas.csv"),
                                         spectro.DEFAULT_SIGNIFICANCE)
    assert doc["results"]["significant_count"] == result.significant_count
    assert doc["results"]["singular_values"] == [float(s) for s in result.singular_values]
    assert doc["results"]["component_lifetimes_ps"] == result.component_lifetimes
