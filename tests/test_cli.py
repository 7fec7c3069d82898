import json

import jsonschema
import numpy as np
import pytest

from maserkit import cli
from maserkit.trace import TimeTrace, write_trace_csv


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
    schema = cli._load_schema()
    jsonschema.validate(doc, schema)
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
    (["qcircle", "--s11", "{doc}"], "f_Hz,re_S11,im_S11\n1,0.5,0.1\n2,oops,0.2\n"),
], ids=["fit-maser-fixed", "gen-synthetic-params", "simulate-triplet-params",
        "simulate-maser-params", "qcircle-s11"])
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
