"""Correctness oracle behind ok_frac.

Tolerances come from the repository's own checks:

* maser fit: every parameter within 2% of the truth (acceptance 08);
* SVD global analysis: rank 2 and both lifetimes within 5% (acceptance 11);
* biexponential fit at 1% noise: within 5% (acceptance 12);
* 2-component TCSPC: both lifetimes within 5% (test_spectro);
* 1- and 3-component TCSPC: finite lifetimes or converged=False, as the
  fit_tcspc docstring promises;
* reflection circle: diameter within 2e-3 (test_cavity);
* thermal photons near 1.476 GHz and 290 K: 4097 +- 0.5% (acceptance 02);
* Rabi extraction within 2% (acceptance 10), at least 3 ripples
  (acceptance 09);
* CLI: exit code 0, a result JSON that passes the shipped schema, and a
  headline and results equal to the in-process values.

Each check is hard or an accuracy check.  Hard checks hold for any
correct program on every seed: exact identities, documented contracts,
noiseless round trips, the CLI agreeing with the library.  Accuracy
checks apply a repository tolerance to a fit of noisy data, so even a
correct program misses one now and then.  Every miss lowers ok_frac; a
run is `correct` only if no hard check failed outside the documented
classes in KNOWN_FAILURES, which name the seed-code failures so a reader
can tell them from new ones.
"""

import math
import re
from decimal import Decimal

import jsonschema
import numpy as np

from .stats import Verdict

KNOWN_FAILURES = {
    "maser_noisy_false_converged":
        "fit_maser_parameters on a noisy burst ends more than 2% from the "
        "truth while reporting converged=True (log10 noise 0.005 from the "
        "CLI default start: 2.4% on seed 1, 3.5% on seed 3).",
    "tcspc3_inf_converged":
        "fit_tcspc(k=3) on 2-component data returns an infinite lifetime "
        "with converged=True, against its docstring's promise of finite "
        "lifetimes or converged=False.",
    "tcspc3_raises_nan":
        "fit_tcspc(k=3) on 2-component data raises ModelEvaluationError "
        "(model returned NaN) instead of returning converged=False.",
    "biexp_no_convergence":
        "fit_biexponential raises NumericalError (did not converge) on a "
        "1%-noise trEPR trace.",
    "biexp_5pct_within_3sigma":
        "fit_biexponential at 1% noise misses the 5% tolerance of "
        "acceptance 12 while every parameter stays within 3 sigma of its "
        "own reported uncertainty; acceptance 12 checks one noise seed.",
}

MASER_TOL = 0.02
SVD_TOL = 0.05
BIEXP_TOL = 0.05
BIEXP_SIGMAS = 3.0
TCSPC_TOL = 0.05
CIRCLE_DIAMETER_TOL = 2e-3
THERMAL_NBAR = 4097.0
THERMAL_TOL = 0.005
RABI_TOL = 0.02
MIN_RIPPLES = 3
IDENTITY_RTOL = 1e-12
CLI_RTOL = 1e-9


def _rel(got, want):
    return abs(got / want - 1.0)


def _close(got, want, rtol):
    return abs(got - want) <= rtol * abs(want)


HARD, ACCURACY = True, False


def _verdict(parts, facts, detail=""):
    """Combine (name, ok, known class, hard) parts into one verdict."""
    failing = [(name, known, hard) for name, ok, known, hard in parts if not ok]
    misses = [f"{name} [{known}]" if known else name for name, known, _ in failing]
    sound = all(known or not hard for _, known, hard in failing)
    if failing:
        detail = "miss: " + ", ".join(misses) + (f" ({detail})" if detail else "")
    return Verdict(ok=not failing, sound=sound, misses=misses, detail=detail or "ok",
                   facts=facts)


# ---------------------------------------------------------------------------
# maser fit


def maser_fit(result, truth, noise_rms_log10=0.0, n_samples=0):
    """Acceptance-08 check of a fit_maser_parameters result.

    Facts: the worst relative parameter error, the worst z-score against
    the fit's own one-sigma uncertainties, whether converged=True came
    with a miss, and for noisy traces the residual over the noise floor
    noise * sqrt(n).
    """
    params = np.asarray(result.params, dtype=float)
    truth = np.asarray(truth, dtype=float)
    err = float(np.max(np.abs(params / truth - 1.0)))
    ok = err < MASER_TOL
    sigma = np.asarray(result.param_uncertainties, dtype=float)
    usable = np.isfinite(sigma) & (sigma > 0)
    z = float(np.max(np.abs(params - truth)[usable] / sigma[usable])) if usable.any() else 0.0
    converged = bool(result.converged)
    facts = {"param_err": err, "z": z, "false_converged": int(converged and not ok)}
    if noise_rms_log10 > 0:
        facts["resid_over_floor"] = result.residual_norm / (
            noise_rms_log10 * math.sqrt(n_samples))
    # noiseless data must be fitted exactly; noisy data is an accuracy check
    known = "maser_noisy_false_converged" if noise_rms_log10 > 0 and converged else None
    return _verdict([("maser fit 2%", ok, known, noise_rms_log10 == 0)], facts,
                    f"param error {err:.2e}, converged={converged}")


# ---------------------------------------------------------------------------
# analysis chain


def _raised(result, name):
    return isinstance(result, Exception) and type(result).__name__ == name


def _biexp_parts(fit, truth):
    if isinstance(fit, Exception):
        known = "biexp_no_convergence" if _raised(fit, "NumericalError") else None
        return [("biexp raised", False, known, ACCURACY)]
    got = {"A": fit.A, "B": fit.B,
           "alpha_minus": fit.alpha_minus, "alpha_plus": fit.alpha_plus}
    sigma = {"A": fit.A_err, "B": fit.B_err,
             "alpha_minus": fit.alpha_minus_err, "alpha_plus": fit.alpha_plus_err}
    err = max(_rel(got[k], truth[k]) for k in got)
    within_sigma = all(abs(got[k] - truth[k]) <= BIEXP_SIGMAS * sigma[k] for k in got)
    known = "biexp_5pct_within_3sigma" if within_sigma else None
    return [("biexp", err < BIEXP_TOL, known, ACCURACY)]


def _triplet_parts(out, fit):
    if isinstance(fit, Exception):
        return []
    rate, tau = out["combined_rate"]
    identities = (_close(rate, -0.5 * (fit.alpha_minus + fit.alpha_plus), IDENTITY_RTOL)
                  and _close(rate * tau, 1.0, IDENTITY_RTOL))
    crossing = out["zero_crossing"]
    scale = abs(fit.A) + abs(fit.B)
    crosses = crossing is not None and abs(out["signal_at_crossing"]) <= 1e-9 * scale
    return [("triplet identities", identities and crosses, None, HARD)]


def _tcspc_promise(fit):
    return (not fit.converged) or all(math.isfinite(t) for t in fit.lifetimes_ns)


def _tcspc_parts(out, truth):
    t1, t2, t3 = out["tcspc"]
    parts = []
    for k, fit in ((1, t1), (2, t2), (3, t3)):
        if isinstance(fit, Exception):
            known = "tcspc3_raises_nan" if k == 3 and _raised(fit, "ModelEvaluationError") else None
            # k=1 and k=3 promise converged=False over raising; k=2 is judged on accuracy
            parts.append((f"tcspc k={k} raised", False, known, k != 2))
    if not isinstance(t1, Exception):
        parts.append(("tcspc k=1", _tcspc_promise(t1), None, HARD))
    if not isinstance(t3, Exception):
        known3 = "tcspc3_inf_converged" if any(math.isinf(t) for t in t3.lifetimes_ns) else None
        parts.append(("tcspc k=3", _tcspc_promise(t3), known3, HARD))
    if isinstance(t2, Exception):
        return parts, None
    taus = t2.lifetimes_ns
    err2 = max(_rel(taus[0], truth["tau1_ns"]), _rel(taus[1], truth["tau2_ns"]))
    rates = out["rates"]
    rates_ok = (_close(rates.kappa_f, 1.0 / taus[0], IDENTITY_RTOL)
                and _close(rates.theta_t, taus[0] / taus[1], IDENTITY_RTOL))
    parts += [("tcspc k=2", bool(t2.converged) and err2 < TCSPC_TOL, None, ACCURACY),
              ("quantum yield identities", rates_ok, None, HARD)]
    return parts, err2


def _svd_parts(res, truth):
    if isinstance(res, Exception):
        return [("svd raised", False, None, ACCURACY)], None
    taus = sorted(res.component_lifetimes)
    if res.significant_count != 2 or len(taus) != 2:
        return [("svd rank", False, None, ACCURACY)], None
    err = max(_rel(taus[0], truth["tau1_ps"]), _rel(taus[1], truth["tau2_ps"]))
    return [("svd lifetimes", err < SVD_TOL, None, ACCURACY)], err


def _cavity_parts(chain, truth):
    q_loaded, k1 = chain["q_loaded"], chain["coupling_k1"]
    identities = (_close(k1, chain["d"] / (truth["d2"] - 1.0), IDENTITY_RTOL)
                  and _close(q_loaded, truth["f0"] / (truth["f_high"] - truth["f_low"]),
                             IDENTITY_RTOL)
                  and _close(chain["q_unloaded"], q_loaded * (1.0 + k1), IDENTITY_RTOL)
                  and _close(chain["kappa_c_per_s"], 2.0 * math.pi * truth["f0"] / q_loaded,
                             IDENTITY_RTOL))
    return [
        ("reflection circle", abs(chain["d"] - 2.0 * truth["radius"]) <= CIRCLE_DIAMETER_TOL,
         None, ACCURACY),
        ("q-circle identities", identities, None, HARD),
        ("thermal photons", _rel(chain["n_bar"], THERMAL_NBAR) <= THERMAL_TOL, None, HARD),
    ]


def _rabi_parts(out, truth):
    rabi = out["rabi_hz"]
    return [
        ("rabi frequency", not isinstance(rabi, Exception)
         and _rel(rabi, truth["f_rabi"]) <= RABI_TOL, None, HARD),
        ("ripple count", out["ripples"] >= MIN_RIPPLES, None, HARD),
    ]


def analysis_set(out, truth):
    """Oracle for one analysis-chain input set (the dict analysis_chain returns)."""
    fit = out["biexp"]
    tcspc, tcspc_err = _tcspc_parts(out, truth["tcspc"])
    svd, svd_err = _svd_parts(out["svd"], truth["tas"])
    parts = (_biexp_parts(fit, truth["biexp"]) + _triplet_parts(out, fit) + tcspc + svd
             + _cavity_parts(out["qcircle"], truth["cavity"]) + _rabi_parts(out, truth["rabi"]))
    tau_errs = [e for e in (tcspc_err, svd_err) if e is not None]
    return _verdict(parts, {"tau_err": max(tau_errs)} if tau_errs else {})


# ---------------------------------------------------------------------------
# CLI

_NUMBER = re.compile(r"(?<![\w.])[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?(?![\w./])")


def printed_equal(token, value):
    """True when `token` is `value` rounded to the digits the token shows."""
    quantum = 10.0 ** Decimal(token).as_tuple().exponent
    return abs(float(token) - value) <= 0.5 * quantum * (1.0 + 1e-9)


def headline_matches(headline, values):
    """Every number printed in the headline equals the expected value."""
    tokens = _NUMBER.findall(headline)
    return len(tokens) == len(values) and all(
        printed_equal(tok, val) for tok, val in zip(tokens, values))


def _lookup(doc, dotted):
    node = doc
    for key in dotted.split("."):
        node = node[key]
    return node


def _values_close(got, want):
    if isinstance(want, (list, tuple)):
        return (isinstance(got, list) and len(got) == len(want)
                and all(_values_close(g, w) for g, w in zip(got, want)))
    if isinstance(want, (bool, str)) or want is None:
        return got == want
    return isinstance(got, (int, float)) and abs(got - want) <= CLI_RTOL * abs(want)


def _schema_valid(doc, schema):
    try:
        jsonschema.validate(doc, schema)
    except jsonschema.ValidationError:
        return False
    return True


def cli_command(run, expected, schema):
    """Check one CLI process: exit 0, schema-valid JSON, values as in-process.

    run has exit_code, stdout and doc (the parsed result JSON or None);
    expected has `headline` (exact text) or `headline_values` (numbers
    in print order), and `results` mapping dotted result keys to values.
    schema is the result schema shipped with the package under test.
    """
    if run.exit_code != 0 or run.doc is None:
        return _verdict([("exit code 0", False, None, HARD)], {}, f"exit {run.exit_code}")
    parts = [("schema", _schema_valid(run.doc, schema), None, HARD)]
    headline = run.stdout.strip()
    if "headline" in expected:
        parts.append(("headline", headline == expected["headline"], None, HARD))
    else:
        parts.append(("headline", headline_matches(headline, expected["headline_values"]),
                      None, HARD))
    for key, want in expected["results"].items():
        try:
            got = _lookup(run.doc["results"], key)
        except (KeyError, TypeError):
            got = None
        parts.append((f"results.{key}", _values_close(got, want), None, HARD))
    return _verdict(parts, {}, headline)
