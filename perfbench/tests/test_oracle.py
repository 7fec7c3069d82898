"""Oracle pieces that do not need a maserkit run."""

import types

import pytest

from mkbench import oracle


def test_printed_numbers_compare_at_the_printed_precision():
    assert oracle.printed_equal("4097.07", 4097.0712)
    assert not oracle.printed_equal("4097.07", 4097.08)
    assert oracle.printed_equal("2.186e+06", 2.18641e6)
    assert oracle.headline_matches("K = 0.5  Q_L = 3690  kappa_c = 2.5e+06 1/s",
                                   [0.5, 3690.2, 2.5e6])
    assert oracle.headline_matches("A=0.547  B=-0.066  alpha-=-393000  alpha+=-45900",
                                   [0.547, -0.066, -393000.0, -45900.0])
    assert not oracle.headline_matches("theta_T = 0.67", [0.67, 1.0])


def test_hard_miss_outside_known_classes_makes_a_verdict_unsound():
    parts = [("identity", False, None, oracle.HARD), ("fit", False, None, oracle.ACCURACY)]
    v = oracle._verdict(parts, {})
    assert not v.ok and not v.sound and v.misses == ["identity", "fit"]
    known = oracle._verdict([("tcspc k=3", False, "tcspc3_inf_converged", oracle.HARD)], {})
    assert not known.ok and known.sound
    assert known.misses == ["tcspc k=3 [tcspc3_inf_converged]"]


def test_clean_maser_miss_is_hard_and_noisy_false_convergence_is_known():
    truth = [1.0, 2.0, 3.0]
    fit = types.SimpleNamespace(params=[1.03, 2.0, 3.0], param_uncertainties=[0.01, 0, 0],
                                converged=True, residual_norm=0.1)
    clean = oracle.maser_fit(fit, truth)
    assert not clean.ok and not clean.sound and clean.facts["z"] == pytest.approx(3.0)
    noisy = oracle.maser_fit(fit, truth, noise_rms_log10=0.01, n_samples=100)
    assert not noisy.ok and noisy.sound and noisy.facts["false_converged"] == 1
    assert noisy.facts["resid_over_floor"] == pytest.approx(1.0)
