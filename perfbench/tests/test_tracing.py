"""Span tracing: nesting, self time, stage counts and restoring rebound attributes."""

import types
from pathlib import Path

import pytest

from mkbench import layers, workloads
from mkbench.tracing import Tracer

SRC = Path(__file__).resolve().parent.parent.parent / "src"


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


def fake_modules(clock):
    """A 'cqed' and a 'fitting' module whose functions call each other by attribute."""
    cqed = types.ModuleType("fake.cqed")
    fitting = types.ModuleType("fake.fitting")

    def simulate_maser(fail=False):
        clock.advance(2.0)
        if fail:
            raise ArithmeticError("integration failed")
        return "trajectory"

    def nlls_minimize(n_sims):
        clock.advance(1.0)
        for _ in range(n_sims):
            cqed.simulate_maser()
        clock.advance(3.0)
        return types.SimpleNamespace(iterations=n_sims)

    def fit_maser_parameters(stage4):
        cqed.simulate_maser()
        cqed.simulate_maser()
        fitting.nlls_minimize(1)
        if stage4:
            fitting.nlls_minimize(2)
            fitting.nlls_minimize(1)
        return "fit"

    cqed.simulate_maser = simulate_maser
    fitting.nlls_minimize = nlls_minimize
    fitting.fit_maser_parameters = fit_maser_parameters
    targets = [(cqed, "simulate_maser", None),
               (fitting, "nlls_minimize", lambda res: res.iterations),
               (fitting, "fit_maser_parameters", None)]
    return cqed, fitting, targets


def test_self_time_subtracts_nested_simulations():
    clock = FakeClock()
    cqed, fitting, targets = fake_modules(clock)
    with Tracer(clock).install(targets) as tracer:
        fitting.nlls_minimize(2)
    names = [s.name for s in tracer.spans]
    assert names == ["fitting.nlls_minimize", "cqed.simulate_maser", "cqed.simulate_maser"]
    assert [s.parent for s in tracer.spans] == [None, 0, 0]
    assert tracer.spans[0].seconds == 8.0
    assert tracer.self_seconds() == [4.0, 2.0, 2.0]
    assert tracer.spans[0].note == 2


def test_fit_stage_counts_split_presolve_polish_and_fallback():
    clock = FakeClock()
    cqed, fitting, targets = fake_modules(clock)
    with Tracer(clock).install(targets) as tracer:
        fitting.fit_maser_parameters(stage4=False)
        fitting.fit_maser_parameters(stage4=True)
    assert layers.fit_stages(tracer) == {
        "fits": 2, "presolve": 4, "polish": 2, "fallback": 3, "fallback_runs": 1}


def test_failed_call_is_recorded_and_reraised():
    clock = FakeClock()
    cqed, fitting, targets = fake_modules(clock)
    with Tracer(clock).install(targets) as tracer:
        with pytest.raises(ArithmeticError):
            cqed.simulate_maser(fail=True)
    assert tracer.spans[0].error == "ArithmeticError"
    assert tracer.spans[0].seconds == 2.0


def test_attributes_restored_after_the_run_even_when_it_raises():
    clock = FakeClock()
    cqed, fitting, targets = fake_modules(clock)
    originals = {(id(m), a): getattr(m, a) for m, a, _ in targets}
    with pytest.raises(ArithmeticError):
        with Tracer(clock).install(targets):
            assert cqed.simulate_maser is not originals[(id(cqed), "simulate_maser")]
            cqed.simulate_maser(fail=True)
    assert all(getattr(m, a) is originals[(id(m), a)] for m, a, _ in targets)


def test_real_maserkit_targets_restored_after_a_traced_call():
    mk = workloads.load_maserkit(SRC)
    targets = workloads.trace_targets(mk)
    originals = [getattr(m, a) for m, a, _ in targets]
    with Tracer().install(targets) as tracer:
        mk.cavity.thermal_photons(1.476e9, 290.0)
        mk.spectro.rates_from_lifetimes(0.46, 0.685)
    assert [s.name for s in tracer.spans] == ["cavity.thermal_photons",
                                              "spectro.rates_from_lifetimes"]
    assert [getattr(m, a) for m, a, _ in targets] == originals
