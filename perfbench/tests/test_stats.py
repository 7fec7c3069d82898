"""Op summaries: p50/max over an op list, ok/error shares, soundness."""

import itertools

import pytest

from mkbench.stats import Op, OpRecord, Verdict, all_sound, miss_counts, run_ops, summarize


def record(seconds, index=0, ok=True, error=None, sound=True, misses=()):
    return OpRecord("op", index, seconds, error, Verdict(ok, sound, list(misses)))


def test_p50_and_max_over_odd_and_even_op_lists():
    odd = summarize([record(t, i) for i, t in enumerate((3.0, 1.0, 2.0))])
    assert odd["op_s_p50"] == 2.0 and odd["op_s_max"] == 3.0 and odd["ops"] == 3
    even = summarize([record(t, i) for i, t in enumerate((4.0, 1.0, 2.0, 3.0))])
    assert even["op_s_p50"] == 2.5 and even["op_s_max"] == 4.0


def test_op_times_are_best_of_passes():
    passes = [record(t, i) for i, t in enumerate((3.0, 1.0, 2.0))]
    passes += [record(t, i) for i, t in enumerate((2.5, 5.0, 2.0))]
    summary = summarize(passes)
    assert summary["op_s_max"] == 2.5 and summary["op_s_p50"] == 2.0 and summary["ops"] == 6


def test_summarize_refuses_an_empty_run():
    with pytest.raises(ValueError):
        summarize([])


def test_ok_and_error_fractions_count_a_failing_fake_op():
    ticks = itertools.count()
    ops = [
        Op("good", lambda: 1, lambda out: Verdict(True)),
        Op("wrong", lambda: 2, lambda out: Verdict(False, True, ["value"])),
        Op("raises", lambda: 1 / 0, lambda out: Verdict(True)),
    ]
    records, wall = run_ops(ops, passes=2, clock=lambda: float(next(ticks)))
    assert [r.name for r in records] == ["good", "wrong", "raises"] * 2
    assert all(r.seconds == 1.0 for r in records)
    assert wall == 13.0
    summary = summarize(records)
    assert summary["ok_frac"] == pytest.approx(2 / 6)
    assert summary["error_frac"] == pytest.approx(2 / 6)
    assert records[2].error.startswith("ZeroDivisionError")
    assert miss_counts(records) == {"value": 2, "error": 2}
    assert not all_sound(records)


def test_sound_run_allows_accuracy_misses_but_not_errors():
    assert all_sound([record(1.0), record(1.0, 1, ok=False, misses=["biexp"])])
    assert not all_sound([record(1.0, ok=False, sound=False)])
    assert not all_sound([record(1.0, error="RuntimeError: x")])
