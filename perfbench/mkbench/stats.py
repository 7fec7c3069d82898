"""Per-op records and the end-to-end summaries computed from them."""

import math
import statistics
import time
from dataclasses import dataclass, field


@dataclass
class Verdict:
    """Oracle outcome for one op.

    ok is the strict verdict behind ok_frac: every check passed.  sound
    is False only when a hard check (an exact identity, a documented
    contract, a noiseless round trip, the CLI's agreement with the
    library) failed outside the documented failure classes; accuracy
    checks on noisy data lower ok_frac but leave sound alone.  misses
    labels each failed check, with its documented class in brackets.
    facts carries measured quantities for the per-layer metrics.
    """

    ok: bool
    sound: bool = True
    misses: list = field(default_factory=list)
    detail: str = ""
    facts: dict = field(default_factory=dict)


@dataclass
class OpRecord:
    name: str
    index: int
    seconds: float
    error: str | None
    verdict: Verdict


def median(values):
    return statistics.median(values) if values else 0.0


def best_times(records):
    """Each distinct op's best time over the passes (best-of-N, as in the
    repository's acceptance tests): a pass slowed by a burst of load on
    the machine does not set an op's time when another pass was not."""
    best = {}
    for r in records:
        best[r.index] = min(best.get(r.index, math.inf), r.seconds)
    return list(best.values())


def summarize(records):
    """Op count, p50/max op time and the ok/error shares of one run.

    The times are best-of-passes per distinct op.  Both shares divide by
    the ops attempted; an op that raised counts as an error and as not ok.
    """
    n = len(records)
    if n == 0:
        raise ValueError("no ops were run")
    times = best_times(records)
    return {
        "ops": n,
        "op_s_p50": statistics.median(times),
        "op_s_max": max(times),
        "ok_frac": sum(1 for r in records if r.error is None and r.verdict.ok) / n,
        "error_frac": sum(1 for r in records if r.error is not None) / n,
    }


def miss_counts(records):
    """How many ops missed each check (label 'error' for ops that raised)."""
    counts = {}
    for r in records:
        for label in (["error"] if r.error is not None else r.verdict.misses):
            counts[label] = counts.get(label, 0) + 1
    return counts


def all_sound(records):
    """True when no op raised and no hard check failed outside a documented class."""
    return all(r.error is None and r.verdict.sound for r in records)


def fact_max(records, key):
    values = [r.verdict.facts[key] for r in records if key in r.verdict.facts]
    return max(values) if values else 0.0


def fact_sum(records, key):
    return sum(r.verdict.facts.get(key, 0) for r in records)


@dataclass
class Op:
    """One unit of end-to-end work: `run` is timed, `check` is not."""

    name: str
    run: object
    check: object


def run_ops(ops, passes, clock=time.perf_counter):
    """Run every op `passes` times in order; return (records, wall seconds).

    An op that raises is recorded as an error with its exception and is
    not checked.  `check` runs outside the op's timed interval.
    """
    records = []
    wall0 = clock()
    for _ in range(passes):
        for index, op in enumerate(ops):
            t0 = clock()
            try:
                out = op.run()
            except Exception as exc:  # the op failed; record it and go on
                records.append(OpRecord(op.name, index, clock() - t0,
                                        f"{type(exc).__name__}: {exc}", Verdict(False, False)))
                continue
            seconds = clock() - t0
            records.append(OpRecord(op.name, index, seconds, None, op.check(out)))
    return records, clock() - wall0
