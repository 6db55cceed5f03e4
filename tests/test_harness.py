import dataclasses
import hashlib
import json
import math
import sys
from fractions import Fraction

import hypothesis
from hypothesis import strategies as st
import numpy as np
import pytest
from scipy.stats import beta as beta_dist

from noisyquery import (
    CSV_COLUMNS,
    ExperimentSpec,
    NoiseModel,
    RejectionCapExceeded,
    ScalingReport,
    ThresholdResult,
    derive_rng,
    harness,
    report_to_dict,
    reports_to_csv,
    reports_to_json,
    run_experiment,
    run_trial,
    sample_hard_instance,
    theory_bound,
    validate_spec,
    wilson_interval,
)
from noisyquery.connectivity import pair_barriers
from noisyquery.counting import counting_levels, threshold_barriers
from noisyquery.walks import barrier


def clopper_pearson(errors, trials, confidence=0.95):
    alpha = 1.0 - confidence
    low = 0.0 if errors == 0 else float(beta_dist.ppf(alpha / 2, errors, trials - errors + 1))
    high = 1.0 if errors == trials else float(beta_dist.ppf(1 - alpha / 2, errors + 1, trials - errors))
    return low, high


def test_wilson_zero_errors():
    low, high = wilson_interval(0, 100)
    assert low == 0.0
    assert 0.036 <= high <= 0.043
    cp_low, cp_high = clopper_pearson(0, 100)
    assert 0.036 <= cp_high <= 0.043


def test_wilson_boundaries_and_symmetry():
    low, high = wilson_interval(100, 100)
    assert high == 1.0
    low, high = wilson_interval(50, 100)
    assert low + high == pytest.approx(1.0, abs=1e-9)
    assert low < 0.5 < high


def test_wilson_tracks_clopper_pearson():
    for errors, trials in ((3, 50), (10, 200), (1, 1000), (250, 500)):
        low, high = wilson_interval(errors, trials)
        cp_low, cp_high = clopper_pearson(errors, trials)
        # Wilson is a touch narrower but must sit in the same territory
        assert high <= cp_high + 0.01
        assert low >= cp_low - 0.01


def test_wilson_validation():
    with pytest.raises(ValueError):
        wilson_interval(0, 0)
    with pytest.raises(ValueError):
        wilson_interval(-1, 10)
    with pytest.raises(ValueError):
        wilson_interval(11, 10)
    # counts follow the integer rule
    for errors, trials in ((1, 10.5), (True, 10), (1.0, 10)):
        with pytest.raises(ValueError, match="integer"):
            wilson_interval(errors, trials)


def test_theory_bound_values():
    dkl = 0.5 * math.log(3.0)
    value = theory_bound("threshold", n=10**4, k=100, delta=0.01, p=0.25)
    assert value == pytest.approx(10**4 * math.log(10**4) / dkl, rel=1e-12)
    assert value == pytest.approx(1.677e5, rel=1e-3)
    # counting with zero ones and delta = 1/e normalizes to n / D_KL
    value = theory_bound("counting", n=500, k=0, delta=math.exp(-1.0), p=0.25)
    assert value == pytest.approx(500 / dkl, rel=1e-12)
    # symmetric threshold points give identical bounds
    a = theory_bound("threshold", n=1001, k=300, delta=0.05, p=0.2)
    b = theory_bound("threshold", n=1001, k=1001 - 300 + 1, delta=0.05, p=0.2)
    assert a == b
    with pytest.raises(ValueError):
        theory_bound("sorting", n=10, k=1, delta=0.1, p=0.25)
    with pytest.raises(ValueError):
        theory_bound("threshold", n=10, k=11, delta=0.1, p=0.25)
    for delta in (0.0, 1.0, True):
        with pytest.raises(ValueError, match="delta must lie in"):
            theory_bound("threshold", n=10, k=1, delta=delta, p=0.25)
    # n and k follow the integer rule: no float and no bool
    for k in (-1, 11, 2.5, True):
        with pytest.raises(ValueError, match="counting bound needs"):
            theory_bound("counting", n=10, k=k, delta=0.1, p=0.25)
    for n, k in ((10, True), (True, 1), (10.0, 2)):
        with pytest.raises(ValueError, match="threshold bound needs"):
            theory_bound("threshold", n=n, k=k, delta=0.1, p=0.25)
    for n in (1, 5.5, True):
        with pytest.raises(ValueError, match="connectivity bound needs n >= 2"):
            theory_bound("connectivity", n=n, delta=0.1, p=0.25)
    # a numpy float delta is the float it holds
    for kind, k in (("threshold", 2), ("counting", 2), ("connectivity", None)):
        held = theory_bound(kind, n=10, k=k, delta=np.float32(0.1), p=np.float32(0.2))
        assert held == theory_bound(kind, n=10, k=k, delta=float(np.float32(0.1)), p=float(np.float32(0.2)))


@pytest.mark.parametrize("kind", ["counting2", "st-connectivity"])
def test_theory_bound_takes_law_names_only(kind):
    # the kinds share the counting and connectivity laws through the registry
    with pytest.raises(ValueError, match="no theory bound"):
        theory_bound(kind, n=30, k=3, delta=0.1, p=0.25)


def test_theory_bound_monotonicity():
    base = dict(k=20, delta=0.05, p=0.25)
    values = [theory_bound("threshold", n=n, **base) for n in (100, 200, 400, 1000)]
    assert values == sorted(values)
    values = [theory_bound("threshold", n=500, k=20, delta=d, p=0.25) for d in (0.2, 0.1, 0.01, 1e-4)]
    assert values == sorted(values)
    values = [theory_bound("threshold", n=501, k=k, delta=0.05, p=0.25) for k in (1, 5, 50, 251)]
    assert values == sorted(values)


THRESHOLD_SPEC = ExperimentSpec(kind="threshold", n=60, k=4, p=0.25, delta=0.1, trials=40, seed=91)
COUNTING_SPEC = ExperimentSpec(kind="counting", n=50, p=0.2, delta=0.1, trials=40, seed=92, ones=5)


def test_run_experiment_deterministic():
    first = run_experiment(THRESHOLD_SPEC)
    second = run_experiment(THRESHOLD_SPEC)
    assert report_to_dict(first) == report_to_dict(second)
    assert reports_to_csv([first]) == reports_to_csv([second])


def test_trial_records_independent_of_order():
    in_order = [run_trial(COUNTING_SPEC, t) for t in range(COUNTING_SPEC.trials)]
    shuffled_ts = list(range(COUNTING_SPEC.trials))[::-1]
    reversed_records = [run_trial(COUNTING_SPEC, t) for t in shuffled_ts]
    assert in_order == list(reversed(reversed_records))


def test_threshold_scores_the_decision_on_the_complement_branch():
    # 2k > n + 1: a value below k means "fewer than k", so ones pinned
    # below k - 1 are scored by the decision, not by min(k, ones)
    spec = ExperimentSpec("threshold", n=60, k=50, ones=10, p=0.01, delta=0.05, trials=20, seed=4)
    assert run_experiment(spec).errors == 0


@pytest.mark.parametrize("k,errors", [(30, 20), (31, 0)])
def test_threshold_scoring_rule_follows_the_branch(monkeypatch, k, errors):
    # an answer of k - 1 for 10 ones: a wrong count where 2k <= n + 1,
    # the right decision where the complement is scanned
    monkeypatch.setattr(
        harness, "threshold_counts", lambda oracles, k, delta: [ThresholdResult(k - 1, 0) for _ in oracles]
    )
    spec = ExperimentSpec("threshold", n=60, k=k, ones=10, p=0.01, delta=0.05, trials=20, seed=4)
    assert run_experiment(spec).errors == errors


def test_report_internal_consistency():
    report = run_experiment(COUNTING_SPEC)
    assert report.error_rate == report.errors / COUNTING_SPEC.trials
    assert report.ci_low <= report.error_rate <= report.ci_high
    records = [run_trial(COUNTING_SPEC, t) for t in range(COUNTING_SPEC.trials)]
    assert report.mean_queries == sum(q for _, q in records) / COUNTING_SPEC.trials
    assert report.errors == sum(1 for ok, _ in records if not ok)
    assert report.theory_queries > 0
    assert report.ratio == report.mean_queries / report.theory_queries
    # one trial has no sample stddev
    assert math.isnan(run_experiment(dataclasses.replace(COUNTING_SPEC, trials=1)).stddev_queries)


def test_run_experiment_parallel_matches_serial():
    serial = run_experiment(THRESHOLD_SPEC)
    parallel = run_experiment(dataclasses.replace(THRESHOLD_SPEC, jobs=2))
    assert report_to_dict(serial) == report_to_dict(parallel)


def test_walk_laws_report():
    spec = ExperimentSpec(kind="walk-laws", p=0.25, k=2, trials=20000, seed=93)
    report = run_experiment(spec)
    law = (0.25 / 0.75) ** 2
    assert abs(report.error_rate - law) <= 3.0 * math.sqrt(law * (1 - law) / spec.trials) + 1e-6
    assert report.theory_queries == pytest.approx(4.0)
    assert report.ratio == pytest.approx(1.0, abs=0.05)
    assert report.stddev_queries > 0


def test_influence_report():
    spec = ExperimentSpec(kind="influence", n=6, q=0.3, trials=30, seed=94)
    report = run_experiment(spec)
    assert report.errors == 0
    assert report.mean_queries == 0.0
    assert math.isnan(report.ratio)


def test_connectivity_and_st_reports():
    spec = ExperimentSpec(kind="connectivity", n=14, p=0.2, delta=0.15, trials=25, seed=95)
    report = run_experiment(spec)
    assert report.errors <= 5
    assert report.mean_queries > 0
    st = ExperimentSpec(kind="st-connectivity", n=14, p=0.2, delta=0.15, trials=25, seed=96)
    st_report = run_experiment(st)
    assert st_report.errors <= 5


def test_counting2_report_and_k_column():
    spec = ExperimentSpec(kind="counting2", n=40, p=0.2, delta=0.1, trials=20, seed=97, ones=36)
    report = run_experiment(spec)
    row = report_to_dict(report)
    assert row["k"] == 36
    assert row["experiment"] == "counting2"
    assert report.errors <= 4


@pytest.mark.parametrize("kind", ["connectivity", "st-connectivity"])
def test_validation_rejects_infeasible_balance(kind):
    with pytest.raises(ValueError, match="balanced edge"):
        validate_spec(ExperimentSpec(kind=kind, n=3, p=0.2, delta=0.1, beta=Fraction(49, 100), trials=1))
    # n=2 at the default 1/21 has the single edge 1|1
    validate_spec(ExperimentSpec(kind=kind, n=2, p=0.2, delta=0.1, trials=1))
    assert run_experiment(ExperimentSpec(kind=kind, n=2, p=0.2, delta=0.1, trials=3, seed=5)).spec.n == 2


def test_validation_rejects_bad_specs():
    with pytest.raises(ValueError):
        validate_spec(ExperimentSpec(kind="threshold", n=10, k=3, p=0.25, delta=0.1, trials=0, seed=0))
    with pytest.raises(ValueError):
        validate_spec(ExperimentSpec(kind="threshold", n=10, k=11, p=0.25, delta=0.1, trials=5, seed=0))
    with pytest.raises(ValueError):
        validate_spec(ExperimentSpec(kind="threshold", n=10, k=3, p=0.6, delta=0.1, trials=5, seed=0))
    with pytest.raises(ValueError):
        validate_spec(ExperimentSpec(kind="counting", n=10, p=0.25, delta=0.1, trials=5, seed=0))
    with pytest.raises(ValueError):
        validate_spec(ExperimentSpec(kind="nonsense", trials=5, seed=0))
    with pytest.raises(ValueError, match="structure_scaling_report"):
        validate_spec(ExperimentSpec(kind="ust-stats", trials=5, seed=0))
    # beta=0 is a given threshold, not the default one
    for kind in ("connectivity", "st-connectivity"):
        with pytest.raises(ValueError, match="balance threshold"):
            validate_spec(ExperimentSpec(kind=kind, n=5, p=0.2, delta=0.1, beta=Fraction(0), trials=2))
    with pytest.raises(ValueError):
        run_experiment(ExperimentSpec(kind="threshold", n=10, k=3, p=0.25, delta=1.5, trials=5, seed=0))
    # a field the kind does not read is refused, not echoed into the row
    with pytest.raises(ValueError, match="walk-laws does not read delta, q"):
        validate_spec(ExperimentSpec("walk-laws", p=0.25, k=3, delta=0.1, q=0.5, trials=10))
    with pytest.raises(ValueError, match="counting does not read k;"):
        validate_spec(ExperimentSpec("counting", n=10, k=3, p=0.25, delta=0.1, ones=2, trials=5))
    with pytest.raises(ValueError, match="does not read beta"):
        validate_spec(ExperimentSpec("threshold", n=10, k=3, p=0.25, delta=0.1, beta=Fraction(1, 3), trials=5))
    with pytest.raises(ValueError, match="does not read asymptotic_presample"):
        validate_spec(ExperimentSpec("counting", n=10, p=0.25, delta=0.1, ones=2, asymptotic_presample=True, trials=5))
    # a single trial takes its spec as run_experiment does, and a kind
    # that runs only whole has no single trial
    for spec, message in (
        (ExperimentSpec("threshold", n=10, k=20, p=0.2, delta=0.1, trials=1), "threshold needs 1 <= k <= n"),
        (ExperimentSpec("threshold", n=10, k=2, p=0.2, delta=0.1, q=0.5, trials=1), "threshold does not read q"),
        (ExperimentSpec("walk-laws", p=0.25, k=2, trials=10), "walk-laws has no single trials"),
    ):
        with pytest.raises(ValueError, match=message):
            run_trial(spec, 0)
    # each field must have its declared type, before any trial runs: an
    # integer field takes no bool or float, a real one no bool or str
    for spec, rule in (
        (ExperimentSpec("counting", n=20.0, p=0.2, delta=0.1, ones=3, trials=2), "n >= 1"),
        (ExperimentSpec("counting", n=20, p=0.2, delta=0.1, ones=True, trials=2), "ones in"),
        (ExperimentSpec("counting", n=20, p="0.2", delta=0.1, ones=3, trials=2), "p in"),
        (ExperimentSpec("counting", n=20, p=True, delta=0.1, ones=3, trials=2), "p in"),
        (ExperimentSpec("threshold", n=10, k=3.0, p=0.25, delta=0.1, trials=2), "1 <= k <= n"),
        (ExperimentSpec("connectivity", n=10.0, p=0.2, delta=0.1, trials=2), "n >= 2"),
        (ExperimentSpec("walk-laws", p=0.25, k=2.0, trials=10), "barrier distance"),
        (ExperimentSpec("influence", n=4.0, q=0.5, trials=2), "1 <= n <="),
        (
            ExperimentSpec("counting2", n=20, p=0.2, delta=0.1, ones=3, asymptotic_presample=1, trials=2),
            "asymptotic_presample True or False",
        ),
    ):
        with pytest.raises(ValueError, match=f"{spec.kind} needs {rule}"):
            run_experiment(spec)
    # a kind's own fields pass while the others keep their defaults
    validate_spec(ExperimentSpec("walk-laws", p=0.25, k=3, trials=10))
    validate_spec(ExperimentSpec("counting2", n=10, p=0.25, delta=0.1, ones=2, asymptotic_presample=True, trials=5))


EDGE_DELTAS = (5e-324, 1e-320, sys.float_info.min, 1e-308, 1e-307, 1e-300, 0.999999, 0.0, 1.0, float("nan"))
EDGE_PS = (5e-324, 1e-310, 1e-300, 1e-9, 0.01, 0.49, 0.4999, 0.4999999999, 0.49999999999999994, 0.0, 0.5)


def barrier_cost(spec):
    """keys * max(a, b) / (1 - 2p): about the most a trial of a valid
    spec can cost, from its barriers."""
    noise = NoiseModel(spec.p)
    n, delta = spec.n, spec.delta
    if spec.kind == "threshold":
        keys, walls = n, threshold_barriers(noise, n, min(spec.k, n - spec.k + 1), delta)
    elif spec.kind.startswith("counting"):
        # the presample of counting2 walks at most n more keys, at error >= 1e-300
        keys, walls = 2 * n, (*counting_levels(noise, n, n, delta), barrier(noise, 1, 1e-300))
    else:
        keys, walls = n * (n - 1) // 2, pair_barriers(noise, n, delta)
    return keys * max(walls) / (1.0 - 2.0 * noise.p)


@pytest.mark.parametrize("kind", ["threshold", "counting", "counting2", "connectivity", "st-connectivity"])
@hypothesis.settings(max_examples=150, suppress_health_check=[hypothesis.HealthCheck.filter_too_much])
@hypothesis.given(data=st.data())
def test_every_spec_fails_validation_or_runs(kind, data):
    # over each query kind's own fields, with n = 1 and 2, subnormal delta
    # and p near 0 and 1/2: a spec is refused by validate_spec with a
    # ValueError, or one trial of it returns. Specs whose barriers imply
    # more than 1e5 queries are valid but too slow to run here.
    reals = {
        "p": st.one_of(st.sampled_from(EDGE_PS), st.floats(0.0, 0.5)),
        "delta": st.one_of(st.sampled_from(EDGE_DELTAS), st.floats(0.0, 1.0)),
    }
    values = {}
    for param in harness.KINDS[kind].params:
        if param.field in reals:
            strategy = reals[param.field]
        elif param.field == "n":
            strategy = st.sampled_from([1, 2, 3, 4, 5, 6, 0, -1])
        elif param.type is int:
            # k and ones, mostly in range for the n drawn before them
            strategy = st.sampled_from([*range(max(values["n"], 0) + 1), -1, values["n"] + 1])
        elif param.type is bool:
            strategy = st.booleans()
        else:
            strategy = st.sampled_from([Fraction(1, 21), Fraction(1, 3), Fraction(0)])
        if param.optional:
            strategy = st.one_of(st.none(), strategy)
        values[param.field] = data.draw(strategy, label=param.field)
    spec = ExperimentSpec(kind, trials=1, seed=data.draw(st.integers(0, 2**32), label="seed"), **values)
    try:
        validate_spec(spec)
    except ValueError as exc:
        hypothesis.event(f"refused: {exc}")
        return
    hypothesis.assume(barrier_cost(spec) <= 1e5)
    hypothesis.event("ran" + (" at subnormal delta" if spec.delta < sys.float_info.min else ""))
    correct, queries = run_trial(spec, 0)
    assert queries >= 0


_SMALL_SPECS = {
    "threshold": dict(n=10, k=3, p=0.2, delta=0.1),
    "counting2": dict(n=10, ones=3, p=0.2, delta=0.1),
    "connectivity": dict(n=8, p=0.2, delta=0.1, beta=Fraction(1, 5)),
    "influence": dict(n=3, q=0.3),
}


@pytest.mark.parametrize(
    "kind,field,value",
    [
        ("threshold", "n", np.int64(10)),
        ("threshold", "k", np.int64(3)),
        ("threshold", "p", np.float32(0.2)),
        ("threshold", "delta", np.float64(0.1)),
        ("threshold", "delta", np.float32(0.1)),
        ("threshold", "seed", np.uint32(7)),
        ("threshold", "trials", np.int16(3)),
        ("counting2", "ones", np.int8(3)),
        ("counting2", "asymptotic_presample", np.bool_(True)),
        ("connectivity", "beta", np.float32(0.2)),
        ("influence", "q", np.float64(0.3)),
        ("threshold", "p", Fraction(1, 5)),
        ("influence", "q", Fraction(3, 10)),
    ],
)
def test_admitted_specs_run_as_python_numbers(kind, field, value):
    # what validate_spec admits runs: a numpy scalar gives the rows and
    # JSON of the Python number it equals, and a Fraction where a float
    # belongs is refused before any trial
    spec = ExperimentSpec(kind, **{"trials": 3, "seed": 5, **_SMALL_SPECS[kind], field: value})
    if not isinstance(value, np.generic):
        with pytest.raises(ValueError, match="needs"):
            run_experiment(spec)
        return
    plain = run_experiment(dataclasses.replace(spec, **{field: value.item()}))
    report = run_experiment(spec)
    assert reports_to_csv([report]) == reports_to_csv([plain])
    assert reports_to_json([report]) == reports_to_json([plain])


@pytest.mark.parametrize("field,value", [("trials", True), ("seed", False), ("jobs", True)])
def test_validation_rejects_bool_run_fields(field, value):
    # bool is an int subclass; a bool here must not run and land in the row
    spec = ExperimentSpec("counting", n=20, p=0.2, delta=0.1, ones=3, trials=1, seed=0)
    validate_spec(spec)
    with pytest.raises(ValueError, match=f"{field} must be"):
        run_experiment(dataclasses.replace(spec, **{field: value}))


def test_trial_failures_name_the_trial(monkeypatch):
    # a sampler that exhausts its restart budget inside a trial; specs
    # that no tree can satisfy are already refused by validate_spec
    def exhausted(n, rng, **kwargs):
        raise RejectionCapExceeded(f"no balanced edge found on {n} vertices")

    monkeypatch.setattr(harness, "sample_hard_instance", exhausted)
    spec = ExperimentSpec(kind="connectivity", n=11, p=0.2, delta=0.1, trials=3, seed=98)
    with pytest.raises(RuntimeError, match="trial 0"):
        run_experiment(spec)

    # seven trials on 11 vertices are one block, and only trial 4's sampler raises
    spec = dataclasses.replace(spec, trials=7)
    poisoned = derive_rng(spec.seed, spec.kind, "instance", 4).bit_generator.state

    def fails_at_trial_4(n, rng, **kwargs):
        if rng.bit_generator.state == poisoned:
            exhausted(n, rng)
        return sample_hard_instance(n, rng, **kwargs)

    monkeypatch.setattr(harness, "sample_hard_instance", fails_at_trial_4)
    with pytest.raises(RuntimeError, match="connectivity trial 4 failed: no balanced edge"):
        run_experiment(spec)

    # a failure in the block's one reconstruction names the block's trials
    def broken(oracles, delta):
        raise ValueError("walk failed")

    monkeypatch.setattr(harness, "sample_hard_instance", sample_hard_instance)
    monkeypatch.setattr(harness, "_reconstruct", broken)
    with pytest.raises(RuntimeError, match="connectivity trials 0-6 failed: walk failed"):
        run_experiment(spec)


@pytest.mark.parametrize("kind", ["connectivity", "st-connectivity"])
def test_connectivity_blocks_give_the_single_trial_rows(monkeypatch, kind):
    spec = ExperimentSpec(kind, n=6, p=0.2, delta=0.2, trials=7, seed=31)
    records = [run_trial(spec, t) for t in reversed(range(spec.trials))]
    total = sum(q for _, q in records)
    total_sq = sum(q * q for _, q in records)
    # a cap of 40 pairs is two trials of C(6, 2) = 15 pairs, so the seven
    # trials run as four blocks of uneven sizes
    monkeypatch.setattr(harness, "_BLOCK_KEYS", 40)
    blocks = []
    whole_block = harness._connectivity_block

    def recording(spec, trials):
        blocks.append(trials)
        return whole_block(spec, trials)

    monkeypatch.setitem(harness.KINDS, kind, dataclasses.replace(harness.KINDS[kind], block=recording))
    report = run_experiment(spec)
    assert [len(block) for block in blocks] == [1, 2, 2, 2]
    assert [t for block in blocks for t in block] == list(range(spec.trials))
    assert report.errors == sum(1 for correct, _ in records if not correct)
    assert report.mean_queries == total / spec.trials
    assert report.stddev_queries == math.sqrt(max((total_sq - total * total / spec.trials) / (spec.trials - 1), 0.0))
    monkeypatch.setitem(harness.KINDS, kind, dataclasses.replace(harness.KINDS[kind], block=whole_block))
    parallel = run_experiment(dataclasses.replace(spec, jobs=2))
    assert reports_to_csv([parallel]) == reports_to_csv([report])


BIT_BLOCK_SPECS = {
    # pinned ones below k, on both branches
    "threshold below k": ExperimentSpec("threshold", n=30, k=5, ones=2, p=0.2, delta=0.2, trials=7, seed=35),
    "threshold complement below k": ExperimentSpec(
        "threshold", n=30, k=25, ones=3, p=0.2, delta=0.2, trials=7, seed=35
    ),
    # the hard pair, k - 1 or k ones by coin, on both branches
    "threshold pair": ExperimentSpec("threshold", n=30, k=5, p=0.2, delta=0.2, trials=7, seed=36),
    "threshold complement pair": ExperimentSpec("threshold", n=30, k=25, p=0.2, delta=0.2, trials=7, seed=36),
    "threshold no ones": ExperimentSpec("threshold", n=30, k=1, ones=0, p=0.2, delta=0.2, trials=7, seed=37),
    "threshold all ones": ExperimentSpec("threshold", n=30, k=30, ones=30, p=0.2, delta=0.2, trials=7, seed=37),
    "counting no ones": ExperimentSpec("counting", n=30, ones=0, p=0.2, delta=0.2, trials=7, seed=38),
    "counting some ones": ExperimentSpec("counting", n=30, ones=9, p=0.2, delta=0.2, trials=7, seed=38),
    "counting all ones": ExperimentSpec("counting", n=30, ones=30, p=0.2, delta=0.2, trials=7, seed=38),
    "counting2 no ones": ExperimentSpec("counting2", n=30, ones=0, p=0.2, delta=0.2, trials=7, seed=39),
    "counting2 some ones": ExperimentSpec("counting2", n=30, ones=9, p=0.2, delta=0.2, trials=7, seed=39),
    "counting2 mostly ones": ExperimentSpec("counting2", n=30, ones=24, p=0.2, delta=0.2, trials=7, seed=39),
    "counting2 all ones": ExperimentSpec("counting2", n=30, ones=30, p=0.2, delta=0.2, trials=7, seed=39),
    "counting2 asymptotic presample": ExperimentSpec(
        "counting2", n=30, ones=20, p=0.2, delta=0.2, trials=7, seed=40, asymptotic_presample=True
    ),
}


@pytest.mark.parametrize("case", list(BIT_BLOCK_SPECS))
def test_bit_blocks_give_the_single_trial_rows(monkeypatch, case):
    spec = BIT_BLOCK_SPECS[case]
    records = [run_trial(spec, t) for t in reversed(range(spec.trials))]
    total = sum(q for _, q in records)
    total_sq = sum(q * q for _, q in records)
    # a cap of 70 keys is two trials of 30 bits, so the seven trials run
    # as four blocks of uneven sizes
    monkeypatch.setattr(harness, "_BLOCK_KEYS", 70)
    blocks = []
    whole_block = harness.KINDS[spec.kind].block

    def recording(spec, trials):
        blocks.append(trials)
        return whole_block(spec, trials)

    monkeypatch.setitem(harness.KINDS, spec.kind, dataclasses.replace(harness.KINDS[spec.kind], block=recording))
    report = run_experiment(spec)
    assert [len(block) for block in blocks] == [1, 2, 2, 2]
    assert [t for block in blocks for t in block] == list(range(spec.trials))
    assert report.errors == sum(1 for correct, _ in records if not correct)
    assert report.mean_queries == total / spec.trials
    assert report.stddev_queries == math.sqrt(max((total_sq - total * total / spec.trials) / (spec.trials - 1), 0.0))
    monkeypatch.setitem(harness.KINDS, spec.kind, dataclasses.replace(harness.KINDS[spec.kind], block=whole_block))
    parallel = run_experiment(dataclasses.replace(spec, jobs=2))
    assert reports_to_csv([parallel]) == reports_to_csv([report])


@pytest.mark.parametrize(
    "kind, extra, algorithm",
    [
        ("threshold", {"k": 3}, "threshold_counts"),
        ("counting", {"ones": 3}, "counts_one_sided"),
        ("counting2", {"ones": 3}, "counts_two_sided"),
    ],
)
def test_bit_trial_failures_name_the_trial(monkeypatch, kind, extra, algorithm):
    spec = ExperimentSpec(kind, n=20, p=0.2, delta=0.1, trials=7, seed=98, **extra)
    # seven trials of 20 bits are one block, whose oracles are built in
    # trial order; only trial 4's oracle fails to build
    built = []
    real_oracle = harness.BitOracle

    def fails_at_trial_4(*args, **kwargs):
        built.append(None)
        if len(built) == 5:
            raise ValueError("no bits")
        return real_oracle(*args, **kwargs)

    monkeypatch.setattr(harness, "BitOracle", fails_at_trial_4)
    with pytest.raises(RuntimeError, match=f"^{kind} trial 4 failed: no bits"):
        run_experiment(spec)

    # a failure in the block's one algorithm call names the block's trials
    def broken(*args, **kwargs):
        raise ValueError("walk failed")

    monkeypatch.setattr(harness, "BitOracle", real_oracle)
    monkeypatch.setattr(harness, algorithm, broken)
    with pytest.raises(RuntimeError, match=f"^{kind} trials 0-6 failed: walk failed"):
        run_experiment(spec)
    with pytest.raises(RuntimeError, match=f"^{kind} trial 2 failed: walk failed"):
        run_trial(spec, 2)


@pytest.mark.parametrize(
    "kind, extra", [("threshold", {"k": 30}), ("counting", {"ones": 9}), ("counting2", {"ones": 9})]
)
def test_every_bit_oracle_is_built_by_its_harness_name(monkeypatch, kind, extra):
    # perfbench's --trace 1 wraps harness.BitOracle, and checks that the
    # ledgers of the oracles it saw built hold every query the reports count
    built = []
    real_oracle = harness.BitOracle

    def recording(*args, **kwargs):
        built.append(real_oracle(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(harness, "BitOracle", recording)
    spec = ExperimentSpec(kind, n=40, p=0.2, delta=0.1, trials=9, seed=34, **extra)
    report = run_experiment(spec)
    assert len(built) == 9
    assert sum(oracle.ledger.total_queries for oracle in built) == round(report.mean_queries * spec.trials)


def test_every_connectivity_oracle_is_built_by_its_harness_name(monkeypatch):
    # perfbench's --trace 1 wraps harness.sample_hard_instance and
    # harness.EdgeOracle, and checks that the ledgers of the oracles it saw
    # built hold every query the reports count
    built, sampled = [], []

    def recording(real, seen):
        def wrapper(*args, **kwargs):
            seen.append(real(*args, **kwargs))
            return seen[-1]

        return wrapper

    monkeypatch.setattr(harness, "EdgeOracle", recording(harness.EdgeOracle, built))
    monkeypatch.setattr(harness, "sample_hard_instance", recording(harness.sample_hard_instance, sampled))
    spec = ExperimentSpec("connectivity", n=12, p=0.2, delta=0.1, trials=9, seed=33)
    report = run_experiment(spec)
    assert len(built) == len(sampled) == 9
    assert sum(oracle.ledger.total_queries for oracle in built) == round(report.mean_queries * spec.trials)


def test_csv_layout():
    report = run_experiment(THRESHOLD_SPEC)
    text = reports_to_csv([report])
    lines = text.strip().split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    cells = lines[1].split(",")
    assert len(cells) == len(CSV_COLUMNS)
    row = dict(zip(CSV_COLUMNS, cells))
    assert row["experiment"] == "threshold"
    assert row["n"] == "60"
    assert row["k"] == "4"
    assert row["beta"] == ""
    assert row["q"] == ""
    assert row["seed"] == "91"
    assert float(row["error_rate"]) == report.error_rate


def test_json_mirrors_csv_keys():
    report = run_experiment(COUNTING_SPEC)
    payload = json.loads(reports_to_json([report]))
    assert isinstance(payload, list) and len(payload) == 1
    assert tuple(payload[0].keys()) == CSV_COLUMNS
    assert payload[0]["beta"] is None
    assert payload[0]["errors"] == report.errors


def _report(spec, error_rate, ratio=1.0):
    errors = round(error_rate * spec.trials)
    return harness.ExperimentReport(spec, errors, error_rate, 0.0, 1.0, 0.0, 0.0, 1.0, ratio, 0.0)


@pytest.mark.parametrize("kind", ["threshold", "counting", "counting2", "connectivity", "st-connectivity"])
def test_error_rate_gate_edges(kind):
    # delta + 3 sigma at delta=1/2 over 16 trials is 1/2 + 3/8, exact in binary
    spec = ExperimentSpec(kind, n=40, k=3, p=0.25, delta=0.5, ones=3, trials=16)
    assert harness.error_bound(0.5, 16) == 0.875
    assert harness.gate_failures(_report(spec, 14 / 16)) == []
    assert len(harness.gate_failures(_report(spec, 15 / 16))) == 1
    assert len(harness.gate_failures(_report(spec, math.nextafter(0.875, 1.0)))) == 1


def test_walk_laws_gate_edges():
    # law (0.2/0.8)^1 = 1/4, and 3 sigma over 48 walks is 3 sqrt(3/16/48) = 3/16
    spec = ExperimentSpec("walk-laws", p=0.2, k=1, trials=48)
    for hits in (3, 21):
        assert harness.gate_failures(_report(spec, hits / 48)) == []
    for rate in (3 / 48 - 1e-9, 21 / 48 + 1e-9):
        assert len(harness.gate_failures(_report(spec, rate))) == 1
    for ratio in (0.9801, 1.0199):
        assert harness.gate_failures(_report(spec, 12 / 48, ratio)) == []
    for ratio in (0.9799, 1.0201):
        assert len(harness.gate_failures(_report(spec, 12 / 48, ratio))) == 1


def test_influence_gate():
    spec = ExperimentSpec("influence", n=4, q=0.3, trials=10)
    assert harness.gate_failures(_report(spec, 0.0)) == []
    assert len(harness.gate_failures(_report(spec, 0.1))) == 1


def test_scaling_gate_edges():
    def failures(balanced, split):
        report = ScalingReport(Fraction(1, 3), (), balanced, math.nan, split, math.nan)
        return harness.scaling_gate_failures(report)

    assert failures(0.4, 1.4) == failures(0.6, 1.6) == []
    for balanced in (math.nextafter(0.4, 0.0), math.nextafter(0.6, 1.0), math.nan):
        assert len(failures(balanced, 1.5)) == 1
    for split in (math.nextafter(1.4, 0.0), math.nextafter(1.6, 2.0), math.nan):
        assert len(failures(0.5, split)) == 1


# sha256 of reports_to_csv for the kinds no other golden pins, at seeds
# 0-2; a refactor that keeps every realisation keeps these
ROWS_GOLDEN = {
    (0, "walk-laws"): "2a7741cb0e3ec845b7ad9d7eeacdb9fac059e1a808119cc3d8b2899190728247",
    (1, "walk-laws"): "6dc6aa542036ca53413097446c58c3839d91bfd9de922c9c7f2f8d6a960c6648",
    (2, "walk-laws"): "7a3e6da3d251df53c749cd807a4c8f6c315102a253cc433fbb29224d07108ab6",
    (0, "influence"): "424dc3815e31a0c9bcfeed6c4bcb6bd03ca77770c134c9e4669ebb5c58dafceb",
    (1, "influence"): "38fa1c4a0ee5138e1f13a4376f2381629b7b32db89ed792128526f4689590510",
    (2, "influence"): "f08d68961207b628030d23c4b38eb39a5265f5c20dcb6d661daa23990936fcb6",
    (0, "threshold-ones"): "09100e94f0ccdef06fa6c1d46492e8d38988420c25a34472d9f2c0d7f7d1adde",
    (1, "threshold-ones"): "00965af026fc20404fcc8d349bf0c0a9c02bb696e4e3829a8c7d2e1011e55771",
    (2, "threshold-ones"): "e47da0244a402e80003fcfff5e8d909f1d693c6c58138f0165f6881da2a6dd6f",
}
GOLDEN_SPECS = {
    "walk-laws": ExperimentSpec("walk-laws", p=0.25, k=3, trials=5000),
    "influence": ExperimentSpec("influence", n=6, q=0.3, trials=20),
    "threshold-ones": ExperimentSpec("threshold", n=300, k=8, p=0.25, delta=0.05, ones=12, trials=15),
}


@pytest.mark.parametrize("seed,name", sorted(ROWS_GOLDEN))
def test_rows_golden(seed, name):
    csv = reports_to_csv([run_experiment(dataclasses.replace(GOLDEN_SPECS[name], seed=seed))])
    assert hashlib.sha256(csv.encode()).hexdigest() == ROWS_GOLDEN[(seed, name)]
