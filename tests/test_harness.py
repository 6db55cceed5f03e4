import dataclasses
import json
import math
from fractions import Fraction

import pytest
from scipy.stats import beta as beta_dist

from noisyquery import (
    CSV_COLUMNS,
    ExperimentSpec,
    RejectionCapExceeded,
    harness,
    report_to_dict,
    reports_to_csv,
    reports_to_json,
    run_experiment,
    run_trial,
    theory_bound,
    validate_spec,
    wilson_interval,
)


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
    with pytest.raises(ValueError):
        wilson_interval(1, 10, confidence=1.0)


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
    assert theory_bound("check-bit", delta=0.1, p=0.25) == pytest.approx(math.log(10.0) / dkl)
    with pytest.raises(ValueError):
        theory_bound("sorting", n=10, k=1, delta=0.1, p=0.25)
    with pytest.raises(ValueError):
        theory_bound("threshold", n=10, k=11, delta=0.1, p=0.25)


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


def test_report_internal_consistency():
    report = run_experiment(COUNTING_SPEC)
    assert report.error_rate == report.errors / COUNTING_SPEC.trials
    assert report.ci_low <= report.error_rate <= report.ci_high
    records = [run_trial(COUNTING_SPEC, t) for t in range(COUNTING_SPEC.trials)]
    assert report.mean_queries == sum(q for _, q in records) / COUNTING_SPEC.trials
    assert report.errors == sum(1 for ok, _ in records if not ok)
    assert report.theory_queries > 0
    assert report.ratio == report.mean_queries / report.theory_queries


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
    with pytest.raises(ValueError):
        validate_spec(ExperimentSpec(kind="ust-stats", trials=5, seed=0))
    with pytest.raises(ValueError):
        run_experiment(ExperimentSpec(kind="threshold", n=10, k=3, p=0.25, delta=1.5, trials=5, seed=0))


def test_trial_failures_name_the_trial(monkeypatch):
    # a sampler that exhausts its restart budget inside a trial; specs
    # that no tree can satisfy are already refused by validate_spec
    def exhausted(n, rng, **kwargs):
        raise RejectionCapExceeded(f"no balanced edge found on {n} vertices")

    monkeypatch.setattr(harness, "sample_hard_instance", exhausted)
    spec = ExperimentSpec(kind="connectivity", n=11, p=0.2, delta=0.1, trials=3, seed=98)
    with pytest.raises(RuntimeError, match="trial 0"):
        run_experiment(spec)


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
