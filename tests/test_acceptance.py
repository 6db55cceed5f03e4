"""Full-scale statistical acceptance suite.

Each test covers one numbered criterion and prints a single
"[acceptance] criterion N ...: PASS/FAIL" line (run pytest with -s to
see them as they happen). Every gate uses a frozen master seed, so a
green suite is reproducible bit-for-bit.
"""

import math
import time
from fractions import Fraction

import pytest
from scipy.stats import chi2

from noisyquery import (
    BitOracle,
    ExperimentSpec,
    NoiseModel,
    TruthTable,
    WalkPolicy,
    asymmetric_check_bit,
    balanced_edges,
    cayley_tree_count,
    components_of,
    derive_rng,
    edges_form_chain,
    enumerate_trees,
    expected_hitting_time,
    hitting_probability,
    is_connected_graph,
    reports_to_csv,
    restriction_identity_residual,
    run_experiment,
    run_trial,
    sample_hard_instance,
    sample_ust,
    seed_sequence,
    simulate_first_passage,
    simulate_hitting,
    structure_scaling_report,
)
from noisyquery.harness import error_bound, gate_failures, scaling_gate_failures

pytestmark = pytest.mark.acceptance

SEED = 20240817


def _finish(name, failures, notes, started, budget_seconds=None):
    elapsed = time.perf_counter() - started
    if budget_seconds is not None and elapsed > budget_seconds:
        failures.append(f"runtime {elapsed:.1f}s exceeded budget {budget_seconds}s")
    status = "FAIL" if failures else "PASS"
    detail = "; ".join(failures if failures else notes)
    print(f"[acceptance] {name}: {status} ({detail}; {elapsed:.1f}s)", flush=True)
    assert not failures, f"{name}: " + "; ".join(failures)


def test_criterion_01_gamblers_ruin_laws():
    started = time.perf_counter()
    walks = 10**6
    precision = 1e-6
    failures = []
    worst_hit = 0.0
    worst_mean = 0.0
    for p in (0.1, 0.25, 0.4):
        for x in range(1, 7):
            tally = simulate_hitting(p, x, walks, derive_rng(SEED, "c1-hit", int(p * 100), x), precision=precision)
            law = hitting_probability(p, x)
            band = 3.0 * math.sqrt(law * (1.0 - law) / walks) + precision
            gap = abs(tally.fraction - law)
            worst_hit = max(worst_hit, gap / band)
            if gap > band:
                failures.append(f"hit law p={p} x={x}: |{tally.fraction:.3g} - {law:.3g}| > {band:.3g}")

            passage = simulate_first_passage(p, x, walks, derive_rng(SEED, "c1-fp", int(p * 100), x))
            target = expected_hitting_time(p, x)
            rel = abs(passage.mean - target) / target
            worst_mean = max(worst_mean, rel)
            if rel > 0.02:
                failures.append(f"passage law p={p} x={x}: mean {passage.mean:.4f} off {target:.4f} by {rel:.2%}")
    notes = [f"18+18 laws, worst hit gap {worst_hit:.2f}x band", f"worst mean error {worst_mean:.3%}"]
    _finish("criterion 1 (gambler's-ruin laws)", failures, notes, started, budget_seconds=60)


def test_criterion_02_asymmetric_check_bit():
    started = time.perf_counter()
    p = 0.2
    trials = 10**5
    noise = NoiseModel(p)
    failures = []
    notes = []
    for combo_index, (delta0, delta1) in enumerate(((0.05, 0.05), (0.01, 0.2), (0.2, 0.01))):
        policy = WalkPolicy.for_error_bounds(noise, delta0, delta1)
        for bit in (0, 1):
            errors = 0
            steps = 0
            for t in range(trials):
                oracle = BitOracle([bit], noise, seed_sequence(SEED, "c2", combo_index, bit, t))
                outcome = asymmetric_check_bit(oracle, 0, delta0, delta1, policy=policy)
                errors += outcome.decided_bit != bit
                steps += outcome.steps_used
            gate = error_bound(delta0 if bit == 0 else delta1, trials)
            rate = errors / trials
            if rate > gate:
                failures.append(f"(d0={delta0}, d1={delta1}, bit={bit}): error {rate:.4g} > {gate:.4g}")
            barrier = policy.up_threshold_b if bit == 1 else policy.down_threshold_a
            bound = 1.05 * barrier / (1.0 - 2.0 * p)
            mean = steps / trials
            if mean > bound:
                failures.append(f"(d0={delta0}, d1={delta1}, bit={bit}): mean {mean:.3f} > {bound:.3f}")
    notes.append("3 delta pairs x 2 bit values, error and cost gates")
    _finish("criterion 2 (asymmetric check bit)", failures, notes, started, budget_seconds=120)


def test_criterion_03_threshold_count():
    started = time.perf_counter()
    spec = ExperimentSpec(kind="threshold", n=10**4, k=100, p=0.25, delta=0.01, trials=2000, seed=SEED)
    report = run_experiment(spec)
    failures = gate_failures(report)
    if not 1.6e5 < report.theory_queries < 1.7e5:
        failures.append(f"theory bound {report.theory_queries:.4g} outside the expected 1.68e5 ballpark")
    if report.mean_queries > 1.5 * report.theory_queries:
        failures.append(f"mean queries {report.mean_queries:.4g} > 1.5 x theory {report.theory_queries:.4g}")
    notes = [
        f"error_rate={report.error_rate:.5f} (gate {error_bound(spec.delta, spec.trials):.5f})",
        f"mean_queries={report.mean_queries:.4g} vs theory {report.theory_queries:.4g} (ratio {report.ratio:.3f})",
    ]
    _finish("criterion 3 (threshold-count, algorithm 1)", failures, notes, started, budget_seconds=600)


def test_criterion_04_counting():
    started = time.perf_counter()
    n, p, delta, trials = 2000, 0.2, 0.05, 1000
    failures = []
    notes = []
    for ones in (0, 10, 1000):
        spec = ExperimentSpec(kind="counting", n=n, p=p, delta=delta, trials=trials, seed=SEED, ones=ones)
        report = run_experiment(spec)
        failures += [f"ones={ones}: {line}" for line in gate_failures(report)]
        notes.append(f"ones={ones}: err={report.error_rate:.4f}")
        if ones == 10 and report.mean_queries > 2.0 * report.theory_queries:
            failures.append(
                f"ones=10: mean queries {report.mean_queries:.4g} > 2 x theory {report.theory_queries:.4g}"
            )
        if ones == 10:
            notes.append(f"ones=10 ratio={report.ratio:.3f}")
    two_sided = ExperimentSpec(kind="counting2", n=n, p=p, delta=delta, trials=trials, seed=SEED, ones=1990)
    report = run_experiment(two_sided)
    failures += [f"two-sided ones=1990: {line}" for line in gate_failures(report)]
    notes.append(f"two-sided ones=1990: err={report.error_rate:.4f}")
    _finish("criterion 4 (counting, algorithm 2)", failures, notes, started, budget_seconds=600)


def test_criterion_05_naive_connectivity():
    started = time.perf_counter()
    spec = ExperimentSpec(kind="connectivity", n=50, p=0.2, delta=0.05, trials=1000, seed=SEED)
    report = run_experiment(spec)
    failures = gate_failures(report)
    if not 0.3 <= report.ratio <= 1.5:
        failures.append(f"query ratio {report.ratio:.3f} outside [0.3, 1.5]")
    notes = [
        f"error_rate={report.error_rate:.4f} (gate {error_bound(spec.delta, spec.trials):.4f})",
        f"ratio={report.ratio:.3f}",
    ]
    _finish("criterion 5 (naive connectivity)", failures, notes, started, budget_seconds=600)


def test_criterion_06_ust_uniformity_and_cayley():
    started = time.perf_counter()
    failures = []
    samples = 10**5
    support = {t.edges for t in enumerate_trees(4)}
    rng = derive_rng(SEED, "c6-uniform")
    observed = {}
    for _ in range(samples):
        key = sample_ust(4, rng).edges
        observed[key] = observed.get(key, 0) + 1
    if set(observed) - support:
        failures.append("sampler produced a tree outside the enumerated support")
    expected = samples / len(support)
    stat = sum((observed.get(key, 0) - expected) ** 2 / expected for key in support)
    pvalue = float(chi2.sf(stat, len(support) - 1))
    if pvalue <= 1e-3:
        failures.append(f"chi-square p-value {pvalue:.2e} <= 1e-3")
    for n in range(1, 8):
        distinct = {t.edges for t in enumerate_trees(n)}
        if len(distinct) != cayley_tree_count(n):
            failures.append(f"n={n}: enumeration found {len(distinct)} trees, formula says {cayley_tree_count(n)}")
    notes = [f"chi-square p={pvalue:.3g} over 16 trees", "Cayley counts verified for n=1..7"]
    _finish("criterion 6 (UST uniformity and Cayley counts)", failures, notes, started, budget_seconds=300)


def test_criterion_07_structural_scaling_and_chain():
    started = time.perf_counter()
    grid = [100, 200, 400, 800, 1600, 3200, 6400]
    report = structure_scaling_report(grid, 200, Fraction(1, 3), seed=SEED)
    failures = scaling_gate_failures(report)
    checked = 0
    for n in (10, 50, 200):
        for j in range(10**4):
            tree = sample_ust(n, derive_rng(SEED, "c7-chain", n, j))
            if not edges_form_chain(balanced_edges(tree, Fraction(1, 3)).balanced_edges):
                failures.append(f"chain property violated at n={n}, sample {j}")
                break
            checked += 1
    notes = [
        f"slopes: balanced {report.balanced_median_slope:.3f}, split-size {report.s_sum_median_slope:.3f}",
        f"chain property on {checked} trees",
    ]
    _finish("criterion 7 (structural scaling laws)", failures, notes, started, budget_seconds=900)


def test_criterion_08_hard_distribution():
    started = time.perf_counter()
    failures = []
    n, samples = 200, 10**4
    rng = derive_rng(SEED, "c8")
    connected = 0
    for _ in range(samples):
        instance = sample_hard_instance(n, rng)
        truly_connected = is_connected_graph(n, instance.graph)
        if instance.connected != truly_connected:
            failures.append("label disagrees with actual connectivity")
            break
        connected += instance.label
        if instance.label == 0:
            sizes = components_of(n, instance.graph).component_sizes()
            if len(sizes) != 2 or any(size * 21 < n for size in sizes):
                failures.append(f"disconnected split {sizes} violates the exact balance bar")
                break
    fraction = connected / samples
    if abs(fraction - 0.5) > 0.015:
        failures.append(f"connected fraction {fraction:.4f} outside 0.5 +/- 0.015")
    notes = [f"connected fraction {fraction:.4f}", f"{samples} instances checked"]
    _finish("criterion 8 (hard distribution)", failures, notes, started, budget_seconds=300)


def test_criterion_09_influence_suite():
    started = time.perf_counter()
    failures = []
    for n in (2, 5, 9):
        if TruthTable.parity(n).total_influence() != float(n):
            failures.append(f"parity total influence at n={n} not exactly {n}")
    dictator = TruthTable.dictator(6, 2)
    if dictator.total_influence() != 1.0 or dictator.influence(2) != 1.0:
        failures.append("dictator influence not exactly 1")
    if TruthTable.or_function(3).total_influence() != 0.75:
        failures.append("OR3 total influence not exactly 3/4")
    for seed in range(100):
        table = TruthTable.random(8, derive_rng(SEED, "c9-spec", seed))
        for label in range(8):
            if abs(table.q_biased_influence(label, 0.5) - table.influence(label)) > 1e-12:
                failures.append(f"q=1/2 specialization off at seed {seed}")
                break
    worst = 0.0
    for trial in range(1000):
        rng = derive_rng(SEED, "c9-mart", trial)
        arity = int(rng.integers(2, 11))
        table = TruthTable.random(arity, rng)
        label = int(rng.integers(0, arity))
        q = float(rng.uniform(0.0, 1.0))
        residual = restriction_identity_residual(table, label, q)
        worst = max(worst, residual)
        if residual > 1e-10:
            failures.append(f"martingale residual {residual:.2e} > 1e-10 at trial {trial}")
            break
    notes = ["parity/dictator/OR exact", f"worst martingale residual {worst:.2e} over 1000 functions"]
    _finish("criterion 9 (influence suite)", failures, notes, started, budget_seconds=300)


def test_criterion_10_determinism():
    started = time.perf_counter()
    failures = []
    specs = [
        ExperimentSpec(kind="threshold", n=2000, k=20, p=0.25, delta=0.05, trials=100, seed=SEED),
        ExperimentSpec(kind="counting", n=500, p=0.2, delta=0.05, trials=100, seed=SEED, ones=5),
        ExperimentSpec(kind="counting2", n=500, p=0.2, delta=0.05, trials=100, seed=SEED, ones=490),
        ExperimentSpec(kind="connectivity", n=30, p=0.2, delta=0.1, trials=100, seed=SEED),
        ExperimentSpec(kind="st-connectivity", n=30, p=0.2, delta=0.1, trials=100, seed=SEED),
        ExperimentSpec(kind="walk-laws", p=0.25, k=3, trials=10**5, seed=SEED),
        ExperimentSpec(kind="influence", n=8, q=0.25, trials=200, seed=SEED),
    ]
    for spec in specs:
        first = reports_to_csv([run_experiment(spec)])
        second = reports_to_csv([run_experiment(spec)])
        if first != second:
            failures.append(f"{spec.kind}: rerun with the same master seed changed the CSV row")
    # trial records must not depend on execution order
    probe = specs[1]
    in_order = [run_trial(probe, t) for t in range(probe.trials)]
    reversed_order = [run_trial(probe, t) for t in reversed(range(probe.trials))]
    if in_order != list(reversed(reversed_order)):
        failures.append("per-trial records changed under permuted execution order")
    scaling_a = structure_scaling_report([50, 100, 200], 50, Fraction(1, 3), seed=SEED)
    scaling_b = structure_scaling_report([50, 100, 200], 50, Fraction(1, 3), seed=SEED)
    if scaling_a != scaling_b:
        failures.append("scaling report changed between identically seeded runs")
    notes = [f"{len(specs)} experiment kinds byte-identical on rerun", "order-permutation invariant"]
    _finish("criterion 10 (determinism)", failures, notes, started, budget_seconds=600)
