"""Noisy-query algorithm simulation toolkit.

Algorithms that read their input through a binary symmetric channel
(each point query answered correctly with probability 1-p), plus the
instance generators and the Monte Carlo harness used to check their
error rates and query counts against closed-form cost laws.
"""

from .boolfn import MAX_ARITY, TruthTable, restriction_identity_residual
from .connectivity import (
    HARD_BALANCE,
    HardInstance,
    InfeasibleBalance,
    RejectionCapExceeded,
    STInstance,
    check_balance_feasible,
    components_of,
    is_connected_graph,
    naive_connectivity,
    naive_st_connectivity,
    sample_hard_instance,
    sample_st_instance,
)
from .counting import CountResult, ThresholdResult, counting_one_sided, counting_two_sided, threshold_count
from .harness import (
    CSV_COLUMNS,
    ExperimentReport,
    ExperimentSpec,
    report_to_dict,
    reports_to_csv,
    reports_to_json,
    run_experiment,
    run_trial,
    theory_bound,
    validate_spec,
    wilson_interval,
)
from .oracles import BitOracle, ComplementBitOracle, EdgeOracle, NoiseModel, QueryLedger
from .streams import as_generator, derive_rng, seed_sequence
from .trees import (
    BalancedEdgeReport,
    LabeledTree,
    ScalingReport,
    ScalingRow,
    balanced_edges,
    cayley_tree_count,
    edges_form_chain,
    enumerate_trees,
    prufer_to_tree,
    sample_ust,
    structure_scaling_report,
)
from .unionfind import UnionFind
from .walks import (
    HitTally,
    PassageTally,
    WalkOutcome,
    WalkPolicy,
    asymmetric_check_bit,
    check_bit,
    expected_hitting_time,
    hitting_probability,
    simulate_first_passage,
    simulate_hitting,
    snapped_ceil,
)

__version__ = "0.1.0"

__all__ = [
    "MAX_ARITY",
    "TruthTable",
    "restriction_identity_residual",
    "HARD_BALANCE",
    "HardInstance",
    "InfeasibleBalance",
    "RejectionCapExceeded",
    "STInstance",
    "check_balance_feasible",
    "components_of",
    "is_connected_graph",
    "naive_connectivity",
    "naive_st_connectivity",
    "sample_hard_instance",
    "sample_st_instance",
    "CountResult",
    "ThresholdResult",
    "counting_one_sided",
    "counting_two_sided",
    "threshold_count",
    "CSV_COLUMNS",
    "ExperimentReport",
    "ExperimentSpec",
    "report_to_dict",
    "reports_to_csv",
    "reports_to_json",
    "run_experiment",
    "run_trial",
    "theory_bound",
    "validate_spec",
    "wilson_interval",
    "BitOracle",
    "ComplementBitOracle",
    "EdgeOracle",
    "NoiseModel",
    "QueryLedger",
    "as_generator",
    "derive_rng",
    "seed_sequence",
    "BalancedEdgeReport",
    "LabeledTree",
    "ScalingReport",
    "ScalingRow",
    "balanced_edges",
    "cayley_tree_count",
    "edges_form_chain",
    "enumerate_trees",
    "prufer_to_tree",
    "sample_ust",
    "structure_scaling_report",
    "UnionFind",
    "HitTally",
    "PassageTally",
    "WalkOutcome",
    "WalkPolicy",
    "asymmetric_check_bit",
    "check_bit",
    "expected_hitting_time",
    "hitting_probability",
    "simulate_first_passage",
    "simulate_hitting",
    "snapped_ceil",
]
