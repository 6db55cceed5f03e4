"""Hard connectivity instances and the naive noisy solver.

The instance generator draws a uniform spanning tree, picks a uniformly
random well-balanced edge (both sides at least n/21 vertices; trees
without one are redrawn), then flips a fair coin to either keep the
tree (connected) or drop that edge (disconnected with two large
components). Against this distribution the answer is information-dense:
the naive reconstruct-everything solver needs on the order of
n^2 log n queries, which is also optimal.

Instances come straight from Wilson's parent array (``trees._wilson``)
and its balanced edges (``trees._balance``): no :class:`LabeledTree` is
built unless ``base_tree`` is read, and each read rebuilds it.

The reconstruction stacks a sequence of oracles into one block
(:func:`~noisyquery.walks.stack`) and walks every pair of every oracle
in one :func:`~noisyquery.walks.walks` call, so the harness reconstructs
a block of trials at once; the naive solvers pass one oracle. Answers
are counter-based, so each oracle's verdicts, counters and ledger are
what a reconstruction of it alone gives. The declared graphs' components
come from one label array over every vertex of the block
(:func:`_component_labels`), not from a union-find forest per oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .oracles import EdgeOracle
from .streams import _is_integer, as_generator
from .trees import Edge, LabeledTree, _balance, _vertex_count, _wilson, as_balance_threshold
from .unionfind import UnionFind
from .walks import _check_delta, barrier, stack, unstack, walks

# not called here but kept as module attributes: instrumentation such as
# perfbench's tracer wraps them by these names
from .trees import balanced_edges, sample_ust  # noqa: F401
from .walks import check_bit  # noqa: F401

HARD_BALANCE = Fraction(1, 21)
# trees without a balanced edge in a row before a sampler gives up; read per call
DEFAULT_REJECTION_CAP = 10_000


class RejectionCapExceeded(RuntimeError):
    """No sampled tree had a balanced edge within the restart budget."""


class InfeasibleBalance(RejectionCapExceeded, ValueError):
    """No tree on n vertices has a beta-balanced edge.

    A parameter error, raised before any tree is drawn; it is also a
    :class:`RejectionCapExceeded`, since no restart budget could succeed.
    """


def check_balance_feasible(n: int, beta) -> Fraction:
    """Raise :class:`InfeasibleBalance` unless some tree on n vertices has a beta-balanced edge.

    Removing a tree edge splits off s and n - s vertices, and a path has
    every split 1 <= s <= n - 1, so one exists iff ceil(beta n) <= floor(n/2).
    Returns beta as the exact Fraction it checked. A vertex count that is
    not an integer of at least 1, or is bool, raises ValueError first.
    """
    n = _vertex_count(n)
    frac = as_balance_threshold(beta)
    # ceil(beta n) > floor(n/2), on the integers
    if -(-frac.numerator * n // frac.denominator) > n // 2:
        raise InfeasibleBalance(
            f"no tree on {n} vertices has a {frac}-balanced edge: needs ceil({frac}*n) <= floor(n/2)"
        )
    return frac


@dataclass(frozen=True)
class HardInstance:
    """Connectivity input: a tree, or a tree minus one balanced edge.

    ``base_tree``, the tree before the cut, is rebuilt from ``graph`` and
    ``removed_edge`` on each read.
    """

    n: int
    graph: frozenset[Edge]
    label: int
    removed_edge: Edge | None

    @property
    def connected(self) -> bool:
        return self.label == 1

    @property
    def base_tree(self) -> LabeledTree:
        cut = () if self.removed_edge is None else (self.removed_edge,)
        return LabeledTree(self.n, (*self.graph, *cut))


@dataclass(frozen=True)
class STInstance:
    """Hard instance plus i.i.d. uniform terminals (s == t allowed)."""

    instance: HardInstance
    s: int
    t: int


def sample_hard_instance(n: int, rng, *, beta=HARD_BALANCE) -> HardInstance:
    """Draw one labeled connectivity instance.

    The label is the ground truth: 1 iff the emitted graph is the full
    tree. Raises :class:`InfeasibleBalance` up front when no tree on n
    vertices has a balanced edge, and :class:`RejectionCapExceeded` when
    :data:`DEFAULT_REJECTION_CAP` trees in a row have none. A vertex count
    that is not an integer, or is bool, raises ValueError before any draw.
    """
    n = _vertex_count(n)
    frac = check_balance_feasible(n, beta)
    gen = as_generator(rng)
    for _ in range(DEFAULT_REJECTION_CAP):
        parent, order = _wilson(n, gen)
        _, candidates, _ = _balance(n, parent, order, frac)
        if candidates:
            break
    else:
        raise RejectionCapExceeded(
            f"no {frac}-balanced edge found in {DEFAULT_REJECTION_CAP} sampled trees on {n} vertices"
        )
    chosen = candidates[int(gen.integers(0, len(candidates)))]
    label = int(gen.integers(0, 2))
    removed = None if label == 1 else chosen
    edges = frozenset((v, parent[v]) if v < parent[v] else (parent[v], v) for v in order)
    return HardInstance(n, edges - {removed}, label, removed)


def sample_st_instance(n: int, rng, *, beta=HARD_BALANCE) -> STInstance:
    """Hard instance together with two independent uniform vertices."""
    gen = as_generator(rng)
    instance = sample_hard_instance(n, gen, beta=beta)
    s = int(gen.integers(0, n))
    t = int(gen.integers(0, n))
    return STInstance(instance, s, t)


def components_of(n: int, edges: Iterable[Edge]) -> UnionFind:
    uf = UnionFind(n)
    for u, v in edges:
        uf.union(u, v)
    return uf


def is_connected_graph(n: int, edges: Iterable[Edge]) -> bool:
    return components_of(n, edges).component_count == 1


def pair_barriers(noise, n: int, delta: float) -> tuple[int, int]:
    """Barriers (a, b) of the naive reconstruction on n >= 2 vertices:
    (barrier(n - 1), barrier(C(n,2))).

    Each input is connected or not, and only one error type can flip its
    answer, so delta is not split. A connected graph (or, for
    s-t connectivity, a graph with an s-t path) is misread only if an edge
    of one fixed spanning tree (or s-t path) is missed: at most n - 1
    edges, each walk falling to -a with probability <= delta/(n-1). A
    disconnected graph (or s and t apart) is misread only if a non-edge
    is declared: at most C(n,2) pairs, each walk climbing to +b with
    probability <= delta/C(n,2). Either union bound gives error <= delta
    for ``naive_connectivity`` and ``naive_st_connectivity`` alike.
    """
    return barrier(noise, n - 1, delta), barrier(noise, n * (n - 1) // 2, delta)


def _component_labels(vertices: int, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """The least vertex of each vertex's component, in a graph on
    ``vertices`` vertices with edges (us[i], vs[i]).

    Hook and compress: every label is a vertex of its own component, no
    larger than the vertex it labels. Each round, every edge whose ends
    have different labels hooks the larger label under the smaller, and
    two steps of pointer jumping (each vertex takes its label's label)
    shorten the chains. Labels only fall, so the rounds end, and they end
    when every edge joins equal labels: then a component holds one label,
    which is its least vertex, since that vertex has no smaller one.
    """
    labels = np.arange(vertices)
    while True:
        lu, lv = labels[us], labels[vs]
        if np.array_equal(lu, lv):
            return labels
        np.minimum.at(labels, np.maximum(lu, lv), np.minimum(lu, lv))
        labels = labels[labels]
        labels = labels[labels]


def _reconstruct(oracles: Sequence, delta: float) -> np.ndarray:
    """Estimate every potential edge of each oracle's graph with the
    barriers of :func:`pair_barriers`, and label the declared graphs'
    components: row t, column v is the least vertex of v's component in
    the graph declared for ``oracles[t]``. The graph's connectivity, and
    whether any one pair s, t is connected, inherit their guarantee; the
    edge set as a whole does not. The oracles must share n and p, as
    :func:`~noisyquery.walks.stack` checks; every pair of every oracle is
    walked in one :func:`~noisyquery.walks.walks` call on their stacked
    block, and every vertex of every graph is labelled in one
    :func:`_component_labels` call. Anything but an
    :class:`~noisyquery.oracles.EdgeOracle` raises TypeError first.
    """
    delta = _check_delta(delta, "delta")
    for oracle in oracles:
        if not isinstance(oracle, EdgeOracle):
            raise TypeError(f"connectivity needs EdgeOracles, got {type(oracle).__name__}")
    block = stack(oracles)
    n = oracles[0].n
    if n == 1:
        return np.zeros((len(oracles), 1), dtype=np.int64)
    decided, _ = walks(block, np.arange(block._bits.size), *pair_barriers(block.noise, n, delta))
    unstack(block, oracles)
    # declared pair slot t * C(n,2) + s joins vertices t * n + u and t * n + v of the block
    row, slot = np.divmod(np.flatnonzero(decided), n * (n - 1) // 2)
    us, vs = oracles[0]._pairs(slot)
    offsets = np.arange(len(oracles)) * n
    labels = _component_labels(len(oracles) * n, offsets[row] + us, offsets[row] + vs)
    return labels.reshape(len(oracles), n) - offsets[:, None]


def naive_connectivity(oracle, delta: float) -> bool:
    """Decide connectivity by reconstructing the whole graph.

    Error probability at most ``delta``. With (a, b) from
    :func:`pair_barriers`, the m edges walk up to b and the C(n,2) - m
    non-edges down to a, so the cost is about
    (m*b + (C(n,2) - m)*a) / (1 - 2p) queries; the hard instances have
    m = n - 1 or n - 2.
    """
    # connected exactly when every vertex's least connected vertex is 0
    return not _reconstruct([oracle], delta)[0].any()


def naive_st_connectivity(oracle, s: int, t: int, delta: float) -> bool:
    """Decide whether s and t are connected, by full reconstruction.

    A terminal that is not an integer (numpy's too, not bool) or lies
    outside [0, n) raises ValueError before any query.
    """
    n = oracle.n
    for name, v in (("s", s), ("t", t)):
        if not _is_integer(v):
            raise ValueError(f"terminal {name} must be an integer, got {v!r}")
        if not 0 <= v < n:
            raise ValueError(f"terminal {name}={v} out of range [0, {n})")
    labels = _reconstruct([oracle], delta)[0]
    return bool(labels[s] == labels[t])
