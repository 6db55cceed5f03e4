"""Hard connectivity instances and the naive noisy solver.

The instance generator draws a uniform spanning tree, picks a uniformly
random well-balanced edge (both sides at least n/21 vertices; trees
without one are redrawn), then flips a fair coin to either keep the
tree (connected) or drop that edge (disconnected with two large
components). Against this distribution the answer is information-dense:
the naive reconstruct-everything solver needs on the order of
n^2 log n queries, which is also optimal.

Instances come straight from Wilson's parent array (``trees._wilson``)
and its subtree sizes (``trees._splits``): no :class:`LabeledTree` is
built unless ``base_tree`` is read.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable

import numpy as np

from .streams import as_generator
from .trees import Edge, LabeledTree, _splits, _wilson, as_balance_threshold
from .unionfind import UnionFind
from .walks import WalkPolicy, _check_delta, walks

# not called here but kept as module attributes: instrumentation such as
# perfbench's tracer wraps them by these names
from .trees import balanced_edges, sample_ust  # noqa: F401
from .walks import check_bit  # noqa: F401

HARD_BALANCE = Fraction(1, 21)
DEFAULT_REJECTION_CAP = 10_000


class RejectionCapExceeded(RuntimeError):
    """No sampled tree had a balanced edge within the restart budget."""


class InfeasibleBalance(RejectionCapExceeded, ValueError):
    """No tree on n vertices has a beta-balanced edge.

    A parameter error, raised before any tree is drawn; it is also a
    :class:`RejectionCapExceeded`, since no restart budget could succeed.
    """


def check_balance_feasible(n: int, beta) -> None:
    """Raise :class:`InfeasibleBalance` unless some tree on n vertices has a beta-balanced edge.

    Removing a tree edge splits off s and n - s vertices, and a path has
    every split 1 <= s <= n - 1, so one exists iff ceil(beta n) <= floor(n/2).
    """
    frac = as_balance_threshold(beta)
    if math.ceil(frac * n) > n // 2:
        raise InfeasibleBalance(
            f"no tree on {n} vertices has a {frac}-balanced edge: needs ceil({frac}*n) <= floor(n/2)"
        )


@dataclass(frozen=True)
class HardInstance:
    """Connectivity input: a tree, or a tree minus one balanced edge.

    ``tree``, the tree before the cut, may be passed if known; otherwise
    ``base_tree`` is built from ``graph`` and ``removed_edge`` when first
    read. It is not part of equality.
    """

    n: int
    graph: frozenset[Edge]
    label: int
    removed_edge: Edge | None
    tree: InitVar[LabeledTree | None] = None

    def __post_init__(self, tree) -> None:
        # seed the cached property: it lives in the instance dict, which a
        # frozen dataclass leaves writable
        if tree is not None:
            self.__dict__["base_tree"] = tree

    @property
    def connected(self) -> bool:
        return self.label == 1

    @cached_property
    def base_tree(self) -> LabeledTree:
        cut = () if self.removed_edge is None else (self.removed_edge,)
        return LabeledTree(self.n, (*self.graph, *cut))


@dataclass(frozen=True)
class STInstance:
    """Hard instance plus i.i.d. uniform terminals (s == t allowed)."""

    instance: HardInstance
    s: int
    t: int


def sample_hard_instance(
    n: int,
    rng,
    *,
    beta=HARD_BALANCE,
    rejection_cap: int = DEFAULT_REJECTION_CAP,
) -> HardInstance:
    """Draw one labeled connectivity instance.

    The label is the ground truth: 1 iff the emitted graph is the full
    tree. Raises :class:`InfeasibleBalance` up front when no tree on n
    vertices has a balanced edge, and :class:`RejectionCapExceeded` when
    ``rejection_cap`` consecutive trees have none.
    """
    check_balance_feasible(n, beta)
    frac = as_balance_threshold(beta)
    bar = frac.numerator * n
    den = frac.denominator
    gen = as_generator(rng)
    for _ in range(rejection_cap):
        parent, order = _wilson(n, gen)
        subtree = _splits(n, parent, order)
        edges = [(v, parent[v]) if v < parent[v] else (parent[v], v) for v in order]
        # the edge above v splits off subtree[v] vertices; candidates are
        # listed sorted, as balanced_edges lists them
        candidates = sorted(
            edge
            for v, edge in zip(order, edges)
            if subtree[v] * den >= bar and (n - subtree[v]) * den >= bar
        )
        if candidates:
            break
    else:
        raise RejectionCapExceeded(
            f"no {frac}-balanced edge found in {rejection_cap} sampled trees on {n} vertices"
        )
    chosen = candidates[int(gen.integers(0, len(candidates)))]
    label = int(gen.integers(0, 2))
    removed = None if label == 1 else chosen
    return HardInstance(n, frozenset(edges) - {removed}, label, removed)


def sample_st_instance(
    n: int,
    rng,
    *,
    beta=HARD_BALANCE,
    rejection_cap: int = DEFAULT_REJECTION_CAP,
) -> STInstance:
    """Hard instance together with two independent uniform vertices."""
    gen = as_generator(rng)
    instance = sample_hard_instance(n, gen, beta=beta, rejection_cap=rejection_cap)
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


def _reconstruct(oracle, delta: float) -> UnionFind:
    """Estimate every potential edge, then union the declared ones.

    Per-pair error budget is delta / C(n,2), so by the union bound the
    whole reconstruction is exact with probability >= 1 - delta, and any
    connectivity predicate computed from it inherits that guarantee.
    Every pair is walked in one :func:`~noisyquery.walks.walks` call.
    """
    _check_delta(delta, "delta")
    n = oracle.n
    uf = UnionFind(n)
    if n == 1:
        return uf
    pairs = n * (n - 1) // 2
    per_edge = delta / pairs
    policy = WalkPolicy.for_error_bounds(oracle.noise, per_edge, per_edge)
    decided, _ = walks(oracle, np.arange(pairs), policy.down_threshold_a, policy.up_threshold_b)
    us, vs = oracle._pairs(np.flatnonzero(decided))
    for u, v in zip(us.tolist(), vs.tolist()):
        uf.union(u, v)
    return uf


def naive_connectivity(oracle, delta: float) -> bool:
    """Decide connectivity by reconstructing the whole graph.

    Error probability at most ``delta``; cost about
    C(n,2) * log(C(n,2)/delta) / D_KL queries.
    """
    return _reconstruct(oracle, delta).component_count == 1


def naive_st_connectivity(oracle, s: int, t: int, delta: float) -> bool:
    """Decide whether s and t are connected, by full reconstruction."""
    n = oracle.n
    for name, v in (("s", s), ("t", t)):
        if not 0 <= v < n:
            raise ValueError(f"terminal {name}={v} out of range [0, {n})")
    return _reconstruct(oracle, delta).connected(s, t)


def hard_instance_to_text(instance: HardInstance) -> str:
    """Header "n=.. label=.. removed=u,v|none" then 1-indexed edge lines."""
    if instance.removed_edge is None:
        removed = "none"
    else:
        u, v = instance.removed_edge
        removed = f"{u + 1},{v + 1}"
    lines = [f"n={instance.n} label={instance.label} removed={removed}"]
    for u, v in sorted(instance.graph):
        lines.append(f"{u + 1} {v + 1}")
    return "\n".join(lines) + "\n"


def hard_instance_from_text(text: str) -> HardInstance:
    lines = [line.strip() for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError("empty hard-instance serialization")
    header = dict(part.split("=", 1) for part in lines[0].split())
    try:
        n = int(header["n"])
        label = int(header["label"])
        removed_text = header["removed"]
    except KeyError as missing:
        raise ValueError(f"hard-instance header missing field {missing}") from None
    if label not in (0, 1):
        raise ValueError(f"label must be 0 or 1, got {label}")
    edges = []
    for line in lines[1:]:
        u, v = (int(part) - 1 for part in line.split())
        edges.append((u, v) if u < v else (v, u))
    if removed_text == "none":
        if label != 1:
            raise ValueError("disconnected instance must name its removed edge")
        removed = None
        base = LabeledTree(n, tuple(edges))
    else:
        u, v = (int(part) - 1 for part in removed_text.split(","))
        removed = (u, v) if u < v else (v, u)
        if label != 0:
            raise ValueError("connected instance cannot have a removed edge")
        base = LabeledTree(n, tuple(edges) + (removed,))
    base.validate()
    return HardInstance(n, frozenset(edges), label, removed, base)
