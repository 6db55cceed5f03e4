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

The reconstruction takes a sequence of oracles and walks every pair of
every oracle in one :func:`~noisyquery.walks.walk_oracles` call, so the
harness reconstructs a block of trials at once and their walks share
the kernel's rounds; the naive solvers pass one oracle. Answers are
counter-based, so each oracle's verdicts, counters and ledger are what a
reconstruction of it alone gives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .streams import as_generator
from .trees import Edge, LabeledTree, _balance, _wilson, as_balance_threshold
from .unionfind import UnionFind
from .walks import _check_delta, barrier, walk_oracles

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


def check_balance_feasible(n: int, beta) -> Fraction:
    """Raise :class:`InfeasibleBalance` unless some tree on n vertices has a beta-balanced edge.

    Removing a tree edge splits off s and n - s vertices, and a path has
    every split 1 <= s <= n - 1, so one exists iff ceil(beta n) <= floor(n/2).
    Returns beta as the exact Fraction it checked.
    """
    frac = as_balance_threshold(beta)
    if math.ceil(frac * n) > n // 2:
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
    frac = check_balance_feasible(n, beta)
    gen = as_generator(rng)
    for _ in range(rejection_cap):
        parent, order = _wilson(n, gen)
        _, candidates, _ = _balance(n, parent, order, frac)
        if candidates:
            break
    else:
        raise RejectionCapExceeded(
            f"no {frac}-balanced edge found in {rejection_cap} sampled trees on {n} vertices"
        )
    chosen = candidates[int(gen.integers(0, len(candidates)))]
    label = int(gen.integers(0, 2))
    removed = None if label == 1 else chosen
    edges = frozenset((v, parent[v]) if v < parent[v] else (parent[v], v) for v in order)
    return HardInstance(n, edges - {removed}, label, removed)


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


def pair_barriers(noise, n: int, delta: float) -> tuple[int, int]:
    """Barriers (a, b) of the naive reconstruction on n >= 2 vertices.

    Both are barrier(C(n,2)): every pair's walk errs with probability at
    most delta/C(n,2) on either bit, so by the union bound over the
    C(n,2) pairs the whole graph is exact with probability >= 1 - delta.
    """
    both = barrier(noise, n * (n - 1) // 2, delta)
    return both, both


def _reconstruct(oracles: Sequence, delta: float) -> list[UnionFind]:
    """Estimate every potential edge of each oracle's graph with the
    barriers of :func:`pair_barriers`, then union the declared ones; any
    connectivity predicate computed from a result inherits their
    guarantee. The oracles must share n and p, and every pair of every
    oracle is walked in one :func:`~noisyquery.walks.walk_oracles` call.
    """
    _check_delta(delta, "delta")
    forests = [UnionFind(oracle.n) for oracle in oracles]
    n = oracles[0].n
    if any(oracle.n != n for oracle in oracles):
        raise ValueError("oracles reconstructed together must share n")
    if n == 1:
        return forests
    decided, _ = walk_oracles(oracles, *pair_barriers(oracles[0].noise, n, delta))
    for oracle, forest, row in zip(oracles, forests, decided):
        us, vs = oracle._pairs(np.flatnonzero(row))
        for u, v in zip(us.tolist(), vs.tolist()):
            forest.union(u, v)
    return forests


def naive_connectivity(oracle, delta: float) -> bool:
    """Decide connectivity by reconstructing the whole graph.

    Error probability at most ``delta``; cost about
    C(n,2) * log(C(n,2)/delta) / D_KL queries.
    """
    return _reconstruct([oracle], delta)[0].component_count == 1


def naive_st_connectivity(oracle, s: int, t: int, delta: float) -> bool:
    """Decide whether s and t are connected, by full reconstruction."""
    n = oracle.n
    for name, v in (("s", s), ("t", t)):
        if not 0 <= v < n:
            raise ValueError(f"terminal {name}={v} out of range [0, {n})")
    return _reconstruct([oracle], delta)[0].connected(s, t)


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
    return HardInstance(n, frozenset(edges), label, removed)
