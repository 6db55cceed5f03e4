"""Labeled trees: uniform sampling, enumeration, and balance analytics.

Two kernels do the tree work. ``_wilson`` draws a uniformly random
spanning tree of the complete graph with Wilson's loop-erased random
walk, as a parent array rooted at vertex 0 plus an order that puts every
vertex after its parent. ``_splits`` turns that pair into subtree sizes
in one children-first pass, which are the sides of the split each edge's
removal leaves. ``sample_ust`` wraps the parent array in a
:class:`LabeledTree`; ``balanced_edges`` recovers parents of any tree by
BFS; ``structure_scaling_report`` and the hard connectivity instances
(``connectivity.sample_hard_instance``) go from ``_wilson`` to
``_splits`` without building a tree object at all.

The independent route to the same distribution is the Prufer
correspondence (a uniform sequence in [n]^(n-2) maps bijectively to a
labeled tree), which doubles as an exhaustive enumerator for small n.

Thresholds are compared in exact integer arithmetic, so a side of size
s is "at least beta*n" iff s * denom(beta) >= numer(beta) * n.
"""

from __future__ import annotations

import heapq
import math
import statistics
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Iterable, Iterator, Sequence

from .streams import as_generator, derive_rng
from .unionfind import UnionFind

ENUMERATION_LIMIT = 7

Edge = tuple[int, int]


def _normalize_edge(u: int, v: int, n: int) -> Edge:
    u = int(u)
    v = int(v)
    if u == v:
        raise ValueError(f"self-loop ({u}, {v}) cannot appear in a tree")
    if not (0 <= u < n and 0 <= v < n):
        raise ValueError(f"edge ({u}, {v}) out of vertex range [0, {n})")
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class LabeledTree:
    """Spanning tree on vertices 0..n-1, edges stored sorted and normalized."""

    n: int
    edges: tuple[Edge, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"vertex count must be >= 1, got {self.n}")
        normalized = tuple(sorted(_normalize_edge(u, v, self.n) for u, v in self.edges))
        if len(set(normalized)) != len(normalized):
            raise ValueError("duplicate edge in tree")
        object.__setattr__(self, "edges", normalized)

    def adjacency(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return adj

    def validate(self) -> None:
        """Raise ValueError unless this is a connected acyclic tree."""
        self._rooted()

    def _rooted(self) -> tuple[list[int], list[int]]:
        """BFS from vertex 0: ``(parent, order)`` in the form ``_wilson`` returns.

        n-1 edges that reach every vertex form a tree, so this is also
        the validity check; it raises ValueError otherwise.
        """
        n = self.n
        if len(self.edges) != n - 1:
            raise ValueError(f"tree on {n} vertices needs {n - 1} edges, got {len(self.edges)}")
        adj = self.adjacency()
        parent = [0] * n
        order = [0]
        seen = bytearray(n)
        seen[0] = 1
        for v in order:
            for w in adj[v]:
                if not seen[w]:
                    seen[w] = 1
                    parent[w] = v
                    order.append(w)
        if len(order) != n:
            raise ValueError("edge set is not connected (it has n-1 edges, so it has a cycle)")
        del order[0]
        return parent, order


def _wilson(n: int, gen) -> tuple[list[int], list[int]]:
    """Uniform spanning tree of K_n (n >= 1) via Wilson's algorithm, rooted at 0.

    Returns ``(parent, order)``: ``parent[v]`` is v's neighbour on its
    path to vertex 0 (``parent[0]`` is 0), and ``order`` lists the other
    n-1 vertices, each after its parent. Exactly uniform over all
    n^(n-2) labeled trees.
    """
    if n < 1:
        raise ValueError(f"vertex count must be >= 1, got {n}")
    parent = [0] * n
    if n <= 2:
        # one tree, no draw
        return parent, list(range(1, n))
    order: list[int] = []
    in_tree = bytearray(n)
    in_tree[0] = 1
    # buffered draws in [0, n-2]; shifting past the current vertex makes
    # them uniform over the n-1 neighbors in K_n
    buf: list[int] = []
    pos = 0
    top = n - 1
    for start in range(1, n):
        if in_tree[start]:
            continue
        cur = start
        while not in_tree[cur]:
            if pos == len(buf):
                buf = gen.integers(0, top, size=1024).tolist()
                pos = 0
            step = buf[pos]
            pos += 1
            if step >= cur:
                step += 1
            parent[cur] = step
            cur = step
        # the loop-erased path joins the tree at its far end, so reversed
        # it lists each vertex after its parent
        path = []
        cur = start
        while not in_tree[cur]:
            in_tree[cur] = 1
            path.append(cur)
            cur = parent[cur]
        path.reverse()
        order += path
    return parent, order


def _splits(n: int, parent: Sequence[int], order: Sequence[int]) -> list[int]:
    """Subtree sizes of the tree rooted at 0 that ``parent`` describes.

    ``subtree[v]`` is the side of the split at edge (v, parent[v]) that
    holds v; the other side has n - subtree[v] vertices. Raises
    ValueError unless ``order`` is a permutation of the vertices 1..n-1
    and the pass carries all n vertices to the root, which holds exactly
    when the parents form a tree rooted at 0 and ``order`` puts each
    vertex after its parent.
    """
    if len(order) != n - 1 or set(order) != set(range(1, n)):
        raise ValueError(f"order must list each of the vertices 1..{n - 1} once")
    if min(parent) < 0 or max(parent) >= n:
        raise ValueError(f"parent out of vertex range [0, {n})")
    subtree = [1] * n
    for v in reversed(order):
        subtree[parent[v]] += subtree[v]
    if subtree[0] != n:
        raise ValueError("parents do not form a tree rooted at 0, or order lists a child before its parent")
    return subtree


def sample_ust(n: int, rng) -> LabeledTree:
    """Uniform spanning tree of K_n via Wilson's algorithm (see ``_wilson``)."""
    parent, order = _wilson(n, as_generator(rng))
    return LabeledTree(n, tuple((v, parent[v]) for v in order))


def prufer_to_tree(seq: Sequence[int], n: int) -> LabeledTree:
    """Decode a Prufer sequence (length n-2, entries in [0, n)) to its tree."""
    if n < 1:
        raise ValueError(f"vertex count must be >= 1, got {n}")
    seq = [int(v) for v in seq]
    if len(seq) != max(n - 2, 0):
        raise ValueError(f"sequence for {n} vertices must have length {max(n - 2, 0)}, got {len(seq)}")
    if any(not 0 <= v < n for v in seq):
        raise ValueError("sequence entry out of vertex range")
    if n == 1:
        return LabeledTree(1, ())
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges: list[Edge] = []
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    u = heapq.heappop(leaves)
    w = heapq.heappop(leaves)
    edges.append((u, w))
    return LabeledTree(n, tuple(edges))


def tree_to_prufer(tree: LabeledTree) -> tuple[int, ...]:
    """Encode a tree as its Prufer sequence (inverse of :func:`prufer_to_tree`)."""
    tree.validate()
    n = tree.n
    if n <= 2:
        return ()
    neighbors: list[set[int]] = [set() for _ in range(n)]
    for u, v in tree.edges:
        neighbors[u].add(v)
        neighbors[v].add(u)
    leaves = [v for v in range(n) if len(neighbors[v]) == 1]
    heapq.heapify(leaves)
    seq = []
    for _ in range(n - 2):
        leaf = heapq.heappop(leaves)
        parent = next(iter(neighbors[leaf]))
        seq.append(parent)
        neighbors[parent].discard(leaf)
        neighbors[leaf].clear()
        if len(neighbors[parent]) == 1:
            heapq.heappush(leaves, parent)
    return tuple(seq)


def sample_ust_prufer(n: int, rng) -> LabeledTree:
    """Uniform spanning tree via a uniform Prufer sequence.

    Distribution-identical to :func:`sample_ust`; kept as an independent
    second route for uniformity testing.
    """
    if n < 1:
        raise ValueError(f"vertex count must be >= 1, got {n}")
    gen = as_generator(rng)
    if n <= 2:
        return LabeledTree(n, () if n == 1 else ((0, 1),))
    seq = gen.integers(0, n, size=n - 2).tolist()
    return prufer_to_tree(seq, n)


def enumerate_trees(n: int) -> Iterator[LabeledTree]:
    """All labeled trees on [n], via exhaustive Prufer enumeration."""
    if not 1 <= n <= ENUMERATION_LIMIT:
        raise ValueError(f"enumeration supported for 1 <= n <= {ENUMERATION_LIMIT}, got {n}")
    if n == 1:
        yield LabeledTree(1, ())
        return
    for seq in product(range(n), repeat=n - 2):
        yield prufer_to_tree(seq, n)


def cayley_tree_count(n: int) -> int:
    """Number of labeled trees on n vertices: n^(n-2)."""
    if n < 1:
        raise ValueError(f"vertex count must be >= 1, got {n}")
    return 1 if n <= 2 else n ** (n - 2)


def as_balance_threshold(beta) -> Fraction:
    """Coerce a balance threshold to an exact Fraction in (0, 1/2)."""
    frac = Fraction(beta) if not isinstance(beta, Fraction) else beta
    if not 0 < frac < Fraction(1, 2):
        raise ValueError(f"balance threshold must lie in (0, 1/2), got {beta!r}")
    return frac


@dataclass(frozen=True)
class BalancedEdgeReport:
    """Per-edge split sizes of a tree, plus the balanced subset."""

    beta: Fraction
    balanced_edges: tuple[Edge, ...]
    s_values: dict[Edge, int]
    s_sum: int


def balanced_edges(tree: LabeledTree, beta) -> BalancedEdgeReport:
    """Classify every tree edge by the split its removal induces.

    An edge is balanced when both components of the split have at least
    beta*n vertices (exact rational comparison); ``s_values`` maps each
    edge to its smaller-side size.
    """
    frac = as_balance_threshold(beta)
    n = tree.n
    parent, order = tree._rooted()
    subtree = _splits(n, parent, order)
    num = frac.numerator
    den = frac.denominator
    balanced: list[Edge] = []
    s_values: dict[Edge, int] = {}
    s_sum = 0
    for v in order:
        side = subtree[v]
        other = n - side
        edge = (v, parent[v]) if v < parent[v] else (parent[v], v)
        smaller = side if side < other else other
        s_values[edge] = smaller
        s_sum += smaller
        if side * den >= num * n and other * den >= num * n:
            balanced.append(edge)
    balanced.sort()
    return BalancedEdgeReport(frac, tuple(balanced), s_values, s_sum)


def edges_form_chain(edge_set: Iterable[Edge]) -> bool:
    """True if the edges are empty or form a single simple path."""
    edges = list(edge_set)
    if not edges:
        return True
    degree: dict[int, int] = {}
    for u, v in edges:
        degree[u] = degree.get(u, 0) + 1
        degree[v] = degree.get(v, 0) + 1
    if any(d > 2 for d in degree.values()):
        return False
    if len(degree) != len(edges) + 1:
        return False
    index = {v: i for i, v in enumerate(degree)}
    uf = UnionFind(len(index))
    for u, v in edges:
        if not uf.union(index[u], index[v]):
            return False
    return uf.component_count == 1


@dataclass(frozen=True)
class ScalingRow:
    n: int
    samples: int
    balanced_median: float
    balanced_mean: float
    s_sum_median: float
    s_sum_mean: float


@dataclass(frozen=True)
class ScalingReport:
    """Balanced-edge and split-size growth measured over a size grid.

    For uniform spanning trees the balanced-edge count grows like
    sqrt(n) and the total smaller-side size like n^1.5, so the log-log
    slopes should sit near 0.5 and 1.5.
    """

    beta: Fraction
    rows: tuple[ScalingRow, ...]
    balanced_median_slope: float
    balanced_mean_slope: float
    s_sum_median_slope: float
    s_sum_mean_slope: float


def _loglog_slope(ns: Sequence[int], values: Sequence[float]) -> float:
    if any(v <= 0 for v in values):
        return float("nan")
    xs = [math.log(n) for n in ns]
    ys = [math.log(v) for v in values]
    xbar = sum(xs) / len(xs)
    ybar = sum(ys) / len(ys)
    sxx = sum((x - xbar) ** 2 for x in xs)
    sxy = sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys))
    return sxy / sxx


def structure_scaling_report(
    n_grid: Sequence[int],
    samples: int,
    beta,
    seed: int,
) -> ScalingReport:
    """Sample USTs over a size grid and fit growth exponents.

    Each (size, sample) cell draws from its own derived stream, so the
    table is reproducible and independent of evaluation order.
    """
    frac = as_balance_threshold(beta)
    sizes = [int(n) for n in n_grid]
    if len(sizes) < 2 or any(n < 10 for n in sizes):
        raise ValueError("size grid needs at least two sizes to fit a slope, every size >= 10")
    if any(b >= a for a, b in zip(sizes[1:], sizes)):
        raise ValueError("size grid must be strictly increasing")
    if samples < 1:
        raise ValueError("need at least one sample per size")
    num = frac.numerator
    den = frac.denominator
    rows = []
    for n in sizes:
        balanced_counts = []
        s_sums = []
        for j in range(samples):
            parent, order = _wilson(n, derive_rng(seed, "ust-scaling", n, j))
            subtree = _splits(n, parent, order)
            balanced = s_sum = 0
            for v in order:
                side = subtree[v]
                other = n - side
                s_sum += side if side < other else other
                if side * den >= num * n and other * den >= num * n:
                    balanced += 1
            balanced_counts.append(balanced)
            s_sums.append(s_sum)
        rows.append(
            ScalingRow(
                n=n,
                samples=samples,
                balanced_median=float(statistics.median(balanced_counts)),
                balanced_mean=sum(balanced_counts) / samples,
                s_sum_median=float(statistics.median(s_sums)),
                s_sum_mean=sum(s_sums) / samples,
            )
        )
    return ScalingReport(
        beta=frac,
        rows=tuple(rows),
        balanced_median_slope=_loglog_slope(sizes, [r.balanced_median for r in rows]),
        balanced_mean_slope=_loglog_slope(sizes, [r.balanced_mean for r in rows]),
        s_sum_median_slope=_loglog_slope(sizes, [r.s_sum_median for r in rows]),
        s_sum_mean_slope=_loglog_slope(sizes, [r.s_sum_mean for r in rows]),
    )


def tree_to_text(tree: LabeledTree) -> str:
    """Edge-list serialization, one "u v" pair per line, 1-indexed."""
    return "".join(f"{u + 1} {v + 1}\n" for u, v in tree.edges)


def tree_from_text(text: str, n: int | None = None) -> LabeledTree:
    """Parse the 1-indexed edge-list format; infers n as #edges + 1."""
    edges = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"malformed edge line: {line!r}")
        u, v = (int(part) - 1 for part in parts)
        edges.append((u, v))
    if n is None:
        n = len(edges) + 1
    tree = LabeledTree(n, tuple(edges))
    tree.validate()
    return tree
