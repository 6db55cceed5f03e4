"""Labeled trees: uniform sampling, enumeration, and balance analytics.

Two kernels do the tree work. ``_wilson`` draws a uniformly random
spanning tree of the complete graph with Wilson's loop-erased random
walk, as a parent array rooted at vertex 0 plus an order that puts every
vertex after its parent. It walks in two phases. While the tree is small
its walks are long, a few of them taking most of the draws, and each is
read a draw chunk at a time in numpy, loop-erased from its last visits
(``_chunk_walk``); once |tree| * ``_LONG_WALK`` reaches n-1, the rest
are walked one draw at a time in Python, converting a chunk to Python
ints ``_SLICE`` draws at a time as they are read. Either way every draw
comes from chunks of ``gen.integers(0, n - 1, size=_CHUNK)``, each drawn
only when a draw is needed, so trees and the generator's later draws
are the same as those of a walk that reads one draw at a time.

``_balance`` turns that pair into subtree sizes, the sides of the split
each edge's removal leaves, in one children-first pass that also checks
the pair is a tree. It is the one home of the split and balance rules:
the same pass classifies each edge as it reaches it, and returns the
subtree sizes, the balanced edges and the sum of smaller sides.
``sample_ust`` wraps the parent array in a :class:`LabeledTree`;
``balanced_edges`` recovers parents of any tree by BFS;
``structure_scaling_report`` and the hard connectivity instances
(``connectivity.sample_hard_instance``) go from ``_wilson`` to
``_balance`` without building a tree object at all.

Prufer decoding (each sequence in [n]^(n-2) maps to its own labeled
tree) enumerates all trees for small n.

Thresholds are compared in exact integer arithmetic, so a side of size
s is "at least beta*n" iff s * denom(beta) >= numer(beta) * n, that is
iff s >= ceil(numer(beta) * n / denom(beta)).
"""

from __future__ import annotations

import heapq
import math
import statistics
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, product
from typing import Iterable, Iterator, Sequence

import numpy as np

from .streams import _is_integer, as_generator, derive_rng
from .unionfind import UnionFind

ENUMERATION_LIMIT = 7

# _wilson's draws per chunk, the expected walk length (n-1)/|tree|
# below which a numpy pass over a chunk costs more than it saves, and
# the draws its scalar phase converts to Python ints at a time (a tree
# at n = 50 reads about 94 draws)
_CHUNK = 1024
_LONG_WALK = 128
_SLICE = 128

Edge = tuple[int, int]


def _vertex_count(n) -> int:
    """``n`` as an int, or ValueError unless it is an integer (numpy's too,
    not bool) of at least 1."""
    if not _is_integer(n):
        raise ValueError(f"vertex count must be an integer, got {n!r}")
    if n < 1:
        raise ValueError(f"vertex count must be >= 1, got {n}")
    return int(n)


def _vertex(x) -> int:
    """``x`` as an int, or ValueError unless it is an integer (numpy's
    too, not bool)."""
    if not _is_integer(x):
        raise ValueError(f"vertex must be an integer, got {x!r}")
    return int(x)


def _normalize_edge(u: int, v: int, n: int) -> Edge:
    # a plain int skips the check, which a tree's n-1 edges would pay twice each
    if type(u) is not int:
        u = _vertex(u)
    if type(v) is not int:
        v = _vertex(v)
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
        object.__setattr__(self, "n", _vertex_count(self.n))
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

    Each walk starts at the lowest vertex not yet in the tree and takes
    one draw in [0, n-2] per step, shifted past the current vertex so it
    is uniform over the n-1 neighbours. A walk's expected length is
    (n-1)/|tree|: while |tree| * _LONG_WALK < n-1 a walk is read a chunk
    at a time in numpy (``_chunk_walk``), after that one draw at a time.
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
    top = n - 1
    chunk = np.empty(0, np.int64)
    pos = 0
    start = 1
    if _LONG_WALK < top:
        tree_mask = np.frombuffer(in_tree, np.uint8)
        last = np.empty(n, np.int64)
        size = 1
        while size * _LONG_WALK < top:
            while in_tree[start]:
                start += 1
            walk, chunk, pos = _chunk_walk(start, chunk, pos, tree_mask, gen, top)
            # walk[last[v]] is where v's last visit left to, v's parent
            # after loop erasure; maximum.at, unlike an assignment, is
            # defined where an index repeats
            visited = walk[:-1]
            last[visited] = 0
            last[start] = 0
            np.maximum.at(last, visited, np.arange(1, len(walk)))
            cur = start
            path = []
            while not in_tree[cur]:
                in_tree[cur] = 1
                path.append(cur)
                parent[cur] = int(walk[last[cur]])
                cur = parent[cur]
            path.reverse()
            order += path
            size += len(path)
    draws = chain.from_iterable(_draw_slices(chunk, pos, gen, top))
    for start in range(start, n):
        if in_tree[start]:
            continue
        cur = start
        for step in draws:
            if step >= cur:
                step += 1
            parent[cur] = step
            if in_tree[step]:
                break
            cur = step
        if cur == start:
            # start's last exit went straight into the tree
            in_tree[start] = 1
            order.append(start)
            continue
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


def _draw_slices(chunk, pos: int, gen, top: int) -> Iterator[list[int]]:
    """The draws ``chunk[pos:]`` and then fresh chunks, as lists of at
    most ``_SLICE`` Python ints; a chunk is drawn only when the slice
    before it has been read."""
    while True:
        for i in range(pos, len(chunk), _SLICE):
            yield chunk[i : i + _SLICE].tolist()
        chunk = gen.integers(0, top, size=_CHUNK)
        pos = 0


def _chunk_walk(start: int, chunk, pos: int, tree_mask, gen, top: int):
    """One walk of ``_wilson`` from ``start`` until it enters the tree.

    Reads the draws ``chunk[pos:]`` and then fresh chunks as needed, each
    in one numpy pass. Returns the positions after each step, the last
    one in the tree, with the chunk and offset after the walk's last draw.
    """
    steps = []
    cur = start
    while True:
        if pos == len(chunk):
            chunk = gen.integers(0, top, size=_CHUNK)
            pos = 0
        d = chunk[pos:]
        # a draw at or past the current vertex shifts up by one; the
        # current vertex is the previous draw or one past it, which only
        # matters when two draws in a row are equal
        prev = np.empty_like(d)
        prev[0] = cur - 1
        prev[1:] = d[:-1]
        x = d + (d > prev)
        for i in np.flatnonzero(d[1:] == d[:-1]).tolist():
            x[i + 1] = d[i + 1] + (x[i] == d[i + 1])
        hits = tree_mask[x]
        first = int(hits.argmax())
        if hits[first]:
            steps.append(x[: first + 1])
            return np.concatenate(steps), chunk, pos + first + 1
        steps.append(x)
        pos = len(chunk)
        cur = int(x[-1])


def _balance(n: int, parent: Sequence[int], order: Sequence[int], frac: Fraction) -> tuple[list[int], list[Edge], int]:
    """Split sizes, the frac-balanced edges and the sum of smaller sides.

    ``parent`` and ``order`` describe a tree rooted at 0, as ``_wilson``
    returns it. One children-first pass over ``order`` reversed reaches
    each vertex v once its subtree size is final: ``subtree[v]`` is the
    side of the split at edge (v, parent[v]) that holds v, and the other
    side has n - subtree[v] vertices. The same step adds the size to the
    parent's, adds the smaller side to the sum, and tests the balance
    rule: both sides hold at least frac*n vertices, that is
    lo <= subtree[v] <= n - lo with lo = ceil(frac*n), exactly. Returns
    the subtree sizes, the balanced edges sorted and the sum; edge tuples
    are built for the balanced edges only.

    Raises ValueError unless ``order`` lists each of the vertices 1..n-1
    once, every parent lies in [0, n), and the pass carries all n
    vertices to the root, which holds exactly when the parents form a
    tree rooted at 0 and ``order`` puts each vertex after its parent.
    """
    if len(parent) != n or len(order) != n - 1:
        raise ValueError(f"need {n} parents and an order of the {n - 1} vertices 1..{n - 1}")
    lo = -(-frac.numerator * n // frac.denominator)
    hi = n - lo
    half = n // 2
    subtree = [1] * n
    # the root counts as listed, so an order entry 0 reads as a repeat
    seen = bytearray(n)
    seen[0] = 1
    balanced: list[Edge] = []
    s_sum = 0
    try:
        if min(parent) < 0 or max(parent) >= n:
            raise ValueError(f"parent out of vertex range [0, {n})")
        for v in reversed(order):
            # a negative v would index from the end
            if seen[v] or v < 0:
                raise ValueError(f"order must list each of the vertices 1..{n - 1} once, got {v!r}")
            seen[v] = 1
            side = subtree[v]
            u = parent[v]
            subtree[u] += side
            s_sum += side if side <= half else n - side
            if lo <= side <= hi:
                balanced.append((v, u) if v < u else (u, v))
    except (IndexError, TypeError):
        # an order entry >= n, or an entry or parent that is not an integer
        raise ValueError(f"order and parents must be integer vertices in [0, {n})") from None
    if subtree[0] != n:
        raise ValueError("parents do not form a tree rooted at 0, or order lists a child before its parent")
    balanced.sort()
    return subtree, balanced, s_sum


def sample_ust(n: int, rng) -> LabeledTree:
    """Uniform spanning tree of K_n via Wilson's algorithm (see ``_wilson``)."""
    n = _vertex_count(n)
    parent, order = _wilson(n, as_generator(rng))
    return LabeledTree(n, tuple((v, parent[v]) for v in order))


def prufer_to_tree(seq: Sequence[int], n: int) -> LabeledTree:
    """Decode a Prufer sequence (length n-2, entries in [0, n)) to its tree."""
    n = _vertex_count(n)
    seq = [v if type(v) is int else _vertex(v) for v in seq]
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


def enumerate_trees(n: int) -> Iterator[LabeledTree]:
    """All labeled trees on [n], via exhaustive Prufer enumeration."""
    n = _vertex_count(n)
    if n > ENUMERATION_LIMIT:
        raise ValueError(f"enumeration supported for 1 <= n <= {ENUMERATION_LIMIT}, got {n}")
    if n == 1:
        yield LabeledTree(1, ())
        return
    for seq in product(range(n), repeat=n - 2):
        yield prufer_to_tree(seq, n)


def cayley_tree_count(n: int) -> int:
    """Number of labeled trees on n vertices: n^(n-2)."""
    n = _vertex_count(n)
    return 1 if n <= 2 else n ** (n - 2)


def as_balance_threshold(beta) -> Fraction:
    """Coerce a balance threshold to an exact Fraction in (0, 1/2).

    A numpy scalar is the exact value ``.item()`` gives, and a string is
    read as ``Fraction`` reads it. Anything else that is not a real number
    in (0, 1/2), such as None, nan or inf, raises ValueError.
    """
    value = beta.item() if isinstance(beta, np.generic) else beta
    try:
        frac = value if isinstance(value, Fraction) else Fraction(value)
        # 0 < frac < 1/2, on the integers: a Fraction's denominator is positive
        inside = 0 < frac.numerator and 2 * frac.numerator < frac.denominator
    except (TypeError, ValueError, OverflowError):
        inside = False
    if not inside:
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
    subtree, balanced, s_sum = _balance(n, parent, order, frac)
    s_values = {
        (v, parent[v]) if v < parent[v] else (parent[v], v): min(subtree[v], n - subtree[v]) for v in order
    }
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
    sizes = list(n_grid)
    if not all(_is_integer(v) for v in (*sizes, samples)):
        raise ValueError(f"sizes and samples must be integers, got {sizes!r} and {samples!r}")
    sizes = [int(n) for n in sizes]
    samples = int(samples)
    if len(sizes) < 2 or any(n < 10 for n in sizes):
        raise ValueError("size grid needs at least two sizes to fit a slope, every size >= 10")
    if any(b >= a for a, b in zip(sizes[1:], sizes)):
        raise ValueError("size grid must be strictly increasing")
    if samples < 1:
        raise ValueError("need at least one sample per size")
    rows = []
    for n in sizes:
        balanced_counts = []
        s_sums = []
        for j in range(samples):
            parent, order = _wilson(n, derive_rng(seed, "ust-scaling", n, j))
            _, balanced, s_sum = _balance(n, parent, order, frac)
            balanced_counts.append(len(balanced))
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
