"""Disjoint-set forest with path compression and union by size."""

from __future__ import annotations


class UnionFind:
    def __init__(self, n: int) -> None:
        if n < 0:
            raise ValueError(f"element count must be non-negative, got {n}")
        self._parent = list(range(n))
        self._size = [1] * n
        self._components = n

    def find(self, x: int) -> int:
        parent = self._parent
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(self, x: int, y: int) -> bool:
        """Merge the two classes; returns False if already merged."""
        rx = self.find(x)
        ry = self.find(y)
        if rx == ry:
            return False
        if self._size[rx] < self._size[ry]:
            rx, ry = ry, rx
        self._parent[ry] = rx
        self._size[rx] += self._size[ry]
        self._components -= 1
        return True

    def connected(self, x: int, y: int) -> bool:
        return self.find(x) == self.find(y)

    @property
    def component_count(self) -> int:
        return self._components

    def component_sizes(self) -> list[int]:
        """Sizes of all classes, in root order."""
        return [self._size[v] for v in range(len(self._parent)) if self.find(v) == v]
