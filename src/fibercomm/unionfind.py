"""Disjoint sets over hashable items (union–find with path halving)."""


class UnionFind:
    """Every item starts as its own class.  ``union(x, y)`` puts x's class
    under y's representative and says whether the two were apart; callers
    that care which representative survives pass it second."""

    __slots__ = ("parent",)

    def __init__(self):
        self.parent = {}  # only items that were put under another one

    def find(self, x):
        parent = self.parent
        while True:
            up = parent.get(x, x)
            if up == x:
                return x
            top = parent.get(up, up)
            if top == up:
                return up
            parent[x] = top
            x = top

    def union(self, x, y):
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return False
        self.parent[rx] = ry
        return True
