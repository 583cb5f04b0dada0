"""Breadth-first search with parent links, behind every witness path of
the package.  The oracle keeps its own search on purpose, to stay
independent of this one."""
from __future__ import annotations

from collections import deque


def bfs(sources, successors, goal=None):
    """Breadth-first search from `sources`, expanded in the given order.

    `successors(node)` yields `(successor, label)` pairs.  Returns
    `(parent, hit)`: `parent` maps each node first reached by an edge, in
    discovery order, to that edge's `(node, label)`; sources never enter
    it.  The search stops at the first edge whose target satisfies `goal`,
    tested even on seen targets so an edge back to a source counts, and
    `hit` is that edge as `(node, label, target)`, else None.
    """
    parent: dict = {}
    seen = set(sources)
    queue = deque(sources)
    while queue:
        node = queue.popleft()
        for succ, label in successors(node):
            if goal is not None and goal(succ):
                return parent, (node, label, succ)
            if succ not in seen:
                seen.add(succ)
                parent[succ] = (node, label)
                queue.append(succ)
    return parent, None


def path_to(parent: dict, node) -> list:
    """The labels along the parent links from a source down to `node`."""
    labels = []
    while node in parent:
        node, label = parent[node]
        labels.append(label)
    labels.reverse()
    return labels
