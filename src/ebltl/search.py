"""Graph search shared by the package.  Graphs and products number nodes in
discovery order and record the edge that first reached each node, so the
loop that builds a graph is its breadth-first search, and every witness
path reads that tree (`path_to`); `automata.Product` is the one such loop
for products, used by the model checker and the beta-dependence decision.  `bfs` builds it for a graph made by
hand, `path_inside` finds paths within one strongly connected component
(`tarjan`), `shallowest_component` picks the component a lasso loops in
and `stitch_cycle` the loop.  The oracle keeps its own search on
purpose."""
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


def path_inside(adj, members, source, goals, need_step: bool):
    """`(labels, goal)`: a shortest path over `adj` within `members` from
    source to any goal.  Goals are tested on edges, so a cycle back to the
    source counts; need_step rejects the empty path at a source goal."""
    if source in goals and not need_step:
        return [], source
    parent, (node, label, goal) = bfs(
        [source], lambda n: [(t, lb) for t, lb in adj[n] if t in members],
        goals.__contains__)
    return path_to(parent, node) + [label], goal


def stitch_cycle(adj, members, anchor, goals) -> list:
    """Labels of a closed walk at `anchor` over `adj` within `members` that
    meets every goal, a predicate on nodes, in order; a goal already met by
    a node the walk has stopped at is skipped."""
    labels: list = []
    visited = {anchor}
    cur = anchor
    for goal in goals:
        if any(goal(n) for n in visited):
            continue
        segment, cur = path_inside(adj, members, cur,
                                   {n for n in members if goal(n)}, need_step=False)
        labels.extend(segment)
        visited.add(cur)
    segment, _ = path_inside(adj, members, cur, {anchor}, need_step=not labels)
    labels.extend(segment)
    return labels


def shallowest_component(adj, depth, accepting):
    """`(anchor, members)` for the nontrivial strongly connected component
    of `adj` (one with an edge inside it) that passes
    `accepting(scc, members)` and holds the shallowest node by `depth`,
    which becomes the anchor; on a tie in depth, the first component in
    Tarjan's order wins.  None when no component passes."""
    best = None
    for scc in tarjan(len(adj), adj):
        members = set(scc)
        if any(succ in members for n in scc for succ, _ in adj[n]) \
                and accepting(scc, members):
            anchor = min(scc, key=lambda n: (depth[n], n))
            if best is None or depth[anchor] < depth[best[0]]:
                best = (anchor, members)
    return best


def tarjan(n: int, adj) -> list[list[int]]:
    """Strongly connected components of nodes 0..n-1, where `adj[node]`
    lists `(successor, label)` pairs (iterative Tarjan); components come out
    in reverse topological order."""
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    sccs: list[list[int]] = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            node, pi = work[-1]
            if pi == 0:
                index[node] = low[node] = counter
                counter += 1
                stack.append(node)
                on_stack[node] = True
            advanced = False
            while pi < len(adj[node]):
                succ = adj[node][pi][0]
                pi += 1
                if index[succ] == -1:
                    work[-1] = (node, pi)
                    work.append((succ, 0))
                    advanced = True
                    break
                if on_stack[succ]:
                    low[node] = min(low[node], index[succ])
            if advanced:
                continue
            work.pop()
            if low[node] == index[node]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == node:
                        break
                sccs.append(comp)
            if work:
                pnode, _ = work[-1]
                low[pnode] = min(low[pnode], low[node])
    return sccs
