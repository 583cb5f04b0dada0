"""Graph search shared by the package.  Graphs and products number nodes in
discovery order and record the edge that first reached each node, so the
loop that builds a graph is its breadth-first search, and every witness
path reads that tree (`path_to`): `parent[n]` is the source of n's first
edge, -1 at a start, and `via[n]` its label.  `automata.Product` is the one
such loop for products; `bfs` builds a tree for a graph made by hand.
Successors are flat lists, `adj[node] = [t0, l0, t1, l1, ...]`, read in
pairs (`pairs`) with no tuple stored; `tarjan` and `bfs` walk each list
with one iterator, taking a label with `next`.  `tarjan` keeps no
on-stack flag: a node's index becomes n once its component is emitted,
above every low link, so only nodes still on the stack can lower one.
`bfs` takes its goals as a set and tests each edge's target against it
inline.  `path_inside` finds paths within one strongly connected
component (`tarjan`), bounded by its member set, `shallowest_component`
picks the component a lasso loops in by node id alone, and
`stitch_cycle` the loop.  The oracle keeps its own search on purpose."""
from __future__ import annotations


def pairs(out):
    """The `(successor, label)` pairs of one flat successor list."""
    it = iter(out)
    return zip(it, it)


def bfs(sources, adj, goals=frozenset(), within=None):
    """Breadth-first search from `sources` over the flat lists `adj`,
    expanded in the given order.  Returns `(parent, via, hit)`: the tree
    over the nodes reached, as dicts in discovery order (`path_to`), and
    the first edge whose target is in the set `goals`, tested even on
    seen targets so an edge back to a source counts, as `(node, label,
    target)`, else None.  A target outside `within`, when given, is never
    added.  The queue is the list of nodes added, walked as it grows."""
    parent = dict.fromkeys(sources, -1)
    via: dict = {}
    queue = list(parent)
    for node in queue:
        it = iter(adj[node])
        for succ in it:
            label = next(it)
            if succ in goals:
                return parent, via, (node, label, succ)
            if succ not in parent and (within is None or succ in within):
                parent[succ] = node
                via[succ] = label
                queue.append(succ)
    return parent, via, None


def path_to(parent, via, node) -> list:
    """The labels along the tree `(parent, via)` from a source to `node`."""
    labels = []
    while (up := parent[node]) >= 0:
        labels.append(via[node])
        node = up
    labels.reverse()
    return labels


def path_inside(adj, members, source, goals, need_step: bool):
    """`(labels, goal)`: a shortest path along `adj` within `members`, one
    strongly connected component, from source to any goal in it.  Goals
    are tested on edges, so a cycle back to the source counts; need_step
    rejects the empty path at a source goal.  A path between two nodes of
    one component never leaves it, so `members` bounds only the work:
    the path is the one the whole graph gives."""
    if source in goals and not need_step:
        return [], source
    parent, via, (node, label, goal) = bfs([source], adj, goals, members)
    return path_to(parent, via, node) + [label], goal


def stitch_cycle(adj, members, anchor, goals) -> list:
    """Labels of a closed walk at `anchor` within `members`, its strongly
    connected component of `adj`, that meets every goal, a predicate on
    nodes, in order; a goal already met by a node the walk has stopped at
    is skipped."""
    labels: list = []
    visited = {anchor}
    cur = anchor
    for goal in goals:
        if any(goal(n) for n in visited):
            continue
        segment, cur = path_inside(adj, members, cur, {n for n in members if goal(n)},
                                   need_step=False)
        labels.extend(segment)
        visited.add(cur)
    segment, _ = path_inside(adj, members, cur, {anchor}, need_step=not labels)
    labels.extend(segment)
    return labels


def shallowest_component(adj, accepting, roots=None):
    """`(anchor, members)` for the nontrivial strongly connected component
    of `adj` (one with an edge inside it) that passes
    `accepting(scc, members)` and holds the shallowest node, which becomes
    the anchor.  Node ids must be breadth-first discovery order, as in
    `automata.Product`: depth then never decreases as the id grows, so the
    least id in a component is its shallowest node, and of two equally
    deep ones the lesser.  The rule reads ids only, not the order
    components are found in: the anchor is the least id inside its
    component, and the component with the least anchor wins.  `roots`
    limits the search to the components Tarjan reaches from them
    (`tarjan`).  None when no component passes."""
    best = None
    for scc in tarjan(len(adj), adj, roots):
        if not nontrivial(scc, adj):
            continue
        anchor = min(scc)
        if best is not None and anchor >= best[0]:
            continue
        members = set(scc)
        if accepting(scc, members):
            best = (anchor, members)
    return best


def nontrivial(scc, adj) -> bool:
    """Whether a strongly connected component of `adj` has an edge inside
    it: more than one node, or a self-loop."""
    return len(scc) > 1 or scc[0] in adj[scc[0]][::2]


def tarjan(n: int, adj, roots=None) -> list[list[int]]:
    """Strongly connected components of nodes 0..n-1 over the flat lists
    `adj` (iterative Tarjan).  The work stack is two parallel lists, the
    nodes and one iterator over each node's flat list, which skips the
    labels.  A node's index becomes n when its component is emitted, above
    every low link, so no on-stack flag is kept (Pearce's marking).  The
    search starts from each of `roots` in turn (every node when None) and
    returns the components reachable from them, in reverse topological
    order; each lists its nodes in the order they leave the stack."""
    index = [-1] * n
    low = [0] * n
    stack: list[int] = []
    sccs: list[list[int]] = []
    counter = 0
    for root in range(n) if roots is None else roots:
        if index[root] != -1:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        nodes = [root]
        edges = [iter(adj[root])]
        while nodes:
            node = nodes[-1]
            it = edges[-1]
            for succ in it:
                next(it)
                mark = index[succ]
                if mark == -1:
                    index[succ] = low[succ] = counter
                    counter += 1
                    stack.append(succ)
                    nodes.append(succ)
                    edges.append(iter(adj[succ]))
                    break
                if mark < low[node]:
                    low[node] = mark
            else:
                nodes.pop()
                edges.pop()
                lo = low[node]
                if lo == index[node]:
                    at = len(stack) - 1
                    while (w := stack[at]) != node:
                        index[w] = n
                        at -= 1
                    index[node] = n
                    comp = stack[at:]
                    del stack[at:]
                    comp.reverse()
                    sccs.append(comp)
                elif lo < low[nodes[-1]]:  # a root always emits, so node has a parent
                    low[nodes[-1]] = lo
    return sccs
