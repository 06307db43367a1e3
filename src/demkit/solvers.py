"""Exact and greedy solvers for the minimum distance-edge-monitoring set.

The exact solver first strips the input to its 2-core (the minimum is
invariant under pendant-tree removal), then solves minimum set cover over
the per-vertex EM sets of the core: candidate sets are EM(x) for each core
vertex x, and elements are classes of core edges monitored by the same
vertices (on a grid, whole rows of edges fall into one class).  Greedy
still counts edges, through each class's weight, so merging changes no
pick.  One branch-and-bound search, seeded with the greedy cover, returns
the optimum that is lexicographically smallest over core vertices, so the
reported monitor set is canonical.  When the node budget runs out, the
covers found so far are improved by local search, on the same classes,
and the smallest is returned as inexact: every stage reads one instance.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from heapq import heappop, heapreplace
from itertools import combinations
from time import perf_counter

from .errors import BadParameterError
from .graph import Graph, _bfs, _bits, base_graph, canonical_edge, require_connected
from .monitor import MonitoringCertificate, _em_holders, em_set_naive, is_monitoring_set

DEFAULT_BUDGET = 10_000_000


@dataclass
class DemResult:
    """Outcome of a dem computation.

    exact is True only when the value is provably minimum; a greedy run or
    a budget-exhausted exact run reports exact=False.  graph is the input
    graph, kept for the certificate.
    """

    value: int
    monitor_set: tuple
    method: str
    exact: bool
    graph: Graph = field(repr=False, compare=False)
    stats: dict = field(default_factory=dict)

    @cached_property
    def certificate(self) -> MonitoringCertificate:
        """is_monitoring_set of monitor_set on graph, built on first access."""
        return is_monitoring_set(self.graph, self.monitor_set)

    def to_json(self, label=lambda v: v) -> dict:
        """The report body; wall time stays out so reports are reproducible."""
        stats = {"nodes": self.stats.get("nodes", 0)}
        if self.stats.get("budget_exhausted"):
            stats["budget_exhausted"] = True
        return {
            "value": self.value,
            "monitor_set": [label(v) for v in self.monitor_set],
            "exact": self.exact,
            "method": self.method,
            "stats": stats,
        }


def _merge(holders: list) -> tuple:
    """Merge the elements covered by the same sets into classes.

    Returns (classes, buckets): classes lists the distinct masks of holders,
    most holders first and ties by the larger mask first, so the classes
    with the fewest holders get the highest bits, the order the packing
    bound of _cover_search reads.  buckets pairs each multiplicity w with
    the mask of the classes that stand for w elements.
    """
    count = Counter(holders)
    # Two stable sorts with C keys: by mask, then by holder count.
    classes = sorted(count, reverse=True)
    classes.sort(key=int.bit_count, reverse=True)
    buckets: dict = {}
    for c, h in enumerate(classes):
        w = count[h]
        buckets[w] = buckets.get(w, 0) | 1 << c
    return classes, sorted(buckets.items())


def _greedy_cover(masks: list, full: int, buckets: list) -> list:
    """Repeatedly take the set covering the most uncovered elements (ties to
    the lowest index).

    masks range over the classes of _merge, and a class counts for the w
    elements it stands for: the gain is the sum of w * popcount over the
    buckets.

    A set's gain only falls as elements get covered, so the sets wait on a
    heap under gains read earlier, which bound their gains now (Minoux's
    lazy greedy).  The key of set v with gain g is v - g * len(masks):
    the smallest key has the highest gain, and among equal gains the
    lowest index.  Each pick re-reads the gain of the set at the head
    until the head's key is current; no other key can then be smaller, so
    the head is the set a full scan would pick.  Every set starts under
    top, one more than any gain, so the start is a sorted list, already a
    heap, and every gain is first read at the head, in index order,
    before any pick.  A set whose gain reads 0 leaves the heap, and an
    empty heap with elements left uncovered means no set holds them.
    """
    n = len(masks)
    top = 1 + sum(w * b.bit_count() for w, b in buckets)
    heap = [v - top * n for v in range(n)]
    covered = 0
    chosen = []
    parts = buckets
    while covered != full:
        if not heap:
            raise AssertionError("uncoverable element in set-cover instance")
        key = heap[0]
        v = key % n
        m = masks[v]
        gain = 0
        for w, b in parts:
            gain += w * (m & b).bit_count()
        if v - gain * n == key:
            heappop(heap)
            chosen.append(v)
            covered |= m
            left = full ^ covered
            parts = [(w, b & left) for w, b in buckets]
        elif gain:
            heapreplace(heap, v - gain * n)
        else:
            heappop(heap)
    return chosen


def _cover_search(sets: list, incumbent: list, budget: int) -> tuple:
    """Branch and bound for the lexicographically smallest minimum cover.

    sets[i] is the bitmask of the elements in set i; there is at least one
    element, and every element lies in some set.  The bounds below hold
    for any numbering of the elements, so the numbering changes only the
    node count, and with it where a budget cuts the search.  Callers pass
    the masks of _cover_instance, whose classes are numbered as _merge
    orders them: distinct, with the fewest holders at the highest bits.

    The search is an include-first DFS over set indices, looking for
    covers of size <= limit; limit starts at the incumbent's size and
    drops to one below each cover found.  A node with room for r more sets
    is pruned when the sets from index idx on cannot cover what is left,
    when the uncovered elements exceed r times the largest set, or when
    more than r uncovered elements pairwise share no set of index >= idx
    (a packing: each needs a set of its own).  The packing takes the
    uncovered element with the fewest holders first, which is the highest
    bit, so keep[idx] is indexed by bit_length: keep[idx][e + 1] holds the
    elements that share no set of index >= idx with element e, and
    keep[idx][0] = 0 leaves an empty remainder empty.  The packing thus
    runs r steps, over a range built once per room, on a copy of the
    uncovered mask, and prunes iff anything is left; it is skipped when at
    most r elements are uncovered: each step removes at least the element
    it takes.  The rows are built from the last set backwards, and an
    entry only loses bits, so the build skips the entries already at 0
    and copies the row only at an index where some entry changes; the
    indices in between share one list.  Where the sets are nearly full,
    as on a cycle, every entry is 0 after a few sets, and the table holds
    a handful of rows, not one per set.

    A node is (idx, uncovered, chosen, depth): the elements still
    uncovered, the chosen sets as a linked list (index, rest), newest
    first, and their number.  An include is then one AND with
    without[idx], the elements outside set idx, and shares its parent's
    list; the cover tuple is built only when a cover is found.  The suffix
    test is uncovered & missing[idx], missing[idx] being the elements no
    set of index >= idx holds.

    There are two kinds of node, and one block of the loop tests each
    kind.  The exclude block tests the root and every exclude child: it
    checks the budget, counts the node, then runs the suffix test, the
    max_pop test and the packing.  The include block tests include
    children: the budget, the count, the cover check, the packing and the
    max_pop test.  Tests that cannot fire are not made: an include child
    passes the suffix test, since what its parent left uncovered lies in
    sets[idx] | suffix_or[idx + 1], and an exclude child is no cover,
    since its parent was none.  The include child is the next node
    visited, so when one passes, its exclude sibling is pushed, the one
    push of the loop, and the include block runs again on its own include
    child.  A popped exclude child keeps the max_pop test because limit
    can drop between its push and its pop.

    Most include children are pruned at once, so the search is mostly a
    scan along one chain of exclude children, and the scan runs in place.
    When an include child is pruned, the next node is its exclude
    sibling, which would be the top of the stack; the exclude block takes
    it directly, with no push or pop.  Its max_pop test cannot fire then,
    as it has its parent's uncovered mask, depth and limit.  When an
    include child is a cover, limit drops to its parent's depth, and the
    loop sets bound, the max_pop test's room * max_pop, to 0 and takes the
    sibling in place too: with no room left it is always counted and then
    pruned, as it was when it was
    pushed and popped, so a cover pushes nothing.  The include child runs
    its packing first and counts its uncovered elements only when the
    packing passes: a packing over at most room - 1 elements always
    passes, so it prunes exactly the nodes that the max_pop test, then the
    packing when more than room - 1 elements are left, would prune.  The
    ranges of room and room - 1 steps and the two max_pop bounds change
    only on a descent, so a scan reads them once.  None of this changes
    which node comes next, and each node is checked against the budget
    just before it is counted, so the nodes, their order, the budget cut
    points and the covers are those of the plain stack DFS.

    Include-first order meets equal-size covers in lexicographic order, and
    no branch holding an optimum is pruned while limit >= optimum, so the
    last cover found is the lex-smallest optimum.  Returns (covers, nodes,
    exact): covers lists the incumbent, then each cover found in order, so
    the last is the best; exact is False when more than `budget` nodes
    would be needed.
    """
    n = len(sets)
    suffix_or = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix_or[i] = suffix_or[i + 1] | sets[i]
    full = suffix_or[0]
    missing = [full ^ m for m in suffix_or]
    without = [full ^ m for m in sets]
    # Only elements with a set of index >= idx are read from keep[idx]: the
    # suffix test prunes a node before its packing sees any other.  alive
    # holds the elements whose entry is not yet 0.
    keep = [None] * n
    row = [0] + [full] * full.bit_length()
    alive = full
    for idx in range(n - 1, -1, -1):
        m = sets[idx]
        shared = True
        for e in _bits(m & alive):
            old = row[e + 1]
            if old & m:
                if shared:
                    row = row[:]
                    shared = False
                new = old & without[idx]
                row[e + 1] = new
                if not new:
                    alive ^= 1 << e
        keep[idx] = row
    max_pop = max((m.bit_count() for m in sets), default=1) or 1
    steps = [range(r) for r in range(len(incumbent) + 1)]
    covers = [tuple(incumbent)]
    limit = len(incumbent)
    nodes = 0
    stack = [(0, full, None, 0)]
    while stack:
        # The root, or an exclude child pushed when its include sibling
        # passed its tests.
        idx, uncovered, chosen, depth = stack.pop()
        left = uncovered.bit_count()
        room = limit - depth
        bound = room * max_pop
        cap = bound - max_pop
        own = steps[room]
        sub = steps[room - 1]
        while True:
            # An exclude child (idx, uncovered, chosen, depth), popped or
            # taken in place.
            if nodes == budget:
                return covers, nodes, False
            nodes += 1
            if uncovered & missing[idx] or left > bound:
                break
            if left > room:
                k = keep[idx]
                rest = uncovered
                for _ in own:
                    rest &= k[rest.bit_length()]
                if rest:
                    break
            while True:
                # The include child of the node (idx, uncovered, chosen,
                # depth), which has passed its tests.
                if nodes == budget:
                    return covers, nodes, False
                nodes += 1
                inner = uncovered & without[idx]
                idx += 1
                if not inner:
                    cover = [idx - 1]
                    link = chosen
                    while link:
                        v, link = link
                        cover.append(v)
                    covers.append(tuple(reversed(cover)))
                    limit = depth
                    bound = 0
                    break
                k = keep[idx]
                rest = inner
                for _ in sub:
                    rest &= k[rest.bit_length()]
                if rest:
                    break
                count = inner.bit_count()
                if count > cap:
                    break
                # Not pruned: descend, its exclude sibling waits.
                stack.append((idx, uncovered, chosen, depth))
                uncovered = inner
                chosen = (idx - 1, chosen)
                depth += 1
                left = count
                room -= 1
                bound = cap
                cap -= max_pop
                own = sub
                sub = steps[room - 1]
            # Its exclude sibling is the next node, taken in place.
    return covers, nodes, True


def _improve_cover(holders: list, covers: list) -> list:
    """Local search: in each cover, replace any r <= 3 sets by r - 1 sets
    (dropping redundant ones when r = 1) until no such move exists; return
    the first smallest result.  holders[e] is the bitmask of the sets that
    hold element e, and every list in covers is a cover.  Groups are tried
    smallest r first, in combinations order, and a move draws its new sets
    from the holders of the lowest element the group alone holds.
    dem passes the edge classes in first-edge order; each mask read here is
    a union of classes, so the moves are those made on one element per edge.

    The elements a group alone holds are read off three masks, rebuilt
    after each move: one, two and three hold the elements that the cover
    holds exactly once, twice and three times.  A group needs an element
    held twice when it holds it twice, and one held three times when it
    holds it three times, so a group costs a fixed number of mask
    operations, whatever the size of the cover.
    """
    masks = _transpose(holders, max(map(int.bit_length, holders)))
    max_pop = max(m.bit_count() for m in masks)

    def completing(elems: int):
        """The lowest set that holds every element of elems, or None.  It
        holds the lowest and the highest element, which few sets do."""
        common = holders[(elems & -elems).bit_length() - 1] & holders[elems.bit_length() - 1]
        while common:
            low = common & -common
            w = low.bit_length() - 1
            if not elems & ~masks[w]:
                return w
            common ^= low
        return None

    # reach[e]: the elements that share a set with element e.
    reach = [0] * len(holders)
    for m in masks:
        for e in _bits(m):
            reach[e] |= m

    def pair(need: int):
        """The first set, then the lowest second set, that hold need.

        A set holding need's lowest element a lies inside reach[a], so the
        second set holds far, the rest of need, and lies inside the reach
        of far's lowest element: when far sticks out of that, no two sets
        hold need."""
        a = (need & -need).bit_length() - 1
        far = need & ~reach[a]
        if far and far & ~reach[(far & -far).bit_length() - 1]:
            return None
        for v in _bits(holders[a]):
            left = need & ~masks[v]
            if not left:
                return (v,)
            if left.bit_count() <= max_pop:
                w = completing(left)
                if w is not None:
                    return (v, w)
        return None

    def move(cover: list):
        """(group, swap) for the first improving move on cover, or None."""
        ms = [masks[v] for v in cover]
        # The elements the cover holds at least once, twice, three and four
        # times.
        once = twice = thrice = more = 0
        for m in ms:
            more |= thrice & m
            thrice |= twice & m
            twice |= once & m
            once |= m
        one, two, three = once ^ twice, twice ^ thrice, thrice ^ more
        only = [one & m for m in ms]
        # From r = 2 on, every group needs what each member alone holds,
        # so need is never empty.
        for i, o in enumerate(only):
            if not o:
                return (i,), ()
        c = len(cover)
        for i in range(c):
            for j in range(i + 1, c):
                need = only[i] | only[j] | (two & ms[i] & ms[j])
                if need.bit_count() <= max_pop:
                    w = completing(need)
                    if w is not None:
                        return (i, j), (w,)
        # need = one & (a | b | c) | two & majority(a, b, c) | three & a & b & c,
        # with what depends on a and b alone taken out of the inner loop.
        for i in range(c):
            for j in range(i + 1, c):
                a, b = ms[i], ms[j]
                both = a & b
                base = only[i] | only[j] | (two & both)
                extra = (two & (a | b)) | (three & both)
                for k in range(j + 1, c):
                    need = base | only[k] | (extra & ms[k])
                    if need.bit_count() <= 2 * max_pop:
                        swap = pair(need)
                        if swap is not None:
                            return (i, j, k), swap
        return None

    def polish(cover) -> list:
        cover = list(cover)
        while (found := move(cover)) is not None:
            group, swap = found
            cover = [v for i, v in enumerate(cover) if i not in group] + list(swap)
        return cover

    return min(map(polish, covers), key=len)


def _transpose(holders: list, n: int) -> list:
    """Per-set masks over elements from per-element masks over n sets.

    The loop walks one bit per (element, set) pair it records.  When the
    holder masks are more than half full, it walks their zero bits
    instead, transposing the complements, and complements the result
    back: on a cycle every class misses at most two of the n sets.
    """
    dense = 2 * sum(map(int.bit_count, holders)) > n * len(holders)
    flip = (1 << n) - 1 if dense else 0
    masks = [0] * n
    for e, h in enumerate(holders):
        bit = 1 << e
        h ^= flip
        while h:
            low = h & -h
            masks[low.bit_length() - 1] |= bit
            h ^= low
    if dense:
        every = (1 << len(holders)) - 1
        masks = [every ^ m for m in masks]
    return masks


def _cover_instance(g: Graph) -> tuple:
    """dem on g as set cover over merged edge classes.

    Returns (seen, buckets, masks, full): the classes' holders in the order
    of their first edges, the buckets of _merge, masks[x] the classes in
    EM(x), in _merge's order, and full the mask of all classes.
    """
    holders = _em_holders(g)
    classes, buckets = _merge(holders)
    return list(dict.fromkeys(holders)), buckets, _transpose(classes, g.n), (1 << len(classes)) - 1


def _check_cover(masks: list, full: int, cover) -> None:
    """Raise AssertionError unless the sets of cover OR to full."""
    covered = 0
    for v in cover:
        covered |= masks[v]
    if covered != full:
        raise AssertionError("the chosen monitors leave an edge class uncovered")


def _result(g: Graph, ms: tuple, method: str, exact: bool, nodes: int, t0: float) -> DemResult:
    """The DemResult for the monitoring set ms of g, with the time since t0.
    An exact-method result that is not exact ran out of budget."""
    stats = {"nodes": nodes, "millis": (perf_counter() - t0) * 1000.0}
    if method == "exact" and not exact:
        stats["budget_exhausted"] = True
    return DemResult(len(ms), ms, method, exact, g, stats)


def _check_dem_defined(g: Graph) -> None:
    """BadParameterError for a graph with fewer than two vertices, which has
    no edge to monitor."""
    if g.n < 2:
        raise BadParameterError("dem is defined for graphs with at least one edge")


def dem_exact(g: Graph, budget: int = DEFAULT_BUDGET) -> DemResult:
    """Provably minimum monitoring set; the certificate is built when
    read.

    The problem is NP-hard, and the search's cost follows how hard the
    cover is to prove minimum rather than the core's size: the 1,225-vertex
    core of a 35 x 35 grid takes 2,451 nodes, while random cores of 50
    vertices can exhaust 200,000.
    If the node budget runs out, the smallest of the covers found, each
    improved by local search, is returned with exact=False.  Among
    equal-size optima, the monitor set that is lexicographically smallest
    over core vertices is returned.
    """
    _check_dem_defined(g)
    if budget < 0:
        raise BadParameterError(f"budget must be >= 0, got {budget}")
    t0 = perf_counter()
    base = base_graph(g)
    if base.was_tree:
        return _result(g, (0,), "exact", True, 0, t0)
    seen, buckets, masks, full = _cover_instance(base.graph)
    incumbent = _greedy_cover(masks, full, buckets)
    covers, nodes, exact = _cover_search(masks, incumbent, budget)
    best = covers[-1]
    if not exact:
        # Polishing every cover, not only the last, keeps a larger budget
        # from ending on a worse result.
        best = _improve_cover(seen, covers)
    _check_cover(masks, full, best)
    monitor_set = tuple(sorted(base.new_to_old[v] for v in best))
    return _result(g, monitor_set, "exact", exact, nodes, t0)


def dem_greedy(g: Graph) -> DemResult:
    """Greedy cover: repeatedly take the vertex monitoring the most uncovered
    edges (ties to the lowest id).  Carries the standard harmonic-factor
    set-cover guarantee relative to the optimum."""
    _check_dem_defined(g)
    require_connected(g, "dem")
    t0 = perf_counter()
    _, buckets, masks, full = _cover_instance(g)
    chosen = _greedy_cover(masks, full, buckets)
    _check_cover(masks, full, chosen)
    return _result(g, tuple(sorted(chosen)), "greedy", False, 0, t0)


def verify_dem_result(g: Graph, result: DemResult) -> bool:
    """Recheck a DemResult on g definitionally; True only if everything holds.

    A certificate built on g (result's own may be on another graph) must
    give every edge e of g a witness (x, y), x a monitor, and a BFS on G-e
    must show d(x, y) change: one BFS per edge and one per monitor.  For a
    result that claims exact, whatever its method, on a core of at most 12
    vertices, minimality is re-established by exhaustive subset search;
    adding monitors never uncovers an edge, so the subsets of size
    value - 1 decide it.
    """
    ms = sorted(set(result.monitor_set))
    if result.value != len(ms):
        return False
    if any(not (0 <= x < g.n) for x in ms):
        return False
    witnesses = is_monitoring_set(g, ms).witnesses
    if set(witnesses) != set(g.edges()):
        return False
    before = {x: _bfs(g, x) for x in ms}
    for e, (x, y) in witnesses.items():
        if x not in before:
            return False
        after = _bfs(g, x, skip=canonical_edge(*e))
        if before[x][y] == after[y]:
            return False
    if result.exact and result.value > 1:
        gb = base_graph(g).graph
        if gb.n <= 12:
            naive = {x: em_set_naive(gb, x).edges for x in range(gb.n)}
            all_edges = set(gb.edges())
            # With value - 1 above the core's size, the whole core is the
            # one subset, and it always monitors.
            for subset in combinations(range(gb.n), min(result.value - 1, gb.n)):
                if set().union(*(naive[x] for x in subset)) == all_edges:
                    return False
    return True
