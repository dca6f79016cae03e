"""Subset-count certificates for finite and unique completability of a pattern.

The central predicate on a set T of constraint columns: for every nonempty
subset S of T,

    k * rows(S) >= |S| + k * r

where rows(S) counts rows touched by at least one column of S, k = r for the
finite-completability condition and k = 1 for the unique-completability one
(the division by r in the finite condition is cleared to keep arithmetic
exact).  `min_slack` returns the minimum of k*rows(S) - |S| - k*r over all
nonempty subsets; the predicate holds iff it is >= 0.

The minimum is computed exactly by a project-selection min-cut: selecting a
column earns 1, every covered row costs k, and the empty set is excluded by
forcing one anchor column at a time.  An exhaustive enumeration oracle is
retained for candidate sets of up to 12 columns and backs the independent
witness validator.

Sets passing the predicate are the independent sets of a count matroid
(columns are hyperedges over their r+1 rows; the count k*rows - k*r is
matroidal because k*r <= k*(r+1) - 1), and "columns from pairwise distinct
origins" is a partition matroid.  A witness of a given size therefore exists
iff the two matroids share a common independent set that large, which is
decided exactly by augmenting-path matroid intersection.  The unique
certificate's two origin-disjoint witnesses are one common independent set
of the direct sum of both count matroids (one copy of the columns each) and
the origin partition matroid, so it is decided exactly the same way.  Every
verdict is therefore Finite/Unique or Refuted, never indeterminate.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from .pattern import ConstraintMatrix


@dataclass(frozen=True)
class CountCondition:
    """Cleared subset inequality k*rows(S) >= |S| + k*r with k in {1, r}."""

    r: int
    k: int

    def __post_init__(self):
        if self.r < 1:
            raise ValueError("rank must be positive")
        if self.k not in (1, self.r):
            raise ValueError("denominator must be 1 or the rank itself")

    @classmethod
    def finite(cls, r: int) -> "CountCondition":
        return cls(r, r)

    @classmethod
    def unique(cls, r: int) -> "CountCondition":
        return cls(r, 1)


class Verdict(Enum):
    FINITE = "Finite"
    UNIQUE = "Unique"
    REFUTED = "Refuted"


@dataclass(frozen=True)
class Certificate:
    """Outcome of a certificate search, with re-checkable witnesses."""

    verdict: Verdict
    r: int
    finite_witness: tuple[int, ...] | None = None
    unique_witness: tuple[int, ...] | None = None
    refutation: dict | None = None
    note: str = ""

    def to_dict(self, cm: ConstraintMatrix | None = None) -> dict:
        doc: dict = {"verdict": self.verdict.value, "rank": self.r, "note": self.note}
        if self.refutation is not None:
            doc["refutation"] = self.refutation
        for name, witness, cond in (
            ("finite_witness", self.finite_witness, CountCondition.finite(self.r)),
            ("unique_witness", self.unique_witness, CountCondition.unique(self.r)),
        ):
            if witness is None:
                continue
            if cm is None:
                doc[name] = {"columns": list(witness)}
            else:
                doc[name] = {
                    "columns": [
                        {"column": i, "origin": cm.origins[i], "rows": list(cm.columns[i])}
                        for i in witness
                    ],
                    "min_slack": min_slack(cm, witness, cond) if witness else None,
                }
        return doc


def _max_flow(adj: list[list[list[int]]], source: int, sink: int) -> int:
    """Edmonds-Karp on an adjacency list of [to, capacity, reverse_index] edges."""
    flow = 0
    n = len(adj)
    while True:
        parent_edge: list[tuple[int, int] | None] = [None] * n
        parent_edge[source] = (source, -1)
        queue = deque([source])
        while queue:
            u = queue.popleft()
            if u == sink:
                break
            for ei, (v, cap, _rev) in enumerate(adj[u]):
                if cap > 0 and parent_edge[v] is None:
                    parent_edge[v] = (u, ei)
                    queue.append(v)
        if parent_edge[sink] is None:
            return flow
        bottleneck = None
        v = sink
        while v != source:
            u, ei = parent_edge[v]
            cap = adj[u][ei][1]
            bottleneck = cap if bottleneck is None else min(bottleneck, cap)
            v = u
        v = sink
        while v != source:
            u, ei = parent_edge[v]
            edge = adj[u][ei]
            edge[1] -= bottleneck
            adj[edge[0]][edge[2]][1] += bottleneck
            v = u
        flow += bottleneck


def _anchored_slack(columns_rows: Sequence[tuple[int, ...]], anchor: int, k: int, rank: int) -> int:
    """min over subsets S containing the anchor column of k*rows(S) - |S| - k*rank.

    Min-cut form: source->column edges carry capacity 1 (the anchor's carries
    effectively infinite capacity, forcing it selected), column->row edges are
    uncuttable, row->sink edges carry k.  The cut value equals
    (#columns not selected) + k*rows(selected), so the minimum over anchored
    subsets is mincut - n - k*rank.
    """
    n = len(columns_rows)
    used_rows = sorted({row for rows in columns_rows for row in rows})
    row_node = {row: n + 1 + pos for pos, row in enumerate(used_rows)}
    sink = n + 1 + len(used_rows)
    inf = n + k * len(used_rows) + 1

    adj: list[list[list[int]]] = [[] for _ in range(sink + 1)]

    def add_edge(u: int, v: int, cap: int):
        adj[u].append([v, cap, len(adj[v])])
        adj[v].append([u, 0, len(adj[u]) - 1])

    for idx, rows in enumerate(columns_rows):
        add_edge(0, idx + 1, inf if idx == anchor else 1)
        for row in rows:
            add_edge(idx + 1, row_node[row], inf)
    for row in used_rows:
        add_edge(row_node[row], sink, k)

    return _max_flow(adj, 0, sink) - n - k * rank


def min_slack(cm: ConstraintMatrix, subset: Sequence[int], cond: CountCondition) -> int:
    """Exact minimum of k*rows(S) - |S| - k*r over nonempty S within the subset."""
    if not subset:
        raise ValueError("subset must be non-empty")
    columns_rows = [cm.columns[i] for i in subset]
    return min(
        _anchored_slack(columns_rows, anchor, cond.k, cond.r)
        for anchor in range(len(columns_rows))
    )


def min_slack_exhaustive(cm: ConstraintMatrix, subset: Sequence[int], cond: CountCondition) -> int:
    """Enumeration oracle for min_slack; limited to 22 columns by design."""
    if not subset:
        raise ValueError("subset must be non-empty")
    n = len(subset)
    if n > 22:
        raise ValueError("exhaustive oracle limited to 22 columns")
    masks = [cm.row_mask(i) for i in subset]
    k, r = cond.k, cond.r
    union = [0] * (1 << n)
    best = None
    for s in range(1, 1 << n):
        low = s & -s
        union[s] = union[s ^ low] | masks[low.bit_length() - 1]
        value = k * union[s].bit_count() - s.bit_count() - k * r
        if best is None or value < best:
            best = value
    return best


def validate_witness(cm: ConstraintMatrix, witness: Sequence[int], cond: CountCondition) -> bool:
    """Independent re-check of a witness: origin-distinct and nonnegative slack.

    Uses the enumeration oracle whenever the witness is small enough to afford
    it, the min-cut checker otherwise.
    """
    origins = [cm.origins[i] for i in witness]
    if len(set(origins)) != len(origins):
        return False
    if not witness:
        return True
    if len(witness) <= 12:
        return min_slack_exhaustive(cm, witness, cond) >= 0
    return min_slack(cm, witness, cond) >= 0


def _addable(cm: ConstraintMatrix, members_rows: list, candidate: int, cond: CountCondition) -> bool:
    trial = members_rows + [cm.columns[candidate]]
    return _anchored_slack(trial, len(trial) - 1, cond.k, cond.r) >= 0


def _max_rainbow_witnesses(
    cm: ConstraintMatrix, parts: Sequence[tuple[CountCondition, int]]
) -> tuple[tuple[int, ...], ...] | None:
    """Origin-distinct witnesses, one per (condition, size) part, or None if none exist.

    Matroid intersection over one copy of the constraint columns per part.
    The first matroid is the direct sum of the parts' count matroids (a
    copy's independence sees only that copy's members); the second is the
    origin partition matroid, capacity 1 per origin across all copies.  Each
    part's size caps its count matroid's rank, so a common independent set of
    the total size exists iff every copy can hold its full witness.

    Augmenting paths over the exchange digraph: a path starts at an outside
    element its copy's count matroid accepts, hops to the member blocking its
    origin, hops out to any element of the member's own copy accepted in the
    member's place, and so on until it reaches an element with an unused
    origin; flipping the path grows the set by one.  An element of another
    copy accepted in the member's place would already be a start, so
    exchanges stay within a copy, and a copy already holding its size starts
    no path.  Shortest paths (multi-source BFS) keep every intermediate set
    common independent.  Deterministic: copies in order, columns in
    canonical order within a copy.
    """
    n = len(cm)
    conds = [cond for cond, _ in parts]
    caps = [cap for _, cap in parts]
    total = sum(caps)
    # element e is column e % n in copy e // n
    in_set = [False] * (n * len(parts))
    members: list[list[int]] = [[] for _ in parts]

    def rows_excluding(p: int, skip: int | None = None) -> list:
        return [cm.columns[c] for c in members[p] if c != skip]

    # greedy seed: each copy in canonical order until it holds its size
    used_origins: set[int] = set()
    for p, cond in enumerate(conds):
        for c in range(n):
            if len(members[p]) == caps[p]:
                break
            if cm.origins[c] in used_origins:
                continue
            if _addable(cm, rows_excluding(p), c, cond):
                members[p].append(c)
                in_set[p * n + c] = True
                used_origins.add(cm.origins[c])

    while sum(map(len, members)) < total:
        outside = [[p * n + c for c in range(n) if not in_set[p * n + c]] for p in range(len(parts))]
        origin_member = {cm.origins[c]: p * n + c for p in range(len(parts)) for c in members[p]}
        sources: list[int] = []
        for p, cond in enumerate(conds):
            if len(members[p]) < caps[p]:
                base_rows = rows_excluding(p)
                sources.extend(y for y in outside[p] if _addable(cm, base_rows, y % n, cond))
        if not sources:
            return None
        sinks = {y for copy in outside for y in copy if cm.origins[y % n] not in origin_member}

        parent: dict[int, int | None] = {}
        queue: deque[int] = deque()
        goal = None
        for y in sources:
            parent[y] = None
            if y in sinks:
                goal = y
                break
            queue.append(y)
        while goal is None and queue:
            node = queue.popleft()
            p, col = divmod(node, n)
            if not in_set[node]:
                # outside element: its origin is blocked by exactly one member
                blocker = origin_member[cm.origins[col]]
                if blocker not in parent:
                    parent[blocker] = node
                    queue.append(blocker)
            else:
                # member: its copy's count matroid accepts these replacements
                rows = rows_excluding(p, skip=col)
                for y in outside[p]:
                    if y in parent:
                        continue
                    if _addable(cm, rows, y % n, conds[p]):
                        parent[y] = node
                        if y in sinks:
                            goal = y
                            break
                        queue.append(y)
        if goal is None:
            return None
        # flip the path: outside elements enter, members leave
        node = goal
        while node is not None:
            in_set[node] = not in_set[node]
            node = parent[node]
        members = [[c for c in range(n) if in_set[p * n + c]] for p in range(len(parts))]

    return tuple(map(tuple, members))


def find_finite_certificate(cm: ConstraintMatrix, r: int) -> Certificate:
    """Search for an origin-distinct witness of r*(d-r) columns passing the k=r condition.

    Decided exactly by matroid intersection, so the verdict is always Finite
    or Refuted.
    """
    if r != cm.r:
        raise ValueError("constraint matrix was built with a different rank")
    target = r * (cm.d - r)
    if target <= 0:
        return Certificate(Verdict.FINITE, r, finite_witness=())
    groups = cm.origin_groups()
    if len(groups) < target:
        return Certificate(
            Verdict.REFUTED,
            r,
            refutation={
                "kind": "insufficient_origins",
                "available": len(groups),
                "required": target,
            },
            note="fewer source columns with constraint columns than the witness needs",
        )
    cond = CountCondition.finite(r)
    found = _max_rainbow_witnesses(cm, ((cond, target),))
    if found is None:
        return Certificate(
            Verdict.REFUTED,
            r,
            refutation={"kind": "no_witness", "required": target},
            note="matroid intersection proves no witness of the required size exists",
        )
    (witness,) = found
    if not validate_witness(cm, witness, cond):
        raise RuntimeError("internal error: witness failed independent validation")
    return Certificate(Verdict.FINITE, r, finite_witness=witness)


def find_unique_certificate(cm: ConstraintMatrix, r: int) -> Certificate:
    """Search for two origin-disjoint witnesses: r*(d-r) columns at k=r plus d-r at k=1.

    Decided exactly by one matroid intersection over two copies of the
    columns (see `_max_rainbow_witnesses`), so the verdict is always Unique
    or Refuted.
    """
    if r != cm.r:
        raise ValueError("constraint matrix was built with a different rank")
    target_main = r * (cm.d - r)
    target_side = cm.d - r
    if target_main <= 0:
        return Certificate(Verdict.UNIQUE, r, finite_witness=(), unique_witness=())
    groups = cm.origin_groups()
    required = target_main + target_side
    if len(groups) < required:
        return Certificate(
            Verdict.REFUTED,
            r,
            refutation={
                "kind": "insufficient_origins",
                "available": len(groups),
                "required": required,
            },
            note="fewer source columns with constraint columns than the two witnesses need",
        )
    cond_main = CountCondition.finite(r)
    cond_side = CountCondition.unique(r)
    found = _max_rainbow_witnesses(cm, ((cond_main, target_main), (cond_side, target_side)))
    if found is None:
        return Certificate(
            Verdict.REFUTED,
            r,
            refutation={"kind": "no_witness", "required": required},
            note="matroid intersection proves no origin-disjoint witness pair exists",
        )
    main, side = found
    if not validate_witness(cm, main, cond_main) or not validate_witness(cm, side, cond_side):
        raise RuntimeError("internal error: witness failed independent validation")
    return Certificate(Verdict.UNIQUE, r, finite_witness=main, unique_witness=side)
