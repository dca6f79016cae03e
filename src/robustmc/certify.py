"""Subset-count certificates for finite and unique completability of a pattern.

The central predicate on a set T of constraint columns: for every nonempty
subset S of T,

    k * rows(S) >= |S| + k * r

where rows(S) counts rows touched by at least one column of S, k = r for the
finite-completability condition and k = 1 for the unique-completability one
(the division by r in the finite condition is cleared to keep arithmetic
exact).  `min_slack` returns the minimum of k*rows(S) - |S| - k*r over all
nonempty subsets; the predicate holds iff it is >= 0.

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

The certificates are sufficient conditions for finite and unique
completability, so Refuted means "not certified".  At r=1 the fully observed
4x5 matrix is uniquely completable, but its 5 origins cannot host a witness
pair of 3 + 3 columns; a 3x4 pattern with column 0 full and columns 1-3
observing only row 0 is finitely completable, but only one origin carries
constraint columns.  A Finite verdict also presumes every data column has
at least r observed cells (see `find_finite_certificate`).

The intersection asks the count matroid through the (k, k*r) pebble game on
the rows, kept incrementally as columns enter and leave; a failed pebble
search also yields the column's fundamental circuit.  A row's free pebbles
are read from the members it covers, as the validator's row loads are from
the columns routed into it: no count is kept beside them.  A search can bar
data columns (`barred`), deciding the matrix without their constraint
columns, which is never built.  It can start warm from another certificate
found on the same matrix (`warm_from`), which carries that matrix (`cm`)
and each witness column's tail row: the witness columns outside the barred
data columns enter the games pinned on those rows.  That is a valid pebble
state: the pebble game's proofs use only that the members are
(k, k*r)-sparse and each is covered from one of its own rows, at most k per
row, which a witness's pebble state satisfies and which dropping members
keeps (Streinu & Theran, 2009).  The pinned columns are also
origin-distinct, so they are a common independent set, from which
augmenting-path intersection is exact (Cunningham, 1986); warm and cold
searches give the same verdict, though not always the same witness.

The greedy seed that fills each copy before any augmenting path skips
columns it can reject unsearched.  A failed search reaches a tight row set
R: the members it spans number exactly k*|R| - k*r.  Members only join
during the seed, so R stays tight, and two kept sets sharing at least r
rows are merged, their union being tight too.  A later column whose rows
lie in a kept set is dependent.  The seed still takes exactly the
independent columns, in canonical order, so verdicts and witnesses are
unchanged; only the tail rows may differ, and any of them is a valid pebble
state.  Augmenting paths remove members, so they search every column.  A
column the seed accepts is covered from one of its rows with a free pebble,
as `_PebbleGame.add` would after gathering them again.

Every found witness is re-checked by `validate_witness`, which shares no
code with the game: `min_slack`'s exact project-selection min-cut
(selecting a column earns 1, every covered row costs k, and S's last
column is forced in to exclude the empty set), one max-flow grown over the
witness's prefixes.  A warm search's witness is re-checked against the
witness `warm_from` validated under the same condition: the predicate is
hereditary (every subset of a (k, k*r)-sparse set is sparse) and slack
depends only on row supports, so the columns whose rows match that
witness's, as a multiset, are routed first and only the others end an S
of the scan.  The min-cut's reference in the tests, an enumeration of
every subset of up to 22 columns, lives in `tests/oracles.py`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
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
    # the matrix the witness indices refer to: origins and rows are read from it
    cm: ConstraintMatrix | None = field(default=None, repr=False, compare=False)
    # per witness, each column's tail row when the search ended, for `warm_from`
    _tails: tuple[tuple[int, ...], ...] | None = field(default=None, repr=False, compare=False)

    def to_dict(self) -> dict:
        doc: dict = {"verdict": self.verdict.value, "rank": self.r, "note": self.note}
        if self.refutation is not None:
            doc["refutation"] = self.refutation
        for name, witness, cond in (
            ("finite_witness", self.finite_witness, CountCondition.finite(self.r)),
            ("unique_witness", self.unique_witness, CountCondition.unique(self.r)),
        ):
            if witness is None:
                continue
            if self.cm is None:
                raise ValueError("the certificate carries no constraint matrix for its witness columns")
            doc[name] = {
                "columns": [
                    {"column": i, "origin": self.cm.origins[i], "rows": list(self.cm.columns[i])}
                    for i in witness
                ],
                "min_slack": min_slack(self.cm, witness, cond) if witness else None,
            }
        return doc


def min_slack(cm: ConstraintMatrix, subset: Sequence[int], cond: CountCondition) -> int:
    """Exact minimum of k*rows(S) - |S| - k*r over nonempty S within the subset."""
    if not subset:
        raise ValueError("subset must be non-empty")
    _check_indices(cm, subset)
    return _prefix_scan(cm, subset, cond, None)


def _check_indices(cm: ConstraintMatrix, subset: Sequence[int]) -> None:
    """ValueError for a column index outside range(len(cm)), which would alias or raise IndexError."""
    if len(subset) and (min(subset) < 0 or max(subset) >= len(cm)):
        bad = [i for i in subset if not 0 <= i < len(cm)]
        raise ValueError(f"column indices outside range({len(cm)}): {bad[:4]}")


def _prefix_scan(
    cm: ConstraintMatrix, subset: Sequence[int], cond: CountCondition, floor: int | None, known: int = 0
) -> int:
    """`min_slack` by one max-flow grown over the subset's prefixes.

    The network source -> column (capacity 1) -> its r+1 rows -> sink
    (capacity k) has minimum cut n - |S| + k*rows(S) at the best S.  A flow
    routes each column into one of its rows, at most k per row; a path
    alternates column -> row and full row -> a column routed into it until it
    ends at a row below k.  Every unit goes through `push`, which routes it
    into the first of the source's rows below k, as the search's first level
    would, and searches only when there is none.  Each column in turn is the
    anchor, the last column of S: forced into S, its source edge is infinite,
    so from a max flow of the columns before it, it pushes until no path is
    left, and that flow plus its units, minus anchor+1 + k*r, is the minimum
    over the S ending at it.  A column the flow could not route never finds a
    path later (Kuhn's argument: paths from other sources open none for it).
    One column raises a max flow by at most 1, so giving back all but one of
    the anchor's units leaves a max flow for the next anchor.  With a floor,
    an anchor stops once its value reaches it, and the first value below it
    is returned.

    The first `known` columns are no anchors: they are routed one unit each,
    which gives a max flow of them (Kuhn's argument again), and only the S
    whose last column comes after them are scanned.  The caller vouches for
    the S inside that prefix.
    """
    k, n = cond.k, len(subset)
    columns = [cm.columns[i] for i in subset]
    routed: list[list[int]] = [[] for _ in range(cm.d)]  # columns by row routed into: its load

    def push(source: int) -> bool:
        """Route one more unit of the source along a shortest path, if there is one."""
        for row in columns[source]:  # a path of one edge, without a search
            if len(routed[row]) < k:
                routed[row].append(source)
                return True
        parent = [-2] * n  # the row a column was reached from; -1 at the source, -2 unreached
        parent[source] = -1
        reached = [-1] * cm.d  # the column a row was reached from
        queue = [source]
        for column in queue:
            for row in columns[column]:
                if reached[row] >= 0:
                    continue
                reached[row] = column
                if len(routed[row]) < k:
                    while (previous := parent[column]) >= 0:
                        routed[row].append(column)
                        routed[previous].remove(column)
                        row, column = previous, reached[previous]
                    routed[row].append(column)
                    return True
                for moved in routed[row]:
                    if parent[moved] == -2:
                        parent[moved] = row
                        queue.append(moved)
        return False

    flow = 0
    for column in range(known):  # one unit each: a max flow of the prefix
        flow += push(column)
    lowest = k  # every single column has value k - 1
    for anchor in range(known, n):
        value = start = flow - anchor - 1 - k * cond.r  # before the anchor's first unit
        while (floor is None or value < floor) and push(anchor):
            value += 1
        if floor is not None and value < floor:
            return value
        lowest = min(lowest, value)
        flow += value > start
        for row in columns[anchor]:  # give back all but one of its units
            while value > start + 1 and anchor in routed[row]:
                routed[row].remove(anchor)
                value -= 1
    return lowest


def validate_witness(
    cm: ConstraintMatrix,
    witness: Sequence[int],
    cond: CountCondition,
    validated: Sequence[tuple[int, ...]] = (),
) -> bool:
    """Independent re-check of a witness: origin-distinct and nonnegative slack.

    Every witness goes through the prefix-scan max-flow, which stops at the
    first negative slack; the tests' enumeration oracle is in `tests/oracles.py`.

    `validated` holds the row supports of a witness that passed this check
    under the same condition, in any matrix of the same d.  The predicate is
    hereditary and slack depends only on row supports, so a set of columns
    whose supports are a sub-multiset of those needs no check: the witness
    columns matched to them by rows, each support used at most once, lead the
    scan and are routed by a plain max flow, and only the others are anchors.
    Origins are checked on their own either way.
    """
    _check_indices(cm, witness)
    origins = [cm.origins[i] for i in witness]
    if len(set(origins)) != len(origins):
        return False
    unmatched: dict[tuple[int, ...], int] = {}
    for rows in validated:
        unmatched[rows] = unmatched.get(rows, 0) + 1
    known, added = [], []
    for i in witness:
        rows = cm.columns[i]
        if unmatched.get(rows):
            unmatched[rows] -= 1
            known.append(i)
        else:
            added.append(i)
    return _prefix_scan(cm, known + added, cond, 0, len(known)) >= 0


class _PebbleGame:
    """(k, k*r) pebble game on the rows: incremental independence in one count matroid.

    The count matroid's columns are hyperedges on their r+1 rows, and a set
    is independent iff it is (k, k*r)-sparse (Streinu & Theran, "Sparse
    hypergraphs and pebble game algorithms", 2009).  Every row holds k
    pebbles; each member column is covered by one pebble of a row in it, its
    tail, so a row's free pebbles, read and not stored, are k minus the members it covers.  Members
    are directed from their tail to their other rows.  The members plus a
    column stay independent iff k*r+1 pebbles can be gathered on its rows,
    moving free pebbles back along directed paths.
    """

    def __init__(self, cm: ConstraintMatrix, cond: CountCondition):
        self.columns = cm.columns
        self.k = cond.k
        self.need = cond.k * cond.r + 1
        self.covers: list[list[int]] = [[] for _ in range(cm.d)]  # members by tail row
        self.tail: dict[int, int] = {}

    def _gather(self, rows: tuple[int, ...]) -> set[int] | None:
        """Gather k*r+1 free pebbles on the rows; None on success, else the rows reached.

        Each round is a multi-source BFS from the rows along the members'
        directions that stops at a row outside them with a free pebble; the
        path is reversed, which moves that pebble onto the rows.  When a
        round finds none, the rows reached span a tight set: the members
        covered from them are the column's fundamental circuit.
        """
        k, covers, tail, columns = self.k, self.covers, self.tail, self.columns
        gathered = sum(k - len(covers[v]) for v in rows)
        while gathered < self.need:
            reached_by: dict[int, int | None] = dict.fromkeys(rows)
            queue = deque(rows)
            found = None
            while queue and found is None:
                for member in covers[queue.popleft()]:
                    for w in columns[member]:
                        if w not in reached_by:
                            reached_by[w] = member
                            if len(covers[w]) < k:
                                found = w
                                break
                            queue.append(w)
                    if found is not None:
                        break
            if found is None:
                return set(reached_by)
            row = found
            while (member := reached_by[row]) is not None:
                previous = tail[member]
                covers[previous].remove(member)
                covers[row].append(member)
                tail[member] = row
                row = previous
            gathered += 1
        return None

    def probe(self, column: int) -> frozenset[int] | None:
        """None when the members plus the column are independent, else its circuit.

        The circuit lists every member x for which the members minus x plus
        the column are independent.
        """
        reached = self._gather(self.columns[column])
        if reached is None:
            return None
        return frozenset(member for row in reached for member in self.covers[row])

    def add(self, column: int) -> None:
        if self._gather(self.columns[column]) is not None:
            raise RuntimeError("internal error: dependent column added to a pebble game")
        self.pin(column, next(v for v in self.columns[column] if len(self.covers[v]) < self.k))

    def pin(self, column: int, row: int) -> None:
        """Make the column a member covered from `row`, one of its rows, without a search.

        Sound only while the members stay (k, k*r)-sparse and no row covers
        more than k of them.
        """
        self.covers[row].append(column)
        self.tail[column] = row

    def remove(self, column: int) -> None:
        row = self.tail.pop(column)
        self.covers[row].remove(column)


def _max_rainbow_witnesses(
    cm: ConstraintMatrix,
    parts: Sequence[tuple[CountCondition, int]],
    pinned: Sequence[Sequence[tuple[int, int]]] = (),
    barred: frozenset[int] = frozenset(),
) -> tuple[dict[int, int], ...] | None:
    """Origin-distinct witnesses, one per (condition, size) part, each as its
    pebble game's {column: tail row}, or None if none exist.

    Matroid intersection over one copy of the constraint columns per part.
    The first matroid is the direct sum of the parts' count matroids (a
    copy's independence sees only that copy's members, kept in its own
    pebble game); the second is the origin partition matroid, capacity 1 per
    origin across all copies.  Each part's size caps its count matroid's
    rank, so a common independent set of the total size exists iff every
    copy can hold its full witness.

    Augmenting paths over the exchange digraph: a path starts at an outside
    element its copy's count matroid accepts, hops to the member blocking its
    origin, hops out to any element of the member's own copy accepted in the
    member's place, and so on until it reaches an element with an unused
    origin; flipping the path grows the set by one.  An outside element is
    accepted in member x's place iff it is independent or x lies in its
    fundamental circuit, so one pebble-game search per element gives all its
    exchange edges.  An element of another copy accepted in the member's
    place would already be a start, so exchanges stay within a copy, and a
    copy already holding its size starts no path.  Shortest paths
    (multi-source BFS) keep every intermediate set common independent.
    Deterministic: copies in order, columns in canonical order within a copy.

    `pinned` holds, per part, (column, tail row) pairs of a common
    independent set at most the part's size, each tail one of its column's
    rows and at most k per row; they enter the games as they are, before the
    greedy seed.  Augmentation is exact from any common independent set.
    Columns of a `barred` origin, none of them pinned, join no seed and no path.
    """
    n = len(cm)
    caps = [cap for _, cap in parts]
    total = sum(caps)
    games = [_PebbleGame(cm, cond) for cond, _ in parts]
    # element e is column e % n in copy e // n
    members = [game.tail for game in games]  # the games' own {member: tail row} maps
    origin_member: dict[int, int] = dict.fromkeys(barred, -1)  # each used origin's member, -1 if barred

    for p, start in enumerate(pinned):
        for c, row in start:
            games[p].pin(c, row)
            origin_member[cm.origins[c]] = p * n + c

    # greedy seed: each copy in canonical order until it holds its size.  A
    # rejected column's reached rows are tight, and stay tight while members
    # are only added, so a later column inside them is rejected unsearched
    for p, game in enumerate(games):
        tight: list[set[int]] = []
        for c in range(n):
            if len(members[p]) == caps[p]:
                break
            if cm.origins[c] in origin_member:
                continue
            rows = cm.columns[c]
            if any(t.issuperset(rows) for t in tight):
                continue
            reached = game._gather(rows)
            if reached is None:  # the pebbles are gathered: cover c as `add` would after its search
                game.pin(c, next(v for v in rows if len(game.covers[v]) < game.k))
                origin_member[cm.origins[c]] = p * n + c
                continue
            # tight X, Y sharing r or more rows have a tight union: the members
            # spanned by X or Y number at least m(X) + m(Y) - m(X & Y), which is
            # k|X| - kr + k|Y| - kr - (k|X & Y| - kr) = k|X | Y| - kr
            while joined := [t for t in tight if len(t & reached) >= cm.r]:
                tight = [t for t in tight if len(t & reached) < cm.r]
                reached.update(*joined)
            tight.append(reached)

    while sum(map(len, members)) < total:
        allowed = [c for c in range(n) if cm.origins[c] not in barred] if barred else range(n)
        outside = [[p * n + c for c in allowed if c not in members[p]] for p in range(len(parts))]
        circuits: dict[int, frozenset[int] | None] = {}

        def circuit(y: int) -> frozenset[int] | None:
            if y not in circuits:
                circuits[y] = games[y // n].probe(y % n)
            return circuits[y]

        sources: list[int] = []
        for p in range(len(parts)):
            if len(members[p]) < caps[p]:
                sources.extend(y for y in outside[p] if circuit(y) is None)
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
            if col not in members[p]:
                # outside element: its origin is blocked by exactly one member
                blocker = origin_member[cm.origins[col]]
                if blocker not in parent:
                    parent[blocker] = node
                    queue.append(blocker)
            else:
                # member: its copy's count matroid accepts these replacements
                for y in outside[p]:
                    if y in parent:
                        continue
                    blocking = circuit(y)
                    if blocking is None or col in blocking:
                        parent[y] = node
                        if y in sinks:
                            goal = y
                            break
                        queue.append(y)
        if goal is None:
            return None
        # flip the path: members leave before outside elements enter and take over their origins
        entering: list[int] = []
        node = goal
        while node is not None:
            p, col = divmod(node, n)
            if col in members[p]:
                games[p].remove(col)
            else:
                entering.append(node)
                origin_member[cm.origins[col]] = node
            node = parent[node]
        for node in entering:
            games[node // n].add(node % n)

    return tuple(members)


def _pinned(
    cm: ConstraintMatrix, warm_from: Certificate, positive: Verdict, barred: frozenset[int]
) -> list[list[tuple[int, int]]]:
    """Per witness of `warm_from`, a certificate found on `cm` itself, its
    columns of an origin outside `barred`, each with the tail row it had.

    Dropping members is a legal pebble-game move, so these columns keep
    distinct origins, stay (k, k*r)-sparse and stay covered from rows of
    their own, at most k per row: a pebble state of a common independent set.
    """
    if warm_from.verdict != positive:
        raise ValueError(
            f"warm_from is a {warm_from.verdict.value} certificate, not a {positive.value} one"
        )
    if warm_from.cm is not cm or warm_from._tails is None:
        raise ValueError("warm_from was not found on this constraint matrix")
    witnesses = (warm_from.finite_witness, warm_from.unique_witness)
    return [
        [(c, tail) for c, tail in zip(witness, tails) if cm.origins[c] not in barred]
        for witness, tails in zip(witnesses, warm_from._tails)
    ]


def witness_parts(r: int, d: int, unique: bool) -> list[tuple[CountCondition, int]]:
    """Each witness's condition and size: r*(d-r) columns at k=r, plus d-r more at k=1 if unique."""
    return [(CountCondition.finite(r), r * (d - r))] + [(CountCondition.unique(r), d - r)] * unique


def _certificate(
    cm: ConstraintMatrix, r: int, unique: bool, warm_from: Certificate | None, barred: frozenset[int]
) -> Certificate:
    """Origin-distinct witnesses, one per part of `witness_parts`, with no
    column of a `barred` origin.

    Decided exactly by one matroid intersection with one copy of the columns
    per witness (see `_max_rainbow_witnesses`), so the verdict is always
    positive or Refuted, warm or cold.
    """
    if r != cm.r:
        raise ValueError("constraint matrix was built with a different rank")
    positive = Verdict.UNIQUE if unique else Verdict.FINITE
    pinned = () if warm_from is None else _pinned(cm, warm_from, positive, barred)
    parts = witness_parts(r, cm.d, unique)
    required = sum(size for _, size in parts)
    available = len(set(cm.origins).difference(barred))
    if available < required:
        return Certificate(
            Verdict.REFUTED,
            r,
            refutation={"kind": "insufficient_origins", "available": available, "required": required},
            note=(
                "fewer source columns with constraint columns than the two witnesses need"
                if unique
                else "fewer source columns with constraint columns than the witness needs"
            ),
        )
    found = _max_rainbow_witnesses(cm, parts, pinned, barred)
    if found is None:
        return Certificate(
            Verdict.REFUTED,
            r,
            refutation={"kind": "no_witness", "required": required},
            note=(
                "matroid intersection proves no origin-disjoint witness pair exists"
                if unique
                else "matroid intersection proves no witness of the required size exists"
            ),
        )
    witnesses = [tuple(sorted(tails)) for tails in found]
    if barred and not barred.isdisjoint(cm.origins[c] for witness in witnesses for c in witness):
        raise RuntimeError("internal error: a witness column has a barred origin")
    # warm_from's witnesses passed this validation under the same conditions
    previous = ((), ()) if warm_from is None else (warm_from.finite_witness, warm_from.unique_witness)
    for witness, (cond, _), done in zip(witnesses, parts, previous):
        if not validate_witness(cm, witness, cond, [cm.columns[c] for c in done]):
            raise RuntimeError("internal error: witness failed independent validation")
    tail_rows = tuple(tuple(tails[c] for c in witness) for witness, tails in zip(witnesses, found))
    return Certificate(positive, r, *witnesses, cm=cm, _tails=tail_rows)


def find_finite_certificate(
    cm: ConstraintMatrix, r: int, warm_from: Certificate | None = None, barred: frozenset[int] = frozenset()
) -> Certificate:
    """Finite or Refuted: one origin-distinct witness of r*(d-r) columns at k=r.

    `barred`, a set of data columns, keeps their constraint columns out of the
    search, as if `cm` had none.  `warm_from`, a Finite certificate found on
    `cm` itself, starts the search from its witness columns outside `barred`.
    The verdict is that of a cold search.  Another kind, or a certificate
    found on any other matrix, even an equal one, raises ValueError.

    Precondition: every data column has at least r observed cells.  A column
    with fewer has infinitely many completions but adds no constraint
    columns, so the search cannot see it: a 3x3 pattern with two full
    columns and one empty column gets Finite at r=1.  `robust.verify_finite`
    refutes such patterns by its premise floor.
    """
    return _certificate(cm, r, False, warm_from, frozenset(barred))


def find_unique_certificate(
    cm: ConstraintMatrix, r: int, warm_from: Certificate | None = None, barred: frozenset[int] = frozenset()
) -> Certificate:
    """Unique or Refuted: origin-disjoint witnesses of r*(d-r) columns at k=r and d-r at k=1.

    `barred` and `warm_from`, a Unique certificate, are as for `find_finite_certificate`.
    """
    return _certificate(cm, r, True, warm_from, frozenset(barred))
