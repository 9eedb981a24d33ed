"""The Lambda-deck, the N-matrix and the edge-labelled poset of induced subgraphs.

Lambda(G) is the set of isomorphism types of induced subgraphs of G with at
least one edge, ordered by non-decreasing vertex count with ties broken by
(edge count, canonical code).  N[i][j] counts induced copies of type j inside
type i.  The edge-labelled poset (ELP) is the Hasse diagram of Lambda(G) under
the induced-subgraph order, each cover edge labelled with its multiplicity;
matrix and poset determine each other.

N depends on G's type alone, so it is tallied over the subset lattice of G's
canonical form F = `code_graph(canonical_code(G))`, from the codes of
`isotype.subset_table(F)`.  Type i occurs as F[s] for its first mask s, so
N[i][j] is the number of vertex subsets of F[s] inducing type j.  Those
subsets are the submasks t of s, and F[s] restricted to t is F[t], whose code
the table already holds: row i adds one to column j for each submask of s
with code j.  Submasks have at most v_i vertices and only s itself has v_i,
which gives the zeros above order v_i and the 1 on the diagonal.

The form costs one more canonical descent, of G itself, and saves many.  Two
vertex subsets induce equal labelled bits, and so share one entry of
`isotype`'s cache of labelled graphs, when an automorphism maps one onto the
other keeping the order of its vertices.  F lists the vertices of each
refinement cell next to each other, so such maps are common in F and rare
under a random labelling of G, where the subsets of one orbit of Aut(G) are
mostly descended one by one.

Back from an unlabelled matrix, `_poset` walks the covers once: each row, by
subrow count, takes its highest remaining subrow as a cover, checks that the
cover's subrows lie under it and drops them.  By induction on the subrow count
this checks transitivity, and a transitive antisymmetric order is acyclic.

Back from a poset, `nmatrix_from_elp` fills the matrix by Kelly's lemma, the
one place it is computed: N[i][j] (v_i - v_j) = sum over the covers k of i of
N[i][k] N[k][j].  `nrecon` validates a matrix by comparing it with this fill.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain, permutations, product, repeat
from math import comb
from operator import itemgetter

from .combi import json_int
from .errors import DomainError, InvalidMatrixError
from .graphcore import Graph, parse_graph6, write_graph6
from .isotype import IsoClass, canonical_code, code_graph, induced_type_table, subset_table

__all__ = [
    "VERTEX_LIMIT",
    "LambdaDeck",
    "NMatrix",
    "Elp",
    "lambda_deck",
    "nmatrix",
    "strip",
    "infer_v_e",
    "elp_from_nmatrix",
    "nmatrix_from_elp",
    "child_nmatrices",
    "count_empty_induced",
    "elp_automorphisms",
    "canonical_nmatrix",
    "nmatrix_to_json",
    "nmatrix_from_json",
    "elp_to_json",
    "elp_from_json",
]

# The most vertices of a graph read from outside input: `cli` refuses a larger
# graph for `build` and `recon --source direct|vertexdeck`, and `nmatrix_from_json`
# a matrix of larger order.  The work on it grows at least as 2^n, so it is
# refused before it starts.
VERTEX_LIMIT = 10


@dataclass(frozen=True)
class LambdaDeck:
    """Ordered isomorphism types Lambda_1..Lambda_I of nonempty induced subgraphs."""

    classes: tuple

    def __len__(self):
        return len(self.classes)


@dataclass(frozen=True)
class NMatrix:
    """Incidence matrix of induced-subgraph multiplicities; labels optional."""

    rows: tuple
    labels: LambdaDeck | None = None

    @property
    def size(self) -> int:
        return len(self.rows)


@dataclass(frozen=True)
class Elp:
    """Edge-labelled ranked poset: per-node ranks plus (lower, upper, label) covers."""

    ranks: tuple
    covers: tuple

    @property
    def size(self) -> int:
        return len(self.ranks)


def lambda_deck(g: Graph) -> LambdaDeck:
    """All induced-subgraph types of g with e >= 1, in the canonical row order."""
    if g.e == 0:
        raise DomainError("graph has no nonempty induced subgraphs")
    classes = [c for k in range(2, g.n + 1) for c in map(IsoClass, induced_type_table(g, k))
               if c.e >= 1]
    return LambdaDeck(tuple(sorted(classes, key=IsoClass.sort_key)))


def nmatrix(g: Graph) -> NMatrix:
    """The labelled N-matrix of g, tallied over the submasks of each row's first
    mask in g's canonical form (the module docstring says why that form).  An
    edgeless g is refused by `lambda_deck` before any canonical work."""
    if g.e:
        g = code_graph(canonical_code(g))
    deck = lambda_deck(g)
    table = subset_table(g)
    codes = table.codes
    index = {c.code: j for j, c in enumerate(deck.classes)}
    rows = []
    for ci in deck.classes:
        row = [0] * len(index)
        s = t = table.first[ci.code]
        while t:
            j = index.get(codes[t])
            if j is not None:
                row[j] += 1
            t = (t - 1) & s
        rows.append(tuple(row))
    return NMatrix(tuple(rows), deck)


def strip(nm: NMatrix) -> NMatrix:
    """Forget the indexing graphs; entries are unchanged."""
    return NMatrix(nm.rows, None)


_DIGITS = bytes.maketrans(b"\0\1", b"01")  # a nonzero pattern's bytes to binary digits


def _flatten(rows, perm) -> tuple:
    """The entries rows[a][b] of the square matrix rows, for a and then b in perm."""
    if len(perm) == 1:  # itemgetter of one index returns the item, not a tuple
        return (rows[perm[0]][perm[0]],)
    pick = itemgetter(*perm)
    return tuple(chain.from_iterable(map(pick, pick(rows))))


def _poset(nm: NMatrix) -> tuple:
    """Each row's (v, e), and (j, i, N[i][j]) for each j covered by i, of a valid matrix.

    With the rows relabelled by increasing subrow count and each row's
    subrows packed into an int, the highest bit of any set of rows is a row
    with the most subrows.  Each row p, in that order, takes its highest
    remaining subrow c as a cover, checks that c's subrows are p's and drops
    them all.  By induction on the subrow count this checks transitivity on
    the covers alone: a c that passes has fewer subrows than p, as no two rows
    contain each other, so c's subrows were found closed.  A dropped row lies
    under c; a row strictly between c and p has more subrows than c and stays
    until c is taken; so every row taken is a cover.  A transitive
    antisymmetric order is acyclic, so that needs no check.  v is 2 for the K2
    row and 1 + the common rank of the covers; e is the entry in the K2 column.
    """
    rows = nm.rows
    size = len(rows)
    if size == 0:
        raise InvalidMatrixError("empty matrix")
    if any(len(row) != size for row in rows):
        raise InvalidMatrixError("matrix is not square")
    if min(map(min, rows)) < 0:
        raise InvalidMatrixError("negative entry")
    for i in range(size):
        if rows[i][i] != 1:
            raise InvalidMatrixError(f"diagonal entry at {i} is not 1")
    counts = [size - row.count(0) for row in rows]
    singles = counts.count(1)
    if singles != 1:
        raise InvalidMatrixError(f"expected exactly one K2 row, found {singles}")
    order = sorted(range(size), key=counts.__getitem__)
    flat = bytes(map(bool, _flatten(rows, order))).translate(_DIGITS)
    down = [int(flat[p * size:p * size + size][::-1], 2) for p in range(size)]
    up = [int(flat[p::size][::-1], 2) for p in range(size)]
    for p in range(size):
        if down[p] & up[p] & ~(1 << p):
            raise InvalidMatrixError(f"row {order[p]} and a row under it contain each other")
    lacking = ~up[0] & ((1 << size) - 1)
    if lacking:
        raise InvalidMatrixError(f"row {order[lacking.bit_length() - 1]} contains no K2")
    rank = [2] * size
    covers = []
    for p in range(1, size):
        d, i = down[p], order[p]
        rem = d & ~(1 << p)
        below = []
        while rem:
            c = rem.bit_length() - 1
            missing = down[c] & ~d
            if missing:
                raise InvalidMatrixError(f"containment not transitive at rows {i},"
                                         f"{order[c]},{order[missing.bit_length() - 1]}")
            below.append(order[c])
            rem &= ~down[c]
        ranks = sorted({rank[j] for j in below})
        if len(ranks) > 1:
            raise InvalidMatrixError(f"no graded rank function: row {i} covers "
                                     f"rows of ranks {ranks}")
        rank[i] = 1 + ranks[0]
        covers += [(j, i, rows[i][j]) for j in below]
    ve = tuple(zip(rank, (row[order[0]] for row in rows)))
    for i, (v, e) in enumerate(ve):
        if e > comb(v, 2):
            raise InvalidMatrixError(f"row {i} has {e} edges on {v} vertices")
    return ve, covers


def infer_v_e(nm: NMatrix) -> tuple:
    """(v, e) for every row of a valid unlabelled N-matrix: the rank, with the K2 row at 2,
    and the entry in the K2 column."""
    return _poset(nm)[0]


def _top_row(nm: NMatrix) -> int:
    tops = [i for i in range(nm.size) if all(nm.rows[i])]
    if len(tops) != 1:
        raise InvalidMatrixError(f"expected a unique maximal row, found {len(tops)}")
    return tops[0]


def elp_from_nmatrix(nm: NMatrix) -> Elp:
    """Hasse diagram of the containment order with multiplicity labels."""
    ve, covers = _poset(nm)
    return Elp(tuple(v for v, _e in ve), tuple(sorted(covers)))


def nmatrix_from_elp(elp: Elp) -> NMatrix:
    """Rebuild the full matrix from cover labels, filling rank by rank.

    Kelly's lemma: a copy of j inside i lies in rank(i) - rank(j) of the
    subgraphs of i one vertex smaller, the rows that i covers.  So row i is
    the sum, over its covers k, of label(k, i) times row k, divided entry by
    entry by the rank gap; a remainder refuses the poset.  The rows are
    carried as their nonzero entries, and each cover k gets label(k, i) from
    the 1 on k's own diagonal.
    """
    size, ranks = elp.size, elp.ranks
    up = [[] for _ in ranks]
    for (j, i, lab) in elp.covers:
        if ranks[i] != ranks[j] + 1:
            raise InvalidMatrixError("cover edge does not step one rank")
        up[i].append((j, lab))
    filled = [None] * size  # row i as {j: N[i][j]} over its nonzero entries
    for i in sorted(range(size), key=ranks.__getitem__):
        total = {}
        for k, lab in up[i]:
            for j, x in filled[k].items():
                total[j] = total.get(j, 0) + lab * x
        row = filled[i] = {i: 1}
        for j, x in total.items():
            row[j], r = divmod(x, ranks[i] - ranks[j])
            if r:
                raise InvalidMatrixError(f"poset fill at ({i},{j}) is not an integer")
    return NMatrix(tuple(tuple(map(row.get, range(size), repeat(0))) for row in filled), None)


def child_nmatrices(nm: NMatrix) -> list:
    """The multiset {N(G-u) : e(G-u) > 0} recovered from N(G) alone.

    A row j is a vertex-deleted subgraph iff no row other than the top
    contains it, that is iff the top covers j; its matrix is the principal
    submatrix on the rows it contains, taken with multiplicity N[top][j].
    Children with equal canonical matrices are merged and their
    multiplicities added.
    """
    _ve, covers = _poset(nm)
    top = _top_row(nm)
    rows = nm.rows
    merged = {}
    for j, i, mult in covers:
        if i != top:
            continue
        keep = [k for k, x in enumerate(rows[j]) if x]
        canon = canonical_nmatrix(
            NMatrix(tuple(tuple(rows[a][b] for b in keep) for a in keep), None))
        total = merged.get(canon.rows, (canon, 0))[1]
        merged[canon.rows] = (canon, total + mult)
    return [pair for _key, pair in sorted(merged.items())]


def count_empty_induced(nm: NMatrix, r: int) -> int:
    """Number of r-vertex independent sets in the graph behind the matrix."""
    ve = infer_v_e(nm)
    top = _top_row(nm)
    v_top = ve[top][0]
    if not (2 <= r <= v_top):
        raise DomainError(f"r={r} outside [2, {v_top}]")
    return comb(v_top, r) - sum(nm.rows[top][j] for j in range(nm.size)
                                if ve[j][0] == r)


# ---------------------------------------------------------------------------
# Canonical form and automorphisms of the unlabelled matrix
# ---------------------------------------------------------------------------

def _stable_cells(nm: NMatrix, ve) -> list:
    """Partition rows into cells closed under signature refinement.

    Signatures start from (v, e) and absorb, per round, the multiset of
    (cell, entry) pairs in both the row and the column of each node.  Cell
    ids are assigned in sorted signature order, so the final cell order is
    invariant under admissible permutations.  A discrete partition is
    final: each signature leads with the row's own cell id, so a further
    round would keep its order.  For the same reason a row alone in its
    cell takes its id alone as its signature; cells only split, so only the
    rows that share a cell in the first round get their entries listed.
    """
    size = nm.size
    ids = _intern(ve)
    below = above = None
    while max(ids) + 1 < size:
        shared = Counter(ids)
        if below is None:
            cols = list(zip(*nm.rows))
            below, above = [None] * size, [None] * size
            for i in range(size):
                if shared[ids[i]] > 1:
                    below[i] = [(j, x) for j, x in enumerate(nm.rows[i]) if x and j != i]
                    above[i] = [(j, x) for j, x in enumerate(cols[i]) if x and j != i]
        new = _intern([(ids[i], tuple(sorted((ids[j], x) for j, x in below[i])),
                        tuple(sorted((ids[j], x) for j, x in above[i])))
                       if shared[ids[i]] > 1 else (ids[i],) for i in range(size)])
        if max(new) == max(ids):
            break
        ids = new
    cells = [[] for _ in range(max(ids) + 1)]
    for i, c in enumerate(ids):
        cells[c].append(i)
    return cells


def _intern(sigs: list) -> list:
    """Each signature's index among the distinct signatures, sorted."""
    lookup = {s: k for k, s in enumerate(sorted(set(sigs)))}
    return [lookup[s] for s in sigs]


def _orderings(nm: NMatrix):
    """Every admissible row ordering, paired with the matrix it flattens to.

    An ordering lists the `_stable_cells` in turn, each cell in some order.
    No automorphism is lost by this restriction: an automorphism keeps every
    refinement signature, so it maps each cell onto itself.  The first
    ordering lists every cell in increasing row order.
    """
    rows = nm.rows
    cells = _stable_cells(nm, infer_v_e(nm))
    for parts in product(*(permutations(cell) for cell in cells)):
        perm = tuple(chain.from_iterable(parts))
        yield perm, _flatten(rows, perm)


def canonical_nmatrix(nm: NMatrix) -> NMatrix:
    """Canonical representative under admissible simultaneous row/column orderings.

    Equal canonical matrices correspond exactly to isomorphic edge-labelled
    posets.  The ordering respects non-decreasing (v, e); remaining freedom is
    resolved by minimising the flattened matrix.
    """
    flat = min(flat for _perm, flat in _orderings(nm))
    size = nm.size
    return NMatrix(tuple(flat[p:p + size] for p in range(0, size * size, size)), None)


def elp_automorphisms(elp: Elp) -> list:
    """All nontrivial label-preserving poset automorphisms, in lexicographic order.

    A bijection of nodes preserves the edge-labelled poset iff it preserves
    every entry of the reconstructed matrix.  It then keeps the refinement
    cells, so it maps the first admissible ordering onto another one that
    flattens to the same matrix.  Each automorphism sigma is given as the
    tuple (sigma(0), ..., sigma(n-1)).
    """
    orderings = _orderings(nmatrix_from_elp(elp))
    base, fixed = next(orderings)
    found = []
    for perm, flat in orderings:
        if flat == fixed:
            sigma = dict(zip(base, perm))
            found.append(tuple(sigma[i] for i in range(len(base))))
    return sorted(found)


# ---------------------------------------------------------------------------
# JSON wire formats
# ---------------------------------------------------------------------------

def nmatrix_to_json(nm: NMatrix) -> dict:
    out = {
        "size": nm.size,
        "rows": [list(r) for r in nm.rows],
        "ve": [list(p) for p in infer_v_e(nm)],
    }
    if nm.labels is not None:
        out["labels"] = [write_graph6(c.rep) for c in nm.labels.classes]
    return out


def nmatrix_from_json(d: dict) -> NMatrix:
    """Matrix JSON with integer entries and optional graph6 labels.

    More rows than a graph of VERTEX_LIMIT vertices has types are refused
    before any entry is read, and rows that imply more than VERTEX_LIMIT
    vertices before any work grows with their order.  Each label is checked by
    its row's (v, e) before any is canonicalised; then the labels must be
    exactly the types of the top label's own matrix, with its entries.
    """
    try:
        size = len(d["rows"])
        if size > 2 ** VERTEX_LIMIT:
            raise InvalidMatrixError(f"{size} matrix rows is over the limit of {2 ** VERTEX_LIMIT}")
        rows = tuple(tuple(json_int(x) for x in r) for r in d["rows"])
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidMatrixError(f"bad matrix JSON: {exc}") from exc
    nm = NMatrix(rows)
    ve = infer_v_e(nm)
    order = max(v for v, _e in ve)
    if order > VERTEX_LIMIT:
        raise InvalidMatrixError(f"a matrix of order {order} is over the limit of "
                                 f"{VERTEX_LIMIT} vertices")
    if "labels" not in d:
        return nm
    texts = d["labels"]
    if not isinstance(texts, list) or len(texts) != len(rows) or \
            not all(isinstance(s, str) for s in texts):
        raise InvalidMatrixError(f"matrix JSON needs one label per row ({len(rows)}), "
                                 "each a graph6 string")
    graphs = [parse_graph6(s) for s in texts]
    for i, (g, want) in enumerate(zip(graphs, ve)):
        if (g.n, g.e) != want:
            raise InvalidMatrixError(f"label {i} has (v, e) = {(g.n, g.e)}, "
                                     f"but its row has {want}")
    codes = [canonical_code(g) for g in graphs]
    ref = nmatrix(graphs[_top_row(nm)])
    pos = {c.code: j for j, c in enumerate(ref.labels.classes)}
    if sorted(codes) != sorted(pos) or any(
            rows[i][k] != ref.rows[pos[a]][pos[b]]
            for i, a in enumerate(codes) for k, b in enumerate(codes)):
        raise InvalidMatrixError("the labels are not the induced-subgraph types of the "
                                 "top label, or the entries are not their counts")
    return NMatrix(rows, LambdaDeck(tuple(map(IsoClass, codes))))


def elp_to_json(elp: Elp) -> dict:
    return {
        "nodes": [{"rank": r} for r in elp.ranks],
        "covers": [{"from": j, "to": i, "label": lab} for (j, i, lab) in elp.covers],
    }


# t_r, the types on r vertices with an edge, for r = 2..6.  From r = 7 on,
# C(n, r) is the smaller bound for every n up to VERTEX_LIMIT.
_TYPES_WITH_AN_EDGE = {2: 1, 3: 3, 4: 10, 5: 33, 6: 155}


def _check_rank_profile(ranks) -> None:
    """Refuse node ranks that no graph's poset has.

    The poset of a graph on n vertices has its ranks in 2..n, and at most
    min(C(n, r), t_r) nodes of rank r: one per r-set and one per type.  So
    it has one node of rank 2, K2, as t_2 = 1, and one of rank n, its top.
    """
    count = Counter(ranks)
    low, n = min(count, default=0), max(count, default=0)
    if low != 2 or n > VERTEX_LIMIT:
        raise InvalidMatrixError(f"a graph's poset has ranks 2..n, n <= {VERTEX_LIMIT}, "
                                 f"not {low}..{n}")
    for r, k in count.items():
        most = min(comb(n, r), _TYPES_WITH_AN_EDGE.get(r, comb(n, r)))
        if k > most:
            raise InvalidMatrixError(f"{k} nodes of rank {r} is more than the {most} "
                                     f"a graph on {n} vertices can have")


def elp_from_json(d: dict) -> Elp:
    """Poset JSON with integer ranks and (from, to, label) covers.

    More nodes than a graph of VERTEX_LIMIT vertices has types are refused
    before any node is read, and a rank profile no graph's poset has before
    any cover is: `nmatrix_from_elp` grows as the square of the node count in
    memory and up to its cube in time.
    """
    try:
        size = len(d["nodes"])
        if size > 2 ** VERTEX_LIMIT:
            raise InvalidMatrixError(f"{size} poset nodes is over the limit of {2 ** VERTEX_LIMIT}")
        ranks = tuple(json_int(nd["rank"]) for nd in d["nodes"])
        _check_rank_profile(ranks)
        covers = tuple(sorted((json_int(c["from"]), json_int(c["to"]), json_int(c["label"]))
                              for c in d["covers"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidMatrixError(f"bad poset JSON: {exc}") from exc
    for (j, i, lab) in covers:
        if not (0 <= j < len(ranks) and 0 <= i < len(ranks)) or lab < 1:
            raise InvalidMatrixError(f"poset JSON cover ({j}, {i}, {lab}) needs two "
                                     f"of the {len(ranks)} nodes and a label of at least 1")
    # covers are sorted, so a repeated (from, to) pair lies next to its twin
    for (j, i, lab), (j2, i2, lab2) in zip(covers, covers[1:]):
        if (j, i) == (j2, i2):
            raise InvalidMatrixError(f"poset JSON covers ({j}, {i}) twice, "
                                     f"with labels {lab} and {lab2}")
    return Elp(ranks, covers)
