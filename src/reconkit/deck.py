"""The Lambda-deck, the N-matrix and the edge-labelled poset of induced subgraphs.

Lambda(G) is the set of isomorphism types of induced subgraphs of G with at
least one edge, ordered by non-decreasing vertex count with ties broken by
(edge count, canonical code).  N[i][j] counts induced copies of type j inside
type i.  The edge-labelled poset (ELP) is the Hasse diagram of Lambda(G) under
the induced-subgraph order, each cover edge labelled with its multiplicity;
matrix and poset determine each other.

N is tallied over the subset lattice of V(G), from the codes of
`isotype.subset_table(g)`.  Type i occurs as G[s] for its first mask s, so N[i][j]
is the number of vertex subsets of G[s] inducing type j.  Those subsets are
the submasks t of s, and G[s] restricted to t is G[t], whose code the table
already holds: row i adds one to column j for each submask of s with code j.
Submasks have at most v_i vertices and only s itself has v_i, which gives the
zeros above order v_i and the 1 on the diagonal.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, permutations, product
from math import comb

from .combi import exact_div, json_int
from .errors import DomainError, InvalidMatrixError
from .graphcore import Graph, parse_graph6, write_graph6
from .isotype import IsoClass, canonical_code, induced_type_table, subset_table

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
    """The labelled N-matrix of g, tallied over the submasks of each row's first mask."""
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


def _validate_shape(nm: NMatrix):
    size = nm.size
    if size == 0:
        raise InvalidMatrixError("empty matrix")
    for row in nm.rows:
        if len(row) != size:
            raise InvalidMatrixError("matrix is not square")
        if any(x < 0 for x in row):
            raise InvalidMatrixError("negative entry")
    for i in range(size):
        if nm.rows[i][i] != 1:
            raise InvalidMatrixError(f"diagonal entry at {i} is not 1")
    for i in range(size):
        for j in range(size):
            if i != j and nm.rows[i][j] and nm.rows[j][i]:
                raise InvalidMatrixError(f"rows {i} and {j} contain each other")


def _bits(mask: int):
    """The positions of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _containment(nm: NMatrix) -> tuple:
    """(down, up): bit j of down[i], and bit i of up[j], is set iff N[i][j] != 0."""
    down = [sum(1 << j for j, x in enumerate(row) if x) for row in nm.rows]
    up = [sum(1 << i for i, row in enumerate(nm.rows) if row[j]) for j in range(nm.size)]
    return down, up


def infer_v_e(nm: NMatrix) -> tuple:
    """Recover (v, e) for every row of a valid unlabelled N-matrix.

    e comes from the column of the unique single-nonzero row (the K2 row);
    v is the poset rank with the K2 row pinned at 2.
    """
    _validate_shape(nm)
    size = nm.size
    rows = nm.rows
    down, up = _containment(nm)
    singles = [i for i in range(size) if down[i].bit_count() == 1]
    if len(singles) != 1:
        raise InvalidMatrixError(f"expected exactly one K2 row, found {len(singles)}")
    k2 = singles[0]
    for i in range(size):
        if rows[i][k2] == 0:
            raise InvalidMatrixError(f"row {i} contains no K2")
    for i in range(size):
        for j in _bits(down[i]):
            missing = down[j] & ~down[i]
            if missing:
                raise InvalidMatrixError(
                    f"containment not transitive at rows {i},{j},{next(_bits(missing))}")
    # rank = 2 + longest chain from the K2 row
    rank = [None] * size
    for i in sorted(range(size), key=lambda i: down[i].bit_count()):
        preds = [rank[j] for j in _bits(down[i] & ~(1 << i))]
        if not preds:
            rank[i] = 2
        else:
            if None in preds:
                raise InvalidMatrixError("containment relation is not acyclic")
            rank[i] = 1 + max(preds)
    for (j, i, _lab) in _covers(nm, (down, up)):
        if rank[i] != rank[j] + 1:
            raise InvalidMatrixError(
                f"no graded rank function: cover {j}->{i} spans ranks {rank[j]}->{rank[i]}")
    ve = tuple((rank[i], rows[i][k2]) for i in range(size))
    for i, (v, e) in enumerate(ve):
        if e > comb(v, 2):
            raise InvalidMatrixError(f"row {i} has {e} edges on {v} vertices")
    return ve


def _covers(nm: NMatrix, masks=None) -> list:
    """(j, i, N[i][j]) for each j covered by i: no k but i and j has N[i][k] and N[k][j] nonzero."""
    down, up = masks or _containment(nm)
    out = []
    for i in range(nm.size):
        for j in _bits(down[i] & ~(1 << i)):
            if not down[i] & up[j] & ~(1 << i | 1 << j):
                out.append((j, i, nm.rows[i][j]))
    return out


def _top_row(nm: NMatrix) -> int:
    tops = [i for i in range(nm.size) if all(nm.rows[i])]
    if len(tops) != 1:
        raise InvalidMatrixError(f"expected a unique maximal row, found {len(tops)}")
    return tops[0]


def elp_from_nmatrix(nm: NMatrix) -> Elp:
    """Hasse diagram of the containment order with multiplicity labels."""
    ve = infer_v_e(nm)
    covers = sorted(_covers(nm))
    return Elp(tuple(v for v, _e in ve), tuple(covers))


def nmatrix_from_elp(elp: Elp) -> NMatrix:
    """Rebuild the full matrix from cover labels, filling rank by rank.

    Non-cover entries come from the transitive counting identity: summing
    (i over k)(k over j) across the rank directly under i counts each copy
    of j exactly rank(i) - rank(j) times.
    """
    size = elp.size
    ranks = elp.ranks
    up = {}
    for (j, i, lab) in elp.covers:
        if ranks[i] != ranks[j] + 1:
            raise InvalidMatrixError("cover edge does not step one rank")
        up.setdefault(i, []).append((j, lab))
    rows = [[0] * size for _ in range(size)]
    for i in sorted(range(size), key=lambda x: ranks[x]):
        rows[i][i] = 1
        for (k, lab) in up.get(i, ()):
            rows[i][k] = lab
        for j in range(size):
            if j == i or ranks[j] >= ranks[i] - 1:
                continue
            total = sum(lab * rows[k][j] for (k, lab) in up.get(i, ()))
            rows[i][j] = exact_div(total, ranks[i] - ranks[j],
                                   f"poset fill at ({i},{j})")
    return NMatrix(tuple(tuple(r) for r in rows), None)


def child_nmatrices(nm: NMatrix) -> list:
    """The multiset {N(G-u) : e(G-u) > 0} recovered from N(G) alone.

    A row j is a vertex-deleted subgraph iff no row other than the top
    contains it; its matrix is the principal submatrix on the rows it
    contains, taken with multiplicity N[top][j].  Children with equal
    canonical matrices are merged and their multiplicities added.
    """
    infer_v_e(nm)
    top = _top_row(nm)
    rows = nm.rows
    size = nm.size
    merged = {}
    for j in range(size):
        if j == top:
            continue
        if any(rows[i][j] for i in range(size) if i != j and i != top):
            continue
        keep = [k for k in range(size) if rows[j][k]]
        canon = canonical_nmatrix(
            NMatrix(tuple(tuple(rows[a][b] for b in keep) for a in keep), None))
        _canon, mult = merged.get(canon.rows, (canon, 0))
        merged[canon.rows] = (canon, mult + rows[top][j])
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
    invariant under admissible permutations.
    """
    size = nm.size
    rows = nm.rows
    sig = {i: (ve[i][0], ve[i][1]) for i in range(size)}
    ids = _intern(sig, size)
    while True:
        nxt = {}
        for i in range(size):
            rowsig = sorted((ids[j], rows[i][j]) for j in range(size)
                            if j != i and rows[i][j])
            colsig = sorted((ids[j], rows[j][i]) for j in range(size)
                            if j != i and rows[j][i])
            nxt[i] = (ids[i], tuple(rowsig), tuple(colsig))
        new_ids = _intern(nxt, size)
        if len(set(new_ids.values())) == len(set(ids.values())):
            cells = {}
            for i in range(size):
                cells.setdefault(new_ids[i], []).append(i)
            return [sorted(cells[c]) for c in sorted(cells)]
        ids = new_ids


def _intern(sig: dict, size: int) -> dict:
    distinct = sorted(set(sig.values()))
    lookup = {s: k for k, s in enumerate(distinct)}
    return {i: lookup[sig[i]] for i in range(size)}


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
        yield perm, tuple(rows[a][b] for a in perm for b in perm)


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


def elp_from_json(d: dict) -> Elp:
    try:
        ranks = tuple(json_int(nd["rank"]) for nd in d["nodes"])
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
