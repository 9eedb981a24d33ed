"""Oracles for every invariant the reconstruction pipelines produce.

Each oracle computes on the labelled graph itself, by one method:
  * psi and ham sum the cycles on each vertex set S, from the table
    `graphcore.cycles_on_sets`, a path DP from the least vertex of S;
  * tr is Kirchhoff's matrix-tree theorem, an exact integer determinant;
  * uni counts, for each vertex set S, the cycles on S times the spanning
    trees of g with S contracted to one vertex;
  * rankpoly sums over labelled vertex subsets (Björklund, Husfeldt, Kaski
    and Koivisto, FOCS 2008);
  * charpoly is Berkowitz's division-free determinant of xI - A;
  * the cover counts take unions of tuples of copies, found by brute force.
charpoly takes O(n^4) integer products, and the cycle, tree, unicyclic and
rank methods cost exponential in n alone.  The edge-subset
enumerations that witness them, and the oracles that only the tests call,
live with the tests (`tests/check_oracles.py`).

The oracles are the ground truth for all tests, and the exhaustive sweeps
pit each pipeline against them.  `nrecon` reads its counts off N-matrix
rows, by inclusion-exclusion over induced-subgraph types; no oracle reads a
row or a type.  `nrecon`, `polydeck` and `whitney` assemble charpoly by
Sachs' theorem, and `charpoly_oracle` does not.  Nor does any oracle rest on
canonical labelling, which every pipeline uses: this module imports nothing
from `isotype`, `deck`, `nrecon`, `polydeck` or `whitney`.
`cover_count_oracle` finds the copies of each member by brute force over
the injections of its vertices.

No pipeline imports from this module; the `Polynomial` type lives in `combi`.
`polydeck` builds decks, and `whitney` its card polynomials, by a subset
recursion that reads the same cycle table as psi, ham and uni.  No check
compares two values that both come from that table: the recursion's witness
is `charpoly_oracle`, which counts no cycles, and psi, ham and uni are held
against `nrecon`, which reads its counts off the matrix rows.  `whitney`
counts its covers itself, from the gluings that build each cover table;
`cover_count_oracle` is their witness.

Conventions:
  * a cycle of length 2 is a single edge (K2), so `psi(g, 2) == e(g)`;
  * `ham(g)` is `psi(g, n)`, which for K2 equals 1 under that convention;
  * the rank polynomial ranges over edge subsets, with the vertex set of a
    subgraph taken to be its edge endpoints; the empty subgraph contributes
    the constant 1.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations
from math import comb
from operator import mul

from .combi import Polynomial, partitions_min2, sachs_weight
from .errors import DomainError
from .graphcore import Graph, adjacency_masks, cycles_on_sets, elementary_graph

__all__ = [
    "psi_oracle",
    "tr_oracle",
    "ham_oracle",
    "uni_oracle",
    "charpoly_oracle",
    "rankpoly_oracle",
    "cover_count_oracle",
    "signed_exact_cover_oracle",
]


# ---------------------------------------------------------------------------
# Unions of tuples, and the cycle counts
# ---------------------------------------------------------------------------

def _unions(item_lists) -> dict:
    """mask -> summed weight of the tuples whose masks OR to it.

    A tuple takes one (mask, weight) item from each list in turn, and its
    weight is the product of theirs.  The lists are read lazily, so none is
    built once no tuple is left.
    """
    states = {0: 1}
    for items in item_lists:
        nxt = {}
        for mask, val in states.items():
            for m, w in items:
                key = mask | m
                nxt[key] = nxt.get(key, 0) + val * w
        states = nxt
        if not states:
            break
    return states


def psi_oracle(g: Graph, i: int) -> int:
    """Number of cycles of length i; psi_2 counts edges by the C2 = K2 convention."""
    if i < 2:
        raise DomainError(f"cycle length {i} < 2")
    if i == 2:
        return g.e
    return sum(c for s, c in cycles_on_sets(g).items() if s.bit_count() == i)


def ham_oracle(g: Graph) -> int:
    return psi_oracle(g, g.n)


def _tree_count(n: int, edges) -> int:
    """Spanning trees of the multigraph on n vertices with these edges.

    Kirchhoff's matrix-tree theorem, with the determinant of the Laplacian
    less its last row and column taken by Bareiss' fraction-free
    elimination.  Parallel edges are counted apart; loops are skipped.
    """
    if n <= 1:
        return n
    n -= 1
    m = [[0] * n for _ in range(n)]
    for u, v in edges:
        if u == v:
            continue
        for x in (u, v):
            if x < n:
                m[x][x] += 1
        if u < n and v < n:
            m[u][v] -= 1
            m[v][u] -= 1
    prev = sign = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def tr_oracle(g: Graph) -> int:
    """Spanning trees, by the matrix-tree theorem."""
    return _tree_count(g.n, g.edges)


@lru_cache(maxsize=64)
def _unicyclic_by_length(g: Graph) -> dict:
    """cycle length -> spanning unicyclic subgraphs of g, in one pass.

    A spanning unicyclic subgraph is its cycle, on some vertex set S, plus a
    spanning tree of g/S: g with S contracted to one vertex, parallel edges
    kept.  So each S adds (cycles on S) * tau(g/S) at length |S|.
    """
    out = {}
    for vmask, count in cycles_on_sets(g).items():
        outside = [x for x in range(g.n) if not (vmask >> x) & 1]
        label = {x: i for i, x in enumerate(outside)}  # S becomes the last vertex
        k = len(outside)
        trees = _tree_count(k + 1, [(label.get(u, k), label.get(v, k)) for u, v in g.edges])
        out[g.n - k] = out.get(g.n - k, 0) + count * trees
    return out


def uni_oracle(g: Graph, r: int) -> int:
    """Spanning unicyclic subgraphs whose unique cycle has length r."""
    if not (3 <= r <= g.n):
        raise DomainError(f"cycle length {r} outside [3, {g.n}]")
    return _unicyclic_by_length(g).get(r, 0)


def charpoly_oracle(g: Graph) -> Polynomial:
    """det(xI - A) of the 0/1 adjacency matrix, by Berkowitz's division-free algorithm.

    S. J. Berkowitz, IPL 18 (1984).  With A_k the principal submatrix on
    vertices k..n-1, split as [[a, r], [r^T, M]], the polynomial of A_k is
    the lower-triangular Toeplitz matrix with first column 1, -a, -r r^T,
    -r M r^T, -r M^2 r^T, ... times the polynomial of M; a = 0, as g has no
    loops.  Integer products alone: no Sachs sum, so no step is shared with
    the pipelines.
    """
    n = g.n
    adj = [[(m >> v) & 1 for v in range(n)] for m in adjacency_masks(g)]
    poly = [1]
    for k in range(n - 1, -1, -1):
        sub = [row[k + 1:] for row in adj[k + 1:]]  # M
        r = vec = adj[k][k + 1:]
        col = [1, 0]
        for _ in sub:
            col.append(-sum(map(mul, r, vec)))
            vec = [sum(map(mul, row, vec)) for row in sub]
        # entry i of the product is the sum over j of col[i - j] * poly[j]
        poly = [sum(map(mul, col[i::-1], poly)) for i in range(len(col))]
    return Polynomial(tuple(poly))


def _splits(s: int):
    """(T, S - T) for each T within S that holds the least vertex of S, T = S first."""
    low = s & -s
    sub = rest = s ^ low
    while True:
        yield low | sub, rest ^ sub
        if not sub:
            return
        sub = (sub - 1) & rest


def rankpoly_oracle(g: Graph) -> dict:
    """(rank, corank) -> count over all edge subsets, empty subgraph included.

    Sums over vertex subsets.  An edge set on S splits into the component of
    the least vertex of S, with vertex set T, and an edge set on S - T.  So
    conn[S][k], the k-edge sets that connect S, is C(e(S), k) less the sum,
    over proper T, of conn[T][j] * C(e(S - T), k - j).  The same split
    counts every edge set on S by rank and corank, a component on T adding
    |T| - 1 to the rank; an isolated vertex is a component on its own.
    """
    full = (1 << g.n) - 1
    masks = adjacency_masks(g)
    size = [0] * (full + 1)  # e(S)
    for s in range(1, full + 1):
        v = (s & -s).bit_length() - 1
        size[s] = size[s & (s - 1)] + bin(masks[v] & s).count("1")
    binom = [[comb(m, k) for k in range(m + 1)] for m in range(g.e + 1)]
    conn = [None]  # no component is empty
    spans = [{(0, 0): 1}]  # spans[S][rank, corank]: every edge set on S
    for s in range(1, full + 1):
        splits = list(_splits(s))
        acc = list(binom[size[s]])
        for t, u in splits[1:]:
            for j, x in enumerate(conn[t]):
                for i, y in enumerate(binom[size[u]]):
                    acc[i + j] -= x * y
        conn.append(acc)
        acc = {}
        for t, u in splits:
            r = bin(t).count("1") - 1
            for j, x in enumerate(conn[t]):
                if x:
                    for (a, b), y in spans[u].items():
                        key = (a + r, b + j - r)
                        acc[key] = acc.get(key, 0) + x * y
        spans.append(acc)
    return spans[full]


# ---------------------------------------------------------------------------
# Tuple enumeration: covers
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1024)
def _copies(h: Graph, f: Graph) -> tuple:
    """Every subgraph of h isomorphic to f, as its vertex mask shifted above its edge mask.

    Brute force over the injections V(f) -> V(h): a map that sends every edge
    of f onto an edge of h maps f onto the copy its edge images make, and
    every copy is reached that way.  f has no isolated vertex, so the copy's
    vertices are the map's image.  The copies come sorted, once each.
    """
    eidx = {e: i for i, e in enumerate(h.sorted_edges())}
    fedges = f.sorted_edges()
    found = set()
    for image in permutations(range(h.n), f.n):
        emask = 0
        for u, v in fedges:
            a, b = image[u], image[v]
            i = eidx.get((a, b) if a < b else (b, a))
            if i is None:
                break
            emask |= 1 << i
        else:
            vmask = 0
            for x in image:
                vmask |= 1 << x
            found.add((vmask << h.e) | emask)
    return tuple(sorted(found))


def cover_count_oracle(S, h: Graph) -> int:
    """Number of tuples (X_1..X_k), X_i a subgraph of h isomorphic to S[i], with union h.

    The copies of each S[i] come from `_copies`, by brute force over
    injections, so no canonical labelling is involved.  A union of copies
    has at most as many vertices and edges as the copies together, so when
    they have fewer than h the count is 0 without enumerating any tuple.
    """
    for f in S:
        if f.has_isolated_vertex():
            raise DomainError("cover members may not have isolated vertices")
    if sum(f.n for f in S) < h.n or sum(f.e for f in S) < h.e:
        return 0
    unions = _unions([(m, 1) for m in _copies(h, f)] for f in S)
    return unions.get((1 << (h.n + h.e)) - 1, 0)


def _elementary(g: Graph, a: int) -> list:
    """(copy mask, Sachs weight) of each elementary subgraph of g on a vertices.

    The copies of the elementary graph of each partition of a into parts
    >= 2, from `_copies`, encoded as it encodes them.
    """
    return [(m, sachs_weight(parts)) for parts in partitions_min2(a)
            for m in _copies(g, elementary_graph(parts))]


def signed_exact_cover_oracle(g: Graph, seq) -> int:
    """Sachs-weighted tuples of elementary subgraphs whose union is exactly g.

    The union must reproduce g's edge set, not just cover g's vertices.  On
    an elementary host it is nonzero only for the partitions the host's own
    partition refines.
    """
    unions = _unions(_elementary(g, a) for a in seq)
    return unions.get((1 << (g.n + g.e)) - 1, 0)
