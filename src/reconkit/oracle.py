"""Oracles for every invariant the reconstruction pipelines produce.

Each oracle computes on the labelled graph itself, by one method:
  * psi and ham list every cycle once, by a walk from its minimum vertex;
  * tr is Kirchhoff's matrix-tree theorem, an exact integer determinant;
  * uni counts, for each vertex set S, the cycles on S times the spanning
    trees of g with S contracted to one vertex;
  * rankpoly sums over labelled vertex subsets (Björklund, Husfeldt, Kaski
    and Koivisto, FOCS 2008);
  * charpoly sums Sachs weights over the elementary subgraphs;
  * the cover counts take unions of tuples of subgraphs.
The tree, unicyclic and rank methods cost exponential in n alone.  The
edge-subset enumerations that witness them, and the oracles that only the
tests call, live with the tests (`tests/check_oracles.py`).

The oracles are the ground truth for all tests, and the exhaustive sweeps
pit each pipeline against them.  `nrecon` reads its counts off N-matrix
rows, by inclusion-exclusion over induced-subgraph types; no oracle reads a
row or a type, and the matrix-tree theorem and the vertex-subset sums share
no step with it.  Nor does any oracle rest on canonical labelling, which
every pipeline uses: this module imports nothing from `isotype`.
`cover_count_oracle` finds the copies of each member by brute force over
the injections of its vertices.

No pipeline imports from this module; the `Polynomial` type lives in `combi`.
`polydeck` builds decks, and `whitney` its card polynomials, by a subset
recursion that counts its own cycles, with `charpoly_oracle` as its witness.
`whitney` counts its covers itself, from the gluings that build each cover
table; `cover_count_oracle` is their witness.

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

from .combi import Polynomial
from .errors import DomainError
from .graphcore import Graph, adjacency_masks

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
# The enumerations every oracle shares: cycles and unions of tuples
# ---------------------------------------------------------------------------

def _edge_index(g: Graph):
    edges = g.sorted_edges()
    return edges, {e: i for i, e in enumerate(edges)}


@lru_cache(maxsize=128)
def _cycles(g: Graph) -> tuple:
    """Every cycle of length >= 3 once, as (vertex mask, edge mask, length).

    Entry v lists the cycles whose minimum vertex is v.  A walk from v closes
    each cycle in both directions; only the one whose second vertex is below
    its last is kept.
    """
    masks = adjacency_masks(g)
    _edges, eidx = _edge_index(g)

    def walk(start, v, vmask, emask, depth, second, found):
        m = masks[v]
        while m:
            u = (m & -m).bit_length() - 1
            m &= m - 1
            eb = 1 << eidx[(min(v, u), max(v, u))]
            if u == start and depth >= 3:
                if second < v:
                    found.append((vmask, emask | eb, depth))
                continue
            if u <= start or (vmask >> u) & 1:
                continue
            walk(start, u, vmask | (1 << u), emask | eb, depth + 1,
                 u if depth == 1 else second, found)

    out = []
    for s in range(g.n):
        found = []
        walk(s, s, 1 << s, 0, 1, g.n, found)
        out.append(tuple(found))
    return tuple(out)


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
    return sum(1 for found in _cycles(g) for _vm, _em, length in found if length == i)


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
    on_set = {}
    for found in _cycles(g):
        for vmask, _em, _length in found:
            on_set[vmask] = on_set.get(vmask, 0) + 1
    out = {}
    for vmask, count in on_set.items():
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


@lru_cache(maxsize=512)  # every graph an n <= 6 sweep asks for, cards included
def _elementary_by_order(g: Graph) -> dict:
    """order -> tuples (vertex mask, edge mask, sachs weight, profile).

    One entry per elementary subgraph: a set of vertex-disjoint single edges
    and cycles.  The weight is (-1)^rank * 2^corank and the profile is the
    non-increasing tuple of component orders (2 for K2).
    """
    masks = adjacency_masks(g)
    _edges, eidx = _edge_index(g)
    cycles = _cycles(g)
    out = {}

    def record(vmask, emask, weight, profile):
        order = bin(vmask).count("1")
        out.setdefault(order, []).append(
            (vmask, emask, weight, tuple(sorted(profile, reverse=True))))

    def rec(avail, vmask, emask, weight, profile):
        # each elementary subgraph reaches `avail == 0` along exactly one path:
        # vertices are decided in increasing order and every component is
        # anchored at its minimum vertex
        if not avail:
            record(vmask, emask, weight, profile)
            return
        v = (avail & -avail).bit_length() - 1
        rest = avail & ~(1 << v)
        # v not part of the subgraph
        rec(rest, vmask, emask, weight, profile)
        # v matched by a single edge
        m = masks[v] & rest
        while m:
            u = (m & -m).bit_length() - 1
            m &= m - 1
            eb = 1 << eidx[(min(v, u), max(v, u))]
            rec(rest & ~(1 << u), vmask | (1 << v) | (1 << u), emask | eb,
                -weight, profile + (2,))
        # v on a cycle where it is the minimum vertex
        for cyc_mask, cyc_emask, length in cycles[v]:
            if cyc_mask & ~avail:
                continue
            w = weight * 2 * (-1 if length % 2 == 0 else 1)  # (-1)^(length-1) * 2
            rec(avail & ~cyc_mask, vmask | cyc_mask, emask | cyc_emask, w,
                profile + (length,))

    rec((1 << g.n) - 1, 0, 0, 1, ())
    return {k: tuple(v) for k, v in out.items()}


def charpoly_oracle(g: Graph) -> Polynomial:
    """Characteristic polynomial via the elementary-subgraph coefficient expansion."""
    acc = [0] * (g.n + 1)
    for order, items in _elementary_by_order(g).items():
        for _vm, _em, w, _prof in items:
            acc[order] += w
    coeffs = [acc[i] if i % 2 == 0 else -acc[i] for i in range(g.n + 1)]
    coeffs[0] = 1
    return Polynomial(tuple(coeffs))


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
    _edges, eidx = _edge_index(h)
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
    injections, so no canonical labelling is involved.
    """
    for f in S:
        if f.has_isolated_vertex():
            raise DomainError("cover members may not have isolated vertices")
    unions = _unions([(m, 1) for m in _copies(h, f)] for f in S)
    return unions.get((1 << (h.n + h.e)) - 1, 0)


def signed_exact_cover_oracle(g: Graph, seq) -> int:
    """Sachs-weighted tuples of elementary subgraphs whose union is exactly g.

    The union must reproduce g's edge set, not just cover g's vertices.  On
    an elementary host it is nonzero only for the partitions the host's own
    partition refines.
    """
    by_order = _elementary_by_order(g)
    unions = _unions([((vm << g.e) | em, w) for vm, em, w, _prof in by_order.get(a, ())]
                     for a in seq)
    return unions.get((1 << (g.n + g.e)) - 1, 0)
