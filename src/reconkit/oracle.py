"""Brute-force oracles for every invariant the reconstruction pipelines produce.

Everything here enumerates explicitly (vertex subsets, edge subsets, tuples of
subgraphs) and calls none of the pipelines it validates.  That makes the
oracles slow but trustworthy: they are the ground truth for all tests, and the
exhaustive sweeps pit each pipeline against them.  Each enumeration (the
cycles, the connected spanning edge subsets, the unions of tuples) is written
once and shared by every oracle that needs it, including the oracles that
only the tests call, which live with the tests (`tests/check_oracles.py`).

Nor does any oracle rest on canonical labelling, which every pipeline uses:
this module imports nothing from `isotype`.  `cover_count_oracle` finds the
copies of each member by brute force over the injections of its vertices.

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

from collections import Counter
from functools import lru_cache
from itertools import combinations, permutations

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
    "con_oracle",
    "signed_exact_cover_oracle",
    "kedge_connected_oracle",
    "laplacian_tree_count",
]

RANKPOLY_EDGE_LIMIT = 16


# ---------------------------------------------------------------------------
# The enumerations every oracle shares: cycles, connected spanning edge
# subsets and unions of tuples
# ---------------------------------------------------------------------------

def _edge_index(g: Graph):
    edges = g.sorted_edges()
    return edges, {e: i for i, e in enumerate(edges)}


def _endpoint_mask(subset) -> int:
    m = 0
    for u, v in subset:
        m |= (1 << u) | (1 << v)
    return m


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


def _spanning_connected(g: Graph, k: int):
    """The k-edge subsets of g whose edges reach and connect every vertex."""
    full = (1 << g.n) - 1
    for subset in combinations(g.sorted_edges(), k):
        if _endpoint_mask(subset) == full and \
                len(set(_roots(range(g.n), subset).values())) <= 1:
            yield subset


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


def _roots(verts, edges) -> dict:
    """Union-find: each vertex of `verts` mapped to the root of its component."""
    parent = {v: v for v in verts}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    return {v: find(v) for v in parent}


def _component_profile(edges_subset) -> tuple:
    """Non-increasing (order, size) pairs of the components of an edge set."""
    roots = _roots({x for e in edges_subset for x in e}, edges_subset)
    orders = {}
    sizes = {}
    for r in roots.values():
        orders[r] = orders.get(r, 0) + 1
    for u, _v in edges_subset:
        sizes[roots[u]] = sizes.get(roots[u], 0) + 1
    return tuple(sorted(((orders[r], sizes[r]) for r in orders), reverse=True))


def psi_oracle(g: Graph, i: int) -> int:
    """Number of cycles of length i; psi_2 counts edges by the C2 = K2 convention."""
    if i < 2:
        raise DomainError(f"cycle length {i} < 2")
    if i == 2:
        return g.e
    return sum(1 for found in _cycles(g) for _vm, _em, length in found if length == i)


def ham_oracle(g: Graph) -> int:
    return psi_oracle(g, g.n)


def tr_oracle(g: Graph) -> int:
    """Spanning trees, by enumerating (n-1)-edge subsets."""
    if g.n <= 1:
        return g.n
    return sum(1 for _subset in _spanning_connected(g, g.n - 1))


@lru_cache(maxsize=64)
def _unicyclic_by_length(g: Graph) -> dict:
    """cycle length -> spanning unicyclic subgraphs of g, in one pass.

    A connected spanning subgraph with n edges has exactly one cycle, which
    is what is left once leaf edges are peeled off until none remains.
    """
    out = {}
    for subset in _spanning_connected(g, g.n):
        core = subset
        while True:
            deg = Counter(x for e in core for x in e)
            kept = [(u, v) for u, v in core if deg[u] > 1 and deg[v] > 1]
            if len(kept) == len(core):
                break
            core = kept
        out[len(core)] = out.get(len(core), 0) + 1
    return out


def uni_oracle(g: Graph, r: int) -> int:
    """Spanning unicyclic subgraphs whose unique cycle has length r."""
    if not (3 <= r <= g.n):
        raise DomainError(f"cycle length {r} outside [3, {g.n}]")
    return _unicyclic_by_length(g).get(r, 0)


def kedge_connected_oracle(g: Graph, k: int) -> int:
    """Connected spanning subgraphs with exactly k edges."""
    return sum(1 for _subset in _spanning_connected(g, k))


@lru_cache(maxsize=None)
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


def rankpoly_oracle(g: Graph) -> dict:
    """(rank, corank) -> count over all edge subsets, empty subgraph included."""
    if g.e > RANKPOLY_EDGE_LIMIT:
        raise DomainError(f"rank polynomial enumeration limited to {RANKPOLY_EDGE_LIMIT} edges")
    edges = g.sorted_edges()
    out = {(0, 0): 1}
    for m in range(1, g.e + 1):
        for subset in combinations(edges, m):
            r = sum(order - 1 for order, _size in _component_profile(subset))
            out[(r, m - r)] = out.get((r, m - r), 0) + 1
    return out


# ---------------------------------------------------------------------------
# Tuple enumeration: covers and cycle covers
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


def _cycle_items(g: Graph, a: int) -> list:
    """(vertex mask, edge mask) of each cycle of length a (each edge when a == 2)."""
    if a == 2:
        return [((1 << u) | (1 << v), 1 << i) for i, (u, v) in enumerate(g.sorted_edges())]
    return [(vm, em) for found in _cycles(g) for vm, em, length in found if length == a]


def con_oracle(g: Graph, seq) -> int:
    """Cycle tuples spanning V(g) whose union is connected."""
    edges = g.sorted_edges()
    unions = _unions([(em, 1) for _vm, em in _cycle_items(g, a)] for a in seq)
    total = 0
    for em, cnt in unions.items():
        union = Graph(g.n, frozenset(e for i, e in enumerate(edges) if (em >> i) & 1))
        # 1 when the union itself connects every vertex, else 0
        total += cnt * kedge_connected_oracle(union, union.e)
    return total


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


def laplacian_tree_count(g: Graph) -> int:
    """Spanning trees via an exact integer determinant of the reduced Laplacian."""
    if g.n <= 1:
        return 1 if g.n == 1 else 0
    n = g.n - 1
    lap = [[0] * n for _ in range(n)]
    for u, v in g.edges:
        for x in (u, v):
            if x < n:
                lap[x][x] += 1
        if u < n and v < n:
            lap[u][v] -= 1
            lap[v][u] -= 1
    # Bareiss fraction-free elimination
    m = [row[:] for row in lap]
    prev = 1
    sign = 1
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
