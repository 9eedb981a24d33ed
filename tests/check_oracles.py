"""Brute-force oracles that only the tests call.

Each enumerates explicitly.  The cycle and elementary-subgraph oracles take
their copies from the brute-force copy finder of `reconkit.oracle` and their
tuples from its unions.  No pipeline calls these, so they live with the tests.

The `_enum_*` functions enumerate edge subsets, so their cost grows with
e(g).  They are the witnesses of the oracles' tree, unicyclic and rank
polynomial methods, whose cost grows with n alone.  `dense_fill` fills a
poset's matrix entry by entry, the witness of the sparse fill in
`deck.nmatrix_from_elp`.  `chain_walk` walks the chain sum of Kocay's
identity for one graph, the witness of the weights per type and order in
`verify.count_type_chain`.  `expanded_vertex_deck` recurses through
Kocay's identity per deck, memoised per type, the witness of the plan that
`whitney.charpoly_from_vertex_deck` compiles once per order and evaluates.
`unguarded_subgraph_count` counts every
embedding by a plain backtrack, with no degree filter, no degree-dominance
guard and no symmetry-breaking condition, and divides by the embeddings of f
into itself: the witness of `isotype.count_subgraphs`, which visits one
embedding per copy.  `canonical_witness` maps
the witness of the search of g's first-leaf form back to g's labelling, for
the checks against a search that visits every leaf.
"""

from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import prod

from reconkit.combi import (card_sum_coeffs, exact_div, multiset_symmetry, partitions_min2,
                            sachs_constant)
from reconkit.deck import Elp, NMatrix
from reconkit.errors import DomainError, InconsistentDeckError, InvalidMatrixError
from reconkit.graphcore import (Graph, adjacency_masks, cycle, elementary_blocks,
                                elementary_graph)
from reconkit import isotype, whitney
from reconkit.isotype import code_graph, count_subgraphs, edge_bits, kelly_count
from reconkit.oracle import _copies, _elementary, _unions, psi_oracle
from reconkit.polydeck import charpoly
from reconkit.whitney import covers_of_type, type_key


def _endpoint_mask(subset) -> int:
    m = 0
    for u, v in subset:
        m |= (1 << u) | (1 << v)
    return m


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


def _spanning_connected(g: Graph, k: int):
    """The k-edge subsets of g whose edges reach and connect every vertex."""
    full = (1 << g.n) - 1
    for subset in combinations(g.sorted_edges(), k):
        if _endpoint_mask(subset) == full and \
                len(set(_roots(range(g.n), subset).values())) <= 1:
            yield subset


def _cycle_items(g: Graph, a: int) -> list:
    """(vertex mask, edge mask) of each cycle of length a (each edge when a == 2)."""
    return [divmod(m, 1 << g.e) for m in _copies(g, elementary_graph((a,)))]


def _enum_tr(g: Graph) -> int:
    """Spanning trees, by enumerating (n-1)-edge subsets."""
    if g.n <= 1:
        return g.n
    return sum(1 for _subset in _spanning_connected(g, g.n - 1))


def _enum_uni(g: Graph) -> dict:
    """cycle length -> spanning unicyclic subgraphs, by enumerating n-edge subsets.

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


def _enum_rankpoly(g: Graph) -> dict:
    """(rank, corank) -> count, by enumerating every edge subset."""
    edges = g.sorted_edges()
    out = {(0, 0): 1}
    for m in range(1, g.e + 1):
        for subset in combinations(edges, m):
            r = g.n - len(set(_roots(range(g.n), subset).values()))
            out[(r, m - r)] = out.get((r, m - r), 0) + 1
    return out


def kedge_connected_oracle(g: Graph, k: int) -> int:
    """Connected spanning subgraphs with exactly k edges."""
    return sum(1 for _subset in _spanning_connected(g, k))


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


def elementary_count_oracle(g: Graph, parts) -> int:
    """Subgraphs isomorphic to the elementary graph with the given part profile."""
    return len(_copies(g, elementary_graph(parts)))


def sachs_charpoly(g: Graph) -> tuple:
    """c_0..c_n of the characteristic polynomial, c_i = (-1)^i times the Sachs
    weights summed over the elementary subgraphs on i vertices."""
    return tuple((-1) ** i * sum(w for _m, w in _elementary(g, i)) for i in range(g.n + 1))


def p_oracle(g: Graph, seq) -> int:
    """Product of cycle counts for the sequence (number of cycle tuples)."""
    total = 1
    for a in seq:
        total *= psi_oracle(g, a)
    return total


def c_oracle(g: Graph, seq) -> int:
    """Cycle tuples whose vertex sets jointly cover V(g)."""
    unions = _unions([(vm, 1) for vm, _em in _cycle_items(g, a)] for a in seq)
    return unions.get((1 << g.n) - 1, 0)


def signed_c_oracle(g: Graph, seq) -> int:
    """Spanning tuples of elementary subgraphs, weighted by (-1)^rank 2^corank.

    Entry a_j of the sequence ranges over *all* elementary subgraphs with a_j
    vertices, not just cycles; this is the polynomial-deck flavour of the
    cycle-cover sum.
    """
    unions = _unions([(m >> g.e, w) for m, w in _elementary(g, a)] for a in seq)
    return unions.get((1 << g.n) - 1, 0)


def lcompo_oracle(g: Graph, spec) -> int:
    """Spanning subgraphs whose component (order, size) multiset equals `spec`."""
    spec = tuple(sorted(spec, reverse=True))
    if sum(n for n, _m in spec) != g.n:
        raise DomainError("component orders must sum to v(g)")
    full = (1 << g.n) - 1
    return sum(1 for subset in combinations(g.sorted_edges(), sum(m for _n, m in spec))
               if _endpoint_mask(subset) == full and _component_profile(subset) == spec)


def dense_fill(elp: Elp) -> NMatrix:
    """The matrix of a poset, filled rank by rank and entry by entry.

    Row i has 1 on its diagonal and label(k, i) at each cover k.  Every other
    entry (i, j) with rank(j) < rank(i) - 1 is the sum, over the covers k of
    i, of label(k, i) * N[k][j], divided by rank(i) - rank(j).
    """
    size, ranks = elp.size, elp.ranks
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
            rows[i][j] = exact_div(total, ranks[i] - ranks[j], f"poset fill at ({i},{j})")
    return NMatrix(tuple(tuple(r) for r in rows), None)


def chain_walk(g: Graph, key: tuple) -> int:
    """<g, S0> for the type key `key` of S0 as the chain sum of Kocay's
    identity, walked for g alone.

    Every chain S0 -> ... -> Sq = T of distinct types is walked again for g,
    and each adds (-1)^q prod <g, block of T> / c(T, T) times the product of
    c(S_i, S_{i+1}) / c(S_i, S_i) along it, in Fractions; c(S, S) is S's
    block symmetry, `multiset_symmetry(S)`.
    """
    total = Fraction(0)

    def walk(root, q, acc):
        nonlocal total
        sym = multiset_symmetry(root)
        p = prod(count_subgraphs(g, code_graph(code)) for code in root)
        total += Fraction((-1) ** q * p, sym) * acc
        for tk, c in covers_of_type(root, g.n).by_type.items():
            if tk != root:
                walk(tk, q + 1, acc * Fraction(c, sym))

    walk(key, 0, Fraction(1))
    if total.denominator != 1:
        raise ValueError("chain sum is not integral")
    return int(total)


def expanded_vertex_deck(deck) -> tuple:
    """c_0..c_n of P(G) from a vertex deck of n >= 3 cards of order n - 1,
    each type count <G, S> expanded by the recursion of Kocay's identity,
    memoised per type, over the rows that `whitney._plan` reads, and every
    Kelly count taken over the labelled cards."""
    n, cards = len(deck), tuple(Counter(deck).items())
    coeffs = card_sum_coeffs([charpoly(card) for card in deck], n)
    memo = {}

    def kelly(code):
        f = code_graph(code)
        return kelly_count(tuple(((count_subgraphs(card, f),), m) for card, m in cards),
                           (f.n,))[0]

    def expand(root):
        if root not in memo:
            total = 1
            for code in root:
                total *= kelly(code)
                if total == 0:
                    break
            if len(root) == 1 or root[-2:-1] == (whitney._K2,):
                rows = whitney._block_rows(len(root) - 1, root[-1], n)
            else:
                rows = covers_of_type(root, n).by_type
            total -= sum(c * expand(tk) for tk, c in rows.items() if tk != root)
            memo[root] = exact_div(total, multiset_symmetry(root), f"type count for {root}",
                                   InconsistentDeckError)
        return memo[root]

    spanning = {}
    for parts in [parts for parts in partitions_min2(n) if len(parts) > 1]:
        root = type_key(elementary_blocks(parts))
        spanning[parts] = expand(root) - sum(
            kelly(code) for code in covers_of_type(root, n).members
            if code[0] < n and whitney._code_type(code) == root)
    row, cn = whitney._block_rows(n - 1, whitney._K2, n), type_key([cycle(n)])
    rhs = kelly(whitney._K2) ** n - sum(c * expand(tk) for tk, c in row.items() if tk != cn)
    spanning[(n,)] = exact_div(rhs, row[cn], "hamiltonian count", InconsistentDeckError)
    return coeffs + (sachs_constant(n, spanning.__getitem__),)


def _embeddings(f: Graph, g: Graph) -> int:
    """Injective maps V(f) -> V(g) that send every edge of f to an edge of g.

    f's vertices are placed each after as many of its neighbours as can be;
    a vertex's candidates are the unused vertices of g adjacent to the
    images of its placed neighbours, and those of the last vertex are
    counted, not visited."""
    fmasks, gmasks = adjacency_masks(f), adjacency_masks(g)
    order = []
    while len(order) < f.n:
        order.append(max((v for v in range(f.n) if v not in order),
                         key=lambda v: sum(fmasks[v] >> u & 1 for u in order)))
    back = [[k for k in range(i) if fmasks[v] >> order[k] & 1] for i, v in enumerate(order)]
    image = [0] * f.n

    def extend(i, used):
        cand = ((1 << g.n) - 1) & ~used
        for k in back[i]:
            cand &= gmasks[image[k]]
        if i == f.n - 1:
            return cand.bit_count()
        total = 0
        while cand:
            low = cand & -cand
            image[i] = low.bit_length() - 1
            total += extend(i + 1, used | low)
            cand ^= low
        return total

    return extend(0, 0) if f.n else 1


def unguarded_subgraph_count(g: Graph, f: Graph) -> int:
    """Copies of f in g, for f without isolated vertices: emb(f -> g) / emb(f -> f)."""
    return exact_div(_embeddings(f, g), _embeddings(f, f), "embeddings per copy")


def canonical_witness(g: Graph) -> tuple:
    """(minimal bitstring as int, witness new -> old) of g's canonical search:
    `_search` of the first-leaf form that `_descend` reaches, its witness
    mapped back through the first-leaf ordering perm by x -> perm[x]."""
    _code, perm, form = isotype._descend(g.n, edge_bits(g.edges))
    val, witness, _autos, _order = isotype._search(form)
    return val, tuple(perm[x] for x in witness)
