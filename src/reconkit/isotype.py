"""Isomorphism certificates and subgraph counting.

The canonical code of a graph is the smallest upper-triangle adjacency
bitstring over the leaves of a search tree: each node refines an ordered
vertex partition to an equitable one and branches on the vertices of its first
non-singleton cell, and each leaf is a vertex ordering.  The witness is the
first leaf, in the depth-first order of the search on g's first-leaf form
(below), that attains the minimum.  Two graphs are isomorphic iff their codes
are equal, so codes double as dictionary keys for all counting in the package.

A code spells its canonical form: after the vertex count n, its bits are the
pairs (0, 1), (0, 2), ..., (n-2, n-1) of that form, highest first.
`code_graph(code)` reads the form back, so a type carried as its code needs no
stored representative.  Decoded codes are cached: every caller that decodes a
code gets the same `Graph`, which the caches keyed on graphs, such as
`count_subgraphs`', share.

Refinement counts neighbours only in the cells that split in the round
before, less the last fragment of each: the root in its one cell, a child
that split w off a cell of its parent's equitable partition in {w}.  This
gives the ordered partition that counting in every cell gives.  Each cell a
round starts from has constant counts in every cell of the partition the
round before started from, so a cell that did not split neither splits nor
orders it; the last fragment's count is the old cell's less the others', and
as it stands after them in the signature it never decides an order either.

Codes are read from adjacency bits.  `edge_bits` numbers the pairs in
graph6's column order, edge (i, j), i < j, at bit C(j, 2) + i, and
`bits_code(n, bits)` is the one entry point for codes: `canonical_code(g)`
passes g's bits, the subset tables below the bits of each vertex subset and
`whitney` those of each gluing.  Behind it, `_labelled` is the one cache per
labelled graph, bounded and keyed by the two integers; it decodes the bits
into adjacency masks, so no `Graph` is built or kept for it.  Its entry holds
the code and the first leaf's perm and form (below), and
`automorphism_generators(g)` reads the entry for g's bits, so a graph whose
code and automorphisms are both asked for is descended once.
`graphcore.all_graphs` reads each candidate's code from `_descend`, the
function behind the cache, since no candidate is asked for again.

The search runs once per first-leaf form.  `_descend` descends to the first
leaf, individualising the least vertex of the first non-singleton cell, with
ordering perm (new -> old); the graph relabelled by perm, packed like a code,
is the form.  `_search(form)` is cached per form; its witness maps back to
the graph's by x -> perm[x] and each automorphism sigma to
gamma[perm[k]] = perm[sigma[k]].
Refinement commutes with relabelling, so the form's tree is g's relabelled by
perm, only with children in another order: the minimum, the code, is g's, and
the conjugated automorphisms generate Aut g.  The form's first leaf is the
image of g's, so when it is minimal, as in practice it is (every leaf of the
`build` bench is), both witnesses are the first leaf and the witness is g's
own, and isomorphic graphs share one form, the code.  Otherwise the two may
pick different minimal leaves, which differ by an automorphism.

The search prunes with the automorphisms it finds (McKay & Piperno, "Practical
graph isomorphism, II", J. Symb. Comput. 2014).  A leaf that ties the best
bitstring so far gives the automorphism mapping the best witness onto it.  A
node skips a child when the automorphisms found so far that fix the node's
path pointwise map an already explored child onto it.  Refinement commutes
with relabelling, so such an automorphism maps the explored subtree onto the
skipped one, leaf values included: the skipped subtree holds no smaller value,
and each of its values already occurs at an earlier leaf.  The minimum and
its first witness are therefore those of the full search, and codes, witness
orderings and canonical forms are unchanged by the pruning.  The automorphism
a tying leaf gives maps the best leaf's path onto the leaf's own: it fixes
their common prefix and maps the best path's next vertex onto this path's.
The rest of the subtree where the two paths part is therefore its image of a
subtree already searched, and the search returns to that depth.

`count_subgraphs(g, f)` is the number of subgraphs of g isomorphic to f, where
a subgraph is identified with its edge set (its vertex set is the set of edge
endpoints); f must therefore have no isolated vertices.  It is counted by
embeddings, the injective maps V(f) -> V(g) that send every edge of f to an
edge of g, found by a backtrack over adjacency bitmasks.  An embedding maps f
onto the copy made of the images of f's edges, and since every vertex of f is
an edge endpoint, two embeddings hit the same copy exactly when they differ by
an automorphism of f.  Each copy is therefore hit |Aut f| times, and the count
is emb(f -> g) // emb(f -> f).  A pair whose degrees rule out an embedding,
g's degrees in decreasing order below f's at some place, is answered 0
before the backtrack.  `subgraph_type_table(g, m)` canonicalises every
m-edge subset of g instead.  No code in `reconkit` calls it any more; it stays
only because the benchmark's `perfbench/tracer.py` names it in `LAYERS`.

Induced subgraphs are counted from one table per graph, `subset_table(g)`:
a single pass over the vertex subsets of g, as bitmasks 0 .. 2^n - 1 in
increasing order, stores the canonical code of each g[mask], the number of
masks per code, and the first mask of each code.  Every subset is
canonicalised from its labelled adjacency bits, not from a `Graph`:
`_subset_bits` builds the bits of g[S] from those of g[S - t] for the top
vertex t of S, whose column lands above them, and `bits_code` reads the code,
so a labelled subset that this table or an earlier one met is a cache hit.
The pass asks for no automorphism of g.  Since a code starts with its vertex
count, the one table answers every order: `count_induced(g, f)` is a lookup
of f's code (the empty f counts once, from mask 0) and
`induced_type_table(g, k)` is the table's slice at order k.  The N-matrix of
`deck` is tallied from the same codes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import NamedTuple

from .combi import exact_div
from .errors import DomainError, InconsistentDeckError
from .graphcore import Graph, adjacency_masks, graph

__all__ = [
    "canonical_code",
    "edge_bits",
    "bits_code",
    "code_graph",
    "IsoClass",
    "count_induced",
    "count_subgraphs",
    "automorphism_count",
    "automorphism_generators",
    "SubsetTable",
    "subset_table",
    "induced_type_table",
    "subgraph_type_table",
    "kelly_count",
]


def _refine(masks, cells, splitters):
    """Equitable refinement of an ordered partition by neighbour counts in the
    splitters, the masks of the cells that split in the round before, less the
    last fragment of each (the module docstring says why that suffices).
    """
    while splitters:
        one = splitters[0] if len(splitters) == 1 else 0  # then a count, not a 1-tuple
        new_cells, new_splitters = [], []
        for cell in cells:
            if len(cell) == 1:
                new_cells.append(cell)
                continue
            groups = {}
            for v in cell:
                mv = masks[v]
                sig = (mv & one).bit_count() if one else \
                    tuple([(mv & s).bit_count() for s in splitters])
                groups.setdefault(sig, []).append(v)
            if len(groups) == 1:
                new_cells.append(cell)
                continue
            parts = [groups[sig] for sig in sorted(groups)]
            new_cells += parts
            for part in parts[:-1]:
                m = 0
                for v in part:
                    m |= 1 << v
                new_splitters.append(m)
        cells, splitters = new_cells, new_splitters
    return cells


def _individualise(masks, cells, target, w):
    """Split w off the front of cell `target` and refine."""
    rest = [u for u in cells[target] if u != w]
    return _refine(masks, cells[:target] + [[w], rest] + cells[target + 1:], [1 << w])


def _bits_int(masks, perm, n):
    val = 0
    for i in range(n):
        mi = masks[perm[i]]
        for j in range(i + 1, n):
            val = (val << 1) | ((mi >> perm[j]) & 1)
    return val


def _join_orbits(orbit, gamma):
    """Merge the orbit labels (vertex -> label) of each x and gamma[x]."""
    for x in orbit:
        a, b = orbit[x], orbit[gamma[x]]
        if a != b:
            for y in orbit:
                if orbit[y] == b:
                    orbit[y] = a


def _pack(n: int, val: int) -> bytes:
    """A code's bytes: n, then the n(n-1)/2 bits of val, big-endian."""
    return bytes([n]) + val.to_bytes((n * (n - 1) // 2 + 7) // 8, "big")


def _descend(k: int, bits: int) -> tuple:
    """(code, perm, form) of the k-vertex graph whose adjacency bits, in
    `edge_bits`' order, are `bits`, with no `Graph` built: perm (new -> old),
    one byte per vertex, orders the first leaf, reached by individualising
    the least vertex of the first non-singleton cell; the form is the graph
    relabelled by perm and packed like a code; the code is `_search`'s
    minimum of the form."""
    masks = _column_masks(k, bits)
    cells = _refine(masks, [list(range(k))], [(1 << k) - 1])
    while len(cells) < k:
        target = next(i for i, c in enumerate(cells) if len(c) > 1)
        cells = _individualise(masks, cells, target, min(cells[target]))
    perm = bytes(c[0] for c in cells)
    form = _pack(k, _bits_int(masks, perm, k))
    return _pack(k, _search(form)[0]), perm, form


# Labelled graphs, as (n, bits), per seed-1 bench pass: `recon` 709, `build`
# 1,758, `decks` 1,466, `sweep` 241; 11,635 in an n <= 7 sweep with every
# check.  At 16384 these stay cached; the table of one 16-vertex graph
# (54,981 distinct labelled subsets in a seeded G(16, 1/2)) evicts.  An entry
# is two ints, a code, a perm and a form: 16384 entries from the subsets of a
# 15-vertex graph take 4.1 MB, about 260 bytes each.  `all_graphs` adds none.
_labelled = lru_cache(maxsize=16384)(_descend)


# First-leaf forms per seed-1 bench pass: `recon` 173, `build` 346, `decks`
# 214, `sweep` 54; 13,608 in `all_graphs(8)`.  At 16384 a pass, an n <= 7
# sweep and every form up to 8 vertices stay cached.
@lru_cache(maxsize=16384)
def _search(form: bytes):
    """(minimal bitstring as int, witness new->old, automorphisms) of a first-leaf form.

    The search prunes by automorphism, as the module docstring describes.
    The automorphisms, as tuples old -> old, are the ones it found, and they
    generate the group.  At each node of the witness's path, take the orbit
    of the witness's child under the automorphisms fixing the path: no child
    of it comes first, or the witness would lie under that child; each later
    one is skipped as joined to it by the maps found, or is searched until a
    leaf ties the witness, which gives a map, fixing the path, onto it; only
    a tie returns the search from below that child.
    """
    n = form[0]
    masks = adjacency_masks(code_graph.__wrapped__(form))  # searched once: keep no decoded graph
    best = [None, None, None]  # value, witness, the witness's path
    autos = []  # automorphisms as lists old -> old

    def search(cells, path):
        """Search below `path`; return the depth the search resumes at."""
        target = next((i for i, c in enumerate(cells) if len(c) > 1), None)
        if target is None:
            perm = tuple(c[0] for c in cells)
            val = _bits_int(masks, perm, n)
            if best[0] is None or val < best[0]:
                best[:] = val, perm, path
            elif val == best[0]:
                gamma = [0] * n
                for a, b in zip(best[1], perm):
                    gamma[a] = b
                autos.append(gamma)
                # resume where this path parts from the best one's: the rest
                # below there is gamma's image of a subtree already searched
                return next(d for d, (a, b) in enumerate(zip(best[2], path)) if a != b)
            return n
        cell = cells[target]
        orbit = {v: v for v in cell}
        folded = 0
        explored = []
        taken = set()  # orbit labels of the explored children
        for w in sorted(cell):
            if folded < len(autos):
                for gamma in autos[folded:]:
                    if all(gamma[p] == p for p in path):
                        _join_orbits(orbit, gamma)
                folded = len(autos)
                taken = {orbit[u] for u in explored}
            if orbit[w] in taken:
                continue
            explored.append(w)
            taken.add(orbit[w])
            depth = search(_individualise(masks, cells, target, w), path + (w,))
            if depth < len(path):
                return depth
        return n

    search(_refine(masks, [list(range(n))], [(1 << n) - 1]), ())
    return best[0], best[1], tuple(map(tuple, autos))


def canonical_code(g: Graph) -> bytes:
    """Relabelling-invariant certificate: n byte plus packed minimal bitstring."""
    return bits_code(g.n, edge_bits(g.edges))


def edge_bits(edges) -> int:
    """The adjacency bits of an edge list in graph6's column order: edge
    (i, j), i < j, at bit C(j, 2) + i.  A pair may come in either order, and
    a repeated pair sets its bit once."""
    bits = 0
    for i, j in edges:
        if i > j:
            i, j = j, i
        bits |= 1 << (j * (j - 1) // 2 + i)
    return bits


def bits_code(n: int, bits: int) -> bytes:
    """The canonical code of the n-vertex graph whose `edge_bits` are `bits`,
    from the bounded cache `_labelled`."""
    return _labelled(n, bits)[0]


@lru_cache(maxsize=4096)
def code_graph(code: bytes) -> Graph:
    """The canonical form a code spells: vertex k is position k of the witness."""
    val = int.from_bytes(code[1:], "big")
    pairs = list(combinations(range(code[0]), 2))  # row by row; the first holds the top bit
    return Graph(code[0], frozenset(p for k, p in enumerate(reversed(pairs)) if val >> k & 1))


@dataclass(frozen=True)
class IsoClass:
    """An isomorphism type, carried as its canonical code."""

    code: bytes

    @property
    def v(self) -> int:
        return self.code[0]

    @property
    def e(self) -> int:
        return int.from_bytes(self.code[1:], "big").bit_count()

    @property
    def rep(self) -> Graph:
        """The canonical form the code spells."""
        return code_graph(self.code)

    def sort_key(self):
        return (self.v, self.e, self.code)


class SubsetTable(NamedTuple):
    """The induced subgraphs of one graph g, tallied over its vertex subsets.

    `codes[mask]` is the canonical code of g[mask], where bit v of the mask
    is vertex v; `counts` maps each code to the number of masks that carry
    it; `first` maps it to the smallest such mask.  A code's first byte is
    its vertex count, so one table serves every order.  Tables are cached
    and shared: read them, never modify them.
    """

    codes: tuple
    counts: dict
    first: dict


def _subset_bits(masks, n) -> list:
    """bits[S] for every vertex subset S of the graph g with these adjacency
    masks: g[S], relabelled in increasing order, with edge (i, j), i < j, at
    bit C(j, 2) + i, which is graph6's column order.  The top vertex t of S
    is vertex |S| - 1 of g[S], so its column lands above bits[S - t]."""
    bits = [0] * (1 << n)
    for t in range(1, n):
        adj = masks[t]
        col = [0] * (1 << t)  # col[r]: t's adjacency to the vertices of r, by rank in r
        for r in range(1, 1 << t):
            top = r.bit_length() - 1
            k = r.bit_count() - 1  # top's rank in r
            col[r] = col[r ^ 1 << top] | (adj >> top & 1) << k
            bits[r | 1 << t] = bits[r] | col[r] << (k + 1) * k // 2
    return bits


def _column_masks(k: int, bits: int) -> list:
    """The adjacency masks of the k-vertex graph that `bits` spells in
    `edge_bits`' order."""
    masks = [0] * k
    for j in range(1, k):
        col = bits >> j * (j - 1) // 2 & (1 << j) - 1  # j's neighbours below j
        masks[j] = col
        while col:
            low = col & -col
            masks[low.bit_length() - 1] |= 1 << j
            col ^= low
    return masks


@lru_cache(maxsize=256)
def subset_table(g: Graph) -> SubsetTable:
    """One pass over the 2^n vertex subsets of g, in increasing mask order.

    Each g[mask] is canonicalised from its labelled adjacency bits by
    `bits_code`, so a labelled subset met before, in this table or another,
    is read from the cache.  The first mask that carries a code is its
    `first`.
    """
    codes, counts, first = [], {}, {}
    for mask, bits in enumerate(_subset_bits(adjacency_masks(g), g.n)):
        code = bits_code(mask.bit_count(), bits)
        codes.append(code)
        if code in counts:
            counts[code] += 1
        else:
            counts[code], first[code] = 1, mask
    return SubsetTable(tuple(codes), counts, first)


def induced_type_table(g: Graph, k: int) -> dict:
    """code -> count over all k-vertex induced subgraphs of g."""
    return {code: cnt for code, cnt in subset_table(g).counts.items() if code[0] == k}


def count_induced(g: Graph, f: Graph) -> int:
    """The number of induced subgraphs of g isomorphic to f.

    It reads g's subset table, so the first count on a g visits all 2^n
    vertex subsets whatever the order of f.
    """
    if f.n > g.n:
        return 0
    return subset_table(g).counts.get(canonical_code(f), 0)


def subgraph_type_table(g: Graph, m: int) -> dict:
    """code -> count over all m-edge subgraphs of g (vertex set = edge endpoints)."""
    table = {}
    edges = g.sorted_edges()
    for subset in combinations(edges, m):
        verts = sorted({x for e in subset for x in e})
        pos = {v: i for i, v in enumerate(verts)}
        sub = graph(len(verts), [(pos[u], pos[v]) for u, v in subset])
        code = canonical_code(sub)
        table[code] = table.get(code, 0) + 1
    return table


@lru_cache(maxsize=1024)
def _pattern(f: Graph) -> tuple:
    """(plan, degrees, |Aut f|): the order in which embeddings place f's
    vertices, f's degrees in decreasing order, and emb(f -> f).

    The plan puts each vertex of f after as many of its neighbours as
    possible, and gives each position the earlier positions adjacent to it
    and its degree.
    """
    masks = adjacency_masks(f)
    order, placed = [], 0
    while len(order) < f.n:
        v = max((u for u in range(f.n) if not placed >> u & 1),
                key=lambda u: ((masks[u] & placed).bit_count(), masks[u].bit_count()))
        order.append(v)
        placed |= 1 << v
    plan = tuple((tuple(j for j in range(i) if masks[v] >> order[j] & 1), masks[v].bit_count())
                 for i, v in enumerate(order))
    degrees = tuple(sorted((m.bit_count() for m in masks), reverse=True))
    return plan, degrees, _embedding_count(plan, masks)


def automorphism_count(f: Graph) -> int:
    """|Aut f|, counted as emb(f -> f)."""
    return _pattern(f)[2]


def automorphism_generators(g: Graph) -> tuple:
    """Maps old -> old, as tuples, that generate Aut g: those `_search` found
    on g's first-leaf form, each sigma mapped back through the first leaf's
    ordering perm to gamma[perm[k]] = perm[sigma[k]]."""
    _code, perm, form = _labelled(g.n, edge_bits(g.edges))
    pos = sorted(range(g.n), key=perm.__getitem__)  # perm's inverse
    return tuple(tuple([perm[sigma[p]] for p in pos]) for sigma in _search(form)[2])


def _embedding_count(plan: tuple, gmasks: list) -> int:
    """Injective maps V(f) -> V(g) that send every edge of f to an edge of g,
    for the graph g with adjacency masks `gmasks`.

    f is given by its plan, and the backtrack places its vertices in the
    plan's order.  A vertex's candidates are the common g-neighbours of its
    placed neighbours' images, less the used vertices, kept where the g-degree
    is at least its f-degree; the candidates of the last vertex are counted,
    not visited.
    """
    gdeg = [m.bit_count() for m in gmasks]
    levels = [(back, sum(1 << x for x, d in enumerate(gdeg) if d >= deg)) for back, deg in plan]
    image = [0] * len(plan)
    last = len(plan) - 1

    def extend(i, used):
        back, cand = levels[i]
        cand &= ~used
        for j in back:
            cand &= gmasks[image[j]]
        if i == last:
            return cand.bit_count()
        total = 0
        while cand:
            low = cand & -cand
            image[i] = low.bit_length() - 1
            total += extend(i + 1, used | low)
            cand ^= low
        return total

    return extend(0, 0) if plan else 1


@lru_cache(maxsize=8192)
def count_subgraphs(g: Graph, f: Graph) -> int:
    """The number of subgraphs of g isomorphic to f; f may not have isolated vertices.

    Every copy of f in g is hit by exactly |Aut f| embeddings of f, so the
    count is emb(f -> g) // emb(f -> f).  An embedding maps the k vertices of
    largest degree in f to k distinct vertices of g, each of degree at least
    the k-th largest of f, so unless g's degrees in decreasing order are at
    least f's place by place there is no copy, and no backtrack is run.
    """
    if f.has_isolated_vertex():
        raise DomainError("count_subgraphs requires f without isolated vertices")
    if f.n > g.n or f.e > g.e:
        return 0
    plan, degrees, automorphisms = _pattern(f)
    gmasks = adjacency_masks(g)
    if any(d > h for d, h in zip(degrees, sorted((m.bit_count() for m in gmasks), reverse=True))):
        return 0
    return _embedding_count(plan, gmasks) // automorphisms


def kelly_count(deck, f: Graph, induced: bool = False) -> int:
    """Count copies of f in the graph behind a vertex deck of n = len(deck) cards.

    Valid for v(f) < n.  Exact division is a consistency certificate: a
    remainder proves the deck is not the vertex deck of any graph.
    """
    n = len(deck)
    if f.n >= n:
        raise DomainError(f"kelly_count needs v(f) < n, got {f.n} >= {n}")
    counter = count_induced if induced else count_subgraphs
    return exact_div(sum(counter(card, f) for card in deck), n - f.n,
                     "card counts for f", InconsistentDeckError)
