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
into adjacency masks, so no `Graph` is built or kept for it, and keeps the
code alone.  `graphcore.all_graphs` reads each candidate's code from
`_descend`, the function behind it, since no candidate is asked for again.

The search runs once per first-leaf form.  `_descend` descends to the first
leaf, individualising the least vertex of the first non-singleton cell, with
ordering perm (new -> old); the graph relabelled by perm, packed like a code,
is the form.  `_search(form)` is cached per form; its witness maps back to
the graph's by x -> perm[x].
Refinement commutes with relabelling, so the form's tree is g's relabelled by
perm, only with children in another order: the minimum, the code, is g's.
The form's first leaf is the image of g's, so when it is minimal, as in
practice it is (every leaf of the `build` bench is), both witnesses are the
first leaf and the witness is g's own, and isomorphic graphs share one form,
the code.  Otherwise the two may pick different minimal leaves, which differ
by an automorphism.

A code is itself a packed graph, its canonical form: `code_automorphisms`
returns the generators of its group that `_search(code)` finds, on the
form's own labels.  A code is in practice the form of its graphs, so that
search is already cached.

`code_automorphism_count(code)` reads |Aut| off the same search, with no
group listed.  Let w_0, w_1, .. be the vertices individualised along the
witness's path, and G_d the automorphisms fixing w_0 .. w_{d-1}.  At each
node of that path the search finds the orbit of w_d under G_d complete
under the maps it found that fix w_0 .. w_{d-1} (`_search`'s docstring).
The leaf is discrete, so G_d for the full path is trivial, and by
orbit-stabiliser |G_d| = |orbit of w_d under G_d| * |G_{d+1}|: |Aut| is the
product of those orbit sizes.  The path is walked again from the witness,
since individualising w puts it at the front of its cell, where it stays,
and a level with no map fixing the path ends the product.  Only the cover
tables of `whitney` ask for it, so the searches that label graphs pay
nothing for it.

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
endpoints); f must therefore have no isolated vertices.  It counts copies,
not embeddings.  An embedding, an injective map V(f) -> V(g) that sends
every edge of f to an edge of g, maps f onto the copy made of the images of
f's edges; since every vertex of f is an edge endpoint, two embeddings hit
the same copy exactly when they differ by an automorphism of f.  The
backtrack over adjacency bitmasks keeps one of them per copy, by the
symmetry-breaking conditions that `_pattern` reads off f's stabiliser chain
(Grochow and Kellis, RECOMB 2007).  A pair whose degrees rule out an
embedding, g's degrees in decreasing order below f's at some place, is
answered 0 before the backtrack.  `subgraph_type_table(g, m)`
canonicalises every m-edge subset of g instead.  No code in `reconkit`
calls it any more; it stays only because the benchmark's
`perfbench/tracer.py` names it in `LAYERS`.

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
    "code_automorphisms",
    "code_automorphism_count",
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
# is two ints and a code: 16384 from the subsets of a seeded G(15, 1/2) hold
# 4.3 MB, about 260 bytes each (tracemalloc).  `all_graphs` adds none.
@lru_cache(maxsize=16384)
def _labelled(k: int, bits: int) -> bytes:
    return _descend(k, bits)[0]


# First-leaf forms per seed-1 bench pass: `recon` 173, `build` 346, `decks`
# 214, `sweep` 54; 13,608 in `all_graphs(8)`.  At 16384 a pass, an n <= 7
# sweep and every form up to 8 vertices stay cached.
@lru_cache(maxsize=16384)
def _search(form: bytes):
    """(minimal bitstring as int, witness new->old, automorphisms) of a packed graph.

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
    return _labelled(n, bits)


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


# Types without isolated vertices and at most 7 vertices: 1,043, which an
# n = 7 subject's counts walk in the same order for every graph.  At 1024 the
# walk evicted each pattern just before it came round again, so a dense
# 7-vertex graph missed on every lookup; at 2048 one walk's patterns stay
# cached, and a miss costs up to n(n - 1)/2 orbit searches.
@lru_cache(maxsize=2048)
def _pattern(f: Graph) -> tuple:
    """(plan, degrees): the order in which the backtrack places f's vertices,
    and f's degrees in decreasing order.

    The plan puts each vertex of f after as many of its neighbours as
    possible.  Each position carries the earlier positions adjacent to it,
    its degree, and the earlier positions whose images must be smaller than
    its own: the symmetry-breaking conditions of Grochow and Kellis ("Network
    motif discovery using subgraph enumeration and symmetry-breaking",
    RECOMB 2007), read off f's stabiliser chain in plan order.  For position
    i, the orbit of its vertex v_i under the automorphisms fixing v_0 ..
    v_{i-1} is found by one `_extends` search per later vertex of v_i's
    degree, so the group is never listed; each other vertex of the orbit sits
    at a later position, whose image must then exceed v_i's.  Of the
    embeddings that differ by an automorphism of f exactly one meets every
    condition: the one whose image of v_0 is least over its orbit, then of
    v_1 over its orbit in the stabiliser of v_0, and so on.
    """
    masks = adjacency_masks(f)
    order, placed = [], 0
    while len(order) < f.n:
        v = max((u for u in range(f.n) if not placed >> u & 1),
                key=lambda u: ((masks[u] & placed).bit_count(), masks[u].bit_count()))
        order.append(v)
        placed |= 1 << v
    links = [(tuple(j for j in range(i) if masks[v] >> order[j] & 1), masks[v].bit_count())
             for i, v in enumerate(order)]
    smaller = [[] for _ in order]
    for i, (_back, deg) in enumerate(links):
        for p in range(i + 1, f.n):
            if links[p][1] == deg and _extends(links, masks, order[:i] + [order[p]]):
                smaller[p].append(i)
    plan = tuple((back, deg, tuple(low)) for (back, deg), low in zip(links, smaller))
    degrees = tuple(sorted((m.bit_count() for m in masks), reverse=True))
    return plan, degrees


def _extends(links, masks, pins) -> bool:
    """Whether some automorphism of f, the graph with adjacency masks
    `masks`, maps the vertex at plan position k to pins[k] for each k <
    len(pins).  `links` gives each position's earlier neighbours and degree;
    the search places the positions in order and stops at its first
    success."""
    image = [0] * len(links)

    def extend(i, used):
        if i == len(links):
            return True
        back, deg = links[i]
        cand = (1 << pins[i] if i < len(pins) else (1 << len(links)) - 1) & ~used
        for j in back:
            cand &= masks[image[j]]
        while cand:
            low = cand & -cand
            image[i] = low.bit_length() - 1
            if masks[image[i]].bit_count() == deg and extend(i + 1, used | low):
                return True
            cand ^= low
        return False

    return extend(0, 0)


def code_automorphisms(code: bytes) -> tuple:
    """Maps old -> old, as tuples, that generate Aut `code_graph(code)`: those
    `_search` finds on the canonical form the code spells."""
    return _search(code)[2]


# Codes asked for their order, the blocks and unions of the cover tables:
# 145 in a seed-1 bench `decks` pass and in the vertex decks of all graphs
# with n <= 7, 1,371 and 4,576 in cold decks of a seeded G(9, 1/2) and
# G(10, 1/2).  At 8192, as for the unions' block types, a deck the CLI
# accepts computes each once.
@lru_cache(maxsize=8192)
def code_automorphism_count(code: bytes) -> int:
    """|Aut `code_graph(code)`|, the product of the orbit sizes along the
    witness's path of `_search(code)`, as the module docstring argues."""
    _val, witness, autos = _search(code)
    masks = adjacency_masks(code_graph(code))
    cells = _refine(masks, [list(range(code[0]))], [(1 << code[0]) - 1])
    order = 1
    while autos:  # the maps found that fix the path so far
        target = next(i for i, c in enumerate(cells) if len(c) > 1)
        w = witness[target]  # the cells before it are singletons
        orbit = [w]
        for x in orbit:
            for gamma in autos:
                if gamma[x] not in orbit:
                    orbit.append(gamma[x])
        order *= len(orbit)
        autos = [gamma for gamma in autos if gamma[w] == w]
        cells = _individualise(masks, cells, target, w)
    return order


def _embedding_count(plan: tuple, gmasks: list) -> int:
    """Injective maps V(f) -> V(g) that send every edge of f to an edge of g
    and meet the plan's symmetry-breaking conditions, for the graph g with
    adjacency masks `gmasks`: one map per copy of f in g.

    f is given by its plan, and the backtrack places its vertices in the
    plan's order.  A vertex's candidates are the common g-neighbours of its
    placed neighbours' images, less the used vertices, kept where the g-degree
    is at least its f-degree and above the images that the plan's conditions
    put below it; the candidates of the last vertex are counted, not visited.
    """
    gdeg = [m.bit_count() for m in gmasks]
    levels = [(back, smaller, sum(1 << x for x, d in enumerate(gdeg) if d >= deg))
              for back, deg, smaller in plan]
    image = [0] * len(plan)
    last = len(plan) - 1

    def extend(i, used):
        back, smaller, cand = levels[i]
        cand &= ~used
        for j in back:
            cand &= gmasks[image[j]]
        for j in smaller:
            cand &= -(2 << image[j])
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

    Each copy of f in g is counted once, by the one embedding of f that
    meets the symmetry-breaking conditions of f's plan (see `_pattern`).  An
    embedding maps the k vertices of largest degree in f to k distinct
    vertices of g, each of degree at least the k-th largest of f, so unless
    g's degrees in decreasing order are at least f's place by place there is
    no copy, and no backtrack is run.
    """
    if f.has_isolated_vertex():
        raise DomainError("count_subgraphs requires f without isolated vertices")
    if f.n > g.n or f.e > g.e:
        return 0
    plan, degrees = _pattern(f)
    gmasks = adjacency_masks(g)
    if any(d > h for d, h in zip(degrees, sorted((m.bit_count() for m in gmasks), reverse=True))):
        return 0
    return _embedding_count(plan, gmasks)


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
