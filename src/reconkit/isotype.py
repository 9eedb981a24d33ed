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
A signature is an int, not a tuple: one count, or the counts in several
splitters packed into fixed-width fields that order as the tuples do
(`_refine`).

Codes are read from adjacency bits.  `edge_bits` numbers the pairs in
graph6's column order, edge (i, j), i < j, at bit C(j, 2) + i, and
`bits_code(n, bits)` is the one entry point for codes: `canonical_code(g)`
passes g's bits and `whitney` those of each gluing, while the subset tables
below call `_labelled`, the cache behind it, directly, once per vertex
subset.  `_labelled` is the one cache per labelled graph, bounded and keyed
by the two integers; it decodes the bits into adjacency masks, so no `Graph`
is built or kept for it, and keeps the code alone.  `graphcore.all_graphs`
reads each candidate's code from `_descend`, the function behind it, since
no candidate is asked for again.

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

`_search` returns |Aut| as well, with no group listed.  Let w_0, w_1, ..
be the vertices individualised along the witness's path, and G_d the
automorphisms fixing w_0 .. w_{d-1}.  At each node of that path the search
finds the orbit of w_d under G_d complete under the maps it found that fix
w_0 .. w_{d-1} (`_search`'s docstring).  The leaf is discrete, so G_d for
the full path is trivial, and by orbit-stabiliser |G_d| = |orbit of w_d
under G_d| * |G_{d+1}|: |Aut| is the product of those orbit sizes.  The
search takes it at its end from the witness's path and the maps it found
(`_chain_order`), so no path is walked again, and `code_automorphism_count`
reads it off the cached search of the code.  Every orbit here, in `_pattern`
and in `whitney`'s gluing, is one closure, `_orbit`, over maps `_search`
found: the points reached from the given ones until no map adds a point.

The search prunes with the automorphisms it finds (McKay & Piperno, "Practical
graph isomorphism, II", J. Symb. Comput. 2014).  A leaf that ties the best
bitstring so far gives the automorphism mapping the best witness onto it.  A
node skips a child in the orbit of an explored child under the group that the
automorphisms found so far that fix the node's path pointwise generate; each
time such maps arrive, it closes all its explored children again in one call.
Refinement commutes with relabelling, so an automorphism of that group maps
the explored subtree onto the skipped one, leaf values included: the skipped
subtree holds no smaller value, and each of its values already occurs at an
earlier leaf.  The minimum and its first witness are therefore those of the
full search, and codes, witness orderings and canonical forms are unchanged
by the pruning.  The automorphism a tying leaf gives maps the best leaf's
path onto the leaf's own: it fixes their common prefix and maps the best
path's next vertex onto this path's.  The rest of the subtree where the two
paths part is therefore its image of a subtree already searched, and the
search returns to that depth.

`count_subgraphs(g, f)` is the number of subgraphs of g isomorphic to f, where
a subgraph is identified with its edge set (its vertex set is the set of edge
endpoints); f must therefore have no isolated vertices.  It counts copies,
not embeddings.  An embedding, an injective map V(f) -> V(g) that sends
every edge of f to an edge of g, maps f onto the copy made of the images of
f's edges; since every vertex of f is an edge endpoint, two embeddings hit
the same copy exactly when they differ by an automorphism of f.  The
backtrack over adjacency bitmasks keeps one of them per copy, by the
symmetry-breaking conditions that `_pattern` reads off f's stabiliser chain
(Grochow and Kellis, RECOMB 2007), orbits of maps `_search` found.  A pair
whose degrees rule out an embedding, g's degrees in decreasing order below
f's at some place, is answered 0 before the backtrack.
`subgraph_type_table(g, m)` canonicalises every m-edge subset of g instead.
No code in `reconkit` calls it any more; it stays only because the
benchmark's `perfbench/tracer.py` names it in `LAYERS`.

Induced subgraphs are counted from one table per graph, `subset_table(g)`:
a single pass over the vertex subsets of g, as bitmasks 0 .. 2^n - 1 in
increasing order, stores the canonical code of each g[mask], the number of
masks per code, and the first mask of each code.  Every subset is
canonicalised from its labelled adjacency bits, not from a `Graph`:
`_subset_bits` builds the bits of g[S] from those of g[S - t] for the top
vertex t of S, whose column lands above them, and `_labelled` reads the code,
so a labelled subset that this table or an earlier one met is a cache hit.
The pass asks for no automorphism of g.  Since a code starts with its vertex
count, the one table answers every order: `count_induced(g, f)` is a lookup
of f's code (the empty f counts once, from mask 0) and
`induced_type_table(g, k)` is the table's slice at order k.  The N-matrix of
`deck` is tallied from the table of g's canonical form, not of g: there the
vertex subsets in one orbit of Aut(g) often induce equal labelled bits, and so
share one cached code (`deck`'s module docstring says why).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from operator import getitem
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

    A vertex's signature is its count in the one splitter, or its counts in
    several packed into one int, the first splitter's most significant.  A
    count is at most n - 1, below 2^w for w the bit length of n, so each
    count takes w bits and the ints order as the tuples of counts would.  A
    two-vertex cell under one splitter is split by comparing its two counts.
    """
    width = len(masks).bit_length()
    while splitters:
        one = splitters[0] if len(splitters) == 1 else None
        new_cells, new_splitters = [], []
        for cell in cells:
            if len(cell) == 1:
                new_cells.append(cell)
                continue
            if one is not None and len(cell) == 2:
                a, b = cell
                ca, cb = (masks[a] & one).bit_count(), (masks[b] & one).bit_count()
                if ca == cb:
                    new_cells.append(cell)
                    continue
                if ca > cb:
                    a, b = b, a
                new_cells += [[a], [b]]
                new_splitters.append(1 << a)
                continue
            groups = {}
            for v in cell:
                mv = masks[v]
                if one is not None:
                    sig = (mv & one).bit_count()
                else:
                    sig = 0
                    for s in splitters:
                        sig = sig << width | (mv & s).bit_count()
                group = groups.get(sig)
                if group is None:
                    groups[sig] = [v]
                else:
                    group.append(v)
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


def _orbit(points, gens, act=getitem) -> set:
    """The union of the orbits of `points` under the group the maps `gens`
    generate, where `act(gamma, x)` is the image of x under gamma."""
    orbit = set(points)
    todo = list(orbit)
    for x in todo:
        for gamma in gens:
            y = act(gamma, x)
            if y not in orbit:
                orbit.add(y)
                todo.append(y)
    return orbit


def _pack(n: int, val: int) -> bytes:
    """A code's bytes: n, then the n(n-1)/2 bits of val, big-endian."""
    return bytes([n]) + val.to_bytes((n * (n - 1) // 2 + 7) // 8, "big")


def _form_masks(form: bytes) -> list:
    """The adjacency masks of a graph packed like a code: row i of its upper
    triangle holds the pairs (i, i + 1) .. (i, n - 1), highest first, so bit
    b of the row is the pair (i, n - 1 - b)."""
    n = form[0]
    val = int.from_bytes(form[1:], "big")
    masks = [0] * n
    shift = n * (n - 1) // 2
    for i in range(n - 1):
        shift -= n - 1 - i
        row = val >> shift & (1 << n - 1 - i) - 1
        while row:
            low = row & -row
            j = n - low.bit_length()
            masks[i] |= 1 << j
            masks[j] |= 1 << i
            row ^= low
    return masks


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
        for target, cell in enumerate(cells):
            if len(cell) > 1:
                break
        cells = _individualise(masks, cells, target, min(cell))
    perm = bytes(c[0] for c in cells)
    form = _pack(k, _bits_int(masks, perm, k))
    return _pack(k, _search(form)[0]), perm, form


# Labelled graphs, as (n, bits), per seed-1 bench pass: `recon` 482, `build`
# 965, `decks` 720, `sweep` 205; 11,159 in an n <= 7 sweep with every check.
# At 16384 these stay cached; the table of one 16-vertex graph (54,981
# distinct labelled subsets in a seeded G(16, 1/2)) evicts.  An entry is two
# ints and a code: 16384 from the subsets of a seeded G(15, 1/2) hold
# 4.3 MB, about 260 bytes each (tracemalloc).  `all_graphs` adds none.
@lru_cache(maxsize=16384)
def _labelled(k: int, bits: int) -> bytes:
    return _descend(k, bits)[0]


# First-leaf forms per seed-1 bench pass: `recon` 173, `build` 346, `decks`
# 139, `sweep` 54; 13,608 in `all_graphs(8)`.  At 16384 a pass, an n <= 7
# sweep and every form up to 8 vertices stay cached.
@lru_cache(maxsize=16384)
def _search(form: bytes, fixed=()):
    """(minimal bitstring as int, witness new->old, automorphisms, |Aut|) of
    a packed graph.

    The search prunes by automorphism, as the module docstring describes.
    The automorphisms, as tuples old -> old, are the ones it found, and they
    generate the group.  At each node of the witness's path, take the orbit
    of the witness's child under the automorphisms fixing the path: no child
    of it comes first, or the witness would lie under that child; each later
    one is skipped as in the `_orbit` of the explored children under the
    maps found, or is searched until a leaf ties the witness, which gives a
    map, fixing the path, onto it; only a tie returns the search from below
    that child.  |Aut| is the product of those orbits' sizes, the
    `_chain_order` of the maps found along the witness's path.

    Given vertices `fixed` (uncached, by `__wrapped__`), the search starts
    from each of them in a cell of its own: the maps and the order are then
    their pointwise stabiliser's, and the value and witness not the code's.
    """
    n = form[0]
    masks = _form_masks(form)  # searched once: keep no decoded graph
    best = [None, None, None]  # value, witness, the witness's path
    autos = []  # automorphisms as lists old -> old

    def search(cells, path):
        """Search below `path`; return the depth the search resumes at."""
        for target, cell in enumerate(cells):
            if len(cell) > 1:
                break
        else:
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
        fixing, folded = [], 0  # the maps of autos[:folded] that fix the path
        explored, covered = [], set()  # covered: the explored children's orbits
        for w in sorted(cell):
            if folded < len(autos):
                fixing += [gamma for gamma in autos[folded:] if all(gamma[p] == p for p in path)]
                folded = len(autos)
                covered = _orbit(explored, fixing)
            if w in covered:
                continue
            explored.append(w)
            covered |= _orbit((w,), fixing)
            depth = search(_individualise(masks, cells, target, w), path + (w,))
            if depth < len(path):
                return depth
        return n

    search(_refine(masks, [[w] for w in fixed] + [[u for u in range(n) if u not in fixed]],
                   [1 << w for w in fixed] + [(1 << n) - 1]), ())
    return best[0], best[1], tuple(map(tuple, autos)), _chain_order(autos, best[2])


def _chain_order(gens, points) -> int:
    """The product of the orbit sizes of `points` in turn, each the `_orbit`
    under the maps of `gens` that fix the points before it.  If the maps lie
    in a group G whose identity alone fixes every point, it is at most |G|,
    and equal exactly when each orbit is the one under G's elements that
    fix the points before it."""
    order = 1
    for w in points:
        order *= len(_orbit((w,), gens))
        gens = [gamma for gamma in gens if gamma[w] == w]
    return order


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
    `_labelled`, so a labelled subset met before, in this table or another,
    is read from the cache.  The first mask that carries a code is its
    `first`.
    """
    codes, counts, first = [], {}, {}
    for mask, bits in enumerate(_subset_bits(adjacency_masks(g), g.n)):
        code = _labelled(mask.bit_count(), bits)
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
# cached.  A miss reads f's code through `_labelled` and that code's cached
# `_search`, and makes at most n - 2 prefixed searches (5 over all 1,043).
@lru_cache(maxsize=2048)
def _pattern(f: Graph) -> tuple:
    """(plan, degrees): the order in which the backtrack places the vertices
    of f's canonical form, and f's degrees in decreasing order.

    The plan is laid out on the form `canonical_code(f)` spells, so f on any
    labels gets one plan and searches only its code.  It puts each vertex
    after as many of its neighbours as possible.  Each position carries the
    earlier positions adjacent to it, its degree, and the earlier positions
    whose images must be smaller than its own: the symmetry-breaking
    conditions of Grochow and Kellis ("Network motif discovery using
    subgraph enumeration and symmetry-breaking", RECOMB 2007), read off f's
    stabiliser chain in plan order.  For position i, the orbit of its vertex
    v_i under G_i, the automorphisms fixing v_0 .. v_{i-1}, is the `_orbit`
    of v_i under generators of G_i from the canonical search, G_0 = Aut f
    from the cached `_search` of f's code.  For G_{i+1} the maps that fix
    v_i are kept: their orbits along the rest of the plan (`_chain_order`)
    lie in G_{i+1}'s, so if their sizes multiply to
    |G_{i+1}| = |G_i| / |orbit| each is G_{i+1}'s; if not, an uncached
    `_search` with v_0 .. v_i fixed gives generators of G_{i+1}.  Each other
    vertex of the orbit sits at a later position, whose image must then
    exceed v_i's.  Of the embeddings that differ by an automorphism of f
    exactly one meets every condition: the one whose image of v_0 is least
    over its orbit, then of v_1 over its orbit in G_1, and so on.
    """
    form = canonical_code(f)
    masks = _form_masks(form)
    order, placed = [], 0
    while len(order) < f.n:
        v = max((u for u in range(f.n) if not placed >> u & 1),
                key=lambda u: ((masks[u] & placed).bit_count(), masks[u].bit_count()))
        order.append(v)
        placed |= 1 << v
    smaller = [[] for _ in order]
    gens, size = _search(form)[2:]
    for i, v in enumerate(order):
        orbit = _orbit((v,), gens)
        for u in orbit - {v}:
            smaller[order.index(u)].append(i)
        size //= len(orbit)
        gens = [gamma for gamma in gens if gamma[v] == v]
        if _chain_order(gens, order[i + 1:]) < size:
            gens = _search.__wrapped__(form, order[:i + 1])[2]
    links = [(tuple(j for j in range(i) if masks[v] >> order[j] & 1), masks[v].bit_count())
             for i, v in enumerate(order)]
    plan = tuple((back, deg, tuple(low)) for (back, deg), low in zip(links, smaller))
    degrees = tuple(sorted((m.bit_count() for m in masks), reverse=True))
    return plan, degrees


def code_automorphisms(code: bytes) -> tuple:
    """Maps old -> old, as tuples, that generate Aut `code_graph(code)`: those
    `_search` finds on the canonical form the code spells."""
    return _search(code)[2]


def code_automorphism_count(code: bytes) -> int:
    """|Aut `code_graph(code)`|, the product of the orbit sizes along the
    witness's path of `_search(code)`, as the module docstring argues."""
    return _search(code)[3]


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


def kelly_count(cards, f: Graph, induced: bool = False) -> int:
    """Count copies of f in the graph behind a vertex deck of n cards.

    `cards` is the deck as a multiset: (card, multiplicity) pairs whose
    multiplicities sum to n, so each distinct card is counted once.  Valid
    for v(f) < n.  Exact division is a consistency certificate: a remainder
    proves the deck is not the vertex deck of any graph.
    """
    n = sum(m for _card, m in cards)
    if f.n >= n:
        raise DomainError(f"kelly_count needs v(f) < n, got {f.n} >= {n}")
    if induced:
        code = canonical_code(f)
        total = sum(m * subset_table(card).counts.get(code, 0) for card, m in cards)
    else:
        total = sum(m * count_subgraphs(card, f) for card, m in cards)
    return exact_div(total, n - f.n, "card counts for f", InconsistentDeckError)
