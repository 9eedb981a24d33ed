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
stored representative, and `canonical_rep(g)` is `code_graph(canonical_code(g))`.
Decoded codes are cached: every caller that decodes a code gets the same
`Graph`, which the caches keyed on graphs, such as `count_subgraphs`', share.

Refinement counts neighbours only in the cells that split in the round
before, less the last fragment of each: the root in its one cell, a child
that split w off a cell of its parent's equitable partition in {w}.  This
gives the ordered partition that counting in every cell gives.  Each cell a
round starts from has constant counts in every cell of the partition the
round before started from, so a cell that did not split neither splits nor
orders it; the last fragment's count is the old cell's less the others', and
as it stands after them in the signature it never decides an order either.

The search runs once per first-leaf form.  `_canon(g)` descends to the first
leaf, individualising the least vertex of the first non-singleton cell, with
ordering perm (new -> old); g relabelled by perm, packed like a code, is the
form.  `_search(form)` is cached per form, and `_canon` maps its witness back
by x -> perm[x] and each automorphism sigma to gamma[perm[k]] = perm[sigma[k]].
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
is emb(f -> g) // emb(f -> f).  `subgraph_type_table(g, m)` canonicalises every
m-edge subset of g instead.  No code in `reconkit` calls it any more; it stays
only because the benchmark's `perfbench/tracer.py` names it in `LAYERS`.

Induced subgraphs are counted from one table per graph, `subset_table(g)`:
a single pass over the vertex subsets of g, as bitmasks 0 .. 2^n - 1, stores
the canonical code of each g[mask], the number of masks per code, and the
first mask of each code.  The automorphisms the search of g found generate
Aut g, and an automorphism maps g[S] onto an isomorphic g[gamma(S)], so the
pass canonicalises one subset per orbit, the smallest, and gives its code to
the whole orbit; every entry is the one that canonicalising each subset
would give.  Since a code starts with its vertex
count, the one table answers every order:
`count_induced(g, f)` is a lookup of f's code (the empty f counts once, from
mask 0) and `induced_type_table(g, k)` is the table's slice at order k.  The
N-matrix of `deck` is tallied from the same codes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import NamedTuple

from .errors import DomainError, InconsistentDeckError
from .graphcore import Graph, adjacency_masks, graph, induced_subgraph

__all__ = [
    "canonical_code",
    "canonical_rep",
    "code_graph",
    "are_isomorphic",
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


# Labelled graphs and first-leaf forms per seed-1 bench pass: `recon` 597 and
# 172, `build` 1,120 and 345, `decks` 1,466 and 213, `sweep` 860 and 53; 32,886
# and 13,608 in `all_graphs(8)`.  At 16384 each, a pass, an n <= 7 sweep (12.7k
# graphs) and every form up to 8 vertices stay cached; a 2^16 subset table or
# a cold n = 10 deck (61k graphs) evicts, but what they canonicalise again,
# the decoded codes, was used recently.
@lru_cache(maxsize=16384)
def _canon(g: Graph):
    """Return (minimal bitstring as int, witness permutation new->old, automorphisms).

    `_search` of the first-leaf form, mapped back through the first leaf's
    ordering perm, as the module docstring describes.  The automorphisms, as
    tuples old -> old, generate Aut g.
    """
    n = g.n
    if n == 0:
        return 0, (), ()
    masks = adjacency_masks(g)
    cells = _refine(masks, [list(range(n))], [(1 << n) - 1])
    while len(cells) < n:
        target = next(i for i, c in enumerate(cells) if len(c) > 1)
        cells = _individualise(masks, cells, target, min(cells[target]))
    perm = tuple(c[0] for c in cells)
    val, witness, autos = _search(_pack(n, _bits_int(masks, perm, n)))
    pos = sorted(range(n), key=perm.__getitem__)  # perm's inverse
    return (val, tuple(perm[x] for x in witness),
            tuple(tuple(perm[sigma[pos[v]]] for v in range(n)) for sigma in autos))


@lru_cache(maxsize=16384)  # forms; the counts are above `_canon`
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
    return _pack(g.n, _canon(g)[0])


@lru_cache(maxsize=4096)
def code_graph(code: bytes) -> Graph:
    """The canonical form a code spells: vertex k is position k of the witness."""
    val = int.from_bytes(code[1:], "big")
    pairs = list(combinations(range(code[0]), 2))  # row by row; the first holds the top bit
    return Graph(code[0], frozenset(p for k, p in enumerate(reversed(pairs)) if val >> k & 1))


def canonical_rep(g: Graph) -> Graph:
    """The canonically relabelled form of g."""
    return code_graph(canonical_code(g))


def are_isomorphic(g: Graph, h: Graph) -> bool:
    return g.n == h.n and g.e == h.e and canonical_code(g) == canonical_code(h)


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

    @staticmethod
    def of(g: Graph) -> "IsoClass":
        return IsoClass(canonical_code(g))

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


@lru_cache(maxsize=256)
def subset_table(g: Graph) -> SubsetTable:
    """One pass over the 2^n vertex subsets of g, canonicalising one per orbit.

    An automorphism maps g[S] onto g[gamma(S)], so the subsets in one orbit
    of Aut g share a code.  Masks are visited in increasing order; a mask
    that no earlier orbit reached is the smallest of its orbit, is
    canonicalised, and its code is spread over the orbit under the
    automorphisms `_canon(g)` found.  Each code's first mask is therefore
    that of the per-mask pass.
    """
    n = g.n
    images = []  # per automorphism, the image of every mask
    for gamma in _canon(g)[2]:
        img = [0] * (1 << n)
        for m in range(1, 1 << n):
            low = m & -m
            img[m] = img[m ^ low] | 1 << gamma[low.bit_length() - 1]
        images.append(img)
    codes, counts, first = [None] * (1 << n), {}, {}
    for mask in range(1 << n):
        if codes[mask] is not None:
            continue
        code = canonical_code(induced_subgraph(g, [v for v in range(n) if mask >> v & 1]))
        codes[mask] = code
        orbit = [mask]
        for m in orbit:
            for img in images:
                x = img[m]
                if codes[x] is None:
                    codes[x] = code
                    orbit.append(x)
        if code in counts:
            counts[code] += len(orbit)
        else:
            counts[code], first[code] = len(orbit), mask
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
    """(plan, |Aut f|): the order in which embeddings place f's vertices, and emb(f -> f).

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
    return plan, _embedding_count(plan, f)


def automorphism_count(f: Graph) -> int:
    """|Aut f|, counted as emb(f -> f)."""
    return _pattern(f)[1]


def automorphism_generators(g: Graph) -> tuple:
    """Maps old -> old, as tuples, that generate Aut g: those the canonical search found."""
    return _canon(g)[2]


def _embedding_count(plan: tuple, g: Graph) -> int:
    """Injective maps V(f) -> V(g) that send every edge of f to an edge of g.

    f is given by its plan, and the backtrack places its vertices in the
    plan's order.  A vertex's candidates are the common g-neighbours of its
    placed neighbours' images, less the used vertices, kept where the g-degree
    is at least its f-degree; the candidates of the last vertex are counted,
    not visited.
    """
    gmasks = adjacency_masks(g)
    gdeg = [m.bit_count() for m in gmasks]
    levels = [(back, sum(1 << x for x in range(g.n) if gdeg[x] >= deg)) for back, deg in plan]
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
    count is emb(f -> g) // emb(f -> f).
    """
    if f.has_isolated_vertex():
        raise DomainError("count_subgraphs requires f without isolated vertices")
    if f.n > g.n or f.e > g.e:
        return 0
    plan, automorphisms = _pattern(f)
    return _embedding_count(plan, g) // automorphisms


def kelly_count(deck, f: Graph, induced: bool = False) -> int:
    """Count copies of f in the graph behind a vertex deck of n = len(deck) cards.

    Valid for v(f) < n.  Exact division is a consistency certificate: a
    remainder proves the deck is not the vertex deck of any graph.
    """
    n = len(deck)
    if f.n >= n:
        raise DomainError(f"kelly_count needs v(f) < n, got {f.n} >= {n}")
    counter = count_induced if induced else count_subgraphs
    total = sum(counter(card, f) for card in deck)
    q, r = divmod(total, n - f.n)
    if r:
        raise InconsistentDeckError(
            f"card counts for f sum to {total}, not divisible by {n - f.n}")
    return q
