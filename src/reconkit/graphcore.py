"""Finite simple graphs: construction, graph6 I/O, induced subgraphs, blocks,
and the hamiltonian cycles of every induced subgraph.

Vertices are always 0..n-1.  All values are immutable after construction and
every operation here is pure, so graphs can be shared freely across threads
and worker processes.  `cycles_on_sets` is the one cycle count on vertex
sets: the oracles sum it by length, and `polydeck` reads it set by set.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from types import MappingProxyType
from typing import Iterable, Sequence

from .errors import DomainError, Graph6ParseError

__all__ = [
    "Graph",
    "graph",
    "empty_graph",
    "complete",
    "cycle",
    "path",
    "elementary_blocks",
    "elementary_graph",
    "disjoint_union",
    "parse_graph6",
    "write_graph6",
    "induced_subgraph",
    "vertex_deck",
    "blocks",
    "adjacency_masks",
    "cycles_on_sets",
    "all_graphs",
]


@dataclass(frozen=True)
class Graph:
    """A labelled simple graph: vertex count plus a frozenset of (u, v) pairs, u < v."""

    n: int
    edges: frozenset

    def __post_init__(self):
        if self.n < 0:
            raise DomainError("vertex count must be nonnegative")
        for e in self.edges:
            if not (type(e) is tuple and len(e) == 2 and type(e[0]) is int
                    and type(e[1]) is int and 0 <= e[0] < e[1] < self.n):
                raise DomainError(f"edge {e!r} is not a pair (u, v) of ints with "
                                  f"0 <= u < v < {self.n}")

    @property
    def e(self) -> int:
        return len(self.edges)

    def has_isolated_vertex(self) -> bool:
        return len({x for e in self.edges for x in e}) < self.n

    def sorted_edges(self) -> list:
        return sorted(self.edges)

    def __repr__(self):
        return f"Graph(n={self.n}, edges={self.sorted_edges()})"


def graph(n: int, edges: Iterable = ()) -> Graph:
    """Build a Graph from any iterable of vertex pairs, normalising orientation."""
    norm = set()
    for u, v in edges:
        if u == v:
            raise DomainError(f"loop at vertex {u}")
        norm.add((min(u, v), max(u, v)))
    return Graph(n, frozenset(norm))


def empty_graph(n: int) -> Graph:
    return Graph(n, frozenset())


def complete(n: int) -> Graph:
    return graph(n, combinations(range(n), 2))


def cycle(n: int) -> Graph:
    if n < 3:
        raise DomainError("cycle needs at least 3 vertices")
    return graph(n, [(i, (i + 1) % n) for i in range(n)])


def path(n: int) -> Graph:
    return graph(n, [(i, i + 1) for i in range(n - 1)])


def disjoint_union(*gs: Graph) -> Graph:
    n = 0
    edges = []
    for g in gs:
        edges.extend((u + n, v + n) for u, v in g.edges)
        n += g.n
    return graph(n, edges)


def elementary_blocks(parts: Sequence[int]) -> list:
    """The components of an elementary graph: part 2 gives K2, part r >= 3 gives C_r."""
    if any(p < 2 for p in parts):
        raise DomainError(f"elementary part {min(parts)} < 2")
    return [path(2) if p == 2 else cycle(p) for p in parts]


def elementary_graph(parts: Sequence[int]) -> Graph:
    """Disjoint union of the elementary blocks of `parts`."""
    pieces = elementary_blocks(parts)
    return disjoint_union(*pieces) if pieces else empty_graph(0)


def adjacency_masks(g: Graph) -> list:
    """Per-vertex neighbour bitmasks."""
    masks = [0] * g.n
    for u, v in g.edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return masks


@lru_cache(maxsize=128)
def cycles_on_sets(g: Graph) -> MappingProxyType:
    """vertex mask S -> hamiltonian cycles of g[S], for each S with |S| >= 3 that has one.

    A path DP anchored at min S: paths[S][w] counts the paths from min S to
    w with vertex set S.  They grow in increasing S through the vertices
    above min S, so each S is complete before it is read, and each cycle
    closes once from each end.  The table is cached and shared, so it comes
    read-only.
    """
    masks = adjacency_masks(g)
    out = {}
    paths = [None] * (1 << g.n)  # vertex mask s -> {w: paths from min s to w on s}
    for v in range(g.n):
        paths[1 << v] = {v: 1}
    for s in range(1, 1 << g.n):
        ends = paths[s]
        if ends is None:
            continue
        paths[s] = None
        low = s & -s
        if s.bit_count() >= 3:
            hc = sum(c for w, c in ends.items() if masks[w] & low) // 2
            if hc:
                out[s] = hc
        above = -(low << 1)  # the vertices above min s
        for w, c in ends.items():
            nxt = masks[w] & above & ~s
            while nxt:
                b = nxt & -nxt
                nxt ^= b
                ext = paths[s | b]
                if ext is None:
                    ext = paths[s | b] = {}
                x = b.bit_length() - 1
                ext[x] = ext.get(x, 0) + c
    return MappingProxyType(out)


# ---------------------------------------------------------------------------
# graph6 text format
#
# Header byte encodes n (offset 63, n <= 62 here).  The upper triangle is
# read in column order -- for j in 1..n-1, for i in 0..j-1 -- packed into
# 6-bit groups, most significant bit first, zero-padded, each group offset
# by 63.
# ---------------------------------------------------------------------------

_G6_PREFIX = ">>graph6<<"


def parse_graph6(text: str) -> Graph:
    """Decode one line of standard graph6 (n <= 62)."""
    s = text.strip()
    if s.startswith(_G6_PREFIX):
        s = s[len(_G6_PREFIX):]
    if not s:
        raise Graph6ParseError("empty graph6 string", 0)
    head = ord(s[0])
    if head == 126:
        raise Graph6ParseError("graphs with more than 62 vertices are not supported", 0)
    if not (63 <= head <= 125):
        raise Graph6ParseError(f"bad header byte {head}", 0)
    n = head - 63
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    body = s[1:]
    if len(body) < nbytes:
        raise Graph6ParseError("truncated bit vector", len(s))
    if len(body) > nbytes:
        raise Graph6ParseError("trailing garbage after bit vector", 1 + nbytes)
    bits = []
    for k, ch in enumerate(body):
        val = ord(ch) - 63
        if not (0 <= val <= 63):
            raise Graph6ParseError(f"bad data byte {ord(ch)}", 1 + k)
        bits.extend((val >> (5 - b)) & 1 for b in range(6))
    if any(bits[nbits:]):
        raise Graph6ParseError("nonzero padding bits", 1 + (nbits // 6))
    edges = []
    idx = 0
    for j in range(1, n):
        for i in range(j):
            if bits[idx]:
                edges.append((i, j))
            idx += 1
    return graph(n, edges)


def write_graph6(g: Graph) -> str:
    """Encode a graph as canonical graph6 text (zero padding, no header prefix)."""
    if g.n > 62:
        raise DomainError(f"graph6 output limited to 62 vertices, got {g.n}")
    bits = []
    for j in range(1, g.n):
        for i in range(j):
            bits.append(1 if (i, j) in g.edges else 0)
    while len(bits) % 6:
        bits.append(0)
    out = [chr(g.n + 63)]
    for k in range(0, len(bits), 6):
        val = 0
        for b in bits[k:k + 6]:
            val = (val << 1) | b
        out.append(chr(val + 63))
    return "".join(out)


# ---------------------------------------------------------------------------
# Subgraph extraction and decomposition
# ---------------------------------------------------------------------------

def induced_subgraph(g: Graph, s: Iterable) -> Graph:
    """Subgraph induced on vertex set `s`, relabelled 0..|s|-1 in sorted order."""
    verts = sorted(set(s))
    for v in verts:
        if not (0 <= v < g.n):
            raise DomainError(f"vertex {v} out of range for n={g.n}")
    pos = {v: i for i, v in enumerate(verts)}
    # pos is increasing, so each pair keeps u < v and distinct edges stay distinct
    return Graph(len(verts), frozenset((pos[u], pos[v]) for u, v in g.edges
                                       if u in pos and v in pos))


def vertex_deck(g: Graph) -> list:
    """The multiset {G - v} of single-vertex-deleted subgraphs."""
    if g.n == 0:
        raise DomainError("the null graph has no vertex deck")
    full = set(range(g.n))
    return [induced_subgraph(g, full - {v}) for v in range(g.n)]


def _reach(masks: list, v: int, allowed: int) -> int:
    """Bitmask of the vertices joined to v by paths inside the vertex set `allowed`."""
    seen = frontier = 1 << v
    while frontier:
        step = 0
        for u in _bits(frontier):
            step |= masks[u]
        frontier = step & allowed & ~seen
        seen |= frontier
    return seen


def _bits(mask: int) -> list:
    return [v for v in range(mask.bit_length()) if mask >> v & 1]


def blocks(g: Graph) -> list:
    """Biconnected components (including bridges) as standalone graphs, sorted by (n, edges).

    Two edges xa and xb at a vertex x lie in one block iff a and b are joined
    in g - x, by a path that closes a cycle through both edges.  That
    suffices: lying in one block is an equivalence on edges, and any two edges
    of a block are linked by a chain of its edges in which consecutive ones
    share a vertex.  A union-find over edges, each keyed by the bitmask of its
    ends, merges the classes; a block is the subgraph its vertices induce.
    Isolated vertices yield no block.
    """
    masks = adjacency_masks(g)
    parent = {1 << u | 1 << v: 1 << u | 1 << v for u, v in g.edges}

    def find(e):
        while parent[e] != e:
            e = parent[e]
        return e

    for x in range(g.n):
        left = masks[x]
        while left:
            joined = masks[x] & _reach(masks, (left & -left).bit_length() - 1, ~(1 << x))
            left &= ~joined
            roots = [find(1 << x | 1 << b) for b in _bits(joined)]
            for r in roots:
                parent[r] = roots[0]
    spans = {}
    for e in parent:
        spans[find(e)] = spans.get(find(e), 0) | e
    return sorted((induced_subgraph(g, _bits(s)) for s in spans.values()),
                  key=lambda b: (b.n, b.sorted_edges()))


def all_graphs(max_n: int, min_edges: int = 0) -> list:
    """All isomorphism types with 1..max_n vertices, via vertex augmentation.

    A candidate joins a new vertex to a parent of one vertex less and is kept
    only when the new vertex has the largest degree in it, ties allowed
    (McKay, "Isomorph-free exhaustive generation", J. Algorithms 1998).  No
    type is lost: deleting a vertex of largest degree from any graph leaves
    a parent, and joining the vertex back passes the filter.  Deduplication
    uses canonical codes from reconkit.isotype, read from each candidate's
    adjacency bits without building it as a graph and without caching them,
    since each candidate is a new labelled graph; results are the canonical
    forms the codes spell, in code order, which puts smaller n first.
    """
    from .isotype import _descend, code_graph, edge_bits

    levels = {1: [empty_graph(1)]}
    for n in range(2, max_n + 1):
        seen = set()
        for parent in levels[n - 1]:
            pdeg = [m.bit_count() for m in adjacency_masks(parent)]
            pbits = edge_bits(parent.edges)
            for nbrs in range(1 << (n - 1)):
                d = nbrs.bit_count()
                if any(pdeg[i] + (nbrs >> i & 1) > d for i in range(n - 1)):
                    continue
                # the new vertex's column: edge (i, n - 1) is bit C(n - 1, 2) + i
                seen.add(_descend(n, pbits | nbrs << (n - 1) * (n - 2) // 2)[0])
        levels[n] = [code_graph(code) for code in sorted(seen)]
    out = []
    for n in range(1, max_n + 1):
        out.extend(g for g in levels[n] if g.e >= min_edges)
    return out
