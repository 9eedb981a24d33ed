"""Graph types as block multisets and the explicit subgraph expansion.

A 'type' is the multiset of isomorphism classes of a graph's blocks, keyed by
the sorted tuple of the blocks' canonical codes.  For a
type S0 = {F_1..F_k} of non-separable graphs, Kocay's counting identity

    prod <G, F_i>  =  sum over types S of  c(S0, S) <G, S>

relates the product of per-block counts to counts of whole types, where
c(S0, X) is the number of cover tuples of X by copies of the F_i and depends
only on the type of X.  Solving for <G, S0> and iterating yields an explicit
polynomial in non-separable subgraph counts; with Kelly-sourced counts on a
vertex deck this reconstructs every elementary spanning count and finally the
characteristic polynomial.  Blocks and unions are carried as codes, and
decoded (`isotype.code_graph`) where a graph is needed, never re-coded.

A cover table glues the blocks of its type one at a time onto partial
unions, one gluing per orbit of Aut u x Aut f: one shared set per Aut
f-orbit, and one target per orbit of Aut u and of the set's stabiliser, so
an orbit weighs |orbit of the set| x |orbit of the target| (`_glue`).  Each
orbit is glued at its first gluing in the full enumeration, so the tables,
their counts and their member order are those of gluing every map, and a
gluing inside u is read off u's code.  |Aut| of the blocks and unions comes
from the canonical search of their codes (`isotype.code_automorphism_count`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations
from math import prod

from .combi import (Polynomial, card_sum_coeffs, exact_div, multiset_symmetry,
                    partitions_min2, sachs_constant)
from .errors import ConsistencyError, DomainError, InconsistentDeckError
from .graphcore import Graph, blocks, cycle, elementary_blocks, graph, path
from .isotype import (IsoClass, bits_code, canonical_code, code_automorphism_count,
                      code_automorphisms, code_graph, count_subgraphs, edge_bits,
                      kelly_count)
from .polydeck import charpoly

__all__ = [
    "block_type",
    "type_key",
    "CoverTable",
    "covers_of_type",
    "count_type",
    "charpoly_from_vertex_deck",
]


def block_type(g: Graph) -> tuple:
    """The multiset of block certificates of g, as a sorted code tuple."""
    if g.has_isolated_vertex():
        raise DomainError("graph types are defined for graphs without isolated vertices")
    return type_key(blocks(g))


def type_key(members) -> tuple:
    """Type key of an explicit block multiset (no decomposition performed)."""
    return tuple(sorted(canonical_code(b) for b in members))


# One entry per union code: 145 in a bench `decks` pass, 4,576 in a cold
# n = 10 deck.
@lru_cache(maxsize=8192)
def _code_type(code: bytes) -> tuple:
    """The block type of the graph a code spells."""
    return block_type(code_graph(code))


@dataclass(frozen=True)
class CoverTable:
    """All union graphs of copies of a root family, grouped into types.

    `root` is the family's type key and `members` maps each union's
    canonical code to its cover count c(S0, X); `by_type` maps the type key
    of each union to that count, which is constant on a type.  `self_cover`
    is c(S0, S0), defined even when no member of the root type fits under
    the vertex bound.  `nonspanning_roots` holds the codes of the members of
    the root type with fewer than vmax vertices.
    """

    root: tuple
    vmax: int
    members: dict
    by_type: dict
    self_cover: int
    nonspanning_roots: tuple = ()


# One entry per (partial union, block, vmax): 131 in a bench `decks` pass,
# 278 in a whole n <= 7 sweep and 2,690 in a cold n = 10 deck.
@lru_cache(maxsize=4096)
def _glue(ucode: bytes, fcode: bytes, vmax: int) -> tuple:
    """The unions of u with one fresh copy of f, up to vmax vertices, where
    u and f are the canonical forms that `ucode` and `fcode` spell.

    Pairs each union's canonical code with its ways: the number of gluings
    (shared vertices of f, their images in u) that reach it, in the order
    the first gluing reaches each union.  The pairs depend only on the two
    codes and vmax; they are cached, so the tables of one deck glue each
    partial union to each block once.

    A gluing is a partial injection phi from V(f) into V(u), and the group
    Aut u x Aut f acts on gluings by phi -> alpha phi beta^-1.  The pair
    (alpha, beta) maps the union glued by phi onto the union glued by its
    image, so every gluing of one orbit reaches the same union.  The orbits
    are found without visiting every gluing.  For each number k of shared
    vertices, the shared sets A, the domains of the gluings, are walked in
    `combinations` order, and a set in the Aut f-orbit of an earlier one is
    skipped.  A representative A meets every orbit of gluings whose domain
    lies in its orbit, and the gluings with domain A of one such orbit form
    one orbit of Aut u x H, where H is the setwise stabiliser of A in Aut f:
    the orbit's size is |orbit of A| times the size of that orbit.  Aut u
    acts on the targets, the images of A's vertices in
    `permutations(range(u.n), k)` order, and H on their positions, through
    the Schreier generators over A's orbit (`_set_orbit`).  The first target
    of each target orbit is glued, as u's adjacency bits with f's mapped
    edges added, and canonicalised from those bits; a gluing that adds no
    edge, all of f mapped onto edges of u, is u itself, whose code is
    `ucode`.  The first gluing of every orbit in the full enumeration has a
    representative shared set and the first target of its orbit, so the
    gluings made, `ways`, and the order in which unions are first reached
    are those of gluing every map.
    """
    u, f = code_graph(ucode), code_graph(fcode)
    found = {}
    ugens = code_automorphisms(ucode)
    fgens = code_automorphisms(fcode)
    ubits = edge_bits(u.edges)
    for k in range(0, min(u.n, f.n) + 1):
        n = u.n + f.n - k
        if n > vmax:
            continue
        done = set()  # the shared sets of the orbits walked so far
        for shared in combinations(range(f.n), k):
            if shared in done:
                continue
            orbit_sets, pgens = _set_orbit(shared, fgens)
            done.update(orbit_sets)
            free = [v for v in range(f.n) if v not in shared]
            mapping = [0] * f.n
            for i, v in enumerate(free):
                mapping[v] = u.n + i
            seen = set()
            for target in permutations(range(u.n), k):
                if target in seen:
                    continue
                seen.add(target)
                orbit = [target]
                for t in orbit:
                    for q in ([tuple([alpha[x] for x in t]) for alpha in ugens]
                              + [tuple([t[i] for i in sigma]) for sigma in pgens]):
                        if q not in seen:
                            seen.add(q)
                            orbit.append(q)
                for s, t in zip(shared, target):
                    mapping[s] = t
                bits = ubits | edge_bits((mapping[a], mapping[b]) for a, b in f.edges)
                code = ucode if bits == ubits and n == u.n else bits_code(n, bits)
                found[code] = found.get(code, 0) + len(orbit_sets) * len(orbit)
    return tuple(found.items())


def _set_orbit(shared: tuple, gens) -> tuple:
    """(orbit, stabiliser): the orbit of the vertex set `shared`, as sorted
    tuples, under the group the maps `gens` generate, and generators of its
    setwise stabiliser acting on `shared`'s positions.

    A transversal maps `shared` onto each set B of the orbit, stored as the
    images r_B of its vertices in order.  By Schreier's lemma the elements
    r_{sB}^-1 s r_B, over the sets B and the generators s, generate the
    stabiliser; each is kept as the permutation sigma of positions with
    r_{sB}[sigma[i]] = s[r_B[i]], the identity left out.
    """
    trans = {shared: shared}
    orbit = [shared]
    stabiliser = set()
    for b in orbit:
        images = trans[b]
        for s in gens:
            r = tuple([s[x] for x in images])
            key = tuple(sorted(r))
            if key not in trans:
                trans[key] = r
                orbit.append(key)
                continue
            at = {x: j for j, x in enumerate(trans[key])}
            sigma = tuple([at[x] for x in r])
            if sigma != tuple(range(len(sigma))):
                stabiliser.add(sigma)
    return orbit, list(stabiliser)


# Tables depend only on (root, vmax).  One vertex-deck reconstruction at
# n = 10, the CLI's limit, reaches 374 tables, and n = 3..10 together 692,
# so every table of a deck the CLI accepts stays cached.
@lru_cache(maxsize=1024)
def covers_of_type(root: tuple, vmax: int) -> CoverTable:
    """Enumerate union graphs of one copy of each block of a type, with cover counts.

    `root` is the type key: the sorted tuple of the block codes.  The blocks
    are glued in order of (v, e), then code, one at a time, and D(X), the
    number of gluing sequences that end in a union isomorphic to X, is
    carried along: D(X) = sum over partial unions U of D(U) * ways(U -> X),
    from D(empty) = 1.  `_glue` canonicalises one gluing per
    orbit of Aut U x Aut F and weighs it by the orbit's size, so ways(U -> X)
    still counts every gluing, and D(X) and the counts below are those of
    gluing every map.
    A sequence is a tuple of embeddings of the F_i covering X, taken up to
    the automorphisms of X, which act on such tuples without fixed points, so
    c(S0, X) = D(X) |Aut X| / prod |Aut F_i| (orbit-stabiliser).  A remainder
    in that division, or a count that is not constant on a type, raises
    ConsistencyError: either would contradict the type-grouping identity, not
    merely signal bad input.
    """
    if list(root) != sorted(root):
        raise DomainError("covers_of_type takes a type key: the sorted tuple of block codes")
    fams = sorted(root, key=lambda code: IsoClass(code).sort_key())
    partials = {canonical_code(graph(0)): 1}
    for f in fams:
        nxt = {}
        for code, d in partials.items():
            for union, ways in _glue(code, f, vmax):
                nxt[union] = nxt.get(union, 0) + d * ways
        partials = nxt
    fam_automorphisms = prod(code_automorphism_count(f) for f in fams)
    member_table = {}
    by_type = {}
    nonspanning_roots = []
    for code, d in partials.items():
        c = exact_div(d * code_automorphism_count(code), fam_automorphisms,
                      f"cover count of a union from {d} gluings", ConsistencyError)
        member_table[code] = c
        tk = _code_type(code)
        if tk == root and code[0] < vmax:
            nonspanning_roots.append(code)
        if by_type.setdefault(tk, c) != c:
            raise ConsistencyError(
                f"cover count differs within a type: {by_type[tk]} vs {c}")
    self_cover = by_type.get(root, multiset_symmetry(root))
    if self_cover != multiset_symmetry(root):
        raise ConsistencyError("self cover count disagrees with block symmetry")
    return CoverTable(root, vmax, member_table, by_type, self_cover,
                      tuple(nonspanning_roots))


def count_type(g: Graph, members) -> int:
    """Number of subgraphs of g whose block multiset matches `members`."""
    return _expand(lambda code: count_subgraphs(g, code_graph(code)), g.n,
                   type_key(members), {})


def _expand(count, n: int, root: tuple, memo: dict) -> int:
    """<G, root> for a graph G of order n and a type key `root`, by Kocay's identity.

    `count(code)` is the number of subgraphs of G isomorphic to the block
    with that code.  Memoised per type: strictly smaller types have strictly
    fewer blocks, so the recursion terminates.
    """
    if root in memo:
        return memo[root]
    total = 1
    for code in root:
        total *= count(code)
        if total == 0:
            break
    table = covers_of_type(root, n)
    total -= _other_types(table, root, count, memo)
    memo[root] = exact_div(total, table.self_cover, f"type count for {root}",
                           InconsistentDeckError)
    return memo[root]


def _other_types(table: CoverTable, skip: tuple, count, memo: dict) -> int:
    """Sum of c(S0, S) <G, S> over the types S of the table other than `skip`."""
    return sum(c * (memo[tk] if tk in memo else _expand(count, table.vmax, tk, memo))
               for tk, c in table.by_type.items() if tk != skip)


# ---------------------------------------------------------------------------
# Characteristic polynomial from the vertex deck
# ---------------------------------------------------------------------------

# One entry per card type: 107-110 in a bench `decks` pass, 207 in a whole
# n <= 7 sweep.
@lru_cache(maxsize=1024)
def _card_charpoly(code: bytes) -> Polynomial:
    """`polydeck.charpoly` of the card a code spells."""
    return charpoly(code_graph(code))


def charpoly_from_vertex_deck(deck) -> Polynomial:
    """P(G) from the multiset of vertex-deleted subgraphs, n >= 3.

    Low coefficients follow from the derivative identity over the card
    polynomials, each from the subset recursion of `polydeck.charpoly`.
    Spanning elementary counts come from the type expansion with every
    subgraph count Kelly-sourced; hamiltonian cycles are solved from the
    all-K2 type equation, whose only non-Kelly term is the n-cycle.

    Before any cover table is built, the derivative identity
    (`combi.card_sum_coeffs`) refuses a deck whose card polynomials no graph
    has: among them a deck whose edge count e = sum e(card) / (n - 2) is not
    an integer, and one where some card's deleted vertex would have degree
    e - e(card) outside 0..n-1.

    Each card is replaced by its canonical form, so isomorphic cards are
    equal graphs: in one deck or across decks they share one cached card
    polynomial and the cached subgraph counts.  The values cannot change: a
    card's polynomial and its subgraph counts are invariant under
    relabelling, and every Kelly count sums over the same multiset of card
    types, so its exact division checks the same total.
    """
    deck = list(deck)
    n = len(deck)
    if n < 3:
        raise DomainError("vertex deck reconstruction needs n >= 3")
    for card in deck:
        if card.n != n - 1:
            raise InconsistentDeckError(
                f"card has {card.n} vertices, expected {n - 1}")
    codes = [canonical_code(card) for card in deck]
    deck = [code_graph(code) for code in codes]
    coeffs = card_sum_coeffs([_card_charpoly(code) for code in codes], n)

    kelly_memo = {}

    def kelly(code: bytes) -> int:
        if code not in kelly_memo:
            kelly_memo[code] = kelly_count(deck, code_graph(code))
        return kelly_memo[code]

    w_memo = {}
    spanning = {}
    for parts in partitions_min2(n):
        if len(parts) == 1:
            continue
        root = type_key(elementary_blocks(parts))
        cnt = _expand(kelly, n, root, w_memo)
        # strip the non-spanning members of the same type
        for code in covers_of_type(root, n).nonspanning_roots:
            cnt -= kelly(code)
        spanning[parts] = cnt

    # hamiltonian cycles from the n-fold K2 type: no subgraph has n K2 blocks
    k2 = canonical_code(path(2))
    table = covers_of_type((k2,) * n, n)
    cn_key = type_key([cycle(n)])
    rhs = kelly(k2) ** n - _other_types(table, cn_key, kelly, w_memo)
    if cn_key not in table.by_type:
        raise ConsistencyError("n-cycle type missing from the all-K2 cover table")
    spanning[(n,)] = exact_div(rhs, table.by_type[cn_key], "hamiltonian count",
                               InconsistentDeckError)

    return Polynomial(coeffs + (sachs_constant(n, spanning.__getitem__),))
