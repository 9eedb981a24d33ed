"""Graph types as block multisets and the explicit subgraph expansion.

A 'type' is the multiset of isomorphism classes of a graph's blocks, keyed by
the sorted tuple of the blocks' canonical codes.  For a
type S0 = {F_1..F_k} of non-separable graphs, Kocay's counting identity

    prod <G, F_i>  =  sum over types S of  c(S0, S) <G, S>

relates the product of per-block counts to counts of whole types, where
c(S0, X) is the number of cover tuples of X by copies of the F_i and depends
only on the type of X.  Solving for <G, S0> divides by c(S0, S0), S0's
block symmetry (`combi.multiset_symmetry`), and iterating yields an explicit
polynomial in non-separable subgraph counts; with Kelly-sourced counts on a
vertex deck this reconstructs every elementary spanning count and finally the
characteristic polynomial.  Blocks and unions are carried as codes, and
decoded (`isotype.code_graph`) where a graph is needed, never re-coded.

The polynomial's shape depends on the order n alone, never on G, so `_plan`
compiles it once per (roots, n) into flat steps, sub-types first, and
`_evaluate` runs them on one graph's block counts, dividing exactly at every
type.  The vertex deck keeps its per-order constants with its plan
(`_deck_plan`) and reads each distinct canonical card once per Kelly count.

A cover table glues the blocks of its type one at a time onto partial
unions (`_glue`).  Per number of shared vertices, the targets in the
partial union u are listed once, one per Aut u-orbit, and the shared sets
of the block f are walked one per Aut f-orbit; each pair is glued and
weighs |orbit of the set| x |orbit of the target|.  Both orbits are closed
under the generators of the canonical search by `isotype._orbit`, the
closure that search prunes with.  The first gluing that reaches each union
in the full enumeration is among those glued, so the tables, their counts
and their member order are those of gluing every map, and a gluing inside u
is read off u's code.  |Aut| of the blocks and unions comes with the
canonical search of their codes (`isotype.code_automorphism_count`).
The largest block is glued first, so that the partial unions contain it
and fewer of them are glued; the order moves only the members' order, as
D(X) |Aut X| / prod |Aut F_i| counts the same cover tuples for any order.

A root with at most one block B besides K2, K2^i B, reads its rows in
closed form (`_block_rows`) and glues nothing; the all-K2 families, whose
expansion gives the hamiltonian term, are among them.  A copy of B and i
edges cover a union X exactly when the edges use every edge of X outside
the copy, so the count is the copies of B in X times a sum of surjection
counts of i onto those edges; the types are the block multisets that fit
in vmax vertices when chained at cut vertices, with at most e(B) + i edges
and a block that holds B, the blocks being those that open ears grow from
B and from K2 (`_ear_blocks`).  `covers_of_type` still glues any root, and
the sweep's `whitney-chain` check holds the closed form against the glued
tables.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations
from math import comb, prod

from .combi import (Polynomial, card_sum_coeffs, exact_div, multiset_symmetry,
                    partitions_min2, sachs_constant)
from .errors import ConsistencyError, DomainError, InconsistentDeckError
from .graphcore import Graph, blocks, cycle, elementary_blocks, graph
from .isotype import (IsoClass, _orbit, bits_code, canonical_code,
                      code_automorphism_count, code_automorphisms, code_graph,
                      count_subgraphs, edge_bits, kelly_count)
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


# One entry per union code: 29 in a bench `decks` pass, 46 in a whole
# n <= 7 sweep, 1,930 in a cold n = 10 deck.
@lru_cache(maxsize=8192)
def _code_type(code: bytes) -> tuple:
    """The block type of the graph a code spells."""
    return block_type(code_graph(code))


@dataclass(frozen=True)
class CoverTable:
    """All union graphs of copies of a root family, grouped into types.

    `root` is the family's type key and `members` maps each union's
    canonical code to its cover count c(S0, X); `by_type` maps the type key
    of each union to that count, which is constant on a type.  c(S0, S0)
    is not stored: it is `multiset_symmetry(root)`, the block symmetry.
    """

    root: tuple
    vmax: int
    members: dict
    by_type: dict


# One entry per (partial union, block, vmax): 12 in a bench `decks` pass,
# 92 in a whole n <= 7 sweep, 520 in a cold n = 10 deck and 714 in the cold
# decks of n = 3..10 in one process.
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
    image, so every gluing of one orbit reaches the same union, and not
    every gluing is visited.  For each number k of shared vertices, Aut u
    splits the targets, the images of the shared vertices in
    `permutations(range(u.n), k)` order, into orbits, listed once as the
    first target of each with its size.  The shared sets A, the domains of
    the gluings, are walked in `combinations` order, and a set in the Aut
    f-orbit of an earlier one is skipped.  Each orbit is the `_orbit` of its
    first member under `code_automorphisms`, which generate the group.  For
    a representative A each listed target is glued, as u's adjacency bits
    with f's mapped edges added, and canonicalised from those bits, and it
    weighs |orbit of A| x |orbit of the target|; a gluing that adds no edge,
    all of f mapped onto edges of u, is u itself, whose code is `ucode`.
    The first gluing that reaches a union in the full enumeration has a
    representative shared set, or the image of an earlier set would reach it
    first, and likewise the first target of its orbit, so `ways` and the
    order in which unions are first reached are those of gluing every map.
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
        targets = []  # the first target of each Aut u-orbit, with the orbit's size
        seen = set()
        for target in permutations(range(u.n), k):
            if target not in seen:
                orbit = _orbit((target,), ugens, lambda alpha, t: tuple([alpha[x] for x in t]))
                seen |= orbit
                targets.append((target, len(orbit)))
        done = set()  # the shared sets of the orbits walked so far
        for shared in combinations(range(f.n), k):
            if shared in done:
                continue
            sets = _orbit((shared,), fgens, lambda beta, a: tuple(sorted([beta[x] for x in a])))
            done |= sets
            free = [v for v in range(f.n) if v not in shared]
            mapping = [0] * f.n
            for i, v in enumerate(free):
                mapping[v] = u.n + i
            for target, size in targets:
                for s, t in zip(shared, target):
                    mapping[s] = t
                bits = ubits | edge_bits((mapping[a], mapping[b]) for a, b in f.edges)
                code = ucode if bits == ubits and n == u.n else bits_code(n, bits)
                found[code] = found.get(code, 0) + len(sets) * size
    return tuple(found.items())


# Tables depend only on (root, vmax).  One vertex-deck reconstruction at
# n = 10, the CLI's limit, reaches 51 tables, n = 3..10 together 95 and a
# whole n <= 7 sweep 99, so every table of a deck the CLI accepts stays
# cached.
@lru_cache(maxsize=1024)
def covers_of_type(root: tuple, vmax: int) -> CoverTable:
    """Enumerate union graphs of one copy of each block of a type, with cover counts.

    `root` is the type key: the sorted tuple of the block codes.  The blocks
    are glued one at a time, largest first, in decreasing order of (v, e),
    then code, and D(X), the number of gluing sequences that end in a union
    isomorphic to X, is carried along: D(X) = sum over partial unions U of
    D(U) * ways(U -> X), from D(empty) = 1.  `_glue` canonicalises one
    gluing per orbit of Aut U x Aut F and weighs it by the orbit's size, so
    ways(U -> X) still counts every gluing, and D(X) and the counts below
    are those of gluing every map.
    A sequence is a tuple of embeddings of the F_i covering X, taken up to
    the automorphisms of X, which act on such tuples without fixed points, so
    c(S0, X) = D(X) |Aut X| / prod |Aut F_i| (orbit-stabiliser).  That holds
    for any order of the blocks, so the order moves only the members' order,
    and gluing the largest first keeps the partial unions few.  A remainder
    in that division, or a count that is not constant on a type, raises
    ConsistencyError: either would contradict the type-grouping identity, not
    merely signal bad input.  So does a root row other than the divisor
    every reader takes for c(S0, S0), `multiset_symmetry(root)`.

    This glues any root.  The deck pipeline reads the counts of a root
    with at most one block besides K2 from `_block_rows` instead, and glues
    such a table only for the members of a partition's root type with fewer
    than vmax vertices; `verify`'s `whitney-chain` check and the tests hold
    the two against each other.
    """
    if list(root) != sorted(root):
        raise DomainError("covers_of_type takes a type key: the sorted tuple of block codes")
    fams = sorted(root, key=lambda code: IsoClass(code).sort_key(), reverse=True)
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
    for code, d in partials.items():
        c = exact_div(d * code_automorphism_count(code), fam_automorphisms,
                      f"cover count of a union from {d} gluings", ConsistencyError)
        member_table[code] = c
        tk = _code_type(code)
        if by_type.setdefault(tk, c) != c:
            raise ConsistencyError(
                f"cover count differs within a type: {by_type[tk]} vs {c}")
    if by_type.get(root, multiset_symmetry(root)) != multiset_symmetry(root):
        raise ConsistencyError("self cover count disagrees with block symmetry")
    return CoverTable(root, vmax, member_table, by_type)


_K2 = bits_code(2, 1)  # the code of K2, the one block that is a bridge


def _ear_blocks(seed: bytes, vmax: int, emax: int) -> list:
    """The codes of the blocks with at most vmax vertices and emax edges
    that hold a copy of the block `seed`, grown from it by open ears
    (Whitney, 1932), the seed first.

    An ear is a path of length L >= 1 between two distinct vertices, with
    new inner vertices, and L >= 2 when they are adjacent.  A 2-connected
    graph has an ear decomposition from any 2-connected subgraph or edge it
    holds, each step 2-connected and no larger, so closing the seed under
    ears within the bounds reaches every such block; from K2 the first ears
    give the cycles.  An ear's result depends only on the Aut-orbit of its
    pair of ends, so one pair per orbit is tried.
    """
    found = [seed] if seed[0] <= vmax and IsoClass(seed).e <= emax else []
    seen = set(found)
    for code in found:
        g = code_graph(code)
        if g.e >= emax:
            continue  # every ear adds an edge
        bits = edge_bits(g.edges)
        gens = code_automorphisms(code)
        done = set()
        for pair in combinations(range(g.n), 2):
            if pair in done:
                continue
            done |= _orbit((pair,), gens, lambda alpha, p: tuple(sorted([alpha[x] for x in p])))
            a, b = pair
            for length in range(1 + (pair in g.edges), min(vmax - g.n + 1, emax - g.e) + 1):
                ear = [a, *range(g.n, g.n + length - 1), b]
                grown = bits_code(g.n + length - 1, bits | edge_bits(zip(ear, ear[1:])))
                if grown not in seen:
                    seen.add(grown)
                    found.append(grown)
    return found


# One entry per (i, block, vmax): 36 in a bench `decks` pass, 110 in a
# whole n <= 7 sweep, 327 in a cold n = 10 deck and 613 in the cold decks of
# n = 3..10 in one process.
@lru_cache(maxsize=1024)
def _block_rows(i: int, b: bytes, vmax: int) -> tuple:
    """The `by_type` of `covers_of_type((K2,) * i + (b,), vmax)` for a
    block b, K2 included, in closed form.

    A cover tuple of a union X is a copy B' of b and i edges of X, and X has
    no isolated vertex, so the edges must use every edge of X outside B';
    with t of the e(b) edges of B' used too, they map onto e(X) - e(b) + t
    edges.  Every copy of b weighs the same, so
    c(K2^i b, X) = cop(b, X) sum_t C(e(b), t) surj(i, e(X) - e(b) + t),
    where cop(b, X) sums the copies of b in each block of X: a copy of a
    block lies within one block of X.  A block of X with at most e(b) edges
    holds a copy only if it is b.
    A graph with k components has k + sum (v(H) - 1) vertices over its
    blocks H, and any multiset of blocks chains into one component at cut
    vertices, so the types are the block multisets with sum (v(H) - 1) <=
    vmax - 1, sum e(H) <= e(b) + i and cop > 0.  The block that holds B'
    grows from b by ears, and the i edges alone cover every other block, so
    the blocks are among the `_ear_blocks` of b within e(b) + i edges and of
    K2 within i.
    """
    eb = IsoClass(b).e
    emax = eb + i
    surj = [sum((-1) ** k * comb(m, k) * (m - k) ** i for k in range(m + 1))
            for m in range(i + 1)]
    weight = [sum(comb(eb, t) * surj[e - eb + t] for t in range(eb + 1) if e - eb + t <= i)
              for e in range(eb, emax + 1)]
    fb = code_graph(b)

    def copies(code):
        return int(code == b) if IsoClass(code).e <= eb else count_subgraphs(code_graph(code), fb)

    weighed = [(code, code[0] - 1, IsoClass(code).e, copies(code))
               for code in sorted({*_ear_blocks(b, vmax, emax), *_ear_blocks(_K2, vmax, i)})]
    by_type = {}

    def extend(start, key, v, e, cop):
        for k in range(start, len(weighed)):
            code, dv, de, dc = weighed[k]
            if v + dv < vmax and e + de <= emax:
                if cop + dc:
                    by_type[key + (code,)] = (cop + dc) * weight[e + de - eb]
                extend(k, key + (code,), v + dv, e + de, cop + dc)

    extend(0, (), 0, 0, 0)
    return by_type


# One entry per (roots, n): 1 in a bench `decks` pass, 79 in a bench `sweep`
# pass (the deck plans of n = 3..5 and the 19 `whitney-chain` keys at
# n = 2..5), 81 in a whole n <= 7 sweep and 8 in the decks of n = 3..10.
@lru_cache(maxsize=256)
def _plan(roots: tuple, n: int) -> tuple:
    """Kocay's expansion of the type keys `roots` at order n, as flat steps,
    and the position of each type among them.

    One step (key, terms, divisor, what) per type reachable from the roots,
    sub-types first.  `terms` pairs each sub-type S's position with
    c(key, S), read in closed form for a key with at most one block besides
    K2 (`_block_rows`; K2's code is the least, so its K2 blocks come first)
    and from its cover table otherwise.  The divisor c(key, key) is
    `multiset_symmetry(key)`, and `what` names the key in a refusal.  A
    sub-type has fewer blocks than its type, so the walk ends.
    """
    where, steps = {}, []

    def visit(key):
        if key in where:
            return
        if len(key) == 1 or key[-2:-1] == (_K2,):
            rows = _block_rows(len(key) - 1, key[-1], n)
        else:
            rows = covers_of_type(key, n).by_type
        for tk in rows:
            if tk != key:
                visit(tk)
        where[key] = len(steps)
        steps.append((key, tuple((where[tk], c) for tk, c in rows.items() if tk != key),
                      multiset_symmetry(key), f"type count for {key}"))

    for root in roots:
        visit(root)
    return tuple(steps), where


def _evaluate(steps: tuple, count) -> list:
    """<G, S> for the type S of each step of a plan, by Kocay's identity:
    the product of `count(code)`, G's copies of each block of S, less
    c(S, T) <G, T> over the sub-types T, over c(S, S), which must divide it
    (else InconsistentDeckError)."""
    values = []
    for key, terms, divisor, what in steps:
        total = 1
        for code in key:
            total *= count(code)
            if total == 0:
                break
        total -= sum([c * values[i] for i, c in terms])
        values.append(exact_div(total, divisor, what, InconsistentDeckError))
    return values


def count_type(g: Graph, key: tuple) -> int:
    """Number of subgraphs of g whose block type is the type key `key`, by
    the plan of `key` at g's order (`_plan`) on g's subgraph counts."""
    if list(key) != sorted(key):
        raise DomainError("count_type takes a type key: the sorted tuple of block codes")
    steps, _where = _plan((key,), g.n)
    return _evaluate(steps, lambda code: count_subgraphs(g, code_graph(code)))[-1]


# ---------------------------------------------------------------------------
# Characteristic polynomial from the vertex deck
# ---------------------------------------------------------------------------

# One entry per card type: 107-110 in a bench `decks` pass, 207 in a whole
# n <= 7 sweep.
@lru_cache(maxsize=1024)
def _card_charpoly(code: bytes) -> Polynomial:
    """`polydeck.charpoly` of the card a code spells."""
    return charpoly(code_graph(code))


# One entry per order: 1 in a bench `decks` pass, 5 in a whole n <= 7 sweep
# and 8 in the decks of n = 3..10, every order the CLI accepts.
@lru_cache(maxsize=16)
def _deck_plan(n: int) -> tuple:
    """The steps (`_plan`) of the roots of n's partitions into two or more
    parts >= 2 and of the n-fold K2 row's types but the n-cycle's; per
    partition, its root's position and its table's members of the root's
    type below n vertices; that row's (position, c) terms and the n-cycle's c.
    """
    parts_roots = [(parts, type_key(elementary_blocks(parts)))
                   for parts in partitions_min2(n) if len(parts) > 1]
    ham_row = _block_rows(n - 1, _K2, n)
    cn_key = type_key([cycle(n)])
    others = [tk for tk in ham_row if tk != cn_key]
    steps, where = _plan(tuple(root for _parts, root in parts_roots) + tuple(others), n)
    spanning = tuple((parts, where[root],
                      tuple(code for code in covers_of_type(root, n).members
                            if code[0] < n and _code_type(code) == root))
                     for parts, root in parts_roots)
    return steps, spanning, tuple((where[tk], ham_row[tk]) for tk in others), ham_row[cn_key]


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
    polynomial and the cached subgraph counts, and a Kelly count reads each
    distinct card once.  The values cannot change: a card's polynomial and
    its subgraph counts are invariant under relabelling, and every Kelly
    count sums over the same multiset of card types, so its exact division
    checks the same total.  The plan of order n (`_deck_plan`) is built on
    the first deck of that order, so later decks read no row.
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
    coeffs = card_sum_coeffs([_card_charpoly(code) for code in codes], n)
    cards = tuple((code_graph(code), m) for code, m in Counter(codes).items())
    kelly_memo = {}

    def kelly(code: bytes) -> int:
        if code not in kelly_memo:
            kelly_memo[code] = kelly_count(cards, code_graph(code))
        return kelly_memo[code]

    steps, partitions, ham_terms, ham_divisor = _deck_plan(n)
    values = _evaluate(steps, kelly)
    # each partition's root type less its non-spanning members
    spanning = {parts: values[at] - sum(kelly(code) for code in members)
                for parts, at, members in partitions}
    # hamiltonian cycles from the n-fold K2 type: no subgraph has n K2 blocks,
    # and the n-cycle, an ear-grown block, is one of its types
    rhs = kelly(_K2) ** n - sum(c * values[at] for at, c in ham_terms)
    spanning[(n,)] = exact_div(rhs, ham_divisor, "hamiltonian count", InconsistentDeckError)

    return Polynomial(coeffs + (sachs_constant(n, spanning.__getitem__),))
