import hashlib
import random
import resource
import sys
import time
from collections import Counter
from itertools import combinations, combinations_with_replacement
from math import comb, perm

import pytest

from reconkit import isotype, verify, whitney
from reconkit.combi import partitions_min2
from reconkit.errors import ConsistencyError, DomainError, InconsistentDeckError
from reconkit.graphcore import (all_graphs, blocks, complete, cycle, disjoint_union,
                                elementary_blocks, empty_graph, graph, parse_graph6, path,
                                vertex_deck)
from reconkit.isotype import canonical_code, code_graph, count_subgraphs, edge_bits
from reconkit.oracle import charpoly_oracle, cover_count_oracle
from reconkit.verify import CHAIN_TYPES, count_type_chain
from reconkit.whitney import (block_type, charpoly_from_vertex_deck,
                              count_type, covers_of_type, type_key)

from check_oracles import chain_walk, expanded_vertex_deck


def test_block_type_examples(bowtie):
    k2, k3 = path(2), complete(3)
    assert block_type(path(3)) == type_key([k2, k2])
    assert block_type(k3) == type_key([k3])
    assert block_type(bowtie) == type_key([k3, k3])
    with pytest.raises(DomainError):
        block_type(disjoint_union(path(2), empty_graph(1)))


def test_covers_of_type_examples():
    k2 = path(2)
    t3 = covers_of_type(type_key([k2, k2]), 3)
    assert t3.members == {canonical_code(k2): 1, canonical_code(path(3)): 2}
    t4 = covers_of_type(type_key([k2, k2]), 4)
    assert t4.members[canonical_code(disjoint_union(k2, k2))] == 2
    t1 = covers_of_type(type_key([k2]), 6)
    assert len(t1.members) == 1
    assert t1.by_type == {type_key([k2]): 1}
    with pytest.raises(DomainError, match="type key"):
        covers_of_type(type_key([k2, complete(3)])[::-1], 5)


def test_cover_count_constant_on_types():
    # {C3, C3} has two members of the same type: the bowtie and 2C3
    k3 = complete(3)
    bowtie = graph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
    two = disjoint_union(k3, k3)
    assert cover_count_oracle([k3, k3], bowtie) == cover_count_oracle([k3, k3], two) == 2
    table = covers_of_type(type_key([k3, k3]), 6)
    assert table.by_type[type_key([k3, k3])] == 2


def test_a_root_row_other_than_the_block_symmetry_is_refused(monkeypatch, bowtie):
    """Every reader divides by `multiset_symmetry(root)` for c(S0, S0), and
    a glued table whose root row differs is refused.  With |Aut| of the
    bowtie doubled, the bowtie, the one member of type {C3, C3} within 5
    vertices, weighs 4 instead of 2! = 2."""
    k3 = complete(3)
    bow = canonical_code(bowtie)
    real = whitney.code_automorphism_count
    monkeypatch.setattr(whitney, "code_automorphism_count",
                        lambda code: real(code) * (2 if code == bow else 1))
    with pytest.raises(ConsistencyError, match="self cover count disagrees with block symmetry"):
        covers_of_type.__wrapped__(type_key([k3, k3]), 5)


def _clear_plans():
    """Empty the plan caches, so that the next deck of each order reads its
    rows again through `_block_rows` and `covers_of_type`."""
    whitney._plan.cache_clear()
    whitney._deck_plan.cache_clear()


# The all-K2 families (K2^j, vmax), 1 <= j <= vmax, 3 <= vmax <= 7: the
# pipeline reads their rows in closed form, so the table tests glue them here.
ALL_K2 = [((whitney._K2,) * j, vmax) for vmax in range(3, 8) for j in range(1, vmax + 1)]


def _one_block_roots():
    """(root, vmax) for every root K2^i + B, 0 <= i <= vmax <= 6, B a block
    with at most vmax vertices and vmax + 2 edges: the pipeline reads the
    rows of such roots in closed form.  K2 sorts first, so the keys are
    sorted."""
    return [((whitney._K2,) * i + (b,), vmax) for vmax in range(2, 7)
            for b in whitney._ear_blocks(whitney._K2, vmax, vmax + 2) for i in range(vmax + 1)]


@pytest.fixture(scope="module")
def pipeline_tables(corpus6):
    """Every cover table the vertex-deck pipeline builds for n <= 6, plus the
    all-K2 tables of `ALL_K2` and those of `_one_block_roots` with at most
    vmax + 2 edges.  The oracle takes 0.1 s on those 116 tables, and 8 s on
    all 284: most of it on K2^5 B and K2^6 B at vmax = 6, with B dense."""
    tables = {}
    build = whitney.covers_of_type

    def recording(root, vmax):
        tables[root, vmax] = build(root, vmax)
        return tables[root, vmax]

    _clear_plans()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(whitney, "covers_of_type", recording)
        for g in corpus6:
            if g.n >= 3:
                charpoly_from_vertex_deck(vertex_deck(g))
    for root, vmax in ALL_K2 + [(root, vmax) for root, vmax in _one_block_roots()
                                if sum(code_graph(code).e for code in root) <= vmax + 2]:
        tables[root, vmax] = covers_of_type(root, vmax)
    return list(tables.values())


def test_cover_counts_match_the_cover_oracle(pipeline_tables):
    """The counts carried through the gluings equal the oracle's tuple enumeration."""
    assert len(pipeline_tables) > 40
    for table in pipeline_tables:
        fams = [code_graph(code) for code in table.root]
        for code, c in table.members.items():
            assert c == cover_count_oracle(fams, code_graph(code)), (table.root, table.vmax, code)


def test_count_type_examples():
    k2, k3 = path(2), complete(3)
    assert count_type(k3, type_key([k2, k2])) == 3
    assert count_type(cycle(4), type_key([k2, k2, k2])) == 4
    # single-block types reduce to plain subgraph counts
    assert count_type(complete(4), type_key([cycle(4)])) == count_subgraphs(complete(4), cycle(4))
    with pytest.raises(DomainError, match="type key"):
        count_type(k3, type_key([k2, k3])[::-1])


def test_count_type_matches_direct_enumeration(corpus5):
    """Classify every edge subset by its block multiset and compare."""
    pool = [path(2), complete(3), cycle(4)]
    for g in corpus5:
        if g.e == 0:
            continue
        direct = {}
        edges = g.sorted_edges()
        for m in range(1, g.e + 1):
            for subset in combinations(edges, m):
                verts = sorted({x for e in subset for x in e})
                pos = {v: i for i, v in enumerate(verts)}
                sub = graph(len(verts), [(pos[u], pos[v]) for u, v in subset])
                tk = block_type(sub)
                direct[tk] = direct.get(tk, 0) + 1
        for r in (1, 2, 3):
            for fams in combinations_with_replacement(pool, r):
                tk = type_key(fams)
                assert count_type(g, tk) == direct.get(tk, 0), (g, tk)


def test_chain_sum_equals_recursion(corpus5):
    pool = [path(2), complete(3), cycle(4)]
    for g in corpus5:
        if g.e == 0:
            continue
        for r in (1, 2, 3):
            for fams in combinations_with_replacement(pool, r):
                tk = type_key(fams)
                assert count_type(g, tk) == count_type_chain(g, tk)


def test_chain_sum_equals_its_walk_for_each_graph(corpus5):
    """The weights per type and order give the sum that walking every chain for g gives."""
    for g in corpus5:
        for fams in CHAIN_TYPES:
            tk = type_key(fams)
            assert count_type_chain(g, tk) == chain_walk(g, tk), (g, tk)


def test_kocay_identity_by_types(corpus5):
    """prod <g,F_i> = sum over types c(S0,S) <g,S>, straight from the table."""
    pool = [path(2), complete(3), cycle(4)]
    for g in corpus5:
        if g.e == 0:
            continue
        for r in (2, 3):
            for fams in combinations_with_replacement(pool, r):
                lhs = 1
                for f in fams:
                    lhs *= count_subgraphs(g, f)
                table = covers_of_type(type_key(fams), g.n)
                rhs = sum(c * count_type(g, tk) for tk, c in table.by_type.items())
                assert lhs == rhs, (g, type_key(fams))


def test_charpoly_from_vertex_deck_examples():
    assert charpoly_from_vertex_deck(vertex_deck(complete(4))).coeffs == \
        (1, 0, -6, -8, -3)
    assert charpoly_from_vertex_deck(vertex_deck(cycle(5))).coeffs == \
        (1, 0, -5, 0, 5, -2)
    assert charpoly_from_vertex_deck(vertex_deck(path(4))).coeffs == \
        (1, 0, -3, 0, 1)


def test_charpoly_from_vertex_deck_guards():
    with pytest.raises(DomainError):
        charpoly_from_vertex_deck(vertex_deck(path(2)))
    with pytest.raises(InconsistentDeckError):
        charpoly_from_vertex_deck([path(2), path(3), path(3)])


def test_edge_counts_no_graph_has_are_refused_before_any_cover_table(monkeypatch):
    """The derivative identity refuses both decks: `B?`, `B?`, `B?`, `BW` has
    2 card edges, so e = 1 and the `BW` card's vertex would have degree -1, and
    three P3 cards with one K2 + K1 have 7 card edges, not a multiple of n - 2."""
    def no_tables(root, vmax):
        raise AssertionError("a cover table was built")

    monkeypatch.setattr(whitney, "covers_of_type", no_tables)
    four_cards = [parse_graph6(s) for s in ("B?", "B?", "B?", "BW")]
    with pytest.raises(InconsistentDeckError, match="degree -1"):
        charpoly_from_vertex_deck(four_cards)
    with pytest.raises(InconsistentDeckError, match="index 2: -7 is not divisible by 2"):
        charpoly_from_vertex_deck([path(3)] * 3 + [graph(3, [(0, 1)])])


def test_charpoly_from_vertex_deck_small(corpus5):
    for g in corpus5:
        if g.n < 3:
            continue
        got = charpoly_from_vertex_deck(vertex_deck(g))
        assert got.coeffs == charpoly_oracle(g).coeffs, g


def _relabel(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def test_card_labelling_and_order_do_not_matter(corpus6, monkeypatch):
    """Relabelled, shuffled cards give the same polynomial, and every Kelly
    count the pipeline takes on its distinct canonical cards equals the raw
    deck's, taken over its labelled cards with their multiplicities."""
    rng = random.Random(11)
    eights = [graph(8, [e for e in combinations(range(8), 2) if rng.random() < 0.5])
              for _ in range(2)]
    kelly_count = whitney.kelly_count
    requested = []

    def recording(cards, f):
        requested.append((cards, f))
        return kelly_count(cards, f)

    monkeypatch.setattr(whitney, "kelly_count", recording)
    for g in [h for h in corpus6 if h.n >= 3] + eights:
        deck = vertex_deck(g)
        requested.clear()
        want = charpoly_from_vertex_deck(deck).coeffs
        assert requested
        raw = tuple(Counter(deck).items())
        for cards, f in requested:
            assert sum(m for _card, m in cards) == g.n
            assert kelly_count(cards, f) == kelly_count(raw, f), (g, f)
        shuffled = [_relabel(card, rng) for card in deck]
        rng.shuffle(shuffled)
        assert charpoly_from_vertex_deck(shuffled).coeffs == want, g


def _fate(read, deck):
    """The coefficients that `read` gives for a deck, or InconsistentDeckError."""
    try:
        return tuple(read(deck))
    except InconsistentDeckError:
        return InconsistentDeckError


def test_the_plan_gives_what_the_recursion_gives():
    """The compiled plan and the per-deck recursion of `expanded_vertex_deck`
    give the same polynomial, or both refuse the deck, on the deck of every
    graph with 3 <= n <= 6 and on 400 seeded decks of n = 4..7 in which one
    or two cards are swapped for another card type of the same edge count."""
    def plan(deck):
        return charpoly_from_vertex_deck(deck).coeffs

    for g in all_graphs(6):
        if g.n >= 3:
            deck = vertex_deck(g)
            assert _fate(plan, deck) == _fate(expanded_vertex_deck, deck) == \
                charpoly_oracle(g).coeffs, g
    rng = random.Random(7)
    by_edges = {}
    for h in all_graphs(6):
        by_edges.setdefault((h.n, h.e), []).append(h)
    fates = Counter()
    for _ in range(400):
        n = rng.randrange(4, 8)
        deck = vertex_deck(graph(n, [e for e in combinations(range(n), 2) if rng.random() < 0.5]))
        swappable = [i for i in range(n) if len(by_edges[n - 1, deck[i].e]) > 1]
        for i in rng.sample(swappable, min(len(swappable), rng.randrange(1, 3))):
            code = canonical_code(deck[i])
            deck[i] = rng.choice([h for h in by_edges[n - 1, deck[i].e]
                                  if canonical_code(h) != code])
        want = _fate(expanded_vertex_deck, deck)
        assert _fate(plan, deck) == want, deck
        fates[want is InconsistentDeckError] += 1
    assert fates[True] and fates[False]


def test_the_deck_plans_do_the_pinned_work(monkeypatch):
    """Work pin: the deck plan of order n = 3..9 lists 2, 5, 10, 20, 38, 75
    and 161 types, with 1, 5, 16, 48, 140, 425 and 1,417 sub-type terms.  A
    second deck of an order already planned reads no row: it calls neither
    `_block_rows` nor `covers_of_type`."""
    shape = [(len(steps), sum(len(terms) for _key, terms, _div, _what in steps))
             for steps, *_rest in map(whitney._deck_plan, range(3, 10))]
    assert shape == [(2, 1), (5, 5), (10, 16), (20, 48), (38, 140), (75, 425), (161, 1417)]
    read = []
    for name in ("_block_rows", "covers_of_type"):
        monkeypatch.setattr(whitney, name, lambda *args, name=name: read.append(name))
    g = cycle(7)
    assert charpoly_from_vertex_deck(vertex_deck(g)) == charpoly_oracle(g)
    assert read == []


def _reference_glue(ucode, fcode, vmax):
    """The gluing of the forms u and f of two codes that canonicalises every
    partial injection V(f) -> V(u)."""
    from itertools import permutations
    u, f = code_graph(ucode), code_graph(fcode)
    found = {}
    fverts = list(range(f.n))
    for k in range(0, min(u.n, f.n) + 1):
        if u.n + f.n - k > vmax:
            continue
        for shared in combinations(fverts, k):
            shared_set = set(shared)
            free = [v for v in fverts if v not in shared_set]
            for target in permutations(range(u.n), k):
                mapping = dict(zip(shared, target))
                mapping.update({v: u.n + i for i, v in enumerate(free)})
                cand = graph(u.n + f.n - k,
                             list(u.edges) + [(mapping[a], mapping[b]) for a, b in f.edges])
                code = canonical_code(cand)
                found[code] = found.get(code, 0) + 1
    return tuple(found.items())


def test_orbit_gluing_builds_the_reference_tables(corpus6, monkeypatch):
    """Every cover table the vertex-deck pipeline reaches on the graphs with
    n <= 6 and on seeded 7-vertex graphs, and every all-K2 table of `ALL_K2`,
    equals, field by field and in member order, the table built by gluing
    every partial injection."""
    rng = random.Random(14)
    sevens = [graph(7, [e for e in combinations(range(7), 2) if rng.random() < p])
              for p in (0.3, 0.5, 0.7)]
    families = set()
    build = whitney.covers_of_type

    def recording(root, vmax):
        families.add((root, vmax))
        return build(root, vmax)

    _clear_plans()
    with monkeypatch.context() as mp:
        mp.setattr(whitney, "covers_of_type", recording)
        for g in [h for h in corpus6 if h.n >= 3] + sevens:
            charpoly_from_vertex_deck(vertex_deck(g))
    families.update(ALL_K2)
    assert {vmax for _root, vmax in families} == {3, 4, 5, 6, 7}

    def tables(glue):
        # the uncached builder, so that each table is glued anew
        with monkeypatch.context() as mp:
            mp.setattr(whitney, "_glue", glue)
            return [build.__wrapped__(*args) for args in sorted(families)]

    # the unmemoised gluing, so that no table reads gluings cached earlier
    for got, want in zip(tables(whitney._glue.__wrapped__), tables(_reference_glue)):
        assert got == want, (want.root, want.vmax)
        assert list(got.members) == list(want.members), (want.root, want.vmax)


def _clear_every_cache():
    """Empty the functools caches of every reconkit module."""
    for name, mod in list(sys.modules.items()):
        if name.startswith("reconkit."):
            for fn in vars(mod).values():
                if hasattr(fn, "cache_clear"):
                    fn.cache_clear()


def test_cover_tables_read_automorphisms_off_searched_codes(monkeypatch):
    """Every code a cover table asks `code_automorphisms` or
    `code_automorphism_count` about, on the vertex decks of all graphs with
    3 <= n <= 6 from empty caches, was already searched as the first-leaf
    form of a graph of its type: the lookups add no `_search` miss."""
    added = {}

    def counting(name):
        lookup = getattr(whitney, name)

        def wrapped(code):
            before = isotype._search.cache_info().misses
            found = lookup(code)
            added.setdefault(name, []).append(isotype._search.cache_info().misses - before)
            return found
        monkeypatch.setattr(whitney, name, wrapped)

    counting("code_automorphisms")
    counting("code_automorphism_count")
    _clear_every_cache()
    for g in all_graphs(6):
        if g.n >= 3:
            charpoly_from_vertex_deck(vertex_deck(g))
    assert set(added) == {"code_automorphisms", "code_automorphism_count"}
    assert all(set(misses) == {0} for misses in added.values())


def test_orbit_ways_sum_to_every_gluing(pipeline_tables, monkeypatch):
    """Without the reference gluing: on every `_glue` call that the tables
    of the vertex decks with 3 <= n <= 6 and the all-K2 tables of `ALL_K2` make,
    the ways sum to the number of partial injections V(f) -> V(u), that is
    C(f.n, k) P(u.n, k) summed over the k shared vertices that keep the
    union within vmax.  No gluing asks `bits_code` for the partial union's
    own bits: a gluing that adds no edge is u, read off its code."""
    calls = set()
    glue = whitney._glue

    def recording(*args):
        calls.add(args)
        return glue(*args)

    with monkeypatch.context() as mp:
        mp.setattr(whitney, "_glue", recording)
        for table in pipeline_tables:
            whitney.covers_of_type.__wrapped__(table.root, table.vmax)
    asked = []
    bits_code = whitney.bits_code
    monkeypatch.setattr(whitney, "bits_code",
                        lambda n, bits: asked.append((n, bits)) or bits_code(n, bits))
    onto_u = 0
    for ucode, fcode, vmax in sorted(calls):
        u, f = code_graph(ucode), code_graph(fcode)
        asked.clear()
        glued = dict(whitney._glue.__wrapped__(ucode, fcode, vmax))
        want = sum(comb(f.n, k) * perm(u.n, k)
                   for k in range(min(u.n, f.n) + 1) if u.n + f.n - k <= vmax)
        assert sum(glued.values()) == want, (ucode, fcode, vmax)
        assert (u.n, edge_bits(u.edges)) not in asked, (ucode, fcode, vmax)
        onto_u += ucode in glued
    assert len(calls) > 100 and onto_u > 0


def _cold_vertex_decks():
    """Empty every cache, then reconstruct the charpoly from the vertex deck
    of every graph with 3 <= n <= 6 and an edge; the graphs are generated
    before the caches are emptied, so only the decks' work is counted."""
    graphs = [g for g in all_graphs(6) if g.n >= 3 and g.e]
    _clear_every_cache()
    for g in graphs:
        charpoly_from_vertex_deck(vertex_deck(g))


def test_glue_walks_the_targets_once_per_shared_set_size(monkeypatch):
    """On every `_glue` call of the cold vertex decks of all graphs with
    3 <= n <= 6, `permutations` is walked at most once per number k of
    shared vertices: the target orbits do not depend on the shared set, so
    one list serves every shared-set orbit of that size."""
    calls = []
    glue = whitney._glue
    with monkeypatch.context() as mp:
        mp.setattr(whitney, "_glue", lambda *args: calls.append(args) or glue(*args))
        _cold_vertex_decks()
    walks = []
    permutations = whitney.permutations
    monkeypatch.setattr(whitney, "permutations",
                        lambda items, k: walks.append(k) or permutations(items, k))
    for args in dict.fromkeys(calls):
        walks.clear()
        glue.__wrapped__(*args)
        assert walks and len(walks) == len(set(walks)), (args, walks)


def test_cold_vertex_decks_do_the_pinned_work(monkeypatch):
    """Work pin: the cold vertex decks of all graphs with 3 <= n <= 6 and an
    edge make 12 `_glue` misses, in which `_glue` canonicalises 24 gluings,
    57 codes asked while `_ear_blocks` grows blocks, and 276 `_labelled` and
    56 `_search` misses.  Counts of work on a fixed input do not drift as timings do; a
    change that moves one on purpose updates it here and says why."""
    codes = {"glue": [], "ears": []}
    growing = []
    ear_blocks, bits_code = whitney._ear_blocks, whitney.bits_code

    def counted_ears(*args):
        growing.append(args)
        try:
            return ear_blocks(*args)
        finally:
            growing.pop()

    def counted_code(n, bits):
        codes["ears" if growing else "glue"].append((n, bits))
        return bits_code(n, bits)

    monkeypatch.setattr(whitney, "_ear_blocks", counted_ears)
    monkeypatch.setattr(whitney, "bits_code", counted_code)
    _cold_vertex_decks()
    assert (whitney._glue.cache_info().misses, len(codes["glue"]), len(codes["ears"]),
            isotype._labelled.cache_info().misses,
            isotype._search.cache_info().misses) == (12, 24, 57, 276, 56)


def _seeded_gnp(n):
    """G(n, 1/2) drawn by `random.Random(n)`, the pairs in `combinations` order."""
    rng = random.Random(n)
    return graph(n, [e for e in combinations(range(n), 2) if rng.random() < 0.5])


def test_a_cold_eight_vertex_deck_does_the_pinned_work():
    """Work pin: the cold vertex deck of `_seeded_gnp(8)` makes 43 `_glue`
    and 300 `_labelled` misses, and gives the oracle's polynomial.  Each
    new pattern of `count_subgraphs` is read through its code, one
    `_labelled` descent of the pattern's own labels."""
    g = _seeded_gnp(8)
    deck = vertex_deck(g)
    _clear_every_cache()
    got = charpoly_from_vertex_deck(deck)
    assert (whitney._glue.cache_info().misses,
            isotype._labelled.cache_info().misses) == (43, 300)
    assert got == charpoly_oracle(g)


def test_block_rows_equal_the_glued_tables():
    """The closed-form rows of every root K2^i + B of `_one_block_roots` are
    the glued table's `by_type`."""
    for root, vmax in _one_block_roots():
        assert whitney._block_rows(len(root) - 1, root[-1], vmax) == \
            covers_of_type(root, vmax).by_type, (root, vmax)


def test_ear_blocks_are_the_two_connected_graphs():
    """From every block seed with at most 6 vertices, the ears grow each
    block with at most vmax <= 7 vertices and emax edges that holds a copy
    of the seed once, the seed first: those of `all_graphs(7)` with no
    isolated vertex and one block.  Seeded with K2 they are K2 and every
    2-connected graph within the bounds."""
    one_block = [h for h in all_graphs(7) if h.e and not h.has_isolated_vertex()
                 and len(blocks(h)) == 1]
    for seed in one_block:
        if seed.n > 6:
            continue
        code = canonical_code(seed)
        top = seed.e + 10 - seed.n  # the largest emax below, at vmax = 7
        holders = [h for h in one_block if h.e <= top and count_subgraphs(h, seed)]
        for vmax in range(seed.n - 1, 8):
            for emax in range(seed.e - 1, seed.e + vmax - seed.n + 4):
                grown = whitney._ear_blocks(code, vmax, emax)
                want = {canonical_code(h) for h in holders if h.n <= vmax and h.e <= emax}
                assert len(grown) == len(set(grown)) and set(grown) == want, (code, vmax, emax)
                assert not want or grown[0] == code, (code, vmax, emax)


def test_fake_decks_meet_the_same_fate_with_glued_block_rows(monkeypatch):
    """A real deck of a seeded graph on 4..6 vertices with one card swapped
    for another card type of its order, one with the card's edge count when
    there is one, gives the same polynomial, or `InconsistentDeckError`, with
    the closed-form rows of the roots with at most one block besides K2 as
    with the glued tables' rows.  Only an error message may name another
    type, as the types are read in another order."""
    rng = random.Random(45)
    cards = {}
    for h in all_graphs(5):
        cards.setdefault(h.n, []).append(h)
    closed = whitney._block_rows
    glued_calls = []

    def glued(i, b, vmax):
        glued_calls.append((i, b, vmax))
        return covers_of_type((whitney._K2,) * i + (b,), vmax).by_type

    def outcome(deck, rows):
        _clear_plans()
        with monkeypatch.context() as mp:
            mp.setattr(whitney, "_block_rows", rows)
            try:
                return charpoly_from_vertex_deck(deck).coeffs
            except InconsistentDeckError:
                return InconsistentDeckError
    fates = Counter()
    for n in (4, 5, 6):
        for _ in range(60):
            deck = vertex_deck(graph(n, [e for e in combinations(range(n), 2)
                                         if rng.random() < 0.5]))
            i = rng.randrange(n)
            others = [h for h in cards[n - 1] if canonical_code(h) != canonical_code(deck[i])]
            deck[i] = rng.choice([h for h in others if h.e == deck[i].e] or others)
            glued_calls.clear()
            want = outcome(deck, glued)
            assert outcome(deck, closed) == want, deck
            fates[want is InconsistentDeckError, bool(glued_calls)] += 1
    # refused before any table, refused by the tables, and accepted
    assert fates[True, False] and fates[True, True] and fates[False, True]


def test_cover_tables_do_not_depend_on_build_order(monkeypatch):
    """The tables one deck reaches at each n = 4..7, built by increasing and,
    after every cache is emptied, by decreasing vertex bound, are equal field
    by field and in member order: no table reads a cached gluing, union type
    or decoded code that another table's bound left behind.  Every cache is
    emptied first too, so that the decks plan their orders anew and ask for
    their tables."""
    rng = random.Random(19)
    families = set()
    build = whitney.covers_of_type
    _clear_every_cache()

    def recording(root, vmax):
        families.add((vmax, root))
        return build(root, vmax)

    with monkeypatch.context() as mp:
        mp.setattr(whitney, "covers_of_type", recording)
        for n in range(4, 8):
            g = graph(n, [e for e in combinations(range(n), 2) if rng.random() < 0.5])
            charpoly_from_vertex_deck(vertex_deck(g))
    assert {vmax for vmax, _root in families} == {4, 5, 6, 7}

    def tables(order):
        _clear_every_cache()
        return {key: build(key[1], key[0]) for key in order}

    forward = tables(sorted(families))
    backward = tables(sorted(families, reverse=True))
    for key, table in forward.items():
        assert table == backward[key], key
        assert list(table.members) == list(backward[key].members), key


def test_partition_roots_below_n_are_the_small_graphs_of_their_type():
    """For every partition of n = 4..7 into at least two parts >= 2, the
    members of its root's cover table with fewer than n vertices and the
    root's type, which the vertex deck subtracts, are the graphs of that
    block type on at most n - 1 vertices, found by exhaustive generation."""
    for n in range(4, 8):
        small = verify._small_types(n - 1, False)
        for parts in partitions_min2(n):
            if len(parts) == 1:
                continue
            root = type_key(elementary_blocks(parts))
            got = {code for code in covers_of_type(root, n).members
                   if code[0] < n and whitney._code_type(code) == root}
            assert got == {canonical_code(h) for h in small if block_type(h) == root}, parts


def _cold():
    """Hand-run cold-deck timing: `PYTHONPATH=src python tests/test_whitney.py cold`.

    For n = 8, 9 and 10 in turn (or the orders given after `cold`), empties
    every cache and reconstructs the charpoly from the vertex deck of
    `_seeded_gnp(n)`, and prints the CPU seconds it takes, the
    `covers_of_type` misses (the tables glued), split into the roots with
    two or more blocks besides K2, glued for their rows, and the others,
    glued only for their members of the root type below n vertices; the
    `_block_rows` misses (the closed-form rows read), the `_glue`,
    `_labelled` and `_search` misses, the peak RSS in MB so far (a larger n
    takes more, so it is that n's) and a SHA-1 of the polynomial; then the
    deck plan's types and sub-type terms, and the CPU seconds of the same
    deck again with every cache warm, the best of 5.
    """
    build = whitney.covers_of_type
    roots = set()

    def recording(root, vmax):
        roots.add(root)
        return build(root, vmax)

    whitney.covers_of_type = recording
    for n in map(int, sys.argv[2:] or (8, 9, 10)):
        deck = vertex_deck(_seeded_gnp(n))
        _clear_every_cache()
        roots.clear()
        start = time.process_time()
        p = charpoly_from_vertex_deck(deck)
        seconds = time.process_time() - start
        warm = []
        for _ in range(5):
            start = time.process_time()
            charpoly_from_vertex_deck(deck)
            warm.append(time.process_time() - start)
        steps = whitney._deck_plan(n)[0]
        for_rows = sum(len(root) > 1 and root[-2:-1] != (whitney._K2,) for root in roots)
        print("n %d seconds %.3f" % (n, seconds),
              "tables_glued", build.cache_info().misses,
              "for_rows", for_rows, "for_members", len(roots) - for_rows,
              "block_rows", whitney._block_rows.cache_info().misses,
              "glue_misses", whitney._glue.cache_info().misses,
              "labelled_misses", isotype._labelled.cache_info().misses,
              "search_misses", isotype._search.cache_info().misses,
              "peak_rss_mb %.1f" % (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024),
              "charpoly", hashlib.sha1(repr(p.coeffs).encode()).hexdigest()[:12],
              "plan_types", len(steps),
              "plan_terms", sum(len(terms) for _key, terms, _div, _what in steps),
              "warm_seconds %.5f" % min(warm))


if __name__ == "__main__" and sys.argv[1:2] == ["cold"]:
    _cold()
