import random
import sys
from itertools import combinations, combinations_with_replacement
from math import comb, perm

import pytest

from reconkit import isotype, whitney
from reconkit.errors import DomainError, InconsistentDeckError
from reconkit.graphcore import (all_graphs, complete, cycle, disjoint_union, empty_graph,
                                graph, parse_graph6, path, vertex_deck)
from reconkit.isotype import canonical_code, code_graph, edge_bits
from reconkit.oracle import charpoly_oracle, cover_count_oracle
from reconkit.verify import CHAIN_TYPES, count_type_chain
from reconkit.whitney import (block_type, charpoly_from_vertex_deck,
                              count_type, covers_of_type, type_key)

from check_oracles import chain_walk


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
    assert t1.self_cover == 1
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


@pytest.fixture(scope="module")
def pipeline_tables(corpus6):
    """Every cover table the vertex-deck pipeline builds for n <= 6, plus the
    all-K2 table at n = 7."""
    tables = {}
    build = whitney.covers_of_type

    def recording(root, vmax):
        tables[root, vmax] = build(root, vmax)
        return tables[root, vmax]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(whitney, "covers_of_type", recording)
        for g in corpus6:
            if g.n >= 3:
                charpoly_from_vertex_deck(vertex_deck(g))
    return [*tables.values(), covers_of_type(type_key([path(2)] * 7), 7)]


def test_cover_counts_match_the_cover_oracle(pipeline_tables):
    """The counts carried through the gluings equal the oracle's tuple enumeration."""
    assert len(pipeline_tables) > 40
    for table in pipeline_tables:
        fams = [code_graph(code) for code in table.root]
        for code, c in table.members.items():
            assert c == cover_count_oracle(fams, code_graph(code)), (table.root, table.vmax, code)


def test_count_type_examples():
    k2, k3 = path(2), complete(3)
    assert count_type(k3, [k2, k2]) == 3
    assert count_type(cycle(4), [k2, k2, k2]) == 4
    # single-block types reduce to plain subgraph counts
    from reconkit.isotype import count_subgraphs
    assert count_type(complete(4), [cycle(4)]) == count_subgraphs(complete(4), cycle(4))


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
                assert count_type(g, fams) == direct.get(tk, 0), (g, tk)


def test_chain_sum_equals_recursion(corpus5):
    pool = [path(2), complete(3), cycle(4)]
    for g in corpus5:
        if g.e == 0:
            continue
        for r in (1, 2, 3):
            for fams in combinations_with_replacement(pool, r):
                assert count_type(g, fams) == count_type_chain(g, fams)


def test_chain_sum_equals_its_walk_for_each_graph(corpus5):
    """The weights per type and order give the sum that walking every chain for g gives."""
    for g in corpus5:
        for fams in CHAIN_TYPES:
            assert count_type_chain(g, fams) == chain_walk(g, fams), (g, type_key(fams))


def test_kocay_identity_by_types(corpus5):
    """prod <g,F_i> = sum over types c(S0,S) <g,S>, straight from the table."""
    from reconkit.isotype import count_subgraphs
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
                rhs = sum(c * count_type(g, map(code_graph, tk))
                          for tk, c in table.by_type.items())
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
    count the pipeline takes on its canonical cards equals the raw deck's."""
    rng = random.Random(11)
    eights = [graph(8, [e for e in combinations(range(8), 2) if rng.random() < 0.5])
              for _ in range(2)]
    kelly_count = whitney.kelly_count
    requested = []

    def recording(deck, f):
        requested.append((deck, f))
        return kelly_count(deck, f)

    monkeypatch.setattr(whitney, "kelly_count", recording)
    for g in [h for h in corpus6 if h.n >= 3] + eights:
        deck = vertex_deck(g)
        requested.clear()
        want = charpoly_from_vertex_deck(deck).coeffs
        assert requested
        for cards, f in requested:
            assert kelly_count(cards, f) == kelly_count(deck, f), (g, f)
        shuffled = [_relabel(card, rng) for card in deck]
        rng.shuffle(shuffled)
        assert charpoly_from_vertex_deck(shuffled).coeffs == want, g


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
    n <= 6 and on seeded 7-vertex graphs equals, field by field and in member
    order, the table built by gluing every partial injection."""
    rng = random.Random(14)
    sevens = [graph(7, [e for e in combinations(range(7), 2) if rng.random() < p])
              for p in (0.3, 0.5, 0.7)]
    families = set()
    build = whitney.covers_of_type

    def recording(root, vmax):
        families.add((root, vmax))
        return build(root, vmax)

    with monkeypatch.context() as mp:
        mp.setattr(whitney, "covers_of_type", recording)
        for g in [h for h in corpus6 if h.n >= 3] + sevens:
            charpoly_from_vertex_deck(vertex_deck(g))
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
    of the vertex decks with 3 <= n <= 6 and the all-K2 table at n = 7 make,
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


def test_cover_tables_do_not_depend_on_build_order(monkeypatch):
    """The tables one deck reaches at each n = 4..7, built by increasing and,
    after every cache is emptied, by decreasing vertex bound, are equal field
    by field and in member order: no table reads a cached gluing, union type
    or decoded code that another table's bound left behind."""
    rng = random.Random(19)
    families = set()
    build = whitney.covers_of_type

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


def test_nonspanning_roots_match_the_member_filter(pipeline_tables):
    for t in pipeline_tables:
        want = [code for code in t.members
                if code[0] < t.vmax and block_type(code_graph(code)) == t.root]
        assert list(t.nonspanning_roots) == want, t.root
