import hashlib
import random
import resource
import sys
import time
from collections import Counter
from itertools import combinations
from math import factorial, prod

import networkx as nx
import pytest
from sympy.combinatorics import Permutation, PermutationGroup

from reconkit import verify
from reconkit.deck import nmatrix
from reconkit.errors import ConsistencyError, DomainError, InconsistentDeckError
from reconkit.graphcore import (adjacency_masks, all_graphs, complete, cycle,
                                disjoint_union, elementary_graph, empty_graph,
                                graph, induced_subgraph, parse_graph6, path,
                                vertex_deck)
from reconkit import isotype
from reconkit.isotype import (IsoClass, canonical_code, code_automorphism_count,
                              code_automorphisms, code_graph, count_induced,
                              count_subgraphs, edge_bits, kelly_count, subgraph_type_table,
                              subset_table)

from check_oracles import canonical_witness, unguarded_subgraph_count


def _random_relabel(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def _complete_multipartite(*sizes):
    part = [i for i, k in enumerate(sizes) for _ in range(k)]
    n = len(part)
    return graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                     if part[u] != part[v]])


def _reference_canon(g):
    """The search without automorphism pruning: every leaf of the refinement
    tree is visited and the first minimal leaf is the witness."""
    n = g.n
    if n == 0:
        return 0, ()
    masks = adjacency_masks(g)

    def refine(cells):
        while True:
            cellmasks = [sum(1 << v for v in cell) for cell in cells]
            new_cells = []
            for cell in cells:
                groups = {}
                for v in cell:
                    sig = tuple(bin(masks[v] & cm).count("1") for cm in cellmasks)
                    groups.setdefault(sig, []).append(v)
                new_cells += [groups[sig] for sig in sorted(groups)]
            if len(new_cells) == len(cells):
                return cells
            cells = new_cells

    best = []

    def search(cells):
        target = next((i for i, c in enumerate(cells) if len(c) > 1), None)
        if target is None:
            perm = tuple(c[0] for c in cells)
            val = int("".join(str((masks[perm[i]] >> perm[j]) & 1)
                              for i in range(n) for j in range(i + 1, n)) or "0", 2)
            if not best or val < best[0]:
                best[:] = [val, perm]
            return
        cell = cells[target]
        for v in sorted(cell):
            rest = [u for u in cell if u != v]
            search(refine(cells[:target] + [[v], rest] + cells[target + 1:]))

    search(refine([list(range(n))]))
    return best[0], best[1]


def test_pruned_search_matches_the_reference(corpus6):
    """Automorphism pruning changes neither the minimal code nor its witness."""
    rng = random.Random(7)
    graphs = list(corpus6) + [_random_relabel(g, rng) for g in corpus6]
    # K8 minus a perfect matching is K2,2,2,2; the two differ here in labelling
    k8_minus_matching = graph(8, [e for e in complete(8).edges if e[1] - e[0] != 4])
    for g in (k8_minus_matching, _complete_multipartite(4, 4),
              _complete_multipartite(2, 2, 2, 2)):
        graphs += [g] + [_random_relabel(g, rng) for _ in range(3)]
    # On these the first leaf is not minimal, so the search finds a new best
    # later on; the last is two triangles and a 4-cycle in a labelling where a
    # map taken from a new best, not from a tie, changes the witness.
    graphs += [parse_graph6(s) for s in ("FCXc_", "FyU|o", "IGA?oqCW?")]
    for g in graphs:
        assert canonical_witness(g) == _reference_canon(g), g


def _reference_refine(masks, cells):
    """Equitable refinement that counts neighbours in every cell each round."""
    while True:
        cellmasks = []
        for cell in cells:
            m = 0
            for v in cell:
                m |= 1 << v
            cellmasks.append(m)
        new_cells = []
        changed = False
        for cell in cells:
            if len(cell) == 1:
                new_cells.append(cell)
                continue
            groups = {}
            for v in cell:
                mv = masks[v]
                sig = tuple([(mv & cm).bit_count() for cm in cellmasks])
                groups.setdefault(sig, []).append(v)
            if len(groups) == 1:
                new_cells.append(cell)
                continue
            changed = True
            for sig in sorted(groups):
                new_cells.append(groups[sig])
        cells = new_cells
        if not changed:
            return cells


def _individualisations(cells):
    """(w, the partition with w split off the front of its cell) for every
    vertex w of a non-singleton cell."""
    for t, cell in enumerate(cells):
        if len(cell) > 1:
            for w in cell:
                yield w, cells[:t] + [[w], [u for u in cell if u != w]] + cells[t + 1:]


def _assert_refines_like_the_reference(g):
    """The root, every one-vertex individualisation of its refined partition
    and every one of each such child refine to the reference's ordered cells."""
    masks = adjacency_masks(g)
    root = isotype._refine(masks, [list(range(g.n))], [(1 << g.n) - 1])
    assert root == _reference_refine(masks, [list(range(g.n))]), g
    for w, split in _individualisations(root):
        child = isotype._refine(masks, split, [1 << w])
        assert child == _reference_refine(masks, split), (g, w)
        for x, split2 in _individualisations(child):
            assert isotype._refine(masks, split2, [1 << x]) == \
                _reference_refine(masks, split2), (g, w, x)


def test_refining_against_split_cells_matches_counting_every_cell(corpus6):
    """The root, every one-vertex individualisation of its refined partition
    and every one of each such child refine to the same ordered cells."""
    rng = random.Random(29)
    graphs = list(corpus6) + _orbit_shapes()
    for g in graphs + [_random_relabel(g, rng) for g in graphs]:
        _assert_refines_like_the_reference(g)


def test_packed_signatures_refine_like_count_tuples_at_larger_orders():
    """As above, on seeded G(n, p) for 9 <= n <= 16, the Petersen graph, Q4,
    C16, K8,8, K5,5,6 and a 15-vertex graph with 91 edges, each also
    relabelled.  The last is one where packing each splitter's count into
    one bit fewer than the bit length of n refines differently: a count
    that overflows its field carries into the next splitter's."""
    rng = random.Random(31)
    graphs = [graph(n, [e for e in combinations(range(n), 2) if rng.random() < p])
              for n in range(9, 17) for p in (0.15, 0.35, 0.5, 0.65, 0.85)]
    petersen = graph(10, [(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)]
                     + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])
    q4 = graph(16, [(u, u ^ 1 << b) for u in range(16) for b in range(4) if u < u ^ 1 << b])
    dense15 = parse_graph6("N|~uz~vz^~~V^vv}~~g")
    assert (dense15.n, dense15.e) == (15, 91)
    graphs += [petersen, q4, cycle(16), _complete_multipartite(8, 8),
               _complete_multipartite(5, 5, 6), dense15]
    for g in graphs + [_random_relabel(g, rng) for g in graphs]:
        _assert_refines_like_the_reference(g)


def _nx(g):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    return h


def _symmetric_shapes():
    """Graphs on 7-9 vertices with large automorphism groups."""
    cube = graph(8, [(u, u ^ (1 << b)) for u in range(8) for b in range(3)
                     if u < u ^ (1 << b)])

    def circulant(n, steps):
        return graph(n, {tuple(sorted((u, (u + s) % n))) for u in range(n) for s in steps})

    wheel = graph(8, list(cycle(7).edges) + [(v, 7) for v in range(7)])
    return [cycle(7), cycle(9), _complete_multipartite(2, 2, 2, 2), cube, circulant(8, (1, 2)),
            circulant(9, (1, 3)), circulant(9, (1, 2, 4)), wheel,
            _complete_multipartite(3, 4), _complete_multipartite(3, 3, 3),
            disjoint_union(cycle(4), cycle(4)), disjoint_union(complete(3), cycle(5))]


def _orbit_shapes():
    """The symmetric shapes, K9 minus an edge and K4,5."""
    return _symmetric_shapes() + [graph(9, [e for e in complete(9).edges if e != (0, 1)]),
                                  _complete_multipartite(4, 5)]


def _group_order(n, generators):
    """The order of the permutation group the generators span, by sympy's
    Schreier-Sims method, which knows nothing of graphs."""
    return PermutationGroup([Permutation(list(gamma)) for gamma in generators]
                            or [Permutation(n - 1)]).order()


def test_the_search_returns_generators_of_the_automorphism_group():
    """The maps the search of a code returns each keep the edge set of the
    form the code spells, and there are none exactly when the order the
    search's orbits give is 1; that they span the whole group is tested
    with the three ways to its order.  `whitney._glue` lists its target and
    shared-set orbits as the `isotype._orbit` closures under these maps, so
    its cover tables rely on it."""
    for g in all_graphs(7) + _orbit_shapes():
        code = canonical_code(g)
        form = code_graph(code)
        autos = code_automorphisms(code)
        for gamma in autos:
            assert sorted(gamma) == list(range(g.n)), g
            assert {tuple(sorted((gamma[u], gamma[v]))) for u, v in form.edges} == form.edges, g
        assert (autos == ()) == (code_automorphism_count(code) == 1), g


def test_the_automorphism_count_is_read_off_the_cached_search(monkeypatch):
    """With the search of each code warm, from otherwise empty caches,
    `code_automorphism_count` refines nothing, decodes no code and searches
    nothing anew, for every graph with n <= 7: the order comes with the
    search, and no second walk of its path is made."""
    codes = {canonical_code(g) for g in all_graphs(7)}
    for fn in vars(isotype).values():
        if hasattr(fn, "cache_clear"):
            fn.cache_clear()
    for code in codes:
        isotype._search(code)
    refined, decoded = [], []
    refine, decode = isotype._refine, isotype.code_graph

    def decoding(code):
        decoded.append(code)
        return decode(code)

    decoding.__wrapped__ = decode.__wrapped__
    monkeypatch.setattr(isotype, "_refine", lambda *args: refined.append(args) or refine(*args))
    monkeypatch.setattr(isotype, "code_graph", decoding)
    misses = isotype._search.cache_info().misses
    for code in codes:
        code_automorphism_count(code)
    assert refined == [] and decoded == []
    assert isotype._search.cache_info().misses == misses


def test_a_leaf_that_ties_returns_to_where_the_paths_part(monkeypatch):
    """After a tying leaf the search leaves the subtree that maps onto one
    already searched: K2 + 18K1 visits one leaf per isolated vertex and one
    more, not one per isolated vertex at every depth.  The descent adds the
    one leaf it reaches, and on a form searched before visits that leaf alone."""
    leaves = []
    bits_int = isotype._bits_int

    def counting(masks, perm, n):
        leaves.append(perm)
        return bits_int(masks, perm, n)

    monkeypatch.setattr(isotype, "_bits_int", counting)
    g = graph(20, [(0, 1)])
    isotype._search.cache_clear()
    isotype._descend(g.n, edge_bits(g.edges))
    cold = len(leaves)
    form = isotype._pack(g.n, bits_int(adjacency_masks(g), leaves[0], g.n))
    leaves.clear()
    isotype._search.__wrapped__(form)
    assert len(leaves) <= 19
    assert cold == len(leaves) + 1
    leaves.clear()
    isotype._descend(g.n, edge_bits(g.edges))
    assert len(leaves) == 1


def test_the_search_runs_once_per_class():
    """Relabellings of one graph descend to one first-leaf form, so after the
    caches are emptied each isomorphism class is searched once: 34 classes
    on 5 vertices, 156 on 6."""
    rng = random.Random(23)
    by_order = {n: [_random_relabel(g, rng) for g in all_graphs(n) if g.n == n for _ in range(4)]
                for n in (5, 6)}
    isotype._labelled.cache_clear()
    isotype._search.cache_clear()
    for n, classes in ((5, 34), (6, 156)):
        before = isotype._search.cache_info().misses
        for g in by_order[n]:
            canonical_code(g)
        assert isotype._search.cache_info().misses - before == classes


def test_the_search_does_the_pinned_work(monkeypatch):
    """Work pin: from emptied caches, the searches of the 1,252 codes of the
    graphs with 1 <= n <= 7 individualise 5,983 children, and their orders
    sum to 24,083.  A node that did not close its explored children again
    under the maps that arrive while it runs would search more children.
    Counts of work on a fixed input do not drift as timings do; a change that
    moves one on purpose updates it here and says why."""
    codes = {canonical_code(g) for g in all_graphs(7)}
    for fn in vars(isotype).values():
        if hasattr(fn, "cache_clear"):
            fn.cache_clear()
    children = []
    individualise = isotype._individualise
    monkeypatch.setattr(isotype, "_individualise",
                        lambda *args: children.append(args[3]) or individualise(*args))
    total = sum(code_automorphism_count(code) for code in codes)
    assert (len(codes), len(children), total) == (1252, 5983, 24083)


def _seeded9_graphs():
    """The 40 seeded G(9, p) graphs of `test_deck._seeded9_posets`."""
    rng = random.Random(9)
    pairs = list(combinations(range(9), 2))
    return [graph(9, [e for e in pairs if rng.random() < 0.2 + 0.6 * k / 39])
            for k in range(40)]


def _clear_isotype_caches():
    for fn in vars(isotype).values():
        if hasattr(fn, "cache_clear"):
            fn.cache_clear()


def _table_digest(graphs):
    """The SHA-1 of the codes of the graphs' subset tables, in table order.
    A code's first byte fixes its length, so the bytes split back into
    codes one way only."""
    h = hashlib.sha1()
    for g in graphs:
        for code in subset_table(g).codes:
            h.update(code)
    return h.hexdigest()


def _counted_table_work(graphs, monkeypatch):
    """From emptied caches: the `_labelled` and `_search` misses, `_refine`
    calls and `_bits_int` calls of the graphs' subset tables, and their
    `_table_digest`."""
    _clear_isotype_caches()
    calls = Counter()
    for name in ("_refine", "_bits_int"):
        fn = getattr(isotype, name)
        monkeypatch.setattr(isotype, name,
                            lambda *args, fn=fn, name=name: calls.update((name,)) or fn(*args))
    digest = _table_digest(graphs)
    return (isotype._labelled.cache_info().misses, isotype._search.cache_info().misses,
            calls["_refine"], calls["_bits_int"], digest)


SEEDED9_TABLE_WORK = (5463, 1116, 17832, 8058, "0e12ca026a640eb304bbde5a22e02006b557e83d")


def test_the_labelled_misses_do_the_pinned_work(monkeypatch):
    """Work pin: from emptied caches, the subset tables of the 40 seeded
    G(9, p) graphs make 5,463 first-leaf descents and 1,116 searches, with
    17,832 refinements and 8,058 leaves, and their codes hash as pinned.  A
    change to the refinement kernel that walks another tree moves a count;
    one that moves a count on purpose updates it here and says why."""
    assert _counted_table_work(_seeded9_graphs(), monkeypatch) == SEEDED9_TABLE_WORK


def _reference_subset_table(g):
    """The per-mask pass: every vertex subset is canonicalised."""
    codes, counts, first = [], {}, {}
    for mask in range(1 << g.n):
        code = canonical_code(induced_subgraph(g, [v for v in range(g.n) if mask >> v & 1]))
        codes.append(code)
        if code in counts:
            counts[code] += 1
        else:
            counts[code], first[code] = 1, mask
    return tuple(codes), counts, first


def _asymmetric_gnm(rng, n, m):
    """A seeded G(n, m) whose only automorphism is the identity."""
    pairs = list(combinations(range(n), 2))
    while True:
        g = graph(n, rng.sample(pairs, m))
        if code_automorphism_count(canonical_code(g)) == 1:
            return g


def test_subset_table_equals_the_per_mask_pass(corpus6):
    """Canonicalising each subset from its adjacency bits changes no field,
    on asymmetric and symmetric 9-vertex graphs, and on K10 - e and K5,5 at
    the command line's vertex limit, 1,024 masks each; every graph also
    relabelled."""
    rng = random.Random(13)
    graphs = list(corpus6) + _orbit_shapes() + [_complete_multipartite(2, 2, 2, 3)]
    graphs += [graph(10, [e for e in complete(10).edges if e != (0, 1)]),
               _complete_multipartite(5, 5)]
    graphs += [_asymmetric_gnm(rng, 9, m) for m in (8, 11, 24, 26)]
    for g in graphs + [_random_relabel(g, rng) for g in graphs]:
        assert tuple(subset_table(g)) == _reference_subset_table(g), g


def test_subset_bits_spell_the_induced_subgraphs():
    """Decoding the adjacency bits of each vertex subset S gives the masks of
    induced_subgraph(g, S)."""
    rng = random.Random(37)
    pairs = list(combinations(range(8), 2))
    for g in (graph(8, rng.sample(pairs, 11)), graph(8, rng.sample(pairs, 19))):
        bits = isotype._subset_bits(adjacency_masks(g), g.n)
        for mask in range(1 << g.n):
            s = [v for v in range(g.n) if mask >> v & 1]
            assert isotype._column_masks(len(s), bits[mask]) == \
                adjacency_masks(induced_subgraph(g, s)), (g, s)


def test_a_subset_table_adds_at_most_its_graph_to_the_canonical_cache():
    """The subsets are canonicalised through the bounded `_labelled` cache,
    keyed by their bits; before, each of the 512 subsets of an asymmetric
    9-vertex graph became a `Graph` in a cache of its own.  Each distinct
    labelled subset, g's own bits included, is descended once."""
    g = _asymmetric_gnm(random.Random(41), 9, 18)
    bits = isotype._subset_bits(adjacency_masks(g), g.n)
    keys = {(mask.bit_count(), bits[mask]) for mask in range(1 << g.n)}
    assert (g.n, edge_bits(g.edges)) in keys
    isotype._labelled.cache_clear()
    isotype._search.cache_clear()
    subset_table.__wrapped__(g)
    info = isotype._labelled.cache_info()
    # one lookup per mask and none for g's generators, one miss per labelled graph
    assert info.hits + info.misses == 512
    assert info.misses == info.currsize == len(keys) <= info.maxsize
    # each miss looks its form up once
    searched = isotype._search.cache_info()
    assert searched.hits + searched.misses == info.misses


def test_n_matrices_read_no_automorphism_group(monkeypatch):
    """Subset tables, N-matrices and induced counts come from the codes of
    the vertex subsets alone: with `code_automorphisms` refusing in every
    module that reads it, they are what they are without, on the orbit
    shapes (K3,3,3 among them)."""
    graphs = _orbit_shapes()
    assert _complete_multipartite(3, 3, 3) in graphs
    small = all_graphs(4)

    def run():
        subset_table.cache_clear()
        isotype._labelled.cache_clear()
        return [(subset_table.__wrapped__(g), nmatrix(g),
                 [count_induced(g, f) for f in small]) for g in graphs]

    want = run()

    def refuse(code):
        raise AssertionError("code_automorphisms called")

    for name, module in list(sys.modules.items()):
        if name.startswith("reconkit") and hasattr(module, "code_automorphisms"):
            monkeypatch.setattr(module, "code_automorphisms", refuse)
    assert run() == want


def test_canonical_code_reads_adjacency_bits():
    """The code read from the bits is the minimum of the search that visits
    every leaf of g's own tree, on every graph with n <= 6 in seeded
    relabellings and on seeded G(n, p), n = 8..10."""
    rng = random.Random(53)
    graphs = [_random_relabel(g, rng) for g in all_graphs(6) for _ in range(2)]
    for n in (8, 9, 10):
        pairs = list(combinations(range(n), 2))
        graphs += [graph(n, [e for e in pairs if rng.random() < p])
                   for p in (0.2, 0.5, 0.8) for _ in range(3)]
    for g in graphs:
        assert canonical_code(g) == isotype._pack(g.n, _reference_canon(g)[0]), g


def test_are_isomorphic_agrees_with_networkx():
    rng = random.Random(2024)
    graphs = _symmetric_shapes()
    for n in (7, 8, 9):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        for m in (n - 1, n + 2, len(pairs) // 2, len(pairs) - n):
            graphs += [graph(n, rng.sample(pairs, m)) for _ in range(3)]
    outcomes = Counter()
    for g in graphs:
        relabelled = _random_relabel(g, rng)
        assert canonical_code(g) == canonical_code(relabelled), g
        pairs = [(u, v) for u in range(g.n) for v in range(u + 1, g.n)]
        for _ in range(3):
            gone = rng.choice(sorted(relabelled.edges))
            new = rng.choice([p for p in pairs if p not in relabelled.edges])
            moved = graph(g.n, (relabelled.edges - {gone}) | {new})
            expected = nx.is_isomorphic(_nx(g), _nx(moved))
            assert (canonical_code(g) == canonical_code(moved)) == expected, (g, moved)
            outcomes[expected] += 1
    # some moved copies are still isomorphic, so both answers are exercised
    assert outcomes[True] and outcomes[False]


def test_canonical_code_of_twelve_vertex_symmetric_graphs():
    """Each of these is a 12!-leaf search without automorphism pruning."""
    nbits = 12 * 11 // 2
    assert int.from_bytes(canonical_code(complete(12))[1:], "big") == (1 << nbits) - 1
    assert int.from_bytes(canonical_code(empty_graph(12))[1:], "big") == 0
    k66 = _complete_multipartite(6, 6)
    rng = random.Random(12)
    assert canonical_code(_random_relabel(k66, rng)) == canonical_code(k66)


def test_code_is_relabelling_invariant(corpus5):
    rng = random.Random(11)
    for g in corpus5:
        code = canonical_code(g)
        for _ in range(4):
            assert canonical_code(_random_relabel(g, rng)) == code


def test_code_separates_examples():
    assert canonical_code(path(3)) == canonical_code(graph(3, [(2, 0), (0, 1)]))
    assert canonical_code(complete(3)) != canonical_code(path(3))
    assert canonical_code(cycle(4)) != \
        canonical_code(disjoint_union(complete(3), empty_graph(1)))


def test_codes_separate_all_types_up_to_8():
    counts = Counter(g.n for g in all_graphs(8))
    assert [counts[i] for i in range(1, 9)] == [1, 2, 4, 11, 34, 156, 1044, 12346]


def test_canonical_rep_is_isomorphic_and_stable(corpus5):
    for g in corpus5:
        rep = code_graph(canonical_code(g))
        assert canonical_code(rep) == canonical_code(g)
        assert code_graph(canonical_code(rep)) == rep


def test_a_code_spells_the_witness_relabelling(corpus6):
    """code_graph reads back the graph relabelled by the search's witness,
    whose code is the code itself."""
    rng = random.Random(15)
    graphs = list(corpus6) + _orbit_shapes()
    for g in graphs + [_random_relabel(g, rng) for g in graphs]:
        pos = {v: k for k, v in enumerate(canonical_witness(g)[1])}
        relabelled = graph(g.n, [(pos[u], pos[v]) for u, v in g.edges])
        code = canonical_code(g)
        assert code_graph(code) == relabelled, g
        assert canonical_code(relabelled) == code, g


def test_a_decoded_code_is_cached():
    """Decoding a code twice gives the one graph, decoded once."""
    code = canonical_code(cycle(5))
    first = code_graph(code)
    hits = code_graph.cache_info().hits
    assert code_graph(code) is first and first == graph(5, [(0, 3), (0, 4), (1, 2), (1, 4), (2, 3)])
    assert code_graph.cache_info().hits == hits + 1


def test_the_search_reads_a_form_as_the_graph_it_spells(corpus6):
    """`_search` decodes its form straight into adjacency masks.  For every
    graph with n <= 6, a relabelled K12 and C13, the graph packed in its own
    labels and its code each decode to the masks of the graph `code_graph`
    reads from the same bytes, and the first to the graph's own masks."""
    rng = random.Random(37)
    graphs = list(corpus6) + [_random_relabel(complete(12), rng), cycle(13)]
    for g in graphs:
        masks = adjacency_masks(g)
        form = isotype._pack(g.n, isotype._bits_int(masks, range(g.n), g.n))
        for packed in (form, canonical_code(g)):
            assert isotype._form_masks(packed) == adjacency_masks(code_graph.__wrapped__(packed)), g
        assert isotype._form_masks(form) == masks, g


def test_count_induced_prism_values(prism):
    assert count_induced(prism, path(2)) == 9
    assert count_induced(prism, complete(3)) == 2
    assert count_induced(prism, cycle(4)) == 3


def test_count_induced_basics(corpus5):
    for g in corpus5:
        assert count_induced(g, g) == 1
        assert count_induced(g, empty_graph(1)) == g.n


def test_count_induced_matches_networkx():
    """Every f on at most 4 vertices, isolated vertices, K1 and the empty graph
    included, against vertex subsets tested with `networkx.is_isomorphic`."""
    rng = random.Random(10)
    hosts = [graph(n, [e for e in combinations(range(n), 2) if rng.random() < 0.5])
             for n in (5, 6, 7, 7)]
    pool = [empty_graph(0), *all_graphs(4)]
    for g in hosts:
        big = _nx(g)
        for f in pool:
            want = sum(1 for s in combinations(range(g.n), f.n)
                       if nx.is_isomorphic(big.subgraph(s), _nx(f)))
            assert count_induced(g, f) == want, (g, f)


def test_count_subgraphs_examples():
    assert count_subgraphs(complete(3), path(2)) == 3
    assert count_subgraphs(complete(4), cycle(4)) == 3
    assert count_subgraphs(cycle(4), path(3)) == 4


def test_count_subgraphs_rejects_isolated_vertices():
    with pytest.raises(DomainError):
        count_subgraphs(complete(3), disjoint_union(path(2), empty_graph(1)))


def test_count_subgraphs_equals_the_unguarded_backtrack(monkeypatch):
    """On every pair of a graph g with n <= 6 and a type f without isolated
    vertices, v(f) <= v(g), the count equals that of a plain backtrack with
    no degree guard, and the degree-dominance guard answers 4,758 of the
    14,053 pairs with e(f) <= e(g) without a backtrack."""
    graphs = all_graphs(6)
    shapes = [f for f in graphs if f.e and not f.has_isolated_vertex()]
    for f in shapes:
        isotype._pattern(f)  # the pattern's own orbit searches, before the spy
    backtracks = []
    real = isotype._embedding_count
    monkeypatch.setattr(isotype, "_embedding_count",
                        lambda plan, masks: backtracks.append(plan) or real(plan, masks))
    skipped = 0
    for g in graphs:
        for f in shapes:
            if f.n <= g.n:
                before = len(backtracks)
                assert count_subgraphs.__wrapped__(g, f) == unguarded_subgraph_count(g, f), (g, f)
                skipped += f.e <= g.e and len(backtracks) == before
    assert skipped == 4758


def test_each_copy_is_counted_once():
    """Every type f without isolated vertices on at most 7 vertices is one
    copy of itself, and so is each larger symmetric shape: those of the
    `build` bench, the orbit shapes, K10, K5,5, Petersen and C10, whose
    stabiliser chains are the deepest.  K_m for m <= 8 holds
    m! / ((m - v_f)! |Aut f|) copies of each small f with v_f <= 5, where
    |Aut f| is the order of the group the canonical search's generators
    span, not the pattern's own count."""
    types = verify._small_types(7, False)
    shapes = (_build_shapes() + [f for f in _orbit_shapes() if not f.has_isolated_vertex()]
              + [f for f, _order in _named_shapes()])
    for f in types + tuple(shapes):
        assert count_subgraphs(f, f) == 1, f
    for f in types:
        if f.n <= 5:
            auts = _group_order(f.n, code_automorphisms(canonical_code(f)))
            for m in range(f.n, 9):
                want = factorial(m) // (factorial(m - f.n) * auts)
                assert count_subgraphs(complete(m), f) == want, (m, f)


def _prefixed_searches(monkeypatch):
    """A list that records the prefix of every uncached `_search` from here on."""
    prefixes = []
    real = isotype._search.__wrapped__
    monkeypatch.setattr(isotype._search, "__wrapped__",
                        lambda form, fixed=(): prefixes.append(fixed) or real(form, fixed))
    return prefixes


def _counted_patterns(types, monkeypatch):
    """The SHA-1 of the concatenated `repr` of the types' uncached patterns,
    in order, and the number of prefixed searches they make."""
    prefixed = _prefixed_searches(monkeypatch)
    h = hashlib.sha1()
    for f in types:
        h.update(repr(isotype._pattern.__wrapped__(f)).encode())
    return h.hexdigest(), len(prefixed)


def test_the_patterns_do_the_pinned_work(monkeypatch):
    """Work pin: the plans of the 1,043 types without isolated vertices on
    at most 7 vertices hash to a fixed SHA-1, and their stabiliser chains
    make 5 searches with a prefix of the plan fixed; the maps of the group's
    generators that fix the prefix give every other orbit.  A changed
    condition, or a chain that searches more often, fails here without
    timing noise."""
    digest, prefixed = _counted_patterns(verify._small_types(7, False), monkeypatch)
    assert (digest, prefixed) == ("6c4fe49fc59c95c17e6b498865b4511fcccade40", 5)


def test_relabelled_patterns_search_only_their_codes():
    """A pattern is planned on its canonical form: C5, K4 and the prism on
    seeded relabellings count as many copies in K7 as their forms do, and
    once the form's search is cached they make no `_search` miss."""
    rng = random.Random(59)
    prism = graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)])
    k7 = complete(7)
    for f in (cycle(5), complete(4), prism):
        want = count_subgraphs(k7, code_graph(canonical_code(f)))
        relabelled = _random_relabel(f, rng)
        canonical_code(relabelled)
        misses = isotype._search.cache_info().misses
        assert count_subgraphs(k7, relabelled) == want, f
        assert isotype._search.cache_info().misses == misses, f


def test_the_pattern_cache_holds_every_type_of_a_seven_vertex_subject():
    """An n = 7 subject's counts walk all these types in the same order, so a
    smaller cache would evict each pattern before the walk came back to it."""
    assert isotype._pattern.cache_parameters()["maxsize"] >= len(verify._small_types(7, False))


def _plan_order(f):
    """|Aut f| from `_pattern`'s plan: the orbit of position i under the
    stabiliser of the earlier positions is i and the later positions whose
    conditions name i."""
    plan, _degrees = isotype._pattern.__wrapped__(f)
    return prod(1 + sum(i in smaller for _back, _deg, smaller in plan) for i in range(len(plan)))


def _build_shapes():
    """The symmetric shapes of the `build` bench: complete multipartite
    graphs, and K8 or K9 less a matching or a star."""
    def less(n, missing):
        return graph(n, [e for e in complete(n).edges if e not in missing])

    parts = [(4, 4), (2, 2, 2, 2), (1, 1, 1, 5), (2, 3, 3), (1, 2, 5), (3, 3, 3), (2, 2, 5),
             (1, 4, 4), (4, 5), (2, 2, 2, 3)]
    return ([_complete_multipartite(*sizes) for sizes in parts]
            + [less(n, {(2 * i, 2 * i + 1) for i in range(k)})
               for n, k in ((9, 1), (8, 1), (8, 2), (8, 3), (8, 4), (9, 4))]
            + [less(8, {(0, i + 1) for i in range(k)}) for k in (2, 3, 4)])


def _named_shapes():
    """K10, K5,5, the Petersen graph and C10, with their automorphism group
    orders."""
    petersen = graph(10, [(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)]
                     + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])
    return [(complete(10), 3628800), (_complete_multipartite(5, 5), 28800),
            (petersen, 120), (cycle(10), 20)]


def test_three_ways_to_the_automorphism_group_order(monkeypatch):
    """|Aut g| three ways: the product of the orbit sizes along the canonical
    search's witness path, the order of the group its generators span, and
    the product over the pattern's stabiliser chain in plan order, which
    makes at most n searches with a prefix of the plan fixed.  The chain
    keeps the search's maps only where their orbits multiply to its order,
    so the third way mostly checks the prefixed searches.  K10, K5,5,
    Petersen and C10 have 3,628,800, 28,800, 120 and 20."""
    named = _named_shapes()
    searches = _prefixed_searches(monkeypatch)
    for g in all_graphs(7) + _orbit_shapes() + _build_shapes() + [g for g, _order in named]:
        code = canonical_code(g)
        searches.clear()
        order = _plan_order(g)
        assert len(searches) <= g.n, (g, len(searches))
        assert code_automorphism_count(code) == _group_order(g.n, code_automorphisms(code)) \
            == order, g
    for g, order in named:
        assert code_automorphism_count(canonical_code(g)) == order, g


def test_subgraph_induced_relation(corpus5):
    """<G,F> = sum over types H with v(H) = v(F) of (G choose H) <H,F>."""
    small = [h for h in all_graphs(4)]
    targets = [f for f in small
               if f.e >= 1 and not f.has_isolated_vertex()]
    for g in corpus5:
        if g.n > 5:
            continue
        for f in targets:
            if f.n > g.n:
                continue
            via = sum(count_induced(g, h) * count_subgraphs(h, f)
                      for h in small if h.n == f.n and h.e >= f.e)
            assert via == count_subgraphs(g, f), (g, f)


def test_count_subgraphs_matches_the_type_table():
    """The copy count against canonicalising every e(f)-edge subset of g,
    and against networkx's monomorphisms divided by the automorphisms of f."""
    small = all_graphs(5)
    shapes = [f for f in small if f.e and not f.has_isolated_vertex()]
    for g in small:
        for f in shapes:
            if f.n <= g.n:
                want = subgraph_type_table(g, f.e).get(canonical_code(f), 0)
                assert count_subgraphs(g, f) == want, (g, f)
    # the shapes of the vertex deck's Kelly counts: cycles, matchings, their
    # disjoint unions and their unions on shared vertices
    blocks = [path(2), path(3), complete(3), cycle(4), cycle(5), cycle(6), complete(4),
              elementary_graph((2, 2)), elementary_graph((2, 2, 2)),
              elementary_graph((3, 2)), elementary_graph((4, 2)),
              elementary_graph((3, 3)), elementary_graph((3, 2, 2)),
              graph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)]),
              graph(4, [(0, 1), (1, 2), (0, 2), (1, 3), (2, 3)])]
    rng = random.Random(9)
    hosts = [graph(n, [e for e in combinations(range(n), 2) if rng.random() < 0.5])
             for n in (7, 7, 8, 8)]
    matcher = nx.algorithms.isomorphism.GraphMatcher
    for g in hosts:
        for f in blocks:
            mono = sum(1 for _ in matcher(_nx(g), _nx(f)).subgraph_monomorphisms_iter())
            auts = sum(1 for _ in matcher(_nx(f), _nx(f)).isomorphisms_iter())
            assert count_subgraphs(g, f) == mono // auts, (g, f)


def test_eq1_fails_on_a_wrong_induced_count(bowtie, monkeypatch):
    """The tabulated rows of eq1 leave the check able to fail."""
    g = bowtie
    assert verify.run_checks(g, ["eq1"]) == {"eq1": []}
    tri = canonical_code(complete(3))
    real = verify.subset_table

    def one_more_triangle(g):
        table = real(g)
        return table._replace(counts={**table.counts, tri: table.counts.get(tri, 0) + 1})

    monkeypatch.setattr(verify, "subset_table", one_more_triangle)
    assert verify.run_checks(g, ["eq1"]) == {"eq1": ["subgraph/induced relation violated"]}


def test_the_eq1_recurrence_matches_direct_counts():
    """The edge-deck recurrence gives every pair with n <= 6 the count of
    embeddings: s(f, h) = count_subgraphs(h, f) for each spanning f, and h
    with an isolated vertex holds none."""
    rows = {canonical_code(f): dict(row) for f, row in verify._eq1_rows(6)}
    fs = [f for f in all_graphs(6) if f.e and not f.has_isolated_vertex()]
    assert sorted(rows) == sorted(map(canonical_code, fs))
    pairs = 0
    for f in fs:
        for h in all_graphs(f.n):
            if h.n == f.n:
                pairs += 1
                assert rows[canonical_code(f)].get(canonical_code(h), 0) == count_subgraphs(h, f)
    assert pairs == 19901


def test_a_remainder_in_the_eq1_recurrence_is_an_error(monkeypatch):
    """s(P3, K3) = 3 copies over e(K3) - e(P3) = 1; read as two, it leaves a remainder."""
    real, p3 = verify.code_graph, canonical_code(path(3))
    monkeypatch.setattr(verify, "code_graph", lambda code: path(2) if code == p3 else real(code))
    with pytest.raises(ConsistencyError):
        verify._eq1_rows.__wrapped__(3)


def _cards(deck) -> tuple:
    """A vertex deck as `kelly_count` takes it: (card, multiplicity) pairs."""
    return tuple(Counter(deck).items())


def test_kelly_count_examples(prism):
    assert kelly_count(_cards(vertex_deck(complete(4))), complete(3)) == 4
    assert kelly_count(_cards(vertex_deck(cycle(5))), path(2)) == 5
    assert kelly_count(_cards(vertex_deck(prism)), cycle(4)) == 3


def test_kelly_count_matches_direct(corpus5):
    pool = [f for f in all_graphs(4)
            if f.e >= 1 and not f.has_isolated_vertex()]
    for g in corpus5:
        if g.n < 3:
            continue
        deck = _cards(vertex_deck(g))
        for f in pool:
            if f.n >= g.n:
                continue
            assert kelly_count(deck, f) == count_subgraphs(g, f)
        for f in all_graphs(g.n - 1):
            assert kelly_count(deck, f, induced=True) == count_induced(g, f)


def test_kelly_count_detects_bad_deck():
    # not the vertex deck of any 4-vertex graph: the K2 counts sum to 9
    deck = ((path(3), 3), (complete(3), 1))
    with pytest.raises(InconsistentDeckError):
        kelly_count(deck, path(2))
    with pytest.raises(DomainError):
        kelly_count(_cards(vertex_deck(complete(3))), complete(3))


def test_isoclass_ordering_prefers_fewer_edges(paw):
    # within equal (v, e) the code decides; across e the sparser type sorts first
    a = IsoClass(canonical_code(path(4)))
    b = IsoClass(canonical_code(paw))
    c = IsoClass(canonical_code(cycle(4)))
    assert a.sort_key() < b.sort_key() < c.sort_key()


def _n9():
    """Hand-run kernel timing: `PYTHONPATH=src python tests/test_isotype.py n9`.

    From emptied caches, builds the subset tables of the 40 seeded G(9, p)
    graphs (`_seeded9_graphs`) in one process and prints the CPU seconds
    they take, the `_labelled` and `_search` misses, the peak RSS in MB and
    the `_table_digest`.  Then, from emptied caches again, it counts every
    `_refine` and `_bits_int` call of the same tables, outside the timing.
    """
    graphs = _seeded9_graphs()
    _clear_isotype_caches()
    start = time.process_time()
    digest = _table_digest(graphs)
    seconds = time.process_time() - start
    print("seconds %.3f" % seconds)
    print("labelled_misses", isotype._labelled.cache_info().misses,
          "search_misses", isotype._search.cache_info().misses)
    print("peak_rss_mb %.1f" % (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024))
    print("codes", digest)
    with pytest.MonkeyPatch.context() as monkeypatch:
        work = _counted_table_work(graphs, monkeypatch)
    print("refine_calls", work[2], "bits_int_calls", work[3])


def _patterns():
    """Hand-run cold-pattern timing:
    `PYTHONPATH=src python tests/test_isotype.py patterns`.

    Builds the 1,043 types without isolated vertices on at most 7 vertices,
    empties the caches (`_labelled`, `_search`, `_pattern` and `code_graph`
    among them), then builds the types' patterns in one process and prints
    the CPU seconds they take, the `_search` misses, the prefixed searches
    and the plans' SHA-1 (`_counted_patterns`).
    """
    types = verify._small_types(7, False)
    _clear_isotype_caches()
    with pytest.MonkeyPatch.context() as monkeypatch:
        start = time.process_time()
        digest, prefixed = _counted_patterns(types, monkeypatch)
        seconds = time.process_time() - start
    print("seconds %.3f" % seconds)
    print("search_misses", isotype._search.cache_info().misses, "prefixed_searches", prefixed)
    print("plans", digest)


if __name__ == "__main__" and sys.argv[1:] == ["n9"]:
    _n9()

if __name__ == "__main__" and sys.argv[1:] == ["patterns"]:
    _patterns()
