import random

import networkx as nx
import pytest

from reconkit.errors import DomainError, Graph6ParseError
from reconkit.graphcore import (Graph, all_graphs, blocks, complete, cycle,
                                disjoint_union, elementary_graph, empty_graph,
                                graph, induced_subgraph, parse_graph6, path,
                                vertex_deck, write_graph6)
from reconkit.isotype import canonical_code


def test_graph_construction_rejects_bad_edges():
    with pytest.raises(DomainError):
        graph(2, [(0, 0)])
    with pytest.raises(DomainError):
        graph(2, [(0, 2)])
    with pytest.raises(DomainError):
        Graph(-1, frozenset())
    # an edge that is not a tuple of two ints; a frozenset triangle once
    # reached psi_oracle and raised a bare KeyError
    triangle = [frozenset(e) for e in ((0, 1), (0, 2), (1, 2))]
    for edges in (triangle, [(0.0, 1)], [(0, 1, 2)], ["ab"], [(False, True)]):
        with pytest.raises(DomainError):
            Graph(3, frozenset(edges))


def test_graph6_known_encodings():
    assert write_graph6(path(2)) == "A_"
    assert write_graph6(complete(3)) == "Bw"
    assert write_graph6(empty_graph(2)) == "A?"
    assert write_graph6(empty_graph(0)) == "?"
    assert parse_graph6("A_") == path(2)
    assert parse_graph6("Bw") == complete(3)
    assert parse_graph6("A?") == empty_graph(2)
    assert parse_graph6("?") == empty_graph(0)


def test_graph6_accepts_standard_prefix_and_whitespace():
    assert parse_graph6(">>graph6<<A_\n") == path(2)


def test_graph6_roundtrip_exhaustive_small(corpus5):
    for g in corpus5:
        assert parse_graph6(write_graph6(g)) == g


def test_graph6_roundtrip_random_to_ten_vertices():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(0, 10)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < 0.4]
        g = graph(n, edges)
        assert parse_graph6(write_graph6(g)) == g


def test_graph6_errors_carry_offsets():
    with pytest.raises(Graph6ParseError) as exc:
        parse_graph6("")
    assert exc.value.offset == 0
    with pytest.raises(Graph6ParseError) as exc:
        parse_graph6("~??")  # >62-vertex header
    assert exc.value.offset == 0
    with pytest.raises(Graph6ParseError) as exc:
        parse_graph6("B")  # truncated
    assert exc.value.offset == 1
    with pytest.raises(Graph6ParseError) as exc:
        parse_graph6("A_X")  # trailing garbage
    assert exc.value.offset == 2
    with pytest.raises(Graph6ParseError):
        parse_graph6("A" + chr(30))  # byte below the offset range
    with pytest.raises(Graph6ParseError):
        parse_graph6("AW")  # nonzero padding bits for n=2


def test_write_graph6_rejects_large():
    with pytest.raises(DomainError):
        write_graph6(empty_graph(63))


def test_induced_subgraph_examples(prism):
    assert induced_subgraph(complete(3), [0, 1]) == path(2)
    assert induced_subgraph(path(3), [0, 2]) == empty_graph(2)
    assert induced_subgraph(prism, [0, 1, 2]) == complete(3)
    assert induced_subgraph(prism, [3, 4, 5]) == complete(3)
    with pytest.raises(DomainError):
        induced_subgraph(path(3), [0, 7])


def test_induced_subgraph_full_set_is_identity(corpus5):
    for g in corpus5:
        assert canonical_code(induced_subgraph(g, range(g.n))) == canonical_code(g)


def test_vertex_deck(prism):
    assert [c.e for c in vertex_deck(complete(3))] == [1, 1, 1]
    deck = vertex_deck(path(3))
    assert sorted(c.e for c in deck) == [0, 1, 1]
    # the prism is 3-regular, so every card keeps 9 - 3 = 6 edges
    deck = vertex_deck(prism)
    assert len(deck) == 6
    assert all(c.n == 5 and c.e == 6 for c in deck)
    with pytest.raises(DomainError):
        vertex_deck(empty_graph(0))


def test_blocks_examples(bowtie):
    assert [b.e for b in blocks(complete(3))] == [3]
    assert [b.e for b in blocks(path(3))] == [1, 1]
    assert sorted(b.n for b in blocks(bowtie)) == [3, 3]
    assert all(canonical_code(b) == canonical_code(complete(3)) for b in blocks(bowtie))
    assert blocks(empty_graph(4)) == []


def _nx_graph(g):
    nxg = nx.Graph()
    nxg.add_nodes_from(range(g.n))
    nxg.add_edges_from(g.edges)
    return nxg


def _seeded_graphs():
    """Ten seeded G(n, 1/2) for each n = 7..10; the CLI reaches 10 vertices."""
    rng = random.Random(25)
    return [graph(n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5])
            for n in range(7, 11) for _ in range(10)]


def test_blocks_match_networkx(corpus6):
    for g in corpus6 + _seeded_graphs():
        bl = blocks(g)
        assert sum(b.e for b in bl) == g.e
        nxg = _nx_graph(g)
        nx_blocks = [induced_subgraph(g, c) for c in nx.biconnected_components(nxg)]
        assert bl == sorted((b for b in nx_blocks if b.e), key=lambda b: (b.n, b.sorted_edges()))
        # blocks pairwise share at most one vertex
        vsets = [c for c in nx.biconnected_components(nxg) if len(c) > 1]
        for i in range(len(vsets)):
            for j in range(i + 1, len(vsets)):
                assert len(vsets[i] & vsets[j]) <= 1


def test_elementary_graph_builder():
    assert canonical_code(elementary_graph([2, 2])) == \
        canonical_code(disjoint_union(path(2), path(2)))
    assert canonical_code(elementary_graph([4])) == canonical_code(cycle(4))
    assert canonical_code(elementary_graph([3, 2])) == \
        canonical_code(disjoint_union(cycle(3), path(2)))
    with pytest.raises(DomainError):
        elementary_graph([1])


def test_all_graphs_counts():
    from collections import Counter
    c = Counter(g.n for g in all_graphs(6))
    assert [c[i] for i in range(1, 7)] == [1, 2, 4, 11, 34, 156]
