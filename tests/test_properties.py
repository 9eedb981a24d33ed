"""Derandomised property tests through the pipelines.

Random graphs on 7 and 8 vertices, and six on 9, go through
`reconstruct(strip(nmatrix(g)))` and through
`charpoly_from_vertex_deck(vertex_deck(g))`, and one seeded graph on 10
through the vertex deck.  The poset-fill validation and the deck's exact
divisions must refuse none of them, and every invariant a pipeline reports
must equal its oracle.  The 9- and 10-vertex decks glue unions of up to 9
and 10 vertices, orders at which no other test builds a cover table.
"""

import random
from itertools import combinations

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from reconkit.deck import nmatrix, strip
from reconkit.graphcore import graph, vertex_deck
from reconkit.nrecon import reconstruct
from reconkit.oracle import (charpoly_oracle, ham_oracle, psi_oracle, rankpoly_oracle,
                             tr_oracle, uni_oracle)
from reconkit.whitney import charpoly_from_vertex_deck

PIPELINE = settings(derandomize=True, database=None, deadline=None, max_examples=10)
NINE = settings(PIPELINE, max_examples=6)


@st.composite
def _graphs(draw, lo=7, hi=8):
    """A graph on lo to hi vertices: one drawn edge, and each pair an edge
    with probability 1/2."""
    n = draw(st.integers(lo, hi))
    pairs = list(combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return graph(n, [draw(st.sampled_from(pairs))] + [e for e, k in zip(pairs, keep) if k])


def _nrecon_matches_the_oracles(g):
    rec = reconstruct(strip(nmatrix(g)))
    tp = rec.top
    assert tp.charpoly.coeffs == charpoly_oracle(g).coeffs
    assert tp.tr == tr_oracle(g)
    assert tp.ham == ham_oracle(g)
    assert all(tp.psi.get(i, 0) == psi_oracle(g, i) for i in range(2, g.n + 1))
    assert all(tp.uni.get(r, 0) == uni_oracle(g, r) for r in range(3, g.n + 1))
    assert rec.rankpoly() == rankpoly_oracle(g)


@PIPELINE
@given(_graphs())
def test_nrecon_accepts_random_graphs_and_matches_the_oracles(g):
    _nrecon_matches_the_oracles(g)


@NINE
@given(_graphs(9, 9))
def test_nrecon_accepts_random_nine_vertex_graphs_and_matches_the_oracles(g):
    _nrecon_matches_the_oracles(g)


@PIPELINE
@given(_graphs())
def test_the_vertex_deck_gives_random_graphs_their_oracle_charpoly(g):
    assert charpoly_from_vertex_deck(vertex_deck(g)).coeffs == charpoly_oracle(g).coeffs


@NINE
@given(_graphs(9, 9))
def test_the_vertex_deck_gives_random_nine_vertex_graphs_their_oracle_charpoly(g):
    assert charpoly_from_vertex_deck(vertex_deck(g)).coeffs == charpoly_oracle(g).coeffs


def test_the_vertex_deck_gives_a_ten_vertex_graph_its_oracle_charpoly():
    """G(10, 1/2) drawn by `random.Random(10)`, the pairs in `combinations`
    order: 10 vertices is the CLI's limit."""
    rng = random.Random(10)
    g = graph(10, [e for e in combinations(range(10), 2) if rng.random() < 0.5])
    assert charpoly_from_vertex_deck(vertex_deck(g)).coeffs == charpoly_oracle(g).coeffs
