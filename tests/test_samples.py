"""Seeded 7- to 10-vertex samples: the pipelines and the sweep's checks
beyond the exhaustive-sweep orders."""

import random
from itertools import combinations

from reconkit.deck import elp_from_nmatrix, nmatrix, nmatrix_from_elp, strip
from reconkit.graphcore import all_graphs, graph, vertex_deck, write_graph6
from reconkit.nrecon import reconstruct
from reconkit.oracle import (charpoly_oracle, ham_oracle, psi_oracle,
                             rankpoly_oracle, tr_oracle, uni_oracle)
from reconkit.verify import CHECKS, is_candidate, run_checks
from reconkit.whitney import charpoly_from_vertex_deck


def _pool7():
    return [g for g in all_graphs(7, min_edges=1) if g.n == 7]


def test_nrecon_sample_seven_vertices():
    rng = random.Random(99)
    for g in rng.sample(_pool7(), 30):
        nm = strip(nmatrix(g))
        assert nmatrix_from_elp(elp_from_nmatrix(nm)).rows == nm.rows
        tp = reconstruct(nm).top
        assert tp.charpoly.coeffs == charpoly_oracle(g).coeffs, write_graph6(g)
        assert tp.ham == ham_oracle(g)
        assert tp.tr == tr_oracle(g)
        assert all(tp.psi.get(i, 0) == psi_oracle(g, i) for i in range(2, 8))
        assert all(tp.uni.get(r, 0) == uni_oracle(g, r) for r in range(3, 8))


def test_nrecon_sample_eight_vertices():
    rng = random.Random(8)
    pairs = list(combinations(range(8), 2))
    for m in (9, 11, 13, 15, 17, 19):
        g = graph(8, rng.sample(pairs, m))
        rec = reconstruct(strip(nmatrix(g)))
        tp = rec.top
        assert tp.charpoly.coeffs == charpoly_oracle(g).coeffs, write_graph6(g)
        assert tp.ham == ham_oracle(g)
        assert tp.tr == tr_oracle(g)
        assert all(tp.psi.get(i, 0) == psi_oracle(g, i) for i in range(2, 9))
        assert all(tp.uni.get(r, 0) == uni_oracle(g, r) for r in range(3, 9))
        assert rec.rankpoly() == rankpoly_oracle(g), write_graph6(g)


def test_nrecon_sample_nine_vertices():
    """charpoly, ham, psi, tr, uni and the rank polynomial at every density up
    to 34 of 36 edges."""
    rng = random.Random(9)
    pairs = list(combinations(range(9), 2))
    for m in (12, 20, 28, 34):
        g = graph(9, rng.sample(pairs, m))
        rec = reconstruct(strip(nmatrix(g)))
        tp = rec.top
        assert tp.charpoly.coeffs == charpoly_oracle(g).coeffs, write_graph6(g)
        assert tp.ham == ham_oracle(g)
        assert all(tp.psi.get(i, 0) == psi_oracle(g, i) for i in range(2, 10))
        assert tp.tr == tr_oracle(g), write_graph6(g)
        assert all(tp.uni.get(r, 0) == uni_oracle(g, r) for r in range(3, 10))
        assert rec.rankpoly() == rankpoly_oracle(g), write_graph6(g)


def test_nrecon_sample_ten_vertices():
    """The same at the command line's vertex limit, up to 41 of 45 edges."""
    rng = random.Random(10)
    pairs = list(combinations(range(10), 2))
    for m in (14, 23, 32, 41):
        g = graph(10, rng.sample(pairs, m))
        rec = reconstruct(strip(nmatrix(g)))
        tp = rec.top
        assert tp.charpoly.coeffs == charpoly_oracle(g).coeffs, write_graph6(g)
        assert tp.ham == ham_oracle(g)
        assert all(tp.psi.get(i, 0) == psi_oracle(g, i) for i in range(2, 11))
        assert tp.tr == tr_oracle(g), write_graph6(g)
        assert all(tp.uni.get(r, 0) == uni_oracle(g, r) for r in range(3, 11))
        assert rec.rankpoly() == rankpoly_oracle(g), write_graph6(g)


def test_vertexdeck_sample_seven_vertices():
    rng = random.Random(7)
    for g in rng.sample(_pool7(), 10):
        got = charpoly_from_vertex_deck(vertex_deck(g))
        assert got.coeffs == charpoly_oracle(g).coeffs, write_graph6(g)


def test_rankpoly_sample_seven_vertices():
    rng = random.Random(4)
    for g in rng.sample(_pool7(), 6):
        assert reconstruct(strip(nmatrix(g))).rankpoly() == rankpoly_oracle(g)


def test_every_check_on_a_seven_vertex_sample():
    """The sweep's registry on seeded 7-vertex graphs: every check that applies
    passes, and only a candidate probe may report."""
    rng = random.Random(70)
    for g in rng.sample(_pool7(), 4):
        fails = {name: f for name, f in run_checks(g, list(CHECKS)).items()
                 if f and not is_candidate(name, f)}
        assert fails == {}, write_graph6(g)
