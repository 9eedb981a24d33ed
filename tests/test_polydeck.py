import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest

from reconkit.combi import partitions_min2, strict_refinements
from reconkit.errors import (DomainError, InconsistentDeckError,
                             NotReconstructibleError)
from reconkit.graphcore import (adjacency_masks, complete, cycle, disjoint_union,
                                elementary_graph, empty_graph, graph,
                                induced_subgraph, path)
from reconkit import polydeck
from reconkit.oracle import (charpoly_oracle, elementary_count_oracle,
                             ham_oracle, signed_c_oracle,
                             signed_exact_cover_oracle)
from reconkit.polydeck import (PolyDeck, _check_nontrivial, _signed_c_on,
                               build_polydeck, c_lambda, charpoly,
                               charpoly_from_polydeck, count_elementary,
                               degree_sequence, low_coeffs,
                               polydeck_from_json, polydeck_to_json)


def count_elementary_chain(d: PolyDeck, parts) -> int:
    """Chain-sum evaluation of `count_elementary`; cross-check for its recursion.

    Sums over all strict refinement chains below `parts`, with alternating
    sign and products of transition values.
    """
    parts = tuple(sorted(parts, reverse=True))
    _check_nontrivial(d, parts)
    total = Fraction(0)

    def walk(lam, q, acc):
        nonlocal total
        total += Fraction((-1) ** q * c_lambda(d, lam), _signed_c_on(lam, lam)) * acc
        for finer in strict_refinements(lam):
            step = Fraction(_signed_c_on(lam, finer), _signed_c_on(lam, lam))
            walk(finer, q + 1, acc * step)

    walk(parts, 0, Fraction(1))
    assert total.denominator == 1, f"chain sum for {parts} is not integral"
    return int(total)


def test_build_polydeck_examples():
    d = build_polydeck(path(3))
    assert Counter(d.polys) == Counter(
        [(1, 0, -1), (1, 0, -1), (1, 0, 0), (1, 0), (1, 0), (1, 0)])
    assert Counter(build_polydeck(path(2)).polys) == Counter([(1, 0)] * 2)
    assert Counter(build_polydeck(complete(3)).polys) == \
        Counter([(1, 0, -1)] * 3 + [(1, 0)] * 3)
    with pytest.raises(DomainError):
        build_polydeck(empty_graph(1))


def test_subset_charpolys_match_the_oracle(corpus6):
    """Every deck entry, and the full-set polynomial, of every graph with
    n <= 6 equals the Sachs expansion of the oracle, entry by entry in order."""
    for g in corpus6:
        assert charpoly(g).coeffs == charpoly_oracle(g).coeffs, g
        if g.n < 2:
            continue
        want = [charpoly_oracle(induced_subgraph(g, subset)).coeffs
                for size in range(1, g.n) for subset in combinations(range(g.n), size)]
        assert list(build_polydeck(g).polys) == want, g


def _sympy_charpoly(g) -> tuple:
    sympy = pytest.importorskip("sympy")
    masks = adjacency_masks(g)
    adj = sympy.Matrix(g.n, g.n, lambda i, j: (masks[i] >> j) & 1)
    return tuple(int(c) for c in adj.charpoly().all_coeffs())


def test_subset_charpolys_match_sympy():
    """A third witness, independent of the Sachs expansion: sympy's exact
    characteristic polynomial of the adjacency matrix, on seeded graphs with
    n = 7..9, for the graph and for its n vertex-deleted deck entries."""
    rng = random.Random(14)
    for n in (7, 8, 9):
        for p in (0.3, 0.6):
            g = graph(n, [e for e in combinations(range(n), 2) if rng.random() < p])
            assert charpoly(g).coeffs == _sympy_charpoly(g) == charpoly_oracle(g).coeffs, g
            cards = build_polydeck(g).entries_of_degree(n - 1)
            want = [_sympy_charpoly(induced_subgraph(g, [u for u in range(n) if u != v]))
                    for v in reversed(range(n))]
            assert cards == want, g


def test_polydeck_size_invariant(corpus5):
    for g in corpus5:
        if g.n < 2:
            continue
        d = build_polydeck(g)
        assert len(d.polys) == 2 ** g.n - 2


def test_polydeck_validation():
    with pytest.raises(InconsistentDeckError):
        PolyDeck(3, ((1, 0),) * 5)  # wrong entry count
    with pytest.raises(InconsistentDeckError):
        PolyDeck(2, ((1, 0), (1, 1)))  # single-vertex entry must be lambda
    # n is checked against the entry count before 2^n is formed
    for n in (-1, 0, 1, 10 ** 8):
        with pytest.raises(InconsistentDeckError):
            PolyDeck(n, ())


def test_low_coeffs():
    # c_2 carries the edge count with a sign: c_2 = -e
    assert low_coeffs(build_polydeck(path(3))) == (1, 0, -2)
    assert low_coeffs(build_polydeck(complete(3))) == (1, 0, -3)
    for g in [path(4), cycle(5), complete(4)]:
        assert low_coeffs(build_polydeck(g)) == charpoly_oracle(g).coeffs[:-1]


def test_low_coeffs_are_computed_once_per_deck(monkeypatch):
    calls = []

    def counting(d):
        calls.append(d)
        return low_coeffs(d)

    monkeypatch.setattr(polydeck, "low_coeffs", counting)
    g = graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 4), (4, 5)])
    d = build_polydeck(g)
    assert charpoly_from_polydeck(d).coeffs == charpoly_oracle(g).coeffs
    assert c_lambda(d, (3, 3)) == c_lambda(d, (3, 3))
    assert calls == [d]


def test_c_lambda_matches_signed_oracle(corpus5):
    for g in corpus5:
        if g.n < 3:
            continue
        d = build_polydeck(g)
        for parts in [(2,), (3,), (2, 2), (3, 2), (2, 2, 2), (4,)]:
            if parts[0] < g.n and sum(parts) <= g.n:
                assert c_lambda(d, parts) == signed_c_oracle(g, parts), (g, parts)


def test_c_lambda_examples():
    d = build_polydeck(cycle(4))
    assert c_lambda(d, (2, 2)) == signed_c_oracle(cycle(4), (2, 2)) == 4
    with pytest.raises(DomainError):
        c_lambda(d, (4,))  # part equal to n is out of reach
    # a part larger than every deck degree contributes nothing
    assert c_lambda(build_polydeck(disjoint_union(path(2), path(2))), (3,)) == 0


def test_c_lambda_depends_only_on_multiset():
    g = graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 3)])
    d = build_polydeck(g)
    shuffled = list(d.polys)
    random.Random(5).shuffle(shuffled)
    d2 = PolyDeck(d.n, tuple(shuffled))
    for parts in [(2, 2), (3, 2), (2, 2, 2), (4,)]:
        assert c_lambda(d, parts) == c_lambda(d2, parts)


def test_count_elementary_examples(prism):
    assert count_elementary(build_polydeck(prism), (3, 3)) == 1
    assert count_elementary(build_polydeck(cycle(6)), (2, 2, 2)) == 2
    assert count_elementary(build_polydeck(path(4)), (2, 2)) == 1


def test_transition_coefficients_match_the_exact_cover_oracle():
    """The closed form sachs_weight(F) * groupings(F, parts) on every pair up to n = 9."""
    pairs = [(host, parts) for n in range(2, 10) for parts in partitions_min2(n)
             for host in partitions_min2(n)]
    assert len(pairs) == 155
    for host, parts in pairs:
        assert _signed_c_on(parts, host) == \
            signed_exact_cover_oracle(elementary_graph(host), parts), (host, parts)


def test_count_elementary_matches_oracle(corpus5):
    for g in corpus5:
        if g.n < 4:
            continue
        d = build_polydeck(g)
        for parts in partitions_min2(g.n):
            if len(parts) < 2:
                continue
            assert count_elementary(d, parts) == \
                elementary_count_oracle(g, parts), (g, parts)


def test_chain_sum_equals_recursion(corpus5):
    for g in corpus5:
        if g.n < 4:
            continue
        d = build_polydeck(g)
        for parts in partitions_min2(g.n):
            if len(parts) < 2:
                continue
            assert count_elementary_chain(d, parts) == \
                count_elementary(d, parts), (g, parts)


def test_degree_sequence():
    assert degree_sequence(build_polydeck(path(4))) == (1, 1, 2, 2)
    assert degree_sequence(build_polydeck(cycle(4))) == (2, 2, 2, 2)
    assert degree_sequence(build_polydeck(path(2))) is None


def test_charpoly_from_polydeck_examples():
    assert charpoly_from_polydeck(build_polydeck(path(3))).coeffs == (1, 0, -2, 0)
    assert charpoly_from_polydeck(build_polydeck(path(4))).coeffs == (1, 0, -3, 0, 1)
    with pytest.raises(NotReconstructibleError):
        charpoly_from_polydeck(build_polydeck(cycle(4)))


def test_charpoly_from_polydeck_flagged_nonhamiltonian(corpus5):
    for g in corpus5:
        if g.n < 2 or ham_oracle(g) != 0:
            continue
        got = charpoly_from_polydeck(build_polydeck(g), assert_nonhamiltonian=True)
        assert got.coeffs == charpoly_oracle(g).coeffs, g


def test_n2_decks_collide():
    # K2 and 2K1 have the same complete polynomial deck, so nothing derived
    # from the deck alone can separate them
    assert sorted(build_polydeck(path(2)).polys) == \
        sorted(build_polydeck(empty_graph(2)).polys)
    with pytest.raises(NotReconstructibleError):
        charpoly_from_polydeck(build_polydeck(path(2)))


def test_json_roundtrip():
    d = build_polydeck(path(3))
    j = polydeck_to_json(d)
    assert j["n"] == 3 and len(j["polys"]) == 6
    assert polydeck_from_json(j) == d
    with pytest.raises(InconsistentDeckError):
        polydeck_from_json({"n": 3, "polys": [[1, 0]]})
