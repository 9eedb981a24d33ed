import random
from collections import Counter
from itertools import combinations
from math import factorial

import pytest

from reconkit.combi import multiset_symmetry, partitions_min2, sachs_weight
from reconkit.errors import (DomainError, InconsistentDeckError,
                             NotReconstructibleError)
from reconkit.graphcore import (adjacency_masks, complete, cycle, disjoint_union,
                                empty_graph, graph, induced_subgraph, path)
from reconkit import polydeck
from reconkit.oracle import charpoly_oracle, ham_oracle
from reconkit.polydeck import (PolyDeck, build_polydeck, c_lambda, charpoly,
                               charpoly_from_polydeck, degree_sequence, low_coeffs,
                               polydeck_from_json, polydeck_to_json)

from check_oracles import signed_c_oracle

# A deck no graph has: its degree-6 entry stands where a sixth degree-2 entry
# belongs, and c_lambda read it as a float
N4_WITH_A_DEGREE_6_ENTRY = {"n": 4, "polys": [
    [1, 0], [1, 0], [1, 0], [1, 0], [1, 0, -1], [1, 0, -1], [1, 0, -1], [1, 0, 0],
    [1, 0, 0], [1, 0, 0, 0, 0, 0, 0], [1, 0, -3, 2], [1, 0, -1, 0], [1, 0, -1, 0],
    [1, 0, -1, 0]]}


def test_build_polydeck_examples():
    d = build_polydeck(path(3))
    assert Counter(d.polys) == Counter(
        [(1, 0, -1), (1, 0, -1), (1, 0, 0), (1, 0), (1, 0), (1, 0)])
    assert Counter(build_polydeck(path(2)).polys) == Counter([(1, 0)] * 2)
    assert Counter(build_polydeck(complete(3)).polys) == \
        Counter([(1, 0, -1)] * 3 + [(1, 0)] * 3)
    with pytest.raises(DomainError):
        build_polydeck(empty_graph(1))
    with pytest.raises(DomainError, match="64 bits"):
        build_polydeck(empty_graph(21))  # refused before the 2^21 subsets are visited


def _oracle_entries(g) -> list:
    """The oracle's polynomial of every nonempty proper induced subgraph, in deck order."""
    return [charpoly_oracle(induced_subgraph(g, subset)).coeffs
            for size in range(1, g.n) for subset in combinations(range(g.n), size)]


def test_subset_charpolys_match_the_oracle(corpus6):
    """Every deck entry, and the full-set polynomial, of every graph with
    n <= 6 equals the Sachs expansion of the oracle, entry by entry in order."""
    for g in corpus6:
        assert charpoly(g).coeffs == charpoly_oracle(g).coeffs, g
        if g.n < 2:
            continue
        assert list(build_polydeck(g).polys) == _oracle_entries(g), g


def _dense_and_random(n: int) -> list:
    """K_n, the balanced complete bipartite graph and two seeded G(n, p)."""
    rng = random.Random(n)
    half = n // 2
    return [complete(n), graph(n, [(u, v) for u in range(half) for v in range(half, n)])] + [
        graph(n, [e for e in combinations(range(n), 2) if rng.random() < p]) for p in (0.3, 0.6)]


@pytest.mark.parametrize("n", [10, 11])
def test_every_entry_matches_the_oracle_at_ten_and_eleven_vertices(n):
    """Entry by entry in order, where the packed rows have 32-bit fields."""
    for g in _dense_and_random(n):
        assert list(build_polydeck(g).polys) == _oracle_entries(g), g


def _plain_entries(n: int, e: list) -> list:
    """The subset-sum transform on lists of n + 1 coefficients, one list per subset."""
    rows = []
    for t, val in enumerate(e):
        row = [0] * (n + 1)
        k = t.bit_count()
        row[k] = (-1) ** k * val
        rows.append(row)
    for i in range(n):
        for s in range(1 << n):
            if s >> i & 1:
                rows[s] = [a + b for a, b in zip(rows[s], rows[s ^ 1 << i])]
    return [tuple(rows[sum(1 << v for v in subset)][:size + 1])
            for size in range(1, n) for subset in combinations(range(n), size)]


@pytest.mark.parametrize("sign", [1, -1], ids=["positive", "negative"])
def test_packed_transform_at_the_field_bound(monkeypatch, sign):
    """|E(T)| <= |T|! is the bound the field width rests on.  With E(T) at it
    and (-1)^|T| E(T) of one sign for every T, no partial sum cancels, and
    every field of every row is as large as the bound allows.  Singletons keep
    E = 0, as in every graph, since a deck's single-vertex entries are lambda.
    n = 2..13 reads fields of each struct width: 1, 2, 4 and 8 bytes."""
    for n in range(2, 14):
        e = [sign * (-1) ** t.bit_count() * factorial(t.bit_count()) for t in range(1 << n)]
        e[0] = 1
        for v in range(n):
            e[1 << v] = 0
        monkeypatch.setattr(polydeck, "_elementary_sums", lambda g: e)
        want = _plain_entries(n, e)
        assert max(abs(c) for p in want for c in p) == factorial(n - 1)
        assert list(build_polydeck(empty_graph(n)).polys) == want, n


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
    p3 = build_polydeck(path(3)).polys
    refused = [
        p3[:2] + ((1, 0, 5, 7, 9),) + p3[3:],  # a degree-4 entry in place of lambda
        p3[:5] + ((1, 0, -1, 0),),  # degree n in place of degree n - 1
        p3[:5] + ((),),  # an empty entry is refused, not indexed
        p3[:5] + ((2, 0, -2),),  # entries are monic
    ]
    for polys in refused:
        with pytest.raises(InconsistentDeckError):
            PolyDeck(3, polys)
    with pytest.raises(InconsistentDeckError):
        polydeck_from_json(N4_WITH_A_DEGREE_6_ENTRY)
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


def test_c_lambda_skips_the_entries_below_its_largest_part():
    """Perturbing the entries of a JSON-read deck whose degree is below the
    largest part leaves c_lambda as it was.  Perturbing the entries of degree
    equal to it does not, below n - 1; at n - 1 the low coefficients, which
    those entries also give, move with them."""
    g = graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 4), (4, 5), (0, 2)])
    j = polydeck_to_json(build_polydeck(g))
    d = polydeck_from_json(j)
    for parts in [(3,), (4,), (5,), (3, 2), (4, 2), (3, 3)]:
        top = parts[0]
        below = {"n": 6, "polys": [p[:2] + [c + 7 for c in p[2:]] if 2 < len(p) <= top else p
                                   for p in j["polys"]]}
        assert c_lambda(polydeck_from_json(below), parts) == c_lambda(d, parts), parts
        if top < 5:
            at_top = {"n": 6, "polys": [p[:top] + [p[top] + 1] if len(p) == top + 1 else p
                                        for p in j["polys"]]}
            assert c_lambda(polydeck_from_json(at_top), parts) != c_lambda(d, parts), parts


def test_c_lambda_depends_only_on_multiset():
    g = graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 3)])
    d = build_polydeck(g)
    shuffled = list(d.polys)
    random.Random(5).shuffle(shuffled)
    d2 = PolyDeck(d.n, tuple(shuffled))
    for parts in [(2, 2), (3, 2), (2, 2, 2), (4,)]:
        assert c_lambda(d, parts) == c_lambda(d2, parts)


def test_degree_sequence():
    assert degree_sequence(build_polydeck(path(4))) == (1, 1, 2, 2)
    assert degree_sequence(build_polydeck(cycle(4))) == (2, 2, 2, 2)
    assert degree_sequence(build_polydeck(path(2))) is None


def test_charpoly_from_polydeck_examples():
    assert charpoly_from_polydeck(build_polydeck(path(3))).coeffs == (1, 0, -2, 0)
    assert charpoly_from_polydeck(build_polydeck(path(4))).coeffs == (1, 0, -3, 0, 1)
    with pytest.raises(NotReconstructibleError):
        charpoly_from_polydeck(build_polydeck(cycle(4)))


def test_exponential_formula_on_the_oracles(corpus6):
    """(-1)^n c_n = sachs_weight((n,)) ham(G) + the k >= 2 sum of the module
    docstring, on every graph with 2 <= n <= 6, hamiltonian or not, with
    every term from the oracles, which the pipeline does not share."""
    graphs = [g for g in corpus6 if g.n >= 2]
    assert len(graphs) == 207 and sum(1 for g in graphs if ham_oracle(g)) == 61
    for g in graphs:
        total = sachs_weight((g.n,)) * ham_oracle(g)
        for parts in partitions_min2(g.n):
            k = len(parts)
            if k >= 2:
                q, r = divmod(signed_c_oracle(g, parts), multiset_symmetry(parts))
                assert r == 0, (g, parts)
                total += (-1) ** k * factorial(k - 1) * q
        assert total == (-1) ** g.n * charpoly_oracle(g).coeffs[g.n], g


def test_an_indivisible_cover_sum_is_refused():
    """P4's deck with one lambda^2 - 1 entry made lambda^2 - 2 passes the reader,
    but c((2, 2) -> G) becomes odd and is not divisible by 2!."""
    polys = list(build_polydeck(path(4)).polys)
    polys[polys.index((1, 0, -1))] = (1, 0, -2)
    d = PolyDeck(4, tuple(polys))
    assert c_lambda(d, (2, 2)) % 2 == 1
    with pytest.raises(InconsistentDeckError, match=r"\(2, 2\)"):
        charpoly_from_polydeck(d)


def test_a_deleted_vertex_degree_no_graph_has_is_refused():
    """P4's deck with the c_2 of its two degree-2 entries, the K2 + K1 cards,
    moved by -2 and +2: their vertices would have degrees 0 and 4.  Every
    coefficient sum still divides and a degree-1 vertex shows, so without the
    derivative identity's degree check this deck got x^4 - 3x^2 - 3."""
    polys = list(build_polydeck(path(4)).polys)
    polys[polys.index((1, 0, -1, 0))] = (1, 0, -3, 0)
    polys[polys.index((1, 0, -1, 0))] = (1, 0, 1, 0)
    with pytest.raises(InconsistentDeckError, match="degree 4"):
        charpoly_from_polydeck(PolyDeck(4, tuple(polys)))


@pytest.mark.parametrize("g", [
    path(3),                                             # degrees up to n - 1 = 2
    graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)]),          # the paw: a degree-3 vertex
    disjoint_union(path(4), empty_graph(1)),             # an isolated vertex
    graph(6, [(0, v) for v in range(1, 6)] + [(1, 2)]),  # a degree-5 vertex
], ids=["n3", "n4", "n5", "n6"])
def test_real_decks_at_the_degree_bounds_are_answered(g):
    assert charpoly_from_polydeck(build_polydeck(g)).coeffs == charpoly_oracle(g).coeffs


def _pendant_graph(rng, n):
    """A half-dense core on n - 1 vertices and a pendant vertex: the degree-1 route."""
    edges = [e for e in combinations(range(n - 1), 2) if rng.random() < 0.5]
    return graph(n, edges + [(rng.randrange(n - 1), n - 1)])


def _two_blocks(rng, n):
    """Two random blocks sharing the cut vertex 0, so no hamiltonian cycle."""
    split = rng.randrange(2, n - 1)
    sides = [[0, *range(1, split + 1)], [0, *range(split + 1, n)]]
    edges = [e for side in sides for e in combinations(side, 2) if rng.random() < 0.6]
    return graph(n, edges)


def test_charpoly_from_polydeck_matches_sympy_at_eight_to_ten_vertices():
    rng = random.Random(20)
    for n in (8, 9, 10):
        for _ in range(5):
            g = _pendant_graph(rng, n)
            assert charpoly_from_polydeck(build_polydeck(g)).coeffs == _sympy_charpoly(g), g
            g = _two_blocks(rng, n)
            got = charpoly_from_polydeck(build_polydeck(g), assert_nonhamiltonian=True)
            assert got.coeffs == _sympy_charpoly(g), g


def test_charpoly_from_polydeck_flagged_nonhamiltonian(corpus6):
    """n = 6 is the first order with a three-part partition, (2, 2, 2)."""
    for g in corpus6:
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
