import random
from collections import Counter
from itertools import combinations, combinations_with_replacement

import networkx as nx
import pytest

from reconkit import oracle
from reconkit.combi import Polynomial, partitions_min2
from reconkit.errors import DomainError
from reconkit.graphcore import (Graph, all_graphs, complete, cycle, cycles_on_sets,
                                disjoint_union, elementary_graph, empty_graph, graph, path)
from reconkit.isotype import canonical_code, count_subgraphs
from reconkit.oracle import (_copies, charpoly_oracle, cover_count_oracle,
                             ham_oracle, psi_oracle, rankpoly_oracle,
                             signed_exact_cover_oracle, tr_oracle, uni_oracle)
from reconkit.verify import _KOCAY_TYPES, CHAIN_TYPES

from check_oracles import (_enum_rankpoly, _enum_tr, _enum_uni, c_oracle, con_oracle,
                           elementary_count_oracle, kedge_connected_oracle,
                           lcompo_oracle, p_oracle, sachs_charpoly, signed_c_oracle)


def test_psi_examples(prism):
    assert psi_oracle(prism, 3) == 2
    assert psi_oracle(prism, 4) == 3
    assert psi_oracle(complete(4), 3) == 4
    assert psi_oracle(cycle(5), 5) == 1
    assert psi_oracle(path(4), 2) == 3  # psi_2 counts edges
    assert psi_oracle(complete(3), 7) == 0


def _nx(g):
    h = nx.Graph(list(g.edges))
    h.add_nodes_from(range(g.n))
    return h


def test_psi_matches_networkx_cycle_counts(corpus6):
    """psi sums the path DP's cycles on each vertex set; networkx lists the
    cycles one by one."""
    for g in corpus6:
        h = _nx(g)
        lengths = [len(c) for c in nx.simple_cycles(h)]
        for i in range(3, g.n + 1):
            assert psi_oracle(g, i) == lengths.count(i), (g, i)


def test_tr_ham_uni_examples():
    assert tr_oracle(cycle(5)) == 5
    assert ham_oracle(complete(4)) == 3
    assert uni_oracle(cycle(4), 4) == 1
    assert uni_oracle(cycle(4), 3) == 0
    assert ham_oracle(path(2)) == 1  # C2 = K2 convention
    assert tr_oracle(disjoint_union(path(2), path(2))) == 0


def test_tr_matches_integer_laplacian(corpus6):
    """The integer Laplacian of `tr_oracle` against the count of (n-1)-edge trees."""
    for g in corpus6:
        if g.e >= 1 and nx.is_connected(_nx(g)):
            assert tr_oracle(g) == _enum_tr(g)


def test_tr_matches_laplacian_sample_n7():
    rng = random.Random(3)
    pool = [g for g in all_graphs(7, min_edges=6) if g.n == 7 and nx.is_connected(_nx(g))]
    for g in rng.sample(pool, 40):
        assert tr_oracle(g) == _enum_tr(g)


def _seeded7():
    """60 seeded 7-vertex graphs, m = 6 + k mod 9 edges for the k-th."""
    rng = random.Random(7)
    pairs = list(combinations(range(7), 2))
    return [graph(7, rng.sample(pairs, 6 + k % 9)) for k in range(60)]


def test_tree_unicyclic_and_rank_methods_match_their_enumerations(corpus6):
    """Kirchhoff, the contracted cycle sets and the vertex-subset sums against
    the edge-subset enumerations, on every graph with n <= 6 and seeded n = 7."""
    for g in corpus6 + _seeded7():
        assert tr_oracle(g) == _enum_tr(g), g
        uni = _enum_uni(g)
        assert all(uni_oracle(g, r) == uni.get(r, 0) for r in range(3, g.n + 1)), g
        assert rankpoly_oracle(g) == _enum_rankpoly(g), g


def test_charpoly_examples():
    assert charpoly_oracle(path(2)).coeffs == (1, 0, -1)
    assert charpoly_oracle(path(3)).coeffs == (1, 0, -2, 0)
    assert charpoly_oracle(complete(3)).coeffs == (1, 0, -3, -2)
    assert charpoly_oracle(complete(4)).coeffs == (1, 0, -6, -8, -3)
    assert charpoly_oracle(cycle(5)).coeffs == (1, 0, -5, 0, 5, -2)
    assert charpoly_oracle(empty_graph(3)).coeffs == (1, 0, 0, 0)


def test_berkowitz_and_the_cycle_sets_match_their_enumerations(corpus6):
    """charpoly against the Sachs sum over the elementary subgraphs, and psi
    against the brute-force copies of each cycle, on every graph with n <= 6."""
    for g in corpus6:
        assert charpoly_oracle(g).coeffs == sachs_charpoly(g), g
        for i in range(3, g.n + 1):
            assert psi_oracle(g, i) == len(_copies(g, cycle(i))), (g, i)


def test_the_cycle_table_counts_the_cycle_copies_on_each_vertex_set(corpus6):
    """`cycles_on_sets` set by set, against the brute-force copies of the cycle
    of each length, on every graph with n <= 6: `polydeck` reads each set's
    entry, and psi only their sums by length."""
    for g in corpus6:
        want = Counter()
        for k in range(3, g.n + 1):
            want.update(m >> g.e for m in _copies(g, cycle(k)))
        assert cycles_on_sets(g) == want, g


def test_charpoly_c0_c1_c2(corpus6):
    for g in corpus6:
        if g.n < 2:
            continue
        p = charpoly_oracle(g)
        assert p[0] == 1 and p[1] == 0
        assert p[2] == -g.e


def test_polynomial_str():
    assert str(Polynomial((1, 0, -2, 0))) == "+1x^3 -2x"
    assert str(Polynomial((1,))) == "+1"


def test_rankpoly_examples():
    assert rankpoly_oracle(path(2)) == {(0, 0): 1, (1, 0): 1}
    assert rankpoly_oracle(complete(3)) == {(0, 0): 1, (1, 0): 3, (2, 0): 3, (2, 1): 1}
    assert rankpoly_oracle(disjoint_union(path(2), path(2))) == \
        {(0, 0): 1, (1, 0): 2, (2, 0): 1}


def test_elementary_count_examples(prism):
    assert elementary_count_oracle(complete(4), (2, 2)) == 3
    assert elementary_count_oracle(cycle(4), (4,)) == 1
    # the prism's two triangles are disjoint but form a single subgraph
    assert elementary_count_oracle(prism, (3, 3)) == 1
    assert elementary_count_oracle(prism, (2, 2, 2)) == 4


def test_elementary_count_matches_subgraph_count(corpus5):
    for g in corpus5:
        for parts in partitions_min2(min(g.n, 5)):
            if sum(parts) <= g.n:
                want = count_subgraphs(g, elementary_graph(parts))
                assert elementary_count_oracle(g, parts) == want


def test_cover_count_examples():
    k2 = path(2)
    assert cover_count_oracle([k2, k2], path(3)) == 2
    assert cover_count_oracle([k2], k2) == 1
    assert cover_count_oracle([k2, k2], k2) == 1
    assert cover_count_oracle([k2, k2, k2], complete(3)) == 6
    with pytest.raises(DomainError):
        cover_count_oracle([disjoint_union(k2, empty_graph(1))], k2)


def test_the_cover_count_guard_is_exact(monkeypatch):
    """With fewer vertices or edges in the copies than in h, the 0 returned
    without enumerating is the unguarded lookup's, on every h with v(h) <= 5
    and every factor list of the sweep's Kocay and chain checks."""
    real, enumerated = oracle._unions, []

    def counting(item_lists):
        enumerated.append(1)
        return real(item_lists)

    monkeypatch.setattr(oracle, "_unions", counting)
    spared = 0
    for h in all_graphs(5):
        full = (1 << (h.n + h.e)) - 1
        for fams in set(_KOCAY_TYPES + CHAIN_TYPES):
            before = len(enumerated)
            got = cover_count_oracle(list(fams), h)
            spared += len(enumerated) == before
            assert got == real([(m, 1) for m in _copies(h, f)] for f in fams).get(full, 0)
    assert spared > 0


def _copies_by_codes(h, f):
    """The f.e-edge subsets of h whose canonical code is f's, encoded as `_copies` does."""
    edges = h.sorted_edges()
    code = canonical_code(f)
    res = []
    for subset in combinations(range(len(edges)), f.e):
        chosen = [edges[i] for i in subset]
        verts = sorted({x for e in chosen for x in e})
        if len(verts) != f.n:
            continue
        pos = {v: i for i, v in enumerate(verts)}
        if canonical_code(Graph(f.n, frozenset((pos[u], pos[v]) for u, v in chosen))) == code:
            res.append((sum(1 << v for v in verts) << h.e) | sum(1 << i for i in subset))
    return sorted(res)


def test_copies_match_the_canonical_code_enumeration():
    """The injections `_copies` tries find the copies that canonical labelling
    of every edge subset finds, on every host with n <= 6 and no isolated vertex."""
    hosts = [h for h in all_graphs(6) if h.e and not h.has_isolated_vertex()]
    assert len(hosts) == 155
    for h in hosts:
        for f in (path(2), path(3), complete(3), cycle(4)):
            assert list(_copies(h, f)) == _copies_by_codes(h, f), (h, f)


def test_kocay_identity_small(corpus5):
    """prod <g, F_i> equals the cover-weighted sum over subgraph types."""
    from reconkit.isotype import subgraph_type_table
    pool = [path(2), path(3), complete(3), cycle(4)]
    cover_memo = {}
    reps = {}
    for h in all_graphs(5):
        reps.setdefault(canonical_code(h), h)
    for g in corpus5:
        if g.e == 0:
            continue
        counts = {}
        for m in range(1, g.e + 1):
            for code, cnt in subgraph_type_table(g, m).items():
                counts[code] = counts.get(code, 0) + cnt
        for r in (2, 3):
            for fams in combinations_with_replacement(pool, r):
                lhs = 1
                for f in fams:
                    lhs *= count_subgraphs(g, f)
                rhs = 0
                for code, cnt in counts.items():
                    mkey = (fams, code)
                    if mkey not in cover_memo:
                        cover_memo[mkey] = cover_count_oracle(list(fams), reps[code])
                    rhs += cover_memo[mkey] * cnt
                assert lhs == rhs, (g, fams)


def test_cycle_cover_examples(prism):
    assert c_oracle(cycle(4), (2, 2)) == 4
    assert con_oracle(complete(3), (2, 2)) == 6
    assert con_oracle(complete(3), (2, 2, 2)) == 24
    assert c_oracle(prism, (3,)) == 0
    assert con_oracle(cycle(4), (2, 2)) == 0
    assert p_oracle(prism, (3,)) == 2


def test_p_is_product_of_psi(corpus5):
    for g in corpus5:
        for seq in [(2,), (2, 2), (3, 2), (4, 3, 2)]:
            want = 1
            for a in seq:
                want *= psi_oracle(g, a)
            assert p_oracle(g, seq) == want


def test_signed_c_examples():
    assert signed_c_oracle(cycle(4), (2, 2)) == 4
    assert signed_c_oracle(path(2), (2,)) == -1
    # on C4 the 4-cycle term (-2) cancels the two opposite-edge pairs (+1 each)
    assert signed_c_oracle(cycle(4), (4,)) == 0
    assert signed_c_oracle(complete(3), (3,)) == 2
    assert signed_exact_cover_oracle(elementary_graph((2, 2)), (2, 2)) == 2
    assert signed_exact_cover_oracle(elementary_graph((4, 2)), (4, 2)) == 2


def test_signed_refinement_identity(corpus5):
    """Grouping spanning tuples by their union graph, type by type.  The exact
    cover sum is 0 unless lam refines parts, so every lam may enter."""
    for g in corpus5:
        if g.n < 2:
            continue
        for parts in partitions_min2(g.n):
            lhs = signed_c_oracle(g, parts)
            rhs = 0
            for lam in partitions_min2(g.n):
                rhs += signed_exact_cover_oracle(elementary_graph(lam), parts) * \
                    elementary_count_oracle(g, lam)
            assert lhs == rhs, (g, parts)


def test_kedge_and_lcompo_examples():
    assert kedge_connected_oracle(cycle(4), 4) == 1
    assert kedge_connected_oracle(cycle(4), 3) == 4
    assert kedge_connected_oracle(complete(3), 2) == 3
    assert kedge_connected_oracle(complete(4), 6) == 1
    assert lcompo_oracle(cycle(4), ((2, 1), (2, 1))) == 2
    assert lcompo_oracle(complete(4), ((2, 1), (2, 1))) == 3
    with pytest.raises(DomainError):
        lcompo_oracle(cycle(4), ((2, 1),))
