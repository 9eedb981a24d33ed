import random
import sys
import time
from collections import Counter
from itertools import combinations, permutations
from math import comb

import networkx as nx
import pytest

from reconkit import deck, isotype
from reconkit.deck import (VERTEX_LIMIT, Elp, NMatrix, canonical_nmatrix, child_nmatrices,
                           count_empty_induced, elp_automorphisms,
                           elp_from_json, elp_from_nmatrix, elp_to_json,
                           infer_v_e, lambda_deck, nmatrix, nmatrix_from_elp,
                           nmatrix_from_json, nmatrix_to_json, strip)
from reconkit.errors import DomainError, InvalidMatrixError
from reconkit.graphcore import (all_graphs, complete, empty_graph, graph,
                                induced_subgraph, parse_graph6, path, write_graph6)
from reconkit.isotype import canonical_code, count_induced

from check_oracles import dense_fill
from test_isotype import _orbit_shapes, _random_relabel

PRISM_MATRIX = (
    (1, 0, 0, 0, 0, 0, 0, 0, 0),
    (1, 1, 0, 0, 0, 0, 0, 0, 0),
    (2, 0, 1, 0, 0, 0, 0, 0, 0),
    (3, 0, 0, 1, 0, 0, 0, 0, 0),
    (3, 2, 2, 0, 1, 0, 0, 0, 0),
    (4, 1, 2, 1, 0, 1, 0, 0, 0),
    (4, 0, 4, 0, 0, 0, 1, 0, 0),
    (6, 3, 6, 1, 2, 2, 1, 1, 0),
    (9, 6, 12, 2, 6, 6, 3, 6, 1),
)


def _nx(g):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    return h


def _shape(h):
    return tuple(sorted(d for _v, d in h.degree()))


def _induced_witness(rep, classes, memo):
    """Copies of each class inside rep, by vertex subsets of rep tested with
    `networkx.is_isomorphic` against the classes of equal degree sequence."""
    if rep not in memo:
        by_shape = {}
        for c in classes:
            h = _nx(c.rep)
            by_shape.setdefault(_shape(h), []).append((c.rep, h))
        big = _nx(rep)
        tally = Counter()
        for k in range(2, rep.n + 1):
            for s in combinations(range(rep.n), k):
                sub = nx.Graph(big.subgraph(s))
                if sub.number_of_edges() == 0:
                    continue
                hits = [c for c, h in by_shape.get(_shape(sub), ())
                        if nx.is_isomorphic(sub, h)]
                assert len(hits) == 1, (rep, s, hits)
                tally[hits[0]] += 1
        memo[rep] = tally
    return memo[rep]


def test_nmatrix_matches_independent_induced_counts(corpus6):
    """N[i][j] against subsets of class i's representative, for every graph on
    at most 6 vertices and seeded 8-vertex graphs."""
    rng = random.Random(8)
    seeded = [graph(8, [e for e in combinations(range(8), 2) if rng.random() < p])
              for p in (0.3, 0.5)]
    memo = {}
    for g in [g for g in corpus6 if g.e] + seeded:
        nm = nmatrix(g)
        classes = nm.labels.classes
        for ci, row in zip(classes, nm.rows):
            tally = _induced_witness(ci.rep, classes, memo)
            assert list(row) == [tally[cj.rep] for cj in classes], (g, ci.rep)


def test_lambda_deck_examples(prism):
    assert [c.rep for c in lambda_deck(path(2)).classes] == [path(2)]
    classes = lambda_deck(prism).classes
    assert len(classes) == 9
    assert canonical_code(classes[0].rep) == canonical_code(path(2))
    assert canonical_code(classes[-1].rep) == canonical_code(prism)
    assert [c.v for c in classes] == [2, 3, 3, 3, 4, 4, 4, 5, 6]
    p3_classes = lambda_deck(path(3)).classes
    assert len(p3_classes) == 2
    with pytest.raises(DomainError):
        lambda_deck(empty_graph(3))


def _labelled_nmatrix(g):
    """The reference tally: over the submasks of each row's first mask in g's
    own labelling, from `subset_table(g)`."""
    labels = lambda_deck(g)
    table = isotype.subset_table(g)
    index = {c.code: j for j, c in enumerate(labels.classes)}
    rows = []
    for ci in labels.classes:
        row = [0] * len(index)
        s = t = table.first[ci.code]
        while t:
            j = index.get(table.codes[t])
            if j is not None:
                row[j] += 1
            t = (t - 1) & s
        rows.append(tuple(row))
    return NMatrix(tuple(rows), labels)


def test_the_canonical_tally_equals_the_labelled_one(corpus6):
    """Tallied over the canonical form, the matrix and its labels are those
    of the tally over g's own labels: on every graph with n <= 6 in two
    seeded relabellings, the orbit shapes and six seeded G(9, p)."""
    rng = random.Random(47)
    pairs = list(combinations(range(9), 2))
    graphs = [_random_relabel(g, rng) for g in corpus6 if g.e for _ in range(2)]
    graphs += _orbit_shapes()
    graphs += [graph(9, [e for e in pairs if rng.random() < p])
               for p in (0.2, 0.3, 0.4, 0.5, 0.6, 0.8)]
    for g in graphs:
        assert nmatrix(g) == _labelled_nmatrix(g), write_graph6(g)


def _relabelled_orbit_shapes():
    """The orbit shapes of `test_isotype`, each relabelled by `Random(47)`."""
    rng = random.Random(47)
    return [_random_relabel(g, rng) for g in _orbit_shapes()]


def _clear_nmatrix_caches():
    for fn in (isotype._labelled, isotype._search, isotype.subset_table, isotype.code_graph):
        fn.cache_clear()


RELABELLED_SHAPES_WORK = (744, 125)


def test_n_matrices_of_relabelled_shapes_do_the_pinned_work():
    """Work pin: from emptied caches, the N-matrices of the relabelled orbit
    shapes make 744 first-leaf descents and 125 searches.  Tallied over each
    graph's own labels they made 1,007 and 124: there two vertex subsets in
    one orbit rarely induce equal bits, and each is descended anew.  A
    change that moves a count on purpose updates it here and says why."""
    graphs = _relabelled_orbit_shapes()
    _clear_nmatrix_caches()
    for g in graphs:
        nmatrix(g)
    work = isotype._labelled.cache_info().misses, isotype._search.cache_info().misses
    assert work == RELABELLED_SHAPES_WORK


def test_an_edgeless_graph_is_refused_before_any_canonical_work(monkeypatch):
    """`nmatrix` refuses an edgeless graph before it canonicalises anything,
    the graph itself included."""
    called = []

    def refuse(*args):
        called.append(args)
        raise RuntimeError(f"canonical work on {args}")

    monkeypatch.setattr(isotype, "_labelled", refuse)
    monkeypatch.setattr(isotype, "_search", refuse)
    for n in (0, 1, 5):
        with pytest.raises(DomainError):
            nmatrix(empty_graph(n))
    assert called == []


def test_nmatrix_prism_golden(prism):
    assert nmatrix(prism).rows == PRISM_MATRIX


def test_nmatrix_small():
    assert nmatrix(path(2)).rows == ((1,),)
    assert nmatrix(path(3)).rows == ((1, 0), (2, 1))


def test_strip_drops_labels(prism):
    nm = nmatrix(prism)
    assert nm.labels is not None
    un = strip(nm)
    assert un.labels is None and un.rows == nm.rows


def test_infer_v_e(prism):
    ve = infer_v_e(strip(nmatrix(prism)))
    assert ve[8] == (6, 9)
    assert ve[0] == (2, 1)
    assert infer_v_e(strip(nmatrix(path(2)))) == ((2, 1),)
    assert infer_v_e(strip(nmatrix(path(3)))) == ((2, 1), (3, 2))


def test_infer_v_e_rejects_bad_matrices():
    with pytest.raises(InvalidMatrixError):
        infer_v_e(NMatrix(((1, 0), (0, 1)), None))  # two K2 rows
    with pytest.raises(InvalidMatrixError):
        infer_v_e(NMatrix(((1, 1), (1, 1)), None))  # mutual containment
    with pytest.raises(InvalidMatrixError):
        infer_v_e(NMatrix(((1, 0), (2, 2)), None))  # bad diagonal
    with pytest.raises(InvalidMatrixError):
        infer_v_e(NMatrix(((1, 0, 0), (1, 1, 0)), None))  # not square
    # a 3-vertex row with 4 edges; before, it was read and given a rank polynomial
    with pytest.raises(InvalidMatrixError, match="4 edges on 3 vertices"):
        infer_v_e(NMatrix(((1, 0), (4, 1)), None))


def _naive_poset(rows):
    """(ve, sorted labelled covers) of a matrix straight from the definitions,
    or None for a matrix that is no N-matrix.

    Row j lies under row i iff N[i][j] != 0; the order must be antisymmetric
    and transitive (checked over every triple), with one K2 row, the one row
    with nothing else under it, under every row.  v is 2 plus the longest
    chain up from the K2 row, every cover must step one rank, e is the entry
    in the K2 column, and e <= C(v, 2).
    """
    size = len(rows)
    if not size or any(len(r) != size for r in rows) or any(x < 0 for r in rows for x in r):
        return None
    if any(rows[i][i] != 1 for i in range(size)):
        return None
    under = [[rows[i][j] != 0 for j in range(size)] for i in range(size)]
    if any(under[i][j] and under[j][i] for i in range(size) for j in range(size) if i != j):
        return None
    k2s = [i for i in range(size) if sum(under[i]) == 1]
    if len(k2s) != 1 or not all(under[i][k2s[0]] for i in range(size)):
        return None
    for i in range(size):
        for j in range(size):
            for k in range(size):
                if under[i][j] and under[j][k] and not under[i][k]:
                    return None
    memo = {}

    def rank(i):
        if i not in memo:
            memo[i] = 2 if i == k2s[0] else \
                1 + max(rank(j) for j in range(size) if j != i and under[i][j])
        return memo[i]

    covers = sorted((j, i, rows[i][j]) for i in range(size) for j in range(size)
                    if i != j and under[i][j] and not any(
                        under[i][k] and under[k][j] for k in range(size) if k not in (i, j)))
    if any(rank(i) != rank(j) + 1 for j, i, _lab in covers):
        return None
    ve = tuple((rank(i), rows[i][k2s[0]]) for i in range(size))
    if any(e > comb(v, 2) for v, e in ve):
        return None
    return ve, covers


def _fast_poset(rows):
    """What `infer_v_e` and `elp_from_nmatrix` give, or None if they refuse."""
    nm = NMatrix(tuple(map(tuple, rows)), None)
    try:
        ve = infer_v_e(nm)
        return ve, list(elp_from_nmatrix(nm).covers)
    except InvalidMatrixError:
        return None


def _shuffled(rows, rng):
    """The matrix under a random simultaneous permutation of rows and columns."""
    perm = list(range(len(rows)))
    rng.shuffle(perm)
    return [[rows[a][b] for b in perm] for a in perm]


def test_cover_walk_matches_the_definitions(corpus6):
    """The same (v, e) and covers as the definitions on every N-matrix with
    n <= 6, both as built and with its rows shuffled, and on the 1-row K2 matrix."""
    rng = random.Random(6)
    assert _fast_poset(((1,),)) == _naive_poset(((1,),)) == (((2, 1),), [])
    assert canonical_nmatrix(NMatrix(((1,),))).rows == ((1,),)
    assert elp_automorphisms(Elp((2,), ())) == []
    for g in corpus6:
        if g.e:
            rows = nmatrix(g).rows
            for m in (rows, _shuffled(rows, rng)):
                want = _naive_poset(m)
                assert want is not None and _fast_poset(m) == want, g


def test_cover_walk_refuses_what_the_definitions_refuse():
    """The same verdict, and on acceptance the same poset, as the definitions
    on seeded corruptions of shuffled n <= 5 matrices: one to three entries
    each set to 0, to 1, or moved by +-1."""
    rng = random.Random(5)
    mats = [nmatrix(g).rows for g in all_graphs(5, min_edges=1)]
    verdicts = Counter()
    for _ in range(6000):
        rows = _shuffled(rng.choice(mats), rng)
        size = len(rows)
        for _edit in range(rng.randint(1, 3)):
            i, j = rng.randrange(size), rng.randrange(size)
            rows[i][j] = rng.choice((0, 1, rows[i][j] + 1, rows[i][j] - 1))
        want = _naive_poset(rows)
        assert _fast_poset(rows) == want, rows
        verdicts[want is None] += 1
    assert verdicts[True] > 1000 and verdicts[False] > 1000, verdicts


def test_elp_prism_matches_published_diagram(prism):
    elp = elp_from_nmatrix(nmatrix(prism))
    assert elp.size == 9
    assert elp.ranks == (2, 3, 3, 3, 4, 4, 4, 5, 6)
    assert len(elp.covers) == 13
    assert sorted(lab for _j, _i, lab in elp.covers) == \
        [1, 1, 1, 1, 2, 2, 2, 2, 2, 2, 3, 4, 6]
    # the unique top cover edge carries the multiplicity 6
    tops = [c for c in elp.covers if c[1] == 8]
    assert tops == [(7, 8, 6)]
    # the C4 node (rank 4, row 6) covers only the P3 node, with label 4
    into_c4 = [c for c in elp.covers if c[1] == 6]
    assert into_c4 == [(2, 6, 4)]


def test_elp_p3():
    elp = elp_from_nmatrix(nmatrix(path(3)))
    assert elp.covers == ((0, 1, 2),)
    elp_k2 = elp_from_nmatrix(nmatrix(path(2)))
    assert elp_k2.size == 1 and elp_k2.covers == ()


def test_roundtrip_entrywise(corpus6):
    for g in corpus6:
        if g.e == 0:
            continue
        nm = strip(nmatrix(g))
        assert nmatrix_from_elp(elp_from_nmatrix(nm)).rows == nm.rows


def _seeded9_posets() -> list:
    """The posets of 40 seeded G(9, p) graphs, p from 0.2 to 0.8."""
    rng = random.Random(9)
    pairs = list(combinations(range(9), 2))
    graphs = [graph(9, [e for e in pairs if rng.random() < 0.2 + 0.6 * k / 39])
              for k in range(40)]
    return [elp_from_nmatrix(nmatrix(g)) for g in graphs if g.e]


def _rows_or_refusal(fill, elp):
    try:
        return fill(elp).rows
    except InvalidMatrixError:
        return "refused"


def test_the_sparse_fill_matches_the_dense_witness(corpus6):
    elps = [elp_from_nmatrix(nmatrix(g)) for g in corpus6 if g.e] + _seeded9_posets()
    assert len(elps) == 202 + 40
    for elp in elps:
        assert nmatrix_from_elp(elp).rows == dense_fill(elp).rows, elp


def test_the_fill_and_its_witness_refuse_the_same_posets(corpus5):
    """A label that does not divide, a cover that skips a rank, and every +-1
    change of one label of a poset with n <= 5: both fills give the same rows,
    or both refuse."""
    odd = Elp((2, 3, 4), ((0, 1, 1), (1, 2, 1)))  # row 2 would hold 1/2 K2
    skip = Elp((2, 3, 4), ((0, 1, 1), (0, 2, 1)))
    for elp in (odd, skip):
        assert _rows_or_refusal(dense_fill, elp) == "refused"
        assert _rows_or_refusal(nmatrix_from_elp, elp) == "refused"
    refused = 0
    for g in corpus5:
        if not g.e:
            continue
        elp = elp_from_nmatrix(nmatrix(g))
        for c, (j, i, lab) in enumerate(elp.covers):
            for new in (lab - 1, lab + 1):
                if new < 1:
                    continue
                bad = Elp(elp.ranks, elp.covers[:c] + ((j, i, new),) + elp.covers[c + 1:])
                want = _rows_or_refusal(dense_fill, bad)
                assert _rows_or_refusal(nmatrix_from_elp, bad) == want, bad
                refused += want == "refused"
    assert refused > 0


def test_child_nmatrices(prism):
    kids = child_nmatrices(strip(nmatrix(prism)))
    assert len(kids) == 1 and kids[0][1] == 6
    lam8 = induced_subgraph(prism, [0, 1, 2, 3, 4])
    want = canonical_nmatrix(strip(nmatrix(lam8))).rows
    assert kids[0][0].rows == want

    kids = child_nmatrices(strip(nmatrix(path(3))))
    assert len(kids) == 1 and kids[0][1] == 2 and kids[0][0].rows == ((1,),)

    assert child_nmatrices(strip(nmatrix(path(2)))) == []


def test_child_nmatrices_match_direct(corpus6):
    for g in corpus6:
        if g.e == 0:
            continue
        got = {k.rows: m for k, m in child_nmatrices(strip(nmatrix(g)))}
        want = {}
        for u in range(g.n):
            card = induced_subgraph(g, set(range(g.n)) - {u})
            if card.e == 0:
                continue
            key = canonical_nmatrix(strip(nmatrix(card))).rows
            want[key] = want.get(key, 0) + 1
        assert got == want, g


def test_count_empty_induced(prism):
    assert count_empty_induced(strip(nmatrix(path(3))), 2) == 1
    assert count_empty_induced(strip(nmatrix(complete(3))), 2) == 0
    assert count_empty_induced(strip(nmatrix(prism)), 2) == 6
    with pytest.raises(DomainError):
        count_empty_induced(strip(nmatrix(complete(3))), 4)


def test_count_empty_matches_direct(corpus6):
    for g in corpus6:
        if g.e == 0:
            continue
        nm = strip(nmatrix(g))
        for r in range(2, g.n + 1):
            assert count_empty_induced(nm, r) == count_induced(g, empty_graph(r))


def test_elp_automorphisms_trivial(prism):
    assert elp_automorphisms(elp_from_nmatrix(nmatrix(prism))) == []
    assert elp_automorphisms(elp_from_nmatrix(nmatrix(path(2)))) == []


def _brute_force_automorphisms(elp):
    """Non-identity node permutations keeping every rank and labelled cover, in lexicographic order."""
    size = elp.size
    covers = set(elp.covers)
    return [sigma for sigma in permutations(range(size))
            if sigma != tuple(range(size))
            and all(elp.ranks[sigma[i]] == elp.ranks[i] for i in range(size))
            and {(sigma[j], sigma[i], lab) for j, i, lab in covers} == covers]


def test_elp_automorphisms_find_planted_symmetry():
    # a hand-built labelled poset with two interchangeable middle nodes
    elp = Elp((2, 3, 3, 4), ((0, 1, 1), (0, 2, 1), (1, 3, 2), (2, 3, 2)))
    auts = elp_automorphisms(elp)
    assert (0, 2, 1, 3) in auts
    # three rank-3 nodes over the K2 node, each pair of them under its own rank-4 node:
    # two 3-node cells, 36 cell orderings, of which the 6 that move both alike are
    # automorphisms.  The nodes are numbered top-down, so the cells do not come in
    # row order and the order the orderings are met in is not the order returned.
    triangle = Elp((5, 4, 4, 4, 3, 3, 3, 2),
                   ((1, 0, 1), (2, 0, 1), (3, 0, 1),
                    (4, 1, 1), (4, 2, 1), (5, 2, 1), (5, 3, 1), (6, 1, 1), (6, 3, 1),
                    (7, 4, 2), (7, 5, 2), (7, 6, 2)))
    for poset, count in ((elp, 1), (triangle, 5)):
        want = _brute_force_automorphisms(poset)
        assert len(want) == count
        assert elp_automorphisms(poset) == want


def test_canonical_nmatrix_properties(prism, corpus6):
    nm = strip(nmatrix(prism))
    cn = canonical_nmatrix(nm)
    assert canonical_nmatrix(cn).rows == cn.rows  # idempotent
    # invariant under admissible input reorder: swap two same-rank rows
    perm = [0, 2, 1, 3, 4, 5, 6, 7, 8]
    rows = tuple(tuple(nm.rows[perm[i]][perm[j]] for j in range(9)) for i in range(9))
    assert canonical_nmatrix(NMatrix(rows, None)).rows == cn.rows
    # distinct graphs yield distinct canonical forms at this scale
    forms = set()
    total = 0
    for g in corpus6:
        if g.e == 0:
            continue
        forms.add(canonical_nmatrix(strip(nmatrix(g))).rows)
        total += 1
    assert len(forms) == total == 202


def test_json_roundtrip(prism):
    nm = nmatrix(prism)
    d = nmatrix_to_json(nm)
    assert d["size"] == 9 and d["ve"][8] == [6, 9]
    back = nmatrix_from_json(d)
    assert back.rows == nm.rows
    assert [c.code for c in back.labels.classes] == \
        [c.code for c in nm.labels.classes]
    elp = elp_from_nmatrix(nm)
    e = elp_to_json(elp)
    assert elp_from_json(e) == elp
    with pytest.raises(InvalidMatrixError):
        nmatrix_from_json({"rows": "nope"})


def test_matrix_labels_must_have_their_rows_orders_and_sizes(monkeypatch):
    """A label whose (v, e) is not its row's is refused before any label is
    canonicalised, a 62-vertex one included.  Codes are read from adjacency
    bits, so the spy sits on their entry point, and it sees the labels of
    the matrix it accepts."""
    canonicalised = []
    bits_code = isotype.bits_code
    monkeypatch.setattr(isotype, "bits_code",
                        lambda n, bits: canonicalised.append((n, bits)) or bits_code(n, bits))
    for labels in (["Bw"], [write_graph6(complete(62))], ["@"]):
        with pytest.raises(InvalidMatrixError, match="label 0 has"):
            nmatrix_from_json({"rows": [[1]], "labels": labels})
    with pytest.raises(InvalidMatrixError, match="label 1 has"):
        nmatrix_from_json({"rows": [[1, 0], [2, 1]], "labels": ["A_", "Bw"]})
    assert canonicalised == []
    nm = nmatrix_from_json({"rows": [[1, 0], [2, 1]], "labels": ["A_", "Bg"]})
    assert [c.code for c in nm.labels.classes] == [canonical_code(path(2)),
                                                   canonical_code(path(3))]
    labels = [(g.n, isotype.edge_bits(g.edges)) for g in map(parse_graph6, ("A_", "Bg"))]
    assert canonicalised[:2] == labels


def test_matrix_labels_of_the_right_sizes_but_the_wrong_types_are_refused(prism):
    """Before, the matrix of P4 with its top label replaced by the star K1,3,
    both (4, 3), read back with the star as its label."""
    d = nmatrix_to_json(nmatrix(path(4)))
    d["labels"][-1] = write_graph6(graph(4, [(0, 1), (0, 2), (0, 3)]))
    with pytest.raises(InvalidMatrixError, match="not the induced-subgraph types"):
        nmatrix_from_json(d)
    # the prism's two (4, 4) labels swapped: the right types, in the wrong rows
    d = nmatrix_to_json(nmatrix(prism))
    assert d["ve"][5] == d["ve"][6] == [4, 4]
    d["labels"][5], d["labels"][6] = d["labels"][6], d["labels"][5]
    with pytest.raises(InvalidMatrixError, match="not their counts"):
        nmatrix_from_json(d)


def _k2_plus_isolated_json(n):
    """The labelled matrix JSON of K2 + (n - 2)K1: N[i][j] = C(i, j) on rows 0..n-2."""
    return {"rows": [[comb(i, j) for j in range(n - 1)] for i in range(n - 1)],
            "labels": [write_graph6(graph(k, [(0, 1)])) for k in range(2, n + 1)]}


def test_a_matrix_over_the_vertex_limit_is_refused_before_any_work(monkeypatch):
    """Checking labels by type builds the top label's subset table, and the
    reconstruction's work grows with the order, so a matrix whose rows imply
    more than VERTEX_LIMIT vertices is refused first.  For K2 + 60K1 the table
    would have 2^62 entries; before, canonicalising its labels ran for
    minutes, and `recon` on the unlabelled K2 + 18K1 ran for over a minute."""
    nm = nmatrix_from_json(_k2_plus_isolated_json(VERTEX_LIMIT))
    assert nm.labels.classes[-1].v == VERTEX_LIMIT
    called = []

    def refuse(*args):
        called.append(args)
        raise RuntimeError(f"canonical work on {args}")

    monkeypatch.setattr(deck, "subset_table", refuse)
    monkeypatch.setattr(isotype, "_labelled", refuse)
    monkeypatch.setattr(isotype, "_search", refuse)
    for d in (_k2_plus_isolated_json(62), {"rows": _k2_plus_isolated_json(20)["rows"]},
              {"rows": _k2_plus_isolated_json(VERTEX_LIMIT + 1)["rows"]}):
        with pytest.raises(InvalidMatrixError, match=f"over the limit of {VERTEX_LIMIT}"):
            nmatrix_from_json(d)
    assert called == []


def test_the_reader_refuses_more_rows_than_the_limit_before_reading_an_entry(monkeypatch):
    """More rows than a VERTEX_LIMIT-vertex graph has types are refused by the
    library reader itself, before any entry is converted."""
    read = []
    monkeypatch.setattr(deck, "json_int", read.append)
    limit = 2 ** VERTEX_LIMIT
    with pytest.raises(InvalidMatrixError, match=f"{limit + 1} matrix rows is over the "
                                                 f"limit of {limit}"):
        nmatrix_from_json({"rows": [[1]] * (limit + 1)})
    assert read == []


@pytest.mark.parametrize("cover", [{"from": 0, "to": 2, "label": 1},
                                   {"from": -1, "to": 1, "label": 1},
                                   {"from": 0, "to": 1, "label": -1},
                                   {"from": 0, "to": 1, "label": 0}],
                         ids=["to-out-of-range", "from-negative", "label-negative", "label-zero"])
def test_poset_json_with_a_cover_no_matrix_can_have_is_refused(cover):
    """Before, an out-of-range end escaped as IndexError from the fill, and a
    label of -1 gave the matrix rows ((1, 0), (-1, 1))."""
    d = {"nodes": [{"rank": 2}, {"rank": 3}], "covers": [cover]}
    with pytest.raises(InvalidMatrixError):
        elp_from_json(d)
    assert nmatrix_from_elp(elp_from_json({**d, "covers": [{"from": 0, "to": 1, "label": 2}]})
                            ).rows == ((1, 0), (2, 1))


def test_poset_json_with_a_repeated_cover_is_refused():
    """Before, the fill kept the last label of the pair (0, 1) and gave the rows
    ((1, 0, 0), (4, 1, 0), (2, 1, 1)), silently dropping the label 2."""
    d = {"nodes": [{"rank": 2}, {"rank": 3}, {"rank": 4}],
         "covers": [{"from": 0, "to": 1, "label": 2}, {"from": 0, "to": 1, "label": 4},
                    {"from": 1, "to": 2, "label": 1}]}
    with pytest.raises(InvalidMatrixError, match="twice"):
        elp_from_json(d)
    d["covers"][1] = {"from": 1, "to": 2, "label": 1}  # the same cover twice
    with pytest.raises(InvalidMatrixError, match="twice"):
        elp_from_json(d)


def test_the_poset_reader_refuses_more_nodes_than_the_limit_before_reading_one(monkeypatch):
    """Before, any node count was read, and `nmatrix_from_elp` then filled a
    size x size matrix: 0.96 s and 153 MB of peak RSS for 3000 nodes."""
    limit = 2 ** VERTEX_LIMIT
    read = []
    monkeypatch.setattr(deck, "json_int", read.append)
    with pytest.raises(InvalidMatrixError, match=f"{limit + 1} poset nodes is over the "
                                                 f"limit of {limit}"):
        elp_from_json({"nodes": [{"rank": 1}] * (limit + 1), "covers": []})
    assert read == []
    monkeypatch.undo()
    # `limit` nodes are read, and then refused for their rank profile
    with pytest.raises(InvalidMatrixError, match="not 1..1"):
        elp_from_json({"nodes": [{"rank": 1}] * limit, "covers": []})


def test_the_rank_bounds_are_the_type_counts():
    """t_r is the number of types on r vertices with an edge; from r = 7 on,
    C(n, r) <= C(10, 7) = 120 is below t_6 <= t_r, so it is the bound."""
    types = Counter(g.n for g in all_graphs(6, min_edges=1))
    assert deck._TYPES_WITH_AN_EDGE == {r: types[r] for r in range(2, 7)}
    assert max(comb(n, r) for n in range(VERTEX_LIMIT + 1) for r in range(7, n + 1)) < types[6]


def _ranked(profile) -> dict:
    """Poset JSON with `profile[r]` nodes of rank r and no covers."""
    return {"nodes": [{"rank": r} for r, k in profile.items() for _ in range(k)], "covers": []}


@pytest.mark.parametrize("profile, message", [
    ({2: 2, 3: 1}, "2 nodes of rank 2 is more than the 1"),
    ({2: 1, 3: 2}, "2 nodes of rank 3 is more than the 1"),
    ({2: 1, 11: 1}, "not 2..11"),
    ({1: 1, 2: 1, 3: 1}, "not 1..3"),
    ({2: 1, 3: 4, 4: 1}, "4 nodes of rank 3 is more than the 3"),
    ({2: 1, 3: 3, 4: 6, 5: 1}, "6 nodes of rank 4 is more than the 5"),
    ({2: 1, 6: 8, 7: 1}, "8 nodes of rank 6 is more than the 7"),
], ids=["two-k2", "two-tops", "too-large", "rank-1", "over-types", "over-subsets",
        "over-subsets-6"])
def test_the_poset_reader_refuses_a_rank_profile_no_graph_has(profile, message):
    with pytest.raises(InvalidMatrixError, match=message):
        elp_from_json(_ranked(profile))


def test_the_poset_reader_refuses_three_full_ranks_before_reading_a_cover(monkeypatch):
    """Before, 3 x 340 nodes with every cover between adjacent ranks were read
    and filled: 4.5 s and 119 MB of peak RSS."""
    d = _ranked({2: 340, 3: 340, 4: 340})
    d["covers"] = [{"from": j, "to": i, "label": 1}
                   for lo in (0, 340) for j in range(lo, lo + 340)
                   for i in range(lo + 340, lo + 680)]
    read = []
    monkeypatch.setattr(deck, "json_int", lambda x: read.append(x) or x)
    with pytest.raises(InvalidMatrixError, match="340 nodes of rank 2 is more than the 1"):
        elp_from_json(d)
    assert len(read) == 1020  # the ranks, and no cover


def test_every_poset_with_at_most_seven_vertices_is_read_back():
    for g in all_graphs(7, min_edges=1):
        elp = elp_from_nmatrix(nmatrix(g))
        assert elp_from_json(elp_to_json(elp)) == elp, write_graph6(g)


def _build():
    """Hand-run N-matrix work: `PYTHONPATH=src python tests/test_deck.py build`.

    For each relabelled orbit shape (`_relabelled_orbit_shapes`), from
    emptied caches, prints its order and size, the `_labelled` and `_search`
    misses of its `nmatrix` and the CPU seconds it takes; then the totals.
    """
    total = [0, 0, 0.0]
    print("shape  n   e  labelled_misses  search_misses  cpu_s")
    for k, g in enumerate(_relabelled_orbit_shapes()):
        _clear_nmatrix_caches()
        start = time.process_time()
        nmatrix(g)
        seconds = time.process_time() - start
        work = isotype._labelled.cache_info().misses, isotype._search.cache_info().misses
        print("%5d %2d %3d %16d %14d %7.4f" % (k, g.n, g.e, *work, seconds))
        total = [a + b for a, b in zip(total, (*work, seconds))]
    print("total %23d %14d %7.4f" % tuple(total))


if __name__ == "__main__" and sys.argv[1:] == ["build"]:
    _build()
